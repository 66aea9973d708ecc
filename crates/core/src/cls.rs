//! The assembled CLS prefetcher.
//!
//! Wires the neocortex (slow Hebbian structure learner), hippocampus
//! (fast episodic store), replay scheduler, training period (§5.1),
//! and, under other-phases replay, the phase detector behind the
//! [`hnp_memsim::Prefetcher`] interface,
//! per the deployment in Fig. 1 of the paper: the prefetcher consumes
//! the demand-miss stream and predicts future miss deltas.

use std::collections::VecDeque;

use hnp_memsim::deltas::{pages_from_rollout, DeltaVocab};
use hnp_memsim::prefetcher::{MissEvent, Prefetcher};
use hnp_obs::{Event, Registry};

use crate::adaptive::AdaptiveGeometry;
use crate::confidence::ConfidenceTracker;
use crate::encoder::{Encoder, EncoderKind};
use crate::hippocampus::{CapacityPolicy, EpisodeRef, EpisodicStore, Hippocampus};
use crate::neocortex::{Neocortex, NeocortexConfig};
use crate::phase::PhaseDetector;
use crate::replay::{ReplayConfig, ReplayForm, ReplayScheduler};

/// Configuration of the full CLS prefetcher.
#[derive(Debug, Clone)]
pub struct ClsConfig {
    /// Delta vocabulary half-range.
    pub delta_range: i64,
    /// Input encoding (§5.3).
    pub encoder: EncoderKind,
    /// Neocortex sizing.
    pub neocortex: NeocortexConfig,
    /// Prediction steps per miss (prefetch length, §5.2).
    pub lookahead: usize,
    /// Predictions per step (prefetch width, §5.2).
    pub width: usize,
    /// Replay configuration (§3.2, §5.4). Its form decides what the
    /// model computes: [`ReplayForm::OtherPhases`] alone runs phase
    /// detection (§5.4), and `per_step: 0` stores no episodes.
    pub replay: ReplayConfig,
    /// Training-instance selection (§5.1): train on every
    /// `train_every`-th learning miss, 1 being §3.1's every miss. The
    /// default is 4. A skipped miss still advances the recurrent state
    /// and the confidence tracker, and replay follows only a trained
    /// one. Must be positive.
    pub train_every: usize,
    /// Episodic-store capacity (§5.4): a ring of recent episodes. Only
    /// a configuration that replays stores any.
    pub episodic: CapacityPolicy,
    /// Minimum first-step prediction confidence required to issue
    /// prefetches (§5.2: "systems where the network is the bottleneck
    /// require a prefetcher that is highly selective and confident").
    /// Prevents an untrained or defeated model (OOV-dominated streams,
    /// §5.3) from polluting memory with garbage prefetches.
    pub min_confidence: f32,
    /// Feedback-driven width/lookahead adaptation (§5.2 co-design),
    /// starting from `width` and `lookahead`; `false` keeps the static
    /// geometry.
    pub adaptive: bool,
    /// Track deltas and history per source stream (§4: a centralized
    /// prefetcher "may require more processing to ensure that it can
    /// isolate the individual access patterns in the combined access
    /// streams"). One shared model still learns all streams; only the
    /// miss-history bookkeeping is isolated. With `false`, interleaved
    /// streams produce garbage cross-stream deltas.
    pub stream_isolation: bool,
    /// Observer registry; the prefetcher emits replay-step and
    /// periodic epoch-summary events into it, and phase-transition
    /// events under [`ReplayForm::OtherPhases`]. Share the same
    /// registry with the simulator's config to interleave model events
    /// with memory events in one stream (`hnp_serve::ModelKind::build`
    /// does this for every named CLS model).
    pub obs: Registry,
}

impl Default for ClsConfig {
    fn default() -> Self {
        Self {
            delta_range: 64,
            encoder: EncoderKind::OneHot,
            neocortex: NeocortexConfig::default(),
            lookahead: 2,
            width: 2,
            replay: ReplayConfig::default(),
            train_every: 4,
            episodic: CapacityPolicy::Ring { capacity: 4096 },
            min_confidence: 0.03,
            adaptive: false,
            stream_isolation: true,
            obs: Registry::new(),
        }
    }
}

impl ClsConfig {
    /// A plain Hebbian prefetcher: no hippocampus, no replay (the
    /// "Hebbian" series in Fig. 5 before replay is added). It is the
    /// paper's series, so it keeps §3.1's protocol and trains on every
    /// miss.
    pub fn hebbian_only() -> Self {
        Self {
            replay: ReplayConfig::off(),
            train_every: 1,
            ..Self::default()
        }
    }

    /// A small, fast configuration: a 256-unit cortex and half the
    /// default's delta range, every other field the default's. It is
    /// the tests' configuration and serve's `cls` tenant model
    /// (`hnp_serve::ModelKind::Cls`), so a change to the default moves
    /// both.
    pub fn small() -> Self {
        Self {
            delta_range: 32,
            neocortex: NeocortexConfig {
                hidden: 256,
                connectivity: 0.25,
                hidden_active: 26,
                recurrent_bits: 64,
                recurrent_sample: 8,
            },
            ..Self::default()
        }
    }
}

/// Misses between consecutive `EpochSummary` events.
const OBS_EPOCH_PERIOD: u64 = 256;

/// The CLS prefetcher.
pub struct ClsPrefetcher {
    cfg: ClsConfig,
    vocab: DeltaVocab,
    encoder: Encoder,
    cortex: Neocortex,
    hippo: Hippocampus,
    replay: ReplayScheduler,
    /// Learning misses trained on and skipped (§5.1).
    trained: u64,
    skipped: u64,
    /// Built only under [`ReplayForm::OtherPhases`], its one reader.
    phase: Option<PhaseDetector>,
    tracker: ConfidenceTracker,
    adaptive: Option<AdaptiveGeometry>,
    /// Per-stream miss-history contexts (all streams share key 0 when
    /// stream isolation is off).
    streams: std::collections::BTreeMap<u16, StreamCtx>,
    /// Per-miss scratch (DESIGN.md §12.2): the context learned from,
    /// the history predicted from, the context's pattern, and the
    /// recurrent state before training.
    ctx: Vec<usize>,
    hist: Vec<usize>,
    pattern: Vec<u32>,
    recurrent: Vec<u32>,
    steps: u64,
    name: String,
}

/// Per-stream delta-tracking state.
#[derive(Debug, Default, Clone)]
struct StreamCtx {
    history: VecDeque<usize>,
    last_page: Option<u64>,
}

impl ClsPrefetcher {
    /// Builds the prefetcher from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.train_every` is 0.
    pub fn new(cfg: ClsConfig) -> Self {
        assert!(cfg.train_every > 0, "period must be positive");
        let vocab = DeltaVocab::new(cfg.delta_range);
        let encoder = Encoder::new(cfg.encoder, vocab.len());
        let cortex = Neocortex::new(&encoder, vocab.len(), &cfg.neocortex);
        let hippo = Hippocampus::new(cfg.episodic);
        let name = if cfg.replay.per_step > 0 {
            "cls-hebbian".to_string()
        } else {
            "hebbian".to_string()
        };
        let phase = match cfg.replay.form {
            ReplayForm::OtherPhases { window } => Some(PhaseDetector::new(vocab.len(), window)),
            ReplayForm::Interleaved | ReplayForm::SelfReinforce => None,
        };
        Self {
            vocab,
            cortex,
            hippo,
            replay: ReplayScheduler::new(cfg.replay.clone()),
            trained: 0,
            skipped: 0,
            phase,
            tracker: ConfidenceTracker::new(0.02, 256),
            adaptive: cfg
                .adaptive
                .then(|| AdaptiveGeometry::new(cfg.width, cfg.lookahead)),
            streams: std::collections::BTreeMap::new(),
            ctx: Vec::new(),
            hist: Vec::new(),
            pattern: Vec::new(),
            recurrent: Vec::new(),
            steps: 0,
            encoder,
            cfg,
            name,
        }
    }

    /// Smoothed confidence on observed targets.
    pub fn confidence(&self) -> f32 {
        self.tracker.ema()
    }

    /// Rolling prediction accuracy.
    pub fn accuracy(&self) -> f32 {
        self.tracker.windowed_accuracy()
    }

    /// The episodic store (inspection).
    pub fn episodic(&self) -> &Hippocampus {
        &self.hippo
    }

    /// Total replayed examples.
    pub fn replayed(&self) -> u64 {
        self.replay.replayed
    }

    /// Learning misses trained on / skipped under
    /// [`ClsConfig::train_every`].
    pub fn sampler_stats(&self) -> (u64, u64) {
        (self.trained, self.skipped)
    }

    /// Current phase id (0 unless the replay form is
    /// [`ReplayForm::OtherPhases`]).
    pub fn current_phase(&self) -> u64 {
        self.phase.as_ref().map(|p| p.current_phase()).unwrap_or(0)
    }

    /// The neocortex (availability experiments swap its weights).
    pub fn cortex_mut(&mut self) -> &mut Neocortex {
        &mut self.cortex
    }

    /// The adaptive controller's current (width, lookahead), or the
    /// static configuration when adaptation is off.
    pub fn geometry(&self) -> (usize, usize) {
        match &self.adaptive {
            Some(a) => (a.width(), a.lookahead()),
            None => (self.cfg.width, self.cfg.lookahead),
        }
    }

    /// Writes the last `window` tokens of a stream's history to `out`.
    fn context_into(history: &VecDeque<usize>, window: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(history.iter().skip(history.len().saturating_sub(window)));
    }

    /// Learns the transition `self.ctx` → `token` and, when replay is
    /// on, stores it as an episode and replays.
    fn learn(&mut self, token: usize) {
        if self.ctx.is_empty() {
            return;
        }
        self.encoder.encode_into(&self.ctx, &mut self.pattern);
        let pattern = &self.pattern;
        let phase = self.current_phase();
        // Capture the pre-training recurrent context for the episode;
        // only a stored episode reads it.
        if self.cfg.replay.per_step > 0 {
            self.recurrent.clear();
            self.recurrent
                .extend_from_slice(self.cortex.network().recurrent_state());
        }
        let seen = self.trained + self.skipped + 1;
        let train = seen.is_multiple_of(self.cfg.train_every as u64);
        let outcome = if train {
            self.trained += 1;
            self.cortex.train(pattern, token)
        } else {
            self.skipped += 1;
            self.cortex.observe(pattern, token)
        };
        self.tracker.record(outcome.confidence, outcome.correct);
        if self.cfg.replay.per_step == 0 {
            return;
        }
        self.hippo.store_ref(EpisodeRef {
            history: &self.ctx,
            pattern: &self.pattern,
            recurrent: &self.recurrent,
            target: token,
            confidence: outcome.confidence,
            stored_at: self.steps,
            phase,
        });
        if train {
            self.replay
                .after_train(&mut self.cortex, &mut self.hippo, &self.encoder, phase);
        }
    }
}

impl Prefetcher for ClsPrefetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        self.steps += 1;
        let key = if self.cfg.stream_isolation {
            miss.stream
        } else {
            0
        };
        let window = self.encoder.window();
        let stream = self.streams.entry(key).or_default();
        let Some(last) = stream.last_page else {
            stream.last_page = Some(miss.page);
            return Vec::new();
        };
        let delta = (miss.page as i64).wrapping_sub(last as i64);
        let token = self.vocab.token_of(delta);
        stream.last_page = Some(miss.page);
        // Learn the transition (context before this token -> token).
        Self::context_into(&stream.history, window, &mut self.ctx);
        // Advance the history now; `learn` borrows self mutably.
        stream.history.push_back(token);
        while stream.history.len() > window + 1 {
            stream.history.pop_front();
        }
        Self::context_into(&stream.history, window, &mut self.hist);
        let replayed_before = self.replay.replayed;
        self.learn(token);
        let replayed_now = self.replay.replayed - replayed_before;
        if replayed_now > 0 {
            self.cfg.obs.emit(&Event::ReplayStep {
                step: self.steps,
                replayed: replayed_now,
                pressure: self.hippo.stored() as u64,
            });
        }
        if let Some(pd) = &mut self.phase {
            if let Some(change) = pd.observe(token) {
                self.cfg.obs.emit(&Event::PhaseTransition {
                    step: self.steps,
                    from: change.from as i64,
                    to: change.to as i64,
                    novel: change.is_new,
                });
            }
        }
        if self.steps.is_multiple_of(OBS_EPOCH_PERIOD) {
            let net = self.cortex.stats();
            self.cfg.obs.emit(&Event::EpochSummary {
                step: self.steps,
                confidence_milli: (self.tracker.ema() * 1000.0) as u64,
                accuracy_milli: (self.tracker.windowed_accuracy() * 1000.0) as u64,
                replayed: self.replay.replayed,
                overlap_milli: net.overlap_milli(),
                weight_ops: net.update_ops,
            });
        }
        // Predict forward from the full history including `token`;
        // only issue when the model is confident enough (§5.2).
        let (lookahead, width) = match &self.adaptive {
            Some(a) => (a.lookahead(), a.width()),
            None => (self.cfg.lookahead, self.cfg.width),
        };
        let rollout = self
            .cortex
            .predict_into(&self.hist, &self.encoder, lookahead, width);
        if rollout.first_confidence < self.cfg.min_confidence {
            return Vec::new();
        }
        pages_from_rollout(&self.vocab, miss.page, rollout.steps())
    }

    fn on_feedback(&mut self, feedback: &hnp_memsim::prefetcher::PrefetchFeedback) {
        if let Some(a) = &mut self.adaptive {
            a.on_feedback(feedback);
        }
    }

    fn reset_state(&mut self) {
        // A restart loses the per-stream miss-history contexts; the
        // consolidated neocortical weights and episodic store survive.
        self.streams.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
    use hnp_trace::{phased, Access, Pattern, Trace};

    fn sim() -> Simulator {
        Simulator::new(SimConfig {
            capacity_pages: 32,
            miss_latency: 50,
            prefetch_latency: 50,
            max_issue_per_miss: 4,
            ..SimConfig::default()
        })
    }

    #[test]
    fn learns_stride_and_removes_misses() {
        let t = Pattern::Stride.generate(4000, 0);
        let s = sim();
        let base = s.run(&t, &mut NoPrefetcher);
        let mut p = ClsPrefetcher::new(ClsConfig::small());
        let rep = s.run(&t, &mut p);
        assert!(
            rep.pct_misses_removed(&base) > 30.0,
            "removed {:.1}%",
            rep.pct_misses_removed(&base)
        );
    }

    #[test]
    fn learns_pointer_chase() {
        let t = Pattern::PointerChase.generate(6000, 1);
        let s = sim();
        let base = s.run(&t, &mut NoPrefetcher);
        let mut p = ClsPrefetcher::new(ClsConfig::small());
        let rep = s.run(&t, &mut p);
        assert!(
            rep.pct_misses_removed(&base) > 20.0,
            "removed {:.1}%",
            rep.pct_misses_removed(&base)
        );
    }

    #[test]
    fn replay_protects_old_phase_better_than_no_replay() {
        // A-B-A phase trace: learn A, drift to B, return to A.
        let t = phased::phases(
            &[
                (Pattern::PointerChase, 4000),
                (Pattern::Stride, 4000),
                (Pattern::PointerChase, 4000),
            ],
            7,
        );
        let s = sim();
        let base = s.run(&t, &mut NoPrefetcher);
        let mut with = ClsPrefetcher::new(ClsConfig {
            replay: ReplayConfig {
                per_step: 2,
                ..ReplayConfig::default()
            },
            ..ClsConfig::small()
        });
        let mut without = ClsPrefetcher::new(ClsConfig {
            replay: ReplayConfig::off(),
            ..ClsConfig::small()
        });
        let rep_with = s.run(&t, &mut with);
        let rep_without = s.run(&t, &mut without);
        assert!(
            rep_with.pct_misses_removed(&base) >= rep_without.pct_misses_removed(&base) - 2.0,
            "replay {:.1}% vs none {:.1}%",
            rep_with.pct_misses_removed(&base),
            rep_without.pct_misses_removed(&base)
        );
        assert!(with.replayed() > 0, "replay actually ran");
    }

    #[test]
    fn names_reflect_replay_mode() {
        assert_eq!(
            ClsPrefetcher::new(ClsConfig::default()).name(),
            "cls-hebbian"
        );
        assert_eq!(
            ClsPrefetcher::new(ClsConfig::hebbian_only()).name(),
            "hebbian"
        );
        // No replay volume is no replay: no name, and no episodes.
        let mut zero = ClsPrefetcher::new(ClsConfig {
            replay: ReplayConfig {
                per_step: 0,
                ..ReplayConfig::default()
            },
            ..ClsConfig::small()
        });
        assert_eq!(zero.name(), "hebbian");
        let _ = sim().run(&Pattern::Stride.generate(2000, 0), &mut zero);
        assert_eq!(zero.episodic().offered(), 0);
        assert_eq!(zero.replayed(), 0);
    }

    #[test]
    fn first_miss_emits_nothing() {
        let mut p = ClsPrefetcher::new(ClsConfig::small());
        let out = p.on_miss(&MissEvent {
            page: 100,
            tick: 0,
            stream: 0,
        });
        assert!(out.is_empty());
    }

    #[test]
    fn sampler_stats_accumulate() {
        let t = Pattern::Stride.generate(2000, 0);
        let mut p = ClsPrefetcher::new(ClsConfig {
            train_every: 2,
            ..ClsConfig::small()
        });
        let _ = sim().run(&t, &mut p);
        let (trained, skipped) = p.sampler_stats();
        assert!(trained > 0 && skipped > 0);
        assert!((trained as i64 - skipped as i64).abs() <= 1);
    }

    #[test]
    fn default_trains_every_4th_miss_and_hebbian_only_every_miss() {
        // `n` learning misses: the first miss only sets the stream's
        // last page, and the second has no context to learn from yet.
        let n = 1000;
        let pages: Vec<u64> = (0..n + 2).map(|i| 100 + 3 * i).collect();
        let stats = |cfg: ClsConfig| {
            let mut p = ClsPrefetcher::new(cfg);
            for &page in &pages {
                p.on_miss(&MissEvent {
                    page,
                    tick: 0,
                    stream: 0,
                });
            }
            p.sampler_stats()
        };
        assert_eq!(stats(ClsConfig::default()), (n / 4, n - n / 4));
        assert_eq!(stats(ClsConfig::hebbian_only()), (n, 0));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_training_period_panics() {
        let _ = ClsPrefetcher::new(ClsConfig {
            train_every: 0,
            ..ClsConfig::small()
        });
    }

    #[test]
    fn hippocampus_respects_ring_capacity() {
        let t = Pattern::PointerChase.generate(3000, 2);
        let mut p = ClsPrefetcher::new(ClsConfig {
            episodic: CapacityPolicy::Ring { capacity: 100 },
            ..ClsConfig::small()
        });
        let _ = sim().run(&t, &mut p);
        assert!(p.episodic().stored() <= 100);
        assert!(p.episodic().offered() > 100);
    }

    #[test]
    fn stream_isolation_rescues_interleaved_streams() {
        // Two strided streams in disjoint regions, interleaved
        // access-by-access: cross-stream deltas are garbage unless the
        // prefetcher tracks per-stream history.
        let a = Pattern::Stride.generate(3000, 1);
        let b = {
            let params = hnp_trace::patterns::PatternParams {
                base: 0x9_0000_0000,
                ..hnp_trace::patterns::PatternParams::default()
            };
            Pattern::Stride.generate_with(3000, 2, &params)
        };
        let accesses: Vec<Access> = a
            .accesses()
            .iter()
            .zip(b.accesses())
            .flat_map(|(x, y)| [(x, 0), (y, 1)])
            .map(|(x, stream)| Access {
                addr: x.addr,
                stream,
            })
            .collect();
        let trace = Trace::from_accesses(accesses, a.page_shift());
        let s = sim();
        let base = s.run(&trace, &mut NoPrefetcher);
        let mut isolated = ClsPrefetcher::new(ClsConfig {
            stream_isolation: true,
            ..ClsConfig::small()
        });
        let mut mixed = ClsPrefetcher::new(ClsConfig {
            stream_isolation: false,
            ..ClsConfig::small()
        });
        let iso = s.run(&trace, &mut isolated);
        let mix = s.run(&trace, &mut mixed);
        assert!(
            iso.pct_misses_removed(&base) > mix.pct_misses_removed(&base) + 10.0,
            "isolated {:.1}% vs mixed {:.1}%",
            iso.pct_misses_removed(&base),
            mix.pct_misses_removed(&base)
        );
    }

    #[test]
    fn adaptive_geometry_raises_lookahead_under_inference_latency() {
        // §5.2: inference latency makes lookahead-1 prefetches late;
        // the controller must react by predicting further ahead.
        let t = Pattern::Stride.generate(6000, 0);
        let sim_slow = Simulator::new(SimConfig {
            capacity_pages: 32,
            miss_latency: 50,
            prefetch_latency: 50,
            inference_latency: 300,
            max_issue_per_miss: 8,
            ..SimConfig::default()
        });
        let base = sim_slow.run(&t, &mut NoPrefetcher);
        let mut fixed = ClsPrefetcher::new(ClsConfig {
            lookahead: 1,
            width: 1,
            ..ClsConfig::small()
        });
        let mut adaptive = ClsPrefetcher::new(ClsConfig {
            lookahead: 1,
            width: 1,
            adaptive: true,
            ..ClsConfig::small()
        });
        let rep_fixed = sim_slow.run(&t, &mut fixed);
        let rep_adaptive = sim_slow.run(&t, &mut adaptive);
        let (_, lookahead) = adaptive.geometry();
        assert!(
            lookahead > 1,
            "controller must have raised lookahead, still at {lookahead}"
        );
        assert!(
            rep_adaptive.pct_misses_removed(&base) > rep_fixed.pct_misses_removed(&base),
            "adaptive {:.1}% vs fixed {:.1}%",
            rep_adaptive.pct_misses_removed(&base),
            rep_fixed.pct_misses_removed(&base)
        );
    }

    #[test]
    fn phase_detector_runs_only_under_other_phases() {
        use hnp_obs::Counters;
        let t = phased::phases(
            &[
                (Pattern::PointerChase, 3000),
                (Pattern::Stride, 3000),
                (Pattern::PointerChase, 3000),
            ],
            7,
        );
        let run = |replay: ReplayConfig| {
            let reg = Registry::new();
            let counters = Counters::new();
            reg.attach(counters.clone());
            let mut p = ClsPrefetcher::new(ClsConfig {
                replay,
                obs: reg,
                ..ClsConfig::small()
            });
            let _ = sim().run(&t, &mut p);
            (p.current_phase(), counters.get("phase_transition"))
        };
        // Interleaved replay never reads a phase id, so none is made.
        assert_eq!(run(ClsConfig::small().replay), (0, 0));
        let (phase, transitions) = run(ReplayConfig {
            per_step: 1,
            form: ReplayForm::OtherPhases { window: 64 },
        });
        assert!(phase > 0 && transitions > 0, "{phase} after {transitions}");
    }

    #[test]
    fn model_events_flow_and_observers_are_inert() {
        use hnp_obs::Counters;
        let t = phased::phases(&[(Pattern::PointerChase, 3000), (Pattern::Stride, 3000)], 7);
        let s = sim();
        let cfg = ClsConfig {
            replay: ReplayConfig {
                per_step: 2,
                form: ReplayForm::OtherPhases { window: 64 },
            },
            ..ClsConfig::small()
        };
        let mut plain = ClsPrefetcher::new(cfg.clone());
        let rep_plain = s.run(&t, &mut plain);

        let reg = Registry::new();
        let counters = Counters::new();
        reg.attach(counters.clone());
        let mut observed = ClsPrefetcher::new(ClsConfig { obs: reg, ..cfg });
        let rep_obs = s.run(&t, &mut observed);

        assert_eq!(rep_plain, rep_obs, "observers must not perturb the model");
        assert_eq!(counters.get("replayed_episodes"), observed.replayed());
        assert!(counters.get("replay_step") > 0, "replay steps observed");
        assert!(
            counters.get("phase_transition") > 0,
            "the A->B drift must surface as a phase transition"
        );
        assert!(counters.get("epoch_summary") > 0, "epoch summaries flow");
    }

    #[test]
    fn deterministic_given_seed() {
        let t = Pattern::IndirectIndex.generate(2000, 3);
        let s = sim();
        let a = s.run(&t, &mut ClsPrefetcher::new(ClsConfig::small()));
        let b = s.run(&t, &mut ClsPrefetcher::new(ClsConfig::small()));
        assert_eq!(a.full_misses, b.full_misses);
        assert_eq!(a.prefetches_issued, b.prefetches_issued);
    }

    #[test]
    fn extreme_page_jumps_do_not_panic() {
        // Regression: `page as i64 - last as i64` overflowed on a jump
        // between the halves of the `u64` page space, and the delta
        // `i64::MIN` then reached the phase detector as a token far out
        // of vocabulary. Only other-phases replay runs the detector.
        let other_phases = ClsConfig {
            replay: ReplayConfig {
                per_step: 1,
                form: ReplayForm::OtherPhases { window: 2 },
            },
            ..ClsConfig::small()
        };
        for cfg in [ClsConfig::small(), other_phases] {
            let mut p = ClsPrefetcher::new(cfg);
            for (tick, page) in [1u64 << 63, 0, 1].into_iter().enumerate() {
                p.on_miss(&MissEvent {
                    page,
                    tick: tick as u64,
                    stream: 0,
                });
            }
        }
    }
}
