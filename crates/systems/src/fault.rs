//! Fault injection for the system-level simulators.
//!
//! Real disaggregated clusters and CPU-GPU interconnects degrade:
//! links spike and jitter, switches brown out, remote pools slow down,
//! transfers get dropped, nodes crash and restart with cold caches.
//! A prefetcher trained on the fair-weather access stream can turn
//! from an accelerant into a liability under these conditions (every
//! wasted prefetch now competes with demand traffic for a degraded
//! link), so the simulators accept a scripted, seeded
//! [`FaultInjector`] and the prefetcher stack gets explicit
//! degradation hooks (see `hnp_memsim::resilient`).
//!
//! Determinism contract: the injector's RNG is consulted **only while
//! a fault event is active**, so an empty [`FaultSchedule`] leaves the
//! simulation bit-identical to a run without any injector at all.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The most latency, in ticks, that faults may add to one transfer.
/// It bounds a spike's `extra + jitter` and what a slowdown adds to a
/// one-tick transfer (`factor` is at most `MAX_FAULT_DELAY + 1`), and
/// [`FaultInjector::transfer_latency`] caps the sum over overlapping
/// events at it. Every stall a schedule causes is therefore finite,
/// so every run with an accepted schedule ends.
const MAX_FAULT_DELAY: u64 = 10_000;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The link adds `extra` ticks to every transfer, plus a uniform
    /// random jitter in `0..=jitter` ticks.
    LatencySpike {
        /// Deterministic extra latency per transfer.
        extra: u64,
        /// Upper bound of the per-transfer uniform jitter (0 = none).
        jitter: u64,
    },
    /// Each transfer is independently dropped with probability
    /// `drop_prob`. Dropped demand fetches are retried with backoff;
    /// dropped prefetches are cancelled.
    LossyLink {
        /// Per-transfer drop probability in `[0, 1]`.
        drop_prob: f64,
    },
    /// The shared switch browns out to `slots` concurrent transfers
    /// (overrides the configured `shared_link_slots`, even an
    /// uncontended `0`).
    Brownout {
        /// Transfer slots available while the event is active.
        slots: usize,
    },
    /// The remote pool serves transfers `factor`× slower.
    RemoteSlowdown {
        /// Latency multiplier (≥ 1.0 slows the pool down).
        factor: f64,
    },
    /// Node `node` crashes at the event start and restarts when the
    /// event ends: its local memory is flushed, in-flight prefetches
    /// are cancelled, and its prefetcher's transient state is reset.
    NodeCrash {
        /// Index of the crashing node (ignored by the UVM simulator,
        /// where any crash resets the whole device).
        node: usize,
    },
}

impl FaultKind {
    /// Checks the event parameters: a spike within
    /// [`MAX_FAULT_DELAY`], a drop probability in `[0, 1]`, and a
    /// finite, non-negative slowdown factor within the same ceiling.
    fn check(&self) -> Result<(), String> {
        match *self {
            FaultKind::LatencySpike { extra, jitter }
                if extra
                    .checked_add(jitter)
                    .is_none_or(|d| d > MAX_FAULT_DELAY) =>
            {
                Err(format!(
                    "spike extra + jitter must be at most {MAX_FAULT_DELAY} ticks"
                ))
            }
            FaultKind::LossyLink { drop_prob } if !(0.0..=1.0).contains(&drop_prob) => {
                Err("drop_prob must be in [0,1]".to_string())
            }
            FaultKind::RemoteSlowdown { factor }
                if !(0.0..=MAX_FAULT_DELAY as f64 + 1.0).contains(&factor) =>
            {
                Err(format!(
                    "slowdown factor must be finite, non-negative and at most {}",
                    MAX_FAULT_DELAY + 1
                ))
            }
            _ => Ok(()),
        }
    }
}

/// A fault active during `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultEvent {
    /// First tick at which the fault is active.
    pub start: u64,
    /// Number of ticks the fault stays active.
    pub duration: u64,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the event is active at `tick`.
    pub fn active(&self, tick: u64) -> bool {
        tick >= self.start && tick < self.end()
    }

    /// First tick at which the event is over.
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.duration)
    }
}

/// A scripted list of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule: injects nothing, perturbs nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the event's parameters fail [`FaultKind::check`].
    fn with(mut self, event: FaultEvent) -> Self {
        if let Err(why) = event.kind.check() {
            // hnp-lint: allow(panic_hygiene): documented builder contract
            panic!("{why}");
        }
        self.events.push(event);
        self
    }

    /// Appends a latency spike.
    pub fn with_latency_spike(self, start: u64, duration: u64, extra: u64, jitter: u64) -> Self {
        self.with(FaultEvent {
            start,
            duration,
            kind: FaultKind::LatencySpike { extra, jitter },
        })
    }

    /// Appends a lossy-link window.
    pub fn with_lossy_link(self, start: u64, duration: u64, drop_prob: f64) -> Self {
        self.with(FaultEvent {
            start,
            duration,
            kind: FaultKind::LossyLink { drop_prob },
        })
    }

    /// Appends a switch brownout.
    pub fn with_brownout(self, start: u64, duration: u64, slots: usize) -> Self {
        self.with(FaultEvent {
            start,
            duration,
            kind: FaultKind::Brownout { slots },
        })
    }

    /// Appends a remote-pool slowdown.
    pub fn with_slowdown(self, start: u64, duration: u64, factor: f64) -> Self {
        self.with(FaultEvent {
            start,
            duration,
            kind: FaultKind::RemoteSlowdown { factor },
        })
    }

    /// Appends a node crash/restart.
    pub fn with_crash(self, start: u64, duration: u64, node: usize) -> Self {
        self.with(FaultEvent {
            start,
            duration,
            kind: FaultKind::NodeCrash { node },
        })
    }

    /// Parses the CLI/bench schedule DSL: a comma-separated list of
    /// colon-separated events —
    ///
    /// * `spike:START:DUR:EXTRA[:JITTER]`
    /// * `lossy:START:DUR:PROB`
    /// * `brownout:START:DUR:SLOTS`
    /// * `slow:START:DUR:FACTOR`
    /// * `crash:START:DUR:NODE`
    ///
    /// e.g. `lossy:1000:500:0.3,crash:3000:200:1`. An empty string
    /// parses to the empty schedule. Values the builders would reject
    /// are errors: a drop probability outside `[0, 1]`, a spike whose
    /// `EXTRA + JITTER` exceeds 10 000 ticks, and a slowdown factor
    /// that is not finite, is negative or exceeds 10 001.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut schedule = Self::none();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let parts: Vec<&str> = item.split(':').collect();
            let bad = |what: &str| format!("bad {what} in fault event `{item}`");
            if parts.len() < 4 {
                return Err(format!(
                    "fault event `{item}` needs KIND:START:DUR:ARG (got {} fields)",
                    parts.len()
                ));
            }
            let start: u64 = parts[1].parse().map_err(|_| bad("start"))?;
            let duration: u64 = parts[2].parse().map_err(|_| bad("duration"))?;
            let kind = match parts[0] {
                "spike" => FaultKind::LatencySpike {
                    extra: parts[3].parse().map_err(|_| bad("extra"))?,
                    jitter: match parts.get(4) {
                        Some(j) => j.parse().map_err(|_| bad("jitter"))?,
                        None => 0,
                    },
                },
                "lossy" => FaultKind::LossyLink {
                    drop_prob: parts[3].parse().map_err(|_| bad("drop_prob"))?,
                },
                "brownout" => FaultKind::Brownout {
                    slots: parts[3].parse().map_err(|_| bad("slots"))?,
                },
                "slow" => FaultKind::RemoteSlowdown {
                    factor: parts[3].parse().map_err(|_| bad("factor"))?,
                },
                "crash" => FaultKind::NodeCrash {
                    node: parts[3].parse().map_err(|_| bad("node"))?,
                },
                other => return Err(format!("unknown fault kind `{other}` in `{item}`")),
            };
            kind.check()
                .map_err(|why| format!("bad fault event `{item}`: {why}"))?;
            schedule.events.push(FaultEvent {
                start,
                duration,
                kind,
            });
        }
        Ok(schedule)
    }
}

/// Counters of what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultStats {
    /// Transfers dropped by lossy-link events.
    pub transfers_dropped: u64,
    /// Extra latency ticks added by spikes and slowdowns.
    pub extra_latency: u64,
    /// Crash events delivered.
    pub crashes_fired: u64,
}

/// The seeded, deterministic fault injector.
///
/// The simulators consult it on every transfer and at every round
/// boundary. All randomness (jitter, drop decisions) comes from one
/// seeded RNG that is touched only while a relevant event is active,
/// so a given `(schedule, seed)` pair replays identically — and the
/// empty schedule never perturbs the simulation at all.
#[derive(Debug)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    rng: StdRng,
    /// Crash events already delivered, by index into the schedule.
    crashes_taken: BTreeSet<usize>,
    /// What-happened counters.
    pub(crate) stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector for `schedule` with the RNG `seed`.
    pub fn new(schedule: FaultSchedule, seed: u64) -> Self {
        Self {
            schedule,
            rng: StdRng::seed_from_u64(seed),
            crashes_taken: BTreeSet::new(),
            stats: FaultStats::default(),
        }
    }

    /// An injector that never fires (the empty schedule).
    pub fn disabled() -> Self {
        Self::new(FaultSchedule::none(), 0)
    }

    /// Whether the schedule is empty (fast path for the simulators).
    pub fn is_idle(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The latency of a transfer started at `tick` whose fault-free
    /// latency is `base`, after active spikes/slowdowns.
    pub fn transfer_latency(&mut self, tick: u64, base: u64) -> u64 {
        if self.schedule.is_empty() {
            return base;
        }
        let mut latency = base;
        for ev in &self.schedule.events {
            if !ev.active(tick) {
                continue;
            }
            match ev.kind {
                FaultKind::LatencySpike { extra, jitter } => {
                    latency = latency.saturating_add(extra);
                    if jitter > 0 {
                        latency = latency.saturating_add(self.rng.gen_range(0..=jitter));
                    }
                }
                FaultKind::RemoteSlowdown { factor } => {
                    latency = (latency as f64 * factor).round() as u64;
                }
                _ => {}
            }
        }
        let latency = latency.min(base.saturating_add(MAX_FAULT_DELAY));
        self.stats.extra_latency += latency.saturating_sub(base);
        latency
    }

    /// Whether a transfer started at `tick` is dropped by an active
    /// lossy-link event.
    pub fn transfer_dropped(&mut self, tick: u64) -> bool {
        for ev in &self.schedule.events {
            if let FaultKind::LossyLink { drop_prob } = ev.kind {
                if ev.active(tick) && self.rng.gen_bool(drop_prob) {
                    self.stats.transfers_dropped += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Whether any brownout is active at `tick`. A browned-out switch
    /// has lost its admission-control (QoS) path: consumers use this
    /// to switch from "drop excess prefetches" to "queue them behind
    /// demand traffic".
    pub fn in_brownout(&self, tick: u64) -> bool {
        self.schedule
            .events
            .iter()
            .any(|ev| matches!(ev.kind, FaultKind::Brownout { .. }) && ev.active(tick))
    }

    /// The switch's transfer-slot budget at `tick`: the tightest
    /// active brownout, else the configured `base` (0 = uncontended).
    pub fn effective_slots(&self, tick: u64, base: usize) -> usize {
        let mut slots = base;
        for ev in &self.schedule.events {
            if let FaultKind::Brownout { slots: s } = ev.kind {
                if ev.active(tick) {
                    slots = if slots == 0 { s } else { slots.min(s) };
                }
            }
        }
        slots
    }

    /// Delivers a crash for `node` if one is active at `tick` and not
    /// yet delivered; returns the restart tick. Each crash event fires
    /// at most once.
    pub fn take_crash(&mut self, node: usize, tick: u64) -> Option<u64> {
        self.take_crash_where(tick, |n| n == node)
    }

    /// Delivers any pending crash at `tick` regardless of node index
    /// (the UVM device has a single failure domain); returns the
    /// restart tick.
    pub fn take_crash_any(&mut self, tick: u64) -> Option<u64> {
        self.take_crash_where(tick, |_| true)
    }

    fn take_crash_where(&mut self, tick: u64, matches: impl Fn(usize) -> bool) -> Option<u64> {
        for (idx, ev) in self.schedule.events.iter().enumerate() {
            if let FaultKind::NodeCrash { node } = ev.kind {
                if matches(node) && ev.active(tick) && !self.crashes_taken.contains(&idx) {
                    self.crashes_taken.insert(idx);
                    self.stats.crashes_fired += 1;
                    return Some(ev.end());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_schedule_is_transparent() {
        let mut inj = FaultInjector::disabled();
        assert!(inj.is_idle());
        for t in 0..1000 {
            assert_eq!(inj.transfer_latency(t, 100), 100);
            assert!(!inj.transfer_dropped(t));
            assert_eq!(inj.effective_slots(t, 0), 0);
            assert_eq!(inj.effective_slots(t, 7), 7);
            assert!(inj.take_crash(0, t).is_none());
        }
        assert_eq!(inj.stats, FaultStats::default());
    }

    #[test]
    fn spike_and_slowdown_shape_latency() {
        let sched = FaultSchedule::none()
            .with_latency_spike(100, 50, 30, 0)
            .with_slowdown(200, 50, 2.0);
        let mut inj = FaultInjector::new(sched, 1);
        assert_eq!(inj.transfer_latency(0, 100), 100);
        assert_eq!(inj.transfer_latency(120, 100), 130);
        assert_eq!(inj.transfer_latency(149, 100), 130);
        assert_eq!(
            inj.transfer_latency(150, 100),
            100,
            "event windows are half-open"
        );
        assert_eq!(inj.transfer_latency(210, 100), 200);
        assert!(inj.stats.extra_latency >= 30 + 30 + 100);
    }

    #[test]
    fn lossy_link_drops_only_inside_window() {
        let sched = FaultSchedule::none().with_lossy_link(50, 100, 1.0);
        let mut inj = FaultInjector::new(sched, 2);
        assert!(!inj.transfer_dropped(0));
        assert!(inj.transfer_dropped(50));
        assert!(inj.transfer_dropped(149));
        assert!(!inj.transfer_dropped(150));
        assert_eq!(inj.stats.transfers_dropped, 2);
    }

    #[test]
    fn brownout_overrides_even_uncontended_switch() {
        let sched = FaultSchedule::none().with_brownout(10, 10, 2);
        let inj = FaultInjector::new(sched, 3);
        assert_eq!(inj.effective_slots(5, 0), 0);
        assert_eq!(
            inj.effective_slots(15, 0),
            2,
            "brownout caps an unlimited switch"
        );
        assert_eq!(inj.effective_slots(15, 1), 1, "tightest limit wins");
        assert_eq!(inj.effective_slots(15, 8), 2);
    }

    #[test]
    fn crash_fires_once_per_event_and_only_for_its_node() {
        let sched = FaultSchedule::none().with_crash(100, 40, 1);
        let mut inj = FaultInjector::new(sched, 4);
        assert!(inj.take_crash(0, 110).is_none(), "other nodes unaffected");
        assert_eq!(inj.take_crash(1, 110), Some(140));
        assert!(inj.take_crash(1, 120).is_none(), "each event fires once");
        assert_eq!(inj.stats.crashes_fired, 1);
    }

    #[test]
    fn take_crash_any_matches_any_node() {
        let sched = FaultSchedule::none().with_crash(10, 5, 3);
        let mut inj = FaultInjector::new(sched, 5);
        assert_eq!(inj.take_crash_any(12), Some(15));
        assert!(inj.take_crash_any(13).is_none());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mk = || {
            FaultInjector::new(
                FaultSchedule::none()
                    .with_lossy_link(0, 500, 0.5)
                    .with_latency_spike(100, 300, 50, 20),
                0xfa17,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for t in 0..600 {
            assert_eq!(a.transfer_dropped(t), b.transfer_dropped(t));
            assert_eq!(a.transfer_latency(t, 100), b.transfer_latency(t, 100));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parse_round_trips_the_dsl() {
        let s = FaultSchedule::parse(
            "spike:100:50:30:10, lossy:200:100:0.25,brownout:0:10:3,slow:5:5:1.5,crash:9:1:2",
        )
        .unwrap();
        assert_eq!(s.events.len(), 5);
        assert_eq!(
            s.events[0],
            FaultEvent {
                start: 100,
                duration: 50,
                kind: FaultKind::LatencySpike {
                    extra: 30,
                    jitter: 10
                }
            }
        );
        assert_eq!(s.events[1].kind, FaultKind::LossyLink { drop_prob: 0.25 });
        assert_eq!(s.events[4].kind, FaultKind::NodeCrash { node: 2 });
        assert!(FaultSchedule::parse("").unwrap().is_empty());
        assert!(FaultSchedule::parse("spike:1:2").is_err());
        assert!(FaultSchedule::parse("meteor:1:2:3").is_err());
        assert!(FaultSchedule::parse("lossy:1:2:1.5").is_err());
    }

    #[test]
    fn parse_rejects_values_that_hang_or_break_a_run() {
        for spec in [
            "slow:0:100000:inf",
            "slow:0:100000:1e300",
            "slow:0:100000:-1",
            "slow:0:100000:NaN",
            "spike:0:100000:18446744073709551615",
            "spike:0:100000:1:18446744073709551615",
            "spike:0:100000:10000:1",
            "lossy:0:100000:NaN",
        ] {
            assert!(
                FaultSchedule::parse(spec).is_err(),
                "{spec} must be rejected"
            );
        }
        assert!(FaultSchedule::parse("spike:0:100000:9000:1000").is_ok());
        assert!(FaultSchedule::parse("slow:0:100000:10001").is_ok());
    }

    #[test]
    fn transfer_latency_is_capped_and_does_not_wrap() {
        let schedule = FaultSchedule::none()
            .with_latency_spike(0, 100, MAX_FAULT_DELAY, 0)
            .with_latency_spike(0, 100, MAX_FAULT_DELAY, 0)
            .with_slowdown(0, 100, MAX_FAULT_DELAY as f64 + 1.0);
        let mut inj = FaultInjector::new(schedule, 1);
        assert_eq!(inj.transfer_latency(5, 100), 100 + MAX_FAULT_DELAY);
        assert_eq!(inj.transfer_latency(5, u64::MAX - 1), u64::MAX);
        assert_eq!(inj.transfer_latency(500, 100), 100, "events over");
    }

    /// A schedule exercising every fault kind, parameterised so cases
    /// cover disjoint, nested, and overlapping windows.
    fn schedule(
        spike: (u64, u64, u64, u64),
        lossy: (u64, u64, f64),
        brownout: (u64, u64, usize),
        slow: (u64, u64, f64),
    ) -> FaultSchedule {
        FaultSchedule::none()
            .with_latency_spike(spike.0, spike.1, spike.2, spike.3)
            .with_lossy_link(lossy.0, lossy.1, lossy.2)
            .with_brownout(brownout.0, brownout.1, brownout.2)
            .with_slowdown(slow.0, slow.1, slow.2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Same schedule + same seed => every query answers identically,
        /// across an interleaved mix of all query kinds.
        #[test]
        fn injector_is_deterministic(
            seed in 0u64..1_000_000,
            spike in (0u64..500, 1u64..500, 0u64..200, 0u64..50),
            lossy in (0u64..500, 1u64..500, 0.0f64..1.0),
            brownout in (0u64..500, 1u64..500, 1usize..8),
            slow in (0u64..500, 1u64..500, 1.0f64..3.0),
            queries in proptest::collection::vec((0u64..1200, 1u64..300), 1..200),
        ) {
            let sched = schedule(spike, lossy, brownout, slow);
            let mut a = FaultInjector::new(sched.clone(), seed);
            let mut b = FaultInjector::new(sched, seed);
            for (tick, base) in &queries {
                prop_assert_eq!(
                    a.transfer_latency(*tick, *base),
                    b.transfer_latency(*tick, *base)
                );
                prop_assert_eq!(a.transfer_dropped(*tick), b.transfer_dropped(*tick));
                prop_assert_eq!(a.in_brownout(*tick), b.in_brownout(*tick));
                prop_assert_eq!(
                    a.effective_slots(*tick, *base as usize),
                    b.effective_slots(*tick, *base as usize)
                );
            }
            prop_assert_eq!(a.stats.transfers_dropped, b.stats.transfers_dropped);
        }

        /// An empty schedule is inert: base latency passes through
        /// untouched, nothing drops, no brownout, whatever the seed.
        #[test]
        fn empty_schedule_is_inert(
            seed in 0u64..1_000_000,
            queries in proptest::collection::vec((0u64..5000, 1u64..300), 1..100),
        ) {
            let mut inj = FaultInjector::new(FaultSchedule::none(), seed);
            prop_assert!(inj.is_idle());
            for (tick, base) in &queries {
                prop_assert_eq!(inj.transfer_latency(*tick, *base), *base);
                prop_assert!(!inj.transfer_dropped(*tick));
                prop_assert!(!inj.in_brownout(*tick));
                prop_assert_eq!(inj.effective_slots(*tick, 4), 4);
            }
            prop_assert_eq!(inj.stats.transfers_dropped, 0);
        }
    }

    /// Pieces the DSL proptest strings together from, so that most
    /// inputs get past the field splitting into the value checks.
    const FRAGMENTS: &[&str] = &[
        "spike",
        "lossy",
        "brownout",
        "slow",
        "crash",
        ":",
        ":",
        ":",
        ",",
        "0",
        "1",
        "7",
        "100000",
        "10000",
        "10001",
        "0.5",
        "-1",
        "inf",
        "NaN",
        "1e300",
        "18446744073709551615",
    ];

    proptest! {
        /// `parse` never panics on arbitrary text, and whatever it
        /// accepts keeps every transfer's added delay under the
        /// ceiling.
        #[test]
        fn parse_never_panics_and_accepted_delays_are_bounded(
            picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..24),
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            tick in 0u64..1000,
            base in 0u64..1000,
        ) {
            let _ = FaultSchedule::parse(&String::from_utf8_lossy(&bytes));
            let spec: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            if let Ok(schedule) = FaultSchedule::parse(&spec) {
                let mut inj = FaultInjector::new(schedule, 3);
                prop_assert!(inj.transfer_latency(tick, base) <= base + MAX_FAULT_DELAY);
            }
        }
    }
}
