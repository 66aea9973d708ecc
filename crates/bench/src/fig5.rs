//! The Fig.-5 experiment: online memory-prefetching performance of the
//! Hebbian and LSTM networks (plus classical baselines) on
//! application-like workloads.
//!
//! Setup per §3.1 of the paper: for each application a trace is
//! generated, memory is sized at 50 % of the trace footprint, both
//! learned prefetchers run fully online (miss-history length 1 plus
//! recurrent state), and the metric is the percentage of the
//! no-prefetch baseline's misses that were removed.

use hnp_memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp_obs::{Counters, Registry};
use hnp_serve::ModelKind;
use hnp_trace::apps::AppWorkload;

/// Memory capacity as a fraction of the trace footprint (paper: 0.5).
const CAPACITY_FRAC: f64 = 0.5;
/// Demand-miss latency in ticks.
const MISS_LATENCY: u64 = 100;
/// Prefetch latency in ticks.
const PREFETCH_LATENCY: u64 = 100;
/// Trace and model seed.
const SEED: u64 = 5;

/// One (application, prefetcher) result row.
#[derive(Debug, Clone)]
// hnp-lint: allow(unused_pub) caller: bin/fig5_online.rs reads the rows `run_grid` returns
pub struct Fig5Row {
    /// Application name.
    pub app: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// The Fig.-5 metric.
    pub pct_misses_removed: f64,
    /// Useful / issued prefetches.
    pub accuracy: f64,
}

/// The prefetchers compared in the Fig.-5 harness, in column order.
const MODELS: [ModelKind; 6] = [
    ModelKind::Stride,
    ModelKind::Markov,
    ModelKind::Lstm,
    ModelKind::Transformer,
    ModelKind::Hebbian,
    ModelKind::ClsHebbian,
];

/// Runs one application's `accesses`-long trace against one
/// prefetcher (plus the baseline).
fn run_app(app: AppWorkload, model: ModelKind, accesses: usize) -> Fig5Row {
    let trace = app.generate(accesses, SEED);
    let cfg = SimConfig {
        miss_latency: MISS_LATENCY,
        prefetch_latency: PREFETCH_LATENCY,
        max_issue_per_miss: 4,
        max_inflight: 32,
        ..SimConfig::default()
    }
    .sized_to(&trace, CAPACITY_FRAC);
    let base = Simulator::new(cfg.clone()).run(&trace, &mut NoPrefetcher);
    let counters = Counters::new();
    let obs = Registry::new();
    obs.attach(counters.clone());
    let mut p = model.build(SEED, &obs);
    let sim = Simulator::new(cfg.with_observer(obs));
    let rep = sim.run(&trace, p.as_mut());
    // The report and the counters are two independent folds of the same
    // event stream; a mismatch means an emission site drifted.
    assert_eq!(
        counters.get("prefetch_issued"),
        rep.prefetches_issued as u64,
        "event-stream issued count must reproduce the report"
    );
    assert_eq!(
        counters.get("hit") + counters.get("miss"),
        rep.accesses as u64,
        "event stream must account for every access"
    );
    Fig5Row {
        app: app.name().to_string(),
        prefetcher: model.label().to_string(),
        pct_misses_removed: rep.pct_misses_removed(&base),
        accuracy: rep.accuracy(),
    }
}

/// Runs the full grid: every Fig.-5 application, `accesses` long
/// (the paper used 2 B), against every prefetcher.
pub fn run_grid(accesses: usize) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for app in AppWorkload::FIG5 {
        for model in MODELS {
            rows.push(run_app(app, model, accesses));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short traces for test speed.
    const QUICK: usize = 30_000;

    #[test]
    fn hebbian_and_lstm_both_remove_misses_on_tensorflow() {
        let heb = run_app(AppWorkload::TensorFlowLike, ModelKind::Hebbian, QUICK);
        let lstm = run_app(AppWorkload::TensorFlowLike, ModelKind::Lstm, QUICK);
        // Short traces for test speed; the full-scale harness uses
        // 200 k+ accesses and lands both models far higher.
        assert!(
            heb.pct_misses_removed > 12.0,
            "hebbian removed {:.1}%",
            heb.pct_misses_removed
        );
        assert!(
            lstm.pct_misses_removed > 12.0,
            "lstm removed {:.1}%",
            lstm.pct_misses_removed
        );
        // The paper's headline: comparable accuracy.
        let ratio = heb.pct_misses_removed / lstm.pct_misses_removed;
        assert!(
            (0.3..3.3).contains(&ratio),
            "hebbian {:.1}% vs lstm {:.1}% not comparable",
            heb.pct_misses_removed,
            lstm.pct_misses_removed
        );
    }

    #[test]
    fn kv_store_defeats_delta_models() {
        let heb = run_app(AppWorkload::KvStoreLike, ModelKind::Hebbian, QUICK);
        assert!(
            heb.pct_misses_removed < 15.0,
            "kv-store should be unlearnable: {:.1}%",
            heb.pct_misses_removed
        );
    }
}
