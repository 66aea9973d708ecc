//! Cross-crate integration tests: the full trace -> simulator ->
//! prefetcher pipeline, exercised through the umbrella crate's public
//! API exactly as a downstream user would.

use hnp::baselines::{LstmPrefetcher, MarkovPrefetcher, StrideConfig, StridePrefetcher};
use hnp::core::{ClsConfig, ClsPrefetcher};
use hnp::memsim::{NoPrefetcher, SimConfig, Simulator};
use hnp::traces::apps::AppWorkload;
use hnp::traces::{phased, Pattern};

fn sim_for(trace: &hnp::traces::Trace) -> Simulator {
    Simulator::new(SimConfig::default().sized_to(trace, 0.5))
}

#[test]
fn cls_prefetcher_beats_baseline_on_single_region_patterns() {
    // Stride, pointer-chase and pointer-offset keep their deltas
    // inside the vocabulary; the CLS prefetcher must learn all three.
    for pattern in [
        Pattern::Stride,
        Pattern::PointerChase,
        Pattern::PointerOffset,
    ] {
        let trace = pattern.generate(6_000, 3);
        let sim = sim_for(&trace);
        let base = sim.run(&trace, &mut NoPrefetcher);
        if base.misses() < 100 {
            // Pattern fits in memory; nothing to remove.
            continue;
        }
        let mut cls = ClsPrefetcher::new(ClsConfig::default());
        let rep = sim.run(&trace, &mut cls);
        assert!(
            rep.pct_misses_removed(&base) > 10.0,
            "{}: removed only {:.1}%",
            pattern.name(),
            rep.pct_misses_removed(&base)
        );
    }
}

#[test]
fn region_alternating_patterns_are_the_53_limitation_but_gating_prevents_harm() {
    // Indirect-stride alternates between two far-apart regions, so
    // every page delta falls outside any bounded vocabulary — the
    // encoding limitation §5.3 names. A delta model cannot profit
    // here; confidence-gated issuing must at least keep it from
    // *hurting* (pollution would otherwise make it worse than no
    // prefetching at all).
    let trace = Pattern::IndirectStride.generate(6_000, 3);
    let sim = sim_for(&trace);
    let base = sim.run(&trace, &mut NoPrefetcher);
    let mut cls = ClsPrefetcher::new(ClsConfig::default());
    let rep = sim.run(&trace, &mut cls);
    let removed = rep.pct_misses_removed(&base);
    assert!(
        removed > -5.0,
        "gated model must not pollute: {removed:.1}%"
    );
    // A page-correlation model (Markov) is immune to the encoding
    // limit and must do clearly better.
    let markov = sim.run(&trace, &mut MarkovPrefetcher::new());
    assert!(
        markov.pct_misses_removed(&base) > removed + 20.0,
        "markov {:.1}% vs delta-model {removed:.1}%",
        markov.pct_misses_removed(&base)
    );
}

#[test]
fn learned_prefetchers_handle_pattern_mixes_that_defeat_stride() {
    // Half the trace is pointer chasing, which defeats stride
    // detection outright; the learned model handles both halves.
    let trace = phased::phases(
        &[(Pattern::PointerChase, 5_000), (Pattern::Stride, 5_000)],
        11,
    );
    let sim = sim_for(&trace);
    let base = sim.run(&trace, &mut NoPrefetcher);
    let stride = sim.run(
        &trace,
        &mut StridePrefetcher::with_config(StrideConfig::default()),
    );
    let mut cls = ClsPrefetcher::new(ClsConfig::default());
    let cls_rep = sim.run(&trace, &mut cls);
    assert!(
        cls_rep.pct_misses_removed(&base) > stride.pct_misses_removed(&base),
        "cls {:.1}% must beat stride {:.1}% on the mix",
        cls_rep.pct_misses_removed(&base),
        stride.pct_misses_removed(&base)
    );
}

#[test]
fn hebbian_is_comparable_to_lstm_on_an_app_workload() {
    // The paper's Fig.-5 headline at integration-test scale.
    let trace = AppWorkload::PageRankLike.generate(40_000, 5);
    let sim = sim_for(&trace);
    let base = sim.run(&trace, &mut NoPrefetcher);
    let mut heb = ClsPrefetcher::new(ClsConfig::hebbian_only());
    let heb_rep = sim.run(&trace, &mut heb);
    let mut lstm = LstmPrefetcher::new(0x15b4);
    let lstm_rep = sim.run(&trace, &mut lstm);
    let h = heb_rep.pct_misses_removed(&base);
    let l = lstm_rep.pct_misses_removed(&base);
    assert!(h > 15.0, "hebbian {h:.1}%");
    assert!(l > 15.0, "lstm {l:.1}%");
    assert!(
        (0.5..2.0).contains(&(h / l)),
        "comparable accuracy claim: hebbian {h:.1}% vs lstm {l:.1}%"
    );
}

#[test]
fn full_pipeline_is_deterministic() {
    let trace = AppWorkload::Graph500Like.generate(20_000, 9);
    let sim = sim_for(&trace);
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mut cls = ClsPrefetcher::new(ClsConfig::default());
            sim.run(&trace, &mut cls)
        })
        .collect();
    assert_eq!(runs[0].full_misses, runs[1].full_misses);
    assert_eq!(runs[0].prefetches_issued, runs[1].prefetches_issued);
    assert_eq!(runs[0].prefetches_useful, runs[1].prefetches_useful);
    assert_eq!(runs[0].total_ticks, runs[1].total_ticks);
}

#[test]
fn markov_and_cls_agree_on_access_conservation() {
    // hits + late + full misses == accesses, for any prefetcher.
    let trace = AppWorkload::McfLike.generate(15_000, 1);
    let sim = sim_for(&trace);
    for rep in [
        sim.run(&trace, &mut NoPrefetcher),
        sim.run(&trace, &mut MarkovPrefetcher::new()),
        sim.run(&trace, &mut ClsPrefetcher::new(ClsConfig::default())),
    ] {
        assert_eq!(
            rep.hits + rep.late_prefetch_hits + rep.full_misses,
            rep.accesses,
            "{}: access conservation",
            rep.prefetcher
        );
        assert!(rep.prefetches_useful <= rep.prefetches_issued);
    }
}

#[test]
fn trace_io_roundtrip_preserves_simulation_results() {
    let trace = AppWorkload::TensorFlowLike.generate(10_000, 2);
    let path = std::env::temp_dir().join(format!("hnp-e2e-{}.hnpt", std::process::id()));
    hnp::traces::io::write_binary(&trace, &path).expect("write");
    let back = hnp::traces::io::read_binary(&path).expect("read");
    std::fs::remove_file(&path).ok();
    let sim = sim_for(&trace);
    let a = sim.run(&trace, &mut NoPrefetcher);
    let b = sim.run(&back, &mut NoPrefetcher);
    assert_eq!(a.full_misses, b.full_misses);
    assert_eq!(a.total_ticks, b.total_ticks);
}
