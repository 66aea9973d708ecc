//! §4 study: the disaggregated-memory target.
//!
//! Compares prefetcher placements on a multi-node cluster:
//!
//! * no prefetching (baseline),
//! * decentralized — one CLS prefetcher per node (the paper's
//!   recommendation: nodes fault one page at a time, latency-bound),
//! * centralized — a single shared prefetcher at the switch seeing all
//!   nodes' miss streams interleaved,
//!
//! and sweeps the link latency to show the benefit growing with
//! distance.
//!
//! Usage: `cargo run --release -p hnp-bench --bin sys_disagg [accesses_per_node]`

use hnp_bench::output;
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{NoPrefetcher, Prefetcher};
use hnp_systems::{DisaggConfig, DisaggregatedCluster};
use hnp_trace::apps::AppWorkload;
use hnp_trace::Trace;

fn node_traces(accesses: usize) -> Vec<Trace> {
    // Heterogeneous nodes: different applications per node.
    vec![
        AppWorkload::TensorFlowLike.generate(accesses, 1),
        AppWorkload::PageRankLike.generate(accesses, 2),
        AppWorkload::McfLike.generate(accesses, 3),
        AppWorkload::Graph500Like.generate(accesses, 4),
    ]
}

fn main() {
    let accesses = output::arg_or(1, "accesses_per_node", 60_000);
    let traces = node_traces(accesses);
    output::header("Disaggregated cluster: placement comparison across link latencies");
    println!(
        "{:<8} {:<17} {:>10} {:>12} {:>12}",
        "latency", "placement", "removed%", "stall/access", "ticks"
    );
    for link_latency in [50u64, 100, 400] {
        let cluster = DisaggregatedCluster::new(DisaggConfig {
            link_latency,
            ..DisaggConfig::default()
        });
        let mut none: Vec<Box<dyn Prefetcher>> = (0..traces.len())
            .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
            .collect();
        let base = cluster.run_decentralized(&traces, &mut none);
        let mut per_node: Vec<Box<dyn Prefetcher>> = (0..traces.len())
            .map(|_| Box::new(ClsPrefetcher::new(ClsConfig::default())) as Box<dyn Prefetcher>)
            .collect();
        let dec = cluster.run_decentralized(&traces, &mut per_node);
        // Centralized, naive: one shared model, cross-node deltas.
        let mut naive = ClsPrefetcher::new(ClsConfig {
            stream_isolation: false,
            ..ClsConfig::default()
        });
        let cen_naive = cluster.run_centralized(&traces, &mut naive);
        // Centralized, per-stream history but one shared model.
        let mut shared = ClsPrefetcher::new(ClsConfig {
            stream_isolation: true,
            ..ClsConfig::default()
        });
        let cen_iso = cluster.run_centralized(&traces, &mut shared);
        // Centralized, fully demultiplexed: one model per stream at
        // the switch (per-node fidelity, switch-side resources).
        let mut demux = hnp_memsim::DemuxPrefetcher::new("cls", |_| {
            Box::new(ClsPrefetcher::new(ClsConfig::default()))
        });
        let cen_demux = cluster.run_centralized(&traces, &mut demux);
        for (label, rep) in [
            ("baseline", &base),
            ("decentralized", &dec),
            ("central-naive", &cen_naive),
            ("central-isolated", &cen_iso),
            ("central-demux", &cen_demux),
        ] {
            println!(
                "{:<8} {:<17} {:>9.1}% {:>12.1} {:>12}",
                link_latency,
                label,
                rep.pct_misses_removed(&base),
                rep.avg_stall_per_access(),
                rep.total_ticks
            );
        }
    }
    output::header("§5.2 selectivity under a constrained switch (decentralized CLS)");
    println!(
        "{:<8} {:<8} {:>10} {:>12} {:>9}",
        "slots", "width", "removed%", "stall/access", "dropped"
    );
    for shared_link_slots in [0usize, 8, 3] {
        let cluster = DisaggregatedCluster::new(DisaggConfig {
            shared_link_slots,
            ..DisaggConfig::default()
        });
        let mut none: Vec<Box<dyn Prefetcher>> = (0..traces.len())
            .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
            .collect();
        let base = cluster.run_decentralized(&traces, &mut none);
        for width in [1usize, 4] {
            let mut pfs: Vec<Box<dyn Prefetcher>> = (0..traces.len())
                .map(|_| {
                    Box::new(ClsPrefetcher::new(ClsConfig {
                        width,
                        ..ClsConfig::default()
                    })) as Box<dyn Prefetcher>
                })
                .collect();
            let rep = cluster.run_decentralized(&traces, &mut pfs);
            let dropped: usize = rep.nodes.iter().map(|n| n.prefetches_dropped).sum();
            println!(
                "{:<8} {:<8} {:>9.1}% {:>12.1} {:>9}",
                shared_link_slots,
                width,
                rep.pct_misses_removed(&base),
                rep.avg_stall_per_access(),
                dropped
            );
        }
    }
}
