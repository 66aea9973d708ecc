//! Prefetching in a disaggregated-memory cluster (§4 of the paper):
//! four compute nodes running different applications fault pages over
//! the network from a remote pool, one at a time. Each node gets its
//! own CLS prefetcher — the decentralized placement the paper argues
//! for — and the run is compared against no prefetching.
//!
//! ```sh
//! cargo run --release --example disaggregated_cluster
//! ```

use hnp::core::{ClsConfig, ClsPrefetcher};
use hnp::memsim::{NoPrefetcher, Prefetcher};
use hnp::systems::{DisaggConfig, DisaggregatedCluster};
use hnp::traces::apps::AppWorkload;

fn main() {
    let traces = vec![
        AppWorkload::TensorFlowLike.generate(40_000, 1),
        AppWorkload::PageRankLike.generate(40_000, 2),
        AppWorkload::McfLike.generate(40_000, 3),
        AppWorkload::Graph500Like.generate(40_000, 4),
    ];
    let cluster = DisaggregatedCluster::new(DisaggConfig {
        link_latency: 100,
        ..DisaggConfig::default()
    });

    let mut none: Vec<Box<dyn Prefetcher>> = (0..4)
        .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
        .collect();
    let base = cluster.run_decentralized(&traces, &mut none);

    let mut per_node: Vec<Box<dyn Prefetcher>> = (0..4)
        .map(|_| Box::new(ClsPrefetcher::new(ClsConfig::default())) as Box<dyn Prefetcher>)
        .collect();
    let rep = cluster.run_decentralized(&traces, &mut per_node);

    println!("disaggregated cluster, 4 nodes, link latency 100 ticks");
    println!(
        "{:<10} {:>12} {:>14} {:>12}",
        "node", "misses", "misses (cls)", "stall saved"
    );
    for (b, r) in base.nodes.iter().zip(rep.nodes.iter()) {
        println!(
            "{:<10} {:>12} {:>14} {:>11.1}%",
            format!("node-{}", b.node),
            b.misses,
            r.misses,
            100.0 * (b.stall_ticks - r.stall_ticks) as f64 / b.stall_ticks as f64
        );
    }
    println!();
    println!(
        "cluster: {:.1}% of misses removed, wall-clock {} -> {} ticks ({:.2}x speedup)",
        rep.pct_misses_removed(&base),
        base.total_ticks,
        rep.total_ticks,
        base.total_ticks as f64 / rep.total_ticks as f64
    );
}
