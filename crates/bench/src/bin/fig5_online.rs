//! Fig. 5: online memory-prefetching performance (percentage of
//! baseline misses removed) of Hebbian and LSTM networks — plus
//! classical baselines — on four application-like workloads.
//!
//! Setup per §3.1: memory sized at 50 % of the trace footprint, fully
//! online learning, miss-history length 1. The paper's claim is that
//! the Hebbian network is *comparable* to the LSTM at a fraction of
//! the resources.
//!
//! Usage: `cargo run --release -p hnp-bench --bin fig5_online [accesses]`

use hnp_bench::fig5::run_grid;
use hnp_bench::output;

fn main() {
    let accesses = output::arg_or(1, "accesses", 200_000);
    output::header(&format!(
        "Fig. 5: % misses removed vs no-prefetch baseline ({accesses} accesses/app, memory = 50% footprint)"
    ));
    let rows = run_grid(accesses);
    let apps: Vec<String> = {
        let mut v: Vec<String> = rows.iter().map(|r| r.app.clone()).collect();
        v.dedup();
        v
    };
    let prefs: Vec<String> = rows
        .iter()
        .filter(|r| r.app == apps[0])
        .map(|r| r.prefetcher.clone())
        .collect();
    print!("{:<12}", "app");
    for p in &prefs {
        print!(" {:>12}", p);
    }
    println!();
    for app in &apps {
        print!("{app:<12}");
        for p in &prefs {
            let r = rows
                .iter()
                .find(|r| &r.app == app && &r.prefetcher == p)
                .expect("grid complete");
            print!(" {:>11.1}%", r.pct_misses_removed);
        }
        println!();
    }
    println!();
    println!("accuracy (useful / issued):");
    for app in &apps {
        print!("{app:<12}");
        for p in &prefs {
            let r = rows
                .iter()
                .find(|r| &r.app == app && &r.prefetcher == p)
                .expect("grid complete");
            print!(" {:>12.2}", r.accuracy);
        }
        println!();
    }
}
