//! Table 1: the memory-access pattern taxonomy.
//!
//! Prints, for each of the five patterns, a sample of the generated
//! access stream and its delta statistics, demonstrating that every
//! pattern is periodic and therefore learnable — the property the
//! Fig.-3 experiments rely on.
//!
//! Usage: `cargo run -p hnp-bench --bin table1_patterns [accesses]`

use hnp_bench::output;
use hnp_trace::stats::TraceStats;
use hnp_trace::Pattern;

fn behavior(p: Pattern) -> &'static str {
    match p {
        Pattern::Stride => "a[i]: regular delta (array traversal)",
        Pattern::PointerChase => "*ptr: pseudorandom list traversal",
        Pattern::IndirectStride => "*(a[i]): pointer array at regular delta",
        Pattern::IndirectIndex => "b[a[i]]: indices at regular delta",
        Pattern::PointerOffset => "*ptr, *(ptr+i): chase plus adjacent data",
    }
}

fn main() {
    let n = output::arg_or(1, "accesses", 1000);
    output::header("Table 1: memory access patterns");
    println!(
        "{:<16} {:<44} {:>8} {:>8} {:>9} {:>10}",
        "pattern", "behavior", "deltas", "top4cov", "entropy", "footprint"
    );
    for p in Pattern::ALL {
        let t = p.generate(n, 42);
        let s = TraceStats::compute(&t);
        let sample: Vec<u64> = t.pages().take(8).collect();
        println!(
            "{:<16} {:<44} {:>8} {:>8.3} {:>9.2} {:>10}",
            p.name(),
            behavior(p),
            s.unique_deltas,
            s.top_delta_coverage(4),
            s.delta_entropy_bits,
            s.footprint_pages
        );
        println!("    first pages: {:?}", sample);
    }
}
