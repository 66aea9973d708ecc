//! Wall-clock micro-timing for the Fig.-2 latency harness.

use std::time::Instant;

/// Times `f` over `iters` calls after `warmup` calls; returns mean
/// nanoseconds per call.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn time_ns(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial multiply-add chain of length `n`; LLVM cannot reduce it
    /// to a closed form (unlike a range sum), so the work is real.
    fn churn(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..std::hint::black_box(n) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    #[test]
    fn timing_scales_with_work() {
        let cheap = time_ns(2, 200, || {
            std::hint::black_box(churn(10));
        });
        let costly = time_ns(2, 200, || {
            std::hint::black_box(churn(100_000));
        });
        assert!(costly > cheap, "costly {costly} vs cheap {cheap}");
    }
}
