//! Phase composition: the interference study (Fig. 3) presents
//! patterns back to back, as phases.

use crate::access::Trace;
use crate::patterns::Pattern;

/// Concatenates traces in order.
///
/// # Panics
///
/// Panics if page shifts differ or `traces` is empty.
fn concat(traces: &[Trace]) -> Trace {
    assert!(!traces.is_empty(), "no traces to concatenate");
    let mut out = traces[0].clone();
    for t in &traces[1..] {
        out.extend(t);
    }
    out
}

/// Builds a phased trace: each `(pattern, len)` spec becomes one phase,
/// with per-phase seeds derived from `seed`.
pub fn phases(specs: &[(Pattern, usize)], seed: u64) -> Trace {
    let traces: Vec<Trace> = specs
        .iter()
        .enumerate()
        .map(|(i, (p, n))| p.generate(*n, seed.wrapping_add(i as u64)))
        .collect();
    concat(&traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_concatenate_lengths() {
        let t = phases(&[(Pattern::Stride, 100), (Pattern::PointerChase, 50)], 1);
        assert_eq!(t.len(), 150);
    }
}
