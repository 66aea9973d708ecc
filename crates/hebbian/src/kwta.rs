//! k-winners-take-all sparse activation.
//!
//! The paper's networks are "sparse in their representations, in that
//! only 1-25 % of the network's hidden layer neurons are activated on
//! an input". k-WTA implements that: the `k` highest-scoring units
//! fire, the rest are silent. [`top_k_into`] ranks the output layer's
//! scores for multi-candidate predictions.

/// Returns the indices of the `k` highest scores, ascending by index.
///
/// Ties are broken toward the lower index so that results are fully
/// deterministic. Returns all indices if `k >= scores.len()`.
///
/// Allocates two fresh buffers per call; the per-miss hot path uses
/// [`k_winners_into`] with reusable scratch instead.
pub fn k_winners(scores: &[i32], k: usize) -> Vec<u32> {
    let mut scratch = Vec::new();
    let mut winners = Vec::new();
    k_winners_into(scores, k, &mut scratch, &mut winners);
    winners
}

/// Allocation-free [`k_winners`]: writes the winner set into
/// `winners` (cleared first), using `scratch` as the workspace.
/// In steady state — once both buffers have reached their high-water
/// capacity — no heap allocation occurs.
///
/// Two strategies, picked by score spread (both produce the identical
/// winner set):
///
/// * **Counting selection** when `max - min <= 4 * n` (always true on
///   the hot path, where scores are bounded by `active × clamp`):
///   histogram the scores in `scratch`, walk buckets from the top to
///   find the threshold score, then emit indices in one ascending
///   pass — strictly-above-threshold ones unconditionally, at-
///   threshold ones lowest-index-first until `k` is reached. No sort
///   at all; the emission order is already ascending.
/// * **Packed quickselect** otherwise: each candidate packs into one
///   `u64` key (sign-biased score high, bit-inverted index low) so
///   "higher score first, lower index on ties" is plain integer
///   comparison for `select_nth_unstable_by`, then the winner prefix
///   is unpacked and sorted ascending.
pub fn k_winners_into(scores: &[i32], k: usize, scratch: &mut Vec<u64>, winners: &mut Vec<u32>) {
    winners.clear();
    if k == 0 {
        return;
    }
    let n = scores.len();
    if k >= n {
        winners.extend(0..n as u32);
        return;
    }
    let (mut min, mut max) = (i32::MAX, i32::MIN);
    for &s in scores {
        min = min.min(s);
        max = max.max(s);
    }
    let range = (max as i64 - min as i64) as usize;
    if range <= 4 * n {
        scratch.clear();
        scratch.resize(range + 1, 0);
        for &s in scores {
            scratch[(s - min) as usize] += 1;
        }
        let mut remaining = k as u64;
        let mut bucket = range;
        while scratch[bucket] < remaining {
            remaining -= scratch[bucket];
            bucket -= 1;
        }
        let threshold = min + bucket as i32;
        let mut ties_left = remaining;
        for (i, &s) in scores.iter().enumerate() {
            if s > threshold {
                winners.push(i as u32);
            } else if s == threshold && ties_left > 0 {
                ties_left -= 1;
                winners.push(i as u32);
            }
        }
        return;
    }
    scratch.clear();
    scratch.extend(
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ((s as u32 ^ 0x8000_0000) as u64) << 32 | !(i as u32) as u64),
    );
    scratch.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    winners.extend(scratch[..k].iter().map(|&key| !(key as u32)));
    winners.sort_unstable();
}

/// Writes into `out` (cleared first) the indices of the `width`
/// highest scores, ordered by score descending, ties toward the lower
/// index. `out` ends empty for `width == 0` and holds every index
/// for `width >= scores.len()`.
///
/// Bounded selection: one pass keeps `out` as the best candidates so
/// far, so most scores cost a single compare against the weakest kept
/// one. No sort, and no allocation once `out` can hold
/// `min(width, scores.len())` entries.
pub fn top_k_into(scores: &[i32], width: usize, out: &mut Vec<usize>) {
    out.clear();
    let width = width.min(scores.len());
    if width == 0 {
        return;
    }
    for (i, &s) in scores.iter().enumerate() {
        if out.len() == width {
            // Indices arrive ascending, so a tie never displaces a
            // kept candidate.
            if s <= scores[out[width - 1]] {
                continue;
            }
            out.pop();
        }
        let at = out.partition_point(|&j| scores[j] >= s);
        out.insert(at, i);
    }
}

/// Pre-optimization reference: full sort of all indices, take the top
/// `k`, re-sort ascending. Kept only to differential-test
/// [`k_winners_into`] (see `tests::matches_naive_reference` and the
/// crate's `differential` proptest module).
#[cfg(test)]
pub(crate) fn k_winners_ref(scores: &[i32], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_by(|&a, &b| scores[b as usize].cmp(&scores[a as usize]).then(a.cmp(&b)));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_top_k() {
        let scores = [5, 1, 9, 3, 7];
        assert_eq!(k_winners(&scores, 2), vec![2, 4]);
        assert_eq!(k_winners(&scores, 3), vec![0, 2, 4]);
    }

    #[test]
    fn ties_break_toward_lower_index() {
        let scores = [4, 4, 4, 4];
        assert_eq!(k_winners(&scores, 2), vec![0, 1]);
    }

    #[test]
    fn k_zero_and_k_big_are_safe() {
        let scores = [1, 2, 3];
        assert!(k_winners(&scores, 0).is_empty());
        assert_eq!(k_winners(&scores, 10), vec![0, 1, 2]);
    }

    #[test]
    fn winners_are_sorted() {
        let scores: Vec<i32> = (0..100).map(|i| (i * 37) % 101).collect();
        let w = k_winners(&scores, 10);
        let mut sorted = w.clone();
        sorted.sort_unstable();
        assert_eq!(w, sorted);
    }

    #[test]
    fn negative_scores_still_select_the_least_negative() {
        let scores = [-10, -3, -7, -1];
        assert_eq!(k_winners(&scores, 2), vec![1, 3]);
    }

    #[test]
    fn into_variant_reuses_buffers_and_matches() {
        let scores: Vec<i32> = (0..200).map(|i| (i * 53) % 97).collect();
        let mut scratch = Vec::new();
        let mut winners = Vec::new();
        for k in [0usize, 1, 7, 100, 200, 500] {
            k_winners_into(&scores, k, &mut scratch, &mut winners);
            assert_eq!(winners, k_winners(&scores, k), "k = {k}");
        }
    }

    #[test]
    fn matches_naive_reference() {
        let scores: Vec<i32> = (0..300).map(|i| (i * 31) % 101 - 50).collect();
        for k in [0usize, 1, 10, 150, 300] {
            assert_eq!(k_winners(&scores, k), k_winners_ref(&scores, k), "k = {k}");
        }
    }

    #[test]
    fn wide_spread_takes_quickselect_path_and_matches() {
        // Spread >> 4n forces the packed-quickselect fallback; both
        // strategies must agree with the naive reference.
        let scores: Vec<i32> = (0..100)
            .map(|i| (i * 7919 % 13) * 1_000_000 - 6_000_000 + i)
            .collect();
        for k in [1usize, 5, 50, 99] {
            assert_eq!(k_winners(&scores, k), k_winners_ref(&scores, k), "k = {k}");
        }
    }
}
