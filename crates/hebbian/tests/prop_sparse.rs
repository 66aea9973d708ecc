//! Property tests: the sparse layer against a dense reference model.

use proptest::prelude::*;

use hnp_hebbian::bitset::BitSet;
use hnp_hebbian::sparse::SparseLayer;
use rand::rngs::StdRng;
use rand::SeedableRng;

const INPUTS: usize = 24;
const OUTPUTS: usize = 10;
const CLAMP: i16 = 16;

/// A set over the layer's inputs with the given bits set.
fn input_set(active: &[u32]) -> BitSet {
    let mut set = BitSet::new(INPUTS);
    for &i in active {
        set.insert(i as usize);
    }
    set
}

/// A dense shadow of the sparse layer: `None` where no connection
/// exists.
fn dense_shadow(layer: &SparseLayer) -> Vec<Vec<Option<i16>>> {
    (0..OUTPUTS as u32)
        .map(|o| (0..INPUTS as u32).map(|i| layer.weight(i, o)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under arbitrary Hebbian/anti update sequences: weights stay
    /// clamped, connectivity never changes, and forward scores equal
    /// the dense-model dot product.
    #[test]
    fn sparse_layer_matches_dense_model(
        seed in 0u64..64,
        ops in proptest::collection::vec(
            (0u32..OUTPUTS as u32, proptest::collection::vec(0u32..INPUTS as u32, 0..6), 1i16..4, any::<bool>()),
            1..40,
        ),
        probe in proptest::collection::vec(0u32..INPUTS as u32, 0..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = SparseLayer::new(INPUTS, OUTPUTS, 0.5, CLAMP, 1, &mut rng);
        let connectivity_before = dense_shadow(&layer)
            .iter()
            .map(|row| row.iter().filter(|w| w.is_some()).count())
            .collect::<Vec<_>>();
        let mut model = dense_shadow(&layer);
        for (out, active, step, anti) in &ops {
            let set = input_set(active);
            if *anti {
                layer.anti_update(*out, &set, *step);
                for (i, w) in model[*out as usize].iter_mut().enumerate() {
                    if let Some(v) = w {
                        if set.contains(i) {
                            *v = (*v - step).clamp(-CLAMP, CLAMP);
                        }
                    }
                }
            } else {
                layer.hebbian_update(*out, &set, *step, 1);
                for (i, w) in model[*out as usize].iter_mut().enumerate() {
                    if let Some(v) = w {
                        let delta = if set.contains(i) { *step } else { -1 };
                        *v = (*v + delta).clamp(-CLAMP, CLAMP);
                    }
                }
            }
        }
        // Weights match the dense model and respect the clamp.
        let after = dense_shadow(&layer);
        for (o, row) in after.iter().enumerate() {
            let present = row.iter().filter(|w| w.is_some()).count();
            prop_assert_eq!(present, connectivity_before[o], "connectivity is fixed");
            for (i, w) in row.iter().enumerate() {
                prop_assert_eq!(*w, model[o][i], "weight ({}, {})", i, o);
                if let Some(v) = w {
                    prop_assert!(v.abs() <= CLAMP);
                }
            }
        }
        // Forward equals the dense dot product over active inputs.
        let mut probe_sorted = probe.clone();
        probe_sorted.sort_unstable();
        probe_sorted.dedup();
        let mut scores = vec![0i32; OUTPUTS];
        layer.forward(&probe_sorted, &mut scores);
        for (o, &s) in scores.iter().enumerate() {
            let expect: i32 = probe_sorted
                .iter()
                .filter_map(|&i| model[o][i as usize])
                .map(i32::from)
                .sum();
            prop_assert_eq!(s, expect, "score for output {}", o);
        }
    }
}
