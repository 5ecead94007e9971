//! Property-based soundness of pattern canonicalization — the
//! invariants the driver's allocation cache relies on:
//!
//! 1. shifting every offset by a constant does not change the canonical
//!    form, the distance model, the allocation cost, or the generated
//!    update deltas;
//! 2. equal canonical forms ⇒ equal allocation cost at every register
//!    count (the exact-key table);
//! 3. equal cost classes (canonical up to mirroring) ⇒ equal allocation
//!    cost at every register count (the cost-curve table).

use proptest::prelude::*;

use raco::core::Optimizer;
use raco::graph::DistanceModel;
use raco::ir::canonical::CanonicalPattern;
use raco::ir::{AccessPattern, AguSpec};

/// Strategy: a small pattern plus machine and a shift distance.
fn input() -> impl Strategy<Value = (Vec<i64>, i64, u32, i64)> {
    (
        prop::collection::vec(-6i64..=6, 1..=9),
        prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(-2i64), Just(4i64)],
        1u32..=2,
        -40i64..=40,
    )
}

fn shifted(offsets: &[i64], delta: i64) -> Vec<i64> {
    offsets.iter().map(|o| o + delta).collect()
}

fn mirrored(offsets: &[i64]) -> Vec<i64> {
    offsets.iter().map(|o| -o).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn shifting_preserves_the_canonical_form((offsets, stride, _m, delta) in input()) {
        let a = CanonicalPattern::from_offsets(&offsets, stride);
        let b = CanonicalPattern::from_offsets(&shifted(&offsets, delta), stride);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.cost_class(), b.cost_class());
    }

    #[test]
    fn shifting_preserves_the_distance_model((offsets, stride, m, delta) in input()) {
        let a = DistanceModel::from_offsets(&offsets, stride, m);
        let b = DistanceModel::from_offsets(&shifted(&offsets, delta), stride, m);
        for i in 0..offsets.len() {
            for j in 0..offsets.len() {
                prop_assert_eq!(a.intra_distance(i, j), b.intra_distance(i, j));
                prop_assert_eq!(a.wrap_distance(i, j), b.wrap_distance(i, j));
            }
        }
    }

    #[test]
    fn equal_canonical_forms_imply_equal_costs_and_covers(
        (offsets, stride, m, delta) in input(),
    ) {
        let original = AccessPattern::from_offsets(&offsets, stride);
        let moved = AccessPattern::from_offsets(&shifted(&offsets, delta), stride);
        prop_assert_eq!(
            CanonicalPattern::of(&original),
            CanonicalPattern::of(&moved)
        );
        let k_max = 4usize;
        let optimizer = Optimizer::new(AguSpec::new(k_max, m).unwrap());
        prop_assert_eq!(
            optimizer.cost_curve(&original, k_max),
            optimizer.cost_curve(&moved, k_max)
        );
        for k in 1..=k_max {
            let a = optimizer.allocate_with_registers(&original, k);
            let b = optimizer.allocate_with_registers(&moved, k);
            prop_assert_eq!(a.cost(), b.cost(), "k = {}", k);
            prop_assert_eq!(a.virtual_registers(), b.virtual_registers());
            // Same cover structure: the cache may swap one allocation
            // for the other without changing generated code.
            prop_assert_eq!(a.cover().paths().len(), b.cover().paths().len());
            for (pa, pb) in a.cover().paths().iter().zip(b.cover().paths()) {
                prop_assert_eq!(pa.indices(), pb.indices());
            }
        }
    }

    #[test]
    fn equal_cost_classes_imply_equal_costs((offsets, stride, m, _delta) in input()) {
        let fwd = CanonicalPattern::from_offsets(&offsets, stride);
        let neg_stride = -stride;
        let bwd = CanonicalPattern::from_offsets(&mirrored(&offsets), neg_stride);
        prop_assert_eq!(fwd.cost_class(), bwd.cost_class());

        let k_max = 4usize;
        let optimizer = Optimizer::new(AguSpec::new(k_max, m).unwrap());
        let fwd_pattern = AccessPattern::from_offsets(&offsets, stride);
        let bwd_pattern = AccessPattern::from_offsets(&mirrored(&offsets), neg_stride);
        prop_assert_eq!(
            optimizer.cost_curve(&fwd_pattern, k_max),
            optimizer.cost_curve(&bwd_pattern, k_max),
            "mirror images must cost the same at every register count"
        );
    }

    #[test]
    fn canonical_forms_agree_exactly_on_shifted_patterns(
        (offsets, stride, _m, _d) in input(),
        (other_offsets, other_stride, _m2, delta) in input(),
        shift_of_the_first in prop::bool::ANY,
    ) {
        // The second pattern is a shift of the first or drawn on its own.
        let (other_offsets, other_stride) = if shift_of_the_first {
            (shifted(&offsets, delta), stride)
        } else {
            (other_offsets, other_stride)
        };
        let a = CanonicalPattern::from_offsets(&offsets, stride);
        let c = CanonicalPattern::from_offsets(&other_offsets, other_stride);
        let gaps = |o: &[i64]| o.iter().map(|x| x - o[0]).collect::<Vec<_>>();
        let shifts = stride == other_stride && gaps(&offsets) == gaps(&other_offsets);
        prop_assert_eq!(a == c, shifts, "{} vs {}", a, c);
    }
}
