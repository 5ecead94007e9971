//! Property-based tests of the path-cover machinery: Phase-1 invariants,
//! bound soundness, oracle agreement and merge invariants.

use proptest::prelude::*;

use raco::core::{phase1, phase2, CostModel, MergeStrategy, Phase1Outcome};
use raco::graph::matching::MatchingCover;
use raco::graph::{bounds, brute, BbOptions, DistanceModel, PathCover};

/// Strategy: a small random pattern (offsets, stride, modify range).
fn pattern() -> impl Strategy<Value = (Vec<i64>, i64, u32)> {
    (
        prop::collection::vec(-6i64..=6, 1..=10),
        prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(4i64)],
        1u32..=2,
    )
}

/// Strategy: a tiny pattern suitable for Bell-number oracles.
fn tiny_pattern() -> impl Strategy<Value = (Vec<i64>, i64, u32)> {
    (
        prop::collection::vec(-4i64..=4, 1..=7),
        prop_oneof![Just(1i64), Just(-1i64), Just(2i64)],
        1u32..=2,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn matching_cover_partitions_and_is_intra_free((offsets, stride, m) in pattern()) {
        let dm = DistanceModel::from_offsets(&offsets, stride, m);
        let cover = MatchingCover::new(&dm).cover();
        prop_assert_eq!(cover.accesses(), offsets.len());
        prop_assert_eq!(
            cover.paths().iter().map(|p| p.len()).sum::<usize>(),
            offsets.len()
        );
        prop_assert_eq!(CostModel::paper_literal().cover_cost(&cover, &dm), 0);
        // Minimal: no cover with fewer paths is intra-free (exhaustive,
        // so only up to 8 accesses).
        if offsets.len() <= 8 {
            let mut smaller = None;
            brute::for_each_partition(offsets.len(), cover.register_count() - 1, |assignment, _| {
                let candidate = PathCover::from_assignment(assignment);
                if smaller.is_none() && CostModel::paper_literal().cover_cost(&candidate, &dm) == 0 {
                    smaller = Some(candidate.register_count());
                }
            });
            prop_assert_eq!(smaller, None, "matching cover has {} paths", cover.register_count());
        }
    }

    #[test]
    fn bounds_sandwich_the_exact_answer((offsets, stride, m) in pattern()) {
        let dm = DistanceModel::from_offsets(&offsets, stride, m);
        let b = bounds::bounds(&dm, &MatchingCover::new(&dm));
        let report = phase1::run(&dm, BbOptions::default());
        if let Phase1Outcome::ZeroCost { .. } = report.outcome() {
            let exact = report.virtual_registers();
            prop_assert!(b.lower <= exact, "LB {} > exact {exact}", b.lower);
            if let Some(ub) = b.upper_value() {
                prop_assert!(exact <= ub, "exact {exact} > UB {ub}");
            }
            prop_assert!(report.cover().is_zero_cost(&dm));
        } else if let Some(ub_cover) = b.upper_cover() {
            // If the heuristic found a zero-cost cover, the exact search
            // cannot have failed.
            prop_assert!(
                false,
                "search infeasible but heuristic found {:?}",
                ub_cover.register_count()
            );
        }
    }

    #[test]
    fn bb_agrees_with_the_exhaustive_oracle((offsets, stride, m) in tiny_pattern()) {
        let dm = DistanceModel::from_offsets(&offsets, stride, m);
        let oracle = brute::min_zero_cost_cover_brute(&dm);
        let report = phase1::run(&dm, BbOptions::default());
        match (oracle, report.outcome()) {
            (Some(b), Phase1Outcome::ZeroCost { proved_minimal }) => {
                prop_assert_eq!(report.virtual_registers(), b.register_count());
                prop_assert!(proved_minimal);
            }
            (None, Phase1Outcome::Relaxed) => {}
            (o, s) => prop_assert!(false, "feasibility mismatch: {:?} vs {:?}", o, s),
        }
    }

    #[test]
    fn phase1_cover_is_always_a_partition((offsets, stride, m) in pattern()) {
        let dm = DistanceModel::from_offsets(&offsets, stride, m);
        let report = phase1::run(&dm, BbOptions::default());
        let cover = report.cover();
        prop_assert_eq!(cover.accesses(), offsets.len());
        let mut seen = vec![false; offsets.len()];
        for path in cover.paths() {
            for &i in path.indices() {
                prop_assert!(!seen[i], "access {} covered twice", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        match report.outcome() {
            Phase1Outcome::ZeroCost { .. } => {
                prop_assert!(cover.is_zero_cost(&dm));
            }
            Phase1Outcome::Relaxed => {
                prop_assert_eq!(CostModel::paper_literal().cover_cost(cover, &dm), 0);
            }
            // `Phase1Outcome` is non-exhaustive; any future outcome must
            // still produce a partition (checked above).
            _ => {}
        }
    }

    #[test]
    fn merging_reaches_the_constraint_and_preserves_the_partition(
        (offsets, stride, m) in pattern(),
        k in 1usize..=4,
    ) {
        let dm = DistanceModel::from_offsets(&offsets, stride, m);
        let p1 = phase1::run(&dm, BbOptions::default());
        for strategy in [
            MergeStrategy::GreedyMinCost,
            MergeStrategy::Random { seed: 99 },
            MergeStrategy::FirstPair,
            MergeStrategy::WorstCost,
        ] {
            let report = phase2::merge_until(
                p1.cover(), k, &dm, CostModel::steady_state(), strategy,
            );
            prop_assert!(report.cover().register_count() <= k.max(1));
            prop_assert_eq!(
                report.cover().paths().iter().map(|p| p.len()).sum::<usize>(),
                offsets.len()
            );
        }
    }

    #[test]
    fn below_k_tilde_is_never_free(
        (offsets, stride, m) in pattern(),
        k in 1usize..=3,
    ) {
        // The paper's Section 3.2 observations, in their provable form:
        // the merged path of the *first* merge from the zero-cost cover
        // costs at least one unit, and no cover below K̃ can be free
        // (otherwise K̃ would not be minimal). Note that *cumulative*
        // totals need not increase with every merge — a later merge can
        // repair a previously paid wrap (e.g. offsets 4, 3, 6) — so that
        // stronger claim is intentionally not asserted.
        let dm = DistanceModel::from_offsets(&offsets, stride, m);
        let p1 = phase1::run(&dm, BbOptions::default());
        if !matches!(
            p1.outcome(),
            Phase1Outcome::ZeroCost { proved_minimal: true }
        ) {
            return Ok(());
        }
        let k_tilde = p1.virtual_registers();
        let report = phase2::merge_until(
            p1.cover(), k, &dm, CostModel::steady_state(), MergeStrategy::GreedyMinCost,
        );
        if let Some(first) = report.records().first() {
            prop_assert!(first.merged_path_cost >= 1);
        }
        for (count, cost) in report.cost_trajectory() {
            if *count < k_tilde {
                prop_assert!(
                    *cost >= 1,
                    "a zero-cost cover with {} < K̃ = {} paths contradicts minimality",
                    count,
                    k_tilde
                );
            }
        }
    }

    #[test]
    fn greedy_cost_curve_is_monotone((offsets, stride, m) in pattern()) {
        let agu = raco::ir::AguSpec::new(8, m).unwrap();
        let pattern = raco::ir::AccessPattern::from_offsets(&offsets, stride);
        let curve = raco::core::Optimizer::new(agu).cost_curve(&pattern, 8);
        for w in curve.windows(2) {
            prop_assert!(
                w[0] >= w[1],
                "more registers must not cost more: {:?}",
                curve
            );
        }
    }

    #[test]
    fn memoized_and_unmemoized_search_agree((offsets, stride, m) in tiny_pattern()) {
        let dm = DistanceModel::from_offsets(&offsets, stride, m);
        let [a, b] = [true, false].map(|memoize| {
            let report = phase1::run(&dm, BbOptions { node_limit: 1_000_000, memoize });
            (report.outcome(), report.virtual_registers())
        });
        prop_assert_eq!(a, b);
    }
}
