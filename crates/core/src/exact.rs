//! Exact optimal allocation for small instances (quality oracle).
//!
//! The overall problem — partition the access sequence into at most `K`
//! order-preserving subsequences minimizing total unit-cost updates — is
//! solved exactly here by exhaustive partition enumeration (Bell-number
//! complexity, so `N <= 12`). Each cover is priced by
//! [`CostModel::cover_cost`], the function the allocator prices with,
//! so modify registers and a multi-cycle `ADDA` count the same on both
//! sides. Experiment E6 uses this to measure the optimality gap of the
//! two-phase heuristic; tests use it as an oracle.

use raco_graph::{brute, DistanceModel, PathCover};

use crate::cost::CostModel;

/// The exact optimum under `cost_model`: minimum achievable cost with
/// at most `k` registers, together with an optimal cover (the first
/// one in [`brute::for_each_partition`] order).
///
/// # Panics
///
/// Panics if `dm.len() > 12` or `k == 0`.
///
/// # Examples
///
/// ```
/// use raco_core::{exact, CostModel};
/// use raco_graph::DistanceModel;
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let (cost, _) = exact::optimal_allocation(&dm, 3, CostModel::steady_state());
/// assert_eq!(cost, 0); // K̃ = 3
/// let (cost, _) = exact::optimal_allocation(&dm, 2, CostModel::steady_state());
/// assert_eq!(cost, 2); // a_7 forces either a paid wrap or a lone register
/// let model = CostModel::steady_state().with_adda_cost(3);
/// let (cost, _) = exact::optimal_allocation(&dm, 2, model);
/// assert_eq!(cost, 6); // the same updates at three cycles each
/// ```
pub fn optimal_allocation(dm: &DistanceModel, k: usize, cost_model: CostModel) -> (u32, PathCover) {
    let n = dm.len();
    assert!(n <= 12, "exact oracle limited to n <= 12");
    assert!(k > 0, "need at least one register");
    let mut best: Option<(u32, PathCover)> = None;
    brute::for_each_partition(n, k, |assignment, _| {
        let cover = PathCover::from_assignment(assignment);
        let cost = cost_model.cover_cost(&cover, dm);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, cover));
        }
    });
    best.expect("at least one partition exists for n >= 1")
}

/// Difference between `cost` and the exact optimum for the same instance.
///
/// Returns `None` when the instance is too large for the oracle
/// (`dm.len() > 12`).
pub fn optimality_gap(
    dm: &DistanceModel,
    k: usize,
    cost_model: CostModel,
    cost: u32,
) -> Option<u32> {
    if dm.len() > 12 || k == 0 {
        return None;
    }
    let (optimal, _) = optimal_allocation(dm, k, cost_model);
    Some(cost.saturating_sub(optimal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MergeStrategy, Optimizer};
    use raco_ir::AguSpec;

    #[test]
    fn paper_example_optimum_by_k() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let model = CostModel::steady_state();
        let by_k: Vec<u32> = (1..=4)
            .map(|k| optimal_allocation(&dm, k, model).0)
            .collect();
        assert_eq!(by_k[3], 0);
        assert_eq!(by_k[2], 0);
        // With K = 2 the optimum is 2: any path containing a_7 and another
        // access pays its wrap (only offset -2 closes onto -2), and no
        // complement path is simultaneously free.
        assert_eq!(by_k[1], 2);
        assert!(by_k[0] >= by_k[1]);
    }

    #[test]
    fn heuristic_gap_is_zero_on_the_paper_example() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        for k in 1..=3 {
            let agu = AguSpec::new(k, 1).unwrap();
            let alloc = Optimizer::new(agu).allocate_model(dm.clone());
            let gap = optimality_gap(&dm, k, CostModel::steady_state(), alloc.cost())
                .expect("small instance");
            assert_eq!(gap, 0, "k = {k}");
        }
    }

    #[test]
    fn greedy_dominates_worst_case_against_the_oracle() {
        let dm = DistanceModel::from_offsets(&[0, 3, 1, 4, 2, 5], 1, 1);
        let k = 2;
        let greedy = Optimizer::new(AguSpec::new(k, 1).unwrap())
            .allocate_model(dm.clone())
            .cost();
        let worst = Optimizer::new(AguSpec::new(k, 1).unwrap())
            .strategy(MergeStrategy::WorstCost)
            .allocate_model(dm.clone())
            .cost();
        let (optimal, _) = optimal_allocation(&dm, k, CostModel::steady_state());
        assert!(optimal <= greedy);
        assert!(greedy <= worst);
    }

    #[test]
    fn gap_is_none_for_large_instances() {
        let offsets: Vec<i64> = (0..20).collect();
        let dm = DistanceModel::from_offsets(&offsets, 1, 1);
        assert_eq!(optimality_gap(&dm, 2, CostModel::steady_state(), 5), None);
    }

    #[test]
    fn one_register_costs_the_whole_chain() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let (cost, cover) = optimal_allocation(&dm, 1, CostModel::steady_state());
        assert_eq!(cover.register_count(), 1);
        // The only 1-block partition is the full chain: intra 4 + wrap 1.
        assert_eq!(cost, 5);
    }

    #[test]
    fn optimum_is_zero_once_k_reaches_k_tilde() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let (cost3, _) = optimal_allocation(&dm, 3, CostModel::steady_state());
        assert_eq!(cost3, 0);
        let (cost2, _) = optimal_allocation(&dm, 2, CostModel::steady_state());
        assert!(cost2 >= 1, "below K̃ at least one unit cost is unavoidable");
    }

    #[test]
    fn optimum_is_monotone_in_k() {
        let dm = DistanceModel::from_offsets(&[0, 3, 1, 4, 2, 5], 1, 1);
        let mut last = u32::MAX;
        for k in 1..=6 {
            let (cost, cover) = optimal_allocation(&dm, k, CostModel::steady_state());
            assert!(cost <= last, "cost must not increase with more registers");
            assert!(cover.register_count() <= k);
            last = cost;
        }
    }

    #[test]
    fn the_oracle_prices_adda_cost_and_modify_registers_like_the_allocator() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let adda = CostModel::steady_state().with_adda_cost(3);
        let alloc = Optimizer::new(AguSpec::new(2, 1).unwrap())
            .cost_model(adda)
            .allocate_model(dm.clone());
        assert_eq!(alloc.cost(), 6);
        assert_eq!(optimality_gap(&dm, 2, adda, alloc.cost()), Some(0));

        // One register chains 0, 10, 20, 30: three +10 steps and a wrap.
        // A modify register holding +10 leaves only the wrap to pay.
        let dm = DistanceModel::from_offsets(&[0, 10, 20, 30], 1, 1);
        let mr = CostModel::steady_state().with_modify_registers(1);
        assert_eq!(optimal_allocation(&dm, 1, CostModel::steady_state()).0, 4);
        assert_eq!(optimal_allocation(&dm, 1, mr).0, 1);
        let alloc = Optimizer::new(AguSpec::new(1, 1).unwrap().with_modify_registers(1))
            .allocate_model(dm.clone());
        assert_eq!(optimality_gap(&dm, 1, mr, alloc.cost()), Some(0));
    }

    #[test]
    fn paper_literal_cost_model_is_respected() {
        let dm = DistanceModel::from_offsets(&[0, 5, 0, 5], 1, 1);
        // Intra-only: {(a1,a3),(a2,a4)} both have one zero step (0→0, 5→5)
        // → cost 0 even though wraps cost under steady state.
        let (cost, _) = optimal_allocation(&dm, 2, CostModel::paper_literal());
        assert_eq!(cost, 0);
        let (cost_ss, _) = optimal_allocation(&dm, 2, CostModel::steady_state());
        assert_eq!(cost_ss, 0, "wraps 0+1-0 = 1 and 5+1-5 = 1 are free too");
        // With only one register the interleaving costs intra steps.
        let (cost1, _) = optimal_allocation(&dm, 1, CostModel::paper_literal());
        assert_eq!(cost1, 3);
    }
}
