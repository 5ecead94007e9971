//! Simulated-annealing allocator (extension, experiment E6 companion).
//!
//! The paper's Phase 2 is a constructive greedy heuristic. To judge how
//! much headroom it leaves, this module implements a classic
//! neighbourhood-search alternative: accesses move between registers one
//! at a time under a Metropolis acceptance rule with geometric cooling.
//! Seeded from the two-phase solution it can only improve on it (the
//! incumbent is tracked), which makes it a convenient upper-bound probe
//! for the greedy gap on instances too large for the exhaustive oracle.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use raco_graph::{DistanceModel, PathCover};

use crate::cost::CostModel;

/// Tuning knobs for [`anneal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealOptions {
    /// RNG seed (same seed ⇒ same result).
    pub seed: u64,
    /// Number of proposed moves.
    pub iterations: u32,
    /// Initial temperature (in cost units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per move (0 < cooling < 1).
    pub cooling: f64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            seed: 0xA11EA1,
            iterations: 20_000,
            initial_temperature: 2.5,
            cooling: 0.9995,
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnealResult {
    cover: PathCover,
    cost: u32,
    accepted_moves: u32,
    improving_moves: u32,
}

impl AnnealResult {
    /// The best cover found.
    pub fn cover(&self) -> &PathCover {
        &self.cover
    }

    /// Cost of the best cover under the configured cost model.
    pub fn cost(&self) -> u32 {
        self.cost
    }

    /// Moves accepted by the Metropolis rule.
    pub fn accepted_moves(&self) -> u32 {
        self.accepted_moves
    }

    /// Accepted moves that strictly improved the incumbent.
    pub fn improving_moves(&self) -> u32 {
        self.improving_moves
    }
}

/// Anneals an allocation of the accesses of `dm` onto at most `k`
/// registers, starting from `seed_cover` (typically the two-phase
/// result). The returned cover is never worse than the seed.
///
/// Every assignment is priced by [`CostModel::cover_cost`], so under a
/// modify-register model the search optimises the machine's own cost,
/// and [`AnnealResult::cost`] is the returned cover's price.
///
/// # Panics
///
/// Panics if `k == 0` or `seed_cover` does not cover `dm`'s accesses or
/// uses more than `k` paths.
///
/// # Examples
///
/// ```
/// use raco_core::{anneal, CostModel, Optimizer};
/// use raco_ir::{AccessPattern, AguSpec};
///
/// let pattern = AccessPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1);
/// let two_phase = Optimizer::new(AguSpec::new(2, 1).unwrap()).allocate(&pattern);
/// let result = anneal::anneal(
///     two_phase.distance_model(),
///     2,
///     two_phase.cover().clone(),
///     CostModel::steady_state(),
///     anneal::AnnealOptions::default(),
/// );
/// assert!(result.cost() <= two_phase.cost());
/// ```
pub fn anneal(
    dm: &DistanceModel,
    k: usize,
    seed_cover: PathCover,
    cost_model: CostModel,
    options: AnnealOptions,
) -> AnnealResult {
    assert!(k > 0, "need at least one register");
    assert_eq!(
        seed_cover.accesses(),
        dm.len(),
        "seed cover must match the pattern"
    );
    assert!(
        seed_cover.register_count() <= k,
        "seed cover must satisfy the register constraint"
    );
    let n = dm.len();
    let mut assignment = seed_cover.assignment();
    let cost =
        |assignment: &[usize]| cost_model.cover_cost(&PathCover::from_assignment(assignment), dm);

    let mut rng = SmallRng::seed_from_u64(options.seed);
    let mut current_cost = cost(&assignment);
    let mut best_assignment = assignment.clone();
    let mut best_cost = current_cost;
    let mut temperature = options.initial_temperature;
    let mut accepted = 0u32;
    let mut improving = 0u32;

    if n > 0 && k > 1 {
        for _ in 0..options.iterations {
            if best_cost == 0 {
                break;
            }
            let access = rng.gen_range(0..n);
            let old_register = assignment[access];
            let mut new_register = rng.gen_range(0..k - 1);
            if new_register >= old_register {
                new_register += 1;
            }
            assignment[access] = new_register;
            let candidate = cost(&assignment);
            let delta = f64::from(candidate) - f64::from(current_cost);
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp();
            if accept {
                accepted += 1;
                current_cost = candidate;
                if candidate < best_cost {
                    improving += 1;
                    best_cost = candidate;
                    best_assignment.copy_from_slice(&assignment);
                }
            } else {
                assignment[access] = old_register;
            }
            temperature *= options.cooling;
        }
    }

    AnnealResult {
        cover: PathCover::from_assignment(&best_assignment),
        cost: best_cost,
        accepted_moves: accepted,
        improving_moves: improving,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact, Optimizer};
    use raco_ir::{AccessPattern, AguSpec};

    /// Anneals the two-phase allocation of `offsets` on `k` address and
    /// `mr` modify registers, under that machine's cost model; returns
    /// `(seed cost, annealed cost)`.
    fn run(offsets: &[i64], k: usize, mr: usize, seed: u64) -> (u32, u32) {
        let pattern = AccessPattern::from_offsets(offsets, 1);
        let agu = AguSpec::new(k, 1).unwrap().with_modify_registers(mr);
        let two_phase = Optimizer::new(agu).allocate(&pattern);
        let model = CostModel::steady_state().with_modify_registers(mr);
        let result = anneal(
            two_phase.distance_model(),
            k,
            two_phase.cover().clone(),
            model,
            AnnealOptions {
                seed,
                ..AnnealOptions::default()
            },
        );
        assert_eq!(
            result.cost(),
            model.cover_cost(result.cover(), two_phase.distance_model()),
            "MR {mr}: the reported cost is the cover's price"
        );
        (two_phase.cost(), result.cost())
    }

    #[test]
    fn never_worse_than_the_two_phase_seed() {
        for mr in 0..=2 {
            for (offsets, k) in [
                (vec![1i64, 0, 2, -1, 1, 0, -2], 2usize),
                (vec![0, 3, 1, 4, 2, 5], 2),
                (vec![5, -5, 5, -5, 0, 0], 3),
                (vec![0, 7, 1, 6, 2, 5, 3, 4], 2),
            ] {
                let (greedy, annealed) = run(&offsets, k, mr, 17);
                assert!(
                    annealed <= greedy,
                    "annealing regressed on {offsets:?}, MR {mr}: {annealed} > {greedy}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, a) = run(&[0, 3, 1, 4, 2, 5, 0, 3], 2, 0, 7);
        let (_, b) = run(&[0, 3, 1, 4, 2, 5, 0, 3], 2, 0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn reaches_the_oracle_on_small_instances() {
        for offsets in [vec![0i64, 3, 1, 4, 2, 5], vec![2, -2, 0, 2, -2, 0]] {
            let pattern = AccessPattern::from_offsets(&offsets, 1);
            let two_phase = Optimizer::new(AguSpec::new(2, 1).unwrap()).allocate(&pattern);
            let result = anneal(
                two_phase.distance_model(),
                2,
                two_phase.cover().clone(),
                CostModel::steady_state(),
                AnnealOptions::default(),
            );
            let (optimal, _) =
                exact::optimal_allocation(two_phase.distance_model(), 2, CostModel::steady_state());
            assert_eq!(
                result.cost(),
                optimal,
                "annealing should close the gap on {offsets:?}"
            );
        }
    }

    #[test]
    fn result_is_a_valid_cover_within_the_constraint() {
        let pattern = AccessPattern::from_offsets(&[0, 9, 1, 8, 2, 7, 3, 6, 4, 5], 1);
        for mr in 0..=2 {
            let agu = AguSpec::new(3, 1).unwrap().with_modify_registers(mr);
            let two_phase = Optimizer::new(agu).allocate(&pattern);
            let model = CostModel::steady_state().with_modify_registers(mr);
            let result = anneal(
                two_phase.distance_model(),
                3,
                two_phase.cover().clone(),
                model,
                AnnealOptions::default(),
            );
            assert!(result.cover().register_count() <= 3);
            assert_eq!(result.cover().accesses(), 10);
            assert_eq!(
                result
                    .cover()
                    .paths()
                    .iter()
                    .map(|p| p.len())
                    .sum::<usize>(),
                10
            );
            assert_eq!(
                result.cost(),
                model.cover_cost(result.cover(), two_phase.distance_model()),
                "MR {mr}"
            );
            assert!(result.cost() <= two_phase.cost(), "MR {mr}");
        }
    }

    #[test]
    fn zero_cost_seeds_short_circuit() {
        let pattern = AccessPattern::from_offsets(&[0, 1, 2, 3], 4);
        let two_phase = Optimizer::new(AguSpec::new(2, 1).unwrap()).allocate(&pattern);
        assert_eq!(two_phase.cost(), 0);
        let result = anneal(
            two_phase.distance_model(),
            2,
            two_phase.cover().clone(),
            CostModel::steady_state(),
            AnnealOptions::default(),
        );
        assert_eq!(result.cost(), 0);
        assert_eq!(result.accepted_moves(), 0, "no moves needed");
    }

    #[test]
    #[should_panic(expected = "register constraint")]
    fn oversized_seed_cover_is_rejected() {
        let pattern = AccessPattern::from_offsets(&[0, 5, 10], 1);
        let dm = raco_graph::DistanceModel::new(&pattern, 1);
        let cover = raco_graph::PathCover::singletons(3);
        let _ = anneal(
            &dm,
            2,
            cover,
            CostModel::steady_state(),
            AnnealOptions::default(),
        );
    }
}
