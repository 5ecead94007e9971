//! Distributing `K` address registers across several arrays.
//!
//! A loop that touches several arrays needs at least one register per
//! array (an address register cannot usefully serve two address spaces at
//! once). Given per-array cost curves `cost_a(k)` — produced cheaply from
//! one merge trajectory each, see
//! [`Optimizer::cost_curve`](crate::Optimizer::cost_curve) — a small
//! dynamic program finds the register distribution minimizing total cost.

use std::fmt;

/// Errors produced by [`distribute_registers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// More arrays than registers: no feasible distribution.
    InsufficientRegisters {
        /// Number of arrays (cost curves).
        arrays: usize,
        /// Registers available.
        registers: usize,
    },
    /// A cost curve was empty or shorter than the register budget needs.
    MalformedCurve {
        /// Index of the offending curve.
        array: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InsufficientRegisters { arrays, registers } => write!(
                f,
                "{arrays} arrays cannot share {registers} address registers"
            ),
            PartitionError::MalformedCurve { array } => {
                write!(f, "cost curve of array {array} is empty")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Finds the register distribution minimizing total cost.
///
/// `curves[a][i]` is the cost of allocating array `a` with `i + 1`
/// registers; curves shorter than `k` are padded with their last value
/// (more registers never help beyond the curve's end). Returns the number
/// of registers granted to each array (each at least 1, summing to at most
/// `k`).
///
/// # Errors
///
/// Returns [`PartitionError`] if there are more arrays than registers or
/// an empty curve.
///
/// # Examples
///
/// ```
/// use raco_core::partition::distribute_registers;
/// // Array 0 is satisfied with one register; array 1 wants three.
/// let curves = vec![vec![0, 0, 0, 0], vec![5, 3, 0, 0]];
/// let grant = distribute_registers(&curves, 4).unwrap();
/// assert_eq!(grant, vec![1, 3]);
/// ```
pub fn distribute_registers<C: AsRef<[u32]>>(
    curves: &[C],
    k: usize,
) -> Result<Vec<usize>, PartitionError> {
    let arrays = curves.len();
    if arrays > k {
        return Err(PartitionError::InsufficientRegisters {
            arrays,
            registers: k,
        });
    }
    for (array, c) in curves.iter().enumerate() {
        if c.as_ref().is_empty() {
            return Err(PartitionError::MalformedCurve { array });
        }
    }
    let cost_of = |a: usize, regs: usize| -> u64 {
        let c = curves[a].as_ref();
        u64::from(*c.get(regs - 1).unwrap_or(c.last().expect("non-empty")))
    };
    // dp[a][r] = min total cost of the first `a` arrays using exactly r regs.
    const INF: u64 = u64::MAX / 2;
    let mut dp = vec![vec![INF; k + 1]; arrays + 1];
    let mut choice = vec![vec![0usize; k + 1]; arrays + 1];
    dp[0][0] = 0;
    for a in 1..=arrays {
        for r in a..=k {
            for grant in 1..=(r - (a - 1)) {
                if dp[a - 1][r - grant] == INF {
                    continue;
                }
                let cand = dp[a - 1][r - grant] + cost_of(a - 1, grant);
                if cand < dp[a][r] {
                    dp[a][r] = cand;
                    choice[a][r] = grant;
                }
            }
        }
    }
    // Best register total (granting unused registers is pointless but
    // harmless; pick the cheapest, smallest total).
    let mut best_r = arrays;
    for r in arrays..=k {
        if dp[arrays][r] < dp[arrays][best_r] {
            best_r = r;
        }
    }
    let mut grants = vec![0usize; arrays];
    let mut r = best_r;
    for a in (1..=arrays).rev() {
        grants[a - 1] = choice[a][r];
        r -= choice[a][r];
    }
    Ok(grants)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_array_gets_what_it_needs() {
        let curves = vec![vec![4, 2, 1, 0, 0]];
        assert_eq!(distribute_registers(&curves, 5).unwrap(), vec![4]);
        assert_eq!(distribute_registers(&curves, 2).unwrap(), vec![2]);
        assert_eq!(distribute_registers(&curves, 1).unwrap(), vec![1]);
    }

    #[test]
    fn distribution_minimizes_total_cost() {
        // Marginal gains differ: giving the 2nd register to array 1 saves
        // 5, to array 0 saves 1.
        let curves = vec![vec![1, 0, 0], vec![5, 0, 0]];
        assert_eq!(distribute_registers(&curves, 3).unwrap(), vec![1, 2]);
        // With 4 registers both get their optimum.
        assert_eq!(distribute_registers(&curves, 4).unwrap(), vec![2, 2]);
    }

    #[test]
    fn each_array_gets_at_least_one_register() {
        let curves = vec![vec![0], vec![9, 8, 7], vec![0, 0]];
        let g = distribute_registers(&curves, 3).unwrap();
        assert_eq!(g, vec![1, 1, 1]);
    }

    #[test]
    fn short_curves_are_padded_with_their_last_value() {
        // Array 0's curve stops at 2 registers: more registers keep cost 3.
        let curves = vec![vec![7, 3], vec![4, 4, 4, 4]];
        let g = distribute_registers(&curves, 4).unwrap();
        assert_eq!(g, vec![2, 1], "extra registers would be wasted");
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            distribute_registers(&[vec![0], vec![0], vec![0]], 2).unwrap_err(),
            PartitionError::InsufficientRegisters {
                arrays: 3,
                registers: 2
            }
        );
        assert_eq!(
            distribute_registers(&[vec![0], vec![]], 2).unwrap_err(),
            PartitionError::MalformedCurve { array: 1 }
        );
    }

    #[test]
    fn no_arrays_is_a_valid_degenerate_case() {
        let none: &[Vec<u32>] = &[];
        assert_eq!(distribute_registers(none, 4).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn exhaustive_cross_check_on_small_instances() {
        // Compare against brute-force enumeration of all grants.
        let curves = vec![vec![9, 4, 1, 0], vec![6, 5, 5, 5], vec![3, 0, 0, 0]];
        for k in 3..=8 {
            let g = distribute_registers(&curves, k).unwrap();
            let dp_cost: u64 = g
                .iter()
                .enumerate()
                .map(|(a, &r)| {
                    u64::from(*curves[a].get(r - 1).unwrap_or(curves[a].last().unwrap()))
                })
                .sum();
            let mut best = u64::MAX;
            for a in 1..=k {
                for b in 1..=k {
                    for c in 1..=k {
                        if a + b + c > k {
                            continue;
                        }
                        let cost =
                            u64::from(*curves[0].get(a - 1).unwrap_or(curves[0].last().unwrap()))
                                + u64::from(
                                    *curves[1].get(b - 1).unwrap_or(curves[1].last().unwrap()),
                                )
                                + u64::from(
                                    *curves[2].get(c - 1).unwrap_or(curves[2].last().unwrap()),
                                );
                        best = best.min(cost);
                    }
                }
            }
            assert_eq!(dp_cost, best, "k = {k}");
        }
    }
}
