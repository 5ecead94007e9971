//! Human-readable allocation reports.
//!
//! A compiler pass is only as debuggable as its diagnostics. The
//! [`AllocationReport`] renders everything the two phases decided — the
//! bounds, the search effort, every merge, and the final register paths
//! with their post-modify steps — in a compact text form used by the
//! examples and handy in compiler logs.

use std::fmt;

use raco_graph::modify::{step_delta, steps};

use crate::optimizer::Allocation;
use crate::phase1::Phase1Outcome;

/// A displayable summary of an [`Allocation`].
///
/// Borrowed from the allocation via [`Allocation::report`].
///
/// # Examples
///
/// ```
/// use raco_core::Optimizer;
/// use raco_ir::{examples, AguSpec};
///
/// let spec = examples::paper_loop();
/// let alloc = Optimizer::new(AguSpec::new(2, 1).unwrap())
///     .allocate(&spec.patterns()[0]);
/// let text = alloc.report().to_string();
/// assert!(text.contains("K̃ = 3"));
/// assert!(text.contains("AR0"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AllocationReport<'a> {
    allocation: &'a Allocation,
}

impl<'a> AllocationReport<'a> {
    pub(crate) fn new(allocation: &'a Allocation) -> Self {
        AllocationReport { allocation }
    }
}

impl fmt::Display for AllocationReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let alloc = self.allocation;
        let dm = alloc.distance_model();
        writeln!(
            f,
            "allocation: {} accesses -> {} register(s), {} unit-cost update(s)/iteration",
            dm.len(),
            alloc.register_count(),
            alloc.cost()
        )?;
        let p1 = alloc.phase1();
        // `Phase1Outcome` is non-exhaustive for downstream crates; the
        // wildcard is unreachable here but keeps this render total if
        // an outcome is ever added.
        #[allow(unreachable_patterns)]
        match p1.outcome() {
            Phase1Outcome::ZeroCost { proved_minimal } => writeln!(
                f,
                "phase 1: K̃ = {} zero-cost virtual registers (lower bound {}, {}, {} B&B nodes)",
                p1.virtual_registers(),
                p1.lower_bound(),
                if proved_minimal {
                    "proved minimal"
                } else {
                    "budget-limited"
                },
                p1.nodes()
            )?,
            Phase1Outcome::Relaxed => writeln!(
                f,
                "phase 1: no zero-cost cover exists; relaxed matching cover with {} path(s)",
                p1.virtual_registers()
            )?,
            _ => writeln!(f, "phase 1: {} path(s)", p1.virtual_registers())?,
        }
        let records = alloc.phase2().records();
        if records.is_empty() {
            writeln!(f, "phase 2: no merging needed")?;
        } else {
            writeln!(f, "phase 2: {} merge(s):", records.len())?;
            for r in records {
                writeln!(
                    f,
                    "    {} -> {} paths: merged {}+{} accesses, merged-path cost {}, total {}",
                    r.paths_before,
                    r.paths_before - 1,
                    r.merged_lengths.0,
                    r.merged_lengths.1,
                    r.merged_path_cost,
                    r.total_cost_after
                )?;
            }
        }
        writeln!(f, "register paths:")?;
        for (i, path) in alloc.cover().paths().iter().enumerate() {
            let mut deltas: Vec<String> = steps(path.indices())
                .map(|step| format!("{:+}", step_delta(dm, step)))
                .collect();
            let wrap = deltas.pop().expect("a path's steps end with its wrap");
            writeln!(
                f,
                "    AR{i}: {path}  steps [{}]  wrap {wrap}",
                deltas.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::Optimizer;
    use raco_ir::{AccessPattern, AguSpec};

    fn paper_report(k: usize) -> String {
        let pattern = AccessPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1);
        Optimizer::new(AguSpec::new(k, 1).unwrap())
            .allocate(&pattern)
            .report()
            .to_string()
    }

    #[test]
    fn zero_cost_report_mentions_no_merging() {
        let text = paper_report(3);
        assert!(text.contains("K̃ = 3"), "{text}");
        assert!(text.contains("proved minimal"), "{text}");
        assert!(text.contains("no merging needed"), "{text}");
        assert!(text.contains("0 unit-cost"), "{text}");
    }

    #[test]
    fn constrained_report_lists_merges_and_paths() {
        let text = paper_report(2);
        assert!(text.contains("phase 2: 1 merge(s):"), "{text}");
        assert!(text.contains("3 -> 2 paths"), "{text}");
        assert!(text.contains("AR0:"), "{text}");
        assert!(text.contains("AR1:"), "{text}");
        assert!(text.contains("wrap"), "{text}");
    }

    #[test]
    fn relaxed_report_says_so() {
        let pattern = AccessPattern::from_offsets(&[0, 1, 2], 5);
        let text = Optimizer::new(AguSpec::new(2, 1).unwrap())
            .allocate(&pattern)
            .report()
            .to_string();
        assert!(text.contains("no zero-cost cover exists"), "{text}");
    }

    #[test]
    fn steps_are_signed() {
        let text = paper_report(3);
        assert!(text.contains("+1") || text.contains("-1"), "{text}");
    }
}
