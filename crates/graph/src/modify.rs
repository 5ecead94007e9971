//! The step model and modify-register allocation.
//!
//! A register's cost is a sum over its *steps*: the move from each
//! access it serves to the next, then the wrap into the next iteration
//! (the paper's Section 3.2). [`steps`], [`step_delta`] and
//! [`paid_delta`] define those steps and their deltas once; the
//! allocator's prices, code generation and the allocation report all
//! read steps through them.
//!
//! Machines like the Motorola DSP56k or ADSP-210x add *modify registers*:
//! an address register can be post-updated by the content of a modify
//! register for free, regardless of the auto-modify range. Which values to
//! keep in the (few) modify registers is itself an allocation problem; the
//! classic heuristic (in the spirit of the paper's ref \[2\]) loads the most
//! *frequent* over-range deltas of the steady-state iteration.
//!
//! This lives in `raco-graph` — next to [`Path`] and
//! [`PathCover`](crate::PathCover) — because *both* ends of the stack
//! consume it: the allocator's one modify-register-aware price
//! (`raco_core::CostModel::paths_cost`) charges a set of paths their
//! [`ModifyAllocation::charged`] steps, and code generation
//! (`raco_agu::codegen`) loads the same ranking's values into the
//! machine's modify registers. One constructor,
//! [`ModifyAllocation::new`], over `(path, distance model)` pairs is
//! what makes the allocator's predicted cost equal the simulator's
//! measured cost on MR-equipped machines.

use std::borrow::Borrow;

use crate::distance::DistanceModel;
use crate::path::Path;

/// The steps of a register serving `indices` (ascending) in one
/// iteration, as `(from, to)` access pairs: each consecutive pair, then
/// the wrap `(tail, head)` into the next iteration. A step is the wrap
/// exactly when `from >= to` (see [`step_delta`]). The indices may come
/// by value or by reference, as from [`Path::indices`].
///
/// ```
/// let steps: Vec<_> = raco_graph::modify::steps([1, 4, 6]).collect();
/// assert_eq!(steps, [(1, 4), (4, 6), (6, 1)]);
/// ```
#[inline]
pub fn steps<I>(indices: I) -> impl Iterator<Item = (usize, usize)>
where
    I: IntoIterator,
    I::Item: Borrow<usize>,
{
    let mut indices = indices.into_iter().map(|index| *index.borrow());
    let head = indices.next();
    let mut from = head;
    std::iter::from_fn(move || {
        let step_from = from?;
        let to = indices.next();
        from = to;
        Some((step_from, to.or(head)?))
    })
}

/// The post-modify delta of the step `(from, to)` (see [`steps`]): the
/// intra-iteration distance when `from < to`, else the wrap distance
/// into the next iteration.
///
/// ```
/// use raco_graph::modify::{step_delta, steps};
/// use raco_graph::DistanceModel;
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let deltas: Vec<i64> = steps([0, 2, 4, 5]).map(|s| step_delta(&dm, s)).collect();
/// assert_eq!(deltas, [1, -1, -1, 2]); // the wrap 0 → 1 adds the stride
/// ```
#[inline]
pub fn step_delta(dm: &DistanceModel, (from, to): (usize, usize)) -> i64 {
    if from < to {
        dm.intra_distance(from, to)
    } else {
        dm.wrap_distance(from, to)
    }
}

/// The [`step_delta`] of `step` if it needs an explicit update; `None`
/// if it is free — inside the update range, or a wrap while
/// `include_wrap` is off.
#[inline]
pub fn paid_delta(dm: &DistanceModel, step: (usize, usize), include_wrap: bool) -> Option<i64> {
    if !include_wrap && step.0 >= step.1 {
        return None;
    }
    let delta = step_delta(dm, step);
    (!dm.is_free(delta)).then_some(delta)
}

/// The paid steps of a set of paths, counted per over-range delta.
///
/// Deltas are known by small integer keys the caller assigns, one per
/// distinct value. Next to the count per key the histogram keeps how
/// many keys share each count, so a step moves in or out in constant
/// time and the sum of the `m` largest counts ([`top`](Self::top)) is a
/// walk over those counts, not a sort.
///
/// ```
/// use raco_graph::DeltaHistogram;
///
/// let mut h = DeltaHistogram::default();
/// for key in [0, 1, 0, 2, 0, 1] {
///     h.add(key);
/// }
/// assert_eq!(h.paid(), 6);
/// assert_eq!(h.largest().collect::<Vec<_>>(), [3, 2, 1]);
/// assert_eq!(h.top(2), 5);
/// h.remove(0);
/// assert_eq!(h.top(1), 2); // keys 0 and 1 tie at two steps
/// assert_eq!(h.charged(1), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaHistogram {
    counts: Vec<u32>,
    /// `by_count[c]` is the number of keys counted `c` times, for
    /// `1 <= c <= max`.
    by_count: Vec<u32>,
    /// The largest count.
    max: usize,
    paid: u32,
}

impl DeltaHistogram {
    /// An empty histogram with room for the keys below `keys` and up to
    /// `steps` steps, so counting within those never allocates (and
    /// neither does a clone's counting).
    pub fn with_capacity(keys: usize, steps: usize) -> Self {
        DeltaHistogram {
            counts: vec![0; keys],
            by_count: vec![0; steps + 1],
            max: 0,
            paid: 0,
        }
    }

    /// Counts one more step of the delta `key`.
    #[inline]
    pub fn add(&mut self, key: usize) {
        if key >= self.counts.len() {
            self.counts.resize(key + 1, 0);
        }
        self.counts[key] += 1;
        let count = self.counts[key] as usize;
        if count > self.max {
            self.max = count;
            if count >= self.by_count.len() {
                self.by_count.resize(count + 1, 0);
            }
        }
        if count > 1 {
            self.by_count[count - 1] -= 1;
        }
        self.by_count[count] += 1;
        self.paid += 1;
    }

    /// Counts one step of the delta `key` less.
    ///
    /// # Panics
    ///
    /// Panics if `key` has no step.
    #[inline]
    pub fn remove(&mut self, key: usize) {
        let count = self.count(key) as usize;
        assert!(count > 0, "delta key {key} has no step to remove");
        self.counts[key] -= 1;
        self.by_count[count] -= 1;
        if count > 1 {
            self.by_count[count - 1] += 1;
        }
        if count == self.max && self.by_count[count] == 0 {
            self.max -= 1;
        }
        self.paid -= 1;
    }

    /// All counted steps.
    #[inline]
    pub fn paid(&self) -> u32 {
        self.paid
    }

    /// The steps counted for `key`.
    #[inline]
    pub fn count(&self, key: usize) -> u32 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The nonzero counts, largest first.
    #[inline]
    pub fn largest(&self) -> impl Iterator<Item = u32> + '_ {
        let counts = (1..=self.max).rev();
        counts.flat_map(|count| std::iter::repeat_n(count as u32, self.by_count[count] as usize))
    }

    /// The sum of the `m` largest counts: the steps `m` modify
    /// registers absorb. Which of several equal counts is taken does
    /// not change the sum.
    #[inline]
    pub fn top(&self, m: usize) -> u32 {
        self.largest().take(m).sum()
    }

    /// Fills `sums` with [`top(m)`](Self::top) for every `m` from zero
    /// up to `limit` or the number of keys with a step, whichever is
    /// smaller; a larger `m` absorbs no more than the last entry.
    #[inline]
    pub fn top_sums(&self, limit: usize, sums: &mut Vec<u32>) {
        sums.clear();
        sums.push(0);
        let mut sum = 0;
        for count in (1..=self.max).rev() {
            for _ in 0..self.by_count[count] {
                if sums.len() > limit {
                    return;
                }
                sum += count as u32;
                sums.push(sum);
            }
        }
    }

    /// The steps still paid with `m` modify registers: all counted
    /// steps less the [`top(m)`](Self::top) they absorb.
    #[inline]
    pub fn charged(&self, m: usize) -> u32 {
        self.paid - self.top(m)
    }
}

/// Values assigned to modify registers.
///
/// # Examples
///
/// ```
/// use raco_graph::{DistanceModel, ModifyAllocation, PathCover};
///
/// // One register chains all four accesses; the repeated +7 delta
/// // dominates and is worth a modify register.
/// let dm = DistanceModel::from_offsets(&[0, 7, 14, 21], 22, 1);
/// let cover = PathCover::single_chain(4);
/// let alloc = ModifyAllocation::new(cover.paths().iter().map(|p| (p, &dm)), 1, true);
/// assert_eq!(alloc.values(), &[7]);
/// assert_eq!(alloc.charged(), 0); // three +7 steps absorbed, wrap free
/// assert!(alloc.is_free_delta(7));
/// assert!(!alloc.is_free_delta(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModifyAllocation {
    values: Vec<i64>,
    savings: u32,
    paid: u32,
}

impl ModifyAllocation {
    /// Allocates at most `count` modify registers for the steady-state
    /// execution of `paths`, each stepping through its own distance
    /// model, picking the over-range deltas with the highest
    /// per-iteration frequency. The pairs may come from several covers
    /// (one per array of a loop): modify registers are a machine-wide
    /// resource, so one ranking pools them all.
    ///
    /// `include_wrap` says whether the back-edge (wrap) steps take part.
    /// Code generation always includes them (the generated body applies
    /// a wrap delta to every register once per iteration); the
    /// paper-literal cost model excludes them, and a cost model must
    /// rank exactly the steps it charges for, or predicted and measured
    /// costs drift apart.
    ///
    /// Ties are broken toward smaller `|delta|`, then smaller `delta`, so
    /// the result is deterministic and independent of the pairs' order.
    /// With `count == 0` no delta is told apart from another: only the
    /// paid steps are counted.
    pub fn new<'a>(
        paths: impl IntoIterator<Item = (&'a Path, &'a DistanceModel)>,
        count: usize,
        include_wrap: bool,
    ) -> Self {
        let mut deltas: Vec<i64> = Vec::new();
        let mut histogram = DeltaHistogram::default();
        for (path, dm) in paths {
            for step in steps(path.indices()) {
                let Some(delta) = paid_delta(dm, step, include_wrap) else {
                    continue;
                };
                let key = if count == 0 {
                    0
                } else if let Some(key) = deltas.iter().position(|&d| d == delta) {
                    key
                } else {
                    deltas.push(delta);
                    deltas.len() - 1
                };
                histogram.add(key);
            }
        }
        let mut ranked: Vec<(i64, u32)> = (deltas.iter().enumerate())
            .map(|(key, &delta)| (delta, histogram.count(key)))
            .collect();
        ranked
            .sort_by_key(|&(delta, count)| (std::cmp::Reverse(count), delta.unsigned_abs(), delta));
        ranked.truncate(count);
        ModifyAllocation {
            values: ranked.into_iter().map(|(delta, _)| delta).collect(),
            savings: histogram.top(count),
            paid: histogram.paid(),
        }
    }

    /// The values held in modify registers, most valuable first
    /// (index = `MrId`).
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Unit-cost updates per iteration eliminated by this allocation.
    pub fn savings(&self) -> u32 {
        self.savings
    }

    /// Unit-cost updates per iteration the ranked paths still pay: their
    /// over-range steps less the [`savings`](Self::savings).
    pub fn charged(&self) -> u32 {
        self.paid - self.savings
    }

    /// The modify register holding `delta`, if any.
    pub fn register_for(&self, delta: i64) -> Option<usize> {
        self.values.iter().position(|&v| v == delta)
    }

    /// `true` if `delta` can be applied for free through a modify register.
    pub fn is_free_delta(&self, delta: i64) -> bool {
        self.values.contains(&delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathCover;

    /// The ranking code generation loads for `cover`: wraps included.
    fn rank(cover: &PathCover, dm: &DistanceModel, count: usize) -> ModifyAllocation {
        ModifyAllocation::new(cover.paths().iter().map(|p| (p, dm)), count, true)
    }

    #[test]
    fn histogram_tops_match_a_sorted_recount() {
        // A fixed pseudo-random walk of adds and removes over six keys:
        // after every move, the largest counts, every top sum and the
        // charged steps equal a plain recount, sorted.
        let mut histogram = DeltaHistogram::default();
        let mut counts = [0u32; 6];
        let mut state = 0x2545_f491_u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let key = (state >> 33) as usize % counts.len();
            if (state >> 40) % 3 == 0 && counts[key] > 0 {
                histogram.remove(key);
                counts[key] -= 1;
            } else {
                histogram.add(key);
                counts[key] += 1;
            }
            let mut sorted: Vec<u32> = counts.iter().copied().filter(|&c| c > 0).collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(histogram.largest().collect::<Vec<_>>(), sorted);
            let mut sums = Vec::new();
            histogram.top_sums(4, &mut sums);
            for m in 0..=7 {
                let top: u32 = sorted.iter().take(m).sum();
                assert_eq!(histogram.top(m), top);
                assert_eq!(histogram.charged(m), counts.iter().sum::<u32>() - top);
                if m < sums.len() {
                    assert_eq!(sums[m], top);
                }
            }
            assert_eq!(sums.len(), 1 + sorted.len().min(4));
        }
    }

    #[test]
    fn steps_walk_each_pair_then_the_wrap() {
        assert_eq!(steps([5]).collect::<Vec<_>>(), [(5, 5)]);
        assert_eq!(
            steps([0, 2, 3]).collect::<Vec<_>>(),
            [(0, 2), (2, 3), (3, 0)]
        );
        assert_eq!(steps(std::iter::empty::<usize>()).count(), 0);
    }

    #[test]
    fn none_allocates_nothing() {
        let a = ModifyAllocation::new(std::iter::empty(), 4, true);
        assert!(a.values().is_empty());
        assert_eq!(a.savings(), 0);
        assert_eq!(a.charged(), 0);
        assert_eq!(a.register_for(3), None);
    }

    #[test]
    fn zero_count_behaves_like_none() {
        let dm = DistanceModel::from_offsets(&[0, 7], 1, 1);
        let a = rank(&PathCover::single_chain(2), &dm, 0);
        assert!(a.values().is_empty());
        assert_eq!(a.savings(), 0);
        // +7 and the wrap 0 + 1 - 7 = -6 are both still paid.
        assert_eq!(a.charged(), 2);
    }

    #[test]
    fn most_frequent_over_range_delta_wins() {
        // Steps: +5, -9, +5, +5 → over-range freq {5: 3, -9: 1}.
        let dm = DistanceModel::from_offsets(&[0, 5, -4, 1, 6], 1, 1);
        let cover = PathCover::single_chain(5);
        let a = rank(&cover, &dm, 1);
        assert_eq!(a.values(), &[5]);
        assert_eq!(a.savings(), 3);
        assert_eq!(a.register_for(5), Some(0));
    }

    #[test]
    fn wrap_steps_are_counted() {
        // Single path 0 → 1 with stride 9: wrap = 0 + 9 - 1 = 8.
        let dm = DistanceModel::from_offsets(&[0, 1], 9, 1);
        let cover = PathCover::single_chain(2);
        let a = rank(&cover, &dm, 2);
        assert_eq!(a.values(), &[8]);
        assert_eq!(a.savings(), 1);
    }

    #[test]
    fn wrap_steps_can_be_excluded() {
        // Same chain: without the wrap step there is no over-range delta
        // left to allocate (the only intra step is +1, in range).
        let dm = DistanceModel::from_offsets(&[0, 1], 9, 1);
        let cover = PathCover::single_chain(2);
        let a = ModifyAllocation::new(cover.paths().iter().map(|p| (p, &dm)), 2, false);
        assert!(a.values().is_empty());
        assert_eq!(a.savings(), 0);
    }

    #[test]
    fn free_deltas_are_never_allocated() {
        // Stride 4 closes the wrap (0 + 4 - 3 = 1), so every step of the
        // chain — intra and wrap — is in range.
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3], 4, 1);
        let cover = PathCover::single_chain(4);
        let a = rank(&cover, &dm, 4);
        assert!(a.values().is_empty(), "all steps are in range");
    }

    #[test]
    fn ties_prefer_small_magnitudes_deterministically() {
        // Deltas +9 and -9 appear once each; |9| ties, then -9 < 9 picks -9.
        let p1 = Path::new(vec![0, 1]).unwrap(); // 0 → 9: +9
        let p2 = Path::new(vec![2, 3]).unwrap(); // 9 → 0: -9
        let dm = DistanceModel::from_offsets(&[0, 9, 9, 0], 0, 1);
        // stride 0 is not allowed by LoopSpec but fine for a raw model:
        // wrap p1: 0 + 0 - 9 = -9, p2: 9 + 0 - 0 = 9; they tie with the
        // intra steps.
        let cover = PathCover::new(vec![p1, p2], 4).unwrap();
        let a = rank(&cover, &dm, 1);
        assert_eq!(a.values(), &[-9]);
        assert_eq!(a.savings(), 2);
    }

    #[test]
    fn count_caps_the_number_of_values() {
        let dm = DistanceModel::from_offsets(&[0, 10, 30, 60, 100], 1, 1);
        let cover = PathCover::single_chain(5);
        let a = rank(&cover, &dm, 2);
        assert_eq!(a.values().len(), 2);
        assert!(a.savings() >= 2);
    }

    /// Table-driven edge cases of the ranking: zero registers, more
    /// registers than distinct over-range deltas, tied frequencies, and
    /// deltas exactly on the modify-range boundary.
    #[test]
    fn ranking_edge_case_table() {
        struct Case {
            name: &'static str,
            offsets: &'static [i64],
            stride: i64,
            modify_range: u32,
            count: usize,
            expect_values: &'static [i64],
            expect_savings: u32,
        }
        let cases = [
            Case {
                // No modify registers at all: nothing is ever allocated,
                // whatever the deltas look like.
                name: "zero_registers",
                offsets: &[0, 10, 20, 30],
                stride: 1,
                modify_range: 1,
                count: 0,
                expect_values: &[],
                expect_savings: 0,
            },
            Case {
                // Steps +10, +10, +10, wrap -29: two distinct over-range
                // deltas, four registers offered — only the two distinct
                // values are loaded, never padding.
                name: "more_registers_than_distinct_deltas",
                offsets: &[0, 10, 20, 30],
                stride: 1,
                modify_range: 1,
                count: 4,
                expect_values: &[10, -29],
                expect_savings: 4,
            },
            Case {
                // Steps +7, -7, +7, -7, wrap +2 (free): +7 and -7 tie at
                // frequency 2; |7| ties too, then the smaller signed value
                // (-7) wins the single register deterministically.
                name: "tied_delta_frequencies",
                offsets: &[0, 7, 0, 7, 0],
                stride: 2,
                modify_range: 2,
                count: 1,
                expect_values: &[-7],
                expect_savings: 2,
            },
            Case {
                // Steps +3 (= M: free), +4 (= M + 1: over-range), wrap -6.
                // The boundary delta |d| == M must never consume a modify
                // register; the first over-range value is exactly M + 1.
                name: "deltas_on_the_modify_range_boundary",
                offsets: &[0, 3, 7],
                stride: 1,
                modify_range: 3,
                count: 2,
                expect_values: &[4, -6],
                expect_savings: 2,
            },
        ];
        for case in cases {
            let dm = DistanceModel::from_offsets(case.offsets, case.stride, case.modify_range);
            let cover = PathCover::single_chain(case.offsets.len());
            let a = rank(&cover, &dm, case.count);
            assert_eq!(a.values(), case.expect_values, "{}", case.name);
            assert_eq!(a.savings(), case.expect_savings, "{}", case.name);
            for &v in a.values() {
                assert!(
                    !dm.is_free(v),
                    "{}: in-range delta {v} allocated",
                    case.name
                );
            }
        }
    }
}
