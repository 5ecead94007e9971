//! Paths and path covers over an access pattern.
//!
//! A *path* is an order-preserving subsequence of the access pattern: the
//! accesses one address register serves each iteration. A *path cover*
//! partitions all accesses into node-disjoint paths — one per (virtual or
//! physical) address register. Both phases of the paper's algorithm
//! (Section 3) manipulate these objects: Phase 1 finds a minimum zero-cost
//! cover, Phase 2 merges paths until the register constraint is met.

use std::fmt;

use crate::distance::DistanceModel;
use crate::modify::{paid_delta, steps};

/// Errors produced when constructing a [`Path`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PathError {
    /// Paths must contain at least one access.
    Empty,
    /// Access indices must be strictly increasing (the merge operation `⊕`
    /// "retains the order of array accesses in the original access
    /// pattern", Section 3.2).
    NotIncreasing {
        /// Position within the index list where monotonicity broke.
        at: usize,
    },
    /// The two paths being merged share an access.
    Overlapping {
        /// The access index present in both paths.
        index: usize,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => f.write_str("a path must contain at least one access"),
            PathError::NotIncreasing { at } => {
                write!(
                    f,
                    "path indices must be strictly increasing (violated at position {at})"
                )
            }
            PathError::Overlapping { index } => {
                write!(f, "paths overlap at access index {index}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// An order-preserving subsequence of the access pattern — the accesses
/// served by one address register per iteration.
///
/// # Examples
///
/// The paper's Section 2 observes that `(a_1, a_3, a_5, a_6)` is a path of
/// the example graph realizable with auto-increment/decrement only:
///
/// ```
/// use raco_graph::modify::{paid_delta, steps};
/// use raco_graph::{DistanceModel, Path};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let p = Path::new(vec![0, 2, 4, 5]).unwrap(); // a_1, a_3, a_5, a_6
/// let paid = steps(p.indices()).filter_map(|s| paid_delta(&dm, s, false));
/// assert_eq!(paid.count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    indices: Vec<usize>,
}

impl Path {
    /// Creates a path from strictly increasing access indices.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::Empty`] or [`PathError::NotIncreasing`] if the
    /// index list is empty or out of order.
    pub fn new(indices: Vec<usize>) -> Result<Self, PathError> {
        if indices.is_empty() {
            return Err(PathError::Empty);
        }
        for at in 1..indices.len() {
            if indices[at] <= indices[at - 1] {
                return Err(PathError::NotIncreasing { at });
            }
        }
        Ok(Path { indices })
    }

    /// Creates a path containing the single access `index`.
    pub fn singleton(index: usize) -> Self {
        Path {
            indices: vec![index],
        }
    }

    /// The access indices in pattern order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of accesses on the path.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Paths are never empty; this always returns `false` and exists for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// First access (the register's position at the top of an iteration).
    pub fn head(&self) -> usize {
        self.indices[0]
    }

    /// Last access (the register's position at the end of an iteration).
    pub fn tail(&self) -> usize {
        *self.indices.last().expect("paths are non-empty")
    }

    /// `true` if the path contains access `index`.
    pub fn contains(&self, index: usize) -> bool {
        self.indices.binary_search(&index).is_ok()
    }

    /// The paper's merge operation `P_i ⊕ P_j`: the union of both access
    /// sets, re-ordered by position in the original access pattern
    /// (Section 3.2: merging `(a_1, a_4, a_6)` and `(a_3, a_5)` yields
    /// `(a_1, a_3, a_4, a_5, a_6)`).
    ///
    /// # Errors
    ///
    /// Returns [`PathError::Overlapping`] if the paths share an access.
    pub fn merge(&self, other: &Path) -> Result<Path, PathError> {
        let mut indices = Vec::with_capacity(self.len() + other.len());
        indices.extend(self.merged_indices(other));
        match indices.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(PathError::Overlapping { index: w[0] }),
            None => Ok(Path { indices }),
        }
    }

    /// The accesses of [`merge`](Self::merge)'s `P_i ⊕ P_j` in pattern
    /// order, without building the path. An access on both paths comes
    /// twice, back to back.
    ///
    /// ```
    /// use raco_graph::Path;
    ///
    /// let p1 = Path::new(vec![0, 3, 5]).unwrap();
    /// let p2 = Path::new(vec![2, 4]).unwrap();
    /// assert!(p1.merged_indices(&p2).eq([0, 2, 3, 4, 5]));
    /// ```
    pub fn merged_indices<'a>(&'a self, other: &'a Path) -> impl Iterator<Item = usize> + 'a {
        let (a, b) = (self.indices(), other.indices());
        let (mut x, mut y) = (0, 0);
        std::iter::from_fn(move || match (a.get(x), b.get(y)) {
            (Some(&p), Some(&q)) if p < q => {
                x += 1;
                Some(p)
            }
            (Some(&p), None) => {
                x += 1;
                Some(p)
            }
            (_, Some(&q)) => {
                y += 1;
                Some(q)
            }
            (None, None) => None,
        })
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (k, i) in self.indices.iter().enumerate() {
            if k > 0 {
                f.write_str(", ")?;
            }
            write!(f, "a_{}", i + 1)?;
        }
        f.write_str(")")
    }
}

/// Errors produced when constructing a [`PathCover`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoverError {
    /// An access appears on more than one path.
    Duplicated {
        /// The duplicated access index.
        index: usize,
    },
    /// An access appears on no path.
    Missing {
        /// The uncovered access index.
        index: usize,
    },
    /// A path references an access index `>= n`.
    OutOfRange {
        /// The out-of-range access index.
        index: usize,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::Duplicated { index } => {
                write!(f, "access {index} is covered by more than one path")
            }
            CoverError::Missing { index } => write!(f, "access {index} is not covered"),
            CoverError::OutOfRange { index } => {
                write!(f, "access index {index} is out of range")
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// A partition of all `n` accesses into node-disjoint paths.
///
/// Covers are kept in canonical order (paths sorted by head index), so two
/// covers with the same path set compare equal.
///
/// # Examples
///
/// ```
/// use raco_graph::{DistanceModel, ModifyAllocation, Path, PathCover};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let cover = PathCover::new(
///     vec![
///         Path::new(vec![0, 2, 4, 5]).unwrap(), // (a_1, a_3, a_5, a_6)
///         Path::new(vec![1, 3, 6]).unwrap(),    // (a_2, a_4, a_7)
///     ],
///     7,
/// )
/// .unwrap();
/// assert_eq!(cover.register_count(), 2);
/// // No paid step inside an iteration (wraps left out):
/// let paths = cover.paths().iter().map(|p| (p, &dm));
/// assert_eq!(ModifyAllocation::new(paths, 0, false).charged(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathCover {
    paths: Vec<Path>,
    n: usize,
}

impl PathCover {
    /// Creates a cover of `n` accesses, validating completeness and
    /// disjointness.
    ///
    /// # Errors
    ///
    /// Returns a [`CoverError`] if any access is missing, duplicated or
    /// out of range.
    pub fn new(paths: Vec<Path>, n: usize) -> Result<Self, CoverError> {
        let mut seen = vec![false; n];
        for p in &paths {
            for &i in p.indices() {
                if i >= n {
                    return Err(CoverError::OutOfRange { index: i });
                }
                if seen[i] {
                    return Err(CoverError::Duplicated { index: i });
                }
                seen[i] = true;
            }
        }
        if let Some(index) = seen.iter().position(|covered| !covered) {
            return Err(CoverError::Missing { index });
        }
        let mut cover = PathCover { paths, n };
        cover.canonicalize();
        Ok(cover)
    }

    /// The all-singletons cover: one register per access.
    pub fn singletons(n: usize) -> Self {
        PathCover {
            paths: (0..n).map(Path::singleton).collect(),
            n,
        }
    }

    /// The one-path cover: every access chained onto a single register.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn single_chain(n: usize) -> Self {
        assert!(n > 0, "a cover needs at least one access");
        PathCover {
            paths: vec![Path::new((0..n).collect()).expect("0..n is increasing")],
            n,
        }
    }

    /// A cover of `n` accesses from `paths` that partition them and are
    /// already in canonical order (ascending heads); unchecked in
    /// release builds.
    pub(crate) fn from_canonical(paths: Vec<Path>, n: usize) -> Self {
        debug_assert!(PathCover::new(paths.clone(), n).is_ok_and(|cover| cover.paths == paths));
        PathCover { paths, n }
    }

    /// The cover an assignment describes: `assignment[i]` is the id of
    /// the register serving access `i`. Accesses with one id form one
    /// path, in order; ids that serve nothing give no path. Ids index a
    /// table of groups, so they should stay below the access count.
    pub fn from_assignment(assignment: &[usize]) -> Self {
        let ids = assignment.iter().max().map_or(0, |&id| id + 1);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); ids];
        for (i, &id) in assignment.iter().enumerate() {
            let group = &mut groups[id];
            if group.capacity() == 0 {
                // A path's first access: count the rest of it, so the
                // path is allocated once at its full length.
                group.reserve_exact(assignment[i..].iter().filter(|&&a| a == id).count());
            }
            group.push(i);
        }
        let mut cover = PathCover {
            paths: groups
                .into_iter()
                .filter(|g| !g.is_empty())
                .map(|indices| Path { indices })
                .collect(),
            n: assignment.len(),
        };
        cover.canonicalize();
        cover
    }

    /// The inverse of [`from_assignment`](Self::from_assignment): the
    /// index of the path serving each access.
    pub fn assignment(&self) -> Vec<usize> {
        let mut assignment = vec![0; self.n];
        for (id, path) in self.paths.iter().enumerate() {
            for &i in path.indices() {
                assignment[i] = id;
            }
        }
        assignment
    }

    fn canonicalize(&mut self) {
        self.paths.sort_by_key(Path::head);
    }

    /// The paths, sorted by head access.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Number of accesses covered.
    pub fn accesses(&self) -> usize {
        self.n
    }

    /// Number of paths — i.e. the number of address registers the cover
    /// uses.
    pub fn register_count(&self) -> usize {
        self.paths.len()
    }

    /// `true` if every step of every path — including every back-edge
    /// step — is free. Phase 1 of the paper computes the minimum cover
    /// with this property.
    pub fn is_zero_cost(&self, dm: &DistanceModel) -> bool {
        let mut steps = self.paths.iter().flat_map(|p| steps(&p.indices));
        steps.all(|step| paid_delta(dm, step, true).is_none())
    }

    /// Replaces paths `i` and `j` by their merge `P_i ⊕ P_j`.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::Overlapping`] if the paths share an access
    /// (impossible for covers built through [`PathCover::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn merge_pair(&mut self, i: usize, j: usize) -> Result<(), PathError> {
        assert!(i != j, "cannot merge a path with itself");
        let merged = self.paths[i].merge(&self.paths[j])?;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.paths.swap_remove(hi);
        self.paths[lo] = merged;
        self.canonicalize();
        Ok(())
    }

    /// The path serving access `index`, if any.
    pub fn path_of(&self, index: usize) -> Option<&Path> {
        self.paths.iter().find(|p| p.contains(index))
    }
}

impl fmt::Display for PathCover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, p) in self.paths.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modify::step_delta;

    fn paper_dm() -> DistanceModel {
        DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1)
    }

    #[test]
    fn path_construction_validates_order() {
        assert_eq!(Path::new(vec![]).unwrap_err(), PathError::Empty);
        assert_eq!(
            Path::new(vec![0, 2, 2]).unwrap_err(),
            PathError::NotIncreasing { at: 2 }
        );
        assert_eq!(
            Path::new(vec![3, 1]).unwrap_err(),
            PathError::NotIncreasing { at: 1 }
        );
        let p = Path::new(vec![0, 2, 5]).unwrap();
        assert_eq!((p.head(), p.tail(), p.len()), (0, 5, 3));
        assert!(p.contains(2));
        assert!(!p.contains(1));
    }

    #[test]
    fn merge_matches_paper_example() {
        // Section 3.2: (a_1, a_4, a_6) ⊕ (a_3, a_5) = (a_1, a_3, a_4, a_5, a_6)
        let p1 = Path::new(vec![0, 3, 5]).unwrap();
        let p2 = Path::new(vec![2, 4]).unwrap();
        let merged = p1.merge(&p2).unwrap();
        assert_eq!(merged.indices(), &[0, 2, 3, 4, 5]);
        // Merge is symmetric.
        assert_eq!(p2.merge(&p1).unwrap(), merged);
    }

    #[test]
    fn merge_rejects_overlap() {
        let p1 = Path::new(vec![0, 3]).unwrap();
        let p2 = Path::new(vec![3, 4]).unwrap();
        assert_eq!(
            p1.merge(&p2).unwrap_err(),
            PathError::Overlapping { index: 3 }
        );
    }

    /// The deltas of `path`'s steps, the wrap last.
    fn deltas(path: &Path, dm: &DistanceModel) -> Vec<i64> {
        steps(path.indices())
            .map(|step| step_delta(dm, step))
            .collect()
    }

    /// The paid steps of `paths`, wraps counted when `include_wrap` is set.
    fn paid<'a>(
        paths: impl IntoIterator<Item = &'a Path>,
        dm: &DistanceModel,
        include_wrap: bool,
    ) -> usize {
        let steps = paths.into_iter().flat_map(|p| steps(p.indices()));
        steps
            .filter_map(|step| paid_delta(dm, step, include_wrap))
            .count()
    }

    #[test]
    fn paper_zero_cost_path() {
        let dm = paper_dm();
        // (a_1, a_3, a_5, a_6): offsets 1 → 2 → 1 → 0, all steps |d| <= 1.
        let p = Path::new(vec![0, 2, 4, 5]).unwrap();
        // Wrap: offset 0 tail → offset 1 head next iteration: 1 + 1 - 0 = 2.
        assert_eq!(deltas(&p, &dm), vec![1, -1, -1, 2]);
        assert_eq!(paid([&p], &dm, false), 0);
        assert_eq!(paid([&p], &dm, true), 1);
    }

    #[test]
    fn singleton_wrap_cost_is_stride_freeness() {
        let dm = paper_dm();
        let p = Path::singleton(3);
        assert_eq!(deltas(&p, &dm), vec![1]);
        assert_eq!(paid([&p], &dm, false), 0);
        assert_eq!(paid([&p], &dm, true), 0);
    }

    #[test]
    fn cover_validation() {
        let mk = |v: Vec<Vec<usize>>| {
            PathCover::new(v.into_iter().map(|x| Path::new(x).unwrap()).collect(), 4)
        };
        assert!(mk(vec![vec![0, 1], vec![2, 3]]).is_ok());
        assert_eq!(
            mk(vec![vec![0, 1], vec![1, 2], vec![3]]).unwrap_err(),
            CoverError::Duplicated { index: 1 }
        );
        assert_eq!(
            mk(vec![vec![0, 1], vec![3]]).unwrap_err(),
            CoverError::Missing { index: 2 }
        );
        assert_eq!(
            mk(vec![vec![0, 1], vec![2, 3, 7]]).unwrap_err(),
            CoverError::OutOfRange { index: 7 }
        );
    }

    #[test]
    fn covers_are_canonicalized() {
        let a = PathCover::new(
            vec![
                Path::new(vec![1, 3]).unwrap(),
                Path::new(vec![0, 2]).unwrap(),
            ],
            4,
        )
        .unwrap();
        let b = PathCover::new(
            vec![
                Path::new(vec![0, 2]).unwrap(),
                Path::new(vec![1, 3]).unwrap(),
            ],
            4,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.paths()[0].head(), 0);
    }

    #[test]
    fn singleton_and_chain_covers() {
        let s = PathCover::singletons(3);
        assert_eq!(s.register_count(), 3);
        assert_eq!(s.accesses(), 3);
        let c = PathCover::single_chain(3);
        assert_eq!(c.register_count(), 1);
        assert_eq!(c.paths()[0].indices(), &[0, 1, 2]);
    }

    #[test]
    fn assignments_and_covers_round_trip() {
        // Ids 2, 0, 2, 0, 5: id 1 and ids 3–4 serve nothing.
        let cover = PathCover::from_assignment(&[2, 0, 2, 0, 5]);
        assert_eq!(cover.to_string(), "{(a_1, a_3), (a_2, a_4), (a_5)}");
        assert_eq!(cover.accesses(), 5);
        assert_eq!(cover.assignment(), vec![0, 1, 0, 1, 2]);
        assert_eq!(PathCover::from_assignment(&cover.assignment()), cover);
    }

    #[test]
    fn merge_pair_reduces_register_count() {
        let mut cover = PathCover::singletons(4);
        cover.merge_pair(0, 2).unwrap();
        assert_eq!(cover.register_count(), 3);
        assert!(cover.path_of(0).unwrap().contains(2));
        assert_eq!(cover.path_of(3).unwrap().len(), 1);
    }

    #[test]
    fn paid_steps_sum_over_paths() {
        let dm = paper_dm();
        // Chain everything: offsets 1,0,2,-1,1,0,-2 → steps -1,2,-3,2,-1,-2
        // → intra cost 4; wrap: 1 + 1 - (-2) = 4 → +1.
        let chain = PathCover::single_chain(7);
        assert_eq!(paid(chain.paths(), &dm, false), 4);
        assert_eq!(paid(chain.paths(), &dm, true), 5);
        assert!(!chain.is_zero_cost(&dm));
    }

    #[test]
    fn display_is_one_based_like_the_paper() {
        let p = Path::new(vec![0, 2, 4]).unwrap();
        assert_eq!(p.to_string(), "(a_1, a_3, a_5)");
        let cover = PathCover::new(
            vec![Path::new(vec![0]).unwrap(), Path::new(vec![1]).unwrap()],
            2,
        )
        .unwrap();
        assert_eq!(cover.to_string(), "{(a_1), (a_2)}");
    }

    #[test]
    #[should_panic(expected = "cannot merge a path with itself")]
    fn merge_pair_rejects_same_index() {
        let mut cover = PathCover::singletons(2);
        let _ = cover.merge_pair(1, 1);
    }
}
