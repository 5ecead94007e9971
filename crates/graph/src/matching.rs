//! Maximum bipartite matching and the relaxed minimum path cover.
//!
//! When inter-iteration (wrap) constraints are ignored, the minimum number
//! of node-disjoint paths covering the intra-iteration graph is the
//! classic *minimum path cover of a DAG*: `N - |maximum matching|` in the
//! bipartite graph that has a left copy and a right copy of every access
//! and an edge `(i, j)` for every zero-cost step `i → j`. The paper uses
//! this quantity as the lower bound on the number of virtual registers
//! `K̃` (their ref \[2\], Araujo et al., ISSS 1996).
//!
//! The matching is computed with Hopcroft–Karp in
//! `O(E sqrt(V))`.

use crate::distance::DistanceModel;
use crate::path::{Path, PathCover};

/// No partner: an unmatched vertex, or a chain's end.
const NONE: u32 = u32::MAX;

/// A bipartite graph's adjacency, flat: the right neighbours of left
/// vertex `i` are `words[words[i]..words[i + 1]]`, after the `n + 1`
/// bounds.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    words: Vec<u32>,
}

impl Adjacency {
    /// The adjacency with `edges` right vertices per left vertex, in
    /// order, in one allocation when `edges` fits `capacity`.
    fn build<I: IntoIterator<Item = u32>>(
        left: usize,
        capacity: usize,
        mut edges: impl FnMut(usize) -> I,
    ) -> Self {
        let mut words = Vec::with_capacity(left + 1 + capacity);
        words.resize(left + 1, 0);
        for i in 0..left {
            words[i] = words.len() as u32;
            words.extend(edges(i));
        }
        words[left] = words.len() as u32;
        Adjacency { words }
    }

    /// The intra-iteration zero-cost relation of `dm`: left vertex `i`
    /// connects to right vertex `j` iff `i < j` and the step `i → j` is
    /// free, in ascending `j`.
    pub(crate) fn intra(dm: &DistanceModel) -> Self {
        let n = dm.len();
        Adjacency::build(n, n * n.saturating_sub(1) / 2, |i| {
            ((i + 1)..n)
                .filter(move |&j| dm.free_intra(i, j))
                .map(|j| j as u32)
        })
    }

    /// The number of left vertices.
    fn left(&self) -> usize {
        self.words.first().map_or(0, |&first| first as usize - 1)
    }

    /// The right neighbours of left vertex `i`.
    fn neighbours(&self, i: usize) -> &[u32] {
        &self.words[self.words[i] as usize..self.words[i + 1] as usize]
    }
}

#[cfg(test)]
impl Adjacency {
    /// The flat form of adjacency lists.
    pub(crate) fn from_lists(lists: &[Vec<usize>]) -> Self {
        Adjacency::build(lists.len(), 0, |i| lists[i].iter().map(|&j| j as u32))
    }
}

/// A maximum matching between left and right vertex copies.
#[derive(Debug, Clone)]
pub(crate) struct Matching {
    /// The partner of each left vertex, then of each right vertex, or
    /// [`NONE`]; then Hopcroft–Karp's BFS layers and queue, kept to save
    /// an allocation.
    pairs: Vec<u32>,
    left: usize,
    right: usize,
    size: usize,
}

impl Matching {
    /// The right partner matched to left vertex `i`, if any.
    pub(crate) fn partner_of_left(&self, i: usize) -> Option<usize> {
        self.pairs[..self.left]
            .get(i)
            .filter(|&&j| j != NONE)
            .map(|&j| j as usize)
    }

    /// The left partner matched to right vertex `j`, if any.
    pub(crate) fn partner_of_right(&self, j: usize) -> Option<usize> {
        self.pairs[self.left..self.left + self.right]
            .get(j)
            .filter(|&&i| i != NONE)
            .map(|&i| i as usize)
    }

    /// Number of matched pairs.
    pub(crate) fn size(&self) -> usize {
        self.size
    }
}

/// Computes a maximum bipartite matching with Hopcroft–Karp.
///
/// Left vertex `i` reaches the right vertices
/// `adjacency.neighbours(i)`, tried in that order. Runs in
/// `O(E sqrt(V))`.
pub(crate) fn hopcroft_karp(n_left: usize, n_right: usize, adjacency: &Adjacency) -> Matching {
    assert_eq!(
        adjacency.left(),
        n_left,
        "adjacency list must have one entry per left vertex"
    );
    const INF: u32 = u32::MAX;
    // The partners, then the BFS layers and queue.
    let mut pairs = vec![NONE; n_left + n_right + 2 * n_left];
    let (pair_left, rest) = pairs.split_at_mut(n_left);
    let (pair_right, rest) = rest.split_at_mut(n_right);
    let (dist, queue) = rest.split_at_mut(n_left);
    let mut size = 0usize;

    loop {
        // BFS phase: layer the graph from unmatched left vertices.
        let mut tail = 0;
        for u in 0..n_left {
            if pair_left[u] == NONE {
                dist[u] = 0;
                queue[tail] = u as u32;
                tail += 1;
            } else {
                dist[u] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        let mut head = 0;
        while head < tail {
            let u = queue[head] as usize;
            head += 1;
            for &v in adjacency.neighbours(u) {
                match pair_right[v as usize] {
                    NONE => found_augmenting_layer = true,
                    u2 => {
                        let u2 = u2 as usize;
                        if dist[u2] == INF {
                            dist[u2] = dist[u] + 1;
                            queue[tail] = u2 as u32;
                            tail += 1;
                        }
                    }
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS phase: find a maximal set of vertex-disjoint shortest
        // augmenting paths.
        fn dfs(
            u: usize,
            adjacency: &Adjacency,
            pair_left: &mut [u32],
            pair_right: &mut [u32],
            dist: &mut [u32],
        ) -> bool {
            for &v in adjacency.neighbours(u) {
                let ok = match pair_right[v as usize] {
                    NONE => true,
                    u2 => {
                        let u2 = u2 as usize;
                        dist[u2] == dist[u].saturating_add(1)
                            && dfs(u2, adjacency, pair_left, pair_right, dist)
                    }
                };
                if ok {
                    pair_left[u] = v;
                    pair_right[v as usize] = u as u32;
                    return true;
                }
            }
            dist[u] = INF;
            false
        }
        for u in 0..n_left {
            if pair_left[u] == NONE && dfs(u, adjacency, pair_left, pair_right, dist) {
                size += 1;
            }
        }
    }
    Matching {
        pairs,
        left: n_left,
        right: n_right,
        size,
    }
}

/// A minimum path cover of the intra-iteration graph (wrap constraints
/// ignored), kept as the maximum matching it comes from: every access's
/// successor on its chain. Phase 1's lower bound is its path count, its
/// split repair the heuristic upper bound, and its
/// [`cover`](Self::cover) the relaxed fallback.
///
/// ```
/// use raco_graph::matching::MatchingCover;
/// use raco_graph::{DistanceModel, ModifyAllocation};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let matched = MatchingCover::new(&dm);
/// assert_eq!(matched.register_count(), 2);
/// let cover = matched.cover();
/// assert_eq!(cover.register_count(), 2);
/// // No paid step inside an iteration (wraps left out):
/// let paths = cover.paths().iter().map(|p| (p, &dm));
/// assert_eq!(ModifyAllocation::new(paths, 0, false).charged(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MatchingCover {
    matching: Matching,
}

impl MatchingCover {
    /// The matching cover of `dm`'s free intra steps.
    pub fn new(dm: &DistanceModel) -> Self {
        let n = dm.len();
        MatchingCover {
            matching: hopcroft_karp(n, n, &Adjacency::intra(dm)),
        }
    }

    /// Number of accesses.
    fn accesses(&self) -> usize {
        self.matching.left
    }

    /// The number of chains: the lower bound on `K̃`.
    pub fn register_count(&self) -> usize {
        self.accesses() - self.matching.size()
    }

    /// `true` iff nothing precedes `access` on its chain.
    pub(crate) fn is_head(&self, access: usize) -> bool {
        self.matching.partner_of_right(access).is_none()
    }

    /// The access after `access` on its chain, if any.
    pub(crate) fn next(&self, access: usize) -> Option<usize> {
        self.matching.partner_of_left(access)
    }

    /// The chain starting at `head`, in order.
    pub(crate) fn chain(&self, head: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(head), |&at| self.next(at))
    }

    /// The chains as a [`PathCover`]. Every intra step of every path is
    /// free; back-edge (wrap) steps may not be.
    pub fn cover(&self) -> PathCover {
        let n = self.accesses();
        let mut paths = Vec::with_capacity(self.register_count());
        for head in (0..n).filter(|&head| self.is_head(head)) {
            let len = self.chain(head).count();
            let mut chain = Vec::with_capacity(len);
            chain.extend(self.chain(head));
            paths.push(Path::new(chain).expect("chains are strictly increasing"));
        }
        // Heads were taken in ascending order: the canonical order.
        PathCover::from_canonical(paths, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModifyAllocation;

    /// The matching cover of `dm` as a [`PathCover`].
    fn cover_of(dm: &DistanceModel) -> PathCover {
        MatchingCover::new(dm).cover()
    }

    /// The paid steps of `cover` inside one iteration (wraps left out).
    fn intra_paid(cover: &PathCover, dm: &DistanceModel) -> u32 {
        ModifyAllocation::new(cover.paths().iter().map(|p| (p, dm)), 0, false).charged()
    }

    /// `true` iff some cover with fewer than `registers` paths pays no
    /// step inside an iteration (exhaustive: small patterns only).
    fn fewer_intra_free_paths_exist(dm: &DistanceModel, registers: usize) -> bool {
        let mut found = false;
        crate::brute::for_each_partition(dm.len(), registers - 1, |assignment, _| {
            found |= intra_paid(&PathCover::from_assignment(assignment), dm) == 0;
        });
        found
    }

    #[test]
    fn hopcroft_karp_on_small_graphs() {
        // Empty graph.
        let m = hopcroft_karp(3, 3, &Adjacency::from_lists(&[vec![], vec![], vec![]]));
        assert_eq!(m.size(), 0);
        // A path graph needs alternating choices.
        let m = hopcroft_karp(
            3,
            3,
            &Adjacency::from_lists(&[vec![0], vec![0, 1], vec![1]]),
        );
        assert_eq!(m.size(), 2);
        // Perfect matching exists (uniquely 0→1, 1→2, 2→0).
        let m = hopcroft_karp(
            3,
            3,
            &Adjacency::from_lists(&[vec![0, 1], vec![1, 2], vec![0]]),
        );
        assert_eq!(m.size(), 3);
        for left in 0..3 {
            let right = m.partner_of_left(left).expect("perfect matching");
            assert_eq!(m.partner_of_right(right), Some(left));
        }
        assert_eq!(m.partner_of_left(2), Some(0));
    }

    #[test]
    fn hopcroft_karp_handles_asymmetric_sides() {
        let m = hopcroft_karp(2, 4, &Adjacency::from_lists(&[vec![3], vec![3]]));
        assert_eq!(m.size(), 1);
        let adjacency = Adjacency::from_lists(&[vec![0], vec![0], vec![0], vec![0]]);
        let m = hopcroft_karp(4, 1, &adjacency);
        assert_eq!(m.size(), 1);
    }

    #[test]
    #[should_panic(expected = "one entry per left vertex")]
    fn hopcroft_karp_validates_adjacency_len() {
        let _ = hopcroft_karp(2, 2, &Adjacency::from_lists(&[vec![0]]));
    }

    #[test]
    fn paper_example_needs_two_registers_without_wrap() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let cover = cover_of(&dm);
        assert_eq!(cover.register_count(), 2);
        assert!(intra_paid(&cover, &dm) == 0);
    }

    #[test]
    fn disconnected_pattern_needs_one_register_per_access() {
        let dm = DistanceModel::from_offsets(&[0, 10, 20, 30], 1, 1);
        let cover = cover_of(&dm);
        assert_eq!(cover.register_count(), 4);
        assert!(cover.paths().iter().all(|p| p.len() == 1));
    }

    #[test]
    fn monotone_pattern_needs_one_register() {
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3, 4], 1, 1);
        let cover = cover_of(&dm);
        assert_eq!(cover.register_count(), 1);
        assert_eq!(cover.paths()[0].indices(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn cover_is_intra_free_and_minimal_on_random_patterns() {
        // Deterministic pseudo-random patterns (LCG) — no rand dependency.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for n in [1usize, 2, 5, 8, 9, 14] {
            for m in [0u32, 1, 2] {
                let offsets: Vec<i64> = (0..n).map(|_| next().rem_euclid(7) - 3).collect();
                let dm = DistanceModel::from_offsets(&offsets, 1, m);
                let cover = cover_of(&dm);
                assert_eq!(intra_paid(&cover, &dm), 0, "offsets {offsets:?} m {m}");
                assert!(
                    n > 8 || !fewer_intra_free_paths_exist(&dm, cover.register_count()),
                    "offsets {offsets:?} m {m}: a smaller intra-free cover exists"
                );
            }
        }
    }
}
