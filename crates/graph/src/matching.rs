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

/// A maximum matching between left and right vertex copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    pair_left: Vec<Option<usize>>,
    pair_right: Vec<Option<usize>>,
    size: usize,
}

impl Matching {
    /// The right partner matched to left vertex `i`, if any.
    pub fn partner_of_left(&self, i: usize) -> Option<usize> {
        self.pair_left.get(i).copied().flatten()
    }

    /// The left partner matched to right vertex `j`, if any.
    pub fn partner_of_right(&self, j: usize) -> Option<usize> {
        self.pair_right.get(j).copied().flatten()
    }

    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// Computes a maximum bipartite matching with Hopcroft–Karp.
///
/// `adjacency[i]` lists the right vertices reachable from left vertex `i`.
/// Runs in `O(E sqrt(V))`.
///
/// # Examples
///
/// ```
/// use raco_graph::matching::hopcroft_karp;
/// // Perfect matching on a 2x2 biclique:
/// let m = hopcroft_karp(2, 2, &[vec![0, 1], vec![0, 1]]);
/// assert_eq!(m.size(), 2);
/// ```
pub fn hopcroft_karp(n_left: usize, n_right: usize, adjacency: &[Vec<usize>]) -> Matching {
    assert_eq!(
        adjacency.len(),
        n_left,
        "adjacency list must have one entry per left vertex"
    );
    const INF: u32 = u32::MAX;
    let mut pair_left: Vec<Option<usize>> = vec![None; n_left];
    let mut pair_right: Vec<Option<usize>> = vec![None; n_right];
    let mut dist: Vec<u32> = vec![INF; n_left];
    let mut queue: Vec<usize> = Vec::with_capacity(n_left);
    let mut size = 0usize;

    loop {
        // BFS phase: layer the graph from unmatched left vertices.
        queue.clear();
        for u in 0..n_left {
            if pair_left[u].is_none() {
                dist[u] = 0;
                queue.push(u);
            } else {
                dist[u] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &adjacency[u] {
                match pair_right[v] {
                    None => found_augmenting_layer = true,
                    Some(u2) => {
                        if dist[u2] == INF {
                            dist[u2] = dist[u] + 1;
                            queue.push(u2);
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
            adjacency: &[Vec<usize>],
            pair_left: &mut [Option<usize>],
            pair_right: &mut [Option<usize>],
            dist: &mut [u32],
        ) -> bool {
            for idx in 0..adjacency[u].len() {
                let v = adjacency[u][idx];
                let ok = match pair_right[v] {
                    None => true,
                    Some(u2) => {
                        dist[u2] == dist[u].saturating_add(1)
                            && dfs(u2, adjacency, pair_left, pair_right, dist)
                    }
                };
                if ok {
                    pair_left[u] = Some(v);
                    pair_right[v] = Some(u);
                    return true;
                }
            }
            dist[u] = u32::MAX;
            false
        }
        for u in 0..n_left {
            if pair_left[u].is_none()
                && dfs(u, adjacency, &mut pair_left, &mut pair_right, &mut dist)
            {
                size += 1;
            }
        }
    }
    Matching {
        pair_left,
        pair_right,
        size,
    }
}

/// The bipartite adjacency of the intra-iteration zero-cost relation:
/// left vertex `i` connects to right vertex `j` iff `i < j` and the step
/// `i → j` is free.
pub fn intra_adjacency(dm: &DistanceModel) -> Vec<Vec<usize>> {
    let n = dm.len();
    (0..n)
        .map(|i| ((i + 1)..n).filter(|&j| dm.free_intra(i, j)).collect())
        .collect()
}

/// An explicit minimum path cover of the intra-iteration graph (wrap
/// constraints ignored), extracted from a maximum matching.
///
/// Every intra step of every returned path is free; back-edge (wrap) steps
/// may not be.
///
/// # Examples
///
/// ```
/// use raco_graph::{matching, DistanceModel, ModifyAllocation};
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let cover = matching::min_path_cover(&dm);
/// assert_eq!(cover.register_count(), 2);
/// // No paid step inside an iteration (wraps left out):
/// let paths = cover.paths().iter().map(|p| (p, &dm));
/// assert_eq!(ModifyAllocation::new(paths, 0, false).charged(), 0);
/// ```
pub fn min_path_cover(dm: &DistanceModel) -> PathCover {
    let n = dm.len();
    let m = hopcroft_karp(n, n, &intra_adjacency(dm));
    let mut paths = Vec::new();
    for head in 0..n {
        if m.partner_of_right(head).is_some() {
            continue; // not a chain head: something precedes it
        }
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(next) = m.partner_of_left(cur) {
            chain.push(next);
            cur = next;
        }
        paths.push(Path::new(chain).expect("chains are strictly increasing"));
    }
    PathCover::new(paths, n).expect("matching chains partition the nodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModifyAllocation;

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
        let m = hopcroft_karp(3, 3, &[vec![], vec![], vec![]]);
        assert_eq!(m.size(), 0);
        // A path graph needs alternating choices.
        let m = hopcroft_karp(3, 3, &[vec![0], vec![0, 1], vec![1]]);
        assert_eq!(m.size(), 2);
        // Perfect matching exists (uniquely 0→1, 1→2, 2→0).
        let m = hopcroft_karp(3, 3, &[vec![0, 1], vec![1, 2], vec![0]]);
        assert_eq!(m.size(), 3);
        for left in 0..3 {
            let right = m.partner_of_left(left).expect("perfect matching");
            assert_eq!(m.partner_of_right(right), Some(left));
        }
        assert_eq!(m.partner_of_left(2), Some(0));
    }

    #[test]
    fn hopcroft_karp_handles_asymmetric_sides() {
        let m = hopcroft_karp(2, 4, &[vec![3], vec![3]]);
        assert_eq!(m.size(), 1);
        let m = hopcroft_karp(4, 1, &[vec![0], vec![0], vec![0], vec![0]]);
        assert_eq!(m.size(), 1);
    }

    #[test]
    #[should_panic(expected = "one entry per left vertex")]
    fn hopcroft_karp_validates_adjacency_len() {
        let _ = hopcroft_karp(2, 2, &[vec![0]]);
    }

    #[test]
    fn paper_example_needs_two_registers_without_wrap() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let cover = min_path_cover(&dm);
        assert_eq!(cover.register_count(), 2);
        assert!(intra_paid(&cover, &dm) == 0);
    }

    #[test]
    fn disconnected_pattern_needs_one_register_per_access() {
        let dm = DistanceModel::from_offsets(&[0, 10, 20, 30], 1, 1);
        let cover = min_path_cover(&dm);
        assert_eq!(cover.register_count(), 4);
        assert!(cover.paths().iter().all(|p| p.len() == 1));
    }

    #[test]
    fn monotone_pattern_needs_one_register() {
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3, 4], 1, 1);
        let cover = min_path_cover(&dm);
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
                let cover = min_path_cover(&dm);
                assert_eq!(intra_paid(&cover, &dm), 0, "offsets {offsets:?} m {m}");
                assert!(
                    n > 8 || !fewer_intra_free_paths_exist(&dm, cover.register_count()),
                    "offsets {offsets:?} m {m}: a smaller intra-free cover exists"
                );
            }
        }
    }
}
