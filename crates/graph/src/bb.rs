//! Exact minimum zero-cost path cover via branch-and-bound (Phase 1).
//!
//! Computing the minimum number of virtual registers `K̃` **with**
//! inter-iteration dependencies is "an exponential problem" (paper,
//! Section 3.1); the paper solves it with the fast branch-and-bound of
//! their ref \[3\] (Leupers, Basu, Marwedel — ASP-DAC 1998), sandwiched
//! between the matching lower bound and a heuristic upper bound.
//!
//! The search processes accesses in sequence order and, for each access,
//! either appends it to a compatible open path (free intra step from the
//! path's current tail) or opens a new path. A cover is feasible when
//! every path's wrap step (tail → head, next iteration) is free.
//!
//! Pruning:
//! * *incumbent*: a partial state with as many open paths as the best
//!   known cover can never improve;
//! * *closability*: a path whose wrap is currently not free and whose head
//!   cannot be wrap-reached by any remaining access is dead;
//! * *dominance memoization*: states are canonicalized to
//!   `(position, multiset of (head offset, tail offset))`; a revisit with
//!   an equal-or-worse path count is pruned;
//! * *symmetry*: appending to two open paths with identical
//!   `(head offset, tail offset)` is equivalent — only one branch is
//!   explored.
//!
//! Every step is read from the pattern's [`DistanceModel`], as an intra
//! step or a wrap, and the search runs on buffers sized when it starts:
//! one stack of candidate slots shared by all nodes, one memo key
//! rebuilt in place, and a memo whose keys lie end to end in one buffer.
//! So expanding a node allocates nothing, and the memo allocates only
//! when it grows.

use crate::bounds::Bounds;
use crate::distance::DistanceModel;
use crate::path::PathCover;

/// Tuning knobs for the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BbOptions {
    /// Maximum number of search nodes to expand before giving up. When the
    /// limit is hit the best cover found so far is returned, proved only
    /// if it meets the lower bound.
    pub node_limit: u64,
    /// Enable dominance memoization (recommended; costs memory
    /// proportional to the number of distinct states).
    pub memoize: bool,
}

impl Default for BbOptions {
    fn default() -> Self {
        BbOptions {
            node_limit: 10_000_000,
            memoize: true,
        }
    }
}

/// What the branch-and-bound search found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// The fewest-register zero-cost cover found, if any.
    pub cover: Option<PathCover>,
    /// With a cover: its register count is `K̃`, because the search
    /// finished or the cover meets the lower bound. Without one: no
    /// zero-cost cover exists, and `false` means the node limit ran out
    /// before the search could tell.
    pub proved: bool,
    /// Search nodes expanded (0 when the bounds were tight).
    pub nodes: u64,
}

/// Searches the zero-cost covers of the pattern `dm` for the fewest
/// registers (the paper's `K̃`), between the already computed
/// [`Bounds`]. One matching serves both bounds: its path count is the
/// lower bound, its split repair the heuristic upper bound and the
/// search's first incumbent. When the two meet, the repair is the
/// answer and no node is expanded.
///
/// # Examples
///
/// The paper's running example needs three virtual registers once
/// inter-iteration dependencies are enforced (`a_7` can only close onto
/// itself):
///
/// ```
/// use raco_graph::matching::MatchingCover;
/// use raco_graph::{bb, bounds, BbOptions, DistanceModel};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let bounds = bounds::bounds(&dm, &MatchingCover::new(&dm));
/// let found = bb::search(&dm, bounds, BbOptions::default());
/// assert_eq!(found.cover.map(|cover| cover.register_count()), Some(3));
/// assert!(found.proved);
/// ```
pub fn search(dm: &DistanceModel, bounds: Bounds, options: BbOptions) -> SearchResult {
    let n = dm.len();
    let lb = bounds.lower;
    let (best_assign, best_count) = match bounds.repair {
        Some((assignment, paths)) if paths == lb => {
            return SearchResult {
                cover: Some(PathCover::from_assignment(&assignment)),
                proved: true,
                nodes: 0,
            };
        }
        Some((assignment, paths)) => (Some(assignment), paths),
        None => (None, usize::MAX),
    };
    let mut search = Search {
        dm,
        n,
        lb,
        best_count,
        best_assign,
        nodes: 0,
        node_limit: options.node_limit,
        memo: options.memoize.then(Memo::default),
        last_closer: (0..n)
            .map(|h| (h + 1..n).rev().find(|&x| dm.free_wrap(x, h)).unwrap_or(0))
            .collect(),
        class: (0..n)
            .map(|i| (0..i).find(|&j| dm.intra_distance(j, i) == 0).unwrap_or(i) as u32)
            .collect(),
        open: Vec::with_capacity(n),
        assign: vec![usize::MAX; n],
        candidates: Vec::with_capacity(n * (n + 1) / 2),
        aborted: false,
        proved: false,
    };
    search.dfs(0, 0);
    SearchResult {
        cover: search
            .best_assign
            .map(|assignment| PathCover::from_assignment(&assignment)),
        proved: !search.aborted || search.best_count == lb,
        nodes: search.nodes,
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenPath {
    head: usize,
    tail: usize,
    id: usize,
}

struct Search<'a> {
    dm: &'a DistanceModel,
    n: usize,
    lb: usize,
    best_count: usize,
    best_assign: Option<Vec<usize>>,
    nodes: u64,
    node_limit: u64,
    /// The dominance memo, when memoizing.
    memo: Option<Memo>,
    /// Per head `h`, the last access after it that closes a wrap onto
    /// it, or 0 when none does (no position after a head is 0).
    last_closer: Vec<usize>,
    /// Per access, the first access at its offset: two open paths are
    /// interchangeable, and two states equal, exactly when their heads
    /// and tails match by offset, so by class.
    class: Vec<u32>,
    /// The open paths of the current node.
    open: Vec<OpenPath>,
    /// The path id of every access placed so far.
    assign: Vec<usize>,
    /// Every node's candidates as `(|delta|, slot)`, stacked: a node
    /// pushes its own above its parent's and pops them before it
    /// returns.
    candidates: Vec<(u64, u32)>,
    aborted: bool,
    proved: bool,
}

/// The memo word of an open path: its head's and tail's classes.
#[inline]
fn signature(class: &[u32], path: OpenPath) -> u64 {
    u64::from(class[path.head]) << 32 | u64::from(class[path.tail])
}

impl Search<'_> {
    /// `true` iff some access at or after `pos`, which lies after
    /// `head`, closes a wrap onto `head`.
    #[inline]
    fn closable_later(&self, head: usize, pos: usize) -> bool {
        self.last_closer[head] >= pos
    }

    fn dfs(&mut self, pos: usize, count: usize) {
        if self.aborted || self.proved {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.aborted = true;
            return;
        }
        if count >= self.best_count {
            return; // incumbent prune: count never decreases
        }
        let dm = self.dm;
        if pos == self.n {
            if self.open.iter().all(|p| dm.free_wrap(p.tail, p.head)) {
                self.best_count = count;
                match &mut self.best_assign {
                    Some(best) => best.copy_from_slice(&self.assign),
                    None => self.best_assign = Some(self.assign.clone()),
                }
                if count == self.lb {
                    self.proved = true;
                }
            }
            return;
        }
        // Closability prune: every open path must either already close or
        // still have a potential closing tail among the remaining accesses.
        for p in &self.open {
            if !dm.free_wrap(p.tail, p.head) && !self.closable_later(p.head, pos) {
                return;
            }
        }
        // Dominance memoization.
        if let Some(memo) = &mut self.memo {
            let class = &self.class;
            let signatures = self.open.iter().map(|&p| signature(class, p));
            if memo.seen(signatures, pos, count) {
                return;
            }
        }

        // Branch 1: append `pos` to a compatible open path (deduplicated
        // by (head offset, tail offset), nearest tail first).
        let start = self.candidates.len();
        for (slot, &p) in self.open.iter().enumerate() {
            if !dm.free_intra(p.tail, pos) {
                continue;
            }
            // After appending, the path must remain closable.
            if !dm.free_wrap(pos, p.head) && !self.closable_later(p.head, pos + 1) {
                continue;
            }
            let sig = signature(&self.class, p);
            let symmetric = self.candidates[start..]
                .iter()
                .any(|&(_, other)| signature(&self.class, self.open[other as usize]) == sig);
            if !symmetric {
                let distance = dm.intra_distance(p.tail, pos).unsigned_abs();
                self.candidates.push((distance, slot as u32));
            }
        }
        // Ties keep slot order, as a stable sort by distance would.
        self.candidates[start..].sort_unstable();
        for at in start..self.candidates.len() {
            let slot = self.candidates[at].1 as usize;
            let saved_tail = self.open[slot].tail;
            let id = self.open[slot].id;
            self.open[slot].tail = pos;
            self.assign[pos] = id;
            self.dfs(pos + 1, count);
            self.open[slot].tail = saved_tail;
            self.assign[pos] = usize::MAX;
            if self.aborted || self.proved {
                break;
            }
        }
        self.candidates.truncate(start);
        if self.aborted || self.proved {
            return;
        }

        // Branch 2: open a new path at `pos` (if a fresh singleton can
        // still close eventually).
        if count + 1 < self.best_count
            && (dm.free_wrap(pos, pos) || self.closable_later(pos, pos + 1))
        {
            self.open.push(OpenPath {
                head: pos,
                tail: pos,
                id: count,
            });
            self.assign[pos] = count;
            self.dfs(pos + 1, count + 1);
            self.open.pop();
            self.assign[pos] = usize::MAX;
        }
    }
}

/// The dominance memo: for every state visited — its memo key — the
/// fewest paths it was reached with. The keys lie end to end in one
/// buffer, indexed by an open-addressing table, so a lookup allocates
/// nothing and an insert allocates only when the memo grows.
#[derive(Debug, Default)]
struct Memo {
    /// The entries by hash; a power of two long, at most half full.
    table: Vec<MemoEntry>,
    entries: usize,
    /// Every entry's key, then the key being looked up.
    words: Vec<u64>,
}

/// One [`Memo`] slot; empty while `len` is 0 (a key holds at least its
/// position).
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    hash: u64,
    /// The key is `words[start..start + len]`.
    start: usize,
    len: usize,
    best: usize,
}

impl Memo {
    /// `true` if the state at `pos` whose open paths have `signatures`
    /// was reached before with at most `count` paths; otherwise records
    /// `count` for it. The key — the signatures sorted, then `pos` — is
    /// built at the end of the key buffer and stays there only when it
    /// is new.
    fn seen(
        &mut self,
        signatures: impl ExactSizeIterator<Item = u64>,
        pos: usize,
        count: usize,
    ) -> bool {
        if 2 * (self.entries + 1) > self.table.len() {
            self.grow(signatures.len() + 1);
        }
        let start = self.words.len();
        self.words.extend(signatures);
        self.words[start..].sort_unstable();
        self.words.push(pos as u64);
        let key = &self.words[start..];
        let hash = hash_words(key);
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let entry = self.table[at];
            if entry.len == 0 {
                break;
            }
            if entry.hash == hash && self.words[entry.start..entry.start + entry.len] == *key {
                self.words.truncate(start);
                if entry.best <= count {
                    return true;
                }
                self.table[at].best = count;
                return false;
            }
            at = (at + 1) & mask;
        }
        self.table[at] = MemoEntry {
            hash,
            start,
            len: self.words.len() - start,
            best: count,
        };
        self.entries += 1;
        false
    }

    /// Doubles the table (64 slots at first) and makes room in the key
    /// buffer for keys up to the table's capacity, each as long as the
    /// longest so far or `key_len`.
    fn grow(&mut self, key_len: usize) {
        let len = (2 * self.table.len()).max(64);
        let mut table = vec![MemoEntry::default(); len];
        let mask = len - 1;
        let mut longest = key_len;
        for entry in self.table.iter().filter(|entry| entry.len > 0) {
            let mut at = entry.hash as usize & mask;
            while table[at].len > 0 {
                at = (at + 1) & mask;
            }
            table[at] = *entry;
            longest = longest.max(entry.len);
        }
        self.table = table;
        self.words.reserve((len / 2 - self.entries + 1) * longest);
    }
}

/// A fast hash of memo key words (multiply-rotate per word, then the
/// high half folded into the low bits the table indexes by).
#[inline]
fn hash_words(words: &[u64]) -> u64 {
    let hash = words.iter().fold(0u64, |hash, &word| {
        (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    hash ^ hash >> 32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::MatchingCover;
    use crate::{bounds, brute};

    /// The search on `dm` within its bounds.
    fn search_with(dm: &DistanceModel, options: BbOptions) -> SearchResult {
        search(dm, bounds::bounds(dm, &MatchingCover::new(dm)), options)
    }

    /// The registers of the cover found with the default options.
    fn registers(dm: &DistanceModel) -> Option<usize> {
        let found = search_with(dm, BbOptions::default());
        assert!(found.proved, "the default budget suffices here");
        found.cover.map(|cover| cover.register_count())
    }

    const NO_NODES: BbOptions = BbOptions {
        node_limit: 0,
        memoize: true,
    };

    #[test]
    fn paper_example_has_three_virtual_registers() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let found = search_with(&dm, BbOptions::default());
        assert!(found.proved);
        let cover = found.cover.expect("feasible");
        assert_eq!(cover.register_count(), 3);
        assert!(cover.is_zero_cost(&dm));
        // a_7 must be a singleton: nothing else closes onto offset -2.
        let a7 = cover.path_of(6).unwrap();
        assert_eq!(a7.len(), 1);
    }

    #[test]
    fn monotone_pattern_closes_with_matching_stride() {
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3], 4, 1);
        let found = search_with(&dm, BbOptions::default());
        assert_eq!(found.cover.map(|cover| cover.register_count()), Some(1));
        assert!(found.proved);
        assert_eq!(found.nodes, 0, "tight bounds skip the search");
    }

    #[test]
    fn infeasible_pattern_reports_no_cover() {
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        assert_eq!(registers(&dm), None);
    }

    #[test]
    fn zero_node_limit_without_heuristic_exhausts() {
        // Heuristic upper bound fails here (see bounds tests), and a zero
        // node budget stops the search immediately.
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        let found = search_with(&dm, NO_NODES);
        assert_eq!(found.cover, None);
        assert!(!found.proved);
    }

    #[test]
    fn node_limit_with_heuristic_returns_heuristic_cover() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let found = search_with(&dm, NO_NODES);
        let cover = found.cover.expect("heuristic incumbent exists");
        assert!(cover.is_zero_cost(&dm));
        assert!(!found.proved, "K̃ = 3 exceeds the lower bound of 2");
    }

    #[test]
    fn memoization_does_not_change_results() {
        for offsets in [
            vec![1, 0, 2, -1, 1, 0, -2],
            vec![0, 2, 4, 1, 3, 5],
            vec![5, 5, 5, 5],
            vec![0, -1, -2, -3, 7],
        ] {
            let dm = DistanceModel::from_offsets(&offsets, 1, 1);
            let [with, without] = [true, false].map(|memoize| {
                let found = search_with(
                    &dm,
                    BbOptions {
                        memoize,
                        ..BbOptions::default()
                    },
                );
                (
                    found.proved,
                    found.cover.map(|cover| cover.register_count()),
                )
            });
            assert_eq!(with, without, "{offsets:?}");
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_patterns() {
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for _ in 0..60 {
            let n = 1 + (next().unsigned_abs() as usize % 7);
            let m = (next().unsigned_abs() % 2) as u32 + 1;
            let stride = [1i64, 1, 2, -1][(next().unsigned_abs() % 4) as usize];
            let offsets: Vec<i64> = (0..n).map(|_| next().rem_euclid(9) - 4).collect();
            let dm = DistanceModel::from_offsets(&offsets, stride, m);
            let brute = brute::min_zero_cost_cover_brute(&dm);
            assert_eq!(
                registers(&dm),
                brute.map(|cover| cover.register_count()),
                "offsets {offsets:?} stride {stride} m {m}"
            );
        }
    }

    #[test]
    fn repeated_offsets_collapse_into_one_register() {
        let dm = DistanceModel::from_offsets(&[3, 3, 3, 3, 3], 1, 1);
        assert_eq!(registers(&dm), Some(1));
    }

    #[test]
    fn single_access_patterns() {
        let dm = DistanceModel::from_offsets(&[7], 1, 1);
        assert_eq!(registers(&dm), Some(1));
        let dm = DistanceModel::from_offsets(&[7], 9, 1);
        assert_eq!(registers(&dm), None);
    }
}
