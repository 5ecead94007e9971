//! Pattern canonicalization.
//!
//! The allocation algorithms consume an [`AccessPattern`] only through
//! its [`DistanceModel`](crate::AccessPattern) — pairwise offset
//! *differences* plus the effective stride — so two patterns whose
//! offsets differ by a constant shift are the **same** allocation
//! problem: same Phase-1 search tree, same merge costs, same final
//! cover, even the same per-step deltas in generated address code.
//! Batch workloads (many loops, many kernels) are full of such
//! repetition: every `x[i] … x[i-1] … x[i-2]` FIR tap chain looks like
//! every other one, regardless of where in the loop body it appears.
//!
//! This module gives that equivalence a canonical representative so a
//! compilation driver can memoize allocations instead of re-running
//! branch-and-bound:
//!
//! * [`CanonicalPattern`] — offsets shifted so the first access sits at
//!   zero. Patterns with equal canonical forms have **identical**
//!   distance models; a cached allocation (cover, costs *and* concrete
//!   update deltas) is bit-for-bit reusable.
//! * [`CanonicalPattern::cost_class`] — additionally normalizes the
//!   global sign (a pattern and its mirror image have equal allocation
//!   *costs*, though mirrored update deltas). Useful for cost-curve
//!   caches and workload analytics, **not** for reusing generated code.
//!
//! Both are plain data, the same in every process: the driver's cache
//! hashes them with a per-map random hasher, and snapshots store them
//! in full.
//!
//! ## Nest-awareness
//!
//! Flattened loop nests (see [`LoopNest`](crate::model::LoopNest))
//! deliberately canonicalize **without** their nest metadata: the
//! allocation algorithms consume only the steady-state offset sequence
//! and stride, and the outer-loop carries are realized later, per loop,
//! as codegen-time carry blocks derived from the spec — never cached.
//! A 1D pattern and a flattened-2D pattern with identical deltas are
//! therefore the *same* allocation problem and soundly share one cache
//! entry (same cost curve, same cover, same update deltas), even though
//! their generated programs differ in their carry blocks.
//!
//! ```
//! use raco_ir::canonical::CanonicalPattern;
//! use raco_ir::AccessPattern;
//!
//! // The same FIR tap chain at two different base offsets …
//! let a = AccessPattern::from_offsets(&[0, -1, -2], 1);
//! let b = AccessPattern::from_offsets(&[5, 4, 3], 1);
//! // … canonicalize identically:
//! assert_eq!(CanonicalPattern::of(&a), CanonicalPattern::of(&b));
//! assert_eq!(CanonicalPattern::of(&b).offsets(), &[0, -1, -2]);
//! ```

use std::fmt;

use crate::model::AccessPattern;

/// The shift-normalized form of an access pattern.
///
/// Two patterns compare equal here iff their distance models are
/// identical — the strongest equivalence a cache can exploit without
/// re-deriving anything. See the [module docs](self) for the weaker
/// sign-normalized *cost class*.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalPattern {
    offsets: Vec<i64>,
    stride: i64,
}

impl CanonicalPattern {
    /// Canonicalizes `pattern`: shifts every offset so the first access
    /// is at zero. Offsets are shifted in `i128` and clamped, matching
    /// the distance model's own overflow policy on adversarial inputs.
    pub fn of(pattern: &AccessPattern) -> Self {
        Self::from_offsets(&pattern.offsets(), pattern.stride())
    }

    /// Canonicalizes a raw offset list (algorithm-only entry point).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty — empty patterns cannot be built
    /// through the public [`AccessPattern`] constructors either.
    pub fn from_offsets(offsets: &[i64], stride: i64) -> Self {
        assert!(!offsets.is_empty(), "cannot canonicalize an empty pattern");
        let base = i128::from(offsets[0]);
        let offsets = offsets
            .iter()
            .map(|&o| clamp_i128(i128::from(o) - base))
            .collect();
        CanonicalPattern { offsets, stride }
    }

    /// The canonical offsets; the first element is always zero.
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Effective per-iteration stride (unchanged by canonicalization).
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` if the pattern has no accesses (never the case for values
    /// built through the public constructors).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The mirror image: every offset and the stride negated, then
    /// re-normalized. Mirroring preserves allocation **cost** (every
    /// distance flips sign, and freeness only depends on `|d| <= M`)
    /// but not generated update deltas.
    pub fn mirror(&self) -> Self {
        let neg: Vec<i64> = self
            .offsets
            .iter()
            .map(|&o| clamp_i128(-i128::from(o)))
            .collect();
        let mirrored = Self::from_offsets(&neg, self.stride.checked_neg().unwrap_or(i64::MAX));
        // Negating a canonical list keeps the first offset at 0, so
        // from_offsets' re-normalization is a no-op.
        debug_assert_eq!(mirrored.offsets.first(), Some(&0));
        mirrored
    }

    /// The cost-equivalence representative: the lexicographically
    /// smaller of `self` and its [`mirror`](Self::mirror). Patterns
    /// with equal cost classes have equal allocation costs for every
    /// `K` and `M` (the driver's cost-curve cache keys on this).
    pub fn cost_class(&self) -> Self {
        let mirrored = self.mirror();
        if mirrored < *self {
            mirrored
        } else {
            self.clone()
        }
    }
}

impl fmt::Display for CanonicalPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "canonical[stride {}; ", self.stride)?;
        for (i, o) in self.offsets.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{o}")?;
        }
        f.write_str("]")
    }
}

fn clamp_i128(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_patterns_share_a_canonical_form() {
        let a = CanonicalPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1);
        let b = CanonicalPattern::from_offsets(&[4, 3, 5, 2, 4, 3, 1], 1);
        assert_eq!(a, b);
        assert_eq!(a.offsets()[0], 0);
    }

    #[test]
    fn different_strides_do_not_collide() {
        let a = CanonicalPattern::from_offsets(&[0, 1], 1);
        let b = CanonicalPattern::from_offsets(&[0, 1], 2);
        assert_ne!(a, b);
    }

    #[test]
    fn mirror_is_an_involution_on_the_canonical_form() {
        let a = CanonicalPattern::from_offsets(&[0, 3, -2, 1], 2);
        assert_eq!(a.mirror().mirror(), a);
        assert_eq!(a.mirror().stride(), -2);
        assert_eq!(a.mirror().offsets()[0], 0);
    }

    #[test]
    fn cost_class_identifies_mirrored_patterns() {
        let fwd = CanonicalPattern::from_offsets(&[0, -1, -2, -3], 1);
        let bwd = CanonicalPattern::from_offsets(&[3, 4, 5, 6], -1)
            .mirror()
            .mirror();
        // fwd and the mirror of bwd describe mirrored chains.
        assert_eq!(fwd.cost_class(), bwd.mirror().cost_class());
    }

    #[test]
    fn of_matches_from_offsets() {
        let p = AccessPattern::from_offsets(&[7, 5, 9], 3);
        assert_eq!(
            CanonicalPattern::of(&p),
            CanonicalPattern::from_offsets(&[7, 5, 9], 3)
        );
        assert_eq!(CanonicalPattern::of(&p).offsets(), &[0, -2, 2]);
        assert_eq!(CanonicalPattern::of(&p).stride(), 3);
        assert_eq!(CanonicalPattern::of(&p).len(), 3);
        assert!(!CanonicalPattern::of(&p).is_empty());
    }

    #[test]
    fn flattened_nests_share_keys_with_equivalent_single_loops() {
        // A contiguous 2D sweep and a plain 1D sweep with the same
        // deltas are one allocation problem — the nest metadata (and its
        // carries) live outside the canonical key by design.
        let nested = crate::dsl::parse_loop(
            "array g[6][8];
             for (i = 1; i < 5; i++) { for (j = 0; j < 8; j++) { s += g[i][j] + g[i + 1][j]; } }",
        )
        .unwrap();
        let flat =
            crate::dsl::parse_loop("for (t = 9; t < 800; t++) { s += g[t] + g[t + 8]; }").unwrap();
        assert!(nested.nest().is_some() && flat.nest().is_none());
        let a = CanonicalPattern::of(&nested.patterns()[0]);
        let b = CanonicalPattern::of(&flat.patterns()[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_compact() {
        let c = CanonicalPattern::from_offsets(&[2, 3], 1);
        assert_eq!(c.to_string(), "canonical[stride 1; 0, 1]");
    }

    #[test]
    fn extreme_offsets_clamp_instead_of_overflowing() {
        let c = CanonicalPattern::from_offsets(&[i64::MAX, i64::MIN], 1);
        assert_eq!(c.offsets()[0], 0);
        assert_eq!(c.offsets()[1], i64::MIN);
        let m = CanonicalPattern::from_offsets(&[0, 5], i64::MIN).mirror();
        assert_eq!(m.stride(), i64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty pattern")]
    fn empty_patterns_are_rejected() {
        let _ = CanonicalPattern::from_offsets(&[], 1);
    }
}
