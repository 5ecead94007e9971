//! Reference address traces.
//!
//! A trace is the ground truth of what addresses a loop touches, iteration
//! by iteration, under a concrete [`MemoryLayout`]. The AGU simulator in
//! `raco-agu` executes generated address code and checks it against a
//! trace; mismatches indicate a codegen or allocation bug. A trace is the
//! loop's address formula, not a list of addresses: each entry is computed
//! when asked for, so a trace's memory does not depend on its iteration
//! count.

use std::fmt;

use crate::model::{AccessKind, ArrayId, LoopSpec};

/// Assigns base addresses to the arrays of a loop.
///
/// Addresses are abstract word addresses (element size is one word, the
/// common case on fixed-point DSPs); they may be negative during analysis,
/// which is harmless because only address *differences* matter to the cost
/// model.
///
/// # Examples
///
/// ```
/// use raco_ir::{dsl, MemoryLayout};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = dsl::parse_loop("for (i = 0; i < 8; i++) { y[i] = x[i+1]; }")?;
/// let layout = MemoryLayout::contiguous(&spec, 0x100, 64);
/// // `x` is registered first: right-hand-side reads lower before writes.
/// let x = spec.array_id("x").unwrap();
/// let y = spec.array_id("y").unwrap();
/// assert_eq!(layout.base(x), Some(0x100));
/// assert_eq!(layout.base(y), Some(0x100 + 64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLayout {
    bases: Vec<i64>,
}

impl MemoryLayout {
    /// Lays the loop's arrays out contiguously starting at `origin`, each
    /// `array_words` words long, in [`ArrayId`] order.
    pub fn contiguous(spec: &LoopSpec, origin: i64, array_words: i64) -> Self {
        let bases = (0..spec.arrays().len() as i64)
            .map(|i| origin + i * array_words)
            .collect();
        MemoryLayout { bases }
    }

    /// Builds a layout from explicit per-array base addresses (indexed by
    /// [`ArrayId::index`]).
    pub fn from_bases(bases: Vec<i64>) -> Self {
        MemoryLayout { bases }
    }

    /// Base address of `array`, or `None` if the layout does not cover it.
    pub fn base(&self, array: ArrayId) -> Option<i64> {
        self.bases.get(array.index()).copied()
    }

    /// Number of arrays covered.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// `true` if no array has a base address.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }
}

/// One executed access in a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Iteration number, starting at zero.
    pub iteration: u64,
    /// Position of the access in the loop's per-iteration sequence.
    pub position: usize,
    /// Array accessed.
    pub array: ArrayId,
    /// Effective word address.
    pub address: i64,
    /// Read or write.
    pub kind: AccessKind,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "it {:>3} pos {:>2}: {} {} @ {:#06x}",
            self.iteration, self.position, self.kind, self.array, self.address
        )
    }
}

/// The addresses a loop touches over a number of iterations, held as the
/// loop's address formula rather than as a list: its size depends on the
/// number of accesses and nest levels only, never on `iterations`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Per access: its iteration-0 entry, its per-iteration advance
    /// (`coefficient * stride`) and its array's carry per outer level.
    accesses: Vec<(TraceEntry, i64, Vec<i64>)>,
    /// Flattened iterations per advance of each outer nest level (empty
    /// for a plain single loop).
    periods: Vec<u64>,
    /// The captured iteration count, clamped to a nest's total.
    iterations: u64,
}

impl Trace {
    /// Records the reference trace of `spec` under `layout` for
    /// `iterations` iterations, beginning at the loop's
    /// [`start`](LoopSpec::start) value.
    ///
    /// The address of access `array[c*i + d]` in iteration `t` is
    /// `base(array) + c * (start + t * stride) + d`. For specs flattened
    /// from a loop nest ([`LoopSpec::nest`]), each array additionally
    /// accumulates its per-level carry every time an outer level advances
    /// — the trace is then exactly what direct interpretation of the nest
    /// would produce. Nested specs are finite, so `iterations` is clamped
    /// to the nest's total iteration count.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not cover an accessed array.
    pub fn capture(spec: &LoopSpec, layout: &MemoryLayout, iterations: u64) -> Self {
        let (periods, iterations) = match spec.nest() {
            Some(nest) => (nest.periods(), iterations.min(nest.total_iterations())),
            None => (Vec::new(), iterations),
        };
        let accesses = spec
            .accesses()
            .iter()
            .enumerate()
            .map(|(position, acc)| {
                let info = spec
                    .array_info(acc.array)
                    .expect("validated spec has known arrays");
                let base = layout
                    .base(acc.array)
                    .expect("layout must cover every accessed array");
                let first = TraceEntry {
                    iteration: 0,
                    position,
                    array: acc.array,
                    address: base + info.coefficient() * spec.start() + acc.offset,
                    kind: acc.kind,
                };
                let advance = info.coefficient() * spec.stride();
                (first, advance, info.carries().to_vec())
            })
            .collect();
        Trace {
            accesses,
            periods,
            iterations,
        }
    }

    /// All entries, iteration-major then position order.
    pub fn entries(&self) -> impl Iterator<Item = TraceEntry> + '_ {
        (0..self.iterations).flat_map(move |t| {
            (0..self.accesses.len()).filter_map(move |position| self.entry(t, position))
        })
    }

    /// Number of accesses per loop iteration.
    pub fn accesses_per_iteration(&self) -> usize {
        self.accesses.len()
    }

    /// Number of captured iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The entry for `(iteration, position)`, if captured.
    pub fn entry(&self, iteration: u64, position: usize) -> Option<TraceEntry> {
        let (first, advance, carries) = self.accesses.get(position)?;
        if iteration >= self.iterations {
            return None;
        }
        // Accumulated outer-loop carry: level k has advanced
        // t / periods[k] times by flattened iteration t.
        let carry: i64 = carries
            .iter()
            .zip(&self.periods)
            .map(|(&c, &p)| c * (iteration / p) as i64)
            .sum();
        Some(TraceEntry {
            iteration,
            address: first.address + advance * iteration as i64 + carry,
            ..*first
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_loop;

    fn spec() -> LoopSpec {
        parse_loop("for (i = 2; i <= 100; i++) { y[i] = x[i+1] - x[i-1]; }").unwrap()
    }

    #[test]
    fn contiguous_layout_spaces_arrays() {
        let spec = spec();
        let layout = MemoryLayout::contiguous(&spec, 10, 100);
        let x = spec.array_id("x").unwrap();
        let y = spec.array_id("y").unwrap();
        assert_eq!(layout.base(x), Some(10));
        assert_eq!(layout.base(y), Some(110));
        assert_eq!(layout.len(), 2);
        assert!(!layout.is_empty());
        assert_eq!(layout.base(ArrayId::from_index(7)), None);
    }

    #[test]
    fn trace_addresses_follow_the_loop_variable() {
        let spec = spec();
        let layout = MemoryLayout::contiguous(&spec, 0, 1000);
        let trace = Trace::capture(&spec, &layout, 3);
        assert_eq!(trace.iterations(), 3);
        assert_eq!(trace.accesses_per_iteration(), 3);
        // iteration 0, i = 2: x[3], x[1], y[2] with x at 0, y at 1000
        let addrs: Vec<i64> = trace.entries().take(3).map(|e| e.address).collect();
        assert_eq!(addrs, vec![3, 1, 1002]);
        // iteration 2, i = 4: x[5], x[3], y[4]
        let addrs: Vec<i64> = trace.entries().skip(6).map(|e| e.address).collect();
        assert_eq!(addrs, vec![5, 3, 1004]);
    }

    #[test]
    fn entry_lookup_by_iteration_and_position() {
        let spec = spec();
        let layout = MemoryLayout::contiguous(&spec, 0, 1000);
        let trace = Trace::capture(&spec, &layout, 2);
        assert_eq!(trace.entry(1, 0).unwrap().address, 4); // i = 3, x[i+1]
        assert_eq!(trace.entry(1, 5), None);
        assert_eq!(trace.entry(9, 0), None);
    }

    #[test]
    fn negative_stride_and_coefficient() {
        let spec = parse_loop("for (i = 7; i > 0; i--) { s += h[7 - i]; }").unwrap();
        let layout = MemoryLayout::contiguous(&spec, 100, 8);
        let trace = Trace::capture(&spec, &layout, 3);
        // i = 7, 6, 5 → h[0], h[1], h[2]
        let addrs: Vec<i64> = trace.entries().map(|e| e.address).collect();
        assert_eq!(addrs, vec![100, 101, 102]);
    }

    #[test]
    fn kinds_and_display_are_preserved() {
        let spec = spec();
        let layout = MemoryLayout::contiguous(&spec, 0, 1000);
        let trace = Trace::capture(&spec, &layout, 1);
        assert_eq!(trace.entries().next().unwrap().kind, AccessKind::Read);
        assert_eq!(trace.entries().nth(2).unwrap().kind, AccessKind::Write);
        let line = trace.entries().nth(2).unwrap().to_string();
        assert!(line.contains("write"), "display was `{line}`");
    }

    #[test]
    fn nested_specs_apply_outer_carries_at_row_boundaries() {
        use crate::model::{AccessKind, LoopNest, NestLevel};
        // Hand-built flattening of
        //   for (r = 0; r < 3; r++) for (j = 0; j < 4; j++) y[r][j] = …
        // with row stride 10: coefficient 1 in j, carry 10 - 4 = 6.
        let mut spec = LoopSpec::new("nested", "j", 1);
        let y = spec.add_array("y", 1);
        spec.push_access(y, 0, AccessKind::Write).unwrap();
        spec.set_nest(LoopNest::new(
            vec![NestLevel {
                var: "r".into(),
                start: 0,
                stride: 1,
                trips: 3,
            }],
            4,
        ));
        spec.set_array_carries(y, vec![6]).unwrap();
        let layout = MemoryLayout::from_bases(vec![100]);
        // Requesting more than 3*4 iterations clamps to the nest total.
        let trace = Trace::capture(&spec, &layout, 99);
        assert_eq!(trace.iterations(), 12);
        let addrs: Vec<i64> = trace.entries().map(|e| e.address).collect();
        assert_eq!(
            addrs,
            vec![100, 101, 102, 103, 110, 111, 112, 113, 120, 121, 122, 123],
            "rows of four, then a jump of 10 to the next row"
        );
    }

    #[test]
    fn huge_iteration_counts_are_computed_not_stored() {
        // `y[i] = x[i+1] - x[i-1]` from i = 2, stride 1: 2^40 iterations
        // would be 3 * 2^40 stored entries; the formula needs none.
        let spec = spec();
        let layout = MemoryLayout::contiguous(&spec, 0, 1000);
        let iterations = 1u64 << 40;
        let trace = Trace::capture(&spec, &layout, iterations);
        assert_eq!(trace.iterations(), iterations);
        let t = iterations - 1;
        for (p, acc) in spec.accesses().iter().enumerate() {
            let info = spec.array_info(acc.array).unwrap();
            let base = layout.base(acc.array).unwrap();
            let i = spec.start() + t as i64 * spec.stride();
            let entry = trace.entry(t, p).unwrap();
            assert_eq!(entry.address, base + info.coefficient() * i + acc.offset);
            assert_eq!((entry.iteration, entry.position), (t, p));
        }
        assert_eq!(trace.entry(iterations, 0), None);
        assert_eq!(trace.entry(t, spec.len()), None);
    }

    #[test]
    fn zero_iterations_is_empty() {
        let spec = spec();
        let layout = MemoryLayout::contiguous(&spec, 0, 1000);
        let trace = Trace::capture(&spec, &layout, 0);
        assert!(trace.entries().next().is_none());
        assert_eq!(trace.iterations(), 0);
    }
}
