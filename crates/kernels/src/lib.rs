//! # raco-kernels — a DSPstone-style kernel suite
//!
//! The paper's Results section refers to "realistic DSP programs"; the
//! proprietary benchmark set of its ref \[1\] is not public, so this crate
//! provides the standard substitution: a suite of classic DSP kernels (in
//! the spirit of DSPstone) written in the `raco-ir` DSL. Each kernel
//! carries the per-iteration *compute* instruction count (derived from
//! its own parsed loop) so that experiments can report whole-loop code-size and
//! cycle improvements, not just addressing overhead.
//!
//! [`suite()`] is built once per process: the first call parses and
//! lowers every kernel, and later calls return the same `&'static`
//! slice.
//!
//! ## Example
//!
//! ```
//! let suite = raco_kernels::suite();
//! assert!(suite.len() >= 12);
//! let fir = raco_kernels::fir(4);
//! assert_eq!(fir.spec().patterns().len(), 2); // x and y
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::OnceLock;

use raco_ir::dsl::{self, Expr, ExprId, ForLoop, Unit};
use raco_ir::LoopSpec;

/// One benchmark kernel: DSL source, parsed loop and compute metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    name: String,
    description: String,
    source: String,
    spec: LoopSpec,
    compute_ops: u64,
}

impl Kernel {
    /// Builds a kernel from DSL source: optional `array` declarations
    /// followed by exactly one loop (possibly a perfect nest).
    ///
    /// # Panics
    ///
    /// Panics if `source` is not valid DSL or contains more than one
    /// loop — kernels are compiled-in constants, so a parse failure is a
    /// bug in this crate.
    pub fn from_source(name: &str, description: &str, source: &str) -> Self {
        let (unit, loops) = dsl::parse_unit(source)
            .unwrap_or_else(|e| panic!("kernel `{name}` does not parse: {e}"));
        assert!(
            loops.len() == 1,
            "kernel `{name}` must contain exactly one loop, found {}",
            loops.len()
        );
        let ast = &loops[0];
        let spec = dsl::lower_unit_loop(&unit, ast)
            .unwrap_or_else(|e| panic!("kernel `{name}` does not lower: {e}"));
        let compute_ops = count_compute_ops(&unit, ast);
        Kernel {
            name: name.to_owned(),
            description: description.to_owned(),
            source: source.to_owned(),
            spec,
            compute_ops,
        }
    }

    /// Kernel name (table label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The DSL source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The lowered loop.
    pub fn spec(&self) -> &LoopSpec {
        &self.spec
    }

    /// Data-path (compute) instructions per iteration, estimated as the
    /// number of arithmetic operators in the loop body — every `*`, `/`,
    /// `+`, `-` and unary negation maps to one DSP data-path instruction.
    pub fn compute_ops(&self) -> u64 {
        self.compute_ops
    }

    /// Memory accesses per iteration.
    pub fn accesses(&self) -> usize {
        self.spec.len()
    }
}

/// Counts arithmetic operators in the (innermost) loop body — compute
/// instructions per innermost iteration. Compound assignments contribute
/// their implicit operator.
fn count_compute_ops(unit: &Unit<'_>, ast: &ForLoop) -> u64 {
    fn expr_ops(unit: &Unit<'_>, e: ExprId) -> u64 {
        match unit.expr(e) {
            Expr::Num(_) | Expr::Var(_) => 0,
            Expr::Index { .. } => 0, // address arithmetic is the AGU's job
            Expr::Neg(inner) => 1 + expr_ops(unit, inner),
            Expr::Chain { first, rest, .. } => rest
                .iter()
                .fold(expr_ops(unit, first), |ops, &e| ops + 1 + expr_ops(unit, e)),
        }
    }
    unit.body(ast)
        .iter()
        .map(|stmt| {
            let implicit = u64::from(stmt.op.reads_lhs());
            // A statement without arithmetic is still one data-path
            // instruction (a move).
            (implicit + expr_ops(unit, stmt.rhs)).max(1)
        })
        .sum()
}

/// An `n`-tap FIR filter, unrolled over taps (DSPstone `fir`):
/// `y[i] = h0*x[i] + h1*x[i-1] + …`.
///
/// # Panics
///
/// Panics if `taps == 0`.
pub fn fir(taps: usize) -> Kernel {
    assert!(taps > 0, "a FIR filter needs at least one tap");
    let terms: Vec<String> = (0..taps)
        .map(|j| {
            if j == 0 {
                "h0 * x[i]".to_owned()
            } else {
                format!("h{j} * x[i - {j}]")
            }
        })
        .collect();
    let source = format!(
        "for (i = {taps}; i < 256; i++) {{\n    y[i] = {};\n}}",
        terms.join(" + ")
    );
    Kernel::from_source(
        &format!("fir_{taps}"),
        &format!("{taps}-tap FIR filter, taps in data registers"),
        &source,
    )
}

/// One biquad IIR section in direct form II (DSPstone
/// `biquad_one_section`).
pub fn biquad() -> Kernel {
    Kernel::from_source(
        "biquad",
        "second-order IIR section, direct form II",
        "for (i = 2; i < 256; i++) {
            w[i] = x[i] - a1 * w[i - 1] - a2 * w[i - 2];
            y[i] = b0 * w[i] + b1 * w[i - 1] + b2 * w[i - 2];
        }",
    )
}

/// Convolution against a time-reversed 16-tap kernel: `h[15 - i]`.
pub fn convolution() -> Kernel {
    Kernel::from_source(
        "convolution",
        "16-point convolution with a time-reversed coefficient array",
        "for (i = 0; i < 16; i++) {
            acc += x[i] * h[15 - i];
        }",
    )
}

/// Cross-correlation at lag 3.
pub fn correlation() -> Kernel {
    Kernel::from_source(
        "correlation",
        "cross-correlation of two sequences at lag 3",
        "for (i = 0; i < 253; i++) {
            r += x[i] * y[i + 3];
        }",
    )
}

/// Plain dot product (DSPstone `dot_product`).
pub fn dot_product() -> Kernel {
    Kernel::from_source(
        "dot_product",
        "inner product of two vectors",
        "for (i = 0; i < 256; i++) {
            acc += x[i] * y[i];
        }",
    )
}

/// Element-wise vector addition.
pub fn vector_add() -> Kernel {
    Kernel::from_source(
        "vector_add",
        "element-wise vector addition",
        "for (i = 0; i < 256; i++) {
            z[i] = x[i] + y[i];
        }",
    )
}

/// DSPstone `n_real_updates`: `d[i] = c[i] + a[i] * b[i]`.
pub fn n_real_updates() -> Kernel {
    Kernel::from_source(
        "n_real_updates",
        "N real multiply-accumulate updates over four arrays",
        "for (i = 0; i < 256; i++) {
            d[i] = c[i] + a[i] * b[i];
        }",
    )
}

/// DSPstone `n_complex_updates` with interleaved re/im storage
/// (coefficient-2 index expressions).
pub fn n_complex_updates() -> Kernel {
    Kernel::from_source(
        "n_complex_updates",
        "N complex multiply-accumulate updates, interleaved re/im",
        "for (i = 0; i < 128; i++) {
            d[2*i]     = c[2*i]     + a[2*i] * b[2*i]     - a[2*i+1] * b[2*i+1];
            d[2*i + 1] = c[2*i + 1] + a[2*i] * b[2*i + 1] + a[2*i+1] * b[2*i];
        }",
    )
}

/// Matrix-multiply inner loop: row of `a` (stride 1) against a column of
/// `b` (stride `dim` — the matrix dimension), a classic large-stride
/// stress case for `M = 1` machines.
///
/// # Panics
///
/// Panics if `dim == 0`.
pub fn matmul_inner(dim: usize) -> Kernel {
    assert!(dim > 0, "matrix dimension must be positive");
    let source = format!("for (i = 0; i < {dim}; i++) {{\n    acc += a[i] * b[{dim} * i];\n}}");
    Kernel::from_source(
        &format!("matmul_inner_{dim}"),
        &format!("matrix-multiply inner loop, {dim}x{dim} column access"),
        &source,
    )
}

/// LMS adaptive filter update (one tap per iteration, DSPstone `lms`).
pub fn lms() -> Kernel {
    Kernel::from_source(
        "lms",
        "LMS adaptive filter: coefficient update plus convolution tap",
        "for (i = 0; i < 32; i++) {
            h[i] = h[i] + mu_e * x[i];
            acc  = acc + h[i] * x[i + 1];
        }",
    )
}

/// One stage of a lattice synthesis filter per iteration.
pub fn lattice() -> Kernel {
    Kernel::from_source(
        "lattice",
        "lattice filter stage: forward/backward residual update",
        "for (i = 1; i < 32; i++) {
            f[i] = f[i - 1] - k1 * g[i - 1];
            g[i] = g[i - 1] - k1 * f[i];
        }",
    )
}

/// Radix-2 FFT butterfly pass over interleaved complex data.
pub fn fft_butterfly() -> Kernel {
    Kernel::from_source(
        "fft_butterfly",
        "radix-2 FFT butterflies, interleaved complex, twiddles in registers",
        "for (i = 0; i < 64; i++) {
            tr = xr[2*i] - xr[2*i + 1] * wr;
            ti = xi[2*i] - xi[2*i + 1] * wi;
            xr[2*i]     = xr[2*i] + xr[2*i + 1] * wr;
            xi[2*i]     = xi[2*i] + xi[2*i + 1] * wi;
            xr[2*i + 1] = tr;
            xi[2*i + 1] = ti;
        }",
    )
}

/// First-order IIR in direct form I.
pub fn iir_df1() -> Kernel {
    Kernel::from_source(
        "iir_df1",
        "first-order IIR, direct form I",
        "for (i = 1; i < 256; i++) {
            y[i] = b0 * x[i] + b1 * x[i - 1] - a1 * y[i - 1];
        }",
    )
}

/// Decimation by two (coefficient-2 reads, stride-1 writes).
pub fn decimator() -> Kernel {
    Kernel::from_source(
        "decimator",
        "decimate-by-two: y[i] = (x[2i] + x[2i+1]) / 2",
        "for (i = 0; i < 128; i++) {
            y[i] = (x[2*i] + x[2*i + 1]) / 2;
        }",
    )
}

/// 3×3 2D convolution over a 16-wide image, taps in data registers.
///
/// The nest sweeps full rows, so flattening is exact (zero carries): the
/// image reads form three row-chains at offsets `{0,1,2}`, `{16,17,18}`
/// and `{32,33,34}` — a genuinely two-dimensional access pattern.
pub fn conv2d() -> Kernel {
    Kernel::from_source(
        "conv2d",
        "3x3 convolution over a 16-wide image, row-major, taps in registers",
        "array img[18][16];
        array out[16][16];
        for (i = 0; i < 16; i++) {
            for (j = 0; j < 16; j++) {
                out[i][j] = w00 * img[i][j]     + w01 * img[i][j + 1]     + w02 * img[i][j + 2]
                          + w10 * img[i + 1][j] + w11 * img[i + 1][j + 1] + w12 * img[i + 1][j + 2]
                          + w20 * img[i + 2][j] + w21 * img[i + 2][j + 1] + w22 * img[i + 2][j + 2];
            }
        }",
    )
}

/// 16×16 matrix transpose: the write side walks a column (stride 16)
/// and carries back 255 words at every row boundary — the flattened
/// nest's carry mechanism at work.
pub fn transpose() -> Kernel {
    Kernel::from_source(
        "transpose",
        "16x16 matrix transpose, column-strided writes with row-boundary carry",
        "array src[16][16];
        array dst[16][16];
        for (i = 0; i < 16; i++) {
            for (j = 0; j < 16; j++) {
                dst[j][i] = src[i][j];
            }
        }",
    )
}

/// Five-point stencil over the interior of an 18×16 grid. The inner
/// loop covers 14 of 16 columns, so both arrays carry 2 words per row.
pub fn stencil5() -> Kernel {
    Kernel::from_source(
        "stencil5",
        "5-point stencil on an 18x16 grid interior, carry 2 per row",
        "array u[18][16];
        array v[18][16];
        for (i = 1; i < 17; i++) {
            for (j = 1; j < 15; j++) {
                v[i][j] = u[i][j - 1] + u[i][j + 1] + u[i - 1][j] + u[i + 1][j] - c4 * u[i][j];
            }
        }",
    )
}

/// The paper's running example (Section 2, Figure 1) as a kernel.
pub fn paper_example() -> Kernel {
    Kernel::from_source(
        "paper_example",
        "the DATE 1998 running example: offsets 1, 0, 2, -1, 1, 0, -2",
        raco_ir::examples::PAPER_LOOP_SOURCE,
    )
}

/// The full suite as one multi-loop DSL program — a realistic batch
/// workload for the compilation pipeline (each loop is an independent
/// allocation problem, exactly like kernels pasted back to back in a
/// real DSP source file).
///
/// `array` declarations scope over a whole unit, so kernels use
/// suite-unique names for their multi-dimensional arrays.
///
/// ```
/// let source = raco_kernels::suite_program();
/// let loops = raco_ir::dsl::parse_program(&source).unwrap();
/// assert_eq!(loops.len(), raco_kernels::suite().len());
/// ```
pub fn suite_program() -> String {
    let mut source = String::new();
    for kernel in suite() {
        source.push_str("// ");
        source.push_str(kernel.name());
        source.push_str(": ");
        source.push_str(kernel.description());
        source.push('\n');
        source.push_str(kernel.source());
        source.push('\n');
    }
    source
}

/// The full default suite, FIR variants included.
///
/// Built once per process, on first use: every later call returns the
/// same slice without lexing, parsing or lowering any kernel again.
pub fn suite() -> &'static [Kernel] {
    static SUITE: OnceLock<Vec<Kernel>> = OnceLock::new();
    SUITE.get_or_init(|| {
        vec![
            fir(4),
            fir(8),
            biquad(),
            convolution(),
            correlation(),
            dot_product(),
            vector_add(),
            n_real_updates(),
            n_complex_updates(),
            matmul_inner(8),
            lms(),
            lattice(),
            fft_butterfly(),
            iir_df1(),
            decimator(),
            conv2d(),
            transpose(),
            stencil5(),
            paper_example(),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_parse_and_have_accesses() {
        for k in suite() {
            assert!(!k.name().is_empty());
            assert!(!k.description().is_empty());
            assert!(k.accesses() > 0, "{} has no accesses", k.name());
            assert!(k.compute_ops() > 0, "{} has no compute", k.name());
            assert!(k.spec().validate().is_ok(), "{} invalid", k.name());
        }
    }

    #[test]
    fn suite_is_built_once() {
        assert!(std::ptr::eq(suite(), suite()));
    }

    #[test]
    fn suite_names_are_unique() {
        let mut names: Vec<String> = suite().iter().map(|k| k.name().to_owned()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), suite().len());
    }

    #[test]
    fn fir_access_pattern_matches_tap_count() {
        let k = fir(4);
        let x = k
            .spec()
            .pattern_for(k.spec().array_id("x").unwrap())
            .unwrap();
        assert_eq!(x.offsets(), vec![0, -1, -2, -3]);
        let y = k
            .spec()
            .pattern_for(k.spec().array_id("y").unwrap())
            .unwrap();
        assert_eq!(y.offsets(), vec![0]);
        // 4 multiplies + 3 adds.
        assert_eq!(k.compute_ops(), 7);
    }

    #[test]
    fn biquad_touches_w_five_times() {
        let k = biquad();
        let w = k
            .spec()
            .pattern_for(k.spec().array_id("w").unwrap())
            .unwrap();
        // reads w[i-1], w[i-2], write w[i], reads w[i], w[i-1], w[i-2].
        assert_eq!(w.offsets(), vec![-1, -2, 0, 0, -1, -2]);
    }

    #[test]
    fn convolution_uses_negative_coefficient() {
        let k = convolution();
        let h = k
            .spec()
            .pattern_for(k.spec().array_id("h").unwrap())
            .unwrap();
        assert_eq!(h.stride(), -1);
        assert_eq!(h.offsets(), vec![15]);
    }

    #[test]
    fn matmul_column_has_large_stride() {
        let k = matmul_inner(8);
        let b = k
            .spec()
            .pattern_for(k.spec().array_id("b").unwrap())
            .unwrap();
        assert_eq!(b.stride(), 8);
    }

    #[test]
    fn complex_updates_interleave_with_coefficient_two() {
        let k = n_complex_updates();
        for p in k.spec().patterns() {
            assert_eq!(p.stride(), 2, "array {} stride", p.array_name());
        }
    }

    #[test]
    fn conv2d_reads_three_row_chains_with_zero_carry() {
        let k = conv2d();
        let spec = k.spec();
        let nest = spec.nest().expect("conv2d is a nest");
        assert_eq!(nest.inner_trips(), 16);
        assert_eq!(nest.total_iterations(), 256);
        let img = spec.pattern_for(spec.array_id("img").unwrap()).unwrap();
        assert_eq!(img.offsets(), vec![0, 1, 2, 16, 17, 18, 32, 33, 34]);
        assert_eq!(
            spec.array_info(spec.array_id("img").unwrap())
                .unwrap()
                .carries(),
            &[0],
            "full-row sweep flattens exactly"
        );
        // 9 multiplies + 8 adds.
        assert_eq!(k.compute_ops(), 17);
    }

    #[test]
    fn transpose_writes_carry_backwards() {
        let k = transpose();
        let spec = k.spec();
        let dst = spec.array_info(spec.array_id("dst").unwrap()).unwrap();
        assert_eq!(dst.coefficient(), 16);
        assert_eq!(dst.carries(), &[1 - 256]);
        let src = spec.array_info(spec.array_id("src").unwrap()).unwrap();
        assert_eq!(src.carries(), &[0]);
    }

    #[test]
    fn stencil5_interior_sweep_carries_two_per_row() {
        let k = stencil5();
        let spec = k.spec();
        assert_eq!(spec.nest().unwrap().inner_trips(), 14);
        for p in spec.patterns() {
            let info = spec.array_info(p.array()).unwrap();
            assert_eq!(info.carries(), &[2], "array {}", p.array_name());
        }
    }

    #[test]
    fn paper_example_kernel_matches_the_canned_loop() {
        let k = paper_example();
        assert_eq!(
            k.spec().patterns()[0].offsets(),
            vec![1, 0, 2, -1, 1, 0, -2]
        );
    }

    /// Every suite kernel's operator count, pinned: `compute_ops` feeds
    /// E4's whole-loop columns, so a change in how the body is counted
    /// shows here first.
    #[test]
    fn every_kernel_pins_its_compute_op_count() {
        let pinned = [
            ("fir_4", 7),
            ("fir_8", 15),
            ("biquad", 9),
            ("convolution", 2),
            ("correlation", 2),
            ("dot_product", 2),
            ("vector_add", 1),
            ("n_real_updates", 2),
            ("n_complex_updates", 8),
            ("matmul_inner_8", 2),
            ("lms", 4),
            ("lattice", 4),
            ("fft_butterfly", 10),
            ("iir_df1", 5),
            ("decimator", 2),
            ("conv2d", 17),
            ("transpose", 1),
            ("stencil5", 5),
            ("paper_example", 7),
        ];
        let counted: Vec<(&str, u64)> = suite()
            .iter()
            .map(|k| (k.name(), k.compute_ops()))
            .collect();
        assert_eq!(counted, pinned);
    }

    #[test]
    fn compute_ops_counts_operators() {
        // 1 mul + 1 add + compound add = 3.
        let k = Kernel::from_source(
            "t",
            "test",
            "for (i = 0; i < 4; i++) { acc += a[i] * b[i] + 1; }",
        );
        assert_eq!(k.compute_ops(), 3);
    }

    #[test]
    fn compute_ops_counts_negations_and_parenthesized_chains() {
        // neg + (add) + mul = 3; a move alone is one instruction; a
        // compound `-=` over `a - -b` is 1 + sub + neg = 3.
        let k = Kernel::from_source(
            "t",
            "test",
            "for (i = 0; i < 4; i++) { s = -(a[i] + b[i]) * c; t = a[i]; u -= a[i] - -b[i]; }",
        );
        assert_eq!(k.compute_ops(), 3 + 1 + 3);
    }

    #[test]
    fn kernels_allocate_on_default_machines() {
        use raco_core::Optimizer;
        use raco_ir::AguSpec;
        let agu = AguSpec::new(8, 1).unwrap();
        for k in suite() {
            let alloc = Optimizer::new(agu)
                .allocate_loop(k.spec())
                .unwrap_or_else(|e| panic!("{} fails to allocate: {e}", k.name()));
            assert!(alloc.total_registers() <= 8, "{}", k.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn fir_rejects_zero_taps() {
        let _ = fir(0);
    }
}
