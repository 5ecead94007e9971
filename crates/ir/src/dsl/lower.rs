//! Lowering from the DSL AST to the flat [`LoopSpec`] IR.
//!
//! Lowering walks every statement of the innermost loop, extracts array
//! accesses in evaluation order (right-hand-side reads left-to-right,
//! then the left-hand-side read for compound assignments, then the
//! left-hand-side write) and folds each subscript into an affine form
//! over the nest's induction variables.
//!
//! ## Nest flattening
//!
//! A perfect loop nest is lowered by *flattening* to the single-loop
//! model the allocator consumes:
//!
//! * Multi-dimensional subscripts linearize row-major against the
//!   `array` declarations (`x[i][j]` with `array x[R][C];` becomes
//!   `C*i + j`).
//! * The flat [`LoopSpec`] is the innermost loop: its per-iteration
//!   offset sequence is the paper's access pattern, and each array's
//!   coefficient is the innermost induction variable's.
//! * Outer levels fold into the spec's [`LoopNest`] metadata: constant
//!   trip counts per level, plus one *carry* delta per array per level —
//!   the amount the array's address jumps, relative to the uniform flat
//!   model, whenever that level advances. A carry of zero (e.g. a
//!   row-major sweep over contiguous rows) means the flattening is
//!   exact and the nest is indistinguishable from a long single loop.
//!
//! Flattening requires constant bounds on every level of a nest (plain
//! single loops may keep symbolic bounds, as before).

use super::ast::{CmpOp, Decl, Expr, ForLoop, LValue, Stmt};
use super::lexer::Span;
use super::parser::{LowerError, ParseErrorKind};
use crate::model::{AccessKind, ArrayId, LoopNest, LoopSpec, NestLevel};

/// The most array accesses one loop may make per iteration, counted
/// over all its arrays. Lowering a loop with more fails with
/// [`ParseErrorKind::TooManyAccesses`] at the loop.
///
/// The allocator keeps a few tables per array that grow with the square
/// of its accesses (Phase 2 keeps a 4-byte key per pair of accesses).
/// One statement reading `x[i]` 16 000 times peaks at about 1 GiB and
/// 1.7 s under `raco compile --machine paper -j 1`, and 32 000 reads
/// need about 4 GiB; 8 000 reads take 250 MiB. Kernels read a few
/// dozen times per iteration.
pub const MAX_LOOP_ACCESSES: usize = 16_384;

/// Lowers a parsed [`ForLoop`] (possibly a nest) without array
/// declarations: every array is one-dimensional.
///
/// Exposed publicly as [`crate::dsl::parse_loop`], which also attaches
/// the source text to error positions; calling this directly is useful
/// when the AST was built programmatically. Sources with `array`
/// declarations lower through [`lower_unit_loop`].
///
/// # Errors
///
/// Returns an error (without line/column resolution — see
/// [`crate::dsl::parse_loop`]) when a subscript is not affine in the
/// induction variables, ranks mismatch, one array mixes coefficients,
/// a nest level has no constant trip count, or the loop makes more than
/// [`MAX_LOOP_ACCESSES`] accesses per iteration.
pub fn lower_loop(ast: &ForLoop) -> Result<LoopSpec, LowerError> {
    lower_unit_loop(&[], ast)
}

/// Lowers one loop (nest) of a compilation unit under its `array`
/// declarations.
///
/// # Errors
///
/// See [`lower_loop`].
pub fn lower_unit_loop(decls: &[Decl], ast: &ForLoop) -> Result<LoopSpec, LowerError> {
    Lowerer::new(decls, ast)?.lower()
}

/// Per-level loop shape of one nest level (including the innermost).
struct Level<'a> {
    ast: &'a ForLoop,
    start: i64,
    stride: i64,
    trips: u64,
}

/// Lowers one loop (nest). Its buffers are sized by the nest depth and
/// the declarations and reused by every access, so an access allocates
/// only what the returned [`LoopSpec`] keeps.
struct Lowerer<'a> {
    decls: &'a [Decl],
    /// Row-major strides of every declaration, flat in declaration
    /// order; `None` where the product overflows `i128`, an error only
    /// once an access to that array is linearized.
    row_strides: Vec<Option<i128>>,
    levels: Vec<Level<'a>>,
    spec: LoopSpec,
    /// Per-level coefficients of each registered array, one
    /// `levels.len()`-wide row per [`ArrayId`] (the spec itself only
    /// stores the innermost coefficient).
    coeff_rows: Vec<i64>,
    /// The affine-folding stack: one frame per pending subexpression,
    /// each frame `Σ c_k * var_k + d` stored as the `levels.len()`
    /// coefficients (outermost first) followed by `d`. After
    /// [`Lowerer::linearize`] it holds the one frame of the access.
    frames: Vec<i64>,
    /// A subscript chain's linearization, summed at `i128` in the frame
    /// layout.
    linear: Vec<i128>,
    /// Right-hand-side array references of the statement being lowered.
    rhs_refs: Vec<(&'a str, &'a [Expr])>,
}

impl<'a> Lowerer<'a> {
    fn new(decls: &'a [Decl], ast: &'a ForLoop) -> Result<Self, LowerError> {
        // Collect the nest chain, outermost first, and check variables.
        // Plain single loops keep symbolic bounds (the trip count is
        // never consulted); a nest's levels need constant shapes.
        let mut levels: Vec<Level<'a>> = Vec::new();
        let mut current = Some(ast);
        while let Some(level) = current {
            if levels.iter().any(|outer| outer.ast.var == level.var) {
                return Err(LowerError::new(
                    ParseErrorKind::DuplicateInductionVariable(level.var.clone()),
                    level.span,
                ));
            }
            levels.push(Level {
                ast: level,
                start: level.start.unwrap_or(0),
                stride: level.update.stride(),
                trips: 1,
            });
            current = level.nested.as_deref();
        }
        if levels.len() > 1 {
            for level in &mut levels {
                *level = level_shape(level.ast)?;
            }
        }

        // Row-major: the stride of dimension k is the product of all
        // dimensions after it; the outermost extent only checks rank.
        let mut row_strides = Vec::with_capacity(decls.iter().map(|d| d.dims.len()).sum());
        for decl in decls {
            let base = row_strides.len();
            row_strides.resize(base + decl.dims.len(), Some(1));
            for k in (1..decl.dims.len()).rev() {
                row_strides[base + k - 1] = row_strides[base + k]
                    .and_then(|stride: i128| stride.checked_mul(i128::from(decl.dims[k])));
            }
        }

        let inner = levels.last().expect("a nest has at least one level");
        let mut spec = LoopSpec::try_new("loop", &inner.ast.var, inner.stride).map_err(|_| {
            // The parser already rejects zero strides; this is a safety
            // net for programmatically-built ASTs.
            LowerError::new(ParseErrorKind::ZeroStride, inner.ast.span)
        })?;
        spec.set_start(inner.start);
        let width = levels.len() + 1;
        Ok(Lowerer {
            decls,
            row_strides,
            levels,
            spec,
            coeff_rows: Vec::new(),
            frames: Vec::with_capacity(4 * width),
            linear: Vec::with_capacity(width),
            rhs_refs: Vec::new(),
        })
    }

    fn lower(mut self) -> Result<LoopSpec, LowerError> {
        let inner_ast = self.levels.last().expect("non-empty nest").ast;
        for stmt in &inner_ast.body {
            self.lower_stmt(stmt)?;
        }
        if self.levels.len() > 1 {
            self.attach_nest()?;
        }
        Ok(self.spec)
    }

    fn lower_stmt(&mut self, stmt: &'a Stmt) -> Result<(), LowerError> {
        // Right-hand-side reads, in evaluation order.
        self.rhs_refs.clear();
        let rhs_refs = &mut self.rhs_refs;
        stmt.rhs
            .visit_indices(&mut |name, indices| rhs_refs.push((name, indices)));
        for k in 0..self.rhs_refs.len() {
            let (name, indices) = self.rhs_refs[k];
            self.push(name, indices, AccessKind::Read, stmt.span)?;
        }
        // Left-hand side.
        if let LValue::Element { array, indices } = &stmt.lhs {
            if stmt.op.reads_lhs() {
                self.push(array, indices, AccessKind::Read, stmt.span)?;
            }
            self.push(array, indices, AccessKind::Write, stmt.span)?;
        }
        Ok(())
    }

    fn push(
        &mut self,
        array: &str,
        indices: &[Expr],
        kind: AccessKind,
        span: Span,
    ) -> Result<(), LowerError> {
        if self.spec.len() == MAX_LOOP_ACCESSES {
            let nest = self.levels[0].ast.span;
            return Err(LowerError::new(ParseErrorKind::TooManyAccesses, nest));
        }
        self.linearize(array, indices)
            .map_err(|kind| LowerError::new(kind, span))?;
        let id = self.resolve_array(array, span)?;
        // Fold outer-level starts into the constant: the flat spec only
        // tracks the innermost variable. One product fits `i128`; three
        // or more outer levels can overflow their sum.
        let depth = self.levels.len();
        let offset = self.levels[..depth - 1]
            .iter()
            .zip(&self.frames)
            .try_fold(i128::from(self.frames[depth]), |sum, (level, &coeff)| {
                sum.checked_add(i128::from(coeff) * i128::from(level.start))
            })
            .ok_or(ParseErrorKind::IndexOverflow)
            .and_then(narrow)
            .map_err(|kind| LowerError::new(kind, span))?;
        self.spec
            .push_access(id, offset, kind)
            .expect("id resolved against this spec");
        Ok(())
    }

    /// Folds a subscript chain into one affine form over the nest
    /// variables, linearizing multi-dimensional subscripts row-major
    /// against the array's declaration, and leaves it as the one frame
    /// on the folding stack.
    fn linearize(&mut self, array: &str, indices: &[Expr]) -> Result<(), ParseErrorKind> {
        // The offset of the array's strides in `row_strides`, or `None`
        // for an undeclared (one-dimensional, unit-stride) array.
        let strides_at = match self.decls.iter().position(|d| d.name == array) {
            Some(pos) => {
                let rank = self.decls[pos].dims.len();
                if indices.len() != rank {
                    return Err(ParseErrorKind::RankMismatch {
                        array: array.to_owned(),
                        expected: rank,
                        found: indices.len(),
                    });
                }
                let base = self.decls[..pos].iter().map(|d| d.dims.len()).sum();
                if self.row_strides[base..base + rank].contains(&None) {
                    return Err(ParseErrorKind::IndexOverflow);
                }
                Some(base)
            }
            None => {
                if indices.len() != 1 {
                    return Err(ParseErrorKind::UndeclaredArray(array.to_owned()));
                }
                None
            }
        };
        self.linear.clear();
        self.linear.resize(self.levels.len() + 1, 0);
        for (k, index) in indices.iter().enumerate() {
            let stride = strides_at.map_or(1, |base| {
                self.row_strides[base + k].expect("overflow is rejected above")
            });
            self.frames.clear();
            self.fold(index)?;
            for (total, &c) in self.linear.iter_mut().zip(&self.frames) {
                *total = total
                    .checked_add(
                        stride
                            .checked_mul(i128::from(c))
                            .ok_or(ParseErrorKind::IndexOverflow)?,
                    )
                    .ok_or(ParseErrorKind::IndexOverflow)?;
            }
        }
        self.frames.clear();
        for &total in &self.linear {
            self.frames.push(narrow(total)?);
        }
        Ok(())
    }

    /// Folds one index expression into `Σ c_k * var_k + d` and pushes it
    /// as a frame onto the folding stack. Every node checks its `i64`
    /// arithmetic.
    fn fold(&mut self, e: &Expr) -> Result<(), ParseErrorKind> {
        let width = self.levels.len() + 1;
        let top = self.frames.len();
        match e {
            Expr::Num(n) => {
                self.frames.resize(top + width, 0);
                self.frames[top + width - 1] = *n;
            }
            Expr::Var(v) => match self.levels.iter().position(|level| level.ast.var == *v) {
                Some(k) => {
                    self.frames.resize(top + width, 0);
                    self.frames[top + k] = 1;
                }
                None => return Err(ParseErrorKind::SymbolicIndex(v.clone())),
            },
            Expr::Index { array, .. } => return Err(ParseErrorKind::ArrayInIndex(array.clone())),
            Expr::Neg(inner) => {
                self.fold(inner)?;
                for c in &mut self.frames[top..] {
                    *c = c.checked_neg().ok_or(ParseErrorKind::IndexOverflow)?;
                }
            }
            Expr::Chain { first, rest } => {
                use super::ast::BinOp;
                self.fold(first)?;
                for (op, e) in rest {
                    self.fold(e)?;
                    let (l, r) = self.frames[top..].split_at_mut(width);
                    let combine = |l: &mut [i64], f: fn(i64, i64) -> Option<i64>| {
                        for (a, &b) in l.iter_mut().zip(&*r) {
                            *a = f(*a, b).ok_or(ParseErrorKind::IndexOverflow)?;
                        }
                        Ok(())
                    };
                    match op {
                        BinOp::Add => combine(l, i64::checked_add)?,
                        BinOp::Sub => combine(l, i64::checked_sub)?,
                        // A product is affine only when one factor is a
                        // constant (every coefficient zero): scale the
                        // other.
                        BinOp::Mul => {
                            if l[..width - 1].iter().all(|&c| c == 0) {
                                let k = l[width - 1];
                                for (a, &b) in l.iter_mut().zip(&*r) {
                                    *a = b.checked_mul(k).ok_or(ParseErrorKind::IndexOverflow)?;
                                }
                            } else if r[..width - 1].iter().all(|&c| c == 0) {
                                let k = r[width - 1];
                                for a in l.iter_mut() {
                                    *a = a.checked_mul(k).ok_or(ParseErrorKind::IndexOverflow)?;
                                }
                            } else {
                                return Err(ParseErrorKind::NonAffineIndex);
                            }
                        }
                        BinOp::Div => return Err(ParseErrorKind::DivisionInIndex),
                    }
                    self.frames.truncate(top + width);
                }
            }
        }
        Ok(())
    }

    /// Resolves (or registers) the array of the access whose frame is on
    /// the folding stack, checking its coefficients against the first
    /// access's.
    fn resolve_array(&mut self, name: &str, span: Span) -> Result<ArrayId, LowerError> {
        let depth = self.levels.len();
        let coeffs = &self.frames[..depth];
        match self.spec.array_id(name) {
            Some(id) => {
                let first = &self.coeff_rows[id.index() * depth..][..depth];
                // Report the first differing level's coefficients.
                if let Some((&a, &b)) = first.iter().zip(coeffs).find(|(a, b)| a != b) {
                    return Err(LowerError::new(
                        ParseErrorKind::MixedCoefficients {
                            array: name.to_owned(),
                            first: a,
                            second: b,
                        },
                        span,
                    ));
                }
                Ok(id)
            }
            None => {
                let id = self.spec.add_array(name, coeffs[depth - 1]);
                debug_assert_eq!(id.index() * depth, self.coeff_rows.len());
                self.coeff_rows.extend_from_slice(coeffs);
                Ok(id)
            }
        }
    }

    /// Attaches [`LoopNest`] metadata and per-array carries to the spec.
    fn attach_nest(&mut self) -> Result<(), LowerError> {
        let depth = self.levels.len();
        let outer = &self.levels[..depth - 1];
        let nest = LoopNest::new(
            outer
                .iter()
                .map(|level| NestLevel {
                    var: level.ast.var.clone(),
                    start: level.start,
                    stride: level.stride,
                    trips: level.trips,
                })
                .collect(),
            self.levels.last().expect("non-empty nest").trips,
        );
        // carry_k = c_k*s_k − c_{k+1}*s_{k+1}*T_{k+1}: how far the flat
        // model drifts from the true address each time level k advances
        // (the level below it wraps back to its start).
        for (index, coeffs) in self.coeff_rows.chunks(depth).enumerate() {
            let mut carries = Vec::with_capacity(outer.len());
            for k in 0..outer.len() {
                // One `i64` product fits `i128`; times a trip count it
                // may not.
                let here = i128::from(coeffs[k]) * i128::from(self.levels[k].stride);
                let below = (i128::from(coeffs[k + 1]) * i128::from(self.levels[k + 1].stride))
                    .checked_mul(i128::from(self.levels[k + 1].trips));
                let carry = below
                    .and_then(|below| here.checked_sub(below))
                    .ok_or(ParseErrorKind::IndexOverflow)
                    .and_then(narrow)
                    .map_err(|kind| LowerError::new(kind, self.levels[k].ast.span))?;
                carries.push(carry);
            }
            self.spec
                .set_array_carries(ArrayId::from_index(index as u32), carries)
                .expect("array ids are dense");
        }
        self.spec.set_nest(nest);
        Ok(())
    }
}

/// Computes the constant shape (start, stride, trip count) of one nest
/// level; flattening needs all three.
fn level_shape(ast: &ForLoop) -> Result<Level<'_>, LowerError> {
    let var = || ast.var.clone();
    let start = ast
        .start
        .ok_or_else(|| LowerError::new(ParseErrorKind::NonConstantNestBound(var()), ast.span))?;
    let bound = super::parser::const_eval(&ast.cond.bound)
        .ok_or_else(|| LowerError::new(ParseErrorKind::NonConstantNestBound(var()), ast.span))?;
    let stride = ast.update.stride();
    let degenerate = || LowerError::new(ParseErrorKind::DegenerateNestLevel(var()), ast.span);
    // Iterations of `v = start; v <op> bound; v += stride` for the four
    // monotone condition/direction pairings; everything else (wrong
    // direction, `!=`, `==`) does not flatten.
    let span_len: i128 = match (ast.cond.op, stride > 0) {
        (CmpOp::Lt, true) => i128::from(bound) - i128::from(start),
        (CmpOp::Le, true) => i128::from(bound) - i128::from(start) + 1,
        (CmpOp::Gt, false) => i128::from(start) - i128::from(bound),
        (CmpOp::Ge, false) => i128::from(start) - i128::from(bound) + 1,
        _ => return Err(degenerate()),
    };
    let step = i128::from(stride).abs();
    let trips = (span_len + step - 1).div_euclid(step);
    if trips <= 0 {
        return Err(degenerate());
    }
    Ok(Level {
        ast,
        start,
        stride,
        trips: u64::try_from(trips).map_err(|_| degenerate())?,
    })
}

/// Narrows a folded `i128` back to `i64`.
fn narrow(v: i128) -> Result<i64, ParseErrorKind> {
    i64::try_from(v).map_err(|_| ParseErrorKind::IndexOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_for, parse_loop};

    fn lower(src: &str) -> LoopSpec {
        lower_loop(&parse_for(src).unwrap()).unwrap()
    }

    fn lower_err(src: &str) -> ParseErrorKind {
        lower_loop(&parse_for(src).unwrap())
            .unwrap_err()
            .kind()
            .clone()
    }

    /// A loop body of one statement that reads `x[i]` `reads` times
    /// and writes `y[i]`, nested in an outer loop over `j`.
    fn long_statement(reads: usize) -> String {
        format!(
            "for (j = 0; j < 2; j++) {{ for (i = 0; i < 9; i++) {{ y[i] = {}; }} }}",
            vec!["x[i]"; reads].join(" + ")
        )
    }

    #[test]
    fn access_limit_admits_the_limit_and_rejects_one_more() {
        let spec = lower(&long_statement(MAX_LOOP_ACCESSES - 1));
        assert_eq!(spec.len(), MAX_LOOP_ACCESSES);
        let source = long_statement(MAX_LOOP_ACCESSES);
        let ast = parse_for(&source).unwrap();
        let err = lower_loop(&ast).unwrap_err();
        assert_eq!(*err.kind(), ParseErrorKind::TooManyAccesses);
        assert_eq!(err.span(), ast.span, "reported at the (outermost) loop");
        let err = parse_loop(&source).unwrap_err();
        assert_eq!((err.line(), err.column()), (1, 1));
        assert_eq!(
            err.to_string(),
            format!("error at 1:1: loop makes more than {MAX_LOOP_ACCESSES} array accesses per iteration")
        );
    }

    #[test]
    fn affine_forms() {
        let check = |src: &str, want: (i64, i64)| {
            let ast = parse_for(&format!("for (i = 0; i < 9; i++) {{ s = A[{src}]; }}")).unwrap();
            let spec = lower_loop(&ast).unwrap();
            let info = &spec.arrays()[0];
            assert_eq!(
                (info.coefficient(), spec.accesses()[0].offset),
                want,
                "index `{src}`"
            );
        };
        check("i", (1, 0));
        check("i + 3", (1, 3));
        check("i - 2", (1, -2));
        check("2 * i", (2, 0));
        check("2 * i + 1", (2, 1));
        check("i * 3 - 4", (3, -4));
        check("7 - i", (-1, 7));
        check("-i", (-1, 0));
        check("-(i + 1)", (-1, -1));
        check("(i + 1) * 2", (2, 2));
        check("5", (0, 5));
        check("i + i", (2, 0));
        check("2 * (3 * i + 1) - i", (5, 2));
    }

    #[test]
    fn non_affine_indices_are_rejected() {
        assert_eq!(
            lower_err("for (i = 0; i < 9; i++) { s = A[i * i]; }"),
            ParseErrorKind::NonAffineIndex
        );
        assert_eq!(
            lower_err("for (i = 0; i < 9; i++) { s = A[i / 2]; }"),
            ParseErrorKind::DivisionInIndex
        );
        assert_eq!(
            lower_err("for (i = 0; i < 9; i++) { s = A[B[i]]; }"),
            ParseErrorKind::ArrayInIndex("B".into())
        );
        assert_eq!(
            lower_err("for (i = 0; i < 9; i++) { s = A[n + 1]; }"),
            ParseErrorKind::SymbolicIndex("n".into())
        );
    }

    #[test]
    fn scalar_statements_produce_no_accesses() {
        let spec = lower("for (i = 0; i < 9; i++) { s = t * 2; t += 1; }");
        assert!(spec.is_empty());
    }

    #[test]
    fn evaluation_order_rhs_then_lhs() {
        let spec = lower("for (i = 0; i < 9; i++) { A[i] = B[i+1] + C[i-1]; }");
        let names: Vec<&str> = spec
            .accesses()
            .iter()
            .map(|a| spec.array_info(a.array).unwrap().name())
            .collect();
        assert_eq!(names, vec!["B", "C", "A"]);
        assert_eq!(spec.accesses()[2].kind, AccessKind::Write);
    }

    #[test]
    fn negative_stride_loops_lower() {
        let spec = lower("for (i = 9; i > 0; i--) { s += A[i]; }");
        assert_eq!(spec.stride(), -1);
        assert_eq!(spec.start(), 9);
    }

    #[test]
    fn coefficient_zero_arrays_are_loop_invariant() {
        let spec = lower("for (i = 0; i < 9; i++) { s += T[3]; }");
        let p = &spec.patterns()[0];
        assert_eq!(p.stride(), 0);
        assert_eq!(p.offsets(), vec![3]);
    }

    #[test]
    fn consistent_nonunit_coefficients_are_fine() {
        let spec = lower("for (i = 0; i < 9; i++) { s = X[2*i] + X[2*i + 1]; }");
        let p = &spec.patterns()[0];
        assert_eq!(p.offsets(), vec![0, 1]);
        assert_eq!(p.stride(), 2);
    }

    #[test]
    fn mixed_coefficient_error_names_the_array() {
        match lower_err("for (i = 0; i < 9; i++) { s = X[i] + X[2*i]; }") {
            ParseErrorKind::MixedCoefficients {
                array,
                first,
                second,
            } => {
                assert_eq!(array, "X");
                assert_eq!((first, second), (1, 2));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn multiple_statements_accumulate_in_order() {
        let spec = lower(
            "for (i = 2; i <= 100; i++) {
                s = A[i+1] + A[i] + A[i+2];
                t = A[i-1] * A[i+1];
                u = A[i] - A[i-2];
            }",
        );
        let p = &spec.patterns()[0];
        assert_eq!(p.offsets(), vec![1, 0, 2, -1, 1, 0, -2]);
    }

    // ---- nested / multi-dimensional lowering ----

    fn lower_src(src: &str) -> LoopSpec {
        parse_loop(src).unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    #[test]
    fn contiguous_2d_sweep_flattens_with_zero_carry() {
        // Row stride (4) equals the inner trip count: exact flattening.
        let spec = lower_src(
            "array y[3][4];
             for (i = 0; i < 3; i++) { for (j = 0; j < 4; j++) { y[i][j] = 1; } }",
        );
        assert_eq!(spec.var(), "j");
        assert_eq!(spec.stride(), 1);
        let nest = spec.nest().expect("nest metadata");
        assert_eq!(nest.inner_trips(), 4);
        assert_eq!(nest.levels().len(), 1);
        assert_eq!(nest.levels()[0].trips, 3);
        assert_eq!(nest.total_iterations(), 12);
        let y = spec.array_info(spec.array_id("y").unwrap()).unwrap();
        assert_eq!(y.coefficient(), 1);
        assert_eq!(y.carries(), &[0], "4*1 (row) - 1*1*4 (sweep) = 0");
    }

    #[test]
    fn row_overhang_produces_the_expected_carry() {
        // Row stride 16, inner trips 14: carry 16 - 14 = 2 per row.
        let spec = lower_src(
            "array u[18][16];
             for (i = 1; i < 17; i++) { for (j = 1; j < 15; j++) { s += u[i][j]; } }",
        );
        let u = spec.array_info(spec.array_id("u").unwrap()).unwrap();
        assert_eq!(u.coefficient(), 1);
        assert_eq!(u.carries(), &[2]);
        // Offset folds the outer start: 16 * 1 = 16.
        assert_eq!(spec.accesses()[0].offset, 16);
        assert_eq!(spec.start(), 1);
    }

    #[test]
    fn transposed_writes_carry_backwards() {
        let spec = lower_src(
            "array a[8][8]; array b[8][8];
             for (i = 0; i < 8; i++) { for (j = 0; j < 8; j++) { b[j][i] = a[i][j]; } }",
        );
        let a = spec.array_info(spec.array_id("a").unwrap()).unwrap();
        let b = spec.array_info(spec.array_id("b").unwrap()).unwrap();
        // a sweeps rows contiguously; b walks a column (stride 8) and
        // jumps back 8*8 - 1 = 63 at each row boundary.
        assert_eq!((a.coefficient(), a.carries()), (1, &[0i64][..]));
        assert_eq!((b.coefficient(), b.carries()), (8, &[1 - 64i64][..]));
    }

    #[test]
    fn triple_nests_record_one_carry_per_outer_level() {
        let spec = lower_src(
            "array t[2][3][4];
             for (i = 0; i < 2; i++) {
                 for (j = 0; j < 3; j++) {
                     for (k = 0; k < 4; k++) { s += t[i][j][k]; }
                 }
             }",
        );
        let nest = spec.nest().unwrap();
        assert_eq!(nest.depth(), 3);
        assert_eq!(nest.periods(), vec![12, 4]);
        let t = spec.array_info(spec.array_id("t").unwrap()).unwrap();
        // Fully contiguous walk: every carry is zero.
        assert_eq!(t.carries(), &[0, 0]);
        assert_eq!(t.coefficient(), 1);
    }

    #[test]
    fn multi_dim_subscripts_work_in_single_loops_too() {
        // A fixed-row access in a single loop: coefficient 1 from j, the
        // row base folds into the offset.
        let spec = lower_src(
            "array m[4][10];
             for (j = 0; j < 10; j++) { s += m[2][j]; }",
        );
        assert!(spec.nest().is_none());
        assert_eq!(spec.accesses()[0].offset, 20);
    }

    #[test]
    fn nested_error_paths_are_reported() {
        let err = |src: &str| crate::dsl::parse_loop(src).unwrap_err().kind().clone();
        // Rank mismatch against the declaration.
        assert_eq!(
            err("array x[4][4]; for (i = 0; i < 4; i++) { s += x[i]; }"),
            ParseErrorKind::RankMismatch {
                array: "x".into(),
                expected: 2,
                found: 1
            }
        );
        // Multi-dim subscript without a declaration.
        assert_eq!(
            err("for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { s += x[i][j]; } }"),
            ParseErrorKind::UndeclaredArray("x".into())
        );
        // Unbound induction variable in a nest.
        assert_eq!(
            err("array x[4][4]; for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { s += x[i][q]; } }"),
            ParseErrorKind::SymbolicIndex("q".into())
        );
        // Non-affine product of two induction variables.
        assert_eq!(
            err("array x[4][4]; for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { s += x[i][i * j]; } }"),
            ParseErrorKind::NonAffineIndex
        );
        // Symbolic outer bound cannot flatten.
        assert_eq!(
            err("for (i = 0; i < N; i++) { for (j = 0; j < 4; j++) { s += y[j]; } }"),
            ParseErrorKind::NonConstantNestBound("i".into())
        );
        // Degenerate outer level.
        assert_eq!(
            err("for (i = 4; i < 4; i++) { for (j = 0; j < 4; j++) { s += y[j]; } }"),
            ParseErrorKind::DegenerateNestLevel("i".into())
        );
        // Reused induction variable.
        assert_eq!(
            err("for (i = 0; i < 4; i++) { for (i = 0; i < 4; i++) { s += y[i]; } }"),
            ParseErrorKind::DuplicateInductionVariable("i".into())
        );
    }

    #[test]
    fn i128_sums_of_outer_starts_and_carries_overflow_to_an_error() {
        let err = |src: &str| crate::dsl::parse_loop(src).unwrap_err().kind().clone();
        // Three outer starts near `i64::MAX` times coefficients near
        // `i64::MAX`: each product fits `i128`, their sum does not.
        let near_max =
            |v: &str| format!("for ({v} = 9223372036854775806; {v} < 9223372036854775807; {v}++)");
        assert_eq!(
            err(&format!(
                "{} {{ {} {{ {} {{ for (l = 0; l < 2; l++) {{
                   s += A[9223372036854775807 * i + 9223372036854775807 * j
                          + 9223372036854775807 * k + l];
                 }} }} }} }}",
                near_max("i"),
                near_max("j"),
                near_max("k")
            )),
            ParseErrorKind::IndexOverflow
        );
        // The inner level's coefficient times its stride times its trip
        // count does not fit `i128`.
        assert_eq!(
            err("for (i = 0; i < 2; i++) {
                   for (j = -9223372036854775807 - 1; j < 9223372036854775807; j += 6917529027641081856) {
                     s += A[9223372036854775807 * j];
                   }
                 }"),
            ParseErrorKind::IndexOverflow
        );
    }

    #[test]
    fn nest_trip_counts_cover_all_condition_shapes() {
        let trips = |src: &str| {
            let spec = lower_src(src);
            let nest = spec.nest().unwrap();
            (nest.levels()[0].trips, nest.inner_trips())
        };
        assert_eq!(
            trips("for (i = 0; i < 7; i += 2) { for (j = 0; j < 3; j++) { s += y[j]; } }"),
            (4, 3)
        );
        assert_eq!(
            trips("for (i = 10; i >= 1; i -= 3) { for (j = 3; j > 0; j--) { s += y[j]; } }"),
            (4, 3)
        );
        assert_eq!(
            trips("for (i = 0; i <= 4; i++) { for (j = 0; j < 1; j++) { s += y[j]; } }"),
            (5, 1)
        );
    }
}
