//! Lowering from a parsed [`Unit`] to the flat [`LoopSpec`] IR.
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

use super::ast::{BinOp, CmpOp, Expr, ExprId, ForLoop, Level, Stmt, Unit};
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

/// Lowers one loop (nest) of a parsed unit under the unit's `array`
/// declarations.
///
/// [`crate::dsl::parse_program`] parses a unit and lowers every loop,
/// attaching the source text to error positions; call this directly to
/// lower the loops of a [`Unit`] one by one.
///
/// # Errors
///
/// Returns an error (without line/column resolution — see
/// [`LowerError::attach_source`]) when a subscript is not affine in the
/// induction variables, ranks mismatch, one array mixes coefficients,
/// a nest level has no constant trip count, or the loop makes more than
/// [`MAX_LOOP_ACCESSES`] accesses per iteration.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let source = "array m[2][3];
///               for (i = 0; i < 2; i++) { for (j = 0; j < 3; j++) { m[i][j] = 0; } }";
/// let (unit, loops) = raco_ir::dsl::parse_unit(source)?;
/// let spec = raco_ir::dsl::lower_unit_loop(&unit, &loops[0])?;
/// assert_eq!(spec.var(), "j");
/// assert_eq!(spec.nest().unwrap().total_iterations(), 6);
/// # Ok(())
/// # }
/// ```
pub fn lower_unit_loop(unit: &Unit<'_>, ast: &ForLoop) -> Result<LoopSpec, LowerError> {
    Lowerer::new(unit, ast)?.lower(unit.body(ast))
}

/// The shape of one nest level (including the innermost).
struct Shape {
    start: i64,
    stride: i64,
    trips: u64,
}

/// Lowers one loop (nest). Its buffers are sized by the nest depth and
/// the declarations and reused by every access, so an access allocates
/// only what the returned [`LoopSpec`] keeps.
struct Lowerer<'a> {
    unit: &'a Unit<'a>,
    /// The nest's levels, outermost first.
    levels: &'a [Level],
    /// Each level's shape.
    shapes: Vec<Shape>,
    /// Row-major strides of every declaration, flat in declaration
    /// order; `None` where the product overflows `i128`, an error only
    /// once an access to that array is linearized.
    row_strides: Vec<Option<i128>>,
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
    rhs_refs: Vec<(&'a str, &'a [ExprId])>,
}

impl<'a> Lowerer<'a> {
    fn new(unit: &'a Unit<'a>, ast: &ForLoop) -> Result<Self, LowerError> {
        // Check the nest's variables, outermost first. Plain single
        // loops keep symbolic bounds (the trip count is never
        // consulted); a nest's levels need constant shapes.
        let levels = unit.levels(ast);
        for (k, level) in levels.iter().enumerate() {
            let var = unit.text(level.var);
            if levels[..k].iter().any(|outer| unit.text(outer.var) == var) {
                return Err(LowerError::new(
                    ParseErrorKind::DuplicateInductionVariable(var.to_owned()),
                    level.span,
                ));
            }
        }
        let nest = levels.len() > 1;
        let shapes = levels
            .iter()
            .map(|level| {
                if nest {
                    return level_shape(unit, level);
                }
                Ok(Shape {
                    start: level.start.unwrap_or(0),
                    stride: level.update.stride(),
                    trips: 1,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Row-major: the stride of dimension k is the product of all
        // dimensions after it; the outermost extent only checks rank.
        let decls = unit.decls();
        let mut row_strides = Vec::with_capacity(decls.iter().map(|d| unit.dims(d).len()).sum());
        for decl in decls {
            let dims = unit.dims(decl);
            let base = row_strides.len();
            row_strides.resize(base + dims.len(), Some(1));
            for k in (1..dims.len()).rev() {
                row_strides[base + k - 1] = row_strides[base + k]
                    .and_then(|stride: i128| stride.checked_mul(i128::from(dims[k])));
            }
        }

        let (inner, inner_shape) = (&levels[levels.len() - 1], &shapes[levels.len() - 1]);
        let mut spec = LoopSpec::try_new("loop", unit.text(inner.var), inner_shape.stride)
            .map_err(|_| {
                // The parser already rejects zero strides; this is a
                // safety net.
                LowerError::new(ParseErrorKind::ZeroStride, inner.span)
            })?;
        spec.set_start(inner_shape.start);
        let width = levels.len() + 1;
        Ok(Lowerer {
            unit,
            levels,
            shapes,
            row_strides,
            spec,
            coeff_rows: Vec::new(),
            frames: Vec::with_capacity(4 * width),
            linear: Vec::with_capacity(width),
            rhs_refs: Vec::new(),
        })
    }

    fn lower(mut self, body: &'a [Stmt]) -> Result<LoopSpec, LowerError> {
        for stmt in body {
            self.lower_stmt(stmt)?;
        }
        if self.levels.len() > 1 {
            self.attach_nest()?;
        }
        Ok(self.spec)
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), LowerError> {
        let unit = self.unit;
        // Right-hand-side reads, in evaluation order.
        self.rhs_refs.clear();
        let rhs_refs = &mut self.rhs_refs;
        unit.visit_indices(stmt.rhs, &mut |name, subscripts| {
            rhs_refs.push((name, subscripts));
        });
        for k in 0..self.rhs_refs.len() {
            let (name, subscripts) = self.rhs_refs[k];
            self.push(name, subscripts, AccessKind::Read, stmt.span)?;
        }
        // Left-hand side.
        if let Expr::Index { array, subscripts } = unit.expr(stmt.lhs) {
            if stmt.op.reads_lhs() {
                self.push(array, subscripts, AccessKind::Read, stmt.span)?;
            }
            self.push(array, subscripts, AccessKind::Write, stmt.span)?;
        }
        Ok(())
    }

    fn push(
        &mut self,
        array: &str,
        subscripts: &[ExprId],
        kind: AccessKind,
        span: Span,
    ) -> Result<(), LowerError> {
        if self.spec.len() == MAX_LOOP_ACCESSES {
            let nest = self.levels[0].span;
            return Err(LowerError::new(ParseErrorKind::TooManyAccesses, nest));
        }
        self.linearize(array, subscripts)
            .map_err(|kind| LowerError::new(kind, span))?;
        let id = self.resolve_array(array, span)?;
        // Fold outer-level starts into the constant: the flat spec only
        // tracks the innermost variable. One product fits `i128`; three
        // or more outer levels can overflow their sum.
        let depth = self.levels.len();
        let offset = self.shapes[..depth - 1]
            .iter()
            .zip(&self.frames)
            .try_fold(i128::from(self.frames[depth]), |sum, (shape, &coeff)| {
                sum.checked_add(i128::from(coeff) * i128::from(shape.start))
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
    fn linearize(&mut self, array: &str, subscripts: &[ExprId]) -> Result<(), ParseErrorKind> {
        let unit = self.unit;
        // The offset of the array's strides in `row_strides`, or `None`
        // for an undeclared (one-dimensional, unit-stride) array.
        let decls = unit.decls();
        let strides_at = match decls.iter().position(|d| unit.text(d.name) == array) {
            Some(pos) => {
                let rank = unit.dims(&decls[pos]).len();
                if subscripts.len() != rank {
                    return Err(ParseErrorKind::RankMismatch {
                        array: array.to_owned(),
                        expected: rank,
                        found: subscripts.len(),
                    });
                }
                let base = decls[..pos].iter().map(|d| unit.dims(d).len()).sum();
                if self.row_strides[base..base + rank].contains(&None) {
                    return Err(ParseErrorKind::IndexOverflow);
                }
                Some(base)
            }
            None => {
                if subscripts.len() != 1 {
                    return Err(ParseErrorKind::UndeclaredArray(array.to_owned()));
                }
                None
            }
        };
        self.linear.clear();
        self.linear.resize(self.levels.len() + 1, 0);
        for (k, &index) in subscripts.iter().enumerate() {
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
    fn fold(&mut self, e: ExprId) -> Result<(), ParseErrorKind> {
        let unit = self.unit;
        let width = self.levels.len() + 1;
        let top = self.frames.len();
        match unit.expr(e) {
            Expr::Num(n) => {
                self.frames.resize(top + width, 0);
                self.frames[top + width - 1] = n;
            }
            Expr::Var(v) => match self.levels.iter().position(|l| unit.text(l.var) == v) {
                Some(k) => {
                    self.frames.resize(top + width, 0);
                    self.frames[top + k] = 1;
                }
                None => return Err(ParseErrorKind::SymbolicIndex(v.to_owned())),
            },
            Expr::Index { array, .. } => {
                return Err(ParseErrorKind::ArrayInIndex(array.to_owned()))
            }
            Expr::Neg(inner) => {
                self.fold(inner)?;
                for c in &mut self.frames[top..] {
                    *c = c.checked_neg().ok_or(ParseErrorKind::IndexOverflow)?;
                }
            }
            Expr::Chain { first, ops, rest } => {
                self.fold(first)?;
                for (&op, &e) in ops.iter().zip(rest) {
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
        let outer = &self.shapes[..depth - 1];
        let nest = LoopNest::new(
            self.levels[..depth - 1]
                .iter()
                .zip(outer)
                .map(|(level, shape)| NestLevel {
                    var: self.unit.text(level.var).to_owned(),
                    start: shape.start,
                    stride: shape.stride,
                    trips: shape.trips,
                })
                .collect(),
            self.shapes[depth - 1].trips,
        );
        // carry_k = c_k*s_k − c_{k+1}*s_{k+1}*T_{k+1}: how far the flat
        // model drifts from the true address each time level k advances
        // (the level below it wraps back to its start).
        for (index, coeffs) in self.coeff_rows.chunks(depth).enumerate() {
            let mut carries = Vec::with_capacity(outer.len());
            for k in 0..outer.len() {
                // One `i64` product fits `i128`; times a trip count it
                // may not.
                let here = i128::from(coeffs[k]) * i128::from(self.shapes[k].stride);
                let below = (i128::from(coeffs[k + 1]) * i128::from(self.shapes[k + 1].stride))
                    .checked_mul(i128::from(self.shapes[k + 1].trips));
                let carry = below
                    .and_then(|below| here.checked_sub(below))
                    .ok_or(ParseErrorKind::IndexOverflow)
                    .and_then(narrow)
                    .map_err(|kind| LowerError::new(kind, self.levels[k].span))?;
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
fn level_shape(unit: &Unit<'_>, level: &Level) -> Result<Shape, LowerError> {
    let var = || unit.text(level.var).to_owned();
    let start = level
        .start
        .ok_or_else(|| LowerError::new(ParseErrorKind::NonConstantNestBound(var()), level.span))?;
    let bound = unit
        .const_eval(level.cond.bound)
        .ok_or_else(|| LowerError::new(ParseErrorKind::NonConstantNestBound(var()), level.span))?;
    let stride = level.update.stride();
    let degenerate = || LowerError::new(ParseErrorKind::DegenerateNestLevel(var()), level.span);
    // Iterations of `v = start; v <op> bound; v += stride` for the four
    // monotone condition/direction pairings; everything else (wrong
    // direction, `!=`, `==`) does not flatten.
    let span_len: i128 = match (level.cond.op, stride > 0) {
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
    Ok(Shape {
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

    /// Lowers the one loop of `src`, which has no declarations.
    fn lower_loop(src: &str) -> Result<LoopSpec, LowerError> {
        let (unit, ast) = parse_for(src).unwrap();
        lower_unit_loop(&unit, &ast)
    }

    fn lower(src: &str) -> LoopSpec {
        lower_loop(src).unwrap()
    }

    fn lower_err(src: &str) -> ParseErrorKind {
        lower_loop(src).unwrap_err().kind().clone()
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
        let (unit, ast) = parse_for(&source).unwrap();
        let err = lower_unit_loop(&unit, &ast).unwrap_err();
        assert_eq!(*err.kind(), ParseErrorKind::TooManyAccesses);
        assert_eq!(err.span(), ast.span(), "reported at the (outermost) loop");
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
            let spec = lower(&format!("for (i = 0; i < 9; i++) {{ s = A[{src}]; }}"));
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
