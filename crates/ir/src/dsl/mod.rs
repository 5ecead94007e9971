//! A small C-like loop language.
//!
//! The DSL exists so that loops — the paper's inputs — can be written as
//! text instead of hand-assembled IR. It understands `for` loops (and
//! perfect loop *nests*) whose innermost body is a list of assignments
//! over scalars and array elements with affine index expressions, plus
//! `array` declarations giving multi-dimensional arrays their shapes:
//!
//! ```text
//! array x[18][16];                      // 18 rows of 16 words, row-major
//! array y[16][16];
//! for (i = 0; i < 16; i++) {
//!     for (j = 0; j < 16; j++) {
//!         y[i][j] = x[i][j] + x[i + 2][j + 2];
//!     }
//! }
//! ```
//!
//! * Index expressions must be affine in the nest's induction variables
//!   (`c1*i + c2*j + d` with integer constants, written in any
//!   arithmetically equivalent form).
//! * Multi-dimensional subscripts linearize row-major against the
//!   array's declaration; undeclared arrays are one-dimensional.
//! * All accesses to one array must share the same coefficients; the
//!   uniform-distance model of the paper cannot represent mixed
//!   coefficients, and [`parse_loop`] reports them as errors.
//! * Nests must be *perfect* (each body is either statements or exactly
//!   one nested loop) with constant bounds; they are lowered by
//!   flattening — see [`lower_unit_loop`] and
//!   [`LoopNest`](crate::model::LoopNest).
//! * Scalars are assumed to live in data registers and do not contribute
//!   memory accesses.
//!
//! The access order produced for each statement is: all reads of the
//! right-hand side from left to right, then (for compound assignments) the
//! read of the left-hand side, then the write of the left-hand side.
//!
//! Parsing without lowering ([`parse_unit`], [`parse_for`]) yields a
//! [`Unit`]: one flat table per source, holding its declarations, loop
//! levels, statements and expression nodes in a few vectors, with names
//! as [`Span`]s of the borrowed source and expressions as [`ExprId`]s.
//! Read a node with [`Unit::expr`], print with
//! [`crate::pretty::print_for`], and lower a loop of it with
//! [`lower_unit_loop`].
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = raco_ir::dsl::parse_loop(
//!     "for (i = 0; i < 64; i++) { y[i] = x[i + 1] - x[i - 1]; }",
//! )?;
//! assert_eq!(spec.len(), 3);
//! assert_eq!(spec.stride(), 1);
//!
//! // A 2D stencil row sweep flattens to a single affine loop:
//! let spec = raco_ir::dsl::parse_loop(
//!     "array u[8][8];
//!      for (i = 0; i < 7; i++) { for (j = 0; j < 8; j++) { s += u[i][j] + u[i + 1][j]; } }",
//! )?;
//! assert_eq!(spec.nest().unwrap().inner_trips(), 8);
//! # Ok(())
//! # }
//! ```

mod ast;
mod lexer;
mod lower;
mod parser;

pub use ast::{
    AssignOp, BinOp, CmpOp, Cond, Decl, Expr, ExprId, ForLoop, Level, Shown, Stmt, Unit, Update,
};
pub use lexer::Span;
pub use lower::{lower_unit_loop, MAX_LOOP_ACCESSES};
pub use parser::{LowerError, ParseError, ParseErrorKind, MAX_NESTING_DEPTH};

use crate::model::LoopSpec;

/// Parses a `for` loop from source text and lowers it to a [`LoopSpec`].
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the byte span and a line/column
/// rendering for lexical errors, syntax errors and lowering errors
/// (non-affine indices, mixed coefficients, zero stride …).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = raco_ir::dsl::parse_loop(
///     "for (i = 2; i <= 100; i++) { s += A[i]; }",
/// )?;
/// assert_eq!(spec.var(), "i");
/// # Ok(())
/// # }
/// ```
pub fn parse_loop(source: &str) -> Result<LoopSpec, ParseError> {
    let (unit, loops) = parse_unit(source)?;
    if loops.len() != 1 {
        // Multiple loops need parse_program; report the second loop's
        // position as unexpected input.
        return Err(ParseError::new(
            ParseErrorKind::UnexpectedToken {
                found: "a second loop".to_owned(),
                expected: "end of input (use parse_program for multi-loop sources)".to_owned(),
            },
            loops[1].span(),
            source,
        ));
    }
    lower::lower_unit_loop(&unit, &loops[0]).map_err(|e| e.attach_source(source))
}

/// Parses a `for` loop (or perfect nest) without lowering: the [`Unit`]
/// table that holds it, and the loop.
///
/// Useful for pretty printing or custom analyses. Array declarations
/// are not accepted here — they belong to a compilation unit; use
/// [`parse_unit`] for sources that declare shapes.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntax errors.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use raco_ir::dsl::{self, Expr};
///
/// let (unit, ast) = dsl::parse_for("for (i = 0; i < 8; i++) { y[i] = x[i + 1] * 2; }")?;
/// let stmt = unit.body(&ast)[0];
/// assert_eq!(unit.display_stmt(&stmt).to_string(), "y[i] = x[i + 1] * 2;");
/// let Expr::Chain { first, ops, .. } = unit.expr(stmt.rhs) else { unreachable!() };
/// assert!(matches!(unit.expr(first), Expr::Index { array: "x", .. }));
/// assert_eq!(ops, [dsl::BinOp::Mul]);
/// # Ok(())
/// # }
/// ```
pub fn parse_for(source: &str) -> Result<(Unit<'_>, ForLoop), ParseError> {
    parser::Parser::new(source)?.parse_for_loop()
}

/// Parses a whole compilation unit without lowering: the [`Unit`] table
/// that holds its `array` declarations and loop (nest) syntax, and its
/// loops in source order.
///
/// Declarations scope over the entire unit, wherever they appear. The
/// unit borrows `source` for every name, and allocates a fixed handful
/// of vectors however many statements and accesses the source has.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntax errors (including
/// duplicate declarations).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (unit, loops) = raco_ir::dsl::parse_unit(
///     "array m[2][3];
///      for (i = 0; i < 2; i++) { for (j = 0; j < 3; j++) { m[i][j] = 0; } }",
/// )?;
/// assert_eq!(unit.dims(&unit.decls()[0]), [2, 3]);
/// assert_eq!(loops[0].depth(), 2);
/// assert_eq!(unit.text(unit.levels(&loops[0])[1].var), "j");
/// # Ok(())
/// # }
/// ```
pub fn parse_unit(source: &str) -> Result<(Unit<'_>, Vec<ForLoop>), ParseError> {
    parser::Parser::new(source)?.parse_unit()
}

/// Parses a whole program — one or more `for` loops — and lowers each to
/// a [`LoopSpec`] named `loop0`, `loop1`, ….
///
/// Real DSP sources contain several kernels back to back; each loop is an
/// independent allocation problem (address registers are re-initialized
/// between loops), so the result is simply a list.
///
/// # Errors
///
/// Returns a [`ParseError`] on the first lexical, syntax or lowering
/// error.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let loops = raco_ir::dsl::parse_program(
///     "for (i = 0; i < 8; i++) { y[i] = x[i]; }
///      for (j = 0; j < 4; j++) { z[j] = y[2 * j]; }",
/// )?;
/// assert_eq!(loops.len(), 2);
/// assert_eq!(loops[1].name(), "loop1");
/// assert_eq!(loops[1].var(), "j");
/// # Ok(())
/// # }
/// ```
pub fn parse_program(source: &str) -> Result<Vec<LoopSpec>, ParseError> {
    let (unit, asts) = parse_unit(source)?;
    asts.iter()
        .enumerate()
        .map(|(i, ast)| {
            let mut spec =
                lower::lower_unit_loop(&unit, ast).map_err(|e| e.attach_source(source))?;
            spec.set_name(&format!("loop{i}"));
            Ok(spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AccessKind;

    /// A statement with 100 000 terms is one operator chain, so parsing,
    /// lowering and printing it each walk it in a loop, and the unit
    /// drops as flat vectors: the whole round fits a 2 MiB thread stack.
    #[test]
    fn long_operator_chains_compile_on_a_small_stack() {
        let terms = 100_000;
        let chain = |head: &str| format!("{head}{}", " + 1 - 1".repeat(terms / 2));
        let source = format!(
            "for (i = 0; i < {}; i++) {{ y[{}] = {}; }}",
            chain("4"),
            chain("i"),
            chain("x[i]")
        );
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let (unit, ast) = parse_for(&source).expect("parses");
                let spec = lower_unit_loop(&unit, &ast).expect("lowers");
                assert_eq!(spec.len(), 2, "x[i] is read, y[i] written");
                assert_eq!(spec.accesses()[1].offset, 0);
                let printed = unit.display_stmt(&unit.body(&ast)[0]).to_string();
                assert!(printed.starts_with("y[i + 1 - 1 + 1"), "{}", &printed[..40]);
                assert!(printed.ends_with("+ 1 - 1;"));
                drop(unit);
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
    }

    #[test]
    fn end_to_end_single_array() {
        let spec =
            parse_loop("for (i = 2; i <= N; i++) { s = A[i+1] + A[i] + A[i+2]; }").expect("parse");
        assert_eq!(spec.var(), "i");
        assert_eq!(spec.start(), 2);
        assert_eq!(spec.stride(), 1);
        let p = &spec.patterns()[0];
        assert_eq!(p.offsets(), vec![1, 0, 2]);
    }

    #[test]
    fn compound_assignment_reads_then_writes_lhs() {
        let spec = parse_loop("for (i = 0; i < 8; i++) { A[i] += B[i+3]; }").expect("parse");
        let kinds: Vec<_> = spec.accesses().iter().map(|a| (a.offset, a.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (3, AccessKind::Read),  // RHS read of B[i+3]
                (0, AccessKind::Read),  // LHS read of A[i]
                (0, AccessKind::Write), // LHS write of A[i]
            ]
        );
    }

    #[test]
    fn reversed_affine_form_is_accepted() {
        let spec = parse_loop("for (i = 0; i < 8; i++) { y[i] = h[7 - i]; }").expect("parse");
        let h = spec
            .patterns()
            .into_iter()
            .find(|p| p.array_name() == "h")
            .unwrap();
        assert_eq!(h.offsets(), vec![7]);
        assert_eq!(h.stride(), -1); // coefficient -1, loop stride 1
    }

    #[test]
    fn mixed_coefficients_are_reported() {
        let err = parse_loop("for (i = 0; i < 8; i++) { A[i] = A[2*i]; }").unwrap_err();
        assert!(matches!(
            err.kind(),
            ParseErrorKind::MixedCoefficients { .. }
        ));
    }

    #[test]
    fn error_positions_use_line_and_column() {
        let err = parse_loop("for (i = 0; i < 8; i++) {\n  A[j] = 1;\n}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2:"), "expected line 2 in `{msg}`");
    }

    #[test]
    fn programs_parse_multiple_loops_with_independent_variables() {
        let loops = parse_program(
            "// stage 1
             for (i = 0; i < 8; i++) { t[i] = x[i] * w[7 - i]; }
             /* stage 2 */
             for (k = 8; k > 0; k--) { y[k] = t[k] + t[k - 1]; }",
        )
        .unwrap();
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].name(), "loop0");
        assert_eq!(loops[0].var(), "i");
        assert_eq!(loops[1].var(), "k");
        assert_eq!(loops[1].stride(), -1);
        assert_eq!(loops[0].patterns().len(), 3);
    }

    #[test]
    fn program_errors_point_at_the_offending_loop() {
        let err = parse_program(
            "for (i = 0; i < 8; i++) { y[i] = x[i]; }
             for (j = 0; j < 8; j++) { y[j] = x[q]; }",
        )
        .unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::SymbolicIndex(_)));
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn single_loop_still_rejects_trailing_garbage() {
        assert!(parse_loop("for (i = 0; i < 8; i++) { } for").is_err());
        assert!(parse_program("for (i = 0; i < 8; i++) { } for").is_err());
    }

    #[test]
    fn nested_programs_share_declarations_across_loops() {
        let loops = parse_program(
            "array m[4][8];
             for (i = 0; i < 4; i++) { for (j = 0; j < 8; j++) { m[i][j] = 0; } }
             for (t = 0; t < 32; t++) { acc += q[t]; }",
        )
        .unwrap();
        assert_eq!(loops.len(), 2);
        assert!(loops[0].nest().is_some());
        assert!(loops[1].nest().is_none());
        assert_eq!(loops[0].name(), "loop0");
    }

    /// Table-driven error-path coverage: malformed nests and subscripts
    /// must produce positioned errors — never panics — and the position
    /// must point into the offending construct.
    #[test]
    fn error_paths_are_positioned_not_panics() {
        struct Case {
            source: &'static str,
            want: fn(&ParseErrorKind) -> bool,
            line: usize,
        }
        let cases = [
            // Non-affine subscripts.
            Case {
                source: "for (i = 0; i < 4; i++) {\n  s += A[i * i];\n}",
                want: |k| matches!(k, ParseErrorKind::NonAffineIndex),
                line: 2,
            },
            Case {
                source: "array x[4][4];\nfor (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) {\n    s += x[i][i * j];\n  }\n}",
                want: |k| matches!(k, ParseErrorKind::NonAffineIndex),
                line: 4,
            },
            // Dimension/rank mismatches.
            Case {
                source: "array x[4][4];\nfor (i = 0; i < 4; i++) {\n  s += x[i];\n}",
                want: |k| matches!(
                    k,
                    ParseErrorKind::RankMismatch { expected: 2, found: 1, .. }
                ),
                line: 3,
            },
            Case {
                source: "array x[4];\nfor (i = 0; i < 4; i++) {\n  s += x[i][0];\n}",
                want: |k| matches!(
                    k,
                    ParseErrorKind::RankMismatch { expected: 1, found: 2, .. }
                ),
                line: 3,
            },
            Case {
                source: "for (i = 0; i < 4; i++) {\n  s += x[i][0];\n}",
                want: |k| matches!(k, ParseErrorKind::UndeclaredArray(name) if name == "x"),
                line: 2,
            },
            // Unbound induction variables.
            Case {
                source: "for (i = 0; i < 4; i++) {\n  s += A[t + 1];\n}",
                want: |k| matches!(k, ParseErrorKind::SymbolicIndex(name) if name == "t"),
                line: 2,
            },
            Case {
                source: "for (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) {\n    y[j] = A[q];\n  }\n}",
                want: |k| matches!(k, ParseErrorKind::SymbolicIndex(name) if name == "q"),
                line: 3,
            },
            // Nest-shape errors.
            Case {
                source: "for (i = 0; i < 4; i++) {\n  s += A[i];\n  for (j = 0; j < 4; j++) {\n    s += A[j];\n  }\n}",
                want: |k| matches!(k, ParseErrorKind::ImperfectNest),
                line: 3,
            },
            Case {
                source: "for (i = 0; i < N; i++) {\n  for (j = 0; j < 4; j++) {\n    s += A[j];\n  }\n}",
                want: |k| matches!(k, ParseErrorKind::NonConstantNestBound(v) if v == "i"),
                line: 1,
            },
            Case {
                source: "for (i = 0; i != 4; i++) {\n  for (j = 0; j < 4; j++) {\n    s += A[j];\n  }\n}",
                want: |k| matches!(k, ParseErrorKind::DegenerateNestLevel(v) if v == "i"),
                line: 1,
            },
            // Declaration errors.
            Case {
                source: "array x[0];\nfor (i = 0; i < 4; i++) { s += x[i]; }",
                want: |k| matches!(k, ParseErrorKind::InvalidDimension(name) if name == "x"),
                line: 1,
            },
            Case {
                source: "array x[4];\narray x[8];\nfor (i = 0; i < 4; i++) { s += x[i]; }",
                want: |k| matches!(k, ParseErrorKind::DuplicateDeclaration(name) if name == "x"),
                line: 2,
            },
        ];
        for case in &cases {
            let err =
                parse_loop(case.source).expect_err(&format!("`{}` must not lower", case.source));
            assert!(
                (case.want)(err.kind()),
                "`{}` produced {:?}",
                case.source,
                err.kind()
            );
            assert_eq!(
                err.line(),
                case.line,
                "`{}` error at {}:{} — {}",
                case.source,
                err.line(),
                err.column(),
                err
            );
            assert!(err.column() >= 1);
            // The rendered message carries the position.
            assert!(err.to_string().contains(&format!("{}:", case.line)));
        }
    }
}
