//! The syntax of the loop DSL: one flat table per parsed unit.
//!
//! A [`Unit`] holds everything the parser read from one source, each
//! kind of item in one vector: expression nodes (addressed by
//! [`ExprId`]), statements, loop levels and declarations. A chain's
//! operands and an array reference's subscripts are runs of one shared
//! operand list, and every name is a [`Span`] of the source the unit
//! borrows. So a parse allocates a handful of vectors however long the
//! unit is, and no pass recurses along a chain. Passes read an
//! expression through [`Unit::expr`]; [`crate::pretty`] prints a unit
//! back, and [`crate::dsl::lower_unit_loop`] lowers one of its loops to
//! the flat [`crate::LoopSpec`].

use std::fmt;
use std::ops::Range;

use super::lexer::Span;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Comparison operators in the loop condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!=`
    Ne,
    /// `==`
    Eq,
}

impl CmpOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "!=",
            CmpOp::Eq => "==",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=` (reads the left-hand side)
    AddAssign,
    /// `-=` (reads the left-hand side)
    SubAssign,
    /// `*=` (reads the left-hand side)
    MulAssign,
}

impl AssignOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
        }
    }

    /// `true` for compound assignments, which read their left-hand side
    /// before writing it.
    pub fn reads_lhs(self) -> bool {
        !matches!(self, AssignOp::Assign)
    }
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An expression node of a [`Unit`]: its index in the unit's node
/// table. Ids are only meaningful in the unit that made them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

/// Consecutive entries `start..start + len` of one of a unit's vectors.
/// No vector of a unit is longer than its source has tokens, and the
/// lexer admits at most `u32::MAX` bytes, so every index fits `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Run {
    start: u32,
    len: u32,
}

impl Run {
    /// The run from `start` to the end of a vector of length `end`.
    pub(crate) fn since(start: usize, end: usize) -> Self {
        Run {
            start: start as u32,
            len: (end - start) as u32,
        }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// An expression node as stored: names are spans, children are ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Num(i64),
    Var(Span),
    /// The subscripts are a run of the operand list.
    Index {
        array: Span,
        subscripts: Run,
    },
    Neg(ExprId),
    /// The operands are a run of the operand list, at least two long;
    /// the operator before operand `k` is `ops[ops_at + k - 1]`.
    Chain {
        operands: Run,
        ops_at: u32,
    },
}

/// One expression node, as [`Unit::expr`] shows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr<'u> {
    /// Integer literal.
    Num(i64),
    /// Scalar variable (or an induction variable).
    Var(&'u str),
    /// Array element `array[i1][i2]…` (one subscript per dimension).
    Index {
        /// Array name.
        array: &'u str,
        /// Subscript expressions, outermost dimension first. Each must
        /// be affine in the induction variables to lower; never empty.
        subscripts: &'u [ExprId],
    },
    /// Unary negation `-e`.
    Neg(ExprId),
    /// A left-associative operator chain `first op1 e1 op2 e2 …`,
    /// evaluated left to right as `((first op1 e1) op2 e2) …`. The parser
    /// makes one node per run of same-precedence operators, so a long
    /// sum is one node, not one level per operator, and no pass recurses
    /// along it.
    Chain {
        /// Leftmost operand.
        first: ExprId,
        /// The operator before each further operand; never empty.
        ops: &'u [BinOp],
        /// Every further operand, in order, as long as `ops`.
        rest: &'u [ExprId],
    },
}

/// One assignment statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stmt {
    /// Assignment target: a [`Expr::Var`] (a scalar, kept in a data
    /// register, no memory access) or an [`Expr::Index`].
    pub lhs: ExprId,
    /// Assignment operator.
    pub op: AssignOp,
    /// Right-hand side.
    pub rhs: ExprId,
    /// Byte span of the statement in the source.
    pub span: Span,
}

/// The loop condition `var <cmp> bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side of the comparison (often a symbolic bound like `N`).
    pub bound: ExprId,
}

/// The loop-variable update clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// `i++`
    Increment,
    /// `i--`
    Decrement,
    /// `i += k` / `i = i + k` (`k` may be negative for `-=` / `i = i - k`)
    Step(i64),
}

impl Update {
    /// The per-iteration stride this update produces.
    pub fn stride(self) -> i64 {
        match self {
            Update::Increment => 1,
            Update::Decrement => -1,
            Update::Step(k) => k,
        }
    }
}

/// The header of one level of a loop nest:
/// `for (var = init; var <cmp> bound; update)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Level {
    /// The loop variable.
    pub var: Span,
    /// Initial value if the init expression is a constant, else `None`
    /// (symbolic starts lower to `0`).
    pub start: Option<i64>,
    /// Raw init expression (for printing).
    pub init: ExprId,
    /// Loop condition.
    pub cond: Cond,
    /// Update clause.
    pub update: Update,
    /// Byte span of the header in the source, `for` to `)`.
    pub span: Span,
}

/// A parsed `for` loop, possibly the head of a perfect loop nest: its
/// levels, outermost first, and the statements of the innermost body.
///
/// A loop body is *either* a list of statements *or* exactly one nested
/// `for` (a perfect nest — the only shape the flattening lowerer
/// accepts); the parser rejects bodies that mix both. Read it through
/// the [`Unit`] that parsed it ([`Unit::levels`], [`Unit::body`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForLoop {
    span: Span,
    levels: Run,
    pub(crate) body: Run,
}

impl ForLoop {
    /// Byte span of the outermost header in the source.
    pub fn span(&self) -> Span {
        self.span
    }

    /// Nest depth: `1` for a plain loop, `2` for a doubly nested one, …
    pub fn depth(&self) -> usize {
        self.levels.len as usize
    }
}

/// An array declaration `array name[d1][d2]…;`.
///
/// Declarations give arrays a shape: subscript chains are checked
/// against the declared rank, and multi-dimensional subscripts linearize
/// row-major using the declared trailing dimensions as strides.
/// Undeclared arrays are one-dimensional. [`Unit::dims`] reads the
/// extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decl {
    /// Array name.
    pub name: Span,
    /// Byte span of the declaration in the source.
    pub span: Span,
    dims: Run,
}

/// Everything parsed from one source: declarations, loop levels,
/// statements and expression nodes, each in one vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit<'s> {
    pub(crate) source: &'s str,
    pub(crate) decls: Vec<Decl>,
    /// Every declaration's extents, a run per declaration.
    pub(crate) dims: Vec<i64>,
    /// Every loop's levels, a run per loop (nest).
    pub(crate) levels: Vec<Level>,
    /// Every innermost body's statements, a run per loop.
    pub(crate) stmts: Vec<Stmt>,
    pub(crate) nodes: Vec<Node>,
    /// Chain operands and subscripts, a run per node.
    pub(crate) operands: Vec<ExprId>,
    /// Chain operators, a run per chain.
    pub(crate) ops: Vec<BinOp>,
}

impl<'s> Unit<'s> {
    /// An empty unit over `source`, its vectors reserved for `capacity`.
    pub(crate) fn with_capacity(source: &'s str, capacity: Capacity) -> Self {
        Unit {
            source,
            decls: Vec::with_capacity(capacity.decls),
            dims: Vec::with_capacity(capacity.dims),
            levels: Vec::with_capacity(capacity.levels),
            stmts: Vec::with_capacity(capacity.stmts),
            nodes: Vec::with_capacity(capacity.nodes),
            operands: Vec::with_capacity(capacity.nodes),
            ops: Vec::with_capacity(capacity.ops),
        }
    }

    /// Appends a node and returns its id.
    pub(crate) fn push(&mut self, node: Node) -> ExprId {
        self.nodes.push(node);
        ExprId(self.nodes.len() as u32 - 1)
    }

    /// Appends a declaration whose extents are `dims[first_dim..]`.
    pub(crate) fn push_decl(&mut self, name: Span, span: Span, first_dim: usize) {
        let dims = Run::since(first_dim, self.dims.len());
        self.decls.push(Decl { name, span, dims });
    }

    /// A loop whose levels are `levels[first_level..]` and whose body
    /// is `body`.
    pub(crate) fn loop_from(&self, first_level: usize, body: Run) -> ForLoop {
        ForLoop {
            span: self.levels[first_level].span,
            levels: Run::since(first_level, self.levels.len()),
            body,
        }
    }

    /// The source text of `span`, e.g. a name.
    pub fn text(&self, span: Span) -> &'s str {
        &self.source[span.start..span.end]
    }

    /// The unit's `array` declarations, in source order.
    pub fn decls(&self) -> &[Decl] {
        &self.decls
    }

    /// The declaration of `array`, if any.
    pub fn decl(&self, array: &str) -> Option<&Decl> {
        self.decls.iter().find(|d| self.text(d.name) == array)
    }

    /// A declaration's extents, outermost first; each is positive.
    pub fn dims(&self, decl: &Decl) -> &[i64] {
        &self.dims[decl.dims.range()]
    }

    /// A loop's levels, outermost first.
    pub fn levels(&self, ast: &ForLoop) -> &[Level] {
        &self.levels[ast.levels.range()]
    }

    /// The statements of a loop's innermost body.
    pub fn body(&self, ast: &ForLoop) -> &[Stmt] {
        &self.stmts[ast.body.range()]
    }

    /// The expression node `id`.
    pub fn expr(&self, id: ExprId) -> Expr<'_> {
        match self.nodes[id.0 as usize] {
            Node::Num(n) => Expr::Num(n),
            Node::Var(name) => Expr::Var(self.text(name)),
            Node::Index { array, subscripts } => Expr::Index {
                array: self.text(array),
                subscripts: &self.operands[subscripts.range()],
            },
            Node::Neg(e) => Expr::Neg(e),
            Node::Chain { operands, ops_at } => {
                let operands = &self.operands[operands.range()];
                let ops_at = ops_at as usize;
                Expr::Chain {
                    first: operands[0],
                    ops: &self.ops[ops_at..ops_at + operands.len() - 1],
                    rest: &operands[1..],
                }
            }
        }
    }

    /// Visits every array reference of `id` in evaluation order
    /// (depth-first, left-to-right), calling `f(array_name, subscripts)`.
    pub fn visit_indices<'a>(&'a self, id: ExprId, f: &mut impl FnMut(&'a str, &'a [ExprId])) {
        match self.expr(id) {
            Expr::Num(_) | Expr::Var(_) => {}
            // Index sub-expressions are address arithmetic, not memory
            // accesses; they are intentionally not visited.
            Expr::Index { array, subscripts } => f(array, subscripts),
            Expr::Neg(e) => self.visit_indices(e, f),
            Expr::Chain { first, rest, .. } => {
                self.visit_indices(first, f);
                for &e in rest {
                    self.visit_indices(e, f);
                }
            }
        }
    }

    /// Constant-folds an expression; `None` if it references any
    /// variable or array, or overflows `i64`.
    pub(crate) fn const_eval(&self, id: ExprId) -> Option<i64> {
        match self.expr(id) {
            Expr::Num(n) => Some(n),
            Expr::Var(_) | Expr::Index { .. } => None,
            Expr::Neg(e) => self.const_eval(e)?.checked_neg(),
            Expr::Chain { first, ops, rest } => {
                ops.iter()
                    .zip(rest)
                    .try_fold(self.const_eval(first)?, |l, (op, &e)| {
                        let r = self.const_eval(e)?;
                        match op {
                            BinOp::Add => l.checked_add(r),
                            BinOp::Sub => l.checked_sub(r),
                            BinOp::Mul => l.checked_mul(r),
                            BinOp::Div if r == 0 => None,
                            BinOp::Div => l.checked_div(r),
                        }
                    })
            }
        }
    }

    /// Renders an expression as source text, parenthesized where the
    /// tree needs it.
    pub fn display_expr(&self, id: ExprId) -> Shown<'_, ExprId> {
        Shown {
            unit: self,
            item: id,
        }
    }

    /// Renders a statement as source text, e.g. `y[i] += x[i + 1];`.
    pub fn display_stmt(&self, stmt: &Stmt) -> Shown<'_, Stmt> {
        Shown {
            unit: self,
            item: *stmt,
        }
    }

    /// The operator applied last in `id`, if any.
    fn last_op(&self, id: ExprId) -> Option<BinOp> {
        match self.expr(id) {
            Expr::Chain { ops, .. } => ops.last().copied(),
            _ => None,
        }
    }

    fn write_expr(&self, f: &mut fmt::Formatter<'_>, id: ExprId) -> fmt::Result {
        match self.expr(id) {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Var(v) => f.write_str(v),
            Expr::Index { array, subscripts } => {
                f.write_str(array)?;
                for &index in subscripts {
                    f.write_str("[")?;
                    self.write_expr(f, index)?;
                    f.write_str("]")?;
                }
                Ok(())
            }
            Expr::Neg(e) => {
                f.write_str("-(")?;
                self.write_expr(f, e)?;
                f.write_str(")")
            }
            Expr::Chain { first, ops, rest } => {
                // A sum operand of a product is parenthesized, and so is
                // any operation right of `-`, `*` or `/` (`a * (b / c)`
                // is not `a * b / c` in integers). The operand left of
                // `rest[k]` is everything before it.
                let sum = |op: Option<BinOp>| matches!(op, Some(BinOp::Add | BinOp::Sub));
                let product = |op: BinOp| matches!(op, BinOp::Mul | BinOp::Div);
                let wraps_left = |k: usize| {
                    let before = if k == 0 {
                        self.last_op(first)
                    } else {
                        Some(ops[k - 1])
                    };
                    product(ops[k]) && sum(before)
                };
                for _ in (0..ops.len()).filter(|&k| wraps_left(k)) {
                    f.write_str("(")?;
                }
                self.write_expr(f, first)?;
                for (k, (&op, &e)) in ops.iter().zip(rest).enumerate() {
                    if wraps_left(k) {
                        f.write_str(")")?;
                    }
                    write!(f, " {op} ")?;
                    let wrap = op != BinOp::Add && self.last_op(e).is_some();
                    if wrap {
                        f.write_str("(")?;
                    }
                    self.write_expr(f, e)?;
                    if wrap {
                        f.write_str(")")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// The vector sizes a parse reserves: bounds on what it can push, so
/// no vector grows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Capacity {
    pub(crate) decls: usize,
    pub(crate) dims: usize,
    pub(crate) levels: usize,
    pub(crate) stmts: usize,
    /// Bounds the nodes, and so the operand list, which holds each node
    /// at most once.
    pub(crate) nodes: usize,
    pub(crate) ops: usize,
}

/// An expression or statement of a unit, rendered as source text by
/// its `Display` implementation ([`Unit::display_expr`],
/// [`Unit::display_stmt`]).
#[derive(Debug, Clone, Copy)]
pub struct Shown<'a, T> {
    unit: &'a Unit<'a>,
    item: T,
}

impl fmt::Display for Shown<'_, ExprId> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.unit.write_expr(f, self.item)
    }
}

impl fmt::Display for Shown<'_, Stmt> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stmt = &self.item;
        self.unit.write_expr(f, stmt.lhs)?;
        write!(f, " {} ", stmt.op)?;
        self.unit.write_expr(f, stmt.rhs)?;
        f.write_str(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_for, parse_unit};

    /// The first statement of a one-statement loop, printed.
    fn reprinted(stmt: &str) -> String {
        let source = format!("for (i = 0; i < 4; i++) {{ {stmt} }}");
        let (unit, ast) = parse_for(&source).unwrap();
        unit.display_stmt(&unit.body(&ast)[0]).to_string()
    }

    #[test]
    fn expr_display_parenthesizes_by_precedence() {
        assert_eq!(reprinted("s = ((i + 1)) * c;"), "s = (i + 1) * c;");
        assert_eq!(reprinted("s = a + (b * 2);"), "s = a + b * 2;");
        // A chain's right operand keeps its parentheses after `-` and
        // `/`, and a product's sum operand after `*`.
        assert_eq!(reprinted("s = a - (b - c);"), "s = a - (b - c);");
        assert_eq!(reprinted("s = (a - b) - c;"), "s = a - b - c;");
        assert_eq!(reprinted("s = a / (b * c);"), "s = a / (b * c);");
        assert_eq!(reprinted("s = a * (b + c);"), "s = a * (b + c);");
        assert_eq!(reprinted("s = a * (b / c);"), "s = a * (b / c);");
        assert_eq!(reprinted("s = a * (b * c);"), "s = a * (b * c);");
        assert_eq!(reprinted("s = (a / b) * c;"), "s = a / b * c;");
        assert_eq!(reprinted("s = a + (b * c - d);"), "s = a + b * c - d;");
        assert_eq!(
            reprinted("s = ((a + b) * c - d) / (e + f);"),
            "s = ((a + b) * c - d) / (e + f);"
        );
        assert_eq!(reprinted("s = -x[i] - -(2);"), "s = -(x[i]) - -(2);");
    }

    #[test]
    fn stmt_display_round_trips_symbols() {
        assert_eq!(reprinted("A[i] += 3;"), "A[i] += 3;");
        assert_eq!(reprinted("t *= 3 ;"), "t *= 3;");
    }

    #[test]
    fn multi_dim_subscripts_display_as_chains() {
        assert_eq!(reprinted("s = x[i][j+1];"), "s = x[i][j + 1];");
        assert_eq!(reprinted("y[j][i] = 0;"), "y[j][i] = 0;");
    }

    #[test]
    fn visit_indices_is_left_to_right_and_skips_subscripts() {
        let (unit, ast) =
            parse_for("for (i = 0; i < 4; i++) { s = A[B[i]] + -(C[0] * D[i]); }").unwrap();
        let mut seen = Vec::new();
        unit.visit_indices(unit.body(&ast)[0].rhs, &mut |name, subscripts| {
            seen.push((name, subscripts.len()));
        });
        assert_eq!(seen, [("A", 1), ("C", 1), ("D", 1)]);
    }

    #[test]
    fn expr_shows_names_subscripts_and_chains() {
        let (unit, ast) =
            parse_for("for (i = 0; i < 4; i++) { m[i][2] = a - b * 2 + 7; }").unwrap();
        let stmt = unit.body(&ast)[0];
        let Expr::Index { array, subscripts } = unit.expr(stmt.lhs) else {
            panic!("an element target");
        };
        assert_eq!((array, subscripts.len()), ("m", 2));
        assert_eq!(unit.expr(subscripts[0]), Expr::Var("i"));
        assert_eq!(unit.expr(subscripts[1]), Expr::Num(2));
        let Expr::Chain { first, ops, rest } = unit.expr(stmt.rhs) else {
            panic!("a sum");
        };
        assert_eq!(unit.expr(first), Expr::Var("a"));
        assert_eq!(ops, [BinOp::Sub, BinOp::Add]);
        assert!(matches!(
            unit.expr(rest[0]),
            Expr::Chain {
                ops: [BinOp::Mul],
                ..
            }
        ));
        assert_eq!(unit.expr(rest[1]), Expr::Num(7));
    }

    #[test]
    fn update_strides() {
        assert_eq!(Update::Increment.stride(), 1);
        assert_eq!(Update::Decrement.stride(), -1);
        assert_eq!(Update::Step(-3).stride(), -3);
    }

    #[test]
    fn nest_helpers_read_the_levels_and_the_innermost_body() {
        let (unit, loops) = parse_unit(
            "array x[2][4];
             for (i = 0; i < 2; i++) { for (j = 0; j < 4; j++) { x[i][j] = 1; s += 2; } }
             for (k = 0; k < 3; k++) { s += 3; }",
        )
        .unwrap();
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].depth(), 2);
        let vars: Vec<&str> = unit
            .levels(&loops[0])
            .iter()
            .map(|l| unit.text(l.var))
            .collect();
        assert_eq!(vars, ["i", "j"]);
        assert_eq!(unit.body(&loops[0]).len(), 2);
        assert_eq!(loops[1].depth(), 1);
        assert_eq!(unit.text(unit.levels(&loops[1])[0].var), "k");
        assert_eq!(unit.body(&loops[1]).len(), 1);
        let decl = unit.decl("x").expect("declared");
        assert_eq!(unit.dims(decl), [2, 4]);
        assert_eq!(unit.text(decl.span), "array x[2][4];");
        assert!(unit.decl("y").is_none());
    }

    #[test]
    fn assign_op_reads_lhs() {
        assert!(!AssignOp::Assign.reads_lhs());
        assert!(AssignOp::AddAssign.reads_lhs());
        assert!(AssignOp::SubAssign.reads_lhs());
        assert!(AssignOp::MulAssign.reads_lhs());
    }
}
