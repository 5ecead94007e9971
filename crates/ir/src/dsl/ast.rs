//! Abstract syntax tree of the loop DSL.
//!
//! The AST mirrors the source closely so that loops can be pretty-printed
//! back (see [`crate::pretty`]) and inspected by tools. Lowering to the
//! flat [`crate::LoopSpec`] happens in [`crate::dsl::lower_loop`].

use std::fmt;

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

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// Scalar variable (or an induction variable).
    Var(String),
    /// Array element `array[i1][i2]…` (one subscript per dimension).
    Index {
        /// Array name.
        array: String,
        /// Subscript expressions, outermost dimension first. Each must
        /// be affine in the induction variables to lower; never empty.
        indices: Vec<Expr>,
    },
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// A left-associative operator chain `first op1 e1 op2 e2 …`,
    /// evaluated left to right as `((first op1 e1) op2 e2) …`. The parser
    /// makes one node per run of same-precedence operators, so a long
    /// sum is one node, not one level per operator, and no pass recurses
    /// along it.
    Chain {
        /// Leftmost operand.
        first: Box<Expr>,
        /// Every further operand with the operator before it, in order.
        rest: Vec<(BinOp, Expr)>,
    },
}

impl Expr {
    /// Convenience constructor for one binary operation `lhs op rhs`.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Chain {
            first: Box::new(lhs),
            rest: vec![(op, rhs)],
        }
    }

    /// Convenience constructor for a one-dimensional array element.
    pub fn index(array: impl Into<String>, index: Expr) -> Expr {
        Expr::Index {
            array: array.into(),
            indices: vec![index],
        }
    }

    /// The operator applied last, if any.
    fn last_op(&self) -> Option<BinOp> {
        match self {
            Expr::Chain { first, rest } => rest
                .last()
                .map_or_else(|| first.last_op(), |&(op, _)| Some(op)),
            _ => None,
        }
    }

    /// Visits every array reference in evaluation order (depth-first,
    /// left-to-right), calling `f(array_name, subscripts)`.
    pub fn visit_indices<'a>(&'a self, f: &mut impl FnMut(&'a str, &'a [Expr])) {
        match self {
            Expr::Num(_) | Expr::Var(_) => {}
            Expr::Index { array, indices } => {
                // Index sub-expressions are address arithmetic, not memory
                // accesses; they are intentionally not visited.
                f(array, indices);
            }
            Expr::Neg(e) => e.visit_indices(f),
            Expr::Chain { first, rest } => {
                first.visit_indices(f);
                for (_, e) in rest {
                    e.visit_indices(f);
                }
            }
        }
    }
}

/// Formats `[i1][i2]…` subscript chains.
fn write_subscripts(f: &mut fmt::Formatter<'_>, indices: &[Expr]) -> fmt::Result {
    for index in indices {
        write!(f, "[{index}]")?;
    }
    Ok(())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Var(v) => f.write_str(v),
            Expr::Index { array, indices } => {
                f.write_str(array)?;
                write_subscripts(f, indices)
            }
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Chain { first, rest } => {
                // A sum operand of a product is parenthesized, and so is
                // any operation right of `-` or `/`. The operand left of
                // `rest[k]` is everything before it.
                let sum = |op: Option<BinOp>| matches!(op, Some(BinOp::Add | BinOp::Sub));
                let product = |op: BinOp| matches!(op, BinOp::Mul | BinOp::Div);
                let wraps_left = |k: usize| {
                    let before = if k == 0 {
                        first.last_op()
                    } else {
                        Some(rest[k - 1].0)
                    };
                    product(rest[k].0) && sum(before)
                };
                for _ in (0..rest.len()).filter(|&k| wraps_left(k)) {
                    f.write_str("(")?;
                }
                write!(f, "{first}")?;
                for (k, (op, e)) in rest.iter().enumerate() {
                    if wraps_left(k) {
                        f.write_str(")")?;
                    }
                    write!(f, " {op} ")?;
                    let right = e.last_op();
                    if product(*op) && sum(right)
                        || matches!(op, BinOp::Sub | BinOp::Div) && right.is_some()
                    {
                        write!(f, "({e})")?;
                    } else {
                        write!(f, "{e}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Assignment target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// A scalar variable (kept in a data register, no memory access).
    Scalar(String),
    /// An array element.
    Element {
        /// Array name.
        array: String,
        /// Subscript expressions, outermost dimension first; never empty.
        indices: Vec<Expr>,
    },
}

impl LValue {
    /// Convenience constructor for a one-dimensional element target.
    pub fn element(array: impl Into<String>, index: Expr) -> LValue {
        LValue::Element {
            array: array.into(),
            indices: vec![index],
        }
    }
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LValue::Scalar(v) => f.write_str(v),
            LValue::Element { array, indices } => {
                f.write_str(array)?;
                write_subscripts(f, indices)
            }
        }
    }
}

/// One assignment statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stmt {
    /// Assignment target.
    pub lhs: LValue,
    /// Assignment operator.
    pub op: AssignOp,
    /// Right-hand side.
    pub rhs: Expr,
    /// Byte span of the statement in the original source (empty when the
    /// statement was constructed programmatically).
    pub span: super::lexer::Span,
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {};", self.lhs, self.op, self.rhs)
    }
}

/// The loop condition `var <cmp> bound`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side of the comparison (often a symbolic bound like `N`).
    pub bound: Expr,
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

/// A parsed `for` loop, possibly the head of a perfect loop nest.
///
/// A loop body is *either* a list of statements *or* exactly one nested
/// `for` (a perfect nest — the only shape the flattening lowerer
/// accepts); the parser rejects bodies that mix both.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForLoop {
    /// Loop-variable name.
    pub var: String,
    /// Initial value if the init expression is a constant, else `None`
    /// (symbolic starts lower to `0`).
    pub start: Option<i64>,
    /// Raw init expression (for printing).
    pub init: Expr,
    /// Loop condition.
    pub cond: Cond,
    /// Update clause.
    pub update: Update,
    /// Body statements (empty when the body is a nested loop).
    pub body: Vec<Stmt>,
    /// The nested loop, for perfect nests (`None` for statement bodies).
    pub nested: Option<Box<ForLoop>>,
    /// Byte span of the loop header in the original source (empty when
    /// the loop was constructed programmatically).
    pub span: super::lexer::Span,
}

impl ForLoop {
    /// The innermost loop of the nest (`self` for plain loops).
    pub fn innermost(&self) -> &ForLoop {
        let mut current = self;
        while let Some(inner) = &current.nested {
            current = inner;
        }
        current
    }

    /// Nest depth: `1` for a plain loop, `2` for a doubly nested one, …
    pub fn depth(&self) -> usize {
        1 + self.nested.as_ref().map_or(0, |inner| inner.depth())
    }
}

/// An array declaration `array name[d1][d2]…;`.
///
/// Declarations give arrays a shape: subscript chains are checked
/// against the declared rank, and multi-dimensional subscripts linearize
/// row-major using the declared trailing dimensions as strides.
/// Undeclared arrays are one-dimensional.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Decl {
    /// Array name.
    pub name: String,
    /// Dimension extents, outermost first; each is positive.
    pub dims: Vec<i64>,
    /// Byte span of the declaration in the original source.
    pub span: super::lexer::Span,
}

impl fmt::Display for Decl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array {}", self.name)?;
        for d in &self.dims {
            write!(f, "[{d}]")?;
        }
        f.write_str(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_parenthesizes_by_precedence() {
        let e = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::Var("i".into()), Expr::Num(1)),
            Expr::Var("c".into()),
        );
        assert_eq!(e.to_string(), "(i + 1) * c");
        let e = Expr::binary(
            BinOp::Add,
            Expr::Var("a".into()),
            Expr::binary(BinOp::Mul, Expr::Var("b".into()), Expr::Num(2)),
        );
        assert_eq!(e.to_string(), "a + b * 2");
        // A chain that mixes precedences prints as the left-deep tree
        // it evaluates as.
        let var = |v: &str| Expr::Var(v.into());
        let e = Expr::Chain {
            first: Box::new(var("a")),
            rest: vec![
                (BinOp::Add, var("b")),
                (BinOp::Mul, var("c")),
                (BinOp::Sub, var("d")),
                (BinOp::Div, Expr::binary(BinOp::Add, var("e"), var("f"))),
            ],
        };
        assert_eq!(e.to_string(), "((a + b) * c - d) / (e + f)");
    }

    #[test]
    fn stmt_display_round_trips_symbols() {
        let s = Stmt {
            lhs: LValue::element("A", Expr::Var("i".into())),
            op: AssignOp::AddAssign,
            rhs: Expr::Num(3),
            span: Default::default(),
        };
        assert_eq!(s.to_string(), "A[i] += 3;");
    }

    #[test]
    fn multi_dim_subscripts_display_as_chains() {
        let e = Expr::Index {
            array: "x".into(),
            indices: vec![
                Expr::Var("i".into()),
                Expr::binary(BinOp::Add, Expr::Var("j".into()), Expr::Num(1)),
            ],
        };
        assert_eq!(e.to_string(), "x[i][j + 1]");
        let lv = LValue::Element {
            array: "y".into(),
            indices: vec![Expr::Var("j".into()), Expr::Var("i".into())],
        };
        assert_eq!(lv.to_string(), "y[j][i]");
    }

    #[test]
    fn visit_indices_is_left_to_right() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::index("A", Expr::Var("i".into())),
            Expr::index("B", Expr::Num(0)),
        );
        let mut seen = Vec::new();
        e.visit_indices(&mut |name, _| seen.push(name.to_owned()));
        assert_eq!(seen, vec!["A", "B"]);
    }

    #[test]
    fn update_strides() {
        assert_eq!(Update::Increment.stride(), 1);
        assert_eq!(Update::Decrement.stride(), -1);
        assert_eq!(Update::Step(-3).stride(), -3);
    }

    #[test]
    fn nest_helpers_walk_to_the_innermost_loop() {
        let inner = ForLoop {
            var: "j".into(),
            start: Some(0),
            init: Expr::Num(0),
            cond: Cond {
                op: CmpOp::Lt,
                bound: Expr::Num(4),
            },
            update: Update::Increment,
            body: vec![],
            nested: None,
            span: Default::default(),
        };
        let outer = ForLoop {
            var: "i".into(),
            start: Some(0),
            init: Expr::Num(0),
            cond: Cond {
                op: CmpOp::Lt,
                bound: Expr::Num(2),
            },
            update: Update::Increment,
            body: vec![],
            nested: Some(Box::new(inner)),
            span: Default::default(),
        };
        assert_eq!(outer.depth(), 2);
        assert_eq!(outer.innermost().var, "j");
        let decl = Decl {
            name: "x".into(),
            dims: vec![2, 4],
            span: Default::default(),
        };
        assert_eq!(decl.to_string(), "array x[2][4];");
    }

    #[test]
    fn assign_op_reads_lhs() {
        assert!(!AssignOp::Assign.reads_lhs());
        assert!(AssignOp::AddAssign.reads_lhs());
        assert!(AssignOp::SubAssign.reads_lhs());
        assert!(AssignOp::MulAssign.reads_lhs());
    }
}
