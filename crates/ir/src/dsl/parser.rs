//! Recursive-descent parser for the loop DSL.

use std::fmt;

use super::ast::{
    AssignOp, BinOp, Capacity, CmpOp, Cond, ExprId, ForLoop, Level, Node, Run, Stmt, Unit, Update,
};
use super::lexer::{self, Span, Token, TokenKind};
use super::lower::MAX_LOOP_ACCESSES;

/// The different ways parsing or lowering can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// A character the lexer does not understand.
    UnexpectedChar(char),
    /// A `/* …` comment that never closes.
    UnterminatedComment,
    /// An integer literal that does not fit in `i64`.
    IntegerOverflow,
    /// The parser found `found` where it expected `expected`.
    UnexpectedToken {
        /// Human-readable description of the found token.
        found: String,
        /// Human-readable description of what was expected.
        expected: String,
    },
    /// The loop condition compares a variable other than the loop variable.
    CondVarMismatch {
        /// The loop variable declared in the init clause.
        expected: String,
        /// The variable actually used in the condition.
        found: String,
    },
    /// The update clause changes a variable other than the loop variable.
    UpdateVarMismatch {
        /// The loop variable declared in the init clause.
        expected: String,
        /// The variable actually updated.
        found: String,
    },
    /// The update step is not a compile-time constant.
    NonConstantStride,
    /// The update step is zero.
    ZeroStride,
    /// An index expression references a symbol that is not an induction
    /// variable of the enclosing loop nest (an unbound variable).
    SymbolicIndex(String),
    /// An index expression is not affine in the induction variables
    /// (e.g. `i * i` or `i * j`).
    NonAffineIndex,
    /// An index expression contains a nested array access.
    ArrayInIndex(String),
    /// An index expression contains a division.
    DivisionInIndex,
    /// Affine folding of an index expression overflowed `i64`.
    IndexOverflow,
    /// Accesses to one array use different induction-variable
    /// coefficients.
    MixedCoefficients {
        /// The array name.
        array: String,
        /// Coefficient of the first access.
        first: i64,
        /// Conflicting coefficient.
        second: i64,
    },
    /// A subscript chain does not match the array's declared rank.
    RankMismatch {
        /// The array name.
        array: String,
        /// Rank from the `array` declaration (1 for undeclared arrays).
        expected: usize,
        /// Subscripts actually written.
        found: usize,
    },
    /// A multi-dimensional subscript on an array with no `array`
    /// declaration (so its row strides are unknown).
    UndeclaredArray(String),
    /// The same array is declared twice.
    DuplicateDeclaration(String),
    /// An `array` declaration has a non-constant or non-positive
    /// dimension.
    InvalidDimension(String),
    /// A loop body mixes statements with a nested loop, or contains more
    /// than one nested loop (only perfect nests can be flattened).
    ImperfectNest,
    /// Two levels of a loop nest reuse the same induction variable.
    DuplicateInductionVariable(String),
    /// A nest level's start or bound is not a compile-time constant
    /// (flattening needs constant trip counts).
    NonConstantNestBound(String),
    /// A nest level's condition never terminates or its trip count is
    /// not positive (e.g. `i < 0` from `i = 0` upward).
    DegenerateNestLevel(String),
    /// Parentheses, unary minus, subscripts and `for` loops nest deeper
    /// than [`MAX_NESTING_DEPTH`] levels.
    NestingTooDeep,
    /// A loop makes more than [`MAX_LOOP_ACCESSES`] array accesses per
    /// iteration.
    TooManyAccesses,
    /// The source is longer than `u32::MAX` bytes, the longest a parsed
    /// unit addresses.
    SourceTooLong,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            ParseErrorKind::UnterminatedComment => f.write_str("unterminated block comment"),
            ParseErrorKind::IntegerOverflow => f.write_str("integer literal overflows i64"),
            ParseErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "found {found}, expected {expected}")
            }
            ParseErrorKind::CondVarMismatch { expected, found } => write!(
                f,
                "loop condition tests `{found}` but the loop variable is `{expected}`"
            ),
            ParseErrorKind::UpdateVarMismatch { expected, found } => write!(
                f,
                "loop update changes `{found}` but the loop variable is `{expected}`"
            ),
            ParseErrorKind::NonConstantStride => {
                f.write_str("loop update step must be a constant")
            }
            ParseErrorKind::ZeroStride => f.write_str("loop update step must be non-zero"),
            ParseErrorKind::SymbolicIndex(name) => {
                write!(f, "index uses symbol `{name}` which is not the loop variable")
            }
            ParseErrorKind::NonAffineIndex => {
                f.write_str("index expression is not affine in the loop variable")
            }
            ParseErrorKind::ArrayInIndex(name) => {
                write!(f, "index expression contains array access `{name}[…]`")
            }
            ParseErrorKind::DivisionInIndex => {
                f.write_str("division is not supported in index expressions")
            }
            ParseErrorKind::IndexOverflow => f.write_str("index expression overflows i64"),
            ParseErrorKind::MixedCoefficients {
                array,
                first,
                second,
            } => write!(
                f,
                "array `{array}` is indexed with mixed loop-variable coefficients {first} and {second}"
            ),
            ParseErrorKind::RankMismatch {
                array,
                expected,
                found,
            } => write!(
                f,
                "array `{array}` has rank {expected} but is subscripted with {found} index(es)"
            ),
            ParseErrorKind::UndeclaredArray(name) => write!(
                f,
                "array `{name}` needs an `array {name}[…]…;` declaration before it can take multi-dimensional subscripts"
            ),
            ParseErrorKind::DuplicateDeclaration(name) => {
                write!(f, "array `{name}` is declared twice")
            }
            ParseErrorKind::InvalidDimension(name) => write!(
                f,
                "array `{name}` has a non-constant or non-positive dimension"
            ),
            ParseErrorKind::ImperfectNest => f.write_str(
                "loop bodies must be either statements or exactly one nested loop (perfect nests only)",
            ),
            ParseErrorKind::DuplicateInductionVariable(name) => {
                write!(f, "induction variable `{name}` is reused by an outer loop")
            }
            ParseErrorKind::NonConstantNestBound(var) => write!(
                f,
                "loop over `{var}` needs constant start and bound to flatten the nest"
            ),
            ParseErrorKind::DegenerateNestLevel(var) => write!(
                f,
                "loop over `{var}` has no iterations, never terminates, or uses a condition the nest flattener does not support"
            ),
            ParseErrorKind::NestingTooDeep => write!(f, "nesting deeper than {MAX_NESTING_DEPTH} levels"),
            ParseErrorKind::TooManyAccesses => write!(
                f,
                "loop makes more than {MAX_LOOP_ACCESSES} array accesses per iteration"
            ),
            ParseErrorKind::SourceTooLong => {
                write!(f, "source is longer than {} bytes", u32::MAX)
            }
        }
    }
}

/// A parse or lowering error with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    kind: ParseErrorKind,
    span: Span,
    line: usize,
    col: usize,
}

impl ParseError {
    pub(crate) fn new(kind: ParseErrorKind, span: Span, source: &str) -> Self {
        let (line, col) = span.line_col(source);
        ParseError {
            kind,
            span,
            line,
            col,
        }
    }

    /// What went wrong.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }

    /// The byte span of the offending source region.
    pub fn span(&self) -> Span {
        self.span
    }

    /// 1-based line of the error.
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based column of the error.
    pub fn column(&self) -> usize {
        self.col
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}:{}: {}", self.line, self.col, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// A lowering error that has not yet been resolved against source text.
///
/// [`crate::dsl::lower_unit_loop`] returns this error: it names the
/// offending span, and [`LowerError::attach_source`] upgrades it to a
/// [`ParseError`] with line/column information, a scan of the source
/// that only a failed lowering pays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    kind: ParseErrorKind,
    span: Span,
}

impl LowerError {
    pub(crate) fn new(kind: ParseErrorKind, span: Span) -> Self {
        LowerError { kind, span }
    }

    /// What went wrong.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }

    /// Byte span of the offending statement or loop header in the
    /// source.
    pub fn span(&self) -> Span {
        self.span
    }

    /// Resolves the span against `source`, producing a [`ParseError`] with
    /// line/column information.
    pub fn attach_source(self, source: &str) -> ParseError {
        ParseError::new(self.kind, self.span, source)
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.kind)
    }
}

impl std::error::Error for LowerError {}

/// How deep parentheses, unary minus, subscripts and `for` loops may
/// nest, counted together. The parser and the passes after it recurse
/// once per such level (a run of binary operators is one
/// [`Expr::Chain`](super::Expr::Chain) node, walked in a loop, however
/// long): unbounded, one hostile source overflows the thread's stack,
/// which no `catch_unwind` catches. Kernels nest a few levels.
pub const MAX_NESTING_DEPTH: usize = 128;

pub(crate) struct Parser<'s> {
    unit: Unit<'s>,
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open around the current token.
    depth: usize,
    /// The operands of the chains and subscript lists still being
    /// parsed, innermost last. Each moves to the unit's operand list as
    /// one run when its chain or list closes.
    pending: Vec<ExprId>,
    /// The operators of the chains still being parsed, likewise.
    pending_ops: Vec<BinOp>,
}

impl<'s> Parser<'s> {
    pub(crate) fn new(source: &'s str) -> Result<Self, ParseError> {
        let tokens =
            lexer::tokenize(source).map_err(|(kind, span)| ParseError::new(kind, span, source))?;
        // Each node is made at a token of its own (a literal, a name,
        // a unary minus or a chain's first operator), so the token kinds
        // bound every vector the parse fills.
        let mut capacity = Capacity::default();
        for token in &tokens {
            match token.kind {
                TokenKind::Int | TokenKind::Ident => capacity.nodes += 1,
                TokenKind::Plus | TokenKind::Minus | TokenKind::Star | TokenKind::Slash => {
                    capacity.nodes += 1;
                    capacity.ops += 1;
                }
                TokenKind::KwFor => capacity.levels += 1,
                TokenKind::KwArray => capacity.decls += 1,
                TokenKind::LBracket => capacity.dims += 1,
                TokenKind::Semi => capacity.stmts += 1,
                _ => {}
            }
        }
        if capacity.decls == 0 {
            capacity.dims = 0;
        }
        Ok(Parser {
            unit: Unit::with_capacity(source, capacity),
            tokens,
            pos: 0,
            depth: 0,
            pending: Vec::with_capacity(capacity.nodes),
            pending_ops: Vec::with_capacity(capacity.ops),
        })
    }

    fn source(&self) -> &'s str {
        self.unit.source
    }

    fn peek(&self) -> Token {
        self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Runs `parse` one level deeper, or fails at `span` past the limit.
    fn nested<T>(
        &mut self,
        span: Span,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.error(ParseErrorKind::NestingTooDeep, span));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn error(&self, kind: ParseErrorKind, span: Span) -> ParseError {
        ParseError::new(kind, span, self.source())
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        let t = self.peek();
        self.error(
            ParseErrorKind::UnexpectedToken {
                found: t.describe(self.source()),
                expected: expected.to_owned(),
            },
            t.span(),
        )
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Token, ParseError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Consumes an identifier and returns its text, borrowed from the
    /// source, and span.
    fn expect_ident(&mut self, what: &str) -> Result<(&'s str, Span), ParseError> {
        let t = self.expect(TokenKind::Ident, what)?;
        Ok((t.text(self.source()), t.span()))
    }

    /// Moves the pending operands from `mark` on to the unit's operand
    /// list, as one run.
    fn close_run(&mut self, mark: usize) -> Run {
        let start = self.unit.operands.len();
        self.unit.operands.extend(self.pending.drain(mark..));
        Run::since(start, self.unit.operands.len())
    }

    /// Parses a complete `for` loop (possibly a nest); trailing tokens
    /// are an error. Array declarations are *not* accepted here — use
    /// [`Parser::parse_unit`] for sources with declarations.
    pub(crate) fn parse_for_loop(mut self) -> Result<(Unit<'s>, ForLoop), ParseError> {
        let ast = self.parse_one_for()?;
        if self.peek().kind != TokenKind::Eof {
            return Err(self.unexpected("end of input"));
        }
        Ok((self.unit, ast))
    }

    /// Parses a whole compilation unit: array declarations interleaved
    /// with one or more `for` loops (nests). Declarations scope over the
    /// entire unit.
    pub(crate) fn parse_unit(mut self) -> Result<(Unit<'s>, Vec<ForLoop>), ParseError> {
        let mut loops = Vec::with_capacity(self.unit.levels.capacity());
        loop {
            match self.peek().kind {
                TokenKind::KwArray => self.parse_decl()?,
                TokenKind::KwFor => loops.push(self.parse_one_for()?),
                TokenKind::Eof if !loops.is_empty() => return Ok((self.unit, loops)),
                // Declarations alone are not a program.
                TokenKind::Eof => return Err(self.unexpected("a `for` loop")),
                _ => return Err(self.unexpected("`array`, `for` or end of input")),
            }
        }
    }

    /// Parses `array name[d1][d2]…;`.
    fn parse_decl(&mut self) -> Result<(), ParseError> {
        let start = self.expect(TokenKind::KwArray, "`array`")?.span();
        let (name, name_span) = self.expect_ident("array name")?;
        let first_dim = self.unit.dims.len();
        while self.peek().kind == TokenKind::LBracket {
            self.bump();
            let dim_expr = self.parse_expr()?;
            let close = self.expect(TokenKind::RBracket, "`]`")?;
            let span = Span::new(start.start, close.span().end);
            match self.unit.const_eval(dim_expr) {
                Some(d) if d > 0 => self.unit.dims.push(d),
                _ => {
                    return Err(self.error(ParseErrorKind::InvalidDimension(name.to_owned()), span))
                }
            }
        }
        if self.unit.dims.len() == first_dim {
            return Err(self.unexpected("`[` (array declarations need dimensions)"));
        }
        let end = self.expect(TokenKind::Semi, "`;` after array declaration")?;
        let span = Span::new(start.start, end.span().end);
        if self.unit.decl(name).is_some() {
            return Err(self.error(ParseErrorKind::DuplicateDeclaration(name.to_owned()), span));
        }
        self.unit.push_decl(name_span, span, first_dim);
        Ok(())
    }

    /// Parses one `for` loop (a nesting level) and the loops it nests.
    fn parse_one_for(&mut self) -> Result<ForLoop, ParseError> {
        let span = self.peek().span();
        let first_level = self.unit.levels.len();
        let body = self.nested(span, Self::parse_for_level)?;
        Ok(self.unit.loop_from(first_level, body))
    }

    /// Parses one level's header, then its body: the level is pushed
    /// before the levels it nests, so a nest's levels are one run.
    /// Returns the run of the innermost body's statements.
    fn parse_for_level(&mut self) -> Result<Run, ParseError> {
        let for_span = self.expect(TokenKind::KwFor, "`for`")?.span();
        self.expect(TokenKind::LParen, "`(`")?;

        // init: var = expr
        let (var, var_span) = self.expect_ident("loop variable")?;
        self.expect(TokenKind::Assign, "`=` in loop init")?;
        let init = self.parse_expr()?;
        let start = self.unit.const_eval(init);
        self.expect(TokenKind::Semi, "`;` after loop init")?;

        // cond: var <cmp> expr
        let (cond_var, cond_span) = self.expect_ident("loop variable in condition")?;
        if cond_var != var {
            return Err(self.error(
                ParseErrorKind::CondVarMismatch {
                    expected: var.to_owned(),
                    found: cond_var.to_owned(),
                },
                cond_span,
            ));
        }
        let op = match self.peek().kind {
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::EqEq => CmpOp::Eq,
            _ => return Err(self.unexpected("comparison operator")),
        };
        self.bump();
        let bound = self.parse_expr()?;
        self.expect(TokenKind::Semi, "`;` after loop condition")?;

        // update
        let update = self.parse_update(var)?;
        let header_end = self.expect(TokenKind::RParen, "`)` after loop header")?;
        self.unit.levels.push(Level {
            var: var_span,
            start,
            init,
            cond: Cond { op, bound },
            update,
            span: Span::new(for_span.start, header_end.span().end),
        });

        // body: either statements or exactly one nested for.
        self.expect(TokenKind::LBrace, "`{`")?;
        let first_stmt = self.unit.stmts.len();
        let mut nested: Option<Run> = None;
        while self.peek().kind != TokenKind::RBrace {
            match self.peek().kind {
                TokenKind::Eof => return Err(self.unexpected("`}`, a statement or `for`")),
                TokenKind::KwFor => {
                    let span = self.peek().span();
                    if nested.is_some() || self.unit.stmts.len() > first_stmt {
                        return Err(self.error(ParseErrorKind::ImperfectNest, span));
                    }
                    nested = Some(self.parse_one_for()?.body);
                }
                _ => {
                    if nested.is_some() {
                        let span = self.peek().span();
                        return Err(self.error(ParseErrorKind::ImperfectNest, span));
                    }
                    let stmt = self.parse_stmt()?;
                    self.unit.stmts.push(stmt);
                }
            }
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(nested.unwrap_or_else(|| Run::since(first_stmt, self.unit.stmts.len())))
    }

    fn parse_update(&mut self, var: &str) -> Result<Update, ParseError> {
        let (name, span) = self.expect_ident("loop variable in update")?;
        self.expect_loop_var(name, span, var)?;
        let step = match self.peek().kind {
            TokenKind::PlusPlus => {
                self.bump();
                return Ok(Update::Increment);
            }
            TokenKind::MinusMinus => {
                self.bump();
                return Ok(Update::Decrement);
            }
            TokenKind::PlusAssign => {
                self.bump();
                let e = self.parse_expr()?;
                self.unit.const_eval(e)
            }
            TokenKind::MinusAssign => {
                self.bump();
                let e = self.parse_expr()?;
                self.unit.const_eval(e).and_then(i64::checked_neg)
            }
            TokenKind::Assign => {
                // i = i + k  |  i = i - k
                self.bump();
                let (name2, span2) = self.expect_ident("loop variable")?;
                self.expect_loop_var(name2, span2, var)?;
                let negate = match self.peek().kind {
                    TokenKind::Plus => false,
                    TokenKind::Minus => true,
                    _ => return Err(self.unexpected("`+` or `-` in loop update")),
                };
                self.bump();
                let e = self.parse_expr()?;
                let k = self.unit.const_eval(e);
                if negate {
                    k.and_then(i64::checked_neg)
                } else {
                    k
                }
            }
            _ => return Err(self.unexpected("`++`, `--`, `+=`, `-=` or `=` in loop update")),
        };
        match step {
            Some(0) => Err(self.error(ParseErrorKind::ZeroStride, span)),
            Some(k) => Ok(Update::Step(k)),
            None => Err(self.error(ParseErrorKind::NonConstantStride, span)),
        }
    }

    /// Checks that the update clause's identifier `found` (at `span`) is
    /// the loop variable `var`.
    fn expect_loop_var(&self, found: &str, span: Span, var: &str) -> Result<(), ParseError> {
        if found == var {
            return Ok(());
        }
        Err(self.error(
            ParseErrorKind::UpdateVarMismatch {
                expected: var.to_owned(),
                found: found.to_owned(),
            },
            span,
        ))
    }

    /// Parses the name just consumed (`name`) as a scalar or, with a
    /// `[e1][e2]…` subscript list, an array element.
    fn parse_named(&mut self, name: Span) -> Result<ExprId, ParseError> {
        if self.peek().kind != TokenKind::LBracket {
            return Ok(self.unit.push(Node::Var(name)));
        }
        let mark = self.pending.len();
        while self.peek().kind == TokenKind::LBracket {
            let open = self.bump().span();
            let index = self.nested(open, Self::parse_expr)?;
            self.pending.push(index);
            self.expect(TokenKind::RBracket, "`]`")?;
        }
        let subscripts = self.close_run(mark);
        Ok(self.unit.push(Node::Index {
            array: name,
            subscripts,
        }))
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let (_, start_span) = self.expect_ident("a statement")?;
        let lhs = self.parse_named(start_span)?;
        let op = match self.peek().kind {
            TokenKind::Assign => AssignOp::Assign,
            TokenKind::PlusAssign => AssignOp::AddAssign,
            TokenKind::MinusAssign => AssignOp::SubAssign,
            TokenKind::StarAssign => AssignOp::MulAssign,
            _ => return Err(self.unexpected("assignment operator")),
        };
        self.bump();
        let rhs = self.parse_expr()?;
        let end = self.expect(TokenKind::Semi, "`;` after statement")?;
        Ok(Stmt {
            lhs,
            op,
            rhs,
            span: Span::new(start_span.start, end.span().end),
        })
    }

    fn parse_expr(&mut self) -> Result<ExprId, ParseError> {
        self.parse_chain(Self::parse_term, |kind| match kind {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn parse_term(&mut self) -> Result<ExprId, ParseError> {
        self.parse_chain(Self::parse_factor, |kind| match kind {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// Parses `operand (op operand)*` for the operators `op_of` maps to,
    /// as one chain node, or the lone operand when there is no operator.
    fn parse_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<ExprId, ParseError>,
        op_of: fn(TokenKind) -> Option<BinOp>,
    ) -> Result<ExprId, ParseError> {
        let first = operand(self)?;
        if op_of(self.peek().kind).is_none() {
            return Ok(first);
        }
        let (mark, ops_mark) = (self.pending.len(), self.pending_ops.len());
        self.pending.push(first);
        while let Some(op) = op_of(self.peek().kind) {
            self.bump();
            self.pending_ops.push(op);
            let next = operand(self)?;
            self.pending.push(next);
        }
        let operands = self.close_run(mark);
        let ops_at = self.unit.ops.len() as u32;
        self.unit.ops.extend(self.pending_ops.drain(ops_mark..));
        Ok(self.unit.push(Node::Chain { operands, ops_at }))
    }

    fn parse_factor(&mut self) -> Result<ExprId, ParseError> {
        let t = self.peek();
        match t.kind {
            TokenKind::Int => {
                self.bump();
                let n = t.value(self.source());
                Ok(self.unit.push(Node::Num(n)))
            }
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(t.span(), Self::parse_factor)?;
                Ok(self.unit.push(Node::Neg(operand)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(t.span(), Self::parse_expr)?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident => {
                self.bump();
                self.parse_named(t.span())
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::Expr;

    fn parse(src: &str) -> (Unit<'_>, ForLoop) {
        Parser::new(src).unwrap().parse_for_loop().unwrap()
    }

    /// The header of a single loop.
    fn level(src: &str) -> Level {
        let (unit, ast) = parse(src);
        unit.levels(&ast)[0]
    }

    fn parse_err(src: &str) -> ParseError {
        match Parser::new(src) {
            Ok(p) => p.parse_for_loop().unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn parses_all_update_forms() {
        assert_eq!(
            level("for (i = 0; i < 9; i++) { }").update,
            Update::Increment
        );
        assert_eq!(
            level("for (i = 9; i > 0; i--) { }").update,
            Update::Decrement
        );
        assert_eq!(
            level("for (i = 0; i < 9; i += 2) { }").update,
            Update::Step(2)
        );
        assert_eq!(
            level("for (i = 9; i > 0; i -= 3) { }").update,
            Update::Step(-3)
        );
        assert_eq!(
            level("for (i = 0; i < 9; i = i + 4) { }").update,
            Update::Step(4)
        );
        assert_eq!(
            level("for (i = 9; i > 0; i = i - 1) { }").update,
            Update::Step(-1)
        );
    }

    #[test]
    fn rejects_zero_and_symbolic_strides() {
        assert_eq!(
            *parse_err("for (i = 0; i < 9; i += 0) { }").kind(),
            ParseErrorKind::ZeroStride
        );
        assert_eq!(
            *parse_err("for (i = 0; i < 9; i += n) { }").kind(),
            ParseErrorKind::NonConstantStride
        );
    }

    #[test]
    fn rejects_mismatched_condition_and_update_variables() {
        assert!(matches!(
            parse_err("for (i = 0; j < 9; i++) { }").kind(),
            ParseErrorKind::CondVarMismatch { .. }
        ));
        assert!(matches!(
            parse_err("for (i = 0; i < 9; j++) { }").kind(),
            ParseErrorKind::UpdateVarMismatch { .. }
        ));
        assert!(matches!(
            parse_err("for (i = 0; i < 9; i = j + 1) { }").kind(),
            ParseErrorKind::UpdateVarMismatch { .. }
        ));
    }

    #[test]
    fn captures_constant_and_symbolic_starts() {
        assert_eq!(level("for (i = 2; i <= 9; i++) { }").start, Some(2));
        assert_eq!(level("for (i = 1 + 1; i <= 9; i++) { }").start, Some(2));
        assert_eq!(level("for (i = n0; i <= 9; i++) { }").start, None);
    }

    #[test]
    fn parses_statement_shapes() {
        let (unit, ast) = parse(
            "for (i = 0; i < 9; i++) {
                s = A[i] * 2;
                A[i + 1] += s - 1;
                t *= 3;
            }",
        );
        let printed: Vec<String> = unit
            .body(&ast)
            .iter()
            .map(|stmt| unit.display_stmt(stmt).to_string())
            .collect();
        assert_eq!(printed, ["s = A[i] * 2;", "A[i + 1] += s - 1;", "t *= 3;"]);
    }

    #[test]
    fn expression_precedence_is_conventional() {
        let (unit, ast) = parse("for (i = 0; i < 9; i++) { s = 1 + 2 * 3; }");
        match unit.expr(unit.body(&ast)[0].rhs) {
            Expr::Chain {
                ops: [BinOp::Add], ..
            } => {}
            other => panic!("expected top-level add, got {other:?}"),
        }
    }

    #[test]
    fn reports_trailing_garbage() {
        assert!(matches!(
            parse_err("for (i = 0; i < 9; i++) { } extra").kind(),
            ParseErrorKind::UnexpectedToken { .. }
        ));
    }

    #[test]
    fn reports_missing_semicolon_with_position() {
        let err = parse_err("for (i = 0; i < 9; i++) { s = 1 }");
        assert!(matches!(err.kind(), ParseErrorKind::UnexpectedToken { .. }));
        assert_eq!(err.line(), 1);
        assert!(err.column() > 1);
    }

    #[test]
    fn unexpected_eof_inside_body() {
        assert!(matches!(
            parse_err("for (i = 0; i < 9; i++) { s = 1;").kind(),
            ParseErrorKind::UnexpectedToken { .. }
        ));
    }

    #[test]
    fn const_eval_folds_and_rejects() {
        let eval = |src: &str| {
            let mut parser = Parser::new(src).unwrap();
            let e = parser.parse_expr().unwrap();
            parser.unit.const_eval(e)
        };
        assert_eq!(eval("1 + 2 * 3"), Some(7));
        assert_eq!(eval("-(4) / 2"), Some(-2));
        assert_eq!(eval("4 / 0"), None);
        assert_eq!(eval("x + 1"), None);
        assert_eq!(eval("x[1]"), None);
        assert_eq!(eval("9223372036854775807 + 1"), None);
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error() {
        let expr = |src: &str| Parser::new(src).unwrap().parse_expr();
        for (open, leaf, close) in [("(", "1", ")"), (" -", "1", ""), ("x[", "i", "]")] {
            let nest = |n: usize| format!("{}{leaf}{}", open.repeat(n), close.repeat(n));
            assert!(expr(&nest(MAX_NESTING_DEPTH)).is_ok(), "{open}");
            let err = expr(&nest(MAX_NESTING_DEPTH + 1)).unwrap_err();
            assert_eq!(*err.kind(), ParseErrorKind::NestingTooDeep);
            // The error names the token that opens the level past the
            // limit (the last byte of its opener).
            assert_eq!(err.span().start, open.len() * (MAX_NESTING_DEPTH + 1) - 1);
        }
        // The kinds count together: a parenthesis inside a subscript
        // inside a negation is three levels.
        let mixed =
            "-x[(".repeat(MAX_NESTING_DEPTH / 3) + "1" + &")]".repeat(MAX_NESTING_DEPTH / 3);
        assert!(expr(&mixed).is_ok());
        assert!(expr(&format!("(((({mixed}))))")).is_err());

        let loops = |n: usize, stmt: &str| {
            let header: String = (0..n)
                .map(|d| format!("for (i{d} = 0; i{d} < 2; i{d}++) {{ "))
                .collect();
            format!("{header}{stmt}{}", " }".repeat(n))
        };
        let program = |src: &str| Parser::new(src).unwrap().parse_unit().map(drop);
        assert!(program(&loops(MAX_NESTING_DEPTH, "s += 1;")).is_ok());
        let err = program(&loops(MAX_NESTING_DEPTH + 1, "s += 1;")).unwrap_err();
        assert_eq!(*err.kind(), ParseErrorKind::NestingTooDeep);
        // A subscript in the innermost body is one level more.
        assert!(program(&loops(MAX_NESTING_DEPTH - 1, "s += x[i0];")).is_ok());
        assert!(program(&loops(MAX_NESTING_DEPTH, "s += x[i0];")).is_err());
        assert_eq!(
            err.to_string(),
            format!(
                "error at 1:{}: nesting deeper than 128 levels",
                err.span().start + 1
            )
        );
    }

    #[test]
    fn statement_spans_cover_the_statement() {
        let src = "for (i = 0; i < 9; i++) { s = A[i]; }";
        let (unit, ast) = parse(src);
        let span = unit.body(&ast)[0].span;
        assert_eq!(&src[span.start..span.end], "s = A[i];");
    }
}
