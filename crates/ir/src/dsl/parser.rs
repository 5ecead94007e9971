//! Recursive-descent parser for the loop DSL.

use std::fmt;

use super::ast::{AssignOp, BinOp, CmpOp, Cond, Expr, ForLoop, LValue, Stmt, Update};
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
/// [`crate::dsl::lower_loop`] returns this error because lowering operates
/// on an AST, which may have been built programmatically and therefore has
/// no source text; [`LowerError::attach_source`] upgrades it to a
/// [`ParseError`] with line/column information.
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

    /// Byte span of the offending AST node in the original source (empty
    /// for programmatically built ASTs).
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
/// [`Expr::Chain`] node, walked in a loop, however long): unbounded,
/// one hostile source overflows the thread's stack, which no
/// `catch_unwind` catches. Kernels nest a few levels.
pub const MAX_NESTING_DEPTH: usize = 128;

pub(crate) struct Parser<'s> {
    source: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open around the current token.
    depth: usize,
}

impl<'s> Parser<'s> {
    pub(crate) fn new(source: &'s str) -> Result<Self, ParseError> {
        let tokens =
            lexer::tokenize(source).map_err(|(kind, span)| ParseError::new(kind, span, source))?;
        Ok(Parser {
            source,
            tokens,
            pos: 0,
            depth: 0,
        })
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
        ParseError::new(kind, span, self.source)
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        let t = self.peek();
        self.error(
            ParseErrorKind::UnexpectedToken {
                found: t.describe(self.source),
                expected: expected.to_owned(),
            },
            t.span,
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
    /// source (the caller allocates the name only to store it), and span.
    fn expect_ident(&mut self, what: &str) -> Result<(&'s str, Span), ParseError> {
        let t = self.expect(TokenKind::Ident, what)?;
        Ok((t.text(self.source), t.span))
    }

    /// Parses a complete `for` loop (possibly a nest); trailing tokens
    /// are an error. Array declarations are *not* accepted here — use
    /// [`Parser::parse_unit`] for sources with declarations.
    pub(crate) fn parse_for_loop(mut self) -> Result<ForLoop, ParseError> {
        let ast = self.parse_one_for()?;
        if self.peek().kind != TokenKind::Eof {
            return Err(self.unexpected("end of input"));
        }
        Ok(ast)
    }

    /// Parses a whole compilation unit: array declarations interleaved
    /// with one or more `for` loops (nests). Declarations scope over the
    /// entire unit.
    pub(crate) fn parse_unit(
        mut self,
    ) -> Result<(Vec<super::ast::Decl>, Vec<ForLoop>), ParseError> {
        let mut decls: Vec<super::ast::Decl> = Vec::new();
        let mut loops = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::KwArray => {
                    let decl = self.parse_decl()?;
                    if decls.iter().any(|d| d.name == decl.name) {
                        return Err(self.error(
                            ParseErrorKind::DuplicateDeclaration(decl.name.clone()),
                            decl.span,
                        ));
                    }
                    decls.push(decl);
                }
                TokenKind::KwFor => loops.push(self.parse_one_for()?),
                TokenKind::Eof if !loops.is_empty() => return Ok((decls, loops)),
                // Declarations alone are not a program.
                TokenKind::Eof => return Err(self.unexpected("a `for` loop")),
                _ => return Err(self.unexpected("`array`, `for` or end of input")),
            }
        }
    }

    /// Parses `array name[d1][d2]…;`.
    fn parse_decl(&mut self) -> Result<super::ast::Decl, ParseError> {
        let start = self.expect(TokenKind::KwArray, "`array`")?.span;
        let name = self.expect_ident("array name")?.0.to_owned();
        let mut dims = Vec::new();
        while self.peek().kind == TokenKind::LBracket {
            self.bump();
            let dim_expr = self.parse_expr()?;
            let close = self.expect(TokenKind::RBracket, "`]`")?;
            let span = Span::new(start.start, close.span.end);
            match const_eval(&dim_expr) {
                Some(d) if d > 0 => dims.push(d),
                _ => return Err(self.error(ParseErrorKind::InvalidDimension(name.clone()), span)),
            }
        }
        if dims.is_empty() {
            return Err(self.unexpected("`[` (array declarations need dimensions)"));
        }
        let end = self.expect(TokenKind::Semi, "`;` after array declaration")?;
        Ok(super::ast::Decl {
            name,
            dims,
            span: Span::new(start.start, end.span.end),
        })
    }

    /// Parses one `for` loop (a nesting level) and the loops it nests.
    fn parse_one_for(&mut self) -> Result<ForLoop, ParseError> {
        let span = self.peek().span;
        self.nested(span, Self::parse_for_level)
    }

    fn parse_for_level(&mut self) -> Result<ForLoop, ParseError> {
        let for_span = self.expect(TokenKind::KwFor, "`for`")?.span;
        self.expect(TokenKind::LParen, "`(`")?;

        // init: var = expr
        let (var, _) = self.expect_ident("loop variable")?;
        self.expect(TokenKind::Assign, "`=` in loop init")?;
        let init = self.parse_expr()?;
        let start = const_eval(&init);
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
        let cond = Cond { op, bound };
        self.expect(TokenKind::Semi, "`;` after loop condition")?;

        // update
        let update = self.parse_update(var)?;
        let header_end = self.expect(TokenKind::RParen, "`)` after loop header")?;
        let span = Span::new(for_span.start, header_end.span.end);

        // body: either statements or exactly one nested for.
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut body = Vec::new();
        let mut nested: Option<Box<ForLoop>> = None;
        while self.peek().kind != TokenKind::RBrace {
            match self.peek().kind {
                TokenKind::Eof => return Err(self.unexpected("`}`, a statement or `for`")),
                TokenKind::KwFor => {
                    let span = self.peek().span;
                    if nested.is_some() || !body.is_empty() {
                        return Err(self.error(ParseErrorKind::ImperfectNest, span));
                    }
                    nested = Some(Box::new(self.parse_one_for()?));
                }
                _ => {
                    if nested.is_some() {
                        let span = self.peek().span;
                        return Err(self.error(ParseErrorKind::ImperfectNest, span));
                    }
                    body.push(self.parse_stmt()?);
                }
            }
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(ForLoop {
            var: var.to_owned(),
            start,
            init,
            cond,
            update,
            body,
            nested,
            span,
        })
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
                const_eval(&e)
            }
            TokenKind::MinusAssign => {
                self.bump();
                let e = self.parse_expr()?;
                const_eval(&e).and_then(i64::checked_neg)
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
                let k = const_eval(&e);
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

    /// Parses a (possibly multi-dimensional) `[e1][e2]…` subscript chain.
    fn parse_subscripts(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut indices = Vec::new();
        while self.peek().kind == TokenKind::LBracket {
            let open = self.bump().span;
            indices.push(self.nested(open, Self::parse_expr)?);
            self.expect(TokenKind::RBracket, "`]`")?;
        }
        Ok(indices)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let (name, start_span) = self.expect_ident("a statement")?;
        let lhs = if self.peek().kind == TokenKind::LBracket {
            let indices = self.parse_subscripts()?;
            LValue::Element {
                array: name.to_owned(),
                indices,
            }
        } else {
            LValue::Scalar(name.to_owned())
        };
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
            span: Span::new(start_span.start, end.span.end),
        })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain(Self::parse_term, |kind| match kind {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain(Self::parse_factor, |kind| match kind {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// Parses `operand (op operand)*` for the operators `op_of` maps to,
    /// as one [`Expr::Chain`], or the lone operand when there is no
    /// operator.
    fn parse_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, ParseError>,
        op_of: fn(TokenKind) -> Option<BinOp>,
    ) -> Result<Expr, ParseError> {
        let first = operand(self)?;
        let mut rest = Vec::new();
        while let Some(op) = op_of(self.peek().kind) {
            self.bump();
            rest.push((op, operand(self)?));
        }
        Ok(if rest.is_empty() {
            first
        } else {
            Expr::Chain {
                first: Box::new(first),
                rest,
            }
        })
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        let t = self.peek();
        match t.kind {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(t.span, Self::parse_factor)?;
                Ok(Expr::Neg(Box::new(operand)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(t.span, Self::parse_expr)?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident => {
                self.bump();
                let name = t.text(self.source).to_owned();
                if self.peek().kind == TokenKind::LBracket {
                    let indices = self.parse_subscripts()?;
                    Ok(Expr::Index {
                        array: name,
                        indices,
                    })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

/// Constant-folds an expression; `None` if it references any variable.
pub(crate) fn const_eval(e: &Expr) -> Option<i64> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Var(_) | Expr::Index { .. } => None,
        Expr::Neg(inner) => const_eval(inner)?.checked_neg(),
        Expr::Chain { first, rest } => rest.iter().try_fold(const_eval(first)?, |l, (op, e)| {
            let r = const_eval(e)?;
            match op {
                BinOp::Add => l.checked_add(r),
                BinOp::Sub => l.checked_sub(r),
                BinOp::Mul => l.checked_mul(r),
                BinOp::Div => {
                    if r == 0 {
                        None
                    } else {
                        l.checked_div(r)
                    }
                }
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ForLoop {
        Parser::new(src).unwrap().parse_for_loop().unwrap()
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
            parse("for (i = 0; i < 9; i++) { }").update,
            Update::Increment
        );
        assert_eq!(
            parse("for (i = 9; i > 0; i--) { }").update,
            Update::Decrement
        );
        assert_eq!(
            parse("for (i = 0; i < 9; i += 2) { }").update,
            Update::Step(2)
        );
        assert_eq!(
            parse("for (i = 9; i > 0; i -= 3) { }").update,
            Update::Step(-3)
        );
        assert_eq!(
            parse("for (i = 0; i < 9; i = i + 4) { }").update,
            Update::Step(4)
        );
        assert_eq!(
            parse("for (i = 9; i > 0; i = i - 1) { }").update,
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
        assert_eq!(parse("for (i = 2; i <= 9; i++) { }").start, Some(2));
        assert_eq!(parse("for (i = 1 + 1; i <= 9; i++) { }").start, Some(2));
        assert_eq!(parse("for (i = n0; i <= 9; i++) { }").start, None);
    }

    #[test]
    fn parses_statement_shapes() {
        let ast = parse(
            "for (i = 0; i < 9; i++) {
                s = A[i] * 2;
                A[i + 1] += s - 1;
                t *= 3;
            }",
        );
        assert_eq!(ast.body.len(), 3);
        assert_eq!(ast.body[0].to_string(), "s = A[i] * 2;");
        assert_eq!(ast.body[1].to_string(), "A[i + 1] += s - 1;");
        assert_eq!(ast.body[2].to_string(), "t *= 3;");
    }

    #[test]
    fn expression_precedence_is_conventional() {
        let ast = parse("for (i = 0; i < 9; i++) { s = 1 + 2 * 3; }");
        match &ast.body[0].rhs {
            Expr::Chain { rest, .. } if rest.len() == 1 && rest[0].0 == BinOp::Add => {}
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
        let p = |src: &str| Parser::new(src).unwrap().parse_expr().unwrap();
        assert_eq!(const_eval(&p("1 + 2 * 3")), Some(7));
        assert_eq!(const_eval(&p("-(4) / 2")), Some(-2));
        assert_eq!(const_eval(&p("4 / 0")), None);
        assert_eq!(const_eval(&p("x + 1")), None);
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
        let program = |src: &str| Parser::new(src).unwrap().parse_unit();
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
        let ast = parse(src);
        let span = ast.body[0].span;
        assert_eq!(&src[span.start..span.end], "s = A[i];");
    }
}
