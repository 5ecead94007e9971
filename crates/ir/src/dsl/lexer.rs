//! Hand-written lexer for the loop DSL.
//!
//! Produces a flat vector of 12-byte `Copy` tokens: a kind plus a byte
//! range. No token owns text — an identifier's name and an integer's
//! digits are the token's slice of the source — so lexing allocates the
//! vector only. Comments (`// …` and `/* … */`) and whitespace are
//! skipped.

use super::parser::ParseErrorKind;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    pub(crate) fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// Converts the span start to a 1-based `(line, column)` pair.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (idx, ch) in source.char_indices() {
            if idx >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier; its text is the token's span of the source.
    Ident,
    /// An integer literal that fits `i64`; see [`Token::value`].
    Int,
    KwFor,
    KwArray,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Plus,
    Minus,
    Star,
    Slash,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    PlusPlus,
    MinusMinus,
    Lt,
    Le,
    Gt,
    Ge,
    Ne,
    EqEq,
    Eof,
}

/// A token: its kind and its bytes `start..end` of a source no longer
/// than `u32::MAX` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token {
    pub(crate) kind: TokenKind,
    start: u32,
    end: u32,
}

impl Token {
    fn new(kind: TokenKind, start: usize, end: usize) -> Self {
        // `tokenize` rejects sources longer than `u32::MAX` bytes.
        Token {
            kind,
            start: start as u32,
            end: end as u32,
        }
    }

    /// The token's byte span.
    pub(crate) fn span(self) -> Span {
        Span::new(self.start as usize, self.end as usize)
    }

    /// The token's source text.
    pub(crate) fn text(self, source: &str) -> &str {
        &source[self.start as usize..self.end as usize]
    }

    /// The value of an [`TokenKind::Int`] token.
    pub(crate) fn value(self, source: &str) -> i64 {
        self.text(source)
            .parse()
            .expect("the lexer admits only literals that fit i64")
    }

    /// Describes the token for an error message, e.g. ``identifier `foo` ``.
    pub(crate) fn describe(self, source: &str) -> String {
        let fixed = match self.kind {
            TokenKind::Ident => return format!("identifier `{}`", self.text(source)),
            TokenKind::Int => return format!("integer `{}`", self.value(source)),
            TokenKind::KwFor => "`for`",
            TokenKind::KwArray => "`array`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::LBracket => "`[`",
            TokenKind::RBracket => "`]`",
            TokenKind::Semi => "`;`",
            TokenKind::Plus => "`+`",
            TokenKind::Minus => "`-`",
            TokenKind::Star => "`*`",
            TokenKind::Slash => "`/`",
            TokenKind::Assign => "`=`",
            TokenKind::PlusAssign => "`+=`",
            TokenKind::MinusAssign => "`-=`",
            TokenKind::StarAssign => "`*=`",
            TokenKind::PlusPlus => "`++`",
            TokenKind::MinusMinus => "`--`",
            TokenKind::Lt => "`<`",
            TokenKind::Le => "`<=`",
            TokenKind::Gt => "`>`",
            TokenKind::Ge => "`>=`",
            TokenKind::Ne => "`!=`",
            TokenKind::EqEq => "`==`",
            TokenKind::Eof => "end of input",
        };
        fixed.to_owned()
    }
}

/// Tokenizes the whole source, appending a trailing `Eof` token. A
/// lexical error is a parse error: its kind and the offending span.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token>, (ParseErrorKind, Span)> {
    if u32::try_from(source.len()).is_err() {
        let past = Span::new(u32::MAX as usize, source.len());
        return Err((ParseErrorKind::SourceTooLong, past));
    }
    let bytes = source.as_bytes();
    // Every token but the trailing `Eof` spans at least one byte, so the
    // vector is allocated once and never grows.
    let mut tokens = Vec::with_capacity(source.len() + 1);
    let mut i = 0;
    // One match per token on its first byte. Bytes, not string slices:
    // the byte after an operator may begin a multi-byte character.
    while let Some(&c) = bytes.get(i) {
        let start = i;
        let next = bytes.get(i + 1).copied();
        let (kind, len) = match (c, next) {
            (b' ' | b'\t' | b'\n' | b'\r' | b'\x0c', _) => {
                i += 1;
                continue;
            }
            (b'/', Some(b'/')) => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            (b'/', Some(b'*')) => {
                match bytes[i + 2..].windows(2).position(|pair| pair == b"*/") {
                    Some(at) => i += 2 + at + 2,
                    None => {
                        return Err((
                            ParseErrorKind::UnterminatedComment,
                            Span::new(start, bytes.len()),
                        ))
                    }
                }
                continue;
            }
            // Identifiers and keywords.
            (b'a'..=b'z' | b'A'..=b'Z' | b'_', _) => {
                let len = bytes[i..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - i);
                let kind = match &bytes[i..i + len] {
                    b"for" => TokenKind::KwFor,
                    b"array" => TokenKind::KwArray,
                    _ => TokenKind::Ident,
                };
                (kind, len)
            }
            // Integers (unsigned here; unary minus handled by the parser).
            (b'0'..=b'9', _) => {
                let len = bytes[i..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .unwrap_or(bytes.len() - i);
                let fits = bytes[i..i + len].iter().try_fold(0i64, |value, &digit| {
                    value.checked_mul(10)?.checked_add(i64::from(digit - b'0'))
                });
                if fits.is_none() {
                    return Err((ParseErrorKind::IntegerOverflow, Span::new(i, i + len)));
                }
                (TokenKind::Int, len)
            }
            // Operators and punctuation (longest match first).
            (b'+', Some(b'=')) => (TokenKind::PlusAssign, 2),
            (b'-', Some(b'=')) => (TokenKind::MinusAssign, 2),
            (b'*', Some(b'=')) => (TokenKind::StarAssign, 2),
            (b'+', Some(b'+')) => (TokenKind::PlusPlus, 2),
            (b'-', Some(b'-')) => (TokenKind::MinusMinus, 2),
            (b'<', Some(b'=')) => (TokenKind::Le, 2),
            (b'>', Some(b'=')) => (TokenKind::Ge, 2),
            (b'!', Some(b'=')) => (TokenKind::Ne, 2),
            (b'=', Some(b'=')) => (TokenKind::EqEq, 2),
            (b'(', _) => (TokenKind::LParen, 1),
            (b')', _) => (TokenKind::RParen, 1),
            (b'{', _) => (TokenKind::LBrace, 1),
            (b'}', _) => (TokenKind::RBrace, 1),
            (b'[', _) => (TokenKind::LBracket, 1),
            (b']', _) => (TokenKind::RBracket, 1),
            (b';', _) => (TokenKind::Semi, 1),
            (b'+', _) => (TokenKind::Plus, 1),
            (b'-', _) => (TokenKind::Minus, 1),
            (b'*', _) => (TokenKind::Star, 1),
            (b'/', _) => (TokenKind::Slash, 1),
            (b'=', _) => (TokenKind::Assign, 1),
            (b'<', _) => (TokenKind::Lt, 1),
            (b'>', _) => (TokenKind::Gt, 1),
            _ => {
                // Named by the whole character, not its first byte: `i`
                // is on a character boundary, since every byte consumed
                // so far was ASCII or a whole character.
                let other = source[start..].chars().next().expect("a byte is left");
                return Err((
                    ParseErrorKind::UnexpectedChar(other),
                    Span::new(start, start + other.len_utf8()),
                ));
            }
        };
        tokens.push(Token::new(kind, start, start + len));
        i += len;
    }
    tokens.push(Token::new(TokenKind::Eof, source.len(), source.len()));
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src)
            .expect("lex")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    /// Every token's error-message description, identifiers with the
    /// text their span slices from the source.
    fn described(src: &str) -> Vec<String> {
        tokenize(src)
            .expect("lex")
            .into_iter()
            .map(|t| t.describe(src))
            .collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            described("for fortune _x9 array arrays"),
            [
                "`for`",
                "identifier `fortune`",
                "identifier `_x9`",
                "`array`",
                "identifier `arrays`",
                "end of input"
            ]
        );
    }

    #[test]
    fn lexes_two_char_operators_greedily() {
        assert_eq!(
            kinds("+= ++ + <= < =="),
            vec![
                TokenKind::PlusAssign,
                TokenKind::PlusPlus,
                TokenKind::Plus,
                TokenKind::Le,
                TokenKind::Lt,
                TokenKind::EqEq,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            described("a // comment\n /* multi\nline */ b"),
            ["identifier `a`", "identifier `b`", "end of input"]
        );
    }

    #[test]
    fn reports_unterminated_block_comment() {
        let (kind, _) = tokenize("x /* oops").unwrap_err();
        assert_eq!(kind, ParseErrorKind::UnterminatedComment);
    }

    #[test]
    fn reports_unexpected_character_with_span() {
        let (kind, span) = tokenize("a ? b").unwrap_err();
        assert_eq!(kind, ParseErrorKind::UnexpectedChar('?'));
        assert_eq!(span, Span::new(2, 3));
    }

    #[test]
    fn a_multibyte_character_after_an_operator_is_an_error_not_a_panic() {
        let (kind, span) = tokenize("s = 1 +é;").unwrap_err();
        assert!(
            matches!(kind, ParseErrorKind::UnexpectedChar(_)),
            "{kind:?}"
        );
        assert_eq!(span.start, 7);
    }

    #[test]
    fn a_non_ascii_character_is_named_and_spanned_whole() {
        // Two-, three- and four-byte characters where a token may begin.
        for (source, c, start) in [
            ("s += Ä[i];", 'Ä', 5),
            ("s = 1 +é;", 'é', 7),
            ("y[i] = x[i] € 2;", '€', 12),
            ("🦀", '🦀', 0),
        ] {
            let (kind, span) = tokenize(source).unwrap_err();
            assert_eq!(kind, ParseErrorKind::UnexpectedChar(c), "{source}");
            assert_eq!(span, Span::new(start, start + c.len_utf8()), "{source}");
            assert_eq!(&source[span.start..span.end], c.to_string(), "{source}");
        }
    }

    #[test]
    fn reports_integer_overflow() {
        let (kind, _) = tokenize("99999999999999999999999999").unwrap_err();
        assert_eq!(kind, ParseErrorKind::IntegerOverflow);
    }

    #[test]
    fn line_col_is_one_based() {
        let src = "ab\ncd";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[0].span().line_col(src), (1, 1));
        assert_eq!(toks[1].span().line_col(src), (2, 1));
    }

    #[test]
    fn slash_not_followed_by_comment_is_division() {
        assert_eq!(
            kinds("a / b"),
            vec![
                TokenKind::Ident,
                TokenKind::Slash,
                TokenKind::Ident,
                TokenKind::Eof
            ]
        );
    }
}
