//! Hand-written lexer for the loop DSL.
//!
//! Produces a flat vector of `Copy` tokens: a kind plus a byte span.
//! No token owns text — an identifier's name is `&source[span]`, sliced
//! when the parser stores it — so lexing allocates the vector only.
//! Comments (`// …` and `/* … */`) and whitespace are skipped.

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
    Int(i64),
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token {
    pub(crate) kind: TokenKind,
    pub(crate) span: Span,
}

impl Token {
    /// The token's source text.
    pub(crate) fn text(self, source: &str) -> &str {
        &source[self.span.start..self.span.end]
    }

    /// Describes the token for an error message, e.g. ``identifier `foo` ``.
    pub(crate) fn describe(self, source: &str) -> String {
        let fixed = match self.kind {
            TokenKind::Ident => return format!("identifier `{}`", self.text(source)),
            TokenKind::Int(n) => return format!("integer `{n}`"),
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
    let bytes = source.as_bytes();
    // Every token but the trailing `Eof` spans at least one byte, so the
    // vector is allocated once and never grows.
    let mut tokens = Vec::with_capacity(source.len() + 1);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            match bytes[i + 1] as char {
                '/' => {
                    while i < bytes.len() && bytes[i] as char != '\n' {
                        i += 1;
                    }
                    continue;
                }
                '*' => {
                    let start = i;
                    i += 2;
                    loop {
                        if i + 1 >= bytes.len() {
                            return Err((
                                ParseErrorKind::UnterminatedComment,
                                Span::new(start, bytes.len()),
                            ));
                        }
                        if bytes[i] as char == '*' && bytes[i + 1] as char == '/' {
                            i += 2;
                            break;
                        }
                        i += 1;
                    }
                    continue;
                }
                _ => {}
            }
        }
        let start = i;
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] as char == '_')
            {
                i += 1;
            }
            let kind = match &source[start..i] {
                "for" => TokenKind::KwFor,
                "array" => TokenKind::KwArray,
                _ => TokenKind::Ident,
            };
            tokens.push(Token {
                kind,
                span: Span::new(start, i),
            });
            continue;
        }
        // Integers (unsigned here; unary minus handled by the parser).
        if c.is_ascii_digit() {
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let text = &source[start..i];
            let value: i64 = text
                .parse()
                .map_err(|_| (ParseErrorKind::IntegerOverflow, Span::new(start, i)))?;
            tokens.push(Token {
                kind: TokenKind::Int(value),
                span: Span::new(start, i),
            });
            continue;
        }
        // Operators and punctuation (longest match first). Bytes, not
        // string slices: the byte after an operator may begin a
        // multi-byte character.
        let (kind, len) = match (c, bytes.get(i + 1)) {
            ('+', Some(b'=')) => (TokenKind::PlusAssign, 2),
            ('-', Some(b'=')) => (TokenKind::MinusAssign, 2),
            ('*', Some(b'=')) => (TokenKind::StarAssign, 2),
            ('+', Some(b'+')) => (TokenKind::PlusPlus, 2),
            ('-', Some(b'-')) => (TokenKind::MinusMinus, 2),
            ('<', Some(b'=')) => (TokenKind::Le, 2),
            ('>', Some(b'=')) => (TokenKind::Ge, 2),
            ('!', Some(b'=')) => (TokenKind::Ne, 2),
            ('=', Some(b'=')) => (TokenKind::EqEq, 2),
            ('(', _) => (TokenKind::LParen, 1),
            (')', _) => (TokenKind::RParen, 1),
            ('{', _) => (TokenKind::LBrace, 1),
            ('}', _) => (TokenKind::RBrace, 1),
            ('[', _) => (TokenKind::LBracket, 1),
            (']', _) => (TokenKind::RBracket, 1),
            (';', _) => (TokenKind::Semi, 1),
            ('+', _) => (TokenKind::Plus, 1),
            ('-', _) => (TokenKind::Minus, 1),
            ('*', _) => (TokenKind::Star, 1),
            ('/', _) => (TokenKind::Slash, 1),
            ('=', _) => (TokenKind::Assign, 1),
            ('<', _) => (TokenKind::Lt, 1),
            ('>', _) => (TokenKind::Gt, 1),
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
        tokens.push(Token {
            kind,
            span: Span::new(start, start + len),
        });
        i += len;
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(source.len(), source.len()),
    });
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
        assert_eq!(toks[0].span.line_col(src), (1, 1));
        assert_eq!(toks[1].span.line_col(src), (2, 1));
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
