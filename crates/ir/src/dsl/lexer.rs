//! Hand-written lexer for the loop DSL.
//!
//! Produces a flat token vector with byte spans. Comments (`// …` and
//! `/* … */`) and whitespace are skipped.

use std::fmt;

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

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    Ident(String),
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

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(n) => write!(f, "integer `{n}`"),
            TokenKind::KwFor => f.write_str("`for`"),
            TokenKind::KwArray => f.write_str("`array`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::LBracket => f.write_str("`[`"),
            TokenKind::RBracket => f.write_str("`]`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Assign => f.write_str("`=`"),
            TokenKind::PlusAssign => f.write_str("`+=`"),
            TokenKind::MinusAssign => f.write_str("`-=`"),
            TokenKind::StarAssign => f.write_str("`*=`"),
            TokenKind::PlusPlus => f.write_str("`++`"),
            TokenKind::MinusMinus => f.write_str("`--`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Ne => f.write_str("`!=`"),
            TokenKind::EqEq => f.write_str("`==`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub(crate) kind: TokenKind,
    pub(crate) span: Span,
}

/// Tokenizes the whole source, appending a trailing `Eof` token. A
/// lexical error is a parse error: its kind and the offending span.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token>, (ParseErrorKind, Span)> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
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
            let text = &source[start..i];
            let kind = match text {
                "for" => TokenKind::KwFor,
                "array" => TokenKind::KwArray,
                _ => TokenKind::Ident(text.to_owned()),
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
        // Operators and punctuation (longest match first).
        let two = if i + 1 < bytes.len() {
            &source[i..i + 2]
        } else {
            ""
        };
        let (kind, len) = match two {
            "+=" => (TokenKind::PlusAssign, 2),
            "-=" => (TokenKind::MinusAssign, 2),
            "*=" => (TokenKind::StarAssign, 2),
            "++" => (TokenKind::PlusPlus, 2),
            "--" => (TokenKind::MinusMinus, 2),
            "<=" => (TokenKind::Le, 2),
            ">=" => (TokenKind::Ge, 2),
            "!=" => (TokenKind::Ne, 2),
            "==" => (TokenKind::EqEq, 2),
            _ => match c {
                '(' => (TokenKind::LParen, 1),
                ')' => (TokenKind::RParen, 1),
                '{' => (TokenKind::LBrace, 1),
                '}' => (TokenKind::RBrace, 1),
                '[' => (TokenKind::LBracket, 1),
                ']' => (TokenKind::RBracket, 1),
                ';' => (TokenKind::Semi, 1),
                '+' => (TokenKind::Plus, 1),
                '-' => (TokenKind::Minus, 1),
                '*' => (TokenKind::Star, 1),
                '/' => (TokenKind::Slash, 1),
                '=' => (TokenKind::Assign, 1),
                '<' => (TokenKind::Lt, 1),
                '>' => (TokenKind::Gt, 1),
                other => {
                    return Err((
                        ParseErrorKind::UnexpectedChar(other),
                        Span::new(start, start + other.len_utf8()),
                    ))
                }
            },
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

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("for fortune _x9 array arrays"),
            vec![
                TokenKind::KwFor,
                TokenKind::Ident("fortune".into()),
                TokenKind::Ident("_x9".into()),
                TokenKind::KwArray,
                TokenKind::Ident("arrays".into()),
                TokenKind::Eof
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
            kinds("a // comment\n /* multi\nline */ b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
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
                TokenKind::Ident("a".into()),
                TokenKind::Slash,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }
}
