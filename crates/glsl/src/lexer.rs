//! Tokeniser for the GLSL ES 1.00 subset.
//!
//! Notable conformance points:
//!
//! * Bitwise and modulus operators (`%  &  |  ^  <<  >>  ~` and their
//!   assignment forms) are **reserved** in GLSL ES 1.00 and are rejected
//!   here with a dedicated message. The paper's numeric transformations
//!   exist precisely because shaders cannot use them.
//! * Reserved words (`goto`, `union`, `double`, …) are rejected.
//! * `#`-directives: the [`crate::preprocessor`] runs first and blanks
//!   every directive line, so none reaches the lexer through the
//!   compile pipeline. Lexing source directly, `#version 100`,
//!   `#extension` and `#pragma` lines are accepted and ignored; anything
//!   else is an error.
//! * Each distinct word is looked up in the keyword table, and each
//!   distinct identifier allocated, once per source; later occurrences
//!   reuse the token the first one produced, so an identifier's tokens
//!   and AST nodes share one [`Name`].

use crate::ast::Name;
use crate::error::CompileError;
use crate::span::Span;
use crate::token::{classify_word, Token, TokenKind, Word};
use std::collections::HashMap;

/// Tokenises an entire source string.
///
/// # Errors
///
/// Returns a [`CompileError`] for unknown characters, reserved operators or
/// words, malformed numeric literals and unterminated block comments.
pub fn tokenize(source: &str) -> Result<Vec<Token>, CompileError> {
    tokenize_from(source, 0, 1)
}

/// Tokenises `source` as the part of a longer preprocessed source that
/// starts at byte `start` on line `line`: spans count from there.
pub(crate) fn tokenize_from(
    source: &str,
    start: u32,
    line: u32,
) -> Result<Vec<Token>, CompileError> {
    Lexer::new(source, start, line).run()
}

struct Lexer<'s> {
    text: &'s str,
    src: &'s [u8],
    /// Byte offset of `text` in the whole source, added to every span.
    base: u32,
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
    /// The token each word read so far produced (keyword, boolean
    /// literal or identifier).
    words: HashMap<&'s str, TokenKind>,
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str, base: u32, line: u32) -> Self {
        Lexer {
            text: source,
            src: source.as_bytes(),
            base,
            pos: 0,
            line,
            col: 1,
            // Generated kernels average about four bytes per token.
            tokens: Vec::with_capacity(source.len() / 4 + 1),
            words: HashMap::new(),
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn here(&self) -> Span {
        let at = self.base + self.pos as u32;
        Span::new(at, at + 1, self.line, self.col)
    }

    fn span_from(&self, start: usize, line: u32, col: u32) -> Span {
        Span::new(
            self.base + start as u32,
            self.base + self.pos as u32,
            line,
            col,
        )
    }

    fn push(&mut self, kind: TokenKind, span: Span) {
        self.tokens.push(Token { kind, span });
    }

    fn run(mut self) -> Result<Vec<Token>, CompileError> {
        loop {
            self.skip_trivia()?;
            if self.pos >= self.src.len() {
                let span = self.here();
                self.push(TokenKind::Eof, span);
                return Ok(self.tokens);
            }
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let c = self.peek();
            match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.word(start, line, col)?,
                b'0'..=b'9' => self.number(start, line, col)?,
                b'.' => {
                    if self.peek2().is_ascii_digit() {
                        self.number(start, line, col)?;
                    } else {
                        self.bump();
                        let span = self.span_from(start, line, col);
                        self.push(TokenKind::Dot, span);
                    }
                }
                b'#' => self.directive(line, col)?,
                _ => self.operator(start, line, col)?,
            }
        }
    }

    fn skip_trivia(&mut self) -> Result<(), CompileError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    self.col += 1;
                }
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let span = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(CompileError::lex("unterminated block comment", span));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn word(&mut self, start: usize, line: u32, col: u32) -> Result<(), CompileError> {
        let len = self.src[start..]
            .iter()
            .take_while(|&&b| b.is_ascii_alphanumeric() || b == b'_')
            .count();
        // A word holds no newline: only the column moves.
        self.pos += len;
        self.col += len as u32;
        let text = &self.text[start..self.pos];
        let span = self.span_from(start, line, col);
        if let Some(kind) = self.words.get(text) {
            let kind = kind.clone();
            self.push(kind, span);
            return Ok(());
        }
        let kind = match classify_word(text) {
            Some(Word::Keyword(kw)) => TokenKind::Keyword(kw),
            Some(Word::Bool(b)) => TokenKind::BoolLit(b),
            Some(Word::Reserved) => {
                return Err(CompileError::lex(
                    format!("`{text}` is a reserved word in GLSL ES 1.00"),
                    span,
                ))
            }
            None if text.starts_with("gl_") || !text.contains("__") => {
                TokenKind::Ident(Name::from(text))
            }
            None => {
                return Err(CompileError::lex(
                    format!("identifier `{text}` contains `__`, reserved in GLSL ES 1.00"),
                    span,
                ))
            }
        };
        self.words.insert(text, kind.clone());
        self.push(kind, span);
        Ok(())
    }

    fn number(&mut self, start: usize, line: u32, col: u32) -> Result<(), CompileError> {
        // Hex integer.
        if self.peek() == b'0' && matches!(self.peek2(), b'x' | b'X') {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            let span = self.span_from(start, line, col);
            if digits_start == self.pos {
                return Err(CompileError::lex("missing hexadecimal digits", span));
            }
            let text = std::str::from_utf8(&self.src[digits_start..self.pos]).expect("hex");
            let value = u32::from_str_radix(text, 16)
                .map_err(|_| CompileError::lex("hexadecimal literal overflows", span))?;
            if value > i32::MAX as u32 {
                return Err(CompileError::lex("integer literal overflows", span));
            }
            self.push(TokenKind::IntLit(value as i32), span);
            return Ok(());
        }

        let mut is_float = false;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        if self.peek() == b'.' {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if matches!(self.peek(), b'e' | b'E') {
            let lookahead = match self.peek2() {
                b'+' | b'-' => *self.src.get(self.pos + 2).unwrap_or(&0),
                other => other,
            };
            if lookahead.is_ascii_digit() {
                is_float = true;
                self.bump(); // e
                if matches!(self.peek(), b'+' | b'-') {
                    self.bump();
                }
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            }
        }
        let span = self.span_from(start, line, col);
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii number");
        if is_float {
            let value: f32 = text.parse().map_err(|_| {
                CompileError::lex(format!("malformed float literal `{text}`"), span)
            })?;
            self.push(TokenKind::FloatLit(value), span);
        } else if text.len() > 1 && text.starts_with('0') {
            // Octal integer, per the GLSL ES grammar.
            let value = i32::from_str_radix(&text[1..], 8).map_err(|_| {
                CompileError::lex(format!("malformed octal literal `{text}`"), span)
            })?;
            self.push(TokenKind::IntLit(value), span);
        } else {
            let value: i32 = text
                .parse()
                .map_err(|_| CompileError::lex("integer literal overflows", span))?;
            self.push(TokenKind::IntLit(value), span);
        }
        Ok(())
    }

    fn directive(&mut self, line: u32, col: u32) -> Result<(), CompileError> {
        let start = self.pos;
        while self.pos < self.src.len() && self.peek() != b'\n' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii directive")
            .trim();
        let span = self.span_from(start, line, col);
        if text.starts_with("#version") {
            let rest = text.trim_start_matches("#version").trim();
            if rest != "100" && !rest.is_empty() {
                return Err(CompileError::lex(
                    format!("unsupported `#version {rest}`; this is a GLSL ES 1.00 implementation"),
                    span,
                ));
            }
            Ok(())
        } else if text.starts_with("#extension") || text.starts_with("#pragma") || text == "#" {
            Ok(()) // Accepted and ignored, like most drivers.
        } else {
            Err(CompileError::lex(
                format!("unsupported preprocessor directive `{text}`"),
                span,
            ))
        }
    }

    fn operator(&mut self, start: usize, line: u32, col: u32) -> Result<(), CompileError> {
        use TokenKind::*;
        let c = self.bump();
        let kind = match c {
            b'(' => LParen,
            b')' => RParen,
            b'[' => LBracket,
            b']' => RBracket,
            b'{' => LBrace,
            b'}' => RBrace,
            b',' => Comma,
            b';' => Semicolon,
            b':' => Colon,
            b'?' => Question,
            b'+' => match self.peek() {
                b'+' => {
                    self.bump();
                    PlusPlus
                }
                b'=' => {
                    self.bump();
                    PlusEq
                }
                _ => Plus,
            },
            b'-' => match self.peek() {
                b'-' => {
                    self.bump();
                    MinusMinus
                }
                b'=' => {
                    self.bump();
                    MinusEq
                }
                _ => Minus,
            },
            b'*' => {
                if self.peek() == b'=' {
                    self.bump();
                    StarEq
                } else {
                    Star
                }
            }
            b'/' => {
                if self.peek() == b'=' {
                    self.bump();
                    SlashEq
                } else {
                    Slash
                }
            }
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    EqEq
                } else {
                    Eq
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.bump();
                    NotEq
                } else {
                    Bang
                }
            }
            b'<' => match self.peek() {
                b'=' => {
                    self.bump();
                    Le
                }
                b'<' => {
                    let span = self.span_from(start, line, col);
                    return Err(reserved_op("<<", span));
                }
                _ => Lt,
            },
            b'>' => match self.peek() {
                b'=' => {
                    self.bump();
                    Ge
                }
                b'>' => {
                    let span = self.span_from(start, line, col);
                    return Err(reserved_op(">>", span));
                }
                _ => Gt,
            },
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    AndAnd
                } else {
                    let span = self.span_from(start, line, col);
                    return Err(reserved_op("&", span));
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    OrOr
                } else {
                    let span = self.span_from(start, line, col);
                    return Err(reserved_op("|", span));
                }
            }
            b'^' => {
                if self.peek() == b'^' {
                    self.bump();
                    XorXor
                } else {
                    let span = self.span_from(start, line, col);
                    return Err(reserved_op("^", span));
                }
            }
            b'%' => {
                let span = self.span_from(start, line, col);
                return Err(reserved_op("%", span));
            }
            b'~' => {
                let span = self.span_from(start, line, col);
                return Err(reserved_op("~", span));
            }
            other => {
                let span = self.span_from(start, line, col);
                return Err(CompileError::lex(
                    format!("unexpected character `{}`", other as char),
                    span,
                ));
            }
        };
        let span = self.span_from(start, line, col);
        self.push(kind, span);
        Ok(())
    }
}

fn reserved_op(op: &str, span: Span) -> CompileError {
    CompileError::lex(
        format!(
            "operator `{op}` is reserved in GLSL ES 1.00; \
             integer/bitwise arithmetic must be emulated (see the numeric transformations)"
        ),
        span,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Keyword;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src)
            .expect("tokenize should succeed")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        let k = kinds("uniform vec4 color;");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword(Keyword::Uniform),
                TokenKind::Keyword(Keyword::Vec4),
                TokenKind::Ident("color".into()),
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_float_forms() {
        let k = kinds("1.0 .5 2. 3e2 4.5e-1 1E+2");
        let floats: Vec<f32> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::FloatLit(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(floats, vec![1.0, 0.5, 2.0, 300.0, 0.45, 100.0]);
    }

    #[test]
    fn lexes_int_forms() {
        let k = kinds("42 0x1F 017 0");
        let ints: Vec<i32> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::IntLit(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(ints, vec![42, 31, 15, 0]);
    }

    #[test]
    fn dot_without_digit_is_field_access() {
        let k = kinds("v.xy");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("v".into()),
                TokenKind::Dot,
                TokenKind::Ident("xy".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a // line\n /* block\n over lines */ b");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let e = tokenize("/* nope").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn reserved_operators_error() {
        for src in ["a % b", "a & b", "a | b", "a ^ b", "a << 2", "a >> 2", "~a"] {
            let e = tokenize(src).expect_err(src);
            assert!(e.message.contains("reserved"), "{src}: {}", e.message);
        }
    }

    #[test]
    fn logical_double_operators_are_allowed() {
        let k = kinds("a && b || c ^^ d");
        assert!(k.contains(&TokenKind::AndAnd));
        assert!(k.contains(&TokenKind::OrOr));
        assert!(k.contains(&TokenKind::XorXor));
    }

    #[test]
    fn reserved_words_error() {
        for src in ["goto x;", "double d;", "unsigned u;", "switch (x) {}"] {
            let e = tokenize(src).expect_err(src);
            assert!(e.message.contains("reserved word"), "{src}");
        }
    }

    #[test]
    fn double_underscore_identifier_rejected() {
        assert!(tokenize("float a__b;").is_err());
    }

    #[test]
    fn gl_builtins_lex_as_identifiers() {
        let k = kinds("gl_FragColor gl_Position gl_FragCoord");
        assert_eq!(
            k.iter()
                .filter(|t| matches!(t, TokenKind::Ident(_)))
                .count(),
            3
        );
    }

    #[test]
    fn version_directive_accepted() {
        assert!(tokenize("#version 100\nfloat x;").is_ok());
        assert!(tokenize("#version 300 es\nfloat x;").is_err());
        assert!(tokenize("#include \"x\"\n").is_err());
    }

    #[test]
    fn increment_and_compound_assign() {
        let k = kinds("i++ += -= *= /= --j");
        assert!(k.contains(&TokenKind::PlusPlus));
        assert!(k.contains(&TokenKind::MinusMinus));
        assert!(k.contains(&TokenKind::PlusEq));
        assert!(k.contains(&TokenKind::SlashEq));
    }

    #[test]
    fn spans_track_lines() {
        let toks = tokenize("a\n  b").expect("ok");
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }

    #[test]
    fn integer_overflow_errors() {
        assert!(tokenize("2147483648").is_err()); // i32::MAX + 1
        assert!(tokenize("2147483647").is_ok());
        assert!(tokenize("0xFFFFFFFF").is_err());
    }
}
