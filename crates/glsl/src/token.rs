//! Token definitions for the GLSL ES 1.00 lexer.

use crate::ast::Name;
use crate::span::Span;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;

/// A lexical token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

/// Kinds of tokens in the GLSL ES 1.00 subset.
///
/// Operators that exist in desktop GLSL but are *reserved* in ES 1.00
/// (`%`, `&`, `|`, `^`, `<<`, `>>`, `~` and their assignment forms) are
/// rejected by the lexer; they never appear here. This mirrors the paper's
/// premise that shader-side integer packing must be expressed with
/// floor/mod arithmetic rather than bitwise operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier (not a keyword).
    Ident(Name),
    /// Floating point literal, e.g. `1.0`, `.5`, `2e-3`.
    FloatLit(f32),
    /// Integer literal, e.g. `42`, `0x1F`, `017`.
    IntLit(i32),
    /// Boolean literal `true` / `false`.
    BoolLit(bool),
    /// A language keyword, e.g. `uniform`, `if`, `vec4`.
    Keyword(Keyword),

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `*=`
    StarEq,
    /// `/=`
    SlashEq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `^^`
    XorXor,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,

    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::FloatLit(v) => write!(f, "float literal `{v}`"),
            TokenKind::IntLit(v) => write!(f, "int literal `{v}`"),
            TokenKind::BoolLit(v) => write!(f, "bool literal `{v}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::LBracket => f.write_str("`[`"),
            TokenKind::RBracket => f.write_str("`]`"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::Dot => f.write_str("`.`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Semicolon => f.write_str("`;`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::Question => f.write_str("`?`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::PlusEq => f.write_str("`+=`"),
            TokenKind::MinusEq => f.write_str("`-=`"),
            TokenKind::StarEq => f.write_str("`*=`"),
            TokenKind::SlashEq => f.write_str("`/=`"),
            TokenKind::EqEq => f.write_str("`==`"),
            TokenKind::NotEq => f.write_str("`!=`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Bang => f.write_str("`!`"),
            TokenKind::AndAnd => f.write_str("`&&`"),
            TokenKind::OrOr => f.write_str("`||`"),
            TokenKind::XorXor => f.write_str("`^^`"),
            TokenKind::PlusPlus => f.write_str("`++`"),
            TokenKind::MinusMinus => f.write_str("`--`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// GLSL ES 1.00 keywords recognised by this implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Names are self-describing GLSL keywords.
pub enum Keyword {
    // Storage / parameter qualifiers.
    Attribute,
    Const,
    Uniform,
    Varying,
    In,
    Out,
    Inout,
    // Precision.
    Precision,
    Highp,
    Mediump,
    Lowp,
    Invariant,
    // Control flow.
    If,
    Else,
    For,
    While,
    Do,
    Return,
    Break,
    Continue,
    Discard,
    // Types.
    Void,
    Float,
    Int,
    Bool,
    Vec2,
    Vec3,
    Vec4,
    Ivec2,
    Ivec3,
    Ivec4,
    Bvec2,
    Bvec3,
    Bvec4,
    Mat2,
    Mat3,
    Mat4,
    Sampler2D,
    SamplerCube,
    Struct,
}

impl Keyword {
    /// Every keyword, in declaration order.
    pub const ALL: [Keyword; 40] = [
        Keyword::Attribute,
        Keyword::Const,
        Keyword::Uniform,
        Keyword::Varying,
        Keyword::In,
        Keyword::Out,
        Keyword::Inout,
        Keyword::Precision,
        Keyword::Highp,
        Keyword::Mediump,
        Keyword::Lowp,
        Keyword::Invariant,
        Keyword::If,
        Keyword::Else,
        Keyword::For,
        Keyword::While,
        Keyword::Do,
        Keyword::Return,
        Keyword::Break,
        Keyword::Continue,
        Keyword::Discard,
        Keyword::Void,
        Keyword::Float,
        Keyword::Int,
        Keyword::Bool,
        Keyword::Vec2,
        Keyword::Vec3,
        Keyword::Vec4,
        Keyword::Ivec2,
        Keyword::Ivec3,
        Keyword::Ivec4,
        Keyword::Bvec2,
        Keyword::Bvec3,
        Keyword::Bvec4,
        Keyword::Mat2,
        Keyword::Mat3,
        Keyword::Mat4,
        Keyword::Sampler2D,
        Keyword::SamplerCube,
        Keyword::Struct,
    ];

    /// Looks a word up in the keyword table.
    pub fn from_word(word: &str) -> Option<Keyword> {
        match classify_word(word) {
            Some(Word::Keyword(kw)) => Some(kw),
            _ => None,
        }
    }

    /// The source spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Attribute => "attribute",
            Keyword::Const => "const",
            Keyword::Uniform => "uniform",
            Keyword::Varying => "varying",
            Keyword::In => "in",
            Keyword::Out => "out",
            Keyword::Inout => "inout",
            Keyword::Precision => "precision",
            Keyword::Highp => "highp",
            Keyword::Mediump => "mediump",
            Keyword::Lowp => "lowp",
            Keyword::Invariant => "invariant",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::For => "for",
            Keyword::While => "while",
            Keyword::Do => "do",
            Keyword::Return => "return",
            Keyword::Break => "break",
            Keyword::Continue => "continue",
            Keyword::Discard => "discard",
            Keyword::Void => "void",
            Keyword::Float => "float",
            Keyword::Int => "int",
            Keyword::Bool => "bool",
            Keyword::Vec2 => "vec2",
            Keyword::Vec3 => "vec3",
            Keyword::Vec4 => "vec4",
            Keyword::Ivec2 => "ivec2",
            Keyword::Ivec3 => "ivec3",
            Keyword::Ivec4 => "ivec4",
            Keyword::Bvec2 => "bvec2",
            Keyword::Bvec3 => "bvec3",
            Keyword::Bvec4 => "bvec4",
            Keyword::Mat2 => "mat2",
            Keyword::Mat3 => "mat3",
            Keyword::Mat4 => "mat4",
            Keyword::Sampler2D => "sampler2D",
            Keyword::SamplerCube => "samplerCube",
            Keyword::Struct => "struct",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a word the lexer reads is, when it is not an identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Word {
    /// A keyword.
    Keyword(Keyword),
    /// `true` or `false`.
    Bool(bool),
    /// One of [`RESERVED_WORDS`].
    Reserved,
}

/// Classifies `word` with one hash lookup in a table built once from
/// [`Keyword::ALL`], the boolean literals and [`RESERVED_WORDS`];
/// `None` means an identifier.
pub(crate) fn classify_word(word: &str) -> Option<Word> {
    type Table = HashMap<&'static str, Word, BuildHasherDefault<DefaultHasher>>;
    static WORDS: OnceLock<Table> = OnceLock::new();
    WORDS
        .get_or_init(|| {
            let keywords = Keyword::ALL
                .iter()
                .map(|&kw| (kw.as_str(), Word::Keyword(kw)));
            let reserved = RESERVED_WORDS.iter().map(|&w| (w, Word::Reserved));
            let bools = [("true", Word::Bool(true)), ("false", Word::Bool(false))];
            keywords.chain(reserved).chain(bools).collect()
        })
        .get(word)
        .copied()
}

/// Words reserved by GLSL ES 1.00 that this implementation (like a
/// conformant driver) must reject if used as identifiers.
pub const RESERVED_WORDS: &[&str] = &[
    "asm",
    "class",
    "union",
    "enum",
    "typedef",
    "template",
    "this",
    "packed",
    "goto",
    "switch",
    "default",
    "inline",
    "noinline",
    "volatile",
    "public",
    "static",
    "extern",
    "external",
    "interface",
    "flat",
    "long",
    "short",
    "double",
    "half",
    "fixed",
    "unsigned",
    "superp",
    "input",
    "output",
    "hvec2",
    "hvec3",
    "hvec4",
    "dvec2",
    "dvec3",
    "dvec4",
    "fvec2",
    "fvec3",
    "fvec4",
    "sampler1D",
    "sampler3D",
    "sampler1DShadow",
    "sampler2DShadow",
    "sampler2DRect",
    "sampler3DRect",
    "sampler2DRectShadow",
    "sizeof",
    "cast",
    "namespace",
    "using",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for word in ["uniform", "vec4", "sampler2D", "discard", "mat3"] {
            let kw = Keyword::from_word(word).expect("keyword should be recognised");
            assert_eq!(kw.as_str(), word);
        }
    }

    #[test]
    fn every_keyword_spelling_round_trips() {
        for kw in Keyword::ALL {
            assert_eq!(Keyword::from_word(kw.as_str()), Some(kw));
        }
        assert_eq!(classify_word("true"), Some(Word::Bool(true)));
        assert_eq!(classify_word("false"), Some(Word::Bool(false)));
        assert_eq!(classify_word("goto"), Some(Word::Reserved));
        assert_eq!(classify_word("gpes_pack_byte"), None);
    }

    #[test]
    fn non_keyword_is_none() {
        assert_eq!(Keyword::from_word("banana"), None);
        assert_eq!(Keyword::from_word("Vec4"), None); // case-sensitive
    }

    #[test]
    fn reserved_words_are_not_keywords() {
        for word in RESERVED_WORDS {
            assert_eq!(
                Keyword::from_word(word),
                None,
                "reserved word `{word}` must not lex as a keyword"
            );
        }
    }

    #[test]
    fn token_kind_display_is_nonempty() {
        let kinds = [
            TokenKind::Ident("x".into()),
            TokenKind::FloatLit(1.5),
            TokenKind::IntLit(3),
            TokenKind::PlusPlus,
            TokenKind::Eof,
        ];
        for k in kinds {
            assert!(!k.to_string().is_empty());
        }
    }
}
