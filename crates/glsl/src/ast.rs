//! Abstract syntax tree for the GLSL ES 1.00 subset.
//!
//! The tree is plain data (`Send + Sync`), so a compiled shader can be
//! shared across rasteriser worker threads.

use crate::span::Span;
use crate::types::{Precision, Type};
use std::sync::Arc;

/// An identifier's spelling. The lexer interns each distinct spelling of
/// a source once, so every occurrence shares one allocation and copying
/// a name (into a scope, a signature, a table) is a reference count.
pub type Name = Arc<str>;

/// Binary operators (note: no `%` or bitwise operators in ES 1.00).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*` (component-wise, or linear-algebraic for matrix/vector operands)
    Mul,
    /// `/`
    Div,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
    /// `^^`
    Xor,
}

impl BinOp {
    /// GLSL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Xor => "^^",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Unary `-`
    Neg,
    /// Unary `+` (no-op, kept for fidelity)
    Plus,
    /// `!`
    Not,
    /// Prefix `++`
    PreInc,
    /// Prefix `--`
    PreDec,
    /// Postfix `++`
    PostInc,
    /// Postfix `--`
    PostDec,
}

/// Compound-assignment operators (`=` is [`AssignOp::Assign`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Expression payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// The node's number within its translation unit, `0..`
    /// [`TranslationUnit::exprs`]: the index of its type in the checker's
    /// side table (see [`crate::sema::CompiledShader`]).
    pub id: u32,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Float literal.
    FloatLit(f32),
    /// Int literal.
    IntLit(i32),
    /// Bool literal.
    BoolLit(bool),
    /// Variable reference.
    Ident(Name),
    /// `a <op> b`; both operands share one allocation.
    Binary(BinOp, Box<[Expr; 2]>),
    /// `<op> a` / `a <op>` for inc/dec
    Unary(UnOp, Box<Expr>),
    /// `lhs <op>= rhs`
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// `cond ? yes : no`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function call or constructor: `name(args…)`. Constructors use the
    /// type name (`vec4`, `mat3`, `float`, …).
    Call(Name, Vec<Expr>),
    /// `base.field` — swizzle (`.xyz`) on vectors.
    Field(Box<Expr>, Name),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// `a, b` sequence (value of `b`).
    Comma(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor.
    /// The node is numbered 0; the parser numbers the nodes it builds.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span, id: 0 }
    }

    /// Whether the expression is a syntactic lvalue (assignability is
    /// verified more precisely by the checker).
    pub fn is_lvalue(&self) -> bool {
        match &self.kind {
            ExprKind::Ident(_) => true,
            ExprKind::Field(base, _) => base.is_lvalue(),
            ExprKind::Index(base, _) => base.is_lvalue(),
            _ => false,
        }
    }
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Statement payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Convenience constructor.
    pub fn new(kind: StmtKind, span: Span) -> Stmt {
        Stmt { kind, span }
    }
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Expression statement `expr;`
    Expr(Expr),
    /// Local declaration(s).
    Decl(VarDecl),
    /// `if (cond) then else?`
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `for (init; cond; step) body`
    For {
        /// Init statement (declaration or expression); may be empty.
        init: Option<Box<Stmt>>,
        /// Loop condition; absent means `true`.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `while (cond) body`
    While(Expr, Box<Stmt>),
    /// `do body while (cond);`
    DoWhile(Box<Stmt>, Expr),
    /// `return expr?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `discard;` (fragment shaders only)
    Discard,
    /// `{ … }`
    Block(Vec<Stmt>),
    /// Empty statement `;`
    Empty,
}

/// Storage qualifiers for globals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// No qualifier (plain global or local).
    None,
    /// `const`
    Const,
    /// `attribute` (vertex inputs)
    Attribute,
    /// `uniform`
    Uniform,
    /// `varying` (vertex outputs / fragment inputs)
    Varying,
}

/// One declarator within a declaration: `name[size]? (= init)?`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// Declared name.
    pub name: Name,
    /// Resolved type (array suffix already applied).
    pub ty: Type,
    /// Optional initialiser.
    pub init: Option<Expr>,
    /// Source location of the name.
    pub span: Span,
}

/// A declaration: qualifier, precision, base type and declarators.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Storage qualifier.
    pub storage: Storage,
    /// Explicit precision qualifier, if any.
    pub precision: Option<Precision>,
    /// Declarators sharing the base type.
    pub vars: Vec<Declarator>,
}

/// Function parameter qualifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamQual {
    /// `in` (default): pass by value.
    In,
    /// `out`: uninitialised on entry, copied back on return.
    Out,
    /// `inout`: copied in and back.
    InOut,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name (may be empty in prototypes).
    pub name: Name,
    /// Parameter type.
    pub ty: Type,
    /// in/out/inout.
    pub qual: ParamQual,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Name,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the header.
    pub span: Span,
}

/// A default-precision statement, e.g. `precision highp float;`.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionDecl {
    /// The declared precision.
    pub precision: Precision,
    /// The type it applies to (float/int/sampler2D).
    pub ty: Type,
}

/// Top-level items.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Global variable declaration.
    Var(VarDecl),
    /// Function definition.
    Function(Function),
    /// Function prototype (recorded, checked against the definition).
    Prototype(Function),
    /// `precision` statement.
    Precision(PrecisionDecl),
}

/// A parsed translation unit (one shader).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Items in source order.
    pub items: Vec<Item>,
    /// Number of expression nodes; their [`Expr::id`]s are `0..exprs`.
    pub exprs: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::default()
    }

    #[test]
    fn lvalue_classification() {
        let ident = Expr::new(ExprKind::Ident("x".into()), sp());
        assert!(ident.is_lvalue());

        let field = Expr::new(ExprKind::Field(Box::new(ident.clone()), "xy".into()), sp());
        assert!(field.is_lvalue());

        let idx = Expr::new(
            ExprKind::Index(
                Box::new(field),
                Box::new(Expr::new(ExprKind::IntLit(0), sp())),
            ),
            sp(),
        );
        assert!(idx.is_lvalue());

        let call = Expr::new(ExprKind::Call("f".into(), vec![]), sp());
        assert!(!call.is_lvalue());
        let lit = Expr::new(ExprKind::FloatLit(1.0), sp());
        assert!(!lit.is_lvalue());
        // Swizzle of a call result is not an lvalue.
        let f2 = Expr::new(ExprKind::Field(Box::new(call), "x".into()), sp());
        assert!(!f2.is_lvalue());
    }

    #[test]
    fn ast_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TranslationUnit>();
        assert_send_sync::<Expr>();
        assert_send_sync::<Stmt>();
    }

    #[test]
    fn binop_symbols() {
        assert_eq!(BinOp::Add.symbol(), "+");
        assert_eq!(BinOp::Xor.symbol(), "^^");
        assert_eq!(BinOp::Le.symbol(), "<=");
    }
}
