//! Recursive-descent parser for the GLSL ES 1.00 subset.

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::tokenize_from;
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};
use crate::types::{Precision, Type};

/// How deep a shader may nest: enclosing statements, parenthesised
/// sub-expressions, call arguments and prefix operators each count one
/// level, and an expression counts its own height, so a left-deep chain
/// like `a + a + … + a` or `v.xyzw.xyzw…` counts one level per operator.
///
/// Every pass after the parser (strict, sema, lowering, the tree-walker
/// and dropping the tree) recurses over the AST, so this one bound keeps
/// all of them inside a small thread stack: untrusted source is rejected
/// as a typed parse error instead of overflowing the stack, which would
/// abort the whole process. The deepest bundled kernel reaches 11.
pub const MAX_NESTING: usize = 64;

/// Parses a complete shader source into a [`TranslationUnit`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered, including
/// nesting deeper than [`MAX_NESTING`].
pub fn parse(source: &str) -> Result<TranslationUnit, CompileError> {
    parse_from(source, 0, 1)
}

/// Parses `source` as the part of a longer preprocessed source that
/// starts at byte `start` on line `line`, after whole items.
pub(crate) fn parse_from(
    source: &str,
    start: u32,
    line: u32,
) -> Result<TranslationUnit, CompileError> {
    let tokens = tokenize_from(source, start, line)?;
    Parser::new(tokens).translation_unit()
}

struct Parser {
    toks: Vec<Token>,
    /// Each constructor callee's name, made on its first call, indexed
    /// by keyword.
    constructors: [Option<Name>; Keyword::ALL.len()],
    pos: usize,
    /// Open nesting levels around the current position.
    depth: usize,
    /// Height of the expression the last expression rule returned (a
    /// leaf is 1).
    height: usize,
    /// Expression nodes built so far.
    exprs: u32,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Self {
        Parser {
            toks,
            constructors: std::array::from_fn(|_| None),
            pos: 0,
            depth: 0,
            height: 0,
            exprs: 0,
        }
    }

    fn too_deep(&self) -> CompileError {
        CompileError::parse(
            format!("nesting deeper than {MAX_NESTING} levels"),
            self.span(),
        )
    }

    /// Opens one nesting level; the caller closes it with `depth -= 1`.
    fn enter(&mut self) -> Result<(), CompileError> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        Ok(())
    }

    /// Builds an expression node one level above `below`, the height of
    /// its tallest child (0 for a leaf), numbered after every node built
    /// before it.
    fn node(&mut self, kind: ExprKind, span: Span, below: usize) -> Result<Expr, CompileError> {
        self.height = below + 1;
        if self.depth + self.height > MAX_NESTING {
            return Err(self.too_deep());
        }
        let id = self.exprs;
        self.exprs += 1;
        Ok(Expr { kind, span, id })
    }

    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos.min(self.toks.len() - 1)].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        &self.toks[(self.pos + offset).min(self.toks.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) {
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
    }

    fn accept(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Span, CompileError> {
        if self.peek() == kind {
            let sp = self.span();
            self.bump();
            Ok(sp)
        } else {
            Err(CompileError::parse(
                format!("expected {kind}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    /// Moves the identifier out of the token at the cursor and steps past
    /// it: the parser never reads a consumed token's kind again.
    fn take_ident(&mut self) -> Name {
        let at = self.pos.min(self.toks.len() - 1);
        let kind = std::mem::replace(&mut self.toks[at].kind, TokenKind::Eof);
        self.bump();
        match kind {
            TokenKind::Ident(name) => name,
            other => unreachable!("take_ident at {other}"),
        }
    }

    fn expect_ident(&mut self) -> Result<(Name, Span), CompileError> {
        match self.peek() {
            TokenKind::Ident(_) => {
                let sp = self.span();
                Ok((self.take_ident(), sp))
            }
            other => Err(CompileError::parse(
                format!("expected identifier, found {other}"),
                self.span(),
            )),
        }
    }

    // ---- types and qualifiers -------------------------------------------

    fn peek_precision(&self) -> Option<Precision> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Highp) => Some(Precision::High),
            TokenKind::Keyword(Keyword::Mediump) => Some(Precision::Medium),
            TokenKind::Keyword(Keyword::Lowp) => Some(Precision::Low),
            _ => None,
        }
    }

    fn accept_precision(&mut self) -> Option<Precision> {
        let p = self.peek_precision();
        if p.is_some() {
            self.bump();
        }
        p
    }

    fn peek_type(&self) -> Option<Type> {
        self.peek_type_at(0)
    }

    fn peek_type_at(&self, offset: usize) -> Option<Type> {
        let kw = match self.peek_at(offset) {
            TokenKind::Keyword(kw) => *kw,
            _ => return None,
        };
        Some(match kw {
            Keyword::Void => Type::Void,
            Keyword::Float => Type::Float,
            Keyword::Int => Type::Int,
            Keyword::Bool => Type::Bool,
            Keyword::Vec2 => Type::Vec2,
            Keyword::Vec3 => Type::Vec3,
            Keyword::Vec4 => Type::Vec4,
            Keyword::Ivec2 => Type::IVec2,
            Keyword::Ivec3 => Type::IVec3,
            Keyword::Ivec4 => Type::IVec4,
            Keyword::Bvec2 => Type::BVec2,
            Keyword::Bvec3 => Type::BVec3,
            Keyword::Bvec4 => Type::BVec4,
            Keyword::Mat2 => Type::Mat2,
            Keyword::Mat3 => Type::Mat3,
            Keyword::Mat4 => Type::Mat4,
            Keyword::Sampler2D => Type::Sampler2D,
            _ => return None,
        })
    }

    fn expect_type(&mut self) -> Result<Type, CompileError> {
        if let Some(ty) = self.peek_type() {
            self.bump();
            Ok(ty)
        } else if matches!(self.peek(), TokenKind::Keyword(Keyword::SamplerCube)) {
            Err(CompileError::parse(
                "samplerCube is not supported by this GPGPU-oriented subset",
                self.span(),
            ))
        } else if matches!(self.peek(), TokenKind::Keyword(Keyword::Struct)) {
            Err(CompileError::parse(
                "struct types are not supported by this subset",
                self.span(),
            ))
        } else {
            Err(CompileError::parse(
                format!("expected type, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    /// Constant-folds an integer expression used as an array size.
    fn const_int(&self, expr: &Expr) -> Result<i64, CompileError> {
        match &expr.kind {
            ExprKind::IntLit(v) => Ok(*v as i64),
            ExprKind::Unary(UnOp::Neg, inner) => Ok(-self.const_int(inner)?),
            ExprKind::Unary(UnOp::Plus, inner) => self.const_int(inner),
            ExprKind::Binary(op, operands) => {
                let [a, b] = &**operands;
                let (a, b) = (self.const_int(a)?, self.const_int(b)?);
                Ok(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0 {
                            return Err(CompileError::parse(
                                "division by zero in constant expression",
                                expr.span,
                            ));
                        }
                        a / b
                    }
                    _ => {
                        return Err(CompileError::parse(
                            "unsupported operator in constant expression",
                            expr.span,
                        ))
                    }
                })
            }
            _ => Err(CompileError::parse(
                "array size must be a constant integer expression",
                expr.span,
            )),
        }
    }

    fn array_suffix(&mut self, base: Type) -> Result<Type, CompileError> {
        if self.accept(&TokenKind::LBracket) {
            let size_expr = self.assignment_expr()?;
            self.expect(&TokenKind::RBracket)?;
            let size = self.const_int(&size_expr)?;
            if size <= 0 || size > 65536 {
                return Err(CompileError::parse(
                    format!("array size {size} out of range"),
                    size_expr.span,
                ));
            }
            Ok(Type::Array(Box::new(base), size as usize))
        } else {
            Ok(base)
        }
    }

    // ---- translation unit ------------------------------------------------

    fn translation_unit(&mut self) -> Result<TranslationUnit, CompileError> {
        let mut unit = TranslationUnit::default();
        while !matches!(self.peek(), TokenKind::Eof) {
            // Stray semicolons between items.
            if self.accept(&TokenKind::Semicolon) {
                continue;
            }
            unit.items.push(self.item()?);
        }
        unit.exprs = self.exprs;
        Ok(unit)
    }

    fn item(&mut self) -> Result<Item, CompileError> {
        // `precision <prec> <type> ;`
        if matches!(self.peek(), TokenKind::Keyword(Keyword::Precision)) {
            self.bump();
            let precision = self
                .accept_precision()
                .ok_or_else(|| CompileError::parse("expected precision qualifier", self.span()))?;
            let ty = self.expect_type()?;
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Item::Precision(PrecisionDecl { precision, ty }));
        }
        // `invariant varying ...` — accept and ignore the invariant keyword.
        if matches!(self.peek(), TokenKind::Keyword(Keyword::Invariant)) {
            self.bump();
        }

        let storage = match self.peek() {
            TokenKind::Keyword(Keyword::Const) => {
                self.bump();
                Storage::Const
            }
            TokenKind::Keyword(Keyword::Attribute) => {
                self.bump();
                Storage::Attribute
            }
            TokenKind::Keyword(Keyword::Uniform) => {
                self.bump();
                Storage::Uniform
            }
            TokenKind::Keyword(Keyword::Varying) => {
                self.bump();
                Storage::Varying
            }
            _ => Storage::None,
        };
        let precision = self.accept_precision();
        let header_span = self.span();
        let ty = self.expect_type()?;

        // Function definition or prototype?
        if storage == Storage::None
            && matches!(self.peek(), TokenKind::Ident(_))
            && matches!(self.peek_at(1), TokenKind::LParen)
        {
            let (name, _) = self.expect_ident()?;
            let params = self.params()?;
            if self.accept(&TokenKind::Semicolon) {
                return Ok(Item::Prototype(Function {
                    name,
                    ret: ty,
                    params,
                    body: Vec::new(),
                    span: header_span,
                }));
            }
            let body = self.block_body()?;
            return Ok(Item::Function(Function {
                name,
                ret: ty,
                params,
                body,
                span: header_span,
            }));
        }

        let decl = self.declarators(storage, precision, ty)?;
        self.expect(&TokenKind::Semicolon)?;
        Ok(Item::Var(decl))
    }

    fn params(&mut self) -> Result<Vec<Param>, CompileError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.accept(&TokenKind::RParen) {
            return Ok(params);
        }
        // `(void)` means no parameters.
        if matches!(self.peek(), TokenKind::Keyword(Keyword::Void))
            && matches!(self.peek_at(1), TokenKind::RParen)
        {
            self.bump();
            self.bump();
            return Ok(params);
        }
        loop {
            let qual = match self.peek() {
                TokenKind::Keyword(Keyword::In) => {
                    self.bump();
                    ParamQual::In
                }
                TokenKind::Keyword(Keyword::Out) => {
                    self.bump();
                    ParamQual::Out
                }
                TokenKind::Keyword(Keyword::Inout) => {
                    self.bump();
                    ParamQual::InOut
                }
                _ => ParamQual::In,
            };
            self.accept_precision();
            let base = self.expect_type()?;
            let (name, ty) = if let TokenKind::Ident(_) = self.peek() {
                let (name, _) = self.expect_ident()?;
                let ty = self.array_suffix(base)?;
                (name, ty)
            } else {
                (Name::from(""), base)
            };
            params.push(Param { name, ty, qual });
            if !self.accept(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(params)
    }

    fn declarators(
        &mut self,
        storage: Storage,
        precision: Option<Precision>,
        base: Type,
    ) -> Result<VarDecl, CompileError> {
        let mut vars = Vec::new();
        loop {
            let (name, span) = self.expect_ident()?;
            let ty = self.array_suffix(base.clone())?;
            let init = if self.accept(&TokenKind::Eq) {
                Some(self.assignment_expr()?)
            } else {
                None
            };
            vars.push(Declarator {
                name,
                ty,
                init,
                span,
            });
            if !self.accept(&TokenKind::Comma) {
                break;
            }
        }
        Ok(VarDecl {
            storage,
            precision,
            vars,
        })
    }

    // ---- statements -------------------------------------------------------
    //
    // The recursive rules below keep their stack frames small: every arm
    // that needs locals of its own is a separate function, so a deeply
    // nested shader costs little stack per level even in an unoptimised
    // build.

    fn block_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.accept(&TokenKind::RBrace) {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(CompileError::parse("unterminated block", self.span()));
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    /// A statement, one nesting level below its parent.
    fn statement(&mut self) -> Result<Stmt, CompileError> {
        self.enter()?;
        let stmt = self.statement_here();
        self.depth -= 1;
        stmt
    }

    fn statement_here(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        match self.peek() {
            TokenKind::LBrace => {
                let body = self.block_body()?;
                Ok(Stmt::new(StmtKind::Block(body), span))
            }
            TokenKind::Keyword(Keyword::If) => self.if_statement(span),
            TokenKind::Keyword(Keyword::For) => self.for_statement(span),
            TokenKind::Keyword(Keyword::While) => self.while_statement(span),
            TokenKind::Keyword(Keyword::Do) => self.do_statement(span),
            _ => self.leaf_statement(span),
        }
    }

    fn if_statement(&mut self, span: Span) -> Result<Stmt, CompileError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen)?;
        let then = Box::new(self.statement()?);
        let els = if self.accept(&TokenKind::Keyword(Keyword::Else)) {
            Some(Box::new(self.statement()?))
        } else {
            None
        };
        Ok(Stmt::new(StmtKind::If(cond, then, els), span))
    }

    fn for_statement(&mut self, span: Span) -> Result<Stmt, CompileError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let init = if self.accept(&TokenKind::Semicolon) {
            None
        } else {
            Some(Box::new(self.simple_statement()?))
        };
        let cond = if matches!(self.peek(), TokenKind::Semicolon) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::Semicolon)?;
        let step = if matches!(self.peek(), TokenKind::RParen) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::RParen)?;
        let body = Box::new(self.statement()?);
        Ok(Stmt::new(
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            span,
        ))
    }

    fn while_statement(&mut self, span: Span) -> Result<Stmt, CompileError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen)?;
        let body = Box::new(self.statement()?);
        Ok(Stmt::new(StmtKind::While(cond, body), span))
    }

    fn do_statement(&mut self, span: Span) -> Result<Stmt, CompileError> {
        self.bump();
        let body = Box::new(self.statement()?);
        self.expect(&TokenKind::Keyword(Keyword::While))?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semicolon)?;
        Ok(Stmt::new(StmtKind::DoWhile(body, cond), span))
    }

    /// A statement that holds no other statement.
    fn leaf_statement(&mut self, span: Span) -> Result<Stmt, CompileError> {
        match self.peek() {
            TokenKind::Semicolon => {
                self.bump();
                Ok(Stmt::new(StmtKind::Empty, span))
            }
            TokenKind::Keyword(Keyword::Precision) => {
                // Block-scope precision statement: parse and ignore.
                self.bump();
                self.accept_precision();
                self.expect_type()?;
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::new(StmtKind::Empty, span))
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if matches!(self.peek(), TokenKind::Semicolon) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::new(StmtKind::Return(value), span))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::new(StmtKind::Break, span))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::new(StmtKind::Continue, span))
            }
            TokenKind::Keyword(Keyword::Discard) => {
                self.bump();
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::new(StmtKind::Discard, span))
            }
            _ => self.simple_statement(),
        }
    }

    /// A declaration or expression statement (used directly in `for` inits).
    fn simple_statement(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        let is_decl = matches!(self.peek(), TokenKind::Keyword(Keyword::Const))
            || self.peek_precision().is_some()
            || self.peek_type().is_some();
        if is_decl {
            let storage = if self.accept(&TokenKind::Keyword(Keyword::Const)) {
                Storage::Const
            } else {
                Storage::None
            };
            let precision = self.accept_precision();
            let ty = self.expect_type()?;
            let decl = self.declarators(storage, precision, ty)?;
            self.expect(&TokenKind::Semicolon)?;
            Ok(Stmt::new(StmtKind::Decl(decl), span))
        } else {
            let expr = self.expression()?;
            self.expect(&TokenKind::Semicolon)?;
            Ok(Stmt::new(StmtKind::Expr(expr), span))
        }
    }

    // ---- expressions -------------------------------------------------------
    //
    // Each rule on the path a parenthesised operand recurses through
    // (expression → assignment → ternary → binary → unary → postfix →
    // primary) hands its less common branches to a helper, for the same
    // small-frame reason as the statement rules.

    /// Full expression, including the comma operator.
    fn expression(&mut self) -> Result<Expr, CompileError> {
        let mut expr = self.assignment_expr()?;
        while self.accept(&TokenKind::Comma) {
            expr = self.comma_rest(expr)?;
        }
        Ok(expr)
    }

    fn comma_rest(&mut self, lhs: Expr) -> Result<Expr, CompileError> {
        let below = self.height;
        let rhs = self.assignment_expr()?;
        let span = lhs.span.to(rhs.span);
        let below = below.max(self.height);
        self.node(ExprKind::Comma(Box::new(lhs), Box::new(rhs)), span, below)
    }

    /// An assignment expression, one nesting level below its parent.
    fn assignment_expr(&mut self) -> Result<Expr, CompileError> {
        self.enter()?;
        let expr = self.assignment_here();
        self.depth -= 1;
        expr
    }

    fn assignment_here(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => AssignOp::Assign,
            TokenKind::PlusEq => AssignOp::AddAssign,
            TokenKind::MinusEq => AssignOp::SubAssign,
            TokenKind::StarEq => AssignOp::MulAssign,
            TokenKind::SlashEq => AssignOp::DivAssign,
            _ => return Ok(lhs),
        };
        self.assignment_rest(lhs, op)
    }

    fn assignment_rest(&mut self, lhs: Expr, op: AssignOp) -> Result<Expr, CompileError> {
        let op_span = self.span();
        self.bump();
        if !lhs.is_lvalue() {
            return Err(CompileError::parse(
                "left-hand side of assignment is not an lvalue",
                op_span,
            ));
        }
        let below = self.height;
        let rhs = self.assignment_expr()?;
        let span = lhs.span.to(rhs.span);
        let below = below.max(self.height);
        self.node(
            ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            span,
            below,
        )
    }

    fn ternary_expr(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary_expr(0)?;
        if matches!(self.peek(), TokenKind::Question) {
            self.ternary_rest(cond)
        } else {
            Ok(cond)
        }
    }

    fn ternary_rest(&mut self, cond: Expr) -> Result<Expr, CompileError> {
        self.bump();
        let mut below = self.height;
        let yes = self.assignment_expr()?;
        below = below.max(self.height);
        self.expect(&TokenKind::Colon)?;
        let no = self.assignment_expr()?;
        let span = cond.span.to(no.span);
        let below = below.max(self.height);
        self.node(
            ExprKind::Ternary(Box::new(cond), Box::new(yes), Box::new(no)),
            span,
            below,
        )
    }

    /// The binary operator at the cursor and its precedence level
    /// (0 = `||`, lowest, … 6 = `*` `/`, highest).
    fn binop(&self) -> Option<(BinOp, usize)> {
        Some(match self.peek() {
            TokenKind::OrOr => (BinOp::Or, 0),
            TokenKind::XorXor => (BinOp::Xor, 1),
            TokenKind::AndAnd => (BinOp::And, 2),
            TokenKind::EqEq => (BinOp::Eq, 3),
            TokenKind::NotEq => (BinOp::Ne, 3),
            TokenKind::Lt => (BinOp::Lt, 4),
            TokenKind::Gt => (BinOp::Gt, 4),
            TokenKind::Le => (BinOp::Le, 4),
            TokenKind::Ge => (BinOp::Ge, 4),
            TokenKind::Plus => (BinOp::Add, 5),
            TokenKind::Minus => (BinOp::Sub, 5),
            TokenKind::Star => (BinOp::Mul, 6),
            TokenKind::Slash => (BinOp::Div, 6),
            _ => return None,
        })
    }

    /// Precedence climbing over left-associative operators of level
    /// `min_level` and above: one frame per precedence step actually
    /// taken, not one per level.
    fn binary_expr(&mut self, min_level: usize) -> Result<Expr, CompileError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, level)) = self.binop().filter(|&(_, level)| level >= min_level) {
            lhs = self.binary_rest(lhs, op, level)?;
        }
        Ok(lhs)
    }

    fn binary_rest(&mut self, lhs: Expr, op: BinOp, level: usize) -> Result<Expr, CompileError> {
        self.bump();
        let below = self.height;
        let rhs = self.binary_expr(level + 1)?;
        let span = lhs.span.to(rhs.span);
        let below = below.max(self.height);
        self.node(ExprKind::Binary(op, Box::new([lhs, rhs])), span, below)
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Plus => UnOp::Plus,
            TokenKind::Bang => UnOp::Not,
            TokenKind::PlusPlus => UnOp::PreInc,
            TokenKind::MinusMinus => UnOp::PreDec,
            _ => return self.postfix_expr(),
        };
        self.prefix_expr(op)
    }

    /// A prefix operator applied to the unary expression after it, one
    /// nesting level down.
    fn prefix_expr(&mut self, op: UnOp) -> Result<Expr, CompileError> {
        let span = self.span();
        self.bump();
        self.enter()?;
        let inner = self.unary_expr();
        self.depth -= 1;
        let inner = inner?;
        if matches!(op, UnOp::PreInc | UnOp::PreDec) && !inner.is_lvalue() {
            return Err(CompileError::parse(
                "operand of ++/-- must be an lvalue",
                span,
            ));
        }
        let full = span.to(inner.span);
        let below = self.height;
        self.node(ExprKind::Unary(op, Box::new(inner)), full, below)
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        let mut expr = self.primary_expr()?;
        while matches!(
            self.peek(),
            TokenKind::LBracket | TokenKind::Dot | TokenKind::PlusPlus | TokenKind::MinusMinus
        ) {
            expr = self.postfix_op(expr)?;
        }
        Ok(expr)
    }

    /// Applies the postfix operator at the cursor to `expr`.
    fn postfix_op(&mut self, expr: Expr) -> Result<Expr, CompileError> {
        let below = self.height;
        let op = self.peek().clone();
        self.bump();
        match op {
            TokenKind::LBracket => {
                let index = self.expression()?;
                let end = self.expect(&TokenKind::RBracket)?;
                let span = expr.span.to(end);
                let below = below.max(self.height);
                self.node(
                    ExprKind::Index(Box::new(expr), Box::new(index)),
                    span,
                    below,
                )
            }
            TokenKind::Dot => {
                let (field, fspan) = self.expect_ident()?;
                let span = expr.span.to(fspan);
                self.node(ExprKind::Field(Box::new(expr), field), span, below)
            }
            inc_dec => {
                let sp = self.prev_span();
                let (op, sign) = if inc_dec == TokenKind::PlusPlus {
                    (UnOp::PostInc, "++")
                } else {
                    (UnOp::PostDec, "--")
                };
                if !expr.is_lvalue() {
                    return Err(CompileError::parse(
                        format!("operand of {sign} must be an lvalue"),
                        sp,
                    ));
                }
                let span = expr.span.to(sp);
                self.node(ExprKind::Unary(op, Box::new(expr)), span, below)
            }
        }
    }

    /// Parses `( args… )`, leaving the tallest argument's height (0 for
    /// none) in `self.height`.
    fn call_args(&mut self) -> Result<Vec<Expr>, CompileError> {
        self.expect(&TokenKind::LParen)?;
        self.height = 0;
        let mut args = Vec::new();
        if self.accept(&TokenKind::RParen) {
            return Ok(args);
        }
        // `f(void)` is an empty argument list.
        if matches!(self.peek(), TokenKind::Keyword(Keyword::Void))
            && matches!(self.peek_at(1), TokenKind::RParen)
        {
            self.bump();
            self.bump();
            return Ok(args);
        }
        let mut below = 0;
        loop {
            args.push(self.assignment_expr()?);
            below = below.max(self.height);
            if !self.accept(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.height = below;
        Ok(args)
    }

    fn primary_expr(&mut self) -> Result<Expr, CompileError> {
        if self.accept(&TokenKind::LParen) {
            let inner = self.expression()?;
            self.expect(&TokenKind::RParen)?;
            Ok(inner)
        } else {
            self.primary_leaf()
        }
    }

    /// A literal, a variable, or a call with its arguments.
    fn primary_leaf(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        let leaf = match self.peek() {
            TokenKind::FloatLit(v) => ExprKind::FloatLit(*v),
            TokenKind::IntLit(v) => ExprKind::IntLit(*v),
            TokenKind::BoolLit(v) => ExprKind::BoolLit(*v),
            TokenKind::Ident(_) => {
                let name = self.take_ident();
                if matches!(self.peek(), TokenKind::LParen) {
                    return self.call(name, span);
                }
                return self.node(ExprKind::Ident(name), span, 0);
            }
            // Type constructors: vec4(...), float(...), mat3(...)
            &TokenKind::Keyword(kw) => match self.peek_type() {
                Some(ty) if ty != Type::Void && ty != Type::Sampler2D => {
                    self.bump();
                    let callee = Name::clone(
                        self.constructors[kw as usize].get_or_insert_with(|| kw.as_str().into()),
                    );
                    return self.call(callee, span);
                }
                _ => {
                    return Err(CompileError::parse(
                        format!("unexpected keyword `{kw}` in expression"),
                        span,
                    ))
                }
            },
            other => {
                return Err(CompileError::parse(
                    format!("unexpected {other} in expression"),
                    span,
                ))
            }
        };
        self.bump();
        self.node(leaf, span, 0)
    }

    fn call(&mut self, callee: Name, span: Span) -> Result<Expr, CompileError> {
        let args = self.call_args()?;
        let end = self.prev_span();
        let below = self.height;
        self.node(ExprKind::Call(callee, args), span.to(end), below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource: {src}"))
    }

    fn only_fn(unit: &TranslationUnit) -> &Function {
        unit.items
            .iter()
            .find_map(|i| match i {
                Item::Function(f) => Some(f),
                _ => None,
            })
            .expect("expected a function")
    }

    #[test]
    fn parses_minimal_fragment_shader() {
        let unit = parse_ok(
            "precision highp float;\n\
             void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }",
        );
        assert_eq!(unit.items.len(), 2);
        let f = only_fn(&unit);
        assert_eq!(&*f.name, "main");
        assert_eq!(f.ret, Type::Void);
        assert!(f.params.is_empty());
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn parses_globals_with_qualifiers() {
        let unit = parse_ok(
            "uniform sampler2D u_tex;\n\
             attribute vec2 a_pos;\n\
             varying vec2 v_uv;\n\
             const float K = 2.5;\n\
             void main() {}",
        );
        let storages: Vec<Storage> = unit
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Var(d) => Some(d.storage),
                _ => None,
            })
            .collect();
        assert_eq!(
            storages,
            vec![
                Storage::Uniform,
                Storage::Attribute,
                Storage::Varying,
                Storage::Const
            ]
        );
    }

    #[test]
    fn parses_for_loop_with_decl_init() {
        let unit =
            parse_ok("void main() { float s = 0.0; for (int i = 0; i < 8; i++) { s += 1.0; } }");
        let f = only_fn(&unit);
        assert!(matches!(f.body[1].kind, StmtKind::For { .. }));
    }

    #[test]
    fn parses_swizzles_and_indexing() {
        let unit = parse_ok("void main() { vec4 c; c.xy = c.zw; c[0] = c.w; }");
        let f = only_fn(&unit);
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn parses_ternary_and_logic() {
        parse_ok("void main() { float x = true ? 1.0 : 0.0; bool b = x > 0.5 && x < 1.5; }");
    }

    #[test]
    fn parses_array_declaration() {
        let unit = parse_ok("void main() { float acc[4]; acc[0] = 1.0; }");
        let f = only_fn(&unit);
        if let StmtKind::Decl(d) = &f.body[0].kind {
            assert_eq!(d.vars[0].ty, Type::Array(Box::new(Type::Float), 4));
        } else {
            panic!("expected declaration");
        }
    }

    #[test]
    fn parses_const_expr_array_size() {
        let unit = parse_ok("void main() { float a[2 * 3 + 1]; }");
        let f = only_fn(&unit);
        if let StmtKind::Decl(d) = &f.body[0].kind {
            assert_eq!(d.vars[0].ty, Type::Array(Box::new(Type::Float), 7));
        } else {
            panic!("expected declaration");
        }
    }

    #[test]
    fn parses_function_with_out_params() {
        let unit = parse_ok(
            "void split(in float v, out float hi, inout float lo) { hi = v; lo += v; }\n\
             void main() {}",
        );
        let f = unit
            .items
            .iter()
            .find_map(|i| match i {
                Item::Function(f) if &*f.name == "split" => Some(f),
                _ => None,
            })
            .expect("split fn");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].qual, ParamQual::In);
        assert_eq!(f.params[1].qual, ParamQual::Out);
        assert_eq!(f.params[2].qual, ParamQual::InOut);
    }

    #[test]
    fn parses_prototype_then_definition() {
        let unit = parse_ok("float f(float x);\nfloat f(float x) { return x; }\nvoid main() {}");
        let protos = unit
            .items
            .iter()
            .filter(|i| matches!(i, Item::Prototype(_)))
            .count();
        assert_eq!(protos, 1);
    }

    #[test]
    fn assignment_to_rvalue_is_error() {
        assert!(parse("void main() { 1.0 = 2.0; }").is_err());
        assert!(parse("void main() { f() = 2.0; }").is_err());
    }

    #[test]
    fn struct_is_rejected_with_clear_message() {
        let e = parse("struct S { float x; };").unwrap_err();
        assert!(e.message.contains("struct"));
    }

    #[test]
    fn multiple_declarators_share_type() {
        let unit = parse_ok("void main() { float a = 1.0, b, c = a; }");
        let f = only_fn(&unit);
        if let StmtKind::Decl(d) = &f.body[0].kind {
            assert_eq!(d.vars.len(), 3);
            assert!(d.vars[0].init.is_some());
            assert!(d.vars[1].init.is_none());
        } else {
            panic!("expected declaration");
        }
    }

    #[test]
    fn comma_operator_in_for_step() {
        parse_ok("void main() { int j = 0; for (int i = 0; i < 4; i++, j++) {} }");
    }

    #[test]
    fn while_and_do_while() {
        parse_ok("void main() { int i = 0; while (i < 3) { i++; } do { i--; } while (i > 0); }");
    }

    #[test]
    fn discard_statement() {
        let unit = parse_ok("void main() { if (true) discard; }");
        let f = only_fn(&unit);
        assert!(matches!(f.body[0].kind, StmtKind::If(..)));
    }

    #[test]
    fn nested_calls_and_constructors() {
        parse_ok("void main() { vec4 v = vec4(vec2(1.0, 2.0), floor(mod(7.0, 4.0)), 1.0); }");
    }

    #[test]
    fn precedence_mul_over_add() {
        let unit = parse_ok("void main() { float x = 1.0 + 2.0 * 3.0; }");
        let f = only_fn(&unit);
        if let StmtKind::Decl(d) = &f.body[0].kind {
            let init = d.vars[0].init.as_ref().expect("init");
            if let ExprKind::Binary(BinOp::Add, operands) = &init.kind {
                assert!(matches!(operands[1].kind, ExprKind::Binary(BinOp::Mul, _)));
            } else {
                panic!("expected + at top");
            }
        }
    }

    #[test]
    fn unexpected_token_reports_position() {
        let e = parse("void main() { float x = ; }").unwrap_err();
        assert_eq!(e.span.line, 1);
        assert!(e.message.contains("unexpected"));
    }

    #[test]
    fn void_param_list() {
        let unit = parse_ok("void main(void) {}");
        assert!(only_fn(&unit).params.is_empty());
    }

    #[test]
    fn empty_statements_allowed() {
        parse_ok("void main() { ;; if (true) ; }");
    }
}
