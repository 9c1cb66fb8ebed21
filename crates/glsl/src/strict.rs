//! GLSL ES 1.00 **Appendix A** restrictions ("Limitations for ES 2.0").
//!
//! Core ES 2 only guarantees shaders that fit a minimal control-flow
//! profile; anything richer is allowed to fail at compile time on real
//! low-end drivers — and on the VideoCore IV-class hardware the paper
//! targets, it does. GPGPU kernels that want to run *everywhere* must
//! stay inside this profile, so the framework can opt into enforcing it
//! ([`crate::compile_strict`]).
//!
//! Enforced rules (Appendix A §4–5):
//!
//! * only `for` loops — no `while` / `do-while`;
//! * the loop must declare exactly one index of type `float` or `int`,
//!   initialised with a constant expression;
//! * the condition must compare the index against a constant expression
//!   with one of `< <= > >= == !=`;
//! * the step must be `index++`, `index--`, `index += const` or
//!   `index -= const`;
//! * the body must not write to the index.
//!
//! "Constant expression" here means literals, other loop indices are
//! *not* allowed, and arithmetic over literals is folded.

use crate::ast::{
    AssignOp, BinOp, Expr, ExprKind, Function, Item, Stmt, StmtKind, TranslationUnit, UnOp,
};
use crate::error::CompileError;
use crate::span::Span;

/// Marker type describing the enforced profile (for documentation and
/// discoverability in the public API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrictProfile;

/// Validates a parsed unit against Appendix A.
///
/// # Errors
///
/// [`CompileError`] (phase `Check`) naming the first violation.
pub fn check_appendix_a(unit: &TranslationUnit) -> Result<(), CompileError> {
    for item in &unit.items {
        if let Item::Function(f) = item {
            check_function(f)?;
        }
    }
    Ok(())
}

fn check_function(f: &Function) -> Result<(), CompileError> {
    for stmt in &f.body {
        check_stmt(stmt)?;
    }
    Ok(())
}

fn check_stmt(stmt: &Stmt) -> Result<(), CompileError> {
    match &stmt.kind {
        StmtKind::While(..) => Err(CompileError::check(
            "appendix A: `while` loops are not supported by the minimum profile",
            stmt.span,
        )),
        StmtKind::DoWhile(..) => Err(CompileError::check(
            "appendix A: `do-while` loops are not supported by the minimum profile",
            stmt.span,
        )),
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            let index = check_for_header(init.as_deref(), cond.as_ref(), step.as_ref(), stmt.span)?;
            check_index_not_written(body, index)?;
            check_stmt(body)
        }
        StmtKind::If(_, then, otherwise) => {
            check_stmt(then)?;
            if let Some(e) = otherwise {
                check_stmt(e)?;
            }
            Ok(())
        }
        StmtKind::Block(stmts) => {
            for s in stmts {
                check_stmt(s)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Validates the `for (init; cond; step)` header and returns the index
/// variable name.
fn check_for_header<'a>(
    init: Option<&'a Stmt>,
    cond: Option<&Expr>,
    step: Option<&Expr>,
    span: Span,
) -> Result<&'a str, CompileError> {
    // init: `type index = constant-expression`
    let index = match init.map(|s| &s.kind) {
        Some(StmtKind::Decl(decl)) if decl.vars.len() == 1 => {
            let d = &decl.vars[0];
            match &d.init {
                Some(e) if is_const_expr(e) => &*d.name,
                Some(_) => {
                    return Err(CompileError::check(
                        "appendix A: loop index must be initialised with a constant expression",
                        span,
                    ))
                }
                None => {
                    return Err(CompileError::check(
                        "appendix A: loop index must be initialised in the for header",
                        span,
                    ))
                }
            }
        }
        _ => {
            return Err(CompileError::check(
                "appendix A: for loops must declare exactly one index in the header",
                span,
            ))
        }
    };

    // cond: `index <op> constant-expression`
    match cond.map(|e| &e.kind) {
        Some(ExprKind::Binary(
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne,
            operands,
        )) => {
            let [lhs, rhs] = &**operands;
            let index_on_left =
                matches!(&lhs.kind, ExprKind::Ident(n) if **n == *index) && is_const_expr(rhs);
            let index_on_right =
                matches!(&rhs.kind, ExprKind::Ident(n) if **n == *index) && is_const_expr(lhs);
            if !index_on_left && !index_on_right {
                return Err(CompileError::check(
                    "appendix A: loop condition must compare the index with a constant expression",
                    span,
                ));
            }
        }
        _ => {
            return Err(CompileError::check(
                "appendix A: loop condition must be a comparison of the index",
                span,
            ))
        }
    }

    // step: ++/-- or += / -= constant.
    let step_ok = match step.map(|e| &e.kind) {
        Some(ExprKind::Unary(
            UnOp::PreInc | UnOp::PostInc | UnOp::PreDec | UnOp::PostDec,
            inner,
        )) => matches!(&inner.kind, ExprKind::Ident(n) if **n == *index),
        Some(ExprKind::Assign(AssignOp::AddAssign | AssignOp::SubAssign, lhs, rhs)) => {
            matches!(&lhs.kind, ExprKind::Ident(n) if **n == *index) && is_const_expr(rhs)
        }
        _ => false,
    };
    if !step_ok {
        return Err(CompileError::check(
            "appendix A: loop step must be index++/--, or index +=/-= constant",
            span,
        ));
    }
    Ok(index)
}

/// A constant expression per Appendix A: literals combined with
/// arithmetic and unary sign.
fn is_const_expr(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::FloatLit(_) | ExprKind::IntLit(_) | ExprKind::BoolLit(_) => true,
        ExprKind::Unary(UnOp::Neg | UnOp::Plus, inner) => is_const_expr(inner),
        ExprKind::Binary(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, operands) => {
            operands.iter().all(is_const_expr)
        }
        // Constructors of constants (e.g. `float(4)`) count.
        ExprKind::Call(name, args) => {
            matches!(&**name, "float" | "int") && args.iter().all(is_const_expr)
        }
        _ => false,
    }
}

/// Rejects writes to the loop index anywhere in the body.
fn check_index_not_written(stmt: &Stmt, index: &str) -> Result<(), CompileError> {
    match &stmt.kind {
        StmtKind::Expr(e) => check_expr_no_write(e, index),
        StmtKind::Decl(decl) => {
            for d in &decl.vars {
                if let Some(init) = &d.init {
                    check_expr_no_write(init, index)?;
                }
            }
            Ok(())
        }
        StmtKind::If(c, then, otherwise) => {
            check_expr_no_write(c, index)?;
            check_index_not_written(then, index)?;
            if let Some(e) = otherwise {
                check_index_not_written(e, index)?;
            }
            Ok(())
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(s) = init {
                check_index_not_written(s, index)?;
            }
            if let Some(c) = cond {
                check_expr_no_write(c, index)?;
            }
            if let Some(s) = step {
                check_expr_no_write(s, index)?;
            }
            check_index_not_written(body, index)
        }
        StmtKind::While(c, body) => {
            check_expr_no_write(c, index)?;
            check_index_not_written(body, index)
        }
        StmtKind::DoWhile(body, c) => {
            check_index_not_written(body, index)?;
            check_expr_no_write(c, index)
        }
        StmtKind::Return(Some(e)) => check_expr_no_write(e, index),
        StmtKind::Block(stmts) => {
            for s in stmts {
                check_index_not_written(s, index)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn check_expr_no_write(e: &Expr, index: &str) -> Result<(), CompileError> {
    match &e.kind {
        ExprKind::Assign(_, lhs, rhs) => {
            if expr_targets(lhs, index) {
                return Err(CompileError::check(
                    format!("appendix A: loop index `{index}` must not be written in the body"),
                    e.span,
                ));
            }
            check_expr_no_write(lhs, index)?;
            check_expr_no_write(rhs, index)
        }
        ExprKind::Unary(UnOp::PreInc | UnOp::PostInc | UnOp::PreDec | UnOp::PostDec, inner) => {
            if expr_targets(inner, index) {
                return Err(CompileError::check(
                    format!("appendix A: loop index `{index}` must not be written in the body"),
                    e.span,
                ));
            }
            check_expr_no_write(inner, index)
        }
        ExprKind::Unary(_, inner) => check_expr_no_write(inner, index),
        ExprKind::Binary(_, operands) => {
            let [a, b] = &**operands;
            check_expr_no_write(a, index)?;
            check_expr_no_write(b, index)
        }
        ExprKind::Comma(a, b) => {
            check_expr_no_write(a, index)?;
            check_expr_no_write(b, index)
        }
        ExprKind::Ternary(c, a, b) => {
            check_expr_no_write(c, index)?;
            check_expr_no_write(a, index)?;
            check_expr_no_write(b, index)
        }
        ExprKind::Call(_, args) => {
            for a in args {
                check_expr_no_write(a, index)?;
            }
            Ok(())
        }
        ExprKind::Field(base, _) | ExprKind::Index(base, _) => check_expr_no_write(base, index),
        _ => Ok(()),
    }
}

fn expr_targets(e: &Expr, index: &str) -> bool {
    match &e.kind {
        ExprKind::Ident(n) => &**n == index,
        ExprKind::Field(base, _) | ExprKind::Index(base, _) => expr_targets(base, index),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn check_src(src: &str) -> Result<(), CompileError> {
        let unit = parser::parse(src).expect("parses");
        check_appendix_a(&unit)
    }

    #[test]
    fn canonical_gpgpu_loop_passes() {
        check_src(
            "void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < 16.0; i += 1.0) { acc = acc + i; }\n\
               for (int j = 0; j <= 8; j++) { acc = acc * 2.0; }\n\
               for (float k = 10.0; k > 0.0; k--) { acc = acc - 1.0; }\n\
             }",
        )
        .expect("appendix A conformant");
    }

    #[test]
    fn constant_arithmetic_bounds_pass() {
        check_src(
            "void main() {\n\
               for (float i = 0.0; i < 4.0 * 4.0; i += 1.0 + 1.0) { }\n\
               for (int j = int(0); 16 > j; j++) { }\n\
             }",
        )
        .expect("constant folding allowed");
    }

    #[test]
    fn while_loops_rejected() {
        let err =
            check_src("void main() { float i = 0.0; while (i < 4.0) { i += 1.0; } }").unwrap_err();
        assert!(err.message.contains("while"));
        let err = check_src("void main() { float i = 0.0; do { i += 1.0; } while (i < 4.0); }")
            .unwrap_err();
        assert!(err.message.contains("do-while"));
    }

    #[test]
    fn non_constant_bound_rejected() {
        let err = check_src(
            "uniform float u_n;\nvoid main() { for (float i = 0.0; i < u_n; i += 1.0) { } }",
        )
        .unwrap_err();
        assert!(err.message.contains("constant"));
        let err =
            check_src("void main() { float n = 4.0; for (float i = n; i < 8.0; i += 1.0) { } }")
                .unwrap_err();
        assert!(err.message.contains("constant"));
    }

    #[test]
    fn missing_header_pieces_rejected() {
        assert!(check_src("void main() { for (;;) { } }").is_err());
        assert!(check_src("void main() { float i; for (i = 0.0; i < 2.0; i++) { } }").is_err());
        assert!(check_src("void main() { for (float i = 0.0; i < 2.0; i *= 2.0) { } }").is_err());
        assert!(check_src("void main() { for (float i = 0.0; true; i++) { } }").is_err());
    }

    #[test]
    fn index_mutation_in_body_rejected() {
        let err = check_src("void main() { for (float i = 0.0; i < 9.0; i++) { i = 5.0; } }")
            .unwrap_err();
        assert!(err.message.contains("must not be written"));
        let err = check_src(
            "void main() { for (float i = 0.0; i < 9.0; i++) { if (i > 2.0) { i += 1.0; } } }",
        )
        .unwrap_err();
        assert!(err.message.contains("must not be written"));
        let err = check_src("void main() { for (float i = 0.0; i < 9.0; i++) { float x = i++; } }")
            .unwrap_err();
        assert!(err.message.contains("must not be written"));
        // Reading the index is fine.
        check_src("void main() { for (float i = 0.0; i < 9.0; i++) { float x = i * 2.0; } }")
            .expect("reads allowed");
    }

    #[test]
    fn nested_loops_check_both_indices() {
        check_src(
            "void main() {\n\
               for (float i = 0.0; i < 4.0; i++) {\n\
                 for (float j = 0.0; j < 4.0; j++) { float x = i + j; }\n\
               }\n\
             }",
        )
        .expect("nested conformant loops");
        let err = check_src(
            "void main() {\n\
               for (float i = 0.0; i < 4.0; i++) {\n\
                 for (float j = 0.0; j < 4.0; j++) { i += 1.0; }\n\
               }\n\
             }",
        )
        .unwrap_err();
        assert!(err.message.contains("`i`"));
    }

    #[test]
    fn full_compile_strict_integration() {
        crate::compile_strict(
            crate::ShaderKind::Fragment,
            "precision highp float;\n\
             void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < 8.0; i += 1.0) { acc += i; }\n\
               gl_FragColor = vec4(acc);\n\
             }",
        )
        .expect("strict compile");
        let err = crate::compile_strict(
            crate::ShaderKind::Fragment,
            "precision highp float;\nuniform float u_n;\n\
             void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < u_n; i += 1.0) { acc += i; }\n\
               gl_FragColor = vec4(acc);\n\
             }",
        )
        .unwrap_err();
        assert!(err.message.contains("appendix A"));
    }
}
