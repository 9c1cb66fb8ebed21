//! # gpes-glsl — GLSL ES 1.00 subset compiler and interpreter
//!
//! A from-scratch implementation of the OpenGL ES Shading Language 1.00
//! subset needed for general-purpose computation over OpenGL ES 2.0, as
//! described in *“Towards General Purpose Computations on Low-End Mobile
//! GPUs”* (Trompouki & Kosmidis, DATE 2016).
//!
//! The crate provides:
//!
//! * a conformance-minded front end ([`lexer`], [`parser`], [`sema`]) that
//!   rejects exactly what a GLES2 driver rejects — reserved bitwise
//!   operators, `int`/`float` mixing, missing fragment default precision,
//!   non-float varyings, out-of-range `gl_FragData` indices, …
//! * a tree-walking [`interp::Interpreter`] with a configurable
//!   [`exec::FloatModel`] so the VideoCore IV's reduced-precision special
//!   function unit can be emulated (the paper's 15-mantissa-bit result),
//! * operation profiling ([`exec::OpProfile`]) consumed by the `gpes-perf`
//!   timing model.
//!
//! ## Example
//!
//! ```
//! use gpes_glsl::{compile, ShaderKind};
//! use gpes_glsl::interp::Interpreter;
//! use gpes_glsl::exec::NoTextures;
//! use gpes_glsl::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let shader = compile(
//!     ShaderKind::Fragment,
//!     "precision highp float;
//!      uniform float u_gain;
//!      void main() { gl_FragColor = vec4(0.25 * u_gain); }",
//! )?;
//! let textures = NoTextures;
//! let mut interp = Interpreter::new(&shader, &textures)?;
//! interp.set_global("u_gain", Value::Float(2.0))?;
//! interp.run_main()?;
//! assert_eq!(interp.frag_color(), Some([0.5, 0.5, 0.5, 0.5]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod ast;
pub mod builtins;
pub mod compile;
pub mod error;
pub mod exec;
pub(crate) mod intern;
pub mod interp;
pub mod lexer;
mod ops;
pub mod parser;
pub mod preprocessor;
pub mod sema;
pub mod span;
pub mod spmd;
pub mod strict;
pub mod swizzle;
pub mod token;
pub mod types;
pub mod value;

pub use admission::{admit, admit_after, AdmissionDiagnostic, AdmissionStage, CheckedPrelude};
pub use compile::{lower, lower_shared, Executable, LowerError};
pub use error::{CompileError, RuntimeError};
pub use preprocessor::{preprocess, ExtensionBehavior, Preprocessed};
pub use sema::{CompiledShader, ShaderInterface, ShaderKind};
pub use spmd::{BatchError, SpmdVm, MAX_LANES};
use std::sync::Arc;
pub use strict::StrictProfile;
pub use types::{Precision, Scalar, Type};
pub use value::Value;

/// Compiles (parses + checks) a shader source string.
///
/// This is the moral equivalent of `glCompileShader`; the returned
/// [`CompiledShader`] is immutable and can be shared across threads.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first lexical, syntactic or
/// semantic problem, exactly like a driver's shader info log.
///
/// ```
/// use gpes_glsl::{compile, ShaderKind};
///
/// let err = compile(ShaderKind::Fragment, "void main() { int x = 1 & 2; }")
///     .unwrap_err();
/// assert!(err.message.contains("reserved"));
/// ```
pub fn compile(kind: ShaderKind, source: &str) -> Result<CompiledShader, CompileError> {
    compile_after(None, kind, source, false)
}

/// Compiles a shader and additionally enforces the GLSL ES 1.00
/// **Appendix A** minimum-guarantee restrictions that real low-end
/// drivers (VideoCore IV among them) apply — see [`strict`].
///
/// # Errors
///
/// All [`compile()`] errors, plus Appendix-A violations (`while` loops,
/// non-constant loop bounds, loop-index mutation in the body, …).
pub fn compile_strict(kind: ShaderKind, source: &str) -> Result<CompiledShader, CompileError> {
    compile_after(None, kind, source, true)
}

/// [`compile()`] (or, when `strict`, [`compile_strict`]), checking only
/// what follows `prelude`'s text when `source` begins with it and the
/// prelude was checked for `kind` ([`CheckedPrelude`]). The shader and
/// every error are those of checking the whole source.
///
/// # Errors
///
/// As [`compile()`] or [`compile_strict`].
pub fn compile_after(
    prelude: Option<&Arc<CheckedPrelude>>,
    kind: ShaderKind,
    source: &str,
    strict: bool,
) -> Result<CompiledShader, CompileError> {
    admission::front_end(kind, prelude, source, strict).map_err(|(_, err)| err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let shader = compile(
            ShaderKind::Fragment,
            "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }",
        )
        .expect("compiles");
        assert_eq!(shader.kind, ShaderKind::Fragment);
    }

    #[test]
    fn compiled_shader_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledShader>();
    }

    #[test]
    fn compile_reports_line_numbers() {
        let err = compile(
            ShaderKind::Fragment,
            "precision highp float;\nvoid main() {\n  float x = bogus;\n}",
        )
        .unwrap_err();
        assert_eq!(err.span.line, 3);
    }
}
