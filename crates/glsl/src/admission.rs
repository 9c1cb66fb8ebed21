//! Staged admission of untrusted shader source.
//!
//! A serving boundary that accepts GLSL kernel *source* from tenants
//! needs more than [`crate::compile_strict`]'s single [`CompileError`]:
//! the registry on the other side wants to know *which* stage of the
//! pipeline refused the source, so rejections can be classified, counted
//! and surfaced as typed errors without string-matching diagnostics.
//!
//! [`admit`] runs the exact same front end as [`crate::compile_strict`]
//! — preprocess → parse → Appendix-A strict check → semantic analysis,
//! one function (`front_end`) behind all three entry points — but tags
//! every failure with the [`AdmissionStage`] that produced it.
//! The stages run in rejection-cheapest order: a source that does not
//! parse never reaches the (more expensive) semantic checker, and a
//! shader a strict mobile driver would refuse is rejected before sema,
//! exactly as the VideoCore-class drivers the paper targets behave.
//!
//! A serving process puts a table in front of this function and hands
//! its result to the link (`gpes_core::SharedProgramCache::admit`):
//!
//! ```text
//!   fragment source ──▶ table: same bytes admitted and still alive? ──yes──┐
//!                          │ no                                           │
//!                          ▼                                              │
//!              admit: preprocess → parse → strict → sema                  │
//!                 │ Err: AdmissionDiagnostic (never stored)               │
//!                 ▼ Ok                                                    │
//!           Arc<CompiledShader> ──▶ table (weak ref) ◀────────────────────┘
//!                 │
//!                 ▼  held by the registration, then by the linked program
//!   link: compile the vertex shader only, Program::link_checked(vs, fs)
//! ```
//!
//! The table holds weak references, so a source is re-admitted in full
//! once nothing holds its shader. Strict admission accepts a subset of
//! what the permissive front end ([`crate::compile()`]) accepts and yields
//! the same checked shader, so one admitted shader serves strict and
//! permissive links alike.

use crate::error::{CompileError, Phase};
use crate::sema::{self, CompiledShader, ShaderKind};
use crate::{parser, preprocessor, strict};

/// The admission-pipeline stage that rejected a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionStage {
    /// Preprocessing, lexing or parsing failed — the source is not
    /// syntactically a GLSL ES 1.00 shader.
    Parse,
    /// The source parses but violates a GLSL ES Appendix-A
    /// minimum-guarantee restriction ([`strict::check_appendix_a`]).
    Strict,
    /// Semantic analysis rejected the source ([`sema::check`]).
    Sema,
}

impl std::fmt::Display for AdmissionStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AdmissionStage::Parse => "parse",
            AdmissionStage::Strict => "strict",
            AdmissionStage::Sema => "sema",
        })
    }
}

/// A stage-tagged admission rejection.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionDiagnostic {
    /// The pipeline stage that refused the source.
    pub stage: AdmissionStage,
    /// The stage's human-readable diagnostic.
    pub message: String,
    /// 1-based source line the diagnostic points at (0 when unknown).
    pub line: u32,
}

impl std::fmt::Display for AdmissionDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (line {}): {}", self.stage, self.line, self.message)
    }
}

impl std::error::Error for AdmissionDiagnostic {}

/// The front end behind [`crate::compile`], [`crate::compile_strict`]
/// and [`admit`]: preprocess → parse → (when `strict`) Appendix A →
/// semantic analysis. A failure carries the stage that refused the
/// source.
pub(crate) fn front_end(
    kind: ShaderKind,
    source: &str,
    strict: bool,
) -> Result<CompiledShader, (AdmissionStage, CompileError)> {
    let preprocessed = preprocessor::preprocess(source).map_err(|e| (AdmissionStage::Parse, e))?;
    let unit = parser::parse(&preprocessed.source).map_err(|e| {
        let stage = match e.phase {
            Phase::Preprocess | Phase::Lex | Phase::Parse => AdmissionStage::Parse,
            Phase::Check => AdmissionStage::Sema,
        };
        (stage, e)
    })?;
    if strict {
        strict::check_appendix_a(&unit).map_err(|e| (AdmissionStage::Strict, e))?;
    }
    sema::check(kind, unit).map_err(|e| (AdmissionStage::Sema, e))
}

/// Runs the full strict-mode admission pipeline over `source`.
///
/// Admission success returns the checked [`CompiledShader`] — callers
/// that go on to link the program can reuse it; callers that only gate
/// can drop it.
///
/// # Errors
///
/// An [`AdmissionDiagnostic`] naming the first stage that refused the
/// source. The mapping from [`CompileError`] phases is:
/// `Preprocess`/`Lex`/`Parse` → [`AdmissionStage::Parse`];
/// [`strict::check_appendix_a`] failures → [`AdmissionStage::Strict`];
/// [`sema::check`] failures → [`AdmissionStage::Sema`].
pub fn admit(kind: ShaderKind, source: &str) -> Result<CompiledShader, AdmissionDiagnostic> {
    front_end(kind, source, true).map_err(|(stage, err)| AdmissionDiagnostic {
        stage,
        message: err.message,
        line: err.span.line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_fragment_admits() {
        let shader = admit(
            ShaderKind::Fragment,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
        )
        .expect("admits");
        assert_eq!(shader.kind, ShaderKind::Fragment);
    }

    #[test]
    fn garbage_rejects_at_parse() {
        let err = admit(ShaderKind::Fragment, "void main( {{{").unwrap_err();
        assert_eq!(err.stage, AdmissionStage::Parse);
        assert!(!err.message.is_empty());
    }

    #[test]
    fn non_constant_loop_rejects_at_strict() {
        let err = admit(
            ShaderKind::Fragment,
            "precision highp float;\nuniform float n;\nvoid main() {\n\
             float s = 0.0;\nfor (int i = 0; float(i) < n; i++) { s += 1.0; }\n\
             gl_FragColor = vec4(s);\n}",
        )
        .unwrap_err();
        assert_eq!(err.stage, AdmissionStage::Strict);
    }

    #[test]
    fn type_error_rejects_at_sema() {
        let err = admit(
            ShaderKind::Fragment,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(undeclared); }",
        )
        .unwrap_err();
        assert_eq!(err.stage, AdmissionStage::Sema);
    }

    #[test]
    fn admission_matches_compile_strict() {
        for src in [
            "precision highp float;\nvoid main() { gl_FragColor = vec4(0.5); }",
            "void main( {{{",
            "precision highp float;\nvoid main() { while (true) {} }",
            "precision highp float;\nvoid main() { gl_FragColor = vec4(nope); }",
        ] {
            let strictly = crate::compile_strict(ShaderKind::Fragment, src).is_ok();
            let admitted = admit(ShaderKind::Fragment, src).is_ok();
            assert_eq!(
                strictly, admitted,
                "admit/compile_strict diverge on {src:?}"
            );
        }
    }
}
