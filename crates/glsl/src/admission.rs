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
//! one function (`front_end`) behind every entry point — but tags
//! every failure with the [`AdmissionStage`] that produced it.
//! The stages run in rejection-cheapest order: a source that does not
//! parse never reaches the (more expensive) semantic checker, and a
//! shader a strict mobile driver would refuse is rejected before sema,
//! exactly as the VideoCore-class drivers the paper targets behave.
//!
//! The sema stage ends with a walk over the calls `main` and the global
//! initialisers reach. It refuses recursion (GLSL ES 1.00 §6.1), a call
//! to a function never defined, calls nested more than
//! [`crate::sema::MAX_CALL_DEPTH`] deep, and a call tree whose splicing
//! would copy more than [`crate::sema::MAX_SPLICED_NODES`] syntax nodes.
//! So lowering, which inlines every call as a mobile driver does and
//! evaluates each node once, is total on every admitted source, and its
//! code is bounded by a small multiple of the source's nodes plus the
//! limit; and the executors trap only on data, never on a call's depth.
//! The walk follows a prelude's calls too: a cycle a source closes
//! through a function its prelude only declares is refused after the
//! prelude as it is in the whole source.
//!
//! Every generated kernel begins with the same few kilobytes: the
//! paper's codec library. A [`CheckedPrelude`] is such a prefix, checked
//! once; [`admit_after`] (and [`crate::compile_after`]) run the same
//! front end over only what follows it, from where checking the prelude
//! left off, and the checked shader shares the prelude's items instead of
//! owning a copy. Hand-written source takes the same function with no
//! prelude.
//!
//! A serving process puts a table in front of this function and hands
//! its result to the link (`gpes_core::SharedProgramCache::admit`):
//!
//! ```text
//!   fragment source ──▶ table: same bytes admitted and still alive? ──yes──┐
//!        │                 │ no                                           │
//!        │                 ▼                                              │
//!        │   prelude text ─ admit_after: preprocess → parse → strict      │
//!        │   (checked once       → sema over the tail only, resuming      │
//!        │    per process)         from the prelude's end state           │
//!        │                 │ Err: AdmissionDiagnostic (never stored)      │
//!        │                 ▼ Ok                                           │
//!        │   Arc<CompiledShader> { prelude: shared Arc, unit: tail }      │
//!        │                 │ ──▶ table (weak ref) ◀───────────────────────┘
//!        │                 ▼  held by the registration, then by the linked program
//!   link: lower prelude items then tail items (reachable functions only,
//!         every call spliced), Program::link_lowered(vs lowered once per
//!         cache, fs)
//! ```
//!
//! What is shared: the prelude's syntax tree, its interface and its
//! preprocessor, lexer and checker end state, once per process; a worker
//! that drops a program frees only the tail's tree. Lowering still lowers
//! the prelude functions a kernel reaches, on every link.
//!
//! The table holds weak references, so a source is re-admitted (after
//! its prelude) once nothing holds its shader. Strict admission accepts
//! a subset of what the permissive front end ([`crate::compile()`])
//! accepts and yields the same checked shader, so one admitted shader
//! serves strict and permissive links alike.

use crate::ast::TranslationUnit;
use crate::error::{CompileError, Phase};
use crate::sema::{self, CompiledShader, ShaderInterface, ShaderKind};
use crate::{parser, preprocessor, strict};
use std::sync::Arc;

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

/// A source prefix checked once, so that the sources beginning with it
/// check only what follows.
///
/// [`CheckedPrelude::check`] runs the strict front end over the prefix as
/// the start of a shader — everything but the requirement of a `main` —
/// and keeps where each stage left off: the preprocessor's macros and
/// open conditionals, the line and byte offsets the rest's spans start
/// at, and the declared globals, interface, function signatures and
/// float precision default. A shader checked after it
/// ([`admit_after`], [`crate::compile_after`]) holds the prelude's items
/// through the shared `Arc` instead of owning a copy.
///
/// Checking after a prelude is exact: the shader, its interface, the
/// bytecode lowered from it and every diagnostic are those of checking
/// the whole source. A prefix qualifies when it ends in a newline
/// outside any comment, after whole items, and checks by itself.
#[derive(Debug)]
pub struct CheckedPrelude {
    kind: ShaderKind,
    text: String,
    /// The prefix's items, which a shader checked after it walks before
    /// its own.
    pub(crate) unit: TranslationUnit,
    /// The interface the prefix declares.
    pub(crate) interface: ShaderInterface,
    /// The type of each of the prefix's expressions, by [`crate::ast::Expr::id`].
    pub(crate) types: Vec<crate::types::Type>,
    /// The prefix's user calls.
    pub(crate) calls: crate::sema::Calls,
    /// Whether a default float precision holds at the prefix's end.
    pub(crate) float_default: bool,
    /// The preprocessor at the prefix's end.
    preprocessor: preprocessor::State,
    /// Length of the prefix's preprocessed text: the byte the rest's
    /// spans start at.
    preprocessed_len: u32,
}

impl CheckedPrelude {
    /// Strictly checks `text` as the start of a `kind` shader.
    ///
    /// # Errors
    ///
    /// An [`AdmissionDiagnostic`] from the stage that refused the prefix;
    /// [`AdmissionStage::Parse`] also for a prefix that does not end in
    /// a newline outside any comment.
    pub fn check(kind: ShaderKind, text: impl Into<String>) -> Result<Self, AdmissionDiagnostic> {
        let text = text.into();
        let mut preprocessor = preprocessor::State::default();
        let preprocessed = preprocessor
            .run(&text)
            .map_err(|e| diagnostic((AdmissionStage::Parse, e)))?;
        if preprocessor.in_comment || !(text.is_empty() || text.ends_with('\n')) {
            return Err(AdmissionDiagnostic {
                stage: AdmissionStage::Parse,
                message: "a prelude must end with a newline outside any comment".to_owned(),
                line: preprocessor.lines,
            });
        }
        let unit = parser::parse(&preprocessed).map_err(|e| diagnostic(parse_stage(e)))?;
        strict::check_appendix_a(&unit).map_err(|e| diagnostic((AdmissionStage::Strict, e)))?;
        let (interface, float_default, types, calls) =
            sema::check_prelude(kind, &unit).map_err(|e| diagnostic((AdmissionStage::Sema, e)))?;
        Ok(CheckedPrelude {
            kind,
            text,
            unit,
            interface,
            types,
            calls,
            float_default,
            preprocessor,
            preprocessed_len: preprocessed.len() as u32,
        })
    }

    /// The prefix's source text.
    pub fn text(&self) -> &str {
        &self.text
    }
}

fn diagnostic((stage, err): (AdmissionStage, CompileError)) -> AdmissionDiagnostic {
    AdmissionDiagnostic {
        stage,
        message: err.message,
        line: err.span.line,
    }
}

fn parse_stage(e: CompileError) -> (AdmissionStage, CompileError) {
    let stage = match e.phase {
        Phase::Preprocess | Phase::Lex | Phase::Parse => AdmissionStage::Parse,
        Phase::Check => AdmissionStage::Sema,
    };
    (stage, e)
}

/// The front end behind [`crate::compile`], [`crate::compile_strict`],
/// [`crate::compile_after`], [`admit`] and [`admit_after`]:
/// preprocess → parse → (when `strict`) Appendix A → semantic analysis.
/// When `source` begins with the text of a `prelude` checked for `kind`,
/// only the rest runs through the stages, from where the prelude left
/// off; otherwise all of it does. A failure carries the stage that
/// refused the source.
pub(crate) fn front_end(
    kind: ShaderKind,
    prelude: Option<&Arc<CheckedPrelude>>,
    source: &str,
    strict: bool,
) -> Result<CompiledShader, (AdmissionStage, CompileError)> {
    let prelude = prelude.filter(|p| p.kind == kind && source.starts_with(p.text()));
    let tail = prelude.map_or(source, |p| &source[p.text.len()..]);
    let mut preprocessor =
        prelude.map_or_else(preprocessor::State::default, |p| p.preprocessor.clone());
    let preprocessed = preprocessor
        .run(tail)
        .and_then(|out| preprocessor.finish().map(|()| out))
        .map_err(|e| (AdmissionStage::Parse, e))?;
    let (start, line) = prelude.map_or((0, 1), |p| (p.preprocessed_len, p.preprocessor.lines + 1));
    let unit = parser::parse_from(&preprocessed, start, line).map_err(parse_stage)?;
    if strict {
        strict::check_appendix_a(&unit).map_err(|e| (AdmissionStage::Strict, e))?;
    }
    sema::check_after(kind, prelude.cloned(), unit).map_err(|e| (AdmissionStage::Sema, e))
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
    admit_after(None, kind, source)
}

/// [`admit`], checking only what follows `prelude`'s text when `source`
/// begins with it and the prelude was checked for `kind`. The result and
/// every diagnostic are [`admit`]'s.
///
/// # Errors
///
/// As [`admit`].
pub fn admit_after(
    prelude: Option<&Arc<CheckedPrelude>>,
    kind: ShaderKind,
    source: &str,
) -> Result<CompiledShader, AdmissionDiagnostic> {
    front_end(kind, prelude, source, true).map_err(diagnostic)
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
