//! Compile-time and run-time error types for the GLSL ES subset.

use crate::span::Span;
use std::fmt;

/// The compilation phase an error was raised in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Preprocessing (`#define`, `#ifdef`, …).
    Preprocess,
    /// Tokenisation.
    Lex,
    /// Syntactic analysis.
    Parse,
    /// Semantic analysis / type checking.
    Check,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Preprocess => f.write_str("preprocess"),
            Phase::Lex => f.write_str("lex"),
            Phase::Parse => f.write_str("parse"),
            Phase::Check => f.write_str("check"),
        }
    }
}

/// Error produced while compiling a shader.
///
/// Mirrors the information a GLES2 driver would return from the shader info
/// log: the phase, a message and the source position.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Phase the error occurred in.
    pub phase: Phase,
    /// Human-readable message (lowercase, no trailing punctuation).
    pub message: String,
    /// Position in the shader source.
    pub span: Span,
}

impl CompileError {
    /// Creates a preprocessor error.
    pub fn preprocess(message: impl Into<String>, span: Span) -> Self {
        CompileError {
            phase: Phase::Preprocess,
            message: message.into(),
            span,
        }
    }

    /// Creates a lexer error.
    pub fn lex(message: impl Into<String>, span: Span) -> Self {
        CompileError {
            phase: Phase::Lex,
            message: message.into(),
            span,
        }
    }

    /// Creates a parser error.
    pub fn parse(message: impl Into<String>, span: Span) -> Self {
        CompileError {
            phase: Phase::Parse,
            message: message.into(),
            span,
        }
    }

    /// Creates a semantic-analysis error.
    pub fn check(message: impl Into<String>, span: Span) -> Self {
        CompileError {
            phase: Phase::Check,
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error at {}: {}", self.phase, self.span, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Error produced while interpreting a shader invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A loop exceeded the configured iteration budget.
    LoopLimit {
        /// The budget that was exceeded.
        limit: u64,
        /// Position of the loop.
        span: Span,
    },
    /// A name was referenced that has no bound value (an interpreter or
    /// caller wiring bug, e.g. an unset uniform).
    Unbound {
        /// The name that was not bound.
        name: String,
    },
    /// Dynamic type mismatch that slipped past the checker (interpreter bug)
    /// or an operation on incompatible values.
    Type {
        /// Description of the mismatch.
        message: String,
    },
    /// Array or vector index out of bounds.
    IndexOutOfBounds {
        /// The index used.
        index: i64,
        /// The length of the indexed value.
        len: usize,
    },
    /// `main` returned without writing a required builtin output
    /// (`gl_Position` / `gl_FragColor`).
    MissingOutput {
        /// Name of the missing builtin.
        name: &'static str,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::LoopLimit { limit, span } => {
                write!(f, "loop at {span} exceeded iteration budget of {limit}")
            }
            RuntimeError::Unbound { name } => write!(f, "unbound identifier `{name}`"),
            RuntimeError::Type { message } => write!(f, "type error: {message}"),
            RuntimeError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            RuntimeError::MissingOutput { name } => {
                write!(f, "shader main() did not write `{name}`")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_error_display_contains_phase_and_position() {
        let e = CompileError::parse("unexpected token", Span::new(0, 1, 2, 5));
        assert_eq!(e.to_string(), "parse error at 2:5: unexpected token");
    }

    #[test]
    fn runtime_error_display() {
        let e = RuntimeError::Unbound {
            name: "u_scale".into(),
        };
        assert_eq!(e.to_string(), "unbound identifier `u_scale`");
        let e = RuntimeError::IndexOutOfBounds { index: 9, len: 4 };
        assert_eq!(e.to_string(), "index 9 out of bounds for length 4");
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileError>();
        assert_send_sync::<RuntimeError>();
    }
}
