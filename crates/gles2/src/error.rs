//! Error model for the simulated GLES2 driver.
//!
//! Real OpenGL reports errors through `glGetError` flags; this Rust
//! implementation returns `Result` values instead, with variants mirroring
//! the GL error enumerants plus shader-compiler diagnostics.

use std::fmt;

/// Errors produced by the simulated OpenGL ES 2.0 implementation.
#[derive(Debug, Clone, PartialEq)]
pub enum GlError {
    /// `GL_INVALID_ENUM` — an enumerant is not accepted (e.g. a primitive
    /// mode or texture format outside the supported subset).
    InvalidEnum {
        /// What was wrong.
        message: String,
    },
    /// `GL_INVALID_VALUE` — a numeric argument is out of range.
    InvalidValue {
        /// What was wrong.
        message: String,
    },
    /// `GL_INVALID_OPERATION` — the operation is not allowed in the current
    /// state (e.g. drawing with no program bound, sampler feedback loop).
    InvalidOperation {
        /// What was wrong.
        message: String,
    },
    /// `GL_INVALID_FRAMEBUFFER_OPERATION` — the bound framebuffer is not
    /// complete.
    InvalidFramebufferOperation {
        /// Completeness status description.
        message: String,
    },
    /// A name referred to a deleted or never-created object.
    NoSuchObject {
        /// The object kind (texture, program, …).
        kind: &'static str,
        /// The raw handle value.
        id: u32,
    },
    /// Shader compilation failed (the "shader info log").
    Compile(gpes_glsl::CompileError),
    /// Program linking failed (the "program info log").
    Link {
        /// Linker diagnostic.
        message: String,
    },
    /// A shader invocation failed at run time (loop budget, internal type
    /// confusion). Real hardware cannot report this; the simulator can.
    ShaderTrap(gpes_glsl::RuntimeError),
    /// `GL_OUT_OF_MEMORY`-flavoured failure: an allocation, upload, link
    /// or readback failed under (simulated) memory pressure. Transient —
    /// the same call can succeed on retry.
    ResourceExhausted {
        /// What ran out / which site was injected.
        message: String,
    },
    /// The context was lost (`EGL_CONTEXT_LOST`): every object created
    /// against it is dead, and every further call on the context returns
    /// this error until the context is torn down and rebuilt.
    ContextLost,
}

impl GlError {
    #[allow(dead_code)] // kept for API symmetry with the other constructors
    pub(crate) fn invalid_enum(message: impl Into<String>) -> Self {
        GlError::InvalidEnum {
            message: message.into(),
        }
    }

    pub(crate) fn invalid_value(message: impl Into<String>) -> Self {
        GlError::InvalidValue {
            message: message.into(),
        }
    }

    pub(crate) fn invalid_op(message: impl Into<String>) -> Self {
        GlError::InvalidOperation {
            message: message.into(),
        }
    }

    /// Whether this error is *transient* — the same operation can
    /// legitimately succeed if retried (possibly on a rebuilt context).
    ///
    /// | Variant | Classification |
    /// |---|---|
    /// | [`GlError::ResourceExhausted`] | transient (memory pressure passes) |
    /// | [`GlError::ContextLost`] | transient (succeeds on a rebuilt context) |
    /// | everything else | permanent (caller/shader bug; retrying repeats it) |
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            GlError::ResourceExhausted { .. } | GlError::ContextLost
        )
    }
}

impl fmt::Display for GlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlError::InvalidEnum { message } => write!(f, "invalid enum: {message}"),
            GlError::InvalidValue { message } => write!(f, "invalid value: {message}"),
            GlError::InvalidOperation { message } => write!(f, "invalid operation: {message}"),
            GlError::InvalidFramebufferOperation { message } => {
                write!(f, "invalid framebuffer operation: {message}")
            }
            GlError::NoSuchObject { kind, id } => write!(f, "no such {kind} object: {id}"),
            GlError::Compile(e) => write!(f, "shader compile failed: {e}"),
            GlError::Link { message } => write!(f, "program link failed: {message}"),
            GlError::ShaderTrap(e) => write!(f, "shader execution trapped: {e}"),
            GlError::ResourceExhausted { message } => {
                write!(f, "out of resources: {message}")
            }
            GlError::ContextLost => write!(f, "context lost; rebuild the context"),
        }
    }
}

impl std::error::Error for GlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GlError::Compile(e) => Some(e),
            GlError::ShaderTrap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gpes_glsl::CompileError> for GlError {
    fn from(e: gpes_glsl::CompileError) -> Self {
        GlError::Compile(e)
    }
}

/// Lowering is total on checked shaders, so a failure to lower one is a
/// front-end defect, which a link reports.
impl From<gpes_glsl::LowerError> for GlError {
    fn from(e: gpes_glsl::LowerError) -> Self {
        GlError::Link {
            message: e.to_string(),
        }
    }
}

impl From<gpes_glsl::RuntimeError> for GlError {
    fn from(e: gpes_glsl::RuntimeError) -> Self {
        GlError::ShaderTrap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GlError::invalid_enum("quads are not a GLES2 primitive");
        assert!(e.to_string().contains("quads"));
        let e = GlError::NoSuchObject {
            kind: "texture",
            id: 42,
        };
        assert_eq!(e.to_string(), "no such texture object: 42");
    }

    #[test]
    fn wraps_compile_errors() {
        let ce = gpes_glsl::CompileError::parse("boom", gpes_glsl::span::Span::default());
        let ge: GlError = ce.clone().into();
        assert!(matches!(ge, GlError::Compile(_)));
        assert!(ge.to_string().contains("boom"));
    }

    #[test]
    fn transient_classification() {
        assert!(GlError::ContextLost.is_transient());
        assert!(GlError::ResourceExhausted {
            message: "texture upload".into()
        }
        .is_transient());
        assert!(!GlError::invalid_op("draw without program").is_transient());
        assert!(!GlError::Link {
            message: "varying mismatch".into()
        }
        .is_transient());
        assert!(!GlError::NoSuchObject {
            kind: "texture",
            id: 1
        }
        .is_transient());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GlError>();
    }
}
