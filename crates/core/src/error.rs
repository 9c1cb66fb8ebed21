//! Error type for the GPGPU framework.

use gpes_gles2::GlError;
use std::fmt;

/// The admission-pipeline stage at which a dynamically submitted kernel
/// source was rejected (see `gpes_core::serve::KernelRegistry`). Ordered
/// as the pipeline runs them: signature → parse → strict → sema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionStage {
    /// Core-side signature validation: names, arity, output shape vs the
    /// engine's driver limits. Nothing GLSL was parsed yet.
    Signature,
    /// The generated fragment source failed to preprocess, lex or parse.
    Parse,
    /// Parsed fine, but violates a GLSL ES Appendix-A restriction
    /// (unbounded loop, `while`, non-constant index …) that a strict
    /// mobile driver would reject at compile time.
    Strict,
    /// Semantic analysis rejected the source (type errors, undeclared
    /// identifiers, bad calls).
    Sema,
}

impl fmt::Display for AdmissionStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdmissionStage::Signature => "signature",
            AdmissionStage::Parse => "parse",
            AdmissionStage::Strict => "strict",
            AdmissionStage::Sema => "sema",
        })
    }
}

/// The per-tenant resource whose quota a registration or submission
/// exceeded (see `gpes_core::serve::TenantQuotas`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuotaResource {
    /// `TenantQuotas::max_kernels` registered kernels.
    RegisteredKernels,
    /// `TenantQuotas::max_resident_bytes` of resident input data.
    ResidentBytes,
    /// `TenantQuotas::max_in_flight` queued or running jobs.
    InFlightJobs,
}

impl fmt::Display for QuotaResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuotaResource::RegisteredKernels => "registered kernels",
            QuotaResource::ResidentBytes => "resident bytes",
            QuotaResource::InFlightJobs => "in-flight jobs",
        })
    }
}

/// Errors produced by the `gpes-core` framework.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeError {
    /// An underlying GL call failed.
    Gl(GlError),
    /// A kernel or buffer does not fit the context's surface/texture sizes.
    TooLarge {
        /// What was too large.
        what: String,
    },
    /// The kernel specification is inconsistent (duplicate names, missing
    /// inputs, type misuse).
    BadKernel {
        /// Description of the problem.
        message: String,
    },
    /// A value was outside a codec's exactly-representable domain (e.g. an
    /// integer beyond ±2²⁴ routed through the fp32 path).
    Domain {
        /// Description of the violation.
        message: String,
    },
    /// An `until`-driven pipeline exhausted its iteration cap without the
    /// predicate firing. Distinct from [`ComputeError::BadKernel`] so a
    /// serving engine can classify a runaway convergence loop without
    /// string-matching: the job is well-formed, the *data* never converged.
    IterationCap {
        /// The pipeline that hit the cap.
        pipeline: String,
        /// The cap that was exhausted.
        cap: usize,
    },
    /// The engine's bounded admission queue was full: a `try_submit`
    /// found no slot, or a blocking `submit` timed out waiting for one.
    /// The typed backpressure signal — callers shed load or retry, the
    /// engine never buffers unboundedly.
    QueueFull {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The job's deadline passed before a worker dequeued it; the work
    /// was shed *before* touching the GPU.
    DeadlineExceeded {
        /// How long the job sat in the queue before being shed, in
        /// milliseconds.
        queued_ms: u64,
    },
    /// The job was cancelled via `JobHandle::cancel` while still queued;
    /// it never ran.
    Cancelled,
    /// The engine shut down (explicitly or by drop) with this job still
    /// queued; it was aborted without running.
    EngineShutdown,
    /// An engine invariant broke (e.g. a job result consumed twice, or a
    /// pool with no live workers left). Jobs affected get this instead of
    /// a hang or a cascading panic.
    EngineInternal {
        /// Description of the broken invariant.
        message: String,
    },
    /// A dynamically submitted kernel source failed the registry's
    /// admission pipeline. The kernel never reached a worker, let alone
    /// the GPU; nothing was cached.
    AdmissionRejected {
        /// Which pipeline stage rejected it.
        stage: AdmissionStage,
        /// The stage's diagnostic.
        message: String,
    },
    /// A registration or submission would exceed one of the tenant's
    /// quotas. The request was refused without consuming the resource.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
        /// Which quota was hit.
        resource: QuotaResource,
    },
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeError::Gl(e) => write!(f, "gl: {e}"),
            ComputeError::TooLarge { what } => write!(f, "{what} exceeds context capacity"),
            ComputeError::BadKernel { message } => write!(f, "bad kernel: {message}"),
            ComputeError::Domain { message } => write!(f, "domain error: {message}"),
            ComputeError::IterationCap { pipeline, cap } => write!(
                f,
                "pipeline `{pipeline}` ran {cap} iterations without its `until` \
                 predicate firing"
            ),
            ComputeError::QueueFull { capacity } => write!(
                f,
                "engine queue is full ({capacity} tasks); shed load or retry"
            ),
            ComputeError::DeadlineExceeded { queued_ms } => write!(
                f,
                "job deadline passed after {queued_ms} ms in the queue; shed before \
                 execution"
            ),
            ComputeError::Cancelled => write!(f, "job cancelled before execution"),
            ComputeError::EngineShutdown => {
                write!(f, "engine shut down before running this job")
            }
            ComputeError::EngineInternal { message } => {
                write!(f, "engine internal error: {message}")
            }
            ComputeError::AdmissionRejected { stage, message } => {
                write!(f, "kernel admission rejected at {stage} stage: {message}")
            }
            ComputeError::QuotaExceeded { tenant, resource } => {
                write!(f, "tenant `{tenant}` exceeded its {resource} quota")
            }
        }
    }
}

impl std::error::Error for ComputeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ComputeError::Gl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GlError> for ComputeError {
    fn from(e: GlError) -> Self {
        ComputeError::Gl(e)
    }
}

impl ComputeError {
    pub(crate) fn bad_kernel(message: impl Into<String>) -> Self {
        ComputeError::BadKernel {
            message: message.into(),
        }
    }

    /// Whether this error is *transient*: retrying the same work can
    /// legitimately succeed, because the failure came from the driver's
    /// (simulated) resource pressure rather than from the job itself.
    /// The serving engine's [`crate::serve::RetryPolicy`] re-runs
    /// transient failures mechanically; everything else — bad kernels,
    /// domain violations, shed/cancelled/aborted outcomes — is permanent
    /// and surfaces to the caller unchanged.
    ///
    /// | Error | Classification |
    /// |---|---|
    /// | `Gl(ResourceExhausted)` | transient |
    /// | `Gl(ContextLost)` | transient (needs a context rebuild first) |
    /// | every other variant | permanent |
    pub fn is_transient(&self) -> bool {
        matches!(self, ComputeError::Gl(e) if e.is_transient())
    }

    /// Whether this error means the GL context died
    /// ([`GlError::ContextLost`]): transient, but retrying is only useful
    /// on a *rebuilt* context — every handle into the old one is dead.
    pub fn is_context_loss(&self) -> bool {
        matches!(self, ComputeError::Gl(GlError::ContextLost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = ComputeError::bad_kernel("duplicate input `a`");
        assert!(e.to_string().contains("duplicate"));
        let e = ComputeError::TooLarge {
            what: "output of 10000000 elements".into(),
        };
        assert!(e.to_string().contains("capacity"));
    }

    #[test]
    fn serving_error_display_forms() {
        let e = ComputeError::QueueFull { capacity: 4 };
        assert!(e.to_string().contains("full"));
        let e = ComputeError::DeadlineExceeded { queued_ms: 12 };
        assert!(e.to_string().contains("deadline"));
        assert!(ComputeError::Cancelled.to_string().contains("cancelled"));
        assert!(ComputeError::EngineShutdown
            .to_string()
            .contains("shut down"));
        let e = ComputeError::EngineInternal {
            message: "result already taken".into(),
        };
        assert!(e.to_string().contains("result already taken"));
    }

    #[test]
    fn admission_error_display_forms() {
        let e = ComputeError::AdmissionRejected {
            stage: AdmissionStage::Strict,
            message: "non-constant loop bound".into(),
        };
        let text = e.to_string();
        assert!(text.contains("strict") && text.contains("non-constant"));
        let e = ComputeError::QuotaExceeded {
            tenant: "acme".into(),
            resource: QuotaResource::InFlightJobs,
        };
        let text = e.to_string();
        assert!(text.contains("acme") && text.contains("in-flight jobs"));
        for stage in [
            AdmissionStage::Signature,
            AdmissionStage::Parse,
            AdmissionStage::Strict,
            AdmissionStage::Sema,
        ] {
            assert!(!stage.to_string().is_empty());
        }
    }

    #[test]
    fn transient_classification() {
        let exhausted = ComputeError::Gl(GlError::ResourceExhausted {
            message: "texture upload".into(),
        });
        assert!(exhausted.is_transient() && !exhausted.is_context_loss());
        let lost = ComputeError::Gl(GlError::ContextLost);
        assert!(lost.is_transient() && lost.is_context_loss());
        for permanent in [
            ComputeError::bad_kernel("dup"),
            ComputeError::Cancelled,
            ComputeError::QueueFull { capacity: 4 },
            ComputeError::DeadlineExceeded { queued_ms: 1 },
            ComputeError::Gl(GlError::Link {
                message: "nope".into(),
            }),
            ComputeError::AdmissionRejected {
                stage: AdmissionStage::Parse,
                message: "unexpected token".into(),
            },
            ComputeError::QuotaExceeded {
                tenant: "acme".into(),
                resource: QuotaResource::RegisteredKernels,
            },
        ] {
            assert!(!permanent.is_transient(), "{permanent} must be permanent");
        }
    }

    #[test]
    fn gl_errors_convert() {
        let ge = GlError::Link {
            message: "nope".into(),
        };
        let ce: ComputeError = ge.into();
        assert!(matches!(ce, ComputeError::Gl(_)));
    }
}
