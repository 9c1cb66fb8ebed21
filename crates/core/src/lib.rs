//! # gpes-core — general-purpose computation over OpenGL ES 2
//!
//! The primary contribution of *“Towards General Purpose Computations on
//! Low-End Mobile GPUs”* (Trompouki & Kosmidis, DATE 2016), as a library:
//! run numeric kernels on a GPU that only speaks OpenGL ES 2.0 — no
//! OpenCL, no float textures, no integer arithmetic in shaders.
//!
//! ## The eight workarounds (paper §III)
//!
//! | # | ES 2 limitation | Module |
//! |---|------------------|--------|
//! | 1 | both stages must be programmed | [`geometry::passthrough_vertex_shader`] |
//! | 2 | no quad primitive | [`geometry::FULLSCREEN_QUAD`] |
//! | 3 | no 1-D textures | [`addressing`] |
//! | 4 | only normalised texture coordinates | [`addressing`] |
//! | 5 | no float/int texture formats | [`codec`] (input side) |
//! | 6 | framebuffer clamps to bytes | [`codec`] (output side) |
//! | 7 | no texture readback | [`pipeline::Readback`], [`ComputeContext::run_and_read`] |
//! | 8 | single fragment output | [`multi_output`] |
//!
//! ## Example
//!
//! ```
//! use gpes_core::{ComputeContext, Kernel, ScalarType};
//!
//! # fn main() -> Result<(), gpes_core::ComputeError> {
//! let mut cc = ComputeContext::new(64, 64)?;
//! let x = cc.upload(&[1.0f32, 2.0, 3.0, 4.0])?;
//! let kernel = Kernel::builder("square")
//!     .input("x", &x)
//!     .output(ScalarType::F32, 4)
//!     .body("float v = fetch_x(idx); return v * v;")
//!     .build(&mut cc)?;
//! assert_eq!(cc.run_f32(&kernel)?, vec![1.0, 4.0, 9.0, 16.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod addressing;
pub mod bind;
pub mod buffer;
pub mod cache;
pub mod chunked;
pub mod codec;
pub mod context;
pub mod error;
pub mod geometry;
pub mod kernel;
pub mod multi_output;
pub mod pipeline;
pub mod serve;
pub mod vertex_compute;

pub use bind::Bindings;
pub use buffer::{AnyGpuArray, GpuArray, GpuMatrix, GpuScalar, GpuTexels, TensorData};
pub use cache::{SharedCacheStats, SharedProgramCache};
pub use codec::{FloatSpecials, PackBias, ScalarType};
pub use context::{ComputeContext, ContextStats, PROGRAM_CACHE_CAP};
pub use error::{AdmissionStage, ComputeError, QuotaResource};
pub use gpes_gles2::ExecMode;
pub use kernel::{codec_prelude, InputEncoding, Kernel, KernelBuilder, OutputKind, OutputShape};
pub use multi_output::{MultiOutputBuilder, MultiOutputKernel};
pub use pipeline::{
    Pass, PassRecord, Pipeline, PipelineBuilder, PipelineRun, Readback, SourceSeed,
};
pub use serve::{
    BatchResult, CachePolicy, CompletionSet, Engine, EngineSnapshot, Job, JobHandle, JobInput,
    KernelRegistry, KernelSpec, LatencyHistogram, PassSpec, PipelineJob, PipelineResult,
    PipelineSpec, RegisteredKernel, Request, ResidentInput, ResidentStats, RetryPolicy,
    ServedPipeline, StepHandle, Submission, TenantCounters, TenantId, TenantQuotas,
};
pub use vertex_compute::{VertexKernel, VertexKernelBuilder};
