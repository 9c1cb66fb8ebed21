//! `gpes-serve` — a concurrent multi-kernel serving engine over the
//! retained compute API.
//!
//! The deployment shape this models is the one on-device inference stacks
//! (CNNdroid, the TFLite GPU delegate) settle on: many independent
//! compute requests arrive at one device, one-time program compilation is
//! amortised across all of them, and a small pool of worker contexts
//! drains a submission queue. Concretely:
//!
//! * an [`Engine`] owns N worker threads, each with its own
//!   [`ComputeContext`] (GL contexts are single-threaded by construction,
//!   exactly as on real hardware — sharing happens at the *program*
//!   level, not the context level);
//! * every worker context is wired to one process-wide
//!   [`SharedProgramCache`], so each distinct kernel links exactly once
//!   no matter which worker sees it first ([`CachePolicy::PerContext`]
//!   exists for the `a10` ablation that measures what N× relinking
//!   costs);
//! * there is one request path. [`Engine::submit`] (blocking) and
//!   [`Engine::try_submit`] take any [`Request`] and return a
//!   [`JobHandle`] typed by it. A [`PipelineJob`] runs a whole retained
//!   multi-pass [`PipelineSpec`] (iteration loops, ping-pong pairs,
//!   per-iteration uniforms, `until` predicates) on one worker, the built
//!   pipeline cached per worker by spec hash; its handle yields a
//!   [`PipelineResult`]. A [`Submission`] is a multi-kernel DAG whose
//!   steps build its own one-iteration pipeline, built afresh on each run;
//!   u8/i16 steps chain like f32 ones and its handle yields a
//!   [`BatchResult`]. A [`Job`] is the one-step submission with a
//!   `Vec<f32>` result. All three build one checked plan at submit, and
//!   workers run it on one executor, the core [`crate::Pipeline`]
//!   planner: intermediates stay on the GPU, and in a one-iteration plan
//!   each is recycled after its last reader;
//! * constant inputs can be made **resident** ([`ResidentInput`]): each
//!   worker uploads them once and every later job — kernel, DAG or
//!   pipeline — reuses the on-GPU texture, with capacity evictions
//!   accounted in [`ResidentStats`];
//! * workers **self-heal**: transient driver failures (resource
//!   exhaustion, context loss — injectable deterministically via
//!   [`EngineBuilder::fault_plan`]) are retried under a [`RetryPolicy`];
//!   a lost context is torn down and rebuilt (shared programs re-adopted
//!   through the cache, resident textures and cached pipelines
//!   repopulated lazily) and the in-flight job replayed — callers see
//!   success or a typed permanent error, never a stale-handle panic;
//! * admission is **bounded**: the queue holds at most
//!   [`EngineBuilder::queue_capacity`] tasks. `try_submit` rejects
//!   immediately with [`ComputeError::QueueFull`]; the blocking `submit`
//!   waits up to [`EngineBuilder::submit_timeout`] for a slot and then
//!   rejects the same way — no submission ever blocks indefinitely;
//! * jobs may carry a **deadline** ([`Job::deadline`] /
//!   [`Submission::deadline`] / [`PipelineJob::deadline`]): a worker
//!   checks it at dequeue and sheds expired work with
//!   [`ComputeError::DeadlineExceeded`] *before* touching the GPU.
//!   [`JobHandle::cancel`] aborts queued-but-unstarted work the same
//!   way ([`ComputeError::Cancelled`]);
//! * results come back through typed [`JobHandle`]s — blocking
//!   [`JobHandle::wait`], non-blocking [`JobHandle::try_wait`] /
//!   [`JobHandle::wait_timeout`] / [`JobHandle::wait_deadline`], or a
//!   [`CompletionSet`] that multiplexes any number of in-flight handles
//!   over one condvar so a caller can drive thousands of jobs without a
//!   thread each;
//! * [`Engine::snapshot`] exports an [`EngineSnapshot`]: admission and
//!   outcome counters (`submitted = completed + rejected + shed +
//!   cancelled + aborted` at quiescence), queue depth and high-water
//!   mark, log-spaced queue/service latency histograms, and the merged
//!   [`ContextStats`] / [`crate::SharedCacheStats`] / [`ResidentStats`].
//!
//! Kernels are described by a context-free [`KernelSpec`] rather than a
//! built [`crate::Kernel`], because a kernel object is bound to the
//! context that compiled it. A spec carries exactly the information
//! [`crate::KernelBuilder`] needs, so a worker executing a job performs
//! the same upload → build → dispatch → read sequence a caller would
//! perform directly — the engine tests assert the outputs are
//! bit-identical and the counted GL work equal.
//!
//! ```
//! use gpes_core::serve::{Engine, Job, KernelSpec};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), gpes_core::ComputeError> {
//! let engine = Engine::builder().workers(2).build()?;
//! let saxpy = Arc::new(
//!     KernelSpec::new("saxpy")
//!         .input("x")
//!         .input("y")
//!         .uniform_f32("alpha", 2.0)
//!         .output(4)
//!         .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
//! );
//! let job = Job::new(&saxpy)
//!     .data(vec![1.0, 2.0, 3.0, 4.0])
//!     .data(vec![10.0, 20.0, 30.0, 40.0]);
//! let handle = engine.submit(job)?;
//! assert_eq!(handle.wait()?, vec![12.0, 24.0, 36.0, 48.0]);
//! # Ok(())
//! # }
//! ```

pub mod metrics;
pub mod registry;

mod queue;
mod spec;
mod worker;

pub use metrics::{EngineSnapshot, LatencyHistogram};
pub use queue::*;
pub use registry::*;
pub use spec::*;

use crate::buffer::{AnyGpuArray, GpuArray, TensorData};
use crate::cache::{FifoCache, SharedProgramCache};
use crate::codec::ScalarType;
use crate::context::{ComputeContext, ContextStats};
use crate::error::ComputeError;
use crate::kernel::{InputEncoding, Kernel, OutputKind, OutputShape};
use crate::pipeline::{
    BufKind, Pass, PassKernel, Pipeline, PipelineBuilder, Signature, Source, SourceSeed,
    SourceShape,
};
use gpes_gles2::{Dispatch, ExecMode, FaultPlan, Limits};
use gpes_glsl::Value;
use metrics::{lock_recover, wait_recover, EngineMetrics};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
