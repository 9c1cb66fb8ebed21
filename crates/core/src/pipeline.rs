//! Multi-pass execution records and readback strategies (workaround #7).
//!
//! ES 2 cannot read a texture back to client memory directly (there is no
//! `glGetTexImage`). The paper names two complementary ways out, both
//! implemented by [`crate::ComputeContext`]:
//!
//! 1. **Copy shader** ([`Readback::CopyShader`]): draw a pass-through
//!    fragment shader that samples the texture into the default
//!    framebuffer, then `glReadPixels`.
//! 2. **Kernel ordering** ([`crate::ComputeContext::run_and_read`]): order
//!    the passes so the *final* kernel renders straight into the default
//!    framebuffer — no extra shader needed.
//!
//! Core ES 2 additionally allows reading an FBO whose colour attachment is
//! the texture ([`Readback::DirectFbo`]); all strategies must agree
//! bit-exactly, which the integration tests verify.
//!
//! This module also hosts the retained [`Pipeline`] API: declare a
//! multi-pass dag once, then run it with zero per-iteration shader
//! compiles and (in steady state) zero new GL objects.

use crate::addressing::ArrayLayout;
use crate::buffer::{GpuArray, GpuMatrix, GpuScalar, GpuTexels};
use crate::codec::ScalarType;
use crate::context::ResolvedDispatch;
use crate::error::ComputeError;
use crate::kernel::{check_uniform, unbound_input, InputEncoding, Kernel, OutputKind, OutputShape};
use crate::ComputeContext;
use gpes_gles2::{DrawStats, TextureId};
use gpes_glsl::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Strategy for reading a GPU array back to host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Readback {
    /// Read through an FBO binding of the backing texture.
    #[default]
    DirectFbo,
    /// Blit via the pass-through copy shader into the default framebuffer.
    CopyShader,
}

/// Record of one executed pass (kernel or internal copy).
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// Kernel name (internal passes are prefixed `gpes.`).
    pub kernel: String,
    /// Pipeline statistics of the draw.
    pub stats: DrawStats,
    /// Texels in the render target (fragments expected).
    pub output_texels: u64,
    /// Whether the render target was *reused* — served from the context's
    /// recycling pool or overwritten in place by the pipeline's fast path
    /// — rather than freshly allocated (always `false` for screen passes).
    /// In a steady-state iteration loop every render-to-texture pass
    /// should report `true`.
    pub reused_target: bool,
}

impl PassRecord {
    /// Fragment-stage ALU+SFU+fetch operations per output texel.
    pub fn ops_per_texel(&self) -> f64 {
        if self.output_texels == 0 {
            0.0
        } else {
            self.stats.fs_profile.total_ops() as f64 / self.output_texels as f64
        }
    }
}

// ---- the retained Pipeline API ----------------------------------------------

/// What a pipeline buffer holds, for read/encoding validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BufKind {
    /// §IV-encoded scalars of one type.
    Scalar(ScalarType),
    /// Raw RGBA8 texels.
    Texels,
}

impl BufKind {
    fn accepts(self, encoding: InputEncoding) -> bool {
        match encoding {
            InputEncoding::Scalar(s) => self == BufKind::Scalar(s),
            // Raw-texel fetches reinterpret any RGBA8 buffer.
            InputEncoding::RawTexel => true,
        }
    }

    fn of_output(kind: OutputKind) -> BufKind {
        match kind {
            OutputKind::Scalar(s) => BufKind::Scalar(s),
            OutputKind::RawTexel => BufKind::Texels,
        }
    }
}

/// The extent a source's per-run data must have. The core pipeline
/// accepts seeds of any extent (`Linear(None)`); a serving
/// [`crate::PipelineSpec`] declares it, checks each job's host data
/// against it and uploads grids as matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SourceShape {
    /// Linear array; `Some(len)` additionally pins the expected length.
    Linear(Option<usize>),
    /// Row-major `rows × cols` matrix.
    Grid { rows: u32, cols: u32 },
}

/// One declared source buffer of a pipeline.
#[derive(Debug, Clone)]
pub(crate) struct Source {
    pub(crate) name: String,
    pub(crate) kind: BufKind,
    /// The build-time texture, or `None` for a declared source that every
    /// run must seed.
    pub(crate) texture: Option<(TextureId, ArrayLayout)>,
    pub(crate) shape: SourceShape,
}

/// One named buffer's current generation during (and after) a run.
#[derive(Debug, Clone, Copy)]
struct BufferState {
    texture: TextureId,
    layout: ArrayLayout,
    kind: BufKind,
    /// Whether the pipeline allocated this texture (and may recycle it).
    /// Seed textures stay owned by the caller.
    owned: bool,
}

/// The context-free signature a pass's wiring is checked against: what
/// both a compiled [`Kernel`] and a serving [`crate::KernelSpec`] know
/// without a context.
pub(crate) struct Signature<'a> {
    pub(crate) name: &'a str,
    /// `(input, encoding, has a default texture)` in texture-unit order.
    pub(crate) inputs: Vec<(&'a str, InputEncoding, bool)>,
    /// `None` for a kernel spec that declares no output.
    pub(crate) output: Option<OutputKind>,
    pub(crate) uniforms: &'a [(String, Value)],
}

/// A kernel a [`Pass`] can run: anything with a [`Signature`].
pub(crate) trait PassKernel {
    fn signature(&self) -> Signature<'_>;
}

impl PassKernel for Kernel {
    fn signature(&self) -> Signature<'_> {
        Signature {
            name: &self.name,
            inputs: self
                .inputs
                .iter()
                .map(|i| (i.name.as_str(), i.encoding, i.default.is_some()))
                .collect(),
            output: Some(self.output_kind),
            uniforms: &self.uniforms,
        }
    }
}

pub(crate) type ShapeFn = Arc<dyn Fn(usize) -> OutputShape + Send + Sync>;
pub(crate) type UniformFn = Arc<dyn Fn(usize) -> Value + Send + Sync>;
pub(crate) type UntilFn = Arc<dyn Fn(usize) -> bool + Send + Sync>;

/// One declared pass of a [`Pipeline`]: a kernel plus the buffer wiring
/// and per-iteration overrides. `K` is a compiled [`Kernel`], or a
/// context-free [`crate::KernelSpec`] for a serving
/// [`crate::PassSpec`]; the wiring is the same. Closures are
/// `Send + Sync` so a spec can cross into engine workers.
#[derive(Clone)]
pub struct Pass<K = Kernel> {
    pub(crate) kernel: K,
    /// (kernel input name, pipeline buffer name).
    pub(crate) reads: Vec<(String, String)>,
    pub(crate) write: Option<(String, OutputShape)>,
    pub(crate) output_fn: Option<ShapeFn>,
    pub(crate) uniforms: Vec<(String, Value)>,
    pub(crate) uniform_fns: Vec<(String, UniformFn)>,
}

impl<K: Clone> Pass<K> {
    /// Starts a pass around a kernel (a compiled kernel is cloned — its
    /// program stays shared through the context's cache; a spec is an
    /// `Arc` clone).
    pub fn new(kernel: &K) -> Pass<K> {
        Pass {
            kernel: kernel.clone(),
            reads: Vec::new(),
            write: None,
            output_fn: None,
            uniforms: Vec::new(),
            uniform_fns: Vec::new(),
        }
    }
}

impl<K> Pass<K> {
    /// Feeds kernel input `input` from pipeline buffer `buffer`. Each
    /// input is read at most once; inputs without a `read` keep the
    /// kernel's build-time default binding (useful for constant textures
    /// like a DP wall matrix), so an input without one must be read.
    pub fn read(mut self, input: &str, buffer: &str) -> Self {
        self.reads.push((input.to_owned(), buffer.to_owned()));
        self
    }

    /// Writes the pass output into buffer `buffer` with a fixed shape.
    /// Writing a buffer the pass also reads is the ping-pong case: the
    /// draw goes to a spare target and the name is re-pointed afterwards,
    /// so the GL feedback rule is never violated.
    pub fn write(mut self, buffer: &str, shape: OutputShape) -> Self {
        self.write = Some((buffer.to_owned(), shape));
        self
    }

    /// [`Pass::write`] with a linear output of `len` elements.
    pub fn write_len(self, buffer: &str, len: usize) -> Self {
        self.write(buffer, OutputShape::Linear(len))
    }

    /// [`Pass::write`] with a `rows × cols` grid output.
    pub fn write_grid(self, buffer: &str, rows: u32, cols: u32) -> Self {
        self.write(buffer, OutputShape::Grid { rows, cols })
    }

    /// Makes the output shape a function of the iteration index — the
    /// reduction-tree case, where each pass shrinks the domain.
    pub fn output_per_iter(
        mut self,
        f: impl Fn(usize) -> OutputShape + Send + Sync + 'static,
    ) -> Self {
        self.output_fn = Some(Arc::new(f));
        self
    }

    /// Overrides a declared uniform with a fixed value for this pass.
    pub fn uniform(mut self, name: &str, value: Value) -> Self {
        self.uniforms.push((name.to_owned(), value));
        self
    }

    /// Overrides a declared uniform per iteration (`f` receives the
    /// zero-based iteration index) — the paper's workloads use this for
    /// `n_live`, `row_idx`, `kcol` and FFT stage widths.
    pub fn uniform_per_iter(
        mut self,
        name: &str,
        f: impl Fn(usize) -> Value + Send + Sync + 'static,
    ) -> Self {
        self.uniform_fns.push((name.to_owned(), Arc::new(f)));
        self
    }

    /// The same wiring around another kernel; closures are shared.
    fn with_kernel<J>(&self, kernel: J) -> Pass<J> {
        Pass {
            kernel,
            reads: self.reads.clone(),
            write: self.write.clone(),
            output_fn: self.output_fn.clone(),
            uniforms: self.uniforms.clone(),
            uniform_fns: self.uniform_fns.clone(),
        }
    }
}

impl<K: PassKernel> fmt::Debug for Pass<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pass")
            .field("kernel", &self.kernel.signature().name)
            .field("reads", &self.reads)
            .field("write", &self.write)
            .field("dynamic_output", &self.output_fn.is_some())
            .field("uniforms", &self.uniforms)
            .field(
                "per_iter_uniforms",
                &self
                    .uniform_fns
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// A per-run override of one declared pipeline source: the named buffer
/// starts this run pointing at the given data instead of the texture
/// captured at build time. Constructed from typed GPU buffers so the
/// element kind is checked against the declaration before the run.
#[derive(Debug, Clone)]
pub struct SourceSeed {
    name: String,
    texture: TextureId,
    layout: ArrayLayout,
    kind: BufKind,
}

impl SourceSeed {
    /// Seeds source `name` from an array for one run.
    pub fn array<T: GpuScalar>(name: impl Into<String>, array: &GpuArray<T>) -> SourceSeed {
        SourceSeed {
            name: name.into(),
            texture: array.texture,
            layout: array.layout,
            kind: BufKind::Scalar(T::SCALAR),
        }
    }

    /// Seeds source `name` from a matrix for one run.
    pub fn matrix<T: GpuScalar>(name: impl Into<String>, matrix: &GpuMatrix<T>) -> SourceSeed {
        SourceSeed {
            name: name.into(),
            texture: matrix.texture,
            layout: matrix.layout,
            kind: BufKind::Scalar(T::SCALAR),
        }
    }

    /// Seeds source `name` from a raw texel buffer for one run.
    pub fn texels(name: impl Into<String>, texels: &GpuTexels) -> SourceSeed {
        SourceSeed {
            name: name.into(),
            texture: texels.texture,
            layout: texels.layout,
            kind: BufKind::Texels,
        }
    }

    /// Seeds source `name` from a runtime-tagged array for one run; the
    /// tag is checked against the declared buffer kind exactly as the
    /// typed constructors are.
    pub fn any(name: impl Into<String>, array: &crate::buffer::AnyGpuArray) -> SourceSeed {
        SourceSeed {
            name: name.into(),
            texture: array.texture(),
            layout: array.layout(),
            kind: BufKind::Scalar(array.scalar()),
        }
    }
}

/// Builder for [`Pipeline`]s; see [`Pipeline::builder`]. The same
/// builder declares a serving [`crate::PipelineSpec`]
/// ([`crate::serve::PipelineSpecBuilder`]): passes, iterations and
/// ping-pong pairs are declared the same way, and both `build`s run one
/// wiring check.
pub struct PipelineBuilder<K = Kernel> {
    pub(crate) dag: Pipeline<K>,
}

impl<K> PipelineBuilder<K> {
    pub(crate) fn named(name: String) -> PipelineBuilder<K> {
        PipelineBuilder {
            dag: Pipeline {
                name,
                sources: Vec::new(),
                passes: Vec::new(),
                iterations: None,
                iteration_cap: None,
                until: None,
                ping_pongs: Vec::new(),
                retire: None,
            },
        }
    }

    fn push_source(
        mut self,
        name: &str,
        kind: BufKind,
        texture: Option<(TextureId, ArrayLayout)>,
        shape: SourceShape,
    ) -> Self {
        self.dag.sources.push(Source {
            name: name.to_owned(),
            kind,
            texture,
            shape,
        });
        self
    }

    /// Declares a `scalar` source of `shape` with no texture: every run
    /// must seed it.
    pub(crate) fn declared_source(
        self,
        name: &str,
        scalar: ScalarType,
        shape: SourceShape,
    ) -> Self {
        self.push_source(name, BufKind::Scalar(scalar), None, shape)
    }

    /// Appends a pass; passes execute in declaration order each iteration.
    pub fn pass(mut self, pass: Pass<K>) -> Self {
        self.dag.passes.push(pass);
        self
    }

    /// Runs the dag a fixed number of iterations (default 1). With a
    /// known count the final pass can be routed straight to the default
    /// framebuffer by [`Pipeline::run_and_read`].
    pub fn iterations(mut self, n: usize) -> Self {
        self.dag.iterations = Some(n);
        self
    }

    /// Runs the dag until `stop(completed_iterations)` returns `true`
    /// (checked after each iteration). Combine with
    /// [`PipelineBuilder::iterations`] to cap the loop silently, or with
    /// [`PipelineBuilder::iteration_cap`] to make cap exhaustion a typed
    /// error; without either a pipeline aborts after 1 000 000
    /// iterations and a spec after
    /// [`crate::serve::DEFAULT_SERVE_ITERATION_CAP`].
    pub fn until(mut self, stop: impl Fn(usize) -> bool + Send + Sync + 'static) -> Self {
        self.dag.until = Some(Arc::new(stop));
        self
    }

    /// Caps an `until`-driven loop at `cap` iterations, turning cap
    /// exhaustion into [`ComputeError::IterationCap`] instead of a silent
    /// stop — the contract a serving engine needs so a job whose
    /// predicate never fires fails loudly rather than hanging or lying.
    /// Ignored when a fixed [`PipelineBuilder::iterations`] count is set.
    pub fn iteration_cap(mut self, cap: usize) -> Self {
        self.dag.iteration_cap = Some(cap.max(1));
        self
    }

    /// Swaps buffers `front` and `back` after every iteration — the
    /// classic double-buffer for dags where *several* passes read the old
    /// generation before anyone may overwrite it (e.g. the FFT's re/im
    /// stage pair). Single-pass feedback (`.read("x", "x").write("x", …)`)
    /// does not need this; it swaps implicitly.
    pub fn ping_pong(mut self, front: &str, back: &str) -> Self {
        self.dag
            .ping_pongs
            .push((front.to_owned(), back.to_owned()));
        self
    }

    /// The declared plan, once it passes the one wiring check, with its
    /// liveness plan.
    pub(crate) fn checked(mut self) -> Result<Pipeline<K>, ComputeError>
    where
        K: PassKernel,
    {
        check_wiring(&self.dag)?;
        self.dag.retire = liveness(&self.dag);
        Ok(self.dag)
    }
}

/// The liveness plan of a one-iteration plan (iterations `None` or 1, no
/// `until`, no ping-pong): for each pass, the buffers it is the last to
/// read or write. `None` for a looping plan, where a buffer's last use
/// depends on the iteration.
fn liveness<K>(dag: &Pipeline<K>) -> Option<Vec<Vec<String>>> {
    if dag.iterations.unwrap_or(1) != 1 || dag.until.is_some() || !dag.ping_pongs.is_empty() {
        return None;
    }
    let mut seen = HashSet::new();
    let mut retire = vec![Vec::new(); dag.passes.len()];
    for (p, pass) in dag.passes.iter().enumerate().rev() {
        let written = pass.write.iter().map(|(name, _)| name);
        for name in pass.reads.iter().map(|(_, buffer)| buffer).chain(written) {
            if seen.insert(name.as_str()) {
                retire[p].push(name.clone());
            }
        }
    }
    Some(retire)
}

/// The one wiring check, over kernel signatures only — so a
/// [`crate::PipelineSpec`] is rejected on the caller's thread, with no
/// context.
fn check_wiring<K: PassKernel>(dag: &Pipeline<K>) -> Result<(), ComputeError> {
    if dag.passes.is_empty() {
        return Err(ComputeError::bad_kernel(format!(
            "pipeline `{}` declares no passes",
            dag.name
        )));
    }
    let mut kinds: HashMap<&str, BufKind> = HashMap::new();
    for source in &dag.sources {
        if kinds.insert(&source.name, source.kind).is_some() {
            return Err(ComputeError::bad_kernel(format!(
                "pipeline `{}` declares source `{}` twice",
                dag.name, source.name
            )));
        }
    }
    let signatures: Vec<Signature<'_>> = dag.passes.iter().map(|p| p.kernel.signature()).collect();
    // Register every written buffer for kind checking. A buffer must
    // hold ONE kind — seeding or rewriting it with a different element
    // kind would let a later read decode garbage.
    for (pass, sig) in dag.passes.iter().zip(&signatures) {
        let output = sig.output.ok_or_else(|| {
            ComputeError::bad_kernel(format!(
                "kernel `{}` (pass of `{}`) declares no output",
                sig.name, dag.name
            ))
        })?;
        let (write_name, _) = pass.write.as_ref().ok_or_else(|| {
            ComputeError::bad_kernel(format!(
                "pass `{}` of pipeline `{}` writes no buffer",
                sig.name, dag.name
            ))
        })?;
        let kind = BufKind::of_output(output);
        match kinds.get(write_name.as_str()) {
            None => {
                kinds.insert(write_name, kind);
            }
            Some(existing) if *existing != kind => {
                return Err(ComputeError::bad_kernel(format!(
                    "buffer `{write_name}` holds {existing:?}, but pass `{}` \
                     writes {kind:?}",
                    sig.name
                )));
            }
            Some(_) => {}
        }
    }
    // A read must be satisfiable on the FIRST iteration — from a
    // source or an earlier pass's write. (A buffer first written by a
    // later pass is empty when iteration 0 reaches the read, and the
    // end-of-iteration ping-pong swap cannot rescue it either, so the
    // dag would always fail at runtime.)
    let mut available: HashSet<&str> = dag.sources.iter().map(|s| s.name.as_str()).collect();
    for (pass, sig) in dag.passes.iter().zip(&signatures) {
        for &(input, _, has_default) in &sig.inputs {
            let wired = pass.reads.iter().filter(|(i, _)| i == input).count();
            if wired > 1 {
                return Err(ComputeError::bad_kernel(format!(
                    "input `{input}` of kernel `{}` is read from {wired} buffers",
                    sig.name
                )));
            }
            if wired == 0 && !has_default {
                return Err(unbound_input(sig.name, input));
            }
        }
        for (input, buffer) in &pass.reads {
            let &(_, encoding, _) = sig
                .inputs
                .iter()
                .find(|(name, _, _)| name == input)
                .ok_or_else(|| {
                    ComputeError::bad_kernel(format!(
                        "kernel `{}` declares no input `{input}`",
                        sig.name
                    ))
                })?;
            let kind = kinds.get(buffer.as_str()).ok_or_else(|| {
                ComputeError::bad_kernel(format!(
                    "pipeline `{}` has no buffer `{buffer}` (read by `{}`)",
                    dag.name, sig.name
                ))
            })?;
            if !kind.accepts(encoding) {
                return Err(ComputeError::bad_kernel(format!(
                    "buffer `{buffer}` holds {kind:?}, but input `{input}` of `{}` wants \
                     {encoding:?}",
                    sig.name
                )));
            }
            if !available.contains(buffer.as_str()) {
                return Err(ComputeError::bad_kernel(format!(
                    "pass `{}` reads buffer `{buffer}` before its first write",
                    sig.name
                )));
            }
        }
        for (name, value) in &pass.uniforms {
            check_uniform(sig.name, sig.uniforms, name, Some(value))?;
        }
        for (name, _) in &pass.uniform_fns {
            check_uniform(sig.name, sig.uniforms, name, None)?;
        }
        if let Some((write_name, _)) = &pass.write {
            available.insert(write_name);
        }
    }
    let kind_of = |name: &String| {
        kinds.get(name.as_str()).copied().ok_or_else(|| {
            ComputeError::bad_kernel(format!("ping-pong names unknown buffer `{name}`"))
        })
    };
    for (front, back) in &dag.ping_pongs {
        let (f, b) = (kind_of(front)?, kind_of(back)?);
        if f != b {
            return Err(ComputeError::bad_kernel(format!(
                "ping-pong pair `{front}`/`{back}` mixes kinds: `{front}` holds {f:?}, \
                 `{back}` holds {b:?}"
            )));
        }
    }
    Ok(())
}

impl PipelineBuilder<Kernel> {
    /// Seeds buffer `name` from an uploaded (or previously computed)
    /// array. The texture stays owned by the caller — the pipeline never
    /// recycles it.
    pub fn source<T: GpuScalar>(self, name: &str, array: &GpuArray<T>) -> Self {
        let texture = Some((array.texture, array.layout));
        self.push_source(name, BufKind::Scalar(T::SCALAR), texture, ANY_EXTENT)
    }

    /// Seeds buffer `name` from a matrix.
    pub fn source_matrix<T: GpuScalar>(self, name: &str, matrix: &GpuMatrix<T>) -> Self {
        let texture = Some((matrix.texture, matrix.layout));
        self.push_source(name, BufKind::Scalar(T::SCALAR), texture, ANY_EXTENT)
    }

    /// Seeds buffer `name` from a raw texel buffer.
    pub fn source_texels(self, name: &str, texels: &GpuTexels) -> Self {
        let texture = Some((texels.texture, texels.layout));
        self.push_source(name, BufKind::Texels, texture, ANY_EXTENT)
    }

    /// Seeds buffer `name` from a runtime-tagged array — the buffer takes
    /// the array's scalar kind, so passes reading it must declare a
    /// matching input encoding.
    pub fn source_any(self, name: &str, array: &crate::buffer::AnyGpuArray) -> Self {
        let texture = Some((array.texture(), array.layout()));
        self.push_source(name, BufKind::Scalar(array.scalar()), texture, ANY_EXTENT)
    }

    /// Declares buffer `name` as a `scalar` source with no texture. Every
    /// run must seed it ([`Pipeline::run_seeded`]); a run that does not
    /// fails with [`ComputeError::BadKernel`].
    pub fn declare_source(self, name: &str, scalar: ScalarType) -> Self {
        self.declared_source(name, scalar, ANY_EXTENT)
    }

    /// Validates the wiring against every kernel's signature.
    ///
    /// # Errors
    ///
    /// [`ComputeError::BadKernel`] for empty dags, duplicate sources,
    /// passes without a write, reads of undeclared buffers or kernel
    /// inputs, inputs read twice, inputs with no default texture and no
    /// read, reads before a buffer's first write, element-kind
    /// mismatches, unknown or type-mismatched uniform overrides, and
    /// unknown or mixed-kind ping-pong pairs.
    pub fn build(self) -> Result<Pipeline, ComputeError> {
        self.checked()
    }
}

/// The extent of a core pipeline source: seeds may have any length.
const ANY_EXTENT: SourceShape = SourceShape::Linear(None);

/// A retained multi-pass execution plan: kernels compile once at build
/// time; [`Pipeline::run`] only rebinds textures and uniforms, recycling
/// render targets through the context pool so steady-state iteration
/// allocates no GL objects. (`K` is a compiled [`Kernel`]; a serving
/// [`crate::PipelineSpec`] holds the same plan over context-free kernel
/// specs and builds this one per worker.)
///
/// ```
/// use gpes_core::{ComputeContext, Kernel, OutputShape, Pass, Pipeline, ScalarType};
/// use gpes_glsl::Value;
///
/// # fn main() -> Result<(), gpes_core::ComputeError> {
/// let mut cc = ComputeContext::new(64, 64)?;
/// let x = cc.upload(&[1.0f32, 2.0, 3.0, 4.0])?;
/// let step = Kernel::builder("double")
///     .input("x", &x)
///     .output(ScalarType::F32, 4)
///     .body("return fetch_x(idx) * 2.0;")
///     .build(&mut cc)?;
/// // Declare once: x ← double(x), five times (implicit ping-pong).
/// let pipe = Pipeline::builder("pow2")
///     .source("x", &x)
///     .pass(Pass::new(&step).read("x", "x").write_len("x", 4))
///     .iterations(5)
///     .build()?;
/// let out: Vec<f32> = pipe.run_and_read(&mut cc, "x")?;
/// assert_eq!(out, vec![32.0, 64.0, 96.0, 128.0]);
/// assert_eq!(cc.stats().programs_linked, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Pipeline<K = Kernel> {
    pub(crate) name: String,
    pub(crate) sources: Vec<Source>,
    pub(crate) passes: Vec<Pass<K>>,
    pub(crate) iterations: Option<usize>,
    pub(crate) iteration_cap: Option<usize>,
    pub(crate) until: Option<UntilFn>,
    pub(crate) ping_pongs: Vec<(String, String)>,
    /// The liveness plan ([`liveness`]), computed once at build.
    pub(crate) retire: Option<Vec<Vec<String>>>,
}

impl<K: PassKernel> fmt::Debug for Pipeline<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field(
                "sources",
                &self
                    .sources
                    .iter()
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("passes", &self.passes)
            .field("iterations", &self.iterations)
            .field("iteration_cap", &self.iteration_cap)
            .field("has_until", &self.until.is_some())
            .field("ping_pongs", &self.ping_pongs)
            .finish()
    }
}

/// Iteration safety net when only an `until` predicate drives the loop.
const MAX_OPEN_ITERATIONS: usize = 1_000_000;

impl<K> Pipeline<K> {
    /// The pipeline's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same plan with every pass kernel replaced by `build(kernel)`:
    /// sources and wiring are cloned, closures shared, nothing re-checked
    /// (the wiring check reads only signatures, which `build` keeps).
    pub(crate) fn map_kernels<J>(
        &self,
        mut build: impl FnMut(&K) -> Result<J, ComputeError>,
    ) -> Result<Pipeline<J>, ComputeError> {
        let passes = self
            .passes
            .iter()
            .map(|pass| Ok(pass.with_kernel(build(&pass.kernel)?)))
            .collect::<Result<_, ComputeError>>()?;
        Ok(Pipeline {
            name: self.name.clone(),
            sources: self.sources.clone(),
            passes,
            iterations: self.iterations,
            iteration_cap: self.iteration_cap,
            until: self.until.clone(),
            ping_pongs: self.ping_pongs.clone(),
            retire: self.retire.clone(),
        })
    }
}

impl Pipeline {
    /// Starts declaring a pipeline named `name` (names appear in errors).
    pub fn builder(name: impl Into<String>) -> PipelineBuilder {
        PipelineBuilder::named(name.into())
    }

    /// Executes the dag and returns a handle over the surviving buffers.
    /// The pipeline is retained: `run` may be called any number of times
    /// (each run re-seeds from the sources).
    ///
    /// # Errors
    ///
    /// Runtime wiring errors (a declared source left unseeded),
    /// per-iteration uniform type mismatches, and GL/shader errors.
    pub fn run(&self, cc: &mut ComputeContext) -> Result<PipelineRun, ComputeError> {
        let (buffers, _) = self.run_internal(cc, None, &[], None)?;
        Ok(PipelineRun { buffers })
    }

    /// [`Pipeline::run`] with per-run source overrides: each seed
    /// re-points a declared source buffer at fresh data for this run
    /// only, so one retained pipeline serves many requests without being
    /// rebuilt — the serving engine's hot path. Sources declared without
    /// a texture must be seeded.
    ///
    /// # Errors
    ///
    /// `BadKernel` for seeds naming undeclared sources or carrying the
    /// wrong element kind, and for unseeded textureless sources, plus
    /// everything [`Pipeline::run`] can raise.
    pub fn run_seeded(
        &self,
        cc: &mut ComputeContext,
        seeds: &[SourceSeed],
    ) -> Result<PipelineRun, ComputeError> {
        let (buffers, _) = self.run_internal(cc, None, seeds, None)?;
        Ok(PipelineRun { buffers })
    }

    /// [`Pipeline::run_seeded`] for a caller that reads only `reads`: a
    /// one-iteration plan recycles every other pipeline-owned buffer
    /// right after its last use, so a long chain holds only its live
    /// intermediates. A looping plan keeps every buffer, as `run_seeded`
    /// does.
    pub(crate) fn run_for_reads(
        &self,
        cc: &mut ComputeContext,
        seeds: &[SourceSeed],
        reads: &[String],
    ) -> Result<PipelineRun, ComputeError> {
        let (buffers, _) = self.run_internal(cc, None, seeds, Some(reads))?;
        Ok(PipelineRun { buffers })
    }

    /// [`Pipeline::run_and_read`] with per-run source overrides; see
    /// [`Pipeline::run_seeded`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_seeded`] and [`Pipeline::run_and_read`].
    pub fn run_and_read_seeded<T: GpuScalar>(
        &self,
        cc: &mut ComputeContext,
        seeds: &[SourceSeed],
        buffer: &str,
    ) -> Result<Vec<T>, ComputeError> {
        let screen_target = self.screen_routable::<T>(cc, buffer);
        let (buffers, screen) = self.run_internal(cc, screen_target.as_deref(), seeds, None)?;
        if let Some((bytes, layout)) = screen {
            PipelineRun { buffers }.finish(cc);
            return Ok(T::decode_framebuffer(&bytes, layout.len));
        }
        let run = PipelineRun { buffers };
        let out = run.read::<T>(cc, buffer);
        run.finish(cc);
        out
    }

    /// The starting buffers of one run: every source at its seed, or at
    /// its build-time texture when the run does not seed it.
    fn seeded_buffers(
        &self,
        seeds: &[SourceSeed],
    ) -> Result<HashMap<String, BufferState>, ComputeError> {
        for seed in seeds {
            let declared = self
                .sources
                .iter()
                .find(|s| s.name == seed.name)
                .ok_or_else(|| {
                    ComputeError::bad_kernel(format!(
                        "pipeline `{}` declares no source `{}` to seed",
                        self.name, seed.name
                    ))
                })?;
            if declared.kind != seed.kind {
                return Err(ComputeError::bad_kernel(format!(
                    "source `{}` of pipeline `{}` holds {:?}, seeded with {:?}",
                    seed.name, self.name, declared.kind, seed.kind
                )));
            }
        }
        let mut bufs = HashMap::with_capacity(self.sources.len());
        for source in &self.sources {
            let seeded = seeds.iter().rev().find(|seed| seed.name == source.name);
            let (texture, layout) = seeded
                .map(|seed| (seed.texture, seed.layout))
                .or(source.texture)
                .ok_or_else(|| {
                    ComputeError::bad_kernel(format!(
                        "source `{}` of pipeline `{}` is declared without a texture, and \
                         this run does not seed it",
                        source.name, self.name
                    ))
                })?;
            bufs.insert(
                source.name.clone(),
                BufferState {
                    texture,
                    layout,
                    kind: source.kind,
                    owned: false,
                },
            );
        }
        Ok(bufs)
    }

    /// Executes the dag and reads buffer `buffer` back, retiring every
    /// pipeline-owned texture into the context pool. When the iteration
    /// count is fixed and `buffer` is the final pass's output fitting the
    /// screen, the final pass renders **straight into the default
    /// framebuffer** (the paper's workaround #7 "careful kernel
    /// ordering") — no extra texture, no extra pass.
    ///
    /// # Errors
    ///
    /// Type mismatches between `T` and the buffer contents, plus
    /// everything [`Pipeline::run`] can raise.
    pub fn run_and_read<T: GpuScalar>(
        &self,
        cc: &mut ComputeContext,
        buffer: &str,
    ) -> Result<Vec<T>, ComputeError> {
        self.run_and_read_seeded(cc, &[], buffer)
    }

    /// Whether `run_and_read::<T>(_, buffer)` may route the final pass to
    /// the default framebuffer.
    fn screen_routable<T: GpuScalar>(&self, cc: &ComputeContext, buffer: &str) -> Option<String> {
        if self.until.is_some() {
            return None; // iteration count unknown up front
        }
        let total = self.iterations.unwrap_or(1);
        if total == 0 {
            return None;
        }
        let last = self.passes.last()?;
        let (write_name, static_shape) = last.write.as_ref()?;
        if write_name != buffer || last.kernel.output_kind() != OutputKind::Scalar(T::SCALAR) {
            return None;
        }
        // A ping-ponged name is re-pointed after the final pass, so the
        // requested buffer would no longer be the final pass's output —
        // screen-routing it would skip the swap and change semantics.
        if self
            .ping_pongs
            .iter()
            .any(|(front, back)| front == buffer || back == buffer)
        {
            return None;
        }
        let shape = match &last.output_fn {
            Some(f) => f(total - 1),
            None => *static_shape,
        };
        let layout = shape.resolve(cc.max_texture_side()).ok()?;
        let (sw, sh) = cc.screen_size();
        (layout.width <= sw && layout.height <= sh).then(|| buffer.to_owned())
    }

    /// One run. `screen_buffer` names the buffer whose final write
    /// should go to the default framebuffer instead of a texture; the
    /// read-back bytes are returned alongside the buffer map. With
    /// `reads`, the liveness plan retires every other buffer at its last
    /// use. A failed run recycles every texture it allocated.
    #[allow(clippy::type_complexity)]
    fn run_internal(
        &self,
        cc: &mut ComputeContext,
        screen_buffer: Option<&str>,
        seeds: &[SourceSeed],
        reads: Option<&[String]>,
    ) -> Result<(Vec<(String, BufferState)>, Option<(Vec<u8>, ArrayLayout)>), ComputeError> {
        let mut bufs = self.seeded_buffers(seeds)?;
        let screen = self
            .run_loop(cc, screen_buffer, reads, &mut bufs)
            .inspect_err(|_| {
                for (_, b) in bufs.drain().filter(|(_, b)| b.owned) {
                    cc.recycle_texture(b.texture);
                }
            })?;
        Ok((bufs.into_iter().collect(), screen))
    }

    /// The iteration loop of [`Pipeline::run_internal`] over `bufs`.
    fn run_loop(
        &self,
        cc: &mut ComputeContext,
        screen_buffer: Option<&str>,
        reads: Option<&[String]>,
        bufs: &mut HashMap<String, BufferState>,
    ) -> Result<Option<(Vec<u8>, ArrayLayout)>, ComputeError> {
        let fixed_total = if self.until.is_none() {
            Some(self.iterations.unwrap_or(1))
        } else {
            None
        };
        let cap = self
            .iterations
            .or(self.iteration_cap)
            .unwrap_or(MAX_OPEN_ITERATIONS);
        let retire = self.retire.as_ref().zip(reads);
        let mut screen: Option<(Vec<u8>, ArrayLayout)> = None;
        let mut completed = 0usize;
        let mut stopped = false;
        while completed < cap {
            let last_iteration = fixed_total == Some(completed + 1);
            for (pi, pass) in self.passes.iter().enumerate() {
                let to_screen = last_iteration
                    && pi + 1 == self.passes.len()
                    && screen_buffer.is_some()
                    && pass.write.as_ref().map(|(n, _)| n.as_str()) == screen_buffer;
                let bytes = self.run_pass(cc, pass, completed, bufs, to_screen)?;
                if let Some(b) = bytes {
                    screen = Some(b);
                }
                if let Some((retire, reads)) = retire {
                    for name in retire[pi].iter().filter(|name| !reads.contains(name)) {
                        if let Some(b) = bufs.remove(name).filter(|b| b.owned) {
                            cc.recycle_texture(b.texture);
                        }
                    }
                }
            }
            for (front, back) in &self.ping_pongs {
                if let (Some(&f), Some(&b)) = (bufs.get(front), bufs.get(back)) {
                    bufs.insert(front.clone(), b);
                    bufs.insert(back.clone(), f);
                }
            }
            completed += 1;
            if fixed_total == Some(completed) {
                break;
            }
            if let Some(stop) = &self.until {
                if stop(completed) {
                    stopped = true;
                    break;
                }
            }
        }
        // A fixed `.iterations` count caps an `until` loop silently (the
        // documented combination); an explicit `.iteration_cap` — or the
        // safety-net default — makes exhaustion a typed error.
        if self.until.is_some() && !stopped && self.iterations.is_none() && completed >= cap {
            return Err(ComputeError::IterationCap {
                pipeline: self.name.clone(),
                cap,
            });
        }
        Ok(screen)
    }

    /// Executes one pass of one iteration.
    fn run_pass(
        &self,
        cc: &mut ComputeContext,
        pass: &Pass<Kernel>,
        iteration: usize,
        bufs: &mut HashMap<String, BufferState>,
        to_screen: bool,
    ) -> Result<Option<(Vec<u8>, ArrayLayout)>, ComputeError> {
        let kernel = &pass.kernel;
        // Inputs in texture-unit order: mapped buffers override defaults.
        let mut inputs = Vec::with_capacity(kernel.inputs.len());
        for spec in &kernel.inputs {
            let slot = match pass.reads.iter().find(|(input, _)| *input == spec.name) {
                Some((_, buffer)) => {
                    let b = bufs.get(buffer).ok_or_else(|| {
                        ComputeError::bad_kernel(format!(
                            "pass `{}` reads buffer `{buffer}` before its first write",
                            kernel.name()
                        ))
                    })?;
                    (b.texture, b.layout)
                }
                None => spec
                    .default
                    .ok_or_else(|| unbound_input(kernel.name(), &spec.name))?,
            };
            inputs.push(slot);
        }
        let (write_name, static_shape) = pass.write.as_ref().expect("validated at build");
        let shape = match &pass.output_fn {
            Some(f) => f(iteration),
            None => *static_shape,
        };
        let layout = shape.resolve(cc.max_texture_side())?;
        // Static overrides were validated at build; per-iteration values
        // are produced fresh, so re-check their types here.
        let mut dynamic: Vec<(String, Value)> = Vec::with_capacity(pass.uniform_fns.len());
        for (name, f) in &pass.uniform_fns {
            let value = f(iteration);
            check_uniform(kernel.name(), &kernel.uniforms, name, Some(&value))?;
            dynamic.push((name.clone(), value));
        }
        let overrides: [&[(String, Value)]; 2] = [&pass.uniforms, &dynamic];
        let resolved = ResolvedDispatch { layout, inputs };

        if to_screen {
            cc.dispatch_resolved(kernel, &resolved, &overrides, true, false)?;
            let bytes = cc.gl().read_pixels(0, 0, layout.width, layout.height)?;
            return Ok(Some((bytes, layout)));
        }

        // In-place fast path: overwrite the buffer's own texture when the
        // pipeline owns it, the dimensions match and this pass does not
        // sample it (no GL feedback loop).
        let in_place = bufs
            .get(write_name.as_str())
            .filter(|b| {
                b.owned
                    && b.layout.width == layout.width
                    && b.layout.height == layout.height
                    && !resolved.inputs.iter().any(|&(t, _)| t == b.texture)
            })
            .map(|b| b.texture);
        let target = cc.render_to_texture(layout, in_place, |cc, reused| {
            cc.dispatch_resolved(kernel, &resolved, &overrides, false, reused)
                .map(drop)
        })?;
        let old = bufs.insert(
            write_name.clone(),
            BufferState {
                texture: target,
                layout,
                kind: BufKind::of_output(kernel.output_kind()),
                owned: true,
            },
        );
        if let Some(old) = old.filter(|old| old.owned && old.texture != target) {
            cc.recycle_texture(old.texture);
        }
        Ok(None)
    }
}

/// The buffers left behind by one [`Pipeline::run`]. Read what you need,
/// then call [`PipelineRun::finish`] — dropping the run without it strands
/// the owned textures outside the recycling pool.
#[derive(Debug)]
#[must_use = "read the buffers, then call `finish(cc)` to recycle them"]
pub struct PipelineRun {
    buffers: Vec<(String, BufferState)>,
}

impl PipelineRun {
    fn get(&self, name: &str) -> Result<&BufferState, ComputeError> {
        self.buffers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b)
            .ok_or_else(|| ComputeError::bad_kernel(format!("pipeline has no buffer `{name}`")))
    }

    /// The layout of a surviving buffer.
    pub fn layout(&self, name: &str) -> Option<ArrayLayout> {
        self.buffers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.layout)
    }

    /// Reads a buffer back through the direct-FBO path.
    ///
    /// # Errors
    ///
    /// `BadKernel` on element-type mismatches; GL errors.
    pub fn read<T: GpuScalar>(
        &self,
        cc: &mut ComputeContext,
        name: &str,
    ) -> Result<Vec<T>, ComputeError> {
        let b = self.get(name)?;
        if b.kind != BufKind::Scalar(T::SCALAR) {
            return Err(ComputeError::bad_kernel(format!(
                "buffer `{name}` holds {:?}, requested {}",
                b.kind,
                T::SCALAR
            )));
        }
        let array: GpuArray<T> = GpuArray::new(b.texture, b.layout);
        cc.read_array(&array, Readback::DirectFbo)
    }

    /// Reads a scalar buffer back as a runtime-tagged tensor through the
    /// direct-FBO path — a u8 buffer comes back as
    /// [`crate::TensorData::U8`], never widened to f32 on the host.
    ///
    /// # Errors
    ///
    /// `BadKernel` for raw-texel buffers; GL errors.
    pub fn read_any(
        &self,
        cc: &mut ComputeContext,
        name: &str,
    ) -> Result<crate::TensorData, ComputeError> {
        let b = self.get(name)?;
        let scalar = match b.kind {
            BufKind::Scalar(scalar) => scalar,
            BufKind::Texels => {
                return Err(ComputeError::bad_kernel(format!(
                    "buffer `{name}` holds raw texels; use read_texels"
                )))
            }
        };
        let array = crate::buffer::AnyGpuArray {
            texture: b.texture,
            layout: b.layout,
            scalar,
        };
        cc.read_array_any(&array, Readback::DirectFbo)
    }

    /// Transfers ownership of a buffer's texture out of the run as a
    /// typed array (it will no longer be recycled by
    /// [`PipelineRun::finish`]).
    ///
    /// # Errors
    ///
    /// `BadKernel` on element-type mismatches.
    pub fn take_array<T: GpuScalar>(&mut self, name: &str) -> Result<GpuArray<T>, ComputeError> {
        let kind = self.get(name)?.kind;
        if kind != BufKind::Scalar(T::SCALAR) {
            return Err(ComputeError::bad_kernel(format!(
                "buffer `{name}` holds {kind:?}, requested {}",
                T::SCALAR
            )));
        }
        let slot = self
            .buffers
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("checked by get");
        slot.1.owned = false;
        Ok(GpuArray::new(slot.1.texture, slot.1.layout))
    }

    /// Retires every pipeline-owned texture into the context's recycling
    /// pool, so the next run (of any same-shaped pipeline) allocates
    /// nothing.
    pub fn finish(self, cc: &mut ComputeContext) {
        for (_, b) in self.buffers {
            if b.owned {
                cc.recycle_texture(b.texture);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpes_glsl::exec::OpProfile;

    #[test]
    fn ops_per_texel() {
        let rec = PassRecord {
            kernel: "k".into(),
            stats: DrawStats {
                fs_profile: OpProfile {
                    alu_ops: 90,
                    sfu_ops: 8,
                    tex_fetches: 2,
                    ..OpProfile::default()
                },
                ..DrawStats::default()
            },
            output_texels: 10,
            reused_target: false,
        };
        assert_eq!(rec.ops_per_texel(), 10.0);
        let empty = PassRecord {
            kernel: "e".into(),
            stats: DrawStats::default(),
            output_texels: 0,
            reused_target: false,
        };
        assert_eq!(empty.ops_per_texel(), 0.0);
    }

    #[test]
    fn default_strategy_is_direct_fbo() {
        assert_eq!(Readback::default(), Readback::DirectFbo);
    }
}
