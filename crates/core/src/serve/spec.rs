use super::*;

// ---- kernel specification ------------------------------------------------

/// A context-free description of a compute kernel: everything
/// [`crate::KernelBuilder`] needs, minus the textures, so the same spec
/// can be built (cheaply, through the program caches) on any worker
/// context. Specs are immutable once built; wrap them in [`Arc`] and
/// reuse them across jobs.
///
/// Inputs and the output each carry a [`ScalarType`] (default `F32`), so
/// quantized u8/i16 tensors are first-class: a typed spec samples its
/// inputs through the matching §IV codec and packs its output the same
/// way, and the serving layer moves those tensors without ever widening
/// to f32 on the host.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    pub(crate) name: String,
    pub(crate) inputs: Vec<(String, ScalarType)>,
    pub(crate) uniforms: Vec<(String, Value)>,
    pub(crate) output: Option<OutputShape>,
    pub(crate) output_scalar: ScalarType,
    pub(crate) body: String,
    pub(crate) functions: String,
}

impl KernelSpec {
    /// Starts a spec for a kernel named `name`.
    pub fn new(name: impl Into<String>) -> KernelSpec {
        KernelSpec {
            name: name.into(),
            inputs: Vec::new(),
            uniforms: Vec::new(),
            output: None,
            output_scalar: ScalarType::F32,
            body: String::new(),
            functions: String::new(),
        }
    }

    /// Declares an `f32` array input; jobs supply its data positionally,
    /// in declaration order.
    pub fn input(self, name: impl Into<String>) -> Self {
        self.input_typed(name, ScalarType::F32)
    }

    /// Declares an array input of an explicit scalar type — how quantized
    /// tensors enter a kernel. Requests supply data of exactly this type
    /// ([`JobInput::Tensor`], [`PipelineJob::source_tensor`]).
    pub fn input_typed(mut self, name: impl Into<String>, scalar: ScalarType) -> Self {
        self.inputs.push((name.into(), scalar));
        self
    }

    /// Declares a uniform with a default value.
    pub fn uniform(mut self, name: impl Into<String>, value: Value) -> Self {
        self.uniforms.push((name.into(), value));
        self
    }

    /// Declares a `uniform float` with a default value.
    pub fn uniform_f32(self, name: impl Into<String>, value: f32) -> Self {
        self.uniform(name, Value::Float(value))
    }

    /// Declares the linear output length (`f32` output).
    pub fn output(mut self, len: usize) -> Self {
        self.output = Some(OutputShape::Linear(len));
        self
    }

    /// Declares a `rows × cols` output grid (`f32` output).
    pub fn output_grid(mut self, rows: u32, cols: u32) -> Self {
        self.output = Some(OutputShape::Grid { rows, cols });
        self
    }

    /// Declares a linear output of `len` elements packed as `scalar` —
    /// the kernel's scalar return is encoded through the matching §IV
    /// codec, so downstream passes and readbacks see that type.
    pub fn output_typed(mut self, scalar: ScalarType, len: usize) -> Self {
        self.output = Some(OutputShape::Linear(len));
        self.output_scalar = scalar;
        self
    }

    /// Declares a `rows × cols` output grid packed as `scalar`.
    pub fn output_grid_typed(mut self, scalar: ScalarType, rows: u32, cols: u32) -> Self {
        self.output = Some(OutputShape::Grid { rows, cols });
        self.output_scalar = scalar;
        self
    }

    /// The kernel body (contents of `float kernel(idx, row, col)`).
    pub fn body(mut self, body: impl Into<String>) -> Self {
        self.body = body.into();
        self
    }

    /// Extra GLSL helper functions available to the body.
    pub fn functions(mut self, source: impl Into<String>) -> Self {
        self.functions = source.into();
        self
    }

    /// The declared input names, in positional order.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.inputs.iter().map(|(n, _)| n.as_str())
    }

    /// The declared `(name, scalar)` input pairs, in positional order.
    pub fn input_types(&self) -> &[(String, ScalarType)] {
        &self.inputs
    }

    /// The scalar type the kernel's output is packed as.
    pub fn output_scalar(&self) -> ScalarType {
        self.output_scalar
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the kernel against `arrays` (parallel to the declared
    /// inputs) on `cc` — a program-cache hit everywhere but the first
    /// build of this spec in the process (shared cache) or context.
    /// Public so direct (non-engine) dispatch of a spec generates the
    /// byte-identical program an engine worker runs — the differential
    /// tests and the `a10` ablation rely on it.
    ///
    /// # Errors
    ///
    /// Spec/kernel validation and compile errors, as
    /// [`crate::KernelBuilder::build`].
    pub fn build(
        &self,
        cc: &mut ComputeContext,
        arrays: &[GpuArray<f32>],
    ) -> Result<Kernel, ComputeError> {
        let erased: Vec<AnyGpuArray> = arrays.iter().map(|a| a.erase()).collect();
        self.build_any(cc, &erased)
    }

    /// [`KernelSpec::build`] over type-erased arrays: each array's runtime
    /// scalar tag must equal the declared input scalar, so a quantized
    /// kernel can never silently sample its bytes through the wrong
    /// codec.
    ///
    /// # Errors
    ///
    /// Arity or scalar mismatches against the declaration, plus
    /// spec/kernel validation and compile errors as
    /// [`crate::KernelBuilder::build`].
    pub fn build_any(
        &self,
        cc: &mut ComputeContext,
        arrays: &[AnyGpuArray],
    ) -> Result<Kernel, ComputeError> {
        if arrays.len() != self.inputs.len() {
            return Err(bad_job(format!(
                "kernel spec `{}` declares {} inputs, got {} arrays",
                self.name,
                self.inputs.len(),
                arrays.len()
            )));
        }
        let mut b = Kernel::builder(self.name.clone());
        for ((name, scalar), array) in self.inputs.iter().zip(arrays) {
            if array.scalar() != *scalar {
                return Err(bad_job(format!(
                    "input `{name}` of kernel spec `{}` is declared {scalar:?}, got a \
                     {:?} array",
                    self.name,
                    array.scalar()
                )));
            }
            b = b.input_any(name, array);
        }
        self.finish_build(b, cc)
    }

    /// Builds the kernel from the signature alone: every input is
    /// declared, none bound, so the kernel needs no arrays — a
    /// [`PipelineSpec`] pass reads every input from a pipeline buffer.
    /// The program is the one [`KernelSpec::build_any`] links.
    pub(crate) fn build_declared(&self, cc: &mut ComputeContext) -> Result<Kernel, ComputeError> {
        let b = self
            .inputs
            .iter()
            .fold(Kernel::builder(self.name.clone()), |b, (name, scalar)| {
                b.input_declared(name, *scalar)
            });
        self.finish_build(b, cc)
    }

    /// Adds the uniforms, helpers, output and body to a builder whose
    /// inputs are set, and builds.
    fn finish_build(
        &self,
        mut b: crate::KernelBuilder,
        cc: &mut ComputeContext,
    ) -> Result<Kernel, ComputeError> {
        let shape = self
            .output
            .ok_or_else(|| bad_job(format!("kernel spec `{}` declares no output", self.name)))?;
        for (name, value) in &self.uniforms {
            b = b.uniform(name, value.clone());
        }
        if !self.functions.is_empty() {
            b = b.functions(self.functions.clone());
        }
        b = match shape {
            OutputShape::Linear(len) => b.output(self.output_scalar, len),
            OutputShape::Grid { rows, cols } => b.output_grid(self.output_scalar, rows, cols),
        };
        b.body(self.body.clone()).build(cc)
    }
}

impl PassKernel for Arc<KernelSpec> {
    fn signature(&self) -> Signature<'_> {
        Signature {
            name: &self.name,
            inputs: self
                .inputs
                .iter()
                .map(|(name, scalar)| (name.as_str(), InputEncoding::Scalar(*scalar), false))
                .collect(),
            output: self.output.map(|_| OutputKind::Scalar(self.output_scalar)),
            uniforms: &self.uniforms,
        }
    }
}

pub(crate) fn bad_job(message: String) -> ComputeError {
    ComputeError::BadKernel { message }
}

// ---- resident inputs -----------------------------------------------------

/// Process-unique ids for [`ResidentInput`]s (and spec-hash closure
/// tokens); never reused, so a stale worker cache entry can never alias a
/// new handle.
pub(crate) static NEXT_UNIQUE_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_unique_id() -> u64 {
    NEXT_UNIQUE_ID.fetch_add(1, Ordering::Relaxed)
}

pub(crate) struct ResidentInner {
    pub(crate) id: u64,
    pub(crate) data: TensorData,
    pub(crate) evicted: AtomicBool,
}

/// Host data promoted to **per-worker GPU residency**: the first job on
/// each worker that references the handle uploads it, every later job on
/// that worker — kernel, DAG step or pipeline source — binds the
/// already-uploaded texture. The serving analog of model weights: pay the
/// host→GPU transfer once per worker, not once per request.
///
/// Cloning the handle is cheap (it is `Arc`-backed) and refers to the
/// same residency. [`ResidentInput::evict`] retires the handle
/// everywhere: workers drop their textures and any job still referencing
/// it fails with a validation error instead of silently re-uploading.
/// Workers additionally bound how many residencies they hold; entries
/// past the cap are evicted oldest-first (transparently re-uploaded on
/// next use) with the eviction counted in [`ResidentStats`].
#[derive(Clone)]
pub struct ResidentInput {
    pub(crate) inner: Arc<ResidentInner>,
}

impl ResidentInput {
    /// Wraps `f32` host data for per-worker GPU residency.
    pub fn new(data: Vec<f32>) -> ResidentInput {
        ResidentInput::new_tensor(data)
    }

    /// Wraps typed host data — quantized weights stay u8/i16 on the GPU,
    /// the TFLite-delegate trick without the f32 widening.
    pub fn new_tensor(data: impl Into<TensorData>) -> ResidentInput {
        ResidentInput {
            inner: Arc::new(ResidentInner {
                id: next_unique_id(),
                data: data.into(),
                evicted: AtomicBool::new(false),
            }),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.data.len()
    }

    /// The runtime scalar tag of the resident data.
    pub fn scalar(&self) -> ScalarType {
        self.inner.data.scalar()
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.data.is_empty()
    }

    /// Retires the residency everywhere: each worker recycles its
    /// uploaded texture at its next task boundary, and any subsequent job
    /// referencing this handle fails validation. Irreversible — re-upload
    /// under a fresh handle instead.
    pub fn evict(&self) {
        self.inner.evicted.store(true, Ordering::Release);
    }

    /// Whether [`ResidentInput::evict`] has been called.
    pub fn is_evicted(&self) -> bool {
        self.inner.evicted.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for ResidentInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentInput")
            .field("id", &self.inner.id)
            .field("len", &self.inner.data.len())
            .field("evicted", &self.is_evicted())
            .finish()
    }
}

/// Per-worker residency counters — the [`ContextStats`]-style accounting
/// for [`ResidentInput`] textures. In steady state (every referenced
/// residency within the per-worker cap) `uploads` freezes and every
/// access is a hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Host→GPU uploads performed for resident inputs (first use per
    /// worker, or re-upload after a capacity eviction).
    pub uploads: u64,
    /// Accesses served from the worker's resident textures.
    pub hits: u64,
    /// Entries dropped — capacity evictions plus retired handles noticed.
    pub evictions: u64,
    /// Entries currently held by the worker.
    pub resident_textures: u64,
}

impl ResidentStats {
    pub(crate) fn merged(&self, other: &ResidentStats) -> ResidentStats {
        ResidentStats {
            uploads: self.uploads + other.uploads,
            hits: self.hits + other.hits,
            evictions: self.evictions + other.evictions,
            // Current occupancy, not a lifetime total: the live state wins.
            resident_textures: other.resident_textures,
        }
    }
}

/// One input of a [`Job`] or a [`Submission`] step, or one source of a
/// [`PipelineJob`]: fresh host data uploaded when the work runs (and
/// recycled after), a per-worker [`ResidentInput`], or — in a submission
/// step only — the on-GPU output of an earlier step.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// `f32` host data uploaded per request. `Arc`-held so fan-out jobs
    /// share one buffer without copying.
    Data(Arc<Vec<f32>>),
    /// Typed host data uploaded per request — quantized u8/i16 tensors
    /// travel as themselves, no f32 widening at the host boundary.
    Tensor(Arc<TensorData>),
    /// An input resident on the worker across requests.
    Resident(ResidentInput),
    /// The output of step `i` of the same [`Submission`] (it must precede
    /// the step reading it); it stays on the GPU — no readback/re-upload
    /// between steps. Prefer wiring through a [`StepHandle`]
    /// (`handle.into()`) over raw indices.
    Step(usize),
}

// ---- jobs and submissions ------------------------------------------------

/// A typed reference to a step appended to a [`Submission`] — returned by
/// [`Submission::step`] so DAG wiring never hand-counts indices: pass it
/// to later steps via `handle.into()` ([`JobInput::Step`]) and to
/// [`Submission::read`] / [`BatchResult::output`] directly. Handles are
/// only meaningful for the submission that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepHandle(usize);

impl StepHandle {
    /// The raw step index (escape hatch for manual wiring).
    pub fn index(self) -> usize {
        self.0
    }

    /// The plan buffer the step writes.
    fn buffer(self) -> String {
        format!("step {}", self.0)
    }
}

impl From<StepHandle> for JobInput {
    fn from(handle: StepHandle) -> JobInput {
        JobInput::Step(handle.0)
    }
}

/// A single kernel dispatch with an `f32` output: spec + positional
/// input data + optional dispatch-time uniform overrides. Result type:
/// `Vec<f32>`. A job is the one-step [`Submission`], read back; a kernel
/// that packs a typed output is refused at submit (its readback is no
/// `Vec<f32>`) — send it as a submission step instead.
#[derive(Debug, Clone)]
pub struct Job {
    pub(crate) kernel: Arc<KernelSpec>,
    pub(crate) inputs: Vec<JobInput>,
    pub(crate) uniforms: Vec<(String, Value)>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) tenant: Option<TenantId>,
}

impl Job {
    /// Starts a job running `kernel`.
    pub fn new(kernel: &Arc<KernelSpec>) -> Job {
        Job {
            kernel: Arc::clone(kernel),
            inputs: Vec::new(),
            uniforms: Vec::new(),
            deadline: None,
            retry: None,
            tenant: None,
        }
    }

    /// Tags the job with a tenant, making [`TenantQuotas::max_in_flight`]
    /// apply at submit time and counting the job in the tenant's
    /// [`TenantCounters`]. [`RegisteredKernel::job`] applies this
    /// automatically.
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> Job {
        self.tenant = Some(tenant.into());
        self
    }

    /// Overrides the engine's [`RetryPolicy`] for this job only (e.g.
    /// [`RetryPolicy::none`] for work that must not run twice).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Job {
        self.retry = Some(policy);
        self
    }

    /// Sets an absolute deadline: if no worker has dequeued the job by
    /// `at`, it is shed with [`ComputeError::DeadlineExceeded`] before
    /// any GPU work happens.
    pub fn deadline(mut self, at: Instant) -> Job {
        self.deadline = Some(at);
        self
    }

    /// [`Job::deadline`] relative to now.
    pub fn timeout(self, after: Duration) -> Job {
        let at = Instant::now() + after;
        self.deadline(at)
    }

    /// Appends `f32` host data for the next declared input.
    pub fn data(mut self, data: Vec<f32>) -> Job {
        self.inputs.push(JobInput::Data(Arc::new(data)));
        self
    }

    /// Appends shared `f32` host data for the next declared input.
    pub fn data_shared(mut self, data: &Arc<Vec<f32>>) -> Job {
        self.inputs.push(JobInput::Data(Arc::clone(data)));
        self
    }

    /// Binds a per-worker [`ResidentInput`] to the next declared input —
    /// no upload happens on workers that already hold it.
    pub fn resident(mut self, input: &ResidentInput) -> Job {
        self.inputs.push(JobInput::Resident(input.clone()));
        self
    }

    /// Overrides a uniform for this dispatch only.
    pub fn uniform(mut self, name: impl Into<String>, value: Value) -> Job {
        self.uniforms.push((name.into(), value));
        self
    }

    /// Overrides a `float` uniform for this dispatch only.
    pub fn uniform_f32(self, name: impl Into<String>, value: f32) -> Job {
        self.uniform(name, Value::Float(value))
    }
}

/// A batched multi-kernel DAG: several dispatches submitted as one unit,
/// executed back-to-back on a single worker. Later steps read earlier
/// steps' outputs directly from GPU memory ([`JobInput::Step`]), so a
/// k-kernel chain costs one queue round-trip instead of k, and no
/// intermediate ever crosses the host boundary. Each [`Submission::step`]
/// adds a pass to the submission's own one-iteration [`Pipeline`] plan,
/// its host-data and resident inputs declared as sources of the kernel
/// input's own scalar, so typed (u8/i16) chains are served like f32 ones.
/// The plan's wiring check and the one source check run at submit, on the
/// caller's thread. The worker runs the plan with its liveness plan: each
/// unread step output is recycled once its last reader has dispatched, so
/// a long chain holds only its live intermediates and a warm worker
/// allocates no textures for it.
pub struct Submission {
    pub(crate) plan: PipelineSpecBuilder,
    pub(crate) sources: Vec<JobInput>,
    pub(crate) reads: Vec<String>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) tenant: Option<TenantId>,
}

impl Default for Submission {
    fn default() -> Submission {
        Submission {
            plan: PipelineBuilder::named("submission".into()),
            sources: Vec::new(),
            reads: Vec::new(),
            deadline: None,
            retry: None,
            tenant: None,
        }
    }
}

impl Submission {
    /// An empty submission.
    pub fn new() -> Submission {
        Submission::default()
    }

    /// Sets an absolute deadline: if no worker has dequeued the
    /// submission by `at`, it is shed with
    /// [`ComputeError::DeadlineExceeded`] before any GPU work happens.
    pub fn deadline(&mut self, at: Instant) {
        self.deadline = Some(at);
    }

    /// [`Submission::deadline`] relative to now.
    pub fn timeout(&mut self, after: Duration) {
        self.deadline = Some(Instant::now() + after);
    }

    /// Overrides the engine's [`RetryPolicy`] for this submission only.
    pub fn retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Tags the submission with a tenant, making
    /// [`TenantQuotas::max_in_flight`] apply at submit time and counting
    /// it in the tenant's [`TenantCounters`].
    pub fn tenant(&mut self, tenant: impl Into<TenantId>) {
        self.tenant = Some(tenant.into());
    }

    /// Appends a step — `inputs` positional over the kernel's declared
    /// inputs — and returns its [`StepHandle`]: later steps wire to it
    /// with `handle.into()`, readbacks with [`Submission::read`]`(handle)`,
    /// so no index is ever hand-counted. Every data or resident input
    /// becomes its own seeded source (uploaded once per run, as a direct
    /// caller would); an input past the declared ones names an input the
    /// kernel lacks and is refused at submit.
    pub fn step(
        &mut self,
        kernel: &Arc<KernelSpec>,
        inputs: Vec<JobInput>,
        uniforms: Vec<(String, Value)>,
    ) -> StepHandle {
        let step = StepHandle(self.len());
        let mut pass = Pass::new(kernel);
        for (k, input) in inputs.into_iter().enumerate() {
            let (name, scalar) = kernel
                .inputs
                .get(k)
                .cloned()
                .unwrap_or_else(|| (format!("#{k}"), ScalarType::F32));
            let buffer = match input {
                JobInput::Step(j) => StepHandle(j).buffer(),
                seed => {
                    let buffer = format!("{} input {k}", step.buffer());
                    self.plan.dag.sources.push(Source {
                        name: buffer.clone(),
                        kind: BufKind::Scalar(scalar),
                        texture: None,
                        shape: SourceShape::Linear(None),
                    });
                    self.sources.push(seed);
                    buffer
                }
            };
            pass = pass.read(&name, &buffer);
        }
        pass.uniforms = uniforms;
        if let Some(shape) = kernel.output {
            pass = pass.write(&step.buffer(), shape);
        }
        self.plan.dag.passes.push(pass);
        step
    }

    /// Marks a step for readback; its result appears in the
    /// [`BatchResult`]. When no step is marked, the final step is read.
    pub fn read(&mut self, step: StepHandle) {
        let buffer = step.buffer();
        if !self.reads.contains(&buffer) {
            self.reads.push(buffer);
        }
    }

    /// Number of steps queued so far.
    pub fn len(&self) -> usize {
        self.plan.dag.passes.len()
    }

    /// Whether the submission has no steps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Results of a [`Submission`]: the readback of each step marked with
/// [`Submission::read`], in the step's declared scalar type.
#[derive(Debug, Clone)]
pub struct BatchResult(PipelineResult);

impl BatchResult {
    /// The readback of an `f32` step, if it was marked (`None` for
    /// unmarked steps *and* for typed ones — read those with
    /// [`BatchResult::tensor`]).
    pub fn output(&self, step: StepHandle) -> Option<&[f32]> {
        self.tensor(step).and_then(|t| t.as_f32())
    }

    /// The typed readback of a step, if it was marked.
    pub fn tensor(&self, step: StepHandle) -> Option<&TensorData> {
        self.0.tensor(&step.buffer())
    }
}

// ---- pipeline specs ------------------------------------------------------

/// Default iteration cap applied to `until`-driven [`PipelineSpec`]s that
/// set no explicit cap: a serving engine must never run a convergence
/// loop open-ended on a worker, so cap exhaustion surfaces as
/// [`ComputeError::IterationCap`] on the job handle instead of a hang.
pub const DEFAULT_SERVE_ITERATION_CAP: usize = 65_536;

/// One declared pass of a [`PipelineSpec`]: a [`Pass`] around a
/// context-free kernel spec. A spec's kernel inputs have no default
/// textures, so a pass must [`Pass::read`] every one of them.
pub type PassSpec = Pass<Arc<KernelSpec>>;

/// Builder for [`PipelineSpec`]s; see [`PipelineSpec::builder`]. The
/// [`PipelineBuilder`] over kernel specs: passes, iterations, `until`
/// and ping-pong pairs are declared exactly as for a [`Pipeline`], and
/// sources are declared by type and shape instead of bound to textures.
pub type PipelineSpecBuilder = PipelineBuilder<Arc<KernelSpec>>;

impl PipelineBuilder<Arc<KernelSpec>> {
    /// Declares a linear `f32` source buffer; jobs supply its data
    /// positionally, in declaration order.
    pub fn source(self, name: &str) -> Self {
        self.source_typed(name, ScalarType::F32)
    }

    /// Declares a linear source buffer of an explicit scalar type — jobs
    /// must seed it with matching [`TensorData`].
    pub fn source_typed(self, name: &str, scalar: ScalarType) -> Self {
        self.declared_source(name, scalar, SourceShape::Linear(None))
    }

    /// Declares a linear `f32` source buffer of exactly `len` elements
    /// (validated against each job's data).
    pub fn source_len(self, name: &str, len: usize) -> Self {
        self.source_len_typed(name, ScalarType::F32, len)
    }

    /// Declares a typed linear source buffer of exactly `len` elements.
    pub fn source_len_typed(self, name: &str, scalar: ScalarType, len: usize) -> Self {
        self.declared_source(name, scalar, SourceShape::Linear(Some(len)))
    }

    /// Declares a row-major `rows × cols` `f32` matrix source buffer.
    pub fn source_grid(self, name: &str, rows: u32, cols: u32) -> Self {
        self.source_grid_typed(name, ScalarType::F32, rows, cols)
    }

    /// Declares a typed row-major `rows × cols` matrix source buffer —
    /// how a quantized image enters a CNN pipeline.
    pub fn source_grid_typed(self, name: &str, scalar: ScalarType, rows: u32, cols: u32) -> Self {
        self.declared_source(name, scalar, SourceShape::Grid { rows, cols })
    }

    /// Validates the wiring — context-free, so a malformed spec is
    /// rejected on the caller's thread, not on a worker — and seals the
    /// spec with its cache fingerprint.
    ///
    /// # Errors
    ///
    /// [`ComputeError::BadKernel`] for a kernel spec without an output,
    /// and for everything [`PipelineBuilder::build`] rejects — here every
    /// kernel input has no default, so each must be read exactly once.
    pub fn build(self) -> Result<PipelineSpec, ComputeError> {
        let mut pipeline = self.checked()?;
        let fingerprint = spec_fingerprint(&pipeline);
        if pipeline.until.is_some() && pipeline.iterations.is_none() {
            pipeline
                .iteration_cap
                .get_or_insert(DEFAULT_SERVE_ITERATION_CAP);
        }
        Ok(PipelineSpec {
            pipeline,
            fingerprint,
        })
    }
}

/// Computes the per-worker cache key for a spec: a structural hash of
/// everything serialisable, with every closure (per-iteration uniform,
/// dynamic output shape, `until` predicate) contributing a process-unique
/// token instead — two structurally identical closure-free specs share a
/// cached pipeline, while closure-bearing specs never alias.
fn spec_fingerprint(p: &Pipeline<Arc<KernelSpec>>) -> u64 {
    let mut h = DefaultHasher::new();
    p.name.hash(&mut h);
    for source in &p.sources {
        source.name.hash(&mut h);
        format!("{:?}", source.shape).hash(&mut h);
        source.kind.hash(&mut h);
    }
    for pass in &p.passes {
        let k = &pass.kernel;
        k.name.hash(&mut h);
        k.inputs.hash(&mut h);
        for (name, value) in &k.uniforms {
            name.hash(&mut h);
            format!("{value:?}").hash(&mut h);
        }
        format!("{:?}", k.output).hash(&mut h);
        k.output_scalar.hash(&mut h);
        k.body.hash(&mut h);
        k.functions.hash(&mut h);
        pass.reads.hash(&mut h);
        format!("{:?}", pass.write).hash(&mut h);
        for (name, value) in &pass.uniforms {
            name.hash(&mut h);
            format!("{value:?}").hash(&mut h);
        }
        if pass.output_fn.is_some() {
            next_unique_id().hash(&mut h);
        }
        for (name, _) in &pass.uniform_fns {
            name.hash(&mut h);
            next_unique_id().hash(&mut h);
        }
    }
    p.iterations.hash(&mut h);
    p.iteration_cap.hash(&mut h);
    if p.until.is_some() {
        next_unique_id().hash(&mut h);
    }
    p.ping_pongs.hash(&mut h);
    h.finish()
}

/// A context-free description of a whole retained multi-pass pipeline:
/// the declared form of a [`Pipeline`] — passes, buffer wiring,
/// per-iteration uniforms and shapes, ping-pong pairs, iteration counts
/// and `until` predicates over kernel specs, with typed, shaped sources
/// instead of textures — so any engine worker can build, cache and run
/// it. The serving analog of recording an op-graph once and replaying it
/// per request (the TFLite-delegate / CNNdroid amortisation, lifted to
/// multi-pass kernels).
///
/// Specs are immutable once built; wrap them in [`Arc`] and submit them
/// through [`Engine::submit`]. Each worker builds the pipeline
/// once (all programs through the shared cache) and caches it by
/// [`PipelineSpec::fingerprint`], so steady-state serving links zero
/// programs and creates zero GL objects.
///
/// ```
/// use gpes_core::serve::{Engine, PassSpec, PipelineJob, PipelineSpec, KernelSpec};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), gpes_core::ComputeError> {
/// let double = Arc::new(
///     KernelSpec::new("double")
///         .input("x")
///         .output(4)
///         .body("return fetch_x(idx) * 2.0;"),
/// );
/// // x ← double(x), five times (implicit ping-pong), declared once.
/// let spec = Arc::new(
///     PipelineSpec::builder("pow2")
///         .source_len("x", 4)
///         .pass(PassSpec::new(&double).read("x", "x").write_len("x", 4))
///         .iterations(5)
///         .build()?,
/// );
/// let engine = Engine::builder().workers(2).build()?;
/// let job = PipelineJob::new(&spec)
///     .source(vec![1.0, 2.0, 3.0, 4.0])
///     .read("x");
/// let result = engine.submit(job)?.wait()?;
/// assert_eq!(result.output("x").unwrap(), &[32.0, 64.0, 96.0, 128.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PipelineSpec {
    /// The checked plan; every source is declared without a texture.
    pub(crate) pipeline: Pipeline<Arc<KernelSpec>>,
    pub(crate) fingerprint: u64,
}

impl std::fmt::Debug for PipelineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineSpec")
            .field("pipeline", &self.pipeline)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl PipelineSpec {
    /// Starts declaring a pipeline spec named `name`.
    pub fn builder(name: impl Into<String>) -> PipelineSpecBuilder {
        PipelineBuilder::named(name.into())
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        self.pipeline.name()
    }

    /// The per-worker cache key: a structural hash of the spec, with
    /// closures contributing process-unique tokens (two structurally
    /// identical closure-free specs share a cached pipeline;
    /// closure-bearing specs never alias).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The declared source names, in positional order.
    pub fn source_names(&self) -> impl Iterator<Item = &str> {
        self.pipeline.sources.iter().map(|s| s.name.as_str())
    }

    /// Builds the retained pipeline on `cc`: each pass kernel from its
    /// signature (a program-cache hit everywhere but the first build in
    /// the process or context), the wiring shared with the spec. Creates
    /// no textures and transfers nothing; every run must seed every
    /// source. Public so direct (non-engine) execution of a spec builds
    /// the byte-identical pipeline an engine worker runs — the
    /// differential tests and the `a11` ablation rely on it.
    ///
    /// # Errors
    ///
    /// Kernel build/compile errors.
    pub fn build(&self, cc: &mut ComputeContext) -> Result<ServedPipeline, ComputeError> {
        Ok(ServedPipeline {
            pipeline: self.pipeline.map_kernels(|spec| spec.build_declared(cc))?,
        })
    }
}

/// A [`PipelineSpec`] compiled against one context: the retained
/// [`Pipeline`], whose sources every run seeds. Obtained from
/// [`PipelineSpec::build`]; engine workers cache one per spec
/// fingerprint.
pub struct ServedPipeline {
    pub(crate) pipeline: Pipeline,
}

impl ServedPipeline {
    /// The retained pipeline (run it with
    /// [`Pipeline::run_seeded`], seeding every declared source).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }
}

/// A whole retained pipeline submitted as one engine job: the spec plus
/// per-request source data (fresh or resident) and the buffers to read
/// back. Result type: [`PipelineResult`].
#[derive(Debug, Clone)]
pub struct PipelineJob {
    pub(crate) spec: Arc<PipelineSpec>,
    pub(crate) sources: Vec<JobInput>,
    pub(crate) reads: Vec<String>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) tenant: Option<TenantId>,
}

impl PipelineJob {
    /// Starts a job running `spec`.
    pub fn new(spec: &Arc<PipelineSpec>) -> PipelineJob {
        PipelineJob {
            spec: Arc::clone(spec),
            sources: Vec::new(),
            reads: Vec::new(),
            deadline: None,
            retry: None,
            tenant: None,
        }
    }

    /// Tags the job with a tenant, making [`TenantQuotas::max_in_flight`]
    /// apply at submit time and counting it in the tenant's
    /// [`TenantCounters`].
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> PipelineJob {
        self.tenant = Some(tenant.into());
        self
    }

    /// Overrides the engine's [`RetryPolicy`] for this job only.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> PipelineJob {
        self.retry = Some(policy);
        self
    }

    /// Sets an absolute deadline: if no worker has dequeued the job by
    /// `at`, it is shed with [`ComputeError::DeadlineExceeded`] before
    /// any GPU work happens.
    pub fn deadline(mut self, at: Instant) -> PipelineJob {
        self.deadline = Some(at);
        self
    }

    /// [`PipelineJob::deadline`] relative to now.
    pub fn timeout(self, after: Duration) -> PipelineJob {
        let at = Instant::now() + after;
        self.deadline(at)
    }

    /// Appends `f32` host data for the next declared source.
    pub fn source(mut self, data: Vec<f32>) -> PipelineJob {
        self.sources.push(JobInput::Data(Arc::new(data)));
        self
    }

    /// Appends shared `f32` host data for the next declared source.
    pub fn source_shared(mut self, data: &Arc<Vec<f32>>) -> PipelineJob {
        self.sources.push(JobInput::Data(Arc::clone(data)));
        self
    }

    /// Appends typed host data for the next declared source — must match
    /// the scalar declared with [`PipelineSpecBuilder::source_typed`]
    /// (or the `_len`/`_grid` variants).
    pub fn source_tensor(mut self, data: impl Into<TensorData>) -> PipelineJob {
        self.sources.push(JobInput::Tensor(Arc::new(data.into())));
        self
    }

    /// Appends shared typed host data for the next declared source.
    pub fn source_tensor_shared(mut self, data: &Arc<TensorData>) -> PipelineJob {
        self.sources.push(JobInput::Tensor(Arc::clone(data)));
        self
    }

    /// Binds a per-worker [`ResidentInput`] to the next declared source.
    pub fn source_resident(mut self, input: &ResidentInput) -> PipelineJob {
        self.sources.push(JobInput::Resident(input.clone()));
        self
    }

    /// Marks buffer `buffer` for readback after the run (post ping-pong
    /// swaps, exactly like reading a [`crate::PipelineRun`]).
    pub fn read(mut self, buffer: &str) -> PipelineJob {
        if !self.reads.iter().any(|b| b == buffer) {
            self.reads.push(buffer.to_owned());
        }
        self
    }
}

impl Work {
    /// The one source check, for every request: source arity, kind,
    /// length and resident liveness against the plan's declared sources,
    /// then the read marks against its buffers.
    fn checked(self) -> Result<Work, ComputeError> {
        let plan = self.plan.declared();
        let name = plan.name();
        if self.sources.len() != plan.sources.len() {
            return Err(bad_job(format!(
                "`{name}` is given {} sources, declares {}",
                self.sources.len(),
                plan.sources.len()
            )));
        }
        for (decl, input) in plan.sources.iter().zip(&self.sources) {
            let (scalar, len) = match input {
                JobInput::Data(data) => (ScalarType::F32, data.len()),
                JobInput::Tensor(tensor) => (tensor.scalar(), tensor.len()),
                JobInput::Resident(r) if r.is_evicted() => {
                    let id = r.inner.id;
                    return Err(bad_job(format!(
                        "`{name}` references an evicted ResidentInput (id {id})"
                    )));
                }
                JobInput::Resident(r) => (r.scalar(), r.len()),
                JobInput::Step(j) => {
                    let source = &decl.name;
                    return Err(bad_job(format!(
                        "source `{source}` of `{name}` is step {j}"
                    )));
                }
            };
            if decl.kind != BufKind::Scalar(scalar) {
                return Err(bad_job(format!(
                    "source `{}` of `{name}` holds {:?}, supplied {scalar:?} data",
                    decl.name, decl.kind
                )));
            }
            let want = match decl.shape {
                SourceShape::Linear(want) => want,
                SourceShape::Grid { rows, cols } => Some(rows as usize * cols as usize),
            };
            if let Some(want) = want.filter(|&want| want != len) {
                return Err(bad_job(format!(
                    "source `{}` of `{name}` wants {want} elements, supplied {len}",
                    decl.name
                )));
            }
        }
        if self.reads.is_empty() {
            return Err(bad_job(format!(
                "`{name}` reads no buffers; mark at least one with .read()"
            )));
        }
        let written = |buffer: &str| {
            plan.passes
                .iter()
                .any(|p| p.write.as_ref().is_some_and(|(w, _)| w == buffer))
        };
        for buffer in &self.reads {
            if !plan.sources.iter().any(|s| &s.name == buffer) && !written(buffer) {
                return Err(bad_job(format!(
                    "`{name}` has no buffer `{buffer}` to read"
                )));
            }
        }
        Ok(self)
    }
}

/// Where a task's built [`Pipeline`] comes from.
pub(crate) enum Plan {
    /// A [`PipelineSpec`]: built once per worker, cached by fingerprint.
    Spec(Arc<PipelineSpec>),
    /// A [`Submission`]'s (or [`Job`]'s) own plan: built on every run and
    /// never cached, so a served [`Job`] does a direct dispatch's one
    /// program-cache lookup.
    Submission(Pipeline<Arc<KernelSpec>>),
}

impl Plan {
    /// The declared plan: its sources, passes and wiring.
    pub(crate) fn declared(&self) -> &Pipeline<Arc<KernelSpec>> {
        match self {
            Plan::Spec(spec) => &spec.pipeline,
            Plan::Submission(plan) => plan,
        }
    }
}

pub(crate) use sealed::Work;

/// Crate-private items [`Request`] names: `pub` only so the sealed trait
/// can name them, unreachable outside the crate.
pub(crate) mod sealed {
    use super::*;

    /// What a worker executes for one task: a checked plan, the data
    /// seeding its declared sources (positionally), and the buffers read
    /// back. Every [`Request`] builds one at submit.
    pub struct Work {
        pub(crate) plan: Plan,
        pub(crate) sources: Vec<JobInput>,
        pub(crate) reads: Vec<String>,
        pub(crate) deadline: Option<Instant>,
        pub(crate) retry: Option<RetryPolicy>,
        pub(crate) tenant: Option<TenantId>,
    }

    /// The crate-private half of [`super::Request`]: how a request
    /// becomes checked [`Work`].
    pub trait Request {
        fn into_work(self) -> Result<Work, ComputeError>;
    }

    /// The crate-private half of a request's output: how the worker's
    /// `(buffer, tensor)` readbacks become the handle's value.
    pub trait Output: Send + 'static {
        fn from_reads(reads: Vec<(String, TensorData)>) -> Result<Self, ComputeError>
        where
            Self: Sized;
    }
}

/// A request [`Engine::submit`] and [`Engine::try_submit`] accept: a
/// [`Job`], a [`Submission`] or a [`PipelineJob`]. Each builds one checked
/// worker plan; `Output` is what its [`JobHandle`] yields. Sealed.
pub trait Request: sealed::Request {
    /// The handle's value: `Vec<f32>`, [`BatchResult`] or
    /// [`PipelineResult`].
    type Output: sealed::Output;
}

impl Request for Job {
    type Output = Vec<f32>;
}

impl sealed::Request for Job {
    fn into_work(self) -> Result<Work, ComputeError> {
        if self.kernel.output_scalar != ScalarType::F32 {
            return Err(bad_job(format!(
                "job kernel `{}` packs {:?} output, but a Job's handle holds Vec<f32>; \
                 submit it as a Submission step",
                self.kernel.name, self.kernel.output_scalar
            )));
        }
        let mut submission = Submission {
            deadline: self.deadline,
            retry: self.retry,
            tenant: self.tenant,
            ..Submission::new()
        };
        submission.step(&self.kernel, self.inputs, self.uniforms);
        sealed::Request::into_work(submission)
    }
}

impl Request for Submission {
    type Output = BatchResult;
}

impl sealed::Request for Submission {
    /// Checks the plan's wiring (an empty submission has no passes; a
    /// spec without an output is refused through its signature), then
    /// the sources. Unmarked, the final step is read.
    fn into_work(self) -> Result<Work, ComputeError> {
        let plan = self.plan.checked()?;
        let reads = if self.reads.is_empty() {
            vec![StepHandle(plan.passes.len() - 1).buffer()]
        } else {
            self.reads
        };
        Work {
            plan: Plan::Submission(plan),
            sources: self.sources,
            reads,
            deadline: self.deadline,
            retry: self.retry,
            tenant: self.tenant,
        }
        .checked()
    }
}

impl Request for PipelineJob {
    type Output = PipelineResult;
}

impl sealed::Request for PipelineJob {
    fn into_work(self) -> Result<Work, ComputeError> {
        Work {
            plan: Plan::Spec(self.spec),
            sources: self.sources,
            reads: self.reads,
            deadline: self.deadline,
            retry: self.retry,
            tenant: self.tenant,
        }
        .checked()
    }
}

impl sealed::Output for Vec<f32> {
    fn from_reads(reads: Vec<(String, TensorData)>) -> Result<Vec<f32>, ComputeError> {
        match reads.into_iter().next() {
            Some((_, TensorData::F32(host))) => Ok(host),
            _ => Err(ComputeError::EngineInternal {
                message: "a job read back no f32 output".into(),
            }),
        }
    }
}

impl sealed::Output for BatchResult {
    fn from_reads(reads: Vec<(String, TensorData)>) -> Result<BatchResult, ComputeError> {
        Ok(BatchResult(PipelineResult { outputs: reads }))
    }
}

impl sealed::Output for PipelineResult {
    fn from_reads(reads: Vec<(String, TensorData)>) -> Result<PipelineResult, ComputeError> {
        Ok(PipelineResult { outputs: reads })
    }
}

/// Results of a [`PipelineJob`]: one [`TensorData`] per buffer marked
/// with [`PipelineJob::read`] — the buffer's declared scalar type, so a
/// quantized readback arrives as its own bytes, never widened to f32.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    pub(crate) outputs: Vec<(String, TensorData)>,
}

impl PipelineResult {
    /// The readback of an `f32` buffer `name`, if it was marked (`None`
    /// for unmarked buffers *and* for typed buffers — read those with
    /// [`PipelineResult::tensor`]).
    pub fn output(&self, name: &str) -> Option<&[f32]> {
        self.tensor(name).and_then(|t| t.as_f32())
    }

    /// The typed readback of buffer `name`, if it was marked.
    pub fn tensor(&self, name: &str) -> Option<&TensorData> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, data)| data)
    }

    /// Consumes the result into `(buffer, tensor)` pairs, in read order.
    pub fn into_outputs(self) -> Vec<(String, TensorData)> {
        self.outputs
    }
}
