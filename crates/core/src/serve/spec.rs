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
    /// tensors enter a kernel. Typed kernels are served as passes of a
    /// [`PipelineSpec`], whose jobs supply data of exactly this type
    /// ([`PipelineJob::source_tensor`]).
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

    /// Whether every input and the output are `f32` — the only shape the
    /// (f32-wired) [`Submission`] DAG path, and so a [`Job`], accepts.
    pub(crate) fn is_all_f32(&self) -> bool {
        self.output_scalar == ScalarType::F32
            && self.inputs.iter().all(|(_, s)| *s == ScalarType::F32)
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
            output: OutputKind::Scalar(self.output_scalar),
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

    fn check_live(&self, what: &str) -> Result<(), ComputeError> {
        if self.is_evicted() {
            return Err(bad_job(format!(
                "{what} references an evicted ResidentInput (id {})",
                self.inner.id
            )));
        }
        Ok(())
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

/// One source of a [`PipelineJob`]: fresh host data uploaded when the
/// job runs (and recycled after), or a reference to a per-worker
/// [`ResidentInput`].
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
}

impl JobInput {
    fn len(&self) -> usize {
        match self {
            JobInput::Data(d) => d.len(),
            JobInput::Tensor(t) => t.len(),
            JobInput::Resident(r) => r.len(),
        }
    }

    fn scalar(&self) -> ScalarType {
        match self {
            JobInput::Data(_) => ScalarType::F32,
            JobInput::Tensor(t) => t.scalar(),
            JobInput::Resident(r) => r.scalar(),
        }
    }

    fn check_live(&self, what: &str) -> Result<(), ComputeError> {
        match self {
            JobInput::Data(_) | JobInput::Tensor(_) => Ok(()),
            JobInput::Resident(r) => r.check_live(what),
        }
    }
}

// ---- jobs and submissions ------------------------------------------------

/// One input of a [`Submission`] step: fresh host data, the on-GPU
/// output of an earlier step in the same submission, or a per-worker
/// resident input.
#[derive(Debug, Clone)]
pub enum StepInput {
    /// Host data uploaded when the step runs. `Arc`-held so fan-out
    /// submissions can share one buffer without copying.
    Data(Arc<Vec<f32>>),
    /// The output array of step `i` (must precede this step); it stays on
    /// the GPU — no readback/re-upload between steps. Prefer wiring
    /// through a [`StepHandle`] (`handle.into()`) over raw indices.
    Step(usize),
    /// An input resident on the worker across requests.
    Resident(ResidentInput),
}

/// A typed reference to a step appended to a [`Submission`] — returned by
/// [`Submission::step`] so DAG wiring never hand-counts indices: pass it
/// to later steps via `handle.into()` ([`StepInput`]) and to
/// [`Submission::read`] / [`BatchResult::output`] directly. Handles are
/// only meaningful for the submission that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepHandle(usize);

impl StepHandle {
    /// The raw step index (escape hatch for manual wiring).
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<StepHandle> for StepInput {
    fn from(handle: StepHandle) -> StepInput {
        StepInput::Step(handle.0)
    }
}

/// A single f32 kernel dispatch: spec + positional input data + optional
/// dispatch-time uniform overrides. Result type: `Vec<f32>`. The engine
/// serves it as a one-step [`Submission`] whose step is read back; a
/// typed single kernel is a one-pass [`PipelineSpec`].
#[derive(Debug, Clone)]
pub struct Job {
    pub(crate) kernel: Arc<KernelSpec>,
    pub(crate) inputs: Vec<StepInput>,
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
        self.inputs.push(StepInput::Data(Arc::new(data)));
        self
    }

    /// Appends shared `f32` host data for the next declared input.
    pub fn data_shared(mut self, data: &Arc<Vec<f32>>) -> Job {
        self.inputs.push(StepInput::Data(Arc::clone(data)));
        self
    }

    /// Binds a per-worker [`ResidentInput`] to the next declared input —
    /// no upload happens on workers that already hold it.
    pub fn resident(mut self, input: &ResidentInput) -> Job {
        self.inputs.push(StepInput::Resident(input.clone()));
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

    /// Lowers the job into the one-step submission the worker runs.
    pub(crate) fn into_submission(self) -> Submission {
        Submission {
            steps: vec![Step {
                kernel: self.kernel,
                inputs: self.inputs,
                uniforms: self.uniforms,
            }],
            read: Vec::new(),
            deadline: self.deadline,
            retry: self.retry,
            tenant: self.tenant,
        }
    }
}

pub(crate) struct Step {
    pub(crate) kernel: Arc<KernelSpec>,
    pub(crate) inputs: Vec<StepInput>,
    pub(crate) uniforms: Vec<(String, Value)>,
}

/// A batched multi-kernel DAG: several dispatches submitted as one unit,
/// executed back-to-back on a single worker. Later steps read earlier
/// steps' outputs directly from GPU memory ([`StepInput::Step`]), so a
/// k-kernel chain costs one queue round-trip instead of k, and no
/// intermediate ever crosses the host boundary. The engine lowers it at
/// submit time onto a one-iteration [`Pipeline`] plan — one pass per
/// step, one seeded source per host-data or resident input — so wiring
/// errors (forward references, unknown or mistyped uniforms) are refused
/// at submit. The worker runs that plan with its liveness plan: each
/// unread step output is recycled once its last reader has dispatched,
/// so a long chain holds only its live intermediates and a warm worker
/// allocates no textures for it.
#[derive(Default)]
pub struct Submission {
    pub(crate) steps: Vec<Step>,
    pub(crate) read: Vec<usize>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) tenant: Option<TenantId>,
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

    /// Appends a step and returns its [`StepHandle`] — later steps wire
    /// to it with `handle.into()`, readbacks with
    /// [`Submission::read`]`(handle)`, so no index is ever hand-counted.
    pub fn step(
        &mut self,
        kernel: &Arc<KernelSpec>,
        inputs: Vec<StepInput>,
        uniforms: Vec<(String, Value)>,
    ) -> StepHandle {
        self.steps.push(Step {
            kernel: Arc::clone(kernel),
            inputs,
            uniforms,
        });
        StepHandle(self.steps.len() - 1)
    }

    /// Marks a step for readback; its result appears in the
    /// [`BatchResult`]. When no step is marked, the final step is read.
    pub fn read(&mut self, step: StepHandle) {
        if !self.read.contains(&step.0) {
            self.read.push(step.0);
        }
    }

    /// Number of steps queued so far.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the submission has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Lowers the submission onto the one-iteration [`Pipeline`] plan a
    /// worker runs: step `i` becomes a pass writing buffer `step i`, each
    /// `Data`/`Resident` input occurrence its own seeded source (uploaded
    /// once per run, as a direct caller would), each `Step(j)` input a
    /// read of `step j`, and the step's uniforms pass uniforms. The one
    /// wiring check refuses forward references and unknown or mistyped
    /// uniforms here, on the caller's thread. Returns the work and, per
    /// read buffer, the step it holds.
    pub(crate) fn lower(self) -> Result<(Work, Vec<usize>), ComputeError> {
        let n = self.steps.len();
        if n == 0 {
            return Err(bad_job("submission has no steps".into()));
        }
        let read = if self.read.is_empty() {
            vec![n - 1]
        } else {
            self.read
        };
        if let Some(r) = read.iter().find(|&&r| r >= n) {
            return Err(bad_job(format!("readback of nonexistent step {r}")));
        }
        let step_buffer = |i: usize| format!("step {i}");
        let mut plan = PipelineBuilder::named("submission".into());
        let mut sources = Vec::new();
        for (i, step) in self.steps.into_iter().enumerate() {
            let spec = &step.kernel;
            // The DAG path moves Vec<f32> end to end; typed tensor chains
            // are what PipelineSpec is for.
            if !spec.is_all_f32() {
                return Err(bad_job(format!(
                    "step {i} (`{}`) declares typed tensors; submissions are f32-only — \
                     express quantized chains as a PipelineSpec",
                    spec.name
                )));
            }
            if step.inputs.len() != spec.inputs.len() {
                return Err(bad_job(format!(
                    "step {i} (`{}`) supplies {} inputs, spec declares {}",
                    spec.name,
                    step.inputs.len(),
                    spec.inputs.len()
                )));
            }
            let output = spec.output.ok_or_else(|| {
                bad_job(format!("kernel spec `{}` declares no output", spec.name))
            })?;
            let mut pass = Pass::new(spec);
            for (k, ((input, _), source)) in spec.inputs.iter().zip(step.inputs).enumerate() {
                let seed = match source {
                    StepInput::Step(j) => {
                        pass = pass.read(input, &step_buffer(j));
                        continue;
                    }
                    StepInput::Data(data) => JobInput::Data(data),
                    StepInput::Resident(r) => {
                        r.check_live(&format!("step {i} (`{}`)", spec.name))?;
                        if r.scalar() != ScalarType::F32 {
                            return Err(bad_job(format!(
                                "step {i} (`{}`) binds a {:?} resident input; submissions \
                                 are f32-only",
                                spec.name,
                                r.scalar()
                            )));
                        }
                        JobInput::Resident(r)
                    }
                };
                let name = format!("step {i} input {k}");
                plan = plan.declared_source(&name, ScalarType::F32, SourceShape::Linear(None));
                pass = pass.read(input, &name);
                sources.push(seed);
            }
            pass.uniforms = step.uniforms;
            plan = plan.pass(pass.write(&step_buffer(i), output));
        }
        let work = Work {
            plan: Plan::Lowered(plan.checked()?),
            sources,
            reads: read.iter().map(|&r| step_buffer(r)).collect(),
            deadline: self.deadline,
            retry: self.retry,
            tenant: self.tenant,
        };
        Ok((work, read))
    }
}

/// Results of a [`Submission`]: one `Vec<f32>` per step marked for
/// readback (`None` for unread steps).
#[derive(Debug, Clone)]
pub struct BatchResult {
    pub(crate) outputs: Vec<Option<Vec<f32>>>,
}

impl BatchResult {
    /// The readback of a step, if it was marked with
    /// [`Submission::read`].
    pub fn output(&self, step: StepHandle) -> Option<&[f32]> {
        self.outputs.get(step.0).and_then(|o| o.as_deref())
    }

    /// Consumes the result into per-step optional outputs.
    pub fn into_outputs(self) -> Vec<Option<Vec<f32>>> {
        self.outputs
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
        if let Some(pass) = pipeline.passes.iter().find(|p| p.kernel.output.is_none()) {
            return Err(bad_job(format!(
                "kernel spec `{}` (pass of `{}`) declares no output",
                pass.kernel.name, pipeline.name
            )));
        }
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
/// through [`Engine::submit_pipeline`]. Each worker builds the pipeline
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
/// let result = engine.submit_pipeline(job)?.wait()?;
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

    /// The buffer names a job may mark for readback.
    fn has_buffer(&self, name: &str) -> bool {
        self.source_names().any(|s| s == name)
            || self
                .pipeline
                .passes
                .iter()
                .any(|p| p.write.as_ref().is_some_and(|(w, _)| w == name))
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

    /// Validates the job against its spec (source arity, kinds, lengths
    /// and liveness; read buffers) and hands it over as worker [`Work`].
    pub(crate) fn into_work(self) -> Result<Work, ComputeError> {
        let spec = &self.spec;
        let sources = &spec.pipeline.sources;
        if self.sources.len() != sources.len() {
            return Err(bad_job(format!(
                "pipeline job for `{}` supplies {} sources, spec declares {}",
                spec.name(),
                self.sources.len(),
                sources.len()
            )));
        }
        for (decl, input) in sources.iter().zip(&self.sources) {
            input.check_live(&format!("pipeline job for `{}`", spec.name()))?;
            if decl.kind != BufKind::Scalar(input.scalar()) {
                return Err(bad_job(format!(
                    "source `{}` of pipeline `{}` holds {:?}, supplied {:?} data",
                    decl.name,
                    spec.name(),
                    decl.kind,
                    input.scalar()
                )));
            }
            let want = match decl.shape {
                SourceShape::Linear(None) => None,
                SourceShape::Linear(Some(len)) => Some(len),
                SourceShape::Grid { rows, cols } => Some(rows as usize * cols as usize),
            };
            if let Some(want) = want {
                if input.len() != want {
                    return Err(bad_job(format!(
                        "source `{}` of pipeline `{}` wants {want} elements, job \
                         supplies {}",
                        decl.name,
                        spec.name(),
                        input.len()
                    )));
                }
            }
        }
        if self.reads.is_empty() {
            return Err(bad_job(format!(
                "pipeline job for `{}` reads no buffers; mark at least one with .read()",
                spec.name()
            )));
        }
        for buffer in &self.reads {
            if !spec.has_buffer(buffer) {
                return Err(bad_job(format!(
                    "pipeline `{}` has no buffer `{buffer}` to read",
                    spec.name()
                )));
            }
        }
        Ok(Work {
            plan: Plan::Spec(self.spec),
            sources: self.sources,
            reads: self.reads,
            deadline: self.deadline,
            retry: self.retry,
            tenant: self.tenant,
        })
    }
}

/// What a worker executes for one task: a checked plan, the data seeding
/// its declared sources (positionally), and the buffers read back. A
/// [`PipelineJob`] is one as submitted; a [`Submission`] — and so a
/// [`Job`] — is lowered into one at submit time.
pub(crate) struct Work {
    pub(crate) plan: Plan,
    pub(crate) sources: Vec<JobInput>,
    pub(crate) reads: Vec<String>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) tenant: Option<TenantId>,
}

/// Where a task's built [`Pipeline`] comes from.
pub(crate) enum Plan {
    /// A [`PipelineSpec`]: built once per worker, cached by fingerprint.
    Spec(Arc<PipelineSpec>),
    /// A lowered [`Submission`]: built on every run and never cached, so a
    /// served [`Job`] does a direct dispatch's one program-cache lookup.
    Lowered(Pipeline<Arc<KernelSpec>>),
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
