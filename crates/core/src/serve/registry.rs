//! Multi-tenant dynamic kernel registry: GLSL **source** admission at
//! the serving boundary.
//!
//! Every kernel the engine served before this module existed was
//! compiled into the binary. The production shape of the paper's claim
//! — fragment shaders as a general-purpose compute substrate — is a
//! service that accepts kernel source from *untrusted tenants at
//! runtime*, the way a mobile inference runtime generates and compiles
//! shader source behind a program cache. The [`KernelRegistry`] is that
//! boundary:
//!
//! ```text
//!   tenant source (KernelSpec body + helpers)
//!        │
//!        ▼
//!   signature stage   names, arity, output shape vs driver limits
//!        │                      └─ AdmissionRejected{stage: Signature}
//!        ▼
//!   admission table   exact generated source already admitted and
//!        │            still alive? → reuse its checked shader, skip
//!        │            parse/strict/sema (rejections are never stored)
//!        ▼
//!   parse stage       preprocess + parse the generated fragment shader
//!        │                      └─ AdmissionRejected{stage: Parse}
//!        ▼
//!   strict stage      GLSL ES Appendix-A minimum guarantees
//!        │                      └─ AdmissionRejected{stage: Strict}
//!        ▼
//!   sema stage        full semantic analysis
//!        │                      └─ AdmissionRejected{stage: Sema}
//!        ▼
//!   quota check       per-tenant registered-kernel budget
//!        │                      └─ QuotaExceeded / FIFO eviction
//!        ▼
//!   RegisteredKernel  fingerprint = source + limits + strictness
//! ```
//!
//! The validated source is **byte-identical** to what a worker later
//! compiles (admission and the worker share one generator), so admission
//! success means the job cannot fail shader compilation at serve time,
//! and the fingerprint is exactly the [`SharedProgramCache`] key — a
//! registered kernel links at most once per process no matter how many
//! tenants or workers touch it. With a shared cache the front end runs
//! once per live source, not once per registration: admission goes
//! through [`SharedProgramCache::admit`], the registration holds the
//! checked shader until it is retired or evicted, and the worker's link
//! uses that shader instead of parsing the source again.
//!
//! Tenancy is enforced in three places:
//!
//! * **admission** — [`KernelRegistry::register`] refuses invalid source
//!   with [`ComputeError::AdmissionRejected`] (stage-tagged, never a
//!   panic) and applies the registered-kernel budget;
//! * **submit** — jobs tagged with a [`TenantId`] (see
//!   [`RegisteredKernel::job`]) take an in-flight permit against
//!   [`TenantQuotas::max_in_flight`]; beyond it the engine rejects with
//!   [`ComputeError::QuotaExceeded`] *before* the task enters the queue,
//!   so one flooding tenant exhausts its own budget, not the pool;
//! * **eviction** — retiring or displacing a tenant's kernel removes
//!   exactly that tenant's entry from the shared program cache, and a
//!   tenant over its resident-byte budget has its *own* oldest resident
//!   evicted ([`ResidentInput::evict`]; workers reclaim the texture at
//!   their next task boundary). Neighbours are never evicted on a noisy
//!   tenant's behalf.
//!
//! Per-tenant counters (admitted / rejected / evicted / jobs /
//! in-flight) surface through [`EngineSnapshot::tenants`]; the global
//! balance identity is untouched because tenant rejections count into
//! the engine's `submitted`/`rejected` like any other admission refusal.

use super::*;
use crate::cache::program_key;
use crate::error::{AdmissionStage, QuotaResource};
use crate::kernel::{generate_fragment_source, is_valid_name, InputEncoding, OutputKind};
use crate::{FloatSpecials, PackBias};
use gpes_glsl::admission as glsl_admission;
use gpes_glsl::{CompiledShader, ShaderKind};

/// Largest kernel source a tenant may submit: the body plus the helper
/// functions, in bytes. Refused at the signature stage, before the source
/// is generated or parsed, so admission work and memory stay bounded per
/// request. Nesting depth is bounded separately by the parser
/// ([`gpes_glsl::parser::MAX_NESTING`]).
pub const MAX_KERNEL_SOURCE_BYTES: usize = 16 * 1024;

/// An opaque tenant identity. Cheap to clone (`Arc`-backed); equal ids
/// share quotas and counters.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Wraps a tenant name.
    pub fn new(name: impl AsRef<str>) -> TenantId {
        TenantId(Arc::from(name.as_ref()))
    }

    /// The tenant name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> TenantId {
        TenantId::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> TenantId {
        TenantId::new(name)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::fmt::Debug for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TenantId({})", self.0)
    }
}

/// Per-tenant resource budgets. The defaults are deliberately generous —
/// a tenant that never thinks about quotas should never see
/// [`ComputeError::QuotaExceeded`] — while still bounding what any
/// single tenant can pin: linked programs, resident texture bytes, and
/// queue slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Registered kernels the tenant may hold at once. Registering past
    /// the budget FIFO-evicts the tenant's *oldest* kernel (its program
    /// leaves the shared cache; the eviction is counted). `0` bans
    /// registration outright with a typed
    /// [`ComputeError::QuotaExceeded`].
    pub max_kernels: usize,
    /// Total bytes of [`ResidentInput`] data the tenant may keep
    /// resident through [`KernelRegistry::register_resident`]. Going
    /// past the budget FIFO-evicts the tenant's oldest residents; a
    /// single resident larger than the whole budget is refused with
    /// [`ComputeError::QuotaExceeded`].
    pub max_resident_bytes: usize,
    /// Jobs the tenant may have queued or running at once.
    /// [`Engine::submit`] and [`Engine::try_submit`] reject tenant-tagged
    /// work past this with [`ComputeError::QuotaExceeded`] before it
    /// enters the queue.
    pub max_in_flight: usize,
}

impl Default for TenantQuotas {
    fn default() -> TenantQuotas {
        TenantQuotas {
            max_kernels: 32,
            max_resident_bytes: 16 << 20,
            max_in_flight: 256,
        }
    }
}

impl TenantQuotas {
    /// Sets the registered-kernel budget.
    #[must_use]
    pub fn max_kernels(mut self, n: usize) -> Self {
        self.max_kernels = n;
        self
    }

    /// Sets the resident-byte budget.
    #[must_use]
    pub fn max_resident_bytes(mut self, bytes: usize) -> Self {
        self.max_resident_bytes = bytes;
        self
    }

    /// Sets the in-flight job budget.
    #[must_use]
    pub fn max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n;
        self
    }
}

/// A tenant's point-in-time accounting, exported through
/// [`EngineSnapshot::tenants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    /// The tenant's name.
    pub tenant: String,
    /// Kernel sources that passed the full admission pipeline.
    pub admitted: u64,
    /// Typed refusals charged to this tenant: admission failures, quota
    /// rejections, and engine admission refusals of its tagged jobs.
    pub rejected: u64,
    /// Tenant-scoped cache evictions: displaced registered kernels
    /// (program cache) and displaced residents (resident-byte budget).
    pub evicted: u64,
    /// Tenant-tagged jobs accepted into the engine queue.
    pub jobs: u64,
    /// Tenant-tagged jobs currently queued or running.
    pub in_flight: u64,
}

struct KernelEntry {
    fingerprint: u64,
    /// The full shared-program-cache key, kept so retiring or displacing
    /// this registration can remove exactly its program.
    key: Arc<str>,
    /// The admitted fragment shader, held (never read) until retire or
    /// eviction so the admission table keeps it for the worker's link.
    _shader: Arc<CompiledShader>,
}

#[derive(Default)]
struct TenantState {
    quotas: Option<TenantQuotas>,
    kernels: VecDeque<KernelEntry>,
    residents: VecDeque<(ResidentInput, usize)>,
    resident_bytes: usize,
    in_flight: u64,
    admitted: u64,
    rejected: u64,
    evicted: u64,
    jobs: u64,
}

/// The engine-wide tenant ledger: quotas, registered-kernel FIFOs,
/// resident-byte accounting and counters, all under one short-lived
/// lock. Shared by the [`Engine`] (submit-time checks, snapshot) and
/// every [`KernelRegistry`] handle.
pub(crate) struct TenantTable {
    default_quotas: TenantQuotas,
    inner: Mutex<HashMap<TenantId, TenantState>>,
}

impl TenantTable {
    pub(crate) fn new(default_quotas: TenantQuotas) -> TenantTable {
        TenantTable {
            default_quotas,
            inner: Mutex::new(HashMap::new()),
        }
    }

    fn with_state<R>(
        &self,
        tenant: &TenantId,
        f: impl FnOnce(TenantQuotas, &mut TenantState) -> R,
    ) -> R {
        let mut inner = lock_recover(&self.inner);
        let state = inner.entry(tenant.clone()).or_default();
        let quotas = state.quotas.unwrap_or(self.default_quotas);
        f(quotas, state)
    }

    /// Overrides one tenant's quotas (others keep the engine default).
    pub(crate) fn set_quotas(&self, tenant: &TenantId, quotas: TenantQuotas) {
        self.with_state(tenant, |_, state| state.quotas = Some(quotas));
    }

    /// Charges a typed refusal to the tenant.
    pub(crate) fn note_rejected(&self, tenant: &TenantId) {
        self.with_state(tenant, |_, state| state.rejected += 1);
    }

    /// Counts a tenant-tagged job accepted into the queue.
    pub(crate) fn note_job(&self, tenant: &TenantId) {
        self.with_state(tenant, |_, state| state.jobs += 1);
    }

    /// Takes an in-flight slot for one tenant-tagged job, refusing past
    /// [`TenantQuotas::max_in_flight`]. The permit releases the slot on
    /// drop, whatever the job's outcome (completed, failed, shed,
    /// cancelled, aborted or requeued-then-resolved).
    pub(crate) fn acquire_job(
        self: &Arc<Self>,
        tenant: &TenantId,
    ) -> Result<TenantPermit, ComputeError> {
        self.with_state(tenant, |quotas, state| {
            if state.in_flight >= quotas.max_in_flight as u64 {
                return Err(ComputeError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    resource: QuotaResource::InFlightJobs,
                });
            }
            state.in_flight += 1;
            Ok(())
        })?;
        Ok(TenantPermit {
            table: Arc::clone(self),
            tenant: tenant.clone(),
        })
    }

    fn release_job(&self, tenant: &TenantId) {
        self.with_state(tenant, |_, state| {
            state.in_flight = state.in_flight.saturating_sub(1);
        });
    }

    /// Records an admitted kernel, FIFO-evicting the tenant's oldest
    /// past [`TenantQuotas::max_kernels`] (removing its program from the
    /// shared cache). A zero budget refuses outright.
    fn admit_kernel(
        &self,
        tenant: &TenantId,
        entry: KernelEntry,
        cache: Option<&SharedProgramCache>,
    ) -> Result<(), ComputeError> {
        self.with_state(tenant, |quotas, state| {
            if quotas.max_kernels == 0 {
                state.rejected += 1;
                return Err(ComputeError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    resource: QuotaResource::RegisteredKernels,
                });
            }
            while state.kernels.len() >= quotas.max_kernels {
                let oldest = state.kernels.pop_front().expect("len checked above");
                if let Some(cache) = cache {
                    cache.remove_key(&oldest.key);
                }
                state.evicted += 1;
            }
            state.kernels.push_back(entry);
            state.admitted += 1;
            Ok(())
        })
    }

    /// Forgets a registration and removes its program from the shared
    /// cache. Returns whether the fingerprint was registered.
    fn retire_kernel(
        &self,
        tenant: &TenantId,
        fingerprint: u64,
        cache: Option<&SharedProgramCache>,
    ) -> bool {
        self.with_state(tenant, |_, state| {
            let before = state.kernels.len();
            state.kernels.retain(|entry| {
                if entry.fingerprint == fingerprint {
                    if let Some(cache) = cache {
                        cache.remove_key(&entry.key);
                    }
                    false
                } else {
                    true
                }
            });
            let removed = (before - state.kernels.len()) as u64;
            state.evicted += removed;
            removed > 0
        })
    }

    /// Accounts resident data against the tenant's byte budget,
    /// FIFO-evicting the tenant's own oldest residents to make room. A
    /// single resident larger than the whole budget is refused.
    fn admit_resident(
        &self,
        tenant: &TenantId,
        resident: &ResidentInput,
        bytes: usize,
    ) -> Result<(), ComputeError> {
        self.with_state(tenant, |quotas, state| {
            if bytes > quotas.max_resident_bytes {
                state.rejected += 1;
                return Err(ComputeError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    resource: QuotaResource::ResidentBytes,
                });
            }
            while state.resident_bytes + bytes > quotas.max_resident_bytes {
                let (oldest, oldest_bytes) = state
                    .residents
                    .pop_front()
                    .expect("resident_bytes implies entries");
                oldest.evict();
                state.resident_bytes -= oldest_bytes;
                state.evicted += 1;
            }
            state.residents.push_back((resident.clone(), bytes));
            state.resident_bytes += bytes;
            Ok(())
        })
    }

    /// Point-in-time counters for every tenant, sorted by name.
    pub(crate) fn snapshot(&self) -> Vec<TenantCounters> {
        let inner = lock_recover(&self.inner);
        let mut rows: Vec<TenantCounters> = inner
            .iter()
            .map(|(tenant, state)| TenantCounters {
                tenant: tenant.to_string(),
                admitted: state.admitted,
                rejected: state.rejected,
                evicted: state.evicted,
                jobs: state.jobs,
                in_flight: state.in_flight,
            })
            .collect();
        rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        rows
    }
}

/// An RAII in-flight slot: rides the queued task and returns the slot to
/// the tenant on drop, so every outcome path — completion, failure,
/// deadline shed, cancellation drain, shutdown abort — releases exactly
/// once, and a transient-failure requeue (which moves the task rather
/// than re-admitting it) never double-counts.
pub(crate) struct TenantPermit {
    table: Arc<TenantTable>,
    tenant: TenantId,
}

impl Drop for TenantPermit {
    fn drop(&mut self) {
        self.table.release_job(&self.tenant);
    }
}

/// A successfully admitted dynamic kernel: the validated [`KernelSpec`]
/// plus its process-wide fingerprint (a hash of the shared-program-cache
/// key: generated source + driver limits + strictness). Submit jobs
/// against it exactly like a compiled-in spec — [`RegisteredKernel::job`]
/// tags them with the owning tenant so quotas apply.
#[derive(Clone)]
pub struct RegisteredKernel {
    tenant: TenantId,
    spec: Arc<KernelSpec>,
    fingerprint: u64,
}

impl RegisteredKernel {
    /// The owning tenant.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// The validated spec — usable with [`Job::new`] (untagged) or a
    /// direct in-context build for differential runs.
    pub fn spec(&self) -> &Arc<KernelSpec> {
        &self.spec
    }

    /// The registration fingerprint. Equal fingerprints denote the same
    /// generated source under the same limits and strictness, and share
    /// one linked program.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Starts a [`Job`] against this kernel, tagged with the owning
    /// tenant so [`TenantQuotas::max_in_flight`] applies at submit.
    pub fn job(&self) -> Job {
        Job::new(&self.spec).tenant(self.tenant.clone())
    }
}

impl std::fmt::Debug for RegisteredKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredKernel")
            .field("tenant", &self.tenant)
            .field("kernel", &self.spec.name())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

/// The serving boundary for kernel **source**: validates, fingerprints
/// and quota-accounts tenant-submitted [`KernelSpec`]s. Obtained from
/// [`Engine::registry`]; handles are cheap to clone and share the
/// engine's tenant ledger and program cache.
///
/// ```
/// use gpes_core::serve::{Engine, KernelSpec};
///
/// # fn main() -> Result<(), gpes_core::ComputeError> {
/// let engine = Engine::builder().workers(1).build()?;
/// let registry = engine.registry();
/// let scale = registry.register(
///     "tenant-a",
///     KernelSpec::new("scale")
///         .input("x")
///         .uniform_f32("k", 3.0)
///         .output(4)
///         .body("return k * fetch_x(idx);"),
/// )?;
/// let handle = engine.submit(scale.job().data(vec![1.0, 2.0, 3.0, 4.0]))?;
/// assert_eq!(handle.wait()?, vec![3.0, 6.0, 9.0, 12.0]);
/// # engine.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct KernelRegistry {
    pub(crate) tenants: Arc<TenantTable>,
    pub(crate) cache: Option<Arc<SharedProgramCache>>,
    pub(crate) limits: Limits,
    /// Whether worker contexts link under strict (Appendix-A) drivers —
    /// part of the fingerprint. Admission *always* applies the strict
    /// checks regardless: source a low-end driver would reject is
    /// refused even when the serving simulator is permissive.
    pub(crate) strict: bool,
}

impl KernelRegistry {
    /// Overrides `tenant`'s quotas (tenants otherwise use the engine-wide
    /// default, [`EngineBuilder::tenant_quotas`]).
    pub fn set_quotas(&self, tenant: impl Into<TenantId>, quotas: TenantQuotas) {
        self.tenants.set_quotas(&tenant.into(), quotas);
    }

    /// Point-in-time per-tenant counters (also surfaced in
    /// [`EngineSnapshot::tenants`]).
    pub fn tenant_counters(&self) -> Vec<TenantCounters> {
        self.tenants.snapshot()
    }

    /// Admits tenant-submitted kernel source through the full pipeline —
    /// signature → parse → strict → sema → quota — and registers the
    /// fingerprinted result.
    ///
    /// # Errors
    ///
    /// [`ComputeError::AdmissionRejected`] (stage-tagged) for source that
    /// fails validation; [`ComputeError::QuotaExceeded`] for a tenant
    /// with a zero kernel budget. Rejections are charged to the tenant's
    /// counters and never panic, whatever bytes the source contains.
    pub fn register(
        &self,
        tenant: impl Into<TenantId>,
        spec: KernelSpec,
    ) -> Result<RegisteredKernel, ComputeError> {
        let tenant = tenant.into();
        let (source, shader) = match self.admission_source(&spec) {
            Ok(admitted) => admitted,
            Err(error) => {
                self.tenants.note_rejected(&tenant);
                return Err(error);
            }
        };
        let vs = crate::geometry::passthrough_vertex_shader();
        let key: Arc<str> = Arc::from(program_key(&vs, &source, &self.limits, self.strict));
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let fingerprint = hasher.finish();
        let entry = KernelEntry {
            fingerprint,
            key,
            _shader: shader,
        };
        self.tenants
            .admit_kernel(&tenant, entry, self.cache.as_deref())?;
        Ok(RegisteredKernel {
            tenant,
            spec: Arc::new(spec),
            fingerprint,
        })
    }

    /// Runs the admission pipeline without registering — a dry run for
    /// callers that want to validate before accounting.
    ///
    /// # Errors
    ///
    /// [`ComputeError::AdmissionRejected`] exactly as
    /// [`KernelRegistry::register`]; no tenant counters move.
    pub fn check(&self, spec: &KernelSpec) -> Result<(), ComputeError> {
        self.admission_source(spec).map(drop)
    }

    /// Signature-validates `spec`, generates the exact fragment source a
    /// worker will compile, and runs the GLSL admission pipeline on it —
    /// through the shared cache's admission table when there is one.
    fn admission_source(
        &self,
        spec: &KernelSpec,
    ) -> Result<(String, Arc<CompiledShader>), ComputeError> {
        let reject = |stage: AdmissionStage, message: String| ComputeError::AdmissionRejected {
            stage,
            message,
        };
        let shape = spec.output.ok_or_else(|| {
            reject(
                AdmissionStage::Signature,
                format!("kernel `{}` declares no output", spec.name),
            )
        })?;
        if spec.body.trim().is_empty() {
            return Err(reject(
                AdmissionStage::Signature,
                format!("kernel `{}` has an empty body", spec.name),
            ));
        }
        let source_bytes = spec.body.len() + spec.functions.len();
        if source_bytes > MAX_KERNEL_SOURCE_BYTES {
            return Err(reject(
                AdmissionStage::Signature,
                format!(
                    "kernel `{}` source is {source_bytes} bytes, over the \
                     {MAX_KERNEL_SOURCE_BYTES}-byte limit",
                    spec.name
                ),
            ));
        }
        for (i, (name, _)) in spec.inputs.iter().enumerate() {
            if !is_valid_name(name) {
                return Err(reject(
                    AdmissionStage::Signature,
                    format!("input name `{name}` is not a valid GLSL identifier"),
                ));
            }
            if spec.inputs[..i].iter().any(|(other, _)| other == name) {
                return Err(reject(
                    AdmissionStage::Signature,
                    format!("duplicate input name `{name}`"),
                ));
            }
        }
        for (i, (name, _)) in spec.uniforms.iter().enumerate() {
            if !is_valid_name(name) {
                return Err(reject(
                    AdmissionStage::Signature,
                    format!("uniform name `{name}` is not a valid GLSL identifier"),
                ));
            }
            if spec.uniforms[..i].iter().any(|(other, _)| other == name) {
                return Err(reject(
                    AdmissionStage::Signature,
                    format!("duplicate uniform name `{name}`"),
                ));
            }
        }
        // Oversized outputs are a signature-stage refusal: the shape can
        // never resolve under the engine's driver limits.
        shape
            .resolve(self.limits.max_texture_size)
            .map_err(|e| reject(AdmissionStage::Signature, e.to_string()))?;
        let inputs: Vec<(&str, InputEncoding)> = spec
            .inputs
            .iter()
            .map(|(name, scalar)| (name.as_str(), InputEncoding::Scalar(*scalar)))
            .collect();
        let source = generate_fragment_source(
            PackBias::default(),
            FloatSpecials::default(),
            &inputs,
            &spec.uniforms,
            &spec.functions,
            OutputKind::Scalar(spec.output_scalar),
            &spec.body,
        );
        let admitted = match &self.cache {
            Some(cache) => cache.admit(&source),
            None => glsl_admission::admit(ShaderKind::Fragment, &source).map(Arc::new),
        };
        let shader = admitted.map_err(|diag| {
            let stage = match diag.stage {
                glsl_admission::AdmissionStage::Parse => AdmissionStage::Parse,
                glsl_admission::AdmissionStage::Strict => AdmissionStage::Strict,
                glsl_admission::AdmissionStage::Sema => AdmissionStage::Sema,
            };
            reject(stage, diag.to_string())
        })?;
        Ok((source, shader))
    }

    /// Retires a registration: forgets it and removes its program from
    /// the shared cache, which stops advertising it. Workers that already
    /// adopted the program keep it in their own program cache until that
    /// cache's cap ([`crate::PROGRAM_CACHE_CAP`]) evicts it, so a kernel
    /// registered again soon after is served without relinking, and —
    /// since such a program holds the admitted shader — admitted again
    /// without re-running the front end. Returns whether the fingerprint
    /// was still registered.
    pub fn retire(&self, kernel: &RegisteredKernel) -> bool {
        self.tenants
            .retire_kernel(&kernel.tenant, kernel.fingerprint, self.cache.as_deref())
    }

    /// Promotes tenant data to per-worker GPU residency under the
    /// tenant's byte budget, FIFO-evicting the tenant's own oldest
    /// residents to make room.
    ///
    /// # Errors
    ///
    /// [`ComputeError::QuotaExceeded`] when `data` alone exceeds
    /// [`TenantQuotas::max_resident_bytes`].
    pub fn register_resident(
        &self,
        tenant: impl Into<TenantId>,
        data: Vec<f32>,
    ) -> Result<ResidentInput, ComputeError> {
        self.register_resident_tensor(tenant, data)
    }

    /// [`KernelRegistry::register_resident`] for typed tensors: the byte
    /// budget meters the tensor's own element size, so quantized u8
    /// weights cost a quarter of their f32 equivalent.
    ///
    /// # Errors
    ///
    /// [`ComputeError::QuotaExceeded`] when `data` alone exceeds
    /// [`TenantQuotas::max_resident_bytes`].
    pub fn register_resident_tensor(
        &self,
        tenant: impl Into<TenantId>,
        data: impl Into<TensorData>,
    ) -> Result<ResidentInput, ComputeError> {
        let tenant = tenant.into();
        let data = data.into();
        let bytes = data.byte_len();
        let resident = ResidentInput::new_tensor(data);
        self.tenants.admit_resident(&tenant, &resident, bytes)?;
        Ok(resident)
    }
}
