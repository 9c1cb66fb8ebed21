use super::worker::{worker_main, WorkerConfig, RESIDENTS_PER_WORKER_CAP};
use super::*;

// ---- handles -------------------------------------------------------------

/// The queued → running → finished lifecycle of a task, shared between
/// the handle (for [`JobHandle::cancel`]) and the worker (for claiming
/// the task at dequeue). Compare-and-swap transitions make cancellation
/// race-free: exactly one side wins the `Queued` state.
pub(crate) struct TaskControl {
    pub(crate) state: AtomicU8,
}

pub(crate) const TASK_QUEUED: u8 = 0;
pub(crate) const TASK_RUNNING: u8 = 1;
pub(crate) const TASK_CANCELLED: u8 = 2;
pub(crate) const TASK_FINISHED: u8 = 3;

impl TaskControl {
    fn new() -> TaskControl {
        TaskControl {
            state: AtomicU8::new(TASK_QUEUED),
        }
    }

    /// A worker (or the shedder/aborter) claims the task for fulfilment.
    /// Fails exactly when the task was already cancelled — the handle
    /// fulfilled it, the claimer must drop the payload untouched.
    pub(crate) fn claim(&self) -> bool {
        self.state
            .compare_exchange(
                TASK_QUEUED,
                TASK_RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// The handle cancels the task. Succeeds exactly when it was still
    /// queued — the winner fulfils the handle with
    /// [`ComputeError::Cancelled`].
    fn cancel(&self) -> bool {
        self.state
            .compare_exchange(
                TASK_QUEUED,
                TASK_CANCELLED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// The worker returns a claimed task to the queue for a retry: back
    /// to `Queued`, so the handle can still cancel it while it waits for
    /// its next attempt. Only the claiming worker may call this.
    pub(crate) fn requeue(&self) {
        self.state.store(TASK_QUEUED, Ordering::Release);
    }

    fn finish(&self) {
        self.state.store(TASK_FINISHED, Ordering::Release);
    }
}

/// The result slot's three-state lifecycle: distinguishing `Taken` from
/// `Pending` lets a second `wait()` return a typed error (instead of
/// hanging forever on a slot that will never refill) and lets `Drop`
/// count only genuinely unobserved errors.
pub(crate) enum Slot<T> {
    Pending,
    Ready(Result<T, ComputeError>),
    Taken,
}

pub(crate) struct HandleInner<T> {
    pub(crate) slot: Slot<T>,
    /// The handle was dropped with the slot still pending; when the
    /// worker later fulfils it with an error, that error is counted as
    /// unobserved instead of stored for nobody.
    pub(crate) abandoned: bool,
    /// Registered by a [`CompletionSet`]: on fulfilment the token is
    /// pushed to the set's ready list (outside the handle lock).
    pub(crate) watcher: Option<(Arc<SetCore>, u64)>,
}

pub(crate) struct HandleState<T> {
    pub(crate) inner: Mutex<HandleInner<T>>,
    pub(crate) cv: Condvar,
    pub(crate) control: TaskControl,
    pub(crate) metrics: Arc<EngineMetrics>,
}

pub(crate) fn taken_twice<T>() -> Result<T, ComputeError> {
    Err(ComputeError::EngineInternal {
        message: "job result already taken".into(),
    })
}

/// A typed future for a submitted job: the worker fulfils it, the caller
/// blocks on [`JobHandle::wait`], polls [`JobHandle::try_wait`], bounds
/// the wait with [`JobHandle::wait_timeout`]/[`JobHandle::wait_deadline`],
/// or multiplexes many handles through a [`CompletionSet`]. A handle for
/// still-queued work can be revoked with [`JobHandle::cancel`].
pub struct JobHandle<T> {
    state: Arc<HandleState<T>>,
}

impl<T> JobHandle<T> {
    fn new(metrics: &Arc<EngineMetrics>) -> (JobHandle<T>, Arc<HandleState<T>>) {
        let state = Arc::new(HandleState {
            inner: Mutex::new(HandleInner {
                slot: Slot::Pending,
                abandoned: false,
                watcher: None,
            }),
            cv: Condvar::new(),
            control: TaskControl::new(),
            metrics: Arc::clone(metrics),
        });
        (
            JobHandle {
                state: Arc::clone(&state),
            },
            state,
        )
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// Whatever the dispatch produced on the worker (bad bindings, GL or
    /// shader errors), or a typed serving error: queue-shed
    /// ([`ComputeError::DeadlineExceeded`]), cancellation
    /// ([`ComputeError::Cancelled`]), or engine shutdown/worker death
    /// ([`ComputeError::EngineShutdown`] /
    /// [`ComputeError::EngineInternal`]) — never a hang.
    pub fn wait(self) -> Result<T, ComputeError> {
        let mut inner = lock_recover(&self.state.inner);
        loop {
            match std::mem::replace(&mut inner.slot, Slot::Pending) {
                Slot::Ready(result) => {
                    inner.slot = Slot::Taken;
                    return result;
                }
                Slot::Taken => {
                    inner.slot = Slot::Taken;
                    return taken_twice();
                }
                Slot::Pending => {}
            }
            inner = wait_recover(&self.state.cv, inner);
        }
    }

    /// Returns the result if the job already finished, `None` if it is
    /// still pending. Never blocks. Taking the result consumes it: a
    /// later `try_wait`/`wait` yields [`ComputeError::EngineInternal`].
    pub fn try_wait(&self) -> Option<Result<T, ComputeError>> {
        let mut inner = lock_recover(&self.state.inner);
        match std::mem::replace(&mut inner.slot, Slot::Pending) {
            Slot::Ready(result) => {
                inner.slot = Slot::Taken;
                Some(result)
            }
            Slot::Taken => {
                inner.slot = Slot::Taken;
                Some(taken_twice())
            }
            Slot::Pending => None,
        }
    }

    /// Blocks at most `timeout` for the result; `None` on timeout (the
    /// job keeps running — the handle remains valid to wait again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ComputeError>> {
        self.wait_deadline(Instant::now() + timeout)
    }

    /// Blocks until `deadline` for the result; `None` if it passes first
    /// (the job keeps running — the handle remains valid to wait again).
    pub fn wait_deadline(&self, deadline: Instant) -> Option<Result<T, ComputeError>> {
        let mut inner = lock_recover(&self.state.inner);
        loop {
            match std::mem::replace(&mut inner.slot, Slot::Pending) {
                Slot::Ready(result) => {
                    inner.slot = Slot::Taken;
                    return Some(result);
                }
                Slot::Taken => {
                    inner.slot = Slot::Taken;
                    return Some(taken_twice());
                }
                Slot::Pending => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timed_out) = self
                .state
                .cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
            if timed_out.timed_out() && matches!(inner.slot, Slot::Pending) {
                return None;
            }
        }
    }

    /// Whether a result is ready (non-blocking).
    pub fn is_finished(&self) -> bool {
        !matches!(lock_recover(&self.state.inner).slot, Slot::Pending)
    }

    /// Cancels the job if it is still queued: the handle resolves to
    /// [`ComputeError::Cancelled`] and no worker will execute it (the
    /// queue entry is discarded at dequeue). Returns `true` if this call
    /// won the race; `false` if the job already started, finished, or
    /// was cancelled before.
    pub fn cancel(&self) -> bool {
        if self.state.control.cancel() {
            EngineMetrics::bump(&self.state.metrics.cancelled);
            fulfil(&self.state, Err(ComputeError::Cancelled));
            true
        } else {
            false
        }
    }
}

impl<T> Drop for JobHandle<T> {
    fn drop(&mut self) {
        let mut inner = lock_recover(&self.state.inner);
        match inner.slot {
            // Fulfilled but never observed: surface an error result in
            // the snapshot instead of discarding it silently.
            Slot::Ready(Err(_)) => {
                inner.slot = Slot::Taken;
                EngineMetrics::bump(&self.state.metrics.unobserved_errors);
            }
            Slot::Ready(Ok(_)) | Slot::Taken => {}
            // Still in flight: mark abandoned so `fulfil` counts a late
            // error instead of storing it for nobody.
            Slot::Pending => inner.abandoned = true,
        }
    }
}

/// Fulfils a handle. Marks the task finished, stores (or — for an
/// abandoned handle — accounts) the result, and wakes direct waiters and
/// any [`CompletionSet`] watcher. The watcher is notified *after* the
/// handle lock is released: the set's ready-list lock is never taken
/// while a handle lock is held, so the two lock orders cannot deadlock.
pub(crate) fn fulfil<T>(state: &HandleState<T>, result: Result<T, ComputeError>) {
    state.control.finish();
    let watcher = {
        let mut inner = lock_recover(&state.inner);
        if inner.abandoned {
            if result.is_err() {
                EngineMetrics::bump(&state.metrics.unobserved_errors);
            }
            inner.slot = Slot::Taken;
        } else {
            inner.slot = Slot::Ready(result);
        }
        inner.watcher.take()
    };
    state.cv.notify_all();
    if let Some((core, token)) = watcher {
        lock_recover(&core.ready).push(token);
        core.cv.notify_all();
    }
}

// ---- completion set ------------------------------------------------------

/// Shared notification core of a [`CompletionSet`]: fulfilled members
/// push their token here and signal the one condvar every
/// [`CompletionSet::wait_any`] caller sleeps on.
pub(crate) struct SetCore {
    pub(crate) ready: Mutex<Vec<u64>>,
    pub(crate) cv: Condvar,
}

/// Multiplexes many [`JobHandle`]s onto one condvar, so a caller can
/// drive thousands of in-flight jobs without a blocked thread per job:
/// [`CompletionSet::insert`] registers a handle, [`CompletionSet::wait_any`]
/// blocks until *any* member finishes and returns its result.
///
/// ```no_run
/// # use gpes_core::serve::{CompletionSet, Engine, Job, KernelSpec};
/// # fn demo(engine: &Engine, jobs: Vec<Job>) -> Result<(), gpes_core::ComputeError> {
/// let mut set = CompletionSet::new();
/// for job in jobs {
///     set.insert(engine.submit(job)?);
/// }
/// while let Some((_token, result)) = set.wait_any() {
///     let data = result?;
///     // ... consume `data` as each job lands, in completion order ...
/// #   let _ = data;
/// }
/// # Ok(())
/// # }
/// ```
pub struct CompletionSet<T> {
    core: Arc<SetCore>,
    pending: HashMap<u64, JobHandle<T>>,
    next_token: u64,
}

impl<T> Default for CompletionSet<T> {
    fn default() -> CompletionSet<T> {
        CompletionSet::new()
    }
}

impl<T> CompletionSet<T> {
    /// An empty set.
    pub fn new() -> CompletionSet<T> {
        CompletionSet {
            core: Arc::new(SetCore {
                ready: Mutex::new(Vec::new()),
                cv: Condvar::new(),
            }),
            pending: HashMap::new(),
            next_token: 0,
        }
    }

    /// Adds a handle to the set and returns its token (echoed back by
    /// [`CompletionSet::wait_any`] when this job finishes). A handle that
    /// already finished is immediately ready.
    pub fn insert(&mut self, handle: JobHandle<T>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        {
            let mut inner = lock_recover(&handle.state.inner);
            if matches!(inner.slot, Slot::Pending) {
                inner.watcher = Some((Arc::clone(&self.core), token));
            } else {
                lock_recover(&self.core.ready).push(token);
            }
        }
        self.pending.insert(token, handle);
        token
    }

    /// Handles still tracked (finished-but-uncollected members count
    /// until `wait_any` returns them).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no handles remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Returns a finished member's `(token, result)` without blocking,
    /// or `None` if nothing has finished (or the set is empty).
    pub fn try_next(&mut self) -> Option<(u64, Result<T, ComputeError>)> {
        let token = lock_recover(&self.core.ready).pop()?;
        Some((token, self.collect(token)))
    }

    /// Blocks until any member finishes and returns its `(token,
    /// result)`; `None` when the set is empty. Engine shutdown, shed
    /// deadlines and cancellations all fulfil their handles, so this
    /// never hangs on an abandoned job.
    pub fn wait_any(&mut self) -> Option<(u64, Result<T, ComputeError>)> {
        if self.pending.is_empty() {
            return None;
        }
        let core = Arc::clone(&self.core);
        let token = {
            let mut ready = lock_recover(&core.ready);
            loop {
                if let Some(token) = ready.pop() {
                    break token;
                }
                ready = wait_recover(&core.cv, ready);
            }
        };
        Some((token, self.collect(token)))
    }

    /// [`CompletionSet::wait_any`] bounded by `timeout`: `None` if the
    /// set is empty or nothing finished in time.
    pub fn wait_any_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<(u64, Result<T, ComputeError>)> {
        if self.pending.is_empty() {
            return None;
        }
        let deadline = Instant::now() + timeout;
        let core = Arc::clone(&self.core);
        let token = {
            let mut ready = lock_recover(&core.ready);
            loop {
                if let Some(token) = ready.pop() {
                    break token;
                }
                let now = Instant::now();
                if now >= deadline {
                    return None;
                }
                ready = core
                    .cv
                    .wait_timeout(ready, deadline - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        Some((token, self.collect(token)))
    }

    /// Takes the result out of a ready member. The ready-list lock is
    /// already released here — taking the handle's inner lock cannot
    /// deadlock against a concurrent `fulfil`.
    fn collect(&mut self, token: u64) -> Result<T, ComputeError> {
        match self.pending.remove(&token) {
            Some(handle) => match handle.try_wait() {
                Some(result) => result,
                // A token is only pushed after fulfilment, so the slot
                // must be ready; defensive rather than reachable.
                None => taken_twice(),
            },
            None => taken_twice(),
        }
    }
}

// ---- engine --------------------------------------------------------------

/// How worker contexts cache programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// One process-wide [`SharedProgramCache`] behind every worker: each
    /// distinct kernel links exactly once per process.
    #[default]
    Shared,
    /// Workers keep only their per-context caches — every worker relinks
    /// every kernel it sees. Exists for the `a10` ablation; N workers
    /// pay N× the link cost.
    PerContext,
}

/// Where a task's readbacks go: the handle of the request's
/// [`Request::Output`] type. The worker's one executor returns
/// `(buffer, tensor)` pairs; the sink converts them into the handle's
/// value and fulfils it.
pub(crate) trait Sink: Send + Sync {
    fn control(&self) -> &TaskControl;
    fn fulfil(&self, result: Result<Vec<(String, TensorData)>, ComputeError>);
}

impl<T: sealed::Output> Sink for HandleState<T> {
    fn control(&self) -> &TaskControl {
        &self.control
    }

    fn fulfil(&self, result: Result<Vec<(String, TensorData)>, ComputeError>) {
        fulfil(self, result.and_then(T::from_reads));
    }
}

/// One queued unit of work and the handle its readbacks go to.
pub(crate) struct Task {
    pub(crate) work: Work,
    pub(crate) sink: Arc<dyn Sink>,
}

impl Task {
    /// Fulfils the task's handle with `error` — used when no worker will
    /// ever execute it (shutdown, dead pool), so `wait()` cannot hang.
    /// No-op for a task its handle already cancelled.
    pub(crate) fn abort(self, error: ComputeError, metrics: &EngineMetrics) {
        if !self.sink.control().claim() {
            return;
        }
        EngineMetrics::bump(&metrics.aborted);
        self.sink.fulfil(Err(error));
    }

    /// Fulfils an already-claimed task with
    /// [`ComputeError::DeadlineExceeded`] — the worker shed it at dequeue
    /// without touching the GPU.
    pub(crate) fn shed(self, queued_ms: u64) {
        self.sink
            .fulfil(Err(ComputeError::DeadlineExceeded { queued_ms }));
    }
}

/// A task plus its admission metadata: the deadline workers check at
/// dequeue, and the enqueue timestamp feeding the queue-latency
/// histogram.
pub(crate) struct QueuedTask {
    pub(crate) payload: Task,
    pub(crate) deadline: Option<Instant>,
    pub(crate) enqueued_at: Instant,
    /// Executions already attempted (0 on first admission); carried by
    /// transient-failure requeues so [`RetryPolicy::max_attempts`]
    /// bounds the total across the job's whole life.
    pub(crate) attempt: u32,
    /// The tenant's in-flight slot, when the task is tenant-tagged.
    /// Rides the task everywhere it moves (queue, worker, requeue) and
    /// releases on drop, after the handle is fulfilled.
    pub(crate) tenant_permit: Option<TenantPermit>,
}

pub(crate) struct QueueState {
    pub(crate) tasks: VecDeque<QueuedTask>,
    pub(crate) shutdown: bool,
    /// Workers still in their serve loop. If this reaches zero while
    /// tasks remain (every worker retired after a panic), the retiring
    /// worker aborts the leftovers instead of leaving waiters hanging.
    pub(crate) live_workers: usize,
}

pub(crate) struct EngineShared {
    pub(crate) queue: Mutex<QueueState>,
    /// Workers sleep here waiting for tasks.
    pub(crate) cv: Condvar,
    /// Blocking `submit` callers sleep here waiting for a queue slot.
    pub(crate) space: Condvar,
    /// The admission bound on `queue.tasks`.
    pub(crate) capacity: usize,
    pub(crate) metrics: Arc<EngineMetrics>,
    /// The per-tenant ledger: quotas, in-flight permits, counters.
    pub(crate) tenants: Arc<TenantTable>,
}

/// Default admission bound: generous enough that a caller not thinking
/// about backpressure never sees [`ComputeError::QueueFull`], small
/// enough that a runaway producer cannot exhaust memory.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Default time a blocking `submit` waits for a queue slot before
/// giving up with [`ComputeError::QueueFull`].
pub const DEFAULT_SUBMIT_TIMEOUT: Duration = Duration::from_secs(30);

/// How workers retry *transient* failures
/// ([`ComputeError::is_transient`]): driver resource exhaustion and
/// context loss, real or injected by an [`EngineBuilder::fault_plan`].
/// Permanent errors (bad kernels, domain violations, shed/cancelled
/// outcomes) are never retried. A retried job counts toward the
/// snapshot's `retried` diagnostic but is still fulfilled exactly once,
/// so the balance identity is unchanged; its deadline keeps applying, so
/// a retry storm cannot outlive the job's latency budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum executions of one job, the first attempt included
    /// (minimum 1, so `1` disables retries).
    pub max_attempts: u32,
    /// Sleep between attempts, applied on the worker off the queue
    /// lock. Keep it zero for deterministic tests.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, no backoff. Invisible without fault injection:
    /// the simulated driver only produces transient errors from an
    /// installed [`gpes_gles2::FaultPlan`].
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure, transient or not, surfaces on the
    /// job handle immediately.
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    pub(crate) fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// Configuration for an [`Engine`]; obtained from [`Engine::builder`].
pub struct EngineBuilder {
    workers: usize,
    limits: Option<Limits>,
    dispatch: Option<Dispatch>,
    exec_mode: Option<ExecMode>,
    cache_policy: CachePolicy,
    queue_capacity: usize,
    submit_timeout: Duration,
    fault_plan: Option<FaultPlan>,
    retry: RetryPolicy,
    shared_cache_capacity: Option<usize>,
    resident_cache_capacity: usize,
    default_quotas: TenantQuotas,
}

impl EngineBuilder {
    /// Number of worker contexts/threads (default 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Driver limits for each worker context.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Per-draw rasteriser dispatch inside each worker. Defaults to the
    /// `GPES_TEST_DISPATCH` environment override when set, otherwise
    /// [`Dispatch::Serial`]: engine parallelism comes from the worker
    /// pool, and oversubscribing cores with band threads × workers slows
    /// serving down.
    pub fn dispatch(mut self, dispatch: Dispatch) -> Self {
        self.dispatch = Some(dispatch);
        self
    }

    /// Shader execution mode for every worker context. Defaults to the
    /// `GPES_EXECUTOR` environment override when set, otherwise
    /// [`ExecMode::default`] (the SPMD lane VM). The resolved choice is
    /// reported back through [`EngineSnapshot::exec_mode`].
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = Some(mode);
        self
    }

    /// Selects the [`CachePolicy`] (default [`CachePolicy::Shared`]).
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Bounds the admission queue (default
    /// [`DEFAULT_QUEUE_CAPACITY`], minimum 1). Once `capacity` tasks are
    /// queued, `try_submit` rejects with [`ComputeError::QueueFull`]
    /// immediately and blocking `submit` waits up to the
    /// [`EngineBuilder::submit_timeout`] for a slot.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// How long a blocking `submit` waits for a queue slot before
    /// giving up with [`ComputeError::QueueFull`] (default
    /// [`DEFAULT_SUBMIT_TIMEOUT`]).
    pub fn submit_timeout(mut self, timeout: Duration) -> Self {
        self.submit_timeout = timeout;
        self
    }

    /// Installs deterministic driver-fault injection: worker `i`'s
    /// context gets `plan.derive(i)` — an independent but reproducible
    /// schedule from one seed. Injected faults surface as transient
    /// errors the [`RetryPolicy`] absorbs; context losses additionally
    /// force a worker context rebuild (counted in
    /// [`EngineSnapshot::recovered_contexts`]). The plan follows a
    /// worker across rebuilds, so one-shot losses fire exactly once.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the engine-wide [`RetryPolicy`] for transient failures
    /// (default: 3 attempts, no backoff). Jobs override it per
    /// submission with [`Job::retry_policy`] /
    /// [`Submission::retry_policy`] / [`PipelineJob::retry_policy`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Bounds the engine's shared program cache (default
    /// [`crate::cache::DEFAULT_SHARED_CACHE_CAPACITY`], minimum 1).
    /// Ignored under [`CachePolicy::PerContext`].
    pub fn shared_cache_capacity(mut self, capacity: usize) -> Self {
        self.shared_cache_capacity = Some(capacity.max(1));
        self
    }

    /// Bounds each worker's resident-input cache (default 64,
    /// minimum 1): distinct [`ResidentInput`]s a worker keeps on the GPU
    /// before FIFO-evicting the oldest upload.
    pub fn resident_cache_capacity(mut self, capacity: usize) -> Self {
        self.resident_cache_capacity = capacity.max(1);
        self
    }

    /// Sets the quota every tenant starts with (default
    /// [`TenantQuotas::default`]); individual tenants are overridden
    /// later with [`KernelRegistry::set_quotas`].
    pub fn tenant_quotas(mut self, quotas: TenantQuotas) -> Self {
        self.default_quotas = quotas;
        self
    }

    /// Builds the engine: creates the worker contexts (so configuration
    /// errors surface here, on the caller's thread) and starts the pool.
    ///
    /// # Errors
    ///
    /// Context-creation failures (e.g. a screen size beyond the limits).
    pub fn build(self) -> Result<Engine, ComputeError> {
        let cache = match self.cache_policy {
            CachePolicy::Shared => Some(Arc::new(match self.shared_cache_capacity {
                Some(capacity) => SharedProgramCache::with_capacity(capacity),
                None => SharedProgramCache::new(),
            })),
            CachePolicy::PerContext => None,
        };
        let dispatch = self
            .dispatch
            .or_else(Dispatch::from_env)
            .unwrap_or(Dispatch::Serial);
        let exec_mode = self
            .exec_mode
            .or_else(ExecMode::from_env)
            .unwrap_or_default();
        let limits = self.limits.clone().unwrap_or_default();
        let config = WorkerConfig {
            limits: self.limits,
            dispatch,
            exec_mode,
            cache: cache.clone(),
            fault_plan: self.fault_plan,
            retry: self.retry,
            resident_cap: self.resident_cache_capacity,
        };
        let mut contexts = Vec::with_capacity(self.workers);
        for index in 0..self.workers {
            contexts.push(config.make_context(index)?);
        }
        let shared = Arc::new(EngineShared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
                live_workers: self.workers,
            }),
            cv: Condvar::new(),
            space: Condvar::new(),
            capacity: self.queue_capacity,
            metrics: Arc::new(EngineMetrics::default()),
            tenants: Arc::new(TenantTable::new(self.default_quotas)),
        });
        let worker_stats: Arc<Vec<Mutex<ContextStats>>> = Arc::new(
            (0..self.workers)
                .map(|_| Mutex::new(ContextStats::default()))
                .collect(),
        );
        let resident_stats: Arc<Vec<Mutex<ResidentStats>>> = Arc::new(
            (0..self.workers)
                .map(|_| Mutex::new(ResidentStats::default()))
                .collect(),
        );
        let mut handles = Vec::with_capacity(self.workers);
        for (index, cc) in contexts.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&worker_stats);
            let residents = Arc::clone(&resident_stats);
            let config = config.clone();
            handles.push(std::thread::spawn(move || {
                worker_main(cc, config, shared, stats, residents, index)
            }));
        }
        Ok(Engine {
            shared,
            workers: handles,
            cache,
            worker_stats,
            resident_stats,
            submit_timeout: self.submit_timeout,
            limits,
            exec_mode,
        })
    }
}

/// The serving engine: a queue of requests — [`Job`]s, [`Submission`]s
/// and [`PipelineJob`]s, each enqueued through one [`Engine::submit`] or
/// [`Engine::try_submit`] — drained by a pool of worker compute contexts
/// behind one shared program cache. See the [module docs](crate::serve)
/// for the architecture.
pub struct Engine {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) workers: Vec<JoinHandle<()>>,
    pub(crate) cache: Option<Arc<SharedProgramCache>>,
    pub(crate) worker_stats: Arc<Vec<Mutex<ContextStats>>>,
    pub(crate) resident_stats: Arc<Vec<Mutex<ResidentStats>>>,
    pub(crate) submit_timeout: Duration,
    /// Resolved driver limits of the worker contexts — what the
    /// registry's admission pipeline validates output shapes against.
    pub(crate) limits: Limits,
    /// Resolved shader execution mode of every worker context.
    pub(crate) exec_mode: ExecMode,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            workers: 1,
            limits: None,
            dispatch: None,
            exec_mode: None,
            cache_policy: CachePolicy::default(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            submit_timeout: DEFAULT_SUBMIT_TIMEOUT,
            fault_plan: None,
            retry: RetryPolicy::default(),
            shared_cache_capacity: None,
            resident_cache_capacity: RESIDENTS_PER_WORKER_CAP,
            default_quotas: TenantQuotas::default(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The process-wide program cache, when the policy is
    /// [`CachePolicy::Shared`].
    pub fn cache(&self) -> Option<&Arc<SharedProgramCache>> {
        self.cache.as_ref()
    }

    /// Snapshot of each worker's [`ContextStats`] (updated after every
    /// completed task).
    pub fn worker_stats(&self) -> Vec<ContextStats> {
        self.worker_stats.iter().map(|s| *lock_recover(s)).collect()
    }

    /// Snapshot of each worker's [`ResidentStats`] (updated after every
    /// completed task).
    pub fn resident_stats(&self) -> Vec<ResidentStats> {
        self.resident_stats
            .iter()
            .map(|s| *lock_recover(s))
            .collect()
    }

    /// Tasks sitting in the queue right now.
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.shared.queue).tasks.len()
    }

    /// The admission bound configured at build time.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// A point-in-time [`EngineSnapshot`]: admission/outcome counters,
    /// queue depth and high-water mark, queue- and service-latency
    /// histograms, and the merged GL-side statistics across every
    /// worker. Cheap enough to call on every reporting tick.
    pub fn snapshot(&self) -> EngineSnapshot {
        let m = &self.shared.metrics;
        let (queue_depth, live_workers) = {
            let queue = lock_recover(&self.shared.queue);
            (queue.tasks.len() as u64, queue.live_workers)
        };
        let mut context = ContextStats::default();
        for s in self.worker_stats() {
            context = context.merged(&s);
        }
        // Field-wise sum (unlike `ResidentStats::merged`, which models a
        // context swap and keeps only the live occupancy).
        let mut residents = ResidentStats::default();
        for s in self.resident_stats() {
            residents.uploads += s.uploads;
            residents.hits += s.hits;
            residents.evictions += s.evictions;
            residents.resident_textures += s.resident_textures;
        }
        EngineSnapshot {
            submitted: EngineMetrics::read(&m.submitted),
            completed: EngineMetrics::read(&m.completed),
            failed: EngineMetrics::read(&m.failed),
            rejected: EngineMetrics::read(&m.rejected),
            shed: EngineMetrics::read(&m.shed),
            cancelled: EngineMetrics::read(&m.cancelled),
            aborted: EngineMetrics::read(&m.aborted),
            unobserved_errors: EngineMetrics::read(&m.unobserved_errors),
            retried: EngineMetrics::read(&m.retried),
            recovered_contexts: EngineMetrics::read(&m.recovered_contexts),
            faults_injected: EngineMetrics::read(&m.faults_injected),
            queue_depth,
            queue_depth_high_water: EngineMetrics::read(&m.queue_depth_high_water),
            queue_capacity: self.shared.capacity,
            live_workers,
            queue_latency: *lock_recover(&m.queue_latency),
            service_latency: *lock_recover(&m.service_latency),
            context,
            residents,
            shared_cache: self.cache.as_ref().map(|c| c.stats()),
            tenants: self.shared.tenants.snapshot(),
            exec_mode: self.exec_mode.label(),
        }
    }

    /// A [`KernelRegistry`] handle bound to this engine: dynamic kernel
    /// source admitted through it is validated against these workers'
    /// driver limits and fingerprinted into this engine's shared program
    /// cache. Handles are cheap to clone and thread-safe.
    pub fn registry(&self) -> KernelRegistry {
        KernelRegistry {
            tenants: Arc::clone(&self.shared.tenants),
            cache: self.cache.clone(),
            limits: self.limits.clone(),
            // Engine workers never enable strict shader compilation on
            // their contexts; admission still runs the strict checks, but
            // the fingerprint must match what workers actually link.
            strict: false,
        }
    }

    /// Programs linked process-wide on behalf of this engine: the shared
    /// cache's link count, or (per-context policy) the sum of worker
    /// links. The number the `a10` gate holds constant as workers scale.
    pub fn programs_linked(&self) -> u64 {
        match &self.cache {
            Some(cache) => cache.stats().links,
            None => self.worker_stats().iter().map(|s| s.programs_linked).sum(),
        }
    }

    /// Enqueues a request — a [`Job`], a [`Submission`] or a
    /// [`PipelineJob`] — as one unit of work, returning a handle typed by
    /// the request: `Vec<f32>`, [`BatchResult`] or [`PipelineResult`].
    /// Blocks up to the configured [`EngineBuilder::submit_timeout`] when
    /// the queue is full, then gives up with [`ComputeError::QueueFull`];
    /// use [`Engine::try_submit`] to never block.
    ///
    /// # Errors
    ///
    /// Validation errors (wiring: input arity, forward references,
    /// unknown or mistyped uniforms, a spec without an output; sources:
    /// arity, kinds, lengths, evicted residents; unknown read buffers; a
    /// [`Job`] whose kernel packs a typed output) and admission errors
    /// ([`ComputeError::QueueFull`], [`ComputeError::EngineShutdown`],
    /// [`ComputeError::QuotaExceeded`]) surface here; execution errors —
    /// including [`ComputeError::IterationCap`] for an `until` predicate
    /// that never fires — surface on the handle.
    pub fn submit<R: Request>(&self, request: R) -> Result<JobHandle<R::Output>, ComputeError> {
        self.enqueue(request, true)
    }

    /// Non-blocking [`Engine::submit`]: a full queue rejects with
    /// [`ComputeError::QueueFull`] immediately.
    pub fn try_submit<R: Request>(&self, request: R) -> Result<JobHandle<R::Output>, ComputeError> {
        self.enqueue(request, false)
    }

    /// [`Engine::submit`] for a [`PipelineJob`]. Kept as a forward
    /// because the servebench harness calls it by name.
    pub fn submit_pipeline(
        &self,
        job: PipelineJob,
    ) -> Result<JobHandle<PipelineResult>, ComputeError> {
        self.submit(job)
    }

    /// Checks the request into `Work` (a refused request is never
    /// counted), then admits it: every admission counts toward
    /// `submitted`, and every refusal (full queue, shutdown, dead pool,
    /// tenant quota) counts toward
    /// `rejected` — so the snapshot's balance identity covers admission
    /// failures too. A blocking submit parks on the `space` condvar
    /// until a worker frees a slot or the submit timeout expires.
    fn enqueue<R: Request>(
        &self,
        request: R,
        blocking: bool,
    ) -> Result<JobHandle<R::Output>, ComputeError> {
        let work = sealed::Request::into_work(request)?;
        let (handle, state) = JobHandle::new(&self.shared.metrics);
        let task = Task { work, sink: state };
        let shared = &self.shared;
        let metrics = &shared.metrics;
        EngineMetrics::bump(&metrics.submitted);
        let tenant = task.work.tenant.clone();
        let deadline = task.work.deadline;
        let reject = |error: ComputeError| {
            EngineMetrics::bump(&metrics.rejected);
            if let Some(tenant) = &tenant {
                shared.tenants.note_rejected(tenant);
            }
            Err(error)
        };
        // Tenant admission happens before the queue lock: a tenant at its
        // in-flight quota is refused without contending with workers, and
        // the permit rides the queued task from here on.
        let tenant_permit = match &tenant {
            Some(tenant) => match shared.tenants.acquire_job(tenant) {
                Ok(permit) => Some(permit),
                Err(error) => return reject(error),
            },
            None => None,
        };
        let mut queue = lock_recover(&shared.queue);
        let mut give_up_at: Option<Instant> = None;
        loop {
            if queue.shutdown {
                return reject(ComputeError::EngineShutdown);
            }
            if queue.live_workers == 0 {
                return reject(ComputeError::EngineInternal {
                    message: "engine has no live workers".into(),
                });
            }
            if queue.tasks.len() < shared.capacity {
                queue.tasks.push_back(QueuedTask {
                    payload: task,
                    deadline,
                    enqueued_at: Instant::now(),
                    attempt: 0,
                    tenant_permit,
                });
                metrics.raise_high_water(queue.tasks.len() as u64);
                drop(queue);
                shared.cv.notify_one();
                if let Some(tenant) = &tenant {
                    shared.tenants.note_job(tenant);
                }
                return Ok(handle);
            }
            if !blocking {
                return reject(ComputeError::QueueFull {
                    capacity: shared.capacity,
                });
            }
            let at = *give_up_at.get_or_insert_with(|| Instant::now() + self.submit_timeout);
            let now = Instant::now();
            if now >= at {
                return reject(ComputeError::QueueFull {
                    capacity: shared.capacity,
                });
            }
            queue = shared
                .space
                .wait_timeout(queue, at - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Stops accepting work, aborts every still-queued task with
    /// [`ComputeError::EngineShutdown`] (their handles resolve — no
    /// `wait()` hangs) and joins every worker. In-progress tasks finish
    /// normally first. (Dropping the engine does the same.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let leftovers: Vec<QueuedTask> = {
            let mut queue = lock_recover(&self.shared.queue);
            queue.shutdown = true;
            queue.tasks.drain(..).collect()
        };
        self.shared.cv.notify_all();
        self.shared.space.notify_all();
        for task in leftovers {
            task.payload
                .abort(ComputeError::EngineShutdown, &self.shared.metrics);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
