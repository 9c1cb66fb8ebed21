use super::*;

// ---- worker --------------------------------------------------------------

/// Everything needed to (re)create one worker's context — kept so a
/// worker can replace its context after a panicking job rather than keep
/// serving from state a panic may have left half-updated.
#[derive(Clone)]
pub(crate) struct WorkerConfig {
    pub(crate) limits: Option<Limits>,
    pub(crate) dispatch: Dispatch,
    pub(crate) exec_mode: ExecMode,
    pub(crate) cache: Option<Arc<SharedProgramCache>>,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) retry: RetryPolicy,
    /// Per-worker resident-input cache bound
    /// ([`EngineBuilder::resident_cache_capacity`]).
    pub(crate) resident_cap: usize,
}

impl WorkerConfig {
    /// Creates (or re-creates) worker `worker`'s context. An engine-level
    /// fault plan is derived per worker index, so each context gets an
    /// independent-but-reproducible schedule; a context rebuilt after a
    /// loss has this fresh derivation overwritten with the old context's
    /// carried plan, so consumed one-shots stay consumed.
    pub(crate) fn make_context(&self, worker: usize) -> Result<ComputeContext, ComputeError> {
        let mut cc = match &self.limits {
            Some(limits) => ComputeContext::with_limits(SCREEN, SCREEN, limits.clone())?,
            None => ComputeContext::new(SCREEN, SCREEN)?,
        };
        cc.set_dispatch(self.dispatch);
        cc.set_exec_mode(self.exec_mode);
        if let Some(cache) = &self.cache {
            cc.set_shared_program_cache(Arc::clone(cache));
        }
        if let Some(plan) = &self.fault_plan {
            cc.install_fault_plan(plan.derive(worker as u64));
        }
        Ok(cc)
    }
}

/// Runs `f` with the worker context, converting a panic into an error so
/// the caller's [`JobHandle::wait`] never deadlocks. Returns whether the
/// task panicked (⇒ the context must be replaced: a panic can unwind out
/// of the middle of a draw, leaving context state half-updated).
pub(crate) fn run_shielded<T>(
    cc: &mut ComputeContext,
    f: impl FnOnce(&mut ComputeContext) -> Result<T, ComputeError>,
) -> (Result<T, ComputeError>, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(cc))) {
        Ok(result) => (result, false),
        Err(_) => (
            Err(ComputeError::EngineInternal {
                message: "engine worker panicked while serving this job".into(),
            }),
            true,
        ),
    }
}

/// Marks this worker as out of the serve loop. If it was the last one
/// and tasks remain (every worker retired after a panic), the leftovers
/// are aborted so their `wait()` calls return instead of hanging; any
/// producer blocked on admission is woken to observe the dead pool.
pub(crate) fn retire_worker(shared: &EngineShared) {
    let leftovers: Vec<QueuedTask> = {
        let mut queue = lock_recover(&shared.queue);
        queue.live_workers = queue.live_workers.saturating_sub(1);
        if queue.live_workers == 0 {
            queue.tasks.drain(..).collect()
        } else {
            Vec::new()
        }
    };
    shared.space.notify_all();
    for task in leftovers {
        task.payload.abort(
            ComputeError::EngineInternal {
                message: "engine has no live workers".into(),
            },
            &shared.metrics,
        );
    }
}

/// The side of each worker context's square screen, which bounds the
/// largest job output.
pub(crate) const SCREEN: u32 = 256;

/// Built pipelines a worker caches across requests, keyed by
/// [`PipelineSpec::fingerprint`]; beyond the cap the oldest entry is
/// dropped (it owns no textures; the programs stay in the
/// context/shared caches, so rebuilding links nothing).
pub(crate) const PIPELINES_PER_WORKER_CAP: usize = 32;

/// Resident-input textures a worker holds; beyond the cap the oldest is
/// recycled and counted as an eviction (the next use re-uploads).
pub(crate) const RESIDENTS_PER_WORKER_CAP: usize = 64;

/// Everything a worker retains across requests *on top of* its context:
/// built pipelines and resident-input textures. Tied to the context's
/// lifetime — a panic-replaced context gets a fresh (empty) state, since
/// cached kernels and textures belong to the dead context.
pub(crate) struct WorkerState {
    pub(crate) pipelines: FifoCache<u64, ServedPipeline>,
    /// `(resident id, texture width, texture height)` → handle + uploaded
    /// array; the dims keep one residency usable under several declared
    /// shapes, and the handle lets the post-task sweep notice evictions.
    pub(crate) residents: FifoCache<(u64, u32, u32), (ResidentInput, AnyGpuArray)>,
    pub(crate) resident_stats: ResidentStats,
}

impl WorkerState {
    /// A fresh state: at most [`PIPELINES_PER_WORKER_CAP`] pipelines and
    /// `resident_cap` resident inputs
    /// ([`EngineBuilder::resident_cache_capacity`]).
    pub(crate) fn new(resident_cap: usize) -> WorkerState {
        WorkerState {
            pipelines: FifoCache::new(PIPELINES_PER_WORKER_CAP),
            residents: FifoCache::new(resident_cap),
            resident_stats: ResidentStats::default(),
        }
    }

    /// Returns the cached pipeline for `spec`, building (and caching) it
    /// on first sight.
    fn pipeline_for(
        &mut self,
        cc: &mut ComputeContext,
        spec: &PipelineSpec,
    ) -> Result<&ServedPipeline, ComputeError> {
        let key = spec.fingerprint();
        if !self.pipelines.contains(&key) {
            let served = spec.build(cc)?;
            self.pipelines.insert(key, served);
        }
        Ok(self.pipelines.get(&key).expect("just ensured present"))
    }

    /// Resolves a resident input to its per-worker texture under the
    /// requested shape, uploading on first use and evicting oldest-first
    /// past the cap. An evicted handle drops its entries and fails.
    fn resident_array(
        &mut self,
        cc: &mut ComputeContext,
        input: &ResidentInput,
        shape: SourceShape,
    ) -> Result<AnyGpuArray, ComputeError> {
        let id = input.inner.id;
        if input.is_evicted() {
            self.sweep_evicted(cc);
            return Err(bad_job(format!(
                "job references an evicted ResidentInput (id {id})"
            )));
        }
        let layout = match shape {
            SourceShape::Linear(_) => {
                crate::addressing::ArrayLayout::for_len(input.len(), cc.max_texture_side())?
            }
            SourceShape::Grid { rows, cols } => {
                crate::addressing::ArrayLayout::grid(rows, cols, cc.max_texture_side())?
            }
        };
        let key = (id, layout.width, layout.height);
        if let Some((_, array)) = self.residents.get(&key) {
            self.resident_stats.hits += 1;
            return Ok(*array);
        }
        let array = match shape {
            SourceShape::Linear(_) => cc.upload_any(&input.inner.data)?,
            SourceShape::Grid { rows, cols } => {
                cc.upload_any_matrix(rows, cols, &input.inner.data)?
            }
        };
        self.resident_stats.uploads += 1;
        for (_, (_, evicted)) in self.residents.insert(key, (input.clone(), array)) {
            cc.recycle_any(evicted);
            self.resident_stats.evictions += 1;
        }
        self.resident_stats.resident_textures = self.residents.len() as u64;
        Ok(array)
    }

    /// Recycles every residency whose handle has been evicted. Runs after
    /// each task, so `ResidentInput::evict` reclaims a worker's texture at
    /// its next task boundary — not only if the dead handle is referenced
    /// again.
    fn sweep_evicted(&mut self, cc: &mut ComputeContext) {
        let dead = self
            .residents
            .extract_if(|_, (handle, _)| handle.is_evicted());
        for (_, (_, array)) in dead {
            cc.recycle_any(array);
            self.resident_stats.evictions += 1;
        }
        self.resident_stats.resident_textures = self.residents.len() as u64;
    }
}

/// Publishes the worker's injected-fault watermark delta to the shared
/// metrics; returns the new watermark. Never subtracts, so a stale
/// reading (after a failed rebuild dropped the plan) is a no-op.
pub(crate) fn publish_faults(metrics: &EngineMetrics, published: u64, now: u64) -> u64 {
    if now > published {
        EngineMetrics::add(&metrics.faults_injected, now - published);
        now
    } else {
        published
    }
}

/// Returns a claimed task to the queue for another attempt. The control
/// goes back to `Queued` (so the handle can still cancel the retry) and
/// the admission timestamp restarts — but `submitted` is NOT re-bumped:
/// a retry is the same admitted job, so the snapshot balance identity
/// counts it exactly once. Hands the task back (`Some`, still claimed)
/// when the queue cannot take it: shutdown, dead pool, or full.
pub(crate) fn requeue_transient(shared: &EngineShared, queued: QueuedTask) -> Option<QueuedTask> {
    let mut queue = lock_recover(&shared.queue);
    if queue.shutdown || queue.live_workers == 0 || queue.tasks.len() >= shared.capacity {
        return Some(queued);
    }
    queued.payload.sink.control().requeue();
    queue.tasks.push_back(QueuedTask {
        enqueued_at: Instant::now(),
        ..queued
    });
    shared.metrics.raise_high_water(queue.tasks.len() as u64);
    drop(queue);
    shared.cv.notify_one();
    None
}

pub(crate) fn worker_main(
    mut cc: ComputeContext,
    config: WorkerConfig,
    shared: Arc<EngineShared>,
    stats: Arc<Vec<Mutex<ContextStats>>>,
    resident_stats: Arc<Vec<Mutex<ResidentStats>>>,
    index: usize,
) {
    // Counters accumulated by contexts this worker already retired (after
    // a panicking job or a context loss); published stats are always
    // `base + current`, so a context swap never zeroes the worker's
    // visible accounting.
    let mut base = ContextStats::default();
    let mut resident_base = ResidentStats::default();
    let mut state = WorkerState::new(config.resident_cap);
    // Injected-fault watermark already published to the engine metrics;
    // the fault plan travels across context rebuilds, so the per-context
    // counter is monotonic for this worker's lifetime.
    let mut faults_published = 0u64;
    'serve: loop {
        let mut queued = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    drop(queue);
                    retire_worker(&shared);
                    return;
                }
                queue = wait_recover(&shared.cv, queue);
            }
        };
        // A slot just freed up: wake one producer blocked on admission.
        shared.space.notify_one();
        let queue_latency = queued.enqueued_at.elapsed();
        lock_recover(&shared.metrics.queue_latency).record(queue_latency);
        // Claim the task: losing means the handle cancelled it (and
        // fulfilled itself) — discard the payload untouched.
        if !queued.payload.sink.control().claim() {
            continue;
        }
        // Deadline shed: expired work never touches the GPU. Requeued
        // retries pass through here again, so the deadline keeps ruling
        // however many attempts the job takes.
        if let Some(deadline) = queued.deadline {
            if Instant::now() >= deadline {
                EngineMetrics::bump(&shared.metrics.shed);
                let queued_ms = u64::try_from(queue_latency.as_millis()).unwrap_or(u64::MAX);
                queued.payload.shed(queued_ms);
                continue;
            }
        }
        let policy = queued.payload.work.retry.unwrap_or(config.retry);
        let started = Instant::now();
        // Execute, self-healing around transient failures: a lost context
        // is rebuilt and the job replayed in place; other transient
        // failures go back to the queue (or, if the queue is unavailable,
        // retry in place); permanent outcomes break out for fulfilment.
        // The result is held until after the worker has published its
        // stats, so a caller returning from `wait()` observes stats that
        // already include its job. Running the task by reference lets a
        // transient failure re-run or requeue the same payload.
        let result = loop {
            let (result, panicked) =
                run_shielded(&mut cc, |cc| execute(cc, &mut state, &queued.payload.work));
            // The attempt's dropped guards count as recycled by this
            // context, as explicit `recycle_*` calls would have.
            cc.reclaim();
            if panicked || cc.context_lost() {
                // Fresh context, same wiring; the worker state dies with
                // the context — its cached pipelines and resident
                // textures belonged to the context that panicked or was
                // lost, and repopulate lazily on the replacement. The
                // fault plan (PRNG position, consumed one-shots, counts)
                // moves onto the fresh context so a one-shot loss fires
                // exactly once. If even the rebuild fails the worker
                // retires (remaining queue entries drain to other
                // workers, or are aborted if this was the last one).
                base = base.merged(&cc.stats());
                resident_base = resident_base.merged(&state.resident_stats);
                resident_base.resident_textures = 0;
                state = WorkerState::new(config.resident_cap);
                let plan = cc.take_fault_plan();
                match config.make_context(index) {
                    Ok(mut fresh) => {
                        if let Some(plan) = plan {
                            faults_published =
                                publish_faults(&shared.metrics, faults_published, plan.injected());
                            fresh.install_fault_plan(plan);
                        }
                        cc = fresh;
                        EngineMetrics::bump(&shared.metrics.recovered_contexts);
                    }
                    Err(_) => {
                        lock_recover(&shared.metrics.service_latency).record(started.elapsed());
                        EngineMetrics::bump(&shared.metrics.completed);
                        EngineMetrics::bump(&shared.metrics.failed);
                        drop(queued.tenant_permit.take());
                        queued.payload.sink.fulfil(result);
                        retire_worker(&shared);
                        return;
                    }
                }
            }
            if panicked {
                // Panics are never retried: the typed internal error
                // surfaces (from the already-rebuilt context).
                break result;
            }
            match &result {
                Err(e) if e.is_transient() && queued.attempt + 1 < policy.attempts() => {
                    queued.attempt += 1;
                    EngineMetrics::bump(&shared.metrics.retried);
                    if !policy.backoff.is_zero() {
                        std::thread::sleep(policy.backoff);
                    }
                    if e.is_context_loss() {
                        // Replay in place on the just-rebuilt context.
                        continue;
                    }
                    match requeue_transient(&shared, queued) {
                        // Back in the queue; this worker moves on.
                        None => continue 'serve,
                        // Queue unavailable (shutdown / full / dead
                        // pool): retry in place rather than dropping
                        // the attempt.
                        Some(returned) => {
                            queued = returned;
                            continue;
                        }
                    }
                }
                _ => break result,
            }
        };
        // Reclaim residencies whose handles were evicted since the last
        // task, then publish stats (and drain the per-request pass log)
        // BEFORE fulfilling the handle: a caller returning from `wait()`
        // must observe worker stats that include its job.
        state.sweep_evicted(&mut cc);
        cc.take_pass_log();
        *lock_recover(&stats[index]) = base.merged(&cc.stats());
        *lock_recover(&resident_stats[index]) = resident_base.merged(&state.resident_stats);
        faults_published = publish_faults(&shared.metrics, faults_published, cc.faults_injected());
        lock_recover(&shared.metrics.service_latency).record(started.elapsed());
        EngineMetrics::bump(&shared.metrics.completed);
        if result.is_err() {
            EngineMetrics::bump(&shared.metrics.failed);
        }
        // Release the tenant's in-flight slot before fulfilment, so a
        // caller resuming from `wait()` can immediately resubmit without
        // tripping its own quota.
        drop(queued.tenant_permit.take());
        queued.payload.sink.fulfil(result);
    }
}

/// The worker's one executor. Seeds every declared source of the task's
/// plan (uploading fresh data, binding residents), runs the built
/// pipeline — cached per worker for a [`PipelineSpec`], built on every run
/// for a [`Submission`]'s own plan — retiring a one-iteration plan's
/// intermediates at last use, reads the marked buffers back and finishes
/// the run; the uploads go back when their guards drop. A [`Job`]
/// therefore does exactly what a direct caller would: upload, build,
/// dispatch, read back, recycle.
pub(crate) fn execute(
    cc: &mut ComputeContext,
    state: &mut WorkerState,
    work: &Work,
) -> Result<Vec<(String, TensorData)>, ComputeError> {
    let (seeds, _uploads) = seed(cc, state, work)?;
    let built;
    let pipeline = match &work.plan {
        Plan::Spec(spec) => &state.pipeline_for(cc, spec)?.pipeline,
        Plan::Submission(plan) => {
            built = plan.map_kernels(|spec| spec.build_declared(cc))?;
            &built
        }
    };
    let run = pipeline.run_for_reads(cc, &seeds, &work.reads)?;
    let outputs = work
        .reads
        .iter()
        .map(|buffer| Ok((buffer.clone(), run.read_any(cc, buffer)?)))
        .collect();
    run.finish(cc);
    outputs
}

/// Resolves the work's sources to seeds for its declared sources:
/// uploads host data under the declared shape, held in guards beside the
/// seeds, and binds residents.
fn seed(
    cc: &mut ComputeContext,
    state: &mut WorkerState,
    work: &Work,
) -> Result<(Vec<SourceSeed>, Vec<OwnedTexture>), ComputeError> {
    let declared = &work.plan.declared().sources;
    let mut seeds = Vec::with_capacity(declared.len());
    let mut uploads = Vec::with_capacity(declared.len());
    for (decl, input) in declared.iter().zip(&work.sources) {
        let uploaded = match (input, decl.shape) {
            (JobInput::Resident(resident), shape) => {
                let array = state.resident_array(cc, resident, shape)?;
                seeds.push(SourceSeed::any(decl.name.clone(), &array));
                continue;
            }
            (JobInput::Data(data), SourceShape::Linear(_)) => {
                cc.upload(data.as_slice()).map(|a| a.erase())
            }
            (JobInput::Data(data), SourceShape::Grid { rows, cols }) => cc
                .upload_matrix(rows, cols, data.as_slice())
                .map(|m| m.as_array().erase()),
            (JobInput::Tensor(tensor), SourceShape::Linear(_)) => cc.upload_any(tensor),
            (JobInput::Tensor(tensor), SourceShape::Grid { rows, cols }) => {
                cc.upload_any_matrix(rows, cols, tensor)
            }
            // Refused by the source check at submit.
            (JobInput::Step(j), _) => {
                Err(bad_job(format!("source `{}` names step {j}", decl.name)))
            }
        }?;
        uploads.push(cc.own(uploaded.texture()));
        seeds.push(SourceSeed::any(decl.name.clone(), &uploaded));
    }
    Ok((seeds, uploads))
}
