//! Tier-1 integration tests for the serving engine: process-wide program
//! sharing (exactly one link under thread races), cache eviction bounds,
//! and bit-identity between `Engine` dispatch and direct `run_*_with`
//! calls — single jobs, batched multi-kernel DAGs, and whole retained
//! pipelines served as engine jobs. Plus the failure-path contracts:
//! `until` predicates that never fire surface `IterationCap` (not a
//! hang), and evicted `ResidentInput`s fail validation.

use gpes::core::serve::StepInput;
use gpes::core::{SharedCacheStats, PROGRAM_CACHE_CAP};
use gpes::glsl::Value;
use gpes::kernels::{data, fft, reduce, srad};
use gpes::prelude::*;
use std::sync::Arc;

fn saxpy_spec(n: usize) -> Arc<KernelSpec> {
    Arc::new(
        KernelSpec::new("saxpy")
            .input("x")
            .input("y")
            .uniform_f32("alpha", 2.0)
            .output(n)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
    )
}

fn blur_spec(n: usize) -> Arc<KernelSpec> {
    Arc::new(
        KernelSpec::new("blur3")
            .input("x")
            .uniform_f32("last", n as f32 - 1.0)
            .output(n)
            .body(
                "float a = fetch_x(max(idx - 1.0, 0.0));\n\
                 float b = fetch_x(idx);\n\
                 float c = fetch_x(min(idx + 1.0, last));\n\
                 return (a + b + c) / 3.0;",
            ),
    )
}

fn gain_spec(n: usize) -> Arc<KernelSpec> {
    Arc::new(
        KernelSpec::new("gain")
            .input("x")
            .uniform_f32("gain", 1.0)
            .output(n)
            .body("return fetch_x(idx) * gain;"),
    )
}

fn ramp(n: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 - n as f32 / 2.0) * scale)
        .collect()
}

// ---- shared cache concurrency -------------------------------------------

#[test]
fn racing_contexts_link_each_source_exactly_once() {
    // N threads, each with its own context, all building the same two
    // kernels at the same time: the process must link exactly 2 programs.
    const THREADS: usize = 8;
    let cache = Arc::new(SharedProgramCache::new());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut cc = ComputeContext::new(32, 32).expect("context");
            cc.set_shared_program_cache(cache);
            let x = cc.upload(&ramp(16, 0.5)).expect("x");
            let y = cc.upload(&ramp(16, 0.25)).expect("y");
            barrier.wait();
            let k1 = Kernel::builder("add")
                .input("a", &x)
                .input("b", &y)
                .output(ScalarType::F32, 16)
                .body("return fetch_a(idx) + fetch_b(idx);")
                .build(&mut cc)
                .expect("k1");
            let k2 = Kernel::builder("mul")
                .input("a", &x)
                .input("b", &y)
                .output(ScalarType::F32, 16)
                .body("return fetch_a(idx) * fetch_b(idx);")
                .build(&mut cc)
                .expect("k2");
            let s = cc.run_f32(&k1).expect("run add");
            let p = cc.run_f32(&k2).expect("run mul");
            assert_eq!(s.len(), 16);
            assert_eq!(p.len(), 16);
            let stats = cc.stats();
            assert_eq!(stats.programs_linked, 0, "worker {t} linked locally");
            assert_eq!(stats.programs_adopted, 2);
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
    let stats: SharedCacheStats = cache.stats();
    assert_eq!(stats.links, 2, "one link per distinct source, process-wide");
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 2 * THREADS as u64 - 2);
    assert_eq!(cache.len(), 2);
}

#[test]
fn shared_cache_capacity_is_bounded() {
    // Push far more distinct kernels through one context than the cache
    // capacity holds: the cache must stay at its bound and report the
    // evictions.
    let cache = Arc::new(SharedProgramCache::with_capacity(4));
    let mut cc = ComputeContext::new(32, 32).expect("context");
    cc.set_shared_program_cache(Arc::clone(&cache));
    let x = cc.upload(&ramp(8, 1.0)).expect("x");
    for i in 0..12 {
        let k = Kernel::builder("scale")
            .input("a", &x)
            .output(ScalarType::F32, 8)
            .body(format!("return fetch_a(idx) * {i}.0;"))
            .build(&mut cc)
            .expect("build");
        cc.run_f32(&k).expect("run");
    }
    assert_eq!(cache.len(), 4);
    let stats = cache.stats();
    assert_eq!(stats.links, 12);
    assert_eq!(stats.evictions, 8);
}

// ---- engine differential -------------------------------------------------

/// The direct (no-engine) reference for a saxpy job.
fn direct_saxpy(n: usize, x: &[f32], y: &[f32], alpha: f32) -> Vec<f32> {
    let mut cc = ComputeContext::new(256, 256).expect("context");
    let gx = cc.upload(x).expect("x");
    let gy = cc.upload(y).expect("y");
    let k = Kernel::builder("saxpy")
        .input("x", &gx)
        .input("y", &gy)
        .uniform_f32("alpha", 2.0)
        .output(ScalarType::F32, n)
        .body("return alpha * fetch_x(idx) + fetch_y(idx);")
        .build(&mut cc)
        .expect("build");
    let b = Bindings::new().uniform_f32("alpha", alpha);
    let out: GpuArray<f32> = cc.run_to_array_with(&k, &b).expect("run");
    cc.read_array(&out, Readback::DirectFbo).expect("read")
}

#[test]
fn engine_output_is_bit_identical_to_direct_dispatch() {
    let n = 1000;
    let engine = Engine::builder().workers(3).build().expect("engine");
    let spec = saxpy_spec(n);
    let mut handles = Vec::new();
    for j in 0..12 {
        let x = ramp(n, 0.01 * (j + 1) as f32);
        let y = ramp(n, 0.003 * (j + 1) as f32);
        let alpha = 0.5 + j as f32;
        let job = Job::new(&spec)
            .data(x.clone())
            .data(y.clone())
            .uniform_f32("alpha", alpha);
        handles.push((x, y, alpha, engine.submit(job).expect("submit")));
    }
    for (x, y, alpha, handle) in handles {
        let served = handle.wait().expect("job");
        let direct = direct_saxpy(n, &x, &y, alpha);
        // Bit-identical, not approximately equal: same codecs, same
        // shader, same dispatch semantics.
        assert_eq!(served, direct);
    }
    // Every kernel is one generated source: one process-wide link even
    // with 3 workers racing over 12 jobs.
    assert_eq!(engine.programs_linked(), 1);
}

#[test]
fn batch_dag_matches_chained_direct_dispatch_bitwise() {
    let n = 512;
    let input = ramp(n, 0.02);
    let gain = 3.5f32;

    // Direct reference: blur → gain chained through run_to_array_with.
    let direct = {
        let mut cc = ComputeContext::new(256, 256).expect("context");
        let gx = cc.upload(&input).expect("x");
        let blur = Kernel::builder("blur3")
            .input("x", &gx)
            .uniform_f32("last", n as f32 - 1.0)
            .output(ScalarType::F32, n)
            .body(
                "float a = fetch_x(max(idx - 1.0, 0.0));\n\
                 float b = fetch_x(idx);\n\
                 float c = fetch_x(min(idx + 1.0, last));\n\
                 return (a + b + c) / 3.0;",
            )
            .build(&mut cc)
            .expect("blur");
        let mid: GpuArray<f32> = cc.run_to_array(&blur).expect("run blur");
        let gaink = Kernel::builder("gain")
            .input("x", &mid)
            .uniform_f32("gain", 1.0)
            .output(ScalarType::F32, n)
            .body("return fetch_x(idx) * gain;")
            .build(&mut cc)
            .expect("gain");
        let b = Bindings::new().uniform_f32("gain", gain);
        let out: GpuArray<f32> = cc.run_to_array_with(&gaink, &b).expect("run gain");
        cc.read_array(&out, Readback::DirectFbo).expect("read")
    };

    // Served: one submission, two steps, intermediate stays on the GPU.
    let engine = Engine::builder().workers(2).build().expect("engine");
    let mut sub = Submission::new();
    let b = sub.step(
        &blur_spec(n),
        vec![StepInput::Data(Arc::new(input.clone()))],
        vec![],
    );
    let g = sub.step(
        &gain_spec(n),
        vec![b.into()],
        vec![("gain".to_owned(), Value::Float(gain))],
    );
    sub.read(g);
    let result = engine
        .submit_batch(sub)
        .expect("submit")
        .wait()
        .expect("batch");
    assert_eq!(result.output(g).expect("read output"), direct.as_slice());
    assert!(result.output(b).is_none(), "unmarked step is not read back");
}

/// Field-wise `after - before` of two snapshots of one context's stats.
fn stats_delta(after: &ContextStats, before: &ContextStats) -> ContextStats {
    ContextStats {
        programs_linked: after.programs_linked - before.programs_linked,
        programs_adopted: after.programs_adopted - before.programs_adopted,
        program_cache_hits: after.program_cache_hits - before.program_cache_hits,
        programs_deleted: after.programs_deleted - before.programs_deleted,
        textures_created: after.textures_created - before.textures_created,
        texture_pool_hits: after.texture_pool_hits - before.texture_pool_hits,
        textures_recycled: after.textures_recycled - before.textures_recycled,
        spmd_batches: after.spmd_batches - before.spmd_batches,
        scalar_fallbacks: after.scalar_fallbacks - before.scalar_fallbacks,
        f32_host_transfers: after.f32_host_transfers - before.f32_host_transfers,
        quantized_host_transfers: after.quantized_host_transfers - before.quantized_host_transfers,
    }
}

#[test]
fn served_job_does_the_counted_work_of_a_direct_dispatch() {
    // A `Job` runs as a one-step submission; its GL work must be exactly
    // a direct caller's: upload → build → dispatch → recycle the upload →
    // DirectFbo readback → recycle the output. Every ContextStats field
    // of the warm worker's delta equals the direct context's.
    const JOBS: usize = 6;
    let n = 300;
    let spec = saxpy_spec(n);
    let x = Arc::new(ramp(n, 0.5));
    let resident = ResidentInput::new(ramp(n, 0.25));
    let engine = Engine::builder()
        .workers(1)
        .dispatch(Dispatch::Serial)
        .build()
        .expect("engine");
    let serve = || {
        engine
            .submit(Job::new(&spec).data_shared(&x).resident(&resident))
            .expect("submit")
            .wait()
            .expect("job")
    };
    let warm = serve();
    let before = engine.worker_stats()[0];
    for _ in 0..JOBS {
        assert_eq!(serve(), warm);
    }
    let served = stats_delta(&engine.worker_stats()[0], &before);

    let mut cc = ComputeContext::new(256, 256).expect("context");
    cc.set_dispatch(Dispatch::Serial);
    cc.set_shared_program_cache(Arc::clone(engine.cache().expect("shared cache")));
    let resident_array = cc.upload(&ramp(n, 0.25)).expect("resident").erase();
    let direct = |cc: &mut ComputeContext| {
        let data = cc.upload(&x).expect("x").erase();
        let kernel = spec.build_any(cc, &[data, resident_array]).expect("build");
        let out = cc
            .run_to_array_any_with(&kernel, &Bindings::new())
            .expect("run");
        cc.recycle_any(data);
        let host = cc.read_array_any(&out, Readback::DirectFbo).expect("read");
        cc.recycle_any(out);
        host
    };
    assert_eq!(direct(&mut cc), TensorData::F32(warm.clone()));
    let before = cc.stats();
    for _ in 0..JOBS {
        assert_eq!(direct(&mut cc), TensorData::F32(warm.clone()));
    }
    assert_eq!(served, stats_delta(&cc.stats(), &before));
    assert!(served.texture_pool_hits > 0 && served.textures_created == 0);
}

#[test]
fn dag_steps_free_intermediates_at_last_use() {
    // A 20-step same-shape chain where step i reads steps i-1 and i-2,
    // with a middle step and the last one read back. Outputs are exact
    // integer sums, so the host computes them bit-for-bit. All 20 outputs
    // live at once would overflow the pool's per-shape bucket and
    // allocate every wave; freed at last use, a warm wave allocates
    // nothing.
    const STEPS: usize = 20;
    const MIDDLE: usize = 9;
    let n = 256;
    let spec = Arc::new(
        KernelSpec::new("add")
            .input("x")
            .input("y")
            .output(n)
            .body("return fetch_x(idx) + fetch_y(idx);"),
    );
    let a: Arc<Vec<f32>> = Arc::new((0..n).map(|i| (i % 7) as f32).collect());
    let b: Arc<Vec<f32>> = Arc::new(vec![1.0; n]);
    // `chain[k]` is what step `k - 2` outputs; chain[0], chain[1] are the
    // two uploads steps 0 and 1 start from.
    let mut chain = vec![b.as_ref().clone(), a.as_ref().clone()];
    for i in 0..STEPS {
        let (x, y) = (&chain[i + 1], &chain[i]);
        let next = x.iter().zip(y).map(|(x, y)| x + y).collect();
        chain.push(next);
    }
    let engine = Engine::builder().workers(1).build().expect("engine");
    let wave = || {
        let mut sub = Submission::new();
        let mut chain_inputs: Vec<StepInput> = vec![
            StepInput::Data(Arc::clone(&b)),
            StepInput::Data(Arc::clone(&a)),
        ];
        let mut handles = Vec::new();
        for i in 0..STEPS {
            let h = sub.step(
                &spec,
                vec![chain_inputs[i + 1].clone(), chain_inputs[i].clone()],
                vec![],
            );
            chain_inputs.push(h.into());
            handles.push(h);
        }
        sub.read(handles[MIDDLE]);
        sub.read(handles[STEPS - 1]);
        let result = engine
            .submit_batch(sub)
            .expect("submit")
            .wait()
            .expect("batch");
        for (i, h) in handles.iter().enumerate() {
            match result.output(*h) {
                Some(out) => {
                    assert!(i == MIDDLE || i == STEPS - 1, "step {i} was not marked");
                    assert_eq!(out, chain[i + 2].as_slice(), "step {i}");
                }
                None => assert!(i != MIDDLE && i != STEPS - 1, "step {i} read back"),
            }
        }
    };
    let textures = || engine.worker_stats()[0].textures_created;
    wave();
    wave();
    let before = textures();
    wave();
    assert_eq!(textures() - before, 0, "a warm wave creates no textures");
}

#[test]
fn served_chain_pipeline_frees_intermediates_at_last_use() {
    // `dag_steps_free_intermediates_at_last_use` as a one-iteration
    // PipelineSpec: pass i adds buffers s(i-1) and s(i-2), a middle
    // buffer and the last one are read back. The worker runs it under
    // the pipeline's liveness plan, so each intermediate is recycled
    // after its last reader and a warm wave allocates nothing; kept
    // until the run finishes, the 20 outputs would overflow the pool's
    // per-shape bucket every wave.
    const PASSES: usize = 20;
    const MIDDLE: usize = 9;
    let n = 256;
    let add = Arc::new(
        KernelSpec::new("add")
            .input("x")
            .input("y")
            .output(n)
            .body("return fetch_x(idx) + fetch_y(idx);"),
    );
    let a: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let b = vec![1.0f32; n];
    let mut chain = vec![b.clone(), a.clone()];
    let mut names = vec!["b".to_owned(), "a".to_owned()];
    let mut builder = PipelineSpec::builder("chain")
        .source_len("b", n)
        .source_len("a", n);
    for i in 0..PASSES {
        let next = chain[i + 1]
            .iter()
            .zip(&chain[i])
            .map(|(x, y)| x + y)
            .collect();
        chain.push(next);
        names.push(format!("s{i}"));
        builder = builder.pass(
            PassSpec::new(&add)
                .read("x", &names[i + 1])
                .read("y", &names[i])
                .write_len(&names[i + 2], n),
        );
    }
    let spec = Arc::new(builder.build().expect("spec"));
    let engine = Engine::builder().workers(1).build().expect("engine");
    let wave = || {
        let job = PipelineJob::new(&spec)
            .source(b.clone())
            .source(a.clone())
            .read(&names[MIDDLE + 2])
            .read(&names[PASSES + 1]);
        let result = engine
            .submit_pipeline(job)
            .expect("submit")
            .wait()
            .expect("run");
        for i in [MIDDLE, PASSES - 1] {
            assert_eq!(
                result.output(&names[i + 2]).expect("read"),
                chain[i + 2].as_slice()
            );
        }
    };
    let textures = || engine.worker_stats()[0].textures_created;
    wave();
    wave();
    let before = textures();
    wave();
    assert_eq!(textures() - before, 0, "a warm wave creates no textures");
}

#[test]
fn submission_validation_rejects_bad_dags() {
    let engine = Engine::builder().build().expect("engine");
    let spec = gain_spec(8);

    // Forward reference.
    let mut sub = Submission::new();
    sub.step(&spec, vec![StepInput::Step(0)], vec![]);
    assert!(engine.submit_batch(sub).is_err());

    // Arity mismatch.
    let mut sub = Submission::new();
    sub.step(&spec, vec![], vec![]);
    assert!(engine.submit_batch(sub).is_err());

    // Empty submission.
    assert!(engine.submit_batch(Submission::new()).is_err());

    // Arity mismatch on a single job.
    assert!(engine.submit(Job::new(&spec)).is_err());

    // A uniform the kernel does not declare is refused at submit.
    let ghost = Job::new(&spec).data(vec![0.0; 8]).uniform_f32("ghost", 1.0);
    match engine.submit(ghost) {
        Err(ComputeError::BadKernel { message }) => assert!(message.contains("ghost"), "{message}"),
        other => panic!("expected BadKernel at submit, got {:?}", other.map(|_| ())),
    }

    // Execution errors surface on the handle, not at submit.
    let broken = Arc::new(
        KernelSpec::new("broken")
            .input("x")
            .output(8)
            .body("return nonsense(idx);"),
    );
    let handle = engine
        .submit(Job::new(&broken).data(vec![0.0; 8]))
        .expect("submit");
    assert!(handle.wait().is_err());
}

#[test]
fn per_context_policy_relinks_per_worker_and_shared_does_not() {
    let n = 256;
    let spec = saxpy_spec(n);
    let x = Arc::new(ramp(n, 0.1));
    let y = Arc::new(ramp(n, 0.2));
    let run = |engine: &Engine| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let job = Job::new(&spec).data_shared(&x).data_shared(&y);
            handles.push(engine.submit(job).expect("submit"));
        }
        let mut outputs = Vec::new();
        for h in handles {
            outputs.push(h.wait().expect("job"));
        }
        outputs
    };

    let shared = Engine::builder().workers(4).build().expect("engine");
    let shared_out = run(&shared);
    assert_eq!(shared.programs_linked(), 1);

    let per_ctx = Engine::builder()
        .workers(4)
        .cache_policy(gpes::core::serve::CachePolicy::PerContext)
        .build()
        .expect("engine");
    let per_ctx_out = run(&per_ctx);
    // Identical outputs either way…
    assert_eq!(shared_out, per_ctx_out);
    // …but each worker that saw the kernel paid its own link. The queue
    // does not guarantee every worker ran a job, so the bound is 1..=4 —
    // and always at least the shared engine's single link.
    let links = per_ctx.programs_linked();
    assert!((1..=4).contains(&links), "links = {links}");
    let touched = per_ctx
        .worker_stats()
        .iter()
        .filter(|s| s.programs_linked > 0)
        .count() as u64;
    assert_eq!(links, touched, "one link per worker that served a job");
}

#[test]
fn worker_contexts_reach_steady_state_over_repeated_jobs() {
    // A serving loop must stop allocating GL objects once warmed up:
    // programs come from the shared cache, textures from each worker's
    // recycling pool.
    let n = 300;
    let engine = Engine::builder().workers(2).build().expect("engine");
    let spec = saxpy_spec(n);
    let submit_wave = |count: usize| {
        let handles: Vec<_> = (0..count)
            .map(|_| {
                engine
                    .submit(Job::new(&spec).data(ramp(n, 0.5)).data(ramp(n, 0.25)))
                    .expect("submit")
            })
            .collect();
        for h in handles {
            h.wait().expect("job");
        }
    };
    let gl_objects = || -> u64 {
        engine
            .worker_stats()
            .iter()
            .map(ContextStats::gl_objects_created)
            .sum()
    };
    // The contract is convergence: some full wave must allocate nothing.
    // (The queue does not promise every worker a job per wave, so "warm
    // with k jobs then assert frozen" would race scheduling — a worker
    // can see its first job arbitrarily late. A leak never freezes and
    // still fails the loop cap.)
    let mut prev = gl_objects();
    let mut steady = false;
    for _ in 0..16 {
        submit_wave(16);
        let now = gl_objects();
        if now == prev {
            steady = true;
            break;
        }
        prev = now;
    }
    assert!(steady, "steady-state serving must stop allocating");
}

/// GL programs a context holds right now.
fn live_programs(stats: &ContextStats) -> u64 {
    stats.programs_linked + stats.programs_adopted - stats.programs_deleted
}

/// A tenant kernel whose generated source is distinct for every `source`.
fn tenant_spec(source: usize, n: usize) -> KernelSpec {
    KernelSpec::new(format!("tenant_{source}"))
        .input("x")
        .output(n)
        .body(format!("return fetch_x(idx) * {source}.0 + 0.5;"))
}

/// Registers, serves and retires one tenant kernel per source, checking
/// every result bit for bit.
fn serve_tenant_kernels(engine: &Engine, sources: impl Iterator<Item = usize>) {
    let n = 64;
    let x = Arc::new(ramp(n, 0.25));
    let registry = engine.registry();
    for source in sources {
        let kernel = registry
            .register("tenant", tenant_spec(source, n))
            .expect("register");
        let out = engine
            .submit(kernel.job().data_shared(&x))
            .expect("submit")
            .wait()
            .expect("job");
        let want: Vec<f32> = x.iter().map(|v| v * source as f32 + 0.5).collect();
        assert_eq!(out, want, "kernel {source}");
        assert!(registry.retire(&kernel));
    }
}

#[test]
fn tenant_churn_keeps_worker_programs_within_the_cache_cap() {
    let engine = Engine::builder().workers(2).build().expect("engine");
    serve_tenant_kernels(&engine, 0..3 * PROGRAM_CACHE_CAP);
    let snapshot = engine.snapshot();
    assert_eq!(
        snapshot.context.programs_adopted,
        3 * PROGRAM_CACHE_CAP as u64
    );
    let live = live_programs(&snapshot.context);
    assert!(
        live <= 2 * PROGRAM_CACHE_CAP as u64,
        "{live} live programs on 2 workers"
    );
    for stats in engine.worker_stats() {
        assert!(live_programs(&stats) <= PROGRAM_CACHE_CAP as u64);
    }
}

#[test]
fn workers_keep_retired_programs_so_recurring_kernels_do_not_relink() {
    // One worker, so the wave that first adopts a kernel and the wave that
    // reuses it meet the same context.
    let engine = Engine::builder().workers(1).build().expect("engine");
    serve_tenant_kernels(&engine, 0..8);
    let before = engine.snapshot();
    serve_tenant_kernels(&engine, 0..8);
    let after = engine.snapshot();
    let wave = stats_delta(&after.context, &before.context);
    assert_eq!(engine.programs_linked(), 8, "the second wave links nothing");
    assert_eq!(wave.programs_linked + wave.programs_adopted, 0);
    assert_eq!(wave.program_cache_hits, 8);
}

// ---- pipeline serving ----------------------------------------------------

#[test]
fn engine_served_fft_pipeline_is_bit_identical_to_direct_run() {
    let n = 64;
    let re = data::random_f32(n, 801, 1.0);
    let im = data::random_f32(n, 802, 1.0);
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let (dre, dim) = fft::run_gpu(&mut cc, &re, &im, fft::Direction::Forward).expect("direct");

    let engine = Engine::builder().workers(2).build().expect("engine");
    let spec = Arc::new(fft::pipeline_spec(n, fft::Direction::Forward).expect("spec"));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let job = PipelineJob::new(&spec)
            .source(re.clone())
            .source(im.clone())
            .read("re")
            .read("im");
        handles.push(engine.submit_pipeline(job).expect("submit"));
    }
    for handle in handles {
        let result = handle.wait().expect("pipeline job");
        assert_eq!(result.output("re").expect("re"), dre.as_slice());
        assert_eq!(result.output("im").expect("im"), dim.as_slice());
    }
    // Two stage kernels, one process-wide link each, however many
    // workers served the six jobs.
    assert_eq!(engine.programs_linked(), 2);
}

#[test]
fn engine_served_srad_and_reduce_match_direct_runs() {
    let (rows, cols) = (9usize, 7usize);
    let img: Vec<f32> = data::random_f32(rows * cols, 803, 40.0)
        .into_iter()
        .map(|v| v.abs() + 10.0)
        .collect();
    let params = srad::SradParams::default();
    let values = data::random_f32(500, 804, 25.0);
    let mut cc = ComputeContext::new(32, 32).expect("context");
    let direct_srad = srad::run_gpu(&mut cc, rows, cols, &img, params, 4).expect("srad");
    let arr = cc.upload(&values).expect("upload");
    let direct_reduce = reduce::gpu_reduce(&mut cc, &arr, reduce::ReduceOp::Sum).expect("reduce");

    let engine = Engine::builder().workers(2).build().expect("engine");
    let srad_spec = Arc::new(srad::pipeline_spec(rows, cols, params, 4).expect("spec"));
    let reduce_spec =
        Arc::new(reduce::pipeline_spec(values.len(), reduce::ReduceOp::Sum).expect("spec"));
    let srad_job = PipelineJob::new(&srad_spec).source(img.clone()).read("j");
    let reduce_job = PipelineJob::new(&reduce_spec)
        .source(values.clone())
        .read("x");
    let h1 = engine.submit_pipeline(srad_job).expect("submit srad");
    let h2 = engine.submit_pipeline(reduce_job).expect("submit reduce");
    assert_eq!(
        h1.wait().expect("srad").output("j").expect("j"),
        direct_srad.as_slice()
    );
    assert_eq!(
        h2.wait().expect("reduce").output("x").expect("x"),
        &[direct_reduce][..]
    );
}

#[test]
fn pipeline_serving_reaches_steady_state_with_zero_links_and_objects() {
    // The a11 gate's contract, as a test: once every worker has built the
    // pipeline for the spec, a full serving wave links nothing and
    // creates no GL objects — the pipeline cache, program caches and
    // texture pools absorb everything.
    let n = 256;
    let engine = Engine::builder().workers(2).build().expect("engine");
    let spec = Arc::new(reduce::pipeline_spec(n, reduce::ReduceOp::Sum).expect("spec"));
    let values = Arc::new(data::random_f32(n, 805, 10.0));
    let expected = reduce::cpu_reference(&values, reduce::ReduceOp::Sum);
    let submit_wave = |count: usize| {
        let handles: Vec<_> = (0..count)
            .map(|_| {
                engine
                    .submit_pipeline(PipelineJob::new(&spec).source_shared(&values).read("x"))
                    .expect("submit")
            })
            .collect();
        for h in handles {
            let out = h.wait().expect("job");
            assert_eq!(out.output("x").expect("x"), &[expected][..]);
        }
    };
    let gl_objects = || -> u64 {
        engine
            .worker_stats()
            .iter()
            .map(ContextStats::gl_objects_created)
            .sum()
    };
    let mut prev = (gl_objects(), engine.programs_linked());
    let mut steady = false;
    for _ in 0..16 {
        submit_wave(12);
        let now = (gl_objects(), engine.programs_linked());
        if now == prev {
            steady = true;
            break;
        }
        prev = now;
    }
    assert!(
        steady,
        "steady-state pipeline serving must stop linking and allocating"
    );
}

#[test]
fn pipeline_job_validation_rejects_bad_requests() {
    let engine = Engine::builder().build().expect("engine");
    let spec = Arc::new(reduce::pipeline_spec(16, reduce::ReduceOp::Sum).expect("spec"));
    // Source arity.
    assert!(engine
        .submit_pipeline(PipelineJob::new(&spec).read("x"))
        .is_err());
    // Declared source length.
    assert!(engine
        .submit_pipeline(PipelineJob::new(&spec).source(vec![0.0; 5]).read("x"))
        .is_err());
    // No readback marked.
    assert!(engine
        .submit_pipeline(PipelineJob::new(&spec).source(vec![0.0; 16]))
        .is_err());
    // Unknown read buffer.
    assert!(engine
        .submit_pipeline(PipelineJob::new(&spec).source(vec![0.0; 16]).read("nope"))
        .is_err());
    // Malformed specs are rejected at spec build, on the caller's thread:
    // `tests/pipeline_api.rs` runs every malformed dag through both the
    // `Pipeline` and the `PipelineSpec` builder.
}

#[test]
fn until_predicate_never_firing_is_a_typed_error_not_a_hang() {
    let n = 8;
    let step = Arc::new(
        KernelSpec::new("decay")
            .input("x")
            .output(n)
            .body("return fetch_x(idx) * 0.5;"),
    );
    let spec = Arc::new(
        PipelineSpec::builder("nonconverging")
            .source_len("x", n)
            .pass(PassSpec::new(&step).read("x", "x").write_len("x", n))
            .until(|_| false)
            .iteration_cap(8)
            .build()
            .expect("spec"),
    );
    let engine = Engine::builder().build().expect("engine");
    let handle = engine
        .submit_pipeline(PipelineJob::new(&spec).source(vec![1.0; n]).read("x"))
        .expect("submit");
    match handle.wait() {
        Err(ComputeError::IterationCap { pipeline, cap }) => {
            assert_eq!(pipeline, "nonconverging");
            assert_eq!(cap, 8);
        }
        other => panic!("expected IterationCap, got {other:?}"),
    }
    // The engine survives the failed job and keeps serving.
    let ok = engine
        .submit(Job::new(&gain_spec(4)).data(vec![1.0, 2.0, 3.0, 4.0]))
        .expect("submit")
        .wait()
        .expect("job");
    assert_eq!(ok, vec![1.0, 2.0, 3.0, 4.0]);
}

// ---- resident inputs -----------------------------------------------------

#[test]
fn resident_inputs_upload_once_per_worker_and_serve_hits() {
    let n = 300;
    let engine = Engine::builder().workers(1).build().expect("engine");
    let spec = saxpy_spec(n);
    let x = ResidentInput::new(ramp(n, 0.5));
    let y = ramp(n, 0.25);
    let direct = direct_saxpy(n, &ramp(n, 0.5), &y, 2.0);
    for _ in 0..5 {
        let served = engine
            .submit(Job::new(&spec).resident(&x).data(y.clone()))
            .expect("submit")
            .wait()
            .expect("job");
        assert_eq!(served, direct, "resident path must stay bit-identical");
    }
    let stats: Vec<ResidentStats> = engine.resident_stats();
    let total: ResidentStats =
        stats
            .iter()
            .fold(ResidentStats::default(), |acc, s| ResidentStats {
                uploads: acc.uploads + s.uploads,
                hits: acc.hits + s.hits,
                evictions: acc.evictions + s.evictions,
                resident_textures: acc.resident_textures + s.resident_textures,
            });
    assert_eq!(total.uploads, 1, "one upload on the single worker");
    assert_eq!(total.hits, 4, "four later jobs reuse the texture");
    assert_eq!(total.resident_textures, 1);
    assert_eq!(total.evictions, 0);
}

#[test]
fn resident_input_used_after_eviction_is_a_validation_error() {
    let n = 64;
    let engine = Engine::builder().build().expect("engine");
    let spec = gain_spec(n);
    let resident = ResidentInput::new(ramp(n, 1.0));
    engine
        .submit(Job::new(&spec).resident(&resident))
        .expect("submit")
        .wait()
        .expect("job before eviction");
    resident.evict();
    assert!(resident.is_evicted());
    // Kernel jobs, DAG steps and pipeline sources all reject it.
    match engine.submit(Job::new(&spec).resident(&resident)) {
        Err(ComputeError::BadKernel { message }) => {
            assert!(message.contains("evicted"), "message: {message}");
        }
        Err(other) => panic!("expected BadKernel, got {other:?}"),
        Ok(_) => panic!("evicted resident must fail validation"),
    }
    let mut sub = Submission::new();
    sub.step(&spec, vec![StepInput::Resident(resident.clone())], vec![]);
    assert!(engine.submit_batch(sub).is_err());
    let pipe = Arc::new(reduce::pipeline_spec(n, reduce::ReduceOp::Sum).expect("spec"));
    assert!(engine
        .submit_pipeline(PipelineJob::new(&pipe).source_resident(&resident).read("x"))
        .is_err());
    // The worker reclaims the evicted texture at its next task boundary
    // — it does not need to see the dead handle again.
    engine
        .submit(Job::new(&spec).data(ramp(n, 1.0)))
        .expect("submit")
        .wait()
        .expect("job after eviction");
    let total: u64 = engine.resident_stats().iter().map(|s| s.evictions).sum();
    let held: u64 = engine
        .resident_stats()
        .iter()
        .map(|s| s.resident_textures)
        .sum();
    assert_eq!(total, 1, "the sweep reclaimed the evicted residency");
    assert_eq!(held, 0, "no resident textures remain");
}

// ---- bounded admission, deadlines, cancellation --------------------------

use gpes::core::serve::CompletionSet;
use std::time::{Duration, Instant};

/// A pipeline slow enough (hundreds of serial passes) that the submitting
/// thread can observe the engine *while the worker is busy*.
fn slow_pipeline(n: usize, iters: usize) -> Arc<PipelineSpec> {
    let step = Arc::new(
        KernelSpec::new("slow_step")
            .input("x")
            .output(n)
            .body("return fetch_x(idx) + 1.0;"),
    );
    Arc::new(
        PipelineSpec::builder("slow")
            .source_len("x", n)
            .pass(PassSpec::new(&step).read("x", "x").write_len("x", n))
            .iterations(iters)
            .build()
            .expect("spec"),
    )
}

fn slow_job(spec: &Arc<PipelineSpec>, n: usize) -> PipelineJob {
    PipelineJob::new(spec).source(vec![0.0; n]).read("x")
}

/// Spins until the engine has dequeued down to `depth` queued tasks —
/// used to order a test step after a worker has picked up earlier work.
fn wait_queue_depth_at_most(engine: &Engine, depth: usize) {
    let give_up = Instant::now() + Duration::from_secs(120);
    while engine.queue_depth() > depth {
        assert!(Instant::now() < give_up, "queue never drained to {depth}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn try_submit_rejects_with_queue_full_when_the_bound_is_hit() {
    let n = 512;
    let engine = Engine::builder()
        .workers(1)
        .queue_capacity(1)
        .build()
        .expect("engine");
    let spec = slow_pipeline(n, 240);
    // Occupy the single worker, then flood: with capacity 1, the second
    // pending submission must be turned away while the worker is busy.
    let busy = engine.submit_pipeline(slow_job(&spec, n)).expect("submit");
    let gain = gain_spec(8);
    let mut accepted = Vec::new();
    let mut rejections = 0u64;
    for _ in 0..64 {
        match engine.try_submit(Job::new(&gain).data(vec![1.0; 8])) {
            Ok(handle) => accepted.push(handle),
            Err(ComputeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                rejections += 1;
            }
            Err(other) => panic!("expected QueueFull, got {other:?}"),
        }
    }
    assert!(rejections > 0, "a bounded queue must reject under flood");
    busy.wait().expect("busy job");
    for handle in accepted {
        assert_eq!(handle.wait().expect("accepted job"), vec![1.0; 8]);
    }
    let snap = engine.snapshot();
    assert_eq!(snap.rejected, rejections);
    assert_eq!(snap.queue_capacity, 1);
    assert!(snap.queue_depth_high_water >= 1);
    assert!(
        snap.counters_balanced(),
        "quiescent counters must balance: {snap:?}"
    );
}

#[test]
fn expired_deadlines_are_shed_before_execution() {
    let engine = Engine::builder().workers(1).build().expect("engine");
    let gain = gain_spec(8);
    // A deadline already in the past is shed at dequeue, deterministically.
    let handle = engine
        .submit(Job::new(&gain).data(vec![1.0; 8]).timeout(Duration::ZERO))
        .expect("submit");
    match handle.wait() {
        Err(ComputeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Batches and pipelines shed the same way.
    let mut sub = Submission::new();
    let s = sub.step(&gain, vec![StepInput::Data(Arc::new(vec![1.0; 8]))], vec![]);
    sub.read(s);
    sub.deadline(Instant::now() - Duration::from_millis(1));
    assert!(matches!(
        engine.submit_batch(sub).expect("submit").wait(),
        Err(ComputeError::DeadlineExceeded { .. })
    ));
    let pipe = slow_pipeline(8, 2);
    assert!(matches!(
        engine
            .submit_pipeline(slow_job(&pipe, 8).timeout(Duration::ZERO))
            .expect("submit")
            .wait(),
        Err(ComputeError::DeadlineExceeded { .. })
    ));
    let snap = engine.snapshot();
    assert_eq!(snap.shed, 3);
    assert_eq!(snap.completed, 0, "shed work never reached a worker");
    // A generous deadline does not interfere with normal service.
    let ok = engine
        .submit(
            Job::new(&gain)
                .data(vec![2.0; 8])
                .timeout(Duration::from_secs(60)),
        )
        .expect("submit")
        .wait()
        .expect("job");
    assert_eq!(ok, vec![2.0; 8]);
    assert!(engine.snapshot().counters_balanced());
}

#[test]
fn cancel_revokes_queued_work_exactly_once() {
    let n = 512;
    let engine = Engine::builder().workers(1).build().expect("engine");
    let spec = slow_pipeline(n, 240);
    let busy = engine.submit_pipeline(slow_job(&spec, n)).expect("submit");
    let gain = gain_spec(8);
    let queued = engine
        .submit(Job::new(&gain).data(vec![3.0; 8]))
        .expect("submit");
    let won = queued.cancel();
    // Cancelling twice can never win twice.
    assert!(!queued.cancel());
    match queued.wait() {
        Err(ComputeError::Cancelled) => assert!(won, "Cancelled result implies cancel() won"),
        Ok(data) => {
            assert!(!won, "cancel() winning implies a Cancelled result");
            assert_eq!(data, vec![3.0; 8]);
        }
        other => panic!("expected Cancelled or Ok, got {other:?}"),
    }
    busy.wait().expect("busy job");
    let snap = engine.snapshot();
    assert_eq!(snap.cancelled, u64::from(won));
    assert!(snap.counters_balanced());
    // Cancelling a finished job is a no-op.
    let done = engine
        .submit(Job::new(&gain).data(vec![1.0; 8]))
        .expect("submit");
    done.wait_timeout(Duration::from_secs(120))
        .expect("finish")
        .expect("job");
    assert!(!done.cancel());
}

#[test]
fn nonblocking_waits_poll_and_bound_without_losing_the_result() {
    let n = 512;
    let engine = Engine::builder().workers(1).build().expect("engine");
    let spec = slow_pipeline(n, 240);
    let handle = engine.submit_pipeline(slow_job(&spec, n)).expect("submit");
    assert!(handle.try_wait().is_none(), "job cannot be done instantly");
    assert!(!handle.is_finished());
    assert!(
        handle.wait_timeout(Duration::from_micros(1)).is_none(),
        "a 1 µs bound must expire first"
    );
    // The timeout expiring left the job running and the handle valid.
    let result = handle
        .wait_deadline(Instant::now() + Duration::from_secs(120))
        .expect("job finishes well within the deadline")
        .expect("job");
    assert_eq!(result.output("x").expect("x"), &vec![240.0; n][..]);
    // The result was taken: later polls are a typed error, not a hang.
    match handle.try_wait() {
        Some(Err(ComputeError::EngineInternal { .. })) => {}
        other => panic!("expected EngineInternal, got {other:?}"),
    }
}

#[test]
fn completion_set_multiplexes_handles_on_one_condvar() {
    let n = 256;
    let engine = Engine::builder().workers(2).build().expect("engine");
    let spec = saxpy_spec(n);
    let x = ramp(n, 0.5);
    let y = ramp(n, 0.25);
    let direct = direct_saxpy(n, &x, &y, 2.0);
    let mut set = CompletionSet::new();
    assert!(set.wait_any().is_none(), "empty set yields nothing");
    for _ in 0..16 {
        let handle = engine
            .submit(Job::new(&spec).data(x.clone()).data(y.clone()))
            .expect("submit");
        set.insert(handle);
    }
    assert_eq!(set.len(), 16);
    let mut seen = 0;
    while let Some((_token, result)) = set.wait_any() {
        assert_eq!(
            result.expect("job"),
            direct,
            "served results stay bit-identical"
        );
        seen += 1;
    }
    assert_eq!(seen, 16);
    assert!(set.is_empty());
    // A handle that already finished is immediately ready on insert.
    let done = engine
        .submit(Job::new(&spec).data(x.clone()).data(y.clone()))
        .expect("submit");
    let give_up = Instant::now() + Duration::from_secs(120);
    while !done.is_finished() {
        assert!(Instant::now() < give_up, "job never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    set.insert(done);
    let (_token, result) = set.try_next().expect("already-finished member");
    assert_eq!(result.expect("job"), direct);
    // And an empty set times out rather than hanging.
    assert!(set.wait_any_timeout(Duration::from_millis(1)).is_none());
}

#[test]
fn unobserved_job_errors_surface_in_the_snapshot() {
    let n = 8;
    let engine = Engine::builder().workers(1).build().expect("engine");
    let step = Arc::new(
        KernelSpec::new("decay")
            .input("x")
            .output(n)
            .body("return fetch_x(idx) * 0.5;"),
    );
    let failing = Arc::new(
        PipelineSpec::builder("nonconverging")
            .source_len("x", n)
            .pass(PassSpec::new(&step).read("x", "x").write_len("x", n))
            .until(|_| false)
            .iteration_cap(4)
            .build()
            .expect("spec"),
    );
    // Drop the handle before the job fails: the late error is counted.
    drop(
        engine
            .submit_pipeline(slow_job(&failing, n))
            .expect("submit"),
    );
    // Drop the handle after the job failed: the stored error is counted.
    let handle = engine
        .submit_pipeline(slow_job(&failing, n))
        .expect("submit");
    // A marker job through the same single worker proves both failing
    // jobs are done (FIFO order).
    let gain = gain_spec(4);
    engine
        .submit(Job::new(&gain).data(vec![1.0; 4]))
        .expect("submit")
        .wait()
        .expect("marker");
    assert!(handle.is_finished());
    drop(handle);
    let snap = engine.snapshot();
    assert_eq!(snap.unobserved_errors, 2);
    assert_eq!(snap.failed, 2);
    assert_eq!(snap.completed, 3);
    assert!(snap.counters_balanced());
    // An *observed* error is not double-counted.
    assert!(engine
        .submit_pipeline(slow_job(&failing, n))
        .expect("submit")
        .wait()
        .is_err());
    assert_eq!(engine.snapshot().unobserved_errors, 2);
}

#[test]
fn no_wait_hangs_across_shutdown_worker_panic_and_drop_orderings() {
    let n = 512;
    let gain = gain_spec(8);

    // (a) Explicit shutdown with work still queued: queued tasks abort
    // with a typed error; nothing hangs.
    let engine = Engine::builder().workers(1).build().expect("engine");
    let spec = slow_pipeline(n, 240);
    let busy = engine.submit_pipeline(slow_job(&spec, n)).expect("submit");
    let queued: Vec<_> = (0..4)
        .map(|_| {
            engine
                .submit(Job::new(&gain).data(vec![1.0; 8]))
                .expect("submit")
        })
        .collect();
    // Let the worker dequeue the slow job so it is genuinely running
    // (not merely queued) when the shutdown drain happens.
    wait_queue_depth_at_most(&engine, 4);
    engine.shutdown();
    // The running job finished; the queued ones either ran before the
    // drain or were aborted with the shutdown error — never a hang.
    busy.wait().expect("running job finishes across shutdown");
    for handle in queued {
        match handle.wait() {
            Ok(data) => assert_eq!(data, vec![1.0; 8]),
            Err(ComputeError::EngineShutdown) => {}
            other => panic!("expected Ok or EngineShutdown, got {other:?}"),
        }
    }

    // (b) A worker panic mid-job resolves that job with a typed error
    // and the engine keeps serving on a replaced context.
    let engine = Engine::builder().workers(1).build().expect("engine");
    let bomb = Arc::new(
        KernelSpec::new("bomb")
            .input("x")
            .uniform_f32("boom", 1.0)
            .output(n)
            .body("return fetch_x(idx) * boom;"),
    );
    let panicking = Arc::new(
        PipelineSpec::builder("panics")
            .source_len("x", n)
            .pass(
                PassSpec::new(&bomb)
                    .read("x", "x")
                    .write_len("x", n)
                    .uniform_per_iter("boom", |_| panic!("injected worker panic")),
            )
            .iterations(2)
            .build()
            .expect("spec"),
    );
    match engine
        .submit_pipeline(slow_job(&panicking, n))
        .expect("submit")
        .wait()
    {
        Err(ComputeError::EngineInternal { message }) => {
            assert!(message.contains("panicked"), "message: {message}");
        }
        other => panic!("expected EngineInternal, got {other:?}"),
    }
    let ok = engine
        .submit(Job::new(&gain).data(vec![2.0; 8]))
        .expect("submit")
        .wait()
        .expect("job after panic");
    assert_eq!(ok, vec![2.0; 8]);
    let snap = engine.snapshot();
    assert_eq!(snap.failed, 1);
    assert!(snap.counters_balanced());
    engine.shutdown();

    // (c) Dropping the engine with handles still held: every handle
    // resolves (result or typed abort) before the drop returns.
    let engine = Engine::builder().workers(1).build().expect("engine");
    let busy = engine.submit_pipeline(slow_job(&spec, n)).expect("submit");
    wait_queue_depth_at_most(&engine, 0);
    let tail = engine
        .submit(Job::new(&gain).data(vec![4.0; 8]))
        .expect("submit");
    drop(engine);
    busy.wait().expect("running job finishes across drop");
    match tail.wait() {
        Ok(data) => assert_eq!(data, vec![4.0; 8]),
        Err(ComputeError::EngineShutdown) => {}
        other => panic!("expected Ok or EngineShutdown, got {other:?}"),
    }
}
