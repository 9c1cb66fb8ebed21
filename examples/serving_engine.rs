//! Serving-engine demo: a pool of worker contexts drains a queue of
//! compute requests behind one process-wide program cache. One
//! `Engine::submit` takes every request — a `Job`, a `Submission` DAG or
//! a `PipelineJob` — and hands back a handle typed by it.
//!
//! Run with `cargo run --example serving_engine`.

use gpes::core::serve::JobInput;
use gpes::glsl::Value;
use gpes::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 2048;
    const REQUESTS: usize = 32;

    let engine = Engine::builder().workers(4).build()?;
    println!(
        "engine up: {} workers, shared program cache ({} entries)",
        engine.workers(),
        engine.cache().map(|c| c.len()).unwrap_or(0),
    );

    // One spec, many requests — the serving analog of CNNdroid running
    // one compiled layer over a stream of inputs.
    let saxpy = Arc::new(
        KernelSpec::new("saxpy")
            .input("x")
            .input("y")
            .uniform_f32("alpha", 1.0)
            .output(N)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
    );
    let x: Arc<Vec<f32>> = Arc::new((0..N).map(|i| i as f32 * 0.25).collect());
    let y: Arc<Vec<f32>> = Arc::new((0..N).map(|i| 100.0 - i as f32 * 0.125).collect());

    let start = Instant::now();
    let handles: Vec<_> = (0..REQUESTS)
        .map(|r| {
            let job = Job::new(&saxpy)
                .data_shared(&x)
                .data_shared(&y)
                .uniform_f32("alpha", r as f32 + 0.5);
            engine.submit(job).expect("submit")
        })
        .collect();
    for (r, handle) in handles.into_iter().enumerate() {
        let out = handle.wait()?;
        let expect = (r as f32 + 0.5) * x[7] + y[7];
        assert_eq!(out[7], expect);
    }
    let elapsed = start.elapsed();
    println!(
        "{REQUESTS} saxpy requests ({N} elements each) in {:.1} ms — {:.0} jobs/s",
        elapsed.as_secs_f64() * 1e3,
        REQUESTS as f64 / elapsed.as_secs_f64(),
    );

    // A batched DAG: blur → gain chained on the GPU, one queue trip; the
    // same `submit` returns a `BatchResult` handle for it.
    let blur = Arc::new(
        KernelSpec::new("blur3")
            .input("x")
            .uniform_f32("last", N as f32 - 1.0)
            .output(N)
            .body(
                "float a = fetch_x(max(idx - 1.0, 0.0));\n\
                 float b = fetch_x(idx);\n\
                 float c = fetch_x(min(idx + 1.0, last));\n\
                 return (a + b + c) / 3.0;",
            ),
    );
    let gain = Arc::new(
        KernelSpec::new("gain")
            .input("x")
            .uniform_f32("gain", 1.0)
            .output(N)
            .body("return fetch_x(idx) * gain;"),
    );
    let mut sub = Submission::new();
    let s0 = sub.step(&blur, vec![JobInput::Data(Arc::clone(&x))], vec![]);
    let s1 = sub.step(
        &gain,
        vec![s0.into()],
        vec![("gain".to_owned(), Value::Float(2.0))],
    );
    sub.read(s1);
    let batch = engine.submit(sub)?.wait()?;
    println!(
        "batch DAG blur→gain done; output[1] = {}",
        batch.output(s1).expect("marked step")[1]
    );

    // Steps may be typed: a u8 tensor through a u8 kernel stays bytes
    // on the way in, between steps and on the way back.
    let brighten = Arc::new(
        KernelSpec::new("brighten")
            .input_typed("x", ScalarType::U8)
            .output_typed(ScalarType::U8, 4)
            .body("return min(fetch_x(idx) + 100.0, 255.0);"),
    );
    let mut sub = Submission::new();
    let pixels = Arc::new(TensorData::U8(vec![0, 50, 100, 200]));
    let lit = sub.step(&brighten, vec![JobInput::Tensor(pixels)], vec![]);
    let twice = sub.step(&brighten, vec![lit.into()], vec![]);
    let bytes = engine.submit(sub)?.wait()?;
    let bytes = bytes.tensor(twice).expect("final step is read");
    assert_eq!(bytes, &TensorData::U8(vec![200, 250, 255, 255]));
    println!("u8 DAG brighten→brighten done; bytes = {bytes:?}");

    // A whole retained pipeline as one job: x ← blur(x) four times, all
    // iterations on the worker's GPU, the built pipeline cached by spec
    // hash so repeat submissions link nothing and allocate nothing.
    let smooth = Arc::new(
        PipelineSpec::builder("smooth4")
            .source_len("x", N)
            .pass(PassSpec::new(&blur).read("x", "x").write_len("x", N))
            .iterations(4)
            .build()?,
    );
    // Constant inputs can be made resident: uploaded once per worker,
    // then referenced by every later job without a host→GPU transfer.
    let resident_x = ResidentInput::new(x.as_ref().clone());
    for wave in 0..3 {
        let job = PipelineJob::new(&smooth)
            .source_resident(&resident_x)
            .read("x");
        let result = engine.submit(job)?.wait()?;
        println!(
            "pipeline wave {wave}: smooth4 output[1] = {}",
            result.output("x").expect("marked buffer")[1]
        );
    }
    let residents = engine.resident_stats();
    println!(
        "resident uploads {} / hits {} across {} workers",
        residents.iter().map(|s| s.uploads).sum::<u64>(),
        residents.iter().map(|s| s.hits).sum::<u64>(),
        engine.workers(),
    );

    println!(
        "programs linked process-wide: {} (over {} dispatches on {} workers)",
        engine.programs_linked(),
        REQUESTS + 4,
        engine.workers(),
    );

    // Traffic-shaped serving: a deliberately tight queue so admission
    // visibly pushes back. try_submit never blocks — a full queue is a
    // typed QueueFull the caller handles (here: drain one completion
    // and retry); expired deadlines are shed before any GPU work, and
    // a CompletionSet multiplexes every in-flight handle on one wait.
    let bounded = Engine::builder().workers(2).queue_capacity(4).build()?;
    let mut set = CompletionSet::new();
    let (mut admitted, mut rejected) = (0u32, 0u32);
    while admitted < 24 {
        let mut job = Job::new(&saxpy)
            .data_shared(&x)
            .data_shared(&y)
            .uniform_f32("alpha", 2.0);
        if admitted.is_multiple_of(6) {
            // An SLO the queue has already blown: shed, not executed.
            job = job.timeout(std::time::Duration::ZERO);
        }
        match bounded.try_submit(job) {
            Ok(handle) => {
                set.insert(handle);
                admitted += 1;
            }
            Err(ComputeError::QueueFull { .. }) => {
                rejected += 1;
                if let Some((_token, result)) = set.wait_any() {
                    match result {
                        Ok(_) | Err(ComputeError::DeadlineExceeded { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    while let Some((_token, result)) = set.wait_any() {
        match result {
            Ok(_) | Err(ComputeError::DeadlineExceeded { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    let snap = bounded.snapshot();
    println!(
        "bounded engine: {admitted} admitted, {rejected} rejected at the bound; \
         snapshot: {} completed, {} rejected, {} shed (balanced: {})",
        snap.completed,
        snap.rejected,
        snap.shed,
        snap.counters_balanced(),
    );
    println!(
        "queue wait   {}\nservice time {}",
        snap.queue_latency.format_summary(),
        snap.service_latency.format_summary(),
    );

    // Self-healing under injected faults: a seeded FaultPlan arms every
    // driver failure site and loses the worker's GL context mid-wave.
    // The engine retries transient failures and rebuilds the lost
    // context (shared programs re-adopted, residents re-uploaded
    // lazily), so every wave still completes bit-identically — chaos
    // shows up only in the snapshot's diagnostic counters.
    let chaotic = Engine::builder()
        .workers(1)
        .fault_plan(
            FaultPlan::new(0xC0FFEE)
                .fail_next(FaultSite::Readback, 3)
                .lose_context_after(10),
        )
        .retry_policy(RetryPolicy {
            max_attempts: 6,
            backoff: std::time::Duration::ZERO,
        })
        .build()?;
    let reference = {
        let handle = engine.submit(
            Job::new(&saxpy)
                .data_shared(&x)
                .data_shared(&y)
                .uniform_f32("alpha", 3.5),
        )?;
        handle.wait()?
    };
    for wave in 0..8 {
        let out = chaotic
            .submit(
                Job::new(&saxpy)
                    .data_shared(&x)
                    .data_shared(&y)
                    .uniform_f32("alpha", 3.5),
            )?
            .wait()?;
        assert_eq!(out, reference, "wave {wave} diverged under chaos");
    }
    let chaos = chaotic.snapshot();
    println!(
        "chaos engine: 8 waves bit-identical through {} injected faults — \
         {} retried, {} context rebuilt, {} failed (balanced: {})",
        chaos.faults_injected,
        chaos.retried,
        chaos.recovered_contexts,
        chaos.failed,
        chaos.counters_balanced(),
    );
    assert_eq!(chaos.recovered_contexts, 1);
    Ok(())
}
