//! The measurement: repeated set-up, the closed-loop timed window on the
//! engine, and (traced runs) a served probe wave replayed twice on a direct
//! context, untraced then traced.

use crate::trace::{Layer, Tracer};
use crate::workloads::{direct_context, Workload, DISPATCH, EXEC, WORKERS};
use gpes_core::{
    CompletionSet, ComputeContext, ComputeError, ContextStats, Engine, EngineSnapshot,
    LatencyHistogram, SharedProgramCache,
};
use gpes_perf::{estimate_gpu, gpu_run_from_passes, Vc4Gpu};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Warm-up waves allowed before set-up gives up on reaching steady state.
const MAX_WARM_WAVES: usize = 16;
/// Request ids the replay contexts warm up on, far from any served id.
const REPLAY_WARM_BASE: u64 = 1 << 30;

/// What one run measured. `end_to_end` and `per_layer` hold
/// `(name, value, unit)`; `per_layer` is empty on untraced runs.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub exec_mode: String,
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
}

#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    /// `(completed at, latency)` per completed request, `completed at`
    /// measured from the start of the window.
    latencies: Vec<(Duration, Duration)>,
}

enum Stop {
    After(Duration),
    Count(u64),
}

/// The closed-loop client: keeps `in_flight` requests outstanding, starts
/// the next only when one completes, and times each from just before its
/// `start` until its result is in hand and the request is ended.
fn drive<W: Workload>(w: &mut W, engine: &Engine, next_id: &mut u64, stop: Stop) -> Window {
    let mut set = CompletionSet::new();
    let mut started: HashMap<u64, (u64, Instant)> = HashMap::new();
    let mut win = Window::default();
    let begin = Instant::now();
    loop {
        while set.len() < w.in_flight()
            && match stop {
                Stop::After(d) => begin.elapsed() < d,
                Stop::Count(n) => win.attempted < n,
            }
        {
            let id = *next_id;
            *next_id += 1;
            win.attempted += 1;
            let t0 = Instant::now();
            match w.start(engine, id) {
                Ok(handle) => {
                    started.insert(set.insert(handle), (id, t0));
                }
                Err(e) => {
                    eprintln!("servebench: request {id} refused: {e}");
                    win.failed += 1;
                }
            }
        }
        let Some((token, result)) = set.wait_any() else {
            break;
        };
        let (id, t0) = started.remove(&token).expect("every token was recorded");
        w.end(id);
        win.latencies.push((begin.elapsed(), t0.elapsed()));
        let ok = match result {
            Ok(served) => w.check(id, W::output(served)),
            Err(e) => {
                eprintln!("servebench: request {id} failed: {e}");
                false
            }
        };
        if !ok {
            win.failed += 1;
        }
    }
    win
}

#[allow(clippy::needless_update)] // stays correct if ContextStats grows fields
fn delta(after: &ContextStats, before: &ContextStats) -> ContextStats {
    ContextStats {
        programs_linked: after.programs_linked - before.programs_linked,
        programs_adopted: after.programs_adopted - before.programs_adopted,
        program_cache_hits: after.program_cache_hits - before.program_cache_hits,
        textures_created: after.textures_created - before.textures_created,
        texture_pool_hits: after.texture_pool_hits - before.texture_pool_hits,
        textures_recycled: after.textures_recycled - before.textures_recycled,
        spmd_batches: after.spmd_batches - before.spmd_batches,
        scalar_fallbacks: after.scalar_fallbacks - before.scalar_fallbacks,
        f32_host_transfers: after.f32_host_transfers - before.f32_host_transfers,
        quantized_host_transfers: after.quantized_host_transfers - before.quantized_host_transfers,
        ..ContextStats::default()
    }
}

fn links(s: &EngineSnapshot) -> u64 {
    s.shared_cache.map_or(0, |c| c.links)
}

/// Builds an engine, attaches the workload and warms it until a full wave
/// is steady. Returns the engine, the set-up time and the warm-up requests.
fn setup<W: Workload>(
    w: &mut W,
    next_id: &mut u64,
) -> Result<(Engine, Duration, Window), ComputeError> {
    let t0 = Instant::now();
    let engine = Engine::builder()
        .workers(WORKERS)
        .dispatch(DISPATCH)
        .exec_mode(EXEC)
        .build()?;
    w.attach(&engine)?;
    let mut warm = Window::default();
    for _ in 0..MAX_WARM_WAVES {
        let before = engine.snapshot();
        let wave = drive(w, &engine, next_id, Stop::Count(w.wave()));
        let after = engine.snapshot();
        warm.attempted += wave.attempted;
        warm.failed += wave.failed;
        if w.steady(
            &delta(&after.context, &before.context),
            links(&after) - links(&before),
        ) {
            return Ok((engine, t0.elapsed(), warm));
        }
    }
    Err(ComputeError::EngineInternal {
        message: format!("no steady state after {MAX_WARM_WAVES} warm-up waves"),
    })
}

/// Exact mean of the samples recorded between two snapshots of one
/// histogram, in ms (to the histogram's 1 µs resolution).
fn window_mean_ms(before: &LatencyHistogram, after: &LatencyHistogram) -> f64 {
    let total = |h: &LatencyHistogram| h.mean_micros() as f64 * h.count() as f64;
    let n = after.count().saturating_sub(before.count());
    if n == 0 {
        return 0.0;
    }
    (total(after) - total(before)) / n as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Nearest-rank quantile of client-side latencies, in ms.
fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Throughput and p90 latency (ms) of the window, each the median over
/// its one-second slices, so a host slowdown covering less than half of the
/// window barely moves them. A slice's throughput is its completions over
/// the time between its first and last one. Requests completing while the
/// in-flight work drains, after the window, are left out.
fn window_figures(win: &Window, seconds: f64) -> (f64, f64) {
    let count = (seconds.round() as usize).max(1);
    let width = seconds / count as f64;
    let mut slices: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); count];
    for &(at, latency) in &win.latencies {
        if let Some(slice) = slices.get_mut((at.as_secs_f64() / width) as usize) {
            slice.push((at, latency));
        }
    }
    let (mut rps, mut p90) = (Vec::new(), Vec::new());
    for slice in slices.iter().filter(|s| s.len() >= 2) {
        let span = (slice[slice.len() - 1].0 - slice[0].0).as_secs_f64();
        if span > 0.0 {
            let mut latencies: Vec<Duration> = slice.iter().map(|s| s.1).collect();
            latencies.sort();
            rps.push((slice.len() - 1) as f64 / span);
            p90.push(quantile_ms(&latencies, 0.90));
        }
    }
    if rps.is_empty() {
        return (0.0, 0.0);
    }
    (median(&mut rps), median(&mut p90))
}

/// High-water resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One replay pass over a fresh worker-configured context.
struct Replay {
    /// Replayed requests in the counted pass.
    requests: u64,
    /// Every replayed request, warm-up included, and how many failed.
    attempted: u64,
    failed: u64,
    elapsed: Duration,
    stats: ContextStats,
    links: u64,
    tracer: Tracer,
    model: gpes_perf::GpuEstimate,
    fs_ops: u64,
    passes: u64,
}

fn replay_pass<W: Workload>(
    w: &mut W,
    cache: &Arc<SharedProgramCache>,
    ids: std::ops::Range<u64>,
    traced: bool,
) -> Result<Replay, ComputeError> {
    let mut cc: ComputeContext = direct_context()?;
    cc.set_shared_program_cache(Arc::clone(cache));
    w.replay_setup(&mut cc)?;
    let mut warm_id = REPLAY_WARM_BASE;
    let (mut attempted, mut failed) = (0, 0);
    for wave in 0.. {
        let (before, links0) = (cc.stats(), cache.stats().links);
        for _ in 0..w.wave() {
            let mut scratch = Tracer::new(false);
            let out = w.replay(&mut cc, warm_id, &mut scratch)?;
            attempted += 1;
            failed += u64::from(!w.check(warm_id, out));
            warm_id += 1;
        }
        if w.steady(&delta(&cc.stats(), &before), cache.stats().links - links0) {
            break;
        }
        if wave + 1 == MAX_WARM_WAVES {
            return Err(ComputeError::EngineInternal {
                message: "replay context never reached steady state".into(),
            });
        }
    }
    cc.take_pass_log();
    let (before, links0) = (cc.stats(), cache.stats().links);
    let mut tracer = Tracer::new(traced);
    let mut log = Vec::new();
    let requests = ids.end - ids.start;
    let t0 = Instant::now();
    for id in ids {
        let start = tracer.open();
        let out = w.replay(&mut cc, id, &mut tracer);
        tracer.close(id, Layer::Request, start);
        match out {
            Ok(out) => failed += u64::from(!w.check(id, out)),
            Err(e) => {
                eprintln!("servebench: replay of request {id} failed: {e}");
                failed += 1;
            }
        }
        log.append(&mut cc.take_pass_log());
    }
    let elapsed = t0.elapsed();
    let links = cache.stats().links - links0;
    let run = gpu_run_from_passes(&log, links, tracer.upload_bytes, tracer.readback_bytes);
    Ok(Replay {
        requests,
        attempted: attempted + requests,
        failed,
        elapsed,
        stats: delta(&cc.stats(), &before),
        links,
        model: estimate_gpu(&Vc4Gpu::raspberry_pi1(), &run),
        fs_ops: run.fs_profile.total_ops(),
        passes: run.passes,
        tracer,
    })
}

/// Runs one workload: set-up, the timed window and, when `trace_to` is
/// given, the probe wave and replays, writing the spans there.
pub fn run<W: Workload>(
    w: &mut W,
    seconds: f64,
    trace_to: Option<&Path>,
) -> Result<Report, ComputeError> {
    let mut next_id = 0u64;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut engine: Option<Engine> = None;
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..SETUP_REPS {
        if let Some(old) = engine.take() {
            old.shutdown();
        }
        let (fresh, took, warm) = setup(w, &mut next_id)?;
        attempted += warm.attempted;
        failed += warm.failed;
        setup_s.push(took.as_secs_f64());
        engine = Some(fresh);
    }
    let engine = engine.expect("SETUP_REPS > 0");

    let before = engine.snapshot();
    let win = drive(
        w,
        &engine,
        &mut next_id,
        Stop::After(Duration::from_secs_f64(seconds)),
    );
    let after = engine.snapshot();
    let peak_rss = peak_rss_mib();
    attempted += win.attempted;
    failed += win.failed;

    let (rps, p90) = window_figures(&win, seconds);
    let mean_latency_ms = win
        .latencies
        .iter()
        .map(|l| l.1)
        .sum::<Duration>()
        .as_secs_f64()
        * 1e3
        / win.latencies.len().max(1) as f64;
    let end_to_end = vec![
        ("throughput_rps", rps, "1/s"),
        ("setup_s", median(&mut setup_s), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];

    let mut per_layer = Vec::new();
    if let Some(path) = trace_to {
        let cache = engine
            .cache()
            .cloned()
            .ok_or_else(|| ComputeError::EngineInternal {
                message: "engine has no shared program cache".into(),
            })?;
        let first = next_id;
        let p0 = engine.snapshot();
        let probe = drive(w, &engine, &mut next_id, Stop::Count(w.replays()));
        let p1 = engine.snapshot();
        attempted += probe.attempted;
        failed += probe.failed;
        let ids = first..next_id;
        let bare = replay_pass(w, &cache, ids.clone(), false)?;
        let rep = replay_pass(w, &cache, ids, true)?;
        attempted += bare.attempted + rep.attempted;
        failed += bare.failed + rep.failed;
        let served_stats = delta(&p1.context, &p0.context);
        let served_links = links(&p1) - links(&p0);
        if (served_stats, served_links) != (rep.stats, rep.links) {
            return Err(ComputeError::EngineInternal {
                message: format!(
                    "replay does not do the served work: served {served_stats:?} links \
                     {served_links}, replay {:?} links {}",
                    rep.stats, rep.links
                ),
            });
        }
        if let Err(e) = rep.tracer.write_jsonl(path) {
            eprintln!(
                "servebench: could not write spans to {}: {e}",
                path.display()
            );
        }

        let n = rep.requests as f64;
        let layer_ms = |layer| rep.tracer.total_ns(layer) as f64 / 1e6 / n;
        let (admission, build, upload, shade, readback) = (
            layer_ms(Layer::Admission),
            layer_ms(Layer::Build),
            layer_ms(Layer::Upload),
            layer_ms(Layer::Shade),
            layer_ms(Layer::Readback),
        );
        let completed = win.latencies.len() as u64;
        let d = delta(&after.context, &before.context);
        let queue_ms = window_mean_ms(&before.queue_latency, &after.queue_latency);
        let service_ms = window_mean_ms(&before.service_latency, &after.service_latency);
        let shared = after.shared_cache.unwrap_or_default();
        let per_request = |v: u64| v as f64 / n;
        let model_ms = |s: f64| s * 1e3 / n;
        per_layer = vec![
            ("glsl.admission_ms", admission, "ms"),
            ("core.build_ms", build, "ms"),
            (
                "core.build_links",
                ratio(links(&after) - links(&before), completed),
                "count",
            ),
            (
                "cache.shared_hit_ratio",
                ratio(shared.hits, shared.hits + shared.misses),
                "ratio",
            ),
            ("core.upload_ms", upload, "ms"),
            (
                "core.upload_bytes",
                per_request(rep.tracer.upload_bytes),
                "bytes",
            ),
            ("core.readback_ms", readback, "ms"),
            (
                "core.readback_bytes",
                per_request(rep.tracer.readback_bytes),
                "bytes",
            ),
            ("gles2.shade_ms", shade, "ms"),
            ("gles2.shade_passes", per_request(rep.passes), "count"),
            ("glsl.fs_ops", per_request(rep.fs_ops), "count"),
            (
                "gles2.shade_ns_per_op",
                shade * 1e6 / per_request(rep.fs_ops).max(1.0),
                "ns",
            ),
            (
                "glsl.spmd_batches",
                per_request(rep.stats.spmd_batches),
                "count",
            ),
            (
                "glsl.scalar_fallbacks",
                per_request(rep.stats.scalar_fallbacks),
                "count",
            ),
            (
                "core.pool_hit_ratio",
                ratio(
                    d.texture_pool_hits,
                    d.texture_pool_hits + d.textures_created,
                ),
                "ratio",
            ),
            (
                "core.pool_textures_created",
                ratio(d.textures_created * 1000, completed),
                "1/1000req",
            ),
            ("latency_p90_ms", p90, "ms"),
            ("serve.queue_wait_ms", queue_ms, "ms"),
            ("serve.service_ms", service_ms, "ms"),
            (
                "serve.worker_overhead_ms",
                service_ms - (build + upload + shade + readback),
                "ms",
            ),
            (
                "serve.handoff_ms",
                mean_latency_ms - admission - queue_ms - service_ms,
                "ms",
            ),
            (
                "serve.resident_hit_ratio",
                ratio(
                    after.residents.hits,
                    after.residents.hits + after.residents.uploads,
                ),
                "ratio",
            ),
            (
                "serve.retried",
                (after.retried - before.retried) as f64,
                "count",
            ),
            (
                "perf.vc4_compile_ms",
                model_ms(rep.model.compile_s),
                "model_ms",
            ),
            (
                "perf.vc4_upload_ms",
                model_ms(rep.model.upload_s),
                "model_ms",
            ),
            ("perf.vc4_exec_ms", model_ms(rep.model.exec_s), "model_ms"),
            (
                "perf.vc4_readback_ms",
                model_ms(rep.model.readback_s),
                "model_ms",
            ),
            (
                "perf.vc4_overhead_ms",
                model_ms(rep.model.overhead_s),
                "model_ms",
            ),
            ("vc4_model_ms", model_ms(rep.model.total()), "model_ms"),
            (
                "trace.overhead_share",
                rep.elapsed.as_secs_f64() / bare.elapsed.as_secs_f64() - 1.0,
                "ratio",
            ),
        ];
    }

    failed += w.finish_checks()?;
    if trace_to.is_some() {
        per_layer.push(("failed_share", ratio(failed, attempted), "ratio"));
    }
    let exec_mode = engine.snapshot().exec_mode;
    engine.shutdown();
    Ok(Report {
        attempted,
        failed,
        exec_mode,
        end_to_end,
        per_layer,
    })
}
