//! `reproduce` — regenerates every table and figure of the paper's
//! evaluation section on the simulated platform, and diffs two runs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gpes-bench --bin reproduce -- [SECTION ...|all] [--json PATH] [--repeat K]
//! cargo run --release -p gpes-bench --bin reproduce -- --diff FRESH.json [BASE.json]
//! ```
//!
//! Each section is timed. The gated sections (a9–a16) hold their
//! contracts in their report's `violations()`; any violation is printed
//! and the run exits 1 (2 on an unknown section). `--json PATH` writes a
//! `gpes-bench/1` document with host info, per-section timing, every
//! record and every violation (of the first run under `--repeat`).
//!
//! `--repeat K` runs the named sections K times and exits 1 if any exact
//! field differs between runs, printing the record key, the field and
//! each run's value: an exact field must read the same on every run of
//! the same code for `--diff` to mean anything.
//!
//! `--diff` prints the markdown `record::diff` of two such documents;
//! BASE defaults to the newest `BENCH_<n>.json` in the working directory
//! whose schema is `gpes-bench/1`. It exits 0 whatever drifted.

use gpes_bench::record::{
    diff, document, read_document, unrepeated, Document, ReadError, Record, Report, SectionRun,
    Value,
};
use gpes_bench::{ablations, e1, e2, figures};
use std::error::Error;
use std::time::Instant;

/// A section's rows and broken contracts.
type Outcome = Result<(Vec<Record>, Vec<String>), Box<dyn Error>>;

/// Prints a report's records and hands back its rows and violations.
fn gated(report: &impl Report) -> Outcome {
    let records = report.records();
    for record in &records {
        println!("{record}");
    }
    Ok((records, report.violations()))
}

fn heading(title: &str) {
    println!();
    println!("==== {title} ====");
}

fn run_e1() -> Outcome {
    heading("E1: §V speedup table (modelled Raspberry Pi 1, measured shader profiles)");
    println!("workloads: sum on 2 x 1Mi elements; gemm on 1024x1024 matrices");
    println!("(functional validation runs on the simulator at calibration sizes)");
    let rows = e1::run(1 << 20, 1024)?;
    for row in &rows {
        println!("{}", row.format());
    }
    println!();
    println!("note: absolute times are analytic estimates; the paper's exact");
    println!("experimental conditions are under-specified (see EXPERIMENTS.md).");
    println!("The reproduced *shape*: the GPU wins on every configuration and");
    println!("integer speedups exceed floating-point speedups.");
    Ok((rows.iter().map(|r| r.record("e1")).collect(), Vec::new()))
}

fn run_sweep() -> Outcome {
    heading("E1 sweep: sum (int) across sizes — locating the crossover");
    let mut rows = e1::sum_sweep(&[256, 1024, 4096, 16384, 65536, 1 << 18, 1 << 20, 1 << 22])?;
    for row in &rows {
        println!("{}", row.format());
    }
    heading("E1 sweep: sgemm (fp) across sizes");
    let gemm = e1::gemm_sweep(&[16, 32, 64, 128, 256, 512, 1024])?;
    for row in &gemm {
        println!("{}", row.format());
    }
    rows.extend(gemm);
    Ok((rows.iter().map(|r| r.record("sweep")).collect(), Vec::new()))
}

fn run_e2() -> Outcome {
    heading("E2: §V precision (mantissa agreement, 23 = bit-exact fp32)");
    for row in e2::run(4096)? {
        println!("{}", row.format());
    }
    let samples = gpes_kernels::data::random_f32(4096, 299, 1.0e20);
    println!(
        "host-side transform exact on 4096 random values: {}",
        e2::host_transform_exact(&samples)
    );
    println!();
    println!("paper: \"accurate … within the 15 most significant bits of the");
    println!("mantissa\" on the GPU; \"the same transformations on the CPU are");
    println!("precise\" — reproduced by Vc4Sfu vs Exact rows above.");
    Ok(Default::default())
}

fn run_f1() -> Outcome {
    heading("F1: the graphics pipeline of Figure 1, as stage counters");
    let stats = figures::pipeline_trace(1000)?;
    println!("{}", figures::format_pipeline(&stats));
    Ok(Default::default())
}

fn run_f2() -> Outcome {
    heading("F2: Figure 2 — CPU (IEEE 754) vs GPU texel byte layout");
    println!(
        "{:>16}  {:<22} rotated texel bytes",
        "value", "ieee bytes (LE)"
    );
    for &v in figures::F2_SAMPLES {
        println!("{}", figures::float_layout_row(v));
    }
    Ok(Default::default())
}

fn run_a1() -> Outcome {
    heading("A1/A2: output byte bias x framebuffer store rounding");
    for row in ablations::a1_pack_bias()? {
        println!("{}", row.format());
    }
    Ok(Default::default())
}

fn run_a3() -> Outcome {
    heading("A3: fragment dispatch parallelism and small draws (simulator host throughput)");
    let outcome = gated(&ablations::a3_dispatch(1 << 16)?);
    println!(
        "each rate is the median (min, max) of {} timed runs after a warm-up;",
        ablations::TIMED_RUNS
    );
    println!("the small draws show the per-draw cost band threads add under Auto");
    outcome
}

fn run_a4() -> Outcome {
    heading("A4: readback strategies (workaround #7)");
    let result = ablations::a4_readback(1000)?;
    println!(
        "all strategies bit-identical: {}\n\
         kernel-ordering / direct-FBO passes: {}\n\
         copy-shader passes: {} (one extra full-screen pass)",
        result.all_equal, result.direct_passes, result.copy_shader_passes
    );
    Ok(Default::default())
}

fn run_a5() -> Outcome {
    heading("A5: §VI related work — paper u32 codec vs Strzodka VMV'02 virtual-16");
    for row in ablations::a5_strzodka_baseline(4096)? {
        println!("{}", row.format_row());
    }
    println!();
    println!("paper §VI: the baseline's custom split format costs a per-element");
    println!("CPU transformation both ways and caps precision at 16 bits, while");
    println!("the paper's 2's-complement codec uploads unmodified integers and");
    println!("keeps 24 exact bits — at half the texel density, float included.");
    Ok(Default::default())
}

fn run_a6() -> Outcome {
    heading("A6: §II.5-6 — vendor half-float extensions vs the paper's packing");
    for row in ablations::a6_half_float(4096)? {
        println!("{}", row.format_row());
    }
    println!();
    println!("paper: fp16 extensions are \"neither enough nor portable\" — the");
    println!("extension path needs two vendor extensions and keeps 10 mantissa");
    println!("bits with a 65504 range cap; the paper's RGBA8 packing runs on");
    println!("core ES 2 and keeps 15-23 bits at full f32 range.");
    Ok(Default::default())
}

fn run_a7() -> Outcome {
    heading("A7: channel packing (the §V 'not optimised' headroom)");
    for row in ablations::a7_channel_packing(4096)? {
        println!("{}", row.format_row());
    }
    println!();
    println!("packing all texel channels cuts fragment invocations and texture");
    println!("fetches per value — one of the optimisations §V says would");
    println!("increase performance further.");
    Ok(Default::default())
}

fn run_a9() -> Outcome {
    heading("A9: host compile/bind split — rebuild-per-pass vs retained pipeline");
    let outcome = gated(&ablations::a9_host_cache(1 << 12, 24)?);
    println!();
    println!("`rebuild/pass` re-generates and links shaders inside the iteration");
    println!("loop (the pre-split idiom, program cache off); `retained` declares");
    println!("the dag once through Pipeline: in-loop compiles drop to zero and");
    println!("steady-state iteration allocates no GL objects (pool hits instead).");
    outcome
}

fn run_a10() -> Outcome {
    heading("A10: concurrent serving — shared vs per-context program caches");
    let outcome = gated(&ablations::a10_serving(1 << 12, 48)?);
    println!();
    println!("an Engine serves kernel mixes from worker pools; with the");
    println!("process-wide shared cache each kernel links exactly once");
    println!("(post-warmup links stay 0 at every pool size), while");
    println!("per-context caches relink on every worker. All served outputs");
    println!("are asserted bit-identical to direct serial dispatch. jobs/s");
    println!("scaling across workers tracks physical cores.");
    outcome
}

fn run_a11() -> Outcome {
    heading("A11: pipeline serving — engine jobs vs direct runs vs per-pass DAGs");
    let outcome = gated(&ablations::a11_pipeline_serving()?);
    println!();
    println!("whole retained pipelines (fft/srad/reduce) served as single engine");
    println!("jobs: workers cache the built pipeline by spec hash, so the");
    println!("steady-state wave links zero programs and creates zero GL objects,");
    println!("and every served output is bit-identical to the direct");
    println!("retained-Pipeline run. The per-pass rows flatten the same passes");
    println!("into Submission DAGs; the worker recycles each intermediate once");
    println!("its last reader has dispatched, so even the deep chains (fft: 12");
    println!("same-shape steps) hold only their live textures, and their steady");
    println!("wave also links nothing and creates no GL objects (gated too).");
    outcome
}

fn run_a12() -> Outcome {
    heading("A12: serving latency under saturation — bounded admission observed");
    let outcome = gated(&ablations::a12_latency_under_load(1 << 12, 192)?);
    println!();
    println!("an open-loop producer floods a 2-worker engine past its queue");
    println!("bound: admission rejects with QueueFull instead of blocking,");
    println!("expired deadlines are shed at dequeue before any GPU work, and");
    println!("cancellation revokes queued jobs. The snapshot's outcome counters");
    println!("balance exactly (submitted = completed + rejected + shed +");
    println!("cancelled + aborted) and the queue/service histograms separate");
    println!("time-waiting from time-serving.");
    outcome
}

fn run_a13() -> Outcome {
    heading("A13: chaos serving — deterministic fault injection, self-healing gated");
    let outcome = gated(&ablations::a13_chaos(1 << 12, 96)?);
    println!();
    println!("the a12 open-loop load re-run under seeded per-worker FaultPlans:");
    println!("every failure site (link, alloc, upload, framebuffer, readback)");
    println!("armed at the row's rate, plus a one-shot context loss a few");
    println!("operations in. Workers retry transient failures and rebuild lost");
    println!("contexts (re-adopting shared programs, re-uploading residents");
    println!("lazily), so completed outputs stay bit-identical to the");
    println!("fault-free reference at every rate — chaos may slow or fail jobs");
    println!("with typed errors, never corrupt them.");
    outcome
}

fn run_a14() -> Outcome {
    heading("A14: multi-tenant dynamic kernel registry — admission and quotas gated");
    let outcome = gated(&ablations::a14_registry(1 << 10, 24)?);
    println!();
    println!("five tenants share one 2-worker engine. alpha/beta/gamma register");
    println!("kernels from GLSL source through the staged admission pipeline");
    println!("(signature -> parse -> Appendix-A strictness -> sema) and serve");
    println!("steady waves; mallory hammers admission with garbage, undeclared");
    println!("identifiers, non-constant loops and oversized outputs; noisy is");
    println!("quota-capped at two in-flight jobs and floods from its own thread.");
    println!("every invalid source that reaches the front end must run it:");
    println!("only accepted shaders enter the admission table.");
    outcome
}

fn run_a15() -> Outcome {
    heading("A15: shader executors — tree vs spmd1/4/8, codec slice paths");
    let outcome = gated(&ablations::a15_spmd(1 << 13, 48, ablations::TIMED_RUNS)?);
    println!();
    println!("the bytecode VM lowers each linked shader once and shades");
    println!("vertices and band fragments in lockstep lanes over one shared");
    println!("bytecode walk. Under divergence only writes below a deferred");
    println!("context's stack or locals depth are masked, so the sign-mixed");
    println!("and same-sign sum rows read alike. Every row is bit-identical to");
    println!(
        "the tree-walking oracle and reads the median (min, max) of {} timed",
        ablations::TIMED_RUNS
    );
    println!("runs after a warm-up; the mix speedups are taken against one-lane");
    println!("batches. The codec rows compare the old per-value encode/decode");
    println!("loops with the single-pass slice paths the buffers now call.");
    outcome
}

fn run_a16() -> Outcome {
    heading("A16: quantized CNN serving — u8/i16 end-to-end, quant vs f32 paths");
    let outcome = gated(&ablations::a16_quant_cnn(24)?);
    println!();
    println!("a 16x16 u8 image runs conv-pool-conv-pool-dense-max entirely");
    println!("GPU-side: activations stay u8 textures between passes, weights");
    println!("are i16 ResidentInputs uploaded once per worker, and the scores");
    println!("come back as i16 — f32_transfers counts every f32 tensor that");
    println!("crossed the host boundary in the steady wave and must read 0 on");
    println!("the quantized rows.");
    outcome
}

/// Runs one section, printing its tables.
type Run = fn() -> Outcome;

/// Every section, in `all` order.
const SECTIONS: [(&str, Run); 19] = [
    ("e1", run_e1),
    ("sweep", run_sweep),
    ("e2", run_e2),
    ("f1", run_f1),
    ("f2", run_f2),
    ("a1", run_a1),
    ("a3", run_a3),
    ("a4", run_a4),
    ("a5", run_a5),
    ("a6", run_a6),
    ("a7", run_a7),
    ("a9", run_a9),
    ("a10", run_a10),
    ("a11", run_a11),
    ("a12", run_a12),
    ("a13", run_a13),
    ("a14", run_a14),
    ("a15", run_a15),
    ("a16", run_a16),
];

fn usage(problem: &str) -> ! {
    let names: Vec<_> = SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "{problem}; usage: reproduce [SECTION ...] [--json PATH] [--repeat K] with SECTION one \
         of {}|all, \
         or reproduce --diff FRESH.json [BASE.json]",
        names.join("|")
    );
    std::process::exit(2);
}

/// The recording host: effective cores, source revision, platform.
fn host() -> Vec<(String, Value)> {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let platform = format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH);
    vec![
        ("cpus".into(), cpus.into()),
        ("git_rev".into(), git_rev.into()),
        ("platform".into(), platform.into()),
    ]
}

/// The text of the file at `path`, or an error naming it.
fn read_text(path: &str) -> Result<String, Box<dyn Error>> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}").into())
}

/// The newest `BENCH_<n>.json` in the working directory whose schema is
/// `gpes-bench/1`, read.
fn newest_baseline() -> Result<Option<(String, Document)>, Box<dyn Error>> {
    let mut numbered = Vec::new();
    for entry in std::fs::read_dir(".")? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let n = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"));
        if let Some(n) = n.and_then(|n| n.parse::<u64>().ok()) {
            numbered.push((n, name));
        }
    }
    numbered.sort();
    for (_, path) in numbered.into_iter().rev() {
        match read_document(&read_text(&path)?) {
            Ok(doc) => return Ok(Some((path, doc))),
            Err(ReadError::Schema(_)) => continue,
            Err(e) => return Err(format!("{path}: {e}").into()),
        }
    }
    Ok(None)
}

/// `reproduce --diff FRESH [BASE]`: prints the markdown diff.
fn run_diff(fresh: &str, base: Option<&str>) -> Result<(), Box<dyn Error>> {
    let read = |path: &str| -> Result<_, Box<dyn Error>> {
        read_document(&read_text(path)?).map_err(|e| format!("{path}: {e}").into())
    };
    let fresh = read(fresh)?;
    let base = match base {
        Some(path) => Some((path.to_owned(), read(path)?)),
        None => newest_baseline()?,
    };
    let base = base.as_ref().map(|(path, doc)| (path.as_str(), doc));
    println!("{}", diff(&fresh, base));
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut json = None;
    let mut repeats = 1;
    let mut wanted = Vec::new();
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("--diff") {
        let paths: Vec<String> = args.collect();
        return match paths.as_slice() {
            [fresh] => run_diff(fresh, None),
            [fresh, base] => run_diff(fresh, Some(base)),
            _ => usage("--diff needs FRESH.json and at most one BASE.json"),
        };
    }
    let mut args = first.into_iter().chain(args);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(args.next().unwrap_or_else(|| usage("--json needs a PATH"))),
            "--repeat" => {
                let k = args.next().and_then(|k| k.parse::<usize>().ok());
                repeats = k
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| usage("--repeat needs K > 0"));
            }
            "a2" => wanted.push("a1"),
            "all" => wanted.extend(SECTIONS.map(|(name, _)| name)),
            name => match SECTIONS.iter().find(|(n, _)| *n == name) {
                Some((name, _)) => wanted.push(name),
                None => usage(&format!("unknown experiment `{name}`")),
            },
        }
    }

    // Sections run once each per repeat, in `all` order; none named
    // means all.
    let mut rounds = Vec::new();
    for round in 1..=repeats {
        if repeats > 1 {
            println!("\n######## run {round} of {repeats} ########");
        }
        let mut runs = Vec::new();
        for (name, run) in SECTIONS {
            if !wanted.is_empty() && !wanted.contains(&name) {
                continue;
            }
            let start = Instant::now();
            let (records, violations) = run()?;
            runs.push(SectionRun {
                name: name.to_owned(),
                host_seconds: start.elapsed().as_secs_f64(),
                records,
                violations,
            });
        }
        rounds.push(runs);
    }
    if let Some(path) = json {
        std::fs::write(path, document(&host(), &rounds[0]))?;
    }
    let records: Vec<Vec<Record>> = rounds
        .iter()
        .map(|runs| runs.iter().flat_map(|r| r.records.clone()).collect())
        .collect();
    let moved = unrepeated(&records);
    if !moved.is_empty() {
        eprintln!(
            "\n{} exact field(s) differ across {repeats} runs:",
            moved.len()
        );
        for line in &moved {
            eprintln!("  - {line}");
        }
    }
    let violations: Vec<&String> = rounds
        .iter()
        .flatten()
        .flat_map(|r| &r.violations)
        .collect();
    if !violations.is_empty() {
        eprintln!("\n{} contract violation(s):", violations.len());
        for violation in &violations {
            eprintln!("  - {violation}");
        }
    }
    if !moved.is_empty() || !violations.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}
