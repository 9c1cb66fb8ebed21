//! Failure injection across the stack: every error path a real GLES2
//! app can hit must surface as a typed error, never a wrong answer or a
//! panic.

use gpes::gles2::{Context, GlError, PrimitiveMode, TexFormat};
use gpes::glsl::exec::ExecLimits;
use gpes::prelude::*;

const VS: &str = "attribute vec2 a_pos;\nvoid main() { gl_Position = vec4(a_pos, 0.0, 1.0); }";
const FS: &str = "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }";
const QUAD: [f32; 12] = [
    -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, //
    -1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
];

#[test]
fn draw_without_program_or_attributes() {
    let mut gl = Context::new(4, 4).expect("context");
    let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 3).unwrap_err();
    assert!(matches!(err, GlError::InvalidOperation { .. }));

    let prog = gl.create_program(VS, FS).expect("program");
    gl.use_program(prog).expect("use");
    // No a_pos array bound.
    let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 3).unwrap_err();
    assert!(err.to_string().contains("a_pos"), "{err}");
}

#[test]
fn bad_draw_counts() {
    let mut gl = Context::new(4, 4).expect("context");
    let prog = gl.create_program(VS, FS).expect("program");
    gl.use_program(prog).expect("use");
    gl.set_attribute("a_pos", 2, &QUAD).expect("attrib");
    let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 4).unwrap_err();
    assert!(err.to_string().contains("multiple of 3"));
    let err = gl
        .draw_arrays(PrimitiveMode::TriangleStrip, 0, 2)
        .unwrap_err();
    assert!(matches!(err, GlError::InvalidValue { .. }));
    // Attribute array shorter than the draw range.
    let err = gl.draw_arrays(PrimitiveMode::Triangles, 3, 6).unwrap_err();
    assert!(err.to_string().contains("too short"));
}

#[test]
fn deleted_and_stale_objects() {
    let mut gl = Context::new(4, 4).expect("context");
    let tex = gl.create_texture();
    gl.delete_texture(tex);
    let err = gl
        .tex_image_2d(tex, TexFormat::Rgba8, 1, 1, &[0, 0, 0, 0])
        .unwrap_err();
    assert!(matches!(
        err,
        GlError::NoSuchObject {
            kind: "texture",
            ..
        }
    ));
    let fb = gl.create_framebuffer();
    let err = gl.framebuffer_texture(fb, tex).unwrap_err();
    assert!(matches!(err, GlError::NoSuchObject { .. }));
}

#[test]
fn incomplete_fbo_blocks_draws_and_reads() {
    let mut gl = Context::new(4, 4).expect("context");
    let prog = gl.create_program(VS, FS).expect("program");
    gl.use_program(prog).expect("use");
    gl.set_attribute("a_pos", 2, &QUAD).expect("attrib");
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).expect("bind");
    let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 6).unwrap_err();
    assert!(matches!(err, GlError::InvalidFramebufferOperation { .. }));
    let err = gl.read_pixels(0, 0, 1, 1).unwrap_err();
    assert!(matches!(err, GlError::InvalidFramebufferOperation { .. }));
    // Attaching storage-less texture is still incomplete.
    let tex = gl.create_texture();
    gl.framebuffer_texture(fbo, tex).expect("attach");
    let err = gl.check_framebuffer_complete().unwrap_err();
    assert!(err.to_string().contains("no storage"));
}

#[test]
fn read_pixels_out_of_bounds() {
    let gl = Context::new(4, 4).expect("context");
    let err = gl.read_pixels(2, 2, 4, 4).unwrap_err();
    assert!(matches!(err, GlError::InvalidValue { .. }));
}

#[test]
fn loop_budget_traps_runaway_shaders() {
    let mut gl = Context::new(2, 2).expect("context");
    gl.set_exec_limits(ExecLimits {
        max_loop_iterations: 1000,
        max_call_depth: 8,
    });
    let fs = "precision highp float;\n\
              void main() {\n\
                float acc = 0.0;\n\
                for (float i = 0.0; i < 100000.0; i += 1.0) { acc += 1.0; }\n\
                gl_FragColor = vec4(acc);\n\
              }";
    let prog = gl.create_program(VS, fs).expect("program");
    gl.use_program(prog).expect("use");
    gl.set_attribute("a_pos", 2, &QUAD).expect("attrib");
    let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 6).unwrap_err();
    assert!(matches!(err, GlError::ShaderTrap(_)), "{err}");
}

#[test]
fn unwritten_gl_position_culls_silently() {
    // GL leaves gl_Position undefined when unwritten; this implementation
    // zero-initialises it, so w = 0 and every triangle is culled — the
    // draw "succeeds" and produces nothing, a classic GPGPU footgun the
    // stats make visible.
    let mut gl = Context::new(2, 2).expect("context");
    let vs = "attribute vec2 a_pos;\nvoid main() { float unused = a_pos.x; }";
    let prog = gl.create_program(vs, FS).expect("program");
    gl.use_program(prog).expect("use");
    gl.set_attribute("a_pos", 2, &QUAD).expect("attrib");
    let stats = gl
        .draw_arrays(PrimitiveMode::Triangles, 0, 6)
        .expect("draw");
    assert_eq!(stats.triangles_in, 2);
    assert_eq!(stats.triangles_rasterized, 0);
    assert_eq!(stats.fragments_shaded, 0);
}

#[test]
fn uniform_errors() {
    let mut gl = Context::new(2, 2).expect("context");
    let fs = "precision highp float;\nuniform float u_gain;\n\
              void main() { gl_FragColor = vec4(u_gain); }";
    let prog = gl.create_program(VS, fs).expect("program");
    gl.use_program(prog).expect("use");
    // Unknown name.
    let err = gl
        .set_uniform("u_nope", gpes::glsl::Value::Float(1.0))
        .unwrap_err();
    assert!(matches!(err, GlError::InvalidOperation { .. }));
    // Type mismatch.
    let err = gl
        .set_uniform("u_gain", gpes::glsl::Value::Vec2([0.0, 1.0]))
        .unwrap_err();
    assert!(matches!(err, GlError::InvalidOperation { .. }));
}

#[test]
fn specials_flushed_when_configured() {
    // FloatSpecials::Flush drops the §IV-E special-value branches: the
    // exponent-255 pattern reconstructs as (1+m)·2¹²⁸, which saturates to
    // ±∞ in fp32 — so NaN payloads silently become infinities (the naive
    // shader behaviour), while Preserve keeps them NaN.
    let v = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5];
    for (specials, nan_stays_nan) in [
        (FloatSpecials::Preserve, true),
        (FloatSpecials::Flush, false),
    ] {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        cc.set_float_specials(specials);
        let arr = cc.upload(&v).expect("upload");
        let k = Kernel::builder("id")
            .input("x", &arr)
            .output(ScalarType::F32, v.len())
            .body("return fetch_x(idx);")
            .build(&mut cc)
            .expect("build");
        let out = cc.run_f32(&k).expect("run");
        assert_eq!(
            out[0].is_nan(),
            nan_stays_nan,
            "{specials:?}: NaN came back as {}",
            out[0]
        );
        if specials == FloatSpecials::Preserve {
            assert_eq!(out[1], f32::INFINITY);
            assert_eq!(out[2], f32::NEG_INFINITY);
        } else {
            // Naive shader code packs ∞ through log2/exp2 arithmetic that
            // saturates: the value (and even its sign) is implementation
            // garbage. The only guarantee is that finite data is safe.
            assert!(!out[1].is_nan());
        }
        assert_eq!(out[3], 1.5, "{specials:?}: finite values must be exact");
    }
}

#[test]
fn scissor_confines_writes() {
    let mut gl = Context::new(4, 4).expect("context");
    let prog = gl.create_program(VS, FS).expect("program");
    gl.use_program(prog).expect("use");
    gl.set_attribute("a_pos", 2, &QUAD).expect("attrib");
    gl.set_scissor(Some((1, 1, 2, 2)));
    let stats = gl
        .draw_arrays(PrimitiveMode::Triangles, 0, 6)
        .expect("draw");
    assert_eq!(stats.pixels_written, 4);
    let px = gl.read_pixels(0, 0, 4, 4).expect("read");
    let at = |x: usize, y: usize| px[(y * 4 + x) * 4];
    assert_eq!(at(0, 0), 0);
    assert_eq!(at(1, 1), 255);
    assert_eq!(at(2, 2), 255);
    assert_eq!(at(3, 3), 0);
}

#[test]
fn compute_context_surfaces_shader_errors_with_source_context() {
    let mut cc = ComputeContext::new(8, 8).expect("context");
    let x = cc.upload(&[1.0f32]).expect("x");
    // A type error inside the body.
    let err = Kernel::builder("broken")
        .input("x", &x)
        .output(ScalarType::F32, 1)
        .body("return fetch_x(idx) + true;")
        .build(&mut cc)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("check") || msg.contains("type") || msg.contains("operand"),
        "{msg}"
    );
}

#[test]
fn preprocessor_error_directive_reaches_the_driver_log() {
    let mut gl = Context::new(2, 2).expect("context");
    let fs = "precision highp float;\n#ifndef HAVE_FEATURE\n#error feature missing\n#endif\n\
              void main() { gl_FragColor = vec4(1.0); }";
    let err = gl.create_program(VS, fs).unwrap_err();
    assert!(err.to_string().contains("feature missing"), "{err}");
}

// ---- injected driver faults (FaultPlan) ----------------------------------
//
// Engine-level contracts for the deterministic fault layer: every
// injected failure surfaces as the right typed error on the job handle
// (or is healed by the retry policy), and a lost context is rebuilt with
// residents transparently re-uploaded. These run under whichever
// `GPES_TEST_DISPATCH` leg CI selects — fault decisions are per-worker
// and independent of the rasteriser dispatch.

use gpes::core::CachePolicy;
use std::sync::Arc;

fn saxpy(n: usize) -> Arc<KernelSpec> {
    Arc::new(
        KernelSpec::new("faults_saxpy")
            .input("x")
            .input("y")
            .uniform_f32("alpha", 2.0)
            .output(n)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
    )
}

fn ramp(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| (i as f32 - 7.0) * scale).collect()
}

#[test]
fn fault_plan_same_seed_same_injection_sequence() {
    // Determinism end to end: two contexts driven through the identical
    // operation sequence under same-seed plans fail at identical points.
    let drive = || -> (Vec<bool>, u64) {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        cc.install_fault_plan(FaultPlan::new(77).rate_all(0.25));
        let mut outcomes = Vec::new();
        for i in 0..200 {
            match cc.upload(&[i as f32, 1.0, 2.0, 3.0]) {
                Ok(array) => {
                    outcomes.push(true);
                    cc.recycle_array(array);
                }
                Err(_) => outcomes.push(false),
            }
        }
        (outcomes, cc.faults_injected())
    };
    let (first, injected_first) = drive();
    let (second, injected_second) = drive();
    assert_eq!(first, second, "same seed must fail at the same operations");
    assert_eq!(injected_first, injected_second);
    assert!(
        injected_first > 0 && first.iter().any(|ok| *ok),
        "a 25% rate over 200 uploads must both inject and pass"
    );
}

#[test]
fn context_loss_poisons_every_live_handle() {
    let mut gl = Context::new(4, 4).expect("context");
    let prog = gl.create_program(VS, FS).expect("program before loss");
    gl.use_program(prog).expect("use before loss");
    // Lose the context on the very next faultable operation.
    gl.install_fault_plan(FaultPlan::new(3).lose_context_after(0));
    let err = gl.read_pixels(0, 0, 1, 1).unwrap_err();
    assert!(matches!(err, GlError::ContextLost), "{err}");
    assert!(gl.is_lost());
    // Every handle into the lost context is dead, exactly like
    // EGL_CONTEXT_LOST — even ones created before the loss.
    let err = gl.use_program(prog).unwrap_err();
    assert!(matches!(err, GlError::ContextLost), "{err}");
    let tex = gl.create_texture();
    let err = gl
        .tex_image_2d(tex, TexFormat::Rgba8, 1, 1, &[0; 4])
        .unwrap_err();
    assert!(matches!(err, GlError::ContextLost), "{err}");
}

#[test]
fn every_fault_site_surfaces_as_typed_error_on_the_handle() {
    let n = 16;
    let spec = saxpy(n);
    for site in FaultSite::ALL {
        // Program links bypass the context under the shared cache (they
        // happen inside the cache, once per process) — injecting at that
        // site needs the per-context policy, where workers link locally.
        let policy = match site {
            FaultSite::ProgramLink => CachePolicy::PerContext,
            _ => CachePolicy::Shared,
        };
        let engine = Engine::builder()
            .workers(1)
            .cache_policy(policy)
            .fault_plan(FaultPlan::new(1).fail_next(site, u64::MAX))
            .retry_policy(RetryPolicy::none())
            .build()
            .expect("engine");
        let job = Job::new(&spec).data(ramp(n, 1.0)).data(ramp(n, 0.5));
        let err = engine.submit(job).expect("admitted").wait().unwrap_err();
        assert!(
            err.is_transient(),
            "{site:?}: {err} must classify transient"
        );
        match &err {
            ComputeError::Gl(GlError::ResourceExhausted { message }) => assert!(
                message.contains(site.label()),
                "{site:?}: message `{message}` names the wrong site"
            ),
            other => panic!("{site:?}: expected ResourceExhausted, got {other:?}"),
        }
        let snap = engine.snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(
            snap.retried, 0,
            "{site:?}: RetryPolicy::none must not retry"
        );
        assert!(snap.faults_injected >= 1);
        assert!(snap.counters_balanced());
        engine.shutdown();
    }
}

#[test]
fn transient_fault_is_retried_to_success() {
    let n = 16;
    let spec = saxpy(n);
    let x = ramp(n, 1.0);
    let y = ramp(n, 0.5);
    let expected: Vec<f32> = x.iter().zip(&y).map(|(a, b)| 2.0 * a + b).collect();
    let engine = Engine::builder()
        .workers(1)
        // Exactly one injected failure: the first readback fails, the
        // requeued retry succeeds.
        .fault_plan(FaultPlan::new(5).fail_next(FaultSite::Readback, 1))
        .build()
        .expect("engine");
    let job = Job::new(&spec).data(x).data(y);
    let out = engine
        .submit(job)
        .expect("admitted")
        .wait()
        .expect("healed");
    assert_eq!(out, expected, "retried job must produce the exact answer");
    let snap = engine.snapshot();
    assert_eq!(snap.submitted, 1, "a retry is not a new submission");
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.retried, 1);
    assert_eq!(snap.faults_injected, 1);
    assert!(snap.counters_balanced());
    engine.shutdown();
}

#[test]
fn exhausted_retries_surface_the_transient_error() {
    let n = 16;
    let spec = saxpy(n);
    let engine = Engine::builder()
        .workers(1)
        .fault_plan(FaultPlan::new(5).fail_next(FaultSite::Readback, u64::MAX))
        .retry_policy(RetryPolicy {
            max_attempts: 3,
            backoff: std::time::Duration::ZERO,
        })
        .build()
        .expect("engine");
    let job = Job::new(&spec).data(ramp(n, 1.0)).data(ramp(n, 0.5));
    let err = engine.submit(job).expect("admitted").wait().unwrap_err();
    assert!(err.is_transient(), "{err}");
    let snap = engine.snapshot();
    assert_eq!(snap.retried, 2, "3 attempts = first + 2 retries");
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.failed, 1);
    assert!(snap.counters_balanced());
    engine.shutdown();
}

#[test]
fn per_job_retry_policy_overrides_the_engine_default() {
    let n = 16;
    let spec = saxpy(n);
    let engine = Engine::builder()
        .workers(1)
        .fault_plan(FaultPlan::new(5).fail_next(FaultSite::Readback, u64::MAX))
        .build()
        .expect("engine");
    // The engine default would retry; this job opts out.
    let job = Job::new(&spec)
        .data(ramp(n, 1.0))
        .data(ramp(n, 0.5))
        .retry_policy(RetryPolicy::none());
    let err = engine.submit(job).expect("admitted").wait().unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert_eq!(engine.snapshot().retried, 0);
    engine.shutdown();
}

#[test]
fn context_loss_rebuilds_worker_and_reuploads_residents() {
    let n = 16;
    let spec = saxpy(n);
    let x = ramp(n, 1.0);
    let y = ramp(n, 0.5);
    let resident = ResidentInput::new(y.clone());
    let expected: Vec<f32> = x.iter().zip(&y).map(|(a, b)| 2.0 * a + b).collect();
    let engine = Engine::builder()
        .workers(1)
        // One-shot loss a few operations in: it lands mid-stream while
        // jobs (and the resident texture) are in active use.
        .fault_plan(FaultPlan::new(9).lose_context_after(7))
        .build()
        .expect("engine");
    for wave in 0..6 {
        let job = Job::new(&spec).data(x.clone()).resident(&resident);
        let out = engine
            .submit(job)
            .expect("admitted")
            .wait()
            .unwrap_or_else(|e| panic!("wave {wave}: {e}"));
        assert_eq!(out, expected, "wave {wave}: healed output must be exact");
    }
    let snap = engine.snapshot();
    assert_eq!(snap.recovered_contexts, 1, "one-shot loss = one rebuild");
    assert!(snap.retried >= 1, "the in-flight job was replayed");
    assert_eq!(snap.completed, 6);
    assert_eq!(snap.failed, 0);
    assert!(
        snap.residents.uploads >= 2,
        "resident must re-upload after the rebuild (uploads = {})",
        snap.residents.uploads
    );
    assert!(snap.counters_balanced());
    engine.shutdown();
}

#[test]
fn panic_rebuild_reuploads_residents() {
    // Satellite regression: the worker-panic rebuild path drops resident
    // textures and the per-worker pipeline cache with the dead context,
    // and the next job using the resident transparently re-uploads it.
    let n = 16;
    let spec = saxpy(n);
    let x = ramp(n, 1.0);
    let y = ramp(n, 0.5);
    let resident = ResidentInput::new(y.clone());
    let expected: Vec<f32> = x.iter().zip(&y).map(|(a, b)| 2.0 * a + b).collect();
    let engine = Engine::builder().workers(1).build().expect("engine");
    let before = engine
        .submit(Job::new(&spec).data(x.clone()).resident(&resident))
        .expect("admitted")
        .wait()
        .expect("job before panic");
    assert_eq!(before, expected);
    assert_eq!(engine.snapshot().residents.uploads, 1);

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
    let err = engine
        .submit(PipelineJob::new(&panicking).source(x.clone()).read("x"))
        .expect("admitted")
        .wait()
        .unwrap_err();
    assert!(matches!(err, ComputeError::EngineInternal { .. }), "{err}");

    let after = engine
        .submit(Job::new(&spec).data(x).resident(&resident))
        .expect("admitted")
        .wait()
        .expect("job after panic rebuild");
    assert_eq!(after, expected, "post-rebuild output must be exact");
    let snap = engine.snapshot();
    assert_eq!(snap.recovered_contexts, 1, "panic = one context rebuild");
    assert_eq!(
        snap.residents.uploads, 2,
        "resident must re-upload exactly once after the rebuild"
    );
    assert_eq!(snap.failed, 1);
    assert!(snap.counters_balanced());
    engine.shutdown();
}

#[test]
fn batch_and_pipeline_jobs_heal_transient_faults_too() {
    let n = 16;
    let gain = Arc::new(
        KernelSpec::new("faults_gain")
            .input("x")
            .uniform_f32("gain", 3.0)
            .output(n)
            .body("return fetch_x(idx) * gain;"),
    );
    let x = ramp(n, 1.0);
    let expected: Vec<f32> = x.iter().map(|a| a * 3.0).collect();
    let engine = Engine::builder()
        .workers(1)
        .fault_plan(FaultPlan::new(13).fail_next(FaultSite::Readback, 1))
        .build()
        .expect("engine");
    let mut submission = Submission::new();
    let step = submission.step(
        &gain,
        vec![gpes::core::serve::JobInput::Data(Arc::new(x.clone()))],
        vec![],
    );
    submission.read(step);
    let result = engine
        .submit(submission)
        .expect("admitted")
        .wait()
        .expect("healed batch");
    assert_eq!(result.output(step).expect("read"), &expected[..]);
    let snap = engine.snapshot();
    assert_eq!(snap.retried, 1);
    assert_eq!(snap.failed, 0);
    assert!(snap.counters_balanced());
    engine.shutdown();
}

#[test]
fn a_failed_draw_gives_its_render_target_back() {
    // A draw that fails its framebuffer check must return the render
    // target it acquired to the pool: five failed dispatches create one
    // target between them, not one each.
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let x = cc.upload(&ramp(16, 1.0)).expect("x");
    let k = Kernel::builder("faults_double")
        .input("x", &x)
        .output(ScalarType::F32, 16)
        .body("return fetch_x(idx) * 2.0;")
        .build(&mut cc)
        .expect("kernel");
    let mut created = Vec::new();
    for _ in 0..5 {
        cc.install_fault_plan(FaultPlan::new(3).fail_next(FaultSite::FramebufferCheck, 1));
        let err = cc.run_to_array::<f32>(&k).unwrap_err();
        assert!(err.is_transient(), "{err}");
        created.push(cc.stats().textures_created);
    }
    assert!(
        created.iter().all(|&c| c == created[0]),
        "textures created after each failed draw: {created:?}"
    );
}

#[test]
fn a_failed_upload_gives_its_texture_back() {
    // An upload whose image fails must return the texture it took: five
    // failed uploads and one clean one create one texture between them,
    // not one each.
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let x = ramp(16, 1.0);
    let mut created = Vec::new();
    for _ in 0..5 {
        cc.install_fault_plan(FaultPlan::new(3).fail_next(FaultSite::TextureUpload, 1));
        let err = cc.upload(&x).unwrap_err();
        assert!(err.is_transient(), "{err}");
        created.push(cc.stats().textures_created);
    }
    let array = cc.upload(&x).expect("clean upload");
    created.push(cc.stats().textures_created);
    assert_eq!(created, vec![1; 6], "textures created after each upload");
    let read = cc.read_array(&array, Readback::DirectFbo).expect("read");
    assert_eq!(read, x);
}

#[test]
fn a_submission_failing_mid_dag_gives_its_textures_back() {
    // A four-step chain under a seeded framebuffer-check fault rate, with
    // retries off: some waves fail part-way through the chain, after
    // earlier steps drew. Each failure surfaces as the typed transient
    // error, and once one wave has warmed the worker's pool, no wave —
    // failed or not — creates a texture: a failed run gives back its
    // uploads, its live intermediates and the target of the failed draw.
    let n = 64;
    let gain = Arc::new(
        KernelSpec::new("faults_gain")
            .input("x")
            .uniform_f32("gain", 3.0)
            .output(n)
            .body("return fetch_x(idx) * gain;"),
    );
    let x = Arc::new(ramp(n, 1.0));
    let engine = Engine::builder()
        .workers(1)
        .dispatch(Dispatch::Serial)
        .fault_plan(FaultPlan::new(21).rate(FaultSite::FramebufferCheck, 0.2))
        .build()
        .expect("engine");
    let wave = || {
        let mut submission = Submission::new();
        submission.retry_policy(RetryPolicy::none());
        let mut prev = gpes::core::serve::JobInput::Data(Arc::clone(&x));
        for _ in 0..4 {
            prev = submission.step(&gain, vec![prev], vec![]).into();
        }
        engine.submit(submission).expect("admitted").wait()
    };
    let stats = || engine.worker_stats()[0];
    let (mut warm, mut failed_mid_dag) = (false, 0);
    for round in 0..24 {
        let before = stats();
        let result = wave();
        let after = stats();
        let created = after.textures_created - before.textures_created;
        match result {
            Ok(_) => {
                if warm {
                    assert_eq!(created, 0, "round {round}: a warm wave creates no textures");
                }
                warm = true;
            }
            Err(err) => {
                assert!(err.is_transient(), "round {round}: {err}");
                if warm {
                    assert_eq!(created, 0, "round {round}: a failed warm wave creates none");
                }
                if warm && after.spmd_batches > before.spmd_batches {
                    failed_mid_dag += 1;
                }
            }
        }
    }
    assert!(failed_mid_dag > 0, "no warm wave failed after a step drew");
}
