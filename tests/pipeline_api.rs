//! Tier-1 integration tests for the compile/bind split: cached programs,
//! rebindable dispatches, the retained `Pipeline`, and the steady-state
//! zero-new-GL-objects guarantee.

use gpes::core::SourceSeed;
use gpes::glsl::Value;
use gpes::prelude::*;
use std::sync::Arc;

/// Builds the two-kernel "blur then gain" chain used by the differential
/// tests: `mid = (x[i-1] + x[i] + x[i+1]) / 3`, `x' = mid * gain`.
fn build_chain(cc: &mut ComputeContext, x: &GpuArray<f32>, n: usize) -> (Kernel, Kernel) {
    let blur = Kernel::builder("blur3")
        .input("x", x)
        .uniform_f32("last", n as f32 - 1.0)
        .output(ScalarType::F32, n)
        .body(
            "float a = fetch_x(max(idx - 1.0, 0.0));\n\
             float b = fetch_x(idx);\n\
             float c = fetch_x(min(idx + 1.0, last));\n\
             return (a + b + c) / 3.0;",
        )
        .build(cc)
        .expect("blur");
    let gain = Kernel::builder("gain")
        .input("m", x)
        .uniform_f32("gain", 1.0)
        .output(ScalarType::F32, n)
        .body("return fetch_m(idx) * gain;")
        .build(cc)
        .expect("gain");
    (blur, gain)
}

fn source_data(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.37).sin() * 8.0 + 0.25)
        .collect()
}

/// A pass log without the pool provenance flag (the manual path allocates
/// fresh targets where the pipeline recycles; everything else must match).
fn log_essence(log: Vec<gpes::core::PassRecord>) -> Vec<(String, gpes::gles2::DrawStats, u64)> {
    log.into_iter()
        .map(|p| (p.kernel, p.stats, p.output_texels))
        .collect()
}

#[test]
fn pipeline_matches_manual_chain_bit_for_bit() {
    let n = 300usize;
    let iterations = 6usize;
    let data = source_data(n);

    // Manual path: the pre-split idiom — rebuild and rebind by hand every
    // iteration (the program cache makes the rebuilds free, but each
    // dispatch is driven explicitly).
    let mut manual_cc = ComputeContext::new(32, 32).expect("context");
    let mut current = manual_cc.upload(&data).expect("upload");
    let (blur, gain) = build_chain(&mut manual_cc, &current, n);
    for step in 0..iterations {
        let mid: GpuArray<f32> = manual_cc
            .run_to_array_with(&blur, &Bindings::new().input("x", &current))
            .expect("blur pass");
        let next: GpuArray<f32> = manual_cc
            .run_to_array_with(
                &gain,
                &Bindings::new()
                    .input("m", &mid)
                    .uniform_f32("gain", 1.0 + step as f32 * 0.125),
            )
            .expect("gain pass");
        manual_cc.recycle_array(current);
        manual_cc.recycle_array(mid);
        current = next;
    }
    let manual_out = manual_cc
        .read_array(&current, Readback::DirectFbo)
        .expect("read");
    let manual_log = log_essence(manual_cc.take_pass_log());

    // Pipeline path: the same dag declared once.
    let mut pipe_cc = ComputeContext::new(32, 32).expect("context");
    let x = pipe_cc.upload(&data).expect("upload");
    let (blur, gain) = build_chain(&mut pipe_cc, &x, n);
    let pipeline = Pipeline::builder("blur_gain")
        .source("x", &x)
        .pass(Pass::new(&blur).read("x", "x").write_len("mid", n))
        .pass(
            Pass::new(&gain)
                .read("m", "mid")
                .write_len("x", n)
                .uniform_per_iter("gain", |step| Value::Float(1.0 + step as f32 * 0.125)),
        )
        .iterations(iterations)
        .build()
        .expect("pipeline");
    let run = pipeline.run(&mut pipe_cc).expect("run");
    let pipe_out: Vec<f32> = run.read(&mut pipe_cc, "x").expect("read");
    run.finish(&mut pipe_cc);
    let pipe_log = log_essence(pipe_cc.take_pass_log());

    assert_eq!(pipe_out, manual_out, "outputs must be bit-identical");
    assert_eq!(pipe_log, manual_log, "pass logs must be identical");

    // And the retained run again, byte-identical, with zero new objects.
    let before = pipe_cc.stats();
    let again: Vec<f32> = pipeline
        .run_and_read(&mut pipe_cc, "x")
        .expect("second run");
    assert_eq!(again, pipe_out);
    let after = pipe_cc.stats();
    assert_eq!(
        after.gl_objects_created(),
        before.gl_objects_created(),
        "steady-state iteration must create no GL objects"
    );
}

#[test]
fn screen_routed_final_pass_matches_texture_readback() {
    // run_and_read routes the final pass to the default framebuffer
    // (workaround #7 kernel ordering); bytes must equal the run() +
    // direct-FBO path.
    let n = 120usize;
    let data = source_data(n);
    let mut cc = ComputeContext::new(32, 32).expect("context");
    let x = cc.upload(&data).expect("upload");
    let (blur, _) = build_chain(&mut cc, &x, n);
    let pipeline = Pipeline::builder("blur_only")
        .source("x", &x)
        .pass(Pass::new(&blur).read("x", "x").write_len("x", n))
        .iterations(4)
        .build()
        .expect("pipeline");
    let via_screen: Vec<f32> = pipeline.run_and_read(&mut cc, "x").expect("screen");
    let run = pipeline.run(&mut cc).expect("run");
    let via_texture: Vec<f32> = run.read(&mut cc, "x").expect("read");
    run.finish(&mut cc);
    assert_eq!(via_screen, via_texture);
}

#[test]
fn bindings_mismatches_are_rejected() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let a = cc.upload(&[1.0f32, 2.0]).expect("a");
    let wrong_type = cc.upload(&[1u32, 2]).expect("u32");
    let k = Kernel::builder("scale")
        .input("x", &a)
        .uniform_f32("gain", 2.0)
        .output(ScalarType::F32, 2)
        .body("return fetch_x(idx) * gain;")
        .build(&mut cc)
        .expect("build");

    // Unknown input name.
    let err = cc
        .run_f32_with(&k, &Bindings::new().input("nope", &a))
        .unwrap_err();
    assert!(err.to_string().contains("no input"), "{err}");
    // Input element-type (encoding) mismatch.
    let err = cc
        .run_f32_with(&k, &Bindings::new().input("x", &wrong_type))
        .unwrap_err();
    assert!(err.to_string().contains("declared"), "{err}");
    // Unknown uniform.
    let err = cc
        .run_f32_with(&k, &Bindings::new().uniform_f32("missing", 1.0))
        .unwrap_err();
    assert!(err.to_string().contains("no uniform"), "{err}");
    // Uniform type mismatch.
    let err = cc
        .run_f32_with(
            &k,
            &Bindings::new().uniform("gain", Value::Vec2([1.0, 2.0])),
        )
        .unwrap_err();
    assert!(err.to_string().contains("bound"), "{err}");
    // Output shape override beyond the texture limit (default max side is
    // 4096, so anything past 4096² texels cannot be laid out).
    let err = cc
        .run_to_array_with::<f32>(&k, &Bindings::new().output_len(100_000_000))
        .unwrap_err();
    assert!(matches!(err, ComputeError::TooLarge { .. }));
    // A valid override set still dispatches fine afterwards.
    let ok = cc
        .run_f32_with(&k, &Bindings::new().uniform_f32("gain", -1.0))
        .expect("valid dispatch");
    assert_eq!(ok, vec![-1.0, -2.0]);
}

#[test]
fn pipeline_wiring_mismatches_are_rejected_at_build() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let a = cc.upload(&[1.0f32, 2.0]).expect("a");
    let k = Kernel::builder("id")
        .input("x", &a)
        .output(ScalarType::F32, 2)
        .body("return fetch_x(idx);")
        .build(&mut cc)
        .expect("build");

    // No write declared.
    let err = Pipeline::builder("p")
        .source("x", &a)
        .pass(Pass::new(&k).read("x", "x"))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("writes no buffer"), "{err}");
    // Read of an undeclared buffer.
    let err = Pipeline::builder("p")
        .pass(Pass::new(&k).read("x", "ghost").write_len("out", 2))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("no buffer"), "{err}");
    // Read wired to an input the kernel does not declare.
    let err = Pipeline::builder("p")
        .source("x", &a)
        .pass(Pass::new(&k).read("y", "x").write_len("out", 2))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("no input"), "{err}");
    // Uniform override for an undeclared uniform.
    let err = Pipeline::builder("p")
        .source("x", &a)
        .pass(
            Pass::new(&k)
                .read("x", "x")
                .write_len("out", 2)
                .uniform("gain", Value::Float(1.0)),
        )
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("no uniform"), "{err}");
    // A read that no source or earlier pass can satisfy on the first
    // iteration is rejected at build instead of failing at runtime.
    let err = Pipeline::builder("p")
        .pass(Pass::new(&k).read("x", "later").write_len("out", 2))
        .pass(Pass::new(&k).read("x", "out").write_len("later", 2))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("before its first write"), "{err}");
    // Ping-pong over unknown buffers.
    let err = Pipeline::builder("p")
        .source("x", &a)
        .pass(Pass::new(&k).read("x", "x").write_len("out", 2))
        .ping_pong("out", "ghost")
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("unknown buffer"), "{err}");
    // Element-type mismatch between a buffer and the reading input.
    let u = cc.upload(&[1u32, 2]).expect("u32");
    let err = Pipeline::builder("p")
        .source("x", &u)
        .pass(Pass::new(&k).read("x", "x").write_len("out", 2))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("wants"), "{err}");
}

#[test]
fn ping_ponged_buffers_read_identically_through_both_apis() {
    // run_and_read must not screen-route a ping-ponged name: the swap
    // after the final iteration re-points it, so the two read paths must
    // agree (regression test for the screen-routing/ping-pong interaction).
    let n = 64usize;
    let data = source_data(n);
    let mut cc = ComputeContext::new(32, 32).expect("context");
    let x = cc.upload(&data).expect("upload");
    let (blur, _) = build_chain(&mut cc, &x, n);
    let pipeline = Pipeline::builder("pp")
        .source("x", &x)
        .pass(Pass::new(&blur).read("x", "x").write_len("x_next", n))
        .ping_pong("x", "x_next")
        .iterations(3)
        .build()
        .expect("pipeline");
    let run = pipeline.run(&mut cc).expect("run");
    let via_run: Vec<f32> = run.read(&mut cc, "x").expect("read");
    run.finish(&mut cc);
    let via_read: Vec<f32> = pipeline.run_and_read(&mut cc, "x").expect("rar");
    assert_eq!(via_run, via_read);
    // The post-swap *back* buffer also agrees across APIs (it holds the
    // previous generation).
    let run = pipeline.run(&mut cc).expect("run 2");
    let back_a: Vec<f32> = run.read(&mut cc, "x_next").expect("read back");
    run.finish(&mut cc);
    let back_b: Vec<f32> = pipeline.run_and_read(&mut cc, "x_next").expect("rar back");
    assert_eq!(back_a, back_b);
}

#[test]
fn conflicting_buffer_kinds_rejected_at_build() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let a = cc.upload(&[1.0f32, 2.0]).expect("a");
    let scalar_k = Kernel::builder("scalar")
        .input("x", &a)
        .output(ScalarType::F32, 2)
        .body("return fetch_x(idx);")
        .build(&mut cc)
        .expect("scalar kernel");
    let texel_k = Kernel::builder("texel")
        .input_raw("x", &a)
        .output_texels(2)
        .body("return fetch_x_texel(idx);")
        .build(&mut cc)
        .expect("texel kernel");
    // Two passes writing `b` with different element kinds: whichever
    // order they appear in, the dag is rejected.
    let err = Pipeline::builder("p")
        .source("x", &a)
        .pass(Pass::new(&scalar_k).read("x", "x").write_len("b", 2))
        .pass(Pass::new(&texel_k).read("x", "x").write_len("b", 2))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("holds"), "{err}");
    let err = Pipeline::builder("p")
        .source("x", &a)
        .pass(Pass::new(&texel_k).read("x", "x").write_len("b", 2))
        .pass(Pass::new(&scalar_k).read("x", "x").write_len("b", 2))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("holds"), "{err}");
}

#[test]
fn new_uniform_types_flow_end_to_end() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let a = cc.upload(&[1.0f32, 2.0, 3.0]).expect("a");
    let mut k = Kernel::builder("mix")
        .input("x", &a)
        .uniform_i32("steps", 2)
        .uniform_vec3("w", [0.5, 0.25, 0.125])
        .uniform_vec4("o", [1.0, 2.0, 3.0, 4.0])
        .output(ScalarType::F32, 3)
        .body(
            "float acc = fetch_x(idx) * w.x + w.y + w.z + o.w;\n\
             for (int i = 0; i < 8; i++) { if (i < steps) acc += 1.0; }\n\
             return acc;",
        )
        .build(&mut cc)
        .expect("build");
    let out = cc.run_f32(&k).expect("run");
    assert_eq!(out, vec![6.875, 7.375, 7.875]);
    // Typed updates through Kernel::set_uniform and Bindings overrides.
    k.set_uniform("steps", Value::Int(0)).expect("set i32");
    let out = cc.run_f32(&k).expect("run");
    assert_eq!(out, vec![4.875, 5.375, 5.875]);
    let mut b = Bindings::new();
    b.set_uniform("w", Value::Vec3([1.0, 0.0, 0.0]));
    b.set_uniform("o", Value::Vec4([0.0, 0.0, 0.0, 0.0]));
    let out = cc.run_f32_with(&k, &b).expect("run");
    assert_eq!(out, vec![1.0, 2.0, 3.0]);
    // Type mismatch through the typed setter is caught.
    assert!(k.set_uniform("steps", Value::Float(1.0)).is_err());
    assert!(k.set_uniform("ghost", Value::Int(1)).is_err());
}

#[test]
fn steady_state_iteration_creates_no_gl_objects() {
    // Warm every cache with one full run, then assert the second run of
    // each ported multi-pass workload allocates nothing.
    let (rows, cols) = (12usize, 10usize);
    let img: Vec<f32> = (0..rows * cols).map(|i| 30.0 + (i % 17) as f32).collect();
    let mut cc = ComputeContext::new(32, 32).expect("context");
    let params = gpes::kernels::srad::SradParams::default();
    let _ = gpes::kernels::srad::run_gpu(&mut cc, rows, cols, &img, params, 3).expect("warmup");
    let warm = cc.stats();
    let _ = gpes::kernels::srad::run_gpu(&mut cc, rows, cols, &img, params, 9).expect("steady");
    let steady = cc.stats();
    assert_eq!(
        steady.gl_objects_created(),
        warm.gl_objects_created(),
        "srad steady state: no new programs or textures"
    );
    assert!(steady.program_cache_hits > warm.program_cache_hits);
    assert!(steady.texture_pool_hits > warm.texture_pool_hits);
}

#[test]
fn dispatching_an_unbound_declared_input_is_a_typed_error() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let a = cc.upload(&[1.0f32, 2.0]).expect("a");
    let k = Kernel::builder("scale")
        .input_declared("x", ScalarType::F32)
        .output(ScalarType::F32, 2)
        .body("return fetch_x(idx) * 3.0;")
        .build(&mut cc)
        .expect("a declared input needs no texture to build");
    let err = cc.run_f32(&k).unwrap_err();
    assert!(matches!(err, ComputeError::BadKernel { .. }), "{err:?}");
    assert!(err.to_string().contains("`x`"), "{err}");
    assert!(cc.run_to_array::<f32>(&k).is_err());
    let out = cc
        .run_f32_with(&k, &Bindings::new().input("x", &a))
        .expect("bound dispatch");
    assert_eq!(out, vec![3.0, 6.0]);
    // A pipeline pass must read it, too.
    let err = Pipeline::builder("p")
        .source("x", &a)
        .pass(Pass::new(&k).write_len("y", 2))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("unbound"), "{err}");
}

#[test]
fn mixed_kind_ping_pong_is_rejected_at_build() {
    // `a` holds f32 and `b` u8: swapping them would make the second
    // iteration decode u8 bytes as f32.
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let a = cc.upload(&[1.0f32, 2.0, 3.0, 4.0]).expect("a");
    let quantize = Kernel::builder("quantize")
        .input("x", &a)
        .output(ScalarType::U8, 4)
        .body("return fetch_x(idx);")
        .build(&mut cc)
        .expect("kernel");
    let err = Pipeline::builder("mixed")
        .source("a", &a)
        .pass(Pass::new(&quantize).read("x", "a").write_len("b", 4))
        .ping_pong("a", "b")
        .iterations(2)
        .build()
        .unwrap_err();
    assert!(matches!(err, ComputeError::BadKernel { .. }), "{err:?}");
    assert!(err.to_string().contains("holds"), "{err}");
}

#[test]
fn an_input_read_from_two_buffers_is_rejected_at_build() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let a = cc.upload(&[1.0f32, 2.0]).expect("a");
    let b = cc.upload(&[3.0f32, 4.0]).expect("b");
    let k = Kernel::builder("id")
        .input("x", &a)
        .output(ScalarType::F32, 2)
        .body("return fetch_x(idx);")
        .build(&mut cc)
        .expect("kernel");
    let err = Pipeline::builder("twice")
        .source("a", &a)
        .source("b", &b)
        .pass(
            Pass::new(&k)
                .read("x", "a")
                .read("x", "b")
                .write_len("y", 2),
        )
        .build()
        .unwrap_err();
    assert!(matches!(err, ComputeError::BadKernel { .. }), "{err:?}");
    assert!(err.to_string().contains("read from 2 buffers"), "{err}");
}

/// The kernels the malformed-dag table wires: `id` copies an f32 input
/// (and declares a `gain` uniform), `quantize` packs an f32 input as u8.
/// Neither input has a default texture.
struct TableKernels<K> {
    id: K,
    quantize: K,
}

/// Every malformed dag, declared through the builder API the core
/// `Pipeline` and the serving `PipelineSpec` share. `source` declares a
/// source of a scalar type the way each builder does. Returns
/// `(case, expected message substring, builder)`.
fn malformed_dags<K: Clone>(
    k: &TableKernels<K>,
    builder: impl Fn() -> gpes::core::PipelineBuilder<K>,
    source: impl Fn(gpes::core::PipelineBuilder<K>, &str, ScalarType) -> gpes::core::PipelineBuilder<K>,
) -> Vec<(&'static str, &'static str, gpes::core::PipelineBuilder<K>)> {
    let f32_src = |name| source(builder(), name, ScalarType::F32);
    let copy = |from: &str, to: &str| Pass::new(&k.id).read("x", from).write_len(to, 4);
    vec![
        ("no passes", "no passes", f32_src("x")),
        (
            "duplicate source",
            "twice",
            source(f32_src("x"), "x", ScalarType::F32).pass(copy("x", "y")),
        ),
        (
            "pass without a write",
            "writes no buffer",
            f32_src("x").pass(Pass::new(&k.id).read("x", "x")),
        ),
        (
            "unknown input",
            "no input",
            f32_src("x").pass(copy("x", "y").read("nope", "x")),
        ),
        (
            "unwired input",
            "unbound",
            f32_src("x").pass(Pass::new(&k.id).write_len("y", 4)),
        ),
        (
            "input read twice",
            "read from 2 buffers",
            f32_src("x").pass(copy("x", "y").read("x", "x")),
        ),
        (
            "read of an unknown buffer",
            "no buffer",
            f32_src("x").pass(copy("ghost", "y")),
        ),
        (
            "read before first write",
            "before its first write",
            f32_src("x")
                .pass(copy("later", "y"))
                .pass(copy("y", "later")),
        ),
        (
            "unknown uniform",
            "no uniform",
            f32_src("x").pass(copy("x", "y").uniform("missing", Value::Float(1.0))),
        ),
        (
            "mistyped uniform",
            "bound",
            f32_src("x").pass(copy("x", "y").uniform("gain", Value::Vec2([1.0, 2.0]))),
        ),
        (
            "mistyped per-iteration uniform name",
            "no uniform",
            f32_src("x").pass(copy("x", "y").uniform_per_iter("gian", |_| Value::Float(1.0))),
        ),
        (
            "unknown ping-pong buffer",
            "unknown buffer",
            f32_src("x").pass(copy("x", "y")).ping_pong("y", "ghost"),
        ),
        (
            "mixed-kind ping-pong",
            "holds",
            f32_src("a")
                .pass(Pass::new(&k.quantize).read("x", "a").write_len("b", 4))
                .ping_pong("a", "b"),
        ),
        (
            "read of the wrong scalar type",
            "holds",
            source(builder(), "x", ScalarType::U8).pass(copy("x", "y")),
        ),
        (
            "rewrite with a different scalar type",
            "holds",
            f32_src("x")
                .pass(copy("x", "y"))
                .pass(Pass::new(&k.quantize).read("x", "x").write_len("y", 4)),
        ),
    ]
}

#[test]
fn malformed_dags_are_rejected_by_pipeline_and_spec_alike() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let xf = cc.upload(&[1.0f32, 2.0, 3.0, 4.0]).expect("f32");
    let xu = cc.upload(&[1u8, 2, 3, 4]).expect("u8");
    let kernel = |name: &str, out: ScalarType| {
        Kernel::builder(name)
            .input_declared("x", ScalarType::F32)
            .uniform_f32("gain", 1.0)
            .output(out, 4)
            .body("return fetch_x(idx) * gain;")
    };
    let core = TableKernels {
        id: kernel("id", ScalarType::F32).build(&mut cc).expect("id"),
        quantize: kernel("quantize", ScalarType::U8)
            .build(&mut cc)
            .expect("quantize"),
    };
    let spec = |name: &str, out: ScalarType| {
        Arc::new(
            KernelSpec::new(name)
                .input("x")
                .uniform_f32("gain", 1.0)
                .output_typed(out, 4)
                .body("return fetch_x(idx) * gain;"),
        )
    };
    let specs = TableKernels {
        id: spec("id", ScalarType::F32),
        quantize: spec("quantize", ScalarType::U8),
    };
    let core_cases = malformed_dags(
        &core,
        || Pipeline::builder("core"),
        |b, name, scalar| match scalar {
            ScalarType::U8 => b.source(name, &xu),
            _ => b.source(name, &xf),
        },
    );
    let spec_cases = malformed_dags(
        &specs,
        || PipelineSpec::builder("spec"),
        |b, name, scalar| b.source_typed(name, scalar),
    );
    assert_eq!(core_cases.len(), spec_cases.len());
    for ((case, want, core), (_, _, spec)) in core_cases.into_iter().zip(spec_cases) {
        for (api, result) in [
            ("Pipeline", core.build().map(|_| ())),
            ("PipelineSpec", spec.build().map(|_| ())),
        ] {
            match result {
                Err(ComputeError::BadKernel { message }) => {
                    assert!(message.contains(want), "{api} / {case}: {message}")
                }
                other => panic!("{api} / {case}: expected BadKernel, got {other:?}"),
            }
        }
    }
}

#[test]
fn an_unseeded_declared_source_is_a_typed_error() {
    // At build, a spec used to bind every source to a 1-texel zero
    // placeholder, so an unseeded run shaded zeros and returned
    // `[1.0; 4]` for `double(x) * 2 + 1`.
    let double = Arc::new(
        KernelSpec::new("double")
            .input("x")
            .output(4)
            .body("return fetch_x(idx) * 2.0 + 1.0;"),
    );
    let spec = PipelineSpec::builder("unseeded")
        .source_len("x", 4)
        .pass(PassSpec::new(&double).read("x", "x").write_len("y", 4))
        .build()
        .expect("spec");
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let served = spec.build(&mut cc).expect("build");
    for result in [
        served.pipeline().run_and_read::<f32>(&mut cc, "y"),
        served
            .pipeline()
            .run_and_read_seeded::<f32>(&mut cc, &[], "y"),
    ] {
        match result {
            Err(ComputeError::BadKernel { message }) => {
                assert!(message.contains("source `x`"), "{message}")
            }
            other => panic!("expected BadKernel, got {other:?}"),
        }
    }
    // Seeded, the same pipeline computes.
    let x = cc.upload(&[1.0f32, 2.0, 3.0, 4.0]).expect("x");
    let out: Vec<f32> = served
        .pipeline()
        .run_and_read_seeded(&mut cc, &[SourceSeed::array("x", &x)], "y")
        .expect("seeded run");
    assert_eq!(out, vec![3.0, 5.0, 7.0, 9.0]);
    // The core builder's declared source behaves the same.
    let k = double.build(&mut cc, &[x]).expect("kernel");
    let pipe = Pipeline::builder("declared")
        .declare_source("x", ScalarType::F32)
        .pass(Pass::new(&k).read("x", "x").write_len("y", 4))
        .build()
        .expect("pipeline");
    let err = pipe.run(&mut cc).unwrap_err();
    assert!(err.to_string().contains("source `x`"), "{err}");
}

#[test]
fn spec_build_creates_no_textures_and_transfers_nothing() {
    let scale = Arc::new(
        KernelSpec::new("scale")
            .input_typed("x", ScalarType::U8)
            .output_typed(ScalarType::U8, 4)
            .body("return fetch_x(idx) * 0.5;"),
    );
    let spec = PipelineSpec::builder("declared")
        .source_typed("x", ScalarType::U8)
        .pass(PassSpec::new(&scale).read("x", "x").write_len("x", 4))
        .iterations(2)
        .build()
        .expect("spec");
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let before = cc.stats();
    let served = spec.build(&mut cc).expect("build");
    let after = cc.stats();
    assert_eq!(after.textures_created, before.textures_created);
    assert_eq!(after.f32_host_transfers, before.f32_host_transfers);
    assert_eq!(
        after.quantized_host_transfers,
        before.quantized_host_transfers
    );
    let x = cc.upload(&[8u8, 16, 32, 64]).expect("x");
    let out: Vec<u8> = served
        .pipeline()
        .run_and_read_seeded(&mut cc, &[SourceSeed::array("x", &x)], "x")
        .expect("run");
    assert_eq!(out, vec![2, 4, 8, 16]);
}

/// A two-pass `x → y → z` pipeline over a doubling kernel.
fn two_pass_builder(cc: &mut ComputeContext, x: &GpuArray<f32>) -> gpes::core::PipelineBuilder {
    let k = Kernel::builder("double")
        .input("x", x)
        .output(ScalarType::F32, 4)
        .body("return fetch_x(idx) * 2.0;")
        .build(cc)
        .expect("kernel");
    Pipeline::builder("two_pass")
        .source("x", x)
        .pass(Pass::new(&k).read("x", "x").write_len("y", 4))
        .pass(Pass::new(&k).read("x", "y").write_len("z", 4))
}

#[test]
fn a_run_failing_its_iteration_cap_gives_its_textures_back() {
    // An `until` that never fires exhausts the cap on every run; each
    // failed run must recycle the buffers it owned, so repeated runs
    // create no textures after the first.
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let x = cc.upload(&[1.0f32, 2.0, 3.0, 4.0]).expect("x");
    let pipe = two_pass_builder(&mut cc, &x)
        .until(|_| false)
        .iteration_cap(3)
        .build()
        .expect("pipeline");
    let mut created = Vec::new();
    for _ in 0..5 {
        match pipe.run(&mut cc) {
            Err(ComputeError::IterationCap { cap: 3, .. }) => {}
            other => panic!("expected IterationCap, got {other:?}"),
        }
        created.push(cc.stats().textures_created);
    }
    assert!(
        created.iter().all(|&c| c == created[0]),
        "textures created after each failed run: {created:?}"
    );
}

#[test]
fn run_seeded_keeps_a_read_intermediate_readable() {
    // The serving worker retires a one-iteration plan's intermediates at
    // last use; the public runs keep every buffer, so `y` — already read
    // by the second pass — is still readable afterwards.
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let x = cc.upload(&[1.0f32, 2.0, 3.0, 4.0]).expect("x");
    let pipe = two_pass_builder(&mut cc, &x).build().expect("pipeline");
    let seed = cc.upload(&[0.5f32, 1.0, 1.5, 2.0]).expect("seed");
    let run = pipe
        .run_seeded(&mut cc, &[SourceSeed::array("x", &seed)])
        .expect("run");
    assert_eq!(
        run.read::<f32>(&mut cc, "y").expect("y"),
        vec![1.0, 2.0, 3.0, 4.0]
    );
    assert_eq!(
        run.read::<f32>(&mut cc, "z").expect("z"),
        vec![2.0, 4.0, 6.0, 8.0]
    );
    run.finish(&mut cc);
}
