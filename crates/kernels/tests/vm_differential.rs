//! Differential testing: the SPMD lane VM against the tree-walking
//! interpreter, across **every bundled kernel**, a vertex-stage kernel
//! and all three [`FloatModel`]s.
//!
//! For each workload the same work runs through the full pipeline once
//! per [`ExecMode`] — tree-walker, `Spmd{1}`, `Spmd{4}` and `Spmd{8}` —
//! and must produce byte-identical outputs and identical fragment/vertex
//! [`gpes_glsl::exec::OpProfile`] counters (the timing model consumes
//! the profiles, so they are part of the contract, not just the pixels).
//! The SPMD runs additionally assert `spmd_batches > 0`: the lane path
//! must actually execute, not silently fall back.

use gpes_core::vertex_compute::VertexKernel;
use gpes_core::{ComputeContext, ComputeError, ExecMode, ScalarType};
use gpes_glsl::exec::{FloatModel, OpProfile};
use gpes_kernels::backprop::{self, Activation};
use gpes_kernels::fft::{self, Direction};
use gpes_kernels::reduce::{self, ReduceOp};
use gpes_kernels::{
    conv3x3, data, gaussian, hotspot, kmeans, nn, pathfinder, saxpy, sgemm, srad, sum, transpose,
};

const MODELS: [FloatModel; 3] = [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16];

/// The bundled kernels lower to bytecode: a shader the lowerer rejected
/// would fail its link, and every differential test below needs the
/// lane path live.
#[test]
fn bundled_kernel_shaders_lower_to_bytecode() {
    let mut cc = ComputeContext::new(64, 64).expect("context");
    let a = data::random_f32(64, 91, 10.0);
    let ga = cc.upload(&a).expect("upload");
    let gb = cc.upload(&a).expect("upload");
    let sum_k = sum::build_f32(&mut cc, &ga, &gb).expect("sum");
    let n = 8u32;
    let m = data::random_f32(64, 92, 2.0);
    let gm = cc.upload_matrix(n, n, &m).expect("matrix");
    let gm2 = cc.upload_matrix(n, n, &m).expect("matrix");
    let gm3 = cc.upload_matrix(n, n, &m).expect("matrix");
    let gemm_k = sgemm::build_f32(&mut cc, &gm, &gm2, &gm3, 1.0, 0.5).expect("sgemm");
    let img = data::random_u8(64, 93, 255);
    let gi = cc.upload_matrix(n, n, &img).expect("image");
    let conv_k = conv3x3::build(&mut cc, &gi, &conv3x3::Filter3x3::box_blur()).expect("conv");

    for kernel in [&sum_k, &gemm_k, &conv_k] {
        let fs = gpes_glsl::compile(gpes_glsl::ShaderKind::Fragment, kernel.fragment_source())
            .expect("fragment compiles");
        gpes_glsl::lower(&fs).expect("fragment shader must lower to bytecode");
        let vs = gpes_glsl::compile(gpes_glsl::ShaderKind::Vertex, &kernel.vertex_source())
            .expect("vertex compiles");
        gpes_glsl::lower(&vs).expect("vertex shader must lower to bytecode");
    }
}

const MODES: [ExecMode; 4] = [
    ExecMode::TreeWalker,
    ExecMode::Spmd { lanes: 1 },
    ExecMode::Spmd { lanes: 4 },
    ExecMode::Spmd { lanes: 8 },
];

/// Runs `work` once per [`ExecMode`] under every float model and asserts
/// byte-identical outputs and identical accumulated op profiles, with
/// the tree-walker as the oracle. SPMD runs must bank at least one lane
/// batch.
fn assert_differential<F>(name: &str, work: F)
where
    F: Fn(&mut ComputeContext) -> Result<Vec<u8>, ComputeError>,
{
    for model in MODELS {
        let run = |mode: ExecMode| -> (Vec<u8>, OpProfile, OpProfile) {
            let mut cc =
                ComputeContext::new(256, 256).unwrap_or_else(|e| panic!("{name}: context: {e}"));
            cc.set_exec_mode(mode);
            cc.set_float_model(model);
            let out = work(&mut cc).unwrap_or_else(|e| panic!("{name}/{model:?}: {e}"));
            if matches!(mode, ExecMode::Spmd { .. }) {
                assert!(
                    cc.stats().spmd_batches > 0,
                    "{name}/{model:?}: SPMD selected but no lane batch ran"
                );
            } else {
                assert_eq!(
                    cc.stats().spmd_batches,
                    0,
                    "{name}/{model:?}: the tree-walker dispatched SPMD batches"
                );
            }
            let mut fs = OpProfile::new();
            let mut vs = OpProfile::new();
            for pass in cc.take_pass_log() {
                fs.merge(&pass.stats.fs_profile);
                vs.merge(&pass.stats.vs_profile);
            }
            (out, fs, vs)
        };
        let (tw_out, tw_fs, tw_vs) = run(ExecMode::TreeWalker);
        for mode in MODES.into_iter().skip(1) {
            let (out, fs, vs) = run(mode);
            assert_eq!(
                out, tw_out,
                "{name} outputs diverge under {model:?}/{mode:?}"
            );
            assert_eq!(
                fs, tw_fs,
                "{name} fragment profiles diverge under {model:?}/{mode:?}"
            );
            assert_eq!(
                vs, tw_vs,
                "{name} vertex profiles diverge under {model:?}/{mode:?}"
            );
        }
    }
}

fn f32s_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[test]
fn sum_kernels_match() {
    assert_differential("sum_f32", |cc| {
        let a = data::random_f32(512, 1, 100.0);
        let b = data::random_f32(512, 2, 100.0);
        let ga = cc.upload(&a)?;
        let gb = cc.upload(&b)?;
        let k = sum::build_f32(cc, &ga, &gb)?;
        Ok(f32s_bytes(&cc.run_f32(&k)?))
    });
    assert_differential("sum_u32", |cc| {
        let a = data::random_u32(512, 3, 1 << 20);
        let b = data::random_u32(512, 4, 1 << 20);
        let ga = cc.upload(&a)?;
        let gb = cc.upload(&b)?;
        let k = sum::build_u32(cc, &ga, &gb)?;
        let out: Vec<u32> = cc.run_and_read(&k)?;
        Ok(out.iter().flat_map(|x| x.to_le_bytes()).collect())
    });
    assert_differential("sum_i32", |cc| {
        let a = data::random_i32(512, 5, 1 << 20);
        let b = data::random_i32(512, 6, 1 << 20);
        let ga = cc.upload(&a)?;
        let gb = cc.upload(&b)?;
        let k = sum::build_i32(cc, &ga, &gb)?;
        let out: Vec<i32> = cc.run_and_read(&k)?;
        Ok(out.iter().flat_map(|x| x.to_le_bytes()).collect())
    });
    assert_differential("sum_u8", |cc| {
        let a = data::random_u8(512, 7, 120);
        let b = data::random_u8(512, 8, 120);
        let ga = cc.upload(&a)?;
        let gb = cc.upload(&b)?;
        let k = sum::build_u8(cc, &ga, &gb)?;
        let out: Vec<u8> = cc.run_and_read(&k)?;
        Ok(out)
    });
}

#[test]
fn saxpy_and_sgemm_match() {
    assert_differential("saxpy", |cc| {
        let x = data::random_f32(300, 11, 10.0);
        let y = data::random_f32(300, 12, 10.0);
        let gx = cc.upload(&x)?;
        let gy = cc.upload(&y)?;
        let k = saxpy::build(cc, &gx, &gy, 1.5)?;
        Ok(f32s_bytes(&cc.run_f32(&k)?))
    });
    assert_differential("sgemm_f32", |cc| {
        let n = 12usize;
        let a = data::random_f32(n * n, 13, 2.0);
        let b = data::random_f32(n * n, 14, 2.0);
        let c = data::random_f32(n * n, 15, 2.0);
        let ga = cc.upload_matrix(n as u32, n as u32, &a)?;
        let gb = cc.upload_matrix(n as u32, n as u32, &b)?;
        let gc = cc.upload_matrix(n as u32, n as u32, &c)?;
        let k = sgemm::build_f32(cc, &ga, &gb, &gc, 1.0, 0.5)?;
        Ok(f32s_bytes(&cc.run_f32(&k)?))
    });
    assert_differential("gemm_i32", |cc| {
        let n = 10usize;
        let a = data::random_i32(n * n, 16, 150);
        let b = data::random_i32(n * n, 17, 150);
        let ga = cc.upload_matrix(n as u32, n as u32, &a)?;
        let gb = cc.upload_matrix(n as u32, n as u32, &b)?;
        let k = sgemm::build_i32(cc, &ga, &gb)?;
        let out: Vec<i32> = cc.run_and_read(&k)?;
        Ok(out.iter().flat_map(|x| x.to_le_bytes()).collect())
    });
}

#[test]
fn conv_transpose_and_nn_match() {
    assert_differential("conv3x3", |cc| {
        let (rows, cols) = (16u32, 16u32);
        let img = data::random_u8((rows * cols) as usize, 21, 255);
        let gm = cc.upload_matrix(rows, cols, &img)?;
        let k = conv3x3::build(cc, &gm, &conv3x3::Filter3x3::sharpen())?;
        let out: Vec<u8> = cc.run_and_read(&k)?;
        Ok(out)
    });
    assert_differential("transpose", |cc| {
        let (rows, cols) = (9u32, 13u32);
        let m = data::random_f32((rows * cols) as usize, 22, 50.0);
        let gm = cc.upload_matrix(rows, cols, &m)?;
        let k = transpose::build(cc, &gm)?;
        Ok(f32s_bytes(&cc.run_f32(&k)?))
    });
    assert_differential("nn", |cc| {
        let lat = data::random_f32(200, 23, 90.0);
        let lng = data::random_f32(200, 24, 180.0);
        let glat = cc.upload(&lat)?;
        let glng = cc.upload(&lng)?;
        let k = nn::build(cc, &glat, &glng, [12.0, 34.0])?;
        Ok(f32s_bytes(&cc.run_f32(&k)?))
    });
}

#[test]
fn multipass_kernels_match() {
    assert_differential("reduce_sum", |cc| {
        let v = data::random_f32(400, 31, 10.0);
        let gv = cc.upload(&v)?;
        let r = reduce::gpu_reduce(cc, &gv, ReduceOp::Sum)?;
        Ok(r.to_le_bytes().to_vec())
    });
    assert_differential("reduce_max", |cc| {
        let v = data::random_f32(400, 32, 10.0);
        let gv = cc.upload(&v)?;
        let r = reduce::gpu_reduce(cc, &gv, ReduceOp::Max)?;
        Ok(r.to_le_bytes().to_vec())
    });
    assert_differential("fft", |cc| {
        let re = data::random_f32(64, 33, 1.0);
        let im = data::random_f32(64, 34, 1.0);
        let (ore, oim) = fft::run_gpu(cc, &re, &im, Direction::Forward)?;
        let mut out = f32s_bytes(&ore);
        out.extend(f32s_bytes(&oim));
        Ok(out)
    });
    assert_differential("pathfinder", |cc| {
        let (rows, cols) = (8usize, 24usize);
        let wall = data::random_f32(rows * cols, 35, 9.0);
        Ok(f32s_bytes(&pathfinder::run_gpu(cc, rows, cols, &wall)?))
    });
    assert_differential("srad", |cc| {
        let (rows, cols) = (12usize, 12usize);
        let img: Vec<f32> = data::random_f32(rows * cols, 36, 1.0)
            .iter()
            .map(|v| v.abs() + 0.05)
            .collect();
        Ok(f32s_bytes(&srad::run_gpu(
            cc,
            rows,
            cols,
            &img,
            srad::SradParams::default(),
            2,
        )?))
    });
}

#[test]
fn solver_and_ml_kernels_match() {
    assert_differential("gaussian", |cc| {
        let n = 6usize;
        // Diagonally dominant system so the pivot never degenerates.
        let mut a = data::random_f32(n * n, 41, 1.0);
        for i in 0..n {
            a[i * n + i] += 10.0;
        }
        let b = data::random_f32(n, 42, 5.0);
        Ok(f32s_bytes(&gaussian::solve_gpu(cc, n, &a, &b)?))
    });
    assert_differential("kmeans", |cc| {
        let points: Vec<(f32, f32)> = data::random_f32(60, 43, 10.0)
            .chunks(2)
            .map(|c| (c[0], c[1]))
            .collect();
        let centroids = vec![(-5.0, -5.0), (0.0, 0.0), (5.0, 5.0)];
        kmeans::run_gpu(cc, &points, &centroids)
    });
    assert_differential("backprop_forward", |cc| {
        let input = data::random_f32(8, 44, 1.0);
        let layers = vec![
            (
                data::random_f32(8 * 6, 45, 0.5),
                data::random_f32(6, 46, 0.2),
                Activation::Sigmoid,
            ),
            (
                data::random_f32(6 * 4, 47, 0.5),
                data::random_f32(4, 48, 0.2),
                Activation::Relu,
            ),
        ];
        Ok(f32s_bytes(&backprop::forward_gpu(cc, &input, &layers)?))
    });
    assert_differential("hotspot", |cc| {
        let (rows, cols) = (14u32, 14u32);
        let t = data::random_f32((rows * cols) as usize, 49, 40.0);
        let p = data::random_f32((rows * cols) as usize, 50, 2.0);
        let gt = cc.upload_matrix(rows, cols, &t)?;
        let gp = cc.upload_matrix(rows, cols, &p)?;
        let k = hotspot::build(cc, &gt, &gp, hotspot::HotspotParams::default())?;
        Ok(f32s_bytes(&cc.run_f32(&k)?))
    });
}

/// A vertex kernel whose item count (1000) is not a multiple of the lane
/// width, so the last vertex batch is partial.
fn vertex_kernel(
    cc: &mut ComputeContext,
    n: usize,
    body: &str,
) -> Result<VertexKernel, ComputeError> {
    let x = data::random_f32(n, 61, 4.0);
    let y = data::random_f32(n, 62, 4.0);
    let vk = VertexKernel::builder("vertex_mix")
        .input("x", &x)
        .input("y", &y)
        .uniform_f32("alpha", 1.75)
        .output(ScalarType::F32, n)
        .body(body)
        .build(cc)?;
    // Under SPMD the vertex stage must really run as lane batches.
    let vs = gpes_glsl::compile(gpes_glsl::ShaderKind::Vertex, vk.vertex_source())
        .expect("vertex compiles");
    gpes_glsl::lower(&vs).expect("vertex shader must lower to bytecode");
    Ok(vk)
}

#[test]
fn vertex_stage_kernels_match() {
    assert_differential("vertex_points", |cc| {
        let vk = vertex_kernel(
            cc,
            1000,
            "float t = alpha * x + sin(y);\n\
             if (t > 0.5) { t = sqrt(t) + exp2(y * 0.25); } else { t = t * fract(idx * 0.37); }\n\
             return t;",
        )?;
        Ok(f32s_bytes(&vk.run_and_read::<f32>(cc)?))
    });
}

/// A vertex that traps in the middle of a lane batch fails the draw with
/// exactly the tree-walker's error.
#[test]
fn vertex_trap_mid_batch_matches_tree_walker() {
    let run = |mode: ExecMode| -> String {
        let mut cc = ComputeContext::new(64, 64).expect("context");
        cc.set_exec_mode(mode);
        let vk = vertex_kernel(
            &mut cc,
            20,
            "float a[3];\n\
             a[0] = x; a[1] = y; a[2] = alpha;\n\
             int k = idx == 4.0 ? 7 : 1;\n\
             return a[k];",
        )
        .expect("build");
        vk.run_and_read::<f32>(&mut cc)
            .expect_err("vertex 4 indexes out of bounds")
            .to_string()
    };
    let oracle = run(ExecMode::TreeWalker);
    assert!(oracle.contains("out of bounds"), "{oracle}");
    assert_eq!(run(ExecMode::Spmd { lanes: 8 }), oracle);
}
