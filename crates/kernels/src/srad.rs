//! Speckle-reducing anisotropic diffusion (Rodinia `srad`-style), reduced
//! to its two-kernel core.
//!
//! SRAD's GPU form is the textbook example of the paper's §III-8 rule:
//! the algorithm wants *two* values per cell per iteration (a diffusion
//! coefficient and the updated image), so on a single-output fragment
//! pipeline it splits into two chained kernels:
//!
//! 1. `coeff`: `c = 1 / (1 + (q² − q0²) / (q0²·(1 + q0²)))` from the
//!    local gradient/Laplacian statistics, clamped to `[0, 1]`;
//! 2. `update`: `J' = J + λ/4 · div(c · ∇J)` using the coefficient field.
//!
//! Boundaries clamp to edge, exactly as the texture sampler does.

use gpes_core::{
    ComputeContext, ComputeError, GpuMatrix, Kernel, KernelSpec, Pass, PassSpec, Pipeline,
    PipelineSpec, ScalarType,
};
use gpes_perf::CpuWorkload;
use std::sync::Arc;

/// Diffusion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SradParams {
    /// Time step λ.
    pub lambda: f32,
    /// Homogeneity scale q0² (from the noise statistics of the image).
    pub q0sq: f32,
}

impl Default for SradParams {
    fn default() -> Self {
        SradParams {
            lambda: 0.5,
            q0sq: 0.05,
        }
    }
}

/// The GLSL body of the coefficient kernel — one source of truth shared
/// by [`build_coeff`] and [`coeff_spec`], so the two generate the
/// byte-identical program.
const COEFF_BODY: &str = "float jc = fetch_j_rc(row, col);\n\
             float jn = fetch_j_rc(row - 1.0, col);\n\
             float js = fetch_j_rc(row + 1.0, col);\n\
             float jw = fetch_j_rc(row, col - 1.0);\n\
             float je = fetch_j_rc(row, col + 1.0);\n\
             float dn = jn - jc;\n\
             float ds = js - jc;\n\
             float dw = jw - jc;\n\
             float de = je - jc;\n\
             float g2 = (dn*dn + ds*ds + dw*dw + de*de) / (jc*jc);\n\
             float l = (dn + ds + dw + de) / jc;\n\
             float num = 0.5*g2 - 0.0625*(l*l);\n\
             float den = 1.0 + 0.25*l;\n\
             float qsq = num / (den*den);\n\
             float c = 1.0 / (1.0 + (qsq - q0sq) / (q0sq * (1.0 + q0sq)));\n\
             return clamp(c, 0.0, 1.0);";

/// The GLSL body of the update kernel, shared by [`build_update`] and
/// [`update_spec`].
const UPDATE_BODY: &str = "float jc = fetch_j_rc(row, col);\n\
             float cc = fetch_c_rc(row, col);\n\
             float cs = fetch_c_rc(row + 1.0, col);\n\
             float ce = fetch_c_rc(row, col + 1.0);\n\
             float dn = fetch_j_rc(row - 1.0, col) - jc;\n\
             float ds = fetch_j_rc(row + 1.0, col) - jc;\n\
             float dw = fetch_j_rc(row, col - 1.0) - jc;\n\
             float de = fetch_j_rc(row, col + 1.0) - jc;\n\
             float div = cc*dn + cs*ds + cc*dw + ce*de;\n\
             return jc + 0.25 * lambda * div;";

/// Builds kernel 1: the diffusion-coefficient field.
///
/// # Errors
///
/// Build/compile errors from the framework.
pub fn build_coeff(
    cc: &mut ComputeContext,
    image: &GpuMatrix<f32>,
    params: SradParams,
) -> Result<Kernel, ComputeError> {
    Kernel::builder("srad_coeff")
        .input_matrix("j", image)
        .uniform_f32("q0sq", params.q0sq)
        .output_grid(ScalarType::F32, image.rows(), image.cols())
        .body(COEFF_BODY)
        .build(cc)
}

/// Builds kernel 2: the image update from the coefficient field.
///
/// # Errors
///
/// `BadKernel` when grids disagree; build/compile errors.
pub fn build_update(
    cc: &mut ComputeContext,
    image: &GpuMatrix<f32>,
    coeff: &GpuMatrix<f32>,
    params: SradParams,
) -> Result<Kernel, ComputeError> {
    if image.rows() != coeff.rows() || image.cols() != coeff.cols() {
        return Err(ComputeError::BadKernel {
            message: "image and coefficient grids must have equal dimensions".into(),
        });
    }
    Kernel::builder("srad_update")
        .input_matrix("j", image)
        .input_matrix("c", coeff)
        .uniform_f32("lambda", params.lambda)
        .output_grid(ScalarType::F32, image.rows(), image.cols())
        .body(UPDATE_BODY)
        .build(cc)
}

/// Context-free spec of the coefficient kernel for a `rows × cols`
/// image — the engine-servable twin of [`build_coeff`].
pub fn coeff_spec(rows: u32, cols: u32, params: SradParams) -> KernelSpec {
    KernelSpec::new("srad_coeff")
        .input("j")
        .uniform_f32("q0sq", params.q0sq)
        .output_grid(rows, cols)
        .body(COEFF_BODY)
}

/// Context-free spec of the update kernel — the engine-servable twin of
/// [`build_update`].
pub fn update_spec(rows: u32, cols: u32, params: SradParams) -> KernelSpec {
    KernelSpec::new("srad_update")
        .input("j")
        .input("c")
        .uniform_f32("lambda", params.lambda)
        .output_grid(rows, cols)
        .body(UPDATE_BODY)
}

/// Context-free spec of the whole retained diffusion loop, mirroring
/// [`run_gpu`]'s wiring (coeff then update per iteration, `j` updated in
/// place). Submit through [`gpes_core::Engine::submit`] with one
/// grid source `j` of `rows × cols` elements and read buffer `j`;
/// outputs are bit-identical to [`run_gpu`].
///
/// # Errors
///
/// Spec validation errors (e.g. zero-sized grids rejected at build).
pub fn pipeline_spec(
    rows: usize,
    cols: usize,
    params: SradParams,
    iterations: usize,
) -> Result<PipelineSpec, ComputeError> {
    let (r, c) = (rows as u32, cols as u32);
    let kc = Arc::new(coeff_spec(r, c, params));
    let ku = Arc::new(update_spec(r, c, params));
    PipelineSpec::builder("srad")
        .source_grid("j", r, c)
        .pass(PassSpec::new(&kc).read("j", "j").write_grid("c", r, c))
        .pass(
            PassSpec::new(&ku)
                .read("j", "j")
                .read("c", "c")
                .write_grid("j", r, c),
        )
        .iterations(iterations)
        .build()
}

/// Runs `iterations` of the two-kernel chain on the GPU.
///
/// Both kernels compile **once**; every iteration only rebinds the
/// ping-pong image texture and the intermediate coefficient field through
/// a retained [`Pipeline`] (the coefficient target is even reused in
/// place), so the loop performs zero shader compiles and — in steady
/// state — zero GL object allocations.
///
/// # Errors
///
/// Upload/build/run errors from the framework.
pub fn run_gpu(
    cc: &mut ComputeContext,
    rows: usize,
    cols: usize,
    image: &[f32],
    params: SradParams,
    iterations: usize,
) -> Result<Vec<f32>, ComputeError> {
    assert_eq!(image.len(), rows * cols, "image must be rows x cols");
    let j = cc.upload_matrix(rows as u32, cols as u32, image)?;
    let kc = build_coeff(cc, &j, params)?;
    // The coefficient default is a stand-in with the right shape; the
    // pipeline rebinds `c` to the freshly computed field every iteration.
    let ku = build_update(cc, &j, &j, params)?;
    let pipeline = Pipeline::builder("srad")
        .source_matrix("j", &j)
        .pass(
            Pass::new(&kc)
                .read("j", "j")
                .write_grid("c", rows as u32, cols as u32),
        )
        .pass(Pass::new(&ku).read("j", "j").read("c", "c").write_grid(
            "j",
            rows as u32,
            cols as u32,
        ))
        .iterations(iterations)
        .build()?;
    let out = pipeline.run_and_read::<f32>(cc, "j")?;
    cc.recycle_matrix(j);
    Ok(out)
}

/// CPU reference for `iterations` steps with identical clamping and
/// operation order.
pub fn cpu_reference(
    rows: usize,
    cols: usize,
    image: &[f32],
    params: SradParams,
    iterations: usize,
) -> Vec<f32> {
    let mut j: Vec<f32> = image.to_vec();
    let at = |v: &[f32], r: i64, c: i64| -> f32 {
        let r = r.clamp(0, rows as i64 - 1) as usize;
        let c = c.clamp(0, cols as i64 - 1) as usize;
        v[r * cols + c]
    };
    for _ in 0..iterations {
        let mut cfield = vec![0.0f32; rows * cols];
        for r in 0..rows as i64 {
            for c in 0..cols as i64 {
                let jc = at(&j, r, c);
                let dn = at(&j, r - 1, c) - jc;
                let ds = at(&j, r + 1, c) - jc;
                let dw = at(&j, r, c - 1) - jc;
                let de = at(&j, r, c + 1) - jc;
                let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
                let l = (dn + ds + dw + de) / jc;
                let num = 0.5 * g2 - 0.0625 * (l * l);
                let den = 1.0 + 0.25 * l;
                let qsq = num / (den * den);
                let cval = 1.0 / (1.0 + (qsq - params.q0sq) / (params.q0sq * (1.0 + params.q0sq)));
                cfield[(r * cols as i64 + c) as usize] = cval.clamp(0.0, 1.0);
            }
        }
        let mut next = vec![0.0f32; rows * cols];
        for r in 0..rows as i64 {
            for c in 0..cols as i64 {
                let jc = at(&j, r, c);
                let ccv = at(&cfield, r, c);
                let cs = at(&cfield, r + 1, c);
                let ce = at(&cfield, r, c + 1);
                let dn = at(&j, r - 1, c) - jc;
                let ds = at(&j, r + 1, c) - jc;
                let dw = at(&j, r, c - 1) - jc;
                let de = at(&j, r, c + 1) - jc;
                let div = ccv * dn + cs * ds + ccv * dw + ce * de;
                next[(r * cols as i64 + c) as usize] = jc + 0.25 * params.lambda * div;
            }
        }
        j = next;
    }
    j
}

/// Modelled ARM1176 workload for one iteration.
pub fn cpu_workload(rows: usize, cols: usize) -> CpuWorkload {
    let n = (rows * cols) as f64;
    CpuWorkload {
        fp_ops: 40.0 * n,
        loads: 12.0 * n,
        stores: 2.0 * n,
        iterations: 2.0 * n,
        cache_misses: n / 2.0,
        ..CpuWorkload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn speckled_image(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        // Positive, away from zero (SRAD divides by the intensity).
        data::random_f32(rows * cols, seed, 50.0)
            .into_iter()
            .map(|v| v.abs() + 10.0)
            .collect()
    }

    #[test]
    fn one_iteration_matches_cpu() {
        let (rows, cols) = (9usize, 7usize);
        let img = speckled_image(rows, cols, 71);
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let gpu = run_gpu(&mut cc, rows, cols, &img, SradParams::default(), 1).expect("run");
        let cpu = cpu_reference(rows, cols, &img, SradParams::default(), 1);
        assert_eq!(gpu, cpu);
        // Two kernels per iteration — the §III-8 split.
        assert_eq!(cc.pass_log().len(), 2);
    }

    #[test]
    fn three_iterations_match_cpu() {
        let (rows, cols) = (6usize, 6usize);
        let img = speckled_image(rows, cols, 72);
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let gpu = run_gpu(&mut cc, rows, cols, &img, SradParams::default(), 3).expect("run");
        let cpu = cpu_reference(rows, cols, &img, SradParams::default(), 3);
        assert_eq!(gpu, cpu);
        assert_eq!(cc.pass_log().len(), 6);
        // Two programs for six passes — nothing compiled inside the loop.
        assert_eq!(cc.stats().programs_linked, 2);
        // Iterating more does not allocate programs either, and steady
        // state reuses render targets from the pool.
        let before = cc.stats();
        let _ = run_gpu(&mut cc, rows, cols, &img, SradParams::default(), 5).expect("rerun");
        let after = cc.stats();
        assert_eq!(after.programs_linked, before.programs_linked);
        assert!(after.texture_pool_hits > before.texture_pool_hits);
    }

    #[test]
    fn diffusion_smooths_speckle() {
        let (rows, cols) = (8usize, 8usize);
        let img = speckled_image(rows, cols, 73);
        let out = cpu_reference(rows, cols, &img, SradParams::default(), 5);
        let variance = |v: &[f32]| {
            let mean = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32
        };
        assert!(
            variance(&out) < variance(&img),
            "diffusion must reduce variance: {} vs {}",
            variance(&out),
            variance(&img)
        );
    }

    #[test]
    fn uniform_image_is_a_fixed_point() {
        let (rows, cols) = (5usize, 5usize);
        let img = vec![42.0f32; rows * cols];
        let out = cpu_reference(rows, cols, &img, SradParams::default(), 4);
        assert!(out.iter().all(|&v| (v - 42.0).abs() < 1e-4));
    }

    #[test]
    fn mismatched_grids_rejected() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let j = cc.upload_matrix(4, 4, &[1.0f32; 16]).expect("j");
        let c = cc.upload_matrix(4, 5, &[1.0f32; 20]).expect("c");
        assert!(build_update(&mut cc, &j, &c, SradParams::default()).is_err());
    }

    #[test]
    fn pipeline_spec_matches_direct_run_bitwise() {
        let (rows, cols) = (9usize, 7usize);
        let img = speckled_image(rows, cols, 74);
        let params = SradParams::default();
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let direct = run_gpu(&mut cc, rows, cols, &img, params, 3).expect("direct");
        let links = cc.stats().programs_linked;
        let spec = pipeline_spec(rows, cols, params, 3).expect("spec");
        let served = spec.build(&mut cc).expect("build");
        assert_eq!(cc.stats().programs_linked, links, "spec relinked a program");
        let j = cc
            .upload_matrix(rows as u32, cols as u32, &img)
            .expect("upload");
        let seeds = [gpes_core::SourceSeed::matrix("j", &j)];
        let out: Vec<f32> = served
            .pipeline()
            .run_and_read_seeded(&mut cc, &seeds, "j")
            .expect("seeded run");
        assert_eq!(out, direct);
        cc.recycle_matrix(j);
    }
}
