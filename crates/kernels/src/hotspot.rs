//! Thermal stencil iteration (Rodinia `hotspot`-style): one Jacobi step
//! of `T' = T + k·(N + S + E + W − 4T) + c·P` over a 2-D grid, with
//! clamp-to-edge boundaries. Multi-step simulation ([`run_gpu`]) chains
//! passes through a retained [`Pipeline`]: the step kernel compiles once,
//! the temperature grid ping-pongs through pooled render targets, and the
//! power grid stays bound as the kernel's build-time default.

use gpes_core::{ComputeContext, ComputeError, GpuMatrix, Kernel, Pass, Pipeline, ScalarType};
use gpes_perf::CpuWorkload;

/// Stencil coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotParams {
    /// Diffusion coefficient `k`.
    pub k: f32,
    /// Power-injection coefficient `c`.
    pub c: f32,
}

impl Default for HotspotParams {
    fn default() -> Self {
        HotspotParams { k: 0.2, c: 0.05 }
    }
}

/// Builds one stencil step kernel reading temperature `t` and power `p`.
///
/// # Errors
///
/// `BadKernel` if grids disagree; build/compile errors.
pub fn build(
    cc: &mut ComputeContext,
    t: &GpuMatrix<f32>,
    p: &GpuMatrix<f32>,
    params: HotspotParams,
) -> Result<Kernel, ComputeError> {
    if t.rows() != p.rows() || t.cols() != p.cols() {
        return Err(ComputeError::BadKernel {
            message: "temperature and power grids must have equal dimensions".into(),
        });
    }
    Kernel::builder("hotspot_step")
        .input_matrix("t", t)
        .input_matrix("p", p)
        .uniform_f32("k_coef", params.k)
        .uniform_f32("c_coef", params.c)
        .output_grid(ScalarType::F32, t.rows(), t.cols())
        .body(
            "float center = fetch_t_rc(row, col);\n\
             float north = fetch_t_rc(row - 1.0, col);\n\
             float south = fetch_t_rc(row + 1.0, col);\n\
             float west = fetch_t_rc(row, col - 1.0);\n\
             float east = fetch_t_rc(row, col + 1.0);\n\
             float lap = north + south + east + west - 4.0 * center;\n\
             return center + k_coef * lap + c_coef * fetch_p_rc(row, col);",
        )
        .build(cc)
}

/// Runs `steps` Jacobi iterations on the GPU and reads the final grid
/// back (the last step renders straight into the default framebuffer
/// when it fits the screen).
///
/// # Errors
///
/// `BadKernel` for mismatched grids; upload/build/run errors.
pub fn run_gpu(
    cc: &mut ComputeContext,
    rows: usize,
    cols: usize,
    t: &[f32],
    p: &[f32],
    params: HotspotParams,
    steps: usize,
) -> Result<Vec<f32>, ComputeError> {
    if t.len() != rows * cols || p.len() != rows * cols {
        return Err(ComputeError::BadKernel {
            message: format!(
                "temperature ({}) and power ({}) must both be rows x cols = {}",
                t.len(),
                p.len(),
                rows * cols
            ),
        });
    }
    crate::over_matrix(cc, (rows, cols), t, |cc, gt| {
        crate::over_matrix(cc, (rows, cols), p, |cc, gp| {
            let kernel = build(cc, gt, gp, params)?;
            let pipeline = Pipeline::builder("hotspot")
                .source_matrix("t", gt)
                .pass(
                    Pass::new(&kernel)
                        .read("t", "t")
                        .write_grid("t", rows as u32, cols as u32),
                )
                .iterations(steps)
                .build()?;
            pipeline.run_and_read::<f32>(cc, "t")
        })
    })
}

/// CPU reference for `steps` Jacobi iterations ([`cpu_reference`]
/// repeated with identical operation order).
pub fn cpu_reference_steps(
    rows: usize,
    cols: usize,
    t: &[f32],
    p: &[f32],
    params: HotspotParams,
    steps: usize,
) -> Vec<f32> {
    let mut grid = t.to_vec();
    for _ in 0..steps {
        grid = cpu_reference(rows, cols, &grid, p, params);
    }
    grid
}

/// CPU reference for one step, with identical border clamping and
/// operation order.
pub fn cpu_reference(
    rows: usize,
    cols: usize,
    t: &[f32],
    p: &[f32],
    params: HotspotParams,
) -> Vec<f32> {
    let fetch = |r: i64, c: i64| -> f32 {
        let r = r.clamp(0, rows as i64 - 1) as usize;
        let c = c.clamp(0, cols as i64 - 1) as usize;
        t[r * cols + c]
    };
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let center = fetch(r as i64, c as i64);
            let north = fetch(r as i64 - 1, c as i64);
            let south = fetch(r as i64 + 1, c as i64);
            let west = fetch(r as i64, c as i64 - 1);
            let east = fetch(r as i64, c as i64 + 1);
            let lap = north + south + east + west - 4.0 * center;
            out[r * cols + c] = center + params.k * lap + params.c * p[r * cols + c];
        }
    }
    out
}

/// Modelled ARM1176 workload for one step on a `rows × cols` grid.
pub fn cpu_workload(rows: usize, cols: usize) -> CpuWorkload {
    let n = (rows * cols) as f64;
    CpuWorkload {
        fp_ops: 9.0 * n,
        loads: 6.0 * n,
        stores: n,
        iterations: n,
        cache_misses: n / 2.0, // three row streams of 4-byte elements
        ..CpuWorkload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn one_step_matches_cpu() {
        let (rows, cols) = (10usize, 14usize);
        let t = data::random_f32(rows * cols, 81, 80.0);
        let p = data::random_f32(rows * cols, 82, 5.0);
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let gt = cc.upload_matrix(rows as u32, cols as u32, &t).expect("t");
        let gp = cc.upload_matrix(rows as u32, cols as u32, &p).expect("p");
        let k = build(&mut cc, &gt, &gp, HotspotParams::default()).expect("kernel");
        let gpu = cc.run_f32(&k).expect("run");
        let cpu = cpu_reference(rows, cols, &t, &p, HotspotParams::default());
        assert_eq!(gpu, cpu);
    }

    #[test]
    fn multi_step_simulation_matches_cpu_with_one_program() {
        let (rows, cols) = (10usize, 14usize);
        let t = data::random_f32(rows * cols, 83, 80.0);
        let p = data::random_f32(rows * cols, 84, 5.0);
        let steps = 7;
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let params = HotspotParams::default();
        let gpu = run_gpu(&mut cc, rows, cols, &t, &p, params, steps).expect("run");
        assert_eq!(gpu, cpu_reference_steps(rows, cols, &t, &p, params, steps));
        assert_eq!(cc.pass_log().len(), steps);
        // One compiled program for the whole simulation; steady-state
        // iteration comes out of the render-target pool.
        assert_eq!(cc.stats().programs_linked, 1);
        assert!(cc.stats().texture_pool_hits > 0);
    }

    #[test]
    fn uniform_grid_stays_uniform_without_power() {
        let (rows, cols) = (6usize, 6usize);
        let t = vec![50.0f32; rows * cols];
        let p = vec![0.0f32; rows * cols];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gt = cc.upload_matrix(rows as u32, cols as u32, &t).expect("t");
        let gp = cc.upload_matrix(rows as u32, cols as u32, &p).expect("p");
        let k = build(&mut cc, &gt, &gp, HotspotParams::default()).expect("kernel");
        let gpu = cc.run_f32(&k).expect("run");
        assert!(gpu.iter().all(|&v| v == 50.0));
    }

    #[test]
    fn power_injection_heats_hotspot() {
        let (rows, cols) = (5usize, 5usize);
        let t = vec![0.0f32; rows * cols];
        let mut p = vec![0.0f32; rows * cols];
        p[12] = 100.0; // centre cell
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gt = cc.upload_matrix(rows as u32, cols as u32, &t).expect("t");
        let gp = cc.upload_matrix(rows as u32, cols as u32, &p).expect("p");
        let k = build(&mut cc, &gt, &gp, HotspotParams::default()).expect("kernel");
        let gpu = cc.run_f32(&k).expect("run");
        assert!(gpu[12] > 0.0);
        assert_eq!(gpu[0], 0.0);
    }

    #[test]
    fn mismatched_grids_rejected() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gt = cc.upload_matrix(4, 4, &[0.0f32; 16]).expect("t");
        let gp = cc.upload_matrix(4, 5, &[0.0f32; 20]).expect("p");
        let err = build(&mut cc, &gt, &gp, HotspotParams::default()).unwrap_err();
        assert!(err.to_string().contains("equal dimensions"));
    }
}
