//! Dynamic-programming grid traversal (Rodinia `pathfinder`-style).
//!
//! Finds, for every column, the cheapest path cost from the top row of a
//! cost grid to the bottom, moving one row per step to the same column or
//! a horizontal neighbour:
//!
//! `dp[j] ← wall[r][j] + min(dp'[j−1], dp'[j], dp'[j+1])`
//!
//! Each DP row is one full-screen pass; rows chain through
//! render-to-texture, backing the paper's §III-8 claim that Rodinia-style
//! kernels fit the single-output fragment model.

use gpes_core::{
    ComputeContext, ComputeError, GpuArray, GpuMatrix, Kernel, Pass, Pipeline, ScalarType,
};
use gpes_glsl::Value;
use gpes_perf::CpuWorkload;

/// Builds the one-row DP step kernel: reads the previous row's costs
/// (`dp`) and the wall matrix, selected by the `row_idx` uniform.
///
/// # Errors
///
/// `BadKernel` when the dp length does not match the wall width;
/// build/compile errors from the framework.
pub fn build_step(
    cc: &mut ComputeContext,
    wall: &GpuMatrix<f32>,
    dp: &GpuArray<f32>,
    row_idx: u32,
) -> Result<Kernel, ComputeError> {
    if dp.len() != wall.cols() as usize {
        return Err(ComputeError::BadKernel {
            message: format!(
                "dp row of {} elements does not match wall width {}",
                dp.len(),
                wall.cols()
            ),
        });
    }
    Kernel::builder("pathfinder_step")
        .input_matrix("wall", wall)
        .input("dp", dp)
        .uniform_f32("row_idx", row_idx as f32)
        .uniform_f32("last_col", wall.cols() as f32 - 1.0)
        .output(ScalarType::F32, dp.len())
        .body(
            "float left = fetch_dp(max(idx - 1.0, 0.0));\n\
             float mid = fetch_dp(idx);\n\
             float right = fetch_dp(min(idx + 1.0, last_col));\n\
             float best = min(mid, min(left, right));\n\
             return fetch_wall_rc(row_idx, idx) + best;",
        )
        .build(cc)
}

/// Runs the full traversal on the GPU: row 0 seeds the DP vector, then
/// one pass per remaining row.
///
/// One compiled kernel serves every row: the wall matrix stays bound as
/// the kernel's build-time default, the DP vector ping-pongs through the
/// retained [`Pipeline`], and `row_idx` advances as a per-iteration
/// uniform — no compiles, no fresh GL objects in the loop.
///
/// # Errors
///
/// Upload/build/run errors from the framework.
pub fn run_gpu(
    cc: &mut ComputeContext,
    rows: usize,
    cols: usize,
    wall: &[f32],
) -> Result<Vec<f32>, ComputeError> {
    assert_eq!(wall.len(), rows * cols, "wall must be rows x cols");
    crate::over_matrix(cc, (rows, cols), wall, |cc, gwall| {
        crate::over_array(cc, &wall[..cols], |cc, dp| {
            let kernel = build_step(cc, gwall, dp, 1)?;
            let pipeline = Pipeline::builder("pathfinder")
                .source("dp", dp)
                .pass(
                    Pass::new(&kernel)
                        .read("dp", "dp")
                        .write_len("dp", cols)
                        .uniform_per_iter("row_idx", |step| Value::Float((step + 1) as f32)),
                )
                .iterations(rows - 1)
                .build()?;
            pipeline.run_and_read::<f32>(cc, "dp")
        })
    })
}

/// CPU reference with identical neighbour clamping and operation order.
pub fn cpu_reference(rows: usize, cols: usize, wall: &[f32]) -> Vec<f32> {
    let mut dp: Vec<f32> = wall[..cols].to_vec();
    for r in 1..rows {
        let prev = dp.clone();
        for j in 0..cols {
            let left = prev[j.saturating_sub(1)];
            let mid = prev[j];
            let right = prev[(j + 1).min(cols - 1)];
            let best = mid.min(left.min(right));
            dp[j] = wall[r * cols + j] + best;
        }
    }
    dp
}

/// Modelled ARM1176 workload for the full traversal.
pub fn cpu_workload(rows: usize, cols: usize) -> CpuWorkload {
    let n = ((rows - 1) * cols) as f64;
    CpuWorkload {
        fp_ops: 4.0 * n, // three mins + one add
        loads: 4.0 * n,
        stores: n,
        iterations: n,
        cache_misses: n / 16.0,
        ..CpuWorkload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn traversal_matches_cpu() {
        let (rows, cols) = (8usize, 13usize);
        let wall: Vec<f32> = data::random_f32(rows * cols, 91, 10.0)
            .into_iter()
            .map(f32::abs)
            .collect();
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let gpu = run_gpu(&mut cc, rows, cols, &wall).expect("run");
        let cpu = cpu_reference(rows, cols, &wall);
        assert_eq!(gpu, cpu);
        // rows − 1 chained passes.
        assert_eq!(cc.pass_log().len(), rows - 1);
        // …but a single compiled program for the whole traversal.
        assert_eq!(cc.stats().programs_linked, 1);
    }

    #[test]
    fn single_row_is_identity() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let wall = vec![3.0f32, 1.0, 4.0, 1.0, 5.0];
        let out = run_gpu(&mut cc, 1, 5, &wall).expect("run");
        assert_eq!(out, wall);
    }

    #[test]
    fn straight_column_of_zeros_is_free() {
        // A free column through an expensive grid: the path cost at that
        // column stays 0 and neighbours can reach it.
        let (rows, cols) = (6usize, 5usize);
        let mut wall = vec![9.0f32; rows * cols];
        for r in 0..rows {
            wall[r * cols + 2] = 0.0;
        }
        let cpu = cpu_reference(rows, cols, &wall);
        assert_eq!(cpu[2], 0.0);
        assert_eq!(cpu[1], 9.0); // one step off the free column
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gpu = run_gpu(&mut cc, rows, cols, &wall).expect("run");
        assert_eq!(gpu, cpu);
    }

    #[test]
    fn mismatched_dp_rejected() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let wall = cc.upload_matrix(2, 4, &[0.0f32; 8]).expect("wall");
        let dp = cc.upload(&[0.0f32; 3]).expect("dp");
        assert!(build_step(&mut cc, &wall, &dp, 1).is_err());
    }
}
