//! Gaussian elimination (Rodinia `gaussian`-style): forward elimination
//! of `A·x = b` by chained per-column GPU passes, then a host-side back
//! substitution.
//!
//! Rodinia's CUDA version uses two kernels per elimination column — `Fan1`
//! computes the multiplier column, `Fan2` updates the trailing submatrix.
//! On the single-output fragment pipeline those are exactly two chained
//! passes over textures (the §III-8 split again), with the augmented
//! matrix `[A | b]` carried as one `n × (n+1)` texture.

use gpes_core::{
    ComputeContext, ComputeError, GpuArray, GpuMatrix, Kernel, Pass, Pipeline, ScalarType,
};
use gpes_glsl::Value;
use gpes_perf::CpuWorkload;

/// Builds `Fan1` for elimination column `k`: a column of multipliers
/// `m[i] = A[i][k] / A[k][k]` (zero outside `i > k`).
///
/// # Errors
///
/// Build/compile errors from the framework.
pub fn build_fan1(
    cc: &mut ComputeContext,
    aug: &GpuMatrix<f32>,
    k: u32,
) -> Result<Kernel, ComputeError> {
    Kernel::builder("gaussian_fan1")
        .input_matrix("a", aug)
        .uniform_f32("kcol", k as f32)
        .output(ScalarType::F32, aug.rows() as usize)
        .body(
            "if (idx <= kcol) { return 0.0; }\n\
             return fetch_a_rc(idx, kcol) / fetch_a_rc(kcol, kcol);",
        )
        .build(cc)
}

/// Builds `Fan2` for elimination column `k`: subtracts `m[row] · pivot
/// row` from every row below the pivot.
///
/// # Errors
///
/// `BadKernel` when the multiplier column length differs from the matrix
/// height; build/compile errors from the framework.
pub fn build_fan2(
    cc: &mut ComputeContext,
    aug: &GpuMatrix<f32>,
    m: &GpuArray<f32>,
    k: u32,
) -> Result<Kernel, ComputeError> {
    if m.len() != aug.rows() as usize {
        return Err(ComputeError::BadKernel {
            message: format!(
                "multiplier column of {} does not match matrix height {}",
                m.len(),
                aug.rows()
            ),
        });
    }
    Kernel::builder("gaussian_fan2")
        .input_matrix("a", aug)
        .input("m", m)
        .uniform_f32("kcol", k as f32)
        .output_grid(ScalarType::F32, aug.rows(), aug.cols())
        .body(
            "float v = fetch_a_rc(row, col);\n\
             if (row <= kcol) { return v; }\n\
             return v - fetch_m(row) * fetch_a_rc(kcol, col);",
        )
        .build(cc)
}

/// Forward-eliminates the augmented system on the GPU and
/// back-substitutes on the host; returns `x`.
///
/// # Errors
///
/// `BadKernel` for non-square systems or a (near-)singular pivot;
/// upload/build/run errors from the framework.
pub fn solve_gpu(
    cc: &mut ComputeContext,
    n: usize,
    a: &[f32],
    b: &[f32],
) -> Result<Vec<f32>, ComputeError> {
    assert_eq!(a.len(), n * n, "A must be n x n");
    assert_eq!(b.len(), n, "b must be length n");
    let mut aug_data = Vec::with_capacity(n * (n + 1));
    for r in 0..n {
        aug_data.extend_from_slice(&a[r * n..(r + 1) * n]);
        aug_data.push(b[r]);
    }
    let eliminated = crate::over_matrix(cc, (n, n + 1), &aug_data, |cc, aug| {
        crate::over_array(cc, &vec![0.0f32; n], |cc, m0| eliminate(cc, n, aug, m0))
    })?;
    back_substitute(n, &eliminated)
}

/// Forward elimination of the uploaded augmented matrix, read back.
fn eliminate(
    cc: &mut ComputeContext,
    n: usize,
    aug: &GpuMatrix<f32>,
    m0: &GpuArray<f32>,
) -> Result<Vec<f32>, ComputeError> {
    // Both Fan kernels compile once; `kcol` advances as a per-iteration
    // uniform and the augmented matrix ping-pongs through the retained
    // pipeline (Fan1's multiplier column is reused in place).
    let f1 = build_fan1(cc, aug, 0)?;
    let f2 = build_fan2(cc, aug, m0, 0)?;
    let pipeline = Pipeline::builder("gaussian")
        .source_matrix("aug", aug)
        .pass(
            Pass::new(&f1)
                .read("a", "aug")
                .write_len("m", n)
                .uniform_per_iter("kcol", |k| Value::Float(k as f32)),
        )
        .pass(
            Pass::new(&f2)
                .read("a", "aug")
                .read("m", "m")
                .write_grid("aug", n as u32, n as u32 + 1)
                .uniform_per_iter("kcol", |k| Value::Float(k as f32)),
        )
        .iterations(n - 1)
        .build()?;
    pipeline.run_and_read::<f32>(cc, "aug")
}

/// Host-side back substitution over the eliminated augmented matrix.
///
/// # Errors
///
/// `BadKernel` when a pivot is (near-)zero — singular system.
pub fn back_substitute(n: usize, aug: &[f32]) -> Result<Vec<f32>, ComputeError> {
    let cols = n + 1;
    let mut x = vec![0.0f32; n];
    for i in (0..n).rev() {
        let mut acc = aug[i * cols + n];
        for j in i + 1..n {
            acc -= aug[i * cols + j] * x[j];
        }
        let pivot = aug[i * cols + i];
        if pivot.abs() < 1.0e-6 {
            return Err(ComputeError::BadKernel {
                message: format!("singular system: pivot {pivot:e} at row {i}"),
            });
        }
        x[i] = acc / pivot;
    }
    Ok(x)
}

/// CPU reference: forward elimination with the same operation order as
/// the two GPU kernels, then the same back substitution.
///
/// # Errors
///
/// `BadKernel` for singular systems.
pub fn cpu_reference(n: usize, a: &[f32], b: &[f32]) -> Result<Vec<f32>, ComputeError> {
    let cols = n + 1;
    let mut aug = Vec::with_capacity(n * cols);
    for r in 0..n {
        aug.extend_from_slice(&a[r * n..(r + 1) * n]);
        aug.push(b[r]);
    }
    for k in 0..n - 1 {
        let mut m = vec![0.0f32; n];
        for (i, slot) in m.iter_mut().enumerate().skip(k + 1) {
            *slot = aug[i * cols + k] / aug[k * cols + k];
        }
        for i in k + 1..n {
            for j in 0..cols {
                aug[i * cols + j] -= m[i] * aug[k * cols + j];
            }
        }
    }
    back_substitute(n, &aug)
}

/// Modelled ARM1176 workload for forward elimination + back substitution.
pub fn cpu_workload(n: usize) -> CpuWorkload {
    let nf = n as f64;
    let elim = 2.0 * nf * nf * nf / 3.0;
    CpuWorkload {
        fp_ops: elim + nf * nf,
        loads: elim,
        stores: elim / 2.0,
        iterations: elim / 2.0,
        cache_misses: nf * nf / 8.0,
        ..CpuWorkload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn well_conditioned_system(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        // Diagonally dominant → no pivoting needed (Rodinia's gaussian
        // makes the same assumption).
        let mut a = data::random_f32(n * n, seed, 1.0);
        for i in 0..n {
            a[i * n + i] += n as f32 + 1.0;
        }
        let b = data::random_f32(n, seed + 7, 10.0);
        (a, b)
    }

    #[test]
    fn gpu_elimination_matches_cpu_bitwise() {
        let n = 8;
        let (a, b) = well_conditioned_system(n, 121);
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let gpu = solve_gpu(&mut cc, n, &a, &b).expect("gpu");
        let cpu = cpu_reference(n, &a, &b).expect("cpu");
        assert_eq!(gpu, cpu);
        // Two passes per eliminated column, two programs in total.
        assert_eq!(cc.pass_log().len(), 2 * (n - 1));
        assert_eq!(cc.stats().programs_linked, 2);
    }

    #[test]
    fn solution_actually_solves_the_system() {
        let n = 6;
        let (a, b) = well_conditioned_system(n, 122);
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let x = solve_gpu(&mut cc, n, &a, &b).expect("gpu");
        for i in 0..n {
            let ax: f32 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            assert!(
                (ax - b[i]).abs() < 1e-2 * b[i].abs().max(1.0),
                "row {i}: A·x = {ax}, b = {}",
                b[i]
            );
        }
    }

    #[test]
    fn identity_system_returns_rhs() {
        let n = 5;
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let b = vec![3.0f32, -1.0, 4.0, -1.5, 9.0];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let x = solve_gpu(&mut cc, n, &a, &b).expect("gpu");
        assert_eq!(x, b);
    }

    #[test]
    fn singular_system_reports_pivot() {
        let n = 3;
        let a = vec![1.0f32, 2.0, 3.0, 2.0, 4.0, 6.0, 1.0, 0.0, 1.0]; // row2 = 2·row1
        let b = vec![1.0f32, 2.0, 3.0];
        let err = cpu_reference(n, &a, &b).unwrap_err();
        assert!(err.to_string().contains("singular"));
    }
}
