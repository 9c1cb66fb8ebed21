//! k-means assignment step (Rodinia `kmeans`-style).
//!
//! For every 2-D point, find the nearest of `K` centroids (squared
//! Euclidean distance) and output its index. The centroids live in a
//! small `K × 2` matrix texture; the loop over `K` is emitted with a
//! constant bound, so the kernel stays inside the GLSL ES Appendix A
//! profile (a real low-end driver unrolls it).
//!
//! Outputs are small non-negative integers — the one §IV case where the
//! `u8` codec is the natural fit.

use gpes_core::{ComputeContext, ComputeError, GpuMatrix, Kernel, ScalarType};
use gpes_perf::CpuWorkload;

/// Builds the assignment kernel for `k` centroids over `points`
/// (`n × 2` row-major: x then y per point).
///
/// # Errors
///
/// `BadKernel` when shapes disagree or `k` exceeds 255 (the `u8` output
/// range); build/compile errors from the framework.
pub fn build_assign(
    cc: &mut ComputeContext,
    points: &GpuMatrix<f32>,
    centroids: &GpuMatrix<f32>,
) -> Result<Kernel, ComputeError> {
    if points.cols() != 2 || centroids.cols() != 2 {
        return Err(ComputeError::BadKernel {
            message: "points and centroids must be n x 2 matrices".into(),
        });
    }
    let k = centroids.rows();
    if k == 0 || k > 255 {
        return Err(ComputeError::BadKernel {
            message: format!("centroid count {k} outside 1..=255 (u8 output)"),
        });
    }
    let body = format!(
        "float px = fetch_p_rc(idx, 0.0);\n\
         float py = fetch_p_rc(idx, 1.0);\n\
         float best_d = 3.4028234e38;\n\
         float best_i = 0.0;\n\
         for (float c = 0.0; c < {k}.0; c += 1.0) {{\n\
             float dx = px - fetch_cen_rc(c, 0.0);\n\
             float dy = py - fetch_cen_rc(c, 1.0);\n\
             float d = dx * dx + dy * dy;\n\
             if (d < best_d) {{ best_d = d; best_i = c; }}\n\
         }}\n\
         return best_i;"
    );
    Kernel::builder("kmeans_assign")
        .input_matrix("p", points)
        .input_matrix("cen", centroids)
        .output(ScalarType::U8, points.rows() as usize)
        .body(body)
        .build(cc)
}

/// Runs one assignment step on the GPU; returns per-point cluster ids.
///
/// The assignment shader depends only on `K` (the Appendix A constant
/// loop bound), so a Lloyd iteration calling this repeatedly compiles
/// exactly one program — later calls hit the context's program cache and
/// merely rebind the fresh centroid texture.
///
/// # Errors
///
/// Upload/build/run errors from the framework.
pub fn run_gpu(
    cc: &mut ComputeContext,
    points: &[(f32, f32)],
    centroids: &[(f32, f32)],
) -> Result<Vec<u8>, ComputeError> {
    let flat_p: Vec<f32> = points.iter().flat_map(|&(x, y)| [x, y]).collect();
    let flat_c: Vec<f32> = centroids.iter().flat_map(|&(x, y)| [x, y]).collect();
    crate::over_matrix(cc, (points.len(), 2), &flat_p, |cc, gp| {
        crate::over_matrix(cc, (centroids.len(), 2), &flat_c, |cc, gc| {
            let kernel = build_assign(cc, gp, gc)?;
            cc.run_and_read(&kernel)
        })
    })
}

/// CPU reference with identical distance formula and tie-breaking
/// (strictly-closer wins, so the lowest index keeps ties).
pub fn cpu_reference(points: &[(f32, f32)], centroids: &[(f32, f32)]) -> Vec<u8> {
    points
        .iter()
        .map(|&(px, py)| {
            let mut best_d = f32::MAX;
            let mut best_i = 0u8;
            for (i, &(cx, cy)) in centroids.iter().enumerate() {
                let dx = px - cx;
                let dy = py - cy;
                let d = dx * dx + dy * dy;
                if d < best_d {
                    best_d = d;
                    best_i = i as u8;
                }
            }
            best_i
        })
        .collect()
}

/// Host-side centroid update (the reduction half of k-means runs on the
/// CPU, as the paper's single-output model favours): mean of each
/// cluster, keeping the previous centroid for empty clusters.
pub fn update_centroids(
    points: &[(f32, f32)],
    assignment: &[u8],
    centroids: &[(f32, f32)],
) -> Vec<(f32, f32)> {
    let mut sums = vec![(0.0f64, 0.0f64, 0u32); centroids.len()];
    for (&(x, y), &a) in points.iter().zip(assignment) {
        let slot = &mut sums[a as usize];
        slot.0 += x as f64;
        slot.1 += y as f64;
        slot.2 += 1;
    }
    sums.iter()
        .zip(centroids)
        .map(|(&(sx, sy, n), &old)| {
            if n == 0 {
                old
            } else {
                ((sx / n as f64) as f32, (sy / n as f64) as f32)
            }
        })
        .collect()
}

/// Modelled ARM1176 workload for one assignment step.
pub fn cpu_workload(n: usize, k: usize) -> CpuWorkload {
    let nk = (n * k) as f64;
    CpuWorkload {
        fp_ops: 6.0 * nk,
        loads: 2.0 * n as f64 + 2.0 * nk,
        stores: n as f64,
        iterations: nk,
        cache_misses: n as f64 / 16.0,
        ..CpuWorkload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn clustered_points(n: usize, seed: u64) -> Vec<(f32, f32)> {
        let xs = data::random_f32(n, seed, 10.0);
        let ys = data::random_f32(n, seed + 1, 10.0);
        xs.into_iter()
            .zip(ys)
            .enumerate()
            .map(|(i, (x, y))| {
                // Three loose clusters around (0,0), (50,0), (0,50).
                match i % 3 {
                    0 => (x, y),
                    1 => (x + 50.0, y),
                    _ => (x, y + 50.0),
                }
            })
            .collect()
    }

    #[test]
    fn assignment_matches_cpu() {
        let points = clustered_points(200, 111);
        let centroids = vec![(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (25.0, 25.0)];
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let gpu = run_gpu(&mut cc, &points, &centroids).expect("run");
        assert_eq!(gpu, cpu_reference(&points, &centroids));
    }

    #[test]
    fn obvious_clusters_assign_correctly() {
        let points = vec![(0.1, 0.2), (49.0, 1.0), (1.0, 52.0)];
        let centroids = vec![(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gpu = run_gpu(&mut cc, &points, &centroids).expect("run");
        assert_eq!(gpu, vec![0, 1, 2]);
    }

    #[test]
    fn full_lloyd_iteration_converges_on_gpu_assignments() {
        let points = clustered_points(120, 113);
        let mut centroids = vec![(10.0, 10.0), (40.0, 10.0), (10.0, 40.0)];
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let mut last_assignment = Vec::new();
        for _ in 0..10 {
            let assignment = run_gpu(&mut cc, &points, &centroids).expect("run");
            if assignment == last_assignment {
                break;
            }
            centroids = update_centroids(&points, &assignment, &centroids);
            last_assignment = assignment;
        }
        // Converged state: the GPU assignment equals the CPU assignment
        // of the final centroids, and every cluster is non-empty.
        assert_eq!(last_assignment, cpu_reference(&points, &centroids));
        for c in 0..centroids.len() as u8 {
            assert!(last_assignment.contains(&c), "cluster {c} empty");
        }
        // The assignment shader depends only on K: the whole Lloyd loop
        // compiles one program, and point/centroid uploads recycle
        // through the texture pool from the second step on.
        assert_eq!(cc.stats().programs_linked, 1);
        assert!(cc.stats().program_cache_hits >= 1);
        assert!(cc.stats().texture_pool_hits >= 2);
    }

    #[test]
    fn tie_break_prefers_lowest_index() {
        let points = vec![(5.0, 0.0)];
        let centroids = vec![(0.0, 0.0), (10.0, 0.0)];
        assert_eq!(cpu_reference(&points, &centroids), vec![0]);
        let mut cc = ComputeContext::new(16, 16).expect("context");
        assert_eq!(run_gpu(&mut cc, &points, &centroids).expect("run"), vec![0]);
    }

    #[test]
    fn shape_validation() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let bad = cc.upload_matrix(3, 3, &[0.0f32; 9]).expect("m");
        let good = cc.upload_matrix(3, 2, &[0.0f32; 6]).expect("m");
        assert!(build_assign(&mut cc, &bad, &good).is_err());
        assert!(build_assign(&mut cc, &good, &bad).is_err());
    }

    #[test]
    fn empty_cluster_keeps_its_centroid() {
        let points = vec![(0.0, 0.0), (1.0, 1.0)];
        let centroids = vec![(0.5, 0.5), (100.0, 100.0)];
        let assignment = cpu_reference(&points, &centroids);
        let updated = update_centroids(&points, &assignment, &centroids);
        assert_eq!(updated[1], (100.0, 100.0));
    }
}
