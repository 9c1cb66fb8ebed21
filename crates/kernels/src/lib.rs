//! # gpes-kernels — benchmark workloads for the DATE 2016 reproduction
//!
//! The paper's two evaluation benchmarks plus a set of companions that
//! exercise every part of the framework:
//!
//! | module | workload | role |
//! |--------|----------|------|
//! | [`sum`] | element-wise array addition (§V benchmark 1, all §IV types) | E1 |
//! | [`sgemm`] | `C ← α·A·B + β·C` + integer gemm (§V benchmark 2) | E1 |
//! | [`saxpy`] | `y ← α·x + y` | extra BLAS-1 |
//! | [`reduce`] | multi-pass sum/max reduction | render-to-texture chains |
//! | [`conv3x3`] | `u8` image filters | the native-byte path |
//! | [`nn`] | nearest-neighbour distances | Rodinia-style (§III-8 claim) |
//! | [`hotspot`] | thermal stencil step | Rodinia-style (§III-8 claim) |
//! | [`pathfinder`] | dynamic-programming grid traversal | Rodinia-style, chained passes |
//! | [`srad`] | anisotropic diffusion, two-kernel split | Rodinia-style, §III-8 split |
//! | [`kmeans`] | k-means assignment (argmin) | Rodinia-style, `u8` output |
//! | [`gaussian`] | Gaussian elimination (Fan1/Fan2) | Rodinia-style, chained 2-D passes |
//! | [`backprop`] | MLP layer forward pass | Rodinia-style + paper ref. 17 |
//! | [`transpose`] | matrix transpose | 2-D addressing validation |
//! | [`cnn`] | quantized CNN inference (u8/i16 end-to-end) | §IV codecs as tensor formats |
//!
//! Every module pairs its GPU kernel with a CPU reference that uses the
//! **same operation order**, so `f32` results are bit-identical under the
//! simulator's exact float model, and with a [`gpes_perf::CpuWorkload`]
//! describing the modelled ARM1176 cost.

#![warn(missing_docs)]

pub mod backprop;
pub mod cnn;
pub mod conv3x3;
pub mod data;
pub mod fft;
pub mod gaussian;
pub mod hotspot;
pub mod kmeans;
pub mod nn;
pub mod pathfinder;
pub mod reduce;
pub mod saxpy;
pub mod sgemm;
pub mod srad;
pub mod sum;
pub mod transpose;

use gpes_core::{ComputeContext, ComputeError, GpuArray, GpuMatrix};

/// Uploads `data`, runs `body` on it and gives the upload back to `cc`'s
/// texture pool whatever `body` returned: a failed run returns its input
/// textures like a successful one.
pub(crate) fn over_array<T>(
    cc: &mut ComputeContext,
    data: &[f32],
    body: impl FnOnce(&mut ComputeContext, &GpuArray<f32>) -> Result<T, ComputeError>,
) -> Result<T, ComputeError> {
    let array = cc.upload(data)?;
    let result = body(cc, &array);
    cc.recycle_array(array);
    result
}

/// [`over_array`] for a `rows` × `cols` matrix upload.
pub(crate) fn over_matrix<T>(
    cc: &mut ComputeContext,
    (rows, cols): (usize, usize),
    data: &[f32],
    body: impl FnOnce(&mut ComputeContext, &GpuMatrix<f32>) -> Result<T, ComputeError>,
) -> Result<T, ComputeError> {
    let matrix = cc.upload_matrix(rows as u32, cols as u32, data)?;
    let result = body(cc, &matrix);
    cc.recycle_matrix(matrix);
    result
}
