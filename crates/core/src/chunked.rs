//! Chunked execution for arrays larger than the device can hold in one
//! texture (or read back through one framebuffer).
//!
//! ES 2 guarantees only a modest `GL_MAX_TEXTURE_SIZE` (64 is the spec
//! minimum; 2048 is typical on the paper's class of hardware), and the
//! readback path is additionally capped by the EGL surface ("screen")
//! size. A million-element array therefore may not fit in a single pass.
//! [`run_chunked`] splits an element-wise kernel over as many
//! upload→dispatch→readback rounds as needed, handing the kernel the
//! chunk's global base index so position-dependent kernels stay correct.
//!
//! The paper's own benchmarks (2×1 Mi-element `sum`) implicitly rely on
//! this kind of staging on real hardware, where the 1080p-ish surface
//! cannot return 1 Mi texels in one `glReadPixels`.

use crate::buffer::{GpuArray, GpuScalar};
use crate::error::ComputeError;
use crate::kernel::Kernel;
use crate::ComputeContext;

/// Maximum elements a single chunk can carry on this context: bounded by
/// the texture size limit and by the screen (readback) size.
pub fn max_chunk_elements(cc: &ComputeContext) -> usize {
    let side = cc.max_texture_side() as usize;
    let (sw, sh) = cc.screen_size();
    let screen_side = sw.min(sh) as usize;
    let cap = side.min(screen_side);
    cap * cap
}

/// Builds and runs an element-wise kernel over `data` in chunks, reading
/// every chunk back through the default framebuffer and concatenating.
///
/// `build` receives the chunk's input array and the chunk's **global
/// base index**; the kernel body sees per-chunk `idx`, so a kernel that
/// needs the global position adds the base (conventionally exposed as a
/// `uniform float` by the builder closure).
///
/// # Errors
///
/// `BadKernel` for empty inputs; upload/build/run errors from the
/// framework.
///
/// # Examples
///
/// ```
/// use gpes_core::{chunked, ComputeContext, Kernel, ScalarType};
///
/// # fn main() -> Result<(), gpes_core::ComputeError> {
/// let mut cc = ComputeContext::new(16, 16)?;
/// let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
/// // 16x16 screen → ≤256 elements per chunk → 4 chunks.
/// let out = chunked::run_chunked(&mut cc, &data, |cc, chunk, base| {
///     Kernel::builder("scale")
///         .input("x", chunk)
///         .uniform_f32("base", base as f32)
///         .output(ScalarType::F32, chunk.len())
///         .body("return fetch_x(idx) + base;")
///         .build(cc)
/// })?;
/// assert_eq!(out[999], 999.0 + 768.0); // base of the last chunk
/// # Ok(())
/// # }
/// ```
pub fn run_chunked<T, F>(
    cc: &mut ComputeContext,
    data: &[T],
    mut build: F,
) -> Result<Vec<T>, ComputeError>
where
    T: GpuScalar,
    F: FnMut(&mut ComputeContext, &GpuArray<T>, usize) -> Result<Kernel, ComputeError>,
{
    if data.is_empty() {
        return Err(ComputeError::bad_kernel("chunked run over an empty array"));
    }
    let chunk_elems = max_chunk_elements(cc);
    let mut out = Vec::with_capacity(data.len());
    for (chunk_no, chunk) in data.chunks(chunk_elems).enumerate() {
        let base = chunk_no * chunk_elems;
        let arr = cc.upload(chunk)?;
        let _held = cc.own(arr.texture);
        // The builder runs per chunk, but identical generated sources hit
        // the context's program cache: one link serves every chunk.
        let kernel = build(cc, &arr, base)?;
        let mut part: Vec<T> = cc.run_and_read(&kernel)?;
        out.append(&mut part);
    }
    Ok(out)
}

/// Two-input variant of [`run_chunked`] for zip-style kernels
/// (`sum`, `saxpy`, …).
///
/// # Errors
///
/// `BadKernel` when lengths differ or inputs are empty; framework errors
/// as in [`run_chunked`].
pub fn run_chunked2<T, F>(
    cc: &mut ComputeContext,
    a: &[T],
    b: &[T],
    mut build: F,
) -> Result<Vec<T>, ComputeError>
where
    T: GpuScalar,
    F: FnMut(
        &mut ComputeContext,
        &GpuArray<T>,
        &GpuArray<T>,
        usize,
    ) -> Result<Kernel, ComputeError>,
{
    if a.len() != b.len() {
        return Err(ComputeError::bad_kernel(format!(
            "chunked inputs differ in length: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    if a.is_empty() {
        return Err(ComputeError::bad_kernel("chunked run over an empty array"));
    }
    let chunk_elems = max_chunk_elements(cc);
    let mut out = Vec::with_capacity(a.len());
    for (chunk_no, (ca, cb)) in a.chunks(chunk_elems).zip(b.chunks(chunk_elems)).enumerate() {
        let base = chunk_no * chunk_elems;
        let ga = cc.upload(ca)?;
        let _held_a = cc.own(ga.texture);
        let gb = cc.upload(cb)?;
        let _held_b = cc.own(gb.texture);
        let kernel = build(cc, &ga, &gb, base)?;
        let mut part: Vec<T> = cc.run_and_read(&kernel)?;
        out.append(&mut part);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ScalarType;
    use gpes_gles2::Limits;

    fn tiny_device() -> ComputeContext {
        // 8x8 screen and an 8-texel texture cap: 64 elements per chunk.
        ComputeContext::with_limits(
            8,
            8,
            Limits {
                max_texture_size: 8,
                ..Limits::default()
            },
        )
        .expect("context")
    }

    #[test]
    fn chunk_capacity_honours_both_limits() {
        let cc = tiny_device();
        assert_eq!(max_chunk_elements(&cc), 64);
        // Screen smaller than the texture cap: screen wins.
        let cc = ComputeContext::with_limits(
            4,
            4,
            Limits {
                max_texture_size: 8,
                ..Limits::default()
            },
        )
        .expect("context");
        assert_eq!(max_chunk_elements(&cc), 16);
    }

    #[test]
    fn oversized_array_fails_unchunked_but_runs_chunked() {
        let mut cc = tiny_device();
        let data: Vec<f32> = (0..500).map(|i| i as f32 * 0.5).collect();
        // Direct upload of 500 elements cannot fit 8x8 textures.
        assert!(matches!(
            cc.upload(&data),
            Err(ComputeError::TooLarge { .. })
        ));
        let out = run_chunked(&mut cc, &data, |cc, chunk, _base| {
            Kernel::builder("triple")
                .input("x", chunk)
                .output(ScalarType::F32, chunk.len())
                .body("return fetch_x(idx) * 3.0;")
                .build(cc)
        })
        .expect("chunked run");
        assert_eq!(out.len(), 500);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 * 1.5, "element {i}");
        }
        // 500 elements at 64 per chunk → 8 passes.
        assert_eq!(cc.pass_log().len(), 8);
        // The generated source is chunk-independent (output shape and the
        // chunk base are dispatch state), so one program serves all 8 —
        // and recycled chunk uploads feed the texture pool.
        assert_eq!(cc.stats().programs_linked, 1);
        assert_eq!(cc.stats().program_cache_hits, 7);
        assert!(cc.stats().texture_pool_hits >= 6);
    }

    #[test]
    fn global_index_via_base_uniform() {
        let mut cc = tiny_device();
        let data = vec![0.0f32; 200];
        let out = run_chunked(&mut cc, &data, |cc, chunk, base| {
            Kernel::builder("global_idx")
                .input("x", chunk)
                .uniform_f32("base", base as f32)
                .output(ScalarType::F32, chunk.len())
                .body("return fetch_x(idx) + base + idx;")
                .build(cc)
        })
        .expect("chunked run");
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32, "global index at {i}");
        }
    }

    #[test]
    fn two_input_chunked_sum_matches_cpu_u32() {
        let mut cc = tiny_device();
        let a: Vec<u32> = (0..300).map(|i| i * 7).collect();
        let b: Vec<u32> = (0..300).map(|i| i + 1000).collect();
        let out = run_chunked2(&mut cc, &a, &b, |cc, ga, gb, _| {
            gpes_kernels_free_sum(cc, ga, gb)
        })
        .expect("chunked run");
        let expect: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(out, expect);
    }

    // A local u32 sum builder (gpes-kernels depends on gpes-core, so the
    // real one cannot be used here without a cycle).
    fn gpes_kernels_free_sum(
        cc: &mut ComputeContext,
        a: &GpuArray<u32>,
        b: &GpuArray<u32>,
    ) -> Result<Kernel, ComputeError> {
        Kernel::builder("sum_u32")
            .input("a", a)
            .input("b", b)
            .output(ScalarType::U32, a.len())
            .body("return fetch_a(idx) + fetch_b(idx);")
            .build(cc)
    }

    #[test]
    fn length_mismatch_and_empty_rejected() {
        let mut cc = tiny_device();
        let err = run_chunked2(&mut cc, &[1.0f32], &[1.0f32, 2.0], |cc, a, b, _| {
            gpes_kernels_free_sum_f32(cc, a, b)
        })
        .unwrap_err();
        assert!(err.to_string().contains("length"));
        let empty: &[f32] = &[];
        assert!(run_chunked(&mut cc, empty, |cc, chunk, _| {
            Kernel::builder("id")
                .input("x", chunk)
                .output(ScalarType::F32, chunk.len())
                .body("return fetch_x(idx);")
                .build(cc)
        })
        .is_err());
    }

    fn gpes_kernels_free_sum_f32(
        cc: &mut ComputeContext,
        a: &GpuArray<f32>,
        b: &GpuArray<f32>,
    ) -> Result<Kernel, ComputeError> {
        Kernel::builder("sum_f32")
            .input("a", a)
            .input("b", b)
            .output(ScalarType::F32, a.len())
            .body("return fetch_a(idx) + fetch_b(idx);")
            .build(cc)
    }
}
