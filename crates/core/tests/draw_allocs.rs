//! What a warm draw costs the allocator as it grows.
//!
//! A warm f32 draw allocates a fixed amount per draw; what it allocates
//! per 8-lane SPMD batch must stay near zero, or a large dispatch pays
//! the allocator once per fetch. Sampler uniforms used to live in boxed
//! VM slots, so each `texture2D` argument load cloned a box: about one
//! allocation per batch (the 1024 − 256 texel difference read 96, at 134
//! and 230 allocations).

mod alloc_count;

use alloc_count::allocations;
use gpes_core::{ComputeContext, ExecMode, Kernel, ScalarType};
use gpes_gles2::Dispatch;

/// Allocations of one warm draw of an f32 kernel over `len` texels,
/// shaded serially on this thread in 8-lane batches.
fn warm_draw_allocations(len: usize) -> u64 {
    let mut cc = ComputeContext::new(64, 64).expect("context");
    cc.set_dispatch(Dispatch::Serial);
    cc.set_exec_mode(ExecMode::Spmd { lanes: 8 });
    let input: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 7.0).collect();
    let x = cc.upload(&input).expect("upload");
    let kernel = Kernel::builder("scale")
        .input("x", &x)
        .output(ScalarType::F32, len)
        .body("return fetch_x(idx) * 1.5 + 0.25;")
        .build(&mut cc)
        .expect("build");
    let out = cc.run_to_array::<f32>(&kernel).expect("warm-up draw");
    cc.recycle_array(out);
    let (out, count) = allocations(|| cc.run_to_array::<f32>(&kernel).expect("draw"));
    cc.recycle_array(out);
    count
}

/// Allocations the 1024-texel draw makes beyond the 256-texel one, for
/// its 96 more batches (92 allocations each).
const EXTRA_BATCH_ALLOCATIONS: u64 = 0;

#[test]
fn a_warm_draw_allocates_nothing_per_batch() {
    let small = warm_draw_allocations(256);
    let large = warm_draw_allocations(1024);
    assert_eq!(
        large.saturating_sub(small),
        EXTRA_BATCH_ALLOCATIONS,
        "1024 texels made {large} allocations against {small} for 256"
    );
}
