//! What admitting a never-seen kernel costs the allocator, and how often
//! a shared program cache compiles its vertex shader.
//!
//! Every tenant-churn request admits a new fragment source and links it
//! once, so the front end's allocations are on each such request's path.
//! The budget below is the count of the lean front end plus about 10 %
//! headroom; a rewrite that clones names per node or re-collects lines
//! into buffers again fails it (the front end it replaced made 4153).

use gpes_core::cache::SharedProgramCache;
use gpes_core::serve::KernelSpec;
use gpes_core::{geometry, ComputeContext};
use gpes_gles2::Limits;
use gpes_glsl::ShaderKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts the allocations (and reallocations) of threads that opted in,
/// so tests running beside the measured one do not disturb its count.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The fragment source of a tenant-churn kernel: one f32 input, an f32
/// output and a one-line body with baked constants.
fn tenant_source(scale: f32) -> String {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let x = cc.upload(&[1.0f32; 16]).expect("upload");
    let kernel = KernelSpec::new("tenant")
        .input("x")
        .output(16)
        .body(format!("return fetch_x(idx) * {scale:?} + 0.0;"))
        .build(&mut cc, &[x])
        .expect("build");
    kernel.fragment_source().to_owned()
}

/// Allocations per admitted-and-lowered tenant source: 708 measured,
/// plus headroom.
const ADMIT_AND_LOWER_BUDGET: u64 = 775;

#[test]
fn admitting_and_lowering_a_tenant_kernel_stays_within_its_allocation_budget() {
    let source = tenant_source(1.25);
    // Warm any lazily built process state out of the count.
    let shader = gpes_glsl::admit(ShaderKind::Fragment, &source).expect("admits");
    gpes_glsl::lower(&shader).expect("lowers");
    drop(shader);

    let (exe, count) = allocations(|| {
        let shader = gpes_glsl::admit(ShaderKind::Fragment, &source).expect("admits");
        gpes_glsl::lower(&shader).expect("lowers")
    });
    assert!(exe.code_len() > 0);
    assert!(
        count <= ADMIT_AND_LOWER_BUDGET,
        "admit + lower made {count} allocations, over the budget of {ADMIT_AND_LOWER_BUDGET}"
    );
}

#[test]
fn one_cache_compiles_the_vertex_shader_once() {
    let cache = SharedProgramCache::new();
    let vs = geometry::passthrough_vertex_shader();
    let limits = Limits::default();
    let (a, b) = (tenant_source(1.5), tenant_source(2.5));
    assert_ne!(a, b);
    let shaders = [
        cache.admit(&a).expect("admits"),
        cache.admit(&b).expect("admits"),
    ];
    let first = cache.get_or_link(&vs, &a, &limits, true).expect("links");
    let second = cache.get_or_link(&vs, &b, &limits, true).expect("links");
    assert!(Arc::ptr_eq(&first.fragment, &shaders[0]));
    assert!(Arc::ptr_eq(&second.fragment, &shaders[1]));
    assert!(
        Arc::ptr_eq(&first.vertex, &second.vertex),
        "the second link compiled the vertex shader again"
    );
    assert_eq!(cache.stats().links, 2);
}
