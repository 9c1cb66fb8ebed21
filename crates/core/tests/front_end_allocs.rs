//! What admitting a never-seen kernel costs the allocator, and how often
//! a shared program cache compiles and lowers its vertex shader.
//!
//! Every tenant-churn request admits a new fragment source and links it
//! once, so the front end's allocations are on each such request's path.
//! Each budget below is a measured count plus about 10 % headroom: one
//! for a whole source, one for a source checked after its warmed codec
//! prelude, which is what a registration pays. A rewrite that clones
//! names per node or re-collects lines into buffers again fails them
//! (the front end the lean one replaced made 4153 for a whole source).

mod alloc_count;

use alloc_count::allocations;
use gpes_core::cache::SharedProgramCache;
use gpes_core::serve::KernelSpec;
use gpes_core::{codec_prelude, geometry, ComputeContext, FloatSpecials, PackBias};
use gpes_gles2::Limits;
use gpes_glsl::ShaderKind;
use std::sync::Arc;

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

/// Allocations per admitted-and-lowered whole tenant source: 709
/// measured, plus headroom.
const ADMIT_AND_LOWER_BUDGET: u64 = 775;

/// Allocations per tenant source admitted after its warmed codec prelude
/// and then lowered, what registering a never-seen kernel costs: 249
/// measured, plus headroom.
const ADMIT_AFTER_PRELUDE_AND_LOWER_BUDGET: u64 = 275;

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
fn admitting_a_tenant_kernel_after_its_prelude_stays_within_its_allocation_budget() {
    let source = tenant_source(1.25);
    let prelude = codec_prelude(PackBias::default(), FloatSpecials::default());
    let admit = || {
        let shader =
            gpes_glsl::admit_after(Some(prelude), ShaderKind::Fragment, &source).expect("admits");
        assert!(shader.prelude.is_some(), "checked after the prelude");
        gpes_glsl::lower(&shader).expect("lowers")
    };
    // Warm any lazily built process state out of the count.
    admit();

    let (exe, count) = allocations(admit);
    assert!(exe.code_len() > 0);
    assert!(
        count <= ADMIT_AFTER_PRELUDE_AND_LOWER_BUDGET,
        "admit after the prelude + lower made {count} allocations, over the budget of \
         {ADMIT_AFTER_PRELUDE_AND_LOWER_BUDGET}"
    );
}

#[test]
fn one_cache_compiles_the_vertex_shader_once() {
    let cache = SharedProgramCache::new();
    let vs = geometry::passthrough_vertex_shader();
    let limits = Limits::default();
    let prelude = codec_prelude(PackBias::default(), FloatSpecials::default());
    let (a, b) = (tenant_source(1.5), tenant_source(2.5));
    assert_ne!(a, b);
    let shaders = [
        cache.admit(&a, Some(prelude)).expect("admits"),
        cache.admit(&b, Some(prelude)).expect("admits"),
    ];
    let first = cache
        .get_or_link(&vs, &a, Some(prelude), &limits, true)
        .expect("links");
    let second = cache
        .get_or_link(&vs, &b, Some(prelude), &limits, true)
        .expect("links");
    assert!(Arc::ptr_eq(&first.fragment, &shaders[0]));
    assert!(Arc::ptr_eq(&second.fragment, &shaders[1]));
    assert!(
        Arc::ptr_eq(&first.vertex, &second.vertex),
        "the second link compiled the vertex shader again"
    );
    assert!(
        Arc::ptr_eq(
            &first.vertex_executable_shared(),
            &second.vertex_executable_shared()
        ),
        "the second link lowered the vertex shader again"
    );
    assert_eq!(cache.stats().links, 2);
}
