//! The glsl crate's copy of the servebench tenant kernel's fragment
//! shader (`crates/glsl/tests/data/tenant_kernel.frag`, which its SPMD
//! instruction-count test shades) is what `KernelSpec` generates for
//! [`gpes_bench::ablations::tenant_spec`] number 5, the kernel the a15
//! `tenant` rows shade.

use gpes_bench::ablations::tenant_spec;
use gpes_core::ComputeContext;

#[test]
fn the_glsl_tenant_fixture_is_the_generated_source() {
    let mut cc = ComputeContext::new(16, 16).expect("context");
    let x = cc.upload(&[1.0f32; 256]).expect("upload");
    let kernel = tenant_spec(5, 256).build(&mut cc, &[x]).expect("build");
    assert_eq!(
        kernel.fragment_source(),
        include_str!("../../glsl/tests/data/tenant_kernel.frag"),
        "regenerate crates/glsl/tests/data/tenant_kernel.frag from this kernel"
    );
}
