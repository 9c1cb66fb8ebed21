//! Every bundled kernel source admits with room to spare under the
//! admission limits on what splicing its calls copies
//! (`gpes_glsl::sema::MAX_SPLICED_NODES`) and on how deep its calls nest
//! (`gpes_glsl::sema::MAX_CALL_DEPTH`): the `gpes-kernels` kernels and
//! pipelines, the a16 CNN layers, kernels `Kernel::builder` and
//! `VertexKernel` generate, and the servebench tenant kernel. The test
//! prints each source's counts, the largest last, so the limits stand
//! on a measurement.

use gpes_bench::ablations::tenant_spec;
use gpes_core::vertex_compute::VertexKernel;
use gpes_core::{ComputeContext, Kernel, PipelineSpec, ScalarType};
use gpes_glsl::sema::{MAX_CALL_DEPTH, MAX_SPLICED_NODES};
use gpes_glsl::{admit, ShaderKind};
use gpes_kernels::backprop::{self, Activation};
use gpes_kernels::reduce::{self, ReduceOp};
use gpes_kernels::{
    cnn, conv3x3, data, fft, gaussian, hotspot, kmeans, nn, pathfinder, saxpy, sgemm, srad, sum,
    transpose,
};

/// Every bundled kernel built on `cc`, and the pass kernels of every
/// bundled pipeline.
fn bundled_kernels(cc: &mut ComputeContext) -> Vec<Kernel> {
    let n = 8u32;
    let v = data::random_f32(64, 1, 10.0);
    let a = cc.upload(&v).expect("upload");
    let b = cc.upload(&v).expect("upload");
    let u = cc.upload(&data::random_u32(64, 2, 1 << 20)).expect("u32");
    let i = cc.upload(&data::random_i32(64, 3, 1 << 20)).expect("i32");
    let bytes = cc.upload(&data::random_u8(64, 4, 120)).expect("u8");
    let short = cc.upload(&v[..n as usize]).expect("upload");
    let m = cc.upload_matrix(n, n, &v).expect("matrix");
    let aug = cc
        .upload_matrix(n, n + 1, &data::random_f32(72, 5, 2.0))
        .expect("matrix");
    let mi = cc
        .upload_matrix(n, n, &data::random_i32(64, 6, 150))
        .expect("matrix");
    let img = cc
        .upload_matrix(n, n, &data::random_u8(64, 7, 255))
        .expect("matrix");
    let pts = cc.upload_matrix(n, 2, &v[..16]).expect("matrix");
    let mut kernels = vec![
        sum::build_f32(cc, &a, &b).expect("sum_f32"),
        sum::build_u32(cc, &u, &u).expect("sum_u32"),
        sum::build_i32(cc, &i, &i).expect("sum_i32"),
        sum::build_u8(cc, &bytes, &bytes).expect("sum_u8"),
        saxpy::build(cc, &a, &b, 1.5).expect("saxpy"),
        sgemm::build_f32(cc, &m, &m, &m, 1.0, 0.5).expect("sgemm_f32"),
        sgemm::build_i32(cc, &mi, &mi).expect("sgemm_i32"),
        conv3x3::build(cc, &img, &conv3x3::Filter3x3::sharpen()).expect("conv3x3"),
        transpose::build(cc, &m).expect("transpose"),
        nn::build(cc, &a, &b, [12.0, 34.0]).expect("nn"),
        hotspot::build(cc, &m, &m, hotspot::HotspotParams::default()).expect("hotspot"),
        gaussian::build_fan1(cc, &aug, 1).expect("fan1"),
        gaussian::build_fan2(cc, &aug, &short, 1).expect("fan2"),
        kmeans::build_assign(cc, &pts, &pts).expect("kmeans"),
        pathfinder::build_step(cc, &m, &short, 1).expect("pathfinder"),
        backprop::build_layer(cc, &short, &m, &short, Activation::Sigmoid).expect("backprop"),
        tenant_spec(5, 256).build(cc, &[a]).expect("tenant"),
        Kernel::builder("typed")
            .input_declared("x", ScalarType::I16)
            .uniform_f32("k", 0.5)
            .output(ScalarType::U16, 16)
            .body("return fetch_x(idx) * k + fetch_x_rc(row, col);")
            .build(cc)
            .expect("typed kernel"),
    ];
    let pipelines: Vec<PipelineSpec> = vec![
        cnn::pipeline_spec(cnn::Precision::Quantized).expect("cnn"),
        cnn::pipeline_spec(cnn::Precision::F32).expect("cnn f32"),
        fft::pipeline_spec(64, fft::Direction::Forward).expect("fft"),
        reduce::pipeline_spec(64, ReduceOp::Sum).expect("reduce sum"),
        reduce::pipeline_spec(64, ReduceOp::Max).expect("reduce max"),
        srad::pipeline_spec(8, 8, srad::SradParams::default(), 1).expect("srad"),
    ];
    for spec in &pipelines {
        let served = spec
            .build(cc)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        kernels.extend(served.pipeline().kernels().cloned());
    }
    kernels
}

#[test]
fn every_bundled_kernel_admits_with_four_times_headroom_under_the_splice_and_depth_limits() {
    let mut cc = ComputeContext::new(64, 64).expect("context");
    let mut sources: Vec<(String, ShaderKind, String)> = Vec::new();
    for kernel in bundled_kernels(&mut cc) {
        let name = kernel.name().to_owned();
        sources.push((name.clone(), ShaderKind::Vertex, kernel.vertex_source()));
        let fragment = kernel.fragment_source().to_owned();
        sources.push((name, ShaderKind::Fragment, fragment));
    }
    let vertex = VertexKernel::builder("vertex_mix")
        .input("x", &data::random_f32(64, 8, 4.0))
        .uniform_f32("alpha", 1.75)
        .output(ScalarType::F32, 64)
        .body("return alpha * x;")
        .build(&mut cc)
        .expect("vertex kernel");
    for (kind, source) in [
        (ShaderKind::Vertex, vertex.vertex_source()),
        (ShaderKind::Fragment, vertex.fragment_source()),
    ] {
        sources.push((vertex.name().to_owned(), kind, source.to_owned()));
    }
    let mut counts: Vec<(u32, u32, String)> = sources
        .iter()
        .map(|(name, kind, source)| {
            let shader = admit(*kind, source).unwrap_or_else(|e| panic!("{name} {kind:?}: {e}"));
            let what = format!("{name} {kind:?}");
            (shader.spliced_nodes(), shader.call_depth(), what)
        })
        .collect();
    counts.sort();
    counts.dedup();
    for (nodes, depth, what) in &counts {
        println!("{nodes:>6} spliced nodes  {depth:>3} calls deep  {what}");
    }
    let (largest, _, what) = counts.last().expect("sources");
    println!("largest: {what}, {largest} of {MAX_SPLICED_NODES}");
    assert!(
        4 * largest <= MAX_SPLICED_NODES,
        "{what} splices {largest} nodes, within 4x of {MAX_SPLICED_NODES}"
    );
    let (_, deepest, what) = (counts.iter())
        .max_by_key(|(_, depth, _)| *depth)
        .expect("sources");
    println!("deepest: {what}, {deepest} of {MAX_CALL_DEPTH}");
    assert!(
        4 * deepest <= MAX_CALL_DEPTH,
        "{what} nests {deepest} calls deep, within 4x of {MAX_CALL_DEPTH}"
    );
}
