//! Executor ablation: fragments/second through the full pipeline for the
//! tree-walking interpreter and the SPMD lane VM at one and eight lanes,
//! on the two shader families the paper's evaluation leans on —
//! `conv3x3` (texture-heavy byte path) and `sgemm` (ALU/loop-heavy
//! float path).
//!
//! Both executors produce bit-identical outputs and profiles (asserted
//! by the differential suites); this bench quantifies the host-side
//! speedup of lowering shaders once instead of re-walking the AST per
//! fragment (`spmd1`), and of shading band fragments in lockstep lanes
//! (`spmd8`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpes_core::{ComputeContext, ExecMode};
use gpes_gles2::Dispatch;
use gpes_kernels::{conv3x3, data, sgemm};
use std::hint::black_box;

const MODES: [ExecMode; 3] = [
    ExecMode::TreeWalker,
    ExecMode::Spmd { lanes: 1 },
    ExecMode::Spmd { lanes: 8 },
];

fn bench_conv3x3(c: &mut Criterion) {
    let mut group = c.benchmark_group("executors_conv3x3");
    group.sample_size(10);
    let side = 48u32;
    for mode in MODES {
        group.throughput(Throughput::Elements(u64::from(side * side)));
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.label()),
            &mode,
            |b, &mode| {
                let mut cc = ComputeContext::new(128, 128).expect("context");
                cc.set_exec_mode(mode);
                cc.set_dispatch(Dispatch::Serial);
                let img = data::random_u8((side * side) as usize, 71, 255);
                let gm = cc.upload_matrix(side, side, &img).expect("upload");
                let k =
                    conv3x3::build(&mut cc, &gm, &conv3x3::Filter3x3::box_blur()).expect("kernel");
                b.iter(|| {
                    let out: Vec<u8> = cc.run_and_read(&k).expect("run");
                    black_box(out)
                });
            },
        );
    }
    group.finish();
}

fn bench_sgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("executors_sgemm");
    group.sample_size(10);
    let n = 24usize;
    for mode in MODES {
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.label()),
            &mode,
            |b, &mode| {
                let mut cc = ComputeContext::new(64, 64).expect("context");
                cc.set_exec_mode(mode);
                cc.set_dispatch(Dispatch::Serial);
                let a = data::random_f32(n * n, 72, 2.0);
                let bm = data::random_f32(n * n, 73, 2.0);
                let cm = data::random_f32(n * n, 74, 2.0);
                let ga = cc.upload_matrix(n as u32, n as u32, &a).expect("a");
                let gb = cc.upload_matrix(n as u32, n as u32, &bm).expect("b");
                let gc = cc.upload_matrix(n as u32, n as u32, &cm).expect("c");
                let k = sgemm::build_f32(&mut cc, &ga, &gb, &gc, 1.0, 0.5).expect("kernel");
                b.iter(|| black_box(cc.run_f32(&k).expect("run")));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_conv3x3, bench_sgemm);
criterion_main!(benches);
