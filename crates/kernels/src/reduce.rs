//! Multi-pass parallel reduction (sum / max) — the canonical GPGPU
//! pattern that exercises render-to-texture chaining (workaround #7).
//!
//! Each pass folds `FANIN` consecutive elements into one output element;
//! passes repeat until a single element remains, which is read back
//! through the framebuffer. The whole tree is **one compiled kernel**
//! dispatched through a retained [`Pipeline`]: each level only rebinds
//! the ping-pong texture, shrinks the output domain and updates the
//! `n_live` uniform — zero shader compiles inside the loop.

use gpes_core::{
    ComputeContext, ComputeError, GpuArray, Kernel, KernelSpec, OutputShape, Pass, PassSpec,
    Pipeline, PipelineSpec,
};
use gpes_glsl::Value;
use std::sync::Arc;

/// Elements folded per output per pass.
pub const FANIN: usize = 8;

/// The reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Maximum element.
    Max,
}

impl ReduceOp {
    fn init_glsl(self) -> &'static str {
        match self {
            ReduceOp::Sum => "0.0",
            // Kernel inputs are finite; the most negative finite float is
            // a safe identity for max without needing -inf literals.
            ReduceOp::Max => "-3.4028234e38",
        }
    }

    fn combine_glsl(self) -> &'static str {
        match self {
            ReduceOp::Sum => "acc = acc + v;",
            ReduceOp::Max => "acc = max(acc, v);",
        }
    }

    fn combine_cpu(self, acc: f32, v: f32) -> f32 {
        match self {
            ReduceOp::Sum => acc + v,
            ReduceOp::Max => acc.max(v),
        }
    }

    fn init_cpu(self) -> f32 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => -3.402_823_4e38,
        }
    }
}

/// The GLSL body of one fold level (shared with the `a9` rebuild-per-pass
/// baseline so the two stay bit-identical by construction). Level size
/// arrives through the `n_live` uniform; the shader is level-independent.
pub fn fold_body(op: ReduceOp) -> String {
    format!(
        "float acc = {init};\n\
         for (int k = 0; k < {fanin}; k++) {{\n\
         \x20   float j = idx * {fanin}.0 + float(k);\n\
         \x20   if (j < n_live) {{\n\
         \x20       float v = fetch_x(j);\n\
         \x20       {combine}\n\
         \x20   }}\n\
         }}\n\
         return acc;",
        init = op.init_glsl(),
        fanin = FANIN,
        combine = op.combine_glsl(),
    )
}

/// Builds the single fold kernel shared by every level of the tree (the
/// `n_live` uniform and the output shape vary per level, not the shader).
/// Built through [`fold_spec`] so direct and engine-served reductions
/// share one program by construction.
fn pass_kernel(
    cc: &mut ComputeContext,
    input: &GpuArray<f32>,
    op: ReduceOp,
) -> Result<Kernel, ComputeError> {
    fold_spec(input.len(), op).build(cc, &[*input])
}

/// Context-free spec of the fold kernel for an `n`-element input — the
/// engine-servable twin of the private per-context builder, generating
/// the byte-identical program (level size arrives through the `n_live`
/// uniform, so one program serves the whole tree).
pub fn fold_spec(n: usize, op: ReduceOp) -> KernelSpec {
    KernelSpec::new(format!("reduce_{op:?}"))
        .input("x")
        .uniform_f32("n_live", n as f32)
        .output(n.div_ceil(FANIN))
        .body(fold_body(op))
}

/// Context-free spec of the whole retained reduction tree, mirroring
/// [`gpu_reduce`]'s wiring (one fold kernel, per-level output shapes and
/// `n_live` values). Submit through
/// [`gpes_core::Engine::submit`] with one linear source `x` of
/// `n` elements and read buffer `x` (one element); the result is
/// bit-identical to [`gpu_reduce`]. `n == 1` degenerates to zero
/// iterations: the seed is read back unchanged.
///
/// # Errors
///
/// `BadKernel` for `n == 0`.
pub fn pipeline_spec(n: usize, op: ReduceOp) -> Result<PipelineSpec, ComputeError> {
    if n == 0 {
        return Err(ComputeError::BadKernel {
            message: "cannot reduce an empty array".into(),
        });
    }
    let mut in_lens = vec![n];
    while *in_lens.last().expect("non-empty") > 1 {
        in_lens.push(in_lens.last().expect("non-empty").div_ceil(FANIN));
    }
    let levels = in_lens.len() - 1;
    let kernel = Arc::new(fold_spec(n, op));
    let live = in_lens.clone();
    let out = in_lens;
    PipelineSpec::builder(format!("reduce_{op:?}"))
        .source_len("x", n)
        .pass(
            PassSpec::new(&kernel)
                .read("x", "x")
                .write_len("x", 1)
                .output_per_iter(move |level| OutputShape::Linear(out[level + 1]))
                .uniform_per_iter("n_live", move |level| Value::Float(live[level] as f32)),
        )
        .iterations(levels)
        .build()
}

/// Reduces an f32 array on the GPU, returning the scalar result.
///
/// Runs ⌈log_FANIN n⌉ passes of **one** compiled kernel through a
/// retained [`Pipeline`]; intermediate levels ping-pong through pooled
/// render targets, and the final single-element pass renders straight
/// into the default framebuffer for readback.
///
/// # Errors
///
/// Build/run errors from the framework.
pub fn gpu_reduce(
    cc: &mut ComputeContext,
    input: &GpuArray<f32>,
    op: ReduceOp,
) -> Result<f32, ComputeError> {
    if input.len() == 1 {
        let result = cc.read_array(input, gpes_core::Readback::DirectFbo)?;
        return Ok(result[0]);
    }
    // Per-level element counts: in_lens[i] feeds level i, producing
    // in_lens[i + 1].
    let mut in_lens = vec![input.len()];
    while *in_lens.last().expect("non-empty") > 1 {
        in_lens.push(in_lens.last().expect("non-empty").div_ceil(FANIN));
    }
    let levels = in_lens.len() - 1;
    let kernel = pass_kernel(cc, input, op)?;
    let live = in_lens.clone();
    let out = in_lens;
    let pipeline = Pipeline::builder(format!("reduce_{op:?}"))
        .source("x", input)
        .pass(
            Pass::new(&kernel)
                .read("x", "x")
                .write_len("x", 1)
                .output_per_iter(move |level| OutputShape::Linear(out[level + 1]))
                .uniform_per_iter("n_live", move |level| Value::Float(live[level] as f32)),
        )
        .iterations(levels)
        .build()?;
    let result = pipeline.run_and_read::<f32>(cc, "x")?;
    Ok(result[0])
}

/// CPU reference: fold in exactly the same tree order as the GPU passes
/// so f32 sums agree bit-for-bit under the exact float model.
pub fn cpu_reference(data: &[f32], op: ReduceOp) -> f32 {
    let mut level: Vec<f32> = data.to_vec();
    while level.len() > 1 {
        level = level
            .chunks(FANIN)
            .map(|chunk| {
                let mut acc = op.init_cpu();
                for &v in chunk {
                    acc = op.combine_cpu(acc, v);
                }
                acc
            })
            .collect();
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn sum_reduction_matches_tree_order() {
        let n = 1000;
        let values = data::random_f32(n, 51, 10.0);
        let mut cc = ComputeContext::new(64, 64).expect("context");
        let arr = cc.upload(&values).expect("upload");
        let gpu = gpu_reduce(&mut cc, &arr, ReduceOp::Sum).expect("reduce");
        assert_eq!(gpu, cpu_reference(&values, ReduceOp::Sum));
        // 1000 → 125 → 16 → 2 → 1: four passes.
        assert_eq!(cc.pass_log().len(), 4);
        // Four passes, ONE program: the compile/bind split at work.
        assert_eq!(cc.stats().programs_linked, 1);
        // Re-running reduces of other sizes recompiles nothing either.
        let arr2 = cc.upload(&values[..321]).expect("upload 2");
        let gpu2 = gpu_reduce(&mut cc, &arr2, ReduceOp::Sum).expect("reduce 2");
        assert_eq!(gpu2, cpu_reference(&values[..321], ReduceOp::Sum));
        assert_eq!(cc.stats().programs_linked, 1);
        assert!(cc.stats().program_cache_hits >= 1);
    }

    #[test]
    fn max_reduction() {
        let values = data::random_f32(333, 52, 1.0e6);
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let arr = cc.upload(&values).expect("upload");
        let gpu = gpu_reduce(&mut cc, &arr, ReduceOp::Max).expect("reduce");
        let expected = values.iter().cloned().fold(f32::MIN, f32::max);
        assert_eq!(gpu, expected);
    }

    #[test]
    fn single_element_is_identity() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        let arr = cc.upload(&[42.5f32]).expect("upload");
        assert_eq!(
            gpu_reduce(&mut cc, &arr, ReduceOp::Sum).expect("reduce"),
            42.5
        );
        assert!(cc.pass_log().is_empty(), "no kernel pass needed");
    }

    #[test]
    fn negative_values_max() {
        let values = vec![-5.0f32, -2.5, -9.0];
        let mut cc = ComputeContext::new(8, 8).expect("context");
        let arr = cc.upload(&values).expect("upload");
        assert_eq!(
            gpu_reduce(&mut cc, &arr, ReduceOp::Max).expect("reduce"),
            -2.5
        );
    }

    #[test]
    fn pipeline_spec_matches_direct_run_bitwise() {
        let n = 1000;
        let values = data::random_f32(n, 53, 10.0);
        let mut cc = ComputeContext::new(64, 64).expect("context");
        let arr = cc.upload(&values).expect("upload");
        let direct = gpu_reduce(&mut cc, &arr, ReduceOp::Sum).expect("direct");
        let links = cc.stats().programs_linked;
        let spec = pipeline_spec(n, ReduceOp::Sum).expect("spec");
        let served = spec.build(&mut cc).expect("build");
        assert_eq!(cc.stats().programs_linked, links, "spec relinked a program");
        let seeds = [gpes_core::SourceSeed::array("x", &arr)];
        let out: Vec<f32> = served
            .pipeline()
            .run_and_read_seeded(&mut cc, &seeds, "x")
            .expect("seeded run");
        assert_eq!(out, vec![direct]);
        assert!(pipeline_spec(0, ReduceOp::Sum).is_err());
    }
}
