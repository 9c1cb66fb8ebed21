//! Neural-network layer forward pass (Rodinia `backprop`-style, and the
//! paper's reference 17: "Deep Learning on the Raspberry Pi").
//!
//! One fully-connected layer: `out[j] = σ(Σᵢ in[i]·W[i][j] + bias[j])`
//! with the logistic sigmoid. The reduction over the input dimension
//! runs as a constant-bound loop inside the fragment (Appendix A
//! conformant), one output neuron per fragment.

use gpes_core::{ComputeContext, ComputeError, GpuArray, GpuMatrix, Kernel, ScalarType};
use gpes_perf::CpuWorkload;

/// Activation applied after the affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^-x)` (Rodinia backprop's choice).
    #[default]
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// No activation (affine output layer).
    Identity,
}

impl Activation {
    fn glsl(self) -> &'static str {
        match self {
            Activation::Sigmoid => "return 1.0 / (1.0 + exp(-acc));",
            Activation::Relu => "return max(acc, 0.0);",
            Activation::Identity => "return acc;",
        }
    }

    /// CPU mirror with the same formula.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
        }
    }
}

/// Builds the layer kernel: weights are `in_dim × out_dim`, bias has
/// `out_dim` entries, the input vector has `in_dim`.
///
/// # Errors
///
/// `BadKernel` when dimensions disagree; build/compile errors.
pub fn build_layer(
    cc: &mut ComputeContext,
    input: &GpuArray<f32>,
    weights: &GpuMatrix<f32>,
    bias: &GpuArray<f32>,
    activation: Activation,
) -> Result<Kernel, ComputeError> {
    let in_dim = input.len();
    let out_dim = bias.len();
    if weights.rows() as usize != in_dim || weights.cols() as usize != out_dim {
        return Err(ComputeError::BadKernel {
            message: format!(
                "weights are {}x{}, expected {in_dim}x{out_dim}",
                weights.rows(),
                weights.cols()
            ),
        });
    }
    let body = format!(
        "float acc = fetch_bias(idx);\n\
         for (float i = 0.0; i < {in_dim}.0; i += 1.0) {{\n\
             acc += fetch_xin(i) * fetch_w_rc(i, idx);\n\
         }}\n\
         {}",
        activation.glsl()
    );
    Kernel::builder("backprop_layer")
        .input("xin", input)
        .input_matrix("w", weights)
        .input("bias", bias)
        .output(ScalarType::F32, out_dim)
        .body(body)
        .build(cc)
}

/// Runs a whole multi-layer forward pass on the GPU; `layers` holds
/// `(weights_flat, bias, activation)` per layer with weights in
/// `in_dim × out_dim` row-major order.
///
/// Layer programs differ only where the (Appendix A constant) loop bound
/// `in_dim` or the activation differs, so repeated forward passes — and
/// repeated layer shapes within one network — hit the context's program
/// cache, and intermediate activations recycle through the target pool.
///
/// # Errors
///
/// Upload/build/run errors from the framework.
pub fn forward_gpu(
    cc: &mut ComputeContext,
    input: &[f32],
    layers: &[(Vec<f32>, Vec<f32>, Activation)],
) -> Result<Vec<f32>, ComputeError> {
    let mut current = cc.upload(input)?;
    let mut current_len = input.len();
    for (i, (w, b, act)) in layers.iter().enumerate() {
        let out_dim = b.len();
        assert_eq!(
            w.len(),
            current_len * out_dim,
            "layer {i} weights must be in_dim x out_dim"
        );
        let next = crate::over_matrix(cc, (current_len, out_dim), w, |cc, gw| {
            crate::over_array(cc, b, |cc, gb| {
                let k = build_layer(cc, &current, gw, gb, *act)?;
                cc.run_to_array::<f32>(&k)
            })
        });
        cc.recycle_array(current);
        current = next?;
        current_len = out_dim;
    }
    let out = cc.read_array(&current, gpes_core::Readback::DirectFbo);
    cc.recycle_array(current);
    out
}

/// CPU reference with identical accumulation order.
pub fn cpu_reference(input: &[f32], layers: &[(Vec<f32>, Vec<f32>, Activation)]) -> Vec<f32> {
    let mut current = input.to_vec();
    for (w, b, act) in layers {
        let in_dim = current.len();
        let out_dim = b.len();
        let mut next = vec![0.0f32; out_dim];
        for (j, slot) in next.iter_mut().enumerate() {
            let mut acc = b[j];
            for i in 0..in_dim {
                acc += current[i] * w[i * out_dim + j];
            }
            *slot = act.apply(acc);
        }
        current = next;
    }
    current
}

/// Modelled ARM1176 workload for one layer.
pub fn cpu_workload(in_dim: usize, out_dim: usize) -> CpuWorkload {
    let mac = (in_dim * out_dim) as f64;
    CpuWorkload {
        fp_ops: 2.0 * mac + 4.0 * out_dim as f64, // MACs + activation
        loads: 2.0 * mac,
        stores: out_dim as f64,
        iterations: mac,
        cache_misses: mac / 16.0,
        ..CpuWorkload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn layer(
        in_dim: usize,
        out_dim: usize,
        seed: u64,
        act: Activation,
    ) -> (Vec<f32>, Vec<f32>, Activation) {
        (
            data::random_f32(in_dim * out_dim, seed, 1.0),
            data::random_f32(out_dim, seed + 1, 0.5),
            act,
        )
    }

    #[test]
    fn single_layer_matches_cpu() {
        let input = data::random_f32(12, 131, 1.0);
        let layers = vec![layer(12, 7, 132, Activation::Sigmoid)];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gpu = forward_gpu(&mut cc, &input, &layers).expect("run");
        let cpu = cpu_reference(&input, &layers);
        // exp() may differ in the last ulp between GLSL builtin and libm;
        // everything else is order-identical.
        for (g, c) in gpu.iter().zip(&cpu) {
            assert!(
                (g - c).abs() <= 2.0 * f32::EPSILON * c.abs().max(1.0),
                "{g} vs {c}"
            );
        }
    }

    #[test]
    fn two_layer_mlp_matches_cpu() {
        let input = data::random_f32(8, 133, 1.0);
        let layers = vec![
            layer(8, 16, 134, Activation::Relu),
            layer(16, 4, 135, Activation::Identity),
        ];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gpu = forward_gpu(&mut cc, &input, &layers).expect("run");
        let cpu = cpu_reference(&input, &layers);
        for (g, c) in gpu.iter().zip(&cpu) {
            assert!((g - c).abs() <= 1e-5 * c.abs().max(1.0), "{g} vs {c}");
        }
        assert_eq!(cc.pass_log().len(), 2);
    }

    #[test]
    fn repeated_inference_hits_the_program_cache() {
        let input = data::random_f32(8, 136, 1.0);
        let layers = vec![
            layer(8, 16, 137, Activation::Relu),
            layer(16, 4, 138, Activation::Identity),
        ];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let first = forward_gpu(&mut cc, &input, &layers).expect("run 1");
        let compiled = cc.stats().programs_linked;
        let before = cc.stats();
        let second = forward_gpu(&mut cc, &input, &layers).expect("run 2");
        assert_eq!(first, second);
        let after = cc.stats();
        // Inference loop steady state: no new programs, pooled targets.
        assert_eq!(after.programs_linked, compiled);
        assert!(after.program_cache_hits > before.program_cache_hits);
        assert!(after.texture_pool_hits > before.texture_pool_hits);
    }

    #[test]
    fn relu_clamps_negatives_exactly() {
        let input = vec![1.0f32];
        let layers = vec![(vec![-3.0f32, 2.0], vec![0.0f32, 0.0], Activation::Relu)];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gpu = forward_gpu(&mut cc, &input, &layers).expect("run");
        assert_eq!(gpu, vec![0.0, 2.0]);
    }

    #[test]
    fn sigmoid_saturates_correctly() {
        let input = vec![1.0f32];
        let layers = vec![(vec![30.0f32, -30.0], vec![0.0f32, 0.0], Activation::Sigmoid)];
        let cpu = cpu_reference(&input, &layers);
        assert!(cpu[0] > 0.999 && cpu[1] < 0.001);
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let gpu = forward_gpu(&mut cc, &input, &layers).expect("run");
        assert!(gpu[0] > 0.999 && gpu[1] < 0.001);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let x = cc.upload(&[1.0f32; 4]).expect("x");
        let w = cc.upload_matrix(3, 2, &[0.0f32; 6]).expect("w");
        let b = cc.upload(&[0.0f32; 2]).expect("b");
        assert!(build_layer(&mut cc, &x, &w, &b, Activation::Identity).is_err());
    }
}
