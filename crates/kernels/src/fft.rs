//! Radix-2 Stockham FFT over the graphics pipeline — the paper's
//! reference 6 (Andrew Holme's `GPU_FFT` for the VideoCore IV) redone
//! portably on top of the §III/§IV framework instead of raw QPU assembly.
//!
//! A complex butterfly produces **two** values (real and imaginary), so
//! on the single-output fragment pipeline each of the `log₂ N` Stockham
//! stages splits into two kernels sharing the same fetch pattern — the
//! §III-8 rule in action. Twiddles are evaluated in-shader with
//! `cos`/`sin`; the CPU reference mirrors the exact operation order, so
//! results are bit-identical under the simulator's exact float model.
//!
//! Stockham self-sorts: no bit-reversal pass is needed, which also means
//! every stage is a pure gather — ideal for texture-fetch hardware.
//!
//! The stage width `half` is a **uniform**, not a compile-time constant,
//! so the whole `log₂ N`-stage transform runs on exactly two compiled
//! programs (one per §III-8 output half) dispatched through a retained
//! [`Pipeline`] with explicit ping-pong buffer pairs — both stage kernels
//! must read the *old* generation before either may be overwritten.

use gpes_core::{
    ComputeContext, ComputeError, GpuArray, Kernel, KernelSpec, Pass, PassSpec, Pipeline,
    PipelineSpec,
};
use gpes_glsl::Value;
use gpes_perf::CpuWorkload;
use std::sync::Arc;

/// Direction of the transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT (negative exponent).
    Forward,
    /// Inverse DFT (positive exponent), **unnormalised** — divide by `N`
    /// on the host if needed, like `GPU_FFT` does.
    Inverse,
}

impl Direction {
    fn sign(self) -> f32 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// Builds one Stockham stage kernel for the real (`emit_re = true`) or
/// imaginary half of the butterfly. The stage width arrives through the
/// `half_` uniform, so one program serves every stage.
///
/// Stage `s` (half = 2^s): `out[k] = a ± w·b` where for output index
/// `k = q·2·half + r` (`r < half`): `a = in[q·half + r]` from the first
/// half and `b = in[q·half + r + N/2]`, with twiddle angle
/// `sign · 2π · r / (2·half)`.
fn build_stage(
    cc: &mut ComputeContext,
    re: &GpuArray<f32>,
    im: &GpuArray<f32>,
    direction: Direction,
    emit_re: bool,
) -> Result<Kernel, ComputeError> {
    // Built through the context-free spec so direct and engine-served
    // transforms share one program by construction.
    stage_spec(re.len(), direction, emit_re).build(cc, &[*re, *im])
}

/// The GLSL body of one Stockham stage for a size-`n` transform. With
/// `baked_half: None` (the retained form) the stage width arrives through
/// the `half_` uniform; `Some(h)` bakes it in as a literal — the
/// pre-split form the `a9` baseline measures. Sharing the template keeps
/// the two bit-identical by construction.
pub fn stage_body(
    n: usize,
    direction: Direction,
    emit_re: bool,
    baked_half: Option<usize>,
) -> String {
    let prelude = match baked_half {
        Some(h) => format!("float half_ = {h}.0;\n"),
        None => String::new(),
    };
    format!(
        "{prelude}\
         float q = floor((idx + 0.5) / (2.0 * half_));\n\
         float r = idx - q * 2.0 * half_;\n\
         float second = 0.0;\n\
         if (r >= half_) {{ r -= half_; second = 1.0; }}\n\
         float ia = q * half_ + r;\n\
         float ib = ia + {n_over_2}.0;\n\
         float are = fetch_re(ia);\n\
         float aim = fetch_im(ia);\n\
         float bre = fetch_re(ib);\n\
         float bim = fetch_im(ib);\n\
         float ang = {sign}.0 * 6.2831853 * r / (2.0 * half_);\n\
         float wr = cos(ang);\n\
         float wi = sin(ang);\n\
         float tre = wr * bre - wi * bim;\n\
         float tim = wr * bim + wi * bre;\n\
         float s = 1.0 - 2.0 * second;\n\
         return {out};",
        n_over_2 = n / 2,
        sign = if direction.sign() < 0.0 { "-1" } else { "1" },
        out = if emit_re {
            "are + s * tre"
        } else {
            "aim + s * tim"
        },
    )
}

/// Context-free spec of one Stockham stage kernel — the engine-servable
/// twin of the private per-context stage builder, generating the byte-identical program (same
/// inputs, uniform and body template), so direct and engine-served runs
/// share one linked program through the caches.
pub fn stage_spec(n: usize, direction: Direction, emit_re: bool) -> KernelSpec {
    KernelSpec::new(if emit_re {
        "fft_stage_re"
    } else {
        "fft_stage_im"
    })
    .input("re")
    .input("im")
    .uniform_f32("half_", 1.0)
    .output(n)
    .body(stage_body(n, direction, emit_re, None))
}

/// Context-free spec of the whole retained transform, mirroring
/// [`run_gpu`]'s wiring (two stage kernels, explicit `re`/`im` ping-pong
/// pairs, stage width as a per-iteration uniform). Submit through
/// [`gpes_core::Engine::submit`] with sources `re`, `im` (length
/// `n` each) and read buffers `re`, `im`; outputs are bit-identical to
/// [`run_gpu`].
///
/// # Errors
///
/// `BadKernel` for non-power-of-two sizes.
pub fn pipeline_spec(n: usize, direction: Direction) -> Result<PipelineSpec, ComputeError> {
    if !n.is_power_of_two() || n < 2 {
        return Err(ComputeError::BadKernel {
            message: format!("FFT size {n} is not a power of two >= 2"),
        });
    }
    let stages = n.trailing_zeros() as usize;
    let kre = Arc::new(stage_spec(n, direction, true));
    let kim = Arc::new(stage_spec(n, direction, false));
    let half_of = |stage: usize| Value::Float((1usize << stage) as f32);
    PipelineSpec::builder("fft")
        .source_len("re", n)
        .source_len("im", n)
        .pass(
            PassSpec::new(&kre)
                .read("re", "re")
                .read("im", "im")
                .write_len("re_next", n)
                .uniform_per_iter("half_", half_of),
        )
        .pass(
            PassSpec::new(&kim)
                .read("re", "re")
                .read("im", "im")
                .write_len("im_next", n)
                .uniform_per_iter("half_", half_of),
        )
        .ping_pong("re", "re_next")
        .ping_pong("im", "im_next")
        .iterations(stages)
        .build()
}

/// Runs the full transform on the GPU; input and output are
/// `(re, im)` pairs of length-`n` vectors with `n` a power of two.
///
/// # Errors
///
/// `BadKernel` for non-power-of-two sizes; upload/build/run errors.
pub fn run_gpu(
    cc: &mut ComputeContext,
    re: &[f32],
    im: &[f32],
    direction: Direction,
) -> Result<(Vec<f32>, Vec<f32>), ComputeError> {
    let n = re.len();
    if !n.is_power_of_two() || n < 2 {
        return Err(ComputeError::BadKernel {
            message: format!("FFT size {n} is not a power of two >= 2"),
        });
    }
    if im.len() != n {
        return Err(ComputeError::BadKernel {
            message: "re and im must have equal length".into(),
        });
    }
    let gre = cc.upload(re)?;
    let gim = cc.upload(im)?;
    let kre = build_stage(cc, &gre, &gim, direction, true)?;
    let kim = build_stage(cc, &gre, &gim, direction, false)?;
    let stages = n.trailing_zeros() as usize;
    // Explicit ping-pong pairs: both stage kernels read the old (re, im)
    // generation, so the swap must wait until the iteration ends.
    let half_of = |stage: usize| Value::Float((1usize << stage) as f32);
    let pipeline = Pipeline::builder("fft")
        .source("re", &gre)
        .source("im", &gim)
        .pass(
            Pass::new(&kre)
                .read("re", "re")
                .read("im", "im")
                .write_len("re_next", n)
                .uniform_per_iter("half_", half_of),
        )
        .pass(
            Pass::new(&kim)
                .read("re", "re")
                .read("im", "im")
                .write_len("im_next", n)
                .uniform_per_iter("half_", half_of),
        )
        .ping_pong("re", "re_next")
        .ping_pong("im", "im_next")
        .iterations(stages)
        .build()?;
    let run = pipeline.run(cc)?;
    let out_re = run.read::<f32>(cc, "re")?;
    let out_im = run.read::<f32>(cc, "im")?;
    run.finish(cc);
    cc.recycle_array(gre);
    cc.recycle_array(gim);
    Ok((out_re, out_im))
}

/// CPU mirror of the GPU stages with identical operation order
/// (bit-exact under the exact float model).
pub fn cpu_reference(re: &[f32], im: &[f32], direction: Direction) -> (Vec<f32>, Vec<f32>) {
    let n = re.len();
    let mut cre = re.to_vec();
    let mut cim = im.to_vec();
    let mut half = 1usize;
    while half < n {
        let mut nre = vec![0.0f32; n];
        let mut nim = vec![0.0f32; n];
        for idx in 0..n {
            let q = idx / (2 * half);
            let mut r = idx - q * 2 * half;
            let mut s = 1.0f32;
            if r >= half {
                r -= half;
                s = -1.0;
            }
            let ia = q * half + r;
            let ib = ia + n / 2;
            // Must match the GLSL literal `6.2831853` digit for digit so
            // the mirror stays bit-identical to the shader (both parse to
            // the same f32); clippy's TAU suggestion would be a different
            // source of truth.
            #[allow(clippy::approx_constant)]
            let two_pi = 6.283_185_3_f32;
            let ang = direction.sign() * two_pi * r as f32 / (2.0 * half as f32);
            let (wr, wi) = (ang.cos(), ang.sin());
            let tre = wr * cre[ib] - wi * cim[ib];
            let tim = wr * cim[ib] + wi * cre[ib];
            nre[idx] = cre[ia] + s * tre;
            nim[idx] = cim[ia] + s * tim;
        }
        cre = nre;
        cim = nim;
        half *= 2;
    }
    (cre, cim)
}

/// Textbook `O(N²)` DFT in `f64` — the independent oracle both FFTs are
/// checked against (up to accumulation error).
pub fn dft_oracle(re: &[f32], im: &[f32], direction: Direction) -> (Vec<f32>, Vec<f32>) {
    let n = re.len();
    let sign = direction.sign() as f64;
    let mut out_re = vec![0.0f32; n];
    let mut out_im = vec![0.0f32; n];
    for (k, (or_, oi_)) in out_re.iter_mut().zip(out_im.iter_mut()).enumerate() {
        let mut acc_re = 0.0f64;
        let mut acc_im = 0.0f64;
        for j in 0..n {
            let ang = sign * 2.0 * std::f64::consts::PI * (k as f64) * (j as f64) / n as f64;
            let (c, s) = (ang.cos(), ang.sin());
            acc_re += re[j] as f64 * c - im[j] as f64 * s;
            acc_im += re[j] as f64 * s + im[j] as f64 * c;
        }
        *or_ = acc_re as f32;
        *oi_ = acc_im as f32;
    }
    (out_re, out_im)
}

/// Modelled ARM1176 workload for a size-`n` FFT.
pub fn cpu_workload(n: usize) -> CpuWorkload {
    let stages = (n as f64).log2();
    let work = n as f64 * stages;
    CpuWorkload {
        fp_ops: 10.0 * work, // butterfly + twiddle via sincos
        loads: 4.0 * work,
        stores: 2.0 * work,
        iterations: work,
        cache_misses: work / 8.0,
        ..CpuWorkload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn gpu_fft_matches_cpu_mirror_bitwise() {
        let n = 64;
        let re = data::random_f32(n, 401, 1.0);
        let im = data::random_f32(n, 402, 1.0);
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let (gre, gim) = run_gpu(&mut cc, &re, &im, Direction::Forward).expect("gpu");
        let (cre, cim) = cpu_reference(&re, &im, Direction::Forward);
        assert_eq!(gre, cre);
        assert_eq!(gim, cim);
        // log2(64) stages x 2 kernels (the §III-8 split).
        assert_eq!(cc.pass_log().len(), 12);
        // Twelve passes, two programs: the stage width is a uniform now.
        assert_eq!(cc.stats().programs_linked, 2);
    }

    #[test]
    fn fft_agrees_with_dft_oracle() {
        let n = 32;
        let re = data::random_f32(n, 403, 1.0);
        let im = vec![0.0f32; n];
        let (fre, fim) = cpu_reference(&re, &im, Direction::Forward);
        let (ore, oim) = dft_oracle(&re, &im, Direction::Forward);
        for i in 0..n {
            assert!(
                (fre[i] - ore[i]).abs() < 1e-3,
                "re[{i}]: {} vs {}",
                fre[i],
                ore[i]
            );
            assert!(
                (fim[i] - oim[i]).abs() < 1e-3,
                "im[{i}]: {} vs {}",
                fim[i],
                oim[i]
            );
        }
    }

    #[test]
    fn forward_then_inverse_recovers_signal() {
        let n = 128;
        let re = data::random_f32(n, 404, 10.0);
        let im = data::random_f32(n, 405, 10.0);
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let (fre, fim) = run_gpu(&mut cc, &re, &im, Direction::Forward).expect("fwd");
        let (ire, iim) = run_gpu(&mut cc, &fre, &fim, Direction::Inverse).expect("inv");
        for i in 0..n {
            assert!((ire[i] / n as f32 - re[i]).abs() < 1e-3, "re[{i}]");
            assert!((iim[i] / n as f32 - im[i]).abs() < 1e-3, "im[{i}]");
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 16;
        let mut re = vec![0.0f32; n];
        re[0] = 1.0;
        let im = vec![0.0f32; n];
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let (fre, fim) = run_gpu(&mut cc, &re, &im, Direction::Forward).expect("gpu");
        for i in 0..n {
            assert!((fre[i] - 1.0).abs() < 1e-5);
            assert!(fim[i].abs() < 1e-5);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5usize;
        let re: Vec<f32> = (0..n)
            .map(|j| (2.0 * std::f32::consts::PI * k0 as f32 * j as f32 / n as f32).cos())
            .collect();
        let im = vec![0.0f32; n];
        let (fre, fim) = cpu_reference(&re, &im, Direction::Forward);
        let mag = |i: usize| (fre[i] * fre[i] + fim[i] * fim[i]).sqrt();
        // Energy concentrates in bins k0 and n-k0.
        assert!(mag(k0) > 30.0, "bin {k0} magnitude {}", mag(k0));
        assert!(mag(n - k0) > 30.0);
        for i in 0..n {
            if i != k0 && i != n - k0 {
                assert!(mag(i) < 1.0, "leakage in bin {i}: {}", mag(i));
            }
        }
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        assert!(run_gpu(&mut cc, &[0.0; 12], &[0.0; 12], Direction::Forward).is_err());
        assert!(run_gpu(&mut cc, &[0.0; 16], &[0.0; 8], Direction::Forward).is_err());
        assert!(pipeline_spec(12, Direction::Forward).is_err());
    }

    #[test]
    fn pipeline_spec_matches_direct_run_bitwise() {
        let n = 64;
        let re = data::random_f32(n, 406, 1.0);
        let im = data::random_f32(n, 407, 1.0);
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let (dre, dim) = run_gpu(&mut cc, &re, &im, Direction::Forward).expect("direct");
        let links = cc.stats().programs_linked;
        // Building the context-free spec on the same context is a pure
        // program-cache hit: the generated sources are byte-identical.
        let spec = pipeline_spec(n, Direction::Forward).expect("spec");
        let served = spec.build(&mut cc).expect("build");
        assert_eq!(cc.stats().programs_linked, links, "spec relinked a program");
        let gre = cc.upload(&re).expect("re");
        let gim = cc.upload(&im).expect("im");
        let seeds = [
            gpes_core::SourceSeed::array("re", &gre),
            gpes_core::SourceSeed::array("im", &gim),
        ];
        let run = served
            .pipeline()
            .run_seeded(&mut cc, &seeds)
            .expect("seeded run");
        let sre = run.read::<f32>(&mut cc, "re").expect("read re");
        let sim = run.read::<f32>(&mut cc, "im").expect("read im");
        run.finish(&mut cc);
        assert_eq!(sre, dre);
        assert_eq!(sim, dim);
    }
}
