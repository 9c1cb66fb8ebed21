//! Ablations A1–A16: design choices called out in `DESIGN.md`.
//!
//! The gated sections (a9–a16) implement [`Report`]: `records()` is their
//! output and `violations()` is the one home of their contract.

use crate::record::{Kind, Record, Report};
use gpes_core::codec::strzodka16;
use gpes_core::{
    ComputeContext, ComputeError, ContextStats, Engine, ExecMode, Kernel, PackBias, Readback,
    ScalarType,
};
use gpes_gles2::{Dispatch, StoreRounding};
use gpes_kernels::data;
use gpes_perf::{estimate_gpu, gpu_run_from_passes, readback_bytes_for, GpuRun, Vc4Gpu};
use std::time::Instant;

/// Pushes the formatted message onto `violations` unless the contract
/// `holds`.
macro_rules! require {
    ($violations:ident, $holds:expr, $($message:tt)+) => {
        if !$holds {
            $violations.push(format!($($message)+));
        }
    };
}

/// Timed runs per row of the timed sections (a3, a15) in `reproduce`,
/// after one untimed warm-up run; the row reports their median and
/// spread.
pub const TIMED_RUNS: usize = 5;

/// A timed row's rate, work per host second: the median run's, the
/// slowest run's (`min`) and the fastest run's (`max`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median run's rate.
    pub median: f64,
    /// The slowest run's rate.
    pub min: f64,
    /// The fastest run's rate.
    pub max: f64,
}

impl Spread {
    /// `record` with advisory fields `name` (the median), `name_min` and
    /// `name_max`.
    fn advise(self, record: Record, name: &str) -> Record {
        record
            .advisory(name, self.median)
            .advisory(&format!("{name}_min"), self.min)
            .advisory(&format!("{name}_max"), self.max)
    }
}

/// Calls `run` once untimed, then `timed_runs` (at least 1) more times,
/// and returns the untimed call's result with the timed calls' rate of
/// `work` units per host second.
fn warm_median_run<T>(
    timed_runs: usize,
    work: usize,
    mut run: impl FnMut() -> Result<T, ComputeError>,
) -> Result<(T, Spread), ComputeError> {
    let warm = run()?;
    let mut secs = Vec::new();
    for _ in 0..timed_runs.max(1) {
        let start = Instant::now();
        std::hint::black_box(run()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    let rate = |secs: f64| work as f64 / secs;
    let spread = Spread {
        median: rate(secs[secs.len() / 2]),
        min: rate(secs[secs.len() - 1]),
        max: rate(secs[0]),
    };
    Ok((warm, spread))
}

/// A1 — output byte bias: paper δ vs half-texel, under both store
/// roundings, measured by exhaustive `u8` identity round trips through
/// the real pipeline.
#[derive(Debug, Clone)]
pub struct A1Row {
    /// Pack bias under test.
    pub bias: PackBias,
    /// Store rounding under test.
    pub rounding: StoreRounding,
    /// Mismatched byte values out of 256.
    pub mismatches: usize,
    /// Worst-case distance from the stored value to the floor boundary,
    /// in units of 1/255 (the safety margin; bigger is safer).
    pub min_margin: f32,
}

impl A1Row {
    /// Formats the row.
    pub fn format(&self) -> String {
        format!(
            "{:<12} {:<8} mismatches {:>3}/256   min margin {:.5} (of 1/255 grid step)",
            format!("{:?}", self.bias),
            format!("{:?}", self.rounding),
            self.mismatches,
            self.min_margin,
        )
    }
}

/// Runs A1.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn a1_pack_bias() -> Result<Vec<A1Row>, ComputeError> {
    let all_bytes: Vec<u8> = (0..=255).collect();
    let mut rows = Vec::new();
    for bias in [
        PackBias::QuarterTexel,
        PackBias::HalfTexel,
        PackBias::PaperDelta,
    ] {
        for rounding in [StoreRounding::Floor, StoreRounding::Nearest] {
            let mut cc = ComputeContext::new(32, 32)?;
            cc.set_pack_bias(bias);
            cc.gl().set_store_rounding(rounding);
            let arr = cc.upload(&all_bytes)?;
            let k = Kernel::builder("ident_u8")
                .input("x", &arr)
                .output(ScalarType::U8, all_bytes.len())
                .body("return fetch_x(idx);")
                .build(&mut cc)?;
            let out: Vec<u8> = cc.run_and_read(&k)?;
            let mismatches = out.iter().zip(&all_bytes).filter(|(a, b)| a != b).count();
            // Analytic margin: distance of the packed component to the
            // next-lower grid boundary b/255.
            let mut min_margin = f32::MAX;
            for b in 0..=255u32 {
                let f = bias.pack_byte(b as f32);
                let margin = f * 255.0 - b as f32;
                min_margin = min_margin.min(margin);
            }
            rows.push(A1Row {
                bias,
                rounding,
                mismatches,
                min_margin,
            });
        }
    }
    Ok(rows)
}

/// A3 — serial vs parallel fragment dispatch, and small draws:
/// wall-clock of the simulator itself (host performance, not modelled
/// device time), the median and spread of [`TIMED_RUNS`] runs after a
/// warm-up.
#[derive(Debug, Clone)]
pub struct A3Row {
    /// Dispatch mode.
    pub dispatch: Dispatch,
    /// The small draw timed; `None` on the `sum (fp)` rows.
    pub workload: Option<String>,
    /// Simulated fragments per host second; a saxpy element is one
    /// fragment in either stage.
    pub fragments_per_s: Spread,
}

/// Runs A3: an `n`-element `sum (fp)` kernel under serial, 4-thread and
/// auto dispatch; then, serial and auto, the small draws: a
/// constant-colour fill of a 32², 128² and 256² target (pipeline cost
/// without shader cost), and a 1024-element saxpy shaded in the fragment
/// stage and in the vertex stage (§III-1).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn a3_dispatch(n: usize) -> Result<Vec<A3Row>, ComputeError> {
    use gpes_core::vertex_compute::VertexKernel;
    use gpes_gles2::PrimitiveMode;

    let a = data::random_f32(n, 301, 100.0);
    let b = data::random_f32(n, 302, 100.0);
    let mut rows = Vec::new();
    for dispatch in [Dispatch::Serial, Dispatch::Parallel(4), Dispatch::Auto] {
        let mut cc = ComputeContext::new(512, 512)?;
        cc.set_dispatch(dispatch);
        let ga = cc.upload(&a)?;
        let gb = cc.upload(&b)?;
        let k = gpes_kernels::sum::build_f32(&mut cc, &ga, &gb)?;
        let (_, fragments_per_s) = warm_median_run(TIMED_RUNS, n, || cc.run_f32(&k))?;
        rows.push(A3Row {
            dispatch,
            workload: None,
            fragments_per_s,
        });
    }

    const QUAD: [f32; 12] = [
        -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
    ];
    const SAXPY_N: usize = 1024;
    let x = data::random_f32(SAXPY_N, 650, 100.0);
    let y = data::random_f32(SAXPY_N, 651, 100.0);
    for dispatch in [Dispatch::Serial, Dispatch::Auto] {
        let mut row = |workload: String, fragments_per_s| {
            rows.push(A3Row {
                dispatch,
                workload: Some(workload),
                fragments_per_s,
            })
        };
        for side in [32u32, 128, 256] {
            let mut gl = gpes_gles2::Context::new(side, side)?;
            gl.set_dispatch(dispatch);
            let program = gl.create_program(
                "attribute vec2 a_pos;\nvoid main() { gl_Position = vec4(a_pos, 0.0, 1.0); }",
                "precision highp float;\nvoid main() { gl_FragColor = vec4(0.5, 0.25, 1.0, 1.0); }",
            )?;
            gl.use_program(program)?;
            gl.set_attribute("a_pos", 2, &QUAD)?;
            let (_, rate) = warm_median_run(TIMED_RUNS, (side * side) as usize, || {
                Ok(gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)?)
            })?;
            row(format!("fill {side}x{side}"), rate);
        }

        let mut cc = ComputeContext::new(64, 64)?;
        cc.set_dispatch(dispatch);
        let gx = cc.upload(&x)?;
        let gy = cc.upload(&y)?;
        let k = Kernel::builder("saxpy_f")
            .input("x", &gx)
            .input("y", &gy)
            .uniform_f32("alpha", 2.5)
            .output(ScalarType::F32, SAXPY_N)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);")
            .build(&mut cc)?;
        let (_, rate) = warm_median_run(TIMED_RUNS, SAXPY_N, || cc.run_f32(&k))?;
        row(format!("saxpy fragment n={SAXPY_N}"), rate);
        let vk = VertexKernel::builder("saxpy_v")
            .input("x", &x)
            .input("y", &y)
            .uniform_f32("alpha", 2.5)
            .output(ScalarType::F32, SAXPY_N)
            .body("return alpha * x + y;")
            .build(&mut cc)?;
        let (_, rate) = warm_median_run(TIMED_RUNS, SAXPY_N, || vk.run_and_read::<f32>(&mut cc))?;
        row(format!("saxpy vertex n={SAXPY_N}"), rate);
    }
    Ok(rows)
}

impl Report for Vec<A3Row> {
    /// The `sum (fp)` rows are keyed by dispatch alone, the small draws
    /// by dispatch and workload.
    fn records(&self) -> Vec<Record> {
        self.iter()
            .map(|r| {
                let mut record = Record::new("a3").key("dispatch", format!("{:?}", r.dispatch));
                if let Some(workload) = &r.workload {
                    record = record.key("workload", workload.as_str());
                }
                r.fragments_per_s.advise(record, "fragments_per_sec")
            })
            .collect()
    }
}

/// A4 — readback strategy equivalence (workaround #7): every path must
/// produce identical bytes.
#[derive(Debug, Clone)]
pub struct A4Result {
    /// Whether DirectFbo and CopyShader agree with the screen path.
    pub all_equal: bool,
    /// Passes executed by the copy-shader path (kernel + copy).
    pub copy_shader_passes: usize,
    /// Passes executed by the direct/screen paths (kernel only).
    pub direct_passes: usize,
}

/// Runs A4.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn a4_readback(n: usize) -> Result<A4Result, ComputeError> {
    let values = data::random_f32(n, 303, 1.0e6);

    // Path 1: kernel ordered to land in the default framebuffer.
    let mut cc = ComputeContext::new(128, 128)?;
    let arr = cc.upload(&values)?;
    let k = Kernel::builder("scale")
        .input("x", &arr)
        .output(ScalarType::F32, n)
        .body("return fetch_x(idx) * 3.0;")
        .build(&mut cc)?;
    let screen = cc.run_f32(&k)?;
    let direct_passes = cc.take_pass_log().len();

    // Path 2: render to texture, read through the FBO.
    let rtt: gpes_core::GpuArray<f32> = cc.run_to_array(&k)?;
    let via_fbo = cc.read_array(&rtt, Readback::DirectFbo)?;

    // Path 3: render to texture, copy shader to the screen, read.
    cc.take_pass_log();
    let rtt2: gpes_core::GpuArray<f32> = cc.run_to_array(&k)?;
    let via_copy = cc.read_array(&rtt2, Readback::CopyShader)?;
    let copy_shader_passes = cc.take_pass_log().len();

    Ok(A4Result {
        all_equal: screen == via_fbo && screen == via_copy,
        copy_shader_passes,
        direct_passes,
    })
}

/// A5 — the §VI related-work comparison: the paper's §IV-C `u32` codec
/// vs the Strzodka VMV'02 virtual-16-bit baseline, both running a real
/// wrapping-add workload on the simulator.
#[derive(Debug, Clone)]
pub struct A5Row {
    /// Format label.
    pub format: &'static str,
    /// Whether the GPU result matched the CPU reference exactly.
    pub correct: bool,
    /// Exactly representable integer bits.
    pub exact_bits: u32,
    /// Values carried per RGBA8 texel.
    pub values_per_texel: u32,
    /// Whether CPU-native memory uploads without transformation.
    pub memcpy_compatible: bool,
    /// Host ops per element spent converting on upload+readback.
    pub host_ops_per_element: u32,
    /// Whether the format family also covers floating point.
    pub covers_float: bool,
    /// Fragment-shader ALU ops per output *value* (not per fragment).
    pub alu_ops_per_value: f64,
}

impl A5Row {
    /// Formats the row.
    pub fn format_row(&self) -> String {
        format!(
            "{:<22} correct {:<5} exact bits {:>2}  values/texel {}  memcpy {:<5} host ops/elem {}  float {:<5} alu/value {:.1}",
            self.format,
            self.correct,
            self.exact_bits,
            self.values_per_texel,
            self.memcpy_compatible,
            self.host_ops_per_element,
            self.covers_float,
            self.alu_ops_per_value,
        )
    }
}

/// Runs A5 on `n` elements of a wrapping 16-bit add (the workload both
/// formats can express).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn a5_strzodka_baseline(n: usize) -> Result<Vec<A5Row>, ComputeError> {
    let a: Vec<u16> = data::random_u32(n, 501, u16::MAX as u32 + 1)
        .into_iter()
        .map(|v| v as u16)
        .collect();
    let b: Vec<u16> = data::random_u32(n, 502, u16::MAX as u32 + 1)
        .into_iter()
        .map(|v| v as u16)
        .collect();
    let reference: Vec<u16> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect();
    let mut rows = Vec::new();

    // Paper path: values as u32 through the §IV-C codec (sums stay below
    // 2^17, so no wrap is exercised there; wrap correctness for the paper
    // codec is covered separately by its own unit tests).
    {
        let mut cc = ComputeContext::new(256, 256)?;
        let ga = cc.upload(&a.iter().map(|&v| v as u32).collect::<Vec<_>>())?;
        let gb = cc.upload(&b.iter().map(|&v| v as u32).collect::<Vec<_>>())?;
        let k = Kernel::builder("a5_paper_u32")
            .input("a", &ga)
            .input("b", &gb)
            .output(ScalarType::U32, n)
            .body("return mod(fetch_a(idx) + fetch_b(idx), 65536.0);")
            .build(&mut cc)?;
        let out: Vec<u32> = cc.run_and_read(&k)?;
        let correct = out
            .iter()
            .zip(&reference)
            .all(|(&got, &want)| got == want as u32);
        let log = cc.take_pass_log();
        let stats = &log[0].stats;
        let profile = strzodka16::paper_uint_interop_profile();
        rows.push(A5Row {
            format: "paper u32 (2's compl.)",
            correct,
            exact_bits: profile.exact_bits,
            values_per_texel: profile.values_per_texel,
            memcpy_compatible: profile.memcpy_compatible,
            host_ops_per_element: profile.host_ops_per_element,
            covers_float: profile.covers_float,
            alu_ops_per_value: stats.fs_profile.alu_ops as f64 / n as f64,
        });
    }

    // Baseline path: the custom split format, two values per texel,
    // carry-propagating adds on byte halves.
    {
        let mut cc = ComputeContext::new(256, 256)?;
        let texel_count = n.div_ceil(2);
        let side = (texel_count as f64).sqrt().ceil() as u32;
        let texels = side as usize * side as usize;
        let ta = cc.upload_texels(side, side, &strzodka16::encode_texels(&a, texels))?;
        let tb = cc.upload_texels(side, side, &strzodka16::encode_texels(&b, texels))?;
        let k = Kernel::builder("a5_strzodka16")
            .input_texels("a", &ta)
            .input_texels("b", &tb)
            .functions(strzodka16::GLSL)
            .output_texels(texels)
            .body(
                "vec4 ta = fetch_a_texel(idx);\n\
                 vec4 tb = fetch_b_texel(idx);\n\
                 vec2 r0 = gpes_v16_add(gpes_v16_from_bytes(ta.xy), gpes_v16_from_bytes(tb.xy));\n\
                 vec2 r1 = gpes_v16_add(gpes_v16_from_bytes(ta.zw), gpes_v16_from_bytes(tb.zw));\n\
                 return vec4(gpes_v16_pack(r0), gpes_v16_pack(r1));",
            )
            .build(&mut cc)?;
        let bytes = cc.run_and_read_texels(&k)?;
        let out = strzodka16::decode_texels(&bytes, n);
        let correct = out == reference;
        let log = cc.take_pass_log();
        let stats = &log[0].stats;
        let profile = strzodka16::interop_profile();
        rows.push(A5Row {
            format: "strzodka16 (VMV'02)",
            correct,
            exact_bits: profile.exact_bits,
            values_per_texel: profile.values_per_texel,
            memcpy_compatible: profile.memcpy_compatible,
            host_ops_per_element: profile.host_ops_per_element,
            covers_float: profile.covers_float,
            alu_ops_per_value: stats.fs_profile.alu_ops as f64 / n as f64,
        });
    }

    Ok(rows)
}

/// A6 — the §II.5–6 half-float argument: the vendor fp16 extension path
/// vs the paper's RGBA8 packing, on the same saxpy workload.
#[derive(Debug, Clone)]
pub struct A6Row {
    /// Data path label.
    pub path: &'static str,
    /// Whether the path works on *core* ES 2 (the portability half).
    pub core_es2: bool,
    /// Minimum mantissa agreement with the exact CPU result (23 = exact).
    pub min_bits: u32,
    /// Mean mantissa agreement.
    pub mean_bits: f64,
    /// Largest finite magnitude the path can carry.
    pub max_magnitude: f64,
}

impl A6Row {
    /// Formats the row.
    pub fn format_row(&self) -> String {
        format!(
            "{:<26} core-ES2 {:<5} min {:>2} bits   mean {:>5.2} bits   max |x| ~{:.1e}",
            self.path, self.core_es2, self.min_bits, self.mean_bits, self.max_magnitude,
        )
    }
}

fn mantissa_stats(expected: &[f32], actual: &[f32]) -> (u32, f64) {
    use gpes_core::codec::float32::mantissa_agreement_bits;
    let mut min_bits = 23u32;
    let mut total = 0u64;
    for (&e, &a) in expected.iter().zip(actual) {
        let bits = mantissa_agreement_bits(e, a);
        min_bits = min_bits.min(bits);
        total += bits as u64;
    }
    (min_bits, total as f64 / expected.len() as f64)
}

/// Runs the fp16-extension saxpy with raw GL calls (what an app on a
/// vendor with the half-float extensions would write).
fn saxpy_via_f16_extension(alpha: f32, xs: &[f32], ys: &[f32]) -> Result<Vec<f32>, ComputeError> {
    use gpes_gles2::{f16_bits_to_f32, f32_to_f16_bits, Context, PrimitiveMode, TexFormat};
    let n = xs.len();
    let side = (n as f64).sqrt().ceil() as u32;
    let texels = side as usize * side as usize;
    let mut gl = Context::new(side, side)?;
    gl.enable_extension("GL_EXT_color_buffer_half_float")?;

    let upload = |gl: &mut Context, data: &[f32]| -> Result<gpes_gles2::TextureId, ComputeError> {
        let mut bytes = Vec::with_capacity(texels * 8);
        for i in 0..texels {
            let v = data.get(i).copied().unwrap_or(0.0);
            for c in [v, 0.0, 0.0, 1.0] {
                bytes.extend_from_slice(&f32_to_f16_bits(c).to_le_bytes());
            }
        }
        let tex = gl.create_texture();
        gl.tex_image_2d(tex, TexFormat::RgbaF16, side, side, &bytes)?;
        Ok(tex)
    };
    let tx = upload(&mut gl, xs)?;
    let ty = upload(&mut gl, ys)?;

    let vs = "attribute vec2 a_pos;\nvarying vec2 v_uv;\n\
              void main() { v_uv = a_pos * 0.5 + 0.5; gl_Position = vec4(a_pos, 0.0, 1.0); }";
    let fs = "precision highp float;\nvarying vec2 v_uv;\n\
              uniform sampler2D u_x;\nuniform sampler2D u_y;\nuniform float u_alpha;\n\
              void main() {\n\
                gl_FragColor = vec4(u_alpha * texture2D(u_x, v_uv).x + texture2D(u_y, v_uv).x,\n\
                                    0.0, 0.0, 1.0);\n\
              }";
    let prog = gl.create_program(vs, fs)?;
    gl.use_program(prog)?;
    let quad: [f32; 12] = [
        -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
    ];
    gl.set_attribute("a_pos", 2, &quad)?;
    gl.bind_texture(0, tx)?;
    gl.bind_texture(1, ty)?;
    gl.set_uniform("u_x", gpes_glsl::Value::Int(0))?;
    gl.set_uniform("u_y", gpes_glsl::Value::Int(1))?;
    gl.set_uniform("u_alpha", gpes_glsl::Value::Float(alpha))?;

    let dst = gl.create_texture();
    gl.tex_storage(dst, TexFormat::RgbaF16, side, side)?;
    let fbo = gl.create_framebuffer();
    gl.framebuffer_texture(fbo, dst)?;
    gl.bind_framebuffer(Some(fbo))?;
    gl.viewport(0, 0, side as i32, side as i32);
    gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)?;
    let halves = gl.read_pixels_f16(0, 0, side, side)?;
    Ok(halves
        .chunks_exact(4)
        .take(n)
        .map(|px| f16_bits_to_f32(px[0]))
        .collect())
}

/// Runs A6 on an `n`-element saxpy.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn a6_half_float(n: usize) -> Result<Vec<A6Row>, ComputeError> {
    use gpes_glsl::exec::FloatModel;
    let alpha = 2.5f32;
    // Positive, well-conditioned inputs: the comparison measures
    // representation precision, not cancellation (which would punish
    // every path identically and mask the difference).
    let positive = |seed| -> Vec<f32> {
        data::random_f32(n, seed, 100.0)
            .into_iter()
            .map(|v| v.abs() + 1.0)
            .collect()
    };
    let xs = positive(601);
    let ys = positive(602);
    let expected: Vec<f32> = xs.iter().zip(&ys).map(|(&x, &y)| alpha * x + y).collect();
    let mut rows = Vec::new();

    // Paper path, exact GPU float: bit-exact.
    // Paper path, VideoCore-like SFU: the §V ≈15-bit result.
    for (label, model) in [
        ("paper RGBA8 pack (exact)", FloatModel::Exact),
        ("paper RGBA8 pack (Vc4Sfu)", FloatModel::Vc4Sfu),
    ] {
        let mut cc = ComputeContext::new(256, 256)?;
        cc.set_float_model(model);
        let gx = cc.upload(&xs)?;
        let gy = cc.upload(&ys)?;
        let k = gpes_kernels::saxpy::build(&mut cc, &gx, &gy, alpha)?;
        let out = cc.run_f32(&k)?;
        let (min_bits, mean_bits) = mantissa_stats(&expected, &out);
        rows.push(A6Row {
            path: label,
            core_es2: true,
            min_bits,
            mean_bits,
            max_magnitude: f32::MAX as f64,
        });
    }

    // Vendor fp16 extension path.
    let out = saxpy_via_f16_extension(alpha, &xs, &ys)?;
    let (min_bits, mean_bits) = mantissa_stats(&expected, &out);
    rows.push(A6Row {
        path: "OES/EXT half-float ext.",
        core_es2: false,
        min_bits,
        mean_bits,
        max_magnitude: 65504.0,
    });

    Ok(rows)
}

/// A7 — channel packing: the §V remark that "the current implementation
/// … is not optimised" quantified for byte and short data. One value per
/// fragment (the paper's layout) vs. all texel channels carrying payload
/// (4 × u8 or 2 × u16 per fragment).
#[derive(Debug, Clone)]
pub struct A7Row {
    /// Variant label.
    pub label: &'static str,
    /// Whether the GPU result matched the CPU reference exactly.
    pub correct: bool,
    /// Fragment-shader invocations per output value.
    pub invocations_per_value: f64,
    /// Texture fetches per output value.
    pub fetches_per_value: f64,
    /// ALU ops per output value.
    pub alu_per_value: f64,
    /// Modelled VideoCore IV kernel time per value (ns), at the measured
    /// profile scaled to 1 Mi elements.
    pub modeled_ns_per_value: f64,
}

impl A7Row {
    /// Formats the row.
    pub fn format_row(&self) -> String {
        format!(
            "{:<24} correct {:<5} invocations/value {:>5.2}  fetches/value {:>5.2}  alu/value {:>6.2}  modelled {:>6.2} ns/value",
            self.label,
            self.correct,
            self.invocations_per_value,
            self.fetches_per_value,
            self.alu_per_value,
            self.modeled_ns_per_value,
        )
    }
}

fn a7_row_from_run(label: &'static str, correct: bool, cc: &mut ComputeContext, n: usize) -> A7Row {
    let passes = cc.take_pass_log();
    let run_small = gpu_run_from_passes(&passes, 1, 0, 0);
    let p = &run_small.fs_profile;
    // Scale the measured profile to 1 Mi values for the device model
    // (per-value work is size-independent for sum).
    let factor = (1u64 << 20) as f64 / n as f64;
    let scale = |v: u64| (v as f64 * factor).round() as u64;
    let run = GpuRun {
        fs_profile: gpes_glsl::exec::OpProfile {
            alu_ops: scale(p.alu_ops),
            sfu_ops: scale(p.sfu_ops),
            tex_fetches: scale(p.tex_fetches),
            branches: scale(p.branches),
            calls: scale(p.calls),
            invocations: scale(p.invocations),
        },
        passes: 1,
        programs_compiled: 0,
        upload_bytes: 0,
        readback_bytes: readback_bytes_for(0),
        ..GpuRun::default()
    };
    let est = estimate_gpu(&Vc4Gpu::raspberry_pi1(), &run);
    A7Row {
        label,
        correct,
        invocations_per_value: p.invocations as f64 / n as f64,
        fetches_per_value: p.tex_fetches as f64 / n as f64,
        alu_per_value: p.alu_ops as f64 / n as f64,
        modeled_ns_per_value: est.exec_s * 1e9 / (1u64 << 20) as f64,
    }
}

/// Runs A7 on `n`-element byte/short sums (`n` should be a multiple of 4).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn a7_channel_packing(n: usize) -> Result<Vec<A7Row>, ComputeError> {
    let a8 = data::random_u8(n, 701, 127);
    let b8 = data::random_u8(n, 702, 127);
    let ref8: Vec<u8> = a8.iter().zip(&b8).map(|(&x, &y)| x + y).collect();
    let a16: Vec<u16> = data::random_u32(n, 703, 32768)
        .into_iter()
        .map(|v| v as u16)
        .collect();
    let b16: Vec<u16> = data::random_u32(n, 704, 32768)
        .into_iter()
        .map(|v| v as u16)
        .collect();
    let ref16: Vec<u16> = a16.iter().zip(&b16).map(|(&x, &y)| x + y).collect();
    let mut rows = Vec::new();

    // u8, one value per LUMINANCE8 texel (the paper's layout).
    {
        let mut cc = ComputeContext::new(256, 256)?;
        let ga = cc.upload(&a8)?;
        let gb = cc.upload(&b8)?;
        let k = gpes_kernels::sum::build_u8(&mut cc, &ga, &gb)?;
        let out: Vec<u8> = cc.run_and_read(&k)?;
        let correct = out == ref8;
        rows.push(a7_row_from_run("u8 scalar (1/texel)", correct, &mut cc, n));
    }

    // u8, four values per RGBA8 texel.
    {
        let mut cc = ComputeContext::new(256, 256)?;
        let texels = n.div_ceil(4);
        let side = (texels as f64).sqrt().ceil() as u32;
        let pad = |d: &[u8]| {
            let mut v = d.to_vec();
            v.resize(side as usize * side as usize * 4, 0);
            v
        };
        let ta = cc.upload_texels(side, side, &pad(&a8))?;
        let tb = cc.upload_texels(side, side, &pad(&b8))?;
        let k = Kernel::builder("sum_u8x4")
            .input_texels("a", &ta)
            .input_texels("b", &tb)
            .output_texels(side as usize * side as usize)
            .body(
                "vec4 av = floor(fetch_a_texel(idx) * 255.0 + 0.5);\n\
                 vec4 bv = floor(fetch_b_texel(idx) * 255.0 + 0.5);\n\
                 return (mod(av + bv, 256.0) + 0.25) / 255.0;",
            )
            .build(&mut cc)?;
        let bytes = cc.run_and_read_texels(&k)?;
        let correct = bytes[..n] == ref8[..];
        rows.push(a7_row_from_run("u8 packed (4/texel)", correct, &mut cc, n));
    }

    // u16, one value per LUMINANCE_ALPHA texel.
    {
        let mut cc = ComputeContext::new(256, 256)?;
        let ga = cc.upload(&a16)?;
        let gb = cc.upload(&b16)?;
        let k = Kernel::builder("sum_u16")
            .input("a", &ga)
            .input("b", &gb)
            .output(ScalarType::U16, n)
            .body("return fetch_a(idx) + fetch_b(idx);")
            .build(&mut cc)?;
        let out: Vec<u16> = cc.run_and_read(&k)?;
        let correct = out == ref16;
        rows.push(a7_row_from_run("u16 scalar (1/texel)", correct, &mut cc, n));
    }

    // u16, two values per RGBA8 texel (little-endian pairs in xy/zw).
    {
        let mut cc = ComputeContext::new(256, 256)?;
        let texels = n.div_ceil(2);
        let side = (texels as f64).sqrt().ceil() as u32;
        let pack_pairs = |d: &[u16]| {
            let mut v = Vec::with_capacity(side as usize * side as usize * 4);
            for x in d {
                v.extend_from_slice(&x.to_le_bytes());
            }
            v.resize(side as usize * side as usize * 4, 0);
            v
        };
        let ta = cc.upload_texels(side, side, &pack_pairs(&a16))?;
        let tb = cc.upload_texels(side, side, &pack_pairs(&b16))?;
        let k = Kernel::builder("sum_u16x2")
            .input_texels("a", &ta)
            .input_texels("b", &tb)
            .output_texels(side as usize * side as usize)
            .body(
                "vec4 av = floor(fetch_a_texel(idx) * 255.0 + 0.5);\n\
                 vec4 bv = floor(fetch_b_texel(idx) * 255.0 + 0.5);\n\
                 vec2 s = vec2(av.x + av.y * 256.0 + bv.x + bv.y * 256.0,\n\
                               av.z + av.w * 256.0 + bv.z + bv.w * 256.0);\n\
                 s = mod(s, 65536.0);\n\
                 vec2 hi = floor(s / 256.0);\n\
                 vec2 lo = s - hi * 256.0;\n\
                 return (vec4(lo.x, hi.x, lo.y, hi.y) + 0.25) / 255.0;",
            )
            .build(&mut cc)?;
        let bytes = cc.run_and_read_texels(&k)?;
        let out: Vec<u16> = bytes
            .chunks_exact(2)
            .take(n)
            .map(|p| u16::from_le_bytes([p[0], p[1]]))
            .collect();
        let correct = out == ref16;
        rows.push(a7_row_from_run("u16 packed (2/texel)", correct, &mut cc, n));
    }

    Ok(rows)
}

/// A9 — host-side compile/bind split: the cost of rebuilding shaders
/// inside a multi-pass iteration loop (the pre-split idiom, program cache
/// off) vs the retained [`gpes_core::Pipeline`] (compile once, rebind
/// per pass).
#[derive(Debug, Clone)]
pub struct A9Row {
    /// Workload under test.
    pub workload: &'static str,
    /// Host strategy (`rebuild/pass` or `retained`).
    pub mode: &'static str,
    /// Host wall-clock for the whole loop, milliseconds.
    pub host_ms: f64,
    /// Programs compiled and linked over the loop.
    pub programs_linked: u64,
    /// Textures allocated over the loop.
    pub textures_created: u64,
    /// Texture-pool hits over the loop.
    pub pool_hits: u64,
}

/// Programs each a9 workload's retained loop links (its distinct kernels).
const A9_RETAINED_LINKS: [(&str, u64); 3] = [("srad", 2), ("reduce", 1), ("fft", 2)];

impl Report for Vec<A9Row> {
    fn records(&self) -> Vec<Record> {
        self.iter()
            .map(|r| {
                Record::new("a9")
                    .key("workload", r.workload)
                    .key("mode", r.mode)
                    .advisory("host_ms", r.host_ms)
                    .exact("programs_linked", r.programs_linked)
                    .exact("textures_created", r.textures_created)
                    .exact("pool_hits", r.pool_hits)
            })
            .collect()
    }

    /// Retained mode links exactly each workload's kernels in-loop, always
    /// hits the texture pool, and links and allocates less than
    /// rebuild-per-pass.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let row = |workload, mode| {
            self.iter()
                .find(|r| r.workload == workload && r.mode == mode)
        };
        for (workload, want) in A9_RETAINED_LINKS {
            let (Some(rebuild), Some(retained)) =
                (row(workload, "rebuild/pass"), row(workload, "retained"))
            else {
                v.push(format!(
                    "a9: missing rebuild/pass or retained row for {workload}"
                ));
                continue;
            };
            let linked = retained.programs_linked;
            require!(
                v,
                linked == want,
                "a9: {workload} retained linked {linked} programs in-loop, contract is {want}"
            );
            require!(
                v,
                retained.pool_hits > 0,
                "a9: {workload} retained never hit the texture pool"
            );
            require!(
                v,
                linked < rebuild.programs_linked
                    && retained.textures_created < rebuild.textures_created,
                "a9: {workload} retained linked or allocated no less than rebuild/pass"
            );
        }
        v
    }
}

/// Runs A9 on the three iteration-heavy paper workloads: `iterations` of
/// SRAD diffusion on a 24×24 image, a full reduction tree over `n`
/// elements repeated `iterations` times, and a 256-point FFT repeated
/// `iterations` times. Outputs of both modes are asserted equal.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn a9_host_cache(n: usize, iterations: usize) -> Result<Vec<A9Row>, ComputeError> {
    use gpes_kernels::{fft, reduce, srad};
    let mut rows = Vec::new();
    let mut push = |workload: &'static str,
                    mode: &'static str,
                    cc: &ComputeContext,
                    elapsed: std::time::Duration| {
        let stats = cc.stats();
        rows.push(A9Row {
            workload,
            mode,
            host_ms: elapsed.as_secs_f64() * 1e3,
            programs_linked: stats.programs_linked,
            textures_created: stats.textures_created,
            pool_hits: stats.texture_pool_hits,
        });
    };

    // ---- srad -----------------------------------------------------------
    let (srows, scols) = (24usize, 24usize);
    let img: Vec<f32> = data::random_f32(srows * scols, 901, 40.0)
        .into_iter()
        .map(|v| v.abs() + 10.0)
        .collect();
    let params = srad::SradParams::default();
    // Rebuild-per-pass (cache off): the pre-split host idiom.
    let mut cc = ComputeContext::new(64, 64)?;
    cc.set_program_cache_enabled(false);
    let start = Instant::now();
    let mut j = cc.upload_matrix(srows as u32, scols as u32, &img)?;
    for _ in 0..iterations {
        let kc = srad::build_coeff(&mut cc, &j, params)?;
        let carr: gpes_core::GpuArray<f32> = cc.run_to_array(&kc)?;
        let cmat = carr.as_matrix(srows as u32, scols as u32)?;
        let ku = srad::build_update(&mut cc, &j, &cmat, params)?;
        let next: gpes_core::GpuArray<f32> = cc.run_to_array(&ku)?;
        cc.delete_matrix(j);
        cc.delete_array(carr);
        j = next.as_matrix(srows as u32, scols as u32)?;
    }
    let rebuilt = cc.read_array(&j.as_array(), Readback::DirectFbo)?;
    push("srad", "rebuild/pass", &cc, start.elapsed());
    // Retained pipeline.
    let mut cc = ComputeContext::new(64, 64)?;
    let start = Instant::now();
    let retained = srad::run_gpu(&mut cc, srows, scols, &img, params, iterations)?;
    push("srad", "retained", &cc, start.elapsed());
    assert_eq!(rebuilt, retained, "srad modes must agree bit-for-bit");

    // ---- reduce ---------------------------------------------------------
    let values = data::random_f32(n, 902, 50.0);
    // Rebuild-per-pass: one kernel build per tree level, cache off.
    let mut cc = ComputeContext::new(256, 256)?;
    cc.set_program_cache_enabled(false);
    let start = Instant::now();
    let mut rebuilt = 0.0f32;
    for _ in 0..iterations {
        let arr = cc.upload(&values)?;
        let mut current = arr;
        while current.len() > 1 {
            let out_len = current.len().div_ceil(reduce::FANIN);
            let k = Kernel::builder("reduce_Sum")
                .input("x", &current)
                .uniform_f32("n_live", current.len() as f32)
                .output(ScalarType::F32, out_len)
                .body(reduce::fold_body(reduce::ReduceOp::Sum))
                .build(&mut cc)?;
            let next: gpes_core::GpuArray<f32> = cc.run_to_array(&k)?;
            cc.delete_array(current);
            current = next;
        }
        rebuilt = cc.read_array(&current, Readback::DirectFbo)?[0];
        cc.delete_array(current);
    }
    push("reduce", "rebuild/pass", &cc, start.elapsed());
    let mut cc = ComputeContext::new(256, 256)?;
    let start = Instant::now();
    let mut retained = 0.0f32;
    for _ in 0..iterations {
        let arr = cc.upload(&values)?;
        retained = reduce::gpu_reduce(&mut cc, &arr, reduce::ReduceOp::Sum)?;
        cc.recycle_array(arr);
    }
    push("reduce", "retained", &cc, start.elapsed());
    assert_eq!(rebuilt, retained, "reduce modes must agree bit-for-bit");

    // ---- fft ------------------------------------------------------------
    let fn_ = 256usize;
    let re = data::random_f32(fn_, 903, 1.0);
    let im = data::random_f32(fn_, 904, 1.0);
    // Rebuild-per-stage: the pre-split idiom baked the stage width into
    // the shader source, so every Stockham stage of every repetition
    // compiled two fresh programs.
    let mut cc = ComputeContext::new(64, 64)?;
    cc.set_program_cache_enabled(false);
    let start = Instant::now();
    let mut rebuilt = (Vec::new(), Vec::new());
    for _ in 0..iterations {
        let mut gre = cc.upload(&re)?;
        let mut gim = cc.upload(&im)?;
        let mut half = 1usize;
        while half < fn_ {
            let build = |cc: &mut ComputeContext,
                         gre: &gpes_core::GpuArray<f32>,
                         gim: &gpes_core::GpuArray<f32>,
                         emit_re: bool|
             -> Result<Kernel, ComputeError> {
                Kernel::builder(if emit_re {
                    "fft_stage_re"
                } else {
                    "fft_stage_im"
                })
                .input("re", gre)
                .input("im", gim)
                .output(ScalarType::F32, fn_)
                .body(fft::stage_body(
                    fn_,
                    fft::Direction::Forward,
                    emit_re,
                    Some(half),
                ))
                .build(cc)
            };
            let kre = build(&mut cc, &gre, &gim, true)?;
            let kim = build(&mut cc, &gre, &gim, false)?;
            let nre: gpes_core::GpuArray<f32> = cc.run_to_array(&kre)?;
            let nim: gpes_core::GpuArray<f32> = cc.run_to_array(&kim)?;
            cc.delete_array(gre);
            cc.delete_array(gim);
            gre = nre;
            gim = nim;
            half *= 2;
        }
        rebuilt = (
            cc.read_array(&gre, Readback::DirectFbo)?,
            cc.read_array(&gim, Readback::DirectFbo)?,
        );
        cc.delete_array(gre);
        cc.delete_array(gim);
    }
    push("fft", "rebuild/pass", &cc, start.elapsed());
    let mut cc = ComputeContext::new(64, 64)?;
    let start = Instant::now();
    let mut retained = (Vec::new(), Vec::new());
    for _ in 0..iterations {
        retained = fft::run_gpu(&mut cc, &re, &im, fft::Direction::Forward)?;
    }
    push("fft", "retained", &cc, start.elapsed());
    assert_eq!(rebuilt, retained, "fft modes must agree bit-for-bit");

    Ok(rows)
}

/// A10 — concurrent serving: one engine, a fixed kernel mix, workers
/// 1→N, shared vs per-context program caches. The numbers the CI gate
/// locks: with the shared cache, process-wide links equal the mix size at
/// every worker count and post-warmup links are zero; per-context caches
/// relink on every worker that touches a kernel.
#[derive(Debug, Clone)]
pub struct A10Row {
    /// Kernel mix under test (`hot3`: 3 kernels hammered; `wide24`: 24
    /// distinct kernels, the link-amortisation shape).
    pub mix: &'static str,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Cache policy (`shared` or `per-context`).
    pub cache: &'static str,
    /// Jobs served in the timed wave.
    pub jobs: usize,
    /// Wall-clock for the timed wave, milliseconds.
    pub host_ms: f64,
    /// Serving rate over the timed wave.
    pub jobs_per_sec: f64,
    /// Programs linked process-wide over warmup + timed wave.
    pub links: u64,
    /// Programs linked after the warmup wave (shared cache: must be 0).
    pub post_warmup_links: u64,
}

/// Each a10 mix: the programs it links process-wide under the shared
/// cache, and the worker counts it is served at under both caches.
const A10_MIXES: [(&str, u64, &[usize]); 2] = [("hot3", 3, &[1, 2, 4]), ("wide24", 24, &[1, 4])];
const A10_CACHES: [&str; 2] = ["shared", "per-context"];

impl Report for Vec<A10Row> {
    fn records(&self) -> Vec<Record> {
        self.iter()
            .map(|r| {
                // Per-context caches relink on whichever workers happen to
                // serve a kernel: a scheduling-dependent count.
                let links = if r.cache == "shared" {
                    Kind::Exact
                } else {
                    Kind::Advisory
                };
                Record::new("a10")
                    .key("mix", r.mix)
                    .key("workers", r.workers)
                    .key("cache", r.cache)
                    .exact("jobs", r.jobs)
                    .advisory("host_ms", r.host_ms)
                    .advisory("jobs_per_sec", r.jobs_per_sec)
                    .field("links", links, r.links)
                    .field("post_warmup_links", links, r.post_warmup_links)
            })
            .collect()
    }

    /// Shared-cache rows link exactly the mix size at every worker count
    /// and nothing after warmup; per-context rows link at least the mix.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (mix, _, worker_counts) in A10_MIXES {
            for &workers in worker_counts {
                for cache in A10_CACHES {
                    require!(
                        v,
                        self.iter()
                            .any(|r| r.mix == mix && r.workers == workers && r.cache == cache),
                        "a10: {mix} {cache} @ {workers} workers: row missing"
                    );
                }
            }
        }
        for row in self {
            let at = format!("a10: {} {} @ {} workers", row.mix, row.cache, row.workers);
            let Some(&(_, want, _)) = A10_MIXES.iter().find(|(mix, ..)| *mix == row.mix) else {
                v.push(format!("{at}: unknown mix"));
                continue;
            };
            if row.cache != "shared" {
                require!(
                    v,
                    row.links >= want,
                    "{at}: {} links, fewer than the {want}-kernel mix",
                    row.links
                );
                continue;
            }
            require!(
                v,
                row.links == want,
                "{at}: {} process-wide links, contract is {want} (constant across worker counts)",
                row.links
            );
            require!(
                v,
                row.post_warmup_links == 0,
                "{at}: {} post-warmup links, contract is 0 with the shared cache",
                row.post_warmup_links
            );
        }
        v
    }
}

/// The a10 kernel mix: three distinct `f32` kernels over `n`-element
/// inputs, cycled across jobs — the serving analog of one model's layers
/// arriving from many clients.
fn a10_specs(n: usize) -> Vec<std::sync::Arc<gpes_core::KernelSpec>> {
    use gpes_core::KernelSpec;
    use std::sync::Arc;
    vec![
        Arc::new(
            KernelSpec::new("saxpy")
                .input("x")
                .input("y")
                .uniform_f32("alpha", 2.0)
                .output(n)
                .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
        ),
        Arc::new(
            KernelSpec::new("blur3")
                .input("x")
                .input("y")
                .uniform_f32("last", n as f32 - 1.0)
                .output(n)
                .body(
                    "float a = fetch_x(max(idx - 1.0, 0.0));\n\
                     float b = fetch_x(idx);\n\
                     float c = fetch_x(min(idx + 1.0, last));\n\
                     return (a + b + c) / 3.0 + fetch_y(idx);",
                ),
        ),
        Arc::new(
            KernelSpec::new("sq_diff")
                .input("x")
                .input("y")
                .output(n)
                .body("float d = fetch_x(idx) - fetch_y(idx); return d * d;"),
        ),
    ]
}

/// Serves `jobs` requests cycling over `specs` (all two-input, `n`-long)
/// at each pool size in `worker_counts` under both cache policies,
/// asserting every served output bit-identical to direct serial dispatch
/// of the same spec.
fn a10_mix(
    mix: &'static str,
    specs: &[std::sync::Arc<gpes_core::KernelSpec>],
    n: usize,
    jobs: usize,
    worker_counts: &[usize],
) -> Result<Vec<A10Row>, ComputeError> {
    use gpes_core::serve::CachePolicy;
    use gpes_core::{Bindings, Job};
    use std::sync::Arc;

    let x: Arc<Vec<f32>> = Arc::new(data::random_f32(n, 1001, 25.0));
    let y: Arc<Vec<f32>> = Arc::new(data::random_f32(n, 1002, 25.0));

    // Direct serial reference, once per spec: `KernelSpec::build` on a
    // plain context generates the byte-identical program an engine worker
    // compiles, so equality below is bit-exact, not approximate.
    let mut cc = ComputeContext::new(256, 256)?;
    let gx = cc.upload(x.as_slice())?;
    let gy = cc.upload(y.as_slice())?;
    let mut expected: Vec<Vec<f32>> = Vec::new();
    for spec in specs {
        let k = spec.build(&mut cc, &[gx, gy])?;
        let out: gpes_core::GpuArray<f32> = cc.run_to_array_with(&k, &Bindings::new())?;
        expected.push(cc.read_array(&out, Readback::DirectFbo)?);
        cc.recycle_array(out);
    }

    let mut rows = Vec::new();
    for &workers in worker_counts {
        for (cache, policy) in [
            ("shared", CachePolicy::Shared),
            ("per-context", CachePolicy::PerContext),
        ] {
            let engine = Engine::builder()
                .workers(workers)
                .cache_policy(policy)
                .build()?;
            // Warmup: enough jobs that every worker serves work and the
            // shared cache holds the whole mix.
            let warm: Vec<_> = (0..workers.max(1) * specs.len())
                .map(|i| {
                    engine.submit(
                        Job::new(&specs[i % specs.len()])
                            .data_shared(&x)
                            .data_shared(&y),
                    )
                })
                .collect::<Result<_, _>>()?;
            for h in warm {
                h.wait()?;
            }
            let links_after_warmup = engine.programs_linked();

            let start = Instant::now();
            let handles: Vec<_> = (0..jobs)
                .map(|i| {
                    engine.submit(
                        Job::new(&specs[i % specs.len()])
                            .data_shared(&x)
                            .data_shared(&y),
                    )
                })
                .collect::<Result<_, _>>()?;
            for (i, h) in handles.into_iter().enumerate() {
                let served = h.wait()?;
                assert_eq!(
                    served,
                    expected[i % specs.len()],
                    "served output diverged from direct dispatch"
                );
            }
            let elapsed = start.elapsed();
            let links = engine.programs_linked();
            rows.push(A10Row {
                mix,
                workers,
                cache,
                jobs,
                host_ms: elapsed.as_secs_f64() * 1e3,
                jobs_per_sec: jobs as f64 / elapsed.as_secs_f64(),
                links,
                post_warmup_links: links - links_after_warmup,
            });
        }
    }
    Ok(rows)
}

/// Runs A10 over two serving shapes:
///
/// * **`hot3`** — the three-kernel mix hammered with `jobs` requests at
///   1/2/4 workers. Throughput here scales with *physical cores*; the
///   counters (links constant 1→N with the shared cache, zero after
///   warmup) are deterministic on any host and are what CI gates on.
/// * **`wide24`** — 24 distinct kernels served 8× each at 1 and 4
///   workers. This is the link-amortisation shape: per-context caches
///   relink each kernel on every worker that serves it (up to 4× the
///   links), which costs real wall-clock even on a single-core host;
///   the shared cache links each exactly once.
///
/// # Errors
///
/// Propagates engine/simulator failures.
pub fn a10_serving(n: usize, jobs: usize) -> Result<Vec<A10Row>, ComputeError> {
    use gpes_core::KernelSpec;
    use std::sync::Arc;

    let [(hot3, _, hot3_workers), (wide24, _, wide24_workers)] = A10_MIXES;
    let mut rows = a10_mix(hot3, &a10_specs(n), n, jobs, hot3_workers)?;

    let wide_n = 256usize;
    let wide: Vec<Arc<KernelSpec>> = (0..24)
        .map(|i| {
            // Distinct generated source per variant (the constant is
            // baked into the body), so each is its own link.
            Arc::new(
                KernelSpec::new(format!("mix_{i}"))
                    .input("x")
                    .input("y")
                    .output(wide_n)
                    .body(format!(
                        "return fetch_x(idx) * {}.0 - fetch_y(idx) / {}.0;",
                        i + 1,
                        i + 2
                    )),
            )
        })
        .collect();
    rows.extend(a10_mix(wide24, &wide, wide_n, 24 * 8, wide24_workers)?);
    Ok(rows)
}

/// A11 — pipeline serving: whole retained pipelines as engine jobs
/// (`engine-pipeline`) vs direct retained-`Pipeline` execution on a local
/// context (`direct`) vs the same passes flattened into a per-pass
/// [`gpes_core::Submission`] DAG (`per-pass`), for the three iteration-heavy paper
/// workloads. The CI gate locks both served modes: once serving reaches
/// steady state, a full wave of requests links **zero** programs and
/// creates **zero** GL objects (per-pass DAGs get there because the worker
/// recycles each intermediate at its last use), and every served output is
/// bit-identical to the direct run.
#[derive(Debug, Clone)]
pub struct A11Row {
    /// Workload under test (`fft`, `srad`, `reduce`).
    pub workload: &'static str,
    /// Serving mode (`direct`, `engine-pipeline`, `per-pass`).
    pub mode: &'static str,
    /// Worker threads (1 for `direct`).
    pub workers: usize,
    /// Requests in the measured steady-state wave.
    pub jobs: usize,
    /// Wall-clock of the measured wave, milliseconds.
    pub host_ms: f64,
    /// Serving rate over the measured wave.
    pub jobs_per_sec: f64,
    /// Programs linked process-wide over warmup + measured waves.
    pub links: u64,
    /// Programs linked during the measured wave (gate: 0).
    pub post_warmup_links: u64,
    /// GL objects created during the measured wave (gate: 0).
    pub post_warmup_gl_objects: u64,
    /// Whether every output matched the direct reference bit-for-bit.
    pub identical: bool,
}

/// The a11 workloads, and the worker counts each is served at as an
/// engine-pipeline job and as per-pass DAGs.
const A11_WORKLOADS: [&str; 3] = ["fft", "srad", "reduce"];
const A11_ENGINE_WORKERS: [usize; 3] = [1, 2, 4];
const A11_PER_PASS_WORKERS: [usize; 2] = [1, 4];

impl Report for Vec<A11Row> {
    fn records(&self) -> Vec<Record> {
        self.iter()
            .map(|r| {
                Record::new("a11")
                    .key("workload", r.workload)
                    .key("mode", r.mode)
                    .key("workers", r.workers)
                    .exact("jobs", r.jobs)
                    .advisory("host_ms", r.host_ms)
                    .advisory("jobs_per_sec", r.jobs_per_sec)
                    .exact("links", r.links)
                    .exact("post_warmup_links", r.post_warmup_links)
                    .exact("post_warmup_gl_objects", r.post_warmup_gl_objects)
                    .exact("identical", r.identical)
            })
            .collect()
    }

    /// Every row is bit-identical to the direct run, and every served
    /// row — engine-pipeline and per-pass alike — reaches a steady wave
    /// that links and allocates nothing.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for row in self {
            let at = format!(
                "a11: {} {} @ {} workers",
                row.workload, row.mode, row.workers
            );
            require!(v, row.jobs > 0, "{at}: served no jobs");
            require!(
                v,
                row.identical,
                "{at}: output diverged from the direct run"
            );
        }
        for workload in A11_WORKLOADS {
            require!(
                v,
                self.iter()
                    .any(|r| r.workload == workload && r.mode == "direct"),
                "a11: {workload} direct row missing"
            );
            for (mode, worker_counts) in [
                ("engine-pipeline", &A11_ENGINE_WORKERS[..]),
                ("per-pass", &A11_PER_PASS_WORKERS[..]),
            ] {
                for &workers in worker_counts {
                    let at = format!("a11: {workload} {mode} @ {workers} workers");
                    let Some(row) = self
                        .iter()
                        .find(|r| r.workload == workload && r.mode == mode && r.workers == workers)
                    else {
                        v.push(format!("{at}: row missing"));
                        continue;
                    };
                    require!(
                        v,
                        row.post_warmup_links == 0,
                        "{at}: {} post-warmup links, contract is 0 for steady-state serving",
                        row.post_warmup_links
                    );
                    require!(
                        v,
                        row.post_warmup_gl_objects == 0,
                        "{at}: {} GL objects created in the steady-state wave, contract is 0",
                        row.post_warmup_gl_objects
                    );
                }
            }
        }
        v
    }
}

type DirectRunner = Box<dyn Fn(&mut ComputeContext) -> Result<Vec<f32>, ComputeError>>;
type SubmissionBuilder = Box<dyn Fn() -> (gpes_core::Submission, Vec<gpes_core::StepHandle>)>;

/// One a11 workload: how to serve it through each mode and what the
/// correct output is.
struct A11Workload {
    name: &'static str,
    /// Direct retained-pipeline run on a local context, returning the
    /// concatenated outputs (the bit-exact reference).
    reference: Vec<f32>,
    spec: std::sync::Arc<gpes_core::PipelineSpec>,
    /// Buffers to read from pipeline jobs, in reference order.
    reads: Vec<&'static str>,
    /// Source data for one request.
    sources: Vec<std::sync::Arc<Vec<f32>>>,
    /// Runs one direct request, returning the concatenated outputs.
    run_direct: DirectRunner,
    /// Builds one flat per-pass submission; readbacks are the final
    /// steps, in reference order.
    build_submission: SubmissionBuilder,
}

fn a11_workloads() -> Result<Vec<A11Workload>, ComputeError> {
    use gpes_core::serve::JobInput;
    use gpes_core::Submission;
    use gpes_kernels::{fft, reduce, srad};
    use std::sync::Arc;

    let mut workloads = Vec::new();

    // ---- fft: 64-point forward transform, 6 stages × 2 kernels --------
    {
        let n = 64usize;
        let re: Arc<Vec<f32>> = Arc::new(data::random_f32(n, 1101, 1.0));
        let im: Arc<Vec<f32>> = Arc::new(data::random_f32(n, 1102, 1.0));
        let mut cc = ComputeContext::new(16, 16)?;
        let (dre, dim) = fft::run_gpu(&mut cc, &re, &im, fft::Direction::Forward)?;
        let mut reference = dre;
        reference.extend_from_slice(&dim);
        let spec = Arc::new(fft::pipeline_spec(n, fft::Direction::Forward)?);
        let (re_d, im_d) = (Arc::clone(&re), Arc::clone(&im));
        let (re_s, im_s) = (Arc::clone(&re), Arc::clone(&im));
        let stages = n.trailing_zeros() as usize;
        workloads.push(A11Workload {
            name: "fft",
            reference,
            spec,
            reads: vec!["re", "im"],
            sources: vec![Arc::clone(&re), Arc::clone(&im)],
            run_direct: Box::new(move |cc| {
                let (gre, gim) = fft::run_gpu(cc, &re_d, &im_d, fft::Direction::Forward)?;
                let mut out = gre;
                out.extend_from_slice(&gim);
                Ok(out)
            }),
            build_submission: Box::new(move || {
                let kre = Arc::new(fft::stage_spec(n, fft::Direction::Forward, true));
                let kim = Arc::new(fft::stage_spec(n, fft::Direction::Forward, false));
                let mut sub = Submission::new();
                let mut prev: Option<(gpes_core::StepHandle, gpes_core::StepHandle)> = None;
                for stage in 0..stages {
                    let half = gpes_glsl::Value::Float((1usize << stage) as f32);
                    let inputs = |prev: &Option<(gpes_core::StepHandle, gpes_core::StepHandle)>| {
                        match prev {
                            None => vec![
                                JobInput::Data(Arc::clone(&re_s)),
                                JobInput::Data(Arc::clone(&im_s)),
                            ],
                            Some((r, i)) => vec![(*r).into(), (*i).into()],
                        }
                    };
                    let sr = sub.step(
                        &kre,
                        inputs(&prev),
                        vec![("half_".to_owned(), half.clone())],
                    );
                    let si = sub.step(&kim, inputs(&prev), vec![("half_".to_owned(), half)]);
                    prev = Some((sr, si));
                }
                let (sr, si) = prev.expect("at least one stage");
                sub.read(sr);
                sub.read(si);
                (sub, vec![sr, si])
            }),
        });
    }

    // ---- srad: 16×16 diffusion, 4 iterations × 2 kernels --------------
    {
        let (rows, cols) = (16usize, 16usize);
        let iterations = 4usize;
        let params = srad::SradParams::default();
        let img: Arc<Vec<f32>> = Arc::new(
            data::random_f32(rows * cols, 1103, 40.0)
                .into_iter()
                .map(|v| v.abs() + 10.0)
                .collect(),
        );
        let mut cc = ComputeContext::new(32, 32)?;
        let reference = srad::run_gpu(&mut cc, rows, cols, &img, params, iterations)?;
        let spec = Arc::new(srad::pipeline_spec(rows, cols, params, iterations)?);
        let (img_d, img_s) = (Arc::clone(&img), Arc::clone(&img));
        workloads.push(A11Workload {
            name: "srad",
            reference,
            spec,
            reads: vec!["j"],
            sources: vec![Arc::clone(&img)],
            run_direct: Box::new(move |cc| {
                srad::run_gpu(cc, rows, cols, &img_d, params, iterations)
            }),
            build_submission: Box::new(move || {
                // 16×16 is square, so the linear near-square upload lays
                // out exactly like the grid — fetch_rc sees one texture
                // shape in every mode.
                let kc = Arc::new(srad::coeff_spec(rows as u32, cols as u32, params));
                let ku = Arc::new(srad::update_spec(rows as u32, cols as u32, params));
                let mut sub = Submission::new();
                let mut j: Option<gpes_core::StepHandle> = None;
                for _ in 0..iterations {
                    let j_input = |j: &Option<gpes_core::StepHandle>| match j {
                        None => JobInput::Data(Arc::clone(&img_s)),
                        Some(h) => (*h).into(),
                    };
                    let c = sub.step(&kc, vec![j_input(&j)], vec![]);
                    j = Some(sub.step(&ku, vec![j_input(&j), c.into()], vec![]));
                }
                let j = j.expect("at least one iteration");
                sub.read(j);
                (sub, vec![j])
            }),
        });
    }

    // ---- reduce: 512-element sum tree, 3 levels of one kernel ---------
    {
        let n = 512usize;
        let values: Arc<Vec<f32>> = Arc::new(data::random_f32(n, 1104, 25.0));
        let reference = vec![reduce::cpu_reference(&values, reduce::ReduceOp::Sum)];
        let spec = Arc::new(reduce::pipeline_spec(n, reduce::ReduceOp::Sum)?);
        let (values_d, values_s) = (Arc::clone(&values), Arc::clone(&values));
        workloads.push(A11Workload {
            name: "reduce",
            reference,
            spec,
            reads: vec!["x"],
            sources: vec![Arc::clone(&values)],
            run_direct: Box::new(move |cc| {
                let arr = cc.upload(values_d.as_slice())?;
                let out = reduce::gpu_reduce(cc, &arr, reduce::ReduceOp::Sum)?;
                cc.recycle_array(arr);
                Ok(vec![out])
            }),
            build_submission: Box::new(move || {
                let mut sub = Submission::new();
                let mut len = n;
                let mut prev: Option<gpes_core::StepHandle> = None;
                while len > 1 {
                    let spec = Arc::new(reduce::fold_spec(len, reduce::ReduceOp::Sum));
                    let input = match prev {
                        None => JobInput::Data(Arc::clone(&values_s)),
                        Some(h) => h.into(),
                    };
                    prev = Some(sub.step(&spec, vec![input], vec![]));
                    len = len.div_ceil(reduce::FANIN);
                }
                let last = prev.expect("at least one level");
                sub.read(last);
                (sub, vec![last])
            }),
        });
    }

    Ok(workloads)
}

/// Programs linked process-wide and GL objects created across every
/// worker of `engine`: the pair whose per-wave delta marks steady state.
fn gl_counters(engine: &Engine) -> (u64, u64) {
    (
        engine.programs_linked(),
        engine
            .worker_stats()
            .iter()
            .map(gpes_core::ContextStats::gl_objects_created)
            .sum(),
    )
}

/// Waits until idle workers have drained every stale (cancelled) queue
/// entry, so a snapshot taken next sees true quiescence.
fn drain_queue(engine: &Engine) {
    while engine.queue_depth() > 0 {
        std::thread::yield_now();
    }
}

/// The last wave [`serve_until_steady`] served.
struct SteadyWave {
    /// Waves served, the steady one included.
    waves: usize,
    /// Wall-clock of the wave, milliseconds.
    host_ms: f64,
    /// Programs linked process-wide over every wave.
    links: u64,
    /// Programs linked during the wave.
    post_warmup_links: u64,
    /// GL objects created during the wave.
    post_warmup_gl_objects: u64,
    /// `f32` and quantized tensors that crossed the host boundary during
    /// the wave, all workers.
    host_transfers: (u64, u64),
    /// Whether every wave reported bit-identical outputs.
    identical: bool,
}

/// Serves convergence-checked waves: repeats `wave` until a full wave
/// links no program, and every worker drew in it (its pool served or
/// created a texture) while none created a GL object, and every worker
/// holds every program linked so far (it has served every kernel) — so
/// no worker is still cold when the wave ends. A mode that churns every
/// wave (or leaks) never gets there; the last wave's nonzero delta is
/// reported after `MAX_WAVES` and the gate fails it.
fn serve_until_steady(
    engine: &Engine,
    mut wave: impl FnMut(&Engine) -> Result<bool, ComputeError>,
) -> Result<SteadyWave, ComputeError> {
    const MAX_WAVES: usize = 16;
    let mut identical = true;
    let mut elapsed = std::time::Duration::ZERO;
    let mut delta = (0, 0);
    let mut host_transfers = (0, 0);
    let mut waves = 0;
    while waves < MAX_WAVES {
        waves += 1;
        let before = (gl_counters(engine), engine.worker_stats());
        let start = Instant::now();
        identical &= wave(engine)?;
        elapsed = start.elapsed();
        let after = (gl_counters(engine), engine.worker_stats());
        delta = (after.0 .0 - before.0 .0, after.0 .1 - before.0 .1);
        let transfers = |stats: &[ContextStats]| {
            let sum = stats
                .iter()
                .fold(ContextStats::default(), |acc, s| acc.merged(s));
            (sum.f32_host_transfers, sum.quantized_host_transfers)
        };
        let (now, then) = (transfers(&after.1), transfers(&before.1));
        host_transfers = (now.0 - then.0, now.1 - then.1);
        let every_worker_drew = after.1.iter().zip(&before.1).all(|(a, b)| {
            a.texture_pool_hits + a.textures_created > b.texture_pool_hits + b.textures_created
        });
        // Programs link once process-wide; a worker that has served a
        // kernel holds its program (linked or adopted, never deleted
        // while the kernel is live).
        let linked = engine.programs_linked();
        let every_worker_holds_every_program = after
            .1
            .iter()
            .all(|w| w.programs_linked + w.programs_adopted - w.programs_deleted >= linked);
        if delta == (0, 0) && every_worker_drew && every_worker_holds_every_program {
            break;
        }
    }
    Ok(SteadyWave {
        waves,
        host_ms: elapsed.as_secs_f64() * 1e3,
        links: engine.programs_linked(),
        post_warmup_links: delta.0,
        post_warmup_gl_objects: delta.1,
        host_transfers,
        identical,
    })
}

/// Runs A11: every workload through every mode, asserting bit-identity
/// to the direct reference and reporting the steady-state counter deltas
/// the CI gate locks to zero.
///
/// # Errors
///
/// Propagates engine/simulator failures.
pub fn a11_pipeline_serving() -> Result<Vec<A11Row>, ComputeError> {
    use gpes_core::PipelineJob;
    const WAVE_JOBS: usize = 8;
    let mut rows = Vec::new();

    for workload in a11_workloads()? {
        // ---- direct: retained pipeline on a local context -------------
        {
            let mut cc = ComputeContext::new(64, 64)?;
            let mut identical = (workload.run_direct)(&mut cc)? == workload.reference;
            let stats = cc.stats();
            let (warm_links, warm_objects) = (stats.programs_linked, stats.gl_objects_created());
            let start = Instant::now();
            for _ in 0..WAVE_JOBS {
                identical &= (workload.run_direct)(&mut cc)? == workload.reference;
            }
            let elapsed = start.elapsed();
            let stats = cc.stats();
            rows.push(A11Row {
                workload: workload.name,
                mode: "direct",
                workers: 1,
                jobs: WAVE_JOBS,
                host_ms: elapsed.as_secs_f64() * 1e3,
                jobs_per_sec: WAVE_JOBS as f64 / elapsed.as_secs_f64(),
                links: stats.programs_linked,
                post_warmup_links: stats.programs_linked - warm_links,
                post_warmup_gl_objects: stats.gl_objects_created() - warm_objects,
                identical,
            });
        }

        // ---- engine-pipeline: whole pipeline as one job ---------------
        let served_row = |mode, workers, wave: SteadyWave| A11Row {
            workload: workload.name,
            mode,
            workers,
            jobs: WAVE_JOBS,
            host_ms: wave.host_ms,
            jobs_per_sec: WAVE_JOBS as f64 / (wave.host_ms / 1e3),
            links: wave.links,
            post_warmup_links: wave.post_warmup_links,
            post_warmup_gl_objects: wave.post_warmup_gl_objects,
            identical: wave.identical,
        };
        for workers in A11_ENGINE_WORKERS {
            let engine = Engine::builder().workers(workers).build()?;
            let wave = serve_until_steady(&engine, |engine| {
                let handles: Vec<_> = (0..WAVE_JOBS)
                    .map(|_| {
                        let mut job = PipelineJob::new(&workload.spec);
                        for source in &workload.sources {
                            job = job.source_shared(source);
                        }
                        for read in &workload.reads {
                            job = job.read(read);
                        }
                        engine.submit(job)
                    })
                    .collect::<Result<_, _>>()?;
                let mut identical = true;
                for h in handles {
                    let result = h.wait()?;
                    let mut served = Vec::new();
                    for read in &workload.reads {
                        served.extend_from_slice(result.output(read).unwrap_or(&[]));
                    }
                    identical &= served == workload.reference;
                }
                Ok(identical)
            })?;
            rows.push(served_row("engine-pipeline", workers, wave));
        }

        // ---- per-pass: the same passes as a flat Submission DAG -------
        for workers in A11_PER_PASS_WORKERS {
            let engine = Engine::builder().workers(workers).build()?;
            let wave = serve_until_steady(&engine, |engine| {
                let handles: Vec<_> = (0..WAVE_JOBS)
                    .map(|_| {
                        let (sub, reads) = (workload.build_submission)();
                        engine.submit(sub).map(|h| (h, reads))
                    })
                    .collect::<Result<_, _>>()?;
                let mut identical = true;
                for (h, reads) in handles {
                    let result = h.wait()?;
                    let mut served = Vec::new();
                    for read in reads {
                        served.extend_from_slice(result.output(read).unwrap_or(&[]));
                    }
                    identical &= served == workload.reference;
                }
                Ok(identical)
            })?;
            rows.push(served_row("per-pass", workers, wave));
        }
    }
    Ok(rows)
}

/// A12 — serving latency under saturation: the bounded engine driven by
/// an open-loop producer past its admission capacity, reporting the
/// queue/service latency distribution and the snapshot's outcome
/// counters rather than just jobs/s.
#[derive(Debug, Clone)]
pub struct A12Report {
    /// Worker threads.
    pub workers: usize,
    /// Admission bound the producer saturates.
    pub queue_capacity: usize,
    /// Jobs the producer aimed to get admitted.
    pub target_jobs: usize,
    /// Wall-clock of the saturation phase, milliseconds.
    pub elapsed_ms: f64,
    /// The engine's final [`gpes_core::EngineSnapshot`], taken at
    /// quiescence (queue empty, every handle resolved).
    pub snapshot: gpes_core::EngineSnapshot,
    /// Programs linked during the saturation phase (gate: 0).
    pub post_warmup_links: u64,
    /// GL objects created during the saturation phase (gate: 0).
    pub post_warmup_gl_objects: u64,
    /// Whether every completed output matched the direct reference
    /// bit-for-bit.
    pub identical: bool,
}

/// One a12 latency histogram as an advisory record: quantile bounds are
/// host timing.
fn a12_latency_record(row: &'static str, h: &gpes_core::LatencyHistogram) -> Record {
    Record::new("a12")
        .key("row", row)
        .advisory("p50_us", h.quantile_micros(0.50))
        .advisory("p90_us", h.quantile_micros(0.90))
        .advisory("p99_us", h.quantile_micros(0.99))
        .advisory("max_us", h.max_micros())
        .advisory("mean_us", h.mean_micros())
        .advisory("samples", h.count())
}

impl Report for A12Report {
    /// The admission counters scale with how fast the host drained the
    /// open-loop load, so only the steady-state fields are exact.
    fn records(&self) -> Vec<Record> {
        let s = &self.snapshot;
        vec![
            Record::new("a12")
                .key("row", "counters")
                .exact("workers", self.workers)
                .exact("capacity", self.queue_capacity)
                .exact("target_jobs", self.target_jobs)
                .advisory("submitted", s.submitted)
                .advisory("completed", s.completed)
                .advisory("rejected", s.rejected)
                .advisory("shed", s.shed)
                .advisory("cancelled", s.cancelled)
                .exact("aborted", s.aborted)
                .exact("unobserved", s.unobserved_errors)
                .exact("balanced", s.counters_balanced())
                .exact("post_warmup_links", self.post_warmup_links)
                .exact("post_warmup_gl_objects", self.post_warmup_gl_objects)
                .exact("queue_high_water", s.queue_depth_high_water)
                .exact("identical", self.identical)
                .advisory("elapsed_ms", self.elapsed_ms)
                .advisory(
                    "completed_jobs_per_sec",
                    s.completed as f64 / (self.elapsed_ms / 1e3),
                ),
            a12_latency_record("queue", &s.queue_latency),
            a12_latency_record("service", &s.service_latency),
        ]
    }

    /// Counters balance, the load both saturated the queue (QueueFull) and
    /// shed expired deadlines, completed outputs are bit-identical, and
    /// the saturated steady state links and allocates nothing.
    fn violations(&self) -> Vec<String> {
        let s = &self.snapshot;
        let mut v = Vec::new();
        require!(
            v,
            s.counters_balanced(),
            "a12: outcome counters do not balance (submitted != completed + rejected + shed + \
             cancelled + aborted)"
        );
        require!(
            v,
            s.rejected > 0,
            "a12: zero QueueFull rejections — the open-loop load never saturated the \
             admission bound"
        );
        require!(
            v,
            s.shed > 0,
            "a12: zero deadline sheds — expired jobs were not shed at dequeue"
        );
        require!(
            v,
            s.completed > 0 && s.failed == 0,
            "a12: {} completed and {} failed jobs, contract is >0 and 0",
            s.completed,
            s.failed
        );
        require!(
            v,
            self.identical,
            "a12: a completed output diverged from the direct run"
        );
        require!(
            v,
            self.post_warmup_links == 0,
            "a12: {} post-warmup links, contract is 0 under saturation",
            self.post_warmup_links
        );
        require!(
            v,
            self.post_warmup_gl_objects == 0,
            "a12: {} GL objects created under saturation, contract is 0",
            self.post_warmup_gl_objects
        );
        require!(
            v,
            s.queue_depth_high_water <= self.queue_capacity as u64,
            "a12: queue high-water {} exceeds the admission bound {}",
            s.queue_depth_high_water,
            self.queue_capacity
        );
        require!(
            v,
            !s.queue_latency.is_empty() && !s.service_latency.is_empty(),
            "a12: the queue or service latency histogram is empty"
        );
        v
    }
}

/// Runs A12: saturating open-loop load against a small admission bound.
///
/// A 2-worker engine with a deliberately tight queue is flooded with
/// `try_submit` saxpy jobs of `n` elements until `target_jobs` are
/// admitted *and* at least one [`ComputeError::QueueFull`] rejection has
/// been observed. Every 7th job carries an already-expired deadline
/// (guaranteed shed at dequeue, before any GPU work); every 13th is
/// cancelled right after admission. Completions drain through a
/// [`gpes_core::CompletionSet`], every successful output is compared
/// bit-for-bit against a direct no-engine run, and the final snapshot —
/// whose counters must balance exactly — carries the queue/service
/// latency histograms the report prints.
///
/// # Errors
///
/// Propagates engine/simulator failures (shed, cancelled and queue-full
/// outcomes are expected and absorbed).
pub fn a12_latency_under_load(n: usize, target_jobs: usize) -> Result<A12Report, ComputeError> {
    use gpes_core::{CompletionSet, Job, KernelSpec};
    use std::sync::Arc;
    const WORKERS: usize = 2;
    const CAPACITY: usize = 8;
    let x = data::random_f32(n, 1201, 1.0);
    let y = data::random_f32(n, 1202, 1.0);
    let spec = Arc::new(
        KernelSpec::new("a12_saxpy")
            .input("x")
            .input("y")
            .uniform_f32("alpha", 2.0)
            .output(n)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
    );

    // Direct no-engine reference for the bit-identity check.
    let reference = {
        let mut cc = ComputeContext::new(256, 256)?;
        let gx = cc.upload(&x)?;
        let gy = cc.upload(&y)?;
        let kernel = Kernel::builder("a12_saxpy_direct")
            .input("x", &gx)
            .input("y", &gy)
            .uniform_f32("alpha", 2.0)
            .output(ScalarType::F32, n)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);")
            .build(&mut cc)?;
        cc.run_f32(&kernel)?
    };

    let engine = Engine::builder()
        .workers(WORKERS)
        .queue_capacity(CAPACITY)
        .build()?;
    let make_job = || Job::new(&spec).data(x.clone()).data(y.clone());

    // Warmup to steady state, a11-style: closed-loop waves until a full
    // wave links no programs and creates no GL objects.
    let mut identical = serve_until_steady(&engine, |engine| {
        let handles: Vec<_> = (0..WORKERS * 2)
            .map(|_| engine.submit(make_job()))
            .collect::<Result<_, _>>()?;
        let mut identical = true;
        for h in handles {
            identical &= h.wait()? == reference;
        }
        Ok(identical)
    })?
    .identical;
    let warm = gl_counters(&engine);

    // Saturation: open-loop flood past the admission bound. On every
    // QueueFull the producer drains one completion and retries — the
    // bounded queue is the only thing pacing it.
    let mut set = CompletionSet::new();
    let mut admitted = 0usize;
    let mut rejections = 0u64;
    let mut attempt = 0usize;
    let collect = |result: Result<Vec<f32>, ComputeError>,
                   identical: &mut bool|
     -> Result<(), ComputeError> {
        match result {
            Ok(out) => {
                *identical &= out == reference;
                Ok(())
            }
            Err(ComputeError::DeadlineExceeded { .. } | ComputeError::Cancelled) => Ok(()),
            Err(e) => Err(e),
        }
    };
    let start = Instant::now();
    while admitted < target_jobs || rejections == 0 {
        attempt += 1;
        let mut job = make_job();
        if attempt.is_multiple_of(7) {
            // Already expired: admitted, then shed at dequeue.
            job = job.deadline(Instant::now() - std::time::Duration::from_millis(1));
        }
        match engine.try_submit(job) {
            Ok(handle) => {
                if attempt.is_multiple_of(13) {
                    // May or may not win the race against a worker;
                    // both outcomes are legal and accounted.
                    handle.cancel();
                }
                set.insert(handle);
                admitted += 1;
            }
            Err(ComputeError::QueueFull { .. }) => {
                rejections += 1;
                if let Some((_token, result)) = set.wait_any() {
                    collect(result, &mut identical)?;
                }
            }
            Err(e) => return Err(e),
        }
    }
    while let Some((_token, result)) = set.wait_any() {
        collect(result, &mut identical)?;
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    // Cancelled payloads are discarded lazily at dequeue.
    drain_queue(&engine);
    let snapshot = engine.snapshot();
    let after = gl_counters(&engine);
    Ok(A12Report {
        workers: WORKERS,
        queue_capacity: CAPACITY,
        target_jobs,
        elapsed_ms,
        snapshot,
        post_warmup_links: after.0 - warm.0,
        post_warmup_gl_objects: after.1 - warm.1,
        identical,
    })
}

/// One chaos rate's outcome in [`A13Report`]: the quiescent snapshot plus
/// the correctness verdicts the CI gate blocks on.
#[derive(Debug, Clone)]
pub struct A13ChaosRow {
    /// Per-site injection probability this row ran under.
    pub rate: f64,
    /// The engine's final [`gpes_core::EngineSnapshot`], taken at
    /// quiescence (queue empty, every handle resolved).
    pub snapshot: gpes_core::EngineSnapshot,
    /// Completed outputs that did NOT match the fault-free reference
    /// bit-for-bit (gate: 0 — chaos may slow or fail jobs, never corrupt
    /// them).
    pub wrong: u64,
    /// Whether any waiter outlived the drain deadline (gate: false).
    pub hung: bool,
}

impl A13ChaosRow {
    /// Whether every completed output matched the reference.
    pub fn identical(&self) -> bool {
        self.wrong == 0
    }
}

/// A13 — chaos serving: the a12-style open-loop load re-run under seeded
/// deterministic [`gpes_gles2::FaultPlan`]s at several injection rates,
/// with a one-shot context loss armed at every rate. The self-healing
/// contract CI gates on: completed outputs stay bit-identical to the
/// fault-free reference, counters (retries included) balance, every row
/// recovers at least one lost context, and no waiter hangs.
#[derive(Debug, Clone)]
pub struct A13Report {
    /// Worker threads.
    pub workers: usize,
    /// Admission bound the producer saturates.
    pub queue_capacity: usize,
    /// Jobs the producer admitted per rate.
    pub target_jobs: usize,
    /// Operation count after which each worker's one-shot context loss
    /// fires.
    pub lose_after: u64,
    /// Retry budget per job (first attempt included).
    pub max_attempts: u32,
    /// One row per injection rate.
    pub rows: Vec<A13ChaosRow>,
}

/// The a13 per-site fault injection rates, one chaos row each.
const A13_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.15];

impl Report for A13Report {
    /// Which faults fire, and so how often jobs retry or exhaust their
    /// budget, depends on which worker claims which job: those counts
    /// and the drain-speed-dependent admission counts are advisory.
    /// Every admitted job still completes or fails exactly once.
    fn records(&self) -> Vec<Record> {
        let config = Record::new("a13")
            .key("row", "config")
            .exact("workers", self.workers)
            .exact("capacity", self.queue_capacity)
            .exact("target_jobs", self.target_jobs)
            .exact("lose_after", self.lose_after)
            .exact("attempts", self.max_attempts);
        let rows = self.rows.iter().map(|row| {
            let s = &row.snapshot;
            Record::new("a13")
                .key("row", "chaos")
                .key("rate", row.rate)
                .advisory("submitted", s.submitted)
                .exact("completed", s.completed)
                .advisory("failed", s.failed)
                .advisory("rejected", s.rejected)
                .exact("shed", s.shed)
                .exact("cancelled", s.cancelled)
                .exact("aborted", s.aborted)
                .advisory("retried", s.retried)
                .exact("recovered", s.recovered_contexts)
                .advisory("faults", s.faults_injected)
                .exact("balanced", s.counters_balanced())
                .exact("identical", row.identical())
                .exact("hung", row.hung)
        });
        std::iter::once(config).chain(rows).collect()
    }

    /// At every rate: balanced, bit-identical, no hung waiter, at least
    /// one rebuilt context, completions within the admission bound.
    /// Across the sweep: nonzero rates inject faults and something
    /// retries. Typed failures after the retry budget are allowed.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let rates: Vec<f64> = self.rows.iter().map(|r| r.rate).collect();
        require!(
            v,
            rates == A13_RATES,
            "a13: chaos rows at rates {rates:?}, contract is {A13_RATES:?}"
        );
        for row in &self.rows {
            let s = &row.snapshot;
            let at = format!("a13: rate {:.4}", row.rate);
            require!(
                v,
                s.counters_balanced(),
                "{at}: outcome counters do not balance under fault injection (a retried job \
                 must still count exactly once)"
            );
            require!(
                v,
                row.identical(),
                "{at}: {} completed outputs diverged from the fault-free reference",
                row.wrong
            );
            require!(
                v,
                !row.hung,
                "{at}: a submitted job never resolved — a waiter hung through fault recovery"
            );
            require!(
                v,
                s.recovered_contexts >= 1,
                "{at}: no worker context was rebuilt after the injected context loss"
            );
            require!(
                v,
                s.completed > 0 && s.queue_depth_high_water <= self.queue_capacity as u64,
                "{at}: {} completed, queue high-water {} vs bound {}",
                s.completed,
                s.queue_depth_high_water,
                self.queue_capacity
            );
        }
        let faults: u64 = self
            .rows
            .iter()
            .filter(|r| r.rate > 0.0)
            .map(|r| r.snapshot.faults_injected)
            .sum();
        require!(
            v,
            faults > 0,
            "a13: nonzero fault rates injected zero faults — the chaos plan never armed"
        );
        require!(
            v,
            self.rows.iter().any(|r| r.snapshot.retried > 0),
            "a13: zero retries across the sweep — transient failures were never re-run"
        );
        v
    }
}

/// Runs A13: open-loop chaos load under deterministic fault injection.
///
/// For each injection rate a fresh 2-worker engine gets a seeded
/// [`gpes_gles2::FaultPlan`] (derived per worker) with every failure
/// site armed at that rate plus a one-shot context loss a few operations
/// in, and a generous zero-backoff [`gpes_core::RetryPolicy`]. The
/// producer floods `try_submit` saxpy jobs past the admission bound
/// (QueueFull paces it, exactly like a12), drains every handle through a
/// timeout-bounded [`gpes_core::CompletionSet`] — a waiter outliving the
/// deadline marks the row hung instead of hanging the bench — and takes
/// the snapshot at quiescence. Completed outputs are compared
/// bit-for-bit against a fault-free direct run; jobs whose retry budget
/// was exhausted surface typed transient errors and are counted
/// `failed`, never wrong.
///
/// # Errors
///
/// Propagates simulator failures that are neither transient nor
/// injection-induced (those are expected and absorbed).
pub fn a13_chaos(n: usize, target_jobs: usize) -> Result<A13Report, ComputeError> {
    use gpes_core::{CompletionSet, Job, KernelSpec, RetryPolicy};
    use gpes_gles2::FaultPlan;
    use std::sync::Arc;
    use std::time::Duration;
    const WORKERS: usize = 2;
    const CAPACITY: usize = 8;
    const LOSE_AFTER: u64 = 9;
    const SEED: u64 = 0xDA7E_2016;
    const MAX_ATTEMPTS: u32 = 6;
    /// Per-row drain budget: far beyond any real run, tight enough that
    /// a genuine hang fails the row (and the gate) instead of wedging CI.
    const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

    let x = data::random_f32(n, 1301, 1.0);
    let y = data::random_f32(n, 1302, 1.0);
    let spec = Arc::new(
        KernelSpec::new("a13_saxpy")
            .input("x")
            .input("y")
            .uniform_f32("alpha", 2.0)
            .output(n)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
    );

    // Fault-free direct reference for the bit-identity check.
    let reference = {
        let mut cc = ComputeContext::new(256, 256)?;
        let gx = cc.upload(&x)?;
        let gy = cc.upload(&y)?;
        let kernel = Kernel::builder("a13_saxpy_direct")
            .input("x", &gx)
            .input("y", &gy)
            .uniform_f32("alpha", 2.0)
            .output(ScalarType::F32, n)
            .body("return alpha * fetch_x(idx) + fetch_y(idx);")
            .build(&mut cc)?;
        cc.run_f32(&kernel)?
    };

    let mut rows = Vec::with_capacity(A13_RATES.len());
    for rate in A13_RATES {
        let engine = Engine::builder()
            .workers(WORKERS)
            .queue_capacity(CAPACITY)
            .retry_policy(RetryPolicy {
                max_attempts: MAX_ATTEMPTS,
                backoff: Duration::ZERO,
            })
            .fault_plan(
                FaultPlan::new(SEED)
                    .rate_all(rate)
                    .lose_context_after(LOSE_AFTER),
            )
            .build()?;
        let mut set = CompletionSet::new();
        let mut wrong = 0u64;
        let mut hung = false;
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        let collect =
            |result: Result<Vec<f32>, ComputeError>, wrong: &mut u64| -> Result<(), ComputeError> {
                match result {
                    Ok(out) => {
                        if out != reference {
                            *wrong += 1;
                        }
                        Ok(())
                    }
                    // Retry budget exhausted under heavy injection: a typed
                    // transient error, the expected chaos outcome.
                    Err(e) if e.is_transient() => Ok(()),
                    Err(e) => Err(e),
                }
            };
        let mut admitted = 0usize;
        while admitted < target_jobs && !hung {
            match engine.try_submit(Job::new(&spec).data(x.clone()).data(y.clone())) {
                Ok(handle) => {
                    set.insert(handle);
                    admitted += 1;
                }
                Err(ComputeError::QueueFull { .. }) => {
                    let now = Instant::now();
                    if now >= give_up {
                        hung = true;
                        break;
                    }
                    match set.wait_any_timeout(give_up - now) {
                        Some((_token, result)) => collect(result, &mut wrong)?,
                        None => hung = true,
                    }
                }
                Err(e) => return Err(e),
            }
        }
        while !set.is_empty() && !hung {
            let now = Instant::now();
            if now >= give_up {
                hung = true;
                break;
            }
            match set.wait_any_timeout(give_up - now) {
                Some((_token, result)) => collect(result, &mut wrong)?,
                None => hung = true,
            }
        }
        if !hung {
            drain_queue(&engine);
        }
        rows.push(A13ChaosRow {
            rate,
            snapshot: engine.snapshot(),
            wrong,
            hung,
        });
        engine.shutdown();
    }
    Ok(A13Report {
        workers: WORKERS,
        queue_capacity: CAPACITY,
        target_jobs,
        lose_after: LOSE_AFTER,
        max_attempts: MAX_ATTEMPTS,
        rows,
    })
}

/// One tenant's outcome in [`A14Report`]: the engine's per-tenant
/// counters joined with the bench's own correctness tallies.
#[derive(Debug, Clone)]
pub struct A14TenantRow {
    /// Tenant name.
    pub tenant: String,
    /// Kernel sources this tenant got through admission.
    pub admitted: u64,
    /// Typed refusals charged to the tenant (admission + quota).
    pub rejected: u64,
    /// Tenant-scoped cache evictions.
    pub evicted: u64,
    /// Jobs accepted into the queue for this tenant after warm-up: the
    /// measured phase only, so the count does not depend on how many
    /// warm-up waves the engine needed.
    pub jobs: u64,
    /// Completed outputs that did NOT match the tenant's direct
    /// reference bit-for-bit (gate: 0).
    pub wrong: u64,
}

/// A14 — multi-tenant dynamic kernel registry under adversarial load.
/// Three well-behaved tenants register kernels from GLSL source and
/// serve steady waves; a malformed tenant hammers the admission pipeline
/// with invalid source (parse / sema / strict / oversized); a noisy
/// tenant floods past its in-flight quota. The contract CI gates on:
/// every invalid source rejected with a typed error (zero panics, zero
/// wrong admissions), every well-behaved output bit-identical to the
/// compiled-in path, zero post-warmup links / GL objects (the noisy and
/// malformed tenants never cost their neighbours anything), balanced
/// counters, and at least one typed quota rejection actually observed.
#[derive(Debug, Clone)]
pub struct A14Report {
    /// Worker threads.
    pub workers: usize,
    /// Admission bound.
    pub queue_capacity: usize,
    /// Steady-phase jobs per well-behaved tenant.
    pub wave_jobs: usize,
    /// Warm-up waves served before the steady phase (advisory: it
    /// depends on which worker picks up which job).
    pub warmup_waves: usize,
    /// Jobs the noisy tenant got admitted (its quota paces it).
    pub noisy_jobs: u64,
    /// The noisy tenant's in-flight quota.
    pub noisy_quota: usize,
    /// Invalid registration attempts by the malformed tenant.
    pub invalid_total: u64,
    /// The subset rejected with a typed
    /// [`gpes_core::ComputeError::AdmissionRejected`] (gate: all).
    pub invalid_typed: u64,
    /// The subset rejected by the GLSL front end (parse, strict or sema)
    /// rather than at the signature stage.
    pub invalid_front_end: u64,
    /// Fragment front-end runs at admission, from the final snapshot's
    /// shared-cache counters (gate: one per valid registration plus one
    /// per `invalid_front_end` — a rejection is never memoised).
    pub admissions: u64,
    /// Registrations served from a live admitted shader (gate: 0 — every
    /// valid a14 source is registered once).
    pub admission_hits: u64,
    /// Typed in-flight quota rejections observed by the noisy tenant
    /// (gate: > 0).
    pub quota_rejections: u64,
    /// Whether the noisy tenant's quota, as set, refused a try made with
    /// its full quota of jobs outstanding (gate: true). The other
    /// rejections are met at a closed quota. Not a record field: it is
    /// the gate's own evidence.
    pub open_quota_tripped: bool,
    /// Programs linked during the steady phase (gate: 0).
    pub post_warmup_links: u64,
    /// GL objects created during the steady phase (gate: 0).
    pub post_warmup_gl_objects: u64,
    /// Final snapshot at quiescence; counters must balance.
    pub snapshot: gpes_core::EngineSnapshot,
    /// One row per tenant, sorted by name.
    pub rows: Vec<A14TenantRow>,
}

/// The a14 tenants: three well-behaved, then the malformed and the noisy.
const A14_TENANTS: [&str; 5] = ["alpha", "beta", "gamma", "mallory", "noisy"];

/// Mallory's invalid registrations: four sources, one per rejection
/// stage, tried before warm-up and again mid-flood.
const A14_INVALID_ATTEMPTS: u64 = 8;

impl A14Report {
    /// Whether every completed output matched its tenant's reference.
    pub fn identical(&self) -> bool {
        self.rows.iter().all(|r| r.wrong == 0)
    }
}

impl Report for A14Report {
    /// Every count is exact: the noisy tenant drains one completion per
    /// quota refusal, so even its flood repeats run to run.
    fn records(&self) -> Vec<Record> {
        let s = &self.snapshot;
        let config = Record::new("a14")
            .key("row", "config")
            .exact("workers", self.workers)
            .exact("capacity", self.queue_capacity)
            .exact("tenants", self.rows.len())
            .exact("wave_jobs", self.wave_jobs)
            .exact("noisy_quota", self.noisy_quota)
            .advisory("warmup_waves", self.warmup_waves);
        let tenants = self.rows.iter().map(|row| {
            Record::new("a14")
                .key("row", "tenant")
                .key("name", row.tenant.as_str())
                .exact("admitted", row.admitted)
                .exact("rejected", row.rejected)
                .exact("evicted", row.evicted)
                .exact("jobs", row.jobs)
                .exact("wrong", row.wrong)
        });
        let totals = Record::new("a14")
            .key("row", "totals")
            .exact("invalid", self.invalid_total)
            .exact("typed", self.invalid_typed)
            .exact("front_end", self.invalid_front_end)
            .exact("admissions", self.admissions)
            .exact("admission_hits", self.admission_hits)
            .exact("quota_rejections", self.quota_rejections)
            .exact("post_warmup_links", self.post_warmup_links)
            .exact("post_warmup_gl_objects", self.post_warmup_gl_objects)
            .exact("balanced", s.counters_balanced())
            .exact("identical", self.identical());
        std::iter::once(config)
            .chain(tenants)
            .chain([totals])
            .collect()
    }

    /// Every invalid source is refused with a typed admission error and
    /// charged to mallory, the noisy tenant trips its quota, every tenant
    /// is present with bit-identical outputs, counters balance with no
    /// permit held, the hostile tenants cost their neighbours no link or
    /// GL object past warmup, and every invalid source that reached the
    /// front end ran it (no rejection is memoised).
    fn violations(&self) -> Vec<String> {
        let s = &self.snapshot;
        let mut v = Vec::new();
        require!(v, !self.rows.is_empty(), "a14: no tenant rows");
        require!(
            v,
            self.invalid_total >= A14_INVALID_ATTEMPTS,
            "a14: {} invalid registration attempts, contract is at least \
             {A14_INVALID_ATTEMPTS} — the admission pipeline was not fully exercised",
            self.invalid_total
        );
        require!(
            v,
            self.invalid_typed == self.invalid_total,
            "a14: {} invalid sources but only {} typed rejections — an admission failure was \
             untyped",
            self.invalid_total,
            self.invalid_typed
        );
        let admitted: u64 = self.rows.iter().map(|r| r.admitted).sum();
        require!(
            v,
            self.invalid_front_end > 0
                && self.admission_hits == 0
                && self.admissions == admitted + self.invalid_front_end,
            "a14: {} front-end runs and {} live hits for {admitted} distinct valid sources and \
             {} invalid ones past the signature stage — a rejection was memoised or an \
             admission skipped",
            self.admissions,
            self.admission_hits,
            self.invalid_front_end
        );
        require!(
            v,
            self.quota_rejections > 0,
            "a14: zero quota rejections — the noisy tenant never tripped its in-flight quota"
        );
        require!(
            v,
            self.open_quota_tripped,
            "a14: the noisy tenant's in-flight quota of {} admitted every try with that many \
             jobs outstanding",
            self.noisy_quota
        );
        require!(
            v,
            s.counters_balanced() && s.completed > 0,
            "a14: outcome counters do not balance (tenant-tagged rejections must feed the same \
             global ledger) or nothing completed"
        );
        require!(
            v,
            self.post_warmup_links == 0,
            "a14: {} post-warmup links, contract is 0 — a hostile tenant cost its neighbours a \
             relink",
            self.post_warmup_links
        );
        require!(
            v,
            self.post_warmup_gl_objects == 0,
            "a14: {} GL objects created post-warmup, contract is 0",
            self.post_warmup_gl_objects
        );
        for name in A14_TENANTS {
            require!(
                v,
                self.rows.iter().any(|r| r.tenant == name),
                "a14: tenant {name} row missing"
            );
        }
        for row in &self.rows {
            let name = &row.tenant;
            require!(
                v,
                row.wrong == 0,
                "a14: tenant {name} had {} outputs diverge from its reference",
                row.wrong
            );
            let (admitted, rejected, jobs_ok) = match name.as_str() {
                "mallory" => (0, self.invalid_total, true),
                "noisy" => (1, self.quota_rejections, row.jobs == self.noisy_jobs),
                _ => (1, 0, row.jobs == self.wave_jobs as u64),
            };
            require!(
                v,
                row.admitted == admitted && row.rejected == rejected && jobs_ok,
                "a14: tenant {name} ledger admitted {} rejected {} jobs {}, contract is \
                 admitted {admitted} rejected {rejected} and every measured job counted",
                row.admitted,
                row.rejected,
                row.jobs
            );
        }
        require!(
            v,
            s.tenants.iter().all(|t| t.in_flight == 0),
            "a14: a quiescent engine still holds tenant permits"
        );
        v
    }
}

/// Runs A14: the multi-tenant registry gauntlet.
///
/// Five tenants share one 2-worker engine. `alpha`/`beta`/`gamma`
/// register distinct kernels from source through the admission pipeline
/// and serve closed-loop waves whose outputs are compared bit-for-bit
/// against direct no-engine runs of the same bodies. `mallory` attempts
/// the same four invalid sources before and during the steady phase —
/// garbage that cannot parse, an undeclared identifier, an Appendix-A
/// loop violation, and an output beyond the driver limits — each of
/// which must surface as a typed admission error. `noisy` is capped at
/// two in-flight jobs and floods from its own thread, concurrent with the
/// well-behaved waves, until it has landed its target of accepted jobs:
/// each time its quota is full it makes one more `try_submit`, the first
/// against its quota as set and the rest against a closed quota, so each
/// must come back a typed quota rejection. Links and GL objects are watermarked after warmup; the
/// steady phase must create none.
///
/// # Errors
///
/// Propagates engine/simulator failures (typed admission and quota
/// rejections are expected and absorbed).
pub fn a14_registry(n: usize, wave_jobs: usize) -> Result<A14Report, ComputeError> {
    use gpes_core::{CompletionSet, KernelSpec, TenantQuotas};
    const WORKERS: usize = 2;
    const CAPACITY: usize = 32;
    const NOISY_TARGET: usize = 48;
    const NOISY_QUOTA: usize = 2;
    // Tries at the open quota before the flood gives up on tripping it.
    const NOISY_OPEN_TRIES: usize = 8;
    const WELL_BEHAVED: [(&str, &str); 3] = [
        ("alpha", "return 2.0 * fetch_x(idx);"),
        ("beta", "return fetch_x(idx) + 0.5;"),
        ("gamma", "return fetch_x(idx) * fetch_x(idx);"),
    ];
    const NOISY_BODY: &str = "return fetch_x(idx) - 1.0;";

    let x = data::random_f32(n, 1401, 1.0);

    // Direct no-engine references: the compiled-in path the dynamic path
    // must match bit-for-bit.
    let mut references = Vec::with_capacity(WELL_BEHAVED.len() + 1);
    {
        let mut cc = ComputeContext::new(256, 256)?;
        let gx = cc.upload(&x)?;
        for (name, body) in WELL_BEHAVED.iter().chain([("noisy", NOISY_BODY)].iter()) {
            let kernel = Kernel::builder(format!("a14_{name}_direct"))
                .input("x", &gx)
                .output(ScalarType::F32, n)
                .body(*body)
                .build(&mut cc)?;
            references.push(cc.run_f32(&kernel)?);
        }
    }
    let noisy_reference = references.pop().expect("noisy reference");

    let engine = Engine::builder()
        .workers(WORKERS)
        .queue_capacity(CAPACITY)
        .build()?;
    let registry = engine.registry();
    registry.set_quotas("noisy", TenantQuotas::default().max_in_flight(NOISY_QUOTA));

    // Dynamic registration from source — the serving-boundary path.
    let mut kernels = Vec::with_capacity(WELL_BEHAVED.len());
    for (name, body) in WELL_BEHAVED {
        kernels.push(
            registry.register(
                name,
                KernelSpec::new(format!("{name}_kernel"))
                    .input("x")
                    .output(n)
                    .body(body),
            )?,
        );
    }
    let noisy_kernel = registry.register(
        "noisy",
        KernelSpec::new("noisy_kernel")
            .input("x")
            .output(n)
            .body(NOISY_BODY),
    )?;

    // The malformed tenant's arsenal: one source per rejection stage.
    let invalid_specs = || {
        vec![
            KernelSpec::new("m_parse").output(n).body("return ((;"),
            KernelSpec::new("m_sema").output(n).body("return nope;"),
            KernelSpec::new("m_strict")
                .uniform_f32("bound", 4.0)
                .output(n)
                .body(
                    "float s = 0.0;\n\
                     for (int i = 0; float(i) < bound; i++) { s += 1.0; }\n\
                     return s;",
                ),
            KernelSpec::new("m_huge")
                .output(usize::MAX / 4)
                .body("return 1.0;"),
        ]
    };
    // Invalid attempts: (all, typed, rejected by the GLSL front end).
    let mut invalid = (0u64, 0u64, 0u64);
    let attempt_invalid = |(total, typed, front_end): &mut (u64, u64, u64)| {
        for spec in invalid_specs() {
            *total += 1;
            if let Err(ComputeError::AdmissionRejected { stage, .. }) =
                registry.register("mallory", spec)
            {
                *typed += 1;
                *front_end += u64::from(stage != gpes_core::AdmissionStage::Signature);
            }
        }
    };
    attempt_invalid(&mut invalid);

    // Warmup, a12-style: closed-loop waves until a full wave links no
    // programs and creates no GL objects on either worker. Programs link
    // once process-wide (shared cache) but pipeline GL objects are
    // per-worker, so each wave floods `2 * WORKERS` concurrent copies of
    // EACH kernel (the noisy tenant's included, paced within its quota)
    // to pull every kernel through every worker before the watermark.
    let mut wrong = vec![0u64; WELL_BEHAVED.len()];
    let mut noisy_wrong = 0u64;
    let warmup = serve_until_steady(&engine, |engine| {
        for (i, kernel) in kernels.iter().enumerate() {
            let handles: Vec<_> = (0..WORKERS * 2)
                .map(|_| engine.submit(kernel.job().data(x.clone())))
                .collect::<Result<_, _>>()?;
            for h in handles {
                if h.wait()? != references[i] {
                    wrong[i] += 1;
                }
            }
        }
        for _ in 0..WORKERS {
            // The noisy quota caps concurrency, so run extra sub-waves
            // of quota-width instead of one wide wave.
            let handles: Vec<_> = (0..NOISY_QUOTA)
                .map(|_| engine.submit(noisy_kernel.job().data(x.clone())))
                .collect::<Result<_, _>>()?;
            for h in handles {
                if h.wait()? != noisy_reference {
                    noisy_wrong += 1;
                }
            }
        }
        // Mismatches are tallied per tenant above.
        Ok(true)
    })?;
    let warm = gl_counters(&engine);
    let warm_tenants = engine.snapshot().tenants;

    // Steady phase: the noisy tenant floods from its own thread while
    // the well-behaved tenants serve their waves and the malformed
    // tenant keeps hammering admission.
    let mut quota_rejections = 0u64;
    let mut open_quota_tripped = false;
    let mut noisy_jobs = 0u64;
    std::thread::scope(|scope| -> Result<(), ComputeError> {
        let noisy = scope.spawn(|| -> Result<(u64, u64, bool, u64), ComputeError> {
            let mut set = CompletionSet::new();
            let mut accepted = 0u64;
            let mut rejections = 0u64;
            let mut wrong = 0u64;
            let mut open_tries = 0;
            let mut open_tripped = false;
            let open = TenantQuotas::default().max_in_flight(NOISY_QUOTA);
            let closed = TenantQuotas::default().max_in_flight(0);
            while (accepted as usize) < NOISY_TARGET {
                if set.len() < NOISY_QUOTA {
                    // Fewer of its jobs are outstanding than its quota,
                    // so fewer are in flight: admitted.
                    set.insert(engine.submit(noisy_kernel.job().data(x.clone()))?);
                    accepted += 1;
                    continue;
                }
                // Its quota is full: one more try, refused.
                let refused = if !open_tripped && open_tries < NOISY_OPEN_TRIES {
                    // The first is made against the quota as it stands,
                    // and must trip it. A job that finished meanwhile
                    // lets the try in; it is kept, counted as accepted,
                    // and the try made again. Each one let in also adds
                    // one try below, so the count stays put.
                    open_tries += 1;
                    match engine.try_submit(noisy_kernel.job().data(x.clone())) {
                        Ok(handle) => {
                            set.insert(handle);
                            accepted += 1;
                            continue;
                        }
                        refused => {
                            open_tripped = true;
                            refused
                        }
                    }
                } else {
                    // Later tries are made with the in-flight quota
                    // closed, as workers may have finished an
                    // outstanding job meanwhile: the flood meets its
                    // quota once per refill, however fast the workers
                    // drain it.
                    registry.set_quotas("noisy", closed);
                    let refused = engine.try_submit(noisy_kernel.job().data(x.clone()));
                    registry.set_quotas("noisy", open);
                    refused
                };
                match refused {
                    Err(ComputeError::QuotaExceeded { .. }) => rejections += 1,
                    Err(e) => return Err(e),
                    Ok(_) => unreachable!("a closed quota admits nothing"),
                }
                if let Some((_token, result)) = set.wait_any() {
                    if result? != noisy_reference {
                        wrong += 1;
                    }
                }
            }
            while let Some((_token, result)) = set.wait_any() {
                if result? != noisy_reference {
                    wrong += 1;
                }
            }
            Ok((accepted, rejections, open_tripped, wrong))
        });
        for wave in 0..wave_jobs {
            let handles: Vec<_> = kernels
                .iter()
                .map(|k| engine.submit(k.job().data(x.clone())))
                .collect::<Result<_, _>>()?;
            for (i, h) in handles.into_iter().enumerate() {
                if h.wait()? != references[i] {
                    wrong[i] += 1;
                }
            }
            if wave == wave_jobs / 2 {
                // Mid-flood: admission keeps rejecting typed while the
                // engine serves.
                attempt_invalid(&mut invalid);
            }
        }
        let (accepted, rejections, tripped, thread_wrong) =
            noisy.join().expect("noisy flood thread must not panic")?;
        noisy_jobs = accepted;
        quota_rejections = rejections;
        open_quota_tripped = tripped;
        noisy_wrong += thread_wrong;
        Ok(())
    })?;

    drain_queue(&engine);
    let after = gl_counters(&engine);
    let snapshot = engine.snapshot();

    // Join the engine's per-tenant counters with the bench's own
    // correctness tallies.
    let wrong_of = |tenant: &str| -> u64 {
        if tenant == "noisy" {
            return noisy_wrong;
        }
        WELL_BEHAVED
            .iter()
            .position(|(name, _)| *name == tenant)
            .map_or(0, |i| wrong[i])
    };
    let warm_jobs = |tenant: &str| {
        let warm = warm_tenants.iter().find(|c| c.tenant == tenant);
        warm.map_or(0, |c| c.jobs)
    };
    let rows: Vec<A14TenantRow> = snapshot
        .tenants
        .iter()
        .map(|c| A14TenantRow {
            tenant: c.tenant.clone(),
            admitted: c.admitted,
            rejected: c.rejected,
            evicted: c.evicted,
            jobs: c.jobs - warm_jobs(&c.tenant),
            wrong: wrong_of(&c.tenant),
        })
        .collect();
    let shared = snapshot.shared_cache.unwrap_or_default();
    engine.shutdown();
    let (invalid_total, invalid_typed, invalid_front_end) = invalid;
    Ok(A14Report {
        workers: WORKERS,
        queue_capacity: CAPACITY,
        wave_jobs,
        warmup_waves: warmup.waves,
        noisy_jobs,
        noisy_quota: NOISY_QUOTA,
        invalid_total,
        invalid_typed,
        invalid_front_end,
        admissions: shared.admissions,
        admission_hits: shared.admission_hits,
        quota_rejections,
        open_quota_tripped,
        post_warmup_links: after.0 - warm.0,
        post_warmup_gl_objects: after.1 - warm.1,
        snapshot,
        rows,
    })
}

/// A15 — shader executors: one per-kernel row for each execution mode
/// in the tree/spmd1/spmd4/spmd8 ladder.
#[derive(Debug, Clone)]
pub struct A15VmRow {
    /// Kernel family exercised.
    pub kernel: &'static str,
    /// Execution mode under test.
    pub mode: ExecMode,
    /// Simulated fragments per host second.
    pub fragments_per_s: Spread,
    /// Whether the run produced the same bytes as the tree-walker.
    pub identical: bool,
    /// SPMD batches dispatched (gate: > 0 for Spmd rows, 0 for tree).
    pub spmd_batches: u64,
    /// Bands/draws that fell back to scalar execution.
    pub scalar_fallbacks: u64,
}

/// A15 — one codec hot-path row: element-at-a-time vs the vectorised
/// slice path, in texels/s.
#[derive(Debug, Clone)]
pub struct A15CodecRow {
    /// Codec under test.
    pub codec: &'static str,
    /// `element` (per-value encode/decode calls) or `slice`
    /// (single-pass preallocated).
    pub path: &'static str,
    /// Round-trip throughput, texels per second.
    pub texels_per_s: Spread,
}

/// A15 — shader executors: kernel throughput ladder from the
/// tree-walking oracle through one-lane to eight-lane SPMD batches,
/// geometric-mean speedups, codec slice-path microbench, and a served
/// engine run proving the SPMD path is what production serving executes.
///
/// CI gates on the deterministic contracts — every row bit-identical to
/// the tree-walker, `spmd_batches > 0` exactly on the Spmd rows, the
/// serve row balanced and labelled with an spmd exec mode. The speedup
/// numbers are advisory (host-dependent; recorded by the baseline
/// tooling and diffed, not gated).
#[derive(Debug, Clone)]
pub struct A15Report {
    /// Per-kernel, per-mode throughput rows.
    pub vm: Vec<A15VmRow>,
    /// Geomean speedup vs `spmd1`, one entry per other mode.
    pub mix: Vec<(ExecMode, f64)>,
    /// Codec hot-path rows.
    pub codec: Vec<A15CodecRow>,
    /// The engine's reported execution mode label.
    pub serve_exec_mode: String,
    /// Jobs served in the engine run.
    pub serve_jobs: usize,
    /// Every served output bit-identical to the tree-walker reference.
    pub serve_identical: bool,
    /// Engine outcome counters balance at quiescence.
    pub serve_balanced: bool,
    /// SPMD batches the engine's workers dispatched (gate: > 0).
    pub serve_spmd_batches: u64,
    /// Scalar fallbacks across the engine's workers.
    pub serve_scalar_fallbacks: u64,
}

/// The a15 executor ladder, the mode its speedups are taken against,
/// the kernels it runs, and the mode the engine serves under.
const A15_MODES: [ExecMode; 4] = [
    ExecMode::TreeWalker,
    ExecMode::Spmd { lanes: 1 },
    ExecMode::Spmd { lanes: 4 },
    ExecMode::Spmd { lanes: 8 },
];
const A15_BASELINE: ExecMode = ExecMode::Spmd { lanes: 1 };
const A15_KERNELS: [&str; 2] = ["sum (fp)", "sgemm (fp)"];
const A15_SERVE_MODE: ExecMode = ExecMode::Spmd { lanes: 8 };
/// `sum (fp)` on sign-uniform inputs (`|a|`, `|b|`), run at
/// [`A15_SERVE_MODE`] only: next to the sign-mixed row it shows what the
/// f32 codec's sign branch costs a diverging lane batch. Not in the mix.
const A15_SAME_SIGN_SUM: &str = "sum (fp, same sign)";
/// servebench's tenant kernel (one f32 input through the f32 codec, a
/// one-line body) on ±25 inputs, the request both tenant workloads
/// shade: the VM layer their throughput moves with. Not in the mix.
const A15_TENANT: &str = "tenant";
/// servebench's tenant kernel number `source`, as its `tenant_spec`
/// registers it: the baked scale and offset make every number's
/// generated source distinct. The a15 `tenant` rows shade number 5, and
/// the glsl crate's instruction-count fixture is its fragment shader.
pub fn tenant_spec(source: u64, n: usize) -> gpes_core::KernelSpec {
    let scale = 1.0 + (source % 4096) as f32 / 4096.0;
    let offset = (source / 4096) as f32;
    gpes_core::KernelSpec::new(format!("tenant_{source}"))
        .input("x")
        .output(n)
        .body(format!("return fetch_x(idx) * {scale:?} + {offset:?};"))
}
/// The executors the tenant rows run under.
const A15_TENANT_MODES: [ExecMode; 3] = [
    ExecMode::TreeWalker,
    ExecMode::Spmd { lanes: 1 },
    ExecMode::Spmd { lanes: 8 },
];
/// One a15 VM row's measurement: output and counters after the warm-up
/// run, and fragments/s.
type VmRun = Result<((Vec<f32>, ContextStats), Spread), ComputeError>;

impl Report for A15Report {
    /// Throughputs and speedups are host timing, hence advisory.
    fn records(&self) -> Vec<Record> {
        let vm = self.vm.iter().map(|r| {
            let record = Record::new("a15")
                .key("row", "vm")
                .key("kernel", r.kernel)
                .key("mode", r.mode.label())
                .exact("identical", r.identical)
                .exact("spmd_batches", r.spmd_batches)
                .exact("fallbacks", r.scalar_fallbacks);
            r.fragments_per_s.advise(record, "fragments_per_sec")
        });
        let mix = self.mix.iter().map(|(mode, speedup)| {
            Record::new("a15")
                .key("row", "mix")
                .key("mode", mode.label())
                .advisory("geomean_speedup", *speedup)
        });
        let codec = self.codec.iter().map(|r| {
            let record = Record::new("a15")
                .key("row", "codec")
                .key("format", r.codec)
                .key("path", r.path);
            r.texels_per_s.advise(record, "texels_per_sec")
        });
        let serve = Record::new("a15")
            .key("row", "serve")
            .exact("exec_mode", self.serve_exec_mode.as_str())
            .exact("jobs", self.serve_jobs)
            .exact("identical", self.serve_identical)
            .exact("balanced", self.serve_balanced)
            .exact("spmd_batches", self.serve_spmd_batches)
            .exact("fallbacks", self.serve_scalar_fallbacks);
        vm.chain(mix).chain(codec).chain([serve]).collect()
    }

    /// Every executor row is bit-identical to the tree-walker, SPMD rows
    /// batch and the tree row never does, and the engine serves under an
    /// SPMD mode — balanced, bit-identical and batching.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let ladder = A15_KERNELS
            .into_iter()
            .flat_map(|k| A15_MODES.map(|m| (k, m)));
        let tenant = A15_TENANT_MODES.map(|m| (A15_TENANT, m));
        for (kernel, mode) in ladder
            .chain([(A15_SAME_SIGN_SUM, A15_SERVE_MODE)])
            .chain(tenant)
        {
            require!(
                v,
                self.vm.iter().any(|r| r.kernel == kernel && r.mode == mode),
                "a15: {kernel} {}: row missing",
                mode.label()
            );
        }
        for row in &self.vm {
            let at = format!("a15: {} {}", row.kernel, row.mode.label());
            require!(
                v,
                row.fragments_per_s.median.total_cmp(&0.0).is_gt(),
                "{at}: no fragment throughput measured"
            );
            require!(
                v,
                row.identical,
                "{at}: output or profile diverged from the tree-walker"
            );
            let spmd = matches!(row.mode, ExecMode::Spmd { .. });
            require!(
                v,
                !spmd || row.spmd_batches > 0,
                "{at}: an SPMD mode never dispatched a lane batch"
            );
            require!(
                v,
                spmd || row.spmd_batches == 0,
                "{at}: {} SPMD batches on the tree-walker, contract is 0",
                row.spmd_batches
            );
        }
        require!(
            v,
            self.mix.len() == A15_MODES.len() - 1,
            "a15: {} geomean speedup rows, contract is one per mode other than {}",
            self.mix.len(),
            A15_BASELINE.label()
        );
        for codec in ["float32", "u16"] {
            for path in ["element", "slice"] {
                require!(
                    v,
                    self.codec
                        .iter()
                        .any(|r| r.codec == codec && r.path == path && r.texels_per_s.median > 0.0),
                    "a15: codec {codec} {path}: row missing or no throughput measured"
                );
            }
        }
        let serve_mode = A15_SERVE_MODE.label();
        require!(
            v,
            self.serve_exec_mode == serve_mode,
            "a15: serving ran under exec_mode {}, contract is {serve_mode}",
            self.serve_exec_mode
        );
        require!(
            v,
            self.serve_identical,
            "a15: a served output diverged from the tree-walker reference"
        );
        require!(
            v,
            self.serve_balanced,
            "a15: serving outcome counters do not balance"
        );
        require!(
            v,
            self.serve_spmd_batches > 0,
            "a15: the serving engine never dispatched a lane batch"
        );
        v
    }
}

/// Runs A15: a kernel mix (`sum (fp)` codec-heavy, `sgemm (fp)`
/// loop-heavy) timed under `TreeWalker`, `Spmd{1}`, `Spmd{4}` and
/// `Spmd{8}`, plus `sum (fp)` on sign-uniform inputs under `Spmd{8}`
/// and servebench's tenant kernel under `TreeWalker`, `Spmd{1}` and
/// `Spmd{8}`.
/// Each row is one warm-up run, whose output is checked bit-for-bit
/// against a separate tree-walker oracle run and whose
/// `spmd_batches`/`scalar_fallbacks` counters it reports, then the
/// median of `timed_runs` timed runs ([`TIMED_RUNS`] in `reproduce`);
/// the float32 and u16 codec round trips element-wise vs sliced; and a
/// 2-worker engine wave under `Spmd{8}` whose snapshot must balance,
/// report an spmd label, and show nonzero SPMD batches.
///
/// # Errors
///
/// Propagates simulator/engine failures.
pub fn a15_spmd(n: usize, jobs: usize, timed_runs: usize) -> Result<A15Report, ComputeError> {
    use gpes_core::codec::{float32, ushort};

    // --- Executor ladder over the kernel mix ----------------------------
    let a = data::random_f32(n, 501, 100.0);
    let b = data::random_f32(n, 502, 100.0);
    let a_abs: Vec<f32> = a.iter().map(|v| v.abs()).collect();
    let b_abs: Vec<f32> = b.iter().map(|v| v.abs()).collect();
    let side = 32usize;
    let ma = data::random_f32(side * side, 503, 2.0);
    let mb = data::random_f32(side * side, 504, 2.0);
    let mc = data::random_f32(side * side, 505, 2.0);

    // The output and counters come from the warm-up run, the rate from
    // the timed runs, all on the context the kernel was built on.
    let time_runs = |cc: &mut ComputeContext, k: &Kernel, fragments: usize| -> VmRun {
        warm_median_run(timed_runs, fragments, || Ok((cc.run_f32(k)?, cc.stats())))
    };
    let run_sum = |mode: ExecMode, a: &[f32], b: &[f32]| -> VmRun {
        let mut cc = ComputeContext::new(256, 256)?;
        cc.set_exec_mode(mode);
        cc.set_dispatch(Dispatch::Serial);
        let ga = cc.upload(a)?;
        let gb = cc.upload(b)?;
        let k = gpes_kernels::sum::build_f32(&mut cc, &ga, &gb)?;
        time_runs(&mut cc, &k, n)
    };
    let run_gemm = |mode: ExecMode| -> VmRun {
        let mut cc = ComputeContext::new(64, 64)?;
        cc.set_exec_mode(mode);
        cc.set_dispatch(Dispatch::Serial);
        let ga = cc.upload_matrix(side as u32, side as u32, &ma)?;
        let gb = cc.upload_matrix(side as u32, side as u32, &mb)?;
        let gc = cc.upload_matrix(side as u32, side as u32, &mc)?;
        let k = gpes_kernels::sgemm::build_f32(&mut cc, &ga, &gb, &gc, 1.0, 0.5)?;
        time_runs(&mut cc, &k, side * side)
    };

    // servebench's tenant kernel 5 over its 256 ±25 inputs.
    let tenant_x = data::random_f32(256, 506, 25.0);
    let run_tenant = |mode: ExecMode| -> VmRun {
        let mut cc = ComputeContext::new(16, 16)?;
        cc.set_exec_mode(mode);
        cc.set_dispatch(Dispatch::Serial);
        let gx = cc.upload(&tenant_x)?;
        let k = tenant_spec(5, tenant_x.len()).build(&mut cc, &[gx])?;
        time_runs(&mut cc, &k, tenant_x.len())
    };

    type KernelRun<'r> = &'r dyn Fn(ExecMode) -> VmRun;
    let mut vm = Vec::new();
    let sum_mixed = |mode| run_sum(mode, &a, &b);
    let sum_same_sign = |mode| run_sum(mode, &a_abs, &b_abs);
    let kernels: [(&'static str, KernelRun, &[ExecMode]); 4] = [
        (A15_KERNELS[0], &sum_mixed, &A15_MODES),
        (A15_SAME_SIGN_SUM, &sum_same_sign, &[A15_SERVE_MODE]),
        (A15_KERNELS[1], &run_gemm, &A15_MODES),
        (A15_TENANT, &run_tenant, &A15_TENANT_MODES),
    ];
    for (kernel, run, modes) in kernels {
        let ((oracle, _), _) = run(ExecMode::TreeWalker)?;
        for &mode in modes {
            let ((out, stats), fragments_per_s) = run(mode)?;
            vm.push(A15VmRow {
                kernel,
                mode,
                fragments_per_s,
                identical: out == oracle,
                spmd_batches: stats.spmd_batches,
                scalar_fallbacks: stats.scalar_fallbacks,
            });
        }
    }
    let rates = |mode: ExecMode| {
        vm.iter()
            .filter(move |r| r.mode == mode && A15_KERNELS.contains(&r.kernel))
            .map(|r| r.fragments_per_s.median)
    };
    let mix: Vec<(ExecMode, f64)> = A15_MODES
        .into_iter()
        .filter(|&mode| mode != A15_BASELINE)
        .map(|mode| {
            let logsum: f64 = rates(mode)
                .zip(rates(A15_BASELINE))
                .map(|(r, base)| (r / base).ln())
                .sum();
            (mode, (logsum / A15_KERNELS.len() as f64).exp())
        })
        .collect();

    // --- Codec hot paths: element-at-a-time vs vectorised slice ---------
    // One round trip is tens of microseconds, so each row takes the
    // median of more timed runs than the executor rows.
    let codec_runs = 32;
    let floats = data::random_f32(n, 511, 1.0e9);
    let shorts: Vec<u16> = data::random_u32(n, 512, u16::MAX as u32 + 1)
        .into_iter()
        .map(|v| v as u16)
        .collect();
    let mut codec = Vec::new();
    let mut row = |name, path, texels_per_s| {
        codec.push(A15CodecRow {
            codec: name,
            path,
            texels_per_s,
        })
    };

    // float32: one value per RGBA texel, both directions.
    let (_, rate) = warm_median_run(codec_runs, n, || {
        let bytes: Vec<u8> = floats.iter().flat_map(|&v| float32::encode(v)).collect();
        Ok(bytes
            .chunks_exact(4)
            .map(|px| float32::decode([px[0], px[1], px[2], px[3]]))
            .collect::<Vec<f32>>())
    })?;
    row("float32", "element", rate);
    let (_, rate) = warm_median_run(codec_runs, n, || {
        Ok(float32::decode_slice(&float32::encode_slice(&floats, n), n))
    })?;
    row("float32", "slice", rate);

    // u16: one value per (L, A) texel up, (R, A) gather back.
    let fb: Vec<u8> = shorts
        .iter()
        .flat_map(|&v| {
            let [lo, hi] = v.to_le_bytes();
            [lo, 0, 0, hi]
        })
        .collect();
    let (_, rate) = warm_median_run(codec_runs, n, || {
        let bytes: Vec<u8> = shorts.iter().flat_map(|&v| ushort::encode(v)).collect();
        let back: Vec<u16> = fb
            .chunks_exact(4)
            .map(|px| ushort::decode([px[0], px[3]]))
            .collect();
        Ok((bytes, back))
    })?;
    row("u16", "element", rate);
    let (_, rate) = warm_median_run(codec_runs, n, || {
        Ok((
            ushort::encode_slice(&shorts, n),
            ushort::decode_slice(&fb, n),
        ))
    })?;
    row("u16", "slice", rate);

    // --- Served wave under Spmd{8} --------------------------------------
    use gpes_core::{Bindings, Job};
    use std::sync::Arc;
    let specs = a10_specs(n);
    let x: Arc<Vec<f32>> = Arc::new(data::random_f32(n, 521, 25.0));
    let y: Arc<Vec<f32>> = Arc::new(data::random_f32(n, 522, 25.0));
    let mut cc = ComputeContext::new(256, 256)?;
    cc.set_exec_mode(ExecMode::TreeWalker);
    let gx = cc.upload(x.as_slice())?;
    let gy = cc.upload(y.as_slice())?;
    let mut expected: Vec<Vec<f32>> = Vec::new();
    for spec in &specs {
        let k = spec.build(&mut cc, &[gx, gy])?;
        let out: gpes_core::GpuArray<f32> = cc.run_to_array_with(&k, &Bindings::new())?;
        expected.push(cc.read_array(&out, Readback::DirectFbo)?);
        cc.recycle_array(out);
    }
    let engine = Engine::builder()
        .workers(2)
        .exec_mode(A15_SERVE_MODE)
        .build()?;
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            engine.submit(
                Job::new(&specs[i % specs.len()])
                    .data_shared(&x)
                    .data_shared(&y),
            )
        })
        .collect::<Result<_, _>>()?;
    let mut serve_identical = true;
    for (i, h) in handles.into_iter().enumerate() {
        serve_identical &= h.wait()? == expected[i % specs.len()];
    }
    let snapshot = engine.snapshot();
    engine.shutdown();

    Ok(A15Report {
        vm,
        mix,
        codec,
        serve_exec_mode: snapshot.exec_mode.clone(),
        serve_jobs: jobs,
        serve_identical,
        serve_balanced: snapshot.counters_balanced(),
        serve_spmd_batches: snapshot.context.spmd_batches,
        serve_scalar_fallbacks: snapshot.context.scalar_fallbacks,
    })
}

/// A16 — one per-layer accounting row from the quantized graph's direct
/// (non-engine) run.
#[derive(Debug, Clone)]
pub struct A16LayerRow {
    /// Pass (kernel) name, e.g. `cnn_conv1_quant`.
    pub pass: String,
    /// Texels rendered by the pass.
    pub output_texels: u64,
    /// Fragment-stage operations per output texel (deterministic in the
    /// simulator).
    pub ops_per_texel: f64,
}

/// A16 — one served-path row: the quantized CNN vs its f32 twin at a
/// given worker count.
#[derive(Debug, Clone)]
pub struct A16PathRow {
    /// `quant` or `f32`.
    pub precision: &'static str,
    /// Engine worker count.
    pub workers: usize,
    /// Inferences per measured wave.
    pub jobs: usize,
    /// Host wall time of the steady wave, milliseconds.
    pub host_ms: f64,
    /// Served inferences per host second.
    pub images_per_s: f64,
    /// Every served output bit-identical to the host reference.
    pub identical: bool,
    /// Engine outcome counters balance at quiescence.
    pub balanced: bool,
    /// Programs linked after the warmup wave (must be 0).
    pub post_warmup_links: u64,
    /// GL objects created after the warmup wave (must be 0).
    pub post_warmup_gl_objects: u64,
    /// `f32` tensors that crossed the host boundary in the steady wave,
    /// all workers (gate: 0 on the quantized path). Warm-up waves, whose
    /// number depends on which worker picks up which job, and the
    /// per-worker weight uploads they make are not counted.
    pub f32_transfers: u64,
    /// Quantized (u8/i16) tensors that crossed the host boundary in the
    /// steady wave.
    pub quant_transfers: u64,
}

/// A16 — end-to-end quantized CNN inference as a served workload: u8
/// activations and i16 weights flow GPU-side through every layer, with
/// per-layer pass accounting and a quant-vs-f32 throughput ablation at
/// 1/2/4 workers.
///
/// CI gates on the deterministic contracts: bit-identity to the host
/// reference on every row, balanced counters, zero post-warmup
/// links/objects, **zero f32 host transfers in the steady wave on the
/// quantized rows** (and nonzero quantized transfers), nonzero f32
/// transfers on the f32 rows.
/// The images/s column is advisory on shared single-core CI hosts.
#[derive(Debug, Clone)]
pub struct A16Report {
    /// Per-layer accounting of the quantized graph (direct run).
    pub layers: Vec<A16LayerRow>,
    /// Served path rows, quant and f32 at each worker count.
    pub paths: Vec<A16PathRow>,
}

/// The a16 precisions, and the worker counts each is served at.
const A16_PRECISIONS: [&str; 2] = ["quant", "f32"];
const A16_WORKERS: [usize; 3] = [1, 2, 4];

impl Report for A16Report {
    /// Layers are keyed by position: the two reduction levels share one
    /// kernel name.
    fn records(&self) -> Vec<Record> {
        let config = Record::new("a16")
            .key("row", "config")
            .exact("img_side", gpes_kernels::cnn::IMG_SIDE)
            .exact(
                "conv_layers",
                self.layers
                    .iter()
                    .filter(|l| l.pass.contains("conv"))
                    .count(),
            )
            .exact("dense_inputs", gpes_kernels::cnn::DENSE_INPUTS)
            .exact("dense_outputs", gpes_kernels::cnn::DENSE_OUTPUTS);
        let layers = self.layers.iter().enumerate().map(|(i, r)| {
            Record::new("a16")
                .key("row", "layer")
                .key("index", i)
                .exact("pass", r.pass.as_str())
                .exact("output_texels", r.output_texels)
                .exact("ops_per_texel", r.ops_per_texel)
        });
        let paths = self.paths.iter().map(|r| {
            Record::new("a16")
                .key("row", "path")
                .key("precision", r.precision)
                .key("workers", r.workers)
                .exact("jobs", r.jobs)
                .advisory("host_ms", r.host_ms)
                .advisory("images_per_sec", r.images_per_s)
                .exact("identical", r.identical)
                .exact("balanced", r.balanced)
                .exact("post_warmup_links", r.post_warmup_links)
                .exact("post_warmup_gl_objects", r.post_warmup_gl_objects)
                .exact("f32_transfers", r.f32_transfers)
                .exact("quant_transfers", r.quant_transfers)
        });
        std::iter::once(config).chain(layers).chain(paths).collect()
    }

    /// Every precision is served at every worker count bit-identically,
    /// balanced, in a zero-link zero-allocation steady state; quant rows
    /// cross the host boundary only in native u8/i16 codecs while the f32
    /// twin proves the transfer counter fires.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        require!(v, !self.layers.is_empty(), "a16: no per-layer rows");
        for precision in A16_PRECISIONS {
            for workers in A16_WORKERS {
                let at = format!("a16: {precision} @ {workers} workers");
                let Some(row) = self
                    .paths
                    .iter()
                    .find(|r| r.precision == precision && r.workers == workers)
                else {
                    v.push(format!("{at}: row missing"));
                    continue;
                };
                require!(v, row.jobs > 0, "{at}: served no jobs");
                require!(
                    v,
                    row.identical,
                    "{at}: served scores/top diverged from the host reference"
                );
                require!(
                    v,
                    row.balanced,
                    "{at}: serving outcome counters do not balance"
                );
                require!(
                    v,
                    row.post_warmup_links == 0,
                    "{at}: {} post-warmup links, contract is 0 for steady-state CNN serving",
                    row.post_warmup_links
                );
                require!(
                    v,
                    row.post_warmup_gl_objects == 0,
                    "{at}: {} GL objects created in the steady-state wave, contract is 0",
                    row.post_warmup_gl_objects
                );
                if precision == "quant" {
                    require!(
                        v,
                        row.f32_transfers == 0,
                        "{at}: {} f32 host transfers on the quantized path, contract is 0 \
                         (tensors must cross as native u8/i16)",
                        row.f32_transfers
                    );
                    require!(
                        v,
                        row.quant_transfers > 0,
                        "{at}: zero quantized host transfers — the native-codec path was never \
                         exercised"
                    );
                } else {
                    require!(
                        v,
                        row.f32_transfers > 0,
                        "{at}: zero f32 host transfers on the f32 twin — the counter never \
                         discriminated the paths"
                    );
                }
            }
        }
        v
    }
}

/// Runs A16: the [`gpes_kernels::cnn`] graph once directly for per-layer
/// accounting, then served waves of `jobs` inferences on 1/2/4-worker
/// engines at both precisions, with the i16 weights uploaded once per
/// worker as [`gpes_core::ResidentInput`]s and per-request u8 images
/// entering (and i16 scores leaving) through the typed tensor path.
///
/// # Errors
///
/// Propagates simulator/engine failures.
pub fn a16_quant_cnn(jobs: usize) -> Result<A16Report, ComputeError> {
    use gpes_core::{PipelineJob, ResidentInput, SourceSeed, TensorData};
    use gpes_kernels::cnn::{self, CnnOutput, Precision};
    use std::sync::Arc;

    const IMAGES: usize = 4;
    let side = cnn::IMG_SIDE as usize;
    let weights = cnn::CnnWeights::demo(1601);
    let images: Vec<Vec<u8>> = (0..IMAGES)
        .map(|i| data::random_u8(side * side, 1610 + i as u64, 255))
        .collect();
    let references: Vec<CnnOutput> = images
        .iter()
        .map(|img| cnn::cpu_reference(img, &weights, PackBias::default()))
        .collect();

    // ---- direct run: per-layer pass accounting ------------------------
    let mut layers = Vec::new();
    {
        let mut cc = ComputeContext::new(64, 64)?;
        let spec = cnn::pipeline_spec(Precision::Quantized)?;
        let served = spec.build(&mut cc)?;
        let (t1, t2, td) = cnn::weight_tensors(Precision::Quantized, &weights);
        let w1 = cc.upload_any(&t1)?;
        let w2 = cc.upload_any(&t2)?;
        let wd = cc.upload_any_matrix(cnn::DENSE_OUTPUTS as u32, cnn::DENSE_INPUTS as u32, &td)?;
        let img = cc.upload_any_matrix(
            cnn::IMG_SIDE,
            cnn::IMG_SIDE,
            &cnn::img_tensor(Precision::Quantized, &images[0]),
        )?;
        let seeds = [
            SourceSeed::any("img", &img),
            SourceSeed::any("w1", &w1),
            SourceSeed::any("w2", &w2),
            SourceSeed::any("wd", &wd),
        ];
        // Warmup run (pool allocations), then the accounted run.
        for accounted in [false, true] {
            let run = served.pipeline().run_seeded(&mut cc, &seeds)?;
            let scores = run.read_any(&mut cc, "scores")?;
            let top = run.read_any(&mut cc, "top")?;
            run.finish(&mut cc);
            let log = cc.take_pass_log();
            if !accounted {
                continue;
            }
            let direct = CnnOutput {
                scores: scores.as_i16().unwrap_or(&[]).to_vec(),
                top: top.as_i16().unwrap_or(&[0])[0],
            };
            if direct != references[0] {
                return Err(ComputeError::BadKernel {
                    message: "a16 direct quantized run diverged from the host reference".into(),
                });
            }
            layers.extend(log.iter().map(|r| A16LayerRow {
                pass: r.kernel.clone(),
                output_texels: r.output_texels,
                ops_per_texel: r.ops_per_texel(),
            }));
        }
    }

    // ---- served waves: quant vs f32 at 1/2/4 workers ------------------
    let mut paths = Vec::new();
    for precision in [Precision::Quantized, Precision::F32] {
        let spec = Arc::new(cnn::pipeline_spec(precision)?);
        let (t1, t2, td) = cnn::weight_tensors(precision, &weights);
        let image_tensors: Vec<Arc<TensorData>> = images
            .iter()
            .map(|img| Arc::new(cnn::img_tensor(precision, img)))
            .collect();
        for workers in A16_WORKERS {
            // Fresh residents per engine so each run pays (and counts)
            // its own per-worker weight uploads.
            let r1 = ResidentInput::new_tensor(t1.clone());
            let r2 = ResidentInput::new_tensor(t2.clone());
            let rd = ResidentInput::new_tensor(td.clone());
            let engine = Engine::builder().workers(workers).build()?;
            let wave = serve_until_steady(&engine, |engine| {
                let handles: Vec<_> = (0..jobs)
                    .map(|i| {
                        engine.submit(
                            PipelineJob::new(&spec)
                                .source_tensor_shared(&image_tensors[i % IMAGES])
                                .source_resident(&r1)
                                .source_resident(&r2)
                                .source_resident(&rd)
                                .read("scores")
                                .read("top"),
                        )
                    })
                    .collect::<Result<_, _>>()?;
                let mut identical = true;
                for (i, h) in handles.into_iter().enumerate() {
                    let result = h.wait()?;
                    let served = match precision {
                        Precision::Quantized => CnnOutput {
                            scores: result
                                .tensor("scores")
                                .and_then(|t| t.as_i16())
                                .unwrap_or(&[])
                                .to_vec(),
                            top: result
                                .tensor("top")
                                .and_then(|t| t.as_i16())
                                .unwrap_or(&[0])[0],
                        },
                        Precision::F32 => CnnOutput {
                            scores: result
                                .output("scores")
                                .unwrap_or(&[])
                                .iter()
                                .map(|&v| v as i16)
                                .collect(),
                            top: result.output("top").unwrap_or(&[0.0])[0] as i16,
                        },
                    };
                    identical &= served == references[i % IMAGES];
                }
                Ok(identical)
            })?;
            let snapshot = engine.snapshot();
            engine.shutdown();
            paths.push(A16PathRow {
                precision: precision.tag(),
                workers,
                jobs,
                host_ms: wave.host_ms,
                images_per_s: jobs as f64 / (wave.host_ms / 1e3),
                identical: wave.identical,
                balanced: snapshot.counters_balanced(),
                post_warmup_links: wave.post_warmup_links,
                post_warmup_gl_objects: wave.post_warmup_gl_objects,
                f32_transfers: wave.host_transfers.0,
                quant_transfers: wave.host_transfers.1,
            });
        }
    }

    Ok(A16Report { layers, paths })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `report` holds its contract, then that each mutation —
    /// one contract field flipped or one required row dropped — makes
    /// `violations()` fail: the gate can fail.
    fn assert_gate<R: Report + Clone>(report: &R, mutations: &[fn(&mut R)]) {
        assert!(!report.records().is_empty());
        let violations = report.violations();
        assert!(violations.is_empty(), "{violations:#?}");
        for (i, mutate) in mutations.iter().enumerate() {
            let mut broken = report.clone();
            mutate(&mut broken);
            assert!(
                !broken.violations().is_empty(),
                "mutation {i} passed the gate"
            );
        }
    }

    #[test]
    fn a16_quant_cnn_serves_bit_identically_without_f32_round_trips() {
        assert_gate(
            &a16_quant_cnn(8).expect("a16"),
            &[
                |r| r.paths[0].f32_transfers = 1,
                |r| r.paths[0].quant_transfers = 0,
                |r| r.paths[5].f32_transfers = 0,
                |r| r.paths[1].identical = false,
                |r| r.paths[2].post_warmup_gl_objects = 1,
                |r| r.paths[3].jobs = 0,
                |r| r.paths.truncate(5),
                |r| r.layers.clear(),
            ],
        );
    }

    #[test]
    fn a13_chaos_heals_without_corruption_or_hangs() {
        assert_gate(
            &a13_chaos(256, 32).expect("a13"),
            &[
                |r| r.rows[1].wrong = 1,
                |r| r.rows[2].hung = true,
                |r| r.rows[0].snapshot.recovered_contexts = 0,
                |r| r.rows[3].snapshot.completed += 1,
                |r| r.rows.iter_mut().for_each(|row| row.snapshot.retried = 0),
                |r| {
                    r.rows
                        .iter_mut()
                        .for_each(|row| row.snapshot.faults_injected = 0)
                },
                |r| r.rows.truncate(3),
            ],
        );
    }

    #[test]
    fn a14_registry_isolates_tenants() {
        assert_gate(
            &a14_registry(256, 12).expect("a14"),
            &[
                |r| r.invalid_typed -= 1,
                |r| {
                    // A run that tried only the first round of invalid sources.
                    r.invalid_total = 4;
                    r.invalid_typed = 4;
                    let mallory = r.rows.iter_mut().find(|t| t.tenant == "mallory");
                    mallory.expect("mallory row").rejected = 4;
                },
                // A registry that memoised mallory's three front-end
                // rejections, counted as hits or not counted at all.
                |r| r.admissions -= 3,
                |r| {
                    r.admissions -= 3;
                    r.admission_hits = 3;
                },
                |r| r.quota_rejections = 0,
                |r| r.open_quota_tripped = false,
                |r| r.post_warmup_links = 1,
                |r| r.post_warmup_gl_objects = 1,
                |r| r.rows[0].wrong = 1,
                |r| r.rows[0].admitted = 2,
                // Jobs counted from before the steady phase.
                |r| r.rows[0].jobs += 4,
                |r| {
                    let noisy = r.rows.iter_mut().find(|t| t.tenant == "noisy");
                    noisy.expect("noisy row").jobs += 4;
                },
                |r| r.rows.retain(|t| t.tenant != "mallory"),
                |r| r.snapshot.tenants[0].in_flight = 1,
            ],
        );
    }

    #[test]
    fn a12_saturation_balances_counters_and_stays_steady() {
        assert_gate(
            &a12_latency_under_load(256, 48).expect("a12"),
            &[
                |r| r.identical = false,
                |r| r.post_warmup_links = 1,
                |r| r.post_warmup_gl_objects = 1,
                |r| r.snapshot.submitted += 1,
                |r| r.snapshot.queue_depth_high_water = 9,
                |r| r.snapshot.service_latency = gpes_core::LatencyHistogram::new(),
            ],
        );
    }

    #[test]
    fn a11_engine_pipelines_are_identical_and_reach_steady_state() {
        fn mode_row<'a>(rows: &'a mut [A11Row], mode: &str) -> &'a mut A11Row {
            rows.iter_mut().find(|r| r.mode == mode).expect("row")
        }
        assert_gate(
            &a11_pipeline_serving().expect("a11"),
            &[
                |r| r[0].identical = false,
                |r| mode_row(r, "engine-pipeline").post_warmup_links = 1,
                |r| mode_row(r, "engine-pipeline").post_warmup_gl_objects = 1,
                |r| mode_row(r, "per-pass").post_warmup_links = 1,
                |r| mode_row(r, "per-pass").post_warmup_gl_objects = 64,
                |r| r.retain(|row| row.mode != "engine-pipeline" || row.workers != 4),
                |r| r.retain(|row| row.mode != "direct"),
                |r| r.retain(|row| row.mode != "per-pass" || row.workers != 4),
                |r| r[0].jobs = 0,
            ],
        );
    }

    #[test]
    fn a10_shared_cache_links_once_process_wide() {
        // Rows run hot3 at 1/2/4 workers, then wide24 at 1/4, shared
        // before per-context at each.
        assert_gate(
            &a10_serving(512, 12).expect("a10"),
            &[
                |r| r[0].links = 4,
                |r| r[2].post_warmup_links = 1,
                |r| r[1].links = 2,
                |r| r.retain(|row| row.mix != "wide24" || row.cache != "shared"),
                |r| r.retain(|row| row.cache != "per-context" || row.workers != 2),
                |r| r[0].mix = "hot4",
            ],
        );
    }

    #[test]
    fn a9_retained_mode_compiles_nothing_in_the_loop() {
        // Rows pair rebuild/pass then retained for srad, reduce, fft.
        assert_gate(
            &a9_host_cache(512, 4).expect("a9"),
            &[
                |r| r[1].programs_linked = 3,
                |r| r[3].pool_hits = 0,
                |r| r[5].textures_created = r[4].textures_created,
                |r| r.truncate(4),
            ],
        );
    }

    #[test]
    fn a15_spmd_is_identical_and_actually_batches() {
        // vm rows run tree/spmd1/spmd4/spmd8 for sum, spmd8 for the
        // same-sign sum, then tree/spmd1/spmd4/spmd8 for sgemm.
        assert_gate(
            &a15_spmd(512, 12, 1).expect("a15"),
            &[
                |r| r.vm[1].identical = false,
                |r| r.vm[4].identical = false,
                |r| r.vm.retain(|row| row.kernel != A15_SAME_SIGN_SUM),
                |r| r.vm[0].spmd_batches = 1,
                |r| r.vm[2].spmd_batches = 0,
                |r| r.vm.retain(|row| row.mode != ExecMode::Spmd { lanes: 1 }),
                |r| r.vm.retain(|row| row.kernel != "sgemm (fp)"),
                |r| r.vm[5].fragments_per_s.median = 0.0,
                |r| r.mix.clear(),
                |r| r.codec.truncate(3),
                |r| r.codec[1].texels_per_s.median = 0.0,
                |r| r.serve_exec_mode = "spmd4".into(),
                |r| r.serve_identical = false,
                |r| r.serve_balanced = false,
                |r| r.serve_spmd_batches = 0,
            ],
        );
    }

    #[test]
    fn a1_bias_rounding_interaction() {
        use gpes_gles2::StoreRounding as SR;
        let rows = a1_pack_bias().expect("a1");
        assert_eq!(rows.len(), 6);
        for row in &rows {
            let expect_broken = row.bias == PackBias::HalfTexel && row.rounding == SR::Nearest;
            if expect_broken {
                // (b+0.5)/255 sits exactly on the round-to-nearest
                // boundary: every byte except 255 shifts up by one.
                assert_eq!(row.mismatches, 255, "{}", row.format());
            } else {
                assert_eq!(row.mismatches, 0, "{}", row.format());
            }
        }
        // Margins: half-texel 0.5, quarter-texel 0.25, paper δ ≈ 0.0039.
        let margin = |bias| {
            rows.iter()
                .find(|r| r.bias == bias)
                .expect("row")
                .min_margin
        };
        assert!(margin(PackBias::HalfTexel) > 0.4);
        assert!((0.2..0.3).contains(&margin(PackBias::QuarterTexel)));
        assert!(margin(PackBias::PaperDelta) < 0.01);
    }

    #[test]
    fn a4_all_readback_paths_agree() {
        let result = a4_readback(500).expect("a4");
        assert!(result.all_equal);
        assert_eq!(result.direct_passes, 1);
        assert_eq!(result.copy_shader_passes, 2, "kernel + copy pass");
    }

    #[test]
    fn a3_produces_throughput_numbers() {
        let rows = a3_dispatch(2048).expect("a3");
        // sum under 3 dispatch modes, then 3 fills and 2 saxpy stages
        // under serial and auto.
        assert_eq!(rows.len(), 3 + 2 * (3 + 2));
        for row in rows {
            let rate = row.fragments_per_s;
            assert!(0.0 < rate.min && rate.min <= rate.median && rate.median <= rate.max);
        }
    }

    #[test]
    fn a6_half_float_is_not_enough() {
        let rows = a6_half_float(512).expect("a6");
        assert_eq!(rows.len(), 3);
        let exact = &rows[0];
        let vc4 = &rows[1];
        let fp16 = &rows[2];
        // Paper path on an exact GPU: bit-exact.
        assert_eq!(exact.min_bits, 23, "{}", exact.format_row());
        // Paper path on the VideoCore-like model: ≈15 bits (§V).
        assert!((12..23).contains(&vc4.min_bits), "{}", vc4.format_row());
        // fp16 extension: ≤10 bits of mantissa and not core ES 2 —
        // "neither enough nor portable".
        assert!(fp16.min_bits <= 10, "{}", fp16.format_row());
        assert!(
            fp16.mean_bits < vc4.mean_bits,
            "fp16 must be worse than the paper path"
        );
        assert!(!fp16.core_es2 && exact.core_es2);
        assert!(fp16.max_magnitude < 1.0e5);
    }

    #[test]
    fn a7_packing_reduces_per_value_work() {
        let rows = a7_channel_packing(512).expect("a7");
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.correct, "{}", row.format_row());
        }
        // Packed variants shade fewer fragments per value…
        assert!(rows[1].invocations_per_value < rows[0].invocations_per_value * 0.3);
        assert!(rows[3].invocations_per_value < rows[2].invocations_per_value * 0.6);
        // …and fetch fewer texels per value.
        assert!(rows[1].fetches_per_value < rows[0].fetches_per_value);
        assert!(rows[3].fetches_per_value < rows[2].fetches_per_value);
    }

    #[test]
    fn a5_both_formats_compute_correctly() {
        let rows = a5_strzodka_baseline(501).expect("a5");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.correct, "{}", row.format_row());
            assert!(row.alu_ops_per_value > 0.0);
        }
        // The §VI trade-off table.
        let paper = &rows[0];
        let baseline = &rows[1];
        assert!(paper.memcpy_compatible && !baseline.memcpy_compatible);
        assert!(paper.exact_bits > baseline.exact_bits);
        assert!(baseline.values_per_texel > paper.values_per_texel);
    }
}
