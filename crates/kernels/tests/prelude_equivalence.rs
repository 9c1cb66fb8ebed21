//! Checking a generated kernel after its checked codec prelude is
//! checking the whole source.
//!
//! Every generated fragment shader begins with one of six codec preludes
//! ([`gpes_core::codec_prelude`]), which the front end checks once per
//! process; a kernel's own source is checked from where the prelude left
//! off. This suite runs each source both ways, under the permissive and
//! the strict front end and through admission, and requires the same
//! accept or reject, the same diagnostic (stage, message, line) and
//! `CompileError` span, the same interface, identical lowered bytecode,
//! and identical tree-walker and SPMD outputs and op profiles on a draw.
//! The sources are every bundled kernel's and a generated kernel per
//! input × output scalar type under all six preludes, the pinned
//! malformed-source cases used as tails, and generated tails. Case count
//! scales with `PROPTEST_CASES`.

use gpes_core::{codec_prelude, ComputeContext, FloatSpecials, Kernel, PackBias, ScalarType};
use gpes_glsl::exec::{FloatModel, OpProfile, TextureAccess};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::{
    admit, admit_after, compile_after, lower, AdmissionStage, CheckedPrelude, CompiledShader,
    ShaderKind, SpmdVm, Type, Value, MAX_LANES,
};
use gpes_kernels::backprop::{self, Activation};
use gpes_kernels::{
    conv3x3, data, fft, gaussian, hotspot, kmeans, nn, pathfinder, saxpy, sgemm, srad, sum,
    transpose,
};
use proptest::prelude::*;
use std::sync::Arc;

#[allow(dead_code)]
#[path = "../../glsl/tests/diagnostic_cases/mod.rs"]
mod diagnostic_cases;

const BIASES: [PackBias; 3] = [
    PackBias::QuarterTexel,
    PackBias::HalfTexel,
    PackBias::PaperDelta,
];
const SPECIALS: [FloatSpecials; 2] = [FloatSpecials::Preserve, FloatSpecials::Flush];
const SCALARS: [ScalarType; 7] = [
    ScalarType::U8,
    ScalarType::I8,
    ScalarType::U16,
    ScalarType::I16,
    ScalarType::U32,
    ScalarType::I32,
    ScalarType::F32,
];

/// Samples a fixed byte pattern, so every fetch decodes to a value.
struct Pattern;

impl TextureAccess for Pattern {
    fn sample(&self, unit: u32, coord: [f32; 2]) -> [f32; 4] {
        let seed = (coord[0] * 977.0 + coord[1] * 631.0) as u32 ^ unit.wrapping_mul(0x9E37);
        std::array::from_fn(|c| ((seed.wrapping_mul(2654435761) >> (8 * c)) & 0xff) as f32 / 255.0)
    }
}

/// What a 4 × 4 draw of `shader` produces under both executors: each
/// fragment's colour bits (or its error) and the op profiles.
#[derive(Debug, PartialEq)]
struct Draw {
    tree: Vec<String>,
    tree_profile: OpProfile,
    spmd: Vec<String>,
    spmd_profile: Option<OpProfile>,
}

const SIDE: usize = 4;

fn uniform_value(ty: &Type, sampler: &mut i32) -> Option<Value> {
    Some(match ty {
        Type::Float => Value::Float(1.25),
        Type::Int => Value::Int(3),
        Type::Vec2 => Value::Vec2([SIDE as f32, SIDE as f32]),
        Type::Vec3 => Value::Vec3([0.5, -1.5, 2.0]),
        Type::Vec4 => Value::Vec4([0.25, 0.5, -0.75, 8.0]),
        Type::Sampler2D => {
            *sampler += 1;
            Value::Sampler(*sampler as u32 - 1)
        }
        _ => return None,
    })
}

fn frag_coord(i: usize) -> Value {
    Value::Vec4([(i % SIDE) as f32 + 0.5, (i / SIDE) as f32 + 0.5, 0.5, 1.0])
}

fn bits(color: Option<[f32; 4]>) -> String {
    format!("{:?}", color.map(|c| c.map(f32::to_bits)))
}

fn draw(shader: &CompiledShader) -> Draw {
    let uniforms: Vec<(String, Value)> = {
        let mut sampler = 0;
        shader
            .interface
            .uniforms
            .iter()
            .filter_map(|(name, ty)| Some((name.clone(), uniform_value(ty, &mut sampler)?)))
            .collect()
    };
    let model = FloatModel::Vc4Sfu;
    let mut tree = Vec::new();
    let mut tree_profile = OpProfile::new();
    match Interpreter::with_model(shader, &Pattern, model) {
        Ok(mut interp) => {
            for (name, value) in &uniforms {
                interp.set_global(name, value.clone()).expect("uniform");
            }
            for i in 0..SIDE * SIDE {
                interp
                    .set_global("gl_FragCoord", frag_coord(i))
                    .expect("coord");
                tree.push(match interp.run_main() {
                    Ok(()) => bits(interp.frag_color()),
                    Err(e) => format!("{e:?}"),
                });
            }
            tree_profile = interp.profile();
        }
        Err(e) => tree.push(format!("{e:?}")),
    }
    let mut spmd = Vec::new();
    let mut spmd_profile = None;
    match lower(shader) {
        Ok(exe) => {
            let mut vm = SpmdVm::with_model(&exe, &Pattern, model, MAX_LANES).expect("vm");
            for (name, value) in &uniforms {
                vm.set_global(name, value.clone()).expect("uniform");
            }
            let slot = exe.global_slot("gl_FragCoord").expect("gl_FragCoord");
            for batch in 0..SIDE * SIDE / MAX_LANES {
                for lane in 0..MAX_LANES {
                    vm.set_lane_slot(lane, slot, frag_coord(batch * MAX_LANES + lane));
                }
                match vm.run_batch(MAX_LANES) {
                    Ok(()) => spmd.extend((0..MAX_LANES).map(|l| bits(vm.frag_color(l)))),
                    Err(e) => spmd.push(format!("{e:?}")),
                }
            }
            spmd_profile = Some(vm.profile());
        }
        Err(e) => spmd.push(format!("{e:?}")),
    }
    Draw {
        tree,
        tree_profile,
        spmd,
        spmd_profile,
    }
}

/// Checks `source` whole and after `prelude` under both front ends and
/// through admission, and requires the same outcome everywhere; returns
/// whether admission accepted it.
fn assert_equivalent(prelude: &Arc<CheckedPrelude>, source: &str, what: &str) -> bool {
    let shared = source.starts_with(prelude.text());
    for strict in [false, true] {
        let whole = compile_after(None, ShaderKind::Fragment, source, strict);
        let after = compile_after(Some(prelude), ShaderKind::Fragment, source, strict);
        match (&whole, &after) {
            (Ok(whole), Ok(after)) => {
                assert_eq!(after.prelude.is_some(), shared, "{what}: prelude use");
                assert_eq!(whole.interface, after.interface, "{what}: interface");
                assert_eq!(lower(whole), lower(after), "{what}: bytecode");
                if strict {
                    assert_eq!(draw(whole), draw(after), "{what}: draw");
                }
            }
            (Err(whole), Err(after)) => assert_eq!(whole, after, "{what} (strict {strict})"),
            _ => {
                panic!("{what} (strict {strict}): whole {whole:?} but after the prelude {after:?}")
            }
        }
    }
    let whole = admit(ShaderKind::Fragment, source).map(drop);
    let after = admit_after(Some(prelude), ShaderKind::Fragment, source).map(drop);
    assert_eq!(whole, after, "{what}: admission");
    after.is_ok()
}

fn contexts() -> impl Iterator<Item = (String, ComputeContext)> {
    BIASES.into_iter().flat_map(|bias| {
        SPECIALS.into_iter().map(move |specials| {
            let mut cc = ComputeContext::new(64, 64).expect("context");
            cc.set_pack_bias(bias);
            cc.set_float_specials(specials);
            (format!("{bias:?}/{specials:?}"), cc)
        })
    })
}

/// Every bundled kernel's fragment source, built on `cc`.
fn bundled_kernels(cc: &mut ComputeContext) -> Vec<Kernel> {
    let n = 8u32;
    let v = data::random_f32(64, 1, 10.0);
    let a = cc.upload(&v).expect("upload");
    let b = cc.upload(&v).expect("upload");
    let u = cc
        .upload(&data::random_u32(64, 2, 1 << 20))
        .expect("upload");
    let i = cc
        .upload(&data::random_i32(64, 3, 1 << 20))
        .expect("upload");
    let bytes = cc.upload(&data::random_u8(64, 4, 120)).expect("upload");
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
        srad::build_coeff(cc, &m, srad::SradParams::default()).expect("srad_coeff"),
        srad::build_update(cc, &m, &m, srad::SradParams::default()).expect("srad_update"),
        backprop::build_layer(cc, &short, &m, &short, Activation::Sigmoid).expect("backprop"),
    ];
    for emit_re in [false, true] {
        let stage = fft::stage_spec(64, fft::Direction::Forward, emit_re);
        kernels.push(stage.build(cc, &[a, b]).expect("fft stage"));
    }
    kernels
}

/// A kernel reading one `input` and writing `output` elements.
fn typed_kernel(cc: &mut ComputeContext, input: ScalarType, output: ScalarType) -> Kernel {
    Kernel::builder("typed")
        .input_declared("x", input)
        .uniform_f32("k", 0.5)
        .output(output, 16)
        .body("return fetch_x(idx) * k + fetch_x_rc(row, col);")
        .build(cc)
        .unwrap_or_else(|e| panic!("{input:?} -> {output:?}: {e}"))
}

#[test]
fn generated_kernels_check_the_same_after_their_prelude() {
    for (variant, mut cc) in contexts() {
        let prelude = codec_prelude(cc.pack_bias(), cc.float_specials());
        let mut kernels = bundled_kernels(&mut cc);
        for input in SCALARS {
            for output in SCALARS {
                kernels.push(typed_kernel(&mut cc, input, output));
            }
        }
        kernels.push(
            Kernel::builder("texels")
                .input_declared("x", ScalarType::U8)
                .output_texels(16)
                .body("return vec4(fetch_x(idx) / 255.0);")
                .build(&mut cc)
                .expect("raw texel kernel"),
        );
        for kernel in &kernels {
            let source = kernel.fragment_source();
            assert!(
                source.starts_with(prelude.text()),
                "{variant} {}",
                kernel.name()
            );
            let what = format!("{variant} {}", kernel.name());
            assert!(assert_equivalent(prelude, source, &what), "{what} rejected");
        }
    }
}

#[test]
fn pinned_sources_check_the_same_as_tails() {
    for bias in BIASES {
        for specials in SPECIALS {
            let prelude = codec_prelude(bias, specials);
            for case in diagnostic_cases::CASES.iter() {
                let source = format!("{}{}", prelude.text(), case.source);
                let what = format!("{bias:?}/{specials:?} {}", case.name);
                assert!(
                    !assert_equivalent(prelude, &source, &what),
                    "{what} accepted"
                );
            }
            for case in diagnostic_cases::ADMITTED.iter() {
                let source = format!("{}{}", prelude.text(), case.source);
                let what = format!("{bias:?}/{specials:?} {}", case.name);
                assert!(assert_equivalent(prelude, &source, &what), "{what} refused");
            }
        }
    }
}

/// A tail whose function closes a call cycle through a function the
/// prelude only declares is refused after the prelude as the whole
/// source is: at the prelude's call that re-enters the cycle.
#[test]
fn a_cycle_through_a_prelude_prototype_is_refused_like_the_whole_source() {
    let text = "precision highp float;\nfloat hook(float v);\n\
                float twice_hook(float v) { return hook(v) * 2.0; }\n";
    let prelude = Arc::new(CheckedPrelude::check(ShaderKind::Fragment, text).expect("prelude"));
    let source = format!(
        "{text}uniform float u;\n\
         float hook(float v) {{ return v > 1.0 ? twice_hook(v * 0.25) : v; }}\n\
         void main() {{ gl_FragColor = vec4(hook(u)); }}\n"
    );
    let what = "a cycle through a prelude prototype";
    assert!(
        !assert_equivalent(&prelude, &source, what),
        "{what} admitted"
    );
    let after = admit_after(Some(&prelude), ShaderKind::Fragment, &source).unwrap_err();
    assert_eq!(after, admit(ShaderKind::Fragment, &source).unwrap_err());
    assert_eq!(
        (after.stage, after.line),
        (AdmissionStage::Sema, 3),
        "{after}"
    );
    assert!(
        after.message.contains("recursive call to `hook`"),
        "{after}"
    );
}

#[test]
fn a_source_not_beginning_with_the_prelude_is_checked_whole() {
    let prelude = codec_prelude(PackBias::default(), FloatSpecials::default());
    let source = "precision highp float;\nvoid main() { gl_FragColor = vec4(0.5); }\n";
    assert!(assert_equivalent(prelude, source, "unrelated source"));
    let shader = compile_after(Some(prelude), ShaderKind::Fragment, source, true).expect("ok");
    assert!(shader.prelude.is_none());
}

/// Tail lines: declarations, calls into the prelude, collisions with its
/// names, preprocessor state, comments and malformed code.
const PIECES: &[&str] = &[
    "uniform float u_a;",
    "uniform vec2 u_out_dims;",
    "uniform sampler2D u_t;",
    "float helper(float v) { return gpes_unpack_byte(v) * 2.0; }",
    "float gpes_pack_byte(float b) { return b; }",
    "float gpes_out_index() { return 0.0; }",
    "vec4 twice(vec4 v) { return v + v; }",
    "#define SCALE 3.0",
    "#define TWICE(x) ((x) + (x))",
    "#if 0",
    "#endif",
    "#version 100",
    "// a line comment",
    "/* a block",
    "comment */",
    "float line_no() { return float(__LINE__); }",
    "const float K = 2.5;",
    "float g = 1.0;",
    "void main() { gl_FragColor = vec4(gpes_out_index()); }",
    "void main() { gl_FragColor = gpes_pack_float(SCALE * K); }",
    "void main() { gl_FragColor = twice(texture2D(u_t, gl_FragCoord.xy / u_out_dims)); }",
    "void main() { float s = 0.0; for (int i = 0; i < 4; i++) { s += u_a; } \
     gl_FragColor = vec4(TWICE(s)); }",
    "void main() { float s = 0.0; while (s < 2.0) { s += 1.0; } gl_FragColor = vec4(s); }",
    "void main() { gl_FragColor = vec4(undeclared); }",
    "void main() { gl_FragColor = vec4(helper(g) + 1); }",
    "float x = ;",
    "int i = 09;",
    "float goto = 1.0;",
    "}",
    "",
];

proptest! {
    #[test]
    fn generated_tails_check_the_same_after_the_prelude(
        picks in collection::vec(0..PIECES.len(), 0..10),
        variant in 0..6usize,
    ) {
        let prelude = codec_prelude(BIASES[variant / 2], SPECIALS[variant % 2]);
        let mut source = prelude.text().to_owned();
        for &pick in &picks {
            source.push_str(PIECES[pick]);
            source.push('\n');
        }
        assert_equivalent(prelude, &source, &format!("tail {picks:?}"));
    }
}
