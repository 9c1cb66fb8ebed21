//! Property-based tests for the GLSL ES front end and interpreter.

use gpes_glsl::admission::{admit, AdmissionDiagnostic, AdmissionStage};
use gpes_glsl::exec::{FloatModel, NoTextures};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::parser::MAX_NESTING;
use gpes_glsl::{compile, compile_strict, ShaderKind, Value};
use proptest::prelude::*;

/// A strict-compatible fragment shader built from generated pieces:
/// declared uniforms only, constant loop bound — by construction it must
/// survive every admission stage.
fn generated_valid(n: u8, scale: i16, use_loop: bool) -> String {
    let body = if use_loop {
        format!(
            "float acc = 0.0;\n  \
             for (int i = 0; i < {n}; i++) {{ acc += u_k; }}\n  \
             gl_FragColor = vec4(acc * {scale}.0);"
        )
    } else {
        format!("gl_FragColor = vec4(u_k * {scale}.0);")
    };
    format!("precision highp float;\nuniform float u_k;\nvoid main() {{\n  {body}\n}}")
}

/// Nesting shapes an untrusted kernel can stack arbitrarily deep.
const DEEP_SHAPES: usize = 9;

/// A fragment shader nesting construct `shape` `depth` times.
fn deep_source(shape: usize, depth: usize) -> String {
    let body = match shape {
        0 => format!("c = {}u{};", "(".repeat(depth), ")".repeat(depth)),
        1 => format!("{} c = u; {}", "{".repeat(depth), "}".repeat(depth)),
        2 => format!("c = {}u;", "- ".repeat(depth)),
        3 => format!("c = u{};", " + 1.0".repeat(depth)),
        4 => format!("c = {}u{};", "abs(".repeat(depth), ")".repeat(depth)),
        5 => format!(
            "{}{{ c = 2.0; }}",
            "if (u > 0.0) { c = 1.0; } else ".repeat(depth)
        ),
        6 => format!("c = v{}.x;", ".xyzw".repeat(depth)),
        7 => format!("c = {}2.0;", "u > 0.0 ? 1.0 : ".repeat(depth)),
        _ => format!("{}u;", "c = ".repeat(depth)),
    };
    format!(
        "precision highp float;\nuniform float u;\nvoid main() {{\n  \
         float c = 0.0;\n  vec4 v = vec4(u);\n  {body}\n  gl_FragColor = vec4(c);\n}}"
    )
}

/// Admits `src` on a thread with a 512 KiB stack (a quarter of the
/// default), then lowers and runs whatever admits, all on that thread. A
/// recursion the nesting bound misses overflows the stack, which aborts
/// the whole test binary rather than failing one test.
fn admit_on_small_stack(src: String) -> Result<(), AdmissionDiagnostic> {
    std::thread::Builder::new()
        .stack_size(512 * 1024)
        .spawn(move || {
            let shader = admit(ShaderKind::Fragment, &src)?;
            gpes_glsl::lower_shared(&shader).expect("an admitted shader lowers");
            let tex = NoTextures;
            let mut interp = Interpreter::new(&shader, &tex).expect("interp");
            interp.set_global("u", Value::Float(0.5)).expect("uniform");
            interp.run_main().expect("run");
            Ok(())
        })
        .expect("spawn")
        .join()
        .expect("admission panicked")
}

/// Compiles and runs a fragment shader that computes `expr` into the red
/// channel scaled into [0,1]; returns the raw float the kernel computed
/// via a 255-scaled encoding trick (we read the value back through a
/// uniform-free expression instead: store expr/K).
fn eval_scalar(expr: &str, uniforms: &[(&str, Value)]) -> f32 {
    let decls: String = uniforms
        .iter()
        .map(|(n, v)| {
            let ty = match v {
                Value::Float(_) => "float",
                Value::Int(_) => "int",
                Value::Bool(_) => "bool",
                Value::Vec2(_) => "vec2",
                _ => panic!("unsupported uniform in test"),
            };
            format!("uniform {ty} {n};\n")
        })
        .collect();
    let src = format!(
        "precision highp float;\n{decls}\
         void main() {{ gl_FragColor = vec4({expr}); }}"
    );
    let shader = compile(ShaderKind::Fragment, &src)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let tex = NoTextures;
    let mut interp = Interpreter::with_model(&shader, &tex, FloatModel::Exact).expect("interp");
    for (n, v) in uniforms {
        interp.set_global(n, v.clone()).expect("uniform");
    }
    interp.run_main().expect("run");
    interp.frag_color().expect("color")[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interpreter float arithmetic matches Rust f32 semantics exactly
    /// under the exact model.
    #[test]
    fn float_arithmetic_matches_rust(a in -1.0e6f32..1.0e6, b in -1.0e6f32..1.0e6) {
        let got = eval_scalar(
            "(u_a + u_b) * 0.5 - u_a / 4.0",
            &[("u_a", Value::Float(a)), ("u_b", Value::Float(b))],
        );
        let expect = (a + b) * 0.5 - a / 4.0;
        prop_assert_eq!(got.to_bits(), expect.to_bits());
    }

    /// GLSL `mod` follows the spec identity x − y·⌊x/y⌋ for positive y.
    #[test]
    fn mod_matches_spec(x in -1.0e4f32..1.0e4, y in 0.5f32..100.0) {
        let got = eval_scalar(
            "mod(u_x, u_y)",
            &[("u_x", Value::Float(x)), ("u_y", Value::Float(y))],
        );
        let expect = x - y * (x / y).floor();
        prop_assert_eq!(got.to_bits(), expect.to_bits());
        prop_assert!(got >= 0.0 || expect < 0.0);
    }

    /// floor/ceil/fract identities hold everywhere.
    #[test]
    fn floor_ceil_fract_identities(x in -1.0e6f32..1.0e6) {
        let f = eval_scalar("floor(u_x)", &[("u_x", Value::Float(x))]);
        let c = eval_scalar("ceil(u_x)", &[("u_x", Value::Float(x))]);
        let r = eval_scalar("fract(u_x)", &[("u_x", Value::Float(x))]);
        prop_assert_eq!(f, x.floor());
        prop_assert_eq!(c, x.ceil());
        prop_assert_eq!(r, x - x.floor());
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// clamp/min/max agree with Rust and are order-consistent.
    #[test]
    fn clamp_min_max(x in -100.0f32..100.0, lo in -50.0f32..0.0, hi in 0.0f32..50.0) {
        let got = eval_scalar(
            "clamp(u_x, u_lo, u_hi)",
            &[
                ("u_x", Value::Float(x)),
                ("u_lo", Value::Float(lo)),
                ("u_hi", Value::Float(hi)),
            ],
        );
        prop_assert_eq!(got, x.max(lo).min(hi));
        let mn = eval_scalar(
            "min(u_a, u_b)",
            &[("u_a", Value::Float(x)), ("u_b", Value::Float(lo))],
        );
        prop_assert_eq!(mn, x.min(lo));
    }

    /// Integer loops accumulate exactly like Rust i32 arithmetic.
    #[test]
    fn int_loop_accumulation(n in 0i32..64, step in -100i32..100) {
        let src = format!(
            "precision highp float;\n\
             void main() {{\n\
               int acc = 0;\n\
               for (int i = 0; i < {n}; i++) {{ acc = acc + {step}; }}\n\
               gl_FragColor = vec4(float(acc));\n\
             }}"
        );
        let shader = compile(ShaderKind::Fragment, &src).expect("compile");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.run_main().expect("run");
        // gl_FragColor is clamped on store, so read the raw global.
        let raw = interp.global("gl_FragColor").expect("color").clone();
        if let Value::Vec4(c) = raw {
            prop_assert_eq!(c[0], (n * step) as f32);
        } else {
            prop_assert!(false, "unexpected value kind");
        }
    }

    /// Swizzle read/write round-trips arbitrary lane selections.
    #[test]
    fn swizzle_roundtrip(a: [bool; 4]) {
        // Build a permutation-ish swizzle from the bools.
        let sel: String = a
            .iter()
            .enumerate()
            .map(|(i, &flip)| {
                let lanes = ['x', 'y', 'z', 'w'];
                lanes[if flip { 3 - i } else { i }]
            })
            .collect();
        let src = format!(
            "precision highp float;\n\
             void main() {{\n\
               vec4 v = vec4(0.1, 0.2, 0.3, 0.4);\n\
               vec4 w = v.{sel};\n\
               gl_FragColor = w.{sel2};\n\
             }}",
            sel2 = "xyzw",
        );
        let shader = compile(ShaderKind::Fragment, &src).expect("compile");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.run_main().expect("run");
        let got = interp.frag_color().expect("color");
        let v = [0.1f32, 0.2, 0.3, 0.4];
        for (i, &flip) in a.iter().enumerate() {
            let lane = if flip { 3 - i } else { i };
            prop_assert_eq!(got[i], v[lane]);
        }
    }

    /// Lexer + parser never panic on arbitrary byte soup (errors only).
    #[test]
    fn frontend_total_on_garbage(src in "[ -~]{0,200}") {
        let _ = compile(ShaderKind::Fragment, &src);
    }

    /// The preprocessor in isolation is total on arbitrary text,
    /// including directive-shaped garbage and unbalanced conditionals.
    #[test]
    fn preprocessor_total_on_garbage(src in "[ -~\\n#]{0,300}") {
        let _ = gpes_glsl::preprocess(&src);
    }

    /// Directive-heavy soup: hash-prefixed lines with plausible keywords
    /// never panic either.
    #[test]
    fn preprocessor_total_on_directive_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("#define A 1".to_owned()),
                Just("#define F(x) (x*x)".to_owned()),
                Just("#ifdef A".to_owned()),
                Just("#ifndef B".to_owned()),
                Just("#if A + 2 > 1".to_owned()),
                Just("#elif defined(A)".to_owned()),
                Just("#else".to_owned()),
                Just("#endif".to_owned()),
                Just("#undef A".to_owned()),
                Just("float F = F(A);".to_owned()),
                "[ -~]{0,32}",
            ],
            0..24,
        ),
    ) {
        let src = parts.join("\n");
        // Whatever survives must keep its line count (span fidelity).
        if let Ok(out) = gpes_glsl::preprocess(&src) {
            prop_assert_eq!(out.source.lines().count(), src.lines().count());
        }
    }

    /// Macro expansion preserves compile-equivalence: a shader using a
    /// macro for a literal behaves identically to the substituted form.
    #[test]
    fn macro_literal_equivalence(v in -1000i32..1000) {
        let with_macro = format!(
            "precision highp float;\n#define V {v}\n\
             void main() {{ gl_FragColor = vec4(float(V)); }}"
        );
        let direct = format!(
            "precision highp float;\n\
             void main() {{ gl_FragColor = vec4(float({v})); }}"
        );
        let run = |src: &str| {
            let shader = compile(ShaderKind::Fragment, src).expect("compile");
            let tex = NoTextures;
            let mut interp = Interpreter::new(&shader, &tex).expect("interp");
            interp.run_main().expect("run");
            interp.global("gl_FragColor").expect("color").clone()
        };
        prop_assert_eq!(run(&with_macro), run(&direct));
    }

    /// Vector arithmetic distributes component-wise like Rust arrays.
    #[test]
    fn vec_componentwise(a: [i16; 3], b: [i16; 3]) {
        let av = [a[0] as f32, a[1] as f32, a[2] as f32];
        let bv = [b[0] as f32, b[1] as f32, b[2] as f32];
        let src = "precision highp float;\nuniform vec3 u_a;\nuniform vec3 u_b;\n\
                   varying vec2 v_unused;\n\
                   void main() { vec3 r = u_a * u_b + u_a; gl_FragColor = vec4(r, 1.0); }";
        let shader = compile(ShaderKind::Fragment, src).expect("compile");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.set_global("u_a", Value::Vec3(av)).expect("a");
        interp.set_global("u_b", Value::Vec3(bv)).expect("b");
        interp.run_main().expect("run");
        let raw = interp.global("gl_FragColor").expect("color").clone();
        if let Value::Vec4(c) = raw {
            for i in 0..3 {
                prop_assert_eq!(c[i], av[i] * bv[i] + av[i]);
            }
        }
    }

    /// Generated-valid programs pass the full admission pipeline *and*
    /// run: the admitted shader computes the accumulation the generator
    /// encoded, in the same f32 op order.
    #[test]
    fn generated_valid_sources_admit_and_run(
        n in 0u8..16,
        scale in -100i16..100,
        use_loop: bool,
    ) {
        let src = generated_valid(n, scale, use_loop);
        let shader = admit(ShaderKind::Fragment, &src)
            .unwrap_or_else(|d| panic!("valid source rejected: {d}\n{src}"));
        let tex = NoTextures;
        let mut interp =
            Interpreter::with_model(&shader, &tex, FloatModel::Exact).expect("interp");
        interp.set_global("u_k", Value::Float(1.5)).expect("uniform");
        interp.run_main().expect("run");
        let expect = if use_loop {
            let mut acc = 0.0f32;
            for _ in 0..n {
                acc += 1.5;
            }
            acc * scale as f32
        } else {
            1.5 * scale as f32
        };
        let raw = interp.global("gl_FragColor").expect("color").clone();
        if let Value::Vec4(c) = raw {
            prop_assert_eq!(c[0], expect);
        } else {
            prop_assert!(false, "unexpected value kind");
        }
    }

    /// Truncating a valid program at any byte never panics admission:
    /// the prefix either still admits or rejects with a typed,
    /// non-empty, stage-tagged diagnostic.
    #[test]
    fn truncated_sources_reject_typed_never_panic(
        n in 0u8..16,
        scale in -100i16..100,
        cut in 0usize..256,
    ) {
        let src = generated_valid(n, scale, true);
        let cut = cut.min(src.len());
        match admit(ShaderKind::Fragment, &src[..cut]) {
            Ok(_) => {}
            Err(d) => {
                prop_assert!(!d.message.is_empty());
                prop_assert!(matches!(
                    d.stage,
                    AdmissionStage::Parse | AdmissionStage::Strict | AdmissionStage::Sema
                ));
            }
        }
    }

    /// Splicing arbitrary bytes into a valid program never panics, and
    /// admission's verdict always matches `compile_strict`'s — the
    /// registry gate admits exactly what the strict compiler accepts.
    #[test]
    fn mutated_sources_match_compile_strict(
        pos in 0usize..200,
        splice in "[ -~]{0,12}",
    ) {
        let src = generated_valid(7, 3, true);
        let pos = pos.min(src.len());
        let mutated = format!("{}{}{}", &src[..pos], splice, &src[pos..]);
        let admitted = admit(ShaderKind::Fragment, &mutated).is_ok();
        let strict = compile_strict(ShaderKind::Fragment, &mutated).is_ok();
        prop_assert_eq!(admitted, strict, "admit/compile_strict diverge on {:?}", mutated);
    }

    /// Admission is total on arbitrary byte soup — errors only, never a
    /// panic, exactly like the raw front end.
    #[test]
    fn admission_total_on_garbage(src in "[ -~]{0,200}") {
        let _ = admit(ShaderKind::Fragment, &src);
    }

    /// However deep a tenant nests parens, blocks, prefix operators,
    /// operator chains, calls, `if`/`else` ladders, swizzles, ternaries or
    /// assignments, admission on a small stack admits or rejects typed.
    /// Shallow nesting admits; past the bound it is a parse rejection.
    #[test]
    fn deep_nesting_admits_or_rejects_typed_on_a_small_stack(
        shape in 0usize..DEEP_SHAPES,
        depth in 1usize..3 * MAX_NESTING,
    ) {
        let verdict = admit_on_small_stack(deep_source(shape, depth));
        if depth <= MAX_NESTING / 2 {
            prop_assert!(verdict.is_ok(), "shape {} depth {}: {:?}", shape, depth, verdict);
        }
        if depth > MAX_NESTING {
            let err = verdict.expect_err("nesting past the bound must reject");
            prop_assert_eq!(err.stage, AdmissionStage::Parse);
            prop_assert!(err.message.contains("nesting"), "{}", err.message);
        }
    }
}

/// The cases that used to abort the process on the default 2 MiB stack:
/// 1000 nested parens or blocks, and a 5000-term chain that overflowed in
/// semantic analysis. Each is now a typed parse rejection on a quarter of
/// that stack, as are ten times deeper versions and every other shape.
#[test]
fn stack_overflow_cases_reject_typed_on_a_small_stack() {
    let cases = (0..DEEP_SHAPES).flat_map(|shape| [(shape, 1000), (shape, 5000), (shape, 10_000)]);
    for (shape, depth) in cases {
        let err =
            admit_on_small_stack(deep_source(shape, depth)).expect_err("deep nesting must reject");
        assert_eq!(
            err.stage,
            AdmissionStage::Parse,
            "shape {shape} depth {depth}"
        );
    }
}
