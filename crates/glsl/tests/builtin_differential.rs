//! Exhaustive builtin differential: every builtin function at every
//! overload and `genType` width (scalar-broadcast forms included), and
//! every type constructor over each argument kind, must behave
//! **bit-identically** on the SPMD VM (one-lane and eight-lane batches)
//! and the tree-walking interpreter under every float model.
//!
//! The overloads are not listed by hand: for each builtin name the test
//! asks [`gpes_glsl::builtins::signature`] — the checker's own table —
//! which argument type lists it accepts, so a new overload is covered as
//! soon as sema admits it. Each accepted call becomes one shader that
//! stores the call's result in a mutable global; the arguments are
//! uniforms fed per lane from edge-value tables (±0, denormals, ±inf,
//! NaN, ±2²³±1, and the int/float saturation corners), so one batch
//! mixes the special classes across lanes. Compared per invocation: the
//! result's bits, and the error if one executor traps; compared per run:
//! the aggregate `OpProfile`.

use gpes_glsl::builtins::signature;
use gpes_glsl::exec::{FloatModel, OpProfile, TextureAccess};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::spmd::SpmdVm;
use gpes_glsl::{compile, lower, ShaderKind, Type, Value};

/// Every builtin function name the checker knows (constructors are
/// enumerated separately).
const FUNCTIONS: [&str; 47] = [
    "radians",
    "degrees",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "pow",
    "exp",
    "log",
    "exp2",
    "log2",
    "sqrt",
    "inversesqrt",
    "abs",
    "sign",
    "floor",
    "ceil",
    "fract",
    "mod",
    "min",
    "max",
    "clamp",
    "mix",
    "step",
    "smoothstep",
    "length",
    "distance",
    "dot",
    "cross",
    "normalize",
    "faceforward",
    "reflect",
    "refract",
    "matrixCompMult",
    "lessThan",
    "lessThanEqual",
    "greaterThan",
    "greaterThanEqual",
    "equal",
    "notEqual",
    "any",
    "all",
    "not",
    "texture2D",
    "texture2DProj",
];

/// Every type constructor.
const CONSTRUCTORS: [&str; 15] = [
    "float", "int", "bool", "vec2", "vec3", "vec4", "ivec2", "ivec3", "ivec4", "bvec2", "bvec3",
    "bvec4", "mat2", "mat3", "mat4",
];

/// Every argument type a builtin or constructor can take.
fn all_types() -> Vec<Type> {
    use Type::*;
    vec![
        Float, Int, Bool, Vec2, Vec3, Vec4, IVec2, IVec3, IVec4, BVec2, BVec3, BVec4, Mat2, Mat3,
        Mat4, Sampler2D,
    ]
}

/// Float edge values: signed zeros, denormals, infinities, NaNs (two
/// payloads), ±2²³±1 and the other integer-precision edges, values on
/// either side of the [0, 1] saturation range, and the int-conversion
/// saturation corners.
fn float_edges() -> Vec<f32> {
    vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(0x0040_0000),
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xffc0_0001),
        8_388_607.0,
        8_388_609.0,
        -8_388_607.0,
        -8_388_609.0,
        8_388_608.0,
        0.5,
        -0.5,
        1.0,
        -1.0,
        0.999_999_94,
        1.000_000_1,
        2.5,
        -1.5,
        255.0,
        0.25,
        f32::MAX,
        -f32::MAX,
        3.0e9,
        -3.0e9,
        1.0e-3,
        7.0,
    ]
}

fn int_edges() -> Vec<i32> {
    vec![
        0,
        1,
        -1,
        2,
        -7,
        255,
        256,
        i32::MAX,
        i32::MIN,
        8_388_609,
        -8_388_609,
        16_777_217,
    ]
}

/// Invocations per run: four full eight-lane batches and a three-lane
/// tail, and enough for argument 0 to meet every float edge.
const CASES: usize = 35;

/// The value of argument `arg` of type `ty` in invocation `case`.
/// Components and arguments walk the edge tables at different strides
/// so special values meet each other across positions; the tail cases
/// past the float table give every argument the same values, so ties
/// (`step(x, x)`, `min(x, x)`, `equal(v, v)`) are covered too.
fn arg_value(ty: &Type, arg: usize, case: usize) -> Value {
    let fe = float_edges();
    let ie = int_edges();
    let arg = if case < fe.len() { arg } else { 0 };
    let f = |c: usize| fe[(case + 7 * arg + 11 * c) % fe.len()];
    let i = |c: usize| ie[(case + 5 * arg + 3 * c) % ie.len()];
    let b = |c: usize| !(case + arg + c).is_multiple_of(3);
    match ty {
        Type::Float => Value::Float(f(0)),
        Type::Int => Value::Int(i(0)),
        Type::Bool => Value::Bool(b(0)),
        Type::Vec2 => Value::Vec2([f(0), f(1)]),
        Type::Vec3 => Value::Vec3([f(0), f(1), f(2)]),
        Type::Vec4 => Value::Vec4([f(0), f(1), f(2), f(3)]),
        Type::IVec2 => Value::IVec2([i(0), i(1)]),
        Type::IVec3 => Value::IVec3([i(0), i(1), i(2)]),
        Type::IVec4 => Value::IVec4([i(0), i(1), i(2), i(3)]),
        Type::BVec2 => Value::BVec2([b(0), b(1)]),
        Type::BVec3 => Value::BVec3([b(0), b(1), b(2)]),
        Type::BVec4 => Value::BVec4([b(0), b(1), b(2), b(3)]),
        Type::Mat2 => Value::Mat2([[f(0), f(1)], [f(2), f(3)]]),
        Type::Mat3 => Value::Mat3(std::array::from_fn(|c| {
            std::array::from_fn(|r| f(3 * c + r))
        })),
        Type::Mat4 => Value::Mat4(std::array::from_fn(|c| {
            std::array::from_fn(|r| f(4 * c + r))
        })),
        Type::Sampler2D => Value::Sampler((case % 2) as u32),
        other => panic!("no edge values for {other}"),
    }
}

/// A deterministic texture that echoes the coordinate (whatever its
/// class) so `texture2D`/`texture2DProj` results depend on every input.
struct EchoTexture;

impl TextureAccess for EchoTexture {
    fn sample(&self, unit: u32, coord: [f32; 2]) -> [f32; 4] {
        [coord[0], coord[1], unit as f32, coord[0] - coord[1]]
    }
}

/// A value's exact bits, component by component (NaN payloads and the
/// sign of zero included).
fn bits(v: &Value) -> Vec<u64> {
    let f = |x: &f32| u64::from(x.to_bits());
    let i = |x: &i32| u64::from(*x as u32);
    let b = |x: &bool| u64::from(*x);
    match v {
        Value::Float(x) => vec![f(x)],
        Value::Int(x) => vec![i(x)],
        Value::Bool(x) => vec![b(x)],
        Value::Vec2(x) => x.iter().map(f).collect(),
        Value::Vec3(x) => x.iter().map(f).collect(),
        Value::Vec4(x) => x.iter().map(f).collect(),
        Value::IVec2(x) => x.iter().map(i).collect(),
        Value::IVec3(x) => x.iter().map(i).collect(),
        Value::IVec4(x) => x.iter().map(i).collect(),
        Value::BVec2(x) => x.iter().map(b).collect(),
        Value::BVec3(x) => x.iter().map(b).collect(),
        Value::BVec4(x) => x.iter().map(b).collect(),
        Value::Mat2(m) => m.iter().flatten().map(f).collect(),
        Value::Mat3(m) => m.iter().flatten().map(f).collect(),
        Value::Mat4(m) => m.iter().flatten().map(f).collect(),
        Value::Sampler(u) => vec![u64::from(*u)],
        Value::Array(elems) => elems.iter().flat_map(bits).collect(),
    }
}

/// One builtin call shape accepted by the checker.
struct Overload {
    name: &'static str,
    args: Vec<Type>,
    ret: Type,
}

impl Overload {
    fn source(&self) -> String {
        let mut src = String::from("precision highp float;\n");
        for (k, ty) in self.args.iter().enumerate() {
            src.push_str(&format!("uniform {ty} a{k};\n"));
        }
        let call_args: Vec<String> = (0..self.args.len()).map(|k| format!("a{k}")).collect();
        src.push_str(&format!(
            "{} r;\nvoid main() {{ r = {}({}); gl_FragColor = vec4(0.5); }}\n",
            self.ret,
            self.name,
            call_args.join(", ")
        ));
        src
    }
}

/// Every argument list of length `arity` over `types` that `name`
/// accepts.
fn accepted(name: &'static str, arity: usize, types: &[Type], out: &mut Vec<Overload>) {
    let n = types.len();
    for combo in 0..n.pow(arity as u32) {
        let mut k = combo;
        let args: Vec<Type> = (0..arity)
            .map(|_| {
                let t = types[k % n].clone();
                k /= n;
                t
            })
            .collect();
        if let Some(ret) = signature(name, &args) {
            out.push(Overload { name, args, ret });
        }
    }
}

fn overloads() -> Vec<Overload> {
    use Type::*;
    let all = all_types();
    let mut out = Vec::new();
    for name in FUNCTIONS {
        for arity in 1..=3 {
            accepted(name, arity, &all, &mut out);
        }
    }
    for name in CONSTRUCTORS {
        accepted(name, 1, &all, &mut out);
        accepted(name, 2, &[Float, Int, Bool, Vec2, Vec3], &mut out);
        accepted(name, 3, &[Float, Int, Vec2], &mut out);
    }
    // The all-component forms.
    for (name, ty, n) in [
        ("vec4", Float, 4),
        ("ivec4", Int, 4),
        ("bvec4", Bool, 4),
        ("mat2", Float, 4),
        ("mat3", Float, 9),
        ("mat3", Vec3, 3),
        ("mat4", Float, 16),
        ("mat4", Vec4, 4),
    ] {
        let args = vec![ty; n];
        let ret = signature(name, &args).expect("all-component constructor");
        out.push(Overload { name, args, ret });
    }
    out
}

/// What one invocation produced: the result bits or the error text.
type Outcome = Result<Vec<u64>, String>;

fn tree_walker(ov: &Overload, src: &str, model: FloatModel) -> (Vec<Outcome>, OpProfile) {
    let shader = compile(ShaderKind::Fragment, src).expect("compile");
    let tex = EchoTexture;
    let mut interp = Interpreter::with_model(&shader, &tex, model).expect("interp init");
    let mut outcomes = Vec::with_capacity(CASES);
    for case in 0..CASES {
        for (k, ty) in ov.args.iter().enumerate() {
            interp
                .set_global(&format!("a{k}"), arg_value(ty, k, case))
                .expect("uniform");
        }
        outcomes.push(match interp.run_main() {
            Ok(()) => Ok(bits(interp.global("r").expect("result global"))),
            Err(e) => Err(e.to_string()),
        });
    }
    (outcomes, interp.profile())
}

/// Runs every case through an SPMD VM of `lanes` lanes. After a trap
/// the remaining lanes of that batch are recorded as the batch error,
/// and later batches still run.
fn spmd(ov: &Overload, src: &str, model: FloatModel, lanes: usize) -> (Vec<Outcome>, OpProfile) {
    let shader = compile(ShaderKind::Fragment, src).expect("compile");
    let exe = lower(&shader).expect("lower");
    let tex = EchoTexture;
    let mut vm = SpmdVm::with_model(&exe, &tex, model, lanes).expect("spmd init");
    let slots: Vec<u32> = (0..ov.args.len())
        .map(|k| vm.global_slot(&format!("a{k}")).expect("uniform slot"))
        .collect();
    let mut outcomes = Vec::with_capacity(CASES);
    for start in (0..CASES).step_by(lanes) {
        let n = lanes.min(CASES - start);
        for lane in 0..n {
            for (k, ty) in ov.args.iter().enumerate() {
                vm.set_lane_slot(lane, slots[k], arg_value(ty, k, start + lane));
            }
        }
        let batch = vm.run_batch(n);
        for lane in 0..n {
            outcomes.push(match &batch {
                Err(e) if lane >= e.lane => Err(e.error.to_string()),
                _ => Ok(bits(&vm.global(lane, "r").expect("result global"))),
            });
        }
    }
    (outcomes, vm.profile())
}

/// Compares the outcomes up to the first trap (the SPMD batch stops
/// there, so later lanes of that batch report the same error).
fn assert_same(ov: &Overload, what: &str, model: FloatModel, oracle: &[Outcome], got: &[Outcome]) {
    for (case, (want, have)) in oracle.iter().zip(got).enumerate() {
        assert_eq!(
            have, want,
            "{}({:?}) case {case} diverged on {what} under {model:?}",
            ov.name, ov.args
        );
        if want.is_err() {
            break;
        }
    }
}

#[test]
fn every_builtin_overload_matches_the_tree_walker() {
    let overloads = overloads();
    // A floor on the coverage, so a signature-table regression cannot
    // silently shrink the sweep.
    assert!(
        overloads.len() >= 400,
        "only {} overloads enumerated",
        overloads.len()
    );
    for name in FUNCTIONS.iter().chain(CONSTRUCTORS.iter()) {
        assert!(
            overloads.iter().any(|o| o.name == *name),
            "`{name}` has no accepted overload"
        );
    }
    for ov in &overloads {
        let src = ov.source();
        for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
            let (oracle, oracle_profile) = tree_walker(ov, &src, model);
            let trapped = oracle.iter().any(Result::is_err);
            for lanes in [1usize, 8] {
                let (got, profile) = spmd(ov, &src, model, lanes);
                let what = format!("SPMD-{lanes}");
                assert_same(ov, &what, model, &oracle, &got);
                if !trapped {
                    assert_eq!(
                        profile, oracle_profile,
                        "{}({:?}) profile diverged on {what} under {model:?}",
                        ov.name, ov.args
                    );
                }
            }
        }
    }
}

/// Builtins whose SPMD fast path writes below a deferred context's
/// floor: the call sits in one arm of a divergent `?:`, so half the
/// batch is parked at the join while the other half runs it masked.
#[test]
fn builtins_under_divergence_match_the_tree_walker() {
    let calls = [
        ("float", "floor(a0)"),
        ("float", "fract(a0 * 3.5)"),
        ("float", "mod(a0, 2.5)"),
        ("vec2", "step(a0, vec2(a0, 0.5))"),
        ("float", "dot(vec3(a0), vec3(0.5, a0, 2.0))"),
        ("vec3", "clamp(vec3(a0, 1.5, -a0), 0.0, 1.0)"),
        ("vec4", "mix(vec4(a0), vec4(1.0), 0.25)"),
        ("float", "exp2(a0)"),
        ("int", "int(a0)"),
    ];
    for (ret, call) in calls {
        let src = format!(
            "precision highp float;\nuniform float a0;\n{ret} r;\n\
             void main() {{ r = a0 > 0.75 ? {call} : {ret}(a0 + 1.0); gl_FragColor = vec4(0.5); }}\n"
        );
        let ov = Overload {
            name: "divergent",
            args: vec![Type::Float],
            ret: Type::Float,
        };
        for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
            let (oracle, oracle_profile) = tree_walker(&ov, &src, model);
            for lanes in [1usize, 8] {
                let (got, profile) = spmd(&ov, &src, model, lanes);
                assert_same(&ov, call, model, &oracle, &got);
                assert_eq!(profile, oracle_profile, "{call} profile under {model:?}");
            }
        }
    }
}

/// Each place a three-address instruction reads an operand — a constant,
/// a global, one component of a global, a frame slot — as the left
/// operand of a binary operator whose right operand is the value of a
/// divergent `?:`: half the batch reaches the operator from each arm.
#[test]
fn operands_at_a_join_match_the_tree_walker() {
    let cases = [
        ("constant", "r = 2.5 * (a0 > 0.75 ? floor(a0) : a0 + 1.0);"),
        ("global", "r = a0 - (a0 > 0.75 ? fract(a0) : a0 * 2.0);"),
        (
            "global component",
            "r = a1.y / (a0 > 0.75 ? a0 * a1.x : a1.x + 1.0);",
        ),
        (
            "frame slot",
            "float x = a0 * 0.5; r = x + (a0 > 0.75 ? exp2(x) : x - 1.0);",
        ),
        (
            "vector frame slot",
            "vec2 v = a1 * a0; r = (v * (a0 > 0.75 ? a1 + 0.5 : vec2(a0))).y;",
        ),
    ];
    for (what, body) in cases {
        let src = format!(
            "precision highp float;\nuniform float a0;\nuniform vec2 a1;\nfloat r;\n\
             void main() {{ {body} gl_FragColor = vec4(0.5); }}\n"
        );
        let ov = Overload {
            name: "join",
            args: vec![Type::Float, Type::Vec2],
            ret: Type::Float,
        };
        for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
            let (oracle, oracle_profile) = tree_walker(&ov, &src, model);
            for lanes in [1usize, 8] {
                let (got, profile) = spmd(&ov, &src, model, lanes);
                assert_same(&ov, what, model, &oracle, &got);
                assert_eq!(profile, oracle_profile, "{what} profile under {model:?}");
            }
        }
    }
}
