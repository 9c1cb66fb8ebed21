//! GLSL ES 1.00 builtin functions and type constructors.
//!
//! Two views are provided and must agree:
//!
//! * [`signature`] — static result-type computation used by the checker,
//! * [`call`] — dynamic evaluation used by the interpreter, threaded
//!   through the [`FloatModel`] so SFU-precision effects are modelled.

use crate::error::RuntimeError;
use crate::exec::{FloatModel, OpProfile, TextureAccess};
use crate::types::{Scalar, Type};
use crate::value::Value;

/// Evaluation context handed to builtins by the interpreter.
pub struct BuiltinCx<'a> {
    /// Float rounding model.
    pub model: FloatModel,
    /// Profile counters to update.
    pub profile: &'a mut OpProfile,
    /// Bound textures.
    pub textures: &'a dyn TextureAccess,
}

fn type_err(msg: impl Into<String>) -> RuntimeError {
    RuntimeError::Type {
        message: msg.into(),
    }
}

// ---------------------------------------------------------------------------
// Static signatures (used by sema)
// ---------------------------------------------------------------------------

fn is_gen(t: &Type) -> bool {
    matches!(t, Type::Float | Type::Vec2 | Type::Vec3 | Type::Vec4)
}

#[allow(dead_code)]
fn is_ivec(t: &Type) -> bool {
    matches!(t, Type::IVec2 | Type::IVec3 | Type::IVec4)
}

fn is_bvec(t: &Type) -> bool {
    matches!(t, Type::BVec2 | Type::BVec3 | Type::BVec4)
}

fn bvec_of_dim(dim: usize) -> Type {
    Type::vector_of(Scalar::Bool, dim).expect("bvec dim")
}

/// Declares [`BuiltinId`] and its name table from one list.
macro_rules! builtin_ids {
    ($($id:ident = $name:literal,)*) => {
        /// A builtin function or type constructor, resolved from its name
        /// once (at lowering, or per call in the tree-walker) so that
        /// [`call`] and the SPMD VM's fast paths switch on an enum rather
        /// than matching strings.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum BuiltinId {
            $(
                #[doc = concat!("`", $name, "`")]
                $id,
            )*
        }

        impl BuiltinId {
            /// Every builtin, in declaration order.
            pub const ALL: &'static [BuiltinId] = &[$(BuiltinId::$id,)*];

            /// The GLSL name.
            pub fn name(self) -> &'static str {
                match self {
                    $(BuiltinId::$id => $name,)*
                }
            }

            /// The builtin called `name`, if any: whether [`call`] can
            /// ever dispatch a call of that name for *some* argument list.
            pub fn from_name(name: &str) -> Option<BuiltinId> {
                match name {
                    $($name => Some(BuiltinId::$id),)*
                    _ => None,
                }
            }
        }
    };
}

builtin_ids! {
    Radians = "radians",
    Degrees = "degrees",
    Sin = "sin",
    Cos = "cos",
    Tan = "tan",
    Asin = "asin",
    Acos = "acos",
    Atan = "atan",
    Pow = "pow",
    Exp = "exp",
    Log = "log",
    Exp2 = "exp2",
    Log2 = "log2",
    Sqrt = "sqrt",
    InverseSqrt = "inversesqrt",
    Abs = "abs",
    Sign = "sign",
    Floor = "floor",
    Ceil = "ceil",
    Fract = "fract",
    Mod = "mod",
    Min = "min",
    Max = "max",
    Clamp = "clamp",
    Mix = "mix",
    Step = "step",
    SmoothStep = "smoothstep",
    Length = "length",
    Distance = "distance",
    Dot = "dot",
    Cross = "cross",
    Normalize = "normalize",
    FaceForward = "faceforward",
    Reflect = "reflect",
    Refract = "refract",
    MatrixCompMult = "matrixCompMult",
    LessThan = "lessThan",
    LessThanEqual = "lessThanEqual",
    GreaterThan = "greaterThan",
    GreaterThanEqual = "greaterThanEqual",
    Equal = "equal",
    NotEqual = "notEqual",
    Any = "any",
    All = "all",
    Not = "not",
    Texture2D = "texture2D",
    Texture2DProj = "texture2DProj",
    Float = "float",
    Int = "int",
    Bool = "bool",
    Vec2 = "vec2",
    Vec3 = "vec3",
    Vec4 = "vec4",
    IVec2 = "ivec2",
    IVec3 = "ivec3",
    IVec4 = "ivec4",
    BVec2 = "bvec2",
    BVec3 = "bvec3",
    BVec4 = "bvec4",
    Mat2 = "mat2",
    Mat3 = "mat3",
    Mat4 = "mat4",
}

impl BuiltinId {
    /// The type a constructor builds; `None` for builtin functions.
    fn constructs(self) -> Option<Type> {
        use BuiltinId as B;
        Some(match self {
            B::Float => Type::Float,
            B::Int => Type::Int,
            B::Bool => Type::Bool,
            B::Vec2 => Type::Vec2,
            B::Vec3 => Type::Vec3,
            B::Vec4 => Type::Vec4,
            B::IVec2 => Type::IVec2,
            B::IVec3 => Type::IVec3,
            B::IVec4 => Type::IVec4,
            B::BVec2 => Type::BVec2,
            B::BVec3 => Type::BVec3,
            B::BVec4 => Type::BVec4,
            B::Mat2 => Type::Mat2,
            B::Mat3 => Type::Mat3,
            B::Mat4 => Type::Mat4,
            _ => return None,
        })
    }
}

/// Computes the result type of a builtin call, or `None` if `name` is not a
/// builtin or the argument types do not match any overload.
pub fn signature(name: &str, args: &[Type]) -> Option<Type> {
    use Type::*;
    let a0 = args.first();
    match name {
        // genType → genType
        "radians" | "degrees" | "sin" | "cos" | "tan" | "asin" | "acos" | "exp" | "log"
        | "exp2" | "log2" | "sqrt" | "inversesqrt" | "abs" | "sign" | "floor" | "ceil"
        | "fract" | "normalize" => match (args.len(), a0) {
            (1, Some(t)) if is_gen(t) => Some(t.clone()),
            _ => None,
        },
        "atan" => match args {
            [t] if is_gen(t) => Some(t.clone()),
            [y, x] if is_gen(y) && y == x => Some(y.clone()),
            _ => None,
        },
        "pow" => match args {
            [x, y] if is_gen(x) && x == y => Some(x.clone()),
            _ => None,
        },
        "mod" | "min" | "max" => match args {
            [x, y] if is_gen(x) && x == y => Some(x.clone()),
            [x, Float] if is_gen(x) => Some(x.clone()),
            _ => None,
        },
        "clamp" => match args {
            [x, a, b] if is_gen(x) && x == a && a == b => Some(x.clone()),
            [x, Float, Float] if is_gen(x) => Some(x.clone()),
            _ => None,
        },
        "mix" => match args {
            [x, y, a] if is_gen(x) && x == y && y == a => Some(x.clone()),
            [x, y, Float] if is_gen(x) && x == y => Some(x.clone()),
            _ => None,
        },
        "step" => match args {
            [e, x] if is_gen(e) && e == x => Some(x.clone()),
            [Float, x] if is_gen(x) => Some(x.clone()),
            _ => None,
        },
        "smoothstep" => match args {
            [a, b, x] if is_gen(x) && a == b && b == x => Some(x.clone()),
            [Float, Float, x] if is_gen(x) => Some(x.clone()),
            _ => None,
        },
        "length" => match args {
            [t] if is_gen(t) => Some(Float),
            _ => None,
        },
        "distance" | "dot" => match args {
            [a, b] if is_gen(a) && a == b => Some(Float),
            _ => None,
        },
        "cross" => match args {
            [Vec3, Vec3] => Some(Vec3),
            _ => None,
        },
        "faceforward" => match args {
            [n, i, r] if is_gen(n) && n == i && i == r => Some(n.clone()),
            _ => None,
        },
        "reflect" => match args {
            [i, n] if is_gen(i) && i == n => Some(i.clone()),
            _ => None,
        },
        "refract" => match args {
            [i, n, Float] if is_gen(i) && i == n => Some(i.clone()),
            _ => None,
        },
        "matrixCompMult" => match args {
            [a, b] if a.is_matrix() && a == b => Some(a.clone()),
            _ => None,
        },
        "lessThan" | "lessThanEqual" | "greaterThan" | "greaterThanEqual" => match args {
            [a, b] if a == b && (a.is_vector() && !is_bvec(a)) => Some(bvec_of_dim(a.dim()?)),
            _ => None,
        },
        "equal" | "notEqual" => match args {
            [a, b] if a == b && a.is_vector() => Some(bvec_of_dim(a.dim()?)),
            _ => None,
        },
        "any" | "all" => match args {
            [t] if is_bvec(t) => Some(Bool),
            _ => None,
        },
        "not" => match args {
            [t] if is_bvec(t) => Some(t.clone()),
            _ => None,
        },
        "texture2D" => match args {
            [Sampler2D, Vec2] | [Sampler2D, Vec2, Float] => Some(Vec4),
            _ => None,
        },
        "texture2DProj" => match args {
            [Sampler2D, Vec3] | [Sampler2D, Vec4] => Some(Vec4),
            _ => None,
        },
        _ => constructor_signature(name, args),
    }
}

/// Result type for type constructors (`vec4(...)`, `float(...)`, …).
fn constructor_signature(name: &str, args: &[Type]) -> Option<Type> {
    let target = BuiltinId::from_name(name)?.constructs()?;
    if args.is_empty() {
        return None;
    }
    // All arguments must have numeric components.
    let mut total = 0usize;
    for a in args {
        total += a.component_count()?;
    }
    let needed = target.component_count().expect("constructible type");
    if target.is_matrix() {
        // mat(scalar) → diagonal; mat(mat) → resize; else exact components
        // (matrix arguments are only allowed in the single-argument form).
        let ok = (args.len() == 1 && (args[0].is_scalar() || args[0].is_matrix()))
            || (total == needed && args.iter().all(|a| !a.is_matrix()));
        return ok.then_some(target);
    }
    if target.is_scalar() {
        // Scalar conversions take one argument with ≥ 1 component.
        return (args.len() == 1).then_some(target);
    }
    // Vector: single scalar splat, single larger vector truncation, or
    // exact component total.
    let ok = (args.len() == 1 && (args[0].is_scalar() || total >= needed)) || total == needed;
    ok.then_some(target)
}

// ---------------------------------------------------------------------------
// Dynamic evaluation (used by the interpreter)
// ---------------------------------------------------------------------------

/// Float components + original shape for genType math.
struct Gen {
    comps: Vec<f32>,
    ty: Type,
}

fn gen_of(v: &Value) -> Result<Gen, RuntimeError> {
    match v {
        Value::Float(_) | Value::Vec2(_) | Value::Vec3(_) | Value::Vec4(_) => Ok(Gen {
            comps: v.float_components().expect("float-based"),
            ty: v.ty(),
        }),
        other => Err(type_err(format!(
            "expected float genType, found {}",
            other.ty()
        ))),
    }
}

fn gen_value(ty: &Type, comps: Vec<f32>) -> Value {
    match ty {
        Type::Float => Value::Float(comps[0]),
        Type::Vec2 => Value::Vec2([comps[0], comps[1]]),
        Type::Vec3 => Value::Vec3([comps[0], comps[1], comps[2]]),
        Type::Vec4 => Value::Vec4([comps[0], comps[1], comps[2], comps[3]]),
        _ => unreachable!("gen_value on non-genType"),
    }
}

fn map1(
    cx: &mut BuiltinCx<'_>,
    v: &Value,
    sfu: bool,
    f: impl Fn(f32) -> f32,
) -> Result<Value, RuntimeError> {
    // Scalar fast path, allocation-free.
    if let Value::Float(x) = v {
        if sfu {
            cx.profile.sfu_ops += 1;
            return Ok(Value::Float(cx.model.round_sfu(f(*x))));
        }
        cx.profile.alu_ops += 1;
        return Ok(Value::Float(cx.model.round_alu(f(*x))));
    }
    let g = gen_of(v)?;
    let n = g.comps.len() as u64;
    if sfu {
        cx.profile.sfu_ops += n;
    } else {
        cx.profile.alu_ops += n;
    }
    let round = |x: f32| {
        if sfu {
            cx.model.round_sfu(x)
        } else {
            cx.model.round_alu(x)
        }
    };
    let comps = g.comps.iter().map(|&x| round(f(x))).collect();
    Ok(gen_value(&g.ty, comps))
}

/// Component-wise binary map; `b` may be a scalar float broadcast.
fn map2(
    cx: &mut BuiltinCx<'_>,
    a: &Value,
    b: &Value,
    sfu: bool,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Value, RuntimeError> {
    // Scalar fast path, allocation-free.
    if let (Value::Float(x), Value::Float(y)) = (a, b) {
        if sfu {
            cx.profile.sfu_ops += 1;
            return Ok(Value::Float(cx.model.round_sfu(f(*x, *y))));
        }
        cx.profile.alu_ops += 1;
        return Ok(Value::Float(cx.model.round_alu(f(*x, *y))));
    }
    let ga = gen_of(a)?;
    let gb = gen_of(b)?;
    let n = ga.comps.len() as u64;
    if sfu {
        cx.profile.sfu_ops += n;
    } else {
        cx.profile.alu_ops += n;
    }
    let round = |x: f32| {
        if sfu {
            cx.model.round_sfu(x)
        } else {
            cx.model.round_alu(x)
        }
    };
    let comps: Vec<f32> = if gb.comps.len() == 1 && ga.comps.len() > 1 {
        ga.comps.iter().map(|&x| round(f(x, gb.comps[0]))).collect()
    } else if ga.comps.len() == gb.comps.len() {
        ga.comps
            .iter()
            .zip(&gb.comps)
            .map(|(&x, &y)| round(f(x, y)))
            .collect()
    } else {
        return Err(type_err(format!(
            "mismatched genType shapes {} and {}",
            ga.ty, gb.ty
        )));
    };
    Ok(gen_value(&ga.ty, comps))
}

fn map3(
    cx: &mut BuiltinCx<'_>,
    a: &Value,
    b: &Value,
    c: &Value,
    f: impl Fn(f32, f32, f32) -> f32,
) -> Result<Value, RuntimeError> {
    let ga = gen_of(a)?;
    let gb = gen_of(b)?;
    let gc = gen_of(c)?;
    let n = ga.comps.len();
    cx.profile.alu_ops += 2 * n as u64;
    let pick = |g: &Gen, i: usize| {
        if g.comps.len() == 1 {
            g.comps[0]
        } else {
            g.comps[i]
        }
    };
    if (gb.comps.len() != 1 && gb.comps.len() != n) || (gc.comps.len() != 1 && gc.comps.len() != n)
    {
        return Err(type_err("mismatched genType shapes in 3-ary builtin"));
    }
    let comps = (0..n)
        .map(|i| {
            cx.model
                .round_alu(f(ga.comps[i], pick(&gb, i), pick(&gc, i)))
        })
        .collect();
    Ok(gen_value(&ga.ty, comps))
}

/// `floor`, bit-identical to [`f32::floor`] but inline and branch-free:
/// without SSE4.1 `f32::floor` is an out-of-line `floorf` call, and a
/// codec kernel floors about a dozen times per fragment. Adding and
/// subtracting 2²³ (with `x`'s sign) rounds any `|x| < 2²³` to an integer
/// exactly; where that rounded up, step down one. `copysign` keeps
/// `floor(-0.0) == -0.0`. Larger magnitudes, infinities and NaN are
/// integral already and pass through unchanged.
#[inline]
pub fn floor_f32(x: f32) -> f32 {
    const TWO23: f32 = 8_388_608.0;
    let c = TWO23.copysign(x);
    let t = (x + c) - c;
    let r = if t > x { t - 1.0 } else { t }.copysign(x);
    if x.abs() < TWO23 {
        r
    } else {
        x
    }
}

/// `ceil` on [`floor_f32`]: `ceil(x) = -floor(-x)`, which also gets the
/// sign of zero right (`ceil(-0.5) == -0.0`).
#[inline]
pub(crate) fn ceil_f32(x: f32) -> f32 {
    -floor_f32(-x)
}

/// GLSL `fract(x) = x - floor(x)`.
#[inline]
pub(crate) fn fract_f32(x: f32) -> f32 {
    x - floor_f32(x)
}

/// GLSL `mod(x, y) = x - y * floor(x/y)`, computed in fp32 steps so the
/// float model applies as on hardware.
pub(crate) fn glsl_mod(x: f32, y: f32) -> f32 {
    x - y * floor_f32(x / y)
}

/// `exp2` with an exact fast path for integral arguments — powers of two
/// are exactly representable and the numeric transformations of §IV depend
/// on that exactness.
pub(crate) fn exp2_f32(x: f32) -> f32 {
    if floor_f32(x) == x && (-149.0..=127.0).contains(&x) {
        let e = x as i32;
        if e >= -126 {
            f32::from_bits(((e + 127) as u32) << 23)
        } else {
            // Subnormal powers of two.
            f32::from_bits(1u32 << (149 + e) as u32)
        }
    } else {
        x.exp2()
    }
}

fn dot_comps(cx: &mut BuiltinCx<'_>, a: &[f32], b: &[f32]) -> f32 {
    cx.profile.alu_ops += (2 * a.len()) as u64;
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc = cx.model.round_alu(acc + cx.model.round_alu(x * y));
    }
    acc
}

fn relational(
    cx: &mut BuiltinCx<'_>,
    a: &Value,
    b: &Value,
    f: impl Fn(f32, f32) -> bool,
) -> Result<Value, RuntimeError> {
    let ca = a
        .numeric_components()
        .ok_or_else(|| type_err("relational builtin needs vector operands"))?;
    let cb = b
        .numeric_components()
        .ok_or_else(|| type_err("relational builtin needs vector operands"))?;
    if ca.len() != cb.len() || !(2..=4).contains(&ca.len()) {
        return Err(type_err("relational builtin operand shape mismatch"));
    }
    cx.profile.alu_ops += ca.len() as u64;
    let bools: Vec<bool> = ca.iter().zip(&cb).map(|(&x, &y)| f(x, y)).collect();
    Ok(match bools.len() {
        2 => Value::BVec2([bools[0], bools[1]]),
        3 => Value::BVec3([bools[0], bools[1], bools[2]]),
        _ => Value::BVec4([bools[0], bools[1], bools[2], bools[3]]),
    })
}

fn bvec_comps(v: &Value) -> Result<Vec<bool>, RuntimeError> {
    match v {
        Value::BVec2(b) => Ok(b.to_vec()),
        Value::BVec3(b) => Ok(b.to_vec()),
        Value::BVec4(b) => Ok(b.to_vec()),
        other => Err(type_err(format!("expected bvec, found {}", other.ty()))),
    }
}

/// Evaluates builtin `id` on `args`.
///
/// Returns `None` if no overload of `id` takes `args` (the caller then
/// resolves a user-defined function of the same name).
pub fn call(
    id: BuiltinId,
    args: &[Value],
    cx: &mut BuiltinCx<'_>,
) -> Option<Result<Value, RuntimeError>> {
    use std::f32::consts::PI;
    use BuiltinId as B;
    let r = match (id, args) {
        (B::Radians, [x]) => map1(cx, x, false, |v| v * (PI / 180.0)),
        (B::Degrees, [x]) => map1(cx, x, false, |v| v * (180.0 / PI)),
        (B::Sin, [x]) => map1(cx, x, true, f32::sin),
        (B::Cos, [x]) => map1(cx, x, true, f32::cos),
        (B::Tan, [x]) => map1(cx, x, true, f32::tan),
        (B::Asin, [x]) => map1(cx, x, true, f32::asin),
        (B::Acos, [x]) => map1(cx, x, true, f32::acos),
        (B::Atan, [x]) => map1(cx, x, true, f32::atan),
        (B::Atan, [y, x]) => map2(cx, y, x, true, f32::atan2),
        (B::Pow, [x, y]) => map2(cx, x, y, true, f32::powf),
        (B::Exp, [x]) => map1(cx, x, true, f32::exp),
        (B::Log, [x]) => map1(cx, x, true, f32::ln),
        (B::Exp2, [x]) => map1(cx, x, true, exp2_f32),
        (B::Log2, [x]) => map1(cx, x, true, f32::log2),
        (B::Sqrt, [x]) => map1(cx, x, true, f32::sqrt),
        (B::InverseSqrt, [x]) => map1(cx, x, true, |v| 1.0 / v.sqrt()),
        (B::Abs, [x]) => map1(cx, x, false, f32::abs),
        (B::Sign, [x]) => map1(cx, x, false, |v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        }),
        (B::Floor, [x]) => map1(cx, x, false, floor_f32),
        (B::Ceil, [x]) => map1(cx, x, false, ceil_f32),
        (B::Fract, [x]) => map1(cx, x, false, fract_f32),
        (B::Mod, [x, y]) => map2(cx, x, y, false, glsl_mod),
        (B::Min, [x, y]) => map2(cx, x, y, false, f32::min),
        (B::Max, [x, y]) => map2(cx, x, y, false, f32::max),
        (B::Clamp, [x, a, b]) => map3(cx, x, a, b, |v, lo, hi| v.max(lo).min(hi)),
        (B::Mix, [x, y, a]) => map3(cx, x, y, a, |p, q, t| p * (1.0 - t) + q * t),
        (B::Step, [e, x]) => {
            // step(edge, x): edge may be scalar with vector x.
            let ge = match gen_of(e) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            let gx = match gen_of(x) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            cx.profile.alu_ops += gx.comps.len() as u64;
            let pick = |i: usize| {
                if ge.comps.len() == 1 {
                    ge.comps[0]
                } else {
                    ge.comps[i]
                }
            };
            let comps = (0..gx.comps.len())
                .map(|i| if gx.comps[i] < pick(i) { 0.0 } else { 1.0 })
                .collect();
            Ok(gen_value(&gx.ty, comps))
        }
        (B::SmoothStep, [e0, e1, x]) => {
            let g0 = match gen_of(e0) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            let g1 = match gen_of(e1) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            let gx = match gen_of(x) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            cx.profile.alu_ops += (5 * gx.comps.len()) as u64;
            let pick = |g: &Gen, i: usize| {
                if g.comps.len() == 1 {
                    g.comps[0]
                } else {
                    g.comps[i]
                }
            };
            let comps = (0..gx.comps.len())
                .map(|i| {
                    let (a, b, v) = (pick(&g0, i), pick(&g1, i), gx.comps[i]);
                    let t = ((v - a) / (b - a)).clamp(0.0, 1.0);
                    cx.model.round_alu(t * t * (3.0 - 2.0 * t))
                })
                .collect();
            Ok(gen_value(&gx.ty, comps))
        }
        (B::Length, [x]) => gen_of(x).map(|g| {
            let d = dot_comps(cx, &g.comps, &g.comps);
            cx.profile.sfu_ops += 1;
            Value::Float(cx.model.round_sfu(d.sqrt()))
        }),
        (B::Distance, [a, b]) => match (gen_of(a), gen_of(b)) {
            (Ok(ga), Ok(gb)) => {
                let diff: Vec<f32> = ga
                    .comps
                    .iter()
                    .zip(&gb.comps)
                    .map(|(&x, &y)| cx.model.round_alu(x - y))
                    .collect();
                let d = dot_comps(cx, &diff, &diff);
                cx.profile.sfu_ops += 1;
                Ok(Value::Float(cx.model.round_sfu(d.sqrt())))
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
        (B::Dot, [a, b]) => match (gen_of(a), gen_of(b)) {
            (Ok(ga), Ok(gb)) => Ok(Value::Float(dot_comps(cx, &ga.comps, &gb.comps))),
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
        (B::Cross, [a, b]) => match (a, b) {
            (Value::Vec3(a), Value::Vec3(b)) => {
                cx.profile.alu_ops += 9;
                Ok(Value::Vec3([
                    cx.model.round_alu(a[1] * b[2] - a[2] * b[1]),
                    cx.model.round_alu(a[2] * b[0] - a[0] * b[2]),
                    cx.model.round_alu(a[0] * b[1] - a[1] * b[0]),
                ]))
            }
            _ => Err(type_err("cross requires two vec3 operands")),
        },
        (B::Normalize, [x]) => gen_of(x).map(|g| {
            let d = dot_comps(cx, &g.comps, &g.comps);
            cx.profile.sfu_ops += 1;
            let inv = cx.model.round_sfu(1.0 / d.sqrt());
            let comps = g
                .comps
                .iter()
                .map(|&c| cx.model.round_alu(c * inv))
                .collect();
            gen_value(&g.ty, comps)
        }),
        (B::FaceForward, [n, i, nref]) => match (gen_of(n), gen_of(i), gen_of(nref)) {
            (Ok(gn), Ok(gi), Ok(gr)) => {
                let d = dot_comps(cx, &gr.comps, &gi.comps);
                let comps = if d < 0.0 {
                    gn.comps
                } else {
                    gn.comps.iter().map(|&c| -c).collect()
                };
                Ok(gen_value(&gn.ty, comps))
            }
            _ => Err(type_err("faceforward requires genType operands")),
        },
        (B::Reflect, [i, n]) => match (gen_of(i), gen_of(n)) {
            (Ok(gi), Ok(gn)) => {
                let d = dot_comps(cx, &gn.comps, &gi.comps);
                let comps = gi
                    .comps
                    .iter()
                    .zip(&gn.comps)
                    .map(|(&iv, &nv)| cx.model.round_alu(iv - 2.0 * d * nv))
                    .collect();
                Ok(gen_value(&gi.ty, comps))
            }
            _ => Err(type_err("reflect requires genType operands")),
        },
        (B::Refract, [i, n, eta]) => match (gen_of(i), gen_of(n), eta.as_f32()) {
            (Ok(gi), Ok(gn), Some(eta)) => {
                let d = dot_comps(cx, &gn.comps, &gi.comps);
                let k = 1.0 - eta * eta * (1.0 - d * d);
                cx.profile.sfu_ops += 1;
                let comps = if k < 0.0 {
                    vec![0.0; gi.comps.len()]
                } else {
                    let s = eta * d + cx.model.round_sfu(k.sqrt());
                    gi.comps
                        .iter()
                        .zip(&gn.comps)
                        .map(|(&iv, &nv)| cx.model.round_alu(eta * iv - s * nv))
                        .collect()
                };
                Ok(gen_value(&gi.ty, comps))
            }
            _ => Err(type_err("refract requires (genType, genType, float)")),
        },
        (B::MatrixCompMult, [a, b]) => match (a, b) {
            (Value::Mat2(x), Value::Mat2(y)) => {
                cx.profile.alu_ops += 4;
                let mut m = [[0.0; 2]; 2];
                for c in 0..2 {
                    for r in 0..2 {
                        m[c][r] = cx.model.round_alu(x[c][r] * y[c][r]);
                    }
                }
                Ok(Value::Mat2(m))
            }
            (Value::Mat3(x), Value::Mat3(y)) => {
                cx.profile.alu_ops += 9;
                let mut m = [[0.0; 3]; 3];
                for c in 0..3 {
                    for r in 0..3 {
                        m[c][r] = cx.model.round_alu(x[c][r] * y[c][r]);
                    }
                }
                Ok(Value::Mat3(m))
            }
            (Value::Mat4(x), Value::Mat4(y)) => {
                cx.profile.alu_ops += 16;
                let mut m = [[0.0; 4]; 4];
                for c in 0..4 {
                    for r in 0..4 {
                        m[c][r] = cx.model.round_alu(x[c][r] * y[c][r]);
                    }
                }
                Ok(Value::Mat4(m))
            }
            _ => Err(type_err("matrixCompMult requires two equal matrices")),
        },
        (B::LessThan, [a, b]) => relational(cx, a, b, |x, y| x < y),
        (B::LessThanEqual, [a, b]) => relational(cx, a, b, |x, y| x <= y),
        (B::GreaterThan, [a, b]) => relational(cx, a, b, |x, y| x > y),
        (B::GreaterThanEqual, [a, b]) => relational(cx, a, b, |x, y| x >= y),
        (B::Equal, [a, b]) => match (a, b) {
            (Value::BVec2(x), Value::BVec2(y)) => Ok(Value::BVec2([x[0] == y[0], x[1] == y[1]])),
            (Value::BVec3(x), Value::BVec3(y)) => {
                Ok(Value::BVec3([x[0] == y[0], x[1] == y[1], x[2] == y[2]]))
            }
            (Value::BVec4(x), Value::BVec4(y)) => Ok(Value::BVec4([
                x[0] == y[0],
                x[1] == y[1],
                x[2] == y[2],
                x[3] == y[3],
            ])),
            _ => relational(cx, a, b, |x, y| x == y),
        },
        (B::NotEqual, [a, b]) => match (a, b) {
            (Value::BVec2(x), Value::BVec2(y)) => Ok(Value::BVec2([x[0] != y[0], x[1] != y[1]])),
            (Value::BVec3(x), Value::BVec3(y)) => {
                Ok(Value::BVec3([x[0] != y[0], x[1] != y[1], x[2] != y[2]]))
            }
            (Value::BVec4(x), Value::BVec4(y)) => Ok(Value::BVec4([
                x[0] != y[0],
                x[1] != y[1],
                x[2] != y[2],
                x[3] != y[3],
            ])),
            _ => relational(cx, a, b, |x, y| x != y),
        },
        (B::Any, [v]) => bvec_comps(v).map(|b| Value::Bool(b.iter().any(|&x| x))),
        (B::All, [v]) => bvec_comps(v).map(|b| Value::Bool(b.iter().all(|&x| x))),
        (B::Not, [v]) => bvec_comps(v).map(|b| {
            let inv: Vec<bool> = b.iter().map(|&x| !x).collect();
            match inv.len() {
                2 => Value::BVec2([inv[0], inv[1]]),
                3 => Value::BVec3([inv[0], inv[1], inv[2]]),
                _ => Value::BVec4([inv[0], inv[1], inv[2], inv[3]]),
            }
        }),
        (B::Texture2D, [Value::Sampler(unit), Value::Vec2(coord)]) => {
            cx.profile.tex_fetches += 1;
            Ok(Value::Vec4(cx.textures.sample(*unit, *coord)))
        }
        (B::Texture2D, [Value::Sampler(unit), Value::Vec2(coord), Value::Float(_bias)]) => {
            // No mipmaps in this subset: the bias argument is ignored.
            cx.profile.tex_fetches += 1;
            Ok(Value::Vec4(cx.textures.sample(*unit, *coord)))
        }
        (B::Texture2DProj, [Value::Sampler(unit), v]) => match v {
            Value::Vec3(c) => {
                cx.profile.tex_fetches += 1;
                cx.profile.alu_ops += 2;
                Ok(Value::Vec4(
                    cx.textures.sample(*unit, [c[0] / c[2], c[1] / c[2]]),
                ))
            }
            Value::Vec4(c) => {
                cx.profile.tex_fetches += 1;
                cx.profile.alu_ops += 2;
                Ok(Value::Vec4(
                    cx.textures.sample(*unit, [c[0] / c[3], c[1] / c[3]]),
                ))
            }
            _ => Err(type_err("texture2DProj requires vec3 or vec4 coord")),
        },
        _ => return constructor(id, args, cx),
    };
    Some(r)
}

/// Evaluates a type constructor, or returns `None` if `id` is not one.
fn constructor(
    id: BuiltinId,
    args: &[Value],
    cx: &mut BuiltinCx<'_>,
) -> Option<Result<Value, RuntimeError>> {
    Some(build(id.constructs()?, args, cx))
}

fn build(target: Type, args: &[Value], cx: &mut BuiltinCx<'_>) -> Result<Value, RuntimeError> {
    if args.is_empty() {
        return Err(type_err(format!("constructor {target}() needs arguments")));
    }
    // Matrix-from-matrix resize.
    if target.is_matrix() && args.len() == 1 {
        if let Some(src_cols) = match &args[0] {
            Value::Mat2(_) => Some(2usize),
            Value::Mat3(_) => Some(3),
            Value::Mat4(_) => Some(4),
            _ => None,
        } {
            let get = |c: usize, r: usize| -> f32 {
                let v = match &args[0] {
                    Value::Mat2(m) => {
                        if c < 2 && r < 2 {
                            Some(m[c][r])
                        } else {
                            None
                        }
                    }
                    Value::Mat3(m) => {
                        if c < 3 && r < 3 {
                            Some(m[c][r])
                        } else {
                            None
                        }
                    }
                    Value::Mat4(m) => {
                        if c < 4 && r < 4 {
                            Some(m[c][r])
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                v.unwrap_or(if c == r { 1.0 } else { 0.0 })
            };
            let _ = src_cols;
            return Ok(match target {
                Type::Mat2 => {
                    let mut m = [[0.0; 2]; 2];
                    for (c, col) in m.iter_mut().enumerate() {
                        for (r, cell) in col.iter_mut().enumerate() {
                            *cell = get(c, r);
                        }
                    }
                    Value::Mat2(m)
                }
                Type::Mat3 => {
                    let mut m = [[0.0; 3]; 3];
                    for (c, col) in m.iter_mut().enumerate() {
                        for (r, cell) in col.iter_mut().enumerate() {
                            *cell = get(c, r);
                        }
                    }
                    Value::Mat3(m)
                }
                _ => {
                    let mut m = [[0.0; 4]; 4];
                    for (c, col) in m.iter_mut().enumerate() {
                        for (r, cell) in col.iter_mut().enumerate() {
                            *cell = get(c, r);
                        }
                    }
                    Value::Mat4(m)
                }
            });
        }
    }

    let mut comps: Vec<f32> = Vec::new();
    for a in args {
        let mut c = a
            .numeric_components()
            .ok_or_else(|| type_err(format!("{} cannot be a constructor argument", a.ty())))?;
        comps.append(&mut c);
    }
    cx.profile.alu_ops += comps.len() as u64;

    if target.is_scalar() {
        if args.len() != 1 {
            return Err(type_err("scalar constructors take exactly one argument"));
        }
        let v = comps[0];
        return Ok(match target {
            Type::Float => Value::Float(v),
            // GLSL int() truncates toward zero.
            Type::Int => Value::Int(v as i32),
            _ => Value::Bool(v != 0.0),
        });
    }

    if target.is_matrix() {
        let dim = target.dim().expect("matrix dim");
        let needed = dim * dim;
        if comps.len() == 1 {
            // Diagonal matrix from one scalar.
            let s = comps[0];
            return Ok(match target {
                Type::Mat2 => Value::Mat2([[s, 0.0], [0.0, s]]),
                Type::Mat3 => Value::Mat3([[s, 0.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, s]]),
                _ => Value::Mat4([
                    [s, 0.0, 0.0, 0.0],
                    [0.0, s, 0.0, 0.0],
                    [0.0, 0.0, s, 0.0],
                    [0.0, 0.0, 0.0, s],
                ]),
            });
        }
        if comps.len() != needed {
            return Err(type_err(format!(
                "{target} constructor needs {needed} components, got {}",
                comps.len()
            )));
        }
        return Ok(match target {
            Type::Mat2 => Value::Mat2([[comps[0], comps[1]], [comps[2], comps[3]]]),
            Type::Mat3 => Value::Mat3([
                [comps[0], comps[1], comps[2]],
                [comps[3], comps[4], comps[5]],
                [comps[6], comps[7], comps[8]],
            ]),
            _ => Value::Mat4([
                [comps[0], comps[1], comps[2], comps[3]],
                [comps[4], comps[5], comps[6], comps[7]],
                [comps[8], comps[9], comps[10], comps[11]],
                [comps[12], comps[13], comps[14], comps[15]],
            ]),
        });
    }

    // Vector target.
    let dim = target.dim().expect("vector dim");
    let scalar = target.scalar().expect("vector scalar");
    if comps.len() == 1 {
        let splat = vec![comps[0]; dim];
        return Ok(Value::from_components(scalar, &splat));
    }
    if comps.len() < dim {
        return Err(type_err(format!(
            "{target} constructor needs {dim} components, got {}",
            comps.len()
        )));
    }
    if comps.len() > dim && args.len() > 1 {
        return Err(type_err(format!(
            "{target} constructor given {} components",
            comps.len()
        )));
    }
    Ok(Value::from_components(scalar, &comps[..dim]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::NoTextures;

    /// Pins the name table to the dispatch table: every [`BuiltinId`]
    /// round-trips through its name and dispatches in [`call`] for at
    /// least one probe argument list, and other names resolve to no id.
    /// (The bytecode lowerer relies on this: a call whose name has no id
    /// can never be intercepted by the builtin layer.)
    #[test]
    fn every_builtin_id_round_trips_and_dispatches() {
        let probes: [&[Value]; 8] = [
            &[Value::Float(0.5)],
            &[Value::Float(0.5), Value::Float(0.25)],
            &[Value::Float(0.5), Value::Float(0.25), Value::Float(0.75)],
            &[Value::Vec3([1.0, 0.0, 0.0]), Value::Vec3([0.0, 1.0, 0.0])],
            &[Value::Vec2([0.5, 0.5]), Value::Vec2([0.25, 0.75])],
            &[Value::BVec2([true, false])],
            &[Value::Sampler(0), Value::Vec2([0.5, 0.5])],
            &[
                Value::Vec4([1.0, 0.0, 0.0, 1.0]),
                Value::Vec4([0.0, 1.0, 0.0, 1.0]),
                Value::Float(0.5),
            ],
        ];
        let dispatches = |id: BuiltinId| {
            probes.iter().any(|args| {
                let mut profile = OpProfile::new();
                let mut cx = BuiltinCx {
                    model: FloatModel::Exact,
                    profile: &mut profile,
                    textures: &NoTextures,
                };
                call(id, args, &mut cx).is_some()
            })
        };
        assert_eq!(BuiltinId::ALL.len(), 62);
        for &id in BuiltinId::ALL {
            assert_eq!(BuiltinId::from_name(id.name()), Some(id));
            assert!(
                dispatches(id),
                "`{}` claimed builtin but no probe dispatched — extend the probes",
                id.name()
            );
        }
        for name in [
            "kernel",
            "fetch_x",
            "helper",
            "main",
            "gpes_pack_float",
            "nosuch",
        ] {
            assert_eq!(
                BuiltinId::from_name(name),
                None,
                "`{name}` wrongly claimed builtin"
            );
        }
    }

    fn cx_eval(name: &str, args: &[Value]) -> Value {
        let mut profile = OpProfile::new();
        let mut cx = BuiltinCx {
            model: FloatModel::Exact,
            profile: &mut profile,
            textures: &NoTextures,
        };
        let id = BuiltinId::from_name(name).unwrap_or_else(|| panic!("{name} is not a builtin"));
        call(id, args, &mut cx)
            .unwrap_or_else(|| panic!("{name} has no such overload"))
            .unwrap_or_else(|e| panic!("{name} failed: {e}"))
    }

    #[test]
    fn floor_and_mod_match_glsl() {
        assert_eq!(cx_eval("floor", &[Value::Float(2.7)]), Value::Float(2.0));
        assert_eq!(
            cx_eval("mod", &[Value::Float(7.0), Value::Float(4.0)]),
            Value::Float(3.0)
        );
        // GLSL mod of negative: mod(-1, 4) = 3 (unlike fmod).
        assert_eq!(
            cx_eval("mod", &[Value::Float(-1.0), Value::Float(4.0)]),
            Value::Float(3.0)
        );
    }

    /// `floor_f32` and `ceil_f32` against the std (libm) versions, bit
    /// for bit: the edge classes, then every 4093rd bit pattern of the
    /// whole `u32` space (an odd stride, so every exponent and both signs
    /// are visited with varied mantissas). Signalling NaNs compare up to
    /// the quiet bit, because std is not bit-stable there itself: LLVM's
    /// constant folding of `f32::floor` quiets them, the runtime `floorf`
    /// passes them through.
    #[test]
    fn floor_helper_is_bit_identical_to_std() {
        let same = |a: f32, b: f32| {
            let quiet = |v: f32| v.to_bits() | if v.is_nan() { 0x0040_0000 } else { 0 };
            quiet(a) == quiet(b)
        };
        let check = |x: f32| {
            assert!(same(floor_f32(x), x.floor()), "floor({x:e})");
            assert!(same(ceil_f32(x), x.ceil()), "ceil({x:e})");
            assert!(same(fract_f32(x), x - x.floor()), "fract({x:e})");
        };
        let two23 = 8_388_608.0f32;
        for x in [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            0.5,
            -0.5,
            0.999_999_94,
            -0.999_999_94,
            1.0,
            -1.0,
            two23 - 1.0,
            two23 - 0.5,
            two23,
            two23 + 1.0,
            -(two23 - 1.0),
            -(two23 - 0.5),
            -two23,
            -(two23 + 1.0),
            2.0 * two23 + 2.0,
            f32::MAX,
            -f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
        ] {
            check(x);
        }
        let mut bits = 0u64;
        while bits <= u64::from(u32::MAX) {
            check(f32::from_bits(bits as u32));
            bits += 4093;
        }
    }

    #[test]
    fn exp2_is_exact_for_integers() {
        for e in [-126, -24, -1, 0, 1, 10, 24, 127] {
            let v = cx_eval("exp2", &[Value::Float(e as f32)]);
            assert_eq!(v, Value::Float(2.0f32.powi(e)), "exp2({e})");
        }
        // Subnormal power: 2^-140 = 2^9 ulps of the subnormal range.
        assert_eq!(
            cx_eval("exp2", &[Value::Float(-140.0)]),
            Value::Float(f32::from_bits(1 << 9))
        );
    }

    #[test]
    fn componentwise_on_vectors() {
        let v = cx_eval("abs", &[Value::Vec3([-1.0, 2.0, -3.0])]);
        assert_eq!(v, Value::Vec3([1.0, 2.0, 3.0]));
        let v = cx_eval("min", &[Value::Vec2([1.0, 5.0]), Value::Float(2.0)]);
        assert_eq!(v, Value::Vec2([1.0, 2.0]));
    }

    #[test]
    fn clamp_scalar_bounds_on_vector() {
        let v = cx_eval(
            "clamp",
            &[
                Value::Vec3([-1.0, 0.5, 2.0]),
                Value::Float(0.0),
                Value::Float(1.0),
            ],
        );
        assert_eq!(v, Value::Vec3([0.0, 0.5, 1.0]));
    }

    #[test]
    fn dot_and_length() {
        let v = cx_eval(
            "dot",
            &[Value::Vec3([1.0, 2.0, 3.0]), Value::Vec3([4.0, 5.0, 6.0])],
        );
        assert_eq!(v, Value::Float(32.0));
        let v = cx_eval("length", &[Value::Vec2([3.0, 4.0])]);
        assert_eq!(v, Value::Float(5.0));
    }

    #[test]
    fn cross_product() {
        let v = cx_eval(
            "cross",
            &[Value::Vec3([1.0, 0.0, 0.0]), Value::Vec3([0.0, 1.0, 0.0])],
        );
        assert_eq!(v, Value::Vec3([0.0, 0.0, 1.0]));
    }

    #[test]
    fn relational_builtins() {
        let v = cx_eval(
            "lessThan",
            &[Value::Vec2([1.0, 5.0]), Value::Vec2([2.0, 2.0])],
        );
        assert_eq!(v, Value::BVec2([true, false]));
        assert_eq!(cx_eval("any", std::slice::from_ref(&v)), Value::Bool(true));
        assert_eq!(cx_eval("all", &[v]), Value::Bool(false));
    }

    #[test]
    fn constructors() {
        assert_eq!(
            cx_eval("vec3", &[Value::Float(2.0)]),
            Value::Vec3([2.0, 2.0, 2.0])
        );
        assert_eq!(
            cx_eval(
                "vec4",
                &[
                    Value::Vec2([1.0, 2.0]),
                    Value::Float(3.0),
                    Value::Float(4.0)
                ]
            ),
            Value::Vec4([1.0, 2.0, 3.0, 4.0])
        );
        // Truncating constructor from a larger vector.
        assert_eq!(
            cx_eval("vec2", &[Value::Vec4([1.0, 2.0, 3.0, 4.0])]),
            Value::Vec2([1.0, 2.0])
        );
        assert_eq!(cx_eval("int", &[Value::Float(-2.9)]), Value::Int(-2));
        assert_eq!(cx_eval("float", &[Value::Int(7)]), Value::Float(7.0));
        assert_eq!(cx_eval("bool", &[Value::Float(0.0)]), Value::Bool(false));
    }

    #[test]
    fn matrix_constructors() {
        let m = cx_eval("mat2", &[Value::Float(3.0)]);
        assert_eq!(m, Value::Mat2([[3.0, 0.0], [0.0, 3.0]]));
        let m = cx_eval("mat2", &[Value::Vec2([1.0, 2.0]), Value::Vec2([3.0, 4.0])]);
        assert_eq!(m, Value::Mat2([[1.0, 2.0], [3.0, 4.0]]));
        // mat3 from mat2 pads with identity.
        let m2 = Value::Mat2([[1.0, 2.0], [3.0, 4.0]]);
        let m3 = cx_eval("mat3", &[m2]);
        assert_eq!(
            m3,
            Value::Mat3([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        );
    }

    #[test]
    fn signature_agreement_for_common_cases() {
        use Type::*;
        assert_eq!(signature("floor", &[Vec3]), Some(Vec3));
        assert_eq!(signature("mod", &[Vec4, Float]), Some(Vec4));
        assert_eq!(signature("dot", &[Vec3, Vec3]), Some(Float));
        assert_eq!(signature("texture2D", &[Sampler2D, Vec2]), Some(Vec4));
        assert_eq!(signature("lessThan", &[IVec2, IVec2]), Some(BVec2));
        assert_eq!(signature("vec4", &[Vec2, Float, Float]), Some(Vec4));
        assert_eq!(signature("mat2", &[Float]), Some(Mat2));
        assert_eq!(signature("float", &[Int]), Some(Float));
        // Mismatches:
        assert_eq!(signature("dot", &[Vec3, Vec2]), None);
        assert_eq!(signature("floor", &[Int]), None);
        assert_eq!(signature("vec3", &[Vec2]), None); // too few components
        assert_eq!(signature("nosuch", &[Float]), None);
    }

    #[test]
    fn sfu_counting() {
        let mut profile = OpProfile::new();
        let mut cx = BuiltinCx {
            model: FloatModel::Exact,
            profile: &mut profile,
            textures: &NoTextures,
        };
        call(BuiltinId::Exp2, &[Value::Vec2([1.0, 2.0])], &mut cx)
            .expect("builtin")
            .expect("ok");
        assert_eq!(profile.sfu_ops, 2);
        assert_eq!(profile.alu_ops, 0);
    }

    #[test]
    fn vc4_model_degrades_log2() {
        let mut profile = OpProfile::new();
        let mut cx = BuiltinCx {
            model: FloatModel::Vc4Sfu,
            profile: &mut profile,
            textures: &NoTextures,
        };
        let exact = 10.0f32.log2();
        let v = call(BuiltinId::Log2, &[Value::Float(10.0)], &mut cx)
            .expect("builtin")
            .expect("ok");
        let got = v.as_f32().expect("float");
        assert_ne!(got, exact);
        assert!((got - exact).abs() / exact < 2.0f32.powi(-15));
    }

    #[test]
    fn mix_interpolates() {
        let v = cx_eval(
            "mix",
            &[Value::Float(0.0), Value::Float(10.0), Value::Float(0.25)],
        );
        assert_eq!(v, Value::Float(2.5));
    }

    #[test]
    fn step_with_scalar_edge() {
        let v = cx_eval("step", &[Value::Float(0.5), Value::Vec2([0.2, 0.9])]);
        assert_eq!(v, Value::Vec2([0.0, 1.0]));
    }
}
