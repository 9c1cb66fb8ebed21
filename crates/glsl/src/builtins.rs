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

/// Whether `name` could dispatch to a builtin function or constructor for
/// *some* argument list — i.e. whether [`call`] can ever return `Some`
/// for it. Used by the bytecode lowerer, which must know statically when
/// a user call site can be intercepted by the builtin layer.
pub(crate) fn is_builtin_name(name: &str) -> bool {
    matches!(
        name,
        "radians"
            | "degrees"
            | "sin"
            | "cos"
            | "tan"
            | "asin"
            | "acos"
            | "atan"
            | "pow"
            | "exp"
            | "log"
            | "exp2"
            | "log2"
            | "sqrt"
            | "inversesqrt"
            | "abs"
            | "sign"
            | "floor"
            | "ceil"
            | "fract"
            | "mod"
            | "min"
            | "max"
            | "clamp"
            | "mix"
            | "step"
            | "smoothstep"
            | "length"
            | "distance"
            | "dot"
            | "cross"
            | "normalize"
            | "faceforward"
            | "reflect"
            | "refract"
            | "matrixCompMult"
            | "lessThan"
            | "lessThanEqual"
            | "greaterThan"
            | "greaterThanEqual"
            | "equal"
            | "notEqual"
            | "any"
            | "all"
            | "not"
            | "texture2D"
            | "texture2DProj"
            | "float"
            | "int"
            | "bool"
            | "vec2"
            | "vec3"
            | "vec4"
            | "ivec2"
            | "ivec3"
            | "ivec4"
            | "bvec2"
            | "bvec3"
            | "bvec4"
            | "mat2"
            | "mat3"
            | "mat4"
    )
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
    let target = match name {
        "float" => Type::Float,
        "int" => Type::Int,
        "bool" => Type::Bool,
        "vec2" => Type::Vec2,
        "vec3" => Type::Vec3,
        "vec4" => Type::Vec4,
        "ivec2" => Type::IVec2,
        "ivec3" => Type::IVec3,
        "ivec4" => Type::IVec4,
        "bvec2" => Type::BVec2,
        "bvec3" => Type::BVec3,
        "bvec4" => Type::BVec4,
        "mat2" => Type::Mat2,
        "mat3" => Type::Mat3,
        "mat4" => Type::Mat4,
        _ => return None,
    };
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

/// GLSL `mod(x, y) = x - y * floor(x/y)`, computed in fp32 steps so the
/// float model applies as on hardware.
pub(crate) fn glsl_mod(x: f32, y: f32) -> f32 {
    x - y * (x / y).floor()
}

/// `exp2` with an exact fast path for integral arguments — powers of two
/// are exactly representable and the numeric transformations of §IV depend
/// on that exactness.
pub(crate) fn exp2_f32(x: f32) -> f32 {
    if x.fract() == 0.0 && (-149.0..=127.0).contains(&x) {
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

/// Evaluates builtin `name` on `args`.
///
/// Returns `None` if `name` is not a builtin or constructor (the caller
/// then resolves a user-defined function).
pub fn call(
    name: &str,
    args: &[Value],
    cx: &mut BuiltinCx<'_>,
) -> Option<Result<Value, RuntimeError>> {
    use std::f32::consts::PI;
    let r = match (name, args) {
        ("radians", [x]) => map1(cx, x, false, |v| v * (PI / 180.0)),
        ("degrees", [x]) => map1(cx, x, false, |v| v * (180.0 / PI)),
        ("sin", [x]) => map1(cx, x, true, f32::sin),
        ("cos", [x]) => map1(cx, x, true, f32::cos),
        ("tan", [x]) => map1(cx, x, true, f32::tan),
        ("asin", [x]) => map1(cx, x, true, f32::asin),
        ("acos", [x]) => map1(cx, x, true, f32::acos),
        ("atan", [x]) => map1(cx, x, true, f32::atan),
        ("atan", [y, x]) => map2(cx, y, x, true, f32::atan2),
        ("pow", [x, y]) => map2(cx, x, y, true, f32::powf),
        ("exp", [x]) => map1(cx, x, true, f32::exp),
        ("log", [x]) => map1(cx, x, true, f32::ln),
        ("exp2", [x]) => map1(cx, x, true, exp2_f32),
        ("log2", [x]) => map1(cx, x, true, f32::log2),
        ("sqrt", [x]) => map1(cx, x, true, f32::sqrt),
        ("inversesqrt", [x]) => map1(cx, x, true, |v| 1.0 / v.sqrt()),
        ("abs", [x]) => map1(cx, x, false, f32::abs),
        ("sign", [x]) => map1(cx, x, false, |v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        }),
        ("floor", [x]) => map1(cx, x, false, f32::floor),
        ("ceil", [x]) => map1(cx, x, false, f32::ceil),
        ("fract", [x]) => map1(cx, x, false, |v| v - v.floor()),
        ("mod", [x, y]) => map2(cx, x, y, false, glsl_mod),
        ("min", [x, y]) => map2(cx, x, y, false, f32::min),
        ("max", [x, y]) => map2(cx, x, y, false, f32::max),
        ("clamp", [x, a, b]) => map3(cx, x, a, b, |v, lo, hi| v.max(lo).min(hi)),
        ("mix", [x, y, a]) => map3(cx, x, y, a, |p, q, t| p * (1.0 - t) + q * t),
        ("step", [e, x]) => {
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
        ("smoothstep", [e0, e1, x]) => {
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
        ("length", [x]) => gen_of(x).map(|g| {
            let d = dot_comps(cx, &g.comps, &g.comps);
            cx.profile.sfu_ops += 1;
            Value::Float(cx.model.round_sfu(d.sqrt()))
        }),
        ("distance", [a, b]) => match (gen_of(a), gen_of(b)) {
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
        ("dot", [a, b]) => match (gen_of(a), gen_of(b)) {
            (Ok(ga), Ok(gb)) => Ok(Value::Float(dot_comps(cx, &ga.comps, &gb.comps))),
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
        ("cross", [a, b]) => match (a, b) {
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
        ("normalize", [x]) => gen_of(x).map(|g| {
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
        ("faceforward", [n, i, nref]) => match (gen_of(n), gen_of(i), gen_of(nref)) {
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
        ("reflect", [i, n]) => match (gen_of(i), gen_of(n)) {
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
        ("refract", [i, n, eta]) => match (gen_of(i), gen_of(n), eta.as_f32()) {
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
        ("matrixCompMult", [a, b]) => match (a, b) {
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
        ("lessThan", [a, b]) => relational(cx, a, b, |x, y| x < y),
        ("lessThanEqual", [a, b]) => relational(cx, a, b, |x, y| x <= y),
        ("greaterThan", [a, b]) => relational(cx, a, b, |x, y| x > y),
        ("greaterThanEqual", [a, b]) => relational(cx, a, b, |x, y| x >= y),
        ("equal", [a, b]) => match (a, b) {
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
        ("notEqual", [a, b]) => match (a, b) {
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
        ("any", [v]) => bvec_comps(v).map(|b| Value::Bool(b.iter().any(|&x| x))),
        ("all", [v]) => bvec_comps(v).map(|b| Value::Bool(b.iter().all(|&x| x))),
        ("not", [v]) => bvec_comps(v).map(|b| {
            let inv: Vec<bool> = b.iter().map(|&x| !x).collect();
            match inv.len() {
                2 => Value::BVec2([inv[0], inv[1]]),
                3 => Value::BVec3([inv[0], inv[1], inv[2]]),
                _ => Value::BVec4([inv[0], inv[1], inv[2], inv[3]]),
            }
        }),
        ("texture2D", [Value::Sampler(unit), Value::Vec2(coord)]) => {
            cx.profile.tex_fetches += 1;
            Ok(Value::Vec4(cx.textures.sample(*unit, *coord)))
        }
        ("texture2D", [Value::Sampler(unit), Value::Vec2(coord), Value::Float(_bias)]) => {
            // No mipmaps in this subset: the bias argument is ignored.
            cx.profile.tex_fetches += 1;
            Ok(Value::Vec4(cx.textures.sample(*unit, *coord)))
        }
        ("texture2DProj", [Value::Sampler(unit), v]) => match v {
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
        _ => return constructor(name, args, cx),
    };
    Some(r)
}

/// Evaluates a type constructor, or returns `None` if `name` is not one.
fn constructor(
    name: &str,
    args: &[Value],
    cx: &mut BuiltinCx<'_>,
) -> Option<Result<Value, RuntimeError>> {
    let target = match name {
        "float" => Type::Float,
        "int" => Type::Int,
        "bool" => Type::Bool,
        "vec2" => Type::Vec2,
        "vec3" => Type::Vec3,
        "vec4" => Type::Vec4,
        "ivec2" => Type::IVec2,
        "ivec3" => Type::IVec3,
        "ivec4" => Type::IVec4,
        "bvec2" => Type::BVec2,
        "bvec3" => Type::BVec3,
        "bvec4" => Type::BVec4,
        "mat2" => Type::Mat2,
        "mat3" => Type::Mat3,
        "mat4" => Type::Mat4,
        _ => return None,
    };
    Some(build(target, args, cx))
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

    /// Pins `is_builtin_name` to the dynamic dispatch table: every name
    /// it accepts must be dispatchable by `call` for at least one probe
    /// argument list, and names it rejects must never dispatch. (The
    /// bytecode lowerer relies on this agreement for out-parameter
    /// copy-back; `SpmdVm`'s call dispatch additionally hard-errors on
    /// drift.)
    #[test]
    fn is_builtin_name_matches_call_dispatch() {
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
        let dispatches = |name: &str| {
            probes.iter().any(|args| {
                let mut profile = OpProfile::new();
                let mut cx = BuiltinCx {
                    model: FloatModel::Exact,
                    profile: &mut profile,
                    textures: &NoTextures,
                };
                call(name, args, &mut cx).is_some()
            })
        };
        let builtin_names = [
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
            "float",
            "int",
            "bool",
            "vec2",
            "vec3",
            "vec4",
            "ivec2",
            "ivec3",
            "ivec4",
            "bvec2",
            "bvec3",
            "bvec4",
            "mat2",
            "mat3",
            "mat4",
        ];
        for name in builtin_names {
            assert!(
                is_builtin_name(name),
                "`{name}` missing from is_builtin_name"
            );
            assert!(
                dispatches(name),
                "`{name}` claimed builtin but no probe dispatched — extend the probes"
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
            assert!(!is_builtin_name(name), "`{name}` wrongly claimed builtin");
            assert!(
                !dispatches(name),
                "`{name}` dispatched but is_builtin_name is false"
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
        call(name, args, &mut cx)
            .unwrap_or_else(|| panic!("{name} is not a builtin"))
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
        call("exp2", &[Value::Vec2([1.0, 2.0])], &mut cx)
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
        let v = call("log2", &[Value::Float(10.0)], &mut cx)
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
