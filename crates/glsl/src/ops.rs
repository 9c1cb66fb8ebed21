//! Shared evaluation semantics for the two shader executors.
//!
//! The tree-walking [`crate::interp::Interpreter`] and the bytecode
//! [`crate::spmd::SpmdVm`] must agree **bit for bit** — on results, on rounding
//! under every [`FloatModel`], and on [`OpProfile`] counters (the timing
//! model consumes them). The only way to guarantee that is to make both
//! executors call the exact same arithmetic code, which lives here.
//!
//! Everything in this module is allocation-free on the hot path: component
//! expansion uses fixed stack buffers (16 floats covers `mat4`, the
//! largest float shape; 4 ints covers `ivec4`).

use crate::ast::BinOp;
use crate::compile::PathStep;
use crate::error::RuntimeError;
use crate::exec::{FloatModel, OpProfile};
use crate::types::{Scalar, Type};
use crate::value::Value;

/// Largest number of float components any non-array value can have
/// (`mat4`).
pub(crate) const MAX_COMPONENTS: usize = 16;

/// Negates a value (`-x`). Matches GLSL: floats negate, ints wrap,
/// matrices negate per component. Does not touch the profile (the
/// interpreter never counted unary negation).
pub(crate) fn negate(v: Value) -> Result<Value, RuntimeError> {
    match v {
        Value::Float(x) => Ok(Value::Float(-x)),
        Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
        Value::Vec2(x) => Ok(Value::Vec2([-x[0], -x[1]])),
        Value::Vec3(x) => Ok(Value::Vec3([-x[0], -x[1], -x[2]])),
        Value::Vec4(x) => Ok(Value::Vec4([-x[0], -x[1], -x[2], -x[3]])),
        Value::IVec2(x) => Ok(Value::IVec2([x[0].wrapping_neg(), x[1].wrapping_neg()])),
        Value::IVec3(x) => Ok(Value::IVec3([
            x[0].wrapping_neg(),
            x[1].wrapping_neg(),
            x[2].wrapping_neg(),
        ])),
        Value::IVec4(x) => Ok(Value::IVec4([
            x[0].wrapping_neg(),
            x[1].wrapping_neg(),
            x[2].wrapping_neg(),
            x[3].wrapping_neg(),
        ])),
        Value::Mat2(m) => Ok(Value::Mat2(m.map(|c| c.map(|x| -x)))),
        Value::Mat3(m) => Ok(Value::Mat3(m.map(|c| c.map(|x| -x)))),
        Value::Mat4(m) => Ok(Value::Mat4(m.map(|c| c.map(|x| -x)))),
        other => Err(RuntimeError::Type {
            message: format!("cannot negate {}", other.ty()),
        }),
    }
}

/// Applies a (non-short-circuit) binary operator exactly as the
/// interpreter always has, updating profile counters identically.
pub(crate) fn apply_binary(
    model: FloatModel,
    profile: &mut OpProfile,
    op: BinOp,
    a: Value,
    b: Value,
) -> Result<Value, RuntimeError> {
    use BinOp::*;
    match op {
        And => Ok(Value::Bool(
            a.as_bool().unwrap_or(false) && b.as_bool().unwrap_or(false),
        )),
        Or => Ok(Value::Bool(
            a.as_bool().unwrap_or(false) || b.as_bool().unwrap_or(false),
        )),
        Xor => match (a.as_bool(), b.as_bool()) {
            (Some(x), Some(y)) => Ok(Value::Bool(x != y)),
            _ => Err(RuntimeError::Type {
                message: "`^^` requires bool operands".into(),
            }),
        },
        Eq => {
            profile.alu_ops += 1;
            Ok(Value::Bool(a == b))
        }
        Ne => {
            profile.alu_ops += 1;
            Ok(Value::Bool(a != b))
        }
        Lt | Le | Gt | Ge => {
            profile.alu_ops += 1;
            let result = match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    _ => x >= y,
                },
                (Value::Int(x), Value::Int(y)) => match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    _ => x >= y,
                },
                _ => {
                    return Err(RuntimeError::Type {
                        message: format!("relational operator on {} and {}", a.ty(), b.ty()),
                    })
                }
            };
            Ok(Value::Bool(result))
        }
        Add | Sub | Div | Mul => arith(model, profile, op, a, b),
    }
}

fn arith(
    model: FloatModel,
    profile: &mut OpProfile,
    op: BinOp,
    a: Value,
    b: Value,
) -> Result<Value, RuntimeError> {
    // Scalar fast paths: the overwhelmingly common case in GPGPU
    // kernels, kept allocation-free.
    match (&a, &b) {
        (Value::Float(x), Value::Float(y)) => {
            profile.alu_ops += 1;
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                _ => x / y,
            };
            return Ok(Value::Float(model.round_alu(r)));
        }
        (Value::Int(x), Value::Int(y)) => {
            profile.alu_ops += 1;
            let r = match op {
                BinOp::Add => x.wrapping_add(*y),
                BinOp::Sub => x.wrapping_sub(*y),
                BinOp::Mul => x.wrapping_mul(*y),
                _ => {
                    if *y == 0 {
                        0
                    } else {
                        x.wrapping_div(*y)
                    }
                }
            };
            return Ok(Value::Int(r));
        }
        _ => {}
    }
    // Linear algebra products.
    if op == BinOp::Mul {
        match (&a, &b) {
            (Value::Mat2(m), Value::Vec2(v)) => return Ok(Value::Vec2(m2v(model, profile, m, v))),
            (Value::Mat3(m), Value::Vec3(v)) => return Ok(Value::Vec3(m3v(model, profile, m, v))),
            (Value::Mat4(m), Value::Vec4(v)) => return Ok(Value::Vec4(m4v(model, profile, m, v))),
            (Value::Vec2(v), Value::Mat2(m)) => return Ok(Value::Vec2(v2m(model, profile, v, m))),
            (Value::Vec3(v), Value::Mat3(m)) => return Ok(Value::Vec3(v3m(model, profile, v, m))),
            (Value::Vec4(v), Value::Mat4(m)) => return Ok(Value::Vec4(v4m(model, profile, v, m))),
            (Value::Mat2(x), Value::Mat2(y)) => {
                let mut m = [[0.0f32; 2]; 2];
                for (c, col) in m.iter_mut().enumerate() {
                    let yc = y[c];
                    *col = m2v(model, profile, x, &yc);
                }
                return Ok(Value::Mat2(m));
            }
            (Value::Mat3(x), Value::Mat3(y)) => {
                let mut m = [[0.0f32; 3]; 3];
                for (c, col) in m.iter_mut().enumerate() {
                    let yc = y[c];
                    *col = m3v(model, profile, x, &yc);
                }
                return Ok(Value::Mat3(m));
            }
            (Value::Mat4(x), Value::Mat4(y)) => {
                let mut m = [[0.0f32; 4]; 4];
                for (c, col) in m.iter_mut().enumerate() {
                    let yc = y[c];
                    *col = m4v(model, profile, x, &yc);
                }
                return Ok(Value::Mat4(m));
            }
            _ => {}
        }
    }

    let scalar_cat = |v: &Value| v.ty().scalar();
    match (scalar_cat(&a), scalar_cat(&b)) {
        (Some(Scalar::Int), Some(Scalar::Int)) => int_arith(profile, op, &a, &b),
        (Some(Scalar::Float), Some(Scalar::Float)) => float_arith(model, profile, op, &a, &b),
        _ => Err(RuntimeError::Type {
            message: format!(
                "operator `{}` cannot combine {} and {}",
                op.symbol(),
                a.ty(),
                b.ty()
            ),
        }),
    }
}

/// Copies float components into a fixed buffer, returning the count.
/// `None` for non-float shapes.
pub(crate) fn write_float_components(v: &Value, buf: &mut [f32; MAX_COMPONENTS]) -> Option<usize> {
    match v {
        Value::Float(x) => {
            buf[0] = *x;
            Some(1)
        }
        Value::Vec2(x) => {
            buf[..2].copy_from_slice(x);
            Some(2)
        }
        Value::Vec3(x) => {
            buf[..3].copy_from_slice(x);
            Some(3)
        }
        Value::Vec4(x) => {
            buf[..4].copy_from_slice(x);
            Some(4)
        }
        Value::Mat2(m) => {
            for (c, col) in m.iter().enumerate() {
                buf[2 * c..2 * c + 2].copy_from_slice(col);
            }
            Some(4)
        }
        Value::Mat3(m) => {
            for (c, col) in m.iter().enumerate() {
                buf[3 * c..3 * c + 3].copy_from_slice(col);
            }
            Some(9)
        }
        Value::Mat4(m) => {
            for (c, col) in m.iter().enumerate() {
                buf[4 * c..4 * c + 4].copy_from_slice(col);
            }
            Some(16)
        }
        _ => None,
    }
}

fn write_int_components(v: &Value, buf: &mut [i32; 4]) -> Option<usize> {
    match v {
        Value::Int(x) => {
            buf[0] = *x;
            Some(1)
        }
        Value::IVec2(x) => {
            buf[..2].copy_from_slice(x);
            Some(2)
        }
        Value::IVec3(x) => {
            buf[..3].copy_from_slice(x);
            Some(3)
        }
        Value::IVec4(x) => {
            buf[..4].copy_from_slice(x);
            Some(4)
        }
        _ => None,
    }
}

fn float_arith(
    model: FloatModel,
    profile: &mut OpProfile,
    op: BinOp,
    a: &Value,
    b: &Value,
) -> Result<Value, RuntimeError> {
    let mut ba = [0.0f32; MAX_COMPONENTS];
    let mut bb = [0.0f32; MAX_COMPONENTS];
    let la = write_float_components(a, &mut ba).ok_or_else(|| RuntimeError::Type {
        message: format!("expected float operand, found {}", a.ty()),
    })?;
    let lb = write_float_components(b, &mut bb).ok_or_else(|| RuntimeError::Type {
        message: format!("expected float operand, found {}", b.ty()),
    })?;
    let (shape_ty, n) = if la >= lb { (a.ty(), la) } else { (b.ty(), lb) };
    if la != lb && la != 1 && lb != 1 {
        return Err(RuntimeError::Type {
            message: format!("shape mismatch: {} vs {}", a.ty(), b.ty()),
        });
    }
    profile.alu_ops += n as u64;
    let pick = |c: &[f32], len: usize, i: usize| if len == 1 { c[0] } else { c[i] };
    let f = |x: f32, y: f32| match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        _ => x / y,
    };
    let mut out = [0.0f32; MAX_COMPONENTS];
    for (i, slot) in out[..n].iter_mut().enumerate() {
        *slot = model.round_alu(f(pick(&ba, la, i), pick(&bb, lb, i)));
    }
    Ok(rebuild_float(&shape_ty, &out[..n]))
}

fn int_arith(
    profile: &mut OpProfile,
    op: BinOp,
    a: &Value,
    b: &Value,
) -> Result<Value, RuntimeError> {
    let mut ba = [0i32; 4];
    let mut bb = [0i32; 4];
    let la = write_int_components(a, &mut ba).ok_or_else(|| RuntimeError::Type {
        message: format!("expected int operand, found {}", a.ty()),
    })?;
    let lb = write_int_components(b, &mut bb).ok_or_else(|| RuntimeError::Type {
        message: format!("expected int operand, found {}", b.ty()),
    })?;
    let (shape_ty, n) = if la >= lb { (a.ty(), la) } else { (b.ty(), lb) };
    if la != lb && la != 1 && lb != 1 {
        return Err(RuntimeError::Type {
            message: format!("shape mismatch: {} vs {}", a.ty(), b.ty()),
        });
    }
    profile.alu_ops += n as u64;
    let pick = |c: &[i32], len: usize, i: usize| if len == 1 { c[0] } else { c[i] };
    let f = |x: i32, y: i32| match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        // GLSL leaves division by zero undefined; return 0 like most
        // GPU hardware saturates rather than trapping.
        _ => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
    };
    let mut out = [0i32; 4];
    for (i, slot) in out[..n].iter_mut().enumerate() {
        *slot = f(pick(&ba, la, i), pick(&bb, lb, i));
    }
    Ok(rebuild_int(&shape_ty, &out[..n]))
}

fn fdot(model: FloatModel, profile: &mut OpProfile, a: &[f32], b: &[f32]) -> f32 {
    profile.alu_ops += (2 * a.len()) as u64;
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc = model.round_alu(acc + model.round_alu(x * y));
    }
    acc
}

fn m2v(model: FloatModel, profile: &mut OpProfile, m: &[[f32; 2]; 2], v: &[f32; 2]) -> [f32; 2] {
    let r0 = [m[0][0], m[1][0]];
    let r1 = [m[0][1], m[1][1]];
    [fdot(model, profile, &r0, v), fdot(model, profile, &r1, v)]
}

fn m3v(model: FloatModel, profile: &mut OpProfile, m: &[[f32; 3]; 3], v: &[f32; 3]) -> [f32; 3] {
    let r0 = [m[0][0], m[1][0], m[2][0]];
    let r1 = [m[0][1], m[1][1], m[2][1]];
    let r2 = [m[0][2], m[1][2], m[2][2]];
    [
        fdot(model, profile, &r0, v),
        fdot(model, profile, &r1, v),
        fdot(model, profile, &r2, v),
    ]
}

fn m4v(model: FloatModel, profile: &mut OpProfile, m: &[[f32; 4]; 4], v: &[f32; 4]) -> [f32; 4] {
    let r0 = [m[0][0], m[1][0], m[2][0], m[3][0]];
    let r1 = [m[0][1], m[1][1], m[2][1], m[3][1]];
    let r2 = [m[0][2], m[1][2], m[2][2], m[3][2]];
    let r3 = [m[0][3], m[1][3], m[2][3], m[3][3]];
    [
        fdot(model, profile, &r0, v),
        fdot(model, profile, &r1, v),
        fdot(model, profile, &r2, v),
        fdot(model, profile, &r3, v),
    ]
}

fn v2m(model: FloatModel, profile: &mut OpProfile, v: &[f32; 2], m: &[[f32; 2]; 2]) -> [f32; 2] {
    [
        fdot(model, profile, v, &m[0]),
        fdot(model, profile, v, &m[1]),
    ]
}

fn v3m(model: FloatModel, profile: &mut OpProfile, v: &[f32; 3], m: &[[f32; 3]; 3]) -> [f32; 3] {
    [
        fdot(model, profile, v, &m[0]),
        fdot(model, profile, v, &m[1]),
        fdot(model, profile, v, &m[2]),
    ]
}

fn v4m(model: FloatModel, profile: &mut OpProfile, v: &[f32; 4], m: &[[f32; 4]; 4]) -> [f32; 4] {
    [
        fdot(model, profile, v, &m[0]),
        fdot(model, profile, v, &m[1]),
        fdot(model, profile, v, &m[2]),
        fdot(model, profile, v, &m[3]),
    ]
}

/// Rebuilds a float-shaped value of type `ty` from flat components
/// (matrices column-major).
pub(crate) fn rebuild_float(ty: &Type, comps: &[f32]) -> Value {
    match ty {
        Type::Float => Value::Float(comps[0]),
        Type::Vec2 => Value::Vec2([comps[0], comps[1]]),
        Type::Vec3 => Value::Vec3([comps[0], comps[1], comps[2]]),
        Type::Vec4 => Value::Vec4([comps[0], comps[1], comps[2], comps[3]]),
        Type::Mat2 => Value::Mat2([[comps[0], comps[1]], [comps[2], comps[3]]]),
        Type::Mat3 => Value::Mat3([
            [comps[0], comps[1], comps[2]],
            [comps[3], comps[4], comps[5]],
            [comps[6], comps[7], comps[8]],
        ]),
        Type::Mat4 => Value::Mat4([
            [comps[0], comps[1], comps[2], comps[3]],
            [comps[4], comps[5], comps[6], comps[7]],
            [comps[8], comps[9], comps[10], comps[11]],
            [comps[12], comps[13], comps[14], comps[15]],
        ]),
        _ => unreachable!("rebuild_float on non-float shape"),
    }
}

/// Rebuilds an int-shaped value of type `ty` from flat components.
pub(crate) fn rebuild_int(ty: &Type, comps: &[i32]) -> Value {
    match ty {
        Type::Int => Value::Int(comps[0]),
        Type::IVec2 => Value::IVec2([comps[0], comps[1]]),
        Type::IVec3 => Value::IVec3([comps[0], comps[1], comps[2]]),
        Type::IVec4 => Value::IVec4([comps[0], comps[1], comps[2], comps[3]]),
        _ => unreachable!("rebuild_int on non-int shape"),
    }
}

/// Reads a swizzle of `base` (selector already parsed to indices).
pub(crate) fn swizzle_read(base: &Value, idx: &[usize]) -> Result<Value, RuntimeError> {
    let scalar = base.ty().scalar().ok_or_else(|| RuntimeError::Type {
        message: format!("cannot swizzle {}", base.ty()),
    })?;
    let mut comps = [0.0f32; 4];
    for (slot, &i) in comps.iter_mut().zip(idx) {
        let c = base.component(i).ok_or(RuntimeError::IndexOutOfBounds {
            index: i as i64,
            len: base.ty().dim().unwrap_or(0),
        })?;
        *slot = match c {
            Value::Float(f) => f,
            Value::Int(x) => x as f32,
            Value::Bool(b) => b as i32 as f32,
            _ => unreachable!("component is scalar"),
        };
    }
    let comps = &comps[..idx.len()];
    if comps.len() == 1 {
        Ok(match scalar {
            Scalar::Float => Value::Float(comps[0]),
            Scalar::Int => Value::Int(comps[0] as i32),
            Scalar::Bool => Value::Bool(comps[0] != 0.0),
        })
    } else {
        Ok(Value::from_components(scalar, comps))
    }
}

/// Writes `value` through a swizzle selector into `base`.
pub(crate) fn swizzle_write(
    base: &mut Value,
    idx: &[usize],
    value: &Value,
) -> Result<(), RuntimeError> {
    let scalar = base.ty().scalar().ok_or_else(|| RuntimeError::Type {
        message: format!("cannot swizzle {}", base.ty()),
    })?;
    let mut buf = [0.0f32; MAX_COMPONENTS];
    let len = if idx.len() == 1 {
        match numeric_components_into(value, &mut buf) {
            Some(n) if n >= 1 => {
                // Keep only the first component (scalar write).
                1
            }
            _ => {
                return Err(RuntimeError::Type {
                    message: "swizzle write needs a scalar".into(),
                })
            }
        }
    } else {
        numeric_components_into(value, &mut buf).ok_or_else(|| RuntimeError::Type {
            message: "swizzle write needs numeric components".into(),
        })?
    };
    if len != idx.len() {
        return Err(RuntimeError::Type {
            message: format!(
                "swizzle write of {} components into {}-component selector",
                len,
                idx.len()
            ),
        });
    }
    for (&i, &c) in idx.iter().zip(&buf[..len]) {
        let cv = match scalar {
            Scalar::Float => Value::Float(c),
            Scalar::Int => Value::Int(c as i32),
            Scalar::Bool => Value::Bool(c != 0.0),
        };
        if !base.set_component(i, &cv) {
            return Err(RuntimeError::IndexOutOfBounds {
                index: i as i64,
                len: base.ty().dim().unwrap_or(0),
            });
        }
    }
    Ok(())
}

/// `Value::numeric_components` without the `Vec`: writes into `buf`,
/// returns the component count, or `None` for samplers/arrays.
fn numeric_components_into(v: &Value, buf: &mut [f32; MAX_COMPONENTS]) -> Option<usize> {
    match v {
        Value::Int(x) => {
            buf[0] = *x as f32;
            Some(1)
        }
        Value::Bool(x) => {
            buf[0] = *x as i32 as f32;
            Some(1)
        }
        Value::IVec2(x) => {
            for (s, &c) in buf.iter_mut().zip(x) {
                *s = c as f32;
            }
            Some(2)
        }
        Value::IVec3(x) => {
            for (s, &c) in buf.iter_mut().zip(x) {
                *s = c as f32;
            }
            Some(3)
        }
        Value::IVec4(x) => {
            for (s, &c) in buf.iter_mut().zip(x) {
                *s = c as f32;
            }
            Some(4)
        }
        Value::BVec2(x) => {
            for (s, &c) in buf.iter_mut().zip(x) {
                *s = c as i32 as f32;
            }
            Some(2)
        }
        Value::BVec3(x) => {
            for (s, &c) in buf.iter_mut().zip(x) {
                *s = c as i32 as f32;
            }
            Some(3)
        }
        Value::BVec4(x) => {
            for (s, &c) in buf.iter_mut().zip(x) {
                *s = c as i32 as f32;
            }
            Some(4)
        }
        other => write_float_components(other, buf),
    }
}

/// Reads element `i` of an array, matrix (column) or vector.
pub(crate) fn index_read(base: &Value, i: i64) -> Result<Value, RuntimeError> {
    let oob = |len: usize| RuntimeError::IndexOutOfBounds { index: i, len };
    match base {
        Value::Array(elems) => {
            if i < 0 || i as usize >= elems.len() {
                Err(oob(elems.len()))
            } else {
                Ok(elems[i as usize].clone())
            }
        }
        Value::Mat2(m) => {
            if (0..2).contains(&i) {
                Ok(Value::Vec2(m[i as usize]))
            } else {
                Err(oob(2))
            }
        }
        Value::Mat3(m) => {
            if (0..3).contains(&i) {
                Ok(Value::Vec3(m[i as usize]))
            } else {
                Err(oob(3))
            }
        }
        Value::Mat4(m) => {
            if (0..4).contains(&i) {
                Ok(Value::Vec4(m[i as usize]))
            } else {
                Err(oob(4))
            }
        }
        vector => {
            let dim = vector.ty().dim().ok_or_else(|| RuntimeError::Type {
                message: format!("cannot index {}", vector.ty()),
            })?;
            if i < 0 || i as usize >= dim {
                Err(oob(dim))
            } else {
                vector.component(i as usize).ok_or(oob(dim))
            }
        }
    }
}

/// Writes element `i` of an array/matrix/vector.
pub(crate) fn index_write(base: &mut Value, i: i64, value: &Value) -> Result<(), RuntimeError> {
    index_modify(base, i, &mut |slot| {
        *slot = value.clone();
        Ok(())
    })
}

/// Applies `f` to element `i` of an array/matrix/vector in place.
pub(crate) fn index_modify(
    base: &mut Value,
    i: i64,
    f: &mut dyn FnMut(&mut Value) -> Result<(), RuntimeError>,
) -> Result<(), RuntimeError> {
    match base {
        Value::Array(elems) => {
            let len = elems.len();
            let slot = elems
                .get_mut(i.max(0) as usize)
                .filter(|_| i >= 0)
                .ok_or(RuntimeError::IndexOutOfBounds { index: i, len })?;
            f(slot)
        }
        Value::Mat2(m) => {
            if !(0..2).contains(&i) {
                return Err(RuntimeError::IndexOutOfBounds { index: i, len: 2 });
            }
            let mut col = Value::Vec2(m[i as usize]);
            f(&mut col)?;
            m[i as usize] = col.as_vec2().ok_or_else(|| RuntimeError::Type {
                message: "matrix column must stay vec2".into(),
            })?;
            Ok(())
        }
        Value::Mat3(m) => {
            if !(0..3).contains(&i) {
                return Err(RuntimeError::IndexOutOfBounds { index: i, len: 3 });
            }
            let mut col = Value::Vec3(m[i as usize]);
            f(&mut col)?;
            match col {
                Value::Vec3(c) => {
                    m[i as usize] = c;
                    Ok(())
                }
                _ => Err(RuntimeError::Type {
                    message: "matrix column must stay vec3".into(),
                }),
            }
        }
        Value::Mat4(m) => {
            if !(0..4).contains(&i) {
                return Err(RuntimeError::IndexOutOfBounds { index: i, len: 4 });
            }
            let mut col = Value::Vec4(m[i as usize]);
            f(&mut col)?;
            match col {
                Value::Vec4(c) => {
                    m[i as usize] = c;
                    Ok(())
                }
                _ => Err(RuntimeError::Type {
                    message: "matrix column must stay vec4".into(),
                }),
            }
        }
        vector => {
            let dim = vector.ty().dim().ok_or_else(|| RuntimeError::Type {
                message: format!("cannot index {}", vector.ty()),
            })?;
            if i < 0 || i as usize >= dim {
                return Err(RuntimeError::IndexOutOfBounds { index: i, len: dim });
            }
            let mut tmp = vector
                .component(i as usize)
                .expect("component within bounds");
            f(&mut tmp)?;
            if vector.set_component(i as usize, &tmp) {
                Ok(())
            } else {
                Err(RuntimeError::Type {
                    message: "component write changed scalar category".into(),
                })
            }
        }
    }
}

/// The selector of a swizzle step.
fn selector(idx: &[u8; 4], len: u8) -> ([usize; 4], usize) {
    (idx.map(usize::from), len as usize)
}

/// Reads the value at `path` from `root`, the `k`-th `Index` step taking
/// `indices[k]`: what both executors read through an lvalue.
pub(crate) fn read_path(
    root: &Value,
    path: &[PathStep],
    indices: &[i64],
) -> Result<Value, RuntimeError> {
    let mut indices = indices.iter();
    let mut value = None;
    for step in path {
        let base = value.as_ref().unwrap_or(root);
        value = Some(match *step {
            PathStep::Index => index_read(base, *indices.next().expect("an index per step"))?,
            PathStep::Swizzle { idx, len } => {
                let (sel, len) = selector(&idx, len);
                swizzle_read(base, &sel[..len])?
            }
        });
    }
    Ok(value.unwrap_or_else(|| root.clone()))
}

/// Writes `value` at `path` into `root`, the `k`-th `Index` step taking
/// `indices[k]`: every store both executors make through an lvalue.
pub(crate) fn write_path(
    root: &mut Value,
    path: &[PathStep],
    indices: &[i64],
    value: Value,
) -> Result<(), RuntimeError> {
    match path.first() {
        None => {
            *root = value;
            Ok(())
        }
        Some(PathStep::Index) => {
            let i = indices[0];
            if path.len() == 1 {
                index_write(root, i, &value)
            } else {
                index_modify(root, i, &mut |inner| {
                    write_path(inner, &path[1..], &indices[1..], value.clone())
                })
            }
        }
        Some(PathStep::Swizzle { idx, len }) => {
            let (sel, len) = selector(idx, *len);
            let sel = &sel[..len];
            if path.len() == 1 {
                swizzle_write(root, sel, &value)
            } else {
                // Swizzle-of-swizzle lvalues: read, recurse, write back.
                let mut tmp = swizzle_read(root, sel)?;
                write_path(&mut tmp, &path[1..], indices, value)?;
                swizzle_write(root, sel, &tmp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_arith_matches_vec_semantics() {
        let mut p = OpProfile::new();
        let r = apply_binary(
            FloatModel::Exact,
            &mut p,
            BinOp::Add,
            Value::Vec3([1.0, 2.0, 3.0]),
            Value::Float(0.5),
        )
        .expect("add");
        assert_eq!(r, Value::Vec3([1.5, 2.5, 3.5]));
        assert_eq!(p.alu_ops, 3);
    }

    #[test]
    fn swizzle_helpers_round_trip() {
        let mut v = Value::Vec4([1.0, 2.0, 3.0, 4.0]);
        let r = swizzle_read(&v, &[2, 0]).expect("read");
        assert_eq!(r, Value::Vec2([3.0, 1.0]));
        swizzle_write(&mut v, &[0, 3], &Value::Vec2([9.0, 8.0])).expect("write");
        assert_eq!(v, Value::Vec4([9.0, 2.0, 3.0, 8.0]));
    }
}
