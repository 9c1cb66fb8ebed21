//! SPMD lane-parallel virtual machine: the one bytecode executor.
//!
//! One [`SpmdVm`] shades up to [`MAX_LANES`] invocations of a lowered
//! shader per dispatch, in either programmable stage: the rasteriser
//! batches band fragments and, in the vertex stage, consecutive vertices
//! (§III-1 — kernels run "in the vertex or the fragment processing
//! stage"). A one-lane batch is an exact sequential run. All
//! *semantic* state is per-lane, but it is stored **struct-of-arrays**:
//! each frame slot (parameter, local or expression temporary) and each
//! global slot is one `Slot` holding the value of every lane side by
//! side (`[f32; 8]`, `[[f32; 4]; 8]`, …). The bytecode walk (a program
//! counter over `main`, every call spliced in) is shared by every lane in
//! the current execution *context*, so instruction decode is paid once
//! per batch and the per-lane work for the common instructions is a
//! tight loop over a small typed array instead of eight tagged-enum
//! manipulations. A sampler slot holds its lanes' texture units, which
//! `texture2D` reads in place.
//!
//! The bytecode is three-address ([`crate::compile`](mod@crate::compile)): an instruction
//! reads its operands where they live — a frame slot, a constant
//! (splatted across the lanes once, when the VM is built), a global, or
//! one component of a global vector — and writes its result to a frame
//! slot. There is no operand stack. Arithmetic, comparisons, negation,
//! swizzles and builtins carry the operand shape the checker gave them,
//! so the common case runs one fixed-width lane loop over the operands'
//! typed lanes; a slot that does not hold that shape (a boxed slot)
//! takes the generic path.
//!
//! Slots whose lanes cannot be represented uniformly (arrays,
//! matrices, bvecs, or a masked write that changes a slot's type under
//! the ownership rule below) degrade to `Slot::Boxed`, a boxed
//! `[Value; 8]` that preserves exact per-lane values; every instruction
//! has a generic per-lane fallback that applies the same `ops` /
//! `builtins` routines as the tree-walking interpreter.
//!
//! # Divergence model
//!
//! A context is `(lane mask, pc)`: calls are static (the checker refuses
//! recursion and lowering splices every call), so no context holds call
//! frames. When a data-dependent branch (`JumpIf` / `JumpCmp`, which is
//! what `if`, `?:`, short-circuit `&&`/`||` and loop conditions lower
//! to) splits the active lanes, the jumping subgroup is deferred onto a
//! pending stack and the fall-through subgroup keeps executing. Two
//! contexts merge whenever they meet at the same `pc` — this is always
//! semantically safe because every lane only ever executes instructions
//! its own data dictates; the shared pc is pure scheduling. Reconvergence
//! at the join point of structured `if`/`else` falls out of two rules:
//! the scheduler merges any pending context whose position equals the
//! current one, and after every jump landing it *swaps* to the
//! furthest-behind pending context so laggards catch up. `discard`
//! simply retires the lanes of the executing context.
//!
//! Writes to frame slots follow an **ownership rule** with one floor.
//! Frame slots are allocated stack-like, so the slots live at a program
//! point are a prefix of the frame, whose length lowering records on
//! every jump target; a spliced call's frame starts at its first
//! argument's slot, above every slot its caller has live. A deferred
//! context therefore reads only the frame slots below its `live` end —
//! except the destination of each spliced call it is inside, which that
//! call's return writes before anything reads it (a chunk lists the
//! body and destination of each call spliced into it). The running
//! context *owns* a slot at or above the largest pending `live` end (the
//! floor; 0 when nothing is pending — the uniform-flow case), and a slot
//! below it that is such a call destination for every pending context
//! that reaches it. Owned slots are written wholesale: re-typed, full-width loops
//! that keep the hot paths branch-free and vectorisable, whatever
//! clobbers the other lanes (they are retired, or the slot is dead for
//! their context). Only a write to an unowned slot is *masked*: the
//! current context's lanes are touched and the other lanes' values
//! preserved, falling back to `Slot::Boxed` when it changes the slot's
//! type. A diverged batch whose writes land on owned slots or keep their
//! types — the f32 codec's sign branch — therefore shades at
//! uniform-flow speed. Globals are always written masked, because
//! retired lanes' outputs (`gl_FragColor`, `gl_Position`) are read after
//! the batch.
//!
//! # Bit-identity with the tree-walker
//!
//! Every fast path reproduces the tree-walking
//! [`crate::interp::Interpreter`]'s arithmetic exactly — same operation
//! order, same [`FloatModel`] rounding calls, same [`OpProfile`] counts
//! — and anything outside the fast paths runs the very same `ops` /
//! `builtins` code one lane at a time. There is no re-association, no
//! fused math, and no shared mutable value state, so results and runtime
//! errors are bit-identical per lane. The profile is one [`OpProfile`]
//! for the whole VM: an instruction adds its per-lane count times the
//! number of lanes it ran on, so the total equals the sum of sequential
//! runs without a per-lane bump. Counts stay tied to GLSL operations: a
//! comparison fused into its jump counts the comparison, and an `if` or
//! `?:` counts its branch on the first jump of its condition. When
//! *any* lane traps, the whole batch is replayed lane-by-lane in lane
//! order (a single-lane run through this machinery is exactly a
//! sequential run): earlier lanes finish with exact outputs and the first
//! erroring lane in lane order defines the reported error, so error
//! semantics match running the invocations one after another. The
//! replay starts from a copy of the profile taken before the batch.

use crate::ast::BinOp;
use crate::builtins::{self, BuiltinCx, BuiltinId};
use crate::compile::{Chunk, Executable, Insn, Opnd, Shape, SlotRef, Splice};
use crate::error::RuntimeError;
use crate::exec::{ExecLimits, FloatModel, OpProfile, TextureAccess};
use crate::ops;
use crate::value::Value;

/// Maximum number of invocations one [`SpmdVm`] shades per batch.
pub const MAX_LANES: usize = 8;

/// A runtime error raised by one lane of a batch.
///
/// Produced by [`SpmdVm::run_batch`] after the lane-by-lane replay:
/// `lane` is the lowest-index erroring lane, every lane below it
/// completed with exact scalar outputs (see [`SpmdVm::completed`]).
#[derive(Debug)]
pub struct BatchError {
    /// The lowest lane index whose invocation trapped.
    pub lane: usize,
    /// The error that lane's scalar execution raises.
    pub error: RuntimeError,
}

/// One schedulable execution context: a subgroup of lanes in lockstep at
/// a shared program position.
struct Ctx {
    mask: u8,
    pc: usize,
    /// End of the frame slots live at `pc`, set where the context lands
    /// after a jump: all a deferred context can read, so its ownership
    /// floor.
    live: usize,
}

/// Merges every pending context at `cur`'s exact position into `cur`.
/// Returns whether any context merged.
fn merge_caught_up(cur: &mut Ctx, pending: &mut Vec<Ctx>) -> bool {
    let before = pending.len();
    let mut i = 0;
    while i < pending.len() {
        if pending[i].pc == cur.pc {
            cur.mask |= pending.swap_remove(i).mask;
        } else {
            i += 1;
        }
    }
    pending.len() != before
}

/// Merges every pending context at `cur`'s exact position into `cur`,
/// then repeatedly swaps `cur` with the furthest-behind pending context
/// so stragglers catch up (yielding `if`/`else` reconvergence at the
/// join point). Pure scheduling: any interleaving of contexts is
/// semantically correct.
fn reschedule(cur: &mut Ctx, pending: &mut Vec<Ctx>) {
    loop {
        merge_caught_up(cur, pending);
        let mut behind: Option<usize> = None;
        for (j, p) in pending.iter().enumerate() {
            if p.pc < cur.pc {
                match behind {
                    Some(b) if pending[b].pc <= p.pc => {}
                    _ => behind = Some(j),
                }
            }
        }
        match behind {
            Some(j) => std::mem::swap(&mut pending[j], cur),
            None => break,
        }
    }
}

/// The ownership floor of the deferred contexts (see the module docs):
/// the largest end of their live frame slots.
fn floor(pending: &[Ctx]) -> usize {
    pending.iter().fold(0, |f, p| f.max(p.live))
}

/// Whether the running context owns frame slot `s`: no deferred context
/// reads it. Each one reads only the slots below its `live` end, except
/// the destinations of the spliced calls it is inside, which their
/// return writes first.
#[inline(always)]
fn owns(s: usize, floor: usize, pending: &[Ctx], splices: &[Splice]) -> bool {
    s >= floor
        || pending.iter().all(|p| {
            p.live <= s
                || splices.iter().any(|c| {
                    (c.start as usize..c.end as usize).contains(&p.pc) && c.dst as usize == s
                })
        })
}

/// Iterates the set bits of a lane mask.
macro_rules! for_lanes {
    ($mask:expr, $lane:ident => $body:block) => {{
        let mut __m: u8 = $mask;
        while __m != 0 {
            let $lane = __m.trailing_zeros() as usize;
            __m &= __m - 1;
            $body
        }
    }};
}

/// A struct-of-arrays lane register: one frame or global slot's value
/// for every lane. Typed variants keep the common scalar and
/// small-vector cases unboxed and contiguous, and `S` a sampler's
/// texture units; [`Slot::Boxed`] is the exact fallback for every other
/// value shape (and for slots whose lanes diverge in type under masked
/// writes).
enum Slot {
    F([f32; MAX_LANES]),
    I([i32; MAX_LANES]),
    B([bool; MAX_LANES]),
    V2([[f32; 2]; MAX_LANES]),
    V3([[f32; 3]; MAX_LANES]),
    V4([[f32; 4]; MAX_LANES]),
    S([u32; MAX_LANES]),
    Boxed(Box<[Value; MAX_LANES]>),
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        match self {
            Slot::F(x) => Slot::F(*x),
            Slot::I(x) => Slot::I(*x),
            Slot::B(x) => Slot::B(*x),
            Slot::V2(x) => Slot::V2(*x),
            Slot::V3(x) => Slot::V3(*x),
            Slot::V4(x) => Slot::V4(*x),
            Slot::S(x) => Slot::S(*x),
            Slot::Boxed(b) => Slot::Boxed(b.clone()),
        }
    }

    /// Copies only the variant's lanes when the variants agree (the
    /// common case: a slot overwritten with a value of the same type),
    /// rather than rebuilding the whole enum; a boxed slot keeps its
    /// allocation.
    fn clone_from(&mut self, src: &Slot) {
        match (self, src) {
            (Slot::F(d), Slot::F(s)) => *d = *s,
            (Slot::I(d), Slot::I(s)) => *d = *s,
            (Slot::B(d), Slot::B(s)) => *d = *s,
            (Slot::V2(d), Slot::V2(s)) => *d = *s,
            (Slot::V3(d), Slot::V3(s)) => *d = *s,
            (Slot::V4(d), Slot::V4(s)) => *d = *s,
            (Slot::S(d), Slot::S(s)) => *d = *s,
            (Slot::Boxed(d), Slot::Boxed(s)) => d.clone_from(s),
            // Re-typed: build the variant in place.
            (d, s) => *d = s.clone(),
        }
    }
}

impl Slot {
    /// A float or vecN slot's components, lane-major, with the count per
    /// lane; `None` for every other shape.
    fn floats(&self) -> Option<(&[f32], usize)> {
        match self {
            Slot::F(x) => Some((x, 1)),
            Slot::V2(x) => Some((x.as_flattened(), 2)),
            Slot::V3(x) => Some((x.as_flattened(), 3)),
            Slot::V4(x) => Some((x.as_flattened(), 4)),
            _ => None,
        }
    }

    /// [`Slot::floats`], mutably.
    fn floats_mut(&mut self) -> Option<(&mut [f32], usize)> {
        match self {
            Slot::F(x) => Some((x, 1)),
            Slot::V2(x) => Some((x.as_flattened_mut(), 2)),
            Slot::V3(x) => Some((x.as_flattened_mut(), 3)),
            Slot::V4(x) => Some((x.as_flattened_mut(), 4)),
            _ => None,
        }
    }

    /// An `n`-component float slot holding `v` (lane-major).
    fn of_floats(n: usize, v: &Lanes) -> Slot {
        match n {
            1 => Slot::F(per_lane(|l| v[l])),
            2 => Slot::V2(per_lane(|l| [v[2 * l], v[2 * l + 1]])),
            3 => Slot::V3(per_lane(|l| [v[3 * l], v[3 * l + 1], v[3 * l + 2]])),
            _ => Slot::V4(per_lane(|l| {
                [v[4 * l], v[4 * l + 1], v[4 * l + 2], v[4 * l + 3]]
            })),
        }
    }

    /// A slot with `v` in every lane.
    fn splat(v: &Value) -> Slot {
        match v {
            Value::Float(x) => Slot::F([*x; MAX_LANES]),
            Value::Int(x) => Slot::I([*x; MAX_LANES]),
            Value::Bool(x) => Slot::B([*x; MAX_LANES]),
            Value::Vec2(x) => Slot::V2([*x; MAX_LANES]),
            Value::Vec3(x) => Slot::V3([*x; MAX_LANES]),
            Value::Vec4(x) => Slot::V4([*x; MAX_LANES]),
            Value::Sampler(x) => Slot::S([*x; MAX_LANES]),
            other => Slot::Boxed(Box::new(std::array::from_fn(|_| other.clone()))),
        }
    }

    /// Materialises one lane's value.
    fn get(&self, lane: usize) -> Value {
        match self {
            Slot::F(x) => Value::Float(x[lane]),
            Slot::I(x) => Value::Int(x[lane]),
            Slot::B(x) => Value::Bool(x[lane]),
            Slot::V2(x) => Value::Vec2(x[lane]),
            Slot::V3(x) => Value::Vec3(x[lane]),
            Slot::V4(x) => Value::Vec4(x[lane]),
            Slot::S(x) => Value::Sampler(x[lane]),
            Slot::Boxed(b) => b[lane].clone(),
        }
    }

    /// Whether this slot's variant is the one [`Slot::splat`] picks for
    /// `v`, i.e. `v` can be written into a lane without boxing.
    fn holds(&self, v: &Value) -> bool {
        match (self, v) {
            (Slot::F(_), Value::Float(_))
            | (Slot::I(_), Value::Int(_))
            | (Slot::B(_), Value::Bool(_))
            | (Slot::V2(_), Value::Vec2(_))
            | (Slot::V3(_), Value::Vec3(_))
            | (Slot::V4(_), Value::Vec4(_))
            | (Slot::S(_), Value::Sampler(_)) => true,
            (Slot::Boxed(_), v) => !matches!(
                v,
                Value::Float(_)
                    | Value::Int(_)
                    | Value::Bool(_)
                    | Value::Vec2(_)
                    | Value::Vec3(_)
                    | Value::Vec4(_)
                    | Value::Sampler(_)
            ),
            _ => false,
        }
    }

    /// Converts in place to [`Slot::Boxed`], preserving every lane.
    fn boxify(&mut self) {
        if matches!(self, Slot::Boxed(_)) {
            return;
        }
        #[cfg(test)]
        BOXINGS.with(|n| n.set(n.get() + 1));
        let b: Box<[Value; MAX_LANES]> = Box::new(std::array::from_fn(|lane| self.get(lane)));
        *self = Slot::Boxed(b);
    }

    /// Writes one lane's value, preserving the other lanes (boxing the
    /// slot if the value's type no longer matches the slot's variant).
    fn set(&mut self, lane: usize, v: Value) {
        match (&mut *self, v) {
            (Slot::F(x), Value::Float(v)) => x[lane] = v,
            (Slot::I(x), Value::Int(v)) => x[lane] = v,
            (Slot::B(x), Value::Bool(v)) => x[lane] = v,
            (Slot::V2(x), Value::Vec2(v)) => x[lane] = v,
            (Slot::V3(x), Value::Vec3(v)) => x[lane] = v,
            (Slot::V4(x), Value::Vec4(v)) => x[lane] = v,
            (Slot::S(x), Value::Sampler(v)) => x[lane] = v,
            (Slot::Boxed(b), v) => b[lane] = v,
            (slot, v) => {
                slot.boxify();
                if let Slot::Boxed(b) = slot {
                    b[lane] = v;
                }
            }
        }
    }

    /// Moves the `mask` lanes of per-lane results `vals` in. A slot the
    /// running context owns is first re-typed wholesale when its variant
    /// cannot hold the results (the other lanes are dead); an unowned
    /// one is boxed by [`Slot::set`] so the other lanes survive.
    fn put_lanes(&mut self, vals: &mut [Value; MAX_LANES], mask: u8, owned: bool) {
        let first = &vals[mask.trailing_zeros() as usize];
        if owned && !self.holds(first) {
            *self = Slot::splat(first);
        }
        for_lanes!(mask, l => {
            self.set(l, std::mem::replace(&mut vals[l], Value::Bool(false)));
        });
    }

    /// Writes `n`-component float lanes `v`: wholesale when the running
    /// context `owned` the slot, else into the `mask` lanes.
    fn put_floats(&mut self, n: usize, v: &Lanes, mask: u8, owned: bool) {
        match self.floats_mut() {
            Some((x, k)) if k == n && owned => copy_lanes(x, &v[..], n),
            Some((x, k)) if k == n => for_lanes!(mask, l => {
                x[l * n..(l + 1) * n].copy_from_slice(&v[l * n..(l + 1) * n]);
            }),
            _ if owned => *self = Slot::of_floats(n, v),
            _ => for_lanes!(mask, l => { self.set(l, float_value(n, v, l)); }),
        }
    }

    /// Writes `float` lanes, like [`Slot::put_floats`].
    #[inline(always)]
    fn put_f1(&mut self, v: [f32; MAX_LANES], mask: u8, owned: bool) {
        match self {
            Slot::F(x) if owned => *x = v,
            Slot::F(x) => for_lanes!(mask, l => { x[l] = v[l]; }),
            _ if owned => *self = Slot::F(v),
            _ => for_lanes!(mask, l => { self.set(l, Value::Float(v[l])); }),
        }
    }

    /// Writes `int` lanes, like [`Slot::put_floats`].
    fn put_ints(&mut self, v: [i32; MAX_LANES], mask: u8, owned: bool) {
        match self {
            Slot::I(x) if owned => *x = v,
            Slot::I(x) => for_lanes!(mask, l => { x[l] = v[l]; }),
            _ if owned => *self = Slot::I(v),
            _ => for_lanes!(mask, l => { self.set(l, Value::Int(v[l])); }),
        }
    }

    /// Writes `bool` lanes, like [`Slot::put_floats`].
    fn put_bools(&mut self, v: [bool; MAX_LANES], mask: u8, owned: bool) {
        match self {
            Slot::B(x) if owned => *x = v,
            Slot::B(x) => for_lanes!(mask, l => { x[l] = v[l]; }),
            _ if owned => *self = Slot::B(v),
            _ => for_lanes!(mask, l => { self.set(l, Value::Bool(v[l])); }),
        }
    }

    /// Copies `mask` lanes from `src`, preserving the rest.
    fn copy_masked_from(&mut self, src: &Slot, mask: u8) {
        match (&mut *self, src) {
            (Slot::F(d), Slot::F(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::I(d), Slot::I(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::B(d), Slot::B(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::V2(d), Slot::V2(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::V3(d), Slot::V3(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::V4(d), Slot::V4(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::S(d), Slot::S(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::Boxed(d), Slot::Boxed(s)) => for_lanes!(mask, l => { d[l] = s[l].clone(); }),
            (dst, src) => for_lanes!(mask, l => { dst.set(l, src.get(l)); }),
        }
    }

    /// Copies from `src`: wholesale when the running context owns this
    /// slot (no deferred context reads it), masked otherwise.
    fn write_from(&mut self, src: &Slot, mask: u8, owned: bool) {
        if owned {
            self.clone_from(src);
        } else {
            self.copy_masked_from(src, mask);
        }
    }
}

/// Lane-major float components of a float or vecN value of every lane:
/// up to four per lane.
type Lanes = [f32; 4 * MAX_LANES];

/// Copies `n` float components per lane from `src` to `dst`, with a
/// copy of fixed size for each `n` (no `memcpy` call).
#[inline(always)]
fn copy_lanes(dst: &mut [f32], src: &[f32], n: usize) {
    match n {
        1 => dst[..MAX_LANES].copy_from_slice(&src[..MAX_LANES]),
        2 => dst[..2 * MAX_LANES].copy_from_slice(&src[..2 * MAX_LANES]),
        3 => dst[..3 * MAX_LANES].copy_from_slice(&src[..3 * MAX_LANES]),
        _ => dst[..4 * MAX_LANES].copy_from_slice(&src[..4 * MAX_LANES]),
    }
}

/// Lane `l` of `n`-component float lanes `v` as a value.
fn float_value(n: usize, v: &Lanes, l: usize) -> Value {
    let c = &v[l * n..];
    match n {
        1 => Value::Float(c[0]),
        2 => Value::Vec2([c[0], c[1]]),
        3 => Value::Vec3([c[0], c[1], c[2]]),
        _ => Value::Vec4([c[0], c[1], c[2], c[3]]),
    }
}

/// Two distinct elements of `v`, the first mutably.
fn pair_mut<T>(v: &mut [T], dst: usize, src: usize) -> (&mut T, &T) {
    if dst < src {
        let (lo, hi) = v.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// `[f(0), f(1), …]` over the lanes, as a plain loop the optimiser
/// unrolls (`std::array::from_fn` and `map` are not always inlined).
#[inline(always)]
fn per_lane<T: Copy + Default>(f: impl Fn(usize) -> T) -> [T; MAX_LANES] {
    let mut out = [T::default(); MAX_LANES];
    for (l, o) in out.iter_mut().enumerate() {
        *o = f(l);
    }
    out
}

/// A per-lane result buffer for the generic paths.
fn lane_values() -> [Value; MAX_LANES] {
    std::array::from_fn(|_| Value::Bool(false))
}

#[cfg(test)]
thread_local! {
    /// Typed slots this thread has boxed to keep a lane write's type.
    static BOXINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Instructions this thread's VMs have executed, one per context
    /// that ran each.
    static EXECUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
impl SpmdVm<'_> {
    /// Typed slots boxed on this thread so far: a masked lane write
    /// whose type the slot's variant could not hold.
    fn boxings() -> u64 {
        BOXINGS.with(|n| n.get())
    }

    /// Instructions executed on this thread so far.
    fn executed() -> u64 {
        EXECUTED.with(|n| n.get())
    }
}

/// Executes batches of up to [`MAX_LANES`] invocations of one lowered
/// shader, bit-identical per lane to [`crate::interp::Interpreter`].
pub struct SpmdVm<'a> {
    exe: &'a Executable,
    textures: &'a dyn TextureAccess,
    model: FloatModel,
    limits: ExecLimits,
    lanes: usize,
    /// Global slot values, one SoA slot per global.
    globals: Vec<Slot>,
    /// The constant pool, each constant splatted across the lanes once.
    consts: Vec<Slot>,
    /// (slot, initial value) for plain mutable globals.
    reset_list: Vec<(u32, Value)>,
    /// Frame arena, one SoA slot per parameter, local or temporary; a
    /// spliced callee's frame starts at its first argument's slot.
    locals: Vec<Slot>,
    /// Loop iteration counter stacks, per lane.
    loop_counters: Vec<Vec<u64>>,
    /// Profile of every lane of every batch so far (excludes the
    /// global-initialiser cost held in `init_profile`). Counts are
    /// per-lane sums, so each instruction adds its per-lane count times
    /// the number of lanes it ran on.
    profile: OpProfile,
    /// Cost of running the global initialisers, counted once per VM —
    /// exactly like the interpreter counts its global initialisers once.
    init_profile: OpProfile,
    /// Reusable per-lane argument buffer for generic builtin dispatch.
    arg_buf: Vec<Value>,
    /// Deferred contexts of the running batch; kept between batches so
    /// a divergence allocates nothing in steady state.
    pending: Vec<Ctx>,
    /// `gl_FragColor` and `gl_FragData`, resolved once.
    frag_color_slot: Option<u32>,
    frag_data_slot: Option<u32>,
    discarded: [bool; MAX_LANES],
    wrote_frag_color: [bool; MAX_LANES],
    wrote_frag_data: [bool; MAX_LANES],
    completed: [bool; MAX_LANES],
    replays: u64,
}

impl<'a> SpmdVm<'a> {
    /// Creates an SPMD VM with `lanes` lanes (clamped to
    /// `1..=`[`MAX_LANES`]) over a lowered shader, evaluating global
    /// initialisers once (profile-counted into [`SpmdVm::init_profile`])
    /// and broadcasting the results to every lane.
    ///
    /// # Errors
    ///
    /// Fails if a global initialiser fails to evaluate (same cases as
    /// [`crate::interp::Interpreter::with_model`]).
    pub fn with_model(
        exe: &'a Executable,
        textures: &'a dyn TextureAccess,
        model: FloatModel,
        lanes: usize,
    ) -> Result<Self, RuntimeError> {
        let lanes = lanes.clamp(1, MAX_LANES);
        let mut vm = SpmdVm {
            exe,
            textures,
            model,
            limits: ExecLimits::default(),
            lanes,
            globals: exe
                .globals
                .iter()
                .map(|ty| Slot::splat(&Value::zero_of(ty)))
                .collect(),
            consts: exe.consts.iter().map(Slot::splat).collect(),
            reset_list: Vec::new(),
            locals: Vec::new(),
            loop_counters: vec![Vec::new(); lanes],
            profile: OpProfile::new(),
            init_profile: OpProfile::new(),
            arg_buf: Vec::new(),
            pending: Vec::new(),
            frag_color_slot: exe.global_slot("gl_FragColor"),
            frag_data_slot: exe.global_slot("gl_FragData"),
            discarded: [false; MAX_LANES],
            wrote_frag_color: [false; MAX_LANES],
            wrote_frag_data: [false; MAX_LANES],
            completed: [false; MAX_LANES],
            replays: 0,
        };
        // A single-lane run through the SPMD engine is exactly a scalar
        // run; use it for the initialisers on lane 0, then broadcast.
        vm.exec(1, &exe.init)?;
        vm.init_profile = std::mem::take(&mut vm.profile);
        for slot in &mut vm.globals {
            let v = slot.get(0);
            *slot = Slot::splat(&v);
        }
        vm.reset_list = exe
            .reset_slots
            .iter()
            .map(|&slot| (slot, vm.globals[slot as usize].get(0)))
            .collect();
        Ok(vm)
    }

    /// Replaces the execution limits.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    /// Number of lanes this VM shades per full batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sets a global by name on **every** lane (uniforms and other
    /// batch-invariant inputs).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unbound`] if no such global exists.
    pub fn set_global(&mut self, name: &str, value: Value) -> Result<(), RuntimeError> {
        match self.exe.global_slot(name) {
            Some(slot) => {
                self.set_slot_all(slot, value);
                Ok(())
            }
            None => Err(RuntimeError::Unbound { name: name.into() }),
        }
    }

    /// Sets a global by pre-resolved slot on every lane.
    pub fn set_slot_all(&mut self, slot: u32, value: Value) {
        self.globals[slot as usize] = Slot::splat(&value);
    }

    /// Sets a global by pre-resolved slot on one lane (per-fragment
    /// inputs: varyings, `gl_FragCoord`).
    pub fn set_lane_slot(&mut self, lane: usize, slot: u32, value: Value) {
        self.globals[slot as usize].set(lane, value);
    }

    /// Sets a `float` or `vecN` global by pre-resolved slot on one lane
    /// from its components, with no [`Value`] in between. Returns
    /// `false`, with nothing written, when the slot does not hold that
    /// many float components per lane (use [`SpmdVm::set_lane_slot`]).
    pub fn set_lane_floats(&mut self, lane: usize, slot: u32, comps: &[f32]) -> bool {
        match self.globals[slot as usize].floats_mut() {
            Some((x, n)) if n == comps.len() => {
                x[lane * n..(lane + 1) * n].copy_from_slice(comps);
                true
            }
            _ => false,
        }
    }

    /// Resolves a global name to its slot (see
    /// [`Executable::global_slot`]).
    pub fn global_slot(&self, name: &str) -> Option<u32> {
        self.exe.global_slot(name)
    }

    /// Reads a lane's global by name (materialised out of the SoA slot).
    pub fn global(&self, lane: usize, name: &str) -> Option<Value> {
        self.exe
            .global_slot(name)
            .map(|slot| self.global_at(lane, slot))
    }

    /// Reads a lane's global by pre-resolved slot (per-vertex outputs).
    pub fn global_at(&self, lane: usize, slot: u32) -> Value {
        self.globals[slot as usize].get(lane)
    }

    /// Whether `lane` executed `discard` in the last batch.
    pub fn discarded(&self, lane: usize) -> bool {
        self.discarded[lane]
    }

    /// Whether `lane` wrote `gl_FragColor` / `gl_FragData` in the last
    /// batch.
    pub fn wrote_outputs(&self, lane: usize) -> (bool, bool) {
        (self.wrote_frag_color[lane], self.wrote_frag_data[lane])
    }

    /// Whether `lane` ran to completion in the last batch (false only
    /// for the erroring lane and lanes above it when
    /// [`SpmdVm::run_batch`] returned a [`BatchError`]).
    pub fn completed(&self, lane: usize) -> bool {
        self.completed[lane]
    }

    /// The fragment colour `lane` produced in the last batch, honouring
    /// whether the shader used `gl_FragColor` or `gl_FragData[0]`. Read
    /// in place: no [`Value`] is built for a typed `gl_FragColor`.
    pub fn frag_color(&self, lane: usize) -> Option<[f32; 4]> {
        if self.wrote_frag_data[lane] {
            // `gl_FragData` is an array, so its slot is boxed: read the
            // element in place instead of cloning the array.
            match &self.globals[self.frag_data_slot? as usize] {
                Slot::Boxed(b) => match &b[lane] {
                    Value::Array(elems) => elems.first().and_then(Value::as_vec4),
                    _ => None,
                },
                _ => None,
            }
        } else {
            match &self.globals[self.frag_color_slot? as usize] {
                Slot::V4(x) => Some(x[lane]),
                slot => slot.get(lane).as_vec4(),
            }
        }
    }

    /// The global-initialiser profile, counted once per VM.
    pub fn init_profile(&self) -> OpProfile {
        self.init_profile
    }

    /// Accumulated profile over all lanes plus the initialiser cost —
    /// identical to [`crate::interp::Interpreter::profile`] after
    /// running the same invocations sequentially.
    pub fn profile(&self) -> OpProfile {
        let mut total = self.init_profile;
        total.merge(&self.profile);
        total
    }

    /// Resets the accumulated profile (all lanes and the initialiser
    /// share) and returns the previous total.
    pub fn take_profile(&mut self) -> OpProfile {
        let total = self.profile();
        self.init_profile = OpProfile::new();
        self.profile = OpProfile::new();
        total
    }

    /// Number of batches that trapped and were replayed lane-by-lane
    /// since the last call (the rasteriser reports these as scalar
    /// fallbacks).
    pub fn take_replays(&mut self) -> u64 {
        std::mem::take(&mut self.replays)
    }

    /// Runs `main()` once on lanes `0..active`.
    ///
    /// On success every lane completed (check [`SpmdVm::discarded`] and
    /// read [`SpmdVm::frag_color`] per lane). If any lane traps, the
    /// batch is replayed lane-by-lane so outputs, profiles and the
    /// reported error match scalar execution exactly.
    ///
    /// # Errors
    ///
    /// [`BatchError`] carrying the lowest-index erroring lane and its
    /// scalar-order [`RuntimeError`].
    pub fn run_batch(&mut self, active: usize) -> Result<(), BatchError> {
        assert!(active >= 1 && active <= self.lanes, "bad batch width");
        let mask = ((1u16 << active) - 1) as u8;
        let snapshot = self.profile;
        for lane in 0..active {
            self.begin_invocation(lane);
        }
        self.completed[..active].fill(false);
        let exe = self.exe;
        match self.exec(mask, &exe.main) {
            Ok(()) => {
                self.completed[..active].fill(true);
                Ok(())
            }
            Err(_) => {
                // Lockstep state is torn mid-instruction; discard it and
                // replay each lane alone, which is exactly scalar.
                self.replays += 1;
                self.profile = snapshot;
                for lane in 0..active {
                    self.begin_invocation(lane);
                    match self.exec(1 << lane, &exe.main) {
                        Ok(()) => self.completed[lane] = true,
                        Err(error) => return Err(BatchError { lane, error }),
                    }
                }
                Ok(())
            }
        }
    }

    /// Per-invocation reset for one lane, mirroring the interpreter's
    /// `run_main` prologue.
    fn begin_invocation(&mut self, lane: usize) {
        self.discarded[lane] = false;
        self.wrote_frag_color[lane] = false;
        self.wrote_frag_data[lane] = false;
        self.loop_counters[lane].clear();
        for (slot, value) in &self.reset_list {
            self.globals[*slot as usize].set(lane, value.clone());
        }
        self.profile.invocations += 1;
    }

    /// Grows the frame arena to at least `need` slots.
    fn ensure_locals(&mut self, need: usize) {
        if self.locals.len() < need {
            self.locals.resize(need, Slot::F([0.0; MAX_LANES]));
        }
    }

    /// The slot operand `o` reads (for a [`Opnd::GlobalComp`], the whole
    /// vector).
    #[inline(always)]
    fn slot(&self, o: Opnd) -> &Slot {
        match o {
            Opnd::Local(s) => &self.locals[s as usize],
            Opnd::Const(c) => &self.consts[c as usize],
            Opnd::Global(g) | Opnd::GlobalComp(g, _) => &self.globals[g as usize],
        }
    }

    /// Operand `o`'s `float` lanes; `None` for any other slot.
    #[inline(always)]
    fn f1(&self, o: Opnd) -> Option<[f32; MAX_LANES]> {
        match o {
            Opnd::GlobalComp(g, c) => {
                let c = c as usize;
                match &self.globals[g as usize] {
                    Slot::V2(x) if c < 2 => Some(per_lane(|l| x[l][c])),
                    Slot::V3(x) if c < 3 => Some(per_lane(|l| x[l][c])),
                    Slot::V4(x) => Some(per_lane(|l| x[l][c & 3])),
                    _ => None,
                }
            }
            _ => match self.slot(o) {
                Slot::F(x) => Some(*x),
                _ => None,
            },
        }
    }

    /// Component `c` of operand `o`'s float vector lanes; `None` for any
    /// other slot.
    #[inline(always)]
    fn component(&self, o: Opnd, c: u8) -> Option<[f32; MAX_LANES]> {
        let c = c as usize;
        match (self.slot(o), o) {
            (_, Opnd::GlobalComp(..)) => None,
            (Slot::V2(x), _) if c < 2 => Some(per_lane(|l| x[l][c])),
            (Slot::V3(x), _) if c < 3 => Some(per_lane(|l| x[l][c])),
            (Slot::V4(x), _) => Some(per_lane(|l| x[l][c & 3])),
            _ => None,
        }
    }

    /// The hot one-argument `float` builtins, inline: `false`, with
    /// nothing written, for any other builtin or a slot that is not a
    /// `float`.
    #[inline(always)]
    fn unary_f1(&mut self, id: BuiltinId, arg: Opnd, dst: usize, mask: u8, owned: bool) -> bool {
        use BuiltinId as B;
        if !matches!(id, B::Floor | B::Exp2 | B::Log2 | B::Abs | B::Fract) {
            return false;
        }
        let Some(v) = self.f1(arg) else {
            return false;
        };
        // One loop per builtin, so each inlines its function.
        let (r, sfu) = match id {
            B::Floor => (per_lane(|l| builtins::floor_f32(v[l])), false),
            B::Exp2 => (per_lane(|l| builtins::exp2_f32(v[l])), true),
            B::Log2 => (per_lane(|l| v[l].log2()), true),
            B::Abs => (per_lane(|l| v[l].abs()), false),
            _ => (per_lane(|l| builtins::fract_f32(v[l])), false),
        };
        count_ops(&mut self.profile, sfu, 1, mask);
        let r = round8(self.model, sfu, r);
        self.locals[dst].put_f1(r, mask, owned);
        true
    }

    /// Copies operand `o`'s float components into `out`, lane-major, and
    /// returns how many each lane has; `None` when the slot holds no
    /// float or vecN (a boxed slot takes the generic path).
    #[inline(always)]
    fn floats(&self, o: Opnd, out: &mut Lanes) -> Option<usize> {
        let (x, n) = self.slot(o).floats()?;
        if let Opnd::GlobalComp(_, c) = o {
            let c = c as usize;
            if c >= n {
                return None;
            }
            for (l, v) in out[..MAX_LANES].iter_mut().enumerate() {
                *v = x[l * n + c];
            }
            return Some(1);
        }
        copy_lanes(&mut out[..], x, n);
        Some(n)
    }

    /// [`SpmdVm::floats`] of exactly `n` components per lane.
    #[inline(always)]
    fn floats_n(&self, o: Opnd, n: usize, out: &mut Lanes) -> bool {
        self.floats(o, out) == Some(n)
    }

    /// Operand `o`'s `int` lanes; `None` for any other slot.
    fn ints(&self, o: Opnd) -> Option<[i32; MAX_LANES]> {
        match self.slot(o) {
            Slot::I(x) if !matches!(o, Opnd::GlobalComp(..)) => Some(*x),
            _ => None,
        }
    }

    /// Operand `o`'s `bool` lanes; `None` for any other slot.
    fn bools(&self, o: Opnd) -> Option<[bool; MAX_LANES]> {
        match self.slot(o) {
            Slot::B(x) if !matches!(o, Opnd::GlobalComp(..)) => Some(*x),
            _ => None,
        }
    }

    /// One lane's value of operand `o`, materialised (the generic paths).
    fn value(&self, o: Opnd, lane: usize) -> Result<Value, RuntimeError> {
        let v = self.slot(o).get(lane);
        match o {
            Opnd::GlobalComp(_, c) => ops::swizzle_read(&v, &[c as usize]),
            _ => Ok(v),
        }
    }

    /// The generic path of a value instruction: `f` computes each
    /// `mask` lane's result from materialised operands with the
    /// interpreter's own routines, then the results go to frame slot
    /// `dst` (absolute). Out of line, so the typed paths stay tight.
    #[cold]
    #[inline(never)]
    fn lanewise(
        &mut self,
        dst: usize,
        mask: u8,
        owned: bool,
        mut f: impl FnMut(&mut Self, usize) -> Result<Value, RuntimeError>,
    ) -> Result<(), RuntimeError> {
        let mut out = lane_values();
        for_lanes!(mask, l => {
            out[l] = f(self, l)?;
        });
        self.locals[dst].put_lanes(&mut out, mask, owned);
        Ok(())
    }

    /// `locals[dst] = src` for the running context.
    fn copy_to(&mut self, dst: usize, src: Opnd, mask: u8, owned: bool) {
        match src {
            Opnd::Local(s) => {
                let s = s as usize;
                if s != dst {
                    let (d, s) = pair_mut(&mut self.locals, dst, s);
                    d.write_from(s, mask, owned);
                }
            }
            Opnd::Const(c) => self.locals[dst].write_from(&self.consts[c as usize], mask, owned),
            Opnd::Global(g) => self.locals[dst].write_from(&self.globals[g as usize], mask, owned),
            Opnd::GlobalComp(g, c) => {
                let mut x = [0.0; 4 * MAX_LANES];
                if self.floats_n(src, 1, &mut x) {
                    self.locals[dst].put_floats(1, &x, mask, owned);
                } else {
                    for_lanes!(mask, l => {
                        let v = self.globals[g as usize].get(l);
                        let v = ops::swizzle_read(&v, &[c as usize]).unwrap_or(v);
                        self.locals[dst].set(l, v);
                    });
                }
            }
        }
    }

    /// `globals[slot] = src` on the running context's lanes (globals are
    /// always written masked).
    fn store_global(&mut self, slot: usize, src: Opnd, mask: u8) {
        match src {
            Opnd::Local(s) => self.globals[slot].copy_masked_from(&self.locals[s as usize], mask),
            Opnd::Const(c) => self.globals[slot].copy_masked_from(&self.consts[c as usize], mask),
            Opnd::Global(g) if g as usize == slot => {}
            Opnd::Global(g) => {
                let (d, s) = pair_mut(&mut self.globals, slot, g as usize);
                d.copy_masked_from(s, mask);
            }
            Opnd::GlobalComp(..) => {
                for_lanes!(mask, l => {
                    if let Ok(v) = self.value(src, l) {
                        self.globals[slot].set(l, v);
                    }
                });
            }
        }
    }

    /// `locals[dst] = cond ? a : b`, lane by lane.
    fn select(
        &mut self,
        dst: usize,
        cond: Opnd,
        (a, b): (Opnd, Opnd),
        mask: u8,
        owned: bool,
    ) -> Result<(), RuntimeError> {
        if let (Some(c), Some(x), Some(y)) = (self.bools(cond), self.f1(a), self.f1(b)) {
            let v = per_lane(|l| if c[l] { x[l] } else { y[l] });
            self.locals[dst].put_f1(v, mask, owned);
            return Ok(());
        }
        self.lanewise(dst, mask, owned, |vm, l| {
            let c = vm
                .value(cond, l)?
                .as_bool()
                .ok_or_else(|| RuntimeError::Type {
                    message: "condition did not evaluate to bool".into(),
                })?;
            vm.value(if c { a } else { b }, l)
        })
    }

    /// `dst = a op b` over the typed lanes `shape` names; `false`, with
    /// nothing written, where a slot is not of that shape (the caller
    /// takes the generic path). Counts exactly like
    /// [`ops::apply_binary`].
    #[allow(clippy::too_many_arguments)]
    fn binary_fast(
        &mut self,
        op: BinOp,
        shape: Shape,
        dst: usize,
        a: Opnd,
        b: Opnd,
        mask: u8,
        owned: bool,
    ) -> bool {
        use BinOp::*;
        let arith = matches!(op, Add | Sub | Mul | Div);
        if shape == Shape::F(1) {
            let (Some(x), Some(y)) = (self.f1(a), self.f1(b)) else {
                return false;
            };
            let r: [f32; MAX_LANES] = match op {
                Add => per_lane(|l| x[l] + y[l]),
                Sub => per_lane(|l| x[l] - y[l]),
                Mul => per_lane(|l| x[l] * y[l]),
                Div => per_lane(|l| x[l] / y[l]),
                _ => {
                    let Some(r) = compare_lanes(op, &x, &y) else {
                        return false;
                    };
                    count_ops(&mut self.profile, false, 1, mask);
                    self.locals[dst].put_bools(r, mask, owned);
                    return true;
                }
            };
            count_ops(&mut self.profile, false, 1, mask);
            self.locals[dst].put_f1(round8(self.model, false, r), mask, owned);
            return true;
        }
        match shape {
            Shape::F(n) | Shape::VecScalar(n) | Shape::ScalarVec(n) if arith => {
                let n = n as usize;
                let (na, nb) = match shape {
                    Shape::VecScalar(_) => (n, 1),
                    Shape::ScalarVec(_) => (1, n),
                    _ => (n, n),
                };
                let (mut x, mut y) = ([0.0; 4 * MAX_LANES], [0.0; 4 * MAX_LANES]);
                if !(self.floats_n(a, na, &mut x) && self.floats_n(b, nb, &mut y)) {
                    return false;
                }
                let mut out = [0.0; 4 * MAX_LANES];
                match op {
                    Add => zip_floats(&mut out, &x, na, &y, nb, n, |p, q| p + q),
                    Sub => zip_floats(&mut out, &x, na, &y, nb, n, |p, q| p - q),
                    Mul => zip_floats(&mut out, &x, na, &y, nb, n, |p, q| p * q),
                    _ => zip_floats(&mut out, &x, na, &y, nb, n, |p, q| p / q),
                }
                round_lanes(self.model, false, &mut out[..n * MAX_LANES]);
                count_ops(&mut self.profile, false, n as u64, mask);
                self.locals[dst].put_floats(n, &out, mask, owned);
                true
            }
            Shape::I => {
                let (Some(x), Some(y)) = (self.ints(a), self.ints(b)) else {
                    return false;
                };
                if arith {
                    let r = per_lane(|l| match op {
                        Add => x[l].wrapping_add(y[l]),
                        Sub => x[l].wrapping_sub(y[l]),
                        Mul => x[l].wrapping_mul(y[l]),
                        _ if y[l] == 0 => 0,
                        _ => x[l].wrapping_div(y[l]),
                    });
                    count_ops(&mut self.profile, false, 1, mask);
                    self.locals[dst].put_ints(r, mask, owned);
                    return true;
                }
                let Some(r) = compare_lanes(op, &x, &y) else {
                    return false;
                };
                count_ops(&mut self.profile, false, 1, mask);
                self.locals[dst].put_bools(r, mask, owned);
                true
            }
            Shape::B => {
                let (Some(x), Some(y)) = (self.bools(a), self.bools(b)) else {
                    return false;
                };
                let r: [bool; MAX_LANES] = match op {
                    Eq => per_lane(|l| x[l] == y[l]),
                    Ne | Xor => per_lane(|l| x[l] != y[l]),
                    _ => return false,
                };
                if op != Xor {
                    count_ops(&mut self.profile, false, 1, mask);
                }
                self.locals[dst].put_bools(r, mask, owned);
                true
            }
            _ => false,
        }
    }

    /// SoA fast paths for the hot builtins and constructors, replicating
    /// [`crate::builtins::call`]'s values, rounding and profile counts
    /// exactly; the result goes to frame slot `dst`, wholesale when the
    /// running context `owned` it. Returns `false` (with no state
    /// mutated) when the call must take the generic per-lane path —
    /// including every case where the scalar builtin would error.
    fn fast_builtin(
        &mut self,
        id: BuiltinId,
        args: &[Opnd],
        dst: usize,
        mask: u8,
        owned: bool,
    ) -> bool {
        use std::f32::consts::PI;
        use BuiltinId as B;
        let model = self.model;
        let lanes = || [0.0f32; 4 * MAX_LANES];

        // Component-wise genType builtins: `f` per component, then the
        // ALU or SFU rounding, one op per component. A scalar second
        // operand broadcasts, matching `builtins::map2`.
        macro_rules! map1 {
            ($sfu:expr, $f:expr) => {{
                let f = $f;
                if let Some(v) = self.f1(args[0]) {
                    count_ops(&mut self.profile, $sfu, 1, mask);
                    let v = round8(model, $sfu, per_lane(|l| f(v[l])));
                    self.locals[dst].put_f1(v, mask, owned);
                    return true;
                }
                let mut x = lanes();
                let Some(n) = self.floats(args[0], &mut x) else {
                    return false;
                };
                for v in &mut x[..n * MAX_LANES] {
                    *v = f(*v);
                }
                round_lanes(model, $sfu, &mut x[..n * MAX_LANES]);
                count_ops(&mut self.profile, $sfu, n as u64, mask);
                self.locals[dst].put_floats(n, &x, mask, owned);
                return true;
            }};
        }
        macro_rules! map2 {
            ($sfu:expr, $f:expr) => {{
                let f = $f;
                if let (Some(p), Some(q)) = (self.f1(args[0]), self.f1(args[1])) {
                    count_ops(&mut self.profile, $sfu, 1, mask);
                    let v = round8(model, $sfu, per_lane(|l| f(p[l], q[l])));
                    self.locals[dst].put_f1(v, mask, owned);
                    return true;
                }
                let (mut x, mut y, mut z) = (lanes(), lanes(), lanes());
                let (Some(n), Some(m)) =
                    (self.floats(args[0], &mut x), self.floats(args[1], &mut y))
                else {
                    return false;
                };
                if m != n && m != 1 {
                    return false;
                }
                zip_floats(&mut z, &x, n, &y, m, n, f);
                round_lanes(model, $sfu, &mut z[..n * MAX_LANES]);
                count_ops(&mut self.profile, $sfu, n as u64, mask);
                self.locals[dst].put_floats(n, &z, mask, owned);
                return true;
            }};
        }
        if args.len() == 1 {
            match id {
                B::Radians => map1!(false, |v: f32| v * (PI / 180.0)),
                B::Degrees => map1!(false, |v: f32| v * (180.0 / PI)),
                B::Sin => map1!(true, f32::sin),
                B::Cos => map1!(true, f32::cos),
                B::Tan => map1!(true, f32::tan),
                B::Asin => map1!(true, f32::asin),
                B::Acos => map1!(true, f32::acos),
                B::Atan => map1!(true, f32::atan),
                B::Exp => map1!(true, f32::exp),
                B::Log => map1!(true, f32::ln),
                B::Exp2 => map1!(true, builtins::exp2_f32),
                B::Log2 => map1!(true, f32::log2),
                B::Sqrt => map1!(true, f32::sqrt),
                B::InverseSqrt => map1!(true, |v: f32| 1.0 / v.sqrt()),
                B::Abs => map1!(false, f32::abs),
                B::Sign => map1!(false, |v: f32| {
                    if v > 0.0 {
                        1.0
                    } else if v < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                }),
                B::Floor => map1!(false, builtins::floor_f32),
                B::Ceil => map1!(false, builtins::ceil_f32),
                B::Fract => map1!(false, builtins::fract_f32),
                _ => {}
            }
        }

        if args.len() == 2 {
            match id {
                B::Mod => map2!(false, builtins::glsl_mod),
                B::Min => map2!(false, f32::min),
                B::Max => map2!(false, f32::max),
                B::Pow => map2!(true, f32::powf),
                B::Atan => map2!(true, f32::atan2),
                _ => {}
            }

            // step(edge, x): no rounding, alu += x's component count.
            if id == B::Step {
                let (mut x, mut y, mut z) = (lanes(), lanes(), lanes());
                let (Some(m), Some(n)) =
                    (self.floats(args[0], &mut x), self.floats(args[1], &mut y))
                else {
                    return false;
                };
                if m != n && m != 1 {
                    return false;
                }
                zip_floats(
                    &mut z,
                    &y,
                    n,
                    &x,
                    m,
                    n,
                    |v, e| if v < e { 0.0 } else { 1.0 },
                );
                count_ops(&mut self.profile, false, n as u64, mask);
                self.locals[dst].put_floats(n, &z, mask, owned);
                return true;
            }

            // dot(a, b): chained rounding, alu += 2n.
            if id == B::Dot {
                let (mut x, mut y, mut z) = (lanes(), lanes(), lanes());
                let (Some(n), Some(m)) =
                    (self.floats(args[0], &mut x), self.floats(args[1], &mut y))
                else {
                    return false;
                };
                if m != n {
                    return false;
                }
                for (o, (xs, ys)) in z
                    .iter_mut()
                    .zip(x.chunks_exact(n).zip(y.chunks_exact(n)))
                    .take(MAX_LANES)
                {
                    *o = xs.iter().zip(ys).fold(0.0f32, |acc, (&p, &q)| {
                        model.round_alu(acc + model.round_alu(p * q))
                    });
                }
                count_ops(&mut self.profile, false, 2 * n as u64, mask);
                self.locals[dst].put_floats(1, &z, mask, owned);
                return true;
            }

            // texture2D(sampler, vec2): one fetch per lane.
            if id == B::Texture2D {
                let Slot::S(units) = self.slot(args[0]) else {
                    return false;
                };
                let units = *units;
                let (mut y, mut z) = (lanes(), lanes());
                if !self.floats_n(args[1], 2, &mut y) {
                    return false;
                }
                for_lanes!(mask, l => {
                    let t = self.textures.sample(units[l], [y[2 * l], y[2 * l + 1]]);
                    z[4 * l..4 * l + 4].copy_from_slice(&t);
                });
                self.profile.tex_fetches += lane_count(mask);
                self.locals[dst].put_floats(4, &z, mask, owned);
                return true;
            }
        }

        // clamp / mix on genTypes: alu += 2n, one rounding per component;
        // scalar bounds (clamp) or a scalar weight (mix) broadcast.
        if args.len() == 3 && matches!(id, B::Clamp | B::Mix) {
            let f: fn(f32, f32, f32) -> f32 = if id == B::Clamp {
                |v, lo, hi| v.max(lo).min(hi)
            } else {
                |p, q, t| p * (1.0 - t) + q * t
            };
            let (mut x, mut y, mut z) = (lanes(), lanes(), lanes());
            let (Some(n), Some(pn), Some(qn)) = (
                self.floats(args[0], &mut x),
                self.floats(args[1], &mut y),
                self.floats(args[2], &mut z),
            ) else {
                return false;
            };
            if (pn != n && pn != 1) || (qn != n && qn != 1) {
                return false;
            }
            let mut out = [0.0f32; 4 * MAX_LANES];
            for l in 0..MAX_LANES {
                for c in 0..n {
                    let (b, cc) = (lane_comp(&y, pn, l, c), lane_comp(&z, qn, l, c));
                    out[l * n + c] = model.round_alu(f(x[l * n + c], b, cc));
                }
            }
            count_ops(&mut self.profile, false, 2 * n as u64, mask);
            self.locals[dst].put_floats(n, &out, mask, owned);
            return true;
        }

        // float()/int() scalar conversions and vecN constructors.
        match id {
            B::Float | B::Int if args.len() == 1 => {
                let mut x = lanes();
                // The first component, one op per source component.
                let (first, comps): ([f32; MAX_LANES], usize) = match self.ints(args[0]) {
                    Some(x) => (per_lane(|l| x[l] as f32), 1),
                    None => match self.floats(args[0], &mut x) {
                        Some(n) => (per_lane(|l| x[l * n]), n),
                        None => return false,
                    },
                };
                count_ops(&mut self.profile, false, comps as u64, mask);
                if id == B::Float {
                    x[..MAX_LANES].copy_from_slice(&first);
                    self.locals[dst].put_floats(1, &x, mask, owned);
                } else {
                    self.locals[dst].put_ints(per_lane(|l| first[l] as i32), mask, owned);
                }
                true
            }
            B::Vec2 | B::Vec3 | B::Vec4 => {
                let dim = match id {
                    B::Vec2 => 2usize,
                    B::Vec3 => 3,
                    _ => 4,
                };
                // One float per component: gather straight from the
                // operands.
                if args.len() == dim {
                    let mut z = lanes();
                    for (c, &arg) in args.iter().enumerate() {
                        let Some(v) = self.f1(arg) else {
                            break;
                        };
                        for (l, &x) in v.iter().enumerate() {
                            z[l * dim + c] = x;
                        }
                        if c + 1 == dim {
                            count_ops(&mut self.profile, false, dim as u64, mask);
                            self.locals[dst].put_floats(dim, &z, mask, owned);
                            return true;
                        }
                    }
                }
                let mut total = 0usize;
                for &arg in args {
                    total += match self.slot(arg) {
                        Slot::F(_) | Slot::I(_) => 1,
                        _ if matches!(arg, Opnd::GlobalComp(..)) => 1,
                        Slot::V2(_) => 2,
                        Slot::V3(_) => 3,
                        Slot::V4(_) => 4,
                        _ => return false,
                    };
                }
                // Mirrors `builtins::build`: exact fill, single-scalar
                // splat, or single-argument truncation; anything else
                // errors in a sequential run, so take the generic path.
                if !(total == dim || total == 1 || (total > dim && args.len() == 1)) {
                    return false;
                }
                // Gather argument by argument across all lanes (dead
                // lanes hold valid values of the same shape); components
                // past the fourth are truncated away.
                let mut out = [[0.0f32; 4]; MAX_LANES];
                let (mut x, mut z) = (lanes(), lanes());
                let mut k = 0usize;
                for &arg in args {
                    let n = match self.ints(arg) {
                        Some(v) => {
                            x[..MAX_LANES].copy_from_slice(&per_lane(|l| v[l] as f32));
                            1
                        }
                        None => match self.floats(arg, &mut x) {
                            Some(n) => n,
                            None => return false,
                        },
                    };
                    for c in 0..n.min(4 - k.min(4)) {
                        for (l, o) in out.iter_mut().enumerate() {
                            o[k + c] = x[l * n + c];
                        }
                    }
                    k += n;
                }
                if total == 1 {
                    for o in &mut out {
                        *o = [o[0]; 4];
                    }
                }
                count_ops(&mut self.profile, false, total as u64, mask);
                for (l, o) in out.iter().enumerate() {
                    z[l * dim..(l + 1) * dim].copy_from_slice(&o[..dim]);
                }
                self.locals[dst].put_floats(dim, &z, mask, owned);
                true
            }
            _ => false,
        }
    }

    /// Runs builtin `id` on `args`, leaving the result in frame slot
    /// `dst`: the SoA fast path when one applies, else
    /// [`builtins::call`] lane by lane on each lane's materialised
    /// arguments.
    fn call_builtin(
        &mut self,
        id: BuiltinId,
        shape: Shape,
        args: &[Opnd],
        dst: usize,
        mask: u8,
        owned: bool,
    ) -> Result<(), RuntimeError> {
        if shape != Shape::Any && self.fast_builtin(id, args, dst, mask, owned) {
            return Ok(());
        }
        self.lanewise(dst, mask, owned, |vm, lane| {
            vm.arg_buf.clear();
            for &a in args {
                let v = vm.value(a, lane)?;
                vm.arg_buf.push(v);
            }
            let mut cx = BuiltinCx {
                model: vm.model,
                profile: &mut vm.profile,
                textures: vm.textures,
            };
            builtins::call(id, &vm.arg_buf, &mut cx).unwrap_or_else(|| {
                Err(RuntimeError::Unbound {
                    name: id.name().into(),
                })
            })
        })
    }

    /// Runs `chunk` to completion for the lanes in `mask`, scheduling
    /// divergent contexts as described in the module docs. On error the
    /// per-lane state is torn (the caller replays); a single-lane run is
    /// exact scalar execution. The pending list is a VM-owned buffer, so
    /// a batch allocates nothing once it has grown.
    fn exec(&mut self, mask: u8, chunk: &Chunk) -> Result<(), RuntimeError> {
        let mut pending = std::mem::take(&mut self.pending);
        let live = chunk.frame_size as usize;
        let mut cur = Ctx { mask, pc: 0, live };
        self.ensure_locals(live);
        let result = self.run(chunk, &mut cur, &mut pending);
        pending.clear();
        self.pending = pending;
        result
    }

    /// The instruction loop of [`SpmdVm::exec`].
    fn run(
        &mut self,
        chunk: &Chunk,
        cur: &mut Ctx,
        pending: &mut Vec<Ctx>,
    ) -> Result<(), RuntimeError> {
        let exe = self.exe;
        let code = &chunk.code[..];
        // Ownership floor of `pending` (see `floor`): a frame write at or
        // above it goes wholesale, below it it is masked. Globals are
        // always written masked — see the module docs. Every change to
        // `pending` is followed by `refloor!`.
        let mut fl = 0usize;

        macro_rules! refloor {
            () => {
                fl = floor(pending)
            };
        }

        macro_rules! owns {
            ($s:expr) => {
                owns($s, fl, pending, &chunk.splices)
            };
        }

        // After a jump lands: let pending contexts merge or catch up
        // (nothing to do in uniform flow).
        macro_rules! land {
            () => {
                if !pending.is_empty() {
                    reschedule(cur, pending);
                    refloor!();
                }
            };
        }

        macro_rules! next_ctx {
            () => {{
                match pending.pop() {
                    Some(p) => {
                        *cur = p;
                        refloor!();
                        continue;
                    }
                    None => return Ok(()),
                }
            }};
        }

        // The lanes of `taken` jump to `to`: all, none, or — a divergence —
        // the jumping subgroup is deferred and the fall-through side keeps
        // walking.
        macro_rules! jump {
            ($taken:expr, $to:expr) => {{
                let (go, stay) = ($taken & cur.mask, !$taken & cur.mask);
                if go == 0 {
                    cur.pc += 1;
                } else if stay == 0 {
                    cur.pc = $to.pc as usize;
                    cur.live = $to.live as usize;
                    land!();
                } else {
                    pending.push(Ctx {
                        mask: go,
                        pc: $to.pc as usize,
                        live: $to.live as usize,
                    });
                    cur.mask = stay;
                    cur.pc += 1;
                    refloor!();
                }
                continue;
            }};
        }

        loop {
            // Merge any pending context that has caught up to `cur`.
            if !pending.is_empty() && merge_caught_up(cur, pending) {
                refloor!();
            }
            if cur.pc >= code.len() {
                next_ctx!();
            }
            #[cfg(test)]
            EXECUTED.with(|n| n.set(n.get() + 1));
            let mask = cur.mask;
            match &code[cur.pc] {
                &Insn::Move { dst, src } => {
                    let dst = dst as usize;
                    let owned = owns!(dst);
                    match self.f1(src) {
                        Some(v) => self.locals[dst].put_f1(v, mask, owned),
                        None => self.copy_to(dst, src, mask, owned),
                    }
                }
                &Insn::Binary {
                    op,
                    shape,
                    dst,
                    a,
                    b,
                } => {
                    let dst = dst as usize;
                    let owned = owns!(dst);
                    if !self.binary_fast(op, shape, dst, a, b, mask, owned) {
                        self.lanewise(dst, mask, owned, |vm, l| {
                            let (av, bv) = (vm.value(a, l)?, vm.value(b, l)?);
                            ops::apply_binary(vm.model, &mut vm.profile, op, av, bv)
                        })?;
                    }
                }
                &Insn::Neg { shape, dst, a } => {
                    let dst = dst as usize;
                    let owned = owns!(dst);
                    let mut x = [0.0; 4 * MAX_LANES];
                    let ints = match shape {
                        Shape::I => self.ints(a),
                        _ => None,
                    };
                    match (shape, ints) {
                        (Shape::F(n), _) if self.floats_n(a, n as usize, &mut x) => {
                            for v in &mut x {
                                *v = -*v;
                            }
                            self.locals[dst].put_floats(n as usize, &x, mask, owned);
                        }
                        (_, Some(v)) => {
                            self.locals[dst].put_ints(
                                per_lane(|l| v[l].wrapping_neg()),
                                mask,
                                owned,
                            );
                        }
                        _ => {
                            self.lanewise(dst, mask, owned, |vm, l| ops::negate(vm.value(a, l)?))?
                        }
                    }
                }
                &Insn::Select { dst, cond, a, b } => {
                    let dst = dst as usize;
                    let owned = owns!(dst);
                    self.profile.branches += lane_count(mask);
                    self.select(dst, cond, (a, b), mask, owned)?;
                }
                &Insn::Not { dst, a } => {
                    let dst = dst as usize;
                    let owned = owns!(dst);
                    match self.bools(a) {
                        Some(v) => self.locals[dst].put_bools(per_lane(|l| !v[l]), mask, owned),
                        None => self.lanewise(dst, mask, owned, |vm, l| {
                            let b =
                                vm.value(a, l)?
                                    .as_bool()
                                    .ok_or_else(|| RuntimeError::Type {
                                        message: "`!` requires bool".into(),
                                    })?;
                            Ok(Value::Bool(!b))
                        })?,
                    }
                }
                &Insn::Swizzle { dst, src, idx, len } => {
                    let dst = dst as usize;
                    let owned = owns!(dst);
                    if len == 1 {
                        if let Some(v) = self.component(src, idx[0]) {
                            self.locals[dst].put_f1(v, mask, owned);
                            cur.pc += 1;
                            continue;
                        }
                    }
                    let len = len as usize;
                    let mut x = [0.0; 4 * MAX_LANES];
                    match self.floats(src, &mut x) {
                        Some(n) if idx[..len].iter().all(|&i| (i as usize) < n) => {
                            let mut out = [0.0; 4 * MAX_LANES];
                            for l in 0..MAX_LANES {
                                for (k, &i) in idx[..len].iter().enumerate() {
                                    out[l * len + k] = x[l * n + i as usize];
                                }
                            }
                            self.locals[dst].put_floats(len, &out, mask, owned);
                        }
                        _ => {
                            let sel = idx.map(usize::from);
                            self.lanewise(dst, mask, owned, |vm, l| {
                                ops::swizzle_read(&vm.value(src, l)?, &sel[..len])
                            })?;
                        }
                    }
                }
                &Insn::Index { dst, base, index } => {
                    let dst = dst as usize;
                    self.lanewise(dst, mask, owns!(dst), |vm, l| {
                        let i = lane_index(vm.value(index, l)?)?;
                        // Avoid cloning boxed aggregates (arrays) just to
                        // read one element.
                        match vm.slot(base) {
                            Slot::Boxed(b) if !matches!(base, Opnd::GlobalComp(..)) => {
                                ops::index_read(&b[l], i)
                            }
                            _ => ops::index_read(&vm.value(base, l)?, i),
                        }
                    })?;
                }
                &Insn::Builtin {
                    id,
                    shape,
                    dst,
                    args,
                    argc,
                } => {
                    let dst = dst as usize;
                    let owned = owns!(dst);
                    let args = &exe.operands[args as usize..args as usize + argc as usize];
                    if !(shape == Shape::F(1)
                        && argc == 1
                        && self.unary_f1(id, args[0], dst, mask, owned))
                    {
                        self.call_builtin(id, shape, args, dst, mask, owned)?;
                    }
                }
                Insn::Enter => self.profile.calls += lane_count(mask),
                Insn::Ret { .. } => unreachable!("a return left unspliced"),
                &Insn::StoreGlobal { slot, src, color } => {
                    if color {
                        for_lanes!(mask, l => { self.wrote_frag_color[l] = true; });
                    }
                    self.store_global(slot as usize, src, mask);
                }
                &Insn::Store { def, src } => self.store_path(def, src, mask)?,
                &Insn::Jump(t) => {
                    cur.pc = t.pc as usize;
                    cur.live = t.live as usize;
                    land!();
                    continue;
                }
                &Insn::JumpCmp {
                    op,
                    shape,
                    a,
                    b,
                    on,
                    to,
                    branch,
                } => {
                    if branch {
                        self.profile.branches += lane_count(mask);
                    }
                    let r = match shape {
                        Shape::I => match (self.ints(a), self.ints(b)) {
                            (Some(x), Some(y)) => compare_lanes(op, &x, &y),
                            _ => None,
                        },
                        _ => match (self.f1(a), self.f1(b)) {
                            (Some(x), Some(y)) => compare_lanes(op, &x, &y),
                            _ => None,
                        },
                    };
                    let taken = match r {
                        Some(r) => {
                            count_ops(&mut self.profile, false, 1, mask);
                            r.iter()
                                .enumerate()
                                .fold(0u8, |m, (lane, &t)| m | u8::from(t == on) << lane)
                        }
                        None => {
                            let mut taken = 0u8;
                            for_lanes!(mask, lane => {
                                let (av, bv) = (self.value(a, lane)?, self.value(b, lane)?);
                                let t = ops::apply_binary(self.model, &mut self.profile, op, av, bv)?;
                                taken |= u8::from(t == Value::Bool(on)) << lane;
                            });
                            taken
                        }
                    };
                    jump!(taken, to);
                }
                &Insn::JumpIf {
                    cond,
                    on,
                    to,
                    branch,
                } => {
                    if branch {
                        self.profile.branches += lane_count(mask);
                    }
                    let taken = match self.bools(cond) {
                        Some(x) => x
                            .iter()
                            .enumerate()
                            .fold(0u8, |m, (lane, &b)| m | u8::from(b == on) << lane),
                        None => {
                            let mut taken = 0u8;
                            for_lanes!(mask, lane => {
                                match self.value(cond, lane)?.as_bool() {
                                    Some(b) => taken |= u8::from(b == on) << lane,
                                    None => {
                                        return Err(RuntimeError::Type {
                                            message: "condition did not evaluate to bool".into(),
                                        })
                                    }
                                }
                            });
                            taken
                        }
                    };
                    jump!(taken, to);
                }
                Insn::LoopEnter => {
                    for_lanes!(mask, lane => {
                        self.loop_counters[lane].push(0);
                    });
                }
                Insn::LoopIter { span } => {
                    self.profile.branches += lane_count(mask);
                    for_lanes!(mask, lane => {
                        let counter = self.loop_counters[lane]
                            .last_mut()
                            .expect("loop counter underflow");
                        *counter += 1;
                        if *counter > self.limits.max_loop_iterations {
                            return Err(RuntimeError::LoopLimit {
                                limit: self.limits.max_loop_iterations,
                                span: *span,
                            });
                        }
                    });
                }
                Insn::LoopExit => {
                    for_lanes!(mask, lane => {
                        self.loop_counters[lane].pop();
                    });
                }
                Insn::Discard => {
                    for_lanes!(mask, lane => {
                        self.discarded[lane] = true;
                    });
                    next_ctx!();
                }
                Insn::ErrDiscardInFunction => {
                    return Err(RuntimeError::Type {
                        message: "discard inside a function is not supported by this subset".into(),
                    })
                }
                Insn::ErrNoReturn(func) => {
                    let name = &exe.functions[*func as usize];
                    return Err(RuntimeError::Type {
                        message: format!("function `{name}` ended without returning a value"),
                    });
                }
                Insn::Halt => next_ctx!(),
            }
            cur.pc += 1;
        }
    }

    /// Stores `src` through `stores[def]`'s accessor path, lane by lane,
    /// with the interpreter's own swizzle and index mutators.
    fn store_path(&mut self, def: u32, src: Opnd, mask: u8) -> Result<(), RuntimeError> {
        let exe = self.exe;
        let def = &exe.stores[def as usize];
        let n = def.n_index as usize;
        let index_ops = &exe.operands[def.indices as usize..def.indices as usize + n];
        for_lanes!(mask, lane => {
            let mut indices = [0i64; 8];
            for (slot, &o) in indices.iter_mut().zip(index_ops) {
                *slot = lane_index(self.value(o, lane)?)?;
            }
            let value = self.value(src, lane)?;
            if def.wrote_color {
                self.wrote_frag_color[lane] = true;
            }
            if def.wrote_data {
                self.wrote_frag_data[lane] = true;
            }
            let root_slot: &mut Slot = match def.root {
                SlotRef::Global(s) => &mut self.globals[s as usize],
                SlotRef::Local(s) => &mut self.locals[s as usize],
            };
            // Mutate boxed aggregates in place; re-pack typed slots
            // through materialise/write-back.
            match root_slot {
                Slot::Boxed(b) => {
                    ops::write_path(&mut b[lane], &def.path, &indices[..n], value)?;
                }
                slot => {
                    let mut root = slot.get(lane);
                    ops::write_path(&mut root, &def.path, &indices[..n], value)?;
                    slot.set(lane, root);
                }
            }
        });
        Ok(())
    }
}

/// An index operand's value as an index, erroring like the interpreter
/// on a non-`int`.
fn lane_index(v: Value) -> Result<i64, RuntimeError> {
    match v {
        Value::Int(i) => Ok(i as i64),
        other => Err(RuntimeError::Type {
            message: format!("index must be int, found {}", other.ty()),
        }),
    }
}

/// Component `c` of lane `l` in a lane-major buffer of `k` components
/// per lane; a one-component (`float`) buffer broadcasts.
fn lane_comp(v: &[f32], k: usize, l: usize, c: usize) -> f32 {
    v[l * k + c.min(k - 1)]
}

/// The number of lanes in each mask. The baseline x86-64 target has no
/// `popcnt`, so `count_ones` is a dozen instructions; the VM counts lanes
/// on nearly every instruction.
const LANE_COUNT: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = (i as u8).count_ones() as u8;
        i += 1;
    }
    t
};

/// The number of lanes in `mask`.
fn lane_count(mask: u8) -> u64 {
    u64::from(LANE_COUNT[mask as usize])
}

/// Counts `n` per-lane ALU (or, with `sfu`, SFU) operations on each of
/// the `mask` lanes: one profile bump per instruction, not per lane.
fn count_ops(profile: &mut OpProfile, sfu: bool, n: u64, mask: u8) {
    let total = n * lane_count(mask);
    if sfu {
        profile.sfu_ops += total;
    } else {
        profile.alu_ops += total;
    }
}

/// A relational `op` on every lane (dead lanes compare the values they
/// hold, harmlessly), with the operator matched once outside the lane
/// loop; `None` for any other operator.
#[inline(always)]
fn compare_lanes<T: PartialOrd>(
    op: BinOp,
    x: &[T; MAX_LANES],
    y: &[T; MAX_LANES],
) -> Option<[bool; MAX_LANES]> {
    Some(match op {
        BinOp::Lt => per_lane(|l| x[l] < y[l]),
        BinOp::Le => per_lane(|l| x[l] <= y[l]),
        BinOp::Gt => per_lane(|l| x[l] > y[l]),
        BinOp::Ge => per_lane(|l| x[l] >= y[l]),
        BinOp::Eq => per_lane(|l| x[l] == y[l]),
        BinOp::Ne => per_lane(|l| x[l] != y[l]),
        _ => return None,
    })
}

/// Applies the float model's SFU (`sfu`) or ALU rounding to every
/// component; rounding per component after the operation is what the
/// scalar paths do, one value at a time. Nothing to do where the model
/// keeps every value.
#[inline(always)]
fn round_lanes(model: FloatModel, sfu: bool, a: &mut [f32]) {
    if model.is_exact(sfu) {
        return;
    }
    for v in a {
        *v = if sfu {
            model.round_sfu(*v)
        } else {
            model.round_alu(*v)
        };
    }
}

/// [`round_lanes`] of one `float` per lane.
#[inline(always)]
fn round8(model: FloatModel, sfu: bool, mut v: [f32; MAX_LANES]) -> [f32; MAX_LANES] {
    round_lanes(model, sfu, &mut v);
    v
}

/// `out = f(a, b)` per component of `n`-component lanes, every lane:
/// `a` has `na` and `b` `nb` components per lane, each either `n` or
/// one that broadcasts across the lane's components.
#[inline(always)]
fn zip_floats(
    out: &mut Lanes,
    a: &Lanes,
    na: usize,
    b: &Lanes,
    nb: usize,
    n: usize,
    f: impl Fn(f32, f32) -> f32,
) {
    if na == nb {
        for ((o, &x), &y) in out[..n * MAX_LANES].iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    } else {
        for l in 0..MAX_LANES {
            for c in 0..n {
                out[l * n + c] = f(lane_comp(a, na, l, c), lane_comp(b, nb, l, c));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::lower;
    use crate::exec::NoTextures;
    use crate::interp::Interpreter;
    use crate::parser::parse;
    use crate::sema::{check, CompiledShader, ShaderKind};

    const P: &str = "precision highp float;\n";

    fn check_src(src: &str) -> CompiledShader {
        check(ShaderKind::Fragment, parse(src).expect("parse")).expect("check")
    }

    fn lower_src(src: &str) -> Executable {
        lower(&check_src(src)).expect("lower")
    }

    /// Runs `src` with per-lane values for the global `u_in` through the
    /// SPMD VM (one batch of `inputs.len()` lanes) and through the
    /// tree-walking interpreter (sequential invocations), asserting
    /// bit-identical colors, discard flags and aggregate profiles.
    fn assert_lanes_match(src: &str, inputs: &[f32]) {
        for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
            let shader = check_src(src);
            let exe = lower(&shader).expect("lower");
            let tex = NoTextures;
            let mut spmd = SpmdVm::with_model(&exe, &tex, model, inputs.len()).expect("spmd");
            let mut oracle = Interpreter::with_model(&shader, &tex, model).expect("interp");
            let slot = exe.global_slot("u_in").expect("u_in slot");
            for (lane, &x) in inputs.iter().enumerate() {
                spmd.set_lane_slot(lane, slot, Value::Float(x));
            }
            spmd.run_batch(inputs.len()).expect("batch");
            for (lane, &x) in inputs.iter().enumerate() {
                oracle.set_global("u_in", Value::Float(x)).expect("u_in");
                oracle.run_main().expect("oracle run");
                assert_eq!(
                    spmd.discarded(lane),
                    oracle.discarded(),
                    "discard lane {lane} of {src}"
                );
                if !oracle.discarded() {
                    assert_eq!(
                        spmd.frag_color(lane).map(|c| c.map(f32::to_bits)),
                        oracle.frag_color().map(|c| c.map(f32::to_bits)),
                        "color lane {lane} input {x} of {src} under {model:?}"
                    );
                }
            }
            assert_eq!(spmd.profile(), oracle.profile(), "profiles for {src}");
        }
    }

    /// [`assert_lanes_match`] that also requires the batch to box no
    /// slot.
    fn assert_lanes_match_unboxed(src: &str, inputs: &[f32]) {
        let boxed = SpmdVm::boxings();
        assert_lanes_match(src, inputs);
        assert_eq!(SpmdVm::boxings() - boxed, 0, "slots boxed running {src}");
    }

    /// A divergent `?:` whose value is the right operand of a binary
    /// operator: each arm writes the one slot the operator reads where
    /// the lanes rejoin, while the left operand is read in place (the
    /// arms of the last two are computed, so they branch; the others are
    /// per-lane selects). The same for a short-circuit `&&` join.
    #[test]
    fn operands_meet_at_a_join_on_the_right_operand() {
        assert_lanes_match_unboxed(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    float x = u_in + 0.5;
                    float a = x * (u_in > 2.0 ? 1.0 : 2.0);
                    float b = x - (u_in < 1.0 ? x : 0.25);
                    bool c = u_in > 0.5 && x < 4.0;
                    a += x * (u_in > 2.0 ? a * 0.5 : 2.0);
                    b -= u_in - (c ? 0.25 : x - b);
                    gl_FragColor = vec4(a, b, c ? 1.0 : 0.0, x * (c ? a : 3.0));
                 }}"
            ),
            &[0.25, 3.75, 1.5, 6.0, 2.5, 0.75, 4.0, 0.0],
        );
    }

    /// Operands read in place while a sibling context is parked inside a
    /// spliced callee (a divergent `if` with an early `return`): the
    /// returning lanes write the call's destination, which the parked
    /// lanes' own return writes first (so the running lanes own it), and
    /// wait at the call's exit; the parked lanes then write it masked,
    /// and all run the caller's `* 2.0` and `- kv` together. Every slot
    /// a masked write lands on keeps its type, so nothing boxes.
    #[test]
    fn operand_read_below_an_ownership_floor() {
        assert_lanes_match_unboxed(
            &format!(
                "{P}uniform float u_in;\n\
                 vec4 g(float v) {{
                    if (v > 2.0) {{ return vec4(v * 0.5); }}
                    float w = v + 1.0;
                    w = w * 1.5 - 0.25;
                    return vec4(w * w, w, 1.0, v);
                 }}
                 void main() {{
                    float k = u_in + 0.25;
                    vec4 kv = vec4(k);
                    vec4 y = vec4(0.0);
                    y = (vec4(u_in) + g(u_in)) * 2.0 - kv;
                    gl_FragColor = y * k;
                 }}"
            ),
            &[0.25, 3.75, 1.5, 6.0, 2.5, 0.75, 4.0, 0.0],
        );
    }

    /// The f32 codec library a kernel links (paper §IV; quarter-texel
    /// pack bias, specials preserved), as the core crate generates it.
    const F32_CODEC: &str = "\
        float gpes_unpack_byte(float t) { return floor(t * 255.0 + 0.5); }
        float gpes_pack_byte(float b) { return (b + 0.25) / 255.0; }
        float gpes_unpack_float(vec4 t) {
            float b0 = gpes_unpack_byte(t.x);
            float b1 = gpes_unpack_byte(t.y);
            float b2 = gpes_unpack_byte(t.z);
            float b3 = gpes_unpack_byte(t.w);
            float sign_value = b2 < 128.0 ? 1.0 : -1.0;
            float mant_hi = b2 < 128.0 ? b2 : b2 - 128.0;
            float m = b0 + b1 * 256.0 + mant_hi * 65536.0;
            if (b3 == 0.0) {
                return sign_value * m * exp2(-149.0);
            }
            if (b3 == 255.0) {
                if (m == 0.0) { return sign_value / 0.0; }
                return 0.0 / 0.0;
            }
            return sign_value * (1.0 + m * exp2(-23.0)) * exp2(b3 - 127.0);
        }
        vec4 gpes_pack_float(float v) {
            float s = 0.0;
            if (v < 0.0 || (v == 0.0 && 1.0 / v < 0.0)) { s = 128.0; }
            float a = abs(v);
            if (a != a) {
                return vec4(gpes_pack_byte(0.0), gpes_pack_byte(0.0),
                            gpes_pack_byte(64.0), gpes_pack_byte(255.0));
            }
            if (a == 1.0 / 0.0) {
                return vec4(gpes_pack_byte(0.0), gpes_pack_byte(0.0),
                            gpes_pack_byte(s), gpes_pack_byte(255.0));
            }
            if (a == 0.0) {
                return vec4(gpes_pack_byte(0.0), gpes_pack_byte(0.0),
                            gpes_pack_byte(s), gpes_pack_byte(0.0));
            }
            float e = floor(log2(a));
            if (e > 127.0) { e = 127.0; }
            float p = exp2(e);
            if (a < p) { e = e - 1.0; p = p * 0.5; }
            if (a >= p * 2.0) { e = e + 1.0; p = p * 2.0; }
            if (e < -126.0) {
                float md = floor(a * exp2(126.0) * 8388608.0 + 0.5);
                float d0 = mod(md, 256.0);
                float d1 = mod(floor(md / 256.0), 256.0);
                float d2 = s + floor(md / 65536.0);
                return vec4(gpes_pack_byte(d0), gpes_pack_byte(d1),
                            gpes_pack_byte(d2), gpes_pack_byte(0.0));
            }
            float m = floor((a / p - 1.0) * 8388608.0 + 0.5);
            if (m >= 8388608.0) { m = 0.0; e = e + 1.0; }
            float b3 = e + 127.0;
            float b0 = mod(m, 256.0);
            float b1 = mod(floor(m / 256.0), 256.0);
            float b2 = s + floor(m / 65536.0);
            return vec4(gpes_pack_byte(b0), gpes_pack_byte(b1),
                        gpes_pack_byte(b2), gpes_pack_byte(b3));
        }
    ";

    /// One f32 per texel of a row, in the codec's byte layout
    /// (mantissa low/mid, sign plus mantissa high, biased exponent).
    struct F32Row(Vec<f32>);

    impl TextureAccess for F32Row {
        fn sample(&self, _unit: u32, coord: [f32; 2]) -> [f32; 4] {
            let i = (coord[0] * self.0.len() as f32) as usize;
            let bits = self.0[i].to_bits();
            let m = bits & 0x7f_ffff;
            let bytes = [
                m & 0xff,
                (m >> 8) & 0xff,
                (bits >> 31) << 7 | m >> 16,
                (bits >> 23) & 0xff,
            ];
            bytes.map(|b| b as f32 / 255.0)
        }
    }

    /// The f32 codec branches on the sign, so a sign-mixed batch
    /// diverges for most of the kernel; a zero or denormal lane also
    /// returns early from `gpes_unpack_float` and `gpes_pack_float`.
    /// Their writes land on slots the running context owns, or keep the
    /// slot's type, so no slot is boxed, and every lane stays
    /// bit-identical to the tree-walker.
    #[test]
    fn sign_mixed_f32_codec_round_trip_boxes_no_slot() {
        let src = format!(
            "{P}uniform sampler2D u_tex;\nvarying vec2 v_uv;\n{F32_CODEC}\n\
             void main() {{ gl_FragColor = gpes_pack_float(gpes_unpack_float(texture2D(u_tex, v_uv))); }}"
        );
        // Two batches: the second holds zeros and denormals of both
        // signs among normal lanes.
        let row = F32Row(vec![
            1.5, -2.25, 3.0e-3, -0.125, 96.0, -7.5e5, 0.625, -1.0, //
            0.0, 2.5, 1.0e-40, -4.0, -0.0, 7.0e-3, -3.0e-39, 6.0e2,
        ]);
        let uv = |i: usize| Value::Vec2([(i as f32 + 0.5) / row.0.len() as f32, 0.5]);
        for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
            let shader = check_src(&src);
            let exe = lower(&shader).expect("lower");
            let mut spmd = SpmdVm::with_model(&exe, &row, model, MAX_LANES).expect("spmd");
            let mut oracle = Interpreter::with_model(&shader, &row, model).expect("interp");
            spmd.set_global("u_tex", Value::Sampler(0)).expect("u_tex");
            oracle
                .set_global("u_tex", Value::Sampler(0))
                .expect("u_tex");
            let slot = exe.global_slot("v_uv").expect("v_uv slot");
            for batch in 0..row.0.len() / MAX_LANES {
                let texel = |lane: usize| batch * MAX_LANES + lane;
                for lane in 0..MAX_LANES {
                    spmd.set_lane_slot(lane, slot, uv(texel(lane)));
                }
                let boxed = SpmdVm::boxings();
                spmd.run_batch(MAX_LANES).expect("batch");
                assert_eq!(
                    SpmdVm::boxings() - boxed,
                    0,
                    "slots boxed in batch {batch} under {model:?}"
                );
                for lane in 0..MAX_LANES {
                    oracle.set_global("v_uv", uv(texel(lane))).expect("v_uv");
                    oracle.run_main().expect("oracle run");
                    assert_eq!(
                        spmd.frag_color(lane).map(|c| c.map(f32::to_bits)),
                        oracle.frag_color().map(|c| c.map(f32::to_bits)),
                        "texel {} under {model:?}",
                        texel(lane)
                    );
                }
            }
            assert_eq!(spmd.profile(), oracle.profile(), "profiles under {model:?}");
        }
    }

    /// The servebench tenant kernel's fragment shader (a one-line body
    /// after the f32 codec library), as `gpes_core`'s `KernelSpec`
    /// generates it; `gpes_bench`'s `tenant_fixture` test keeps this copy
    /// current.
    const TENANT_KERNEL: &str = include_str!("../tests/data/tenant_kernel.frag");

    /// One f32 per texel of a 16×16 texture, in the codec's byte layout.
    struct F32Grid(Vec<f32>);

    impl TextureAccess for F32Grid {
        fn sample(&self, _unit: u32, coord: [f32; 2]) -> [f32; 4] {
            let (col, row) = ((coord[0] * 16.0) as usize, (coord[1] * 16.0) as usize);
            F32Row(vec![self.0[row * 16 + col]]).sample(0, [0.5, 0.5])
        }
    }

    /// Instructions per 8-lane batch of the tenant kernel over ±25
    /// inputs, whose f32 codec sign branch splits most batches. The
    /// operand-stack bytecode executed 231 per batch (7 409 per
    /// 256-fragment draw); three-address instructions that read their
    /// operands in place, 122; with its 13 user calls spliced into
    /// `main`, no call or return is left to run. Every lane stays
    /// bit-identical to the tree-walker and no slot is boxed.
    #[test]
    fn tenant_kernel_batches_stay_under_their_instruction_count() {
        let shader = check_src(TENANT_KERNEL);
        let exe = lower(&shader).expect("lower");
        // ±25, sign-mixed: a small LCG stands in for the benchmark's
        // random inputs.
        let mut state = 0x2545_f491_u32;
        let grid = F32Grid(
            (0..256)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 8) as f32 / (1u32 << 24) as f32 * 50.0 - 25.0
                })
                .collect(),
        );
        let mut spmd = SpmdVm::with_model(&exe, &grid, FloatModel::Exact, MAX_LANES).expect("spmd");
        let mut oracle =
            Interpreter::with_model(&shader, &grid, FloatModel::Exact).expect("oracle");
        let dims = Value::Vec2([16.0, 16.0]);
        for (name, v) in [
            ("u_x", Value::Sampler(0)),
            ("u_x_dims", dims.clone()),
            ("u_out_dims", dims),
        ] {
            spmd.set_global(name, v.clone()).expect("uniform");
            oracle.set_global(name, v).expect("uniform");
        }
        let coord = exe.global_slot("gl_FragCoord").expect("gl_FragCoord");
        let frag = |i: usize| Value::Vec4([(i % 16) as f32 + 0.5, (i / 16) as f32 + 0.5, 0.5, 1.0]);
        let (executed, boxed) = (SpmdVm::executed(), SpmdVm::boxings());
        for batch in 0..32 {
            for lane in 0..MAX_LANES {
                spmd.set_lane_slot(lane, coord, frag(batch * MAX_LANES + lane));
            }
            spmd.run_batch(MAX_LANES).expect("batch");
            for lane in 0..MAX_LANES {
                oracle
                    .set_global("gl_FragCoord", frag(batch * MAX_LANES + lane))
                    .expect("coord");
                oracle.run_main().expect("oracle run");
                assert_eq!(
                    spmd.frag_color(lane).map(|c| c.map(f32::to_bits)),
                    oracle.frag_color().map(|c| c.map(f32::to_bits)),
                    "batch {batch} lane {lane}"
                );
            }
        }
        let per_batch = (SpmdVm::executed() - executed) / 32;
        assert_eq!(SpmdVm::boxings() - boxed, 0, "slots boxed");
        assert!(
            per_batch <= INSNS_PER_TENANT_BATCH,
            "{per_batch} instructions per batch, over {INSNS_PER_TENANT_BATCH}"
        );
        assert_eq!(spmd.profile(), oracle.profile());
    }

    /// Instructions per tenant batch, as measured by
    /// `tenant_kernel_batches_stay_under_their_instruction_count`.
    const INSNS_PER_TENANT_BATCH: u64 = 110;

    #[test]
    fn uniform_flow_matches() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{ gl_FragColor = vec4(u_in * 0.5, fract(u_in), 0.25, 1.0); }}"
            ),
            &[0.1, 0.7, 1.3, 2.9, 3.5, 4.0, 5.25, 6.125],
        );
    }

    #[test]
    fn divergent_if_else_matches() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    float c;
                    if (u_in > 2.0) {{ c = u_in * 0.25; }} else {{ c = u_in + 0.5; }}
                    gl_FragColor = vec4(c, u_in > 4.0 ? 1.0 : 0.0, 0.0, 1.0);
                 }}"
            ),
            &[0.5, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 0.0],
        );
    }

    #[test]
    fn divergent_discard_matches() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    if (u_in < 0.0) {{ discard; }}
                    gl_FragColor = vec4(sqrt(u_in), 0.0, 0.0, 1.0);
                 }}"
            ),
            &[1.0, -2.0, 4.0, -0.5, 9.0, 16.0, -1.0, 25.0],
        );
    }

    #[test]
    fn divergent_loop_trip_counts_match() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    float s = 0.0;
                    for (int i = 0; i < 12; i++) {{
                        if (float(i) >= u_in) {{ break; }}
                        s += fract(float(i) * 0.37) + u_in * 0.01;
                    }}
                    gl_FragColor = vec4(s * 0.1, s, 1.0 / (s + 1.0), 1.0);
                 }}"
            ),
            &[0.0, 3.0, 12.0, 1.0, 7.0, 5.0, 11.0, 2.0],
        );
    }

    #[test]
    fn divergent_calls_and_out_params_match() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void split(float v, out float hi, out float lo) {{
                    hi = floor(v); lo = fract(v);
                 }}
                 float heavy(float v) {{
                    float s = 0.0;
                    for (int i = 0; i < 4; i++) {{ s += sin(v + float(i)); }}
                    return s;
                 }}
                 void main() {{
                    float h; float l;
                    split(u_in, h, l);
                    float r = u_in > 2.5 ? heavy(u_in) : h;
                    gl_FragColor = vec4(r * 0.1, h * 0.05, l, 1.0);
                 }}"
            ),
            &[0.25, 3.75, 1.5, 6.0, 2.5, 5.125, 4.0, 0.0],
        );
    }

    #[test]
    fn short_circuit_and_nested_branches_match() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    bool ok = (u_in != 0.0) && (1.0 / u_in > 0.2);
                    bool or = (u_in == 0.0) || (u_in > 3.0);
                    float c = 0.0;
                    if (ok) {{
                        if (or) {{ c = 0.75; }} else {{ c = 0.5; }}
                    }} else {{
                        c = or ? 0.25 : 0.125;
                    }}
                    gl_FragColor = vec4(c, ok ? 1.0 : 0.0, or ? 1.0 : 0.0, 1.0);
                 }}"
            ),
            &[0.0, 1.0, 4.0, -2.0, 0.5, 8.0, 2.0, -0.25],
        );
    }

    #[test]
    fn partial_batches_match() {
        let src = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float c = u_in > 1.0 ? log2(u_in) : u_in;
                gl_FragColor = vec4(c, 0.0, 0.0, 1.0);
             }}"
        );
        for width in 1..=5usize {
            let inputs: Vec<f32> = (0..width).map(|i| i as f32 * 0.75).collect();
            assert_lanes_match(&src, &inputs);
        }
    }

    #[test]
    fn mutable_globals_reset_per_lane() {
        // A mutable global increments per invocation; each lane must see
        // a fresh copy (scalar resets it per run_main).
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\nfloat counter = 0.0;\n\
                 void main() {{
                    counter += u_in;
                    gl_FragColor = vec4(counter, 0.0, 0.0, 1.0);
                 }}"
            ),
            &[1.0, 2.0, 3.0, 4.0],
        );
    }

    #[test]
    fn lane_trap_replays_with_scalar_error_semantics() {
        // Lane 2 indexes out of bounds; lanes 0 and 1 must complete with
        // exact outputs and the error must name lane 2.
        let src = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float a[3];
                for (int i = 0; i < 3; i++) {{ a[i] = float(i); }}
                gl_FragColor = vec4(a[int(u_in)], 0.0, 0.0, 1.0);
             }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 4).expect("spmd");
        let slot = exe.global_slot("u_in").expect("slot");
        for (lane, x) in [0.0f32, 2.0, 7.0, 1.0].iter().enumerate() {
            spmd.set_lane_slot(lane, slot, Value::Float(*x));
        }
        let err = spmd.run_batch(4).expect_err("lane 2 traps");
        assert_eq!(err.lane, 2);
        assert!(matches!(
            err.error,
            RuntimeError::IndexOutOfBounds { index: 7, len: 3 }
        ));
        assert!(spmd.completed(0) && spmd.completed(1));
        assert!(!spmd.completed(2) && !spmd.completed(3));
        assert_eq!(spmd.frag_color(0), Some([0.0, 0.0, 0.0, 1.0]));
        assert_eq!(spmd.frag_color(1), Some([2.0, 0.0, 0.0, 1.0]));
        assert_eq!(spmd.take_replays(), 1);
    }

    #[test]
    fn loop_limit_traps_like_scalar() {
        let src = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float s = 0.0;
                while (s < u_in) {{ s += 1.0; }}
                gl_FragColor = vec4(s);
             }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 2).expect("spmd");
        spmd.set_limits(ExecLimits {
            max_loop_iterations: 100,
        });
        let slot = exe.global_slot("u_in").expect("slot");
        spmd.set_lane_slot(0, slot, Value::Float(5.0));
        spmd.set_lane_slot(1, slot, Value::Float(1.0e9));
        let err = spmd.run_batch(2).expect_err("lane 1 exceeds budget");
        assert_eq!(err.lane, 1);
        assert!(matches!(err.error, RuntimeError::LoopLimit { .. }));
        assert!(spmd.completed(0));
        assert_eq!(spmd.frag_color(0), Some([5.0; 4]));
    }

    #[test]
    fn frag_data_and_broadcast_globals() {
        let src = format!(
            "{P}uniform float u_gain;\n\
             void main() {{ gl_FragData[0] = vec4(0.5 * u_gain, 0.25, 0.125, 1.0); }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 3).expect("spmd");
        spmd.set_global("u_gain", Value::Float(2.0)).expect("set");
        spmd.run_batch(3).expect("batch");
        for lane in 0..3 {
            assert_eq!(spmd.wrote_outputs(lane), (false, true));
            assert_eq!(spmd.frag_color(lane), Some([1.0, 0.25, 0.125, 1.0]));
        }
    }

    #[test]
    fn swizzle_lvalues_arrays_matrices_and_out_params_match() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void split(float v, out float hi, out float lo) {{
                    hi = floor(v); lo = fract(v);
                 }}
                 float scale(float v) {{ return v * 2.0; }}
                 void main() {{
                    vec4 v = vec4(u_in, 0.2, 0.3, 0.4);
                    v.xz *= u_in;
                    v.w += 0.5;
                    float a[3];
                    for (int i = 0; i < 3; i++) {{ a[i] = float(i) * u_in; }}
                    mat2 m = mat2(1.0, 2.0, 3.0, u_in);
                    vec2 p = m * vec2(a[1], a[2]);
                    float h; float l;
                    split(u_in, h, l);
                    gl_FragColor = vec4(v.x + p.x, v.z * p.y, h + l, scale(v.w));
                 }}"
            ),
            &[0.25, 3.75, -1.5, 6.0, 2.5, 5.125, 4.0, 0.0],
        );
    }

    #[test]
    fn globals_reset_between_batches() {
        let src = format!(
            "{P}float counter = 0.0;\n\
             void main() {{ counter += 1.0; gl_FragColor = vec4(counter); }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 2).expect("spmd");
        for _ in 0..2 {
            spmd.run_batch(2).expect("batch");
            assert_eq!(spmd.frag_color(0), Some([1.0; 4]));
            assert_eq!(spmd.frag_color(1), Some([1.0; 4]));
        }
    }

    #[test]
    fn broadcast_slot_round_trips() {
        let src = format!("{P}uniform float u_x;\nvoid main() {{ gl_FragColor = vec4(u_x); }}");
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 3).expect("spmd");
        let slot = spmd.global_slot("u_x").expect("slot");
        spmd.set_slot_all(slot, Value::Float(0.75));
        spmd.run_batch(3).expect("batch");
        for lane in 0..3 {
            assert_eq!(spmd.global(lane, "u_x"), Some(Value::Float(0.75)));
            assert_eq!(spmd.frag_color(lane), Some([0.75; 4]));
        }
    }
}
