//! SPMD lane-parallel virtual machine: the one bytecode executor.
//!
//! One [`SpmdVm`] shades up to [`MAX_LANES`] invocations of a lowered
//! shader per dispatch, in either programmable stage: the rasteriser
//! batches band fragments and, in the vertex stage, consecutive vertices
//! (§III-1 — kernels run "in the vertex or the fragment processing
//! stage"). A one-lane batch is an exact sequential run. All
//! *semantic* state is per-lane, but it is stored **struct-of-arrays**:
//! each operand-stack slot, locals slot and global slot is one `Slot`
//! holding the value of every lane side by side (`[f32; 8]`,
//! `[[f32; 4]; 8]`, …). The bytecode walk (program counter plus an
//! explicit call-frame stack) is shared by every lane in the current
//! execution *context*, so instruction decode is paid once per batch and
//! the per-lane work for the common instructions is a tight loop over a
//! small typed array instead of eight tagged-enum manipulations. A
//! sampler slot holds its lanes' texture units, which `texture2D` reads
//! in place.
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
//! A context is `(lane mask, call frames, pc)`. When a data-dependent
//! branch (`JumpIfFalse` / `JumpIfTrue`, which is what `if`, `?:`,
//! short-circuit `&&`/`||` and loop conditions lower to) splits the
//! active lanes, the jumping subgroup is deferred onto a pending stack
//! and the fall-through subgroup keeps executing. Two contexts merge
//! whenever they meet at the same `(call frames, pc)` — this is always
//! semantically safe because every lane only ever executes instructions
//! its own data dictates; the shared pc is pure scheduling. Reconvergence
//! at the join point of structured `if`/`else` falls out of two rules:
//! the scheduler merges any pending context whose position equals the
//! current one, and after every jump landing it *swaps* to the
//! furthest-behind compatible pending context so laggards catch up.
//! `discard` simply retires the lanes of the executing context.
//!
//! Writes to stack and locals slots follow an **ownership rule**. A
//! deferred context's live state is exactly `stack[..sp]` and
//! `locals[..frame_end]`: callee frames start at the caller's
//! `frame_end`, and the operand stack is one array indexed by absolute
//! `sp`. So the running context *owns* stack depth `d` when `d` is at
//! least the largest `sp` of any pending context, and locals index `i`
//! when `i` is at least the largest pending `frame_end` (both floors are
//! 0 when nothing is pending — the uniform-flow case). Owned slots are
//! written wholesale: re-typed, full-width loops that keep the hot paths
//! branch-free and vectorisable, whatever clobbers the other lanes (they
//! are retired, or the slot is dead for their context). Only a write
//! below a floor is *masked*: the current context's lanes are touched
//! and the other lanes' values preserved, falling back to `Slot::Boxed`
//! when it changes the slot's type (e.g. a `Ret` into the caller while a
//! sibling lane is still inside the callee). A diverged batch that only
//! writes above the floors — the f32 codec's sign branch — therefore
//! shades at uniform-flow speed. Globals are always written masked,
//! because retired lanes' outputs (`gl_FragColor`, `gl_Position`) are
//! read after the batch.
//!
//! # What lowering decides
//!
//! The VM makes no decision the lowerer could make once per shader:
//!
//! * **Calls are resolved.** A call lowers to `CallBuiltin { id }` (a
//!   [`builtins::BuiltinId`] that [`builtins::call`] and the SoA fast
//!   paths switch on) or `CallUser { func }`. Only the two shapes whose
//!   callee depends on argument types, which the AST does not record —
//!   same-arity user overloads, and a user function named like a
//!   builtin — keep the generic `Call` that tries the builtin, then picks
//!   an overload by runtime argument types.
//! * **Operands are read in place.** A `Const; Binary`,
//!   `LoadLocal; Binary` or `LoadLocal; Const; Binary` run folds into
//!   one instruction that reads the constant or local where it lives
//!   (constants are splatted across the lanes once, when the VM is
//!   built), unless a jump lands inside the run: at the join of a `?:` or
//!   `&&` whose value is a right operand, the arriving context has pushed
//!   its own operand. Where no typed fast path applies, a folded
//!   instruction pushes its operand and runs the generic `Binary`, so
//!   every result and error is the unfused sequence's.
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
//! runs without a per-lane bump. When
//! *any* lane traps, the whole batch is replayed lane-by-lane in lane
//! order (a single-lane run through this machinery is exactly a
//! sequential run): earlier lanes finish with exact outputs and the first
//! erroring lane in lane order defines the reported error, so error
//! semantics match running the invocations one after another. The
//! replay starts from a copy of the profile taken before the batch.

use crate::ast::{BinOp, ParamQual};
use crate::builtins::{self, BuiltinCx, BuiltinId};
use crate::compile::{Executable, Insn, PathStep, SlotRef};
use crate::error::RuntimeError;
use crate::exec::{ExecLimits, FloatModel, OpProfile, TextureAccess};
use crate::ops;
use crate::types::Scalar;
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

/// Saved caller state for one active call, kept on the context's
/// explicit frame stack (the SPMD engine never recurses natively, so a
/// divergent subgroup can be suspended mid-call and resumed later).
#[derive(Clone, PartialEq)]
struct Frame {
    /// Chunk to resume in the caller.
    ret_chunk: u32,
    /// Instruction to resume at in the caller.
    ret_pc: usize,
    /// Caller's locals frame base.
    frame_base: usize,
    /// Caller's locals frame end (== callee's base).
    frame_end: usize,
    /// Callee's locals frame base.
    callee_base: usize,
    /// Index of the called function in `Executable::functions`.
    func: u32,
    /// Whether the call site expects out/inout copy-back pushes.
    pushes_outs: bool,
    /// Loop-counter stack depth at call entry (truncated on return,
    /// so a loop left by `return` cannot leak its counter).
    counters_base: usize,
}

/// One schedulable execution context: a subgroup of lanes in lockstep at
/// a shared program position.
struct Ctx {
    mask: u8,
    chunk: u32,
    pc: usize,
    sp: usize,
    frame_base: usize,
    frame_end: usize,
    frames: Vec<Frame>,
}

/// Whether two contexts sit at the same program point (and therefore may
/// merge). Operand-stack depth and loop depth are static properties of a
/// program point in the structured bytecode, so equal position implies
/// equal `sp` — asserted in debug builds.
fn same_point(a: &Ctx, b: &Ctx) -> bool {
    a.chunk == b.chunk && a.pc == b.pc && a.frames == b.frames
}

/// Merges every pending context at `cur`'s exact position into `cur`,
/// keeping the merged contexts' frame stacks in `spare`. Returns whether
/// any context merged.
fn merge_caught_up(cur: &mut Ctx, pending: &mut Vec<Ctx>, spare: &mut Vec<Vec<Frame>>) -> bool {
    let before = pending.len();
    let mut i = 0;
    while i < pending.len() {
        if same_point(&pending[i], cur) {
            debug_assert_eq!(pending[i].sp, cur.sp);
            debug_assert_eq!(pending[i].frame_base, cur.frame_base);
            let merged = pending.swap_remove(i);
            cur.mask |= merged.mask;
            spare.push(merged.frames);
        } else {
            i += 1;
        }
    }
    pending.len() != before
}

/// Merges every pending context at `cur`'s exact position into `cur`,
/// then repeatedly swaps `cur` with the furthest-behind pending context
/// of the same frame class so stragglers catch up (yielding `if`/`else`
/// reconvergence at the join point). Pure scheduling: any interleaving
/// of contexts is semantically correct.
fn reschedule(cur: &mut Ctx, pending: &mut Vec<Ctx>, spare: &mut Vec<Vec<Frame>>) {
    loop {
        merge_caught_up(cur, pending, spare);
        let mut behind: Option<usize> = None;
        for (j, p) in pending.iter().enumerate() {
            if p.chunk == cur.chunk && p.pc < cur.pc && p.frames == cur.frames {
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

/// A struct-of-arrays lane register: one stack/locals/global slot's
/// value for every lane. Typed variants keep the common scalar and
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
            (d, Slot::F(x)) => *d = Slot::F(*x),
            (d, Slot::I(x)) => *d = Slot::I(*x),
            (d, Slot::B(x)) => *d = Slot::B(*x),
            (d, Slot::V2(x)) => *d = Slot::V2(*x),
            (d, Slot::V3(x)) => *d = Slot::V3(*x),
            (d, Slot::V4(x)) => *d = Slot::V4(*x),
            (d, Slot::S(x)) => *d = Slot::S(*x),
            (d, Slot::Boxed(b)) => *d = Slot::Boxed(b.clone()),
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
    /// one is boxed by [`Slot::set`] so the other lanes survive. Generic
    /// paths collect every lane's result before writing, because the
    /// destination is usually also an operand that later lanes read.
    fn put_lanes(&mut self, vals: &mut [Value; MAX_LANES], mask: u8, owned: bool) {
        let first = &vals[mask.trailing_zeros() as usize];
        if owned && !self.holds(first) {
            *self = Slot::splat(first);
        }
        for_lanes!(mask, l => {
            self.set(l, std::mem::replace(&mut vals[l], Value::Bool(false)));
        });
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

/// Moves `src` (a slot the running context is done with) into `dst`:
/// a wholesale copy when the running context owns `dst` (a swap instead
/// when it owns a boxed `src` too, so the box moves rather than clones),
/// a masked copy otherwise.
fn move_slot(dst: &mut Slot, src: &mut Slot, mask: u8, dst_owned: bool, src_owned: bool) {
    if !dst_owned {
        dst.copy_masked_from(src, mask);
    } else if src_owned && matches!(src, Slot::Boxed(_)) {
        std::mem::swap(dst, src);
    } else {
        dst.clone_from(src);
    }
}

/// The stack and locals ownership floors of the deferred contexts (see
/// the module docs): the largest pending `sp` and `frame_end`.
fn floors(pending: &[Ctx]) -> (usize, usize) {
    pending
        .iter()
        .fold((0, 0), |(s, l), p| (s.max(p.sp), l.max(p.frame_end)))
}

/// A per-lane result buffer for the generic paths.
fn lane_values() -> [Value; MAX_LANES] {
    std::array::from_fn(|_| Value::Bool(false))
}

#[cfg(test)]
thread_local! {
    /// Typed slots this thread has boxed to keep a lane write's type.
    static BOXINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
impl SpmdVm<'_> {
    /// Typed slots boxed on this thread so far: a masked lane write
    /// whose type the slot's variant could not hold.
    fn boxings() -> u64 {
        BOXINGS.with(|n| n.get())
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
    /// Operand stack, one SoA slot per depth, indexed by the context's
    /// shared `sp`.
    stack: Vec<Slot>,
    /// Locals frame arena, one SoA slot per local.
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
    /// Frame stacks of retired contexts, reused by the next context that
    /// needs one (a divergence copies the running context's stack into
    /// a spare one).
    spare_frames: Vec<Vec<Frame>>,
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
            stack: Vec::new(),
            locals: Vec::new(),
            loop_counters: vec![Vec::new(); lanes],
            profile: OpProfile::new(),
            init_profile: OpProfile::new(),
            arg_buf: Vec::new(),
            pending: Vec::new(),
            spare_frames: Vec::new(),
            frag_color_slot: exe.global_slot("gl_FragColor"),
            frag_data_slot: exe.global_slot("gl_FragData"),
            discarded: [false; MAX_LANES],
            wrote_frag_color: [false; MAX_LANES],
            wrote_frag_data: [false; MAX_LANES],
            completed: [false; MAX_LANES],
            replays: 0,
        };
        // A single-lane run through the SPMD engine is exactly a scalar
        // run; use it for chunk 0 on lane 0, then broadcast.
        vm.exec(1, 0)?;
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
    /// whether the shader used `gl_FragColor` or `gl_FragData[0]`.
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
            self.global_at(lane, self.frag_color_slot?).as_vec4()
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
        match self.exec(mask, self.exe.main_chunk) {
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
                    match self.exec(1 << lane, self.exe.main_chunk) {
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

    /// Grows the operand stack to at least `need` slots.
    fn ensure_stack(&mut self, need: usize) {
        if self.stack.len() < need {
            self.stack.resize(need, Slot::B([false; MAX_LANES]));
        }
    }

    /// Grows the locals arena to at least `need` slots.
    fn ensure_locals(&mut self, need: usize) {
        if self.locals.len() < need {
            self.locals.resize(need, Slot::F([0.0; MAX_LANES]));
        }
    }

    /// Generic per-lane binary operator: materialises both operands (the
    /// slots at `sp-2`/`sp-1`) and applies the interpreter's
    /// [`ops::apply_binary`] exactly, writing the result to `sp-2`.
    fn binary_generic(
        &mut self,
        op: BinOp,
        sp: usize,
        mask: u8,
        owned: bool,
    ) -> Result<(), RuntimeError> {
        let mut out = lane_values();
        for_lanes!(mask, l => {
            let bv = self.stack[sp - 1].get(l);
            let av = self.stack[sp - 2].get(l);
            out[l] = ops::apply_binary(self.model, &mut self.profile, op, av, bv)?;
        });
        self.stack[sp - 2].put_lanes(&mut out, mask, owned);
        Ok(())
    }

    /// Applies `op` to stack slot `a` and the right operand `b` (a
    /// constant or a local, read in place), writing to `a`. Where no
    /// fast path applies, `b` is pushed at `a + 1` and the generic path
    /// runs, exactly like the unfused `push; Binary`.
    fn binary_operand(
        &mut self,
        op: BinOp,
        a: usize,
        b: Operand,
        mask: u8,
        sfl: usize,
    ) -> Result<(), RuntimeError> {
        let owned = a >= sfl;
        let rhs = match b {
            Operand::Const(c) => &self.consts[c as usize],
            Operand::Local(s) => &self.locals[s],
        };
        if binary_fast(
            self.model,
            &mut self.profile,
            op,
            &mut self.stack[a],
            rhs,
            mask,
            owned,
        ) {
            return Ok(());
        }
        self.ensure_stack(a + 2);
        let (stack, rhs) = match b {
            Operand::Const(c) => (&mut self.stack, &self.consts[c as usize]),
            Operand::Local(s) => (&mut self.stack, &self.locals[s]),
        };
        stack[a + 1].write_from(rhs, mask, a + 1 >= sfl);
        self.binary_generic(op, a + 2, mask, owned)
    }

    /// SoA fast paths for the hot builtins and constructors, replicating
    /// [`crate::builtins::call`]'s values, rounding and profile counts
    /// exactly; the result goes to stack slot `s`, wholesale when the
    /// running context `owned` it. Returns `false` (with no state
    /// mutated) when the call must take the generic per-lane path —
    /// including every case where the scalar builtin would error.
    fn fast_builtin(
        &mut self,
        id: BuiltinId,
        s: usize,
        argc: usize,
        mask: u8,
        owned: bool,
    ) -> bool {
        use std::f32::consts::PI;
        use BuiltinId as B;
        let model = self.model;

        // Component-wise genType builtins: `f` per component, then the
        // ALU or SFU rounding, one op per component. A scalar second
        // operand broadcasts, matching `builtins::map2`.
        macro_rules! map1 {
            ($sfu:expr, $f:expr) => {{
                let Some((x, n)) = self.stack[s].floats_mut() else {
                    return false;
                };
                map_lanes(x, n, mask, owned, $f);
                round_lanes(model, $sfu, x, n, mask, owned);
                count_ops(&mut self.profile, $sfu, n as u64, mask);
                return true;
            }};
        }
        macro_rules! map2 {
            ($sfu:expr, $f:expr) => {{
                let (lo, hi) = self.stack.split_at_mut(s + 1);
                let (Some((x, n)), Some((y, m))) = (lo[s].floats_mut(), hi[0].floats()) else {
                    return false;
                };
                if m != n && m != 1 {
                    return false;
                }
                zip_lanes(x, n, y, m, mask, owned, $f);
                round_lanes(model, $sfu, x, n, mask, owned);
                count_ops(&mut self.profile, $sfu, n as u64, mask);
                return true;
            }};
        }
        if argc == 1 {
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

        if argc == 2 {
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
                let (Some((e, m)), Some((x, n))) =
                    (self.stack[s].floats(), self.stack[s + 1].floats())
                else {
                    return false;
                };
                if m != n && m != 1 {
                    return false;
                }
                let mut out = [[0.0f32; 4]; MAX_LANES];
                for (l, o) in out.iter_mut().enumerate() {
                    for (c, v) in o[..n].iter_mut().enumerate() {
                        *v = if x[l * n + c] < lane_comp(e, m, l, c) {
                            0.0
                        } else {
                            1.0
                        };
                    }
                }
                count_ops(&mut self.profile, false, n as u64, mask);
                self.write_vec_result(s, n, &out, mask, owned);
                return true;
            }

            // dot(a, b): chained rounding, alu += 2n.
            if id == B::Dot {
                let (Some((x, n)), Some((y, m))) =
                    (self.stack[s].floats(), self.stack[s + 1].floats())
                else {
                    return false;
                };
                if m != n {
                    return false;
                }
                let mut out = [[0.0f32; 4]; MAX_LANES];
                for (o, (xs, ys)) in out.iter_mut().zip(x.chunks_exact(n).zip(y.chunks_exact(n))) {
                    o[0] = xs.iter().zip(ys).fold(0.0f32, |acc, (&p, &q)| {
                        model.round_alu(acc + model.round_alu(p * q))
                    });
                }
                count_ops(&mut self.profile, false, 2 * n as u64, mask);
                self.write_vec_result(s, 1, &out, mask, owned);
                return true;
            }

            // texture2D(sampler, vec2): one fetch per lane.
            if id == B::Texture2D {
                let (sampler, coord) = (&self.stack[s], &self.stack[s + 1]);
                let (Slot::S(units), Slot::V2(coords)) = (sampler, coord) else {
                    return false;
                };
                let mut out = [[0.0f32; 4]; MAX_LANES];
                for_lanes!(mask, l => {
                    out[l] = self.textures.sample(units[l], coords[l]);
                });
                self.profile.tex_fetches += lane_count(mask);
                self.write_vec_result(s, 4, &out, mask, owned);
                return true;
            }
        }

        // clamp / mix on genTypes: alu += 2n, one rounding per component;
        // scalar bounds (clamp) or a scalar weight (mix) broadcast.
        if argc == 3 && matches!(id, B::Clamp | B::Mix) {
            let f: fn(f32, f32, f32) -> f32 = if id == B::Clamp {
                |v, lo, hi| v.max(lo).min(hi)
            } else {
                |p, q, t| p * (1.0 - t) + q * t
            };
            let (Some((x, n)), Some((p, pn)), Some((q, qn))) = (
                self.stack[s].floats(),
                self.stack[s + 1].floats(),
                self.stack[s + 2].floats(),
            ) else {
                return false;
            };
            if (pn != n && pn != 1) || (qn != n && qn != 1) {
                return false;
            }
            let mut out = [[0.0f32; 4]; MAX_LANES];
            for (l, o) in out.iter_mut().enumerate() {
                for (c, v) in o[..n].iter_mut().enumerate() {
                    let (b, cc) = (lane_comp(p, pn, l, c), lane_comp(q, qn, l, c));
                    *v = model.round_alu(f(x[l * n + c], b, cc));
                }
            }
            count_ops(&mut self.profile, false, 2 * n as u64, mask);
            self.write_vec_result(s, n, &out, mask, owned);
            return true;
        }

        // float()/int() scalar conversions and vecN constructors.
        match id {
            B::Float | B::Int if argc == 1 => {
                // The first component, one op per source component.
                let (first, comps): ([f32; MAX_LANES], usize) = match &self.stack[s] {
                    Slot::I(x) => (x.map(|v| v as f32), 1),
                    slot => match slot.floats() {
                        Some((x, n)) => (std::array::from_fn(|l| x[l * n]), n),
                        None => return false,
                    },
                };
                count_ops(&mut self.profile, false, comps as u64, mask);
                if id == B::Float {
                    let out = first.map(|v| [v; 4]);
                    self.write_vec_result(s, 1, &out, mask, owned);
                } else if owned {
                    self.stack[s] = Slot::I(first.map(|v| v as i32));
                } else {
                    for_lanes!(mask, l => { self.stack[s].set(l, Value::Int(first[l] as i32)); });
                }
                true
            }
            B::Vec2 | B::Vec3 | B::Vec4 => {
                let dim = match id {
                    B::Vec2 => 2usize,
                    B::Vec3 => 3,
                    _ => 4,
                };
                let mut total = 0usize;
                for k in 0..argc {
                    total += match &self.stack[s + k] {
                        Slot::F(_) | Slot::I(_) => 1,
                        Slot::V2(_) => 2,
                        Slot::V3(_) => 3,
                        Slot::V4(_) => 4,
                        _ => return false,
                    };
                }
                // Mirrors `builtins::build`: exact fill, single-scalar
                // splat, or single-argument truncation; anything else
                // errors in a sequential run, so take the generic path.
                if !(total == dim || total == 1 || (total > dim && argc == 1)) {
                    return false;
                }
                // Gather argument by argument across all lanes (dead
                // lanes hold valid values of the same shape); components
                // past the fourth are truncated away.
                let mut out = [[0.0f32; 4]; MAX_LANES];
                let mut k = 0usize;
                for arg in 0..argc {
                    macro_rules! gather {
                        ($n:expr, $get:expr) => {{
                            for c in 0..($n).min(4 - k.min(4)) {
                                for (l, o) in out.iter_mut().enumerate() {
                                    o[k + c] = $get(l, c);
                                }
                            }
                            k += $n;
                        }};
                    }
                    match &self.stack[s + arg] {
                        Slot::F(x) => gather!(1, |l: usize, _| x[l]),
                        Slot::I(x) => gather!(1, |l: usize, _| x[l] as f32),
                        Slot::V2(x) => gather!(2, |l: usize, c: usize| x[l][c]),
                        Slot::V3(x) => gather!(3, |l: usize, c: usize| x[l][c]),
                        Slot::V4(x) => gather!(4, |l: usize, c: usize| x[l][c]),
                        _ => unreachable!(),
                    }
                }
                if total == 1 {
                    for o in &mut out {
                        *o = [o[0]; 4];
                    }
                }
                count_ops(&mut self.profile, false, total as u64, mask);
                self.write_vec_result(s, dim, &out, mask, owned);
                true
            }
            _ => false,
        }
    }

    /// Writes an `n`-component float result (per lane, padded to 4
    /// components; `n == 1` is a `float`) into stack slot `s`: wholesale
    /// when `owned`, else into the `mask` lanes.
    fn write_vec_result(
        &mut self,
        s: usize,
        n: usize,
        out: &[[f32; 4]; MAX_LANES],
        mask: u8,
        owned: bool,
    ) {
        let lane = |l: usize| match n {
            1 => Value::Float(out[l][0]),
            2 => Value::Vec2([out[l][0], out[l][1]]),
            3 => Value::Vec3([out[l][0], out[l][1], out[l][2]]),
            _ => Value::Vec4(out[l]),
        };
        if !owned {
            for_lanes!(mask, l => { self.stack[s].set(l, lane(l)); });
            return;
        }
        self.stack[s] = match n {
            1 => Slot::F(std::array::from_fn(|l| out[l][0])),
            2 => Slot::V2(std::array::from_fn(|l| [out[l][0], out[l][1]])),
            3 => Slot::V3(std::array::from_fn(|l| [out[l][0], out[l][1], out[l][2]])),
            _ => Slot::V4(*out),
        };
    }

    /// Runs builtin `id` on the `argc` argument slots at `s`, leaving the
    /// result in slot `s` (wholesale when the running context `owned`
    /// it): the SoA fast path when one applies, else [`builtins::call`]
    /// lane by lane on each lane's materialised arguments. `Ok(false)`,
    /// with nothing mutated, when no overload of `id` takes these
    /// arguments — the types are uniform across lanes, so the first lane
    /// decides for all.
    fn call_builtin(
        &mut self,
        id: BuiltinId,
        s: usize,
        argc: usize,
        mask: u8,
        owned: bool,
    ) -> Result<bool, RuntimeError> {
        if self.fast_builtin(id, s, argc, mask, owned) {
            return Ok(true);
        }
        let mut out = lane_values();
        for_lanes!(mask, lane => {
            self.arg_buf.clear();
            for k in 0..argc {
                let v = self.stack[s + k].get(lane);
                self.arg_buf.push(v);
            }
            let mut cx = BuiltinCx {
                model: self.model,
                profile: &mut self.profile,
                textures: self.textures,
            };
            match builtins::call(id, &self.arg_buf, &mut cx) {
                Some(r) => out[lane] = r?,
                None => return Ok(false),
            }
        });
        self.stack[s].put_lanes(&mut out, mask, owned);
        Ok(true)
    }

    /// Enters user function `fi` for the running context: moves the
    /// arguments at `args_start..` into the callee's frame and pushes the
    /// caller's return state.
    fn enter_call(
        &mut self,
        cur: &mut Ctx,
        fi: u32,
        args_start: usize,
        pushes_outs: bool,
        (sfl, lfl): (usize, usize),
    ) -> Result<(), RuntimeError> {
        if cur.frames.len() as u32 >= self.limits.max_call_depth {
            return Err(RuntimeError::CallDepth {
                limit: self.limits.max_call_depth,
            });
        }
        let exe = self.exe;
        let func = &exe.functions[fi as usize];
        let callee_base = cur.frame_end;
        let callee_end = callee_base + exe.chunks[func.chunk as usize].frame_size as usize;
        self.ensure_locals(callee_end);
        let counters_base = self.loop_counters[cur.mask.trailing_zeros() as usize].len();
        self.profile.calls += lane_count(cur.mask);
        for (i, (ty, qual)) in func.params.iter().enumerate() {
            let dst = callee_base + i;
            match qual {
                ParamQual::In | ParamQual::InOut => move_slot(
                    &mut self.locals[dst],
                    &mut self.stack[args_start + i],
                    cur.mask,
                    dst >= lfl,
                    args_start + i >= sfl,
                ),
                ParamQual::Out => {
                    let z = Value::zero_of(ty);
                    if dst >= lfl {
                        self.locals[dst] = Slot::splat(&z);
                    } else {
                        for_lanes!(cur.mask, lane => {
                            self.locals[dst].set(lane, z.clone());
                        });
                    }
                }
            }
        }
        cur.frames.push(Frame {
            ret_chunk: cur.chunk,
            ret_pc: cur.pc + 1,
            frame_base: cur.frame_base,
            frame_end: cur.frame_end,
            callee_base,
            func: fi,
            pushes_outs,
            counters_base,
        });
        cur.chunk = func.chunk;
        cur.pc = 0;
        cur.sp = args_start;
        cur.frame_base = callee_base;
        cur.frame_end = callee_end;
        Ok(())
    }

    /// Runs `chunk` to completion for the lanes in `mask`, scheduling
    /// divergent contexts as described in the module docs. On error the
    /// per-lane state is torn (the caller replays); a single-lane call
    /// is exact scalar execution. The pending list and every frame stack
    /// are VM-owned buffers, so a batch allocates nothing once they
    /// have grown.
    fn exec(&mut self, mask: u8, start_chunk: u32) -> Result<(), RuntimeError> {
        let mut pending = std::mem::take(&mut self.pending);
        let mut frames = self.spare_frames.pop().unwrap_or_default();
        frames.clear();
        let mut cur = Ctx {
            mask,
            chunk: start_chunk,
            pc: 0,
            sp: 0,
            frame_base: 0,
            frame_end: self.exe.chunks[start_chunk as usize].frame_size as usize,
            frames,
        };
        self.ensure_locals(cur.frame_end);
        let result = self.run(&mut cur, &mut pending);
        self.spare_frames.push(cur.frames);
        self.spare_frames
            .extend(pending.drain(..).map(|ctx| ctx.frames));
        self.pending = pending;
        result
    }

    /// The instruction loop of [`SpmdVm::exec`].
    // `slot >= floor` spells the ownership rule for every slot, `sp - 1`
    // included.
    #[allow(clippy::int_plus_one)]
    fn run(&mut self, cur: &mut Ctx, pending: &mut Vec<Ctx>) -> Result<(), RuntimeError> {
        let exe = self.exe;
        // Ownership floors of `pending` (see `floors`): a write at or
        // above them goes wholesale, below them it is masked. Globals are
        // always written masked — see the module docs. Every change to
        // `pending` is followed by `refloor!`.
        let (mut sfl, mut lfl) = (0usize, 0usize);

        macro_rules! refloor {
            () => {
                (sfl, lfl) = floors(pending)
            };
        }

        // After a jump or return lands: let pending contexts merge or
        // catch up (nothing to do in uniform flow).
        macro_rules! land {
            () => {
                if !pending.is_empty() {
                    reschedule(cur, pending, &mut self.spare_frames);
                    refloor!();
                }
            };
        }

        macro_rules! next_ctx {
            () => {{
                match pending.pop() {
                    Some(p) => {
                        let done = std::mem::replace(cur, p);
                        self.spare_frames.push(done.frames);
                        refloor!();
                        continue;
                    }
                    None => return Ok(()),
                }
            }};
        }

        loop {
            // Merge any pending context that has caught up to `cur`.
            if !pending.is_empty() && merge_caught_up(cur, pending, &mut self.spare_frames) {
                refloor!();
            }
            let code = &exe.chunks[cur.chunk as usize].code;
            if cur.pc >= code.len() {
                // Fell off the end: only the initialiser chunk and
                // `main` do this (function chunks end in Ret/Err).
                debug_assert!(cur.frames.is_empty());
                next_ctx!();
            }
            let fb = cur.frame_base;
            match &code[cur.pc] {
                Insn::Const(i) => {
                    self.ensure_stack(cur.sp + 1);
                    let (stack, consts) = (&mut self.stack, &self.consts);
                    stack[cur.sp].write_from(&consts[*i as usize], cur.mask, cur.sp >= sfl);
                    cur.sp += 1;
                }
                Insn::LoadGlobal(s) => {
                    self.ensure_stack(cur.sp + 1);
                    // Globals and stack are disjoint fields; copy via
                    // split borrow.
                    let (stack, globals) = (&mut self.stack, &self.globals);
                    stack[cur.sp].write_from(&globals[*s as usize], cur.mask, cur.sp >= sfl);
                    cur.sp += 1;
                }
                Insn::LoadLocal(s) => {
                    self.ensure_stack(cur.sp + 1);
                    let (stack, locals) = (&mut self.stack, &self.locals);
                    stack[cur.sp].write_from(&locals[fb + *s as usize], cur.mask, cur.sp >= sfl);
                    cur.sp += 1;
                }
                Insn::StoreLocal(s) => {
                    cur.sp -= 1;
                    let dst = fb + *s as usize;
                    move_slot(
                        &mut self.locals[dst],
                        &mut self.stack[cur.sp],
                        cur.mask,
                        dst >= lfl,
                        cur.sp >= sfl,
                    );
                }
                Insn::StoreGlobalPop(s) => {
                    cur.sp -= 1;
                    // Always masked: retired lanes' outputs must survive.
                    let (stack, globals) = (&self.stack, &mut self.globals);
                    globals[*s as usize].copy_masked_from(&stack[cur.sp], cur.mask);
                }
                Insn::Dup => {
                    self.ensure_stack(cur.sp + 1);
                    let (lo, hi) = self.stack.split_at_mut(cur.sp);
                    hi[0].write_from(&lo[cur.sp - 1], cur.mask, cur.sp >= sfl);
                    cur.sp += 1;
                }
                Insn::Pop => cur.sp -= 1,
                Insn::Swap => {
                    if cur.sp - 2 >= sfl {
                        self.stack.swap(cur.sp - 1, cur.sp - 2);
                    } else {
                        let (lo, hi) = self.stack.split_at_mut(cur.sp - 1);
                        let top = hi[0].clone();
                        hi[0].write_from(&lo[cur.sp - 2], cur.mask, cur.sp - 1 >= sfl);
                        lo[cur.sp - 2].copy_masked_from(&top, cur.mask);
                    }
                }
                Insn::Neg => match &mut self.stack[cur.sp - 1] {
                    Slot::F(x) => {
                        if cur.sp - 1 >= sfl {
                            for v in x.iter_mut() {
                                *v = -*v;
                            }
                        } else {
                            for_lanes!(cur.mask, lane => { x[lane] = -x[lane]; });
                        }
                    }
                    Slot::I(x) => {
                        if cur.sp - 1 >= sfl {
                            for v in x.iter_mut() {
                                *v = v.wrapping_neg();
                            }
                        } else {
                            for_lanes!(cur.mask, lane => { x[lane] = x[lane].wrapping_neg(); });
                        }
                    }
                    Slot::V2(x) => {
                        for_lanes!(cur.mask, lane => { x[lane] = x[lane].map(|v| -v); });
                    }
                    Slot::V3(x) => {
                        for_lanes!(cur.mask, lane => { x[lane] = x[lane].map(|v| -v); });
                    }
                    Slot::V4(x) => {
                        for_lanes!(cur.mask, lane => { x[lane] = x[lane].map(|v| -v); });
                    }
                    slot => {
                        for_lanes!(cur.mask, lane => {
                            let v = slot.get(lane);
                            slot.set(lane, ops::negate(v)?);
                        });
                    }
                },
                Insn::Not => match &mut self.stack[cur.sp - 1] {
                    Slot::B(x) => {
                        if cur.sp - 1 >= sfl {
                            for v in x.iter_mut() {
                                *v = !*v;
                            }
                        } else {
                            for_lanes!(cur.mask, lane => { x[lane] = !x[lane]; });
                        }
                    }
                    slot => {
                        for_lanes!(cur.mask, lane => {
                            let b = slot.get(lane).as_bool().ok_or_else(|| RuntimeError::Type {
                                message: "`!` requires bool".into(),
                            })?;
                            slot.set(lane, Value::Bool(!b));
                        });
                    }
                },
                Insn::Binary(op) => {
                    let sp = cur.sp;
                    let owned = sp - 2 >= sfl;
                    let (lo, hi) = self.stack.split_at_mut(sp - 1);
                    let (a, b) = (&mut lo[sp - 2], &hi[0]);
                    if !binary_fast(self.model, &mut self.profile, *op, a, b, cur.mask, owned) {
                        self.binary_generic(*op, sp, cur.mask, owned)?;
                    }
                    cur.sp -= 1;
                }
                Insn::BinaryConst { op, c } => {
                    self.binary_operand(*op, cur.sp - 1, Operand::Const(*c), cur.mask, sfl)?;
                }
                Insn::BinaryLocal { op, s } => {
                    let b = Operand::Local(fb + *s as usize);
                    self.binary_operand(*op, cur.sp - 1, b, cur.mask, sfl)?;
                }
                Insn::LocalBinaryConst { op, s, c } => {
                    self.ensure_stack(cur.sp + 1);
                    let (stack, locals) = (&mut self.stack, &self.locals);
                    stack[cur.sp].write_from(&locals[fb + *s as usize], cur.mask, cur.sp >= sfl);
                    self.binary_operand(*op, cur.sp, Operand::Const(*c), cur.mask, sfl)?;
                    cur.sp += 1;
                }
                Insn::Branch => self.profile.branches += lane_count(cur.mask),
                Insn::Jump(t) => {
                    cur.pc = *t as usize;
                    land!();
                    continue;
                }
                Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t) => {
                    let jump_on = matches!(&code[cur.pc], Insn::JumpIfTrue(_));
                    cur.sp -= 1;
                    let mut go: u8 = 0;
                    let mut stay: u8 = 0;
                    match &self.stack[cur.sp] {
                        Slot::B(x) => {
                            let taken = x
                                .iter()
                                .enumerate()
                                .fold(0u8, |m, (lane, &b)| m | u8::from(b == jump_on) << lane);
                            go = taken & cur.mask;
                            stay = !taken & cur.mask;
                        }
                        slot => {
                            for_lanes!(cur.mask, lane => {
                                match slot.get(lane).as_bool() {
                                    Some(b) if b == jump_on => go |= 1 << lane,
                                    Some(_) => stay |= 1 << lane,
                                    None => {
                                        return Err(RuntimeError::Type {
                                            message: "condition did not evaluate to bool".into(),
                                        })
                                    }
                                }
                            });
                        }
                    }
                    if go == 0 {
                        cur.pc += 1;
                    } else if stay == 0 {
                        cur.pc = *t as usize;
                        land!();
                    } else {
                        // Divergence: defer the jumping subgroup, keep
                        // walking the fall-through side.
                        let mut frames = self.spare_frames.pop().unwrap_or_default();
                        frames.clone_from(&cur.frames);
                        pending.push(Ctx {
                            mask: go,
                            chunk: cur.chunk,
                            pc: *t as usize,
                            sp: cur.sp,
                            frame_base: cur.frame_base,
                            frame_end: cur.frame_end,
                            frames,
                        });
                        cur.mask = stay;
                        cur.pc += 1;
                        refloor!();
                    }
                    continue;
                }
                Insn::IncDec { inc } => match &mut self.stack[cur.sp - 1] {
                    Slot::F(x) => {
                        let model = self.model;
                        let d = if *inc { 1.0f32 } else { -1.0 };
                        if cur.sp - 1 >= sfl {
                            for v in x.iter_mut() {
                                *v = model.round_alu(*v + d);
                            }
                        } else {
                            for_lanes!(cur.mask, lane => {
                                x[lane] = model.round_alu(x[lane] + d);
                            });
                        }
                        count_ops(&mut self.profile, false, 1, cur.mask);
                    }
                    Slot::I(x) => {
                        let d: i32 = if *inc { 1 } else { -1 };
                        if cur.sp - 1 >= sfl {
                            for v in x.iter_mut() {
                                *v = v.wrapping_add(d);
                            }
                        } else {
                            for_lanes!(cur.mask, lane => { x[lane] = x[lane].wrapping_add(d); });
                        }
                        count_ops(&mut self.profile, false, 1, cur.mask);
                    }
                    _ => {
                        for_lanes!(cur.mask, lane => {
                            let old = self.stack[cur.sp - 1].get(lane);
                            let one = match old.ty().scalar() {
                                Some(Scalar::Int) => Value::Int(1),
                                _ => Value::Float(1.0),
                            };
                            let op = if *inc { BinOp::Add } else { BinOp::Sub };
                            let new =
                                ops::apply_binary(self.model, &mut self.profile, op, old, one)?;
                            self.stack[cur.sp - 1].set(lane, new);
                        });
                    }
                },
                Insn::Swizzle { idx, len } => {
                    let mut indices = [0usize; 4];
                    for (slot, &i) in indices.iter_mut().zip(idx.iter()) {
                        *slot = i as usize;
                    }
                    let sel = &indices[..*len as usize];
                    let owned = cur.sp - 1 >= sfl;
                    let src_n = match &self.stack[cur.sp - 1] {
                        Slot::V2(_) => 2,
                        Slot::V3(_) => 3,
                        Slot::V4(_) => 4,
                        _ => 0,
                    };
                    if src_n != 0 && sel.iter().all(|&i| i < src_n) {
                        let mut out = [[0.0f32; 4]; MAX_LANES];
                        // Every lane: dead lanes hold valid vectors, and
                        // the write below honours the mask.
                        macro_rules! gather {
                            ($x:ident) => {
                                for (o, v) in out.iter_mut().zip($x.iter()) {
                                    for (k, &si) in sel.iter().enumerate() {
                                        o[k] = v[si];
                                    }
                                }
                            };
                        }
                        match &self.stack[cur.sp - 1] {
                            Slot::V2(x) => gather!(x),
                            Slot::V3(x) => gather!(x),
                            Slot::V4(x) => gather!(x),
                            _ => unreachable!(),
                        }
                        self.write_vec_result(cur.sp - 1, sel.len(), &out, cur.mask, owned);
                    } else {
                        let mut out = lane_values();
                        for_lanes!(cur.mask, lane => {
                            let v = self.stack[cur.sp - 1].get(lane);
                            out[lane] = ops::swizzle_read(&v, sel)?;
                        });
                        self.stack[cur.sp - 1].put_lanes(&mut out, cur.mask, owned);
                    }
                }
                Insn::IndexOp => {
                    let mut out = lane_values();
                    for_lanes!(cur.mask, lane => {
                        let idx = match self.stack[cur.sp - 1].get(lane) {
                            Value::Int(i) => i as i64,
                            other => {
                                return Err(RuntimeError::Type {
                                    message: format!("index must be int, found {}", other.ty()),
                                })
                            }
                        };
                        // Avoid cloning boxed aggregates (arrays) just to
                        // read one element.
                        out[lane] = match &self.stack[cur.sp - 2] {
                            Slot::Boxed(b) => ops::index_read(&b[lane], idx)?,
                            slot => {
                                let base = slot.get(lane);
                                ops::index_read(&base, idx)?
                            }
                        };
                    });
                    self.stack[cur.sp - 2].put_lanes(&mut out, cur.mask, cur.sp - 2 >= sfl);
                    cur.sp -= 1;
                }
                Insn::Store(def) => {
                    let n = def.n_index as usize;
                    if n == 0 && def.path.is_empty() {
                        // Whole-slot store: the hot case (gl_FragColor,
                        // plain variable writes).
                        cur.sp -= 1;
                        for_lanes!(cur.mask, lane => {
                            if def.wrote_color {
                                self.wrote_frag_color[lane] = true;
                            }
                            if def.wrote_data {
                                self.wrote_frag_data[lane] = true;
                            }
                        });
                        match def.root {
                            SlotRef::Global(s) => {
                                let (stack, globals) = (&self.stack, &mut self.globals);
                                globals[s as usize].copy_masked_from(&stack[cur.sp], cur.mask);
                            }
                            SlotRef::Local(s) => {
                                let dst = fb + s as usize;
                                move_slot(
                                    &mut self.locals[dst],
                                    &mut self.stack[cur.sp],
                                    cur.mask,
                                    dst >= lfl,
                                    cur.sp >= sfl,
                                );
                            }
                        }
                    } else {
                        for_lanes!(cur.mask, lane => {
                            // Index operands were pushed outermost-first,
                            // so the first `Index` step's operand is on
                            // top.
                            let mut indices = [0i64; 8];
                            for (k, slot) in indices.iter_mut().take(n).enumerate() {
                                *slot = match self.stack[cur.sp - 1 - k].get(lane) {
                                    Value::Int(i) => i as i64,
                                    other => {
                                        return Err(RuntimeError::Type {
                                            message: format!(
                                                "index must be int, found {}",
                                                other.ty()
                                            ),
                                        })
                                    }
                                };
                            }
                            let value = self.stack[cur.sp - 1 - n].get(lane);
                            if def.wrote_color {
                                self.wrote_frag_color[lane] = true;
                            }
                            if def.wrote_data {
                                self.wrote_frag_data[lane] = true;
                            }
                            let root_slot: &mut Slot = match def.root {
                                SlotRef::Global(s) => &mut self.globals[s as usize],
                                SlotRef::Local(s) => &mut self.locals[fb + s as usize],
                            };
                            // Mutate boxed aggregates in place; re-pack
                            // typed slots through materialise/write-back.
                            match root_slot {
                                Slot::Boxed(b) => {
                                    store_path(&mut b[lane], &def.path, &indices[..n], value)?;
                                }
                                slot => {
                                    let mut root = slot.get(lane);
                                    store_path(&mut root, &def.path, &indices[..n], value)?;
                                    slot.set(lane, root);
                                }
                            }
                        });
                        cur.sp -= n + 1;
                    }
                }
                Insn::LoopEnter => {
                    for_lanes!(cur.mask, lane => {
                        self.loop_counters[lane].push(0);
                    });
                }
                Insn::LoopIter { span } => {
                    self.profile.branches += lane_count(cur.mask);
                    for_lanes!(cur.mask, lane => {
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
                    for_lanes!(cur.mask, lane => {
                        self.loop_counters[lane].pop();
                    });
                }
                Insn::Discard => {
                    debug_assert!(cur.frames.is_empty());
                    for_lanes!(cur.mask, lane => {
                        self.discarded[lane] = true;
                    });
                    next_ctx!();
                }
                Insn::ErrDiscardInFunction => {
                    return Err(RuntimeError::Type {
                        message: "discard inside a function is not supported by this subset".into(),
                    })
                }
                Insn::ErrBreakInFunction => {
                    return Err(RuntimeError::Type {
                        message: "break/continue escaped a function body".into(),
                    })
                }
                Insn::Ret => match cur.frames.pop() {
                    None => next_ctx!(),
                    Some(frame) => {
                        for_lanes!(cur.mask, lane => {
                            self.loop_counters[lane].truncate(frame.counters_base);
                        });
                        if frame.pushes_outs {
                            let func = &exe.functions[frame.func as usize];
                            let n_outs = func
                                .params
                                .iter()
                                .filter(|(_, q)| matches!(q, ParamQual::Out | ParamQual::InOut))
                                .count();
                            self.ensure_stack(cur.sp + n_outs);
                            if n_outs > 0 {
                                // Return value moves above the copied-out
                                // params: ret to sp-1+n_outs first (its
                                // destination is never an out slot), then
                                // outs to sp-1.. in parameter order.
                                let (lo, hi) = self.stack.split_at_mut(cur.sp);
                                move_slot(
                                    &mut hi[n_outs - 1],
                                    &mut lo[cur.sp - 1],
                                    cur.mask,
                                    cur.sp - 1 + n_outs >= sfl,
                                    cur.sp - 1 >= sfl,
                                );
                                let mut k = cur.sp - 1;
                                for (i, (_, qual)) in func.params.iter().enumerate() {
                                    if matches!(qual, ParamQual::Out | ParamQual::InOut) {
                                        let src = frame.callee_base + i;
                                        move_slot(
                                            &mut self.stack[k],
                                            &mut self.locals[src],
                                            cur.mask,
                                            k >= sfl,
                                            src >= lfl,
                                        );
                                        k += 1;
                                    }
                                }
                            }
                            cur.sp += n_outs;
                        }
                        cur.chunk = frame.ret_chunk;
                        cur.pc = frame.ret_pc;
                        cur.frame_base = frame.frame_base;
                        cur.frame_end = frame.frame_end;
                        land!();
                        continue;
                    }
                },
                Insn::ErrNoReturn(func) => {
                    let name = &exe.functions[*func as usize].name;
                    return Err(RuntimeError::Type {
                        message: format!("function `{name}` ended without returning a value"),
                    });
                }
                Insn::Halt => {
                    debug_assert!(cur.frames.is_empty());
                    next_ctx!();
                }
                Insn::CallBuiltin { id, argc } => {
                    let args_start = cur.sp - *argc as usize;
                    let owned = args_start >= sfl;
                    if !self.call_builtin(*id, args_start, *argc as usize, cur.mask, owned)? {
                        return Err(RuntimeError::Unbound {
                            name: id.name().into(),
                        });
                    }
                    cur.sp = args_start + 1;
                }
                Insn::CallUser { func, pushes_outs } => {
                    let argc = exe.functions[*func as usize].params.len();
                    let args_start = cur.sp - argc;
                    self.enter_call(cur, *func, args_start, *pushes_outs, (sfl, lfl))?;
                    continue;
                }
                Insn::Call {
                    name,
                    builtin,
                    argc,
                    candidates,
                    pushes_outs,
                } => {
                    let argc = *argc as usize;
                    let args_start = cur.sp - argc;
                    // The callee is decided by the argument types, which
                    // are static: the first lane's stand for all.
                    let first = cur.mask.trailing_zeros() as usize;
                    self.arg_buf.clear();
                    for k in 0..argc {
                        let v = self.stack[args_start + k].get(first);
                        self.arg_buf.push(v);
                    }
                    // Builtins and constructors first (they cannot be
                    // shadowed), where one takes these argument types.
                    if let Some(id) = builtin.filter(|&id| builtins::takes(id, &self.arg_buf)) {
                        let owned = args_start >= sfl;
                        if self.call_builtin(id, args_start, argc, cur.mask, owned)? {
                            cur.sp = args_start + 1;
                            cur.pc += 1;
                            continue;
                        }
                    }
                    // User-defined function by exact argument types.
                    let fi = candidates
                        .iter()
                        .copied()
                        .find(|&fi| {
                            let f = &exe.functions[fi as usize];
                            f.params.len() == argc
                                && f.params
                                    .iter()
                                    .zip(&self.arg_buf)
                                    .all(|((ty, _), v)| ops::value_matches_type(v, ty))
                        })
                        .ok_or_else(|| RuntimeError::Unbound {
                            name: exe.names[*name as usize].to_string(),
                        })?;
                    self.enter_call(cur, fi, args_start, *pushes_outs, (sfl, lfl))?;
                    continue;
                }
            }
            cur.pc += 1;
        }
    }
}

/// A `Binary` right operand read in place (see [`Insn::BinaryConst`] and
/// [`Insn::BinaryLocal`]).
#[derive(Clone, Copy)]
enum Operand {
    /// Constant-pool index.
    Const(u32),
    /// Absolute locals-arena index.
    Local(usize),
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

/// Applies a binary operator to `a` (a stack slot) and `b` via the typed
/// fast paths, writing the result to `a` (wholesale when the running
/// context `owned` it) and counting into `profile`. Returns `false`
/// (with no state mutated) when the operand shapes need the generic
/// per-lane path.
fn binary_fast(
    model: FloatModel,
    profile: &mut OpProfile,
    op: BinOp,
    a: &mut Slot,
    b: &Slot,
    mask: u8,
    owned: bool,
) -> bool {
    use BinOp::*;
    // Float arithmetic, component-wise; a scalar right operand
    // broadcasts over a vector left one.
    if matches!(op, Add | Sub | Mul | Div) {
        if let (Some((x, n)), Some((y, m))) = (a.floats_mut(), b.floats()) {
            if m != n && m != 1 {
                return false;
            }
            match op {
                Add => zip_lanes(x, n, y, m, mask, owned, |p, q| p + q),
                Sub => zip_lanes(x, n, y, m, mask, owned, |p, q| p - q),
                Mul => zip_lanes(x, n, y, m, mask, owned, |p, q| p * q),
                _ => zip_lanes(x, n, y, m, mask, owned, |p, q| p / q),
            }
            round_lanes(model, false, x, n, mask, owned);
            count_ops(profile, false, n as u64, mask);
            return true;
        }
    }
    macro_rules! bump_alu {
        ($n:expr) => {
            count_ops(profile, false, $n, mask)
        };
    }
    match (&mut *a, b) {
        (Slot::F(x), Slot::F(y)) => {
            let Some(r) = compare_lanes(op, x, y) else {
                return false;
            };
            bump_alu!(1);
            write_bools(a, r, mask, owned);
            true
        }
        (Slot::I(x), Slot::I(y)) => {
            if matches!(op, Add | Sub | Mul | Div) {
                let g = move |x: i32, y: i32| match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    _ => {
                        if y == 0 {
                            0
                        } else {
                            x.wrapping_div(y)
                        }
                    }
                };
                if owned {
                    for i in 0..MAX_LANES {
                        x[i] = g(x[i], y[i]);
                    }
                } else {
                    for_lanes!(mask, l => { x[l] = g(x[l], y[l]); });
                }
                bump_alu!(1);
                return true;
            }
            let Some(r) = compare_lanes(op, x, y) else {
                return false;
            };
            bump_alu!(1);
            write_bools(a, r, mask, owned);
            true
        }
        (Slot::B(x), Slot::B(y)) => match op {
            And => {
                for_lanes!(mask, l => { x[l] = x[l] && y[l]; });
                true
            }
            Or => {
                for_lanes!(mask, l => { x[l] = x[l] || y[l]; });
                true
            }
            Xor => {
                for_lanes!(mask, l => { x[l] = x[l] != y[l]; });
                true
            }
            Eq => {
                for_lanes!(mask, l => { x[l] = x[l] == y[l]; });
                bump_alu!(1);
                true
            }
            Ne => {
                for_lanes!(mask, l => { x[l] = x[l] != y[l]; });
                bump_alu!(1);
                true
            }
            _ => false,
        },
        _ => false,
    }
}

/// A relational `op` on every lane (dead lanes compare the values they
/// hold, harmlessly), with the operator matched once outside the lane
/// loop; `None` for any other operator.
fn compare_lanes<T: PartialOrd>(
    op: BinOp,
    x: &[T; MAX_LANES],
    y: &[T; MAX_LANES],
) -> Option<[bool; MAX_LANES]> {
    use std::array::from_fn;
    Some(match op {
        BinOp::Lt => from_fn(|l| x[l] < y[l]),
        BinOp::Le => from_fn(|l| x[l] <= y[l]),
        BinOp::Gt => from_fn(|l| x[l] > y[l]),
        BinOp::Ge => from_fn(|l| x[l] >= y[l]),
        BinOp::Eq => from_fn(|l| x[l] == y[l]),
        BinOp::Ne => from_fn(|l| x[l] != y[l]),
        _ => return None,
    })
}

/// Writes per-lane bools to `a`: wholesale when the running context
/// `owned` it, else into the `mask` lanes.
fn write_bools(a: &mut Slot, r: [bool; MAX_LANES], mask: u8, owned: bool) {
    if owned {
        *a = Slot::B(r);
    } else {
        for_lanes!(mask, l => { a.set(l, Value::Bool(r[l])); });
    }
}

/// `a = f(a)` per component over the lanes a write covers: all of them
/// when the running context `owned` the slot, else the `mask` lanes.
/// `a` is lane-major with `n` components per lane.
#[inline(always)]
fn map_lanes(a: &mut [f32], n: usize, mask: u8, owned: bool, f: impl Fn(f32) -> f32) {
    if owned {
        for x in a {
            *x = f(*x);
        }
    } else {
        for_lanes!(mask, l => {
            for x in &mut a[l * n..(l + 1) * n] {
                *x = f(*x);
            }
        });
    }
}

/// Applies the float model's SFU (`sfu`) or ALU rounding to the lanes
/// a write covers (see [`map_lanes`]); rounding per component after the
/// operation is what the scalar paths do, one value at a time. Nothing
/// to do where the model keeps every value.
fn round_lanes(model: FloatModel, sfu: bool, a: &mut [f32], n: usize, mask: u8, owned: bool) {
    if model.is_exact(sfu) {
        return;
    }
    if sfu {
        map_lanes(a, n, mask, owned, |v| model.round_sfu(v));
    } else {
        map_lanes(a, n, mask, owned, |v| model.round_alu(v));
    }
}

/// `a = f(a, b)` per component over the lanes a write covers (see
/// [`map_lanes`]); `b` has `m` components per lane, either `n` or one
/// that broadcasts across the lane's components.
#[inline(always)]
fn zip_lanes(
    a: &mut [f32],
    n: usize,
    b: &[f32],
    m: usize,
    mask: u8,
    owned: bool,
    f: impl Fn(f32, f32) -> f32,
) {
    if owned && m == n {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = f(*x, y);
        }
    } else if owned {
        for (xs, &y) in a.chunks_exact_mut(n).zip(b) {
            for x in xs {
                *x = f(*x, y);
            }
        }
    } else {
        for_lanes!(mask, l => {
            for (c, x) in a[l * n..(l + 1) * n].iter_mut().enumerate() {
                *x = f(*x, b[l * m + c.min(m - 1)]);
            }
        });
    }
}

/// Writes `value` through `path` into `root`, using the shared
/// swizzle/index mutators so behaviour matches the interpreter's
/// `assign_to`/`modify` recursion. Every per-lane store takes exactly
/// this path.
fn store_path(
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
                ops::index_write(root, i, &value)
            } else {
                ops::index_modify(root, i, &mut |inner| {
                    store_path(inner, &path[1..], &indices[1..], value.clone())
                })
            }
        }
        Some(PathStep::Swizzle { idx, len }) => {
            let mut sel = [0usize; 4];
            for (slot, &i) in sel.iter_mut().zip(idx.iter()) {
                *slot = i as usize;
            }
            let sel = &sel[..*len as usize];
            if path.len() == 1 {
                ops::swizzle_write(root, sel, &value)
            } else {
                // Swizzle-of-swizzle lvalues: read, recurse, write back —
                // the interpreter's `modify` does the same.
                let mut tmp = ops::swizzle_read(root, sel)?;
                store_path(&mut tmp, &path[1..], indices, value)?;
                ops::swizzle_write(root, sel, &tmp)
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

    /// A divergent `?:` whose join is the right operand of a binary
    /// operator: the `Const` of the else arm sits right before the
    /// `Binary`, but the `Binary` is a jump target, so the pair must not
    /// fold (the then arm's lanes arrive with their operand already
    /// pushed). The same for a short-circuit `&&` join.
    #[test]
    fn fold_stops_at_a_join_on_the_right_operand() {
        assert_lanes_match_unboxed(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    float x = u_in + 0.5;
                    float a = x * (u_in > 2.0 ? 1.0 : 2.0);
                    float b = x - (u_in < 1.0 ? x : 0.25);
                    bool c = u_in > 0.5 && x < 4.0;
                    gl_FragColor = vec4(a, b, c ? 1.0 : 0.0, x * (c ? a : 3.0));
                 }}"
            ),
            &[0.25, 3.75, 1.5, 6.0, 2.5, 0.75, 4.0, 0.0],
        );
    }

    /// Folded operands read while a sibling context is parked deeper in
    /// a callee (a divergent `if` with an early `return`): the returning
    /// lanes run the caller's folded `* 2.0` and `- kv` on a stack slot
    /// below the parked context's floor, so they must take the masked
    /// path and leave the parked lanes' values alone. Every slot those
    /// lanes write keeps its type, so nothing boxes.
    #[test]
    fn folded_operand_below_an_ownership_floor() {
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
    /// diverges for most of the kernel. Its writes land on slots the
    /// running context owns, so no slot is boxed, and every lane stays
    /// bit-identical to the tree-walker.
    #[test]
    fn sign_mixed_f32_codec_round_trip_boxes_no_slot() {
        let src = format!(
            "{P}uniform sampler2D u_tex;\nvarying vec2 v_uv;\n{F32_CODEC}\n\
             void main() {{ gl_FragColor = gpes_pack_float(gpes_unpack_float(texture2D(u_tex, v_uv))); }}"
        );
        let row = F32Row(vec![1.5, -2.25, 3.0e-3, -0.125, 96.0, -7.5e5, 0.625, -1.0]);
        let uv = |lane: usize| Value::Vec2([(lane as f32 + 0.5) / row.0.len() as f32, 0.5]);
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
            for lane in 0..MAX_LANES {
                spmd.set_lane_slot(lane, slot, uv(lane));
            }
            let boxed = SpmdVm::boxings();
            spmd.run_batch(MAX_LANES).expect("batch");
            assert_eq!(SpmdVm::boxings() - boxed, 0, "slots boxed under {model:?}");
            for lane in 0..MAX_LANES {
                oracle.set_global("v_uv", uv(lane)).expect("v_uv");
                oracle.run_main().expect("oracle run");
                assert_eq!(
                    spmd.frag_color(lane).map(|c| c.map(f32::to_bits)),
                    oracle.frag_color().map(|c| c.map(f32::to_bits)),
                    "lane {lane} under {model:?}"
                );
            }
            assert_eq!(spmd.profile(), oracle.profile(), "profiles under {model:?}");
        }
    }

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
            max_call_depth: 8,
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
    fn call_depth_guard_traps_unbounded_recursion() {
        let src = format!(
            "{P}uniform float u_in;\n\
             float f(float x) {{ return f(x) + 1.0; }}\n\
             void main() {{ gl_FragColor = vec4(u_in > 0.0 ? f(u_in) : u_in); }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 2).expect("spmd");
        spmd.set_limits(ExecLimits {
            max_loop_iterations: 1000,
            max_call_depth: 8,
        });
        let slot = exe.global_slot("u_in").expect("slot");
        spmd.set_lane_slot(0, slot, Value::Float(-1.0));
        spmd.set_lane_slot(1, slot, Value::Float(1.0));
        let err = spmd
            .run_batch(2)
            .expect_err("lane 1 recurses without bound");
        assert_eq!(err.lane, 1);
        assert!(matches!(err.error, RuntimeError::CallDepth { limit: 8 }));
        assert_eq!(spmd.frag_color(0), Some([-1.0; 4]));
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
