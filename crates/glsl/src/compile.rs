//! Lowering checked shaders to three-address, typed bytecode.
//!
//! The tree-walking interpreter resolves every variable by string
//! comparison over a scope stack and re-walks the AST for every fragment.
//! This module performs all of that work **once per shader**: a resolver
//! pass assigns every global, parameter, local and expression temporary
//! a numeric slot, and flattens the statement tree into a compact
//! instruction sequence (`Insn`) executed by [`crate::spmd::SpmdVm`].
//!
//! The lowering is deliberately semantics-preserving to the point of
//! being boring: evaluation order, profile counting points, rounding and
//! error messages all mirror `interp.rs` exactly, so the VM can be
//! differentially tested against the tree-walker bit for bit. What it
//! decides once per shader, from the expression types the checker
//! recorded, so the VM need not per batch:
//!
//! * **Where operands live.** An instruction names each operand in
//!   place (`Opnd`): a frame slot, a constant, a global, or one
//!   component of a global vector. Everything else is evaluated into a
//!   frame slot at a static offset; temporaries are allocated
//!   stack-like above the locals in scope, so the slots live at any
//!   point are a prefix of the frame, recorded on every jump target.
//! * **Operand shapes.** Arithmetic, comparisons, negation and builtins
//!   carry the `Shape` of their operands.
//! * **Callees.** A call runs the user definition the checker resolved
//!   it to, else the builtin that takes its argument types; a user
//!   call's arguments are evaluated straight into the callee's parameter
//!   slots, and its body is spliced in.
//! * **Conditions.** `&&`, `||` and `!` in a condition become control
//!   flow, a scalar comparison is the jump itself, and a `?:` whose arms
//!   are read in place is a per-lane select.
//!
//! Only the functions reachable from `main` and the global initialisers
//! are lowered — a generated kernel carries a codec library it mostly
//! does not call — while sema has checked them all.

use crate::ast::*;
use crate::builtins::{self, BuiltinId};
use crate::sema::{Calls, CompiledShader, ShaderKind, NO_DEF};
use crate::span::Span;
use crate::swizzle::swizzle_indices;
use crate::types::{Scalar, Type};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Why a checked shader could not be lowered to bytecode.
///
/// Lowering is total on what the semantic checker accepts: the checker
/// refuses recursion, calls to functions never defined, call trees past
/// [`crate::sema::MAX_SPLICED_NODES`] and calls of more than 255
/// arguments, and its types hold an lvalue path to three indexed steps.
/// An error here is a front-end defect; a link reports it as a link
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lower shader to bytecode: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn err(message: impl Into<String>) -> LowerError {
    LowerError {
        message: message.into(),
    }
}

/// A storage slot: globals live for the shader's lifetime, locals live in
/// the current frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotRef {
    /// Index into the VM's global table.
    Global(u32),
    /// Offset into the current frame.
    Local(u32),
}

/// Where an instruction reads an operand, in place: nothing is copied
/// to a scratch location first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opnd {
    /// Frame slot: a parameter, local or expression temporary, as an
    /// offset from the frame base.
    Local(u32),
    /// Constant-pool entry (splatted across the lanes once per VM).
    Const(u32),
    /// Global slot.
    Global(u32),
    /// Component `c` of a float-vector global, read as a `float`
    /// (`u_dims.x`, `gl_FragCoord.y`).
    GlobalComp(u32, u8),
}

/// The operand shape a typed instruction's lane loop is specialised on,
/// fixed by the checker's expression types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// `float` or `vecN` operands of one width `n` (1 for `float`).
    F(u8),
    /// A `vecN` left operand and a `float` right one that broadcasts.
    VecScalar(u8),
    /// A `float` left operand that broadcasts over a `vecN` right one.
    ScalarVec(u8),
    /// `int` operands.
    I,
    /// `bool` operands.
    B,
    /// Anything else (matrices, int and bool vectors, arrays, samplers):
    /// per-lane values through the interpreter's own `ops` routines.
    Any,
}

impl Shape {
    /// The shape of a binary operator's operands `a` and `b`.
    fn of(a: &Type, b: &Type) -> Shape {
        match (float_width(a), float_width(b)) {
            (Some(n), Some(m)) if n == m => Shape::F(n),
            (Some(n), Some(1)) => Shape::VecScalar(n),
            (Some(1), Some(m)) => Shape::ScalarVec(m),
            _ => match (a, b) {
                (Type::Int, Type::Int) => Shape::I,
                (Type::Bool, Type::Bool) => Shape::B,
                _ => Shape::Any,
            },
        }
    }

    /// The shape of a one-operand instruction on `a`.
    fn unary(a: &Type) -> Shape {
        Shape::of(a, a)
    }
}

/// The component count of a `float` (1) or `vecN`; `None` for every
/// other type.
fn float_width(ty: &Type) -> Option<u8> {
    match ty {
        Type::Float => Some(1),
        Type::Vec2 => Some(2),
        Type::Vec3 => Some(3),
        Type::Vec4 => Some(4),
        _ => None,
    }
}

/// A jump destination: the instruction, and how many frame slots are
/// live there. A context deferred at `pc` reads no frame slot at or
/// above `live`, so the running context owns those (see
/// [`crate::spmd`]'s ownership rule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Target {
    /// Instruction index in the chunk.
    pub pc: u32,
    /// Frame slots live at `pc`.
    pub live: u32,
}

/// One step of an lvalue path, walking outward from the root variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PathStep {
    /// `.xyz` — selector indices (first `len` entries valid).
    Swizzle { idx: [u8; 4], len: u8 },
    /// `[i]` — the index value is the store's next index operand.
    Index,
}

/// Where an lvalue lives, its index operands evaluated once: a read
/// through it and the store to it reach the same element.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// A variable, whole; `color` when it is `gl_FragColor`.
    Whole { root: SlotRef, color: bool },
    /// Part of a variable: [`Executable::stores`]`[def]`.
    Path(u32),
}

/// A store through an accessor path (`v.xz = …`, `a[i] = …`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreDef {
    /// Root variable.
    pub root: SlotRef,
    /// Accessor path from the root (never empty).
    pub path: Box<[PathStep]>,
    /// The index operands, one per `Index` step in path order, at
    /// [`Executable::operands`]`[indices..]`.
    pub indices: u32,
    /// Number of `Index` steps in `path`.
    pub n_index: u8,
    /// Whether this store must set the `gl_FragColor`-written flag.
    pub wrote_color: bool,
    /// Whether this store must set the `gl_FragData`-written flag.
    pub wrote_data: bool,
}

/// One three-address bytecode instruction. Every value instruction names
/// its operands where they live ([`Opnd`]) and the frame slot its result
/// goes to; the typed ones carry the [`Shape`] the checker gave their
/// operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Insn {
    /// `frame[dst] = src`.
    Move {
        /// Destination frame slot.
        dst: u32,
        /// Source.
        src: Opnd,
    },
    /// `frame[dst] = a op b`: a non-short-circuit binary operator
    /// (arithmetic, relational, `^^`).
    Binary {
        /// Operator.
        op: BinOp,
        /// Operand shape.
        shape: Shape,
        /// Destination frame slot.
        dst: u32,
        /// Left operand.
        a: Opnd,
        /// Right operand.
        b: Opnd,
    },
    /// `frame[dst] = -a`.
    Neg {
        /// Operand shape.
        shape: Shape,
        /// Destination frame slot.
        dst: u32,
        /// Operand.
        a: Opnd,
    },
    /// `frame[dst] = cond ? a : b` per lane: a `?:` whose arms are read
    /// in place. Counts the `?:`'s branch.
    Select {
        /// Destination frame slot.
        dst: u32,
        /// The `bool` condition.
        cond: Opnd,
        /// Value where `cond` holds.
        a: Opnd,
        /// Value where it does not.
        b: Opnd,
    },
    /// `frame[dst] = !a`.
    Not {
        /// Destination frame slot.
        dst: u32,
        /// Operand.
        a: Opnd,
    },
    /// `frame[dst] = src.<idx>`.
    Swizzle {
        /// Destination frame slot.
        dst: u32,
        /// The vector swizzled.
        src: Opnd,
        /// Selector indices (first `len` valid).
        idx: [u8; 4],
        /// Selector length.
        len: u8,
    },
    /// `frame[dst] = base[index]`.
    Index {
        /// Destination frame slot.
        dst: u32,
        /// The array, vector or matrix indexed.
        base: Opnd,
        /// The `int` index.
        index: Opnd,
    },
    /// `frame[dst] = id(args…)`: a builtin function or constructor.
    Builtin {
        /// The builtin.
        id: BuiltinId,
        /// `Any` when an argument is no `float`, `vecN`, `int` or sampler
        /// (no SoA fast path applies), else `F(n)` for a first argument
        /// of `n` float components and `I` for any other.
        shape: Shape,
        /// Destination frame slot.
        dst: u32,
        /// The arguments, at [`Executable::operands`]`[args..]`.
        args: u32,
        /// Argument count.
        argc: u8,
    },
    /// Enter a spliced user call: count it for the running lanes.
    Enter,
    /// Return `value` from a lowered function body. Loops the return
    /// leaves were exited first. Every call splices the body, which turns
    /// each return into a write of the call's destination and a jump to
    /// its exit, so no [`Executable`] holds one.
    Ret {
        /// The returned value.
        value: Opnd,
        /// The instruction before (past any `LoopExit`) computes `value`
        /// and nothing jumps in between: a splice has that instruction
        /// write the call's destination instead.
        fused: bool,
    },
    /// Store `src` into global `slot`, whole (masked: retired lanes'
    /// outputs must survive).
    StoreGlobal {
        /// Global slot.
        slot: u32,
        /// Value stored.
        src: Opnd,
        /// Whether this stores `gl_FragColor`.
        color: bool,
    },
    /// Store `src` through `stores[def]`'s accessor path.
    Store {
        /// Index into [`Executable::stores`].
        def: u32,
        /// Value stored.
        src: Opnd,
    },
    /// Unconditional jump.
    Jump(Target),
    /// Jump to `to` where the scalar comparison `a op b` equals `on`.
    JumpCmp {
        /// Relational or equality operator.
        op: BinOp,
        /// Operand shape: `F(1)` or `I`.
        shape: Shape,
        /// Left operand.
        a: Opnd,
        /// Right operand.
        b: Opnd,
        /// The value that jumps.
        on: bool,
        /// Destination.
        to: Target,
        /// Count one taken branch first (an `if` or `?:` condition).
        branch: bool,
    },
    /// Jump to `to` where the `bool` `cond` equals `on`.
    JumpIf {
        /// The condition.
        cond: Opnd,
        /// The value that jumps.
        on: bool,
        /// Destination.
        to: Target,
        /// Count one taken branch first (an `if` or `?:` condition).
        branch: bool,
    },
    /// Push a fresh loop-iteration counter.
    LoopEnter,
    /// Count one iteration: bump the counter, profile a branch, enforce
    /// the iteration limit (error cites `span`).
    LoopIter {
        /// Loop statement location for the `LoopLimit` error.
        span: Span,
    },
    /// Pop the loop-iteration counter.
    LoopExit,
    /// `discard` in `main`: set the flag and end the invocation.
    Discard,
    /// `discard` reached inside a user function (runtime error, matching
    /// the interpreter).
    ErrDiscardInFunction,
    /// Non-void function `functions[i]` fell off its end (runtime error
    /// citing its name).
    ErrNoReturn(u32),
    /// End the invocation (main / initialiser chunk).
    Halt,
}

impl Insn {
    /// A jump's target; `None` for every other instruction.
    fn target(&self) -> Option<Target> {
        { *self }.jump_target().copied()
    }

    /// [`Self::target`], to patch.
    fn jump_target(&mut self) -> Option<&mut Target> {
        match self {
            Insn::Jump(t) | Insn::JumpIf { to: t, .. } | Insn::JumpCmp { to: t, .. } => Some(t),
            _ => None,
        }
    }

    /// The frame slot a value instruction or call writes; `None` for
    /// every other instruction.
    fn dst(&self) -> Option<u32> {
        { *self }.dst_mut().copied()
    }

    /// [`Self::dst`], to rewrite.
    fn dst_mut(&mut self) -> Option<&mut u32> {
        match self {
            Insn::Move { dst, .. }
            | Insn::Binary { dst, .. }
            | Insn::Neg { dst, .. }
            | Insn::Select { dst, .. }
            | Insn::Not { dst, .. }
            | Insn::Swizzle { dst, .. }
            | Insn::Index { dst, .. }
            | Insn::Builtin { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Whether control never reaches the next instruction from this one.
    fn ends_flow(&self) -> bool {
        matches!(
            self,
            Insn::Ret { .. }
                | Insn::Jump(_)
                | Insn::Discard
                | Insn::ErrDiscardInFunction
                | Insn::ErrNoReturn(_)
                | Insn::Halt
        )
    }
}

// An instruction is at most four words: decode touches one cache line
// per two instructions.
const _: () = assert!(std::mem::size_of::<Insn>() <= 32);

/// A call spliced into a chunk: the code of its body, up to its exit, and
/// the frame slot its returns write. A context stopped inside the body
/// writes that slot before it reads it, so it does not hold the slot
/// live (see [`crate::spmd`]'s ownership rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Splice {
    /// First instruction of the body.
    pub start: u32,
    /// The exit: the instruction after the body.
    pub end: u32,
    /// The call's destination frame slot.
    pub dst: u32,
}

/// A compiled instruction sequence plus the frame space it needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Chunk {
    /// Instructions.
    pub code: Vec<Insn>,
    /// Number of frame slots (params + locals + temporaries and the
    /// frames of the calls spliced in).
    pub frame_size: u32,
    /// The calls spliced into the chunk, nested ones included.
    pub splices: Vec<Splice>,
}

/// A checked shader lowered to slot-addressed bytecode, ready to be
/// executed by [`crate::spmd::SpmdVm`]. Immutable and shareable across
/// threads (each rasteriser band runs its own VM over the same
/// `Executable`). Two lowerings of the same items compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Executable {
    /// Stage.
    pub(crate) kind: ShaderKind,
    /// Constant pool.
    pub(crate) consts: Vec<Value>,
    /// Builtin arguments and store indices, referenced by position.
    pub(crate) operands: Vec<Opnd>,
    /// Accessor-path stores.
    pub(crate) stores: Vec<StoreDef>,
    /// Global slot types, in slot order.
    pub(crate) globals: Vec<Type>,
    /// Name → global slot.
    pub(crate) global_index: HashMap<Name, u32>,
    /// Global slots holding plain mutable globals, re-initialised per
    /// invocation.
    pub(crate) reset_slots: Vec<u32>,
    /// The global initialisers, every call spliced in.
    pub(crate) init: Chunk,
    /// `main`, every call spliced in.
    pub(crate) main: Chunk,
    /// The names of the user functions lowered: those reachable from
    /// `main` or a global initialiser, each after the ones it calls.
    pub(crate) functions: Vec<Name>,
}

impl Executable {
    /// The shader stage this executable was lowered from.
    pub fn kind(&self) -> ShaderKind {
        self.kind
    }

    /// Resolves a global (uniform, attribute, varying or builtin) to its
    /// slot, for allocation-free per-lane stores via
    /// [`crate::spmd::SpmdVm::set_lane_slot`].
    pub fn global_slot(&self, name: &str) -> Option<u32> {
        self.global_index.get(name).copied()
    }

    /// Number of global slots.
    pub fn global_count(&self) -> usize {
        self.globals.len()
    }

    /// Total number of lowered instructions (diagnostics only).
    pub fn code_len(&self) -> usize {
        self.init.code.len() + self.main.code.len()
    }
}

/// Lowers a checked shader into an [`Executable`].
///
/// # Errors
///
/// [`LowerError`] only on a front-end defect (see the type's docs).
pub fn lower(shader: &CompiledShader) -> Result<Executable, LowerError> {
    Lowerer::new(shader).lower()
}

/// Lowers a checked shader into a reference-counted [`Executable`] ready
/// for cross-context (and cross-thread) sharing.
///
/// An `Executable` is immutable after lowering — all mutable execution
/// state lives in the [`crate::spmd::SpmdVm`] — so one lowered program can
/// back any number of concurrently running VMs. This is the handle shape
/// the process-wide program cache stores: link once, share everywhere.
///
/// # Errors
///
/// As [`lower`].
pub fn lower_shared(shader: &CompiledShader) -> Result<std::sync::Arc<Executable>, LowerError> {
    lower(shader).map(std::sync::Arc::new)
}

/// Builtin globals per stage: name, type, and whether the shader may
/// write it. Sema, the lowerer and the interpreter all declare them in
/// this order.
pub(crate) fn builtin_globals(kind: ShaderKind) -> Vec<(&'static str, Type, bool)> {
    match kind {
        ShaderKind::Vertex => vec![
            ("gl_Position", Type::Vec4, true),
            ("gl_PointSize", Type::Float, true),
        ],
        ShaderKind::Fragment => vec![
            ("gl_FragColor", Type::Vec4, true),
            // ES 2 guarantees only a single draw buffer: this is the
            // paper's limitation #8 made concrete in the type system.
            ("gl_FragData", Type::Array(Box::new(Type::Vec4), 1), true),
            ("gl_FragCoord", Type::Vec4, false),
            ("gl_FrontFacing", Type::Bool, false),
            ("gl_PointCoord", Type::Vec2, false),
        ],
    }
}

/// A scalar constant's identity in the pool: floats by bit pattern, so
/// `0.0` and `-0.0` stay apart.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Float(u32),
    Int(i32),
    Bool(bool),
}

/// A user function definition, the checker's record of its unit (its
/// expressions' types and callees) and, once lowered, its index in the
/// function table.
struct Def<'a> {
    ast: &'a Function,
    types: &'a [Type],
    callees: &'a [u32],
    index: Option<u32>,
}

struct Lowerer<'a> {
    shader: &'a CompiledShader,
    consts: Vec<Value>,
    /// Pool index of each scalar constant (other values are not shared).
    const_index: HashMap<ConstKey, u32>,
    operands: Vec<Opnd>,
    stores: Vec<StoreDef>,
    globals: Vec<Type>,
    /// Per global slot: whether no instruction writes it (uniforms,
    /// attributes, constants, fragment varyings, read-only builtins).
    read_only: Vec<bool>,
    global_index: HashMap<Name, u32>,
    reset_slots: Vec<u32>,
    functions: Vec<Name>,
    /// The function definitions, by the checker's definition number.
    defs: Vec<Def<'a>>,
    /// Each overload's definition number ([`Calls::defs`]).
    overload_defs: &'a [u32],
    /// Lowered function bodies by function index, spliced at each call;
    /// `None` while the function is still to be lowered.
    bodies: Vec<Option<Chunk>>,
    /// Per function index: the parameter slots its body writes, as a bit
    /// set over the first 256.
    written: Vec<[u64; 4]>,
    /// The code buffer every chunk is compiled in (chunks are compiled
    /// one at a time), so a chunk's code is allocated once, at its size.
    code_buffer: Vec<Insn>,
    /// Argument types and operands of the calls being lowered, innermost
    /// call last (a stack shared by nested calls).
    arg_types: Vec<Type>,
    arg_operands: Vec<Opnd>,
    /// The places of the `out` and `inout` arguments of the calls being
    /// lowered, innermost call last.
    places: Vec<Place>,
    /// Where each instruction of the body being spliced lands.
    pc_map: Vec<u32>,
}

impl<'a> Lowerer<'a> {
    fn new(shader: &'a CompiledShader) -> Self {
        Lowerer {
            shader,
            consts: Vec::new(),
            const_index: HashMap::new(),
            operands: Vec::new(),
            stores: Vec::new(),
            globals: Vec::new(),
            read_only: Vec::new(),
            global_index: HashMap::new(),
            reset_slots: Vec::new(),
            functions: Vec::new(),
            defs: Vec::new(),
            overload_defs: &shader.calls.defs,
            bodies: Vec::new(),
            written: Vec::new(),
            code_buffer: Vec::new(),
            arg_types: Vec::new(),
            arg_operands: Vec::new(),
            places: Vec::new(),
            pc_map: Vec::new(),
        }
    }

    /// Every item of the shader with the checker's record of its unit.
    fn items(&self) -> impl Iterator<Item = (&'a Item, &'a [Type], &'a Calls)> {
        (self.shader.units())
            .flat_map(|(unit, types, calls)| unit.items.iter().map(move |i| (i, types, calls)))
    }

    fn add_const(&mut self, v: Value) -> u32 {
        let key = match v {
            Value::Float(f) => Some(ConstKey::Float(f.to_bits())),
            Value::Int(i) => Some(ConstKey::Int(i)),
            Value::Bool(b) => Some(ConstKey::Bool(b)),
            _ => None,
        };
        let next = self.consts.len() as u32;
        let index = match key {
            Some(key) => *self.const_index.entry(key).or_insert(next),
            None => next,
        };
        if index == next {
            self.consts.push(v);
        }
        index
    }

    fn lower(&mut self) -> Result<Executable, LowerError> {
        // Globals: stage builtins first (same order as the interpreter),
        // then declared globals in item order; definitions in item order.
        let kind = self.shader.kind;
        for (name, ty, writable) in builtin_globals(kind) {
            self.global_index
                .insert(Name::from(name), self.globals.len() as u32);
            self.globals.push(ty);
            self.read_only.push(!writable);
        }
        for (unit, types, calls) in self.shader.units() {
            for item in &unit.items {
                match item {
                    Item::Var(decl) => {
                        for var in &decl.vars {
                            let slot = self.globals.len() as u32;
                            self.globals.push(var.ty.clone());
                            self.read_only.push(match decl.storage {
                                Storage::None => false,
                                Storage::Varying => kind == ShaderKind::Fragment,
                                Storage::Const | Storage::Attribute | Storage::Uniform => true,
                            });
                            self.global_index.insert(Name::clone(&var.name), slot);
                            if decl.storage == Storage::None {
                                self.reset_slots.push(slot);
                            }
                        }
                    }
                    Item::Function(f) => self.defs.push(Def {
                        ast: f,
                        types,
                        callees: &calls.callee,
                        index: None,
                    }),
                    _ => {}
                }
            }
        }

        // The functions the global initialisers and main reach, each after
        // the ones it calls (sema checked every one), then the initialisers
        // and main, which splice them.
        for &def in &self.shader.order {
            self.lower_function(def)?;
        }
        let main = (self.defs.iter())
            .position(|d| &*d.ast.name == "main" && d.ast.params.is_empty())
            .ok_or_else(|| err("no main() function"))?;
        let init = self.lower_init_chunk()?;
        let main = self.lower_main(main)?;
        assert!(
            !(init.code.iter().chain(&main.code)).any(|i| matches!(i, Insn::Ret { .. })),
            "a return left unspliced"
        );
        Ok(Executable {
            kind,
            consts: std::mem::take(&mut self.consts),
            operands: std::mem::take(&mut self.operands),
            stores: std::mem::take(&mut self.stores),
            globals: std::mem::take(&mut self.globals),
            global_index: std::mem::take(&mut self.global_index),
            reset_slots: std::mem::take(&mut self.reset_slots),
            init,
            main,
            functions: std::mem::take(&mut self.functions),
        })
    }

    fn lower_init_chunk(&mut self) -> Result<Chunk, LowerError> {
        let mut cc = ChunkCompiler::new(self, CompileCx::Init, &[], &[]);
        for (item, types, calls) in cc.lo.items() {
            if let Item::Var(decl) = item {
                (cc.types, cc.callees) = (types, &calls.callee);
                for var in &decl.vars {
                    let src = match &var.init {
                        Some(init) => cc.operand(init)?,
                        None => Opnd::Const(cc.lo.add_const(Value::zero_of(&var.ty))),
                    };
                    let slot = cc.lo.global_index[&*var.name];
                    cc.emit(Insn::StoreGlobal {
                        slot,
                        src,
                        color: false,
                    });
                    cc.next_slot = 0;
                }
            }
        }
        cc.emit(Insn::Halt);
        Ok(cc.finish())
    }

    /// Numbers definition `def` in the function table and lowers its
    /// body, every call spliced, into [`Self::bodies`].
    fn lower_function(&mut self, def: u32) -> Result<(), LowerError> {
        let index = self.functions.len() as u32;
        let d = &mut self.defs[def as usize];
        d.index = Some(index);
        let Def {
            ast: f,
            types,
            callees,
            ..
        } = *d;
        self.functions.push(Name::clone(&f.name));
        self.bodies.push(None);
        self.written.push([0; 4]);
        let ret_void = f.ret == Type::Void;
        let mut cc = ChunkCompiler::new(self, CompileCx::Function, types, callees);
        cc.ret_void = ret_void;
        cc.func = index;
        cc.push_scope();
        for p in &f.params {
            let slot = cc.alloc_slot();
            cc.declare(&p.name, slot);
        }
        for stmt in &f.body {
            cc.stmt(stmt)?;
        }
        // Fall-through return, where the end can be reached.
        let reached =
            cc.label == cc.code.len() as u32 || !cc.code.last().is_some_and(Insn::ends_flow);
        if reached && ret_void {
            let dummy = cc.konst(Value::Float(0.0));
            cc.emit(Insn::Ret {
                value: dummy,
                fused: false,
            });
        } else if reached {
            cc.emit(Insn::ErrNoReturn(index));
        }
        cc.pop_scope();
        let body = cc.finish();
        self.written[index as usize] = written_params(&body, &self.stores);
        self.bodies[index as usize] = Some(body);
        Ok(())
    }

    fn lower_main(&mut self, main: usize) -> Result<Chunk, LowerError> {
        let Def {
            ast,
            types,
            callees,
            ..
        } = self.defs[main];
        let mut cc = ChunkCompiler::new(self, CompileCx::Main, types, callees);
        cc.push_scope();
        for stmt in &ast.body {
            cc.stmt(stmt)?;
        }
        cc.emit(Insn::Halt);
        cc.pop_scope();
        Ok(cc.finish())
    }
}

/// What kind of chunk is being compiled (changes `discard`, `return`,
/// `break` semantics, mirroring the interpreter's `Flow` handling).
#[derive(Clone, Copy, PartialEq, Eq)]
enum CompileCx {
    Init,
    Main,
    Function,
}

struct LoopCtx {
    /// Jump-site indices to patch to the loop exit.
    breaks: Vec<usize>,
    /// Jump-site indices to patch to the continue point.
    continues: Vec<usize>,
}

struct ChunkCompiler<'l, 'a> {
    lo: &'l mut Lowerer<'a>,
    cx: CompileCx,
    code: Vec<Insn>,
    /// The checker's types of the expressions being lowered.
    types: &'a [Type],
    /// The checker's callees of the expressions being lowered
    /// ([`Calls::callee`]).
    callees: &'a [u32],
    /// Locals in scope with their slots, outermost first.
    locals: Vec<(&'a str, u32)>,
    /// Where each open scope starts in `locals`.
    scope_starts: Vec<usize>,
    /// The first free frame slot: locals in scope and live temporaries
    /// sit below it, stack-like.
    next_slot: u32,
    frame_size: u32,
    loops: Vec<LoopCtx>,
    /// Whether the enclosing function returns `void` (Function chunks).
    ret_void: bool,
    /// Function-table index of the enclosing function (Function chunks).
    func: u32,
    /// The last instruction index made a jump target ([`NO_JUMP`] for
    /// none): an instruction emitted there may be reached by a jump.
    label: u32,
    /// The calls spliced so far.
    splices: Vec<Splice>,
}

impl<'l, 'a> ChunkCompiler<'l, 'a> {
    fn new(lo: &'l mut Lowerer<'a>, cx: CompileCx, types: &'a [Type], callees: &'a [u32]) -> Self {
        let code = std::mem::take(&mut lo.code_buffer);
        ChunkCompiler {
            lo,
            cx,
            code,
            types,
            callees,
            locals: Vec::new(),
            scope_starts: Vec::new(),
            next_slot: 0,
            frame_size: 0,
            loops: Vec::new(),
            ret_void: true,
            func: 0,
            label: NO_JUMP,
            splices: Vec::new(),
        }
    }

    fn finish(mut self) -> Chunk {
        let chunk = Chunk {
            code: self.code.drain(..).collect(),
            frame_size: self.frame_size,
            splices: self.splices,
        };
        self.lo.code_buffer = self.code;
        chunk
    }

    fn emit(&mut self, insn: Insn) -> usize {
        self.code.push(insn);
        self.code.len() - 1
    }

    /// The next instruction as a jump target, with `live` frame slots
    /// live there.
    fn label_here(&mut self, live: u32) -> Target {
        self.label = self.code.len() as u32;
        Target {
            pc: self.label,
            live,
        }
    }

    /// The next instruction as a jump target, with the slots live here.
    fn here(&mut self) -> Target {
        self.label_here(self.next_slot)
    }

    fn patch(&mut self, at: usize, target: Target) {
        *self.code[at].jump_target().expect("patching a non-jump") = target;
    }

    /// The checker's type of `e`.
    fn ty(&self, e: &Expr) -> &'a Type {
        self.types.get(e.id as usize).unwrap_or(&Type::Void)
    }

    // ---- slots & scopes --------------------------------------------------

    fn alloc_slot(&mut self) -> u32 {
        let s = self.next_slot;
        self.claim(s);
        s
    }

    /// Keeps frame slots up to and including `slot` allocated.
    fn claim(&mut self, slot: u32) {
        self.next_slot = slot + 1;
        self.frame_size = self.frame_size.max(self.next_slot);
    }

    fn declare(&mut self, name: &'a str, slot: u32) {
        self.locals.push((name, slot));
    }

    fn push_scope(&mut self) {
        self.scope_starts.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scope_starts.pop().expect("scope to pop");
        // Slots of this scope become reusable.
        self.next_slot -= (self.locals.len() - start) as u32;
        self.locals.truncate(start);
    }

    /// Resolves a name exactly like the interpreter's scope scan:
    /// innermost scope first, later declarations shadow earlier ones,
    /// then globals.
    fn resolve(&self, name: &str) -> Option<SlotRef> {
        if let Some(&(_, slot)) = self.locals.iter().rev().find(|(n, _)| *n == name) {
            return Some(SlotRef::Local(slot));
        }
        self.lo.global_index.get(name).copied().map(SlotRef::Global)
    }

    fn konst(&mut self, v: Value) -> Opnd {
        Opnd::Const(self.lo.add_const(v))
    }

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self, stmt: &'a Stmt) -> Result<(), LowerError> {
        match &stmt.kind {
            StmtKind::Expr(e) => self.effect(e),
            StmtKind::Decl(decl) => {
                for var in &decl.vars {
                    // The initialiser is evaluated into the next free
                    // slot, and the name becomes visible only after (the
                    // interpreter's push-after-eval).
                    let slot = self.next_slot;
                    match &var.init {
                        Some(init) => self.expr_into(init, slot)?,
                        None => {
                            let zero = self.konst(Value::zero_of(&var.ty));
                            self.emit(Insn::Move {
                                dst: slot,
                                src: zero,
                            });
                        }
                    }
                    self.claim(slot);
                    self.declare(&var.name, slot);
                }
                Ok(())
            }
            StmtKind::If(cond, then, els) => {
                let to_else = self.branch_unless(cond, true)?;
                self.scoped_stmt(then)?;
                match els {
                    Some(els) => {
                        let to_end = self.emit(Insn::Jump(Target::default()));
                        let else_at = self.here();
                        self.patch_chain(to_else, else_at);
                        self.scoped_stmt(els)?;
                        let end = self.here();
                        self.patch(to_end, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch_chain(to_else, end);
                    }
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                self.emit(Insn::LoopEnter);
                let top = self.here();
                let cond_exit = match cond {
                    Some(cond) => Some(self.branch_unless(cond, false)?),
                    None => None,
                };
                self.emit(Insn::LoopIter { span: stmt.span });
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.scoped_stmt(body)?;
                let cont_at = self.here();
                if let Some(step) = step {
                    self.effect(step)?;
                }
                self.emit(Insn::Jump(top));
                let exit = self.here();
                self.close_loop(exit, cont_at);
                if let Some(chain) = cond_exit {
                    self.patch_chain(chain, exit);
                }
                self.emit(Insn::LoopExit);
                self.pop_scope();
                Ok(())
            }
            StmtKind::While(cond, body) => {
                self.emit(Insn::LoopEnter);
                let top = self.here();
                let cond_exit = self.branch_unless(cond, false)?;
                self.emit(Insn::LoopIter { span: stmt.span });
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.scoped_stmt(body)?;
                self.emit(Insn::Jump(top));
                let exit = self.here();
                self.close_loop(exit, top);
                self.patch_chain(cond_exit, exit);
                self.emit(Insn::LoopExit);
                Ok(())
            }
            StmtKind::DoWhile(body, cond) => {
                self.emit(Insn::LoopEnter);
                let top = self.here();
                self.emit(Insn::LoopIter { span: stmt.span });
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.scoped_stmt(body)?;
                let cont_at = self.here();
                let back = self.cond_jumps(cond, true, &mut false, NO_JUMP)?;
                self.patch_chain(back, top);
                let exit = self.here();
                self.close_loop(exit, cont_at);
                self.emit(Insn::LoopExit);
                Ok(())
            }
            StmtKind::Return(value) => {
                let mark = self.next_slot;
                match self.cx {
                    CompileCx::Function => match value {
                        Some(e) => {
                            let value = self.operand(e)?;
                            let fused = matches!(value, Opnd::Local(t)
                                if self.label != self.code.len() as u32
                                    && self.code.last().and_then(Insn::dst) == Some(t));
                            self.leave_loops();
                            self.emit(Insn::Ret { value, fused });
                        }
                        None if self.ret_void => {
                            let value = self.konst(Value::Float(0.0));
                            self.leave_loops();
                            self.emit(Insn::Ret {
                                value,
                                fused: false,
                            });
                        }
                        None => {
                            // `return;` in a non-void function ends it
                            // without a value — same runtime error as
                            // falling off the end.
                            let func = self.func;
                            self.emit(Insn::ErrNoReturn(func));
                        }
                    },
                    CompileCx::Main | CompileCx::Init => {
                        if let Some(e) = value {
                            self.effect(e)?;
                        }
                        self.emit(Insn::Halt);
                    }
                }
                self.next_slot = mark;
                Ok(())
            }
            StmtKind::Break => {
                if self.loops.last().is_some() {
                    let at = self.emit(Insn::Jump(Target::default()));
                    self.loops.last_mut().expect("loop").breaks.push(at);
                } else if self.cx == CompileCx::Function {
                    // Sema rejects it; the tree-walker reports it.
                    return Err(err("break/continue outside of a loop"));
                } else {
                    // Break at main's top level ends the invocation
                    // (matches the interpreter's Flow handling).
                    self.emit(Insn::Halt);
                }
                Ok(())
            }
            StmtKind::Continue => {
                if self.loops.last().is_some() {
                    let at = self.emit(Insn::Jump(Target::default()));
                    self.loops.last_mut().expect("loop").continues.push(at);
                } else if self.cx == CompileCx::Function {
                    return Err(err("break/continue outside of a loop"));
                } else {
                    self.emit(Insn::Halt);
                }
                Ok(())
            }
            StmtKind::Discard => {
                match self.cx {
                    CompileCx::Main => self.emit(Insn::Discard),
                    _ => self.emit(Insn::ErrDiscardInFunction),
                };
                Ok(())
            }
            StmtKind::Block(stmts) => {
                self.push_scope();
                for s in stmts {
                    self.stmt(s)?;
                }
                self.pop_scope();
                Ok(())
            }
            StmtKind::Empty => Ok(()),
        }
    }

    /// Exits every loop a `return` leaves.
    fn leave_loops(&mut self) {
        for _ in 0..self.loops.len() {
            self.emit(Insn::LoopExit);
        }
    }

    fn scoped_stmt(&mut self, stmt: &'a Stmt) -> Result<(), LowerError> {
        self.push_scope();
        self.stmt(stmt)?;
        self.pop_scope();
        Ok(())
    }

    /// Patches the innermost loop's `break`s to `exit` and `continue`s
    /// to `cont` and closes it.
    fn close_loop(&mut self, exit: Target, cont: Target) {
        let ctx = self.loops.pop().expect("loop ctx");
        for at in ctx.breaks {
            self.patch(at, exit);
        }
        for at in ctx.continues {
            self.patch(at, cont);
        }
    }

    /// Evaluates a condition and emits the jumps taken where it is
    /// false; returns their chain, to be patched. `branch` counts one taken
    /// branch on the first of them, which every lane runs once (an `if`
    /// or `?:`).
    fn branch_unless(&mut self, cond: &'a Expr, branch: bool) -> Result<u32, LowerError> {
        let mut branch = branch;
        self.cond_jumps(cond, false, &mut branch, NO_JUMP)
    }

    /// Emits jumps taken where `cond` evaluates to `on`, to a label not
    /// placed yet, and returns them chained onto `chain` (each unpatched
    /// jump's target `pc` holds the next one; see [`Self::patch_chain`]).
    /// `&&`, `||` and `!` become control flow and a scalar comparison is
    /// a jump itself, so no `bool` is materialised for them.
    fn cond_jumps(
        &mut self,
        cond: &'a Expr,
        on: bool,
        branch: &mut bool,
        chain: u32,
    ) -> Result<u32, LowerError> {
        let mark = self.next_slot;
        let to = Target { pc: chain, live: 0 };
        let insn = match &cond.kind {
            ExprKind::Binary(op @ (BinOp::And | BinOp::Or), operands) => {
                // The value of `a` that decides the whole on its own.
                let short = *op == BinOp::Or;
                let [a, b] = &**operands;
                if on == short {
                    let chain = self.cond_jumps(a, on, branch, chain)?;
                    return self.cond_jumps(b, on, branch, chain);
                }
                let skip = self.cond_jumps(a, short, branch, NO_JUMP)?;
                let chain = self.cond_jumps(b, on, branch, chain)?;
                let here = self.here();
                self.patch_chain(skip, here);
                return Ok(chain);
            }
            ExprKind::Unary(UnOp::Not, inner) => return self.cond_jumps(inner, !on, branch, chain),
            ExprKind::Binary(
                op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne),
                operands,
            ) if matches!(
                Shape::of(self.ty(&operands[0]), self.ty(&operands[1])),
                Shape::F(1) | Shape::I
            ) =>
            {
                let [a, b] = &**operands;
                let shape = Shape::of(self.ty(a), self.ty(b));
                let a = self.operand_before(a, &[b])?;
                let b = self.operand(b)?;
                Insn::JumpCmp {
                    op: *op,
                    shape,
                    a,
                    b,
                    on,
                    to,
                    branch: std::mem::take(branch),
                }
            }
            _ => Insn::JumpIf {
                cond: self.operand(cond)?,
                on,
                to,
                branch: std::mem::take(branch),
            },
        };
        self.next_slot = mark;
        Ok(self.emit(insn) as u32)
    }

    /// Points every jump of `chain` at `target`.
    fn patch_chain(&mut self, mut chain: u32, target: Target) {
        while chain != NO_JUMP {
            let t = self.code[chain as usize]
                .jump_target()
                .expect("patching a non-jump");
            chain = t.pc;
            *t = target;
        }
    }

    // ---- expressions -----------------------------------------------------

    /// An expression evaluated for its effects only.
    fn effect(&mut self, e: &'a Expr) -> Result<(), LowerError> {
        let mark = self.next_slot;
        match &e.kind {
            ExprKind::FloatLit(_) | ExprKind::IntLit(_) | ExprKind::BoolLit(_) => {}
            ExprKind::Ident(name) => {
                self.resolve(name)
                    .ok_or_else(|| err(format!("unbound identifier `{name}`")))?;
            }
            ExprKind::Assign(op, lhs, rhs) => {
                self.assign(*op, lhs, rhs)?;
            }
            ExprKind::Unary(
                op @ (UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec),
                inner,
            ) => {
                self.inc_dec(*op, inner, false)?;
            }
            ExprKind::Comma(a, b) => {
                self.effect(a)?;
                self.effect(b)?;
            }
            _ => {
                self.temp_of(e)?;
            }
        }
        self.next_slot = mark;
        Ok(())
    }

    /// Evaluates `e` and returns where its value can be read. Constants,
    /// variables and one component of a global vector are read in place;
    /// anything else is evaluated into a fresh temporary, which stays
    /// allocated until the caller resets `next_slot`.
    fn operand(&mut self, e: &'a Expr) -> Result<Opnd, LowerError> {
        match &e.kind {
            ExprKind::FloatLit(v) => Ok(self.konst(Value::Float(*v))),
            ExprKind::IntLit(v) => Ok(self.konst(Value::Int(*v))),
            ExprKind::BoolLit(v) => Ok(self.konst(Value::Bool(*v))),
            ExprKind::Ident(name) => match self.resolve(name) {
                Some(SlotRef::Local(s)) => Ok(Opnd::Local(s)),
                Some(SlotRef::Global(s)) => Ok(Opnd::Global(s)),
                None => Err(err(format!("unbound identifier `{name}`"))),
            },
            // Negating a literal is exact and uncounted: a constant.
            ExprKind::Unary(UnOp::Neg, inner) => match inner.kind {
                ExprKind::FloatLit(v) => Ok(self.konst(Value::Float(-v))),
                ExprKind::IntLit(v) => Ok(self.konst(Value::Int(v.wrapping_neg()))),
                _ => self.temp_of(e),
            },
            ExprKind::Unary(UnOp::Plus, inner) => self.operand(inner),
            ExprKind::Field(base, field) => {
                if let (ExprKind::Ident(name), Some(_)) = (&base.kind, float_width(self.ty(base))) {
                    if let (Some(SlotRef::Global(g)), ([c, ..], 1)) =
                        (self.resolve(name), swizzle_of(field)?)
                    {
                        return Ok(Opnd::GlobalComp(g, c));
                    }
                }
                self.temp_of(e)
            }
            ExprKind::Assign(op, lhs, rhs) => self.assign(*op, lhs, rhs),
            ExprKind::Unary(
                op @ (UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec),
                inner,
            ) => self.inc_dec(*op, inner, true),
            ExprKind::Comma(a, b) => {
                self.effect(a)?;
                self.operand(b)
            }
            _ => self.temp_of(e),
        }
    }

    /// Evaluates `e` into the next free slot, which stays allocated.
    fn temp_of(&mut self, e: &'a Expr) -> Result<Opnd, LowerError> {
        let t = self.next_slot;
        self.expr_into(e, t)?;
        self.claim(t);
        Ok(Opnd::Local(t))
    }

    /// [`Self::operand`] of `e`, copied to a temporary when it is read in
    /// place and `later` — evaluated before the reading instruction runs
    /// — may write it.
    fn operand_before(&mut self, e: &'a Expr, later: &[&'a Expr]) -> Result<Opnd, LowerError> {
        let o = self.operand(e)?;
        Ok(self.stable(o, later.iter().any(|l| self.has_effects(l))))
    }

    /// `o`, or a temporary copy of it when `copy` and it is read in place
    /// from a variable (a temporary is read by its one consumer only).
    fn stable(&mut self, o: Opnd, copy: bool) -> Opnd {
        let locals_end = self.locals.last().map_or(0, |&(_, s)| s + 1);
        let variable = match o {
            Opnd::Const(_) => false,
            Opnd::Local(s) => s < locals_end,
            Opnd::Global(_) | Opnd::GlobalComp(..) => true,
        };
        if !copy || !variable {
            return o;
        }
        let t = self.alloc_slot();
        self.emit(Insn::Move { dst: t, src: o });
        Opnd::Local(t)
    }

    /// Whether evaluating `e` may write a variable: an assignment, `++`,
    /// `--` or a user function call anywhere inside it.
    fn has_effects(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::FloatLit(_)
            | ExprKind::IntLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Ident(_) => false,
            ExprKind::Assign(..) => true,
            ExprKind::Unary(op, inner) => {
                matches!(
                    op,
                    UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec
                ) || self.has_effects(inner)
            }
            ExprKind::Binary(_, operands) => operands.iter().any(|o| self.has_effects(o)),
            ExprKind::Ternary(c, a, b) => {
                self.has_effects(c) || self.has_effects(a) || self.has_effects(b)
            }
            ExprKind::Call(_, args) => {
                self.callees
                    .get(e.id as usize)
                    .is_some_and(|&c| c != NO_DEF)
                    || args.iter().any(|a| self.has_effects(a))
            }
            ExprKind::Field(base, _) => self.has_effects(base),
            ExprKind::Index(a, b) | ExprKind::Comma(a, b) => {
                self.has_effects(a) || self.has_effects(b)
            }
        }
    }

    /// Evaluates `e` into frame slot `dst`, which nothing reads by name
    /// while `e` runs: a declaration's slot, an allocated temporary, a
    /// variable whose every read in `e` precedes the one write to it, or
    /// the next free slot, which the evaluation may use as scratch before
    /// it writes the value (the caller claims it after).
    fn expr_into(&mut self, e: &'a Expr, dst: u32) -> Result<(), LowerError> {
        let mark = self.next_slot;
        match &e.kind {
            ExprKind::Binary(op @ (BinOp::And | BinOp::Or), operands) => {
                // `a && b` is `a ? b : false`, `a || b` is `a ? true : b`;
                // `dst` holds `a` for the lanes that jump, so `b` is
                // evaluated above it.
                let [a, b] = &**operands;
                self.expr_into(a, dst)?;
                let live = mark.max(dst + 1);
                self.claim(live - 1);
                let to_end = self.emit(Insn::JumpIf {
                    cond: Opnd::Local(dst),
                    on: *op == BinOp::Or,
                    to: Target::default(),
                    branch: false,
                });
                self.expr_into(b, dst)?;
                let end = self.label_here(live);
                self.patch(to_end, end);
            }
            ExprKind::Binary(op, operands) => {
                let [a, b] = &**operands;
                let shape = Shape::of(self.ty(a), self.ty(b));
                let a = self.operand_before(a, &[b])?;
                let b = self.operand(b)?;
                self.emit(Insn::Binary {
                    op: *op,
                    shape,
                    dst,
                    a,
                    b,
                });
            }
            ExprKind::Unary(UnOp::Neg, inner) if !is_literal(inner) => {
                let shape = Shape::unary(self.ty(inner));
                let a = self.operand(inner)?;
                self.emit(Insn::Neg { shape, dst, a });
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let a = self.operand(inner)?;
                self.emit(Insn::Not { dst, a });
            }
            ExprKind::Unary(UnOp::Plus, inner) => self.expr_into(inner, dst)?,
            ExprKind::Ternary(cond, yes, no) if is_leaf(yes) && is_leaf(no) => {
                // Both arms are read in place and count nothing: pick per
                // lane, without a branch.
                let c = self.operand(cond)?;
                let (a, b) = (self.operand(yes)?, self.operand(no)?);
                self.emit(Insn::Select { dst, cond: c, a, b });
            }
            ExprKind::Ternary(cond, yes, no) => {
                // Where `dst` is the next free slot, it is not live at the
                // else arm: the arm that runs first owns it.
                let to_else = self.branch_unless(cond, true)?;
                self.expr_into(yes, dst)?;
                let to_end = self.emit(Insn::Jump(Target::default()));
                let else_at = self.here();
                self.patch_chain(to_else, else_at);
                self.expr_into(no, dst)?;
                let end = self.label_here(mark.max(dst + 1));
                self.patch(to_end, end);
            }
            ExprKind::Call(name, args) => self.call(e.id, name, args, dst)?,
            ExprKind::Field(base, field) => {
                let src = self.operand(base)?;
                let (idx, len) = swizzle_of(field)?;
                match src {
                    Opnd::Global(g) if len == 1 && float_width(self.ty(base)).is_some() => {
                        self.emit(Insn::Move {
                            dst,
                            src: Opnd::GlobalComp(g, idx[0]),
                        });
                    }
                    src => {
                        self.emit(Insn::Swizzle { dst, src, idx, len });
                    }
                }
            }
            ExprKind::Index(base, index) => {
                let base = self.operand_before(base, &[index])?;
                let index = self.operand(index)?;
                self.emit(Insn::Index { dst, base, index });
            }
            ExprKind::Comma(a, b) => {
                self.effect(a)?;
                self.expr_into(b, dst)?;
            }
            // Leaves, negated literals, assignments and `++`/`--`: their
            // value has a place of its own.
            _ => {
                let src = self.operand(e)?;
                if src != Opnd::Local(dst) {
                    self.emit(Insn::Move { dst, src });
                }
            }
        }
        self.next_slot = mark;
        Ok(())
    }

    /// `lhs op= rhs`, returning where the assigned value can be read.
    /// Like the interpreter: `rhs` first, then the place `lhs` names,
    /// then (compound) its current value read through the place, then
    /// the store through it.
    fn assign(&mut self, op: AssignOp, lhs: &'a Expr, rhs: &'a Expr) -> Result<Opnd, LowerError> {
        let bin = compound_op(op);
        if let ExprKind::Ident(name) = &lhs.kind {
            let root = self
                .resolve(name)
                .ok_or_else(|| err(format!("unbound assignment target `{name}`")))?;
            match (root, bin) {
                (SlotRef::Local(x), None) => {
                    if writes_last(rhs) {
                        self.expr_into(rhs, x)?;
                    } else {
                        let v = self.operand(rhs)?;
                        if v != Opnd::Local(x) {
                            self.emit(Insn::Move { dst: x, src: v });
                        }
                    }
                    return Ok(Opnd::Local(x));
                }
                (SlotRef::Local(x), Some(op)) => {
                    let shape = Shape::of(self.ty(lhs), self.ty(rhs));
                    let b = self.operand(rhs)?;
                    self.emit(Insn::Binary {
                        op,
                        shape,
                        dst: x,
                        a: Opnd::Local(x),
                        b,
                    });
                    return Ok(Opnd::Local(x));
                }
                _ => {}
            }
        }
        let v = self.operand(rhs)?;
        let v = self.stable(v, self.has_effects(lhs));
        let place = self.place(lhs, None)?;
        let v = match bin {
            Some(op) => {
                let shape = Shape::of(self.ty(lhs), self.ty(rhs));
                let cur = self.alloc_slot();
                self.load(place, cur);
                self.emit(Insn::Binary {
                    op,
                    shape,
                    dst: cur,
                    a: Opnd::Local(cur),
                    b: v,
                });
                Opnd::Local(cur)
            }
            None => v,
        };
        Ok(self.store(place, v))
    }

    /// `++`/`--` on `inner`; returns where the expression's value (the
    /// new one for a prefix, the old one for a postfix operator) can be
    /// read when `want_value`.
    fn inc_dec(&mut self, op: UnOp, inner: &'a Expr, want_value: bool) -> Result<Opnd, LowerError> {
        let ty = self.ty(inner);
        let one = match ty.scalar() {
            Some(Scalar::Int) => self.konst(Value::Int(1)),
            _ => self.konst(Value::Float(1.0)),
        };
        let one_ty = if ty.scalar() == Some(Scalar::Int) {
            Type::Int
        } else {
            Type::Float
        };
        let shape = Shape::of(ty, &one_ty);
        let bin = if matches!(op, UnOp::PreInc | UnOp::PostInc) {
            BinOp::Add
        } else {
            BinOp::Sub
        };
        let post = matches!(op, UnOp::PostInc | UnOp::PostDec);
        if let ExprKind::Ident(name) = &inner.kind {
            if let Some(SlotRef::Local(x)) = self.resolve(name) {
                let old = if post && want_value {
                    self.stable(Opnd::Local(x), true)
                } else {
                    Opnd::Local(x)
                };
                self.emit(Insn::Binary {
                    op: bin,
                    shape,
                    dst: x,
                    a: Opnd::Local(x),
                    b: one,
                });
                return Ok(if post { old } else { Opnd::Local(x) });
            }
        }
        let place = self.place(inner, None)?;
        let old = self.alloc_slot();
        self.load(place, old);
        let new = self.alloc_slot();
        self.emit(Insn::Binary {
            op: bin,
            shape,
            dst: new,
            a: Opnd::Local(old),
            b: one,
        });
        self.store(place, Opnd::Local(new));
        Ok(Opnd::Local(if post { old } else { new }))
    }

    /// Evaluates the index expressions of lvalue `lhs`, once and
    /// outermost first, into the operands a read through the place and
    /// the store to it share. With `kept`, each index that is no
    /// constant is copied to slot `kept + k` for the `k`-th index, which
    /// the caller reserved, so it survives what runs before the store.
    fn place(&mut self, lhs: &'a Expr, kept: Option<u32>) -> Result<Place, LowerError> {
        let (root_name, path, index_exprs) =
            lvalue_path(lhs).ok_or_else(|| err("assignment target is not an lvalue"))?;
        let root = self
            .resolve(root_name)
            .ok_or_else(|| err(format!("unbound assignment target `{root_name}`")))?;
        if path.is_empty() {
            let color = root_name == "gl_FragColor";
            return Ok(Place::Whole { root, color });
        }
        // Typing bounds a path at three indexed steps (an array of
        // matrices).
        let mut indices = [Opnd::Const(0); 8];
        for k in (0..index_exprs.len()).rev() {
            let e = index_exprs[k];
            indices[k] = match kept {
                None => self.operand_before(e, &index_exprs[..k])?,
                Some(first) => match self.operand(e)? {
                    o @ Opnd::Const(_) => o,
                    o => {
                        let slot = first + k as u32;
                        self.emit(Insn::Move { dst: slot, src: o });
                        Opnd::Local(slot)
                    }
                },
            };
        }
        let n_index = index_exprs.len();
        let at = self.lo.operands.len() as u32;
        self.lo.operands.extend_from_slice(&indices[..n_index]);
        let def = self.lo.stores.len() as u32;
        self.lo.stores.push(StoreDef {
            root,
            path: path.into_boxed_slice(),
            indices: at,
            n_index: n_index as u8,
            wrote_color: root_name == "gl_FragColor",
            wrote_data: root_name == "gl_FragData",
        });
        Ok(Place::Path(def))
    }

    /// Reads the value at `place` into `dst`, a temporary, as
    /// [`Self::expr_into`] reads the lvalue, over the place's index
    /// operands.
    fn load(&mut self, place: Place, dst: u32) {
        let (root, def) = match place {
            Place::Whole { root, .. } => (root, None),
            Place::Path(def) => {
                let def = &self.lo.stores[def as usize];
                (def.root, Some(def))
            }
        };
        let mut src = match root {
            SlotRef::Local(s) => Opnd::Local(s),
            SlotRef::Global(g) => Opnd::Global(g),
        };
        let Some(def) = def else {
            self.emit(Insn::Move { dst, src });
            return;
        };
        let mut indices = self.lo.operands[def.indices as usize..].iter();
        for step in &def.path {
            self.code.push(match (*step, src) {
                (PathStep::Swizzle { idx, len: 1 }, Opnd::Global(g))
                    if float_width(&self.lo.globals[g as usize]).is_some() =>
                {
                    Insn::Move {
                        dst,
                        src: Opnd::GlobalComp(g, idx[0]),
                    }
                }
                (PathStep::Swizzle { idx, len }, src) => Insn::Swizzle { dst, src, idx, len },
                (PathStep::Index, base) => Insn::Index {
                    dst,
                    base,
                    index: *indices.next().expect("an index operand per step"),
                },
            });
            src = Opnd::Local(dst);
        }
    }

    /// Stores `src` through `place`; returns where the stored value can
    /// be read.
    fn store(&mut self, place: Place, src: Opnd) -> Opnd {
        match place {
            Place::Whole {
                root: SlotRef::Local(x),
                ..
            } => {
                if src != Opnd::Local(x) {
                    self.emit(Insn::Move { dst: x, src });
                }
                Opnd::Local(x)
            }
            Place::Whole {
                root: SlotRef::Global(slot),
                color,
            } => {
                self.emit(Insn::StoreGlobal { slot, src, color });
                Opnd::Global(slot)
            }
            Place::Path(def) => {
                self.emit(Insn::Store { def, src });
                src
            }
        }
    }

    /// Lowers call `id`, whose value goes to `dst`, to the callee the
    /// checker resolved: a user definition, else the builtin that takes
    /// the argument types.
    fn call(
        &mut self,
        id: u32,
        name: &'a Name,
        args: &'a [Expr],
        dst: u32,
    ) -> Result<(), LowerError> {
        if let Some(&overload) = self.callees.get(id as usize).filter(|&&c| c != NO_DEF) {
            // Sema refuses a reachable call to a function never defined.
            return self.call_user(self.lo.overload_defs[overload as usize], args, dst);
        }
        let base = self.lo.arg_types.len();
        for a in args {
            let ty = self.ty(a).clone();
            self.lo.arg_types.push(ty);
        }
        let builtin = BuiltinId::from_name(name)
            .filter(|_| builtins::signature(name, &self.lo.arg_types[base..]).is_some());
        // The SoA fast paths take float, int and sampler arguments.
        let arg_types = &self.lo.arg_types[base..];
        let shape = if arg_types
            .iter()
            .all(|t| float_width(t).is_some() || matches!(t, Type::Int | Type::Sampler2D))
        {
            arg_types
                .first()
                .and_then(float_width)
                .map_or(Shape::I, Shape::F)
        } else {
            Shape::Any
        };
        self.lo.arg_types.truncate(base);
        let id = builtin.ok_or_else(|| err(format!("`{name}` is no builtin")))?;
        self.call_builtin(id, shape, args, dst)
    }

    fn call_builtin(
        &mut self,
        id: BuiltinId,
        shape: Shape,
        args: &'a [Expr],
        dst: u32,
    ) -> Result<(), LowerError> {
        let base = self.lo.arg_operands.len();
        for (i, a) in args.iter().enumerate() {
            let later = args[i + 1..].iter().any(|l| self.has_effects(l));
            let o = self.operand(a)?;
            let o = self.stable(o, later);
            self.lo.arg_operands.push(o);
        }
        let at = self.lo.operands.len() as u32;
        let Lowerer {
            operands,
            arg_operands,
            ..
        } = &mut *self.lo;
        operands.extend(arg_operands.drain(base..));
        self.emit(Insn::Builtin {
            id,
            shape,
            dst,
            args: at,
            // Sema refuses a call of more than 255 arguments.
            argc: args.len() as u8,
        });
        Ok(())
    }

    /// A user call: the arguments are evaluated straight into the
    /// callee's parameter slots, at the top of the live frame, then the
    /// callee's body is spliced in; `out` and `inout` parameters are
    /// stored back in parameter order after the return, before the value
    /// is (as the interpreter does), through the places their arguments
    /// named when evaluated. An `in` parameter the body never writes,
    /// whose argument is a constant, a caller frame slot or a read-only
    /// global, is read where the argument lives.
    fn call_user(&mut self, def: u32, args: &'a [Expr], dst: u32) -> Result<(), LowerError> {
        let Def { ast: f, index, .. } = self.lo.defs[def as usize];
        let func = index.expect("a callee lowered before its caller");
        let has_outs = f
            .params
            .iter()
            .any(|p| matches!(p.qual, ParamQual::Out | ParamQual::InOut));
        // With out parameters, the value waits in a temporary of its own
        // until they are stored back (one of them may be `dst`).
        let ret = if has_outs { self.alloc_slot() } else { dst };
        if ret >= self.next_slot {
            self.claim(ret);
        }
        // The index operands of `out` and `inout` arguments wait below
        // the callee's frame until the store back: the later arguments
        // and the callee may write the variables they were read from.
        let mut kept = self.next_slot;
        let reserved: u32 = (f.params.iter().zip(args))
            .filter(|(p, _)| p.qual != ParamQual::In)
            .map(|(_, a)| index_steps(a))
            .sum();
        if reserved > 0 {
            self.claim(kept + reserved - 1);
        }
        // Each argument is evaluated into the next free slot, except a
        // constant or variable, which may be read where it lives.
        let base = self.next_slot;
        let first = self.lo.arg_operands.len();
        let places = self.lo.places.len();
        for (i, (a, p)) in args.iter().zip(&f.params).enumerate() {
            let slot = base + i as u32;
            // Where an `out` or `inout` argument is stored back: its
            // indices are evaluated here, once.
            let place = if p.qual == ParamQual::In {
                None
            } else {
                let place = self.place(a, Some(kept))?;
                kept += index_steps(a);
                self.lo.places.push(place);
                Some(place)
            };
            let o = if is_leaf(a) {
                let later = args[i + 1..].iter().any(|l| self.has_effects(l));
                let o = self.operand(a)?;
                self.stable(o, later)
            } else if let Some(place) = place {
                if p.qual == ParamQual::InOut {
                    self.load(place, slot);
                }
                Opnd::Local(slot)
            } else {
                self.expr_into(a, slot)?;
                Opnd::Local(slot)
            };
            self.claim(slot);
            self.lo.arg_operands.push(o);
        }
        let live = self.next_slot;
        let written = self.lo.written[func as usize];
        for (i, p) in f.params.iter().enumerate() {
            let slot = base + i as u32;
            let o = self.lo.arg_operands[first + i];
            let in_place = p.qual == ParamQual::In
                && written[i / 64] & 1 << (i % 64) == 0
                && match o {
                    Opnd::Const(_) => true,
                    Opnd::Local(s) => s != ret,
                    Opnd::Global(g) => self.lo.read_only[g as usize],
                    Opnd::GlobalComp(..) => false,
                };
            if in_place {
                continue;
            }
            let src = match p.qual {
                ParamQual::Out => self.konst(Value::zero_of(&p.ty)),
                ParamQual::In | ParamQual::InOut => o,
            };
            if src != Opnd::Local(slot) {
                self.emit(Insn::Move { dst: slot, src });
            }
            self.lo.arg_operands[first + i] = Opnd::Local(slot);
        }
        self.emit(Insn::Enter);
        let value = (f.ret != Type::Void).then_some(ret);
        self.splice(func, base, value, if has_outs { live } else { base }, first);
        self.lo.arg_operands.truncate(first);
        if has_outs {
            let mut next = places;
            for (i, p) in f.params.iter().enumerate() {
                if p.qual != ParamQual::In {
                    let place = self.lo.places[next];
                    next += 1;
                    self.store(place, Opnd::Local(base + i as u32));
                }
            }
            self.lo.places.truncate(places);
            self.emit(Insn::Move {
                dst,
                src: Opnd::Local(ret),
            });
        }
        Ok(())
    }

    /// Copies function `func`'s lowered body to the end of the chunk, its
    /// frame based at slot `base`. A parameter slot `i` reads
    /// `arg_operands[params + i]` instead; each return writes `ret`
    /// (nothing, for a `void` function) and leaves for the exit, where
    /// `exit_live` slots are live.
    fn splice(&mut self, func: u32, base: u32, ret: Option<u32>, exit_live: u32, params: usize) {
        let Lowerer {
            bodies,
            operands,
            stores,
            arg_operands,
            pc_map,
            ..
        } = &mut *self.lo;
        let body = bodies[func as usize].as_ref().expect("a lowered body");
        let params = &arg_operands[params..];
        let opnd = |o: Opnd| match o {
            Opnd::Local(s) if (s as usize) < params.len() => params[s as usize],
            Opnd::Local(s) => Opnd::Local(s + base),
            o => o,
        };
        let n = body.code.len();
        pc_map.clear();
        let mut pc = self.code.len() as u32;
        for (p, insn) in body.code.iter().enumerate() {
            pc_map.push(pc);
            pc += match insn {
                Insn::Ret { fused, .. } => {
                    u32::from(ret.is_some() && !fused) + u32::from(p + 1 < n)
                }
                _ => 1,
            };
        }
        let exit = pc;
        pc_map.push(exit);
        let start = self.code.len() as u32;
        let target = |t: Target| {
            let pc = pc_map[t.pc as usize];
            Target {
                pc,
                live: if pc == exit { exit_live } else { t.live + base },
            }
        };
        let mut copy = |at: u32, n: usize| {
            let range = at as usize..at as usize + n;
            if !operands[range.clone()]
                .iter()
                .any(|o| matches!(o, Opnd::Local(_)))
            {
                return at;
            }
            let copied = operands.len() as u32;
            for k in range {
                operands.push(opnd(operands[k]));
            }
            copied
        };
        for (p, &insn) in body.code.iter().enumerate() {
            let mut insn = insn;
            match &mut insn {
                Insn::Ret { value, fused } => {
                    if let Some(d) = ret {
                        if *fused {
                            let last = self.code.iter_mut().rev().find(|i| **i != Insn::LoopExit);
                            *last
                                .and_then(Insn::dst_mut)
                                .expect("a fused return's value") = d;
                        } else {
                            self.code.push(Insn::Move {
                                dst: d,
                                src: opnd(*value),
                            });
                        }
                    }
                    if p + 1 < n {
                        self.code.push(Insn::Jump(Target {
                            pc: exit,
                            live: exit_live,
                        }));
                    }
                    continue;
                }
                Insn::Move { dst, src } => {
                    *dst += base;
                    *src = opnd(*src);
                }
                Insn::Binary { dst, a, b, .. } => {
                    *dst += base;
                    (*a, *b) = (opnd(*a), opnd(*b));
                }
                Insn::Neg { dst, a, .. } | Insn::Not { dst, a } => {
                    *dst += base;
                    *a = opnd(*a);
                }
                Insn::Select { dst, cond, a, b } => {
                    *dst += base;
                    (*cond, *a, *b) = (opnd(*cond), opnd(*a), opnd(*b));
                }
                Insn::Swizzle { dst, src, .. } => {
                    *dst += base;
                    *src = opnd(*src);
                }
                Insn::Index {
                    dst,
                    base: b,
                    index,
                } => {
                    *dst += base;
                    (*b, *index) = (opnd(*b), opnd(*index));
                }
                Insn::Builtin {
                    dst, args, argc, ..
                } => {
                    *dst += base;
                    *args = copy(*args, *argc as usize);
                }
                Insn::StoreGlobal { src, .. } => *src = opnd(*src),
                Insn::Store { def, src } => {
                    let mut store = stores[*def as usize].clone();
                    if let SlotRef::Local(r) = &mut store.root {
                        *r += base;
                    }
                    store.indices = copy(store.indices, store.n_index as usize);
                    *def = stores.len() as u32;
                    stores.push(store);
                    *src = opnd(*src);
                }
                Insn::Jump(t) => *t = target(*t),
                Insn::JumpCmp { a, b, to, .. } => {
                    (*a, *b) = (opnd(*a), opnd(*b));
                    *to = target(*to);
                }
                Insn::JumpIf { cond, to, .. } => {
                    *cond = opnd(*cond);
                    *to = target(*to);
                }
                Insn::Enter
                | Insn::LoopEnter
                | Insn::LoopIter { .. }
                | Insn::LoopExit
                | Insn::Discard
                | Insn::ErrDiscardInFunction
                | Insn::ErrNoReturn(_)
                | Insn::Halt => {}
            }
            self.code.push(insn);
        }
        debug_assert_eq!(self.code.len() as u32, exit);
        if self.code[start as usize..]
            .iter()
            .any(|i| i.target().is_some_and(|t| t.pc == exit))
        {
            self.label = exit;
        }
        for s in &body.splices {
            self.splices.push(Splice {
                start: pc_map[s.start as usize],
                end: pc_map[s.end as usize],
                dst: s.dst + base,
            });
        }
        if let Some(dst) = ret {
            self.splices.push(Splice {
                start,
                end: exit,
                dst,
            });
        }
        self.frame_size = self.frame_size.max(base + body.frame_size);
    }
}

/// The parameter slots of a `params`-slot-or-more body that one of its
/// instructions writes, as a bit set over the first 256 slots.
fn written_params(body: &Chunk, stores: &[StoreDef]) -> [u64; 4] {
    let mut written = [0u64; 4];
    let mut mark = |s: u32| {
        if s < 256 {
            written[s as usize / 64] |= 1 << (s % 64);
        }
    };
    for insn in &body.code {
        match insn {
            Insn::Store { def, .. } => {
                if let SlotRef::Local(r) = stores[*def as usize].root {
                    mark(r);
                }
            }
            insn => {
                if let Some(d) = insn.dst() {
                    mark(d);
                }
            }
        }
    }
    written
}

/// Whether `e`, evaluated into a variable's own slot, writes it only as
/// its last step, after every read of it: no `?:`, `&&` or `||`, whose
/// arms write the destination, at its root.
fn writes_last(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Binary(op, _) => !matches!(op, BinOp::And | BinOp::Or),
        ExprKind::Unary(UnOp::Neg | UnOp::Not, _) | ExprKind::Field(..) | ExprKind::Index(..) => {
            true
        }
        ExprKind::Call(..) => true,
        _ => false,
    }
}

/// The `Index` steps of lvalue `e`.
fn index_steps(e: &Expr) -> u32 {
    match &e.kind {
        ExprKind::Field(base, _) => index_steps(base),
        ExprKind::Index(base, _) => 1 + index_steps(base),
        _ => 0,
    }
}

/// Whether `e` is a constant or a variable: reading it counts nothing
/// and cannot fail.
fn is_leaf(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::FloatLit(_) | ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::Ident(_) => {
            true
        }
        ExprKind::Unary(UnOp::Neg, inner) => is_literal(inner),
        _ => false,
    }
}

fn is_literal(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::FloatLit(_) | ExprKind::IntLit(_))
}

pub(crate) fn compound_op(op: AssignOp) -> Option<BinOp> {
    match op {
        AssignOp::Assign => None,
        AssignOp::AddAssign => Some(BinOp::Add),
        AssignOp::SubAssign => Some(BinOp::Sub),
        AssignOp::MulAssign => Some(BinOp::Mul),
        AssignOp::DivAssign => Some(BinOp::Div),
    }
}

fn swizzle_of(field: &str) -> Result<([u8; 4], u8), LowerError> {
    let indices =
        swizzle_indices(field).ok_or_else(|| err(format!("invalid swizzle `.{field}`")))?;
    let mut idx = [0u8; 4];
    for (slot, &i) in idx.iter_mut().zip(&indices) {
        *slot = i as u8;
    }
    Ok((idx, indices.len() as u8))
}

/// The end of a chain of jumps to patch (see `ChunkCompiler::cond_jumps`).
const NO_JUMP: u32 = u32::MAX;

/// Decomposes an lvalue into its root identifier, its accessor path
/// (root-outward order) and the index expression of each `Index` step;
/// `None` for no lvalue. Both executors evaluate the index expressions
/// once, outermost first, and read and write through the result.
pub(crate) fn lvalue_path(e: &Expr) -> Option<(&str, Vec<PathStep>, Vec<&Expr>)> {
    match &e.kind {
        ExprKind::Ident(name) => Some((name, Vec::new(), Vec::new())),
        ExprKind::Field(base, field) => {
            let (root, mut path, indices) = lvalue_path(base)?;
            let (idx, len) = swizzle_of(field).ok()?;
            path.push(PathStep::Swizzle { idx, len });
            Some((root, path, indices))
        }
        ExprKind::Index(base, index) => {
            let (root, mut path, mut indices) = lvalue_path(base)?;
            path.push(PathStep::Index);
            indices.push(&**index);
            Some((root, path, indices))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::{check, MAX_SPLICED_NODES};

    fn lower_src(src: &str) -> Executable {
        let shader = check(ShaderKind::Fragment, parse(src).expect("parse")).expect("check");
        lower(&shader).expect("lower")
    }

    const P: &str = "precision highp float;\n";

    #[test]
    fn lowers_trivial_shader() {
        let exe = lower_src(&format!("{P}void main() {{ gl_FragColor = vec4(1.0); }}"));
        assert!(exe.global_slot("gl_FragColor").is_some());
        assert!(exe.code_len() > 0);
        assert_eq!(exe.kind(), ShaderKind::Fragment);
    }

    #[test]
    fn globals_get_distinct_slots() {
        let exe = lower_src(&format!(
            "{P}uniform float u_a;\nuniform vec2 u_b;\nvarying vec3 v_c;\n\
             void main() {{ gl_FragColor = vec4(v_c * u_a, u_b.x); }}"
        ));
        let a = exe.global_slot("u_a").expect("u_a");
        let b = exe.global_slot("u_b").expect("u_b");
        let c = exe.global_slot("v_c").expect("v_c");
        assert!(a != b && b != c && a != c);
        assert_eq!(exe.global_slot("nope"), None);
    }

    #[test]
    fn local_slots_are_reused_across_scopes() {
        let exe = lower_src(&format!(
            "{P}void main() {{
                {{ float a = 1.0; float b = a; gl_FragColor = vec4(b); }}
                {{ float c = 2.0; gl_FragColor = vec4(c); }}
            }}"
        ));
        let main = &exe.main;
        // Two locals and the constructor's temporary in the first block;
        // the second reuses them.
        assert!(main.frame_size <= 3, "frame_size = {}", main.frame_size);
    }

    /// Calls a chunk enters by splicing.
    fn entered(code: &[Insn]) -> usize {
        count(code, |i| matches!(i, Insn::Enter))
    }

    fn count(code: &[Insn], f: fn(&Insn) -> bool) -> usize {
        code.iter().filter(|i| f(i)).count()
    }

    /// Operands are read where they live — a constant, a global, one
    /// component of a global, a frame slot — and every call resolves to
    /// its callee by the checker's argument types, overloads and user
    /// functions named like a builtin included. A user call is spliced:
    /// its body reads the caller's variable in place and its return
    /// writes the call's destination, with no call or return left.
    #[test]
    fn lowering_reads_operands_in_place_and_resolves_calls() {
        let exe = lower_src(&format!(
            "{P}uniform float u;\n\
             float twice(float v) {{ return v * 2.0; }}\n\
             void main() {{
                float x = u + 0.5;
                float y = x * (u > 1.0 ? 1.0 : 2.0) - x;
                gl_FragColor = vec4(twice(y), floor(x), gl_FragCoord.y, 1.0);
             }}"
        ));
        let main = &exe.main.code;
        let u = exe.global_slot("u").expect("u");
        let coord = exe.global_slot("gl_FragCoord").expect("gl_FragCoord");
        // `u + 0.5` is evaluated straight into `x`'s slot.
        assert!(matches!(
            main[0],
            Insn::Binary {
                op: BinOp::Add,
                shape: Shape::F(1),
                dst: 0,
                a: Opnd::Global(g),
                b: Opnd::Const(_),
            } if g == u
        ));
        // The `?:`, whose arms are constants, is a per-lane select into
        // the slot `y` will take, which the `*` reads; `- x` reads `x` in
        // place.
        assert!(main.iter().any(|i| matches!(
            i,
            Insn::Select {
                dst: 1,
                a: Opnd::Const(_),
                b: Opnd::Const(_),
                ..
            }
        )));
        assert!(main.iter().any(|i| matches!(
            i,
            Insn::Binary {
                op: BinOp::Mul,
                a: Opnd::Local(0),
                b: Opnd::Local(1),
                ..
            }
        )));
        assert!(main.iter().any(|i| matches!(
            i,
            Insn::Binary {
                op: BinOp::Sub,
                dst: 1,
                b: Opnd::Local(0),
                ..
            }
        )));
        assert_eq!(count(main, |i| matches!(i, Insn::Ret { .. })), 0);
        assert_eq!(entered(main), 1);
        assert_eq!(
            count(main, |i| matches!(
                i,
                Insn::Builtin {
                    id: BuiltinId::Floor,
                    argc: 1,
                    ..
                }
            )),
            1
        );
        // `gl_FragCoord.y` is an operand of the `vec4` constructor.
        let Some(&Insn::Builtin { args, argc, .. }) = main.iter().find(|i| {
            matches!(
                i,
                Insn::Builtin {
                    id: BuiltinId::Vec4,
                    ..
                }
            )
        }) else {
            panic!("no vec4 constructor");
        };
        assert_eq!(argc, 4);
        assert_eq!(exe.operands[args as usize + 2], Opnd::GlobalComp(coord, 1));
        // `twice(y)`'s body reads `y` where it lives and writes the
        // constructor's first argument.
        let Opnd::Local(first) = exe.operands[args as usize] else {
            panic!("the call's value is a frame slot");
        };
        assert!(main.iter().any(|i| matches!(
            i,
            Insn::Binary {
                op: BinOp::Mul,
                a: Opnd::Local(1),
                b: Opnd::Const(_),
                dst,
                ..
            } if *dst == first
        )));
        // Same-arity overloads, and a user overload of a builtin name,
        // resolve by argument types: no run-time pick is left.
        let overloads = lower_src(&format!(
            "{P}uniform float u;\n\
             float f(float v) {{ return v; }}\n\
             float f(vec2 v) {{ return v.x; }}\n\
             float floor(int v) {{ return float(v); }}\n\
             void main() {{ gl_FragColor = vec4(f(u) + f(vec2(u)) + floor(int(u))); }}"
        ));
        assert_eq!(entered(&overloads.main.code), 3);
        assert_eq!(overloads.functions.len(), 3);
    }

    /// Lowering reaches functions through calls from `main` and the
    /// global initialisers only; a function nothing calls is not lowered.
    /// The reached ones are spliced into the initialiser and `main`
    /// chunks.
    #[test]
    fn only_reachable_functions_are_lowered() {
        let exe = lower_src(&format!(
            "{P}uniform float u;\n\
             float leaf(float v) {{ return v * 2.0; }}\n\
             float used(float v) {{ return leaf(v) + 1.0; }}\n\
             float init_only(float v) {{ return v - 1.0; }}\n\
             float dead(float v) {{ return leaf(v); }}\n\
             float g = init_only(3.0);\n\
             void f(out float a) {{ a = 1.0; }}\n\
             void f(int a) {{ }}\n\
             void unused() {{ float x; f(x); }}\n\
             void main() {{ gl_FragColor = vec4(used(u) + g); }}"
        ));
        let mut names: Vec<&str> = exe.functions.iter().map(|f| &**f).collect();
        names.sort_unstable();
        assert_eq!(names, ["init_only", "leaf", "used"]);
        assert_eq!(entered(&exe.init.code), 1);
        assert_eq!(entered(&exe.main.code), 2);
    }

    /// A prelude may call a function it only declares, which the source
    /// after it defines: the checker records the call by overload, and
    /// lowering splices the definition the whole shader has.
    #[test]
    fn a_prelude_call_reaches_the_definition_after_it() {
        let text = format!(
            "{P}float hook(float v);\n\
             float twice_hook(float v) {{ return hook(v) * 2.0; }}\n"
        );
        let prelude = std::sync::Arc::new(
            crate::CheckedPrelude::check(ShaderKind::Fragment, text.clone()).expect("prelude"),
        );
        let src = format!(
            "{text}uniform float u;\n\
             float hook(float v) {{ return v + 1.0; }}\n\
             void main() {{ gl_FragColor = vec4(twice_hook(u)); }}"
        );
        let shader =
            crate::admit_after(Some(&prelude), ShaderKind::Fragment, &src).expect("admits");
        assert!(shader.prelude.is_some(), "checked after the prelude");
        let exe = lower(&shader).expect("lower");
        let main = &exe.main.code;
        assert_eq!(entered(main), 2, "twice_hook and hook");
        assert!(main
            .iter()
            .any(|i| matches!(i, Insn::Binary { op: BinOp::Add, .. })));
    }

    /// `f`k calls `f`k-1 twice, from `f0` up to `f{levels}`, which `main`
    /// calls: a source of a line per level that splices into code
    /// exponential in `levels`.
    fn doubling_tree(levels: usize) -> String {
        let mut src = format!("{P}uniform float u;\nfloat f0(float x) {{ return x + 1.0; }}\n");
        for k in 1..=levels {
            let j = k - 1;
            src += &format!("float f{k}(float x) {{ return f{j}(x) + f{j}(x); }}\n");
        }
        src + &format!("void main() {{ gl_FragColor = vec4(f{levels}(u)); }}")
    }

    /// Admission bounds what splicing copies, so the deepest doubling
    /// call tree it admits lowers to its own few instructions per level
    /// plus at most twice [`MAX_SPLICED_NODES`]; one level more is
    /// refused.
    #[test]
    fn the_deepest_doubling_tree_admitted_lowers_within_the_limit() {
        let admit = |levels| crate::admit(ShaderKind::Fragment, &doubling_tree(levels));
        let levels = (1..)
            .find(|&l| admit(l + 1).is_err())
            .expect("a refused depth");
        let err = admit(levels + 1).expect_err("one level deeper");
        assert_eq!(err.stage, crate::AdmissionStage::Sema, "{err}");
        assert!(err.message.contains("expands past"), "{err}");
        let shader = admit(levels).expect("admitted");
        assert!(shader.spliced_nodes() <= MAX_SPLICED_NODES);
        assert!(
            shader.spliced_nodes() > MAX_SPLICED_NODES / 4,
            "{levels} levels"
        );
        let exe = lower(&shader).expect("lower");
        let own = 8 * levels;
        let limit = 2 * MAX_SPLICED_NODES as usize;
        assert!(
            exe.code_len() <= own + limit,
            "{} instructions",
            exe.code_len()
        );
        assert!(exe.operands.len() + exe.stores.len() <= own + limit);
    }

    /// Lowering evaluates the index expressions of an lvalue both read
    /// and written once, so a call in one is spliced once, as the
    /// checker counts it.
    #[test]
    fn a_call_indexing_a_compound_assignment_is_spliced_once() {
        let src = format!(
            "{P}int k(int i) {{ return i; }}\n\
             void main() {{ float a[2]; a[k(0)] += 1.0; a[k(1)] = 2.0; gl_FragColor = vec4(a[0]); }}"
        );
        let shader = check(ShaderKind::Fragment, parse(&src).expect("parse")).expect("check");
        // `k` is one node for the function, its `return` and `i`.
        assert_eq!(shader.spliced_nodes(), 2 * 3);
        assert_eq!(entered(&lower(&shader).expect("lower").main.code), 2);
    }

    /// Lowering evaluates the index expressions of an lvalue both read
    /// and written once, so `i[i[0]++]++` nested `levels` deep lowers to
    /// a few instructions per level plus what splicing copies, in `main`
    /// and in a function called twice, at every depth the parser admits;
    /// [`CompiledShader::spliced_nodes`] stays within twice the lowered
    /// size.
    #[test]
    fn nested_increments_lower_within_their_count() {
        let in_main = |chain: &str| {
            format!(
                "{P}void main() {{ int i[2]; float a[2]; a[{chain}] = 1.0; \
                 gl_FragColor = vec4(a[0]); }}"
            )
        };
        let in_callee = |chain: &str| {
            format!(
                "{P}int f(int x) {{ int i[2]; i[0] = x; return {chain}; }}\n\
                 void main() {{ gl_FragColor = vec4(float(f(1) + f(2))); }}"
            )
        };
        for source in [&in_main as &dyn Fn(&str) -> String, &in_callee] {
            let admit =
                |levels| crate::admit(ShaderKind::Fragment, &source(&nested_increments(levels)));
            let levels = (0..)
                .find(|&l| admit(l + 1).is_err())
                .expect("a refused depth");
            assert!(levels >= 16, "{levels} levels");
            let err = admit(levels + 1).expect_err("one level deeper");
            assert_eq!(err.stage, crate::AdmissionStage::Parse, "{err}");
            for l in 0..=levels {
                let shader = admit(l).expect("admitted");
                let spliced = shader.spliced_nodes() as usize;
                let lowered = lower(&shader).expect("lower").code_len();
                assert!(
                    lowered <= 64 + 4 * l + spliced,
                    "{l} levels: {lowered} > 64 + 4 * {l} + {spliced}"
                );
                assert!(
                    spliced <= 2 * lowered,
                    "{l} levels: {spliced} > 2 * {lowered}"
                );
            }
        }
    }

    /// `i[i[…i[0]++…]++]++`, `levels` deep past the innermost `i[0]++`.
    fn nested_increments(levels: usize) -> String {
        (0..levels).fold("i[0]++".to_string(), |inner, _| format!("i[{inner}]++"))
    }

    #[test]
    fn executable_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Executable>();
    }
}
