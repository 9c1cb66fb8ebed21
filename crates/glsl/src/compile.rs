//! Lowering checked shaders to slot-addressed bytecode.
//!
//! The tree-walking interpreter resolves every variable by string
//! comparison over a scope stack and re-walks the AST for every fragment.
//! This module performs all of that work **once per shader**: a resolver
//! pass assigns every global, parameter and local a numeric slot, and
//! flattens the statement tree into a compact instruction
//! sequence (`Insn`) executed by [`crate::spmd::SpmdVm`].
//!
//! The lowering is deliberately semantics-preserving to the point of
//! being boring: evaluation order, profile counting points, rounding and
//! error messages all mirror `interp.rs` exactly, so the VM can be
//! differentially tested against the tree-walker bit for bit. What it
//! does decide once per shader, so the VM need not per batch: each call's
//! callee (`Insn::CallBuiltin` / `Insn::CallUser` where the AST fixes
//! it), and which operand pushes fold into the `Binary` that consumes
//! them (`fold_operands`). Only the functions reachable from `main` and
//! the global initialisers are lowered — a generated kernel carries a
//! codec library it mostly does not call — while sema has checked them
//! all.

use crate::ast::*;
use crate::builtins::BuiltinId;
use crate::sema::{CompiledShader, ShaderKind};
use crate::span::Span;
use crate::swizzle::swizzle_indices;
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Why a checked shader could not be lowered to bytecode.
///
/// Lowering is total for everything the semantic checker accepts except a
/// few pathological shapes (e.g. same-name function overloads that
/// disagree on `out` parameters); callers fall back to the tree-walking
/// interpreter in that case.
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

/// One step of an lvalue path, walking outward from the root variable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PathStep {
    /// `.xyz` — selector indices (first `len` entries valid).
    Swizzle { idx: [u8; 4], len: u8 },
    /// `[i]` — the index value is taken from the operand stack.
    Index,
}

/// A fully resolved store destination.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreDef {
    /// Root variable.
    pub root: SlotRef,
    /// Accessor path from the root (may be empty for plain assignment).
    pub path: Box<[PathStep]>,
    /// Number of `Index` steps in `path` (operands popped by the store).
    pub n_index: u8,
    /// Whether this store must set the `gl_FragColor`-written flag.
    pub wrote_color: bool,
    /// Whether this store must set the `gl_FragData`-written flag.
    pub wrote_data: bool,
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Insn {
    /// Push constant `consts[i]`.
    Const(u32),
    /// Push a copy of global slot `i`.
    LoadGlobal(u32),
    /// Push a copy of frame slot `i`.
    LoadLocal(u32),
    /// Pop into frame slot `i` (declarations and temporaries only — no
    /// output-flag bookkeeping).
    StoreLocal(u32),
    /// Pop into global slot `i` (global initialiser chunk only).
    StoreGlobalPop(u32),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost values.
    Swap,
    /// Unary negate.
    Neg,
    /// Logical not.
    Not,
    /// Non-short-circuit binary operator (arith/relational/`^^`).
    Binary(BinOp),
    /// `Binary(op)` whose right operand is `consts[c]`, read in place: a
    /// folded `Const(c); Binary(op)`.
    BinaryConst {
        /// Operator.
        op: BinOp,
        /// Constant-pool index of the right operand.
        c: u32,
    },
    /// `Binary(op)` whose right operand is frame slot `s`, read in
    /// place: a folded `LoadLocal(s); Binary(op)`.
    BinaryLocal {
        /// Operator.
        op: BinOp,
        /// Frame slot of the right operand.
        s: u32,
    },
    /// Push `frame[s] op consts[c]`: a folded
    /// `LoadLocal(s); Const(c); Binary(op)`.
    LocalBinaryConst {
        /// Operator.
        op: BinOp,
        /// Frame slot of the left operand.
        s: u32,
        /// Constant-pool index of the right operand.
        c: u32,
    },
    /// Count one taken branch (emitted where the interpreter counts).
    Branch,
    /// Unconditional jump.
    Jump(u32),
    /// Pop a bool; jump if false. Errors on non-bool like `eval_bool`.
    JumpIfFalse(u32),
    /// Pop a bool; jump if true.
    JumpIfTrue(u32),
    /// Call builtin or constructor `id` with `argc` stacked arguments. No
    /// user function of that name takes `argc` arguments, so the callee
    /// is decided at lowering.
    CallBuiltin {
        /// The builtin.
        id: BuiltinId,
        /// Argument count.
        argc: u8,
    },
    /// Call user function `functions[func]`: the only user function of
    /// its name and arity, and the name is no builtin's, so sema's check
    /// already fixed it as the callee. Pushes `out`/`inout` parameter
    /// results (in parameter order) below the return value when
    /// `pushes_outs`.
    CallUser {
        /// Function-table index.
        func: u32,
        /// Whether the call site expects out-parameter values pushed.
        pushes_outs: bool,
    },
    /// A call whose callee depends on the argument types, which the AST
    /// does not record: same-arity user overloads, or a user function
    /// named like a builtin. Tries `builtin` first, if it takes these
    /// argument types, then the user overloads in `candidates` by
    /// runtime argument types.
    Call {
        /// Callee name, an index into [`Executable::names`] (for the
        /// `Unbound` error).
        name: u32,
        /// The builtin of that name, if any.
        builtin: Option<BuiltinId>,
        /// Argument count.
        argc: u8,
        /// Function-table indices of same-name/same-arity user functions.
        candidates: Box<[u32]>,
        /// Whether the call site expects out-parameter values pushed.
        pushes_outs: bool,
    },
    /// Pop a value, add/subtract one (by its scalar category), push the
    /// result — the shared half of `++`/`--`.
    IncDec {
        /// `true` for `++`.
        inc: bool,
    },
    /// Pop a value, push the selected swizzle of it.
    Swizzle {
        /// Selector indices (first `len` valid).
        idx: [u8; 4],
        /// Selector length.
        len: u8,
    },
    /// Pop index then base, push `base[index]`.
    IndexOp,
    /// Pop `n_index` index operands and one value; write through the path.
    Store(Box<StoreDef>),
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
    /// `break`/`continue` escaped a function body (runtime error).
    ErrBreakInFunction,
    /// Return from a user function; the return value is on the stack.
    Ret,
    /// Non-void function `functions[i]` fell off its end (runtime error
    /// citing its name).
    ErrNoReturn(u32),
    /// End the invocation (main / initialiser chunk).
    Halt,
}

impl Insn {
    /// A jump's target instruction; `None` for every other instruction.
    fn jump_target(&mut self) -> Option<&mut u32> {
        match self {
            Insn::Jump(t) | Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t) => Some(t),
            _ => None,
        }
    }
}

/// A compiled instruction sequence plus the frame space it needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Chunk {
    /// Instructions.
    pub code: Vec<Insn>,
    /// Number of frame slots (params + locals + temporaries).
    pub frame_size: u32,
}

/// A lowered user-defined function.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FuncDef {
    /// Source name.
    pub name: Name,
    /// Parameter types and qualifiers, in order (types drive overload
    /// dispatch exactly like the interpreter's runtime-type match).
    pub params: Vec<(Type, ParamQual)>,
    /// Declared return type.
    pub ret: Type,
    /// Body chunk index.
    pub chunk: u32,
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
    /// Callee names of [`Insn::Call`]s (error messages).
    pub(crate) names: Vec<Name>,
    /// Global slot types, in slot order.
    pub(crate) globals: Vec<Type>,
    /// Name → global slot.
    pub(crate) global_index: HashMap<Name, u32>,
    /// Global slots holding plain mutable globals, re-initialised per
    /// invocation.
    pub(crate) reset_slots: Vec<u32>,
    /// All chunks; `chunks[0]` evaluates global initialisers.
    pub(crate) chunks: Vec<Chunk>,
    /// Index of the `main` chunk.
    pub(crate) main_chunk: u32,
    /// Lowered user functions: those reachable from `main` or a global
    /// initialiser, in the order lowering reached them.
    pub(crate) functions: Vec<FuncDef>,
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
        self.chunks.iter().map(|c| c.code.len()).sum()
    }
}

/// Lowers a checked shader into an [`Executable`].
///
/// # Errors
///
/// [`LowerError`] for the few constructs the bytecode tier does not
/// support (see the type's docs); callers should fall back to the
/// tree-walking interpreter.
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

/// A user function definition and, once a call has reached it, its index
/// in the function table.
struct Def<'a> {
    ast: &'a Function,
    index: Option<u32>,
}

struct Lowerer<'a> {
    shader: &'a CompiledShader,
    consts: Vec<Value>,
    /// Pool index of each scalar constant (other values are not shared).
    const_index: HashMap<ConstKey, u32>,
    names: Vec<Name>,
    globals: Vec<Type>,
    global_index: HashMap<Name, u32>,
    reset_slots: Vec<u32>,
    chunks: Vec<Chunk>,
    functions: Vec<FuncDef>,
    /// name → definitions, in source order.
    defs: HashMap<&'a str, Vec<Def<'a>>>,
    /// Reached functions whose bodies are not lowered yet.
    pending: Vec<(u32, &'a Function)>,
    /// The code buffer every chunk is compiled in (chunks are compiled
    /// one at a time), so a chunk's code is allocated once, at its size.
    code_buffer: Vec<Insn>,
    /// Jump-target marks and index remap, reused by every chunk's
    /// [`fold_operands`].
    fold_buffers: (Vec<bool>, Vec<u32>),
}

impl<'a> Lowerer<'a> {
    fn new(shader: &'a CompiledShader) -> Self {
        Lowerer {
            shader,
            consts: Vec::new(),
            const_index: HashMap::new(),
            names: Vec::new(),
            globals: Vec::new(),
            global_index: HashMap::new(),
            reset_slots: Vec::new(),
            chunks: Vec::new(),
            functions: Vec::new(),
            defs: HashMap::new(),
            pending: Vec::new(),
            code_buffer: Vec::new(),
            fold_buffers: (Vec::new(), Vec::new()),
        }
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

    /// The function-table index of `name`'s `k`-th definition, queueing
    /// its body for lowering the first time a call reaches it.
    fn reach(&mut self, name: &str, k: usize) -> u32 {
        let def = &mut self.defs.get_mut(name).expect("a defined name")[k];
        if let Some(index) = def.index {
            return index;
        }
        let f = def.ast;
        let index = self.functions.len() as u32;
        def.index = Some(index);
        self.functions.push(FuncDef {
            name: Name::clone(&f.name),
            params: f.params.iter().map(|p| (p.ty.clone(), p.qual)).collect(),
            ret: f.ret.clone(),
            chunk: 0, // set when the body is lowered
        });
        self.pending.push((index, f));
        index
    }

    fn lower(mut self) -> Result<Executable, LowerError> {
        // Globals: stage builtins first (same order as the interpreter),
        // then declared globals in item order.
        for (name, ty, _) in builtin_globals(self.shader.kind) {
            self.global_index
                .insert(Name::from(name), self.globals.len() as u32);
            self.globals.push(ty);
        }
        for item in self.shader.items() {
            match item {
                Item::Var(decl) => {
                    for var in &decl.vars {
                        let slot = self.globals.len() as u32;
                        self.globals.push(var.ty.clone());
                        self.global_index.insert(Name::clone(&var.name), slot);
                        if decl.storage == Storage::None {
                            self.reset_slots.push(slot);
                        }
                    }
                }
                Item::Function(f) => self.defs.entry(&f.name).or_default().push(Def {
                    ast: f,
                    index: None,
                }),
                _ => {}
            }
        }

        // Chunk 0: global initialisers; then main. Only the functions
        // their calls reach are lowered (sema checked every one).
        let init_chunk = self.lower_init_chunk()?;
        debug_assert_eq!(init_chunk, 0);
        let main = self
            .defs
            .get("main")
            .and_then(|defs| defs.iter().find(|d| d.ast.params.is_empty()))
            .map(|d| d.ast)
            .ok_or_else(|| err("no main() function"))?;
        let main_chunk = self.lower_main(main)?;
        while let Some((index, f)) = self.pending.pop() {
            let chunk = self.lower_function(f, index)?;
            self.functions[index as usize].chunk = chunk;
        }

        Ok(Executable {
            kind: self.shader.kind,
            consts: self.consts,
            names: self.names,
            globals: self.globals,
            global_index: self.global_index,
            reset_slots: self.reset_slots,
            chunks: self.chunks,
            main_chunk,
            functions: self.functions,
        })
    }

    fn lower_init_chunk(&mut self) -> Result<u32, LowerError> {
        // Copy the shader reference out first: it lives for 'a, so the
        // item walk does not conflict with the compiler's &mut borrow
        // (and no AST cloning is needed).
        let shader = self.shader;
        let mut cc = ChunkCompiler::new(self, CompileCx::Init);
        for item in shader.items() {
            if let Item::Var(decl) = item {
                for var in &decl.vars {
                    if let Some(init) = &var.init {
                        cc.expr(init)?;
                    } else {
                        let c = cc.lo.add_const(Value::zero_of(&var.ty));
                        cc.emit(Insn::Const(c));
                    }
                    let slot = cc.lo.global_index[&*var.name];
                    cc.emit(Insn::StoreGlobalPop(slot));
                }
            }
        }
        cc.emit(Insn::Halt);
        Ok(cc.finish())
    }

    fn lower_function(&mut self, f: &'a Function, index: u32) -> Result<u32, LowerError> {
        let ret_void = f.ret == Type::Void;
        let mut cc = ChunkCompiler::new(self, CompileCx::Function);
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
        // Fall-through return.
        if ret_void {
            let dummy = cc.lo.add_const(Value::Float(0.0));
            cc.emit(Insn::Const(dummy));
            cc.emit(Insn::Ret);
        } else {
            cc.emit(Insn::ErrNoReturn(index));
        }
        cc.pop_scope();
        Ok(cc.finish())
    }

    fn lower_main(&mut self, main: &'a Function) -> Result<u32, LowerError> {
        let mut cc = ChunkCompiler::new(self, CompileCx::Main);
        cc.push_scope();
        for stmt in &main.body {
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
    /// Locals in scope with their slots, outermost first.
    locals: Vec<(&'a str, u32)>,
    /// Where each open scope starts in `locals`.
    scope_starts: Vec<usize>,
    next_slot: u32,
    frame_size: u32,
    loops: Vec<LoopCtx>,
    /// Whether the enclosing function returns `void` (Function chunks).
    ret_void: bool,
    /// Function-table index of the enclosing function (Function chunks).
    func: u32,
}

impl<'l, 'a> ChunkCompiler<'l, 'a> {
    fn new(lo: &'l mut Lowerer<'a>, cx: CompileCx) -> Self {
        let code = std::mem::take(&mut lo.code_buffer);
        ChunkCompiler {
            lo,
            cx,
            code,
            locals: Vec::new(),
            scope_starts: Vec::new(),
            next_slot: 0,
            frame_size: 0,
            loops: Vec::new(),
            ret_void: true,
            func: 0,
        }
    }

    fn finish(mut self) -> u32 {
        fold_operands(&mut self.code, &mut self.lo.fold_buffers);
        let idx = self.lo.chunks.len() as u32;
        self.lo.chunks.push(Chunk {
            code: self.code.drain(..).collect(),
            frame_size: self.frame_size,
        });
        self.lo.code_buffer = self.code;
        idx
    }

    fn emit(&mut self, insn: Insn) -> usize {
        self.code.push(insn);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        *self.code[at].jump_target().expect("patching a non-jump") = target;
    }

    // ---- slots & scopes --------------------------------------------------

    fn alloc_slot(&mut self) -> u32 {
        let s = self.next_slot;
        self.next_slot += 1;
        self.frame_size = self.frame_size.max(self.next_slot);
        s
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

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self, stmt: &'a Stmt) -> Result<(), LowerError> {
        match &stmt.kind {
            StmtKind::Expr(e) => self.expr_stmt(e),
            StmtKind::Decl(decl) => {
                for var in &decl.vars {
                    if let Some(init) = &var.init {
                        self.expr(init)?;
                    } else {
                        let c = self.lo.add_const(Value::zero_of(&var.ty));
                        self.emit(Insn::Const(c));
                    }
                    // Resolve the initialiser before the name becomes
                    // visible (matches the interpreter's push-after-eval).
                    let slot = self.alloc_slot();
                    self.declare(&var.name, slot);
                    self.emit(Insn::StoreLocal(slot));
                }
                Ok(())
            }
            StmtKind::If(cond, then, els) => {
                self.emit(Insn::Branch);
                self.expr(cond)?;
                let to_else = self.emit(Insn::JumpIfFalse(0));
                self.scoped_stmt(then)?;
                match els {
                    Some(els) => {
                        let to_end = self.emit(Insn::Jump(0));
                        let else_at = self.here();
                        self.patch(to_else, else_at);
                        self.scoped_stmt(els)?;
                        let end = self.here();
                        self.patch(to_end, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(to_else, end);
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
                    Some(cond) => {
                        self.expr(cond)?;
                        Some(self.emit(Insn::JumpIfFalse(0)))
                    }
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
                    self.expr_stmt(step)?;
                }
                self.emit(Insn::Jump(top));
                let exit = self.here();
                let ctx = self.loops.pop().expect("loop ctx");
                for at in ctx.breaks {
                    self.patch(at, exit);
                }
                for at in ctx.continues {
                    self.patch(at, cont_at);
                }
                if let Some(at) = cond_exit {
                    self.patch(at, exit);
                }
                self.emit(Insn::LoopExit);
                self.pop_scope();
                Ok(())
            }
            StmtKind::While(cond, body) => {
                self.emit(Insn::LoopEnter);
                let top = self.here();
                self.expr(cond)?;
                let cond_exit = self.emit(Insn::JumpIfFalse(0));
                self.emit(Insn::LoopIter { span: stmt.span });
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.scoped_stmt(body)?;
                self.emit(Insn::Jump(top));
                let exit = self.here();
                let ctx = self.loops.pop().expect("loop ctx");
                for at in ctx.breaks {
                    self.patch(at, exit);
                }
                for at in ctx.continues {
                    self.patch(at, top);
                }
                self.patch(cond_exit, exit);
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
                self.expr(cond)?;
                self.emit(Insn::JumpIfTrue(top));
                let exit = self.here();
                let ctx = self.loops.pop().expect("loop ctx");
                for at in ctx.breaks {
                    self.patch(at, exit);
                }
                for at in ctx.continues {
                    self.patch(at, cont_at);
                }
                self.emit(Insn::LoopExit);
                Ok(())
            }
            StmtKind::Return(value) => {
                match self.cx {
                    CompileCx::Function => {
                        // `return;` in a non-void function reproduces the
                        // interpreter's fall-off error; `return e;` pushes
                        // the value.
                        match value {
                            Some(e) => {
                                self.expr(e)?;
                                self.emit(Insn::Ret);
                            }
                            None if self.ret_void => {
                                let dummy = self.lo.add_const(Value::Float(0.0));
                                self.emit(Insn::Const(dummy));
                                self.emit(Insn::Ret);
                            }
                            None => {
                                // `return;` in a non-void function ends
                                // it without a value — same runtime error
                                // as falling off the end.
                                let func = self.func;
                                self.emit(Insn::ErrNoReturn(func));
                            }
                        }
                    }
                    CompileCx::Main | CompileCx::Init => {
                        if let Some(e) = value {
                            self.expr(e)?;
                            self.emit(Insn::Pop);
                        }
                        self.emit(Insn::Halt);
                    }
                }
                Ok(())
            }
            StmtKind::Break => {
                if let Some(_ctx) = self.loops.last() {
                    let at = self.emit(Insn::Jump(0));
                    self.loops.last_mut().expect("loop").breaks.push(at);
                } else if self.cx == CompileCx::Function {
                    self.emit(Insn::ErrBreakInFunction);
                } else {
                    // Break at main's top level ends the invocation
                    // (matches the interpreter's Flow handling).
                    self.emit(Insn::Halt);
                }
                Ok(())
            }
            StmtKind::Continue => {
                if let Some(_ctx) = self.loops.last() {
                    let at = self.emit(Insn::Jump(0));
                    self.loops.last_mut().expect("loop").continues.push(at);
                } else if self.cx == CompileCx::Function {
                    self.emit(Insn::ErrBreakInFunction);
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

    fn scoped_stmt(&mut self, stmt: &'a Stmt) -> Result<(), LowerError> {
        self.push_scope();
        self.stmt(stmt)?;
        self.pop_scope();
        Ok(())
    }

    /// An expression evaluated for effect only: assignments and inc/dec
    /// skip the result duplication, everything else evaluates then pops.
    fn expr_stmt(&mut self, e: &'a Expr) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::Assign(..)
            | ExprKind::Unary(UnOp::PreInc, _)
            | ExprKind::Unary(UnOp::PreDec, _)
            | ExprKind::Unary(UnOp::PostInc, _)
            | ExprKind::Unary(UnOp::PostDec, _) => self.expr_value(e, false),
            ExprKind::Comma(a, b) => {
                self.expr_stmt(a)?;
                self.expr_stmt(b)
            }
            _ => {
                self.expr(e)?;
                self.emit(Insn::Pop);
                Ok(())
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self, e: &'a Expr) -> Result<(), LowerError> {
        self.expr_value(e, true)
    }

    /// Compiles `e`; leaves its value on the stack iff `for_value`.
    fn expr_value(&mut self, e: &'a Expr, for_value: bool) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::FloatLit(v) => {
                let c = self.lo.add_const(Value::Float(*v));
                self.emit(Insn::Const(c));
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::IntLit(v) => {
                let c = self.lo.add_const(Value::Int(*v));
                self.emit(Insn::Const(c));
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::BoolLit(v) => {
                let c = self.lo.add_const(Value::Bool(*v));
                self.emit(Insn::Const(c));
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::Ident(name) => {
                match self.resolve(name) {
                    Some(SlotRef::Local(s)) => self.emit(Insn::LoadLocal(s)),
                    Some(SlotRef::Global(s)) => self.emit(Insn::LoadGlobal(s)),
                    None => return Err(err(format!("unbound identifier `{name}`"))),
                };
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::Binary(op, operands) => {
                let [a, b] = &**operands;
                match op {
                    BinOp::And => {
                        self.expr(a)?;
                        let j1 = self.emit(Insn::JumpIfFalse(0));
                        self.expr(b)?;
                        let j2 = self.emit(Insn::JumpIfFalse(0));
                        let t = self.lo.add_const(Value::Bool(true));
                        self.emit(Insn::Const(t));
                        let to_end = self.emit(Insn::Jump(0));
                        let false_at = self.here();
                        self.patch(j1, false_at);
                        self.patch(j2, false_at);
                        let f = self.lo.add_const(Value::Bool(false));
                        self.emit(Insn::Const(f));
                        let end = self.here();
                        self.patch(to_end, end);
                    }
                    BinOp::Or => {
                        self.expr(a)?;
                        let j1 = self.emit(Insn::JumpIfTrue(0));
                        self.expr(b)?;
                        let j2 = self.emit(Insn::JumpIfTrue(0));
                        let f = self.lo.add_const(Value::Bool(false));
                        self.emit(Insn::Const(f));
                        let to_end = self.emit(Insn::Jump(0));
                        let true_at = self.here();
                        self.patch(j1, true_at);
                        self.patch(j2, true_at);
                        let t = self.lo.add_const(Value::Bool(true));
                        self.emit(Insn::Const(t));
                        let end = self.here();
                        self.patch(to_end, end);
                    }
                    _ => {
                        self.expr(a)?;
                        self.expr(b)?;
                        self.emit(Insn::Binary(*op));
                    }
                }
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::Unary(op, inner) => {
                match op {
                    UnOp::Plus => {
                        self.expr(inner)?;
                        self.discard_if(!for_value);
                    }
                    UnOp::Neg => {
                        self.expr(inner)?;
                        self.emit(Insn::Neg);
                        self.discard_if(!for_value);
                    }
                    UnOp::Not => {
                        self.expr(inner)?;
                        self.emit(Insn::Not);
                        self.discard_if(!for_value);
                    }
                    UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                        let inc = matches!(op, UnOp::PreInc | UnOp::PostInc);
                        let post = matches!(op, UnOp::PostInc | UnOp::PostDec);
                        self.expr(inner)?; // old value (index exprs eval #1)
                        if post && for_value {
                            self.emit(Insn::Dup); // keep old as result
                        }
                        self.emit(Insn::IncDec { inc });
                        if !post && for_value {
                            self.emit(Insn::Dup); // keep new as result
                        }
                        self.store_lvalue(inner)?; // index exprs eval #2
                    }
                }
                Ok(())
            }
            ExprKind::Assign(op, lhs, rhs) => {
                self.expr(rhs)?;
                if let Some(bin) = compound_op(*op) {
                    self.expr(lhs)?; // current value (index exprs eval #1)
                    self.emit(Insn::Swap);
                    self.emit(Insn::Binary(bin));
                }
                if for_value {
                    self.emit(Insn::Dup);
                }
                self.store_lvalue(lhs)?;
                Ok(())
            }
            ExprKind::Ternary(cond, yes, no) => {
                self.emit(Insn::Branch);
                self.expr(cond)?;
                let to_else = self.emit(Insn::JumpIfFalse(0));
                self.expr(yes)?;
                let to_end = self.emit(Insn::Jump(0));
                let else_at = self.here();
                self.patch(to_else, else_at);
                self.expr(no)?;
                let end = self.here();
                self.patch(to_end, end);
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::Call(name, args) => {
                self.call(name, args)?;
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::Field(base, field) => {
                self.expr(base)?;
                let (idx, len) = swizzle_of(field)?;
                self.emit(Insn::Swizzle { idx, len });
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::Index(base, index) => {
                self.expr(base)?;
                self.expr(index)?;
                self.emit(Insn::IndexOp);
                self.discard_if(!for_value);
                Ok(())
            }
            ExprKind::Comma(a, b) => {
                self.expr(a)?;
                self.emit(Insn::Pop);
                self.expr_value(b, for_value)
            }
        }
    }

    fn discard_if(&mut self, pop: bool) {
        if pop {
            self.emit(Insn::Pop);
        }
    }

    /// Emits the index-expression evaluations and the `Store` for an
    /// lvalue; expects the value to store on top of the stack on entry.
    fn store_lvalue(&mut self, lhs: &'a Expr) -> Result<(), LowerError> {
        let (root_name, path) = flatten_lvalue(lhs)?;
        let root = self
            .resolve(root_name)
            .ok_or_else(|| err(format!("unbound assignment target `{root_name}`")))?;
        // Evaluate index expressions outermost-first, mirroring the
        // interpreter's assign_to/modify recursion order.
        let mut n_index = 0usize;
        let mut steps: Vec<PathStep> = Vec::with_capacity(path.len());
        for step in &path {
            match step {
                LvStep::Swizzle(field) => {
                    let (idx, len) = swizzle_of(field)?;
                    steps.push(PathStep::Swizzle { idx, len });
                }
                LvStep::Index(_) => {
                    steps.push(PathStep::Index);
                    n_index += 1;
                }
            }
        }
        if n_index > 8 {
            return Err(err("lvalue path nests more than 8 indexed accesses"));
        }
        let n_index = n_index as u8;
        for step in path.iter().rev() {
            if let LvStep::Index(e) = step {
                self.expr(e)?;
            }
        }
        let wrote_color = root_name == "gl_FragColor";
        let wrote_data = root_name == "gl_FragData" && !steps.is_empty();
        self.emit(Insn::Store(Box::new(StoreDef {
            root,
            path: steps.into_boxed_slice(),
            n_index,
            wrote_color,
            wrote_data,
        })));
        Ok(())
    }

    /// Compiles a call expression, including static out-parameter
    /// copy-back. The callee candidates are the user functions of that
    /// name and arity; each is reached (and so lowered) here.
    fn call(&mut self, name: &'a Name, args: &'a [Expr]) -> Result<(), LowerError> {
        if args.len() > u8::MAX as usize {
            // `Insn::Call` carries an 8-bit arity; fall back to the
            // interpreter rather than truncating.
            return Err(err(format!(
                "call to `{name}` has more than {} arguments",
                u8::MAX
            )));
        }
        for a in args {
            self.expr(a)?;
        }
        let argc = args.len();
        let defs: &[Def<'a>] = self.lo.defs.get(&**name).map_or(&[], Vec::as_slice);
        let candidates = defs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.ast.params.len() == argc);
        // Every overload that may be picked must agree on which
        // parameters are copied back.
        let is_out = |p: &Param| matches!(p.qual, ParamQual::Out | ParamQual::InOut);
        let first = candidates.clone().next().map(|(_, d)| d.ast);
        if let Some(first) = first {
            if candidates.clone().any(|(_, d)| {
                !d.ast
                    .params
                    .iter()
                    .map(is_out)
                    .eq(first.params.iter().map(is_out))
            }) {
                return Err(err(format!(
                    "overloads of `{name}` disagree on out parameters"
                )));
            }
        }
        let out_params = first.map_or(&[][..], |f| f.params.as_slice());
        let has_outs = out_params.iter().any(is_out);
        let builtin = BuiltinId::from_name(name);
        if has_outs && builtin.is_some() {
            return Err(err(format!(
                "`{name}` shadows a builtin and takes out parameters"
            )));
        }

        let argc = argc as u8;
        let insn = match (builtin, candidates.clone().count()) {
            (Some(id), 0) => Insn::CallBuiltin { id, argc },
            (None, 1) => {
                let (k, _) = candidates.clone().next().expect("one candidate");
                Insn::CallUser {
                    func: self.lo.reach(name, k),
                    pushes_outs: has_outs,
                }
            }
            _ => {
                let ks: Vec<usize> = candidates.map(|(k, _)| k).collect();
                let candidates = ks.into_iter().map(|k| self.lo.reach(name, k)).collect();
                self.lo.names.push(Name::clone(name));
                Insn::Call {
                    name: (self.lo.names.len() - 1) as u32,
                    builtin,
                    argc,
                    candidates,
                    pushes_outs: has_outs,
                }
            }
        };
        self.emit(insn);
        if !has_outs {
            return Ok(());
        }

        // Stack now: [out_0, …, out_{m-1}, ret]. Stash into temporaries,
        // then copy back in parameter order (like the interpreter).
        let out_args: Vec<usize> = out_params
            .iter()
            .enumerate()
            .filter_map(|(i, p)| is_out(p).then_some(i))
            .collect();
        let t_ret = self.alloc_slot();
        let t_outs: Vec<u32> = out_args.iter().map(|_| self.alloc_slot()).collect();
        self.emit(Insn::StoreLocal(t_ret));
        for &t in t_outs.iter().rev() {
            self.emit(Insn::StoreLocal(t));
        }
        for (&arg_i, &t) in out_args.iter().zip(&t_outs) {
            self.emit(Insn::LoadLocal(t));
            self.store_lvalue(&args[arg_i])?;
        }
        self.emit(Insn::LoadLocal(t_ret));
        // Temporaries are dead past this point; release the slots.
        self.next_slot -= (t_outs.len() + 1) as u32;
        Ok(())
    }
}

/// Folds operand pushes into the `Binary` that consumes them, so the VM
/// reads a constant or local in place instead of copying it onto the
/// stack first: `Const; Binary` → [`Insn::BinaryConst`],
/// `LoadLocal; Binary` → [`Insn::BinaryLocal`] and
/// `LoadLocal; Const; Binary` → [`Insn::LocalBinaryConst`]. A sequence
/// is folded only when no jump lands inside it: at a jump target (the
/// join of a `?:` or `&&` whose result is a right operand) the arriving
/// context has pushed its own operand. Jump targets are remapped to the
/// shortened code. One linear walk per chunk, in place; `buffers` holds
/// the jump-target marks and the index remap between chunks.
fn fold_operands(code: &mut Vec<Insn>, buffers: &mut (Vec<bool>, Vec<u32>)) {
    let (landed, remap) = buffers;
    landed.clear();
    landed.resize(code.len() + 1, false);
    for t in code.iter_mut().filter_map(Insn::jump_target) {
        landed[*t as usize] = true;
    }
    remap.clear();
    remap.resize(code.len() + 1, 0);
    // Folded instructions are written at `w`, never past the read
    // position `i`.
    let mut w = 0;
    let mut i = 0;
    while i < code.len() {
        // The instruction `k` past `i`, unless a jump lands on it.
        let at = |k: usize| code.get(i + k).filter(|_| !landed[i + k]);
        let (folded, len) = match (&code[i], at(1), at(2)) {
            (&Insn::LoadLocal(s), Some(&Insn::Const(c)), Some(&Insn::Binary(op))) => {
                (Some(Insn::LocalBinaryConst { op, s, c }), 3)
            }
            (&Insn::Const(c), Some(&Insn::Binary(op)), _) => (Some(Insn::BinaryConst { op, c }), 2),
            (&Insn::LoadLocal(s), Some(&Insn::Binary(op)), _) => {
                (Some(Insn::BinaryLocal { op, s }), 2)
            }
            _ => (None, 1),
        };
        remap[i..i + len].fill(w as u32);
        match folded {
            Some(insn) => code[w] = insn,
            None => code.swap(w, i),
        }
        w += 1;
        i += len;
    }
    remap[code.len()] = w as u32;
    code.truncate(w);
    for t in code.iter_mut().filter_map(Insn::jump_target) {
        *t = remap[*t as usize];
    }
}

fn compound_op(op: AssignOp) -> Option<BinOp> {
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

/// One accessor of an lvalue path (AST form, before index compilation).
enum LvStep<'e> {
    Swizzle(&'e str),
    Index(&'e Expr),
}

/// Decomposes an lvalue into its root identifier and accessor path
/// (root-outward order).
fn flatten_lvalue(e: &Expr) -> Result<(&str, Vec<LvStep<'_>>), LowerError> {
    match &e.kind {
        ExprKind::Ident(name) => Ok((name, Vec::new())),
        ExprKind::Field(base, field) => {
            let (root, mut path) = flatten_lvalue(base)?;
            path.push(LvStep::Swizzle(field));
            Ok((root, path))
        }
        ExprKind::Index(base, index) => {
            let (root, mut path) = flatten_lvalue(base)?;
            path.push(LvStep::Index(index));
            Ok((root, path))
        }
        _ => Err(err("assignment target is not an lvalue")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::check;

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
        let main = &exe.chunks[exe.main_chunk as usize];
        // Two slots in the first block, one (reused) in the second.
        assert!(main.frame_size <= 2, "frame_size = {}", main.frame_size);
    }

    /// Operand pushes fold into their `Binary`, except where a jump
    /// lands on the `Binary` (the join of a `?:` on the right), and
    /// calls resolve to their callee where the AST fixes it.
    #[test]
    fn lowering_folds_operands_and_resolves_calls() {
        let exe = lower_src(&format!(
            "{P}uniform float u;\n\
             float twice(float v) {{ return v * 2.0; }}\n\
             void main() {{
                float x = u + 0.5;
                float y = x * (u > 1.0 ? 1.0 : 2.0) - x;
                gl_FragColor = vec4(twice(y), floor(x), 0.0, 1.0);
             }}"
        ));
        let main = &exe.chunks[exe.main_chunk as usize].code;
        let count = |f: fn(&Insn) -> bool| main.iter().filter(|i| f(i)).count();
        // `u + 0.5` (global operand, then a constant) and `… - x`.
        assert_eq!(
            count(|i| matches!(i, Insn::BinaryConst { op: BinOp::Add, .. })),
            1
        );
        assert_eq!(
            count(|i| matches!(i, Insn::BinaryLocal { op: BinOp::Sub, .. })),
            1
        );
        // The `*` is the `?:` join, so its right operand stays pushed.
        assert_eq!(count(|i| matches!(i, Insn::Binary(BinOp::Mul))), 1);
        assert_eq!(count(|i| matches!(i, Insn::CallUser { .. })), 1);
        assert_eq!(
            count(|i| matches!(
                i,
                Insn::CallBuiltin {
                    id: BuiltinId::Floor,
                    argc: 1
                }
            )),
            1
        );
        assert_eq!(count(|i| matches!(i, Insn::Call { .. })), 0);
        // Same-arity overloads, and a user overload of a builtin name,
        // need argument types: the generic call.
        let overloads = lower_src(&format!(
            "{P}uniform float u;\n\
             float f(float v) {{ return v; }}\n\
             float f(vec2 v) {{ return v.x; }}\n\
             float floor(int v) {{ return float(v); }}\n\
             void main() {{ gl_FragColor = vec4(f(u) + f(vec2(u)) + floor(int(u))); }}"
        ));
        let main = &overloads.chunks[overloads.main_chunk as usize].code;
        assert_eq!(
            main.iter()
                .filter(|i| matches!(i, Insn::Call { .. }))
                .count(),
            3
        );
        let twice = &exe.chunks[exe.functions[0].chunk as usize].code;
        assert!(matches!(
            twice[0],
            Insn::LocalBinaryConst {
                op: BinOp::Mul,
                s: 0,
                ..
            }
        ));
    }

    /// Lowering reaches functions through calls from `main` and the
    /// global initialisers only; a function nothing calls is not lowered,
    /// so a shape the lowerer rejects there no longer sends the whole
    /// shader to the tree-walker.
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
        let mut names: Vec<&str> = exe.functions.iter().map(|f| &*f.name).collect();
        names.sort_unstable();
        assert_eq!(names, ["init_only", "leaf", "used"]);
        // Init, main and one chunk per reached function.
        assert_eq!(exe.chunks.len(), 2 + names.len());
    }

    #[test]
    fn executable_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Executable>();
    }
}
