//! Tree-walking interpreter for checked shaders.
//!
//! One [`Interpreter`] instance executes many shader invocations (one per
//! vertex or fragment): uniforms persist across invocations, per-invocation
//! inputs are set with [`Interpreter::set_global`], and outputs are read
//! back with [`Interpreter::global`].

use crate::ast::*;
use crate::builtins::{self, BuiltinCx};
use crate::compile::{compound_op, lvalue_path, PathStep};
use crate::error::RuntimeError;
use crate::exec::{ExecLimits, FloatModel, OpProfile, TextureAccess};
use crate::intern::Interner;
use crate::ops;
use crate::sema::{Calls, CompiledShader, NO_DEF};
use crate::swizzle::swizzle_indices;
use crate::types::{Scalar, Type};
use crate::value::Value;

/// Control-flow outcome of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
    Discard,
}

/// An lvalue resolved once: its root variable, the accessor path from
/// it and the value of each `Index` step's index, evaluated outermost
/// first as lowering evaluates them.
struct Place<'e> {
    root: &'e str,
    path: Vec<PathStep>,
    indices: Vec<i64>,
}

/// Executes invocations of one compiled shader.
pub struct Interpreter<'a> {
    shader: &'a CompiledShader,
    /// Each function definition, by the checker's definition number,
    /// with the call record of its unit.
    defs: Vec<(&'a Function, &'a Calls)>,
    /// `void main()`, with the call record of its unit.
    main: Option<(&'a Function, &'a Calls)>,
    /// The call record of the unit whose code is running: which user
    /// overload each call expression resolved to.
    calls: &'a Calls,
    model: FloatModel,
    limits: ExecLimits,
    textures: &'a dyn TextureAccess,
    profile: OpProfile,
    /// Interned identifiers (the resolver's structure, reused here): the
    /// scope stack stores ids, so resolution is one hash on the name
    /// followed by integer compares per scope entry.
    names: Interner,
    /// Scope stack; index 0 holds globals.
    scopes: Vec<Vec<(u32, Value)>>,
    /// Retired scope `Vec`s kept for reuse, so entering a block in the
    /// fragment hot loop does not reallocate.
    scope_pool: Vec<Vec<(u32, Value)>>,
    /// (index into globals, initial value) for mutable plain globals that
    /// must be re-initialised per invocation.
    reset_list: Vec<(usize, Value)>,
    discarded: bool,
    wrote_frag_color: bool,
    wrote_frag_data: bool,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over a checked shader with the given texture
    /// bindings.
    ///
    /// # Errors
    ///
    /// Fails if a global initialiser itself fails to evaluate.
    pub fn new(
        shader: &'a CompiledShader,
        textures: &'a dyn TextureAccess,
    ) -> Result<Self, RuntimeError> {
        Self::with_model(shader, textures, FloatModel::Exact)
    }

    /// Like [`Interpreter::new`] with an explicit float model.
    ///
    /// # Errors
    ///
    /// Fails if a global initialiser itself fails to evaluate.
    pub fn with_model(
        shader: &'a CompiledShader,
        textures: &'a dyn TextureAccess,
        model: FloatModel,
    ) -> Result<Self, RuntimeError> {
        let defs: Vec<_> = (shader.units())
            .flat_map(|(unit, _, calls)| {
                (unit.items.iter()).filter_map(move |item| match item {
                    Item::Function(f) => Some((f, calls)),
                    _ => None,
                })
            })
            .collect();
        let main = (defs.iter())
            .find(|(f, _)| &*f.name == "main" && f.params.is_empty())
            .copied();
        let mut interp = Interpreter {
            shader,
            defs,
            main,
            calls: &shader.calls,
            model,
            limits: ExecLimits::default(),
            textures,
            profile: OpProfile::new(),
            names: Interner::new(),
            scopes: vec![Vec::new()],
            scope_pool: Vec::new(),
            reset_list: Vec::new(),
            discarded: false,
            wrote_frag_color: false,
            wrote_frag_data: false,
        };
        interp.init_globals()?;
        Ok(interp)
    }

    /// Replaces the execution limits.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    fn init_globals(&mut self) -> Result<(), RuntimeError> {
        // Stage builtins — the single table shared with the bytecode
        // lowerer, so both executors agree on what exists.
        for (name, ty, _) in crate::compile::builtin_globals(self.shader.kind) {
            let id = self.names.intern(name);
            self.scopes[0].push((id, Value::zero_of(&ty)));
        }
        // Copy the `&'a` shader reference out of `self` so the item walk
        // does not conflict with `eval`'s mutable borrow (no AST clone).
        let shader = self.shader;
        for (unit, _, calls) in shader.units() {
            self.calls = calls;
            for decl in unit.items.iter().filter_map(|item| match item {
                Item::Var(decl) => Some(decl),
                _ => None,
            }) {
                for var in &decl.vars {
                    let value = if let Some(init) = &var.init {
                        self.eval(init)?
                    } else {
                        Value::zero_of(&var.ty)
                    };
                    let index = self.scopes[0].len();
                    let id = self.names.intern(&var.name);
                    self.scopes[0].push((id, value.clone()));
                    if decl.storage == Storage::None {
                        self.reset_list.push((index, value));
                    }
                }
            }
        }
        self.calls = &shader.calls;
        Ok(())
    }

    /// Sets a global (uniform, attribute, varying or builtin input) by name.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unbound`] if no such global exists.
    pub fn set_global(&mut self, name: &str, value: Value) -> Result<(), RuntimeError> {
        if let Some(id) = self.names.get(name) {
            for (n, v) in self.scopes[0].iter_mut() {
                if *n == id {
                    *v = value;
                    return Ok(());
                }
            }
        }
        Err(RuntimeError::Unbound { name: name.into() })
    }

    /// Reads a global by name (used for `gl_Position`, varyings,
    /// `gl_FragColor` after a run).
    pub fn global(&self, name: &str) -> Option<&Value> {
        let id = self.names.get(name)?;
        self.scopes[0]
            .iter()
            .find(|(n, _)| *n == id)
            .map(|(_, v)| v)
    }

    /// Whether the last invocation executed `discard`.
    pub fn discarded(&self) -> bool {
        self.discarded
    }

    /// Whether the last invocation wrote `gl_FragColor` / `gl_FragData`.
    pub fn wrote_outputs(&self) -> (bool, bool) {
        (self.wrote_frag_color, self.wrote_frag_data)
    }

    /// The fragment colour produced by the last invocation, honouring
    /// whether the shader used `gl_FragColor` or `gl_FragData[0]`.
    pub fn frag_color(&self) -> Option<[f32; 4]> {
        if self.wrote_frag_data {
            match self.global("gl_FragData") {
                Some(Value::Array(elems)) => elems.first().and_then(Value::as_vec4),
                _ => None,
            }
        } else {
            self.global("gl_FragColor").and_then(Value::as_vec4)
        }
    }

    /// Accumulated operation profile over all invocations so far.
    pub fn profile(&self) -> OpProfile {
        self.profile
    }

    /// Resets the accumulated profile and returns the previous counts.
    pub fn take_profile(&mut self) -> OpProfile {
        std::mem::take(&mut self.profile)
    }

    /// Runs `main()` once.
    ///
    /// # Errors
    ///
    /// Propagates any [`RuntimeError`] raised during evaluation.
    pub fn run_main(&mut self) -> Result<(), RuntimeError> {
        self.discarded = false;
        self.wrote_frag_color = false;
        self.wrote_frag_data = false;
        // Restore mutable plain globals to their initial values without
        // cloning the reset list itself; `clone_from` keeps any array
        // allocations alive across invocations.
        let globals = &mut self.scopes[0];
        for (index, value) in &self.reset_list {
            globals[*index].1.clone_from(value);
        }
        self.profile.invocations += 1;

        let (main, calls) = self.main.ok_or(RuntimeError::Unbound {
            name: "main".into(),
        })?;
        self.calls = calls;
        self.push_scope();
        let flow = self.exec_block(&main.body);
        self.pop_scope();
        match flow? {
            Flow::Discard => {
                self.discarded = true;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    // ---- statements ------------------------------------------------------

    /// Enters a lexical scope, reusing a pooled `Vec` where possible.
    fn push_scope(&mut self) {
        self.scopes.push(self.scope_pool.pop().unwrap_or_default());
    }

    /// Leaves a lexical scope, returning its `Vec` to the pool.
    fn pop_scope(&mut self) {
        if let Some(mut scope) = self.scopes.pop() {
            scope.clear();
            self.scope_pool.push(scope);
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, RuntimeError> {
        for stmt in stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, RuntimeError> {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl(decl) => {
                for var in &decl.vars {
                    let value = if let Some(init) = &var.init {
                        self.eval(init)?
                    } else {
                        Value::zero_of(&var.ty)
                    };
                    let id = self.names.intern(&var.name);
                    self.scopes
                        .last_mut()
                        .expect("scope stack non-empty")
                        .push((id, value));
                }
                Ok(Flow::Normal)
            }
            StmtKind::If(cond, then, els) => {
                self.profile.branches += 1;
                let c = self.eval_bool(cond)?;
                if c {
                    self.scoped_stmt(then)
                } else if let Some(els) = els {
                    self.scoped_stmt(els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                let result = (|| {
                    if let Some(init) = init {
                        self.exec_stmt(init)?;
                    }
                    let mut iterations: u64 = 0;
                    loop {
                        if let Some(cond) = cond {
                            if !self.eval_bool(cond)? {
                                break;
                            }
                        }
                        iterations += 1;
                        self.profile.branches += 1;
                        if iterations > self.limits.max_loop_iterations {
                            return Err(RuntimeError::LoopLimit {
                                limit: self.limits.max_loop_iterations,
                                span: stmt.span,
                            });
                        }
                        match self.scoped_stmt(body)? {
                            Flow::Break => break,
                            Flow::Normal | Flow::Continue => {}
                            other => return Ok(other),
                        }
                        if let Some(step) = step {
                            self.eval(step)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.pop_scope();
                result
            }
            StmtKind::While(cond, body) => {
                let mut iterations: u64 = 0;
                while self.eval_bool(cond)? {
                    iterations += 1;
                    self.profile.branches += 1;
                    if iterations > self.limits.max_loop_iterations {
                        return Err(RuntimeError::LoopLimit {
                            limit: self.limits.max_loop_iterations,
                            span: stmt.span,
                        });
                    }
                    match self.scoped_stmt(body)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile(body, cond) => {
                let mut iterations: u64 = 0;
                loop {
                    iterations += 1;
                    self.profile.branches += 1;
                    if iterations > self.limits.max_loop_iterations {
                        return Err(RuntimeError::LoopLimit {
                            limit: self.limits.max_loop_iterations,
                            span: stmt.span,
                        });
                    }
                    match self.scoped_stmt(body)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        other => return Ok(other),
                    }
                    if !self.eval_bool(cond)? {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Discard => Ok(Flow::Discard),
            StmtKind::Block(stmts) => {
                self.push_scope();
                let r = self.exec_block(stmts);
                self.pop_scope();
                r
            }
            StmtKind::Empty => Ok(Flow::Normal),
        }
    }

    fn scoped_stmt(&mut self, stmt: &Stmt) -> Result<Flow, RuntimeError> {
        self.push_scope();
        let r = self.exec_stmt(stmt);
        self.pop_scope();
        r
    }

    // ---- expressions -------------------------------------------------------

    fn eval_bool(&mut self, e: &Expr) -> Result<bool, RuntimeError> {
        self.eval(e)?.as_bool().ok_or_else(|| RuntimeError::Type {
            message: "condition did not evaluate to bool".into(),
        })
    }

    fn lookup(&self, name: &str) -> Option<&Value> {
        let id = self.names.get(name)?;
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.iter().rev().find(|(n, _)| *n == id))
            .map(|(_, v)| v)
    }

    fn eval(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        match &e.kind {
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::BoolLit(v) => Ok(Value::Bool(*v)),
            ExprKind::Ident(name) => {
                self.lookup(name)
                    .cloned()
                    .ok_or_else(|| RuntimeError::Unbound {
                        name: name.to_string(),
                    })
            }
            ExprKind::Binary(op, operands) => {
                let [a, b] = &**operands;
                self.eval_binary(*op, a, b)
            }
            ExprKind::Unary(op, inner) => self.eval_unary(*op, inner),
            ExprKind::Assign(op, lhs, rhs) => {
                let rhs_value = self.eval(rhs)?;
                let place = self.place(lhs)?;
                let new_value = match compound_op(*op) {
                    None => rhs_value,
                    Some(bin) => {
                        let current = self.read(&place)?;
                        self.apply_binary(bin, current, rhs_value)?
                    }
                };
                self.write(&place, new_value.clone())?;
                Ok(new_value)
            }
            ExprKind::Ternary(cond, yes, no) => {
                self.profile.branches += 1;
                if self.eval_bool(cond)? {
                    self.eval(yes)
                } else {
                    self.eval(no)
                }
            }
            ExprKind::Call(name, args) => self.eval_call(e.id, name, args),
            ExprKind::Field(base, field) => {
                let bv = self.eval(base)?;
                let idx = swizzle_indices(field).ok_or_else(|| RuntimeError::Type {
                    message: format!("invalid swizzle `.{field}`"),
                })?;
                swizzle_read(&bv, &idx)
            }
            ExprKind::Index(base, index) => {
                let bv = self.eval(base)?;
                let i = self.eval_index(index)?;
                index_read(&bv, i)
            }
            ExprKind::Comma(a, b) => {
                self.eval(a)?;
                self.eval(b)
            }
        }
    }

    fn eval_index(&mut self, e: &Expr) -> Result<i64, RuntimeError> {
        match self.eval(e)? {
            Value::Int(i) => Ok(i as i64),
            other => Err(RuntimeError::Type {
                message: format!("index must be int, found {}", other.ty()),
            }),
        }
    }

    fn eval_unary(&mut self, op: UnOp, inner: &Expr) -> Result<Value, RuntimeError> {
        match op {
            UnOp::Plus => self.eval(inner),
            UnOp::Neg => {
                let v = self.eval(inner)?;
                self.negate(v)
            }
            UnOp::Not => {
                let v = self.eval(inner)?;
                v.as_bool()
                    .map(|b| Value::Bool(!b))
                    .ok_or_else(|| RuntimeError::Type {
                        message: "`!` requires bool".into(),
                    })
            }
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                let place = self.place(inner)?;
                let old = self.read(&place)?;
                let one = match old.ty().scalar() {
                    Some(Scalar::Int) => Value::Int(1),
                    _ => Value::Float(1.0),
                };
                let delta = if matches!(op, UnOp::PreInc | UnOp::PostInc) {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let new = self.apply_binary(delta, old.clone(), one)?;
                self.write(&place, new.clone())?;
                if matches!(op, UnOp::PreInc | UnOp::PreDec) {
                    Ok(new)
                } else {
                    Ok(old)
                }
            }
        }
    }

    fn negate(&mut self, v: Value) -> Result<Value, RuntimeError> {
        ops::negate(v)
    }

    fn eval_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Value, RuntimeError> {
        // Short-circuit logic.
        match op {
            BinOp::And => {
                let av = self.eval_bool(a)?;
                return if !av {
                    Ok(Value::Bool(false))
                } else {
                    Ok(Value::Bool(self.eval_bool(b)?))
                };
            }
            BinOp::Or => {
                let av = self.eval_bool(a)?;
                return if av {
                    Ok(Value::Bool(true))
                } else {
                    Ok(Value::Bool(self.eval_bool(b)?))
                };
            }
            _ => {}
        }
        let (av, bv) = (self.eval(a)?, self.eval(b)?);
        self.apply_binary(op, av, bv)
    }

    fn apply_binary(&mut self, op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
        ops::apply_binary(self.model, &mut self.profile, op, a, b)
    }

    /// Calls what the checker resolved call `id` to: a user definition,
    /// else the builtin or constructor `name`.
    fn eval_call(&mut self, id: u32, name: &str, args: &[Expr]) -> Result<Value, RuntimeError> {
        let overload = self.calls.callee.get(id as usize).copied();
        let Some(overload) = overload.filter(|&o| o != NO_DEF) else {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(self.eval(a)?);
            }
            let mut cx = BuiltinCx {
                model: self.model,
                profile: &mut self.profile,
                textures: self.textures,
            };
            return builtins::BuiltinId::from_name(name)
                .and_then(|id| builtins::call(id, &values, &mut cx))
                .unwrap_or_else(|| Err(RuntimeError::Unbound { name: name.into() }));
        };
        let (func, calls) = self.defs[self.shader.calls.defs[overload as usize] as usize];
        // Arguments in order; an `out` or `inout` one is resolved to a
        // place once, which an `inout` one is read through now, and both
        // are written back through after the return.
        let mut frame: Vec<(u32, Value)> = Vec::with_capacity(func.params.len());
        let mut places = Vec::new();
        for (param, arg) in func.params.iter().zip(args) {
            let value = match param.qual {
                ParamQual::In => self.eval(arg)?,
                ParamQual::Out => {
                    places.push(self.place(arg)?);
                    Value::zero_of(&param.ty)
                }
                ParamQual::InOut => {
                    let place = self.place(arg)?;
                    let value = self.read(&place)?;
                    places.push(place);
                    value
                }
            };
            frame.push((self.names.intern(&param.name), value));
        }
        self.profile.calls += 1;
        // Functions see only globals + their own frame (no caller locals).
        let saved_scopes = std::mem::take(&mut self.scopes);
        self.scopes.push(saved_scopes[0].clone());
        self.scopes.push(frame);
        let caller = std::mem::replace(&mut self.calls, calls);

        let flow = self.exec_block(&func.body);

        self.calls = caller;
        let frame = self.scopes.pop().expect("call frame");
        let globals = self.scopes.pop().expect("globals frame");
        let mut outer = saved_scopes;
        outer[0] = globals;
        self.scopes = outer;

        let flow = flow?;
        let outs = (func.params.iter().zip(frame)).filter(|(p, _)| p.qual != ParamQual::In);
        for (place, (_, (_, value))) in places.iter().zip(outs) {
            self.write(place, value)?;
        }
        match flow {
            Flow::Return(Some(v)) => Ok(v),
            Flow::Return(None) | Flow::Normal => {
                if func.ret == Type::Void {
                    Ok(Value::Float(0.0)) // void result, never used
                } else {
                    Err(RuntimeError::Type {
                        message: format!("function `{name}` ended without returning a value"),
                    })
                }
            }
            Flow::Discard => Err(RuntimeError::Type {
                message: "discard inside a function is not supported by this subset".into(),
            }),
            _ => Err(RuntimeError::Type {
                message: "break/continue escaped a function body".into(),
            }),
        }
    }

    // ---- lvalues -----------------------------------------------------------

    /// Resolves lvalue `e` to a place: its index expressions evaluated
    /// once, outermost first.
    fn place<'e>(&mut self, e: &'e Expr) -> Result<Place<'e>, RuntimeError> {
        let (root, path, exprs) = lvalue_path(e).ok_or_else(|| RuntimeError::Type {
            message: "assignment target is not an lvalue".into(),
        })?;
        let mut indices = vec![0; exprs.len()];
        for (index, e) in indices.iter_mut().zip(exprs).rev() {
            *index = self.eval_index(e)?;
        }
        Ok(Place {
            root,
            path,
            indices,
        })
    }

    /// The value at `place`.
    fn read(&self, place: &Place) -> Result<Value, RuntimeError> {
        let root = self
            .lookup(place.root)
            .ok_or_else(|| RuntimeError::Unbound {
                name: place.root.into(),
            })?;
        ops::read_path(root, &place.path, &place.indices)
    }

    /// Stores `value` at `place`.
    fn write(&mut self, place: &Place, value: Value) -> Result<(), RuntimeError> {
        match place.root {
            "gl_FragColor" => self.wrote_frag_color = true,
            "gl_FragData" if !place.path.is_empty() => self.wrote_frag_data = true,
            _ => {}
        }
        let id = self.names.get(place.root);
        let root = (self.scopes.iter_mut().rev())
            .find_map(|scope| scope.iter_mut().rev().find(|(n, _)| Some(*n) == id))
            .ok_or_else(|| RuntimeError::Unbound {
                name: place.root.into(),
            })?;
        ops::write_path(&mut root.1, &place.path, &place.indices, value)
    }
}

// ---- free helpers -----------------------------------------------------------
// (The value-manipulation helpers shared with the bytecode VM live in
// `crate::ops`; thin aliases keep this module's call sites readable.)

use ops::{index_read, swizzle_read};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::NoTextures;
    use crate::parser::parse;
    use crate::sema::{check, ShaderKind};

    fn run_fragment(src: &str) -> [f32; 4] {
        run_fragment_with(src, FloatModel::Exact, &[])
    }

    fn run_fragment_with(src: &str, model: FloatModel, globals: &[(&str, Value)]) -> [f32; 4] {
        let shader = check(ShaderKind::Fragment, parse(src).expect("parse")).expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::with_model(&shader, &tex, model).expect("interpreter");
        for (name, value) in globals {
            interp.set_global(name, value.clone()).expect("set global");
        }
        interp.run_main().expect("run");
        interp.frag_color().expect("frag color")
    }

    const P: &str = "precision highp float;\n";

    #[test]
    fn writes_constant_color() {
        let c = run_fragment(&format!(
            "{P}void main() {{ gl_FragColor = vec4(0.1, 0.2, 0.3, 0.4); }}"
        ));
        assert_eq!(c, [0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn arithmetic_and_locals() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                float a = 2.0;
                float b = a * 3.0 + 1.0;
                gl_FragColor = vec4(b / 14.0, b - 7.0, a, 1.0);
            }}"
        ));
        assert_eq!(c, [0.5, 0.0, 2.0, 1.0]);
    }

    #[test]
    fn for_loop_accumulates() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                float s = 0.0;
                for (int i = 0; i < 10; i++) {{ s += 1.5; }}
                gl_FragColor = vec4(s, 0.0, 0.0, 1.0);
            }}"
        ));
        assert_eq!(c[0], 15.0);
    }

    #[test]
    fn while_break_continue() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                float s = 0.0;
                int i = 0;
                while (true) {{
                    i++;
                    if (i > 10) break;
                    if (i == 3) continue;
                    s += 1.0;
                }}
                gl_FragColor = vec4(s / 255.0, 0.0, 0.0, 1.0);
            }}"
        ));
        assert!((c[0] - 9.0 / 255.0).abs() < 1e-7);
    }

    #[test]
    fn uniforms_and_varyings() {
        let c = run_fragment_with(
            &format!(
                "{P}uniform float u_scale;\nvarying vec2 v_uv;\n\
                 void main() {{ gl_FragColor = vec4(v_uv * u_scale, 0.0, 1.0); }}"
            ),
            FloatModel::Exact,
            &[
                ("u_scale", Value::Float(2.0)),
                ("v_uv", Value::Vec2([0.25, 0.5])),
            ],
        );
        assert_eq!(c, [0.5, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn user_function_with_out_param() {
        let c = run_fragment(&format!(
            "{P}void split(float v, out float hi, out float lo) {{
                hi = floor(v);
                lo = fract(v);
            }}
            void main() {{
                float h; float l;
                split(3.25, h, l);
                gl_FragColor = vec4(h / 4.0, l, 0.0, 1.0);
            }}"
        ));
        assert_eq!(c, [0.75, 0.25, 0.0, 1.0]);
    }

    #[test]
    fn loop_limit_triggers() {
        let shader = check(
            ShaderKind::Fragment,
            parse(&format!(
                "{P}void main() {{ float s = 0.0; while (true) {{ s += 1.0; }} }}"
            ))
            .expect("parse"),
        )
        .expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.set_limits(ExecLimits {
            max_loop_iterations: 1000,
        });
        let err = interp.run_main().unwrap_err();
        assert!(matches!(err, RuntimeError::LoopLimit { .. }));
    }

    #[test]
    fn discard_is_reported() {
        let shader = check(
            ShaderKind::Fragment,
            parse(&format!("{P}void main() {{ discard; }}")).expect("parse"),
        )
        .expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.run_main().expect("run");
        assert!(interp.discarded());
    }

    #[test]
    fn frag_data_zero_is_alias_for_output() {
        let shader = check(
            ShaderKind::Fragment,
            parse(&format!(
                "{P}void main() {{ gl_FragData[0] = vec4(0.5, 0.25, 0.125, 1.0); }}"
            ))
            .expect("parse"),
        )
        .expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.run_main().expect("run");
        assert_eq!(interp.wrote_outputs(), (false, true));
        assert_eq!(interp.frag_color(), Some([0.5, 0.25, 0.125, 1.0]));
    }

    #[test]
    fn swizzle_write_through_lvalue() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                vec4 v = vec4(0.0);
                v.xz = vec2(0.5, 0.75);
                v.w = 1.0;
                gl_FragColor = v;
            }}"
        ));
        assert_eq!(c, [0.5, 0.0, 0.75, 1.0]);
    }

    #[test]
    fn matrix_vector_product() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                mat2 m = mat2(1.0, 2.0, 3.0, 4.0); // columns (1,2),(3,4)
                vec2 v = m * vec2(1.0, 1.0);       // rows: (1+3, 2+4)
                gl_FragColor = vec4(v / 8.0, 0.0, 1.0);
            }}"
        ));
        assert_eq!(c, [0.5, 0.75, 0.0, 1.0]);
    }

    #[test]
    fn int_arithmetic_loop_index_math() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                int acc = 0;
                for (int i = 1; i <= 4; i++) {{ acc = acc + i * i; }}
                gl_FragColor = vec4(float(acc) / 30.0, 0.0, 0.0, 1.0);
            }}"
        ));
        assert_eq!(c[0], 1.0);
    }

    #[test]
    fn array_read_write() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                float a[3];
                for (int i = 0; i < 3; i++) {{ a[i] = float(i) * 0.25; }}
                gl_FragColor = vec4(a[0], a[1], a[2], 1.0);
            }}"
        ));
        assert_eq!(c, [0.0, 0.25, 0.5, 1.0]);
    }

    #[test]
    fn runtime_array_index_out_of_bounds() {
        let shader = check(
            ShaderKind::Fragment,
            parse(&format!(
                "{P}uniform int u_i;\nvoid main() {{ float a[2]; gl_FragColor = vec4(a[u_i]); }}"
            ))
            .expect("parse"),
        )
        .expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.set_global("u_i", Value::Int(5)).expect("set");
        let err = interp.run_main().unwrap_err();
        assert!(matches!(err, RuntimeError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn profile_counts_work() {
        let shader = check(
            ShaderKind::Fragment,
            parse(&format!(
                "{P}void main() {{
                    float s = 0.0;
                    for (int i = 0; i < 4; i++) {{ s += exp2(float(i)); }}
                    gl_FragColor = vec4(s);
                }}"
            ))
            .expect("parse"),
        )
        .expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.run_main().expect("run");
        let p = interp.profile();
        assert_eq!(p.invocations, 1);
        assert_eq!(p.sfu_ops, 4); // one exp2 per iteration
        assert!(p.alu_ops > 8);
        assert!(p.branches >= 4);
    }

    #[test]
    fn short_circuit_does_not_divide_by_zero() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                float d = 0.0;
                bool ok = (d != 0.0) && (1.0 / d > 0.0);
                gl_FragColor = vec4(ok ? 1.0 : 0.0);
            }}"
        ));
        assert_eq!(c[0], 0.0);
    }

    #[test]
    fn globals_reset_between_invocations() {
        let shader = check(
            ShaderKind::Fragment,
            parse(&format!(
                "{P}float counter = 0.0;\n\
                 void main() {{ counter += 1.0; gl_FragColor = vec4(counter); }}"
            ))
            .expect("parse"),
        )
        .expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp.run_main().expect("run 1");
        let first = interp.frag_color().expect("color")[0];
        interp.run_main().expect("run 2");
        let second = interp.frag_color().expect("color")[0];
        assert_eq!(first, 1.0);
        assert_eq!(second, 1.0, "plain globals must reset per invocation");
    }

    #[test]
    fn vertex_shader_outputs_position_and_varyings() {
        let shader = check(
            ShaderKind::Vertex,
            parse(
                "attribute vec2 a_pos;\nvarying vec2 v_uv;\n\
                 void main() {\n\
                   v_uv = a_pos * 0.5 + 0.5;\n\
                   gl_Position = vec4(a_pos, 0.0, 1.0);\n\
                 }",
            )
            .expect("parse"),
        )
        .expect("check");
        let tex = NoTextures;
        let mut interp = Interpreter::new(&shader, &tex).expect("interp");
        interp
            .set_global("a_pos", Value::Vec2([-1.0, 1.0]))
            .expect("set");
        interp.run_main().expect("run");
        assert_eq!(
            interp.global("gl_Position"),
            Some(&Value::Vec4([-1.0, 1.0, 0.0, 1.0]))
        );
        assert_eq!(interp.global("v_uv"), Some(&Value::Vec2([0.0, 1.0])));
    }

    #[test]
    fn ternary_evaluates_single_branch() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                float x = 1.0;
                float r = (x > 0.0) ? 0.25 : (1.0 / 0.0);
                gl_FragColor = vec4(r);
            }}"
        ));
        assert_eq!(c[0], 0.25);
    }

    #[test]
    fn mediump_model_loses_precision() {
        let src = format!(
            "{P}void main() {{
                float a = 1.0;
                float b = a + 0.0001; // below mediump resolution near 1.0
                gl_FragColor = vec4(b - a, 0.0, 0.0, 1.0);
            }}"
        );
        let exact = run_fragment_with(&src, FloatModel::Exact, &[]);
        let medium = run_fragment_with(&src, FloatModel::Mediump16, &[]);
        assert!(exact[0] > 0.0);
        assert_eq!(medium[0], 0.0);
    }

    #[test]
    fn comma_operator_in_for() {
        let c = run_fragment(&format!(
            "{P}void main() {{
                float s = 0.0;
                int j = 0;
                for (int i = 0; i < 3; i++, j++) {{ s += 1.0; }}
                gl_FragColor = vec4(s / 3.0, float(j) / 3.0, 0.0, 1.0);
            }}"
        ));
        assert_eq!(c[0], 1.0);
        assert_eq!(c[1], 1.0);
    }
}
