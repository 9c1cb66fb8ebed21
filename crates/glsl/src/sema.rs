//! Semantic analysis: symbol resolution, type checking and shader-interface
//! extraction for the GLSL ES 1.00 subset.

use crate::admission::CheckedPrelude;
use crate::ast::*;
use crate::builtins;
use crate::compile::builtin_globals;
use crate::error::CompileError;
use crate::span::Span;
use crate::swizzle::{swizzle_indices, writable};
use crate::types::{Scalar, Type};
use std::collections::HashMap;
use std::sync::Arc;

/// Which pipeline stage a shader targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShaderKind {
    /// Vertex shader (reads attributes, writes `gl_Position` + varyings).
    Vertex,
    /// Fragment shader (reads varyings, writes `gl_FragColor`).
    Fragment,
}

/// A successfully checked shader, ready for interpretation or linking.
///
/// A shader whose source began with a [`CheckedPrelude`]'s text shares
/// that prelude's items instead of owning a copy: its items are the
/// prelude's followed by `unit`'s ([`CompiledShader::items`]).
#[derive(Debug, Clone)]
pub struct CompiledShader {
    /// Stage.
    pub kind: ShaderKind,
    /// The checked prelude the source began with, if it was checked
    /// after one.
    pub prelude: Option<Arc<CheckedPrelude>>,
    /// The checked syntax tree of the source after the prelude (of all
    /// of it when there is none).
    pub unit: TranslationUnit,
    /// Externally visible variables, the prelude's first.
    pub interface: ShaderInterface,
    /// The type of each of `unit`'s expressions, indexed by [`Expr::id`]
    /// (the prelude's are in [`CheckedPrelude`]'s own table): what the
    /// lowerer picks typed instructions by.
    pub(crate) types: Vec<Type>,
    /// The user calls of `unit` (the prelude's are in its own record).
    pub(crate) calls: Calls,
    /// The definitions the global initialisers and `main` reach, each
    /// after every function it calls: the order lowering lowers them in,
    /// so that each call splices a body already lowered.
    pub(crate) order: Vec<u32>,
    /// Syntax nodes splicing copies into `main` and the initialisers
    /// ([`CompiledShader::spliced_nodes`]).
    pub(crate) spliced_nodes: u32,
    /// The deepest nesting of calls ([`CompiledShader::call_depth`]).
    pub(crate) call_depth: u32,
}

/// The most syntax nodes lowering may copy into a shader's `main` and
/// global initialisers beyond their own, an admission limit like
/// [`crate::parser::MAX_NESTING`]. A function's expanded size is one
/// node for the function, one per statement, declared variable and
/// expression, plus the expanded size of each function it calls; each
/// call in `main` or an initialiser adds its callee's. Lowering emits a
/// bounded number of instructions per node (it evaluates each node
/// once), so this bounds the lowered code linearly. A call tree that
/// doubles at each level would otherwise lower to code exponential in
/// its depth, from a source of a few hundred bytes.
pub const MAX_SPLICED_NODES: u32 = 16 * 1024;

/// The most calls admission lets nest inside each other, `main`'s own
/// calls being the first level. GLSL ES 1.00 forbids recursion, so the
/// depth a call reaches is fixed by the source, and checked once here
/// instead of on every call at run time.
pub const MAX_CALL_DEPTH: u32 = 64;

/// No user function: the callee of an expression that is no user call,
/// the definition of a function only declared, and the caller of a call
/// in a global initialiser.
pub(crate) const NO_DEF: u32 = u32::MAX;

/// The user calls a checker resolved in one unit. Overloads are numbered
/// as first declared and definitions in item order, the prelude's first
/// in both; a prelude's call may run a function only the shader after it
/// defines, so calls name the overload.
#[derive(Debug, Clone, Default)]
pub(crate) struct Calls {
    /// The overload each expression calls, indexed by [`Expr::id`]
    /// ([`NO_DEF`] for a builtin, a constructor or no call).
    pub callee: Vec<u32>,
    /// Every user call, in checking order, so each caller's calls are
    /// contiguous.
    pub edges: Vec<Call>,
    /// Each of the unit's definitions, in order: where its calls are in
    /// `edges`, and its own size in syntax nodes.
    pub bodies: Vec<Body>,
    /// Each overload's definition, as of the unit's end ([`NO_DEF`]
    /// where it has none).
    pub defs: Vec<u32>,
}

/// One user call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Call {
    /// The calling definition ([`NO_DEF`] in a global initialiser).
    pub caller: u32,
    /// The overload called.
    pub callee: u32,
    /// The call expression.
    pub span: Span,
}

/// A definition's calls, `edges[calls]`, and own size: one node for the
/// function, one per statement, declared variable and expression.
#[derive(Debug, Clone)]
pub(crate) struct Body {
    pub calls: std::ops::Range<usize>,
    pub nodes: u32,
}

impl CompiledShader {
    /// Every item of the shader in source order: the prelude's, then
    /// `unit`'s.
    pub fn items(&self) -> impl Iterator<Item = &Item> {
        let prelude = self
            .prelude
            .as_deref()
            .map_or(&[][..], |p| &p.unit.items[..]);
        prelude.iter().chain(&self.unit.items)
    }

    /// The shader's units with the checker's record of each: the
    /// prelude's, then `unit`.
    pub(crate) fn units(&self) -> impl Iterator<Item = (&TranslationUnit, &[Type], &Calls)> {
        let prelude = (self.prelude.as_deref()).map(|p| (&p.unit, &p.types[..], &p.calls));
        prelude
            .into_iter()
            .chain([(&self.unit, &self.types[..], &self.calls)])
    }

    /// Syntax nodes splicing its calls copies into `main` and the global
    /// initialisers (0 for a shader that calls no user function), which
    /// admission holds at or below [`MAX_SPLICED_NODES`].
    pub fn spliced_nodes(&self) -> u32 {
        self.spliced_nodes
    }

    /// The deepest nesting of calls `main` and the global initialisers
    /// enter, their own calls being the first level (0 for a shader that
    /// calls no user function), which admission holds at or below
    /// [`MAX_CALL_DEPTH`].
    pub fn call_depth(&self) -> u32 {
        self.call_depth
    }
}

/// Uniforms, attributes and varyings declared by a shader.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShaderInterface {
    /// `uniform` declarations in source order.
    pub uniforms: Vec<(String, Type)>,
    /// `attribute` declarations (vertex shaders only).
    pub attributes: Vec<(String, Type)>,
    /// `varying` declarations.
    pub varyings: Vec<(String, Type)>,
}

impl ShaderInterface {
    /// Looks up a uniform's type by name.
    pub fn uniform(&self, name: &str) -> Option<&Type> {
        self.uniforms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Looks up a varying's type by name.
    pub fn varying(&self, name: &str) -> Option<&Type> {
        self.varyings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Looks up an attribute's type by name.
    pub fn attribute(&self, name: &str) -> Option<&Type> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }
}

/// Checks a parsed translation unit as a shader of the given kind.
///
/// # Errors
///
/// Returns the first semantic error: undeclared identifiers, type
/// mismatches, invalid qualifiers for the stage, missing `main`, missing
/// default float precision in fragment shaders, writes to read-only
/// builtins, `discard` outside fragment shaders, and so on.
pub fn check(kind: ShaderKind, unit: TranslationUnit) -> Result<CompiledShader, CompileError> {
    check_after(kind, None, unit)
}

/// [`check`] of the part of a source after `prelude`, from where checking
/// the prelude left off: its globals, interface, function signatures and
/// float precision default. A prelude checks alone, so what it declares
/// cannot depend on what follows, and `unit` meets the same checks, in
/// the same order, as it would after the prelude's items in one unit.
pub(crate) fn check_after(
    kind: ShaderKind,
    prelude: Option<Arc<CheckedPrelude>>,
    unit: TranslationUnit,
) -> Result<CompiledShader, CompileError> {
    let (interface, types, calls, (order, spliced_nodes, call_depth)) = {
        let mut checker = Checker::new(kind, &unit);
        if let Some(prelude) = &prelude {
            checker.resume(prelude);
        }
        checker.collect_functions(&unit)?;
        checker.check_items(&unit)?;
        let main = checker.require_main()?;
        checker.close_calls();
        let walked = checker.walk_calls(prelude.as_ref().map(|p| &p.calls), main)?;
        (checker.interface, checker.types, checker.calls, walked)
    };
    Ok(CompiledShader {
        kind,
        prelude,
        unit,
        interface,
        types,
        calls,
        order,
        spliced_nodes,
        call_depth,
    })
}

/// Checks `unit` as the start of a shader: every check of [`check`] but
/// the one for `main`. Returns the interface it declares, whether a
/// float precision default holds at its end, its expressions' types and
/// its user calls.
pub(crate) fn check_prelude(
    kind: ShaderKind,
    unit: &TranslationUnit,
) -> Result<(ShaderInterface, bool, Vec<Type>, Calls), CompileError> {
    let mut checker = Checker::new(kind, unit);
    checker.collect_functions(unit)?;
    checker.check_items(unit)?;
    checker.close_calls();
    Ok((
        checker.interface,
        checker.has_float_precision_default,
        checker.types,
        checker.calls,
    ))
}

/// A variable in scope. Names borrow from the checked unit (or are the
/// stage builtins' static spellings), so declaring one copies nothing.
#[derive(Debug, Clone)]
struct Sym<'a> {
    name: &'a str,
    ty: Type,
    mutable: bool,
}

/// One user overload, borrowed from its definition or prototype.
#[derive(Debug, Clone, Copy)]
struct FnSig<'a> {
    params: &'a [Param],
    ret: &'a Type,
    /// Overload number.
    sig: u32,
    /// Definition number, [`NO_DEF`] while only declared.
    def: u32,
}

impl FnSig<'_> {
    /// Whether the overload takes exactly `types`.
    fn takes(&self, types: &[Type]) -> bool {
        self.params.len() == types.len() && self.params.iter().zip(types).all(|(p, t)| p.ty == *t)
    }
}

struct Checker<'a> {
    kind: ShaderKind,
    /// Every variable in scope, outermost first: a lookup scans from the
    /// back, so inner and later declarations shadow earlier ones.
    syms: Vec<Sym<'a>>,
    /// Where each open scope starts in `syms`; scope 0 holds the globals.
    scope_starts: Vec<usize>,
    functions: HashMap<&'a str, Vec<FnSig<'a>>>,
    /// Argument types of the calls being checked, innermost call last.
    arg_types: Vec<Type>,
    /// Each checked expression's type, indexed by [`Expr::id`].
    types: Vec<Type>,
    /// The user calls checked so far.
    calls: Calls,
    /// Overloads and function definitions numbered so far.
    sigs: u32,
    defs: u32,
    /// Number of the unit's first definition.
    first_def: u32,
    /// The definition being checked ([`NO_DEF`] in a global initialiser).
    caller: u32,
    /// Statements, declared variables and expressions checked so far.
    nodes: u32,
    interface: ShaderInterface,
    current_ret: Type,
    loop_depth: u32,
    has_float_precision_default: bool,
}

impl<'a> Checker<'a> {
    fn new(kind: ShaderKind, unit: &TranslationUnit) -> Self {
        Checker {
            types: vec![Type::Void; unit.exprs as usize],
            calls: Calls {
                callee: vec![NO_DEF; unit.exprs as usize],
                ..Calls::default()
            },
            sigs: 0,
            defs: 0,
            first_def: 0,
            caller: NO_DEF,
            nodes: 0,
            kind,
            syms: builtin_globals(kind)
                .into_iter()
                .map(|(name, ty, mutable)| Sym { name, ty, mutable })
                .collect(),
            scope_starts: vec![0],
            functions: HashMap::new(),
            arg_types: Vec::new(),
            interface: ShaderInterface::default(),
            current_ret: Type::Void,
            loop_depth: 0,
            has_float_precision_default: kind == ShaderKind::Vertex,
        }
    }

    fn lookup(&self, name: &str) -> Option<&Sym<'a>> {
        self.syms.iter().rev().find(|s| s.name == name)
    }

    fn declare(&mut self, sym: Sym<'a>, span: Span) -> Result<(), CompileError> {
        let scope = *self.scope_starts.last().expect("scope stack non-empty");
        if self.syms[scope..].iter().any(|s| s.name == sym.name) {
            return Err(CompileError::check(
                format!("`{}` is already declared in this scope", sym.name),
                span,
            ));
        }
        self.syms.push(sym);
        Ok(())
    }

    fn push_scope(&mut self) {
        self.scope_starts.push(self.syms.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scope_starts.pop().expect("scope to pop");
        self.syms.truncate(start);
    }

    fn collect_functions(&mut self, unit: &'a TranslationUnit) -> Result<(), CompileError> {
        let mut param_types = Vec::new();
        self.first_def = self.defs;
        for item in &unit.items {
            let (f, defined) = match item {
                Item::Function(f) => (f, true),
                Item::Prototype(f) => (f, false),
                _ => continue,
            };
            param_types.clear();
            param_types.extend(f.params.iter().map(|p| p.ty.clone()));
            if builtins::signature(&f.name, &param_types).is_some() || is_constructor_name(&f.name)
            {
                return Err(CompileError::check(
                    format!("cannot redefine builtin function `{}`", f.name),
                    f.span,
                ));
            }
            let def = if defined {
                self.defs += 1;
                self.defs - 1
            } else {
                NO_DEF
            };
            let overloads = self.functions.entry(&f.name).or_default();
            let sig = FnSig {
                params: &f.params,
                ret: &f.ret,
                sig: self.sigs,
                def,
            };
            if let Some(existing) = overloads.iter_mut().find(|s| s.takes(&param_types)) {
                if *existing.ret != f.ret {
                    return Err(CompileError::check(
                        format!("`{}` redeclared with a different return type", f.name),
                        f.span,
                    ));
                }
                if existing.def != NO_DEF && defined {
                    return Err(CompileError::check(
                        format!("function `{}` is defined twice", f.name),
                        f.span,
                    ));
                }
                if defined {
                    existing.def = def;
                }
            } else {
                overloads.push(sig);
                self.sigs += 1;
            }
        }
        Ok(())
    }

    /// Records each overload's definition in [`Calls::defs`].
    fn close_calls(&mut self) {
        let defs = &mut self.calls.defs;
        defs.resize(self.sigs as usize, NO_DEF);
        for sig in self.functions.values().flatten() {
            defs[sig.sig as usize] = sig.def;
        }
    }

    /// Takes up where checking `prelude` left off: its functions and
    /// globals declared, its interface and float precision default.
    fn resume(&mut self, prelude: &'a CheckedPrelude) {
        self.collect_functions(&prelude.unit)
            .expect("a checked prelude's functions collect");
        for item in &prelude.unit.items {
            if let Item::Var(decl) = item {
                let mutable = self.global_mutable(decl.storage);
                for var in &decl.vars {
                    self.syms.push(Sym {
                        name: &var.name,
                        ty: var.ty.clone(),
                        mutable,
                    });
                }
            }
        }
        self.interface = prelude.interface.clone();
        self.has_float_precision_default = prelude.float_default;
    }

    fn check_items(&mut self, unit: &'a TranslationUnit) -> Result<(), CompileError> {
        let mut def = self.first_def;
        for item in &unit.items {
            match item {
                Item::Precision(p) => {
                    if p.ty == Type::Float {
                        self.has_float_precision_default = true;
                    }
                }
                Item::Var(decl) => self.check_global(decl)?,
                Item::Prototype(_) => {}
                Item::Function(f) => {
                    self.caller = def;
                    def += 1;
                    let (calls, nodes) = (self.calls.edges.len(), self.nodes);
                    self.check_function(f)?;
                    self.calls.bodies.push(Body {
                        calls: calls..self.calls.edges.len(),
                        nodes: 1 + self.nodes - nodes,
                    });
                    self.caller = NO_DEF;
                }
            }
        }
        Ok(())
    }

    /// The definition number of `void main()`.
    fn require_main(&self) -> Result<u32, CompileError> {
        let main = self.functions.get("main").and_then(|sigs| {
            sigs.iter()
                .find(|s| s.def != NO_DEF && *s.ret == Type::Void && s.params.is_empty())
        });
        main.map(|s| s.def)
            .ok_or_else(|| CompileError::check("shader must define `void main()`", Span::default()))
    }

    /// Walks the calls the global initialisers and `main` (definition
    /// `main`) reach, over the call records of `prelude` and this unit,
    /// with a stack of its own, so a long call chain cannot overflow the
    /// thread's. Refuses a call that closes a cycle (GLSL ES 1.00 §6.1
    /// forbids recursion), a call to a function never defined, a call
    /// through which calls nest past [`MAX_CALL_DEPTH`], and a call at
    /// which what splicing copies passes [`MAX_SPLICED_NODES`]. Returns
    /// the reached definitions, each after every function it calls, the
    /// nodes splicing copies into `main` and the initialisers, and the
    /// deepest nesting of calls.
    fn walk_calls(
        &self,
        prelude: Option<&Calls>,
        main: u32,
    ) -> Result<(Vec<u32>, u32, u32), CompileError> {
        const UNSEEN: u32 = u32::MAX;
        const WALKING: u32 = u32::MAX - 1;
        /// A definition being walked.
        struct Walk<'c> {
            def: u32,
            /// The call that entered it.
            call: &'c Call,
            /// Its next call.
            next: usize,
            /// Its expanded size so far.
            size: u32,
            /// The deepest nesting of calls it enters, its own included.
            height: u32,
        }
        let units = || prelude.into_iter().chain([&self.calls]);
        let first_def = prelude.map_or(0, |p| p.bodies.len());
        let body = |def: u32| {
            let (calls, def) = match (def as usize).checked_sub(first_def) {
                Some(def) => (&self.calls, def),
                None => (prelude.expect("a prelude definition"), def as usize),
            };
            let body = &calls.bodies[def];
            (&calls.edges[body.calls.clone()], body.nodes)
        };
        let mut roots = units()
            .flat_map(|c| c.edges.iter().filter(|e| e.caller == NO_DEF))
            .chain(body(main).0);
        // Per definition: its expanded size and height once walked.
        let mut expanded = vec![(UNSEEN, 0); self.defs as usize];
        let mut order = Vec::new();
        let mut stack: Vec<Walk> = Vec::new();
        let (mut spliced, mut depth) = (0u32, 0u32);
        loop {
            let (call, walked) = match stack.last_mut() {
                Some(top) => match body(top.def).0.get(top.next) {
                    Some(call) => {
                        top.next += 1;
                        (call, None)
                    }
                    None => {
                        let top = stack.pop().expect("a walked definition");
                        expanded[top.def as usize] = (top.size, top.height);
                        order.push(top.def);
                        (top.call, Some((top.size, top.height)))
                    }
                },
                None => match roots.next() {
                    Some(call) => (call, None),
                    None => break,
                },
            };
            let refuse = |message| Err(CompileError::check(message, call.span));
            let name = || {
                (self.functions.iter())
                    .find(|(_, sigs)| sigs.iter().any(|s| s.sig == call.callee))
                    .map_or("", |(name, _)| name)
            };
            let (size, height) = match walked {
                Some(walked) => walked,
                None => {
                    let def = self.calls.defs[call.callee as usize];
                    if def == NO_DEF {
                        return refuse(format!("`{}` is called but never defined", name()));
                    }
                    let (size, height) = match expanded[def as usize] {
                        (WALKING, _) => {
                            return refuse(format!(
                                "recursive call to `{}` (GLSL ES forbids recursion)",
                                name()
                            ))
                        }
                        (UNSEEN, _) => (UNSEEN, 1),
                        walked => walked,
                    };
                    if stack.len() as u32 + height > MAX_CALL_DEPTH {
                        return refuse(format!(
                            "calls nest more than {MAX_CALL_DEPTH} deep through this call to `{}`",
                            name()
                        ));
                    }
                    if size == UNSEEN {
                        expanded[def as usize].0 = WALKING;
                        stack.push(Walk {
                            def,
                            call,
                            next: 0,
                            size: body(def).1,
                            height: 1,
                        });
                        continue;
                    }
                    (size, height)
                }
            };
            // The call splices its callee's expanded body.
            let into = match stack.last_mut() {
                Some(caller) => {
                    caller.height = caller.height.max(height + 1);
                    &mut caller.size
                }
                None => {
                    depth = depth.max(height);
                    &mut spliced
                }
            };
            *into = into.saturating_add(size);
            if *into > MAX_SPLICED_NODES {
                return refuse(format!(
                    "the call tree expands past {MAX_SPLICED_NODES} nodes here \
                     (each call copies its callee's body)"
                ));
            }
        }
        Ok((order, spliced, depth))
    }

    fn check_global(&mut self, decl: &'a VarDecl) -> Result<(), CompileError> {
        for var in &decl.vars {
            match decl.storage {
                Storage::Attribute => {
                    if self.kind != ShaderKind::Vertex {
                        return Err(CompileError::check(
                            "attributes are only allowed in vertex shaders",
                            var.span,
                        ));
                    }
                    if !var.ty.valid_attribute() {
                        return Err(CompileError::check(
                            format!("type {} cannot be an attribute", var.ty),
                            var.span,
                        ));
                    }
                    if var.init.is_some() {
                        return Err(CompileError::check(
                            "attributes cannot have initialisers",
                            var.span,
                        ));
                    }
                    self.interface
                        .attributes
                        .push((var.name.to_string(), var.ty.clone()));
                }
                Storage::Uniform => {
                    if var.init.is_some() {
                        return Err(CompileError::check(
                            "uniforms cannot have initialisers",
                            var.span,
                        ));
                    }
                    self.interface
                        .uniforms
                        .push((var.name.to_string(), var.ty.clone()));
                }
                Storage::Varying => {
                    let elem = match &var.ty {
                        Type::Array(elem, _) => elem,
                        other => other,
                    };
                    if !elem.valid_varying() {
                        return Err(CompileError::check(
                            format!(
                                "type {} cannot be a varying (float-based types only)",
                                var.ty
                            ),
                            var.span,
                        ));
                    }
                    if var.init.is_some() {
                        return Err(CompileError::check(
                            "varyings cannot have initialisers",
                            var.span,
                        ));
                    }
                    self.interface
                        .varyings
                        .push((var.name.to_string(), var.ty.clone()));
                }
                Storage::Const => {
                    let init = var.init.as_ref().ok_or_else(|| {
                        CompileError::check(
                            format!("const `{}` must be initialised", var.name),
                            var.span,
                        )
                    })?;
                    let ty = self.check_expr(init)?;
                    if ty != var.ty {
                        return Err(CompileError::check(
                            format!(
                                "const `{}` initialiser has type {ty}, expected {}",
                                var.name, var.ty
                            ),
                            var.span,
                        ));
                    }
                }
                Storage::None => {
                    if let Some(init) = &var.init {
                        let ty = self.check_expr(init)?;
                        if ty != var.ty {
                            return Err(CompileError::check(
                                format!(
                                    "initialiser for `{}` has type {ty}, expected {}",
                                    var.name, var.ty
                                ),
                                var.span,
                            ));
                        }
                    }
                }
            }
            let mutable = self.global_mutable(decl.storage);
            if var.ty.scalar() == Some(Scalar::Float)
                || var.ty.is_matrix()
                || matches!(&var.ty, Type::Array(t, _) if t.scalar() == Some(Scalar::Float))
            {
                self.require_float_precision(var.span)?;
            }
            self.declare(
                Sym {
                    name: &var.name,
                    ty: var.ty.clone(),
                    mutable,
                },
                var.span,
            )?;
        }
        Ok(())
    }

    /// Whether a global of `storage` is writable: uniforms, attributes
    /// and consts are read-only everywhere; varyings are writable in the
    /// vertex stage and read-only in the fragment stage.
    fn global_mutable(&self, storage: Storage) -> bool {
        match storage {
            Storage::None => true,
            Storage::Varying => self.kind == ShaderKind::Vertex,
            _ => false,
        }
    }

    fn require_float_precision(&self, span: Span) -> Result<(), CompileError> {
        if self.has_float_precision_default {
            Ok(())
        } else {
            Err(CompileError::check(
                "fragment shaders have no default float precision; \
                 add `precision mediump float;` or `precision highp float;`",
                span,
            ))
        }
    }

    fn check_function(&mut self, f: &'a Function) -> Result<(), CompileError> {
        self.current_ret = f.ret.clone();
        self.push_scope();
        for p in &f.params {
            if p.name.is_empty() {
                continue;
            }
            if p.ty.scalar() == Some(Scalar::Float) || p.ty.is_matrix() {
                self.require_float_precision(f.span)?;
            }
            self.declare(
                Sym {
                    name: &p.name,
                    ty: p.ty.clone(),
                    mutable: true,
                },
                f.span,
            )?;
        }
        for stmt in &f.body {
            self.check_stmt(stmt)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &'a Stmt) -> Result<(), CompileError> {
        self.nodes += 1;
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.check_expr(e)?;
            }
            StmtKind::Decl(decl) => {
                if !matches!(decl.storage, Storage::None | Storage::Const) {
                    return Err(CompileError::check(
                        "only `const` qualifier is allowed on local declarations",
                        stmt.span,
                    ));
                }
                for var in &decl.vars {
                    self.nodes += 1;
                    if let Some(init) = &var.init {
                        let ty = self.check_expr(init)?;
                        if ty != var.ty {
                            return Err(CompileError::check(
                                format!(
                                    "initialiser for `{}` has type {ty}, expected {}",
                                    var.name, var.ty
                                ),
                                var.span,
                            ));
                        }
                    } else if decl.storage == Storage::Const {
                        return Err(CompileError::check(
                            format!("const `{}` must be initialised", var.name),
                            var.span,
                        ));
                    }
                    if var.ty.scalar() == Some(Scalar::Float)
                        || var.ty.is_matrix()
                        || matches!(&var.ty, Type::Array(t, _) if t.scalar() == Some(Scalar::Float) || t.is_matrix())
                    {
                        self.require_float_precision(var.span)?;
                    }
                    self.declare(
                        Sym {
                            name: &var.name,
                            ty: var.ty.clone(),
                            mutable: decl.storage != Storage::Const,
                        },
                        var.span,
                    )?;
                }
            }
            StmtKind::If(cond, then, els) => {
                self.expect_bool(cond)?;
                self.scoped(|c| c.check_stmt(then))?;
                if let Some(els) = els {
                    self.scoped(|c| c.check_stmt(els))?;
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                if let Some(init) = init {
                    self.check_stmt(init)?;
                }
                if let Some(cond) = cond {
                    self.expect_bool(cond)?;
                }
                if let Some(step) = step {
                    self.check_expr(step)?;
                }
                self.loop_depth += 1;
                let r = self.check_stmt(body);
                self.loop_depth -= 1;
                self.pop_scope();
                r?;
            }
            StmtKind::While(cond, body) => {
                self.expect_bool(cond)?;
                self.loop_depth += 1;
                let r = self.scoped(|c| c.check_stmt(body));
                self.loop_depth -= 1;
                r?;
            }
            StmtKind::DoWhile(body, cond) => {
                self.loop_depth += 1;
                let r = self.scoped(|c| c.check_stmt(body));
                self.loop_depth -= 1;
                r?;
                self.expect_bool(cond)?;
            }
            StmtKind::Return(value) => {
                let ty = match value {
                    Some(e) => self.check_expr(e)?,
                    None => Type::Void,
                };
                if ty != self.current_ret {
                    return Err(CompileError::check(
                        format!(
                            "return type {ty} does not match declared {}",
                            self.current_ret
                        ),
                        stmt.span,
                    ));
                }
            }
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(CompileError::check(
                        "break/continue outside of a loop",
                        stmt.span,
                    ));
                }
            }
            StmtKind::Discard => {
                if self.kind != ShaderKind::Fragment {
                    return Err(CompileError::check(
                        "`discard` is only allowed in fragment shaders",
                        stmt.span,
                    ));
                }
            }
            StmtKind::Block(stmts) => {
                self.push_scope();
                let mut result = Ok(());
                for s in stmts {
                    result = self.check_stmt(s);
                    if result.is_err() {
                        break;
                    }
                }
                self.pop_scope();
                result?;
            }
            StmtKind::Empty => {}
        }
        Ok(())
    }

    fn scoped<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<R, CompileError>,
    ) -> Result<R, CompileError> {
        self.push_scope();
        let r = f(self);
        self.pop_scope();
        r
    }

    fn expect_bool(&mut self, e: &Expr) -> Result<(), CompileError> {
        let ty = self.check_expr(e)?;
        if ty != Type::Bool {
            return Err(CompileError::check(
                format!("condition must be bool, found {ty}"),
                e.span,
            ));
        }
        Ok(())
    }

    fn check_expr(&mut self, e: &Expr) -> Result<Type, CompileError> {
        // Every compound form is checked in a function of its own, so this
        // frame, which a deeply nested expression repeats once per level,
        // stays small even in an unoptimised build.
        let span = e.span;
        self.nodes += 1;
        let ty = match &e.kind {
            ExprKind::FloatLit(_) => Ok(Type::Float),
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::BoolLit(_) => Ok(Type::Bool),
            ExprKind::Ident(name) => self
                .lookup(name)
                .map(|s| s.ty.clone())
                .ok_or_else(|| CompileError::check(format!("`{name}` is not declared"), span)),
            ExprKind::Binary(op, operands) => {
                let [a, b] = &**operands;
                self.check_binary(*op, a, b, span)
            }
            ExprKind::Unary(op, inner) => self.check_unary(*op, inner, span),
            ExprKind::Assign(op, lhs, rhs) => self.check_assign(*op, lhs, rhs, span),
            ExprKind::Ternary(cond, yes, no) => self.check_ternary(cond, yes, no, span),
            ExprKind::Call(name, args) => self.check_call(e.id, name, args, span),
            ExprKind::Field(base, field) => self.check_field(base, field, span),
            ExprKind::Index(base, index) => self.check_index(base, index, span),
            ExprKind::Comma(a, b) => {
                self.check_expr(a)?;
                self.check_expr(b)
            }
        }?;
        if let Some(slot) = self.types.get_mut(e.id as usize) {
            slot.clone_from(&ty);
        }
        Ok(ty)
    }

    fn check_binary(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        span: Span,
    ) -> Result<Type, CompileError> {
        let (ta, tb) = (self.check_expr(a)?, self.check_expr(b)?);
        binary_type(op, &ta, &tb).ok_or_else(|| {
            CompileError::check(
                format!("operator `{}` cannot combine {ta} and {tb}", op.symbol()),
                span,
            )
        })
    }

    fn check_unary(&mut self, op: UnOp, inner: &Expr, span: Span) -> Result<Type, CompileError> {
        let ty = self.check_expr(inner)?;
        match op {
            UnOp::Neg | UnOp::Plus => {
                if ty.scalar() == Some(Scalar::Bool)
                    || ty == Type::Sampler2D
                    || matches!(ty, Type::Array(..))
                {
                    Err(CompileError::check(format!("cannot negate {ty}"), span))
                } else {
                    Ok(ty)
                }
            }
            UnOp::Not => {
                if ty == Type::Bool {
                    Ok(Type::Bool)
                } else {
                    Err(CompileError::check(
                        format!("`!` requires bool, found {ty}"),
                        span,
                    ))
                }
            }
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                self.check_assignable(inner)?;
                if matches!(ty.scalar(), Some(Scalar::Float) | Some(Scalar::Int)) && !ty.is_matrix()
                {
                    Ok(ty)
                } else {
                    Err(CompileError::check(
                        format!("++/-- requires a numeric lvalue, found {ty}"),
                        span,
                    ))
                }
            }
        }
    }

    fn check_assign(
        &mut self,
        op: AssignOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<Type, CompileError> {
        let lt = self.check_expr(lhs)?;
        let rt = self.check_expr(rhs)?;
        self.check_assignable(lhs)?;
        let effective = match op {
            AssignOp::Assign => {
                if lt == rt {
                    Some(lt.clone())
                } else {
                    None
                }
            }
            AssignOp::AddAssign | AssignOp::SubAssign | AssignOp::DivAssign => binary_type(
                match op {
                    AssignOp::AddAssign => BinOp::Add,
                    AssignOp::SubAssign => BinOp::Sub,
                    _ => BinOp::Div,
                },
                &lt,
                &rt,
            )
            .filter(|t| *t == lt),
            AssignOp::MulAssign => binary_type(BinOp::Mul, &lt, &rt).filter(|t| *t == lt),
        };
        effective.ok_or_else(|| {
            CompileError::check(format!("cannot assign {rt} to lvalue of type {lt}"), span)
        })
    }

    fn check_ternary(
        &mut self,
        cond: &Expr,
        yes: &Expr,
        no: &Expr,
        span: Span,
    ) -> Result<Type, CompileError> {
        self.expect_bool(cond)?;
        let (ty, tn) = (self.check_expr(yes)?, self.check_expr(no)?);
        if ty != tn {
            return Err(CompileError::check(
                format!("ternary branches have different types: {ty} vs {tn}"),
                span,
            ));
        }
        Ok(ty)
    }

    fn check_call(
        &mut self,
        id: u32,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<Type, CompileError> {
        // Bytecode names up to 255 operands of one instruction.
        if args.len() > u8::MAX as usize {
            return Err(CompileError::check(
                format!("call to `{name}` has more than {} arguments", u8::MAX),
                span,
            ));
        }
        // The argument types go on a stack shared by nested calls, so a
        // call allocates nothing of its own.
        let base = self.arg_types.len();
        for a in args {
            let ty = self.check_expr(a)?;
            self.arg_types.push(ty);
        }
        let result = self.resolve_call(id, name, args, base, span);
        self.arg_types.truncate(base);
        result
    }

    /// The result type of calling `name` on `args`, whose types are
    /// `self.arg_types[base..]`; records a user call's callee under `id`.
    fn resolve_call(
        &mut self,
        id: u32,
        name: &str,
        args: &[Expr],
        base: usize,
        span: Span,
    ) -> Result<Type, CompileError> {
        let arg_types = &self.arg_types[base..];
        if let Some(ret) = builtins::signature(name, arg_types) {
            return Ok(ret);
        }
        if let Some(overloads) = self.functions.get(name) {
            if let Some(sig) = overloads.iter().find(|s| s.takes(arg_types)).copied() {
                // out/inout arguments must be lvalues.
                for (arg, p) in args.iter().zip(sig.params) {
                    if matches!(p.qual, ParamQual::Out | ParamQual::InOut) {
                        self.check_assignable(arg)?;
                    }
                }
                if let Some(callee) = self.calls.callee.get_mut(id as usize) {
                    *callee = sig.sig;
                }
                self.calls.edges.push(Call {
                    caller: self.caller,
                    callee: sig.sig,
                    span,
                });
                return Ok(sig.ret.clone());
            }
            return Err(CompileError::check(
                format!(
                    "no overload of `{name}` matches argument types ({})",
                    type_list(arg_types)
                ),
                span,
            ));
        }
        if is_constructor_name(name) {
            return Err(CompileError::check(
                format!("invalid constructor `{name}({})`", type_list(arg_types)),
                span,
            ));
        }
        Err(CompileError::check(
            format!("`{name}` is not a function"),
            span,
        ))
    }

    fn check_field(&mut self, base: &Expr, field: &str, span: Span) -> Result<Type, CompileError> {
        let bt = self.check_expr(base)?;
        if !bt.is_vector() {
            return Err(CompileError::check(
                format!("cannot swizzle type {bt}"),
                span,
            ));
        }
        let dim = bt.dim().expect("vector dim");
        let idx = swizzle_indices(field)
            .ok_or_else(|| CompileError::check(format!("invalid swizzle `.{field}`"), span))?;
        if idx.iter().any(|&i| i >= dim) {
            return Err(CompileError::check(
                format!("swizzle `.{field}` out of range for {bt}"),
                span,
            ));
        }
        let scalar = bt.scalar().expect("vector scalar");
        Type::vector_of(scalar, idx.len())
            .ok_or_else(|| CompileError::check(format!("invalid swizzle `.{field}`"), span))
    }

    fn check_index(&mut self, base: &Expr, index: &Expr, span: Span) -> Result<Type, CompileError> {
        let bt = self.check_expr(base)?;
        let it = self.check_expr(index)?;
        if it != Type::Int {
            return Err(CompileError::check(
                format!("index must be int, found {it}"),
                index.span,
            ));
        }
        let result = bt
            .index_result()
            .ok_or_else(|| CompileError::check(format!("type {bt} cannot be indexed"), span))?;
        // Static bounds check for literal indices.
        if let ExprKind::IntLit(i) = &index.kind {
            let len = match &bt {
                Type::Array(_, n) => *n,
                other => other.dim().unwrap_or(usize::MAX),
            };
            if *i < 0 || (*i as usize) >= len {
                return Err(CompileError::check(
                    format!("index {i} out of bounds for {bt}"),
                    index.span,
                ));
            }
        }
        Ok(result)
    }

    /// Verifies that `e` denotes a writable location.
    fn check_assignable(&mut self, e: &Expr) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                let sym = self.lookup(name).ok_or_else(|| {
                    CompileError::check(format!("`{name}` is not declared"), e.span)
                })?;
                if !sym.mutable {
                    return Err(CompileError::check(
                        format!("`{name}` is read-only in this shader stage"),
                        e.span,
                    ));
                }
                Ok(())
            }
            ExprKind::Field(base, field) => {
                let idx = swizzle_indices(field).ok_or_else(|| {
                    CompileError::check(format!("invalid swizzle `.{field}`"), e.span)
                })?;
                if !writable(&idx) {
                    return Err(CompileError::check(
                        format!("swizzle `.{field}` repeats components and cannot be assigned"),
                        e.span,
                    ));
                }
                self.check_assignable(base)
            }
            ExprKind::Index(base, _) => self.check_assignable(base),
            _ => Err(CompileError::check("expression is not an lvalue", e.span)),
        }
    }
}

fn type_list(types: &[Type]) -> String {
    types
        .iter()
        .map(Type::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

fn is_constructor_name(name: &str) -> bool {
    matches!(
        name,
        "float"
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

/// Result type of a binary operation, or `None` if invalid.
///
/// GLSL ES has **no implicit conversions** — `int + float` is an error,
/// which is why generated GPGPU code is littered with `float()` casts.
pub fn binary_type(op: BinOp, a: &Type, b: &Type) -> Option<Type> {
    use BinOp::*;
    use Type::*;
    match op {
        And | Or | Xor => (*a == Bool && *b == Bool).then_some(Bool),
        Eq | Ne => (a == b && !matches!(a, Sampler2D | Array(..) | Void)).then_some(Bool),
        Lt | Le | Gt | Ge => (a == b && matches!(a, Float | Int)).then_some(Bool),
        Add | Sub | Div | Mul => {
            let float_shape = |t: &Type| t.is_matrix() || matches!(t, Float | Vec2 | Vec3 | Vec4);
            let int_shape = |t: &Type| matches!(t, Int | IVec2 | IVec3 | IVec4);
            // Linear-algebra products first.
            if op == Mul {
                match (a, b) {
                    (Mat2, Vec2) | (Vec2, Mat2) => return Some(Vec2),
                    (Mat3, Vec3) | (Vec3, Mat3) => return Some(Vec3),
                    (Mat4, Vec4) | (Vec4, Mat4) => return Some(Vec4),
                    (Mat2, Mat2) => return Some(Mat2),
                    (Mat3, Mat3) => return Some(Mat3),
                    (Mat4, Mat4) => return Some(Mat4),
                    _ => {}
                }
            } else if a.is_matrix() && a == b {
                // Component-wise matrix add/sub/div.
                return Some(a.clone());
            }
            if a == b && float_shape(a) && !a.is_matrix() {
                return Some(a.clone());
            }
            if a == b && int_shape(a) {
                return Some(a.clone());
            }
            match (a, b) {
                (t, Float) | (Float, t) if float_shape(t) => Some(t.clone()),
                (t, Int) | (Int, t) if int_shape(t) => Some(t.clone()),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_frag(src: &str) -> Result<CompiledShader, CompileError> {
        check(ShaderKind::Fragment, parse(src)?)
    }

    fn check_vert(src: &str) -> Result<CompiledShader, CompileError> {
        check(ShaderKind::Vertex, parse(src)?)
    }

    const P: &str = "precision highp float;\n";

    #[test]
    fn minimal_shaders_check() {
        check_frag(&format!("{P}void main() {{ gl_FragColor = vec4(1.0); }}"))
            .expect("fragment shader should check");
        check_vert("attribute vec4 a_pos; void main() { gl_Position = a_pos; }")
            .expect("vertex shader should check");
    }

    #[test]
    fn fragment_requires_float_precision_default() {
        let e = check_frag("void main() { float x = 1.0; }").unwrap_err();
        assert!(e.message.contains("precision"));
        // Vertex shaders have a default (highp).
        check_vert("void main() { float x = 1.0; gl_Position = vec4(x); }")
            .expect("vertex default precision");
    }

    #[test]
    fn interface_is_extracted() {
        let s = check_frag(&format!(
            "{P}uniform sampler2D u_a;\nuniform vec2 u_dims;\nvarying vec2 v_uv;\n\
             void main() {{ gl_FragColor = texture2D(u_a, v_uv + u_dims); }}"
        ))
        .expect("checks");
        assert_eq!(s.interface.uniforms.len(), 2);
        assert_eq!(s.interface.uniform("u_a"), Some(&Type::Sampler2D));
        assert_eq!(s.interface.varying("v_uv"), Some(&Type::Vec2));
    }

    #[test]
    fn no_implicit_int_float_conversion() {
        let e = check_frag(&format!("{P}void main() {{ float x = 1.0 + 1; }}")).unwrap_err();
        assert!(e.message.contains("cannot combine"));
    }

    #[test]
    fn undeclared_identifier() {
        let e = check_frag(&format!("{P}void main() {{ gl_FragColor = missing; }}")).unwrap_err();
        assert!(e.message.contains("not declared"));
    }

    #[test]
    fn attribute_rejected_in_fragment() {
        let e = check_frag(&format!("{P}attribute vec4 a_p; void main() {{}}")).unwrap_err();
        assert!(e.message.contains("vertex"));
    }

    #[test]
    fn varying_must_be_float_based() {
        let e =
            check_vert("varying ivec2 v_i; void main() { gl_Position = vec4(0.0); }").unwrap_err();
        assert!(e.message.contains("varying"));
    }

    #[test]
    fn uniform_is_read_only() {
        let e = check_frag(&format!(
            "{P}uniform float u_k; void main() {{ u_k = 1.0; }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("read-only"));
    }

    #[test]
    fn varying_read_only_in_fragment_writable_in_vertex() {
        let e = check_frag(&format!(
            "{P}varying vec2 v_uv; void main() {{ v_uv = vec2(0.0); }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("read-only"));
        check_vert("varying vec2 v_uv; void main() { v_uv = vec2(1.0); gl_Position = vec4(0.0); }")
            .expect("vertex may write varyings");
    }

    #[test]
    fn gl_fragcoord_is_read_only() {
        let e = check_frag(&format!("{P}void main() {{ gl_FragCoord = vec4(0.0); }}")).unwrap_err();
        assert!(e.message.contains("read-only"));
    }

    #[test]
    fn gl_fragdata_index_bounds() {
        // gl_FragData[0] is the only legal element in ES 2 (limitation #8).
        check_frag(&format!("{P}void main() {{ gl_FragData[0] = vec4(1.0); }}"))
            .expect("gl_FragData[0] ok");
        let e =
            check_frag(&format!("{P}void main() {{ gl_FragData[1] = vec4(1.0); }}")).unwrap_err();
        assert!(e.message.contains("out of bounds"));
    }

    #[test]
    fn discard_only_in_fragment() {
        let e = check_vert("void main() { discard; gl_Position = vec4(0.0); }").unwrap_err();
        assert!(e.message.contains("fragment"));
        check_frag(&format!("{P}void main() {{ if (true) discard; }}")).expect("ok in fragment");
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = check_frag(&format!("{P}void main() {{ break; }}")).unwrap_err();
        assert!(e.message.contains("loop"));
    }

    #[test]
    fn swizzle_types() {
        check_frag(&format!(
            "{P}void main() {{ vec4 v = vec4(1.0); vec2 a = v.xy; float f = v.w; v.zw = a; }}"
        ))
        .expect("swizzles check");
        let e = check_frag(&format!(
            "{P}void main() {{ vec2 v = vec2(1.0); float f = v.z; }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn swizzle_write_with_repeats_rejected() {
        let e = check_frag(&format!(
            "{P}void main() {{ vec2 v = vec2(1.0); v.xx = vec2(2.0); }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("repeats"));
    }

    #[test]
    fn ternary_branch_types_must_match() {
        let e = check_frag(&format!(
            "{P}void main() {{ float x = true ? 1.0 : vec2(0.0).x + 1.0; }}"
        ));
        assert!(e.is_ok());
        let e = check_frag(&format!("{P}void main() {{ float x = true ? 1 : 0.0; }}")).unwrap_err();
        assert!(e.message.contains("different types") || e.message.contains("expected"));
    }

    #[test]
    fn user_functions_with_overloads() {
        check_frag(&format!(
            "{P}float twice(float x) {{ return x * 2.0; }}\n\
             vec2 twice(vec2 x) {{ return x * 2.0; }}\n\
             void main() {{ gl_FragColor = vec4(twice(2.0), twice(vec2(1.0)), 0.0); }}"
        ))
        .expect("overloads resolve");
    }

    #[test]
    fn wrong_overload_is_rejected() {
        let e = check_frag(&format!(
            "{P}float f(float x) {{ return x; }}\n\
             void main() {{ float y = f(1); }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("no overload"));
    }

    #[test]
    fn out_param_requires_lvalue() {
        let e = check_frag(&format!(
            "{P}void split(out float v) {{ v = 1.0; }}\n\
             void main() {{ split(2.0); }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("lvalue"));
    }

    #[test]
    fn missing_main_is_error() {
        let e = check_frag(&format!("{P}float helper() {{ return 1.0; }}")).unwrap_err();
        assert!(e.message.contains("main"));
    }

    #[test]
    fn cannot_redefine_builtin() {
        let e = check_frag(&format!(
            "{P}float floor(float x) {{ return x; }} void main() {{}}"
        ))
        .unwrap_err();
        assert!(e.message.contains("builtin"));
    }

    #[test]
    fn matrix_vector_products() {
        check_vert(
            "uniform mat4 u_mvp; attribute vec4 a_pos;\n\
             void main() { gl_Position = u_mvp * a_pos; }",
        )
        .expect("mat4 * vec4");
        assert_eq!(
            binary_type(BinOp::Mul, &Type::Vec3, &Type::Mat3),
            Some(Type::Vec3)
        );
        assert_eq!(binary_type(BinOp::Mul, &Type::Mat2, &Type::Vec3), None);
        assert_eq!(
            binary_type(BinOp::Add, &Type::Mat2, &Type::Mat2),
            Some(Type::Mat2)
        );
    }

    #[test]
    fn relational_only_on_scalars() {
        assert_eq!(
            binary_type(BinOp::Lt, &Type::Float, &Type::Float),
            Some(Type::Bool)
        );
        assert_eq!(binary_type(BinOp::Lt, &Type::Vec2, &Type::Vec2), None);
        assert_eq!(
            binary_type(BinOp::Eq, &Type::Vec2, &Type::Vec2),
            Some(Type::Bool)
        );
    }

    #[test]
    fn const_requires_init_and_is_immutable() {
        let e = check_frag(&format!("{P}void main() {{ const float k; }}")).unwrap_err();
        assert!(e.message.contains("initialised"));
        let e = check_frag(&format!(
            "{P}void main() {{ const float k = 1.0; k = 2.0; }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("read-only"));
    }

    #[test]
    fn shadowing_in_inner_scope_allowed() {
        check_frag(&format!(
            "{P}void main() {{ float x = 1.0; {{ float x = 2.0; }} }}"
        ))
        .expect("shadowing in nested scope");
        let e = check_frag(&format!(
            "{P}void main() {{ float x = 1.0; float x = 2.0; }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("already declared"));
    }

    /// A function walked once counts its own depth wherever it is
    /// called again: `f62` → … → `f0` nests 63 calls, under `main`
    /// directly and under `g` (64 deep), but not under `h` → `g` (65).
    #[test]
    fn call_depth_counts_a_walked_function_at_every_call() {
        let mut chain = format!("{P}uniform float u;\nfloat f0(float x) {{ return x; }}\n");
        for k in 1..63 {
            chain += &format!("float f{k}(float x) {{ return f{}(x); }}\n", k - 1);
        }
        chain += "float g(float x) { return f62(x); }\nfloat h(float x) { return g(x); }\n";
        let shader = check_frag(&format!(
            "{chain}void main() {{ gl_FragColor = vec4(f62(u) + g(u)); }}"
        ))
        .expect("64 deep");
        assert_eq!(shader.call_depth(), MAX_CALL_DEPTH);
        let e = check_frag(&format!(
            "{chain}void main() {{ gl_FragColor = vec4(f62(u) + h(u)); }}"
        ))
        .unwrap_err();
        assert!(e.message.contains("through this call to `f62`"), "{e}");
        assert_eq!(e.span.line, 66, "{e}");
    }

    #[test]
    fn array_index_static_bounds() {
        let e = check_frag(&format!("{P}void main() {{ float a[4]; a[4] = 1.0; }}")).unwrap_err();
        assert!(e.message.contains("out of bounds"));
    }
}
