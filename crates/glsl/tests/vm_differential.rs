//! Property-based differential testing: randomly generated shader
//! programs must behave **bit-identically** on the bytecode VM (one-lane
//! and multi-lane SPMD batches) and the tree-walking interpreter under
//! every float model — same fragment colour bits, same `OpProfile`
//! counters, same discard/output flags, and, when a program traps, the
//! same runtime error.
//!
//! The generator builds programs that are valid by construction (they
//! pass `sema::check`) but deliberately exercise the lowerer's whole
//! surface: nested scopes with shadowing, for/while loops with
//! break/continue, swizzle lvalues, arrays, matrices, user functions
//! with `out`/`inout` parameters, ternaries, short-circuit logic,
//! compound assignment and increment/decrement.

use gpes_glsl::exec::{FloatModel, NoTextures};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::spmd::SpmdVm;
use gpes_glsl::{compile, lower, ShaderKind, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Tiny deterministic generator
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flt(&mut self) -> f32 {
        // Small-magnitude literals keep intermediate values finite often
        // enough to exercise both finite and non-finite paths.
        let v = (self.next() % 2000) as f32 / 100.0 - 10.0;
        (v * 100.0).round() / 100.0
    }
}

struct Gen {
    rng: Rng,
    /// Float-typed locals currently in scope.
    floats: Vec<String>,
    /// vec4-typed locals currently in scope.
    vec4s: Vec<String>,
    /// Int-typed locals currently in scope.
    ints: Vec<String>,
    next_id: u32,
    depth: u32,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: Rng::new(seed),
            floats: vec!["u_a".into(), "u_b".into()],
            vec4s: vec!["u_v".into()],
            ints: vec!["u_i".into()],
            next_id: 0,
            depth: 0,
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.next_id += 1;
        format!("{prefix}{}", self.next_id)
    }

    fn float_expr(&mut self) -> String {
        self.depth += 1;
        let max = if self.depth > 4 { 3 } else { 10 };
        let e = match self.rng.below(max) {
            0 => format!("{:?}", self.rng.flt()),
            1 => self.floats[self.rng.below(self.floats.len() as u64) as usize].clone(),
            2 => {
                let v = self.vec4s[self.rng.below(self.vec4s.len() as u64) as usize].clone();
                let sw = ["x", "y", "z", "w"][self.rng.below(4) as usize];
                format!("{v}.{sw}")
            }
            3 => {
                let a = self.float_expr();
                let b = self.float_expr();
                let op = ["+", "-", "*", "/"][self.rng.below(4) as usize];
                format!("({a} {op} {b})")
            }
            4 => {
                let a = self.float_expr();
                let f = ["fract", "floor", "abs", "sign", "exp2", "sqrt", "sin"]
                    [self.rng.below(7) as usize];
                format!("{f}({a})")
            }
            5 => {
                let a = self.float_expr();
                let b = self.float_expr();
                let f = ["min", "max", "mod", "pow"][self.rng.below(4) as usize];
                format!("{f}({a}, {b})")
            }
            6 => {
                let a = self.float_expr();
                let b = self.float_expr();
                let c = self.float_expr();
                format!("clamp({a}, min({b}, {c}), max({b}, {c}))")
            }
            7 => {
                let c = self.bool_expr();
                let a = self.float_expr();
                let b = self.float_expr();
                format!("(({c}) ? {a} : {b})")
            }
            8 => {
                let i = self.int_expr();
                format!("float({i})")
            }
            _ => {
                let a = self.vec4_expr();
                let b = self.vec4_expr();
                format!("dot({a}, {b})")
            }
        };
        self.depth -= 1;
        e
    }

    fn vec4_expr(&mut self) -> String {
        self.depth += 1;
        let max = if self.depth > 3 { 2 } else { 5 };
        let e = match self.rng.below(max) {
            0 => {
                let a = self.float_expr();
                format!("vec4({a})")
            }
            1 => self.vec4s[self.rng.below(self.vec4s.len() as u64) as usize].clone(),
            2 => {
                let a = self.vec4_expr();
                let b = self.float_expr();
                format!("({a} * {b})")
            }
            3 => {
                let a = self.vec4_expr();
                let b = self.vec4_expr();
                format!("({a} + {b})")
            }
            _ => {
                let a = self.vec4_expr();
                format!("{a}.wzyx")
            }
        };
        self.depth -= 1;
        e
    }

    fn int_expr(&mut self) -> String {
        self.depth += 1;
        let max = if self.depth > 4 { 2 } else { 4 };
        let e = match self.rng.below(max) {
            0 => format!("{}", self.rng.below(17) as i64 - 8),
            1 => self.ints[self.rng.below(self.ints.len() as u64) as usize].clone(),
            2 => {
                let a = self.int_expr();
                let b = self.int_expr();
                let op = ["+", "-", "*"][self.rng.below(3) as usize];
                format!("({a} {op} {b})")
            }
            _ => {
                let a = self.float_expr();
                format!("int({a})")
            }
        };
        self.depth -= 1;
        e
    }

    fn bool_expr(&mut self) -> String {
        let a = self.float_expr();
        let b = self.float_expr();
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.below(6) as usize];
        match self.rng.below(3) {
            0 => format!("{a} {op} {b}"),
            1 => {
                let c = self.int_expr();
                let d = self.int_expr();
                format!("({a} {op} {b}) && ({c} < {d})")
            }
            _ => {
                let c = self.int_expr();
                let d = self.int_expr();
                format!("({a} {op} {b}) || ({c} >= {d})")
            }
        }
    }

    fn stmt(&mut self, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        match self.rng.below(10) {
            0 | 1 => {
                let name = self.fresh("f");
                let init = self.float_expr();
                out.push_str(&format!("{pad}float {name} = {init};\n"));
                self.floats.push(name);
            }
            2 => {
                let name = self.fresh("v");
                let init = self.vec4_expr();
                out.push_str(&format!("{pad}vec4 {name} = {init};\n"));
                self.vec4s.push(name);
            }
            3 => {
                let target = self.floats[self.rng.below(self.floats.len() as u64) as usize].clone();
                if target.starts_with("u_") {
                    return; // uniforms are read-only
                }
                let rhs = self.float_expr();
                let op = ["=", "+=", "-=", "*="][self.rng.below(4) as usize];
                out.push_str(&format!("{pad}{target} {op} {rhs};\n"));
            }
            4 => {
                let target = self.vec4s[self.rng.below(self.vec4s.len() as u64) as usize].clone();
                if target.starts_with("u_") {
                    return;
                }
                let sw = ["x", "yz", "xw", "zyx"][self.rng.below(4) as usize];
                if sw.len() == 1 {
                    let rhs = self.float_expr();
                    out.push_str(&format!("{pad}{target}.{sw} += {rhs};\n"));
                } else {
                    let comps: Vec<String> = (0..sw.len()).map(|_| self.float_expr()).collect();
                    out.push_str(&format!(
                        "{pad}{target}.{sw} = vec{}({});\n",
                        sw.len(),
                        comps.join(", ")
                    ));
                }
            }
            5 => {
                let cond = self.bool_expr();
                out.push_str(&format!("{pad}if ({cond}) {{\n"));
                let scope = self.save_scope();
                self.stmt(out, indent + 1);
                self.stmt(out, indent + 1);
                self.restore_scope(scope);
                out.push_str(&format!("{pad}}} else {{\n"));
                let scope = self.save_scope();
                self.stmt(out, indent + 1);
                self.restore_scope(scope);
                out.push_str(&format!("{pad}}}\n"));
            }
            6 if indent < 3 => {
                let i = self.fresh("i");
                let n = 2 + self.rng.below(6);
                let acc = self.floats[self.rng.below(self.floats.len() as u64) as usize].clone();
                out.push_str(&format!("{pad}for (int {i} = 0; {i} < {n}; {i}++) {{\n"));
                let scope = self.save_scope();
                self.ints.push(i.clone());
                if !acc.starts_with("u_") {
                    out.push_str(&format!("{pad}    {acc} += float({i}) * 0.125;\n"));
                }
                self.stmt(out, indent + 1);
                if self.rng.below(4) == 0 {
                    out.push_str(&format!("{pad}    if ({i} == 1) continue;\n"));
                }
                if self.rng.below(4) == 0 {
                    out.push_str(&format!("{pad}    if ({i} > 3) break;\n"));
                }
                self.restore_scope(scope);
                out.push_str(&format!("{pad}}}\n"));
            }
            7 => {
                let name = self.fresh("a");
                let idx = self.rng.below(3);
                let e = self.float_expr();
                out.push_str(&format!(
                    "{pad}float {name}[3];\n{pad}{name}[{idx}] = {e};\n"
                ));
                out.push_str(&format!("{pad}{name}[2] = {name}[{idx}] * 0.5;\n"));
                self.floats.push(format!("{name}[2]"));
            }
            8 => {
                let target = self.floats[self.rng.below(self.floats.len() as u64) as usize].clone();
                if target.starts_with("u_") || target.contains('[') {
                    return;
                }
                let inc = ["++", "--"][self.rng.below(2) as usize];
                out.push_str(&format!("{pad}{target}{inc};\n"));
            }
            _ => {
                let m = self.fresh("m");
                let a = self.float_expr();
                let b = self.float_expr();
                out.push_str(&format!("{pad}mat2 {m} = mat2({a}, {b}, 1.0, 2.0);\n"));
                let v = self.fresh("f");
                out.push_str(&format!("{pad}float {v} = ({m} * vec2(1.0, 0.5)).x;\n"));
                self.floats.push(v);
            }
        }
    }

    fn save_scope(&self) -> (usize, usize, usize) {
        (self.floats.len(), self.vec4s.len(), self.ints.len())
    }

    fn restore_scope(&mut self, s: (usize, usize, usize)) {
        self.floats.truncate(s.0);
        self.vec4s.truncate(s.1);
        self.ints.truncate(s.2);
    }

    fn program(&mut self) -> String {
        let mut src = String::from(
            "precision highp float;\n\
             uniform float u_a;\nuniform float u_b;\nuniform vec4 u_v;\nuniform int u_i;\n",
        );
        // Occasionally a plain mutable global (exercises per-invocation
        // reset) and a helper function with an out parameter.
        let with_global = self.rng.below(2) == 0;
        if with_global {
            src.push_str("float g_acc = 0.25;\n");
            self.floats.push("g_acc".into());
        }
        let with_fn = self.rng.below(2) == 0;
        if with_fn {
            src.push_str(
                "float helper(float x, out float doubled, inout float acc) {\n\
                 \x20   doubled = x * 2.0;\n\
                 \x20   acc += x;\n\
                 \x20   return fract(x) + 0.125;\n\
                 }\n",
            );
        }
        src.push_str("void main() {\n");
        src.push_str("    float s0 = u_a * 0.5;\n");
        self.floats.push("s0".into());
        let n_stmts = 3 + self.rng.below(6);
        for _ in 0..n_stmts {
            self.stmt(&mut src, 1);
        }
        if with_fn {
            src.push_str("    float h1; float h2 = 0.5;\n");
            src.push_str("    float hr = helper(s0, h1, h2);\n");
            src.push_str("    s0 += hr + h1 + h2;\n");
        }
        let r = self.float_expr();
        let g = self.float_expr();
        src.push_str(&format!("    gl_FragColor = vec4({r}, {g}, s0, 1.0);\n"));
        src.push_str("}\n");
        src
    }
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

fn uniforms(seed: u64) -> Vec<(&'static str, Value)> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    vec![
        ("u_a", Value::Float(rng.flt())),
        ("u_b", Value::Float(rng.flt())),
        (
            "u_v",
            Value::Vec4([rng.flt(), rng.flt(), rng.flt(), rng.flt()]),
        ),
        ("u_i", Value::Int(rng.below(11) as i32 - 5)),
    ]
}

fn check_program(seed: u64) {
    let src = Gen::new(seed).program();
    let shader = match compile(ShaderKind::Fragment, &src) {
        Ok(s) => s,
        Err(e) => panic!("generated program failed to compile: {e}\n{src}"),
    };
    let exe = match lower(&shader) {
        Ok(e) => e,
        Err(e) => panic!("generated program failed to lower: {e}\n{src}"),
    };
    let tex = NoTextures;
    for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
        // One lane: every batch is a single sequential invocation.
        let mut vm = SpmdVm::with_model(&exe, &tex, model, 1).expect("vm init");
        let mut interp = Interpreter::with_model(&shader, &tex, model).expect("interp init");
        for (name, value) in uniforms(seed) {
            vm.set_global(name, value.clone()).expect("vm uniform");
            interp.set_global(name, value).expect("interp uniform");
        }
        // Two invocations back to back: the second catches state leaking
        // across invocations (globals reset, stale stack, arena reuse).
        for invocation in 0..2 {
            let vr = vm.run_batch(1).map_err(|e| e.error);
            let ir = interp.run_main();
            match (vr, ir) {
                (Ok(()), Ok(())) => {
                    let vc = vm.frag_color(0).map(|c| c.map(f32::to_bits));
                    let ic = interp.frag_color().map(|c| c.map(f32::to_bits));
                    assert_eq!(
                        vc, ic,
                        "colour diverged (seed {seed}, {model:?}, invocation {invocation})\n{src}"
                    );
                    assert_eq!(
                        vm.discarded(0),
                        interp.discarded(),
                        "discard flag diverged (seed {seed})\n{src}"
                    );
                    assert_eq!(
                        vm.wrote_outputs(0),
                        interp.wrote_outputs(),
                        "output flags diverged (seed {seed})\n{src}"
                    );
                }
                (Err(ve), Err(ie)) => {
                    assert_eq!(
                        ve.to_string(),
                        ie.to_string(),
                        "errors diverged (seed {seed}, {model:?})\n{src}"
                    );
                    break; // state after an error is unspecified
                }
                (vr, ir) => panic!(
                    "one executor trapped and the other did not (seed {seed}, \
                     {model:?}): vm={vr:?} interp={ir:?}\n{src}"
                ),
            }
            assert_eq!(
                vm.profile(),
                interp.profile(),
                "op profiles diverged (seed {seed}, {model:?}, invocation {invocation})\n{src}"
            );
        }
    }

    // Multi-lane batches, each lane fed *different* uniforms so generated
    // branches genuinely diverge across the batch. The oracle is one
    // tree-walker run invocation-by-invocation in lane order — exactly
    // the contract the rasteriser relies on.
    for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
        for lanes in [4usize, 8] {
            let mut spmd = SpmdVm::with_model(&exe, &tex, model, lanes).expect("spmd init");
            let mut oracle = Interpreter::with_model(&shader, &tex, model).expect("interp init");
            let lane_seed = |lane: usize| seed ^ (lane as u64).wrapping_mul(0x9E37_79B9);
            for lane in 0..lanes {
                for (name, value) in uniforms(lane_seed(lane)) {
                    let slot = spmd.global_slot(name).expect("spmd uniform slot");
                    spmd.set_lane_slot(lane, slot, value);
                }
            }
            let batch = spmd.run_batch(lanes);
            let stop = match &batch {
                Ok(()) => lanes,
                Err(e) => e.lane,
            };
            for lane in 0..stop {
                for (name, value) in uniforms(lane_seed(lane)) {
                    oracle.set_global(name, value).expect("oracle uniform");
                }
                oracle.run_main().unwrap_or_else(|e| {
                    panic!(
                        "tree-walker oracle trapped before the SPMD batch did \
                         (seed {seed}, {model:?}, lane {lane}): {e}\n{src}"
                    )
                });
                assert!(
                    spmd.completed(lane),
                    "lane {lane} not retired (seed {seed}, {model:?})\n{src}"
                );
                assert_eq!(
                    spmd.discarded(lane),
                    oracle.discarded(),
                    "SPMD lane {lane} discard flag diverged (seed {seed}, {model:?})\n{src}"
                );
                // Discarded lanes never write a colour; the reused
                // oracle keeps the previous invocation's value there.
                if !oracle.discarded() {
                    assert_eq!(
                        spmd.frag_color(lane).map(|c| c.map(f32::to_bits)),
                        oracle.frag_color().map(|c| c.map(f32::to_bits)),
                        "SPMD lane {lane} colour diverged (seed {seed}, {model:?}, {lanes} lanes)\n{src}"
                    );
                }
            }
            match batch {
                Ok(()) => assert_eq!(
                    spmd.profile(),
                    oracle.profile(),
                    "SPMD aggregate profile diverged (seed {seed}, {model:?}, {lanes} lanes)\n{src}"
                ),
                Err(e) => {
                    for (name, value) in uniforms(lane_seed(e.lane)) {
                        oracle.set_global(name, value).expect("oracle uniform");
                    }
                    let se = oracle
                        .run_main()
                        .expect_err("SPMD trapped where the tree-walker oracle succeeded");
                    assert_eq!(
                        e.error.to_string(),
                        se.to_string(),
                        "SPMD trap diverged (seed {seed}, {model:?}, lane {})\n{src}",
                        e.lane
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated programs behave identically on the SPMD VM and the
    /// tree-walker under every float model.
    #[test]
    fn vm_matches_interpreter_on_generated_programs(seed in 0u64..1_000_000) {
        check_program(seed);
    }
}

/// A handful of fixed seeds always run, independent of `PROPTEST_CASES`,
/// so the suite cannot silently lose coverage.
#[test]
fn vm_matches_interpreter_on_fixed_seeds() {
    for seed in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 12345, 999_999] {
        check_program(seed);
    }
}

/// Calls whose callee only the argument types decide run the right
/// function on every executor. A user function may overload a builtin's
/// name with parameter types no builtin overload takes: sema accepts
/// `float floor(int)`, so `floor(int(u))` must run it instead of
/// trapping in the builtin `floor`, while `floor(u)` stays the builtin.
/// And each same-arity user overload (`g(float)`, `g(vec2)`) must be
/// lowered and picked by type.
#[test]
fn overloads_picked_by_argument_types_run_on_every_executor() {
    let src = "precision highp float;\nuniform float u;\n\
               float floor(int v) { return float(v) + 0.25; }\n\
               float g(float v) { return v * 2.0; }\n\
               float g(vec2 v) { return v.x - v.y; }\n\
               void main() {\n\
                 gl_FragColor = vec4(floor(int(u)), floor(u), g(u), g(vec2(u, 0.5)));\n\
               }";
    let shader = compile(ShaderKind::Fragment, src).expect("compiles");
    let exe = lower(&shader).expect("lowers");
    let tex = NoTextures;
    let u = |lane: usize| lane as f32 * 1.5 - 4.75;
    let expect = |u: f32| [(u as i32) as f32 + 0.25, u.floor(), u * 2.0, u - 0.5];
    for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
        let mut oracle = Interpreter::with_model(&shader, &tex, model).expect("interp");
        oracle.set_global("u", Value::Float(2.75)).expect("uniform");
        oracle
            .run_main()
            .expect("the tree-walker runs the user overload");
        assert_eq!(oracle.frag_color(), Some(expect(2.75)), "{model:?}");
        let mut one = SpmdVm::with_model(&exe, &tex, model, 1).expect("vm");
        one.set_global("u", Value::Float(2.75)).expect("uniform");
        one.run_batch(1).expect("SPMD-1 runs the user overload");
        assert_eq!(one.frag_color(0), oracle.frag_color(), "{model:?}");
        assert_eq!(one.profile(), oracle.profile(), "{model:?}");

        let mut oracle = Interpreter::with_model(&shader, &tex, model).expect("interp");
        let mut eight = SpmdVm::with_model(&exe, &tex, model, 8).expect("vm");
        let slot = eight.global_slot("u").expect("slot");
        for lane in 0..8 {
            eight.set_lane_slot(lane, slot, Value::Float(u(lane)));
        }
        eight.run_batch(8).expect("SPMD-8 runs the user overload");
        for lane in 0..8 {
            oracle
                .set_global("u", Value::Float(u(lane)))
                .expect("uniform");
            oracle.run_main().expect("tree-walker");
            let color = oracle.frag_color();
            assert_eq!(color, Some(expect(u(lane))), "{model:?} lane {lane}");
            assert_eq!(eight.frag_color(lane), color, "{model:?} lane {lane}");
        }
        assert_eq!(eight.profile(), oracle.profile(), "{model:?}");
    }
}
