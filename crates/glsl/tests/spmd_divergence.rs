//! Divergence-focused differential testing for the SPMD lane VM.
//!
//! Where `vm_differential.rs` sweeps the whole language surface, this
//! suite generates programs that are *pathologically branchy* — nested
//! `if`/`else` keyed on per-lane uniforms, `discard` inside branches,
//! short-circuit `&&`/`||`, and loops whose `break`/`continue` depth
//! depends on lane data — then runs them under `Spmd{1}`, `Spmd{4}` and
//! `Spmd{8}`
//! at every batch width from one lane up to full occupancy (the
//! partial-band tails the rasteriser produces at band edges).
//!
//! The remaining shapes target the VM's slot-ownership rule (a write
//! the running context owns goes wholesale, one below a deferred
//! context's stack or locals floor stays masked): helper functions that
//! `return` early under a divergent condition, called in the middle of
//! an expression, so a `Ret` lands below a sibling's stack depth;
//! sibling branches that declare locals of different types in the same
//! frame slot; `vec4` temporaries feeding a divergent `?:`; and user
//! calls (with `inout`/`out` parameters) inside divergent branches.
//!
//! The oracle is the tree-walking interpreter, run
//! invocation-by-invocation in lane order. Everything must be
//! bit-identical: colour bits, discard and output flags, aggregate
//! `OpProfile` counters, and trap messages.

use gpes_glsl::exec::{FloatModel, NoTextures};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::spmd::SpmdVm;
use gpes_glsl::{compile, lower, ShaderKind, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Branch-heavy generator
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
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
        let v = (self.next() % 2000) as f32 / 100.0 - 10.0;
        (v * 100.0).round() / 100.0
    }
}

struct Gen {
    rng: Rng,
    next_id: u32,
    /// `float hK(float x, vec4 v)` helpers defined so far.
    helpers: u64,
}

/// Local types two sibling branches may declare in the same frame slot:
/// (type, initialiser, a float expression reading the local `t`).
const SIBLING_LOCALS: [(&str, &str, &str); 5] = [
    ("float", "acc * 0.5", "t"),
    ("vec2", "vec2(acc, u_b)", "(t.x - t.y)"),
    ("vec4", "u_v * acc", "dot(t, u_v)"),
    ("int", "int(acc)", "float(t)"),
    ("bool", "acc > u_a", "(t ? 1.0 : -1.0)"),
];

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: Rng::new(seed),
            next_id: 0,
            helpers: 0,
        }
    }

    /// A call to a random helper defined so far.
    fn call(&mut self, x: &str, v: &str) -> String {
        let k = self.rng.below(self.helpers);
        format!("h{k}({x}, {v})")
    }

    /// Helper `hK`: early `return`s under conditions on its arguments,
    /// vector locals, and (past the first helper) a call to an earlier
    /// helper inside a divergent branch.
    fn helper(&mut self, out: &mut String) {
        let k = self.helpers;
        let sw = ["x", "y", "z", "w"][self.rng.below(4) as usize];
        let (c0, c1, t0) = (self.rng.flt(), self.rng.flt(), self.rng.flt());
        out.push_str(&format!(
            "float h{k}(float x, vec4 v) {{\n\
             \x20   float t = x * {c0:?} + v.{sw};\n\
             \x20   if (t > {t0:?}) {{ return t; }}\n\
             \x20   vec2 w = vec2(t, x) * {c1:?};\n"
        ));
        if k > 0 {
            let inner = self.call("w.y", "v.wzyx");
            out.push_str(&format!("    if (w.x < w.y) {{ t += {inner}; }}\n"));
        }
        out.push_str(
            "    if (w.x > v.x) { return w.x - w.y; }\n\
             \x20   return fract(t) + v.w;\n\
             }\n",
        );
        self.helpers += 1;
    }

    /// A scalar expression over the uniforms — cheap on purpose; the
    /// interesting structure lives in the control flow around it.
    fn scalar(&mut self) -> String {
        match self.rng.below(6) {
            0 => format!("{:?}", self.rng.flt()),
            1 => "u_a".into(),
            2 => "u_b".into(),
            3 => {
                let sw = ["x", "y", "z", "w"][self.rng.below(4) as usize];
                format!("u_v.{sw}")
            }
            4 => format!("(u_a * {:?})", self.rng.flt()),
            _ => format!("fract(u_b + {:?})", self.rng.flt()),
        }
    }

    /// A comparison that genuinely splits lanes fed different uniforms.
    fn cmp(&mut self) -> String {
        let a = self.scalar();
        let b = self.scalar();
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.below(6) as usize];
        format!("{a} {op} {b}")
    }

    /// Conditions lean hard on short-circuit `&&`/`||`: under SPMD the
    /// right-hand side must only run for the lanes still undecided.
    fn cond(&mut self) -> String {
        match self.rng.below(4) {
            0 => self.cmp(),
            1 => {
                let a = self.cmp();
                let b = self.cmp();
                format!("({a}) && ({b})")
            }
            2 => {
                let a = self.cmp();
                let b = self.cmp();
                format!("({a}) || ({b})")
            }
            _ => {
                let a = self.cmp();
                let b = self.cmp();
                let c = self.cmp();
                format!("(({a}) && ({b})) || ({c})")
            }
        }
    }

    fn stmt(&mut self, out: &mut String, indent: usize, depth: u32) {
        let pad = "    ".repeat(indent);
        match self.rng.below(if depth < 3 { 11 } else { 3 }) {
            0 => {
                let e = self.scalar();
                out.push_str(&format!("{pad}acc += {e};\n"));
            }
            1 => {
                let c = self.cond();
                let a = self.scalar();
                let b = self.scalar();
                out.push_str(&format!("{pad}acc = ({c}) ? {a} : {b};\n"));
            }
            2 => {
                let c = self.cond();
                out.push_str(&format!("{pad}if ({c}) {{ discard; }}\n"));
            }
            3 => {
                // Nested divergence: lanes that took this branch may
                // split again inside it.
                let c = self.cond();
                out.push_str(&format!("{pad}if ({c}) {{\n"));
                self.stmt(out, indent + 1, depth + 1);
                self.stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}}} else {{\n"));
                self.stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            4 => {
                let c = self.cond();
                out.push_str(&format!("{pad}if ({c}) {{\n"));
                self.stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            5 => {
                // Loop with a data-dependent early exit: trip count
                // differs per lane, so reconvergence happens at the
                // loop's merge point, not per iteration.
                self.next_id += 1;
                let i = format!("i{}", self.next_id);
                let n = 2 + self.rng.below(6);
                let t = self.rng.flt();
                let exit = ["break", "continue"][self.rng.below(2) as usize];
                out.push_str(&format!(
                    "{pad}for (int {i} = 0; {i} < {n}; {i}++) {{\n\
                     {pad}    if (acc * float({i}) > {t:?}) {{ {exit}; }}\n\
                     {pad}    acc += float({i}) * 0.125;\n"
                ));
                if depth < 2 {
                    self.stmt(out, indent + 1, depth + 2);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            7 => {
                // An early-returning helper mid-expression: the partial
                // sum sits on the stack under the call's arguments.
                let e = self.scalar();
                let call = self.call("acc", "u_v");
                let c = self.rng.flt();
                out.push_str(&format!("{pad}acc = {e} + {call} * {c:?};\n"));
            }
            8 => {
                // Sibling branches declaring differently typed locals in
                // the same frame slot.
                let c = self.cond();
                let n = SIBLING_LOCALS.len() as u64;
                let (t1, init1, use1) = SIBLING_LOCALS[self.rng.below(n) as usize];
                let (t2, init2, use2) = SIBLING_LOCALS[self.rng.below(n) as usize];
                out.push_str(&format!(
                    "{pad}if ({c}) {{\n\
                     {pad}    {t1} t = {init1};\n"
                ));
                self.stmt(out, indent + 1, depth + 1);
                out.push_str(&format!(
                    "{pad}    acc += {use1};\n\
                     {pad}}} else {{\n\
                     {pad}    {t2} t = {init2};\n\
                     {pad}    acc -= {use2};\n\
                     {pad}}}\n"
                ));
            }
            9 => {
                // vec4 temporaries feeding a divergent `?:`, one arm a
                // helper call.
                self.next_id += 1;
                let id = self.next_id;
                let c = self.cond();
                let k = self.rng.flt();
                let call = self.call(&format!("q{id}.y"), &format!("q{id}"));
                out.push_str(&format!(
                    "{pad}vec4 q{id} = vec4(acc, u_a, u_b, 1.0) * {k:?};\n\
                     {pad}vec4 r{id} = ({c}) ? q{id} : q{id}.wzyx + u_v;\n\
                     {pad}acc += r{id}.x - r{id}.z + (({c}) ? {call} : q{id}.w);\n"
                ));
            }
            10 => {
                // User calls inside divergent branches, one with
                // `inout`/`out` copy-back.
                self.next_id += 1;
                let id = self.next_id;
                let c = self.cond();
                let call = self.call("acc", "u_v.yxwz");
                out.push_str(&format!(
                    "{pad}vec4 o{id} = u_v;\n\
                     {pad}if ({c}) {{\n\
                     {pad}    acc = {call};\n\
                     {pad}}} else {{\n\
                     {pad}    hio(acc, o{id});\n\
                     {pad}    acc += o{id}.y;\n\
                     {pad}}}\n"
                ));
            }
            _ => {
                // Divergent discard nested under another branch.
                let c1 = self.cond();
                let c2 = self.cond();
                out.push_str(&format!(
                    "{pad}if ({c1}) {{\n\
                     {pad}    if ({c2}) {{ discard; }}\n\
                     {pad}    acc *= 0.5;\n\
                     {pad}}}\n"
                ));
            }
        }
    }

    fn program(&mut self) -> String {
        let mut src = String::from(
            "precision highp float;\n\
             uniform float u_a;\nuniform float u_b;\nuniform vec4 u_v;\nuniform int u_i;\n",
        );
        for _ in 0..1 + self.rng.below(3) {
            self.helper(&mut src);
        }
        let t = self.rng.flt();
        src.push_str(&format!(
            "void hio(inout float x, out vec4 o) {{\n\
             \x20   o = vec4(x, x * 0.5, 1.0, 0.0);\n\
             \x20   if (x < {t:?}) {{ x = x + 1.0; return; }}\n\
             \x20   x = x * 0.25;\n\
             \x20   o = o.wzyx;\n\
             }}\n\
             void main() {{\n\
             \x20   float acc = u_a;\n"
        ));
        let n = 4 + self.rng.below(5);
        for _ in 0..n {
            self.stmt(&mut src, 1, 0);
        }
        src.push_str("    gl_FragColor = vec4(acc, u_b - acc, fract(acc), 1.0);\n}\n");
        src
    }
}

// ---------------------------------------------------------------------------
// Harness
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

fn check_divergent(seed: u64) {
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
    let lane_seed = |lane: usize| seed ^ (lane as u64).wrapping_mul(0x9E37_79B9);
    for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
        for lanes in [1usize, 4, 8] {
            // Every batch width, including the partial tails a band edge
            // produces: active < lanes leaves the trailing lanes idle.
            for active in 1..=lanes {
                let mut spmd = SpmdVm::with_model(&exe, &tex, model, lanes).expect("spmd init");
                let mut oracle =
                    Interpreter::with_model(&shader, &tex, model).expect("interp init");
                for lane in 0..active {
                    for (name, value) in uniforms(lane_seed(lane)) {
                        let slot = spmd.global_slot(name).expect("spmd uniform slot");
                        spmd.set_lane_slot(lane, slot, value);
                    }
                }
                let batch = spmd.run_batch(active);
                let stop = match &batch {
                    Ok(()) => active,
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
                        "lane {lane} discard flag diverged (seed {seed}, {model:?})\n{src}"
                    );
                    // A discarded lane never writes its colour: the
                    // sequentially-reused oracle keeps the previous
                    // invocation's value there, so only compare colours
                    // for surviving lanes (what the rasteriser consumes).
                    if !oracle.discarded() {
                        assert_eq!(
                            spmd.frag_color(lane).map(|c| c.map(f32::to_bits)),
                            oracle.frag_color().map(|c| c.map(f32::to_bits)),
                            "lane {lane} diverged from tree-walker (seed {seed}, {model:?}, \
                             {lanes} lanes, {active} active)\n{src}"
                        );
                    }
                    assert_eq!(
                        spmd.wrote_outputs(lane),
                        oracle.wrote_outputs(),
                        "lane {lane} output flags diverged (seed {seed}, {model:?})\n{src}"
                    );
                }
                match batch {
                    Ok(()) => assert_eq!(
                        spmd.profile(),
                        oracle.profile(),
                        "aggregate profile diverged from tree-walker (seed {seed}, \
                         {model:?}, {lanes} lanes, {active} active)\n{src}"
                    ),
                    Err(e) => {
                        for (name, value) in uniforms(lane_seed(e.lane)) {
                            oracle.set_global(name, value).expect("oracle uniform");
                        }
                        let oe = oracle
                            .run_main()
                            .expect_err("SPMD trapped where the tree-walker oracle succeeded");
                        assert_eq!(
                            e.error.to_string(),
                            oe.to_string(),
                            "trap diverged (seed {seed}, {model:?}, lane {})\n{src}",
                            e.lane
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Branch-heavy generated programs stay bit-identical between the
    /// SPMD VM and the tree-walker at every batch width.
    #[test]
    fn spmd_matches_oracles_on_divergent_programs(seed in 0u64..1_000_000) {
        check_divergent(seed);
    }
}

/// Fixed seeds always run, independent of `PROPTEST_CASES`.
#[test]
fn spmd_matches_oracles_on_fixed_seeds() {
    for seed in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 4242, 777_777] {
        check_divergent(seed);
    }
}
