//! Differential tests of spliced user calls: lowering copies each
//! callee's body into its caller, so the cases where a call's frame, its
//! returns and its parameters could go wrong must still behave
//! **bit-identically** on the SPMD VM (one-lane and eight-lane batches)
//! and the tree-walking interpreter under every float model: same colour
//! bits, discard flags and `OpProfile` counts (`calls` included), and,
//! where a lane traps, the same lane and runtime error (and, for
//! one-lane batches, the same profile; an eight-lane run that traps
//! leaves a torn profile, as in `vm_differential`). An lvalue both read
//! and written evaluates its indices once; those cases also check the
//! value GLSL ES gives, since both executors could agree on a wrong one.

use gpes_glsl::exec::{FloatModel, NoTextures};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::spmd::SpmdVm;
use gpes_glsl::{compile, lower, ShaderKind, Value};

const MODELS: [FloatModel; 3] = [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16];

/// Per-lane values of `u_in`: both signs, zero, integers the cases
/// branch on and fractions between them.
const INPUTS: [f32; 8] = [-1.5, 0.0, 0.75, 1.0, 2.5, 3.0, 5.5, 7.25];

const P: &str = "precision highp float;\nuniform float u_in;\n";

/// Runs `src` on every input, in SPMD batches of 1 and of 8 lanes and on
/// the tree-walker, under every float model, and asserts they agree, and
/// that each lane that completes gives colour `expected`, where given.
/// Returns the first input that traps and its error, which every
/// configuration must agree on too.
fn differential(src: &str, inputs: &[f32], expected: Option<[f32; 4]>) -> Option<(usize, String)> {
    let shader = compile(ShaderKind::Fragment, src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let exe = lower(&shader).expect("lowers");
    let tex = NoTextures;
    let mut agreed: Option<Option<(usize, String)>> = None;
    for model in MODELS {
        for lanes in [1usize, 8] {
            let mut vm = SpmdVm::with_model(&exe, &tex, model, lanes).expect("vm");
            let mut oracle = Interpreter::with_model(&shader, &tex, model).expect("oracle");
            let slot = vm.global_slot("u_in").expect("u_in");
            let mut trapped = None;
            for (b, batch) in inputs.chunks(lanes).enumerate() {
                for (lane, &x) in batch.iter().enumerate() {
                    vm.set_lane_slot(lane, slot, Value::Float(x));
                }
                let result = vm.run_batch(batch.len());
                let stop = result.as_ref().err().map_or(batch.len(), |e| e.lane);
                for (lane, &x) in batch.iter().enumerate().take(stop) {
                    oracle.set_global("u_in", Value::Float(x)).expect("u_in");
                    oracle.run_main().unwrap_or_else(|e| {
                        panic!("the oracle trapped on {x} where the VM did not ({model:?}): {e}\n{src}")
                    });
                    assert!(vm.completed(lane), "{x} not retired\n{src}");
                    assert_eq!(
                        vm.discarded(lane),
                        oracle.discarded(),
                        "discard on {x}\n{src}"
                    );
                    if !oracle.discarded() {
                        assert_eq!(
                            vm.frag_color(lane).map(|c| c.map(f32::to_bits)),
                            oracle.frag_color().map(|c| c.map(f32::to_bits)),
                            "colour on {x} ({model:?}, {lanes} lanes)\n{src}"
                        );
                    }
                    if expected.is_some() {
                        assert_eq!(
                            (vm.frag_color(lane), oracle.frag_color()),
                            (expected, expected),
                            "value on {x} ({model:?}, {lanes} lanes)\n{src}"
                        );
                    }
                }
                if let Err(e) = result {
                    let x = batch[e.lane];
                    oracle.set_global("u_in", Value::Float(x)).expect("u_in");
                    let expected = oracle
                        .run_main()
                        .expect_err("the oracle traps where the VM did");
                    assert_eq!(
                        e.error.to_string(),
                        expected.to_string(),
                        "trap on {x} ({model:?}, {lanes} lanes)\n{src}"
                    );
                    trapped = Some((b * lanes + e.lane, expected.to_string()));
                    break;
                }
            }
            // A trap leaves the profile of a torn run, exact only where
            // each lane runs alone.
            if trapped.is_none() || lanes == 1 {
                assert_eq!(
                    vm.profile(),
                    oracle.profile(),
                    "profiles ({model:?}, {lanes} lanes)\n{src}"
                );
            }
            match &agreed {
                None => agreed = Some(trapped),
                Some(first) => assert_eq!(first, &trapped, "{model:?}, {lanes} lanes\n{src}"),
            }
        }
    }
    agreed.flatten()
}

fn runs_clean(src: &str) {
    let trap = differential(src, &INPUTS, None);
    assert_eq!(trap, None, "{src}");
}

/// [`runs_clean`], every lane giving colour `expected`.
fn gives(src: &str, expected: [f32; 4]) {
    let trap = differential(src, &INPUTS, Some(expected));
    assert_eq!(trap, None, "{src}");
}

#[test]
fn a_return_inside_a_callees_loops_leaves_them() {
    runs_clean(&format!(
        "{P}float find(float v) {{
            for (int i = 0; i < 8; i++) {{
                if (float(i) > v) {{ return float(i) * 0.5; }}
                for (int j = 0; j < 3; j++) {{
                    if (float(i + j) * 1.5 > v + 2.0) {{ return -float(j); }}
                }}
            }}
            return v;
        }}
        float count(float v) {{
            float s = 0.0;
            int k = 0;
            while (k < 6) {{
                k++;
                if (float(k) > v) {{ break; }}
                s += 0.25;
            }}
            return s;
        }}
        void main() {{
            float a = find(u_in);
            float b = find(u_in * 0.5) + count(u_in);
            for (int i = 0; i < 2; i++) {{ a += find(b + float(i)); }}
            gl_FragColor = vec4(a, b, find(a + b), count(-u_in));
        }}"
    ));
}

#[test]
fn nested_splices_with_early_returns_reconverge() {
    runs_clean(&format!(
        "{P}float inner(float v) {{
            if (v < 0.0) {{ return -v; }}
            if (v > 4.0) {{ return 4.0; }}
            return v * 0.5;
        }}
        float middle(float v) {{
            if (v == 1.0) {{ return inner(v + 3.0); }}
            float w = inner(v) + inner(-v);
            return w > 2.0 ? inner(w) : w;
        }}
        vec4 outer(float v) {{
            if (v > 6.0) {{ return vec4(middle(v)); }}
            return vec4(middle(v), inner(v), middle(-v), 1.0);
        }}
        void main() {{ gl_FragColor = outer(u_in) + vec4(middle(u_in)); }}"
    ));
}

#[test]
fn a_written_in_parameter_is_a_copy() {
    runs_clean(&format!(
        "{P}float bump(float v) {{ v += 1.0; v *= 2.0; return v; }}
        float swap_sub(float a, float b) {{ float t = a; a = b; b = t; return a - b; }}
        float step_up(float v) {{ v++; return v; }}
        vec2 half_x(vec2 p) {{ p.x *= 0.5; return p; }}
        void main() {{
            float x = u_in;
            float y = bump(x);
            float z = swap_sub(x, y);
            vec2 p = vec2(x, y);
            vec2 q = half_x(p);
            gl_FragColor = vec4(x + step_up(x), y, z + p.x, q.x + bump(u_in));
        }}"
    ));
}

/// A call assigned to the variable it reads: the returns write the
/// variable, so the parameter cannot read it in place.
#[test]
fn a_call_assigned_to_its_own_argument() {
    runs_clean(&format!(
        "{P}float sq(float v) {{ if (v > 4.0) {{ return 4.0; }} return v * v + v; }}
        vec2 swap(vec2 p, float s) {{ return vec2(p.y, p.x) * s; }}
        void main() {{
            float x = u_in;
            x = sq(x);
            x = sq(x - 1.0) + sq(x);
            vec2 p = vec2(u_in, x);
            p = swap(p, p.x);
            gl_FragColor = vec4(x, p, sq(p.y));
        }}"
    ));
}

#[test]
fn a_global_the_callee_writes_is_read_as_passed() {
    runs_clean(&format!(
        "{P}float g = 0.5;
        float touch(float v) {{ g += v; return v * g; }}
        float twice(float v) {{ float a = touch(v); return a + touch(v); }}
        void main() {{
            g = u_in;
            float a = touch(g);
            float b = twice(g);
            gl_FragColor = vec4(a, b, g, touch(u_in));
        }}"
    ));
}

#[test]
fn a_callee_local_shadows_the_callers() {
    runs_clean(&format!(
        "{P}float f(float x) {{
            float y = x * 2.0;
            {{ float x = y + 1.0; y = x; }}
            return y;
        }}
        float g(float y) {{ float x = f(y); return x - y; }}
        void main() {{
            float y = u_in;
            float x = f(y);
            {{ float y = g(x); x += y; }}
            gl_FragColor = vec4(x, y, g(y), 1.0);
        }}"
    ));
}

#[test]
fn out_and_inout_parameters_store_back_after_an_early_return() {
    runs_clean(&format!(
        "{P}float split(float v, out float hi, inout float acc) {{
            hi = floor(v);
            if (v < 1.0) {{ return 0.0; }}
            acc += v;
            return fract(v);
        }}
        void main() {{
            float h; float acc = 0.5;
            float r = split(u_in, h, acc);
            float a[2];
            a[0] = 1.0; a[1] = 2.0;
            r += split(r + u_in, a[1], a[0]);
            gl_FragColor = vec4(r, h, acc, a[0] + a[1]);
        }}"
    ));
}

/// `break` outside a loop cannot reach the lowering: the checker
/// rejects it, in a function body as in `main`. Inside a callee's loop
/// it leaves the loop only.
#[test]
fn break_at_a_callees_top_level_is_rejected() {
    let src = format!("{P}float f(float v) {{ if (v > 2.0) {{ break; }} return v; }}\nvoid main() {{ gl_FragColor = vec4(f(u_in)); }}");
    let e = compile(ShaderKind::Fragment, &src).expect_err("break outside a loop");
    assert!(
        e.to_string().contains("break/continue outside of a loop"),
        "{e}"
    );
    runs_clean(&format!(
        "{P}float f(float v) {{
            float s = 0.0;
            for (int i = 0; i < 4; i++) {{ if (float(i) > v) {{ break; }} s += v; }}
            return s;
        }}
        void main() {{ gl_FragColor = vec4(f(u_in)); }}"
    ));
}

#[test]
fn discard_in_a_function_traps_like_the_oracle() {
    let src = format!(
        "{P}float f(float v) {{ if (v > 2.0) {{ discard; }} return v; }}
        void main() {{ if (u_in < 0.0) {{ discard; }} gl_FragColor = vec4(f(u_in)); }}"
    );
    let trap = differential(&src, &INPUTS, None);
    let (input, error) = trap.expect("a lane above 2 traps");
    assert_eq!(INPUTS[input], 2.5);
    assert!(error.contains("discard inside a function"), "{error}");
}

#[test]
fn a_missing_return_traps_like_the_oracle() {
    let src = format!(
        "{P}float f(float v) {{ if (v > 0.5) {{ return v * 2.0; }} }}
        void main() {{ gl_FragColor = vec4(u_in > -1.0 ? f(u_in) : 0.0); }}"
    );
    let trap = differential(&src, &INPUTS, None);
    let (input, error) = trap.expect("a lane at or below 0.5 traps");
    assert_eq!(INPUTS[input], 0.0);
    assert!(
        error.contains("`f` ended without returning a value"),
        "{error}"
    );
}

/// An lvalue is evaluated once: a compound assignment's and `++`'s
/// lvalue evaluates its index once, and reads and writes the element
/// that index named.
#[test]
fn a_compound_assignment_and_an_increment_evaluate_their_index_once() {
    for statement in ["a[i++] += 1.0;", "a[i++]++;", "++a[i++];"] {
        gives(
            &format!(
                "{P}void main() {{
                    int i = 0;
                    float a[2];
                    a[0] = 0.0; a[1] = 0.0;
                    {statement}
                    gl_FragColor = vec4(float(i), a[0], a[1], u_in - u_in);
                }}"
            ),
            [1.0, 1.0, 0.0, 0.0],
        );
    }
}

/// An `inout` argument's index is evaluated once, at the call: the
/// callee reads and the store back writes the element it named.
#[test]
fn an_inout_argument_evaluates_its_index_once() {
    gives(
        &format!(
            "{P}void bump(inout float v) {{ v += 1.0; }}
            void main() {{
                int i = 0;
                float a[2];
                a[0] = 0.0; a[1] = 0.0;
                bump(a[i++]);
                gl_FragColor = vec4(float(i), a[0], a[1], u_in - u_in);
            }}"
        ),
        [1.0, 1.0, 0.0, 0.0],
    );
}

/// An `out` argument's element is fixed at the call (§6.1.1): the
/// callee writing the global the index reads does not move the copy
/// out.
#[test]
fn an_out_argument_copies_out_to_the_element_named_at_the_call() {
    gives(
        &format!(
            "{P}int g = 0;
            void set(out float v) {{ g = 2; v = 1.0; }}
            void main() {{
                float a[3];
                a[0] = 0.0; a[1] = 0.0; a[2] = 0.0;
                set(a[g]);
                gl_FragColor = vec4(float(g), a[0], a[1], a[2] + u_in - u_in);
            }}"
        ),
        [2.0, 1.0, 0.0, 0.0],
    );
}

/// Nested read-and-written lvalues: `i[0]++` yields 0 and makes `i[0]`
/// 1; `i[0]++` again yields 1 and makes it 2; `a[1]` is stored.
#[test]
fn nested_increments_in_an_index_evaluate_once_each() {
    gives(
        &format!(
            "{P}void main() {{
                int i[2];
                i[0] = 0; i[1] = 0;
                float a[2];
                a[0] = 0.0; a[1] = 0.0;
                a[i[i[0]++]++] = 1.0;
                gl_FragColor = vec4(float(i[0]), float(i[1]), a[0], a[1] + u_in - u_in);
            }}"
        ),
        [2.0, 0.0, 0.0, 1.0],
    );
}
