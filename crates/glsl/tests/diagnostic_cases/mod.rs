//! The malformed-source cases `front_end_diagnostics` pins, and the
//! sources at admission's limits it admits, shared with the suites that
//! check other front-end paths against them.

use gpes_glsl::AdmissionStage;
use std::sync::LazyLock;

#[derive(Clone, Copy)]
pub struct Case {
    pub name: &'static str,
    pub source: &'static str,
    pub stage: AdmissionStage,
    /// `AdmissionDiagnostic::line`, which is also the error span's line.
    pub line: u32,
    pub col: u32,
    /// A fragment of the message, so a case cannot pass by failing for
    /// another reason at the same place.
    pub message: &'static str,
}

/// Sixteen `u` arguments.
macro_rules! sixteen_args {
    () => {
        "u, u, u, u, u, u, u, u, u, u, u, u, u, u, u, u, "
    };
}

/// A source at one of admission's limits that every front-end path
/// admits. It lowers to at most 64 instructions of its own plus its
/// `spliced_nodes`: linear in its size.
pub struct Admitted {
    pub name: &'static str,
    pub source: String,
}

/// `main` → `f{calls - 1}` → … → `f0`: `calls` calls nested in each
/// other.
pub fn call_chain(calls: usize) -> String {
    let mut src = String::from(
        "precision highp float;\nuniform float u;\nfloat f0(float x) { return x + 1.0; }\n",
    );
    for k in 1..calls {
        src += &format!("float f{k}(float x) {{ return f{}(x) + 1.0; }}\n", k - 1);
    }
    src + &format!(
        "void main() {{ gl_FragColor = vec4(f{}(u)); }}\n",
        calls - 1
    )
}

pub static ADMITTED: LazyLock<Vec<Admitted>> = LazyLock::new(|| {
    vec![
        Admitted {
            name: "lvalues read and written nested sixteen deep",
            source: "precision highp float;\nvoid main() {\n  int i[2];\n  float a[2];\n  \
                 a[i[i[i[i[i[i[i[i[i[i[i[i[i[i[i[i[0]++]++]++]++]++]++]++]++]++]++]++]++]++]++]++]++] = 1.0;\n  \
                 gl_FragColor = vec4(a[0]);\n}\n"
                .into(),
        },
        Admitted {
            name: "nested read-and-written lvalues in a doubling call tree",
            source: "precision highp float;\nint f0(int x) {\n  int i[2];\n  i[0] = x;\n  \
                 return i[i[i[i[i[i[i[i[i[0]++]++]++]++]++]++]++]++]++;\n}\n\
                 int f1(int x) { return f0(x) + f0(x); }\n\
                 int f2(int x) { return f1(x) + f1(x); }\n\
                 int f3(int x) { return f2(x) + f2(x); }\n\
                 void main() { gl_FragColor = vec4(float(f3(1))); }\n"
                .into(),
        },
        Admitted {
            name: "calls nested sixty-four deep",
            source: call_chain(64),
        },
    ]
});

pub static CASES: LazyLock<Vec<Case>> = LazyLock::new(|| {
    let mut cases = CONST_CASES.to_vec();
    cases.push(Case {
        name: "calls nested sixty-five deep",
        // The generated source lives as long as the cases.
        source: call_chain(65).leak(),
        stage: AdmissionStage::Sema,
        line: 4,
        col: 28,
        message: "calls nest more than 64 deep through this call to `f0`",
    });
    cases
});

const CONST_CASES: &[Case] = &[
    Case {
        name: "unterminated block comment after a line comment",
        source: "precision highp float;\n// a line comment /* is not a block\n\
                 void main() {\n/* never closed\n  gl_FragColor = vec4(1.0);\n}\n",
        stage: AdmissionStage::Parse,
        line: 6,
        col: 1,
        message: "unterminated block",
    },
    Case {
        name: "#if without #endif",
        source: "precision highp float;\n#if 1\nvoid main() {\n  gl_FragColor = vec4(1.0);\n}\n",
        stage: AdmissionStage::Parse,
        line: 5,
        col: 1,
        message: "#if without #endif",
    },
    Case {
        name: "reserved word",
        source: "precision highp float;\nvoid main() {\n  float goto = 1.0;\n  \
                 gl_FragColor = vec4(goto);\n}\n",
        stage: AdmissionStage::Parse,
        line: 3,
        col: 9,
        message: "`goto` is a reserved word",
    },
    Case {
        name: "double-underscore identifier",
        source: "precision highp float;\nvoid main() {\n  float a__b = 1.0;\n  \
                 gl_FragColor = vec4(a__b);\n}\n",
        stage: AdmissionStage::Parse,
        line: 3,
        col: 9,
        message: "contains `__`",
    },
    Case {
        name: "malformed octal literal",
        source: "precision highp float;\nvoid main() {\n  int i = 09;\n  \
                 gl_FragColor = vec4(float(i));\n}\n",
        stage: AdmissionStage::Parse,
        line: 3,
        col: 11,
        message: "malformed octal literal `09`",
    },
    Case {
        name: "overflowing hex literal",
        source: "precision highp float;\nvoid main() {\n  int i = 0x80000000;\n  \
                 gl_FragColor = vec4(float(i));\n}\n",
        stage: AdmissionStage::Parse,
        line: 3,
        col: 11,
        message: "integer literal overflows",
    },
    Case {
        name: "parse error after a multi-line block comment",
        source:
            "precision highp float;\n/* a comment\n   over three\n   lines */ void main() {\n  \
                 float x = ;\n  gl_FragColor = vec4(x);\n}\n",
        stage: AdmissionStage::Parse,
        line: 5,
        col: 13,
        message: "unexpected `;` in expression",
    },
    Case {
        name: "comment columns collapse to one space",
        source: "precision highp float;\nvoid main() { /* two\n words */ float x = ;\n  \
                 gl_FragColor = vec4(x);\n}\n",
        stage: AdmissionStage::Parse,
        line: 3,
        col: 12,
        message: "unexpected `;` in expression",
    },
    Case {
        name: "strict error",
        source: "precision highp float;\nvoid main() {\n  float s = 0.0;\n  \
                 while (s < 4.0) { s += 1.0; }\n  gl_FragColor = vec4(s);\n}\n",
        stage: AdmissionStage::Strict,
        line: 4,
        col: 3,
        message: "while",
    },
    Case {
        name: "sema error",
        source: "precision highp float;\nuniform float u;\nvoid main() {\n  \
                 gl_FragColor = vec4(u + 1);\n}\n",
        stage: AdmissionStage::Sema,
        line: 4,
        col: 23,
        message: "cannot combine float and int",
    },
    Case {
        name: "direct recursion",
        source: "precision highp float;\nuniform float u;\nfloat f(float x) {\n  \
                 return x > 1.0 ? f(x - 1.0) : x;\n}\nvoid main() {\n  \
                 gl_FragColor = vec4(f(u));\n}\n",
        stage: AdmissionStage::Sema,
        line: 4,
        col: 20,
        message: "recursive call to `f`",
    },
    Case {
        name: "mutual recursion",
        source: "precision highp float;\nuniform float u;\nfloat g(float x);\n\
                 float f(float x) { return x > 1.0 ? g(x * 0.5) : x; }\n\
                 float g(float x) { return f(x) + 1.0; }\n\
                 void main() { gl_FragColor = vec4(f(u)); }\n",
        stage: AdmissionStage::Sema,
        line: 5,
        col: 27,
        message: "recursive call to `f`",
    },
    Case {
        name: "a doubling call tree past the splice limit",
        source: "precision highp float;\nuniform float u;\n\
                 float f0(float x) { return x + 1.0; }\n\
                 float f1(float x) { return f0(x) + f0(x); }\n\
                 float f2(float x) { return f1(x) + f1(x); }\n\
                 float f3(float x) { return f2(x) + f2(x); }\n\
                 float f4(float x) { return f3(x) + f3(x); }\n\
                 float f5(float x) { return f4(x) + f4(x); }\n\
                 float f6(float x) { return f5(x) + f5(x); }\n\
                 float f7(float x) { return f6(x) + f6(x); }\n\
                 float f8(float x) { return f7(x) + f7(x); }\n\
                 float f9(float x) { return f8(x) + f8(x); }\n\
                 float f10(float x) { return f9(x) + f9(x); }\n\
                 float f11(float x) { return f10(x) + f10(x); }\n\
                 void main() { gl_FragColor = vec4(f11(u)); }\n",
        stage: AdmissionStage::Sema,
        line: 14,
        col: 38,
        message: "expands past 16384 nodes",
    },
    Case {
        name: "call to a prototype never defined",
        source: "precision highp float;\nuniform float u;\nfloat hook(float x);\n\
                 float unused() { return hook(1.0); }\n\
                 void main() { gl_FragColor = vec4(hook(u)); }\n",
        stage: AdmissionStage::Sema,
        line: 5,
        col: 35,
        message: "`hook` is called but never defined",
    },
    Case {
        name: "a call of 257 arguments",
        source: concat!(
            "precision highp float;\nuniform float u;\nvoid main() {\n  float x = g(",
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            sixteen_args!(),
            "u);\n  gl_FragColor = vec4(x);\n}\n"
        ),
        stage: AdmissionStage::Sema,
        line: 4,
        col: 13,
        message: "call to `g` has more than 255 arguments",
    },
    Case {
        name: "an lvalue indexed nine times",
        source: "precision highp float;\nuniform float u;\nvoid main() {\n  mat4 a[2];\n  \
                 a[0][0][0][0][0][0][0][0][0] = u;\n  gl_FragColor = a[1][0];\n}\n",
        stage: AdmissionStage::Sema,
        line: 5,
        col: 3,
        message: "type float cannot be indexed",
    },
];
