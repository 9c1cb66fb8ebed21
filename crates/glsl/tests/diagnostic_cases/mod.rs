//! The malformed-source cases `front_end_diagnostics` pins, shared with
//! the suites that check other front-end paths against them.

use gpes_glsl::AdmissionStage;

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

pub const CASES: &[Case] = &[
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
];
