//! `Program::link` refuses each malformed fragment source of the glsl
//! crate's `diagnostic_cases` with the compile error the front end gives
//! it: the permissive link every case past the strict stage, the strict
//! link every case. Both links accept the sources at admission's limits.

use gpes_gles2::{GlError, Limits, Program};
use gpes_glsl::{compile, compile_strict, AdmissionStage, ShaderKind};

#[allow(dead_code)]
#[path = "../../glsl/tests/diagnostic_cases/mod.rs"]
mod diagnostic_cases;

const VS: &str = "attribute vec2 a_pos;\nvoid main() { gl_Position = vec4(a_pos, 0.0, 1.0); }";

#[test]
fn link_refuses_each_malformed_source_with_its_compile_error() {
    for case in diagnostic_cases::CASES.iter() {
        for strict in [false, true] {
            if !strict && case.stage == AdmissionStage::Strict {
                continue;
            }
            let expected = if strict {
                compile_strict(ShaderKind::Fragment, case.source)
            } else {
                compile(ShaderKind::Fragment, case.source)
            }
            .expect_err(case.name);
            match Program::link_with(VS, case.source, None, &Limits::default(), strict) {
                Err(GlError::Compile(e)) => {
                    assert_eq!(e, expected, "{} (strict {strict})", case.name)
                }
                other => panic!("{} (strict {strict}): {other:?}", case.name),
            }
        }
    }
}

#[test]
fn link_accepts_the_sources_at_the_limits() {
    for case in diagnostic_cases::ADMITTED.iter() {
        for strict in [false, true] {
            Program::link_with(VS, &case.source, None, &Limits::default(), strict)
                .unwrap_or_else(|e| panic!("{} (strict {strict}): {e:?}", case.name));
        }
    }
}
