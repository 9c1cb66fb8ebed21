//! Where the front end points when it refuses a source.
//!
//! Each malformed source in `diagnostic_cases` is refused at a fixed
//! admission stage and line, and the strict compile's `CompileError`
//! points at a fixed line and column; the permissive compile refuses
//! every case past the strict stage with the same error. The front end
//! may be rewritten for speed, but a tenant's diagnostic must keep
//! saying the same thing about the same place. The sources at
//! admission's limits are admitted by every path, and lower to code
//! linear in their size.

use gpes_glsl::{admit, compile, compile_strict, lower, AdmissionStage, ShaderKind};

mod diagnostic_cases;

use diagnostic_cases::{ADMITTED, CASES};

#[test]
fn malformed_sources_are_refused_at_the_same_stage_line_and_column() {
    for case in CASES.iter() {
        let diag = admit(ShaderKind::Fragment, case.source)
            .expect_err(&format!("{}: admitted", case.name));
        let err = compile_strict(ShaderKind::Fragment, case.source)
            .expect_err(&format!("{}: compiled", case.name));
        assert_eq!(
            (diag.stage, diag.line),
            (case.stage, case.line),
            "{}: {diag}",
            case.name
        );
        assert_eq!(
            (err.span.line, err.span.col),
            (case.line, case.col),
            "{}: {err}",
            case.name
        );
        assert_eq!(diag.message, err.message, "{}", case.name);
        if case.stage != AdmissionStage::Strict {
            let permissive = compile(ShaderKind::Fragment, case.source)
                .expect_err(&format!("{}: compiled permissively", case.name));
            assert_eq!(permissive, err, "{}", case.name);
        }
        assert!(
            err.message.contains(case.message),
            "{}: `{}` does not mention `{}`",
            case.name,
            err.message,
            case.message
        );
    }
}

#[test]
fn sources_at_the_limits_are_admitted_and_lower_linearly() {
    for case in ADMITTED.iter() {
        admit(ShaderKind::Fragment, &case.source)
            .unwrap_or_else(|e| panic!("{}: refused: {e}", case.name));
        compile_strict(ShaderKind::Fragment, &case.source)
            .unwrap_or_else(|e| panic!("{}: strict: {e}", case.name));
        let shader = compile(ShaderKind::Fragment, &case.source)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let lowered = lower(&shader).expect("lowers").code_len();
        let spliced = shader.spliced_nodes() as usize;
        assert!(
            lowered <= 64 + spliced,
            "{}: {lowered} instructions > 64 + {spliced}",
            case.name
        );
    }
}
