//! The GLSL ES 1.00 preprocessor (specification §3.4).
//!
//! Runs before the lexer, exactly as in a real driver. Supported
//! directives: `#version`, `#define` (object and function macros),
//! `#undef`, `#ifdef`, `#ifndef`, `#if`, `#elif`, `#else`, `#endif`,
//! `#error`, `#pragma` (ignored), `#extension` and `#line` (parsed,
//! recorded, not remapped). Built-in macros: `GL_ES = 1`,
//! `__VERSION__ = 100`, `__LINE__`, `__FILE__ = 0`.
//!
//! Differences from C that the spec mandates and this implementation
//! keeps: no `#` / `##` operators, no line continuations, and `#if`
//! expressions are integer-only with `defined` support.
//!
//! Known limitation: a function-macro *invocation* must close its
//! argument list on the line it starts (expansion is line-at-a-time so
//! `__LINE__` stays exact); shader code in the wild does not split
//! macro calls across lines.
//!
//! Inactive and directive lines are replaced by empty lines in the output
//! so downstream lexer spans keep their original line numbers.

use crate::error::CompileError;
use crate::span::Span;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// How a shader requested an extension (`#extension name : behaviour`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtensionBehavior {
    /// Fail compilation if the extension is unsupported.
    Require,
    /// Enable with a warning if unsupported.
    Enable,
    /// Warn wherever the extension is used.
    Warn,
    /// Behave as if the extension is absent.
    Disable,
}

/// Result of preprocessing a shader source.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// The expanded source handed to the lexer (line numbers preserved).
    pub source: String,
    /// `#version` value if declared (only 100 is accepted).
    pub version: Option<u32>,
    /// `#extension` requests in order of appearance.
    pub extensions: Vec<(String, ExtensionBehavior)>,
    /// Non-fatal diagnostics (`#extension … : warn`, unknown pragmas, …).
    pub warnings: Vec<String>,
}

#[derive(Debug, Clone)]
struct Macro {
    /// `None` for object macros, parameter names for function macros.
    params: Option<Vec<String>>,
    body: String,
}

#[derive(Debug, Clone, Copy)]
struct CondFrame {
    /// Whether the current branch emits code.
    active: bool,
    /// Whether any branch of this `#if` chain has been taken.
    taken: bool,
    /// Whether `#else` was seen (further `#elif`/`#else` are errors).
    else_seen: bool,
}

/// The extension names this implementation knows how to process.
/// (`#extension` with `require` on anything else is a compile error, as
/// the spec mandates.)
const KNOWN_EXTENSIONS: &[&str] = &[
    "GL_OES_texture_half_float",
    "GL_EXT_color_buffer_half_float",
    "all",
];

/// Preprocesses `source`.
///
/// # Errors
///
/// [`CompileError`] (phase `Preprocess`) for malformed directives,
/// unbalanced conditionals, `#error`, bad `#version` and `require` of an
/// unknown extension.
pub fn preprocess(source: &str) -> Result<Preprocessed, CompileError> {
    let mut state = State::default();
    let source = state.run(source)?;
    state.finish()?;
    Ok(Preprocessed {
        source,
        version: state.version,
        extensions: state.extensions,
        warnings: state.warnings,
    })
}

/// Where preprocessing has got to: the macros, open conditionals and
/// lines read so far. Preprocessing a source in two runs over a prefix
/// ending in a newline outside any comment, and then the rest, gives the
/// same output, line numbers and diagnostics as one run over the whole.
#[derive(Debug, Clone, Default)]
pub(crate) struct State {
    macros: HashMap<String, Macro>,
    stack: Vec<CondFrame>,
    version: Option<u32>,
    extensions: Vec<(String, ExtensionBehavior)>,
    warnings: Vec<String>,
    emitted_code: bool,
    /// Lines read so far.
    pub(crate) lines: u32,
    /// Whether the last run ended inside an unterminated block comment.
    pub(crate) in_comment: bool,
}

impl State {
    /// Preprocesses the next piece of the source, numbering its lines on
    /// from the ones already read, and returns its expansion.
    pub(crate) fn run(&mut self, source: &str) -> Result<String, CompileError> {
        let (decommented, in_comment) = strip_comments(source);
        self.in_comment = in_comment;
        let mut out = String::with_capacity(source.len());
        let first_line = self.lines;
        for (line_no, line) in decommented.lines().enumerate() {
            let line_no = first_line + line_no as u32 + 1;
            self.lines = line_no;
            self.line(line, line_no, &mut out)?;
        }
        Ok(out)
    }

    /// Ends the source: every conditional must be closed.
    pub(crate) fn finish(&self) -> Result<(), CompileError> {
        if self.stack.is_empty() {
            Ok(())
        } else {
            Err(CompileError::preprocess(
                "unterminated conditional (#if without #endif)",
                Span::new(0, 0, self.lines, 1),
            ))
        }
    }

    /// Preprocesses one decommented line into `out`.
    fn line(&mut self, line: &str, line_no: u32, out: &mut String) -> Result<(), CompileError> {
        let span = |col: u32| Span::new(0, 0, line_no, col);
        let macros = &mut self.macros;
        let stack = &mut self.stack;
        let active = stack.iter().all(|f| f.active);
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix('#') {
            let rest = rest.trim_start();
            let (directive, args) = split_ident(rest);
            let args = args.trim();
            match directive {
                // Null directive `#` is allowed.
                "" => {}
                "version" => {
                    if active {
                        if self.emitted_code || self.version.is_some() {
                            return Err(CompileError::preprocess(
                                "#version must appear before anything else",
                                span(1),
                            ));
                        }
                        let v: u32 = args.parse().map_err(|_| {
                            CompileError::preprocess(
                                format!("malformed #version `{args}`"),
                                span(1),
                            )
                        })?;
                        if v != 100 {
                            return Err(CompileError::preprocess(
                                format!("unsupported #version {v}; this is GLSL ES 1.00"),
                                span(1),
                            ));
                        }
                        self.version = Some(v);
                    }
                }
                "define" => {
                    if active {
                        let (name, mac) = parse_define(args, line_no)?;
                        if name.starts_with("GL_") || name.contains("__") {
                            return Err(CompileError::preprocess(
                                format!("macro name `{name}` is reserved"),
                                span(1),
                            ));
                        }
                        macros.insert(name, mac);
                    }
                }
                "undef" => {
                    if active {
                        let (name, rest2) = split_ident(args);
                        if name.is_empty() || !rest2.trim().is_empty() {
                            return Err(CompileError::preprocess("malformed #undef", span(1)));
                        }
                        macros.remove(name);
                    }
                }
                "ifdef" | "ifndef" => {
                    let (name, rest2) = split_ident(args);
                    if name.is_empty() || !rest2.trim().is_empty() {
                        return Err(CompileError::preprocess(
                            format!("malformed #{directive}"),
                            span(1),
                        ));
                    }
                    let defined = is_defined(macros, name);
                    let cond = if directive == "ifdef" {
                        defined
                    } else {
                        !defined
                    };
                    stack.push(CondFrame {
                        active: active && cond,
                        taken: cond,
                        else_seen: false,
                    });
                }
                "if" => {
                    let cond = if active {
                        eval_condition(args, macros, line_no)? != 0
                    } else {
                        false
                    };
                    stack.push(CondFrame {
                        active: active && cond,
                        taken: cond,
                        else_seen: false,
                    });
                }
                "elif" => {
                    let frame = stack
                        .last_mut()
                        .ok_or_else(|| CompileError::preprocess("#elif without #if", span(1)))?;
                    if frame.else_seen {
                        return Err(CompileError::preprocess("#elif after #else", span(1)));
                    }
                    let outer_active = stack[..stack.len() - 1].iter().all(|f| f.active);
                    let frame = stack.last_mut().expect("just checked");
                    if frame.taken || !outer_active {
                        frame.active = false;
                    } else {
                        let cond = eval_condition(args, macros, line_no)? != 0;
                        frame.active = cond;
                        frame.taken = cond;
                    }
                }
                "else" => {
                    let frame = stack
                        .last_mut()
                        .ok_or_else(|| CompileError::preprocess("#else without #if", span(1)))?;
                    if frame.else_seen {
                        return Err(CompileError::preprocess("duplicate #else", span(1)));
                    }
                    frame.else_seen = true;
                    let outer_active = stack[..stack.len() - 1].iter().all(|f| f.active);
                    let frame = stack.last_mut().expect("just checked");
                    frame.active = outer_active && !frame.taken;
                    frame.taken = true;
                }
                "endif" => {
                    stack
                        .pop()
                        .ok_or_else(|| CompileError::preprocess("#endif without #if", span(1)))?;
                }
                "error" => {
                    if active {
                        return Err(CompileError::preprocess(format!("#error {args}"), span(1)));
                    }
                }
                "pragma" => {
                    // Pragmas are implementation-defined; record and move on.
                    if active && !args.is_empty() {
                        self.warnings
                            .push(format!("line {line_no}: ignored #pragma {args}"));
                    }
                }
                "extension" => {
                    if active {
                        let (name, behavior) = parse_extension(args, line_no)?;
                        if behavior == ExtensionBehavior::Require
                            && !KNOWN_EXTENSIONS.contains(&name.as_str())
                        {
                            return Err(CompileError::preprocess(
                                format!("required extension `{name}` is not supported"),
                                span(1),
                            ));
                        }
                        if behavior == ExtensionBehavior::Enable
                            && !KNOWN_EXTENSIONS.contains(&name.as_str())
                        {
                            self.warnings.push(format!(
                                "line {line_no}: extension `{name}` is not supported; ignored"
                            ));
                        }
                        self.extensions.push((name, behavior));
                    }
                }
                "line" => {
                    // Accepted for conformance; spans are not remapped.
                    if active {
                        self.warnings
                            .push(format!("line {line_no}: #line accepted but not remapped"));
                    }
                }
                other => {
                    if active {
                        return Err(CompileError::preprocess(
                            format!("unknown preprocessor directive #{other}"),
                            span(1),
                        ));
                    }
                }
            }
            out.push('\n'); // keep line numbering
        } else if active {
            // A line naming no macro expands to itself: copy it through.
            let expanded = if names_a_macro(line, macros) {
                Cow::Owned(expand_line(line, macros, line_no)?)
            } else {
                Cow::Borrowed(line)
            };
            if !expanded.trim().is_empty() {
                self.emitted_code = true;
            }
            out.push_str(&expanded);
            out.push('\n');
        } else {
            out.push('\n');
        }
        Ok(())
    }
}

/// Replaces comments with spaces, preserving newlines (so line numbers in
/// later diagnostics stay correct). GLSL ES 1.00 has no line
/// continuations, so this is purely character-level: a line comment is
/// dropped up to its newline, and a block comment becomes one space plus
/// the newlines it spans (an unterminated one runs to the end of the
/// source, its last character unexamined). Every delimiter is ASCII, so
/// the text between comments is found by byte search and copied whole.
/// Also says whether the source ended inside an unterminated block
/// comment.
fn strip_comments(source: &str) -> (String, bool) {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    // Start of the text not yet copied.
    let mut copied = 0;
    let mut i = 0;
    let mut open = false;
    while let Some(n) = source[i..].find('/') {
        i += n;
        match bytes.get(i + 1) {
            Some(b'/') => {
                out.push_str(&source[copied..i]);
                i = source[i..].find('\n').map_or(bytes.len(), |n| i + n);
            }
            Some(b'*') => {
                out.push_str(&source[copied..i]);
                out.push(' ');
                let body = i + 2;
                let (end, next) = match source[body..].find("*/") {
                    Some(n) => (body + n, body + n + 2),
                    None => {
                        open = true;
                        (body.max(bytes.len() - 1), bytes.len())
                    }
                };
                let lines = bytes[body..end].iter().filter(|&&b| b == b'\n').count();
                out.extend(std::iter::repeat_n('\n', lines));
                i = next;
            }
            _ => {
                i += 1;
                continue;
            }
        }
        copied = i;
    }
    out.push_str(&source[copied..]);
    (out, open)
}

/// Whether expanding `line` could change it: it names a defined macro
/// or a built-in one. Identifiers are split exactly as [`expand_str`]
/// splits them, over bytes (an identifier is ASCII). With no macro
/// defined, only a line holding `GL_ES` or `__` (which every built-in
/// macro's name does) can.
fn names_a_macro(line: &str, macros: &HashMap<String, Macro>) -> bool {
    if macros.is_empty() && !line.contains("GL_ES") && !line.contains("__") {
        return false;
    }
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !(bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if is_defined(macros, &line[start..i]) {
            return true;
        }
    }
    false
}

fn is_builtin_macro(name: &str) -> bool {
    matches!(name, "GL_ES" | "__VERSION__" | "__LINE__" | "__FILE__")
}

fn split_ident(s: &str) -> (&str, &str) {
    let end = s
        .char_indices()
        .find(|(i, c)| {
            if *i == 0 {
                !(c.is_ascii_alphabetic() || *c == '_')
            } else {
                !(c.is_ascii_alphanumeric() || *c == '_')
            }
        })
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    s.split_at(end)
}

fn is_defined(macros: &HashMap<String, Macro>, name: &str) -> bool {
    is_builtin_macro(name) || macros.contains_key(name)
}

fn parse_define(args: &str, line: u32) -> Result<(String, Macro), CompileError> {
    let (name, rest) = split_ident(args);
    if name.is_empty() {
        return Err(CompileError::preprocess(
            "malformed #define: missing macro name",
            Span::new(0, 0, line, 1),
        ));
    }
    // A function macro requires `(` IMMEDIATELY after the name.
    if let Some(params_rest) = rest.strip_prefix('(') {
        let close = params_rest.find(')').ok_or_else(|| {
            CompileError::preprocess(
                "malformed #define: missing `)` in parameter list",
                Span::new(0, 0, line, 1),
            )
        })?;
        let params_src = &params_rest[..close];
        let body = params_rest[close + 1..].trim().to_owned();
        let mut params = Vec::new();
        if !params_src.trim().is_empty() {
            for p in params_src.split(',') {
                let p = p.trim();
                let (ident, extra) = split_ident(p);
                if ident.is_empty() || !extra.is_empty() {
                    return Err(CompileError::preprocess(
                        format!("malformed macro parameter `{p}`"),
                        Span::new(0, 0, line, 1),
                    ));
                }
                params.push(ident.to_owned());
            }
        }
        Ok((
            name.to_owned(),
            Macro {
                params: Some(params),
                body,
            },
        ))
    } else {
        Ok((
            name.to_owned(),
            Macro {
                params: None,
                body: rest.trim().to_owned(),
            },
        ))
    }
}

fn parse_extension(args: &str, line: u32) -> Result<(String, ExtensionBehavior), CompileError> {
    let mut parts = args.splitn(2, ':');
    let name = parts.next().unwrap_or("").trim();
    let behavior = parts.next().unwrap_or("").trim();
    let behavior = match behavior {
        "require" => ExtensionBehavior::Require,
        "enable" => ExtensionBehavior::Enable,
        "warn" => ExtensionBehavior::Warn,
        "disable" => ExtensionBehavior::Disable,
        other => {
            return Err(CompileError::preprocess(
                format!("bad #extension behaviour `{other}`"),
                Span::new(0, 0, line, 1),
            ))
        }
    };
    if name.is_empty() {
        return Err(CompileError::preprocess(
            "missing extension name",
            Span::new(0, 0, line, 1),
        ));
    }
    Ok((name.to_owned(), behavior))
}

/// Expands macros in a code line.
fn expand_line(
    line: &str,
    macros: &HashMap<String, Macro>,
    line_no: u32,
) -> Result<String, CompileError> {
    let mut in_flight = HashSet::new();
    expand_str(line, macros, line_no, &mut in_flight, 0)
}

const MAX_EXPANSION_DEPTH: u32 = 32;

fn expand_str(
    text: &str,
    macros: &HashMap<String, Macro>,
    line_no: u32,
    in_flight: &mut HashSet<String>,
    depth: u32,
) -> Result<String, CompileError> {
    if depth > MAX_EXPANSION_DEPTH {
        return Err(CompileError::preprocess(
            "macro expansion too deep (recursive definition?)",
            Span::new(0, 0, line_no, 1),
        ));
    }
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            match ident.as_str() {
                "__LINE__" => {
                    out.push_str(&line_no.to_string());
                    continue;
                }
                "__FILE__" => {
                    out.push('0');
                    continue;
                }
                "__VERSION__" => {
                    out.push_str("100");
                    continue;
                }
                "GL_ES" => {
                    out.push('1');
                    continue;
                }
                _ => {}
            }
            let Some(mac) = macros.get(&ident) else {
                out.push_str(&ident);
                continue;
            };
            if in_flight.contains(&ident) {
                // C-style: a macro does not re-expand inside itself.
                out.push_str(&ident);
                continue;
            }
            match &mac.params {
                None => {
                    in_flight.insert(ident.clone());
                    let expanded = expand_str(&mac.body, macros, line_no, in_flight, depth + 1)?;
                    in_flight.remove(&ident);
                    out.push_str(&expanded);
                }
                Some(params) => {
                    // Function macro: needs an argument list; otherwise the
                    // identifier is left alone (as in C).
                    let mut j = i;
                    while j < chars.len() && chars[j].is_whitespace() {
                        j += 1;
                    }
                    if j >= chars.len() || chars[j] != '(' {
                        out.push_str(&ident);
                        continue;
                    }
                    let (args, consumed) = collect_args(&chars[j..], line_no, &ident)?;
                    i = j + consumed;
                    if args.len() != params.len()
                        && !(params.is_empty() && args.len() == 1 && args[0].trim().is_empty())
                    {
                        return Err(CompileError::preprocess(
                            format!(
                                "macro `{ident}` expects {} argument(s), got {}",
                                params.len(),
                                args.len()
                            ),
                            Span::new(0, 0, line_no, 1),
                        ));
                    }
                    // Expand arguments first (call-by-value, as in C).
                    let mut expanded_args = Vec::with_capacity(args.len());
                    for a in &args {
                        expanded_args.push(expand_str(a, macros, line_no, in_flight, depth + 1)?);
                    }
                    // Substitute parameters in the body.
                    let substituted = substitute_params(&mac.body, params, &expanded_args);
                    in_flight.insert(ident.clone());
                    let expanded = expand_str(&substituted, macros, line_no, in_flight, depth + 1)?;
                    in_flight.remove(&ident);
                    out.push_str(&expanded);
                }
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    Ok(out)
}

/// Collects `(arg, arg, …)` starting at `chars[0] == '('`; returns the
/// arguments and the number of chars consumed (including both parens).
fn collect_args(
    chars: &[char],
    line_no: u32,
    name: &str,
) -> Result<(Vec<String>, usize), CompileError> {
    debug_assert_eq!(chars[0], '(');
    let mut args = Vec::new();
    let mut current = String::new();
    let mut nesting = 0usize;
    let mut i = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '(' => {
                nesting += 1;
                current.push(c);
            }
            ')' => {
                if nesting == 0 {
                    args.push(current.trim().to_owned());
                    return Ok((args, i + 1));
                }
                nesting -= 1;
                current.push(c);
            }
            ',' if nesting == 0 => {
                args.push(current.trim().to_owned());
                current.clear();
            }
            _ => current.push(c),
        }
        i += 1;
    }
    Err(CompileError::preprocess(
        format!("unterminated argument list for macro `{name}`"),
        Span::new(0, 0, line_no, 1),
    ))
}

fn substitute_params(body: &str, params: &[String], args: &[String]) -> String {
    let chars: Vec<char> = body.chars().collect();
    let mut out = String::with_capacity(body.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            match params.iter().position(|p| *p == ident) {
                Some(k) => out.push_str(args.get(k).map(String::as_str).unwrap_or("")),
                None => out.push_str(&ident),
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

// ---- #if expression evaluation -------------------------------------------

/// Evaluates a `#if`/`#elif` expression: integer arithmetic, comparisons,
/// `! && ||`, parentheses and `defined(X)` / `defined X`.
fn eval_condition(
    expr: &str,
    macros: &HashMap<String, Macro>,
    line_no: u32,
) -> Result<i64, CompileError> {
    // Protect `defined(...)` from macro expansion, then expand the rest.
    let mut protected = String::with_capacity(expr.len());
    let chars: Vec<char> = expr.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            if ident == "defined" {
                // Parse `defined(NAME)` or `defined NAME`.
                while i < chars.len() && chars[i].is_whitespace() {
                    i += 1;
                }
                let parenthesised = i < chars.len() && chars[i] == '(';
                if parenthesised {
                    i += 1;
                    while i < chars.len() && chars[i].is_whitespace() {
                        i += 1;
                    }
                }
                let name_start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let name: String = chars[name_start..i].iter().collect();
                if parenthesised {
                    while i < chars.len() && chars[i].is_whitespace() {
                        i += 1;
                    }
                    if i >= chars.len() || chars[i] != ')' {
                        return Err(CompileError::preprocess(
                            "malformed defined()",
                            Span::new(0, 0, line_no, 1),
                        ));
                    }
                    i += 1;
                }
                if name.is_empty() {
                    return Err(CompileError::preprocess(
                        "defined with no name",
                        Span::new(0, 0, line_no, 1),
                    ));
                }
                protected.push_str(if is_defined(macros, &name) {
                    " 1 "
                } else {
                    " 0 "
                });
            } else {
                protected.push_str(&ident);
            }
        } else {
            protected.push(c);
            i += 1;
        }
    }
    let mut in_flight = HashSet::new();
    let expanded = expand_str(&protected, macros, line_no, &mut in_flight, 0)?;
    // Remaining identifiers are undefined macros: the spec evaluates them
    // as 0.
    let mut parser = CondParser {
        chars: expanded.chars().collect(),
        pos: 0,
        line_no,
    };
    let v = parser.expr(0)?;
    parser.skip_ws();
    if parser.pos < parser.chars.len() {
        return Err(CompileError::preprocess(
            format!("trailing characters in #if expression `{expanded}`"),
            Span::new(0, 0, line_no, 1),
        ));
    }
    Ok(v)
}

struct CondParser {
    chars: Vec<char>,
    pos: usize,
    line_no: u32,
}

impl CondParser {
    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::preprocess(msg, Span::new(0, 0, self.line_no, 1))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek2(&self) -> (Option<char>, Option<char>) {
        (
            self.chars.get(self.pos).copied(),
            self.chars.get(self.pos + 1).copied(),
        )
    }

    /// Precedence-climbing over: `|| && == != < <= > >= + - * / %`.
    fn expr(&mut self, min_bp: u8) -> Result<i64, CompileError> {
        let mut lhs = self.unary()?;
        loop {
            self.skip_ws();
            let (op, bp, len) = match self.peek2() {
                (Some('|'), Some('|')) => ("||", 1, 2),
                (Some('&'), Some('&')) => ("&&", 2, 2),
                (Some('='), Some('=')) => ("==", 3, 2),
                (Some('!'), Some('=')) => ("!=", 3, 2),
                (Some('<'), Some('=')) => ("<=", 4, 2),
                (Some('>'), Some('=')) => (">=", 4, 2),
                (Some('<'), _) => ("<", 4, 1),
                (Some('>'), _) => (">", 4, 1),
                (Some('+'), _) => ("+", 5, 1),
                (Some('-'), _) => ("-", 5, 1),
                (Some('*'), _) => ("*", 6, 1),
                (Some('/'), _) => ("/", 6, 1),
                (Some('%'), _) => ("%", 6, 1),
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.pos += len;
            let rhs = self.expr(bp + 1)?;
            lhs = match op {
                "||" => i64::from(lhs != 0 || rhs != 0),
                "&&" => i64::from(lhs != 0 && rhs != 0),
                "==" => i64::from(lhs == rhs),
                "!=" => i64::from(lhs != rhs),
                "<" => i64::from(lhs < rhs),
                "<=" => i64::from(lhs <= rhs),
                ">" => i64::from(lhs > rhs),
                ">=" => i64::from(lhs >= rhs),
                "+" => lhs.wrapping_add(rhs),
                "-" => lhs.wrapping_sub(rhs),
                "*" => lhs.wrapping_mul(rhs),
                "/" => {
                    if rhs == 0 {
                        return Err(self.err("division by zero in #if"));
                    }
                    lhs / rhs
                }
                "%" => {
                    if rhs == 0 {
                        return Err(self.err("division by zero in #if"));
                    }
                    lhs % rhs
                }
                _ => unreachable!(),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<i64, CompileError> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some('!') => {
                self.pos += 1;
                Ok(i64::from(self.unary()? == 0))
            }
            Some('-') => {
                self.pos += 1;
                Ok(-self.unary()?)
            }
            Some('+') => {
                self.pos += 1;
                self.unary()
            }
            Some('(') => {
                self.pos += 1;
                let v = self.expr(0)?;
                self.skip_ws();
                if self.chars.get(self.pos) != Some(&')') {
                    return Err(self.err("missing `)` in #if expression"));
                }
                self.pos += 1;
                Ok(v)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while self
                    .chars
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric())
                {
                    self.pos += 1;
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                let value = if let Some(hex) =
                    text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"))
                {
                    i64::from_str_radix(hex, 16)
                } else if text.len() > 1 && text.starts_with('0') {
                    i64::from_str_radix(&text[1..], 8)
                } else {
                    text.parse()
                };
                value.map_err(|_| self.err(format!("bad integer `{text}` in #if")))
            }
            Some(c) if c.is_ascii_alphabetic() || *c == '_' => {
                // Undefined macro in a #if: evaluates to 0.
                while self
                    .chars
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
                {
                    self.pos += 1;
                }
                Ok(0)
            }
            other => Err(self.err(format!("unexpected `{other:?}` in #if expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> Preprocessed {
        preprocess(src).unwrap_or_else(|e| panic!("preprocess failed: {e}\n{src}"))
    }

    #[test]
    fn passthrough_without_directives() {
        let out = pp("void main() {\n  gl_FragColor = vec4(1.0);\n}\n");
        assert_eq!(
            out.source,
            "void main() {\n  gl_FragColor = vec4(1.0);\n}\n"
        );
        assert_eq!(out.version, None);
    }

    #[test]
    fn object_macros_expand() {
        let out = pp("#define N 4\nfloat a[N];\nfloat b = N.0;\n");
        assert!(out.source.contains("float a[4];"));
        // Token-based expansion: N inside `N.0` is a separate identifier.
        assert!(out.source.contains("4.0"));
    }

    #[test]
    fn macro_names_do_not_expand_inside_identifiers() {
        let out = pp("#define X 9\nfloat XY = 1.0;\nfloat x_X = float(X);\n");
        assert!(out.source.contains("XY"), "{}", out.source);
        assert!(out.source.contains("x_X"), "{}", out.source);
        assert!(out.source.contains("float(9)"));
    }

    #[test]
    fn function_macros_expand_with_args() {
        let out = pp("#define SQ(v) ((v) * (v))\nfloat y = SQ(x + 1.0);\n");
        assert!(out.source.contains("((x + 1.0) * (x + 1.0))"));
        // Without parens it's just an identifier.
        let out = pp("#define F(a) a\nfloat F = 1.0;\n");
        assert!(out.source.contains("float F = 1.0;"));
    }

    #[test]
    fn nested_macros_and_recursion_guard() {
        let out = pp("#define A B\n#define B A\nfloat x = A;\n");
        // A → B → A stops (self-reference is not re-expanded).
        assert!(out.source.contains("float x = A;") || out.source.contains("float x = B;"));
        let out = pp("#define TWO 2.0\n#define FOUR (TWO * TWO)\nfloat x = FOUR;\n");
        assert!(out.source.contains("(2.0 * 2.0)"));
    }

    #[test]
    fn ifdef_chains() {
        let src = "#define FAST\n\
                   #ifdef FAST\nfloat a = 1.0;\n#else\nfloat a = 2.0;\n#endif\n\
                   #ifndef FAST\nfloat b = 3.0;\n#endif\n";
        let out = pp(src);
        assert!(out.source.contains("a = 1.0"));
        assert!(!out.source.contains("a = 2.0"));
        assert!(!out.source.contains("b = 3.0"));
        // Line numbers preserved: output has the same number of lines.
        assert_eq!(out.source.lines().count(), src.lines().count());
    }

    #[test]
    fn if_elif_else_expressions() {
        let src = "#define MODE 2\n\
                   #if MODE == 1\nfloat m = 1.0;\n\
                   #elif MODE == 2\nfloat m = 2.0;\n\
                   #else\nfloat m = 0.0;\n#endif\n";
        let out = pp(src);
        assert!(out.source.contains("m = 2.0"));
        assert!(!out.source.contains("m = 1.0"));
        assert!(!out.source.contains("m = 0.0"));
    }

    #[test]
    fn if_defined_and_arithmetic() {
        let out =
            pp("#define A 3\n#if defined(A) && A * 2 >= 6 && !defined(B)\nfloat ok;\n#endif\n");
        assert!(out.source.contains("float ok;"));
        let out = pp("#if defined B\nfloat no;\n#endif\n");
        assert!(!out.source.contains("float no;"));
        let out = pp("#if 0x10 == 16 && 010 == 8\nfloat oct;\n#endif\n");
        assert!(out.source.contains("float oct;"));
    }

    #[test]
    fn nested_conditionals() {
        let src = "#define A\n#ifdef A\n#ifdef B\nfloat x1;\n#else\nfloat x2;\n#endif\n#endif\n";
        let out = pp(src);
        assert!(!out.source.contains("x1"));
        assert!(out.source.contains("x2"));
        // Inner blocks of inactive outers stay inactive even if their own
        // condition is true.
        let src = "#ifdef NOPE\n#ifdef NOPE2\nfloat y1;\n#else\nfloat y2;\n#endif\n#endif\n";
        let out = pp(src);
        assert!(!out.source.contains("y1") && !out.source.contains("y2"));
    }

    #[test]
    fn version_and_builtins() {
        let out = pp("#version 100\nfloat v = float(__VERSION__);\nfloat e = float(GL_ES);\n");
        assert_eq!(out.version, Some(100));
        assert!(out.source.contains("float(100)"));
        assert!(out.source.contains("float(1)"));
        assert!(preprocess("#version 300\nvoid main(){}").is_err());
        assert!(preprocess("float x;\n#version 100\n").is_err());
    }

    #[test]
    fn line_macro_reports_current_line() {
        let out = pp("\n\nfloat l = float(__LINE__);\n");
        assert!(out.source.contains("float(3)"));
    }

    #[test]
    fn error_directive_fires_only_when_active() {
        let err = preprocess("#error broken\n").unwrap_err();
        assert!(err.message.contains("broken"));
        assert!(
            pp("#ifdef NOPE\n#error unreachable\n#endif\n")
                .source
                .lines()
                .count()
                == 3
        );
    }

    #[test]
    fn undef_removes_macros() {
        let out = pp("#define K 7\n#undef K\n#ifdef K\nfloat bad;\n#endif\nfloat k = 1.0;\n");
        assert!(!out.source.contains("bad"));
        assert!(out.source.contains("float k = 1.0;"));
    }

    #[test]
    fn reserved_macro_names_rejected() {
        assert!(preprocess("#define GL_FOO 1\n").is_err());
        assert!(preprocess("#define A__B 1\n").is_err());
    }

    #[test]
    fn extension_directive() {
        let out = pp("#extension GL_OES_texture_half_float : enable\nfloat x;\n");
        assert_eq!(
            out.extensions,
            vec![(
                "GL_OES_texture_half_float".to_owned(),
                ExtensionBehavior::Enable
            )]
        );
        assert!(preprocess("#extension GL_FAKE : require\n").is_err());
        let out = pp("#extension GL_FAKE : enable\n");
        assert_eq!(out.warnings.len(), 1);
        let out = pp("#extension GL_FAKE : disable\n");
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn unbalanced_conditionals_rejected() {
        assert!(preprocess("#ifdef A\nfloat x;\n").is_err());
        assert!(preprocess("#endif\n").is_err());
        assert!(preprocess("#else\n").is_err());
        assert!(preprocess("#ifdef A\n#else\n#else\n#endif\n").is_err());
        assert!(preprocess("#ifdef A\n#else\n#elif 1\n#endif\n").is_err());
    }

    #[test]
    fn comments_stripped_before_directives() {
        let out = pp("// #define GONE 1\n#define KEPT /* inline */ 5\nfloat x = KEPT;\n");
        assert!(out.source.contains("float x = 5;"));
        let out = pp("/* multi\nline */ float y;\n");
        assert_eq!(out.source.lines().count(), 2);
        assert!(out.source.contains("float y;"));
    }

    #[test]
    fn every_output_line_is_newline_terminated() {
        for (src, out) in [
            ("", ""),
            ("\n", "\n"),
            ("float x;", "float x;\n"),
            ("a\n\nb\n", "a\n\nb\n"),
            ("a // c\nb /* c */", "a \nb  \n"),
            // `\r\n` line ends are normalised by the line walk.
            ("a\r\nb", "a\nb\n"),
        ] {
            assert_eq!(pp(src).source, out, "{src:?}");
        }
    }

    #[test]
    fn comment_stripping_edge_cases() {
        for (src, stripped) in [
            ("a/", "a/"),
            ("/", "/"),
            ("//x", ""),
            ("x//y\nz", "x\nz"),
            ("/**/", " "),
            ("/*/ */x", " x"),
            ("a/*b*/c/*d\ne*/f", "a c \nf"),
            ("é/*ü\n*/ö", "é \nö"),
            ("l1\r\n// c\r\nl3", "l1\r\n\nl3"),
            // Unterminated: runs to the end, its last character unexamined.
            ("a/*x\ny", "a \n"),
            ("a/*x\n", "a "),
            ("a/*", "a "),
        ] {
            assert_eq!(strip_comments(src).0, stripped, "{src:?}");
        }
    }

    #[test]
    fn unknown_directives_rejected() {
        assert!(preprocess("#include \"foo.h\"\n").is_err());
        // …but not inside inactive blocks.
        assert!(preprocess("#ifdef NOPE\n#include \"foo.h\"\n#endif\n").is_ok());
    }

    #[test]
    fn null_directive_allowed() {
        assert!(preprocess("#\nfloat x;\n").is_ok());
    }

    #[test]
    fn function_macro_argument_errors() {
        assert!(preprocess("#define F(a, b) a + b\nfloat x = F(1.0);\n").is_err());
        assert!(preprocess("#define F(a) a\nfloat x = F(1.0;\n").is_err());
    }

    #[test]
    fn if_expression_errors() {
        assert!(preprocess("#if 1 +\nfloat x;\n#endif\n").is_err());
        assert!(preprocess("#if 1 / 0\nfloat x;\n#endif\n").is_err());
        assert!(preprocess("#if (1\nfloat x;\n#endif\n").is_err());
    }
}
