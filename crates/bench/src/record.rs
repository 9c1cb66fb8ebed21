//! Bench results as data: flat [`Record`]s, the [`Report`] trait every
//! section's result implements, and the `gpes-bench/1` JSON document
//! `reproduce --json` writes.
//!
//! Each field is tagged with how a later run may compare against it:
//! [`Kind::Key`] identifies the row, [`Kind::Exact`] is deterministic and
//! must repeat bit-for-bit, [`Kind::Advisory`] depends on timing or thread
//! scheduling and is only ever shown as a ratio.

use std::fmt;

/// One field value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A counter or size.
    Int(i64),
    /// A rate, ratio or duration.
    Float(f64),
    /// A verdict.
    Bool(bool),
    /// A label.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.2}"),
            Value::Bool(v) => f.write_str(if *v { "yes" } else { "no" }),
            Value::Str(v) => f.write_str(v),
        }
    }
}

/// How a field compares across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifies the row within its section.
    Key,
    /// Deterministic: a fresh run must repeat it exactly.
    Exact,
    /// Timing- or scheduling-dependent: compared as a ratio, never gated.
    Advisory,
}

/// One row of a section's results: the section name plus flat fields.
#[derive(Debug, Clone)]
pub struct Record {
    /// Section the row belongs to, e.g. `a11`.
    pub section: &'static str,
    /// Fields in print order.
    pub fields: Vec<(&'static str, Kind, Value)>,
}

impl Record {
    /// An empty record of `section`.
    pub fn new(section: &'static str) -> Self {
        Record {
            section,
            fields: Vec::new(),
        }
    }

    /// Adds a [`Kind::Key`] field.
    pub fn key(self, name: &'static str, value: impl Into<Value>) -> Self {
        self.field(name, Kind::Key, value)
    }

    /// Adds a [`Kind::Exact`] field.
    pub fn exact(self, name: &'static str, value: impl Into<Value>) -> Self {
        self.field(name, Kind::Exact, value)
    }

    /// Adds a [`Kind::Advisory`] field.
    pub fn advisory(self, name: &'static str, value: impl Into<Value>) -> Self {
        self.field(name, Kind::Advisory, value)
    }

    /// Adds a field of `kind`.
    pub fn field(mut self, name: &'static str, kind: Kind, value: impl Into<Value>) -> Self {
        self.fields.push((name, kind, value.into()));
        self
    }

    /// Writes the record as one JSON object, fields grouped by kind.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"section\": ");
        write_str(out, self.section);
        for (group, kind) in [
            ("key", Kind::Key),
            ("exact", Kind::Exact),
            ("advisory", Kind::Advisory),
        ] {
            out.push_str(", ");
            write_str(out, group);
            out.push_str(": ");
            write_object(
                out,
                self.fields
                    .iter()
                    .filter(|f| f.1 == kind)
                    .map(|(n, _, v)| (*n, v)),
            );
        }
        out.push('}');
    }
}

/// The generic printer: one line, `section  name value  name value …`.
impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<4}", self.section)?;
        for (name, _, value) in &self.fields {
            write!(f, "  {name} {value}")?;
        }
        Ok(())
    }
}

/// A section's result as data.
pub trait Report {
    /// The result's rows.
    fn records(&self) -> Vec<Record>;

    /// Every broken contract, one message each; empty when the section
    /// holds. This is the one home of a gated section's contract: the
    /// unit tests and `reproduce` (and so CI) both call it.
    fn violations(&self) -> Vec<String> {
        Vec::new()
    }
}

/// One `reproduce` section's outcome, as written to the document.
#[derive(Debug, Clone)]
pub struct SectionRun {
    /// Section name, e.g. `a9`.
    pub name: &'static str,
    /// Host wall-clock for the section.
    pub host_seconds: f64,
    /// The section's rows.
    pub records: Vec<Record>,
    /// The section's broken contracts.
    pub violations: Vec<String>,
}

/// Renders the `gpes-bench/1` document: host info, then per-section
/// timing and violations, then every record on its own line.
pub fn document(host: &[(&'static str, Value)], runs: &[SectionRun]) -> String {
    let mut out = String::from("{\n  \"schema\": \"gpes-bench/1\",\n  \"host\": ");
    write_object(&mut out, host.iter().map(|(n, v)| (*n, v)));
    out.push_str(",\n  \"sections\": {");
    for (i, run) in runs.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        write_str(&mut out, run.name);
        out.push_str(&format!(
            ": {{\"host_seconds\": {:?}, \"violations\": [",
            run.host_seconds
        ));
        for (j, v) in run.violations.iter().enumerate() {
            out.push_str(if j == 0 { "" } else { ", " });
            write_str(&mut out, v);
        }
        out.push_str("]}");
    }
    out.push_str("\n  },\n  \"records\": [");
    for (i, record) in runs.iter().flat_map(|r| &r.records).enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        record.write_json(&mut out);
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn write_object<'a>(out: &mut String, fields: impl Iterator<Item = (&'a str, &'a Value)>) {
    out.push('{');
    for (i, (name, value)) in fields.enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        write_str(out, name);
        out.push_str(": ");
        match value {
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Value::Float(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => write_str(out, v),
        }
    }
    out.push('}');
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_strings_and_nulls_non_finite_floats() {
        let record = Record::new("t")
            .key("name", "a\"b\\c\nd\u{1}")
            .exact("n", 3u64)
            .advisory("nan", f64::NAN)
            .advisory("inf", f64::INFINITY)
            .advisory("x", 0.05);
        let mut out = String::new();
        record.write_json(&mut out);
        assert_eq!(
            out,
            r#"{"section": "t", "key": {"name": "a\"b\\c\nd\u0001"}, "exact": {"n": 3}, "advisory": {"nan": null, "inf": null, "x": 0.05}}"#
        );
    }
}
