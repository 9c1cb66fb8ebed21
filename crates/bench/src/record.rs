//! Bench results as data: flat [`Record`]s, the [`Report`] trait every
//! section's result implements, the `gpes-bench/1` JSON document
//! `reproduce --json` writes, its reader, and the [`diff`] of two
//! documents that `reproduce --diff` prints.
//!
//! Each field is tagged with how a later run may compare against it:
//! [`Kind::Key`] identifies the row, [`Kind::Exact`] is deterministic and
//! must repeat bit-for-bit, [`Kind::Advisory`] depends on timing or thread
//! scheduling and is only ever shown as a ratio.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// The format [`document`] writes and [`read_document`] reads.
pub const SCHEMA: &str = "gpes-bench/1";

/// One field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A counter or size.
    Int(i64),
    /// A rate, ratio or duration. A non-finite one is written as `null`,
    /// which reads back as NaN.
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

/// Each kind's member name in a written record, in write order.
const GROUPS: [(&str, Kind); 3] = [
    ("key", Kind::Key),
    ("exact", Kind::Exact),
    ("advisory", Kind::Advisory),
];

/// One row of a section's results: the section name plus flat fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Section the row belongs to, e.g. `a11`.
    pub section: String,
    /// Fields in print order.
    pub fields: Vec<(String, Kind, Value)>,
}

impl Record {
    /// An empty record of `section`.
    pub fn new(section: &str) -> Self {
        Record {
            section: section.to_owned(),
            fields: Vec::new(),
        }
    }

    /// Adds a [`Kind::Key`] field.
    pub fn key(self, name: &str, value: impl Into<Value>) -> Self {
        self.field(name, Kind::Key, value)
    }

    /// Adds a [`Kind::Exact`] field.
    pub fn exact(self, name: &str, value: impl Into<Value>) -> Self {
        self.field(name, Kind::Exact, value)
    }

    /// Adds a [`Kind::Advisory`] field.
    pub fn advisory(self, name: &str, value: impl Into<Value>) -> Self {
        self.field(name, Kind::Advisory, value)
    }

    /// Adds a field of `kind`.
    pub fn field(mut self, name: &str, kind: Kind, value: impl Into<Value>) -> Self {
        self.fields.push((name.to_owned(), kind, value.into()));
        self
    }

    /// The fields of `kind`, in print order.
    fn group(&self, kind: Kind) -> impl Iterator<Item = (&str, &Value)> {
        self.fields
            .iter()
            .filter(move |f| f.1 == kind)
            .map(|(n, _, v)| (n.as_str(), v))
    }

    /// The value of the `kind` field `name`, if the record has one.
    fn get(&self, kind: Kind, name: &str) -> Option<&Value> {
        self.group(kind).find(|f| f.0 == name).map(|f| f.1)
    }

    /// Writes the record as one JSON object, fields grouped by kind.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"section\": ");
        write_str(out, &self.section);
        for (group, kind) in GROUPS {
            out.push_str(", ");
            write_str(out, group);
            out.push_str(": ");
            write_object(out, self.group(kind));
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
#[derive(Debug, Clone, PartialEq)]
pub struct SectionRun {
    /// Section name, e.g. `a9`; every one of its records carries it.
    pub name: String,
    /// Host wall-clock for the section.
    pub host_seconds: f64,
    /// The section's rows.
    pub records: Vec<Record>,
    /// The section's broken contracts.
    pub violations: Vec<String>,
}

/// Renders the `gpes-bench/1` document: host info, then per-section
/// timing and violations, then every record on its own line.
pub fn document(host: &[(String, Value)], runs: &[SectionRun]) -> String {
    let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"host\": ");
    write_object(&mut out, host.iter().map(|(n, v)| (n.as_str(), v)));
    out.push_str(",\n  \"sections\": {");
    for (i, run) in runs.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        write_str(&mut out, &run.name);
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
        write_value(out, value);
    }
    out.push('}');
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::Float(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
        Value::Float(_) => out.push_str("null"),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(v) => write_str(out, v),
    }
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

/// A `gpes-bench/1` document read back: what [`document`] was given.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Host info.
    pub host: Vec<(String, Value)>,
    /// Every section, with its records and violations.
    pub runs: Vec<SectionRun>,
}

impl Document {
    fn records(&self) -> impl Iterator<Item = &Record> {
        self.runs.iter().flat_map(|r| &r.records)
    }
}

/// Why [`read_document`] refused a text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The text stops matching what [`document`] writes.
    Syntax {
        /// Byte offset of the mismatch.
        at: usize,
        /// What the writer puts there.
        expected: &'static str,
    },
    /// The document names another schema than [`SCHEMA`].
    Schema(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Syntax { at, expected } => write!(f, "byte {at}: expected {expected}"),
            ReadError::Schema(s) => write!(f, "schema `{s}`, not `{SCHEMA}`"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Reads a document [`document`] wrote. Each record is filed under the
/// section of its name.
///
/// # Errors
///
/// [`ReadError::Schema`] when the document names another schema,
/// [`ReadError::Syntax`] when the text is not what [`document`] writes.
pub fn read_document(text: &str) -> Result<Document, ReadError> {
    let mut r = Reader { text, at: 0 };
    r.expect("{")?;
    r.member("schema")?;
    let schema = r.string()?;
    if schema != SCHEMA {
        return Err(ReadError::Schema(schema));
    }
    r.expect(",")?;
    r.member("host")?;
    let host = r.fields()?;
    r.expect(",")?;
    r.member("sections")?;
    let mut runs = r.list("{", "}", |r| {
        let name = r.string()?;
        r.expect(":")?;
        r.expect("{")?;
        r.member("host_seconds")?;
        let Value::Float(host_seconds) = r.value()? else {
            return r.fail("seconds");
        };
        r.expect(",")?;
        r.member("violations")?;
        let violations = r.list("[", "]", Reader::string)?;
        r.expect("}")?;
        Ok(SectionRun {
            name,
            host_seconds,
            records: Vec::new(),
            violations,
        })
    })?;
    r.expect(",")?;
    r.member("records")?;
    let records = r.list("[", "]", |r| {
        r.expect("{")?;
        r.member("section")?;
        let mut record = Record::new(&r.string()?);
        for (group, kind) in GROUPS {
            r.expect(",")?;
            r.member(group)?;
            let fields = r.fields()?.into_iter();
            record
                .fields
                .extend(fields.map(|(name, value)| (name, kind, value)));
        }
        r.expect("}")?;
        Ok(record)
    })?;
    for record in records {
        match runs.iter_mut().find(|run| run.name == record.section) {
            Some(run) => run.records.push(record),
            None => return r.fail("a record of a listed section"),
        }
    }
    r.expect("}")?;
    if !r.rest().trim_end().is_empty() {
        return r.fail("the end of the document");
    }
    Ok(Document { host, runs })
}

/// A cursor over a document's text.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, expected: &'static str) -> Result<T, ReadError> {
        let at = self.at;
        Err(ReadError::Syntax { at, expected })
    }

    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    /// Consumes `token` after any whitespace, if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        self.at = self.text.len() - self.rest().trim_start().len();
        let found = self.rest().starts_with(token);
        if found {
            self.at += token.len();
        }
        found
    }

    fn expect(&mut self, token: &'static str) -> Result<(), ReadError> {
        match self.eat(token) {
            true => Ok(()),
            false => self.fail(token),
        }
    }

    /// Consumes `"name":`.
    fn member(&mut self, name: &'static str) -> Result<(), ReadError> {
        let at = self.at;
        if self.string()? != name {
            self.at = at;
            return self.fail(name);
        }
        self.expect(":")
    }

    /// Reads `open item, item … close`.
    fn list<T>(
        &mut self,
        open: &'static str,
        close: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, ReadError>,
    ) -> Result<Vec<T>, ReadError> {
        self.expect(open)?;
        let mut items = Vec::new();
        while !self.eat(close) {
            if !items.is_empty() {
                self.expect(",")?;
            }
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Reads an object of named values.
    fn fields(&mut self) -> Result<Vec<(String, Value)>, ReadError> {
        self.list("{", "}", |r| {
            let name = r.string()?;
            r.expect(":")?;
            Ok((name, r.value()?))
        })
    }

    /// Reads a string, undoing [`write_str`]'s escapes.
    fn string(&mut self) -> Result<String, ReadError> {
        self.expect("\"")?;
        let mut s = String::new();
        loop {
            let rest = self.rest();
            let Some(end) = rest.find(['"', '\\']) else {
                return self.fail("a closing quote");
            };
            s.push_str(&rest[..end]);
            self.at += end + 1;
            if rest[end..].starts_with('"') {
                return Ok(s);
            }
            let hex = rest.get(end + 2..end + 6);
            let (c, len) = match rest[end + 1..].chars().next() {
                Some('u') => (hex.and_then(|h| u32::from_str_radix(h, 16).ok()), 5),
                Some('n') => (Some('\n'.into()), 1),
                Some('t') => (Some('\t'.into()), 1),
                Some(c @ ('"' | '\\')) => (Some(c.into()), 1),
                _ => (None, 0),
            };
            match c.and_then(char::from_u32) {
                Some(c) => s.push(c),
                None => return self.fail("an escape"),
            }
            self.at += len;
        }
    }

    fn value(&mut self) -> Result<Value, ReadError> {
        if self.rest().trim_start().starts_with('"') {
            return self.string().map(Value::Str);
        }
        let words = [("true", true), ("false", false)];
        for (word, value) in words {
            if self.eat(word) {
                return Ok(Value::Bool(value));
            }
        }
        if self.eat("null") {
            return Ok(Value::Float(f64::NAN));
        }
        let rest = self.rest();
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        let number = &rest[..len];
        let value = match number.contains(['.', 'e', 'E']) {
            true => number.parse().ok().map(Value::Float),
            false => number.parse().ok().map(Value::Int),
        };
        let value = value.map_or_else(|| self.fail("a value"), Ok)?;
        self.at += len;
        Ok(value)
    }
}

/// Diffs a fresh document against the baseline `base`, named by its
/// path, as markdown for a CI job summary. Records match by section and
/// key fields. Exact fields are compared over both rows' names, so one
/// that vanished or was retagged advisory counts as drift. Advisory
/// fields and each section's `host_seconds` print as fresh/base ratios.
/// With no baseline, only the fresh run's violations are listed. Nothing
/// here gates: `reproduce` enforces the contracts itself.
pub fn diff(fresh: &Document, base: Option<(&str, &Document)>) -> String {
    let violations: Vec<String> = fresh
        .runs
        .iter()
        .flat_map(|s| s.violations.iter().map(|v| format!("- {}: {v}\n", s.name)))
        .collect();
    let mut md = format!(
        "## Bench diff vs committed baseline\n\n\
         contract violations in the fresh run: {}\n{}\n",
        violations.len(),
        violations.concat()
    );
    let Some((base_path, base)) = base else {
        return md + &format!("_no committed baseline with schema `{SCHEMA}` yet_");
    };
    let host = |doc: &Document, name| spell(doc.host.iter().find(|f| f.0 == name).map(|f| &f.1));
    md += &format!(
        "baseline: `{base_path}` (git {}, {} cpus); fresh: git {}, {} cpus\n\n\
         | section | host_seconds (fresh/base) |\n|---|---|\n",
        host(base, "git_rev"),
        host(base, "cpus"),
        host(fresh, "git_rev"),
        host(fresh, "cpus"),
    );
    let seconds = |run: &SectionRun| Value::Float(run.host_seconds);
    for run in &fresh.runs {
        let base_run = base.runs.iter().find(|b| b.name == run.name);
        let ratio = ratio(Some(&seconds(run)), base_run.map(seconds).as_ref());
        md += &format!("| {} | {ratio} |\n", run.name);
    }

    md += "\n| section | key | exact drift (fresh/base) | advisory (fresh/base) | verdict |\n\
           |---|---|---|---|---|\n";
    let base_index: HashMap<_, _> = base.records().map(|r| (ident(r), r)).collect();
    let mut drifted = 0;
    for record in fresh.records() {
        let (section, key) = (&record.section, key_cell(record));
        let Some(old) = base_index.get(&ident(record)) else {
            md += &format!("| {section} | {key} | | | new row |\n");
            continue;
        };
        let exact = record.group(Kind::Exact).chain(old.group(Kind::Exact));
        let names: BTreeSet<&str> = exact.map(|f| f.0).collect();
        let drift: Vec<String> = names
            .into_iter()
            .filter_map(|n| {
                let fresh = spell(record.get(Kind::Exact, n));
                let base = spell(old.get(Kind::Exact, n));
                (fresh != base).then(|| format!("{n} {fresh}/{base}"))
            })
            .collect();
        let advisory: Vec<String> = record
            .group(Kind::Advisory)
            .map(|(n, v)| format!("{n} {}", ratio(Some(v), old.get(Kind::Advisory, n))))
            .collect();
        drifted += drift.len();
        let verdict = if drift.is_empty() {
            "ok"
        } else {
            "exact drift"
        };
        let (drift, advisory) = (drift.join(", "), advisory.join(", "));
        md += &format!("| {section} | {key} | {drift} | {advisory} | {verdict} |\n");
    }
    let fresh_ids: BTreeSet<_> = fresh.records().map(ident).collect();
    for record in base.records() {
        let ran = fresh.runs.iter().any(|r| r.name == record.section);
        if ran && !fresh_ids.contains(&ident(record)) {
            let (section, key) = (&record.section, key_cell(record));
            md += &format!("| {section} | {key} | | | row gone |\n");
        }
    }
    md + &format!(
        "\nexact fields drifted: {drifted}\n\n_exact fields must repeat; advisory ratios \
         are host- and scheduling-dependent and never gate._"
    )
}

/// Every exact field that differs between repeated runs of the same
/// sections, one line each: the record's section and key, the field, and
/// its value in each run (`no row` where a run lacks the record). Records
/// match by section and key fields, as in [`diff`]. Empty when every
/// exact field repeated.
pub fn unrepeated(runs: &[Vec<Record>]) -> Vec<String> {
    let mut rows: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for record in runs.iter().flatten() {
        if !rows.contains(&ident(record)) {
            rows.push(ident(record));
        }
    }
    let mut lines = Vec::new();
    for row in &rows {
        let found: Vec<Option<&Record>> = runs
            .iter()
            .map(|run| run.iter().find(|r| ident(r) == *row))
            .collect();
        let exact = found.iter().flatten().flat_map(|r| r.group(Kind::Exact));
        let names: BTreeSet<&str> = exact.map(|f| f.0).collect();
        for name in names {
            let values: Vec<String> = found
                .iter()
                .map(|r| r.map_or_else(|| "no row".to_owned(), |r| spell(r.get(Kind::Exact, name))))
                .collect();
            if values.iter().any(|v| *v != values[0]) {
                let key = found.iter().flatten().next().map(|r| key_cell(r));
                let (section, key) = (&row.0, key.unwrap_or_default());
                lines.push(format!("{section} {key}: {name} = {}", values.join(", ")));
            }
        }
    }
    lines
}

/// A record's identity: its section and sorted key fields.
fn ident(record: &Record) -> (String, Vec<(String, String)>) {
    let mut key: Vec<_> = record
        .group(Kind::Key)
        .map(|(n, v)| (n.to_owned(), spell(Some(v))))
        .collect();
    key.sort();
    (record.section.clone(), key)
}

/// The key fields as `name=value` pairs, in write order.
fn key_cell(record: &Record) -> String {
    let pairs: Vec<String> = record
        .group(Kind::Key)
        .map(|(n, v)| format!("{n}={}", spell(Some(v))))
        .collect();
    pairs.join(" ")
}

/// A value as [`document`] writes it, with strings unquoted; a missing
/// field is `null`.
fn spell(value: Option<&Value>) -> String {
    let mut out = String::new();
    match value {
        Some(Value::Str(s)) => out.push_str(s),
        Some(v) => write_value(&mut out, v),
        None => out.push_str("null"),
    }
    out
}

/// `fresh / base` as `1.23x` when both are finite numbers and `base` is
/// nonzero, else both values spelled out.
fn ratio(fresh: Option<&Value>, base: Option<&Value>) -> String {
    let number = |v: Option<&Value>| match v {
        Some(Value::Int(v)) => Some(*v as f64),
        Some(Value::Float(v)) if v.is_finite() => Some(*v),
        _ => None,
    };
    match (number(fresh), number(base)) {
        (Some(f), Some(b)) if b != 0.0 => format!("{:.2}x", f / b),
        _ => format!("{}/{}", spell(fresh), spell(base)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped_record() -> Record {
        Record::new("t")
            .key("name", "a\"b\\c\nd\u{1}")
            .exact("n", 3u64)
            .advisory("nan", f64::NAN)
            .advisory("inf", f64::INFINITY)
            .advisory("x", 0.05)
    }

    #[test]
    fn unrepeated_names_each_exact_field_that_moved_with_every_value() {
        let row = |jobs: u64, ms: f64| {
            Record::new("a14")
                .key("tenant", "alpha")
                .exact("jobs", jobs)
                .exact("links", 1u64)
                .advisory("ms", ms)
        };
        let other = Record::new("a14").key("tenant", "beta").exact("jobs", 8u64);
        let same = vec![
            vec![row(32, 1.0), other.clone()],
            vec![row(32, 2.0), other.clone()],
        ];
        assert!(unrepeated(&same).is_empty(), "advisory fields may move");
        let moved = vec![
            vec![row(32, 1.0), other.clone()],
            vec![row(36, 1.0), other.clone()],
            vec![row(32, 1.0)],
        ];
        assert_eq!(
            unrepeated(&moved),
            vec![
                "a14 tenant=alpha: jobs = 32, 36, 32".to_owned(),
                "a14 tenant=beta: jobs = 8, 8, no row".to_owned(),
            ]
        );
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite_floats() {
        let mut out = String::new();
        escaped_record().write_json(&mut out);
        assert_eq!(
            out,
            r#"{"section": "t", "key": {"name": "a\"b\\c\nd\u0001"}, "exact": {"n": 3}, "advisory": {"nan": null, "inf": null, "x": 0.05}}"#
        );
    }

    /// Every value kind, escapes, violations, an empty section and
    /// non-finite floats, as a document.
    fn sample() -> (Vec<(String, Value)>, Vec<SectionRun>) {
        let host = vec![("cpus".to_owned(), Value::Int(2))];
        let other = Record::new("t")
            .key("tab", "\té")
            .exact("neg", Value::Int(-7))
            .exact("ok", true)
            .exact("bad", false)
            .advisory("tiny", 5.8645e-5)
            .advisory("huge", 1e20);
        let run = |name: &str, records, violations: &[&str]| SectionRun {
            name: name.to_owned(),
            host_seconds: 0.25,
            records,
            violations: violations.iter().map(|v| v.to_string()).collect(),
        };
        let runs = vec![
            run("t", vec![escaped_record(), other], &["\"q\" broke", ""]),
            run("f2", Vec::new(), &[]),
        ];
        (host, runs)
    }

    #[test]
    fn a_document_reads_back_to_what_was_written() {
        let (host, runs) = sample();
        let text = document(&host, &runs);
        let doc = read_document(&text).expect("reads");
        assert_eq!(doc.host, host);
        // null reads back as NaN, which Debug spells alike on both sides.
        let mut expected = runs;
        expected[0].records[0].fields[3].2 = Value::Float(f64::NAN);
        assert_eq!(format!("{:?}", doc.runs), format!("{expected:?}"));
        assert_eq!(document(&doc.host, &doc.runs), text);
    }

    #[test]
    fn a_truncated_or_foreign_document_is_a_typed_error() {
        let (host, runs) = sample();
        let text = document(&host, &runs);
        for len in (0..text.trim_end().len()).filter(|&len| text.is_char_boundary(len)) {
            let read = read_document(&text[..len]);
            assert!(matches!(read, Err(ReadError::Syntax { .. })), "{len} bytes");
        }
        let trailing = read_document(&format!("{text}}}"));
        assert!(matches!(trailing, Err(ReadError::Syntax { .. })));
        let foreign = text.replacen(SCHEMA, "gpes-bench/2", 1);
        let schema = |s: &str| Err(ReadError::Schema(s.to_owned()));
        assert_eq!(read_document(&foreign), schema("gpes-bench/2"));
        let old = include_str!("../../../BENCH_9.json");
        assert_eq!(read_document(old), schema("gpes-bench-baseline/1"));
    }

    /// BENCH_18 against `fresh`: the counts of drifted exact fields, new
    /// rows and gone rows, and the markdown.
    fn diff_18(fresh: &Document) -> ((usize, usize, usize), String) {
        let b18 = read_document(include_str!("../../../BENCH_18.json")).expect("baseline");
        let md = diff(fresh, Some(("BENCH_18.json", &b18)));
        let drifted = md.split("exact fields drifted: ").nth(1).expect("a total");
        let drifted = drifted.split('\n').next().and_then(|n| n.parse().ok());
        let rows = |verdict| md.matches(verdict).count();
        let counts = (
            drifted.expect("a count"),
            rows("| new row |"),
            rows("| row gone |"),
        );
        (counts, md)
    }

    #[test]
    fn diff_of_committed_baselines_keeps_the_recorded_counts() {
        let b10 = read_document(include_str!("../../../BENCH_10.json")).expect("baseline");
        let (counts, md) = diff_18(&b10);
        assert_eq!(counts, (13, 2, 6), "{md}");
        assert!(md.contains("| admission_hits null/0, admissions null/10,"));
        let b18 = read_document(include_str!("../../../BENCH_18.json")).expect("baseline");
        let (counts, md) = diff_18(&b18);
        assert_eq!(counts, (0, 0, 0), "{md}");
        assert_eq!(md.matches("| ok |").count(), b18.records().count());
    }

    #[test]
    fn one_changed_exact_field_is_one_drift() {
        let mut fresh = read_document(include_str!("../../../BENCH_18.json")).expect("baseline");
        let run = fresh.runs.iter_mut().find(|r| r.name == "a9").expect("a9");
        let field = run.records[0]
            .fields
            .iter_mut()
            .find(|f| f.1 == Kind::Exact)
            .expect("an exact field");
        field.2 = Value::Int(-1);
        let (counts, md) = diff_18(&fresh);
        assert_eq!(counts, (1, 0, 0), "{md}");
        assert_eq!(md.matches("| exact drift |").count(), 1);
        let none = diff(&fresh, None);
        assert!(none.ends_with("_no committed baseline with schema `gpes-bench/1` yet_"));
    }
}
