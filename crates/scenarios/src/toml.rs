//! A minimal TOML-subset reader for scenario plans.
//!
//! The workspace vendors no TOML crate, so plans are read by this small,
//! dependency-free parser. It covers exactly the subset the plan schema
//! uses — comments, `[table]` headers, `[[array-of-table]]` headers, and
//! `key = value` pairs whose values are basic strings, integers, floats,
//! booleans or single-line arrays — and rejects everything else with a
//! pointed [`PlanError`] naming the file, line and offending text.
//! Malformed input must never panic: every failure path returns an error
//! a user can act on.

use std::fmt;

/// A plan-loading error: file, location, message.
///
/// `location` is either a line reference (`line 7`) or a schema path
/// (`[topology].hosts`) — whichever pins the mistake best.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// The file being parsed (as given by the caller).
    pub file: String,
    /// Where in the file or schema the problem sits.
    pub location: String,
    /// What went wrong, with observed and expected values.
    pub message: String,
}

impl PlanError {
    /// Builds an error pinned to a source line.
    #[must_use]
    pub fn at_line(file: &str, line: usize, message: impl Into<String>) -> Self {
        PlanError {
            file: file.to_owned(),
            location: format!("line {line}"),
            message: message.into(),
        }
    }

    /// Builds an error pinned to a schema path like `[topology].hosts`.
    #[must_use]
    pub fn at_field(file: &str, table: &str, field: &str, message: impl Into<String>) -> Self {
        let location = if table.is_empty() {
            field.to_owned()
        } else {
            format!("[{table}].{field}")
        };
        PlanError {
            file: file.to_owned(),
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.file, self.location, self.message)
    }
}

impl std::error::Error for PlanError {}

/// A parsed TOML value (the subset plans use).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// A basic string (`"…"`).
    Str(String),
    /// An integer (underscore separators allowed).
    Int(i64),
    /// A float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line array `[v, v, …]`.
    Array(Vec<Value>),
}

impl Value {
    /// The value's type name, for error messages.
    #[must_use]
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One `key = value` pair with its source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Entry {
    /// The bare key.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line of the pair.
    pub line: usize,
}

/// One table: its entries in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Table {
    /// The table's `key = value` pairs, in file order.
    pub entries: Vec<Entry>,
    /// 1-based source line of the table header (0 for the root table).
    pub line: usize,
}

impl Table {
    /// Looks up an entry by key.
    #[must_use]
    #[allow(dead_code)] // exercised by the parser tests
    pub(crate) fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: named tables plus array-of-tables, in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Doc {
    /// Root-level `key = value` pairs (before any header).
    pub root: Table,
    /// `[name]` tables, in file order. Duplicates are a parse error.
    pub tables: Vec<(String, Table)>,
    /// `[[name]]` tables, in file order, possibly several per name.
    pub arrays: Vec<(String, Table)>,
}

impl Doc {
    /// The unique `[name]` table, if present.
    #[must_use]
    pub(crate) fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Every `[[name]]` table, in file order.
    #[must_use]
    pub(crate) fn array_of(&self, name: &str) -> Vec<&Table> {
        self.arrays
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, t)| t)
            .collect()
    }
}

/// Parses a TOML-subset document.
///
/// # Errors
///
/// Returns a [`PlanError`] naming `file` and the offending line for any
/// syntax problem: unterminated strings, missing `=`, duplicate tables or
/// keys, multi-line arrays, or values outside the supported subset.
pub(crate) fn parse(input: &str, file: &str) -> Result<Doc, PlanError> {
    let mut doc = Doc::default();
    // Index of the table currently receiving keys: None = root,
    // Some((is_array, idx)) = doc.tables[idx] / doc.arrays[idx].
    let mut current: Option<(bool, usize)> = None;
    for (i, raw) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw, file, line_no)?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return Err(PlanError::at_line(
                    file,
                    line_no,
                    format!("unclosed table header `{line}` (expected `[[name]]`)"),
                ));
            };
            let name = valid_table_name(name, file, line_no)?;
            if doc.tables.iter().any(|(n, _)| *n == name) {
                return Err(PlanError::at_line(
                    file,
                    line_no,
                    format!("`[[{name}]]` conflicts with an earlier `[{name}]` table"),
                ));
            }
            doc.arrays.push((
                name,
                Table {
                    entries: Vec::new(),
                    line: line_no,
                },
            ));
            current = Some((true, doc.arrays.len() - 1));
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(PlanError::at_line(
                    file,
                    line_no,
                    format!("unclosed table header `{line}` (expected `[name]`)"),
                ));
            };
            let name = valid_table_name(name, file, line_no)?;
            if doc.tables.iter().any(|(n, _)| *n == name) {
                return Err(PlanError::at_line(
                    file,
                    line_no,
                    format!("duplicate table `[{name}]`"),
                ));
            }
            if doc.arrays.iter().any(|(n, _)| *n == name) {
                return Err(PlanError::at_line(
                    file,
                    line_no,
                    format!("`[{name}]` conflicts with an earlier `[[{name}]]` table"),
                ));
            }
            doc.tables.push((
                name,
                Table {
                    entries: Vec::new(),
                    line: line_no,
                },
            ));
            current = Some((false, doc.tables.len() - 1));
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(PlanError::at_line(
                file,
                line_no,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = line[..eq].trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(PlanError::at_line(
                file,
                line_no,
                format!("invalid key `{key}` (bare keys only: letters, digits, `_`, `-`)"),
            ));
        }
        let value = parse_value(line[eq + 1..].trim(), file, line_no)?;
        let table = match current {
            None => &mut doc.root,
            Some((false, idx)) => &mut doc.tables[idx].1,
            Some((true, idx)) => &mut doc.arrays[idx].1,
        };
        if table.entries.iter().any(|e| e.key == key) {
            return Err(PlanError::at_line(
                file,
                line_no,
                format!("duplicate key `{key}`"),
            ));
        }
        table.entries.push(Entry {
            key: key.to_owned(),
            value,
            line: line_no,
        });
    }
    Ok(doc)
}

/// Removes a trailing `#` comment, respecting string literals.
fn strip_comment<'a>(line: &'a str, file: &str, line_no: usize) -> Result<&'a str, PlanError> {
    let mut in_string = false;
    let mut escaped = false;
    for (pos, c) in line.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c == '#' {
            return Ok(&line[..pos]);
        }
    }
    if in_string {
        return Err(PlanError::at_line(file, line_no, "unterminated string"));
    }
    Ok(line)
}

fn valid_table_name(name: &str, file: &str, line_no: usize) -> Result<String, PlanError> {
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
    {
        return Err(PlanError::at_line(
            file,
            line_no,
            format!("invalid table name `{name}`"),
        ));
    }
    Ok(name.to_owned())
}

/// Parses one value: string, bool, array, int or float.
fn parse_value(text: &str, file: &str, line_no: usize) -> Result<Value, PlanError> {
    if text.is_empty() {
        return Err(PlanError::at_line(file, line_no, "missing value after `=`"));
    }
    if let Some(rest) = text.strip_prefix('"') {
        return parse_string(rest, file, line_no);
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(PlanError::at_line(
                file,
                line_no,
                "arrays must open and close on the same line",
            ));
        };
        let mut items = Vec::new();
        for part in split_array(inner, file, line_no)? {
            items.push(parse_value(part.trim(), file, line_no)?);
        }
        return Ok(Value::Array(items));
    }
    parse_number(text, file, line_no)
}

fn parse_string(body: &str, file: &str, line_no: usize) -> Result<Value, PlanError> {
    let mut out = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let rest: String = chars.collect();
                if !rest.trim().is_empty() {
                    return Err(PlanError::at_line(
                        file,
                        line_no,
                        format!("unexpected text after string: `{}`", rest.trim()),
                    ));
                }
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    return Err(PlanError::at_line(
                        file,
                        line_no,
                        format!("unsupported escape `\\{other}`"),
                    ));
                }
                None => break,
            },
            c => out.push(c),
        }
    }
    Err(PlanError::at_line(file, line_no, "unterminated string"))
}

/// Splits an array body at top-level commas (strings may contain commas).
fn split_array<'a>(inner: &'a str, file: &str, line_no: usize) -> Result<Vec<&'a str>, PlanError> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (pos, c) in inner.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c == '[' {
            return Err(PlanError::at_line(
                file,
                line_no,
                "nested arrays are not supported",
            ));
        } else if c == ',' {
            parts.push(&inner[start..pos]);
            start = pos + 1;
        }
    }
    // An empty tail is a trailing comma (or an empty array): dropped.
    let last = &inner[start..];
    if !last.trim().is_empty() {
        parts.push(last);
    }
    Ok(parts)
}

fn parse_number(text: &str, file: &str, line_no: usize) -> Result<Value, PlanError> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E') {
        if let Ok(f) = cleaned.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
    } else if let Ok(i) = cleaned.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    Err(PlanError::at_line(
        file,
        line_no,
        format!("unrecognized value `{text}` (expected a string, number, boolean or array)"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_every_value_kind() {
        let doc = parse(
            r#"
# A comment.
top = 1

[plan]
name = "demo # not a comment"
seed = 2_003
ratio = 0.25
flag = true

[[workload]]
kbps = 64
classes = ["real-time", "best-effort"]

[[workload]]
kbps = 128.5
sizes = [4, 8, 12]
"#,
            "demo.toml",
        )
        .expect("parses");
        assert_eq!(doc.root.get("top").unwrap().value, Value::Int(1));
        let plan = doc.table("plan").expect("[plan]");
        assert_eq!(
            plan.get("name").unwrap().value,
            Value::Str("demo # not a comment".to_owned())
        );
        assert_eq!(plan.get("seed").unwrap().value, Value::Int(2003));
        assert_eq!(plan.get("ratio").unwrap().value, Value::Float(0.25));
        assert_eq!(plan.get("flag").unwrap().value, Value::Bool(true));
        let workloads = doc.array_of("workload");
        assert_eq!(workloads.len(), 2);
        assert_eq!(
            workloads[0].get("classes").unwrap().value,
            Value::Array(vec![
                Value::Str("real-time".to_owned()),
                Value::Str("best-effort".to_owned())
            ])
        );
        assert_eq!(
            workloads[1].get("sizes").unwrap().value,
            Value::Array(vec![Value::Int(4), Value::Int(8), Value::Int(12)])
        );
    }

    #[test]
    fn syntax_errors_point_at_file_and_line() {
        let err = parse("[plan]\nnope\n", "x.toml").unwrap_err();
        assert_eq!(err.file, "x.toml");
        assert_eq!(err.location, "line 2");
        assert!(err.to_string().contains("key = value"), "{err}");

        let err = parse("[plan\n", "x.toml").unwrap_err();
        assert!(err.message.contains("unclosed table header"), "{err}");

        let err = parse("s = \"oops\n", "x.toml").unwrap_err();
        assert!(err.message.contains("unterminated string"), "{err}");

        let err = parse("v = [1,\n2]\n", "x.toml").unwrap_err();
        assert!(err.message.contains("same line"), "{err}");

        let err = parse("v = @wat\n", "x.toml").unwrap_err();
        assert!(err.message.contains("unrecognized value"), "{err}");
    }

    #[test]
    fn duplicate_tables_and_keys_are_rejected() {
        let err = parse("[a]\n[a]\n", "x.toml").unwrap_err();
        assert!(err.message.contains("duplicate table"), "{err}");
        let err = parse("[a]\nk = 1\nk = 2\n", "x.toml").unwrap_err();
        assert!(err.message.contains("duplicate key"), "{err}");
        let err = parse("[[a]]\nk = 1\n[a]\n", "x.toml").unwrap_err();
        assert!(err.message.contains("conflicts"), "{err}");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = parse("s = \"a#b\" # real comment\n", "x.toml").expect("parses");
        assert_eq!(doc.root.get("s").unwrap().value, Value::Str("a#b".into()));
    }

    #[test]
    fn error_display_has_file_location_message() {
        let e = PlanError::at_field(
            "p.toml",
            "topology",
            "hosts",
            "expected integer, got string",
        );
        assert_eq!(
            e.to_string(),
            "p.toml: [topology].hosts: expected integer, got string"
        );
    }
}
