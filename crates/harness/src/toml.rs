//! A minimal, line-tracking TOML reader.
//!
//! The vendored `toml`/`serde` crates are compile-only marker stubs, so
//! the scenario library carries its own parser, mirroring what
//! [`crate::json`] does for `BENCH_*.json` — but where the JSON model
//! optimises for byte-deterministic *output*, this one optimises for
//! *diagnosable input*: every table header and every `key = value`
//! entry remembers the 1-based line it came from, so a scenario file
//! that fails validation is rejected with an error naming the offending
//! line (see [`crate::scenario_file`]).
//!
//! The dialect is the subset scenario files need — bare keys, string /
//! integer / float / boolean scalars, single-line arrays, `[table]` and
//! `[[array-of-table]]` headers, `#` comments — with TOML's duplicate
//! key/table rules enforced. Dotted keys, inline tables and multi-line
//! strings are rejected rather than misparsed.

/// A parse or structure error, carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.line, self.message)
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        message: message.into(),
    })
}

/// A TOML scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic (double-quoted) string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Float(v) => Some(*v),
            TomlValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TomlValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A short type name for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
        }
    }
}

/// One `key = value` entry, with the line it was written on.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlEntry {
    /// The bare key.
    pub key: String,
    /// The parsed value.
    pub value: TomlValue,
    /// 1-based source line.
    pub line: usize,
}

/// One `[name]` or `[[name]]` table, with its entries in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlTable {
    /// The table name (dotted names are rejected at parse time).
    pub name: String,
    /// `true` for `[[name]]` array-of-table elements.
    pub is_array: bool,
    /// 1-based line of the header.
    pub line: usize,
    /// Entries under this header.
    pub entries: Vec<TomlEntry>,
}

impl TomlTable {
    /// Looks up an entry by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&TomlEntry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: root-level entries plus tables in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlDocument {
    /// Entries before the first table header.
    pub root: Vec<TomlEntry>,
    /// Tables in file order (`[[x]]` elements stay separate).
    pub tables: Vec<TomlTable>,
}

impl TomlDocument {
    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Returns a [`TomlError`] naming the 1-based line of the first
    /// syntax problem, duplicate key, or duplicate plain table.
    pub fn parse(input: &str) -> Result<TomlDocument, TomlError> {
        let mut doc = TomlDocument::default();
        for (index, raw) in input.lines().enumerate() {
            let line_no = index + 1;
            let stripped = strip_comment(raw, line_no)?;
            let line = stripped.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix("[[") {
                let Some(name) = inner.strip_suffix("]]") else {
                    return err(line_no, "unterminated [[table]] header");
                };
                doc.tables
                    .push(table_header(name.trim(), true, line_no, &doc.tables)?);
            } else if let Some(inner) = line.strip_prefix('[') {
                let Some(name) = inner.strip_suffix(']') else {
                    return err(line_no, "unterminated [table] header");
                };
                doc.tables
                    .push(table_header(name.trim(), false, line_no, &doc.tables)?);
            } else {
                let entry = parse_entry(line, line_no)?;
                let siblings = match doc.tables.last_mut() {
                    Some(table) => &mut table.entries,
                    None => &mut doc.root,
                };
                if let Some(previous) = siblings.iter().find(|e| e.key == entry.key) {
                    return err(
                        line_no,
                        format!(
                            "duplicate key `{}` (first defined on line {})",
                            entry.key, previous.line
                        ),
                    );
                }
                siblings.push(entry);
            }
        }
        Ok(doc)
    }

    /// The first `[name]` table with this name, if any.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TomlTable> {
        self.tables.iter().find(|t| t.name == name && !t.is_array)
    }

    /// Every `[[name]]` element with this name, in file order.
    #[must_use]
    pub fn array_tables(&self, name: &str) -> Vec<&TomlTable> {
        self.tables
            .iter()
            .filter(|t| t.name == name && t.is_array)
            .collect()
    }

    /// Looks up a root-level entry by key.
    #[must_use]
    pub fn root_entry(&self, key: &str) -> Option<&TomlEntry> {
        self.root.iter().find(|e| e.key == key)
    }
}

fn table_header(
    name: &str,
    is_array: bool,
    line: usize,
    existing: &[TomlTable],
) -> Result<TomlTable, TomlError> {
    if name.is_empty() || !name.chars().all(is_bare_key_char) {
        return err(line, format!("invalid table name `{name}`"));
    }
    if let Some(previous) = existing.iter().find(|t| t.name == name) {
        // A plain table may appear once; only [[x]] elements repeat.
        if !is_array || !previous.is_array {
            return err(
                line,
                format!(
                    "table `{name}` already defined on line {} (use [[{name}]] for repetition)",
                    previous.line
                ),
            );
        }
    }
    Ok(TomlTable {
        name: name.to_string(),
        is_array,
        line,
        entries: Vec::new(),
    })
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Removes a trailing `#` comment, respecting string literals.
fn strip_comment(line: &str, line_no: usize) -> Result<&str, TomlError> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return Ok(&line[..i]),
            _ => {}
        }
        escaped = false;
    }
    if in_string {
        return err(line_no, "unterminated string");
    }
    Ok(line)
}

fn parse_entry(line: &str, line_no: usize) -> Result<TomlEntry, TomlError> {
    let Some(eq) = line.find('=') else {
        return err(line_no, format!("expected `key = value`, got `{line}`"));
    };
    let key = line[..eq].trim();
    if key.is_empty() || !key.chars().all(is_bare_key_char) {
        return err(line_no, format!("invalid key `{key}` (bare keys only)"));
    }
    let value_text = line[eq + 1..].trim();
    if value_text.is_empty() {
        return err(line_no, format!("key `{key}` has no value"));
    }
    let mut pos = 0usize;
    let value = parse_value(value_text, &mut pos, line_no, 0)?;
    if value_text[pos..].trim().is_empty() {
        Ok(TomlEntry {
            key: key.to_string(),
            value,
            line: line_no,
        })
    } else {
        err(
            line_no,
            format!("trailing input after value: `{}`", value_text[pos..].trim()),
        )
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t') {
        *pos += 1;
    }
}

/// How deeply arrays may nest. The value parser recurses once per `[`,
/// so the cap turns a hostile `x = [[[[…` into a line-numbered error
/// instead of a stack overflow; scenario files nest one level deep.
const MAX_DEPTH: usize = 128;

fn parse_value(
    text: &str,
    pos: &mut usize,
    line_no: usize,
    depth: usize,
) -> Result<TomlValue, TomlError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err(line_no, "missing value"),
        Some(b'"') => parse_string(text, pos, line_no).map(TomlValue::Str),
        Some(b'[') if depth == MAX_DEPTH => err(
            line_no,
            format!("arrays nested deeper than {MAX_DEPTH} levels"),
        ),
        Some(b'[') => parse_array(text, pos, line_no, depth + 1),
        Some(b't') | Some(b'f') => parse_bool(bytes, pos, line_no),
        Some(_) => parse_number(bytes, pos, line_no),
    }
}

fn parse_bool(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<TomlValue, TomlError> {
    for (word, value) in [("true", true), ("false", false)] {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            return Ok(TomlValue::Bool(value));
        }
    }
    err(line_no, "invalid literal (expected true/false)")
}

fn parse_string(text: &str, pos: &mut usize, line_no: usize) -> Result<String, TomlError> {
    let bytes = text.as_bytes();
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err(line_no, "unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    _ => return err(line_no, "unsupported string escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one go;
                // both are ASCII, so the run ends on a char boundary.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(&text[*pos..end]);
                *pos = end;
            }
        }
    }
}

fn parse_array(
    text: &str,
    pos: &mut usize,
    line_no: usize,
    depth: usize,
) -> Result<TomlValue, TomlError> {
    let bytes = text.as_bytes();
    *pos += 1; // opening bracket
    let mut items = Vec::new();
    loop {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => return err(line_no, "unterminated array"),
            Some(b']') => {
                *pos += 1;
                return Ok(TomlValue::Array(items));
            }
            Some(_) => {
                items.push(parse_value(text, pos, line_no, depth)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {}
                    None => return err(line_no, "unterminated array"),
                    Some(_) => return err(line_no, "expected `,` or `]` in array"),
                }
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<TomlValue, TomlError> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E' | b'_' => *pos += 1,
            _ => break,
        }
    }
    let text: String = std::str::from_utf8(&bytes[start..*pos])
        .expect("ascii number chars")
        .chars()
        .filter(|&c| c != '_')
        .collect();
    if text.is_empty() {
        return err(line_no, "invalid value");
    }
    let float = text.contains(['.', 'e', 'E']);
    if !float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(TomlValue::Int(v));
        }
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(TomlValue::Float(v)),
        Ok(_) => err(line_no, format!("number `{text}` out of range")),
        Err(_) => err(line_no, format!("invalid number `{text}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_entries_and_comments() {
        let doc = TomlDocument::parse(
            "# scenario\nname = \"diurnal\" # inline\n\n[run]\ncameras = 4\nbandwidth_mbps = 80.0\n\n[[fault]]\nkind = \"brownout\"\nactive = true\nweights = [3.0, 1.0]\n",
        )
        .unwrap();
        assert_eq!(
            doc.root_entry("name").unwrap().value,
            TomlValue::Str("diurnal".to_string())
        );
        assert_eq!(doc.root_entry("name").unwrap().line, 2);
        let run = doc.table("run").unwrap();
        assert_eq!(run.line, 4);
        assert_eq!(run.get("cameras").unwrap().value, TomlValue::Int(4));
        assert_eq!(
            run.get("bandwidth_mbps").unwrap().value,
            TomlValue::Float(80.0)
        );
        let faults = doc.array_tables("fault");
        assert_eq!(faults.len(), 1);
        assert_eq!(
            faults[0].get("active").unwrap().value,
            TomlValue::Bool(true)
        );
        assert_eq!(
            faults[0].get("weights").unwrap().value,
            TomlValue::Array(vec![TomlValue::Float(3.0), TomlValue::Float(1.0)])
        );
    }

    #[test]
    fn errors_carry_the_line_number() {
        let cases = [
            ("a = 1\nb ==\n", 2, "invalid value"),
            ("a = 1\n\nnot a pair\n", 3, "expected `key = value`"),
            ("[run\n", 1, "unterminated [table] header"),
            ("a = \"oops\n", 1, "unterminated string"),
            ("x = [1, 2\n", 1, "unterminated array"),
            ("x = zebra\n", 1, "invalid value"),
        ];
        for (input, line, needle) in cases {
            let e = TomlDocument::parse(input).unwrap_err();
            assert_eq!(e.line, line, "{input:?} -> {e}");
            assert!(e.message.contains(needle), "{input:?} -> {e}");
        }
    }

    #[test]
    fn duplicate_keys_and_tables_are_rejected() {
        let e = TomlDocument::parse("[run]\nseed = 1\nseed = 2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate key `seed`"), "{e}");
        assert!(e.message.contains("line 2"), "{e}");

        let e = TomlDocument::parse("[run]\n[run]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("already defined on line 1"), "{e}");

        // Array tables repeat freely.
        assert!(TomlDocument::parse("[[fault]]\n[[fault]]\n").is_ok());
        // …but mixing [x] and [[x]] is a conflict either way around.
        assert!(TomlDocument::parse("[fault]\n[[fault]]\n").is_err());
        assert!(TomlDocument::parse("[[fault]]\n[fault]\n").is_err());
    }

    #[test]
    fn value_accessors_and_widening() {
        let doc = TomlDocument::parse("i = 3\nf = 0.5\nneg = -2\n").unwrap();
        assert_eq!(doc.root_entry("i").unwrap().value.as_f64(), Some(3.0));
        assert_eq!(doc.root_entry("i").unwrap().value.as_u64(), Some(3));
        assert_eq!(doc.root_entry("f").unwrap().value.as_u64(), None);
        assert_eq!(doc.root_entry("neg").unwrap().value.as_u64(), None);
        assert_eq!(doc.root_entry("neg").unwrap().value.as_f64(), Some(-2.0));
        assert_eq!(doc.root_entry("f").unwrap().value.type_name(), "float");
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let doc = TomlDocument::parse("s = \"a # b\"\n").unwrap();
        assert_eq!(doc.root_entry("s").unwrap().value.as_str(), Some("a # b"));
    }

    #[test]
    fn hostile_nesting_is_a_line_numbered_error() {
        let deep = format!("a = 1\nx = {}\n", "[".repeat(100_000));
        let e = TomlDocument::parse(&deep).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("nested deeper than 128"), "{e}");

        let at_cap = format!("x = {}{}\n", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(TomlDocument::parse(&at_cap).is_ok());
        let past_cap = format!("x = [{}{}]\n", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(TomlDocument::parse(&past_cap).is_err());
    }

    #[test]
    fn long_multibyte_strings_and_overflowing_floats() {
        let long = "é→\\\"x".repeat(50_000);
        let doc = TomlDocument::parse(&format!("s = \"{long}\"\n")).unwrap();
        let decoded = doc.root_entry("s").unwrap().value.as_str().unwrap();
        assert_eq!(decoded, "é→\"x".repeat(50_000));

        let e = TomlDocument::parse("a = 1\nf = 1e999\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn underscored_integers_parse() {
        let doc = TomlDocument::parse("n = 1_000_000\n").unwrap();
        assert_eq!(
            doc.root_entry("n").unwrap().value,
            TomlValue::Int(1_000_000)
        );
    }
}
