//! The serialization-discipline rule family: schema versions stay in
//! sync across writer, parser and committed baselines, and the trace
//! event alphabet stays registered.
//!
//! Two rule ids:
//!
//! * `schema-sync` — every `baselines/BENCH_*.json` must carry the
//!   `SCHEMA_VERSION` constant of `crates/harness/src/report.rs`. The
//!   harness is the only writer, parser and gate of both BENCH kinds
//!   (grid and counts reports), so checking the baselines against that
//!   one constant closes the loop;
//! * `trace-kinds` — in `crates/trace/src/event.rs`, the kind strings
//!   returned by `TraceEvent::kind()`, the entries of the
//!   `TraceEvent::KINDS` registry, and the tags `from_fields` can parse
//!   must be exactly the same set: an event kind that can be emitted
//!   but not replayed (or registered but never emitted) is a stale
//!   registry.

use crate::scan::scan;
use crate::walk::read_file;
use crate::Violation;
use std::path::Path;

/// Runs both serialization checks under `root`.
///
/// # Errors
///
/// Returns a message when a source or baseline file cannot be read.
pub fn check_schema(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = check_schema_versions(root)?;
    violations.extend(check_trace_kinds(root)?);
    Ok(violations)
}

/// First *standalone* run of ASCII digits in `text` — digits embedded
/// in an identifier (the `64` of `Json::U64(...)`) don't count.
fn first_int(text: &str) -> Option<u64> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let standalone =
                i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if standalone {
                return text[start..i].parse().ok();
            }
        } else {
            i += 1;
        }
    }
    None
}

/// The harness-wide `SCHEMA_VERSION` constant and its line.
fn harness_schema(root: &Path) -> Result<Option<(u64, usize)>, String> {
    let rel = "crates/harness/src/report.rs";
    if !root.join(rel).is_file() {
        return Ok(None);
    }
    let file = scan(&read_file(root, rel)?);
    let found = file.code_lines().find_map(|line| {
        let eq = line
            .code
            .find('=')
            .filter(|_| line.code.contains("SCHEMA_VERSION"))?;
        Some((first_int(&line.code[eq..])?, line.number))
    });
    Ok(found)
}

fn check_schema_versions(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let Some((expected, line)) = harness_schema(root)? else {
        return Ok(violations);
    };
    let owner = format!("crates/harness/src/report.rs:{line}");
    let baselines = root.join("baselines");
    if !baselines.is_dir() {
        return Ok(violations);
    }
    let mut names: Vec<String> = std::fs::read_dir(&baselines)
        .map_err(|e| format!("baselines: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let rel = format!("baselines/{name}");
        let text = read_file(root, &rel)?;
        let stamp = text.lines().enumerate().find_map(|(index, line)| {
            let at = line.find("\"schema_version\"")? + "\"schema_version\"".len();
            Some((index + 1, first_int(&line[at..])))
        });
        let message = match stamp {
            None => "baseline carries no schema_version field".to_string(),
            Some((_, Some(value))) if value == expected => continue,
            Some((_, value)) => format!(
                "schema_version {} does not match the writer's {expected} (declared in \
                 {owner}); regenerate the baseline in this PR",
                value.map_or_else(|| "?".to_string(), |v| v.to_string()),
            ),
        };
        let line = stamp.map_or(1, |(line, _)| line);
        violations.push(Violation::new(&rel, line, "schema-sync", message));
    }
    Ok(violations)
}

/// Collected trace-kind strings: the registry table, the `kind()` match
/// arms, and the `from_fields` parser arms.
#[derive(Debug, Default)]
struct KindSets {
    /// `KINDS` table entries as `(kind, line)`.
    table: Vec<(String, usize)>,
    /// `kind()` arm strings as `(kind, line)`.
    emitted: Vec<(String, usize)>,
    /// `from_fields` arm tags as `(kind, line)`.
    parsed: Vec<(String, usize)>,
}

fn check_trace_kinds(root: &Path) -> Result<Vec<Violation>, String> {
    let rel = "crates/trace/src/event.rs";
    if !root.join(rel).is_file() {
        return Ok(Vec::new());
    }
    let file = scan(&read_file(root, rel)?);
    let mut sets = KindSets::default();
    let mut in_table = false;
    for line in file.code_lines() {
        let trimmed = line.code.trim_start();
        if line.code.contains("KINDS") && line.code.contains('[') {
            in_table = true;
            continue;
        }
        if in_table {
            if let Some(kind) = line.strings.first() {
                sets.table.push((kind.clone(), line.number));
            }
            if line.code.contains(']') {
                in_table = false;
            }
            continue;
        }
        if trimmed.starts_with("TraceEvent::") && line.code.contains("=> \"") {
            if let Some(kind) = line.strings.first() {
                sets.emitted.push((kind.clone(), line.number));
            }
        } else if trimmed.starts_with('"') && line.code.contains("=>") {
            if let Some(kind) = line.strings.first() {
                sets.parsed.push((kind.clone(), line.number));
            }
        }
    }

    let mut violations = Vec::new();
    if sets.table.is_empty() || sets.emitted.is_empty() {
        violations.push(Violation::new(
            rel,
            1,
            "trace-kinds",
            format!(
                "could not locate the KINDS registry and kind() arms ({} table entries, {} \
                 arms found)",
                sets.table.len(),
                sets.emitted.len()
            ),
        ));
        return Ok(violations);
    }
    let registered: Vec<&str> = sets.table.iter().map(|(k, _)| k.as_str()).collect();
    let emitted: Vec<&str> = sets.emitted.iter().map(|(k, _)| k.as_str()).collect();
    let parsed: Vec<&str> = sets.parsed.iter().map(|(k, _)| k.as_str()).collect();
    for (kind, line) in &sets.emitted {
        if !registered.contains(&kind.as_str()) {
            violations.push(Violation::new(
                rel,
                *line,
                "trace-kinds",
                format!("kind \"{kind}\" is emitted but missing from the KINDS registry"),
            ));
        }
    }
    for (kind, line) in &sets.table {
        if !emitted.contains(&kind.as_str()) {
            violations.push(Violation::new(
                rel,
                *line,
                "trace-kinds",
                format!("kind \"{kind}\" is registered in KINDS but no kind() arm emits it"),
            ));
        }
        if !parsed.contains(&kind.as_str()) {
            violations.push(Violation::new(
                rel,
                *line,
                "trace-kinds",
                format!("kind \"{kind}\" is registered in KINDS but from_fields cannot parse it"),
            ));
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_int_finds_the_leading_run() {
        assert_eq!(first_int("= 4;"), Some(4));
        assert_eq!(first_int(", Json::U64(12))"), Some(12));
        assert_eq!(first_int("no digits"), None);
    }
}
