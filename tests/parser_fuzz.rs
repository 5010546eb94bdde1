//! Deterministic mutational fuzzing of the two hand-rolled input
//! parsers: BENCH JSON (`tangram_harness::json`, read by `bench_gate`)
//! and scenario TOML (`tangram_harness::toml`, read by every scenario
//! run). Each committed `baselines/BENCH_*.json` and
//! `config/scenarios/*.toml` is mutated byte-wise by a fixed-seed
//! `DetRng` for a fixed budget, so the run is the same on every machine
//! and needs no fuzzing toolchain. Every mutant must parse or return an
//! error — never panic or overflow the stack — and every mutant that
//! parses must survive `parse(render(v)) == v`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tangram_harness::json::Json;
use tangram_harness::toml::{TomlDocument, TomlEntry, TomlValue};
use tangram_harness::{BenchReport, CountsReport, ScenarioFile};
use tangram_sim::rng::DetRng;

/// Root seed of every mutant stream.
const SEED: u64 = 0x7a_9f02;

/// Mutants generated per corpus file.
const MUTANTS_PER_FILE: u64 = 1000;

/// Bytes that steer mutants into the parsers' interesting states:
/// structure, escapes, number syntax, keywords, comments, a NUL and the
/// pieces of a multi-byte character (lone ones become U+FFFD).
const ALPHABET: &[u8] = b"[]{}\",:\\.-+eE0123456789 \t\n#=_tfnu\x00\xc3\xa9\xff";

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The committed files under `dir` whose names start with `prefix` and
/// end with `suffix`, sorted, with their bytes.
fn corpus(dir: &str, prefix: &str, suffix: &str) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(repo_path(dir))
        .expect("corpus directory")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with(prefix) && name.ends_with(suffix)
        })
        .map(|path| {
            let bytes = std::fs::read(&path).expect("corpus file");
            (path.display().to_string(), bytes)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no {prefix}*{suffix} files under {dir}");
    files
}

/// Applies one to four random edits to `seed_bytes`.
fn mutate(seed_bytes: &[u8], rng: &mut DetRng) -> Vec<u8> {
    let mut bytes = seed_bytes.to_vec();
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(bytes.len() + 1);
        let pick = ALPHABET[rng.index(ALPHABET.len())];
        match rng.index(6) {
            0 if at < bytes.len() => bytes[at] = pick,
            1 => bytes.insert(at, pick),
            2 => {
                let end = (at + 1 + rng.index(8)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => {
                let end = (at + 1 + rng.index(32)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                let to = rng.index(bytes.len() + 1);
                bytes.splice(to..to, span);
            }
            4 => bytes.truncate(at),
            _ => {
                let open = if rng.chance(0.5) { b'[' } else { b'{' };
                let run = vec![open; 1 + rng.index(400)];
                bytes.splice(at..at, run);
            }
        }
    }
    bytes
}

/// Runs `check` on every mutant of every corpus file.
fn fuzz(files: &[(String, Vec<u8>)], label: &str, mut check: impl FnMut(&str, &str)) {
    let root = DetRng::new(SEED).fork(label);
    for (index, (path, bytes)) in files.iter().enumerate() {
        let mut rng = root.fork_indexed("file", index as u64);
        for n in 0..MUTANTS_PER_FILE {
            let mutant = mutate(bytes, &mut rng);
            let text = String::from_utf8_lossy(&mutant);
            check(&format!("{path} mutant {n}"), &text);
        }
    }
}

/// Renders a TOML document so that every header and entry lands back on
/// its recorded line, which makes `parse(render(doc)) == doc` hold with
/// line numbers included.
fn render_toml(doc: &TomlDocument) -> String {
    fn value(out: &mut String, v: &TomlValue) {
        match v {
            TomlValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            TomlValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            TomlValue::Float(f) => {
                let _ = write!(out, "{f:?}");
            }
            TomlValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            TomlValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    value(out, item);
                }
                out.push(']');
            }
        }
    }
    fn to_line(out: &mut String, at: &mut usize, line: usize) {
        while *at < line {
            out.push('\n');
            *at += 1;
        }
    }
    fn entries(out: &mut String, at: &mut usize, list: &[TomlEntry]) {
        for entry in list {
            to_line(out, at, entry.line);
            let _ = write!(out, "{} = ", entry.key);
            value(out, &entry.value);
        }
    }
    let mut out = String::new();
    let mut at = 1;
    entries(&mut out, &mut at, &doc.root);
    for table in &doc.tables {
        to_line(&mut out, &mut at, table.line);
        let (open, close) = if table.is_array {
            ("[[", "]]")
        } else {
            ("[", "]")
        };
        let _ = write!(out, "{open}{}{close}", table.name);
        entries(&mut out, &mut at, &table.entries);
    }
    out.push('\n');
    out
}

/// Every committed BENCH baseline loads as its kind and re-renders to
/// its own bytes: `cells` makes a grid report, `counts` a counts report.
#[test]
fn committed_bench_baselines_round_trip_through_the_harness_envelope() {
    let files = corpus("baselines", "BENCH_", ".json");
    let mut kinds = (0, 0);
    for (path, bytes) in &files {
        let text = std::str::from_utf8(bytes).expect("utf-8 baseline");
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let rendered = if doc.get("cells").is_some() {
            kinds.0 += 1;
            BenchReport::from_json(text).map(|r| r.to_json())
        } else {
            kinds.1 += 1;
            CountsReport::from_json(text).map(|r| r.to_json())
        };
        assert_eq!(rendered.as_deref(), Ok(text), "{path}");
    }
    assert_eq!(
        kinds,
        (3, 2),
        "three grid baselines and two counts baselines"
    );
}

#[test]
fn bench_json_mutants_parse_or_error_and_round_trip() {
    let files = corpus("baselines", "BENCH_", ".json");
    let mut parsed = 0;
    fuzz(&files, "json", |id, text| {
        let Ok(value) = Json::parse(text) else {
            return;
        };
        parsed += 1;
        let rendered = value.render();
        assert_eq!(Json::parse(&rendered).as_ref(), Ok(&value), "{id}");
        // The envelope readers take any document that parses without
        // panicking, and what they accept renders to a fixed point.
        if let Ok(report) = BenchReport::from_json(text) {
            let text = report.to_json();
            let back = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(back.to_json(), text, "{id}");
        }
        if let Ok(report) = CountsReport::from_json(text) {
            assert_eq!(
                CountsReport::from_json(&report.to_json()),
                Ok(report),
                "{id}"
            );
        }
    });
    // The budget must exercise both outcomes, not just the error path.
    assert!(parsed > 0, "no JSON mutant parsed");
}

#[test]
fn scenario_toml_mutants_parse_or_error_and_round_trip() {
    let files = corpus("config/scenarios", "", ".toml");
    let (mut documents, mut scenarios) = (0, 0);
    fuzz(&files, "toml", |id, text| {
        let Ok(doc) = TomlDocument::parse(text) else {
            return;
        };
        documents += 1;
        let rendered = render_toml(&doc);
        assert_eq!(TomlDocument::parse(&rendered).as_ref(), Ok(&doc), "{id}");
        if let Ok(file) = ScenarioFile::parse_str(text) {
            scenarios += 1;
            let canonical = file.to_toml();
            assert_eq!(
                ScenarioFile::parse_str(&canonical).as_ref(),
                Ok(&file),
                "{id}"
            );
        }
    });
    assert!(documents > 0, "no TOML mutant parsed");
    assert!(scenarios > 0, "no mutant passed scenario validation");
}
