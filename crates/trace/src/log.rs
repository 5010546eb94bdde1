//! Records, the rolling hash chain, JSONL rendering/parsing and diffs.

use crate::event::{decimal, render_string, FieldValue, Fields, Render, TraceEvent};
use tangram_types::time::SimTime;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// A streaming FNV-1a state: the canonical rendering is written into it
/// exactly as into a `String`, so the hash covers the same bytes
/// without materialising them.
struct Fnv(u64);

impl Render for Fnv {
    fn text(&mut self, s: &str) {
        self.ascii(s.as_bytes());
    }

    fn ascii(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// The chain anchor: the `prev` value of a stream's first record.
#[must_use]
pub fn chain_seed() -> u64 {
    fnv1a(FNV_OFFSET, b"tangram-trace-v1")
}

/// Renders `n` as exactly 16 lowercase hex digits.
fn hex16(n: u64) -> [u8; 16] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut hex = [0; 16];
    for (i, slot) in hex.iter_mut().enumerate() {
        *slot = DIGITS[(n >> (60 - 4 * i)) as usize & 0xf];
    }
    hex
}

/// One emitted event plus its chain bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic sequence number, starting at 1.
    pub seq: u64,
    /// Sim-time of the event, integer microseconds since the epoch.
    pub at_us: u64,
    /// The previous record's hash ([`chain_seed`] for the first).
    pub prev: u64,
    /// FNV-1a over the previous hash and this record's canonical body.
    pub hash: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Writes the canonical body — everything the hash covers:
    /// `"seq":…,"at_us":…,"kind":"…"` and then the event's fields.
    fn write_body(seq: u64, at_us: u64, event: &TraceEvent, out: &mut impl Render) {
        let mut digits = [0; 20];
        out.text("\"seq\":");
        out.ascii(decimal(seq, &mut digits));
        out.text(",\"at_us\":");
        out.ascii(decimal(at_us, &mut digits));
        out.text(",\"kind\":");
        render_string(event.kind(), out);
        event.render_fields(out);
    }

    /// The hash this record must carry given its `prev`: FNV-1a over
    /// `{prev:016x}|` and the canonical body, streamed without
    /// allocating.
    fn chain(seq: u64, at_us: u64, event: &TraceEvent, prev: u64) -> u64 {
        let mut state = Fnv(FNV_OFFSET);
        state.ascii(&hex16(prev));
        state.text("|");
        Self::write_body(seq, at_us, event, &mut state);
        state.0
    }

    /// Appends the record's JSONL line (no trailing newline) to `out`.
    fn write_line(&self, out: &mut String) {
        out.push('{');
        Self::write_body(self.seq, self.at_us, &self.event, out);
        out.push_str(",\"prev\":\"");
        out.ascii(&hex16(self.prev));
        out.push_str("\",\"hash\":\"");
        out.ascii(&hex16(self.hash));
        out.push_str("\"}");
    }

    /// Renders the record as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// Parses one JSONL line. Only the canonical rendering is accepted
    /// — each key once, no key the kind does not declare, keys in
    /// canonical order, no leading zeros, 16-digit lowercase hashes — so
    /// every line that parses re-renders to its own bytes.
    pub fn from_line(line: &str) -> Result<TraceRecord, String> {
        let fields = parse_flat_object(line)?;
        let kind = fields.string("kind")?;
        let record = TraceRecord {
            seq: fields.integer("seq")?,
            at_us: fields.integer("at_us")?,
            prev: parse_hex(&fields.string("prev")?)?,
            hash: parse_hex(&fields.string("hash")?)?,
            event: TraceEvent::from_fields(&kind, &fields)?,
        };
        check_keys(&fields, &record.event)?;
        Ok(record)
    }

    /// A compact human label: `seq 12: batch.dispatch @ 118000us`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("seq {}: {} @ {}us", self.seq, self.event.kind(), self.at_us)
    }
}

/// Checks that a parsed record carries exactly the keys its kind's
/// visitor declares, in canonical order. Duplicates are rejected by the
/// parser and missing keys by the field lookups, so past the unknown-key
/// check only the order can differ.
fn check_keys(fields: &Fields, event: &TraceEvent) -> Result<(), String> {
    let mut canonical = vec!["seq", "at_us", "kind"];
    event.visit_fields(|key, _| canonical.push(key));
    canonical.extend(["prev", "hash"]);
    let keys = || fields.pairs.iter().map(|(key, _)| key.as_str());
    if let Some(key) = keys().find(|key| !canonical.contains(key)) {
        return Err(format!("unknown field {key:?} for kind {:?}", event.kind()));
    }
    if !keys().eq(canonical.iter().copied()) {
        return Err(format!(
            "fields out of canonical order (expected {})",
            canonical.join(",")
        ));
    }
    Ok(())
}

/// Parses a chain hash: exactly 16 lowercase hex digits, as rendered.
fn parse_hex(s: &str) -> Result<u64, String> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(format!("bad hash {s:?}: expected 16 lowercase hex digits"));
    }
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hash {s:?}: {e}"))
}

/// Parses one flat JSON object (string / integer / bool values only) —
/// exactly the shape [`TraceRecord::to_line`] emits. Rejects duplicate
/// keys and integers with leading zeros.
fn parse_flat_object(line: &str) -> Result<Fields, String> {
    let mut chars = line.chars().peekable();
    let mut fields = Fields::default();
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(fields);
    }
    loop {
        let key = parse_string(&mut chars)?;
        if fields.pairs.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate field {key:?}"));
        }
        if chars.next() != Some(':') {
            return Err(format!("field {key:?}: expected ':'"));
        }
        let value = match chars.peek() {
            Some('"') => FieldValue::String(parse_string(&mut chars)?),
            Some('t') | Some('f') => {
                let word: String = chars
                    .clone()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .collect();
                for _ in 0..word.len() {
                    chars.next();
                }
                match word.as_str() {
                    "true" => FieldValue::Boolean(true),
                    "false" => FieldValue::Boolean(false),
                    other => return Err(format!("field {key:?}: bad literal {other:?}")),
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while chars.peek().is_some_and(char::is_ascii_digit) {
                    digits.push(chars.next().expect("peeked"));
                }
                if digits.len() > 1 && digits.starts_with('0') {
                    return Err(format!("field {key:?}: leading zero in {digits}"));
                }
                FieldValue::Integer(digits.parse().map_err(|e| format!("field {key:?}: {e}"))?)
            }
            other => return Err(format!("field {key:?}: unexpected {other:?}")),
        };
        fields.pairs.push((key, value));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    if chars.next().is_some() {
        return Err("trailing bytes after '}'".into());
    }
    Ok(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut s = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(s),
            Some('\\') => match chars.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('n') => s.push('\n'),
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => s.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

/// The recorder the engine writes into: appends records, maintaining the
/// sequence numbers and the hash chain.
#[derive(Debug, Default)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    prev: Option<u64>,
}

impl TraceSink {
    /// An empty sink, chain anchored at [`chain_seed`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `event` observed at sim-time `at`.
    pub fn emit(&mut self, at: SimTime, event: TraceEvent) {
        let at_us = at.since(SimTime::ZERO).as_micros();
        debug_assert!(
            self.records.last().is_none_or(|r| r.at_us <= at_us),
            "trace time must be monotonic"
        );
        let seq = self.records.len() as u64 + 1;
        let prev = self.prev.unwrap_or_else(chain_seed);
        let hash = TraceRecord::chain(seq, at_us, &event, prev);
        self.prev = Some(hash);
        self.records.push(TraceRecord {
            seq,
            at_us,
            prev,
            hash,
            event,
        });
    }

    /// Number of records emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was emitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Seals the stream.
    #[must_use]
    pub fn finish(self) -> TraceLog {
        TraceLog {
            records: self.records,
        }
    }
}

/// Where a candidate trace first leaves its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Sequence number of the first differing record (one side may have
    /// ended before it).
    pub seq: u64,
    /// The baseline's record at `seq`, if it has one.
    pub baseline: Option<TraceRecord>,
    /// The candidate's record at `seq`, if it has one.
    pub candidate: Option<TraceRecord>,
}

impl TraceDivergence {
    /// A one-line human description naming the first divergent event.
    #[must_use]
    pub fn describe(&self) -> String {
        match (&self.baseline, &self.candidate) {
            (Some(b), Some(c)) if b.event.kind() == c.event.kind() => format!(
                "first divergence at seq {}: {} differs\n  baseline:  {}\n  candidate: {}",
                self.seq,
                b.event.kind(),
                b.to_line(),
                c.to_line()
            ),
            (Some(b), Some(c)) => format!(
                "first divergence at seq {}: baseline {} vs candidate {}\n  baseline:  {}\n  candidate: {}",
                self.seq,
                b.event.kind(),
                c.event.kind(),
                b.to_line(),
                c.to_line()
            ),
            (Some(b), None) => format!(
                "first divergence at seq {}: candidate ended early (baseline has {})",
                self.seq,
                b.label()
            ),
            (None, Some(c)) => format!(
                "first divergence at seq {}: baseline ended, candidate continues with {}",
                self.seq,
                c.label()
            ),
            (None, None) => "no divergence".into(),
        }
    }
}

/// Event-level counts folded out of a trace, for checking a stream
/// against the run report it narrates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Batches dispatched (`batch.dispatch` records).
    pub batches: u64,
    /// Patches across all dispatched batches.
    pub patches: u64,
    /// Invocations completed (`function.complete` records).
    pub completions: u64,
    /// Arrivals shed by admission (`admission.verdict` with
    /// `admitted:false`; fair-ingress overflow sheds are not verdicts
    /// and do not appear here).
    pub dropped: u64,
}

/// A sealed, verifiable event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Records in emission order.
    pub records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Renders the whole log as JSONL (one record per line, trailing
    /// newline included when non-empty).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            record.write_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL rendering. Blank lines are ignored; the chain is
    /// *not* checked — call [`TraceLog::verify`] for that.
    pub fn from_jsonl(text: &str) -> Result<TraceLog, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            records.push(TraceRecord::from_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(TraceLog { records })
    }

    /// Checks sequence monotonicity (1, 2, 3, …), time monotonicity and
    /// the hash chain, returning the first violation.
    pub fn verify(&self) -> Result<(), String> {
        let mut prev_hash = chain_seed();
        let mut prev_at = 0u64;
        for (i, record) in self.records.iter().enumerate() {
            let want_seq = i as u64 + 1;
            if record.seq != want_seq {
                return Err(format!(
                    "record {}: seq {} breaks the 1..n sequence (expected {want_seq})",
                    i + 1,
                    record.seq
                ));
            }
            if record.at_us < prev_at {
                return Err(format!(
                    "{}: time runs backwards ({} < {prev_at})",
                    record.label(),
                    record.at_us
                ));
            }
            if record.prev != prev_hash {
                return Err(format!(
                    "{}: chain broken (prev {:016x}, expected {prev_hash:016x})",
                    record.label(),
                    record.prev
                ));
            }
            let want = TraceRecord::chain(record.seq, record.at_us, &record.event, record.prev);
            if record.hash != want {
                return Err(format!(
                    "{}: hash mismatch ({:016x}, expected {want:016x})",
                    record.label(),
                    record.hash
                ));
            }
            prev_hash = record.hash;
            prev_at = record.at_us;
        }
        Ok(())
    }

    /// The last record's hash — a digest of the whole stream.
    #[must_use]
    pub fn final_hash(&self) -> u64 {
        self.records.last().map_or_else(chain_seed, |r| r.hash)
    }

    /// The first record where `self` (baseline) and `candidate` differ.
    #[must_use]
    pub fn first_divergence(&self, candidate: &TraceLog) -> Option<TraceDivergence> {
        let n = self.records.len().max(candidate.records.len());
        for i in 0..n {
            let b = self.records.get(i);
            let c = candidate.records.get(i);
            if b != c {
                return Some(TraceDivergence {
                    seq: i as u64 + 1,
                    baseline: b.cloned(),
                    candidate: c.cloned(),
                });
            }
        }
        None
    }

    /// Record counts per event kind, in [`TraceEvent::KINDS`] order.
    #[must_use]
    pub fn stats(&self) -> Vec<(&'static str, usize)> {
        TraceEvent::KINDS
            .iter()
            .map(|&kind| {
                (
                    kind,
                    self.records
                        .iter()
                        .filter(|r| r.event.kind() == kind)
                        .count(),
                )
            })
            .collect()
    }

    /// Folds the per-event records into totals (see [`ReplayCounts`]).
    #[must_use]
    pub fn replay_counts(&self) -> ReplayCounts {
        let mut counts = ReplayCounts::default();
        for record in &self.records {
            match &record.event {
                TraceEvent::BatchDispatch { patches, .. } => {
                    counts.batches += 1;
                    counts.patches += patches;
                }
                TraceEvent::FunctionComplete { .. } => counts.completions += 1,
                TraceEvent::AdmissionVerdict {
                    admitted: false, ..
                } => counts.dropped += 1,
                _ => {}
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;
    use std::path::Path;

    /// The string-building chain the streaming one replaced, kept as
    /// its oracle: `format!("{prev:016x}|")` and a body grown in a
    /// `String` through `write!`, both hashed after the fact.
    fn oracle_chain(seq: u64, at_us: u64, event: &TraceEvent, prev: u64) -> u64 {
        let state = fnv1a(FNV_OFFSET, format!("{prev:016x}|").as_bytes());
        fnv1a(state, oracle_body(seq, at_us, event).as_bytes())
    }

    /// The oracle's JSONL line for `record`.
    fn oracle_line(record: &TraceRecord) -> String {
        format!(
            "{{{},\"prev\":\"{:016x}\",\"hash\":\"{:016x}\"}}",
            oracle_body(record.seq, record.at_us, &record.event),
            record.prev,
            record.hash
        )
    }

    fn oracle_body(seq: u64, at_us: u64, event: &TraceEvent) -> String {
        fn string(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut out = String::new();
        let _ = write!(out, "\"seq\":{seq},\"at_us\":{at_us},\"kind\":");
        string(event.kind(), &mut out);
        match event {
            TraceEvent::SessionStart {
                policy,
                seed,
                cameras,
            } => {
                out.push_str(",\"policy\":");
                string(policy, &mut out);
                let _ = write!(out, ",\"seed\":{seed},\"cameras\":{cameras}");
            }
            TraceEvent::CameraJoin { camera } | TraceEvent::CameraLeave { camera } => {
                let _ = write!(out, ",\"camera\":{camera}");
            }
            TraceEvent::AdmissionVerdict {
                patch,
                slo_us,
                admitted,
                queued,
                in_flight,
                earliest_start_us,
            } => {
                let _ = write!(
                    out,
                    ",\"patch\":{patch},\"slo_us\":{slo_us},\"admitted\":{admitted},\
                     \"queued\":{queued},\"in_flight\":{in_flight},\
                     \"earliest_start_us\":{earliest_start_us}"
                );
            }
            TraceEvent::DrrRound { released, backlog } => {
                let _ = write!(out, ",\"released\":{released},\"backlog\":{backlog}");
            }
            TraceEvent::BatchDispatch {
                batch,
                patches,
                inputs,
                megapixels_e6,
            } => {
                let _ = write!(
                    out,
                    ",\"batch\":{batch},\"patches\":{patches},\"inputs\":{inputs},\
                     \"megapixels_e6\":{megapixels_e6}"
                );
            }
            TraceEvent::FunctionComplete {
                invocation,
                inputs,
                violations,
            } => {
                let _ = write!(
                    out,
                    ",\"invocation\":{invocation},\"inputs\":{inputs},\"violations\":{violations}"
                );
            }
            TraceEvent::FaultWindow { kind, until_us } => {
                out.push_str(",\"fault\":");
                string(kind, &mut out);
                let _ = write!(out, ",\"until_us\":{until_us}");
            }
            TraceEvent::SessionEnd {
                frames,
                batches,
                completions,
                dropped,
                makespan_us,
            } => {
                let _ = write!(
                    out,
                    ",\"frames\":{frames},\"batches\":{batches},\"completions\":{completions},\
                     \"dropped\":{dropped},\"makespan_us\":{makespan_us}"
                );
            }
        }
        out
    }

    /// Asserts that the streaming chain and renderer agree with the
    /// oracle on every record of `log`.
    fn assert_matches_oracle(log: &TraceLog, what: &str) {
        for record in &log.records {
            let (seq, at_us, event, prev) = (record.seq, record.at_us, &record.event, record.prev);
            assert_eq!(
                TraceRecord::chain(seq, at_us, event, prev),
                oracle_chain(seq, at_us, event, prev),
                "{what}: {}",
                record.label()
            );
            assert_eq!(record.to_line(), oracle_line(record), "{what}");
        }
    }

    /// A small fixed-seed generator (SplitMix64). The trace crate sits
    /// beside `tangram-sim` on the dependency lattice, so its tests
    /// cannot borrow `DetRng`.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Mostly the extremes and small values, sometimes anything.
        fn int(&mut self) -> u64 {
            match self.next() % 4 {
                0 => u64::MAX,
                1 => 0,
                2 => self.next() % 1000,
                _ => self.next() >> (self.next() % 64),
            }
        }

        /// A string drawn from pieces that need escaping or take more
        /// than one UTF-8 byte.
        fn text(&mut self) -> String {
            const PIECES: [&str; 9] = ["\"", "\\", "\n", "é", "雪", "🦀", "Tangram", " ", "\t"];
            (0..self.next() % 6)
                .map(|_| PIECES[(self.next() % PIECES.len() as u64) as usize])
                .collect()
        }

        fn event(&mut self) -> TraceEvent {
            match self.next() % 9 {
                0 => TraceEvent::SessionStart {
                    policy: self.text(),
                    seed: self.int(),
                    cameras: self.int(),
                },
                1 => TraceEvent::CameraJoin { camera: self.int() },
                2 => TraceEvent::CameraLeave { camera: self.int() },
                3 => TraceEvent::AdmissionVerdict {
                    patch: self.int(),
                    slo_us: self.int(),
                    admitted: self.next().is_multiple_of(2),
                    queued: self.int(),
                    in_flight: self.int(),
                    earliest_start_us: self.int(),
                },
                4 => TraceEvent::DrrRound {
                    released: self.int(),
                    backlog: self.int(),
                },
                5 => TraceEvent::BatchDispatch {
                    batch: self.int(),
                    patches: self.int(),
                    inputs: self.int(),
                    megapixels_e6: self.int(),
                },
                6 => TraceEvent::FunctionComplete {
                    invocation: self.int(),
                    inputs: self.int(),
                    violations: self.int(),
                },
                7 => TraceEvent::FaultWindow {
                    kind: self.text(),
                    until_us: self.int(),
                },
                _ => TraceEvent::SessionEnd {
                    frames: self.int(),
                    batches: self.int(),
                    completions: self.int(),
                    dropped: self.int(),
                    makespan_us: self.int(),
                },
            }
        }
    }

    #[test]
    fn streaming_chain_matches_the_oracle_on_the_golden_traces() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).expect("baselines directory") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("TRACE_") && name.ends_with(".jsonl")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).expect("golden trace");
            let log = TraceLog::from_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!log.records.is_empty(), "{name}");
            assert_matches_oracle(&log, name);
            log.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(log.to_jsonl(), text, "{name} re-renders to its own bytes");
        }
        assert_eq!(files, 2, "TRACE_smoke.jsonl and TRACE_overload.jsonl");
    }

    #[test]
    fn streaming_chain_matches_the_oracle_on_generated_events() {
        let mut rng = Mix(0x7ace_5eed);
        let mut sink = TraceSink::new();
        let mut at_us = 0;
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let event = rng.event();
            kinds.insert(event.kind());
            at_us = at_us.max(rng.int());
            sink.emit(SimTime::from_micros(at_us), event);
        }
        assert_eq!(kinds.len(), TraceEvent::KINDS.len(), "every kind drawn");
        let log = sink.finish();
        assert_matches_oracle(&log, "generated");
        assert!(
            log.records.iter().any(|r| r.at_us == u64::MAX),
            "u64::MAX reached the renderer"
        );
        let text = log.to_jsonl();
        let parsed = TraceLog::from_jsonl(&text).expect("generated stream parses");
        assert_eq!(parsed, log);
        parsed.verify().expect("generated chain verifies");
    }

    fn sample() -> TraceLog {
        let mut sink = TraceSink::new();
        sink.emit(
            SimTime::ZERO,
            TraceEvent::SessionStart {
                policy: "Tangram".into(),
                seed: 7,
                cameras: 1,
            },
        );
        sink.emit(
            SimTime::from_micros(5),
            TraceEvent::CameraJoin { camera: 3 },
        );
        sink.emit(
            SimTime::from_micros(90),
            TraceEvent::AdmissionVerdict {
                patch: 11,
                slo_us: 1_000_000,
                admitted: false,
                queued: 6,
                in_flight: 2,
                earliest_start_us: 120,
            },
        );
        sink.emit(
            SimTime::from_micros(100),
            TraceEvent::BatchDispatch {
                batch: 0,
                patches: 4,
                inputs: 2,
                megapixels_e6: 2_097_152,
            },
        );
        sink.emit(
            SimTime::from_micros(400),
            TraceEvent::FunctionComplete {
                invocation: 0,
                inputs: 2,
                violations: 1,
            },
        );
        sink.finish()
    }

    #[test]
    fn sequence_and_chain_are_monotonic_and_verified() {
        let log = sample();
        assert_eq!(
            log.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // Each record chains off its predecessor.
        for pair in log.records.windows(2) {
            assert_eq!(pair[1].prev, pair[0].hash);
            assert!(pair[1].at_us >= pair[0].at_us);
        }
        assert_eq!(log.records[0].prev, chain_seed());
        log.verify().expect("freshly emitted chain verifies");
        assert_eq!(log.final_hash(), log.records.last().unwrap().hash);
    }

    #[test]
    fn jsonl_round_trips_byte_exactly() {
        let log = sample();
        let text = log.to_jsonl();
        let parsed = TraceLog::from_jsonl(&text).expect("parses");
        assert_eq!(parsed, log);
        assert_eq!(parsed.to_jsonl(), text, "render(parse(x)) == x");
        parsed.verify().expect("chain survives the round trip");
    }

    #[test]
    fn tampering_breaks_the_chain() {
        let mut log = sample();
        // Flip one field of record 3; its own hash no longer matches.
        if let TraceEvent::AdmissionVerdict { queued, .. } = &mut log.records[2].event {
            *queued += 1;
        }
        let err = log.verify().expect_err("tamper detected");
        assert!(err.contains("seq 3"), "{err}");

        // Splicing record 3 out breaks the sequence numbering.
        let mut spliced = sample();
        spliced.records.remove(2);
        assert!(spliced.verify().is_err());
    }

    #[test]
    fn first_divergence_names_the_event() {
        let base = sample();
        let mut cand = sample();
        if let TraceEvent::BatchDispatch { patches, .. } = &mut cand.records[3].event {
            *patches = 9;
        }
        let div = base.first_divergence(&cand).expect("diverges");
        assert_eq!(div.seq, 4);
        assert!(
            div.describe().contains("batch.dispatch"),
            "{}",
            div.describe()
        );
        assert_eq!(base.first_divergence(&sample()), None);

        // A truncated candidate diverges at the missing record.
        let mut short = sample();
        short.records.pop();
        let div = base.first_divergence(&short).expect("diverges");
        assert_eq!(div.seq, 5);
        assert!(div.candidate.is_none());
    }

    #[test]
    fn replay_counts_fold_the_stream() {
        let counts = sample().replay_counts();
        assert_eq!(
            counts,
            ReplayCounts {
                batches: 1,
                patches: 4,
                completions: 1,
                dropped: 1,
            }
        );
    }

    #[test]
    fn stats_count_by_kind() {
        let stats = sample().stats();
        let get = |k: &str| stats.iter().find(|(kind, _)| *kind == k).unwrap().1;
        assert_eq!(get("session.start"), 1);
        assert_eq!(get("camera.join"), 1);
        assert_eq!(get("batch.dispatch"), 1);
        assert_eq!(get("session.end"), 0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(TraceRecord::from_line("{\"seq\":1").is_err());
        assert!(TraceRecord::from_line("not json").is_err());
        assert!(TraceRecord::from_line(
            "{\"seq\":1,\"at_us\":0,\"kind\":\"bogus.kind\",\"prev\":\"0\",\"hash\":\"0\"}"
        )
        .is_err());
    }

    /// A canonical line to perturb in the reader tests.
    fn canonical_line() -> String {
        sample().records[2].to_line()
    }

    #[test]
    fn reader_rejects_duplicate_keys() {
        let line = canonical_line().replacen(",\"queued\":6", ",\"queued\":6,\"queued\":7", 1);
        let err = TraceRecord::from_line(&line).expect_err("duplicate key");
        assert!(err.contains("duplicate field \"queued\""), "{err}");
    }

    #[test]
    fn reader_rejects_keys_the_kind_does_not_declare() {
        let line = canonical_line().replacen(",\"queued\":6", ",\"queued\":6,\"camera\":1", 1);
        let err = TraceRecord::from_line(&line).expect_err("undeclared key");
        assert!(err.contains("unknown field \"camera\""), "{err}");
    }

    #[test]
    fn reader_rejects_keys_out_of_canonical_order() {
        let line = canonical_line().replacen(
            "\"queued\":6,\"in_flight\":2",
            "\"in_flight\":2,\"queued\":6",
            1,
        );
        let err = TraceRecord::from_line(&line).expect_err("reordered keys");
        assert!(err.contains("canonical order"), "{err}");
    }

    #[test]
    fn reader_rejects_integers_with_leading_zeros() {
        let line = canonical_line().replacen("\"queued\":6", "\"queued\":06", 1);
        let err = TraceRecord::from_line(&line).expect_err("leading zero");
        assert!(err.contains("leading zero"), "{err}");
        // A lone zero is canonical.
        let zero = sample().records[3].to_line();
        assert!(zero.contains("\"batch\":0,"), "{zero}");
        assert!(TraceRecord::from_line(&zero).is_ok());
    }

    #[test]
    fn reader_rejects_non_canonical_hashes() {
        let line = canonical_line();
        let record = TraceRecord::from_line(&line).expect("canonical");
        let hash = format!("{:016x}", record.hash);
        for bad in [
            format!("+{}", &hash[1..]),
            hash.to_uppercase(),
            hash[..15].to_string(),
            format!("0{hash}"),
            "1f".to_string(),
        ] {
            if bad == hash {
                continue;
            }
            let line = line.replacen(&hash, &bad, 1);
            let err = TraceRecord::from_line(&line).expect_err(&bad);
            assert!(err.contains("16 lowercase hex digits"), "{bad}: {err}");
        }
    }

    #[test]
    fn reader_rejects_surrounding_whitespace() {
        let line = canonical_line();
        assert!(TraceRecord::from_line(&format!(" {line}")).is_err());
        assert!(TraceRecord::from_line(&format!("{line}\r")).is_err());
    }

    #[test]
    fn log_errors_name_the_line() {
        let mut lines: Vec<String> = sample().records.iter().map(TraceRecord::to_line).collect();
        lines[3] = lines[3].replacen("\"batch\":0", "\"batch\":00", 1);
        let err = TraceLog::from_jsonl(&lines.join("\n")).expect_err("bad line 4");
        assert!(err.starts_with("line 4: "), "{err}");
    }
}
