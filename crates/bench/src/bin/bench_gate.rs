//! The CI perf gate: compares a candidate `BENCH_*.json` against a
//! checked-in baseline.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json>
//! bench_gate --trace <baseline.jsonl> <candidate.jsonl>
//! ```
//!
//! Exit status 0 when the candidate is acceptable, 1 with one line per
//! violation otherwise, 2 on usage/IO/parse errors or a grid report
//! paired with a counts report. A grid report (`cells`) must match its
//! baseline's correctness metrics exactly (the simulator is
//! deterministic, so any drift is a real behavioural change), and its
//! throughput may drop (and p99 rise) by at most 20%. A counts report
//! (`counts`) must match every `counts` leaf; its `timings` are ignored.
//!
//! `--trace` switches to event-level diffing of two runtime traces
//! (`tangram_trace` JSONL, captured via `trace_tool capture`): both
//! hash chains are verified, then the first divergent event is named by
//! sequence number and event kind — a scalar BENCH drift tells you
//! *that* behaviour changed, the trace diff tells you *where*.

use tangram_harness::json::Json;
use tangram_harness::{counts_gate, gate, BenchReport, CountsReport};
use tangram_trace::TraceLog;

/// A loaded `BENCH_*.json`, of either kind.
enum Bench {
    Grid(Box<BenchReport>),
    Counts(CountsReport),
}

fn load(path: &str) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let bench = if doc.get("counts").is_some() {
        CountsReport::from_json(&text).map(Bench::Counts)
    } else {
        BenchReport::from_json(&text).map(|r| Bench::Grid(Box::new(r)))
    };
    bench.map_err(|e| format!("{path}: {e}"))
}

fn load_trace(path: &str) -> TraceLog {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let log = match TraceLog::from_jsonl(&text) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("bench_gate: {path}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = log.verify() {
        eprintln!("bench_gate: {path}: hash chain broken: {e}");
        std::process::exit(2);
    }
    log
}

/// Event-level trace diff: names the first divergent event, exit 1 on
/// any divergence.
fn gate_traces(baseline_path: &str, candidate_path: &str) -> ! {
    let baseline = load_trace(baseline_path);
    let candidate = load_trace(candidate_path);
    match baseline.first_divergence(&candidate) {
        None => {
            println!(
                "bench_gate: OK — traces match '{}' ({} events, final hash {:016x})",
                baseline_path,
                baseline.records.len(),
                baseline.final_hash()
            );
            std::process::exit(0);
        }
        Some(divergence) => {
            eprintln!("bench_gate: trace diverges from '{baseline_path}':");
            eprintln!("  {}", divergence.describe());
            eprintln!(
                "\nIf this change is intended, refresh the golden traces:\n  \
                 cargo run --release --bin trace_tool -- capture smoke --out baselines\n  \
                 cargo run --release --bin trace_tool -- capture overload --out baselines"
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--trace") {
        match &args[1..] {
            [baseline, candidate] => gate_traces(baseline, candidate),
            _ => {
                eprintln!("usage: bench_gate --trace <baseline.jsonl> <candidate.jsonl>");
                std::process::exit(2);
            }
        }
    }
    let [baseline_path, candidate_path] = &args[..] else {
        eprintln!("usage: bench_gate <baseline.json> <candidate.json>");
        std::process::exit(2);
    };

    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_gate: {err}");
            }
            std::process::exit(2);
        }
    };

    let (violations, summary) = match (&baseline, &candidate) {
        (Bench::Grid(b), Bench::Grid(c)) => (
            gate(b, c),
            format!(
                "{} cells match (correctness exact, perf within 20%)",
                c.cells.len()
            ),
        ),
        (Bench::Counts(b), Bench::Counts(c)) => (
            counts_gate(b, c),
            "counts match (timings never gated)".to_string(),
        ),
        _ => {
            eprintln!("bench_gate: one file has `cells`, the other `counts`: not comparable");
            std::process::exit(2);
        }
    };
    if violations.is_empty() {
        println!("bench_gate: OK — {summary} against '{baseline_path}'");
    } else {
        eprintln!(
            "bench_gate: {} violation(s) against '{baseline_path}':",
            violations.len()
        );
        for v in &violations {
            eprintln!("  - {v}");
        }
        eprintln!(
            "\nIf this change is intended, refresh the baseline (see the \
             baseline-refresh procedure in docs/EXPERIMENTS.md)."
        );
        std::process::exit(1);
    }
}
