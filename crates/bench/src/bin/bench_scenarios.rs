//! `bench_scenarios` — the declarative hard-scenario library, end to end.
//!
//! Loads every scenario file under `config/scenarios/` (see
//! [`tangram_harness::scenario_file`]), runs each one once, and emits
//! `BENCH_scenarios.json`. The library is the repo's
//! fault-injection gauntlet: diurnal flash crowds, content-correlated
//! stitcher floods, brownout+partition compounds, flap storms and
//! cold-start squeezes — each declared in TOML, validated at load time,
//! and injected deterministically (see `docs/ARCHITECTURE.md`).
//!
//! The emitted JSON splits into two kinds of fields:
//!
//! * **counts** (per-scenario frames, muted frames, patches, batches,
//!   violations, dropped arrivals, events, makespan) — deterministic,
//!   byte stable, gated by CI against `baselines/BENCH_scenarios.json`;
//! * **timings** (per-scenario `wall_ms`) — machine-dependent, recorded
//!   for humans, **never** gated.
//!
//! Flags: the usual [`ExpOpts`] set plus `--smoke` (recorded as the
//! report's `mode`; runs are deterministic in the scenario files alone,
//! so both modes gate the same counts), `--dir PATH` (scenario directory
//! override) and `--gate PATH` (compare this run's counts against a
//! baseline).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tangram_bench::{ExpOpts, TextTable};
use tangram_core::report::RunReport;
use tangram_harness::json::Json;
use tangram_harness::ScenarioFile;

/// One scenario's run plus its wall time.
struct Row {
    name: String,
    report: RunReport,
    wall_s: f64,
}

fn main() -> ExitCode {
    let opts = ExpOpts::from_args();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let dir = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("config/scenarios"), PathBuf::from);

    let mode = if smoke { "smoke" } else { "full" };

    let library = match ScenarioFile::load_dir(&dir) {
        Ok(library) => library,
        Err(err) => {
            eprintln!("bench_scenarios: {err}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_scenarios: {} scenario(s) from {}, {mode} mode",
        library.len(),
        dir.display()
    );

    let mut rows: Vec<Row> = Vec::new();
    for (_, file) in &library {
        let start = Instant::now();
        let (report, _) = file.run(false);
        let wall_s = start.elapsed().as_secs_f64();
        rows.push(Row {
            name: file.name.clone(),
            report,
            wall_s,
        });
    }

    let mut table = TextTable::new([
        "scenario",
        "frames",
        "muted",
        "patches",
        "dropped",
        "viol",
        "makespan_s",
        "wall_ms",
    ]);
    for row in &rows {
        let summary = row.report.summarize();
        table.row([
            row.name.clone(),
            summary.frames.to_string(),
            row.report.frames_muted.to_string(),
            summary.patches.to_string(),
            summary.dropped_arrivals.to_string(),
            summary.violations.to_string(),
            format!("{:.3}", summary.makespan_s),
            format!("{:.1}", row.wall_s * 1e3),
        ]);
    }
    table.print();
    println!("(timings informational, never gated)");

    let doc = render_report(mode, &rows);

    if let Some(out) = &opts.out {
        let path = out.join("BENCH_scenarios.json");
        match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        {
            Ok(()) => println!("(wrote {})", path.display()),
            Err(err) => {
                eprintln!("failed to write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = gate_path {
        return gate_counts(&doc, &path);
    }
    ExitCode::SUCCESS
}

/// Builds `BENCH_scenarios.json`: a gated per-scenario `counts` array
/// plus ungated per-scenario timings. `mode` stays outside `counts` on
/// purpose — runs are deterministic in the scenario files alone, so
/// smoke and full produce the same gated bytes.
fn render_report(mode: &str, rows: &[Row]) -> Json {
    let counts = Json::object(vec![(
        "scenarios",
        Json::Array(
            rows.iter()
                .map(|row| {
                    let summary = row.report.summarize();
                    Json::object(vec![
                        ("name", Json::Str(row.name.clone())),
                        ("frames", Json::U64(summary.frames)),
                        ("frames_muted", Json::U64(row.report.frames_muted)),
                        ("patches", Json::U64(summary.patches)),
                        ("batches", Json::U64(summary.batches)),
                        ("violations", Json::U64(summary.violations)),
                        ("dropped_arrivals", Json::U64(summary.dropped_arrivals)),
                        ("events", Json::U64(row.report.events_processed)),
                        ("makespan_s", Json::F64(summary.makespan_s)),
                    ])
                })
                .collect(),
        ),
    )]);
    let timings = Json::Array(
        rows.iter()
            .map(|row| {
                Json::object(vec![
                    ("name", Json::Str(row.name.clone())),
                    ("wall_ms", Json::F64(row.wall_s * 1e3)),
                ])
            })
            .collect(),
    );
    Json::object(vec![
        ("schema_version", Json::U64(1)),
        ("name", Json::Str("scenarios".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("counts", counts),
        ("timings", timings),
    ])
}

/// Compares this run's `counts` object against a committed baseline.
/// Timing fields are ignored by construction — only `counts` is read.
fn gate_counts(candidate: &Json, baseline_path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("gate: cannot read baseline {baseline_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("gate: cannot parse baseline {baseline_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(ours), Some(theirs)) = (candidate.get("counts"), baseline.get("counts")) else {
        eprintln!("gate: missing `counts` object (schema mismatch)");
        return ExitCode::FAILURE;
    };
    if ours == theirs {
        println!("gate: counts match {baseline_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!("gate: counts DIVERGED from {baseline_path}");
        eprintln!("--- baseline\n{}", theirs.render());
        eprintln!("--- candidate\n{}", ours.render());
        eprintln!("If the change is intentional, refresh the baseline per docs/PERFORMANCE.md.");
        ExitCode::FAILURE
    }
}
