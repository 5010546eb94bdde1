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
//! The emitted JSON is a harness [`CountsReport`] with two kinds of
//! fields:
//!
//! * **counts** (per-scenario frames, muted frames, patches, batches,
//!   violations, dropped arrivals, events, makespan) — deterministic,
//!   byte stable, gated by `bench_gate` against
//!   `baselines/BENCH_scenarios.json`;
//! * **timings** (per-scenario `wall_ms`) — machine-dependent, recorded
//!   for humans, **never** gated.
//!
//! Flags: the usual [`ExpOpts`] set plus `--dir PATH` (scenario
//! directory override). Runs are deterministic in the scenario files
//! alone, so there is no smoke mode.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tangram_bench::{ExpOpts, TextTable};
use tangram_core::report::RunReport;
use tangram_harness::json::Json;
use tangram_harness::{CountsReport, ScenarioFile};

/// One scenario's run plus its wall time.
struct Row {
    name: String,
    report: RunReport,
    wall_s: f64,
}

fn main() -> ExitCode {
    let opts = ExpOpts::from_args();
    let args: Vec<String> = std::env::args().collect();
    let dir = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("config/scenarios"), PathBuf::from);

    let library = match ScenarioFile::load_dir(&dir) {
        Ok(library) => library,
        Err(err) => {
            eprintln!("bench_scenarios: {err}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_scenarios: {} scenario(s) from {}",
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

    let report = counts_report(&rows);
    if let Some(out) = &opts.out {
        match report.write_to_dir(out) {
            Ok(path) => println!("(wrote {})", path.display()),
            Err(err) => {
                eprintln!("failed to write {}: {err}", report.file_name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Builds `BENCH_scenarios.json`: a gated per-scenario `counts` array
/// plus ungated per-scenario timings.
fn counts_report(rows: &[Row]) -> CountsReport {
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
    CountsReport {
        name: "scenarios".to_string(),
        counts,
        timings,
    }
}
