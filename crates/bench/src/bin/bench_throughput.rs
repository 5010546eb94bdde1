//! `bench_throughput` — wall-clock throughput of the sharded streaming
//! runtime.
//!
//! Every other bench in this crate reports *simulated* time; this one is
//! the repo's only wall-clock benchmark. It runs the city-scale preset
//! (open-loop Poisson cameras, Tangram policy, unlimited scale-out) once
//! per shard count and reports events/sec and patches/sec of real elapsed
//! time. The preset saturates its uplink, so a batch holds about one
//! patch: there is one invocation per patch, and the per-invocation
//! runtime cost, mainly platform submit, sets the pace.
//!
//! Determinism is asserted, not assumed: every shard count must produce
//! the same [`tangram_core::report::RunSummary`] and the same
//! `events_processed` as the single-shard oracle, or the bench exits
//! non-zero before printing a single number.
//!
//! The emitted `BENCH_throughput.json` splits cleanly into two kinds of
//! fields:
//!
//! * **counts** (`frames`, `patches`, `batches`, `dropped_arrivals`,
//!   `events`, `makespan_s`, the preset shape) — deterministic, byte
//!   stable, gated by CI against the committed baseline;
//! * **timings** (`wall_ms`, `events_per_sec`, `patches_per_sec`,
//!   `speedup`) — machine- and load-dependent, recorded for humans,
//!   **never** gated.
//!
//! `--gate <baseline.json>` re-reads a committed baseline and compares
//! only the count fields; see `docs/PERFORMANCE.md` for the refresh
//! procedure.
//!
//! Flags: the usual [`ExpOpts`] set plus `--smoke` (CI-sized preset:
//! fewer cameras/frames, shard counts 1 and 2) and `--gate PATH`.

use std::process::ExitCode;
use std::time::Instant;

use tangram_bench::{ExpOpts, TextTable};
use tangram_core::report::RunReport;
use tangram_harness::json::Json;
use tangram_harness::presets::{
    city_scale_engine, city_scale_scenario, city_scale_traces, CITY_SCALE_CAMERAS,
    CITY_SCALE_SMOKE_CAMERAS,
};
use tangram_harness::run_scenario_sharded;

/// Trace-pool depth per camera; the scenario cycles the pool, so this
/// only shapes content variety, not run length.
const POOL_FRAMES: usize = 24;

/// One measured run at a given shard count.
struct Row {
    shards: usize,
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

    let mode = if smoke { "smoke" } else { "full" };
    let cameras = if smoke {
        CITY_SCALE_SMOKE_CAMERAS
    } else {
        CITY_SCALE_CAMERAS
    };
    let frames_per_camera = opts.frames.unwrap_or(if smoke { 24 } else { 96 });
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    println!("bench_throughput: city-scale preset, {mode} mode");
    println!(
        "  {cameras} cameras x {frames_per_camera} frames, seed {}, shard counts {shard_counts:?}",
        opts.seed
    );

    let config = city_scale_engine(opts.seed);
    let traces = city_scale_traces(cameras, POOL_FRAMES, opts.seed);
    let scenario = city_scale_scenario(frames_per_camera);

    let mut rows: Vec<Row> = Vec::new();
    for &shards in shard_counts {
        let start = Instant::now();
        let (report, _) =
            run_scenario_sharded(&config, &traces, &scenario, None, None, false, shards, None);
        let wall_s = start.elapsed().as_secs_f64();
        rows.push(Row {
            shards,
            report,
            wall_s,
        });
    }

    // Byte-compare oracle: every shard count must reproduce the
    // single-shard run exactly. A divergence is a correctness bug in the
    // sharded runtime, not a perf result.
    let oracle = &rows[0].report;
    for row in &rows[1..] {
        if row.report.summarize() != oracle.summarize()
            || row.report.events_processed != oracle.events_processed
            || row.report.frames != oracle.frames
        {
            eprintln!(
                "DETERMINISM VIOLATION: {} shards diverged from the single-shard oracle",
                row.shards
            );
            return ExitCode::from(2);
        }
    }

    let summary = oracle.summarize();
    let base_wall = rows[0].wall_s;
    let mut table = TextTable::new(["shards", "wall_ms", "events/s", "patches/s", "speedup"]);
    for row in &rows {
        let events_per_sec = row.report.events_processed as f64 / row.wall_s;
        let patches_per_sec = summary.patches as f64 / row.wall_s;
        table.row([
            row.shards.to_string(),
            format!("{:.1}", row.wall_s * 1e3),
            format!("{events_per_sec:.0}"),
            format!("{patches_per_sec:.0}"),
            format!("{:.2}x", base_wall / row.wall_s),
        ]);
    }
    table.print();
    println!(
        "counts: {} frames, {} patches, {} batches, {} dropped, {} events, makespan {:.3}s (identical at every shard count)",
        summary.frames,
        summary.patches,
        summary.batches,
        summary.dropped_arrivals,
        oracle.events_processed,
        summary.makespan_s,
    );
    println!(
        "note: speedup needs real cores; this host reports {} worker(s). \
         Timing fields are informational and never CI-gated.",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    let doc = render_report(
        mode,
        opts.seed,
        cameras,
        frames_per_camera,
        shard_counts,
        &rows,
        &summary,
    );

    if let Some(dir) = &opts.out {
        let path = dir.join("BENCH_throughput.json");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render() + "\n"))
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

/// Builds the `BENCH_throughput.json` document: a gated `counts` object
/// plus per-shard timing rows.
fn render_report(
    mode: &str,
    seed: u64,
    cameras: usize,
    frames_per_camera: usize,
    shard_counts: &[usize],
    rows: &[Row],
    summary: &tangram_core::report::RunSummary,
) -> Json {
    let oracle = &rows[0].report;
    let counts = Json::object(vec![
        ("mode", Json::Str(mode.to_string())),
        ("seed", Json::U64(seed)),
        ("cameras", Json::U64(cameras as u64)),
        ("frames_per_camera", Json::U64(frames_per_camera as u64)),
        (
            "shard_counts",
            Json::Array(shard_counts.iter().map(|&s| Json::U64(s as u64)).collect()),
        ),
        ("frames", Json::U64(summary.frames)),
        ("patches", Json::U64(summary.patches)),
        ("batches", Json::U64(summary.batches)),
        ("dropped_arrivals", Json::U64(summary.dropped_arrivals)),
        ("events", Json::U64(oracle.events_processed)),
        ("makespan_s", Json::F64(summary.makespan_s)),
    ]);
    let timings = Json::Array(
        rows.iter()
            .map(|row| {
                Json::object(vec![
                    ("shards", Json::U64(row.shards as u64)),
                    ("wall_ms", Json::F64(row.wall_s * 1e3)),
                    (
                        "events_per_sec",
                        Json::F64(row.report.events_processed as f64 / row.wall_s),
                    ),
                    (
                        "patches_per_sec",
                        Json::F64(summary.patches as f64 / row.wall_s),
                    ),
                    ("speedup", Json::F64(rows[0].wall_s / row.wall_s)),
                ])
            })
            .collect(),
    );
    Json::object(vec![
        ("schema_version", Json::U64(1)),
        ("name", Json::Str("throughput".to_string())),
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
