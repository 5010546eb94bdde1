//! `bench_throughput` — wall-clock throughput of the streaming engine.
//!
//! Every other bench in this crate reports *simulated* time; this one is
//! the repo's only wall-clock benchmark. It runs the city-scale preset
//! (open-loop Poisson cameras, Tangram policy, unlimited scale-out) once,
//! on one thread, and reports events/sec and patches/sec of real elapsed
//! time. The preset saturates its uplink, so a batch holds about one
//! patch: there is one invocation per patch, and the per-invocation
//! runtime cost, mainly platform submit, sets the pace.
//!
//! The emitted `BENCH_throughput.json` is a harness
//! [`CountsReport`]: its fields split cleanly into two kinds:
//!
//! * **counts** (`frames`, `patches`, `batches`, `dropped_arrivals`,
//!   `events`, `makespan_s`, the preset shape) — deterministic, byte
//!   stable, gated by `bench_gate` against the committed baseline;
//! * **timings** (`wall_ms`, `events_per_sec`, `patches_per_sec`) —
//!   machine- and load-dependent, recorded for humans, **never** gated.
//!
//! See `docs/PERFORMANCE.md` for the gate and the refresh procedure.
//!
//! Flags: the usual [`ExpOpts`] set plus `--smoke` (CI-sized preset:
//! fewer cameras and frames).

use std::process::ExitCode;
use std::time::Instant;

use tangram_bench::{ExpOpts, TextTable};
use tangram_harness::json::Json;
use tangram_harness::presets::{
    city_scale_engine, city_scale_scenario, city_scale_traces, CITY_SCALE_CAMERAS,
    CITY_SCALE_SMOKE_CAMERAS,
};
use tangram_harness::{run_scenario_traced, CountsReport};

/// Trace-pool depth per camera; the scenario cycles the pool, so this
/// only shapes content variety, not run length.
const POOL_FRAMES: usize = 24;

fn main() -> ExitCode {
    let opts = ExpOpts::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");

    let mode = if smoke { "smoke" } else { "full" };
    let cameras = if smoke {
        CITY_SCALE_SMOKE_CAMERAS
    } else {
        CITY_SCALE_CAMERAS
    };
    let frames_per_camera = opts.frames.unwrap_or(if smoke { 24 } else { 96 });

    println!("bench_throughput: city-scale preset, {mode} mode");
    println!(
        "  {cameras} cameras x {frames_per_camera} frames, seed {}, one thread",
        opts.seed
    );

    let config = city_scale_engine(opts.seed);
    let traces = city_scale_traces(cameras, POOL_FRAMES, opts.seed);
    let scenario = city_scale_scenario(frames_per_camera);

    let start = Instant::now();
    let (report, _) = run_scenario_traced(&config, &traces, &scenario, None, None, false);
    let wall_s = start.elapsed().as_secs_f64();

    let summary = report.summarize();
    let events_per_sec = report.events_processed as f64 / wall_s;
    let patches_per_sec = summary.patches as f64 / wall_s;
    let mut table = TextTable::new(["wall_ms", "events/s", "patches/s"]);
    table.row([
        format!("{:.1}", wall_s * 1e3),
        format!("{events_per_sec:.0}"),
        format!("{patches_per_sec:.0}"),
    ]);
    table.print();
    println!(
        "counts: {} frames, {} patches, {} batches, {} dropped, {} events, makespan {:.3}s",
        summary.frames,
        summary.patches,
        summary.batches,
        summary.dropped_arrivals,
        report.events_processed,
        summary.makespan_s,
    );
    println!(
        "note: timings are informational and never CI-gated; this host reports {} core(s).",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    let counts = Json::object(vec![
        ("mode", Json::Str(mode.to_string())),
        ("seed", Json::U64(opts.seed)),
        ("cameras", Json::U64(cameras as u64)),
        ("frames_per_camera", Json::U64(frames_per_camera as u64)),
        ("frames", Json::U64(summary.frames)),
        ("patches", Json::U64(summary.patches)),
        ("batches", Json::U64(summary.batches)),
        ("dropped_arrivals", Json::U64(summary.dropped_arrivals)),
        ("events", Json::U64(report.events_processed)),
        ("makespan_s", Json::F64(summary.makespan_s)),
    ]);
    let timings = Json::object(vec![
        ("wall_ms", Json::F64(wall_s * 1e3)),
        ("events_per_sec", Json::F64(events_per_sec)),
        ("patches_per_sec", Json::F64(patches_per_sec)),
    ]);
    let bench = CountsReport {
        name: "throughput".to_string(),
        counts,
        timings,
    };

    if let Some(dir) = &opts.out {
        match bench.write_to_dir(dir) {
            Ok(path) => println!("(wrote {})", path.display()),
            Err(err) => {
                eprintln!("failed to write {}: {err}", bench.file_name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
