//! Overload bench: SLO attainment vs offered load, with and without
//! admission control — the paper-style "what happens past capacity"
//! table the streaming runtime exists to answer.
//!
//! Four cameras with the gold (0.8 s) / best-effort (1.5 s) tenant mix
//! stream open-loop Poisson frames at a ramp of rates crossing backend
//! capacity (the scenario axis), and every point runs twice (the
//! admission axis): once with the open door (`always`, sheds nothing,
//! attainment collapses past the knee) and once with the SLO-aware
//! shedder (`slo-shedder`, sheds doomed and best-effort work first so
//! gold keeps its attainment). Drops are first-class metrics:
//! `dropped_arrivals` and the per-tenant breakdown land in
//! `BENCH_overload*.json` and are gated like any other correctness
//! metric.
//!
//! Standard flags apply: `--workers N` (output is byte-identical for any
//! worker count), `--seed`, `--frames N` (frame budget per camera),
//! `--out DIR`; `--smoke` keeps two ramp points for CI (grid name
//! `overload`, gated against `baselines/BENCH_overload.json`).

use tangram_bench::{ExpOpts, TextTable};
use tangram_harness::presets::{overload_grid, TENANT_MIX_SLOS_S};
use tangram_harness::run_grid;

fn main() {
    let opts = ExpOpts::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode pins the CI-gated grid shape: only an explicit
    // `--frames` may move it (`--quick` must not silently desync the
    // written report from baselines/BENCH_overload.json).
    let frames = if smoke {
        opts.frames.unwrap_or(48)
    } else {
        opts.frame_budget(24, 48)
    };
    let grid = overload_grid(opts.seed, frames, smoke);
    let cameras = grid.workloads[0].scenes.len();
    let workers = opts.workers();
    println!(
        "== bench_overload: {} cells on {} workers — {} cameras, offered-load ramp {:?} fps/cam, admission {:?} ==\n",
        grid.cell_count(),
        workers,
        cameras,
        grid.scenarios
            .iter()
            .map(|s| match s.arrival {
                tangram_harness::ArrivalSpec::Poisson { fps } => fps,
                _ => f64::NAN,
            })
            .collect::<Vec<_>>(),
        grid.admission.iter().map(|a| a.kind()).collect::<Vec<_>>(),
    );

    let report = run_grid(&grid, workers);
    if let Err(err) = opts.maybe_write(&report) {
        eprintln!("{err}");
        std::process::exit(1);
    }

    // The attainment-vs-offered-load table: one row per (ramp point,
    // admission policy), gold and best-effort accounted separately.
    let mut table = TextTable::new([
        "offered (fps)",
        "admission",
        "arrivals",
        "served",
        "dropped",
        "attain %",
        "gold attain %",
        "gold drop %",
        "be drop %",
        "p99 (s)",
    ]);
    for cell in &report.cells {
        let m = &cell.metrics;
        let scenario = &grid.scenarios[cell.scenario.unwrap_or(0) as usize];
        let offered = match scenario.arrival {
            tangram_harness::ArrivalSpec::Poisson { fps } => fps * cameras as f64,
            _ => f64::NAN,
        };
        let class_rate = |slo_s: f64, f: &dyn Fn(&tangram_core::TenantSummary) -> f64| {
            m.tenants
                .iter()
                .find(|t| (t.slo_s - slo_s).abs() < 1e-9)
                .map_or(0.0, f)
        };
        let [gold_slo, be_slo] = TENANT_MIX_SLOS_S;
        let gold_attain = class_rate(gold_slo, &|t| {
            if t.patches == 0 {
                1.0
            } else {
                1.0 - t.violations as f64 / t.patches as f64
            }
        });
        let drop_rate = |t: &tangram_core::TenantSummary| {
            let offered = t.patches + t.dropped;
            if offered == 0 {
                0.0
            } else {
                t.dropped as f64 / offered as f64
            }
        };
        table.row([
            format!("{offered:.0}"),
            cell.admission.clone().unwrap_or_else(|| "-".into()),
            (m.patches + m.dropped_arrivals).to_string(),
            m.patches.to_string(),
            m.dropped_arrivals.to_string(),
            format!("{:.1}", m.slo_attainment * 100.0),
            format!("{:.1}", gold_attain * 100.0),
            format!("{:.1}", class_rate(gold_slo, &drop_rate) * 100.0),
            format!("{:.1}", class_rate(be_slo, &drop_rate) * 100.0),
            format!("{:.3}", m.p99_latency_s),
        ]);
    }
    table.print();
    println!(
        "\nPast the capacity knee the open door serves everything late (attainment collapses), while the \
         SLO-aware shedder trades best-effort arrivals for gold attainment — the drops are in the BENCH \
         json, so the CI gate sees them as correctness, not throughput."
    );
}
