//! Fairness bench: the weighted-share-vs-offered-load table — what the
//! admitted traffic mix looks like when a weighted-DRR fair ingress,
//! rather than class-blind shedding, gives ground under overload.
//!
//! Four cameras with the gold (0.8 s) / best-effort (1.5 s) tenant mix
//! stream open-loop Poisson frames at a ramp crossing the DRR ingress
//! service rate (the scenario axis), every cell mounting the 3:1
//! weighted-DRR stage of `fairness_drr_spec` (the fairness axis) with
//! admission-aware Tangram scheduling. Past the capacity knee the
//! *admitted* per-class shares must track the configured 3:1 weights —
//! contrast `bench_overload`'s `SloShedder`, whose admitted residue
//! collapses toward a single class. Admitted counts, per-class queue
//! peaks and overflow sheds are first-class metrics in
//! `BENCH_fairness*.json` and are gated like any other correctness
//! metric.
//!
//! Standard flags apply: `--workers N` (output is byte-identical for any
//! worker count), `--seed`, `--frames N` (frame budget per camera),
//! `--out DIR`; `--smoke` keeps the 2× and 4× ramp points for CI (grid
//! name `fairness`, gated against `baselines/BENCH_fairness.json`).

use tangram_bench::{ExpOpts, TextTable};
use tangram_harness::presets::{fairness_grid, FAIRNESS_WEIGHTS, TENANT_MIX_SLOS_S};
use tangram_harness::run_grid;

fn main() {
    let opts = ExpOpts::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode pins the CI-gated grid shape: only an explicit
    // `--frames` may move it.
    let frames = if smoke {
        opts.frames.unwrap_or(48)
    } else {
        opts.frame_budget(24, 48)
    };
    let grid = fairness_grid(opts.seed, frames, smoke);
    let cameras = grid.workloads[0].scenes.len();
    let workers = opts.workers();
    println!(
        "== bench_fairness: {} cells on {} workers — {} cameras, offered-load ramp {:?} fps/cam, DRR weights {:?} ==\n",
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
        FAIRNESS_WEIGHTS,
    );

    let report = run_grid(&grid, workers);
    if let Err(err) = opts.maybe_write(&report) {
        eprintln!("{err}");
        std::process::exit(1);
    }

    // The weighted-share-vs-offered-load table: one row per ramp point,
    // gold and best-effort admitted shares against the weight targets.
    let [gold_w, be_w] = FAIRNESS_WEIGHTS;
    let gold_target = gold_w / (gold_w + be_w);
    let mut table = TextTable::new([
        "offered (fps)",
        "arrivals",
        "admitted",
        "dropped",
        "gold adm %",
        "target %",
        "be adm %",
        "gold peak q",
        "attain %",
        "p99 (s)",
    ]);
    for cell in &report.cells {
        let m = &cell.metrics;
        let scenario = &grid.scenarios[cell.scenario.unwrap_or(0) as usize];
        let offered = match scenario.arrival {
            tangram_harness::ArrivalSpec::Poisson { fps } => fps * cameras as f64,
            _ => f64::NAN,
        };
        let class = |slo_s: f64| {
            m.tenants
                .iter()
                .find(|t| (t.slo_s - slo_s).abs() < 1e-9)
                .cloned()
                .unwrap_or_default()
        };
        let [gold_slo, be_slo] = TENANT_MIX_SLOS_S;
        let (gold, be) = (class(gold_slo), class(be_slo));
        let admitted_total = (gold.admitted + be.admitted).max(1) as f64;
        table.row([
            format!("{offered:.0}"),
            (m.patches + m.dropped_arrivals).to_string(),
            (gold.admitted + be.admitted).to_string(),
            m.dropped_arrivals.to_string(),
            format!("{:.1}", gold.admitted as f64 / admitted_total * 100.0),
            format!("{:.1}", gold_target * 100.0),
            format!("{:.1}", be.admitted as f64 / admitted_total * 100.0),
            gold.peak_queued.to_string(),
            format!("{:.1}", m.slo_attainment * 100.0),
            format!("{:.3}", m.p99_latency_s),
        ]);
    }
    table.print();
    println!(
        "\nPast the ingress knee the weighted DRR keeps the admitted mix at the configured weights — \
         compare bench_overload, where the SLO shedder's admitted residue collapses toward one class. \
         Admitted counts and per-class queue peaks are in the BENCH json, gated as correctness."
    );
}
