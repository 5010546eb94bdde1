//! Ablation — the estimator's σ multiplier (Eqn. 9 uses k = 3).
//!
//! Sweeps k ∈ {0, 1, 2, 3, 4}: smaller k waits longer (cheaper, riskier);
//! larger k invokes earlier (safer, costlier). The paper notes
//! SLO-critical applications can "manually adjust the slack time to a
//! more conservative estimation" — this quantifies that dial. The sweep
//! is a one-axis `SweepGrid` over `sigma_multipliers`; `--out DIR`
//! writes `BENCH_ablation_slack.json`.

use tangram_bench::{ExpOpts, TextTable};
use tangram_core::engine::PolicyKind;
use tangram_harness::presets::motivation_scenes;
use tangram_harness::{run_grid, SweepGrid, TraceKind, WorkloadSpec};

fn main() {
    let opts = ExpOpts::from_args();
    let frames = opts.frame_budget(40, 134);
    let scenes = motivation_scenes(opts.quick);

    let mut grid = SweepGrid::named("ablation_slack");
    grid.policies = vec![PolicyKind::Tangram];
    grid.seeds = vec![opts.seed];
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![40.0];
    grid.sigma_multipliers = vec![0.0, 1.0, 2.0, 3.0, 4.0];
    grid.workloads = WorkloadSpec::per_scene(&scenes, frames, TraceKind::Proxy);

    let report = run_grid(&grid, opts.workers());
    if let Err(err) = opts.maybe_write(&report) {
        eprintln!("{err}");
        std::process::exit(1);
    }

    println!("== Ablation: slack multiplier k (T_slack = µ + k·σ), SLO = 1 s, 40 Mbps ==\n");
    let mut table = TextTable::new([
        "k",
        "violation %",
        "cost $/scene",
        "mean patches/batch",
        "mean latency (s)",
    ]);
    for &k in &grid.sigma_multipliers {
        let cells: Vec<_> = report
            .cells
            .iter()
            .filter(|c| (c.sigma_multiplier - k).abs() < 1e-9)
            .collect();
        let n = cells.len().max(1) as f64;
        let violations: u64 = cells.iter().map(|c| c.metrics.violations).sum();
        let patches: u64 = cells.iter().map(|c| c.metrics.patches).sum();
        let cost: f64 = cells.iter().map(|c| c.metrics.cost_usd).sum();
        let ppb: f64 = cells.iter().map(|c| c.metrics.mean_patches_per_batch).sum();
        let lat: f64 = cells.iter().map(|c| c.metrics.mean_latency_s).sum();
        table.row([
            format!("{k:.0}"),
            format!("{:.2}", violations as f64 / patches.max(1) as f64 * 100.0),
            format!("{:.4}", cost / n),
            format!("{:.1}", ppb / n),
            format!("{:.3}", lat / n),
        ]);
    }
    table.print();
    println!(
        "\nExpected: k = 0 batches most aggressively but risks tail violations; the\npaper's k = 3 keeps violations ≈ 0 at a small cost premium."
    );
}
