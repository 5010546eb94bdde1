//! Fig. 14 — a deep dive into Tangram's batching at SLO = 1 s.
//!
//! (a) the per-batch function-execution latency distribution at each
//! bandwidth; (b) the patches-per-batch distribution; (c) the latency
//! breakdown (total transmission vs total execution); (d) the joint
//! distribution of patches vs canvases per batch; plus the amortised
//! per-patch latency the paper derives (0.0252 / 0.0223 / 0.0213 s).
//! One Tangram-only `SweepGrid` over the bandwidth axis, run on the
//! harness pool; `--out DIR` writes `BENCH_fig14_insight.json`.

use tangram_bench::{ExpOpts, TextTable};
use tangram_core::engine::PolicyKind;
use tangram_harness::presets::{motivation_scenes, trace_kind};
use tangram_harness::{bench_report, run_grid_full, CellOutcome, SweepGrid, WorkloadSpec};
use tangram_sim::stats::EmpiricalCdf;
use tangram_types::time::SimDuration;

fn main() {
    let opts = ExpOpts::from_args();
    let frames = opts.frame_budget(40, 134);
    let scenes = motivation_scenes(opts.quick);
    let kind = trace_kind(opts.quick);

    let mut grid = SweepGrid::named("fig14_insight");
    grid.policies = vec![PolicyKind::Tangram];
    grid.seeds = vec![opts.seed];
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![20.0, 40.0, 80.0];
    grid.workloads = WorkloadSpec::per_scene(&scenes, frames, kind);

    let outcomes = run_grid_full(&grid, opts.workers());
    if let Err(err) = opts.maybe_write(&bench_report(&grid, &outcomes)) {
        eprintln!("{err}");
        std::process::exit(1);
    }

    let paper_amortized = [0.0252, 0.0223, 0.0213];
    let mut summary = TextTable::new([
        "bandwidth",
        "exec p25/p50/p75 (s)",
        "patches/batch p50 (max)",
        "transmission total (s)",
        "execution total (s)",
        "amortized s/patch (paper)",
    ]);

    for (bi, bw) in [20.0, 40.0, 80.0].into_iter().enumerate() {
        let at_bw: Vec<&CellOutcome> = outcomes
            .iter()
            .filter(|o| (o.cell.bandwidth_mbps - bw).abs() < 1e-9)
            .collect();
        let mut exec_cdf = EmpiricalCdf::new();
        let mut patch_cdf = EmpiricalCdf::new();
        let mut transmission = SimDuration::ZERO;
        let mut execution = SimDuration::ZERO;
        let mut joint = [[0u32; 10]; 10]; // canvases (1..=9) × patch bands
        let mut total_patches = 0usize;
        for outcome in &at_bw {
            let report = &outcome.report;
            for b in &report.batches {
                exec_cdf.push(b.execution.as_secs_f64());
                patch_cdf.push(b.patch_count as f64);
                let canvases = b.inputs.clamp(1, 9);
                let band = ((b.patch_count.saturating_sub(1)) / 5).min(8);
                joint[canvases][band] += 1;
            }
            transmission += report.transmission_busy;
            execution += report.total_execution();
            total_patches += report.patches_completed();
        }
        let amortized = execution.as_secs_f64() / total_patches.max(1) as f64;
        summary.row([
            format!("{bw:.0}Mbps"),
            format!(
                "{:.2}/{:.2}/{:.2}",
                exec_cdf.quantile(0.25).unwrap_or(0.0),
                exec_cdf.quantile(0.5).unwrap_or(0.0),
                exec_cdf.quantile(0.75).unwrap_or(0.0)
            ),
            format!(
                "{:.0} ({:.0})",
                patch_cdf.quantile(0.5).unwrap_or(0.0),
                patch_cdf.quantile(1.0).unwrap_or(0.0)
            ),
            format!("{:.1}", transmission.as_secs_f64()),
            format!("{:.1}", execution.as_secs_f64()),
            format!("{:.4} ({:.4})", amortized, paper_amortized[bi]),
        ]);

        if (bw - 80.0).abs() < f64::EPSILON {
            println!("== Fig. 14(d) @ 80 Mbps: batches by canvases (rows) x patches (cols) ==\n");
            let mut heat = TextTable::new([
                "canvases", "1-5", "6-10", "11-15", "16-20", "21-25", "26-30", "31-35", "36-40",
                ">40",
            ]);
            for (canvases, row) in joint.iter().enumerate().skip(1) {
                let row_total: u32 = row.iter().sum();
                if row_total == 0 {
                    continue;
                }
                let mut cells = vec![canvases.to_string()];
                for &count in row.iter().take(9) {
                    cells.push(format!("{:.2}", f64::from(count) / f64::from(row_total)));
                }
                heat.row(cells);
            }
            heat.print();
            println!();
        }
    }

    println!("== Fig. 14(a–c) summary (SLO = 1 s) ==\n");
    summary.print();
    println!(
        "\nPaper: per-batch execution grows with bandwidth (bigger batches) while the\namortised per-patch latency falls (0.0252 → 0.0223 → 0.0213 s); transmission\ndominates the end-to-end breakdown; patches and canvases correlate\npositively in (d)."
    );
}
