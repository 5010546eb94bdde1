//! Fig. 13 — canvas efficiency vs bandwidth and SLO.
//!
//! (a)–(c): the canvas-efficiency CDF of Tangram's batches for each SLO
//! at 20/40/80 Mbps; (d): the three bandwidths compared at SLO = 1 s.
//! One `SweepGrid` per bandwidth (Tangram only, the paper's SLO axis for
//! that link — SLO = 1 s appears in each, which is what 13(d) reads
//! across bandwidths), fanned out over the harness pool; the CDFs come
//! from the full per-batch records, the scalar digests go to
//! `BENCH_fig13_canvas_efficiency_bw<N>.json` with `--out DIR`.

use tangram_bench::{ExpOpts, TextTable};
use tangram_core::engine::PolicyKind;
use tangram_harness::presets::{motivation_scenes, paper_slos_s, trace_kind};
use tangram_harness::{bench_report, run_grid_full, CellOutcome, SweepGrid, WorkloadSpec};
use tangram_sim::stats::EmpiricalCdf;

fn main() {
    let opts = ExpOpts::from_args();
    let frames = opts.frame_budget(40, 134);
    let scenes = motivation_scenes(opts.quick);
    let kind = trace_kind(opts.quick);

    let mut outcomes: Vec<CellOutcome> = Vec::new();
    for bw in [20.0, 40.0, 80.0] {
        let mut grid = SweepGrid::named(&format!("fig13_canvas_efficiency_bw{bw:.0}"));
        grid.policies = vec![PolicyKind::Tangram];
        grid.seeds = vec![opts.seed];
        grid.slos_s = paper_slos_s(bw).to_vec();
        grid.bandwidths_mbps = vec![bw];
        grid.workloads = WorkloadSpec::per_scene(&scenes, frames, kind);

        let grid_outcomes = run_grid_full(&grid, opts.workers());
        if let Err(err) = opts.maybe_write(&bench_report(&grid, &grid_outcomes)) {
            eprintln!("{err}");
            std::process::exit(1);
        }
        outcomes.extend(grid_outcomes);
    }

    let efficiency_cdf = |bw: f64, slo: f64| -> EmpiricalCdf {
        let mut cdf = EmpiricalCdf::new();
        for outcome in outcomes
            .iter()
            .filter(|o| (o.cell.bandwidth_mbps - bw).abs() < 1e-9)
            .filter(|o| (o.cell.slo_s - slo).abs() < 1e-9)
        {
            cdf.extend(outcome.report.canvas_efficiencies());
        }
        cdf
    };

    for bw in [20.0, 40.0, 80.0] {
        println!("== Fig. 13 @ {bw:.0} Mbps: canvas efficiency by SLO ==\n");
        let mut table = TextTable::new(["SLO (s)", "mean", "p25", "median", "p75", "frac > 0.6"]);
        for slo in paper_slos_s(bw) {
            let mut cdf = efficiency_cdf(bw, slo);
            if cdf.is_empty() {
                continue;
            }
            let above = 1.0 - cdf.fraction_at_or_below(0.6);
            table.row([
                format!("{slo:.1}"),
                format!("{:.3}", cdf.mean()),
                format!("{:.3}", cdf.quantile(0.25).unwrap_or(0.0)),
                format!("{:.3}", cdf.quantile(0.5).unwrap_or(0.0)),
                format!("{:.3}", cdf.quantile(0.75).unwrap_or(0.0)),
                format!("{above:.2}"),
            ]);
        }
        table.print();
        println!();
    }

    println!("== Fig. 13(d): bandwidths compared at SLO = 1 s ==\n");
    let mut table = TextTable::new(["bandwidth", "mean eff", "frac > 0.6 (paper)"]);
    let paper_frac = [0.50, 0.80, 0.86];
    for (i, bw) in [20.0, 40.0, 80.0].into_iter().enumerate() {
        let mut cdf = efficiency_cdf(bw, 1.0);
        let above = 1.0 - cdf.fraction_at_or_below(0.6);
        table.row([
            format!("{bw:.0}Mbps"),
            format!("{:.3}", cdf.mean()),
            format!("{above:.2} ({:.2})", paper_frac[i]),
        ]);
    }
    table.print();
    println!(
        "\nPaper: looser SLOs and higher bandwidth both push the efficiency CDF\nrightwards; at SLO 1 s, 50% / 80% / 86% of canvases exceed 0.6 efficiency\nat 20 / 40 / 80 Mbps."
    );
}
