//! Grid execution: fan cells out over the pool, reassemble in order.

use crate::grid::{AdmissionSpec, FairnessSpec, ScenarioSpec, SweepCell, SweepGrid};
use crate::pool::parallel_map;
use crate::presets::build_workload;
use crate::report::{BenchReport, CellReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use tangram_core::engine::EngineConfig;
use tangram_core::online::{GeneratedSource, OnlineEngine, TenantClass, TraceReplaySource};
use tangram_core::report::RunReport;
use tangram_core::workload::CameraTrace;
use tangram_sim::rng::DetRng;
use tangram_trace::{TraceLog, TraceSink};
use tangram_types::time::{SimDuration, SimTime};

/// One cell's full outcome: the resolved cell plus the engine's complete
/// [`RunReport`] (per-patch and per-batch records included), for
/// experiments that need distributions rather than the scalar digest.
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The engine's full report.
    pub report: RunReport,
    /// The cell's runtime event trace, when the grid opted in with
    /// [`SweepGrid::capture_traces`].
    pub trace: Option<TraceLog>,
}

/// Runs every cell of `grid` on `workers` threads, returning full
/// outcomes in grid enumeration order.
///
/// Two parallel phases: workload traces are built once per unique
/// `(workload, trace_seed)` pair (cells on the same pair share the exact
/// same traces — the paired comparison the paper's per-scene tables
/// need), then cells run against the shared traces. Both phases are
/// deterministic per item, so the outcome is bit-for-bit identical for
/// any worker count — including `--workers 1`.
///
/// # Panics
///
/// Panics if a cell's engine run panics (the engine asserts on invalid
/// configurations, e.g. an empty workload).
#[must_use]
pub fn run_grid_full(grid: &SweepGrid, workers: usize) -> Vec<CellOutcome> {
    let cells = grid.cells();

    let mut trace_keys: Vec<(usize, u64)> = cells
        .iter()
        .map(|c| (c.workload_index, c.trace_seed))
        .collect();
    trace_keys.sort_unstable();
    trace_keys.dedup();
    let built: Vec<Arc<Vec<CameraTrace>>> =
        parallel_map(trace_keys.clone(), workers, |_, (workload_index, seed)| {
            Arc::new(build_workload(&grid.workloads[workload_index], seed))
        });
    let traces: BTreeMap<(usize, u64), Arc<Vec<CameraTrace>>> =
        trace_keys.into_iter().zip(built).collect();

    let scenarios = grid.scenarios.clone();
    let admission = grid.admission.clone();
    let fairness = grid.fairness.clone();
    let capture = grid.capture_traces;
    parallel_map(cells, workers, move |_, cell| {
        let traces = Arc::clone(&traces[&(cell.workload_index, cell.trace_seed)]);
        let admission = cell.admission_index.map(|i| &admission[i]);
        let fairness = cell.fairness_index.map(|i| &fairness[i]);
        let mut config = cell.engine_config();
        if let Some(spec) = fairness {
            config.scheduler_admission_aware = spec.admission_aware;
        }
        let (report, trace) = match cell.scenario_index.map(|i| &scenarios[i]) {
            None => match (admission, fairness) {
                // No ingress stage at all: the legacy batch entry point.
                // Trace capture routes through the streaming engine,
                // whose replay mount is byte-identical to it.
                (None, None) if !capture => (config.run(&traces), None),
                // Trace replay under admission control and/or a fair
                // ingress: mount the same replay sources on the streaming
                // engine (byte-identical to the batch path when nothing
                // is shed or queued).
                _ => run_replay(&config, &traces, cell.slo_s, admission, fairness, capture),
            },
            Some(scenario) => {
                run_scenario_traced(&config, &traces, scenario, admission, fairness, capture)
            }
        };
        CellOutcome {
            cell,
            report,
            trace,
        }
    })
}

/// Replays `traces` through the streaming engine exactly as
/// [`EngineConfig::run`] mounts them (1 ms join stagger per camera),
/// with the cell's ingress stages (admission policy and/or weighted-DRR
/// fair ingress) installed. Replay cells carry no tenant mix, so the
/// fair ingress runs a single class at the cell SLO.
fn run_replay(
    config: &EngineConfig,
    traces: &[CameraTrace],
    slo_s: f64,
    admission: Option<&AdmissionSpec>,
    fairness: Option<&FairnessSpec>,
    capture: bool,
) -> (RunReport, Option<TraceLog>) {
    let mut engine = OnlineEngine::new(config);
    for (cam, trace) in traces.iter().enumerate() {
        engine.add_camera_at(
            SimTime::from_micros(cam as u64 * 1_000),
            Box::new(TraceReplaySource::new(trace.clone())),
        );
    }
    if let Some(spec) = admission {
        engine.set_admission_policy(spec.build(&[]));
    }
    if let Some(spec) = fairness {
        engine.set_fair_ingress(spec.build(&[], slo_s));
    }
    if capture {
        engine.set_trace_sink(TraceSink::new());
    }
    engine.run_traced()
}

/// Runs one streaming-scenario cell: the cell's traces become per-camera
/// content pools on an [`OnlineEngine`], cameras join staggered (and
/// leave after their session, when churn is configured), arrival timing
/// comes from the scenario's seeded process, tenant SLO classes are
/// assigned round-robin, and the cell's ingress stages (if any) guard
/// the entrance — the SLO-aware shedder's class table and the weighted
/// DRR's class queues are primed from the scenario's tenant mix.
///
/// Everything is derived from `config.seed` (the cell's engine seed) via
/// labelled forks, so the outcome is independent of which worker thread
/// runs the cell — the same guarantee trace-replay cells have.
#[must_use]
pub fn run_scenario(
    config: &EngineConfig,
    traces: &[CameraTrace],
    scenario: &ScenarioSpec,
    admission: Option<&AdmissionSpec>,
    fairness: Option<&FairnessSpec>,
) -> RunReport {
    run_scenario_traced(config, traces, scenario, admission, fairness, false).0
}

/// [`run_scenario`], optionally recording the runtime event trace.
#[must_use]
pub fn run_scenario_traced(
    config: &EngineConfig,
    traces: &[CameraTrace],
    scenario: &ScenarioSpec,
    admission: Option<&AdmissionSpec>,
    fairness: Option<&FairnessSpec>,
    capture: bool,
) -> (RunReport, Option<TraceLog>) {
    let mut engine = OnlineEngine::new(config);
    engine.set_faults(scenario.faults.clone());
    if let Some(spec) = admission {
        engine.set_admission_policy(spec.build(&scenario.tenant_slos_s));
    }
    if let Some(spec) = fairness {
        engine.set_fair_ingress(spec.build(&scenario.tenant_slos_s, config.slo.as_secs_f64()));
    }
    let root = DetRng::new(config.seed);
    for (cam, trace) in traces.iter().enumerate() {
        let rng = root.fork_indexed("scenario-arrival", cam as u64);
        let mut source = GeneratedSource::new(
            trace,
            scenario.frames_per_camera,
            scenario.arrival.process(),
            rng,
        );
        if !scenario.tenant_slos_s.is_empty() {
            let class = cam % scenario.tenant_slos_s.len();
            let tenant = TenantClass::new(
                &format!("tenant-{class}"),
                SimDuration::from_secs_f64(scenario.tenant_slos_s[class]),
            );
            source = source.with_tenant(&tenant);
        }
        let join = SimTime::from_secs_f64(scenario.join_stagger_s * cam as f64);
        let index = engine.add_camera_at(join, Box::new(source));
        if let Some(session_s) = scenario.session_s {
            engine.remove_camera_at(join + SimDuration::from_secs_f64(session_s), index);
        }
    }
    if capture {
        engine.set_trace_sink(TraceSink::new());
    }
    engine.run_traced()
}

/// Collapses full outcomes into the serialisable [`BenchReport`].
#[must_use]
pub fn bench_report(grid: &SweepGrid, outcomes: &[CellOutcome]) -> BenchReport {
    BenchReport {
        name: grid.name.clone(),
        grid: grid.clone(),
        cells: outcomes
            .iter()
            .map(|o| CellReport {
                index: o.cell.index as u64,
                seed: o.cell.seed,
                slo_s: o.cell.slo_s,
                bandwidth_mbps: o.cell.bandwidth_mbps,
                sigma_multiplier: o.cell.sigma_multiplier,
                workload: o.cell.workload_index as u64,
                // Recorded only when the axis genuinely sweeps, so
                // single/no-scenario grids keep their legacy cell bytes.
                scenario: if grid.scenarios.len() > 1 {
                    o.cell.scenario_index.map(|i| i as u64)
                } else {
                    None
                },
                admission: o
                    .cell
                    .admission_index
                    .map(|i| grid.admission[i].kind().to_string()),
                // All fairness specs share the "drr" kind, so a
                // multi-variant axis suffixes the axis index to keep
                // cells distinguishable.
                fairness: o.cell.fairness_index.map(|i| {
                    if grid.fairness.len() > 1 {
                        format!("{}@{i}", grid.fairness[i].kind())
                    } else {
                        grid.fairness[i].kind().to_string()
                    }
                }),
                metrics: o.report.summarize(),
            })
            .collect(),
    }
}

/// Runs every cell of `grid` and collects the [`BenchReport`] digest.
/// See [`run_grid_full`] for the execution model.
#[must_use]
pub fn run_grid(grid: &SweepGrid, workers: usize) -> BenchReport {
    bench_report(grid, &run_grid_full(grid, workers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{TraceKind, WorkloadSpec};
    use tangram_core::engine::PolicyKind;
    use tangram_types::ids::SceneId;

    fn micro_grid() -> SweepGrid {
        let mut grid = SweepGrid::named("micro");
        grid.policies = vec![PolicyKind::Tangram, PolicyKind::Elf];
        grid.seeds = vec![7];
        grid.slos_s = vec![1.0];
        grid.bandwidths_mbps = vec![40.0];
        grid.workloads = vec![WorkloadSpec::single(SceneId::new(1), 6, TraceKind::Proxy)];
        grid
    }

    #[test]
    fn runs_every_cell_in_order() {
        let grid = micro_grid();
        let report = run_grid(&grid, 2);
        assert_eq!(report.cells.len(), grid.cell_count());
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.index, i as u64);
            assert!(cell.metrics.patches > 0, "cell {i} ran the engine");
        }
        let policies: Vec<&str> = report
            .cells
            .iter()
            .map(|c| c.metrics.policy.as_str())
            .collect();
        assert_eq!(policies, ["Tangram", "ELF"]);
    }

    #[test]
    fn parallel_report_matches_sequential_bytes() {
        let grid = micro_grid();
        let sequential = run_grid(&grid, 1);
        let parallel = run_grid(&grid, 4);
        assert_eq!(sequential.to_json(), parallel.to_json());
    }

    #[test]
    fn scenario_cells_run_the_streaming_engine() {
        use crate::grid::{ArrivalSpec, ScenarioSpec};
        let mut grid = micro_grid();
        grid.name = "micro_scenario".to_string();
        grid.workloads = vec![WorkloadSpec {
            scenes: vec![1, 2],
            frames: 4,
            trace: TraceKind::Proxy,
        }];
        grid.scenarios = vec![ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps: 8.0 },
            frames_per_camera: 10,
            join_stagger_s: 0.5,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: Vec::new(),
        }];
        let report = run_grid(&grid, 2);
        for cell in &report.cells {
            // Two cameras × 10 generated frames each.
            assert_eq!(cell.metrics.frames, 20, "cell {}", cell.index);
            assert!(cell.metrics.patches > 0);
            // Two tenant classes stream side by side.
            assert_eq!(cell.metrics.tenants.len(), 2, "cell {}", cell.index);
        }
        // The streaming path keeps the harness guarantee: parallel output
        // is byte-identical to sequential.
        assert_eq!(run_grid(&grid, 1).to_json(), report.to_json());
    }

    #[test]
    fn admission_axis_fans_out_and_always_admit_matches_the_batch_path() {
        use crate::grid::AdmissionSpec;
        let mut grid = micro_grid();
        grid.name = "micro_admission".to_string();
        grid.policies = vec![PolicyKind::Tangram];
        let bare = run_grid(&grid, 2);
        grid.admission = vec![
            AdmissionSpec::Always,
            AdmissionSpec::QueueDepth { max_queued: 0 },
        ];
        let report = run_grid(&grid, 2);
        assert_eq!(report.cells.len(), 2 * bare.cells.len());
        // AlwaysAdmit over replay sources reproduces the batch digest.
        let always = &report.cells[0];
        assert_eq!(always.admission.as_deref(), Some("always"));
        assert_eq!(always.metrics, bare.cells[0].metrics);
        // A zero-depth queue bound sheds everything.
        let starved = &report.cells[1];
        assert_eq!(starved.admission.as_deref(), Some("queue-depth"));
        assert_eq!(starved.metrics.patches, 0);
        assert!(starved.metrics.dropped_arrivals > 0);
        // The admission path keeps the worker-count guarantee.
        assert_eq!(run_grid(&grid, 1).to_json(), report.to_json());
    }
}
