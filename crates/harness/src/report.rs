//! Versioned, machine-readable bench reports.
//!
//! A [`BenchReport`] is what one [`crate::grid::SweepGrid`] run leaves
//! behind: a schema version, the grid that was swept (so the file is
//! self-describing), and one [`CellReport`] per cell carrying the
//! engine's [`RunSummary`] digest. Serialisation goes through the
//! deterministic JSON writer in [`crate::json`], so the same run always
//! produces the same bytes — which is what lets CI compare a candidate
//! `BENCH_smoke.json` against a checked-in baseline, and what the
//! parallel-equals-sequential test asserts byte-for-byte.
//!
//! Nothing wall-clock-dependent is recorded: `throughput_pps` is patches
//! per *simulated* second, so a scheduling regression moves it while the
//! host machine's speed cannot.

use crate::grid::{
    policy_from_name, AdmissionSpec, ArrivalSpec, FairnessSpec, ScenarioSpec, SweepGrid, TraceKind,
    WorkloadSpec,
};
use crate::json::Json;
use serde::{Deserialize, Serialize};
use tangram_core::faults::{FaultKind, FaultSpec};
use tangram_core::report::{RunSummary, TenantSummary};

/// Version stamped into every `BENCH_*.json`; bump on any field change.
/// v2 added drop accounting (`dropped_arrivals`, `tenants`) to the
/// per-cell metrics and the scenario/admission sweep axes to the grid.
/// v3 added per-class fair-ingress queue accounting (`peak_queued` on
/// every tenant row) and the weighted-DRR `fairness` sweep axis.
/// v4 added declarative fault injection (`faults` on every scenario,
/// emitted only when non-empty) and made weighted-DRR work-conserving,
/// which moves fairness-axis metrics.
pub const SCHEMA_VERSION: u64 = 4;

/// One cell's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Position in grid enumeration order.
    pub index: u64,
    /// Seed-axis value.
    pub seed: u64,
    /// SLO, seconds.
    pub slo_s: f64,
    /// Uplink bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Estimator slack multiplier.
    pub sigma_multiplier: f64,
    /// Index into the grid's workload axis.
    pub workload: u64,
    /// Index into the grid's scenario axis — recorded (and serialized)
    /// only when the grid sweeps more than one scenario, so
    /// single-scenario grids keep their legacy cell bytes.
    pub scenario: Option<u64>,
    /// Admission-policy name — recorded (and serialized) only when the
    /// grid sweeps an admission axis.
    pub admission: Option<String>,
    /// Fair-ingress name — recorded (and serialized) only when the grid
    /// sweeps a fairness axis.
    pub fairness: Option<String>,
    /// The engine's scalar digest (policy name included).
    pub metrics: RunSummary,
}

/// The full outcome of one grid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Experiment name (`BENCH_<name>.json`).
    pub name: String,
    /// The grid that was swept.
    pub grid: SweepGrid,
    /// Per-cell outcomes, in grid enumeration order.
    pub cells: Vec<CellReport>,
}

impl BenchReport {
    /// The canonical file name for this report.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serialises to deterministic, pretty-printed JSON (with a trailing
    /// newline, as checked-in baselines want).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut text = self.to_value().render();
        text.push('\n');
        text
    }

    /// Parses a report back, validating the schema version.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a missing/unknown field, or a
    /// schema-version mismatch.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = Json::parse(text)?;
        let version = value
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let grid = grid_from_value(value.get("grid").ok_or("missing grid")?)?;
        let cells = value
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("missing cells")?
            .iter()
            .map(cell_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport { name, grid, cells })
    }

    /// The full document as a JSON value.
    #[must_use]
    pub fn to_value(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::U64(SCHEMA_VERSION)),
            ("name", Json::Str(self.name.clone())),
            ("grid", grid_to_value(&self.grid)),
            (
                "cells",
                Json::Array(self.cells.iter().map(cell_to_value).collect()),
            ),
        ])
    }

    /// Writes `BENCH_<name>.json` under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn grid_to_value(grid: &SweepGrid) -> Json {
    let mut fields = vec![
        (
            "policies",
            Json::Array(
                grid.policies
                    .iter()
                    .map(|p| Json::Str(p.name().to_string()))
                    .collect(),
            ),
        ),
        (
            "seeds",
            Json::Array(grid.seeds.iter().map(|&s| Json::U64(s)).collect()),
        ),
        (
            "slos_s",
            Json::Array(grid.slos_s.iter().map(|&v| Json::F64(v)).collect()),
        ),
        (
            "bandwidths_mbps",
            Json::Array(grid.bandwidths_mbps.iter().map(|&v| Json::F64(v)).collect()),
        ),
        (
            "sigma_multipliers",
            Json::Array(
                grid.sigma_multipliers
                    .iter()
                    .map(|&v| Json::F64(v))
                    .collect(),
            ),
        ),
        (
            "workloads",
            Json::Array(grid.workloads.iter().map(workload_to_value).collect()),
        ),
        (
            "mark_timeouts_s",
            Json::Array(
                grid.mark_timeouts_s
                    .iter()
                    .map(|&(bw, t)| Json::Array(vec![Json::F64(bw), Json::F64(t)]))
                    .collect(),
            ),
        ),
        ("max_fps", grid.max_fps.map_or(Json::Null, Json::F64)),
        (
            "max_instances",
            match grid.max_instances {
                None => Json::Null,
                Some(None) => Json::Str("unlimited".to_string()),
                Some(Some(n)) => Json::U64(n as u64),
            },
        ),
    ];
    // Emitted only when configured, so pre-streaming baselines (and their
    // byte-exact CI comparison) are untouched by the axes. A single
    // scenario keeps the legacy `"scenario"` object form byte-for-byte;
    // only a real multi-scenario sweep emits the `"scenarios"` array.
    match grid.scenarios.as_slice() {
        [] => {}
        [only] => fields.push(("scenario", scenario_to_value(only))),
        many => fields.push((
            "scenarios",
            Json::Array(many.iter().map(scenario_to_value).collect()),
        )),
    }
    if !grid.admission.is_empty() {
        fields.push((
            "admission",
            Json::Array(grid.admission.iter().map(admission_to_value).collect()),
        ));
    }
    if !grid.fairness.is_empty() {
        fields.push((
            "fairness",
            Json::Array(grid.fairness.iter().map(fairness_to_value).collect()),
        ));
    }
    Json::object(fields)
}

fn fairness_to_value(spec: &FairnessSpec) -> Json {
    Json::object(vec![
        ("kind", Json::Str(spec.kind().to_string())),
        (
            "weights",
            Json::Array(spec.weights.iter().map(|&w| Json::F64(w)).collect()),
        ),
        ("queue_capacity", Json::U64(spec.queue_capacity as u64)),
        ("tick_s", Json::F64(spec.tick_s)),
        ("quantum", Json::F64(spec.quantum)),
        ("admission_aware", Json::Bool(spec.admission_aware)),
    ])
}

fn fairness_from_value(value: &Json) -> Result<FairnessSpec, String> {
    match value.get("kind").and_then(Json::as_str) {
        Some("drr") => {}
        other => return Err(format!("unknown fairness.kind {other:?}")),
    }
    let f = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing fairness.{key}"))
    };
    Ok(FairnessSpec {
        weights: value
            .get("weights")
            .and_then(Json::as_array)
            .ok_or("missing fairness.weights")?
            .iter()
            .map(|v| v.as_f64().ok_or("bad fairness.weights"))
            .collect::<Result<Vec<_>, _>>()?,
        queue_capacity: value
            .get("queue_capacity")
            .and_then(Json::as_u64)
            .ok_or("missing fairness.queue_capacity")? as usize,
        tick_s: f("tick_s")?,
        quantum: f("quantum")?,
        admission_aware: value
            .get("admission_aware")
            .and_then(Json::as_bool)
            .ok_or("missing fairness.admission_aware")?,
    })
}

fn admission_to_value(spec: &AdmissionSpec) -> Json {
    let mut fields = vec![("kind", Json::Str(spec.kind().to_string()))];
    match *spec {
        AdmissionSpec::Always => {}
        AdmissionSpec::QueueDepth { max_queued } => {
            fields.push(("max_queued", Json::U64(max_queued as u64)));
        }
        AdmissionSpec::SloShedder {
            per_item_s,
            pressure,
        } => {
            fields.push(("per_item_s", Json::F64(per_item_s)));
            fields.push(("pressure", Json::F64(pressure)));
        }
    }
    Json::object(fields)
}

fn admission_from_value(value: &Json) -> Result<AdmissionSpec, String> {
    let f = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing admission.{key}"))
    };
    match value.get("kind").and_then(Json::as_str) {
        Some("always") => Ok(AdmissionSpec::Always),
        Some("queue-depth") => Ok(AdmissionSpec::QueueDepth {
            max_queued: value
                .get("max_queued")
                .and_then(Json::as_u64)
                .ok_or("missing admission.max_queued")? as usize,
        }),
        Some("slo-shedder") => Ok(AdmissionSpec::SloShedder {
            per_item_s: f("per_item_s")?,
            pressure: f("pressure")?,
        }),
        other => Err(format!("unknown admission.kind {other:?}")),
    }
}

fn arrival_to_value(spec: &ArrivalSpec) -> Json {
    let mut fields = vec![("kind", Json::Str(spec.kind().to_string()))];
    match *spec {
        ArrivalSpec::Poisson { fps } => fields.push(("fps", Json::F64(fps))),
        ArrivalSpec::Bursty {
            calm_fps,
            burst_fps,
            mean_calm_s,
            mean_burst_s,
        } => {
            fields.push(("calm_fps", Json::F64(calm_fps)));
            fields.push(("burst_fps", Json::F64(burst_fps)));
            fields.push(("mean_calm_s", Json::F64(mean_calm_s)));
            fields.push(("mean_burst_s", Json::F64(mean_burst_s)));
        }
        ArrivalSpec::Diurnal {
            min_fps,
            max_fps,
            period_s,
        } => {
            fields.push(("min_fps", Json::F64(min_fps)));
            fields.push(("max_fps", Json::F64(max_fps)));
            fields.push(("period_s", Json::F64(period_s)));
        }
    }
    Json::object(fields)
}

fn arrival_from_value(value: &Json) -> Result<ArrivalSpec, String> {
    let f = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing scenario.arrival.{key}"))
    };
    match value.get("kind").and_then(Json::as_str) {
        Some("poisson") => Ok(ArrivalSpec::Poisson { fps: f("fps")? }),
        Some("bursty") => Ok(ArrivalSpec::Bursty {
            calm_fps: f("calm_fps")?,
            burst_fps: f("burst_fps")?,
            mean_calm_s: f("mean_calm_s")?,
            mean_burst_s: f("mean_burst_s")?,
        }),
        Some("diurnal") => Ok(ArrivalSpec::Diurnal {
            min_fps: f("min_fps")?,
            max_fps: f("max_fps")?,
            period_s: f("period_s")?,
        }),
        other => Err(format!("unknown scenario.arrival.kind {other:?}")),
    }
}

fn fault_to_value(spec: &FaultSpec) -> Json {
    let mut fields = vec![("kind", Json::Str(spec.kind.name().to_string()))];
    match spec.kind {
        FaultKind::LinkOutage | FaultKind::ColdStartStorm => {}
        FaultKind::LatencyTail { factor } | FaultKind::Brownout { factor } => {
            fields.push(("factor", Json::F64(factor)));
        }
        FaultKind::CameraFlap {
            mean_up_s,
            mean_down_s,
        } => {
            fields.push(("mean_up_s", Json::F64(mean_up_s)));
            fields.push(("mean_down_s", Json::F64(mean_down_s)));
        }
    }
    fields.push(("at_s", Json::F64(spec.at_s)));
    fields.push(("duration_s", Json::F64(spec.duration_s)));
    Json::object(fields)
}

fn fault_from_value(value: &Json) -> Result<FaultSpec, String> {
    let f = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing fault.{key}"))
    };
    let kind = match value.get("kind").and_then(Json::as_str) {
        Some("link_outage") => FaultKind::LinkOutage,
        Some("latency_tail") => FaultKind::LatencyTail {
            factor: f("factor")?,
        },
        Some("cold_start_storm") => FaultKind::ColdStartStorm,
        Some("camera_flap") => FaultKind::CameraFlap {
            mean_up_s: f("mean_up_s")?,
            mean_down_s: f("mean_down_s")?,
        },
        Some("brownout") => FaultKind::Brownout {
            factor: f("factor")?,
        },
        other => return Err(format!("unknown fault.kind {other:?}")),
    };
    Ok(FaultSpec {
        kind,
        at_s: f("at_s")?,
        duration_s: f("duration_s")?,
    })
}

fn scenario_to_value(spec: &ScenarioSpec) -> Json {
    let mut fields = vec![
        ("arrival", arrival_to_value(&spec.arrival)),
        (
            "frames_per_camera",
            Json::U64(spec.frames_per_camera as u64),
        ),
        ("join_stagger_s", Json::F64(spec.join_stagger_s)),
        ("session_s", spec.session_s.map_or(Json::Null, Json::F64)),
        (
            "tenant_slos_s",
            Json::Array(spec.tenant_slos_s.iter().map(|&v| Json::F64(v)).collect()),
        ),
    ];
    // Emitted only when configured, so fault-free scenarios keep their
    // legacy bytes.
    if !spec.faults.is_empty() {
        fields.push((
            "faults",
            Json::Array(spec.faults.iter().map(fault_to_value).collect()),
        ));
    }
    Json::object(fields)
}

fn scenario_from_value(value: &Json) -> Result<ScenarioSpec, String> {
    let arrival = arrival_from_value(value.get("arrival").ok_or("missing scenario.arrival")?)?;
    let frames_per_camera = value
        .get("frames_per_camera")
        .and_then(Json::as_u64)
        .ok_or("missing scenario.frames_per_camera")? as usize;
    let join_stagger_s = value
        .get("join_stagger_s")
        .and_then(Json::as_f64)
        .ok_or("missing scenario.join_stagger_s")?;
    let session_s = match value.get("session_s") {
        Some(Json::Null) | None => None,
        Some(v) => Some(v.as_f64().ok_or("bad scenario.session_s")?),
    };
    let tenant_slos_s = value
        .get("tenant_slos_s")
        .and_then(Json::as_array)
        .ok_or("missing scenario.tenant_slos_s")?
        .iter()
        .map(|v| v.as_f64().ok_or("bad scenario.tenant_slos_s"))
        .collect::<Result<Vec<_>, _>>()?;
    let faults = match value.get("faults") {
        Some(Json::Null) | None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or("bad scenario.faults")?
            .iter()
            .map(fault_from_value)
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(ScenarioSpec {
        arrival,
        frames_per_camera,
        join_stagger_s,
        session_s,
        tenant_slos_s,
        faults,
    })
}

fn grid_from_value(value: &Json) -> Result<SweepGrid, String> {
    let str_list = |key: &str| -> Result<Vec<String>, String> {
        Ok(value
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing grid.{key}"))?
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect())
    };
    let f64_list = |key: &str| -> Result<Vec<f64>, String> {
        value
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing grid.{key}"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| format!("bad grid.{key}")))
            .collect()
    };
    let policies = str_list("policies")?
        .iter()
        .map(|name| policy_from_name(name).ok_or_else(|| format!("unknown policy '{name}'")))
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = value
        .get("seeds")
        .and_then(Json::as_array)
        .ok_or("missing grid.seeds")?
        .iter()
        .map(|v| v.as_u64().ok_or("bad grid.seeds"))
        .collect::<Result<Vec<_>, _>>()?;
    let workloads = value
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing grid.workloads")?
        .iter()
        .map(workload_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    let mark_timeouts_s = value
        .get("mark_timeouts_s")
        .and_then(Json::as_array)
        .ok_or("missing grid.mark_timeouts_s")?
        .iter()
        .map(|pair| {
            let items = pair.as_array().ok_or("bad mark_timeouts_s entry")?;
            match items {
                [bw, t] => Ok((
                    bw.as_f64().ok_or("bad mark_timeouts_s bandwidth")?,
                    t.as_f64().ok_or("bad mark_timeouts_s timeout")?,
                )),
                _ => Err("bad mark_timeouts_s entry".to_string()),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let max_fps = match value.get("max_fps") {
        Some(Json::Null) | None => None,
        Some(v) => Some(v.as_f64().ok_or("bad grid.max_fps")?),
    };
    let max_instances = match value.get("max_instances") {
        Some(Json::Null) | None => None,
        Some(Json::Str(s)) if s == "unlimited" => Some(None),
        Some(v) => Some(Some(v.as_u64().ok_or("bad grid.max_instances")? as usize)),
    };
    let scenarios = match (value.get("scenario"), value.get("scenarios")) {
        (Some(Json::Null) | None, None) => Vec::new(),
        (Some(v), None) => vec![scenario_from_value(v)?],
        (None, Some(v)) => v
            .as_array()
            .ok_or("bad grid.scenarios")?
            .iter()
            .map(scenario_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        (Some(_), Some(_)) => return Err("grid has both scenario and scenarios".to_string()),
    };
    let admission = match value.get("admission") {
        Some(Json::Null) | None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or("bad grid.admission")?
            .iter()
            .map(admission_from_value)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let fairness = match value.get("fairness") {
        Some(Json::Null) | None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or("bad grid.fairness")?
            .iter()
            .map(fairness_from_value)
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(SweepGrid {
        name: String::new(), // carried by the report, not the echo
        policies,
        seeds,
        slos_s: f64_list("slos_s")?,
        bandwidths_mbps: f64_list("bandwidths_mbps")?,
        sigma_multipliers: f64_list("sigma_multipliers")?,
        workloads,
        mark_timeouts_s,
        max_fps,
        max_instances,
        scenarios,
        admission,
        fairness,
        // Execution-only field, never serialized into BENCH json.
        capture_traces: false,
    })
}

fn workload_to_value(spec: &WorkloadSpec) -> Json {
    Json::object(vec![
        (
            "scenes",
            Json::Array(
                spec.scenes
                    .iter()
                    .map(|&s| Json::U64(u64::from(s)))
                    .collect(),
            ),
        ),
        ("frames", Json::U64(spec.frames as u64)),
        ("trace", Json::Str(spec.trace.name().to_string())),
    ])
}

fn workload_from_value(value: &Json) -> Result<WorkloadSpec, String> {
    let scenes = value
        .get("scenes")
        .and_then(Json::as_array)
        .ok_or("missing workload.scenes")?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u8::try_from(n).ok())
                .ok_or("bad workload scene index")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let frames = value
        .get("frames")
        .and_then(Json::as_u64)
        .ok_or("missing workload.frames")? as usize;
    let trace = value
        .get("trace")
        .and_then(Json::as_str)
        .and_then(TraceKind::from_name)
        .ok_or("bad workload.trace")?;
    Ok(WorkloadSpec {
        scenes,
        frames,
        trace,
    })
}

fn tenant_to_value(t: &TenantSummary) -> Json {
    Json::object(vec![
        ("slo_s", Json::F64(t.slo_s)),
        ("patches", Json::U64(t.patches)),
        ("violations", Json::U64(t.violations)),
        ("dropped", Json::U64(t.dropped)),
        ("admitted", Json::U64(t.admitted)),
        ("peak_queued", Json::U64(t.peak_queued)),
    ])
}

fn tenant_from_value(value: &Json) -> Result<TenantSummary, String> {
    let u = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing tenant.{key}"))
    };
    Ok(TenantSummary {
        slo_s: value
            .get("slo_s")
            .and_then(Json::as_f64)
            .ok_or("missing tenant.slo_s")?,
        patches: u("patches")?,
        violations: u("violations")?,
        dropped: u("dropped")?,
        admitted: u("admitted")?,
        peak_queued: u("peak_queued")?,
    })
}

fn cell_to_value(cell: &CellReport) -> Json {
    let m = &cell.metrics;
    let mut fields = vec![
        ("index", Json::U64(cell.index)),
        ("policy", Json::Str(m.policy.clone())),
        ("seed", Json::U64(cell.seed)),
        ("slo_s", Json::F64(cell.slo_s)),
        ("bandwidth_mbps", Json::F64(cell.bandwidth_mbps)),
        ("sigma_multiplier", Json::F64(cell.sigma_multiplier)),
        ("workload", Json::U64(cell.workload)),
    ];
    if let Some(scenario) = cell.scenario {
        fields.push(("scenario", Json::U64(scenario)));
    }
    if let Some(admission) = &cell.admission {
        fields.push(("admission", Json::Str(admission.clone())));
    }
    if let Some(fairness) = &cell.fairness {
        fields.push(("fairness", Json::Str(fairness.clone())));
    }
    fields.extend([(
        "metrics",
        Json::object(vec![
            ("frames", Json::U64(m.frames)),
            ("patches", Json::U64(m.patches)),
            ("batches", Json::U64(m.batches)),
            ("violations", Json::U64(m.violations)),
            ("dropped_arrivals", Json::U64(m.dropped_arrivals)),
            (
                "tenants",
                Json::Array(m.tenants.iter().map(tenant_to_value).collect()),
            ),
            ("slo_attainment", Json::F64(m.slo_attainment)),
            ("mean_latency_s", Json::F64(m.mean_latency_s)),
            ("p50_latency_s", Json::F64(m.p50_latency_s)),
            ("p99_latency_s", Json::F64(m.p99_latency_s)),
            ("cost_usd", Json::F64(m.cost_usd)),
            ("uplink_bytes", Json::U64(m.uplink_bytes)),
            ("invocations", Json::U64(m.invocations)),
            ("cold_starts", Json::U64(m.cold_starts)),
            (
                "mean_canvas_efficiency",
                Json::F64(m.mean_canvas_efficiency),
            ),
            (
                "mean_patches_per_batch",
                Json::F64(m.mean_patches_per_batch),
            ),
            ("execution_total_s", Json::F64(m.execution_total_s)),
            ("transmission_total_s", Json::F64(m.transmission_total_s)),
            ("makespan_s", Json::F64(m.makespan_s)),
            ("throughput_pps", Json::F64(m.throughput_pps)),
        ]),
    )]);
    Json::object(fields)
}

fn cell_from_value(value: &Json) -> Result<CellReport, String> {
    let metrics = value.get("metrics").ok_or("missing cell.metrics")?;
    let mu = |key: &str| -> Result<u64, String> {
        metrics
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing metrics.{key}"))
    };
    let mf = |key: &str| -> Result<f64, String> {
        metrics
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing metrics.{key}"))
    };
    let cu = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing cell.{key}"))
    };
    let cf = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing cell.{key}"))
    };
    let tenants = match metrics.get("tenants") {
        Some(v) => v
            .as_array()
            .ok_or("bad metrics.tenants")?
            .iter()
            .map(tenant_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        None => return Err("missing metrics.tenants".to_string()),
    };
    let scenario = match value.get("scenario") {
        Some(v) => Some(v.as_u64().ok_or("bad cell.scenario")?),
        None => None,
    };
    let admission = match value.get("admission") {
        Some(v) => Some(v.as_str().ok_or("bad cell.admission")?.to_string()),
        None => None,
    };
    let fairness = match value.get("fairness") {
        Some(v) => Some(v.as_str().ok_or("bad cell.fairness")?.to_string()),
        None => None,
    };
    Ok(CellReport {
        index: cu("index")?,
        seed: cu("seed")?,
        slo_s: cf("slo_s")?,
        bandwidth_mbps: cf("bandwidth_mbps")?,
        sigma_multiplier: cf("sigma_multiplier")?,
        workload: cu("workload")?,
        scenario,
        admission,
        fairness,
        metrics: RunSummary {
            policy: value
                .get("policy")
                .and_then(Json::as_str)
                .ok_or("missing cell.policy")?
                .to_string(),
            frames: mu("frames")?,
            patches: mu("patches")?,
            batches: mu("batches")?,
            violations: mu("violations")?,
            dropped_arrivals: mu("dropped_arrivals")?,
            tenants,
            slo_attainment: mf("slo_attainment")?,
            mean_latency_s: mf("mean_latency_s")?,
            p50_latency_s: mf("p50_latency_s")?,
            p99_latency_s: mf("p99_latency_s")?,
            cost_usd: mf("cost_usd")?,
            uplink_bytes: mu("uplink_bytes")?,
            invocations: mu("invocations")?,
            cold_starts: mu("cold_starts")?,
            mean_canvas_efficiency: mf("mean_canvas_efficiency")?,
            mean_patches_per_batch: mf("mean_patches_per_batch")?,
            execution_total_s: mf("execution_total_s")?,
            transmission_total_s: mf("transmission_total_s")?,
            makespan_s: mf("makespan_s")?,
            throughput_pps: mf("throughput_pps")?,
        },
    })
}

/// Tolerances of the CI perf gate.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum tolerated relative drop in per-cell `throughput_pps`
    /// (and rise in `p99_latency_s`) before the gate fails.
    pub max_perf_regression: f64,
    /// Relative tolerance on correctness metrics (patches, violations,
    /// cost, bytes, SLO attainment); anything beyond it is drift.
    pub correctness_tolerance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            max_perf_regression: 0.20,
            correctness_tolerance: 1e-9,
        }
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Compares a candidate report against a checked-in baseline, returning
/// one message per violation (empty = gate passes).
///
/// Correctness metrics must match the baseline (the simulator is
/// deterministic, so any drift is a real behavioural change — refresh the
/// baseline deliberately if it is intended). Perf metrics get
/// [`GateConfig::max_perf_regression`] headroom, and only regressions
/// fail: faster is always fine.
#[must_use]
pub fn gate(baseline: &BenchReport, candidate: &BenchReport, config: &GateConfig) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.cells.len() != candidate.cells.len() {
        violations.push(format!(
            "cell count changed: baseline {} vs candidate {} (grid shape drift)",
            baseline.cells.len(),
            candidate.cells.len()
        ));
        return violations;
    }
    for (base, cand) in baseline.cells.iter().zip(&candidate.cells) {
        let label = format!(
            "cell {} ({} @ {:.0} Mbps, SLO {:.1}s, workload {})",
            base.index, base.metrics.policy, base.bandwidth_mbps, base.slo_s, base.workload
        );
        if base.metrics.policy != cand.metrics.policy {
            violations.push(format!(
                "{label}: policy changed to {}",
                cand.metrics.policy
            ));
            continue;
        }
        let correctness: [(&str, f64, f64); 7] = [
            (
                "patches",
                base.metrics.patches as f64,
                cand.metrics.patches as f64,
            ),
            (
                "batches",
                base.metrics.batches as f64,
                cand.metrics.batches as f64,
            ),
            (
                "violations",
                base.metrics.violations as f64,
                cand.metrics.violations as f64,
            ),
            (
                // A policy that sheds more (or less) traffic than the
                // baseline is a behavioural change, never a perf win.
                "dropped_arrivals",
                base.metrics.dropped_arrivals as f64,
                cand.metrics.dropped_arrivals as f64,
            ),
            (
                "slo_attainment",
                base.metrics.slo_attainment,
                cand.metrics.slo_attainment,
            ),
            ("cost_usd", base.metrics.cost_usd, cand.metrics.cost_usd),
            (
                "uplink_bytes",
                base.metrics.uplink_bytes as f64,
                cand.metrics.uplink_bytes as f64,
            ),
        ];
        for (name, b, c) in correctness {
            if rel_diff(b, c) > config.correctness_tolerance {
                violations.push(format!("{label}: {name} drifted {b} -> {c}"));
            }
        }
        // Per-tenant accounting must match exactly too: total drops can
        // stay flat while classes trade places.
        if base.metrics.tenants.len() != cand.metrics.tenants.len() {
            violations.push(format!(
                "{label}: tenant class count drifted {} -> {}",
                base.metrics.tenants.len(),
                cand.metrics.tenants.len()
            ));
        } else {
            for (bt, ct) in base.metrics.tenants.iter().zip(&cand.metrics.tenants) {
                if rel_diff(bt.slo_s, ct.slo_s) > config.correctness_tolerance {
                    violations.push(format!(
                        "{label}: tenant class slo drifted {} -> {}",
                        bt.slo_s, ct.slo_s
                    ));
                    continue;
                }
                for (name, b, c) in [
                    ("patches", bt.patches, ct.patches),
                    ("violations", bt.violations, ct.violations),
                    ("dropped", bt.dropped, ct.dropped),
                    ("admitted", bt.admitted, ct.admitted),
                    ("peak_queued", bt.peak_queued, ct.peak_queued),
                ] {
                    if b != c {
                        violations.push(format!(
                            "{label}: tenant slo={} {name} drifted {b} -> {c}",
                            bt.slo_s
                        ));
                    }
                }
            }
        }
        let b_tp = base.metrics.throughput_pps;
        let c_tp = cand.metrics.throughput_pps;
        if b_tp > 0.0 && c_tp < b_tp * (1.0 - config.max_perf_regression) {
            violations.push(format!(
                "{label}: throughput_pps regressed {:.1}% ({b_tp:.2} -> {c_tp:.2})",
                (1.0 - c_tp / b_tp) * 100.0
            ));
        }
        let b_p99 = base.metrics.p99_latency_s;
        let c_p99 = cand.metrics.p99_latency_s;
        if b_p99 > 0.0 && c_p99 > b_p99 * (1.0 + config.max_perf_regression) {
            violations.push(format!(
                "{label}: p99_latency_s regressed {:.1}% ({b_p99:.4} -> {c_p99:.4})",
                (c_p99 / b_p99 - 1.0) * 100.0
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TraceKind;
    use tangram_core::engine::PolicyKind;
    use tangram_types::ids::SceneId;

    fn sample_summary(policy: &str) -> RunSummary {
        RunSummary {
            policy: policy.to_string(),
            frames: 12,
            patches: 100,
            batches: 10,
            violations: 2,
            dropped_arrivals: 3,
            tenants: vec![TenantSummary {
                slo_s: 1.0,
                patches: 100,
                violations: 2,
                dropped: 3,
                admitted: 0,
                peak_queued: 0,
            }],
            slo_attainment: 0.98,
            mean_latency_s: 0.4,
            p50_latency_s: 0.35,
            p99_latency_s: 0.9,
            cost_usd: 0.0123,
            uplink_bytes: 1 << 33,
            invocations: 10,
            cold_starts: 1,
            mean_canvas_efficiency: 0.71,
            mean_patches_per_batch: 10.0,
            execution_total_s: 1.5,
            transmission_total_s: 3.25,
            makespan_s: 14.5,
            throughput_pps: 100.0 / 14.5,
        }
    }

    fn sample_report() -> BenchReport {
        let mut grid = SweepGrid::named("smoke");
        grid.policies = vec![PolicyKind::Tangram, PolicyKind::Elf];
        grid.seeds = vec![42];
        grid.slos_s = vec![1.0];
        grid.bandwidths_mbps = vec![20.0, 40.0];
        grid.workloads = vec![WorkloadSpec::single(SceneId::new(1), 12, TraceKind::Proxy)];
        grid.mark_timeouts_s = vec![(20.0, 0.55)];
        grid.max_instances = Some(Some(4));
        BenchReport {
            name: "smoke".to_string(),
            grid,
            cells: vec![CellReport {
                index: 0,
                seed: 42,
                slo_s: 1.0,
                bandwidth_mbps: 20.0,
                sigma_multiplier: 3.0,
                workload: 0,
                scenario: None,
                admission: None,
                fairness: None,
                metrics: sample_summary("Tangram"),
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless_and_stable() {
        let report = sample_report();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        // The grid echo drops its redundant name; everything else must
        // survive exactly.
        assert_eq!(back.cells, report.cells);
        assert_eq!(back.grid.policies, report.grid.policies);
        assert_eq!(back.grid.workloads, report.grid.workloads);
        assert_eq!(back.grid.mark_timeouts_s, report.grid.mark_timeouts_s);
        assert_eq!(back.grid.max_instances, report.grid.max_instances);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");
    }

    #[test]
    fn scenario_free_reports_emit_no_scenario_key() {
        // Pre-streaming baselines must stay byte-identical: the scenario
        // and admission fields only appear when configured.
        let text = sample_report().to_json();
        assert!(!text.contains("scenario"));
        assert!(!text.contains("admission"));
        assert!(!text.contains("fairness"));
    }

    #[test]
    fn fairness_grids_round_trip() {
        let mut report = sample_report();
        report.grid.fairness = vec![FairnessSpec {
            weights: vec![3.0, 1.0],
            queue_capacity: 16,
            tick_s: 0.02,
            quantum: 1.5,
            admission_aware: true,
        }];
        report.cells[0].fairness = Some("drr".to_string());
        report.cells[0].metrics.tenants[0].peak_queued = 16;
        let text = report.to_json();
        assert!(text.contains("\"fairness\""));
        assert!(text.contains("\"admission_aware\": true"));
        assert!(text.contains("\"peak_queued\": 16"));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.grid.fairness, report.grid.fairness);
        assert_eq!(back.cells, report.cells);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");
    }

    #[test]
    fn gate_catches_queue_peak_drift() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.tenants[0].peak_queued = 7;
        let violations = gate(&baseline, &candidate, &GateConfig::default());
        assert!(
            violations.iter().any(|v| v.contains("peak_queued")),
            "{violations:?}"
        );
    }

    #[test]
    fn scenario_grids_round_trip() {
        for arrival in [
            ArrivalSpec::Poisson { fps: 6.0 },
            ArrivalSpec::Bursty {
                calm_fps: 2.0,
                burst_fps: 18.0,
                mean_calm_s: 3.0,
                mean_burst_s: 0.5,
            },
            ArrivalSpec::Diurnal {
                min_fps: 1.0,
                max_fps: 10.0,
                period_s: 60.0,
            },
        ] {
            let mut report = sample_report();
            report.grid.scenarios = vec![ScenarioSpec {
                arrival,
                frames_per_camera: 40,
                join_stagger_s: 2.0,
                session_s: if matches!(arrival, ArrivalSpec::Poisson { .. }) {
                    Some(12.0)
                } else {
                    None
                },
                tenant_slos_s: vec![0.8, 1.5],
                faults: Vec::new(),
            }];
            let text = report.to_json();
            // One scenario keeps the legacy singular form.
            assert!(text.contains("\"scenario\""));
            assert!(!text.contains("\"scenarios\""));
            let back = BenchReport::from_json(&text).unwrap();
            assert_eq!(back.grid.scenarios, report.grid.scenarios);
            assert_eq!(back.to_json(), text, "render(parse(x)) == x");
        }
    }

    #[test]
    fn faulted_scenarios_round_trip_and_fault_free_ones_omit_the_key() {
        let mut report = sample_report();
        report.grid.scenarios = vec![ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps: 6.0 },
            frames_per_camera: 40,
            join_stagger_s: 0.0,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: vec![
                FaultSpec {
                    kind: FaultKind::LinkOutage,
                    at_s: 2.0,
                    duration_s: 1.5,
                },
                FaultSpec {
                    kind: FaultKind::LatencyTail { factor: 3.0 },
                    at_s: 1.0,
                    duration_s: 4.0,
                },
                FaultSpec {
                    kind: FaultKind::ColdStartStorm,
                    at_s: 0.5,
                    duration_s: 2.0,
                },
                FaultSpec {
                    kind: FaultKind::CameraFlap {
                        mean_up_s: 3.0,
                        mean_down_s: 0.5,
                    },
                    at_s: 0.0,
                    duration_s: 10.0,
                },
                FaultSpec {
                    kind: FaultKind::Brownout { factor: 2.0 },
                    at_s: 4.0,
                    duration_s: 3.0,
                },
            ],
        }];
        let text = report.to_json();
        assert!(text.contains("\"faults\""));
        assert!(text.contains("\"link_outage\""));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.grid.scenarios, report.grid.scenarios);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");

        // Fault-free scenarios keep their legacy bytes.
        report.grid.scenarios[0].faults.clear();
        assert!(!report.to_json().contains("\"faults\""));
    }

    #[test]
    fn multi_scenario_and_admission_grids_round_trip() {
        let scenario = |fps: f64| ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps },
            frames_per_camera: 30,
            join_stagger_s: 0.0,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: Vec::new(),
        };
        let mut report = sample_report();
        report.grid.scenarios = vec![scenario(4.0), scenario(16.0)];
        report.grid.admission = vec![
            AdmissionSpec::Always,
            AdmissionSpec::QueueDepth { max_queued: 64 },
            AdmissionSpec::SloShedder {
                per_item_s: 0.04,
                pressure: 0.5,
            },
        ];
        report.cells[0].scenario = Some(1);
        report.cells[0].admission = Some("slo-shedder".to_string());
        let text = report.to_json();
        assert!(text.contains("\"scenarios\""));
        // The grid-level singular object form is reserved for
        // single-scenario grids; here `"scenario"` appears only as the
        // cell's index.
        assert!(!text.contains("\"scenario\": {"));
        assert!(text.contains("\"scenario\": 1"));
        assert!(text.contains("\"admission\""));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.grid.scenarios, report.grid.scenarios);
        assert_eq!(back.grid.admission, report.grid.admission);
        assert_eq!(back.cells, report.cells);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");
    }

    #[test]
    fn schema_version_is_enforced() {
        let text = sample_report()
            .to_json()
            .replace("\"schema_version\": 4", "\"schema_version\": 999");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn gate_catches_drop_count_drift() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.dropped_arrivals += 1;
        let violations = gate(&baseline, &candidate, &GateConfig::default());
        assert!(
            violations.iter().any(|v| v.contains("dropped_arrivals")),
            "{violations:?}"
        );

        // Per-class drift is caught even when the totals stay flat.
        let mut reshuffled = baseline.clone();
        reshuffled.cells[0].metrics.tenants[0].dropped += 2;
        let violations = gate(&baseline, &reshuffled, &GateConfig::default());
        assert!(
            violations.iter().any(|v| v.contains("tenant slo=1")),
            "{violations:?}"
        );
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let report = sample_report();
        assert!(gate(&report, &report, &GateConfig::default()).is_empty());
    }

    #[test]
    fn gate_catches_correctness_drift() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.cost_usd *= 1.001;
        let violations = gate(&baseline, &candidate, &GateConfig::default());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cost_usd"), "{violations:?}");
    }

    #[test]
    fn gate_catches_throughput_regression_but_allows_speedup() {
        let baseline = sample_report();
        let mut slower = baseline.clone();
        slower.cells[0].metrics.throughput_pps *= 0.7;
        let violations = gate(&baseline, &slower, &GateConfig::default());
        assert!(
            violations.iter().any(|v| v.contains("throughput_pps")),
            "{violations:?}"
        );

        let mut faster = baseline.clone();
        faster.cells[0].metrics.throughput_pps *= 1.5;
        assert!(gate(&baseline, &faster, &GateConfig::default())
            .iter()
            .all(|v| !v.contains("throughput_pps")));
    }

    #[test]
    fn gate_tolerates_small_perf_wobble() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.throughput_pps *= 0.9; // within 20%
        candidate.cells[0].metrics.p99_latency_s *= 1.1; // within 20%
        assert!(gate(&baseline, &candidate, &GateConfig::default()).is_empty());
    }

    #[test]
    fn gate_flags_grid_shape_change() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells.clear();
        let violations = gate(&baseline, &candidate, &GateConfig::default());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cell count"), "{violations:?}");
    }
}
