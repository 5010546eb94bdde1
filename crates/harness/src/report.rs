//! Versioned, machine-readable bench reports: the only writer, reader
//! and gate of every `BENCH_*.json`.
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
//!
//! A [`CountsReport`] is the envelope of the benches that are not grids
//! (`bench_throughput`, `bench_scenarios`): deterministic `counts`, gated
//! leaf by leaf by [`counts_gate`], beside wall-clock `timings` that no
//! gate reads. `bench_gate` tells the two kinds apart by their `cells`
//! or `counts` key.

use crate::grid::{
    policy_from_name, AdmissionSpec, ArrivalSpec, FairnessSpec, ScenarioSpec, SweepGrid, TraceKind,
    WorkloadSpec,
};
use crate::json::Json;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tangram_core::faults::{FaultKind, FaultSpec};
use tangram_core::report::{RunSummary, TenantSummary};

/// Version stamped into every `BENCH_*.json`; bump on any field change.
/// v2 added drop accounting (`dropped_arrivals`, `tenants`) to the
/// per-cell metrics and the scenario/admission sweep axes to the grid.
/// v3 added per-class fair-ingress queue accounting (`peak_queued` on
/// every tenant row) and the weighted-DRR `fairness` sweep axis.
/// v4 added declarative fault injection (`faults` on every scenario,
/// emitted only when non-empty) and made weighted-DRR work-conserving,
/// which moves fairness-axis metrics. v4 also stamps the counts reports
/// ([`CountsReport`]).
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
        let cells = Json::Array(self.cells.iter().map(cell_to_value).collect());
        envelope(
            &self.name,
            vec![("grid", grid_to_value(&self.grid)), ("cells", cells)],
        )
    }

    /// Parses a report back, validating the schema version.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a missing/unknown field, or a
    /// schema-version mismatch.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let (value, name) = open_envelope(text)?;
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

    /// Writes `BENCH_<name>.json` under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        write_file(dir, &self.file_name(), &self.to_json())
    }
}

/// The report of a bench that is not a grid (`bench_throughput`,
/// `bench_scenarios`): deterministic `counts`, gated by [`counts_gate`],
/// beside wall-clock `timings` that no gate reads.
#[derive(Debug, Clone, PartialEq)]
pub struct CountsReport {
    /// Bench name (`BENCH_<name>.json`).
    pub name: String,
    /// Deterministic results; an object.
    pub counts: Json,
    /// Machine-dependent measurements, recorded for humans.
    pub timings: Json,
}

impl CountsReport {
    /// The canonical file name for this report.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serialises like [`BenchReport::to_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let body = vec![
            ("counts", self.counts.clone()),
            ("timings", self.timings.clone()),
        ];
        envelope(&self.name, body)
    }

    /// Parses a report back, validating the schema version.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a schema-version mismatch, or
    /// a missing name, `counts` object or `timings`.
    pub fn from_json(text: &str) -> Result<CountsReport, String> {
        let (value, name) = open_envelope(text)?;
        let counts = value.get("counts").filter(|c| matches!(c, Json::Object(_)));
        Ok(CountsReport {
            name,
            counts: counts.ok_or("missing counts object")?.clone(),
            timings: value.get("timings").ok_or("missing timings")?.clone(),
        })
    }

    /// Writes `BENCH_<name>.json` under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        write_file(dir, &self.file_name(), &self.to_json())
    }
}

/// Renders a BENCH document: the schema version and name every file
/// starts with, then `body`, then a trailing newline.
fn envelope(name: &str, body: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("name", Json::Str(name.to_string())),
    ];
    pairs.extend(body);
    Json::object(pairs).render() + "\n"
}

/// Parses a BENCH document, checks its schema version and returns it
/// with its `name`.
fn open_envelope(text: &str) -> Result<(Json, String), String> {
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
        .ok_or("missing name")?;
    let name = name.to_string();
    Ok((value, name))
}

fn write_file(dir: &Path, file_name: &str, text: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, text)?;
    Ok(path)
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

/// Maximum tolerated relative drop in per-cell `throughput_pps` (and
/// rise in `p99_latency_s`) before [`gate`] fails.
const MAX_PERF_REGRESSION: f64 = 0.20;

/// Relative tolerance on correctness metrics (patches, violations, cost,
/// bytes, SLO attainment); anything beyond it is drift.
const CORRECTNESS_TOLERANCE: f64 = 1e-9;

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
/// 20% headroom, and only regressions fail: faster is always fine.
#[must_use]
pub fn gate(baseline: &BenchReport, candidate: &BenchReport) -> Vec<String> {
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
            if rel_diff(b, c) > CORRECTNESS_TOLERANCE {
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
                if rel_diff(bt.slo_s, ct.slo_s) > CORRECTNESS_TOLERANCE {
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
        if b_tp > 0.0 && c_tp < b_tp * (1.0 - MAX_PERF_REGRESSION) {
            violations.push(format!(
                "{label}: throughput_pps regressed {:.1}% ({b_tp:.2} -> {c_tp:.2})",
                (1.0 - c_tp / b_tp) * 100.0
            ));
        }
        let b_p99 = base.metrics.p99_latency_s;
        let c_p99 = cand.metrics.p99_latency_s;
        if b_p99 > 0.0 && c_p99 > b_p99 * (1.0 + MAX_PERF_REGRESSION) {
            violations.push(format!(
                "{label}: p99_latency_s regressed {:.1}% ({b_p99:.4} -> {c_p99:.4})",
                (c_p99 / b_p99 - 1.0) * 100.0
            ));
        }
    }
    violations
}

/// Compares a candidate counts report against a checked-in baseline,
/// returning one message per differing `counts` leaf, named by its path
/// (`counts.scenarios[2].events: 937 -> 940`). Counts are deterministic,
/// so any difference is drift. `timings` are never read.
#[must_use]
pub fn counts_gate(baseline: &CountsReport, candidate: &CountsReport) -> Vec<String> {
    let mut violations = Vec::new();
    diff_leaves(
        "counts",
        &baseline.counts,
        &candidate.counts,
        &mut violations,
    );
    violations
}

fn diff_leaves(path: &str, base: &Json, cand: &Json, out: &mut Vec<String>) {
    match (base, cand) {
        (Json::Object(b), Json::Object(c)) => {
            for (key, bv) in b {
                match cand.get(key) {
                    Some(cv) => diff_leaves(&format!("{path}.{key}"), bv, cv, out),
                    None => out.push(format!("{path}.{key}: missing from the candidate")),
                }
            }
            for (key, _) in c.iter().filter(|(key, _)| base.get(key).is_none()) {
                out.push(format!("{path}.{key}: not in the baseline"));
            }
        }
        (Json::Array(b), Json::Array(c)) => {
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                diff_leaves(&format!("{path}[{i}]"), bv, cv, out);
            }
            if b.len() != c.len() {
                out.push(format!("{path}: length {} -> {}", b.len(), c.len()));
            }
        }
        _ if base != cand => out.push(format!("{path}: {} -> {}", leaf(base), leaf(cand))),
        _ => {}
    }
}

/// A leaf on one line: scalars as JSON, containers by kind.
fn leaf(value: &Json) -> String {
    match value {
        Json::Array(_) => "an array".to_string(),
        Json::Object(_) => "an object".to_string(),
        scalar => scalar.render(),
    }
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
        let violations = gate(&baseline, &candidate);
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
        let violations = gate(&baseline, &candidate);
        assert!(
            violations.iter().any(|v| v.contains("dropped_arrivals")),
            "{violations:?}"
        );

        // Per-class drift is caught even when the totals stay flat.
        let mut reshuffled = baseline.clone();
        reshuffled.cells[0].metrics.tenants[0].dropped += 2;
        let violations = gate(&baseline, &reshuffled);
        assert!(
            violations.iter().any(|v| v.contains("tenant slo=1")),
            "{violations:?}"
        );
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let report = sample_report();
        assert!(gate(&report, &report).is_empty());
    }

    #[test]
    fn gate_catches_correctness_drift() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.cost_usd *= 1.001;
        let violations = gate(&baseline, &candidate);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cost_usd"), "{violations:?}");
    }

    #[test]
    fn gate_catches_throughput_regression_but_allows_speedup() {
        let baseline = sample_report();
        let mut slower = baseline.clone();
        slower.cells[0].metrics.throughput_pps *= 0.7;
        let violations = gate(&baseline, &slower);
        assert!(
            violations.iter().any(|v| v.contains("throughput_pps")),
            "{violations:?}"
        );

        let mut faster = baseline.clone();
        faster.cells[0].metrics.throughput_pps *= 1.5;
        assert!(gate(&baseline, &faster)
            .iter()
            .all(|v| !v.contains("throughput_pps")));
    }

    #[test]
    fn gate_tolerates_small_perf_wobble() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.throughput_pps *= 0.9; // within 20%
        candidate.cells[0].metrics.p99_latency_s *= 1.1; // within 20%
        assert!(gate(&baseline, &candidate).is_empty());
    }

    #[test]
    fn gate_flags_grid_shape_change() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells.clear();
        let violations = gate(&baseline, &candidate);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cell count"), "{violations:?}");
    }

    /// A scenarios-shaped counts report whose third row has `events` events.
    fn sample_counts(events: u64) -> CountsReport {
        let scenario = |name: &str, events: u64| {
            Json::object(vec![
                ("name", Json::Str(name.to_string())),
                ("events", Json::U64(events)),
                ("makespan_s", Json::F64(11.591954)),
            ])
        };
        CountsReport {
            name: "scenarios".to_string(),
            counts: Json::object(vec![(
                "scenarios",
                Json::Array(vec![
                    scenario("a", 100),
                    scenario("b", 200),
                    scenario("c", events),
                ]),
            )]),
            timings: Json::object(vec![("wall_ms", Json::F64(3.5))]),
        }
    }

    #[test]
    fn counts_report_round_trips_in_the_shared_envelope() {
        let report = sample_counts(937);
        let text = report.to_json();
        assert!(text.starts_with("{\n  \"schema_version\": 4,\n  \"name\": \"scenarios\",\n"));
        assert!(text.ends_with("}\n"));
        let back = CountsReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");
        assert_eq!(report.file_name(), "BENCH_scenarios.json");
    }

    #[test]
    fn counts_gate_passes_on_identical_reports() {
        let report = sample_counts(937);
        assert!(counts_gate(&report, &report.clone()).is_empty());
    }

    #[test]
    fn counts_gate_names_the_changed_leaf() {
        let baseline = sample_counts(937);
        let candidate = sample_counts(940);
        assert_eq!(
            counts_gate(&baseline, &candidate),
            vec!["counts.scenarios[2].events: 937 -> 940".to_string()]
        );
    }

    #[test]
    fn counts_gate_reports_shape_changes() {
        let baseline = sample_counts(937);
        let mut candidate = baseline.clone();
        candidate.counts = Json::object(vec![
            ("scenarios", Json::Array(Vec::new())),
            ("extra", Json::U64(1)),
        ]);
        assert_eq!(
            counts_gate(&baseline, &candidate),
            vec![
                "counts.scenarios: length 3 -> 0".to_string(),
                "counts.extra: not in the baseline".to_string(),
            ]
        );
        assert_eq!(
            counts_gate(&candidate, &baseline),
            vec![
                "counts.scenarios: length 0 -> 3".to_string(),
                "counts.extra: missing from the candidate".to_string(),
            ]
        );
        candidate.counts = Json::object(vec![("scenarios", Json::U64(3))]);
        assert_eq!(
            counts_gate(&baseline, &candidate),
            vec!["counts.scenarios: an array -> 3".to_string()]
        );
    }

    #[test]
    fn counts_gate_never_reads_timings() {
        let baseline = sample_counts(937);
        let mut candidate = baseline.clone();
        candidate.timings = Json::Array(vec![Json::F64(9e9)]);
        assert!(counts_gate(&baseline, &candidate).is_empty());
    }

    #[test]
    fn counts_report_rejects_a_wrong_schema_or_missing_counts() {
        let text = sample_counts(937).to_json();
        let err = CountsReport::from_json(
            &text.replace("\"schema_version\": 4", "\"schema_version\": 2"),
        )
        .unwrap_err();
        assert!(err.contains("schema_version 2 unsupported"), "{err}");

        let err = CountsReport::from_json(&text.replace("\"counts\"", "\"tallies\"")).unwrap_err();
        assert!(err.contains("missing counts"), "{err}");

        let mut scalar = sample_counts(937);
        scalar.counts = Json::U64(1);
        let err = CountsReport::from_json(&scalar.to_json()).unwrap_err();
        assert!(err.contains("missing counts"), "{err}");
    }
}
