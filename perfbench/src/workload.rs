//! The benchmark's workloads: scenario TOML files in `workloads/`,
//! parsed by the program's own [`ScenarioFile`] loader.
//!
//! A workload file fixes the fleet, the uplink, the backend cap, the
//! ingress stages and the camera content (its `seed` key builds the
//! content pools, the fixed "video" every run streams). The benchmark's
//! `--seed` draws everything else: each run derives [`SUB_SEEDS`] engine
//! seeds from it, and each engine seed drives the cameras' Poisson
//! arrivals, the latency estimator's profile and the platform's
//! cold-start and execution draws.

use std::path::{Path, PathBuf};
use tangram_core::engine::EngineConfig;
use tangram_core::workload::CameraTrace;
use tangram_harness::scenario_file::ScenarioFile;
use tangram_sim::rng::DetRng;
use tangram_stitch::solver::split_to_fit;
use tangram_types::geometry::Size;
use tangram_types::patch::PatchInfo;

/// Engine seeds one run cycles through. Simulated metrics pool all of
/// them, which keeps their seed-to-seed spread small.
pub const SUB_SEEDS: usize = 8;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// The name on the command line and the file stem in `workloads/`.
    pub name: &'static str,
    /// Whether the engine records the runtime trace (a trace-capture run).
    pub trace_sink: bool,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "steady_mix",
        trace_sink: false,
    },
    WorkloadDef {
        name: "uplink_saturated",
        trace_sink: false,
    },
    WorkloadDef {
        name: "capped_shed",
        trace_sink: true,
    },
];

/// The directory holding the workload files.
#[must_use]
pub fn workload_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads")
}

/// Looks a workload up by name.
///
/// # Errors
///
/// Names the known workloads when `name` is not one of them.
pub fn find(name: &str) -> Result<WorkloadDef, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
}

/// Loads and validates a workload file; errors read `path:line: message`.
///
/// # Errors
///
/// Returns the loader's error, or a message when the file uses a feature
/// the benchmark's checks cannot account for (faults, camera sessions).
pub fn load(def: WorkloadDef) -> Result<ScenarioFile, String> {
    let path = workload_dir().join(format!("{}.toml", def.name));
    let file = ScenarioFile::load(&path)?;
    if file.name != def.name {
        return Err(format!(
            "{}: name `{}` does not match the file name",
            path.display(),
            file.name
        ));
    }
    if !file.scenario.faults.is_empty() || file.scenario.session_s.is_some() {
        return Err(format!(
            "{}: benchmark workloads run every camera to its frame budget (no faults, no sessions)",
            path.display()
        ));
    }
    Ok(file)
}

/// The engine seeds one run with benchmark seed `seed` cycles through.
#[must_use]
pub fn sub_seeds(seed: u64) -> Vec<u64> {
    let root = DetRng::new(seed);
    (0..SUB_SEEDS as u64)
        .map(|k| root.derive_seed("perfbench-run", k))
        .collect()
}

/// The engine configuration of `file` under engine seed `seed`.
#[must_use]
pub fn engine_config(file: &ScenarioFile, seed: u64) -> EngineConfig {
    let mut config = file.engine_config();
    config.seed = seed;
    config
}

/// The tiles the scheduler queues for `patch`: the patch itself when it
/// fits the canvas, else its canvas-sized pieces sharing its deadline.
#[must_use]
pub fn tiles(patch: PatchInfo, canvas: Size) -> Vec<PatchInfo> {
    if canvas.fits(patch.rect.size()) {
        vec![patch]
    } else {
        split_to_fit(patch.rect, canvas)
            .into_iter()
            .map(|rect| PatchInfo { rect, ..patch })
            .collect()
    }
}

/// What the cameras offer in one run, computed from the content pools
/// alone (independently of the engine): the expectation the
/// conservation check holds each run's report to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offered {
    /// Frames the fleet captures.
    pub frames: u64,
    /// Patches (arrivals at the cloud) the fleet offers.
    pub arrivals: u64,
    /// Per camera, the tile count of each generated patch, indexed by
    /// the generator's per-camera patch counter.
    tiles: Vec<Vec<u32>>,
}

/// Bit 38 marks generator-stamped patch ids (see `GeneratedSource`).
const GENERATED_BIT: u64 = 1 << 38;

impl Offered {
    /// Replays the generators' id stamping over the content pools: each
    /// camera emits `frames_per_camera` frames cycling its pool.
    #[must_use]
    pub fn of(file: &ScenarioFile, traces: &[CameraTrace], canvas: Size) -> Self {
        let budget = file.scenario.frames_per_camera;
        let mut per_camera = Vec::with_capacity(traces.len());
        let mut arrivals = 0u64;
        for trace in traces {
            let mut cam_tiles = Vec::new();
            for k in 0..budget {
                for patch in &trace.frames[k % trace.frames.len()].patches {
                    let count = tiles(patch.info, canvas).len();
                    cam_tiles.push(u32::try_from(count).expect("tile count fits u32"));
                }
            }
            arrivals += cam_tiles.len() as u64;
            per_camera.push(cam_tiles);
        }
        Self {
            frames: (budget * traces.len()) as u64,
            arrivals,
            tiles: per_camera,
        }
    }

    /// The tile count of the generated patch `id`, or `None` for an id no
    /// camera generates.
    #[must_use]
    pub fn tiles_of(&self, id: u64) -> Option<u32> {
        if id & GENERATED_BIT == 0 {
            return None;
        }
        let cam = usize::try_from(id >> 40).ok()?;
        let counter = usize::try_from(id & (GENERATED_BIT - 1)).ok()?;
        self.tiles.get(cam)?.get(counter).copied()
    }
}
