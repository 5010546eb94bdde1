//! The event-driven streaming engine.
//!
//! [`crate::engine::EngineConfig::run`] replays pre-materialised traces —
//! a closed world. Real deployments are open: patches arrive continuously
//! from many cameras, cameras join and leave mid-run, tenants carry
//! different SLOs, and the operator may shed load at the ingress. This
//! module is that open world, built on the same deterministic substrate:
//!
//! * [`StreamEvent`] — the event alphabet of the runtime: camera churn
//!   ([`StreamEvent::CameraJoin`] / [`StreamEvent::CameraLeave`]),
//!   captures, patch arrivals at the cloud, policy wake-ups
//!   ([`StreamEvent::InvokeTimer`]) and serverless completions
//!   ([`StreamEvent::FunctionComplete`]), all driven by a
//!   [`tangram_sim::driver::EventLoop`];
//! * [`CameraSource`] — cameras are *generators*, not trace slices:
//!   [`TraceReplaySource`] reproduces the legacy closed-loop replay
//!   byte-for-byte, while [`GeneratedSource`] emits frames under a
//!   seeded [`ArrivalProcess`] (Poisson, Markov-modulated bursts, or a
//!   diurnal rate curve) with a per-tenant SLO class;
//! * [`OnlineEngine`] — the loop itself: captures feed the shared uplink,
//!   arrivals pass the optional [`crate::admission::AdmissionPolicy`]
//!   (drops are counted per tenant class) before reaching the batching
//!   policy, dispatches are [`ServerlessPlatform::submit`]ted and their
//!   completions delivered back as events.
//!
//! The legacy batch entry point is a thin wrapper: it adds one
//! [`TraceReplaySource`] per trace and runs the same loop, so the 424
//! pre-existing tests and every figure baseline hold bit-for-bit.

use crate::admission::{AdmissionPolicy, AdmissionSignals, ClosureAdmission};
use crate::engine::EngineConfig;
use crate::fairness::DrrIngress;
use crate::faults::{FaultKind, FaultPlane, FaultSpec};
use crate::policy::{Arrival, BatchSpec, BatchingPolicy, CompletionFeedback, FrameArrival};
use crate::report::{BatchRecord, PatchRecord, RunReport};
use crate::workload::{CameraTrace, TraceFrame};
use tangram_net::{Link, LinkConfig};
use tangram_serverless::platform::{InvocationRequest, ServerlessPlatform};
use tangram_sim::driver::EventLoop;
use tangram_sim::rng::DetRng;
use tangram_trace::{TraceEvent, TraceLog, TraceSink};
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{CameraId, InvocationId, PatchId};
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::Bytes;

/// The event alphabet of the streaming runtime.
#[derive(Debug)]
pub enum StreamEvent {
    /// Camera `cam` comes online and captures its first frame.
    CameraJoin {
        /// Index into the engine's camera table.
        cam: usize,
    },
    /// Camera `cam` goes offline; pending captures are cancelled.
    CameraLeave {
        /// Index into the engine's camera table.
        cam: usize,
    },
    /// Camera `cam` captures its next frame.
    Capture {
        /// Index into the engine's camera table.
        cam: usize,
    },
    /// A work item reached the cloud scheduler.
    PatchArrival {
        /// The delivered patch or frame.
        arrival: Arrival,
    },
    /// A policy wake-up (the scheduler's armed `t_remain`).
    InvokeTimer,
    /// A fair-ingress dequeue tick: the engine's
    /// [`crate::fairness::DrrIngress`] runs one weighted service round
    /// and releases the earned items to the batching policy. Re-armed
    /// every [`crate::fairness::DrrConfig::tick`] while the ingress holds
    /// work.
    DrrTick,
    /// A previously submitted serverless invocation finished.
    FunctionComplete {
        /// The platform's invocation id, acknowledged on delivery.
        id: InvocationId,
        /// Feedback handed to the policy.
        feedback: CompletionFeedback,
    },
    /// A [`crate::faults::FaultSpec`] window opened: the engine applies
    /// the fault's start-edge actuation (link outage, warm-instance
    /// eviction) and records the window in the trace. Window-duration
    /// behaviour (brownout multipliers, latency tails, mute windows) is
    /// evaluated statically at the actuation points, so no end event —
    /// which could stretch the makespan past the last real work — is
    /// needed.
    FaultStart {
        /// Index into the engine's installed fault table.
        fault: usize,
    },
}

// Admission control grew into its own subsystem (`crate::admission`);
// the original names stay importable from here.
pub use crate::admission::{Admission, AdmissionFn};

/// A per-tenant service class: the SLO stamped on every patch the
/// tenant's cameras produce.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Display name ("gold", "best-effort", …).
    pub name: String,
    /// The tenant's end-to-end deadline.
    pub slo: SimDuration,
}

impl TenantClass {
    /// A tenant class with the given name and SLO.
    #[must_use]
    pub fn new(name: &str, slo: SimDuration) -> Self {
        Self {
            name: name.to_string(),
            slo,
        }
    }
}

/// A camera as the engine sees it: a generator of edge output.
pub trait CameraSource {
    /// The camera's identity (stamped on its patches).
    fn camera(&self) -> CameraId;

    /// The next frame of edge output, or `None` when the stream ends.
    fn next_frame(&mut self) -> Option<TraceFrame>;

    /// Whether the stream has no further frames (consulted after
    /// [`CameraSource::next_frame`] to decide if another capture is
    /// scheduled).
    fn is_exhausted(&self) -> bool;

    /// When the camera captures again after a frame taken at `now`.
    ///
    /// `frame_interval` is the engine-configured capture period and
    /// `uplink_free` the instant the shared uplink drains this frame's
    /// upload — closed-loop sources wait for both, open-loop sources
    /// ignore the link.
    fn next_capture(
        &mut self,
        now: SimTime,
        frame_interval: SimDuration,
        uplink_free: SimTime,
    ) -> SimTime;

    /// Per-tenant SLO override (`None` → the engine default).
    fn slo(&self) -> Option<SimDuration> {
        None
    }

    /// Whether [`CameraSource::next_capture`] ignores its `uplink_free`
    /// argument (and every other piece of shared engine state).
    ///
    /// A link-independent source's capture timeline is a pure function
    /// of its own state and RNG. Closed-loop sources (which pace on the
    /// shared uplink) must return `false` — the default. The engine does
    /// not consult this; it describes the source to callers that wrap
    /// or inspect it.
    fn link_independent(&self) -> bool {
        false
    }
}

/// Replays a pre-built [`CameraTrace`] with the legacy closed-loop
/// pacing: the next capture waits for both the frame interval and the
/// shared uplink ("bandwidth simulates the arrival speed of patches").
#[derive(Debug, Clone)]
pub struct TraceReplaySource {
    trace: CameraTrace,
    cursor: usize,
}

impl TraceReplaySource {
    /// Wraps a trace for replay.
    #[must_use]
    pub fn new(trace: CameraTrace) -> Self {
        Self { trace, cursor: 0 }
    }
}

impl CameraSource for TraceReplaySource {
    fn camera(&self) -> CameraId {
        self.trace.camera
    }

    fn next_frame(&mut self) -> Option<TraceFrame> {
        let frame = self.trace.frames.get(self.cursor).cloned()?;
        self.cursor += 1;
        Some(frame)
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.trace.frames.len()
    }

    fn next_capture(
        &mut self,
        now: SimTime,
        frame_interval: SimDuration,
        uplink_free: SimTime,
    ) -> SimTime {
        (now + frame_interval).max(uplink_free)
    }
}

/// How a generated camera paces its captures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Fixed-rate capture gated on the uplink — the trace-replay pacing.
    ClosedLoop,
    /// Open-loop Poisson arrivals at mean `fps` frames per second.
    Poisson {
        /// Mean frame rate.
        fps: f64,
    },
    /// Markov-modulated on/off process: exponential dwell times in a calm
    /// and a burst state, each with its own Poisson rate.
    Bursty {
        /// Frame rate in the calm state.
        calm_fps: f64,
        /// Frame rate in the burst state.
        burst_fps: f64,
        /// Mean dwell time in the calm state, seconds.
        mean_calm_s: f64,
        /// Mean dwell time in the burst state, seconds.
        mean_burst_s: f64,
    },
    /// Sinusoidal day/night rate curve: the instantaneous Poisson rate
    /// swings between `min_fps` and `max_fps` over `period_s`.
    Diurnal {
        /// Trough frame rate.
        min_fps: f64,
        /// Peak frame rate.
        max_fps: f64,
        /// Full day length, seconds.
        period_s: f64,
    },
}

/// Floor applied to sampled rates so the exponential draw stays defined.
const MIN_RATE: f64 = 1e-6;

/// A generated camera: cycles the frames of a pre-built content pool
/// under a seeded [`ArrivalProcess`], re-stamping frame and patch ids so
/// cycled content stays unique. The generator is exhausted after
/// `budget` frames (churny runs usually cut it short with a
/// [`StreamEvent::CameraLeave`] instead).
#[derive(Debug, Clone)]
pub struct GeneratedSource {
    camera: CameraId,
    pool: Vec<TraceFrame>,
    emitted: usize,
    budget: usize,
    process: ArrivalProcess,
    rng: DetRng,
    slo: Option<SimDuration>,
    in_burst: bool,
    state_until: SimTime,
    next_patch: u64,
}

impl GeneratedSource {
    /// Builds a generator over `trace`'s frames.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no frames.
    #[must_use]
    pub fn new(trace: &CameraTrace, budget: usize, process: ArrivalProcess, rng: DetRng) -> Self {
        assert!(
            !trace.frames.is_empty(),
            "generated source needs a non-empty content pool"
        );
        Self {
            camera: trace.camera,
            pool: trace.frames.clone(),
            emitted: 0,
            budget,
            process,
            rng,
            slo: None,
            // Start in the "burst" state with an expired dwell so the
            // first capture flips to calm and samples a fresh dwell time.
            in_burst: true,
            state_until: SimTime::ZERO,
            next_patch: 0,
        }
    }

    /// Stamps this camera's patches with a tenant SLO class.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &TenantClass) -> Self {
        self.slo = Some(tenant.slo);
        self
    }

    fn gap(&mut self, rate: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exponential(rate.max(MIN_RATE)))
    }
}

impl CameraSource for GeneratedSource {
    fn camera(&self) -> CameraId {
        self.camera
    }

    fn next_frame(&mut self) -> Option<TraceFrame> {
        if self.emitted >= self.budget {
            return None;
        }
        let mut frame = self.pool[self.emitted % self.pool.len()].clone();
        frame.frame = tangram_types::ids::FrameId::new(self.emitted as u64);
        for patch in &mut frame.patches {
            // Bit 38 marks generated ids, keeping them disjoint from the
            // partition pipeline's (camera << 40 | counter) scheme and
            // the engine's full-frame (1 << 39) scheme.
            patch.info.id =
                PatchId::new((u64::from(self.camera.raw()) << 40) | (1 << 38) | self.next_patch);
            patch.info.camera = self.camera;
            patch.info.frame = frame.frame;
            self.next_patch += 1;
        }
        self.emitted += 1;
        Some(frame)
    }

    fn is_exhausted(&self) -> bool {
        self.emitted >= self.budget
    }

    fn next_capture(
        &mut self,
        now: SimTime,
        frame_interval: SimDuration,
        uplink_free: SimTime,
    ) -> SimTime {
        match self.process {
            ArrivalProcess::ClosedLoop => (now + frame_interval).max(uplink_free),
            ArrivalProcess::Poisson { fps } => now + self.gap(fps),
            ArrivalProcess::Bursty {
                calm_fps,
                burst_fps,
                mean_calm_s,
                mean_burst_s,
            } => {
                // Advance the modulating chain through *every* dwell that
                // elapsed since the last capture — a long capture gap can
                // span several on/off flips, and flipping only once would
                // let the chain fall behind `now` for good. The dwell gap
                // is floored at 1 µs because `from_secs_f64` rounds tiny
                // exponential draws down to zero, which would stall the
                // loop.
                while now >= self.state_until {
                    self.in_burst = !self.in_burst;
                    let dwell = if self.in_burst {
                        mean_burst_s
                    } else {
                        mean_calm_s
                    };
                    let dwell_gap = self
                        .gap(1.0 / dwell.max(MIN_RATE))
                        .max(SimDuration::from_micros(1));
                    self.state_until += dwell_gap;
                }
                let fps = if self.in_burst { burst_fps } else { calm_fps };
                now + self.gap(fps)
            }
            ArrivalProcess::Diurnal {
                min_fps,
                max_fps,
                period_s,
            } => {
                let phase = now.since(SimTime::ZERO).as_secs_f64() / period_s.max(MIN_RATE);
                let swing = 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                let rate = min_fps + (max_fps - min_fps) * swing;
                now + self.gap(rate)
            }
        }
    }

    fn slo(&self) -> Option<SimDuration> {
        self.slo
    }

    fn link_independent(&self) -> bool {
        // Only the closed loop paces on the shared uplink; the open-loop
        // processes draw their gaps purely from the source's own RNG.
        !matches!(self.process, ArrivalProcess::ClosedLoop)
    }
}

/// Which wire representation [`materialize_frame`] builds — derived
/// from the engine's [`crate::engine::PolicyKind`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum MaterializeKind {
    /// Patch-based policies ship every RoI patch separately.
    Patch {
        /// ELF re-encodes patches (different byte sizes per patch).
        elf: bool,
    },
    /// Frame-based baselines ship one oversized "patch" per frame.
    Frame {
        /// Masked-frame transfers background-suppressed bytes.
        masked: bool,
    },
}

impl MaterializeKind {
    /// The wire representation for `policy`.
    pub(crate) fn of(policy: crate::engine::PolicyKind) -> Self {
        if policy.patch_based() {
            Self::Patch {
                elf: policy == crate::engine::PolicyKind::Elf,
            }
        } else {
            Self::Frame {
                masked: policy == crate::engine::PolicyKind::MaskedFrame,
            }
        }
    }
}

/// Turns one captured frame into the `(Arrival, Bytes)` work items the
/// engine feeds to the uplink, in wire order — one source of truth for
/// id stamping, byte selection and SLO stamping.
pub(crate) fn materialize_frame(
    frame: &TraceFrame,
    camera_id: CameraId,
    slo: SimDuration,
    generated_at: SimTime,
    kind: MaterializeKind,
) -> Vec<(Arrival, Bytes)> {
    match kind {
        MaterializeKind::Patch { elf } => frame
            .patches
            .iter()
            .enumerate()
            .map(|(i, patch)| {
                let bytes = if elf {
                    frame.elf_patch_bytes[i]
                } else {
                    patch.encoded_size
                };
                let info = PatchInfo {
                    generated_at,
                    slo,
                    ..patch.info
                };
                (Arrival::Patch(Patch::new(info, bytes)), bytes)
            })
            .collect(),
        MaterializeKind::Frame { masked } => {
            let bytes = if masked {
                frame.masked_frame_bytes
            } else {
                frame.full_frame_bytes
            };
            let mpx = if masked {
                frame.masked_megapixels
            } else {
                frame.full_megapixels
            };
            // The frame travels as one oversized "patch".
            let base = frame.patches.first().map_or_else(
                || PatchInfo {
                    id: PatchId::new(
                        (u64::from(camera_id.raw()) << 40) | (1 << 39) | frame.frame.raw(),
                    ),
                    camera: camera_id,
                    frame: frame.frame,
                    rect: Rect::from_size(Size::UHD_4K),
                    generated_at,
                    slo,
                },
                |p| PatchInfo {
                    id: PatchId::new(p.info.id.raw() | (1 << 39)),
                    rect: Rect::from_size(Size::UHD_4K),
                    generated_at,
                    slo,
                    ..p.info
                },
            );
            vec![(
                Arrival::Frame(FrameArrival {
                    info: base,
                    effective_megapixels: mpx,
                }),
                bytes,
            )]
        }
    }
}

struct CameraSlot {
    source: Box<dyn CameraSource>,
    active: bool,
}

/// The event-driven streaming engine: an [`EventLoop`] over
/// [`StreamEvent`]s wiring camera sources, the shared uplink, a batching
/// policy, admission control and the serverless platform together.
pub struct OnlineEngine {
    config: EngineConfig,
    policy: Box<dyn BatchingPolicy>,
    platform: ServerlessPlatform,
    link: Link,
    events: EventLoop<StreamEvent>,
    cameras: Vec<CameraSlot>,
    admission: Option<Box<dyn AdmissionPolicy>>,
    /// Weighted-DRR fair ingress between admission and the policy.
    ingress: Option<DrrIngress>,
    /// Whether a [`StreamEvent::DrrTick`] is already scheduled.
    drr_armed: bool,
    /// When the last DRR service round ran — rounds keep the configured
    /// cadence even across idle gaps, so the tick interval is a genuine
    /// service-rate bound rather than a best case.
    drr_last_round: Option<SimTime>,
    /// Whether the batching policy reads ingress load signals
    /// (admission-aware scheduling): when set, a fresh
    /// [`AdmissionSignals`] snapshot is fed to the policy before its
    /// arrivals even if no admission policy is installed.
    policy_reads_signals: bool,
    /// Earliest outstanding [`StreamEvent::InvokeTimer`] instant, if one
    /// is scheduled. Wake-up requests at or after it are skipped — the
    /// armed timer fires first and the policy re-arms via `next_wake` —
    /// so the queue never accumulates O(arrivals) dead timers.
    timer_armed: Option<SimTime>,
    frame_interval: SimDuration,
    patch_records: Vec<PatchRecord>,
    batch_records: Vec<BatchRecord>,
    transmission_busy: SimDuration,
    frames_injected: u64,
    /// Work items admitted but not yet dispatched (the queue-depth
    /// admission signal), in the post-normalize unit batches drain in:
    /// an oversized patch tiled 4-ways contributes 4.
    queued: usize,
    dropped_arrivals: u64,
    /// Drops per tenant class, keyed by SLO, ascending.
    dropped_by_slo: Vec<(SimDuration, u64)>,
    /// Invocations completed (trace accounting).
    completions: u64,
    /// Events popped off the event loop (wall-clock perf
    /// denominator for `bench_throughput`; pure accounting).
    events_processed: u64,
    /// Declarative fault windows, installed as a [`FaultPlane`] at the
    /// start of the run (once the final camera count is known).
    pending_faults: Vec<FaultSpec>,
    /// The run's live fault plane. Empty (and byte-invisible) when no
    /// faults were installed.
    faults: FaultPlane,
    /// Frames captured inside a camera-flap mute window and lost at the
    /// edge (never materialised onto the uplink).
    frames_muted: u64,
    /// Optional runtime trace recorder — pure observation: with or
    /// without a sink the run is byte-identical.
    trace: Option<TraceSink>,
}

impl OnlineEngine {
    /// Builds an engine with no cameras; add sources with
    /// [`OnlineEngine::add_camera_at`], then call [`OnlineEngine::run`].
    #[must_use]
    pub fn new(config: &EngineConfig) -> Self {
        let policy = config.build_policy();
        let mut platform = ServerlessPlatform::new(
            config.function_spec.clone(),
            config.latency_model.clone(),
            config.seed,
        )
        .with_prices(config.prices);
        platform.max_instances = config.max_instances;
        Self {
            policy,
            platform,
            link: Link::new(LinkConfig::mbps(config.bandwidth_mbps)),
            events: EventLoop::new(),
            cameras: Vec::new(),
            admission: None,
            ingress: None,
            drr_armed: false,
            drr_last_round: None,
            policy_reads_signals: config.scheduler_admission_aware,
            timer_armed: None,
            frame_interval: SimDuration::from_secs_f64(1.0 / config.max_fps),
            patch_records: Vec::new(),
            batch_records: Vec::new(),
            transmission_busy: SimDuration::ZERO,
            frames_injected: 0,
            queued: 0,
            dropped_arrivals: 0,
            dropped_by_slo: Vec::new(),
            completions: 0,
            events_processed: 0,
            pending_faults: Vec::new(),
            faults: FaultPlane::default(),
            frames_muted: 0,
            trace: None,
            config: config.clone(),
        }
    }

    /// Registers a camera that joins the stream at `at`, returning its
    /// index (usable with [`OnlineEngine::remove_camera_at`]).
    pub fn add_camera_at(&mut self, at: SimTime, source: Box<dyn CameraSource>) -> usize {
        let cam = self.cameras.len();
        self.cameras.push(CameraSlot {
            source,
            active: false,
        });
        self.events.schedule(at, StreamEvent::CameraJoin { cam });
        cam
    }

    /// Schedules camera `cam` to leave the stream at `at`; frames it
    /// would have captured afterwards are never produced.
    pub fn remove_camera_at(&mut self, at: SimTime, cam: usize) {
        self.events.schedule(at, StreamEvent::CameraLeave { cam });
    }

    /// Installs an admission-control policy. Without one, every arrival
    /// is admitted (equivalent to [`crate::admission::AlwaysAdmit`]).
    pub fn set_admission_policy(&mut self, policy: Box<dyn AdmissionPolicy>) {
        self.admission = Some(policy);
    }

    /// Installs the legacy closure hook (PR-3 API): wraps it in
    /// [`ClosureAdmission`], which ignores the load signals.
    pub fn set_admission(&mut self, hook: Box<AdmissionFn>) {
        self.admission = Some(Box::new(ClosureAdmission::new(hook)));
    }

    /// Installs a weighted-DRR fair-ingress stage between admission and
    /// the batching policy. Admitted arrivals queue per tenant class and
    /// are released by [`StreamEvent::DrrTick`] service rounds in the
    /// configured weight ratio; overflow is shed and counted per class
    /// like any other ingress drop. Without one, admitted arrivals reach
    /// the policy directly.
    pub fn set_fair_ingress(&mut self, ingress: DrrIngress) {
        self.ingress = Some(ingress);
    }

    /// Installs declarative fault windows for the run (see
    /// [`crate::faults`]). Each fault's start edge is scheduled through
    /// the event loop; randomized faults draw from dedicated
    /// [`DetRng::derive_seed`] forks of the engine seed. An empty list
    /// leaves the run bit-for-bit identical to an engine that never saw
    /// this call.
    pub fn set_faults(&mut self, faults: Vec<FaultSpec>) {
        self.pending_faults = faults;
    }

    /// Builds the run's [`FaultPlane`] (now that the camera count is
    /// final) and schedules one [`StreamEvent::FaultStart`] per window.
    fn install_faults(&mut self) {
        if self.pending_faults.is_empty() {
            return;
        }
        let faults = std::mem::take(&mut self.pending_faults);
        for (index, fault) in faults.iter().enumerate() {
            self.events
                .schedule(fault.start(), StreamEvent::FaultStart { fault: index });
        }
        self.faults = FaultPlane::install(self.config.seed, faults, self.cameras.len());
    }

    /// Installs a runtime trace recorder; the sealed log comes back from
    /// [`OnlineEngine::run_traced`]. Recording is pure observation: the
    /// run itself is byte-identical with or without a sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// Appends `event` to the trace, if a sink is installed.
    fn emit_trace(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.emit(at, event);
        }
    }

    /// Drives the event loop to quiescence and reports the run.
    ///
    /// # Panics
    ///
    /// Panics if no cameras were added.
    #[must_use]
    pub fn run(self) -> RunReport {
        self.run_traced().0
    }

    /// Like [`OnlineEngine::run`], additionally returning the sealed
    /// event trace when a sink was installed with
    /// [`OnlineEngine::set_trace_sink`] (`None` otherwise).
    ///
    /// # Panics
    ///
    /// Panics if no cameras were added.
    #[must_use]
    pub fn run_traced(mut self) -> (RunReport, Option<TraceLog>) {
        assert!(!self.cameras.is_empty(), "need at least one camera source");
        self.install_faults();
        let cameras = self.cameras.len() as u64;
        self.emit_trace(
            SimTime::ZERO,
            TraceEvent::SessionStart {
                policy: self.config.policy.name().to_string(),
                seed: self.config.seed,
                cameras,
            },
        );
        while let Some((now, event)) = self.events.step() {
            self.events_processed += 1;
            self.handle(now, event);
        }
        // End of stream: flush whatever the policy still holds.
        let now = self.events.now();
        let output = self.policy.flush(now);
        for spec in output.dispatches {
            self.dispatch(now, spec);
        }
        while let Some((now, event)) = self.events.step() {
            self.events_processed += 1;
            if let StreamEvent::FunctionComplete { id, feedback } = event {
                self.platform.complete(id);
                self.completions += 1;
                self.emit_trace(
                    now,
                    TraceEvent::FunctionComplete {
                        invocation: id.raw(),
                        inputs: feedback.inputs as u64,
                        violations: feedback.violations as u64,
                    },
                );
            }
        }
        // Every accepted work item was dispatched: the queue-depth
        // signal must drain back to exactly zero.
        debug_assert_eq!(
            self.queued, 0,
            "queue-depth accounting leaked {} items past the flush",
            self.queued
        );
        self.emit_trace(
            self.events.now(),
            TraceEvent::SessionEnd {
                frames: self.frames_injected,
                batches: self.batch_records.len() as u64,
                completions: self.completions,
                dropped: self.dropped_arrivals,
                makespan_us: self.events.now().since(SimTime::ZERO).as_micros(),
            },
        );
        let trace = self.trace.take().map(TraceSink::finish);
        let report = RunReport {
            policy: self.config.policy.name().to_string(),
            patches: self.patch_records,
            batches: self.batch_records,
            link: self.link.stats(),
            platform: self.platform.stats(),
            frames: self.frames_injected,
            frames_muted: self.frames_muted,
            dropped_arrivals: self.dropped_arrivals,
            dropped_by_slo: self.dropped_by_slo,
            ingress_peak_depth: self
                .ingress
                .as_ref()
                .map(DrrIngress::peak_depths)
                .unwrap_or_default(),
            ingress_admitted: self
                .ingress
                .as_ref()
                .map(DrrIngress::admitted_by_class)
                .unwrap_or_default(),
            transmission_busy: self.transmission_busy,
            makespan: self.events.now().since(SimTime::ZERO),
            events_processed: self.events_processed,
        };
        (report, trace)
    }

    fn handle(&mut self, now: SimTime, event: StreamEvent) {
        match event {
            StreamEvent::CameraJoin { cam } => {
                let camera = u64::from(self.cameras[cam].source.camera().raw());
                self.emit_trace(now, TraceEvent::CameraJoin { camera });
                self.cameras[cam].active = true;
                self.capture(now, cam);
            }
            StreamEvent::CameraLeave { cam } => {
                let camera = u64::from(self.cameras[cam].source.camera().raw());
                self.emit_trace(now, TraceEvent::CameraLeave { camera });
                self.cameras[cam].active = false;
            }
            StreamEvent::Capture { cam } => {
                if self.cameras[cam].active {
                    self.capture(now, cam);
                }
            }
            StreamEvent::PatchArrival { arrival } => {
                // One snapshot serves both consumers: the admission
                // policy's verdict and the batching policy's
                // admission-aware timing.
                let signals = (self.admission.is_some() || self.policy_reads_signals).then(|| {
                    AdmissionSignals {
                        // Fair-ingress residents are admitted-but-not-
                        // dispatched work too: without them the shedder
                        // would admit arrivals already doomed by ingress
                        // queueing delay.
                        queued: self.queued + self.ingress.as_ref().map_or(0, DrrIngress::backlog),
                        backend: self.platform.snapshot(now),
                    }
                });
                if let Some(policy) = self.admission.as_mut() {
                    let signals = signals.as_ref().expect("signals built for admission");
                    let verdict = policy.admit(now, &arrival, signals);
                    let info = *arrival.info();
                    self.emit_trace(
                        now,
                        TraceEvent::AdmissionVerdict {
                            patch: info.id.raw(),
                            slo_us: info.slo.as_micros(),
                            admitted: verdict != Admission::Drop,
                            queued: signals.queued as u64,
                            in_flight: signals.backend.in_flight as u64,
                            earliest_start_us: signals
                                .backend
                                .earliest_start
                                .since(SimTime::ZERO)
                                .as_micros(),
                        },
                    );
                    if verdict == Admission::Drop {
                        self.count_drop(info.slo);
                        return;
                    }
                }
                if self.policy_reads_signals {
                    let signals = signals.as_ref().expect("signals built for the policy");
                    self.policy.on_signals(now, signals);
                }
                match self.ingress.as_mut() {
                    // No fair ingress: admitted arrivals reach the policy
                    // directly (the legacy path, byte-identical).
                    None => {
                        let output = self.policy.on_arrival(now, arrival);
                        // Count what the policy actually enqueued — in
                        // the post-normalize unit dispatches drain in —
                        // *before* applying, so same-instant dispatches
                        // see a consistent counter.
                        self.queued += output.accepted;
                        self.apply(now, output.dispatches, output.next_wake);
                    }
                    Some(ingress) => {
                        let tick = ingress.tick();
                        match ingress.enqueue(arrival) {
                            Ok(()) => {
                                if !self.drr_armed {
                                    self.drr_armed = true;
                                    // The very first round fires
                                    // immediately; afterwards rounds hold
                                    // the tick cadence even across idle
                                    // gaps, so the ingress service rate
                                    // stays bounded.
                                    let at = self
                                        .drr_last_round
                                        .map_or(now, |last| (last + tick).max(now));
                                    self.events.schedule(at, StreamEvent::DrrTick);
                                }
                            }
                            // Overflow: shed at the ingress, charged to
                            // the arrival's own class.
                            Err(shed) => self.count_drop(shed.info().slo),
                        }
                    }
                }
            }
            StreamEvent::DrrTick => {
                let Some(ingress) = self.ingress.as_mut() else {
                    return;
                };
                self.drr_last_round = Some(now);
                let released = ingress.service_round();
                let backlog = ingress.backlog();
                let tick = ingress.tick();
                self.emit_trace(
                    now,
                    TraceEvent::DrrRound {
                        released: released.len() as u64,
                        backlog: backlog as u64,
                    },
                );
                if self.policy_reads_signals && !released.is_empty() {
                    let signals = AdmissionSignals {
                        queued: self.queued + backlog,
                        backend: self.platform.snapshot(now),
                    };
                    self.policy.on_signals(now, &signals);
                }
                for arrival in released {
                    let output = self.policy.on_arrival(now, arrival);
                    self.queued += output.accepted;
                    self.apply(now, output.dispatches, output.next_wake);
                }
                if backlog > 0 {
                    self.events.schedule(now + tick, StreamEvent::DrrTick);
                } else {
                    self.drr_armed = false;
                }
            }
            StreamEvent::InvokeTimer => {
                // The armed slot is free again: the policy re-arms via
                // `next_wake` if it still wants a wake-up (possibly at
                // this same instant).
                if self.timer_armed == Some(now) {
                    self.timer_armed = None;
                }
                let output = self.policy.on_tick(now);
                self.apply(now, output.dispatches, output.next_wake);
            }
            StreamEvent::FunctionComplete { id, feedback } => {
                self.platform.complete(id);
                self.completions += 1;
                self.emit_trace(
                    now,
                    TraceEvent::FunctionComplete {
                        invocation: id.raw(),
                        inputs: feedback.inputs as u64,
                        violations: feedback.violations as u64,
                    },
                );
                let output = self.policy.on_completion(now, feedback);
                self.apply(now, output.dispatches, output.next_wake);
            }
            StreamEvent::FaultStart { fault } => {
                let spec = self.faults.faults[fault].clone();
                self.emit_trace(
                    now,
                    TraceEvent::FaultWindow {
                        kind: spec.kind.name().to_string(),
                        until_us: spec.end().since(SimTime::ZERO).as_micros(),
                    },
                );
                match spec.kind {
                    // Store-and-forward: everything in flight and
                    // everything enqueued later queues behind the
                    // outage's end.
                    FaultKind::LinkOutage => self.link.outage_until(spec.end()),
                    // Kill the warm pool at the window's start edge;
                    // `dispatch` keeps it dead for the window's duration.
                    FaultKind::ColdStartStorm => {
                        let _ = self.platform.evict_idle(now);
                    }
                    // Window-duration faults: actuated statically at the
                    // dispatch/deliver boundaries.
                    FaultKind::LatencyTail { .. }
                    | FaultKind::CameraFlap { .. }
                    | FaultKind::Brownout { .. } => {}
                }
            }
        }
    }

    /// Counts one ingress drop (admission or fair-ingress overflow)
    /// against the arrival's tenant class.
    fn count_drop(&mut self, slo: SimDuration) {
        self.dropped_arrivals += 1;
        match self.dropped_by_slo.binary_search_by_key(&slo, |&(s, _)| s) {
            Ok(at) => self.dropped_by_slo[at].1 += 1,
            Err(at) => self.dropped_by_slo.insert(at, (slo, 1)),
        }
    }

    /// Drives camera `cam`'s source through one capture at `now`:
    /// `next_frame` → materialise → deliver → `next_capture`.
    fn capture(&mut self, now: SimTime, cam: usize) {
        let source = &mut self.cameras[cam].source;
        let Some(frame) = source.next_frame() else {
            self.cameras[cam].active = false;
            return;
        };
        self.frames_injected += 1;
        let slo = source.slo().unwrap_or(self.config.slo);
        let arrivals = materialize_frame(
            &frame,
            source.camera(),
            slo,
            now,
            MaterializeKind::of(self.config.policy),
        );
        if self.faults.is_muted(cam, now) {
            self.frames_muted += 1;
        } else {
            self.deliver(now, arrivals);
        }

        let uplink_free = self.link.busy_until();
        let source = &mut self.cameras[cam].source;
        let next = source.next_capture(now, self.frame_interval, uplink_free);
        if !source.is_exhausted() && self.cameras[cam].active {
            self.events.schedule(next, StreamEvent::Capture { cam });
        }
    }

    /// Feeds one frame's wire items to the shared uplink, scheduling
    /// their cloud arrivals — the shared-state tail of a capture.
    fn deliver(&mut self, now: SimTime, arrivals: Vec<(Arrival, Bytes)>) {
        let ready = now + self.config.edge_delay;
        for (arrival, bytes) in arrivals {
            let delivered = self.link.enqueue(ready, bytes);
            self.transmission_busy += self.link.config().bandwidth.transmission_time(bytes);
            self.events
                .schedule(delivered, StreamEvent::PatchArrival { arrival });
        }
    }

    fn apply(&mut self, now: SimTime, dispatches: Vec<BatchSpec>, next_wake: Option<SimTime>) {
        for spec in dispatches {
            self.dispatch(now, spec);
        }
        if let Some(wake) = next_wake {
            let wake = wake.max(now);
            // One live timer per armed instant: a duplicate at or after
            // the armed wake-up would only fire a spurious tick (the
            // armed timer runs first and the policy re-arms through
            // `next_wake`), so skip it instead of flooding the queue
            // with O(arrivals) dead timers.
            if self.timer_armed.is_none_or(|armed| wake < armed) {
                self.timer_armed = Some(wake);
                self.events.schedule(wake, StreamEvent::InvokeTimer);
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, spec: BatchSpec) {
        if spec.patches.is_empty() {
            return;
        }
        // Arrivals were counted post-normalize (`PolicyOutput::accepted`),
        // the same unit batches drain in, so the counter can never
        // underflow — a mismatch here is an accounting bug, not a
        // condition to mask.
        debug_assert!(
            self.queued >= spec.patches.len(),
            "queue-depth underflow: dispatching {} patches with {} queued",
            spec.patches.len(),
            self.queued
        );
        self.queued -= spec.patches.len();
        self.emit_trace(
            now,
            TraceEvent::BatchDispatch {
                batch: self.batch_records.len() as u64,
                patches: spec.patches.len() as u64,
                inputs: spec.inputs as u64,
                megapixels_e6: (spec.megapixels * 1e6).round() as u64,
            },
        );
        let max = self.platform.spec().max_canvases().max(1);
        let request = InvocationRequest {
            canvases: spec.inputs.min(max),
            megapixels: spec.megapixels,
            submitted: now,
        };
        // Fault actuation at the submit boundary: brownouts inflate the
        // sampled execution (factor 1.0 is the byte-identical no-op), a
        // cold-start storm keeps the warm pool dead, and latency tails
        // delay result delivery without occupying the instance.
        self.platform
            .set_compute_factor(self.faults.brownout_factor(now));
        if self.faults.cold_storm_active(now) {
            let _ = self.platform.evict_idle(now);
        }
        let outcome = self
            .platform
            .submit(request)
            .expect("batch sized within the GPU bound");
        let finished = outcome.finished + self.faults.tail_delay(now, outcome.execution);
        let mut violations = 0usize;
        for p in &spec.patches {
            let record = PatchRecord {
                patch: p.id,
                camera: p.camera,
                frame: p.frame,
                generated_at: p.generated_at,
                dispatched_at: now,
                finished_at: finished,
                slo: p.slo,
            };
            if record.violated() {
                violations += 1;
            }
            self.patch_records.push(record);
        }
        self.batch_records.push(BatchRecord {
            dispatched_at: now,
            inputs: spec.inputs,
            patch_count: spec.patches.len(),
            execution: outcome.execution,
            cold: outcome.cold,
            cost: outcome.cost,
            efficiencies: spec.canvas_efficiencies,
        });
        self.events.schedule(
            finished,
            StreamEvent::FunctionComplete {
                id: outcome.id,
                feedback: CompletionFeedback {
                    finished,
                    execution: outcome.execution,
                    violations,
                    inputs: spec.inputs,
                },
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PolicyKind;
    use crate::workload::TraceConfig;
    use tangram_types::ids::SceneId;

    fn trace(scene: u8, frames: usize) -> CameraTrace {
        TraceConfig::proxy_extractor(SceneId::new(scene), frames, 7).build()
    }

    fn config(policy: PolicyKind) -> EngineConfig {
        EngineConfig {
            policy,
            seed: 7,
            ..EngineConfig::default()
        }
    }

    fn poisson_source(scene: u8, budget: usize, fps: f64, seed: u64) -> GeneratedSource {
        GeneratedSource::new(
            &trace(scene, 6),
            budget,
            ArrivalProcess::Poisson { fps },
            DetRng::new(seed).fork_indexed("online-test", u64::from(scene)),
        )
    }

    #[test]
    fn replay_sources_match_the_batch_entry_point() {
        let t = trace(1, 10);
        let cfg = config(PolicyKind::Tangram);
        let batch = cfg.run(std::slice::from_ref(&t));
        let mut online = OnlineEngine::new(&cfg);
        online.add_camera_at(SimTime::ZERO, Box::new(TraceReplaySource::new(t)));
        let streamed = online.run();
        assert_eq!(batch.summarize(), streamed.summarize());
    }

    #[test]
    fn poisson_cameras_stream_patches() {
        let mut engine = OnlineEngine::new(&config(PolicyKind::Tangram));
        engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 8.0, 3)));
        engine.add_camera_at(
            SimTime::from_micros(500),
            Box::new(poisson_source(2, 20, 8.0, 4)),
        );
        let report = engine.run();
        assert_eq!(report.frames, 40);
        assert!(report.patches_completed() > 40, "several patches per frame");
        assert_eq!(report.dropped_arrivals, 0);
        let cams: std::collections::HashSet<u32> =
            report.patches.iter().map(|p| p.camera.raw()).collect();
        assert_eq!(cams.len(), 2);
    }

    #[test]
    fn generated_ids_stay_unique_across_cycles() {
        // Budget far beyond the 6-frame pool: content cycles, ids must not.
        let mut src = poisson_source(1, 30, 10.0, 5);
        let mut seen = std::collections::HashSet::new();
        while let Some(frame) = src.next_frame() {
            for p in &frame.patches {
                assert!(seen.insert(p.info.id), "duplicate patch id {:?}", p.info.id);
            }
        }
        assert!(src.is_exhausted());
    }

    #[test]
    fn camera_leave_truncates_the_stream() {
        let cfg = config(PolicyKind::Tangram);
        let mut full = OnlineEngine::new(&cfg);
        full.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 200, 10.0, 9)));
        let full_report = full.run();

        let mut churned = OnlineEngine::new(&cfg);
        let cam = churned.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 200, 10.0, 9)));
        churned.remove_camera_at(SimTime::from_secs_f64(5.0), cam);
        let churned_report = churned.run();

        assert!(
            churned_report.frames < full_report.frames,
            "leave at 5 s must cut the 200-frame budget short ({} vs {})",
            churned_report.frames,
            full_report.frames
        );
        assert!(churned_report.frames > 0);
    }

    #[test]
    fn admission_hook_sheds_load() {
        let cfg = config(PolicyKind::Tangram);
        let mut engine = OnlineEngine::new(&cfg);
        engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 10, 10.0, 11)));
        engine.set_admission(Box::new(|_, _| Admission::Drop));
        let report = engine.run();
        assert_eq!(report.patches_completed(), 0);
        assert!(report.dropped_arrivals > 0);
        assert!(report.batches.is_empty());
        // Per-class accounting: one class (the engine default SLO),
        // carrying every drop.
        assert_eq!(report.dropped_by_slo.len(), 1);
        assert_eq!(report.dropped_by_slo[0].0, cfg.slo);
        assert_eq!(report.dropped_by_slo[0].1, report.dropped_arrivals);
        let tenants = report.tenant_breakdown();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].dropped, report.dropped_arrivals);
        assert_eq!(tenants[0].patches, 0);
        let summary = report.summarize();
        assert_eq!(summary.dropped_arrivals, report.dropped_arrivals);
        assert_eq!(summary.tenants, tenants);
    }

    #[test]
    fn always_admit_matches_no_admission_policy() {
        let cfg = config(PolicyKind::Tangram);
        let bare = {
            let mut engine = OnlineEngine::new(&cfg);
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 8.0, 17)));
            engine.run().summarize()
        };
        let policed = {
            let mut engine = OnlineEngine::new(&cfg);
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 8.0, 17)));
            engine.set_admission_policy(Box::new(crate::admission::AlwaysAdmit));
            engine.run().summarize()
        };
        assert_eq!(bare, policed, "AlwaysAdmit must be a behavioural no-op");
        assert_eq!(policed.dropped_arrivals, 0);
    }

    #[test]
    fn slo_shedder_protects_gold_under_a_capacity_burst() {
        use crate::admission::SloShedder;
        // Two serverless instances, a wide uplink, and a Poisson burst at
        // roughly twice what the backend sustains, split between a tight
        // "gold" tenant and a lax best-effort one: gold alone fits
        // capacity, the mix does not.
        let mut cfg = config(PolicyKind::Tangram);
        cfg.max_instances = Some(2);
        cfg.bandwidth_mbps = 200.0;
        let gold = TenantClass::new("gold", SimDuration::from_millis(800));
        let best_effort = TenantClass::new("best-effort", SimDuration::from_secs(3));

        let mut engine = OnlineEngine::new(&cfg);
        engine.add_camera_at(
            SimTime::ZERO,
            Box::new(poisson_source(1, 60, 16.0, 21).with_tenant(&gold)),
        );
        engine.add_camera_at(
            SimTime::ZERO,
            Box::new(poisson_source(2, 60, 16.0, 22).with_tenant(&best_effort)),
        );
        engine.set_admission_policy(Box::new(
            SloShedder::new(SimDuration::from_millis(20))
                .with_pressure(0.5)
                .with_classes(&[gold.slo, best_effort.slo]),
        ));
        let report = engine.run();
        let tenants = report.tenant_breakdown();
        assert_eq!(tenants.len(), 2);
        let gold_row = &tenants[0];
        let lax_row = &tenants[1];
        assert!((gold_row.slo_s - 0.8).abs() < 1e-12);
        assert!(
            gold_row.patches > 0,
            "gold keeps completing under the burst"
        );
        assert_eq!(
            gold_row.dropped, 0,
            "gold-class patches survive the 2x burst"
        );
        assert!(
            lax_row.dropped > 0,
            "best-effort is shed first under pressure"
        );
        assert_eq!(
            report.dropped_arrivals,
            gold_row.dropped + lax_row.dropped,
            "per-class drops sum to the total"
        );
    }

    fn drr_ingress(weights: &[f64], capacity: usize) -> crate::fairness::DrrIngress {
        use crate::fairness::{DrrConfig, DrrIngress};
        DrrIngress::new(&DrrConfig {
            classes: vec![
                (SimDuration::from_millis(800), weights[0]),
                (SimDuration::from_millis(1500), weights[1]),
            ],
            queue_capacity: capacity,
            quantum: 1.0,
            tick: SimDuration::from_millis(20),
        })
    }

    /// Two gold and two best-effort cameras at roughly 2× the DRR service
    /// rate: the admitted mix must track the 3:1 weights instead of
    /// collapsing to one class, and the per-class queue peaks must land
    /// in the report.
    #[test]
    fn fair_ingress_holds_weighted_shares_under_overload() {
        let gold = TenantClass::new("gold", SimDuration::from_millis(800));
        let lax = TenantClass::new("best-effort", SimDuration::from_millis(1500));
        // A wide uplink so the ingress — not the link — is the limiter:
        // ~500 patches/s offered against a 200 item/s DRR service rate.
        let mut cfg = config(PolicyKind::Tangram);
        cfg.bandwidth_mbps = 200.0;
        let mut engine = OnlineEngine::new(&cfg);
        for (i, tenant) in [&gold, &lax, &gold, &lax].into_iter().enumerate() {
            engine.add_camera_at(
                SimTime::ZERO,
                Box::new(poisson_source(1 + i as u8, 60, 16.0, 31 + i as u64).with_tenant(tenant)),
            );
        }
        engine.set_fair_ingress(drr_ingress(&[3.0, 1.0], 32));
        let report = engine.run();
        let tenants = report.tenant_breakdown();
        assert_eq!(tenants.len(), 2);
        let (gold_row, lax_row) = (&tenants[0], &tenants[1]);
        assert!(lax_row.dropped > 0, "overload must overflow best-effort");
        let admitted = (gold_row.admitted + lax_row.admitted) as f64;
        let gold_share = gold_row.admitted as f64 / admitted;
        // Work-conserving DRR lets an intermittently empty gold queue
        // donate its credit to best-effort, so the admitted mix sits a
        // little below the pure 3:1 weight split — but must still track
        // it, not collapse to one class.
        assert!(
            (gold_share - 0.75).abs() < 0.11,
            "admitted gold share {gold_share:.3} should track weight 3/4"
        );
        assert_eq!(
            gold_row.admitted + gold_row.dropped,
            report
                .ingress_admitted
                .iter()
                .find(|&&(slo, _)| slo == gold.slo)
                .map(|&(_, n)| n)
                .unwrap()
                + gold_row.dropped,
            "admitted + dropped accounts every gold arrival"
        );
        // Per-class queue-depth accounting reaches the report: the
        // overflowing class peaks at its capacity bound.
        assert_eq!(report.ingress_peak_depth.len(), 2);
        assert_eq!(lax_row.peak_queued, 8, "best-effort pins its buffer slice");
        assert!(gold_row.peak_queued > 0);
        // Overflow sheds are ingress drops like any other.
        assert_eq!(report.dropped_arrivals, gold_row.dropped + lax_row.dropped);
        let summary = report.summarize();
        assert_eq!(summary.tenants, tenants);
    }

    /// An uncongested DRR ingress is (almost) invisible: nothing sheds,
    /// every patch completes, and the run drains fully at end of stream.
    #[test]
    fn fair_ingress_is_transparent_below_capacity() {
        let cfg = config(PolicyKind::Tangram);
        let bare = {
            let mut engine = OnlineEngine::new(&cfg);
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 4.0, 17)));
            engine.run()
        };
        let fair = {
            use crate::fairness::{DrrConfig, DrrIngress};
            let mut engine = OnlineEngine::new(&cfg);
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 4.0, 17)));
            // One class (the engine default SLO) owning the whole buffer.
            engine.set_fair_ingress(DrrIngress::new(&DrrConfig {
                classes: vec![(cfg.slo, 1.0)],
                queue_capacity: 64,
                quantum: 1.0,
                tick: SimDuration::from_millis(20),
            }));
            engine.run()
        };
        assert_eq!(fair.dropped_arrivals, 0);
        assert_eq!(
            fair.patches_completed(),
            bare.patches_completed(),
            "every admitted patch must drain through the DRR stage"
        );
        assert_eq!(fair.frames, bare.frames);
    }

    /// With both stages installed, admitted-but-unreleased work sitting
    /// in the DRR queues must count toward the admission policy's
    /// queue-depth signal — otherwise the shedder admits arrivals that
    /// are already doomed by ingress queueing delay.
    #[test]
    fn admission_signals_include_fair_ingress_backlog() {
        use crate::admission::QueueDepthThreshold;
        use crate::fairness::{DrrConfig, DrrIngress};
        let cfg = config(PolicyKind::Tangram);
        let mut engine = OnlineEngine::new(&cfg);
        engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 16.0, 19)));
        engine.set_admission_policy(Box::new(QueueDepthThreshold::new(5)));
        // A crawling single-class ingress: its standing queue, not the
        // scheduler's, is where admitted-but-undispatched work piles up.
        engine.set_fair_ingress(DrrIngress::new(&DrrConfig {
            classes: vec![(cfg.slo, 1.0)],
            queue_capacity: 1000,
            quantum: 1.0,
            tick: SimDuration::from_millis(200),
        }));
        let report = engine.run();
        assert!(
            report.dropped_arrivals > 0,
            "queue-depth admission must see the ingress backlog"
        );
    }

    #[test]
    fn fair_ingress_runs_are_deterministic() {
        let run = || {
            let mut engine = OnlineEngine::new(&config(PolicyKind::Tangram));
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 40, 16.0, 23)));
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(2, 40, 16.0, 24)));
            engine.set_fair_ingress(drr_ingress(&[3.0, 1.0], 8));
            engine.run().summarize()
        };
        assert_eq!(run(), run(), "same seed, same digest, sheds included");
    }

    #[test]
    fn tenant_slo_classes_stamp_patches() {
        let cfg = config(PolicyKind::Tangram);
        let gold = TenantClass::new("gold", SimDuration::from_millis(600));
        let best_effort = TenantClass::new("best-effort", SimDuration::from_secs(3));
        let mut engine = OnlineEngine::new(&cfg);
        engine.add_camera_at(
            SimTime::ZERO,
            Box::new(poisson_source(1, 8, 8.0, 13).with_tenant(&gold)),
        );
        engine.add_camera_at(
            SimTime::from_micros(1000),
            Box::new(poisson_source(2, 8, 8.0, 14).with_tenant(&best_effort)),
        );
        let report = engine.run();
        let slos: std::collections::HashSet<u64> =
            report.patches.iter().map(|p| p.slo.as_micros()).collect();
        assert!(slos.contains(&600_000), "gold SLO stamped");
        assert!(slos.contains(&3_000_000), "best-effort SLO stamped");
    }

    #[test]
    fn bursty_and_diurnal_processes_are_deterministic() {
        for process in [
            ArrivalProcess::Bursty {
                calm_fps: 2.0,
                burst_fps: 20.0,
                mean_calm_s: 2.0,
                mean_burst_s: 0.5,
            },
            ArrivalProcess::Diurnal {
                min_fps: 1.0,
                max_fps: 12.0,
                period_s: 30.0,
            },
        ] {
            let run = |seed: u64| {
                let mut engine = OnlineEngine::new(&config(PolicyKind::Tangram));
                engine.add_camera_at(
                    SimTime::ZERO,
                    Box::new(GeneratedSource::new(
                        &trace(1, 6),
                        25,
                        process,
                        DetRng::new(seed).fork("bursty-diurnal"),
                    )),
                );
                engine.run().summarize()
            };
            assert_eq!(run(5), run(5), "same seed, same digest");
            assert_ne!(
                run(5).makespan_s,
                run(6).makespan_s,
                "different seeds should move the arrival timeline"
            );
        }
    }
}
