//! The traced replay: the engine's calls into the uplink, the fair
//! ingress, the Tangram scheduler (with the stitch calls it makes) and
//! the serverless platform, re-issued through each layer's public
//! functions with every call timed.
//!
//! The engine does not expose the calls it makes into those layers, so
//! the replay re-runs its event loop over the inputs a traced engine run
//! recorded: each camera's frames and capture instants, and each
//! admission verdict. It builds every layer exactly as the engine does
//! and handles events in the engine's order. A layer's timings count
//! only when the replay reproduces the engine's own records for it (see
//! [`Validity`]); otherwise the layer is reported as unmeasured.

use crate::engine::{CaptureRecord, VerdictRecord};
use crate::spans::{SpanId, SpanLog};
use crate::workload;
use std::collections::BTreeMap;
use tangram_core::admission::{Admission, AdmissionSignals};
use tangram_core::engine::EngineConfig;
use tangram_core::fairness::DrrIngress;
use tangram_core::policy::{Arrival, BatchSpec, BatchingPolicy, CompletionFeedback, PolicyOutput};
use tangram_core::report::{BatchRecord, PatchRecord, RunReport};
use tangram_core::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_harness::scenario_file::ScenarioFile;
use tangram_infer::estimator::LatencyEstimator;
use tangram_net::{Link, LinkConfig, LinkStats};
use tangram_serverless::platform::{InvocationRequest, PlatformStats, ServerlessPlatform};
use tangram_sim::driver::EventLoop;
use tangram_stitch::canvas::Canvas;
use tangram_stitch::solver::PatchStitchingSolver;
use tangram_types::geometry::Size;
use tangram_types::ids::InvocationId;
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::{SimDuration, SimTime};

/// Latency-estimator profiling iterations the engine uses for Tangram.
const ESTIMATOR_ITERATIONS: usize = 1000;
/// Salt the engine mixes into its seed for the estimator's profile.
const ESTIMATOR_SEED_SALT: u64 = 0x51ac;

/// The replay's event alphabet: the engine's, minus fault windows and
/// camera departures (benchmark workloads have neither).
enum Ev {
    CameraJoin {
        cam: usize,
    },
    Capture {
        cam: usize,
    },
    PatchArrival {
        arrival: Arrival,
    },
    InvokeTimer,
    DrrTick,
    FunctionComplete {
        id: InvocationId,
        feedback: CompletionFeedback,
    },
}

/// Re-issues the scheduler's stitch calls on a solver of its own: the
/// scheduler's solver is private, so each call it makes is replayed here
/// over the same queue and charged as a child of the scheduler call.
struct ShadowStitcher {
    solver: PatchStitchingSolver,
    canvas: Size,
    queue: Vec<PatchInfo>,
    /// The stitching of `queue` (the scheduler's open canvases).
    open: Vec<Canvas>,
    /// Whether every dispatch matched the shadow queue and canvases.
    ok: bool,
    calls: u64,
    items: u64,
}

impl ShadowStitcher {
    fn new(canvas: Size) -> Self {
        Self {
            solver: PatchStitchingSolver::new(canvas),
            canvas,
            queue: Vec::new(),
            open: Vec::new(),
            ok: true,
            calls: 0,
            items: 0,
        }
    }

    fn stitch(&mut self, spans: &mut SpanLog, id: u64, parent: usize) -> Vec<Canvas> {
        self.calls += 1;
        self.items += self.queue.len() as u64;
        let (result, _) = spans.time("stitch.stitch", SpanId::Patch(id), Some(parent), || {
            self.solver.stitch(&self.queue)
        });
        result.unwrap_or_else(|_| {
            self.ok = false;
            Vec::new()
        })
    }

    /// Whether `batch` is exactly the stitching `canvases`.
    fn check(&mut self, batch: &BatchSpec, canvases: &[Canvas]) {
        let efficiencies: Vec<f64> = canvases.iter().map(Canvas::efficiency).collect();
        self.ok &= batch.inputs == canvases.len() && batch.canvas_efficiencies == efficiencies;
    }

    /// Replays the stitch calls of one `on_patch` (Algorithm 2 lines
    /// 5–17, per normalised tile), reading which branch each tile took
    /// from the dispatches the scheduler returned.
    fn on_patch(
        &mut self,
        spans: &mut SpanLog,
        info: PatchInfo,
        out: &PolicyOutput,
        parent: usize,
    ) {
        let id = info.id.raw();
        let mut pending = out.dispatches.iter().peekable();
        for tile in workload::tiles(info, self.canvas) {
            self.queue.push(tile);
            let canvases = self.stitch(spans, id, parent);
            let held = self.queue.len() - 1;
            match pending.peek() {
                // Dispatch C_old and restart the queue with this tile.
                Some(old) if held > 0 && old.patches[..] == self.queue[..held] => {
                    let open = std::mem::take(&mut self.open);
                    self.check(old, &open);
                    pending.next();
                    self.queue = vec![tile];
                    let alone = self.stitch(spans, id, parent);
                    match pending.peek() {
                        // Even alone the tile is late: shipped at once.
                        Some(late) if late.patches[..] == self.queue[..] => {
                            self.check(late, &alone);
                            pending.next();
                            self.queue.clear();
                        }
                        _ => self.open = alone,
                    }
                }
                // A lone late tile ships immediately.
                Some(batch) if batch.patches[..] == self.queue[..] => {
                    self.check(batch, &canvases);
                    pending.next();
                    self.queue.clear();
                    self.open.clear();
                }
                _ => self.open = canvases,
            }
        }
        self.ok &= pending.next().is_none();
    }

    /// A timer or end-of-stream flush dispatches the open canvas set.
    fn on_flush(&mut self, out: &PolicyOutput) {
        match out.dispatches.as_slice() {
            [] => {}
            [batch] => {
                self.ok &= batch.patches == self.queue;
                let open = std::mem::take(&mut self.open);
                self.check(batch, &open);
                self.queue.clear();
            }
            _ => self.ok = false,
        }
    }
}

/// Everything the replay recorded.
pub struct ReplayOutcome {
    /// The replay's spans (root `replay.run`).
    pub spans: SpanLog,
    /// Batches dispatched, as the engine records them.
    pub batches: Vec<BatchRecord>,
    /// Patch records, as the engine records them.
    pub patches: Vec<PatchRecord>,
    /// Uplink counters.
    pub link: LinkStats,
    /// Platform counters.
    pub platform: PlatformStats,
    /// Summed transmission time.
    pub transmission_busy: SimDuration,
    /// Fair-ingress admitted counts per class.
    pub ingress_admitted: Vec<(SimDuration, u64)>,
    /// Fair-ingress peak depth per class.
    pub ingress_peak_depth: Vec<(SimDuration, u64)>,
    /// Arrivals shed (admission and ingress overflow).
    pub dropped: u64,
    /// Arrivals shed by admission verdicts alone.
    pub refused: u64,
    /// Whether the recorded inputs were consumed exactly as recorded
    /// (capture instants, verdict instants, ids and load signals).
    pub inputs_ok: bool,
    /// Whether every dispatch matched the shadow stitcher.
    pub stitch_ok: bool,
    /// Stitch calls replayed.
    pub stitch_calls: u64,
    /// Summed queue lengths over the stitch calls.
    pub stitch_items: u64,
    /// Arrivals handed to the scheduler.
    pub scheduler_arrivals: u64,
    /// DRR service rounds.
    pub drr_rounds: u64,
    /// Largest fair-ingress backlog.
    pub drr_peak_backlog: u64,
    /// Per enqueue, how long the item waited for the wire, seconds.
    pub net_waits_s: Vec<f64>,
    /// Per dispatched tile, time from reaching the scheduler to
    /// dispatch, seconds.
    pub queue_waits_s: Vec<f64>,
    /// Per invocation, time from submit to execution start, seconds.
    pub start_waits_s: Vec<f64>,
}

/// Which replayed layers reproduced the engine's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// `Link::enqueue`: traffic counters and (through the scheduler) every
    /// arrival instant.
    pub net: bool,
    /// `DrrIngress`: per-class admitted counts and peak depths.
    pub drr: bool,
    /// `TangramScheduler`: batch dispatch instants, patch counts, inputs
    /// and canvas efficiencies.
    pub scheduler: bool,
    /// `PatchStitchingSolver::stitch`: the shadow queue and canvases
    /// equal every dispatched batch.
    pub stitch: bool,
    /// `ServerlessPlatform`: invocation outcomes (execution, cold, cost)
    /// and counters.
    pub platform: bool,
}

impl Validity {
    /// Holds the replay against the engine's report.
    #[must_use]
    pub fn of(replay: &ReplayOutcome, report: &RunReport) -> Self {
        let same_len = replay.batches.len() == report.batches.len()
            && replay.patches.len() == report.patches.len();
        let scheduler = replay.inputs_ok
            && same_len
            && replay.batches.iter().zip(&report.batches).all(|(a, b)| {
                a.dispatched_at == b.dispatched_at
                    && a.patch_count == b.patch_count
                    && a.inputs == b.inputs
                    && a.efficiencies == b.efficiencies
            })
            && replay
                .patches
                .iter()
                .zip(&report.patches)
                .all(|(a, b)| a.patch == b.patch && a.dispatched_at == b.dispatched_at);
        let platform =
            scheduler
                && replay.platform == report.platform
                && replay.batches.iter().zip(&report.batches).all(|(a, b)| {
                    a.execution == b.execution && a.cold == b.cold && a.cost == b.cost
                })
                && replay
                    .patches
                    .iter()
                    .zip(&report.patches)
                    .all(|(a, b)| a.finished_at == b.finished_at);
        Self {
            net: scheduler
                && replay.link == report.link
                && replay.transmission_busy == report.transmission_busy,
            drr: scheduler
                && replay.dropped == report.dropped_arrivals
                && replay.ingress_admitted == report.ingress_admitted
                && replay.ingress_peak_depth == report.ingress_peak_depth,
            stitch: scheduler && replay.stitch_ok,
            scheduler,
            platform,
        }
    }
}

/// The replay's state: the engine's layers and event-loop bookkeeping.
struct Replay {
    spans: SpanLog,
    root: usize,
    edge_delay: SimDuration,
    admission_aware: bool,
    policy: TangramScheduler,
    platform: ServerlessPlatform,
    link: Link,
    ingress: Option<DrrIngress>,
    events: EventLoop<Ev>,
    captures: Vec<std::vec::IntoIter<CaptureRecord>>,
    active: Vec<bool>,
    slo: Vec<SimDuration>,
    verdicts: Option<std::vec::IntoIter<VerdictRecord>>,
    drr_armed: bool,
    drr_last_round: Option<SimTime>,
    timer_armed: Option<SimTime>,
    queued: usize,
    shadow: ShadowStitcher,
    batches: Vec<BatchRecord>,
    patches: Vec<PatchRecord>,
    transmission_busy: SimDuration,
    dropped: u64,
    refused: u64,
    inputs_ok: bool,
    scheduler_arrivals: u64,
    drr_rounds: u64,
    drr_peak_backlog: u64,
    reached_scheduler: BTreeMap<u64, SimTime>,
    net_waits_s: Vec<f64>,
    queue_waits_s: Vec<f64>,
    start_waits_s: Vec<f64>,
}

/// Replays a traced engine run of `file` under `config` from its
/// recorded camera captures and admission verdicts, timing every call
/// into `spans` (under a `replay.run` root span).
#[must_use]
pub fn run(
    file: &ScenarioFile,
    config: &EngineConfig,
    captures: Vec<Vec<CaptureRecord>>,
    verdicts: Option<Vec<VerdictRecord>>,
    mut spans: SpanLog,
) -> ReplayOutcome {
    let root = spans.open("replay.run", SpanId::None, None);
    let max_batch = config.function_spec.max_canvases().max(1);
    let estimator = LatencyEstimator::profile(
        &config.latency_model,
        config.canvas_size,
        max_batch,
        ESTIMATOR_ITERATIONS,
        config.sigma_multiplier,
        config.seed ^ ESTIMATOR_SEED_SALT,
    );
    let policy = TangramScheduler::new(
        SchedulerConfig {
            canvas_size: config.canvas_size,
            max_canvases: max_batch,
            admission_aware: config.scheduler_admission_aware,
        },
        estimator,
    );
    let mut platform = ServerlessPlatform::new(
        config.function_spec.clone(),
        config.latency_model.clone(),
        config.seed,
    )
    .with_prices(config.prices);
    platform.max_instances = config.max_instances;
    let scenario = &file.scenario;
    let cameras = captures.len();
    let slo = (0..cameras)
        .map(|cam| {
            if scenario.tenant_slos_s.is_empty() {
                config.slo
            } else {
                SimDuration::from_secs_f64(
                    scenario.tenant_slos_s[cam % scenario.tenant_slos_s.len()],
                )
            }
        })
        .collect();
    let mut events = EventLoop::new();
    for cam in 0..cameras {
        let join = SimTime::from_secs_f64(scenario.join_stagger_s * cam as f64);
        events.schedule(join, Ev::CameraJoin { cam });
    }
    let mut replay = Replay {
        spans,
        root,
        edge_delay: config.edge_delay,
        admission_aware: config.scheduler_admission_aware,
        policy,
        platform,
        link: Link::new(LinkConfig::mbps(config.bandwidth_mbps)),
        ingress: file
            .fairness
            .as_ref()
            .map(|f| f.build(&scenario.tenant_slos_s, config.slo.as_secs_f64())),
        events,
        captures: captures.into_iter().map(Vec::into_iter).collect(),
        active: vec![false; cameras],
        slo,
        verdicts: verdicts.map(Vec::into_iter),
        drr_armed: false,
        drr_last_round: None,
        timer_armed: None,
        queued: 0,
        shadow: ShadowStitcher::new(config.canvas_size),
        batches: Vec::new(),
        patches: Vec::new(),
        transmission_busy: SimDuration::ZERO,
        dropped: 0,
        refused: 0,
        inputs_ok: true,
        scheduler_arrivals: 0,
        drr_rounds: 0,
        drr_peak_backlog: 0,
        reached_scheduler: BTreeMap::new(),
        net_waits_s: Vec::new(),
        queue_waits_s: Vec::new(),
        start_waits_s: Vec::new(),
    };
    replay.run_to_end();
    replay.finish()
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

impl Replay {
    fn run_to_end(&mut self) {
        while let Some((now, event)) = self.events.step() {
            self.handle(now, event);
        }
        // End of stream: flush what the scheduler still holds, then
        // acknowledge the remaining completions.
        let now = self.events.now();
        let (out, _) = self
            .spans
            .time("scheduler.drain", SpanId::None, Some(self.root), || {
                self.policy.flush(now)
            });
        self.shadow.on_flush(&out);
        for spec in out.dispatches {
            self.dispatch(now, spec);
        }
        while let Some((_, event)) = self.events.step() {
            if let Ev::FunctionComplete { id, .. } = event {
                self.complete(id);
            }
        }
        // Every recorded input must have been consumed.
        self.inputs_ok &= self.captures.iter_mut().all(|c| c.next().is_none());
        if let Some(verdicts) = self.verdicts.as_mut() {
            self.inputs_ok &= verdicts.next().is_none();
        }
        self.spans.close(self.root);
    }

    fn finish(self) -> ReplayOutcome {
        ReplayOutcome {
            spans: self.spans,
            batches: self.batches,
            patches: self.patches,
            link: self.link.stats(),
            platform: self.platform.stats(),
            transmission_busy: self.transmission_busy,
            ingress_admitted: self
                .ingress
                .as_ref()
                .map(DrrIngress::admitted_by_class)
                .unwrap_or_default(),
            ingress_peak_depth: self
                .ingress
                .as_ref()
                .map(DrrIngress::peak_depths)
                .unwrap_or_default(),
            dropped: self.dropped,
            refused: self.refused,
            inputs_ok: self.inputs_ok,
            stitch_ok: self.shadow.ok,
            stitch_calls: self.shadow.calls,
            stitch_items: self.shadow.items,
            scheduler_arrivals: self.scheduler_arrivals,
            drr_rounds: self.drr_rounds,
            drr_peak_backlog: self.drr_peak_backlog,
            net_waits_s: self.net_waits_s,
            queue_waits_s: self.queue_waits_s,
            start_waits_s: self.start_waits_s,
        }
    }

    fn handle(&mut self, now: SimTime, event: Ev) {
        match event {
            Ev::CameraJoin { cam } => {
                self.active[cam] = true;
                self.capture(now, cam);
            }
            Ev::Capture { cam } => {
                if self.active[cam] {
                    self.capture(now, cam);
                }
            }
            Ev::PatchArrival { arrival } => self.arrival(now, arrival),
            Ev::DrrTick => self.drr_tick(now),
            Ev::InvokeTimer => {
                if self.timer_armed == Some(now) {
                    self.timer_armed = None;
                }
                let (out, _) =
                    self.spans
                        .time("scheduler.on_timer", SpanId::None, Some(self.root), || {
                            self.policy.on_tick(now)
                        });
                self.shadow.on_flush(&out);
                self.apply(now, out);
            }
            Ev::FunctionComplete { id, feedback } => {
                self.complete(id);
                let (out, _) = self.spans.time(
                    "scheduler.on_completion",
                    SpanId::Invocation(id.raw()),
                    Some(self.root),
                    || self.policy.on_completion(now, feedback),
                );
                self.apply(now, out);
            }
        }
    }

    fn complete(&mut self, id: InvocationId) {
        let (known, _) = self.spans.time(
            "platform.complete",
            SpanId::Invocation(id.raw()),
            Some(self.root),
            || self.platform.complete(id),
        );
        self.inputs_ok &= known;
    }

    /// The engine's capture: materialise the recorded frame's patches
    /// onto the uplink and schedule the recorded next capture.
    fn capture(&mut self, now: SimTime, cam: usize) {
        let Some(record) = self.captures[cam].next() else {
            self.inputs_ok = false;
            self.active[cam] = false;
            return;
        };
        let Some(frame) = record.frame else {
            self.active[cam] = false;
            return;
        };
        self.inputs_ok &= record.now == Some(now);
        let slo = self.slo[cam];
        let ready = now + self.edge_delay;
        for patch in &frame.patches {
            let bytes = patch.encoded_size;
            let info = PatchInfo {
                generated_at: now,
                slo,
                ..patch.info
            };
            let busy = self.link.busy_until();
            self.net_waits_s.push(if busy > ready {
                secs(busy.since(ready))
            } else {
                0.0
            });
            let (delivered, _) = self.spans.time(
                "net.enqueue",
                SpanId::Patch(info.id.raw()),
                Some(self.root),
                || self.link.enqueue(ready, bytes),
            );
            self.transmission_busy += self.link.config().bandwidth.transmission_time(bytes);
            self.events.schedule(
                delivered,
                Ev::PatchArrival {
                    arrival: Arrival::Patch(Patch::new(info, bytes)),
                },
            );
        }
        if !record.exhausted && self.active[cam] {
            match record.next {
                Some(next) => self.events.schedule(next, Ev::Capture { cam }),
                None => self.inputs_ok = false,
            }
        }
    }

    fn snapshot(&mut self, now: SimTime, backlog: usize) -> AdmissionSignals {
        let (backend, _) =
            self.spans
                .time("platform.snapshot", SpanId::None, Some(self.root), || {
                    self.platform.snapshot(now)
                });
        AdmissionSignals {
            queued: self.queued + backlog,
            backend,
        }
    }

    fn on_signals(&mut self, now: SimTime, signals: &AdmissionSignals) {
        self.spans.time(
            "scheduler.on_signals",
            SpanId::None,
            Some(self.root),
            || {
                self.policy.on_signals(now, signals);
            },
        );
    }

    /// An arrival at the cloud: the recorded verdict, then the fair
    /// ingress or the scheduler.
    fn arrival(&mut self, now: SimTime, arrival: Arrival) {
        let id = arrival.info().id.raw();
        let signals = (self.verdicts.is_some() || self.admission_aware).then(|| {
            let backlog = self.ingress.as_ref().map_or(0, DrrIngress::backlog);
            self.snapshot(now, backlog)
        });
        if let Some(verdicts) = self.verdicts.as_mut() {
            let verdict = match verdicts.next() {
                Some(record) => {
                    self.inputs_ok &=
                        record.now == now && record.patch == id && Some(record.signals) == signals;
                    record.verdict
                }
                None => {
                    self.inputs_ok = false;
                    Admission::Accept
                }
            };
            if verdict == Admission::Drop {
                self.dropped += 1;
                self.refused += 1;
                return;
            }
        }
        if self.admission_aware {
            let signals = signals.expect("signals built for the policy");
            self.on_signals(now, &signals);
        }
        let Some(ingress) = self.ingress.as_mut() else {
            self.schedule_arrival(now, arrival);
            return;
        };
        let tick = ingress.tick();
        let (admitted, _) =
            self.spans
                .time("drr.enqueue", SpanId::Patch(id), Some(self.root), || {
                    ingress.enqueue(arrival)
                });
        self.drr_peak_backlog = self.drr_peak_backlog.max(ingress.backlog() as u64);
        match admitted {
            Ok(()) => {
                if !self.drr_armed {
                    self.drr_armed = true;
                    let at = self
                        .drr_last_round
                        .map_or(now, |last| (last + tick).max(now));
                    self.events.schedule(at, Ev::DrrTick);
                }
            }
            Err(_) => self.dropped += 1,
        }
    }

    fn drr_tick(&mut self, now: SimTime) {
        let Some(ingress) = self.ingress.as_mut() else {
            return;
        };
        self.drr_last_round = Some(now);
        self.drr_rounds += 1;
        let (released, _) = self
            .spans
            .time("drr.round", SpanId::None, Some(self.root), || {
                ingress.service_round()
            });
        let backlog = ingress.backlog();
        let tick = ingress.tick();
        if self.admission_aware && !released.is_empty() {
            let signals = self.snapshot(now, backlog);
            self.on_signals(now, &signals);
        }
        for arrival in released {
            self.schedule_arrival(now, arrival);
        }
        if backlog > 0 {
            self.events.schedule(now + tick, Ev::DrrTick);
        } else {
            self.drr_armed = false;
        }
    }

    fn schedule_arrival(&mut self, now: SimTime, arrival: Arrival) {
        let info = *arrival.info();
        self.scheduler_arrivals += 1;
        self.reached_scheduler.entry(info.id.raw()).or_insert(now);
        let (out, span) = self.spans.time(
            "scheduler.on_patch",
            SpanId::Patch(info.id.raw()),
            Some(self.root),
            || self.policy.on_arrival(now, arrival),
        );
        self.shadow.on_patch(&mut self.spans, info, &out, span);
        self.queued += out.accepted;
        self.apply(now, out);
        self.shadow.ok &= self.shadow.queue.len() == self.policy.queue_len();
    }

    fn apply(&mut self, now: SimTime, out: PolicyOutput) {
        for spec in out.dispatches {
            self.dispatch(now, spec);
        }
        if let Some(wake) = out.next_wake {
            let wake = wake.max(now);
            if self.timer_armed.is_none_or(|armed| wake < armed) {
                self.timer_armed = Some(wake);
                self.events.schedule(wake, Ev::InvokeTimer);
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, spec: BatchSpec) {
        if spec.patches.is_empty() {
            return;
        }
        match self.queued.checked_sub(spec.patches.len()) {
            Some(left) => self.queued = left,
            None => self.inputs_ok = false,
        }
        let max = self.platform.spec().max_canvases().max(1);
        let request = InvocationRequest {
            canvases: spec.inputs.min(max),
            megapixels: spec.megapixels,
            submitted: now,
        };
        let (outcome, span) =
            self.spans
                .time("platform.submit", SpanId::None, Some(self.root), || {
                    self.platform.submit(request)
                });
        let Ok(outcome) = outcome else {
            self.inputs_ok = false;
            return;
        };
        self.spans
            .set_id(span, SpanId::Invocation(outcome.id.raw()));
        self.start_waits_s.push(secs(outcome.started.since(now)));
        let finished = outcome.finished;
        let mut violations = 0;
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
            if let Some(&reached) = self.reached_scheduler.get(&p.id.raw()) {
                self.queue_waits_s.push(secs(now.since(reached)));
            }
            self.patches.push(record);
        }
        self.batches.push(BatchRecord {
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
            Ev::FunctionComplete {
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
