//! The online SLO-aware batching invoker — Algorithm 2 of the paper.
//!
//! State: a queue `Q` of pending patches and its current stitching `C`
//! (a set of open canvases). On every patch arrival the scheduler
//!
//! 1. takes the earliest deadline `t_DDL = min t_ddl_i` over `Q` and the
//!    new patch (kept as a running minimum);
//! 2. probes the open stitching for the patch — does any open canvas
//!    have room, or would it open a new one? — and asks the Latency
//!    Estimator for the conservative execution bound `T_slack = µ + 3σ`
//!    of the resulting canvas count;
//! 3. computes the invoke-by instant `t_remain = t_DDL − T_slack`;
//! 4. if `t_remain` is already in the past — adding this patch would
//!    break the SLO — or the canvases would no longer fit the function's
//!    GPU memory (constraint (5)), it dispatches the open canvases
//!    `C_old` immediately and restarts the queue with just the new patch;
//!    otherwise the patch joins the open canvases;
//! 5. (re-)arms a timer for `t_remain`; when the clock reaches it, the
//!    whole canvas set dispatches as one batch.
//!
//! Algorithm 2 re-stitches the whole queue on every arrival. The solver
//! is online first-fit in queue order and `Q` only grows between
//! dispatches, so re-stitching `Q + p` yields exactly the canvases of
//! inserting `p` into the open stitching: the scheduler extends the open
//! stitching by one patch per arrival ([`OpenStitching`]), which is
//! equivalent to Algorithm 2 at a cost linear in the open canvases
//! rather than in the queue.
//!
//! The scheduler is a pure state machine (no IO, no clock reads): both
//! the discrete-event engine and the live threaded runtime drive it with
//! explicit times, which makes Algorithm 2 directly unit-testable.

use crate::policy::{Arrival, BatchSpec, BatchingPolicy, PolicyOutput};
use tangram_infer::estimator::LatencyEstimator;
use tangram_stitch::canvas::Canvas;
use tangram_stitch::solver::{split_to_fit, OpenStitching};
use tangram_types::geometry::Size;
use tangram_types::patch::PatchInfo;
use tangram_types::time::SimTime;

/// Static configuration of the Tangram scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Canvas extent `M × N` (the paper evaluates 1024×1024).
    pub canvas_size: Size,
    /// Maximum canvases one invocation may carry (constraint (5):
    /// `w·Σy + τ ≤ m_G`).
    pub max_canvases: usize,
    /// Admission-aware invoke timing: when set, the scheduler consults
    /// the ingress load signals (fed through
    /// [`crate::policy::BatchingPolicy::on_signals`]) and refuses to
    /// dispatch before the backend's predicted earliest start —
    /// dispatching a batch the backend cannot begin yet buys nothing,
    /// while waiting lets more patches join the canvases. Off (the
    /// default) reproduces Algorithm 2 byte-for-byte.
    pub admission_aware: bool,
}

impl SchedulerConfig {
    /// The paper's defaults: 1024×1024 canvases, batch bound from the
    /// 6 GB-GPU function spec (9 canvases), admission-blind timing.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            canvas_size: Size::CANVAS_1024,
            max_canvases: 9,
            admission_aware: false,
        }
    }
}

/// The Tangram scheduler (Algorithm 2).
pub struct TangramScheduler {
    config: SchedulerConfig,
    estimator: LatencyEstimator,
    /// The pending queue `Q`.
    queue: Vec<PatchInfo>,
    /// Current stitching `C` of `queue`.
    stitching: OpenStitching,
    /// Earliest and latest deadline in `queue` (`None` when empty).
    deadlines: Option<(SimTime, SimTime)>,
    /// Armed invoke-by instant (`t_remain`), if any.
    invoke_by: Option<SimTime>,
    /// Latest observed backend earliest-start (admission-aware mode only;
    /// `None` until the first signal arrives).
    backend_free_at: Option<SimTime>,
}

impl TangramScheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the estimator was profiled for a different canvas size,
    /// or `max_canvases` is zero.
    #[must_use]
    pub fn new(config: SchedulerConfig, estimator: LatencyEstimator) -> Self {
        assert!(
            config.max_canvases > 0,
            "need at least one canvas per batch"
        );
        assert_eq!(
            estimator.canvas(),
            config.canvas_size,
            "estimator profiled for a different canvas size"
        );
        let stitching = OpenStitching::new(config.canvas_size);
        Self {
            config,
            estimator,
            queue: Vec::new(),
            stitching,
            deadlines: None,
            invoke_by: None,
            backend_free_at: None,
        }
    }

    /// The scheduler configuration.
    #[must_use]
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Current queue length (pending patches).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Current number of open canvases.
    #[must_use]
    pub fn open_canvases(&self) -> usize {
        self.stitching.canvases().len()
    }

    /// Packer probes and inserts made so far: a deterministic count of
    /// the stitching work, at most `max_canvases + 1` per tile.
    #[must_use]
    pub fn packer_calls(&self) -> u64 {
        self.stitching.packer_calls()
    }

    /// The armed invoke-by instant, if a batch is pending.
    #[must_use]
    pub fn invoke_by(&self) -> Option<SimTime> {
        self.invoke_by
    }

    /// Accepts one patch at `now` (Algorithm 2, lines 4–18). Oversized
    /// patches (zone rectangles larger than the canvas) are pre-split into
    /// canvas-sized tiles that share the original deadline.
    pub fn on_patch(&mut self, now: SimTime, patch: PatchInfo) -> PolicyOutput {
        let mut out = PolicyOutput::idle();
        let tiles = self.normalize(patch);
        out.accepted = tiles.len();
        for tile in tiles {
            self.admit(now, tile, &mut out);
        }
        out.next_wake = self.invoke_by;
        out
    }

    /// Timer fired (line 19: `t = t_remain`). Spurious ticks are ignored.
    pub fn on_timer(&mut self, now: SimTime) -> PolicyOutput {
        match self.invoke_by {
            Some(t) if now >= t => self.flush_open_canvases(),
            _ => {
                let mut out = PolicyOutput::idle();
                out.next_wake = self.invoke_by;
                out
            }
        }
    }

    /// Dispatches whatever is queued (end of stream).
    pub fn drain(&mut self) -> PolicyOutput {
        self.flush_open_canvases()
    }

    /// Dispatches the open canvas set as one batch — the shared tail of
    /// [`Self::on_timer`] and [`Self::drain`]. A no-op on an empty queue.
    fn flush_open_canvases(&mut self) -> PolicyOutput {
        if self.queue.is_empty() {
            return PolicyOutput::idle();
        }
        PolicyOutput::dispatch(self.take_batch())
    }

    fn normalize(&self, patch: PatchInfo) -> Vec<PatchInfo> {
        if self.config.canvas_size.fits(patch.rect.size()) {
            return vec![patch];
        }
        split_to_fit(patch.rect, self.config.canvas_size)
            .into_iter()
            .map(|rect| PatchInfo { rect, ..patch })
            .collect()
    }

    /// Earliest and latest deadline of the queue plus `tile`.
    fn deadlines_with(&self, tile: &PatchInfo) -> (SimTime, SimTime) {
        let deadline = tile.deadline();
        self.deadlines
            .map_or((deadline, deadline), |(earliest, latest)| {
                (earliest.min(deadline), latest.max(deadline))
            })
    }

    /// Lines 8–10 for the queue plus `tile` on `canvases` canvases: the
    /// invoke-by instant `t_remain = t_DDL − T_slack`.
    ///
    /// Admission-aware wait extension: while the backend cannot start a
    /// batch before `backend_free_at`, dispatching earlier buys nothing —
    /// execution begins at the same instant either way — so the invoke-by
    /// deadline is pushed out to that instant, letting more patches join
    /// the canvases for free. The extension applies only while *every*
    /// queued patch is already doomed (even the latest deadline is
    /// unreachable from the backend-free instant): a feasible patch must
    /// never be dragged past its own slack by doomed queue-mates, and for
    /// feasible work the SLO-driven `t_remain` always governs. A no-op in
    /// the default (admission-blind) configuration.
    fn invoke_by_with(&self, now: SimTime, tile: &PatchInfo, canvases: usize) -> SimTime {
        let (earliest, latest) = self.deadlines_with(tile);
        let slack = self.estimator.slack_for(canvases);
        let invoke_by = if earliest.since(SimTime::ZERO) > slack {
            earliest - slack
        } else {
            SimTime::ZERO
        };
        match self.backend_free_at {
            Some(free) if self.config.admission_aware && free > now && free + slack >= latest => {
                invoke_by.max(free)
            }
            _ => invoke_by,
        }
    }

    fn admit(&mut self, now: SimTime, tile: PatchInfo, out: &mut PolicyOutput) {
        // Lines 5–10: would the tile join an open canvas or open a new
        // one, and when must the resulting canvas set be invoked?
        let slot = self.stitching.first_fit(tile.rect.size());
        let canvases = self.open_canvases() + usize::from(slot.is_none());
        let invoke_by = self.invoke_by_with(now, &tile, canvases);
        let over_memory = canvases > self.config.max_canvases;
        let (slot, invoke_by) = if (over_memory || invoke_by <= now) && !self.queue.is_empty() {
            // Lines 11–17: dispatch C_old (the open stitching, untouched
            // by the probe) and restart the queue with this tile.
            out.dispatches.push(self.take_batch());
            (None, self.invoke_by_with(now, &tile, 1))
        } else {
            (slot, invoke_by)
        };
        self.deadlines = Some(self.deadlines_with(&tile));
        self.stitching.place(tile, slot);
        self.queue.push(tile);
        if invoke_by <= now {
            // The tile cannot meet its SLO even alone: sending it
            // immediately minimises the overrun.
            out.dispatches.push(self.take_batch());
        } else {
            self.invoke_by = Some(invoke_by);
        }
    }

    /// Builds the dispatch for the current canvases and clears the state.
    fn take_batch(&mut self) -> BatchSpec {
        let patches = std::mem::take(&mut self.queue);
        let canvases = self.stitching.take();
        self.deadlines = None;
        self.invoke_by = None;
        let inputs = canvases.len();
        let megapixels = inputs as f64 * self.config.canvas_size.megapixels();
        BatchSpec {
            patches,
            inputs,
            megapixels,
            canvas_efficiencies: canvases.iter().map(Canvas::efficiency).collect(),
        }
    }
}

impl BatchingPolicy for TangramScheduler {
    fn name(&self) -> &'static str {
        "Tangram"
    }

    fn on_signals(&mut self, now: SimTime, signals: &crate::admission::AdmissionSignals) {
        if self.config.admission_aware {
            self.backend_free_at = Some(signals.backend.earliest_start.max(now));
        }
    }

    fn on_arrival(&mut self, now: SimTime, arrival: Arrival) -> PolicyOutput {
        match arrival {
            Arrival::Patch(p) => self.on_patch(now, p.info),
            Arrival::Frame(f) => {
                // Tangram never receives whole frames, but handle it
                // gracefully: treat as one oversized patch.
                self.on_patch(now, f.info)
            }
        }
    }

    fn on_tick(&mut self, now: SimTime) -> PolicyOutput {
        self.on_timer(now)
    }

    fn flush(&mut self, _now: SimTime) -> PolicyOutput {
        self.drain()
    }
}

/// The literal Algorithm 2 — re-stitch the whole queue on every arrival —
/// kept as the oracle the incremental [`TangramScheduler`] is tested
/// against.
#[cfg(test)]
mod oracle {
    use super::{BatchSpec, PolicyOutput, SchedulerConfig};
    use tangram_infer::estimator::LatencyEstimator;
    use tangram_stitch::canvas::Canvas;
    use tangram_stitch::solver::{split_to_fit, PatchStitchingSolver};
    use tangram_types::patch::PatchInfo;
    use tangram_types::time::{SimDuration, SimTime};

    pub(super) struct RestitchScheduler {
        config: SchedulerConfig,
        solver: PatchStitchingSolver,
        estimator: LatencyEstimator,
        queue: Vec<PatchInfo>,
        pub(super) canvases: Vec<Canvas>,
        invoke_by: Option<SimTime>,
        backend_free_at: Option<SimTime>,
    }

    impl RestitchScheduler {
        pub(super) fn new(config: SchedulerConfig, estimator: LatencyEstimator) -> Self {
            let solver = PatchStitchingSolver::new(config.canvas_size);
            Self {
                config,
                solver,
                estimator,
                queue: Vec::new(),
                canvases: Vec::new(),
                invoke_by: None,
                backend_free_at: None,
            }
        }

        pub(super) fn on_signals(&mut self, now: SimTime, earliest_start: SimTime) {
            if self.config.admission_aware {
                self.backend_free_at = Some(earliest_start.max(now));
            }
        }

        pub(super) fn on_patch(&mut self, now: SimTime, patch: PatchInfo) -> PolicyOutput {
            let mut out = PolicyOutput::idle();
            let tiles: Vec<PatchInfo> = split_to_fit(patch.rect, self.config.canvas_size)
                .into_iter()
                .map(|rect| PatchInfo { rect, ..patch })
                .collect();
            out.accepted = tiles.len();
            for tile in tiles {
                self.admit(now, tile, &mut out);
            }
            out.next_wake = self.invoke_by;
            out
        }

        pub(super) fn on_timer(&mut self, now: SimTime) -> PolicyOutput {
            match self.invoke_by {
                Some(t) if now >= t => self.drain(),
                _ => {
                    let mut out = PolicyOutput::idle();
                    out.next_wake = self.invoke_by;
                    out
                }
            }
        }

        pub(super) fn drain(&mut self) -> PolicyOutput {
            if self.queue.is_empty() {
                return PolicyOutput::idle();
            }
            PolicyOutput::dispatch(self.take_batch())
        }

        /// `t_remain` of the current stitching `canvases` of the queue.
        fn invoke_by_for(&self, now: SimTime, canvases: &[Canvas]) -> SimTime {
            let t_ddl = canvases
                .iter()
                .filter_map(Canvas::earliest_deadline)
                .min()
                .expect("queue is non-empty");
            let slack = self.estimator.slack_for(canvases.len());
            let invoke_by = if t_ddl.since(SimTime::ZERO) > slack {
                t_ddl - slack
            } else {
                SimTime::ZERO
            };
            self.effective_invoke_by(now, invoke_by, slack)
        }

        fn effective_invoke_by(
            &self,
            now: SimTime,
            invoke_by: SimTime,
            slack: SimDuration,
        ) -> SimTime {
            if !self.config.admission_aware {
                return invoke_by;
            }
            let Some(free) = self.backend_free_at.filter(|&free| free > now) else {
                return invoke_by;
            };
            let all_doomed = self
                .queue
                .iter()
                .map(PatchInfo::deadline)
                .max()
                .is_some_and(|latest| free + slack >= latest);
            if all_doomed {
                invoke_by.max(free)
            } else {
                invoke_by
            }
        }

        fn admit(&mut self, now: SimTime, patch: PatchInfo, out: &mut PolicyOutput) {
            self.queue.push(patch);
            let canvases = self.solver.stitch(&self.queue).expect("tiles fit");
            let invoke_by = self.invoke_by_for(now, &canvases);
            let over_memory = canvases.len() > self.config.max_canvases;
            let too_late = invoke_by <= now;
            if (over_memory || too_late) && self.queue.len() > 1 {
                let new_patch = self.queue.pop().expect("just pushed");
                out.dispatches.push(self.take_batch());
                self.queue.push(new_patch);
                let canvases = self.solver.stitch(&self.queue).expect("tile fits");
                let invoke_by = self.invoke_by_for(now, &canvases);
                self.canvases = canvases;
                if invoke_by <= now {
                    out.dispatches.push(self.take_batch());
                } else {
                    self.invoke_by = Some(invoke_by);
                }
            } else {
                self.canvases = canvases;
                if too_late {
                    out.dispatches.push(self.take_batch());
                } else {
                    self.invoke_by = Some(invoke_by);
                }
            }
        }

        fn take_batch(&mut self) -> BatchSpec {
            let patches = std::mem::take(&mut self.queue);
            let canvases = std::mem::take(&mut self.canvases);
            self.invoke_by = None;
            BatchSpec {
                patches,
                inputs: canvases.len(),
                megapixels: canvases.len() as f64 * self.config.canvas_size.megapixels(),
                canvas_efficiencies: canvases.iter().map(Canvas::efficiency).collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_infer::latency::InferenceLatencyModel;
    use tangram_types::geometry::Rect;
    use tangram_types::ids::{CameraId, FrameId, PatchId};
    use tangram_types::time::SimDuration;

    fn scheduler() -> TangramScheduler {
        let estimator = LatencyEstimator::paper_default(
            &InferenceLatencyModel::rtx4090_yolov8x(),
            Size::CANVAS_1024,
            9,
        );
        TangramScheduler::new(SchedulerConfig::paper_default(), estimator)
    }

    fn patch(id: u64, w: u32, h: u32, gen_ms: u64, slo_ms: u64) -> PatchInfo {
        PatchInfo::new(
            PatchId::new(id),
            CameraId::new(0),
            FrameId::new(0),
            Rect::new(0, 0, w, h),
            SimTime::from_micros(gen_ms * 1000),
            SimDuration::from_millis(slo_ms),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    #[test]
    fn patch_waits_until_invoke_by() {
        let mut s = scheduler();
        let out = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert!(out.dispatches.is_empty(), "plenty of budget: wait");
        let invoke_by = out.next_wake.expect("timer armed");
        // t_remain = deadline (1 s) − slack(1 canvas) ≈ 1 s − ~0.1 s.
        assert!(
            invoke_by > t(700) && invoke_by < t(1000),
            "invoke_by {invoke_by}"
        );
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn timer_dispatches_batch() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        let _ = s.on_patch(t(10), patch(2, 400, 200, 10, 1000));
        let invoke_by = s.invoke_by().unwrap();
        // Early tick: nothing.
        let early = s.on_timer(t(100));
        assert!(early.dispatches.is_empty());
        // On-time tick: everything in one batch.
        let fire = s.on_timer(invoke_by);
        assert_eq!(fire.dispatches.len(), 1);
        let batch = &fire.dispatches[0];
        assert_eq!(batch.patch_count(), 2);
        assert_eq!(batch.inputs, 1, "two small patches share a canvas");
        assert!(!batch.canvas_efficiencies.is_empty());
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn deadline_is_min_across_patches() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 2000)); // lax
        let lax_invoke = s.invoke_by().unwrap();
        let _ = s.on_patch(t(1), patch(2, 300, 300, 1, 500)); // tight
        let tight_invoke = s.invoke_by().unwrap();
        assert!(
            tight_invoke < lax_invoke,
            "earliest deadline governs: {tight_invoke} vs {lax_invoke}"
        );
    }

    #[test]
    fn late_patch_flushes_old_queue_first() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        // This patch's deadline is nearly exhausted: stitching it with the
        // queue would violate, so the old canvas set dispatches and the new
        // patch forms the next queue (lines 11–17)… and since it cannot
        // make its own deadline either, it ships immediately too.
        let out = s.on_patch(t(900), patch(2, 300, 300, 0, 950));
        assert_eq!(out.dispatches.len(), 2);
        assert_eq!(out.dispatches[0].patches[0].id, PatchId::new(1));
        assert_eq!(out.dispatches[1].patches[0].id, PatchId::new(2));
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn late_patch_with_budget_restarts_queue() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        // Arrives late enough that batching with patch 1 is unsafe (its
        // invoke-by ≈ 1000 ms − slack ≈ 890 ms has passed), but fresh
        // enough to wait on its own.
        let out = s.on_patch(t(900), patch(2, 300, 300, 890, 1000));
        assert_eq!(out.dispatches.len(), 1, "old queue dispatches");
        assert_eq!(s.queue_len(), 1, "new patch starts the next queue");
        assert!(s.invoke_by().is_some());
    }

    #[test]
    fn gpu_memory_bound_forces_dispatch() {
        let mut s = scheduler();
        // 9 huge patches fill nine canvases (the paper's GPU bound).
        for i in 0..9 {
            let out = s.on_patch(t(i), patch(i, 1000, 1000, i, 60_000));
            assert!(out.dispatches.is_empty(), "patch {i} fits the bound");
        }
        assert_eq!(s.open_canvases(), 9);
        // The tenth would need a tenth canvas -> C_old dispatches.
        let out = s.on_patch(t(9), patch(9, 1000, 1000, 9, 60_000));
        assert_eq!(out.dispatches.len(), 1);
        assert_eq!(out.dispatches[0].inputs, 9);
        assert_eq!(s.queue_len(), 1, "new patch begins the next batch");
    }

    #[test]
    fn oversized_patch_is_tiled() {
        let mut s = scheduler();
        // A 2000×1500 zone patch cannot fit a 1024² canvas: 2×2 tiles.
        let out = s.on_patch(t(0), patch(1, 2000, 1500, 0, 5000));
        assert!(out.dispatches.is_empty());
        assert_eq!(s.queue_len(), 4);
    }

    #[test]
    fn drain_flushes_queue() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 200, 200, 0, 10_000));
        let out = s.drain();
        assert_eq!(out.dispatches.len(), 1);
        assert_eq!(s.queue_len(), 0);
        assert!(s.drain().dispatches.is_empty(), "second drain is a no-op");
    }

    #[test]
    fn flush_on_empty_queue_is_a_no_op() {
        let mut s = scheduler();
        let out = s.flush_open_canvases();
        assert!(out.dispatches.is_empty());
        assert_eq!(out.next_wake, None);
        assert_eq!(s.queue_len(), 0);
        assert!(s.invoke_by().is_none());
        // A flush with work dispatches once; the next flush is empty again.
        let _ = s.on_patch(t(0), patch(1, 200, 200, 0, 10_000));
        assert_eq!(s.flush_open_canvases().dispatches.len(), 1);
        assert!(s.flush_open_canvases().dispatches.is_empty());
    }

    #[test]
    fn spurious_timer_is_harmless() {
        let mut s = scheduler();
        let out = s.on_timer(t(50));
        assert!(out.dispatches.is_empty());
        assert_eq!(out.next_wake, None);
    }

    fn aware_scheduler() -> TangramScheduler {
        let estimator = LatencyEstimator::paper_default(
            &InferenceLatencyModel::rtx4090_yolov8x(),
            Size::CANVAS_1024,
            9,
        );
        let config = SchedulerConfig {
            admission_aware: true,
            ..SchedulerConfig::paper_default()
        };
        TangramScheduler::new(config, estimator)
    }

    fn signals(earliest_start_ms: u64) -> crate::admission::AdmissionSignals {
        crate::admission::AdmissionSignals {
            queued: 0,
            backend: tangram_serverless::platform::BackendSnapshot {
                in_flight: 0,
                live_instances: 1,
                max_instances: Some(1),
                earliest_start: t(earliest_start_ms),
                backlog: SimDuration::ZERO,
            },
        }
    }

    #[test]
    fn admission_aware_scheduler_waits_for_a_saturated_backend() {
        let mut s = aware_scheduler();
        // Backend saturated until t = 2 s.
        s.on_signals(t(0), &signals(2000));
        // The patch's own invoke-by (~890 ms) is earlier than the backend
        // can start: the timer extends to the backend-free instant.
        let out = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert!(out.dispatches.is_empty());
        assert_eq!(out.next_wake, Some(t(2000)));
        // A second patch whose deadline has already passed would normally
        // force an immediate dispatch (lines 11–17); aware of the
        // saturated backend, the scheduler keeps batching — execution
        // cannot begin before 2 s either way.
        let out = s.on_patch(t(1900), patch(2, 300, 300, 0, 1000));
        assert!(out.dispatches.is_empty());
        assert_eq!(s.queue_len(), 2);
        // The timer at the backend-free instant flushes one joint batch.
        let fire = s.on_timer(t(2000));
        assert_eq!(fire.dispatches.len(), 1);
        assert_eq!(fire.dispatches[0].patch_count(), 2);
    }

    #[test]
    fn aware_scheduler_never_drags_feasible_work_behind_doomed_batches() {
        let mut s = aware_scheduler();
        s.on_signals(t(0), &signals(2000));
        // A doomed patch (deadline 1 s, backend busy until 2 s) waits for
        // the backend-free instant.
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert_eq!(s.invoke_by(), Some(t(2000)));
        // A feasible patch (deadline 5.1 s) joins: the queue is no longer
        // all-doomed, so the SLO-driven `t_remain` (min deadline − slack
        // ≈ 0.89 s) governs again instead of the 2 s backend wait.
        let out = s.on_patch(t(100), patch(2, 300, 300, 100, 5000));
        assert!(out.dispatches.is_empty());
        let wake = s.invoke_by().expect("timer armed");
        assert!(
            wake < t(1000),
            "feasible work reverts to SLO timing: {wake}"
        );
    }

    #[test]
    fn admission_blind_scheduler_ignores_signals() {
        let mut s = scheduler();
        s.on_signals(t(0), &signals(2000));
        let out = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        let invoke_by = out.next_wake.expect("timer armed");
        assert!(
            invoke_by < t(1000),
            "legacy timing must be untouched: {invoke_by}"
        );
    }

    #[test]
    fn aware_scheduler_with_an_idle_backend_matches_legacy_timing() {
        let mut aware = aware_scheduler();
        // Idle backend: earliest start is "now", so max() is a no-op.
        aware.on_signals(t(0), &signals(0));
        let mut blind = scheduler();
        let a = aware.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        let b = blind.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert_eq!(a.next_wake, b.next_wake);
        assert_eq!(a.dispatches.len(), b.dispatches.len());
    }

    #[test]
    fn efficiency_reported_per_canvas() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 512, 512, 0, 2000));
        let _ = s.on_patch(t(1), patch(2, 512, 512, 1, 2000));
        let out = s.drain();
        let batch = &out.dispatches[0];
        assert_eq!(batch.canvas_efficiencies.len(), batch.inputs);
        let eff = batch.canvas_efficiencies[0];
        assert!((eff - 0.5).abs() < 1e-9, "two 512² patches on 1024²: {eff}");
    }

    /// A comparable rendering of one policy output (floats by bits).
    type OutputKey = (
        usize,
        Option<SimTime>,
        Vec<(Vec<PatchInfo>, usize, u64, Vec<u64>)>,
    );

    fn key(out: &PolicyOutput) -> OutputKey {
        let batches = out
            .dispatches
            .iter()
            .map(|b| {
                let eff = b.canvas_efficiencies.iter().map(|e| e.to_bits()).collect();
                (b.patches.clone(), b.inputs, b.megapixels.to_bits(), eff)
            })
            .collect();
        (out.accepted, out.next_wake, batches)
    }

    /// A DetRng arrival whose tile sizes include oversized zone patches
    /// and whose SLOs range from already blown to lax.
    fn random_patch(rng: &mut tangram_sim::rng::DetRng, id: u64, now: SimTime) -> PatchInfo {
        let dim = |rng: &mut tangram_sim::rng::DetRng| {
            if rng.chance(0.05) {
                1025 + rng.index(1500) as u32
            } else {
                40 + rng.index(700) as u32
            }
        };
        let (w, h) = (dim(rng), dim(rng));
        let age = SimDuration::from_micros(rng.index(400_000) as u64);
        let slo_ms = if rng.chance(0.3) {
            50 + rng.index(250) as u64
        } else {
            500 + rng.index(3000) as u64
        };
        PatchInfo::new(
            PatchId::new(id),
            CameraId::new(rng.index(4) as u32),
            FrameId::new(id),
            Rect::new(0, 0, w, h),
            SimTime::ZERO + now.since(SimTime::ZERO).saturating_sub(age),
            SimDuration::from_millis(slo_ms),
        )
    }

    #[test]
    fn incremental_scheduler_matches_the_restitch_oracle() {
        let root = tangram_sim::rng::DetRng::new(0x7a9_6ea);
        let mut batches = [0usize; 3];
        for (m, max_canvases) in [1usize, 2, 9].into_iter().enumerate() {
            for admission_aware in [false, true] {
                for run in 0..6u64 {
                    let mut rng = root.fork_indexed(
                        "scheduler-diff",
                        run + 16 * max_canvases as u64 + 1000 * u64::from(admission_aware),
                    );
                    let config = SchedulerConfig {
                        max_canvases,
                        admission_aware,
                        ..SchedulerConfig::paper_default()
                    };
                    let estimator = LatencyEstimator::paper_default(
                        &InferenceLatencyModel::rtx4090_yolov8x(),
                        Size::CANVAS_1024,
                        9,
                    );
                    let mut fast = TangramScheduler::new(config.clone(), estimator.clone());
                    let mut slow = oracle::RestitchScheduler::new(config, estimator);
                    let mut now = SimTime::ZERO;
                    for id in 0..400u64 {
                        now += SimDuration::from_micros(rng.index(30_000) as u64);
                        let (a, b) = match rng.index(10) {
                            0 => {
                                let free =
                                    now + SimDuration::from_micros(rng.index(800_000) as u64);
                                let mut sig = signals(0);
                                sig.backend.earliest_start = free;
                                fast.on_signals(now, &sig);
                                slow.on_signals(now, free);
                                continue;
                            }
                            1 => {
                                // Timer: sometimes exactly at the armed instant.
                                if let Some(t) = fast.invoke_by().filter(|&t| t > now) {
                                    if rng.chance(0.5) {
                                        now = t;
                                    }
                                }
                                (fast.on_timer(now), slow.on_timer(now))
                            }
                            _ => {
                                let p = random_patch(&mut rng, id, now);
                                (fast.on_patch(now, p), slow.on_patch(now, p))
                            }
                        };
                        assert_eq!(key(&a), key(&b), "call {id} (max {max_canvases})");
                        assert_eq!(fast.stitching.canvases(), slow.canvases.as_slice());
                        batches[m] += a.dispatches.len();
                    }
                    assert_eq!(key(&fast.drain()), key(&slow.drain()));
                }
            }
        }
        assert!(
            batches.iter().all(|&n| n > 50),
            "every bound dispatches: {batches:?}"
        );
    }

    #[test]
    fn arrival_work_is_linear_in_tiles() {
        let mut rng = tangram_sim::rng::DetRng::new(5000);
        let mut s = scheduler();
        let mut tiles = 0usize;
        let mut now = SimTime::ZERO;
        for id in 0..5000u64 {
            // Lax SLOs: queues run deep, where re-stitching was quadratic.
            let w = 40 + rng.index(400) as u32;
            let h = 40 + rng.index(400) as u32;
            now += SimDuration::from_micros(rng.index(2_000) as u64);
            let p = PatchInfo::new(
                PatchId::new(id),
                CameraId::new(0),
                FrameId::new(id),
                Rect::new(0, 0, w, h),
                now,
                SimDuration::from_secs(30),
            );
            tiles += s.on_patch(now, p).accepted;
        }
        let bound = (tiles * (s.config().max_canvases + 1)) as u64;
        assert_eq!(tiles, 5000);
        assert!(s.packer_calls() >= tiles as u64, "every tile is inserted");
        assert!(
            s.packer_calls() <= bound,
            "{} packer calls for {tiles} tiles (bound {bound})",
            s.packer_calls()
        );
    }
}
