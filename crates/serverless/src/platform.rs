//! The event-driven instance pool.
//!
//! Invocations arrive with a submission time; the platform routes each to
//! an idle warm instance, round-robin over idle warm instances by id
//! (NGINX's default), or cold-starts a new instance when none is free —
//! serverless scale-out on demand. At the instance cap a request queues
//! on the earliest-free instance. Instances expire after a keep-alive
//! window of idleness. Execution time is sampled from the inference
//! latency model, and every invocation is billed with Eqn. (1).
//!
//! Placement is one allocation-free pass over the instance pool, which is
//! kept in id order: reaping expired instances also counts the idle ones,
//! and the round-robin pick walks to the `(cursor % idle)`-th of them.
//! [`ServerlessPlatform::instance_scans`] counts the instances visited.

use crate::function::FunctionSpec;
use crate::lb::RoundRobin;
use crate::pricing::ResourcePrices;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_sim::rng::DetRng;
use tangram_types::ids::{InstanceId, InvocationId};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::Dollars;

/// A batch submitted for execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvocationRequest {
    /// Number of canvases in the batch (bounded by constraint (5)).
    pub canvases: usize,
    /// Total pixels of the batch in megapixels (drives execution time).
    pub megapixels: f64,
    /// When the scheduler dispatched the batch.
    pub submitted: SimTime,
}

/// The result of one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvocationOutcome {
    /// Invocation identity.
    pub id: InvocationId,
    /// Instance that served it.
    pub instance: InstanceId,
    /// Whether a cold start preceded execution.
    pub cold: bool,
    /// When execution began (submission + queueing + cold start).
    pub started: SimTime,
    /// When results were ready.
    pub finished: SimTime,
    /// Pure execution time (the billed duration's basis).
    pub execution: SimDuration,
    /// Eqn. (1) cost of this invocation.
    pub cost: Dollars,
}

/// Why an invocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The batch needs more GPU memory than one instance has
    /// (constraint (5)); the scheduler must split it.
    BatchTooLarge {
        /// Canvases requested.
        requested: usize,
        /// Canvases an instance can hold.
        capacity: usize,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::BatchTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "batch of {requested} canvases exceeds instance capacity {capacity}"
            ),
        }
    }
}

impl Error for PlatformError {}

#[derive(Debug, Clone)]
struct Instance {
    id: InstanceId,
    busy_until: SimTime,
    expires_at: SimTime,
}

/// A point-in-time reading of backend pressure — the signals an
/// ingress admission policy consumes to decide whether an arriving work
/// item can still be served in time.
///
/// Pure read: taking a snapshot never mutates the platform (no instance
/// reaping, no RNG draws), so admission control cannot perturb the
/// simulation of the work it admits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendSnapshot {
    /// Submitted invocations whose completion has not been acknowledged.
    pub in_flight: usize,
    /// Instances currently provisioned (warm or busy).
    pub live_instances: usize,
    /// The platform's instance cap (`None` = unlimited scale-out).
    pub max_instances: Option<usize>,
    /// When a batch submitted *now* would start executing: immediately on
    /// an idle warm instance, after the mean cold-start delay on
    /// scale-out, or queued behind the earliest-free instance at the cap.
    pub earliest_start: SimTime,
    /// Total remaining in-flight execution time (sum over invocations of
    /// `finished - now`).
    pub backlog: SimDuration,
}

/// Aggregate platform statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlatformStats {
    /// Invocations served.
    pub invocations: u64,
    /// Cold starts among them.
    pub cold_starts: u64,
    /// Total execution time across instances.
    pub busy_time: SimDuration,
    /// Total Eqn. (1) cost.
    pub total_cost: Dollars,
    /// Peak number of simultaneously live instances.
    pub peak_instances: usize,
}

/// The serverless backend.
pub struct ServerlessPlatform {
    spec: FunctionSpec,
    prices: ResourcePrices,
    model: InferenceLatencyModel,
    /// Round-robin position: advanced once per submit that finds an idle
    /// warm instance.
    round_robin: RoundRobin,
    /// Instances visited by [`Self::submit`] (see [`Self::instance_scans`]).
    instance_scans: u64,
    /// Keep-alive window before an idle instance is reclaimed.
    pub keep_alive: SimDuration,
    /// Mean cold-start delay (lognormal-sampled; §I: "tens of
    /// milliseconds" for a pre-provisioned GPU runtime).
    pub cold_start_mean: SimDuration,
    /// Physical capacity cap: at most this many simultaneous instances
    /// (the paper's testbed hosts ~8 six-GB functions on two 24-GB
    /// RTX 4090s). `None` = unlimited scale-out. Requests beyond the cap
    /// queue on the earliest-free instance.
    pub max_instances: Option<usize>,
    instances: Vec<Instance>,
    next_instance: InstanceId,
    next_invocation: InvocationId,
    stats: PlatformStats,
    /// Execution-time multiplier for backend brownout injection: every
    /// sampled execution is scaled by this factor. Exactly 1.0 (the
    /// default) is a guaranteed no-op — the sampled duration is passed
    /// through untouched, keeping fault-free runs byte-identical.
    compute_factor: f64,
    rng: DetRng,
    /// Invocations submitted but not yet acknowledged by the driver:
    /// `(id, finishes_at)` in submission order.
    in_flight: Vec<(InvocationId, SimTime)>,
}

impl ServerlessPlatform {
    /// Creates a platform with the paper's defaults: Alibaba FC pricing,
    /// round-robin balancing, 60 s keep-alive, ~60 ms cold starts.
    #[must_use]
    pub fn new(spec: FunctionSpec, model: InferenceLatencyModel, seed: u64) -> Self {
        Self {
            spec,
            prices: ResourcePrices::alibaba_fc(),
            model,
            round_robin: RoundRobin::default(),
            instance_scans: 0,
            keep_alive: SimDuration::from_secs(60),
            cold_start_mean: SimDuration::from_millis(60),
            max_instances: Some(8),
            instances: Vec::new(),
            next_instance: InstanceId::default(),
            next_invocation: InvocationId::default(),
            stats: PlatformStats::default(),
            compute_factor: 1.0,
            rng: DetRng::new(seed).fork("serverless"),
            in_flight: Vec::new(),
        }
    }

    /// Replaces the price table.
    #[must_use]
    pub fn with_prices(mut self, prices: ResourcePrices) -> Self {
        self.prices = prices;
        self
    }

    /// The function spec in force.
    #[must_use]
    pub fn spec(&self) -> &FunctionSpec {
        &self.spec
    }

    /// Aggregate statistics so far.
    #[must_use]
    pub fn stats(&self) -> PlatformStats {
        self.stats
    }

    /// Instances visited by [`Self::submit`] so far: a deterministic work
    /// counter. Placement is linear in the pool, so this stays within a
    /// small multiple of `submits × live instances`.
    #[must_use]
    pub fn instance_scans(&self) -> u64 {
        self.instance_scans
    }

    /// Sets the brownout execution-time multiplier (see the
    /// `compute_factor` field). 1.0 restores exact no-fault timing: the
    /// latency model's draw sequence is never perturbed, only the
    /// already-sampled duration is scaled.
    pub fn set_compute_factor(&mut self, factor: f64) {
        self.compute_factor = factor;
    }

    /// The brownout execution-time multiplier in force.
    #[must_use]
    pub fn compute_factor(&self) -> f64 {
        self.compute_factor
    }

    /// Evicts idle warm instances (cold-start-storm injection): every
    /// instance not executing at `now` is reclaimed immediately, so the
    /// next submission pays a fresh cold start. Returns the number
    /// evicted. Busy instances finish their work — only warmth is lost.
    pub fn evict_idle(&mut self, now: SimTime) -> usize {
        let before = self.instances.len();
        self.instances.retain(|i| i.busy_until > now);
        before - self.instances.len()
    }

    /// Number of instances currently provisioned (warm or busy).
    #[must_use]
    pub fn live_instances(&self, now: SimTime) -> usize {
        self.instances
            .iter()
            .filter(|i| i.busy_until > now || i.expires_at > now)
            .count()
    }

    /// Executes a batch and immediately acknowledges its completion — the
    /// synchronous convenience wrapper around [`Self::submit`] /
    /// [`Self::complete`] for callers that do not run an event loop.
    ///
    /// # Errors
    ///
    /// [`PlatformError::BatchTooLarge`] when the batch violates the GPU
    /// memory bound (constraint (5)).
    pub fn invoke(
        &mut self,
        request: InvocationRequest,
    ) -> Result<InvocationOutcome, PlatformError> {
        let outcome = self.submit(request)?;
        self.complete(outcome.id);
        Ok(outcome)
    }

    /// Submits a batch for execution, leaving its completion *in flight*.
    ///
    /// The returned outcome carries the scheduled `finished` instant; an
    /// event-driven caller turns it into a `FunctionComplete` event and
    /// acknowledges delivery with [`Self::complete`] when that event
    /// fires. Until then the invocation counts toward
    /// [`Self::in_flight`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::BatchTooLarge`] when the batch violates the GPU
    /// memory bound (constraint (5)).
    pub fn submit(
        &mut self,
        request: InvocationRequest,
    ) -> Result<InvocationOutcome, PlatformError> {
        self.check_fits(&request)?;
        let now = request.submitted;
        let (instance_idx, cold, started) = match self.pick_idle(now) {
            Some(idx) => (idx, false, now),
            None => self.place_without_idle(now),
        };
        Ok(self.execute(instance_idx, cold, started, request))
    }

    fn check_fits(&self, request: &InvocationRequest) -> Result<(), PlatformError> {
        let capacity = self.spec.max_canvases();
        if request.canvases > capacity {
            return Err(PlatformError::BatchTooLarge {
                requested: request.canvases,
                capacity,
            });
        }
        Ok(())
    }

    /// Reaps expired instances and picks the next idle warm instance
    /// round-robin by id, returning its index. The cursor advances only
    /// when an idle instance exists.
    fn pick_idle(&mut self, now: SimTime) -> Option<usize> {
        self.instance_scans += self.instances.len() as u64;
        let mut idle = 0usize;
        self.instances.retain(|i| {
            let live = i.busy_until > now || i.expires_at > now;
            // A live instance that is not busy is warm by definition.
            idle += usize::from(live && i.busy_until <= now);
            live
        });
        let nth = self.round_robin.pick(idle)?;
        let idx = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.busy_until <= now)
            .nth(nth)
            .map(|(idx, _)| idx)
            .expect("nth < idle count");
        self.instance_scans += idx as u64 + 1;
        Some(idx)
    }

    /// Places a request when no instance is idle: scale out below the cap,
    /// else queue on the earliest-free instance. Returns
    /// `(instance index, cold, started)`.
    fn place_without_idle(&mut self, now: SimTime) -> (usize, bool, SimTime) {
        if self
            .max_instances
            .is_none_or(|cap| self.instances.len() < cap)
        {
            // Scale out: cold-start a fresh instance.
            let delay = self.sample_cold_start();
            let id = self.next_instance.bump();
            self.instances.push(Instance {
                id,
                busy_until: now,
                expires_at: now + self.keep_alive,
            });
            (self.instances.len() - 1, true, now + delay)
        } else {
            // Capacity cap: queue on the earliest-free instance.
            self.instance_scans += self.instances.len() as u64;
            let idx = self
                .instances
                .iter()
                .enumerate()
                .min_by_key(|(_, i)| i.busy_until)
                .map(|(i, _)| i)
                .expect("cap > 0 implies at least one instance");
            let start = self.instances[idx].busy_until.max(now);
            (idx, false, start)
        }
    }

    /// Samples, bills and records the invocation on the chosen instance.
    fn execute(
        &mut self,
        instance_idx: usize,
        cold: bool,
        started: SimTime,
        request: InvocationRequest,
    ) -> InvocationOutcome {
        let execution = self.model.sample(request.megapixels, &mut self.rng);
        // Brownout injection: scale the sampled duration without
        // touching the draw sequence. The exact-1.0 guard keeps
        // fault-free runs bit-identical (no float round-trip).
        let execution = if self.compute_factor == 1.0 {
            execution
        } else {
            execution.mul_f64(self.compute_factor)
        };
        let finished = started + execution;
        let cost = self.prices.invocation_cost(execution, &self.spec);

        let inst = &mut self.instances[instance_idx];
        inst.busy_until = finished;
        inst.expires_at = finished + self.keep_alive;

        self.stats.invocations += 1;
        if cold {
            self.stats.cold_starts += 1;
        }
        self.stats.busy_time += execution;
        self.stats.total_cost += cost;
        self.stats.peak_instances = self.stats.peak_instances.max(self.instances.len());

        let outcome = InvocationOutcome {
            id: self.next_invocation.bump(),
            instance: self.instances[instance_idx].id,
            cold,
            started,
            finished,
            execution,
            cost,
        };
        self.in_flight.push((outcome.id, outcome.finished));
        outcome
    }

    /// Acknowledges the completion event of a previously [`Self::submit`]ted
    /// invocation, returning whether it was in flight.
    ///
    /// Ids are unique ([`InvocationId::bump`] never repeats), so the first
    /// match is the only one; `swap_remove` keeps the ack O(1) — order is
    /// irrelevant because [`Self::next_completion`] scans with `min`.
    pub fn complete(&mut self, id: InvocationId) -> bool {
        match self
            .in_flight
            .iter()
            .position(|&(pending, _)| pending == id)
        {
            Some(index) => {
                self.in_flight.swap_remove(index);
                true
            }
            None => false,
        }
    }

    /// Number of submitted invocations whose completion event has not yet
    /// been acknowledged.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Reads the backend-pressure signals at `now` (see
    /// [`BackendSnapshot`]). Pure: never reaps instances or draws from
    /// the RNG.
    #[must_use]
    pub fn snapshot(&self, now: SimTime) -> BackendSnapshot {
        let live = |i: &&Instance| i.busy_until > now || i.expires_at > now;
        let live_instances = self.instances.iter().filter(live).count();
        let idle_warm = self
            .instances
            .iter()
            .any(|i| i.busy_until <= now && i.expires_at > now);
        let earliest_start = if idle_warm {
            now
        } else if self.max_instances.is_none_or(|cap| live_instances < cap) {
            // Scale-out path: the expected cold-start delay stands in for
            // the lognormal draw `submit` would make.
            now + self.cold_start_mean
        } else {
            self.instances
                .iter()
                .filter(live)
                .map(|i| i.busy_until)
                .min()
                .unwrap_or(now)
                .max(now)
        };
        let backlog = self
            .in_flight
            .iter()
            .map(|&(_, finished)| finished.since(now))
            .sum();
        BackendSnapshot {
            in_flight: self.in_flight.len(),
            live_instances,
            max_instances: self.max_instances,
            earliest_start,
            backlog,
        }
    }

    /// The earliest scheduled completion among in-flight invocations.
    #[must_use]
    pub fn next_completion(&self) -> Option<SimTime> {
        self.in_flight.iter().map(|&(_, at)| at).min()
    }

    fn sample_cold_start(&mut self) -> SimDuration {
        let mean = self.cold_start_mean.as_secs_f64();
        // Lognormal with mean ≈ cold_start_mean and a fat-ish tail.
        let sigma = 0.35f64;
        SimDuration::from_secs_f64(self.rng.lognormal(mean.ln() - sigma * sigma / 2.0, sigma))
    }
}

impl fmt::Debug for ServerlessPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerlessPlatform")
            .field("spec", &self.spec)
            .field("instances", &self.instances.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Placement as it was before the single-pass rewrite — reap, collect
/// the idle warm ids, pick one round-robin, map the id back to an index —
/// kept as the oracle [`ServerlessPlatform::submit`] is tested against.
/// Only the idle pick differs; scale-out, the capped queue and execution
/// are the platform's own.
#[cfg(test)]
mod oracle {
    use super::{InvocationOutcome, InvocationRequest, PlatformError, ServerlessPlatform};
    use tangram_types::ids::InstanceId;

    pub(super) struct LinearPlatform {
        pub(super) inner: ServerlessPlatform,
        /// The round-robin balancer's cursor.
        cursor: usize,
    }

    impl LinearPlatform {
        pub(super) fn new(inner: ServerlessPlatform) -> Self {
            Self { inner, cursor: 0 }
        }

        pub(super) fn submit(
            &mut self,
            request: InvocationRequest,
        ) -> Result<InvocationOutcome, PlatformError> {
            let p = &mut self.inner;
            p.check_fits(&request)?;
            let now = request.submitted;
            p.instances
                .retain(|i| i.busy_until > now || i.expires_at > now);
            let idle: Vec<InstanceId> = p
                .instances
                .iter()
                .filter(|i| i.busy_until <= now && i.expires_at > now)
                .map(|i| i.id)
                .collect();
            let pick = (!idle.is_empty()).then(|| {
                let choice = idle[self.cursor % idle.len()];
                self.cursor = self.cursor.wrapping_add(1);
                choice
            });
            let (idx, cold, started) = match pick {
                Some(chosen) => {
                    let idx = p
                        .instances
                        .iter()
                        .position(|i| i.id == chosen)
                        .expect("balancer picked a live instance");
                    (idx, false, now)
                }
                None => p.place_without_idle(now),
            };
            Ok(p.execute(idx, cold, started, request))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> ServerlessPlatform {
        ServerlessPlatform::new(
            FunctionSpec::paper_default(),
            InferenceLatencyModel::rtx4090_yolov8x(),
            7,
        )
    }

    fn req(canvases: usize, at_us: u64) -> InvocationRequest {
        InvocationRequest {
            canvases,
            megapixels: canvases as f64 * 1.05,
            submitted: SimTime::from_micros(at_us),
        }
    }

    #[test]
    fn first_invocation_cold_starts() {
        let mut p = platform();
        let o = p.invoke(req(1, 0)).unwrap();
        assert!(o.cold);
        assert!(o.started > SimTime::ZERO, "cold start delays execution");
        assert_eq!(p.stats().cold_starts, 1);
    }

    #[test]
    fn warm_instance_reused() {
        let mut p = platform();
        let first = p.invoke(req(1, 0)).unwrap();
        // Submit after the first finishes: instance is warm and idle.
        let second = p.invoke(req(1, first.finished.as_micros() + 1000)).unwrap();
        assert!(!second.cold);
        assert_eq!(second.instance, first.instance);
        assert_eq!(second.started, second.finished - second.execution);
    }

    #[test]
    fn concurrency_one_scales_out() {
        let mut p = platform();
        let a = p.invoke(req(1, 0)).unwrap();
        // Same submission time: first instance is busy → second cold start.
        let b = p.invoke(req(1, 0)).unwrap();
        assert!(b.cold);
        assert_ne!(a.instance, b.instance);
        assert_eq!(p.stats().peak_instances, 2);
    }

    #[test]
    fn keep_alive_expiry_forces_cold_start() {
        let mut p = platform();
        let first = p.invoke(req(1, 0)).unwrap();
        let after_expiry = first.finished + p.keep_alive + SimDuration::from_secs(1);
        let second = p.invoke(req(1, after_expiry.as_micros())).unwrap();
        assert!(second.cold, "keep-alive elapsed; must cold start");
    }

    #[test]
    fn batch_too_large_rejected() {
        let mut p = platform();
        let capacity = p.spec().max_canvases();
        let err = p.invoke(req(capacity + 1, 0)).unwrap_err();
        assert_eq!(
            err,
            PlatformError::BatchTooLarge {
                requested: capacity + 1,
                capacity
            }
        );
        assert!(err.to_string().contains("exceeds instance capacity"));
    }

    #[test]
    fn cost_accumulates_with_eqn1() {
        let mut p = platform();
        let o = p.invoke(req(2, 0)).unwrap();
        let expected = ResourcePrices::alibaba_fc()
            .invocation_cost(o.execution, &FunctionSpec::paper_default());
        assert!((o.cost.get() - expected.get()).abs() < 1e-12);
        assert!((p.stats().total_cost.get() - o.cost.get()).abs() < 1e-12);
    }

    #[test]
    fn bigger_batches_run_longer_but_amortize() {
        let mut p = platform();
        let small = p.invoke(req(1, 0)).unwrap();
        let big = p.invoke(req(8, 10_000_000)).unwrap();
        assert!(big.execution > small.execution);
        let per_canvas_small = small.execution.as_secs_f64();
        let per_canvas_big = big.execution.as_secs_f64() / 8.0;
        assert!(
            per_canvas_big < per_canvas_small,
            "batching must amortize the base cost"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = platform();
        let mut b = platform();
        let oa = a.invoke(req(3, 0)).unwrap();
        let ob = b.invoke(req(3, 0)).unwrap();
        assert_eq!(oa, ob);
    }

    #[test]
    fn submit_tracks_in_flight_until_completed() {
        let mut p = platform();
        let a = p.submit(req(1, 0)).unwrap();
        let b = p.submit(req(1, 0)).unwrap();
        assert_eq!(p.in_flight(), 2);
        assert_eq!(p.next_completion(), Some(a.finished.min(b.finished)));
        assert!(p.complete(a.id));
        assert_eq!(p.in_flight(), 1);
        assert!(!p.complete(a.id), "double-ack is a no-op");
        assert!(p.complete(b.id));
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    fn completing_an_unknown_id_is_a_no_op() {
        let mut p = platform();
        let a = p.submit(req(1, 0)).unwrap();
        let b = p.submit(req(1, 0)).unwrap();
        let stats_before = p.stats();
        let next_before = p.next_completion();

        // An id that was never issued: `bump` starts after the defaults,
        // so a far-future raw id can never collide.
        let unknown = InvocationId::new(u64::MAX);
        assert!(!p.complete(unknown));

        // Nothing moved: both invocations still in flight, same earliest
        // completion, same counters.
        assert_eq!(p.in_flight(), 2);
        assert_eq!(p.next_completion(), next_before);
        assert_eq!(p.stats(), stats_before);
        assert!(p.complete(a.id));
        assert!(p.complete(b.id));
    }

    #[test]
    fn snapshot_reads_pressure_without_mutating() {
        let mut p = platform();
        assert_eq!(p.snapshot(SimTime::ZERO).in_flight, 0);
        assert_eq!(p.snapshot(SimTime::ZERO).live_instances, 0);
        // Empty platform: a submission would cold-start.
        assert_eq!(
            p.snapshot(SimTime::ZERO).earliest_start,
            SimTime::ZERO + p.cold_start_mean
        );

        let a = p.submit(req(1, 0)).unwrap();
        let snap = p.snapshot(SimTime::ZERO);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.live_instances, 1);
        assert_eq!(snap.backlog, a.finished.since(SimTime::ZERO));
        // Instance busy, but scale-out is open below the cap.
        assert_eq!(snap.earliest_start, SimTime::ZERO + p.cold_start_mean);

        // Saturate the cap: a new submission queues on the earliest-free
        // instance.
        p.max_instances = Some(1);
        let capped = p.snapshot(SimTime::ZERO);
        assert_eq!(capped.earliest_start, a.finished);

        // After completion the warm instance is idle: start is immediate.
        assert!(p.complete(a.id));
        let idle = p.snapshot(a.finished);
        assert_eq!(idle.in_flight, 0);
        assert_eq!(idle.backlog, SimDuration::ZERO);
        assert_eq!(idle.earliest_start, a.finished);

        // Snapshots are pure: sampling state (and thus the next outcome)
        // is untouched by any number of reads.
        let mut fresh = platform();
        let _ = fresh.snapshot(SimTime::ZERO);
        let via_snapshots = fresh.invoke(req(3, 0)).unwrap();
        let direct = platform().invoke(req(3, 0)).unwrap();
        assert_eq!(via_snapshots, direct);
    }

    #[test]
    fn invoke_is_submit_plus_ack() {
        let mut p = platform();
        let o = p.invoke(req(1, 0)).unwrap();
        assert_eq!(p.in_flight(), 0, "invoke self-acknowledges");
        assert!(!p.complete(o.id));
    }

    #[test]
    fn submit_samples_identically_to_invoke() {
        let mut via_invoke = platform();
        let mut via_submit = platform();
        let a = via_invoke.invoke(req(3, 0)).unwrap();
        let b = via_submit.submit(req(3, 0)).unwrap();
        assert_eq!(a, b, "the event-driven path must not perturb sampling");
    }

    #[test]
    fn compute_factor_scales_execution_without_perturbing_draws() {
        let mut plain = platform();
        let mut browned = platform();
        browned.set_compute_factor(3.0);
        let a = plain.invoke(req(2, 0)).unwrap();
        let b = browned.invoke(req(2, 0)).unwrap();
        assert!(
            (b.execution.as_secs_f64() - 3.0 * a.execution.as_secs_f64()).abs() < 2e-6,
            "brownout must scale the same sampled draw"
        );
        // Restoring 1.0 restores the exact no-fault sequence.
        browned.set_compute_factor(1.0);
        let a2 = plain.invoke(req(2, 10_000_000)).unwrap();
        let b2 = browned.invoke(req(2, 10_000_000)).unwrap();
        assert_eq!(a2.execution, b2.execution);
    }

    #[test]
    fn evict_idle_forces_cold_starts_but_spares_busy_instances() {
        let mut p = platform();
        let first = p.invoke(req(1, 0)).unwrap();
        // Warm and idle after completion: eviction reclaims it.
        let idle_at = first.finished + SimDuration::from_millis(1);
        assert_eq!(p.evict_idle(idle_at), 1);
        let second = p.invoke(req(1, idle_at.as_micros())).unwrap();
        assert!(second.cold, "the warm pool was evicted");
        // A busy instance survives eviction mid-execution.
        let third = p.submit(req(1, second.finished.as_micros() + 1)).unwrap();
        assert_eq!(p.evict_idle(third.started + SimDuration::from_micros(1)), 0);
        assert!(p.complete(third.id));
    }

    #[test]
    fn live_instance_count_reflects_expiry() {
        let mut p = platform();
        let o = p.invoke(req(1, 0)).unwrap();
        assert_eq!(p.live_instances(o.finished), 1);
        let far = o.finished + p.keep_alive + SimDuration::from_secs(5);
        assert_eq!(p.live_instances(far), 0);
    }

    #[test]
    fn round_robin_rotates_over_idle_instances_by_id() {
        let mut p = platform();
        p.max_instances = None;
        let at = |s: u64| s * 1_000_000;
        // Three instances, cold-started together; no idle instance yet,
        // so the cursor stays at 0.
        for _ in 0..3 {
            assert!(p.invoke(req(1, 0)).unwrap().cold);
        }
        // Each submit finds all three idle: 0 → 1 → 2 → 0 by id.
        let picks: Vec<u32> = (1..=4)
            .map(|s| p.invoke(req(1, at(s))).unwrap().instance.raw())
            .collect();
        assert_eq!(picks, [0, 1, 2, 0]);
        // Same instant, shrinking idle set: cursor 4 % 3, 5 % 2, 6 % 1.
        let burst: Vec<u32> = (0..3)
            .map(|_| p.invoke(req(1, at(10))).unwrap().instance.raw())
            .collect();
        assert_eq!(burst, [1, 2, 0]);
        // No idle instance: scale out without advancing the cursor.
        let scaled = p.invoke(req(1, at(10))).unwrap();
        assert!(scaled.cold);
        assert_eq!(scaled.instance.raw(), 3);
        // Four idle: cursor 7 % 4 picks instance 3 (an advanced cursor
        // would pick instance 0).
        assert_eq!(p.invoke(req(1, at(20))).unwrap().instance.raw(), 3);
    }

    #[test]
    fn submit_matches_the_linear_oracle() {
        let mut rng = DetRng::new(1313);
        let mut picks = [0u64; 3]; // [warm with ≥ 2 idle, cold, capped]
        for cap in [None, Some(1), Some(2), Some(8)] {
            for case in 0..12u64 {
                let mut fast = ServerlessPlatform::new(
                    FunctionSpec::paper_default(),
                    InferenceLatencyModel::rtx4090_yolov8x(),
                    case,
                );
                fast.max_instances = cap;
                if case % 2 == 1 {
                    fast.keep_alive = SimDuration::from_millis(400);
                }
                let mut slow = oracle::LinearPlatform::new(ServerlessPlatform::new(
                    FunctionSpec::paper_default(),
                    InferenceLatencyModel::rtx4090_yolov8x(),
                    case,
                ));
                slow.inner.max_instances = cap;
                slow.inner.keep_alive = fast.keep_alive;
                let capacity = fast.spec().max_canvases();
                let mut now = SimTime::ZERO;
                let mut issued: Vec<(InvocationId, SimTime)> = Vec::new();
                for op in 0..400 {
                    let what = rng.uniform();
                    if what < 0.55 {
                        let idle_before = fast
                            .instances
                            .iter()
                            .filter(|i| i.busy_until <= now && i.expires_at > now)
                            .count();
                        let request = InvocationRequest {
                            canvases: 1 + rng.index(capacity + 1),
                            megapixels: rng.uniform_in(0.5, 9.0),
                            submitted: now,
                        };
                        let a = fast.submit(request);
                        let b = slow.submit(request);
                        assert_eq!(a, b, "op {op} (cap {cap:?}, case {case})");
                        if let (Ok(a), Ok(b)) = (a, b) {
                            assert_eq!(a.cost.get().to_bits(), b.cost.get().to_bits());
                            issued.push((a.id, a.finished));
                            if a.cold {
                                picks[1] += 1;
                            } else if a.started > now {
                                picks[2] += 1;
                            } else if idle_before >= 2 {
                                picks[0] += 1;
                            }
                        }
                    } else if what < 0.75 {
                        // Ack an issued id (possibly twice) or an unknown one.
                        let id = if issued.is_empty() || rng.chance(0.1) {
                            InvocationId::new(u64::MAX)
                        } else {
                            issued[rng.index(issued.len())].0
                        };
                        assert_eq!(fast.complete(id), slow.inner.complete(id));
                    } else if what < 0.8 {
                        assert_eq!(fast.evict_idle(now), slow.inner.evict_idle(now));
                    } else if what < 0.85 {
                        let factor = [1.0, 1.0, 2.5, 0.6][rng.index(4)];
                        fast.set_compute_factor(factor);
                        slow.inner.set_compute_factor(factor);
                    } else {
                        // Advance time: exactly to an issued invocation's
                        // finish or expiry (the idle and expired
                        // boundaries), past the keep-alive, or by a short
                        // gap. Same-instant bursts are the submits between.
                        let finished = |rng: &mut DetRng| issued[rng.index(issued.len())].1;
                        let target = match rng.index(4) {
                            0 if !issued.is_empty() => finished(&mut rng),
                            1 if !issued.is_empty() => finished(&mut rng) + fast.keep_alive,
                            2 => now + fast.keep_alive.mul_f64(rng.uniform_in(1.0, 1.5)),
                            _ => now + SimDuration::from_micros(rng.index(120_000) as u64),
                        };
                        now = now.max(target);
                    }
                    assert_eq!(fast.stats(), slow.inner.stats(), "op {op}");
                    assert_eq!(fast.snapshot(now), slow.inner.snapshot(now), "op {op}");
                    assert_eq!(fast.in_flight(), slow.inner.in_flight(), "op {op}");
                    assert_eq!(fast.next_completion(), slow.inner.next_completion());
                }
            }
        }
        assert!(
            picks.iter().all(|&n| n > 100),
            "every placement path is exercised: {picks:?}"
        );
    }

    #[test]
    fn submit_work_is_linear_in_the_pool() {
        let mut p = platform();
        p.max_instances = None;
        // A warm pool of 64 instances, then steady submits one every
        // 3 ms: an execution takes about 80 ms, so over half the pool is
        // idle at each pick.
        for _ in 0..64 {
            p.invoke(req(1, 0)).unwrap();
        }
        let submits = 5_000u64;
        let start = 2_000_000;
        let scans_before = p.instance_scans();
        for k in 0..submits {
            p.invoke(req(1, start + k * 3_000)).unwrap();
        }
        let live = p.stats().peak_instances as u64;
        let scans = p.instance_scans() - scans_before;
        let bound = submits * (2 * live + 2);
        assert!((64..80).contains(&live), "pool stays near 64: {live}");
        assert!(scans >= submits * live, "every submit reaps the pool");
        assert!(scans <= bound, "{scans} instance scans (bound {bound})");
    }
}
