//! Building a workload's engine through the public API, optionally with
//! timing decorators around the camera sources and the admission policy
//! the engine is handed.
//!
//! The construction mirrors `tangram_harness::run_scenario` exactly (one
//! engine, no shards); every run's digest is checked against that entry
//! point's, so a drift between the two shows as a failed run.

use crate::spans::{Span, SpanId};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tangram_core::admission::{Admission, AdmissionPolicy, AdmissionSignals};
use tangram_core::engine::EngineConfig;
use tangram_core::online::{CameraSource, GeneratedSource, OnlineEngine, TenantClass};
use tangram_core::policy::Arrival;
use tangram_core::workload::{CameraTrace, TraceFrame};
use tangram_harness::scenario_file::ScenarioFile;
use tangram_sim::rng::DetRng;
use tangram_trace::TraceSink;
use tangram_types::ids::CameraId;
use tangram_types::time::{SimDuration, SimTime};

/// One `next_frame` → `next_capture` → `is_exhausted` round of a camera,
/// as the engine drove it.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    /// The frame handed to the engine (`None` = stream ended).
    pub frame: Option<TraceFrame>,
    /// The capture instant (`now` of the following `next_capture`).
    pub now: Option<SimTime>,
    /// The next capture instant the source returned.
    pub next: Option<SimTime>,
    /// Whether the source reported itself exhausted afterwards.
    pub exhausted: bool,
}

/// What a decorated camera recorded.
#[derive(Debug, Default)]
pub struct SourceLog {
    /// Timed calls (`video.next_frame`, `video.next_capture`).
    pub spans: Vec<Span>,
    /// The camera's captures, in order.
    pub captures: Vec<CaptureRecord>,
}

/// One admission decision, as the engine asked for it.
#[derive(Debug, Clone, Copy)]
pub struct VerdictRecord {
    /// When the arrival reached the ingress.
    pub now: SimTime,
    /// The arrival's patch id.
    pub patch: u64,
    /// The load signals the engine supplied.
    pub signals: AdmissionSignals,
    /// The policy's verdict.
    pub verdict: Admission,
}

/// What the decorated admission policy recorded.
#[derive(Debug, Default)]
pub struct AdmissionLog {
    /// Timed `admission.admit` calls.
    pub spans: Vec<Span>,
    /// Every verdict, in order.
    pub verdicts: Vec<VerdictRecord>,
}

/// Shared handles onto the decorators' logs, kept by the benchmark while
/// the engine owns the decorators.
#[derive(Debug)]
pub struct Probe {
    origin: Instant,
    /// One log per camera, by engine index.
    pub sources: Vec<Arc<Mutex<SourceLog>>>,
    /// The admission log, when the workload has an admission stage.
    pub admission: Option<Arc<Mutex<AdmissionLog>>>,
}

impl Probe {
    /// An empty probe timing against `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            sources: Vec::new(),
            admission: None,
        }
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lock<T>(log: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    log.lock()
        .expect("decorator log poisoned by a panicking engine")
}

/// A camera source that times and records every call the engine makes.
struct TimedSource {
    inner: GeneratedSource,
    cam: u32,
    origin: Instant,
    log: Arc<Mutex<SourceLog>>,
}

impl TimedSource {
    fn span(&self, name: &'static str, start_ns: u64) -> Span {
        Span {
            name,
            id: SpanId::Camera(self.cam),
            parent: None,
            start_ns,
            end_ns: elapsed_ns(self.origin),
        }
    }
}

impl CameraSource for TimedSource {
    fn camera(&self) -> CameraId {
        self.inner.camera()
    }

    fn next_frame(&mut self) -> Option<TraceFrame> {
        let start = elapsed_ns(self.origin);
        let frame = self.inner.next_frame();
        let span = self.span("video.next_frame", start);
        let mut log = lock(&self.log);
        log.spans.push(span);
        log.captures.push(CaptureRecord {
            frame: frame.clone(),
            now: None,
            next: None,
            exhausted: false,
        });
        frame
    }

    fn is_exhausted(&self) -> bool {
        let exhausted = self.inner.is_exhausted();
        if let Some(last) = lock(&self.log).captures.last_mut() {
            last.exhausted = exhausted;
        }
        exhausted
    }

    fn next_capture(
        &mut self,
        now: SimTime,
        frame_interval: SimDuration,
        uplink_free: SimTime,
    ) -> SimTime {
        let start = elapsed_ns(self.origin);
        let next = self.inner.next_capture(now, frame_interval, uplink_free);
        let span = self.span("video.next_capture", start);
        let mut log = lock(&self.log);
        log.spans.push(span);
        if let Some(last) = log.captures.last_mut() {
            last.now = Some(now);
            last.next = Some(next);
        }
        next
    }

    fn slo(&self) -> Option<SimDuration> {
        self.inner.slo()
    }

    fn link_independent(&self) -> bool {
        self.inner.link_independent()
    }
}

/// An admission policy that times and records every verdict.
struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    origin: Instant,
    log: Arc<Mutex<AdmissionLog>>,
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&mut self, now: SimTime, arrival: &Arrival, signals: &AdmissionSignals) -> Admission {
        let start_ns = elapsed_ns(self.origin);
        let verdict = self.inner.admit(now, arrival, signals);
        let end_ns = elapsed_ns(self.origin);
        let patch = arrival.info().id.raw();
        let mut log = lock(&self.log);
        log.spans.push(Span {
            name: "admission.admit",
            id: SpanId::Patch(patch),
            parent: None,
            start_ns,
            end_ns,
        });
        log.verdicts.push(VerdictRecord {
            now,
            patch,
            signals: *signals,
            verdict,
        });
        verdict
    }
}

/// Builds the workload's engine over `traces`, exactly as
/// `tangram_harness::run_scenario` does for one engine. With a probe,
/// every camera source and the admission policy are wrapped in timing
/// decorators whose logs the probe keeps.
#[must_use]
pub fn build(
    file: &ScenarioFile,
    traces: &[CameraTrace],
    config: &EngineConfig,
    trace_sink: bool,
    mut probe: Option<&mut Probe>,
) -> OnlineEngine {
    let scenario = &file.scenario;
    let mut engine = OnlineEngine::new(config);
    engine.set_faults(scenario.faults.clone());
    if let Some(spec) = &file.admission {
        let policy = spec.build(&scenario.tenant_slos_s);
        let policy: Box<dyn AdmissionPolicy> = match probe.as_deref_mut() {
            Some(probe) => {
                let log = Arc::new(Mutex::new(AdmissionLog::default()));
                probe.admission = Some(Arc::clone(&log));
                Box::new(TimedAdmission {
                    inner: policy,
                    origin: probe.origin,
                    log,
                })
            }
            None => policy,
        };
        engine.set_admission_policy(policy);
    }
    if let Some(spec) = &file.fairness {
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
        let source: Box<dyn CameraSource> = match probe.as_deref_mut() {
            Some(probe) => {
                let log = Arc::new(Mutex::new(SourceLog::default()));
                probe.sources.push(Arc::clone(&log));
                Box::new(TimedSource {
                    inner: source,
                    cam: u32::try_from(cam).expect("camera index fits u32"),
                    origin: probe.origin,
                    log,
                })
            }
            None => Box::new(source),
        };
        let join = SimTime::from_secs_f64(scenario.join_stagger_s * cam as f64);
        engine.add_camera_at(join, source);
    }
    if trace_sink {
        engine.set_trace_sink(TraceSink::new());
    }
    engine
}
