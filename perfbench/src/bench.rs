//! The two kinds of benchmark run.
//!
//! * An untraced run (`--trace 0`) repeats set-up and engine run for
//!   the requested seconds, cycling through the run's engine seeds, and
//!   reports the end-to-end metrics: wall-clock medians over the
//!   repetitions and simulated figures pooled over the engine seeds.
//! * A traced run (`--trace 1`) repeats a cycle of an untraced engine
//!   run, a traced engine run (timing decorators on the cameras and the
//!   admission policy) and the replay of that run's calls into the other
//!   layers, and reports the per-layer medians.
//!
//! Every engine run's report passes the output checks, and its digest
//! equals the one `tangram_harness::run_scenario_traced` produces for
//! the same seed; a run that fails counts as a failed operation.

use crate::checks;
use crate::engine::{self, Probe};
use crate::heap;
use crate::host;
use crate::metrics::{self, MetricDef, Reported, END_TO_END, PER_LAYER};
use crate::replay::{self, ReplayOutcome, Validity};
use crate::spans::{SpanId, SpanLog};
use crate::workload::{self, Offered, WorkloadDef, SUB_SEEDS};
use std::collections::BTreeMap;
use std::time::Instant;
use tangram_core::engine::EngineConfig;
use tangram_core::report::{RunReport, RunSummary};
use tangram_harness::run_scenario_traced;
use tangram_harness::scenario_file::ScenarioFile;
use tangram_trace::TraceLog;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed (derives the engine seeds).
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

/// A finished benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every engine run passed every check.
    pub correct: bool,
    /// Engine runs made.
    pub attempted: u64,
    /// Engine runs that failed a check.
    pub failed: u64,
    /// The metrics, in definition order.
    pub metrics: Vec<Reported>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// A workload, loaded and ready to run.
struct Context {
    def: WorkloadDef,
    file: ScenarioFile,
    offered: Offered,
    seeds: Vec<u64>,
    /// Reference digest (and trace hash) per engine seed, from the
    /// harness entry point.
    references: Vec<(RunSummary, Option<u64>)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Context {
    /// Loads workload `name` for benchmark seed `seed` and runs each
    /// engine seed once through the harness entry point
    /// (`run_scenario_traced`) for the reference digests.
    ///
    /// # Errors
    ///
    /// An unknown workload or an invalid workload file.
    fn new(name: &str, seed: u64) -> Result<Self, String> {
        let def = workload::find(name)?;
        let file = workload::load(def)?;
        let traces = file.build_traces();
        let offered = Offered::of(&file, &traces, file.engine_config().canvas_size);
        let seeds = workload::sub_seeds(seed);
        let references = seeds
            .iter()
            .map(|&seed| {
                let (report, trace) = run_scenario_traced(
                    &workload::engine_config(&file, seed),
                    &traces,
                    &file.scenario,
                    file.admission.as_ref(),
                    file.fairness.as_ref(),
                    def.trace_sink,
                );
                (report.summarize(), trace.as_ref().map(TraceLog::final_hash))
            })
            .collect();
        Ok(Self {
            def,
            file,
            offered,
            seeds,
            references,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        })
    }

    /// The engine configuration for engine seed number `k`.
    fn config(&self, k: usize) -> EngineConfig {
        workload::engine_config(&self.file, self.seeds[k % SUB_SEEDS])
    }

    /// Checks one engine run of engine seed number `k` and counts it.
    /// Its digest must equal the harness entry point's run of the same
    /// inputs.
    fn check(&mut self, k: usize, report: &RunReport, trace: Option<&TraceLog>) -> bool {
        self.attempted += 1;
        let result = self.verify(k, report, trace);
        if let Err(problem) = &result {
            self.failed += 1;
            self.notes
                .push(format!("check failed (engine seed #{k}): {problem}"));
        }
        result.is_ok()
    }

    fn verify(&self, k: usize, report: &RunReport, trace: Option<&TraceLog>) -> Result<(), String> {
        checks::conservation(report, &self.offered)?;
        if self.def.trace_sink {
            let trace = trace.ok_or("the workload records a trace but none came back")?;
            checks::trace_matches(report, trace, &self.offered)?;
        }
        let digest = (report.summarize(), trace.map(TraceLog::final_hash));
        if self.references[k % SUB_SEEDS] != digest {
            return Err("the run's digest differs from another run of the same seed".into());
        }
        Ok(())
    }
}

/// One timed set-up and engine run.
struct TimedRun {
    setup_s: f64,
    run_s: f64,
    /// Peak heap growth over set-up and run, bytes.
    heap_bytes: usize,
    report: RunReport,
    trace: Option<TraceLog>,
}

fn timed_run(ctx: &Context, config: &EngineConfig, trace_sink: bool) -> TimedRun {
    heap::reset_peak();
    let base = heap::live();
    let start = Instant::now();
    let traces = ctx.file.build_traces();
    let engine = engine::build(&ctx.file, &traces, config, trace_sink, None);
    let built = Instant::now();
    let (report, trace) = engine.run_traced();
    let done = Instant::now();
    TimedRun {
        setup_s: (built - start).as_secs_f64(),
        run_s: (done - built).as_secs_f64(),
        heap_bytes: heap::peak() - base,
        report,
        trace,
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The facts that pin a workload's regime, with the host's core count.
fn regime(busy_ratio: f64, patches_per_batch: f64, shed_ratio: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "regime: net.busy_ratio={busy_ratio:.4} scheduler.patches_per_batch={patches_per_batch:.2} ingress.shed_ratio={shed_ratio:.4} nproc={nproc}"
    )
}

/// Simulated figures pooled over one report per engine seed.
#[derive(Default)]
struct Pool {
    latencies_s: Vec<f64>,
    met: u64,
    offered: u64,
    dropped: u64,
    patches: u64,
    batches: u64,
    cost_usd: f64,
    uplink_bytes: u64,
    frames: u64,
    busy_s: f64,
    makespan_s: f64,
}

impl Pool {
    fn add(&mut self, report: &RunReport, offered: &Offered) {
        let summary = report.summarize();
        self.latencies_s
            .extend(report.patches.iter().map(|p| p.latency().as_secs_f64()));
        self.met += met_arrivals(report);
        self.offered += offered.arrivals;
        self.dropped += report.dropped_arrivals;
        self.patches += report.patches.len() as u64;
        self.batches += report.batches.len() as u64;
        self.cost_usd += summary.cost_usd;
        self.uplink_bytes += summary.uplink_bytes;
        self.frames += report.frames;
        self.busy_s += report.transmission_busy.as_secs_f64();
        self.makespan_s += report.makespan.as_secs_f64();
    }

    fn regime(&self) -> String {
        regime(
            self.busy_s / self.makespan_s,
            self.patches as f64 / self.batches as f64,
            self.dropped as f64 / self.offered as f64,
        )
    }
}

/// Arrivals whose every tile met its SLO.
fn met_arrivals(report: &RunReport) -> u64 {
    let mut met: BTreeMap<u64, bool> = BTreeMap::new();
    for record in &report.patches {
        *met.entry(record.patch.raw()).or_insert(true) &= !record.violated();
    }
    met.values().filter(|&&ok| ok).count() as u64
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// The untraced run: end-to-end metrics.
fn end_to_end(ctx: &mut Context, seconds: f64) -> Vec<Reported> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut frames_per_s = Vec::new();
    let mut slowdowns = Vec::new();
    let mut heap_mb = Vec::new();
    let mut pool = Pool::default();
    let mut i = 0usize;
    // Every engine seed runs at least twice (the determinism check).
    while i < 2 * SUB_SEEDS || start.elapsed().as_secs_f64() < seconds {
        let k = i % SUB_SEEDS;
        let config = ctx.config(k);
        let run = timed_run(ctx, &config, ctx.def.trace_sink);
        let slowdown = host::slowdown(host::calibrate());
        if ctx.check(k, &run.report, run.trace.as_ref()) {
            setup_s.push(run.setup_s / slowdown);
            frames_per_s.push(run.report.frames as f64 / run.run_s * slowdown);
            slowdowns.push(slowdown);
            heap_mb.push(run.heap_bytes as f64 / 1e6);
            if i < SUB_SEEDS {
                pool.add(&run.report, &ctx.offered);
            }
        }
        i += 1;
    }
    ctx.notes.push(pool.regime());
    ctx.notes.push(format!(
        "{} engine runs, {} pooled engine seeds, median host slowdown {:.3} (wall-clock figures rescaled to the reference host)",
        frames_per_s.len(),
        SUB_SEEDS,
        metrics::median(&slowdowns).unwrap_or(f64::NAN)
    ));
    let value = |name: &str| -> Option<f64> {
        match name {
            "frames_per_s" => metrics::median(&frames_per_s),
            "setup_s" => metrics::median(&setup_s),
            "peak_heap_mb" => metrics::median(&heap_mb),
            "slo_attainment" => ratio(pool.met as f64, pool.offered as f64),
            "latency_p50_s" => metrics::quantile(&pool.latencies_s, 0.5),
            "latency_p99_s" => metrics::quantile(&pool.latencies_s, 0.99),
            "cost_usd_per_1k_patches" => ratio(pool.cost_usd * 1000.0, pool.patches as f64),
            "uplink_kb_per_frame" => ratio(pool.uplink_bytes as f64 / 1000.0, pool.frames as f64),
            other => panic!("no end-to-end value for `{other}`"),
        }
    };
    END_TO_END.iter().map(|d| (d, value(d.name))).collect()
}

/// Per-cycle values of the traced run, by metric name.
type Cycle = BTreeMap<&'static str, Option<f64>>;

/// A traced engine run and the replay of its calls into the layers.
pub struct Traced {
    /// The engine's report.
    pub report: RunReport,
    /// The runtime trace, when the workload records one.
    pub trace: Option<TraceLog>,
    /// The replay, its spans included (set-up, engine and replay roots).
    pub replay: ReplayOutcome,
    /// Which replayed layers reproduced the engine's records.
    pub validity: Validity,
    traces_span: usize,
    engine_span: usize,
    run_span: usize,
}

/// Runs `file` once under `config` with timing decorators on the camera
/// sources and the admission policy, then replays the recorded inputs
/// through the other layers.
#[must_use]
pub fn traced_run(file: &ScenarioFile, config: &EngineConfig, trace_sink: bool) -> Traced {
    let origin = Instant::now();
    let mut spans = SpanLog::new(origin);
    let (traces, traces_span) =
        spans.time("setup.traces", SpanId::None, None, || file.build_traces());
    let mut probe = Probe::new(origin);
    let (engine, engine_span) = spans.time("setup.engine", SpanId::None, None, || {
        engine::build(file, &traces, config, trace_sink, Some(&mut probe))
    });
    let ((report, trace), run_span) =
        spans.time("engine.run", SpanId::None, None, || engine.run_traced());
    let mut captures = Vec::with_capacity(probe.sources.len());
    for log in &probe.sources {
        let log = std::mem::take(&mut *log.lock().expect("source log"));
        spans.adopt(log.spans, Some(run_span));
        captures.push(log.captures);
    }
    let verdicts = probe.admission.as_ref().map(|log| {
        let log = std::mem::take(&mut *log.lock().expect("admission log"));
        spans.adopt(log.spans, Some(run_span));
        log.verdicts
    });
    let replay = replay::run(file, config, captures, verdicts, spans);
    let validity = Validity::of(&replay, &report);
    Traced {
        report,
        trace,
        replay,
        validity,
        traces_span,
        engine_span,
        run_span,
    }
}

/// One cycle of the traced run: untraced engine run(s), a traced engine
/// run and its replay.
fn traced_cycle(ctx: &mut Context, k: usize, keep_spans: &mut Option<SpanLog>) -> Option<Cycle> {
    let config = ctx.config(k);
    let sink = ctx.def.trace_sink;

    // The untraced engine run, as the end-to-end run makes it.
    let plain = timed_run(ctx, &config, sink);
    let plain_ok = ctx.check(k, &plain.report, plain.trace.as_ref());
    // Trace emission cost: the same run with the sink off.
    let (emit_s, records, bytes) = match &plain.trace {
        Some(trace) => {
            let off = timed_run(ctx, &config, false);
            (
                plain.run_s - off.run_s,
                trace.records.len() as f64,
                trace.to_jsonl().len() as f64,
            )
        }
        None => (0.0, 0.0, 0.0),
    };

    let traced = traced_run(&ctx.file, &config, sink);
    let traced_ok = ctx.check(k, &traced.report, traced.trace.as_ref());
    if !(plain_ok && traced_ok) {
        return None;
    }
    let Traced {
        report,
        replay: replayed,
        validity: valid,
        traces_span,
        engine_span,
        run_span,
        ..
    } = traced;
    let spans = &replayed.spans;
    let dur = |index: usize| spans.spans()[index].duration_ns() as f64 * 1e-9;
    let totals = spans.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls) as f64;

    let run_s = dur(run_span);
    let video_s = self_s("video.next_frame") + self_s("video.next_capture");
    let admit_s = self_s("admission.admit");
    let net_s = self_s("net.enqueue");
    let drr_round_s = self_s("drr.round");
    let drr_enqueue_s = self_s("drr.enqueue");
    let on_patch_s = self_s("scheduler.on_patch");
    let on_timer_s = self_s("scheduler.on_timer")
        + self_s("scheduler.drain")
        + self_s("scheduler.on_completion");
    let on_signals_s = self_s("scheduler.on_signals");
    let stitch_s = self_s("stitch.stitch");
    let submit_s = self_s("platform.submit");
    let complete_s = self_s("platform.complete");
    let snapshot_s = self_s("platform.snapshot");
    let all_valid = valid.net && valid.drr && valid.scheduler && valid.stitch && valid.platform;
    let layers_s = video_s
        + admit_s
        + net_s
        + drr_round_s
        + drr_enqueue_s
        + on_patch_s
        + on_timer_s
        + on_signals_s
        + stitch_s
        + submit_s
        + complete_s
        + snapshot_s;

    let verdicts = calls("admission.admit");
    let frames = report.frames as f64;
    let gate = |ok: bool, v: f64| ok.then_some(v);
    let p99 = |v: &[f64]| metrics::quantile(v, 0.99);
    let mut cycle: Cycle = BTreeMap::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        cycle.insert(name, value);
    };
    put("video.frames", Some(frames));
    put("video.capture_s", Some(video_s));
    put("video.capture_share", ratio(video_s, run_s));
    put("net.enqueues", Some(report.link.messages as f64));
    put("net.enqueue_s", gate(valid.net, net_s));
    put(
        "net.busy_ratio",
        ratio(
            report.transmission_busy.as_secs_f64(),
            report.makespan.as_secs_f64(),
        ),
    );
    put(
        "net.wait_p99_s",
        p99(&replayed.net_waits_s).filter(|_| valid.net),
    );
    put("admission.calls", Some(verdicts));
    put("admission.admit_s", Some(admit_s));
    put(
        "admission.admit_ratio",
        ratio(verdicts - replayed.refused as f64, verdicts).or(Some(1.0)),
    );
    put("drr.rounds", gate(valid.drr, replayed.drr_rounds as f64));
    put("drr.round_s", gate(valid.drr, drr_round_s));
    put("drr.enqueue_s", gate(valid.drr, drr_enqueue_s));
    put(
        "drr.peak_backlog",
        gate(valid.drr, replayed.drr_peak_backlog as f64),
    );
    put(
        "scheduler.arrivals",
        gate(valid.scheduler, replayed.scheduler_arrivals as f64),
    );
    put(
        "scheduler.on_patch_s",
        gate(valid.scheduler && valid.stitch, on_patch_s),
    );
    put("scheduler.on_timer_s", gate(valid.scheduler, on_timer_s));
    put(
        "scheduler.on_signals_s",
        gate(valid.scheduler, on_signals_s),
    );
    put(
        "scheduler.patches_per_batch",
        ratio(report.patches.len() as f64, report.batches.len() as f64),
    );
    put(
        "scheduler.queue_wait_p99_s",
        p99(&replayed.queue_waits_s).filter(|_| valid.scheduler),
    );
    put(
        "stitch.calls",
        gate(valid.stitch, replayed.stitch_calls as f64),
    );
    put(
        "stitch.items",
        gate(valid.stitch, replayed.stitch_items as f64),
    );
    put("stitch.stitch_s", gate(valid.stitch, stitch_s));
    put("stitch.share", gate(valid.stitch, stitch_s / run_s));
    let efficiencies = report.canvas_efficiencies();
    put(
        "stitch.canvas_efficiency",
        ratio(efficiencies.iter().sum(), efficiencies.len() as f64),
    );
    put("platform.submits", Some(report.platform.invocations as f64));
    put("platform.submit_s", gate(valid.platform, submit_s));
    put(
        "platform.submit_share",
        gate(valid.platform, submit_s / run_s),
    );
    put("platform.complete_s", gate(valid.platform, complete_s));
    put("platform.snapshot_s", gate(valid.platform, snapshot_s));
    put(
        "platform.peak_instances",
        Some(report.platform.peak_instances as f64),
    );
    put(
        "platform.cold_ratio",
        ratio(
            report.platform.cold_starts as f64,
            report.platform.invocations as f64,
        ),
    );
    put(
        "platform.start_wait_p99_s",
        p99(&replayed.start_waits_s).filter(|_| valid.platform),
    );
    put("sim.events", Some(report.events_processed as f64));
    put(
        "sim.events_per_frame",
        ratio(report.events_processed as f64, frames),
    );
    put("trace.records", Some(records));
    put("trace.bytes", Some(bytes));
    put("trace.emit_s", Some(emit_s));
    put("engine.run_s", Some(run_s));
    put("engine.self_s", gate(all_valid, run_s - layers_s - emit_s));
    put("setup.traces_s", Some(dur(traces_span)));
    put("setup.engine_s", Some(dur(engine_span)));
    put(
        "ingress.shed_ratio",
        ratio(report.dropped_arrivals as f64, ctx.offered.arrivals as f64),
    );
    put(
        "slo.miss_ratio",
        ratio(
            (ctx.offered.arrivals - met_arrivals(&report)) as f64,
            ctx.offered.arrivals as f64,
        ),
    );
    // Untraced and traced throughput, for the tracing overhead.
    put("bench.plain_fps", Some(frames / plain.run_s));
    put("bench.traced_fps", Some(frames / run_s));
    put("host.calibration_s", Some(host::calibrate()));
    if !all_valid {
        ctx.notes.push(format!(
            "engine seed #{k}: replay did not reproduce the engine for {valid:?}; those layers are unmeasured"
        ));
    }
    if keep_spans.is_none() {
        *keep_spans = Some(replayed.spans);
    }
    Some(cycle)
}

/// The traced run: per-layer metrics.
fn per_layer(ctx: &mut Context, seconds: f64, workload: &str) -> Vec<Reported> {
    let start = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut kept = None;
    let mut i = 0usize;
    while i < SUB_SEEDS || start.elapsed().as_secs_f64() < seconds {
        if let Some(cycle) = traced_cycle(ctx, i % SUB_SEEDS, &mut kept) {
            cycles.push(cycle);
        }
        i += 1;
    }
    if let Some(spans) = kept {
        write_spans(ctx, workload, &spans);
    }
    // A metric is measured only if every cycle measured it.
    let column = |name: &str| -> Option<Vec<f64>> {
        cycles
            .iter()
            .map(|c| c.get(name).copied().flatten())
            .collect()
    };
    let median_of = |name: &str| column(name).and_then(|v| metrics::median(&v));
    let overhead = match (median_of("bench.plain_fps"), median_of("bench.traced_fps")) {
        (Some(plain), Some(traced)) => ratio(plain - traced, plain),
        _ => None,
    };
    let fact = |name: &str| median_of(name).unwrap_or(f64::NAN);
    ctx.notes.push(regime(
        fact("net.busy_ratio"),
        fact("scheduler.patches_per_batch"),
        fact("ingress.shed_ratio"),
    ));
    ctx.notes.push(format!("{} cycles", cycles.len()));
    PER_LAYER
        .iter()
        .map(|d: &'static MetricDef| {
            let value = match d.name {
                "bench.trace_overhead" => overhead,
                "host.peak_rss_mb" => peak_rss_mb(),
                name => median_of(name),
            };
            (d, value)
        })
        .collect()
}

/// Writes the first cycle's spans to `out/spans_<workload>.jsonl` in the
/// benchmark's directory (best effort: a failure is noted, not fatal).
fn write_spans(ctx: &mut Context, workload: &str, spans: &SpanLog) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans_{workload}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    ctx.notes.push(match written {
        Ok(()) => format!("spans of the first cycle: {}", path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    });
}

/// Runs the benchmark.
///
/// # Errors
///
/// An unknown workload or an invalid workload file.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut ctx = Context::new(&args.workload, args.seed)?;
    let metrics = if args.trace {
        per_layer(&mut ctx, args.seconds, &args.workload)
    } else {
        end_to_end(&mut ctx, args.seconds)
    };
    Ok(Outcome {
        correct: ctx.failed == 0 && ctx.attempted > 0,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics,
        notes: ctx.notes,
    })
}
