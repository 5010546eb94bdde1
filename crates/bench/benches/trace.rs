//! Criterion bench for runtime trace emission and its consumers: the
//! hash chain `TraceSink::emit` extends for every record (the traced
//! engine's hot path), the JSONL renderer and the chain verifier.
//!
//! The events are the ones the committed `baselines/TRACE_overload.jsonl`
//! records, replayed many times so each sample emits a traced run's
//! worth of records.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::path::Path;
use tangram_trace::{TraceEvent, TraceLog, TraceSink};
use tangram_types::time::SimTime;

/// Times the golden trace's events are replayed per sample.
const REPLAYS: u64 = 40;

fn golden_overload() -> TraceLog {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/TRACE_overload.jsonl");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    TraceLog::from_jsonl(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The golden events replayed `REPLAYS` times, each replay shifted past
/// the previous one so sim-time stays monotonic.
fn replayed(golden: &TraceLog) -> Vec<(SimTime, TraceEvent)> {
    let span = golden.records.last().map_or(0, |r| r.at_us) + 1;
    (0..REPLAYS)
        .flat_map(|replay| {
            golden.records.iter().map(move |record| {
                let at = SimTime::from_micros(replay * span + record.at_us);
                (at, record.event.clone())
            })
        })
        .collect()
}

fn emit_all(events: Vec<(SimTime, TraceEvent)>) -> TraceLog {
    let mut sink = TraceSink::new();
    for (at, event) in events {
        sink.emit(at, event);
    }
    sink.finish()
}

fn bench_trace(c: &mut Criterion) {
    let golden = golden_overload();
    let records = golden.records.len() as u64 * REPLAYS;
    let mut group = c.benchmark_group("trace_overload_x40");
    group.throughput(Throughput::Elements(records));
    group.bench_function("emit", |b| {
        b.iter_batched(|| replayed(&golden), emit_all, BatchSize::LargeInput);
    });
    let log = emit_all(replayed(&golden));
    group.bench_function("to_jsonl", |b| b.iter(|| log.to_jsonl()));
    group.bench_function("verify", |b| b.iter(|| log.verify()));
    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
