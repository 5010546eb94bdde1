//! Criterion bench for `ServerlessPlatform::submit`, the per-invocation
//! cost that paces the city-scale run (about one patch per batch, so one
//! submit per patch).
//!
//! Each shape warms a pool of 8 or 64 instances, then submits 1,000
//! single-canvas batches at a steady spacing that keeps about half the
//! pool idle at each pick. Placement is one linear pass over the pool,
//! so `x64` should cost a small multiple of `x8`, not its square.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tangram_infer::latency::InferenceLatencyModel;
use tangram_serverless::function::FunctionSpec;
use tangram_serverless::platform::{InvocationRequest, ServerlessPlatform};
use tangram_types::time::{SimDuration, SimTime};

const SUBMITS: u64 = 1_000;

fn request(at: SimTime) -> InvocationRequest {
    InvocationRequest {
        canvases: 1,
        megapixels: 1.05,
        submitted: at,
    }
}

/// A platform whose pool holds `pool` warm instances, all idle by the
/// returned instant.
fn warm_pool(pool: usize) -> (ServerlessPlatform, SimTime) {
    let mut platform = ServerlessPlatform::new(
        FunctionSpec::paper_default(),
        InferenceLatencyModel::rtx4090_yolov8x(),
        13,
    );
    platform.max_instances = None;
    for _ in 0..pool {
        platform
            .invoke(request(SimTime::ZERO))
            .expect("one canvas fits");
    }
    (platform, SimTime::from_micros(2_000_000))
}

fn bench_platform(c: &mut Criterion) {
    for pool in [8usize, 64] {
        // A one-canvas execution takes about 80 ms: spacing submits by
        // 160 ms / pool keeps about half the pool busy.
        let spacing = SimDuration::from_micros(160_000 / pool as u64);
        c.bench_function(format!("platform_submit_x{pool}"), |b| {
            b.iter_batched(
                || warm_pool(pool),
                |(mut platform, start)| {
                    let mut at = start;
                    for _ in 0..SUBMITS {
                        platform.invoke(request(at)).expect("one canvas fits");
                        at += spacing;
                    }
                    platform.stats().peak_instances
                },
                BatchSize::SmallInput,
            );
        });
    }
}

criterion_group!(benches, bench_platform);
criterion_main!(benches);
