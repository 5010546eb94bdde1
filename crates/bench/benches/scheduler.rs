//! Criterion bench for the Tangram scheduler's arrival path (stitch +
//! estimate + decide, per Algorithm 2). Arrivals extend the open
//! stitching incrementally, so the time per patch should stay flat from
//! `x16` to `x256`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tangram_core::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{CameraId, FrameId, PatchId};
use tangram_types::patch::PatchInfo;
use tangram_types::time::{SimDuration, SimTime};

fn patches(n: usize) -> Vec<PatchInfo> {
    let mut x = 0x51ac5eedu64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            PatchInfo::new(
                PatchId::new(i as u64),
                CameraId::new(0),
                FrameId::new(i as u64 / 8),
                Rect::new(0, 0, 80 + (x % 500) as u32, 100 + ((x >> 16) % 600) as u32),
                SimTime::from_micros(i as u64 * 3_000),
                SimDuration::from_secs(60),
            )
        })
        .collect()
}

fn bench_scheduler(c: &mut Criterion) {
    let estimator = LatencyEstimator::paper_default(
        &InferenceLatencyModel::rtx4090_yolov8x(),
        Size::CANVAS_1024,
        9,
    );
    for n in [16usize, 64, 256] {
        let work = patches(n);
        let est = estimator.clone();
        c.bench_function(format!("scheduler_on_patch_x{n}"), |b| {
            b.iter_batched(
                || TangramScheduler::new(SchedulerConfig::paper_default(), est.clone()),
                |mut s| {
                    let mut dispatched = 0usize;
                    for (i, p) in work.iter().enumerate() {
                        let out = s.on_patch(SimTime::from_micros(i as u64 * 3_000), *p);
                        dispatched += out.dispatches.len();
                    }
                    dispatched
                },
                BatchSize::SmallInput,
            );
        });
    }
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
