//! Ablation — re-stitch-the-whole-queue vs incremental stitching.
//!
//! Algorithm 2 re-runs the Patch-stitching Solver over the entire queue on
//! every arrival (O(queue) packer inserts per arrival). The scheduler
//! instead keeps the open stitching and inserts each patch once. Because
//! the solver is online first-fit in queue order, both must produce the
//! same canvases; this ablation asserts that canvas for canvas on every
//! queue prefix and reports the work the re-stitch spends for it: summed
//! queue lengths stitched vs tiles inserted. Scenes fan out over the
//! harness pool.

use tangram_bench::{ExpOpts, TextTable};
use tangram_harness::parallel_map;
use tangram_harness::presets::build_trace;
use tangram_harness::TraceKind;
use tangram_stitch::solver::{split_to_fit, OpenStitching, PatchStitchingSolver};
use tangram_types::geometry::Size;
use tangram_types::ids::SceneId;
use tangram_types::patch::PatchInfo;

fn main() {
    let opts = ExpOpts::from_args();
    let frames = opts.frame_budget(20, 80);
    println!("== Ablation: full re-stitch (paper) vs incremental insertion ==\n");
    println!("Queues of ~3 frames' patches, one arrival at a time, stitched both ways:\n");
    let mut table = TextTable::new([
        "scene",
        "queues",
        "canvases",
        "re-stitched items",
        "inserted items",
        "work ratio",
    ]);
    let per_scene = parallel_map(
        SceneId::all().collect::<Vec<_>>(),
        opts.workers(),
        |_, scene| {
            let solver = PatchStitchingSolver::new(Size::CANVAS_1024);
            let trace = build_trace(scene, frames, opts.seed, TraceKind::Proxy);
            let (mut queues, mut canvases, mut restitched, mut inserted) = (0, 0, 0, 0);
            for window in trace.frames.chunks(3) {
                let infos: Vec<PatchInfo> = window
                    .iter()
                    .flat_map(|f| f.patches.iter())
                    .flat_map(|p| {
                        split_to_fit(p.info.rect, Size::CANVAS_1024)
                            .into_iter()
                            .map(move |rect| PatchInfo { rect, ..p.info })
                    })
                    .collect();
                if infos.is_empty() {
                    continue;
                }
                queues += 1;
                let mut open = OpenStitching::new(Size::CANVAS_1024);
                for (i, info) in infos.iter().enumerate() {
                    // Algorithm 2 as written: re-stitch the queue so far.
                    let queue = &infos[..=i];
                    let full = solver.stitch(queue).expect("tiles fit");
                    restitched += queue.len();
                    // Incremental: insert the arrival into the open canvases.
                    let slot = open.first_fit(info.rect.size());
                    open.place(*info, slot);
                    inserted += 1;
                    assert_eq!(
                        open.canvases(),
                        full.as_slice(),
                        "{scene}: stitchings diverge at arrival {i}"
                    );
                }
                canvases += open.canvases().len();
            }
            (scene, queues, canvases, restitched, inserted)
        },
    );
    let (mut grand_restitched, mut grand_inserted) = (0usize, 0usize);
    for (scene, queues, canvases, restitched, inserted) in per_scene {
        grand_restitched += restitched;
        grand_inserted += inserted;
        table.row([
            scene.to_string(),
            queues.to_string(),
            canvases.to_string(),
            restitched.to_string(),
            inserted.to_string(),
            format!("{:.1}x", restitched as f64 / inserted.max(1) as f64),
        ]);
    }
    table.print();
    println!(
        "\nOverall: identical canvases on every queue prefix; re-stitching packs {:.1}x\n\
         the items that incremental insertion does — work Algorithm 2 spends for\n\
         nothing, growing with queue depth.",
        grand_restitched as f64 / grand_inserted.max(1) as f64
    );
}
