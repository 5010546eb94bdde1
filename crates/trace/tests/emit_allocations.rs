//! Allocation work counter for `TraceSink::emit`: emitting N events may
//! allocate only for the growth of the sink's record vector — O(log N)
//! reallocations, no per-record term. A counting global allocator makes
//! the bound a deterministic count, so a reintroduced per-record
//! `String` fails here by thousands, not by a timing on a noisy host.
//!
//! This file must stay the only test in its binary: the allocator is
//! process-wide, and the count is taken on the emitting thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use tangram_trace::{TraceEvent, TraceSink};
use tangram_types::time::SimTime;

/// Forwards to the system allocator, counting allocations and
/// reallocations made while the calling thread has counting switched on.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Events emitted; large enough that any per-record allocation dwarfs
/// the logarithmic vector growth.
const EVENTS: u64 = 20_000;

/// The event mix of a traced run, minus the two kinds whose `String`
/// field the caller allocates before `emit` sees it.
fn event(i: u64) -> TraceEvent {
    match i % 6 {
        0 => TraceEvent::AdmissionVerdict {
            patch: i,
            slo_us: 1_000_000,
            admitted: !i.is_multiple_of(3),
            queued: i % 17,
            in_flight: i % 5,
            earliest_start_us: i * 31,
        },
        1 => TraceEvent::DrrRound {
            released: i % 9,
            backlog: i % 11,
        },
        2 => TraceEvent::BatchDispatch {
            batch: i / 6,
            patches: 8,
            inputs: 2,
            megapixels_e6: 2_097_152,
        },
        3 => TraceEvent::FunctionComplete {
            invocation: i / 6,
            inputs: 2,
            violations: i % 2,
        },
        4 => TraceEvent::CameraJoin { camera: i },
        _ => TraceEvent::SessionEnd {
            frames: u64::MAX,
            batches: i,
            completions: i,
            dropped: 0,
            makespan_us: i * 1000,
        },
    }
}

#[test]
fn emit_allocates_only_for_record_vector_growth() {
    let mut sink = TraceSink::new();
    COUNTING.with(|c| c.set(true));
    for i in 0..EVENTS {
        sink.emit(SimTime::from_micros(i * 10), event(i));
    }
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    // A doubling vector reaches N slots in about log2(N) steps; allow
    // twice that for growth-policy slack. 20,000 events give a bound of
    // 30 — a per-record allocation would count at least 20,000.
    let log2 = u64::from(u64::BITS - EVENTS.leading_zeros());
    assert!(
        allocations <= 2 * log2,
        "{allocations} allocations for {EVENTS} emits (bound {})",
        2 * log2
    );
    assert!(allocations > 0, "the counter saw the record vector grow");

    let log = sink.finish();
    assert_eq!(log.records.len() as u64, EVENTS);
    log.verify().expect("chain verifies");
}
