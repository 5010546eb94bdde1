//! Integration gate for the bounded model checker (`crates/model`).
//!
//! The smoke test is the same suite CI's lints job runs via
//! `model_tool check --smoke`, asserted from the library API so a
//! regression fails `cargo test` even where the CLI step is skipped:
//! every healthy channel config must be *exhaustively* proved within
//! its preemption bound (a truncated proof is no proof), the seeded
//! mutant must die with its documented violation class and a non-empty
//! counter-example, and the total schedule count must clear the
//! [`SMOKE_SCHEDULE_FLOOR`] so the suite cannot silently shrink.
//!
//! The full-mode sweep explores deeper preemption bounds (~30 s in a
//! debug build) and is `#[ignore]`d; run it with
//! `cargo test --test model_check -- --ignored --nocapture`.

use tangram::model::check::{run_suite, Mode, RowOutcome, SMOKE_SCHEDULE_FLOOR};
use tangram::model::check::{RowResult, SuiteResult};

/// Prints the per-row schedule counts — the test-log mirror of the
/// CLI table, so truncation is visible even from `cargo test` output.
fn print_rows(suite: &SuiteResult) {
    for row in &suite.rows {
        println!(
            "{} | bound {} | {} schedule(s) | exhaustive: {}",
            row.name, row.bound, row.schedules, row.exhaustive
        );
    }
    println!(
        "total: {} schedules across {} rows ({} mode)",
        suite.total_schedules,
        suite.rows.len(),
        suite.mode.label()
    );
}

/// Shared assertions for both modes.
fn assert_suite(suite: &SuiteResult) {
    let mut mutants_caught = 0;
    for row in &suite.rows {
        match &row.outcome {
            RowOutcome::Proved => {
                assert!(
                    row.exhaustive,
                    "{}: proof truncated at {} schedules — raise the budget or lower the bound",
                    row.name, row.schedules
                );
            }
            RowOutcome::MutantCaught(ce) => {
                mutants_caught += 1;
                assert!(
                    !ce.schedule.is_empty(),
                    "{}: counter-example lost its schedule",
                    row.name
                );
                assert!(
                    !ce.log.is_empty(),
                    "{}: counter-example lost its step log",
                    row.name
                );
            }
            RowOutcome::Violated(ce) => panic!(
                "{}: healthy model violated {} — {}\n{}",
                row.name,
                ce.kind.label(),
                ce.detail,
                ce.log.join("\n")
            ),
            RowOutcome::MutantMissed(why) => {
                panic!("{}: mutant survived — {why}", row.name);
            }
        }
    }
    assert_eq!(
        mutants_caught, 1,
        "the roster seeds one mutant and it must be caught"
    );
    assert!(suite.rows.iter().all(RowResult::ok));
}

#[test]
fn smoke_suite_proves_the_protocol_and_kills_every_mutant() {
    let suite = run_suite(Mode::Smoke);
    print_rows(&suite);
    // 2 channel proofs + 1 mutant.
    assert_eq!(suite.rows.len(), 3, "roster shape drifted");
    assert_suite(&suite);
    assert!(
        suite.total_schedules >= SMOKE_SCHEDULE_FLOOR,
        "smoke explored only {} schedules (floor {SMOKE_SCHEDULE_FLOOR})",
        suite.total_schedules
    );
    assert!(suite.ok());
}

#[test]
#[ignore = "exhaustive full-mode sweep: deeper preemption bounds, ~30 s in a debug build"]
fn full_suite_is_exhaustive_at_deeper_bounds() {
    let suite = run_suite(Mode::Full);
    print_rows(&suite);
    assert_eq!(suite.rows.len(), 3, "roster shape drifted");
    assert_suite(&suite);
    assert!(suite.ok());
}
