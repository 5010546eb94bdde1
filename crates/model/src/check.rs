//! The check suite: the fixed roster of model instances `model_tool
//! check` explores, with smoke and full budgets.
//!
//! Two families:
//!
//! * **Channel proofs** — the vendored channel discipline in isolation
//!   (SPSC and a 3-receiver MPMC). These pin the analysis in
//!   `vendor/crossbeam/src/lib.rs`: `notify_one` after `send` is
//!   sufficient, `notify_all` at last-sender drop is load-bearing.
//!   Every schedule must be free of deadlock and lost wakeups and pass
//!   the model's delivery check.
//! * **Seeded mutant** — one deliberately broken model per
//!   non-trivial [`Mutant`]; the explorer must produce a
//!   counter-example of the expected
//!   [`ViolationKind`](crate::sched::ViolationKind) for each, via
//!   iterative deepening so the printed schedule uses as few
//!   preemptions as the fault allows.
//!
//! Budgets are per row and honest: a row that trips its schedule
//! budget reports `exhaustive = false`, the suite fails, and the CLI
//! prints the truncation. Smoke is sized to finish in seconds in debug
//! builds while still clearing the [`SMOKE_SCHEDULE_FLOOR`]; full
//! raises the preemption bounds and budgets for the `--ignored`
//! exhaustive test and local soak runs.

use crate::explorer::{CounterExample, Explorer};
use crate::mutants::Mutant;
use crate::protocol::{channel_model, ChanConfig};
use crate::sched::Model;

/// Smoke mode must explore at least this many distinct schedules in
/// total, or the suite fails — a shrinking model or an over-eager
/// budget cut cannot silently hollow the check out.
pub const SMOKE_SCHEDULE_FLOOR: u64 = 10_000;

/// Exploration depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CI-sized: seconds in a debug build, still ≥ the schedule floor.
    Smoke,
    /// Deeper preemption bounds and budgets; run by the `--ignored`
    /// exhaustive test and local soaks.
    Full,
}

impl Mode {
    /// Display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Smoke => "smoke",
            Mode::Full => "full",
        }
    }
}

/// What one suite row concluded.
#[derive(Debug, Clone)]
pub enum RowOutcome {
    /// Healthy model: every explored schedule satisfied every
    /// property.
    Proved,
    /// Healthy model: a property failed — a real discipline bug (or a
    /// model regression); always a suite failure.
    Violated(CounterExample),
    /// Mutant caught with the expected violation class.
    MutantCaught(CounterExample),
    /// Mutant survived exploration, or failed with the wrong class —
    /// the checker has a blind spot; always a suite failure.
    MutantMissed(String),
}

/// One explored row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Display name (config shape, plus the mutant label if seeded).
    pub name: String,
    /// Threads in the model.
    pub threads: usize,
    /// Preemption bound explored.
    pub bound: usize,
    /// Distinct schedules executed.
    pub schedules: u64,
    /// `true` when the bound was fully explored within budget.
    pub exhaustive: bool,
    /// Conclusion.
    pub outcome: RowOutcome,
}

impl RowResult {
    /// `true` when this row counts as passing.
    #[must_use]
    pub fn ok(&self) -> bool {
        match &self.outcome {
            RowOutcome::Proved => self.exhaustive,
            RowOutcome::MutantCaught(_) => true,
            RowOutcome::Violated(_) | RowOutcome::MutantMissed(_) => false,
        }
    }
}

/// The whole suite's result.
#[derive(Debug)]
pub struct SuiteResult {
    /// Mode the suite ran in.
    pub mode: Mode,
    /// Every row, in roster order.
    pub rows: Vec<RowResult>,
    /// Total schedules across all rows (the floor applies in smoke).
    pub total_schedules: u64,
}

impl SuiteResult {
    /// `true` when every row passed and (in smoke) the schedule floor
    /// was cleared.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.rows.iter().all(RowResult::ok)
            && (self.mode == Mode::Full || self.total_schedules >= SMOKE_SCHEDULE_FLOOR)
    }
}

/// Builds and explores one healthy row.
fn healthy_row(
    name: String,
    threads: usize,
    bound: usize,
    budget: u64,
    build: &dyn Fn(bool) -> Model,
) -> RowResult {
    let result = Explorer::new(bound, budget).explore(build);
    let outcome = match result.violation {
        None => RowOutcome::Proved,
        Some(ce) => RowOutcome::Violated(ce),
    };
    RowResult {
        name,
        threads,
        bound,
        schedules: result.schedules,
        exhaustive: result.exhaustive,
        outcome,
    }
}

/// Builds and explores one mutant row via iterative deepening.
fn mutant_row(
    name: String,
    threads: usize,
    mutant: Mutant,
    bound: usize,
    budget: u64,
    build: &dyn Fn(bool) -> Model,
) -> RowResult {
    let expected = mutant
        .expected_violation()
        .expect("mutant rows carry a seeded fault");
    let result = Explorer::new(bound, budget).explore_deepening(build);
    let outcome = match result.violation {
        Some(ce) if ce.kind == expected => RowOutcome::MutantCaught(ce),
        Some(ce) => RowOutcome::MutantMissed(format!(
            "expected {}, got {}: {}",
            expected.label(),
            ce.kind.label(),
            ce.detail
        )),
        None => RowOutcome::MutantMissed(format!(
            "survived {} schedule(s) at bound {bound}",
            result.schedules
        )),
    };
    RowResult {
        name,
        threads,
        bound,
        schedules: result.schedules,
        exhaustive: result.exhaustive,
        outcome,
    }
}

/// Runs the full roster for `mode`.
#[must_use]
pub fn run_suite(mode: Mode) -> SuiteResult {
    // Bounds are sized per row so that every proof row is *exhaustive*
    // within its budget — a truncated proof fails the suite. The
    // 2-thread SPSC row is a few hundred to a few thousand schedules
    // even at bound 3; the 4-thread MPMC row grows fastest, so it runs
    // one bound shallower. Budgets are safety nets above those counts:
    // model growth that blows them up fails loudly instead of silently
    // sampling.
    let (bound_small, bound_large, budget): (usize, usize, u64) = match mode {
        Mode::Smoke => (2, 1, 500_000),
        Mode::Full => (3, 2, 4_000_000),
    };

    let mut rows = Vec::new();

    // Channel proofs: pin the vendored discipline (see
    // vendor/crossbeam/src/lib.rs). SPSC exercises notify_one-on-send
    // under re-parking; the 3-receiver MPMC exercises the last-sender
    // notify_all broadcast with multiple parked receivers.
    let spsc = ChanConfig {
        receivers: 1,
        items: 2,
    };
    rows.push(healthy_row(spsc.name(), 2, bound_small, budget, &|rec| {
        channel_model(spsc, Mutant::None, rec)
    }));
    let mpmc = ChanConfig {
        receivers: 3,
        items: 1,
    };
    rows.push(healthy_row(mpmc.name(), 4, bound_large, budget, &|rec| {
        channel_model(mpmc, Mutant::None, rec)
    }));

    // Seeded mutant: must die with its documented violation.
    rows.push(mutant_row(
        format!(
            "mutant {} ({})",
            Mutant::DisconnectNotifyOne.label(),
            mpmc.name()
        ),
        4,
        Mutant::DisconnectNotifyOne,
        bound_small,
        budget,
        &|rec| channel_model(mpmc, Mutant::DisconnectNotifyOne, rec),
    ));

    let total_schedules = rows.iter().map(|r| r.schedules).sum();
    SuiteResult {
        mode,
        rows,
        total_schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::CounterExample;
    use crate::sched::ViolationKind;

    // The suite itself runs once in tests/model_check.rs (a few
    // seconds in a debug build); unit tests here only cover the row
    // bookkeeping.

    #[test]
    fn row_ok_demands_exhaustive_proofs_but_not_exhaustive_mutants() {
        let ce = CounterExample {
            kind: ViolationKind::Deadlock,
            detail: String::new(),
            schedule: vec![0],
            preemptions: 0,
            log: Vec::new(),
        };
        let mut row = RowResult {
            name: "x".to_string(),
            threads: 2,
            bound: 1,
            schedules: 10,
            exhaustive: false,
            outcome: RowOutcome::Proved,
        };
        assert!(!row.ok(), "a truncated proof is no proof");
        row.exhaustive = true;
        assert!(row.ok());
        row.outcome = RowOutcome::MutantCaught(ce.clone());
        row.exhaustive = false;
        assert!(row.ok(), "a caught mutant needs no exhaustion");
        row.outcome = RowOutcome::Violated(ce);
        assert!(!row.ok());
        row.outcome = RowOutcome::MutantMissed("survived".to_string());
        assert!(!row.ok());
    }

    #[test]
    fn smoke_floor_gates_the_suite_verdict() {
        let suite = SuiteResult {
            mode: Mode::Smoke,
            rows: Vec::new(),
            total_schedules: SMOKE_SCHEDULE_FLOOR - 1,
        };
        assert!(!suite.ok(), "an empty smoke run must not pass the floor");
    }
}
