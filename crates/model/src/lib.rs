//! `tangram-model` — a hand-rolled, loom-style bounded model checker
//! for the vendored channel discipline.
//!
//! The workspace moves work across threads over the vendored crossbeam
//! channel in two places: `LiveTangram`'s worker
//! (`crates/core/src/runtime.rs`) and the sweep pool
//! (`crates/harness/src/pool.rs`). The channel claims two properties
//! that no unit test can establish, because they quantify over
//! *schedules*, not inputs: every sent message is delivered exactly
//! once, and every parked receiver learns about the last sender's
//! drop — no deadlock, no lost wakeup. This crate checks those claims
//! the way loom or CHESS would — but hand-rolled, because the workspace
//! vendors every dependency:
//!
//! * [`sched`] — mock mutexes, condvars and channel state stepped one
//!   atomic action at a time, with every nondeterministic choice
//!   (thread to run, waiter to wake, contender to hand a lock to)
//!   routed through a single [`sched::Chooser`];
//! * [`channel`] — the vendored crossbeam channel's operations as
//!   micro-op state machines, preserving the unlock→notify race
//!   window that makes notification disciplines worth checking;
//! * [`protocol`] — the standalone channel model: one sender, several
//!   receivers, a delivery check at the end;
//! * [`explorer`] — stateless DFS over decision vectors with CHESS-
//!   style preemption bounding and honest truncation reporting;
//! * [`mutants`] — the seeded one-line breakage the explorer must
//!   catch, with its documented violation class;
//! * [`check`] — the fixed suite (`model_tool check --smoke` in CI's
//!   lints job; `--full` from the ignored exhaustive test).
//!
//! The model is an extracted abstraction, not shared code:
//! `docs/ARCHITECTURE.md`'s "Concurrency model checking" section
//! records the correspondence argument and its limits.

pub mod channel;
pub mod check;
pub mod explorer;
pub mod mutants;
pub mod protocol;
pub mod sched;

pub use check::{run_suite, Mode, SuiteResult};
pub use explorer::{CounterExample, Explorer};
pub use mutants::Mutant;
pub use sched::ViolationKind;
