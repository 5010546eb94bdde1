//! `model_tool` — the bounded model checker's CLI.
//!
//! The CI lints job runs `model_tool check --smoke` beside `lint_tool
//! check`: a schedule in which the vendored channel discipline
//! deadlocks, loses a wakeup or drops a message fails the build with
//! the offending schedule printed — and so does a seeded mutant the
//! explorer fails to catch, because a checker that cannot kill its
//! mutants proves nothing.
//!
//! Subcommands:
//!
//! * `check [--smoke|--full]` — run the [`tangram_model::check`]
//!   suite. Per row: threads, preemption bound, schedules explored,
//!   whether the bound was exhausted, and the verdict. Mutant rows
//!   print their minimal counter-example (decision vector plus step
//!   log). Exit 0 when the suite passes, 1 on any failure, 2 on usage
//!   errors. Truncation is never silent: a row that tripped its
//!   schedule budget says so and fails the suite.
//! * `mutants` — list the seeded mutant with its expected violation
//!   class.

use std::process::ExitCode;

use tangram_model::check::{run_suite, Mode, RowOutcome, SMOKE_SCHEDULE_FLOOR};
use tangram_model::explorer::CounterExample;
use tangram_model::Mutant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("mutants") => {
            let mutant = Mutant::DisconnectNotifyOne;
            let expected = mutant.expected_violation().map_or("-", |kind| kind.label());
            println!(
                "{:<24} {:<24} {}",
                mutant.label(),
                expected,
                mutant.describe()
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: model_tool check [--smoke|--full] | model_tool mutants");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut mode = Mode::Smoke;
    for arg in args {
        match arg.as_str() {
            "--smoke" => mode = Mode::Smoke,
            "--full" => mode = Mode::Full,
            other => {
                eprintln!("model_tool: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "model_tool: exploring the channel discipline ({} mode)",
        mode.label()
    );
    let suite = run_suite(mode);

    println!(
        "{:<54} {:>7} {:>6} {:>10} {:>11}  verdict",
        "config", "threads", "bound", "schedules", "exhaustive"
    );
    for row in &suite.rows {
        // Exhaustion only means something for proofs; a row that
        // stopped because it found the counter-example it was hunting
        // is done, not truncated.
        let exhaustive = match &row.outcome {
            RowOutcome::MutantCaught(_) | RowOutcome::Violated(_) => "-",
            RowOutcome::Proved | RowOutcome::MutantMissed(_) => {
                if row.exhaustive {
                    "yes"
                } else {
                    "TRUNCATED"
                }
            }
        };
        let verdict = match &row.outcome {
            RowOutcome::Proved => "ok: every property holds".to_string(),
            RowOutcome::Violated(ce) => {
                format!("VIOLATED: {} — {}", ce.kind.label(), ce.detail)
            }
            RowOutcome::MutantCaught(ce) => format!(
                "caught: {} after {} preemption(s)",
                ce.kind.label(),
                ce.preemptions
            ),
            RowOutcome::MutantMissed(why) => format!("MISSED: {why}"),
        };
        println!(
            "{:<54} {:>7} {:>6} {:>10} {:>11}  {verdict}",
            row.name, row.threads, row.bound, row.schedules, exhaustive
        );
    }

    // Counter-examples in full, after the table: the failing schedule
    // for anything broken, the minimal witness for every caught mutant.
    for row in &suite.rows {
        match &row.outcome {
            RowOutcome::Violated(ce) => print_counter_example(&row.name, ce),
            RowOutcome::MutantCaught(ce) => print_counter_example(&row.name, ce),
            RowOutcome::Proved | RowOutcome::MutantMissed(_) => {}
        }
    }

    println!(
        "total: {} schedules across {} configs",
        suite.total_schedules,
        suite.rows.len()
    );
    if mode == Mode::Smoke {
        println!(
            "smoke floor: {} (explored {})",
            SMOKE_SCHEDULE_FLOOR, suite.total_schedules
        );
    }
    if suite.ok() {
        println!("model_tool: OK — discipline proved within bounds, all mutants caught");
        ExitCode::SUCCESS
    } else {
        eprintln!("model_tool: FAILED (see table above)");
        ExitCode::FAILURE
    }
}

/// Prints one counter-example: violation, decision vector, step log.
fn print_counter_example(name: &str, ce: &CounterExample) {
    println!();
    println!("--- {name}: {} ({})", ce.kind.label(), ce.detail);
    println!(
        "    schedule ({} decisions, {} preemption(s)): {:?}",
        ce.schedule.len(),
        ce.preemptions,
        ce.schedule
    );
    for line in &ce.log {
        println!("    {line}");
    }
}
