//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::process::ExitCode;
use tangram_perfbench::bench::{self, Args};
use tangram_perfbench::heap::CountingAlloc;
use tangram_perfbench::metrics;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} ({} run, {:.0} s)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (def, value) in &outcome.metrics {
        match value {
            Some(v) => println!("  {:<30} {v:>16.6} {}", def.name, def.unit),
            None => println!("  {:<30} {:>16} {}", def.name, "unmeasured", def.unit),
        }
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
