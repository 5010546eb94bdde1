//! Options common to all experiment binaries.

use crate::report::BenchReport;
use std::path::PathBuf;

/// Options every experiment binary accepts.
#[derive(Debug, Clone, Default)]
pub struct ExpOpts {
    /// Experiment seed (`--seed N`).
    pub seed: u64,
    /// Frame-count override (`--frames N`).
    pub frames: Option<usize>,
    /// Quick mode (`--quick`): fewer frames/scenes for smoke runs.
    pub quick: bool,
    /// Worker-thread override (`--workers N`); default: all cores.
    pub workers: Option<usize>,
    /// Directory to write `BENCH_<name>.json` reports into (`--out DIR`);
    /// default: don't write.
    pub out: Option<PathBuf>,
}

impl ExpOpts {
    /// Parses `std::env::args`. Unknown flags are ignored so wrappers can
    /// pass extra context.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses the given arguments (first element is the first flag, not
    /// the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = Self {
            seed: 42,
            ..Self::default()
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                "--frames" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.frames = Some(v);
                        i += 1;
                    }
                }
                "--workers" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.workers = Some(v);
                        i += 1;
                    }
                }
                "--out" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.out = Some(PathBuf::from(v));
                        i += 1;
                    }
                }
                "--quick" => opts.quick = true,
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// Frame budget: explicit `--frames`, else `quick_default` in quick
    /// mode, else `full_default`.
    #[must_use]
    pub fn frame_budget(&self, quick_default: usize, full_default: usize) -> usize {
        self.frames.unwrap_or(if self.quick {
            quick_default
        } else {
            full_default
        })
    }

    /// The resolved worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        crate::pool::resolve_workers(self.workers)
    }

    /// Writes the report into `--out` (if given), printing the path.
    pub fn maybe_write(&self, report: &BenchReport) {
        if let Some(dir) = &self.out {
            match report.write_to_dir(dir) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(err) => eprintln!("failed to write {}: {err}", report.file_name()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> ExpOpts {
        ExpOpts::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults() {
        let o = opts(&[]);
        assert_eq!(o.seed, 42);
        assert_eq!(o.frames, None);
        assert!(!o.quick);
        assert_eq!(o.workers, None);
        assert!(o.out.is_none());
        assert!(o.workers() >= 1);
    }

    #[test]
    fn parses_all_flags() {
        let o = opts(&[
            "--seed",
            "7",
            "--frames",
            "13",
            "--quick",
            "--workers",
            "3",
            "--out",
            "target/bench",
        ]);
        assert_eq!(o.seed, 7);
        assert_eq!(o.frames, Some(13));
        assert!(o.quick);
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.out.as_deref(), Some(std::path::Path::new("target/bench")));
        assert_eq!(o.workers(), 3);
    }

    #[test]
    fn ignores_unknown_flags() {
        let o = opts(&["--smoke", "--seed", "9"]);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn frame_budget_precedence() {
        assert_eq!(opts(&["--frames", "5"]).frame_budget(10, 100), 5);
        assert_eq!(opts(&["--quick"]).frame_budget(10, 100), 10);
        assert_eq!(opts(&[]).frame_budget(10, 100), 100);
    }
}
