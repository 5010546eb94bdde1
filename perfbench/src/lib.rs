//! The repository benchmark: regime-pinned streaming workloads run
//! through the engine's public entry points, end-to-end metrics with
//! output checks, and a per-layer traced replay.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `METRICS.md` lists
//! every metric, the layer it measures and what it is predicted to move.

pub mod bench;
pub mod checks;
pub mod engine;
pub mod heap;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod workload;
