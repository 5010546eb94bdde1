//! Host-speed calibration for the wall-clock metrics.
//!
//! On a shared host the speed available to one process drifts by a
//! quarter or more over tens of seconds, and the drift slows generic
//! compute as much as it slows the engine. So each timed engine run is
//! followed by a fixed calibration computation, and the end-to-end
//! wall-clock figures are rescaled by the calibration's duration to a
//! host on which it takes [`REFERENCE_S`]: a run during a slow spell
//! reports what it would have measured at the reference speed.

use std::hint::black_box;
use std::time::Instant;

/// Calibration duration of the reference host, seconds.
pub const REFERENCE_S: f64 = 0.005;

/// Keys the calibration sorts.
const KEYS: usize = 150_000;

/// Runs the calibration computation (sorting pseudo-random keys and
/// building an ordered map over a slice of them) and returns its wall
/// duration in seconds.
#[must_use]
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        })
        .collect();
    keys.sort_unstable();
    let map: std::collections::BTreeMap<u64, usize> = keys
        .iter()
        .step_by(7)
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    black_box(&map);
    start.elapsed().as_secs_f64()
}

/// The factor by which the host ran slower than the reference during a
/// calibration that took `calibration_s`.
#[must_use]
pub fn slowdown(calibration_s: f64) -> f64 {
    calibration_s / REFERENCE_S
}
