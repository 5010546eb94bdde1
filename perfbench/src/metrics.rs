//! Metric definitions, the statistics the benchmark reports, and the
//! result line.

use std::fmt::Write as _;

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 8] = [
    m("frames_per_s", "1/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_heap_mb", "MB", Lower),
    m("slo_attainment", "ratio", Higher),
    m("latency_p50_s", "s", Lower),
    m("latency_p99_s", "s", Lower),
    m("cost_usd_per_1k_patches", "USD", Lower),
    m("uplink_kb_per_frame", "kB", Lower),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Times are
/// wall seconds per engine run; counts are per engine run.
pub const PER_LAYER: [MetricDef; 47] = [
    m("video.frames", "count", Higher),
    m("video.capture_s", "s", Lower),
    m("video.capture_share", "ratio", Lower),
    m("net.enqueues", "count", Lower),
    m("net.enqueue_s", "s", Lower),
    m("net.busy_ratio", "ratio", Lower),
    m("net.wait_p99_s", "s", Lower),
    m("admission.calls", "count", Lower),
    m("admission.admit_s", "s", Lower),
    m("admission.admit_ratio", "ratio", Higher),
    m("drr.rounds", "count", Lower),
    m("drr.round_s", "s", Lower),
    m("drr.enqueue_s", "s", Lower),
    m("drr.peak_backlog", "count", Lower),
    m("scheduler.arrivals", "count", Lower),
    m("scheduler.on_patch_s", "s", Lower),
    m("scheduler.on_timer_s", "s", Lower),
    m("scheduler.on_signals_s", "s", Lower),
    m("scheduler.patches_per_batch", "count", Higher),
    m("scheduler.queue_wait_p99_s", "s", Lower),
    m("stitch.calls", "count", Lower),
    m("stitch.items", "count", Lower),
    m("stitch.stitch_s", "s", Lower),
    m("stitch.share", "ratio", Lower),
    m("stitch.canvas_efficiency", "ratio", Higher),
    m("platform.submits", "count", Lower),
    m("platform.submit_s", "s", Lower),
    m("platform.submit_share", "ratio", Lower),
    m("platform.complete_s", "s", Lower),
    m("platform.snapshot_s", "s", Lower),
    m("platform.peak_instances", "count", Lower),
    m("platform.cold_ratio", "ratio", Lower),
    m("platform.start_wait_p99_s", "s", Lower),
    m("sim.events", "count", Lower),
    m("sim.events_per_frame", "count", Lower),
    m("trace.records", "count", Lower),
    m("trace.bytes", "bytes", Lower),
    m("trace.emit_s", "s", Lower),
    m("engine.run_s", "s", Lower),
    m("engine.self_s", "s", Lower),
    m("setup.traces_s", "s", Lower),
    m("setup.engine_s", "s", Lower),
    m("bench.trace_overhead", "ratio", Lower),
    m("ingress.shed_ratio", "ratio", Lower),
    m("slo.miss_ratio", "ratio", Lower),
    m("host.calibration_s", "s", Lower),
    m("host.peak_rss_mb", "MB", Lower),
];

/// Whether `name` uses only the characters metric names may use.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The median of `values` (`None` when empty).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`None` when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// A metric's reported value: `None` marks a layer the replay could not
/// reproduce on this workload (unmeasured).
pub type Reported = (&'static MetricDef, Option<f64>);

/// The result object, printed as the last line of standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        let value = match value {
            Some(v) if v.is_finite() => format!("{v:?}"),
            _ => "null".to_string(),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[5.0], 0.99), Some(5.0));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[(&END_TO_END[0], Some(1.5)), (&END_TO_END[1], None)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"frames_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
