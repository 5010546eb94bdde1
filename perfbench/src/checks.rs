//! Output checks every run's report must pass. A run that fails one
//! counts as a failed operation; its numbers are not reported.

use crate::workload::Offered;
use std::collections::BTreeMap;
use tangram_core::report::RunReport;
use tangram_trace::{TraceEvent, TraceLog};

/// Conservation: every offered arrival was either completed or shed, and
/// the patch records match the accepted work tile for tile.
///
/// # Errors
///
/// Describes the first violated condition.
pub fn conservation(report: &RunReport, offered: &Offered) -> Result<(), String> {
    if report.frames != offered.frames {
        return Err(format!(
            "frames: report {} != offered {}",
            report.frames, offered.frames
        ));
    }
    let mut records: BTreeMap<u64, u32> = BTreeMap::new();
    for record in &report.patches {
        *records.entry(record.patch.raw()).or_default() += 1;
    }
    for (&id, &count) in &records {
        let tiles = offered
            .tiles_of(id)
            .ok_or_else(|| format!("patch {id} was never offered"))?;
        if count != tiles {
            return Err(format!(
                "patch {id}: {count} records for {tiles} accepted tiles"
            ));
        }
    }
    let completed = records.len() as u64;
    if completed + report.dropped_arrivals != offered.arrivals {
        return Err(format!(
            "arrivals: {completed} completed + {} shed != {} offered",
            report.dropped_arrivals, offered.arrivals
        ));
    }
    let batched: usize = report.batches.iter().map(|b| b.patch_count).sum();
    if batched != report.patches.len() {
        return Err(format!(
            "batches carry {batched} patches but {} were recorded",
            report.patches.len()
        ));
    }
    if report.platform.invocations != report.batches.len() as u64 {
        return Err(format!(
            "{} invocations for {} batches",
            report.platform.invocations,
            report.batches.len()
        ));
    }
    Ok(())
}

/// The captured runtime trace narrates the report: its hash chain
/// verifies and its replayed counters equal the report's.
///
/// Admission drops appear in the trace as verdicts; fair-ingress
/// overflow drops do not, so the check accounts for them through the
/// ingress's own admitted counts: every admitted verdict either entered
/// the ingress or overflowed it.
///
/// # Errors
///
/// Describes the first violated condition.
pub fn trace_matches(
    report: &RunReport,
    trace: &TraceLog,
    offered: &Offered,
) -> Result<(), String> {
    trace.verify().map_err(|e| format!("trace chain: {e}"))?;
    let counts = trace.replay_counts();
    let batches = report.batches.len() as u64;
    if counts.batches != batches
        || counts.completions != batches
        || counts.patches != report.patches.len() as u64
    {
        return Err(format!(
            "trace counts {counts:?} disagree with the report ({batches} batches, {} patches)",
            report.patches.len()
        ));
    }
    let verdicts = trace
        .records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::AdmissionVerdict { .. }))
        .count() as u64;
    if verdicts == 0 {
        // No admission stage: nothing is shed before the ingress.
        return if counts.dropped == 0 {
            Ok(())
        } else {
            Err(format!("{} drops without verdicts", counts.dropped))
        };
    }
    if verdicts != offered.arrivals {
        return Err(format!(
            "{verdicts} admission verdicts for {} offered arrivals",
            offered.arrivals
        ));
    }
    let admitted = verdicts - counts.dropped;
    let ingress_admitted: u64 = if report.ingress_admitted.is_empty() {
        admitted
    } else {
        report.ingress_admitted.iter().map(|&(_, n)| n).sum()
    };
    let overflow = admitted
        .checked_sub(ingress_admitted)
        .ok_or("the ingress admitted more than admission passed")?;
    if counts.dropped + overflow != report.dropped_arrivals {
        return Err(format!(
            "trace drops {} + ingress overflow {overflow} != report drops {}",
            counts.dropped, report.dropped_arrivals
        ));
    }
    Ok(())
}
