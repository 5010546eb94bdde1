//! The seeded mutant: a deliberately broken variant of the channel
//! discipline that the explorer must catch. It is one switch point in
//! the extracted model — a single changed action, exactly the kind of
//! one-line mistake a refactor of `vendor/crossbeam` could introduce —
//! with a documented expected violation. A mutant the explorer misses
//! is a hole in the checker, and the suite treats it as a failure.

use crate::sched::ViolationKind;

/// Which (if any) seeded fault a model run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The faithful model: the discipline actually implemented by the
    /// vendored channel.
    None,
    /// The vendored channel's last-sender drop uses `notify_one`
    /// instead of `notify_all`. With two or more receivers parked at
    /// disconnect, all but one are never told the channel is dead.
    DisconnectNotifyOne,
}

impl Mutant {
    /// Stable kebab-case identifier (printed by `model_tool`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mutant::None => "none",
            Mutant::DisconnectNotifyOne => "disconnect-notify-one",
        }
    }

    /// The violation class the explorer is expected to report for this
    /// mutant (`None` for the faithful model, which must be clean).
    #[must_use]
    pub fn expected_violation(self) -> Option<ViolationKind> {
        match self {
            Mutant::None => None,
            Mutant::DisconnectNotifyOne => Some(ViolationKind::LostWakeup),
        }
    }

    /// One-line description of the seeded fault.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Mutant::None => "faithful model, no seeded fault",
            Mutant::DisconnectNotifyOne => "last-sender drop notifies one receiver, not all",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_expectations_cover_all_mutants() {
        let all = [Mutant::None, Mutant::DisconnectNotifyOne];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        assert!(Mutant::None.expected_violation().is_none());
        for m in &all[1..] {
            assert!(
                m.expected_violation().is_some(),
                "{} has no expectation",
                m.label()
            );
        }
    }
}
