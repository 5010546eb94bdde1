//! The concurrency-discipline rule family.
//!
//! The workspace's cross-thread code has a correctness argument with
//! two legs: the bounded model checker (`crates/model`) proves the
//! vendored channel discipline within its preemption bounds, and these
//! lints keep the *real* code inside the envelope the model actually
//! covers. A thread spawned outside the sanctioned sites, a channel
//! created ad hoc, or a lock held across a blocking channel call is
//! concurrency the model has never seen — so each is a finding until a
//! waiver ties it back to the checked discipline.
//!
//! * **`conc-raw-thread`** — `thread::spawn` / `thread::scope` anywhere
//!   under `crates/*/src`. The sanctioned spawn sites (the live
//!   runtime's worker and the harness sweep pool) carry waivers in
//!   `config/lint_allow.toml` whose justifications name the discipline
//!   that governs them.
//! * **`conc-unbounded-channel`** — `unbounded` channel construction.
//!   Every sanctioned channel is drained by construction (the runtime
//!   dispatch queue, the sweep pool's job list); a new unbounded channel
//!   needs the same argument, in a waiver justification.
//! * **`conc-lock-across-send`** — a `let`-bound lock guard still live
//!   on a line that calls `.send(` / `.recv(`. Blocking on a channel
//!   while holding a mutex is the shape of every deadlock the model
//!   checker hunts; the vendored channel itself never does this (its
//!   state lock is released before `notify_one`), and nothing else in
//!   the workspace should either. The tracker is a brace-depth
//!   heuristic over the scanner's comment-stripped code: a guard dies
//!   at an explicit `drop(guard)` or when its binding's scope closes.
//!
//! Test code is skipped everywhere, as in the determinism family: a
//! test thread cannot deadlock the production runtime.

use crate::scan::{has_word, scan};
use crate::walk::{read_file, rust_sources};
use crate::Violation;
use std::path::Path;

/// Raw-thread tokens (word-boundary matched against comment-stripped
/// code, so `std::thread::spawn` and a bare `thread::spawn` both hit).
const RAW_THREAD: [&str; 2] = ["thread::spawn", "thread::scope"];

/// Channel-construction token. Matches the call and the `use` import;
/// a file's waiver covers both, and an import with no call is dead code
/// the compiler already rejects.
const UNBOUNDED: &str = "unbounded";

/// One live lock guard: the binding's name and the brace depth its
/// scope closes at.
struct Guard {
    name: String,
    depth: i64,
}

/// Runs the concurrency family over `root`'s `crates/*/src` trees.
///
/// # Errors
///
/// Returns a message when a source file cannot be read.
pub fn check_concurrency(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for rel in rust_sources(root)? {
        let text = read_file(root, &rel)?;
        let file = scan(&text);
        let mut depth: i64 = 0;
        let mut guards: Vec<Guard> = Vec::new();
        for line in file.code_lines() {
            if let Some(token) = RAW_THREAD.iter().find(|t| has_word(&line.code, t)) {
                violations.push(Violation::new(
                    &rel,
                    line.number,
                    "conc-raw-thread",
                    format!(
                        "`{token}` outside the sanctioned spawn sites; new threads need a \
                         waiver naming the protocol that disciplines them"
                    ),
                ));
            }
            if has_word(&line.code, UNBOUNDED) {
                violations.push(Violation::new(
                    &rel,
                    line.number,
                    "conc-unbounded-channel",
                    "`unbounded` channel construction; sanctioned channels are drained by \
                     construction, and say so in a waiver"
                        .to_string(),
                ));
            }

            // Lock-guard tracking. Order within the line is beyond a
            // line scanner, so a guard born on this line is considered
            // live for the whole line — `let g = m.lock(); g.send(x)`
            // on one line still reports.
            if let Some(name) = guard_binding(&line.code) {
                guards.push(Guard { name, depth });
            }
            for guard_idx in (0..guards.len()).rev() {
                if line
                    .code
                    .contains(&format!("drop({})", guards[guard_idx].name))
                {
                    guards.remove(guard_idx);
                }
            }
            if !guards.is_empty() && (line.code.contains(".send(") || line.code.contains(".recv("))
            {
                let holder = &guards[guards.len() - 1].name;
                violations.push(Violation::new(
                    &rel,
                    line.number,
                    "conc-lock-across-send",
                    format!(
                        "channel call while lock guard `{holder}` is live; blocking under a \
                         mutex is the deadlock shape the model checker hunts"
                    ),
                ));
            }
            // Track scope depth after the line's checks: a guard bound
            // at depth d dies when depth drops back to d.
            for c in line.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        guards.retain(|g| g.depth <= depth);
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(violations)
}

/// Extracts the binding name from `let <name> = <expr>.lock(…)` (with
/// or without `mut`), the only guard shape the tracker follows.
fn guard_binding(code: &str) -> Option<String> {
    if !code.contains(".lock(") {
        return None;
    }
    let let_at = code.find("let ")?;
    let rest = &code[let_at + 4..];
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let eq = rest.find('=')?;
    // The `.lock(` must sit on the right-hand side of this binding.
    if name.is_empty() || !rest[eq..].contains(".lock(") {
        return None;
    }
    Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_binding_extracts_simple_lock_bindings() {
        assert_eq!(
            guard_binding("let state = self.shared.state.lock().unwrap();"),
            Some("state".to_string())
        );
        assert_eq!(
            guard_binding("    let mut g = mutex.lock();"),
            Some("g".to_string())
        );
        assert_eq!(guard_binding("let x = compute();"), None);
        assert_eq!(guard_binding("locked.send(x);"), None);
        assert_eq!(guard_binding("let _ = foo(); // no lock"), None);
    }
}
