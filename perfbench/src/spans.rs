//! In-memory wall-clock spans recorded around calls into the engine's
//! layers.
//!
//! Every span is recorded by the benchmark's own code, around a call it
//! makes (or a call the engine makes into a decorator the benchmark
//! handed it); nothing inside the program is instrumented. Spans are kept
//! in memory and written out as JSONL once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span is about. The spans of one patch (or one invocation)
/// share an id, so a patch's path through the layers can be followed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// A span not tied to a single work item (a round, a whole run).
    None,
    /// A camera, by engine index.
    Camera(u32),
    /// A patch, by its `PatchId`.
    Patch(u64),
    /// A serverless invocation, by its `InvocationId`.
    Invocation(u64),
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.operation`, e.g. `stitch.stitch`.
    pub name: &'static str,
    /// The work item the call served.
    pub id: SpanId,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration, nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total wall time and call count of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time (duration minus children), seconds.
    pub self_s: f64,
}

/// A span log sharing one time origin.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that is closed later with [`SpanLog::close`] (for a
    /// span whose children are recorded while it is open).
    pub fn open(&mut self, name: &'static str, id: SpanId, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        })
    }

    /// Closes a span opened with [`SpanLog::open`].
    pub fn close(&mut self, index: usize) {
        let end = self.now_ns();
        self.spans[index].end_ns = end;
    }

    /// Sets the work item of a span recorded before its id was known.
    pub fn set_id(&mut self, index: usize, id: SpanId) {
        self.spans[index].id = id;
    }

    /// Runs `call` inside a span and returns its result with the span's
    /// index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: SpanId,
        parent: Option<usize>,
        call: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start_ns = self.now_ns();
        let result = call();
        let end_ns = self.now_ns();
        let index = self.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        (result, index)
    }

    /// Moves `other`'s spans into this log (same origin), re-parenting
    /// its root spans under `parent`.
    pub fn adopt(&mut self, other: Vec<Span>, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut span| {
            span.parent = match span.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            span
        }));
    }

    /// Each span's self time: its duration minus its children's.
    ///
    /// A child may run outside its parent's interval (a shadow call
    /// replayed next to the call it stands for); its duration is still
    /// charged to the child, never twice.
    #[must_use]
    pub fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.duration_ns()))
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= i128::from(span.duration_ns());
            }
        }
        own
    }

    /// Call counts and summed self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let own = self.self_ns();
        let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_s += own as f64 * 1e-9;
        }
        totals
    }

    /// The log as JSONL, one span per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let id = match span.id {
                SpanId::None => "null".to_string(),
                SpanId::Camera(c) => format!("\"camera:{c}\""),
                SpanId::Patch(p) => format!("\"patch:{p}\""),
                SpanId::Invocation(i) => format!("\"invocation:{i}\""),
            };
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(Span {
            name: "engine.run",
            id: SpanId::None,
            parent: None,
            start_ns: 0,
            end_ns: 100,
        });
        log.push(Span {
            name: "video.next_frame",
            id: SpanId::Camera(0),
            parent: Some(root),
            start_ns: 10,
            end_ns: 40,
        });
        log.adopt(
            vec![Span {
                name: "admission.admit",
                id: SpanId::Patch(7),
                parent: None,
                start_ns: 50,
                end_ns: 60,
            }],
            Some(root),
        );
        assert_eq!(log.self_ns(), vec![60, 30, 10]);
        let totals = log.totals();
        assert_eq!(totals["engine.run"].calls, 1);
        assert!((totals["engine.run"].self_s - 60e-9).abs() < 1e-15);
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }
}
