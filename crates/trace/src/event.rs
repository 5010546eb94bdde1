//! The trace event alphabet and its canonical field rendering.

/// One runtime event, as the engine saw it.
///
/// All quantities are integers: instants and durations in microseconds,
/// megapixels in micro-megapixels (`_e6` suffix), identities as the raw
/// id values the `tangram-types` newtypes wrap. Integer-only bodies make
/// the canonical rendering (and therefore the hash chain and byte
/// comparisons) immune to float formatting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The run began: the configuration a replay must reproduce.
    SessionStart {
        /// Batching policy under test.
        policy: String,
        /// Engine seed.
        seed: u64,
        /// Camera sources registered at start.
        cameras: u64,
    },
    /// Camera `camera` came online.
    CameraJoin {
        /// Raw camera id.
        camera: u64,
    },
    /// Camera `camera` went offline.
    CameraLeave {
        /// Raw camera id.
        camera: u64,
    },
    /// The admission policy ruled on an arrival, with the load signals
    /// that justified the verdict.
    AdmissionVerdict {
        /// Raw id of the arriving patch/frame.
        patch: u64,
        /// The arrival's tenant SLO, microseconds.
        slo_us: u64,
        /// `true` = admitted, `false` = shed.
        admitted: bool,
        /// Queue-depth signal: admitted-but-undispatched work items
        /// (fair-ingress residents included).
        queued: u64,
        /// Backend signal: in-flight invocations.
        in_flight: u64,
        /// Backend signal: when a batch submitted now would start, µs.
        earliest_start_us: u64,
    },
    /// A weighted-DRR service round ran.
    DrrRound {
        /// Work items released to the batching policy this round.
        released: u64,
        /// Items still queued at the ingress after the round.
        backlog: u64,
    },
    /// The policy dispatched a batch to the serverless platform.
    BatchDispatch {
        /// Zero-based dispatch index within the run.
        batch: u64,
        /// Patches whose results the invocation produces.
        patches: u64,
        /// Model inputs (canvases / padded patches / frames).
        inputs: u64,
        /// Work to execute, micro-megapixels.
        megapixels_e6: u64,
    },
    /// A previously submitted invocation finished.
    FunctionComplete {
        /// Raw invocation id.
        invocation: u64,
        /// Batch size (inputs) of the completed invocation.
        inputs: u64,
        /// SLO violations among the batch's patches.
        violations: u64,
    },
    /// A declarative fault window opened (fault injection is active
    /// until `until_us`). Fault-free runs never emit this kind, so
    /// legacy golden traces are unaffected.
    FaultWindow {
        /// The fault kind's stable name (`link_outage`, `latency_tail`,
        /// `cold_start_storm`, `camera_flap`, `brownout`).
        kind: String,
        /// When the window closes, microseconds since simulation start.
        until_us: u64,
    },
    /// The run drained: totals a consumer can check the stream against.
    SessionEnd {
        /// Frames injected by all cameras.
        frames: u64,
        /// Batches dispatched.
        batches: u64,
        /// Invocations completed.
        completions: u64,
        /// Arrivals shed at the ingress (admission + fair-ingress
        /// overflow).
        dropped: u64,
        /// Run makespan, microseconds.
        makespan_us: u64,
    },
}

impl TraceEvent {
    /// The record's `"kind"` tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SessionStart { .. } => "session.start",
            TraceEvent::CameraJoin { .. } => "camera.join",
            TraceEvent::CameraLeave { .. } => "camera.leave",
            TraceEvent::AdmissionVerdict { .. } => "admission.verdict",
            TraceEvent::DrrRound { .. } => "drr.round",
            TraceEvent::BatchDispatch { .. } => "batch.dispatch",
            TraceEvent::FunctionComplete { .. } => "function.complete",
            TraceEvent::FaultWindow { .. } => "fault.window",
            TraceEvent::SessionEnd { .. } => "session.end",
        }
    }

    /// Every kind tag, in a fixed order (stats tables).
    pub const KINDS: [&'static str; 9] = [
        "session.start",
        "camera.join",
        "camera.leave",
        "admission.verdict",
        "drr.round",
        "batch.dispatch",
        "function.complete",
        "fault.window",
        "session.end",
    ];

    /// Calls `visit` with every `(key, value)` field of the event in
    /// canonical order. This is the one place a kind's keys and their
    /// order are declared: rendering, the hash chain and the reader's
    /// key check all walk it.
    pub(crate) fn visit_fields(&self, mut visit: impl FnMut(&'static str, Field<'_>)) {
        use Field::{Bool, Int, Str};
        match self {
            TraceEvent::SessionStart {
                policy,
                seed,
                cameras,
            } => {
                visit("policy", Str(policy));
                visit("seed", Int(*seed));
                visit("cameras", Int(*cameras));
            }
            TraceEvent::CameraJoin { camera } | TraceEvent::CameraLeave { camera } => {
                visit("camera", Int(*camera));
            }
            TraceEvent::AdmissionVerdict {
                patch,
                slo_us,
                admitted,
                queued,
                in_flight,
                earliest_start_us,
            } => {
                visit("patch", Int(*patch));
                visit("slo_us", Int(*slo_us));
                visit("admitted", Bool(*admitted));
                visit("queued", Int(*queued));
                visit("in_flight", Int(*in_flight));
                visit("earliest_start_us", Int(*earliest_start_us));
            }
            TraceEvent::DrrRound { released, backlog } => {
                visit("released", Int(*released));
                visit("backlog", Int(*backlog));
            }
            TraceEvent::BatchDispatch {
                batch,
                patches,
                inputs,
                megapixels_e6,
            } => {
                visit("batch", Int(*batch));
                visit("patches", Int(*patches));
                visit("inputs", Int(*inputs));
                visit("megapixels_e6", Int(*megapixels_e6));
            }
            TraceEvent::FunctionComplete {
                invocation,
                inputs,
                violations,
            } => {
                visit("invocation", Int(*invocation));
                visit("inputs", Int(*inputs));
                visit("violations", Int(*violations));
            }
            TraceEvent::FaultWindow { kind, until_us } => {
                visit("fault", Str(kind));
                visit("until_us", Int(*until_us));
            }
            TraceEvent::SessionEnd {
                frames,
                batches,
                completions,
                dropped,
                makespan_us,
            } => {
                visit("frames", Int(*frames));
                visit("batches", Int(*batches));
                visit("completions", Int(*completions));
                visit("dropped", Int(*dropped));
                visit("makespan_us", Int(*makespan_us));
            }
        }
    }

    /// Writes the canonical `,"key":value` rendering of the event's
    /// fields into `out`.
    pub(crate) fn render_fields(&self, out: &mut impl Render) {
        self.visit_fields(|key, value| {
            out.text(",\"");
            out.text(key);
            out.text("\":");
            value.render(out);
        });
    }

    /// Rebuilds an event from its kind tag and parsed fields.
    pub(crate) fn from_fields(kind: &str, fields: &Fields) -> Result<TraceEvent, String> {
        Ok(match kind {
            "session.start" => TraceEvent::SessionStart {
                policy: fields.string("policy")?,
                seed: fields.integer("seed")?,
                cameras: fields.integer("cameras")?,
            },
            "camera.join" => TraceEvent::CameraJoin {
                camera: fields.integer("camera")?,
            },
            "camera.leave" => TraceEvent::CameraLeave {
                camera: fields.integer("camera")?,
            },
            "admission.verdict" => TraceEvent::AdmissionVerdict {
                patch: fields.integer("patch")?,
                slo_us: fields.integer("slo_us")?,
                admitted: fields.boolean("admitted")?,
                queued: fields.integer("queued")?,
                in_flight: fields.integer("in_flight")?,
                earliest_start_us: fields.integer("earliest_start_us")?,
            },
            "drr.round" => TraceEvent::DrrRound {
                released: fields.integer("released")?,
                backlog: fields.integer("backlog")?,
            },
            "batch.dispatch" => TraceEvent::BatchDispatch {
                batch: fields.integer("batch")?,
                patches: fields.integer("patches")?,
                inputs: fields.integer("inputs")?,
                megapixels_e6: fields.integer("megapixels_e6")?,
            },
            "function.complete" => TraceEvent::FunctionComplete {
                invocation: fields.integer("invocation")?,
                inputs: fields.integer("inputs")?,
                violations: fields.integer("violations")?,
            },
            "fault.window" => TraceEvent::FaultWindow {
                kind: fields.string("fault")?,
                until_us: fields.integer("until_us")?,
            },
            "session.end" => TraceEvent::SessionEnd {
                frames: fields.integer("frames")?,
                batches: fields.integer("batches")?,
                completions: fields.integer("completions")?,
                dropped: fields.integer("dropped")?,
                makespan_us: fields.integer("makespan_us")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// A destination of the canonical rendering: the JSONL line (`String`)
/// or the streaming hash state. Both take the same bytes in the same
/// order, so the hash covers exactly what the line shows.
pub(crate) trait Render {
    /// Appends UTF-8 text.
    fn text(&mut self, s: &str);
    /// Appends ASCII bytes (rendered digits), skipping the UTF-8
    /// validation a `&str` conversion would cost on every integer.
    fn ascii(&mut self, bytes: &[u8]);
}

impl Render for String {
    fn text(&mut self, s: &str) {
        self.push_str(s);
    }

    fn ascii(&mut self, bytes: &[u8]) {
        self.extend(bytes.iter().map(|&b| char::from(b)));
    }
}

/// One field value as [`TraceEvent::visit_fields`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field<'a> {
    Int(u64),
    Bool(bool),
    Str(&'a str),
}

impl Field<'_> {
    /// Writes the value's canonical JSON rendering.
    fn render(self, out: &mut impl Render) {
        match self {
            Field::Int(n) => out.ascii(decimal(n, &mut [0; 20])),
            Field::Bool(b) => out.text(if b { "true" } else { "false" }),
            Field::Str(s) => render_string(s, out),
        }
    }
}

/// `"00" "01" … "99"`: two decimal digits per table entry.
const PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Renders `n` in decimal into `buf`, two digits per step, without
/// allocating.
pub(crate) fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n > 0 || at == buf.len() {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    &buf[at..]
}

/// Renders a JSON string literal (the only escapes trace strings need).
pub(crate) fn render_string(s: &str, out: &mut impl Render) {
    out.text("\"");
    let mut from = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            _ => continue,
        };
        out.text(&s[from..at]);
        out.text(escape);
        from = at + 1;
    }
    out.text(&s[from..]);
    out.text("\"");
}

/// A parsed flat-JSON value (the trace alphabet needs no nesting).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FieldValue {
    String(String),
    Integer(u64),
    Boolean(bool),
}

/// The key/value pairs of one parsed record line.
#[derive(Debug, Default)]
pub(crate) struct Fields {
    pub(crate) pairs: Vec<(String, FieldValue)>,
}

impl Fields {
    fn get(&self, key: &str) -> Result<&FieldValue, String> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    pub(crate) fn string(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            FieldValue::String(s) => Ok(s.clone()),
            other => Err(format!("field {key:?}: expected string, got {other:?}")),
        }
    }

    pub(crate) fn integer(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            FieldValue::Integer(n) => Ok(*n),
            other => Err(format!("field {key:?}: expected integer, got {other:?}")),
        }
    }

    pub(crate) fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            FieldValue::Boolean(b) => Ok(*b),
            other => Err(format!("field {key:?}: expected bool, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_variant() {
        let events = [
            TraceEvent::SessionStart {
                policy: "Tangram".into(),
                seed: 1,
                cameras: 2,
            },
            TraceEvent::CameraJoin { camera: 0 },
            TraceEvent::CameraLeave { camera: 0 },
            TraceEvent::AdmissionVerdict {
                patch: 9,
                slo_us: 1_000_000,
                admitted: true,
                queued: 3,
                in_flight: 1,
                earliest_start_us: 77,
            },
            TraceEvent::DrrRound {
                released: 4,
                backlog: 2,
            },
            TraceEvent::BatchDispatch {
                batch: 0,
                patches: 5,
                inputs: 2,
                megapixels_e6: 2_097_152,
            },
            TraceEvent::FunctionComplete {
                invocation: 3,
                inputs: 2,
                violations: 0,
            },
            TraceEvent::FaultWindow {
                kind: "brownout".into(),
                until_us: 5_000_000,
            },
            TraceEvent::SessionEnd {
                frames: 10,
                batches: 4,
                completions: 4,
                dropped: 1,
                makespan_us: 123,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        let mut expected = TraceEvent::KINDS.to_vec();
        expected.sort_unstable();
        assert_eq!(kinds, expected);
    }

    #[test]
    fn decimal_matches_display() {
        for n in [
            0,
            7,
            9,
            10,
            42,
            99,
            100,
            101,
            999,
            1000,
            65_536,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string().as_bytes(), "{n}");
        }
    }

    #[test]
    fn string_rendering_escapes() {
        let mut out = String::new();
        render_string("a\"b\\c\nd", &mut out);
        assert_eq!(out, r#""a\"b\\c\nd""#);
    }
}
