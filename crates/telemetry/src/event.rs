//! Event types and their JSONL wire encoding (`tml-trace/v1`).

use crate::json;

/// A typed field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field.
    F64(f64),
    /// String field.
    Str(String),
    /// Boolean field.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => json::write_f64(out, *v),
            FieldValue::Str(s) => json::write_string(out, s),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// One telemetry event, as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Subscriber-unique span id.
        id: u64,
        /// Enclosing span on the same thread, if any. When absent and a
        /// [`crate::TraceContext`] is installed, the context's
        /// `parent_span` is used instead (cross-thread linkage).
        parent: Option<u64>,
        /// Span name (dotted registry name, e.g. `model_repair.solve`).
        name: String,
        /// Compact telemetry thread id.
        thread: u64,
        /// Monotonic nanoseconds since the subscriber was installed.
        at_ns: u64,
        /// Trace id from the installed [`crate::TraceContext`], if any.
        /// Serialized as a 16-hex-digit string (the JSON number lane is
        /// f64 and cannot carry 64-bit ids losslessly).
        trace: Option<u64>,
        /// Structured fields captured at open.
        fields: Vec<(String, FieldValue)>,
    },
    /// A span closed.
    SpanEnd {
        /// Id from the matching [`Event::SpanStart`].
        id: u64,
        /// Span name (repeated for grep-ability of JSONL traces).
        name: String,
        /// Compact telemetry thread id.
        thread: u64,
        /// Monotonic nanoseconds since the subscriber was installed.
        at_ns: u64,
        /// Wall time the span was open, in nanoseconds.
        dur_ns: u64,
        /// Fields known only when the span closes (e.g. a solve's sweep
        /// count); omitted on the wire when empty.
        fields: Vec<(String, FieldValue)>,
    },
    /// A counter increment.
    Counter {
        /// Counter name (dotted registry name, e.g. `checker.solve.sweeps`).
        name: String,
        /// Increment amount (counters are monotonic).
        value: u64,
        /// Compact telemetry thread id.
        thread: u64,
        /// Monotonic nanoseconds since the subscriber was installed.
        at_ns: u64,
        /// Trace id from the installed [`crate::TraceContext`], if any
        /// (16-hex-digit string on the wire).
        trace: Option<u64>,
    },
}

impl Event {
    /// Encodes the event as one `tml-trace/v1` JSON line (no trailing
    /// newline).
    pub fn to_json_line(&self) -> String {
        fn write_trace(out: &mut String, trace: &Option<u64>) {
            if let Some(t) = trace {
                out.push_str(",\"trace\":\"");
                out.push_str(&format!("{t:016x}"));
                out.push('"');
            }
        }
        fn write_fields(out: &mut String, fields: &[(String, FieldValue)]) {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(out, k);
                out.push(':');
                v.write_json(out);
            }
            out.push('}');
        }
        let mut out = String::with_capacity(96);
        match self {
            Event::SpanStart { id, parent, name, thread, at_ns, trace, fields } => {
                out.push_str("{\"type\":\"span_start\",\"id\":");
                out.push_str(&id.to_string());
                out.push_str(",\"parent\":");
                match parent {
                    Some(p) => out.push_str(&p.to_string()),
                    None => out.push_str("null"),
                }
                out.push_str(",\"name\":");
                json::write_string(&mut out, name);
                out.push_str(",\"thread\":");
                out.push_str(&thread.to_string());
                out.push_str(",\"at_ns\":");
                out.push_str(&at_ns.to_string());
                write_trace(&mut out, trace);
                write_fields(&mut out, fields);
                out.push('}');
            }
            Event::SpanEnd { id, name, thread, at_ns, dur_ns, fields } => {
                out.push_str("{\"type\":\"span_end\",\"id\":");
                out.push_str(&id.to_string());
                out.push_str(",\"name\":");
                json::write_string(&mut out, name);
                out.push_str(",\"thread\":");
                out.push_str(&thread.to_string());
                out.push_str(",\"at_ns\":");
                out.push_str(&at_ns.to_string());
                out.push_str(",\"dur_ns\":");
                out.push_str(&dur_ns.to_string());
                if !fields.is_empty() {
                    write_fields(&mut out, fields);
                }
                out.push('}');
            }
            Event::Counter { name, value, thread, at_ns, trace } => {
                out.push_str("{\"type\":\"counter\",\"name\":");
                json::write_string(&mut out, name);
                out.push_str(",\"value\":");
                out.push_str(&value.to_string());
                out.push_str(",\"thread\":");
                out.push_str(&thread.to_string());
                out.push_str(",\"at_ns\":");
                out.push_str(&at_ns.to_string());
                write_trace(&mut out, trace);
                out.push('}');
            }
        }
        out
    }

    /// The meta line every `tml-trace/v1` stream starts with.
    pub fn meta_line(tool: &str) -> String {
        crate::jsonl::LineBuilder::meta(crate::jsonl::schema::TRACE).str("tool", tool).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_start_encoding_roundtrips() {
        let ev = Event::SpanStart {
            id: 3,
            parent: Some(1),
            name: "model_repair.solve".into(),
            thread: 2,
            at_ns: 12345,
            trace: Some(0x00ab_cdef_0123_4567),
            fields: vec![
                ("restart".into(), FieldValue::U64(4)),
                ("label".into(), FieldValue::Str("a\"b".into())),
                ("gain".into(), FieldValue::F64(0.5)),
                ("ok".into(), FieldValue::Bool(true)),
                ("delta".into(), FieldValue::I64(-2)),
            ],
        };
        let line = ev.to_json_line();
        let value = json::parse(&line).expect("valid json");
        assert_eq!(value.get("type").and_then(|v| v.as_str()), Some("span_start"));
        assert_eq!(value.get("id").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(value.get("parent").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(value.get("trace").and_then(|v| v.as_str()), Some("00abcdef01234567"));
        let fields = value.get("fields").expect("fields");
        assert_eq!(fields.get("restart").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(fields.get("label").and_then(|v| v.as_str()), Some("a\"b"));
        assert_eq!(fields.get("ok").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn null_parent_and_end_and_counter_encode() {
        let start = Event::SpanStart {
            id: 1,
            parent: None,
            name: "root".into(),
            thread: 1,
            at_ns: 0,
            trace: None,
            fields: vec![],
        };
        let line = start.to_json_line();
        assert!(line.contains("\"parent\":null"));
        assert!(!line.contains("\"trace\""), "trace field is omitted when unset");
        let end = Event::SpanEnd {
            id: 1,
            name: "root".into(),
            thread: 1,
            at_ns: 10,
            dur_ns: 10,
            fields: vec![],
        };
        let line = end.to_json_line();
        assert!(!line.contains("\"fields\""), "end fields are omitted when empty");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("dur_ns").and_then(|x| x.as_u64()), Some(10));
        let end = Event::SpanEnd {
            id: 1,
            name: "root".into(),
            thread: 1,
            at_ns: 10,
            dur_ns: 10,
            fields: vec![("sweeps".into(), FieldValue::U64(3))],
        };
        let v = json::parse(&end.to_json_line()).unwrap();
        let sweeps = v.get("fields").and_then(|f| f.get("sweeps")).and_then(|x| x.as_u64());
        assert_eq!(sweeps, Some(3));
        let c = Event::Counter { name: "c".into(), value: 7, thread: 1, at_ns: 5, trace: Some(9) };
        let v = json::parse(&c.to_json_line()).unwrap();
        assert_eq!(v.get("value").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("trace").and_then(|x| x.as_str()), Some("0000000000000009"));
    }

    #[test]
    fn meta_line_parses() {
        let v = json::parse(&Event::meta_line("trusted-ml")).unwrap();
        assert_eq!(v.get("schema").and_then(|x| x.as_str()), Some("tml-trace/v1"));
    }
}
