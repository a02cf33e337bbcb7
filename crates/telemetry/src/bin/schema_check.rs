//! `telemetry_schema_check` — validates the JSONL artifacts this
//! workspace emits, dispatching on the schema the file declares.
//!
//! Usage: `telemetry_schema_check [--metrics] <file>`
//!
//! Line 1 must be a `meta` record naming a known schema; the rest of the
//! file is checked against that schema's rules:
//!
//! * `tml-trace/v1` — every line is a `span_start`/`span_end`/`counter`
//!   with its required fields; every `span_end` matches an open
//!   `span_start` of the same name; parents exist; spans on a thread
//!   close LIFO; `at_ns` is non-decreasing per thread; a `trace` field,
//!   when present, is a 16-hex-digit id.
//! * `tml-journal/v1` — every record is a known journal transition
//!   (`submit`/`attempt`/`checkpoint`/`failure`/`outcome`/`resume`/
//!   `summary`) with its required fields; job ids submit at most once and
//!   conclude at most once; a torn final line is tolerated (the journal's
//!   crash contract) but mid-file garbage is not.
//! * `tml-serve/v1` — every record is a `request` with `seq`, `method`,
//!   `path` and a sane `status`; `seq` increases strictly from 0 (no
//!   dropped or duplicated log lines).
//!
//! With `--metrics` the file is instead checked as a Prometheus text
//! exposition (format 0.0.4), the output of `/metrics`: every sample
//! belongs to a family declared by a preceding `# TYPE` line, families
//! are contiguous, histogram buckets are cumulative and the mandatory
//! `+Inf` bucket equals `_count`.
//!
//! Exits 0 and prints a one-line summary on success; exits 1 with the
//! first offending line number otherwise. CI runs this against the
//! bench-smoke trace, the serve-smoke journal and request log, and the
//! obs-smoke `/metrics` scrape.

use std::collections::HashMap;
use std::process::ExitCode;

use tml_telemetry::json::{self, Value};
use tml_telemetry::jsonl::schema;
use tml_telemetry::TraceContext;

fn main() -> ExitCode {
    let mut metrics_mode = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--metrics" {
            metrics_mode = true;
        } else {
            path = Some(arg);
        }
    }
    let Some(path) = path else {
        eprintln!("usage: telemetry_schema_check [--metrics] <file>");
        return ExitCode::FAILURE;
    };
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if metrics_mode { validate_metrics(&content) } else { validate(&content) };
    match result {
        Ok(summary) => {
            println!("ok: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates an optional `trace` field: when present it must be a string
/// of exactly 16 hex digits (the wire form of a 64-bit trace id).
fn check_trace_field(v: &Value, line: usize) -> Result<(), String> {
    match v.get("trace") {
        None => Ok(()),
        Some(t) if t.is_null() => Ok(()),
        Some(t) => {
            let s =
                t.as_str().ok_or_else(|| format!("line {line}: \"trace\" must be a hex string"))?;
            if TraceContext::parse_hex(s).is_none() {
                return Err(format!("line {line}: \"trace\" '{s}' is not 16 hex digits"));
            }
            Ok(())
        }
    }
}

fn field_u64(v: &Value, key: &str, line: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("line {line}: missing or non-integer \"{key}\""))
}

fn field_str<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .ok_or_else(|| format!("line {line}: missing or non-string \"{key}\""))
}

/// Parses the meta line and dispatches to the schema's validator.
fn validate(content: &str) -> Result<String, String> {
    let meta_line = content.lines().next().ok_or("empty file")?;
    let meta = json::parse(meta_line).map_err(|e| format!("line 1: {e}"))?;
    if meta.get("type").and_then(|v| v.as_str()) != Some("meta") {
        return Err("line 1: first record must have type \"meta\"".into());
    }
    match meta.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == schema::TRACE => validate_trace(content),
        Some(s) if s == schema::JOURNAL => validate_journal(&meta, content),
        Some(s) if s == schema::SERVE => validate_serve(content),
        Some(other) => Err(format!("line 1: unknown schema \"{other}\"")),
        None => Err("line 1: meta record missing \"schema\"".into()),
    }
}

// ---------------------------------------------------------------------
// tml-journal/v1

const JOURNAL_STATUSES: [&str; 6] =
    ["satisfied", "model_repaired", "data_repaired", "unrepairable", "violated", "failed"];

fn validate_journal(meta: &Value, content: &str) -> Result<String, String> {
    field_str(meta, "corpus_seed", 1)?;
    for key in ["jobs", "max_attempts", "workers"] {
        field_u64(meta, key, 1)?;
    }

    let mut submitted: HashMap<u64, ()> = HashMap::new();
    let mut concluded: HashMap<u64, ()> = HashMap::new();
    let (mut records, mut torn) = (0usize, false);
    let last_idx = content.lines().count().saturating_sub(1);
    for (idx, raw) in content.lines().enumerate().skip(1) {
        let line_no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = match json::parse(raw) {
            Ok(v) => v,
            // The crash contract: a `kill -9` may tear the final line
            // mid-write. Anywhere else, garbage is corruption.
            Err(_) if idx == last_idx => {
                torn = true;
                break;
            }
            Err(e) => return Err(format!("line {line_no}: {e}")),
        };
        records += 1;
        match field_str(&v, "type", line_no)? {
            "submit" => {
                let job = field_u64(&v, "job", line_no)?;
                match field_str(&v, "kind", line_no)? {
                    "corpus" => {
                        field_u64(&v, "index", line_no)?;
                    }
                    "verify" => {
                        field_str(&v, "model", line_no)?;
                        field_str(&v, "property", line_no)?;
                    }
                    other => {
                        return Err(format!("line {line_no}: unknown submit kind \"{other}\""))
                    }
                }
                check_trace_field(&v, line_no)?;
                if submitted.insert(job, ()).is_some() {
                    return Err(format!("line {line_no}: job {job} submitted twice"));
                }
            }
            "attempt" => {
                field_u64(&v, "job", line_no)?;
                if field_u64(&v, "attempt", line_no)? == 0 {
                    return Err(format!("line {line_no}: attempts are 1-based"));
                }
            }
            "checkpoint" => {
                field_u64(&v, "job", line_no)?;
                field_u64(&v, "attempt", line_no)?;
                field_str(&v, "stage", line_no)?;
                v.get("x").ok_or_else(|| format!("line {line_no}: checkpoint missing \"x\""))?;
            }
            "failure" => {
                field_u64(&v, "job", line_no)?;
                field_u64(&v, "attempt", line_no)?;
                field_str(&v, "kind", line_no)?;
                field_str(&v, "detail", line_no)?;
            }
            "outcome" => {
                let job = field_u64(&v, "job", line_no)?;
                field_u64(&v, "attempts", line_no)?;
                field_u64(&v, "evaluations", line_no)?;
                field_str(&v, "detail", line_no)?;
                let status = field_str(&v, "status", line_no)?;
                if !JOURNAL_STATUSES.contains(&status) {
                    return Err(format!("line {line_no}: unknown status \"{status}\""));
                }
                if concluded.insert(job, ()).is_some() {
                    return Err(format!("line {line_no}: job {job} concluded twice"));
                }
            }
            "resume" => {
                field_u64(&v, "completed", line_no)?;
            }
            "summary" => {
                field_u64(&v, "jobs", line_no)?;
                for key in JOURNAL_STATUSES {
                    field_u64(&v, key, line_no)?;
                }
                field_u64(&v, "retries", line_no)?;
            }
            other => return Err(format!("line {line_no}: unknown record type \"{other}\"")),
        }
    }
    Ok(format!(
        "{records} journal records ({} submissions, {} outcomes{})",
        submitted.len(),
        concluded.len(),
        if torn { ", torn final line" } else { "" }
    ))
}

// ---------------------------------------------------------------------
// tml-serve/v1

fn validate_serve(content: &str) -> Result<String, String> {
    let mut requests = 0u64;
    let last_idx = content.lines().count().saturating_sub(1);
    for (idx, raw) in content.lines().enumerate().skip(1) {
        let line_no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        // A `kill -9` can land mid-write: the final line may be torn,
        // exactly as in journals. Earlier malformed lines stay fatal.
        let v = match json::parse(raw) {
            Ok(v) => v,
            Err(_) if idx == last_idx => break,
            Err(e) => return Err(format!("line {line_no}: {e}")),
        };
        match field_str(&v, "type", line_no)? {
            "request" => {
                let seq = field_u64(&v, "seq", line_no)?;
                if seq != requests {
                    return Err(format!(
                        "line {line_no}: seq {seq} out of order (expected {requests})"
                    ));
                }
                field_str(&v, "method", line_no)?;
                field_str(&v, "path", line_no)?;
                let status = field_u64(&v, "status", line_no)?;
                if !(100..=599).contains(&status) {
                    return Err(format!("line {line_no}: implausible status {status}"));
                }
                check_trace_field(&v, line_no)?;
                requests += 1;
            }
            other => return Err(format!("line {line_no}: unknown record type \"{other}\"")),
        }
    }
    Ok(format!("{requests} request records, seq contiguous"))
}

// ---------------------------------------------------------------------
// tml-trace/v1

fn validate_trace(content: &str) -> Result<String, String> {
    // Per-span-id: (name, thread). Per-thread: open-span stack + last at_ns.
    let mut started: HashMap<u64, (String, u64)> = HashMap::new();
    let mut closed: HashMap<u64, ()> = HashMap::new();
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut last_at: HashMap<u64, u64> = HashMap::new();
    let (mut events, mut spans, mut counters) = (0usize, 0usize, 0usize);

    for (idx, raw) in content.lines().enumerate().skip(1) {
        let line_no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = json::parse(raw).map_err(|e| format!("line {line_no}: {e}"))?;
        let ty = field_str(&v, "type", line_no)?;
        let thread = field_u64(&v, "thread", line_no)?;
        let at_ns = field_u64(&v, "at_ns", line_no)?;
        if let Some(&prev) = last_at.get(&thread) {
            if at_ns < prev {
                return Err(format!(
                    "line {line_no}: at_ns {at_ns} goes backwards on thread {thread} (prev {prev})"
                ));
            }
        }
        last_at.insert(thread, at_ns);
        events += 1;
        match ty {
            "span_start" => {
                let id = field_u64(&v, "id", line_no)?;
                let name = field_str(&v, "name", line_no)?.to_owned();
                let parent = v
                    .get("parent")
                    .ok_or_else(|| format!("line {line_no}: span_start missing \"parent\""))?;
                if !parent.is_null() {
                    let pid = parent
                        .as_u64()
                        .ok_or_else(|| format!("line {line_no}: parent must be null or an id"))?;
                    if !started.contains_key(&pid) && !closed.contains_key(&pid) {
                        return Err(format!("line {line_no}: parent {pid} was never started"));
                    }
                }
                v.get("fields")
                    .and_then(|f| f.as_object())
                    .ok_or_else(|| format!("line {line_no}: span_start missing \"fields\""))?;
                check_trace_field(&v, line_no)?;
                if started.insert(id, (name, thread)).is_some() {
                    return Err(format!("line {line_no}: duplicate span id {id}"));
                }
                stacks.entry(thread).or_default().push(id);
                spans += 1;
            }
            "span_end" => {
                let id = field_u64(&v, "id", line_no)?;
                let name = field_str(&v, "name", line_no)?;
                field_u64(&v, "dur_ns", line_no)?;
                if v.get("fields").is_some_and(|f| f.as_object().is_none()) {
                    return Err(format!("line {line_no}: span_end \"fields\" must be an object"));
                }
                let Some((start_name, _)) = started.remove(&id) else {
                    return Err(format!(
                        "line {line_no}: span_end for id {id} without a matching span_start"
                    ));
                };
                if start_name != name {
                    return Err(format!(
                        "line {line_no}: span {id} started as \"{start_name}\" but ended as \"{name}\""
                    ));
                }
                let stack = stacks.entry(thread).or_default();
                if stack.last() == Some(&id) {
                    stack.pop();
                } else {
                    // A guard may legitimately close on a different thread
                    // than it opened on (moved across a scope boundary);
                    // remove it from whichever stack holds it.
                    for s in stacks.values_mut() {
                        s.retain(|&x| x != id);
                    }
                }
                closed.insert(id, ());
            }
            "counter" => {
                field_str(&v, "name", line_no)?;
                field_u64(&v, "value", line_no)?;
                check_trace_field(&v, line_no)?;
                counters += 1;
            }
            other => {
                return Err(format!("line {line_no}: unknown event type \"{other}\""));
            }
        }
    }
    if !started.is_empty() {
        let mut ids: Vec<&u64> = started.keys().collect();
        ids.sort();
        return Err(format!("trace ended with {} unclosed span(s): {ids:?}", started.len()));
    }
    Ok(format!("{events} events ({spans} spans, {counters} counters), {} threads", last_at.len()))
}

// ---------------------------------------------------------------------
// Prometheus text exposition (0.0.4)

fn valid_prom_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// Histogram families accumulate bucket samples so the cumulative and
/// `+Inf == _count` invariants can be checked when the family closes.
#[derive(Default)]
struct HistogramState {
    buckets: Vec<(f64, f64)>, // (le, cumulative)
    inf: Option<f64>,
    count: Option<f64>,
}

fn close_histogram(family: &str, st: &HistogramState) -> Result<(), String> {
    let inf = st.inf.ok_or_else(|| format!("histogram {family} missing +Inf bucket"))?;
    let count = st.count.ok_or_else(|| format!("histogram {family} missing _count"))?;
    if inf != count {
        return Err(format!("histogram {family}: +Inf bucket {inf} != _count {count}"));
    }
    let mut prev_le = f64::NEG_INFINITY;
    let mut prev_cum = 0.0_f64;
    for (le, cum) in &st.buckets {
        if *le <= prev_le {
            return Err(format!("histogram {family}: bucket le {le} not increasing"));
        }
        if *cum < prev_cum {
            return Err(format!("histogram {family}: bucket counts not cumulative at le {le}"));
        }
        if *cum > inf {
            return Err(format!("histogram {family}: bucket at le {le} exceeds +Inf"));
        }
        prev_le = *le;
        prev_cum = *cum;
    }
    Ok(())
}

/// The family a sample name belongs to, honoring histogram suffixes.
fn sample_family<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

fn validate_metrics(content: &str) -> Result<String, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut finished: HashMap<String, ()> = HashMap::new();
    let mut current: Option<String> = None;
    let mut hist = HistogramState::default();
    let mut samples = 0usize;

    let switch_family = |current: &mut Option<String>,
                         hist: &mut HistogramState,
                         finished: &mut HashMap<String, ()>,
                         types: &HashMap<String, String>,
                         next: Option<String>|
     -> Result<(), String> {
        if let Some(prev) = current.take() {
            if types.get(&prev).map(String::as_str) == Some("histogram") {
                close_histogram(&prev, hist)?;
            }
            *hist = HistogramState::default();
            finished.insert(prev, ());
        }
        *current = next;
        Ok(())
    };

    for (idx, raw) in content.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let detail = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_prom_name(name) {
                        return Err(format!("line {line_no}: bad metric name '{name}'"));
                    }
                }
                "TYPE" => {
                    if !valid_prom_name(name) {
                        return Err(format!("line {line_no}: bad metric name '{name}'"));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&detail) {
                        return Err(format!("line {line_no}: unknown type '{detail}'"));
                    }
                    if finished.contains_key(name) || current.as_deref() == Some(name) {
                        return Err(format!("line {line_no}: TYPE for '{name}' after its samples"));
                    }
                    if types.insert(name.to_owned(), detail.to_owned()).is_some() {
                        return Err(format!("line {line_no}: duplicate TYPE for '{name}'"));
                    }
                }
                other => return Err(format!("line {line_no}: unknown comment '# {other}'")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // A sample: name[{labels}] value
        let (name_part, value_part) = match line.find('{') {
            Some(brace) => {
                let close = line[brace..]
                    .find('}')
                    .map(|i| brace + i)
                    .ok_or_else(|| format!("line {line_no}: unclosed label block"))?;
                (&line[..close + 1], line[close + 1..].trim())
            }
            None => {
                let sp = line
                    .find(' ')
                    .ok_or_else(|| format!("line {line_no}: sample missing value"))?;
                (&line[..sp], line[sp + 1..].trim())
            }
        };
        let (name, labels) = match name_part.find('{') {
            Some(i) => (&name_part[..i], Some(&name_part[i..])),
            None => (name_part, None),
        };
        if !valid_prom_name(name) {
            return Err(format!("line {line_no}: bad sample name '{name}'"));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {line_no}: bad sample value '{value_part}'"))?;
        let family = sample_family(name, &types).to_owned();
        let kind = types
            .get(&family)
            .ok_or_else(|| format!("line {line_no}: sample '{name}' has no # TYPE"))?
            .clone();
        if current.as_deref() != Some(family.as_str()) {
            if finished.contains_key(&family) {
                return Err(format!("line {line_no}: family '{family}' is not contiguous"));
            }
            switch_family(&mut current, &mut hist, &mut finished, &types, Some(family.clone()))?;
        }
        if kind == "histogram" {
            if let Some(lbl) = name.strip_suffix("_bucket").and(labels) {
                let le = lbl
                    .strip_prefix("{le=\"")
                    .and_then(|s| s.strip_suffix("\"}"))
                    .ok_or_else(|| format!("line {line_no}: _bucket needs an le label"))?;
                if le == "+Inf" {
                    hist.inf = Some(value);
                } else {
                    let le: f64 =
                        le.parse().map_err(|_| format!("line {line_no}: bad le '{le}'"))?;
                    hist.buckets.push((le, value));
                }
            } else if name.ends_with("_count") {
                hist.count = Some(value);
            } else if !name.ends_with("_sum") {
                return Err(format!(
                    "line {line_no}: '{name}' is not a histogram sample of '{family}'"
                ));
            }
        } else if value < 0.0 && kind == "counter" {
            return Err(format!("line {line_no}: counter '{name}' is negative"));
        }
        samples += 1;
    }
    switch_family(&mut current, &mut hist, &mut finished, &types, None)?;
    Ok(format!("{} metric families, {samples} samples", types.len()))
}

#[cfg(test)]
mod tests {
    use super::{validate, validate_metrics};

    const TRACE_META: &str = "{\"type\":\"meta\",\"schema\":\"tml-trace/v1\",\"tool\":\"t\"}";
    const JOURNAL_META: &str = "{\"type\":\"meta\",\"schema\":\"tml-journal/v1\",\
        \"corpus_seed\":\"7\",\"jobs\":2,\"max_attempts\":3,\"workers\":1}";
    const SERVE_META: &str =
        "{\"type\":\"meta\",\"schema\":\"tml-serve/v1\",\"tool\":\"tml-serve\"}";

    fn file(meta: &str, lines: &[&str]) -> String {
        let mut out = String::from(meta);
        for l in lines {
            out.push('\n');
            out.push_str(l);
        }
        out
    }

    #[test]
    fn accepts_well_formed_trace() {
        let t = file(
            TRACE_META,
            &[
                r#"{"type":"span_start","id":1,"parent":null,"name":"a","thread":1,"at_ns":0,"fields":{}}"#,
                r#"{"type":"span_start","id":2,"parent":1,"name":"b","thread":1,"at_ns":5,"fields":{"k":3}}"#,
                r#"{"type":"counter","name":"c","value":2,"thread":1,"at_ns":6}"#,
                r#"{"type":"span_end","id":2,"name":"b","thread":1,"at_ns":9,"dur_ns":4}"#,
                r#"{"type":"span_end","id":1,"name":"a","thread":1,"at_ns":10,"dur_ns":10,"fields":{"sweeps":3}}"#,
            ],
        );
        assert!(validate(&t).unwrap().starts_with("5 events (2 spans, 1 counters)"));
        let bad = t.replace(r#""fields":{"sweeps":3}"#, r#""fields":3"#);
        assert!(validate(&bad).is_err(), "end fields must be an object");
    }

    #[test]
    fn rejects_bad_meta_and_structural_errors() {
        assert!(validate("").is_err());
        assert!(validate("{\"type\":\"meta\",\"schema\":\"other\"}").is_err());
        // End without start.
        let t = file(
            TRACE_META,
            &[r#"{"type":"span_end","id":9,"name":"x","thread":1,"at_ns":1,"dur_ns":1}"#],
        );
        assert!(validate(&t).is_err());
        // Unknown parent.
        let t = file(
            TRACE_META,
            &[
                r#"{"type":"span_start","id":1,"parent":77,"name":"a","thread":1,"at_ns":0,"fields":{}}"#,
            ],
        );
        assert!(validate(&t).is_err());
        // Unclosed span.
        let t = file(
            TRACE_META,
            &[
                r#"{"type":"span_start","id":1,"parent":null,"name":"a","thread":1,"at_ns":0,"fields":{}}"#,
            ],
        );
        assert!(validate(&t).is_err());
        // Name mismatch between start and end.
        let t = file(
            TRACE_META,
            &[
                r#"{"type":"span_start","id":1,"parent":null,"name":"a","thread":1,"at_ns":0,"fields":{}}"#,
                r#"{"type":"span_end","id":1,"name":"z","thread":1,"at_ns":2,"dur_ns":2}"#,
            ],
        );
        assert!(validate(&t).is_err());
        // Time going backwards on a thread.
        let t = file(
            TRACE_META,
            &[
                r#"{"type":"counter","name":"c","value":1,"thread":1,"at_ns":5}"#,
                r#"{"type":"counter","name":"c","value":1,"thread":1,"at_ns":4}"#,
            ],
        );
        assert!(validate(&t).is_err());
    }

    #[test]
    fn accepts_journal_with_torn_tail() {
        let t = file(
            JOURNAL_META,
            &[
                r#"{"type":"submit","job":0,"kind":"corpus","index":4}"#,
                r#"{"type":"submit","job":1,"kind":"verify","model":"dtmc","property":"p"}"#,
                r#"{"type":"attempt","job":0,"attempt":1}"#,
                r#"{"type":"checkpoint","job":0,"attempt":1,"stage":"learn","x":null}"#,
                r#"{"type":"failure","job":0,"attempt":1,"kind":"panic","detail":"boom"}"#,
                r#"{"type":"outcome","job":0,"attempts":2,"status":"satisfied","detail":"d","evaluations":3}"#,
                r#"{"type":"resume","completed":1}"#,
                r#"{"type":"outcome","job":1,"attempts":1,"status":"viol"#, // torn mid-write
            ],
        );
        let summary = validate(&t).unwrap();
        assert!(summary.contains("2 submissions"), "{summary}");
        assert!(summary.contains("torn final line"), "{summary}");
    }

    #[test]
    fn rejects_corrupt_journals() {
        // Mid-file garbage is corruption, not a torn tail.
        let t = file(
            JOURNAL_META,
            &[r#"{"type":"outcome","job":0,"att"#, r#"{"type":"resume","completed":0}"#],
        );
        assert!(validate(&t).is_err());
        // Double submit / double outcome / unknown status.
        for bad in [
            &[
                r#"{"type":"submit","job":0,"kind":"corpus","index":1}"#,
                r#"{"type":"submit","job":0,"kind":"corpus","index":2}"#,
            ][..],
            &[
                r#"{"type":"outcome","job":0,"attempts":1,"status":"satisfied","detail":"d","evaluations":0}"#,
                r#"{"type":"outcome","job":0,"attempts":1,"status":"satisfied","detail":"d","evaluations":0}"#,
            ][..],
            &[
                r#"{"type":"outcome","job":0,"attempts":1,"status":"odd","detail":"d","evaluations":0}"#,
            ][..],
            &[r#"{"type":"attempt","job":0,"attempt":0}"#][..],
        ] {
            assert!(validate(&file(JOURNAL_META, bad)).is_err());
        }
    }

    #[test]
    fn accepts_rendered_prometheus_exposition() {
        use tml_telemetry::metrics::Registry;
        use tml_telemetry::prometheus::render_prometheus;
        let reg = Registry::new();
        reg.incr_counter("serve.jobs.accepted", 8);
        reg.incr_counter_labeled("serve.http.requests", &[("status", "202")], 5);
        reg.set_gauge("serve.jobs.queued", 3);
        reg.record_ns("span.pipeline.run", 1_500);
        reg.record_ns("span.pipeline.run", 90_000);
        let text = render_prometheus(&reg.snapshot());
        let summary = validate_metrics(&text).unwrap();
        assert!(summary.contains("4 metric families"), "{summary}");
        assert_eq!(validate_metrics(""), Ok("0 metric families, 0 samples".into()));
    }

    #[test]
    fn rejects_malformed_expositions() {
        // Sample without a TYPE.
        assert!(validate_metrics("tml_x_total 3\n").is_err());
        // TYPE after its samples.
        let t = "# TYPE tml_a counter\ntml_a 1\n# TYPE tml_a gauge\n";
        assert!(validate_metrics(t).is_err());
        // Non-contiguous family.
        let t = "# TYPE tml_a counter\n# TYPE tml_b counter\n\
                 tml_a 1\ntml_b 1\ntml_a 2\n";
        assert!(validate_metrics(t).is_err());
        // Histogram whose +Inf bucket disagrees with _count.
        let t = "# TYPE tml_h histogram\n\
                 tml_h_bucket{le=\"0.1\"} 1\n\
                 tml_h_bucket{le=\"+Inf\"} 2\n\
                 tml_h_sum 0.5\ntml_h_count 3\n";
        assert!(validate_metrics(t).is_err());
        // Non-cumulative buckets.
        let t = "# TYPE tml_h histogram\n\
                 tml_h_bucket{le=\"0.1\"} 5\n\
                 tml_h_bucket{le=\"0.2\"} 3\n\
                 tml_h_bucket{le=\"+Inf\"} 5\n\
                 tml_h_sum 0.5\ntml_h_count 5\n";
        assert!(validate_metrics(t).is_err());
        // Histogram missing the +Inf bucket entirely.
        let t = "# TYPE tml_h histogram\ntml_h_sum 0.5\ntml_h_count 5\n";
        assert!(validate_metrics(t).is_err());
        // Bad metric name and bad value.
        assert!(validate_metrics("# TYPE 9bad counter\n").is_err());
        assert!(validate_metrics("# TYPE tml_a counter\ntml_a pizza\n").is_err());
    }

    #[test]
    fn trace_fields_are_validated_when_present() {
        let ok = file(
            TRACE_META,
            &[
                r#"{"type":"span_start","id":1,"parent":null,"name":"a","thread":1,"at_ns":0,"trace":"00000000000000ff","fields":{}}"#,
                r#"{"type":"counter","name":"c","value":2,"thread":1,"at_ns":6,"trace":"00000000000000ff"}"#,
                r#"{"type":"span_end","id":1,"name":"a","thread":1,"at_ns":10,"dur_ns":10}"#,
            ],
        );
        assert!(validate(&ok).is_ok());
        let bad = file(
            TRACE_META,
            &[
                r#"{"type":"span_start","id":1,"parent":null,"name":"a","thread":1,"at_ns":0,"trace":"zz","fields":{}}"#,
                r#"{"type":"span_end","id":1,"name":"a","thread":1,"at_ns":10,"dur_ns":10}"#,
            ],
        );
        assert!(validate(&bad).is_err(), "malformed trace ids must be rejected");
        let journal = file(
            JOURNAL_META,
            &[r#"{"type":"submit","job":0,"kind":"corpus","index":4,"trace":"00000000000000ab"}"#],
        );
        assert!(validate(&journal).is_ok());
        let serve = file(
            SERVE_META,
            &[
                r#"{"type":"request","seq":0,"method":"POST","path":"/v1/jobs","status":202,"trace":"00000000000000ab"}"#,
            ],
        );
        assert!(validate(&serve).is_ok());
    }

    #[test]
    fn serve_log_requires_contiguous_seq() {
        let t = file(
            SERVE_META,
            &[
                r#"{"type":"request","seq":0,"method":"POST","path":"/v1/jobs","status":202}"#,
                r#"{"type":"request","seq":1,"method":"GET","path":"/metrics","status":200}"#,
            ],
        );
        assert_eq!(validate(&t).unwrap(), "2 request records, seq contiguous");

        // kill -9 mid-write: a torn final line is tolerated, like journals.
        let torn = file(
            SERVE_META,
            &[
                r#"{"type":"request","seq":0,"method":"POST","path":"/v1/jobs","status":202}"#,
                r#"{"type":"request","seq":1,"meth"#,
            ],
        );
        assert_eq!(validate(&torn).unwrap(), "1 request records, seq contiguous");

        for (lines, why) in [
            (
                &[r#"{"type":"request","seq":1,"method":"GET","path":"/","status":200}"#][..],
                "seq must start at 0",
            ),
            (
                &[
                    r#"{"type":"request","seq":0,"method":"GET","path":"/","status":200}"#,
                    r#"{"type":"request","seq":2,"method":"GET","path":"/","status":200}"#,
                ][..],
                "gaps mean dropped log lines",
            ),
            (
                &[r#"{"type":"request","seq":0,"method":"GET","path":"/","status":7}"#][..],
                "implausible status",
            ),
            (&[r#"{"type":"shutdown"}"#][..], "unknown record type"),
        ] {
            assert!(validate(&file(SERVE_META, lines)).is_err(), "{why}");
        }
    }
}
