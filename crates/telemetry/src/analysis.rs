//! Offline analysis of `tml-trace/v1` JSONL streams: span-tree
//! reconstruction, self-time attribution, folded-stack (flamegraph) output
//! and per-trace critical paths.
//!
//! This is the library behind `tml trace`. It accepts one or more trace
//! files at once because one logical run can span several processes — a
//! `tml serve` victim that was killed and the process that resumed its
//! journal each write their own trace file, and the seed-deterministic
//! trace ids (see [`crate::TraceContext::derive`]) are what re-link the
//! two halves into one trace.
//!
//! Robustness contract (mirrors `parse_journal_bytes` in `tml-runtime`):
//! a **torn final line** — the partial record a `kill -9` leaves behind —
//! is tolerated and counted, but garbage anywhere else is an error. Spans
//! that never see their `span_end` (the process died while they were
//! open) are kept, marked open, and assigned the duration up to the last
//! timestamp observed in their file.

use std::collections::BTreeMap;

use crate::json;
use crate::jsonl::schema;
use crate::summary::fmt_ns;
use crate::TraceContext;

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Index of the input file this span was read from.
    pub file: usize,
    /// Span id (unique only within its file's subscriber).
    pub id: u64,
    /// Span name.
    pub name: String,
    /// Compact telemetry thread id (file-local).
    pub thread: u64,
    /// Trace id carried by the span start, if any.
    pub trace: Option<u64>,
    /// Start timestamp (monotonic ns in the file's epoch).
    pub start_ns: u64,
    /// Wall time. For open spans (no `span_end` observed) this is the
    /// time from start to the last timestamp seen anywhere in the file.
    pub dur_ns: u64,
    /// Whether the span never closed (crash or torn tail).
    pub open: bool,
    /// Self time: `dur_ns` minus the summed durations of direct children.
    pub self_ns: u64,
    /// Parent span, as an index into [`TraceAnalysis::spans`].
    pub parent: Option<usize>,
    /// Direct children, as indices into [`TraceAnalysis::spans`].
    pub children: Vec<usize>,
}

/// Aggregate view of one trace id (or of the untraced spans).
#[derive(Debug, Clone)]
pub struct TraceGroup {
    /// The trace id, or `None` for the group of untraced root spans.
    pub trace: Option<u64>,
    /// Total spans in the group's trees.
    pub spans: usize,
    /// Spans that never closed.
    pub open_spans: usize,
    /// Distinct input files contributing to this group, sorted.
    pub files: Vec<usize>,
    /// Root spans (no parent in their file), indices into
    /// [`TraceAnalysis::spans`].
    pub roots: Vec<usize>,
    /// Summed root durations.
    pub wall_ns: u64,
    /// The longest root-to-leaf chain by wall duration (span indices).
    pub critical_path: Vec<usize>,
}

/// The result of parsing and reconstructing one or more trace files.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Input file names, in the order given.
    pub files: Vec<String>,
    /// Every reconstructed span.
    pub spans: Vec<SpanNode>,
    /// Per-trace aggregates: traced groups sorted by id, then the
    /// untraced group (if any) last.
    pub groups: Vec<TraceGroup>,
    /// Count of torn final lines that were tolerated (at most one per
    /// file).
    pub torn_tails: usize,
}

fn get_u64(v: &json::Value, key: &str) -> Option<u64> {
    v.get(key).and_then(|x| x.as_u64())
}

/// Parses one or more `(name, bytes)` trace files and reconstructs the
/// span forest.
///
/// # Errors
///
/// Returns a human-readable error when a file is missing its
/// `tml-trace/v1` meta line or contains an unparseable line that is not
/// the torn final one.
pub fn parse_trace_bytes(inputs: &[(&str, &[u8])]) -> Result<TraceAnalysis, String> {
    let mut spans: Vec<SpanNode> = Vec::new();
    // (file, span id) -> span index; ids restart per process.
    let mut by_id: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    let mut torn_tails = 0usize;

    for (file_idx, (name, bytes)) in inputs.iter().enumerate() {
        let text = String::from_utf8_lossy(bytes);
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        if lines.is_empty() {
            return Err(format!("{name}: empty trace file"));
        }
        let mut last_at_ns = 0u64;
        let mut saw_meta = false;
        let file_first_span = spans.len();
        for (line_no, line) in lines.iter().enumerate() {
            let is_last = line_no + 1 == lines.len();
            let value = match json::parse(line) {
                Ok(v) => v,
                Err(_) if is_last && line_no > 0 => {
                    // The torn trailing record a kill -9 leaves behind.
                    torn_tails += 1;
                    continue;
                }
                Err(e) => return Err(format!("{name}:{}: invalid JSON: {e:?}", line_no + 1)),
            };
            let ty = value.get("type").and_then(|t| t.as_str()).unwrap_or("");
            match ty {
                "meta" => {
                    let sch = value.get("schema").and_then(|s| s.as_str());
                    if sch != Some(schema::TRACE) {
                        return Err(format!(
                            "{name}: meta schema {sch:?}, expected {:?}",
                            schema::TRACE
                        ));
                    }
                    saw_meta = true;
                    continue;
                }
                "span_start" => {
                    if !saw_meta {
                        return Err(format!("{name}: records before the meta line"));
                    }
                    let (Some(id), Some(thread), Some(at_ns)) = (
                        get_u64(&value, "id"),
                        get_u64(&value, "thread"),
                        get_u64(&value, "at_ns"),
                    ) else {
                        return Err(format!("{name}:{}: span_start missing fields", line_no + 1));
                    };
                    let span_name = value
                        .get("name")
                        .and_then(|n| n.as_str())
                        .unwrap_or("<unnamed>")
                        .to_owned();
                    let trace = value
                        .get("trace")
                        .and_then(|t| t.as_str())
                        .and_then(TraceContext::parse_hex);
                    last_at_ns = last_at_ns.max(at_ns);
                    let idx = spans.len();
                    spans.push(SpanNode {
                        file: file_idx,
                        id,
                        name: span_name,
                        thread,
                        trace,
                        start_ns: at_ns,
                        dur_ns: 0,
                        open: true,
                        self_ns: 0,
                        parent: None,
                        children: Vec::new(),
                    });
                    by_id.insert((file_idx, id), idx);
                    if let Some(p) = get_u64(&value, "parent") {
                        if let Some(&pidx) = by_id.get(&(file_idx, p)) {
                            spans[idx].parent = Some(pidx);
                            spans[pidx].children.push(idx);
                        }
                    }
                }
                "span_end" => {
                    if !saw_meta {
                        return Err(format!("{name}: records before the meta line"));
                    }
                    let (Some(id), Some(at_ns), Some(dur_ns)) = (
                        get_u64(&value, "id"),
                        get_u64(&value, "at_ns"),
                        get_u64(&value, "dur_ns"),
                    ) else {
                        return Err(format!("{name}:{}: span_end missing fields", line_no + 1));
                    };
                    last_at_ns = last_at_ns.max(at_ns);
                    if let Some(&idx) = by_id.get(&(file_idx, id)) {
                        spans[idx].dur_ns = dur_ns;
                        spans[idx].open = false;
                    }
                }
                "counter" => {
                    if let Some(at_ns) = get_u64(&value, "at_ns") {
                        last_at_ns = last_at_ns.max(at_ns);
                    }
                }
                other => {
                    return Err(format!("{name}:{}: unknown record type '{other}'", line_no + 1))
                }
            }
        }
        if !saw_meta {
            return Err(format!("{name}: missing tml-trace/v1 meta line"));
        }
        // Open spans ran until (at least) the last thing the file saw.
        for span in &mut spans[file_first_span..] {
            if span.open {
                span.dur_ns = last_at_ns.saturating_sub(span.start_ns);
            }
        }
    }

    // Self time, bottom-up: children are always pushed after their parent
    // within a file, and parents never cross files, so a reverse pass
    // subtracts child time before the parent is read — but a simple
    // forward accumulation into the parent is clearer.
    let mut child_time = vec![0u64; spans.len()];
    for span in &spans {
        if let Some(p) = span.parent {
            child_time[p] += span.dur_ns;
        }
    }
    for (span, ct) in spans.iter_mut().zip(child_time) {
        span.self_ns = span.dur_ns.saturating_sub(ct);
    }

    let groups = build_groups(&spans);
    Ok(TraceAnalysis {
        files: inputs.iter().map(|(n, _)| (*n).to_owned()).collect(),
        spans,
        groups,
        torn_tails,
    })
}

fn count_tree(spans: &[SpanNode], root: usize) -> (usize, usize) {
    let mut total = 0;
    let mut open = 0;
    let mut stack = vec![root];
    while let Some(idx) = stack.pop() {
        total += 1;
        if spans[idx].open {
            open += 1;
        }
        stack.extend(&spans[idx].children);
    }
    (total, open)
}

fn longest_chain(spans: &[SpanNode], root: usize) -> Vec<usize> {
    let mut path = vec![root];
    let mut cur = root;
    while let Some(&next) = spans[cur].children.iter().max_by_key(|&&c| spans[c].dur_ns) {
        path.push(next);
        cur = next;
    }
    path
}

fn build_groups(spans: &[SpanNode]) -> Vec<TraceGroup> {
    // Group roots by their trace id; every descendant follows its root.
    let mut by_trace: BTreeMap<Option<u64>, Vec<usize>> = BTreeMap::new();
    for (idx, span) in spans.iter().enumerate() {
        if span.parent.is_none() {
            by_trace.entry(span.trace).or_default().push(idx);
        }
    }
    let mut groups: Vec<TraceGroup> = Vec::new();
    for (trace, roots) in by_trace {
        let mut total = 0;
        let mut open = 0;
        let mut files: Vec<usize> = Vec::new();
        let mut wall_ns = 0u64;
        for &root in &roots {
            let (t, o) = count_tree(spans, root);
            total += t;
            open += o;
            wall_ns += spans[root].dur_ns;
            if !files.contains(&spans[root].file) {
                files.push(spans[root].file);
            }
        }
        files.sort_unstable();
        let critical_path = roots
            .iter()
            .max_by_key(|&&r| spans[r].dur_ns)
            .map(|&r| longest_chain(spans, r))
            .unwrap_or_default();
        groups.push(TraceGroup {
            trace,
            spans: total,
            open_spans: open,
            files,
            roots,
            wall_ns,
            critical_path,
        });
    }
    // Traced groups first (BTreeMap puts None first; move it last).
    if groups.first().is_some_and(|g| g.trace.is_none()) {
        groups.rotate_left(1);
    }
    groups
}

impl TraceAnalysis {
    /// Folded-stack output: one line per distinct root-to-span name path,
    /// `a;b;c <self ns>`, aggregated and sorted — the input format
    /// flamegraph tooling consumes. Open spans contribute their partial
    /// self time.
    pub fn folded(&self) -> String {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (idx, span) in self.spans.iter().enumerate() {
            if span.self_ns == 0 {
                continue;
            }
            let mut names = vec![span.name.as_str()];
            let mut cur = idx;
            while let Some(p) = self.spans[cur].parent {
                names.push(self.spans[p].name.as_str());
                cur = p;
            }
            names.reverse();
            *stacks.entry(names.join(";")).or_insert(0) += span.self_ns;
        }
        let mut out = String::new();
        for (stack, self_ns) in stacks {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable per-trace summary with critical paths.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "{} file(s), {} span(s), {} torn tail line(s)\n",
            self.files.len(),
            self.spans.len(),
            self.torn_tails
        );
        for group in &self.groups {
            let label = match group.trace {
                Some(t) => format!("trace {t:016x}"),
                None => "untraced".to_owned(),
            };
            out.push_str(&format!(
                "{label}: {} span(s) ({} open), {} file(s), wall {}\n",
                group.spans,
                group.open_spans,
                group.files.len(),
                fmt_ns(group.wall_ns)
            ));
            if !group.critical_path.is_empty() {
                out.push_str("  critical path:");
                for (i, &idx) in group.critical_path.iter().enumerate() {
                    let span = &self.spans[idx];
                    if i > 0 {
                        out.push_str(" ->");
                    }
                    out.push_str(&format!(
                        " {} {}{}",
                        span.name,
                        fmt_ns(span.dur_ns),
                        if span.open { " (open)" } else { "" }
                    ));
                }
                out.push('\n');
            }
        }
        out
    }

    /// The group for a specific trace id, if present.
    pub fn group(&self, trace: u64) -> Option<&TraceGroup> {
        self.groups.iter().find(|g| g.trace == Some(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> String {
        crate::event::Event::meta_line("test")
    }

    fn start(id: u64, parent: Option<u64>, name: &str, at: u64, trace: Option<u64>) -> String {
        crate::event::Event::SpanStart {
            id,
            parent,
            name: name.into(),
            thread: 1,
            at_ns: at,
            trace,
            fields: vec![],
        }
        .to_json_line()
    }

    fn end(id: u64, name: &str, at: u64, dur: u64) -> String {
        crate::event::Event::SpanEnd {
            id,
            name: name.into(),
            thread: 1,
            at_ns: at,
            dur_ns: dur,
            fields: vec![],
        }
        .to_json_line()
    }

    #[test]
    fn rebuilds_nested_spans_with_self_time() {
        let file = [
            meta(),
            start(1, None, "root", 0, Some(7)),
            start(2, Some(1), "child", 10, Some(7)),
            end(2, "child", 40, 30),
            end(1, "root", 100, 100),
        ]
        .join("\n");
        let a = parse_trace_bytes(&[("t.jsonl", file.as_bytes())]).unwrap();
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.torn_tails, 0);
        let root = &a.spans[0];
        assert_eq!(root.dur_ns, 100);
        assert_eq!(root.self_ns, 70, "root self time excludes the child");
        assert_eq!(a.groups.len(), 1);
        let g = a.group(7).unwrap();
        assert_eq!(g.spans, 2);
        assert_eq!(g.critical_path.len(), 2);
        let folded = a.folded();
        assert!(folded.contains("root 70\n"));
        assert!(folded.contains("root;child 30\n"));
    }

    #[test]
    fn torn_tail_is_tolerated_and_open_spans_estimated() {
        let file = format!(
            "{}\n{}\n{}\n{}",
            meta(),
            start(1, None, "job", 0, Some(3)),
            end(99, "other", 500, 1), // later timestamp, unknown id: ignored
            "{\"type\":\"span_sta"    // torn by kill -9
        );
        let a = parse_trace_bytes(&[("t.jsonl", file.as_bytes())]).unwrap();
        assert_eq!(a.torn_tails, 1);
        let span = &a.spans[0];
        assert!(span.open);
        assert_eq!(span.dur_ns, 500, "open span runs to the file's last timestamp");
        assert_eq!(a.group(3).unwrap().open_spans, 1);
    }

    #[test]
    fn garbage_before_the_tail_is_an_error() {
        let file = format!("{}\nnot json\n{}", meta(), start(1, None, "x", 0, None));
        assert!(parse_trace_bytes(&[("t.jsonl", file.as_bytes())]).is_err());
        assert!(parse_trace_bytes(&[("t.jsonl", b"")]).is_err());
        let no_meta = start(1, None, "x", 0, None);
        assert!(parse_trace_bytes(&[("t.jsonl", no_meta.as_bytes())]).is_err());
    }

    #[test]
    fn one_trace_relinks_across_two_files() {
        // The crash-boundary scenario: the victim opens the job span and
        // dies; the resumed process re-derives the same trace id and runs
        // the job to completion in its own file.
        let victim =
            [meta(), start(1, None, "serve.submit", 0, Some(42)), end(1, "serve.submit", 5, 5)]
                .join("\n");
        let resumed = [
            meta(),
            start(1, None, "serve.job", 0, Some(42)),
            start(2, Some(1), "pipeline.run", 1, Some(42)),
            end(2, "pipeline.run", 90, 89),
            end(1, "serve.job", 100, 100),
        ]
        .join("\n");
        let a = parse_trace_bytes(&[
            ("victim.jsonl", victim.as_bytes()),
            ("resumed.jsonl", resumed.as_bytes()),
        ])
        .unwrap();
        let g = a.group(42).expect("one group for the shared trace id");
        assert_eq!(g.files, vec![0, 1], "both files contribute to the trace");
        assert_eq!(g.spans, 3);
        assert_eq!(g.roots.len(), 2, "one root per process");
        let summary = a.render_summary();
        assert!(summary.contains("2 file(s)"), "{summary}");
        assert!(summary.contains(&format!("trace {:016x}", 42)), "{summary}");
    }

    #[test]
    fn span_ids_do_not_collide_across_files() {
        // Both files use span id 1; they must stay distinct spans.
        let f1 = [meta(), start(1, None, "a", 0, None), end(1, "a", 10, 10)].join("\n");
        let f2 = [meta(), start(1, None, "b", 0, None), end(1, "b", 20, 20)].join("\n");
        let a = parse_trace_bytes(&[("f1", f1.as_bytes()), ("f2", f2.as_bytes())]).unwrap();
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.spans[0].dur_ns, 10);
        assert_eq!(a.spans[1].dur_ns, 20);
    }
}
