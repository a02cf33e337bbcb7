//! Shared plumbing: timing, order statistics, per-layer accumulators,
//! output checks, memory and the run fingerprint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input size of a run: the full benchmark, or the smoke variant the
/// self-tests use (every workload finishes in about a second).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// Only the self-tests ask for it.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What a run was asked to do, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Self-test: shift every reference far enough that each output
    /// compared against it must come out wrong.
    pub corrupt_references: bool,
    /// Scratch directory for generated input files (inside the checkout).
    pub work: PathBuf,
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms_since(t))
}

/// Arithmetic mean of `xs`; NaN if empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`; NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Output checks of one pass: every compared output is one attempted
/// operation; a disagreement with the reference, or an error where an
/// output was expected, is one wrong verdict. Failures are counted, never
/// fatal, so a broken engine shows up in the metrics instead of aborting
/// the run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    /// Outputs of the known-defect instances (the ROADMAP Baseline models
    /// the engine is known to answer wrongly): compared on every pass and
    /// reported, but kept apart from `attempted`/`wrong` so that the gate
    /// on failed operations stays meaningful while they fail.
    pub known_attempted: u64,
    pub known_wrong: u64,
    /// Human-readable description of each wrong output (stderr only).
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one output that should satisfy `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            self.notes.push(what());
        }
    }

    /// Records one output that errored instead of answering.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.wrong += 1;
        self.notes.push(format!("error: {what}"));
    }

    /// Records one known-defect output that should satisfy `ok`.
    pub fn expect_known(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.known_attempted += 1;
        if !ok {
            self.known_wrong += 1;
            self.notes.push(format!("known defect: {}", what()));
        }
    }

    /// Records one known-defect output that errored.
    pub fn error_known(&mut self, what: impl std::fmt::Display) {
        self.known_attempted += 1;
        self.known_wrong += 1;
        self.notes.push(format!("known defect: error: {what}"));
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.known_attempted += other.known_attempted;
        self.known_wrong += other.known_wrong;
        self.notes.extend(other.notes);
    }
}

/// Per-layer accumulator for the traced run: wall time of each call into
/// a layer's public function (timed from the benchmark's side of the
/// call), plus counts.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Times `f` and adds its milliseconds to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ms) = timed(f);
        self.add(name, ms);
        r
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert(v);
        *e = e.max(v);
    }
}

/// Runs `f`, timing it into `name` when the run is traced.
pub fn time_in<R>(
    layers: &mut Option<&mut Layers>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match layers.as_deref_mut() {
        Some(l) => l.time(name, f),
        None => f(),
    }
}

/// Per-pass layer sums across several traced passes, reduced to medians.
#[derive(Debug, Default)]
pub struct LayerSamples {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerSamples {
    pub fn push(&mut self, pass: Layers) {
        for (k, v) in pass.values {
            self.samples.entry(k).or_default().push(v);
        }
    }

    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.samples.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threshold offset for asking a verdict as a pair at `reference ± δ`:
/// one part per million of the value, never below 1e-7 (ten times the
/// checker's default bound tolerance).
pub fn delta(reference: f64) -> f64 {
    1e-6 * reference.abs().max(0.1)
}

/// What the self-test does to a reference: a shift far outside every
/// tolerance (with no fixed point), which keeps probabilities in [0, 1],
/// so each comparison against it must fail.
pub fn corrupt(value: f64, on: bool) -> f64 {
    match (on, value >= 0.5) {
        (false, _) => value,
        (true, true) => value * 0.5,
        (true, false) => value + 0.25,
    }
}

/// The run fingerprint printed next to every result.
pub fn fingerprint(cfg: &RunConfig, workload: &str, samples: &BTreeMap<String, usize>) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // Only this directory's own repository, never one that encloses it.
    let commit =
        Path::new(".git").exists().then(|| command_line("git", &["rev-parse", "HEAD"])).flatten();
    let mut out = String::from("{\"fingerprint\":{");
    out.push_str(&format!("\"workload\":{},", json_str(workload)));
    out.push_str(&format!("\"seed\":{},", cfg.seed));
    out.push_str(&format!("\"seconds\":{},", cfg.seconds));
    out.push_str(&format!("\"trace\":{},", cfg.trace));
    out.push_str(&format!("\"size\":{},", json_str(&format!("{:?}", cfg.size).to_lowercase())));
    out.push_str(&format!("\"nproc\":{nproc},"));
    out.push_str(&format!("\"cpu\":{},", json_str(&cpu)));
    out.push_str(&format!("\"rustc\":{},", json_str(&rustc)));
    match commit {
        Some(c) => out.push_str(&format!("\"git_commit\":{},", json_str(&c))),
        None => out.push_str("\"git_commit\":null,"),
    }
    out.push_str(&format!("\"source_digest\":{},", json_str(&source_digest())));
    out.push_str("\"samples\":{");
    let parts: Vec<String> = samples.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    out.push_str(&parts.join(","));
    out.push_str("}}}");
    out
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(|l| l.trim().to_owned())
}

/// FNV-1a digest of every file under `crates/` and `vendor/`, so a result
/// names the code it measured even where no git metadata exists.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
