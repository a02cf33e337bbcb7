//! The measurement loop shared by the pass-based workloads.
//!
//! A *job* is one user-level operation (a model file checked, a repair
//! run to its verified result); a *pass* runs every job of the workload's
//! fixed inputs once, in order. The untraced run repeats passes for the
//! measuring window (see [`Measured`] for how they are reduced); the
//! traced run repeats them through the per-layer entry points instead.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::common::{mean, ms_since, quantile, timed, LayerSamples, Layers, Tally};

/// Result of one job.
#[derive(Debug, Default)]
pub struct Job {
    pub tally: Tally,
    /// Repair cost of the job's output (0 for checks).
    pub cost: f64,
}

pub trait PassWorkload {
    /// Number of jobs in one pass.
    fn jobs(&self) -> usize;
    /// Passes the untraced run measures at least, however long they take.
    fn min_passes(&self) -> usize {
        MIN_PASSES
    }
    /// Runs job `job`; with `layers`, through the per-layer entry points.
    fn run_job(&mut self, job: usize, layers: Option<&mut Layers>) -> Job;
}

/// The untraced run measures at least this many passes, unless the
/// workload says otherwise.
pub const MIN_PASSES: usize = 3;
/// The traced run's telemetry comparison measures at least this many
/// pairs of passes, and its per-layer part at least one pass.
pub const MIN_OVERHEAD_PAIRS: usize = 2;

/// What the measuring loop saw.
#[derive(Debug, Default)]
pub struct Measured {
    pub pass_ms: Vec<f64>,
    /// Job latencies: every job's on serve_corpus; on the pass workloads,
    /// whose passes repeat a few distinct jobs, each job's fastest run.
    /// The machine's speed switches between a fast and a slow state
    /// (about 1.5× apart, for seconds at a time), and a job of a second or
    /// less runs wholly in one of them: its mean or median over a few
    /// passes jumps with the states it happened to meet, while its
    /// fastest run moves only with the code (see [`SHORT_JOB_MS`]).
    pub job_ms: Vec<f64>,
    /// Jobs that concluded.
    pub jobs: usize,
    /// Time the concluded jobs took: the window on serve_corpus, the sum
    /// of the passes on the pass workloads.
    pub wall_ms: f64,
    pub tally: Tally,
    /// Repair cost per pass.
    pub cost: f64,
}

impl Measured {
    /// The end-to-end timings. `pass_s` is the mean pass, not the median:
    /// with the two speed states described at [`Measured::job_ms`], the
    /// median of a few passes jumps between them, while the mean moves
    /// with the share of the run spent in each.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        m.insert("pass_s", mean(&self.pass_ms) / 1e3);
        m.insert("jobs_per_s", self.jobs as f64 / (self.wall_ms / 1e3));
        m.insert("job_ms.p50", quantile(&self.job_ms, 0.5));
        m.insert("job_ms.p90", quantile(&self.job_ms, 0.9));
        m
    }
}

/// A job that took less than this in the first pass samples the
/// machine's speed for a moment only: the untraced run times it again
/// after every job of each later pass, for its latency alone (pass times
/// and counts leave these repeats out).
const SHORT_JOB_MS: f64 = 250.0;

/// Runs passes until `seconds` have elapsed and at least `min_passes`
/// completed. With `layers`, each pass's per-layer sums are collected.
pub fn measure(
    w: &mut dyn PassWorkload,
    seconds: f64,
    min_passes: usize,
    mut layers: Option<&mut LayerSamples>,
) -> Measured {
    let mut out = Measured::default();
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); w.jobs()];
    let mut short: Vec<usize> = Vec::new();
    let start = Instant::now();
    while out.pass_ms.len() < min_passes || ms_since(start) < seconds * 1e3 {
        let mut pass_layers = layers.as_ref().map(|_| Layers::default());
        let mut pass_ms = 0.0;
        let mut cost = 0.0;
        for j in 0..w.jobs() {
            let (job, ms) = timed(|| w.run_job(j, pass_layers.as_mut()));
            per_job[j].push(ms);
            pass_ms += ms;
            out.jobs += 1;
            out.tally.absorb(job.tally);
            cost += job.cost;
            for &s in &short {
                per_job[s].push(timed(|| w.run_job(s, None)).1);
            }
        }
        if out.pass_ms.is_empty() && layers.is_none() {
            short = (0..w.jobs()).filter(|&j| per_job[j][0] < SHORT_JOB_MS).collect();
        }
        out.wall_ms += pass_ms;
        out.pass_ms.push(pass_ms);
        eprintln!("pass {}: {:.1} ms", out.pass_ms.len(), out.pass_ms[out.pass_ms.len() - 1]);
        out.cost = cost;
        if let (Some(all), Some(p)) = (layers.as_deref_mut(), pass_layers) {
            all.push(p);
        }
    }
    out.job_ms =
        per_job.iter().map(|ms| ms.iter().copied().fold(f64::INFINITY, f64::min)).collect();
    out
}

/// Telemetry overhead in percent: passes with the program's
/// `tml_telemetry` subscriber installed (as `--metrics` installs it)
/// against untraced passes in the same process, alternating so drift
/// hits both sides alike. Returns `(overhead, passes run, tally)`.
pub fn telemetry_overhead(w: &mut dyn PassWorkload, seconds: f64) -> (f64, usize, Tally) {
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    let run_pass = |w: &mut dyn PassWorkload, tally: &mut Tally| {
        let t = Instant::now();
        for j in 0..w.jobs() {
            tally.absorb(w.run_job(j, None).tally);
        }
        ms_since(t)
    };
    while on.len() < MIN_OVERHEAD_PAIRS || ms_since(start) < seconds * 1e3 {
        off.push(run_pass(w, &mut tally));
        let sub = Arc::new(tml_telemetry::Subscriber::builder().build());
        assert!(tml_telemetry::install_global(sub), "no other subscriber is installed");
        on.push(run_pass(w, &mut tally));
        tml_telemetry::uninstall_global();
    }
    let overhead = (quantile(&on, 0.5) / quantile(&off, 0.5) - 1.0) * 100.0;
    (overhead, on.len() + off.len(), tally)
}
