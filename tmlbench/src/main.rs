//! Repeatable end-to-end and per-layer benchmark of the trusted-ml
//! workspace. See `tmlbench/README.md` for the workloads and metrics.
//!
//! ```text
//! tml-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it writes its inputs under
//! `.bench_work/`). The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! carry the output-check summary and the run fingerprint.

mod check_large;
mod check_uncertain;
mod common;
mod refsolve;
mod repair_paper;
#[cfg(test)]
mod selftest;
mod serve_corpus;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{
    fingerprint, json_str, median, ms_since, peak_rss_mb, LayerSamples, Layers, RunConfig, Size,
    Tally,
};
use workload::{measure, telemetry_overhead, Measured, PassWorkload, MIN_PASSES};

/// Set-up runs at least this many times per run, and again until
/// [`SETUP_MIN_MS`] have been spent on it (at most [`SETUP_MAX_REPS`]
/// times); `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_MS: f64 = 500.0;
const SETUP_MAX_REPS: usize = 1000;

const WORKLOADS: [&str; 4] = ["check_large", "check_uncertain", "repair_paper", "serve_corpus"];

/// End-to-end metrics (untraced run), in output order, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with units. Layers a workload does
/// not call report 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("models.dsl.parse_ms", "ms"),
    ("models.graph.prob01_ms", "ms"),
    ("numerics.scc.condense_ms", "ms"),
    ("numerics.scc.components", "count"),
    ("numerics.scc.largest", "count"),
    ("checker.dtmc_ms", "ms"),
    ("checker.robust_ms", "ms"),
    ("checker.mdp_ms", "ms"),
    ("checker.iterations", "count"),
    ("checker.fallbacks", "count"),
    ("parametric.eliminate_ms", "ms"),
    ("parametric.compile_ms", "ms"),
    ("parametric.eval_grad_ns", "ns"),
    ("parametric.lifting_ms", "ms"),
    ("optimizer.evaluations", "count"),
    ("core.model_repair.penalty_ms", "ms"),
    ("core.model_repair.lifting_ms", "ms"),
    ("core.model_repair.robust_ms", "ms"),
    ("core.data_repair_ms", "ms"),
    ("core.reward_repair_ms", "ms"),
    ("core.repair_cost", "cost"),
    ("models.learn.ml_dtmc_ms", "ms"),
    ("irl.maxent_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.refused", "count"),
    ("runtime.batch_jobs_per_s", "1/s"),
    ("telemetry.overhead_pct", "%"),
    ("wrong_verdicts", "count"),
];

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tml-perfbench: {e}");
            eprintln!(
                "usage: tml-perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("tml-perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::from(1);
    }
    let result = run(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.work);
    // Removed only when empty: another run may be using it.
    let _ = cfg.work.parent().map(std::fs::remove_dir);
    match result {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tml-perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s =
                    value("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    let cfg = RunConfig {
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        corrupt_references: false,
        work,
    };
    Ok((workload, cfg))
}

/// Runs one workload; returns the output lines (summary, fingerprint,
/// result).
fn run(workload: &str, cfg: &RunConfig) -> Result<Vec<String>, String> {
    let mut setup_ms = Vec::new();
    let mut samples: BTreeMap<String, usize> = BTreeMap::new();
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    let mut layer_values: BTreeMap<&str, f64> = BTreeMap::new();
    let tally: Tally;
    let cost: f64;
    let passes: usize;

    if workload == "serve_corpus" {
        let w = repeat_setup(&mut setup_ms, || serve_corpus::ServeCorpus::setup(cfg))?;
        let (m, extra) = if cfg.trace {
            let mut layers = Layers::default();
            let extra = serve_corpus::traced_extras(&w, cfg.seconds / 2.0, &mut layers);
            let m = w.measure(cfg.seconds / 2.0, 1, Some(&mut layers));
            layer_values.extend(layers.values);
            (m, extra)
        } else {
            (w.measure(cfg.seconds, MIN_PASSES, None), Tally::default())
        };
        samples.insert("job_ms".into(), m.jobs);
        e2e.extend(m.metrics());
        passes = m.pass_ms.len();
        samples.insert("pass_s".into(), passes);
        let mut t = m.tally;
        t.absorb(extra);
        tally = t;
        cost = 0.0;
    } else {
        let mut w = repeat_setup(&mut setup_ms, || setup_pass_workload(workload, cfg))?;
        let mut extra_passes = 0;
        let m: Measured = if cfg.trace {
            let (overhead, overhead_passes, mut t) =
                telemetry_overhead(w.as_mut(), cfg.seconds / 2.0);
            extra_passes = overhead_passes;
            let mut ls = LayerSamples::default();
            let mut m = measure(w.as_mut(), cfg.seconds / 2.0, 1, Some(&mut ls));
            layer_values.extend(ls.medians());
            layer_values.insert("telemetry.overhead_pct", overhead);
            t.absorb(std::mem::take(&mut m.tally));
            m.tally = t;
            m
        } else {
            let min = w.min_passes();
            measure(w.as_mut(), cfg.seconds, min, None)
        };
        samples.insert("job_ms".into(), m.jobs);
        samples.insert("pass_s".into(), m.pass_ms.len());
        e2e.extend(m.metrics());
        passes = m.pass_ms.len() + extra_passes;
        tally = m.tally;
        cost = m.cost;
    }
    samples.insert("setup_s".into(), setup_ms.len());
    e2e.insert("setup_s", median(&setup_ms) / 1e3);
    e2e.insert("peak_rss_mb", peak_rss_mb());
    layer_values.insert("core.repair_cost", cost);
    let per_pass = |n: u64| n as f64 / passes.max(1) as f64;
    layer_values.insert("wrong_verdicts", per_pass(tally.wrong + tally.known_wrong));

    let mut notes = tally.notes.clone();
    notes.sort();
    notes.dedup();
    for n in &notes {
        eprintln!("wrong: {n}");
    }
    let summary = format!(
        "{{\"verdicts\":{{\"passes\":{passes},\"wrong_verdicts\":{},\"known_defects_wrong\":{},\
         \"known_defects_asked\":{},\"repair_cost\":{}}}}}",
        num(per_pass(tally.wrong + tally.known_wrong)),
        num(per_pass(tally.known_wrong)),
        num(per_pass(tally.known_attempted)),
        num(cost),
    );
    let (names, values): (&[(&str, &str)], &BTreeMap<&str, f64>) =
        if cfg.trace { (&PER_LAYER, &layer_values) } else { (&END_TO_END, &e2e) };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(name), num(v), json_str(unit))
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.wrong == 0 && tally.attempted > 0,
        tally.attempted,
        tally.wrong,
        metrics.join(",")
    );
    Ok(vec![summary, fingerprint(cfg, workload, &samples), result])
}

/// Runs `setup` repeatedly (see [`SETUP_REPS`]), dropping each result
/// before the next run, and keeps the last; pushes every wall time.
fn repeat_setup<W>(
    times: &mut Vec<f64>,
    setup: impl Fn() -> Result<W, String>,
) -> Result<W, String> {
    let mut w = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_MS && times.len() < SETUP_MAX_REPS)
    {
        drop(w.take());
        let t = Instant::now();
        w = Some(setup()?);
        times.push(ms_since(t));
    }
    Ok(w.expect("at least one set-up"))
}

fn setup_pass_workload(workload: &str, cfg: &RunConfig) -> Result<Box<dyn PassWorkload>, String> {
    Ok(match workload {
        "check_large" => Box::new(check_large::CheckLarge::setup(cfg)?),
        "check_uncertain" => Box::new(check_uncertain::CheckUncertain::setup(cfg)?),
        "repair_paper" => Box::new(repair_paper::RepairPaper::setup(cfg)?),
        other => return Err(format!("{other} is not a pass workload")),
    })
}

/// A JSON number with every digit; non-finite values (which no metric
/// should produce) become `null` so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
