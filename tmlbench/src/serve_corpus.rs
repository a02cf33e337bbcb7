//! `serve_corpus`: `tml serve` corpus jobs (learn from sampled traces,
//! verify, then model or data repair) over loopback HTTP.
//!
//! Closed loop: one client holds at most two connections (one per
//! client thread, the machine's thread count); each thread submits the
//! next corpus index, polls the job until it reaches a terminal status,
//! then submits the next. A pass is a fresh server on a fresh journal
//! taking [`JOBS_PER_PASS`] submissions, every index new to that server;
//! it ends when the last job concluded and the server drained. The
//! reference for each index is the same job run through the batch
//! runtime (`run_batch`, no HTTP) at set-up.
//!
//! The corpus itself is fixed ([`CORPUS_SEED`]); the workload seed sets
//! the order in which its indices are submitted. A corpus seed draws the
//! mix of job kinds (satisfied, repaired, unrepairable), and that mix
//! alone moves the latency percentiles by a factor of three between
//! seeds, which would hide any change to the serving path.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tml_runtime::{run_batch, BatchOptions, JobOutcome, Journal};
use tml_serve::server::{RunOutcome, ServeOptions, Server};
use tml_telemetry::json::{self, Value};

use crate::common::{median, ms_since, timed, Layers, RunConfig, Size, Tally};
use crate::workload::{Measured, MIN_OVERHEAD_PAIRS};

/// The corpus seed of every pass (the `tml serve` default).
const CORPUS_SEED: u64 = 7;
/// Submissions per pass.
pub const JOBS_PER_PASS: u64 = 64;
const JOBS_PER_PASS_TINY: u64 = 8;
/// Client connections (threads), at most the machine's 2 threads.
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: u32 = 2;
/// Pause between two polls of one job. Measured on a 2-thread machine
/// (3 seeds each, medians): polling every 0.5 ms and every 5 ms gave the
/// same `jobs_per_s` (51.5, 50.7) and `job_ms.p90` (88, 86 ms), so the
/// client's polling does not compete with the workers at 5 ms; 50 ms and
/// 100 ms (the CI smoke client's rate) cut `jobs_per_s` to 44 and 33 and
/// put `job_ms.p90` at 117 and 120 ms, the poll interval instead of the
/// serving path.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Expected terminal status and model fingerprint of one corpus index.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    status: String,
    fingerprint: Option<String>,
}

pub struct ServeCorpus {
    jobs: u64,
    /// Submission order: a seeded permutation of `0..jobs`.
    order: Vec<u64>,
    refs: Vec<Expected>,
    journal: PathBuf,
}

/// What one client saw of one job.
struct Seen {
    index: u64,
    /// The server answered the submission with something other than 202.
    refused: bool,
    latency_ms: f64,
    submit_ms: f64,
    poll_ms: Vec<f64>,
    result: Result<Expected, String>,
}

impl ServeCorpus {
    pub fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let jobs = match cfg.size {
            Size::Full => JOBS_PER_PASS,
            Size::Tiny => JOBS_PER_PASS_TINY,
        };
        let refs = reference_batch(jobs, false)?
            .iter()
            .map(|o| Expected {
                status: if cfg.corrupt_references {
                    "corrupted".into()
                } else {
                    o.status.name().into()
                },
                fingerprint: o.fingerprint.map(|f| format!("{f:016x}")),
            })
            .collect();
        let mut order: Vec<u64> = (0..jobs).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        Ok(ServeCorpus { jobs, order, refs, journal: cfg.work.join("serve_corpus_journal.jsonl") })
    }

    /// Passes until `seconds` elapsed and at least `min_passes` ran.
    pub fn measure(
        &self,
        seconds: f64,
        min_passes: usize,
        mut layers: Option<&mut Layers>,
    ) -> Measured {
        let mut out = Measured::default();
        let start = Instant::now();
        let mut submit_ms = Vec::new();
        let mut poll_ms = Vec::new();
        while out.pass_ms.len() < min_passes || ms_since(start) < seconds * 1e3 {
            let t = Instant::now();
            match self.pass() {
                Ok(seen) => {
                    out.pass_ms.push(ms_since(t));
                    for s in seen {
                        if let (true, Some(l)) = (s.refused, layers.as_deref_mut()) {
                            l.add("serve.refused", 1.0);
                        }
                        out.job_ms.push(s.latency_ms);
                        out.jobs += 1;
                        submit_ms.push(s.submit_ms);
                        poll_ms.extend(s.poll_ms);
                        let want = &self.refs[s.index as usize];
                        match s.result {
                            Ok(got) => out.tally.expect(&got == want, || {
                                format!("job {}: got {got:?}, reference {want:?}", s.index)
                            }),
                            Err(e) => out.tally.error(format!("job {}: {e}", s.index)),
                        }
                    }
                }
                Err(e) => {
                    out.pass_ms.push(ms_since(t));
                    out.tally.error(format!("pass: {e}"));
                }
            }
        }
        out.wall_ms = ms_since(start);
        if let Some(l) = layers {
            l.add("serve.submit_ms", median(&submit_ms));
            l.add("serve.poll_ms", median(&poll_ms));
            // Refusals per pass.
            let passes = out.pass_ms.len() as f64;
            if let Some(r) = l.values.get_mut("serve.refused") {
                *r /= passes;
            }
        }
        out
    }

    /// One pass: a fresh server, `jobs` closed-loop submissions, drain.
    fn pass(&self) -> Result<Vec<Seen>, String> {
        let _ = std::fs::remove_file(&self.journal);
        let mut opts = ServeOptions::new(&self.journal);
        opts.workers = WORKERS;
        opts.corpus_seed = CORPUS_SEED;
        let server = Arc::new(Server::bind(opts).map_err(|e| format!("bind: {e}"))?);
        let addr = server.addr().map_err(|e| e.to_string())?;
        let handle: JoinHandle<std::io::Result<RunOutcome>> = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let next = AtomicU64::new(0);
        let seen = Mutex::new(Vec::with_capacity(self.jobs as usize));
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let position = next.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(&index) = self.order.get(position) else { break };
                    let s = run_one(&addr, index);
                    seen.lock().unwrap_or_else(|e| e.into_inner()).push(s);
                });
            }
        });
        let drained = http(&addr, "POST", "/admin/drain", "");
        let joined = handle.join().map_err(|_| "server thread panicked".to_string())?;
        drained.map_err(|e| format!("drain: {e}"))?;
        joined.map_err(|e| format!("server: {e}"))?;
        let _ = std::fs::remove_file(&self.journal);
        Ok(seen.into_inner().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The batch runtime's verdicts for indices `0..jobs` (the reference),
/// with `WORKERS` workers and the journal kept in memory.
pub fn reference_batch(jobs: u64, telemetry: bool) -> Result<Vec<JobOutcome>, String> {
    let mut opts = BatchOptions::new(CORPUS_SEED, jobs);
    opts.workers = WORKERS;
    let journal = Journal::create(Vec::new(), &opts.config()).map_err(|e| e.to_string())?;
    let installed = telemetry
        && tml_telemetry::install_global(Arc::new(tml_telemetry::Subscriber::builder().build()));
    let result = run_batch(&opts, &journal, None);
    if installed {
        tml_telemetry::uninstall_global();
    }
    let result = result.map_err(|e| e.to_string())?;
    if result.outcomes.len() as u64 != jobs {
        return Err(format!("batch concluded {} of {jobs} jobs", result.outcomes.len()));
    }
    Ok(result.outcomes)
}

/// Submits corpus index `index` and polls it to a terminal status.
fn run_one(addr: &SocketAddr, index: u64) -> Seen {
    let start = Instant::now();
    let mut seen = Seen {
        index,
        refused: false,
        latency_ms: 0.0,
        submit_ms: 0.0,
        poll_ms: Vec::new(),
        result: Err(String::new()),
    };
    let body = format!("{{\"kind\":\"corpus\",\"index\":{index}}}");
    let (reply, ms) = timed(|| http(addr, "POST", "/v1/jobs", &body));
    seen.submit_ms = ms;
    let id = match reply {
        Ok((202, v)) => v.get("job").and_then(Value::as_u64),
        Ok((status, v)) => {
            seen.refused = true;
            seen.result = Err(format!("submission refused with {status}: {v:?}"));
            seen.latency_ms = ms_since(start);
            return seen;
        }
        Err(e) => {
            seen.result = Err(e);
            seen.latency_ms = ms_since(start);
            return seen;
        }
    };
    let Some(id) = id else {
        seen.result = Err("202 without a job id".into());
        return seen;
    };
    let path = format!("/v1/jobs/{id}");
    let deadline = Instant::now() + Duration::from_secs(60);
    seen.result = loop {
        let (reply, ms) = timed(|| http(addr, "GET", &path, ""));
        seen.poll_ms.push(ms);
        match reply {
            Ok((200, v)) => {
                let status = v.get("status").and_then(Value::as_str).unwrap_or("").to_owned();
                if status != "queued" && status != "running" {
                    let fingerprint =
                        v.get("fingerprint").and_then(Value::as_str).map(str::to_owned);
                    break Ok(Expected { status, fingerprint });
                }
            }
            Ok((status, v)) => break Err(format!("poll answered {status}: {v:?}")),
            Err(e) => break Err(e),
        }
        if Instant::now() > deadline {
            break Err("job did not conclude within 60 s".into());
        }
        std::thread::sleep(POLL_INTERVAL);
    };
    seen.latency_ms = ms_since(start);
    seen
}

/// One HTTP/1.1 exchange on a fresh connection; `(status, JSON body)`.
fn http(addr: &SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, Value), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response without a body")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {head:?}"))?;
    let value = if body.trim().is_empty() {
        Value::Null
    } else {
        json::parse(body).map_err(|e| e.to_string())?
    };
    Ok((status, value))
}

/// Traced-run extras: the same indices through `run_batch` without HTTP
/// (jobs per second), and the runtime path with and without a telemetry
/// subscriber installed (the serve path always runs one).
pub fn traced_extras(w: &ServeCorpus, seconds: f64, layers: &mut Layers) -> Tally {
    let mut tally = Tally::default();
    let mut off = Vec::new();
    let mut on = Vec::new();
    let start = Instant::now();
    while on.len() < MIN_OVERHEAD_PAIRS || ms_since(start) < seconds * 1e3 {
        for (telemetry, sink) in [(false, &mut off), (true, &mut on)] {
            let (r, ms) = timed(|| reference_batch(w.jobs, telemetry));
            sink.push(ms);
            match r {
                Ok(outcomes) => {
                    for (o, want) in outcomes.iter().zip(&w.refs) {
                        tally.expect(o.status.name() == want.status, || {
                            format!("batch job {}: {} vs {}", o.job, o.status.name(), want.status)
                        });
                    }
                }
                Err(e) => tally.error(format!("batch: {e}")),
            }
        }
    }
    layers.add("runtime.batch_jobs_per_s", w.jobs as f64 / (median(&off) / 1e3));
    layers.add("telemetry.overhead_pct", (median(&on) / median(&off) - 1.0) * 100.0);
    tally
}
