//! Self-tests of the benchmark itself, on the smoke-sized variant of
//! every workload: the output checks must catch a wrong reference, and
//! each smoke pass must stay around a second.
//!
//! Run with `cargo test --release --manifest-path tmlbench/Cargo.toml`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::common::{ms_since, RunConfig, Size, Tally};
use crate::serve_corpus::ServeCorpus;
use crate::workload::{measure, PassWorkload};
use crate::{setup_pass_workload, WORKLOADS};

fn config(workload: &str, corrupt_references: bool) -> RunConfig {
    // Tests run in parallel; each set-up gets a directory of its own.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let work = PathBuf::from(".bench_work")
        .join(format!("selftest-{workload}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&work).expect("work directory");
    RunConfig { seed: 11, seconds: 0.0, trace: false, size: Size::Tiny, corrupt_references, work }
}

/// One smoke-sized pass of `workload`: its tally and wall time.
fn smoke_pass(workload: &str, corrupt_references: bool) -> (Tally, f64) {
    let cfg = config(workload, corrupt_references);
    let t = Instant::now();
    let tally = if workload == "serve_corpus" {
        let w = ServeCorpus::setup(&cfg).expect("set-up");
        w.measure(0.0, 1, None).tally
    } else {
        let mut w: Box<dyn PassWorkload> = setup_pass_workload(workload, &cfg).expect("set-up");
        measure(w.as_mut(), 0.0, 1, None).tally
    };
    let ms = ms_since(t);
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = cfg.work.parent().map(std::fs::remove_dir);
    (tally, ms)
}

#[test]
fn smoke_passes_are_correct_and_quick() {
    for workload in WORKLOADS {
        let (tally, ms) = smoke_pass(workload, false);
        assert!(tally.attempted > 0, "{workload}: no output was checked");
        assert_eq!(tally.wrong, 0, "{workload}: {:?}", tally.notes);
        // About a second each; the margin absorbs a loaded machine.
        assert!(ms < 5_000.0, "{workload}: smoke set-up and pass took {ms:.0} ms");
    }
}

#[test]
fn wrong_references_raise_wrong_verdicts() {
    for workload in WORKLOADS {
        let (honest, _) = smoke_pass(workload, false);
        let (corrupt, _) = smoke_pass(workload, true);
        assert!(
            corrupt.wrong + corrupt.known_wrong > honest.wrong + honest.known_wrong,
            "{workload}: a corrupted reference went unnoticed ({} vs {} wrong)",
            corrupt.wrong + corrupt.known_wrong,
            honest.wrong + honest.known_wrong
        );
        assert!(corrupt.wrong > 0, "{workload}: gated outputs missed the corrupted reference");
    }
}

#[test]
fn defect_models_are_reported() {
    // The ROADMAP Baseline's defect models fail at the time of writing;
    // whatever the engine answers, they must be asked and compared.
    let (tally, _) = smoke_pass("check_uncertain", false);
    assert!(tally.known_attempted >= 6, "defect models asked {} times", tally.known_attempted);
}
