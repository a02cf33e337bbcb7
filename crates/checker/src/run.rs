//! Per-invocation checking context: options + budget + diagnostics.
//!
//! A [`CheckRun`] is created at every public entry point and threaded
//! through the recursive evaluation internals so that all numeric work in
//! one check shares a single [`Budget`] and accumulates into a single
//! [`Diagnostics`] record. The evaluation unit is *solver sweeps* (one
//! Gauss–Seidel/Jacobi sweep or one value-iteration sweep each count 1).

use std::cell::RefCell;
use std::time::Instant;

use tml_numerics::{Budget, Diagnostics, Exhaustion};

use crate::CheckOptions;

/// Context for one checking invocation.
pub(crate) struct CheckRun<'a> {
    pub(crate) opts: &'a CheckOptions,
    budget: &'a Budget,
    diag: RefCell<Diagnostics>,
    start: Instant,
}

impl<'a> CheckRun<'a> {
    pub(crate) fn new(opts: &'a CheckOptions, budget: &'a Budget) -> Self {
        CheckRun { opts, budget, diag: RefCell::new(Diagnostics::new()), start: Instant::now() }
    }

    /// Polls the shared budget against the sweeps spent so far.
    pub(crate) fn exhausted(&self) -> Option<Exhaustion> {
        self.budget.check(self.diag.borrow().evaluations)
    }

    /// Charges a finished solve's `sweeps` to the run and emits its one
    /// `checker.solve.sweeps` event. Loops that charge as they go use
    /// [`CheckRun::sweeps`] instead.
    pub(crate) fn spend(&self, sweeps: u64) {
        tml_telemetry::counter!("checker.solve.sweeps", sweeps);
        self.charge(sweeps);
    }

    /// Opens the sweep tally of one iterative solve: sweeps charged through
    /// it are visible to [`CheckRun::exhausted`] at once, and the total is
    /// emitted as a single `checker.solve.sweeps` event when the tally drops.
    pub(crate) fn sweeps(&self) -> SweepTally<'_, 'a> {
        SweepTally { run: self, total: 0 }
    }

    fn charge(&self, sweeps: u64) {
        self.diag.borrow_mut().evaluations += sweeps;
    }

    /// The budget with its evaluation cap reduced by what this run has
    /// already spent — handed to the numerics-layer budgeted solvers, whose
    /// iteration counts start from zero.
    pub(crate) fn remaining_budget(&self) -> Budget {
        let mut b = self.budget.clone();
        if let Some(cap) = self.budget.max_evaluations() {
            b = b.with_max_evaluations(cap.saturating_sub(self.diag.borrow().evaluations));
        }
        b
    }

    pub(crate) fn record_fallback(&self, event: impl Into<String>) {
        tml_telemetry::counter!("checker.solve.fallbacks", 1);
        self.diag.borrow_mut().record_fallback(event);
    }

    /// Records one backend attempt (`checker.backend.<name>.<ok|fail>`), both
    /// to the live subscriber and into this run's diagnostics snapshot —
    /// callers feeding circuit breakers read the latter off `Diagnostics`.
    pub(crate) fn record_backend(&self, backend: &str, ok: bool) {
        let name = format!("checker.backend.{backend}.{}", if ok { "ok" } else { "fail" });
        tml_telemetry::counter!(name.as_str(), 1);
        self.diag.borrow_mut().telemetry.incr(&name, 1);
    }

    pub(crate) fn record_residual(&self, residual: f64) {
        self.diag.borrow_mut().record_residual(residual);
    }

    pub(crate) fn mark_exhausted(&self, cause: Exhaustion) {
        self.diag.borrow_mut().mark_exhausted(cause);
    }

    /// Finalizes the run, stamping the elapsed wall-clock time and filling
    /// the diagnostics' telemetry snapshot with this run's totals (so the
    /// `*_diag` APIs surface the same numbers a live subscriber would see).
    pub(crate) fn finish(self) -> Diagnostics {
        let mut diag = self.diag.into_inner();
        diag.elapsed = self.start.elapsed();
        diag.telemetry.incr("checker.solve.sweeps", diag.evaluations);
        diag.telemetry.incr("checker.solve.fallbacks", diag.fallbacks.len() as u64);
        diag
    }
}

/// Per-solve sweep accounting; see [`CheckRun::sweeps`].
pub(crate) struct SweepTally<'r, 'a> {
    run: &'r CheckRun<'a>,
    total: u64,
}

impl SweepTally<'_, '_> {
    /// Charges `sweeps` to the run's budget without a telemetry event.
    pub(crate) fn charge(&mut self, sweeps: u64) {
        self.total += sweeps;
        self.run.charge(sweeps);
    }

    /// Sweeps charged so far.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

impl Drop for SweepTally<'_, '_> {
    fn drop(&mut self) {
        tml_telemetry::counter!("checker.solve.sweeps", self.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_counts_against_the_cap() {
        let opts = CheckOptions::default();
        let budget = Budget::unlimited().with_max_evaluations(10);
        let run = CheckRun::new(&opts, &budget);
        assert!(run.exhausted().is_none());
        run.spend(4);
        assert_eq!(run.remaining_budget().max_evaluations(), Some(6));
        run.spend(6);
        assert_eq!(run.exhausted(), Some(Exhaustion::Evaluations));
        assert_eq!(run.remaining_budget().max_evaluations(), Some(0));
        let diag = run.finish();
        assert_eq!(diag.evaluations, 10);
    }

    #[test]
    fn a_sweep_tally_charges_as_it_goes_and_reports_once() {
        use std::sync::Arc;
        use tml_telemetry::event::Event;
        use tml_telemetry::sink::RingSink;

        let ring = Arc::new(RingSink::with_capacity(64));
        let sub = Arc::new(tml_telemetry::Subscriber::builder().sink(ring.clone()).build());
        let _guard = tml_telemetry::install_scoped(sub);
        let opts = CheckOptions::default();
        let budget = Budget::unlimited().with_max_evaluations(3);
        let run = CheckRun::new(&opts, &budget);
        {
            let mut tally = run.sweeps();
            for _ in 0..3 {
                assert!(run.exhausted().is_none());
                tally.charge(1);
            }
            assert_eq!(tally.total(), 3);
            assert_eq!(run.exhausted(), Some(Exhaustion::Evaluations));
        }
        let sweeps: Vec<u64> = ring
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                Event::Counter { name, value, .. } if name == "checker.solve.sweeps" => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(sweeps, vec![3], "one event per solve, not one per sweep");
        assert_eq!(run.finish().evaluations, 3);
    }

    #[test]
    fn finish_stamps_elapsed_and_events() {
        let opts = CheckOptions::default();
        let budget = Budget::unlimited();
        let run = CheckRun::new(&opts, &budget);
        run.record_fallback("gauss-seidel -> jacobi");
        run.record_residual(1e-4);
        run.mark_exhausted(Exhaustion::Deadline);
        let diag = run.finish();
        assert_eq!(diag.fallbacks, vec!["gauss-seidel -> jacobi".to_string()]);
        assert_eq!(diag.worst_residual, 1e-4);
        assert_eq!(diag.exhausted, Some(Exhaustion::Deadline));
        assert!(diag.degraded());
    }
}
