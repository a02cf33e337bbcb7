//! Robust (min-max) value iteration for interval DTMCs and MDPs.
//!
//! An interval model describes an *uncertainty set* of concrete models;
//! robust checking brackets the value of a property over every member:
//!
//! * the **pessimistic** value is the minimum over all members (nature
//!   adversarially re-picks a feasible row distribution at every step —
//!   the standard rectangular relaxation);
//! * the **optimistic** value is the maximum.
//!
//! A bounded property holds *robustly* when its worst-case side satisfies
//! the bound: lower bounds (`P>=b`, `R>=c`) test the pessimistic value,
//! upper bounds the optimistic one. For the degenerate set `lo == hi` both
//! sides collapse onto the scalar checker's value.
//!
//! The inner adversary problem per state — extremize `Σ p_t · x_t` over
//! the row polytope `{p : lo ≤ p ≤ hi, Σ p = 1}` — is solved exactly in
//! `O(n log n)`: start every transition at its lower bound and distribute
//! the remaining mass `1 − Σ lo` greedily in value order (ascending to
//! minimize, descending to maximize), capping each transition at `hi`.
//!
//! Unbounded solves run in topological order: the successor graph over the
//! states that update is condensed into strongly connected components,
//! which are solved sinks first — a single state without a self-loop in
//! one backup, every other block by in-place Gauss–Seidel sweeps in
//! ascending state order to a per-block share of the tolerance.
//! Step-bounded solves keep exact synchronous `k`-step semantics.
//!
//! **Supported fragment.** Top-level `P ⋈ b [·]` / `R ⋈ c [·]` whose
//! operands are propositional (labels and boolean connectives), plus purely
//! propositional formulas (which need no uncertainty reasoning). Nested
//! probabilistic operators are rejected with [`CheckError::Unsupported`]:
//! negating a robustly-evaluated set would silently flip a for-all-members
//! claim into an exists-member claim. Reach rewards on interval MDPs are
//! likewise unsupported (the scheduler/nature finiteness interaction needs
//! qualitative machinery this checker does not carry); cumulative rewards
//! work on both model kinds.
//!
//! Every solve is budget-aware (sweeps charge the shared [`Budget`]) and
//! telemetry-instrumented: `checker.robust.solves` / `.sweeps` /
//! `.degraded` counters plus the `checker.backend.robust.{ok,fail}` pair
//! that feeds the runtime's `robust` circuit breaker. When that breaker has
//! cleared [`CheckOptions::robust_vi_enabled`] under [`LinearSolver::Auto`],
//! robust calls degrade to a scalar solve on the nominal (midpoint) model
//! with a collapsed bracket and a recorded fallback.

use tml_logic::{PathFormula, Query, RewardKind, StateFormula};
use tml_models::interval::{IntervalChoice, IntervalDtmc, IntervalMdp, IntervalTransition};
use tml_models::{Labeling, RewardStructure};
use tml_numerics::scc::condensation_from;
use tml_numerics::{Budget, Diagnostics};

use crate::run::{CheckRun, SweepTally};
use crate::{CheckError, CheckOptions, LinearSolver};

/// Reach probabilities this close to one count as "almost surely" when
/// classifying which states have finite robust reach rewards. Documented in
/// DESIGN.md §16: reach probabilities within this margin of one may
/// misclassify a reward as infinite (never the reverse direction into
/// unsound finite values below the true one, since value iteration
/// converges from below).
const AS_REACH_EPS: f64 = 1e-6;

/// A two-sided robust value bracket: per-state pessimistic (minimum over
/// the uncertainty set) and optimistic (maximum) values.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustBracket {
    /// Minimum value over every member of the uncertainty set.
    pub pessimistic: Vec<f64>,
    /// Maximum value over every member.
    pub optimistic: Vec<f64>,
}

impl RobustBracket {
    /// The `[pessimistic, optimistic]` pair at one state.
    pub fn at(&self, state: usize) -> (f64, f64) {
        (self.pessimistic[state], self.optimistic[state])
    }

    /// Whether per-state `values` lie inside the bracket everywhere, up to
    /// `tol` (the nominal model's values must — that is the
    /// `robust-contains-nominal` conformance oracle).
    pub fn contains(&self, values: &[f64], tol: f64) -> bool {
        values.len() == self.pessimistic.len()
            && values
                .iter()
                .enumerate()
                .all(|(s, &v)| v >= self.pessimistic[s] - tol && v <= self.optimistic[s] + tol)
    }

    /// The widest per-state gap `optimistic − pessimistic`.
    pub fn width(&self) -> f64 {
        self.pessimistic.iter().zip(&self.optimistic).map(|(&lo, &hi)| hi - lo).fold(0.0, f64::max)
    }

    fn collapsed(values: Vec<f64>) -> Self {
        RobustBracket { pessimistic: values.clone(), optimistic: values }
    }
}

/// Result of robustly checking a formula on an interval model.
#[derive(Debug, Clone)]
pub struct RobustCheckResult {
    sat: Vec<bool>,
    values: Option<RobustBracket>,
    initial: usize,
    diagnostics: Diagnostics,
}

impl RobustCheckResult {
    fn new(sat: Vec<bool>, values: Option<RobustBracket>, initial: usize) -> Self {
        RobustCheckResult { sat, values, initial, diagnostics: Diagnostics::new() }
    }

    pub(crate) fn with_diagnostics(mut self, diagnostics: Diagnostics) -> Self {
        self.diagnostics = diagnostics;
        self
    }

    /// Whether the formula holds robustly (for every member) in `state`.
    pub fn holds_in(&self, state: usize) -> bool {
        self.sat[state]
    }

    /// Whether the formula holds robustly in the initial state.
    pub fn holds(&self) -> bool {
        self.sat[self.initial]
    }

    /// The per-state robust satisfaction mask.
    pub fn sat_mask(&self) -> &[bool] {
        &self.sat
    }

    /// The value bracket of a top-level `P`/`R` operator (`None` for purely
    /// propositional formulas).
    pub fn bracket(&self) -> Option<&RobustBracket> {
        self.values.as_ref()
    }

    /// The `[pessimistic, optimistic]` values in the initial state, when a
    /// bracket was computed.
    pub fn bracket_at_initial(&self) -> Option<(f64, f64)> {
        self.values.as_ref().map(|b| b.at(self.initial))
    }

    /// Diagnostics of the robust solve (sweeps, fallbacks, exhaustion).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }
}

/// Validates an interval DTMC's uncertainty set: finite endpoints inside
/// `[0, 1]`, `lo ≤ hi`, and a non-empty row polytope per state.
///
/// # Errors
///
/// Returns [`CheckError::InvalidInterval`] naming the first offending state.
pub fn validate_interval_dtmc(model: &IntervalDtmc) -> Result<(), CheckError> {
    for s in 0..model.num_states() {
        validate_row(model.row(s), s)?;
    }
    Ok(())
}

/// Validates an interval MDP (every choice of every state).
///
/// # Errors
///
/// Returns [`CheckError::InvalidInterval`] naming the first offending state.
pub fn validate_interval_mdp(model: &IntervalMdp) -> Result<(), CheckError> {
    for s in 0..model.num_states() {
        if model.choices(s).is_empty() {
            return Err(CheckError::InvalidInterval {
                state: s,
                detail: "state offers no choice".into(),
            });
        }
        for c in model.choices(s) {
            validate_row(&c.transitions, s)?;
        }
    }
    Ok(())
}

fn validate_row(row: &[IntervalTransition], state: usize) -> Result<(), CheckError> {
    let tol = tml_models::STOCHASTIC_TOLERANCE;
    if row.is_empty() {
        return Err(CheckError::InvalidInterval {
            state,
            detail: "state has no outgoing intervals".into(),
        });
    }
    let (mut lo_sum, mut hi_sum) = (0.0, 0.0);
    for &(t, lo, hi) in row {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(CheckError::InvalidInterval {
                state,
                detail: format!("non-finite endpoint [{lo}, {hi}] on transition to {t}"),
            });
        }
        if lo < -tol || hi > 1.0 + tol {
            return Err(CheckError::InvalidInterval {
                state,
                detail: format!("endpoint outside [0, 1]: [{lo}, {hi}] on transition to {t}"),
            });
        }
        if lo > hi + tol {
            return Err(CheckError::InvalidInterval {
                state,
                detail: format!("inverted interval [{lo}, {hi}] on transition to {t}"),
            });
        }
        lo_sum += lo;
        hi_sum += hi;
    }
    if lo_sum > 1.0 + tol {
        return Err(CheckError::InvalidInterval {
            state,
            detail: format!("empty polytope: lower bounds sum to {lo_sum} > 1"),
        });
    }
    if hi_sum < 1.0 - tol {
        return Err(CheckError::InvalidInterval {
            state,
            detail: format!("empty polytope: upper bounds sum to {hi_sum} < 1"),
        });
    }
    Ok(())
}

/// Extremizes `Σ p_t · x_t` over the row polytope in `O(n log n)`: lower
/// bounds everywhere, then the remaining mass in value order. Ties break on
/// the target index so the result is independent of input ordering.
/// `order` is caller-owned scratch, so a backup allocates nothing.
fn inner_expectation(
    row: &[IntervalTransition],
    values: &[f64],
    maximize: bool,
    order: &mut Vec<usize>,
) -> f64 {
    // Accumulate in target order so the result is bitwise independent of
    // the input row ordering. Model rows are sorted by construction; only
    // hand-built slices need the sort.
    order.clear();
    order.extend(0..row.len());
    if !row.windows(2).all(|w| w[0].0 < w[1].0) {
        order.sort_unstable_by_key(|&i| row[i].0);
    }
    let mut total = 0.0;
    let mut budget = 1.0;
    for &i in order.iter() {
        let (t, lo, _) = row[i];
        if lo > 0.0 {
            total += lo * values[t];
        }
        budget -= lo;
    }
    if budget <= 0.0 {
        return total;
    }
    order.sort_unstable_by(|&a, &b| {
        let (va, vb) = (values[row[a].0], values[row[b].0]);
        let ord = va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal);
        let ord = if maximize { ord.reverse() } else { ord };
        ord.then_with(|| row[a].0.cmp(&row[b].0))
    });
    for &i in order.iter() {
        let (t, lo, hi) = row[i];
        let take = (hi - lo).min(budget);
        if take > 0.0 {
            total += take * values[t];
            budget -= take;
            if budget <= 0.0 {
                break;
            }
        }
    }
    total
}

/// The per-state row accessor both model kinds share: a DTMC state has one
/// implicit choice, an MDP state one per action. The outer operator folds
/// over choices (`min` under `Opt::Min`-style resolution, `max` otherwise —
/// a DTMC fold sees exactly one element, so the flag is vacuous there).
trait RobustModel {
    fn num_states(&self) -> usize;
    fn initial_state(&self) -> usize;
    fn labeling(&self) -> &Labeling;
    /// Appends every successor of `state`, over all of its choices.
    fn successors(&self, state: usize, out: &mut Vec<usize>);
    /// Extremized one-step backup at `state`: inner adversary per choice,
    /// outer fold over choices. `extra` adds a per-choice offset (choice
    /// rewards); `minimize_outer` picks the scheduler side; `scratch` is
    /// the inner adversary's reusable buffer.
    fn backup(
        &self,
        state: usize,
        values: &[f64],
        maximize_inner: bool,
        minimize_outer: bool,
        extra: &dyn Fn(usize, usize) -> f64,
        scratch: &mut Vec<usize>,
    ) -> f64;
    fn reward_structure(&self, name: Option<&str>) -> Result<&RewardStructure, CheckError>;
}

impl RobustModel for IntervalDtmc {
    fn num_states(&self) -> usize {
        IntervalDtmc::num_states(self)
    }
    fn initial_state(&self) -> usize {
        IntervalDtmc::initial_state(self)
    }
    fn labeling(&self) -> &Labeling {
        IntervalDtmc::labeling(self)
    }
    fn successors(&self, state: usize, out: &mut Vec<usize>) {
        out.extend(self.row(state).iter().map(|&(t, _, _)| t));
    }
    fn backup(
        &self,
        state: usize,
        values: &[f64],
        maximize_inner: bool,
        _minimize_outer: bool,
        extra: &dyn Fn(usize, usize) -> f64,
        scratch: &mut Vec<usize>,
    ) -> f64 {
        inner_expectation(self.row(state), values, maximize_inner, scratch) + extra(state, 0)
    }
    fn reward_structure(&self, name: Option<&str>) -> Result<&RewardStructure, CheckError> {
        lookup(name, |n| self.reward_structure(n).ok(), self.default_reward_structure())
    }
}

impl RobustModel for IntervalMdp {
    fn num_states(&self) -> usize {
        IntervalMdp::num_states(self)
    }
    fn initial_state(&self) -> usize {
        IntervalMdp::initial_state(self)
    }
    fn labeling(&self) -> &Labeling {
        IntervalMdp::labeling(self)
    }
    fn successors(&self, state: usize, out: &mut Vec<usize>) {
        for choice in self.choices(state) {
            out.extend(choice.transitions.iter().map(|&(t, _, _)| t));
        }
    }
    fn backup(
        &self,
        state: usize,
        values: &[f64],
        maximize_inner: bool,
        minimize_outer: bool,
        extra: &dyn Fn(usize, usize) -> f64,
        scratch: &mut Vec<usize>,
    ) -> f64 {
        let fold = |acc: f64, v: f64| if minimize_outer { acc.min(v) } else { acc.max(v) };
        let mut best = if minimize_outer { f64::INFINITY } else { f64::NEG_INFINITY };
        for (c, choice) in self.choices(state).iter().enumerate() {
            let IntervalChoice { transitions, .. } = choice;
            best = fold(
                best,
                inner_expectation(transitions, values, maximize_inner, scratch) + extra(state, c),
            );
        }
        best
    }
    fn reward_structure(&self, name: Option<&str>) -> Result<&RewardStructure, CheckError> {
        lookup(name, |n| self.reward_structure(n).ok(), self.default_reward_structure())
    }
}

fn lookup<'a>(
    name: Option<&str>,
    by_name: impl Fn(&str) -> Option<&'a RewardStructure>,
    default: Option<&'a RewardStructure>,
) -> Result<&'a RewardStructure, CheckError> {
    let found = match name {
        Some(n) => by_name(n),
        None => default,
    };
    found.ok_or_else(|| {
        CheckError::Model(tml_models::ModelError::NotFound {
            kind: "reward structure",
            name: name.unwrap_or("<default>").into(),
        })
    })
}

/// Evaluates a propositional formula against the labeling. Probabilistic or
/// reward operators anywhere inside are rejected: robust satisfaction is a
/// for-all-members claim and does not commute with negation.
fn eval_propositional(
    labeling: &Labeling,
    n: usize,
    formula: &StateFormula,
) -> Result<Vec<bool>, CheckError> {
    Ok(match formula {
        StateFormula::True => vec![true; n],
        StateFormula::False => vec![false; n],
        StateFormula::Atom(a) => labeling.mask(a),
        StateFormula::Not(f) => eval_propositional(labeling, n, f)?.iter().map(|b| !b).collect(),
        StateFormula::And(a, b) => {
            zip(eval_propositional(labeling, n, a)?, eval_propositional(labeling, n, b)?, |x, y| {
                x && y
            })
        }
        StateFormula::Or(a, b) => {
            zip(eval_propositional(labeling, n, a)?, eval_propositional(labeling, n, b)?, |x, y| {
                x || y
            })
        }
        StateFormula::Implies(a, b) => {
            zip(eval_propositional(labeling, n, a)?, eval_propositional(labeling, n, b)?, |x, y| {
                !x || y
            })
        }
        StateFormula::Prob { .. } | StateFormula::Reward { .. } => {
            return Err(CheckError::Unsupported {
                detail: "robust checking supports P/R only at the top level \
                         with propositional operands"
                    .into(),
            })
        }
    })
}

fn zip(a: Vec<bool>, b: Vec<bool>, f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

/// Poll the budget every this many state updates (and at every block that
/// iterates), the stride `numerics::scc` uses for back-substitution.
const BUDGET_POLL_STRIDE: usize = 4096;

/// The dependency structure of an unbounded robust solve: the successor
/// graph over live (non-frozen) states — for an MDP the union over its
/// choices — condensed into strongly connected components. Depends only on
/// the model and the frozen mask, so both sides of a bracket share it.
struct Topology {
    /// Live components in dependency order (sinks first), each with its
    /// states ascending.
    blocks: Vec<Vec<usize>>,
    /// Whether a state has an edge to itself: a single-state block with a
    /// self-loop iterates, one without takes exactly one backup.
    self_loop: Vec<bool>,
    /// The most iterating blocks on any dependency path (at least one).
    /// Each such block stops with a small residual error, and those errors
    /// add up along the path, so every block stops at `tolerance / chain`.
    chain: usize,
}

impl Topology {
    fn new<M: RobustModel>(model: &M, frozen: &[bool]) -> Self {
        let n = model.num_states();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut self_loop = vec![false; n];
        let mut row = Vec::new();
        offsets.push(0);
        for s in 0..n {
            if !frozen[s] {
                row.clear();
                model.successors(s, &mut row);
                for &t in row.iter().filter(|&&t| !frozen[t]) {
                    self_loop[s] |= t == s;
                    targets.push(t);
                }
            }
            offsets.push(targets.len());
        }
        // Frozen states have no edges, so each is a singleton component of
        // its own and drops out of the block list.
        let cond = condensation_from(n, |v| &targets[offsets[v]..offsets[v + 1]]);
        // Sinks first, so every successor block's depth is already known.
        let mut depth = vec![0usize; cond.components.len()];
        for (c, comp) in cond.components.iter().enumerate() {
            let below = comp
                .iter()
                .flat_map(|&s| &targets[offsets[s]..offsets[s + 1]])
                .map(|&t| cond.comp_of[t])
                .filter(|&d| d != c)
                .map(|d| depth[d])
                .max()
                .unwrap_or(0);
            depth[c] = below + usize::from(comp.len() > 1 || self_loop[comp[0]]);
        }
        let chain = depth.into_iter().max().unwrap_or(0).max(1);
        let blocks = cond.components.into_iter().filter(|c| !frozen[c[0]]).collect();
        Topology { blocks, self_loop, chain }
    }
}

/// Charges the tally up to `updates ÷ n` sweep-equivalents, rounded up.
fn settle(tally: &mut SweepTally<'_, '_>, updates: usize, n: usize) {
    let due = (updates as u64).div_ceil(n.max(1) as u64);
    tally.charge(due - tally.total());
}

/// Settles the charge and polls the budget: whether it ran out.
fn out_of_budget(
    run: &CheckRun<'_>,
    tally: &mut SweepTally<'_, '_>,
    updates: usize,
    n: usize,
) -> bool {
    settle(tally, updates, n);
    match run.exhausted() {
        Some(cause) => {
            run.mark_exhausted(cause);
            true
        }
        None => false,
    }
}

/// One unbounded robust value-iteration solve, in topological order. `x`
/// is the seed iterate; states in no block of `topo` (the frozen targets
/// and infinite-reward states) keep their seed values, and `step` computes
/// the backup of a live state. Blocks are
/// solved sinks first, so every state outside the current block is final:
/// a trivial block takes one backup, any other runs in-place Gauss–Seidel
/// sweeps in ascending state order until `max_iterations` sweeps have run
/// or both its largest step and the error a geometric tail at the observed
/// contraction rate would still leave are within `tolerance / chain` (the
/// errors blocks stop with add up along dependency paths). The budget is
/// charged in sweep-equivalents (state updates ÷ states) and the best
/// iterate is returned on exhaustion.
fn robust_vi(
    run: &CheckRun<'_>,
    mut x: Vec<f64>,
    topo: &Topology,
    mut step: impl FnMut(usize, &[f64]) -> f64,
) -> Vec<f64> {
    let n = x.len();
    let opts = run.opts;
    let mut span = tml_telemetry::span!(
        "checker.robust.solve",
        states = topo.blocks.iter().map(Vec::len).sum::<usize>(),
        components = topo.blocks.len(),
        largest = topo.blocks.iter().map(Vec::len).max().unwrap_or(0),
    );
    tml_telemetry::counter!("checker.robust.solves", 1);
    let mut tally = run.sweeps();
    let (mut updates, mut since_poll) = (0usize, 0usize);
    let mut converged = true;
    let mut residual = 0.0_f64;
    let block_tolerance = opts.tolerance / topo.chain as f64;
    'blocks: for block in &topo.blocks {
        let iterates = block.len() > 1 || topo.self_loop[block[0]];
        if iterates || since_poll >= BUDGET_POLL_STRIDE {
            since_poll = 0;
            if out_of_budget(run, &mut tally, updates, n) {
                converged = false;
                break;
            }
        }
        if !iterates {
            let s = block[0];
            x[s] = step(s, &x);
            updates += 1;
            since_poll += 1;
            continue;
        }
        let mut sweeps = 0usize;
        let mut previous = f64::INFINITY;
        loop {
            let (mut delta, mut magnitude) = (0.0_f64, 0.0_f64);
            for &s in block {
                let v = step(s, &x);
                let d = if v.is_infinite() && x[s].is_infinite() { 0.0 } else { (v - x[s]).abs() };
                delta = delta.max(d);
                if v.is_finite() {
                    magnitude = magnitude.max(v.abs());
                }
                x[s] = v;
            }
            sweeps += 1;
            updates += block.len();
            since_poll += block.len();
            // The step must be small, and so must the error a geometric
            // tail at the observed contraction rate would still leave. A
            // step at the rounding level of the values is noise, whose
            // rate says nothing.
            let rate = delta / previous;
            let tail = if rate < 1.0 { delta * rate / (1.0 - rate) } else { f64::INFINITY };
            let noise = 8.0 * f64::EPSILON * magnitude;
            if delta <= noise || (delta <= block_tolerance && tail <= block_tolerance) {
                break;
            }
            previous = delta;
            if sweeps >= opts.max_iterations {
                converged = false;
                residual = residual.max(delta);
                break;
            }
            if since_poll >= BUDGET_POLL_STRIDE {
                since_poll = 0;
                if out_of_budget(run, &mut tally, updates, n) {
                    converged = false;
                    residual = residual.max(delta);
                    break 'blocks;
                }
            }
        }
    }
    settle(&mut tally, updates, n);
    span.record("sweeps", tally.total());
    tml_telemetry::counter!("checker.robust.sweeps", tally.total());
    run.record_backend("robust", converged);
    if !converged && residual.is_finite() && residual > 0.0 {
        run.record_residual(residual);
    }
    x
}

/// A step-bounded robust solve: exactly `k` synchronous sweeps (the
/// `k`-step semantics of `U<=k`, `F<=k` and `C<=k`), alternating between
/// two buffers. Charges one sweep each and returns the best iterate on
/// exhaustion.
fn robust_vi_bounded(
    run: &CheckRun<'_>,
    mut x: Vec<f64>,
    frozen: &[bool],
    k: u64,
    mut step: impl FnMut(usize, &[f64]) -> f64,
) -> Vec<f64> {
    tml_telemetry::counter!("checker.robust.solves", 1);
    let mut tally = run.sweeps();
    // Frozen entries never change, so both buffers hold them from here on.
    let mut next = x.clone();
    for _ in 0..k {
        if let Some(cause) = run.exhausted() {
            run.mark_exhausted(cause);
            break;
        }
        for (s, v) in next.iter_mut().enumerate() {
            if !frozen[s] {
                *v = step(s, &x);
            }
        }
        std::mem::swap(&mut x, &mut next);
        tally.charge(1);
    }
    tml_telemetry::counter!("checker.robust.sweeps", tally.total());
    run.record_backend("robust", true);
    x
}

/// How far a robust reachability solve looks ahead.
enum Horizon {
    /// Exactly this many steps.
    Steps(u64),
    /// The fixed point, solved over this topology.
    Unbounded(Topology),
}

/// One robust `P(φ U ψ)` problem: the seed iterate, the frozen mask (targets
/// and states outside `φ` never update) and the horizon. Both sides of a
/// bracket solve the same problem, so they share its topology.
struct Reach {
    seed: Vec<f64>,
    frozen: Vec<bool>,
    horizon: Horizon,
}

impl Reach {
    fn new<M: RobustModel>(model: &M, phi: &[bool], target: &[bool], bound: Option<u64>) -> Self {
        let seed = target.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
        let frozen: Vec<bool> = phi.iter().zip(target).map(|(&p, &t)| t || !p).collect();
        let horizon = match bound {
            Some(k) => Horizon::Steps(k),
            None => Horizon::Unbounded(Topology::new(model, &frozen)),
        };
        Reach { seed, frozen, horizon }
    }

    /// The per-state probabilities for one side of the bracket.
    fn solve<M: RobustModel>(
        &self,
        model: &M,
        run: &CheckRun<'_>,
        maximize: bool,
        minimize_outer: bool,
    ) -> Vec<f64> {
        let zero = |_: usize, _: usize| 0.0;
        let mut scratch = Vec::new();
        let step = |s: usize, vals: &[f64]| {
            model.backup(s, vals, maximize, minimize_outer, &zero, &mut scratch).clamp(0.0, 1.0)
        };
        match &self.horizon {
            Horizon::Steps(k) => robust_vi_bounded(run, self.seed.clone(), &self.frozen, *k, step),
            Horizon::Unbounded(topo) => robust_vi(run, self.seed.clone(), topo, step),
        }
    }
}

/// One-step robust `P(X target)`.
fn robust_next<M: RobustModel>(
    model: &M,
    target: &[bool],
    run: &CheckRun<'_>,
    maximize: bool,
    minimize_outer: bool,
) -> Vec<f64> {
    let n = model.num_states();
    let ind: Vec<f64> = target.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
    run.spend(1);
    tml_telemetry::counter!("checker.robust.solves", 1);
    tml_telemetry::counter!("checker.robust.sweeps", 1);
    run.record_backend("robust", true);
    let zero = |_: usize, _: usize| 0.0;
    let mut scratch = Vec::new();
    (0..n)
        .map(|s| {
            model.backup(s, &ind, maximize, minimize_outer, &zero, &mut scratch).clamp(0.0, 1.0)
        })
        .collect()
}

/// Robust expected reward accumulated until reaching `target` on an
/// interval DTMC. `reach` is the bracket's shared `P(F target)` problem:
/// states whose worst-case (for this side) reach probability falls short
/// of one get `+∞`.
fn robust_reach_rewards(
    model: &IntervalDtmc,
    rewards: &RewardStructure,
    target: &[bool],
    reach: &Reach,
    run: &CheckRun<'_>,
    maximize: bool,
) -> Vec<f64> {
    let n = RobustModel::num_states(model);
    // Maximal reward is finite only when *every* member reaches a.s.
    // (pessimistic reach = 1); minimal reward needs *some* member to reach
    // a.s. (optimistic reach = 1).
    let reach = reach.solve(model, run, !maximize, false);
    let finite: Vec<bool> = reach.iter().map(|&p| p >= 1.0 - AS_REACH_EPS).collect();
    let x: Vec<f64> =
        (0..n).map(|s| if target[s] || finite[s] { 0.0 } else { f64::INFINITY }).collect();
    let frozen: Vec<bool> = (0..n).map(|s| target[s] || !finite[s]).collect();
    let topo = Topology::new(model, &frozen);
    let zero = |_: usize, _: usize| 0.0;
    let mut scratch = Vec::new();
    robust_vi(run, x, &topo, |s, vals| {
        rewards.state_reward(s)
            + RobustModel::backup(model, s, vals, maximize, false, &zero, &mut scratch)
    })
}

/// Robust expected reward cumulated over `k` steps.
fn robust_cumulative_rewards<M: RobustModel>(
    model: &M,
    rewards: &RewardStructure,
    k: u64,
    run: &CheckRun<'_>,
    maximize: bool,
    minimize_outer: bool,
) -> Vec<f64> {
    let n = model.num_states();
    let extra = |s: usize, c: usize| rewards.state_reward(s) + rewards.choice_reward(s, c);
    let mut scratch = Vec::new();
    robust_vi_bounded(run, vec![0.0; n], &vec![false; n], k, |s, vals| {
        model.backup(s, vals, maximize, minimize_outer, &extra, &mut scratch)
    })
}

/// The `(pessimistic, optimistic)` bracket of a path formula's probability.
/// `outer`: `(minimize_outer_for_pessimistic, minimize_outer_for_optimistic)`
/// — on a DTMC both are vacuous; on an MDP the scheduler joins nature on
/// each side (min with min, max with max), bracketing over schedulers *and*
/// members.
fn path_bracket<M: RobustModel>(
    model: &M,
    path: &PathFormula,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    let n = model.num_states();
    let lab = model.labeling();
    let (pess, opt) = match path {
        PathFormula::Next(f) => {
            let target = eval_propositional(lab, n, f)?;
            (
                robust_next(model, &target, run, false, true),
                robust_next(model, &target, run, true, false),
            )
        }
        PathFormula::Until { lhs, rhs, bound } => {
            let phi = eval_propositional(lab, n, lhs)?;
            let target = eval_propositional(lab, n, rhs)?;
            let reach = Reach::new(model, &phi, &target, *bound);
            (reach.solve(model, run, false, true), reach.solve(model, run, true, false))
        }
        PathFormula::Eventually { sub, bound } => {
            let target = eval_propositional(lab, n, sub)?;
            let reach = Reach::new(model, &vec![true; n], &target, *bound);
            (reach.solve(model, run, false, true), reach.solve(model, run, true, false))
        }
        PathFormula::Globally { sub, bound } => {
            // Robust duality: the adversary maximizing P(F ¬φ) is the one
            // minimizing P(G φ), so the G-bracket is the complemented,
            // side-swapped F-bracket.
            let inv: Vec<bool> = eval_propositional(lab, n, sub)?.iter().map(|b| !b).collect();
            let reach = Reach::new(model, &vec![true; n], &inv, *bound);
            let f_hi = reach.solve(model, run, true, false);
            let f_lo = reach.solve(model, run, false, true);
            (
                f_hi.iter().map(|p| (1.0 - p).clamp(0.0, 1.0)).collect(),
                f_lo.iter().map(|p| (1.0 - p).clamp(0.0, 1.0)).collect(),
            )
        }
    };
    Ok(RobustBracket { pessimistic: pess, optimistic: opt })
}

enum AnyInterval<'a> {
    Dtmc(&'a IntervalDtmc),
    Mdp(&'a IntervalMdp),
}

impl AnyInterval<'_> {
    fn validate(&self) -> Result<(), CheckError> {
        match self {
            AnyInterval::Dtmc(m) => validate_interval_dtmc(m),
            AnyInterval::Mdp(m) => validate_interval_mdp(m),
        }
    }

    fn path_bracket(
        &self,
        path: &PathFormula,
        run: &CheckRun<'_>,
    ) -> Result<RobustBracket, CheckError> {
        match self {
            AnyInterval::Dtmc(m) => path_bracket(*m, path, run),
            AnyInterval::Mdp(m) => path_bracket(*m, path, run),
        }
    }

    fn reward_bracket(
        &self,
        structure: Option<&str>,
        kind: &RewardKind,
        run: &CheckRun<'_>,
    ) -> Result<RobustBracket, CheckError> {
        match self {
            AnyInterval::Dtmc(m) => {
                let rewards = RobustModel::reward_structure(*m, structure)?;
                match kind {
                    RewardKind::Reach(target) => {
                        let n = RobustModel::num_states(*m);
                        let mask = eval_propositional(RobustModel::labeling(*m), n, target)?;
                        let reach = Reach::new(*m, &vec![true; n], &mask, None);
                        let side = |maximize| {
                            robust_reach_rewards(m, rewards, &mask, &reach, run, maximize)
                        };
                        Ok(RobustBracket { pessimistic: side(false), optimistic: side(true) })
                    }
                    RewardKind::Cumulative(k) => Ok(RobustBracket {
                        pessimistic: robust_cumulative_rewards(*m, rewards, *k, run, false, true),
                        optimistic: robust_cumulative_rewards(*m, rewards, *k, run, true, false),
                    }),
                }
            }
            AnyInterval::Mdp(m) => match kind {
                RewardKind::Reach(_) => Err(CheckError::Unsupported {
                    detail: "robust reach rewards on interval MDPs are not supported \
                             (see DESIGN.md §16); use cumulative rewards or an induced \
                             interval DTMC"
                        .into(),
                }),
                RewardKind::Cumulative(k) => {
                    let rewards = RobustModel::reward_structure(*m, structure)?;
                    Ok(RobustBracket {
                        pessimistic: robust_cumulative_rewards(*m, rewards, *k, run, false, true),
                        optimistic: robust_cumulative_rewards(*m, rewards, *k, run, true, false),
                    })
                }
            },
        }
    }

    fn labeling(&self) -> &Labeling {
        match self {
            AnyInterval::Dtmc(m) => RobustModel::labeling(*m),
            AnyInterval::Mdp(m) => RobustModel::labeling(*m),
        }
    }

    fn num_states(&self) -> usize {
        match self {
            AnyInterval::Dtmc(m) => RobustModel::num_states(*m),
            AnyInterval::Mdp(m) => RobustModel::num_states(*m),
        }
    }

    fn initial_state(&self) -> usize {
        match self {
            AnyInterval::Dtmc(m) => RobustModel::initial_state(*m),
            AnyInterval::Mdp(m) => RobustModel::initial_state(*m),
        }
    }
}

/// Whether the robust backend is disabled for this run (breaker open under
/// `Auto`).
fn degraded(opts: &CheckOptions) -> bool {
    opts.solver == LinearSolver::Auto && !opts.robust_vi_enabled
}

fn check_any(
    model: &AnyInterval<'_>,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<RobustCheckResult, CheckError> {
    model.validate().inspect_err(|_| run.record_backend("robust", false))?;
    let n = model.num_states();
    if degraded(run.opts) {
        return degrade_check(model, formula, run);
    }
    let (sat, values) = match formula {
        StateFormula::Prob { op, bound, path, .. } => {
            let bracket = model.path_bracket(path, run)?;
            let sat = robust_sat(run.opts, *op, *bound, &bracket);
            (sat, Some(bracket))
        }
        StateFormula::Reward { structure, op, bound, kind, .. } => {
            let bracket = model.reward_bracket(structure.as_deref(), kind, run)?;
            let sat = robust_sat(run.opts, *op, *bound, &bracket);
            (sat, Some(bracket))
        }
        prop => (eval_propositional(model.labeling(), n, prop)?, None),
    };
    Ok(RobustCheckResult::new(sat, values, model.initial_state()))
}

/// Robust satisfaction: lower bounds must hold at the pessimistic value,
/// upper bounds at the optimistic one — i.e. on the worst member.
fn robust_sat(
    opts: &CheckOptions,
    op: tml_logic::CmpOp,
    bound: f64,
    bracket: &RobustBracket,
) -> Vec<bool> {
    let side = if op.is_lower_bound() { &bracket.pessimistic } else { &bracket.optimistic };
    side.iter().map(|&v| opts.test_bound(op, v, bound)).collect()
}

/// Breaker-open degradation: scalar-check the nominal (midpoint) model and
/// report a collapsed bracket plus an explicit fallback event. Only interval
/// DTMCs have a nominal scalar model; MDPs keep the structured error.
fn degrade_check(
    model: &AnyInterval<'_>,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<RobustCheckResult, CheckError> {
    let AnyInterval::Dtmc(m) = model else {
        return Err(CheckError::Unsupported {
            detail: "robust backend disabled (breaker open) and interval MDPs \
                     have no nominal scalar fallback"
                .into(),
        });
    };
    tml_telemetry::counter!("checker.robust.degraded", 1);
    run.record_fallback("robust -> nominal (breaker open)");
    let nominal = m.nominal_dtmc()?;
    let result = crate::dtmc::check_run(&nominal, formula, run)?;
    let sat = (0..nominal.num_states()).map(|s| result.holds_in(s)).collect();
    let values = result.values().map(|v| RobustBracket::collapsed(v.to_vec()));
    Ok(RobustCheckResult::new(sat, values, nominal.initial_state()))
}

fn query_any(
    model: &AnyInterval<'_>,
    query: &Query,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    model.validate().inspect_err(|_| run.record_backend("robust", false))?;
    if degraded(run.opts) {
        let AnyInterval::Dtmc(m) = model else {
            return Err(CheckError::Unsupported {
                detail: "robust backend disabled (breaker open) and interval MDPs \
                         have no nominal scalar fallback"
                    .into(),
            });
        };
        tml_telemetry::counter!("checker.robust.degraded", 1);
        run.record_fallback("robust -> nominal (breaker open)");
        let nominal = m.nominal_dtmc()?;
        let values = crate::dtmc::query_run(&nominal, query, run)?;
        return Ok(RobustBracket::collapsed(values));
    }
    match query {
        Query::Prob { path, .. } => model.path_bracket(path, run),
        Query::Reward { structure, kind, .. } => {
            model.reward_bracket(structure.as_deref(), kind, run)
        }
    }
}

/// Robustly checks a formula on an interval DTMC with explicit options and
/// an unlimited budget (the [`crate::Checker`] facade threads a budget).
///
/// # Errors
///
/// * [`CheckError::InvalidInterval`] for malformed uncertainty sets.
/// * [`CheckError::Unsupported`] for nested `P`/`R` operators.
pub fn check_interval_dtmc(
    model: &IntervalDtmc,
    formula: &StateFormula,
    opts: &CheckOptions,
) -> Result<RobustCheckResult, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    let result = check_any(&AnyInterval::Dtmc(model), formula, &run)?;
    Ok(result.with_diagnostics(run.finish()))
}

/// Robustly checks a formula on an interval MDP (bracketing over schedulers
/// *and* members).
///
/// # Errors
///
/// Same as [`check_interval_dtmc`], plus [`CheckError::Unsupported`] for
/// reach rewards (see the module docs).
pub fn check_interval_mdp(
    model: &IntervalMdp,
    formula: &StateFormula,
    opts: &CheckOptions,
) -> Result<RobustCheckResult, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    let result = check_any(&AnyInterval::Mdp(model), formula, &run)?;
    Ok(result.with_diagnostics(run.finish()))
}

pub(crate) fn check_dtmc_run(
    model: &IntervalDtmc,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<RobustCheckResult, CheckError> {
    check_any(&AnyInterval::Dtmc(model), formula, run)
}

pub(crate) fn check_mdp_run(
    model: &IntervalMdp,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<RobustCheckResult, CheckError> {
    check_any(&AnyInterval::Mdp(model), formula, run)
}

pub(crate) fn query_dtmc_run(
    model: &IntervalDtmc,
    query: &Query,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    query_any(&AnyInterval::Dtmc(model), query, run)
}

pub(crate) fn query_mdp_run(
    model: &IntervalMdp,
    query: &Query,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    query_any(&AnyInterval::Mdp(model), query, run)
}

/// The robust bracket of a numeric query on an interval DTMC.
///
/// # Errors
///
/// Same conditions as [`check_interval_dtmc`].
pub fn query_interval_dtmc(
    model: &IntervalDtmc,
    query: &Query,
    opts: &CheckOptions,
) -> Result<RobustBracket, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    query_any(&AnyInterval::Dtmc(model), query, &run)
}

/// The robust bracket of a numeric query on an interval MDP.
///
/// # Errors
///
/// Same conditions as [`check_interval_mdp`].
pub fn query_interval_mdp(
    model: &IntervalMdp,
    query: &Query,
    opts: &CheckOptions,
) -> Result<RobustBracket, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    query_any(&AnyInterval::Mdp(model), query, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_logic::parse_formula;
    use tml_models::interval::IntervalDtmcBuilder;
    use tml_models::{Dtmc, DtmcBuilder};

    fn gambler() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.3).unwrap();
        b.transition(0, 2, 0.7).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.label(1, "rich").unwrap();
        b.state_reward("steps", 0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn degenerate_bracket_collapses_to_scalar_value() {
        let d = gambler();
        let m = IntervalDtmc::degenerate(&d);
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let r = check_interval_dtmc(&m, &phi, &CheckOptions::default()).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((lo - 0.3).abs() < 1e-10 && (hi - 0.3).abs() < 1e-10);
        assert!(r.holds());
    }

    #[test]
    fn widening_widens_the_bracket_and_flips_the_verdict() {
        let d = gambler();
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let narrow = IntervalDtmc::from_dtmc(&d, 0.01);
        let wide = IntervalDtmc::from_dtmc(&d, 0.2);
        let rn = check_interval_dtmc(&narrow, &phi, &CheckOptions::default()).unwrap();
        let rw = check_interval_dtmc(&wide, &phi, &CheckOptions::default()).unwrap();
        let (nlo, nhi) = rn.bracket_at_initial().unwrap();
        let (wlo, whi) = rw.bracket_at_initial().unwrap();
        assert!(wlo <= nlo && whi >= nhi, "wider set, wider bracket");
        assert!(rn.holds(), "±0.01 keeps the bound");
        // ±0.2 admits a member with P(F rich) = 0.1 < 0.25.
        assert!(!rw.holds(), "±0.2 breaks the bound robustly");
        // Both brackets contain the nominal value 0.3.
        assert!(rn.bracket().unwrap().contains(&[0.3, 1.0, 0.0], 1e-9));
        assert!(rw.bracket().unwrap().contains(&[0.3, 1.0, 0.0], 1e-9));
    }

    #[test]
    fn rewards_bracket_and_go_infinite() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.05);
        // Expected steps until absorption: exactly one step from state 0.
        let phi = parse_formula("R{\"steps\"}<=1.5 [ F \"rich\" ]").unwrap();
        let r = check_interval_dtmc(&m, &phi, &CheckOptions::default()).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        // "rich" is not reached a.s. (the loser loop absorbs), so the
        // reward is infinite on every side.
        assert!(lo.is_infinite() && hi.is_infinite());
        assert!(!r.holds());

        // Against the full absorption target the reward is exactly 1.
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 1, 1.0).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.label(1, "done").unwrap();
        b.state_reward("steps", 0, 1.0).unwrap();
        let line = b.build().unwrap();
        let m = IntervalDtmc::degenerate(&line);
        let phi = parse_formula("R{\"steps\"}<=1.0 [ F \"done\" ]").unwrap();
        let r = check_interval_dtmc(&m, &phi, &CheckOptions::default()).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((lo - 1.0).abs() < 1e-9 && (hi - 1.0).abs() < 1e-9);
        assert!(r.holds());
    }

    #[test]
    fn validation_rejects_degenerate_sets() {
        let mut b = IntervalDtmcBuilder::unchecked(2);
        b.transition(0, 1, 0.9, 0.1).unwrap();
        b.transition(1, 1, 1.0, 1.0).unwrap();
        let inverted = b.build().unwrap();
        let phi = parse_formula("P>=0.5 [ F \"x\" ]").unwrap();
        let err = check_interval_dtmc(&inverted, &phi, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, CheckError::InvalidInterval { state: 0, .. }), "{err}");

        let mut b = IntervalDtmcBuilder::unchecked(1);
        b.transition(0, 0, f64::NAN, 1.0).unwrap();
        let nan = b.build().unwrap();
        let err = check_interval_dtmc(&nan, &phi, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, CheckError::InvalidInterval { .. }), "{err}");
        assert!(err.to_string().contains("state 0"), "{err}");
    }

    #[test]
    fn nested_probabilistic_operators_rejected() {
        let d = gambler();
        let m = IntervalDtmc::degenerate(&d);
        let nested = parse_formula("P>=0.5 [ F P>=0.5 [ F \"rich\" ] ]").unwrap();
        let err = check_interval_dtmc(&m, &nested, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, CheckError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn breaker_open_degrades_to_nominal_under_auto() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.1);
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let opts = CheckOptions { robust_vi_enabled: false, ..CheckOptions::default() };
        let r = check_interval_dtmc(&m, &phi, &opts).unwrap();
        // Collapsed bracket at the nominal value; the fallback is recorded.
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((lo - hi).abs() < 1e-12);
        assert!((lo - 0.3).abs() < 1e-9);
        assert!(r.diagnostics().fallbacks.iter().any(|f| f.contains("breaker")));
        // A pinned (non-Auto) solver ignores the breaker flag.
        let pinned = CheckOptions {
            robust_vi_enabled: false,
            solver: LinearSolver::GaussSeidel,
            ..CheckOptions::default()
        };
        let r = check_interval_dtmc(&m, &phi, &pinned).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!(hi - lo > 0.01, "real bracket, not collapsed");
    }

    #[test]
    fn interval_mdp_brackets_over_schedulers_and_members() {
        let mut b = tml_models::interval::IntervalMdpBuilder::new(3);
        b.choice(0, "safe", &[(1, 0.55, 0.65), (2, 0.35, 0.45)]).unwrap();
        b.choice(0, "risky", &[(1, 0.2, 0.9), (2, 0.1, 0.8)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0, 1.0)]).unwrap();
        b.label(1, "goal").unwrap();
        let m = b.build().unwrap();
        let q = tml_logic::parse_query("P=? [ F \"goal\" ]").unwrap();
        let bracket = query_interval_mdp(&m, &q, &CheckOptions::default()).unwrap();
        let (lo, hi) = bracket.at(0);
        // Worst scheduler+member: risky with p(goal)=0.2; best: risky with 0.9.
        assert!((lo - 0.2).abs() < 1e-9, "pessimistic {lo}");
        assert!((hi - 0.9).abs() < 1e-9, "optimistic {hi}");
        // Reach rewards are unsupported on interval MDPs.
        let phi = parse_formula("R<=1.0 [ F \"goal\" ]").unwrap();
        let err = check_interval_mdp(&m, &phi, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, CheckError::Unsupported { .. }));
    }

    #[test]
    fn budget_exhaustion_is_reported_not_hung() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.1);
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let budget = Budget::unlimited().with_max_evaluations(1);
        let opts = CheckOptions::default();
        let run = CheckRun::new(&opts, &budget);
        let r = check_dtmc_run(&m, &phi, &run).unwrap();
        let diag = run.finish();
        assert!(diag.exhausted.is_some());
        // Best-effort values are still in range.
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn bounded_and_next_and_globally() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.1);
        let o = CheckOptions::default();
        let q = tml_logic::parse_query("P=? [ X \"rich\" ]").unwrap();
        let b = query_interval_dtmc(&m, &q, &o).unwrap();
        let (lo, hi) = b.at(0);
        assert!((lo - 0.2).abs() < 1e-9 && (hi - 0.4).abs() < 1e-9);

        let q = tml_logic::parse_query("P=? [ F<=1 \"rich\" ]").unwrap();
        let b2 = query_interval_dtmc(&m, &q, &o).unwrap();
        assert_eq!(b2.at(0), (lo, hi), "one-step eventually equals next here");

        let q = tml_logic::parse_query("P=? [ G !\"rich\" ]").unwrap();
        let g = query_interval_dtmc(&m, &q, &o).unwrap();
        let (glo, ghi) = g.at(0);
        // P(G ¬rich) = 1 − P(F rich): bracket [1−0.4, 1−0.2].
        assert!((glo - 0.6).abs() < 1e-9 && (ghi - 0.8).abs() < 1e-9);
    }

    /// A trivial chain (0 → 1), a singleton with a self-loop (2), a
    /// 3-state ring (3 → 4 → 5 → 3) and two absorbing sinks, goal (6) and
    /// zero (7), whose robust extremes are derived by hand below.
    fn three_shapes() -> IntervalDtmc {
        let mut b = IntervalDtmcBuilder::new(8);
        b.transition(0, 1, 1.0, 1.0).unwrap();
        b.transition(1, 2, 0.5, 0.7).unwrap();
        b.transition(1, 6, 0.3, 0.5).unwrap();
        b.transition(2, 2, 0.2, 0.6).unwrap();
        b.transition(2, 3, 0.2, 0.6).unwrap();
        b.transition(2, 7, 0.1, 0.3).unwrap();
        b.transition(3, 4, 1.0, 1.0).unwrap();
        b.transition(4, 5, 1.0, 1.0).unwrap();
        b.transition(5, 3, 0.4, 0.6).unwrap();
        b.transition(5, 6, 0.2, 0.4).unwrap();
        b.transition(5, 7, 0.1, 0.3).unwrap();
        b.transition(6, 6, 1.0, 1.0).unwrap();
        b.transition(7, 7, 1.0, 1.0).unwrap();
        b.label(6, "goal").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn topological_solve_pins_hand_derived_extremes() {
        let m = three_shapes();
        let frozen: Vec<bool> = (0..8).map(|s| s == 6).collect();
        let topo = Topology::new(&m, &frozen);
        // Sinks first: the zero sink and the ring, then 2, 1, 0; the
        // frozen goal is no block.
        assert_eq!(topo.blocks.len(), 5, "{:?}", topo.blocks);
        let pos = |b: &[usize]| topo.blocks.iter().position(|x| x == b).unwrap();
        assert!(pos(&[3, 4, 5]) < pos(&[2]) && pos(&[2]) < pos(&[1]) && pos(&[1]) < pos(&[0]));
        assert!(pos(&[7]) < pos(&[2]));
        assert!(topo.self_loop[2] && topo.self_loop[7]);
        assert_eq!(topo.chain, 3, "zero sink, ring, then the self-looped state 2");
        assert!(!topo.self_loop[0] && !topo.self_loop[1] && !topo.self_loop[5]);

        let opts = CheckOptions { tolerance: 1e-14, ..CheckOptions::default() };
        let q = tml_logic::parse_query("P=? [ F \"goal\" ]").unwrap();
        let b = query_interval_dtmc(&m, &q, &opts).unwrap();
        // Ring, pessimistic: the spare 0.3 goes to zero (cap 0.2), then
        // back into the ring: v = 0.5·v + 0.2, v = 0.4. Optimistic: goal
        // (cap 0.2), then the ring: v = 0.5·v + 0.4, v = 0.8.
        // State 2, pessimistic: zero (0.2), then the self-loop (0.3):
        // x = 0.5·x + 0.2·0.4, x = 0.16. Optimistic: the ring (0.4), then
        // the self-loop (0.1): x = 0.3·x + 0.6·0.8, x = 24/35.
        // State 1 (and 0): the spare 0.2 goes to state 2 when minimizing,
        // to the goal when maximizing.
        let pess = [0.412, 0.412, 0.16, 0.4, 0.4, 0.4, 1.0, 0.0];
        let opt = [59.0 / 70.0, 59.0 / 70.0, 24.0 / 35.0, 0.8, 0.8, 0.8, 1.0, 0.0];
        for s in 0..8 {
            let (lo, hi) = b.at(s);
            assert!((lo - pess[s]).abs() < 1e-12, "state {s}: pessimistic {lo} vs {}", pess[s]);
            assert!((hi - opt[s]).abs() < 1e-12, "state {s}: optimistic {hi} vs {}", opt[s]);
        }
    }

    #[test]
    fn block_errors_do_not_add_up_along_a_deep_chain() {
        // 20 layers of 2-state rings, each leaking to the next: every member
        // reaches the goal almost surely, so both bracket ends are exactly 1.
        // Each ring stops with a small error that every ring upstream
        // inherits; the per-block tolerance keeps the sum within the
        // tolerance.
        let layers = 20;
        let goal = 2 * layers;
        let mut b = IntervalDtmcBuilder::new(goal + 1);
        for l in 0..layers {
            let next = if l + 1 == layers { goal } else { 2 * (l + 1) };
            for i in 0..2 {
                b.transition(2 * l + i, 2 * l + 1 - i, 0.85, 0.95).unwrap();
                b.transition(2 * l + i, next, 0.05, 0.15).unwrap();
            }
        }
        b.transition(goal, goal, 1.0, 1.0).unwrap();
        b.label(goal, "goal").unwrap();
        let m = b.build().unwrap();
        let opts = CheckOptions::default();
        let q = tml_logic::parse_query("P=? [ F \"goal\" ]").unwrap();
        let (lo, hi) = query_interval_dtmc(&m, &q, &opts).unwrap().at(0);
        assert!(1.0 - lo <= opts.tolerance && 1.0 - hi <= opts.tolerance, "[{lo}, {hi}]");
    }

    #[test]
    fn slow_self_loop_is_not_stopped_by_its_small_steps() {
        // A self-loop of 0.9999 moves the value by only 5e-5·0.9999^k per
        // sweep: a plain step rule stops 1e-6 short of the true 1/2 and
        // then wrongly certifies `P<=0.4999995` for the only member.
        let mut b = IntervalDtmcBuilder::new(3);
        b.transition(0, 0, 0.9999, 0.9999).unwrap();
        b.transition(0, 1, 0.00005, 0.00005).unwrap();
        b.transition(0, 2, 0.00005, 0.00005).unwrap();
        b.transition(1, 1, 1.0, 1.0).unwrap();
        b.transition(2, 2, 1.0, 1.0).unwrap();
        b.label(1, "goal").unwrap();
        let m = b.build().unwrap();
        let phi = parse_formula("P<=0.4999995 [ F \"goal\" ]").unwrap();
        let r = check_interval_dtmc(&m, &phi, &CheckOptions::default()).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((lo - 0.5).abs() < 1e-9 && (hi - 0.5).abs() < 1e-9, "[{lo}, {hi}]");
        assert!(!r.holds());
    }

    #[test]
    fn multi_block_budget_exhaustion_is_reported_in_range() {
        let m = three_shapes();
        let phi = parse_formula("P>=0.3 [ F \"goal\" ]").unwrap();
        let opts = CheckOptions::default();
        for k in [1, 2, 5, 10] {
            let budget = Budget::unlimited().with_max_evaluations(k);
            let run = CheckRun::new(&opts, &budget);
            let r = check_dtmc_run(&m, &phi, &run).unwrap();
            let diag = run.finish();
            assert!(diag.exhausted.is_some(), "cap {k} must run out");
            let b = r.bracket().unwrap();
            for v in b.pessimistic.iter().chain(&b.optimistic) {
                assert!((0.0..=1.0).contains(v), "cap {k}: best-effort value {v} out of range");
            }
        }
    }

    #[test]
    fn inner_assignment_is_order_independent() {
        let values = [0.9, 0.1, 0.5];
        let row_a = vec![(0, 0.1, 0.5), (1, 0.2, 0.6), (2, 0.1, 0.4)];
        let mut row_b = row_a.clone();
        row_b.reverse();
        for maximize in [false, true] {
            let a = inner_expectation(&row_a, &values, maximize, &mut Vec::new());
            let b = inner_expectation(&row_b, &values, maximize, &mut Vec::new());
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise determinism");
        }
        // Hand-checked pessimistic assignment: mass 1−0.4=0.6 distributed
        // to v=0.1 first (cap 0.4), then v=0.5 (cap 0.2 of 0.3):
        // 0.1*0.9(lo) + 0.2*0.1(lo) + 0.1*0.5(lo) + 0.4*0.1 + 0.2*0.5.
        let pess = inner_expectation(&row_a, &values, false, &mut Vec::new());
        assert!((pess - (0.09 + 0.02 + 0.05 + 0.04 + 0.1)).abs() < 1e-12, "{pess}");
    }
}
