//! `check_uncertain`: robust and MDP verdicts on mid-size models, each
//! loaded from its model file.
//!
//! Inputs:
//! 1. an `idtmc` file holding the 95% Wilson ball (sample size 500)
//!    around a ~10k-state layered-SCC chain, asked an R and a P bound;
//! 2. an MDP of slow-mixing stages (self-loops of 1−10⁻ᵏ, k = 3..6) and
//!    end components, asked Pmax, Pmin and Rmax bounds;
//! 3. the ROADMAP Baseline's defect models: the 4-state wait/quit MDP at
//!    0.9999 and at 0.999999, and its degenerate-interval `idtmc`.
//!
//! References: the exact robust extremum of the ball (backward block
//! substitution with the adversary's distributions solved per block)
//! for the robust verdicts and the judged end of each bracket, the exact
//! value of the ball's nominal member for bracket containment, closed
//! forms for the MDP and the defect models.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tml_checker::Checker;
use tml_conformance::gen::{self, GOAL_LABEL};
use tml_logic::StateFormula;
use tml_models::dsl::{interval_dtmc_to_dsl, mdp_to_dsl, parse_model, ModelFile};
use tml_models::{IntervalDtmc, MdpBuilder};

use crate::check_large::{formula, ok_mask, with_ok_label};
use crate::common::{corrupt, delta, time_in, Layers, RunConfig, Size, Tally};
use crate::refsolve::{block_triangular, robust_block_triangular, Quantity};
use crate::workload::{Job, PassWorkload};

/// Brackets may come out inverted by rounding at this commit (a known
/// defect); an inversion wider than this is an ordinary failure.
const ROUNDING_INVERSION: f64 = 1e-9;

/// How one ask is judged.
#[derive(Debug, Clone)]
enum Expect {
    /// The verdict at the initial state.
    Verdict(bool),
    /// A robust verdict, plus a bracket that must contain the nominal
    /// member's exact value in every state, be ordered (`lo ≤ hi`), and
    /// have its judged end at the initial state within δ of `end`.
    Robust { verdict: bool, nominal: Vec<f64>, end: End },
}

/// The reference for the end of a robust bracket a verdict is judged on:
/// the minimum over the set for a lower bound (`P>=`), the maximum for an
/// upper bound (`R<=`, `P<=`).
#[derive(Debug, Clone, Copy)]
struct End {
    maximum: bool,
    value: f64,
}

struct Case {
    name: &'static str,
    path: PathBuf,
    asks: Vec<(StateFormula, Expect)>,
    /// Whether the case is one of the known-defect models (the unsound
    /// stop rule of the MDP and robust loops, ROADMAP Baseline).
    known_defect: bool,
}

pub struct CheckUncertain {
    cases: Vec<Case>,
}

impl CheckUncertain {
    pub fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let bad = cfg.corrupt_references;
        let comps = match cfg.size {
            Size::Full => 39,
            Size::Tiny => 1,
        };
        let mut cases = Vec::new();

        // 1. The Wilson ball around a layered chain.
        let chain = gen::layered_scc_dtmc(cfg.seed, 64, comps, 4);
        let target = chain.labeling().mask(GOAL_LABEL);
        let cost = chain.reward_structure("cost").map_err(|e| e.to_string())?;
        let rewards: Vec<f64> = (0..chain.num_states()).map(|s| cost.state_reward(s)).collect();
        let r_nom = block_triangular(&chain, 4, &target, Quantity::Reward { rewards: &rewards })?;
        let phi = ok_mask(chain.num_states(), &target);
        let p_nom = block_triangular(&chain, 4, &target, Quantity::Until { phi: &phi })?;
        let ball = IntervalDtmc::wilson_around(&chain, 0.95, 500.0).map_err(|e| e.to_string())?;
        let r_max = robust_block_triangular(
            &ball,
            4,
            &target,
            Quantity::Reward { rewards: &rewards },
            true,
        )?;
        let p_min =
            robust_block_triangular(&ball, 4, &target, Quantity::Until { phi: &phi }, false)?;
        let path = cfg.work.join("check_uncertain_ball.tml");
        write(&path, with_ok_label(interval_dtmc_to_dsl(&ball), &chain))?;
        let s0 = chain.initial_state();
        let r_nom: Vec<f64> = r_nom.iter().map(|&v| corrupt(v, bad)).collect();
        let p_nom: Vec<f64> = p_nom.iter().map(|&v| corrupt(v, bad)).collect();
        // `R<=` holds robustly iff the maximum over the ball is below the
        // bound, `P>=` iff the minimum is above it: pairs at the exact
        // extremum ± δ, one of which must hold robustly.
        let r_end = End { maximum: true, value: corrupt(r_max[s0], bad) };
        let p_end = End { maximum: false, value: corrupt(p_min[s0], bad) };
        let mut asks = Vec::new();
        for (offset, holds) in [(1.0, true), (-1.0, false)] {
            let r = r_end.value + offset * delta(r_end.value);
            asks.push((
                formula(&format!("R{{\"cost\"}}<={r} [ F \"goal\" ]")),
                Expect::Robust { verdict: holds, nominal: r_nom.clone(), end: r_end },
            ));
            let p = p_end.value - offset * delta(p_end.value);
            asks.push((
                formula(&format!("P>={p} [ \"ok\" U \"goal\" ]")),
                Expect::Robust { verdict: holds, nominal: p_nom.clone(), end: p_end },
            ));
        }
        cases.push(Case { name: "wilson_ball", path, asks, known_defect: false });

        // 2. Slow-mixing stages with end components.
        let (chains, stages) = match cfg.size {
            Size::Full => (2, 4),
            Size::Tiny => (2, 1),
        };
        let (mdp_text, refs) = slow_mdp(cfg.seed, chains, stages);
        let path = cfg.work.join("check_uncertain_slow.tml");
        write(&path, mdp_text)?;
        let mut asks = Vec::new();
        for (op, target, value) in [
            ("Pmax", "goal", refs.pmax),
            ("Pmin", "goal", refs.pmin),
            ("R{\"cost\"}max", "done", refs.rmax),
        ] {
            let v = corrupt(value, bad);
            let d = delta(v);
            let (cmp, below, above) =
                if op.starts_with('P') { (">=", true, false) } else { ("<=", false, true) };
            asks.push((
                formula(&format!("{op}{cmp}{} [ F \"{target}\" ]", v - d)),
                Expect::Verdict(below),
            ));
            asks.push((
                formula(&format!("{op}{cmp}{} [ F \"{target}\" ]", v + d)),
                Expect::Verdict(above),
            ));
        }
        cases.push(Case { name: "slow_mdp", path, asks, known_defect: true });

        // 3. The Baseline defect models; every one has the value 1/2.
        let half = corrupt(0.5, bad);
        let d = delta(half);
        for (name, stay) in [("wait_quit_1e-4", "0.9999"), ("wait_quit_1e-6", "0.999999")] {
            let path = cfg.work.join(format!("check_uncertain_{name}.tml"));
            write(&path, wait_quit(stay, false))?;
            let asks = vec![
                (formula(&format!("Pmax>={} [ F \"goal\" ]", half - d)), Expect::Verdict(true)),
                (formula(&format!("Pmax>={} [ F \"goal\" ]", half + d)), Expect::Verdict(false)),
            ];
            cases.push(Case { name, path, asks, known_defect: true });
        }
        let path = cfg.work.join("check_uncertain_degenerate.tml");
        write(&path, wait_quit("0.9999", true))?;
        // Every interval is a point, so both ends of each bracket are 1/2.
        let nominal = vec![half, 0.0, 1.0, 0.0];
        let mut asks = Vec::new();
        for (cmp, maximum) in [(">=", false), ("<=", true)] {
            let end = End { maximum, value: half };
            for (bound, holds) in [(half - d, !maximum), (half + d, maximum)] {
                asks.push((
                    formula(&format!("P{cmp}{bound} [ F \"goal\" ]")),
                    Expect::Robust { verdict: holds, nominal: nominal.clone(), end },
                ));
            }
        }
        cases.push(Case { name: "degenerate_idtmc", path, asks, known_defect: true });
        Ok(CheckUncertain { cases })
    }
}

fn write(path: &PathBuf, text: String) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The Baseline wait/quit model: waiting leaks to the goal and to a sink
/// in equal halves, quitting goes to the sink. `Pmax[F goal] = 1/2`.
fn wait_quit(stay: &str, interval: bool) -> String {
    let p: f64 = stay.parse().expect("numeric stay probability");
    let leak = format!("{}", (1.0 - p) / 2.0);
    if interval {
        format!(
            "idtmc\nstates 4\ninitial 0\nlabel \"goal\" = 2\n\
             0 -> 0: {stay}..{stay}, 2: {leak}..{leak}, 3: {leak}..{leak}\n\
             1 -> 1: 1..1\n2 -> 2: 1..1\n3 -> 3: 1..1\n"
        )
    } else {
        format!(
            "mdp\nstates 4\ninitial 0\nlabel \"goal\" = 2\n\
             0 [wait] -> 0: {stay}, 2: {leak}, 3: {leak}\n0 [quit] -> 3: 1.0\n\
             1 [stay] -> 1: 1.0\n2 [stay] -> 2: 1.0\n3 [stay] -> 3: 1.0\n"
        )
    }
}

/// Closed-form values of [`slow_mdp`] at its initial state.
#[derive(Debug, Clone, Copy)]
pub struct SlowRefs {
    pub pmax: f64,
    pub pmin: f64,
    pub rmax: f64,
}

/// An MDP of `chains` stage chains entered uniformly from state 0. Stage
/// `i` offers `wait` (self-loop 1−ε, ε = 10^-(3 + i mod 4), leaving to the
/// next stage with probability `a`, else failing) and `go` (next stage
/// with probability `b`, else failing), with `a ∈ [0.85, 0.95)` above
/// `b ∈ [0.65, 0.75)`: the slow action maximizes in every stage, and
/// `b/a > 1 − 1/e` keeps value iteration from telling the two actions
/// apart within 10⁶ sweeps at ε = 10⁻⁶ for Pmin too, whatever the seed
/// (the seed moves the values, not the work).
/// Odd chains add an end component:
/// `idle` to a side state whose only action returns. With every state
/// rewarded 1 per step until `"done"` (goal, fail or a side state):
///
/// * `Pmax[F goal]` = mean over chains of ∏ max(a, b);
/// * `Pmin[F goal]` = mean over even chains of ∏ min(a, b) (an odd chain
///   can circle its end component forever);
/// * `Rmax[F done]` per stage = max(1/ε + a·R', 1 + b·R', 1 if idle).
pub fn slow_mdp(seed: u64, chains: usize, stages: usize) -> (String, SlowRefs) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5105_A11E);
    let per_chain = 2 * stages;
    let n = 1 + chains * per_chain + 2;
    let goal = n - 2;
    let fail = n - 1;
    let stage = |j: usize, i: usize| 1 + j * per_chain + i;
    let side = |j: usize, i: usize| 1 + j * per_chain + stages + i;
    let mut b = MdpBuilder::new(n);
    let entry: Vec<(usize, f64)> =
        (0..chains).map(|j| (stage(j, 0), 1.0 / chains as f64)).collect();
    b.choice(0, "start", &entry).expect("uniform entry");
    let (mut pmax, mut pmin, mut rmax) = (0.0, 0.0, 0.0);
    for j in 0..chains {
        let odd = j % 2 == 1;
        let ab: Vec<(f64, f64)> = (0..stages)
            .map(|_| (rng.random_range(0.85..0.95), rng.random_range(0.65..0.75)))
            .collect();
        let (mut vmax, mut vmin, mut vr) = (1.0, 1.0, 0.0);
        for i in (0..stages).rev() {
            let s = stage(j, i);
            let next = if i + 1 == stages { goal } else { stage(j, i + 1) };
            let eps = 10f64.powi(-(3 + (i % 4) as i32));
            let (a, bb) = ab[i];
            b.choice(s, "wait", &[(s, 1.0 - eps), (next, eps * a), (fail, eps * (1.0 - a))])
                .expect("wait row");
            b.choice(s, "go", &[(next, bb), (fail, 1.0 - bb)]).expect("go row");
            b.state_reward("cost", s, 1.0).expect("reward");
            let mut r = (1.0 / eps + a * vr).max(1.0 + bb * vr);
            if odd {
                b.choice(s, "idle", &[(side(j, i), 1.0)]).expect("idle row");
                b.choice(side(j, i), "back", &[(s, 1.0)]).expect("back row");
                b.label(side(j, i), "done").expect("label");
                r = r.max(1.0);
            } else {
                b.choice(side(j, i), "stay", &[(side(j, i), 1.0)]).expect("unreachable side");
            }
            vmax *= a.max(bb);
            vmin *= a.min(bb);
            vr = r;
        }
        pmax += vmax / chains as f64;
        if !odd {
            pmin += vmin / chains as f64;
        }
        rmax += vr / chains as f64;
    }
    for s in [goal, fail] {
        b.choice(s, "stay", &[(s, 1.0)]).expect("absorbing");
        b.label(s, "done").expect("label");
    }
    b.label(goal, GOAL_LABEL).expect("label");
    let mdp = b.build().expect("stochastic rows");
    (mdp_to_dsl(&mdp), SlowRefs { pmax, pmin, rmax })
}

impl CheckUncertain {
    fn run_case(case: &Case, tally: &mut Tally, mut layers: Option<&mut Layers>) {
        let record = |tally: &mut Tally, ok: bool, what: String| {
            if case.known_defect {
                tally.expect_known(ok, || what);
            } else {
                tally.expect(ok, || what);
            }
        };
        let source = match std::fs::read_to_string(&case.path) {
            Ok(s) => s,
            Err(e) => return tally.error(format!("{}: {e}", case.name)),
        };
        let parsed = time_in(&mut layers, "models.dsl.parse_ms", || parse_model(&source));
        let model = match parsed {
            Ok(m) => m,
            Err(e) => return tally.error(format!("{}: {e}", case.name)),
        };
        let checker = Checker::new();
        for (phi, expect) in &case.asks {
            let (result, layer) = match &model {
                ModelFile::Mdp(m) => (
                    time_in(&mut layers, "checker.mdp_ms", || checker.check_mdp(m, phi))
                        .map(|r| (r.holds(), None, r.diagnostics().clone())),
                    "mdp",
                ),
                ModelFile::IntervalDtmc(m) => (
                    time_in(&mut layers, "checker.robust_ms", || {
                        checker.check_interval_dtmc(m, phi)
                    })
                    .map(|r| {
                        let bracket = r.bracket().cloned().zip(r.bracket_at_initial());
                        (r.holds(), bracket, r.diagnostics().clone())
                    }),
                    "robust",
                ),
                other => {
                    tally.error(format!("{}: unexpected {} model", case.name, other.kind()));
                    continue;
                }
            };
            let (holds, bracket, diag) = match result {
                Ok(r) => r,
                Err(e) => {
                    let what = format!("{}: {phi}: {e}", case.name);
                    if case.known_defect {
                        tally.error_known(what);
                    } else {
                        tally.error(what);
                    }
                    continue;
                }
            };
            if let Some(l) = layers.as_deref_mut() {
                l.add("checker.iterations", diag.evaluations as f64);
                l.add("checker.fallbacks", diag.fallbacks.len() as f64);
            }
            match expect {
                Expect::Verdict(v) => record(
                    tally,
                    holds == *v,
                    format!("{}: {phi} ({layer}) gave {holds}", case.name),
                ),
                Expect::Robust { verdict, nominal, end } => {
                    record(tally, holds == *verdict, format!("{}: {phi} gave {holds}", case.name));
                    let Some((br, (lo, hi))) = bracket else {
                        record(tally, false, format!("{}: {phi}: no bracket", case.name));
                        continue;
                    };
                    let judged = if end.maximum { hi } else { lo };
                    record(
                        tally,
                        (judged - end.value).abs() <= delta(end.value),
                        format!(
                            "{}: {phi}: judged end {judged} is not within δ of {}",
                            case.name, end.value
                        ),
                    );
                    let escaped = (0..nominal.len()).find(|&s| {
                        let (lo, hi) = br.at(s);
                        let tol = 1e-9 * nominal[s].abs().max(1.0);
                        !(lo - tol <= nominal[s] && nominal[s] <= hi + tol)
                    });
                    record(
                        tally,
                        escaped.is_none(),
                        format!(
                            "{}: {phi}: nominal value escapes the bracket at state {:?}",
                            case.name, escaped
                        ),
                    );
                    // Ordered brackets: exact, in every state.
                    let worst = (0..nominal.len())
                        .map(|s| {
                            let (lo, hi) = br.at(s);
                            lo - hi
                        })
                        .fold(f64::NEG_INFINITY, f64::max);
                    let what = format!("{}: {phi}: bracket inverted by {worst:e}", case.name);
                    if worst > 0.0 && worst <= ROUNDING_INVERSION {
                        tally.expect_known(false, || what);
                    } else {
                        record(tally, worst <= 0.0, what);
                    }
                }
            }
        }
    }
}

impl PassWorkload for CheckUncertain {
    fn jobs(&self) -> usize {
        self.cases.len()
    }

    fn run_job(&mut self, job: usize, layers: Option<&mut Layers>) -> Job {
        let mut tally = Tally::default();
        Self::run_case(&self.cases[job], &mut tally, layers);
        Job { tally, cost: 0.0 }
    }
}
