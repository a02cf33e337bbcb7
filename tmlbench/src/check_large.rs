//! `check_large`: from a model file to a verdict on large point DTMCs,
//! the way `tml check` does it (read, parse + build, check).
//!
//! Inputs: a ~1M-state layered-SCC chain (64 layers of 4-state rings)
//! asked an R-bound and a constrained-reachability P-bound, and a
//! ~50k-state grid (one giant SCC) asked an R-bound. The grid is half the
//! ~100k first planned: at 100k its two solves alone took 7 s of a 14 s
//! pass, too long for ten runs per workload to stay practical.
//!
//! References come from solvers that share no code with the checker:
//! backward block substitution for the layered chain, a certified
//! two-sided bracket for the grid (see `refsolve`).

use std::path::PathBuf;

use tml_checker::Checker;
use tml_conformance::gen::{self, GOAL_LABEL};
use tml_logic::{parse_formula, StateFormula};
use tml_models::dsl::{dtmc_to_dsl, parse_model, ModelFile};
use tml_models::{graph, Dtmc};
use tml_numerics::scc;

use crate::common::{corrupt, delta, time_in, Layers, RunConfig, Size, Tally};
use crate::refsolve::{block_triangular, reward_bracket, Quantity};
use crate::workload::{Job, PassWorkload};

/// Every 97th state (offset 13) is left out of `"ok"` so Prob1 cannot
/// collapse the system.
pub fn ok_mask(n: usize, target: &[bool]) -> Vec<bool> {
    (0..n).map(|s| target[s] || s % 97 != 13).collect()
}

/// A model file and the verdicts expected of it.
pub struct FileCase {
    pub name: &'static str,
    pub path: PathBuf,
    /// `(formula, expected verdict at the initial state)`.
    pub asks: Vec<(StateFormula, bool)>,
}

pub struct CheckLarge {
    files: Vec<FileCase>,
}

/// Appends `label "ok"` (every state but the blocked ones) to a DSL text.
pub fn with_ok_label(mut text: String, model: &Dtmc) -> String {
    let target = model.labeling().mask(GOAL_LABEL);
    let ok: Vec<String> = ok_mask(model.num_states(), &target)
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(s, _)| s.to_string())
        .collect();
    text.push_str(&format!("label \"ok\" = {}\n", ok.join(", ")));
    text
}

/// `R{"cost"}<=ref±δ` and `P>=ref∓δ` pairs: one threshold just above the
/// reference, one just below, so a wrong value flips exactly one verdict.
pub fn reward_pair(reference: f64) -> Vec<(StateFormula, bool)> {
    let d = delta(reference);
    vec![
        (formula(&format!("R{{\"cost\"}}<={} [ F \"goal\" ]", reference + d)), true),
        (formula(&format!("R{{\"cost\"}}<={} [ F \"goal\" ]", reference - d)), false),
    ]
}

pub fn until_pair(reference: f64) -> Vec<(StateFormula, bool)> {
    let d = delta(reference);
    vec![
        (formula(&format!("P>={} [ \"ok\" U \"goal\" ]", reference - d)), true),
        (formula(&format!("P>={} [ \"ok\" U \"goal\" ]", reference + d)), false),
    ]
}

pub fn formula(text: &str) -> StateFormula {
    parse_formula(text).unwrap_or_else(|e| panic!("benchmark formula {text:?}: {e}"))
}

/// Exact values of the layered chain at its initial state:
/// `(R[F goal], P(ok U goal))`.
pub fn layered_references(model: &Dtmc, block: usize) -> Result<(f64, f64), String> {
    let target = model.labeling().mask(GOAL_LABEL);
    let cost = model.reward_structure("cost").map_err(|e| e.to_string())?;
    let rewards: Vec<f64> = (0..model.num_states()).map(|s| cost.state_reward(s)).collect();
    let r = block_triangular(model, block, &target, Quantity::Reward { rewards: &rewards })?;
    let phi = ok_mask(model.num_states(), &target);
    let p = block_triangular(model, block, &target, Quantity::Until { phi: &phi })?;
    let s0 = model.initial_state();
    Ok((r[s0], p[s0]))
}

impl CheckLarge {
    pub fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let (comps, side) = match cfg.size {
            Size::Full => (3906, 224),
            Size::Tiny => (4, 24),
        };
        let seed = cfg.seed;
        let t = std::time::Instant::now();
        let layered = gen::layered_scc_dtmc(seed, 64, comps, 4);
        let (r_ref, p_ref) = layered_references(&layered, 4)?;
        eprintln!("setup: layered generated and solved in {:.0} ms", crate::common::ms_since(t));
        let layered_path = cfg.work.join("check_large_layered.tml");
        let text = with_ok_label(dtmc_to_dsl(&layered), &layered);
        std::fs::write(&layered_path, text).map_err(|e| e.to_string())?;
        drop(layered);
        let mut asks = reward_pair(corrupt(r_ref, cfg.corrupt_references));
        asks.extend(until_pair(corrupt(p_ref, cfg.corrupt_references)));
        let mut files = vec![FileCase { name: "layered", path: layered_path, asks }];

        let t = std::time::Instant::now();
        let grid = gen::grid_dtmc(seed, side);
        let grid_ref = grid_reward_reference(&grid)?;
        eprintln!(
            "setup: grid generated and solved in {:.0} ms ({grid_ref})",
            crate::common::ms_since(t)
        );
        let grid_path = cfg.work.join("check_large_grid.tml");
        std::fs::write(&grid_path, dtmc_to_dsl(&grid)).map_err(|e| e.to_string())?;
        files.push(FileCase {
            name: "grid",
            path: grid_path,
            asks: reward_pair(corrupt(grid_ref, cfg.corrupt_references)),
        });
        Ok(CheckLarge { files })
    }
}

/// `R[F goal]` at the initial state: the midpoint of a certified
/// bracket from [`reward_bracket`], which must be narrower than a tenth
/// of the verdict offset.
fn grid_reward_reference(model: &Dtmc) -> Result<f64, String> {
    let target = model.labeling().mask(GOAL_LABEL);
    let cost = model.reward_structure("cost").map_err(|e| e.to_string())?;
    let rewards: Vec<f64> = (0..model.num_states()).map(|s| cost.state_reward(s)).collect();
    let (lo, hi) = reward_bracket(model, &target, &rewards)?;
    let mid = 0.5 * (lo + hi);
    if hi - lo >= delta(mid) / 10.0 {
        return Err(format!("grid reference bracket [{lo}, {hi}] is too wide"));
    }
    Ok(mid)
}

/// Loads one file and asks its verdicts, as `tml check` does per call.
/// With `layers`, each call into a layer is timed, and Prob0/Prob1 and
/// the condensation are also called on the systems the checker builds
/// internally, to time those layers alone.
fn check_file(case: &FileCase, tally: &mut Tally, mut layers: Option<&mut Layers>) {
    let source = match std::fs::read_to_string(&case.path) {
        Ok(s) => s,
        Err(e) => return tally.error(format!("{}: {e}", case.name)),
    };
    let parsed = time_in(&mut layers, "models.dsl.parse_ms", || parse_model(&source));
    let model = match parsed {
        Ok(ModelFile::Dtmc(m)) => m,
        Ok(other) => return tally.error(format!("{}: parsed as {}", case.name, other.kind())),
        Err(e) => return tally.error(format!("{}: {e}", case.name)),
    };
    drop(source);
    if let Some(l) = layers.as_deref_mut() {
        time_graph_layers(&model, l);
    }
    let checker = Checker::new();
    for (phi, expected) in &case.asks {
        match time_in(&mut layers, "checker.dtmc_ms", || checker.check_dtmc(&model, phi)) {
            Ok(r) => {
                if let Some(l) = layers.as_deref_mut() {
                    l.add("checker.iterations", r.diagnostics().evaluations as f64);
                    l.add("checker.fallbacks", r.diagnostics().fallbacks.len() as f64);
                }
                tally.expect(r.holds() == *expected, || {
                    format!(
                        "{}: {phi} gave {} (value {:?})",
                        case.name,
                        r.holds(),
                        r.value_at_initial()
                    )
                })
            }
            Err(e) => tally.error(format!("{}: {phi}: {e}", case.name)),
        }
    }
}

/// Times Prob0/Prob1 and the condensation on the systems the checker
/// solves: for `R[F goal]` the states that reach the goal almost surely,
/// minus the goal; for `P[ok U goal]` the states whose probability is
/// strictly between 0 and 1.
fn time_graph_layers(model: &Dtmc, layers: &mut Layers) {
    let n = model.num_states();
    let target = model.labeling().mask(GOAL_LABEL);
    let mut systems = vec![(vec![true; n], true)];
    if model.labeling().labels().any(|l| l == "ok") {
        systems.push((model.labeling().mask("ok"), false));
    }
    for (phi, reward) in &systems {
        let (no, yes) =
            layers.time("models.graph.prob01_ms", || graph::prob01(model, phi, &target));
        let maybe: Vec<bool> = (0..n)
            .map(|s| if *reward { yes[s] && !target[s] } else { !no[s] && !yes[s] })
            .collect();
        let adj = maybe_adjacency(model, &maybe);
        let cond = layers.time("numerics.scc.condense_ms", || {
            scc::condensation_from(n, |v| &adj.1[adj.0[v]..adj.0[v + 1]])
        });
        let trivial_outside = maybe.iter().filter(|&&m| !m).count();
        layers.add("numerics.scc.components", (cond.num_components() - trivial_outside) as f64);
        layers.max("numerics.scc.largest", cond.largest() as f64);
    }
}

/// CSR adjacency of the maybe-state subgraph (states outside it have no
/// successors, so they condense into trivial components).
fn maybe_adjacency(model: &Dtmc, maybe: &[bool]) -> (Vec<usize>, Vec<usize>) {
    let n = model.num_states();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(model.num_transitions());
    offsets.push(0);
    for s in 0..n {
        if maybe[s] {
            targets.extend(model.successors(s).filter(|&(t, _)| maybe[t]).map(|(t, _)| t));
        }
        offsets.push(targets.len());
    }
    (offsets, targets)
}

impl PassWorkload for CheckLarge {
    fn jobs(&self) -> usize {
        self.files.len()
    }

    /// A pass takes 10–12 s on a 2-thread machine: two of them already
    /// span second-scale noise, and a third would add a third to every
    /// run of the workload.
    fn min_passes(&self) -> usize {
        2
    }

    fn run_job(&mut self, job: usize, layers: Option<&mut Layers>) -> Job {
        let mut tally = Tally::default();
        check_file(&self.files[job], &mut tally, layers);
        Job { tally, cost: 0.0 }
    }
}
