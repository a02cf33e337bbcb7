//! Qualitative (graph-based) precomputations for probabilistic model
//! checking.
//!
//! Exact PCTL checking of unbounded until `φ U ψ` first classifies states
//! whose probability is exactly 0 or exactly 1, then solves a linear system
//! (DTMC) or runs value iteration (MDP) on the remaining "maybe" states.
//! These classifications depend only on the *graph* of the model, never on
//! the numeric probabilities — a fact the parametric engine also relies on.
//!
//! For MDPs there are four variants, depending on whether we quantify over
//! the best or worst scheduler:
//!
//! | set | meaning |
//! |---|---|
//! | [`prob0a`] | `Pmax(φ U ψ) = 0` (no scheduler can reach) |
//! | [`prob1e`] | `Pmax(φ U ψ) = 1` (some scheduler reaches almost surely) |
//! | [`prob0e`] | `Pmin(φ U ψ) = 0` (some scheduler avoids entirely) |
//! | [`prob1a`] | `Pmin(φ U ψ) = 1` (every scheduler reaches almost surely) |

use crate::{Dtmc, Mdp};

/// States from which `target` is reachable in `dtmc` through `phi`-states.
///
/// A state `s` belongs to the result iff there is a path `s = s₀ … sₖ` with
/// `sₖ ∈ target` and `sᵢ ∈ phi` for all `i < k`. Target states themselves
/// always qualify.
///
/// # Panics
///
/// Panics if the masks do not have one entry per state.
pub fn reach_through(dtmc: &Dtmc, phi: &[bool], target: &[bool]) -> Vec<bool> {
    let n = dtmc.num_states();
    assert_eq!(phi.len(), n, "phi mask length");
    assert_eq!(target.len(), n, "target mask length");
    let preds = FlatPreds::build(dtmc);
    preds.reach_through(phi, target)
}

/// Flat (CSR-style) predecessor adjacency: one shared edge array instead of
/// a `Vec` per state, built with a counting pass so million-state graphs
/// pay two linear scans and three allocations total.
struct FlatPreds {
    start: Vec<usize>,
    edges: Vec<usize>,
}

impl FlatPreds {
    fn build(dtmc: &Dtmc) -> FlatPreds {
        let n = dtmc.num_states();
        let mut start = vec![0usize; n + 1];
        for s in 0..n {
            for (t, _) in dtmc.successors(s) {
                start[t + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut edges = vec![0usize; start[n]];
        for s in 0..n {
            for (t, _) in dtmc.successors(s) {
                edges[cursor[t]] = s;
                cursor[t] += 1;
            }
        }
        FlatPreds { start, edges }
    }

    fn preds_of(&self, s: usize) -> &[usize] {
        &self.edges[self.start[s]..self.start[s + 1]]
    }

    /// Backward BFS from `target` through `phi` states.
    fn reach_through(&self, phi: &[bool], target: &[bool]) -> Vec<bool> {
        let n = self.start.len() - 1;
        let mut reach = target.to_vec();
        let mut stack: Vec<usize> = (0..n).filter(|&s| target[s]).collect();
        while let Some(s) = stack.pop() {
            for &p in self.preds_of(s) {
                if !reach[p] && phi[p] {
                    reach[p] = true;
                    stack.push(p);
                }
            }
        }
        reach
    }
}

/// `Prob0`: states where `P(φ U ψ) = 0` in a DTMC.
pub fn prob0(dtmc: &Dtmc, phi: &[bool], target: &[bool]) -> Vec<bool> {
    reach_through(dtmc, phi, target).iter().map(|&r| !r).collect()
}

/// `Prob1`: states where `P(φ U ψ) = 1` in a DTMC.
///
/// Standard two-pass algorithm: a state has probability one iff it cannot
/// reach a `Prob0` state while staying inside `φ ∧ ¬ψ`.
pub fn prob1(dtmc: &Dtmc, phi: &[bool], target: &[bool]) -> Vec<bool> {
    prob01(dtmc, phi, target).1
}

/// `Prob0` and `Prob1` together, sharing one predecessor-list construction
/// — the qualitative precomputation is two backward BFS passes over the
/// same reversed graph, so computing the sets separately rebuilds (and
/// re-allocates) that graph for nothing. This is the entry point the
/// checker's hot path uses.
///
/// # Panics
///
/// Panics if the masks do not have one entry per state.
pub fn prob01(dtmc: &Dtmc, phi: &[bool], target: &[bool]) -> (Vec<bool>, Vec<bool>) {
    let n = dtmc.num_states();
    assert_eq!(phi.len(), n, "phi mask length");
    assert_eq!(target.len(), n, "target mask length");
    let preds = FlatPreds::build(dtmc);
    let reach = preds.reach_through(phi, target);
    let zero: Vec<bool> = reach.iter().map(|&r| !r).collect();
    // States that can reach a prob0 state through (phi ∧ ¬target) states.
    let inner: Vec<bool> = (0..n).map(|s| phi[s] && !target[s]).collect();
    let bad_reach = preds.reach_through(&inner, &zero);
    let one: Vec<bool> = bad_reach.iter().map(|&b| !b).collect();
    (zero, one)
}

/// Existential backward reachability in an MDP: states where **some**
/// scheduler reaches `target` with positive probability through `phi`.
pub fn exists_reach(mdp: &Mdp, phi: &[bool], target: &[bool]) -> Vec<bool> {
    let n = mdp.num_states();
    assert_eq!(phi.len(), n, "phi mask length");
    assert_eq!(target.len(), n, "target mask length");
    let mut reach = target.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for s in 0..n {
            if reach[s] || !phi[s] {
                continue;
            }
            let hit = mdp
                .choices(s)
                .iter()
                .any(|c| c.transitions.iter().any(|&(t, p)| p > 0.0 && reach[t]));
            if hit {
                reach[s] = true;
                changed = true;
            }
        }
    }
    reach
}

/// Universal forward reachability: states where **every** scheduler reaches
/// `target` with positive probability through `phi`.
pub fn forall_reach(mdp: &Mdp, phi: &[bool], target: &[bool]) -> Vec<bool> {
    let n = mdp.num_states();
    assert_eq!(phi.len(), n, "phi mask length");
    assert_eq!(target.len(), n, "target mask length");
    let mut reach = target.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for s in 0..n {
            if reach[s] || !phi[s] {
                continue;
            }
            let hit = mdp
                .choices(s)
                .iter()
                .all(|c| c.transitions.iter().any(|&(t, p)| p > 0.0 && reach[t]));
            if hit {
                reach[s] = true;
                changed = true;
            }
        }
    }
    reach
}

/// `Prob0A`: states where `Pmax(φ U ψ) = 0`.
pub fn prob0a(mdp: &Mdp, phi: &[bool], target: &[bool]) -> Vec<bool> {
    exists_reach(mdp, phi, target).iter().map(|&r| !r).collect()
}

/// `Prob0E`: states where `Pmin(φ U ψ) = 0`.
pub fn prob0e(mdp: &Mdp, phi: &[bool], target: &[bool]) -> Vec<bool> {
    forall_reach(mdp, phi, target).iter().map(|&r| !r).collect()
}

/// `Prob1E`: states where `Pmax(φ U ψ) = 1` (some scheduler reaches `ψ`
/// almost surely through `φ`).
///
/// Classic nested fixpoint (de Alfaro):
/// `νZ. μY. ψ ∨ (φ ∧ ∃a. succ(a) ⊆ Z ∧ succ(a) ∩ Y ≠ ∅)`.
pub fn prob1e(mdp: &Mdp, phi: &[bool], target: &[bool]) -> Vec<bool> {
    nested_fixpoint(mdp, phi, target, true)
}

/// `Prob1A`: states where `Pmin(φ U ψ) = 1` (every scheduler reaches `ψ`
/// almost surely through `φ`).
///
/// The universal variant of the nested fixpoint:
/// `νZ. μY. ψ ∨ (φ ∧ ∀a. succ(a) ⊆ Z ∧ succ(a) ∩ Y ≠ ∅)`.
pub fn prob1a(mdp: &Mdp, phi: &[bool], target: &[bool]) -> Vec<bool> {
    nested_fixpoint(mdp, phi, target, false)
}

fn nested_fixpoint(mdp: &Mdp, phi: &[bool], target: &[bool], existential: bool) -> Vec<bool> {
    let n = mdp.num_states();
    assert_eq!(phi.len(), n, "phi mask length");
    assert_eq!(target.len(), n, "target mask length");
    let mut z = vec![true; n];
    loop {
        // Inner least fixpoint Y within the current Z.
        let mut y = target.to_vec();
        let mut changed = true;
        while changed {
            changed = false;
            for s in 0..n {
                if y[s] || !phi[s] || target[s] {
                    continue;
                }
                let choice_ok = |c: &crate::Choice| {
                    let stays = c.transitions.iter().all(|&(t, p)| p == 0.0 || z[t]);
                    let progresses = c.transitions.iter().any(|&(t, p)| p > 0.0 && y[t]);
                    stays && progresses
                };
                let ok = if existential {
                    mdp.choices(s).iter().any(choice_ok)
                } else {
                    mdp.choices(s).iter().all(choice_ok)
                };
                if ok {
                    y[s] = true;
                    changed = true;
                }
            }
        }
        if y == z {
            return z;
        }
        z = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DtmcBuilder, MdpBuilder};

    /// Chain: 0 -> {1: 0.5, 2: 0.5}, 1 absorbing (target), 2 absorbing.
    fn split_chain() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.5).unwrap();
        b.transition(0, 2, 0.5).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dtmc_prob0_prob1() {
        let d = split_chain();
        let phi = vec![true; 3];
        let target = vec![false, true, false];
        assert_eq!(prob0(&d, &phi, &target), vec![false, false, true]);
        assert_eq!(prob1(&d, &phi, &target), vec![false, true, false]);
    }

    #[test]
    fn dtmc_prob1_when_certain() {
        // 0 -> 1 w.p. 1, 1 absorbing target.
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 1, 1.0).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        let d = b.build().unwrap();
        let phi = vec![true, true];
        let target = vec![false, true];
        assert_eq!(prob1(&d, &phi, &target), vec![true, true]);
        assert_eq!(prob0(&d, &phi, &target), vec![false, false]);
    }

    #[test]
    fn phi_restriction_blocks_paths() {
        // 0 -> 1 -> 2(target); phi false at 1 cuts the path.
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 1.0).unwrap();
        b.transition(1, 2, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        let d = b.build().unwrap();
        let phi = vec![true, false, true];
        let target = vec![false, false, true];
        assert_eq!(prob0(&d, &phi, &target), vec![true, true, false]);
    }

    /// MDP where state 0 has a safe self-loop and a risky coin flip to the
    /// target 1 or the sink 2.
    fn coin_mdp() -> Mdp {
        let mut b = MdpBuilder::new(3);
        b.choice(0, "loop", &[(0, 1.0)]).unwrap();
        b.choice(0, "flip", &[(1, 0.5), (2, 0.5)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn mdp_qualitative_sets() {
        let m = coin_mdp();
        let phi = vec![true; 3];
        let target = vec![false, true, false];
        // Pmax: flipping forever eventually... no — one flip reaches 1 w.p. 0.5
        // and 2 w.p. 0.5; but the scheduler may loop and flip repeatedly? After
        // reaching 2 it is stuck. Pmax < 1, Pmax > 0.
        assert_eq!(prob0a(&m, &phi, &target), vec![false, false, true]);
        assert_eq!(prob1e(&m, &phi, &target), vec![false, true, false]);
        // Pmin: scheduler can self-loop forever, never reaching the target.
        assert_eq!(prob0e(&m, &phi, &target), vec![true, false, true]);
        assert_eq!(prob1a(&m, &phi, &target), vec![false, true, false]);
    }

    #[test]
    fn mdp_prob1e_with_retry() {
        // 0 --try--> {1: 0.5, 0: 0.5}: retrying forever reaches 1 a.s.
        let mut b = MdpBuilder::new(2);
        b.choice(0, "try", &[(0, 0.5), (1, 0.5)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let phi = vec![true, true];
        let target = vec![false, true];
        assert_eq!(prob1e(&m, &phi, &target), vec![true, true]);
        assert_eq!(prob1a(&m, &phi, &target), vec![true, true]);
    }

    #[test]
    fn mdp_prob1a_rejects_escapable() {
        // 0 has actions: a -> 1 (target) w.p. 1; b -> 2 (sink) w.p. 1.
        let mut b = MdpBuilder::new(3);
        b.choice(0, "a", &[(1, 1.0)]).unwrap();
        b.choice(0, "b", &[(2, 1.0)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let phi = vec![true; 3];
        let target = vec![false, true, false];
        assert_eq!(prob1e(&m, &phi, &target), vec![true, true, false]);
        assert_eq!(prob1a(&m, &phi, &target), vec![false, true, false]);
        assert_eq!(prob0e(&m, &phi, &target), vec![true, false, true]);
    }

    #[test]
    fn exists_and_forall_reach_masks() {
        let m = coin_mdp();
        let phi = vec![true; 3];
        let target = vec![false, true, false];
        assert_eq!(exists_reach(&m, &phi, &target), vec![true, true, false]);
        // "flip" reaches the target with positive probability under every
        // scheduler? No: the "loop" choice never progresses, but
        // forall_reach asks that every CHOICE (hence scheduler step) can
        // progress — state 0 fails because of the loop choice.
        assert_eq!(forall_reach(&m, &phi, &target), vec![false, true, false]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::DtmcBuilder;
    use proptest::prelude::*;

    fn random_chain(seed: &[f64], n: usize) -> Dtmc {
        let mut b = DtmcBuilder::new(n);
        let mut k = 0;
        for s in 0..n {
            // two successors per state, probabilities from the seed
            let t1 = (seed[k] * n as f64) as usize % n;
            let t2 = (seed[k + 1] * n as f64) as usize % n;
            let p = 0.1 + 0.8 * seed[k + 2];
            k += 3;
            if t1 == t2 {
                b.transition(s, t1, 1.0).unwrap();
            } else {
                b.transition(s, t1, p).unwrap();
                b.transition(s, t2, 1.0 - p).unwrap();
            }
        }
        b.build().unwrap()
    }

    proptest! {
        /// prob0 and prob1 are disjoint unless the until is trivially
        /// decided, and target states are always prob1.
        #[test]
        fn prob01_consistency(seed in proptest::collection::vec(0.0_f64..1.0, 18)) {
            let n = 6;
            let d = random_chain(&seed, n);
            let phi = vec![true; n];
            let mut target = vec![false; n];
            target[n - 1] = true;
            let p0 = prob0(&d, &phi, &target);
            let p1 = prob1(&d, &phi, &target);
            prop_assert!(p1[n - 1], "target must be prob1");
            for s in 0..n {
                prop_assert!(!(p0[s] && p1[s]), "state {s} cannot be both prob0 and prob1");
            }
        }
    }
}

/// A (maximal) end component of an MDP: a set of states plus, per state,
/// the choice indices under which the process can stay inside the set
/// forever while being able to reach every member state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndComponent {
    /// The member states, sorted.
    pub states: Vec<usize>,
    /// For each member state, the choice indices whose successors all stay
    /// inside the component.
    pub choices: std::collections::BTreeMap<usize, Vec<usize>>,
}

impl EndComponent {
    /// Whether `state` belongs to the component.
    pub fn contains(&self, state: usize) -> bool {
        self.states.binary_search(&state).is_ok()
    }
}

/// Maximal end component (MEC) decomposition of an MDP.
///
/// A MEC is a maximal set of states `C` with per-state action subsets such
/// that every enabled action keeps the process in `C` and `C` is strongly
/// connected under them. MECs are where an MDP can dwell forever — they
/// characterize e.g. `Pmax(G φ) > 0` (some reachable MEC inside `φ`) and
/// underpin limit-average objectives.
///
/// # Example
///
/// ```
/// use tml_models::MdpBuilder;
/// use tml_models::graph::maximal_end_components;
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut b = MdpBuilder::new(2);
/// b.choice(0, "go", &[(1, 1.0)])?;
/// b.choice(1, "stay", &[(1, 1.0)])?;
/// let mdp = b.build()?;
/// let mecs = maximal_end_components(&mdp);
/// assert_eq!(mecs.len(), 1);
/// assert_eq!(mecs[0].states, vec![1]);
/// # Ok(())
/// # }
/// ```
pub fn maximal_end_components(mdp: &Mdp) -> Vec<EndComponent> {
    let n = mdp.num_states();
    let mut result = Vec::new();
    let mut worklist: Vec<Vec<usize>> = vec![(0..n).collect()];

    while let Some(candidate) = worklist.pop() {
        let mut member = vec![false; n];
        for &s in &candidate {
            member[s] = true;
        }
        // Allowed choices: all successors stay inside the candidate.
        // Remove states without allowed choices until stable.
        let mut alive = member.clone();
        let mut changed = true;
        let mut allowed: Vec<Vec<usize>> = vec![Vec::new(); n];
        while changed {
            changed = false;
            for &s in &candidate {
                if !alive[s] {
                    continue;
                }
                allowed[s] = mdp
                    .choices(s)
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.transitions.iter().all(|&(t, p)| p == 0.0 || alive[t]))
                    .map(|(i, _)| i)
                    .collect();
                if allowed[s].is_empty() {
                    alive[s] = false;
                    changed = true;
                }
            }
        }
        let survivors: Vec<usize> = candidate.iter().copied().filter(|&s| alive[s]).collect();
        if survivors.is_empty() {
            continue;
        }
        // SCCs of the surviving sub-graph restricted to allowed choices.
        let mut dense_index = vec![usize::MAX; n];
        for (i, &s) in survivors.iter().enumerate() {
            dense_index[s] = i;
        }
        let adj: Vec<Vec<usize>> = survivors
            .iter()
            .map(|&s| {
                let mut succ: Vec<usize> = allowed[s]
                    .iter()
                    .flat_map(|&c| mdp.choices(s)[c].transitions.iter())
                    .filter(|&&(_, p)| p > 0.0)
                    .map(|&(t, _)| dense_index[t])
                    .collect();
                succ.sort_unstable();
                succ.dedup();
                succ
            })
            .collect();
        let components =
            tml_numerics::scc::condensation_from(adj.len(), |v| adj[v].as_slice()).components;
        let split = components.len() > 1 || survivors.len() < candidate.len();
        for comp in components {
            let states: Vec<usize> = comp.iter().map(|&i| survivors[i]).collect();
            if split {
                // Not yet stable: reprocess the refined candidate.
                worklist.push(states);
                continue;
            }
            // Stable: this is a MEC provided it can actually dwell (a
            // one-state component needs a self-looping allowed choice).
            let closed_choices: std::collections::BTreeMap<usize, Vec<usize>> =
                states.iter().map(|&s| (s, allowed[s].clone())).collect();
            let dwells =
                states.len() > 1 || closed_choices.get(&states[0]).is_some_and(|cs| !cs.is_empty());
            if dwells {
                result.push(EndComponent { states, choices: closed_choices });
            }
        }
    }
    result.sort_by(|a, b| a.states.cmp(&b.states));
    result
}

#[cfg(test)]
mod mec_tests {
    use super::*;
    use crate::MdpBuilder;

    #[test]
    fn sccs_of_cycle_and_dag() {
        use tml_numerics::scc::condensation_from;
        // 0 -> 1 -> 2 -> 0 cycle plus a tail 3 -> 0.
        let adj = [vec![1], vec![2], vec![0], vec![0]];
        let comps = condensation_from(adj.len(), |v| adj[v].as_slice()).components;
        // Dependency order: the cycle the tail leads into comes first.
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3]]);
        // pure DAG: all singletons, sinks first
        let dag = [vec![1], vec![2], vec![]];
        let comps = condensation_from(dag.len(), |v| dag[v].as_slice()).components;
        assert_eq!(comps, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn mec_of_absorbing_state() {
        let mut b = MdpBuilder::new(3);
        b.choice(0, "a", &[(1, 0.5), (2, 0.5)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let mecs = maximal_end_components(&m);
        assert_eq!(mecs.len(), 2);
        assert_eq!(mecs[0].states, vec![1]);
        assert_eq!(mecs[1].states, vec![2]);
        assert!(mecs[0].contains(1));
        assert!(!mecs[0].contains(0));
    }

    #[test]
    fn mec_with_internal_cycle_and_escape() {
        // {0,1} cycle under action "loop"; action "leave" exits to sink 2.
        let mut b = MdpBuilder::new(3);
        b.choice(0, "loop", &[(1, 1.0)]).unwrap();
        b.choice(0, "leave", &[(2, 1.0)]).unwrap();
        b.choice(1, "loop", &[(0, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let mecs = maximal_end_components(&m);
        assert_eq!(mecs.len(), 2);
        let cycle = mecs.iter().find(|c| c.states == vec![0, 1]).expect("cycle MEC");
        // The escaping action is pruned from state 0's allowed choices.
        assert_eq!(cycle.choices[&0], vec![0]);
        assert_eq!(cycle.choices[&1], vec![0]);
    }

    #[test]
    fn probabilistic_branching_requires_closure() {
        // Action from 0 goes to 1 or 2 with probability 1/2 each; only a
        // component containing all three can hold it, but 2 cannot return:
        // so 0 is in no MEC.
        let mut b = MdpBuilder::new(3);
        b.choice(0, "a", &[(1, 0.5), (2, 0.5)]).unwrap();
        b.choice(1, "back", &[(0, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let mecs = maximal_end_components(&m);
        assert_eq!(mecs.len(), 1);
        assert_eq!(mecs[0].states, vec![2]);
    }

    #[test]
    fn transient_state_without_self_loop_is_no_mec() {
        // 0 -> 1 (one-way), 1 absorbing: 0 forms no MEC on its own.
        let mut b = MdpBuilder::new(2);
        b.choice(0, "go", &[(1, 1.0)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let mecs = maximal_end_components(&m);
        assert_eq!(mecs.len(), 1);
        assert_eq!(mecs[0].states, vec![1]);
    }

    #[test]
    fn mecs_relate_to_qualitative_sets() {
        // Pmax(G phi) > 0 iff some MEC inside phi is reachable through phi.
        // Here: phi = {0,1}; the cycle {0,1} is a phi-MEC, so from 0 the
        // scheduler can stay in phi forever.
        let mut b = MdpBuilder::new(3);
        b.choice(0, "loop", &[(1, 1.0)]).unwrap();
        b.choice(0, "leave", &[(2, 1.0)]).unwrap();
        b.choice(1, "loop", &[(0, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let mecs = maximal_end_components(&m);
        let phi_mec = mecs.iter().any(|c| c.states.iter().all(|&s| s < 2));
        assert!(phi_mec);
    }
}
