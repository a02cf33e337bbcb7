//! Independent reference solvers. They share no code with the checker
//! (no Prob0/Prob1, no system assembly, no condensation, no checker
//! iteration), so they can referee its answers.
//!
//! * Block-triangular chains: the layered-SCC generator lays a chain out
//!   in aligned blocks of `block` states (one ring each) whose only exits
//!   lead to higher indices. On that shape `P(φ U goal)` and `R[F goal]`
//!   are exact by backward block substitution: each block is a small
//!   dense system whose right-hand side only involves blocks already
//!   solved. The same substitution on an interval chain, with the inner
//!   adversary's distribution re-chosen per block until it settles
//!   (policy iteration), gives the exact robust extremum. The shape is
//!   verified first; any other chain is refused.
//! * Any chain whose states all reach the goal: a certified two-sided
//!   bracket on `R[F goal]`, from Gauss–Seidel sweeps and a verified
//!   sub- and super-solution.

use std::cmp::Ordering::Greater;

use tml_models::{Dtmc, IntervalDtmc};

/// Which quantity to compute.
#[derive(Debug, Clone, Copy)]
pub enum Quantity<'a> {
    /// `P(φ U target)`.
    Until { phi: &'a [bool] },
    /// Expected reward accumulated until `target` (state rewards).
    Reward { rewards: &'a [f64] },
}

/// Policy-iteration rounds allowed per block before the robust solve
/// gives up (each round re-chooses the adversary's distributions).
const MAX_POLICY_ROUNDS: usize = 64;
/// A state's distribution is replaced only when the new one moves its
/// one-step value by more than this share, so rounding-level ties cannot
/// make the choice flip back and forth.
const MIN_GAIN: f64 = 1e-12;

/// Values for every state, or why the chain is not block-triangular or
/// a block cannot reach the target.
pub fn block_triangular(
    model: &Dtmc,
    block: usize,
    target: &[bool],
    q: Quantity<'_>,
) -> Result<Vec<f64>, String> {
    backward_blocks(model.num_states(), block, target, q, false, |s, _| {
        model.successors(s).collect()
    })
}

/// The extremum over every member of an interval chain (the minimum, or
/// the maximum with `maximize`), for every state. Each state's adversary
/// puts every lower bound in place and hands the remaining mass out in
/// value order (the sorted greedy inner step); per block, the
/// distributions are re-chosen against the block's exact values until
/// none improves on the last (policy iteration).
pub fn robust_block_triangular(
    model: &IntervalDtmc,
    block: usize,
    target: &[bool],
    q: Quantity<'_>,
    maximize: bool,
) -> Result<Vec<f64>, String> {
    backward_blocks(model.num_states(), block, target, q, maximize, |s, x| {
        let row = model.row(s);
        let mut dist: Vec<(usize, f64)> = row.iter().map(|&(t, lo, _)| (t, lo)).collect();
        let mut rest = 1.0 - dist.iter().map(|&(_, p)| p).sum::<f64>();
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_by(|&a, &b| {
            let ord = x[row[a].0].total_cmp(&x[row[b].0]);
            let ord = if maximize { ord.reverse() } else { ord };
            ord.then(row[a].0.cmp(&row[b].0))
        });
        for i in order {
            let take = (row[i].2 - row[i].1).min(rest).max(0.0);
            dist[i].1 += take;
            rest -= take;
        }
        dist
    })
}

/// Backward block substitution; `row(s, x)` is state `s`'s distribution
/// given the current values `x` (solved blocks exact, the current block
/// at its last solution). A block is re-solved while some state's new
/// distribution improves its value (upwards with `maximize`) by more than
/// [`MIN_GAIN`].
fn backward_blocks(
    n: usize,
    block: usize,
    target: &[bool],
    q: Quantity<'_>,
    maximize: bool,
    row: impl Fn(usize, &[f64]) -> Vec<(usize, f64)>,
) -> Result<Vec<f64>, String> {
    let mut x = vec![0.0; n];
    let mut start = n - n % block;
    if start == n {
        start = n - block;
    }
    // Blocks from the last (possibly partial) one back to the first.
    let mut blocks = Vec::new();
    let mut b = start;
    blocks.push((start, n));
    while b > 0 {
        blocks.push((b - block, b));
        b -= block;
    }
    let mut a = vec![0.0; block * block];
    let mut rhs = vec![0.0; block];
    for (lo, hi) in blocks {
        let k = hi - lo;
        let mut rows: Vec<Vec<(usize, f64)>> = (lo..hi).map(|s| row(s, &x)).collect();
        for round in 0.. {
            if round == MAX_POLICY_ROUNDS {
                return Err(format!("block {lo}..{hi}: distributions did not settle"));
            }
            a[..k * k].iter_mut().for_each(|v| *v = 0.0);
            for i in 0..k {
                let s = lo + i;
                a[i * k + i] = 1.0;
                rhs[i] = 0.0;
                let fixed = match q {
                    Quantity::Until { .. } if target[s] => Some(1.0),
                    Quantity::Until { phi } if !phi[s] => Some(0.0),
                    Quantity::Reward { .. } if target[s] => Some(0.0),
                    _ => None,
                };
                if let Some(v) = fixed {
                    rhs[i] = v;
                    continue;
                }
                if let Quantity::Reward { rewards } = q {
                    rhs[i] = rewards[s];
                }
                for &(t, p) in &rows[i] {
                    if (lo..hi).contains(&t) {
                        a[i * k + (t - lo)] -= p;
                    } else if t >= hi {
                        rhs[i] += p * x[t];
                    } else {
                        return Err(format!("transition {s} -> {t} leaves the block order"));
                    }
                }
            }
            let sol = dense_solve(&mut a[..k * k], &mut rhs[..k], k)
                .ok_or_else(|| format!("block {lo}..{hi} is singular (cannot leave)"))?;
            x[lo..hi].copy_from_slice(&sol);
            let value = |r: &[(usize, f64)]| r.iter().map(|&(t, p)| p * x[t]).sum::<f64>();
            let mut improved = false;
            for (i, old) in rows.iter_mut().enumerate() {
                let new = row(lo + i, &x);
                let (v_new, v_old) = (value(&new), value(old));
                let gain = if maximize { v_new - v_old } else { v_old - v_new };
                if gain > MIN_GAIN * v_old.abs().max(1.0) {
                    *old = new;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    Ok(x)
}

/// Relative margin of the certified reward bracket: the sub-solution is
/// the iterate shrunk by this share, the super-solution the iterate
/// grown by it (plus the same amount absolute).
const BRACKET_MARGIN: f64 = 1e-9;
/// Gauss–Seidel sweeps between two certification attempts, and at most.
const SWEEPS_PER_ATTEMPT: usize = 64;
const MAX_SWEEPS: usize = 1_000_000;

/// A certified bracket `(lo, hi)` on `R[F target]` at the initial state,
/// for a chain whose every state reaches `target` and whose every
/// non-target state has a positive reward.
///
/// Gauss–Seidel sweeps (highest state first, in place) approach the value
/// from below. Every [`SWEEPS_PER_ATTEMPT`] sweeps the iterate `x` is
/// tried as a certificate: `lo = x·(1−η)` must satisfy `lo ≤ r + P·lo`
/// and `hi = x·(1+η) + η` must satisfy `hi ≥ r + P·hi` in every state
/// (η = [`BRACKET_MARGIN`]). Since every state reaches the target, `P`
/// restricted to the other states is transient, and then every
/// sub-solution lies below the value and every super-solution above it.
pub fn reward_bracket(
    model: &Dtmc,
    target: &[bool],
    rewards: &[f64],
) -> Result<(f64, f64), String> {
    let n = model.num_states();
    if let Some(s) = (0..n).find(|&s| !target[s] && rewards[s].partial_cmp(&0.0) != Some(Greater)) {
        return Err(format!("state {s} has no positive reward"));
    }
    // Every state must reach the target: backward search over predecessors.
    let mut preds = vec![Vec::new(); n];
    for s in 0..n {
        for (t, _) in model.successors(s) {
            preds[t].push(s);
        }
    }
    let mut reaches = target.to_vec();
    let mut stack: Vec<usize> = (0..n).filter(|&s| target[s]).collect();
    while let Some(t) = stack.pop() {
        for &s in &preds[t] {
            if !reaches[s] {
                reaches[s] = true;
                stack.push(s);
            }
        }
    }
    drop(preds);
    if let Some(s) = reaches.iter().position(|&r| !r) {
        return Err(format!("state {s} cannot reach the target"));
    }
    let backup = |x: &[f64], s: usize, scale: f64, shift: f64| {
        rewards[s]
            + model
                .successors(s)
                .filter(|&(t, _)| !target[t])
                .map(|(t, p)| p * (x[t] * scale + shift))
                .sum::<f64>()
    };
    let eta = BRACKET_MARGIN;
    let mut x = vec![0.0; n];
    for sweep in 1..=MAX_SWEEPS {
        for s in (0..n).rev() {
            if !target[s] {
                x[s] = backup(&x, s, 1.0, 0.0);
            }
        }
        if sweep % SWEEPS_PER_ATTEMPT != 0 {
            continue;
        }
        let certified = (0..n).filter(|&s| !target[s]).all(|s| {
            x[s] * (1.0 - eta) <= backup(&x, s, 1.0 - eta, 0.0)
                && x[s] * (1.0 + eta) + eta >= backup(&x, s, 1.0 + eta, eta)
        });
        if certified {
            let v = x[model.initial_state()];
            return Ok((v * (1.0 - eta), v * (1.0 + eta) + eta));
        }
    }
    Err(format!("no certified bracket within {MAX_SWEEPS} sweeps"))
}

/// Gaussian elimination with partial pivoting on a row-major `k × k`.
fn dense_solve(a: &mut [f64], b: &mut [f64], k: usize) -> Option<Vec<f64>> {
    for col in 0..k {
        let piv =
            (col..k).max_by(|&i, &j| a[i * k + col].abs().total_cmp(&a[j * k + col].abs()))?;
        if a[piv * k + col].abs() < 1e-300 {
            return None;
        }
        if piv != col {
            for j in 0..k {
                a.swap(piv * k + j, col * k + j);
            }
            b.swap(piv, col);
        }
        for row in col + 1..k {
            let f = a[row * k + col] / a[col * k + col];
            if f != 0.0 {
                for j in col..k {
                    a[row * k + j] -= f * a[col * k + j];
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; k];
    for row in (0..k).rev() {
        let mut s = b[row];
        for j in row + 1..k {
            s -= a[row * k + j] * x[j];
        }
        x[row] = s / a[row * k + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_models::{DtmcBuilder, IntervalDtmcBuilder};

    fn ring() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.5).unwrap();
        b.transition(0, 2, 0.5).unwrap();
        b.transition(1, 0, 0.5).unwrap();
        b.transition(1, 2, 0.5).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn two_state_ring_matches_closed_form() {
        // 0 <-> 1 ring, each leaks to the goal 2 with probability 1/2.
        let m = ring();
        let target = [false, false, true];
        let rewards = [1.0, 1.0, 0.0];
        let r = block_triangular(&m, 2, &target, Quantity::Reward { rewards: &rewards }).unwrap();
        assert!((r[0] - 2.0).abs() < 1e-12, "{r:?}");
        let phi = [true, false, true];
        let p = block_triangular(&m, 2, &target, Quantity::Until { phi: &phi }).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-12, "{p:?}");
    }

    #[test]
    fn certified_bracket_contains_the_closed_form() {
        // 0 <-> 1 ring, each leaks to the goal 2 with probability 1/2:
        // R[F goal] = 2 from either state.
        let m = ring();
        let (lo, hi) = reward_bracket(&m, &[false, false, true], &[1.0, 1.0, 0.0]).unwrap();
        assert!(lo <= 2.0 && 2.0 <= hi && hi - lo < 1e-8, "{lo} {hi}");
    }

    #[test]
    fn robust_extremes_pick_the_worst_member() {
        // From 0: goal 2 with [0.2, 0.6], sink 1 with [0.4, 0.8]. The
        // minimum of P(F goal) is 0.2, the maximum 0.6.
        let mut b = IntervalDtmcBuilder::new(3);
        b.transition(0, 1, 0.4, 0.8).unwrap();
        b.transition(0, 2, 0.2, 0.6).unwrap();
        b.transition(1, 1, 1.0, 1.0).unwrap();
        b.transition(2, 2, 1.0, 1.0).unwrap();
        let m = b.build().unwrap();
        let target = [false, false, true];
        let phi = [true, false, true];
        let q = Quantity::Until { phi: &phi };
        let min = robust_block_triangular(&m, 1, &target, q, false).unwrap();
        let max = robust_block_triangular(&m, 1, &target, q, true).unwrap();
        assert!((min[0] - 0.2).abs() < 1e-12 && (max[0] - 0.6).abs() < 1e-12, "{min:?} {max:?}");
    }

    #[test]
    fn backward_edges_are_refused() {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 2, 1.0).unwrap();
        b.transition(1, 2, 1.0).unwrap();
        b.transition(2, 0, 1.0).unwrap();
        let m = b.build().unwrap();
        let target = [false, false, false];
        let phi = [true; 3];
        assert!(block_triangular(&m, 1, &target, Quantity::Until { phi: &phi }).is_err());
    }
}
