//! `repair_paper`: the paper's three repairs on its case studies, each
//! from the model (or data) to a verified repair.
//!
//! Jobs: WSN Model Repair at X=40 with the `penalty` and the `lifting`
//! strategy, robust WSN Model Repair at 95%, WSN Data Repair at X=19
//! (on the paper experiment's traces) and Car Reward Repair
//! (max-ent IRL, then the Q-constraint repair). Every returned repair is
//! re-checked independently of the repair's own verification: the
//! repaired chain by the checker (robustly, over its Wilson ball, for the
//! robust repair), the repaired reward by the safety of its greedy
//! policy.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tml_car as car;
use tml_checker::Checker;
use tml_core::{
    DataRepair, ModelRepair, ModelSpec, PerturbationTemplate, RepairOptions, RepairStatus,
    RepairStrategy, RewardRepair, RobustSpec,
};
use tml_logic::StateFormula;
use tml_models::{learn, Dtmc, IntervalDtmc, MlOptions, TraceDataset};
use tml_parametric::{
    BoundSense, CompiledConstraintSet, Polynomial, RationalFunction, RegionProblem, RegionRow,
    RegionSolver,
};
use tml_wsn::WsnConfig;
use tml_wsn::{
    attempts_property, build_dtmc, classes, generate_traces, model_spec, repair_template,
};

use crate::common::{time_in, Layers, RunConfig, Size, Tally};
use crate::workload::{Job, PassWorkload};

/// Robust repair confidence.
const CONFIDENCE: f64 = 0.95;
/// Calls per `eval_grad` timing sample.
const EVAL_GRAD_CALLS: usize = 4096;

pub struct RepairPaper {
    chain: Dtmc,
    template: PerturbationTemplate,
    model_bound: f64,
    dataset: TraceDataset,
    spec: ModelSpec,
    data_bound: f64,
    /// The jobs of one pass, in the seed's order.
    order: Vec<&'static str>,
    corrupt: bool,
}

/// The jobs of a pass (the smoke variant skips `robust` and `data`).
const JOBS: [&str; 5] = ["penalty", "lifting", "robust", "data", "reward"];
/// Episodes and seed of the data repair's traces: the paper's experiment
/// (`exp_wsn_data_repair`). Sampled from the workload seed instead, the
/// data repair takes 12 ms on some seeds and 1.3 s on others, and the
/// latency percentiles would follow the seed rather than the code.
const DATA_EPISODES: usize = 120;
const DATA_SEED: u64 = 42;

impl RepairPaper {
    pub fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let config = WsnConfig::default();
        let chain = build_dtmc(&config).map_err(|e| e.to_string())?;
        let template = repair_template(&config).map_err(|e| e.to_string())?;
        let dataset =
            generate_traces(&config, DATA_EPISODES, 40.0, DATA_SEED).map_err(|e| e.to_string())?;
        let spec = model_spec(&config);
        // The inputs must reproduce the paper's shape: X=40 violated but
        // repairable, the learned data model violating X=19.
        let checker = Checker::new();
        let base =
            checker.check_dtmc(&chain, &attempts_property(40.0)).map_err(|e| e.to_string())?;
        if base.holds() {
            return Err("WSN chain already satisfies X=40; nothing to repair".into());
        }
        // The case studies are fixed; the workload seed sets the order of
        // the jobs within a pass.
        let mut order: Vec<&'static str> = match cfg.size {
            Size::Full => JOBS.to_vec(),
            Size::Tiny => vec!["penalty", "lifting", "reward"],
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        Ok(RepairPaper {
            chain,
            template,
            model_bound: 40.0,
            dataset,
            spec,
            data_bound: 19.0,
            order,
            corrupt: cfg.corrupt_references,
        })
    }

    /// The property the re-check asks: the corrupted self-test tightens
    /// it far below anything the repair aimed for.
    fn recheck_property(&self, bound: f64) -> StateFormula {
        attempts_property(if self.corrupt { bound / 4.0 } else { bound })
    }

    fn model_repair(&self, job: &str, layers: Option<&mut Layers>) -> Job {
        let mut tally = Tally::default();
        let phi = attempts_property(self.model_bound);
        let (strategy, robust) = match job {
            "penalty" => (RepairStrategy::Penalty, None),
            "lifting" => (RepairStrategy::Lifting, None),
            _ => (RepairStrategy::Auto, Some(RobustSpec::new(CONFIDENCE))),
        };
        let opts = RepairOptions { strategy, robust, ..RepairOptions::default() };
        let repair =
            || ModelRepair::with_options(opts).repair_dtmc(&self.chain, &phi, &self.template);
        let mut layers = layers;
        if let (Some(l), "penalty") = (layers.as_deref_mut(), job) {
            self.parametric_layers(l);
        }
        let name = match job {
            "penalty" => "core.model_repair.penalty_ms",
            "lifting" => "core.model_repair.lifting_ms",
            _ => "core.model_repair.robust_ms",
        };
        let outcome = time_in(&mut layers, name, repair);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                tally.error(format!("{job}: {e}"));
                return Job { tally, cost: 0.0 };
            }
        };
        if let Some(l) = layers.as_deref_mut() {
            l.add("optimizer.evaluations", outcome.evaluations as f64);
        }
        tally.expect(outcome.status == RepairStatus::Repaired && outcome.verified, || {
            format!("{job}: status {:?}, verified {}", outcome.status, outcome.verified)
        });
        let Some(model) = &outcome.model else {
            tally.error(format!("{job}: no repaired model returned"));
            return Job { tally, cost: outcome.cost };
        };
        let recheck = self.recheck_property(self.model_bound);
        let checker = Checker::new();
        let holds = if let Some(rs) = robust {
            let check = || {
                IntervalDtmc::wilson_around(model, rs.confidence, rs.sample_size)
                    .map_err(|e| e.to_string())
                    .and_then(|ball| {
                        checker.check_interval_dtmc(&ball, &recheck).map_err(|e| e.to_string())
                    })
                    .map(|r| r.holds())
            };
            time_in(&mut layers, "checker.robust_ms", check)
        } else {
            let check = || {
                checker.check_dtmc(model, &recheck).map(|r| r.holds()).map_err(|e| e.to_string())
            };
            time_in(&mut layers, "checker.dtmc_ms", check)
        };
        match holds {
            Ok(h) => tally.expect(h, || format!("{job}: repaired model fails the re-check")),
            Err(e) => tally.error(format!("{job}: re-check: {e}")),
        }
        Job { tally, cost: outcome.cost }
    }

    /// Times the parametric layers on the X=40 problem in isolation:
    /// symbolic elimination, tape compilation, compiled value+gradient,
    /// and region lifting of `attempts ≤ X` with the Frobenius objective.
    fn parametric_layers(&self, l: &mut Layers) {
        let target = self.chain.labeling().mask("delivered");
        let eliminated = l.time("parametric.eliminate_ms", || {
            self.template
                .apply(&self.chain)
                .map_err(|e| e.to_string())
                .and_then(|p| p.expected_reward("attempts", &target).map_err(|e| e.to_string()))
        });
        let Ok(fns) = eliminated else { return };
        let f = fns[self.chain.initial_state()].clone();
        let compiled = l.time("parametric.compile_ms", || f.compile());
        let np = self.template.num_params();
        let bounds = self.template.bounds();
        let mut rng = StdRng::seed_from_u64(0xE7A1);
        let points: Vec<Vec<f64>> = (0..EVAL_GRAD_CALLS)
            .map(|_| bounds.iter().map(|&(lo, hi)| rng.random_range(lo..=hi) * 0.5).collect())
            .collect();
        let mut grad = vec![0.0; np];
        let (sum, ms) = crate::common::timed(|| {
            points.iter().map(|p| compiled.eval_grad(p, &mut grad).unwrap_or(0.0)).sum::<f64>()
        });
        std::hint::black_box(sum);
        l.add("parametric.eval_grad_ns", ms * 1e6 / EVAL_GRAD_CALLS as f64);
        let objective = (0..np).fold(Polynomial::zero(np), |acc, i| {
            let v = Polynomial::var(np, i);
            acc.add(&v.mul(&v))
        });
        let lifted = l.time("parametric.lifting_ms", || {
            let set = CompiledConstraintSet::compile(std::slice::from_ref(&f))
                .map_err(|e| e.to_string())?;
            let problem =
                RegionProblem::new(set, vec![RegionRow::new(BoundSense::Le, self.model_bound)])
                    .map_err(|e| e.to_string())?
                    .with_objective(RationalFunction::from_poly(objective).compile());
            RegionSolver::new().solve(&problem, &bounds).map_err(|e| e.to_string())
        });
        std::hint::black_box(lifted.ok());
    }

    fn data_repair(&self, mut layers: Option<&mut Layers>) -> Job {
        let mut tally = Tally::default();
        if let Some(l) = layers.as_deref_mut() {
            let learned = l.time("models.learn.ml_dtmc_ms", || {
                learn::ml_dtmc(self.spec.num_states, &self.dataset, None, MlOptions::default())
            });
            std::hint::black_box(learned.is_ok());
        }
        let phi = attempts_property(self.data_bound);
        let repair = || {
            DataRepair::new().keep_class(classes::FORWARD_SUCCESS).repair(
                &self.dataset,
                &self.spec,
                &phi,
            )
        };
        let outcome = time_in(&mut layers, "core.data_repair_ms", repair);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                tally.error(format!("data: {e}"));
                return Job { tally, cost: 0.0 };
            }
        };
        if let Some(l) = layers.as_deref_mut() {
            l.add("optimizer.evaluations", outcome.evaluations as f64);
        }
        tally.expect(outcome.status == RepairStatus::Repaired && outcome.verified, || {
            format!("data: status {:?}, verified {}", outcome.status, outcome.verified)
        });
        match &outcome.model {
            Some(model) => {
                let recheck = self.recheck_property(self.data_bound);
                let check = || Checker::new().check_dtmc(model, &recheck).map(|r| r.holds());
                let holds = time_in(&mut layers, "checker.dtmc_ms", check);
                match holds {
                    Ok(h) => tally.expect(h, || "data: re-learned model fails the re-check".into()),
                    Err(e) => tally.error(format!("data: re-check: {e}")),
                }
            }
            None => tally.error("data: no re-learned model returned"),
        }
        Job { tally, cost: outcome.effort }
    }

    fn reward_repair(&self, mut layers: Option<&mut Layers>) -> Job {
        let mut tally = Tally::default();
        let run = |layers: &mut Option<&mut Layers>| -> Result<_, String> {
            let mdp = car::build_mdp().map_err(|e| e.to_string())?;
            let features = car::features().map_err(|e| e.to_string())?;
            let irl = time_in(layers, "irl.maxent_ms", || car::learn_reward(&mdp))
                .map_err(|e| e.to_string())?;
            let repair = || {
                RewardRepair::new().q_constraint_repair(
                    &mdp,
                    &features,
                    &irl.theta,
                    &[car::q_repair_constraint()],
                    car::GAMMA,
                    3.0,
                )
            };
            let outcome =
                time_in(layers, "core.reward_repair_ms", repair).map_err(|e| e.to_string())?;
            let policy = car::greedy_policy(&mdp, &outcome.theta).map_err(|e| e.to_string())?;
            // The learned reward's policy is unsafe (the paper's E5); the
            // repaired one must be safe.
            let safe = car::policy_is_safe(&mdp, &policy) != self.corrupt;
            Ok((outcome, safe))
        };
        match run(&mut layers) {
            Ok((outcome, safe)) => {
                tally.expect(outcome.status == RepairStatus::Repaired && outcome.verified, || {
                    format!("reward: status {:?}, verified {}", outcome.status, outcome.verified)
                });
                tally.expect(safe, || "reward: repaired policy is unsafe".into());
                Job { tally, cost: outcome.cost }
            }
            Err(e) => {
                tally.error(format!("reward: {e}"));
                Job { tally, cost: 0.0 }
            }
        }
    }
}

impl PassWorkload for RepairPaper {
    fn jobs(&self) -> usize {
        self.order.len()
    }

    fn run_job(&mut self, job: usize, layers: Option<&mut Layers>) -> Job {
        match self.order[job] {
            "data" => self.data_repair(layers),
            "reward" => self.reward_repair(layers),
            other => self.model_repair(other, layers),
        }
    }
}
