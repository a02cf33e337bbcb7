//! Soundness harness for robust value iteration (interval models):
//! widening an uncertainty set must never *improve* the pessimistic value,
//! degenerate (`lo == hi`) sets must reproduce the scalar checker, and the
//! robust solve must be bitwise-deterministic — across repeated runs,
//! across transition insertion order, and across thread counts.

use proptest::prelude::*;
use tml_conformance::test_support::ModelFamily;
use trusted_ml::checker::{CheckOptions, Checker};
use trusted_ml::logic::{parse_query, Query};
use trusted_ml::models::{Dtmc, DtmcBuilder, IntervalDtmc, IntervalDtmcBuilder};

/// A random 2-successor chain with an absorbing "goal" at the last state
/// (same generator shape as the fault-injection property tests). Edge
/// probabilities stay in `[0.05, 0.95]`, so the chain mixes fast enough
/// for tight value-iteration tolerances.
fn random_chain(seed: &[f64], n: usize) -> Dtmc {
    let mut b = DtmcBuilder::new(n);
    let mut k = 0;
    for s in 0..n {
        let t1 = ((seed[k] * n as f64) as usize).min(n - 1);
        let t2 = ((seed[k + 1] * n as f64) as usize).min(n - 1);
        let p = 0.05 + 0.9 * seed[k + 2];
        k += 3;
        if t1 == t2 {
            b.transition(s, t1, 1.0).unwrap();
        } else {
            b.transition(s, t1, p).unwrap();
            b.transition(s, t2, 1.0 - p).unwrap();
        }
    }
    b.label(n - 1, "goal").unwrap();
    b.build().unwrap()
}

fn reach_query() -> Query {
    parse_query("P=? [ F \"goal\" ]").unwrap()
}

/// A checker iterating far past the comparison tolerance, so value error
/// (≈ residual / spectral gap) stays below the asserted bounds.
fn tight_checker() -> Checker {
    Checker::with_options(CheckOptions { tolerance: 1e-14, ..CheckOptions::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Enlarging the uncertainty set can only give the adversary more
    /// freedom: the pessimistic value is monotonically non-increasing and
    /// the optimistic value non-decreasing in the interval half-width, at
    /// every state.
    #[test]
    fn widening_never_improves_the_pessimistic_value(
        seed in proptest::collection::vec(0.0_f64..1.0, 30),
        narrow_w in 0.0_f64..0.15,
        extra_w in 0.001_f64..0.15,
    ) {
        let n = 10;
        let d = random_chain(&seed, n);
        let q = reach_query();
        let narrow = IntervalDtmc::from_dtmc(&d, narrow_w);
        let wide = IntervalDtmc::from_dtmc(&d, narrow_w + extra_w);
        let bn = tight_checker().query_interval_dtmc(&narrow, &q).unwrap();
        let bw = tight_checker().query_interval_dtmc(&wide, &q).unwrap();
        for s in 0..n {
            let (lo_n, hi_n) = bn.at(s);
            let (lo_w, hi_w) = bw.at(s);
            prop_assert!(lo_w <= lo_n + 1e-9,
                "state {}: widening raised the pessimistic value {} -> {}", s, lo_n, lo_w);
            prop_assert!(hi_w >= hi_n - 1e-9,
                "state {}: widening lowered the optimistic value {} -> {}", s, hi_n, hi_w);
            prop_assert!(lo_n <= hi_n + 1e-9, "state {}: inverted bracket", s);
        }
    }

    /// With every interval collapsed to its point (`lo == hi`) the robust
    /// adversary has a single member to pick: both bracket ends must
    /// reproduce the scalar checker to 1e-10.
    #[test]
    fn degenerate_intervals_reproduce_the_scalar_checker(
        seed in proptest::collection::vec(0.0_f64..1.0, 30),
    ) {
        let n = 10;
        let d = random_chain(&seed, n);
        let q = reach_query();
        let exact = tight_checker().query_dtmc(&d, &q).unwrap();
        let bracket =
            tight_checker().query_interval_dtmc(&IntervalDtmc::degenerate(&d), &q).unwrap();
        for (s, &point) in exact.iter().enumerate() {
            let (lo, hi) = bracket.at(s);
            prop_assert!((hi - lo).abs() <= 1e-10,
                "state {}: degenerate bracket has width {}", s, hi - lo);
            prop_assert!((lo - point).abs() <= 1e-10,
                "state {}: robust {} vs scalar {}", s, lo, point);
        }
    }

    /// The robust solve is bitwise-deterministic: identical across repeated
    /// runs, across the serial and parallel numerics configurations, and
    /// across the order transitions were inserted in (the inner adversary
    /// accumulates in a canonical target order).
    #[test]
    fn robust_solve_is_bitwise_deterministic(
        seed in proptest::collection::vec(0.0_f64..1.0, 30),
        width in 0.01_f64..0.2,
    ) {
        let n = 10;
        let d = random_chain(&seed, n);
        let q = reach_query();
        let ball = IntervalDtmc::from_dtmc(&d, width);

        // The same set rebuilt with every row's transitions reversed.
        let mut b = IntervalDtmcBuilder::new(n);
        b.initial_state(ball.initial_state()).unwrap();
        for s in 0..n {
            for &(t, lo, hi) in ball.row(s).iter().rev() {
                b.transition(s, t, lo, hi).unwrap();
            }
            for label in ball.labeling().labels_of(s) {
                b.label(s, label).unwrap();
            }
        }
        let reversed = b.build().unwrap();

        // The vendored rayon stand-in reads RAYON_NUM_THREADS per call, so
        // this exercises the serial and the parallel configuration of the
        // numerics layer under the same query.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let parallel = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
        let rerun = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
        let reordered = tight_checker().query_interval_dtmc(&reversed, &q).unwrap();
        std::env::remove_var("RAYON_NUM_THREADS");

        for s in 0..n {
            let (lo, hi) = serial.at(s);
            for (name, other) in
                [("parallel", &parallel), ("rerun", &rerun), ("reordered", &reordered)]
            {
                let (ol, oh) = other.at(s);
                prop_assert_eq!(lo.to_bits(), ol.to_bits(),
                    "state {}: pessimistic differs from {} run", s, name);
                prop_assert_eq!(hi.to_bits(), oh.to_bits(),
                    "state {}: optimistic differs from {} run", s, name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The unbounded (topological, in-place) solve reaches the same fixed
    /// point as the synchronous step-bounded iteration run far enough:
    /// `F` and `F<=K` agree at a large `K`. Half-widths stay below the
    /// smallest leak of both families, so no member can trap a component
    /// and `K` steps leave a negligible tail.
    #[test]
    fn unbounded_bracket_matches_a_long_bounded_bracket(
        family in prop_oneof![Just(ModelFamily::LayeredScc), Just(ModelFamily::Absorbing)],
        seed in 0u64..10_000,
        width in 0.0_f64..0.02,
    ) {
        let d = family.generate(seed);
        let ball = IntervalDtmc::from_dtmc(&d, width);
        let unbounded = tight_checker().query_interval_dtmc(&ball, &reach_query()).unwrap();
        let bounded = tight_checker()
            .query_interval_dtmc(&ball, &parse_query("P=? [ F<=5000 \"goal\" ]").unwrap())
            .unwrap();
        for s in 0..d.num_states() {
            let ((ul, uh), (bl, bh)) = (unbounded.at(s), bounded.at(s));
            prop_assert!((ul - bl).abs() <= 1e-8, "state {}: pessimistic {} vs {}", s, ul, bl);
            prop_assert!((uh - bh).abs() <= 1e-8, "state {}: optimistic {} vs {}", s, uh, bh);
        }
    }
}
