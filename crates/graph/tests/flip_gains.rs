//! `FlipGains` against the reference `flip_gain`, bit for bit, for every
//! node after each flip of a random flip sequence: on graphs with an
//! integer form (gains from `i64` fields) and on graphs that take the
//! fallback.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sophie_graph::cut::{flip_gain, random_spins, FlipGains};
use sophie_graph::{Graph, GraphBuilder};

/// The graph kinds the property draws from.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// ±1 weights (the K-graphs).
    PlusMinusOne,
    /// Unit weights (GSET-style max-cut).
    Unit,
    /// Nonzero multiples of 1/16 in [-1, 1], plus a last node joined to
    /// every other one, as a lowered QUBO's couplings and ancilla are.
    Sixteenths,
    /// Nonzero multiples of 1/4 in [-3, 3], with node 0 left isolated.
    Isolated,
    /// Unit weights but one of 0.1: no integer form.
    Tenth,
}

impl Kind {
    fn weight(self, rng: &mut StdRng) -> f64 {
        let nonzero = |rng: &mut StdRng, k: i32| loop {
            let i: i32 = rng.gen_range(-k..=k);
            if i != 0 {
                return f64::from(i);
            }
        };
        match self {
            Kind::PlusMinusOne => nonzero(rng, 1),
            Kind::Unit | Kind::Tenth => 1.0,
            Kind::Sixteenths => nonzero(rng, 16) / 16.0,
            Kind::Isolated => nonzero(rng, 12) / 4.0,
        }
    }

    fn graph(self, n: usize, density: f64, rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(n);
        let first = usize::from(matches!(self, Kind::Isolated));
        for u in first..n {
            for v in (u + 1)..n {
                let ancilla = matches!(self, Kind::Sixteenths) && v == n - 1;
                if ancilla || density >= 1.0 || rng.gen_bool(density) {
                    let tenth = matches!(self, Kind::Tenth) && b.num_edges() == 0;
                    let w = if tenth { 0.1 } else { self.weight(rng) };
                    b.add_edge(u, v, w).unwrap();
                }
            }
        }
        b.build().unwrap()
    }
}

/// Every node's gain has the reference's bits.
fn assert_all_match(state: &FlipGains<'_>, g: &Graph, when: &str) {
    for u in 0..g.num_nodes() {
        let (got, want) = (state.gain(u), flip_gain(g, state.spins(), u));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "node {u} {when}: tracked {got}, ordered {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tracked_gains_equal_flip_gain_bit_for_bit_after_every_flip(
        n in 2_usize..40,
        density in prop_oneof![Just(1.0), Just(0.5), Just(0.1)],
        kind in prop_oneof![
            Just(Kind::PlusMinusOne),
            Just(Kind::Unit),
            Just(Kind::Sixteenths),
            Just(Kind::Isolated),
            Just(Kind::Tenth)
        ],
        seed in 0_u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = kind.graph(n, density, &mut rng);
        let tenth = g.edges().any(|e| e.w == 0.1);
        let mut state = FlipGains::new(&g, random_spins(n, &mut rng));
        prop_assert_eq!(state.is_exact(), !tenth);
        assert_all_match(&state, &g, "at the start");
        for step in 0..3 * n {
            let u = rng.gen_range(0..n);
            state.flip(u);
            assert_all_match(&state, &g, &format!("after flip {step} (node {u})"));
        }
        let spins = random_spins(n, &mut rng);
        state.reset(&spins);
        prop_assert_eq!(state.spins(), &spins[..]);
        assert_all_match(&state, &g, "after a reset");
    }
}

/// Unit weights on even degrees cancel to `+0.0`; an isolated node's gain
/// is `-0.0`.
#[test]
fn zero_gains_carry_flip_gains_sign() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 1.0).unwrap();
    b.add_edge(0, 2, 1.0).unwrap();
    let g = b.build().unwrap();
    let state = FlipGains::new(&g, vec![1, 1, -1, 1]);
    assert!(state.is_exact());
    assert_eq!(state.gain(0).to_bits(), 0.0_f64.to_bits());
    assert_eq!(state.gain(3).to_bits(), (-0.0_f64).to_bits());
    assert_all_match(&state, &g, "with zero gains");
}

/// Fields reach `2^53` at the edge of the integer form, and stay exact.
#[test]
fn fields_at_the_exactness_limit_stay_exact() {
    let big = 2.0_f64.powi(51);
    let mut b = GraphBuilder::new(5);
    for v in 1..5 {
        b.add_edge(0, v, big).unwrap();
    }
    let g = b.build().unwrap();
    let mut state = FlipGains::new(&g, vec![1, -1, -1, -1, -1]);
    assert!(state.is_exact());
    assert_eq!(state.gain(0), -(2.0_f64.powi(53)));
    for u in [1, 0, 3, 0, 2, 4] {
        state.flip(u);
        assert_all_match(&state, &g, &format!("after flipping {u}"));
    }
}
