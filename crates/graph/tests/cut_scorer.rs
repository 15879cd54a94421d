//! `CutScorer` against the ordered reference `cut_value_binary`, bit for
//! bit: on qualifying graphs (scored in integers) and on graphs that take
//! the fallback.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sophie_graph::cut::{cut_value_binary, CutScorer};
use sophie_graph::{Graph, GraphBuilder};

/// Weights every qualifying graph of the property draws from.
#[derive(Debug, Clone, Copy)]
enum Weights {
    Unit,
    PlusMinusOne,
    /// Nonzero multiples of 1/4 in [-3, 3].
    Quarters,
}

impl Weights {
    fn draw(self, rng: &mut StdRng) -> f64 {
        match self {
            Weights::Unit => 1.0,
            Weights::PlusMinusOne => {
                if rng.gen_bool(0.5) {
                    1.0
                } else {
                    -1.0
                }
            }
            Weights::Quarters => loop {
                let k: i32 = rng.gen_range(-12..=12);
                if k != 0 {
                    return f64::from(k) / 4.0;
                }
            },
        }
    }
}

/// Edge `(u, v)` is present with probability `density`; 1.0 gives a
/// complete graph, whose rows are all contiguous runs. Edges go in with
/// either endpoint first, in a shuffled order, so rows must be sorted.
fn pairs(n: usize, density: f64, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if density >= 1.0 || rng.gen_bool(density) {
                pairs.push(if rng.gen_bool(0.5) { (u, v) } else { (v, u) });
            }
        }
    }
    if density < 1.0 {
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
    }
    pairs
}

fn graph(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w).unwrap();
    }
    b.build().unwrap()
}

fn random_bits(n: usize, rng: &mut StdRng) -> Vec<bool> {
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

/// The scorer's result has the reference's bits.
fn assert_matches(scorer: &CutScorer<'_>, g: &Graph, bits: &[bool]) {
    let (got, want) = (scorer.score(bits), cut_value_binary(g, bits));
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "scored {got}, ordered {want}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_scores_equal_the_ordered_sum_bit_for_bit(
        n in 1_usize..48,
        density in prop_oneof![Just(1.0), Just(0.8), Just(0.3), Just(0.05)],
        weights in prop_oneof![
            Just(Weights::Unit),
            Just(Weights::PlusMinusOne),
            Just(Weights::Quarters)
        ],
        seed in 0_u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<_> = pairs(n, density, &mut rng)
            .into_iter()
            .map(|(u, v)| (u, v, weights.draw(&mut rng)))
            .collect();
        let g = graph(n, &edges);
        let scorer = CutScorer::new(&g);
        prop_assert!(scorer.is_exact());
        // Everyone on one side: no edge crosses, the ordered sum is -0.0.
        for side in [false, true] {
            let bits = vec![side; n];
            assert_matches(&scorer, &g, &bits);
            prop_assert!(scorer.score(&bits).is_sign_negative());
        }
        for _ in 0..16 {
            assert_matches(&scorer, &g, &random_bits(n, &mut rng));
        }
    }

    #[test]
    fn crossing_weights_that_cancel_score_positive_zero(
        n in 3_usize..40,
        density in prop_oneof![Just(1.0), Just(0.5), Just(0.1)],
        seed in 0_u64..u64::MAX,
    ) {
        // Draw the state first, then give the crossing edges weights that
        // sum to zero: k, k, -2k for an odd count, then pairs of ±k.
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = random_bits(n, &mut rng);
        let mut edges: Vec<_> = pairs(n, density, &mut rng)
            .into_iter()
            .map(|(u, v)| (u, v, Weights::Quarters.draw(&mut rng)))
            .collect();
        let crossing: Vec<usize> =
            (0..edges.len()).filter(|&i| bits[edges[i].0] != bits[edges[i].1]).collect();
        let mut rest = &crossing[..];
        if crossing.len() % 2 == 1 && crossing.len() >= 3 {
            let k = f64::from(rng.gen_range(1..=8)) / 4.0;
            for (&i, f) in crossing[..3].iter().zip([1.0, 1.0, -2.0]) {
                edges[i].2 = f * k;
            }
            rest = &crossing[3..];
        }
        for pair in rest.chunks_exact(2) {
            let k = f64::from(rng.gen_range(1..=8)) / 4.0;
            edges[pair[0]].2 = k;
            edges[pair[1]].2 = -k;
        }
        let g = graph(n, &edges);
        let scorer = CutScorer::new(&g);
        prop_assert!(scorer.is_exact());
        assert_matches(&scorer, &g, &bits);
        if crossing.len() >= 2 {
            prop_assert_eq!(scorer.score(&bits).to_bits(), 0.0_f64.to_bits());
        }
        for _ in 0..8 {
            assert_matches(&scorer, &g, &random_bits(n, &mut rng));
        }
    }

    #[test]
    fn graphs_that_do_not_qualify_take_the_fallback_and_still_match(
        n in 3_usize..32,
        density in prop_oneof![Just(1.0), Just(0.3)],
        odd in prop_oneof![
            Just(0.1),
            Just(0.0),
            Just(-0.0),
            Just(3.0 * f64::powi(2.0, 52)),
            Just(f64::powi(2.0, -60))
        ],
        seed in 0_u64..u64::MAX,
    ) {
        // One edge carries a weight that breaks the rule: a 0.1, a zero,
        // a weight past 2^53, or 2^-60, which needs p = 60 and so scales
        // each quarter beside it past 2^53. The rest are quarters.
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = pairs(n, density, &mut rng);
        let odd_at = rng.gen_range(0..pairs.len().max(1));
        let edges: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                let w = if i == odd_at { odd } else { Weights::Quarters.draw(&mut rng) };
                (u, v, w)
            })
            .collect();
        let g = graph(n, &edges);
        let scorer = CutScorer::new(&g);
        let alone = edges.len() == 1 && odd == f64::powi(2.0, -60);
        prop_assert!(edges.is_empty() || alone || !scorer.is_exact(), "weight {odd} qualified");
        for side in [false, true] {
            assert_matches(&scorer, &g, &vec![side; n]);
        }
        for _ in 0..8 {
            assert_matches(&scorer, &g, &random_bits(n, &mut rng));
        }
    }
}

#[test]
fn the_integer_bound_is_two_to_the_fifty_third() {
    let big = f64::powi(2.0, 52);
    // Σ|w| = 2^53: every partial sum is exact.
    let at_bound = graph(3, &[(0, 1, big), (1, 2, big)]);
    let scorer = CutScorer::new(&at_bound);
    assert!(scorer.is_exact());
    for bits in [[true, false, true], [true, false, false], [false; 3]] {
        assert_matches(&scorer, &at_bound, &bits);
    }
    // Σ|w| = 2^53 + 1: 2^52 + 2^52 + 1 rounds, so the fallback scores it.
    let past = graph(4, &[(0, 1, big), (1, 2, big), (2, 3, 1.0)]);
    let scorer = CutScorer::new(&past);
    assert!(!scorer.is_exact());
    let bits = [true, false, true, false];
    assert_matches(&scorer, &past, &bits);
    assert_eq!(scorer.score(&bits), 2.0 * big);
}

#[test]
fn non_finite_and_tiny_weights_take_the_fallback() {
    for w in [f64::INFINITY, f64::NAN, f64::MIN_POSITIVE / 4.0] {
        let g = graph(2, &[(0, 1, w)]);
        let scorer = CutScorer::new(&g);
        assert!(!scorer.is_exact(), "weight {w}");
        assert_matches(&scorer, &g, &[true, false]);
    }
    // Fine fractions still qualify while the total stays small.
    let g = graph(3, &[(0, 1, 0.375), (1, 2, f64::powi(2.0, -40))]);
    let scorer = CutScorer::new(&g);
    assert!(scorer.is_exact());
    assert_matches(&scorer, &g, &[true, false, true]);
}

#[test]
fn a_graph_without_edges_scores_negative_zero() {
    let g = GraphBuilder::new(4).build().unwrap();
    let scorer = CutScorer::new(&g);
    assert!(scorer.is_exact());
    assert_matches(&scorer, &g, &[true, false, true, false]);
}

#[test]
#[should_panic(expected = "length")]
fn a_state_of_the_wrong_length_panics() {
    let g = graph(3, &[(0, 1, 1.0)]);
    let _ = CutScorer::new(&g).score(&[true, false]);
}
