//! Bit-identity of the eigenvalue-dropout preprocessing.
//!
//! `symmetric_eigen` and `Preprocessor::transform` run their O(n³) loops
//! on the worker pool, but every output element goes through one fixed
//! sequence of floating-point operations — those of the plain serial
//! `tred2`/`tql2`/dot-product loops. These tests pin that contract twice:
//! against FNV-1a digests of the output bits recorded from those serial
//! loops, at 1, 2 and 4 threads, and across `SOPHIE_THREADS` values for
//! random symmetric matrices.
//!
//! Set `SOPHIE_PRINT_DIGESTS=1` to print the digests instead of checking
//! them.

use std::sync::Mutex;

use proptest::prelude::*;
use sophie::graph::coupling::{coupling_matrix, delta_diagonal};
use sophie::graph::generate::presets;
use sophie::graph::{Graph, GraphBuilder};
use sophie::linalg::eigen::symmetric_eigen;
use sophie::linalg::Matrix;
use sophie::pris::{DeltaVariant, Preprocessor};

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

/// FNV-1a over the bit patterns of `xs`.
fn fnv(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Dense symmetric matrix from a small LCG, with a non-zero diagonal.
fn lcg_symmetric(n: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) as f64) / f64::from(u32::MAX) - 0.5
    };
    let raw = Matrix::from_fn(n, n, |_, _| next());
    Matrix::from_fn(n, n, |r, c| raw[(r, c)] + raw[(c, r)])
}

/// `Δ_ii = Σ_{j≠i} |a_ij|`.
fn off_diagonal_abs_sums(a: &Matrix) -> Vec<f64> {
    (0..a.rows())
        .map(|r| {
            (0..a.cols())
                .filter(|&c| c != r)
                .map(|c| a[(r, c)].abs())
                .sum()
        })
        .collect()
}

/// Digests of one instance: eigenvalues, eigenvectors, and `C` at two
/// (variant, α) settings.
fn digests(k: &Matrix, delta: &[f64]) -> [u64; 4] {
    let eig = symmetric_eigen(k).unwrap();
    let gersh = Preprocessor::new(k, delta.to_vec(), DeltaVariant::Gershgorin).unwrap();
    let sorted = Preprocessor::new(k, delta.to_vec(), DeltaVariant::SortedPerNode).unwrap();
    [
        fnv(&eig.values),
        fnv(eig.vectors.as_slice()),
        fnv(gersh.transform(0.0).unwrap().as_slice()),
        fnv(sorted.transform(0.5).unwrap().as_slice()),
    ]
}

/// `(label, [values, vectors, C Gershgorin α=0, C sorted α=0.5])`,
/// recorded from the serial loops; `C` multiplied every eigenvalue's
/// column, dropped ones included, when the last two were recorded.
const GOLDEN: &[(&str, [u64; 4])] = &[
    (
        "lcg1",
        [
            0xa410_9899_6766_2d3b,
            0xaab1_6932_29ba_1db8,
            0xa8c7_f832_281a_39c5,
            0xa8c7_f832_281a_39c5,
        ],
    ),
    (
        "lcg2",
        [
            0x5f29_847b_feac_5c6b,
            0xbb9e_07d5_b329_6101,
            0x0c82_1078_4d8a_f5a5,
            0x3c8b_e2c3_17a5_7d1e,
        ],
    ),
    (
        "lcg7",
        [
            0x70b5_b98f_4b86_b5b0,
            0x7658_3879_cc41_b716,
            0xaaa7_140b_1d10_286a,
            0xba2b_6f78_4ef5_0d41,
        ],
    ),
    (
        "lcg64",
        [
            0x2498_fa37_ffeb_e63f,
            0x32ce_decb_d1c8_6c20,
            0x36c5_71da_b457_4345,
            0xc55d_934e_2e28_8bdf,
        ],
    ),
    (
        "lcg150",
        [
            0xf807_1348_a329_d6d5,
            0xf21e_012a_48e2_6c58,
            0x8d60_938b_38a3_b7c2,
            0x560f_3d8f_0173_bb4f,
        ],
    ),
    (
        "K512",
        [
            0x0095_0e8c_e133_4dab,
            0x896f_9f18_f0a3_c63c,
            0xe35c_8223_cf84_c9bd,
            0xd0f2_6047_3a06_0feb,
        ],
    ),
    (
        "G1",
        [
            0x11be_7e7e_72a6_c05c,
            0x98a9_0fb0_2d1d_0436,
            0xb127_9513_b145_30c0,
            0x3d84_7ccf_216c_17f8,
        ],
    ),
    (
        "2xK100",
        [
            0xf248_bbda_e2e5_76ff,
            0xd7ce_1d9c_47d0_ba8f,
            0xcc0a_660b_349c_1fed,
            0x3e3e_fb4f_151a_c664,
        ],
    ),
    (
        "edgeless200",
        [
            0xa947_e505_90de_8025,
            0x8b15_053c_2ae3_dea5,
            0x55e6_01eb_0cb6_cb25,
            0x55e6_01eb_0cb6_cb25,
        ],
    ),
];

fn instances() -> Vec<(String, Matrix, Vec<f64>)> {
    let mut out: Vec<(String, Matrix, Vec<f64>)> = [1usize, 2, 7, 64, 150]
        .iter()
        .map(|&n| {
            let a = lcg_symmetric(n, n as u64 + 17);
            let delta = off_diagonal_abs_sums(&a);
            (format!("lcg{n}"), a, delta)
        })
        .collect();
    let k512 = presets::k_graph(512, 1).unwrap();
    out.push(("K512".into(), coupling_matrix(&k512), delta_diagonal(&k512)));
    let g1 = presets::g1_like(1).unwrap();
    out.push(("G1".into(), coupling_matrix(&g1), delta_diagonal(&g1)));
    // Instances whose C has exact zeros: the transform of a graph keeps
    // its components apart, and an edgeless graph's is all zero.
    let two = two_components(100);
    out.push(("2xK100".into(), coupling_matrix(&two), delta_diagonal(&two)));
    let edgeless = GraphBuilder::new(200).build().unwrap();
    out.push((
        "edgeless200".into(),
        coupling_matrix(&edgeless),
        delta_diagonal(&edgeless),
    ));
    out
}

/// Two disconnected complete ±1 graphs of `half` nodes each, on the
/// first and the last `half` nodes: the reduction keeps them apart, so
/// the eigenvectors have exact zeros of both signs and `C` is exactly
/// zero between the components.
fn two_components(half: usize) -> Graph {
    let mut b = GraphBuilder::new(2 * half);
    for (part, seed) in [(0, 2), (1, 3)] {
        let k = presets::k_graph(half, seed).unwrap();
        for e in k.edges() {
            b.add_edge(e.u + part * half, e.v + part * half, e.w)
                .unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn preprocessing_matches_recorded_digests_at_every_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let print = std::env::var_os("SOPHIE_PRINT_DIGESTS").is_some();
    for (label, k, delta) in instances() {
        for threads in ["1", "2", "4"] {
            let got = with_threads(threads, || digests(&k, &delta));
            if print {
                println!(
                    "    (\"{label}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]), // {threads}",
                    got[0], got[1], got[2], got[3]
                );
                continue;
            }
            let want = GOLDEN
                .iter()
                .find(|(l, _)| *l == label)
                .unwrap_or_else(|| panic!("no golden digest for {label}"))
                .1;
            assert_eq!(got, want, "{label} at SOPHIE_THREADS={threads}");
        }
    }
}

/// Strategy: a symmetric n×n matrix (n ≤ 96) with entries in [-5, 5].
fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-5.0_f64..5.0, n * n).prop_map(move |v| {
            let raw = Matrix::from_vec(n, n, v).unwrap();
            Matrix::from_fn(n, n, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_symmetric_matrices_decompose_identically_across_thread_counts(
        a in symmetric_matrix(96),
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let delta = off_diagonal_abs_sums(&a);
        let serial = with_threads("1", || digests(&a, &delta));
        for threads in ["2", "4"] {
            let parallel = with_threads(threads, || digests(&a, &delta));
            prop_assert_eq!(serial, parallel, "n = {} at SOPHIE_THREADS={}", a.rows(), threads);
        }
    }
}
