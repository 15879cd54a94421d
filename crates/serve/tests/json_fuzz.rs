//! Untrusted-input properties of the wire parser: `Json::parse` and
//! `parse_request` answer every string — random text over JSON's alphabet
//! and mutated valid submit lines — with a value or a typed error, never a
//! panic; every value the renderer writes parses back to the same text;
//! and `problem` payloads' `random` blocks of any size compile or get a
//! typed error under the daemon's default limits, never a panic or an
//! allocation failure.

use proptest::prelude::*;
use proptest::strategy::TestRng;
use sophie_graph::io::ParseLimits;
use sophie_serve::problems::compile_problem;
use sophie_serve::protocol::parse_request;
use sophie_serve::{Json, ServeConfig, ServeError};

/// Structural characters, escape letters, digits, whitespace, control
/// bytes and multi-byte text: what a parser must get through.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', ' ', '\n', '\t', '\r', '\u{0}', '\u{1}',
    '\u{1f}', '\u{7f}', 'n', 'u', 'l', 't', 'r', 'e', 'f', 'a', 's', 'b', 'E', '0', '1', '9', '.',
    '-', '+', 'é', '✓', '😀', '\u{fffd}',
];

fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

fn any_text() -> impl Strategy<Value = String> {
    (0usize..96)
        .prop_flat_map(|n| proptest::collection::vec(any_char(), n))
        .prop_map(|chars| chars.into_iter().collect())
}

/// Valid submit lines of every shape the daemon and router accept.
const SUBMITS: &[&str] = &[
    r#"{"cmd":"submit","id":"j1","solver":"sa","graph":{"named":"K100"},"seed":7,"target":190.5,"deadline_ms":250,"max_iterations":50,"stream":true,"config":{"sweeps":10,"beta0":0.5}}"#,
    r#"{"cmd":"submit","id":"j\"2é","solver":"sophie","graph":{"gset":"3 2\n1 2 1\n2 3 -1\n"}}"#,
    r#"{"cmd":"submit","id":"p","solver":"sa","problem":{"kind":"ldpc","random":{"n":12,"wc":2,"wr":3,"flips":1,"seed":1}},"seed":3}"#,
    r#"{"cmd":"cancel","id":"j1"}"#,
    r#"{"cmd":"stats"}"#,
];

/// One edit of a line: delete, insert, replace or duplicate a span, or cut
/// the line short. Positions are taken modulo the current length.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Delete(usize, usize),
    Insert(usize, char),
    Replace(usize, char),
    Duplicate(usize, usize),
    Truncate(usize),
}

fn any_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..4096, 1usize..8).prop_map(|(at, n)| Edit::Delete(at, n)),
        (0usize..4096, any_char()).prop_map(|(at, c)| Edit::Insert(at, c)),
        (0usize..4096, any_char()).prop_map(|(at, c)| Edit::Replace(at, c)),
        (0usize..4096, 1usize..16).prop_map(|(at, n)| Edit::Duplicate(at, n)),
        (0usize..4096).prop_map(Edit::Truncate),
    ]
}

fn mutate(line: &str, edits: &[Edit]) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for &edit in edits {
        let len = chars.len();
        let at = |i: usize| if len == 0 { 0 } else { i % len };
        match edit {
            Edit::Delete(i, n) => {
                let i = at(i);
                chars.drain(i..(i + n).min(len));
            }
            Edit::Insert(i, c) => chars.insert(at(i), c),
            Edit::Replace(i, c) if len > 0 => chars[at(i)] = c,
            Edit::Replace(..) => {}
            Edit::Duplicate(i, n) => {
                let i = at(i);
                let span: Vec<char> = chars[i..(i + n).min(len)].to_vec();
                chars.splice(i..i, span);
            }
            Edit::Truncate(i) => chars.truncate(at(i)),
        }
    }
    chars.into_iter().collect()
}

/// Both parsers must return; a request error must be a protocol error.
fn check_untrusted(line: &str) {
    let _ = Json::parse(line);
    if let Err(e) = parse_request(line) {
        assert!(
            matches!(e, ServeError::Protocol { .. }),
            "{line:?}: untyped error {e}"
        );
    }
}

/// Generates JSON values covering the renderer's rules: escaped strings,
/// finite doubles including `-0` and subnormals, exact integers up to
/// 2^53, and nesting up to the parser's depth limit of 64.
struct Values;

const MAX_DEPTH: usize = 64;

fn any_f64(rng: &mut TestRng) -> f64 {
    let sign = if (0u8..2).generate(rng) == 0 {
        1.0
    } else {
        -1.0
    };
    match (0u8..5).generate(rng) {
        0 => sign * 0.0,
        1 => sign * f64::from_bits((1u64..1 << 52).generate(rng)), // subnormal
        2 => sign * f64::from(i32::MAX) * (-1e3f64..1e3).generate(rng),
        3 => (-1e6f64..1e6).generate(rng).round() / 1e3,
        _ => {
            let v = f64::from_bits((0u64..u64::MAX).generate(rng));
            if v.is_finite() {
                v
            } else {
                sign * f64::MAX
            }
        }
    }
}

fn gen_value(rng: &mut TestRng, depth: usize) -> Json {
    // Leaves only from depth 4; the deep chain only at the root.
    let arms = match depth {
        0 => 9,
        1..=3 => 8,
        _ => 6,
    };
    match (0u8..arms).generate(rng) {
        0 => Json::Null,
        1 => Json::Bool((0u8..2).generate(rng) == 1),
        2 => Json::Num(any_f64(rng)),
        3 => Json::Int((0u64..=1 << 53).generate(rng)),
        4 | 5 => Json::Str(any_text().generate(rng)),
        6 => {
            let n = (0usize..5).generate(rng);
            Json::Arr((0..n).map(|_| gen_value(rng, depth + 1)).collect())
        }
        7 => {
            let n = (0usize..5).generate(rng);
            Json::Obj(
                (0..n)
                    .map(|_| (any_text().generate(rng), gen_value(rng, depth + 1)))
                    .collect(),
            )
        }
        _ => {
            // A chain of containers as deep as the parser accepts.
            let mut v = gen_value(rng, 4);
            for level in 0..MAX_DEPTH {
                v = if level % 2 == 0 {
                    Json::Arr(vec![v])
                } else {
                    Json::Obj(vec![(any_text().generate(rng), v)])
                };
            }
            v
        }
    }
}

impl Strategy for Values {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        gen_value(rng, 0)
    }
}

/// A generator size: small enough to build, or any `u64`, log-uniform so
/// that every magnitude up to the allocation-sized ones turns up.
fn any_size() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        (1u32..=64, 0u64..=u64::MAX).prop_map(|(bits, r)| r >> (64 - bits)),
    ]
}

/// A `problem` payload with a `random` block of kind `kind` (0..4), taking
/// its sizes from `sizes` in order.
fn random_problem(kind: usize, sizes: &[u64], seed: u64, density: f64) -> Json {
    let (name, keys): (&str, &[&str]) = match kind {
        0 => ("qubo", &["n"]),
        1 => ("max-cut", &["n", "m"]),
        2 => ("coloring", &["nodes", "edges", "colors"]),
        _ => ("ldpc", &["n", "wc", "wr", "flips"]),
    };
    let mut block: Vec<(&str, Json)> = keys
        .iter()
        .zip(sizes)
        .map(|(&k, &v)| (k, v.into()))
        .collect();
    block.push(("seed", seed.into()));
    if name == "qubo" {
        block.push(("density", density.into()));
    }
    Json::obj([("kind", name.into()), ("random", Json::obj(block))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_gets_a_value_or_a_typed_error(text in any_text()) {
        check_untrusted(&text);
    }

    #[test]
    fn mutated_submit_lines_get_a_value_or_a_typed_error(
        line in (0..SUBMITS.len()).prop_map(|i| SUBMITS[i]),
        edits in (1usize..6).prop_flat_map(|n| proptest::collection::vec(any_edit(), n)),
    ) {
        check_untrusted(&mutate(line, &edits));
    }

    #[test]
    fn rendered_values_parse_back_to_the_same_text(value in Values) {
        let text = value.to_string();
        prop_assert!(!text.contains('\n'), "one line: {text}");
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        prop_assert_eq!(parsed.to_string(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_problem_blocks_compile_or_get_a_typed_error(
        kind in 0usize..4,
        sizes in proptest::collection::vec(any_size(), 4),
        seed in 0u64..1 << 53,
        density in 0.0f64..=1.0,
    ) {
        let config = ServeConfig::default();
        let limits = ParseLimits::new(config.max_instance_nodes, config.max_instance_edges);
        let text = random_problem(kind, &sizes, seed, density).to_string();
        if let Err(e) = compile_problem(&Json::parse(&text).unwrap(), &limits) {
            prop_assert!(
                matches!(e, ServeError::Protocol { .. } | ServeError::Graph(_)),
                "{text}: untyped error {e}"
            );
        }
    }
}

#[test]
fn valid_submit_lines_parse() {
    for line in SUBMITS {
        parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

#[test]
fn one_level_past_the_depth_limit_is_rejected() {
    let at_limit = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&at_limit).is_ok());
    let past = format!("[{at_limit}]");
    assert!(Json::parse(&past).is_err());
}
