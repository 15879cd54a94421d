//! `problem`-typed submits → the problem-compiler front end.
//!
//! A submit frame may replace `graph` with a `problem` object naming a
//! front-end `kind` (see [`sophie::problems::KINDS`]) plus a payload:
//! either an inline text document (where the domain has one) or a seeded
//! synthetic-generator block. The payload is compiled here — on the
//! replica, under the server's instance size limits — into the
//! [`IsingInstance`] the job actually runs on, and the winning state is
//! decoded back onto the result frame as a `problem` metrics object
//! inside the report JSON (so cached reports replay it verbatim).
//!
//! Payload shapes, mirroring the config layer's unknown-key rejection:
//!
//! ```text
//! {"kind":"qubo",     "text": "qubo 2 2\n1 1 -1\n1 2 2\n"}
//! {"kind":"qubo",     "random": {"n":64, "density":0.25, "seed":7}}
//! {"kind":"max-cut",  "gset": "3 2\n1 2 1\n2 3 -1\n"}
//! {"kind":"max-cut",  "random": {"n":64, "m":512, "seed":7}}
//! {"kind":"coloring", "random": {"nodes":24, "edges":60, "colors":4, "seed":7}}
//! {"kind":"ldpc",     "random": {"n":48, "wc":2, "wr":4, "flips":2, "seed":7}}
//! ```
//!
//! A `random` block's sizes come off the wire, so they are checked
//! against the same limits before anything is generated: each generator's
//! instance would have at least the nodes and edges its block names.

use sophie::problems::{
    ColoringProblem, IsingInstance, LdpcProblem, MaxCutProblem, ProblemSpec, QuboProblem,
};
use sophie_graph::io::ParseLimits;
use sophie_graph::GraphError;

use crate::error::{Result, ServeError};
use crate::json::Json;

/// Parses and compiles a `problem` payload under the server's instance
/// limits, returning the spec (for decoding) and the lowered instance
/// (whose graph the job runs on).
///
/// # Errors
///
/// [`ServeError::Protocol`] for unknown kinds, missing/unknown payload
/// keys, invalid generator parameters, or oversized instances.
pub fn compile_problem(
    payload: &Json,
    limits: &ParseLimits,
) -> Result<(ProblemSpec, IsingInstance)> {
    let kind = payload
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| protocol("`problem` must be an object with a string `kind`"))?;
    let spec = match kind {
        "qubo" => parse_qubo(payload, limits)?,
        "max-cut" => parse_maxcut(payload, limits)?,
        "coloring" => parse_coloring(payload, limits)?,
        "ldpc" => parse_ldpc(payload, limits)?,
        other => {
            return Err(protocol(&format!(
                "unknown problem kind {other:?} (supported: {})",
                sophie::problems::KINDS.join(", ")
            )))
        }
    };
    reject_unknown_keys(payload, kind)?;
    let instance = spec
        .compile()
        .map_err(|e| protocol(&format!("problem failed to compile: {e}")))?;
    check_size(
        limits,
        instance.graph().num_nodes(),
        instance.graph().num_edges(),
    )?;
    Ok((spec, instance))
}

/// Rejects an instance of `nodes` nodes and `edges` edges past `limits`.
///
/// # Errors
///
/// [`ServeError::Graph`] with [`GraphError::Oversized`] naming the first
/// count over its limit.
pub(crate) fn check_size(limits: &ParseLimits, nodes: usize, edges: usize) -> Result<()> {
    for (what, got, limit) in [
        ("nodes", nodes, limits.max_nodes),
        ("edges", edges, limits.max_edges),
    ] {
        if got > limit {
            return Err(ServeError::Graph(GraphError::Oversized {
                what,
                got,
                limit,
            }));
        }
    }
    Ok(())
}

fn protocol(message: &str) -> ServeError {
    ServeError::Protocol {
        message: message.to_string(),
    }
}

/// Every payload key must belong to the kind's schema — a typo must not
/// silently fall back to a default, matching the config layer.
fn reject_unknown_keys(payload: &Json, kind: &str) -> Result<()> {
    let allowed: &[&str] = match kind {
        "qubo" => &["kind", "text", "random"],
        "max-cut" => &["kind", "gset", "random"],
        "coloring" | "ldpc" => &["kind", "random"],
        _ => &["kind"],
    };
    let members = payload
        .as_obj()
        .ok_or_else(|| protocol("`problem` must be an object"))?;
    for (k, _) in members {
        if !allowed.contains(&k.as_str()) {
            return Err(protocol(&format!(
                "unknown `problem` field `{k}` for kind {kind:?}"
            )));
        }
    }
    Ok(())
}

/// Pulls a required non-negative integer out of a `random` block.
fn random_u64(block: &Json, kind: &str, key: &str) -> Result<u64> {
    block.get(key).and_then(Json::as_u64).ok_or_else(|| {
        protocol(&format!(
            "{kind} `random` needs a non-negative integer `{key}`"
        ))
    })
}

/// The `random` generator block, with its own unknown-key rejection.
fn random_block<'a>(payload: &'a Json, kind: &str, allowed: &[&str]) -> Result<&'a Json> {
    let block = payload
        .get("random")
        .ok_or_else(|| protocol(&format!("{kind} problem needs a payload")))?;
    let members = block
        .as_obj()
        .ok_or_else(|| protocol(&format!("{kind} `random` must be an object")))?;
    for (k, _) in members {
        if !allowed.contains(&k.as_str()) {
            return Err(protocol(&format!("unknown {kind} `random` field `{k}`")));
        }
    }
    Ok(block)
}

fn parse_qubo(payload: &Json, limits: &ParseLimits) -> Result<ProblemSpec> {
    if let Some(text) = payload.get("text").and_then(Json::as_str) {
        if payload.get("random").is_some() {
            return Err(protocol("qubo problem takes `text` or `random`, not both"));
        }
        let p = QuboProblem::from_text(text, limits)
            .map_err(|e| protocol(&format!("qubo text: {e}")))?;
        return Ok(ProblemSpec::Qubo(p));
    }
    let block = random_block(payload, "qubo", &["n", "density", "seed"])?;
    let n = random_u64(block, "qubo", "n")? as usize;
    let density = block
        .get("density")
        .and_then(Json::as_f64)
        .ok_or_else(|| protocol("qubo `random` needs a number `density`"))?;
    let seed = random_u64(block, "qubo", "seed")?;
    if n == 0 || n > limits.max_nodes {
        return Err(protocol(&format!(
            "qubo `random` n must be in 1..={}",
            limits.max_nodes
        )));
    }
    if !(0.0..=1.0).contains(&density) {
        return Err(protocol("qubo `random` density must be in [0, 1]"));
    }
    Ok(ProblemSpec::Qubo(QuboProblem::random(n, density, seed)))
}

fn parse_maxcut(payload: &Json, limits: &ParseLimits) -> Result<ProblemSpec> {
    if let Some(gset) = payload.get("gset").and_then(Json::as_str) {
        if payload.get("random").is_some() {
            return Err(protocol(
                "max-cut problem takes `gset` or `random`, not both",
            ));
        }
        let p = MaxCutProblem::from_text(gset, limits)
            .map_err(|e| protocol(&format!("max-cut gset: {e}")))?;
        return Ok(ProblemSpec::MaxCut(p));
    }
    let block = random_block(payload, "max-cut", &["n", "m", "seed"])?;
    let n = random_u64(block, "max-cut", "n")? as usize;
    let m = random_u64(block, "max-cut", "m")? as usize;
    let seed = random_u64(block, "max-cut", "seed")?;
    check_size(limits, n, m)?;
    let p =
        MaxCutProblem::random(n, m, seed).map_err(|e| protocol(&format!("max-cut random: {e}")))?;
    Ok(ProblemSpec::MaxCut(p))
}

fn parse_coloring(payload: &Json, limits: &ParseLimits) -> Result<ProblemSpec> {
    let block = random_block(payload, "coloring", &["nodes", "edges", "colors", "seed"])?;
    let nodes = random_u64(block, "coloring", "nodes")? as usize;
    let edges = random_u64(block, "coloring", "edges")? as usize;
    let colors = random_u64(block, "coloring", "colors")? as usize;
    let seed = random_u64(block, "coloring", "seed")?;
    // One spin per node and color; each conflict edge couples its ends'
    // spins color by color. Zero colors is invalid, but the generator
    // still runs first, so it is held to the block's own sizes.
    let per_color = colors.max(1);
    let (spins, couplings) = (
        nodes.saturating_mul(per_color),
        edges.saturating_mul(per_color),
    );
    check_size(limits, spins, couplings)?;
    let p = ColoringProblem::random(nodes, edges, colors, seed)
        .map_err(|e| protocol(&format!("coloring random: {e}")))?;
    Ok(ProblemSpec::Coloring(p))
}

fn parse_ldpc(payload: &Json, limits: &ParseLimits) -> Result<ProblemSpec> {
    let block = random_block(payload, "ldpc", &["n", "wc", "wr", "flips", "seed"])?;
    let n = random_u64(block, "ldpc", "n")? as usize;
    let wc = random_u64(block, "ldpc", "wc")? as usize;
    let wr = random_u64(block, "ldpc", "wr")? as usize;
    let flips = random_u64(block, "ldpc", "flips")? as usize;
    let seed = random_u64(block, "ldpc", "seed")?;
    // `wc` bands of `n / wr` checks, each with `wr / 2` auxiliary spins
    // coupled to its `wr` bits, couplings no other check shares.
    let checks = wc.saturating_mul(n / wr.max(1));
    let aux = checks.saturating_mul(wr / 2);
    check_size(limits, n.saturating_add(aux), aux.saturating_mul(wr))?;
    let p = LdpcProblem::random(n, wc, wr, flips, seed)
        .map_err(|e| protocol(&format!("ldpc random: {e}")))?;
    Ok(ProblemSpec::Ldpc(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> ParseLimits {
        ParseLimits::new(4096, 1 << 16)
    }

    fn compile(payload: &str) -> Result<(ProblemSpec, IsingInstance)> {
        compile_problem(&Json::parse(payload).unwrap(), &limits())
    }

    #[test]
    fn every_kind_compiles_from_the_wire() {
        for payload in [
            r#"{"kind":"qubo","text":"qubo 2 2\n1 1 -1\n1 2 2\n"}"#,
            r#"{"kind":"qubo","random":{"n":16,"density":0.3,"seed":7}}"#,
            r#"{"kind":"max-cut","gset":"3 2\n1 2 1\n2 3 -1\n"}"#,
            r#"{"kind":"max-cut","random":{"n":16,"m":40,"seed":7}}"#,
            r#"{"kind":"coloring","random":{"nodes":8,"edges":12,"colors":3,"seed":7}}"#,
            r#"{"kind":"ldpc","random":{"n":12,"wc":2,"wr":3,"flips":1,"seed":7}}"#,
        ] {
            let (spec, instance) = compile(payload).unwrap_or_else(|e| panic!("{payload}: {e}"));
            assert!(instance.graph().num_nodes() >= spec.compile().unwrap().num_problem_spins());
        }
    }

    #[test]
    fn unknown_kinds_and_keys_are_rejected() {
        for bad in [
            r#"{"kind":"sudoku"}"#,
            r#"{"kind":"qubo","random":{"n":4,"density":0.5,"seed":1},"extra":1}"#,
            r#"{"kind":"qubo","random":{"n":4,"density":0.5,"seed":1,"typo":2}}"#,
            r#"{"kind":"coloring","random":{"nodes":4,"edges":2,"colors":2}}"#,
            r#"{"kind":"qubo","text":"qubo 1 0\n","random":{"n":4,"density":0.5,"seed":1}}"#,
            r#"{"kind":"ldpc"}"#,
        ] {
            assert!(
                matches!(compile(bad), Err(ServeError::Protocol { .. })),
                "{bad} should be a protocol error"
            );
        }
    }

    #[test]
    fn oversized_problems_hit_the_instance_limits() {
        let payload = r#"{"kind":"coloring","random":{"nodes":40,"edges":80,"colors":4,"seed":1}}"#;
        let tight = ParseLimits::new(16, 1 << 16);
        let err = compile_problem(&Json::parse(payload).unwrap(), &tight).unwrap_err();
        assert!(matches!(err, ServeError::Graph(_)), "{err}");
        // Generator sizes that would exhaust memory (or take seconds) are
        // refused under the daemon's default limits before generating.
        let config = crate::ServeConfig::default();
        let limits = ParseLimits::new(config.max_instance_nodes, config.max_instance_edges);
        for payload in [
            r#"{"kind":"max-cut","random":{"n":100000000,"m":100000000000,"seed":1}}"#,
            r#"{"kind":"coloring","random":{"nodes":100000000,"edges":100000000000,"colors":4,"seed":1}}"#,
            r#"{"kind":"ldpc","random":{"n":1000000000,"wc":2,"wr":4,"flips":1,"seed":1}}"#,
            r#"{"kind":"max-cut","random":{"n":5000,"m":2000000,"seed":1}}"#,
        ] {
            let start = std::time::Instant::now();
            let err = compile_problem(&Json::parse(payload).unwrap(), &limits).unwrap_err();
            assert!(matches!(err, ServeError::Graph(_)), "{payload}: {err}");
            let elapsed = start.elapsed();
            assert!(
                elapsed < std::time::Duration::from_millis(100),
                "{payload}: {elapsed:?}"
            );
        }
    }

    #[test]
    fn invalid_generator_parameters_are_protocol_errors() {
        for bad in [
            r#"{"kind":"qubo","random":{"n":0,"density":0.5,"seed":1}}"#,
            r#"{"kind":"qubo","random":{"n":4,"density":1.5,"seed":1}}"#,
            r#"{"kind":"ldpc","random":{"n":13,"wc":2,"wr":3,"flips":0,"seed":1}}"#,
            r#"{"kind":"max-cut","random":{"n":4,"m":99,"seed":1}}"#,
        ] {
            assert!(
                matches!(compile(bad), Err(ServeError::Protocol { .. })),
                "{bad} should be a protocol error"
            );
        }
    }
}
