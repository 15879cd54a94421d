//! What one workload run measured, and how it is printed: a table on
//! stdout, the one-line JSON result as the last line, and an optional
//! appended record for `compare`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use sophie_serve::json::escape;

use crate::spec::{MetricSpec, Spec};
use crate::stats;
use crate::trace::{self, Span};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Measured>,
    /// Operations attempted in the measured phases (jobs or requests).
    pub attempted: u64,
    /// Failed operations: rejected, failed, cancelled, transport errors and
    /// failed correctness checks.
    pub failed: u64,
    /// One line per failed correctness check.
    pub errors: Vec<String>,
    /// Why the measurement itself cannot be trusted (the outputs may still
    /// be correct); `compare` skips such runs.
    pub invalid: Vec<String>,
    /// Facts recorded next to the numbers (kernel plans, instance shapes).
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                unit,
                samples,
            },
        );
    }

    /// Puts the `q`-quantile of `values` under `name` if at least ten
    /// samples lie beyond it (see [`stats::tail_percentile`]).
    pub fn put_tail(&mut self, name: &str, values: &[f64], q: f64) {
        let sorted = stats::sorted(values);
        if let Some(v) = stats::tail_percentile(&sorted, q) {
            self.put(name, v, "ms", sorted.len());
        }
    }

    /// Records a correctness check; a failure counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Records a condition the measurement needs; a failure marks the run
    /// invalid without counting as an incorrect output.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.invalid.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.insert(key.to_string(), value.into());
    }

    /// Per-layer timings from the spans: each layer's mean self time per
    /// span, plus the share of `root` spans their children cover.
    pub fn put_span_metrics(&mut self, spans: &[Span], root: &str) {
        const LAYERS: [(&str, &str, &str, f64); 12] = [
            ("setup.warmup", "setup.warmup_ms", "ms", 1e-6),
            ("graph.generate", "graph.generate_ms", "ms", 1e-6),
            ("graph.gset_parse", "graph.gset_parse_us", "us", 1e-3),
            ("pris.eigen", "pris.eigen_ms", "ms", 1e-6),
            ("pris.transform", "pris.transform_ms", "ms", 1e-6),
            ("core.tile", "core.tile_ms", "ms", 1e-6),
            ("core.schedule", "core.schedule_ms", "ms", 1e-6),
            ("core.solve", "core.solve_ms", "ms", 1e-6),
            ("problems.compile", "problems.compile_us", "us", 1e-3),
            ("problems.decode", "problems.decode_us", "us", 1e-3),
            ("serve.parse", "serve.parse_us", "us", 1e-3),
            ("serve.build_solver", "serve.build_solver_us", "us", 1e-3),
        ];
        let self_times = trace::self_times(spans);
        for (span, metric, unit, scale) in LAYERS {
            if let Some(&(ns, count)) = self_times.get(span) {
                self.put(metric, ns as f64 * scale / count as f64, unit, count);
            }
        }
        let roots = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == root)
            .count();
        let rooted: Vec<Span> = spans
            .iter()
            .filter(|s| s.parent != 0 || s.name == root)
            .copied()
            .collect();
        self.put(
            "trace.coverage_frac",
            trace::coverage(&rooted),
            "frac",
            roots,
        );
    }
}

/// Facts about the host and the build, recorded with every result.
#[derive(Debug, Clone)]
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub host_cores: usize,
    pub git_revision: String,
}

fn json_num(v: f64) -> String {
    sophie_serve::Json::Num(v).to_string()
}

/// The metrics `set` names, taken from `outcome`. A per-layer metric the
/// workload does not exercise reads 0 with no samples; a missing
/// end-to-end metric, a non-finite value or a unit that disagrees with the
/// spec is a bug in the benchmark.
fn select<'s>(
    set: &'s [MetricSpec],
    outcome: &Outcome,
    required: bool,
) -> Result<Vec<(&'s MetricSpec, Measured)>, String> {
    set.iter()
        .map(|m| {
            let got = match outcome.metrics.get(&m.name) {
                Some(got) => *got,
                None if required => return Err(format!("metric {} was not measured", m.name)),
                None => Measured {
                    value: 0.0,
                    unit: "",
                    samples: 0,
                },
            };
            if got.samples > 0 && got.unit != m.unit {
                return Err(format!(
                    "metric {}: unit {} but the spec says {}",
                    m.name, got.unit, m.unit
                ));
            }
            if !got.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            Ok((m, got))
        })
        .collect()
}

/// Prints the table and the final JSON line; appends a record to `out`.
/// Returns whether every correctness check passed.
///
/// # Errors
///
/// Benchmark bugs (see [`select`]) and I/O errors writing `out`.
pub fn emit(
    spec: &Spec,
    info: &RunInfo<'_>,
    outcome: &Outcome,
    out: Option<&Path>,
) -> Result<bool, String> {
    let end_to_end = select(&spec.end_to_end, outcome, true)?;
    let per_layer = select(&spec.per_layer, outcome, false)?;
    let correct = outcome.errors.is_empty();

    println!(
        "workload {} seed {} over {} s, tracing {}, {} cores",
        info.workload,
        info.seed,
        info.seconds,
        if info.traced { "on" } else { "off" },
        info.host_cores
    );
    // The table shows every metric the run measured; the last line carries
    // the set the run was asked for.
    let shown = if info.traced { &per_layer } else { &end_to_end };
    let row = |m: &MetricSpec, got: &Measured| {
        let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
        println!(
            "    {:<26} {:>16.6} {:<10} n={}{bound}",
            m.name, got.value, m.unit, got.samples
        );
    };
    println!("  end to end, gated:");
    for (m, got) in &end_to_end {
        row(m, got);
    }
    println!("  ungated:");
    for (m, got) in per_layer.iter().filter(|(_, got)| got.samples > 0) {
        row(m, got);
    }
    for (key, value) in &outcome.notes {
        println!("  note {key}: {value}");
    }
    if correct {
        println!(
            "correctness: all checks passed ({} operations)",
            outcome.attempted
        );
    } else {
        for e in &outcome.errors {
            println!("correctness FAILED: {e}");
        }
    }
    for reason in &outcome.invalid {
        println!("measurement INVALID: {reason}");
    }

    let render = |rows: &[(&MetricSpec, Measured)], with_samples: bool| -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(m, got)| {
                let samples = if with_samples {
                    format!(",\"samples\":{}", got.samples)
                } else {
                    String::new()
                };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"{samples}}}",
                    escape(&m.name),
                    json_num(got.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    };

    if let Some(path) = out {
        let notes: Vec<String> = outcome
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        let list = |items: &[String]| -> String {
            let quoted: Vec<String> = items.iter().map(|e| format!("\"{}\"", escape(e))).collect();
            quoted.join(",")
        };
        let mut all = end_to_end.clone();
        all.extend(per_layer.iter().copied());
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"host_cores\":{},\
             \"git_revision\":\"{}\",\"correct\":{correct},\"valid\":{},\"attempted\":{},\"failed\":{},\
             \"errors\":[{}],\"invalid\":[{}],\"notes\":{{{}}},\"metrics\":{}}}",
            escape(info.workload),
            info.seed,
            json_num(info.seconds),
            info.traced,
            info.host_cores,
            escape(&info.git_revision),
            outcome.invalid.is_empty(),
            outcome.attempted,
            outcome.failed,
            list(&outcome.errors),
            list(&outcome.invalid),
            notes.join(","),
            render(&all, true)
        );
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted,
        outcome.failed,
        render(shown, false)
    );
    Ok(correct)
}
