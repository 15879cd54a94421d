//! `benchmark compare BASE.jsonl NEW.jsonl`: one row per metric ×
//! workload, the end-to-end metrics judged with the bounds of
//! `BENCHMARK.json`, the ungated ones by the gain rule alone.
//!
//! Each file holds the records `run --out` appended, one run per line.
//! Traced runs are skipped: their end-to-end numbers include tracing. Every
//! record of both files must share one run length and one host core count.
//! A workload's runs pair up by their position in each file, before runs
//! marked invalid are dropped, so one invalid run costs one pair and never
//! shifts the pairs after it. A row reports each side's median and
//! quartiles over its valid runs, the share of pairs the new side wins,
//! and a verdict:
//!
//! * `unresolved` — fewer than [`MIN_PAIRS`] pairs, or either side's
//!   quartile spread exceeds the bound and not every new run beats every
//!   base run;
//! * `REGRESSION` — the new median is worse than the base median by more
//!   than the bound;
//! * `gain` — the new side wins at least nine tenths of the pairs and the
//!   medians differ by more than the base's quartile distance (or, with
//!   spreads beyond the bound, every new run beats every base run);
//! * `no regression` — otherwise, for a gated metric;
//! * `not gated` — otherwise, for a metric without a bound.

use std::collections::BTreeMap;
use std::process::ExitCode;

use sophie_serve::Json;

use crate::spec::{MetricSpec, Spec};
use crate::stats;

/// Pairs a verdict needs; with fewer, a row stays unresolved.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    NoRegression,
    Regression,
    Unresolved,
    NotGated,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoRegression => "no regression",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NotGated => "not gated",
        }
    }
}

/// Judges `new` against `base` (each side's valid runs) for a metric with
/// the given direction and bound (`None` for an ungated metric), counting
/// wins over `pairs` of `(base, new)` values; also returns the share of
/// pairs the new side won.
#[must_use]
pub fn verdict(
    base: &[f64],
    new: &[f64],
    pairs: &[(f64, f64)],
    higher_is_better: bool,
    bound: Option<f64>,
) -> (Verdict, f64) {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = pairs.iter().filter(|&&(b, n)| better(n, b)).count();
    let win_share = if pairs.is_empty() {
        0.0
    } else {
        wins as f64 / pairs.len() as f64
    };
    let (Some((bq1, bmed, bq3)), Some((_, nmed, _))) =
        (stats::quartiles(base), stats::quartiles(new))
    else {
        return (Verdict::Unresolved, win_share);
    };
    if pairs.len() < MIN_PAIRS {
        return (Verdict::Unresolved, win_share);
    }
    let gain = win_share >= 0.9 && (nmed - bmed).abs() > bq3 - bq1;
    let Some(bound) = bound else {
        let v = if gain {
            Verdict::Gain
        } else {
            Verdict::NotGated
        };
        return (v, win_share);
    };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if stats::spread(base) > bound || stats::spread(new) > bound {
        let v = if all_better {
            Verdict::Gain
        } else {
            Verdict::Unresolved
        };
        return (v, win_share);
    }
    let worse = if higher_is_better {
        bmed - nmed
    } else {
        nmed - bmed
    };
    let worse_by = worse / bmed.abs().max(f64::MIN_POSITIVE);
    let v = if worse_by > bound {
        Verdict::Regression
    } else if gain {
        Verdict::Gain
    } else {
        Verdict::NoRegression
    };
    (v, win_share)
}

/// One untraced run of a workload.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    valid: bool,
    metrics: BTreeMap<String, f64>,
}

/// The untraced runs of one file, per workload in file order, and the run
/// length and core count they share.
#[derive(Debug, Clone, PartialEq)]
struct RunSet {
    runs: BTreeMap<String, Vec<Run>>,
    seconds: f64,
    host_cores: u64,
}

impl RunSet {
    /// The metric's values over the workload's valid runs.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .get(workload)
            .into_iter()
            .flatten()
            .filter(|r| r.valid)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    }
}

/// `(base, new)` values of the runs at the same position in each file,
/// where both runs are valid.
fn pairs(base: &RunSet, new: &RunSet, workload: &str, metric: &str) -> Vec<(f64, f64)> {
    let (Some(b), Some(n)) = (base.runs.get(workload), new.runs.get(workload)) else {
        return Vec::new();
    };
    b.iter()
        .zip(n)
        .filter(|(b, n)| b.valid && n.valid)
        .filter_map(|(b, n)| Some((*b.metrics.get(metric)?, *n.metrics.get(metric)?)))
        .collect()
}

/// Parses the records of one file (`name` labels the messages).
fn parse(name: &str, text: &str) -> Result<RunSet, String> {
    let mut runs: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let mut shared: Option<(f64, u64)> = None;
    let mut revisions: Vec<String> = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{name}:{}", n + 1);
        let doc = Json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let (Some(workload), Some(metrics), Some(seconds), Some(cores)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics").and_then(Json::as_obj),
            doc.get("seconds").and_then(Json::as_f64),
            doc.get("host_cores").and_then(Json::as_u64),
        ) else {
            return Err(format!("{at}: not a `run --out` record"));
        };
        if doc.get("traced").and_then(Json::as_bool) == Some(true) {
            eprintln!("{at}: skipping a traced run");
            continue;
        }
        match shared {
            None => shared = Some((seconds, cores)),
            Some(s) if s == (seconds, cores) => {}
            Some((s, c)) => {
                return Err(format!(
                    "{at}: a {seconds} s run on {cores} cores among {s} s runs on {c} cores"
                ))
            }
        }
        if let Some(rev) = doc.get("git_revision").and_then(Json::as_str) {
            if !revisions.iter().any(|r| r == rev) {
                revisions.push(rev.to_string());
            }
        }
        runs.entry(workload.to_string()).or_default().push(Run {
            valid: doc.get("valid").and_then(Json::as_bool) != Some(false),
            metrics: metrics
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value").and_then(Json::as_f64)?)))
                .collect(),
        });
    }
    if revisions.len() > 1 {
        eprintln!(
            "{name}: warning: runs of {} revisions ({})",
            revisions.len(),
            revisions.join(", ")
        );
    }
    let (seconds, host_cores) = shared.ok_or_else(|| format!("{name}: no untraced runs"))?;
    Ok(RunSet {
        runs,
        seconds,
        host_cores,
    })
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(path, &text)
}

fn fmt_side(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, med, q3)) => format!("{med:.4} [{q1:.4}, {q3:.4}]"),
        None => "-".into(),
    }
}

/// # Errors
///
/// Usage errors, unreadable or malformed files, and files whose runs
/// cannot be compared.
pub fn cli(args: &[String]) -> Result<ExitCode, String> {
    let [base_path, new_path] = args else {
        return Err("usage: benchmark compare BASE.jsonl NEW.jsonl".into());
    };
    let spec = Spec::load()?;
    let (base, new) = (load(base_path)?, load(new_path)?);
    if (base.seconds, base.host_cores) != (new.seconds, new.host_cores) {
        return Err(format!(
            "{base_path} holds {} s runs on {} cores, {new_path} {} s runs on {} cores",
            base.seconds, base.host_cores, new.seconds, new.host_cores
        ));
    }
    println!(
        "{:<18} {:<24} {:>32} {:>32} {:>6} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "wins", "bound"
    );
    let mut regressions = 0;
    let mut rows = 0;
    for workload in &spec.workloads {
        for MetricSpec {
            name,
            higher_is_better,
            bound,
            ..
        } in spec.end_to_end.iter().chain(&spec.per_layer)
        {
            let (b, n) = (base.values(workload, name), new.values(workload, name));
            // A metric the workload does not exercise reads 0 throughout.
            if b.iter().chain(&n).all(|&v| v == 0.0) {
                continue;
            }
            let pairs = pairs(&base, &new, workload, name);
            let (v, wins) = verdict(&b, &n, &pairs, *higher_is_better, *bound);
            if v == Verdict::Regression {
                regressions += 1;
            }
            rows += 1;
            println!(
                "{workload:<18} {name:<24} {:>32} {:>32} {:>5.0}% {:>6}  {} (spread {:.3} / {:.3}, {} pairs)",
                fmt_side(&b),
                fmt_side(&n),
                wins * 100.0,
                bound.map_or("-".into(), |b| format!("{b:.2}")),
                v.label(),
                stats::spread(&b),
                stats::spread(&n),
                pairs.len(),
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload and metric".into());
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zip(base: &[f64], new: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(new.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_win_rule() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let judge =
            |new: &[f64], higher: bool| verdict(&base, new, &zip(&base, new), higher, Some(0.05));
        // Same distribution: no regression, not a gain.
        let same = [
            100.1, 100.9, 99.2, 100.4, 99.6, 100.0, 100.3, 99.7, 100.2, 99.8,
        ];
        assert_eq!(judge(&same, true).0, Verdict::NoRegression);
        // 10% lower throughput against a 5% bound is a regression...
        let slower: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge(&slower, true).0, Verdict::Regression);
        // ...but a 10% lower latency is a gain: wins every pair.
        assert_eq!(judge(&slower, false), (Verdict::Gain, 1.0));
        // A 3% drop within a 5% bound is tolerated.
        let slightly: Vec<f64> = base.iter().map(|v| v * 0.97).collect();
        assert_eq!(judge(&slightly, true).0, Verdict::NoRegression);
        // Spreads wider than the bound leave the row unresolved...
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&noisy, &same, &zip(&noisy, &same), true, Some(0.05)).0,
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        let far: Vec<f64> = noisy.iter().map(|v| v + 100.0).collect();
        assert_eq!(
            verdict(&noisy, &far, &zip(&noisy, &far), true, Some(0.05)).0,
            Verdict::Gain
        );
        assert_eq!(
            verdict(&[], &same, &[], true, Some(0.05)).0,
            Verdict::Unresolved
        );
        // Without a bound only the gain rule applies: a clear win is a
        // gain however noisy, anything else is merely not gated.
        let ungated = |base: &[f64], new: &[f64]| verdict(base, new, &zip(base, new), true, None).0;
        assert_eq!(ungated(&base, &slower), Verdict::NotGated);
        assert_eq!(ungated(&base, &same), Verdict::NotGated);
        assert_eq!(ungated(&noisy, &far), Verdict::Gain);
        assert_eq!(ungated(&base[..9], &far[..9]), Verdict::Unresolved);
    }

    #[test]
    fn fewer_than_ten_pairs_leave_a_row_unresolved() {
        let base = [100.0; 10];
        let faster = [150.0; 10];
        // Nine pairs of a clear gain, and of a clear regression: unresolved.
        let nine = zip(&base[..9], &faster[..9]);
        assert_eq!(
            verdict(&base, &faster, &nine, true, Some(0.05)),
            (Verdict::Unresolved, 1.0)
        );
        assert_eq!(
            verdict(
                &faster,
                &base,
                &zip(&faster[..9], &base[..9]),
                true,
                Some(0.05)
            )
            .0,
            Verdict::Unresolved
        );
        // The tenth pair settles both.
        assert_eq!(
            verdict(&base, &faster, &zip(&base, &faster), true, Some(0.05)).0,
            Verdict::Gain
        );
        assert_eq!(
            verdict(&faster, &base, &zip(&faster, &base), true, Some(0.05)).0,
            Verdict::Regression
        );
    }

    fn record(workload: &str, value: f64, valid: bool, traced: bool, seconds: u64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"seconds\":{seconds},\"traced\":{traced},\
             \"host_cores\":2,\"git_revision\":\"abc\",\"valid\":{valid},\
             \"metrics\":{{\"throughput_rps\":{{\"value\":{value},\"unit\":\"1/s\",\"samples\":5}}}}}}"
        )
    }

    #[test]
    fn invalid_runs_cost_their_own_pair_and_traced_runs_are_skipped() {
        let base = [
            record("w", 1.0, true, false, 20),
            record("w", 999.0, true, true, 20),
            record("w", 2.0, false, false, 20),
            record("w", 3.0, true, false, 20),
        ]
        .join("\n");
        let new = [
            record("w", 10.0, true, false, 20),
            record("w", 20.0, true, false, 20),
            record("w", 30.0, true, false, 20),
        ]
        .join("\n");
        let (base, new) = (parse("base", &base).unwrap(), parse("new", &new).unwrap());
        // The traced run is gone and the invalid one drops out of the values.
        assert_eq!(base.values("w", "throughput_rps"), vec![1.0, 3.0]);
        assert_eq!(new.values("w", "throughput_rps"), vec![10.0, 20.0, 30.0]);
        // Pairs are made by position before the invalid run is dropped:
        // the third base run meets the third new run, not the second.
        assert_eq!(
            pairs(&base, &new, "w", "throughput_rps"),
            vec![(1.0, 10.0), (3.0, 30.0)]
        );
        assert!(pairs(&base, &new, "other", "throughput_rps").is_empty());
    }

    #[test]
    fn runs_of_another_length_or_host_are_refused() {
        let mixed = [
            record("w", 1.0, true, false, 20),
            record("w", 1.0, true, false, 5),
        ]
        .join("\n");
        assert!(parse("mixed", &mixed).unwrap_err().contains("5 s run"));
        let cores =
            record("w", 1.0, true, false, 20).replace("\"host_cores\":2", "\"host_cores\":8");
        let both = [record("w", 1.0, true, false, 20), cores].join("\n");
        assert!(parse("both", &both).unwrap_err().contains("8 cores"));
        // A traced run of another length is skipped, not refused.
        let traced = [
            record("w", 1.0, true, false, 20),
            record("w", 1.0, true, true, 5),
        ]
        .join("\n");
        assert_eq!(parse("traced", &traced).unwrap().seconds, 20.0);
        assert!(parse("only-traced", &record("w", 1.0, true, true, 20)).is_err());
    }
}
