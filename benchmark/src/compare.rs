//! `--compare A.json B.json`: applies every end-to-end metric's bound per
//! (metric, workload) pair and prints one row per pair — *better*, *within
//! bound*, *regression* or *unresolved*.  There is no combined score.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, relative_spread};
use std::collections::BTreeMap;

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median improved on A's by more than the bound (or, with a wide
    /// spread, every run of B reads better than every run of A).
    Better,
    /// B's median is within the bound of A's.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A file's own run-to-run spread exceeds the bound, and the two sets
    /// of runs overlap: the pair shows nothing either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges one metric on one workload from the runs of A and of B.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worsening(better, median(a), median(b));
    let is_better = |x: f64, than: f64| match better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    if relative_spread(a).max(relative_spread(b)) > bound {
        // Too noisy for the medians to mean anything — unless the two sets
        // of runs do not even overlap.
        if b.iter().all(|&y| a.iter().all(|&x| is_better(y, x))) {
            return Verdict::Better;
        }
        if worse > bound && a.iter().all(|&x| b.iter().all(|&y| is_better(x, y))) {
            return Verdict::Regression;
        }
        return Verdict::Unresolved;
    }
    if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The runs of one result file, grouped for comparison.
#[derive(Default)]
struct Runs {
    /// `(workload, metric) → values`, one per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// `workload → (attempted, failed)` summed over its runs.
    ops: BTreeMap<String, (f64, f64)>,
    /// Workloads with a run whose outputs failed the check phase.
    incorrect: Vec<String>,
}

fn collect(doc: &Json) -> Result<Runs, String> {
    // A combined file holds its runs under "runs"; a single run's record
    // is accepted as a file of one run.
    let records = match doc.get("runs") {
        Some(runs) => runs.as_arr().ok_or("\"runs\" is not an array")?,
        None => std::slice::from_ref(doc),
    };
    let mut runs = Runs::default();
    for record in records {
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no \"workload\"")?
            .to_string();
        let result = record.get("result").ok_or("a run has no \"result\"")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            runs.incorrect.push(workload.clone());
        }
        let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let ops = runs.ops.entry(workload.clone()).or_insert((0.0, 0.0));
        ops.0 += count("attempted");
        ops.1 += count("failed");
        for (name, metric) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Compares two result files; returns the printed table and whether B is
/// acceptable (no regression row, no higher failed share, outputs correct).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let (a, b) = (collect(a)?, collect(b)?);
    let mut out = String::new();
    let mut acceptable = true;
    let _ = writeln!(
        out,
        "{:<16} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for def in &END_TO_END {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let verdict = judge(def.better, def.bound, va, vb);
            acceptable &= verdict != Verdict::Regression;
            let _ = writeln!(
                out,
                "{:<16} {:<30} {:>14.6} {:>14.6} {:>+8.1}% {:>6.0}%  {}",
                workload,
                def.name,
                median(va),
                median(vb),
                worsening(def.better, median(va), median(vb)) * 100.0,
                def.bound * 100.0,
                verdict.label()
            );
        }
        // failed_share: any increase is a regression.
        if let (Some(&(att_a, fail_a)), Some(&(att_b, fail_b))) =
            (a.ops.get(workload), b.ops.get(workload))
        {
            let (share_a, share_b) = (fail_a / att_a.max(1.0), fail_b / att_b.max(1.0));
            let verdict = if share_b > share_a {
                acceptable = false;
                Verdict::Regression
            } else if share_b < share_a {
                Verdict::Better
            } else {
                Verdict::Within
            };
            let _ = writeln!(
                out,
                "{:<16} {:<30} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                workload,
                "failed_share",
                share_a,
                share_b,
                "",
                "any",
                verdict.label()
            );
        }
        if b.incorrect.iter().any(|w| w == workload) {
            acceptable = false;
            let _ = writeln!(
                out,
                "{workload:<16} outputs failed the check phase in B  REGRESSION"
            );
        }
    }
    // Layer rows explain, they do not gate: shown when both files carry
    // traced runs.
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for def in &PER_LAYER {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<16} {:<30} {:>14.6} {:>14.6} {:>+8.1}% {:>7}  layer",
                workload,
                def.name,
                ma,
                mb,
                worsening(def.better, ma, mb) * 100.0,
                "-"
            );
        }
    }
    Ok((out, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_verdicts() {
        let steady_a = [100.0, 101.0, 99.0, 100.5];
        // Within: 3 % worse at a 10 % bound.
        assert_eq!(
            judge(
                Better::Lower,
                0.10,
                &steady_a,
                &[103.0, 104.0, 102.0, 103.5]
            ),
            Verdict::Within
        );
        // Regression: 20 % worse.
        assert_eq!(
            judge(
                Better::Lower,
                0.10,
                &steady_a,
                &[120.0, 121.0, 119.0, 120.0]
            ),
            Verdict::Regression
        );
        // Better: 20 % lower latency; and for a rate, 20 % higher.
        assert_eq!(
            judge(Better::Lower, 0.10, &steady_a, &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Better
        );
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                &steady_a,
                &[120.0, 121.0, 119.0, 120.0]
            ),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &steady_a, &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Regression
        );
        // Unresolved: A's own spread (40 %) exceeds the bound and the runs
        // overlap, whatever the medians say.
        let noisy_a = [80.0, 100.0, 120.0, 100.0];
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy_a, &[95.0, 96.0, 97.0, 96.0]),
            Verdict::Unresolved
        );
        // …unless every run of B reads better than every run of A.
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy_a, &[60.0, 61.0, 62.0, 61.0]),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy_a, &[160.0, 161.0, 162.0, 161.0]),
            Verdict::Regression
        );
    }

    #[test]
    fn an_exact_metric_tolerates_nothing() {
        assert_eq!(
            judge(Better::Lower, 0.0, &[5.0, 5.0], &[5.0, 5.0]),
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &[5.0, 5.0], &[6.0, 6.0]),
            Verdict::Regression
        );
    }

    fn file(qps: &[f64], failed: f64) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                qps.iter()
                    .map(|&q| {
                        Json::obj([
                            ("workload", Json::str("serve_hot")),
                            (
                                "result",
                                Json::obj([
                                    ("correct", Json::Bool(true)),
                                    ("attempted", Json::num(1000.0)),
                                    ("failed", Json::num(failed)),
                                    (
                                        "metrics",
                                        Json::obj([(
                                            "qps",
                                            Json::obj([
                                                ("value", Json::num(q)),
                                                ("unit", Json::str("ops/s")),
                                            ]),
                                        )]),
                                    ),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn files_compare_per_pair_and_gate_on_failures() {
        let a = file(&[3000.0, 3010.0, 2990.0], 0.0);
        let (table, ok) = compare(&a, &file(&[3005.0, 2995.0, 3001.0], 0.0)).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("serve_hot") && table.contains("within bound"));
        let (table, ok) = compare(&a, &file(&[2000.0, 2010.0, 1990.0], 0.0)).unwrap();
        assert!(!ok && table.contains("REGRESSION"), "{table}");
        // Same speed, but B failed ops A did not.
        let (table, ok) = compare(&a, &file(&[3000.0, 3010.0, 2990.0], 2.0)).unwrap();
        assert!(!ok && table.contains("failed_share"), "{table}");
    }
}
