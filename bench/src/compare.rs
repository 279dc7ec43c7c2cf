//! `compare`: two result sets, per workload × end-to-end metric, against
//! the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::report::ParsedRun;
use crate::stats::{iqr_share, median};

/// An end-to-end metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the first set's median.
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn declared_end_to_end(benchmark_json: &str) -> Result<Vec<Declared>, String> {
    let doc = Json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks \"end_to_end\"")?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k).and_then(Json::as_str).ok_or_else(|| format!("metric lacks {k:?}"))
            };
            Ok(Declared {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric lacks \"bound\"")?,
            })
        })
        .collect()
}

/// How set B stands against set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound of each other.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// A set's own spread is wider than the bound, and the sets overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of set A.
    pub median_a: f64,
    /// Median of set B.
    pub median_b: f64,
    /// Wider of the two sets' quartile distance over median.
    pub spread: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worsening: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge B's values against A's.
pub fn judge(a: &[f64], b: &[f64], decl: &Declared) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if decl.lower_is_better { mb - ma } else { ma - mb };
    let worsening = if ma == 0.0 { 0.0 } else { worse_by / ma.abs() };
    let spread = iqr_share(a).max(iqr_share(b));
    // (best, worst) of a set, oriented so that lower is better.
    let sign = if decl.lower_is_better { 1.0 } else { -1.0 };
    let range = |v: &[f64]| {
        let oriented = v.iter().map(|x| x * sign);
        (oriented.clone().fold(f64::INFINITY, f64::min), oriented.fold(f64::NEG_INFINITY, f64::max))
    };
    let ((best_a, worst_a), (best_b, worst_b)) = (range(a), range(b));
    let verdict = if spread > decl.bound {
        // Too noisy to call from medians — unless the sets do not overlap.
        if worst_b < best_a {
            Verdict::Better
        } else if best_b > worst_a {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worsening > decl.bound {
        Verdict::Worse
    } else if worsening < -decl.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (spread, worsening, verdict)
}

fn by_workload(runs: &[ParsedRun]) -> BTreeMap<&str, Vec<&ParsedRun>> {
    let mut map: BTreeMap<&str, Vec<&ParsedRun>> = BTreeMap::new();
    for r in runs {
        map.entry(r.workload.as_str()).or_default().push(r);
    }
    map
}

fn values(runs: &[&ParsedRun], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == metric).map(|(_, v, _)| *v))
        .collect()
}

/// Compare two result sets. Workloads present in only one set are skipped.
pub fn compare(a: &[ParsedRun], b: &[ParsedRun], declared: &[Declared]) -> Vec<Row> {
    let (a, b) = (by_workload(a), by_workload(b));
    let mut rows = Vec::new();
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else { continue };
        for decl in declared {
            let (va, vb) = (values(runs_a, &decl.name), values(runs_b, &decl.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (spread, worsening, verdict) = judge(&va, &vb, decl);
            rows.push(Row {
                workload: (*workload).to_string(),
                metric: decl.name.clone(),
                median_a: median(&va),
                median_b: median(&vb),
                spread,
                worsening,
                bound: decl.bound,
                verdict,
            });
        }
    }
    rows
}

/// Problems that make a pair of sets unfit to compare at all: failed
/// sessions, incorrect runs, or `attempted` differing between runs of a
/// workload.
pub fn validity_problems(sets: &[&[ParsedRun]]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut attempted: BTreeMap<&str, u64> = BTreeMap::new();
    for run in sets.iter().flat_map(|s| s.iter()) {
        if run.failed != 0 || !run.correct {
            problems.push(format!(
                "{}: a run has failed={} correct={}",
                run.workload, run.failed, run.correct
            ));
        }
        let first = *attempted.entry(run.workload.as_str()).or_insert(run.attempted);
        if first != run.attempted {
            problems.push(format!(
                "{}: attempted differs between runs ({first} vs {})",
                run.workload, run.attempted
            ));
        }
    }
    problems
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<24} {:>12} {:>12} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "median A", "median B", "B worse", "spread", "bound", "verdict"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<13} {:<24} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            100.0 * r.worsening,
            100.0 * r.spread,
            100.0 * r.bound,
            r.verdict.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(lower: bool) -> Declared {
        Declared { name: "m".into(), unit: "ms".into(), lower_is_better: lower, bound: 0.10 }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let worse = [11.5, 11.6, 11.4, 11.5, 11.55];
        let close = [10.3, 10.4, 10.2, 10.3, 10.35];
        assert_eq!(judge(&a, &worse, &decl(true)).2, Verdict::Worse);
        assert_eq!(judge(&a, &worse, &decl(false)).2, Verdict::Better);
        assert_eq!(judge(&a, &close, &decl(true)).2, Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_sets_are_disjoint() {
        let noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let noisy_b = [8.5, 10.5, 12.5, 9.5, 11.5];
        assert_eq!(judge(&noisy_a, &noisy_b, &decl(true)).2, Verdict::Unresolved);
        let far_b = [20.0, 22.0, 24.0, 21.0, 23.0];
        assert_eq!(judge(&noisy_a, &far_b, &decl(true)).2, Verdict::Worse);
        assert_eq!(judge(&far_b, &noisy_a, &decl(true)).2, Verdict::Better);
    }

    #[test]
    fn reads_the_declared_bounds() {
        let doc = r#"{"end_to_end":[{"name":"x","unit":"ms","better":"lower","bound":0.1},
                                    {"name":"y","unit":"1/s","better":"higher","bound":0.05}]}"#;
        let d = declared_end_to_end(doc).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d[0].lower_is_better && !d[1].lower_is_better);
        assert_eq!(d[1].bound, 0.05);
    }
}
