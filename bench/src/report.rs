//! Output: the contract's result line, the human tables, the environment
//! record, and the result-set files `compare` reads.

use std::fmt::Write as _;

use crate::json::{num, quote, Json};
use crate::run::{Metric, RunResult};
use crate::spans::SpanBuf;

/// Where and how the benchmark was built and run; part of every result set
/// because every number here depends on it.
pub fn env_json() -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\":{nproc},\"available_parallelism\":{parallelism},\"rustc\":{},\"profile\":{},\"os\":{}}}",
        quote(env!("LAUNCH_BENCH_RUSTC")),
        quote(env!("LAUNCH_BENCH_PROFILE")),
        quote(std::env::consts::OS),
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", quote(m.name), num(m.value), quote(m.unit))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The metrics a run reports to the driver: per-layer for a traced run,
/// end-to-end otherwise.
pub fn reported(result: &RunResult) -> &[Metric] {
    result.per_layer.as_deref().unwrap_or(&result.end_to_end)
}

/// The last line of a run's standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn contract_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics_json(reported(result))
    )
}

/// One entry of a result set: the contract line's members plus which
/// workload and seed produced them.
pub fn set_entry(workload: &str, seed: u64, contract_line: &str) -> String {
    let body = contract_line.trim().trim_start_matches('{');
    format!("{{\"workload\":{},\"seed\":{seed},{body}", quote(workload))
}

/// A result set: the environment and a list of [`set_entry`] objects.
pub fn result_set(entries: &[String]) -> String {
    format!("{{\"env\":{},\"runs\":[\n{}\n]}}\n", env_json(), entries.join(",\n"))
}

fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    out
}

/// Per-name span totals with self time = span − children.
pub fn span_table(spans: &SpanBuf) -> String {
    let totals = spans.totals();
    let all_self: f64 = totals.values().map(|t| t.self_us).sum();
    let mut out = format!(
        "spans ({} recorded)\n  {:<28} {:>8} {:>14} {:>14} {:>7}\n",
        spans.spans().len(),
        "name",
        "count",
        "total ms",
        "self ms",
        "self %"
    );
    for (name, t) in totals {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>14.3} {:>14.3} {:>6.1}%",
            name,
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3,
            if all_self > 0.0 { 100.0 * t.self_us / all_self } else { 0.0 }
        );
    }
    out
}

/// Everything a person wants to read about a run.
pub fn human(result: &RunResult) -> String {
    let mut out = format!(
        "workload {}  seed {}  attempted {}  failed {}  correct {}  generation bring-up+shutdown {:.3} s\n",
        result.workload,
        result.seed,
        result.attempted,
        result.failed,
        result.correct,
        result.generation_overhead_s
    );
    for e in &result.errors {
        let _ = writeln!(out, "  error: {e}");
    }
    let title = if result.per_layer.is_some() {
        "end to end (traced and untraced generations mixed; compare untraced runs only)"
    } else {
        "end to end"
    };
    out.push_str(&table(title, &result.end_to_end));
    if let Some(layers) = &result.per_layer {
        out.push_str(&table("per layer", layers));
    }
    if let Some(spans) = &result.spans {
        out.push_str(&span_table(spans));
    }
    out
}

/// One parsed run of a result set.
#[derive(Debug, Clone)]
pub struct ParsedRun {
    /// Workload name.
    pub workload: String,
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: Vec<(String, f64, String)>,
}

/// Parse one contract line or result-set entry.
pub fn parse_run(j: &Json) -> Result<ParsedRun, String> {
    let field = |k: &str| j.get(k).ok_or_else(|| format!("run lacks {k:?}"));
    let count = |k: &str| {
        field(k)?
            .as_f64()
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{k:?} is not a whole number"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("\"metrics\" is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name:?} lacks value or unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(ParsedRun {
        workload: j.get("workload").and_then(Json::as_str).unwrap_or("").to_string(),
        correct: field("correct")? == &Json::Bool(true),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Parse a result-set file's text.
pub fn parse_result_set(text: &str) -> Result<Vec<ParsedRun>, String> {
    let doc = Json::parse(text)?;
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or("result set lacks a \"runs\" array")?
        .iter()
        .map(parse_run)
        .collect()
}
