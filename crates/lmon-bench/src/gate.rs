//! The one harness behind the two self-gating benches
//! (`recovery_latency`, `upgrade_rolling`).
//!
//! A bench measures, declares its result rows as [`Json`] objects and hands
//! them to [`publish`], which reads the committed artifact, overwrites it
//! with the fresh run (printing it: one row per line, so the artifact is
//! the report) and applies the one regression rule: fail only when
//! the primary metric is more than 30 % worse than the committed value
//! **and** its hardware-neutral same-run ratio (metric over a normalizer
//! measured in the same run) is more than 30 % worse too. A uniformly
//! slower runner shifts metric and normalizer together and passes; a real
//! regression moves the ratio and fails.
//!
//! The gate only arms against an artifact committed in the same mode
//! (quick and full runs use different sample counts and are not
//! comparable); an absent, malformed or other-mode artifact skips the gate
//! with a reason, never a panic.

use std::path::Path;

/// Share of the committed value by which the metric and its ratio must
/// both worsen before a run fails.
const GATE_TOLERANCE: f64 = 0.30;

/// How a bench run was asked to behave, read once from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// `LMON_BENCH_QUICK=1`: CI-sized sample counts.
    pub quick: bool,
    /// `LMON_BENCH_SKIP_GATE=1`: report, but never fail (noisy runners).
    pub skip_gate: bool,
}

impl Mode {
    /// Read `LMON_BENCH_QUICK` and `LMON_BENCH_SKIP_GATE`.
    pub fn from_env() -> Self {
        let flag = |name: &str| std::env::var(name).is_ok_and(|v| v == "1");
        Mode { quick: flag("LMON_BENCH_QUICK"), skip_gate: flag("LMON_BENCH_SKIP_GATE") }
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) over unsorted samples.
pub fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Median (upper median for even counts) over unsorted samples.
pub fn median(v: Vec<f64>) -> f64 {
    percentile(v, 0.5)
}

/// A JSON value with ordered object fields — what an artifact is written
/// from and read back into (the workspace vendors no serde).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number and the decimals it is written with.
    Num(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep declaration order.
    Obj(Vec<(String, Json)>),
}

/// A number written with `decimals` decimals.
pub fn num(v: f64, decimals: usize) -> Json {
    Json::Num(v, decimals)
}

/// A count.
pub fn int(v: usize) -> Json {
    Json::Num(v as f64, 0)
}

/// A string.
pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Json {
    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric field `key` of an object.
    pub fn number(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Follow `path` from this value: each step names a field of an object,
    /// or the row of an array whose first field (its label) is that string.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        let labelled = |row: &&Json, label: &str| match row {
            Json::Obj(fields) => matches!(fields.first(), Some((_, Json::Str(s))) if s == label),
            _ => false,
        };
        path.iter().try_fold(self, |cur, step| match cur {
            Json::Arr(rows) => rows.iter().find(|row| labelled(row, step)),
            _ => cur.get(step),
        })
    }

    /// Render as text: containers holding only scalars go on one line (a
    /// result row reads as a row), anything deeper is indented.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Num(v, decimals) => return out.push_str(&format!("{v:.decimals$}")),
            Json::Str(s) => return out.push_str(&quoted(s)),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let inline = items.iter().all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let line = |depth: usize| match inline {
            true => String::new(),
            false => format!("\n{}", "  ".repeat(depth)),
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            out.push_str(&line(depth + 1));
            if let Some(key) = key {
                out.push_str(&quoted(key));
                out.push_str(": ");
            }
            value.render_into(out, depth + 1);
        }
        out.push_str(&line(depth));
        out.push(close);
    }

    /// Parse a document; `None` when `text` is not one complete value.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser { rest: text };
        let value = p.value()?;
        p.rest.trim_start().is_empty().then_some(value)
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Recursive descent over what [`Json::render`] (and the hand-written
/// artifacts of earlier PRs) emit; every method leaves `rest` untouched
/// unless it returns `Some`.
struct Parser<'a> {
    rest: &'a str,
}

impl Parser<'_> {
    fn eat(&mut self, token: &str) -> Option<()> {
        self.rest = self.rest.trim_start().strip_prefix(token)?;
        Some(())
    }

    fn value(&mut self) -> Option<Json> {
        match self.rest.trim_start().chars().next()? {
            '{' => {
                let field = |p: &mut Self| {
                    let key = p.string()?;
                    p.eat(":")?;
                    Some((key, p.value()?))
                };
                self.list("{", "}", field).map(Json::Obj)
            }
            '[' => self.list("[", "]", Self::value).map(Json::Arr),
            '"' => self.string().map(Json::Str),
            't' => self.eat("true").map(|()| Json::Bool(true)),
            'f' => self.eat("false").map(|()| Json::Bool(false)),
            _ => {
                let lit = self.rest.trim_start();
                let end = lit.find(|c: char| !(c.is_ascii_digit() || "-.".contains(c)));
                let (lit, rest) = lit.split_at(end.unwrap_or(lit.len()));
                let decimals = lit.split_once('.').map_or(0, |(_, frac)| frac.len());
                let value = lit.parse().ok()?;
                self.rest = rest;
                Some(Json::Num(value, decimals))
            }
        }
    }

    fn list<T>(
        &mut self,
        open: &str,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.eat(open)?;
        let mut items = Vec::new();
        if self.eat(close).is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close).is_some() {
                return Some(items);
            }
            self.eat(",")?;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            match chars.next()? {
                (at, '"') => {
                    self.rest = &self.rest[at + 1..];
                    return Some(out);
                }
                (_, '\\') => out.push(chars.next().filter(|(_, c)| "\"\\".contains(*c))?.1),
                (_, c) => out.push(c),
            }
        }
    }
}

/// Which direction of the primary metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latencies.
    Lower,
    /// Throughputs.
    Higher,
}

/// What a bench gates on: where its primary row sits in the artifact and
/// which two fields of that row form the metric and its same-run ratio.
#[derive(Debug, Clone, Copy)]
pub struct Gate<'a> {
    /// Path from the artifact root to the primary row ([`Json::at`]).
    pub row: &'a [&'a str],
    /// The gated field of that row.
    pub metric: &'a str,
    /// The same-run hardware normalizer field of that row; the
    /// hardware-neutral signal is `metric / normalizer`.
    pub normalizer: &'a str,
    /// Direction of improvement of `metric` (and of the ratio).
    pub better: Better,
}

/// A metric with its same-run normalizer, as read from one artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The primary metric.
    pub value: f64,
    /// What it is divided by for the hardware-neutral ratio.
    pub normalizer: f64,
}

impl Reading {
    fn of(doc: &Json, gate: &Gate<'_>) -> Option<Reading> {
        let row = doc.at(gate.row)?;
        Some(Reading { value: row.number(gate.metric)?, normalizer: row.number(gate.normalizer)? })
    }

    fn ratio(self) -> f64 {
        self.value / self.normalizer
    }
}

/// Why the gate did not arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// `LMON_BENCH_SKIP_GATE=1`.
    Disabled,
    /// No committed artifact on disk.
    Missing,
    /// The committed artifact does not parse, or lacks the gated row.
    Malformed,
    /// The committed artifact is from the other (quick/full) mode.
    OtherMode,
}

/// The one gate rule: `true` (regressed) only when the metric and its
/// same-run ratio are both more than 30 % worse than committed.
pub fn regressed(better: Better, fresh: Reading, committed: Reading) -> bool {
    let worse = |new: f64, old: f64| match better {
        Better::Lower => new > old * (1.0 + GATE_TOLERANCE),
        Better::Higher => new < old * (1.0 - GATE_TOLERANCE),
    };
    worse(fresh.value, committed.value) && worse(fresh.ratio(), committed.ratio())
}

/// Read the artifact committed at `path` if it can arm the gate for a run
/// in `mode`.
pub fn read_committed(path: &Path, mode: Mode) -> Result<Json, Skip> {
    let text = std::fs::read_to_string(path).map_err(|_| Skip::Missing)?;
    let doc = Json::parse(&text).ok_or(Skip::Malformed)?;
    match doc.get("quick") {
        Some(Json::Bool(quick)) if *quick == mode.quick => Ok(doc),
        Some(Json::Bool(_)) => Err(Skip::OtherMode),
        _ => Err(Skip::Malformed),
    }
}

/// An armed gate's outcome: both readings and whether the run regressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// This run.
    pub fresh: Reading,
    /// The committed artifact.
    pub committed: Reading,
    /// [`regressed`] on the two.
    pub regressed: bool,
}

/// Apply `gate` to this run's document against the committed one.
///
/// # Panics
/// If `fresh` itself lacks the gated row — a bug in the bench.
pub fn evaluate(
    mode: Mode,
    committed: Result<Json, Skip>,
    fresh: &Json,
    gate: &Gate<'_>,
) -> Result<Verdict, Skip> {
    if mode.skip_gate {
        return Err(Skip::Disabled);
    }
    let committed = Reading::of(&committed?, gate).ok_or(Skip::Malformed)?;
    let fresh = Reading::of(fresh, gate).expect("this run's document holds the gated row");
    Ok(Verdict { fresh, committed, regressed: regressed(gate.better, fresh, committed) })
}

/// Write → check: the artifact is `{"quick": <mode>, <fields>...}` in
/// `file_name` at the workspace root (whatever the bench's working
/// directory, so CI and humans find it in one place). Reads the committed
/// artifact *before* overwriting it, then gates the fresh document against
/// it; a regression exits non-zero.
pub fn publish<'a>(
    file_name: &str,
    mode: Mode,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
    gate: &Gate<'_>,
) {
    let doc = obj([("quick", Json::Bool(mode.quick))].into_iter().chain(fields));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file_name);
    let committed = read_committed(&path, mode);
    let rendered = doc.render();
    std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    println!("\nwrote {}:\n{rendered}", path.display());
    match evaluate(mode, committed, &doc, gate) {
        Err(why) => println!("regression gate skipped ({why:?})"),
        Ok(Verdict { fresh, committed, regressed }) => {
            let (metric, normalizer) = (gate.metric, gate.normalizer);
            let readings = format!(
                "{metric} {:.2} vs committed {:.2}; {metric}/{normalizer} ratio {:.3} vs \
                 committed {:.3}",
                fresh.value,
                committed.value,
                fresh.ratio(),
                committed.ratio()
            );
            if regressed {
                eprintln!(
                    "REGRESSION GATE FAILED: {readings} — both more than {:.0}% worse, so this is \
                     not just a slower machine. Set LMON_BENCH_SKIP_GATE=1 to skip on noisy \
                     runners.",
                    GATE_TOLERANCE * 100.0
                );
                std::process::exit(1);
            }
            println!("regression gate passed: {readings}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Mode = Mode { quick: true, skip_gate: false };

    const RECOVERY_GATE: Gate<'static> = Gate {
        row: &["shapes", "1x8x64"],
        metric: "recovery_latency_us",
        normalizer: "healthy_rtt_us",
        better: Better::Lower,
    };

    /// A recovery-shaped artifact that repeats both gated keys before the
    /// gated row's own — in a `baseline` block, in the other shape's row and
    /// in a block nested inside the row: a "first number after the key"
    /// scrape would read 548/390 here.
    fn recovery_doc(latency: f64, rtt: f64) -> Json {
        let baseline =
            obj([("recovery_latency_us", num(548.0, 0)), ("healthy_rtt_us", num(390.0, 0))]);
        let shape = |name: &str, latency: f64, rtt: f64| {
            obj([
                ("shape", text(name)),
                ("baseline", baseline.clone()),
                ("healthy_rtt_us", num(rtt, 0)),
                ("recovery_latency_us", num(latency, 0)),
            ])
        };
        let shapes = vec![shape("1x16x256", 2154.0, 1915.0), shape("1x8x64", latency, rtt)];
        obj([("quick", Json::Bool(true)), ("baseline", baseline), ("shapes", Json::Arr(shapes))])
    }

    fn reading(value: f64, normalizer: f64) -> Reading {
        Reading { value, normalizer }
    }

    #[test]
    fn rule_truth_table() {
        let slower = |value, normalizer| {
            regressed(Better::Lower, reading(value, normalizer), reading(500.0, 400.0))
        };
        assert!(!slower(1000.0, 800.0), "absolute only (uniformly slower machine) passes");
        assert!(!slower(500.0, 200.0), "ratio only (faster machine, same latency) passes");
        assert!(slower(1000.0, 400.0), "both signals more than 30 % worse fails");
        assert!(!slower(650.0, 400.0), "exactly at the limit is not past it");
        assert!(!slower(250.0, 400.0), "improvement passes");

        let lower = |value, normalizer| {
            regressed(Better::Higher, reading(value, normalizer), reading(1.6e6, 1.6e6))
        };
        assert!(!lower(0.8e6, 0.8e6), "absolute only passes");
        assert!(!lower(1.6e6, 3.2e6), "ratio only passes");
        assert!(lower(0.8e6, 1.6e6), "both fails");
        assert!(!lower(3.2e6, 1.6e6), "improvement passes");
    }

    #[test]
    fn evaluate_reads_the_gated_row_not_a_key_with_the_same_name() {
        let committed = || Ok(recovery_doc(517.0, 352.0));
        let verdict = evaluate(QUICK, committed(), &recovery_doc(530.0, 350.0), &RECOVERY_GATE);
        let (fresh, committed_reading) = (reading(530.0, 350.0), reading(517.0, 352.0));
        assert_eq!(verdict, Ok(Verdict { fresh, committed: committed_reading, regressed: false }));
        let verdict = evaluate(QUICK, committed(), &recovery_doc(1100.0, 350.0), &RECOVERY_GATE);
        assert!(verdict.unwrap().regressed);
    }

    #[test]
    fn skip_gate_and_unusable_committed_artifacts_skip_with_a_reason() {
        let fresh = recovery_doc(5000.0, 100.0);
        let skipping = Mode { quick: true, skip_gate: true };
        let committed = Ok(recovery_doc(517.0, 352.0));
        assert_eq!(evaluate(skipping, committed, &fresh, &RECOVERY_GATE), Err(Skip::Disabled));
        let other = Err(Skip::OtherMode);
        assert_eq!(evaluate(QUICK, other, &fresh, &RECOVERY_GATE), Err(Skip::OtherMode));
        // Parses, carries the mode, but has no row for the gated shape.
        let rowless = Ok(obj([("quick", Json::Bool(true)), ("shapes", Json::Arr(vec![]))]));
        assert_eq!(evaluate(QUICK, rowless, &fresh, &RECOVERY_GATE), Err(Skip::Malformed));
    }

    #[test]
    fn read_committed_never_panics_on_absent_truncated_or_other_mode_files() {
        let path = std::env::temp_dir().join(format!("lmon-gate-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_committed(&path, QUICK), Err(Skip::Missing));

        let text = recovery_doc(517.0, 352.0).render();
        std::fs::write(&path, &text).unwrap();
        assert_eq!(read_committed(&path, QUICK), Ok(recovery_doc(517.0, 352.0)));
        let full = Mode { quick: false, skip_gate: false };
        assert_eq!(read_committed(&path, full), Err(Skip::OtherMode));

        for cut in [0, 1, text.len() / 2, text.len() - 3] {
            std::fs::write(&path, &text[..cut]).unwrap();
            assert_eq!(read_committed(&path, QUICK), Err(Skip::Malformed), "cut at {cut}");
        }
        std::fs::write(&path, "{\"shapes\": []}").unwrap();
        assert_eq!(read_committed(&path, QUICK), Err(Skip::Malformed), "no mode field");
        std::fs::remove_file(&path).unwrap();
    }

    /// Every committed artifact is what the writer emits, reads back to the
    /// same document, and holds its bench's gated row.
    #[test]
    fn committed_artifacts_round_trip_through_writer_and_reader() {
        let gate =
            |row, metric, normalizer| Gate { row, metric, normalizer, better: Better::Lower };
        let artifacts = [
            (
                include_str!("../../../BENCH_recovery.json"),
                gate(&["shapes", "1x8x64"], "recovery_latency_us", "healthy_rtt_us"),
            ),
            (
                include_str!("../../../BENCH_upgrade.json"),
                gate(&["shapes", "1x8x64+8"], "step_p50_us", "healthy_rtt_us"),
            ),
        ];
        for (text, gate) in artifacts {
            let name = gate.metric;
            let doc = Json::parse(text).unwrap_or_else(|| panic!("{name}: does not parse"));
            assert_eq!(doc.render(), text, "{name}: write(read(artifact)) must be the artifact");
            assert_eq!(Json::parse(&doc.render()), Some(doc.clone()), "{name}: read(write(doc))");
            assert!(matches!(doc.get("quick"), Some(Json::Bool(_))), "{name}: carries its mode");
            let reading = Reading::of(&doc, &gate).unwrap_or_else(|| panic!("{name}: gated row"));
            assert!(reading.value > 0.0 && reading.normalizer > 0.0, "{name}: {reading:?}");
        }
    }

    #[test]
    fn strings_with_quotes_and_backslashes_survive_the_round_trip() {
        let doc = obj([("note", text("a \"quoted\" \\ path")), ("n", num(-0.125, 3))]);
        assert_eq!(doc.render(), "{\"note\": \"a \\\"quoted\\\" \\\\ path\", \"n\": -0.125}\n");
        assert_eq!(Json::parse(&doc.render()), Some(doc));
        assert_eq!(Json::parse("{\"a\": 1} trailing"), None);
    }

    #[test]
    fn mode_reads_both_switches_from_the_environment() {
        // The only test (and, with `Mode::from_env`, the only code) that
        // touches these two variables.
        std::env::set_var("LMON_BENCH_QUICK", "1");
        std::env::remove_var("LMON_BENCH_SKIP_GATE");
        assert_eq!(Mode::from_env(), Mode { quick: true, skip_gate: false });
        std::env::set_var("LMON_BENCH_QUICK", "0");
        std::env::set_var("LMON_BENCH_SKIP_GATE", "1");
        assert_eq!(Mode::from_env(), Mode { quick: false, skip_gate: true });
        std::env::remove_var("LMON_BENCH_QUICK");
        std::env::remove_var("LMON_BENCH_SKIP_GATE");
        assert_eq!(Mode::from_env(), Mode { quick: false, skip_gate: false });
    }

    #[test]
    fn medians_and_percentiles_are_nearest_rank() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0, "upper median");
        assert_eq!(percentile(vec![5.0, 1.0, 4.0, 2.0, 3.0], 0.99), 5.0);
        assert_eq!(percentile(vec![7.0], 0.9), 7.0);
    }
}
