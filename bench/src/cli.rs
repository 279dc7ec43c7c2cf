//! Command line: `run`, `trace`, `compare`, `repeat`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::compare::{compare, declared_end_to_end, render, validity_problems, Verdict};
use crate::json::Json;
use crate::plan::{Scale, Workload, REFERENCE_SECONDS};
use crate::report::{
    contract_line, env_json, human, parse_result_set, parse_run, result_set, set_entry,
};
use crate::run::{run, write_trace, RunOptions};

const USAGE: &str = "\
launch-bench — end-to-end and per-layer benchmark of the launch stack

  launch-bench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      One run. The last line of standard output is a JSON object with exactly
      the keys correct, attempted, failed and metrics: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.
  launch-bench trace (--all | --workload W) [--seed N] [--seconds S] [--smoke]
      Traced runs: spans to <out-dir>/trace-<workload>.json, per-layer table.
  launch-bench compare A.json B.json [--benchmark BENCHMARK.json]
      Medians of two result sets per workload x end-to-end metric, the
      declared bound, and a verdict: same, worse, better or unresolved.
  launch-bench repeat [--sets 2] [--runs 5] [--workload W] [--seconds S] [--smoke]
      Alternating sets of runs of this binary, written to
      <out-dir>/repeat-set-<k>.json, then compared: the noise self-check.
  launch-bench list
      Workload names.

Common options: --out-dir DIR (default bench/out; scratch sockets, traces, sets).
Workloads: storm_closed storm_open wide_launch spawn_bound tool_attach
";

/// Parsed options; every subcommand reads the ones it knows.
struct Args {
    positional: Vec<String>,
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    sets: usize,
    runs: usize,
    out_dir: PathBuf,
    benchmark: PathBuf,
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: {v:?} is not a number"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        all: false,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 5,
        out_dir: PathBuf::from("bench/out"),
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::by_name(name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = number(arg, value()?)?,
            "--seconds" => args.seconds = number::<u64>(arg, value()?)?.max(1),
            "--trace" => args.trace = number::<u8>(arg, value()?)? != 0,
            "--sets" => args.sets = number::<usize>(arg, value()?)?.max(2),
            "--runs" => args.runs = number::<usize>(arg, value()?)?.max(1),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--benchmark" => args.benchmark = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

/// Entry point; returns the process exit code.
pub fn main(started: Instant, argv: Vec<String>) -> i32 {
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("launch-bench: {e}\n\n{USAGE}");
            return 2;
        }
    };
    let outcome = match command.as_str() {
        "run" => cmd_run(started, &args),
        "trace" => cmd_trace(started, &args),
        "compare" => cmd_compare(&args),
        "repeat" => cmd_repeat(&args),
        "list" => {
            Workload::ALL.iter().for_each(|w| println!("{}", w.spec().name));
            Ok(0)
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("launch-bench: {e}");
        2
    })
}

fn options(args: &Args, workload: Workload, trace: bool) -> RunOptions {
    RunOptions {
        workload,
        seed: args.seed,
        scale: Scale { seconds: args.seconds, smoke: args.smoke },
        trace,
        out_dir: args.out_dir.clone(),
    }
}

/// Run once, print the tables and, last, the contract line.
fn run_and_print(started: Instant, opts: &RunOptions) -> Result<bool, String> {
    let result = run(opts, started);
    print!("{}", human(&result));
    if let Some(path) = write_trace(&result, &opts.out_dir).map_err(|e| format!("trace: {e}"))? {
        println!("spans written to {}", path.display());
    }
    println!("env {}", env_json());
    println!("{}", contract_line(&result));
    Ok(result.correct)
}

fn cmd_run(started: Instant, args: &Args) -> Result<i32, String> {
    let workload = args.workload.ok_or("run needs --workload")?;
    // An incorrect run still prints its result and exits 0: the counts on
    // the result line are how a failure is reported.
    run_and_print(started, &options(args, workload, args.trace)).map(|_| 0)
}

fn cmd_trace(started: Instant, args: &Args) -> Result<i32, String> {
    let workloads: Vec<Workload> = match (args.all, args.workload) {
        (true, _) => Workload::ALL.to_vec(),
        (false, Some(w)) => vec![w],
        (false, None) => return Err("trace needs --all or --workload".into()),
    };
    let mut all_correct = true;
    for (i, w) in workloads.into_iter().enumerate() {
        // Set-up time of later workloads is counted from their own start.
        let origin = if i == 0 { started } else { Instant::now() };
        all_correct &= run_and_print(origin, &options(args, w, true))?;
    }
    Ok(if all_correct { 0 } else { 1 })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result-set files; exit code 1 when any pair is worse or
/// unresolved, or the sets are unfit to compare.
fn compare_files(a: &Path, b: &Path, benchmark: &Path) -> Result<i32, String> {
    let declared = declared_end_to_end(&read(benchmark)?)?;
    let set_a = parse_result_set(&read(a)?).map_err(|e| format!("{}: {e}", a.display()))?;
    let set_b = parse_result_set(&read(b)?).map_err(|e| format!("{}: {e}", b.display()))?;
    let rows = compare(&set_a, &set_b, &declared);
    print!("{}", render(&rows));
    let problems = validity_problems(&[&set_a, &set_b]);
    for p in &problems {
        println!("invalid: {p}");
    }
    let open = rows.iter().filter(|r| matches!(r.verdict, Verdict::Worse | Verdict::Unresolved));
    println!(
        "{} pairs: {} worse or unresolved, {} validity problems",
        rows.len(),
        open.clone().count(),
        problems.len()
    );
    Ok(if open.count() == 0 && problems.is_empty() { 0 } else { 1 })
}

fn cmd_compare(args: &Args) -> Result<i32, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result-set files".into());
    };
    compare_files(Path::new(a), Path::new(b), &args.benchmark)
}

/// Run this binary as a child for one untraced run and return its result
/// line. A child per run, because set-up time and peak memory are properties
/// of a process.
fn child_run(args: &Args, workload: Workload, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.spec().name, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &args.seconds.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || Json::parse(line).and_then(|j| parse_run(&j)).is_err() {
        return Err(format!(
            "child run of {} seed {seed} gave no result ({}): {}",
            workload.spec().name,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(line.to_string())
}

fn cmd_repeat(args: &Args) -> Result<i32, String> {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut sets: Vec<Vec<String>> = vec![Vec::new(); args.sets];
    for w in workloads {
        for r in 0..args.runs {
            // Alternate the sets run by run, so drift of the machine lands
            // on all of them alike; run r of every set has the same seed.
            for (k, set) in sets.iter_mut().enumerate() {
                let seed = args.seed + r as u64;
                let line = child_run(args, w, seed)?;
                eprintln!("set {k} {} seed {seed}: done", w.spec().name);
                set.push(set_entry(w.spec().name, seed, &line));
            }
        }
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let mut paths = Vec::new();
    for (k, set) in sets.iter().enumerate() {
        let path = args.out_dir.join(format!("repeat-set-{k}.json"));
        std::fs::write(&path, result_set(set)).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    let mut code = 0;
    for later in &paths[1..] {
        println!("== {} vs {}", paths[0].display(), later.display());
        code = code.max(compare_files(&paths[0], later, &args.benchmark)?);
    }
    Ok(code)
}
