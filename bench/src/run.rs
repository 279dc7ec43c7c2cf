//! One benchmark run: plan → warm-up generations → measured generations →
//! (traced runs) layer ladder → metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::direct;
use crate::gen::{GenOutcome, Sample, Trace};
use crate::ladder;
use crate::metrics::{Layer, END_TO_END, PER_LAYER};
use crate::plan::{Op, Path as WorkPath, Plan, Scale, Spec, Workload};
use crate::spans::SpanBuf;
use crate::stats::{cpu_ms, mean, median, quantile, slope, status_field};
use crate::storm::{self, StormCfg};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of the plan.
    pub seed: u64,
    /// Size of the run.
    pub scale: Scale,
    /// Alternate traced and untraced generations, run the layer ladder and
    /// report per-layer metrics.
    pub trace: bool,
    /// Where scratch sockets and trace files go.
    pub out_dir: PathBuf,
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The workload's name.
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// Every session passed every check and every generation ended clean.
    pub correct: bool,
    /// Sessions in the measured generations.
    pub attempted: usize,
    /// Measured sessions that failed or were incorrect.
    pub failed: usize,
    /// The eight end-to-end metrics. In a traced run they come from traced
    /// and untraced generations alike and are for reading, not comparing.
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric (traced runs only).
    pub per_layer: Option<Vec<Metric>>,
    /// Spans of the traced generations (traced runs only).
    pub spans: Option<SpanBuf>,
    /// Wall time of each measured generation's bring-up + shutdown, summed.
    pub generation_overhead_s: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// Sessions per block. End-to-end timings are computed per block of at
/// least this many consecutive sessions (whole generations) and the run
/// reports its best block.
const BLOCK_SESSIONS: usize = 100;

/// Consecutive measured generations holding at least [`BLOCK_SESSIONS`]
/// sessions.
#[derive(Debug, Default)]
struct Block {
    samples: Vec<Sample>,
    /// Unmeasured filler sessions run beside them.
    filler: usize,
    /// Summed in-generation wall time.
    wall_s: f64,
    /// Process CPU time over the block's generations, bring-up and shutdown
    /// included.
    cpu_ms: f64,
}

impl Block {
    fn absorb(&mut self, other: Block) {
        self.samples.extend(other.samples);
        self.filler += other.filler;
        self.wall_s += other.wall_s;
        self.cpu_ms += other.cpu_ms;
    }

    /// Sessions the block executed correctly, filler included.
    fn sessions_done(&self) -> f64 {
        (self.samples.iter().filter(|s| s.ok).count() + self.filler) as f64
    }

    /// `f` over the block's correct sessions.
    fn series(&self, f: fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().filter(|s| s.ok).map(f).collect()
    }
}

/// How many failure messages a result keeps.
const MAX_ERRORS: usize = 8;

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

fn run_gen(
    spec: &Spec,
    opts: &RunOptions,
    gen_no: usize,
    ops: &[Op],
    trace: Option<&mut Trace>,
) -> GenOutcome {
    match spec.path {
        WorkPath::Daemon { admission_limit, open_rate } => {
            let cfg = StormCfg {
                admission_limit,
                open: open_rate.is_some(),
                cluster_nodes: spec.cluster_nodes,
                connections: connections(),
                probe_every: storm::PROBE_EVERY,
                out_dir: opts.out_dir.clone(),
            };
            storm::run_gen(&cfg, gen_no, ops, trace)
        }
        WorkPath::DirectLaunch => direct::run_launch_gen(spec, gen_no, ops, trace),
        WorkPath::DirectAttach => direct::run_attach_gen(spec, gen_no, ops, trace),
    }
}

/// Run `opts.workload` once. `process_start` is when `main` began: set-up
/// time is measured from it.
pub fn run(opts: &RunOptions, process_start: Instant) -> RunResult {
    let spec = opts.workload.spec();
    let plan = Plan::generate(opts.workload, opts.seed, opts.scale);
    let mut errors: Vec<String> = Vec::new();

    // Set-up, several times over: regenerate the plan, then run one short
    // generation exactly like a measured one, so allocator arenas, thread
    // stacks and lazy statics are where a long-lived tool would find them.
    // The first round starts at process start. `setup_s` is the fastest
    // round, for the reason given at `best_block` below.
    let mut round_start = process_start;
    let mut setup_s = f64::INFINITY;
    for (gen_no, ops) in plan.gens[..plan.warmup_gens].iter().enumerate() {
        std::hint::black_box(Plan::generate(opts.workload, opts.seed, opts.scale));
        let out = run_gen(&spec, opts, gen_no, ops, None);
        errors.extend(out.errors.into_iter().map(|e| format!("set-up: {e}")));
        setup_s = setup_s.min(round_start.elapsed().as_secs_f64());
        round_start = Instant::now();
    }

    let mut trace = opts.trace.then(Trace::new);
    let mut blocks: Vec<Block> = Vec::new();
    let mut block = Block::default();
    let mut traced_ready: Vec<f64> = Vec::new();
    let mut untraced_ready: Vec<f64> = Vec::new();
    let rss0 = status_field("VmRSS");
    let measured_start = Instant::now();
    for (k, ops) in plan.gens[plan.warmup_gens..].iter().enumerate() {
        // A traced run alternates: odd generations record spans and
        // per-layer samples, even ones run bare, so the overhead of tracing
        // is read off one process under one machine state.
        let traced = trace.is_some() && k % 2 == 1;
        let gen_trace = if traced { trace.as_mut() } else { None };
        let cpu0 = cpu_ms();
        let out = run_gen(&spec, opts, plan.warmup_gens + k, ops, gen_trace);
        block.cpu_ms += cpu_ms() - cpu0;
        block.wall_s += out.wall.as_secs_f64();
        block.filler += out.filler_sessions;
        let ready = out.samples.iter().filter(|s| s.ok).map(|s| s.ready_ms);
        if traced {
            traced_ready.extend(ready);
        } else {
            untraced_ready.extend(ready);
        }
        if let Some(t) = trace.as_mut() {
            let teardowns: Vec<f64> =
                out.samples.iter().filter(|s| s.ok).map(|s| s.teardown_ms * 1e3).collect();
            t.layer.push("core.teardown_slope_us_per_session", slope(&teardowns));
        }
        block.samples.extend(out.samples);
        errors.extend(out.errors);
        if block.samples.len() >= BLOCK_SESSIONS {
            blocks.push(std::mem::take(&mut block));
        }
    }
    // A short tail joins the last full block rather than standing alone.
    match blocks.last_mut() {
        Some(last) => last.absorb(block),
        None => blocks.push(block),
    }
    let in_gen_wall_s: f64 = blocks.iter().map(|b| b.wall_s).sum();
    let measured_wall_s = measured_start.elapsed().as_secs_f64();
    let rss_growth_kb = status_field("VmRSS") - rss0;
    let threads_end = status_field("Threads");
    let rss_peak_mb = status_field("VmHWM") / 1024.0;

    let attempted: usize = blocks.iter().map(|b| b.samples.len()).sum();
    let ok = || blocks.iter().flat_map(|b| &b.samples).filter(|s| s.ok);
    let failed = attempted - ok().count();
    let within_slo = ok().filter(|s| s.ready_ms <= spec.slo_ms).count();
    let per_session = |total: f64| total / attempted.max(1) as f64;
    // Every timing is the block statistic of the run's least-disturbed
    // block. On a shared machine other tenants only ever add time, in phases
    // that last from a fraction of a second to many minutes; the best block
    // is what the code does when left alone, and it moved least between such
    // phases in sizing (README, "Steadiness").
    let best_block = |f: &dyn Fn(&Block) -> f64| blocks.iter().map(f).fold(f64::INFINITY, f64::min);
    let values = [
        setup_s,
        best_block(&|b| quantile(&b.series(|s| s.ready_ms), 0.50)),
        best_block(&|b| quantile(&b.series(|s| s.ready_ms), 0.90)),
        best_block(&|b| median(&b.series(|s| s.teardown_ms))),
        best_block(&|b| median(&b.series(|s| s.total_ms))),
        -best_block(&|b| -b.sessions_done() / b.wall_s.max(f64::MIN_POSITIVE)),
        within_slo as f64 / attempted.max(1) as f64,
        rss_peak_mb,
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric { name: def.name, unit: def.unit, value })
        .collect();

    let (per_layer, spans) = match trace {
        None => (None, None),
        Some(Trace { mut layer, spans }) => {
            layer.push("loadgen.plan_hash", f64::from(plan.hash));
            for s in ok() {
                layer.push("core.time_to_ready_p99_ms", s.ready_ms);
            }
            layer.push("proc.threads_end", threads_end);
            layer.push("proc.rss_growth_kb_per_session", per_session(rss_growth_kb));
            layer.push(
                "proc.cpu_ms_per_session",
                best_block(&|b| b.cpu_ms / b.sessions_done().max(1.0)),
            );
            let bare = median(&untraced_ready);
            if bare > 0.0 {
                layer.push("trace.overhead_share", median(&traced_ready) / bare - 1.0);
            }
            let mut probes = Layer::default();
            errors.extend(ladder::run(&spec, opts.seed, &opts.out_dir, &mut probes));
            (Some(reduce_layers(&layer, &probes)), Some(spans))
        }
    };

    errors.truncate(MAX_ERRORS);
    RunResult {
        workload: spec.name,
        seed: opts.seed,
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        spans,
        generation_overhead_s: measured_wall_s - in_gen_wall_s,
        errors,
    }
}

/// Every per-layer metric: from the session path where the sessions cross
/// the layer, otherwise from the ladder's probe of it.
fn reduce_layers(path: &Layer, probes: &Layer) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|def| {
            let from = |layer: &Layer| match def.name {
                "daemon.socket_overhead_ms" => socket_overhead(layer),
                _ => layer.reduce(def),
            };
            let value = from(path).or_else(|| from(probes)).unwrap_or(0.0);
            Metric { name: def.name, unit: def.unit, value }
        })
        .collect()
}

/// What socket, codec and the connection thread add to a launch: client-side
/// median minus in-process (`Daemon::dispatch`) median, taken per launch
/// shape — the two samples do not hold the same shape mix — and averaged.
fn socket_overhead(layer: &Layer) -> Option<f64> {
    let by_shape = |times: &str, shapes: &str| {
        let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (t, shape) in layer.samples(times).iter().zip(layer.samples(shapes)) {
            groups.entry(*shape as u64).or_default().push(*t);
        }
        groups
    };
    let client = by_shape("client.launch_ms", "client.launch_shape");
    let in_process = by_shape("daemon.dispatch_launch_ms_p50", "daemon.dispatch_launch_shape");
    let diffs: Vec<f64> = client
        .iter()
        .filter_map(|(shape, c)| Some(median(c) - median(in_process.get(shape)?)))
        .collect();
    (!diffs.is_empty()).then(|| mean(&diffs))
}

/// Write a traced run's spans to `<out_dir>/trace-<workload>.json`.
pub fn write_trace(result: &RunResult, out_dir: &Path) -> std::io::Result<Option<PathBuf>> {
    let Some(spans) = &result.spans else { return Ok(None) };
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace-{}.json", result.workload));
    std::fs::write(&path, spans.to_json(result.workload, result.seed))?;
    Ok(Some(path))
}
