//! Workload definitions and the seeded plan each run replays.
//!
//! A plan is a fixed number of *generations*, each a fixed list of session
//! requests. The seed decides application names, the order of launch shapes
//! and the order of arrival gaps; it never decides *how many* sessions run or
//! *which multiset* of shapes and gaps a generation holds, so two seeds load
//! the system equally and `attempted` is the same on every run.

use std::time::Duration;

/// The five workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `lmond` capacity at concurrency 2 (closed loop).
    StormClosed,
    /// `lmond` latency of independent arrivals on a busy daemon (open loop).
    StormOpen,
    /// Direct `launch_and_spawn` of a 4096-row RPDTAB.
    WideLaunch,
    /// Direct `launch_and_spawn` dominated by daemon spawn wait.
    SpawnBound,
    /// Attach + STAT sample wave + detach through the same front end.
    ToolAttach,
}

/// How sessions of a workload reach the launch stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Path {
    /// Through `lmond`'s Unix control socket.
    Daemon {
        /// `DaemonConfig::admission_limit`.
        admission_limit: usize,
        /// Mean arrivals per second; `None` is a closed loop.
        open_rate: Option<f64>,
    },
    /// `LmonFrontEnd::launch_and_spawn` then `kill`, on one thread.
    DirectLaunch,
    /// `lmon_tools::stat::run_stat_launchmon` against a running job.
    DirectAttach,
}

/// The fixed parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// How requests are issued.
    pub path: Path,
    /// Sessions per generation.
    pub gen_size: usize,
    /// Sessions of one set-up round: a short generation run exactly like a
    /// measured one. A run sets up [`SETUP_ROUNDS`] times.
    pub setup_sessions: usize,
    /// Measured generations at the reference `--seconds`.
    pub measured_gens: usize,
    /// Nodes of the per-generation virtual cluster.
    pub cluster_nodes: usize,
    /// Shape of the layer-ladder probes (and of every session on the direct
    /// workloads).
    pub probe_shape: Shape,
    /// `ClusterConfig::spawn_latency` of direct workloads.
    pub spawn_latency: Duration,
    /// Latency limit of `slo_met_share`, request → ready.
    pub slo_ms: f64,
}

/// Set-up rounds per run; `setup_s` is the fastest one.
pub const SETUP_ROUNDS: usize = 5;

/// `--seconds` value the `measured_gens` above are sized for; other values
/// scale the measured generation count linearly.
pub const REFERENCE_SECONDS: u64 = 16;

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::StormClosed,
        Workload::StormOpen,
        Workload::WideLaunch,
        Workload::SpawnBound,
        Workload::ToolAttach,
    ];

    /// Look a workload up by its `BENCHMARK.json` name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// The workload's fixed parameters. Sizes keep node 0's 4096-entry
    /// process table under half full within a generation (README, D1).
    pub fn spec(self) -> Spec {
        match self {
            Workload::StormClosed => Spec {
                name: "storm_closed",
                path: Path::Daemon { admission_limit: 8, open_rate: None },
                gen_size: 120,
                setup_sessions: 120,
                measured_gens: 40,
                cluster_nodes: 64,
                probe_shape: Shape { nodes: 8, tpn: 16 },
                spawn_latency: Duration::ZERO,
                slo_ms: 20.0,
            },
            Workload::StormOpen => Spec {
                name: "storm_open",
                path: Path::Daemon { admission_limit: 1, open_rate: Some(120.0) },
                // Half a second of arrivals: the filler sessions between
                // them fill the process tables too.
                gen_size: 60,
                setup_sessions: 48,
                measured_gens: 40,
                cluster_nodes: 64,
                probe_shape: Shape { nodes: 8, tpn: 16 },
                spawn_latency: Duration::ZERO,
                slo_ms: 20.0,
            },
            Workload::WideLaunch => Spec {
                name: "wide_launch",
                path: Path::DirectLaunch,
                gen_size: 8,
                setup_sessions: 16,
                measured_gens: 100,
                cluster_nodes: 32,
                probe_shape: Shape { nodes: 32, tpn: 128 },
                spawn_latency: Duration::ZERO,
                slo_ms: 50.0,
            },
            Workload::SpawnBound => Spec {
                name: "spawn_bound",
                path: Path::DirectLaunch,
                gen_size: 128,
                setup_sessions: 24,
                measured_gens: 7,
                cluster_nodes: 32,
                probe_shape: Shape { nodes: 32, tpn: 4 },
                spawn_latency: Duration::from_millis(2),
                slo_ms: 30.0,
            },
            Workload::ToolAttach => Spec {
                name: "tool_attach",
                path: Path::DirectAttach,
                gen_size: 100,
                setup_sessions: 60,
                measured_gens: 20,
                cluster_nodes: 32,
                probe_shape: Shape { nodes: 32, tpn: 16 },
                spawn_latency: Duration::ZERO,
                slo_ms: 20.0,
            },
        }
    }
}

/// Nodes × tasks per node of one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Nodes (one tool daemon each).
    pub nodes: usize,
    /// Application tasks per node.
    pub tpn: usize,
}

/// One session request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Application name the request carries.
    pub app: String,
    /// Launch shape.
    pub shape: Shape,
    /// Open loop: when the request is due, from the generation's start.
    pub due: Duration,
}

/// The requests of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Generations: the [`SETUP_ROUNDS`] short set-up ones first, then the
    /// measured ones.
    pub gens: Vec<Vec<Op>>,
    /// How many leading generations are set-up rounds.
    pub warmup_gens: usize,
    /// FNV-1a over every field of every request, folded to 32 bits so it
    /// survives a trip through a JSON number.
    pub hash: u32,
}

/// How much of the reference size a run executes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `--seconds`: measured generations scale with it.
    pub seconds: u64,
    /// `--smoke`: about a twentieth of the sessions, for tests.
    pub smoke: bool,
}

/// splitmix64: small, seedable, and good enough to shuffle with.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The storm workloads' shape mix: every node count with every task count
/// equally often, the remainder filled along the diagonal.
fn storm_shapes(n: usize) -> Vec<Shape> {
    const NODES: [usize; 3] = [4, 8, 16];
    const TPN: [usize; 3] = [8, 16, 32];
    (0..n)
        .map(|i| {
            let (cycle, slot) = (i / 9, i % 9);
            if (cycle + 1) * 9 <= n {
                Shape { nodes: NODES[slot / 3], tpn: TPN[slot % 3] }
            } else {
                Shape { nodes: NODES[slot % 3], tpn: TPN[slot % 3] }
            }
        })
        .collect()
}

/// Inter-arrival gaps of a Poisson process at `rate` per second, taken at
/// the mid-points of `n` equal-probability strata of the exponential
/// distribution: the same multiset for every seed, so every generation
/// offers exactly the same load and only the order is random.
fn stratified_gaps(n: usize, rate: f64) -> Vec<Duration> {
    (0..n)
        .map(|k| {
            let u = (k as f64 + 0.5) / n as f64;
            Duration::from_secs_f64(-(1.0 - u).ln() / rate)
        })
        .collect()
}

impl Plan {
    /// The plan of `workload` for `seed` at `scale`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let spec = workload.spec();
        let (gen_size, setup_sessions, measured_gens) = sizes(&spec, scale);
        let mut rng = Rng::new(seed ^ fnv1a(spec.name.as_bytes()));
        let mut hash = Fnv::default();
        let gens = (0..SETUP_ROUNDS + measured_gens)
            .map(|g| {
                let n = if g < SETUP_ROUNDS { setup_sessions } else { gen_size };
                let mut shapes = match spec.path {
                    Path::Daemon { .. } => storm_shapes(n),
                    _ => vec![spec.probe_shape; n],
                };
                rng.shuffle(&mut shapes);
                let mut gaps = match spec.path {
                    Path::Daemon { open_rate: Some(rate), .. } => stratified_gaps(n, rate),
                    _ => vec![Duration::ZERO; n],
                };
                rng.shuffle(&mut gaps);
                let mut due = Duration::ZERO;
                shapes
                    .into_iter()
                    .zip(gaps)
                    .map(|(shape, gap)| {
                        due += gap;
                        let app = format!("app{:05x}", rng.next_u64() & 0xf_ffff);
                        hash.write(app.as_bytes());
                        hash.write(&(shape.nodes as u64).to_le_bytes());
                        hash.write(&(shape.tpn as u64).to_le_bytes());
                        hash.write(&(due.as_nanos() as u64).to_le_bytes());
                        Op { app, shape, due }
                    })
                    .collect()
            })
            .collect();
        Plan { gens, warmup_gens: SETUP_ROUNDS, hash: hash.fold32() }
    }

    /// Sessions in the measured generations.
    pub fn measured_sessions(&self) -> usize {
        self.gens[self.warmup_gens..].iter().map(Vec::len).sum()
    }
}

/// (sessions per measured generation, sessions per set-up round, measured
/// generations).
fn sizes(spec: &Spec, scale: Scale) -> (usize, usize, usize) {
    if scale.smoke {
        // At least two measured generations: a traced run alternates
        // traced and untraced ones.
        let gens = spec.measured_gens.div_ceil(20).max(2);
        return ((spec.gen_size / 4).max(4), (spec.setup_sessions / 8).max(2), gens);
    }
    let scaled = (spec.measured_gens as u64 * scale.seconds).div_ceil(REFERENCE_SECONDS);
    (spec.gen_size, spec.setup_sessions, (scaled as usize).max(2))
}

#[derive(Debug, Clone)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fold32(&self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: Scale = Scale { seconds: REFERENCE_SECONDS, smoke: false };

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 7, FULL);
            let b = Plan::generate(w, 7, FULL);
            let c = Plan::generate(w, 8, FULL);
            assert_eq!(a.gens, b.gens);
            assert_eq!(a.hash, b.hash);
            assert_ne!(a.hash, c.hash, "{}", w.spec().name);
        }
    }

    #[test]
    fn session_counts_do_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let spec = w.spec();
            let a = Plan::generate(w, 1, FULL);
            let b = Plan::generate(w, 2, FULL);
            assert_eq!(a.measured_sessions(), spec.gen_size * spec.measured_gens);
            assert_eq!(a.measured_sessions(), b.measured_sessions());
        }
    }

    #[test]
    fn every_generation_holds_the_same_shapes_and_gaps() {
        let plan = Plan::generate(Workload::StormOpen, 3, FULL);
        let measured = &plan.gens[plan.warmup_gens..];
        let key = |g: &Vec<Op>| {
            let mut shapes: Vec<(usize, usize)> =
                g.iter().map(|o| (o.shape.nodes, o.shape.tpn)).collect();
            shapes.sort_unstable();
            (shapes, g.last().map(|o| o.due))
        };
        let first = key(&measured[0]);
        // Each of the nine shapes 6 times, six more on the diagonal.
        assert_eq!(first.0.iter().filter(|s| **s == (4, 16)).count(), 6);
        assert_eq!(first.0.iter().filter(|s| **s == (8, 16)).count(), 8);
        for g in measured {
            let k = key(g);
            assert_eq!(k.0, first.0);
            // Same gaps in another order: the last due time agrees up to
            // floating-point summation order.
            let (a, b) = (k.1.unwrap().as_secs_f64(), first.1.unwrap().as_secs_f64());
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn seconds_scale_the_measured_generations_only() {
        let half = Plan::generate(Workload::WideLaunch, 1, Scale { seconds: 8, smoke: false });
        assert_eq!(half.warmup_gens, SETUP_ROUNDS);
        assert_eq!(half.gens.len(), SETUP_ROUNDS + 50);
        assert!(half.gens[..SETUP_ROUNDS].iter().all(|g| g.len() == 16));
        let smoke = Plan::generate(Workload::SpawnBound, 1, Scale { seconds: 16, smoke: true });
        assert_eq!(smoke.gens.len(), SETUP_ROUNDS + 2);
        assert_eq!(smoke.gens[SETUP_ROUNDS].len(), 32);
    }
}
