//! The long-lived launch service: front-end pool, session registry, and
//! the control-connection serve loop.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use lmon_cluster::config::ClusterConfig;
use lmon_cluster::process::Pid;
use lmon_cluster::VirtualCluster;
use lmon_core::be::BeMain;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::session::SessionId;
use lmon_core::HealthState;
use lmon_proto::payload::DaemonSpec;
use lmon_rm::api::{JobSpec, ResourceManager};
use lmon_rm::SlurmRm;
use lmon_tbon::filter::{FilterKind, FilterRegistry};
use lmon_tbon::overlay::{CommFault, FrontEndpoint, LeafEndpoint, Overlay, UpgradeReport};
use lmon_tbon::recovery::OverlayStats;
use lmon_tbon::spec::TopologySpec;
use lmon_tbon::{PhiAccrualParams, SuspicionTable};

use crate::admission::{AdmissionError, AdmissionQueue, Permit};
use crate::control::{negotiate, Reply, Request, HELLO_BANNER, SUPPORTED_VERSIONS};
use crate::error::{DaemonError, DaemonResult};
use crate::metrics::{render_prometheus, MetricsSnapshot};

/// Overlay shape an `UPGRADE` request drills when none is given: a designed
/// fan-out of 4 over 16 leaves, with one hot spare per interior comm.
pub const DEFAULT_UPGRADE_SHAPE: &str = "1x4x16+4";

/// Suspicion tables retained for `/metrics` (most recent drills only, so a
/// long-lived daemon's scrape payload stays bounded).
const SUSPICION_TABLES_CAP: usize = 4;

/// Longest control request line a connection may send, newline included. A
/// request is a verb and a few tokens — an `ATTACH` naming a thousand pids
/// is about 21 KiB — so a longer line is a client that never sends `\n`,
/// and buffering it would grow the daemon's memory without bound.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Tunables for a daemon instance. `Default` is sized for tests and small
/// deployments; production embedders scale the pool and cluster.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Pooled front ends (each with its own engine and virtual cluster).
    pub backends: usize,
    /// Federation groups ([`FeShard`]s) the backend pool is partitioned
    /// into. Sessions are pinned to a group by a deterministic hash of the
    /// application name; clamped to `[1, backends]`.
    pub groups: usize,
    /// Nodes per backend's virtual cluster.
    pub cluster_nodes: usize,
    /// Concurrent in-flight session bound (the admission limit).
    pub admission_limit: usize,
    /// Launch requests that may wait in the admission queue before new
    /// ones are rejected with a retryable busy error.
    pub queue_capacity: usize,
    /// Concurrent control connections before new ones are turned away.
    pub max_connections: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            backends: 2,
            groups: 1,
            cluster_nodes: 64,
            admission_limit: 8,
            queue_capacity: 1024,
            max_connections: 256,
        }
    }
}

/// One pooled front end and the virtual cluster behind it.
struct Backend {
    fe: Arc<LmonFrontEnd>,
    cluster: VirtualCluster,
}

/// How a session's daemons get onto their nodes.
enum Origin {
    /// `LAUNCH`: the job is ours to start, so any shard can stand the
    /// session up (again, after a whole-group FE failover).
    Launch { nodes: usize, tasks_per_node: usize },
    /// `ATTACH`: the launcher already runs on one shard's cluster and dies
    /// with it, so the session cannot follow a failover.
    Attach { pid: u64 },
}

/// What a session was asked to be: everything [`Daemon::establish`] needs
/// to stand it up. Holds the admission [`Permit`]: the slot frees exactly
/// when the seed (inside its [`SessionEntry`], or on a failed establish) is
/// dropped, so no control path can leak admission capacity.
struct SessionSeed {
    app: String,
    origin: Origin,
    daemon: DaemonSpec,
    body: BeMain,
    #[allow(dead_code)] // held for its Drop
    permit: Permit,
}

/// A live session's bookkeeping entry. Its federation group is not stored:
/// [`Daemon::group_of`] derives it from `fe_idx`.
struct SessionEntry {
    fe_idx: usize,
    sid: SessionId,
    daemons: usize,
    started: Instant,
    seed: SessionSeed,
}

/// One federation group's slice of the backend pool: the [`FeShard`] a
/// session is pinned to. Shard `g` owns backends `{ i | i % groups == g }`,
/// so every group has at least one FE whenever `groups <= backends`.
#[derive(Debug, Clone)]
pub struct FeShard {
    /// Group index (`0..groups`).
    pub group: usize,
    /// Backend indices this shard owns.
    pub backends: Vec<usize>,
    /// False after [`Daemon::fail_group`] declared the group's FEs dead
    /// and ended every session they hosted.
    pub alive: bool,
}

/// Outcome of a whole-group FE failover ([`Daemon::fail_group`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// The group whose front ends were declared dead.
    pub group: usize,
    /// Launch sessions re-homed onto sibling shards.
    pub rehomed: usize,
    /// Sessions dropped (attach sessions, or re-launch failures).
    pub dropped: usize,
}

/// FNV-1a over the app name: the deterministic session→group pin. Stable
/// across runs and platforms, so chaos seeds reproduce placement exactly.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The persistent multi-tenant launch service.
///
/// Owns a pool of [`LmonFrontEnd`]s and serves launch/attach-style session
/// management over the line-delimited control protocol in
/// [`crate::control`]. See DESIGN.md §10 for the architecture.
pub struct Daemon {
    cfg: DaemonConfig,
    backends: Vec<Backend>,
    /// Effective federation group count (`cfg.groups` clamped to the pool).
    groups: usize,
    /// Per-group liveness; flipped by [`Daemon::fail_group`].
    shard_alive: Vec<AtomicBool>,
    /// Whole-group failovers served ([`Daemon::fail_group`] calls).
    fed_failovers: AtomicU64,
    next_backend: AtomicUsize,
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_gsid: AtomicU64,
    admission: Arc<AdmissionQueue>,
    bodies: Mutex<HashMap<String, BeMain>>,
    overlay_stats: Arc<OverlayStats>,
    launches_total: AtomicU64,
    launch_failures_total: AtomicU64,
    active_conns: AtomicUsize,
    shutting_down: AtomicBool,
    started_at: Instant,
    upgrades_run: AtomicU64,
    /// Live suspicion tables from recent upgrade drills (bounded; exported
    /// as the per-child suspicion gauge on `/metrics`).
    suspicion_tables: Mutex<Vec<Arc<SuspicionTable>>>,
    /// Bound control endpoints, recorded by [`start_daemon`] so that
    /// [`Daemon::begin_shutdown`] can poke its own blocking accept loops
    /// awake (a `SHUTDOWN` arriving on one listener must unblock both).
    endpoints: Mutex<BoundEndpoints>,
}

#[derive(Default)]
struct BoundEndpoints {
    socket_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl Daemon {
    /// Build the service (front-end pool up, nothing listening yet).
    pub fn new(cfg: DaemonConfig) -> DaemonResult<Arc<Daemon>> {
        let pool = cfg.backends.max(1);
        let groups = cfg.groups.clamp(1, pool);
        let mut backends = Vec::with_capacity(pool);
        for _ in 0..pool {
            let cluster = VirtualCluster::new(ClusterConfig::with_nodes(cfg.cluster_nodes));
            let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
            let fe = Arc::new(LmonFrontEnd::init(rm).map_err(DaemonError::Core)?);
            backends.push(Backend { fe, cluster });
        }
        let admission = AdmissionQueue::new(cfg.admission_limit, cfg.queue_capacity);
        let daemon = Arc::new(Daemon {
            backends,
            groups,
            shard_alive: (0..groups).map(|_| AtomicBool::new(true)).collect(),
            fed_failovers: AtomicU64::new(0),
            next_backend: AtomicUsize::new(0),
            sessions: Mutex::new(HashMap::new()),
            next_gsid: AtomicU64::new(1),
            admission,
            bodies: Mutex::new(HashMap::new()),
            overlay_stats: Arc::new(OverlayStats::default()),
            launches_total: AtomicU64::new(0),
            launch_failures_total: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            started_at: Instant::now(),
            upgrades_run: AtomicU64::new(0),
            suspicion_tables: Mutex::new(Vec::new()),
            endpoints: Mutex::new(BoundEndpoints::default()),
            cfg,
        });
        daemon.register_builtin_bodies();
        Ok(daemon)
    }

    /// `sleeper` parks until detach/kill; `oneshot` exits after the
    /// bootstrap barrier (storm workloads that only measure launch).
    fn register_builtin_bodies(&self) {
        let sleeper: BeMain = Arc::new(|be| {
            let _ = be.barrier();
            let _ = be.wait_shutdown();
        });
        let oneshot: BeMain = Arc::new(|be| {
            let _ = be.barrier();
        });
        let mut bodies = self.bodies.lock();
        bodies.insert("sleeper".into(), sleeper);
        bodies.insert("oneshot".into(), oneshot);
    }

    /// Register (or replace) a daemon body under `name`, e.g. a real tool
    /// back end like jobsnap's. Embedders call this before serving.
    pub fn register_body(&self, name: impl Into<String>, body: BeMain) {
        self.bodies.lock().insert(name.into(), body);
    }

    /// Shared overlay-recovery counters: TBON workloads run next to this
    /// daemon feed them, `/metrics` exports them.
    pub fn overlay_stats(&self) -> Arc<OverlayStats> {
        Arc::clone(&self.overlay_stats)
    }

    /// The admission queue (stats inspection, embedder-driven admission).
    pub fn admission(&self) -> &Arc<AdmissionQueue> {
        &self.admission
    }

    /// Register a suspicion table for `/metrics` export. Only the 4 most
    /// recent tables are retained (`SUSPICION_TABLES_CAP`) — stale drills
    /// age out instead of growing the scrape payload forever.
    pub fn register_suspicion_table(&self, table: Arc<SuspicionTable>) {
        let mut tables = self.suspicion_tables.lock();
        tables.push(table);
        if tables.len() > SUSPICION_TABLES_CAP {
            let excess = tables.len() - SUSPICION_TABLES_CAP;
            tables.drain(..excess);
        }
    }

    /// Chaos/test hook: the front end behind backend `idx` (the round-robin
    /// target of `LAUNCH` requests), so a test can install fault plans or
    /// shorten handshake timeouts before driving a storm. `None` when `idx`
    /// is past the configured backend count.
    pub fn backend_fe(&self, idx: usize) -> Option<&Arc<LmonFrontEnd>> {
        self.backends.get(idx).map(|b| &b.fe)
    }

    /// Chaos/test hook: the backend index and FE-local session id behind
    /// `gsid` — what a test needs to talk to the session through
    /// [`Self::backend_fe`]. Both change when [`Self::fail_group`] re-homes
    /// the session. `None` for an unknown gsid.
    pub fn session_of(&self, gsid: u64) -> Option<(usize, SessionId)> {
        self.sessions.lock().get(&gsid).map(|e| (e.fe_idx, e.sid))
    }

    // --- FeShard pool -----------------------------------------------------

    /// Effective federation group count (≥ 1).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Whether `group`'s front ends are still serving.
    fn shard_is_alive(&self, group: usize) -> bool {
        self.shard_alive[group].load(Ordering::SeqCst)
    }

    /// The one shard rule: backend `fe_idx` belongs to group
    /// `fe_idx % groups`.
    fn group_of(&self, fe_idx: usize) -> usize {
        fe_idx % self.groups
    }

    /// The backends group `group` owns, in index order.
    fn backends_of(&self, group: usize) -> Vec<usize> {
        (0..self.backends.len()).filter(|&i| self.group_of(i) == group).collect()
    }

    /// The [`FeShard`] view of group `g` (its backend slice + liveness).
    pub fn shard(&self, group: usize) -> Option<FeShard> {
        let alive = self.shard_alive.get(group)?.load(Ordering::SeqCst);
        Some(FeShard { group, backends: self.backends_of(group), alive })
    }

    /// The group `app`'s sessions are pinned to: FNV-1a of the name modulo
    /// the group count, linearly probed past dead shards so a failed group
    /// deterministically hands its keyspace to the next live sibling.
    pub fn group_of_app(&self, app: &str) -> usize {
        let home = (fnv1a(app) % self.groups as u64) as usize;
        (0..self.groups)
            .map(|off| (home + off) % self.groups)
            .find(|&g| self.shard_is_alive(g))
            .unwrap_or(home)
    }

    /// Round-robin over a group's backends.
    fn pick_backend(&self, group: usize) -> usize {
        let shard = self.backends_of(group);
        let n = self.next_backend.fetch_add(1, Ordering::Relaxed);
        shard[n % shard.len()]
    }

    /// Declare a whole group's front ends dead and fail its sessions over:
    /// mark the shard dead (new placements probe past it), then end every
    /// session it hosted on its old backend — a launched job is killed, an
    /// attached one detached, so no old copy keeps running — and re-launch
    /// each launch session on a sibling shard's FE under the same gsid and
    /// admission permit. Attach sessions cannot follow — their launcher ran
    /// on the dead shard's cluster — so they are dropped and counted.
    /// DESIGN.md §13 gives the ordering argument.
    pub fn fail_group(&self, group: usize) -> FailoverReport {
        let failover = self.fed_failovers.fetch_add(1, Ordering::SeqCst) + 1;
        if group < self.groups {
            self.shard_alive[group].store(false, Ordering::SeqCst);
        }
        let mut report = FailoverReport { group, rehomed: 0, dropped: 0 };

        let victims: Vec<u64> = {
            let sessions = self.sessions.lock();
            let in_group = |e: &SessionEntry| self.group_of(e.fe_idx) == group;
            sessions.iter().filter(|(_, e)| in_group(e)).map(|(g, _)| *g).collect()
        };
        for gsid in victims {
            let Some(entry) = self.sessions.lock().remove(&gsid) else { continue };
            let launched = matches!(entry.seed.origin, Origin::Launch { .. });
            // Best effort: the group is declared dead whether or not its FE
            // still answers the teardown.
            let _ = self.end_session(&entry, launched);
            let seed = entry.seed;
            let sibling = self.group_of_app(&seed.app);
            if !(launched && sibling != group && self.shard_is_alive(sibling)) {
                report.dropped += 1; // seed (and permit) dropped with it
                continue;
            }
            let how = format!("re-homed from dead group g{group} at failover {failover}");
            let fe_idx = self.pick_backend(sibling);
            match self.establish(fe_idx, seed, Some(gsid), HealthState::Healed, &how) {
                Ok(_) => report.rehomed += 1,
                Err(_) => report.dropped += 1,
            }
        }
        report
    }

    /// The one way a session comes to exist, whoever asks (`LAUNCH`,
    /// `ATTACH`, a failover re-home): create the FE session, co-locate the
    /// daemons, seed the health ledger so the session shows up in
    /// `/metrics` (and retires into the bounded ring on kill/detach rather
    /// than vanishing), file the entry under its gsid — a fresh one unless
    /// the caller keeps an old handle alive — and count the outcome.
    fn establish(
        &self,
        fe_idx: usize,
        seed: SessionSeed,
        gsid: Option<u64>,
        health: HealthState,
        how: &str,
    ) -> lmon_core::LmonResult<(u64, usize)> {
        let fe = &self.backends[fe_idx].fe;
        let sid = fe.create_session();
        let started = Instant::now();
        let (daemon, body) = (seed.daemon.clone(), seed.body.clone());
        let spawned = match seed.origin {
            Origin::Launch { nodes, tasks_per_node } => {
                fe.launch_and_spawn(sid, &seed.app, &[], nodes, tasks_per_node, daemon, body)
            }
            Origin::Attach { pid } => fe.attach_and_spawn(sid, Pid(pid), daemon, body),
        };
        // The front end has ended a failed session, and `seed.permit` drops
        // with the seed: a failed launch frees its slot.
        let spawned = spawned.inspect_err(|_| {
            self.launch_failures_total.fetch_add(1, Ordering::Relaxed);
        });
        let daemons = spawned?.daemon_count;
        let gsid = gsid.unwrap_or_else(|| self.next_gsid.fetch_add(1, Ordering::Relaxed));
        fe.record_session_health(sid, health, 0, format!("{how} (gsid {gsid})"));
        self.sessions.lock().insert(gsid, SessionEntry { fe_idx, sid, daemons, started, seed });
        self.launches_total.fetch_add(1, Ordering::Relaxed);
        Ok((gsid, daemons))
    }

    /// The daemon image registered under `name`: its process-table spec and
    /// the body it runs.
    fn daemon_image(&self, name: &str) -> Result<(DaemonSpec, BeMain), String> {
        let body = self.bodies.lock().get(name).cloned();
        let body = body.ok_or_else(|| format!("unknown daemon body {name:?}"))?;
        Ok((DaemonSpec::bare(format!("lmond_be_{name}")), body))
    }

    /// Take an admission slot — blocking while queued — or say why not in
    /// the control protocol's words.
    fn admit(&self) -> Result<Permit, String> {
        self.admission.admit().map_err(|e| match e {
            AdmissionError::QueueFull { .. } => format!("busy: {e}"),
            AdmissionError::Closed => format!("shutdown: {e}"),
        })
    }

    /// Refuse a job shape no backend's cluster can hold.
    fn check_shape(&self, nodes: usize, tasks_per_node: usize) -> Result<(), String> {
        if nodes == 0 || tasks_per_node == 0 {
            return Err("nodes and tasks_per_node must be >= 1".into());
        }
        if nodes > self.cfg.cluster_nodes {
            let size = self.cfg.cluster_nodes;
            return Err(format!("nodes {nodes} exceeds backend cluster size {size}"));
        }
        Ok(())
    }

    /// Live session count.
    pub fn sessions_active(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Begin shutdown: stop admitting, wake queued waiters with errors, and
    /// poke any blocking accept loops awake with throwaway self-connects so
    /// they observe the flag and exit.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.admission.close();
        let ep = self.endpoints.lock();
        #[cfg(unix)]
        if let Some(path) = &ep.socket_path {
            let _ = UnixStream::connect(path);
        }
        if let Some(addr) = ep.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    // --- request dispatch -------------------------------------------------

    /// Serve one parsed request (transport-independent; also the in-process
    /// API used by tests that bypass sockets).
    pub fn dispatch(&self, req: &Request) -> Reply {
        // Session-making handlers return `Err(text)` for an `ERR` reply.
        let or_err = |handled: Result<Reply, String>| handled.unwrap_or_else(Reply::Err);
        match req {
            Request::Hello { version } => {
                let supported =
                    SUPPORTED_VERSIONS.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
                Reply::ok(&[
                    ("banner", HELLO_BANNER.replace(' ', "/")),
                    ("version", negotiate(*version).to_string()),
                    ("supported", supported),
                ])
            }
            Request::Ping => Reply::ok(&[
                ("pong", "1".into()),
                ("uptime_s", self.started_at.elapsed().as_secs().to_string()),
            ]),
            Request::Launch { app, nodes, tasks_per_node, body } => {
                or_err(self.handle_launch(app, *nodes, *tasks_per_node, body))
            }
            Request::Attach { pids, body } => or_err(self.handle_attach(pids, body)),
            Request::RunJob { app, nodes, tasks_per_node } => {
                or_err(self.handle_runjob(app, *nodes, *tasks_per_node))
            }
            Request::Upgrade { shape } => self.handle_upgrade(shape.as_deref()),
            Request::Status => self.handle_status(),
            Request::SessionStatus { gsid } => self.handle_session_status(*gsid),
            Request::Detach { gsid } => self.handle_end(*gsid, false),
            Request::Kill { gsid } => self.handle_end(*gsid, true),
            Request::Metrics => {
                Reply::OkLines(self.render_metrics().lines().map(str::to_string).collect())
            }
            Request::Shutdown => Reply::ok(&[("shutdown", "1".into())]),
            Request::HttpGet { path } => {
                // Normally intercepted by the connection loop; answering
                // inline keeps dispatch total.
                Reply::Err(format!("HTTP GET {path} is only served on socket connections"))
            }
        }
    }

    fn handle_launch(
        &self,
        app: &str,
        nodes: usize,
        tasks_per_node: usize,
        body: &str,
    ) -> Result<Reply, String> {
        let (daemon, body) = self.daemon_image(body)?;
        self.check_shape(nodes, tasks_per_node)?;

        // Admission: block (queueing) or fail fast when the queue is full.
        let queued_at = Instant::now();
        let permit = self.admit()?;
        let wait_ms = queued_at.elapsed().as_millis();

        let fe_idx = self.pick_backend(self.group_of_app(app));
        let launch_started = Instant::now();
        let origin = Origin::Launch { nodes, tasks_per_node };
        let seed = SessionSeed { app: app.to_string(), origin, daemon, body, permit };
        let (gsid, daemons) = self
            .establish(fe_idx, seed, None, HealthState::Healthy, "launched via lmond")
            .map_err(|e| format!("launch failed: {e}"))?;
        Ok(Reply::ok(&[
            ("gsid", gsid.to_string()),
            ("fe", fe_idx.to_string()),
            ("group", self.group_of(fe_idx).to_string()),
            ("daemons", daemons.to_string()),
            ("wait_ms", wait_ms.to_string()),
            ("launch_ms", launch_started.elapsed().as_millis().to_string()),
        ]))
    }

    /// Start a plain (tool-free) job on one backend's resource manager —
    /// the running launcher a later `ATTACH` targets. Mirrors the paper's
    /// attach-mode workflow: the job exists first, the tool comes second.
    fn handle_runjob(
        &self,
        app: &str,
        nodes: usize,
        tasks_per_node: usize,
    ) -> Result<Reply, String> {
        self.check_shape(nodes, tasks_per_node)?;
        let fe_idx = self.pick_backend(self.group_of_app(app));
        let rm = self.backends[fe_idx].fe.rm();
        let handle = rm
            .launch_job(&JobSpec::new(app, nodes, tasks_per_node), false)
            .map_err(|e| format!("runjob failed: {e}"))?;
        Ok(Reply::ok(&[
            ("pid", handle.launcher_pid.0.to_string()),
            ("job", handle.job_id.to_string()),
            ("fe", fe_idx.to_string()),
            ("nodes", handle.allocation.len().to_string()),
        ]))
    }

    /// Attach tool daemons to already-running jobs: one session per
    /// launcher pid, each admitted like a launch. Every pid is resolved to
    /// its owning backend *before* any attach runs, so a bad pid fails the
    /// whole request instead of half of it; a failure mid-way reports how
    /// many sessions were already established (they stay live and show up
    /// in `STATUS`). Only live shards own pids: a launcher on a failed
    /// group's cluster is refused by name, never given a session there.
    fn handle_attach(&self, pids: &[u64], body: &str) -> Result<Reply, String> {
        let (daemon, body) = self.daemon_image(body)?;
        let mut targets = Vec::with_capacity(pids.len());
        for &pid in pids {
            let knows = |i: &usize| self.backends[*i].cluster.find_proc(Pid(pid)).is_ok();
            let owners: Vec<usize> = (0..self.backends.len()).filter(knows).collect();
            let live = owners.iter().copied().find(|&i| self.shard_is_alive(self.group_of(i)));
            let fe_idx = live.ok_or_else(|| match owners.first() {
                Some(&i) => format!("pid {pid} runs on failed group g{}", self.group_of(i)),
                None => format!("no running process with pid {pid}"),
            })?;
            targets.push((pid, fe_idx));
        }

        let mut gsids: Vec<String> = Vec::with_capacity(targets.len());
        let mut daemons_total = 0usize;
        for (pid, fe_idx) in targets {
            let so_far = || format!("({} of {} attached)", gsids.len(), pids.len());
            let permit = self.admit().map_err(|why| format!("{why} {}", so_far()))?;
            let (app, origin) = (format!("attach:pid={pid}"), Origin::Attach { pid });
            let seed =
                SessionSeed { app, origin, daemon: daemon.clone(), body: body.clone(), permit };
            let how = format!("attached via lmond to launcher pid {pid}");
            let (gsid, daemons) = self
                .establish(fe_idx, seed, None, HealthState::Healthy, &how)
                .map_err(|e| format!("attach pid {pid} failed: {e} {}", so_far()))?;
            daemons_total += daemons;
            gsids.push(gsid.to_string());
        }
        Ok(Reply::ok(&[
            ("gsids", gsids.join(",")),
            ("sessions", gsids.len().to_string()),
            ("daemons", daemons_total.to_string()),
        ]))
    }

    /// Rolling-upgrade drill (DESIGN.md §12): bring up an overlay with a
    /// hot-spare pool next to the session fabric, replace every interior
    /// comm daemon one drain at a time, and verify end-to-end waves before
    /// and after. The overlay shares the daemon's stats ledger, so every
    /// drain/spare/suspicion counter lands on `/metrics`, and the drill's
    /// suspicion table stays registered for the per-child gauge.
    fn handle_upgrade(&self, shape: Option<&str>) -> Reply {
        let shape = shape.unwrap_or(DEFAULT_UPGRADE_SHAPE);
        let spec = match TopologySpec::parse(shape) {
            Ok(s) => s,
            Err(e) => return Reply::Err(format!("bad shape {shape:?}: {e}")),
        };
        // The drill holds an admission slot like any session: a storm of
        // UPGRADE requests queues instead of stacking overlay threads.
        let permit = match self.admit() {
            Ok(p) => p,
            Err(why) => return Reply::Err(why),
        };

        let leaves = spec.leaf_count();
        let overlay = Overlay::build_shared(&spec, FilterRegistry::new(), self.overlay_stats());
        let mut net = overlay.run(|_| CommFault::none(), LeafEndpoint::serve_echo);
        let result = run_upgrade_drill(&mut net.front, leaves);
        let joined = net.shutdown().map_err(|_| "an overlay daemon thread panicked".to_string());
        drop(permit);

        match result.and_then(|ok| joined.map(|()| ok)) {
            Ok((table, report)) => {
                self.register_suspicion_table(table);
                self.upgrades_run.fetch_add(1, Ordering::Relaxed);
                let mut drains_us: Vec<u128> =
                    report.steps.iter().map(|s| s.drain.as_micros()).collect();
                drains_us.sort_unstable();
                let pct = |q: f64| -> u128 {
                    if drains_us.is_empty() {
                        0
                    } else {
                        drains_us[((drains_us.len() - 1) as f64 * q).round() as usize]
                    }
                };
                let spares_used = report.steps.iter().filter(|s| s.spare_used.is_some()).count();
                Reply::ok(&[
                    ("shape", shape.to_string()),
                    ("nodes_upgraded", report.steps.len().to_string()),
                    ("spares_used", spares_used.to_string()),
                    ("unplanned_repairs", report.unplanned_repairs.to_string()),
                    ("epoch", report.epoch.to_string()),
                    ("drain_p50_us", pct(0.50).to_string()),
                    ("drain_p99_us", pct(0.99).to_string()),
                    ("waves_intact", "1".into()),
                ])
            }
            Err(e) => Reply::Err(format!("upgrade drill failed: {e}")),
        }
    }

    fn handle_status(&self) -> Reply {
        let adm = self.admission.stats();
        Reply::ok(&[
            ("uptime_s", self.started_at.elapsed().as_secs().to_string()),
            ("backends", self.backends.len().to_string()),
            ("groups", self.groups.to_string()),
            ("fed_failovers", self.fed_failovers.load(Ordering::SeqCst).to_string()),
            ("sessions", self.sessions_active().to_string()),
            ("in_flight", adm.in_flight.to_string()),
            ("queue_depth", adm.waiting.to_string()),
            ("peak_in_flight", adm.peak_in_flight.to_string()),
            ("admitted", adm.admitted_total.to_string()),
            ("rejected", adm.rejected_total.to_string()),
            ("launches", self.launches_total.load(Ordering::Relaxed).to_string()),
            ("failures", self.launch_failures_total.load(Ordering::Relaxed).to_string()),
            ("upgrades", self.upgrades_run.load(Ordering::Relaxed).to_string()),
            ("limit", self.admission.limit().to_string()),
            ("queue_capacity", self.cfg.queue_capacity.to_string()),
        ])
    }

    fn handle_session_status(&self, gsid: u64) -> Reply {
        let sessions = self.sessions.lock();
        let Some(entry) = sessions.get(&gsid) else {
            return Reply::Err(format!("no such session {gsid}"));
        };
        let fe = &self.backends[entry.fe_idx].fe;
        let state = match fe.session_state(entry.sid) {
            Ok(s) => format!("{s:?}"),
            Err(e) => format!("unknown({e})"),
        };
        let health = format!("{:?}", fe.session_health(entry.sid));
        Reply::ok(&[
            ("gsid", gsid.to_string()),
            ("fe", entry.fe_idx.to_string()),
            ("group", self.group_of(entry.fe_idx).to_string()),
            ("app", entry.seed.app.clone()),
            ("daemons", entry.daemons.to_string()),
            ("state", state),
            ("health", health),
            ("age_s", entry.started.elapsed().as_secs().to_string()),
        ])
    }

    /// Detach (job keeps running) or kill (job destroyed, nodes released).
    /// Either way the entry — and with it the admission permit — is freed
    /// only after the front end finished tearing the session down. Detach
    /// is for attached sessions: a job `lmond` launched has no owner but its
    /// session, so detaching it is refused and the entry stays for `KILL`.
    fn handle_end(&self, gsid: u64, kill: bool) -> Reply {
        let entry = match self.sessions.lock().entry(gsid) {
            Entry::Vacant(_) => return Reply::Err(format!("no such session {gsid}")),
            Entry::Occupied(e) if !kill && matches!(e.get().seed.origin, Origin::Launch { .. }) => {
                return Reply::Err(format!(
                    "detach: session {gsid} launched its job and is its only owner; KILL it"
                ));
            }
            Entry::Occupied(e) => e.remove(),
        };
        match self.end_session(&entry, kill) {
            Ok(()) => Reply::ok(&[
                ("gsid", gsid.to_string()),
                (if kill { "killed" } else { "detached" }, "1".into()),
            ]),
            Err(e) => Reply::Err(format!("{}: {e}", if kill { "kill" } else { "detach" })),
        }
    }

    /// End a session on the backend that hosts it — the one teardown
    /// `KILL`, `DETACH` and [`Self::fail_group`] share. Kill destroys the
    /// job and its daemons; detach sends the daemons home and leaves the
    /// job running. The caller has already removed the entry.
    fn end_session(&self, entry: &SessionEntry, kill: bool) -> lmon_core::LmonResult<()> {
        let fe = &self.backends[entry.fe_idx].fe;
        if kill {
            fe.kill(entry.sid)
        } else {
            fe.detach(entry.sid)
        }
    }

    // --- metrics ----------------------------------------------------------

    /// Gather a [`MetricsSnapshot`] across the pool.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let transports = self.backends.iter().map(|b| b.fe.transport_stats()).collect();
        let healths: Vec<_> = self.backends.iter().map(|b| b.fe.health_summary()).collect();
        let degraded: usize = healths.iter().map(|h| h.degraded_sessions).sum();
        let healed: usize = healths.iter().map(|h| h.healed_sessions).sum();
        let draining: usize = healths.iter().map(|h| h.draining_sessions).sum();
        let upgraded: usize = healths.iter().map(|h| h.upgraded_sessions).sum();
        let active = self.sessions_active();
        let suspicion_levels = self
            .suspicion_tables
            .lock()
            .iter()
            .enumerate()
            .flat_map(|(overlay, table)| {
                table.snapshot().into_iter().map(move |(pos, entry)| {
                    (overlay, format!("{}:{}", pos.level, pos.index), entry.level as u8)
                })
            })
            .collect();
        MetricsSnapshot {
            uptime: self.started_at.elapsed(),
            fed_groups: self.groups,
            fed_failovers: self.fed_failovers.load(Ordering::SeqCst),
            sessions_active: active,
            launches_total: self.launches_total.load(Ordering::Relaxed),
            launch_failures_total: self.launch_failures_total.load(Ordering::Relaxed),
            admission: self.admission.stats(),
            transports,
            healths,
            overlay: self.overlay_stats.snapshot(),
            health_states: vec![
                // A live session is healthy unless its monitor says otherwise.
                (
                    HealthState::Healthy,
                    active.saturating_sub(degraded + healed + draining + upgraded),
                ),
                (HealthState::Degraded, degraded),
                (HealthState::Healed, healed),
                (HealthState::Draining, draining),
                (HealthState::Upgraded, upgraded),
            ],
            suspicion_levels,
        }
    }

    /// The `/metrics` payload.
    pub fn render_metrics(&self) -> String {
        render_prometheus(&self.metrics_snapshot())
    }

    // --- serving ----------------------------------------------------------

    /// Serve one control connection until EOF, `SHUTDOWN` or a request line
    /// longer than [`MAX_REQUEST_LINE`]. The client speaks first (a `HELLO`
    /// line, or directly a command): writing the banner unprompted would
    /// corrupt HTTP `GET /metrics` scrapes, whose clients expect the status
    /// line to open the byte stream.
    fn serve_conn<S: Read + Write>(self: &Arc<Self>, stream: S, writer: &mut S) {
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        // Until a HELLO negotiates otherwise, a connection is a v1 client
        // (v1 clients may skip the handshake and go straight to verbs).
        let mut negotiated: u32 = 1;
        loop {
            line.clear();
            // One byte past the cap tells an over-long line from one that fits.
            let limit = MAX_REQUEST_LINE as u64 + 1;
            match reader.by_ref().take(limit).read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => return, // client went away
                Ok(_) => {}
            }
            if line.len() > MAX_REQUEST_LINE {
                let reply = Reply::Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
                let _ = writer.write_all(reply.render().as_bytes()).and_then(|()| writer.flush());
                return;
            }
            let Ok(text) = std::str::from_utf8(&line) else { return };
            let trimmed = text.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            match Request::parse(trimmed) {
                Ok(Request::Hello { version }) => {
                    negotiated = negotiate(version);
                    // The banner always advertises the full supported set;
                    // the client takes the min (see `control` docs).
                    if writeln!(writer, "{HELLO_BANNER}").is_err() || writer.flush().is_err() {
                        return;
                    }
                }
                Ok(Request::HttpGet { path }) => {
                    // One-shot HTTP compatibility: answer and close.
                    let _ = write_http_response(writer, self, &path);
                    return;
                }
                Ok(req) => {
                    let reply = self.dispatch(&req);
                    if writer.write_all(reply.render().as_bytes()).is_err()
                        || writer.flush().is_err()
                    {
                        return;
                    }
                    if matches!(req, Request::Shutdown) {
                        self.begin_shutdown();
                        return;
                    }
                }
                Err(err) => {
                    // Typed parse errors: unknown verbs name the negotiated
                    // version and the supported set (satellite 1).
                    if writer.write_all(err.reply(negotiated).render().as_bytes()).is_err() {
                        return;
                    }
                }
            }
        }
    }
}

/// The measured body of an `UPGRADE` drill: connect, arm background
/// suspicion, prove a healthy end-to-end wave, walk the rolling upgrade,
/// prove the post-upgrade wave. Separated from the handler so teardown
/// (shutdown + thread joins + permit release) runs on every exit path.
fn run_upgrade_drill(
    front: &mut FrontEndpoint,
    leaves: u32,
) -> Result<(Arc<SuspicionTable>, UpgradeReport), String> {
    let step = Duration::from_secs(20);
    front.await_connections(leaves, step).map_err(|e| format!("connect: {e}"))?;
    let table = front.maintenance().start_suspicion(PhiAccrualParams::default());
    let stream = front.open_stream(FilterKind::Concat).map_err(|e| format!("open stream: {e}"))?;

    front.broadcast(stream, 1, vec![]).map_err(|e| format!("pre-upgrade broadcast: {e}"))?;
    let pkt = front.gather(stream, 1, step).map_err(|e| format!("pre-upgrade gather: {e}"))?;
    if pkt.payload.len() != leaves as usize {
        return Err(format!("pre-upgrade wave incomplete: {} of {leaves}", pkt.payload.len()));
    }

    let report =
        front.maintenance().rolling_upgrade(step).map_err(|e| format!("rolling upgrade: {e}"))?;

    front.broadcast(stream, 2, vec![]).map_err(|e| format!("post-upgrade broadcast: {e}"))?;
    let pkt = front.gather(stream, 2, step).map_err(|e| format!("post-upgrade gather: {e}"))?;
    if pkt.payload.len() != leaves as usize {
        return Err(format!("post-upgrade wave incomplete: {} of {leaves}", pkt.payload.len()));
    }
    Ok((table, report))
}

/// Minimal HTTP/1.0 response for `GET /metrics` scrapes.
fn write_http_response<W: Write>(w: &mut W, daemon: &Daemon, path: &str) -> std::io::Result<()> {
    let (status, body) = if path == "/metrics" {
        ("200 OK", daemon.render_metrics())
    } else {
        ("404 Not Found", format!("no such path {path}\n"))
    };
    write!(
        w,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Listeners
// ---------------------------------------------------------------------------

/// A running daemon's lifecycle handle: where it listens, and how to stop
/// it deterministically (used by tests and by `lmond`'s signal handling).
pub struct DaemonHandle {
    daemon: Arc<Daemon>,
    socket_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
    accept_threads: Vec<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The service behind this handle (in-process inspection).
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// The Unix control socket path, when one is bound.
    pub fn socket_path(&self) -> Option<&PathBuf> {
        self.socket_path.as_ref()
    }

    /// The TCP control address, when one is bound.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Block until shutdown is triggered (via a client `SHUTDOWN` or
    /// [`Daemon::begin_shutdown`]) and the accept loops exit.
    pub fn join(mut self) {
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        self.cleanup_socket();
    }

    /// Trigger shutdown and join: [`Daemon::begin_shutdown`] pokes the
    /// accept loops awake, so no external client is needed.
    pub fn shutdown(self) {
        self.daemon.begin_shutdown();
        self.join();
    }

    fn cleanup_socket(&self) {
        #[cfg(unix)]
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Start serving on pre-bound listeners. Binding first and starting second
/// is what makes lazy-start's bind-as-mutex sound: whoever owns a bound
/// listener owns the daemon role.
pub fn start_daemon(
    daemon: Arc<Daemon>,
    #[cfg(unix)] unix: Option<UnixListener>,
    tcp: Option<TcpListener>,
) -> DaemonResult<DaemonHandle> {
    let mut accept_threads = Vec::new();
    let mut socket_path = None;
    let mut tcp_addr = None;

    #[cfg(unix)]
    if let Some(listener) = unix {
        socket_path = listener.local_addr().ok().and_then(|a| a.as_pathname().map(PathBuf::from));
        let incoming = std::iter::from_fn(move || Some(listener.accept().map(|(s, _)| s)));
        accept_threads.push(spawn_accept_loop(&daemon, "unix", incoming, UnixStream::try_clone)?);
    }

    if let Some(listener) = tcp {
        tcp_addr = listener.local_addr().ok();
        let incoming = std::iter::from_fn(move || Some(listener.accept().map(|(s, _)| s)));
        accept_threads.push(spawn_accept_loop(&daemon, "tcp", incoming, TcpStream::try_clone)?);
    }

    {
        let mut ep = daemon.endpoints.lock();
        ep.socket_path = socket_path.clone();
        ep.tcp_addr = tcp_addr;
    }
    Ok(DaemonHandle { daemon, socket_path, tcp_addr, accept_threads })
}

/// One accept thread: hand every accepted connection to its own handler
/// until shutdown begins (the shutdown self-connect wakes a blocked
/// accept).
fn spawn_accept_loop<S>(
    daemon: &Arc<Daemon>,
    kind: &str,
    incoming: impl Iterator<Item = std::io::Result<S>> + Send + 'static,
    try_clone: fn(&S) -> std::io::Result<S>,
) -> DaemonResult<std::thread::JoinHandle<()>>
where
    S: std::io::Read + Write + Send + 'static,
{
    let d = Arc::clone(daemon);
    std::thread::Builder::new()
        .name(format!("lmond-accept-{kind}"))
        .spawn(move || {
            for stream in incoming {
                if d.is_shutting_down() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                spawn_conn_handler(&d, stream, try_clone);
            }
        })
        .map_err(DaemonError::Io)
}

/// Per-connection handler thread, with the connection cap applied.
fn spawn_conn_handler<S, F>(daemon: &Arc<Daemon>, stream: S, try_clone: F)
where
    S: std::io::Read + Write + Send + 'static,
    F: Fn(&S) -> std::io::Result<S>,
{
    let spawn = |f: Box<dyn FnOnce() + Send>| {
        std::thread::Builder::new().name("lmond-conn".into()).spawn(f).map(|_| ())
    };
    handle_conn_with(daemon, stream, try_clone, spawn);
}

/// [`spawn_conn_handler`] with the thread spawner injected, so tests can
/// force the spawn-failure path (EAGAIN under launch-storm thread/fd
/// pressure) deterministically.
fn handle_conn_with<S, F, Sp>(daemon: &Arc<Daemon>, stream: S, try_clone: F, spawn: Sp)
where
    S: std::io::Read + Write + Send + 'static,
    F: Fn(&S) -> std::io::Result<S>,
    Sp: FnOnce(Box<dyn FnOnce() + Send>) -> std::io::Result<()>,
{
    let Ok(mut writer) = try_clone(&stream) else { return };
    if daemon.active_conns.fetch_add(1, Ordering::SeqCst) >= daemon.cfg.max_connections {
        daemon.active_conns.fetch_sub(1, Ordering::SeqCst);
        let _ = writer
            .write_all(Reply::Err("busy: connection limit reached".into()).render().as_bytes());
        return;
    }
    // Spare write handle for the failure reply below: the primary pair
    // moves into the handler closure and is lost if the spawn fails.
    let spare = try_clone(&stream);
    let d = Arc::clone(daemon);
    if spawn(Box::new(move || {
        d.serve_conn(stream, &mut writer);
        d.active_conns.fetch_sub(1, Ordering::SeqCst);
    }))
    .is_err()
    {
        // Thread spawn failed (EAGAIN under the very pressure a launch
        // storm creates). Give the slot back — leaking it here would
        // permanently consume connection capacity — and tell the client
        // to retry rather than silently dropping the connection.
        daemon.active_conns.fetch_sub(1, Ordering::SeqCst);
        if let Ok(mut w) = spare {
            let _ = w.write_all(
                Reply::Err("busy: cannot spawn connection handler; retry".into())
                    .render()
                    .as_bytes(),
            );
        }
    }
}

/// Bind a Unix control socket (and optionally TCP) and serve.
///
/// An occupied socket path is claimed via [`crate::client::claim_unix_listener`]:
/// a stale corpse is reaped (under the reaper lock), but a *live* daemon is
/// an error — serving must never unlink another daemon's control socket and
/// split its clients.
#[cfg(unix)]
pub fn bind_and_start(
    cfg: DaemonConfig,
    socket_path: &std::path::Path,
    tcp: Option<SocketAddr>,
) -> DaemonResult<DaemonHandle> {
    let unix = crate::client::claim_unix_listener(socket_path)?;
    let tcp_listener = match tcp {
        Some(addr) => Some(TcpListener::bind(addr).map_err(DaemonError::Io)?),
        None => None,
    };
    let daemon = Daemon::new(cfg)?;
    start_daemon(daemon, Some(unix), tcp_listener)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory stream: reads yield immediate EOF (so an inline-run
    /// handler returns at once), writes land in a shared buffer.
    #[derive(Clone, Default)]
    struct FakeStream(Arc<Mutex<Vec<u8>>>);

    impl std::io::Read for FakeStream {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Ok(0)
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn tiny_daemon() -> Arc<Daemon> {
        Daemon::new(DaemonConfig {
            backends: 1,
            cluster_nodes: 8,
            admission_limit: 4,
            queue_capacity: 16,
            ..DaemonConfig::default()
        })
        .unwrap()
    }

    /// Review regression: a failed handler-thread spawn (EAGAIN under the
    /// fd/thread pressure a launch storm creates) must give the connection
    /// slot back — before the fix each failure permanently consumed one
    /// until the daemon rejected all connections — and answer busy so the
    /// client retries instead of seeing a silent EOF.
    #[test]
    fn failed_handler_spawn_releases_connection_slot() {
        let daemon = tiny_daemon();
        let out = Arc::new(Mutex::new(Vec::new()));
        let stream = FakeStream(Arc::clone(&out));
        for _ in 0..3 {
            handle_conn_with(
                &daemon,
                stream.clone(),
                |s| Ok(s.clone()),
                |_handler| Err(std::io::Error::from_raw_os_error(11)), // EAGAIN
            );
        }
        assert_eq!(daemon.active_conns.load(Ordering::SeqCst), 0, "all slots returned");
        let text = String::from_utf8(out.lock().clone()).unwrap();
        assert!(text.contains("busy"), "client told to retry, got {text:?}");

        // A later connection (spawner healthy again, run inline) still
        // serves and releases its slot: capacity was not consumed.
        handle_conn_with(
            &daemon,
            stream.clone(),
            |s| Ok(s.clone()),
            |handler| {
                handler();
                Ok(())
            },
        );
        assert_eq!(daemon.active_conns.load(Ordering::SeqCst), 0);
    }

    fn fields(reply: &Reply) -> crate::control::ParsedReply {
        let rendered = reply.render();
        let header = rendered.lines().next().unwrap();
        crate::control::parse_reply_header(header).expect("OK reply").0
    }

    /// Killing a whole group's FE re-homes its launch sessions onto a
    /// sibling shard, preserving the gsid (clients keep their handle across
    /// the failover).
    #[test]
    fn group_failover_rehomes_launch_sessions() {
        let daemon = Daemon::new(DaemonConfig {
            backends: 4,
            groups: 2,
            cluster_nodes: 8,
            admission_limit: 8,
            queue_capacity: 16,
            ..DaemonConfig::default()
        })
        .unwrap();
        assert_eq!(daemon.groups(), 2);

        let reply = daemon.dispatch(&Request::parse("LAUNCH psweep 2 1 sleeper").unwrap());
        let f = fields(&reply);
        let gsid: u64 = f.field_as("gsid").unwrap();
        let group: usize = f.field_as("group").unwrap();
        assert_eq!(group, daemon.group_of_app("psweep"));

        let status = |gsid: u64| {
            fields(&daemon.dispatch(&Request::parse(&format!("STATUS {gsid}")).unwrap()))
        };
        let launched = status(gsid);

        let report = daemon.fail_group(group);
        assert_eq!(report.rehomed, 1, "the launch session follows its gsid");
        assert_eq!(report.dropped, 0);
        assert!(!daemon.shard(group).unwrap().alive);

        let f = status(gsid);
        let new_group: usize = f.field_as("group").unwrap();
        assert_ne!(new_group, group, "session re-homed to a sibling shard");

        // Re-homing goes through the same establish step as a launch, so the
        // session reads like a launched one: same shape, its group the one
        // its new backend belongs to, its health monitor seeded.
        for same in ["app", "daemons", "state"] {
            assert_eq!(f.field_as::<String>(same), launched.field_as::<String>(same), "{same}");
        }
        let fe_idx: usize = f.field_as("fe").unwrap();
        assert_eq!(new_group, fe_idx % daemon.groups());
        assert_eq!(f.field_as::<String>("health").as_deref(), Some("Healed"));
        let snap = daemon.metrics_snapshot();
        assert_eq!(snap.sessions_active, 1);
        assert_eq!(snap.healths[fe_idx].live_sessions, 1, "health seeded on the new backend");
        assert_eq!(snap.launches_total, 2, "the launch and its re-home");

        let f = fields(&daemon.dispatch(&Request::parse("STATUS").unwrap()));
        assert_eq!(f.field_as::<u64>("fed_failovers"), Some(1));
        assert_eq!(f.field("fed_epoch"), None, "one failover counter, no epoch");

        // The re-homed session is still fully manageable by its old gsid.
        let reply = daemon.dispatch(&Request::parse(&format!("KILL {gsid}")).unwrap());
        assert!(matches!(reply, Reply::Ok(_)), "kill after failover: {}", reply.render());

        // New launches for the dead group's keyspace land on the sibling.
        let f = fields(&daemon.dispatch(&Request::parse("LAUNCH psweep 2 1 sleeper").unwrap()));
        assert_eq!(f.field_as::<usize>("group"), Some(new_group));

        // An attach of two launchers is two sessions, and counts as two
        // (on a one-backend daemon: pids are only unique per backend).
        let daemon = tiny_daemon();
        let pids: Vec<String> = (0..2)
            .map(|_| {
                let f = fields(&daemon.dispatch(&Request::parse("RUNJOB psweep 1 1").unwrap()));
                f.field_as::<String>("pid").unwrap()
            })
            .collect();
        let attach = format!("ATTACH {} sleeper", pids.join(" "));
        let f = fields(&daemon.dispatch(&Request::parse(&attach).unwrap()));
        assert_eq!(f.field_as::<usize>("sessions"), Some(2));
        let snap = daemon.metrics_snapshot();
        assert_eq!((snap.launches_total, snap.sessions_active), (2, 2));
        let seeded: usize = snap.healths.iter().map(|h| h.live_sessions).sum();
        assert_eq!(seeded, snap.sessions_active, "every live session has a health monitor");
    }

    /// `lmond_health_sessions{state}` counts live sessions only: the retired
    /// monitors of killed sessions used to push `healed` up and `healthy`
    /// down.
    #[test]
    fn health_states_count_only_live_sessions() {
        let daemon = Daemon::new(DaemonConfig {
            backends: 2,
            groups: 2,
            cluster_nodes: 8,
            ..DaemonConfig::default()
        })
        .unwrap();
        let launch = |app: &str| {
            let reply =
                daemon.dispatch(&Request::parse(&format!("LAUNCH {app} 2 1 sleeper")).unwrap());
            fields(&reply).field_as::<u64>("gsid").unwrap()
        };
        let in_group_1 = (0..).map(|i| format!("app{i}")).filter(|a| daemon.group_of_app(a) == 1);
        let gsids: Vec<u64> = in_group_1.take(2).map(|app| launch(&app)).collect();
        assert_eq!(daemon.fail_group(1).rehomed, 2, "both re-homed copies record Healed");
        for gsid in gsids {
            let reply = daemon.dispatch(&Request::parse(&format!("KILL {gsid}")).unwrap());
            assert!(matches!(reply, Reply::Ok(_)), "kill: {}", reply.render());
        }
        launch("fresh_a");
        launch("fresh_b");

        let snap = daemon.metrics_snapshot();
        let count = |state| snap.health_states.iter().find(|(s, _)| *s == state).map(|(_, n)| *n);
        assert_eq!(count(HealthState::Healthy), Some(2));
        assert_eq!(count(HealthState::Healed), Some(0), "killed sessions are not healed ones");
        let total: usize = snap.health_states.iter().map(|(_, n)| n).sum();
        assert_eq!(total, snap.sessions_active);
    }

    /// Process records in backend `fe_idx`'s cluster tables.
    fn records(daemon: &Daemon, fe_idx: usize) -> usize {
        let cluster = &daemon.backends[fe_idx].cluster;
        let compute: usize = cluster.compute_nodes().iter().map(|n| n.pids().len()).sum();
        cluster.front_end().pids().len() + compute
    }

    /// A failover ends the old copy of a re-homed session: its job and
    /// daemons must not keep running on the dead group's backend while the
    /// same gsid runs again on the sibling.
    #[test]
    fn failover_ends_the_old_copy_of_every_rehomed_session() {
        let daemon = Daemon::new(DaemonConfig {
            backends: 4,
            groups: 2,
            cluster_nodes: 8,
            ..DaemonConfig::default()
        })
        .unwrap();
        let f = fields(&daemon.dispatch(&Request::parse("LAUNCH psweep 2 1 sleeper").unwrap()));
        let gsid: u64 = f.field_as("gsid").unwrap();
        let (old_fe, old_sid) = daemon.session_of(gsid).unwrap();
        assert!(records(&daemon, old_fe) > 1, "job and daemons are on the old backend");

        let report = daemon.fail_group(daemon.group_of(old_fe));
        assert_eq!((report.rehomed, report.dropped), (1, 0));
        assert_eq!(records(&daemon, old_fe), 1, "only the engine's record is left behind");
        let old = daemon.backends[old_fe].fe.session_state(old_sid);
        assert!(matches!(old, Ok(lmon_core::SessionState::Killed)), "old copy: {old:?}");
        let (new_fe, _) = daemon.session_of(gsid).unwrap();
        assert_ne!(daemon.group_of(new_fe), daemon.group_of(old_fe));
        assert!(records(&daemon, new_fe) > 1, "the session runs on its new home");
    }

    /// `ATTACH` resolves pids on live shards only: a launcher on a failed
    /// group gets an error naming the group, not a session on the dead
    /// shard.
    #[test]
    fn attach_refuses_a_launcher_on_a_failed_group() {
        let daemon = Daemon::new(DaemonConfig {
            backends: 2,
            groups: 2,
            cluster_nodes: 8,
            ..DaemonConfig::default()
        })
        .unwrap();
        let f = fields(&daemon.dispatch(&Request::parse("RUNJOB psweep 1 1").unwrap()));
        let (pid, fe): (u64, usize) = (f.field_as("pid").unwrap(), f.field_as("fe").unwrap());
        let dead = daemon.group_of(fe);
        daemon.fail_group(dead);

        let reply = daemon.dispatch(&Request::parse(&format!("ATTACH {pid} sleeper")).unwrap());
        let text = reply.render();
        assert!(matches!(reply, Reply::Err(_)), "attach on a dead shard: {text}");
        assert!(text.contains(&format!("failed group g{dead}")), "names the group: {text}");
        assert_eq!(daemon.sessions_active(), 0);
    }
}
