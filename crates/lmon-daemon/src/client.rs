//! Client side of the control protocol, including lazy daemon start.
//!
//! # The bind/connect race, and why binding is the mutex
//!
//! "Lazy start" means: a client that finds no daemon running becomes the
//! daemon. The naive version — `connect()`, and on failure `bind()` and
//! serve — races: two clients can both fail the connect and both try to
//! become the daemon, and with a `remove_file` sprinkled in, the second
//! one can silently unlink the *winner's* live socket, stranding every
//! future client. The fix ([`connect_or_start`]) leans on the only
//! operation the OS already serializes:
//!
//! 1. Try to `connect`. Success → done, a daemon is serving.
//! 2. On `NotFound` / `ConnectionRefused`, try to **bind**. The kernel
//!    allows exactly one binder per path, so the bind is the mutex: the
//!    winner starts the daemon and then connects to itself.
//! 3. A *refused* connect with the file present may be a stale socket
//!    (daemon crashed without unlinking) — but it may also be a live
//!    daemon with a momentarily full backlog. Only after a confirming
//!    second refusal is the path even considered stale, and the reap
//!    itself happens under a cross-process file lock with a re-verify
//!    (see [the reaper lock](#the-reaper-lock) below). The loser of any
//!    subsequent bind race never unlinks: it backs off and reconnects.
//! 4. Losers retry connect with exponential backoff (10ms → 500ms),
//!    bounded; the winner is meanwhile inside `Daemon::new` bringing the
//!    front-end pool up, which is why the budget is generous.
//!
//! # The reaper lock
//!
//! Check-then-unlink of a stale socket is inherently TOCTOU: between this
//! process's confirming refused connect and its `remove_file`, a racer can
//! reap the corpse itself and bind a live listener at the same path — and
//! the late `remove_file` would then unlink the *live* daemon's socket.
//! POSIX has no "unlink if still the inode I checked", so the reap is
//! serialized through an exclusive [`std::fs::File::lock`] on a sibling
//! `<socket>.lock` file: under the lock, re-verify the path still refuses,
//! unlink, and bind — all before releasing. This is airtight because a
//! live socket can only appear at an *occupied* path after an unlink
//! (`bind(2)` never replaces an existing file), and every unlink goes
//! through the lock. Binds at a *free* path stay lock-free: they cannot
//! invalidate a reaper's refused-verify, whose path is still occupied.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::control::{parse_reply_header, ParsedReply, HELLO_BANNER, PROTOCOL_VERSION};
use crate::daemon::{start_daemon, Daemon, DaemonHandle};
use crate::error::{DaemonError, DaemonResult};
use crate::responses::{
    AttachResponse, LaunchResponse, RunJobResponse, SessionStatusResponse, StatusResponse,
    UpgradeResponse,
};

/// Connect retry schedule for lazy start: exponential backoff from
/// [`BACKOFF_START`] doubling to at most [`BACKOFF_CAP`], [`MAX_RETRIES`]
/// times (~3.8s worst case — enough to cover a cold daemon boot).
pub const BACKOFF_START: Duration = Duration::from_millis(10);
/// See [`BACKOFF_START`].
pub const BACKOFF_CAP: Duration = Duration::from_millis(500);
/// See [`BACKOFF_START`].
pub const MAX_RETRIES: usize = 10;

/// Either transport the control protocol runs over.
enum ClientStream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

impl ClientStream {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            ClientStream::Unix(s) => s.set_read_timeout(t),
            ClientStream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

/// A connected control client (one request/reply at a time).
pub struct DaemonClient {
    reader: BufReader<ClientStream>,
    writer: ClientStream,
    /// The daemon's hello banner, kept for version checks/debugging.
    banner: String,
    /// Protocol version negotiated from the banner (see
    /// [`DaemonClient::negotiated_version`]).
    negotiated: u32,
}

impl DaemonClient {
    /// Connect over the Unix control socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> DaemonResult<DaemonClient> {
        let stream = UnixStream::connect(path)?;
        let writer = ClientStream::Unix(stream.try_clone()?);
        Self::handshake(ClientStream::Unix(stream), writer)
    }

    /// Connect over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> DaemonResult<DaemonClient> {
        let stream = TcpStream::connect(addr)?;
        let writer = ClientStream::Tcp(stream.try_clone()?);
        Self::handshake(ClientStream::Tcp(stream), writer)
    }

    fn handshake(read_half: ClientStream, mut writer: ClientStream) -> DaemonResult<DaemonClient> {
        read_half.set_read_timeout(Some(crate::control::CLIENT_REPLY_TIMEOUT))?;
        let mut reader = BufReader::new(read_half);
        // Client speaks first (see `control` docs): offer our max version
        // and take whatever the server's banner answers. A v1 server
        // ignores the argument and banners `LMOND 1`, so the handshake
        // line is both the v2 offer and the v1-compatible hello.
        writeln!(writer, "HELLO {PROTOCOL_VERSION}")?;
        writer.flush()?;
        let mut banner = String::new();
        reader.read_line(&mut banner)?;
        let banner = banner.trim_end().to_string();
        if !banner.starts_with("LMOND") {
            return Err(DaemonError::Protocol(format!(
                "unexpected hello {banner:?} (want {HELLO_BANNER:?})"
            )));
        }
        // Negotiated version = min(ours, the server's banner version).
        // A malformed/absent version token is treated as a v1 server.
        let negotiated = banner
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(1)
            .min(PROTOCOL_VERSION);
        Ok(DaemonClient { reader, writer, banner, negotiated })
    }

    /// The daemon's hello banner (e.g. `"LMOND 2 versions=1,2"`).
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// The control-protocol version this connection settled on: the lower
    /// of the client's [`PROTOCOL_VERSION`] and the server's banner.
    pub fn negotiated_version(&self) -> u32 {
        self.negotiated
    }

    /// Send one request line and return the reply *bytes* verbatim —
    /// header line plus any body lines, trailing newlines intact. This is
    /// the raw-scrape escape hatch the typed wrappers are built over;
    /// `ERR` replies come back as `Ok(raw line)` here, not as errors.
    pub fn request_raw(&mut self, line: &str) -> DaemonResult<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut raw = String::new();
        if self.reader.read_line(&mut raw)? == 0 {
            return Err(DaemonError::Protocol("daemon closed the connection".into()));
        }
        let body_lines = match parse_reply_header(raw.trim_end()) {
            Ok((_, n)) => n.unwrap_or(0),
            Err(_) => 0, // ERR replies are single-line
        };
        for _ in 0..body_lines {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(DaemonError::Protocol("truncated multi-line reply".into()));
            }
            raw.push_str(&l);
        }
        Ok(raw)
    }

    /// Send one request line and read its (possibly multi-line) reply,
    /// parsed into the field bag. `ERR` replies become
    /// [`DaemonError::Remote`].
    pub fn request(&mut self, line: &str) -> DaemonResult<ParsedReply> {
        let raw = self.request_raw(line)?;
        let mut lines = raw.lines();
        let header = lines.next().unwrap_or("");
        let (mut reply, _) = parse_reply_header(header).map_err(DaemonError::Remote)?;
        reply.body.extend(lines.map(str::to_string));
        Ok(reply)
    }

    // --- typed wrappers ---------------------------------------------------

    /// Liveness probe.
    pub fn ping(&mut self) -> DaemonResult<()> {
        self.request("PING").map(|_| ())
    }

    /// Launch a session; returns the typed [`LaunchResponse`] (gsid,
    /// placement, admission/launch timings).
    pub fn launch(
        &mut self,
        app: &str,
        nodes: usize,
        tasks_per_node: usize,
        body: &str,
    ) -> DaemonResult<LaunchResponse> {
        let reply = self.request(&format!("LAUNCH {app} {nodes} {tasks_per_node} {body}"))?;
        LaunchResponse::from_reply(reply)
    }

    /// Start a plain job (no tool attached); the reply's `pid` is what a
    /// later [`DaemonClient::attach`] targets.
    pub fn run_job(
        &mut self,
        app: &str,
        nodes: usize,
        tasks_per_node: usize,
    ) -> DaemonResult<RunJobResponse> {
        let reply = self.request(&format!("RUNJOB {app} {nodes} {tasks_per_node}"))?;
        RunJobResponse::from_reply(reply)
    }

    /// Attach tool daemons to running jobs by launcher pid; the reply
    /// carries one daemon-wide session id per pid, in request order.
    pub fn attach(&mut self, pids: &[u64], body: &str) -> DaemonResult<AttachResponse> {
        if pids.is_empty() {
            return Err(DaemonError::Protocol("attach needs at least one pid".into()));
        }
        let pid_list = pids.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(" ");
        let reply = self.request(&format!("ATTACH {pid_list} {body}"))?;
        AttachResponse::from_reply(reply)
    }

    /// Run a rolling-upgrade drill (`None` = the daemon's default shape).
    pub fn upgrade(&mut self, shape: Option<&str>) -> DaemonResult<UpgradeResponse> {
        let reply = match shape {
            Some(s) => self.request(&format!("UPGRADE {s}"))?,
            None => self.request("UPGRADE")?,
        };
        UpgradeResponse::from_reply(reply)
    }

    /// Daemon-wide status.
    pub fn status(&mut self) -> DaemonResult<StatusResponse> {
        let reply = self.request("STATUS")?;
        StatusResponse::from_reply(reply)
    }

    /// One session's status.
    pub fn session_status(&mut self, gsid: u64) -> DaemonResult<SessionStatusResponse> {
        let reply = self.request(&format!("STATUS {gsid}"))?;
        SessionStatusResponse::from_reply(reply)
    }

    /// Detach a session (job keeps running).
    pub fn detach(&mut self, gsid: u64) -> DaemonResult<()> {
        self.request(&format!("DETACH {gsid}")).map(|_| ())
    }

    /// Kill a session (allocation released).
    pub fn kill(&mut self, gsid: u64) -> DaemonResult<()> {
        self.request(&format!("KILL {gsid}")).map(|_| ())
    }

    /// Fetch the Prometheus exposition text.
    pub fn metrics(&mut self) -> DaemonResult<String> {
        let reply = self.request("METRICS")?;
        let mut out = reply.body.join("\n");
        out.push('\n');
        Ok(out)
    }

    /// Ask the daemon to shut down.
    pub fn shutdown_daemon(&mut self) -> DaemonResult<()> {
        self.request("SHUTDOWN").map(|_| ())
    }
}

// ---------------------------------------------------------------------------
// Lazy start
// ---------------------------------------------------------------------------

/// What [`connect_or_start`] produced.
pub enum LazyStartOutcome {
    /// A daemon was already serving; here's a connection to it.
    Connected(DaemonClient),
    /// This process won the bind race and *is* now the daemon; it also
    /// gets a self-connection so it can be its own first client.
    Started {
        /// Lifecycle handle for the freshly started daemon.
        handle: DaemonHandle,
        /// A control connection to the daemon just started.
        client: DaemonClient,
    },
}

impl LazyStartOutcome {
    /// The connection, whichever side of the race this was.
    pub fn into_client(self) -> DaemonClient {
        match self {
            LazyStartOutcome::Connected(c) => c,
            LazyStartOutcome::Started { client, .. } => client,
        }
    }

    /// True when this process became the daemon.
    pub fn started_daemon(&self) -> bool {
        matches!(self, LazyStartOutcome::Started { .. })
    }
}

/// What taking over a refused (presumed-stale) socket path produced.
#[cfg(unix)]
enum Takeover {
    /// The path turned out to be live after all (a racer reaped and rebound
    /// it first, or the daemon's backlog drained): here's the connection.
    Live(UnixStream),
    /// The corpse was reaped and the path bound: the caller is the daemon.
    Bound(UnixListener),
    /// A non-cooperating binder took the path between the unlink and the
    /// bind; back off and reconnect from the top.
    Lost,
}

/// Reap a stale socket under the cross-process reaper lock (module docs):
/// re-verify the path still refuses *while holding the lock*, and only then
/// unlink and bind. Never unlinks a live daemon's socket.
#[cfg(unix)]
fn takeover_stale(socket_path: &Path) -> DaemonResult<Takeover> {
    let mut lock_path = socket_path.as_os_str().to_os_string();
    lock_path.push(".lock");
    let lock =
        std::fs::File::options().create(true).truncate(false).write(true).open(&lock_path)?;
    // Exclusive across processes; released when `lock` drops (fd close).
    lock.lock()?;

    match UnixStream::connect(socket_path) {
        Ok(stream) => return Ok(Takeover::Live(stream)),
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
            // Still a corpse, and it stays one until we release the lock:
            // a live socket can only appear here via someone else's unlink,
            // and unlinks are serialized through this lock.
            match std::fs::remove_file(socket_path) {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(DaemonError::Io(e)),
            }
        }
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(DaemonError::Io(e)),
    }
    match UnixListener::bind(socket_path) {
        Ok(listener) => Ok(Takeover::Bound(listener)),
        Err(e) if e.kind() == ErrorKind::AddrInUse => Ok(Takeover::Lost),
        Err(e) => Err(DaemonError::Io(e)),
    }
}

/// Bind `socket_path` for serving, *refusing to displace a live daemon*.
///
/// A free path is bound directly. An occupied path is probed: a live daemon
/// is an error ("already serving"), a stale corpse is reaped under the
/// reaper lock (module docs) and the path rebound. This is what `lmond
/// serve` and [`crate::daemon::bind_and_start`] use — the naive
/// `remove_file`-then-bind would unlink a live daemon's socket and split
/// clients across two daemons.
#[cfg(unix)]
pub fn claim_unix_listener(socket_path: &Path) -> DaemonResult<UnixListener> {
    match UnixListener::bind(socket_path) {
        Ok(listener) => return Ok(listener),
        Err(e) if e.kind() == ErrorKind::AddrInUse => {}
        Err(e) => return Err(DaemonError::Io(e)),
    }
    match takeover_stale(socket_path)? {
        Takeover::Live(_) => Err(DaemonError::LazyStart(format!(
            "a daemon is already serving on {}",
            socket_path.display()
        ))),
        Takeover::Bound(listener) => Ok(listener),
        Takeover::Lost => {
            Err(DaemonError::LazyStart(format!("lost the bind race for {}", socket_path.display())))
        }
    }
}

/// Connect to the daemon at `socket_path`, lazily starting one (with
/// `make_daemon`) if none is serving. Safe to race from many processes or
/// threads: the socket bind is the mutex, so exactly one caller starts a
/// daemon. See the module docs for the full protocol.
#[cfg(unix)]
pub fn connect_or_start(
    socket_path: &Path,
    make_daemon: impl FnOnce() -> DaemonResult<Arc<Daemon>>,
) -> DaemonResult<LazyStartOutcome> {
    let mut make_daemon = Some(make_daemon);
    let mut backoff = BACKOFF_START;
    let mut stale_confirmed = false;
    let mut last_err: Option<std::io::Error> = None;

    for _attempt in 0..MAX_RETRIES {
        // Step 1: is someone already serving?
        match UnixStream::connect(socket_path) {
            Ok(stream) => {
                let writer = ClientStream::Unix(stream.try_clone()?);
                return DaemonClient::handshake(ClientStream::Unix(stream), writer)
                    .map(LazyStartOutcome::Connected);
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {
                // No socket file: clean field, race for the bind below.
            }
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                // A file exists but nobody accepts. Either a stale socket
                // from a crashed daemon, or a live daemon with a full
                // backlog. Never unlink on first sight — require a second
                // refused connect (after a backoff) before declaring it
                // stale, so a loaded-but-live daemon is never destroyed.
                if !stale_confirmed {
                    stale_confirmed = true;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                    continue;
                }
                stale_confirmed = false;
                // Reap under the reaper lock (module docs): re-verified,
                // so a racer that already rebound the path is *joined*,
                // never unlinked.
                match takeover_stale(socket_path)? {
                    Takeover::Live(stream) => {
                        let writer = ClientStream::Unix(stream.try_clone()?);
                        return DaemonClient::handshake(ClientStream::Unix(stream), writer)
                            .map(LazyStartOutcome::Connected);
                    }
                    Takeover::Bound(listener) => {
                        return become_daemon(listener, &mut make_daemon, socket_path);
                    }
                    Takeover::Lost => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                    }
                }
                continue;
            }
            Err(e) => return Err(DaemonError::Io(e)),
        }

        // Step 2: race for the bind. The kernel picks exactly one winner.
        match UnixListener::bind(socket_path) {
            Ok(listener) => {
                return become_daemon(listener, &mut make_daemon, socket_path);
            }
            Err(e) if e.kind() == ErrorKind::AddrInUse => {
                // Lost the race: the winner is booting its front-end pool.
                // Back off and go back to connecting — never unlink here.
                last_err = Some(e);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
            Err(e) => return Err(DaemonError::Io(e)),
        }
    }

    Err(DaemonError::LazyStart(format!(
        "no daemon became reachable at {} after {MAX_RETRIES} attempts (last: {})",
        socket_path.display(),
        last_err.map_or_else(|| "connect refused".into(), |e| e.to_string()),
    )))
}

/// Bind won (directly or via reap): construct the daemon, serve on the
/// listener, and self-connect as the first client.
#[cfg(unix)]
fn become_daemon<F: FnOnce() -> DaemonResult<Arc<Daemon>>>(
    listener: UnixListener,
    make_daemon: &mut Option<F>,
    socket_path: &Path,
) -> DaemonResult<LazyStartOutcome> {
    let daemon = match make_daemon.take() {
        Some(f) => f()?,
        // Defensive: can't happen (callers return on the first bind win),
        // but never re-run a FnOnce.
        None => return Err(DaemonError::LazyStart("daemon factory consumed".into())),
    };
    let handle = start_daemon(daemon, Some(listener), None)?;
    let client = DaemonClient::connect_unix(socket_path)?;
    Ok(LazyStartOutcome::Started { handle, client })
}

/// A collision-resistant scratch path for sockets in tests and the CLI
/// (`Path::join` of the temp dir, the pid, and a caller-chosen tag).
pub fn scratch_socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lmond-{}-{tag}.sock", std::process::id()))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn tiny_config() -> DaemonConfig {
        DaemonConfig {
            backends: 1,
            cluster_nodes: 8,
            admission_limit: 4,
            queue_capacity: 16,
            ..DaemonConfig::default()
        }
    }

    /// Satellite (c)'s regression: two threads race connect-or-start on the
    /// same fresh path. Exactly one must become the daemon; both must end
    /// up with working connections; nobody may unlink the winner's socket.
    #[test]
    fn lazy_start_race_elects_exactly_one_daemon() {
        let path = scratch_socket_path("race");
        let _ = std::fs::remove_file(&path);
        let barrier = Arc::new(Barrier::new(2));
        let started = Arc::new(AtomicUsize::new(0));

        let mut joins = Vec::new();
        for _ in 0..2 {
            let path = path.clone();
            let barrier = Arc::clone(&barrier);
            let started = Arc::clone(&started);
            joins.push(std::thread::spawn(move || {
                barrier.wait(); // maximal overlap: both race the same instant
                let outcome = connect_or_start(&path, || Daemon::new(tiny_config())).unwrap();
                if outcome.started_daemon() {
                    started.fetch_add(1, Ordering::SeqCst);
                }
                // `into_client` drops the winner's DaemonHandle; the accept
                // loop keeps serving (threads are detached), so the loser's
                // ping still works whichever thread finishes first.
                let mut client = outcome.into_client();
                client.ping().unwrap();
                client
            }));
        }
        let clients: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(started.load(Ordering::SeqCst), 1, "exactly one thread became the daemon");
        drop(clients);
        let _ = std::fs::remove_file(&path);
    }

    /// A stale socket file (daemon died without unlinking) must be detected
    /// and replaced — but only after the confirming second refusal.
    #[test]
    fn stale_socket_is_detected_and_replaced() {
        let path = scratch_socket_path("stale");
        let _ = std::fs::remove_file(&path);
        {
            // Bind and immediately drop the listener: the file stays behind,
            // exactly like a crashed daemon.
            let _orphan = UnixListener::bind(&path).unwrap();
        }
        assert!(path.exists(), "precondition: stale socket file left behind");
        let outcome = connect_or_start(&path, || Daemon::new(tiny_config())).unwrap();
        assert!(outcome.started_daemon(), "stale socket must not block lazy start");
        let mut client = outcome.into_client();
        client.ping().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Review regression (stale-reap TOCTOU): many threads race
    /// connect_or_start against a path seeded with a stale corpse. The reap
    /// happens under the reaper lock with a re-verify, so the winner's live
    /// socket can never be unlinked by a late reaper — exactly one daemon
    /// is elected and every thread gets a working connection.
    #[test]
    fn stale_reap_race_never_unlinks_the_winner() {
        let path = scratch_socket_path("reap-race");
        let _ = std::fs::remove_file(&path);
        {
            let _orphan = UnixListener::bind(&path).unwrap();
        }
        assert!(path.exists(), "precondition: stale socket file left behind");

        const RACERS: usize = 4;
        let barrier = Arc::new(Barrier::new(RACERS));
        let started = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..RACERS {
            let path = path.clone();
            let barrier = Arc::clone(&barrier);
            let started = Arc::clone(&started);
            joins.push(std::thread::spawn(move || {
                barrier.wait();
                let outcome = connect_or_start(&path, || Daemon::new(tiny_config())).unwrap();
                if outcome.started_daemon() {
                    started.fetch_add(1, Ordering::SeqCst);
                }
                let mut client = outcome.into_client();
                client.ping().unwrap();
                client
            }));
        }
        let clients: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(started.load(Ordering::SeqCst), 1, "exactly one thread became the daemon");
        drop(clients);
        let _ = std::fs::remove_file(&path);
    }

    /// Review regression: serving (`bind_and_start`, i.e. `lmond serve`)
    /// must refuse to displace a live daemon instead of unlinking its
    /// socket and splitting clients across two daemons.
    #[test]
    fn serve_refuses_to_displace_live_daemon() {
        use crate::daemon::bind_and_start;

        let path = scratch_socket_path("serve-live");
        let _ = std::fs::remove_file(&path);
        let first = bind_and_start(tiny_config(), &path, None).unwrap();

        let second = bind_and_start(tiny_config(), &path, None);
        let err = second.err().expect("second serve on a live socket must fail");
        assert!(err.to_string().contains("already serving"), "error names the conflict: {err}");

        // The original daemon is untouched and still reachable.
        let mut client = DaemonClient::connect_unix(&path).unwrap();
        client.ping().unwrap();
        drop(first);
        let _ = std::fs::remove_file(&path);
    }

    /// ...but a stale corpse must not block serving: `bind_and_start` reaps
    /// it (under the reaper lock) and binds.
    #[test]
    fn serve_reaps_stale_socket() {
        use crate::daemon::bind_and_start;

        let path = scratch_socket_path("serve-stale");
        let _ = std::fs::remove_file(&path);
        {
            let _orphan = UnixListener::bind(&path).unwrap();
        }
        let handle = bind_and_start(tiny_config(), &path, None).unwrap();
        let mut client = DaemonClient::connect_unix(&path).unwrap();
        client.ping().unwrap();
        drop(handle);
        let _ = std::fs::remove_file(&path);
    }

    /// A *live* daemon must never be unlinked: a second connect_or_start
    /// finds it and connects instead of starting another.
    #[test]
    fn live_daemon_is_joined_not_replaced() {
        let path = scratch_socket_path("join");
        let _ = std::fs::remove_file(&path);
        let first = connect_or_start(&path, || Daemon::new(tiny_config())).unwrap();
        assert!(first.started_daemon());
        let second =
            connect_or_start(&path, || panic!("second caller must not construct a daemon"))
                .unwrap();
        assert!(!second.started_daemon());
        let mut c = second.into_client();
        c.ping().unwrap();
        drop(first);
        let _ = std::fs::remove_file(&path);
    }
}
