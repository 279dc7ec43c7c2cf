//! Control-protocol v2 negotiation (ISSUE 10 satellites).
//!
//! The wire contract under test: the client speaks first with `HELLO
//! [version]`, the server banners `LMOND 2 versions=1,2`, and the
//! connection settles on `min(client, server)`. A v1 client — one that
//! sends a bare `HELLO`, or nothing at all — keeps working against the v2
//! server, and unknown verbs come back as a *typed* `unsupported-verb`
//! error naming the connection's negotiated version and the server's
//! supported set, never as a generic parse failure.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use launchmon::daemon::client::scratch_socket_path;
use launchmon::daemon::{
    bind_and_start, DaemonClient, DaemonConfig, DaemonHandle, PROTOCOL_VERSION,
};

/// A line-oriented client with no protocol smarts at all: what a shell
/// script holding `nc -U` sees.
struct RawClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl RawClient {
    fn connect(socket: &Path) -> Self {
        let writer = UnixStream::connect(socket).expect("raw connect");
        writer.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        RawClient { reader, writer }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    /// One reply line, newline intact.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        line
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line()
    }
}

fn daemon_up(tag: &str) -> (DaemonHandle, PathBuf) {
    let socket = scratch_socket_path(tag);
    let _ = std::fs::remove_file(&socket);
    let cfg = DaemonConfig { backends: 1, cluster_nodes: 16, ..DaemonConfig::default() };
    let handle = bind_and_start(cfg, &socket, None).expect("daemon up");
    (handle, socket)
}

/// A v1 client (bare `HELLO`, no version argument) against the v2 server:
/// the banner advertises both versions, every v1 verb still works, and
/// unknown verbs name the connection's v1 negotiation in their error.
#[test]
fn v1_client_against_v2_server_round_trips() {
    let (handle, socket) = daemon_up("proto-v1");
    let mut raw = RawClient::connect(&socket);

    let banner = raw.roundtrip("HELLO");
    assert_eq!(banner, "LMOND 2 versions=1,2\n", "banner must advertise the full supported set");

    let pong = raw.roundtrip("PING");
    assert!(pong.starts_with("OK pong=1"), "v1 PING must keep working, got {pong:?}");

    // The typed unknown-verb error: the connection negotiated v1, and the
    // reply says so while naming what the server *does* speak.
    let err = raw.roundtrip("FROB");
    assert_eq!(err, "ERR unsupported-verb \"FROB\" version=1 supported=1,2\n");

    // A parse error never wedges the connection.
    let pong = raw.roundtrip("PING");
    assert!(pong.starts_with("OK pong=1"));

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// A client that never sends `HELLO` at all (the pre-handshake grammar,
/// which v1 scripts rely on) is treated as v1.
#[test]
fn silent_client_defaults_to_v1() {
    let (handle, socket) = daemon_up("proto-silent");
    let mut raw = RawClient::connect(&socket);

    let err = raw.roundtrip("FROB");
    assert_eq!(err, "ERR unsupported-verb \"FROB\" version=1 supported=1,2\n");
    let pong = raw.roundtrip("PING");
    assert!(pong.starts_with("OK pong=1"), "no-HELLO clients keep the v1 grammar");

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// A client that never sends a newline gets one `ERR` naming the 64 KiB
/// line limit and a closed connection, instead of a daemon buffering its
/// bytes forever; the next connection is served as usual.
#[test]
fn overlong_request_line_is_refused_and_closed() {
    let (handle, socket) = daemon_up("proto-overlong");
    let mut raw = RawClient::connect(&socket);
    raw.writer.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    raw.writer.write_all(&vec![b'A'; 64 * 1024 + 1]).unwrap();
    raw.writer.flush().unwrap();

    assert_eq!(raw.read_line(), "ERR request line exceeds 65536 bytes\n");
    let mut rest = String::new();
    assert_eq!(raw.reader.read_line(&mut rest).expect("EOF, not a timeout"), 0);

    let mut next = RawClient::connect(&socket);
    assert!(next.roundtrip("PING").starts_with("OK pong=1"));

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// End-to-end v2 negotiation: the typed client offers its version, settles
/// on 2, and a raw `HELLO 2` connection's unknown-verb errors name v2. A
/// client offering a *future* version is clamped to the server's maximum
/// rather than rejected.
#[test]
fn v2_negotiation_end_to_end() {
    let (handle, socket) = daemon_up("proto-v2");

    let mut typed = DaemonClient::connect_unix(&socket).expect("typed connect");
    assert_eq!(PROTOCOL_VERSION, 2);
    assert_eq!(typed.negotiated_version(), 2, "typed client must settle on v2");
    assert_eq!(typed.banner(), "LMOND 2 versions=1,2");
    typed.ping().expect("v2 ping");

    let mut raw = RawClient::connect(&socket);
    assert_eq!(raw.roundtrip("HELLO 2"), "LMOND 2 versions=1,2\n");
    let err = raw.roundtrip("FROB");
    assert_eq!(err, "ERR unsupported-verb \"FROB\" version=2 supported=1,2\n");

    // A v3 offer negotiates down to 2, not to a refusal.
    let mut eager = RawClient::connect(&socket);
    assert_eq!(eager.roundtrip("HELLO 3"), "LMOND 2 versions=1,2\n");
    let err = eager.roundtrip("FROB");
    assert_eq!(err, "ERR unsupported-verb \"FROB\" version=2 supported=1,2\n");

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}
