//! Typed per-verb views over the control protocol's field-bag replies.
//!
//! The wire format stays line-delimited `key=value` pairs (see
//! [`crate::control`]), but CLI and test callers should not be scraping
//! `field_as::<u64>("gsid")` out of a [`ParsedReply`] by hand. Each verb
//! with a structured answer gets a response struct here with a
//! `from_reply` constructor that pulls the required fields out once,
//! converting a missing or malformed field into a
//! [`DaemonError::Protocol`]. Every struct keeps the underlying
//! [`ParsedReply`] (via [`raw`](LaunchResponse::raw)-style accessors), so
//! raw scrapes — dumping every field, forward-compat probing — still work.

use crate::control::ParsedReply;
use crate::error::{DaemonError, DaemonResult};

fn required<T: std::str::FromStr>(reply: &ParsedReply, key: &str) -> DaemonResult<T> {
    reply
        .field_as::<T>(key)
        .ok_or_else(|| DaemonError::Protocol(format!("reply missing field {key:?}")))
}

fn required_str(reply: &ParsedReply, key: &str) -> DaemonResult<String> {
    reply
        .field(key)
        .map(str::to_string)
        .ok_or_else(|| DaemonError::Protocol(format!("reply missing field {key:?}")))
}

/// `LAUNCH` reply: the global session id plus placement and timing.
#[derive(Debug, Clone)]
pub struct LaunchResponse {
    /// Daemon-global session id (the handle for `STATUS`/`DETACH`/`KILL`).
    pub gsid: u64,
    /// Index of the pooled front end the session landed on.
    pub fe: usize,
    /// Federation group the session is pinned to (`0` on a 1-group pool).
    pub group: usize,
    /// Tool daemons spawned for the session.
    pub daemons: usize,
    /// Milliseconds spent waiting in the admission queue.
    pub wait_ms: u64,
    /// Milliseconds spent in the launch proper.
    pub launch_ms: u64,
    raw: ParsedReply,
}

impl LaunchResponse {
    /// Parse a `LAUNCH` reply, erroring on missing/malformed fields.
    pub fn from_reply(raw: ParsedReply) -> DaemonResult<Self> {
        Ok(LaunchResponse {
            gsid: required(&raw, "gsid")?,
            fe: required(&raw, "fe")?,
            group: raw.field_as::<usize>("group").unwrap_or(0),
            daemons: required(&raw, "daemons")?,
            wait_ms: required(&raw, "wait_ms")?,
            launch_ms: required(&raw, "launch_ms")?,
            raw,
        })
    }

    /// The untyped reply, for raw scrapes.
    pub fn raw(&self) -> &ParsedReply {
        &self.raw
    }
}

/// `RUNJOB` reply: the plain job an `ATTACH` can later target.
#[derive(Debug, Clone)]
pub struct RunJobResponse {
    /// Launcher pid of the started job.
    pub pid: u64,
    /// Resource-manager job id.
    pub job: u64,
    /// Index of the pooled front end whose RM owns the job.
    pub fe: usize,
    /// Nodes allocated to the job.
    pub nodes: usize,
    raw: ParsedReply,
}

impl RunJobResponse {
    /// Parse a `RUNJOB` reply, erroring on missing/malformed fields.
    pub fn from_reply(raw: ParsedReply) -> DaemonResult<Self> {
        Ok(RunJobResponse {
            pid: required(&raw, "pid")?,
            job: required(&raw, "job")?,
            fe: required(&raw, "fe")?,
            nodes: required(&raw, "nodes")?,
            raw,
        })
    }

    /// The untyped reply, for raw scrapes.
    pub fn raw(&self) -> &ParsedReply {
        &self.raw
    }
}

/// `ATTACH` reply: one session per target launcher pid.
#[derive(Debug, Clone)]
pub struct AttachResponse {
    /// Global session ids, in the order the pids were given.
    pub gsids: Vec<u64>,
    /// Total tool daemons spawned across the new sessions.
    pub daemons: usize,
    raw: ParsedReply,
}

impl AttachResponse {
    /// Parse an `ATTACH` reply, erroring on missing/malformed fields.
    pub fn from_reply(raw: ParsedReply) -> DaemonResult<Self> {
        let csv = required_str(&raw, "gsids")?;
        let mut gsids = Vec::new();
        for tok in csv.split(',').filter(|t| !t.is_empty()) {
            let gsid = tok
                .parse::<u64>()
                .map_err(|_| DaemonError::Protocol(format!("bad gsid {tok:?} in reply")))?;
            gsids.push(gsid);
        }
        Ok(AttachResponse { gsids, daemons: required(&raw, "daemons")?, raw })
    }

    /// The untyped reply, for raw scrapes.
    pub fn raw(&self) -> &ParsedReply {
        &self.raw
    }
}

/// `UPGRADE` reply: the rolling-upgrade drill's report card.
#[derive(Debug, Clone)]
pub struct UpgradeResponse {
    /// Overlay shape the drill ran (`"1x4x16+4"` style).
    pub shape: String,
    /// Interior comm daemons replaced.
    pub nodes_upgraded: usize,
    /// Replacements satisfied from the hot-spare pool.
    pub spares_used: usize,
    /// Unplanned repairs observed mid-drill (0 on a clean run).
    pub unplanned_repairs: u64,
    /// Route epoch after the final replacement.
    pub epoch: u64,
    /// Median per-node drain time, microseconds.
    pub drain_p50_us: u64,
    /// Tail per-node drain time, microseconds.
    pub drain_p99_us: u64,
    raw: ParsedReply,
}

impl UpgradeResponse {
    /// Parse an `UPGRADE` reply, erroring on missing/malformed fields.
    pub fn from_reply(raw: ParsedReply) -> DaemonResult<Self> {
        Ok(UpgradeResponse {
            shape: required_str(&raw, "shape")?,
            nodes_upgraded: required(&raw, "nodes_upgraded")?,
            spares_used: required(&raw, "spares_used")?,
            unplanned_repairs: required(&raw, "unplanned_repairs")?,
            epoch: required(&raw, "epoch")?,
            drain_p50_us: required(&raw, "drain_p50_us")?,
            drain_p99_us: required(&raw, "drain_p99_us")?,
            raw,
        })
    }

    /// The untyped reply, for raw scrapes.
    pub fn raw(&self) -> &ParsedReply {
        &self.raw
    }
}

/// `STATUS` reply: daemon-wide gauges and counters.
#[derive(Debug, Clone)]
pub struct StatusResponse {
    /// Seconds since the daemon started.
    pub uptime_s: u64,
    /// Pooled front ends.
    pub backends: usize,
    /// Federation groups the pool is sharded into.
    pub groups: usize,
    /// Live sessions.
    pub sessions: usize,
    /// Sessions currently inside the admission limit.
    pub in_flight: usize,
    /// Launch requests waiting in the admission queue.
    pub queue_depth: usize,
    /// Successful launches since start.
    pub launches: u64,
    /// Failed launches since start.
    pub failures: u64,
    /// Whole-group FE failovers since start.
    pub fed_failovers: u64,
    raw: ParsedReply,
}

impl StatusResponse {
    /// Parse a `STATUS` reply, erroring on missing/malformed fields.
    pub fn from_reply(raw: ParsedReply) -> DaemonResult<Self> {
        Ok(StatusResponse {
            uptime_s: required(&raw, "uptime_s")?,
            backends: required(&raw, "backends")?,
            groups: raw.field_as::<usize>("groups").unwrap_or(1),
            sessions: required(&raw, "sessions")?,
            in_flight: required(&raw, "in_flight")?,
            queue_depth: required(&raw, "queue_depth")?,
            launches: required(&raw, "launches")?,
            failures: required(&raw, "failures")?,
            fed_failovers: raw.field_as::<u64>("fed_failovers").unwrap_or(0),
            raw,
        })
    }

    /// The untyped reply, for raw scrapes (peak_in_flight, limits, …).
    pub fn raw(&self) -> &ParsedReply {
        &self.raw
    }
}

/// `STATUS <gsid>` reply: one session's state.
#[derive(Debug, Clone)]
pub struct SessionStatusResponse {
    /// Global session id.
    pub gsid: u64,
    /// Front end currently hosting the session.
    pub fe: usize,
    /// Federation group currently hosting the session.
    pub group: usize,
    /// Application name (or `attach:pid=N`).
    pub app: String,
    /// Tool daemons in the session.
    pub daemons: usize,
    /// Engine session state, `Debug`-formatted.
    pub state: String,
    /// Health monitor verdict, `Debug`-formatted.
    pub health: String,
    /// Seconds since the session launched.
    pub age_s: u64,
    raw: ParsedReply,
}

impl SessionStatusResponse {
    /// Parse a `STATUS <gsid>` reply, erroring on missing/malformed fields.
    pub fn from_reply(raw: ParsedReply) -> DaemonResult<Self> {
        Ok(SessionStatusResponse {
            gsid: required(&raw, "gsid")?,
            fe: required(&raw, "fe")?,
            group: raw.field_as::<usize>("group").unwrap_or(0),
            app: required_str(&raw, "app")?,
            daemons: required(&raw, "daemons")?,
            state: required_str(&raw, "state")?,
            health: required_str(&raw, "health")?,
            age_s: required(&raw, "age_s")?,
            raw,
        })
    }

    /// The untyped reply, for raw scrapes.
    pub fn raw(&self) -> &ParsedReply {
        &self.raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::parse_reply_header;

    fn reply(line: &str) -> ParsedReply {
        parse_reply_header(line).expect("header parses").0
    }

    #[test]
    fn launch_response_extracts_typed_fields() {
        let raw = reply("OK gsid=7 fe=1 group=2 daemons=8 wait_ms=3 launch_ms=41");
        let r = LaunchResponse::from_reply(raw).unwrap();
        assert_eq!((r.gsid, r.fe, r.group, r.daemons), (7, 1, 2, 8));
        assert_eq!((r.wait_ms, r.launch_ms), (3, 41));
        assert_eq!(r.raw().field("gsid"), Some("7"));
    }

    #[test]
    fn missing_fields_become_protocol_errors() {
        let raw = reply("OK fe=1 daemons=8 wait_ms=3 launch_ms=41");
        let err = LaunchResponse::from_reply(raw).unwrap_err();
        assert!(err.to_string().contains("gsid"), "names the missing field: {err}");
    }

    #[test]
    fn v1_replies_without_group_fields_still_parse() {
        // A v1 daemon never sends group/fed_failovers fields; typed views
        // default them instead of failing, so a v2 CLI works against a v1
        // server.
        let raw = reply("OK gsid=7 fe=0 daemons=4 wait_ms=0 launch_ms=9");
        assert_eq!(LaunchResponse::from_reply(raw).unwrap().group, 0);
        let raw = reply(
            "OK uptime_s=5 backends=2 sessions=1 in_flight=1 queue_depth=0 \
             peak_in_flight=1 admitted=1 rejected=0 launches=1 failures=0 \
             upgrades=0 limit=8 queue_capacity=16",
        );
        let st = StatusResponse::from_reply(raw).unwrap();
        assert_eq!((st.groups, st.fed_failovers), (1, 0));
    }

    #[test]
    fn attach_response_parses_gsid_csv() {
        let raw = reply("OK gsids=3,4,5 sessions=3 daemons=12");
        let r = AttachResponse::from_reply(raw).unwrap();
        assert_eq!(r.gsids, vec![3, 4, 5]);
        assert_eq!(r.daemons, 12);
        let raw = reply("OK gsids=3,x sessions=2 daemons=8");
        assert!(AttachResponse::from_reply(raw).is_err());
    }
}
