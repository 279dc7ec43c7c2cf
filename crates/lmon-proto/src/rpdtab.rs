//! The Remote Process Descriptor Table (RPDTAB).
//!
//! The RPDTAB is the central data structure of the paper: "a Remote Process
//! Descriptor Table (RPDTAB) that includes the host name, the executable
//! name and the process ID of each MPI task" (§2). The engine fetches it
//! from the RM launcher's address space through the APAI (the `MPIR_proctable`
//! symbol), ships it to the front end, and the front end redistributes it to
//! back-end and middleware daemons so every daemon can locate its local
//! tasks.
//!
//! Because its size is linear in the number of MPI tasks (the dominant
//! scale-dependent cost of Region B in the §4 model), the encoding here is
//! deliberately compact and hostname-deduplicated.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::OnceLock;

use bytes::{Buf, BufMut, Bytes};

use crate::error::{ProtoError, ProtoResult};
use crate::payload::put_str_vec;
use crate::wire::{get_u32, need, WireDecode, WireEncode, MAX_SEQ_LEN, MAX_STRING_LEN};

/// One entry of the RPDTAB: where a single MPI task lives.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcDesc {
    /// MPI rank of the task.
    pub rank: u32,
    /// Hostname of the compute node running the task.
    pub host: String,
    /// Executable image name of the task.
    pub exe: String,
    /// Node-local process ID of the task.
    pub pid: u64,
}

/// The full table, ordered by MPI rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rpdtab {
    entries: Vec<ProcDesc>,
}

impl Rpdtab {
    /// Build a table from entries; they are sorted by rank.
    pub fn new(mut entries: Vec<ProcDesc>) -> Self {
        entries.sort_by_key(|e| e.rank);
        Rpdtab { entries }
    }

    /// Number of MPI tasks described.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, sorted by rank.
    pub fn entries(&self) -> &[ProcDesc] {
        &self.entries
    }

    /// Entries located on `host` (a daemon uses this to find its local tasks).
    pub fn local_tasks<'a>(&'a self, host: &'a str) -> impl Iterator<Item = &'a ProcDesc> {
        self.entries.iter().filter(move |e| e.host == host)
    }

    /// The distinct hostnames, in order of first appearance by rank.
    ///
    /// This is the node list a tool needs when co-locating one daemon per
    /// node: LaunchMON launches exactly one back-end daemon per distinct
    /// host in the RPDTAB.
    pub fn hosts(&self) -> Vec<String> {
        let mut hosts = Dict::default();
        for e in &self.entries {
            hosts.id(&e.host);
        }
        hosts.strings.into_iter().map(String::from).collect()
    }

    /// Count of distinct hosts.
    pub fn host_count(&self) -> usize {
        self.hosts().len()
    }

    /// The paper's `getMyProctab` as a decode: check the whole encoded
    /// table exactly as [`from_bytes`](WireDecode::from_bytes) does — a
    /// buffer it rejects is rejected here — but build only the rows on
    /// `host`. Returns them (equal to `from_bytes(bytes)?.local_tasks(host)`)
    /// with the checked table.
    pub fn local_from_bytes(bytes: Bytes, host: &str) -> ProtoResult<(Rpdtab, CheckedRpdtab)> {
        let (entries, len) = walk_rows(&bytes, |h| h == host)?;
        Ok((Rpdtab::new(entries), CheckedRpdtab { bytes, len, rows: OnceLock::new() }))
    }

    /// Check an encoded table as [`from_bytes`](WireDecode::from_bytes) does,
    /// building no row.
    pub fn check_bytes(bytes: Bytes) -> ProtoResult<CheckedRpdtab> {
        let (_, len) = walk_rows(&bytes, |_| false)?;
        Ok(CheckedRpdtab { bytes, len, rows: OnceLock::new() })
    }

    /// Take bytes this session's master checked whole before broadcasting
    /// them, checking only their framing: both string tables' counts and
    /// lengths, the row count's bound and that the rows end the buffer. No
    /// row is read, so strings and host and exe ids are not checked again;
    /// every buffer [`check_bytes`](Rpdtab::check_bytes) accepts is accepted
    /// with the same `len()`. Bytes that passed no full check must not come
    /// here: the decode on first use of such a table may panic.
    pub fn check_framing(bytes: Bytes) -> ProtoResult<CheckedRpdtab> {
        let mut buf = &bytes[..];
        for _ in 0..2 {
            for _ in 0..str_count(&mut buf)? {
                str_bytes(&mut buf)?;
            }
        }
        let len = row_section(&mut buf)?.len() / ROW_LEN;
        Ok(CheckedRpdtab { bytes, len, rows: OnceLock::new() })
    }

    /// The table's rows in a writer: the one encoder.
    fn writer(&self) -> RpdtabWriter<'_> {
        let mut writer = RpdtabWriter::with_capacity(self.entries.len());
        for e in &self.entries {
            writer.push(&e.host, &e.exe, [(e.rank, e.pid)]);
        }
        writer
    }
}

/// Dense ids for strings, in order of first appearance. A string equal to
/// the previous one reuses its id without hashing: rows come grouped by
/// host, and usually with one exe for all of them.
#[derive(Default)]
struct Dict<'a> {
    ids: HashMap<&'a str, u32>,
    strings: Vec<&'a str>,
    last: Option<(&'a str, u32)>,
}

impl<'a> Dict<'a> {
    fn id(&mut self, s: &'a str) -> u32 {
        let id = match self.last {
            Some((last, id)) if last == s => return id,
            _ => *self.ids.entry(s).or_insert(self.strings.len() as u32),
        };
        if id as usize == self.strings.len() {
            self.strings.push(s);
        }
        self.last = Some((s, id));
        id
    }
}

/// Bytes of one encoded row: rank, host id, exe id (u32 each), pid (u64).
const ROW_LEN: usize = 20;

/// Writes the wire encoding row by row, building no [`ProcDesc`]: how a
/// launcher fills `MPIR_proctable`. Rows go in rank order, and hosts and
/// exes get dense ids in order of first appearance, so the bytes are
/// `Rpdtab::new(rows).to_bytes()` for the same rows.
#[derive(Default)]
pub struct RpdtabWriter<'a> {
    hosts: Dict<'a>,
    exes: Dict<'a>,
    rows: Vec<u8>,
}

impl<'a> RpdtabWriter<'a> {
    /// A writer with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        RpdtabWriter { rows: Vec::with_capacity(rows * ROW_LEN), ..Default::default() }
    }

    /// Append the `(rank, pid)` rows of the tasks running `exe` on `host`.
    /// A host with no rows gets no id.
    pub fn push(
        &mut self,
        host: &'a str,
        exe: &'a str,
        tasks: impl IntoIterator<Item = (u32, u64)>,
    ) {
        let mut ids = None;
        for (rank, pid) in tasks {
            let (host, exe) = *ids.get_or_insert_with(|| (self.hosts.id(host), self.exes.id(exe)));
            self.rows.put_u32(rank);
            self.rows.put_u32(host);
            self.rows.put_u32(exe);
            self.rows.put_u64(pid);
        }
    }
}

impl WireEncode for RpdtabWriter<'_> {
    /// Hostname-deduplicated encoding: a string table followed by per-task
    /// fixed-width records referencing it. For the paper's 8-tasks-per-node
    /// configuration this shrinks the table by ~40% versus naive encoding —
    /// directly reducing the Region-B (fetch) and Region-C (handshake)
    /// linear terms.
    fn encode(&self, buf: &mut impl BufMut) {
        put_str_vec(buf, &self.hosts.strings);
        put_str_vec(buf, &self.exes.strings);
        buf.put_u32((self.rows.len() / ROW_LEN) as u32);
        buf.put_slice(&self.rows);
    }
}

impl WireEncode for Rpdtab {
    fn encode(&self, buf: &mut impl BufMut) {
        self.writer().encode(buf);
    }

    fn to_bytes(&self) -> Vec<u8> {
        self.writer().to_bytes()
    }
}

/// The count of a string table written by `put_str_vec`, bounded as
/// `get_str_vec` bounds it.
fn str_count(buf: &mut &[u8]) -> ProtoResult<usize> {
    let n = get_u32(buf)? as usize;
    if n > MAX_SEQ_LEN {
        return Err(ProtoError::PayloadTooLarge { len: n });
    }
    Ok(n)
}

/// The next string of such a table as a view of `buf`: its length bounded
/// and its bytes present, not yet checked as UTF-8.
fn str_bytes<'a>(buf: &mut &'a [u8]) -> ProtoResult<&'a [u8]> {
    let len = get_u32(buf)? as usize;
    if len > MAX_STRING_LEN {
        return Err(ProtoError::PayloadTooLarge { len });
    }
    need(buf, len)?;
    let (s, rest) = buf.split_at(len);
    *buf = rest;
    Ok(s)
}

/// A string table written by `put_str_vec`, read as views of `buf` with
/// the checks `get_str_vec` makes: the count and every length bounded, and
/// every string UTF-8. One allocation, whatever the count.
fn str_views<'a>(buf: &mut &'a [u8]) -> ProtoResult<Vec<&'a str>> {
    let n = str_count(buf)?;
    // Every string takes at least its 4-byte length.
    let mut views = Vec::with_capacity(n.min(buf.len() / 4));
    for _ in 0..n {
        views.push(std::str::from_utf8(str_bytes(buf)?).map_err(|_| ProtoError::BadString)?);
    }
    Ok(views)
}

/// The rows after the string tables: a bounded count, then exactly that
/// many rows, which end the buffer.
fn row_section<'a>(buf: &mut &'a [u8]) -> ProtoResult<&'a [u8]> {
    let ntasks = get_u32(buf)? as usize;
    if ntasks > MAX_SEQ_LEN {
        return Err(ProtoError::PayloadTooLarge { len: ntasks });
    }
    if buf.len() != ntasks * ROW_LEN {
        return Err(ProtoError::Truncated { needed: ntasks * ROW_LEN, available: buf.len() });
    }
    Ok(std::mem::take(buf))
}

/// The one walk over an encoded table: every check a decode makes — count
/// bounds, string validity, host and exe index bounds on *every* row, and
/// that the rows end the buffer — and a [`ProcDesc`] built only for rows
/// whose host `keep` accepts. The host and exe tables are read as views,
/// so only kept rows own strings. Returns the kept rows in wire order and
/// the table's total task count.
fn walk_rows(bytes: &[u8], keep: impl Fn(&str) -> bool) -> ProtoResult<(Vec<ProcDesc>, usize)> {
    let mut buf = bytes;
    let hosts = str_views(&mut buf)?;
    let exes = str_views(&mut buf)?;
    let kept: Vec<bool> = hosts.iter().map(|h| keep(h)).collect();
    let rows = row_section(&mut buf)?;
    let ntasks = rows.len() / ROW_LEN;
    let bad = |field, id: usize| ProtoError::InvalidField { field, value: id as u64 };
    // Sized for rows spread evenly over hosts: exact for a full decode.
    let kept_hosts = kept.iter().filter(|k| **k).count();
    let mut entries = Vec::with_capacity(ntasks * kept_hosts / kept.len().max(1));
    for row in rows.chunks_exact(ROW_LEN) {
        let word = |at: usize| u32::from_be_bytes(std::array::from_fn(|i| row[at + i]));
        let (host_id, exe_id) = (word(4) as usize, word(8) as usize);
        let host = hosts.get(host_id).ok_or_else(|| bad("host_id", host_id))?;
        let exe = exes.get(exe_id).ok_or_else(|| bad("exe_id", exe_id))?;
        if kept[host_id] {
            let pid = u64::from_be_bytes(std::array::from_fn(|i| row[12 + i]));
            let (host, exe) = (host.to_string(), exe.to_string());
            entries.push(ProcDesc { rank: word(0), host, exe, pid });
        }
    }
    Ok((entries, ntasks))
}

impl WireDecode for Rpdtab {
    /// An RPDTAB is always a whole payload section: the table runs to the
    /// end of `buf`, and trailing bytes are an error.
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        let (entries, _) = walk_rows(buf.chunk(), |_| true)?;
        buf.advance(buf.remaining());
        Ok(Rpdtab::new(entries))
    }
}

/// An encoded table that passed every check [`from_bytes`](WireDecode::from_bytes)
/// makes, kept as received so it is forwarded as is. Made by
/// [`Rpdtab::check_bytes`] and [`Rpdtab::local_from_bytes`], and from bytes
/// such a check passed by [`Rpdtab::check_framing`]. Like a
/// `LazyLock`, it derefs to the decoded [`Rpdtab`], built on first use;
/// [`len`](CheckedRpdtab::len) decodes nothing.
#[derive(Debug, Clone)]
pub struct CheckedRpdtab {
    bytes: Bytes,
    len: usize,
    rows: OnceLock<Rpdtab>,
}

impl CheckedRpdtab {
    /// Number of MPI tasks described.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoding as checked: a refcounted view to forward.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }
}

impl Deref for CheckedRpdtab {
    type Target = Rpdtab;

    fn deref(&self) -> &Rpdtab {
        self.rows.get_or_init(|| {
            // These immutable bytes passed every check `from_bytes` makes,
            // when this value was built or before the session's master
            // broadcast them, so decoding them cannot fail.
            Rpdtab::from_bytes(&self.bytes).expect("checked RPDTAB bytes decode")
        })
    }
}

/// Generate a synthetic RPDTAB shaped like the paper's experiments:
/// `nodes` hosts with `tasks_per_node` consecutive ranks each.
pub fn synthetic_rpdtab(nodes: usize, tasks_per_node: usize, exe: &str) -> Rpdtab {
    let mut entries = Vec::with_capacity(nodes * tasks_per_node);
    for node in 0..nodes {
        let host = format!("node{node:05}");
        for local in 0..tasks_per_node {
            let rank = (node * tasks_per_node + local) as u32;
            entries.push(ProcDesc {
                rank,
                host: host.clone(),
                exe: exe.to_string(),
                pid: 10_000 + rank as u64,
            });
        }
    }
    Rpdtab::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::str_len;

    #[test]
    fn roundtrip_preserves_entries() {
        let tab = synthetic_rpdtab(8, 4, "app");
        let back = Rpdtab::from_bytes(&tab.to_bytes()).unwrap();
        assert_eq!(tab, back);
        assert_eq!(back.len(), 32);
    }

    /// The wire format, pinned byte for byte. Hosts cycle and the exe
    /// alternates, so most rows differ from the row before them.
    #[test]
    fn encoding_matches_golden_bytes() {
        let rows = [("a", "x"), ("b", "x"), ("a", "yy"), ("a", "yy"), ("c", "x"), ("b", "yy")];
        let entries = rows.iter().enumerate().map(|(rank, (host, exe))| ProcDesc {
            rank: rank as u32,
            host: host.to_string(),
            exe: exe.to_string(),
            pid: 100 + rank as u64,
        });
        let tab = Rpdtab::new(entries.collect());
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0, 0, 0, 3, 0, 0, 0, 1, b'a', 0, 0, 0, 1, b'b', 0, 0, 0, 1, b'c', // hosts
            0, 0, 0, 2, 0, 0, 0, 1, b'x', 0, 0, 0, 2, b'y', b'y', // exes
            0, 0, 0, 6, // rows: rank, host id, exe id, pid
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 100,
            0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 101,
            0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 102,
            0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 103,
            0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 104,
            0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 105,
        ];
        assert_eq!(tab.to_bytes(), golden);
        assert_eq!(tab.encoded_len(), golden.len());
        assert_eq!(Rpdtab::from_bytes(golden).unwrap(), tab);
    }

    #[test]
    fn encoded_len_matches_actual() {
        for (nodes, tpn) in [(1, 1), (4, 8), (16, 2), (3, 7)] {
            let tab = synthetic_rpdtab(nodes, tpn, "a.out");
            assert_eq!(tab.to_bytes().len(), tab.encoded_len());
        }
    }

    #[test]
    fn dedup_encoding_is_smaller_than_naive() {
        let tab = synthetic_rpdtab(64, 8, "app");
        // Naive: every row carries its host and exe strings itself.
        let naive: usize =
            tab.entries().iter().map(|e| 4 + str_len(&e.host) + str_len(&e.exe) + 8).sum();
        assert!(
            tab.encoded_len() < naive,
            "dedup {} should beat naive {}",
            tab.encoded_len(),
            naive
        );
    }

    #[test]
    fn local_tasks_by_host() {
        let tab = synthetic_rpdtab(4, 8, "app");
        assert_eq!(tab.entries()[17].host, "node00002");
        assert_eq!(tab.local_tasks("node00002").count(), 8);
        assert_eq!(tab.local_tasks("nonexistent").count(), 0);
    }

    #[test]
    fn hosts_in_rank_order_and_counted() {
        let tab = synthetic_rpdtab(5, 2, "app");
        let hosts = tab.hosts();
        assert_eq!(hosts.len(), 5);
        assert_eq!(hosts[0], "node00000");
        assert_eq!(hosts[4], "node00004");
        assert_eq!(tab.host_count(), 5);
    }

    #[test]
    fn corrupt_host_index_rejected() {
        let tab = synthetic_rpdtab(2, 2, "app");
        let mut bytes = tab.to_bytes();
        // Flip the host-id of the last record to an out-of-range value.
        let rec_off = bytes.len() - 20 + 4; // last record: rank(4) host(4) exe(4) pid(8)
        bytes[rec_off..rec_off + 4].copy_from_slice(&999u32.to_be_bytes());
        assert!(Rpdtab::from_bytes(&bytes).is_err());
        // A daemon on the *other* host builds none of that row and still
        // refuses the table.
        assert!(Rpdtab::local_from_bytes(bytes.clone().into(), "node00000").is_err());
        assert!(Rpdtab::check_bytes(bytes.into()).is_err());
        let intact = Bytes::from(tab.to_bytes());
        let checked = Rpdtab::check_bytes(intact.clone()).unwrap();
        assert_eq!((checked.len(), checked.bytes()), (4, &intact));
        assert_eq!(*checked, tab, "its rows are the decode's");
        let (local, checked) = Rpdtab::local_from_bytes(intact.clone(), "node00001").unwrap();
        assert_eq!((local.len(), checked.len()), (2, 4));
        assert!(Rpdtab::local_from_bytes(intact.slice(..intact.len() - 1), "node00001").is_err());
        let trailing = [&intact[..], &[0]].concat();
        assert!(Rpdtab::local_from_bytes(trailing.into(), "node00001").is_err());
    }

    /// The framing-only check refuses what breaks the framing, and takes
    /// rows it does not read: a host id out of range is the full check's.
    #[test]
    fn framing_check_refuses_broken_framing_and_reads_no_row() {
        let intact = synthetic_rpdtab(2, 2, "app").to_bytes();
        let framed = Rpdtab::check_framing(intact.clone().into()).unwrap();
        assert_eq!((framed.len(), &framed.bytes()[..]), (4, &intact[..]));
        assert_eq!(*framed, synthetic_rpdtab(2, 2, "app"));

        let truncated = intact[..intact.len() - 1].to_vec();
        let trailing = [&intact[..], &[0]].concat();
        let mut oversized = intact.clone();
        let rows_at = intact.len() - 4 * ROW_LEN - 4; // the row count's offset
        let too_many = (MAX_SEQ_LEN as u32 + 1).to_be_bytes();
        oversized[rows_at..rows_at + 4].copy_from_slice(&too_many);
        let mut string_len = intact.clone();
        string_len[4..8].copy_from_slice(&(MAX_STRING_LEN as u32 + 1).to_be_bytes());
        let mut past_end = intact.clone();
        past_end[4..8].copy_from_slice(&(intact.len() as u32).to_be_bytes());
        for bad in [truncated, trailing, oversized, string_len, past_end] {
            assert!(Rpdtab::check_framing(bad.clone().into()).is_err(), "took {bad:?}");
            assert!(Rpdtab::check_bytes(bad.into()).is_err());
        }

        let mut bad_row = intact;
        let host_id = bad_row.len() - ROW_LEN + 4;
        bad_row[host_id..host_id + 4].copy_from_slice(&999u32.to_be_bytes());
        assert!(Rpdtab::check_bytes(bad_row.clone().into()).is_err());
        assert_eq!(Rpdtab::check_framing(bad_row.into()).unwrap().len(), 4);
    }

    #[test]
    fn empty_table_roundtrip() {
        let tab = Rpdtab::default();
        let back = Rpdtab::from_bytes(&tab.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.host_count(), 0);
    }

    #[test]
    fn size_is_linear_in_tasks() {
        // Region B of the §4 model: RPDTAB size linear in #tasks.
        let small = synthetic_rpdtab(16, 8, "app").encoded_len();
        let large = synthetic_rpdtab(128, 8, "app").encoded_len();
        let ratio = large as f64 / small as f64;
        assert!((6.0..10.0).contains(&ratio), "8x tasks should be ~8x bytes, got {ratio}");
    }
}
