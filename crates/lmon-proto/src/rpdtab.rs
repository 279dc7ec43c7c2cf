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

use bytes::{Buf, BufMut};

use crate::error::ProtoResult;
use crate::wire::{get_str, get_u32, get_u64, put_str, str_len, WireDecode, WireEncode};

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

impl WireEncode for ProcDesc {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.rank);
        put_str(buf, &self.host);
        put_str(buf, &self.exe);
        buf.put_u64(self.pid);
    }

    fn encoded_len(&self) -> usize {
        4 + str_len(&self.host) + str_len(&self.exe) + 8
    }
}

impl WireDecode for ProcDesc {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        let rank = get_u32(buf)?;
        let host = get_str(buf)?;
        let exe = get_str(buf)?;
        let pid = get_u64(buf)?;
        Ok(ProcDesc { rank, host, exe, pid })
    }
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

    /// An empty table.
    pub fn empty() -> Self {
        Rpdtab { entries: Vec::new() }
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

    /// Append an entry (keeps rank order).
    pub fn push(&mut self, e: ProcDesc) {
        let pos = self.entries.partition_point(|x| x.rank <= e.rank);
        self.entries.insert(pos, e);
    }

    /// Look up the entry for a given MPI rank.
    pub fn by_rank(&self, rank: u32) -> Option<&ProcDesc> {
        self.entries.binary_search_by_key(&rank, |e| e.rank).ok().map(|i| &self.entries[i])
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
        let mut seen: HashMap<&str, ()> = HashMap::with_capacity(self.entries.len() / 4 + 1);
        let mut hosts = Vec::new();
        for e in &self.entries {
            if seen.insert(e.host.as_str(), ()).is_none() {
                hosts.push(e.host.clone());
            }
        }
        hosts
    }

    /// Count of distinct hosts.
    pub fn host_count(&self) -> usize {
        self.hosts().len()
    }
}

impl WireEncode for Rpdtab {
    /// Hostname-deduplicated encoding: a string table followed by per-task
    /// fixed-width records referencing it. For the paper's 8-tasks-per-node
    /// configuration this shrinks the table by ~40% versus naive encoding —
    /// directly reducing the Region-B (fetch) and Region-C (handshake)
    /// linear terms.
    fn encode(&self, buf: &mut impl BufMut) {
        let mut host_ids: HashMap<&str, u32> = HashMap::new();
        let mut exe_ids: HashMap<&str, u32> = HashMap::new();
        let mut hosts: Vec<&str> = Vec::new();
        let mut exes: Vec<&str> = Vec::new();
        for e in &self.entries {
            host_ids.entry(&e.host).or_insert_with(|| {
                hosts.push(&e.host);
                (hosts.len() - 1) as u32
            });
            exe_ids.entry(&e.exe).or_insert_with(|| {
                exes.push(&e.exe);
                (exes.len() - 1) as u32
            });
        }
        buf.put_u32(hosts.len() as u32);
        for h in &hosts {
            put_str(buf, h);
        }
        buf.put_u32(exes.len() as u32);
        for x in &exes {
            put_str(buf, x);
        }
        buf.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u32(e.rank);
            buf.put_u32(host_ids[e.host.as_str()]);
            buf.put_u32(exe_ids[e.exe.as_str()]);
            buf.put_u64(e.pid);
        }
    }

    fn encoded_len(&self) -> usize {
        let mut host_seen: HashMap<&str, ()> = HashMap::new();
        let mut exe_seen: HashMap<&str, ()> = HashMap::new();
        let mut len = 4 + 4 + 4; // three table counts
        for e in &self.entries {
            if host_seen.insert(&e.host, ()).is_none() {
                len += str_len(&e.host);
            }
            if exe_seen.insert(&e.exe, ()).is_none() {
                len += str_len(&e.exe);
            }
            len += 4 + 4 + 4 + 8;
        }
        len
    }
}

/// The one walk over an encoded table: every check a decode makes — count
/// bounds, string validity, host and exe index bounds on *every* row — and
/// a [`ProcDesc`] built only for rows whose host `keep` accepts. Returns
/// the kept rows in wire order and the table's total task count.
fn walk_rows(
    buf: &mut impl Buf,
    keep: impl Fn(&str) -> bool,
) -> ProtoResult<(Vec<ProcDesc>, usize)> {
    use crate::error::ProtoError;
    use crate::wire::MAX_SEQ_LEN;

    fn strings(buf: &mut impl Buf) -> ProtoResult<Vec<String>> {
        let n = get_u32(buf)? as usize;
        if n > MAX_SEQ_LEN {
            return Err(ProtoError::PayloadTooLarge { len: n });
        }
        let mut table = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            table.push(get_str(buf)?);
        }
        Ok(table)
    }
    let hosts = strings(buf)?;
    let exes = strings(buf)?;
    let kept: Vec<bool> = hosts.iter().map(|h| keep(h)).collect();
    let ntasks = get_u32(buf)? as usize;
    if ntasks > MAX_SEQ_LEN {
        return Err(ProtoError::PayloadTooLarge { len: ntasks });
    }
    // Sized for rows spread evenly over hosts: exact for a full decode.
    let kept_hosts = kept.iter().filter(|k| **k).count();
    let mut entries = Vec::with_capacity(ntasks.min(1 << 16) * kept_hosts / kept.len().max(1));
    for _ in 0..ntasks {
        let rank = get_u32(buf)?;
        let host_id = get_u32(buf)? as usize;
        let exe_id = get_u32(buf)? as usize;
        let pid = get_u64(buf)?;
        let host = hosts
            .get(host_id)
            .ok_or(ProtoError::InvalidField { field: "host_id", value: host_id as u64 })?;
        let exe = exes
            .get(exe_id)
            .ok_or(ProtoError::InvalidField { field: "exe_id", value: exe_id as u64 })?;
        if kept[host_id] {
            entries.push(ProcDesc { rank, host: host.clone(), exe: exe.clone(), pid });
        }
    }
    Ok((entries, ntasks))
}

impl WireDecode for Rpdtab {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        let (entries, _) = walk_rows(buf, |_| true)?;
        Ok(Rpdtab::new(entries))
    }
}

impl Rpdtab {
    /// The paper's `getMyProctab` as a decode: check the whole encoded
    /// table exactly as [`from_bytes`](WireDecode::from_bytes) does — a
    /// buffer it rejects is rejected here — but build only the rows on
    /// `host`. Returns them (equal to `from_bytes(bytes)?.local_tasks(host)`)
    /// with the table's total task count.
    pub fn local_from_bytes(bytes: &[u8], host: &str) -> ProtoResult<(Rpdtab, usize)> {
        let mut slice = bytes;
        let (entries, ntasks) = walk_rows(&mut slice, |h| h == host)?;
        if !slice.is_empty() {
            return Err(crate::error::ProtoError::Truncated { needed: 0, available: slice.len() });
        }
        Ok((Rpdtab::new(entries), ntasks))
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
    use crate::wire::{WireDecode, WireEncode};

    #[test]
    fn roundtrip_preserves_entries() {
        let tab = synthetic_rpdtab(8, 4, "app");
        let back = Rpdtab::from_bytes(&tab.to_bytes()).unwrap();
        assert_eq!(tab, back);
        assert_eq!(back.len(), 32);
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
        let naive: usize = tab.entries().iter().map(WireEncode::encoded_len).sum();
        assert!(
            tab.encoded_len() < naive,
            "dedup {} should beat naive {}",
            tab.encoded_len(),
            naive
        );
    }

    #[test]
    fn by_rank_and_local_tasks() {
        let tab = synthetic_rpdtab(4, 8, "app");
        let e = tab.by_rank(17).unwrap();
        assert_eq!(e.host, "node00002");
        assert_eq!(tab.local_tasks("node00002").count(), 8);
        assert_eq!(tab.local_tasks("nonexistent").count(), 0);
        assert!(tab.by_rank(999).is_none());
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
    fn push_keeps_rank_order() {
        let mut tab = Rpdtab::empty();
        for rank in [5u32, 1, 3, 2, 4, 0] {
            tab.push(ProcDesc { rank, host: "h".into(), exe: "x".into(), pid: rank as u64 });
        }
        let ranks: Vec<u32> = tab.entries().iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
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
        assert!(Rpdtab::local_from_bytes(&bytes, "node00000").is_err());
        let intact = tab.to_bytes();
        let (local, ntasks) = Rpdtab::local_from_bytes(&intact, "node00001").unwrap();
        assert_eq!((local.len(), ntasks), (2, 4));
        assert!(Rpdtab::local_from_bytes(&intact[..intact.len() - 1], "node00001").is_err());
        assert!(Rpdtab::local_from_bytes(&[&intact[..], &[0]].concat(), "node00001").is_err());
    }

    #[test]
    fn empty_table_roundtrip() {
        let tab = Rpdtab::empty();
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
