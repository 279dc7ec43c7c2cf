//! The LaunchMON middleware API — what runs inside TBON daemons.
//!
//! §3.4: "once launched into a set of newly allocated nodes, each TBON
//! daemon must set up the TBON based on information that LaunchMON scalably
//! distributes to it. Specifically, the MW API assigns to each
//! simultaneously launched TBON daemon a unique personality handle that is
//! similar to an MPI rank. It also sets up a simple network fabric ...
//! LaunchMON's middleware initialization also distributes the RPDTAB to the
//! TBON daemons."
//!
//! [`MwSession`] is the middleware instance of the one [`DaemonSession`],
//! bootstrapped as back ends are (`crate::daemon_session`), with the `Mw*`
//! message types and the personality table as launch info. The fabric is
//! the collectives' tree and nothing more: the API offers the collectives
//! and the personality handles, which carry the tool's own tree, and no
//! point-to-point send between daemons.

use lmon_iccl::Topology;
use lmon_proto::payload::MwPersonality;
use lmon_proto::wire::get_seq;

use crate::daemon_session::{DaemonClass, DaemonMain, DaemonSession};
use crate::error::{LmonError, LmonResult};
use crate::handshake::{self, Handshake};

/// A tool's middleware-daemon entry point.
pub type MwMain = DaemonMain<Middleware>;

/// The session object handed to middleware daemon code.
pub type MwSession = DaemonSession<Middleware>;

/// What only a middleware daemon's session holds.
pub struct Middleware {
    personality: MwPersonality,
    all_personalities: Vec<MwPersonality>,
}

impl DaemonSession<Middleware> {
    /// This daemon's personality handle.
    pub fn personality(&self) -> &MwPersonality {
        &self.class.personality
    }

    /// Personalities of every MW daemon launched together (the table the
    /// TBON bootstraps its own network from).
    pub fn all_personalities(&self) -> &[MwPersonality] {
        &self.class.all_personalities
    }
}

/// Assign personalities for `hosts.len()` MW daemons arranged as a k-ary
/// tree of the given fanout (parent links let TBONs bootstrap without any
/// further coordination).
pub fn assign_personalities(hosts: &[String], fanout: u32) -> Vec<MwPersonality> {
    let n = hosts.len() as u32;
    let topo = Topology::KAry(fanout.max(1));
    (0..n)
        .map(|rank| MwPersonality {
            rank,
            size: n,
            host: hosts[rank as usize].clone(),
            parent: topo.parent(rank).unwrap_or(MwPersonality::NO_PARENT),
            endpoint: 0xE0_0000 + rank as u64,
        })
        .collect()
}

/// Each daemon finds its own personality in the table its launch info
/// carries.
impl DaemonClass for Middleware {
    const HANDSHAKE: &'static Handshake = &handshake::MW;

    fn from_launch_info(table: &[u8], rank: u32) -> LmonResult<Self> {
        let all_personalities: Vec<MwPersonality> = get_seq(&mut &table[..])?;
        let personality = all_personalities
            .iter()
            .find(|p| p.rank == rank)
            .cloned()
            .ok_or(LmonError::Engine("no personality for my rank".into()))?;
        Ok(Middleware { personality, all_personalities })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn personalities_form_a_kary_tree() {
        let hosts: Vec<String> = (0..7).map(|i| format!("comm{i}")).collect();
        let ps = assign_personalities(&hosts, 2);
        assert_eq!(ps.len(), 7);
        assert!(ps[0].is_root());
        assert_eq!(ps[1].parent, 0);
        assert_eq!(ps[2].parent, 0);
        assert_eq!(ps[3].parent, 1);
        assert_eq!(ps[6].parent, 2);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.rank as usize, i);
            assert_eq!(p.size, 7);
            assert_eq!(p.host, hosts[i]);
        }
        // Endpoints are unique tokens.
        let endpoints: std::collections::HashSet<u64> = ps.iter().map(|p| p.endpoint).collect();
        assert_eq!(endpoints.len(), 7);
    }

    #[test]
    fn fanout_clamps_to_one() {
        let hosts: Vec<String> = (0..3).map(|i| format!("c{i}")).collect();
        let ps = assign_personalities(&hosts, 0);
        assert_eq!(ps[1].parent, 0);
        assert_eq!(ps[2].parent, 1, "fanout 0 behaves like a chain");
    }
}
