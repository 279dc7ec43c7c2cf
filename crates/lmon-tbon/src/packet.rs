//! Packets: the unit of TBON traffic.

use bytes::Bytes;

use crate::spec::NodePos;

/// A tagged payload travelling a stream of the overlay.
///
/// The payload is a cheap-clone [`Bytes`] view: a broadcast hands every
/// child the same refcounted storage instead of a per-child copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Stream the packet belongs to.
    pub stream: u16,
    /// Tool-defined tag (e.g. "sample wave 3").
    pub tag: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Packet {
    /// A packet on `stream` with `tag` and `payload`.
    pub fn new(stream: u16, tag: u16, payload: impl Into<Bytes>) -> Self {
        Packet { stream, tag, payload: payload.into() }
    }

    /// Size on the (virtual) wire: 4 bytes of header + payload.
    pub fn wire_len(&self) -> usize {
        4 + self.payload.len()
    }
}

/// Control messages the overlay itself uses (sent down the tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Control {
    /// Open a stream with the given filter.
    OpenStream { stream: u16, filter: crate::filter::FilterKind },
    /// Tear the overlay down.
    Shutdown,
    /// Liveness probe: every node that sees it answers with an
    /// [`UpKind::Pong`] and forwards it to its (non-severed) children.
    Ping { seq: u64 },
    /// The parent's side of this link closed (crash fault path or severed
    /// link). The subtree below is orphaned until the front end re-parents
    /// it; receivers mark themselves degraded and keep waiting.
    LinkDown,
}

/// What travels on a down link. Data is epoch-stamped so the repair
/// protocol can piggyback epoch propagation on the first post-heal
/// broadcast (see DESIGN.md §9).
#[derive(Debug, Clone)]
pub(crate) enum Down {
    /// A data packet broadcast toward the leaves, stamped with the
    /// overlay epoch it was sent under.
    Data { epoch: u64, pkt: Packet },
    /// Overlay control traffic.
    Ctl(Control),
}

/// What travels on an up link.
#[derive(Debug, Clone)]
pub(crate) struct Up {
    /// The direct child that sent this hop (waves are keyed by position,
    /// which stays stable across re-parenting, unlike slot indices).
    pub from: NodePos,
    /// The overlay epoch the sender believed in; receivers drop and count
    /// packets from older epochs instead of mis-routing them.
    pub epoch: u64,
    /// The message itself.
    pub kind: UpKind,
}

/// Payload of an up-link message.
#[derive(Debug, Clone)]
pub(crate) enum UpKind {
    /// A data packet travelling (aggregated) toward the front end.
    Packet(Packet),
    /// Heartbeat reply from `pos`, forwarded unmodified to the root.
    Pong { pos: NodePos, seq: u64 },
    /// A link-close notice: `pos`'s daemon closed its end of the overlay
    /// deterministically (the crash fault path's FIN). Forwarded unmodified
    /// to the root, where it triggers failure detection.
    ChildGone { pos: NodePos },
    /// Planned-teardown confirmation: `pos` finished flushing every
    /// in-flight wave and exited cleanly in response to a drain request.
    /// Forwarded unmodified to the root, where it completes
    /// `Maintenance::drain` *without* entering the failure path.
    Drained { pos: NodePos },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_counts_header() {
        assert_eq!(Packet::new(0, 0, vec![]).wire_len(), 4);
        assert_eq!(Packet::new(1, 2, vec![0; 100]).wire_len(), 104);
    }
}
