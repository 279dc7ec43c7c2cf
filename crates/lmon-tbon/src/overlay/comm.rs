//! The communication daemon: forward down, aggregate up, close links once.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, SelectWaker, Sender};

use super::{CommFault, CONNECT_STREAM};
use crate::filter::{FilterKind, FilterRegistry};
use crate::packet::{Control, Down, Packet, Up, UpKind};
use crate::recovery::{ChildLink, OverlayStats, RecoveryCmd, RouteTable};
use crate::spec::NodePos;

/// Aggregation waves are keyed by (epoch, stream, tag): contributions from
/// different overlay epochs must never mix.
type WaveKey = (u64, u16, u16);

/// Everything a communication daemon needs to run its node.
pub struct CommHarness {
    /// This node's position.
    pub pos: NodePos,
    pub(super) down_rx: Receiver<Down>,
    pub(super) ctl_rx: Receiver<RecoveryCmd>,
    pub(super) up_rx: Receiver<Up>,
    pub(super) up_tx: Sender<Up>,
    pub(super) children: Vec<ChildLink>,
    /// The stream filters the overlay was built with.
    pub(super) registry: FilterRegistry,
    pub(super) route: Arc<RouteTable>,
    pub(super) stats: Arc<OverlayStats>,
}

/// What a comm-loop sweep decided to do next.
enum Exit {
    /// Run the deterministic crash path and return.
    Crash,
    /// Exit silently — no FIN, no notice, no death mark (`kill -9`).
    Silent,
    /// Planned drain finished flushing: close links and confirm `Drained`.
    Drained,
    /// Forward shutdown to the subtree and return.
    Shutdown,
    /// A link disconnected: the overlay is being dropped.
    Torn,
}

/// The running state of one communication daemon.
struct CommNode {
    pos: NodePos,
    up_tx: Sender<Up>,
    children: Vec<ChildLink>,
    severed: HashSet<NodePos>,
    epoch: u64,
    streams: HashMap<u16, FilterKind>,
    waves: HashMap<WaveKey, BTreeMap<NodePos, Packet>>,
    registry: FilterRegistry,
    stats: Arc<OverlayStats>,
    /// A planned drain is underway: exit as soon as `waves` is empty.
    draining: bool,
    /// Suspicion enrollment: beat channel + nominal interval.
    beat: Option<(Sender<NodePos>, Duration)>,
    /// When the next beat is due (meaningful only while enrolled).
    next_beat: Instant,
}

impl CommNode {
    /// Children currently expected to contribute to a wave.
    fn want(&self) -> usize {
        self.children.iter().filter(|c| !self.severed.contains(&c.pos)).count()
    }

    /// Forward a down-message to every reachable (non-severed) child.
    fn forward_down(&self, msg: &Down) {
        for c in &self.children {
            if !self.severed.contains(&c.pos) {
                let _ = c.down.send(msg.clone());
            }
        }
    }

    /// Send `kind` to the parent, stamped with this node's epoch.
    fn send_up(&self, kind: UpKind) {
        // A failed send means the parent died: whatever this was is
        // in-flight loss, and the re-parenting rewire is on its way.
        let _ = self.up_tx.send(Up { from: self.pos, epoch: self.epoch, kind });
    }

    /// Advance to `epoch`, discarding (and counting) waves stranded in
    /// older epochs, then completing any buffered waves that were waiting
    /// for this epoch to become current.
    fn advance_epoch(&mut self, epoch: u64) {
        if epoch <= self.epoch {
            return;
        }
        let stale: Vec<WaveKey> =
            self.waves.keys().copied().filter(|(e, _, _)| *e < epoch).collect();
        for key in stale {
            if let Some(wave) = self.waves.remove(&key) {
                self.stats.add_stale_packets(wave.len() as u64);
                self.stats.add_stale_waves(1);
            }
        }
        self.epoch = epoch;
        let now_current: Vec<WaveKey> =
            self.waves.keys().copied().filter(|(e, _, _)| *e == epoch).collect();
        for key in now_current {
            self.try_complete(key);
        }
    }

    /// Apply one control-mailbox command; `Some(exit)` ends the loop.
    fn apply_cmd(&mut self, cmd: RecoveryCmd) -> Option<Exit> {
        match cmd {
            RecoveryCmd::Reconfigure { epoch, drop, adopt } => {
                self.children.retain(|c| !drop.contains(&c.pos));
                self.children.extend(adopt);
                self.children.sort_by_key(|c| c.pos);
                self.advance_epoch(epoch);
                None
            }
            RecoveryCmd::Rewire { epoch, up } => {
                self.up_tx = up;
                self.advance_epoch(epoch);
                None
            }
            RecoveryCmd::Crash => Some(Exit::Crash),
            RecoveryCmd::Halt => Some(Exit::Silent),
            RecoveryCmd::Drain => {
                // Not an exit yet: the loop keeps sweeping until every
                // in-flight wave has flushed, then exits `Drained`.
                self.draining = true;
                None
            }
            RecoveryCmd::StartBeats { beat, interval } => {
                // Beat immediately (the monitor seeds the node's history
                // from the first arrival) and schedule the next.
                let _ = beat.send(self.pos);
                self.next_beat = Instant::now() + interval;
                self.beat = Some((beat, interval));
                None
            }
            RecoveryCmd::Shutdown => Some(Exit::Shutdown),
        }
    }

    /// Drain the control mailbox in place. Called whenever a packet from a
    /// newer epoch arrives: the repair that bumped the epoch enqueued our
    /// reconfigure *before* that packet could have been sent, so draining
    /// here guarantees child-set updates are applied before any new-epoch
    /// wave is completed.
    fn apply_ctl_backlog(&mut self, ctl_rx: &Receiver<RecoveryCmd>) -> Option<Exit> {
        while let Ok(cmd) = ctl_rx.try_recv() {
            if let Some(exit) = self.apply_cmd(cmd) {
                return Some(exit);
            }
        }
        None
    }

    /// Complete the wave under `key` if its epoch is current and every
    /// expected child contributed: aggregate with the stream filter and
    /// forward one packet up.
    fn try_complete(&mut self, key: WaveKey) {
        let want = self.want();
        let ready = key.0 == self.epoch
            && want > 0
            && self.waves.get(&key).map(|w| w.len() == want).unwrap_or(false);
        if !ready {
            return;
        }
        let wave = self.waves.remove(&key).expect("checked above");
        let inputs: Vec<Vec<u8>> = wave.into_values().map(|p| p.payload.to_vec()).collect();
        let filter = self.streams.get(&key.1).cloned().unwrap_or(FilterKind::Concat);
        let payload = self.registry.apply(&filter, inputs);
        self.send_up(UpKind::Packet(Packet::new(key.1, key.2, payload)));
    }

    /// Close the link to `child` deterministically: the `LinkDown` FIN a
    /// kernel would send for a dead peer, so detection latency never
    /// depends on scheduler timing.
    fn fin(&self, child: &ChildLink) {
        let _ = child.down.send(Down::Ctl(Control::LinkDown));
        self.stats.add_link_down(1);
    }

    /// The one close path, shared by crash and drain: FIN every reachable
    /// child (they keep serving and await adoption), then tell the parent
    /// why with `notice` — `ChildGone` for a death, `Drained` for a planned
    /// teardown the front end repairs outside the failure ledger.
    fn close_links(&self, notice: UpKind) {
        for c in self.children.iter().filter(|c| !self.severed.contains(&c.pos)) {
            self.fin(c);
        }
        self.send_up(notice);
    }

    /// Forward shutdown to every child (severed ones included: teardown
    /// must reach the whole subtree even across injected cuts).
    fn forward_shutdown(&self) {
        for c in &self.children {
            let _ = c.down.send(Down::Ctl(Control::Shutdown));
        }
    }
}

/// Move the next batch `rx` holds into `batch`; `false` when there is
/// nothing to process, with `torn` set if that is because the link
/// disconnected.
fn next_batch<T>(rx: &Receiver<T>, batch: &mut Vec<T>, torn: &mut bool) -> bool {
    match rx.try_drain(batch, usize::MAX) {
        Ok(n) => n > 0,
        Err(_) => {
            *torn = true;
            false
        }
    }
}

impl CommHarness {
    /// Run this communication daemon until shutdown — forward downstream
    /// traffic, aggregate upstream waves with the stream filter — under a
    /// [`CommFault`] schedule ([`CommFault::none`] for a healthy daemon);
    /// a "crash" runs the deterministic close path (`LinkDown` to
    /// children, `ChildGone` to the parent, route-table death mark) and
    /// returns without forwarding shutdown, exactly like a daemon dying
    /// mid-protocol whose sockets the kernel then closes.
    ///
    /// The loop is readiness-driven: one [`SelectWaker`] watches all three
    /// links (control mailbox, downstream, upstream) and the daemon drains
    /// whatever is ready in batches, then blocks on the waker condvar until
    /// the next event. The control mailbox is always drained first — and
    /// re-drained whenever a packet from a newer epoch arrives — so
    /// re-parenting commands are applied before any traffic they ordered.
    pub fn run(self, fault: CommFault) {
        let CommHarness { pos, down_rx, ctl_rx, up_rx, up_tx, children, registry, route, stats } =
            self;
        let mut node = CommNode {
            pos,
            up_tx,
            children,
            severed: HashSet::new(),
            epoch: 0,
            streams: HashMap::from([(CONNECT_STREAM, FilterKind::Concat)]),
            waves: HashMap::new(),
            registry,
            stats,
            draining: false,
            beat: None,
            next_beat: Instant::now(),
        };

        // A severed child is closed at daemon start instead of being left
        // silently half-open. Out-of-range slots name no child and stay
        // inert.
        for &slot in &fault.sever_child_slots {
            if let Some(link) = node.children.get(slot).cloned() {
                node.fin(&link);
                node.severed.insert(link.pos);
            }
        }

        let mut up_seen = 0u64;
        let mut down_seen = 0u64;
        let mut ctl_batch: Vec<RecoveryCmd> = Vec::new();
        let mut down_batch: Vec<Down> = Vec::new();
        let mut up_batch: Vec<Up> = Vec::new();

        let waker = SelectWaker::new();
        ctl_rx.watch(&waker);
        down_rx.watch(&waker);
        up_rx.watch(&waker);

        let exit = 'outer: loop {
            // Epoch is read before the drain sweep: anything arriving during
            // or after the sweep advances it, so the wait below cannot miss
            // it.
            let wepoch = waker.epoch();
            let mut torn = false;

            // 1. Control mailbox: repairs and out-of-band shutdown first.
            while next_batch(&ctl_rx, &mut ctl_batch, &mut torn) {
                for cmd in ctl_batch.drain(..) {
                    if let Some(exit) = node.apply_cmd(cmd) {
                        break 'outer exit;
                    }
                }
            }

            // 2. Downstream: forward control and data to reachable children.
            while next_batch(&down_rx, &mut down_batch, &mut torn) {
                for msg in down_batch.drain(..) {
                    down_seen += 1;
                    if fault.crash_after_down.is_some_and(|n| down_seen > n) {
                        break 'outer Exit::Crash;
                    }
                    match msg {
                        Down::Ctl(Control::OpenStream { stream, filter }) => {
                            node.streams.insert(stream, filter.clone());
                            node.forward_down(&Down::Ctl(Control::OpenStream { stream, filter }));
                        }
                        Down::Ctl(Control::Shutdown) => break 'outer Exit::Shutdown,
                        Down::Ctl(Control::Ping { seq }) => {
                            node.send_up(UpKind::Pong { pos: node.pos, seq });
                            node.forward_down(&Down::Ctl(Control::Ping { seq }));
                        }
                        Down::Ctl(Control::LinkDown) => {
                            // The parent's FIN. Informational for a comm
                            // node: it keeps serving its subtree and the
                            // re-parenting rewire arrives over the ctl
                            // mailbox.
                        }
                        Down::Data { epoch, pkt } => {
                            if epoch > node.epoch {
                                // The repair that minted this epoch enqueued
                                // our reconfigure before this packet: apply
                                // it before forwarding.
                                if let Some(exit) = node.apply_ctl_backlog(&ctl_rx) {
                                    break 'outer exit;
                                }
                                node.advance_epoch(epoch);
                            }
                            node.forward_down(&Down::Data { epoch, pkt });
                        }
                    }
                }
            }

            // 3. Upstream: collect waves, aggregate completed ones.
            while next_batch(&up_rx, &mut up_batch, &mut torn) {
                for up in up_batch.drain(..) {
                    // Only data packets advance the crash counter: liveness
                    // traffic (pongs, child-gone notices) is timing-
                    // dependent, and counting it would make the documented
                    // "crash after N up-packets" point seed-unstable
                    // whenever heartbeats run.
                    if matches!(up.kind, UpKind::Packet(_)) {
                        up_seen += 1;
                        if fault.crash_after_up.is_some_and(|n| up_seen > n) {
                            break 'outer Exit::Crash;
                        }
                    }
                    if node.severed.contains(&up.from) {
                        node.stats.add_severed_discarded(1);
                        continue;
                    }
                    let pkt = match up.kind {
                        UpKind::Packet(pkt) => pkt,
                        // Liveness traffic is epoch-free: forward as-is.
                        notice => {
                            node.send_up(notice);
                            continue;
                        }
                    };
                    if up.epoch > node.epoch {
                        // An adopted orphan can only be ahead of us if a
                        // repair reconfigured us first: apply it.
                        if let Some(exit) = node.apply_ctl_backlog(&ctl_rx) {
                            break 'outer exit;
                        }
                    }
                    if up.epoch < node.epoch || !node.children.iter().any(|c| c.pos == up.from) {
                        node.stats.add_stale_packets(1);
                        continue;
                    }
                    let key = (up.epoch, pkt.stream, pkt.tag);
                    node.waves.entry(key).or_default().insert(up.from, pkt);
                    // Waves buffered under a still-future epoch wait for
                    // advance_epoch to complete them.
                    node.try_complete(key);
                }
            }

            // A planned drain is done the moment no wave is mid-flight:
            // every contribution this daemon was holding has been
            // aggregated and forwarded (new waves cannot start — the front
            // end is blocked in its drain and sends nothing down).
            if node.draining && node.waves.is_empty() {
                break Exit::Drained;
            }

            // A disconnected link means the overlay itself is being dropped.
            if torn {
                break Exit::Torn;
            }

            // Suspicion beat, when enrolled and due.
            if let Some((beat, interval)) = &node.beat {
                let now = Instant::now();
                if now >= node.next_beat {
                    let _ = beat.send(node.pos);
                    node.next_beat = now + *interval;
                }
            }

            // Idle: block until any link signals readiness — capped at the
            // next beat deadline while enrolled in suspicion, so silence on
            // every link cannot silence the daemon itself.
            match &node.beat {
                Some(_) => {
                    let until = node.next_beat.saturating_duration_since(Instant::now());
                    waker.wait_timeout(wepoch, until.max(Duration::from_millis(1)));
                }
                None => waker.wait(wepoch),
            }
        };

        match exit {
            Exit::Crash => {
                node.close_links(UpKind::ChildGone { pos });
                route.mark_dead(pos);
            }
            Exit::Drained => node.close_links(UpKind::Drained { pos }),
            Exit::Shutdown => node.forward_shutdown(),
            Exit::Silent | Exit::Torn => {}
        }
    }
}
