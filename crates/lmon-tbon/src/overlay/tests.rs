use std::time::Duration;

use super::*;
use crate::error::TbonError;
use crate::filter::FilterKind;
use crate::packet::{Packet, UpKind};
use crate::recovery::RecoveryEvent;
use crate::suspicion::PhiAccrualParams;

/// Build `spec` and run it in thread mode with `leaf_fn` on every leaf.
fn run_overlay(
    spec: &str,
    registry: FilterRegistry,
    leaf_fn: impl Fn(LeafEndpoint) + Send + Sync + 'static,
) -> RunningOverlay {
    run_overlay_with_faults(spec, registry, Vec::new(), leaf_fn)
}

/// Like [`run_overlay`] but with per-comm-daemon fault schedules
/// (indexed by position in `Overlay::comm`).
fn run_overlay_with_faults(
    spec: &str,
    registry: FilterRegistry,
    faults: Vec<(usize, CommFault)>,
    leaf_fn: impl Fn(LeafEndpoint) + Send + Sync + 'static,
) -> RunningOverlay {
    let spec = TopologySpec::parse(spec).unwrap();
    Overlay::build(&spec, registry).run(|i| CommFault::at(&faults, i), leaf_fn)
}

/// One echo wave on (stream, tag) must be answered by exactly leaves
/// `0..leaves`.
fn assert_echo_wave(front: &mut FrontEndpoint, stream: u16, tag: u16, leaves: u8, why: &str) {
    front.broadcast(stream, tag, vec![]).unwrap();
    let mut got = front.gather(stream, tag, Duration::from_secs(5)).unwrap().payload.to_vec();
    got.sort_unstable();
    assert_eq!(got, (0..leaves).collect::<Vec<u8>>(), "{why}");
}

fn pos(level: u32, index: u32) -> NodePos {
    NodePos { level, index }
}

#[test]
fn hellos_flow_up_one_deep() {
    let mut net = run_overlay("1x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    let ids = net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    assert_eq!(ids, (0..8).collect::<Vec<u32>>());
    net.shutdown().unwrap();
}

#[test]
fn hellos_aggregate_through_comm_level() {
    let mut net = run_overlay("1x4x16", FilterRegistry::new(), LeafEndpoint::serve_echo);
    assert_eq!(net.front.fanout(), 4, "front sees only its comm children");
    let ids = net.front.await_connections(16, Duration::from_secs(5)).unwrap();
    assert_eq!(ids.len(), 16);
    net.shutdown().unwrap();
}

#[test]
fn broadcast_reaches_all_leaves_and_sum_aggregates() {
    // Every leaf answers the work packet with leaf_index+1.
    let mut net = run_overlay("1x2x6", FilterRegistry::new(), |leaf| {
        leaf.serve(|| |_: &Packet| (leaf.leaf_index as u64 + 1).to_be_bytes().to_vec())
    });
    let stream = net.front.open_stream(FilterKind::SumU64).unwrap();
    net.front.broadcast(stream, 7, b"work".to_vec()).unwrap();
    let result = net.front.gather(stream, 7, Duration::from_secs(5)).unwrap();
    // sum of 1..=6 = 21
    assert_eq!(result.payload, 21u64.to_be_bytes());
    net.shutdown().unwrap();
}

#[test]
fn concat_collects_leaf_payloads_in_order() {
    let mut net = run_overlay("1x3", FilterRegistry::new(), LeafEndpoint::serve_echo);
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 0, vec![]).unwrap();
    let result = net.front.gather(stream, 0, Duration::from_secs(5)).unwrap();
    assert_eq!(result.payload, vec![0, 1, 2]);
    net.shutdown().unwrap();
}

#[test]
fn custom_filter_applies_at_every_level() {
    // Count contributions: each internal node emits [sum of child
    // counts]; leaves emit [1]. With 1x2x4, the root should see 4.
    let mut registry = FilterRegistry::new();
    registry.register(
        1,
        Arc::new(|inputs| {
            let total: u64 = inputs
                .iter()
                .map(|i| {
                    let mut buf = [0u8; 8];
                    buf[8 - i.len().min(8)..].copy_from_slice(&i[..i.len().min(8)]);
                    u64::from_be_bytes(buf)
                })
                .sum();
            total.to_be_bytes().to_vec()
        }),
    );
    let mut net = run_overlay("1x2x4", registry, |leaf| {
        leaf.serve(|| |_: &Packet| 1u64.to_be_bytes().to_vec())
    });
    let stream = net.front.open_stream(FilterKind::Custom(1)).unwrap();
    net.front.broadcast(stream, 0, vec![]).unwrap();
    let result = net.front.gather(stream, 0, Duration::from_secs(5)).unwrap();
    assert_eq!(result.payload, 4u64.to_be_bytes());
    net.shutdown().unwrap();
}

#[test]
fn multiple_waves_interleave_by_tag() {
    let mut net = run_overlay("1x4", FilterRegistry::new(), |leaf| {
        // Answer two waves, deliberately answering wave 2 first for
        // even leaves to exercise wave bookkeeping.
        let mut packets = Vec::new();
        loop {
            match leaf.recv().unwrap() {
                Some(pkt) => {
                    packets.push(pkt);
                    if packets.len() == 2 {
                        break;
                    }
                }
                None => return,
            }
        }
        if leaf.leaf_index % 2 == 0 {
            packets.reverse();
        }
        for pkt in packets {
            leaf.send_up(pkt.stream, pkt.tag, vec![leaf.leaf_index as u8]).unwrap();
        }
        while leaf.recv().unwrap().is_some() {}
    });
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 1, vec![]).unwrap();
    net.front.broadcast(stream, 2, vec![]).unwrap();
    let w2 = net.front.gather(stream, 2, Duration::from_secs(5)).unwrap();
    let w1 = net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();
    assert_eq!(w1.payload, vec![0, 1, 2, 3]);
    assert_eq!(w2.payload, vec![0, 1, 2, 3]);
    net.shutdown().unwrap();
}

#[test]
fn gather_times_out_when_a_leaf_is_silent() {
    let mut net = run_overlay("1x3", FilterRegistry::new(), |leaf| loop {
        match leaf.recv().unwrap() {
            Some(pkt) => {
                if leaf.leaf_index != 2 {
                    leaf.send_up(pkt.stream, pkt.tag, vec![1]).unwrap();
                }
            }
            None => return,
        }
    });
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 0, vec![]).unwrap();
    let err = net.front.gather(stream, 0, Duration::from_millis(100)).unwrap_err();
    assert_eq!(err, TbonError::Timeout);
    net.shutdown().unwrap();
}

#[test]
fn comm_crash_mid_aggregation_times_out_upstream() {
    // 1x2x8: each comm daemon aggregates 4 leaf hellos. Comm 0 crashes
    // after its first up-packet — its wave never completes, so the
    // front-end gather for the connect stream must time out rather
    // than deliver a partial aggregate.
    let mut net = run_overlay_with_faults(
        "1x2x8",
        FilterRegistry::new(),
        vec![(0, CommFault::none().crash_after_up(1))],
        LeafEndpoint::serve_echo,
    );
    let err = net.front.await_connections(8, Duration::from_millis(200)).unwrap_err();
    assert_eq!(err, TbonError::Timeout);
    net.shutdown().unwrap();
}

#[test]
fn severed_child_link_surfaces_as_missing_leaves() {
    // Severing one leaf link partitions that subtree away: waves still
    // complete (the daemon no longer waits for the severed child), but
    // the front end sees fewer hellos than leaves — a clean, attributable
    // error rather than a hang.
    let mut net = run_overlay_with_faults(
        "1x2x8",
        FilterRegistry::new(),
        vec![(1, CommFault::none().sever_child(2))],
        LeafEndpoint::serve_echo,
    );
    let err = net.front.await_connections(8, Duration::from_secs(5)).unwrap_err();
    match err {
        TbonError::LaunchFailed(msg) => {
            assert!(msg.contains("expected 8 leaf hellos, got 7"), "{msg}")
        }
        other => panic!("expected LaunchFailed, got {other:?}"),
    }
    net.shutdown().unwrap();
}

#[test]
fn comm_crash_on_downstream_traffic_kills_broadcast_path() {
    // Comm 0 dies as soon as the second down-message arrives: the
    // connect wave still aggregates, but the broadcast after it never
    // reaches comm 0's leaves, so the gather times out.
    let mut net = run_overlay_with_faults(
        "1x2x6",
        FilterRegistry::new(),
        vec![(0, CommFault::none().crash_after_down(1))],
        LeafEndpoint::serve_echo,
    );
    net.front.await_connections(6, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 0, vec![]).unwrap();
    let err = net.front.gather(stream, 0, Duration::from_millis(200)).unwrap_err();
    assert_eq!(err, TbonError::Timeout);
    net.shutdown().unwrap();
}

#[test]
fn severing_an_out_of_range_slot_is_inert() {
    // Slot 99 names no child: the daemon must still wait for all of
    // its real children rather than aggregate a partial wave.
    let mut net = run_overlay_with_faults(
        "1x2x8",
        FilterRegistry::new(),
        vec![(0, CommFault::none().sever_child(99))],
        LeafEndpoint::serve_echo,
    );
    let ids = net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    assert_eq!(ids.len(), 8);
    net.shutdown().unwrap();
}

#[test]
fn fault_free_schedule_is_inert() {
    assert!(CommFault::none().is_none());
    assert!(!CommFault::none().crash_after_up(3).is_none());
    assert!(!CommFault::none().sever_child(0).is_none());
}

#[test]
fn unknown_stream_rejected() {
    let spec = TopologySpec::parse("1x2").unwrap();
    let mut overlay = Overlay::build(&spec, FilterRegistry::new());
    assert!(matches!(overlay.front.broadcast(99, 0, vec![]), Err(TbonError::NoSuchStream(99))));
    assert!(matches!(
        overlay.front.gather(99, 0, Duration::from_millis(1)),
        Err(TbonError::NoSuchStream(99))
    ));
}

// -- recovery -----------------------------------------------------------

#[test]
fn dead_comm_heals_via_grandparent_adoption() {
    let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();

    // Healthy wave first.
    net.front.broadcast(stream, 1, vec![]).unwrap();
    let healthy = net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();
    assert_eq!(healthy.payload.len(), 8);

    // Kill comm 0, detect, repair.
    let dead = pos(1, 0);
    net.front.crash_comm(dead).unwrap();
    assert_eq!(net.front.wait_failure(Duration::from_secs(5)), Some(dead));
    let report = net.front.repair(dead).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.grandparent, pos(0, 0));
    assert_eq!(report.adoptions.len(), 4, "all four orphan leaves re-parented");
    assert!(
        report.adoptions.iter().all(|(_, a)| *a == pos(1, 1)),
        "the surviving sibling (under its fan-out bound) adopts all: {:?}",
        report.adoptions
    );

    // Post-heal wave completes end-to-end with every leaf.
    assert_echo_wave(&mut net.front, stream, 2, 8, "broadcast reaches adopted orphans");
    assert_eq!(net.front.overlay_epoch(), 1);

    // Event log: degraded -> adoptions -> healed.
    let events = net.front.take_recovery_events();
    assert!(
        matches!(events.first(), Some(RecoveryEvent::Degraded { dead: d, orphans: 4, .. }) if *d == dead),
        "{events:?}"
    );
    assert!(
        matches!(events.last(), Some(RecoveryEvent::Healed { repaired, epoch: 1 }) if *repaired == dead),
        "{events:?}"
    );
    assert_eq!(net.front.stats().repairs_completed, 1);
    assert_eq!(net.front.stats().orphans_adopted, 4);

    net.shutdown().unwrap();
}

#[test]
fn stale_epoch_packet_is_counted_and_dropped_during_reparenting() {
    // An up-packet stamped with a pre-repair epoch must be counted in
    // overlay stats and dropped — never delivered into a wave and never
    // a panic — including the race where it arrives mid-re-parenting.
    let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();

    let dead = pos(1, 0);
    net.front.crash_comm(dead).unwrap();
    net.front.wait_failure(Duration::from_secs(5)).unwrap();

    let root_up = {
        let route = net.front.route_table();
        let rt = route.lock();
        rt.nodes[&pos(0, 0)].up.clone().unwrap()
    };
    // "In flight" from the dying daemon: enqueued before the repair,
    // processed after the epoch bump.
    root_up
        .send(Up { from: dead, epoch: 0, kind: UpKind::Packet(Packet::new(stream, 7, vec![0xEE])) })
        .unwrap();
    net.front.repair(dead).unwrap();
    // The re-parenting race: an old-epoch packet from a surviving
    // child landing after the bump.
    root_up
        .send(Up {
            from: pos(1, 1),
            epoch: 0,
            kind: UpKind::Packet(Packet::new(stream, 7, vec![0xDD])),
        })
        .unwrap();

    // A fresh wave on the same (stream, tag) must contain only
    // post-heal data.
    assert_echo_wave(&mut net.front, stream, 7, 8, "no stale bytes delivered");
    assert!(
        net.front.stats().stale_packets_dropped >= 2,
        "both stale packets counted: {:?}",
        net.front.stats()
    );

    net.shutdown().unwrap();
}

#[test]
fn heartbeat_reports_severed_subtree_unresponsive() {
    // Severing comm 1's child slot 2 cuts leaf (2,6) away. Its daemon
    // still runs, but its pongs die at the cut — the heartbeat sweep
    // must attribute exactly that node.
    let mut net = run_overlay_with_faults(
        "1x2x8",
        FilterRegistry::new(),
        vec![(1, CommFault::none().sever_child(2))],
        LeafEndpoint::serve_echo,
    );
    let err = net.front.await_connections(8, Duration::from_secs(5)).unwrap_err();
    assert!(matches!(err, TbonError::LaunchFailed(_)));
    let missing = net.front.heartbeat(Duration::from_secs(2));
    assert_eq!(missing, vec![pos(2, 6)], "only the severed leaf is unreachable");
    assert!(net.front.stats().pongs_received >= 9, "everyone else answered");
    net.shutdown().unwrap();
}

#[test]
fn crash_fault_path_closes_links_deterministically() {
    // The crash fault path must close every link explicitly: LinkDown
    // to each child, ChildGone to the parent, a route-table death mark
    // — so detection needs no timing assumptions at all.
    let mut net = run_overlay_with_faults(
        "1x2x8",
        FilterRegistry::new(),
        vec![(0, CommFault::none().crash_after_up(1))],
        LeafEndpoint::serve_echo,
    );
    let dead = net.front.wait_failure(Duration::from_secs(5));
    assert_eq!(dead, Some(pos(1, 0)));
    assert!(!net.front.route_table().is_alive(pos(1, 0)));
    assert_eq!(net.front.stats().link_down_notices, 4, "each of comm 0's children got a FIN");
    net.shutdown().unwrap();
}

#[test]
fn liveness_traffic_does_not_advance_crash_counters() {
    // Comm 0 crashes after 5 up-packets. The 4 hellos are packets 1–4;
    // a full heartbeat sweep (4 pongs forwarded through comm 0) must
    // NOT advance the counter — only the broadcast wave's replies do,
    // so the crash lands at a protocol point, not a timing point.
    let mut net = run_overlay_with_faults(
        "1x2x8",
        FilterRegistry::new(),
        vec![(0, CommFault::none().crash_after_up(5))],
        LeafEndpoint::serve_echo,
    );
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let missing = net.front.heartbeat(Duration::from_secs(2));
    assert!(missing.is_empty(), "pongs must not crash the daemon: {missing:?}");
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 1, vec![]).unwrap();
    let err = net.front.gather(stream, 1, Duration::from_millis(300)).unwrap_err();
    assert_eq!(err, TbonError::Timeout, "crash on reply packet 6 stalls the wave");
    assert_eq!(net.front.poll_failures(), vec![pos(1, 0)], "crash detected deterministically");
    net.shutdown().unwrap();
}

#[test]
fn shutdown_joins_every_thread_after_a_crash_and_after_a_halt() {
    // A crashed or halted comm daemon forwards no shutdown to its
    // subtree: `shutdown` must still reach those leaves (out of band)
    // and return only once every thread — the dead daemon's included —
    // has been joined.
    use std::sync::atomic::{AtomicUsize, Ordering};
    for halt in [false, true] {
        let exited = Arc::new(AtomicUsize::new(0));
        let counter = exited.clone();
        let faults = if halt { Vec::new() } else { vec![(0, CommFault::none().crash_after_up(1))] };
        let mut net =
            run_overlay_with_faults("1x2x8", FilterRegistry::new(), faults, move |leaf| {
                leaf.serve_echo();
                counter.fetch_add(1, Ordering::SeqCst);
            });
        if halt {
            net.front.await_connections(8, Duration::from_secs(5)).unwrap();
            net.front.halt_comm(pos(1, 0)).unwrap();
        } else {
            assert_eq!(net.front.wait_failure(Duration::from_secs(5)), Some(pos(1, 0)));
        }
        net.shutdown().unwrap();
        assert_eq!(exited.load(Ordering::SeqCst), 8, "halt={halt}: a leaf outlived shutdown");
    }
}

#[test]
fn dropping_the_front_end_tears_the_overlay_down() {
    // No explicit shutdown: dropping the front endpoint must still
    // stop every daemon thread (the route table keeps link senders
    // alive, so disconnect cascades alone cannot do it anymore).
    let RunningOverlay { front, handles } =
        run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    drop(front);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn repair_rejects_root_and_unknown_nodes() {
    let spec = TopologySpec::parse("1x2x4").unwrap();
    let mut overlay = Overlay::build(&spec, FilterRegistry::new());
    assert!(matches!(overlay.front.repair(pos(0, 0)), Err(TbonError::UnknownNode(_))));
    assert!(matches!(overlay.front.repair(pos(5, 9)), Err(TbonError::UnknownNode(_))));
    assert!(matches!(overlay.front.crash_comm(pos(5, 9)), Err(TbonError::UnknownNode(_))));
    // The kill switch targets comm daemons only: the root and leaves
    // must be rejected, not silently ignored.
    assert!(matches!(overlay.front.crash_comm(pos(0, 0)), Err(TbonError::UnknownNode(_))));
    assert!(matches!(overlay.front.crash_comm(pos(2, 1)), Err(TbonError::UnknownNode(_))));
}

#[test]
fn chained_deaths_repair_child_first_without_panic() {
    // 1x2x4x8: comm (1,0) and its child (2,0) both die. Repairing the
    // *child* first (the adversarial order — heal_failures sorts
    // parent-first, but repair() is public) must not panic, must not
    // re-adopt the already-repaired child, and the overlay must still
    // heal end to end.
    let mut net = run_overlay("1x2x4x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();

    net.front.crash_comm(pos(2, 0)).unwrap();
    assert_eq!(net.front.wait_failure(Duration::from_secs(5)), Some(pos(2, 0)));
    net.front.crash_comm(pos(1, 0)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while net.front.poll_failures().len() < 2 {
        assert!(std::time::Instant::now() < deadline, "second death never detected");
        std::thread::sleep(Duration::from_millis(1));
    }

    let child_repair = net.front.repair(pos(2, 0)).unwrap();
    assert_eq!(child_repair.grandparent, pos(0, 0), "walks past the dead parent");
    let parent_repair = net.front.repair(pos(1, 0)).unwrap();
    assert!(
        parent_repair.adoptions.iter().all(|(o, _)| *o != pos(2, 0)),
        "the already-repaired child must not be re-adopted: {:?}",
        parent_repair.adoptions
    );

    assert_echo_wave(&mut net.front, stream, 2, 8, "both subtrees healed");
    assert_eq!(net.front.overlay_epoch(), 2);
    net.shutdown().unwrap();
}

#[test]
fn heal_failures_detects_and_repairs_in_one_call() {
    let mut net = run_overlay("1x4x16", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(16, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();

    net.front.crash_comm(pos(1, 2)).unwrap();
    net.front.wait_failure(Duration::from_secs(5)).unwrap();
    let reports = net.front.heal_failures().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].dead, pos(1, 2));

    assert_echo_wave(&mut net.front, stream, 3, 16, "every leaf answers");
    net.shutdown().unwrap();
}

// -- planned maintenance (DESIGN.md §12) --------------------------------

#[test]
fn drain_flushes_in_flight_waves_before_detaching() {
    // Drive comm (1,0) by hand: three of its four leaf contributions
    // arrive, then the drain request, then the fourth. The daemon must
    // hold the drain until the wave completes, flush the aggregate, and
    // only then confirm `Drained` — strictly in that order on the
    // parent link.
    let spec = TopologySpec::parse("1x2x8").unwrap();
    let mut overlay = Overlay::build(&spec, FilterRegistry::new());
    let idx = overlay.comm.iter().position(|c| c.pos == pos(1, 0)).unwrap();
    let harness = overlay.comm.remove(idx);
    let front = overlay.front;
    let (c0_up, c0_ctl) = {
        let route = front.route_table();
        let rt = route.lock();
        let n = &rt.nodes[&pos(1, 0)];
        (n.up.clone().unwrap(), n.ctl.clone().unwrap())
    };
    let join = std::thread::spawn(move || harness.run(CommFault::none()));

    for i in 0..3u32 {
        c0_up
            .send(Up {
                from: pos(2, i),
                epoch: 0,
                kind: UpKind::Packet(Packet::new(5, 1, vec![i as u8])),
            })
            .unwrap();
    }
    c0_ctl.send(RecoveryCmd::Drain).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert!(front.up_rx.try_recv().is_err(), "must not confirm with a wave in flight");

    c0_up
        .send(Up { from: pos(2, 3), epoch: 0, kind: UpKind::Packet(Packet::new(5, 1, vec![3])) })
        .unwrap();
    let first = front.up_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    match first.kind {
        UpKind::Packet(p) => {
            assert_eq!(p.payload, vec![0, 1, 2, 3], "the flush carries the full aggregate")
        }
        other => panic!("expected the flushed wave first, got {other:?}"),
    }
    let second = front.up_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(
        matches!(second.kind, UpKind::Drained { pos: p } if p == pos(1, 0)),
        "drain confirmed only after the flush"
    );
    join.join().unwrap();
}

#[test]
fn drain_comm_removes_a_daemon_without_entering_the_failure_path() {
    let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 1, vec![]).unwrap();
    net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();

    let report = net.front.maintenance().drain(pos(1, 0), Duration::from_secs(5)).unwrap();
    assert_eq!(report.epoch, 1);
    assert!(report.spares_used.is_empty(), "no pool in this spec");
    assert!(report.adoptions.iter().all(|(_, a)| *a == pos(1, 1)), "{:?}", report.adoptions);

    // Planned removal: a drain, never a death.
    let stats = net.front.stats();
    assert_eq!(stats.drains_completed, 1);
    assert_eq!(stats.deaths_detected, 0, "a drain must not read as a failure");
    let events = net.front.take_recovery_events();
    assert!(
        matches!(events.first(), Some(RecoveryEvent::Draining { node, epoch: 0 }) if *node == pos(1, 0)),
        "{events:?}"
    );
    assert!(!events.iter().any(|e| matches!(e, RecoveryEvent::Degraded { .. })), "{events:?}");

    assert_echo_wave(&mut net.front, stream, 2, 8, "no session interruption");
    net.shutdown().unwrap();
}

#[test]
fn a_timed_out_drain_ends_in_an_ordinary_repair() {
    // Leaf 0 holds its wave-1 answer, so comm (1,0) cannot flush and the
    // drain times out. Released, the comm flushes and exits all the same:
    // its late `Drained` must read as a death the repair path heals, not
    // leave a dead daemon routed with nothing watching for it.
    let (release_tx, release_rx) = crossbeam_channel::unbounded::<()>();
    let (sent_tx, sent_rx) = crossbeam_channel::unbounded::<()>();
    let mut net = run_overlay("1x2x4", FilterRegistry::new(), move |leaf| {
        let idx = leaf.leaf_index;
        leaf.send_up(CONNECT_STREAM, 0, idx.to_be_bytes().to_vec()).unwrap();
        while let Ok(Some(pkt)) = leaf.recv() {
            if (idx, pkt.tag) == (0, 1) {
                let _ = release_rx.recv();
            }
            let _ = leaf.send_up(pkt.stream, pkt.tag, vec![idx as u8]);
            if (idx, pkt.tag) == (1, 1) {
                let _ = sent_tx.send(());
            }
        }
    });
    net.front.await_connections(4, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 1, vec![]).unwrap();
    // Leaf 1's answer is on its way to (1,0): the drain finds a wave held.
    sent_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let err = net.front.maintenance().drain(pos(1, 0), Duration::from_millis(100)).unwrap_err();
    assert_eq!(err, TbonError::Timeout);

    release_tx.send(()).unwrap();
    assert_eq!(net.front.wait_failure(Duration::from_millis(500)), Some(pos(1, 0)));
    assert_eq!(net.front.heal_failures().unwrap().len(), 1);
    assert!(net.front.heartbeat(Duration::from_secs(2)).is_empty(), "the subtree is whole");
    assert_echo_wave(&mut net.front, stream, 2, 4, "every leaf answers after the heal");
    net.shutdown().unwrap();
}

#[test]
fn heartbeat_double_attribution_is_deduped_per_epoch() {
    let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();

    net.front.crash_comm(pos(1, 0)).unwrap();
    net.front.wait_failure(Duration::from_secs(5)).unwrap();
    // First sweep attributes the severed subtree...
    let first = net.front.heartbeat(Duration::from_millis(300));
    assert_eq!(first, (0..4).map(|i| pos(2, i)).collect::<Vec<_>>());
    // ...and a second sweep straddling the same crash must not report
    // it again — the repair below is planned exactly once.
    let second = net.front.heartbeat(Duration::from_millis(300));
    assert!(second.is_empty(), "double attribution: {second:?}");

    net.front.repair(pos(1, 0)).unwrap();
    // Post-repair (new epoch) the attribution re-arms: everyone
    // answers now, and a *new* failure is reported afresh.
    assert!(net.front.heartbeat(Duration::from_secs(2)).is_empty());
    net.front.crash_comm(pos(1, 1)).unwrap();
    net.front.wait_failure(Duration::from_secs(5)).unwrap();
    let third = net.front.heartbeat(Duration::from_millis(300));
    assert_eq!(third.len(), 8, "all 8 leaves behind the new crash: {third:?}");
    net.shutdown().unwrap();
}

#[test]
fn spare_takes_over_a_crashed_comm_at_designed_fanout() {
    let mut net = run_overlay("1x2x8+1", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    assert_eq!(net.front.stats().spares_registered, 1);

    net.front.crash_comm(pos(1, 0)).unwrap();
    net.front.wait_failure(Duration::from_secs(5)).unwrap();
    let report = net.front.repair(pos(1, 0)).unwrap();
    assert_eq!(report.spares_used, vec![pos(1, 2)], "the idle spare takes the subtree");
    assert!(
        report.adoptions.iter().all(|(_, a)| *a == pos(1, 2)),
        "the sibling stays at its designed fan-out: {:?}",
        report.adoptions
    );
    assert!(net.front.route_table().idle_spares().is_empty());
    assert_eq!(net.front.stats().spares_activated, 1);

    assert_echo_wave(&mut net.front, stream, 1, 8, "the replacement serves its subtree");
    net.shutdown().unwrap();
}

#[test]
fn suspicion_catches_a_silent_halt_and_feeds_repair() {
    let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    let table = net.front.maintenance().start_suspicion(PhiAccrualParams {
        beat_interval: Duration::from_millis(5),
        window: 16,
        suspect_phi: 1.0,
        dead_phi: 3.0,
        min_stddev: Duration::from_millis(2),
    });
    // Let some beat history accrue, then kill -9: no FIN, no notice,
    // no route-table mark — only the beats stop.
    std::thread::sleep(Duration::from_millis(100));
    net.front.halt_comm(pos(1, 0)).unwrap();

    // The sweep writes the row, then the route mark, then the counter:
    // wait on the last of the three.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while net.front.stats().suspicion_deaths == 0 {
        assert!(std::time::Instant::now() < deadline, "suspicion never declared the halt");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(!net.front.route_table().is_alive(pos(1, 0)));
    assert_eq!(table.level(pos(1, 0)), Some(crate::suspicion::SuspicionLevel::Dead));
    assert!(net.front.stats().beats_received > 0);

    // The suspicion death feeds the exact same repair path.
    net.front.heal_failures().unwrap();
    assert_echo_wave(&mut net.front, stream, 1, 8, "the silent death healed end to end");
    net.shutdown().unwrap();
}

#[test]
fn rolling_upgrade_swaps_every_comm_for_a_spare_with_zero_wave_loss() {
    let mut net = run_overlay("1x2x8+2", FilterRegistry::new(), LeafEndpoint::serve_echo);
    net.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = net.front.open_stream(FilterKind::Concat).unwrap();
    net.front.broadcast(stream, 1, vec![]).unwrap();
    net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();

    let report = net.front.maintenance().rolling_upgrade(Duration::from_secs(5)).unwrap();
    assert_eq!(report.steps.len(), 2, "both designed comm daemons walked: {report:?}");
    assert_eq!(report.unplanned_repairs, 0);
    let spares: Vec<_> = report.steps.iter().map(|s| s.spare_used).collect();
    assert_eq!(spares, vec![Some(pos(1, 2)), Some(pos(1, 3))], "one spare per step");
    assert_eq!(report.epoch, 2);

    let stats = net.front.stats();
    assert_eq!(stats.upgrades_completed, 2);
    assert_eq!(stats.drains_completed, 2);
    assert_eq!(stats.spares_activated, 2);
    assert_eq!(stats.deaths_detected, 0, "a planned upgrade is never a failure");

    assert_echo_wave(&mut net.front, stream, 2, 8, "zero session interruption");
    net.shutdown().unwrap();
}
