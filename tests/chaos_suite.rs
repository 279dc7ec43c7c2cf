//! The chaos scenario suite: named failure schedules against every layer.
//!
//! Each scenario injects a deterministic fault — sim-kernel kills/hangs,
//! cluster-transport spawn failures, LMONP frame loss/delay, TBON comm
//! crashes and partitions — and asserts two things:
//!
//! 1. the **error surface**: the failure is *reported* (a timeout in a
//!    known phase, a typed error, a shortfall count), never a hang or a
//!    silently wrong result;
//! 2. **replay equality**: rerunning the same scenario under the same seed
//!    reproduces the event trace bit-for-bit
//!    ([`launchmon::testkit::assert_identical_runs`] writes both dumps to
//!    `target/chaos-artifacts/` when that breaks, and the `chaos` CI job
//!    uploads them).
//!
//! The base seed comes from `$LMON_CHAOS_SEED` (default 42); CI runs the
//! whole suite under four seeds.

use std::sync::Arc;
use std::time::Duration;

use launchmon::cluster::config::ClusterConfig;
use launchmon::cluster::remote::{rsh_spawn, RshError};
use launchmon::cluster::{ProcSpec, VirtualCluster};
use launchmon::core::be::BeMain;
use launchmon::core::fe::LmonFrontEnd;
use launchmon::daemon::control::parse_reply_header;
use launchmon::daemon::{Daemon, DaemonConfig, LaunchResponse, Reply, Request};
use launchmon::proto::header::MsgType;
use launchmon::proto::msg::LmonpMsg;
use launchmon::proto::payload::DaemonSpec;
use launchmon::proto::transport::{LocalChannel, MsgChannel};
use launchmon::proto::FaultyChannel;
use launchmon::rm::api::ResourceManager;
use launchmon::rm::SlurmRm;
use launchmon::sim::SimDuration;
use launchmon::tbon::bootstrap::{bootstrap_adhoc, LeafMain};
use launchmon::tbon::filter::{FilterKind, FilterRegistry};
use launchmon::tbon::spec::NodePos;
use launchmon::tbon::{FrontEndpoint, PhiAccrualParams, RecoveryEvent, TbonError, TopologySpec};
use launchmon::testkit::{assert_identical_runs, chaos_seed, FaultPlan, LiveOverlay, Scenario};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// The standard leaf body: hello, then serve until shutdown/disconnect.
fn hello_leaf() -> LeafMain {
    Arc::new(|leaf, _ctx| leaf.serve_echo())
}

// ---------------------------------------------------------------------------
// Sim-kernel scenarios (Scenario DSL over the FE→MW→BE launch model)
// ---------------------------------------------------------------------------

#[test]
fn chaos_kill_be_mid_launch_times_out_in_hello_phase() {
    let build = || {
        Scenario::new("1x8x64")
            .seed(chaos_seed())
            .timeout(ms(500))
            .kill_be_at(17, SimDuration::ZERO)
            .run()
    };
    let r = build();
    assert!(!r.completed && r.timed_out, "{}", r.dump());
    assert_eq!(r.counter("timeout_in_hello"), 1);
    assert!(r.counter("fault.dropped") > 0, "the victim's deliveries must be dropped");
    assert_identical_runs("kill_be_mid_launch", &r, &build());
}

#[test]
fn chaos_kill_be_mid_rpdtab_distribution_times_out_in_distribute_phase() {
    // Let the hello wave complete, then kill a BE while the RPDTAB is being
    // distributed: the ready wave can never aggregate.
    let build = || {
        let sc = Scenario::new("1x4x16").seed(chaos_seed()).timeout(ms(500));
        let healthy = sc.clone().run();
        let hello_done = healthy.span("t_hello").expect("healthy run records t_hello");
        (sc.kill_be_at(9, hello_done + SimDuration::from_micros(1)).run(), healthy)
    };
    let (r, healthy) = build();
    assert!(healthy.completed);
    assert!(!r.completed && r.timed_out, "{}", r.dump());
    assert_eq!(r.counter("timeout_in_distribute"), 1, "{}", r.dump());
    assert!(r.span("t_hello").is_some(), "hello phase finished before the crash");
    assert_identical_runs("kill_be_mid_rpdtab", &r, &build().0);
}

#[test]
fn chaos_kill_comm_daemon_takes_out_its_subtree() {
    let build =
        || Scenario::new("1x4x16").seed(chaos_seed()).timeout(ms(500)).kill_comm_at(2, ms(0)).run();
    let r = build();
    assert!(r.timed_out, "{}", r.dump());
    assert_eq!(r.counter("timeout_in_hello"), 1);
    assert_identical_runs("kill_comm_subtree", &r, &build());
}

#[test]
fn chaos_straggler_comm_daemon_delays_but_completes() {
    let seed = chaos_seed();
    let healthy = Scenario::new("1x4x32").seed(seed).run();
    let build = || {
        Scenario::new("1x4x32").seed(seed).hang_comm(1, SimDuration::from_micros(50), ms(80)).run()
    };
    let r = build();
    assert!(healthy.completed && r.completed, "{}", r.dump());
    let (h, s) = (healthy.launch_duration().unwrap(), r.launch_duration().unwrap());
    assert!(s >= ms(80), "straggler pins completion past its hang window, got {s}");
    assert!(s > h, "straggler must be slower than healthy ({h} vs {s})");
    assert!(r.counter("fault.deferred") > 0, "deliveries were deferred, not lost");
    assert_identical_runs("straggler_comm", &r, &build());
}

#[test]
fn chaos_slow_fe_nic_stretches_serialized_fan_out() {
    let seed = chaos_seed();
    let fast = Scenario::new("1x128").seed(seed).run();
    let build = || Scenario::new("1x128").seed(seed).fe_nic_slowdown(30.0).run();
    let slow = build();
    assert!(fast.completed && slow.completed);
    let (f, s) = (fast.launch_duration().unwrap(), slow.launch_duration().unwrap());
    assert!(
        s.as_secs_f64() > 10.0 * f.as_secs_f64(),
        "a 30x slower FE NIC must dominate a flat 128-way fan-out: {f} vs {s}"
    );
    assert_identical_runs("slow_fe_nic", &slow, &build());
}

#[test]
fn chaos_dropped_uplink_frames_strand_the_hello_wave() {
    let build = || {
        Scenario::new("1x8x64").seed(chaos_seed()).timeout(ms(500)).drop_uplink_frames(63, 1).run()
    };
    let r = build();
    assert!(r.timed_out, "{}", r.dump());
    assert_eq!(r.counter("uplink_frames_dropped"), 1);
    assert_eq!(r.counter("timeout_in_hello"), 1);
    assert_identical_runs("dropped_uplink_frames", &r, &build());
}

// ---------------------------------------------------------------------------
// Cluster-transport scenarios (rsh spawn fault plan, fd exhaustion)
// ---------------------------------------------------------------------------

#[test]
fn chaos_injected_spawn_failure_aborts_bootstrap_cleanly() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(8));
    let plan = FaultPlan::new().fail_spawn_attempt(5);
    cluster.rsh_state().install_fault_plan(plan.spawn_plan());
    let spec = TopologySpec::one_deep(8);
    let hosts: Vec<String> = (0..8).map(|i| cluster.config().hostname(i)).collect();
    let err = bootstrap_adhoc(&cluster, &spec, &[], &hosts, FilterRegistry::new(), hello_leaf())
        .unwrap_err();
    match err {
        TbonError::LaunchFailed(msg) => {
            assert!(msg.contains("injected fault at connection attempt 5"), "{msg}")
        }
        other => panic!("expected LaunchFailed, got {other:?}"),
    }
    // Partial state is torn down: no leaked sessions, and after clearing the
    // plan the same bootstrap succeeds.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.rsh_state().live_sessions() > 0 {
        assert!(std::time::Instant::now() < deadline, "sessions leaked after injected failure");
        std::thread::sleep(Duration::from_millis(2));
    }
    cluster.rsh_state().clear_fault_plan();
    let net = bootstrap_adhoc(&cluster, &spec, &[], &hosts, FilterRegistry::new(), hello_leaf())
        .expect("recovery bootstrap");
    net.shutdown(&cluster);
}

#[test]
fn chaos_flaky_host_is_attributed_by_name() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    cluster
        .rsh_state()
        .install_fault_plan(FaultPlan::new().fail_spawn_host("node00002").spawn_plan());
    let err = rsh_spawn(&cluster, "node00002", ProcSpec::named("d"), |_| {}).unwrap_err();
    assert!(matches!(&err, RshError::FaultInjected { host, .. } if host == "node00002"), "{err:?}");
    // Other hosts are untouched.
    let ok = rsh_spawn(&cluster, "node00001", ProcSpec::named("d"), |_| {}).unwrap();
    drop(ok);
}

/// The satellite: ad hoc bootstrap dies at the paper's ≈504-session fd
/// wall on a 512-node cluster, while LaunchMON-based bootstrap brings up
/// the very same 512 daemons through the RM without touching rsh.
#[test]
fn chaos_fd_exhaustion_kills_adhoc_but_not_launchmon_at_512_nodes() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(512));
    assert_eq!(cluster.config().rsh.max_sessions(), 504, "Atlas-era default fd budget");

    // Ad hoc path: the 505th rsh fork must fail with the fd table full.
    let spec = TopologySpec::one_deep(512);
    let hosts: Vec<String> = (0..512).map(|i| cluster.config().hostname(i)).collect();
    let err = bootstrap_adhoc(&cluster, &spec, &[], &hosts, FilterRegistry::new(), hello_leaf())
        .unwrap_err();
    match err {
        TbonError::LaunchFailed(msg) => {
            assert!(msg.contains("fork failed"), "{msg}");
            assert!(msg.contains("504 live sessions, capacity 504"), "{msg}");
        }
        other => panic!("expected LaunchFailed, got {other:?}"),
    }
    assert_eq!(cluster.rsh_state().failed_connects(), 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.rsh_state().live_sessions() > 0 {
        assert!(std::time::Instant::now() < deadline, "stranded sessions never drained");
        std::thread::sleep(Duration::from_millis(2));
    }

    // LaunchMON path on the same cluster spec: bulk launch through the RM,
    // zero rsh sessions, all 512 daemons reach the barrier.
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| {
        be.barrier().unwrap();
    });
    let outcome = fe
        .launch_and_spawn(session, "app", &[], 512, 1, DaemonSpec::bare("d"), be_main)
        .expect("LaunchMON survives the spec that kills ad hoc");
    assert_eq!(outcome.daemon_count, 512);
    assert_eq!(cluster.rsh_state().total_connects(), 504, "no new rsh traffic from LaunchMON");
    fe.kill(session).unwrap();
    fe.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// LMONP-transport scenarios (FaultyChannel)
// ---------------------------------------------------------------------------

#[test]
fn chaos_dropped_hello_frame_surfaces_as_timeout_not_hang() {
    // Model the BE-master side of the FE handshake losing its first frame
    // (the hello): the FE-side receive must expire, and the retransmitted
    // hello must still go through.
    let (be_side, fe_side) = LocalChannel::pair();
    let plan = FaultPlan::new().drop_frame(0);
    let be_side = FaultyChannel::new(be_side, plan.frame_plan());

    be_side.send(LmonpMsg::of_type(MsgType::BeHello)).unwrap(); // lost
    let got = fe_side.recv_timeout(Duration::from_millis(30)).unwrap();
    assert!(got.is_none(), "lost hello must surface as a timeout");

    be_side.send(LmonpMsg::of_type(MsgType::BeHello)).unwrap(); // retry delivers
    let got = fe_side.recv_timeout(Duration::from_secs(1)).unwrap().expect("retry");
    assert_eq!(got.mtype, MsgType::BeHello);
    assert_eq!(be_side.frames_dropped(), 1);
}

#[test]
fn chaos_delayed_frames_arrive_late_in_order_and_intact() {
    let (tx, rx) = LocalChannel::pair();
    let tx = FaultyChannel::new(
        tx,
        FaultPlan::new().delay_frame(0, Duration::from_millis(40)).frame_plan(),
    );
    let t0 = std::time::Instant::now();
    tx.send(LmonpMsg::of_type(MsgType::BeUsrData).with_tag(1).with_usr_payload(vec![0xAB; 64]))
        .unwrap();
    tx.send(LmonpMsg::of_type(MsgType::BeUsrData).with_tag(2)).unwrap();
    let first = rx.recv().unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(40), "first frame was held back");
    assert_eq!(first.tag, 1);
    assert_eq!(first.usr, vec![0xAB; 64], "delay must not corrupt the payload");
    assert_eq!(rx.recv().unwrap().tag, 2, "ordering preserved across the delay");
    assert_eq!(tx.frames_delayed(), 1);
}

#[test]
fn chaos_frame_delayed_past_session_close_is_an_orphan_not_a_panic() {
    // Regression for the mux orphan-accounting race: a frame delayed in the
    // sender's transmit path can arrive *after* the receiving side closed
    // its endpoint. The late frame must be counted as an orphan; routing
    // must not panic, and sibling sessions must keep flowing.
    use launchmon::proto::mux::SessionMux;

    let (near, far) = SessionMux::pair();
    let probe_tx = near.open(0).unwrap();
    let probe_rx = far.open(0).unwrap();
    let doomed_tx = near.open(1).unwrap();
    let doomed_rx = far.open(1).unwrap();

    // Session 1's sender stalls its only frame by 60 ms.
    let delayed = FaultyChannel::new(
        doomed_tx,
        FaultPlan::new().delay_frame(0, Duration::from_millis(60)).frame_plan(),
    );
    let sender = std::thread::spawn(move || {
        delayed
            .send(LmonpMsg::of_type(MsgType::BeUsrData).with_tag(7).with_usr_payload(vec![1; 16]))
            .unwrap();
    });

    // The receiver closes session 1 while the frame is still in flight.
    drop(doomed_rx);
    sender.join().unwrap();

    // Sibling traffic still flows after the late frame.
    probe_tx.send(LmonpMsg::of_type(MsgType::BeUsrData).with_tag(9)).unwrap();
    assert_eq!(probe_rx.recv().unwrap().tag, 9, "sibling session unaffected");
    assert_eq!(far.orphan_frames(), 1, "late frame for the closed session counted as orphan");
    assert_eq!(far.session_count(), 1, "only the probe session remains open");
}

// ---------------------------------------------------------------------------
// TBON scenarios (comm-daemon crash, partition)
// ---------------------------------------------------------------------------

#[test]
fn chaos_comm_crash_mid_aggregation_times_out_the_gather() {
    // Comm 0 aggregates 8 leaves but dies after 3 up-packets: its wave can
    // never complete, so the front-end connect gather must time out.
    let plan = FaultPlan::new().crash_comm_after_up(0, 3);
    let mut live = LiveOverlay::launch_echo("1x2x16", &plan);
    let err = live.front.await_connections(16, Duration::from_millis(200)).unwrap_err();
    assert_eq!(err, TbonError::Timeout);
    live.shutdown();
}

#[test]
fn chaos_partitioned_overlay_reports_missing_subtree() {
    // Severing two child links of comm 1 partitions those leaves away; the
    // wave completes without them and the shortfall is attributed exactly.
    let plan = FaultPlan::new().sever_comm_child(1, 0).sever_comm_child(1, 5);
    let mut live = LiveOverlay::launch_echo("1x2x16", &plan);
    let err = live.front.await_connections(16, Duration::from_secs(5)).unwrap_err();
    match err {
        TbonError::LaunchFailed(msg) => {
            assert!(msg.contains("expected 16 leaf hellos, got 14"), "{msg}")
        }
        other => panic!("expected LaunchFailed, got {other:?}"),
    }
    live.shutdown();
}

#[test]
fn chaos_healthy_overlay_still_gathers_under_inert_plan() {
    // Control scenario: an empty FaultPlan must not perturb the overlay.
    let plan = FaultPlan::new();
    assert!(plan.is_empty());
    let mut live = LiveOverlay::launch_echo("1x2x8", &plan);
    live.front.await_connections(8, Duration::from_secs(5)).unwrap();
    let stream = live.front.open_stream(FilterKind::Concat).unwrap();
    live.front.broadcast(stream, 0, vec![]).unwrap();
    let pkt = live.front.gather(stream, 0, Duration::from_secs(5)).unwrap();
    assert_eq!(pkt.payload.len(), 8);
    live.shutdown();
}

// ---------------------------------------------------------------------------
// Self-healing TBON scenarios (DESIGN.md §9): kill an interior comm daemon
// mid-broadcast, heal by grandparent adoption, and complete the session.
// ---------------------------------------------------------------------------

/// One full kill-and-heal run on a 1x8x64 tree. Comm 3 dies on its second
/// down-message — the wave-1 broadcast right behind the stream
/// announcement, i.e. mid-broadcast by construction. Returns everything a
/// determinism assertion needs: the healed payload (sorted), the final
/// epoch, the recovery event log, and the adoption map.
#[allow(clippy::type_complexity)]
fn killed_broadcast_run() -> (Vec<u8>, u64, Vec<RecoveryEvent>, Vec<(NodePos, NodePos)>) {
    let plan = FaultPlan::new().crash_comm_after_down(3, 1);
    let mut live = LiveOverlay::launch_echo("1x8x64", &plan);
    live.front.await_connections(64, Duration::from_secs(10)).unwrap();
    let stream = live.front.open_stream(FilterKind::Concat).unwrap();
    live.front.broadcast(stream, 1, vec![]).unwrap();

    // The dying daemon's close path is deterministic (LinkDown FIN to its
    // children, ChildGone to the front end), so detection needs no timing
    // assumptions.
    let dead = live.front.wait_failure(Duration::from_secs(10)).expect("failure detected");
    assert_eq!(dead, NodePos { level: 1, index: 3 });
    let reports = live.front.heal_failures().unwrap();
    assert_eq!(reports.len(), 1);
    let adoptions = reports[0].adoptions.clone();

    // The connection bound a real repair could break: adoption never
    // widens a live parent past twice its designed fan-out.
    let spec = TopologySpec::parse("1x8x64").unwrap();
    let route = live.front.route_table();
    let parents = std::iter::once(NodePos { level: 0, index: 0 }).chain(spec.comm_positions());
    for pos in parents.filter(|&p| route.is_alive(p)) {
        let children = route.current_children(pos).len();
        let bound = 2 * spec.base_fanout(pos.level);
        assert!(children <= bound, "{pos:?} holds {children} children, bound {bound}");
    }

    // Post-heal wave: must reach every surviving BE (here: all 64 — the
    // orphaned subtree re-attached).
    live.front.broadcast(stream, 2, vec![]).unwrap();
    let pkt = live.front.gather(stream, 2, Duration::from_secs(10)).unwrap();
    let mut payload = pkt.payload.to_vec();
    payload.sort_unstable();
    let epoch = live.front.overlay_epoch();
    let events = live.front.take_recovery_events();
    live.shutdown();
    (payload, epoch, events, adoptions)
}

#[test]
fn chaos_interior_comm_death_mid_broadcast_heals_and_completes() {
    let (payload, epoch, events, adoptions) = killed_broadcast_run();
    assert_eq!(
        payload,
        (0..64u8).collect::<Vec<u8>>(),
        "the orphaned subtree re-attached and the broadcast completed to all surviving BEs"
    );
    assert_eq!(epoch, 1, "one repair, one epoch bump");
    assert_eq!(adoptions.len(), 8, "all 8 orphan leaves re-parented");
    assert!(
        adoptions.iter().all(|(_, a)| a.level == 1 && a.index != 3),
        "orphans split across surviving sibling comms, not piled on the front end: {adoptions:?}"
    );
    assert!(
        matches!(events.first(), Some(RecoveryEvent::Degraded { orphans: 8, .. })),
        "{events:?}"
    );
    assert!(matches!(events.last(), Some(RecoveryEvent::Healed { epoch: 1, .. })), "{events:?}");
}

#[test]
fn chaos_healed_overlay_replays_deterministically() {
    // Same plan, two runs: identical healed payloads, epochs, adoption
    // maps, and event sequences.
    let a = killed_broadcast_run();
    let b = killed_broadcast_run();
    assert_eq!(a, b, "kill-and-heal must replay bit-for-bit");

    // And the fault-free control run reaches the same BE set at epoch 0,
    // replaying identically too — the plan's presence, not timing, is the
    // only difference between the two schedules.
    let healthy = || {
        let mut live = LiveOverlay::launch_echo("1x8x64", &FaultPlan::new());
        live.front.await_connections(64, Duration::from_secs(10)).unwrap();
        let stream = live.front.open_stream(FilterKind::Concat).unwrap();
        live.front.broadcast(stream, 1, vec![]).unwrap();
        let pkt = live.front.gather(stream, 1, Duration::from_secs(10)).unwrap();
        let mut p = pkt.payload.to_vec();
        p.sort_unstable();
        let epoch = live.front.overlay_epoch();
        assert!(live.front.recovery_events().is_empty(), "no recovery without a fault");
        live.shutdown();
        (p, epoch)
    };
    let h1 = healthy();
    let h2 = healthy();
    assert_eq!(h1, h2);
    assert_eq!(h1.1, 0, "no epoch bump without a failure");
    assert_eq!(h1.0, a.0, "healed run covers the same BE set as the fault-free run");
}

// ---------------------------------------------------------------------------
// Steady-state scenarios over the live mux endpoints: faults *after* the
// session reached `ready`, where ad hoc stacks hang and LaunchMON must
// surface a typed error or recover.
// ---------------------------------------------------------------------------

/// BE master dies right after `ready` (its daemon body returns, dropping
/// the mux endpoint). The FE's next receive on that session must surface a
/// per-session disconnect — promptly, via the mux close frame — not burn
/// the full timeout, and other sessions on the same physical link must be
/// untouched.
#[test]
fn chaos_be_death_after_ready_is_disconnect_not_timeout() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
    let fe = LmonFrontEnd::init(rm).unwrap();

    // Session A: daemons die immediately after the handshake.
    let dying = fe.create_session();
    let die_after_ready: BeMain = Arc::new(|_be| {
        // Returning here drops the BeSession (and the master's mux
        // endpoint) the instant the handshake completes.
    });
    fe.launch_and_spawn(dying, "app", &[], 2, 1, DaemonSpec::bare("d"), die_after_ready).unwrap();

    // Session B on the same FE: healthy echo daemons, same physical link.
    let healthy = fe.create_session();
    let echo: BeMain = Arc::new(|be| {
        if be.am_i_master() {
            if let Ok(data) = be.recv_usrdata(Duration::from_secs(10)) {
                let _ = be.send_usrdata(data);
            }
        }
        let _ = be.wait_shutdown();
    });
    fe.launch_and_spawn(healthy, "app2", &[], 2, 1, DaemonSpec::bare("d"), echo).unwrap();

    // The dead session reports Disconnected fast (close frame, no timeout).
    let t0 = std::time::Instant::now();
    let err = fe.recv_usrdata(dying, Duration::from_secs(10)).unwrap_err();
    assert!(
        matches!(
            err,
            launchmon::core::LmonError::Proto(launchmon::proto::ProtoError::Disconnected)
        ),
        "daemon death after ready must surface as a disconnect, got {err:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(2), "disconnect was detected, not timed out");

    // The healthy session still round-trips over the shared link.
    fe.send_usrdata(healthy, b"still alive".to_vec()).unwrap();
    assert_eq!(fe.recv_usrdata(healthy, Duration::from_secs(10)).unwrap(), b"still alive");

    fe.kill(dying).unwrap();
    fe.detach(healthy).unwrap();
    fe.shutdown().unwrap();
}

/// A usrdata frame is lost mid-session on the *live* FE handshake channel
/// (the FaultPlan's frame hooks applied through `spawn_common`, riding the
/// mux endpoint): the BE observes a receive timeout for the lost frame and
/// the FE's retry goes through — loss degrades to a typed timeout plus
/// recovery, never a hang or reordering.
#[test]
fn chaos_usrdata_frame_loss_mid_session_recovers_on_retry() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
    let fe = LmonFrontEnd::init(rm).unwrap();

    // FE-side frames on the session channel: 0 = BeLaunchInfo,
    // 1 = BeRpdtab, 2 = first usrdata — drop exactly that one.
    let plan = FaultPlan::new().drop_frame(2);
    fe.install_handshake_fault_plan(plan.frame_plan());

    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| {
        if be.am_i_master() {
            // The first send was dropped in flight: a bounded receive must
            // expire rather than hang.
            let first = match be.recv_usrdata(Duration::from_millis(200)) {
                Err(_) => "lost".to_string(),
                Ok(v) => format!("unexpected:{}", String::from_utf8_lossy(&v)),
            };
            // The FE retry is the next frame and must arrive intact.
            let second = be.recv_usrdata(Duration::from_secs(10)).expect("retry delivers");
            let report = format!("{first}+{}", String::from_utf8_lossy(&second));
            be.send_usrdata(report.into_bytes()).expect("report send");
        }
        let _ = be.wait_shutdown();
    });
    fe.launch_and_spawn(session, "app", &[], 2, 1, DaemonSpec::bare("d"), be_main).unwrap();

    fe.send_usrdata(session, b"first".to_vec()).unwrap(); // silently dropped
    std::thread::sleep(Duration::from_millis(300)); // let the BE's bounded recv expire
    fe.send_usrdata(session, b"second".to_vec()).unwrap(); // the retry

    let report = fe.recv_usrdata(session, Duration::from_secs(10)).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&report),
        "lost+second",
        "BE saw a timeout for the dropped frame, then the retry, in order"
    );
    fe.detach(session).unwrap();
    fe.shutdown().unwrap();
}

/// The fault plan can also strand the handshake itself: dropping both of
/// the FE's handshake frames (BeLaunchInfo *and* BeRpdtab) leaves the
/// master waiting silently, so the launch fails with a *bounded,
/// attributable* timeout on the ready wait — the live-handshake fault path
/// the ROADMAP called for. (Dropping only BeLaunchInfo fails even faster:
/// the master flags the out-of-order BeRpdtab and closes the session.)
#[test]
fn chaos_dropped_launch_info_frame_times_out_live_handshake() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
    let fe = LmonFrontEnd::init(rm).unwrap();
    fe.set_handshake_timeout(Duration::from_millis(400));
    fe.install_handshake_fault_plan(FaultPlan::new().drop_frame(0).drop_frame(1).frame_plan());

    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| {
        let _ = be.wait_shutdown();
    });
    let err =
        fe.launch_and_spawn(session, "app", &[], 2, 1, DaemonSpec::bare("d"), be_main).unwrap_err();
    assert!(
        matches!(err, launchmon::core::LmonError::Timeout("waiting for BE ready")),
        "lost launch-info frame must surface as the ready timeout, got {err:?}"
    );
    // The failed launch killed its own session: a later kill finds no job.
    let state = fe.session_state(session).unwrap();
    assert_eq!(state, launchmon::core::session::SessionState::Killed);
    assert!(matches!(fe.kill(session), Err(launchmon::core::LmonError::Engine(_))));
    fe.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Launch-storm-with-faults (ISSUE 8 satellite): a comm crash mid-bring-up
// while a storm rides `lmond`'s admission queue.
// ---------------------------------------------------------------------------

/// One session's FE↔BE-master channel eats its handshake frames mid-storm
/// (the comm crash): exactly that session fails with a clean, attributable
/// timeout, its admission permit is released, and the rest of the storm
/// completes untouched — no stuck permit, no drained queue left behind.
#[cfg(unix)]
#[test]
fn chaos_launch_storm_survives_comm_crash_mid_bring_up() {
    use launchmon::daemon::client::scratch_socket_path;
    use launchmon::daemon::{bind_and_start, DaemonClient};
    use launchmon::testkit::StormPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let socket = scratch_socket_path("chaosstorm");
    let _ = std::fs::remove_file(&socket);
    let cfg = DaemonConfig {
        // One backend so the storm is guaranteed to hit the wounded FE.
        backends: 1,
        cluster_nodes: 64,
        admission_limit: 4,
        queue_capacity: 1024,
        ..DaemonConfig::default()
    };
    let handle = bind_and_start(cfg, &socket, None).expect("daemon up");
    let daemon = Arc::clone(handle.daemon());

    // The fault plan is one-shot: whichever storm session reaches its
    // handshake first loses both FE-side handshake frames and must time
    // out. The short timeout makes the victim fail while the storm is
    // still in flight, so its permit release is what lets the tail drain.
    let fe = daemon.backend_fe(0).expect("backend 0");
    fe.set_handshake_timeout(Duration::from_millis(300));
    fe.install_handshake_fault_plan(FaultPlan::new().drop_frame(0).drop_frame(1).frame_plan());

    let plan = StormPlan::new(8, 3, 2, chaos_seed());
    let start = Arc::new(std::sync::Barrier::new(plan.clients));
    let failures = Arc::new(AtomicUsize::new(0));
    let completed = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..plan.clients)
        .map(|c| {
            let socket = socket.clone();
            let launches = plan.client_launches(c);
            let start = Arc::clone(&start);
            let failures = Arc::clone(&failures);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let mut client = DaemonClient::connect_unix(&socket).expect("client connect");
                start.wait();
                for l in launches {
                    match client.launch("storm_app", l.nodes, l.tasks_per_node, "oneshot") {
                        Ok(resp) => {
                            client.kill(resp.gsid).expect("kill");
                            completed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => {
                            assert!(
                                e.to_string().contains("launch failed"),
                                "the comm crash must surface as a clean launch error, got: {e}"
                            );
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    assert_eq!(failures.load(Ordering::SeqCst), 1, "exactly the wounded session fails");
    assert_eq!(completed.load(Ordering::SeqCst), plan.total_sessions() - 1);

    let adm = daemon.admission().stats();
    assert_eq!(adm.admitted_total, plan.total_sessions() as u64, "the victim was admitted too");
    assert_eq!(adm.released_total, adm.admitted_total, "the failed session's permit came back");
    assert_eq!((adm.in_flight, adm.waiting), (0, 0));

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

// ---------------------------------------------------------------------------
// Planned-maintenance scenario (DESIGN.md §12, ISSUE 9): a rolling
// comm-daemon upgrade across a spare-backed overlay, with one unplanned
// silent halt mid-walk that only phi-accrual suspicion can see, racing a
// live FE session fleet. Zero session interruption: the fleet's reports
// are bit-identical to a control run with no upgrade at all.
// ---------------------------------------------------------------------------

/// Run the jobsnap fleet: `sessions` FE sessions of echo daemons, each
/// round-tripping `rounds` seed-derived payloads. Returns one report per
/// session — the concatenation of every echoed reply, in request order.
fn jobsnap_fleet(sessions: usize, rounds: usize, seed: u64) -> Vec<Vec<u8>> {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(16));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let echo: BeMain = Arc::new(move |be| {
        if be.am_i_master() {
            for _ in 0..rounds {
                let Ok(data) = be.recv_usrdata(Duration::from_secs(20)) else { break };
                let _ = be.send_usrdata(data);
            }
        }
        let _ = be.wait_shutdown();
    });
    let sids: Vec<_> = (0..sessions)
        .map(|s| {
            let sid = fe.create_session();
            fe.launch_and_spawn(
                sid,
                &format!("jobsnap{s}"),
                &[],
                2,
                1,
                DaemonSpec::bare("d"),
                echo.clone(),
            )
            .unwrap();
            sid
        })
        .collect();
    let mut reports = vec![Vec::new(); sessions];
    for round in 0..rounds {
        for (s, sid) in sids.iter().enumerate() {
            let mut payload = seed.to_le_bytes().to_vec();
            payload.extend([round as u8, s as u8]);
            fe.send_usrdata(*sid, payload).unwrap();
        }
        for (s, sid) in sids.iter().enumerate() {
            reports[s].extend(fe.recv_usrdata(*sid, Duration::from_secs(20)).unwrap());
        }
        // Stretch the fleet across the concurrent upgrade walk.
        std::thread::sleep(Duration::from_millis(5));
    }
    for sid in sids {
        fe.kill(sid).unwrap();
    }
    fe.shutdown().unwrap();
    reports
}

/// Broadcast-and-gather one probe wave; every one of the 64 leaves must
/// answer regardless of how many comms have been replaced so far.
fn probe_wave(front: &mut FrontEndpoint, stream: u16, tag: u16) {
    front.broadcast(stream, tag, vec![]).unwrap();
    let pkt = front.gather(stream, tag, Duration::from_secs(10)).unwrap();
    let mut p = pkt.payload.to_vec();
    p.sort_unstable();
    assert_eq!(p, (0..64u8).collect::<Vec<u8>>(), "wave {tag} lost leaves mid-maintenance");
}

#[test]
fn chaos_rolling_upgrade_with_unplanned_halt_keeps_sessions_whole() {
    let seed = chaos_seed();
    // Control: the fleet with no overlay maintenance anywhere in sight.
    let control = jobsnap_fleet(3, 6, seed);

    // Upgrade run: bring the spare-backed overlay up first so the walk and
    // the fleet genuinely overlap once the fleet thread starts.
    let mut live = LiveOverlay::launch_echo("1x8x64+8", &FaultPlan::new());
    let step = Duration::from_secs(10);
    live.front.await_connections(64, step).unwrap();
    let _table = live.front.maintenance().start_suspicion(PhiAccrualParams::default());
    let stream = live.front.open_stream(FilterKind::Concat).unwrap();
    probe_wave(&mut live.front, stream, 1);

    let fleet = std::thread::spawn(move || jobsnap_fleet(3, 6, seed));

    // Walk the original interior comms one at a time with a probe wave
    // after every step. Just before step 5, comm 6 — not yet walked —
    // dies silently (the `kill -9` analogue): no close notices, no route
    // mark; only background suspicion can flag it, and the flag must feed
    // the exact same repair path mid-walk.
    let mut tag = 2u16;
    let mut planned = 0usize;
    let mut unplanned = 0usize;
    for idx in 0..8u32 {
        if idx == 5 {
            live.front.halt_comm(NodePos { level: 1, index: 6 }).unwrap();
            let dead = live.front.wait_failure(step).expect("suspicion flags the silent halt");
            assert_eq!(dead, NodePos { level: 1, index: 6 });
            unplanned += live.front.heal_failures().unwrap().len();
            probe_wave(&mut live.front, stream, tag);
            tag += 1;
        }
        if idx == 6 {
            continue; // already replaced by the unplanned repair
        }
        let report =
            live.front.maintenance().upgrade(NodePos { level: 1, index: idx }, step).unwrap();
        assert!(report.spare_used.is_some(), "hot spare available for step {idx}");
        planned += 1;
        probe_wave(&mut live.front, stream, tag);
        tag += 1;
    }

    assert_eq!((planned, unplanned), (7, 1));
    assert_eq!(live.front.overlay_epoch(), 8, "one epoch bump per replacement");
    let stats = live.front.stats();
    assert_eq!(stats.drains_completed, 7, "every planned step drained loss-free");
    assert_eq!(stats.upgrades_completed, 7);
    assert_eq!(stats.upgrades_failed, 0);
    assert_eq!(stats.spares_registered, 8);
    assert_eq!(stats.spares_activated, 8, "7 planned steps + 1 repair drain the pool exactly");
    assert_eq!(stats.suspicion_deaths, 1, "only the halt was graded dead");
    assert_eq!(stats.deaths_detected, 1, "planned drains never enter the failure ledger");
    assert!(stats.beats_received > 0, "the suspicion monitor ran throughout");
    live.shutdown();

    // Zero interruption: the racing fleet saw exactly what the control
    // fleet saw, byte for byte, and every report is non-trivial.
    let raced = fleet.join().unwrap();
    assert!(raced.iter().all(|r| r.len() == 6 * 10), "every session completed every round");
    assert_eq!(raced, control, "fleet reports must be bit-identical with and without the upgrade");
}

// ---------------------------------------------------------------------------
// FE-shard failover (DESIGN.md §13): an `lmond` with four groups runs a
// jobsnap fleet; one group's FE dies mid-fleet and `Daemon::fail_group`
// re-homes its sessions to a sibling shard under the same gsids, replayed
// from round 0 (the old copies ended with their group). The final reports
// are bit-identical to a no-fault control run.
// ---------------------------------------------------------------------------

const FED_GROUPS: usize = 4;
const FED_SESSIONS_PER_GROUP: usize = 2;
const FED_ROUNDS: usize = 6;
/// Group whose FE dies, and the round boundary at which it dies.
const FED_VICTIM: usize = 1;
const FED_FAIL_AT_ROUND: usize = 2;

/// One fleet session: its gsid, the group it was launched into, its index
/// within that group, and the echoed replies so far.
struct FleetSession {
    gsid: u64,
    group: usize,
    index: usize,
    report: Vec<u8>,
}

/// Run one round on every session of `fleet`, each through the FE that
/// `lmond` hosts it on right now.
fn fed_round(daemon: &Daemon, fleet: &mut [FleetSession], seed: u64, round: usize) {
    let homes: Vec<_> = fleet
        .iter()
        .map(|s| {
            let (fe, sid) = daemon.session_of(s.gsid).expect("fleet session is live");
            (daemon.backend_fe(fe).expect("backend"), sid)
        })
        .collect();
    for (s, (fe, sid)) in fleet.iter().zip(&homes) {
        let mut payload = seed.to_le_bytes().to_vec();
        payload.extend([round as u8, s.group as u8, s.index as u8]);
        fe.send_usrdata(*sid, payload).unwrap();
    }
    for (s, (fe, sid)) in fleet.iter_mut().zip(&homes) {
        s.report.extend(fe.recv_usrdata(*sid, Duration::from_secs(20)).unwrap());
    }
}

/// The four-group fleet on one `lmond` (one backend per group). App names
/// are picked so that every group hosts [`FED_SESSIONS_PER_GROUP`] echo
/// sessions, each launched through `LAUNCH`. With `fail` set,
/// [`FED_VICTIM`] fails over at the [`FED_FAIL_AT_ROUND`] boundary and its
/// sessions replay the finished rounds on their new home. Returns one
/// report per session, in (group, session) order.
fn fed_fleet(seed: u64, fail: bool) -> Vec<Vec<u8>> {
    let daemon = Daemon::new(DaemonConfig {
        backends: FED_GROUPS,
        groups: FED_GROUPS,
        cluster_nodes: 16,
        ..DaemonConfig::default()
    })
    .unwrap();
    let echo: BeMain = Arc::new(|be| {
        if be.am_i_master() {
            for _ in 0..FED_ROUNDS {
                let Ok(data) = be.recv_usrdata(Duration::from_secs(20)) else { break };
                let _ = be.send_usrdata(data);
            }
        }
        let _ = be.wait_shutdown();
    });
    daemon.register_body("fedsnap_echo", echo);

    let mut fleet = Vec::new();
    for group in 0..FED_GROUPS {
        let apps = (0..).map(|k| format!("fedsnap{k}")).filter(|a| daemon.group_of_app(a) == group);
        for (index, app) in apps.take(FED_SESSIONS_PER_GROUP).enumerate() {
            let launch = Request::parse(&format!("LAUNCH {app} 2 1 fedsnap_echo")).unwrap();
            let reply = daemon.dispatch(&launch).render();
            let (raw, _) = parse_reply_header(reply.trim_end()).expect("LAUNCH succeeds");
            let launched = LaunchResponse::from_reply(raw).unwrap();
            assert_eq!(launched.group, group, "{app} must land in group {group}");
            fleet.push(FleetSession { gsid: launched.gsid, group, index, report: Vec::new() });
        }
    }
    let victims = FED_VICTIM * FED_SESSIONS_PER_GROUP..(FED_VICTIM + 1) * FED_SESSIONS_PER_GROUP;

    for round in 0..FED_ROUNDS {
        if fail && round == FED_FAIL_AT_ROUND {
            let homes: Vec<usize> =
                fleet.iter().map(|s| daemon.session_of(s.gsid).unwrap().0).collect();
            let report = daemon.fail_group(FED_VICTIM);
            assert_eq!((report.rehomed, report.dropped), (FED_SESSIONS_PER_GROUP, 0));
            let dead = daemon.shard(FED_VICTIM).unwrap();
            assert!(!dead.alive);
            for (s, home) in fleet.iter_mut().zip(homes) {
                let (fe, _) = daemon.session_of(s.gsid).expect("the gsid survives the failover");
                if s.group == FED_VICTIM {
                    assert!(!dead.backends.contains(&fe), "gsid {} on the dead group", s.gsid);
                    s.report.clear();
                } else {
                    assert_eq!(fe, home, "bystander gsid {} changed front end", s.gsid);
                }
            }
            // The payloads are pure functions of (seed, round, group,
            // session), so the replay reproduces the lost prefix byte for
            // byte.
            for replay in 0..FED_FAIL_AT_ROUND {
                fed_round(&daemon, &mut fleet[victims.clone()], seed, replay);
            }
        }
        fed_round(&daemon, &mut fleet, seed, round);
    }

    for s in &fleet {
        let reply = daemon.dispatch(&Request::Kill { gsid: s.gsid });
        assert!(matches!(reply, Reply::Ok(_)), "kill {}: {}", s.gsid, reply.render());
    }
    fleet.into_iter().map(|s| s.report).collect()
}

#[test]
fn chaos_group_fe_death_mid_fleet_rehomes_with_identical_reports() {
    let seed = chaos_seed();
    let control = fed_fleet(seed, false);
    let failed = fed_fleet(seed, true);
    // Every session of every group completed every round: 11 bytes per
    // round (8 seed + round + group + session).
    for (i, report) in failed.iter().enumerate() {
        assert_eq!(report.len(), FED_ROUNDS * 11, "session {i} lost rounds to the failover");
    }
    assert_eq!(
        failed, control,
        "fleet reports must be bit-identical with and without the group-FE death"
    );
}

// ---------------------------------------------------------------------------
// Determinism regression (the satellite): full FE→MW→BE launch, with and
// without an active FaultPlan, replays bit-for-bit under one seed.
// ---------------------------------------------------------------------------

#[test]
fn determinism_same_seed_same_trace_with_and_without_fault_plan() {
    let seed = chaos_seed();
    let faultless = || Scenario::new("1x8x64").seed(seed).run();
    let faulted = || {
        Scenario::new("1x8x64")
            .seed(seed)
            .timeout(ms(500))
            .kill_be_at(11, ms(1))
            .hang_comm(3, SimDuration::from_micros(200), ms(3))
            .drop_uplink_frames(40, 1)
            .run()
    };

    // Identical traces *and* identical timeline breakdowns per variant.
    let (a, b) = (faultless(), faultless());
    assert!(a.completed);
    assert_identical_runs("determinism_faultless", &a, &b);
    assert_eq!(a.spans, b.spans, "timeline breakdown must replay too");

    let (fa, fb) = (faulted(), faulted());
    assert!(fa.timed_out);
    assert_identical_runs("determinism_faulted", &fa, &fb);
    assert_eq!(fa.spans, fb.spans);

    // And the plan actually changed the run.
    assert_ne!(a.fingerprint, fa.fingerprint, "the fault plan must alter the schedule");
}

#[test]
fn determinism_distinct_seeds_explore_distinct_schedules() {
    let r1 = Scenario::new("1x4x16").seed(chaos_seed()).run();
    let r2 = Scenario::new("1x4x16").seed(chaos_seed().wrapping_add(1)).run();
    assert!(r1.completed && r2.completed);
    assert_ne!(r1.fingerprint, r2.fingerprint, "jitter must be seed-driven");
}
