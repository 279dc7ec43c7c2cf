//! `federation_routing` — the federation layer, quantified (DESIGN.md
//! §13, ISSUE 10).
//!
//! Three per-group constants back the million-node scale story:
//!
//! * **group rtt** — one group's broadcast→gather wave over its live
//!   overlay (the same-run hardware normalizer);
//! * **publish+exchange** — a gateway's epoch-stamped [`GroupRoute`]
//!   publish plus one full routing exchange against the shared
//!   [`FederationRouter`], the only inter-group cost a federated launch
//!   adds;
//! * **group failover** — a whole-group hard kill followed by rebuild and
//!   re-attach under a bumped federation epoch, measured end to end on
//!   live overlays.
//!
//! The measured publish constant feeds
//! [`lmon_model::federation_projection`] for a 1024-group × 1024-node
//! federation — 1,048,576 daemons — and the projection block lands in
//! `BENCH_federation.json` next to the measurements, so the JSON is the
//! complete argument: measured constants in, million-node launch out.
//!
//! Results are printed and written to `BENCH_federation.json`
//! at the workspace root (CI uploads it). Quick mode: `LMON_BENCH_QUICK=1`.
//!
//! **Regression gate** ([`lmon_bench::gate`]): the primary spec's median
//! `failover_us` against the committed `BENCH_federation.json`, with the
//! failover/group-rtt ratio as the hardware-neutral signal.
//!
//! [`GroupRoute`]: lmon_tbon::GroupRoute
//! [`FederationRouter`]: lmon_tbon::FederationRouter

use std::time::{Duration, Instant};

use lmon_bench::gate::{self, int, median, num, obj, text, Better, Gate, Json};
use lmon_model::{federation_projection, CostParams};
use lmon_tbon::filter::FilterKind;
use lmon_tbon::spec::NodePos;
use lmon_tbon::{FederationRouter, FederationSpec, GroupRoute};
use lmon_testkit::LiveFederation;

/// Federation specs measured, primary (gated) spec first.
const SPECS: &[&str] = &["1x2x8 * 4g", "1x2x8 * 8g"];

/// The million-node projection: 1024 groups of 1024 daemons.
const PROJECTION_GROUPS: usize = 1024;
const PROJECTION_NODES_PER_GROUP: usize = 1024;
const PROJECTION_TASKS_PER_DAEMON: usize = 8;

struct FederationCycle {
    group_rtt_us: f64,
    failover_us: f64,
    bounds_held: bool,
}

/// One live-federation cycle: launch, probe one group (the rtt), hard-kill
/// a group and re-attach it (the failover), verify connection bounds.
fn one_federation_cycle(spec_str: &str) -> FederationCycle {
    let spec = FederationSpec::parse(spec_str).expect("valid spec");
    let leaves = spec.group_spec().leaf_count() as usize;
    let victim = spec.group_count() - 1;
    let mut fed = LiveFederation::launch_echo(spec_str);

    let t0 = Instant::now();
    let stream = fed.front(0).open_stream(FilterKind::Concat).expect("stream");
    fed.front(0).broadcast(stream, 1, vec![]).expect("broadcast");
    let pkt = fed.front(0).gather(stream, 1, Duration::from_secs(20)).expect("gather");
    let group_rtt_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(pkt.payload.len(), leaves);

    let t0 = Instant::now();
    let epoch = fed.fail_group(victim);
    fed.reattach_group(victim);
    let failover_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(fed.router().epoch(), epoch);
    assert_eq!(fed.router().live_groups().len(), spec.group_count() as usize);

    let bounds_held = fed.accounts().iter().all(|a| a.links <= a.bound);
    fed.shutdown();
    FederationCycle { group_rtt_us, failover_us, bounds_held }
}

/// Median cost of one gateway publish + full routing exchange against a
/// router already holding every group's entry (pure in-memory: this is
/// the constant the projection multiplies by the group count).
fn publish_exchange_us(groups: u32, samples: usize) -> f64 {
    let router = FederationRouter::new();
    let entry = |group: u32, epoch: u64| GroupRoute {
        group,
        epoch,
        overlay_epoch: 0,
        gateway: NodePos { level: 1, index: 0 },
        leaves: 8,
        alive: true,
    };
    for g in 0..groups {
        assert!(router.publish(entry(g, router.epoch())));
    }
    let mut out = Vec::with_capacity(samples);
    for i in 0..samples {
        let g = i as u32 % groups;
        let t0 = Instant::now();
        assert!(router.publish(entry(g, router.epoch())));
        let seen = router.exchange(g);
        out.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(seen.len(), groups as usize - 1);
    }
    median(out)
}

/// The artifact row of one spec. Acceptance is asserted here: every cycle
/// held every node inside its connection bound.
fn measure(spec_str: &str, iters: usize) -> Json {
    let groups = FederationSpec::parse(spec_str).expect("valid spec").group_count();
    let cycles: Vec<FederationCycle> = (0..iters).map(|_| one_federation_cycle(spec_str)).collect();
    let bounds_held = cycles.iter().filter(|c| c.bounds_held).count();
    assert_eq!(
        bounds_held, iters,
        "{spec_str}: a failover cycle pushed a node past its connection bound"
    );
    obj([
        ("spec", text(spec_str)),
        ("iterations", int(iters)),
        ("groups", int(groups as usize)),
        ("group_rtt_us", num(median(cycles.iter().map(|c| c.group_rtt_us).collect()), 0)),
        ("publish_us", num(publish_exchange_us(groups, 1000), 2)),
        ("failover_us", num(median(cycles.iter().map(|c| c.failover_us).collect()), 0)),
        ("bounds_held", int(bounds_held)),
    ])
}

fn main() {
    let mode = gate::Mode::from_env();
    let iters = if mode.quick { 3 } else { 10 };
    let specs: Vec<Json> = SPECS.iter().map(|s| measure(s, iters)).collect();

    // The scale story: project a million-node federated launch from the
    // primary spec's measured per-group routing constant.
    let publish_us = specs[0].number("publish_us").expect("declared by measure");
    let proj = federation_projection(
        &CostParams::default(),
        PROJECTION_GROUPS,
        PROJECTION_NODES_PER_GROUP,
        PROJECTION_TASKS_PER_DAEMON,
        publish_us * 1e-6,
    );
    println!(
        "projection: {} nodes as {}x{} federate in {:.2}s (one group {:.2}s + routing {:.3}s); \
         flat single-FE launch of the same nodes: {:.0}s",
        proj.total_nodes,
        proj.groups,
        proj.nodes_per_group,
        proj.total_s,
        proj.group_launch_s,
        proj.routing_exchange_s,
        proj.flat_total_s
    );
    assert!(
        proj.total_s < proj.flat_total_s / 10.0,
        "federation must beat the flat launch by >10x at a million nodes"
    );

    let projection = obj([
        ("groups", int(proj.groups)),
        ("nodes_per_group", int(proj.nodes_per_group)),
        ("total_nodes", int(proj.total_nodes)),
        ("publish_us_measured", num(publish_us, 2)),
        ("group_launch_s", num(proj.group_launch_s, 3)),
        ("routing_exchange_s", num(proj.routing_exchange_s, 4)),
        ("federated_total_s", num(proj.total_s, 3)),
        ("flat_total_s", num(proj.flat_total_s, 1)),
    ]);
    // First committed numbers for this subsystem (quick mode, the CI
    // configuration).
    let baseline = obj([
        ("pr", int(10)),
        ("spec", text("1x2x8 * 4g")),
        ("failover_us", num(412.0, 0)),
        ("group_rtt_us", num(120.0, 0)),
    ]);
    gate::publish(
        "BENCH_federation.json",
        mode,
        [("specs", Json::Arr(specs)), ("projection", projection), ("baseline", baseline)],
        &Gate {
            row: &["specs", SPECS[0]],
            metric: "failover_us",
            normalizer: "group_rtt_us",
            better: Better::Lower,
        },
    );
}
