//! The actor-based simulation engine.
//!
//! Components of a scenario (front end, RM launcher, nodes, daemons) are
//! [`Actor`]s registered with a [`Sim`]. Actors communicate exclusively by
//! scheduling typed messages for each other through the [`Ctx`] handed to
//! their handler; the engine buffers those effects and applies them after
//! the handler returns, so the actor table is never aliased during dispatch.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{Disposition, FaultKind, FaultSpec, TraceEvent};
use crate::metrics::Metrics;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Index into the actor table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simulation participant handling typed messages `M`.
pub trait Actor<M> {
    /// Handle one message delivered at the current virtual time.
    fn on_message(&mut self, msg: M, ctx: &mut Ctx<'_, M>);

    /// Called once when the simulation starts, in registration order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Diagnostic name used in traces.
    fn name(&self) -> String {
        "actor".to_string()
    }
}

/// Scheduling context handed to actor handlers.
///
/// All effects (sends, spawns) are buffered and applied by the engine after
/// the handler returns.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ActorId,
    sends: Vec<(SimTime, ActorId, M)>,
    /// Metrics sink shared by the whole simulation.
    pub metrics: &'a mut Metrics,
    /// Deterministic RNG shared by the whole simulation.
    pub rng: &'a mut SmallRng,
    stop_requested: &'a mut bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor currently executing.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Deliver `msg` to `to` after `delay`.
    pub fn send_in(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        self.sends.push((self.now + delay, to, msg));
    }

    /// Deliver `msg` to self after `delay` (a timer).
    pub fn timer(&mut self, delay: SimDuration, msg: M) {
        let id = self.self_id;
        self.send_in(delay, id, msg);
    }

    /// Ask the engine to stop after this dispatch completes.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

struct Pending<M> {
    to: ActorId,
    msg: M,
}

/// The simulation: an actor table, an event queue, and a virtual clock.
pub struct Sim<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    queue: EventQueue<Pending<M>>,
    now: SimTime,
    rng: SmallRng,
    /// Metrics collected across the run.
    pub metrics: Metrics,
    started: bool,
    stop_requested: bool,
    dispatched: u64,
    faults: Vec<FaultSpec>,
    trace: Option<Vec<TraceEvent>>,
    trace_seq: u64,
}

impl<M> Sim<M> {
    /// A fresh simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            actors: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            metrics: Metrics::default(),
            started: false,
            stop_requested: false,
            dispatched: 0,
            faults: Vec::new(),
            trace: None,
            trace_seq: 0,
        }
    }

    /// Register an actor, returning its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(actor);
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total messages dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedule a message from outside any actor (e.g. the scenario driver).
    pub fn inject(&mut self, at: SimTime, to: ActorId, msg: M) {
        self.queue.push(at, Pending { to, msg });
    }

    /// Schedule a fault against an actor (see [`FaultKind`]). Faults are
    /// part of the deterministic schedule: same seed + same plan = same run.
    pub fn inject_fault(&mut self, spec: FaultSpec) {
        self.faults.push(spec);
    }

    /// Kill `target` at virtual time `at`: deliveries from then on are
    /// dropped (and counted under the `fault.dropped` metric).
    pub fn kill_at(&mut self, at: SimTime, target: ActorId) {
        self.inject_fault(FaultSpec { at, target, kind: FaultKind::Kill });
    }

    /// Hang `target` between `at` and `until`: deliveries inside the window
    /// are deferred to `until` (counted under `fault.deferred`).
    pub fn hang_between(&mut self, target: ActorId, at: SimTime, until: SimTime) {
        self.inject_fault(FaultSpec { at, target, kind: FaultKind::HangUntil(until) });
    }

    /// Scheduled faults, in injection order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Start recording the per-delivery event trace (off by default: traces
    /// grow with the run and benches don't want the allocation).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded trace (empty unless [`Sim::enable_trace`] was called
    /// before the run).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Fingerprint of the recorded trace (see [`crate::fault::trace_fingerprint`]).
    pub fn trace_fingerprint(&self) -> u64 {
        crate::fault::trace_fingerprint(self.trace())
    }

    /// The recorded trace rendered one event per line.
    pub fn trace_dump(&self) -> String {
        crate::fault::trace_dump(self.trace())
    }

    /// Resolve what happens to a delivery to `to` at time `now`: the first
    /// scheduled fault (in injection order) that is active wins.
    fn disposition_for(&self, now: SimTime, to: ActorId) -> Disposition {
        for f in &self.faults {
            if f.target != to || now < f.at {
                continue;
            }
            match f.kind {
                FaultKind::Kill => return Disposition::DroppedKilled,
                FaultKind::HangUntil(until) => {
                    if now < until {
                        return Disposition::DeferredHang;
                    }
                }
            }
        }
        Disposition::Delivered
    }

    fn record_trace(&mut self, at: SimTime, to: ActorId, disposition: Disposition) {
        let seq = self.trace_seq;
        self.trace_seq += 1;
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEvent { seq, at, to, disposition });
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let id = ActorId(i as u32);
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                sends: Vec::new(),
                metrics: &mut self.metrics,
                rng: &mut self.rng,
                stop_requested: &mut self.stop_requested,
            };
            self.actors[i].on_start(&mut ctx);
            let sends = ctx.sends;
            for (at, to, msg) in sends {
                self.queue.push(at, Pending { to, msg });
            }
        }
    }

    /// Dispatch a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some((at, Pending { to, msg })) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        match self.disposition_for(at, to) {
            Disposition::Delivered => {}
            d @ Disposition::DroppedKilled => {
                self.record_trace(at, to, d);
                self.metrics.count("fault.dropped", 1);
                return true;
            }
            d @ Disposition::DeferredHang => {
                self.record_trace(at, to, d);
                self.metrics.count("fault.deferred", 1);
                let until = self
                    .faults
                    .iter()
                    .filter_map(|f| match f.kind {
                        FaultKind::HangUntil(u) if f.target == to && at >= f.at && at < u => {
                            Some(u)
                        }
                        _ => None,
                    })
                    .max()
                    .expect("deferral implies an active hang window");
                self.queue.push(until, Pending { to, msg });
                return true;
            }
        }
        self.record_trace(at, to, Disposition::Delivered);
        self.dispatched += 1;
        let idx = to.index();
        assert!(idx < self.actors.len(), "message to unknown actor {to:?}");
        let mut ctx = Ctx {
            now: self.now,
            self_id: to,
            sends: Vec::new(),
            metrics: &mut self.metrics,
            rng: &mut self.rng,
            stop_requested: &mut self.stop_requested,
        };
        self.actors[idx].on_message(msg, &mut ctx);
        let sends = ctx.sends;
        for (t, target, m) in sends {
            self.queue.push(t, Pending { to: target, msg: m });
        }
        true
    }

    /// Run until the queue drains, an actor calls [`Ctx::stop`], or the
    /// event budget is exhausted. Returns the finishing time.
    pub fn run(&mut self, max_events: u64) -> SimTime {
        self.start_if_needed();
        let mut budget = max_events;
        while budget > 0 && !self.stop_requested {
            if !self.step() {
                break;
            }
            budget -= 1;
        }
        assert!(
            budget > 0 || self.stop_requested || self.queue.is_empty(),
            "simulation exceeded its event budget of {max_events} events — likely a livelock"
        );
        self.now
    }

    /// Run until the queue is fully drained (convenience for scenarios with
    /// a natural end).
    pub fn run_to_completion(&mut self) -> SimTime {
        self.run(u64::MAX)
    }

    /// Immutable access to a registered actor (for post-run inspection).
    pub fn actor(&self, id: ActorId) -> &dyn Actor<M> {
        self.actors[id.index()].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: Option<ActorId>,
        remaining: u32,
        log: Vec<u32>,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if let Some(peer) = self.peer {
                ctx.send_in(SimDuration::from_millis(1), peer, Msg::Ping(self.remaining));
            }
        }

        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Ping(n) => {
                    self.log.push(n);
                    // reply to whoever pinged — here we know it's actor 0
                    ctx.send_in(SimDuration::from_millis(1), ActorId(0), Msg::Pong(n));
                }
                Msg::Pong(n) => {
                    self.log.push(n);
                    if n > 1 {
                        if let Some(peer) = self.peer {
                            ctx.send_in(SimDuration::from_millis(1), peer, Msg::Ping(n - 1));
                        }
                    } else {
                        ctx.stop();
                    }
                }
            }
        }
    }

    fn build() -> (Sim<Msg>, ActorId, ActorId) {
        let mut sim = Sim::new(42);
        let a = sim.add_actor(Box::new(Pinger { peer: None, remaining: 0, log: vec![] }));
        let b = sim.add_actor(Box::new(Pinger { peer: None, remaining: 0, log: vec![] }));
        (sim, a, b)
    }

    #[test]
    fn ping_pong_advances_time_and_stops() {
        let mut sim = Sim::new(1);
        let _a = sim.add_actor(Box::new(Pinger { peer: None, remaining: 0, log: vec![] }));
        let b = sim.add_actor(Box::new(Pinger { peer: None, remaining: 0, log: vec![] }));
        // wire: actor 0 pings b with countdown 3
        sim.actors[0] = Box::new(Pinger { peer: Some(b), remaining: 3, log: vec![] });
        let end = sim.run(1000);
        // 3 rounds of ping+pong at 1ms per hop = 6 ms
        assert_eq!(end, SimTime(6_000_000));
        assert!(sim.dispatched() >= 6);
    }

    #[test]
    fn injection_without_actors_panics_on_unknown_target() {
        let (mut sim, _a, _b) = build();
        sim.inject(SimTime(5), ActorId(99), Msg::Ping(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(10);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn same_time_messages_dispatch_in_schedule_order() {
        struct Collector {
            seen: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
        }
        impl Actor<u32> for Collector {
            fn on_message(&mut self, msg: u32, _ctx: &mut Ctx<'_, u32>) {
                self.seen.borrow_mut().push(msg);
            }
        }
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim: Sim<u32> = Sim::new(0);
        let c = sim.add_actor(Box::new(Collector { seen: seen.clone() }));
        for i in 0..50 {
            sim.inject(SimTime(100), c, i);
        }
        sim.run_to_completion();
        assert_eq!(*seen.borrow(), (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let run = |seed: u64| -> (SimTime, u64) {
            let mut sim = Sim::new(seed);
            let b = sim.add_actor(Box::new(Pinger { peer: None, remaining: 0, log: vec![] }));
            sim.actors[0] = Box::new(Pinger { peer: Some(b), remaining: 5, log: vec![] });
            // note: actor 0 has been replaced; register b's peer ping target
            let end = sim.run(10_000);
            (end, sim.dispatched())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn event_budget_panics_on_livelock() {
        struct Loopy;
        impl Actor<()> for Loopy {
            fn on_message(&mut self, _msg: (), ctx: &mut Ctx<'_, ()>) {
                ctx.timer(SimDuration::from_nanos(1), ());
            }
        }
        let mut sim: Sim<()> = Sim::new(0);
        let a = sim.add_actor(Box::new(Loopy));
        sim.inject(SimTime::ZERO, a, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(100);
        }));
        assert!(result.is_err(), "livelock should trip the event budget");
    }

    #[test]
    fn killed_actor_stops_receiving_and_drops_are_counted() {
        struct Counter {
            seen: std::rc::Rc<std::cell::RefCell<u32>>,
        }
        impl Actor<u32> for Counter {
            fn on_message(&mut self, _msg: u32, _ctx: &mut Ctx<'_, u32>) {
                *self.seen.borrow_mut() += 1;
            }
        }
        let seen = std::rc::Rc::new(std::cell::RefCell::new(0));
        let mut sim: Sim<u32> = Sim::new(0);
        let c = sim.add_actor(Box::new(Counter { seen: seen.clone() }));
        for i in 0..10u64 {
            sim.inject(SimTime(i * 100), c, i as u32);
        }
        // Kill at t=450: deliveries at 0..=400 land (5), 500..=900 drop (5).
        sim.kill_at(SimTime(450), c);
        sim.run_to_completion();
        assert_eq!(*seen.borrow(), 5);
        assert_eq!(sim.metrics.counter("fault.dropped"), 5);
    }

    #[test]
    fn hung_actor_defers_deliveries_to_window_end() {
        struct Stamps {
            at: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
        }
        impl Actor<u32> for Stamps {
            fn on_message(&mut self, _msg: u32, ctx: &mut Ctx<'_, u32>) {
                self.at.borrow_mut().push(ctx.now());
            }
        }
        let at = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim: Sim<u32> = Sim::new(0);
        let s = sim.add_actor(Box::new(Stamps { at: at.clone() }));
        sim.inject(SimTime(100), s, 0);
        sim.inject(SimTime(200), s, 1); // inside the hang window: deferred
        sim.inject(SimTime(900), s, 2);
        sim.hang_between(s, SimTime(150), SimTime(500));
        sim.run_to_completion();
        assert_eq!(*at.borrow(), vec![SimTime(100), SimTime(500), SimTime(900)]);
        assert_eq!(sim.metrics.counter("fault.deferred"), 1);
    }

    #[test]
    fn trace_is_bit_for_bit_reproducible_with_faults() {
        let run = || {
            let mut sim = Sim::new(11);
            let b = sim.add_actor(Box::new(Pinger { peer: None, remaining: 0, log: vec![] }));
            sim.actors[0] = Box::new(Pinger { peer: Some(b), remaining: 4, log: vec![] });
            sim.enable_trace();
            sim.kill_at(SimTime(4_500_000), b);
            sim.run(10_000);
            (sim.trace_dump(), sim.trace_fingerprint())
        };
        let (d1, f1) = run();
        let (d2, f2) = run();
        assert_eq!(d1, d2, "same seed + same plan must replay identically");
        assert_eq!(f1, f2);
        assert!(d1.contains("drop-killed"), "{d1}");
    }

    #[test]
    fn trace_disabled_by_default_costs_nothing() {
        let mut sim: Sim<u32> = Sim::new(0);
        struct Sink;
        impl Actor<u32> for Sink {
            fn on_message(&mut self, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}
        }
        let a = sim.add_actor(Box::new(Sink));
        sim.inject(SimTime(1), a, 0);
        sim.run_to_completion();
        assert!(sim.trace().is_empty());
        assert_eq!(sim.trace_fingerprint(), crate::fault::trace_fingerprint(&[]));
    }

    #[test]
    fn timers_deliver_to_self() {
        struct T {
            fired: u32,
        }
        impl Actor<()> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.timer(SimDuration::from_secs(1), ());
            }
            fn on_message(&mut self, _msg: (), ctx: &mut Ctx<'_, ()>) {
                self.fired += 1;
                if self.fired < 3 {
                    ctx.timer(SimDuration::from_secs(1), ());
                }
            }
        }
        let mut sim: Sim<()> = Sim::new(0);
        let _ = sim.add_actor(Box::new(T { fired: 0 }));
        let end = sim.run_to_completion();
        assert_eq!(end, SimTime(3_000_000_000));
    }
}
