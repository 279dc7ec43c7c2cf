//! A session's lifecycle as one pure table (drawn in DESIGN.md §11): it
//! calls no RM, takes no lock, holds no channel, reads no clock and
//! allocates nothing. One command places at a time, and an end waits for
//! it, so no record leaves while a worker holds what it has not filed.

use lmon_proto::header::MsgType::{self, FeAttachReq, FeLaunchReq, FeSpawnMwReq};
use lmon_proto::payload::JobStatus::{self, Detached, Killed};

/// Where a session is: no record (never minted, or torn down); minted, with
/// nothing placed; placing `cmd`; placing, with a kill or detach waiting
/// for the worker; or live, with nothing placing.
#[derive(Clone)]
enum Phase<R> {
    Gone,
    Minted,
    Placing { cmd: MsgType },
    Ending { end: JobStatus, reply: R },
    Live,
}

/// A session's phase, and whether it holds a job: a launch or attach acked.
#[derive(Clone)]
pub(super) struct Life<R> {
    phase: Phase<R>,
    job: bool,
}

/// What happens to a session: a launch, attach or MW spawn arrives; its
/// worker files what it placed (or asks whether to go on), acks or fails;
/// or a kill or detach arrives, to be answered through `R`.
pub(super) enum Event<R> {
    Spawn(MsgType),
    Placed,
    Ack,
    Fail,
    End(JobStatus, R),
}

/// What the shell does: go on (queue the command, file what the step placed
/// or send the ack); file it and stop, for an end waits; do nothing and stop;
/// or unfile the record and tear down all it holds. An end handed back is
/// answered, with the status or with an error naming the session and why.
pub(super) enum Effect<R> {
    Go,
    Stop,
    Refuse(&'static str, Option<R>),
    TearDown(Result<JobStatus, &'static str>, Option<R>),
}

impl<R> Life<R> {
    /// A freshly minted session, and what an id with no record answers to.
    pub(super) const MINTED: Self = Life { phase: Phase::Minted, job: false };
    pub(super) const GONE: Self = Life { phase: Phase::Gone, job: false };

    /// The table: move the session on by `event`, and say what to do.
    pub(super) fn on(&mut self, event: Event<R>) -> Effect<R> {
        use Effect::{Go, Refuse, Stop, TearDown};
        use Event::{Ack, End, Fail, Placed, Spawn};
        let (next, effect) = match (std::mem::replace(&mut self.phase, Phase::Gone), event) {
            (Phase::Gone, Spawn(_)) => (Phase::Gone, Refuse("is not open", None)),
            (p @ Phase::Ending { .. }, Spawn(_)) => (p, Refuse("is ending", None)),
            (p @ Phase::Placing { .. }, Spawn(_)) => (p, Refuse("is placing", None)),
            (p, Spawn(FeLaunchReq | FeAttachReq)) if self.job => (p, Refuse("holds a job", None)),
            (_, Spawn(cmd)) => (Phase::Placing { cmd }, Go),
            (p @ Phase::Placing { .. }, Placed) => (p, Go),
            (p @ Phase::Ending { .. }, Placed) => (p, Stop),
            (p @ Phase::Ending { .. }, Ack) => (p, Refuse("is ending", None)),
            (Phase::Placing { cmd }, Ack) => {
                self.job |= cmd != FeSpawnMwReq;
                (Phase::Live, Go)
            }
            (Phase::Placing { cmd: FeSpawnMwReq }, Fail) => (Phase::Live, Go),
            (Phase::Placing { cmd: FeLaunchReq }, Fail) => {
                (Phase::Gone, TearDown(Ok(Killed), None))
            }
            (Phase::Placing { .. }, Fail) => (Phase::Gone, TearDown(Ok(Detached), None)),
            (Phase::Ending { end, reply }, Fail) => (Phase::Gone, TearDown(Ok(end), Some(reply))),
            (p, Placed | Ack | Fail) => (p, Refuse("is not placing", None)),
            (Phase::Gone, End(_, reply)) => (Phase::Gone, Refuse("has no job", Some(reply))),
            (Phase::Minted, End(_, r)) => (Phase::Gone, TearDown(Err("has no job"), Some(r))),
            (p @ Phase::Ending { .. }, End(_, reply)) => (p, Refuse("is ending", Some(reply))),
            (Phase::Placing { .. }, End(end, reply)) => (Phase::Ending { end, reply }, Go),
            (_, End(end, reply)) => (Phase::Gone, TearDown(Ok(end), Some(reply))),
        };
        self.phase = next;
        effect
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive checker. A model of the engine's shell (`Engine::step`
    //! and the calls that feed it) drives the table through every schedule
    //! of up to two spawn-bearing commands and one or two ends on one minted
    //! session, where any RM call may fail, and checks how each one ends.
    use super::*;

    /// An actor's next step. A command arrives, files its first and second
    /// resource (its job or MW nodes, then its daemons) and acks; a worker
    /// that is refused or stopped fails. An end arrives, once.
    #[derive(Clone, Copy)]
    enum Next {
        Arrive,
        Place(usize),
        Ack,
        Fail,
        Done,
    }

    /// The session's record: its life, its job slot (filing a job replaces
    /// what is there, as `EngineSession::job` does) and the other resources
    /// it holds, one bit each. Resource `2c + k` is command `c`'s `k`-th.
    #[derive(Clone)]
    struct Record {
        life: Life<usize>,
        job: Option<usize>,
        held: u8,
    }

    /// What a step files if the table lets it: resource `r` (in the job slot
    /// or not), or command `c`'s ack.
    #[derive(Clone, Copy)]
    enum Put {
        Nothing,
        File(usize, bool),
        Ack(usize),
    }

    /// The shell, its one record and its actors: commands 0 and 1, and ends
    /// 2 (a kill) and 3 (a detach). A reply is its actor's index.
    #[derive(Clone)]
    struct World {
        cmds: [Option<MsgType>; 2],
        ends: usize,
        next: [Next; 4],
        record: Option<Record>,
        placed: [u8; 4],
        torn: [u8; 4],
        answered: [u8; 4],
        ended: bool,
        late_ack: bool,
    }

    impl World {
        /// Just after the mint: the table holds one record more.
        fn new(cmds: [Option<MsgType>; 2], ends: usize) -> Self {
            let on = |yes: bool| if yes { Next::Arrive } else { Next::Done };
            let next = [on(cmds[0].is_some()), on(cmds[1].is_some()), on(ends > 0), on(ends > 1)];
            let record = Some(Record { life: Life::MINTED, job: None, held: 0 });
            let (placed, torn, answered, ended, late_ack) = ([0; 4], [0; 4], [0; 4], false, false);
            World { cmds, ends, next, record, placed, torn, answered, ended, late_ack }
        }

        /// `Engine::step`: the verdict, what `put` files (or sends) under it,
        /// the teardown and the replies. Whether the caller goes on.
        fn step(&mut self, event: Event<usize>, put: Put) -> bool {
            let mut gone = Life::GONE;
            let effect = self.record.as_mut().map_or(&mut gone, |r| &mut r.life).on(event);
            if let (Effect::Go | Effect::Stop, Some(record)) = (&effect, self.record.as_mut()) {
                match put {
                    Put::Nothing => {}
                    Put::File(r, true) => record.job = Some(r),
                    Put::File(r, false) => record.held |= 1 << r,
                    Put::Ack(c) => {
                        self.answered[c] += 1;
                        self.late_ack |= self.ended;
                    }
                }
            }
            let (go, reply) = match effect {
                Effect::Go => (true, None),
                Effect::Stop => (false, None),
                Effect::Refuse(_, reply) => (false, reply),
                Effect::TearDown(_, reply) => {
                    if let Some(record) = self.record.take() {
                        let held = |r: usize| record.job == Some(r) || record.held & 1 << r != 0;
                        (0..4).filter(|&r| held(r)).for_each(|r| self.torn[r] += 1);
                    }
                    self.ended = true;
                    (true, reply)
                }
            };
            if let Some(reply) = reply {
                self.answered[reply] += 1;
            }
            go
        }

        /// The moves open now: an actor, and whether its RM call succeeds.
        fn moves(&self) -> Vec<(usize, bool)> {
            let mut moves = Vec::new();
            for (actor, next) in self.next.iter().enumerate() {
                match next {
                    Next::Done => {}
                    Next::Place(_) => moves.extend([(actor, true), (actor, false)]),
                    _ => moves.push((actor, true)),
                }
            }
            moves
        }

        /// Take `actor`'s next step, as the engine's caller or worker does. A
        /// guard that feeds the table runs once; its arm is the step's result.
        fn apply(&mut self, actor: usize, rm_ok: bool) {
            let Some(cmd) = self.cmds.get(actor).copied().flatten() else {
                let end = if actor == 2 { Killed } else { Detached };
                self.step(Event::End(end, actor), Put::Nothing);
                self.next[actor] = Next::Done;
                return;
            };
            let next = self.next[actor];
            self.next[actor] = match next {
                Next::Arrive if self.step(Event::Spawn(cmd), Put::Nothing) => Next::Place(0),
                Next::Arrive => {
                    self.answered[actor] += 1; // `accept` answers the refusal
                    Next::Done
                }
                Next::Place(k) if rm_ok => {
                    let r = 2 * actor + k;
                    self.placed[r] += 1;
                    let job = k == 0 && cmd != FeSpawnMwReq;
                    match (self.step(Event::Placed, Put::File(r, job)), k) {
                        (false, _) => Next::Fail,
                        (true, 0) => Next::Place(1),
                        (true, _) => Next::Ack,
                    }
                }
                Next::Ack if self.step(Event::Ack, Put::Ack(actor)) => Next::Done,
                Next::Ack => Next::Fail,
                Next::Place(_) | Next::Fail | Next::Done => {
                    self.step(Event::Fail, Put::Nothing);
                    self.answered[actor] += 1; // `handle` sends the error
                    Next::Done
                }
            };
        }

        /// Who an actor is, in a schedule: "launch A", "kill", ...
        fn who(&self, actor: usize) -> String {
            let name = ["A", "B"].get(actor).copied().unwrap_or_default();
            match self.cmds.get(actor).copied().flatten() {
                Some(FeLaunchReq) => format!("launch {name}"),
                Some(FeAttachReq) => format!("attach {name}"),
                Some(_) => format!("mw spawn {name}"),
                None => ["", "", "kill", "detach"][actor].to_string(),
            }
        }

        /// What resource `r` is: its command's job or MW nodes, or daemons.
        fn resource(&self, r: usize) -> &'static str {
            let first = if self.cmds[r / 2] == Some(FeSpawnMwReq) { "nodes" } else { "job" };
            [first, "daemons"][r % 2]
        }

        /// `actor`'s next step, in words.
        fn describe(&self, actor: usize, rm_ok: bool) -> String {
            let who = self.who(actor);
            match self.next[actor] {
                Next::Arrive => format!("{who} arrives"),
                Next::Place(k) if rm_ok => {
                    format!("{who} files its {}", self.resource(2 * actor + k))
                }
                Next::Place(_) => format!("{who}'s RM call fails"),
                Next::Ack => format!("{who} acks"),
                Next::Fail | Next::Done => format!("{who} fails"),
            }
        }

        /// What a schedule got wrong, once every actor is done.
        fn fault(&self) -> Option<String> {
            if let Some(r) = (0..4).find(|&r| self.torn[r] != self.placed[r]) {
                let (who, what, n) = (self.who(r / 2), self.resource(r), self.torn[r]);
                return Some(format!("{who}'s {what}: torn down {n} times, not once"));
            }
            let actors = [self.cmds[0].is_some(), self.cmds[1].is_some(), true, self.ends > 1];
            if let Some(a) = (0..4).find(|&a| actors[a] && self.answered[a] != 1) {
                let (who, n) = (self.who(a), self.answered[a]);
                return Some(format!("{who}: answered {n} times, not once"));
            }
            if self.late_ack {
                return Some("a command acks after its session's end was answered".into());
            }
            self.record.as_ref().map(|_| "the record outlives every end".into())
        }
    }

    /// What the schedules run so far came to: how many, and the shortest
    /// faulty one, with its fault.
    #[derive(Default)]
    struct Verdict {
        schedules: u64,
        shortest: Option<(Vec<String>, String)>,
    }

    /// Run every schedule that goes on from `world`; `path` holds the steps
    /// that led there.
    fn explore(world: &World, path: &mut Vec<String>, verdict: &mut Verdict) {
        let moves = world.moves();
        if moves.is_empty() {
            verdict.schedules += 1;
            let shorter = |(p, _): &(Vec<String>, String)| path.len() < p.len();
            if let Some(fault) =
                world.fault().filter(|_| verdict.shortest.as_ref().is_none_or(shorter))
            {
                verdict.shortest = Some((path.clone(), fault));
            }
        }
        for (actor, rm_ok) in moves {
            let mut next = world.clone();
            path.push(next.describe(actor, rm_ok));
            next.apply(actor, rm_ok);
            explore(&next, path, verdict);
            path.pop();
        }
    }

    /// Each placed resource is torn down exactly once, each reply answered
    /// exactly once, no ack follows its session's answered end, and the
    /// table ends where it was before the mint, whatever the schedule.
    #[test]
    fn every_schedule_tears_down_once_and_answers_once() {
        let kinds = [None, Some(FeLaunchReq), Some(FeAttachReq), Some(FeSpawnMwReq)];
        let mut verdict = Verdict::default();
        let pairs = kinds.iter().flat_map(|&a| kinds.map(|b| [a, b]));
        // `[None, b]` is `[b, None]` with its command renamed: run only that.
        for cmds in pairs.filter(|[a, b]| a.is_some() || b.is_none()) {
            for ends in [1, 2] {
                let world = World::new(cmds, ends);
                let ends = ["a kill", "a kill and a detach"][ends - 1];
                let cmds: Vec<String> =
                    (0..2).filter(|&c| world.cmds[c].is_some()).map(|c| world.who(c)).collect();
                let mut path = vec![format!("[{}] with {ends}:", cmds.join(", "))];
                explore(&world, &mut path, &mut verdict);
            }
        }
        if let Some((path, fault)) = verdict.shortest {
            let steps = path[1..].join("; ");
            panic!(
                "minimal counterexample, {} steps: {} {steps}\n  => {fault}",
                path.len() - 1,
                path[0]
            );
        }
        assert!(verdict.schedules > 4_000, "only {} schedules", verdict.schedules);
    }
}
