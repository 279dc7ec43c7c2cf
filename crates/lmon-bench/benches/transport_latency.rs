//! `transport_latency` — the event-driven transport core, quantified.
//!
//! Measurements backing the ISSUE 3 and ISSUE 4 acceptance criteria:
//!
//! 1. **recv wakeup latency**: how long a parked consumer takes to observe
//!    a message, comparing the workspace's previous transport behavior —
//!    a `try_recv` sweep with a 200 µs park between sweeps, exactly what
//!    the vendored `select!` did before the condvar waker — against the
//!    condvar-driven `recv()` and the reworked event-driven `select!`.
//! 2. **mux fan-in throughput**: aggregate messages/second across K logical
//!    sessions multiplexed over *one* physical channel, against K dedicated
//!    channels (the pre-mux shape that cost K fds). Fan-in is cheap enough
//!    that both quick- and full-mode message counts are measured every run,
//!    so the committed artifact carries the mux/dedicated ratio for both.
//!
//! Results are printed and written to `BENCH_transport.json` at
//! the workspace root (CI uploads it as an artifact); the JSON carries a
//! `baseline` block (the rates PR 6 started from) so the trajectory is
//! self-describing. Quick mode for CI: set `LMON_BENCH_QUICK=1`.
//!
//! **Regression gate** ([`lmon_bench::gate`]): `mux_msgs_per_s` against the
//! committed `BENCH_transport.json`, with the same-run mux/dedicated ratio
//! as the hardware-neutral signal — a real mux regression moves the ratio.

use std::time::{Duration, Instant};

use std::sync::{Arc, Barrier};

use lmon_bench::gate::{self, int, median, num, obj, percentile, text, Better, Gate, Json};
use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::mux::SessionMux;
use lmon_proto::transport::{LocalChannel, MsgChannel};

/// The park interval the old polled `select!` used between sweeps.
const OLD_POLL_PARK: Duration = Duration::from_micros(200);

/// The mux rate PR 6 started from (PR 5's committed quick-mode artifact:
/// fixed batch-64 flushing, copying inbound decode, serialized engine
/// exchanges): the baseline the JSON artifact carries so any later reader
/// can see the trajectory without digging through git history.
const BASELINE_MUX_MSGS_PER_S: f64 = 1_332_027.0;

/// The artifact block of one wake-up path: median / p90 / mean, µs.
fn stats(samples: Vec<f64>) -> Json {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    obj([
        ("median", num(median(samples.clone()), 2)),
        ("p90", num(percentile(samples, 0.90), 2)),
        ("mean", num(mean, 2)),
    ])
}

/// One wakeup-latency run: a producer stamps `Instant::now()` into each
/// message; the consumer (already parked, the producer paces itself to
/// guarantee that) reports how stale the stamp is on arrival.
fn wakeup_latency(
    iters: usize,
    consume: impl FnOnce(crossbeam_channel::Receiver<Instant>) -> Vec<f64> + Send + 'static,
) -> Json {
    let (tx, rx) = crossbeam_channel::unbounded::<Instant>();
    let consumer = std::thread::spawn(move || consume(rx));
    for i in 0..iters {
        // Give the consumer time to drain and park again; the spacing is
        // varied (co-prime stride) so sends cannot phase-lock with a polled
        // consumer's park boundaries and flatter its average.
        let jitter = (i as u64 * 97) % 391;
        std::thread::sleep(Duration::from_micros(530 + jitter));
        tx.send(Instant::now()).unwrap();
    }
    drop(tx);
    stats(consumer.join().expect("consumer"))
}

/// Baseline: the pre-refactor behavior — poll `try_recv`, park 200 µs
/// between sweeps (what the vendored `select!` did on every miss).
fn polled_baseline(iters: usize) -> Json {
    wakeup_latency(iters, |rx| {
        let mut out = Vec::new();
        loop {
            match rx.try_recv() {
                Ok(stamp) => out.push(stamp.elapsed().as_secs_f64() * 1e6),
                Err(crossbeam_channel::TryRecvError::Empty) => {
                    std::thread::sleep(OLD_POLL_PARK);
                }
                Err(crossbeam_channel::TryRecvError::Disconnected) => return out,
            }
        }
    })
}

/// The condvar path: a plain blocking `recv()`.
fn condvar_recv(iters: usize) -> Json {
    wakeup_latency(iters, |rx| {
        let mut out = Vec::new();
        while let Ok(stamp) = rx.recv() {
            out.push(stamp.elapsed().as_secs_f64() * 1e6);
        }
        out
    })
}

/// The reworked `select!`: event-driven multi-channel wait (one silent
/// second arm, as in the comm-daemon loops).
fn select_recv(iters: usize) -> Json {
    wakeup_latency(iters, |rx| {
        let (_silent_tx, silent_rx) = crossbeam_channel::unbounded::<Instant>();
        let mut out = Vec::new();
        loop {
            let done = crossbeam_channel::select! {
                recv(rx) -> msg => match msg {
                    Ok(stamp) => {
                        out.push(stamp.elapsed().as_secs_f64() * 1e6);
                        false
                    }
                    Err(_) => true,
                },
                recv(silent_rx) -> _msg => unreachable!("silent arm never fires"),
            };
            if done {
                return out;
            }
        }
    })
}

fn usr_msg(tag: u16) -> LmonpMsg {
    LmonpMsg::of_type(MsgType::BeUsrData).with_tag(tag).with_usr_payload(vec![0xA5; 64])
}

/// Fan-in throughput over `links` — one (sender end, receiver end) pair per
/// session — in messages/second.
///
/// Steady-state: each sender pushes a warm-up burst, all senders rendezvous
/// on a barrier, and only the following `per_session` messages per session
/// are timed. The window is stamped inside the workers (first sender's
/// post-barrier start, last receiver's finish): the main thread may not get
/// scheduled between barrier release and workload completion on small
/// machines, so it cannot time the window itself.
fn fanin<C: MsgChannel + Send + 'static>(links: Vec<(C, C)>, per_session: usize) -> f64 {
    // Warm-up messages per session before the timed window opens: enough
    // for every thread to be running and the adaptive controller to ramp, so
    // both fan-in shapes report steady-state rates, not spawn transients.
    let warmup = (per_session / 4).min(1000);
    let sessions = links.len();
    let barrier = Arc::new(Barrier::new(sessions));
    let (senders, receivers): (Vec<_>, Vec<_>) = links
        .into_iter()
        .enumerate()
        .map(|(i, (tx, rx))| {
            let receiver = std::thread::spawn(move || {
                for _ in 0..warmup + per_session {
                    rx.recv().unwrap();
                }
                Instant::now()
            });
            let barrier = barrier.clone();
            let sender = std::thread::spawn(move || {
                for _ in 0..warmup {
                    tx.send(usr_msg(i as u16)).unwrap();
                }
                barrier.wait();
                let start = Instant::now();
                for _ in 0..per_session {
                    tx.send(usr_msg(i as u16)).unwrap();
                }
                start
            });
            (sender, receiver)
        })
        .unzip();
    let start = senders.into_iter().map(|h| h.join().unwrap()).min().expect("senders");
    let end = receivers.into_iter().map(|h| h.join().unwrap()).max().expect("receivers");
    (sessions * per_session) as f64 / (end - start).as_secs_f64()
}

/// K sessions multiplexed over *one* physical link.
fn mux_fanin(sessions: u16, per_session: usize) -> f64 {
    let (near, far) = SessionMux::pair();
    let links = (0..sessions).map(|i| (near.open(i).unwrap(), far.open(i).unwrap())).collect();
    fanin(links, per_session)
}

/// The pre-mux shape: K dedicated channels (K fds in a real deployment).
fn dedicated_fanin(sessions: u16, per_session: usize) -> f64 {
    fanin((0..sessions).map(|_| LocalChannel::pair()).collect(), per_session)
}

fn main() {
    let mode = gate::Mode::from_env();
    let iters = if mode.quick { 300 } else { 2000 };
    let sessions: u16 = 32;

    let polled = polled_baseline(iters);
    let condvar = condvar_recv(iters);
    let select = select_recv(iters);
    let median_of = |path: &Json| path.number("median").expect("declared by stats");
    let speedup = median_of(&polled) / median_of(&condvar);
    let select_speedup = median_of(&polled) / median_of(&select);
    println!(
        "wakeup speedup vs polled baseline: recv {speedup:.1}x, select {select_speedup:.1}x \
         (acceptance floor: 10x)"
    );

    // Throughput is reported best-of-N: on small/shared runners a single
    // rep is hostage to scheduling storms, and the best rep is the closest
    // observable to the machine's actual capability for every shape alike.
    let best_of = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(f64::MIN, f64::max);
    // Fan-in is cheap (sub-second even at full message counts), so measure
    // both modes' message counts every run: the committed artifact then
    // shows the mux/dedicated ratio for quick AND full mode.
    const FANIN_QUICK: usize = 500;
    const FANIN_FULL: usize = 4000;
    let mux_quick = best_of(&|| mux_fanin(sessions, FANIN_QUICK));
    let dedicated_quick = best_of(&|| dedicated_fanin(sessions, FANIN_QUICK));
    let mux_full = best_of(&|| mux_fanin(sessions, FANIN_FULL));
    let dedicated_full = best_of(&|| dedicated_fanin(sessions, FANIN_FULL));
    let (per_session, mux_rate, dedicated_rate) = if mode.quick {
        (FANIN_QUICK, mux_quick, dedicated_quick)
    } else {
        (FANIN_FULL, mux_full, dedicated_full)
    };

    println!(
        "32-session fan-in, mux vs dedicated: {:.2}x quick, {:.2}x full (>=1.0x means the mux \
         won); mux vs start-of-PR-6 mux: {:.2}x",
        mux_quick / dedicated_quick,
        mux_full / dedicated_full,
        mux_rate / BASELINE_MUX_MSGS_PER_S,
    );

    let fanin_mode = |per_session: usize, mux: f64, dedicated: f64| {
        obj([
            ("messages_per_session", int(per_session)),
            ("adaptive_msgs_per_s", num(mux, 0)),
            ("dedicated_msgs_per_s", num(dedicated, 0)),
        ])
    };
    let recv_wakeup_us = obj([
        ("polled", polled),
        ("condvar", condvar),
        ("select", select),
        ("speedup_recv", num(speedup, 2)),
        ("speedup_select", num(select_speedup, 2)),
    ]);
    let baseline = obj([
        ("pr", int(6)),
        ("note", text("rates at the start of PR 6: fixed batch-64, copying decode")),
        ("mux_msgs_per_s", num(BASELINE_MUX_MSGS_PER_S, 0)),
        ("dedicated_msgs_per_s", num(1_523_399.0, 0)),
    ]);
    let mux_fanin = obj([
        ("sessions", int(sessions as usize)),
        ("messages_per_session", int(per_session)),
        ("batch_mode", text("adaptive")),
        ("mux_msgs_per_s", num(mux_rate, 0)),
        ("dedicated_msgs_per_s", num(dedicated_rate, 0)),
        ("mux_physical_channels", int(1)),
        ("quick_mode", fanin_mode(FANIN_QUICK, mux_quick, dedicated_quick)),
        ("full_mode", fanin_mode(FANIN_FULL, mux_full, dedicated_full)),
        ("baseline", baseline),
    ]);
    gate::publish(
        "BENCH_transport.json",
        mode,
        [("recv_wakeup_us", recv_wakeup_us), ("mux_fanin", mux_fanin)],
        &Gate {
            row: &["mux_fanin"],
            metric: "mux_msgs_per_s",
            normalizer: "dedicated_msgs_per_s",
            better: Better::Higher,
        },
    );
}
