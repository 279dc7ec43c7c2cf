//! Reproducers for the accumulation defects found while sizing the
//! benchmark (README.md, "Defects found while sizing"). They are recorded,
//! not fixed; each prints what it observes.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench/Cargo.toml --example defects -- d1
//! cargo run --release --offline --manifest-path bench/Cargo.toml --example defects -- d2
//! cargo run --release --offline --manifest-path bench/Cargo.toml --example defects -- d3
//! cargo run --release --offline --manifest-path bench/Cargo.toml --example defects -- d4
//! ```

use std::time::Instant;

use launch_bench::direct::{launch, oneshot_body, proc_records, sweep_launchers, Instance};
use launch_bench::plan::{Op, Shape};
use launch_bench::stats::{ms, status_field};
use launchmon::daemon::{Daemon, DaemonConfig, Reply, Request};
use launchmon::tools::stat::{run_stat_launchmon, run_stat_launchmon_tree};

fn field(reply: &Reply, key: &str) -> Option<u64> {
    match reply {
        Reply::Ok(fields) => fields.iter().find(|(k, _)| k == key)?.1.parse().ok(),
        _ => None,
    }
}

fn launch_req(nodes: usize, tpn: usize, body: &str) -> Request {
    Request::Launch { app: "app".into(), nodes, tasks_per_node: tpn, body: body.into() }
}

/// D1: nobody calls `Node::reap`, so terminal process records fill the
/// 4096-entry per-node table.
fn d1() {
    let daemon = Daemon::new(DaemonConfig::default()).expect("daemon");
    for i in 1.. {
        let reply = daemon.dispatch(&launch_req(2, 2, "oneshot"));
        let Some(gsid) = field(&reply, "gsid") else {
            println!(
                "D1: default lmond (2 backends) refused launch {i}: {}",
                reply.render().trim()
            );
            break;
        };
        daemon.dispatch(&Request::Kill { gsid });
    }

    let inst = Instance::start(64, std::time::Duration::ZERO).expect("instance");
    let body = oneshot_body();
    let shape = Shape { nodes: 64, tpn: 64 };
    for i in 0..31 {
        let op = Op { app: format!("app{i}"), shape, due: std::time::Duration::ZERO };
        let l = launch(&inst.fe, &op, &body).expect("launch");
        let t = Instant::now();
        inst.fe.kill(l.sid).expect("kill");
        if i % 10 == 0 {
            println!(
                "D1: 64x64 session {i}: kill {:.1} ms, {} records",
                ms(t.elapsed()),
                proc_records(&inst.cluster)
            );
        }
    }
    inst.stop();
}

/// D2: killing a session whose body is parked in `wait_shutdown` (lmond's
/// default body `sleeper`) leaks the non-master daemons' threads.
fn d2() {
    let daemon = Daemon::new(DaemonConfig::default()).expect("daemon");
    println!("D2: threads before: {}", status_field("Threads"));
    for _ in 0..240 {
        let reply = daemon.dispatch(&launch_req(8, 1, "sleeper"));
        let gsid = field(&reply, "gsid").expect("launch");
        daemon.dispatch(&Request::Kill { gsid });
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
    println!("D2: threads after 240 killed 8-node sleeper sessions: {}", status_field("Threads"));
}

/// D3: `run_stat_launchmon_tree` never releases its middleware nodes, and
/// attach → detach sessions retain memory.
fn d3() {
    let inst = Instance::start(16, std::time::Duration::ZERO).expect("instance");
    let job = inst.start_job("mpi_app", Shape { nodes: 8, tpn: 4 }).expect("job");
    for call in 1..=2 {
        match run_stat_launchmon_tree(&inst.fe, job.launcher_pid, 8, 2) {
            Ok(_) => println!("D3: run_stat_launchmon_tree call {call}: ok"),
            Err(e) => println!("D3: run_stat_launchmon_tree call {call}: {e}"),
        }
    }
    inst.stop();

    let inst = Instance::start(32, std::time::Duration::ZERO).expect("instance");
    let job = inst.start_job("mpi_app", Shape { nodes: 32, tpn: 16 }).expect("job");
    let before = status_field("VmRSS");
    for _ in 0..200 {
        run_stat_launchmon(&inst.fe, job.launcher_pid, 32).expect("stat");
    }
    let grown = status_field("VmRSS") - before;
    println!(
        "D3: 200 attach->detach sessions at 32x16 grew RSS by {grown} kB ({:.1} kB each)",
        grown / 200.0
    );
}

/// D4: now and then a killed session leaves its RM launcher (`srun`)
/// running: a thread polling every 2 ms that pins its whole cluster. Seen
/// with two clients sharing one admission slot, as in `storm_open`.
fn d4() {
    let (daemons, sessions) = (10, 120);
    let mut left = 0;
    for _ in 0..daemons {
        let cfg = DaemonConfig { admission_limit: 1, ..DaemonConfig::default() };
        let daemon = Daemon::new(cfg).expect("daemon");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..sessions / 2 {
                        // Arrivals with idle time between them, as in an
                        // open loop.
                        std::thread::sleep(std::time::Duration::from_millis(8));
                        let reply = daemon.dispatch(&launch_req(8, 16, "oneshot"));
                        let gsid = field(&reply, "gsid").expect("launch");
                        daemon.dispatch(&Request::Kill { gsid });
                    }
                });
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        left += (0..)
            .map_while(|i| daemon.backend_fe(i))
            .map(|fe| sweep_launchers(fe.rm().cluster()))
            .sum::<usize>();
    }
    println!(
        "D4: {left} launchers still alive after {} killed sessions ({daemons} daemons, 2 threads each)",
        daemons * sessions
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("d1") => d1(),
        Some("d2") => d2(),
        Some("d3") => d3(),
        Some("d4") => d4(),
        _ => eprintln!("usage: defects d1|d2|d3|d4"),
    }
}
