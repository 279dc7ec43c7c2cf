//! A job's launch and kill cost per node, not per MPI task: a node's tasks
//! are one table entry, and the launcher keeps no thread once the job is
//! up. Counted in allocations, which do not move between runs the way
//! timings do, so the shape holds on any machine.
//!
//! The counting allocator sees every thread, so this binary holds a single
//! test. The test thread's own allocations while it waits for a launch to
//! publish are left out: how often it polls depends on timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use launchmon::cluster::config::ClusterConfig;
use launchmon::cluster::trace::TraceController;
use launchmon::cluster::VirtualCluster;
use launchmon::rm::api::{JobSpec, ResourceManager};
use launchmon::rm::{mpir, SlurmRm};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count() {
    if !UNCOUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only an atomic and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const NODES: usize = 32;

/// Allocations of one untraced launch of `NODES` x `tpn`, up to its
/// published table, and its kill.
fn launch_and_kill(cluster: &VirtualCluster, rm: &SlurmRm, tpn: usize) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let job = rm.launch_job(&JobSpec::new("app", NODES, tpn), false).unwrap();

    UNCOUNTED.with(|c| c.set(true));
    let deadline = Instant::now() + Duration::from_secs(10);
    let tasks = || cluster.compute_nodes().iter().map(|n| n.live_count()).sum::<usize>();
    while tasks() < NODES * tpn {
        assert!(Instant::now() < deadline, "the job's tasks never appeared");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (_fe, launcher) = cluster.find_proc(job.launcher_pid).unwrap();
    let tracer = TraceController::attach(job.launcher_pid, launcher.shared.clone()).unwrap();
    let table = loop {
        match mpir::fetch_proctable(&tracer) {
            Ok(table) => break table,
            Err(e) => assert!(Instant::now() < deadline, "the table never appeared: {e}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(table.len(), NODES * tpn);
    drop((tracer, launcher, table));
    UNCOUNTED.with(|c| c.set(false));

    rm.kill_job(&job).unwrap();
    assert_eq!(tasks(), 0, "the kill left tasks behind");
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn launch_and_kill_allocations_do_not_grow_with_tasks_per_node() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(NODES));
    let rm = SlurmRm::new(cluster.clone());
    // The first launch grows the tables and maps that later launches reuse.
    launch_and_kill(&cluster, &rm, 16);
    let narrow = launch_and_kill(&cluster, &rm, 16);
    let wide = launch_and_kill(&cluster, &rm, 128);
    // Slack for what a run's timing may add: a tracer attached before the
    // launcher's fork events grows their queue, a launcher thread exiting
    // frees its thread-locals. Neither depends on tasks per node.
    const SLACK: usize = 32;
    eprintln!("launch + kill allocations: {narrow} at 16 tasks per node, {wide} at 128");
    assert!(
        wide <= narrow + SLACK,
        "launch + kill made {narrow} allocations at 16 tasks per node and {wide} at 128: \
         more than {SLACK} more at 8x the tasks"
    );
}
