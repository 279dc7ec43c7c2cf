//! Every daemon walks the whole RPDTAB at bootstrap, so the walk must not
//! cost allocations per host: the host and exe tables are read as views of
//! the buffer, and only the rows a daemon keeps own strings. Counted in
//! allocations, which do not move between runs the way timings do.
//!
//! The counting allocator sees every thread, so this binary holds a single
//! test, and only the test thread's allocations inside [`counted`] count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lmon_proto::rpdtab::{synthetic_rpdtab, Rpdtab};
use lmon_proto::wire::WireEncode;
use lmon_proto::Bytes;

thread_local! {
    /// Allocations on this thread while counting, or `None` when not.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local, which does not allocate.
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

/// Allocations `f` makes on this thread.
fn counted(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.take()).expect("counting was on")
}

const TASKS_PER_HOST: usize = 4;

/// Allocations of one daemon's walk (`local_from_bytes` on a host present
/// at every size) and of one check (`check_bytes`) of a table of `hosts`
/// hosts.
fn walks(hosts: usize) -> (usize, usize) {
    let bytes = Bytes::from(synthetic_rpdtab(hosts, TASKS_PER_HOST, "app").to_bytes());
    let local = counted(|| {
        let (rows, table) = Rpdtab::local_from_bytes(bytes.clone(), "node00001").unwrap();
        assert_eq!((rows.len(), table.len()), (TASKS_PER_HOST, hosts * TASKS_PER_HOST));
    });
    let check = counted(|| {
        assert_eq!(Rpdtab::check_bytes(bytes.clone()).unwrap().len(), hosts * TASKS_PER_HOST);
    });
    (local, check)
}

#[test]
fn a_walk_costs_the_same_allocations_at_every_host_count() {
    let sizes = [32, 512, 2_048];
    let counts: Vec<(usize, usize)> = sizes.iter().map(|&hosts| walks(hosts)).collect();
    eprintln!("(local_from_bytes, check_bytes) allocations at {sizes:?} hosts: {counts:?}");
    assert!(
        counts.iter().all(|c| *c == counts[0]),
        "allocations of (local_from_bytes, check_bytes) grow with the host count: \
         {counts:?} at {sizes:?} hosts x {TASKS_PER_HOST} tasks"
    );
}
