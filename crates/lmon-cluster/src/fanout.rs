//! Bounded worker-pool fan-out over an indexed work list.
//!
//! [`fanout`] runs N independent items whose *results* must come back in
//! item order even though the *work* may complete in any order, on a
//! bounded pool of scoped threads: items are claimed from an atomic index
//! dispenser, each worker writes its result into the slot matching the
//! item's index, and the caller gets back a `Vec` aligned with the input.
//! Its caller on the launch path is `lmon-tbon`'s rsh bootstrap, whose
//! spawns each go through an admitted rsh ticket. The RM's daemon spawn
//! does not use it: creating and joining the pool's threads cost more than
//! the spawns it ran, so that spawn places its daemons in waves on the
//! calling thread ([`VirtualCluster::spawn_active_waves`](crate::VirtualCluster::spawn_active_waves)).
//! Determinism of anything order-sensitive (pids, ranks) is the
//! *caller's* job — reserve identifiers up front (see
//! [`VirtualCluster::reserve_pids`](crate::VirtualCluster::reserve_pids))
//! and hand each item its pre-assigned value.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Run `work(index, item)` over every item on at most `max_workers`
/// threads, returning results in input order.
///
/// * `max_workers == 0` or `1` degrades to a plain in-thread loop (the
///   sequential baseline, bit-for-bit).
/// * Workers claim items through an atomic dispenser, so completion order
///   is irrelevant: slot `i` always holds the result for item `i`.
/// * `work` runs once per item; panics in `work` propagate out of the
///   scope (no result is silently dropped).
pub fn fanout<T, R, F>(items: Vec<T>, max_workers: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = max_workers.min(n);
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, it)| work(i, it)).collect();
    }

    // Items are parked in per-index cells; each is taken exactly once by
    // whichever worker claims that index. Results land in matching cells.
    let work_cells: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let result_cells: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let dispenser = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = dispenser.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work_cells[i].lock().take().expect("each index claimed once");
                let out = work(i, item);
                *result_cells[i].lock() = Some(out);
            });
        }
    });

    result_cells
        .into_iter()
        .map(|cell| cell.into_inner().expect("every slot filled by its worker"))
        .collect()
}

/// The house default width of a launch-path spawn: how many spawns share
/// one charge of [`spawn_latency`](crate::ClusterConfig::spawn_latency),
/// as a wave of [`spawn_active_waves`](crate::VirtualCluster::spawn_active_waves)
/// or as [`fanout`]'s worker count.
///
/// It models how many node agents fork at once; it does not hide thread
/// creation. On a 2-vCPU host, 32 zero-latency spawns took a median
/// 1.17 ms through an 8-worker `fanout` and 0.52 ms in waves on the
/// calling thread: the pool's own threads cost more than they overlap.
pub const DEFAULT_LAUNCH_WORKERS: usize = 8;

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the pool's own tests")]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_align_with_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = fanout(items, 7, |i, item| {
            assert_eq!(i, item);
            item * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_worker_run_inline() {
        for workers in [0, 1] {
            let out = fanout(vec![10, 20, 30], workers, |i, item| (i, item));
            assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out: Vec<u32> = fanout(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_bounded() {
        // With 2 workers over slow items, concurrency never exceeds 2.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        fanout((0..16).collect::<Vec<_>>(), 2, |_, item: i32| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            item
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn errors_come_back_in_their_slots() {
        let out = fanout((0..8).collect::<Vec<_>>(), 4, |_, item: u32| {
            if item.is_multiple_of(3) {
                Err(item)
            } else {
                Ok(item)
            }
        });
        for (i, r) in out.iter().enumerate() {
            let i = i as u32;
            if i.is_multiple_of(3) {
                assert_eq!(*r, Err(i));
            } else {
                assert_eq!(*r, Ok(i));
            }
        }
    }
}
