//! The work-stealing dispatch substrate of the real executor.
//!
//! One [`NodeQueues`] per node replaces the old central
//! `Mutex<ReadyQueue>` + token channel: each worker lane owns a local
//! queue it pushes and pops without contention, the global
//! [`ReadyQueue`] survives only as the *injector* — the overflow and
//! external-release queue — and a worker that runs dry sweeps the other
//! lanes' queues as a thief, in a victim order drawn from a seeded
//! per-worker RNG so a fixed [`crate::RunConfig::steal_seed`] reproduces
//! the same victim sequence run over run.
//!
//! The local queue comes in two flavors, chosen by the selector's
//! [`SelectMode`]:
//!
//! * **Fifo / Lifo** — a lock-free bounded Chase–Lev [`StealDeque`];
//!   the owner pops the top (FIFO) or bottom (LIFO) end, thieves always
//!   steal the top (oldest) end. A full deque spills to the injector
//!   (counted as an overflow push).
//! * **Rank** — a per-lane `Mutex<ReadyQueue>` heap: rank order with
//!   FIFO-by-seq ties is preserved *per queue* (the PR 7 scheduler
//!   contract), which a lock-free ring cannot express; sharding the lock
//!   per lane keeps contention off the hot path, and a thief simply pops
//!   the victim's best-ranked task.
//!
//! Parking uses a `Condvar` gate: a producer pushes, then acquires the
//! gate to notify, while a consumer checks emptiness *while holding the
//! gate* before waiting — so a wakeup can never fall into the
//! check-then-wait window. The wait still carries a timeout so stall
//! detection and shutdown flags are observed even without a notify.
//!
//! Every lane keeps three cumulative counters — `steals`,
//! `steal_fails`, `overflow_pushes` — surfaced per node in
//! [`obs::LiveSample`] and as end-of-run metrics.

use crate::deque::{Steal, StealDeque};
use crate::pending::ReadyTask;
use crate::ready_queue::ReadyQueue;
use crate::scheduler::{SelectMode, TaskSelector};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as GateMutex};
use std::time::Duration;

/// Capacity of each worker's local deque before pushes spill to the
/// injector. Sized so a stencil wavefront per worker fits comfortably;
/// spilling is correct, just slower, so this is a performance knob, not
/// a correctness bound.
pub(crate) const LOCAL_QUEUE_CAP: usize = 256;

/// Cumulative per-lane dispatch counters (relaxed atomics: telemetry,
/// not synchronization).
#[derive(Default)]
pub(crate) struct LaneStats {
    /// Tasks this lane obtained from another lane's queue.
    pub steals: AtomicU64,
    /// Full sweeps (own queue + injector + every victim) that found
    /// nothing — the "no work anywhere" signal starvation attribution
    /// keys on.
    pub steal_fails: AtomicU64,
    /// Local pushes that found the deque full and spilled to the
    /// injector.
    pub overflow_pushes: AtomicU64,
}

/// Totals of the per-lane counters, for samplers and end-of-run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StealTotals {
    pub steals: u64,
    pub steal_fails: u64,
    pub overflow_pushes: u64,
}

/// `xorshift64*` per-worker RNG for victim selection: deterministic for
/// a fixed `(seed, lane)`, decorrelated across lanes by a splitmix64
/// scramble of the lane index.
pub(crate) struct WorkerRng {
    state: u64,
}

impl WorkerRng {
    pub(crate) fn new(seed: u64, lane: u64) -> Self {
        // splitmix64 of seed ^ lane; never zero (xorshift fixpoint).
        let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        WorkerRng { state: z.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

enum LocalQueue {
    Stealable(StealDeque<ReadyTask>),
    Ranked(Mutex<ReadyQueue>),
}

struct Lane {
    queue: LocalQueue,
    stats: LaneStats,
}

/// One node's dispatch state: per-lane local queues, the injector, and
/// the parking gate.
pub(crate) struct NodeQueues {
    lanes: Vec<Lane>,
    injector: Mutex<ReadyQueue>,
    mode: SelectMode,
    gate: GateMutex<()>,
    cv: Condvar,
}

impl NodeQueues {
    /// Queues for `lanes` workers consulting `selector`.
    pub(crate) fn new(selector: Arc<dyn TaskSelector>, lanes: usize) -> Self {
        let mode = selector.mode();
        let lanes = (0..lanes)
            .map(|_| Lane {
                queue: match mode {
                    SelectMode::Fifo | SelectMode::Lifo => {
                        LocalQueue::Stealable(StealDeque::with_capacity(LOCAL_QUEUE_CAP))
                    }
                    SelectMode::Rank => {
                        LocalQueue::Ranked(Mutex::new(ReadyQueue::new(Arc::clone(&selector))))
                    }
                },
                stats: LaneStats::default(),
            })
            .collect();
        NodeQueues {
            lanes,
            injector: Mutex::new(ReadyQueue::new(selector)),
            mode,
            gate: GateMutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Publish one queued-task wakeup. The gate acquisition orders the
    /// preceding push before the notify relative to a parking consumer
    /// (see the module docs).
    fn notify_one(&self) {
        let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_one();
    }

    /// Wake every parked worker (shutdown / final-task broadcast).
    pub(crate) fn wake_all(&self) {
        let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// A worker submits a task released by its own completion: lands in
    /// the lane's local queue, spilling to the injector when the deque
    /// is full.
    pub(crate) fn push_local(&self, lane: usize, task: ReadyTask) {
        match &self.lanes[lane].queue {
            LocalQueue::Stealable(d) => {
                if let Err(task) = d.push(Box::new(task)) {
                    self.lanes[lane]
                        .stats
                        .overflow_pushes
                        .fetch_add(1, Ordering::Relaxed);
                    self.injector.lock().push(*task);
                }
            }
            LocalQueue::Ranked(q) => q.lock().push(task),
        }
        self.notify_one();
    }

    /// An external release (root task, comm-thread delivery) lands in
    /// the injector.
    pub(crate) fn push_external(&self, task: ReadyTask) {
        self.injector.lock().push(task);
        self.notify_one();
    }

    /// `lane`'s next task: own queue, then the injector, then a steal
    /// sweep over the other lanes in RNG order. `None` after a full
    /// failed sweep (counted as a steal fail).
    pub(crate) fn next_task(&self, lane: usize, rng: &mut WorkerRng) -> Option<ReadyTask> {
        if let Some(t) = self.pop_own(lane) {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().pop() {
            return Some(t);
        }
        let n = self.lanes.len();
        if n > 1 {
            let offset = (rng.next() % (n as u64 - 1)) as usize;
            for i in 0..n - 1 {
                let victim = (lane + 1 + (offset + i) % (n - 1)) % n;
                if let Some(t) = self.steal_from(victim) {
                    self.lanes[lane]
                        .stats
                        .steals
                        .fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
        }
        self.lanes[lane]
            .stats
            .steal_fails
            .fetch_add(1, Ordering::Relaxed);
        None
    }

    fn pop_own(&self, lane: usize) -> Option<ReadyTask> {
        match &self.lanes[lane].queue {
            // FIFO pops the steal (oldest) end so dispatch order matches
            // the old central queue; LIFO pops the cache-warm bottom.
            LocalQueue::Stealable(d) => match self.mode {
                SelectMode::Lifo => d.pop().map(|b| *b),
                _ => d.pop_top().map(|b| *b),
            },
            LocalQueue::Ranked(q) => q.lock().pop(),
        }
    }

    fn steal_from(&self, victim: usize) -> Option<ReadyTask> {
        match &self.lanes[victim].queue {
            LocalQueue::Stealable(d) => loop {
                match d.steal() {
                    Steal::Success(t) => return Some(*t),
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => return None,
                }
            },
            LocalQueue::Ranked(q) => q.lock().pop(),
        }
    }

    /// Park until notified or `timeout`, re-checking emptiness under the
    /// gate so a concurrent push cannot be missed. Returns immediately
    /// when work is already visible.
    pub(crate) fn park(&self, timeout: Duration) {
        let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if self.len() > 0 {
            return;
        }
        let _ = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
    }

    /// Tasks currently queued on this node (all local queues plus the
    /// injector) — the `ready_depth` gauge.
    pub(crate) fn len(&self) -> usize {
        let local: usize = self
            .lanes
            .iter()
            .map(|l| match &l.queue {
                LocalQueue::Stealable(d) => d.len(),
                LocalQueue::Ranked(q) => q.lock().len(),
            })
            .sum();
        local + self.injector.lock().len()
    }

    /// Cumulative steal/overflow counters summed over this node's lanes.
    pub(crate) fn totals(&self) -> StealTotals {
        let mut t = StealTotals::default();
        for l in &self.lanes {
            t.steals += l.stats.steals.load(Ordering::Relaxed);
            t.steal_fails += l.stats.steal_fails.load(Ordering::Relaxed);
            t.overflow_pushes += l.stats.overflow_pushes.load(Ordering::Relaxed);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FifoSelector, LifoSelector, StaticRanks};
    use crate::task::TaskKey;
    use std::collections::HashMap;

    fn task(i: i32) -> ReadyTask {
        ReadyTask {
            key: TaskKey::new(0, [i, 0, 0, 0]),
            inputs: Vec::new(),
        }
    }

    fn drain(q: &NodeQueues, lane: usize) -> Vec<i32> {
        let mut rng = WorkerRng::new(7, lane as u64);
        std::iter::from_fn(|| q.next_task(lane, &mut rng))
            .map(|t| t.key.params[0])
            .collect()
    }

    #[test]
    fn local_fifo_preserves_push_order() {
        let q = NodeQueues::new(Arc::new(FifoSelector), 1);
        for i in 0..5 {
            q.push_local(0, task(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&q, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn local_lifo_reverses_push_order() {
        let q = NodeQueues::new(Arc::new(LifoSelector), 1);
        for i in 0..5 {
            q.push_local(0, task(i));
        }
        assert_eq!(drain(&q, 0), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn ranked_lane_pops_by_rank_with_fifo_ties() {
        let table: HashMap<TaskKey, i64> = [(0, 0i64), (1, 5), (2, 0), (3, 5)]
            .into_iter()
            .map(|(i, r)| (TaskKey::new(0, [i, 0, 0, 0]), r))
            .collect();
        let q = NodeQueues::new(Arc::new(StaticRanks::new(table)), 1);
        for i in 0..4 {
            q.push_local(0, task(i));
        }
        assert_eq!(drain(&q, 0), vec![1, 3, 0, 2]);
    }

    #[test]
    fn empty_lane_steals_from_the_loaded_one() {
        let q = NodeQueues::new(Arc::new(FifoSelector), 4);
        for i in 0..8 {
            q.push_local(0, task(i));
        }
        let mut rng = WorkerRng::new(42, 3);
        let got = q.next_task(3, &mut rng).expect("steal finds work");
        // Steals take the victim's oldest task.
        assert_eq!(got.key.params[0], 0);
        assert_eq!(q.totals().steals, 1);
        assert_eq!(q.totals().steal_fails, 0);
    }

    #[test]
    fn failed_sweep_counts_a_steal_fail() {
        let q = NodeQueues::new(Arc::new(FifoSelector), 3);
        let mut rng = WorkerRng::new(1, 0);
        assert!(q.next_task(0, &mut rng).is_none());
        assert_eq!(q.totals().steal_fails, 1);
    }

    #[test]
    fn injector_feeds_any_lane() {
        let q = NodeQueues::new(Arc::new(FifoSelector), 2);
        q.push_external(task(9));
        let mut rng = WorkerRng::new(1, 1);
        assert_eq!(q.next_task(1, &mut rng).unwrap().key.params[0], 9);
    }

    #[test]
    fn overflow_spills_to_injector_and_nothing_is_lost() {
        let q = NodeQueues::new(Arc::new(FifoSelector), 1);
        let n = (LOCAL_QUEUE_CAP + 10) as i32;
        for i in 0..n {
            q.push_local(0, task(i));
        }
        assert_eq!(q.totals().overflow_pushes, 10);
        assert_eq!(q.len(), n as usize);
        let drained = drain(&q, 0);
        assert_eq!(drained.len(), n as usize);
        // Every task appears exactly once.
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn victim_order_is_seed_stable() {
        let order = |seed: u64| {
            let q = NodeQueues::new(Arc::new(FifoSelector), 8);
            // One task on every other lane; record which victim lane 0's
            // successive sweeps hit first.
            for lane in 1..8 {
                q.push_local(lane, task(lane as i32));
            }
            let mut rng = WorkerRng::new(seed, 0);
            std::iter::from_fn(|| q.next_task(0, &mut rng))
                .map(|t| t.key.params[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(order(123), order(123), "same seed, same victim order");
        assert_eq!(order(123).len(), 7);
    }

    #[test]
    fn park_returns_promptly_when_work_is_queued() {
        let q = NodeQueues::new(Arc::new(FifoSelector), 1);
        q.push_external(task(0));
        let start = std::time::Instant::now();
        q.park(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
