//! The real engine: real threads, real task bodies, wall-clock time —
//! one worker pool per node, and one communication thread per node
//! carrying cross-node flows over channels.
//!
//! This is the runtime the paper's experiments exercise, realized with
//! actual concurrency instead of virtual time. On one node
//! ([`RunConfig::shared_memory`]) it is Figure 6's single-node setup
//! ("no network communication"): every task runs on node 0 whatever its
//! declared placement, no comm thread is spawned, and inter-task flows
//! are `Arc` hand-offs through the activation table. On several nodes
//! ([`RunConfig::multi_process`]) it has the paper's process layout
//! (workers + one comm thread per node): message arrival order is
//! genuinely nondeterministic, so a run that matches the sequential
//! reference bit for bit demonstrates that the dataflow (activation
//! counts, slots, CA exchange cadence) is correct under races, not just
//! under the simulator's deterministic schedule. It measures wall-clock
//! time but applies no performance model.
//!
//! Within a node, dispatch is the work-stealing substrate in
//! `crate::dispatch`: each worker owns a bounded Chase–Lev deque
//! ([`crate::deque::StealDeque`]) it pushes its released successors into
//! and pops without locking; the node's
//! [`crate::ready_queue::ReadyQueue`] survives only as the injector
//! (roots, comm-thread deliveries, deque overflow), and a worker that
//! runs dry steals from its peers in a seeded-deterministic victim order
//! before parking. Activation counting goes through the node's
//! lock-sharded [`ShardedPending`] table: one completing task delivers
//! all its node-local output flows with a single lock acquisition per
//! touched shard. Under the default FIFO policy with one worker the
//! dispatch order is exactly the old central-queue order; with several
//! workers it is seed-stable (same victim sequence under a fixed
//! [`RunConfig::steal_seed`]) but interleaving-dependent — see
//! `docs/EXECUTOR.md` for the full determinism contract.
//!
//! Every task execution is recorded as a span (worker index = lane
//! within the node); a comm thread records its delivery processing on
//! the node's comm lane (lane = threads per node) plus one message span
//! per cross-node flow, mirroring the simulator's trace layout. Runtime
//! events — including steal, steal-fail and overflow counts — feed the
//! metric registry and the per-node live samples.
//!
//! A failing run fails fast: a panicking task body, a stalled worker
//! (~10 s without global progress) or a double delivery unwinds its
//! thread, and the unwinding thread stops every other worker, comm
//! thread and the sampler before the panic propagates.

use crate::dispatch::{NodeQueues, StealTotals, WorkerRng};
use crate::exec::{assemble_report, ExecMode, ModeExt, RunConfig, RunReport};
use crate::pending::{Delivery, PendingTable, ReadyTask, ShardedPending};
use crate::scheduler::{SchedContext, TaskSelector};
use crate::task::{FlowData, Program, TaskKey};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use obs::{
    lane_busy_in_window, names, Live, LiveSample, LocalRecorder, Metrics, MsgRecorder, Recorder,
    WallClock,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

enum CommItem {
    Flow {
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        /// Sending node, for the message span's `src`.
        src: u32,
        /// Kind tag of the producing task, stamped into the message span.
        kind: u32,
        /// Wall-clock instant the producer handed the flow to the channel
        /// — the message span's enqueue timestamp; the gap to the comm
        /// thread's dequeue is real channel queueing.
        enqueue_ns: u64,
    },
    Shutdown,
}

struct Node {
    pending: ShardedPending,
    queues: NodeQueues,
    /// The comm thread's inbox (never read on a one-node run, which
    /// spawns no comm thread).
    comm_tx: Sender<CommItem>,
    comm_rx: Receiver<CommItem>,
}

struct Shared<'p> {
    program: &'p Program,
    selector: Arc<dyn TaskSelector>,
    nodes: Vec<Node>,
    threads: usize,
    steal_seed: u64,
    completed: AtomicU64,
    done: AtomicBool,
    cross_flows: AtomicU64,
    metrics: Metrics,
    clock: WallClock,
}

impl<'p> Shared<'p> {
    /// The node `key` runs on: node 0 on a one-node run (placement is
    /// never consulted), else the selector's override or the class's
    /// owner-computes placement.
    fn node_of(&self, key: TaskKey) -> usize {
        if self.nodes.len() == 1 {
            return 0;
        }
        let n = self
            .selector
            .place(key)
            .map(|n| n as usize)
            .unwrap_or_else(|| self.program.graph.class(key.class).node_of(key.params) as usize);
        assert!(
            n < self.nodes.len(),
            "{key:?} placed on node {n} of {}",
            self.nodes.len()
        );
        n
    }

    /// Execute one ready task on `lane` of `node`; returns true when it
    /// was the final task. Node-local output flows are delivered as one
    /// sharded batch and the released tasks land in this lane's own
    /// deque; cross-node flows go to the destination's comm thread.
    fn run_task(
        &self,
        node: usize,
        mut ready: ReadyTask,
        lane: u32,
        local: &LocalRecorder,
    ) -> bool {
        let class = self.program.graph.class(ready.key.class);
        let kind = self.program.graph.kind_of(ready.key);
        let start_ns = self.clock.now_ns();
        let outputs = class.execute(ready.key.params, &mut ready.inputs);
        local.task_instance(
            node as u32,
            lane,
            kind,
            ready.key.instance_id(),
            start_ns,
            self.clock.now_ns(),
        );
        let deps = class.outputs(ready.key.params);
        let mut batch = Vec::with_capacity(deps.len());
        for dep in deps {
            let data = outputs
                .get(dep.flow)
                .unwrap_or_else(|| {
                    panic!(
                        "{:?}: execute produced {} flows but outputs reference flow {}",
                        ready.key,
                        outputs.len(),
                        dep.flow
                    )
                })
                .clone();
            let dst = self.node_of(dep.consumer);
            if dst == node {
                batch.push(Delivery {
                    consumer: dep.consumer,
                    slot: dep.slot,
                    data,
                });
            } else {
                self.cross_flows.fetch_add(1, Ordering::Relaxed);
                self.metrics.counter(names::MESSAGES_SENT).inc();
                self.metrics
                    .counter(names::BYTES_SENT)
                    .add(data.bytes as u64);
                self.nodes[dst]
                    .comm_tx
                    .send(CommItem::Flow {
                        consumer: dep.consumer,
                        slot: dep.slot,
                        data,
                        src: node as u32,
                        kind,
                        enqueue_ns: self.clock.now_ns(),
                    })
                    .expect("comm channel closed");
            }
        }
        let queues = &self.nodes[node].queues;
        for t in self.nodes[node]
            .pending
            .deliver_batch(&self.program.graph, batch)
        {
            queues.push_local(lane as usize, t);
        }
        self.metrics.counter(names::TASKS_EXECUTED).inc();
        let redundant = class.redundant_flops(ready.key.params);
        if redundant > 0 {
            self.metrics.counter(names::REDUNDANT_FLOPS).add(redundant);
        }
        self.metrics
            .gauge(names::QUEUE_DEPTH)
            .set(queues.len() as i64);
        self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.program.total_tasks
    }

    /// Flip the done flag and wake every worker, comm thread and the
    /// sampler: the final-task path and the unwinding path alike.
    fn shutdown_all(&self) {
        self.done.store(true, Ordering::Release);
        for n in &self.nodes {
            n.queues.wake_all();
            let _ = n.comm_tx.send(CommItem::Shutdown);
        }
    }
}

/// Held by every worker and comm thread: if the thread unwinds (a
/// panicking body, a stall, a double delivery), stop the whole run so the
/// scope joins promptly and propagates the panic instead of leaving the
/// other threads to idle until their own stall detectors fire.
struct ShutdownOnUnwind<'a, 'p>(&'a Shared<'p>);

impl Drop for ShutdownOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.shutdown_all();
        }
    }
}

fn worker(shared: &Shared<'_>, node: usize, lane: u32, local: &LocalRecorder) {
    let _guard = ShutdownOnUnwind(shared);
    // Decorrelate lanes across nodes: each (node, lane) pair gets its
    // own deterministic victim sequence (node 0 uses the seed as is).
    let mut rng = WorkerRng::new(
        shared.steal_seed ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        lane as u64,
    );
    let queues = &shared.nodes[node].queues;
    // If the graph deadlocks (inconsistent declarations), fail loudly
    // instead of hanging: ~10 s without any global progress trips a panic.
    let mut idle_rounds = 0u32;
    let mut last_seen = shared.completed.load(Ordering::Acquire);
    loop {
        if shared.done.load(Ordering::Acquire) {
            return;
        }
        if let Some(t) = queues.next_task(lane as usize, &mut rng) {
            idle_rounds = 0;
            if shared.run_task(node, t, lane, local) {
                shared.shutdown_all();
            }
            continue;
        }
        queues.park(Duration::from_millis(50));
        let now = shared.completed.load(Ordering::Acquire);
        if now == last_seen {
            idle_rounds += 1;
        } else {
            idle_rounds = 0;
            last_seen = now;
        }
        if idle_rounds > 200 {
            let stuck = shared.nodes[node].pending.stuck_tasks();
            panic!(
                "run stalled on node {node}: {}/{} tasks done, {} pending here (first stuck: {:?})",
                now,
                shared.program.total_tasks,
                stuck.len(),
                stuck.first()
            );
        }
    }
}

fn comm_thread(shared: &Shared<'_>, node: usize, local: &LocalRecorder, msg_local: &MsgRecorder) {
    let _guard = ShutdownOnUnwind(shared);
    let rx = &shared.nodes[node].comm_rx;
    let comm_lane = shared.threads as u32;
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(CommItem::Flow {
                consumer,
                slot,
                data,
                src,
                kind,
                enqueue_ns,
            }) => {
                // Dequeue is the injection instant; delivery completes
                // once the flow has landed in the destination's pending
                // table. All three stamps share the run's wall clock, so
                // enqueue ≤ inject ≤ deliver holds by monotonicity.
                let start_ns = shared.clock.now_ns();
                let bytes = data.bytes as u64;
                let ready =
                    shared.nodes[node]
                        .pending
                        .deliver(&shared.program.graph, consumer, slot, data);
                if let Some(t) = ready {
                    shared.nodes[node].queues.push_external(t);
                }
                let end_ns = shared.clock.now_ns();
                local.comm(node as u32, comm_lane, start_ns, end_ns);
                msg_local.record(obs::MsgSpan {
                    src,
                    dst: node as u32,
                    kind,
                    bytes,
                    enqueue_ns,
                    inject_ns: start_ns.max(enqueue_ns),
                    deliver_ns: end_ns.max(enqueue_ns),
                });
            }
            Ok(CommItem::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {
                if shared.done.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Periodic live sampler: runs beside the workers inside the same scope
/// until the run is done (or failing), publishing one [`LiveSample`] per
/// node per tick. Per-node occupancy comes from the collected span store
/// — collection is safe concurrently with live producers (the SPSC rings
/// guarantee it); only the final `drain()`, after the scope joins,
/// requires quiescence. Queue depths are probed from the node's queues;
/// its comm queue length doubles as "messages in flight" (a flow queued
/// at the destination's comm thread is the wire here), and the node's
/// cumulative steal/overflow counters ride along.
fn sampler(shared: &Shared<'_>, recorder: &Recorder, live: &Live, period_ns: u64) {
    let period = Duration::from_nanos(period_ns.max(1));
    let slice = period.min(Duration::from_millis(5));
    let mut w0 = shared.clock.now_ns();
    let mut elapsed = Duration::ZERO;
    while !shared.done.load(Ordering::Acquire) {
        std::thread::sleep(slice);
        elapsed += slice;
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        let w1 = shared.clock.now_ns();
        publish_samples(shared, recorder, live, w0, w1);
        w0 = w1;
    }
    // Tail window up to completion.
    publish_samples(shared, recorder, live, w0, shared.clock.now_ns());
}

fn publish_samples(shared: &Shared<'_>, recorder: &Recorder, live: &Live, w0: u64, w1: u64) {
    if w1 <= w0 {
        return;
    }
    let lanes = shared.threads as u32;
    let dropped_events = recorder.dropped();
    recorder.with_collected(|spans| {
        for (n, node) in shared.nodes.iter().enumerate() {
            let StealTotals {
                steals,
                steal_fails,
                overflow_pushes,
            } = node.queues.totals();
            live.publish(LiveSample {
                t_ns: w1,
                window_ns: w1 - w0,
                node: n as u32,
                lane_busy: lane_busy_in_window(spans, n as u32, lanes, w0, w1),
                ready_depth: node.queues.len(),
                pending_tasks: node.pending.len(),
                inflight_msgs: node.comm_rx.len() as u64,
                inflight_bytes: 0,
                dropped_events,
                steals,
                steal_fails,
                overflow_pushes,
            });
        }
    });
}

/// Run `program` under `cfg` on the real engine (entered through
/// [`crate::run`]): `cfg.nodes` pools of `cfg.threads` workers each,
/// plus one comm thread per node when there is more than one node.
///
/// Panics if the program is empty, has no roots, a task body panics, or
/// the run deadlocks.
pub(crate) fn execute(program: &Program, cfg: &RunConfig) -> RunReport {
    let threads = cfg.threads;
    assert!(cfg.nodes >= 1, "need at least one node");
    assert!(threads >= 1, "need at least one worker thread");
    assert!(program.total_tasks > 0, "empty program");
    assert!(!program.roots.is_empty(), "program has no root tasks");

    let recorder = cfg.recorder();
    let selector = cfg.scheduler.instance(&SchedContext {
        program,
        profile: cfg.profile.as_ref(),
        nodes: cfg.nodes,
        lanes: threads as u32,
    });
    let nodes = (0..cfg.nodes)
        .map(|_| {
            let (comm_tx, comm_rx) = unbounded();
            Node {
                pending: ShardedPending::new(threads * 4),
                queues: NodeQueues::new(Arc::clone(&selector), threads),
                comm_tx,
                comm_rx,
            }
        })
        .collect();
    let shared = Shared {
        program,
        selector,
        nodes,
        threads,
        steal_seed: cfg.steal_seed,
        completed: AtomicU64::new(0),
        done: AtomicBool::new(false),
        cross_flows: AtomicU64::new(0),
        metrics: Metrics::new(),
        clock: WallClock::start(),
    };

    for &root in &program.roots {
        shared.nodes[shared.node_of(root)]
            .queues
            .push_external(PendingTable::root(&program.graph, root));
    }

    let live = cfg.live_board();
    let start = Instant::now();
    crossbeam::thread::scope(|s| {
        let shared = &shared;
        for node in 0..shared.nodes.len() {
            for lane in 0..threads {
                let local = recorder.local();
                s.spawn(move |_| worker(shared, node, lane as u32, &local));
            }
            if shared.nodes.len() > 1 {
                let local = recorder.local();
                let msg_local = recorder.msg_local();
                s.spawn(move |_| comm_thread(shared, node, &local, &msg_local));
            }
        }
        if let (Some(live), Some(period)) = (live.clone(), cfg.sample_period()) {
            let recorder = recorder.clone();
            s.spawn(move |_| sampler(shared, &recorder, &live, period));
        }
    })
    .expect("worker panicked");
    let wall_time = start.elapsed().as_secs_f64();
    let horizon_ns = shared.clock.now_ns();

    let completed = shared.completed.load(Ordering::Acquire);
    assert_eq!(
        completed, program.total_tasks,
        "run finished early: {completed}/{} tasks",
        program.total_tasks
    );
    let mut flows_delivered = 0;
    let mut totals = StealTotals::default();
    for node in &shared.nodes {
        assert!(
            node.pending.is_empty(),
            "run finished with {} tasks still pending",
            node.pending.len()
        );
        flows_delivered += node.pending.flows_delivered();
        let t = node.queues.totals();
        totals.steals += t.steals;
        totals.steal_fails += t.steal_fails;
        totals.overflow_pushes += t.overflow_pushes;
    }
    let metrics = &shared.metrics;
    metrics.counter(names::ACTIVATIONS).add(flows_delivered);
    metrics.counter(names::STEALS).add(totals.steals);
    metrics.counter(names::STEAL_FAILS).add(totals.steal_fails);
    metrics
        .counter(names::OVERFLOW_PUSHES)
        .add(totals.overflow_pushes);

    assemble_report(
        cfg,
        ExecMode::Real,
        wall_time,
        horizon_ns,
        threads as u32,
        completed,
        &recorder,
        metrics,
        live.map(|l| l.history()).unwrap_or_default(),
        ModeExt::Real {
            flows_delivered,
            cross_node_flows: shared.cross_flows.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use crate::dtd::DtdBuilder;
    use crate::exec::{run, RunConfig};
    use crate::task::testutil::ExplicitDag;
    use crate::task::{Program, TaskGraph, TaskKey};
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn chain_program(n: i32) -> Program {
        // 0 -> 1 -> 2 -> ... -> n-1
        let mut edges: Map<i32, Vec<(i32, usize)>> = Map::new();
        let mut indeg: Map<i32, usize> = Map::new();
        for i in 0..n - 1 {
            edges.insert(i, vec![(i + 1, 0)]);
            indeg.insert(i + 1, 1);
        }
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "chain".into(),
            edges,
            indeg,
            node: Map::new(),
            cost: 0.0,
            bytes: 8,
        }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: n as u64,
        }
    }

    fn fan_program(width: i32) -> Program {
        // 0 fans out to 1..=width, all fan into width+1
        let sink = width + 1;
        let mut edges: Map<i32, Vec<(i32, usize)>> = Map::new();
        let mut indeg: Map<i32, usize> = Map::new();
        edges.insert(0, (1..=width).map(|i| (i, 0)).collect());
        for i in 1..=width {
            edges.insert(i, vec![(sink, (i - 1) as usize)]);
            indeg.insert(i, 1);
        }
        indeg.insert(sink, width as usize);
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "fan".into(),
            edges,
            indeg,
            node: Map::new(),
            cost: 0.0,
            bytes: 8,
        }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: (width + 2) as u64,
        }
    }

    #[test]
    fn chain_completes_single_thread() {
        let p = chain_program(50);
        let r = run(&p, &RunConfig::shared_memory(1));
        assert_eq!(r.tasks_executed, 50);
        assert_eq!(r.flows_delivered(), Some(49));
        assert_eq!(r.counter(obs::names::ACTIVATIONS), 49);
    }

    #[test]
    fn chain_completes_many_threads() {
        let p = chain_program(100);
        let r = run(&p, &RunConfig::shared_memory(8));
        assert_eq!(r.tasks_executed, 100);
    }

    #[test]
    fn fan_out_fan_in_completes() {
        let p = fan_program(64);
        let r = run(&p, &RunConfig::shared_memory(4));
        assert_eq!(r.tasks_executed, 66);
        assert_eq!(r.flows_delivered(), Some(128));
    }

    #[test]
    fn repeated_runs_agree() {
        for _ in 0..5 {
            let p = fan_program(16);
            let r = run(&p, &RunConfig::shared_memory(3));
            assert_eq!(r.tasks_executed, 18);
        }
    }

    #[test]
    fn trace_spans_cover_every_task() {
        let p = fan_program(16);
        let r = run(&p, &RunConfig::shared_memory(3).with_trace());
        let trace = r.trace.unwrap();
        assert_eq!(trace.task_spans().count(), 18);
        assert!(trace
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn steal_counters_reach_metrics_and_deque_spill_is_counted() {
        // A single worker with a fan wider than the local deque: the
        // overflow pushes must be visible in the metric snapshot, and
        // the run still executes every task exactly once.
        let width = (crate::dispatch::LOCAL_QUEUE_CAP + 50) as i32;
        let p = fan_program(width);
        let r = run(&p, &RunConfig::shared_memory(1));
        assert_eq!(r.tasks_executed, (width + 2) as u64);
        assert!(
            r.counter(obs::names::OVERFLOW_PUSHES) >= 50,
            "overflow pushes: {}",
            r.counter(obs::names::OVERFLOW_PUSHES)
        );
        // One worker has nobody to steal from.
        assert_eq!(r.counter(obs::names::STEALS), 0);
    }

    #[test]
    fn steal_seed_is_accepted_and_run_completes() {
        let p = fan_program(32);
        let r = run(&p, &RunConfig::shared_memory(4).with_steal_seed(0xDEC0DE));
        assert_eq!(r.tasks_executed, 34);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_threads_rejected() {
        run(&chain_program(2), &RunConfig::shared_memory(0));
    }

    #[test]
    fn cross_node_chain_completes() {
        let mut b = DtdBuilder::new();
        let mut prev = b.insert(0, 0.0, &[]);
        for i in 1..40 {
            prev = b.insert(i % 4, 0.0, &[prev]);
        }
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(4, 2));
        assert_eq!(r.tasks_executed, 40);
        // node changes 3 out of every 4 hops
        assert!(r.remote_messages() >= 29, "{}", r.remote_messages());
        assert_eq!(r.counter(obs::names::MESSAGES_SENT), r.remote_messages());
    }

    #[test]
    fn single_node_has_no_cross_flows() {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        for _ in 0..10 {
            let _ = b.insert(0, 0.0, &[root]);
        }
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(1, 3));
        assert_eq!(r.tasks_executed, 11);
        assert_eq!(r.remote_messages(), 0);
        assert_eq!(r.counter(obs::names::BYTES_SENT), 0);
    }

    #[test]
    fn wide_cross_node_fan_completes_repeatedly() {
        for _ in 0..5 {
            let mut b = DtdBuilder::new();
            let root = b.insert(0, 0.0, &[]);
            let mids: Vec<_> = (0..32).map(|i| b.insert(i % 4, 0.0, &[root])).collect();
            let _sink = b.insert(3, 0.0, &mids);
            let p = b.build();
            let r = run(&p, &RunConfig::multi_process(4, 2));
            assert_eq!(r.tasks_executed, 34);
        }
    }

    #[test]
    fn trace_places_tasks_on_their_nodes() {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        let mids: Vec<_> = (0..8).map(|i| b.insert(i % 2, 0.0, &[root])).collect();
        let _sink = b.insert(0, 0.0, &mids);
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(2, 2).with_trace());
        let trace = r.trace.unwrap();
        assert_eq!(trace.task_spans().count(), 10);
        assert_eq!(trace.nodes(), vec![0, 1]);
        // comm spans live on the comm lane
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.kind == obs::KIND_COMM)
            .all(|s| s.lane == 2));
    }

    #[test]
    fn cross_node_flows_trace_msg_spans_with_ordered_stamps() {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        let mids: Vec<_> = (0..8).map(|i| b.insert(i % 2, 0.0, &[root])).collect();
        let _sink = b.insert(0, 0.0, &mids);
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(2, 2).with_trace());
        let cross = r.remote_messages();
        let bytes_sent = r.counter(obs::names::BYTES_SENT);
        let trace = r.trace.unwrap();
        // Every cross-node flow became exactly one message span.
        assert_eq!(trace.msgs.len() as u64, cross);
        assert!(!trace.msgs.is_empty(), "diamond over 2 nodes crosses");
        for m in &trace.msgs {
            assert_ne!(m.src, m.dst, "only cross-node flows are messages");
            assert!(m.dst < 2);
            assert!(m.inject_ns >= m.enqueue_ns);
            assert!(m.deliver_ns >= m.inject_ns);
            assert!(m.bytes > 0);
        }
        // The matrix totals agree with the engine's byte counter.
        let matrix = trace.comm_matrix();
        assert_eq!(matrix.total_messages(), cross);
        assert_eq!(matrix.total_bytes(), bytes_sent);
    }

    #[test]
    fn steal_counters_survive_to_the_snapshot() {
        // Wide fan on one node with several workers: stealing is the
        // only way idle lanes acquire work released by the root's lane,
        // so the counters must be present (possibly zero steals if one
        // lane drains everything, but the keys must exist).
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        let mids: Vec<_> = (0..64).map(|_| b.insert(0, 1e-5, &[root])).collect();
        let _sink = b.insert(0, 0.0, &mids);
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(1, 4));
        assert_eq!(r.tasks_executed, 66);
        assert!(r.metrics.counters.contains_key(obs::names::STEALS));
        assert!(r.metrics.counters.contains_key(obs::names::STEAL_FAILS));
        assert!(r.metrics.counters.contains_key(obs::names::OVERFLOW_PUSHES));
    }
}

#[cfg(test)]
mod failure_tests {
    use crate::exec::{run, RunConfig};
    use crate::task::{FlowData, OutputDep, Params, Program, TaskClass, TaskGraph, TaskKey};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A chain 0 → 1 → 2 → 3 whose body panics on a chosen task. Task
    /// `i` is placed on node `i % 2`, so on two nodes every hop crosses.
    struct Exploding {
        bomb: i32,
    }

    impl TaskClass for Exploding {
        fn name(&self) -> &str {
            "exploding"
        }
        fn node_of(&self, p: Params) -> u32 {
            (p[0] % 2) as u32
        }
        fn activation_count(&self, p: Params) -> usize {
            usize::from(p[0] > 0)
        }
        fn num_output_flows(&self, p: Params) -> usize {
            usize::from(p[0] < 3)
        }
        fn outputs(&self, p: Params) -> Vec<OutputDep> {
            if p[0] < 3 {
                vec![OutputDep {
                    flow: 0,
                    consumer: TaskKey::new(0, [p[0] + 1, 0, 0, 0]),
                    slot: 0,
                }]
            } else {
                vec![]
            }
        }
        fn execute(&self, p: Params, _i: &mut [Option<FlowData>]) -> Vec<FlowData> {
            assert!(p[0] != self.bomb, "task body failure injected");
            vec![FlowData::sized(8); self.num_output_flows(p)]
        }
        fn output_bytes(&self, _p: Params, _f: usize) -> usize {
            8
        }
        fn cost(&self, _p: Params) -> f64 {
            1e-6
        }
    }

    fn chain(bomb: i32) -> Program {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(Exploding { bomb }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: 4,
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn body_panic_fails_the_run_loudly() {
        let _ = run(&chain(2), &RunConfig::shared_memory(2));
    }

    #[test]
    fn clean_bodies_complete() {
        for cfg in [RunConfig::shared_memory(2), RunConfig::multi_process(2, 1)] {
            let r = run(&chain(-1), &cfg);
            assert_eq!(r.tasks_executed, 4);
        }
    }

    /// A panicking body stops every worker, comm thread and the sampler
    /// at once, whatever the node count — it must not wait out the
    /// other threads' stall detectors (~10 s) or hang the comm threads.
    #[test]
    fn body_panic_fails_promptly_on_every_node_count() {
        // Task 1 runs on node 1, away from the root on node 0.
        for cfg in [RunConfig::shared_memory(2), RunConfig::multi_process(2, 1)] {
            let cfg = cfg.with_sampling(1_000_000);
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&chain(1), &cfg)));
            let took = t.elapsed();
            assert!(outcome.is_err(), "{} node(s): run succeeded", cfg.nodes);
            assert!(
                took < Duration::from_secs(2),
                "{} node(s): failing took {took:?}",
                cfg.nodes
            );
        }
    }

    /// A class that produces fewer flows than its outputs reference.
    struct ShortOutputs;
    impl TaskClass for ShortOutputs {
        fn name(&self) -> &str {
            "short"
        }
        fn node_of(&self, _p: Params) -> u32 {
            0
        }
        fn activation_count(&self, p: Params) -> usize {
            usize::from(p[0] > 0)
        }
        fn num_output_flows(&self, _p: Params) -> usize {
            1
        }
        fn outputs(&self, p: Params) -> Vec<OutputDep> {
            if p[0] == 0 {
                vec![OutputDep {
                    flow: 0,
                    consumer: TaskKey::new(0, [1, 0, 0, 0]),
                    slot: 0,
                }]
            } else {
                vec![]
            }
        }
        fn execute(&self, _p: Params, _i: &mut [Option<FlowData>]) -> Vec<FlowData> {
            Vec::new() // bug under test: declared one flow, produced none
        }
        fn output_bytes(&self, _p: Params, _f: usize) -> usize {
            8
        }
        fn cost(&self, _p: Params) -> f64 {
            1e-6
        }
    }

    fn short_outputs() -> Program {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ShortOutputs));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: 2,
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn missing_output_flow_detected() {
        let _ = run(&short_outputs(), &RunConfig::shared_memory(1));
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn missing_output_flow_detected_on_two_nodes() {
        let _ = run(&short_outputs(), &RunConfig::multi_process(2, 1));
    }
}
