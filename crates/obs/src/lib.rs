//! Shared observability layer for every executor in the workspace.
//!
//! The three executors (shared-memory threads, simulated multi-process,
//! and the discrete-event simulator) previously each had their own ad-hoc
//! notion of what happened during a run. This crate gives them one:
//!
//! * [`Recorder`] — a streaming span recorder: each thread writes into a
//!   private lock-free SPSC ring ([`ring`]) that a collector empties into
//!   a shared store *while the run executes*. Producers stamp spans with
//!   `u64` nanosecond timestamps from whatever clock they live on —
//!   [`WallClock`] for the real executor, virtual time for the simulator
//!   — so analysis code downstream cannot tell the difference. A full
//!   ring drops (and counts) rather than blocking, and the tracer's own
//!   cost is measured ([`TracerOverhead`]).
//! * [`Live`] — a board of periodic [`LiveSample`] gauges (per-worker
//!   occupancy over a sliding window, queue depths, network in-flight)
//!   the executors publish at a configurable cadence, observable mid-run
//!   by `stencil-top` or the [`expo`] exposition.
//! * [`Metrics`] — a registry of named atomic counters and gauges
//!   (messages sent, bytes moved, redundant communication-avoiding flops,
//!   queue depths, …) snapshotted at the end of a run.
//! * Exporters — [`chrome`] renders a drained [`Trace`] as Chrome
//!   `trace_event` JSON (loadable in Perfetto / `chrome://tracing`) and
//!   parses it back; [`jsonl`] renders metric snapshots as JSON-lines for
//!   the bench harness; [`fig10`] computes the paper's Figure 10
//!   occupancy digest from the same spans.
//!
//! The crate is dependency-free apart from the (vendored) serde stack and
//! knows nothing about task graphs or executors; the `runtime` crate owns
//! the wiring.

#![deny(missing_docs)]

mod metrics;
mod recorder;

pub mod chrome;
pub mod comm;
pub mod expo;
pub mod fig10;
pub mod hist;
pub mod jsonl;
#[cfg(all(test, loom))]
mod loom_model;
pub mod ring;
pub mod sample;

pub use comm::{CommMatrix, MsgSpan, PeerFlow};
pub use hist::{DurationSummary, LogHistogram};
pub use metrics::{names, Counter, ExpectedCounters, Gauge, GaugeValue, Metrics, MetricsSnapshot};
pub use recorder::{
    per_event_cost_ns, LocalRecorder, MsgRecorder, Recorder, SpanRecord, Trace, TracerOverhead,
    WallClock,
};
pub use sample::{lane_busy_in_window, Live, LiveSample};

/// Span kind tag for communication activity, matching the simulator's
/// convention (task-class kinds are small integers; 1000 is the comm lane).
pub const KIND_COMM: u32 = 1000;
