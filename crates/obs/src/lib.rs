//! Observability for the rCUDA stack: per-call spans, per-message byte
//! events, server-side service accounting, and the exports that turn a live
//! run into the paper's own artifacts.
//!
//! The source paper is a measurement study: Tables I–IV exist because every
//! wire byte and every millisecond could be attributed to an individual
//! CUDA call, and the §V model was then validated against those
//! measurements. This crate is that attribution machinery for our runtime:
//!
//! * [`Observer`] — the sink trait. The client runtime reports one
//!   [`CallSpan`] per CUDA call (and per batch), the transports report one
//!   [`MessageEvent`] per protocol message, the server worker reports one
//!   [`ServerSpan`] per dispatched request (service time + queue wait), and
//!   retry/reconnect episodes are reported as they happen.
//! * [`ObsHandle`] — the nullable handle the instrumented layers hold. With
//!   no observer installed every emission is an inlined `None` check over
//!   `Copy` event payloads: **no heap allocation, no locking** on the hot
//!   path (asserted by a counting-allocator test).
//! * [`Recorder`] — the batteries-included [`Observer`]: aggregates
//!   [`Histogram`]s and per-call-id byte counters, and renders
//!   [`chrome_trace`] timelines and [`summary_table`] byte accounting.
//!
//! Under the `sim`/`channel` transports every event is deterministic (the
//! shared virtual clock is the only time source), so exports can be
//! golden-filed byte-for-byte.

#![warn(unreachable_pub)]

pub mod chrome;
pub mod event;
pub mod hist;
pub mod metrics;
pub mod op;
pub mod record;
pub mod summary;

pub use chrome::{chrome_trace, validate_chrome_trace};
pub use event::{
    BrokerEvent, CallSpan, DaemonEvent, Dir, MessageEvent, ObsHandle, Observer, ServerSpan,
    ShardSpan, StreamFrameEvent,
};
pub use hist::{Histogram, BUCKETS};
pub use metrics::{PoolStats, SessionMetrics, POOL_CLASS_COUNT};
pub use op::Op;
pub use record::{MessageTotals, OpStats, PhaseStats, Recorder, Report};
pub use summary::{summary_json, summary_table};
