//! [`Recorder`]: the batteries-included [`Observer`].
//!
//! Collects every span and message event behind one mutex (observers are
//! only installed when someone wants the data — the disarmed hot path never
//! touches this), then aggregates into a [`Report`]: per-call-id byte
//! counters and latency [`Histogram`]s, with client and server views joined
//! by operation group so call time can be split into network and
//! GPU-service components.

use crate::event::{
    CallSpan, DaemonEvent, Dir, MessageEvent, ObsHandle, Observer, ServerSpan, ShardSpan,
    StreamFrameEvent,
};
use crate::hist::Histogram;
use crate::op::Op;
use rcuda_core::{SharedClock, SimTime};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Default)]
struct RecState {
    spans: Vec<CallSpan>,
    server_spans: Vec<ServerSpan>,
    /// `(dir, bytes, clock stamp)` per message, in arrival order.
    messages: Vec<(Dir, u64, SimTime)>,
    retries: u64,
    reconnects: u64,
    daemon_events: Vec<DaemonEvent>,
    shard_spans: Vec<ShardSpan>,
    stream_frames: Vec<StreamFrameEvent>,
}

/// An [`Observer`] that records everything for later aggregation.
///
/// Construct with [`Recorder::with_clock`] to stamp message events on the
/// session's clock (deterministic under a shared virtual clock); plain
/// [`Recorder::new`] stamps them at zero.
pub struct Recorder {
    clock: Mutex<Option<SharedClock>>,
    state: Mutex<RecState>,
}

impl Recorder {
    fn state(&self) -> MutexGuard<'_, RecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            clock: Mutex::new(None),
            state: Mutex::new(RecState::default()),
        })
    }

    /// A recorder that stamps message events on `clock`.
    pub fn with_clock(clock: SharedClock) -> Arc<Recorder> {
        Arc::new(Recorder {
            clock: Mutex::new(Some(clock)),
            state: Mutex::new(RecState::default()),
        })
    }

    /// Stamp message events on `clock` from now on. Lets a recorder built
    /// before the session join the session's clock — e.g. the virtual clock
    /// a `Session::builder().connect(Endpoint::Simulated(..))` call creates internally.
    pub fn attach_clock(&self, clock: SharedClock) {
        *self.clock.lock().unwrap_or_else(PoisonError::into_inner) = Some(clock);
    }

    /// An [`ObsHandle`] armed with this recorder, ready for
    /// `Session::builder().observer(..)` or `RemoteRuntime::set_observer`.
    pub fn handle(self: &Arc<Self>) -> ObsHandle {
        ObsHandle::new(Arc::clone(self) as Arc<dyn Observer>)
    }

    /// Snapshot and aggregate everything recorded so far.
    pub fn report(&self) -> Report {
        let state = self.state();
        let mut messages = MessageTotals::default();
        for (dir, bytes, _) in &state.messages {
            match dir {
                Dir::Sent => {
                    messages.sent_count += 1;
                    messages.sent_bytes += bytes;
                }
                Dir::Received => {
                    messages.received_count += 1;
                    messages.received_bytes += bytes;
                }
            }
        }
        Report {
            spans: state.spans.clone(),
            server_spans: state.server_spans.clone(),
            message_events: state.messages.clone(),
            messages,
            retries: state.retries,
            reconnects: state.reconnects,
            daemon_events: state.daemon_events.clone(),
            shard_spans: state.shard_spans.clone(),
            stream_frames: state.stream_frames.clone(),
        }
    }
}

impl Observer for Recorder {
    fn call_span(&self, span: &CallSpan) {
        self.state().spans.push(*span);
    }

    fn message(&self, event: &MessageEvent) {
        let at = self
            .clock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|c| c.now())
            .unwrap_or(SimTime::ZERO);
        self.state().messages.push((event.dir, event.bytes, at));
    }

    fn retry(&self, _op: Op, _attempt: u32) {
        self.state().retries += 1;
    }

    fn reconnect(&self) {
        self.state().reconnects += 1;
    }

    fn server_span(&self, span: &ServerSpan) {
        self.state().server_spans.push(*span);
    }

    fn daemon_event(&self, event: &DaemonEvent) {
        self.state().daemon_events.push(*event);
    }

    fn shard_span(&self, span: &ShardSpan) {
        self.state().shard_spans.push(*span);
    }

    fn stream_frame(&self, event: &StreamFrameEvent) {
        self.state().stream_frames.push(*event);
    }
}

/// Message counts and bytes by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageTotals {
    pub sent_count: u64,
    pub sent_bytes: u64,
    pub received_count: u64,
    pub received_bytes: u64,
}

/// Aggregated per-operation statistics (one row of the summary table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Client calls in this group.
    pub calls: u64,
    /// Request bytes summed over the group's calls.
    pub bytes_sent: u64,
    /// Response bytes summed over the group's calls.
    pub bytes_received: u64,
    /// Transport-fault replays within the group.
    pub retries: u64,
    /// Client-side call latency distribution.
    pub latency: Histogram,
    /// Summed client-side call time.
    pub total_time: SimTime,
    /// Server dispatches attributed to this group.
    pub server_calls: u64,
    /// Summed server service (dispatch) time.
    pub server_service: SimTime,
    /// Summed batch-queue wait on the server.
    pub server_queue_wait: SimTime,
}

impl OpStats {
    /// Client time not accounted to GPU service: the network + middleware
    /// share of the group's calls.
    pub fn network_time(&self) -> SimTime {
        self.total_time.saturating_sub(self.server_service)
    }
}

/// Aggregated per-phase statistics: one workload phase (bracketed by an
/// [`Op::Phase`] marker span) and the ordinary client calls whose start
/// falls inside its window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Ordinary client calls inside the phase window.
    pub calls: u64,
    /// Request bytes summed over those calls.
    pub bytes_sent: u64,
    /// Response bytes summed over those calls.
    pub bytes_received: u64,
    /// Summed client-side call time of those calls.
    pub call_time: SimTime,
    /// Wall time of the phase marker itself (end − start).
    pub wall: SimTime,
    /// Server service time attributed to the phase window (by span start).
    pub server_service: SimTime,
}

impl PhaseStats {
    /// Phase call time not accounted to GPU service: the network +
    /// middleware share of the phase.
    pub fn network_time(&self) -> SimTime {
        self.call_time.saturating_sub(self.server_service)
    }
}

/// Everything a run's recorder captured, plus aggregation views.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub spans: Vec<CallSpan>,
    pub server_spans: Vec<ServerSpan>,
    /// `(dir, bytes, clock stamp)` per message, in arrival order.
    pub message_events: Vec<(Dir, u64, SimTime)>,
    pub messages: MessageTotals,
    pub retries: u64,
    pub reconnects: u64,
    /// Daemon lifecycle events (admission, reclamation, panics), in order.
    pub daemon_events: Vec<DaemonEvent>,
    /// Reactor readiness-loop passes that did work, in order.
    pub shard_spans: Vec<ShardSpan>,
    /// Multiplexed-transport frames per sub-stream, in arrival order.
    pub stream_frames: Vec<StreamFrameEvent>,
}

impl Report {
    /// Per-sub-stream byte totals of the multiplexed transport, keyed by
    /// stream id in first-appearance order: `(stream, sent, received)`.
    pub fn per_stream(&self) -> Vec<(u32, MessageTotals)> {
        let mut rows: Vec<(u32, MessageTotals)> = Vec::new();
        for f in &self.stream_frames {
            let i = match rows.iter().position(|(s, _)| *s == f.stream) {
                Some(i) => i,
                None => {
                    rows.push((f.stream, MessageTotals::default()));
                    rows.len() - 1
                }
            };
            let t = &mut rows[i].1;
            match f.dir {
                Dir::Sent => {
                    t.sent_count += 1;
                    t.sent_bytes += f.bytes;
                }
                Dir::Received => {
                    t.received_count += 1;
                    t.received_bytes += f.bytes;
                }
            }
        }
        rows
    }

    /// Per-operation aggregation, keyed by [`Op::group`], ordered by first
    /// appearance (client spans first, then server-only groups). The order
    /// is deterministic for a deterministic run, so renders of this view
    /// can be golden-filed.
    pub fn per_op(&self) -> Vec<(&'static str, OpStats)> {
        let mut rows: Vec<(&'static str, OpStats)> = Vec::new();
        let row = |key: &'static str, rows: &mut Vec<(&'static str, OpStats)>| -> usize {
            match rows.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    rows.push((key, OpStats::default()));
                    rows.len() - 1
                }
            }
        };
        for span in &self.spans {
            if span.op.as_phase().is_some() {
                continue; // phase markers are meta-spans, not calls
            }
            let i = row(span.op.group(), &mut rows);
            let stats = &mut rows[i].1;
            stats.calls += 1;
            stats.bytes_sent += span.bytes_sent;
            stats.bytes_received += span.bytes_received;
            stats.retries += span.retries as u64;
            stats.latency.record(span.duration());
            stats.total_time += span.duration();
        }
        for span in &self.server_spans {
            let i = row(span.op.group(), &mut rows);
            let stats = &mut rows[i].1;
            stats.server_calls += 1;
            stats.server_service += span.service();
            stats.server_queue_wait += span.queue_wait;
        }
        rows
    }

    /// Per-phase aggregation, in phase-marker emission order.
    ///
    /// Workload drivers bracket each phase with one [`Op::Phase`] marker
    /// span (emitted via `ObsHandle::emit_call` after the phase completes).
    /// Every ordinary client span whose *start* falls inside a marker's
    /// `[start, end)` window is folded into that phase; a span is charged to
    /// the first matching phase, so nested or overlapping markers should be
    /// avoided by drivers. Server spans are attributed the same way, which
    /// is only meaningful when client and server share one clock (the
    /// simulated and in-process channel transports).
    pub fn phase_rows(&self) -> Vec<(&'static str, PhaseStats)> {
        let markers: Vec<&CallSpan> = self
            .spans
            .iter()
            .filter(|s| s.op.as_phase().is_some())
            .collect();
        let mut rows: Vec<(&'static str, PhaseStats)> = markers
            .iter()
            .map(|m| {
                let stats = PhaseStats {
                    wall: m.duration(),
                    ..PhaseStats::default()
                };
                (m.op.group(), stats)
            })
            .collect();
        let slot = |start: SimTime, markers: &[&CallSpan]| -> Option<usize> {
            markers
                .iter()
                .position(|m| m.start <= start && start < m.end)
        };
        for span in &self.spans {
            if span.op.as_phase().is_some() {
                continue;
            }
            if let Some(i) = slot(span.start, &markers) {
                let stats = &mut rows[i].1;
                stats.calls += 1;
                stats.bytes_sent += span.bytes_sent;
                stats.bytes_received += span.bytes_received;
                stats.call_time += span.duration();
            }
        }
        for span in &self.server_spans {
            if let Some(i) = slot(span.start, &markers) {
                rows[i].1.server_service += span.service();
            }
        }
        rows
    }

    /// Total bytes `(sent, received)` across all client spans.
    pub fn totals(&self) -> (u64, u64) {
        self.spans
            .iter()
            .fold((0, 0), |(s, r), e| (s + e.bytes_sent, r + e.bytes_received))
    }

    /// Time from first span start to last span end.
    pub fn span(&self) -> SimTime {
        match (self.spans.first(), self.spans.last()) {
            (Some(first), Some(last)) => last.end.saturating_sub(first.start),
            _ => SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, sent: u64, received: u64, start: u64, end: u64) -> CallSpan {
        CallSpan {
            op,
            bytes_sent: sent,
            bytes_received: received,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            retries: 0,
        }
    }

    #[test]
    fn recorder_aggregates_by_group_in_first_seen_order() {
        let rec = Recorder::new();
        let h = rec.handle();
        h.emit_call(&span(Op::Named("cudaMalloc"), 8, 8, 0, 100));
        h.emit_call(&span(Op::Named("cudaMemcpyH2D"), 1044, 4, 100, 500));
        h.emit_call(&span(Op::Named("cudaMalloc"), 8, 8, 500, 550));
        h.emit_server(&ServerSpan {
            op: Op::Named("cudaMalloc"),
            queue_wait: SimTime::ZERO,
            start: SimTime::from_nanos(10),
            end: SimTime::from_nanos(40),
        });
        let report = rec.report();
        let rows = report.per_op();
        assert_eq!(rows[0].0, "cudaMalloc");
        assert_eq!(rows[1].0, "cudaMemcpyH2D");
        let malloc = &rows[0].1;
        assert_eq!(malloc.calls, 2);
        assert_eq!((malloc.bytes_sent, malloc.bytes_received), (16, 16));
        assert_eq!(malloc.total_time, SimTime::from_nanos(150));
        assert_eq!(malloc.server_calls, 1);
        assert_eq!(malloc.server_service, SimTime::from_nanos(30));
        assert_eq!(malloc.network_time(), SimTime::from_nanos(120));
        assert_eq!(report.totals(), (8 + 1044 + 8, 8 + 4 + 8));
        assert_eq!(report.span(), SimTime::from_nanos(550));
    }

    #[test]
    fn batches_fold_into_one_group() {
        let rec = Recorder::new();
        let h = rec.handle();
        h.emit_call(&span(Op::Batch(2), 100, 8, 0, 10));
        h.emit_call(&span(Op::Batch(5), 200, 20, 10, 30));
        let rows = rec.report().per_op();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "batch");
        assert_eq!(rows[0].1.calls, 2);
    }

    #[test]
    fn messages_and_episodes_are_counted() {
        let rec = Recorder::new();
        let h = rec.handle();
        h.emit_message(Dir::Sent, 8);
        h.emit_message(Dir::Sent, 1044);
        h.emit_message(Dir::Received, 4);
        h.emit_retry(Op::Named("cudaFree"), 0);
        h.emit_reconnect();
        h.emit_daemon(DaemonEvent::BytesReclaimed { bytes: 4096 });
        h.emit_daemon(DaemonEvent::SessionPanicked);
        let report = rec.report();
        assert_eq!(report.messages.sent_count, 2);
        assert_eq!(report.messages.sent_bytes, 1052);
        assert_eq!(report.messages.received_count, 1);
        assert_eq!(report.messages.received_bytes, 4);
        assert_eq!(report.retries, 1);
        assert_eq!(report.reconnects, 1);
        assert_eq!(
            report.daemon_events,
            vec![
                DaemonEvent::BytesReclaimed { bytes: 4096 },
                DaemonEvent::SessionPanicked,
            ]
        );
    }

    #[test]
    fn clock_stamps_message_events() {
        let clock = rcuda_core::time::virtual_clock();
        let rec = Recorder::with_clock(clock.clone());
        let h = rec.handle();
        use rcuda_core::Clock as _;
        clock.advance(SimTime::from_nanos(500));
        h.emit_message(Dir::Sent, 8);
        let report = rec.report();
        assert_eq!(report.message_events[0].2, SimTime::from_nanos(500));
    }

    #[test]
    fn empty_report_is_harmless() {
        let report = Recorder::new().report();
        assert!(report.per_op().is_empty());
        assert!(report.phase_rows().is_empty());
        assert_eq!(report.totals(), (0, 0));
        assert_eq!(report.span(), SimTime::ZERO);
    }

    #[test]
    fn phase_rows_fold_spans_by_time_window() {
        let rec = Recorder::new();
        let h = rec.handle();
        // Phase "weights": two H2D copies, then the marker bracketing them.
        h.emit_call(&span(Op::Named("cudaMemcpyH2D"), 1024, 4, 0, 100));
        h.emit_call(&span(Op::Named("cudaMemcpyH2D"), 2048, 4, 100, 300));
        h.emit_call(&span(Op::Phase("weights"), 0, 0, 0, 300));
        // Phase "block": one launch; the sync at t=500 is outside any phase.
        h.emit_call(&span(Op::Named("cudaLaunch"), 64, 4, 300, 450));
        h.emit_call(&span(Op::Phase("block"), 0, 0, 300, 500));
        h.emit_call(&span(Op::Named("cudaThreadSynchronize"), 8, 4, 500, 520));
        h.emit_server(&ServerSpan {
            op: Op::Named("cudaLaunch"),
            queue_wait: SimTime::ZERO,
            start: SimTime::from_nanos(350),
            end: SimTime::from_nanos(430),
        });
        let report = rec.report();
        let rows = report.phase_rows();
        assert_eq!(rows.len(), 2);
        let (name, weights) = rows[0];
        assert_eq!(name, "weights");
        assert_eq!(weights.calls, 2);
        assert_eq!((weights.bytes_sent, weights.bytes_received), (3072, 8));
        assert_eq!(weights.call_time, SimTime::from_nanos(300));
        assert_eq!(weights.wall, SimTime::from_nanos(300));
        assert_eq!(weights.server_service, SimTime::ZERO);
        let (name, block) = rows[1];
        assert_eq!(name, "block");
        assert_eq!(block.calls, 1);
        assert_eq!(block.server_service, SimTime::from_nanos(80));
        assert_eq!(block.network_time(), SimTime::from_nanos(70));
        // The marker itself never shows up as a per-op row.
        assert!(report.per_op().iter().all(|(k, _)| *k != "weights"));
        let launch = report
            .per_op()
            .into_iter()
            .find(|(k, _)| *k == "cudaLaunch")
            .unwrap()
            .1;
        assert_eq!(launch.calls, 1);
    }
}
