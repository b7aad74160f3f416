//! Execution traces: per-call records of what crossed the network when.
//!
//! The estimation model of §V is built by analyzing such traces: summing the
//! bulk-transfer portions, subtracting them from the measured total to get
//! the network-independent "fixed time", and re-adding a different network's
//! transfer times. [`Trace`] captures everything that procedure needs.

use rcuda_core::SimTime;
use rcuda_obs::Op;
use rcuda_proto::ids::{FunctionId, MemcpyKind};
use serde::{Deserialize, Serialize};

/// One remote API call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallEvent {
    /// Operation label (`cudaMemcpyH2D`, `cudaLaunch`, `batch[n]`, ...) —
    /// a `Copy` token, so recording a call never heap-allocates.
    pub op: Op,
    /// Bytes sent client → server (request message).
    pub sent: u64,
    /// Bytes received server → client (response message).
    pub received: u64,
    /// Clock time when the call started.
    pub start: SimTime,
    /// Clock time when the call returned.
    pub end: SimTime,
}

impl CallEvent {
    /// Wall (or virtual) duration of the call.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// Application payload moved by this call, if it is a bulk memcpy
    /// (header bytes excluded): `x` of Table I.
    pub fn bulk_payload(&self) -> u64 {
        let Some(name) = self.op.as_named() else {
            return 0;
        };
        for id in [FunctionId::Memcpy, FunctionId::MemcpyAsync] {
            // The request carries the selector and fixed fields, then the
            // payload (async adds a stream field to the request only).
            if id.label(MemcpyKind::HostToDevice) == Some(name) {
                let head = 4 + id.body().map_or(0, |b| b.fixed);
                return self.sent.saturating_sub(head.into());
            }
            // The response carries 4 status bytes, then the payload.
            if id.label(MemcpyKind::DeviceToHost) == Some(name) {
                return self.received.saturating_sub(4);
            }
        }
        0
    }
}

/// A full session trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    pub events: Vec<CallEvent>,
}

impl Trace {
    pub fn new() -> Self {
        Trace::default()
    }

    pub fn record(&mut self, event: CallEvent) {
        self.events.push(event);
    }

    /// Total bytes sent / received across the session.
    pub fn totals(&self) -> (u64, u64) {
        self.events
            .iter()
            .fold((0, 0), |(s, r), e| (s + e.sent, r + e.received))
    }

    /// Total bulk memcpy payload (the quantity Tables III/V price).
    pub fn bulk_payload(&self) -> u64 {
        self.events.iter().map(|e| e.bulk_payload()).sum()
    }

    /// Time from first call start to last call end.
    pub fn span(&self) -> SimTime {
        match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) => last.end.saturating_sub(first.start),
            _ => SimTime::ZERO,
        }
    }

    /// Summed durations of calls whose op matches `op`.
    pub fn time_in(&self, op: &str) -> SimTime {
        self.events
            .iter()
            .filter(|e| e.op == op)
            .map(|e| e.duration())
            .sum()
    }

    /// Serialize to JSON (for the planner example and offline analysis).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Parse a JSON trace.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &str, sent: u64, received: u64, start: u64, end: u64) -> CallEvent {
        CallEvent {
            op: Op::parse(op),
            sent,
            received,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn totals_and_span() {
        let mut t = Trace::new();
        t.record(ev("cudaMalloc", 8, 8, 100, 200));
        t.record(ev("cudaMemcpyH2D", 1044, 4, 200, 900));
        let (s, r) = t.totals();
        assert_eq!((s, r), (1052, 12));
        assert_eq!(t.span(), SimTime::from_nanos(800));
        assert_eq!(t.time_in("cudaMalloc"), SimTime::from_nanos(100));
    }

    #[test]
    fn bulk_payload_counts_only_memcpy_payloads() {
        let mut t = Trace::new();
        t.record(ev("cudaMalloc", 8, 8, 0, 1));
        t.record(ev("cudaMemcpyH2D", 1024 + 20, 4, 1, 2));
        t.record(ev("cudaMemcpyD2H", 20, 2048 + 4, 2, 3));
        t.record(ev("cudaLaunch", 52, 4, 3, 4));
        assert_eq!(t.bulk_payload(), 1024 + 2048);
    }

    #[test]
    fn async_copies_count_their_payload_without_the_stream_field() {
        let mut t = Trace::new();
        t.record(ev("cudaMemcpyAsyncH2D", 1024 + 24, 4, 0, 1));
        t.record(ev("cudaMemcpyAsyncD2H", 24, 2048 + 4, 1, 2));
        assert_eq!(t.bulk_payload(), 1024 + 2048);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace::new();
        assert_eq!(t.totals(), (0, 0));
        assert_eq!(t.span(), SimTime::ZERO);
        assert_eq!(t.bulk_payload(), 0);
    }

    #[test]
    fn json_round_trip() {
        let mut t = Trace::new();
        t.record(ev("cudaLaunch", 52, 4, 5, 9));
        let json = t.to_json();
        assert_eq!(Trace::from_json(&json).unwrap(), t);
    }
}
