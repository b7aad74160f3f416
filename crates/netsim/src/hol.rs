//! Head-of-line blocking on a shared ordered byte stream, and what stream
//! multiplexing buys back.
//!
//! The paper's single-stream design (§III: one socket per session) means a
//! small synchronous call issued while a bulk memcpy is in flight must wait
//! for the *entire* bulk message to finish serializing — the worst-case
//! wait is the bulk transfer time itself. The multiplexed trunk chops bulk
//! payloads into fixed-size chunks and interleaves frames across
//! sub-streams, so the same small call waits for at most one chunk's
//! serialization in each direction.
//!
//! [`HolModel`] prices both regimes on any [`NetworkModel`] (including the
//! workload suite's measurement-calibrated loopback link), and
//! [`HolModel::improvement`] is the predicted single-stream/mux latency
//! ratio that the HOL validation test (`tests/hol_validation.rs`) checks
//! against measurement, the same way PR 7 validates the §V estimator.

use rcuda_core::SimTime;

use crate::model::NetworkModel;

/// Default bulk chunk size of the mux framing layer. Mirrors
/// `rcuda_proto::mux::CHUNK` (the crates are siblings, so the value is
/// duplicated here and pinned equal by a cross-crate test in the facade).
pub const DEFAULT_CHUNK_BYTES: u64 = 64 * 1024;

/// One scenario: a small synchronous call racing a concurrent bulk
/// transfer on the same connection.
#[derive(Debug, Clone, Copy)]
pub struct HolModel {
    /// Bytes of the concurrent bulk payload (e.g. a 16 MiB memcpy).
    pub bulk_bytes: u64,
    /// Request bytes of the small call.
    pub small_request: u64,
    /// Response bytes of the small call.
    pub small_response: u64,
    /// Mux framing chunk size; [`DEFAULT_CHUNK_BYTES`] unless negotiated
    /// otherwise.
    pub chunk_bytes: u64,
}

impl HolModel {
    /// A small call with `request`/`response` bytes against a `bulk_bytes`
    /// transfer, with the default chunk size.
    pub fn new(bulk_bytes: u64, small_request: u64, small_response: u64) -> HolModel {
        HolModel {
            bulk_bytes,
            small_request,
            small_response,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// The small call's own cost with nothing else on the wire.
    pub fn small_call_uncontended(&self, net: &dyn NetworkModel) -> SimTime {
        net.round_trip(self.small_request, self.small_response)
    }

    /// Worst-case small-call latency on a **single ordered stream**: the
    /// call serializes behind the whole in-flight bulk message before its
    /// own round trip even starts. This is the p99-regime the bench
    /// measures — with a bulk transfer continuously occupying the stream,
    /// the tail call arrives just after a bulk write began.
    pub fn small_call_single_stream(&self, net: &dyn NetworkModel) -> SimTime {
        net.app_transfer(self.bulk_bytes) + self.small_call_uncontended(net)
    }

    /// Worst-case small-call latency on a **multiplexed trunk**: the call's
    /// frames wait for at most one bulk chunk per direction, and the bulk
    /// flow's bandwidth share halves the link for the small frames'
    /// serialization (max-min fair share between the two active streams).
    pub fn small_call_muxed(&self, net: &dyn NetworkModel) -> SimTime {
        let chunk = self.chunk_bytes.min(self.bulk_bytes);
        let hol = net.app_transfer(chunk);
        let shared = net.round_trip(self.small_request, self.small_response);
        hol + hol + shared + shared
    }

    /// Predicted single-stream / mux latency ratio — the factor the bench's
    /// measured p99s must confirm (≥ 5× for a 16 MiB bulk on loopback).
    pub fn improvement(&self, net: &dyn NetworkModel) -> f64 {
        let single = self.small_call_single_stream(net).as_secs_f64();
        let muxed = self.small_call_muxed(net).as_secs_f64();
        single / muxed.max(f64::EPSILON)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gige::GigaEModel;
    use crate::ib40g::Ib40GModel;

    const SIXTEEN_MIB: u64 = 16 << 20;

    fn model() -> HolModel {
        HolModel::new(SIXTEEN_MIB, 64, 16)
    }

    #[test]
    fn single_stream_pays_the_whole_bulk_transfer() {
        let net = GigaEModel::new();
        let m = model();
        assert_eq!(
            m.small_call_single_stream(&net),
            net.app_transfer(SIXTEEN_MIB) + net.round_trip(64, 16)
        );
    }

    #[test]
    fn muxed_waits_at_most_one_chunk_per_direction() {
        let net = GigaEModel::new();
        let m = model();
        // The mux bound is far below even half the bulk transfer.
        assert!(m.small_call_muxed(&net) < net.app_transfer(SIXTEEN_MIB / 2));
    }

    #[test]
    fn improvement_is_at_least_5x_for_16mib_on_both_paper_networks() {
        let m = model();
        for net in [&GigaEModel::new() as &dyn NetworkModel, &Ib40GModel::new()] {
            let x = m.improvement(net);
            assert!(x >= 5.0, "{}: predicted only {x:.1}x", net.name());
        }
    }

    #[test]
    fn tiny_bulk_degenerates_gracefully() {
        // A bulk smaller than one chunk: mux still does strictly better
        // than single-stream only through fair-sharing, and the ratio
        // stays finite and ≥ a fraction of 1.
        let net = GigaEModel::new();
        let m = HolModel::new(1024, 64, 16);
        let x = m.improvement(&net);
        assert!(x.is_finite() && x > 0.1, "{x}");
    }

    #[test]
    fn improvement_grows_with_bulk_size() {
        let net = GigaEModel::new();
        let small = HolModel::new(1 << 20, 64, 16).improvement(&net);
        let large = HolModel::new(64 << 20, 64, 16).improvement(&net);
        assert!(large > small * 10.0, "{small} vs {large}");
    }
}
