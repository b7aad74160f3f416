//! Extended §V estimator for phase-structured workloads.
//!
//! The paper's model (see [`crate::estimate()`]) prices an execution as a
//! network-independent fixed time plus `k` *bulk* copies at the target
//! network's effective bandwidth — valid for MM/FFT because they move "few,
//! large messages". The AI-inference workloads in `rcuda-workloads` break
//! that assumption two ways:
//!
//! 1. **Call-rate-bound phases.** Thousands of sub-4 KiB launches/memcpys
//!    spend their time in per-message latency, not bandwidth. Pricing them
//!    with `bytes / bandwidth` underestimates by orders of magnitude; the
//!    extension charges `n · round_trip(avg_request, avg_response)` instead.
//! 2. **Queueing under concurrency.** An open/closed-loop tenant mix
//!    contends for the daemon's shards; the extension adds an M/D/c-style
//!    wait term on top of the per-client service estimate.
//!
//! The original single-phase model stays untouched in [`crate::estimate()`] —
//! regression tests below pin its MM/FFT outputs to their pre-extension
//! values so the paper's Tables IV–VI are provably undisturbed.

use rcuda_core::SimTime;
use rcuda_netsim::NetworkModel;
use serde::Serialize;

/// How a phase's network share scales when re-priced onto another network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PhaseKind {
    /// Few large messages: the paper's regime. Priced as one application
    /// transfer per direction on the phase's byte totals.
    BulkTransfer,
    /// Many small synchronous exchanges: priced per call as a full round
    /// trip of the average request/response — the per-call latency floor
    /// the paper's bandwidth-only arithmetic cannot see.
    CallRate,
    /// No network share at all (pure GPU/CPU time): contributes only to the
    /// fixed time.
    Fixed,
}

/// The network-relevant shape of one workload phase, as measured by
/// `Report::phase_rows` (or declared a priori for planning).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseShape {
    pub name: &'static str,
    pub kind: PhaseKind,
    /// Synchronous exchanges in the phase (round trips in pipelined mode:
    /// one per flush, not one per deferred call).
    pub calls: u64,
    /// Request bytes summed over the phase.
    pub bytes_sent: u64,
    /// Response bytes summed over the phase.
    pub bytes_received: u64,
}

impl PhaseShape {
    /// A bulk-transfer phase (the paper's regime).
    pub fn bulk(name: &'static str, calls: u64, sent: u64, received: u64) -> Self {
        PhaseShape {
            name,
            kind: PhaseKind::BulkTransfer,
            calls,
            bytes_sent: sent,
            bytes_received: received,
        }
    }

    /// A call-rate-bound phase (many small exchanges).
    pub fn call_rate(name: &'static str, calls: u64, sent: u64, received: u64) -> Self {
        PhaseShape {
            name,
            kind: PhaseKind::CallRate,
            calls,
            bytes_sent: sent,
            bytes_received: received,
        }
    }

    /// A network-free phase.
    pub fn fixed(name: &'static str) -> Self {
        PhaseShape {
            name,
            kind: PhaseKind::Fixed,
            calls: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// The phase's network share on `net` under its pricing rule.
    pub fn network_time(&self, net: &dyn NetworkModel) -> SimTime {
        match self.kind {
            PhaseKind::BulkTransfer => {
                net.app_transfer(self.bytes_sent) + net.app_transfer(self.bytes_received)
            }
            PhaseKind::CallRate => {
                if self.calls == 0 {
                    return SimTime::ZERO;
                }
                net.round_trip(
                    self.bytes_sent / self.calls,
                    self.bytes_received / self.calls,
                ) * self.calls
            }
            PhaseKind::Fixed => SimTime::ZERO,
        }
    }
}

/// A workload as a sequence of phases — the unit the extended model
/// re-prices across networks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadShape {
    pub name: &'static str,
    pub phases: Vec<PhaseShape>,
}

impl WorkloadShape {
    /// Summed network share of every phase on `net`.
    pub fn network_time(&self, net: &dyn NetworkModel) -> SimTime {
        self.phases
            .iter()
            .map(|p| p.network_time(net))
            .fold(SimTime::ZERO, |a, b| a + b)
    }
}

/// Extract the network-independent fixed time from a measurement on `src`:
/// the multi-phase generalization of [`crate::estimate::fixed_time`].
/// Saturates at zero when the model over-accounts the network share.
pub fn fixed_time_workload(
    measured: SimTime,
    shape: &WorkloadShape,
    src: &dyn NetworkModel,
) -> SimTime {
    measured.saturating_sub(shape.network_time(src))
}

/// Re-price a fixed time onto `dst`: the multi-phase generalization of
/// [`crate::estimate::estimate`].
pub fn estimate_workload(fixed: SimTime, shape: &WorkloadShape, dst: &dyn NetworkModel) -> SimTime {
    fixed + shape.network_time(dst)
}

/// Mean extra wait per request in a *closed* loop: `n` always-on clients
/// sharing `c` servers, each request holding a server for `service`.
///
/// With `n ≤ c` nobody waits; beyond that each request queues behind
/// `⌈n/c⌉ − 1` peers on its server in the steady round-robin state, so the
/// wait is `service · (⌈n/c⌉ − 1)` — the deterministic-service analogue of
/// the machine-repairman model, and exact for identical deterministic
/// clients.
pub fn closed_loop_wait(service: SimTime, clients: u64, servers: u64) -> SimTime {
    assert!(servers > 0, "at least one server");
    let depth = clients.div_ceil(servers).saturating_sub(1);
    service * depth
}

/// Mean wait in an *open* M/D/1 loop at utilization `rho = λ·service`:
/// the Pollaczek–Khinchine mean `W = ρ·s / (2(1 − ρ))` for deterministic
/// service. Returns `None` when the queue is unstable (`ρ ≥ 1`).
pub fn open_loop_wait(service: SimTime, rho: f64) -> Option<SimTime> {
    if !(0.0..1.0).contains(&rho) {
        return None;
    }
    Some(SimTime::from_secs_f64(
        rho * service.as_secs_f64() / (2.0 * (1.0 - rho)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{cross_validate, estimate, fixed_time};
    use rcuda_core::CaseStudy;
    use rcuda_netsim::NetworkId;

    fn net(id: NetworkId) -> Box<dyn NetworkModel> {
        id.model()
    }

    #[test]
    fn bulk_phase_prices_on_totals() {
        let g = net(NetworkId::GigaE);
        let p = PhaseShape::bulk("weights", 3, 64 << 20, 24);
        assert_eq!(
            p.network_time(g.as_ref()),
            g.app_transfer(64 << 20) + g.app_transfer(24)
        );
    }

    #[test]
    fn call_rate_phase_charges_the_latency_floor() {
        let g = net(NetworkId::GigaE);
        // 10_000 exchanges of 256 B each way.
        let calls = 10_000;
        let p = PhaseShape::call_rate("smallcalls", calls, calls * 256, calls * 256);
        let per_call = g.round_trip(256, 256);
        assert_eq!(p.network_time(g.as_ref()), per_call * calls);
        // The paper's bulk arithmetic sees only the bytes and misses the
        // per-message latency — the new term must dominate it.
        let bulk = PhaseShape::bulk("same-bytes", calls, calls * 256, calls * 256);
        assert!(
            p.network_time(g.as_ref()) > bulk.network_time(g.as_ref()) * 4,
            "latency floor {:?} should dwarf bulk pricing {:?}",
            p.network_time(g.as_ref()),
            bulk.network_time(g.as_ref())
        );
    }

    #[test]
    fn fixed_phase_is_free_on_every_network() {
        let p = PhaseShape::fixed("gpu-only");
        for id in [NetworkId::GigaE, NetworkId::Ib40G, NetworkId::AsicHt] {
            assert_eq!(p.network_time(net(id).as_ref()), SimTime::ZERO);
        }
        assert_eq!(
            PhaseShape::call_rate("empty", 0, 0, 0).network_time(net(NetworkId::GigaE).as_ref()),
            SimTime::ZERO
        );
    }

    #[test]
    fn estimating_the_source_network_is_the_identity() {
        let g = net(NetworkId::GigaE);
        let shape = WorkloadShape {
            name: "transformer",
            phases: vec![
                PhaseShape::bulk("weights", 2, 32 << 20, 16),
                PhaseShape::call_rate("block", 500, 500 * 96, 500 * 8),
                PhaseShape::fixed("gpu"),
            ],
        };
        let measured = SimTime::from_secs_f64(4.0);
        let fixed = fixed_time_workload(measured, &shape, g.as_ref());
        assert_eq!(estimate_workload(fixed, &shape, g.as_ref()), measured);
    }

    #[test]
    fn faster_network_shrinks_the_estimate() {
        let g = net(NetworkId::GigaE);
        let ib = net(NetworkId::Ib40G);
        let shape = WorkloadShape {
            name: "transformer",
            phases: vec![
                PhaseShape::bulk("weights", 2, 32 << 20, 16),
                PhaseShape::call_rate("block", 500, 500 * 96, 500 * 8),
            ],
        };
        let fixed = SimTime::from_secs_f64(1.0);
        assert!(
            estimate_workload(fixed, &shape, ib.as_ref())
                < estimate_workload(fixed, &shape, g.as_ref())
        );
    }

    #[test]
    fn closed_loop_wait_covers_the_three_regimes() {
        let s = SimTime::from_millis_f64(10.0);
        // Fewer clients than servers: nobody waits.
        assert_eq!(closed_loop_wait(s, 2, 4), SimTime::ZERO);
        assert_eq!(closed_loop_wait(s, 4, 4), SimTime::ZERO);
        // 8 clients on 4 servers: one peer ahead.
        assert_eq!(closed_loop_wait(s, 8, 4), s);
        // 9 clients on 4 servers: ceil(9/4) = 3 deep.
        assert_eq!(closed_loop_wait(s, 9, 4), s * 2);
    }

    #[test]
    fn open_loop_wait_matches_pollaczek_khinchine() {
        let s = SimTime::from_millis_f64(10.0);
        // rho = 0.5 -> W = 0.5 * 10ms / (2 * 0.5) = 5 ms.
        let w = open_loop_wait(s, 0.5).unwrap();
        assert!((w.as_millis_f64() - 5.0).abs() < 1e-9, "{w:?}");
        assert_eq!(open_loop_wait(s, 0.0).unwrap(), SimTime::ZERO);
        assert!(open_loop_wait(s, 1.0).is_none(), "unstable queue");
        assert!(open_loop_wait(s, -0.1).is_none());
    }

    /// Regression pin (satellite S4): the *original* §V estimator's MM and
    /// FFT outputs, nanosecond-exact. The extended model above must never
    /// perturb these — it lives in new functions, and this test proves the
    /// old entry points still compute the paper's Tables IV–VI inputs
    /// bit-for-bit.
    #[test]
    fn paper_estimator_outputs_are_pinned_pre_extension() {
        let mm = CaseStudy::MatMul { dim: 4096 };
        let fft = CaseStudy::Fft { batch: 2048 };

        // MM 4096, Table IV row (GigaE model -> 40GI).
        let row = cross_validate(
            mm,
            NetworkId::GigaE,
            NetworkId::Ib40G,
            SimTime::from_secs_f64(3.64),
            SimTime::from_secs_f64(2.03),
        );
        assert_eq!(row.fixed.as_nanos(), 1_931_814_946);
        assert_eq!(row.estimated_dst.as_nanos(), 2_072_258_221);
        assert!(
            (row.error - 0.020_816_857).abs() < 1e-9,
            "error {}",
            row.error
        );

        // FFT 2048, same direction.
        let row = cross_validate(
            fft,
            NetworkId::GigaE,
            NetworkId::Ib40G,
            SimTime::from_millis_f64(183.0),
            SimTime::from_millis_f64(48.0),
        );
        assert_eq!(row.fixed.as_nanos(), 40_651_246);
        assert_eq!(row.estimated_dst.as_nanos(), 52_354_852);

        // And the raw fixed/estimate pair used by Table VI.
        let fixed = fixed_time(SimTime::from_secs_f64(3.0), mm, NetworkId::TenGigE);
        let est = estimate(fixed, mm, NetworkId::AsicHt);
        assert_eq!(
            (fixed.as_nanos(), est.as_nanos()),
            (2_781_818_181, 2_848_392_384)
        );
    }
}
