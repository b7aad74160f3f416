//! Link sharing under multi-client contention.
//!
//! The paper leaves "potential network contention caused by multiple
//! applications running in a cluster featuring several GPGPU servers" to
//! future work (§II). We model the first-order effect: when `k` bulk flows
//! cross the same server link simultaneously, each sees `1/k` of the
//! effective bandwidth (max-min fair share), while per-message base latency
//! is unaffected. The `cluster_share` example and the contention ablation
//! bench build on this.

use rcuda_core::SimTime;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::model::NetworkModel;

/// A network link shared by a varying number of concurrent bulk flows.
pub struct SharedLink {
    inner: Arc<dyn NetworkModel>,
    active_flows: Mutex<u32>,
}

impl SharedLink {
    fn active_flows(&self) -> MutexGuard<'_, u32> {
        self.active_flows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub fn new(inner: Arc<dyn NetworkModel>) -> Self {
        SharedLink {
            inner,
            active_flows: Mutex::new(0),
        }
    }

    /// Current number of registered flows.
    pub fn flows(&self) -> u32 {
        *self.active_flows()
    }

    /// Register a flow; returns a guard that deregisters on drop.
    pub fn join(self: &Arc<Self>) -> FlowGuard {
        *self.active_flows() += 1;
        FlowGuard {
            link: Arc::clone(self),
        }
    }

    /// Time for a bulk transfer of `bytes` given the *current* contention.
    /// With zero or one registered flows this equals the underlying model's
    /// application-transfer time.
    pub fn contended_transfer(&self, bytes: u64) -> SimTime {
        let flows = self.flows().max(1) as u64;
        let base = self.inner.app_transfer(bytes);
        SimTime::from_nanos(base.as_nanos() * flows)
    }

    /// Deterministic what-if: transfer time under exactly `flows` flows.
    pub fn transfer_with_flows(&self, bytes: u64, flows: u32) -> SimTime {
        let base = self.inner.app_transfer(bytes);
        SimTime::from_nanos(base.as_nanos() * flows.max(1) as u64)
    }

    /// The underlying uncontended model.
    pub fn network(&self) -> &dyn NetworkModel {
        &*self.inner
    }
}

/// Registration of one active flow on a [`SharedLink`].
pub struct FlowGuard {
    link: Arc<SharedLink>,
}

impl Drop for FlowGuard {
    fn drop(&mut self) {
        let mut flows = self.link.active_flows();
        debug_assert!(*flows > 0);
        *flows = flows.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gige::GigaEModel;

    fn link() -> Arc<SharedLink> {
        Arc::new(SharedLink::new(Arc::new(GigaEModel::new())))
    }

    #[test]
    fn single_flow_matches_uncontended() {
        let l = link();
        let _g = l.join();
        assert_eq!(
            l.contended_transfer(64 << 20),
            l.network().app_transfer(64 << 20)
        );
    }

    #[test]
    fn fair_share_scales_linearly() {
        let l = link();
        let t1 = l.transfer_with_flows(64 << 20, 1);
        let t4 = l.transfer_with_flows(64 << 20, 4);
        assert_eq!(t4.as_nanos(), t1.as_nanos() * 4);
    }

    #[test]
    fn guards_track_membership() {
        let l = link();
        assert_eq!(l.flows(), 0);
        let g1 = l.join();
        let g2 = l.join();
        assert_eq!(l.flows(), 2);
        drop(g1);
        assert_eq!(l.flows(), 1);
        drop(g2);
        assert_eq!(l.flows(), 0);
    }

    #[test]
    fn zero_flows_behaves_like_one() {
        let l = link();
        assert_eq!(
            l.contended_transfer(1 << 20),
            l.transfer_with_flows(1 << 20, 1)
        );
    }
}
