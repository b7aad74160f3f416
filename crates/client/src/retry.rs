//! Retry policy and the idempotency classification that gates it.
//!
//! A transport fault leaves the client unable to tell whether the server
//! executed the in-flight request before the connection died. Replaying is
//! therefore only safe for **idempotent** requests — those whose re-execution
//! on the server's (resumed) context cannot change observable state:
//!
//! * pure reads: device queries, device-to-host copies, elapsed-time reads;
//! * absolute writes: host-to-device copies and memsets to an allocation the
//!   client owns — writing the same bytes to the same address twice equals
//!   writing them once;
//! * synchronization: waiting twice is waiting once.
//!
//! Everything that allocates, frees, creates, destroys, or enqueues work —
//! `cudaMalloc`, `cudaFree`, `cudaLaunch`, stream/event create/destroy,
//! `cudaEventRecord` — is **not** replayable: a retry could double-allocate,
//! double-free, or double-execute a kernel. Faults on those calls surface to
//! the application immediately as a transport-class [`rcuda_core::CudaError`]
//! even when retries are enabled.
//!
//! The backoff sequence is deterministic (no jitter): exponential doubling
//! from `base_backoff`, capped at `max_backoff`. Determinism matters more
//! here than thundering-herd protection — the conformance suite replays
//! fault schedules byte-for-byte.

use rcuda_proto::{Batch, Request};
use std::time::Duration;

/// When and how often a faulted call is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = fail-fast, the default:
    /// faults surface immediately exactly as before retry support existed).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Fail-fast: no retries (the default).
    pub fn none() -> RetryPolicy {
        RetryPolicy::default()
    }

    /// Retry up to `max_retries` times with the default backoff curve.
    pub fn retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The pause before retry number `attempt` (0-based): exponential
    /// doubling from `base_backoff`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }
}

/// Whether `req` may be transparently replayed after a reconnect (the call
/// table's `replay` column).
pub fn is_idempotent(req: &Request) -> bool {
    req.replayable()
}

/// A batch is replayable only if every element is.
pub fn batch_is_idempotent(batch: &Batch) -> bool {
    batch.requests().iter().all(is_idempotent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_core::DevicePtr;
    use rcuda_proto::ids::MemcpyKind;

    fn h2d() -> Request {
        Request::Memcpy {
            dst: 0x10,
            src: 0,
            size: 4,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![0; 4].into()),
        }
    }

    #[test]
    fn default_is_fail_fast() {
        assert_eq!(RetryPolicy::default().max_retries, 0);
        assert_eq!(RetryPolicy::none(), RetryPolicy::default());
        assert_eq!(RetryPolicy::retries(3).max_retries, 3);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(6), Duration::from_millis(64));
        assert_eq!(p.backoff(7), Duration::from_millis(100), "capped");
        assert_eq!(p.backoff(63), Duration::from_millis(100), "no overflow");
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::retries(5);
        for attempt in 0..8 {
            assert_eq!(p.backoff(attempt), p.backoff(attempt));
        }
    }

    #[test]
    fn reads_copies_and_syncs_replay() {
        for req in [
            Request::DeviceProps,
            h2d(),
            Request::Memcpy {
                dst: 0,
                src: 0x10,
                size: 4,
                kind: MemcpyKind::DeviceToHost,
                data: None,
            },
            Request::Memset {
                dst: 0x10,
                value: 0,
                size: 4,
            },
            Request::ThreadSynchronize,
            Request::StreamSynchronize { stream: 1 },
            Request::EventSynchronize { event: 1 },
            Request::EventElapsed { start: 1, end: 2 },
            Request::Init { module: vec![] },
        ] {
            assert!(is_idempotent(&req), "{req:?}");
        }
    }

    #[test]
    fn state_changers_never_replay() {
        for req in [
            Request::Malloc { size: 4 },
            Request::Free {
                ptr: DevicePtr::new(0x10),
            },
            Request::launch("k", &[], rcuda_proto::LaunchConfig::simple(1, 1)),
            Request::StreamCreate,
            Request::StreamDestroy { stream: 1 },
            Request::EventCreate,
            Request::EventRecord {
                event: 1,
                stream: 0,
            },
            Request::EventDestroy { event: 1 },
            Request::Quit,
        ] {
            assert!(!is_idempotent(&req), "{req:?}");
        }
    }

    #[test]
    fn batch_replayability_is_all_or_nothing() {
        let all_safe = Batch::new(vec![h2d(), Request::ThreadSynchronize]).unwrap();
        assert!(batch_is_idempotent(&all_safe));
        let one_unsafe = Batch::new(vec![
            h2d(),
            Request::launch("k", &[], rcuda_proto::LaunchConfig::simple(1, 1)),
        ])
        .unwrap();
        assert!(!batch_is_idempotent(&one_unsafe));
    }
}
