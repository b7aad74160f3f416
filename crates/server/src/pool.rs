//! Multi-GPU scheduling — the paper's declared future work ("Scheduling of
//! multiple GPUs being simultaneously accessed by several applications also
//! needs to be addressed", §VII).
//!
//! A [`GpuPool`] owns several devices and assigns each incoming session to
//! one of them under a pluggable policy. Assignment returns a guard whose
//! lifetime tracks the session, so load accounting is automatic.

use rcuda_gpu::GpuDevice;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};

/// Session-placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Cycle through devices in order — fair when sessions are uniform.
    RoundRobin,
    /// Pick the device with the fewest active sessions — better when
    /// session lifetimes are skewed.
    LeastLoaded,
}

/// A pool of GPUs serving one daemon.
pub struct GpuPool {
    devices: Vec<Arc<GpuDevice>>,
    loads: Vec<Arc<AtomicUsize>>,
    policy: PoolPolicy,
    next_rr: Mutex<usize>,
}

impl GpuPool {
    /// Build a pool. Panics if empty — a GPU service needs a GPU.
    pub fn new(devices: Vec<Arc<GpuDevice>>, policy: PoolPolicy) -> Self {
        assert!(!devices.is_empty(), "a pool needs at least one device");
        let loads = devices
            .iter()
            .map(|_| Arc::new(AtomicUsize::new(0)))
            .collect();
        GpuPool {
            devices,
            loads,
            policy,
            next_rr: Mutex::new(0),
        }
    }

    /// A homogeneous pool of `n` functional C1060s.
    pub fn uniform_c1060(n: usize, policy: PoolPolicy) -> Self {
        GpuPool::new(
            (0..n)
                .map(|_| GpuDevice::tesla_c1060_functional())
                .collect(),
            policy,
        )
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The pool's devices, in index order.
    pub fn devices(&self) -> &[Arc<GpuDevice>] {
        &self.devices
    }

    /// Active sessions per device.
    pub fn loads(&self) -> Vec<usize> {
        self.loads
            .iter()
            .map(|l| l.load(Ordering::SeqCst))
            .collect()
    }

    /// Assign a session to a device. The returned guard holds the load
    /// count until dropped (i.e. for the session's lifetime).
    pub fn assign(&self) -> (Arc<GpuDevice>, PoolGuard) {
        let idx = match self.policy {
            PoolPolicy::RoundRobin => {
                let mut next = self.next_rr.lock().unwrap_or_else(PoisonError::into_inner);
                let idx = *next;
                *next = (*next + 1) % self.devices.len();
                idx
            }
            PoolPolicy::LeastLoaded => self
                .loads
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.load(Ordering::SeqCst))
                .map(|(i, _)| i)
                .unwrap(),
        };
        self.loads[idx].fetch_add(1, Ordering::SeqCst);
        (
            Arc::clone(&self.devices[idx]),
            PoolGuard {
                load: Arc::clone(&self.loads[idx]),
                device_index: idx,
            },
        )
    }
}

/// Holds one session's slot on a pool device; releases on drop.
pub struct PoolGuard {
    load: Arc<AtomicUsize>,
    device_index: usize,
}

impl PoolGuard {
    /// Which device the session landed on.
    pub fn device_index(&self) -> usize {
        self.device_index
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        self.load.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_through_devices() {
        let pool = GpuPool::uniform_c1060(3, PoolPolicy::RoundRobin);
        let picks: Vec<usize> = (0..6).map(|_| pool.assign().1.device_index()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_balances_skewed_lifetimes() {
        let pool = GpuPool::uniform_c1060(2, PoolPolicy::LeastLoaded);
        // A long-lived session pins device 0...
        let (_, long_lived) = pool.assign();
        assert_eq!(long_lived.device_index(), 0);
        // ...so the next two short sessions land on 1, then (after the
        // first ends) the balance is restored.
        let (_, s1) = pool.assign();
        assert_eq!(s1.device_index(), 1);
        drop(s1);
        let (_, s2) = pool.assign();
        assert_eq!(s2.device_index(), 1, "0 still busy, 1 is free again");
        assert_eq!(pool.loads(), vec![1, 1]);
        drop(s2);
        drop(long_lived);
        assert_eq!(pool.loads(), vec![0, 0]);
    }

    #[test]
    fn guards_release_on_drop() {
        let pool = GpuPool::uniform_c1060(1, PoolPolicy::RoundRobin);
        {
            let (_, _g1) = pool.assign();
            let (_, _g2) = pool.assign();
            assert_eq!(pool.loads(), vec![2]);
        }
        assert_eq!(pool.loads(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_rejected() {
        GpuPool::new(vec![], PoolPolicy::RoundRobin);
    }

    #[test]
    fn concurrent_assignment_is_consistent() {
        let pool = Arc::new(GpuPool::uniform_c1060(4, PoolPolicy::LeastLoaded));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let (_, g) = pool.assign();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    g.device_index()
                })
            })
            .collect();
        let picks: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All devices get used under concurrent load.
        for d in 0..4 {
            assert!(picks.contains(&d), "device {d} never used");
        }
        assert_eq!(pool.loads(), vec![0, 0, 0, 0], "all released");
    }
}
