//! Parked sessions awaiting reconnection.
//!
//! When a resumable session's connection dies without an orderly Quit, its
//! worker parks the GPU context here under the client-chosen session token.
//! A worker serving the client's replacement connection takes the context
//! back out and resumes exactly where the old session stopped — allocations,
//! loaded module, streams and events all survive the reconnect.
//!
//! [`SessionRegistry::take_deadline`] waits briefly for the context to
//! appear: on a real network the client's new connection can be accepted
//! before the old worker has observed the EOF and parked, and the timed
//! wait closes that race without busy-looping. A token that never shows up
//! is a clean rejection, not a hang.

use rcuda_gpu::GpuContext;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most sessions a registry will hold parked at once; beyond this the
/// oldest parked session is evicted (its context dropped, resources
/// released) so an unbounded stream of crashing clients cannot pin GPU
/// state forever.
const DEFAULT_CAPACITY: usize = 64;

struct Parked {
    ctx: GpuContext,
    parked_at: u64,
}

struct Inner {
    parked: HashMap<u64, Parked>,
    /// Monotonic park sequence, for oldest-first eviction.
    seq: u64,
}

/// Shared store of parked sessions, keyed by session token.
pub struct SessionRegistry {
    inner: Mutex<Inner>,
    arrived: Condvar,
    capacity: usize,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    pub fn new() -> SessionRegistry {
        SessionRegistry::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> SessionRegistry {
        assert!(capacity > 0, "registry capacity must be positive");
        SessionRegistry {
            inner: Mutex::new(Inner {
                parked: HashMap::new(),
                seq: 0,
            }),
            arrived: Condvar::new(),
            capacity,
        }
    }

    /// Park a session's context for later resume. Replaces any context
    /// already parked under the same token; evicts the oldest parked
    /// session when full.
    ///
    /// Returns the evicted `(token, context)` so the caller can release it
    /// through the same reclamation path as a worker exit — dropping it
    /// silently here would leak the evicted session's device allocations
    /// from every observer's point of view.
    #[must_use = "an evicted session's context must be reclaimed, not dropped silently"]
    pub fn park(&self, session: u64, ctx: GpuContext) -> Option<(u64, GpuContext)> {
        let mut inner = self.inner.lock().expect("registry lock");
        let mut evicted = None;
        if inner.parked.len() >= self.capacity && !inner.parked.contains_key(&session) {
            if let Some(oldest) = inner
                .parked
                .iter()
                .min_by_key(|(_, p)| p.parked_at)
                .map(|(k, _)| *k)
            {
                evicted = inner.parked.remove(&oldest).map(|p| (oldest, p.ctx));
            }
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.parked.insert(
            session,
            Parked {
                ctx,
                parked_at: seq,
            },
        );
        self.arrived.notify_all();
        evicted
    }

    /// Take a parked context out, if present.
    pub fn take(&self, session: u64) -> Option<GpuContext> {
        self.inner
            .lock()
            .expect("registry lock")
            .parked
            .remove(&session)
            .map(|p| p.ctx)
    }

    /// Take a parked context, waiting up to `timeout` for it to be parked.
    /// Closes the race where the reconnecting client's new worker runs
    /// before the old worker has noticed the disconnect.
    pub fn take_deadline(&self, session: u64, timeout: Duration) -> Option<GpuContext> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            if let Some(p) = inner.parked.remove(&session) {
                return Some(p.ctx);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timed_out) = self
                .arrived
                .wait_timeout(inner, deadline - now)
                .expect("registry lock");
            inner = guard;
            if timed_out.timed_out() {
                return inner.parked.remove(&session).map(|p| p.ctx);
            }
        }
    }

    /// Number of sessions currently parked.
    pub fn parked_count(&self) -> usize {
        self.inner.lock().expect("registry lock").parked.len()
    }

    /// Tokens of every currently parked session, in no particular order.
    /// A snapshot: a concurrent take or park may invalidate it immediately,
    /// so callers (the broker heartbeat, drain-time migration) must treat a
    /// later `take` returning `None` as "already resumed", not an error.
    pub fn parked_tokens(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("registry lock")
            .parked
            .keys()
            .copied()
            .collect()
    }

    /// Empty the registry, returning every parked `(token, context)` for
    /// reclamation (daemon drain: nobody is coming back for them).
    pub fn drain_parked(&self) -> Vec<(u64, GpuContext)> {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.parked.drain().map(|(k, p)| (k, p.ctx)).collect()
    }
}

/// The registry among `shards` that holds `session`. Routing is by token
/// hash; a lone registry (the blocking driver's) is a one-element slice.
pub(crate) fn route(shards: &[SessionRegistry], session: u64) -> &SessionRegistry {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    session.hash(&mut h);
    &shards[(h.finish() % shards.len() as u64) as usize]
}

/// A hash-routed set of [`SessionRegistry`] shards.
///
/// The reactor daemon parks and resumes sessions from every shard thread;
/// routing tokens across independent registries keeps those threads off a
/// single park/take mutex. Routing is by token hash, so a session parked by
/// a connection on one reactor shard is found by its replacement connection
/// regardless of which reactor shard that lands on.
///
/// When a total capacity is configured it is distributed across the
/// registry shards (never below one slot each); the oldest-first eviction
/// guarantee then holds per shard rather than globally, which preserves the
/// bounded-occupancy contract admission control relies on.
pub struct ShardedRegistry {
    shards: Vec<SessionRegistry>,
}

impl ShardedRegistry {
    /// `shards` hash-routed registries with the default per-shard capacity.
    pub fn new(shards: usize) -> ShardedRegistry {
        let n = shards.max(1);
        ShardedRegistry {
            shards: (0..n).map(|_| SessionRegistry::new()).collect(),
        }
    }

    /// A sharded registry bounding **total** parked occupancy to
    /// `capacity`. Uses `min(shards, capacity)` registries so every shard
    /// keeps at least one slot.
    pub fn with_total_capacity(shards: usize, capacity: usize) -> ShardedRegistry {
        assert!(capacity > 0, "registry capacity must be positive");
        let n = shards.max(1).min(capacity);
        let base = capacity / n;
        let rem = capacity % n;
        ShardedRegistry {
            shards: (0..n)
                .map(|i| SessionRegistry::with_capacity(base + usize::from(i < rem)))
                .collect(),
        }
    }

    fn route(&self, session: u64) -> &SessionRegistry {
        route(&self.shards, session)
    }

    /// The hash-routed shards, for [`route`].
    pub(crate) fn shards(&self) -> &[SessionRegistry] {
        &self.shards
    }

    /// Number of registry shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Park `session`'s context on its shard; see [`SessionRegistry::park`].
    #[must_use = "an evicted session's context must be reclaimed, not dropped silently"]
    pub fn park(&self, session: u64, ctx: GpuContext) -> Option<(u64, GpuContext)> {
        self.route(session).park(session, ctx)
    }

    /// Take a parked context out, if present.
    pub fn take(&self, session: u64) -> Option<GpuContext> {
        self.route(session).take(session)
    }

    /// Take a parked context, waiting up to `timeout` for it to appear.
    pub fn take_deadline(&self, session: u64, timeout: Duration) -> Option<GpuContext> {
        self.route(session).take_deadline(session, timeout)
    }

    /// Sessions parked across all shards.
    pub fn parked_count(&self) -> usize {
        self.shards.iter().map(|s| s.parked_count()).sum()
    }

    /// Tokens parked across all shards (unordered snapshot).
    pub fn parked_tokens(&self) -> Vec<u64> {
        self.shards.iter().flat_map(|s| s.parked_tokens()).collect()
    }

    /// Empty every shard, returning all parked `(token, context)` pairs.
    pub fn drain_parked(&self) -> Vec<(u64, GpuContext)> {
        self.shards.iter().flat_map(|s| s.drain_parked()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_core::time::wall_clock;
    use rcuda_gpu::GpuDevice;
    use std::sync::Arc;

    fn ctx() -> GpuContext {
        GpuDevice::tesla_c1060_functional().create_context(wall_clock(), true)
    }

    #[test]
    fn park_then_take_round_trips() {
        let reg = SessionRegistry::new();
        assert!(reg.park(7, ctx()).is_none());
        assert_eq!(reg.parked_count(), 1);
        assert!(reg.take(7).is_some());
        assert!(reg.take(7).is_none(), "taking is consuming");
        assert_eq!(reg.parked_count(), 0);
    }

    #[test]
    fn take_deadline_waits_for_late_park() {
        let reg = Arc::new(SessionRegistry::new());
        let reg2 = Arc::clone(&reg);
        let parker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let _ = reg2.park(42, ctx());
        });
        // The taker arrives first; the timed wait bridges the gap.
        let got = reg.take_deadline(42, Duration::from_secs(2));
        assert!(got.is_some());
        parker.join().unwrap();
    }

    #[test]
    fn take_deadline_gives_up_cleanly() {
        let reg = SessionRegistry::new();
        let start = Instant::now();
        assert!(reg.take_deadline(99, Duration::from_millis(25)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert!(start.elapsed() < Duration::from_secs(2), "no hang");
    }

    #[test]
    fn capacity_evicts_oldest_and_hands_it_back() {
        let reg = SessionRegistry::with_capacity(2);
        assert!(reg.park(1, ctx()).is_none());
        assert!(reg.park(2, ctx()).is_none());
        let evicted = reg.park(3, ctx());
        assert_eq!(evicted.as_ref().map(|(t, _)| *t), Some(1), "oldest out");
        assert_eq!(reg.parked_count(), 2);
        assert!(reg.take(1).is_none(), "oldest was evicted");
        assert!(reg.take(2).is_some());
        assert!(reg.take(3).is_some());
    }

    #[test]
    fn reparking_same_token_replaces_not_evicts() {
        let reg = SessionRegistry::with_capacity(2);
        let _ = reg.park(1, ctx());
        let _ = reg.park(2, ctx());
        assert!(reg.park(2, ctx()).is_none(), "replacement, not eviction");
        assert_eq!(reg.parked_count(), 2);
        assert!(reg.take(1).is_some(), "1 must not have been evicted");
    }

    #[test]
    fn drain_parked_empties_the_registry() {
        let reg = SessionRegistry::new();
        let _ = reg.park(1, ctx());
        let _ = reg.park(2, ctx());
        let mut drained: Vec<u64> = reg.drain_parked().into_iter().map(|(t, _)| t).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(reg.parked_count(), 0);
    }

    #[test]
    fn sharded_registry_routes_park_and_take_consistently() {
        let reg = ShardedRegistry::new(4);
        assert_eq!(reg.shard_count(), 4);
        for token in 0..32u64 {
            assert!(reg.park(token, ctx()).is_none());
        }
        assert_eq!(reg.parked_count(), 32);
        for token in 0..32u64 {
            assert!(reg.take(token).is_some(), "token {token} lost in routing");
        }
        assert_eq!(reg.parked_count(), 0);
    }

    #[test]
    fn sharded_registry_distributes_total_capacity() {
        let reg = ShardedRegistry::with_total_capacity(4, 6);
        // min(shards, capacity) registries, capacities 2,2,1,1.
        assert_eq!(reg.shard_count(), 4);
        // Capacity never exceeds the configured total, whatever the token
        // distribution.
        let mut evicted = 0;
        for token in 0..64u64 {
            if reg.park(token, ctx()).is_some() {
                evicted += 1;
            }
        }
        assert!(reg.parked_count() <= 6, "total occupancy bounded");
        assert_eq!(evicted + reg.parked_count(), 64);
    }

    #[test]
    fn sharded_registry_keeps_one_slot_per_shard_minimum() {
        let reg = ShardedRegistry::with_total_capacity(8, 3);
        assert_eq!(reg.shard_count(), 3, "shards collapse to the capacity");
        let reg = ShardedRegistry::new(0);
        assert_eq!(reg.shard_count(), 1, "zero shards clamps to one");
    }

    #[test]
    fn parked_tokens_snapshots_the_occupancy() {
        let reg = SessionRegistry::new();
        let _ = reg.park(3, ctx());
        let _ = reg.park(11, ctx());
        let mut tokens = reg.parked_tokens();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![3, 11]);
        let _ = reg.take(3);
        assert_eq!(reg.parked_tokens(), vec![11]);

        let sharded = ShardedRegistry::new(4);
        for token in 0..16u64 {
            let _ = sharded.park(token, ctx());
        }
        let mut tokens = sharded.parked_tokens();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..16).collect::<Vec<_>>());
    }

    /// Two connections racing to resume the same token: exactly one wins.
    /// `take` under the registry mutex is consuming, so the loser sees
    /// `None` and is rejected cleanly — the context is never handed out
    /// twice (which would alias one GPU context across two workers).
    #[test]
    fn concurrent_resume_of_same_token_admits_exactly_one() {
        use std::sync::Barrier;
        for _ in 0..32 {
            let reg = Arc::new(SessionRegistry::new());
            let _ = reg.park(77, ctx());
            let barrier = Arc::new(Barrier::new(2));
            let takers: Vec<_> = (0..2)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        reg.take_deadline(77, Duration::from_millis(20)).is_some()
                    })
                })
                .collect();
            let wins: usize = takers
                .into_iter()
                .map(|t| usize::from(t.join().unwrap()))
                .sum();
            assert_eq!(wins, 1, "exactly one resume may win the parked context");
            assert_eq!(reg.parked_count(), 0);
        }
    }

    /// A resume racing the park itself (park happens between the two
    /// takes): still exactly one winner thanks to the condvar'd
    /// `take_deadline`, and nobody hangs.
    #[test]
    fn resume_racing_the_park_still_admits_exactly_one() {
        use std::sync::Barrier;
        for _ in 0..32 {
            let reg = Arc::new(SessionRegistry::new());
            let barrier = Arc::new(Barrier::new(3));
            let parker = {
                let reg = Arc::clone(&reg);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let _ = reg.park(5, ctx());
                })
            };
            let takers: Vec<_> = (0..2)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        reg.take_deadline(5, Duration::from_millis(200)).is_some()
                    })
                })
                .collect();
            parker.join().unwrap();
            let wins: usize = takers
                .into_iter()
                .map(|t| usize::from(t.join().unwrap()))
                .sum();
            assert_eq!(wins, 1, "park-racing resumes must admit exactly one");
        }
    }

    #[test]
    fn sharded_registry_drain_empties_every_shard() {
        let reg = ShardedRegistry::new(3);
        for token in 0..9u64 {
            let _ = reg.park(token, ctx());
        }
        let mut drained: Vec<u64> = reg.drain_parked().into_iter().map(|(t, _)| t).collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..9).collect::<Vec<_>>());
        assert_eq!(reg.parked_count(), 0);
    }
}
