//! [`DaemonBuilder`]: the one way to configure and start an
//! [`RcudaDaemon`].
//!
//! Collapses the old constructor zoo (`bind` / `bind_with_config` /
//! `bind_pool`) into a single fluent surface that also exposes the
//! reactor-era knobs (shard count, drop-time drain deadline) without
//! another constructor variant per combination.

use rcuda_gpu::GpuDevice;
use rcuda_obs::ObsHandle;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::broker_agent::{BrokerAgent, BrokerAgentConfig};
use crate::daemon::RcudaDaemon;
use crate::pool::{GpuPool, PoolPolicy};
use crate::reactor::Shared;
use crate::registry::ShardedRegistry;
use crate::worker::{ChaosHook, ServerConfig};
use rcuda_proto::secure::CipherSuiteKind;

/// Builder for [`RcudaDaemon`].
///
/// ```no_run
/// use rcuda_server::DaemonBuilder;
///
/// let daemon = DaemonBuilder::new()
///     .shards(4)
///     .max_sessions(256)
///     .session_mem_quota(64 << 20)
///     .drain_deadline(std::time::Duration::from_secs(2))
///     .bind("127.0.0.1:0")
///     .unwrap();
/// # drop(daemon);
/// ```
///
/// Defaults: a single functional Tesla C1060, a shard count derived from
/// the host's available parallelism (clamped to 1..=8), the default
/// [`ServerConfig`], and no drop-time drain (live sessions are
/// hard-stopped when the daemon drops).
#[derive(Default)]
pub struct DaemonBuilder {
    device: Option<Arc<GpuDevice>>,
    pool: Option<Arc<GpuPool>>,
    shards: Option<usize>,
    config: ServerConfig,
    drain_deadline: Option<Duration>,
    broker: Option<SocketAddr>,
    broker_interval: Option<Duration>,
    advertise: Option<String>,
}

/// Default broker heartbeat cadence. The broker's stock
/// [`HealthPolicy`](rcuda_broker::HealthPolicy) suspects a daemon after
/// 250 ms of silence, so the default tolerates several missed beats.
const DEFAULT_BROKER_HEARTBEAT: Duration = Duration::from_millis(50);

impl DaemonBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve this single device. Overridden by [`Self::pool`].
    pub fn device(mut self, device: Arc<GpuDevice>) -> Self {
        self.device = Some(device);
        self
    }

    /// Serve a multi-GPU pool: each incoming session is placed on a device
    /// by the pool's policy (the paper's future-work scheduling). Takes
    /// precedence over [`Self::device`].
    pub fn pool(mut self, pool: Arc<GpuPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Fixed number of reactor shard threads (clamped to at least 1). The
    /// daemon's thread count is `shards + 1` (the accept loop), regardless
    /// of how many sessions are live.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.max(1));
        self
    }

    /// Replace the whole [`ServerConfig`] at once. The per-field setters
    /// below tweak whatever config is current, so call this first if you
    /// combine them.
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Admission cap on concurrently live sessions.
    pub fn max_sessions(mut self, cap: usize) -> Self {
        self.config.max_sessions = Some(cap);
        self
    }

    /// Admission cap on parked-registry occupancy (also the registry's
    /// total capacity across shards).
    pub fn max_parked(mut self, cap: usize) -> Self {
        self.config.max_parked = Some(cap);
        self
    }

    /// Per-session cap on live device bytes.
    pub fn session_mem_quota(mut self, bytes: u64) -> Self {
        self.config.session_mem_quota = Some(bytes);
        self
    }

    /// The retry hint carried in `Busy` rejection frames.
    pub fn busy_retry_after_ms(mut self, ms: u32) -> Self {
        self.config.busy_retry_after_ms = ms;
        self
    }

    /// Require every connection to authenticate with this token: mux trunks
    /// prove possession via the HMAC challenge-response handshake; legacy
    /// single-stream hellos (which cannot carry a token) are rejected with
    /// `rcudaErrorAuthFailed` without consuming a session slot.
    pub fn auth(mut self, required_token: impl Into<Vec<u8>>) -> Self {
        self.config.auth_token = Some(required_token.into());
        self
    }

    /// The cipher suite offered to mux clients requesting payload
    /// encryption. Defaults to [`CipherSuiteKind::ChaCha20`]; pass
    /// [`CipherSuiteKind::None`] to refuse encryption outright.
    pub fn cipher(mut self, suite: CipherSuiteKind) -> Self {
        self.config.cipher = suite;
        self
    }

    /// Keep CUDA contexts warm before clients arrive (§VI-B). On by
    /// default; disable to ablate the pre-initialization benefit.
    pub fn preinitialize_context(mut self, on: bool) -> Self {
        self.config.preinitialize_context = on;
        self
    }

    /// Use phantom device memory (timing-only sessions at paper scale).
    pub fn phantom_memory(mut self, on: bool) -> Self {
        self.config.phantom_memory = on;
        self
    }

    /// Install a server-side observer (dispatch spans, daemon events,
    /// shard spans).
    pub fn observer(mut self, observer: ObsHandle) -> Self {
        self.config.observer = observer;
        self
    }

    /// Arm the test-only per-request chaos hook.
    pub fn chaos(mut self, chaos: ChaosHook) -> Self {
        self.config.chaos = chaos;
        self
    }

    /// Drain this long (graceful, then forced) when the daemon is dropped,
    /// instead of hard-stopping live sessions immediately.
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = Some(deadline);
        self
    }

    /// Register with the cluster broker at `addr`: the daemon announces
    /// itself on bind, heartbeats its health and session list, and
    /// executes the broker's migration orders. The control link
    /// authenticates with the daemon's [`Self::auth`] token (open broker
    /// when none is set). The broker is a placement service, not a data
    /// path dependency — the daemon serves clients with or without it.
    pub fn broker(mut self, addr: SocketAddr) -> Self {
        self.broker = Some(addr);
        self
    }

    /// Heartbeat cadence for the broker registration (default 50 ms).
    /// Keep it a small fraction of the broker's suspect threshold.
    pub fn broker_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.broker_interval = Some(interval);
        self
    }

    /// The address advertised to the broker — what *clients* should dial
    /// to reach this daemon. Defaults to the daemon's bound address,
    /// which is wrong only behind NAT or a `0.0.0.0` bind.
    pub fn advertise(mut self, addr: impl Into<String>) -> Self {
        self.advertise = Some(addr.into());
        self
    }

    /// Bind `addr` (port 0 for ephemeral), start the reactor shards and
    /// the accept loop, and return the running daemon.
    pub fn bind<A: ToSocketAddrs>(self, addr: A) -> io::Result<RcudaDaemon> {
        let pool = match (self.pool, self.device) {
            (Some(pool), _) => pool,
            (None, Some(device)) => Arc::new(GpuPool::new(vec![device], PoolPolicy::RoundRobin)),
            (None, None) => Arc::new(GpuPool::new(
                vec![GpuDevice::tesla_c1060_functional()],
                PoolPolicy::RoundRobin,
            )),
        };
        let shards = self.shards.unwrap_or_else(default_shards);
        // One registry sharded alongside the reactor, so a session parked
        // by a dying connection can be resumed by a later one. Its total
        // capacity is the parked-admission cap when one is configured.
        let registry = match self.config.max_parked {
            Some(cap) => ShardedRegistry::with_total_capacity(shards, cap.max(1)),
            None => ShardedRegistry::new(shards),
        };
        let shared = Arc::new(Shared::new(self.config, registry));
        let mut daemon = RcudaDaemon::start(
            addr,
            Arc::clone(&pool),
            Arc::clone(&shared),
            shards,
            self.drain_deadline,
        )?;
        if let Some(broker) = self.broker {
            let advertise = self
                .advertise
                .unwrap_or_else(|| daemon.local_addr().to_string());
            daemon.agent = Some(BrokerAgent::start(
                BrokerAgentConfig {
                    broker,
                    advertise,
                    interval: self.broker_interval.unwrap_or(DEFAULT_BROKER_HEARTBEAT),
                    token: shared.config.auth_token.clone(),
                },
                shared,
                pool,
            ));
        }
        Ok(daemon)
    }
}

/// Default shard count: the host's available parallelism, clamped to 1..=8
/// (more shards than that buys nothing for a daemon that is usually
/// GPU-bound, and each shard is a standing thread).
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_bind_and_serve() {
        let mut daemon = DaemonBuilder::new().bind("127.0.0.1:0").unwrap();
        assert!(daemon.shard_count() >= 1 && daemon.shard_count() <= 8);
        daemon.shutdown();
    }

    #[test]
    fn shard_count_is_clamped_to_at_least_one() {
        let mut daemon = DaemonBuilder::new().shards(0).bind("127.0.0.1:0").unwrap();
        assert_eq!(daemon.shard_count(), 1);
        daemon.shutdown();
    }

    #[test]
    fn field_setters_layer_over_config() {
        let base = ServerConfig {
            busy_retry_after_ms: 99,
            ..Default::default()
        };
        let builder = DaemonBuilder::new()
            .config(base)
            .max_sessions(5)
            .session_mem_quota(1024);
        assert_eq!(builder.config.busy_retry_after_ms, 99);
        assert_eq!(builder.config.max_sessions, Some(5));
        assert_eq!(builder.config.session_mem_quota, Some(1024));
    }
}
