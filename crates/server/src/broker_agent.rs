//! The daemon's broker registration thread.
//!
//! When [`crate::DaemonBuilder::broker`] is configured, the daemon runs
//! one `rcuda-broker-agent` thread that registers with the cluster broker
//! over the authenticated control link ([`rcuda_broker::DaemonLink`]),
//! then heartbeats at a fixed cadence. Each heartbeat carries the
//! daemon's admission counters, device-memory headroom, `draining` flag,
//! and the full list of resumable session tokens it holds (live and
//! parked) — everything the broker's directory needs for health tracking,
//! placement, and orphan accounting. Heartbeat replies may carry
//! migration orders, which the agent executes inline via
//! [`crate::daemon::migrate_out_shared`].
//!
//! A lost broker link is survivable in both directions: the broker marks
//! the daemon Suspect/Down from its side, and the agent re-registers with
//! jittered backoff from this side (re-registration at the same address
//! keeps the daemon's directory identity). The daemon itself keeps
//! serving throughout — the broker is a placement service, not a
//! dependency of the data path.

use rcuda_broker::DaemonLink;
use rcuda_proto::broker::{BrokerCommand, Heartbeat};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use crate::daemon::migrate_out_shared;
use crate::pool::GpuPool;
use crate::reactor::Shared;

/// How the agent reaches and identifies itself to the broker.
pub(crate) struct BrokerAgentConfig {
    /// The broker's control address.
    pub(crate) broker: SocketAddr,
    /// The address advertised for clients to dial (usually the daemon's
    /// bound address).
    pub(crate) advertise: String,
    /// Heartbeat cadence.
    pub(crate) interval: Duration,
    /// Shared auth token for the control link (`None` MACs under the
    /// empty key, matching an open broker).
    pub(crate) token: Option<Vec<u8>>,
}

/// Handle to the running agent thread; stopping joins it.
pub(crate) struct BrokerAgent {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl BrokerAgent {
    pub(crate) fn start(
        cfg: BrokerAgentConfig,
        shared: Arc<Shared>,
        pool: Arc<GpuPool>,
    ) -> BrokerAgent {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rcuda-broker-agent".into())
            .spawn(move || agent_loop(cfg, shared, pool, thread_stop))
            .expect("spawn broker agent");
        BrokerAgent {
            stop,
            thread: Some(thread),
        }
    }

    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for BrokerAgent {
    fn drop(&mut self) {
        self.stop();
    }
}

fn agent_loop(cfg: BrokerAgentConfig, shared: Arc<Shared>, pool: Arc<GpuPool>, stop: AtomicStop) {
    let capacity: u64 = pool
        .devices()
        .iter()
        .map(|d| d.properties().total_global_mem.0)
        .sum();
    // Jitter state for reconnect backoff: any nonzero xorshift seed works;
    // wall time keeps a daemon fleet from thundering at a recovering
    // broker in lockstep.
    let mut rng = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0x9E37_79B9, |d| d.as_nanos() as u64)
        | 1;
    while !stop.load(Ordering::SeqCst) {
        if let Ok(mut link) =
            DaemonLink::connect(cfg.broker, cfg.token.as_deref(), &cfg.advertise, capacity)
        {
            let io_timeout = (cfg.interval * 4).max(Duration::from_secs(1));
            let _ = link.set_timeout(Some(io_timeout));
            while !stop.load(Ordering::SeqCst) {
                let hb = heartbeat_snapshot(&shared, &pool);
                let commands = match link.heartbeat(&hb) {
                    Ok(commands) => commands,
                    // Registration lost (broker restart, network fault):
                    // fall through to the re-register backoff.
                    Err(_) => break,
                };
                for command in commands {
                    match command {
                        BrokerCommand::MigrateOut { session, target } => {
                            // A failed ship re-parks the session locally;
                            // the broker keeps seeing it here in the next
                            // heartbeat and may re-order the move.
                            let _ = migrate_out_shared(&shared, session, &target);
                        }
                    }
                }
                sleep_interruptibly(cfg.interval, &stop);
            }
        }
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let backoff = cfg.interval + Duration::from_millis(rng % 64);
        sleep_interruptibly(backoff, &stop);
    }
}

type AtomicStop = Arc<AtomicBool>;

/// One heartbeat's worth of daemon state.
fn heartbeat_snapshot(shared: &Shared, pool: &GpuPool) -> Heartbeat {
    let c = &shared.counters;
    let mut sessions = shared.registry.parked_tokens();
    sessions.extend(shared.live_tokens().iter().copied());
    sessions.sort_unstable();
    sessions.dedup();
    let free_bytes = pool
        .devices()
        .iter()
        .map(|d| {
            d.properties()
                .total_global_mem
                .0
                .saturating_sub(d.ledger().live_bytes())
        })
        .sum();
    Heartbeat {
        live_sessions: c.live.load(Ordering::SeqCst) as u32,
        parked: shared.registry.parked_count() as u32,
        free_bytes,
        served: shared.sessions_served.load(Ordering::SeqCst),
        draining: shared.draining.load(Ordering::SeqCst),
        sessions,
    }
}

/// Sleep in slices so a stop request is honored within ~5 ms.
fn sleep_interruptibly(total: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + total;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
    }
}
