//! The TCP daemon: accept loop + the sharded reactor core.
//!
//! Admitted connections are multiplexed onto a small fixed pool of reactor
//! shards (the crate's `reactor` module) instead of one thread per connection:
//! the thread count is set by [`DaemonBuilder::shards`], not by how many
//! clients are connected, so thousands of concurrent remote executions
//! cost neither stacks nor scheduler churn. Each session still gets its
//! own pre-initialized GPU context, so multiple clients time-multiplex the
//! device concurrently and in isolation (§III, Fig. 1).
//!
//! The multi-tenant hardening layer lives here:
//!
//! * **Admission control** — connections over `ServerConfig::max_sessions`
//!   (or arriving while `max_parked` sessions sit parked) are shed at the
//!   handshake with an 8-byte `Busy { retry_after_ms }` frame instead of a
//!   compute capability, then closed. Legacy clients still parse the frame.
//! * **Accept backoff** — transient accept errors (`EMFILE` above all)
//!   back off with jittered exponential sleeps instead of spinning hot,
//!   reported as [`DaemonEvent::AcceptThrottled`].
//! * **[`DaemonHealth`]** — a consistent snapshot of admission, panic, and
//!   reclamation counters. After all sessions finish,
//!   `rejected + served == attempted`.
//! * **[`RcudaDaemon::drain`]** — graceful shutdown: stop accepting, let
//!   in-flight sessions finish until the deadline, then hard-stop the
//!   stragglers by shutting their sockets down, and reclaim every parked
//!   context so the device ledger returns to baseline.
//!
//! Construct daemons with [`DaemonBuilder`]; the old free-standing `bind*`
//! constructors are gone.

use rcuda_obs::DaemonEvent;
use rcuda_proto::handshake::{read_hello_reply, ServerHello};
use rcuda_proto::SessionHello;
use rcuda_transport::{channel_pair, ChannelTransport, TcpTransport};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use crate::broker_agent::BrokerAgent;
use crate::builder::DaemonBuilder;
use crate::pool::GpuPool;
use crate::reactor::{NewConn, Reactor, Shared};
use crate::session::release_context;
use crate::worker::SessionReport;

/// Longest single accept-error backoff, in milliseconds (before jitter).
const ACCEPT_BACKOFF_CAP_MS: u64 = 64;

/// How long [`RcudaDaemon::migrate_out`] waits for a live session to reach
/// a frame boundary before giving up (the session may be mid-request, and
/// its shard only quiesces it between frames).
const MIGRATE_QUIESCE_TIMEOUT: Duration = Duration::from_secs(2);

/// I/O timeout on the daemon-to-daemon migration connection.
const MIGRATE_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A point-in-time snapshot of the daemon's admission and resource
/// accounting. The balance invariant — once every session has finished
/// (e.g. after [`RcudaDaemon::drain`]) — is
/// `rejected + served == attempted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonHealth {
    /// Connections the listener accepted (before admission).
    pub attempted: u64,
    /// Connections admitted to the reactor.
    pub admitted: u64,
    /// Connections shed with a `Busy` frame.
    pub rejected: u64,
    /// Sessions that have finished, whatever the outcome.
    pub served: u64,
    /// Sessions currently being served.
    pub live_sessions: u64,
    /// Sessions currently parked awaiting reconnect.
    pub parked: usize,
    /// Accept errors (previously swallowed silently).
    pub accept_errors: u64,
    /// Sessions killed by a dispatch panic (the daemon survived each).
    pub panics: u64,
    /// Device bytes returned via context release (session exit, eviction,
    /// drain).
    pub reclaimed_bytes: u64,
}

/// What [`RcudaDaemon::drain`] did with the sessions in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Sessions that finished on their own within the deadline.
    pub graceful: usize,
    /// Sessions hard-stopped at the deadline (socket shut down, then
    /// finalized by their shard).
    pub forced: usize,
}

/// A running rCUDA daemon.
pub struct RcudaDaemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    reactor: Arc<Reactor>,
    pool: Arc<GpuPool>,
    drain_deadline: Option<Duration>,
    /// The broker registration/heartbeat thread, when
    /// [`DaemonBuilder::broker`] was configured.
    pub(crate) agent: Option<BrokerAgent>,
}

/// Ship one session to a peer daemon at `target`; the free-function form
/// lets the broker agent thread migrate without holding an
/// [`RcudaDaemon`] handle (which owns the agent — a cycle otherwise).
///
/// Parked sessions are taken straight from the registry; live ones are
/// captured by their reactor shard at the next frame boundary. The
/// snapshot travels over a fresh TCP connection as a `Migrate` hello; the
/// source copy is only released after the target acknowledges the restore,
/// and a failed ship re-parks the context locally so the session is never
/// lost in transit.
pub(crate) fn migrate_out_shared(
    shared: &Arc<Shared>,
    session: u64,
    target: &str,
) -> io::Result<()> {
    let ctx = match shared.registry.take(session) {
        Some(ctx) => ctx,
        None => {
            if !shared.live_tokens().contains(&session) {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "unknown session token",
                ));
            }
            let rx = shared.migrations.arm(session);
            match rx.recv_timeout(MIGRATE_QUIESCE_TIMEOUT) {
                Ok(ctx) => ctx,
                Err(_) => {
                    shared.migrations.disarm(session);
                    // The shard may have quiesced between the timeout and
                    // the disarm: drain once more before giving up.
                    match rx.try_recv() {
                        Ok(ctx) => ctx,
                        Err(_) => {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "session never reached a frame boundary",
                            ))
                        }
                    }
                }
            }
        }
    };
    let snapshot = ctx.snapshot().encode();
    match ship_snapshot(target, session, snapshot) {
        Ok(()) => {
            let bytes = release_context(ctx, &shared.config.observer);
            shared
                .counters
                .reclaimed_bytes
                .fetch_add(bytes, Ordering::SeqCst);
            Ok(())
        }
        Err(e) => {
            // Park locally so the client's reconnect can still find the
            // session here.
            if let Some((evicted, evicted_ctx)) = shared.registry.park(session, ctx) {
                let obs = &shared.config.observer;
                obs.emit_daemon(DaemonEvent::SessionEvicted { session: evicted });
                let bytes = release_context(evicted_ctx, obs);
                shared
                    .counters
                    .reclaimed_bytes
                    .fetch_add(bytes, Ordering::SeqCst);
            }
            Err(e)
        }
    }
}

/// Deliver one encoded context snapshot to the daemon at `target` and wait
/// for its restore acknowledgement.
fn ship_snapshot(target: &str, session: u64, snapshot: Vec<u8>) -> io::Result<()> {
    let mut stream = TcpStream::connect(target)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(MIGRATE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(MIGRATE_IO_TIMEOUT))?;
    let mut hello = [0u8; 8];
    stream.read_exact(&mut hello)?;
    if let ServerHello::Busy { .. } = ServerHello::from_wire(hello) {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "target daemon is shedding connections",
        ));
    }
    SessionHello::Migrate { session, snapshot }.write(&mut stream)?;
    stream.flush()?;
    match read_hello_reply(&mut stream)? {
        Ok(()) => Ok(()),
        Err(e) => Err(io::Error::other(e.name())),
    }
}

/// Count the connection against the admission caps. `true` means it was
/// admitted (and `live` already includes it); `false` means it must be
/// shed with a `Busy` frame. Mux sub-streams are admitted through here
/// too, so every session — whatever its framing — obeys the same caps.
pub(crate) fn admit(shared: &Shared) -> bool {
    let c = &shared.counters;
    c.attempted.fetch_add(1, Ordering::SeqCst);
    let config = &shared.config;
    let live = c.live.load(Ordering::SeqCst) as usize;
    let over_sessions = config.max_sessions.is_some_and(|cap| live >= cap);
    let over_parked = config
        .max_parked
        .is_some_and(|cap| shared.registry.parked_count() >= cap);
    if over_sessions || over_parked {
        c.rejected.fetch_add(1, Ordering::SeqCst);
        config.observer.emit_daemon(DaemonEvent::SessionRejected {
            retry_after_ms: config.busy_retry_after_ms,
        });
        false
    } else {
        c.admitted.fetch_add(1, Ordering::SeqCst);
        c.live.fetch_add(1, Ordering::SeqCst);
        true
    }
}

impl RcudaDaemon {
    /// A [`DaemonBuilder`] with defaults (single functional Tesla C1060,
    /// default config, shard count from the host's parallelism).
    pub fn builder() -> DaemonBuilder {
        DaemonBuilder::new()
    }

    /// Bind the listener, start the reactor, and start accepting. The
    /// builder is the only caller.
    pub(crate) fn start<A: ToSocketAddrs>(
        addr: A,
        pool: Arc<GpuPool>,
        shared: Arc<Shared>,
        shards: usize,
        drain_deadline: Option<Duration>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = Arc::new(Reactor::start(shards, &shared));
        shared.links.install(&reactor, &pool);

        let accept_stop = Arc::clone(&stop);
        let accept_shared = Arc::clone(&shared);
        let accept_reactor = Arc::clone(&reactor);
        let accept_pool = Arc::clone(&pool);
        // Jitter state for accept backoff: any nonzero xorshift seed will
        // do; wall time keeps daemons from thundering in step.
        let mut rng = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0x9E37_79B9, |d| d.as_nanos() as u64)
            | 1;
        let accept_thread = std::thread::Builder::new()
            .name("rcuda-accept".into())
            .spawn(move || {
                let mut consecutive_errors: u32 = 0;
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if accept_stop.load(Ordering::SeqCst) {
                                break;
                            }
                            consecutive_errors = 0;
                            accept_tcp(stream, &accept_shared, &accept_pool, &accept_reactor);
                        }
                        Err(_) => {
                            if accept_stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let c = &accept_shared.counters;
                            c.accept_errors.fetch_add(1, Ordering::SeqCst);
                            let obs = &accept_shared.config.observer;
                            obs.emit_daemon(DaemonEvent::AcceptError);
                            // Jittered exponential backoff: an EMFILE storm
                            // (or any persistent accept failure) must not
                            // spin the accept thread hot.
                            consecutive_errors = consecutive_errors.saturating_add(1);
                            let base = 1u64 << consecutive_errors.clamp(1, 6);
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            let backoff_ms = (base + rng % base).min(2 * ACCEPT_BACKOFF_CAP_MS);
                            obs.emit_daemon(DaemonEvent::AcceptThrottled {
                                consecutive_errors,
                                backoff_ms,
                            });
                            std::thread::sleep(Duration::from_millis(backoff_ms));
                        }
                    }
                }
            })
            .expect("spawn accept loop");

        Ok(RcudaDaemon {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            shared,
            reactor,
            pool,
            drain_deadline,
            agent: None,
        })
    }

    /// The bound address (connect clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many reactor shards are serving connections.
    pub fn shard_count(&self) -> usize {
        self.reactor.shard_count()
    }

    /// Open an in-process session: the client half of a channel transport
    /// whose server half is admitted (or `Busy`-shed) exactly like a TCP
    /// connection, then served by the reactor. Soak tests use this to
    /// drive tens of thousands of concurrent sessions without consuming
    /// file descriptors.
    pub fn connect_in_process(&self) -> ChannelTransport {
        let (client, mut server) = channel_pair();
        if admit(&self.shared) {
            let (device, guard) = self.pool.assign();
            self.reactor.submit(NewConn {
                transport: Box::new(server),
                raw: None,
                device,
                guard,
                authenticated: false,
            });
        } else {
            let busy = ServerHello::Busy {
                retry_after_ms: self.shared.config.busy_retry_after_ms,
            };
            let _ = server.write_all(&busy.to_wire());
            let _ = server.flush();
        }
        client
    }

    /// Sessions currently parked awaiting a reconnect.
    pub fn parked_sessions(&self) -> usize {
        self.shared.registry.parked_count()
    }

    /// Tokens of every resumable session this daemon holds — live (being
    /// served) and parked (awaiting reconnect) alike. The broker heartbeat
    /// advertises this list; drain-time migration walks it.
    pub fn session_tokens(&self) -> Vec<u64> {
        let mut tokens = self.shared.registry.parked_tokens();
        tokens.extend(self.shared.live_tokens().iter().copied());
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }

    /// Live-migrate one session to the daemon at `target` (an address
    /// string clients could dial). Parked sessions ship immediately; a
    /// live session is quiesced by its reactor shard at the next frame
    /// boundary — its connection then closes, and the client's reconnect
    /// finds the session parked on the target. The source context is
    /// released only after the target acknowledges the restore, so the
    /// device ledgers on both sides stay balanced; a failed ship re-parks
    /// the session locally.
    pub fn migrate_out(&self, session: u64, target: &str) -> io::Result<()> {
        migrate_out_shared(&self.shared, session, target)
    }

    /// Completed sessions so far (sessions that produced a report; see
    /// [`DaemonHealth::served`] for all finished connections).
    pub fn sessions_served(&self) -> u64 {
        self.shared.sessions_served.load(Ordering::SeqCst)
    }

    /// Reports of completed sessions.
    pub fn session_reports(&self) -> Vec<SessionReport> {
        self.shared.reports().clone()
    }

    /// A snapshot of the daemon's admission and resource counters.
    pub fn health(&self) -> DaemonHealth {
        let c = &self.shared.counters;
        DaemonHealth {
            attempted: c.attempted.load(Ordering::SeqCst),
            admitted: c.admitted.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            served: c.served.load(Ordering::SeqCst),
            live_sessions: c.live.load(Ordering::SeqCst),
            parked: self.shared.registry.parked_count(),
            accept_errors: c.accept_errors.load(Ordering::SeqCst),
            panics: c.panics.load(Ordering::SeqCst),
            reclaimed_bytes: c.reclaimed_bytes.load(Ordering::SeqCst),
        }
    }

    /// Wait until at least `n` sessions have completed (their reports are
    /// recorded and their pool seats released), or the timeout expires.
    /// Returns whether the count was reached. Tests use this to close the
    /// tiny window between a client's Quit acknowledgement and the shard
    /// finishing its bookkeeping.
    pub fn wait_for_sessions(&self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.sessions_served() < n {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Graceful shutdown: stop accepting, give in-flight sessions until
    /// `deadline` to finish, then hard-stop stragglers (their sockets are
    /// shut down and their shards finalize them like disconnects). Parked
    /// sessions are then reclaimed — nobody is coming back for them — so
    /// the device ledger returns to baseline for everything the daemon
    /// held.
    pub fn drain(&mut self, deadline: Duration) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.stop_accepting();
        self.shared.drain.begin();

        let live = |shared: &Shared| shared.counters.live.load(Ordering::SeqCst);
        let end = Instant::now() + deadline;
        while live(&self.shared) > 0 && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(1));
        }
        if live(&self.shared) > 0 {
            self.shared.drain.force();
            while live(&self.shared) > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let (graceful, forced) = self.shared.drain.end();

        for (_, ctx) in self.shared.registry.drain_parked() {
            let bytes = release_context(ctx, &self.shared.config.observer);
            self.shared
                .counters
                .reclaimed_bytes
                .fetch_add(bytes, Ordering::SeqCst);
        }
        DrainReport { graceful, forced }
    }

    /// Graceful decommission: migrate every held session out to `targets`
    /// (round-robin), then [`Self::drain`]. Sessions that fail to ship
    /// stay behind and take the ordinary drain path — parked ones are
    /// reclaimed, live ones get until the deadline. The `draining` flag is
    /// raised first so the broker stops placing new sessions here while
    /// the existing ones leave.
    pub fn drain_with_migration(&mut self, deadline: Duration, targets: &[String]) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        if !targets.is_empty() {
            for (i, session) in self.session_tokens().into_iter().enumerate() {
                let _ = self.migrate_out(session, &targets[i % targets.len()]);
            }
        }
        self.drain(deadline)
    }

    /// Stop accepting and join the accept loop. The reactor keeps serving
    /// live sessions until their clients leave (like the original
    /// middleware's per-execution server processes) — use [`Self::drain`]
    /// to bound that.
    pub fn shutdown(&mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Admission + handoff for one accepted TCP connection.
fn accept_tcp(mut stream: TcpStream, shared: &Shared, pool: &Arc<GpuPool>, reactor: &Reactor) {
    if !admit(shared) {
        // Shed with a Busy frame instead of the compute-capability push;
        // the socket is still blocking here, so the 8 bytes go out inline.
        let busy = ServerHello::Busy {
            retry_after_ms: shared.config.busy_retry_after_ms,
        };
        let _ = stream.write_all(&busy.to_wire());
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let (device, guard) = pool.assign();
    // A socket clone lets drain/halt hard-stop a session whose client has
    // gone quiet.
    let raw = stream.try_clone().ok();
    match TcpTransport::from_stream(stream) {
        Ok(t) => reactor.submit(NewConn {
            transport: Box::new(t),
            raw,
            device,
            guard,
            authenticated: false,
        }),
        Err(_) => {
            // The socket died between accept and configuration: balance the
            // admission counters as an immediately-finished session.
            let c = &shared.counters;
            c.served.fetch_add(1, Ordering::SeqCst);
            c.live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for RcudaDaemon {
    fn drop(&mut self) {
        // The broker agent goes first: no migration orders may arrive
        // while the daemon tears itself down.
        if let Some(mut agent) = self.agent.take() {
            agent.stop();
        }
        self.stop_accepting();
        if let Some(deadline) = self.drain_deadline {
            self.drain(deadline);
        }
        // Halt the shards: live connections are force-finalized (their
        // clients see a disconnect) and the threads exit.
        self.shared.halt.store(true, Ordering::SeqCst);
        self.reactor.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_gpu::GpuDevice;

    #[test]
    fn daemon_binds_ephemeral_port_and_shuts_down() {
        let device = GpuDevice::tesla_c1060_functional();
        let mut daemon = DaemonBuilder::new()
            .device(device)
            .bind("127.0.0.1:0")
            .unwrap();
        assert_ne!(daemon.local_addr().port(), 0);
        assert_eq!(daemon.sessions_served(), 0);
        assert!(daemon.shard_count() >= 1);
        daemon.shutdown();
    }

    #[test]
    fn daemon_survives_garbage_connection() {
        let device = GpuDevice::tesla_c1060_functional();
        let mut daemon = DaemonBuilder::new()
            .device(device)
            .bind("127.0.0.1:0")
            .unwrap();
        {
            // Connect, read nothing, send garbage, vanish.
            let mut s = TcpStream::connect(daemon.local_addr()).unwrap();
            let _ = s.write_all(&[0xFF; 64]);
        }
        // The daemon still accepts a fresh (also short-lived) connection.
        let _ = TcpStream::connect(daemon.local_addr()).unwrap();
        daemon.shutdown();
    }

    #[test]
    fn over_cap_connection_gets_busy_frame() {
        use std::io::Read;

        let device = GpuDevice::tesla_c1060_functional();
        let mut daemon = DaemonBuilder::new()
            .device(device)
            .max_sessions(1)
            .busy_retry_after_ms(7)
            .bind("127.0.0.1:0")
            .unwrap();

        // First connection occupies the only slot (handshake not finished,
        // so the session stays live).
        let mut first = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut hello = [0u8; 8];
        first.read_exact(&mut hello).unwrap();
        assert!(matches!(
            ServerHello::from_wire(hello),
            ServerHello::Ready { .. }
        ));

        // Second connection is shed with a Busy frame, then EOF.
        let mut second = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut wait = 0;
        loop {
            match second.read_exact(&mut hello) {
                Ok(()) => break,
                Err(_) if wait < 100 => {
                    wait += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    second = TcpStream::connect(daemon.local_addr()).unwrap();
                }
                Err(e) => panic!("never heard from daemon: {e}"),
            }
        }
        assert_eq!(
            ServerHello::from_wire(hello),
            ServerHello::Busy { retry_after_ms: 7 }
        );
        let health = daemon.health();
        assert!(health.rejected >= 1);
        assert_eq!(health.admitted, 1);
        drop(first);
        daemon.drain(Duration::from_secs(5));
        let health = daemon.health();
        assert_eq!(health.rejected + health.served, health.attempted);
    }

    #[test]
    fn drain_hard_stops_a_blocked_worker() {
        use std::io::Read;

        let device = GpuDevice::tesla_c1060_functional();
        let mut daemon = DaemonBuilder::new()
            .device(device)
            .bind("127.0.0.1:0")
            .unwrap();
        // A client that completes the hello and then goes silent: its
        // session sits parked in its shard forever.
        let mut quiet = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut hello = [0u8; 8];
        quiet.read_exact(&mut hello).unwrap();

        let start = Instant::now();
        let report = daemon.drain(Duration::from_millis(100));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drain must not hang on a quiet client"
        );
        assert_eq!(report.forced, 1);
        assert_eq!(daemon.health().live_sessions, 0, "session finalized");
    }

    #[test]
    fn in_process_sessions_respect_admission() {
        use std::io::Read;

        let device = GpuDevice::tesla_c1060_functional();
        let daemon = DaemonBuilder::new()
            .device(device)
            .max_sessions(1)
            .busy_retry_after_ms(3)
            .bind("127.0.0.1:0")
            .unwrap();

        // First in-process session occupies the slot.
        let mut first = daemon.connect_in_process();
        let mut hello = [0u8; 8];
        first.read_exact(&mut hello).unwrap();
        assert!(matches!(
            ServerHello::from_wire(hello),
            ServerHello::Ready { .. }
        ));

        // Second is shed with the same Busy frame TCP clients get.
        let mut second = daemon.connect_in_process();
        second.read_exact(&mut hello).unwrap();
        assert_eq!(
            ServerHello::from_wire(hello),
            ServerHello::Busy { retry_after_ms: 3 }
        );
    }
}
