//! The readiness I/O driver: a fixed pool of shard threads multiplexing
//! every connection the daemon serves.
//!
//! The thread-per-connection daemon reproduced the original middleware's
//! process-per-execution model faithfully, but its thread count scaled with
//! the session count — at thousands of concurrent remote executions the
//! stacks alone dominate memory and the scheduler thrashes. The reactor
//! keeps the per-session *semantics* — they live in the one session engine,
//! [`crate::session::SessionMachine`], which this file drives and
//! [`crate::worker`] drives blocking — while fixing the thread count:
//!
//! * **N shards** (`DaemonBuilder::shards`), each one OS thread named
//!   `rcuda-shard-<i>` running a readiness loop over its share of the
//!   connections. Connections are handed to shards round-robin at admission
//!   through a per-shard injector queue and never migrate.
//! * **Nonblocking transports** — each connection's transport is switched
//!   with [`Transport::set_nonblocking`]; all I/O goes through
//!   [`Transport::try_read`] / [`Transport::try_write`], so a stalled peer
//!   parks its connection, never its shard. A partial frame simply stays
//!   buffered in the machine until more bytes arrive.
//! * **Per-shard resources** — one [`BufferPool`] per shard (recycled
//!   across its connections), one clock, and hash-routed
//!   [`ShardedRegistry`] shards, so the steady-state request path touches
//!   no cross-shard locks.
//!
//! * **Wake on readiness** — a pass that moves no bytes and no frames
//!   blocks the shard in `poll(2)` over its TCP sockets (`POLLIN` while the
//!   machine wants bytes, `POLLOUT` while replies wait in user space) and
//!   its wake pipe (see [`crate::poll`]). Everything that is not a socket
//!   event — a submitted connection, halt, a drain mode change, an armed
//!   migration order — writes the pipe, so the wait needs no timeout.
//!   Two timeouts remain. The first `WARM_WAITS` idle passes after
//!   progress wait in the warm window of [`rcuda_transport::poll`], each
//!   ending after `WARM_WAIT`, which keeps the CPU in a shallow sleep
//!   while a session is likely to call again. And the
//!   wait is bounded by `IDLE_SLEEP_MAX_US` while a machine awaits a
//!   resume (found by re-checking the registry, not by a socket). A shard
//!   holding any connection without a socket (`connect_in_process`
//!   channels, mux sub-streams) keeps the older idle ladder instead: a few
//!   yields, then sleeps growing to `IDLE_SLEEP_MAX_US`.
//!
//! This driver serves every TCP connection, `RcudaDaemon::connect_in_process`
//! and the sub-streams of reactor-hosted mux trunks. What it adds around the
//! machine is daemon-side only: admission accounting, the pool seat, drain
//! and halt, and the live-migration quiesce check.

use rcuda_core::time::wall_clock;
use rcuda_core::Clock as _;
use rcuda_gpu::{GpuContext, GpuDevice};
use rcuda_obs::ShardSpan;
use rcuda_proto::mux::MuxHello;
use rcuda_proto::BufferPool;
use rcuda_transport::poll::{POLLIN, POLLOUT, WARM_WAIT, WARM_WAITS};
use rcuda_transport::{Progress, Transport};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::poll::{wake_pipe, PollSet, Wakers};
use crate::pool::PoolGuard;
use crate::registry::ShardedRegistry;
use crate::session::{Env, SessionMachine, Step};
use crate::worker::{ServerConfig, SessionReport};

/// Frames dispatched per connection per pass before yielding to shard
/// neighbors (leftover frames stay buffered and the pass is re-run hot).
const FRAMES_PER_PASS: u32 = 64;
/// Longest idle wait of a shard that cannot block on readiness alone: the
/// sleep ceiling of the ladder for passes over socketless connections, and
/// the poll timeout while a machine awaits a resume.
const IDLE_SLEEP_MAX_US: u64 = 2_000;
/// Idle passes a socketless shard yields through before it starts to sleep.
const IDLE_YIELDS: u32 = 8;

/// Atomic daemon counters, shared between the accept loop, the reactor
/// shards, and `DaemonHealth` snapshots.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) attempted: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) live: AtomicU64,
    pub(crate) accept_errors: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) reclaimed_bytes: AtomicU64,
}

const DRAIN_OFF: u8 = 0;
const DRAIN_GRACE: u8 = 1;
const DRAIN_FORCE: u8 = 2;

/// Drain coordination between the daemon and the shards. While a drain is
/// in progress, connections that finish on their own count `graceful`;
/// once the daemon flips to force mode every surviving connection is
/// closed by its shard and counts `forced`.
#[derive(Default)]
pub(crate) struct DrainState {
    mode: AtomicU8,
    graceful: AtomicUsize,
    forced: AtomicUsize,
}

impl DrainState {
    pub(crate) fn begin(&self, wakers: &Wakers) {
        self.graceful.store(0, Ordering::SeqCst);
        self.forced.store(0, Ordering::SeqCst);
        self.mode.store(DRAIN_GRACE, Ordering::SeqCst);
        wakers.wake_all();
    }

    pub(crate) fn force(&self, wakers: &Wakers) {
        self.mode.store(DRAIN_FORCE, Ordering::SeqCst);
        wakers.wake_all();
    }

    pub(crate) fn end(&self) -> (usize, usize) {
        self.mode.store(DRAIN_OFF, Ordering::SeqCst);
        (
            self.graceful.load(Ordering::SeqCst),
            self.forced.load(Ordering::SeqCst),
        )
    }

    fn forcing(&self) -> bool {
        self.mode.load(Ordering::SeqCst) == DRAIN_FORCE
    }

    fn note_closed(&self) {
        match self.mode.load(Ordering::SeqCst) {
            DRAIN_GRACE => {
                self.graceful.fetch_add(1, Ordering::SeqCst);
            }
            DRAIN_FORCE => {
                self.forced.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
    }
}

/// Live-migration coordination between the daemon handle and the shards.
///
/// [`crate::daemon::RcudaDaemon::migrate_out`] arms an order for a session
/// token; the shard owning that connection quiesces it at the next frame
/// boundary (every response flushed, no partial request buffered) and
/// sends the context through the order's channel. The `armed` flag keeps
/// the steady-state pump overhead to one relaxed atomic load.
#[derive(Default)]
pub(crate) struct MigrationTable {
    orders: Mutex<HashMap<u64, Sender<GpuContext>>>,
    armed: AtomicBool,
}

impl MigrationTable {
    /// Arm an order for `session`; the context arrives on the returned
    /// channel once its connection reaches a frame boundary. The shards are
    /// woken so an idle connection is checked without waiting for traffic.
    pub(crate) fn arm(&self, session: u64, wakers: &Wakers) -> Receiver<GpuContext> {
        let (tx, rx) = channel();
        self.orders
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(session, tx);
        self.armed.store(true, Ordering::SeqCst);
        wakers.wake_all();
        rx
    }

    /// Withdraw an order that never completed (quiesce timeout). The shard
    /// may have raced the withdrawal and already sent — the caller must
    /// drain the receiver once more after this.
    pub(crate) fn disarm(&self, session: u64) {
        let mut orders = self.orders.lock().unwrap_or_else(PoisonError::into_inner);
        orders.remove(&session);
        if orders.is_empty() {
            self.armed.store(false, Ordering::SeqCst);
        }
    }

    #[inline]
    fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Claim the order for `session`, if one is armed.
    fn take(&self, session: u64) -> Option<Sender<GpuContext>> {
        let mut orders = self.orders.lock().unwrap_or_else(PoisonError::into_inner);
        let tx = orders.remove(&session);
        if orders.is_empty() {
            self.armed.store(false, Ordering::SeqCst);
        }
        tx
    }
}

/// State shared by the accept loop, every reactor shard, and the daemon
/// handle.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) counters: Counters,
    pub(crate) reports: Mutex<Vec<SessionReport>>,
    pub(crate) sessions_served: AtomicU64,
    pub(crate) registry: ShardedRegistry,
    pub(crate) drain: DrainState,
    /// Set by [`Shared::halt_shards`] only, which wakes the shards to see it.
    pub(crate) halt: AtomicBool,
    /// The shards' wake pipes.
    pub(crate) wakers: Wakers,
    /// Late-bound reactor/pool links for mux trunk hosts (see
    /// [`crate::mux_host`]).
    pub(crate) links: crate::mux_host::MuxLinks,
    /// Armed live-migration orders, keyed by session token.
    pub(crate) migrations: MigrationTable,
    /// Tokens of resumable sessions currently being served (the broker
    /// heartbeat advertises these alongside the parked tokens).
    pub(crate) live_tokens: Mutex<HashSet<u64>>,
    /// Set once a drain begins, for the broker heartbeat's `draining` flag
    /// (the broker stops placing new sessions here).
    pub(crate) draining: AtomicBool,
}

impl Shared {
    pub(crate) fn new(config: ServerConfig, registry: ShardedRegistry) -> Shared {
        Shared {
            config,
            counters: Counters::default(),
            reports: Mutex::new(Vec::new()),
            sessions_served: AtomicU64::new(0),
            registry,
            drain: DrainState::default(),
            halt: AtomicBool::new(false),
            wakers: Wakers::default(),
            links: crate::mux_host::MuxLinks::default(),
            migrations: MigrationTable::default(),
            live_tokens: Mutex::new(HashSet::new()),
            draining: AtomicBool::new(false),
        }
    }

    pub(crate) fn reports(&self) -> MutexGuard<'_, Vec<SessionReport>> {
        self.reports.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn live_tokens(&self) -> MutexGuard<'_, HashSet<u64>> {
        self.live_tokens
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stop the shards: live connections are force-finalized (their
    /// clients see a disconnect) and the threads exit.
    pub(crate) fn halt_shards(&self) {
        self.halt.store(true, Ordering::SeqCst);
        self.wakers.wake_all();
    }
}

/// A freshly admitted connection on its way to a shard.
pub(crate) struct NewConn {
    pub(crate) transport: Box<dyn Transport>,
    /// TCP-only: a clone of the socket so a forced close can shut the peer
    /// down at the OS level (in-process transports see plain EOF instead).
    pub(crate) raw: Option<TcpStream>,
    pub(crate) device: Arc<GpuDevice>,
    pub(crate) guard: PoolGuard,
    /// The connection arrived through an authenticated mux trunk: the
    /// auth gate on legacy hellos does not apply to it.
    pub(crate) authenticated: bool,
}

struct ShardHandle {
    tx: Sender<NewConn>,
    queued: Arc<AtomicU32>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// The running shard pool. Dropping the reactor does not stop the shards —
/// call [`Shared::halt_shards`] first, then [`Reactor::join`].
pub(crate) struct Reactor {
    shards: Vec<ShardHandle>,
    next: AtomicUsize,
    shared: Arc<Shared>,
}

impl Reactor {
    /// Spawn `n` shard threads (at least one) over `shared`.
    pub(crate) fn start(n: usize, shared: &Arc<Shared>) -> io::Result<Reactor> {
        let pipes = (0..n.max(1))
            .map(|_| wake_pipe())
            .collect::<io::Result<Vec<_>>>()?;
        let mut shards = Vec::new();
        let mut wakers = Vec::new();
        for (id, (waker, poll_set)) in (0..).zip(pipes) {
            let (tx, rx) = channel::<NewConn>();
            let queued = Arc::new(AtomicU32::new(0));
            let shard_queued = Arc::clone(&queued);
            let shard_shared = Arc::clone(shared);
            let thread = std::thread::Builder::new()
                .name(format!("rcuda-shard-{id}"))
                .spawn(move || shard_loop(id, rx, shard_queued, poll_set, shard_shared))
                .expect("spawn reactor shard");
            wakers.push(waker);
            shards.push(ShardHandle {
                tx,
                queued,
                thread: Mutex::new(Some(thread)),
            });
        }
        shared.wakers.install(wakers);
        Ok(Reactor {
            shards,
            next: AtomicUsize::new(0),
            shared: Arc::clone(shared),
        })
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hand an admitted connection to the next shard (round-robin).
    pub(crate) fn submit(&self, conn: NewConn) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].queued.fetch_add(1, Ordering::SeqCst);
        if self.shards[i].tx.send(conn).is_err() {
            // Shard already halted (daemon dropping): nothing to serve the
            // connection with; the NewConn drop closes it.
            self.shards[i].queued.fetch_sub(1, Ordering::SeqCst);
        }
        self.shared.wakers.wake(i);
    }

    /// Join every shard thread. Callers must call `Shared::halt_shards`
    /// first or this blocks forever.
    pub(crate) fn join(&self) {
        for shard in &self.shards {
            if let Some(t) = shard
                .thread
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
            {
                let _ = t.join();
            }
        }
    }
}

// --------------------------------------------------------------- the shard

fn shard_loop(
    id: u32,
    rx: Receiver<NewConn>,
    queued: Arc<AtomicU32>,
    mut poll_set: PollSet,
    shared: Arc<Shared>,
) {
    let pool = BufferPool::new();
    let env = Env {
        config: &shared.config,
        registry: shared.registry.shards(),
        pool: &pool,
    };
    let clock = wall_clock();
    let obs = shared.config.observer.clone();
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_passes: u32 = 0;

    loop {
        let halting = shared.halt.load(Ordering::SeqCst);
        let forcing = halting || shared.drain.forcing();
        let depth = queued.load(Ordering::SeqCst);
        let started = clock.now();

        // Register freshly admitted connections.
        let mut admitted: u32 = 0;
        loop {
            match rx.try_recv() {
                Ok(new) => {
                    queued.fetch_sub(1, Ordering::SeqCst);
                    conns.push(Conn::register(new, &env));
                    admitted += 1;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }

        // One readiness pass over every connection.
        let mut frames: u32 = 0;
        let mut moved = admitted > 0;
        let mut awaiting = false;
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            if forcing {
                conn.force_close();
            }
            let act = conn.pump(&env, &shared);
            frames += act.frames;
            moved |= act.progress;
            awaiting |= act.awaiting;
            if conn.done {
                let conn = conns.swap_remove(i);
                if let Some((hello, leftover, pending_out)) = conn.trunk {
                    // Pulled out of the shard for a dedicated trunk host
                    // (see [`crate::mux_host`]).
                    crate::mux_host::spawn_reactor_trunk(
                        conn.transport,
                        conn.raw,
                        hello,
                        leftover,
                        pending_out,
                        Arc::clone(&shared),
                    );
                }
            } else {
                i += 1;
            }
        }

        if frames > 0 || admitted > 0 {
            obs.emit_shard(&ShardSpan {
                shard: id,
                sessions: conns.len() as u32,
                queue_depth: depth,
                frames,
                start: started,
                end: clock.now(),
            });
        }

        if halting && conns.is_empty() && queued.load(Ordering::SeqCst) == 0 {
            break;
        }

        // A pass that moved bytes or frames may have left work buffered in
        // user space (the frame cap, a full read chunk): run again at once.
        if moved {
            idle_passes = 0;
            continue;
        }
        idle_passes = idle_passes.saturating_add(1);
        let timeout = if idle_passes <= WARM_WAITS {
            Some(WARM_WAIT)
        } else {
            awaiting.then_some(Duration::from_micros(IDLE_SLEEP_MAX_US))
        };
        if !wait_for_readiness(&mut poll_set, &conns, timeout) {
            // A socketless connection cannot wake the shard: yield
            // briefly for latency, then sleep with a bounded ceiling.
            if idle_passes < IDLE_YIELDS {
                std::thread::yield_now();
            } else {
                let us = (u64::from(idle_passes) * 50).min(IDLE_SLEEP_MAX_US);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
    }
}

/// Block an idle shard until one of its sockets or its wake pipe is ready,
/// or `timeout` passes. Watches `POLLIN` while a machine wants bytes and
/// `POLLOUT` while its replies wait in user space. Returns `false`,
/// without waiting, when a connection has no socket to watch.
fn wait_for_readiness(poll_set: &mut PollSet, conns: &[Conn], timeout: Option<Duration>) -> bool {
    poll_set.clear();
    for conn in conns {
        let Some(raw) = &conn.raw else {
            return false;
        };
        let mut events = 0;
        if conn.machine.wants_read() {
            events |= POLLIN;
        }
        if !conn.machine.out().is_empty() {
            events |= POLLOUT;
        }
        if events != 0 {
            poll_set.watch(raw.as_raw_fd(), events);
        }
    }
    poll_set.wait(timeout);
    true
}

// ---------------------------------------------------------- the connection

struct PumpResult {
    frames: u32,
    progress: bool,
    /// The machine waits for a parked session to appear in the registry.
    awaiting: bool,
}

/// One connection on a shard: the transport, the session machine it feeds,
/// and the daemon-side seat it occupies.
struct Conn {
    transport: Box<dyn Transport>,
    raw: Option<TcpStream>,
    machine: SessionMachine,
    done: bool,
    guard: Option<PoolGuard>,
    /// Set when the client asked for the multiplexed framing layer: the
    /// hello, every byte read past it, and every byte not yet written. The
    /// shard hands the transport to a trunk host as it retires the `Conn`.
    trunk: Option<(MuxHello, Vec<u8>, Vec<u8>)>,
}

impl Conn {
    fn register(new: NewConn, env: &Env<'_>) -> Conn {
        let NewConn {
            transport,
            raw,
            device,
            guard,
            authenticated,
        } = new;
        let machine = SessionMachine::new(device, wall_clock(), env, authenticated);
        let mut conn = Conn {
            transport,
            raw,
            machine,
            done: false,
            guard: Some(guard),
            trunk: None,
        };
        // A transport without a nonblocking half cannot be multiplexed;
        // close it immediately (register still returns a Conn so the
        // daemon counters balance through the normal finalize path).
        if conn.transport.set_nonblocking(true).is_err() {
            conn.machine.transport_failed();
        }
        conn
    }

    /// Drain-deadline or daemon-halt close: shut the peer down and
    /// finalize now, abandoning undeliverable output.
    fn force_close(&mut self) {
        if let Some(raw) = &self.raw {
            let _ = raw.shutdown(Shutdown::Both);
        }
        self.machine.force_close();
    }

    /// Push pending outbound bytes into the transport. Returns whether any
    /// bytes moved.
    fn flush_out(&mut self) -> bool {
        let mut progress = false;
        while !self.machine.out().is_empty() {
            match self.transport.try_write(self.machine.out()) {
                Ok(Progress::Ready(0)) | Ok(Progress::Pending) => return progress,
                Ok(Progress::Ready(n)) => {
                    self.machine.consumed(n);
                    progress = true;
                }
                Err(_) => {
                    self.machine.transport_failed();
                    return progress;
                }
            }
        }
        if progress {
            // Everything queued is out: mark the message boundary. On a
            // nonblocking endpoint a flush that cannot complete right now
            // reports WouldBlock and is retried implicitly by the next
            // pass's writes.
            if let Err(e) = self.transport.flush() {
                if e.kind() != io::ErrorKind::WouldBlock {
                    self.machine.transport_failed();
                }
            }
        }
        progress
    }

    /// One readiness pass: flush, read, step the machine, flush, finalize.
    fn pump(&mut self, env: &Env<'_>, shared: &Arc<Shared>) -> PumpResult {
        let mut res = PumpResult {
            frames: 0,
            progress: false,
            awaiting: false,
        };
        res.progress |= self.flush_out();

        // Read whatever the transport has; the machine grows the chunk for
        // connections that move bulk data.
        while self.machine.wants_read() {
            match self.transport.try_read(self.machine.space()) {
                Ok(Progress::Ready(n)) if n > 0 => {
                    res.progress = true;
                    if !self.machine.commit(n) {
                        break;
                    }
                }
                Ok(Progress::Pending) => break,
                Ok(Progress::Ready(_)) | Err(_) => {
                    self.machine.eof();
                    res.progress = true;
                }
            }
        }

        while res.frames < FRAMES_PER_PASS {
            match self.machine.step(env, Instant::now) {
                Step::Idle | Step::Closing => break,
                Step::AwaitResume { .. } => {
                    res.awaiting = true;
                    break;
                }
                Step::Handshake => {
                    res.progress = true;
                    if let Some(token) = self.machine.token() {
                        shared.live_tokens().insert(token);
                    }
                }
                Step::Frame => {
                    res.frames += 1;
                    res.progress = true;
                }
                Step::Mux {
                    hello,
                    leftover,
                    pending_out,
                } => {
                    // The trunk is not a session — its sub-streams are
                    // admitted individually — so the accept-time accounting
                    // is balanced here as an immediately-finished
                    // connection and the pool seat is returned.
                    drop(self.guard.take());
                    shared.counters.served.fetch_add(1, Ordering::SeqCst);
                    shared.counters.live.fetch_sub(1, Ordering::SeqCst);
                    self.trunk = Some((hello, leftover, pending_out));
                    self.done = true;
                    res.progress = true;
                    return res;
                }
            }
        }

        res.progress |= self.flush_out();
        self.quiesce_for_migration(shared, &mut res);
        if self.machine.closing() && self.machine.out().is_empty() {
            self.finalize(env, shared);
            res.progress = true;
        }
        res
    }

    /// Live-migration quiesce point. A running session whose token has an
    /// armed migration order is captured at a frame boundary. The context
    /// travels to `RcudaDaemon::migrate_out` through the order's channel;
    /// the connection then closes without parking (the session lives
    /// elsewhere now), and the client's reconnect finds it on the target
    /// daemon.
    fn quiesce_for_migration(&mut self, shared: &Shared, res: &mut PumpResult) {
        if !shared.migrations.is_armed() {
            return;
        }
        let Some(token) = self.machine.quiescent_token() else {
            return;
        };
        let Some(tx) = shared.migrations.take(token) else {
            return;
        };
        // A failed send means the daemon gave up waiting between our
        // checks and the send: keep serving as if nothing happened.
        if self.machine.detach(|ctx| tx.send(ctx).err().map(|e| e.0)) {
            shared.live_tokens().remove(&token);
            self.force_close();
            res.progress = true;
        }
    }

    /// Session end: the machine parks or releases the context; this is the
    /// daemon-side accounting around it.
    fn finalize(&mut self, env: &Env<'_>, shared: &Shared) {
        self.done = true;
        drop(self.guard.take());
        if let Some(token) = self.machine.token() {
            // Parked tokens are advertised through the registry instead;
            // a migrated-away session already cleared its token.
            shared.live_tokens().remove(&token);
        }
        if let Some(report) = self.machine.finish(env) {
            if report.panicked {
                shared.counters.panics.fetch_add(1, Ordering::SeqCst);
            }
            shared
                .counters
                .reclaimed_bytes
                .fetch_add(report.reclaimed_bytes, Ordering::SeqCst);
            shared.reports().push(report);
            shared.sessions_served.fetch_add(1, Ordering::SeqCst);
        }
        shared.counters.served.fetch_add(1, Ordering::SeqCst);
        shared.drain.note_closed();
        // `live` goes last: a drain watching it hit zero must observe this
        // connection's graceful/forced accounting already settled.
        shared.counters.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{GpuPool, PoolPolicy};
    use rcuda_proto::handshake::read_hello_reply;
    use rcuda_proto::SessionHello;
    use rcuda_transport::{TcpTransport, TransportStats};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A TCP transport that counts its nonblocking reads. A shard tries
    /// one read per pass on a session that wants bytes, so on an idle
    /// session this counts the shard's passes.
    struct CountingReads {
        inner: TcpTransport,
        reads: Arc<AtomicU64>,
    }

    impl Read for CountingReads {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl Write for CountingReads {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Transport for CountingReads {
        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }

        fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
            self.inner.set_nonblocking(nonblocking)
        }

        fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Progress> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.inner.try_read(buf)
        }

        fn try_write(&mut self, buf: &[u8]) -> io::Result<Progress> {
            self.inner.try_write(buf)
        }
    }

    struct OneShard {
        shared: Arc<Shared>,
        reactor: Reactor,
        pool: GpuPool,
        listener: TcpListener,
    }

    impl OneShard {
        fn start() -> OneShard {
            let shared = Arc::new(Shared::new(
                ServerConfig::default(),
                ShardedRegistry::new(1),
            ));
            let reactor = Reactor::start(1, &shared).unwrap();
            let pool = GpuPool::new(
                vec![GpuDevice::tesla_c1060_functional()],
                PoolPolicy::RoundRobin,
            );
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            OneShard {
                shared,
                reactor,
                pool,
                listener,
            }
        }

        /// Open a loopback connection, hand its server end to the shard,
        /// and read the compute-capability push the shard sends first.
        fn connect(&self) -> (TcpStream, Arc<AtomicU64>) {
            let mut client = TcpStream::connect(self.listener.local_addr().unwrap()).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let (server, _) = self.listener.accept().unwrap();
            let raw = server.try_clone().unwrap();
            let reads = Arc::new(AtomicU64::new(0));
            let (device, guard) = self.pool.assign();
            self.reactor.submit(NewConn {
                transport: Box::new(CountingReads {
                    inner: TcpTransport::from_stream(server).unwrap(),
                    reads: Arc::clone(&reads),
                }),
                raw: Some(raw),
                device,
                guard,
                authenticated: false,
            });
            let mut push = [0u8; 8];
            client
                .read_exact(&mut push)
                .expect("compute-capability push");
            (client, reads)
        }
    }

    impl Drop for OneShard {
        fn drop(&mut self) {
            self.shared.halt_shards();
            self.reactor.join();
        }
    }

    /// Spin until the shard has tried `n` reads on a connection.
    fn await_reads(reads: &AtomicU64, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while reads.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "the shard never ran its passes");
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_wake_pipe_reaches_a_shard_blocked_in_poll() {
        let shard = OneShard::start();
        let (_idle, reads) = shard.connect();
        // Pass 1 flushed the push and moved. The next `WARM_WAITS` passes
        // read nothing and waited with the warm timeout; the pass after
        // them read nothing either, so the shard is now committed to an
        // unbounded poll on the idle socket.
        await_reads(&reads, 2 + u64::from(WARM_WAITS));

        let (mut client, _) = shard.connect();
        SessionHello::Fresh {
            module: rcuda_gpu::module::build_module(&["fill"], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        assert_eq!(read_hello_reply(&mut client).expect("init reply"), Ok(()));
    }

    #[test]
    fn an_idle_tcp_session_does_not_spin_its_shard() {
        let shard = OneShard::start();
        let (_idle, reads) = shard.connect();
        await_reads(&reads, 2);
        let before = reads.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(50));
        let passes = reads.load(Ordering::SeqCst) - before;
        assert!(passes <= 10, "{passes} passes over a silent 50 ms gap");
    }

    #[test]
    fn halting_joins_a_shard_blocked_in_poll() {
        let shard = OneShard::start();
        let (_idle, reads) = shard.connect();
        await_reads(&reads, 2 + u64::from(WARM_WAITS));
        // Dropping `OneShard` halts and joins, as dropping a daemon does
        // once it has stopped accepting.
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            drop(shard);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("halt woke the shard and joined it");
    }
}
