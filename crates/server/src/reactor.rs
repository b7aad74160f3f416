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
//! This driver serves every TCP connection, `RcudaDaemon::connect_in_process`
//! and the sub-streams of reactor-hosted mux trunks. What it adds around the
//! machine is daemon-side only: admission accounting, the pool seat, drain
//! and halt, and the live-migration quiesce check.

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use rcuda_core::time::wall_clock;
use rcuda_core::Clock as _;
use rcuda_gpu::{GpuContext, GpuDevice};
use rcuda_obs::ShardSpan;
use rcuda_proto::mux::MuxHello;
use rcuda_proto::BufferPool;
use rcuda_transport::{Progress, Transport};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::pool::PoolGuard;
use crate::registry::ShardedRegistry;
use crate::session::{Env, SessionMachine, Step};
use crate::worker::{ServerConfig, SessionReport};

/// Frames dispatched per connection per pass before yielding to shard
/// neighbors (leftover frames stay buffered and the pass is re-run hot).
const FRAMES_PER_PASS: u32 = 64;
/// Longest idle-shard sleep. Bounds resume-poll and drain-notice latency.
const IDLE_SLEEP_MAX_US: u64 = 2_000;

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
    pub(crate) fn begin(&self) {
        self.graceful.store(0, Ordering::SeqCst);
        self.forced.store(0, Ordering::SeqCst);
        self.mode.store(DRAIN_GRACE, Ordering::SeqCst);
    }

    pub(crate) fn force(&self) {
        self.mode.store(DRAIN_FORCE, Ordering::SeqCst);
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
    /// channel once its connection reaches a frame boundary.
    pub(crate) fn arm(&self, session: u64) -> Receiver<GpuContext> {
        let (tx, rx) = unbounded();
        self.orders.lock().insert(session, tx);
        self.armed.store(true, Ordering::SeqCst);
        rx
    }

    /// Withdraw an order that never completed (quiesce timeout). The shard
    /// may have raced the withdrawal and already sent — the caller must
    /// drain the receiver once more after this.
    pub(crate) fn disarm(&self, session: u64) {
        let mut orders = self.orders.lock();
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
        let mut orders = self.orders.lock();
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
    pub(crate) halt: AtomicBool,
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
/// set `Shared::halt` first, then call [`Reactor::join`].
pub(crate) struct Reactor {
    shards: Vec<ShardHandle>,
    next: AtomicUsize,
}

impl Reactor {
    /// Spawn `n` shard threads (at least one) over `shared`.
    pub(crate) fn start(n: usize, shared: &Arc<Shared>) -> Reactor {
        let shards = (0..n.max(1) as u32)
            .map(|id| {
                let (tx, rx) = unbounded::<NewConn>();
                let queued = Arc::new(AtomicU32::new(0));
                let shard_queued = Arc::clone(&queued);
                let shard_shared = Arc::clone(shared);
                let thread = std::thread::Builder::new()
                    .name(format!("rcuda-shard-{id}"))
                    .spawn(move || shard_loop(id, rx, shard_queued, shard_shared))
                    .expect("spawn reactor shard");
                ShardHandle {
                    tx,
                    queued,
                    thread: Mutex::new(Some(thread)),
                }
            })
            .collect();
        Reactor {
            shards,
            next: AtomicUsize::new(0),
        }
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
    }

    /// Join every shard thread. Callers must set `Shared::halt` first or
    /// this blocks forever.
    pub(crate) fn join(&self) {
        for shard in &self.shards {
            if let Some(t) = shard.thread.lock().take() {
                let _ = t.join();
            }
        }
    }
}

// --------------------------------------------------------------- the shard

fn shard_loop(id: u32, rx: Receiver<NewConn>, queued: Arc<AtomicU32>, shared: Arc<Shared>) {
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
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            if forcing {
                conn.force_close();
            }
            let act = conn.pump(&env, &shared);
            frames += act.frames;
            moved |= act.progress;
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

        // Adaptive idle backoff: spin briefly for latency, then sleep with
        // a bounded ceiling so resume polls and drain flags stay fresh.
        if moved {
            idle_passes = 0;
        } else {
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes < 8 {
                std::thread::yield_now();
            } else {
                let us = (u64::from(idle_passes) * 50).min(IDLE_SLEEP_MAX_US);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
    }
}

// ---------------------------------------------------------- the connection

struct PumpResult {
    frames: u32,
    progress: bool,
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
                Step::Idle | Step::AwaitResume { .. } | Step::Closing => break,
                Step::Handshake => {
                    res.progress = true;
                    if let Some(token) = self.machine.token() {
                        shared.live_tokens.lock().insert(token);
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
            shared.live_tokens.lock().remove(&token);
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
            shared.live_tokens.lock().remove(&token);
        }
        if let Some(report) = self.machine.finish(env) {
            if report.panicked {
                shared.counters.panics.fetch_add(1, Ordering::SeqCst);
            }
            shared
                .counters
                .reclaimed_bytes
                .fetch_add(report.reclaimed_bytes, Ordering::SeqCst);
            shared.reports.lock().push(report);
            shared.sessions_served.fetch_add(1, Ordering::SeqCst);
        }
        shared.counters.served.fetch_add(1, Ordering::SeqCst);
        shared.drain.note_closed();
        // `live` goes last: a drain watching it hit zero must observe this
        // connection's graceful/forced accounting already settled.
        shared.counters.live.fetch_sub(1, Ordering::SeqCst);
    }
}
