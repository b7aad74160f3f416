//! The broker process: a TCP listener in front of the [`Directory`].
//!
//! One thread blocks in `accept`; each connection gets a handler thread
//! that completes the authentication handshake, reads the peer's
//! [`BrokerHello`] role, and then loops — heartbeats for daemons,
//! placement requests for clients. A sweeper thread advances the health
//! state machine on a fixed cadence, so a silently-wedged daemon (no EOF,
//! no heartbeats) is still detected. No thread sleeps to poll: membership
//! changes and shutdown are signalled on one condition variable (the
//! sweeper's cadence is a timed wait on it), and shutdown unblocks the
//! accept by dialling the broker once.

use rcuda_core::CudaError;
use rcuda_obs::ObsHandle;
use rcuda_proto::broker::{BrokerHello, Heartbeat, HeartbeatReply, PlaceReply, PlaceRequest};
use rcuda_proto::handshake::ServerHello;
use rcuda_proto::ids::FunctionId;
use rcuda_proto::mux::{write_mux_accept, MuxAuth, MuxChallenge, MuxHello, MUX_VERSION};
use rcuda_proto::secure::{auth_proof, ct_eq, random_nonce, CipherSuiteKind};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::directory::{DaemonEntry, Directory, HealthPolicy, PlacementPolicy};

/// The broker's own protocol revision, pushed in the server-hello slot
/// where daemons push a compute capability.
const BROKER_PROTO_MAJOR: u32 = 1;
const BROKER_PROTO_MINOR: u32 = 0;

/// How long a daemon connection may sit silent before the *reader* gives
/// up on it. The health timers are the real detector; this only bounds how
/// long a handler thread can linger after the peer wedges without EOF.
const DAEMON_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Pause after a failed `accept` (`EMFILE` and the like), so a persistent
/// failure does not spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

struct Inner {
    directory: Mutex<Directory>,
    /// Paired with `directory`: notified when a daemon registers or
    /// heartbeats (the only ways a daemon becomes Alive) and at shutdown.
    changed: Condvar,
    /// Clones of every open connection, shut down to unblock handler
    /// threads at broker shutdown.
    conns: Mutex<Vec<TcpStream>>,
    auth_token: Option<Vec<u8>>,
    stop: AtomicBool,
}

impl Inner {
    fn directory(&self) -> MutexGuard<'_, Directory> {
        self.directory
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Wait up to `timeout`, returning early at shutdown. Returns whether
    /// the broker is stopping.
    fn pause(&self, timeout: Duration) -> bool {
        let guard = self.directory();
        drop(
            self.changed
                .wait_timeout_while(guard, timeout, |_| !self.stopping())
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.stopping()
    }
}

/// Configures and binds a [`Broker`].
pub struct BrokerBuilder {
    policy: PlacementPolicy,
    health: HealthPolicy,
    auth_token: Option<Vec<u8>>,
    observer: ObsHandle,
}

impl Default for BrokerBuilder {
    fn default() -> Self {
        BrokerBuilder::new()
    }
}

impl BrokerBuilder {
    pub fn new() -> BrokerBuilder {
        BrokerBuilder {
            policy: PlacementPolicy::default(),
            health: HealthPolicy::default(),
            auth_token: None,
            observer: ObsHandle::none(),
        }
    }

    /// Placement policy for fresh sessions (default: least-loaded).
    pub fn policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Health-detection thresholds (default: suspect 250 ms, down 1 s).
    pub fn health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Shared token peers must prove possession of (default: open).
    pub fn auth_token(mut self, token: impl Into<Vec<u8>>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Observer for [`rcuda_obs::BrokerEvent`]s.
    pub fn observer(mut self, obs: ObsHandle) -> Self {
        self.observer = obs;
        self
    }

    /// Bind the listener and start the accept and sweeper threads.
    pub fn bind(self, addr: SocketAddr) -> io::Result<Broker> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            directory: Mutex::new(Directory::new(self.policy, self.health, self.observer)),
            changed: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            auth_token: self.auth_token,
            stop: AtomicBool::new(false),
        });

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("rcuda-broker-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))?;

        let sweep_every = self.health.suspect_after.min(Duration::from_millis(50)) / 2;
        let sweep_inner = Arc::clone(&inner);
        let sweeper = std::thread::Builder::new()
            .name("rcuda-broker-sweep".into())
            .spawn(move || {
                let period = sweep_every.max(Duration::from_millis(1));
                loop {
                    sweep_inner.directory().sweep(Instant::now());
                    if sweep_inner.pause(period) {
                        break;
                    }
                }
            })?;

        Ok(Broker {
            addr,
            inner,
            threads: vec![accept, sweeper],
        })
    }
}

/// A running broker. Dropping it shuts everything down.
pub struct Broker {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl Broker {
    /// The bound listen address (what daemons and clients dial).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of every registered daemon, id-ordered.
    pub fn daemons(&self) -> Vec<DaemonEntry> {
        self.inner.directory().daemons()
    }

    /// Sessions stranded on down daemons.
    pub fn orphaned_sessions(&self) -> Vec<u64> {
        self.inner.directory().orphaned_sessions()
    }

    /// Answer a placement locally (same path a remote client's
    /// [`PlaceRequest`] takes; used by tests and in-process embedding).
    pub fn place(&self, session: u64) -> Vec<String> {
        self.inner.directory().place(session)
    }

    /// Order the daemon holding `session` to migrate it to `target_addr`.
    /// The order rides the source daemon's next heartbeat reply.
    pub fn migrate(&self, session: u64, target_addr: &str) -> Result<(), &'static str> {
        self.inner.directory().order_migration(session, target_addr)
    }

    /// Wait until `n` daemons are registered and alive (test convenience).
    pub fn wait_for_daemons(&self, n: usize, timeout: Duration) -> bool {
        let alive = |dir: &Directory| {
            dir.daemons()
                .iter()
                .filter(|d| d.state == crate::directory::DaemonState::Alive)
                .count()
        };
        let guard = self.inner.directory();
        let (guard, _) = self
            .inner
            .changed
            .wait_timeout_while(guard, timeout, |dir| alive(dir) < n)
            .unwrap_or_else(PoisonError::into_inner);
        alive(&guard) >= n
    }

    /// Stop the accept loop, unblock and join every handler thread.
    pub fn shutdown(&mut self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept with a dummy connection, and the sweeper (the
        // lock orders the notify after any `stopping` check it made).
        let _ = TcpStream::connect(self.addr);
        drop(self.inner.directory());
        self.inner.changed.notify_all();
        for conn in self
            .inner
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        let accepted = listener.accept();
        if inner.stopping() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if let Ok(clone) = stream.try_clone() {
                    inner
                        .conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(clone);
                }
                let conn_inner = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name("rcuda-broker-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, conn_inner);
                    });
            }
            Err(_) => {
                if inner.pause(ACCEPT_ERROR_BACKOFF) {
                    return;
                }
            }
        }
    }
}

/// The broker half of the authentication handshake (mirror of the trunk
/// handshake the daemons host, minus the cipher upgrade — broker traffic
/// is short control messages on a plain stream).
fn authenticate(stream: &mut TcpStream, token: Option<&[u8]>) -> io::Result<bool> {
    stream.set_nodelay(true).ok();
    stream
        .write_all(
            &ServerHello::Ready {
                major: BROKER_PROTO_MAJOR,
                minor: BROKER_PROTO_MINOR,
            }
            .to_wire(),
        )
        .and_then(|_| stream.flush())?;
    let mut selector = [0u8; 4];
    stream.read_exact(&mut selector)?;
    if u32::from_le_bytes(selector) != FunctionId::MuxHello.as_u32() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected an authentication hello on a broker connection",
        ));
    }
    let hello = MuxHello::read_body(stream)?;
    let server_nonce = random_nonce();
    MuxChallenge {
        flags: 0,
        cipher: CipherSuiteKind::None.as_u32(),
        server_nonce,
    }
    .write(stream)?;
    stream.flush()?;
    let auth = MuxAuth::read(stream)?;
    let expected = auth_proof(token.unwrap_or(&[]), &hello.client_nonce, &server_nonce);
    if hello.version != MUX_VERSION || !ct_eq(&expected, &auth.mac) {
        write_mux_accept(stream, CudaError::AuthFailed.code())?;
        stream.flush()?;
        return Ok(false);
    }
    write_mux_accept(stream, 0)?;
    stream.flush()?;
    Ok(true)
}

fn serve_connection(mut stream: TcpStream, inner: Arc<Inner>) -> io::Result<()> {
    if !authenticate(&mut stream, inner.auth_token.as_deref())? {
        return Ok(());
    }
    match BrokerHello::read(&mut stream)? {
        BrokerHello::Daemon { addr, capacity } => serve_daemon(stream, inner, addr, capacity),
        BrokerHello::Client => serve_client(stream, inner),
    }
}

fn serve_daemon(
    mut stream: TcpStream,
    inner: Arc<Inner>,
    addr: String,
    capacity: u64,
) -> io::Result<()> {
    let id = inner.directory().register(&addr, capacity, Instant::now());
    inner.changed.notify_all();
    stream.set_read_timeout(Some(DAEMON_READ_TIMEOUT))?;
    loop {
        if inner.stopping() {
            return Ok(());
        }
        let hb = match Heartbeat::read(&mut stream) {
            Ok(hb) => hb,
            Err(_) => {
                // EOF, reset, or a wedged peer: the registration trunk is
                // dead — stronger evidence than any timer.
                inner.directory().mark_dead(id);
                return Ok(());
            }
        };
        let commands = inner.directory().heartbeat(id, &hb, Instant::now());
        inner.changed.notify_all();
        let reply = HeartbeatReply { commands };
        if reply
            .write(&mut stream)
            .and_then(|_| stream.flush())
            .is_err()
        {
            inner.directory().mark_dead(id);
            return Ok(());
        }
    }
}

fn serve_client(mut stream: TcpStream, inner: Arc<Inner>) -> io::Result<()> {
    loop {
        if inner.stopping() {
            return Ok(());
        }
        let Ok(req) = PlaceRequest::read(&mut stream) else {
            return Ok(()); // client hung up
        };
        let addrs = inner.directory().place(req.session);
        PlaceReply { addrs }.write(&mut stream)?;
        stream.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{BrokerClient, DaemonLink};

    fn any_addr() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn hb(live: u32, free: u64, sessions: &[u64]) -> Heartbeat {
        Heartbeat {
            live_sessions: live,
            parked: 0,
            free_bytes: free,
            served: 0,
            draining: false,
            sessions: sessions.to_vec(),
        }
    }

    #[test]
    fn daemons_register_heartbeat_and_clients_get_placements() {
        let broker = BrokerBuilder::new().bind(any_addr()).unwrap();
        let mut d1 = DaemonLink::connect(broker.addr(), None, "10.0.0.1:9000", 1 << 30).unwrap();
        let mut d2 = DaemonLink::connect(broker.addr(), None, "10.0.0.2:9000", 1 << 30).unwrap();
        assert!(broker.wait_for_daemons(2, Duration::from_secs(2)));
        assert!(d1.heartbeat(&hb(4, 100, &[11])).unwrap().is_empty());
        assert!(d2.heartbeat(&hb(1, 500, &[22])).unwrap().is_empty());

        let mut client = BrokerClient::connect(broker.addr(), None).unwrap();
        // Least-loaded: daemon 2 first; both listed for failover.
        assert_eq!(
            client.place(0).unwrap(),
            vec!["10.0.0.2:9000", "10.0.0.1:9000"]
        );
        // A session's owner leads regardless of load.
        assert_eq!(
            client.place(11).unwrap(),
            vec!["10.0.0.1:9000", "10.0.0.2:9000"]
        );
    }

    #[test]
    fn dead_trunk_marks_the_daemon_down() {
        let broker = BrokerBuilder::new().bind(any_addr()).unwrap();
        let mut d1 = DaemonLink::connect(broker.addr(), None, "a:1", 1024).unwrap();
        let _d2 = DaemonLink::connect(broker.addr(), None, "b:2", 1024).unwrap();
        assert!(broker.wait_for_daemons(2, Duration::from_secs(2)));
        d1.heartbeat(&hb(1, 10, &[7])).unwrap();
        drop(d1); // trunk EOF

        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if broker.orphaned_sessions() == vec![7] {
                break;
            }
            assert!(Instant::now() < deadline, "trunk death not detected");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(broker.place(0), vec!["b:2"]);
    }

    #[test]
    fn heartbeat_silence_downs_a_daemon_via_the_sweeper() {
        let broker = BrokerBuilder::new()
            .health(HealthPolicy {
                suspect_after: Duration::from_millis(30),
                down_after: Duration::from_millis(80),
                recover_heartbeats: 1,
            })
            .bind(any_addr())
            .unwrap();
        // Keep the trunk open but silent: only the timers can catch this.
        let mut link = DaemonLink::connect(broker.addr(), None, "a:1", 1024).unwrap();
        link.heartbeat(&hb(0, 10, &[5])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if broker.orphaned_sessions() == vec![5] {
                break;
            }
            assert!(Instant::now() < deadline, "silent daemon not detected");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The daemon resumes heartbeating: re-admitted.
        link.heartbeat(&hb(0, 10, &[5])).unwrap();
        assert!(broker.wait_for_daemons(1, Duration::from_secs(2)));
    }

    #[test]
    fn migration_orders_reach_the_source_daemon() {
        let broker = BrokerBuilder::new().bind(any_addr()).unwrap();
        let mut d1 = DaemonLink::connect(broker.addr(), None, "a:1", 1024).unwrap();
        let mut d2 = DaemonLink::connect(broker.addr(), None, "b:2", 1024).unwrap();
        d1.heartbeat(&hb(1, 10, &[42])).unwrap();
        d2.heartbeat(&hb(0, 10, &[])).unwrap();
        broker.migrate(42, "b:2").unwrap();
        let cmds = d1.heartbeat(&hb(1, 10, &[42])).unwrap();
        assert_eq!(
            cmds,
            vec![rcuda_proto::broker::BrokerCommand::MigrateOut {
                session: 42,
                target: "b:2".into()
            }]
        );
    }

    #[test]
    fn wrong_token_is_rejected() {
        let broker = BrokerBuilder::new()
            .auth_token(b"cluster-secret".to_vec())
            .bind(any_addr())
            .unwrap();
        let err = BrokerClient::connect(broker.addr(), Some(b"wrong")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        // The right token works.
        let mut ok = BrokerClient::connect(broker.addr(), Some(b"cluster-secret")).unwrap();
        assert_eq!(ok.place(0).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn dropping_an_idle_broker_is_prompt() {
        // Best of three, so one descheduled drop on a loaded host is not
        // read as a timer in the shutdown path.
        let fastest = (0..3)
            .map(|_| {
                let broker = BrokerBuilder::new().bind(any_addr()).unwrap();
                let start = Instant::now();
                drop(broker);
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < Duration::from_millis(50), "{fastest:?}");
    }

    #[test]
    fn shutdown_unblocks_open_connections() {
        let mut broker = BrokerBuilder::new().bind(any_addr()).unwrap();
        let _link = DaemonLink::connect(broker.addr(), None, "a:1", 1024).unwrap();
        let _client = BrokerClient::connect(broker.addr(), None).unwrap();
        broker.shutdown(); // must not hang on the idle handler threads
    }
}
