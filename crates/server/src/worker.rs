//! The blocking I/O driver, and the session's public vocabulary.
//!
//! [`serve_connection`] / [`serve_connection_with_registry`] serve one
//! connection to completion on the calling thread: a blocking read →
//! `SessionMachine::step` → `write_all` + `flush` loop around the one
//! session engine in `crate::session`. Every protocol decision lives in
//! the machine; this file only moves bytes. It is the driver for transports
//! with no nonblocking half (`SimTransport`, `FaultyTransport`) and for
//! every caller that wants a session on a thread of its own — the facade's
//! `Endpoint::Channel` / `ChannelFaulty` / `Simulated`, the per-stream
//! workers of [`crate::serve_mux_trunk`], `rcuda-workloads`. TCP and
//! `RcudaDaemon::connect_in_process` sessions run the same machine under
//! the readiness driver in `crate::reactor`.
//!
//! [`ServerConfig`], [`SessionReport`] and [`ChaosHook`] — what a session is
//! configured with and what it reports — are defined here for both drivers.

use rcuda_core::SharedClock;
use rcuda_gpu::GpuDevice;
use rcuda_obs::{ObsHandle, PoolStats};
use rcuda_proto::secure::CipherSuiteKind;
use rcuda_proto::{BufferPool, Request};
use rcuda_transport::Transport;
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use crate::registry::SessionRegistry;
use crate::session::{Env, SessionMachine, Step};

/// A test-only dispatch hook, fired with every post-handshake request just
/// before it is dispatched (inside the worker's panic guard). The chaos
/// soak harness arms it to make chosen sessions panic mid-request;
/// production configs leave it disarmed, where firing is a `None` check.
#[derive(Clone, Default)]
pub struct ChaosHook(Option<ChaosFn>);

/// The armed form of a [`ChaosHook`].
type ChaosFn = Arc<dyn Fn(&Request) + Send + Sync>;

impl ChaosHook {
    /// The disarmed hook (never fires).
    pub const fn none() -> Self {
        ChaosHook(None)
    }

    /// Arm the hook. `f` runs on the worker thread holding the session's
    /// context; if it panics, the worker kills that one session (mapped to
    /// `cudaErrorLaunchFailure` on the wire) and the daemon survives.
    pub fn new(f: impl Fn(&Request) + Send + Sync + 'static) -> Self {
        ChaosHook(Some(Arc::new(f)))
    }

    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub(crate) fn fire(&self, req: &Request) {
        if let Some(f) = &self.0 {
            f(req);
        }
    }
}

impl fmt::Debug for ChaosHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_armed() {
            "ChaosHook(armed)"
        } else {
            "ChaosHook(none)"
        })
    }
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Keep the CUDA context warm before the client arrives (the rCUDA
    /// behavior, §VI-B). Disable to ablate the pre-initialization benefit.
    pub preinitialize_context: bool,
    /// Use phantom device memory (timing-only sessions at paper scale).
    pub phantom_memory: bool,
    /// Server-side observer: every dispatched request reports a
    /// [`rcuda_obs::ServerSpan`] (service time + in-frame queue wait), and the daemon
    /// reports admission/reclamation [`rcuda_obs::DaemonEvent`]s. Disarmed by default
    /// — the request loop then takes no timestamps at all.
    pub observer: ObsHandle,
    /// Admission cap on concurrently live sessions: connections beyond it
    /// are shed at the handshake with a `Busy` frame. `None` = unlimited
    /// (the pre-hardening behavior).
    pub max_sessions: Option<usize>,
    /// Admission cap on parked-registry occupancy, doubling as the
    /// registry's capacity. Connections arriving while this many sessions
    /// sit parked are shed — a load-shedding heuristic that keeps an
    /// unbounded stream of crash-and-park clients from churning the
    /// registry. `None` = registry default capacity, no admission check.
    pub max_parked: Option<usize>,
    /// Per-session cap on live device bytes (rounded allocator
    /// accounting). Over-quota mallocs fail with
    /// `cudaErrorMemoryAllocation`; the session keeps running. `None` =
    /// uncapped.
    pub session_mem_quota: Option<u64>,
    /// The retry hint carried in `Busy` rejection frames, in milliseconds.
    pub busy_retry_after_ms: u32,
    /// Required auth token: when set, only mux trunks proving possession of
    /// this token (HMAC challenge-response, see [`rcuda_proto::secure`]) are
    /// served; legacy single-stream hellos are rejected with
    /// `rcudaErrorAuthFailed`. `None` = open daemon (the token defaults to
    /// empty on both ends, so unauthenticated mux trunks still verify).
    pub auth_token: Option<Vec<u8>>,
    /// Cipher suite offered to mux clients that request payload encryption
    /// at the hello. [`CipherSuiteKind::None`] disables encryption even for
    /// requesting clients (the server clears the flag in its challenge).
    pub cipher: CipherSuiteKind,
    /// Advertise the adaptive wire codec (LZ4 payload compression) in the
    /// compute-capability push. On by default: the capability bits ride the
    /// high half of the minor word, which legacy clients never inspect, so
    /// advertising costs nothing and only opted-in clients switch framing.
    pub codec: bool,
    /// Test-only per-request hook (see [`ChaosHook`]). Disarmed by default.
    pub chaos: ChaosHook,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            preinitialize_context: true,
            phantom_memory: false,
            observer: ObsHandle::none(),
            max_sessions: None,
            max_parked: None,
            session_mem_quota: None,
            busy_retry_after_ms: 25,
            auth_token: None,
            cipher: CipherSuiteKind::ChaCha20,
            codec: true,
            chaos: ChaosHook::none(),
        }
    }
}

/// What a session did, for logging and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Requests served (excluding the module upload).
    pub requests: u64,
    /// Whether the client ended the session with an orderly Quit.
    pub orderly_shutdown: bool,
    /// Device allocations still live at session end (leaks if nonzero —
    /// the daemon releases them with the context either way).
    pub leaked_allocations: usize,
    /// This connection resumed a previously parked session.
    pub resumed: bool,
    /// The session's context was parked for resume when the connection
    /// dropped (its live allocations are preserved, not leaked).
    pub parked: bool,
    /// A dispatch panicked: the session was killed (never parked) and its
    /// resources reclaimed; the client saw `cudaErrorLaunchFailure`.
    pub panicked: bool,
    /// Device bytes returned to the device ledger when this worker released
    /// contexts (its own at exit, plus any session it evicted by parking).
    pub reclaimed_bytes: u64,
    /// The connection's payload-buffer pool at session end: how often H2D
    /// request bodies and D2H reply stagings were served from recycled
    /// buffers rather than fresh allocations.
    pub pool: PoolStats,
}

/// Serve one connection to completion.
///
/// Transport errors after the handshake are treated as a client disconnect
/// (the report notes the unorderly end); errors during the handshake are
/// returned. Sessions using the resumable handshake get a private registry,
/// so a dropped connection parks the context with nobody to reclaim it —
/// use [`serve_connection_with_registry`] to let reconnects find it.
pub fn serve_connection<T: Transport>(
    transport: T,
    device: &Arc<GpuDevice>,
    clock: SharedClock,
    config: &ServerConfig,
) -> io::Result<SessionReport> {
    serve_connection_with_registry(transport, device, clock, config, &SessionRegistry::new())
}

/// Serve one connection, parking and resuming sessions via `registry`.
///
/// The first post-connect message selects the session form (see
/// [`rcuda_proto::handshake`]): the paper's positional init starts an
/// ordinary session; a `Hello` starts a resumable one whose context is
/// parked in `registry` if the connection dies without a Quit; a
/// `Reconnect` takes a parked context back out and resumes serving it, or
/// is cleanly rejected with `cudaErrorInitializationError` when the token
/// is unknown.
pub fn serve_connection_with_registry<T: Transport>(
    mut transport: T,
    device: &Arc<GpuDevice>,
    clock: SharedClock,
    config: &ServerConfig,
    registry: &SessionRegistry,
) -> io::Result<SessionReport> {
    // One payload pool per connection: H2D request bodies are decoded into
    // it and D2H replies staged from it, so the steady-state request loop
    // recycles the same buffers instead of allocating per call.
    let pool = BufferPool::new();
    let env = Env {
        config,
        registry: std::slice::from_ref(registry),
        pool: &pool,
    };
    let mut machine = SessionMachine::new(Arc::clone(device), clock, &env, false);
    loop {
        // `step` handles one message per call, so this is one flush per
        // reply: the flush marks the message boundary that latency
        // accounting (and TCP packetization) keys on.
        let n = machine.out().len();
        if n > 0 {
            match transport
                .write_all(machine.out())
                .and_then(|()| transport.flush())
            {
                Ok(()) => machine.consumed(n),
                Err(_) => machine.transport_failed(),
            }
        }
        match machine.step(&env, Instant::now) {
            Step::Handshake | Step::Frame => {}
            Step::Idle => match transport.read(machine.space()) {
                Ok(n) if n > 0 => {
                    machine.commit(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => machine.eof(),
            },
            Step::AwaitResume { session, deadline } => {
                // Block on the registry where a shard would poll it. A miss
                // returns at the deadline, and the next step rejects.
                let wait = deadline.saturating_duration_since(Instant::now());
                if let Some(ctx) = registry.take_deadline(session, wait) {
                    machine.resumed(session, ctx, &env);
                }
            }
            // A trunk needs a host (`serve_mux_trunk`), not a session
            // driver: the machine closed without a report.
            Step::Mux { .. } | Step::Closing => break,
        }
    }
    machine.finish(&env).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection ended before a session handshake completed",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_core::time::{virtual_clock, wall_clock};
    use rcuda_core::{Clock as _, CudaError};
    use rcuda_gpu::module::build_module;
    use rcuda_proto::codec::CAP_ALL;
    use rcuda_proto::ids::MemcpyKind;
    use rcuda_proto::{Response, SessionHello};
    use rcuda_transport::channel_pair;
    use std::io::{Read, Write};
    use std::thread;

    /// Drive the worker with raw protocol messages over an in-process pipe.
    #[test]
    fn full_session_over_channel() {
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let clock = wall_clock();
        let cfg = ServerConfig::default();
        let worker =
            thread::spawn(move || serve_connection(server_side, &device, clock, &cfg).unwrap());

        // Handshake: compute capability arrives first, with the daemon's
        // codec capability bits folded into the high half of the minor word.
        let mut cc = [0u8; 8];
        client.read_exact(&mut cc).unwrap();
        let (major, minor_word) = rcuda_core::DeviceProperties::compute_capability_from_wire(cc);
        assert_eq!(major, 1);
        assert_eq!(
            rcuda_proto::codec::split_minor_word(minor_word),
            (3, CAP_ALL)
        );
        // Ship a module.
        Request::Init {
            module: build_module(&["fill"], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        let init_req = Request::Init { module: vec![] };
        assert_eq!(
            Response::read(&mut client, &init_req).unwrap(),
            Response::Ack(Ok(()))
        );
        // Malloc.
        let malloc = Request::Malloc { size: 16 };
        malloc.write(&mut client).unwrap();
        client.flush().unwrap();
        let ptr = Response::read(&mut client, &malloc)
            .unwrap()
            .into_malloc()
            .unwrap();
        // Free + Quit.
        let free = Request::Free { ptr };
        free.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &free)
            .unwrap()
            .into_ack()
            .unwrap();
        Request::Quit.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &Request::Quit)
            .unwrap()
            .into_ack()
            .unwrap();

        let report = worker.join().unwrap();
        assert!(report.orderly_shutdown);
        assert_eq!(report.requests, 3); // malloc, free, quit
        assert_eq!(report.leaked_allocations, 0);
    }

    /// A batched frame executes in order on the worker's context and yields
    /// one combined response, and the session keeps working afterwards.
    #[test]
    fn batched_session_over_channel() {
        use rcuda_core::ArgPack;
        use rcuda_proto::{Batch, BatchResponse, LaunchConfig};

        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let clock = wall_clock();
        let cfg = ServerConfig::default();
        let worker =
            thread::spawn(move || serve_connection(server_side, &device, clock, &cfg).unwrap());

        let mut cc = [0u8; 8];
        client.read_exact(&mut cc).unwrap();
        Request::Init {
            module: build_module(&["fill"], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        let init_req = Request::Init { module: vec![] };
        Response::read(&mut client, &init_req).unwrap();

        // Malloc is result-bearing, so it goes alone.
        let malloc = Request::Malloc { size: 16 };
        malloc.write(&mut client).unwrap();
        client.flush().unwrap();
        let ptr = Response::read(&mut client, &malloc)
            .unwrap()
            .into_malloc()
            .unwrap();

        // fill + synchronize + readback + free, all in one frame: the D2H
        // copy rides as a result-bearing element inside the batch.
        let args = ArgPack::new()
            .push_ptr(ptr)
            .push_u32(4)
            .push_f32(3.0)
            .into_bytes();
        let batch = Batch::new(vec![
            Request::launch("fill", &args, LaunchConfig::simple(1, 4)),
            Request::ThreadSynchronize,
            Request::Memcpy {
                dst: 0,
                src: ptr.addr(),
                size: 16,
                kind: MemcpyKind::DeviceToHost,
                data: None,
            },
            Request::Free { ptr },
        ])
        .unwrap();
        batch.write(&mut client).unwrap();
        client.flush().unwrap();
        let resp = BatchResponse::read(&mut client, &batch).unwrap();
        assert_eq!(resp.responses.len(), 4);
        assert_eq!(resp.responses[0], Response::Ack(Ok(())));
        assert_eq!(resp.responses[1], Response::Ack(Ok(())));
        let bytes = match &resp.responses[2] {
            Response::MemcpyToHost(Ok(b)) => b.clone(),
            other => panic!("{other:?}"),
        };
        let vals: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![3.0; 4]);
        assert_eq!(resp.responses[3], Response::Ack(Ok(())));

        // The session is still alive for ordinary single requests.
        Request::Quit.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &Request::Quit)
            .unwrap()
            .into_ack()
            .unwrap();

        let report = worker.join().unwrap();
        assert!(report.orderly_shutdown);
        assert_eq!(report.requests, 6); // malloc + 4 batched + quit
        assert_eq!(report.leaked_allocations, 0);
    }

    /// A Quit packed inside a batch still ends the session gracefully.
    #[test]
    fn quit_inside_batch_is_orderly() {
        use rcuda_proto::{Batch, BatchResponse};

        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let clock = wall_clock();
        let cfg = ServerConfig::default();
        let worker =
            thread::spawn(move || serve_connection(server_side, &device, clock, &cfg).unwrap());
        let mut cc = [0u8; 8];
        client.read_exact(&mut cc).unwrap();
        Request::Init {
            module: build_module(&[], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        let init_req = Request::Init { module: vec![] };
        Response::read(&mut client, &init_req).unwrap();

        let batch = Batch::new(vec![Request::ThreadSynchronize, Request::Quit]).unwrap();
        batch.write(&mut client).unwrap();
        client.flush().unwrap();
        let resp = BatchResponse::read(&mut client, &batch).unwrap();
        assert_eq!(resp.responses[1], Response::Ack(Ok(())));

        let report = worker.join().unwrap();
        assert!(report.orderly_shutdown);
    }

    #[test]
    fn client_disconnect_mid_session_is_survived() {
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let clock = wall_clock();
        let cfg = ServerConfig::default();
        let worker =
            thread::spawn(move || serve_connection(server_side, &device, clock, &cfg).unwrap());
        let mut cc = [0u8; 8];
        client.read_exact(&mut cc).unwrap();
        Request::Init {
            module: build_module(&[], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        let init_req = Request::Init { module: vec![] };
        Response::read(&mut client, &init_req).unwrap();
        // Leak an allocation, then vanish without Quit.
        let malloc = Request::Malloc { size: 1024 };
        malloc.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &malloc).unwrap();
        drop(client);
        let report = worker.join().unwrap();
        assert!(!report.orderly_shutdown);
        assert_eq!(
            report.leaked_allocations, 1,
            "leak is visible in the report"
        );
    }

    #[test]
    fn preinit_config_controls_context_charge() {
        for (preinit, expect_charge) in [(true, false), (false, true)] {
            let (mut client, server_side) = channel_pair();
            let device = GpuDevice::tesla_c1060(); // charging cost model
            let clock = virtual_clock();
            let cfg = ServerConfig {
                preinitialize_context: preinit,
                phantom_memory: true,
                ..Default::default()
            };
            let clock2 = clock.clone();
            let worker = thread::spawn(move || {
                serve_connection(server_side, &device, clock2, &cfg).unwrap()
            });
            let mut cc = [0u8; 8];
            client.read_exact(&mut cc).unwrap();
            Request::Quit.write(&mut client).unwrap();
            // No module upload: the worker is waiting for Init; send an
            // empty module instead to keep the protocol aligned.
            drop(client);
            let _ = worker.join();
            let charged = clock.now().as_secs_f64() > 0.1;
            assert_eq!(charged, expect_charge, "preinit={preinit}");
        }
    }

    /// A resumable session that vanishes parks its context; a reconnect
    /// resumes it with all state (allocations, module) intact.
    #[test]
    fn parked_session_resumes_with_state_intact() {
        use rcuda_proto::handshake::read_hello_reply;
        use std::sync::Arc;

        let registry = Arc::new(SessionRegistry::new());
        let device = GpuDevice::tesla_c1060_functional();
        let cfg = ServerConfig::default();

        // Connection 1: resumable hello, malloc + write data, then vanish.
        let (mut client, server_side) = channel_pair();
        let (reg2, dev2, cfg2) = (Arc::clone(&registry), Arc::clone(&device), cfg.clone());
        let worker1 = thread::spawn(move || {
            serve_connection_with_registry(server_side, &dev2, wall_clock(), &cfg2, &reg2).unwrap()
        });
        let mut cc = [0u8; 8];
        client.read_exact(&mut cc).unwrap();
        SessionHello::Resumable {
            session: 0xDEAD_0001,
            module: build_module(&[], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        assert_eq!(read_hello_reply(&mut client).unwrap(), Ok(()));

        let malloc = Request::Malloc { size: 8 };
        malloc.write(&mut client).unwrap();
        client.flush().unwrap();
        let ptr = Response::read(&mut client, &malloc)
            .unwrap()
            .into_malloc()
            .unwrap();
        let h2d = Request::Memcpy {
            dst: ptr.addr(),
            src: 0,
            size: 8,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![1, 2, 3, 4, 5, 6, 7, 8].into()),
        };
        h2d.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &h2d).unwrap();
        drop(client); // connection dies without Quit

        let report1 = worker1.join().unwrap();
        assert!(report1.parked && !report1.orderly_shutdown);
        assert_eq!(report1.leaked_allocations, 0, "parked, not leaked");
        assert_eq!(registry.parked_count(), 1);

        // Connection 2: reconnect with the token, read the data back.
        let (mut client, server_side) = channel_pair();
        let (reg2, dev2, cfg2) = (Arc::clone(&registry), Arc::clone(&device), cfg.clone());
        let worker2 = thread::spawn(move || {
            serve_connection_with_registry(server_side, &dev2, wall_clock(), &cfg2, &reg2).unwrap()
        });
        client.read_exact(&mut cc).unwrap();
        SessionHello::Reconnect {
            session: 0xDEAD_0001,
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        assert_eq!(read_hello_reply(&mut client).unwrap(), Ok(()), "resumed");

        let d2h = Request::Memcpy {
            dst: 0,
            src: ptr.addr(),
            size: 8,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        d2h.write(&mut client).unwrap();
        client.flush().unwrap();
        let bytes = Response::read(&mut client, &d2h)
            .unwrap()
            .into_memcpy_to_host()
            .unwrap();
        assert_eq!(bytes, vec![1, 2, 3, 4, 5, 6, 7, 8], "state survived");

        Request::Quit.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &Request::Quit).unwrap();
        let report2 = worker2.join().unwrap();
        assert!(report2.resumed && report2.orderly_shutdown);
        assert_eq!(registry.parked_count(), 0);
    }

    /// Reconnecting with an unknown token is rejected cleanly, not hung.
    #[test]
    fn unknown_reconnect_token_is_rejected() {
        use rcuda_core::CudaError;
        use rcuda_proto::handshake::read_hello_reply;

        let registry = SessionRegistry::new();
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let cfg = ServerConfig::default();
        let report = thread::scope(|s| {
            let h = s.spawn(|| {
                serve_connection_with_registry(server_side, &device, wall_clock(), &cfg, &registry)
                    .unwrap()
            });
            let mut cc = [0u8; 8];
            client.read_exact(&mut cc).unwrap();
            SessionHello::Reconnect { session: 12345 }
                .write(&mut client)
                .unwrap();
            client.flush().unwrap();
            assert_eq!(
                read_hello_reply(&mut client).unwrap(),
                Err(CudaError::InitializationError)
            );
            h.join().unwrap()
        });
        assert!(!report.resumed && !report.orderly_shutdown);
        assert_eq!(report.requests, 0);
    }

    /// An orderly Quit on a resumable session releases — never parks.
    #[test]
    fn orderly_quit_does_not_park() {
        use rcuda_proto::handshake::read_hello_reply;

        let registry = SessionRegistry::new();
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let cfg = ServerConfig::default();
        let report = thread::scope(|s| {
            let h = s.spawn(|| {
                serve_connection_with_registry(server_side, &device, wall_clock(), &cfg, &registry)
                    .unwrap()
            });
            let mut cc = [0u8; 8];
            client.read_exact(&mut cc).unwrap();
            SessionHello::Resumable {
                session: 77,
                module: build_module(&[], 0),
            }
            .write(&mut client)
            .unwrap();
            client.flush().unwrap();
            read_hello_reply(&mut client).unwrap().unwrap();
            Request::Quit.write(&mut client).unwrap();
            client.flush().unwrap();
            Response::read(&mut client, &Request::Quit).unwrap();
            h.join().unwrap()
        });
        assert!(report.orderly_shutdown && !report.parked);
        assert_eq!(registry.parked_count(), 0);
    }

    /// A dispatch panic (chaos hook) kills the session with a shaped
    /// `LaunchFailure` answer — never a hang or a protocol desync — and is
    /// never parked, even for resumable sessions.
    #[test]
    fn panicking_dispatch_answers_launch_failure_and_never_parks() {
        use rcuda_proto::handshake::read_hello_reply;

        let registry = SessionRegistry::new();
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let cfg = ServerConfig {
            chaos: ChaosHook::new(|req| {
                if matches!(req, Request::ThreadSynchronize) {
                    panic!("chaos: injected dispatch panic");
                }
            }),
            ..Default::default()
        };
        let report = thread::scope(|s| {
            let h = s.spawn(|| {
                serve_connection_with_registry(server_side, &device, wall_clock(), &cfg, &registry)
                    .unwrap()
            });
            let mut cc = [0u8; 8];
            client.read_exact(&mut cc).unwrap();
            SessionHello::Resumable {
                session: 0xC4A0_5001,
                module: build_module(&[], 0),
            }
            .write(&mut client)
            .unwrap();
            client.flush().unwrap();
            read_hello_reply(&mut client).unwrap().unwrap();

            // A benign request first: the hook only fires on Synchronize.
            let malloc = Request::Malloc { size: 64 };
            malloc.write(&mut client).unwrap();
            client.flush().unwrap();
            Response::read(&mut client, &malloc)
                .unwrap()
                .into_malloc()
                .unwrap();

            // The poisoned request: shaped error back, then EOF.
            Request::ThreadSynchronize.write(&mut client).unwrap();
            client.flush().unwrap();
            let resp = Response::read(&mut client, &Request::ThreadSynchronize).unwrap();
            assert_eq!(resp, Response::Ack(Err(CudaError::LaunchFailure)));
            h.join().unwrap()
        });
        assert!(report.panicked);
        assert!(!report.parked, "a panicked session is never parked");
        assert_eq!(registry.parked_count(), 0);
        assert!(report.reclaimed_bytes > 0, "the leaked malloc came back");
    }

    /// The per-session quota maps to `cudaErrorMemoryAllocation` at malloc
    /// dispatch; freeing makes room again and the session keeps working.
    #[test]
    fn session_quota_enforced_at_malloc_dispatch() {
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let cfg = ServerConfig {
            session_mem_quota: Some(1024),
            ..Default::default()
        };
        let worker = thread::spawn(move || {
            serve_connection(server_side, &device, wall_clock(), &cfg).unwrap()
        });
        let mut cc = [0u8; 8];
        client.read_exact(&mut cc).unwrap();
        Request::Init {
            module: build_module(&[], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &Request::Init { module: vec![] }).unwrap();

        let within = Request::Malloc { size: 1024 };
        within.write(&mut client).unwrap();
        client.flush().unwrap();
        let ptr = Response::read(&mut client, &within)
            .unwrap()
            .into_malloc()
            .unwrap();

        let over = Request::Malloc { size: 256 };
        over.write(&mut client).unwrap();
        client.flush().unwrap();
        assert_eq!(
            Response::read(&mut client, &over).unwrap(),
            Response::Malloc(Err(CudaError::MemoryAllocation))
        );

        // Free, and the same malloc succeeds: the quota is on live bytes.
        let free = Request::Free { ptr };
        free.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &free).unwrap();
        over.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &over)
            .unwrap()
            .into_malloc()
            .unwrap();

        Request::Quit.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &Request::Quit).unwrap();
        let report = worker.join().unwrap();
        assert!(report.orderly_shutdown);
    }

    #[test]
    fn bad_requests_yield_error_codes_not_session_death() {
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let clock = wall_clock();
        let cfg = ServerConfig::default();
        let worker =
            thread::spawn(move || serve_connection(server_side, &device, clock, &cfg).unwrap());
        let mut cc = [0u8; 8];
        client.read_exact(&mut cc).unwrap();
        Request::Init {
            module: build_module(&[], 0),
        }
        .write(&mut client)
        .unwrap();
        client.flush().unwrap();
        let init_req = Request::Init { module: vec![] };
        Response::read(&mut client, &init_req).unwrap();

        // Free a garbage pointer -> error code, session continues.
        let bad_free = Request::Free {
            ptr: rcuda_core::DevicePtr::new(0xBEEF),
        };
        bad_free.write(&mut client).unwrap();
        client.flush().unwrap();
        let resp = Response::read(&mut client, &bad_free).unwrap();
        assert!(resp.into_ack().is_err());

        // D2H from garbage -> error code, still alive.
        let bad_cpy = Request::Memcpy {
            dst: 0,
            src: 0xBEEF,
            size: 4,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        bad_cpy.write(&mut client).unwrap();
        client.flush().unwrap();
        let resp = Response::read(&mut client, &bad_cpy).unwrap();
        assert!(resp.into_memcpy_to_host().is_err());

        // Orderly quit still possible.
        Request::Quit.write(&mut client).unwrap();
        client.flush().unwrap();
        Response::read(&mut client, &Request::Quit)
            .unwrap()
            .into_ack()
            .unwrap();
        let report = worker.join().unwrap();
        assert!(report.orderly_shutdown);
        assert_eq!(report.requests, 3);
    }
}
