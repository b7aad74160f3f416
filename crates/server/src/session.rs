//! The session engine: one sans-IO state machine behind both I/O drivers.
//!
//! One remote execution is one session over one GPU context (§III, Fig. 2):
//!
//! 1. push the device's 8-byte compute capability (the first half of
//!    Table I's 12 receive bytes for Initialization), with the daemon's
//!    codec capability bits folded into the minor word;
//! 2. read the client's opening — an optional one-way `CodecHello`, then a
//!    [`SessionHello`] in any of its four forms (or a mux upgrade request) —
//!    load the module or resume a parked context, acknowledge;
//! 3. loop: decode a frame → dispatch → queue the reply, until Quit,
//!    disconnect, garbage, or a dispatch panic;
//! 4. park the context for the client's reconnect, or release it.
//!
//! [`SessionMachine`] makes every one of those decisions and performs no
//! I/O, in the style [`StreamDecoder`] already uses for framing: a driver
//! lands received bytes through [`SessionMachine::space`] /
//! [`SessionMachine::commit`] (and reports [`SessionMachine::eof`]), calls
//! [`SessionMachine::step`] — one message per call, so a driver can mark
//! one message boundary per reply — puts [`SessionMachine::out`] on the
//! wire and acknowledges it with [`SessionMachine::consumed`], and ends with
//! [`SessionMachine::finish`]. Registry, buffer pool and config come in
//! through [`Env`]; the resume deadline's clock is the `now` argument of
//! `step`. No threads, no sockets: the blocking loop in [`crate::worker`]
//! and the readiness loop in [`crate::reactor`] are the only two drivers,
//! and a single-threaded simulator can be a third.
//!
//! A message claiming more than [`rcuda_proto::decode::MAX_FRAME_BYTES`]
//! ends the session from its length word alone, before any of its body is
//! read — on every driver.

use rcuda_core::{CudaError, CudaResult, SharedClock, SimTime};
use rcuda_gpu::snapshot::ContextSnapshot;
use rcuda_gpu::{GpuContext, GpuDevice};
use rcuda_obs::{DaemonEvent, ObsHandle, Op, ServerSpan};
use rcuda_proto::codec::{fold_caps, CAP_ALL, CAP_LZ4};
use rcuda_proto::handshake::write_hello_reply;
use rcuda_proto::mux::MuxHello;
use rcuda_proto::{
    BatchResponse, BufferPool, ClientHello, Codec, Frame, Request, Response, SessionHello,
    StreamDecoder,
};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::dispatch::{dispatch_batch_with, dispatch_pooled};
use crate::registry::{route, SessionRegistry};
use crate::worker::{ServerConfig, SessionReport};

/// How long a `Reconnect` waits for the dying connection to park the
/// session before the resume is rejected. Covers the window between the new
/// connection being accepted and the old one observing EOF.
const RESUME_WAIT: Duration = Duration::from_secs(1);
/// Smallest read chunk: enough for every fixed-size request in one gulp
/// while keeping idle connections cheap (10k parked connections hold 10k of
/// these, so the floor matters).
const READ_CHUNK_MIN: usize = 2 * 1024;
/// Largest read chunk; reached only by connections that move bulk payloads.
const READ_CHUNK_MAX: usize = 256 * 1024;

/// What a driver lends the machine for one call: the config serving the
/// connection, the hash-routed registry shards sessions park into (a single
/// registry is a one-element slice), and the payload pool requests decode
/// into and D2H replies stage from.
pub(crate) struct Env<'a> {
    pub(crate) config: &'a ServerConfig,
    pub(crate) registry: &'a [SessionRegistry],
    pub(crate) pool: &'a BufferPool,
}

#[derive(Clone, Copy)]
enum Phase {
    /// Waiting for the client's opening message.
    Hello,
    /// A `Reconnect` arrived before the dying connection parked the
    /// session: the registry is re-polled on every step until the context
    /// shows up or the deadline passes.
    Resume { session: u64, deadline: Instant },
    /// The request/dispatch/respond loop.
    Running,
    /// Nothing more will be decoded: drain `out`, then `finish`.
    Closing,
}

/// What [`SessionMachine::step`] did, and so what the driver does next.
pub(crate) enum Step {
    /// No complete message is buffered: read more (or report `eof`).
    Idle,
    /// A handshake message was consumed; its reply, if any, is in `out`.
    Handshake,
    /// One frame was dispatched; its reply is in `out`.
    Frame,
    /// The resume is waiting on `session` being parked. A readiness driver
    /// steps again later; a blocking one waits on the registry until
    /// `deadline` and hands a hit to [`SessionMachine::resumed`].
    AwaitResume { session: u64, deadline: Instant },
    /// The client asked for the multiplexed framing layer: the transport
    /// belongs to a trunk host now, together with every byte read past the
    /// hello and every byte not yet written. The machine is spent.
    Mux {
        hello: MuxHello,
        leftover: Vec<u8>,
        pending_out: Vec<u8>,
    },
    /// The session is over: drain `out`, then `finish`.
    Closing,
}

/// Reply bytes not yet on the wire, and the totals behind the handshake
/// watermark.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    pos: usize,
    queued: u64,
    flushed: u64,
    /// Once this many bytes have been flushed the handshake has observably
    /// completed and the session produces a report. A connection that dies
    /// earlier is a handshake error: it produces none.
    handshake_done_at: Option<u64>,
}

impl Outbox {
    /// Append one serialized message. Writing to a `Vec` cannot fail, so a
    /// serializer error here is a programming error.
    fn push(&mut self, f: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) {
        let before = self.buf.len();
        f(&mut self.buf).expect("serializing into a Vec cannot fail");
        self.queued += (self.buf.len() - before) as u64;
    }

    /// The bytes queued so far complete the handshake.
    fn mark_handshake(&mut self) {
        self.handshake_done_at = Some(self.queued);
    }

    fn eligible(&self) -> bool {
        self.handshake_done_at.is_some_and(|w| self.flushed >= w)
    }

    /// Abandon undeliverable output.
    fn discard(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }
}

/// One session's protocol state; see the module docs for the driver
/// contract.
pub(crate) struct SessionMachine {
    decoder: StreamDecoder,
    read_chunk: usize,
    eof: bool,
    out: Outbox,
    phase: Phase,
    /// Kept for snapshot restores (a `Migrate` hello rebuilds a shipped
    /// context on it).
    device: Arc<GpuDevice>,
    /// The clock the context charges simulated GPU time to; span timestamps
    /// come from the same one so client and server spans line up.
    clk: SharedClock,
    /// Warm context created at accept time — before the client says
    /// anything (§VI-B); consumed by the hello.
    fresh_ctx: Option<GpuContext>,
    ctx: Option<GpuContext>,
    token: Option<u64>,
    /// The connection arrived through an authenticated mux trunk: the auth
    /// gate on plain hellos does not apply to it.
    authenticated: bool,
    /// Wire codec, installed when the client's `CodecHello` accepts the
    /// capabilities advertised in the CC push; `None` = legacy framing.
    codec: Option<Codec>,
    report: SessionReport,
}

impl SessionMachine {
    /// Open a session on `device`: create the warm context and queue the
    /// compute-capability push.
    pub(crate) fn new(
        device: Arc<GpuDevice>,
        clock: SharedClock,
        env: &Env<'_>,
        authenticated: bool,
    ) -> SessionMachine {
        let config = env.config;
        let fresh_ctx = if config.phantom_memory {
            device.create_phantom_context(clock.clone(), config.preinitialize_context)
        } else {
            device.create_context(clock.clone(), config.preinitialize_context)
        };
        // A codec-advertising daemon folds its capability bits into the high
        // half of the minor word — legacy clients read the full word as the
        // minor digit but never inspect it beyond display, while codec-aware
        // clients mask it off (see `rcuda_proto::codec`).
        let mut cc = device.properties().compute_capability_wire();
        if config.codec {
            let minor = u32::from_le_bytes(cc[4..8].try_into().expect("8-byte wire"));
            cc[4..8].copy_from_slice(&fold_caps(minor, CAP_ALL).to_le_bytes());
        }
        let mut out = Outbox::default();
        out.push(|w| {
            w.extend_from_slice(&cc);
            Ok(())
        });
        SessionMachine {
            decoder: StreamDecoder::new(),
            read_chunk: READ_CHUNK_MIN,
            eof: false,
            out,
            phase: Phase::Hello,
            device,
            clk: clock,
            fresh_ctx: Some(fresh_ctx),
            ctx: None,
            token: None,
            authenticated,
            codec: None,
            report: SessionReport::default(),
        }
    }

    // ------------------------------------------------------------ bytes in

    /// Nothing more will be decoded; once `out` is drained, `finish`.
    pub(crate) fn closing(&self) -> bool {
        matches!(self.phase, Phase::Closing)
    }

    /// Whether received bytes can still change anything.
    pub(crate) fn wants_read(&self) -> bool {
        !self.eof && !self.closing()
    }

    /// Writable space for the next read; pair with [`Self::commit`].
    pub(crate) fn space(&mut self) -> &mut [u8] {
        self.decoder.space(self.read_chunk)
    }

    /// `n` bytes of the last [`Self::space`] slice were received. Returns
    /// whether the read filled the chunk and the chunk grew for it, i.e.
    /// the transport probably has more right now.
    pub(crate) fn commit(&mut self, n: usize) -> bool {
        self.decoder.commit(n);
        let grow = n == self.read_chunk && n < READ_CHUNK_MAX;
        if grow {
            self.read_chunk = (n * 2).min(READ_CHUNK_MAX);
        }
        grow
    }

    /// The peer is gone (EOF or a read error — a client disconnect, not a
    /// server fault). Frames already buffered are still served.
    pub(crate) fn eof(&mut self) {
        self.eof = true;
    }

    // ----------------------------------------------------------- bytes out

    /// Reply bytes to put on the wire, oldest first.
    pub(crate) fn out(&self) -> &[u8] {
        &self.out.buf[self.out.pos..]
    }

    /// The transport accepted the first `n` bytes of [`Self::out`].
    pub(crate) fn consumed(&mut self, n: usize) {
        self.out.pos += n;
        self.out.flushed += n as u64;
        if self.out.pos == self.out.buf.len() {
            self.out.discard();
        }
    }

    /// The transport failed — a write error, or it cannot be driven at all:
    /// the peer is unreachable. Before the handshake watermark flushed that
    /// is a handshake error (no report); after it, an unorderly end (report,
    /// park-eligible).
    pub(crate) fn transport_failed(&mut self) {
        if !self.out.eligible() {
            self.out.handshake_done_at = None;
        }
        self.force_close();
    }

    /// End now, abandoning undeliverable output (drain deadline, daemon
    /// halt, or a peer that left or spoke garbage mid-handshake).
    pub(crate) fn force_close(&mut self) {
        self.out.discard();
        self.phase = Phase::Closing;
    }

    // ------------------------------------------------------------ the step

    /// The token of the resumable session being served, if any.
    pub(crate) fn token(&self) -> Option<u64> {
        self.token
    }

    /// Advance by at most one buffered message.
    pub(crate) fn step(&mut self, env: &Env<'_>, now: impl Fn() -> Instant) -> Step {
        match self.phase {
            Phase::Hello => match self.decoder.poll_client_hello() {
                Ok(Some(ClientHello::Mux(hello))) => {
                    let pending_out = self.out().to_vec();
                    self.force_close();
                    Step::Mux {
                        hello,
                        leftover: self.decoder.take_buffered(),
                        pending_out,
                    }
                }
                Ok(Some(ClientHello::Codec(caps))) => {
                    // The one-way `CodecHello`: the client accepted the
                    // advertised codec. Switch this connection's framing and
                    // stay in the hello phase — the session hello follows.
                    if caps & CAP_LZ4 != 0 {
                        self.codec = Some(Codec::new(env.pool.clone()));
                    }
                    Step::Handshake
                }
                Ok(Some(ClientHello::Session(hello))) => {
                    if env.config.auth_token.is_some() && !self.authenticated {
                        // An auth-gated server only serves sessions that
                        // arrived through an authenticated mux trunk. A
                        // plain hello cannot carry the token, so it is
                        // rejected before any context work — with the 4-byte
                        // error code every hello form knows how to read.
                        self.reject(CudaError::AuthFailed);
                    } else {
                        self.on_hello(hello, env, now);
                    }
                    Step::Handshake
                }
                Ok(None) if !self.eof => Step::Idle,
                // Before the hello completes there is no session to report.
                Ok(None) | Err(_) => {
                    self.force_close();
                    Step::Closing
                }
            },
            Phase::Resume { session, deadline } => {
                if self.eof {
                    self.force_close();
                    return Step::Closing;
                }
                match route(env.registry, session).take(session) {
                    Some(ctx) => {
                        self.resumed(session, ctx, env);
                        Step::Handshake
                    }
                    None if now() >= deadline => {
                        // Nothing parked under that token: reject and end
                        // the connection cleanly (with a report).
                        self.reject(CudaError::InitializationError);
                        Step::Handshake
                    }
                    None => Step::AwaitResume { session, deadline },
                }
            }
            // Both framings are accepted: the paper's one-call-per-message
            // protocol and the batched extension.
            Phase::Running => match self
                .decoder
                .poll_frame_codec(Some(env.pool), self.codec.as_ref())
            {
                Ok(Some(frame)) => {
                    self.on_frame(&frame, env);
                    Step::Frame
                }
                Ok(None) if !self.eof => Step::Idle,
                // Disconnect, or garbage on the wire: either ends the
                // session (unorderly, park-eligible), not the daemon.
                Ok(None) | Err(_) => {
                    self.phase = Phase::Closing;
                    Step::Closing
                }
            },
            Phase::Closing => Step::Closing,
        }
    }

    /// Answer the hello with an error code and end the connection through
    /// the normal report-producing path.
    fn reject(&mut self, err: CudaError) {
        self.out.push(|w| write_hello_reply(w, &Err(err)));
        self.out.mark_handshake();
        self.phase = Phase::Closing;
    }

    fn on_hello(&mut self, hello: SessionHello, env: &Env<'_>, now: impl Fn() -> Instant) {
        match hello {
            SessionHello::Fresh { module } => self.init_fresh(module, None, env),
            SessionHello::Resumable { session, module } => {
                self.init_fresh(module, Some(session), env)
            }
            SessionHello::Reconnect { session } => {
                // The pre-created context is discarded: the parked one
                // carries the session's state.
                drop(self.fresh_ctx.take());
                match route(env.registry, session).take(session) {
                    Some(ctx) => self.resumed(session, ctx, env),
                    None => {
                        self.phase = Phase::Resume {
                            session,
                            deadline: now() + RESUME_WAIT,
                        }
                    }
                }
            }
            SessionHello::Migrate { session, snapshot } => {
                // A peer daemon ships a quiesced session: rebuild its
                // context from the snapshot and park it — the client's
                // reconnect resumes it exactly like a locally parked one.
                // Errors go back as the hello reply (the shipper keeps its
                // copy on failure) and the connection ends either way.
                drop(self.fresh_ctx.take());
                let reply = self.install_snapshot(session, &snapshot, env);
                self.out.push(|w| write_hello_reply(w, &reply));
                self.out.mark_handshake();
                self.phase = Phase::Closing;
            }
        }
    }

    fn install_snapshot(&mut self, session: u64, snapshot: &[u8], env: &Env<'_>) -> CudaResult<()> {
        let snap = ContextSnapshot::decode(snapshot).map_err(|_| CudaError::InvalidValue)?;
        let mut ctx = self.device.restore_context(self.clk.clone(), &snap)?;
        ctx.set_mem_quota(env.config.session_mem_quota);
        self.park(session, ctx, env);
        Ok(())
    }

    fn init_fresh(&mut self, module: Vec<u8>, token: Option<u64>, env: &Env<'_>) {
        let mut ctx = self
            .fresh_ctx
            .take()
            .expect("hello arrives once per connection");
        let init = Request::Init { module };
        let obs = &env.config.observer;
        let resp = dispatch_observed(&mut ctx, &init, None, &self.clk, obs, None)
            .expect("init never quits");
        self.out.push(|w| resp.write(w));
        self.start(ctx, token, env);
    }

    /// A parked context for the awaited `session` turned up: acknowledge
    /// and resume serving it.
    pub(crate) fn resumed(&mut self, session: u64, ctx: GpuContext, env: &Env<'_>) {
        self.out.push(|w| write_hello_reply(w, &Ok(())));
        self.report.resumed = true;
        self.start(ctx, Some(session), env);
    }

    fn start(&mut self, mut ctx: GpuContext, token: Option<u64>, env: &Env<'_>) {
        self.out.mark_handshake();
        // Multi-tenant limits apply to resumed sessions too: the quota
        // follows the config serving the connection, not the context's
        // history.
        ctx.set_mem_quota(env.config.session_mem_quota);
        self.ctx = Some(ctx);
        self.token = token;
        self.phase = Phase::Running;
    }

    /// Dispatch one frame inside a panic guard: a panicking request (a
    /// dispatch bug, or the chaos hook) kills this one session — answered
    /// with a correctly-shaped `cudaErrorLaunchFailure` so the client never
    /// desyncs — and the daemon lives on.
    fn on_frame(&mut self, frame: &Frame, env: &Env<'_>) {
        let (obs, chaos) = (&env.config.observer, &env.config.chaos);
        let (pool, clk, codec) = (Some(env.pool), &self.clk, self.codec.as_ref());
        let ctx = self.ctx.as_mut().expect("Running implies a context");
        enum End {
            Quit,
            Panic,
        }
        let ended = match frame {
            Frame::Single(req) => {
                self.report.requests += 1;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    chaos.fire(req);
                    dispatch_observed(ctx, req, pool, clk, obs, None)
                }));
                match outcome {
                    Ok(Some(resp)) => {
                        self.out.push(|w| resp.write_codec(w, codec));
                        None
                    }
                    Ok(None) => {
                        // Finalization stage: acknowledge the Quit, then
                        // release everything ("the daemon server quits
                        // servicing the current execution and releases the
                        // associated resources", §III).
                        self.out.push(|w| Response::Ack(Ok(())).write(w));
                        Some(End::Quit)
                    }
                    Err(_) => {
                        self.out.push(|w| panic_response(req).write(w));
                        Some(End::Panic)
                    }
                }
            }
            Frame::Batch(batch) => {
                self.report.requests += batch.len() as u64;
                // An element's queue wait is the time it spent behind
                // earlier elements of the same frame.
                let frame_at = obs.is_enabled().then(|| clk.now());
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    dispatch_batch_with(ctx, batch, |ctx, req| {
                        chaos.fire(req);
                        dispatch_observed(ctx, req, pool, clk, obs, frame_at)
                    })
                }));
                match outcome {
                    Ok((resp, quit)) => {
                        self.out.push(|w| resp.write_codec(w, codec));
                        quit.then_some(End::Quit)
                    }
                    Err(_) => {
                        // Answer every element so the frame stays shaped.
                        let responses = batch.requests().iter().map(panic_response).collect();
                        self.out.push(|w| BatchResponse { responses }.write(w));
                        Some(End::Panic)
                    }
                }
            }
        };
        match ended {
            Some(End::Quit) => self.report.orderly_shutdown = true,
            Some(End::Panic) => {
                obs.emit_daemon(DaemonEvent::SessionPanicked);
                self.report.panicked = true;
            }
            None => return,
        }
        self.phase = Phase::Closing;
    }

    // ------------------------------------------------------- live migration

    /// The session's token when it sits exactly at a frame boundary: every
    /// reply flushed, no partial request buffered, peer still present.
    pub(crate) fn quiescent_token(&self) -> Option<u64> {
        let at_boundary = matches!(self.phase, Phase::Running)
            && !self.eof
            && self.out().is_empty()
            && self.decoder.buffered() == 0;
        self.token.filter(|_| at_boundary)
    }

    /// Hand the context to `ship` (a live-migration order), which returns
    /// it when the hand-off is refused. On success the session lives
    /// elsewhere now: the token is cleared so the connection closes without
    /// parking. A refused hand-off keeps serving as if nothing happened.
    pub(crate) fn detach(&mut self, ship: impl FnOnce(GpuContext) -> Option<GpuContext>) -> bool {
        let ctx = self.ctx.take().expect("Running implies a context");
        self.ctx = ship(ctx);
        if self.ctx.is_none() {
            self.token = None;
        }
        self.ctx.is_none()
    }

    // -------------------------------------------------------------- the end

    /// Park `ctx` under `session`; a session evicted to make room is
    /// reclaimed through the same path as a session exit.
    fn park(&mut self, session: u64, ctx: GpuContext, env: &Env<'_>) {
        if let Some((evicted, evicted_ctx)) = route(env.registry, session).park(session, ctx) {
            let obs = &env.config.observer;
            obs.emit_daemon(DaemonEvent::SessionEvicted { session: evicted });
            self.report.reclaimed_bytes += release_context(evicted_ctx, obs);
        }
    }

    /// End of the connection. An unorderly end of a resumable session parks
    /// its context for the client's reconnect; every other end releases it.
    /// `None` when the handshake never observably completed: contexts drop
    /// silently (a warm, allocation-free context releases nothing).
    pub(crate) fn finish(&mut self, env: &Env<'_>) -> Option<SessionReport> {
        drop(self.fresh_ctx.take());
        let ctx = self.ctx.take();
        if !self.out.eligible() {
            return None;
        }
        if let Some(ctx) = ctx {
            match self.token {
                Some(session) if !self.report.orderly_shutdown && !self.report.panicked => {
                    self.park(session, ctx, env);
                    self.report.parked = true;
                }
                _ => {
                    self.report.leaked_allocations = ctx.live_allocations();
                    self.report.reclaimed_bytes += release_context(ctx, &env.config.observer);
                }
            }
        }
        self.report.pool = env.pool.stats();
        Some(std::mem::take(&mut self.report))
    }
}

/// Release a session's context, returning the device bytes it gave back.
/// Dropping the context returns its allocations to the device ledger; the
/// observer hears about any nonzero reclamation. Session exit, registry
/// eviction, and daemon drain all release through here.
pub(crate) fn release_context(ctx: GpuContext, obs: &ObsHandle) -> u64 {
    let bytes = ctx.used_bytes();
    drop(ctx);
    if bytes > 0 {
        obs.emit_daemon(DaemonEvent::BytesReclaimed { bytes });
    }
    bytes
}

/// The correctly-shaped error answer for a request whose dispatch
/// panicked: every `Err` response serializes as the bare 4-byte code, so
/// answering in the request's reply shape keeps the client's decoder in
/// sync while it learns the session is dead.
fn panic_response(req: &Request) -> Response {
    Response::failure(req.reply_shape(), CudaError::LaunchFailure)
}

/// Dispatch one request, reporting its service time as a [`ServerSpan`]
/// (`frame_at` is when its batch arrived, for the in-frame queue wait).
/// With no observer installed this is exactly [`dispatch_pooled`]: no
/// timestamps are taken.
fn dispatch_observed(
    ctx: &mut GpuContext,
    req: &Request,
    pool: Option<&BufferPool>,
    clk: &SharedClock,
    obs: &ObsHandle,
    frame_at: Option<SimTime>,
) -> Option<Response> {
    if !obs.is_enabled() {
        return dispatch_pooled(ctx, req, pool);
    }
    let start = clk.now();
    let resp = dispatch_pooled(ctx, req, pool);
    obs.emit_server(&ServerSpan {
        op: Op::Named(req.op_name()),
        queue_wait: frame_at.map_or(SimTime::ZERO, |at| start.saturating_sub(at)),
        start,
        end: clk.now(),
    });
    resp
}

#[cfg(test)]
mod tests {
    //! The machine alone: no threads, no transports. A test feeds bytes,
    //! steps, and collects `out`, exactly as a driver would.

    use super::*;
    use proptest::prelude::*;
    use rcuda_core::time::wall_clock;
    use rcuda_core::ArgPack;
    use rcuda_gpu::module::build_module;
    use rcuda_proto::codec::CodecHello;
    use rcuda_proto::decode::MAX_FRAME_BYTES;
    use rcuda_proto::ids::{FunctionId, MemcpyKind};
    use rcuda_proto::request::wire_carries_payload;
    use rcuda_proto::{Batch, LaunchConfig};
    use std::cell::Cell;
    use std::collections::HashSet;

    /// What one connection's worth of client bytes produced.
    struct Run {
        sent: Vec<u8>,
        report: Option<SessionReport>,
        parked: usize,
    }

    /// Serve `wire` on a bare machine, fed in pieces of `cuts[i]` bytes (the
    /// rest in one piece), then EOF. `each_step` sees the machine after every
    /// step. A resume wait is ended by moving the injected clock to its
    /// deadline; a mux upgrade ends the run as a driver's hand-off would.
    fn drive(
        config: &ServerConfig,
        wire: &[u8],
        cuts: &[usize],
        mut each_step: impl FnMut(&SessionMachine),
    ) -> Run {
        let registry = SessionRegistry::new();
        let pool = BufferPool::new();
        let env = Env {
            config,
            registry: std::slice::from_ref(&registry),
            pool: &pool,
        };
        let device = GpuDevice::tesla_c1060_functional();
        let mut m = SessionMachine::new(device, wall_clock(), &env, false);
        let now = Cell::new(Instant::now());
        let (mut sent, mut rest, mut cuts) = (Vec::new(), wire, cuts.iter());
        loop {
            let n = m.out().len();
            sent.extend_from_slice(m.out());
            m.consumed(n);
            let step = m.step(&env, || now.get());
            each_step(&m);
            match step {
                Step::Handshake | Step::Frame => {}
                Step::AwaitResume { deadline, .. } => now.set(deadline),
                Step::Idle if rest.is_empty() => m.eof(),
                Step::Idle => {
                    let want = cuts.next().copied().unwrap_or(rest.len());
                    let space = m.space();
                    let n = want.clamp(1, rest.len().min(space.len()));
                    space[..n].copy_from_slice(&rest[..n]);
                    m.commit(n);
                    rest = &rest[n..];
                }
                Step::Mux { .. } | Step::Closing => break,
            }
        }
        assert!(m.closing() && m.out().is_empty());
        Run {
            sent,
            report: m.finish(&env),
            parked: registry.parked_count(),
        }
    }

    /// One scripted session as the client's byte stream: optional
    /// `CodecHello`, `Resumable` hello, malloc, 4 KiB + 128 KiB H2D, launch,
    /// D2H, a batch with an inner D2H, Quit. The device pointer is learned
    /// from a first run of the script's head (the allocator is
    /// deterministic), so the whole stream exists before the run under test.
    fn script(codec: bool) -> Vec<u8> {
        let client_codec = codec.then(|| Codec::new(BufferPool::new()));
        let client_codec = client_codec.as_ref();
        let mut wire = Vec::new();
        if codec {
            CodecHello { caps: CAP_LZ4 }.write(&mut wire).unwrap();
        }
        SessionHello::Resumable {
            session: 0x5E55_0001,
            module: build_module(&["fill"], 0),
        }
        .write(&mut wire)
        .unwrap();
        let malloc = Request::Malloc { size: 128 * 1024 };
        malloc.write(&mut wire).unwrap();

        let head = drive(&ServerConfig::default(), &wire, &[], |_| {});
        // CC push (8) + init ack (4), then the malloc reply.
        let ptr = Response::read(&mut &head.sent[12..], &malloc)
            .unwrap()
            .into_malloc()
            .unwrap();

        let h2d = |size: usize, fill: u8| Request::Memcpy {
            dst: ptr.addr(),
            src: 0,
            size: size as u32,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![fill; size].into()),
        };
        let d2h = |size: u32| Request::Memcpy {
            dst: 0,
            src: ptr.addr(),
            size,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        let args = ArgPack::new()
            .push_ptr(ptr)
            .push_u32(1024)
            .push_f32(2.5)
            .into_bytes();
        for req in [
            h2d(4 * 1024, 0x5a),
            h2d(128 * 1024, 0xa5),
            Request::launch("fill", &args, LaunchConfig::simple(1, 64)),
            d2h(128 * 1024),
        ] {
            req.write_codec(&mut wire, client_codec).unwrap();
        }
        Batch::new(vec![Request::ThreadSynchronize, d2h(4 * 1024)])
            .unwrap()
            .write_codec(&mut wire, client_codec)
            .unwrap();
        Request::Quit.write(&mut wire).unwrap();
        wire
    }

    #[test]
    fn scripted_session_is_orderly_and_leak_free() {
        for codec in [false, true] {
            let run = drive(&ServerConfig::default(), &script(codec), &[], |_| {});
            let report = run.report.expect("handshake completed");
            assert!(report.orderly_shutdown && !report.parked, "{report:?}");
            assert_eq!(report.requests, 8); // malloc, 2 H2D, launch, D2H, 2 batched, quit
            assert_eq!(report.leaked_allocations, 1, "the script never frees");
            assert_eq!(run.parked, 0);
        }
    }

    /// A panicked call's error reply reads back, in every reply shape, as
    /// exactly the bytes written and the same variant.
    #[test]
    fn panic_replies_read_back_in_every_reply_shape() {
        let mut fixtures = vec![
            Request::Init { module: vec![1] },
            Request::Malloc { size: 64 },
            Request::Free {
                ptr: rcuda_core::DevicePtr::new(0x40),
            },
            Request::launch("k", &[1, 2], LaunchConfig::simple(1, 1)),
            Request::ThreadSynchronize,
            Request::DeviceProps,
            Request::StreamCreate,
            Request::StreamSynchronize { stream: 1 },
            Request::StreamDestroy { stream: 1 },
            Request::Memset {
                dst: 0x40,
                value: 7,
                size: 8,
            },
            Request::EventCreate,
            Request::EventRecord {
                event: 1,
                stream: 0,
            },
            Request::EventSynchronize { event: 1 },
            Request::EventElapsed { start: 1, end: 2 },
            Request::EventDestroy { event: 1 },
            Request::Quit,
        ];
        for kind in (0..4).map(|k| MemcpyKind::from_u32(k).unwrap()) {
            let data = wire_carries_payload(kind).then(|| vec![0u8; 8].into());
            fixtures.push(Request::Memcpy {
                dst: 0x40,
                src: 0x80,
                size: 8,
                kind,
                data: data.clone(),
            });
            fixtures.push(Request::MemcpyAsync {
                dst: 0x40,
                src: 0x80,
                size: 8,
                kind,
                stream: 1,
                data,
            });
        }
        let rows: HashSet<_> = fixtures.iter().filter_map(Request::function_id).collect();
        for id in FunctionId::ALL.iter().filter(|id| id.body().is_some()) {
            assert!(rows.contains(id), "no fixture for call row {id:?}");
        }
        let shapes: HashSet<_> = fixtures.iter().map(Request::reply_shape).collect();
        assert_eq!(shapes.len(), 7, "every reply shape is exercised");

        for req in &fixtures {
            let resp = panic_response(req);
            let mut wire = Vec::new();
            resp.write(&mut wire).unwrap();
            let mut cursor = io::Cursor::new(&wire);
            let back = Response::read(&mut cursor, req).unwrap();
            assert_eq!(cursor.position() as usize, wire.len(), "{req:?}");
            assert_eq!(back, resp, "{req:?}");
        }
    }

    /// A resumable session that loses its peer mid-frame parks.
    #[test]
    fn truncated_resumable_session_parks() {
        let wire = script(false);
        let run = drive(
            &ServerConfig::default(),
            &wire[..wire.len() - 6],
            &[],
            |_| {},
        );
        let report = run.report.expect("handshake completed");
        assert!(report.parked && !report.orderly_shutdown, "{report:?}");
        assert_eq!((report.leaked_allocations, run.parked), (0, 1));
    }

    /// Selector words, plausible and over-cap lengths, memcpy kinds: what a
    /// word of hostile input is likely to be mistaken for.
    fn interesting_word() -> impl Strategy<Value = u32> {
        let selectors = (FunctionId::Codec.as_u32()..=FunctionId::Reconnect.as_u32())
            .chain([0, 1, 2, 3, 4, 5, 8, 16, 20, 21, 24, 32, 64, 255, 4096])
            .chain([MAX_FRAME_BYTES as u32, MAX_FRAME_BYTES as u32 + 1])
            .collect();
        prop_oneof![proptest::sample::select(selectors), any::<u32>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// However the transport chunks the stream — byte-at-a-time
        /// included — the reply bytes and the report are the same.
        #[test]
        fn chunking_never_changes_replies_or_report(
            codec in any::<bool>(),
            cuts in proptest::collection::vec(1usize..5000, 0..96),
            byte_at_a_time in 0usize..2048,
        ) {
            let wire = script(codec);
            let whole = drive(&ServerConfig::default(), &wire, &[], |_| {});
            let mut pieces = vec![1; byte_at_a_time];
            pieces.extend(cuts);
            let split = drive(&ServerConfig::default(), &wire, &pieces, |_| {});
            prop_assert!(whole.sent == split.sent, "reply streams differ");
            prop_assert_eq!(whole.report, split.report);
        }

        /// Arbitrary bytes from byte 0 never panic the machine, never make
        /// it buffer or answer more than a frame's worth, and always end in
        /// `Closing` once the peer is gone.
        #[test]
        fn arbitrary_bytes_from_byte_zero_end_in_closing(
            words in proptest::collection::vec(interesting_word(), 0..48),
            tail in proptest::collection::vec(any::<u8>(), 0..64),
            cuts in proptest::collection::vec(1usize..64, 0..32),
        ) {
            let mut wire: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            wire.extend(tail);
            // The quota keeps a hostile malloc from backing gigabytes.
            let config = ServerConfig {
                session_mem_quota: Some(1 << 20),
                ..Default::default()
            };
            let mut steps = 0usize;
            let run = drive(&config, &wire, &cuts, |m| {
                steps += 1;
                assert!(m.decoder.buffered() <= wire.len());
                assert!(m.out().len() <= MAX_FRAME_BYTES);
            });
            // Every step consumes a message, takes bytes in, or ends.
            prop_assert!(steps <= 2 * wire.len() + 8, "{steps} steps for {} bytes", wire.len());
            if let Some(report) = run.report {
                prop_assert!(!report.panicked);
            }
        }
    }
}
