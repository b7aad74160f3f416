//! [`RemoteRuntime`]: the CUDA Runtime implemented by remote forwarding.
//!
//! Every method marshals one request per `rcuda-proto`. In the default
//! (paper-faithful) mode each request flushes as one message and blocks on
//! the response — the synchronous semantics the paper's model covers, where
//! every CUDA call costs a network round trip.
//!
//! ## Deferred-completion pipelining
//!
//! That round trip per call is exactly what sinks short-kernel workloads on
//! high-latency networks (the paper's FFT-on-GigaE result, §IV-B). With
//! [`RemoteRuntime::set_pipeline_depth`] the client instead *defers* calls
//! that return no data — `memcpy_h2d`, `memset`, `launch`, `free`,
//! `thread_synchronize` — into an in-flight window, which drains as **one**
//! batched write (and one combined read) when:
//!
//! * the window reaches the configured depth,
//! * a result-bearing call (`malloc`, `memcpy_d2h`, ...) arrives — it rides
//!   as the final element of the batch, so even the forced flush costs a
//!   single round trip, or
//! * the application calls [`RemoteRuntime::flush_pipeline`] explicitly.
//!
//! A deferred `thread_synchronize` still executes in order on the server's
//! context (device-side ordering is preserved); only the host-blocking
//! completion moves to the drain point. Use [`RemoteRuntime::flush_pipeline`]
//! when strict host-blocking semantics are required.
//!
//! Deferred calls return `Ok(())` immediately; a failure surfaces at the
//! drain point (first failed element wins), mirroring CUDA's own
//! asynchronous error reporting. Results are bit-identical to the unbatched
//! path — the server executes batch elements in submission order on the same
//! context.
//!
//! Transport faults are reported with their cause preserved
//! ([`crate::error::transport_error`]): timeout, connection loss and
//! protocol violation each get a distinct code instead of the
//! `cudaErrorUnknown` catch-all real rCUDA uses.

use rcuda_api::{CudaRuntime, CudaRuntimeAsyncExt};
use rcuda_core::{CudaError, CudaResult, DeviceProperties, DevicePtr, Dim3, SharedClock};
use rcuda_obs::{CallSpan, ObsHandle, Op, PoolStats, SessionMetrics};
use rcuda_proto::codec::{split_minor_word, CodecHello, CodecStats, CAP_LZ4};
use rcuda_proto::handshake::{read_hello_reply, ServerHello};
use rcuda_proto::ids::{FunctionId, MemcpyKind};
use rcuda_proto::wire::{get_u32, write_all_vectored};
use rcuda_proto::{
    Batch, BatchResponse, BufferPool, Codec, CodecMode, LaunchConfig, Payload, Request, Response,
    SessionHello,
};
use rcuda_transport::Transport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::error::transport_error;
use crate::failover::{Expect, FailoverJournal};
use crate::retry::{batch_is_idempotent, is_idempotent, RetryPolicy};
use crate::trace::{CallEvent, Trace};

/// Process-wide session-token sequence (uniqueness within the process is
/// all the registry needs; the pid guards against cross-process clashes on
/// a shared daemon).
static SESSION_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh session token — public so a connection layer that
/// needs the token *before* `initialize` (e.g. to ask a broker where the
/// session should run) can mint one and announce it with
/// [`RemoteRuntime::set_session_token`].
pub fn fresh_session_token() -> u64 {
    ((std::process::id() as u64) << 32) ^ SESSION_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// The client side of an rCUDA session.
pub struct RemoteRuntime<T: Transport> {
    transport: T,
    clock: SharedClock,
    trace: Trace,
    /// Compute capability announced by the server at connect time.
    server_cc: Option<(u32, u32)>,
    initialized: bool,
    /// Deferred-completion window size; 0 = synchronous per-call round trips
    /// (the paper's protocol).
    pipeline_depth: usize,
    /// Calls deferred but not yet on the wire, in submission order.
    window: Vec<Request>,
    /// Per-call wall-clock budget; `None` = block indefinitely (the
    /// paper-faithful default).
    deadline: Option<Duration>,
    /// Fault retry policy; default fail-fast.
    retry: RetryPolicy,
    /// Token announced via the resumable handshake — `Some` iff retries
    /// were enabled before `initialize`.
    session_token: Option<u64>,
    /// Observer for per-call spans and retry/reconnect episodes; disarmed
    /// by default (every emission is then a `None` check, no allocation).
    obs: ObsHandle,
    /// Completed calls (batch frames count once, initialization included).
    calls: u64,
    /// Deferred calls that crossed inside batch frames.
    batched_calls: u64,
    /// Transport-fault replays across all calls.
    retries_total: u64,
    /// Retry hint from the server's last `Busy` rejection, consumed by the
    /// next backoff (which honors it as a jittered floor).
    busy_retry_hint: Option<Duration>,
    /// Replay journal for daemon-failure failover; `None` (the default)
    /// keeps recovery resume-only.
    journal: Option<FailoverJournal>,
    /// Xorshift state for the `Busy`-hint jitter. Re-seeded from the
    /// session token, so backoff schedules are deterministic per session
    /// yet decorrelated across a fleet of shed clients.
    jitter_rng: u64,
    /// Payload-buffer pool: deferred H2D bodies and launch name regions are
    /// staged in recycled buffers, so the pipelined steady state allocates
    /// nothing per call.
    pool: BufferPool,
    /// Wire codec, present iff the application opted in via
    /// [`RemoteRuntime::set_codec`]. Created once and kept across
    /// reconnects so its learned throughput model survives failover.
    codec: Option<Codec>,
    /// Whether the *current* connection negotiated the codec framing: the
    /// knob was on and the server advertised [`CAP_LZ4`] in its hello.
    /// Re-derived on every (re)connect; legacy peers leave it false.
    codec_active: bool,
}

impl<T: Transport> RemoteRuntime<T> {
    /// Wrap a connected transport. The clock timestamps the trace (wall for
    /// real runs, virtual for simulated ones).
    pub fn new(transport: T, clock: SharedClock) -> Self {
        RemoteRuntime {
            transport,
            clock,
            trace: Trace::new(),
            server_cc: None,
            initialized: false,
            pipeline_depth: 0,
            window: Vec::new(),
            deadline: None,
            retry: RetryPolicy::default(),
            session_token: None,
            obs: ObsHandle::none(),
            calls: 0,
            batched_calls: 0,
            retries_total: 0,
            busy_retry_hint: None,
            journal: None,
            jitter_rng: 0x9E37_79B9_7F4A_7C15,
            pool: BufferPool::new(),
            codec: None,
            codec_active: false,
        }
    }

    /// The compute capability the server announced (after `initialize`).
    pub fn server_compute_capability(&self) -> Option<(u32, u32)> {
        self.server_cc
    }

    /// The recorded session trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take ownership of the trace (e.g. to persist it).
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The underlying transport — e.g. to inspect a
    /// `rcuda_transport::FaultInjector`'s fired-fault record in tests.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Install an observer: the runtime reports one [`CallSpan`] per call
    /// (and per batch frame) plus retry episodes, and the transport reports
    /// per-message byte events and reconnects. A disarmed handle uninstalls
    /// everything.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = obs.clone();
        self.transport.set_observer(obs);
    }

    /// A point-in-time snapshot of the session's cumulative counters:
    /// transport bytes/messages plus the runtime's call accounting. The
    /// `messages_sent` counter is the number of network flushes — the
    /// quantity pipelining exists to reduce.
    pub fn metrics(&self) -> SessionMetrics {
        let stats = self.transport.stats();
        SessionMetrics {
            bytes_sent: stats.bytes_sent,
            bytes_received: stats.bytes_received,
            messages_sent: stats.messages_sent,
            messages_received: stats.messages_received,
            reconnects: stats.reconnects,
            calls: self.calls,
            batched_calls: self.batched_calls,
            retries: self.retries_total,
        }
    }

    /// A snapshot of the session's payload-buffer pool counters: how often
    /// request stagings were served from recycled buffers.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Enable (depth ≥ 1) or disable (0) deferred-completion pipelining.
    /// Any deferred calls are drained first so a depth change never
    /// reorders work.
    pub fn set_pipeline_depth(&mut self, depth: usize) -> CudaResult<()> {
        self.flush_pipeline()?;
        self.pipeline_depth = depth;
        Ok(())
    }

    /// The configured in-flight window size (0 = pipelining off).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// Bound every call's wall-clock time (attempts + backoffs + replays).
    /// A call that cannot complete within the budget fails with
    /// [`CudaError::TransportTimedOut`]. `None` (the default) blocks
    /// indefinitely, as the paper's synchronous protocol does.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The per-call deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Configure fault retries. Must be set before [`CudaRuntime::initialize`]
    /// to take effect: enabling retries switches initialization to the
    /// resumable handshake that makes server-side session resume possible.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The configured retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The session token announced to the server (`Some` iff the resumable
    /// handshake was used).
    pub fn session_token(&self) -> Option<u64> {
        self.session_token
    }

    /// Announce a pre-allocated session token (see [`fresh_session_token`]).
    /// Must be called before [`CudaRuntime::initialize`]; with retries
    /// enabled and no explicit token, `initialize` mints its own.
    pub fn set_session_token(&mut self, token: u64) {
        self.session_token = Some(token);
    }

    /// Arm (`Some(cap_bytes)`) or disarm (`None`) the failover replay
    /// journal. With a journal armed, a rejected session resume — the
    /// signature of the daemon holding the session having died — triggers
    /// a verified replay of the session's state-mutating prefix on
    /// whichever daemon the reconnect reached, instead of failing. The
    /// journal disarms itself permanently once its weight exceeds
    /// `cap_bytes` (H2D payloads dominate). Set before `initialize`.
    pub fn set_failover(&mut self, cap_bytes: Option<u64>) {
        self.journal = cap_bytes.map(FailoverJournal::new);
    }

    /// Whether the failover journal is armed and able to replay.
    pub fn failover_armed(&self) -> bool {
        self.journal.as_ref().is_some_and(|j| j.armed())
    }

    /// Opt into (or out of) the adaptive wire codec. Off by default — the
    /// default wire stays byte-identical to the paper's protocol (Table I).
    /// With the knob on, `initialize` reads the server's capability bits
    /// out of the compute-capability push and, when the server advertises
    /// LZ4, switches both directions of the session to the codec framing;
    /// a legacy server leaves the session raw. Set before
    /// [`CudaRuntime::initialize`]. The codec's learned throughput model
    /// persists across reconnects and failovers.
    pub fn set_codec(&mut self, enabled: bool) {
        if enabled {
            if self.codec.is_none() {
                self.codec = Some(Codec::new(self.pool.clone()));
            }
        } else {
            self.codec = None;
            self.codec_active = false;
        }
    }

    /// Override the codec's compression policy (default
    /// [`CodecMode::Adaptive`]). A no-op until [`RemoteRuntime::set_codec`]
    /// enables the codec.
    pub fn set_codec_mode(&mut self, mode: CodecMode) {
        if let Some(codec) = &self.codec {
            codec.set_mode(mode);
        }
    }

    /// Whether the current connection negotiated the codec framing.
    pub fn codec_active(&self) -> bool {
        self.codec_active
    }

    /// A snapshot of the codec's decision and byte counters (`None` when
    /// the codec was never enabled).
    pub fn codec_stats(&self) -> Option<CodecStats> {
        self.codec.as_ref().map(|c| c.stats())
    }

    /// Split the server's folded hello minor word, activate the codec when
    /// both ends support it, and queue the one-way [`CodecHello`] (it rides
    /// the same flush as the session hello that must follow). Returns the
    /// true minor compute-capability digit, caps masked off — legacy
    /// servers fold nothing, so the word passes through unchanged.
    fn negotiate_codec(&mut self, minor_word: u32) -> CudaResult<u32> {
        let (minor, caps) = split_minor_word(minor_word);
        self.codec_active = false;
        if self.codec.is_some() && caps & CAP_LZ4 != 0 {
            CodecHello { caps: CAP_LZ4 }
                .write(&mut self.transport)
                .map_err(|e| transport_error(&e))?;
            self.codec_active = true;
        }
        Ok(minor)
    }

    /// Journaled calls and their weight in bytes (`(0, 0)` when disarmed).
    pub fn failover_journal_stats(&self) -> (usize, u64) {
        self.journal
            .as_ref()
            .map_or((0, 0), |j| (j.len(), j.bytes()))
    }

    /// Deferred calls currently waiting in the window.
    pub fn pending_calls(&self) -> usize {
        self.window.len()
    }

    /// Drain the in-flight window, if any: one batched write, one combined
    /// read. Returns the first deferred failure, if any element failed.
    pub fn flush_pipeline(&mut self) -> CudaResult<()> {
        if self.window.is_empty() {
            return Ok(());
        }
        let requests = std::mem::take(&mut self.window);
        let batch = Batch::new(requests).map_err(|_| CudaError::InvalidValue)?;
        let resp = self.send_batch(&batch)?;
        first_failure(&resp.responses)
    }

    /// Arm the transport's read deadline with the call's remaining budget.
    /// Fails with [`CudaError::TransportTimedOut`] once the budget is spent.
    fn arm_deadline(&mut self, started: Instant) -> CudaResult<()> {
        let timeout = match self.deadline {
            Some(budget) => Some(
                budget
                    .checked_sub(started.elapsed())
                    .filter(|r| !r.is_zero())
                    .ok_or(CudaError::TransportTimedOut)?,
            ),
            None => None,
        };
        self.transport
            .set_read_deadline(timeout)
            .map_err(|e| transport_error(&e))
    }

    /// Whether a fault of class `err` on attempt `attempt` may be retried
    /// for a request whose idempotency is `replayable`.
    fn may_retry(&self, attempt: u32, replayable: bool, err: CudaError) -> bool {
        replayable
            && attempt < self.retry.max_retries
            && self.session_token.is_some()
            && matches!(
                err,
                CudaError::TransportTimedOut | CudaError::TransportConnectionLost
            )
    }

    /// Reconnect the transport and resume the parked server session: read
    /// the fresh connection's compute-capability push, present the session
    /// token, take the resume verdict. A server rejection surfaces as
    /// [`CudaError::InitializationError`].
    fn reestablish(&mut self) -> CudaResult<()> {
        let token = self
            .session_token
            .ok_or(CudaError::TransportConnectionLost)?;
        self.transport
            .reconnect()
            .map_err(|e| transport_error(&e))?;
        let mut cc = [0u8; 8];
        self.transport
            .read_exact(&mut cc)
            .map_err(|e| transport_error(&e))?;
        match ServerHello::from_wire(cc) {
            ServerHello::Busy { retry_after_ms } => {
                // The daemon shed the reconnect at admission; the parked
                // session is still there for a later attempt.
                self.busy_retry_hint = Some(Duration::from_millis(retry_after_ms as u64));
                return Err(CudaError::ServerBusy);
            }
            // Codec terms do not carry over a reconnect: the session may
            // resume on a daemon with different capabilities.
            ServerHello::Ready { minor, .. } => {
                self.negotiate_codec(minor)?;
            }
        }
        SessionHello::Reconnect { session: token }
            .write(&mut self.transport)
            .and_then(|_| self.transport.flush())
            .map_err(|e| transport_error(&e))?;
        read_hello_reply(&mut self.transport).map_err(|e| transport_error(&e))?
    }

    /// The pause before retry `attempt`, honoring a pending `Busy` hint.
    /// The server's hint is a jittered floor, not an exact schedule: a
    /// deterministic xorshift stretch of up to half the hint again keeps a
    /// fleet of clients shed together from returning together and
    /// re-shedding itself, while the per-session seed keeps each client's
    /// schedule reproducible.
    fn backoff_with_busy_hint(&mut self, attempt: u32) -> Duration {
        let backoff = self.retry.backoff(attempt);
        match self.busy_retry_hint.take() {
            Some(hint) => {
                self.jitter_rng ^= self.jitter_rng << 13;
                self.jitter_rng ^= self.jitter_rng >> 7;
                self.jitter_rng ^= self.jitter_rng << 17;
                let span_us = (hint.as_micros() as u64 / 2).max(1);
                backoff.max(hint + Duration::from_micros(self.jitter_rng % span_us))
            }
            None => backoff,
        }
    }

    /// The error a fault surfaces when it cannot be retried. With a
    /// failover journal armed, a transport-class fault on a non-replayable
    /// call is a *lost session*, typed as such: neither resume (the
    /// in-flight call may have executed before the daemon died) nor
    /// journal replay (it may not have) can re-establish a context that is
    /// provably the one the application was using.
    fn surface(&self, replayable: bool, err: CudaError) -> CudaError {
        if !replayable
            && self.failover_armed()
            && matches!(
                err,
                CudaError::TransportTimedOut | CudaError::TransportConnectionLost
            )
        {
            return CudaError::SessionLost;
        }
        err
    }

    /// Back off, reconnect, resume. Returns the error the caller should
    /// surface if recovery fails: a rejected resume fails over to journal
    /// replay (ending in [`CudaError::SessionLost`] if that cannot
    /// restore a provably identical context); any other recovery failure
    /// preserves the original fault.
    fn recover(&mut self, attempt: u32, original: CudaError) -> CudaResult<()> {
        let backoff = self.backoff_with_busy_hint(attempt);
        std::thread::sleep(backoff);
        match self.reestablish() {
            Ok(()) => Ok(()),
            // The server does not know the session: the daemon that held
            // it is gone (or evicted it). Only a verified replay of the
            // journaled prefix can rebuild the exact context.
            Err(CudaError::InitializationError) => self.replay_failover(),
            Err(_) => Err(original),
        }
    }

    /// Rebuild the session on whichever daemon the next dial reaches: a
    /// fresh resumable hello under the *same* token re-creates the
    /// context, then the journaled state-mutating prefix replays with each
    /// response verified against the original daemon's answer. Any
    /// failure — no journal, overflowed journal, rejected hello, a
    /// transport fault mid-replay, or a diverging handle — is terminal for
    /// the session and surfaces as [`CudaError::SessionLost`].
    fn replay_failover(&mut self) -> CudaResult<()> {
        if !self.failover_armed() || self.session_token.is_none() {
            return Err(if self.journal.is_some() {
                CudaError::SessionLost
            } else {
                CudaError::InitializationError
            });
        }
        self.try_replay_failover()
            .map_err(|_| CudaError::SessionLost)
    }

    fn try_replay_failover(&mut self) -> CudaResult<()> {
        let token = self.session_token.expect("checked by caller");
        // The resume-rejecting server closes its connection after the
        // verdict, so the replay needs a fresh dial — which a candidate-
        // rotating transport may point at a different daemon.
        self.transport
            .reconnect()
            .map_err(|e| transport_error(&e))?;
        let mut cc = [0u8; 8];
        self.transport
            .read_exact(&mut cc)
            .map_err(|e| transport_error(&e))?;
        match ServerHello::from_wire(cc) {
            ServerHello::Busy { .. } => return Err(CudaError::ServerBusy),
            ServerHello::Ready { minor, .. } => {
                self.negotiate_codec(minor)?;
            }
        }
        let journal = self.journal.as_ref().expect("armed implies a journal");
        SessionHello::Resumable {
            session: token,
            module: journal.module().to_vec(),
        }
        .write(&mut self.transport)
        .and_then(|_| self.transport.flush())
        .map_err(|e| transport_error(&e))?;
        read_hello_reply(&mut self.transport).map_err(|e| transport_error(&e))??;
        // Disjoint field borrows: the journal and codec are read while the
        // transport is driven, so no `self` method calls inside the loop.
        let codec = if self.codec_active {
            self.codec.as_ref()
        } else {
            None
        };
        for (req, expect) in journal.ops() {
            req.write_codec(&mut self.transport, codec)
                .and_then(|_| self.transport.flush())
                .map_err(|e| transport_error(&e))?;
            let resp = Response::read_codec(&mut self.transport, req, None, codec)
                .map_err(|e| transport_error(&e))?;
            if !expect.matches(&resp) {
                return Err(CudaError::SessionLost);
            }
        }
        Ok(())
    }

    /// Feed a completed exchange to the journal, if one is armed.
    fn journal_observe(&mut self, req: &Request, resp: &Response) {
        if let Some(journal) = self.journal.as_mut() {
            journal.observe(req, resp);
        }
    }

    /// Journal a borrowed-payload H2D exchange that never built a
    /// [`Request`]: the equivalent owned request is reconstructed (one
    /// copy — the price of replayability, paid only with a journal armed).
    fn journal_borrowed_h2d(&mut self, dst: DevicePtr, data: &[u8], stream: Option<u32>) {
        if !self.failover_armed() {
            return;
        }
        let req = match stream {
            None => Request::Memcpy {
                dst: dst.addr(),
                src: 0,
                size: data.len() as u32,
                kind: MemcpyKind::HostToDevice,
                data: Some(Payload::Owned(data.to_vec())),
            },
            Some(stream) => Request::MemcpyAsync {
                dst: dst.addr(),
                src: 0,
                size: data.len() as u32,
                kind: MemcpyKind::HostToDevice,
                stream,
                data: Some(Payload::Owned(data.to_vec())),
            },
        };
        if let Some(journal) = self.journal.as_mut() {
            journal.record(req, Expect::Ack);
        }
    }

    /// One write-flush-read exchange of `batch` (no retry logic).
    fn try_batch(&mut self, batch: &Batch, started: Instant) -> CudaResult<BatchResponse> {
        self.arm_deadline(started)?;
        let codec = if self.codec_active {
            self.codec.as_ref()
        } else {
            None
        };
        batch
            .write_codec(&mut self.transport, codec)
            .and_then(|_| self.transport.flush())
            .map_err(|e| transport_error(&e))?;
        BatchResponse::read_codec(&mut self.transport, batch, codec)
            .map_err(|e| transport_error(&e))
    }

    /// Write `batch` as one message, read the combined response, trace it.
    /// Faults replay (under the policy) only if *every* element is
    /// idempotent.
    fn send_batch(&mut self, batch: &Batch) -> CudaResult<BatchResponse> {
        let started = Instant::now();
        let replayable = batch_is_idempotent(batch);
        let op = Op::Batch(batch.len() as u32);
        let start = self.clock.now();
        let sent = batch.wire_bytes();
        let mut attempt = 0;
        let resp = loop {
            match self.try_batch(batch, started) {
                Ok(resp) => break resp,
                Err(e) => {
                    if !self.may_retry(attempt, replayable, e) {
                        return Err(self.surface(replayable, e));
                    }
                    self.obs.emit_retry(op, attempt);
                    self.recover(attempt, e)?;
                    attempt += 1;
                }
            }
        };
        for (req, elem) in batch.requests().iter().zip(&resp.responses) {
            self.journal_observe(req, elem);
        }
        let end = self.clock.now();
        let event = CallEvent {
            op,
            sent,
            received: resp.wire_bytes(),
            start,
            end,
        };
        self.trace.record(event);
        self.calls += 1;
        self.batched_calls += batch.len() as u64;
        self.retries_total += attempt as u64;
        self.obs.emit_call(&CallSpan {
            op,
            bytes_sent: event.sent,
            bytes_received: event.received,
            start,
            end,
            retries: attempt,
        });
        Ok(resp)
    }

    /// One write-flush-read exchange of `req` (no retry logic).
    fn try_single(&mut self, req: &Request, started: Instant) -> CudaResult<Response> {
        self.arm_deadline(started)?;
        let codec = if self.codec_active {
            self.codec.as_ref()
        } else {
            None
        };
        req.write_codec(&mut self.transport, codec)
            .and_then(|_| self.transport.flush())
            .map_err(|e| transport_error(&e))?;
        Response::read_codec(&mut self.transport, req, None, codec).map_err(|e| transport_error(&e))
    }

    /// One result-bearing exchange, traced. If deferred calls are pending,
    /// `req` rides as the final element of the draining batch, so the whole
    /// window plus this call still costs a single round trip.
    ///
    /// On a transport fault, idempotent requests replay transparently after
    /// a backed-off reconnect (when retries are configured); non-idempotent
    /// ones surface the fault immediately — a replayed `cudaMalloc` or
    /// `cudaLaunch` could double-execute.
    fn call(&mut self, req: Request) -> CudaResult<Response> {
        if !self.window.is_empty() {
            let mut requests = std::mem::take(&mut self.window);
            requests.push(req);
            let batch = Batch::new(requests).map_err(|_| CudaError::InvalidValue)?;
            let mut resp = self.send_batch(&batch)?;
            let last = resp.responses.pop().ok_or(CudaError::ProtocolViolation)?;
            // Deferred failures take precedence: they happened first.
            first_failure(&resp.responses)?;
            return Ok(last);
        }
        let op = Op::Named(req.op_name());
        let started = Instant::now();
        let replayable = is_idempotent(&req);
        let start = self.clock.now();
        let sent = req.wire_bytes();
        let mut attempt = 0;
        let resp = loop {
            match self.try_single(&req, started) {
                Ok(resp) => break resp,
                Err(e) => {
                    if !self.may_retry(attempt, replayable, e) {
                        return Err(self.surface(replayable, e));
                    }
                    self.obs.emit_retry(op, attempt);
                    self.recover(attempt, e)?;
                    attempt += 1;
                }
            }
        };
        self.journal_observe(&req, &resp);
        let end = self.clock.now();
        let received = resp.wire_bytes();
        self.trace.record(CallEvent {
            op,
            sent,
            received,
            start,
            end,
        });
        self.calls += 1;
        self.retries_total += attempt as u64;
        self.obs.emit_call(&CallSpan {
            op,
            bytes_sent: sent,
            bytes_received: received,
            start,
            end,
            retries: attempt,
        });
        Ok(resp)
    }

    /// One write-flush-read round of a borrowed-payload exchange (no retry
    /// logic). `head` and `body` go out as a single vectored message —
    /// byte-identical to the equivalent [`Request::write`] — and the reply's
    /// payload, if the caller expects one, lands straight in `into`.
    ///
    /// The outer `Err` is a transport fault (retryable); the inner result is
    /// the server's verdict (final). On a server error no payload follows
    /// the code, so `into` is left untouched.
    fn try_exchange(
        &mut self,
        head: &[u8],
        body: &[u8],
        into: Option<&mut [u8]>,
        started: Instant,
    ) -> CudaResult<CudaResult<()>> {
        self.arm_deadline(started)?;
        write_all_vectored(&mut self.transport, head, body)
            .and_then(|_| self.transport.flush())
            .map_err(|e| transport_error(&e))?;
        let status = get_u32(&mut self.transport).map_err(|e| transport_error(&e))?;
        if let Err(e) = CudaError::from_code(status) {
            return Ok(Err(e));
        }
        if let Some(buf) = into {
            // On a codec session the reply payload arrives `enc_len`-framed
            // and inflates straight into the caller's buffer. Disjoint field
            // borrows: the codec is read while the transport is driven.
            match (self.codec_active, self.codec.as_ref()) {
                (true, Some(codec)) => codec
                    .read_block_into(&mut self.transport, buf)
                    .map_err(|e| transport_error(&e))?,
                _ => self
                    .transport
                    .read_exact(buf)
                    .map_err(|e| transport_error(&e))?,
            }
        }
        Ok(Ok(()))
    }

    /// A complete borrowed-payload call: the caller's slices cross the wire
    /// (and the reply lands) without staging copies or allocation, with the
    /// same retry, deadline, trace, and observer treatment as [`call`]. Only
    /// used for idempotent memcpy exchanges, so transport faults always
    /// replay under the configured policy.
    ///
    /// [`call`]: RemoteRuntime::call
    fn exchange_borrowed(
        &mut self,
        op: Op,
        head: &[u8],
        body: &[u8],
        mut into: Option<&mut [u8]>,
    ) -> CudaResult<()> {
        let started = Instant::now();
        let start = self.clock.now();
        let sent = (head.len() + body.len()) as u64;
        let mut attempt = 0;
        let result = loop {
            match self.try_exchange(head, body, into.as_deref_mut(), started) {
                Ok(result) => break result,
                Err(e) => {
                    if !self.may_retry(attempt, true, e) {
                        return Err(e);
                    }
                    self.obs.emit_retry(op, attempt);
                    self.recover(attempt, e)?;
                    attempt += 1;
                }
            }
        };
        let end = self.clock.now();
        // Error replies carry no payload: only the 4-byte code came back.
        let received = match result {
            Ok(()) => 4 + into.map_or(0, |b| b.len() as u64),
            Err(_) => 4,
        };
        // Feed the codec's link-throughput estimate from the observed
        // round trip (bulk exchanges dominate, so the per-call overhead
        // noise washes out of the EMA).
        if result.is_ok() && attempt == 0 {
            if let Some(codec) = self.codec.as_ref() {
                codec.observe_link(sent + received, started.elapsed().as_nanos() as u64);
            }
        }
        self.trace.record(CallEvent {
            op,
            sent,
            received,
            start,
            end,
        });
        self.calls += 1;
        self.retries_total += attempt as u64;
        self.obs.emit_call(&CallSpan {
            op,
            bytes_sent: sent,
            bytes_received: received,
            start,
            end,
            retries: attempt,
        });
        result
    }

    /// Codec-aware borrowed H2D send: on a negotiated session the body is
    /// encoded through the codec (pooled scratch, no allocation) and the
    /// 4-byte `enc_len` word joins the stack-built head; a legacy session
    /// passes the caller's slices through untouched.
    fn exchange_borrowed_h2d(&mut self, op: Op, head: &[u8], data: &[u8]) -> CudaResult<()> {
        if !self.codec_active {
            return self.exchange_borrowed(op, head, data, None);
        }
        let encoded = self
            .codec
            .as_ref()
            .expect("active implies codec")
            .encode(data);
        let body: &[u8] = encoded.as_ref().map_or(data, |p| p.as_slice());
        let mut ext = [0u8; 28];
        ext[..head.len()].copy_from_slice(head);
        ext[head.len()..head.len() + 4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        self.exchange_borrowed(op, &ext[..head.len() + 4], body, None)
    }

    /// Submit a no-result call. With pipelining off this is a synchronous
    /// round trip; with pipelining on it joins the window and completes
    /// immediately, draining when the window fills.
    fn defer(&mut self, req: Request) -> CudaResult<()> {
        if self.pipeline_depth == 0 {
            return self.call(req)?.into_ack();
        }
        self.window.push(req);
        if self.window.len() >= self.pipeline_depth {
            self.flush_pipeline()?;
        }
        Ok(())
    }

    fn ensure_initialized(&self) -> CudaResult<()> {
        if self.initialized {
            Ok(())
        } else {
            Err(CudaError::InitializationError)
        }
    }
}

/// The first error among a batch's responses, if any (submission order).
/// Checked by reference: a payload-bearing success is never cloned.
fn first_failure(responses: &[Response]) -> CudaResult<()> {
    for resp in responses {
        resp.status()?;
    }
    Ok(())
}

/// The call table's label for a borrowed memcpy exchange, which builds no
/// [`Request`] to ask.
fn borrowed_op(id: FunctionId, kind: MemcpyKind) -> Op {
    Op::Named(id.label(kind).expect("memcpy rows are call rows"))
}

/// The fixed 20-byte header of a `Memcpy` request, laid out exactly as
/// [`Request::write`] encodes it (selector + dst + src + size + kind, all
/// little-endian) — the stack-built head of the borrowed fast paths.
fn memcpy_head(dst: u32, src: u32, size: u32, kind: MemcpyKind) -> [u8; 20] {
    let mut head = [0u8; 20];
    let words = [FunctionId::Memcpy.as_u32(), dst, src, size, kind.as_u32()];
    for (slot, word) in head.chunks_exact_mut(4).zip(words) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    head
}

/// The fixed 24-byte header of a `MemcpyAsync` request ([`memcpy_head`]
/// plus the trailing stream field).
fn memcpy_async_head(dst: u32, src: u32, size: u32, kind: MemcpyKind, stream: u32) -> [u8; 24] {
    let mut head = [0u8; 24];
    let words = [
        FunctionId::MemcpyAsync.as_u32(),
        dst,
        src,
        size,
        kind.as_u32(),
        stream,
    ];
    for (slot, word) in head.chunks_exact_mut(4).zip(words) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    head
}

impl<T: Transport> RemoteRuntime<T> {
    /// One full initialization exchange: CC push, module upload (resumable
    /// hello when retries are on), acknowledgement. Returns the traced byte
    /// counts.
    fn try_initialize(&mut self, module: &[u8], started: Instant) -> CudaResult<(u64, u64)> {
        self.arm_deadline(started)?;
        let mut cc = [0u8; 8];
        self.transport
            .read_exact(&mut cc)
            .map_err(|e| transport_error(&e))?;
        match ServerHello::from_wire(cc) {
            ServerHello::Busy { retry_after_ms } => {
                // Load-shed at admission: retryable, honoring the server's
                // backoff hint (see the `initialize` retry loop).
                self.busy_retry_hint = Some(Duration::from_millis(retry_after_ms as u64));
                return Err(CudaError::ServerBusy);
            }
            ServerHello::Ready { major, minor } => {
                // The minor word doubles as the capability carrier; strip
                // the caps (and opt in) before recording the CC.
                let minor = self.negotiate_codec(minor)?;
                self.server_cc = Some((major, minor));
            }
        }
        let hello = match self.session_token {
            Some(session) => SessionHello::Resumable {
                session,
                module: module.to_vec(),
            },
            None => SessionHello::Fresh {
                module: module.to_vec(),
            },
        };
        let sent = hello.wire_bytes();
        hello
            .write(&mut self.transport)
            .and_then(|_| self.transport.flush())
            .map_err(|e| transport_error(&e))?;
        read_hello_reply(&mut self.transport).map_err(|e| transport_error(&e))??;
        // Received: 8-byte CC push + 4-byte result code (Table I's 12).
        Ok((sent, 12))
    }
}

impl<T: Transport> CudaRuntime for RemoteRuntime<T> {
    fn initialize(&mut self, module: &[u8]) -> CudaResult<()> {
        // Phase 1 (Fig. 2): the server pushes its 8-byte compute capability
        // on connect; then we ship the module and take the result code.
        // With retries configured the upload becomes a resumable hello
        // (announcing the session token); the wire is otherwise unchanged,
        // so default sessions keep Table I's exact byte counts.
        if self.retry.max_retries > 0 && self.session_token.is_none() {
            self.session_token = Some(fresh_session_token());
        }
        if let Some(token) = self.session_token {
            // Per-session jitter seed (any nonzero value; tokens are).
            self.jitter_rng = token | 1;
        }
        let started = Instant::now();
        let start = self.clock.now();
        let mut attempt = 0;
        let (sent, received) = loop {
            match self.try_initialize(module, started) {
                Ok(counts) => break counts,
                Err(e) => {
                    // Nothing to resume yet: a failed initialization
                    // re-dials and redoes the full fresh handshake. A
                    // `Busy` rejection is retryable like a transport fault,
                    // but backs off at least the server's hint.
                    let retryable = matches!(
                        e,
                        CudaError::TransportTimedOut
                            | CudaError::TransportConnectionLost
                            | CudaError::ServerBusy
                    );
                    if !(retryable && attempt < self.retry.max_retries) {
                        return Err(e);
                    }
                    self.obs.emit_retry(Op::Named(Request::INIT_LABEL), attempt);
                    let backoff = self.backoff_with_busy_hint(attempt);
                    std::thread::sleep(backoff);
                    self.transport.reconnect().map_err(|_| e)?;
                    attempt += 1;
                }
            }
        };
        let end = self.clock.now();
        self.trace.record(CallEvent {
            op: Op::Named(Request::INIT_LABEL),
            sent,
            received,
            start,
            end,
        });
        self.calls += 1;
        self.retries_total += attempt as u64;
        self.obs.emit_call(&CallSpan {
            op: Op::Named(Request::INIT_LABEL),
            bytes_sent: sent,
            bytes_received: received,
            start,
            end,
            retries: attempt,
        });
        if let Some(journal) = self.journal.as_mut() {
            journal.set_module(module);
        }
        self.initialized = true;
        Ok(())
    }

    fn device_properties(&mut self) -> CudaResult<DeviceProperties> {
        self.ensure_initialized()?;
        let resp = self.call(Request::DeviceProps)?;
        match resp {
            Response::DeviceProps(Ok(blob)) => {
                serde_json::from_slice(&blob).map_err(|_| CudaError::Unknown)
            }
            Response::DeviceProps(Err(e)) => Err(e),
            _ => Err(CudaError::Unknown),
        }
    }

    fn malloc(&mut self, size: u32) -> CudaResult<DevicePtr> {
        self.ensure_initialized()?;
        self.call(Request::Malloc { size })?.into_malloc()
    }

    fn free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.defer(Request::Free { ptr })
    }

    fn memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        self.ensure_initialized()?;
        // Synchronous fast path: the caller's slice goes out as the body of
        // a vectored write — no `Request` is built and nothing is copied.
        // (Safe to replay: H2D is idempotent, and the borrow outlives the
        // retry loop.) The deferred path must own its bytes until the drain,
        // so it stages one copy in a pooled buffer.
        if self.pipeline_depth == 0 && self.window.is_empty() {
            let head = memcpy_head(dst.addr(), 0, data.len() as u32, MemcpyKind::HostToDevice);
            self.exchange_borrowed_h2d(
                borrowed_op(FunctionId::Memcpy, MemcpyKind::HostToDevice),
                &head,
                data,
            )?;
            self.journal_borrowed_h2d(dst, data, None);
            return Ok(());
        }
        let req = Request::Memcpy {
            dst: dst.addr(),
            src: 0,
            size: data.len() as u32,
            kind: MemcpyKind::HostToDevice,
            data: Some(Payload::Pooled(self.pool.copy_from(data))),
        };
        self.defer(req)
    }

    fn memcpy_d2h_into(&mut self, src: DevicePtr, buf: &mut [u8]) -> CudaResult<()> {
        self.ensure_initialized()?;
        // Any deferred work must complete first (the copy reads its
        // results); after the drain the exchange is borrowed end to end —
        // the reply payload lands straight in the caller's buffer.
        self.flush_pipeline()?;
        let head = memcpy_head(0, src.addr(), buf.len() as u32, MemcpyKind::DeviceToHost);
        self.exchange_borrowed(
            borrowed_op(FunctionId::Memcpy, MemcpyKind::DeviceToHost),
            &head,
            &[],
            Some(buf),
        )
    }

    fn memcpy_d2h(&mut self, src: DevicePtr, size: u32) -> CudaResult<Vec<u8>> {
        self.ensure_initialized()?;
        let req = Request::Memcpy {
            dst: 0,
            src: src.addr(),
            size,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        self.call(req)?.into_memcpy_to_host()
    }

    fn memcpy_d2d(&mut self, dst: DevicePtr, src: DevicePtr, size: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        let req = Request::Memcpy {
            dst: dst.addr(),
            src: src.addr(),
            size,
            kind: MemcpyKind::DeviceToDevice,
            data: None,
        };
        self.call(req)?.into_ack()
    }

    fn memset(&mut self, dst: DevicePtr, value: u8, size: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        let req = Request::Memset {
            dst: dst.addr(),
            value: value as u32,
            size,
        };
        self.defer(req)
    }

    fn launch(
        &mut self,
        kernel: &str,
        grid: Dim3,
        block: Dim3,
        shared_bytes: u32,
        stream: u32,
        args: &[u8],
    ) -> CudaResult<()> {
        self.ensure_initialized()?;
        let config = LaunchConfig {
            texture_offset: 0,
            parameters_offset: 0, // filled by Request::launch
            num_textures: 0,
            block,
            grid,
            shared_bytes,
            stream,
        };
        let req = Request::launch_pooled(kernel, args, config, &self.pool);
        self.defer(req)
    }

    fn thread_synchronize(&mut self) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.defer(Request::ThreadSynchronize)
    }

    fn finalize(&mut self) -> CudaResult<()> {
        if !self.initialized {
            return Ok(());
        }
        self.call(Request::Quit)?.into_ack()?;
        self.initialized = false;
        Ok(())
    }
}

impl<T: Transport> CudaRuntimeAsyncExt for RemoteRuntime<T> {
    fn stream_create(&mut self) -> CudaResult<u32> {
        self.ensure_initialized()?;
        match self.call(Request::StreamCreate)? {
            Response::StreamCreate(r) => r,
            _ => Err(CudaError::Unknown),
        }
    }

    fn stream_synchronize(&mut self, stream: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.call(Request::StreamSynchronize { stream })?.into_ack()
    }

    fn stream_destroy(&mut self, stream: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.call(Request::StreamDestroy { stream })?.into_ack()
    }

    fn memcpy_h2d_async(&mut self, dst: DevicePtr, data: &[u8], stream: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        // Same split as the synchronous path: borrowed vectored write when
        // nothing is pending, pooled staging when the request must ride a
        // draining batch.
        if self.window.is_empty() {
            let head = memcpy_async_head(
                dst.addr(),
                0,
                data.len() as u32,
                MemcpyKind::HostToDevice,
                stream,
            );
            self.exchange_borrowed_h2d(
                borrowed_op(FunctionId::MemcpyAsync, MemcpyKind::HostToDevice),
                &head,
                data,
            )?;
            self.journal_borrowed_h2d(dst, data, Some(stream));
            return Ok(());
        }
        let req = Request::MemcpyAsync {
            dst: dst.addr(),
            src: 0,
            size: data.len() as u32,
            kind: MemcpyKind::HostToDevice,
            stream,
            data: Some(Payload::Pooled(self.pool.copy_from(data))),
        };
        self.call(req)?.into_ack()
    }

    fn memcpy_d2h_async(&mut self, src: DevicePtr, size: u32, stream: u32) -> CudaResult<Vec<u8>> {
        self.ensure_initialized()?;
        let req = Request::MemcpyAsync {
            dst: 0,
            src: src.addr(),
            size,
            kind: MemcpyKind::DeviceToHost,
            stream,
            data: None,
        };
        self.call(req)?.into_memcpy_to_host()
    }

    fn memcpy_d2h_async_into(
        &mut self,
        src: DevicePtr,
        buf: &mut [u8],
        stream: u32,
    ) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.flush_pipeline()?;
        let head = memcpy_async_head(
            0,
            src.addr(),
            buf.len() as u32,
            MemcpyKind::DeviceToHost,
            stream,
        );
        self.exchange_borrowed(
            borrowed_op(FunctionId::MemcpyAsync, MemcpyKind::DeviceToHost),
            &head,
            &[],
            Some(buf),
        )
    }

    fn event_create(&mut self) -> CudaResult<u32> {
        self.ensure_initialized()?;
        match self.call(Request::EventCreate)? {
            Response::EventCreate(r) => r,
            _ => Err(CudaError::Unknown),
        }
    }

    fn event_record(&mut self, event: u32, stream: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.call(Request::EventRecord { event, stream })?
            .into_ack()
    }

    fn event_synchronize(&mut self, event: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.call(Request::EventSynchronize { event })?.into_ack()
    }

    fn event_elapsed_ms(&mut self, start: u32, end: u32) -> CudaResult<f32> {
        self.ensure_initialized()?;
        match self.call(Request::EventElapsed { start, end })? {
            Response::EventElapsed(r) => r,
            _ => Err(CudaError::Unknown),
        }
    }

    fn event_destroy(&mut self, event: u32) -> CudaResult<()> {
        self.ensure_initialized()?;
        self.call(Request::EventDestroy { event })?.into_ack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_core::error::result_code;
    use rcuda_core::time::wall_clock;
    use rcuda_proto::wire::{get_u32, put_bytes, put_u32};
    use rcuda_transport::{channel_pair, ChannelTransport};
    use std::io::Write;
    use std::thread;

    /// One scripted exchange of the fake server.
    type ScriptStep = Box<dyn FnOnce(&Request, &mut ChannelTransport) + Send>;

    /// A minimal protocol-speaking fake server: announces CC, acks the
    /// module, then answers `n` scripted responses.
    fn fake_server(mut side: ChannelTransport, script: Vec<ScriptStep>) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            // CC push.
            put_bytes(&mut side, &1u32.to_le_bytes()).unwrap();
            put_bytes(&mut side, &3u32.to_le_bytes()).unwrap();
            side.flush().unwrap();
            // Module upload — read as a session hello so the fake server
            // understands both fresh uploads and the token-announcing
            // resumable form that retry-enabled clients send.
            let _hello = SessionHello::read(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
            // Scripted exchanges.
            for step in script {
                let req = Request::read(&mut side).unwrap();
                step(&req, &mut side);
            }
        })
    }

    fn ack(req: &Request, side: &mut ChannelTransport) {
        let _ = req;
        put_u32(side, result_code(&Ok(()))).unwrap();
        side.flush().unwrap();
    }

    #[test]
    fn initialize_reads_cc_then_ships_module() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(server_side, vec![]);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[1, 2, 3]).unwrap();
        assert_eq!(rt.server_compute_capability(), Some((1, 3)));
        // Trace: one initialization event with Table I byte counts.
        let ev = &rt.trace().events[0];
        assert_eq!(ev.op, "initialization");
        assert_eq!(ev.sent, 3 + 4); // x + 4
        assert_eq!(ev.received, 12); // 8 + 4
        h.join().unwrap();
    }

    #[test]
    fn calls_before_initialize_are_rejected_locally() {
        let (client_side, _server_side) = channel_pair();
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        assert_eq!(rt.malloc(4), Err(CudaError::InitializationError));
        assert_eq!(
            rt.memcpy_h2d(DevicePtr::new(1), &[0]),
            Err(CudaError::InitializationError)
        );
        assert!(rt.trace().events.is_empty(), "nothing crossed the wire");
    }

    #[test]
    fn malloc_decodes_pointer_and_traces_bytes() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(
            server_side,
            vec![Box::new(|req, side| {
                assert!(matches!(req, Request::Malloc { size: 4096 }));
                put_u32(side, 0).unwrap();
                put_u32(side, 0x2000).unwrap();
                side.flush().unwrap();
            })],
        );
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        let ptr = rt.malloc(4096).unwrap();
        assert_eq!(ptr, DevicePtr::new(0x2000));
        let ev = rt.trace().events.last().unwrap();
        assert_eq!((ev.sent, ev.received), (8, 8)); // Table I cudaMalloc row
        h.join().unwrap();
    }

    #[test]
    fn error_codes_propagate() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(
            server_side,
            vec![Box::new(|_, side| {
                put_u32(side, CudaError::MemoryAllocation.code()).unwrap();
                side.flush().unwrap();
            })],
        );
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        assert_eq!(rt.malloc(1 << 31), Err(CudaError::MemoryAllocation));
        h.join().unwrap();
    }

    #[test]
    fn severed_connection_reports_connection_lost() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(server_side, vec![]);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        h.join().unwrap(); // server is gone now
                           // The cause is preserved (UnexpectedEof/BrokenPipe → connection
                           // lost), not collapsed into cudaErrorUnknown like real rCUDA does.
        assert_eq!(rt.malloc(16), Err(CudaError::TransportConnectionLost));
    }

    #[test]
    fn memcpy_trace_carries_table1_sizes() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(
            server_side,
            vec![
                Box::new(ack), // H2D
                Box::new(|req, side| {
                    // D2H: status + payload of requested size.
                    let size = match req {
                        Request::Memcpy { size, .. } => *size,
                        _ => panic!(),
                    };
                    put_u32(side, 0).unwrap();
                    put_bytes(side, &vec![7u8; size as usize]).unwrap();
                    side.flush().unwrap();
                }),
            ],
        );
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        rt.memcpy_h2d(DevicePtr::new(0x10), &[0u8; 1000]).unwrap();
        let back = rt.memcpy_d2h(DevicePtr::new(0x10), 500).unwrap();
        assert_eq!(back, vec![7u8; 500]);
        let t = rt.trace();
        let h2d = &t.events[1];
        assert_eq!((h2d.sent, h2d.received), (1020, 4)); // x+20 / 4
        let d2h = &t.events[2];
        assert_eq!((d2h.sent, d2h.received), (20, 504)); // 20 / x+4
        assert_eq!(t.bulk_payload(), 1500);
        h.join().unwrap();
    }

    /// A protocol-speaking fake that answers batched frames: one combined
    /// response with an Ack per element (and the scripted closure for any
    /// result-bearing tail).
    fn fake_batch_server(
        mut side: ChannelTransport,
        mut exchanges: u32,
    ) -> thread::JoinHandle<Vec<usize>> {
        use rcuda_proto::Frame;
        thread::spawn(move || {
            put_bytes(&mut side, &1u32.to_le_bytes()).unwrap();
            put_bytes(&mut side, &3u32.to_le_bytes()).unwrap();
            side.flush().unwrap();
            let _init = Request::read_init(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
            let mut batch_sizes = Vec::new();
            while exchanges > 0 {
                match Frame::read(&mut side).unwrap() {
                    Frame::Single(req) => {
                        exchanges -= 1;
                        answer(&req, &mut side);
                        side.flush().unwrap();
                    }
                    Frame::Batch(batch) => {
                        exchanges -= 1;
                        batch_sizes.push(batch.len());
                        put_u32(&mut side, batch.len() as u32).unwrap();
                        for req in batch.requests() {
                            answer(req, &mut side);
                        }
                        side.flush().unwrap();
                    }
                }
            }
            batch_sizes
        })
    }

    /// Answer one request with a plausible success response.
    fn answer(req: &Request, side: &mut ChannelTransport) {
        match req {
            Request::Malloc { .. } => {
                put_u32(side, 0).unwrap();
                put_u32(side, 0x4000).unwrap();
            }
            Request::Memcpy { size, kind, .. } if *kind == MemcpyKind::DeviceToHost => {
                put_u32(side, 0).unwrap();
                put_bytes(side, &vec![9u8; *size as usize]).unwrap();
            }
            _ => put_u32(side, 0).unwrap(),
        }
    }

    #[test]
    fn deferred_calls_drain_as_one_batch_when_window_fills() {
        let (client_side, server_side) = channel_pair();
        // Expect: init exchange handled separately; then ONE batch frame.
        let h = fake_batch_server(server_side, 1);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        rt.set_pipeline_depth(3).unwrap();
        rt.memcpy_h2d(DevicePtr::new(0x10), &[1, 2, 3, 4]).unwrap();
        assert_eq!(rt.pending_calls(), 1, "deferred, not sent");
        rt.memset(DevicePtr::new(0x10), 0, 4).unwrap();
        assert_eq!(rt.pending_calls(), 2);
        rt.free(DevicePtr::new(0x10)).unwrap(); // window full -> drains
        assert_eq!(rt.pending_calls(), 0);
        let sizes = h.join().unwrap();
        assert_eq!(sizes, vec![3], "three calls crossed as one frame");
        // Trace shows one batch event covering all three calls.
        let ev = rt.trace().events.last().unwrap();
        assert_eq!(ev.op, "batch[3]");
    }

    #[test]
    fn result_bearing_call_rides_as_final_batch_element() {
        let (client_side, server_side) = channel_pair();
        let h = fake_batch_server(server_side, 1);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        rt.set_pipeline_depth(8).unwrap();
        rt.memcpy_h2d(DevicePtr::new(0x10), &[1, 2, 3, 4]).unwrap();
        rt.launch("k", Dim3::new(1, 1, 1), Dim3::new(1, 1, 1), 0, 0, &[])
            .unwrap();
        // D2H forces the drain and joins the same frame.
        let back = rt.memcpy_d2h(DevicePtr::new(0x10), 4).unwrap();
        assert_eq!(back, vec![9u8; 4]);
        assert_eq!(rt.pending_calls(), 0);
        let sizes = h.join().unwrap();
        assert_eq!(sizes, vec![3], "h2d + launch + d2h in one frame");
    }

    #[test]
    fn explicit_flush_drains_the_window() {
        let (client_side, server_side) = channel_pair();
        let h = fake_batch_server(server_side, 1);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        rt.set_pipeline_depth(8).unwrap();
        rt.memset(DevicePtr::new(0x10), 7, 16).unwrap();
        assert_eq!(rt.pending_calls(), 1);
        rt.flush_pipeline().unwrap();
        assert_eq!(rt.pending_calls(), 0);
        assert_eq!(h.join().unwrap(), vec![1]);
    }

    #[test]
    fn depth_zero_is_bitwise_the_synchronous_protocol() {
        // With pipelining off nothing batches: the fake sees only single
        // frames, exactly as before this feature existed.
        let (client_side, server_side) = channel_pair();
        let h = fake_batch_server(server_side, 2);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        rt.memcpy_h2d(DevicePtr::new(0x10), &[1]).unwrap();
        rt.free(DevicePtr::new(0x10)).unwrap();
        assert_eq!(h.join().unwrap(), Vec::<usize>::new(), "no batch frames");
    }

    #[test]
    fn deferred_error_surfaces_at_the_drain_point() {
        use rcuda_proto::Frame;
        let (client_side, server_side) = channel_pair();
        let h = thread::spawn(move || {
            let mut side = server_side;
            put_bytes(&mut side, &1u32.to_le_bytes()).unwrap();
            put_bytes(&mut side, &3u32.to_le_bytes()).unwrap();
            side.flush().unwrap();
            let _ = Request::read_init(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
            // One batch of 2: first element fails, second succeeds.
            let batch = match Frame::read(&mut side).unwrap() {
                Frame::Batch(b) => b,
                other => panic!("{other:?}"),
            };
            assert_eq!(batch.len(), 2);
            put_u32(&mut side, 2).unwrap();
            put_u32(&mut side, CudaError::InvalidDevicePointer.code()).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
        });
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        rt.set_pipeline_depth(2).unwrap();
        // The doomed call itself completes immediately...
        rt.free(DevicePtr::new(0xBAD)).unwrap();
        // ...and its failure surfaces when the window drains.
        assert_eq!(
            rt.memset(DevicePtr::new(0x10), 0, 4),
            Err(CudaError::InvalidDevicePointer)
        );
        h.join().unwrap();
    }

    #[test]
    fn pipelining_halves_message_count_for_deferred_runs() {
        let (client_side, server_side) = channel_pair();
        let h = fake_batch_server(server_side, 2);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        let after_init = rt.metrics().messages_sent;
        rt.set_pipeline_depth(4).unwrap();
        for _ in 0..2 {
            rt.memcpy_h2d(DevicePtr::new(0x10), &[0; 8]).unwrap();
            rt.memset(DevicePtr::new(0x10), 0, 8).unwrap();
            rt.launch("k", Dim3::new(1, 1, 1), Dim3::new(1, 1, 1), 0, 0, &[])
                .unwrap();
            rt.free(DevicePtr::new(0x10)).unwrap();
        }
        let flushes = rt.metrics().messages_sent - after_init;
        assert_eq!(flushes, 2, "8 calls crossed in 2 flushes");
        assert_eq!(h.join().unwrap(), vec![4, 4]);
    }

    #[test]
    fn deadline_bounds_a_silent_server() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(
            server_side,
            vec![Box::new(|_req, _side| {
                // Swallow the request: never respond (a stalled network).
                std::thread::sleep(Duration::from_millis(300));
            })],
        );
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[]).unwrap();
        rt.set_deadline(Some(Duration::from_millis(50)));
        let begun = Instant::now();
        assert_eq!(rt.malloc(16), Err(CudaError::TransportTimedOut));
        assert!(
            begun.elapsed() < Duration::from_millis(280),
            "returned within the deadline, not when the server got around to it"
        );
        h.join().unwrap();
    }

    #[test]
    fn retries_announce_a_session_token() {
        let (client_side, mut side) = channel_pair();
        let h = thread::spawn(move || {
            put_bytes(&mut side, &1u32.to_le_bytes()).unwrap();
            put_bytes(&mut side, &3u32.to_le_bytes()).unwrap();
            side.flush().unwrap();
            let hello = rcuda_proto::SessionHello::read(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
            hello
        });
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        assert_eq!(rt.session_token(), None);
        rt.set_retry_policy(crate::retry::RetryPolicy::retries(2));
        rt.initialize(&[9, 9]).unwrap();
        match h.join().unwrap() {
            rcuda_proto::SessionHello::Resumable { session, module } => {
                assert_eq!(Some(session), rt.session_token());
                assert_eq!(module, vec![9, 9]);
            }
            other => panic!("expected resumable hello, got {other:?}"),
        }
        // Received bytes keep Table I's 12; sent grows by exactly the
        // 12-byte hello overhead (selector + token).
        let ev = &rt.trace().events[0];
        assert_eq!(ev.received, 12);
        assert_eq!(ev.sent, 12 + 4 + 2);
    }

    #[test]
    fn default_sessions_have_no_token_and_unchanged_wire() {
        // fake_server parses the paper's positional init: if the default
        // path grew a selector this would fail to parse.
        let (client_side, server_side) = channel_pair();
        let h = fake_server(server_side, vec![]);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.initialize(&[1, 2, 3]).unwrap();
        assert_eq!(rt.session_token(), None);
        h.join().unwrap();
    }

    #[test]
    fn get_u32_helper_used_by_fake_is_sane() {
        // Keep the helper import exercised.
        let mut buf = Vec::new();
        put_u32(&mut buf, 9).unwrap();
        assert_eq!(get_u32(&mut std::io::Cursor::new(buf)).unwrap(), 9);
    }

    #[test]
    fn busy_hint_backoff_is_jittered_but_floored_at_the_hint() {
        let (client_side, _server) = channel_pair();
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.set_retry_policy(crate::retry::RetryPolicy::retries(3));
        let hint = Duration::from_millis(10);
        let mut draws = Vec::new();
        for _ in 0..8 {
            rt.busy_retry_hint = Some(hint);
            let b = rt.backoff_with_busy_hint(0);
            assert!(b >= hint, "the server's hint is a floor: {b:?}");
            assert!(
                b < hint * 3 / 2 + Duration::from_micros(1),
                "jitter ≤ half the hint: {b:?}"
            );
            draws.push(b);
        }
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "successive draws must not all collide: {draws:?}"
        );
        // Without a pending hint the plain deterministic curve applies.
        assert_eq!(rt.backoff_with_busy_hint(0), rt.retry_policy().backoff(0));
    }

    #[test]
    fn busy_hint_jitter_is_deterministic_per_seed_and_differs_across_seeds() {
        let hint = Duration::from_millis(20);
        let schedule = |seed: u64| -> Vec<Duration> {
            let (side, _peer) = channel_pair();
            let mut rt = RemoteRuntime::new(side, wall_clock());
            rt.set_retry_policy(crate::retry::RetryPolicy::retries(3));
            rt.jitter_rng = seed | 1;
            (0..4)
                .map(|_| {
                    rt.busy_retry_hint = Some(hint);
                    rt.backoff_with_busy_hint(0)
                })
                .collect()
        };
        assert_eq!(schedule(0xAB), schedule(0xAB), "reproducible per session");
        assert_ne!(
            schedule(0xAB),
            schedule(0xCD),
            "shed clients with different tokens spread out"
        );
    }

    #[test]
    fn journal_records_mutations_and_skips_reads() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(
            server_side,
            vec![
                Box::new(|_, side| {
                    put_u32(side, 0).unwrap();
                    put_u32(side, 0x1000).unwrap();
                    side.flush().unwrap();
                }),
                Box::new(ack), // H2D (borrowed fast path)
                Box::new(|req, side| {
                    let size = match req {
                        Request::Memcpy { size, .. } => *size,
                        _ => panic!(),
                    };
                    put_u32(side, 0).unwrap();
                    put_bytes(side, &vec![1u8; size as usize]).unwrap();
                    side.flush().unwrap();
                }),
            ],
        );
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.set_retry_policy(crate::retry::RetryPolicy::retries(2));
        rt.set_failover(Some(1 << 20));
        rt.initialize(&[7, 7]).unwrap();
        let p = rt.malloc(16).unwrap();
        rt.memcpy_h2d(p, &[9u8; 16]).unwrap();
        let _ = rt.memcpy_d2h(p, 16).unwrap();
        let (ops, bytes) = rt.failover_journal_stats();
        assert_eq!(ops, 2, "malloc + h2d journaled, d2h skipped");
        assert!(bytes > 16, "the H2D payload weighs in");
        assert!(rt.failover_armed());
        h.join().unwrap();
    }

    #[test]
    fn journal_overflow_disarms_failover() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(server_side, vec![Box::new(ack), Box::new(ack)]);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.set_retry_policy(crate::retry::RetryPolicy::retries(2));
        rt.set_failover(Some(64));
        rt.initialize(&[]).unwrap();
        rt.memcpy_h2d(DevicePtr::new(0x1000), &[0u8; 40]).unwrap();
        assert!(rt.failover_armed());
        rt.memcpy_h2d(DevicePtr::new(0x1000), &[0u8; 40]).unwrap();
        assert!(!rt.failover_armed(), "cap exceeded: journal disarmed");
        assert_eq!(rt.failover_journal_stats().0, 0);
        h.join().unwrap();
    }

    /// A server scripting the failover sequence: rejects the Reconnect
    /// resume (daemon died), then serves the replay — resumable hello +
    /// journaled prefix — answering `replay` with each step's response.
    fn failover_server(
        mut side: ChannelTransport,
        reject_resume: bool,
        replay: Vec<ScriptStep>,
    ) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            put_bytes(&mut side, &1u32.to_le_bytes()).unwrap();
            put_bytes(&mut side, &3u32.to_le_bytes()).unwrap();
            side.flush().unwrap();
            let hello = rcuda_proto::SessionHello::read(&mut side).unwrap();
            match hello {
                rcuda_proto::SessionHello::Reconnect { .. } => {
                    put_u32(&mut side, CudaError::InitializationError.code()).unwrap();
                    side.flush().unwrap();
                    assert!(reject_resume, "unexpected resume rejection");
                    // The daemon closes a rejected connection.
                }
                rcuda_proto::SessionHello::Resumable { .. } => {
                    put_u32(&mut side, 0).unwrap();
                    side.flush().unwrap();
                    for step in replay {
                        let req = Request::read(&mut side).unwrap();
                        step(&req, &mut side);
                    }
                }
                other => panic!("unexpected hello {other:?}"),
            }
        })
    }

    #[test]
    fn rejected_resume_fails_over_by_verified_replay() {
        use rcuda_transport::ReconnectTransport;
        // Dial plan: the resume-rejecting incarnation, then the survivor
        // that serves the replay, then the retried in-flight call.
        let (c2, s2) = channel_pair();
        let (c3, s3) = channel_pair();
        let mut dials: Vec<ChannelTransport> = vec![c3, c2];
        let (c0, s0) = channel_pair();
        let transport = ReconnectTransport::new(c0, move || {
            dials
                .pop()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "out"))
        });

        // Original daemon: init + malloc + h2d, then dies mid-d2h.
        let h0 = thread::spawn(move || {
            let mut side = s0;
            put_bytes(&mut side, &1u32.to_le_bytes()).unwrap();
            put_bytes(&mut side, &3u32.to_le_bytes()).unwrap();
            side.flush().unwrap();
            let _ = rcuda_proto::SessionHello::read(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
            let _malloc = Request::read(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            put_u32(&mut side, 0x1000).unwrap();
            side.flush().unwrap();
            let _h2d = Request::read(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
            // Swallow the D2H and die: the daemon crashed.
            let _d2h = Request::read(&mut side).unwrap();
        });
        // Reconnect #1: a daemon that doesn't know the session.
        let h1 = failover_server(s2, true, vec![]);
        // Reconnect #2 (inside replay_failover): serves the verified
        // replay, then the retried D2H.
        let h2 = failover_server(
            s3,
            false,
            vec![
                Box::new(|req, side| {
                    assert!(matches!(req, Request::Malloc { size: 16 }));
                    put_u32(side, 0).unwrap();
                    put_u32(side, 0x1000).unwrap(); // same deterministic ptr
                    side.flush().unwrap();
                }),
                Box::new(|req, side| {
                    match req {
                        Request::Memcpy { kind, data, .. } => {
                            assert_eq!(*kind, MemcpyKind::HostToDevice);
                            assert_eq!(data.as_ref().unwrap().as_slice(), &[9u8; 16]);
                        }
                        other => panic!("{other:?}"),
                    }
                    ack(req, side);
                }),
                Box::new(|req, side| {
                    // The retried in-flight D2H, served after failover.
                    let size = match req {
                        Request::Memcpy { size, .. } => *size,
                        other => panic!("{other:?}"),
                    };
                    put_u32(side, 0).unwrap();
                    put_bytes(side, &vec![9u8; size as usize]).unwrap();
                    side.flush().unwrap();
                }),
            ],
        );

        let mut rt = RemoteRuntime::new(transport, wall_clock());
        rt.set_retry_policy(crate::retry::RetryPolicy::retries(3));
        rt.set_failover(Some(1 << 20));
        rt.initialize(&[1]).unwrap();
        let p = rt.malloc(16).unwrap();
        rt.memcpy_h2d(p, &[9u8; 16]).unwrap();
        // The daemon dies mid-call; the failover must hand back the exact
        // bytes, transparently.
        assert_eq!(rt.memcpy_d2h(p, 16).unwrap(), vec![9u8; 16]);
        h0.join().unwrap();
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn diverging_replay_surfaces_session_lost() {
        use rcuda_transport::ReconnectTransport;
        let (c2, s2) = channel_pair();
        let (c3, s3) = channel_pair();
        let mut dials: Vec<ChannelTransport> = vec![c3, c2];
        let (c0, s0) = channel_pair();
        let transport = ReconnectTransport::new(c0, move || {
            dials
                .pop()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "out"))
        });
        let h0 = thread::spawn(move || {
            let mut side = s0;
            put_bytes(&mut side, &1u32.to_le_bytes()).unwrap();
            put_bytes(&mut side, &3u32.to_le_bytes()).unwrap();
            side.flush().unwrap();
            let _ = rcuda_proto::SessionHello::read(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            side.flush().unwrap();
            let _malloc = Request::read(&mut side).unwrap();
            put_u32(&mut side, 0).unwrap();
            put_u32(&mut side, 0x1000).unwrap();
            side.flush().unwrap();
            let _sync = Request::read(&mut side).unwrap(); // die mid-call
        });
        let h1 = failover_server(s2, true, vec![]);
        // The survivor's allocator answers a DIFFERENT pointer: the rebuilt
        // context provably diverges, so failover must abort.
        let h2 = failover_server(
            s3,
            false,
            vec![Box::new(|_, side| {
                put_u32(side, 0).unwrap();
                put_u32(side, 0x2000).unwrap();
                side.flush().unwrap();
            })],
        );
        let mut rt = RemoteRuntime::new(transport, wall_clock());
        rt.set_retry_policy(crate::retry::RetryPolicy::retries(3));
        rt.set_failover(Some(1 << 20));
        rt.initialize(&[1]).unwrap();
        let _p = rt.malloc(16).unwrap();
        assert_eq!(
            rt.thread_synchronize(),
            Err(CudaError::SessionLost),
            "a diverging handle must surface the typed loss, not wrong results"
        );
        h0.join().unwrap();
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn non_idempotent_inflight_fault_surfaces_session_lost_with_journal() {
        let (client_side, server_side) = channel_pair();
        let h = fake_server(server_side, vec![]);
        let mut rt = RemoteRuntime::new(client_side, wall_clock());
        rt.set_retry_policy(crate::retry::RetryPolicy::retries(2));
        rt.set_failover(Some(1 << 20));
        rt.initialize(&[]).unwrap();
        h.join().unwrap(); // daemon gone
        assert_eq!(
            rt.malloc(16),
            Err(CudaError::SessionLost),
            "an unknowable in-flight mutation means the session is lost"
        );
    }
}
