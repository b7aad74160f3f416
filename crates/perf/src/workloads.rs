//! The eight workloads. Each stands the real stack up on loopback through
//! the public builders, drives it from at most two generator threads,
//! checks every output, and returns raw per-round samples; `report` turns
//! those into the named metrics.
//!
//! "Call" is the unit every end-to-end metric counts: one client API call
//! on the call-bound workloads, one 4 MiB copy on `bulk_tcp`, one whole job
//! on `case_fft`/`case_mm`, one recovery on `failover`.

use crate::cpu::{pin_current_thread, process_cpu, Placement};
use crate::gen::Rng;
use crate::pace::{round_is_valid, Release, Schedule};
use crate::stats;
use crate::trace::SpanSink;
use rcuda::api::{run_fft_bytes, run_matmul_bytes, CudaRuntime, ExecReport, LocalRuntime};
use rcuda::broker::{Broker, BrokerBuilder, DaemonState};
use rcuda::core::{wall_clock, ArgPack, CudaError, CudaResult, DeviceProperties, DevicePtr, Dim3};
use rcuda::gpu::module::build_module;
use rcuda::gpu::GpuDevice;
use rcuda::obs::{PoolStats, SessionMetrics};
use rcuda::proto::secure::CipherSuiteKind;
use rcuda::proto::CodecStats;
use rcuda::server::RcudaDaemon;
use rcuda::session::{Endpoint, Session, SessionBuilder};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name and reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 8] = [
    (
        "calls_burst_tcp",
        "closed loop of 4 KiB malloc/H2D/launch/D2H/free over loopback TCP: per-call socket + shard-wake cost is everything, the device does nothing",
    ),
    (
        "calls_paced_tcp",
        "same cycle, open loop at 500 calls/s: the shard is always asleep when a call arrives, so this isolates wake-on-readiness from spinning",
    ),
    (
        "calls_burst_channel",
        "same cycle over the in-process channel and blocking worker: bypasses sockets and reactor, so transport work must leave it unchanged",
    ),
    (
        "bulk_tcp",
        "back-to-back 4 MiB H2D then D2H of incompressible bytes over TCP: byte-bound, per-call cost under 10 %, directions reported apart",
    ),
    (
        "trunk_mixed",
        "authenticated ChaCha20+LZ4 mux trunk, 1 MiB H2D stream beside paced 4 KiB calls: mux, cipher, codec and fair writer do the work (head-of-line case)",
    ),
    (
        "case_fft",
        "paper case study FFT batch 2048 (8 MiB each way) as fresh-session jobs, bit-identical to local: transfer-heavy time to solution",
    ),
    (
        "case_mm",
        "paper case study SGEMM m=384 as fresh-session jobs, bit-identical to local: kernel-heavy, a transfer optimisation should not move it",
    ),
    (
        "failover",
        "broker + 3 daemons with default health policy, owner killed at a seeded call: kill to first verified call on a survivor; no data-plane layer matters",
    ),
];

const SMALL: usize = 4096;
const BULK: usize = 4 << 20;
const TRUNK_BULK: usize = 1 << 20;
const PACED_GAP: Duration = Duration::from_millis(2);
const TRUNK_GAP: Duration = Duration::from_millis(4);
const FFT_BATCH: u32 = 2048;
/// The issue asked for 512; at 384 the three matrices (1.7 MiB) stay in
/// this host's L2, where a job's time does not swing with the neighbours'
/// use of the shared L3 (ten runs: IQR 2.5 % of the median against 6-12 %).
pub const MM_DIM: u32 = 384;
const TRUNK_TOKEN: &str = "rcuda-perf-trunk";
/// Device state a failover session holds: `STATE_BUFFERS` x 1 MiB.
const STATE_BUFFERS: usize = 8;
/// A failover that has not produced a result by then fails the run.
pub const RECOVERY_LIMIT: Duration = Duration::from_secs(10);

/// How long and how often to run; derived from the command line.
#[derive(Clone)]
pub struct Plan {
    pub seed: u64,
    pub rounds: usize,
    pub round: Duration,
    pub warmup: Duration,
    /// Times the stack is set up (and torn down again) for `setup_s`.
    pub setups: usize,
    /// Failover trials (each a fresh cluster).
    pub trials: usize,
    /// Armed in the traced run only.
    pub sink: Option<Arc<SpanSink>>,
    /// The CPUs to place on (see `cpu`); `None` when the kernel will not
    /// say, which leaves placement to the scheduler.
    pub placement: Option<Placement>,
}

/// Placement. Every workload with sockets puts its two sides on two CPUs —
/// what a remote GPU is — which removes the bistability of a client
/// sharing (or not) the CPU of the reactor shard that serves it. Chosen
/// from measured run-to-run spread (see `README.md`), not for speed.
impl Plan {
    /// Call before starting anything that serves: the calling thread, and
    /// so every thread the daemon or broker then spawns, moves to the
    /// server CPU.
    pub fn server_side(&self) {
        if let Some(p) = &self.placement {
            pin_current_thread(&[p.server]);
        }
    }

    /// Call before connecting or generating load: the calling thread and
    /// the client-side threads it spawns move to the generators' CPU.
    pub fn client_side(&self) {
        if let Some(p) = &self.placement {
            pin_current_thread(&[p.client]);
        }
    }
}

/// Payload bytes moved one way and the time spent in the calls moving them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flow {
    pub bytes: u64,
    pub nanos: u64,
}

impl Flow {
    fn add(&mut self, bytes: usize, took: Duration) {
        self.bytes += bytes as u64;
        self.nanos += took.as_nanos() as u64;
    }

    /// Megabytes (10^6) per second; `None` when nothing moved.
    pub fn mbps(&self) -> Option<f64> {
        (self.bytes > 0 && self.nanos > 0).then(|| self.bytes as f64 * 1e3 / self.nanos as f64)
    }
}

/// One timed round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub wall: Duration,
    pub cpu: Duration,
    /// Calls completed (the latency samples may be a subset: `trunk_mixed`
    /// counts both streams but times the paced one).
    pub calls: u64,
    /// Call latencies in ns, ascending.
    pub lat: Vec<u64>,
    pub h2d: Flow,
    pub d2h: Flow,
    /// Generator lateness per call in ns, ascending (open loop only).
    pub late: Vec<u64>,
    /// False when the open-loop generator fell behind its schedule.
    pub valid: bool,
}

/// Counters the public snapshots expose, kept for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub session: Option<SessionMetrics>,
    pub client_pool: Option<PoolStats>,
    pub codec: Option<CodecStats>,
}

/// What a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    /// How many of `failed` were a typed `SessionLost` after a daemon was
    /// killed: counted as failures, but not a wrong result.
    pub lost: u64,
    pub counters: Counters,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Other,
    H2d,
    D2h,
}

/// Times calls and keeps the samples of the round in progress.
struct Meter {
    lat: Vec<u64>,
    late: Vec<u64>,
    h2d: Flow,
    d2h: Flow,
    attempted: u64,
    failed: u64,
    /// Calls completed beside the ones in `lat` (`trunk_mixed` times the
    /// paced stream but counts the bulk stream's copies too).
    untimed_calls: u64,
    /// Failed calls that ended in a typed `SessionLost` (failover only).
    lost: u64,
    spun: Duration,
    sink: Option<Arc<SpanSink>>,
}

impl Meter {
    fn new(sink: Option<Arc<SpanSink>>) -> Meter {
        Meter {
            lat: Vec::with_capacity(1 << 18),
            late: Vec::new(),
            h2d: Flow::default(),
            d2h: Flow::default(),
            attempted: 0,
            failed: 0,
            untimed_calls: 0,
            lost: 0,
            spun: Duration::ZERO,
            sink,
        }
    }

    /// Time one call. Its latency runs from `due` when the generator is
    /// open-loop (so a stall is charged to every call it delays), from the
    /// moment it was issued otherwise. A failed call counts in `failed`,
    /// leaves no latency sample, and yields `None`. `op` names the
    /// `bench.call` span of the traced run (`None`: an enclosing job whose
    /// inner calls are traced instead).
    fn call<R>(
        &mut self,
        op: Option<&'static str>,
        kind: Kind,
        bytes: usize,
        due: Option<Instant>,
        f: impl FnOnce() -> CudaResult<R>,
    ) -> Option<R> {
        let t0 = Instant::now();
        let result = f();
        let t1 = Instant::now();
        self.attempted += 1;
        if let (Some(sink), Some(op)) = (&self.sink, op) {
            sink.bench_call(op, bytes as u64, self.attempted, t0, t1);
        }
        match result {
            Ok(value) => {
                self.lat.push((t1 - due.unwrap_or(t0)).as_nanos() as u64);
                match kind {
                    Kind::H2d => self.h2d.add(bytes, t1 - t0),
                    Kind::D2h => self.d2h.add(bytes, t1 - t0),
                    Kind::Other => {}
                }
                Some(value)
            }
            Err(e) => {
                eprintln!("rcuda-perf: call failed: {e:?}");
                self.failed += 1;
                None
            }
        }
    }

    /// Note one open-loop release: its lateness, and the CPU the generator
    /// burnt spinning up to the due time (taken off the round's CPU cost).
    fn released(&mut self, release: &Release) {
        self.late.push(release.late.as_nanos() as u64);
        self.spun += release.spun;
    }

    /// Count an output that came back wrong.
    fn mismatch(&mut self, what: &str) {
        eprintln!("rcuda-perf: wrong output: {what}");
        self.failed += 1;
    }

    fn into_round(mut self, wall: Duration, cpu: Duration, gap: Option<Duration>) -> Round {
        self.lat.sort_unstable();
        self.late.sort_unstable();
        let valid = match (gap, self.late.is_empty()) {
            (Some(gap), false) => {
                let rank = stats::tail_rank(self.late.len());
                round_is_valid(Duration::from_nanos(self.late[rank - 1]), gap)
            }
            _ => true,
        };
        Round {
            wall,
            cpu: cpu.saturating_sub(self.spun),
            calls: self.lat.len() as u64 + self.untimed_calls,
            lat: self.lat,
            h2d: self.h2d,
            d2h: self.d2h,
            late: self.late,
            valid,
        }
    }
}

/// Calls an open-loop round must hold, so that each round has a tail of
/// its own (see `stats::PER_ROUND_MIN`): pooling a run's samples instead
/// lets one stall — charged, as it must be, to every call it delayed —
/// set the whole run's tail.
const OPEN_LOOP_ROUND_CALLS: u32 = 250;

/// Warm up, then run the plan's timed rounds of `body` (which drives load
/// for the given duration and returns false to abort after a failed call).
/// An open-loop workload (`gap` set) trades round count for round length
/// until a round holds [`OPEN_LOOP_ROUND_CALLS`]. Returns the rounds and
/// the attempted/failed totals.
fn timed_rounds(
    plan: &Plan,
    gap: Option<Duration>,
    mut body: impl FnMut(&mut Meter, Duration) -> bool,
) -> (Vec<Round>, u64, u64) {
    let measured = plan.round * plan.rounds as u32;
    let round = gap.map_or(plan.round, |gap| {
        plan.round.max(gap * OPEN_LOOP_ROUND_CALLS)
    });
    let count = ((measured.as_secs_f64() / round.as_secs_f64()).round() as usize).max(1);
    // Pools, stream buffers and the codec's estimates fill here, untimed
    // and untraced.
    let mut warm = Meter::new(None);
    let mut ok = body(&mut warm, plan.warmup);
    let (mut attempted, mut failed) = (0, warm.failed);
    let mut rounds = Vec::with_capacity(count);
    while ok && rounds.len() < count {
        let mut meter = Meter::new(plan.sink.clone());
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        ok = body(&mut meter, round);
        let wall = t0.elapsed();
        let cpu = process_cpu() - cpu0;
        attempted += meter.attempted;
        failed += meter.failed;
        rounds.push(meter.into_round(wall, cpu, gap));
    }
    (rounds, attempted, failed)
}

/// Set-ups keep being repeated past `plan.setups` until they have taken
/// this long together: a 60 us set-up (the channel workload: one thread
/// spawn) needs hundreds of samples before its median stops moving.
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(50);

/// Set the stack up `plan.setups` times or more, timing each, and keep the
/// last.
fn set_up<R>(plan: &Plan, setup_s: &mut Vec<f64>, mut build: impl FnMut() -> R) -> R {
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let rig = build();
        setup_s.push(t0.elapsed().as_secs_f64());
        let enough = plan.setups <= 1 || started.elapsed() >= SETUP_MIN_TOTAL;
        if setup_s.len() >= plan.setups && enough {
            return rig;
        }
    }
}

/// A daemon on the server CPU; the caller comes back on the client CPU.
fn daemon(plan: &Plan, shards: usize, auth: Option<&str>) -> RcudaDaemon {
    plan.server_side();
    let mut b = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .shards(shards);
    if let Some(token) = auth {
        b = b.auth(token);
    }
    if let Some(sink) = &plan.sink {
        b = b.observer(sink.handle());
    }
    let daemon = b.bind("127.0.0.1:0").expect("bind a loopback daemon");
    plan.client_side();
    daemon
}

fn session(plan: &Plan) -> SessionBuilder {
    match &plan.sink {
        Some(sink) => Session::builder().observer(sink.handle()),
        None => Session::builder(),
    }
}

// ------------------------------------------------------------ call cycle

/// The small-call cycle of workloads 1-3 and the failover probe:
/// `malloc(4 KiB) -> H2D -> saxpy in place -> D2H (checked) -> free`.
struct Cycle {
    sess: Session,
    payload: Vec<u8>,
    expect: Vec<u8>,
    out: Vec<u8>,
    ptr: Option<DevicePtr>,
    step: u8,
    cycles: u32,
}

const ALPHA: f32 = 0.5;

/// What `saxpy(ALPHA, p, p, n)` leaves of one element, computed the way
/// the device kernel does (`y += alpha * x` with `x == y`), so the bytes
/// must match.
fn saxpy_one(x: f32) -> f32 {
    let mut y = x;
    y += ALPHA * x;
    y
}

/// What `saxpy(ALPHA, p, p, n)` leaves in `p`.
fn saxpy_in_place(input: &[u8]) -> Vec<u8> {
    input
        .chunks_exact(4)
        .flat_map(|c| saxpy_one(f32::from_le_bytes(c.try_into().expect("4 bytes"))).to_le_bytes())
        .collect()
}

fn saxpy_args(ptr: DevicePtr, floats: usize) -> Vec<u8> {
    ArgPack::new()
        .push_f32(ALPHA)
        .push_ptr(ptr)
        .push_ptr(ptr)
        .push_u32(floats as u32)
        .into_bytes()
}

impl Cycle {
    /// Initialise the session and run one whole cycle untimed, so the
    /// first timed call finds every lazy path already taken.
    fn open(mut sess: Session, seed: u64) -> Cycle {
        sess.initialize(&build_module(&["saxpy"], 0))
            .expect("initialise the session");
        let payload = Rng::new(seed, "cycle payload").f32_bytes(SMALL / 4);
        let mut cycle = Cycle {
            expect: saxpy_in_place(&payload),
            out: vec![0; SMALL],
            payload,
            sess,
            ptr: None,
            step: 0,
            cycles: 0,
        };
        let mut meter = Meter::new(None);
        for _ in 0..5 {
            assert!(cycle.step(&mut meter, None), "warm cycle failed");
        }
        assert_eq!(meter.failed, 0, "warm cycle returned wrong bytes");
        cycle
    }

    /// Issue the next call of the cycle; false when it failed.
    fn step(&mut self, m: &mut Meter, due: Option<Instant>) -> bool {
        let sess = &mut self.sess;
        let done = match self.step {
            0 => m
                .call(Some("cudaMalloc"), Kind::Other, 0, due, || {
                    sess.malloc(SMALL as u32)
                })
                .map(|p| self.ptr = Some(p)),
            1 => {
                // Every cycle ships different bytes, so a stale reply
                // cannot pass the check.
                self.cycles = self.cycles.wrapping_add(1);
                let tag = (self.cycles % 4096) as f32;
                self.payload[..4].copy_from_slice(&tag.to_le_bytes());
                self.expect[..4].copy_from_slice(&saxpy_one(tag).to_le_bytes());
                let (ptr, data) = (self.ptr.expect("malloc came first"), &self.payload);
                m.call(Some("cudaMemcpyH2D"), Kind::H2d, SMALL, due, || {
                    sess.memcpy_h2d(ptr, data)
                })
            }
            2 => {
                let ptr = self.ptr.expect("malloc came first");
                let args = saxpy_args(ptr, SMALL / 4);
                m.call(Some("cudaLaunch"), Kind::Other, 0, due, || {
                    sess.launch("saxpy", Dim3::x(4), Dim3::x(256), 0, 0, &args)
                })
            }
            3 => {
                let (ptr, out) = (self.ptr.expect("malloc came first"), &mut self.out);
                let got = m.call(Some("cudaMemcpyD2H"), Kind::D2h, SMALL, due, || {
                    sess.memcpy_d2h_into(ptr, out)
                });
                if got.is_some() && self.out != self.expect {
                    m.mismatch("D2H after saxpy differs from the host result");
                }
                got
            }
            _ => {
                let ptr = self.ptr.take().expect("malloc came first");
                m.call(Some("cudaFree"), Kind::Other, 0, due, || sess.free(ptr))
            }
        };
        self.step = (self.step + 1) % 5;
        done.is_some()
    }

    fn close(mut self) -> SessionMetrics {
        let metrics = self.sess.metrics();
        let _ = self.sess.finalize();
        self.sess.finish();
        metrics
    }
}

fn burst(cycle: &mut Cycle, m: &mut Meter, len: Duration) -> bool {
    let end = Instant::now() + len;
    while Instant::now() < end {
        if !cycle.step(m, None) {
            return false;
        }
    }
    true
}

fn paced(cycle: &mut Cycle, m: &mut Meter, len: Duration, gap: Duration) -> bool {
    let schedule = Schedule {
        start: Instant::now(),
        gap,
    };
    let calls = (len.as_secs_f64() / gap.as_secs_f64()) as u64;
    for i in 0..calls {
        let release = schedule.wait(i);
        m.released(&release);
        if !cycle.step(m, Some(release.due)) {
            return false;
        }
    }
    true
}

fn calls_tcp(plan: &Plan, gap: Option<Duration>) -> Outcome {
    let mut out = Outcome::default();
    // Rigs list the client before the server, so a discarded set-up
    // closes its session before the daemon goes.
    let (mut cycle, server) = set_up(plan, &mut out.setup_s, || {
        let server = daemon(plan, 1, None);
        let sess = session(plan)
            .connect(Endpoint::Tcp(server.local_addr()))
            .expect("connect over loopback TCP");
        (Cycle::open(sess, plan.seed), server)
    });
    let before = cycle.sess.metrics();
    (out.rounds, out.attempted, out.failed) = timed_rounds(plan, gap, |m, len| match gap {
        Some(gap) => paced(&mut cycle, m, len, gap),
        None => burst(&mut cycle, m, len),
    });
    let after = cycle.close();
    out.counters.session = Some(SessionMetrics {
        bytes_sent: after.bytes_sent - before.bytes_sent,
        bytes_received: after.bytes_received - before.bytes_received,
        messages_sent: after.messages_sent - before.messages_sent,
        messages_received: after.messages_received - before.messages_received,
        calls: after.calls - before.calls,
        ..after
    });
    drop(server);
    out
}

fn calls_burst_channel(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut cycle = set_up(plan, &mut out.setup_s, || {
        // No sockets here, so both sides share the generators' CPU
        // (`connect` spawns the blocking server thread, which inherits it):
        // every hand-off is a context switch. Split, each one would wake a
        // halted virtual CPU, and the run-to-run spread doubles.
        plan.client_side();
        let sess = session(plan)
            .connect(Endpoint::Channel)
            .expect("connect the in-process channel");
        Cycle::open(sess, plan.seed)
    });
    (out.rounds, out.attempted, out.failed) =
        timed_rounds(plan, None, |m, len| burst(&mut cycle, m, len));
    cycle.close();
    out
}

// ------------------------------------------------------------------ bulk

fn bulk_tcp(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let data = Rng::new(plan.seed, "bulk payload").bytes(BULK);
    let mut back = vec![0u8; BULK];
    let (mut sess, ptr, server) = set_up(plan, &mut out.setup_s, || {
        let server = daemon(plan, 1, None);
        let mut sess = session(plan)
            .connect(Endpoint::Tcp(server.local_addr()))
            .expect("connect over loopback TCP");
        sess.initialize(&build_module(&[], 0)).expect("initialise");
        let ptr = sess.malloc(BULK as u32).expect("malloc 4 MiB");
        sess.memcpy_h2d(ptr, &data).expect("first copy");
        (sess, ptr, server)
    });
    (out.rounds, out.attempted, out.failed) = timed_rounds(plan, None, |m, len| {
        // Writes, then reads: one direction at a time, never alternating.
        let half = Instant::now() + len / 2;
        while Instant::now() < half {
            let copied = m.call(Some("cudaMemcpyH2D"), Kind::H2d, BULK, None, || {
                sess.memcpy_h2d(ptr, &data)
            });
            if copied.is_none() {
                return false;
            }
        }
        let end = half + len / 2;
        while Instant::now() < end {
            let copied = m.call(Some("cudaMemcpyD2H"), Kind::D2h, BULK, None, || {
                sess.memcpy_d2h_into(ptr, &mut back)
            });
            if copied.is_none() {
                return false;
            }
        }
        if back != data {
            m.mismatch("4 MiB read back differs from what was written");
        }
        true
    });
    out.counters.client_pool = Some(sess.pool_stats());
    let _ = sess.free(ptr);
    let _ = sess.finalize();
    sess.finish();
    drop(server);
    out
}

// ----------------------------------------------------------------- trunk

fn trunk_mixed(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(plan.seed, "trunk payload");
    let bulk = rng.half_compressible(TRUNK_BULK);
    let mut small = rng.bytes(SMALL);
    let (mut a, pa, mut b, pb, conn, server) = set_up(plan, &mut out.setup_s, || {
        let server = daemon(plan, 2, Some(TRUNK_TOKEN));
        let conn = session(plan)
            .auth(TRUNK_TOKEN)
            .cipher(CipherSuiteKind::ChaCha20)
            .codec(true)
            .connector(Endpoint::Tcp(server.local_addr()))
            .expect("open the trunk");
        let module = build_module(&[], 0);
        let mut a = conn.open().expect("open stream A");
        a.initialize(&module).expect("initialise stream A");
        let pa = a.malloc(TRUNK_BULK as u32).expect("malloc 1 MiB");
        a.memcpy_h2d(pa, &bulk).expect("first bulk copy");
        let mut b = conn.open().expect("open stream B");
        b.initialize(&module).expect("initialise stream B");
        let pb = b.malloc(SMALL as u32).expect("malloc 4 KiB");
        b.memcpy_h2d(pb, &small).expect("first small copy");
        (a, pa, b, pb, conn, server)
    });
    let mut bulk_back = vec![0u8; TRUNK_BULK];
    let mut small_back = vec![0u8; SMALL];
    let mut cycles = 0u32;
    (out.rounds, out.attempted, out.failed) = timed_rounds(plan, Some(TRUNK_GAP), |m, len| {
        // Stream A: back-to-back 1 MiB H2D on its own thread. Stream B
        // (this thread): one 4 KiB H2D every 4 ms, timed from its due time.
        let mut bulk_meter = Meter::new(m.sink.clone());
        let stop = AtomicBool::new(false);
        let ok = std::thread::scope(|s| {
            let bulk_thread = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let copied =
                        bulk_meter.call(Some("cudaMemcpyH2D"), Kind::H2d, TRUNK_BULK, None, || {
                            a.memcpy_h2d(pa, &bulk)
                        });
                    if copied.is_none() {
                        return false;
                    }
                }
                true
            });
            let schedule = Schedule {
                start: Instant::now(),
                gap: TRUNK_GAP,
            };
            let mut ok = true;
            for i in 0..(len.as_secs_f64() / TRUNK_GAP.as_secs_f64()) as u64 {
                let release = schedule.wait(i);
                m.released(&release);
                let due = release.due;
                cycles = cycles.wrapping_add(1);
                small[..4].copy_from_slice(&cycles.to_le_bytes());
                let copied = m.call(Some("cudaMemcpyH2D"), Kind::Other, SMALL, Some(due), || {
                    b.memcpy_h2d(pb, &small)
                });
                if copied.is_none() {
                    ok = false;
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            bulk_thread.join().expect("bulk generator panicked") && ok
        });
        // Both streams' device buffers must hold what was last sent. The
        // reads run after the generators stopped, so they are the only
        // traffic on the trunk; the bulk one is what d2h_MBps reports.
        for _ in 0..2 {
            bulk_meter.call(Some("cudaMemcpyD2H"), Kind::D2h, TRUNK_BULK, None, || {
                a.memcpy_d2h_into(pa, &mut bulk_back)
            });
        }
        if bulk_back != bulk {
            m.mismatch("stream A's 1 MiB read back differs from what was written");
        }
        if b.memcpy_d2h_into(pb, &mut small_back).is_err() || small_back != small {
            m.mismatch("stream B's 4 KiB read back differs from what was written");
        }
        m.h2d = bulk_meter.h2d;
        m.d2h = bulk_meter.d2h;
        m.attempted += bulk_meter.attempted;
        m.failed += bulk_meter.failed;
        m.untimed_calls = bulk_meter.lat.len() as u64;
        ok
    });
    out.counters.codec = a.codec_stats();
    for (mut sess, ptr) in [(a, pa), (b, pb)] {
        let _ = sess.free(ptr);
        let _ = sess.finalize();
        sess.finish();
    }
    conn.finish();
    drop(server);
    out
}

// ---------------------------------------------------------- case studies

/// A [`CudaRuntime`] that records a `bench.call` around every call the
/// case-study driver makes, so the traced run sees the jobs' inner calls.
struct Traced<'a> {
    inner: &'a mut dyn CudaRuntime,
    sink: &'a SpanSink,
    ordinal: u64,
}

impl Traced<'_> {
    fn span<R>(
        &mut self,
        op: &'static str,
        bytes: usize,
        f: impl FnOnce(&mut dyn CudaRuntime) -> R,
    ) -> R {
        let t0 = Instant::now();
        let result = f(self.inner);
        self.ordinal += 1;
        self.sink
            .bench_call(op, bytes as u64, self.ordinal, t0, Instant::now());
        result
    }
}

impl CudaRuntime for Traced<'_> {
    fn initialize(&mut self, module: &[u8]) -> CudaResult<()> {
        self.span("initialization", module.len(), |rt| rt.initialize(module))
    }
    fn device_properties(&mut self) -> CudaResult<DeviceProperties> {
        self.inner.device_properties()
    }
    fn malloc(&mut self, size: u32) -> CudaResult<DevicePtr> {
        self.span("cudaMalloc", 0, |rt| rt.malloc(size))
    }
    fn free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        self.span("cudaFree", 0, |rt| rt.free(ptr))
    }
    fn memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        self.span("cudaMemcpyH2D", data.len(), |rt| rt.memcpy_h2d(dst, data))
    }
    fn memcpy_d2h(&mut self, src: DevicePtr, size: u32) -> CudaResult<Vec<u8>> {
        self.span("cudaMemcpyD2H", size as usize, |rt| {
            rt.memcpy_d2h(src, size)
        })
    }
    fn memcpy_d2d(&mut self, dst: DevicePtr, src: DevicePtr, size: u32) -> CudaResult<()> {
        self.inner.memcpy_d2d(dst, src, size)
    }
    fn memset(&mut self, dst: DevicePtr, value: u8, size: u32) -> CudaResult<()> {
        self.inner.memset(dst, value, size)
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
        self.span("cudaLaunch", args.len(), |rt| {
            rt.launch(kernel, grid, block, shared_bytes, stream, args)
        })
    }
    fn thread_synchronize(&mut self) -> CudaResult<()> {
        self.span("cudaThreadSynchronize", 0, |rt| rt.thread_synchronize())
    }
    fn finalize(&mut self) -> CudaResult<()> {
        self.span("finalization", 0, |rt| rt.finalize())
    }
}

/// Which of the paper's two case studies a job runs.
#[derive(Clone, Copy)]
pub enum Case {
    Fft,
    Mm,
}

/// The job's seeded input(s) and the driver call over any runtime.
struct CaseJob {
    case: Case,
    a: Vec<u8>,
    b: Vec<u8>,
}

impl CaseJob {
    fn new(case: Case, seed: u64) -> CaseJob {
        let mut rng = Rng::new(seed, "case study input");
        match case {
            Case::Fft => CaseJob {
                case,
                a: rng.f32_bytes(FFT_BATCH as usize * 512 * 2),
                b: Vec::new(),
            },
            Case::Mm => CaseJob {
                case,
                a: rng.f32_bytes((MM_DIM * MM_DIM) as usize),
                b: rng.f32_bytes((MM_DIM * MM_DIM) as usize),
            },
        }
    }

    fn run(&self, rt: &mut dyn CudaRuntime) -> CudaResult<ExecReport> {
        let clock = wall_clock();
        match self.case {
            Case::Fft => run_fft_bytes(rt, &*clock, FFT_BATCH, &self.a),
            Case::Mm => run_matmul_bytes(rt, &*clock, MM_DIM, &self.a, &self.b),
        }
    }

    fn input_bytes(&self) -> usize {
        self.a.len() + self.b.len()
    }

    /// The same job on a GPU in this node: the reference every remote
    /// output must equal bit for bit.
    pub fn local(&self) -> ExecReport {
        let mut rt = LocalRuntime::new(GpuDevice::tesla_c1060_functional(), wall_clock());
        self.run(&mut rt).expect("local reference job")
    }
}

/// One local job of `case` on the seeded input (for the per-layer report).
pub fn local_job(case: Case, seed: u64) -> ExecReport {
    CaseJob::new(case, seed).local()
}

fn case_study(plan: &Plan, case: Case) -> Outcome {
    let mut out = Outcome::default();
    let job = CaseJob::new(case, plan.seed);
    let reference = job.local().output;
    let server = set_up(plan, &mut out.setup_s, || {
        let server = daemon(plan, 1, None);
        // Up to the point a job could start: one session opened and closed.
        let mut sess = session(plan)
            .connect(Endpoint::Tcp(server.local_addr()))
            .expect("connect over loopback TCP");
        sess.initialize(&build_module(&[], 0)).expect("initialise");
        let _ = sess.finalize();
        sess.finish();
        server
    });
    let addr = server.local_addr();
    (out.rounds, out.attempted, out.failed) = timed_rounds(plan, None, |m, len| {
        let end = Instant::now() + len;
        let mut jobs = 0;
        // At least one job per round, however short the round.
        while jobs == 0 || Instant::now() < end {
            jobs += 1;
            let sink = m.sink.clone();
            // A job is a fresh session: connect, the seven phases, close.
            let report = m.call(None, Kind::Other, 0, None, || {
                let mut sess = session(plan).connect(Endpoint::Tcp(addr))?;
                let report = match &sink {
                    Some(sink) => job.run(&mut Traced {
                        inner: &mut *sess,
                        sink,
                        ordinal: 0,
                    }),
                    None => job.run(&mut *sess),
                };
                sess.finish();
                report
            });
            let Some(report) = report else { return false };
            if report.output != reference {
                m.mismatch("remote job output differs from the local runtime's");
            }
            m.h2d.add(
                job.input_bytes(),
                Duration::from_nanos(report.phase("input transfer").as_nanos()),
            );
            m.d2h.add(
                reference.len(),
                Duration::from_nanos(report.phase("output transfer").as_nanos()),
            );
        }
        true
    });
    drop(server);
    out
}

// -------------------------------------------------------------- failover

/// A broker and three daemons registered with it, all on defaults.
struct Cluster {
    broker: Broker,
    daemons: Vec<RcudaDaemon>,
}

impl Cluster {
    fn start(plan: &Plan) -> Cluster {
        plan.server_side();
        let mut b = BrokerBuilder::new();
        if let Some(sink) = &plan.sink {
            b = b.observer(sink.handle());
        }
        let broker = b
            .bind(
                "127.0.0.1:0"
                    .parse::<SocketAddr>()
                    .expect("loopback address"),
            )
            .expect("bind a loopback broker");
        let daemons = (0..3)
            .map(|_| {
                let mut d = RcudaDaemon::builder().broker(broker.addr());
                if let Some(sink) = &plan.sink {
                    d = d.observer(sink.handle());
                }
                d.bind("127.0.0.1:0").expect("bind a loopback daemon")
            })
            .collect();
        assert!(
            broker.wait_for_daemons(3, Duration::from_secs(5)),
            "daemons did not register with the broker"
        );
        plan.client_side();
        Cluster { broker, daemons }
    }

    /// Kill the daemon holding session `token`; returns the kill instant
    /// and the address it was serving on.
    fn kill_owner(&mut self, token: u64) -> (Instant, String) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let owner = loop {
            if let Some(i) = self
                .daemons
                .iter()
                .position(|d| d.session_tokens().contains(&token))
            {
                break i;
            }
            assert!(Instant::now() < deadline, "no daemon reports the session");
            std::thread::sleep(Duration::from_millis(2));
        };
        let dead = self.daemons.remove(owner);
        let addr = dead.local_addr().to_string();
        let killed = Instant::now();
        drop(dead);
        (killed, addr)
    }
}

/// One failover trial's measurements.
pub struct Trial {
    pub setup: Duration,
    /// Kill to first verified call on a survivor; `None` if the session
    /// was lost (typed error) or the result was wrong.
    pub recovered: Option<Duration>,
    pub cpu: Duration,
    /// Kill to the broker's directory reporting the daemon `Down`.
    pub detected: Option<Duration>,
    pub metrics: SessionMetrics,
}

/// Run one trial: fresh cluster, a session holding device state, the owner
/// killed after `calls_before_kill` cycle calls, recovery timed.
fn failover_trial(plan: &Plan, calls_before_kill: u64, m: &mut Meter) -> Trial {
    let t_setup = Instant::now();
    let mut cluster = Cluster::start(plan);
    let sess = session(plan)
        .deadline(Duration::from_secs(2))
        .retries(3)
        .connect(Endpoint::Broker(cluster.broker.addr()))
        .expect("place a session through the broker");
    let mut cycle = Cycle::open(sess, plan.seed);
    let setup = t_setup.elapsed();

    // Device state the survivor must reproduce: uploaded, then scaled on
    // the device, so replaying only the uploads would not pass.
    let mut rng = Rng::new(plan.seed, "failover state");
    let floats = (1 << 20) / 4;
    let mut state = Vec::new();
    for _ in 0..STATE_BUFFERS {
        let data = rng.f32_bytes(floats);
        let sess = &mut cycle.sess;
        let Some(ptr) = m.call(Some("cudaMalloc"), Kind::Other, 0, None, || {
            sess.malloc(1 << 20)
        }) else {
            break;
        };
        m.call(Some("cudaMemcpyH2D"), Kind::H2d, data.len(), None, || {
            sess.memcpy_h2d(ptr, &data)
        });
        let args = saxpy_args(ptr, floats);
        m.call(Some("cudaLaunch"), Kind::Other, 0, None, || {
            sess.launch("saxpy", Dim3::x(1024), Dim3::x(256), 0, 0, &args)
        });
        state.push((ptr, saxpy_in_place(&data)));
    }
    // The seeded run of small calls before the kill goes through its own
    // meter: only the recovery is this workload's "call".
    let mut probe = Meter::new(m.sink.clone());
    for _ in 0..calls_before_kill {
        cycle.step(&mut probe, None);
    }
    m.attempted += probe.attempted;
    m.failed += probe.failed;
    let token = cycle
        .sess
        .session_token()
        .expect("a broker session has a token");

    let (killed, dead_addr) = cluster.kill_owner(token);
    let cpu0 = process_cpu();
    // The next call meets the dead socket, re-places through the broker
    // and replays the journal on a survivor.
    let mut back = vec![0u8; 1 << 20];
    let mut lost = false;
    let mut recovered = None;
    let mut cpu = Duration::ZERO;
    // The first read is the recovery, timed from the kill; the rest of the
    // state follows, and a second pass over all of it gives d2h_MBps
    // enough bytes to be steady.
    for (i, (ptr, expect)) in state.iter().chain(state.iter()).enumerate() {
        let sess = &mut cycle.sess;
        let (kind, since) = if i == 0 {
            (Kind::Other, Some(killed))
        } else {
            (Kind::D2h, None)
        };
        let mut typed_loss = false;
        let read = m.call(Some("cudaMemcpyD2H"), kind, back.len(), since, || {
            sess.memcpy_d2h_into(*ptr, &mut back)
                .inspect_err(|e| typed_loss = *e == CudaError::SessionLost)
        });
        if read.is_none() {
            // A typed SessionLost is the one legitimate way to fail.
            m.lost += u64::from(typed_loss);
            lost = true;
            break;
        }
        if back != *expect {
            m.mismatch("state read back after failover differs");
        } else if i == 0 {
            cpu = process_cpu() - cpu0;
            recovered = Some(killed.elapsed());
        }
    }
    if killed.elapsed() > RECOVERY_LIMIT {
        m.mismatch("failover took longer than the 10 s limit");
    }
    // How long the broker itself took to notice (polled; it may already
    // have by the time the client recovered).
    let detected = {
        let deadline = killed + RECOVERY_LIMIT;
        loop {
            let down = cluster
                .broker
                .daemons()
                .iter()
                .any(|d| d.addr == dead_addr && d.state == DaemonState::Down);
            if down {
                break Some(killed.elapsed());
            }
            if Instant::now() > deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let metrics = if lost {
        cycle.sess.metrics()
    } else {
        cycle.close()
    };
    Trial {
        setup,
        recovered,
        cpu,
        detected,
        metrics,
    }
}

/// All failover trials of a run, exposed for the per-layer report.
pub fn failover_trials(plan: &Plan, m_out: &mut Outcome) -> Vec<Trial> {
    let mut rng = Rng::new(plan.seed, "failover kill point");
    let mut trials = Vec::new();
    for _ in 0..plan.trials {
        let mut meter = Meter::new(plan.sink.clone());
        let trial = failover_trial(plan, rng.range(20, 60), &mut meter);
        m_out.setup_s.push(trial.setup.as_secs_f64());
        m_out.attempted += meter.attempted;
        m_out.failed += meter.failed;
        m_out.lost += meter.lost;
        m_out.counters.session = Some(trial.metrics);
        // Each trial is a round of one call (the recovery); its "wall" is
        // the outage, so calls_per_s reads as recoveries per second of it.
        if let Some(recovered) = trial.recovered {
            m_out.rounds.push(Round {
                wall: recovered,
                cpu: trial.cpu,
                calls: 1,
                lat: vec![recovered.as_nanos() as u64],
                h2d: meter.h2d,
                d2h: meter.d2h,
                late: Vec::new(),
                valid: true,
            });
        }
        trials.push(trial);
    }
    trials
}

/// Run the workload called `name`; afterwards the calling thread may run
/// anywhere again.
pub fn run(name: &str, plan: &Plan) -> Option<Outcome> {
    if !WORKLOADS.iter().any(|(n, _)| *n == name) {
        return None;
    }
    let out = match name {
        "calls_burst_tcp" => calls_tcp(plan, None),
        "calls_paced_tcp" => calls_tcp(plan, Some(PACED_GAP)),
        "calls_burst_channel" => calls_burst_channel(plan),
        "bulk_tcp" => bulk_tcp(plan),
        "trunk_mixed" => trunk_mixed(plan),
        "case_fft" => case_study(plan, Case::Fft),
        "case_mm" => case_study(plan, Case::Mm),
        _ => {
            let mut out = Outcome::default();
            failover_trials(plan, &mut out);
            out
        }
    };
    if let Some(p) = &plan.placement {
        p.release();
    }
    Some(out)
}
