//! Per-layer metrics, measured from outside: each probe times calls into
//! one layer's public functions (median over batches of iterations), reads
//! a counter a public snapshot already exposes, or takes a quantity from
//! the traced round's spans. The prefix of a metric is the crate it probes.
//! Which end-to-end metric each should move is tabulated in `README.md`.
//!
//! Every traced run reports all of them, so the probes are sized to finish
//! in about ten seconds together: each stops at [`PROBE_ITERS`] iterations
//! or [`PROBE_BUDGET`], whichever comes first.

use crate::cpu::process_cpu;
use crate::gen::Rng;
use crate::report::Metric;
use crate::stats;
use crate::trace::{Anatomy, SpanSink};
use crate::workloads::{self, Case, Outcome, Plan};
use rcuda::api::CudaRuntime;
use rcuda::broker::{BrokerBuilder, BrokerClient, Directory, HealthPolicy, PlacementPolicy};
use rcuda::client::RemoteRuntime;
use rcuda::core::{wall_clock, ArgPack, Dim3};
use rcuda::gpu::module::build_module;
use rcuda::gpu::GpuDevice;
use rcuda::kernels::complex::bytes_to_complex;
use rcuda::kernels::fft::fft_batch_512;
use rcuda::kernels::matrix::sgemm_tiled_gpu;
use rcuda::obs::{CallSpan, ObsHandle, Op, Recorder};
use rcuda::proto::broker::Heartbeat;
use rcuda::proto::handshake::{read_hello_reply, ServerHello, SessionHello};
use rcuda::proto::ids::MemcpyKind;
use rcuda::proto::mux::{FrameHeader, FrameKind, CHUNK};
use rcuda::proto::secure::{auth_proof, CipherSuiteKind};
use rcuda::proto::{BufferPool, Codec, CodecMode, Payload, Request, Response, StreamDecoder};
use rcuda::server::dispatch::dispatch_pooled;
use rcuda::server::{serve_connection, RcudaDaemon, ServerConfig};
use rcuda::session::{Endpoint, Session};
use rcuda::transport::{channel_pair, MuxConfig, MuxPeer, TcpTransport, Transport, TransportStats};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const PROBE_ITERS: usize = 2000;
const PROBE_BUDGET: Duration = Duration::from_millis(200);
const KIB4: usize = 4096;
const MIB: usize = 1 << 20;
const MIB4: usize = 4 << 20;
/// Gap between the paced round trips of the wake-up probes (the
/// `calls_paced_tcp` rate: the server is idle when each arrives).
const RTT_GAP: Duration = Duration::from_millis(2);

/// Median nanoseconds per call of `f`. Calls are timed `batch` at a time
/// (so a 20 ns operation is not lost in the clock reads around it) until
/// [`PROBE_ITERS`] calls or [`PROBE_BUDGET`] have gone by.
fn median_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() * batch < PROBE_ITERS
        && (samples.len() < 5 || started.elapsed() < PROBE_BUDGET)
    {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&samples)
}

/// Megabytes per second when one call moving `bytes` takes `ns`.
fn mbps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 * 1e3 / ns
}

/// Metrics read off the traced round's spans (mean per call / per pass).
pub fn from_trace(a: &Anatomy, out: &Outcome) -> Vec<Metric> {
    let late = out
        .rounds
        .first()
        .filter(|r| !r.late.is_empty())
        .map_or(0, |r| r.late[stats::tail_rank(r.late.len()) - 1]);
    vec![
        Metric::new("bench.call_us", a.per_call_us(a.bench_total), "us"),
        Metric::new(
            "bench.unattributed_pct",
            100.0 * a.unattributed_share(),
            "%",
        ),
        Metric::new("bench.late_tail_us", late as f64 / 1e3, "us"),
        Metric::new("client.call_self_us", a.per_call_us(a.client_self), "us"),
        Metric::new("transport.msg_self_us", a.per_call_us(a.msg_self), "us"),
        Metric::new(
            "transport.request_wait_us",
            a.per_call_us(a.request_wait),
            "us",
        ),
        Metric::new("transport.reply_wait_us", a.per_call_us(a.reply_wait), "us"),
        Metric::new("server.queue_wait_us", a.per_call_us(a.queue_wait), "us"),
        Metric::new("server.service_us", a.per_call_us(a.dispatch), "us"),
        Metric::new(
            "server.shard_pass_us",
            a.pass_self as f64 / 1e3 / a.passes.max(1) as f64,
            "us",
        ),
        Metric::new(
            "server.frames_per_pass",
            a.frames as f64 / a.passes.max(1) as f64,
            "count",
        ),
    ]
}

/// Run every probe, peers placed as in the split workloads.
pub fn probe(plan: &Plan) -> Vec<Metric> {
    let mut m = Vec::new();
    proto(plan, &mut m);
    transport(plan, &mut m);
    client(&mut m);
    server(plan, &mut m);
    gpu(&mut m);
    kernels_and_api(plan, &mut m);
    broker(plan, &mut m);
    obs(plan, &mut m);
    from_quick_workloads(plan, &mut m);
    if let Some(p) = &plan.placement {
        p.release();
    }
    m
}

fn h2d_request(payload: &[u8], dst: u32) -> Request {
    Request::Memcpy {
        dst,
        src: 0,
        size: payload.len() as u32,
        kind: MemcpyKind::HostToDevice,
        data: Some(Payload::Owned(payload.to_vec())),
    }
}

fn proto(plan: &Plan, m: &mut Vec<Metric>) {
    let mut rng = Rng::new(plan.seed, "layer probes");
    let pool = BufferPool::new();

    for (bytes, encode, decode) in [
        (
            KIB4,
            Some("proto.encode_4k_ns"),
            ("proto.decode_4k_ns", 1.0, "ns"),
        ),
        (MIB4, None, ("proto.decode_4m_us", 1e3, "us")),
    ] {
        let req = h2d_request(&rng.bytes(bytes), 0x1000);
        let mut wire = Vec::with_capacity(bytes + 64);
        if let Some(name) = encode {
            let ns = median_ns(16, || {
                wire.clear();
                req.write(&mut wire).expect("encode into a Vec");
            });
            m.push(Metric::new(name, ns, "ns"));
        }
        wire.clear();
        req.write(&mut wire).expect("encode into a Vec");
        let mut decoder = StreamDecoder::new();
        let ns = median_ns(if bytes == KIB4 { 16 } else { 1 }, || {
            decoder.feed(&wire);
            let frame = decoder.poll_frame(Some(&pool)).expect("well-formed frame");
            assert!(black_box(frame).is_some(), "a whole frame was fed");
        });
        m.push(Metric::new(decode.0, ns / decode.1, decode.2));
    }

    let ns = median_ns(64, || drop(black_box(pool.get(KIB4))));
    m.push(Metric::new("proto.pool_get_put_ns", ns, "ns"));

    let ns = median_ns(64, || {
        let header = FrameHeader {
            stream_id: 1,
            kind: FrameKind::Data {
                end_of_message: false,
            },
            len: CHUNK as u32,
        };
        let wire = black_box(header.to_wire());
        black_box(FrameHeader::from_wire(wire).expect("own header"));
    });
    m.push(Metric::new("proto.mux_frame_ns", ns, "ns"));

    let mut mib = rng.bytes(MIB);
    let mut cipher = CipherSuiteKind::ChaCha20
        .instantiate(&[7u8; 32], 1, 0)
        .expect("ChaCha20 is a real suite");
    let ns = median_ns(1, || cipher.apply(black_box(&mut mib)));
    m.push(Metric::new("proto.chacha20_MBps", mbps(MIB, ns), "MB/s"));

    // The trunk workload's payload through the codec, forced on so the
    // probe measures LZ4 itself rather than the policy's decision.
    let trunk = Rng::new(plan.seed, "trunk payload").half_compressible(MIB);
    let codec = Codec::with_mode(BufferPool::new(), CodecMode::Always);
    let ns = median_ns(1, || drop(black_box(codec.encode(&trunk))));
    m.push(Metric::new(
        "proto.codec_encode_MBps",
        mbps(MIB, ns),
        "MB/s",
    ));
    m.push(Metric::new(
        "proto.codec_ratio",
        codec.stats().ratio(),
        "ratio",
    ));
    let mut block = Vec::new();
    codec
        .write_block(&mut block, &trunk)
        .expect("encode into a Vec");
    let ns = median_ns(1, || {
        let back = codec.read_block(&mut &block[..], MIB).expect("own block");
        black_box(back);
    });
    m.push(Metric::new(
        "proto.codec_decode_MBps",
        mbps(MIB, ns),
        "MB/s",
    ));
    // The adaptive policy declining incompressible bytes (entropy probe,
    // then its back-off): what `bulk_tcp`-like traffic pays with codec on.
    let adaptive = Codec::new(BufferPool::new());
    let ns = median_ns(4, || {
        assert!(
            adaptive.encode(&mib).is_none(),
            "random bytes must be declined"
        )
    });
    m.push(Metric::new("proto.codec_decline_ns", ns, "ns"));

    let ns = median_ns(4, || {
        black_box(auth_proof(b"rcuda-perf-trunk", &[1; 16], &[2; 16]));
    });
    m.push(Metric::new("proto.hmac_auth_us", ns / 1e3, "us"));
}

/// Ping-pong `msg` bytes over `t` and return the median round trip in ns.
fn ping_pong(t: &mut (impl Read + Write), msg: usize) -> f64 {
    let out = vec![0x5a; msg];
    let mut back = vec![0; msg];
    median_ns(1, || {
        t.write_all(&out).expect("ping");
        t.flush().expect("ping flush");
        t.read_exact(&mut back).expect("pong");
    })
}

/// Echo `msg`-byte messages until the peer goes away.
fn echo(mut t: impl Read + Write, msg: usize) {
    let mut buf = vec![0; msg];
    while t.read_exact(&mut buf).is_ok() {
        if t.write_all(&buf).and_then(|()| t.flush()).is_err() {
            break;
        }
    }
}

/// Peers run on the server CPU and the probing thread on the generators',
/// as in the workloads, so a round trip includes a cross-CPU wake-up.
fn transport(plan: &Plan, m: &mut Vec<Metric>) {
    const MSG: usize = 64;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|s| {
        // Raw TCP transport against blocking peers (no server): round trip
        // of a small message, then one-way streaming of 4 MiB writes.
        plan.server_side();
        s.spawn(|| {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            echo(stream, MSG);
            let (mut stream, _) = listener.accept().expect("accept");
            let mut sink = vec![0; 1 << 16];
            while stream.read(&mut sink).is_ok_and(|n| n > 0) {}
        });
        plan.client_side();
        let mut t = TcpTransport::connect(addr).expect("connect");
        m.push(Metric::new(
            "transport.tcp_rtt_64b_us",
            ping_pong(&mut t, MSG) / 1e3,
            "us",
        ));
        drop(t);
        let mut t = TcpTransport::connect(addr).expect("connect");
        let chunk = vec![0xa5; MIB4];
        let ns = median_ns(1, || {
            t.write_all(&chunk).expect("stream");
            t.flush().expect("stream flush");
        });
        m.push(Metric::new(
            "transport.tcp_stream_MBps",
            mbps(MIB4, ns),
            "MB/s",
        ));
    });

    let (mut near, far) = channel_pair();
    std::thread::scope(|s| {
        plan.server_side();
        s.spawn(|| echo(far, MSG));
        plan.client_side();
        m.push(Metric::new(
            "transport.channel_rtt_64b_us",
            ping_pong(&mut near, MSG) / 1e3,
            "us",
        ));
        drop(near);
    });

    // A mux sub-stream over TCP: framing, demux thread and fair writer on
    // both ends, cleartext.
    let config = || MuxConfig {
        cipher: CipherSuiteKind::None,
        key: [0; 32],
        pool: BufferPool::new(),
        obs: ObsHandle::none(),
    };
    let client = TcpStream::connect(addr).expect("connect");
    let (served, _) = listener.accept().expect("accept");
    let split = |stream: TcpStream| {
        stream.set_nodelay(true).expect("nodelay");
        let t: Box<dyn Transport> =
            Box::new(TcpTransport::from_stream(stream).expect("wrap stream"));
        t.into_split().expect("TCP splits")
    };
    plan.server_side();
    let (read, write) = split(served);
    let server_peer = MuxPeer::server(read, write, config(), |stream| {
        std::thread::spawn(move || echo(stream, MSG));
    });
    plan.client_side();
    let (read, write) = split(client);
    let client_peer = MuxPeer::client(read, write, config());
    let mut stream = client_peer.open_stream().expect("open a sub-stream");
    m.push(Metric::new(
        "transport.mux_rtt_64b_us",
        ping_pong(&mut stream, MSG) / 1e3,
        "us",
    ));
    drop(stream);
    drop(client_peer);
    drop(server_peer);
}

/// A transport that answers every flushed request at once with a success
/// code, so a call through it costs the client runtime's own work only.
struct Scripted {
    replies: Vec<u8>,
    read_at: usize,
    stats: rcuda::transport::TransportStats,
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.replies.len() - self.read_at);
        buf[..n].copy_from_slice(&self.replies[self.read_at..self.read_at + n]);
        self.read_at += n;
        Ok(n)
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        black_box(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        // One request went out: queue its 4-byte `cudaSuccess`.
        self.replies.clear();
        self.replies.extend_from_slice(&0u32.to_le_bytes());
        self.read_at = 0;
        Ok(())
    }
}

impl Transport for Scripted {
    fn stats(&self) -> TransportStats {
        self.stats
    }
}

fn client(m: &mut Vec<Metric>) {
    let scripted = Scripted {
        replies: ServerHello::Ready { major: 1, minor: 3 }.to_wire().to_vec(),
        read_at: 0,
        stats: TransportStats::default(),
    };
    let mut rt = RemoteRuntime::new(scripted, wall_clock());
    rt.initialize(&build_module(&[], 0))
        .expect("scripted initialise");
    let data = vec![0x42u8; KIB4];
    let dst = rcuda::core::DevicePtr::new(0x1000);
    let ns = median_ns(16, || rt.memcpy_h2d(dst, &data).expect("scripted H2D"));
    m.push(Metric::new("client.null_roundtrip_4k_ns", ns, "ns"));
}

/// Hand-written session on `t`: handshake, then malloc/free round trips
/// paced [`RTT_GAP`] apart; the median malloc round trip in ns.
fn paced_malloc_rtt(t: &mut (impl Read + Write)) -> f64 {
    ServerHello::read(t).expect("capability push");
    SessionHello::Fresh {
        module: build_module(&[], 0),
    }
    .write(t)
    .and_then(|()| t.flush())
    .expect("send the module");
    read_hello_reply(t)
        .expect("hello reply")
        .expect("session accepted");
    let mut exchange = |req: &Request| {
        req.write(t).and_then(|()| t.flush()).expect("send request");
        Response::read(t, req).expect("read response")
    };
    let mut samples = Vec::new();
    for _ in 0..100 {
        std::thread::sleep(RTT_GAP);
        let malloc = Request::Malloc { size: 64 };
        let t0 = Instant::now();
        let resp = exchange(&malloc);
        samples.push(t0.elapsed().as_nanos() as f64);
        let ptr = resp.into_malloc().expect("malloc succeeds");
        exchange(&Request::Free { ptr });
    }
    let quit = Request::Quit;
    let _ = quit.write(t).and_then(|()| t.flush());
    stats::median(&samples)
}

fn server(plan: &Plan, m: &mut Vec<Metric>) {
    let device = GpuDevice::tesla_c1060_functional();
    let pool = BufferPool::new();
    let mut ctx = device.create_context(wall_clock(), true);
    ctx.load_module(&build_module(&[], 0)).expect("load module");
    let ptr = ctx.malloc(KIB4 as u32).expect("malloc");
    let h2d = h2d_request(&vec![0x42; KIB4], ptr.addr());
    let ns = median_ns(16, || {
        drop(black_box(dispatch_pooled(&mut ctx, &h2d, Some(&pool))))
    });
    m.push(Metric::new("server.dispatch_h2d_4k_ns", ns, "ns"));
    let ns = median_ns(16, || {
        let got = dispatch_pooled(
            &mut ctx,
            &Request::Malloc { size: KIB4 as u32 },
            Some(&pool),
        );
        let ptr = got
            .expect("a response")
            .into_malloc()
            .expect("malloc succeeds");
        black_box(dispatch_pooled(
            &mut ctx,
            &Request::Free { ptr },
            Some(&pool),
        ));
    });
    m.push(Metric::new("server.dispatch_malloc_free_ns", ns, "ns"));
    drop(ctx);

    // The same paced round trip against the reactor and against the
    // blocking worker: the difference is the shard noticing the request.
    plan.server_side();
    let daemon = RcudaDaemon::builder()
        .device(device.clone())
        .shards(1)
        .bind("127.0.0.1:0")
        .expect("bind a loopback daemon");
    plan.client_side();
    let mut t = daemon.connect_in_process();
    m.push(Metric::new(
        "server.reactor_rtt_us",
        paced_malloc_rtt(&mut t) / 1e3,
        "us",
    ));
    drop(t);
    let (mut near, far) = channel_pair();
    std::thread::scope(|s| {
        plan.server_side();
        s.spawn(|| serve_connection(far, &device, wall_clock(), &ServerConfig::default()));
        plan.client_side();
        m.push(Metric::new(
            "server.blocking_rtt_us",
            paced_malloc_rtt(&mut near) / 1e3,
            "us",
        ));
        drop(near);
    });

    let addr = daemon.local_addr();
    let mut opens = Vec::new();
    for _ in 0..100 {
        let t0 = Instant::now();
        let mut sess = Session::builder()
            .connect(Endpoint::Tcp(addr))
            .expect("connect");
        sess.initialize(&build_module(&[], 0)).expect("initialise");
        sess.finalize().expect("finalise");
        opens.push(t0.elapsed().as_nanos() as f64);
        sess.finish();
    }
    m.push(Metric::new(
        "server.session_open_us",
        stats::median(&opens) / 1e3,
        "us",
    ));

    // One connected, idle session: what the daemon's threads burn waiting.
    let mut sess = Session::builder()
        .connect(Endpoint::Tcp(addr))
        .expect("connect");
    sess.initialize(&build_module(&[], 0)).expect("initialise");
    std::thread::sleep(Duration::from_millis(50));
    let (cpu0, t0) = (process_cpu(), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let pct = 100.0 * (process_cpu() - cpu0).as_secs_f64() / t0.elapsed().as_secs_f64();
    m.push(Metric::new("server.idle_cpu_pct", pct, "%"));
    let _ = sess.finalize();
    sess.finish();
}

fn gpu(m: &mut Vec<Metric>) {
    let device = GpuDevice::tesla_c1060_functional();
    let mut ctx = device.create_context(wall_clock(), true);
    ctx.load_module(&build_module(&["saxpy"], 0))
        .expect("load module");
    let big = ctx.malloc(MIB4 as u32).expect("malloc");
    let data = vec![0x42u8; MIB4];
    let mut back = vec![0u8; MIB4];
    let ns = median_ns(1, || ctx.memcpy_h2d(big, &data).expect("h2d"));
    m.push(Metric::new(
        "gpu.memcpy_h2d_4m_MBps",
        mbps(MIB4, ns),
        "MB/s",
    ));
    let ns = median_ns(1, || ctx.memcpy_d2h_into(big, &mut back).expect("d2h"));
    m.push(Metric::new(
        "gpu.memcpy_d2h_into_4m_MBps",
        mbps(MIB4, ns),
        "MB/s",
    ));
    let ns = median_ns(16, || {
        let p = ctx.malloc(KIB4 as u32).expect("malloc");
        ctx.free(p).expect("free");
    });
    m.push(Metric::new("gpu.malloc_free_ns", ns, "ns"));
    let small = ctx.malloc(KIB4 as u32).expect("malloc");
    ctx.memset(small, 0, KIB4 as u32).expect("memset");
    let args = ArgPack::new()
        .push_f32(0.5)
        .push_ptr(small)
        .push_ptr(small)
        .push_u32((KIB4 / 4) as u32)
        .into_bytes();
    let ns = median_ns(16, || {
        ctx.launch("saxpy", Dim3::x(4), Dim3::x(256), &args, 0)
            .expect("launch")
    });
    m.push(Metric::new("gpu.launch_4k_ns", ns, "ns"));
}

/// Median milliseconds of three runs of `f` (for work of tens of ms).
fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

fn kernels_and_api(plan: &Plan, m: &mut Vec<Metric>) {
    let mut rng = Rng::new(plan.seed, "layer probes: kernels");
    // Transformed in place over and over: three passes scale the values by
    // 512^1.5, far from overflow, and the probe times no copy.
    let mut signal =
        bytes_to_complex(&rng.f32_bytes(2048 * 512 * 2)).expect("whole complex values");
    let ms = median_ms(|| fft_batch_512(black_box(&mut signal)));
    m.push(Metric::new("kernels.fft_2048_ms", ms, "ms"));
    let n = workloads::MM_DIM as usize;
    let floats = |bytes: Vec<u8>| -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    };
    let (a, b) = (floats(rng.f32_bytes(n * n)), floats(rng.f32_bytes(n * n)));
    let mut c = vec![0.0f32; n * n];
    let ms = median_ms(|| sgemm_tiled_gpu(n, n, n, &a, &b, black_box(&mut c)));
    m.push(Metric::new("kernels.sgemm_384_ms", ms, "ms"));
    for (case, name) in [
        (Case::Fft, "api.local_fft_ms"),
        (Case::Mm, "api.local_mm_ms"),
    ] {
        let ms = median_ms(|| {
            black_box(workloads::local_job(case, plan.seed));
        });
        m.push(Metric::new(name, ms, "ms"));
    }
}

fn broker(plan: &Plan, m: &mut Vec<Metric>) {
    let mut dir = Directory::new(
        PlacementPolicy::LeastLoaded,
        HealthPolicy::default(),
        ObsHandle::none(),
    );
    let now = Instant::now();
    for i in 0..3u64 {
        let id = dir.register(&format!("10.0.0.{i}:8000"), 4 << 30, now);
        dir.heartbeat(
            id,
            &Heartbeat {
                live_sessions: i as u32,
                parked: 0,
                free_bytes: (4 << 30) - i * (64 << 20),
                served: i,
                draining: false,
                sessions: vec![i + 1000],
            },
            now,
        );
    }
    let mut session = 0u64;
    let ns = median_ns(16, || {
        session += 1;
        black_box(dir.place(session));
    });
    m.push(Metric::new("broker.place_ns", ns, "ns"));

    plan.server_side();
    let broker = BrokerBuilder::new()
        .bind("127.0.0.1:0".parse().expect("loopback address"))
        .expect("bind a loopback broker");
    let _daemon = RcudaDaemon::builder()
        .broker(broker.addr())
        .bind("127.0.0.1:0")
        .expect("bind a loopback daemon");
    assert!(
        broker.wait_for_daemons(1, Duration::from_secs(5)),
        "daemon did not register"
    );
    plan.client_side();
    // What a (re)connect pays: dial the broker, ask, hang up.
    let ns = median_ns(1, || {
        let mut c = BrokerClient::connect(broker.addr(), None).expect("dial the broker");
        assert_eq!(c.place(0).expect("placement").len(), 1);
    });
    m.push(Metric::new("broker.place_rtt_us", ns / 1e3, "us"));
}

fn obs(plan: &Plan, m: &mut Vec<Metric>) {
    let recorder = Recorder::new();
    let handle = recorder.handle();
    let span = CallSpan {
        op: Op::Named("cudaMalloc"),
        bytes_sent: 8,
        bytes_received: 8,
        start: rcuda::core::SimTime::ZERO,
        end: rcuda::core::SimTime::from_nanos(10),
        retries: 0,
    };
    let ns = median_ns(64, || handle.emit_call(black_box(&span)));
    m.push(Metric::new("obs.emit_span_ns", ns, "ns"));

    // The bypass workload with and without observers armed: what tracing
    // itself costs the calls it traces.
    let quick = quick_plan(plan);
    let rate = |plan: &Plan| {
        let out = workloads::run("calls_burst_channel", plan).expect("known workload");
        let r = &out.rounds[0];
        r.calls as f64 / r.wall.as_secs_f64()
    };
    let untraced = rate(&quick);
    let traced = rate(&Plan {
        sink: Some(SpanSink::new()),
        ..quick
    });
    m.push(Metric::new(
        "obs.armed_overhead_pct",
        100.0 * (untraced - traced) / untraced,
        "%",
    ));
}

fn quick_plan(plan: &Plan) -> Plan {
    Plan {
        rounds: 1,
        round: Duration::from_millis(300),
        warmup: Duration::from_millis(100),
        setups: 1,
        trials: 1,
        sink: None,
        ..plan.clone()
    }
}

/// Counters the public snapshots expose after a short run of a workload.
fn from_quick_workloads(plan: &Plan, m: &mut Vec<Metric>) {
    let quick = quick_plan(plan);
    let run = |name: &str| workloads::run(name, &quick).expect("known workload");

    // Exact per-call wire counts of the small-call cycle (Table I sizes).
    let s = run("calls_burst_tcp")
        .counters
        .session
        .expect("session counters");
    m.push(Metric::new(
        "transport.msgs_per_call",
        s.messages_sent as f64 / s.calls as f64,
        "count",
    ));
    m.push(Metric::new(
        "transport.bytes_per_call",
        (s.bytes_sent + s.bytes_received) as f64 / s.calls as f64,
        "B",
    ));

    let pool = run("bulk_tcp").counters.client_pool.expect("pool counters");
    m.push(Metric::new("proto.pool_hit_rate", pool.hit_rate(), "ratio"));

    let codec = run("trunk_mixed").counters.codec;
    let compressed = codec.map_or(0.0, |c| c.compressed as f64 / c.decisions().max(1) as f64);
    m.push(Metric::new(
        "proto.codec_compressed_share",
        compressed,
        "ratio",
    ));

    for (name, metric) in [
        ("case_fft", "api.fft_transfer_ms"),
        ("case_mm", "api.mm_transfer_ms"),
    ] {
        let out = run(name);
        let r = &out.rounds[0];
        let ms = (r.h2d.nanos + r.d2h.nanos) as f64 / 1e6 / r.calls as f64;
        m.push(Metric::new(metric, ms, "ms"));
    }

    let mut out = Outcome::default();
    let trials = workloads::failover_trials(&quick, &mut out);
    let trial = &trials[0];
    m.push(Metric::new(
        "client.retries",
        trial.metrics.retries as f64,
        "count",
    ));
    m.push(Metric::new(
        "client.reconnects",
        trial.metrics.reconnects as f64,
        "count",
    ));
    // Never detected within the trial's 10 s limit reads as that limit.
    let detect = trial.detected.unwrap_or(workloads::RECOVERY_LIMIT);
    m.push(Metric::new(
        "broker.detect_ms",
        detect.as_secs_f64() * 1e3,
        "ms",
    ));
}
