//! The adaptive wire codec, measured end to end — and validated against the
//! §V compression model closed-loop.
//!
//! Three experiments, all through the real middleware:
//!
//! 1. **Per-class ratio/goodput** — fresh codec sessions over simulated
//!    GigaE (`CodecMode::Always`) push dense-random, sparse and structured
//!    payloads at 4 KiB / 64 KiB / 1 MiB; the virtual clock charges exactly
//!    the bytes that cross the wire, so effective goodput and achieved
//!    ratio fall out per class.
//! 2. **Acceptance gates** — compressible 1 MiB payloads over simulated
//!    GigaE must move at ≥ 1.5× the raw link; incompressible random floats
//!    over loopback TCP with the *adaptive* codec must cost ≤ 3% versus a
//!    codec-less session (the policy must decline, cheaply).
//! 3. **Closed-loop model check** — the measured sparse-1 MiB virtual time
//!    must match `app_transfer(head + enc_len)` + ack arithmetic built from
//!    the codec's own achieved ratio, tying `rcuda_netsim::CompressionModel`
//!    to the running system.
//!
//! A plain `harness = false` program: every gate is an `assert!`, so the
//! exit status is the result. Raw codec throughput is `rcuda-perf`'s
//! (`proto.codec_encode_MBps`, `proto.codec_decode_MBps`,
//! `proto.codec_decline_ns`).

use rand::{rngs::StdRng, RngCore, SeedableRng};
use rcuda::api::CudaRuntime;
use rcuda::core::Clock as _;
use rcuda::netsim::NetworkId;
use rcuda::proto::CodecMode;
use rcuda::session::{Endpoint, Session};
use rcuda_client::RemoteRuntime;
use rcuda_core::time::wall_clock;
use rcuda_gpu::GpuDevice;
use rcuda_server::RcudaDaemon;
use rcuda_transport::TcpTransport;
use std::time::Instant;

const SIZES: [usize; 3] = [4 * 1024, 64 * 1024, 1024 * 1024];
const SIM_ITERS: usize = 8;
const TCP_ITERS: usize = 8;
const TCP_ROUNDS: usize = 61;

#[derive(Clone, Copy)]
enum Kind {
    Dense,
    Sparse,
    Structured,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Dense, Kind::Sparse, Kind::Structured];

    fn label(self) -> &'static str {
        match self {
            Kind::Dense => "dense-random-f32",
            Kind::Sparse => "sparse-zero-runs",
            Kind::Structured => "structured-records",
        }
    }

    /// Deterministic payload of this class.
    fn payload(self, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ len as u64);
        match self {
            // Full-entropy bytes: what a dense random f32 matrix looks like
            // to a byte-level matcher.
            Kind::Dense => {
                let mut buf = vec![0u8; len];
                rng.fill_bytes(&mut buf);
                buf
            }
            // ~90% zero runs with scattered nonzero words (iterative-solver
            // style sparsity).
            Kind::Sparse => {
                let mut buf = vec![0u8; len];
                let mut i = 0;
                while i + 4 <= len {
                    let mut word = [0u8; 4];
                    rng.fill_bytes(&mut word);
                    buf[i..i + 4].copy_from_slice(&word);
                    i += 40; // one live word per ten
                }
                buf
            }
            // A 64-byte record with a random half and a fixed half,
            // repeated — record streams, padded tensors.
            Kind::Structured => {
                let mut record = [0u8; 64];
                rng.fill_bytes(&mut record[..32]);
                let mut buf = vec![0u8; len];
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = record[i % 64];
                }
                // Perturb every record's first byte so the stream is not one
                // giant match.
                let mut i = 0;
                while i < len {
                    buf[i] = buf[i].wrapping_add((i / 64) as u8);
                    i += 64;
                }
                buf
            }
        }
    }
}

fn gbps(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / secs / 1e9
}

/// Push `SIM_ITERS` H2D copies of `data` through a fresh codec session over
/// simulated GigaE; return (virtual seconds, codec stats).
fn simulated_run(data: &[u8], mode: CodecMode) -> (f64, rcuda::proto::CodecStats) {
    let mut sess = Session::builder()
        .codec(true)
        .connect(Endpoint::Simulated(NetworkId::GigaE))
        .expect("simulated session");
    sess.set_codec_mode(mode);
    sess.initialize(&rcuda_gpu::module::build_module(&["fill"], 0))
        .unwrap();
    assert!(sess.codec_active(), "server must advertise the codec");
    let dev = sess.malloc(data.len() as u32).unwrap();
    // Warm pass: module init, malloc and pool growth stay out of the
    // measured window.
    sess.memcpy_h2d(dev, data).unwrap();
    let start = sess.clock().now();
    for _ in 0..SIM_ITERS {
        sess.memcpy_h2d(dev, data).unwrap();
    }
    let elapsed = (sess.clock().now() - start).as_secs_f64();
    let stats = sess.codec_stats().expect("codec enabled");
    sess.free(dev).unwrap();
    sess.finish();
    (elapsed, stats)
}

/// Loopback-TCP H2D goodput for 1 MiB dense-random floats on a codec-less
/// session and on an adaptive codec session: median of `TCP_ROUNDS` short
/// rounds each, the two sessions alternating against one single-shard
/// daemon so the same two threads serve both and host drift hits both
/// alike — run back to back on separate daemons, the arms read ±10 % apart
/// on a shared host with no codec involved.
fn loopback_goodput() -> (f64, f64, rcuda::proto::CodecStats) {
    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .shards(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let size = 1 << 20;
    let data = Kind::Dense.payload(size);
    let mut sessions = [false, true].map(|codec| {
        let transport = TcpTransport::connect(daemon.local_addr()).unwrap();
        let mut rt = RemoteRuntime::new(transport, wall_clock());
        rt.set_codec(codec);
        rt.initialize(&rcuda_gpu::module::build_module(&["fill"], 0))
            .unwrap();
        assert_eq!(rt.codec_active(), codec, "daemon must advertise the codec");
        let dev = rt.malloc(size as u32).unwrap();
        rt.memcpy_h2d(dev, &data).unwrap(); // warm
        (rt, dev)
    });
    let mut rounds = [Vec::new(), Vec::new()];
    for _ in 0..TCP_ROUNDS {
        for ((rt, dev), samples) in sessions.iter_mut().zip(&mut rounds) {
            let start = Instant::now();
            for _ in 0..TCP_ITERS {
                rt.memcpy_h2d(*dev, &data).unwrap();
            }
            samples.push(gbps(
                (TCP_ITERS * size) as u64,
                start.elapsed().as_secs_f64(),
            ));
        }
    }
    let [base, codec] = rounds.map(|mut r| {
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    });
    let stats = sessions[1]
        .0
        .codec_stats()
        .expect("codec session has stats");
    for (mut rt, dev) in sessions {
        rt.free(dev).unwrap();
        rt.finalize().unwrap();
    }
    daemon.shutdown();
    (base, codec, stats)
}

fn main() {
    let gige = NetworkId::GigaE.model();
    let raw_link_gbps = gbps(1 << 20, gige.bulk_transfer(1 << 20).as_secs_f64());

    // 1. Per-class ratio and effective goodput over simulated GigaE.
    for kind in Kind::ALL {
        for size in SIZES {
            let data = kind.payload(size);
            let (secs, stats) = simulated_run(&data, CodecMode::Always);
            let eff = gbps((SIM_ITERS * size) as u64, secs);
            println!(
                "  {:<20} {:>8} B: ratio {:.3}, effective {:>7.3} Gb/s (raw link {:.3})",
                kind.label(),
                size,
                stats.ratio(),
                eff,
                raw_link_gbps,
            );
        }
    }

    // 2a. Gate: compressible 1 MiB over simulated GigaE ≥ 1.5× raw link.
    let sparse = Kind::Sparse.payload(1 << 20);
    let (secs, sparse_stats) = simulated_run(&sparse, CodecMode::Always);
    let sparse_eff = gbps((SIM_ITERS as u64) << 20, secs);
    let speedup = sparse_eff / raw_link_gbps;
    assert!(
        speedup >= 1.5,
        "compressible 1 MiB over simulated GigaE: {sparse_eff:.3} Gb/s is only \
         {speedup:.2}x the {raw_link_gbps:.3} Gb/s raw link (gate: 1.5x)"
    );
    assert!(sparse_stats.compressed > 0, "sparse payloads must compress");

    // 2b. Gate: incompressible random floats over loopback TCP, adaptive
    // codec ≤ 3% behind a codec-less session.
    let (base_gbps, codec_gbps, codec_stats) = loopback_goodput();
    let regression = (base_gbps - codec_gbps) / base_gbps;
    println!(
        "  loopback incompressible: baseline {base_gbps:.2} Gb/s, adaptive codec \
         {codec_gbps:.2} Gb/s ({:+.2}%)",
        regression * 100.0
    );
    assert!(
        regression <= 0.03,
        "adaptive codec on incompressible data costs {:.1}% over loopback (gate: 3%)",
        regression * 100.0
    );
    assert_eq!(
        codec_stats.compressed, 0,
        "adaptive policy must decline incompressible floats: {codec_stats:?}"
    );
    assert!(
        codec_stats.raw_entropy + codec_stats.raw_policy > 0,
        "declines must be recorded: {codec_stats:?}"
    );

    // 3. Closed-loop model check: rebuild the sparse-1 MiB per-copy time
    // from the codec's achieved ratio and the GigaE model. One H2D copy is
    // one flushed request message (20-byte head + 4-byte enc_len + encoded
    // body) plus a 4-byte ack the other way.
    let enc_per_copy = sparse_stats.bytes_enc as f64 / sparse_stats.compressed as f64;
    let predicted = gige
        .app_transfer(24 + enc_per_copy.ceil() as u64)
        .as_secs_f64()
        + gige.app_transfer(4).as_secs_f64();
    let measured = secs / SIM_ITERS as f64;
    let rel_err = (measured - predicted) / predicted;
    println!(
        "  closed loop (sparse 1 MiB): measured {:.3} ms/copy vs model {:.3} ms/copy \
         ({:+.1}%)",
        measured * 1e3,
        predicted * 1e3,
        rel_err * 100.0
    );
    assert!(
        rel_err.abs() < 0.10,
        "simulated codec session deviates {:.1}% from the compression model",
        rel_err * 100.0
    );
}
