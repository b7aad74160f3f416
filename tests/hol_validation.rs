//! Validates the `rcuda-netsim` HOL model against live loopback-TCP
//! measurement, the same way PR 7 validates the §V estimator: predict,
//! measure, bound the relative error.
//!
//! The closed-form [`HolModel`] predicts the *typical* small-call
//! latency under a concurrent bulk transfer — the queueing delay a call
//! experiences at the transport layer. The measured median is the
//! matching statistic; the p99 additionally absorbs host-scheduler
//! tails that no network model sees (the live trunk's tail is
//! `call_tail_us @ trunk_mixed` in `rcuda-perf`). Improvement
//! ratios span two orders of magnitude, so the error is bounded in log
//! space: `|ln(predicted) − ln(measured)| / ln(measured)`, against the
//! loosest PR-7 live-TCP bound (0.75).

use rcuda::api::CudaRuntime;
use rcuda::gpu::module::build_module;
use rcuda::gpu::GpuDevice;
use rcuda::netsim::HolModel;
use rcuda::server::RcudaDaemon;
use rcuda::session::{Endpoint, Session};
use rcuda::workloads::calibrate_loopback;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The acceptance scenario's bulk payload.
const BULK: usize = 16 << 20;
/// Small-call samples per arm — enough for a stable median.
const ITERS: usize = 64;
/// Pause between successive bulk transfers — the scenario is a small call
/// racing one in-flight 16 MiB transfer, not a permanently saturated trunk.
const BULK_GAP: Duration = Duration::from_millis(1);
/// Loosest PR-7 live-TCP relative-error bound, applied in log space.
const LOG_REL_ERROR_BOUND: f64 = 0.75;

/// The wire chunk the netsim HOL model assumes must be the one the
/// protocol actually frames, or every prediction silently drifts.
#[test]
fn netsim_chunk_matches_protocol_chunk() {
    assert_eq!(
        rcuda::netsim::hol::DEFAULT_CHUNK_BYTES,
        rcuda::proto::mux::CHUNK as u64,
        "rcuda-netsim's DEFAULT_CHUNK_BYTES must track rcuda-proto's mux::CHUNK"
    );
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median small-call latency (µs) while a sibling user streams 16 MiB
/// transfers over the *same* connection, single-stream (whole calls
/// serialize behind a lock — the ordered byte stream admits nothing
/// finer) vs. muxed (each user on its own sub-stream).
fn contended_median_us(addr: std::net::SocketAddr, mux: bool) -> f64 {
    let data = vec![0x5au8; BULK];
    let stop = AtomicBool::new(false);
    let mut samples = Vec::with_capacity(ITERS);

    if mux {
        let conn = Session::builder()
            .mux(true)
            .connector(Endpoint::Tcp(addr))
            .unwrap();
        let mut bulk = conn.open().unwrap();
        bulk.initialize(&build_module(&[], 0)).unwrap();
        let mut small = conn.open().unwrap();
        small.initialize(&build_module(&[], 0)).unwrap();
        let dev = bulk.malloc(BULK as u32).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    bulk.memcpy_h2d(dev, &data).unwrap();
                    std::thread::sleep(BULK_GAP);
                }
                bulk.free(dev).unwrap();
                bulk.finalize().unwrap();
            });
            for _ in 0..ITERS {
                std::thread::sleep(Duration::from_micros(500));
                let t0 = Instant::now();
                let p = small.malloc(64).unwrap();
                small.free(p).unwrap();
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            stop.store(true, Ordering::Relaxed);
        });
        small.finalize().unwrap();
        small.finish();
        conn.finish();
    } else {
        let mut sess = Session::builder().connect(Endpoint::Tcp(addr)).unwrap();
        sess.initialize(&build_module(&[], 0)).unwrap();
        let dev = sess.malloc(BULK as u32).unwrap();
        let sess = Mutex::new(sess);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    sess.lock().unwrap().memcpy_h2d(dev, &data).unwrap();
                    std::thread::sleep(BULK_GAP);
                }
            });
            for _ in 0..ITERS {
                std::thread::sleep(Duration::from_micros(500));
                let t0 = Instant::now();
                {
                    let mut rt = sess.lock().unwrap();
                    let p = rt.malloc(64).unwrap();
                    rt.free(p).unwrap();
                }
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            stop.store(true, Ordering::Relaxed);
        });
        let mut sess = sess.into_inner().unwrap();
        sess.free(dev).unwrap();
        sess.finalize().unwrap();
        sess.finish();
    }
    median_us(samples)
}

#[test]
fn hol_model_predicts_measured_improvement_within_pr7_bounds() {
    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .shards(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = daemon.local_addr();

    let link = calibrate_loopback(addr, 3).unwrap();
    let model = HolModel {
        chunk_bytes: rcuda::proto::mux::CHUNK as u64,
        ..HolModel::new(BULK as u64, 8, 8)
    };
    let predicted = model.improvement(&link);
    assert!(
        predicted >= 5.0,
        "HOL model must predict ≥ 5× improvement on the calibrated \
         loopback link, got {predicted:.1}×"
    );

    let single = contended_median_us(addr, false);
    let muxed = contended_median_us(addr, true);
    let measured = single / muxed.max(f64::EPSILON);
    assert!(
        measured >= 5.0,
        "measured median small-call improvement must be ≥ 5× \
         (single {single:.0} µs, muxed {muxed:.0} µs = {measured:.1}×)"
    );

    let rel = (predicted.ln() - measured.ln()).abs() / measured.ln();
    println!("HOL: predicted {predicted:.1}×, measured {measured:.1}×, log-space error {rel:.2}");
    assert!(
        rel <= LOG_REL_ERROR_BOUND,
        "HOL model off by {rel:.2} in log space (predicted {predicted:.1}×, \
         measured {measured:.1}×, bound {LOG_REL_ERROR_BOUND})"
    );

    daemon.shutdown();
}
