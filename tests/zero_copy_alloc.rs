//! The zero-copy data plane's contract, proven with a counting allocator:
//! a steady-state memcpy round trip — H2D, kernel launch, D2H straight into
//! a caller buffer — touches the heap **zero** times per iteration.
//!
//! Client and server both run in this process against real loopback TCP, so
//! one `#[global_allocator]` counter covers both hot paths at once: the
//! client's borrowed vectored-write sends and `memcpy_d2h_into` receives,
//! and the server's pooled request decode, in-place `fill` kernel, and
//! pooled D2H reply staging. The warmup iterations grow every amortized
//! buffer (trace vectors, pool classes, BufWriter/BufReader) to capacity;
//! after that, any allocation inside the measured window is a regression.
//!
//! Two payload sizes pin down both transport branches: 4 KiB rides the
//! buffered (coalesced) vectored write, 128 KiB crosses
//! `VECTORED_WRITE_MIN` and takes the raw `write_vectored` path.

use rcuda::api::CudaRuntime;
use rcuda::client::RemoteRuntime;
use rcuda::core::time::wall_clock;
use rcuda::core::{ArgPack, Dim3};
use rcuda::gpu::module::build_module;
use rcuda::gpu::GpuDevice;
use rcuda::server::RcudaDaemon;
use rcuda::session::{Endpoint, Session};
use rcuda::transport::{TcpTransport, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// `ALLOCATIONS` is process-global and the harness runs tests on parallel
/// threads: each test holds this for its whole body, so no other test's
/// set-up or warm-up allocates inside a measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its data is `()`.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Iterations that grow trace buffers and warm every pool class.
const WARMUP: usize = 32;
/// Iterations inside the counted window.
const MEASURED: usize = 8;

/// One round trip: upload `data`, overwrite the region with `fill`, read it
/// back into `out`. Everything here must be allocation-free at steady state.
fn round_trip<T: Transport>(
    rt: &mut RemoteRuntime<T>,
    dev: rcuda::core::DevicePtr,
    data: &[u8],
    args: &[u8],
    out: &mut [u8],
) {
    rt.memcpy_h2d(dev, data).unwrap();
    rt.launch("fill", Dim3::x(1), Dim3::x(64), 0, 0, args)
        .unwrap();
    rt.memcpy_d2h_into(dev, out).unwrap();
}

#[test]
fn memcpy_round_trip_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .bind("127.0.0.1:0")
        .unwrap();
    let transport = TcpTransport::connect(daemon.local_addr()).unwrap();
    let mut rt = RemoteRuntime::new(transport, wall_clock());
    rt.initialize(&build_module(&["fill"], 0)).unwrap();

    // 4 KiB stays under VECTORED_WRITE_MIN (buffered write), 128 KiB
    // crosses it (raw vectored write).
    for size in [4 * 1024usize, 128 * 1024] {
        let n = (size / 4) as u32;
        let dev = rt.malloc(size as u32).unwrap();
        let data = vec![0x5au8; size];
        let mut out = vec![0u8; size];
        let args = ArgPack::new().push_ptr(dev).push_u32(n).push_f32(2.5);
        let expected: Vec<u8> = 2.5f32
            .to_le_bytes()
            .iter()
            .copied()
            .cycle()
            .take(size)
            .collect();

        for _ in 0..WARMUP {
            round_trip(&mut rt, dev, &data, args.as_bytes(), &mut out);
        }
        assert_eq!(out, expected, "fill result wrong before measuring");

        let before = allocations();
        for _ in 0..MEASURED {
            round_trip(&mut rt, dev, &data, args.as_bytes(), &mut out);
            assert!(out == expected, "fill result wrong inside window");
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state memcpy round trip allocated ({delta} allocations \
             over {MEASURED} iterations at {size} bytes)"
        );

        rt.free(dev).unwrap();
    }

    // The pools actually carried the traffic: the client staged launch
    // regions, the server staged H2D payloads, launch regions, and D2H
    // replies, and at steady state every fetch was a recycle.
    let stats = rt.pool_stats();
    assert!(stats.hits > 0, "client pool never recycled: {stats:?}");
    assert!(
        stats.hits >= 8 * stats.misses,
        "client pool mostly missed: {stats:?}"
    );

    rt.finalize().unwrap();
    drop(rt);
    assert!(daemon.wait_for_sessions(1, std::time::Duration::from_secs(5)));
    daemon.shutdown();
    let reports = daemon.session_reports();
    assert_eq!(reports[0].leaked_allocations, 0);
    assert!(
        reports[0].pool.hits >= 8 * reports[0].pool.misses,
        "server pool mostly missed: {:?}",
        reports[0].pool
    );
}

/// The same steady-state contract with the wire codec forced on: LZ4
/// scratch on both sides must come from the same pools as payload staging
/// (compress on the client's H2D sends and the server's D2H replies,
/// decompress into pooled/caller buffers on the receiving ends), so a
/// compressed round trip still touches the heap zero times per iteration.
#[test]
fn codec_memcpy_round_trip_is_allocation_free_at_steady_state() {
    let _serial = serial();
    use rcuda::proto::CodecMode;

    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .bind("127.0.0.1:0")
        .unwrap();
    let transport = TcpTransport::connect(daemon.local_addr()).unwrap();
    let mut rt = RemoteRuntime::new(transport, wall_clock());
    rt.set_codec(true);
    rt.set_codec_mode(CodecMode::Always);
    rt.initialize(&build_module(&["fill"], 0)).unwrap();
    assert!(rt.codec_active(), "daemon must advertise the codec");

    for size in [4 * 1024usize, 128 * 1024] {
        let n = (size / 4) as u32;
        let dev = rt.malloc(size as u32).unwrap();
        // Repetitive payload: the encoder genuinely compresses, so the
        // measured window exercises the LZ4 scratch path, not a decline.
        let data = vec![0x5au8; size];
        let mut out = vec![0u8; size];
        let args = ArgPack::new().push_ptr(dev).push_u32(n).push_f32(2.5);
        let expected: Vec<u8> = 2.5f32
            .to_le_bytes()
            .iter()
            .copied()
            .cycle()
            .take(size)
            .collect();

        for _ in 0..WARMUP {
            round_trip(&mut rt, dev, &data, args.as_bytes(), &mut out);
        }
        assert_eq!(out, expected, "fill result wrong before measuring");

        let before = allocations();
        for _ in 0..MEASURED {
            round_trip(&mut rt, dev, &data, args.as_bytes(), &mut out);
            assert!(out == expected, "fill result wrong inside window");
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state compressed round trip allocated ({delta} \
             allocations over {MEASURED} iterations at {size} bytes)"
        );

        rt.free(dev).unwrap();
    }

    let stats = rt.codec_stats().expect("codec enabled");
    assert!(
        stats.compressed > 0,
        "payloads must have compressed: {stats:?}"
    );
    assert!(stats.ratio() < 0.5, "0x5a bytes compress well: {stats:?}");

    rt.finalize().unwrap();
    drop(rt);
    assert!(daemon.wait_for_sessions(1, std::time::Duration::from_secs(5)));
    daemon.shutdown();
    let reports = daemon.session_reports();
    assert_eq!(reports[0].leaked_allocations, 0);
}

/// The same steady-state contract over the multiplexed transport: framing,
/// credit flow control, and the demux engine must all ride pooled buffers.
#[test]
fn muxed_memcpy_round_trip_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut sess = Session::builder()
        .mux(true)
        .connect(Endpoint::Tcp(daemon.local_addr()))
        .unwrap();
    sess.initialize(&build_module(&["fill"], 0)).unwrap();

    // 4 KiB is a single sub-CHUNK frame; 128 KiB spans multiple 64 KiB
    // chunks, exercising chunking and credit refresh on both directions.
    for size in [4 * 1024usize, 128 * 1024] {
        let n = (size / 4) as u32;
        let dev = sess.malloc(size as u32).unwrap();
        let data = vec![0x5au8; size];
        let mut out = vec![0u8; size];
        let args = ArgPack::new().push_ptr(dev).push_u32(n).push_f32(2.5);
        let expected: Vec<u8> = 2.5f32
            .to_le_bytes()
            .iter()
            .copied()
            .cycle()
            .take(size)
            .collect();

        for _ in 0..WARMUP {
            round_trip(&mut sess, dev, &data, args.as_bytes(), &mut out);
        }
        assert_eq!(out, expected, "fill result wrong before measuring");

        let before = allocations();
        for _ in 0..MEASURED {
            round_trip(&mut sess, dev, &data, args.as_bytes(), &mut out);
            assert!(out == expected, "fill result wrong inside window");
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state muxed round trip allocated ({delta} allocations \
             over {MEASURED} iterations at {size} bytes)"
        );

        sess.free(dev).unwrap();
    }

    sess.finalize().unwrap();
    sess.finish();
    assert!(daemon.wait_for_sessions(1, std::time::Duration::from_secs(5)));
    daemon.shutdown();
    let reports = daemon.session_reports();
    assert_eq!(reports.len(), 1, "one sub-stream session served");
    assert_eq!(reports[0].leaked_allocations, 0);
}
