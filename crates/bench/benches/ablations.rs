//! Ablation studies of the design choices DESIGN.md calls out, reported in
//! *simulated* time (wall-clock timing is meaningless for virtual-clock
//! quantities, so this is a plain `harness = false` program that asserts).
//!
//! 1. **Nagle's algorithm** on/off (the paper disables it, §IV-A);
//! 2. **context pre-initialization** on/off (§VI-B);
//! 3. **synchronous vs asynchronous** transfers (paper future work);
//! 4. **multi-client contention** on the server link (paper future work);
//! 5. **batched vs per-call submission**: pipelined FFT crosses the network
//!    in fewer flushes (≥ 2× fewer at depth ≥ 4) and less simulated time.

use rcuda_api::{run_fft_bytes, run_matmul_bytes, CudaRuntime};
use rcuda_client::RemoteRuntime;
use rcuda_core::time::virtual_clock;
use rcuda_core::{CaseStudy, Clock, SimTime};
use rcuda_gpu::{GpuDevice, NullCostModel};
use rcuda_netsim::{GigaEModel, NetworkId, NetworkModel, SharedLink};
use rcuda_server::{serve_connection, ServerConfig};
use rcuda_transport::sim_pair;
use std::sync::Arc;

fn main() {
    // Keep `cargo bench -- --list`-style invocations happy.
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list") {
        println!("ablations: bench");
        return;
    }
    nagle_ablation();
    preinit_ablation();
    async_overlap_ablation();
    contention_ablation();
    batching_ablation();
}

/// Run `body` against a phantom Tesla C1060 behind a simulated `net` at the
/// given pipeline depth; returns (simulated time, client flush count).
fn simulated(
    net: Arc<dyn NetworkModel>,
    config: ServerConfig,
    depth: usize,
    body: impl FnOnce(&mut dyn CudaRuntime, &dyn Clock),
) -> (SimTime, u64) {
    let clock = virtual_clock();
    let shared: rcuda_core::SharedClock = clock.clone();
    let (client_side, server_side) = sim_pair(net, shared.clone());
    let server_clock = shared.clone();
    let server = std::thread::spawn(move || {
        let device = GpuDevice::tesla_c1060();
        let _ = serve_connection(server_side, &device, server_clock, &config);
    });
    let mut rt = RemoteRuntime::new(client_side, shared);
    rt.set_pipeline_depth(depth).unwrap();
    body(&mut rt, &*clock);
    let flushes = rt.metrics().messages_sent;
    let t = clock.now();
    drop(rt);
    let _ = server.join();
    (t, flushes)
}

/// Simulated MM execution over a given network and server config.
fn simulated_mm(m: u32, net: Arc<dyn NetworkModel>, config: ServerConfig) -> SimTime {
    let bytes = vec![0u8; (m * m * 4) as usize];
    simulated(net, config, 0, |rt, clock| {
        run_matmul_bytes(rt, clock, m, &bytes, &bytes).unwrap();
    })
    .0
}

fn phantom_cfg() -> ServerConfig {
    ServerConfig {
        preinitialize_context: true,
        phantom_memory: true,
        ..Default::default()
    }
}

fn nagle_ablation() {
    println!("== Ablation 1: Nagle's algorithm (paper §IV-A disables it) ==");
    let m = 2048u32;
    let off = simulated_mm(m, Arc::new(GigaEModel::new()), phantom_cfg());
    let on = simulated_mm(m, Arc::new(GigaEModel::with_nagle()), phantom_cfg());
    println!(
        "  MM m={m} over GigaE, Nagle off: {:.1} ms",
        off.as_millis_f64()
    );
    println!(
        "  MM m={m} over GigaE, Nagle on : {:.1} ms",
        on.as_millis_f64()
    );
    println!(
        "  penalty: {:+.1} ms across {} control messages (~40 ms delayed-ACK stall each)\n",
        on.as_millis_f64() - off.as_millis_f64(),
        10
    );
    assert!(on > off);
}

fn preinit_ablation() {
    println!("== Ablation 2: daemon context pre-initialization (paper §VI-B) ==");
    let m = 4096u32;
    let warm = simulated_mm(m, Arc::from(NetworkId::Ib40G.model()), phantom_cfg());
    let cold_cfg = ServerConfig {
        preinitialize_context: false,
        phantom_memory: true,
        ..Default::default()
    };
    let cold = simulated_mm(m, Arc::from(NetworkId::Ib40G.model()), cold_cfg);
    println!(
        "  MM m={m} over 40GI, warm context: {:.2} s",
        warm.as_secs_f64()
    );
    println!(
        "  MM m={m} over 40GI, cold context: {:.2} s",
        cold.as_secs_f64()
    );
    println!(
        "  pre-initialization saves {:.2} s — why remote 40GI beats the local GPU at m=4096\n",
        cold.as_secs_f64() - warm.as_secs_f64()
    );
    assert!(cold > warm);
}

fn async_overlap_ablation() {
    println!("== Ablation 3: synchronous vs asynchronous input transfers ==");
    // Two input buffers copied to the device: synchronously (serial PCIe
    // charges on the caller) vs asynchronously on two streams (overlapped).
    let device = GpuDevice::tesla_c1060();
    let size = 64u32 << 20;
    let payload = vec![0u8; size as usize];

    let run = |use_async: bool| -> SimTime {
        let clock = virtual_clock();
        let mut ctx = device.create_phantom_context(clock.clone(), true);
        ctx.load_module(&rcuda_gpu::module::mm_module()).unwrap();
        let a = ctx.malloc(size).unwrap();
        let b = ctx.malloc(size).unwrap();
        if use_async {
            let s1 = ctx.stream_create().unwrap();
            let s2 = ctx.stream_create().unwrap();
            ctx.memcpy_h2d_async(a, &payload, s1).unwrap();
            ctx.memcpy_h2d_async(b, &payload, s2).unwrap();
            ctx.synchronize().unwrap();
        } else {
            ctx.memcpy_h2d(a, &payload).unwrap();
            ctx.memcpy_h2d(b, &payload).unwrap();
        }
        clock.now()
    };
    let sync = run(false);
    let overlapped = run(true);
    println!(
        "  2 × 64 MiB H2D, synchronous : {:.1} ms",
        sync.as_millis_f64()
    );
    println!(
        "  2 × 64 MiB H2D, async (2 streams): {:.1} ms",
        overlapped.as_millis_f64()
    );
    println!(
        "  overlap saves {:.1} ms (the extension the paper defers to future work)\n",
        sync.as_millis_f64() - overlapped.as_millis_f64()
    );
    assert!(overlapped < sync);
}

fn contention_ablation() {
    println!("== Ablation 4: multi-client contention on the server link ==");
    let case = CaseStudy::MatMul { dim: 8192 };
    let link = SharedLink::new(Arc::from(NetworkId::Ib40G.model()));
    for k in [1u32, 2, 4, 8] {
        let t = link.transfer_with_flows(case.memcpy_bytes().as_bytes(), k);
        println!(
            "  {k} concurrent clients: per-client transfer {:.1} ms ({}x solo)",
            t.as_millis_f64() * case.memcpy_count() as f64,
            k
        );
    }
    println!();
    // Silence the "unused" device/cost-model imports when assertions are
    // compiled out.
    let _ = NullCostModel;
}

fn batching_ablation() {
    println!("== Ablation 5: batched vs. per-call submission (FFT case study) ==");
    let batch = 2048u32;
    let input = vec![0u8; (batch * 512 * 8) as usize];
    let fft = |depth: usize| {
        simulated(
            Arc::from(NetworkId::GigaE.model()),
            phantom_cfg(),
            depth,
            |rt, clock| {
                run_fft_bytes(rt, clock, batch, &input).unwrap();
            },
        )
    };
    let (t_sync, f_sync) = fft(0);
    for depth in [2usize, 4, 8] {
        let (t_pipe, f_pipe) = fft(depth);
        println!(
            "  FFT batch={batch} over GigaE, depth {depth}: {f_pipe} flushes \
             ({f_sync} per-call), {:.2} ms vs {:.2} ms",
            t_pipe.as_millis_f64(),
            t_sync.as_millis_f64(),
        );
        assert!(
            f_pipe < f_sync,
            "pipelining must issue strictly fewer flushes"
        );
        if depth >= 4 {
            assert!(
                f_sync >= 2 * f_pipe,
                "depth {depth}: expected ≥2× fewer flushes, got {f_pipe} vs {f_sync}"
            );
            assert!(t_pipe < t_sync, "fewer round trips must cost less time");
        }
    }
    println!();
}
