//! Protocol fuzzing: whatever bytes a client throws at the server — after
//! the handshake or from byte 0, over the blocking driver or the reactor —
//! the session must terminate (no hang, no panic) and the daemon side must
//! come out clean.

use proptest::prelude::*;
use rcuda_core::time::wall_clock;
use rcuda_gpu::module::build_module;
use rcuda_gpu::GpuDevice;
use rcuda_proto::Request;
use rcuda_server::{serve_connection, RcudaDaemon, ServerConfig};
use rcuda_transport::channel_pair;
use std::io::{Read, Write};
use std::thread;
use std::time::{Duration, Instant};

/// Poll `done` for up to ten seconds; `false` means the server hung.
fn finishes(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}

fn handshake(client: &mut rcuda_transport::ChannelTransport) {
    let mut cc = [0u8; 8];
    client.read_exact(&mut cc).unwrap();
    Request::Init {
        module: build_module(&[], 0),
    }
    .write(client)
    .unwrap();
    client.flush().unwrap();
    let mut ack = [0u8; 4];
    client.read_exact(&mut ack).unwrap();
    assert_eq!(ack, [0, 0, 0, 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage after a valid handshake ends the session; the
    /// worker thread always terminates.
    #[test]
    fn garbage_after_handshake_terminates_cleanly(
        garbage in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let cfg = ServerConfig::default();
        let worker = thread::spawn(move || {
            serve_connection(server_side, &device, wall_clock(), &cfg)
        });
        handshake(&mut client);
        if !garbage.is_empty() {
            let _ = client.write_all(&garbage);
            let _ = client.flush();
        }
        drop(client); // hang up

        // The worker must finish promptly (bounded poll, no join-hang).
        prop_assert!(finishes(|| worker.is_finished()), "worker hung on garbage input");
        let report = worker.join().expect("worker must not panic").unwrap();
        prop_assert!(!report.orderly_shutdown || garbage.is_empty());
    }

    /// Arbitrary garbage from byte 0 — in place of any handshake — ends the
    /// connection on both drivers. The reactor's shard must survive it.
    #[test]
    fn garbage_from_byte_zero_terminates_cleanly(
        garbage in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let device = GpuDevice::tesla_c1060_functional();
        let mut daemon = RcudaDaemon::builder()
            .device(device.clone())
            .bind("127.0.0.1:0")
            .unwrap();
        let (blocking, server_side) = channel_pair();
        let worker = thread::spawn(move || {
            serve_connection(server_side, &device, wall_clock(), &ServerConfig::default())
        });
        for mut client in [blocking, daemon.connect_in_process()] {
            let mut cc = [0u8; 8];
            client.read_exact(&mut cc).unwrap();
            let _ = client.write_all(&garbage);
            let _ = client.flush();
        } // both clients hang up here

        prop_assert!(finishes(|| worker.is_finished()), "worker hung on garbage input");
        worker.join().expect("worker must not panic").ok();
        prop_assert!(finishes(|| daemon.health().served == 1), "shard never closed the connection");
        prop_assert_eq!(daemon.health().panics, 0);
        daemon.shutdown();
    }

    /// Truncated *valid* requests (a real message cut mid-field) also
    /// terminate cleanly.
    #[test]
    fn truncated_requests_terminate_cleanly(
        cut in 1usize..20,
        size in 1u32..1_000_000,
    ) {
        let (mut client, server_side) = channel_pair();
        let device = GpuDevice::tesla_c1060_functional();
        let cfg = ServerConfig::default();
        let worker = thread::spawn(move || {
            serve_connection(server_side, &device, wall_clock(), &cfg)
        });
        handshake(&mut client);

        let mut buf = Vec::new();
        Request::Malloc { size }.write(&mut buf).unwrap();
        let cut = cut.min(buf.len() - 1); // strictly truncated
        let _ = client.write_all(&buf[..cut]);
        let _ = client.flush();
        drop(client);

        let report = worker.join().expect("no panic").unwrap();
        prop_assert!(!report.orderly_shutdown);
        prop_assert_eq!(report.leaked_allocations, 0);
    }
}
