//! One session engine, two I/O drivers: the same client bytes must get the
//! same treatment whether the blocking driver (`serve_connection`) or the
//! reactor (`RcudaDaemon::connect_in_process`) carries them.

use rcuda_core::time::wall_clock;
use rcuda_core::ArgPack;
use rcuda_gpu::module::build_module;
use rcuda_gpu::GpuDevice;
use rcuda_proto::codec::{CodecHello, CAP_LZ4};
use rcuda_proto::decode::MAX_FRAME_BYTES;
use rcuda_proto::handshake::read_hello_reply;
use rcuda_proto::ids::{FunctionId, MemcpyKind};
use rcuda_proto::{Batch, BatchResponse, LaunchConfig, Request, Response, SessionHello};
use rcuda_server::{serve_connection, RcudaDaemon, ServerConfig, SessionReport};
use rcuda_transport::{channel_pair, ChannelTransport, Transport};
use std::io::{self, Read, Write};
use std::thread;
use std::time::{Duration, Instant};

/// Run `client` against a fresh server on each driver and return what each
/// driver made of the connection: `[blocking, reactor]`, `None` = the
/// connection never became a reported session.
fn on_both_drivers(client: impl Fn(ChannelTransport)) -> [Option<SessionReport>; 2] {
    let device = GpuDevice::tesla_c1060_functional();
    let (near, far) = channel_pair();
    let worker = {
        let device = device.clone();
        thread::spawn(move || {
            serve_connection(far, &device, wall_clock(), &ServerConfig::default())
        })
    };
    client(near);
    let blocking = worker.join().expect("blocking driver panicked").ok();

    let mut daemon = RcudaDaemon::builder()
        .device(device)
        .bind("127.0.0.1:0")
        .unwrap();
    client(daemon.connect_in_process());
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.health().served < 1 {
        assert!(
            Instant::now() < deadline,
            "shard never closed the connection"
        );
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(daemon.health().panics, 0);
    daemon.shutdown();
    [blocking, daemon.session_reports().pop()]
}

fn words(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// A length word claiming more than `MAX_FRAME_BYTES` ends the session on
/// the spot — no payload byte is awaited — on both drivers, in the hello
/// and in the request loop, under both framings.
#[test]
fn over_cap_length_words_end_the_session_before_any_payload() {
    let over = MAX_FRAME_BYTES as u32 + 1;
    let h2d = FunctionId::Memcpy.as_u32();
    let to_device = MemcpyKind::HostToDevice as u32;
    struct Case {
        name: &'static str,
        /// Open a session (codec-framed or plain) before the poisoned bytes.
        session: Option<bool>,
        poison: Vec<u8>,
    }
    let cases = [
        Case {
            name: "positional hello with an over-cap module length",
            session: None,
            poison: words(&[over]),
        },
        Case {
            name: "Hello with an over-cap module length",
            session: None,
            poison: words(&[FunctionId::Hello.as_u32(), 7, 0, over]),
        },
        Case {
            name: "H2D with an over-cap size",
            session: Some(false),
            poison: words(&[h2d, 0, 0, over, to_device]),
        },
        Case {
            name: "codec block with enc_len > raw_len",
            session: Some(true),
            poison: words(&[h2d, 0, 0, 4096, to_device, 4097]),
        },
    ];
    for case in &cases {
        let reports = on_both_drivers(|mut client| {
            let mut cc = [0u8; 8];
            client.read_exact(&mut cc).unwrap();
            if let Some(codec) = case.session {
                if codec {
                    CodecHello { caps: CAP_LZ4 }.write(&mut client).unwrap();
                }
                SessionHello::Fresh {
                    module: build_module(&[], 0),
                }
                .write(&mut client)
                .unwrap();
                client.flush().unwrap();
                assert_eq!(read_hello_reply(&mut client).unwrap(), Ok(()));
            }
            client.write_all(&case.poison).unwrap();
            client.flush().unwrap();
            // The server hangs up now. Waiting for a body that will never
            // come would show here as a timeout instead of EOF.
            client
                .set_read_deadline(Some(Duration::from_secs(5)))
                .unwrap();
            let err = client.read_exact(&mut [0u8; 1]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{}", case.name);
        });
        for (driver, report) in ["blocking", "reactor"].into_iter().zip(reports) {
            match (case.session, report) {
                (None, None) => {}
                (Some(_), Some(report)) => {
                    assert!(!report.orderly_shutdown, "{}: {driver}", case.name);
                    assert_eq!(report.leaked_allocations, 0, "{}: {driver}", case.name);
                }
                (_, other) => panic!("{}: {driver} reported {other:?}", case.name),
            }
        }
    }
}

/// Everything the client reads, kept for comparison.
struct Recorded {
    inner: ChannelTransport,
    read: Vec<u8>,
}

impl Read for Recorded {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl Recorded {
    fn call(&mut self, req: &Request) -> Response {
        req.write(&mut self.inner).unwrap();
        self.inner.flush().unwrap();
        Response::read(self, req).unwrap()
    }
}

/// The same scripted session through both drivers: byte-identical reply
/// streams, identical reports.
#[test]
fn both_drivers_answer_a_scripted_session_byte_for_byte() {
    let replies = std::sync::Mutex::new(Vec::new());
    let reports = on_both_drivers(|client| {
        let mut c = Recorded {
            inner: client,
            read: Vec::new(),
        };
        c.read_exact(&mut [0u8; 8]).unwrap();
        SessionHello::Resumable {
            session: 0xD1FF_0001,
            module: build_module(&["fill"], 0),
        }
        .write(&mut c.inner)
        .unwrap();
        c.inner.flush().unwrap();
        assert_eq!(read_hello_reply(&mut c).unwrap(), Ok(()));

        let ptr = c
            .call(&Request::Malloc { size: 4096 })
            .into_malloc()
            .unwrap();
        let d2h = Request::Memcpy {
            dst: 0,
            src: ptr.addr(),
            size: 4096,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        c.call(&Request::Memcpy {
            dst: ptr.addr(),
            src: 0,
            size: 4096,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![0x5a; 4096].into()),
        })
        .into_ack()
        .unwrap();
        let args = ArgPack::new()
            .push_ptr(ptr)
            .push_u32(512)
            .push_f32(2.5)
            .into_bytes();
        c.call(&Request::launch("fill", &args, LaunchConfig::simple(1, 64)))
            .into_ack()
            .unwrap();
        let bytes = c.call(&d2h).into_memcpy_to_host().unwrap();
        assert_eq!(&bytes[..4], &2.5f32.to_le_bytes());
        assert_eq!(bytes[2048..], [0x5a; 2048]);

        let batch = Batch::new(vec![Request::ThreadSynchronize, d2h]).unwrap();
        batch.write(&mut c.inner).unwrap();
        c.inner.flush().unwrap();
        assert_eq!(
            BatchResponse::read(&mut c, &batch).unwrap().responses.len(),
            2
        );
        c.call(&Request::Free { ptr }).into_ack().unwrap();
        c.call(&Request::Quit).into_ack().unwrap();
        replies.lock().unwrap().push(c.read);
    });
    let replies = replies.into_inner().unwrap();
    assert!(replies[0] == replies[1], "reply streams differ");
    let [blocking, reactor] = reports.map(|r| r.expect("handshake completed"));
    assert!(blocking.orderly_shutdown && blocking.leaked_allocations == 0);
    assert_eq!(blocking, reactor);
}
