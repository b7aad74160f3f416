//! Incremental frame decode for nonblocking servers.
//!
//! The wire protocol has no framing (§III: every field is either fixed-size
//! or length-prefixed), so a blocking reader simply pulls fields off the
//! socket as it parses. A readiness-driven server cannot: a shard must never
//! sleep inside a parse because one peer paused mid-message. This module adds
//! the missing half: [`scan_frame`]/[`scan_hello`] compute, from a buffered
//! prefix alone, either the **exact byte length** of the next message or a
//! lower bound on how many bytes are still needed — and [`StreamDecoder`]
//! wraps that into a park-and-resume state machine. A partially-arrived
//! frame costs `Ok(None)` and the shard moves on; once the bytes are in, the
//! established blocking parsers ([`Frame::read_pooled`],
//! [`SessionHello::read`]) run to guaranteed completion over the buffer.
//!
//! The scanners validate exactly as much as the blocking readers would at
//! the same depth — unknown selectors, handshake selectors inside a session,
//! nested batches, and bad memcpy directions are rejected *before* their
//! bodies arrive, so a hostile or corrupt peer cannot park a shard behind an
//! impossible length.

use std::io::{self, Cursor};

use crate::batch::Frame;
use crate::codec::{Codec, CodecHello};
use crate::handshake::SessionHello;
use crate::ids::FunctionId;
use crate::mux::MuxHello;
use crate::payload::BufferPool;

/// Upper bound on a single decoded message. Every length field on the wire
/// is a u32, so a corrupt or hostile peer can claim ~4 GiB; no real message
/// approaches this cap, so anything above it is rejected immediately instead
/// of parking the connection behind bytes that will never come. (The `Busy`
/// and handshake selectors read as module lengths are all ≥ 4 GiB − 3 and
/// trip this cap by construction.)
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Outcome of scanning a buffered prefix for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// At least this many total bytes must be buffered before the message
    /// can complete. This is a lower bound — rescanning with more bytes may
    /// raise it (e.g. once a payload length field arrives).
    Need(usize),
    /// The next message occupies exactly this many buffered bytes.
    Complete(usize),
}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked"))
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn check_cap(total: usize) -> io::Result<usize> {
    if total > MAX_FRAME_BYTES {
        return Err(invalid("frame length exceeds the sanity cap"));
    }
    Ok(total)
}

/// Scan one request starting at `off`: selector + body, exactly the bytes
/// [`crate::Request::read`] would consume — or, when `codec` is set, the
/// bytes [`crate::Request::read_with_id_codec`] would (bulk payloads gain a
/// 4-byte `enc_len` prefix and ship `enc_len` bytes). Returned lengths are
/// relative to `off`. Rejections mirror the blocking readers so the
/// nonblocking path fails on the same inputs.
fn scan_request_at(buf: &[u8], off: usize, codec: bool) -> io::Result<Scan> {
    let avail = buf.len() - off;
    if avail < 4 {
        return Ok(Scan::Need(4));
    }
    let id = FunctionId::from_u32(u32_at(buf, off))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let body = id.body().ok_or_else(|| id.misplaced())?;
    let head = 4 + body.fixed as usize;
    if !body.payload || avail < head {
        return Ok(sized(avail, head));
    }
    let Some(payload) = id.tail_len(&buf[off + 4..off + head])? else {
        return Ok(Scan::Complete(head));
    };
    if codec {
        scan_block(buf, off, avail, head, payload)
    } else {
        Ok(sized(avail, check_cap(head + payload)?))
    }
}

/// Scan a codec-framed payload block: a 4-byte `enc_len` word at
/// `off + head`, then `enc_len` payload bytes. `enc_len > raw_len` is
/// rejected here — exactly where [`Codec::read_block`] would — so a corrupt
/// prefix cannot park a shard behind bytes that will never pass the parse.
fn scan_block(
    buf: &[u8],
    off: usize,
    avail: usize,
    head: usize,
    raw_len: usize,
) -> io::Result<Scan> {
    if avail < head + 4 {
        return Ok(Scan::Need(head + 4));
    }
    let enc_len = u32_at(buf, off + head) as usize;
    if enc_len > raw_len {
        return Err(invalid("codec block claims more encoded bytes than raw"));
    }
    Ok(sized(avail, check_cap(head + 4 + enc_len)?))
}

fn sized(avail: usize, total: usize) -> Scan {
    if avail < total {
        Scan::Need(total)
    } else {
        Scan::Complete(total)
    }
}

/// Scan a buffered prefix for one post-handshake frame — a single request or
/// a whole batch, exactly the bytes [`Frame::read_pooled`] would consume.
pub fn scan_frame(buf: &[u8]) -> io::Result<Scan> {
    scan_frame_codec(buf, false)
}

/// [`scan_frame`] with the wire framing selected: when `codec` is set the
/// frame is measured as [`Frame::read_codec`] would consume it (bulk
/// payloads carry a 4-byte `enc_len` prefix).
pub fn scan_frame_codec(buf: &[u8], codec: bool) -> io::Result<Scan> {
    if buf.len() < 4 {
        return Ok(Scan::Need(4));
    }
    if u32_at(buf, 0) != FunctionId::Batch.as_u32() {
        return scan_request_at(buf, 0, codec);
    }
    // Batch: selector + count, then each element encoded as it would be on
    // its own. The walk revalidates from the start on every call; batches
    // are small (the client caps them at pipeline depth), so the rescan is
    // cheaper than carrying resumable per-element state.
    if buf.len() < 8 {
        return Ok(Scan::Need(8));
    }
    let count = u32_at(buf, 4) as usize;
    let mut off = 8;
    for _ in 0..count {
        match scan_request_at(buf, off, codec)? {
            Scan::Need(n) => return Ok(Scan::Need(check_cap(off + n)?)),
            Scan::Complete(n) => off = check_cap(off + n)?,
        }
    }
    Ok(Scan::Complete(off))
}

/// Scan a buffered prefix for the first client → server message of a
/// session, in any of the three forms [`SessionHello::read`] accepts. The
/// paper's positional form means the first word *is* a length: garbage here
/// (including a reflected `Busy` marker) implies a multi-GiB module and is
/// rejected by the sanity cap rather than parked forever.
pub fn scan_hello(buf: &[u8]) -> io::Result<Scan> {
    if buf.len() < 4 {
        return Ok(Scan::Need(4));
    }
    let first = u32_at(buf, 0);
    let scan = match FunctionId::from_u32(first) {
        Ok(FunctionId::Hello) => {
            // selector + token + module length + module.
            if buf.len() < 16 {
                return Ok(Scan::Need(16));
            }
            let len = u32_at(buf, 12) as usize;
            sized(buf.len(), check_cap(16 + len)?)
        }
        Ok(FunctionId::Reconnect) => sized(buf.len(), 12),
        Ok(FunctionId::Migrate) => {
            // selector + session + snapshot length + snapshot — the same
            // shape as `Hello`, but shipped daemon → daemon.
            if buf.len() < 16 {
                return Ok(Scan::Need(16));
            }
            let len = u32_at(buf, 12) as usize;
            sized(buf.len(), check_cap(16 + len)?)
        }
        _ => sized(buf.len(), check_cap(4 + first as usize)?),
    };
    Ok(scan)
}

/// The first client → server message, in *all* the forms a daemon accepts:
/// the three [`SessionHello`] shapes, a [`MuxHello`] asking to upgrade the
/// connection to the multiplexed framing layer, or a [`CodecHello`]
/// accepting the advertised payload-compression capabilities (the session
/// hello proper follows in the same direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientHello {
    /// A plain (single-stream) session opening.
    Session(SessionHello),
    /// A mux upgrade request; the secure handshake continues from here.
    Mux(MuxHello),
    /// Codec capability acceptance; carries the capability bits the client
    /// turned on. The connection stays in the hello phase — a `Session` or
    /// `Mux` message follows.
    Codec(u32),
}

/// Scan a buffered prefix for the first client → server message, accepting
/// the mux-upgrade and codec selectors in addition to everything
/// [`scan_hello`] takes.
pub fn scan_client_hello(buf: &[u8]) -> io::Result<Scan> {
    if buf.len() < 4 {
        return Ok(Scan::Need(4));
    }
    if u32_at(buf, 0) == FunctionId::MuxHello.as_u32() {
        return Ok(sized(buf.len(), 4 + MuxHello::BODY_BYTES));
    }
    if u32_at(buf, 0) == FunctionId::Codec.as_u32() {
        return Ok(sized(buf.len(), CodecHello::WIRE_BYTES));
    }
    scan_hello(buf)
}

/// Park-and-resume decoder for one connection's inbound byte stream.
///
/// A shard feeds raw bytes in whenever the socket is readable
/// ([`StreamDecoder::space`]/[`StreamDecoder::commit`], sized for
/// `Transport::try_read`) and polls for complete messages
/// ([`StreamDecoder::poll_hello`], [`StreamDecoder::poll_frame`]). `Ok(None)`
/// means "parked: not enough bytes yet" — never an error, never a block.
///
/// Steady state allocates nothing: the internal buffer is reused across
/// messages (consumed prefixes are compacted, not reallocated) and payload
/// bytes land in the caller's [`BufferPool`]. The buffer shrinks back only
/// after an outsized message, so one 100 MiB transfer does not pin 100 MiB
/// per connection forever.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` holding received-but-unparsed data. `buf.len()` is the
    /// high-water mark (kept long so `space` never re-zeroes).
    valid: usize,
}

/// Keep at most this much buffer capacity across messages; anything larger
/// was an outsized transfer and is released once drained.
const SHRINK_THRESHOLD: usize = 2 * 1024 * 1024;

impl StreamDecoder {
    pub fn new() -> StreamDecoder {
        StreamDecoder::default()
    }

    /// Bytes buffered but not yet consumed by a returned message.
    pub fn buffered(&self) -> usize {
        self.valid
    }

    /// Borrow `max` writable bytes to read into. Always pair with
    /// [`StreamDecoder::commit`] (commit 0 on `WouldBlock`).
    pub fn space(&mut self, max: usize) -> &mut [u8] {
        if self.buf.len() < self.valid + max {
            self.buf.resize(self.valid + max, 0);
        }
        &mut self.buf[self.valid..self.valid + max]
    }

    /// Mark `n` bytes of the last [`StreamDecoder::space`] slice as received.
    pub fn commit(&mut self, n: usize) {
        debug_assert!(self.valid + n <= self.buf.len());
        self.valid += n;
    }

    /// Append a whole chunk (convenience for in-process feeds and tests).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.space(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.valid);
        if n < self.valid {
            self.buf.copy_within(n..self.valid, 0);
        }
        self.valid -= n;
        if self.valid == 0 && self.buf.capacity() > SHRINK_THRESHOLD {
            self.buf.clear();
            self.buf.shrink_to(64 * 1024);
        }
    }

    /// Try to complete the session-opening handshake message.
    pub fn poll_hello(&mut self) -> io::Result<Option<SessionHello>> {
        match scan_hello(&self.buf[..self.valid])? {
            Scan::Need(_) => Ok(None),
            Scan::Complete(n) => {
                let mut cur = Cursor::new(&self.buf[..n]);
                let hello = SessionHello::read(&mut cur)?;
                debug_assert_eq!(cur.position() as usize, n, "scan length matches parse");
                self.consume(n);
                Ok(Some(hello))
            }
        }
    }

    /// Try to complete the first client message, accepting a mux upgrade
    /// request in addition to the session-hello forms.
    pub fn poll_client_hello(&mut self) -> io::Result<Option<ClientHello>> {
        match scan_client_hello(&self.buf[..self.valid])? {
            Scan::Need(_) => Ok(None),
            Scan::Complete(n) => {
                let mut cur = Cursor::new(&self.buf[..n]);
                let first = crate::wire::get_u32(&mut cur)?;
                let hello = if first == FunctionId::MuxHello.as_u32() {
                    ClientHello::Mux(MuxHello::read_body(&mut cur)?)
                } else if first == FunctionId::Codec.as_u32() {
                    ClientHello::Codec(CodecHello::read_body(&mut cur)?.caps)
                } else {
                    // Re-parse from the top: SessionHello owns the first word.
                    cur.set_position(0);
                    ClientHello::Session(SessionHello::read(&mut cur)?)
                };
                debug_assert_eq!(cur.position() as usize, n, "scan length matches parse");
                self.consume(n);
                Ok(Some(hello))
            }
        }
    }

    /// Drain every buffered byte (used when a connection upgrades to the
    /// mux framing layer and a different reader takes over the transport —
    /// any bytes the decoder read ahead must move with it).
    pub fn take_buffered(&mut self) -> Vec<u8> {
        let out = self.buf[..self.valid].to_vec();
        self.consume(self.valid);
        out
    }

    /// Try to complete the next post-handshake frame, landing payloads in
    /// `pool` when one is given.
    pub fn poll_frame(&mut self, pool: Option<&BufferPool>) -> io::Result<Option<Frame>> {
        self.poll_frame_codec(pool, None)
    }

    /// [`StreamDecoder::poll_frame`] on a codec-negotiated connection: bulk
    /// payloads are scanned under the `enc_len`-prefixed framing and inflated
    /// through `codec` into its pool. With `codec = None` this is exactly
    /// `poll_frame`.
    pub fn poll_frame_codec(
        &mut self,
        pool: Option<&BufferPool>,
        codec: Option<&Codec>,
    ) -> io::Result<Option<Frame>> {
        match scan_frame_codec(&self.buf[..self.valid], codec.is_some())? {
            Scan::Need(_) => Ok(None),
            Scan::Complete(n) => {
                let mut cur = Cursor::new(&self.buf[..n]);
                let frame = Frame::read_codec(&mut cur, pool, codec)?;
                debug_assert_eq!(cur.position() as usize, n, "scan length matches parse");
                self.consume(n);
                Ok(Some(frame))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::ids::MemcpyKind;
    use crate::launch::{LaunchConfig, LAUNCH_FIXED_BYTES};
    use crate::request::Request;
    use rcuda_core::DevicePtr;

    fn all_variants() -> Vec<Request> {
        vec![
            Request::Malloc { size: 4096 },
            Request::Free {
                ptr: DevicePtr::new(0x40),
            },
            Request::Memcpy {
                dst: 1,
                src: 2,
                size: 5,
                kind: MemcpyKind::HostToDevice,
                data: Some(vec![1, 2, 3, 4, 5].into()),
            },
            Request::Memcpy {
                dst: 1,
                src: 2,
                size: 64,
                kind: MemcpyKind::DeviceToHost,
                data: None,
            },
            Request::launch("kern", &[9u8; 16], LaunchConfig::default()),
            Request::ThreadSynchronize,
            Request::DeviceProps,
            Request::StreamCreate,
            Request::StreamSynchronize { stream: 7 },
            Request::StreamDestroy { stream: 7 },
            Request::MemcpyAsync {
                dst: 3,
                src: 4,
                size: 2,
                kind: MemcpyKind::HostToHost,
                stream: 1,
                data: Some(vec![8, 9].into()),
            },
            Request::MemcpyAsync {
                dst: 3,
                src: 4,
                size: 128,
                kind: MemcpyKind::DeviceToHost,
                stream: 1,
                data: None,
            },
            Request::Memset {
                dst: 1,
                value: 0xAB,
                size: 32,
            },
            Request::EventCreate,
            Request::EventRecord {
                event: 1,
                stream: 2,
            },
            Request::EventSynchronize { event: 1 },
            Request::EventElapsed { start: 1, end: 2 },
            Request::EventDestroy { event: 1 },
            Request::Quit,
        ]
    }

    /// Feeding one byte at a time must yield None until the final byte and
    /// exactly the written frame afterwards — for every variant.
    #[test]
    fn every_variant_decodes_byte_at_a_time() {
        for req in all_variants() {
            let mut wire = Vec::new();
            req.write(&mut wire).unwrap();
            let mut dec = StreamDecoder::new();
            for (i, b) in wire.iter().enumerate() {
                dec.feed(std::slice::from_ref(b));
                let got = dec.poll_frame(None).unwrap();
                if i + 1 < wire.len() {
                    assert!(got.is_none(), "{req:?}: complete after {} bytes", i + 1);
                } else {
                    assert_eq!(got, Some(Frame::Single(req.clone())), "{req:?}");
                }
            }
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn batch_decodes_incrementally_and_matches_blocking_parse() {
        let batch = Batch::new(all_variants()).unwrap();
        let mut wire = Vec::new();
        batch.write(&mut wire).unwrap();
        let mut dec = StreamDecoder::new();
        // Feed in ragged chunks; only the final chunk completes the frame.
        let mut fed = 0;
        for chunk in wire.chunks(7) {
            fed += chunk.len();
            dec.feed(chunk);
            let got = dec.poll_frame(None).unwrap();
            if fed < wire.len() {
                assert!(
                    got.is_none(),
                    "complete after {fed} of {} bytes",
                    wire.len()
                );
            } else {
                assert_eq!(got, Some(Frame::Batch(batch.clone())));
            }
        }
    }

    #[test]
    fn back_to_back_frames_drain_in_order() {
        let reqs = [
            Request::Malloc { size: 1 },
            Request::Memcpy {
                dst: 0,
                src: 0,
                size: 3,
                kind: MemcpyKind::HostToDevice,
                data: Some(vec![7, 7, 7].into()),
            },
            Request::Quit,
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            r.write(&mut wire).unwrap();
        }
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        for r in &reqs {
            assert_eq!(
                dec.poll_frame(None).unwrap(),
                Some(Frame::Single(r.clone()))
            );
        }
        assert_eq!(dec.poll_frame(None).unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn all_three_hello_forms_decode_incrementally() {
        let hellos = [
            SessionHello::Fresh {
                module: vec![1, 2, 3],
            },
            SessionHello::Resumable {
                session: 0xDEAD_BEEF,
                module: vec![9; 40],
            },
            SessionHello::Reconnect { session: 42 },
            SessionHello::Migrate {
                session: 7,
                snapshot: vec![0xAA; 24],
            },
        ];
        for hello in hellos {
            let mut wire = Vec::new();
            hello.write(&mut wire).unwrap();
            let mut dec = StreamDecoder::new();
            for (i, b) in wire.iter().enumerate() {
                dec.feed(std::slice::from_ref(b));
                let got = dec.poll_hello().unwrap();
                if i + 1 < wire.len() {
                    assert!(got.is_none());
                } else {
                    assert_eq!(got, Some(hello.clone()));
                }
            }
        }
    }

    #[test]
    fn client_hello_accepts_both_session_and_mux_forms() {
        // A mux upgrade request, fed byte-at-a-time.
        let hello = crate::mux::MuxHello {
            version: crate::mux::MUX_VERSION,
            flags: crate::mux::FLAG_CIPHER,
            client_nonce: [3u8; 16],
        };
        let mut wire = Vec::new();
        hello.write(&mut wire).unwrap();
        let mut dec = StreamDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            dec.feed(std::slice::from_ref(b));
            let got = dec.poll_client_hello().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none());
            } else {
                assert_eq!(got, Some(ClientHello::Mux(hello)));
            }
        }
        // A legacy session hello still routes through the same poll.
        let legacy = SessionHello::Fresh { module: vec![7; 5] };
        let mut wire = Vec::new();
        legacy.write(&mut wire).unwrap();
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.poll_client_hello().unwrap(),
            Some(ClientHello::Session(legacy))
        );
    }

    #[test]
    fn take_buffered_drains_read_ahead_bytes() {
        let hello = crate::mux::MuxHello {
            version: 1,
            flags: 0,
            client_nonce: [0u8; 16],
        };
        let mut wire = Vec::new();
        hello.write(&mut wire).unwrap();
        wire.extend_from_slice(b"leftover");
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        assert!(dec.poll_client_hello().unwrap().is_some());
        assert_eq!(dec.take_buffered(), b"leftover");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn hello_then_frames_share_one_decoder() {
        // The handshake and the session stream arrive on the same socket;
        // the decoder must hand over cleanly between poll modes.
        let hello = SessionHello::Fresh { module: vec![5; 8] };
        let mut wire = Vec::new();
        hello.write(&mut wire).unwrap();
        Request::Malloc { size: 64 }.write(&mut wire).unwrap();
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.poll_hello().unwrap(), Some(hello));
        assert_eq!(
            dec.poll_frame(None).unwrap(),
            Some(Frame::Single(Request::Malloc { size: 64 }))
        );
    }

    #[test]
    fn unknown_selector_fails_fast() {
        let mut dec = StreamDecoder::new();
        dec.feed(&9999u32.to_le_bytes());
        assert!(dec.poll_frame(None).is_err());
    }

    #[test]
    fn bad_memcpy_kind_fails_before_its_payload_arrives() {
        let mut wire = Vec::new();
        for v in [FunctionId::Memcpy.as_u32(), 0, 0, 1 << 20, 77] {
            wire.extend_from_slice(&v.to_le_bytes());
        }
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        // The claimed 1 MiB payload never arrives — the bad direction is
        // enough to kill the connection immediately.
        assert!(dec.poll_frame(None).is_err());
    }

    #[test]
    fn nested_batch_is_rejected() {
        let mut wire = Vec::new();
        for v in [FunctionId::Batch.as_u32(), 1, FunctionId::Batch.as_u32()] {
            wire.extend_from_slice(&v.to_le_bytes());
        }
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        assert!(dec.poll_frame(None).is_err());
    }

    #[test]
    fn absurd_lengths_trip_the_sanity_cap() {
        // A handshake first-word that is really a reflected Busy marker
        // implies a ~4 GiB module: reject, don't park.
        let mut dec = StreamDecoder::new();
        dec.feed(&FunctionId::Busy.as_u32().to_le_bytes());
        assert!(dec.poll_hello().is_err());

        // A launch claiming a region larger than the cap.
        let mut wire = Vec::new();
        wire.extend_from_slice(&FunctionId::Launch.as_u32().to_le_bytes());
        wire.extend_from_slice(&[0u8; LAUNCH_FIXED_BYTES as usize]);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        assert!(dec.poll_frame(None).is_err());
    }

    #[test]
    fn handshake_selectors_inside_a_session_are_rejected() {
        for sel in [
            FunctionId::Hello,
            FunctionId::Reconnect,
            FunctionId::Busy,
            FunctionId::Migrate,
        ] {
            let mut dec = StreamDecoder::new();
            dec.feed(&sel.as_u32().to_le_bytes());
            assert!(dec.poll_frame(None).is_err(), "{sel:?}");
        }
    }

    #[test]
    fn pooled_payloads_recycle_buffers() {
        let pool = BufferPool::new();
        let req = Request::Memcpy {
            dst: 1,
            src: 0,
            size: 4096,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![0xCD; 4096].into()),
        };
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        let mut dec = StreamDecoder::new();
        for _ in 0..4 {
            dec.feed(&wire);
            let frame = dec.poll_frame(Some(&pool)).unwrap().unwrap();
            drop(frame); // payload buffer returns to the pool
        }
        let stats = pool.stats();
        assert!(stats.hits >= 3, "reuse after the first miss: {stats:?}");
    }

    #[test]
    fn space_commit_matches_feed() {
        let req = Request::Malloc { size: 9 };
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        let mut dec = StreamDecoder::new();
        let dst = dec.space(wire.len() + 32);
        dst[..wire.len()].copy_from_slice(&wire);
        dec.commit(wire.len());
        assert_eq!(dec.poll_frame(None).unwrap(), Some(Frame::Single(req)));
        // An uncommitted space borrow leaves no residue.
        let _ = dec.space(64);
        dec.commit(0);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn codec_framed_frames_parse_incrementally() {
        use crate::codec::{CodecMode, CAP_LZ4};

        let pool = BufferPool::new();
        let codec = Codec::with_mode(pool.clone(), CodecMode::Always);
        let req = Request::Memcpy {
            dst: 1,
            src: 0,
            size: 64 * 1024,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![0xABu8; 64 * 1024].into()),
        };
        let mut wire = Vec::new();
        req.write_codec(&mut wire, Some(&codec)).unwrap();
        assert!(
            wire.len() < 24 + 64 * 1024,
            "constant payload compressed on the wire"
        );

        // Legacy scanning must not be fooled by the shorter framing…
        let mut legacy = StreamDecoder::new();
        legacy.feed(&wire);
        assert_eq!(legacy.poll_frame(Some(&pool)).unwrap(), None);

        // …and the codec-aware decoder parses it incrementally.
        let mut dec = StreamDecoder::new();
        for chunk in wire.chunks(7) {
            assert_eq!(
                dec.poll_frame_codec(Some(&pool), Some(&codec)).unwrap(),
                None
            );
            dec.feed(chunk);
        }
        let frame = dec.poll_frame_codec(Some(&pool), Some(&codec)).unwrap();
        assert_eq!(frame, Some(Frame::Single(req)));

        // The codec hello is accepted before the session hello.
        let mut hello_wire = Vec::new();
        crate::codec::CodecHello { caps: CAP_LZ4 }
            .write(&mut hello_wire)
            .unwrap();
        let mut dec = StreamDecoder::new();
        dec.feed(&hello_wire);
        assert_eq!(
            dec.poll_client_hello().unwrap(),
            Some(ClientHello::Codec(CAP_LZ4))
        );
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn codec_block_claiming_more_than_raw_is_rejected() {
        let pool = BufferPool::new();
        let codec = Codec::new(pool.clone());
        let mut wire = Vec::new();
        wire.extend_from_slice(&FunctionId::Memcpy.as_u32().to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes()); // dst
        wire.extend_from_slice(&0u32.to_le_bytes()); // src
        wire.extend_from_slice(&64u32.to_le_bytes()); // raw size
        wire.extend_from_slice(&(MemcpyKind::HostToDevice as u32).to_le_bytes());
        wire.extend_from_slice(&65u32.to_le_bytes()); // enc_len > raw: malformed
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        assert!(dec.poll_frame_codec(Some(&pool), Some(&codec)).is_err());
    }

    #[test]
    fn oversized_message_buffer_is_released_after_drain() {
        let size = 3 * 1024 * 1024u32;
        let req = Request::Memcpy {
            dst: 1,
            src: 0,
            size,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![0u8; size as usize].into()),
        };
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        let mut dec = StreamDecoder::new();
        dec.feed(&wire);
        assert!(dec.poll_frame(None).unwrap().is_some());
        assert!(
            dec.buf.capacity() <= SHRINK_THRESHOLD,
            "buffer shrank back after an outsized frame"
        );
    }
}
