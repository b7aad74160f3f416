//! Stream-multiplexing wire layer: frame headers, flow-control constants and
//! the secure upgrade handshake.
//!
//! A multiplexed connection ("trunk") carries many independent sub-streams
//! over one ordered byte transport. Each frame is:
//!
//! ```text
//! +----------------+--------+----------------+=================+
//! | stream_id: u32 | kind:u8|   len: u32     |  len payload    |
//! +----------------+--------+----------------+=================+
//!        LE                        LE           (DATA only)
//! ```
//!
//! Frame kinds:
//!
//! * `DATA` — `len` payload bytes for the stream. The `0x80` bit marks the
//!   end of a protocol message (accounting only — streams are byte queues).
//! * `OPEN` — the sender is opening the stream (client → server).
//! * `CLOSE` — no more data will be sent on the stream. On the reserved
//!   trunk stream 0 this is a GOAWAY for the whole connection.
//! * `CREDIT` — flow control: `len` is a byte grant raising the peer's send
//!   window for the stream. No payload.
//!
//! Bulk payloads are chopped into [`CHUNK`]-sized DATA frames, so a 16 MiB
//! memcpy becomes 256 interleaved frames and a small call queued behind it
//! waits for at most one chunk's serialization — the head-of-line-blocking
//! fix the ISSUE's FFT/smallcalls regime needs. Every stream starts with
//! [`INITIAL_WINDOW`] bytes of send credit; receivers re-grant as the
//! application drains ([`CREDIT_REFRESH`]).
//!
//! ## The upgrade handshake
//!
//! After the server's ordinary 8-byte [`crate::handshake::ServerHello`], a
//! mux-aware client sends [`MuxHello`] (selector
//! [`FunctionId::MuxHello`] — an impossible module length, so legacy
//! servers cannot misparse it). The server answers [`MuxChallenge`] with a
//! nonce; the client proves possession of the shared token with an
//! HMAC-SHA256 over both nonces ([`MuxAuth`]); the server accepts or
//! rejects with a 4-byte result code ([`write_mux_accept`]). Framing starts immediately after. See
//! [`crate::secure`] for the MAC and the negotiated cipher.

use std::io::{self, Read, Write};

use crate::ids::FunctionId;
use crate::secure::CipherSuiteKind;
use crate::wire::{get_u32, put_u32};

/// Maximum DATA payload per frame. Bulk transfers are chopped at this size
/// so small control frames interleave between chunks.
pub const CHUNK: usize = 64 * 1024;

/// Initial per-stream send credit, granted implicitly at OPEN.
pub const INITIAL_WINDOW: u32 = 1024 * 1024;

/// Receivers send a CREDIT grant once consumed bytes reach this threshold.
pub const CREDIT_REFRESH: u32 = INITIAL_WINDOW / 2;

/// The reserved trunk stream id: CLOSE on it is a connection GOAWAY.
pub const TRUNK_STREAM: u32 = 0;

/// Wire size of a frame header.
pub const FRAME_HEADER_BYTES: usize = 9;

/// Mux protocol version carried in [`MuxHello`].
pub const MUX_VERSION: u32 = 1;

/// [`MuxHello::flags`] bit: the client requests payload encryption.
pub const FLAG_CIPHER: u32 = 1;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Payload bytes; `end_of_message` marks a protocol-message boundary.
    Data {
        /// True when this frame ends a protocol message (flush boundary).
        end_of_message: bool,
    },
    /// Stream open announcement.
    Open,
    /// Stream half-close (or trunk GOAWAY on stream 0).
    Close,
    /// Flow-control byte grant; the header `len` is the grant.
    Credit,
}

const KIND_DATA: u8 = 0;
const KIND_OPEN: u8 = 1;
const KIND_CLOSE: u8 = 2;
const KIND_CREDIT: u8 = 3;
const DATA_END_FLAG: u8 = 0x80;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The sub-stream this frame belongs to.
    pub stream_id: u32,
    /// Frame kind (and message-end flag for DATA).
    pub kind: FrameKind,
    /// DATA: payload byte count. CREDIT: the byte grant. Others: 0.
    pub len: u32,
}

impl FrameHeader {
    /// Encode into the 9-byte wire form.
    pub fn to_wire(self) -> [u8; FRAME_HEADER_BYTES] {
        let kind_byte = match self.kind {
            FrameKind::Data { end_of_message } => {
                KIND_DATA | if end_of_message { DATA_END_FLAG } else { 0 }
            }
            FrameKind::Open => KIND_OPEN,
            FrameKind::Close => KIND_CLOSE,
            FrameKind::Credit => KIND_CREDIT,
        };
        let mut buf = [0u8; FRAME_HEADER_BYTES];
        buf[..4].copy_from_slice(&self.stream_id.to_le_bytes());
        buf[4] = kind_byte;
        buf[5..].copy_from_slice(&self.len.to_le_bytes());
        buf
    }

    /// Decode the 9-byte wire form. Unknown kind bytes are a protocol error.
    pub fn from_wire(buf: [u8; FRAME_HEADER_BYTES]) -> io::Result<FrameHeader> {
        let stream_id = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(buf[5..].try_into().expect("4 bytes"));
        let kind = match buf[4] {
            b if b & !DATA_END_FLAG == KIND_DATA => FrameKind::Data {
                end_of_message: b & DATA_END_FLAG != 0,
            },
            KIND_OPEN => FrameKind::Open,
            KIND_CLOSE => FrameKind::Close,
            KIND_CREDIT => FrameKind::Credit,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown mux frame kind byte {other:#04x}"),
                ))
            }
        };
        if !matches!(kind, FrameKind::Data { .. } | FrameKind::Credit) && len != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mux {kind:?} frame with nonzero len {len}"),
            ));
        }
        if matches!(kind, FrameKind::Data { .. }) && len as usize > CHUNK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mux DATA frame of {len} bytes exceeds the {CHUNK}-byte chunk limit"),
            ));
        }
        Ok(FrameHeader {
            stream_id,
            kind,
            len,
        })
    }

    /// Read a header from the wire.
    pub fn read<R: Read>(r: &mut R) -> io::Result<FrameHeader> {
        let mut buf = [0u8; FRAME_HEADER_BYTES];
        r.read_exact(&mut buf)?;
        Self::from_wire(buf)
    }
}

/// Client → server: request a mux upgrade (selector + version + flags +
/// 16-byte client nonce; 28 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxHello {
    /// Protocol version the client speaks ([`MUX_VERSION`]).
    pub version: u32,
    /// Option bits ([`FLAG_CIPHER`]).
    pub flags: u32,
    /// The client's random half of the handshake transcript.
    pub client_nonce: [u8; 16],
}

impl MuxHello {
    /// Bytes after the 4-byte selector.
    pub const BODY_BYTES: usize = 24;

    /// Serialize (selector included).
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        put_u32(w, FunctionId::MuxHello.as_u32())?;
        put_u32(w, self.version)?;
        put_u32(w, self.flags)?;
        w.write_all(&self.client_nonce)
    }

    /// Read the body (the caller has already consumed the selector word).
    pub fn read_body<R: Read>(r: &mut R) -> io::Result<MuxHello> {
        let version = get_u32(r)?;
        let flags = get_u32(r)?;
        let mut client_nonce = [0u8; 16];
        r.read_exact(&mut client_nonce)?;
        Ok(MuxHello {
            version,
            flags,
            client_nonce,
        })
    }

    /// Whether the client asked for payload encryption.
    pub fn wants_cipher(&self) -> bool {
        self.flags & FLAG_CIPHER != 0
    }
}

/// Server → client: the challenge half of the handshake (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxChallenge {
    /// Negotiated option bits (the server may clear bits it refuses).
    pub flags: u32,
    /// Negotiated cipher suite wire id (see [`CipherSuiteKind`]).
    pub cipher: u32,
    /// The server's random half of the handshake transcript.
    pub server_nonce: [u8; 16],
}

impl MuxChallenge {
    /// Wire size.
    pub const WIRE_BYTES: usize = 24;

    /// Serialize.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        put_u32(w, self.flags)?;
        put_u32(w, self.cipher)?;
        w.write_all(&self.server_nonce)
    }

    /// Deserialize.
    pub fn read<R: Read>(r: &mut R) -> io::Result<MuxChallenge> {
        let flags = get_u32(r)?;
        let cipher = get_u32(r)?;
        let mut server_nonce = [0u8; 16];
        r.read_exact(&mut server_nonce)?;
        Ok(MuxChallenge {
            flags,
            cipher,
            server_nonce,
        })
    }

    /// The negotiated cipher suite.
    pub fn cipher_kind(&self) -> CipherSuiteKind {
        CipherSuiteKind::from_u32(self.cipher)
    }
}

/// Client → server: the 32-byte HMAC-SHA256 auth proof (always sent; with
/// no token configured it is the MAC under the empty key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxAuth {
    /// `HMAC-SHA256(token, label || client_nonce || server_nonce)`.
    pub mac: [u8; 32],
}

impl MuxAuth {
    /// Wire size.
    pub const WIRE_BYTES: usize = 32;

    /// Serialize.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.mac)
    }

    /// Deserialize.
    pub fn read<R: Read>(r: &mut R) -> io::Result<MuxAuth> {
        let mut mac = [0u8; 32];
        r.read_exact(&mut mac)?;
        Ok(MuxAuth { mac })
    }
}

/// Server → client: handshake verdict — a 4-byte CUDA result code (`0`
/// accepts; `rcudaErrorAuthFailed` rejects). Framing starts right after an
/// accept; the server closes the trunk after a reject.
pub fn write_mux_accept<W: Write>(w: &mut W, code: u32) -> io::Result<()> {
    put_u32(w, code)
}

/// Read the server's handshake verdict.
pub fn read_mux_accept<R: Read>(r: &mut R) -> io::Result<u32> {
    get_u32(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_headers_round_trip() {
        for h in [
            FrameHeader {
                stream_id: 1,
                kind: FrameKind::Data {
                    end_of_message: false,
                },
                len: CHUNK as u32,
            },
            FrameHeader {
                stream_id: 7,
                kind: FrameKind::Data {
                    end_of_message: true,
                },
                len: 13,
            },
            FrameHeader {
                stream_id: 2,
                kind: FrameKind::Open,
                len: 0,
            },
            FrameHeader {
                stream_id: TRUNK_STREAM,
                kind: FrameKind::Close,
                len: 0,
            },
            FrameHeader {
                stream_id: 3,
                kind: FrameKind::Credit,
                len: CREDIT_REFRESH,
            },
        ] {
            assert_eq!(FrameHeader::from_wire(h.to_wire()).unwrap(), h);
        }
    }

    #[test]
    fn bad_headers_are_rejected() {
        // Unknown kind byte.
        let mut wire = FrameHeader {
            stream_id: 1,
            kind: FrameKind::Open,
            len: 0,
        }
        .to_wire();
        wire[4] = 0x55;
        assert!(FrameHeader::from_wire(wire).is_err());
        // Oversized DATA.
        let wire = FrameHeader {
            stream_id: 1,
            kind: FrameKind::Data {
                end_of_message: false,
            },
            len: CHUNK as u32 + 1,
        }
        .to_wire();
        assert!(FrameHeader::from_wire(wire).is_err());
        // OPEN with payload length.
        let mut wire = FrameHeader {
            stream_id: 1,
            kind: FrameKind::Open,
            len: 0,
        }
        .to_wire();
        wire[5] = 9;
        assert!(FrameHeader::from_wire(wire).is_err());
    }

    #[test]
    fn hello_selector_is_an_impossible_module_length() {
        assert!(FunctionId::MuxHello.as_u32() > u32::MAX - 4);
    }

    #[test]
    fn handshake_messages_round_trip() {
        let hello = MuxHello {
            version: MUX_VERSION,
            flags: FLAG_CIPHER,
            client_nonce: [7u8; 16],
        };
        let mut buf = Vec::new();
        hello.write(&mut buf).unwrap();
        assert_eq!(buf.len(), 4 + MuxHello::BODY_BYTES);
        let mut cur = Cursor::new(&buf[4..]);
        let back = MuxHello::read_body(&mut cur).unwrap();
        assert_eq!(back, hello);
        assert!(back.wants_cipher());

        let ch = MuxChallenge {
            flags: FLAG_CIPHER,
            cipher: CipherSuiteKind::ChaCha20.as_u32(),
            server_nonce: [9u8; 16],
        };
        let mut buf = Vec::new();
        ch.write(&mut buf).unwrap();
        assert_eq!(buf.len(), MuxChallenge::WIRE_BYTES);
        let back = MuxChallenge::read(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, ch);
        assert_eq!(back.cipher_kind(), CipherSuiteKind::ChaCha20);

        let auth = MuxAuth { mac: [0xAB; 32] };
        let mut buf = Vec::new();
        auth.write(&mut buf).unwrap();
        assert_eq!(buf.len(), MuxAuth::WIRE_BYTES);
        assert_eq!(MuxAuth::read(&mut Cursor::new(&buf)).unwrap(), auth);

        let mut buf = Vec::new();
        write_mux_accept(&mut buf, 10005).unwrap();
        assert_eq!(read_mux_accept(&mut Cursor::new(&buf)).unwrap(), 10005);
    }
}
