//! Low-level wire primitives: little-endian scalar reads/writes and
//! exact-length buffers over any `Read`/`Write` pair.
//!
//! Everything the protocol puts on the wire goes through these helpers so
//! that byte accounting (paper Table I) has a single source of truth.

use std::io::{self, IoSlice, Read, Write};

use rcuda_core::DevicePtr;

use crate::payload::{BufferPool, Payload, MAX_POOLED_BYTES};

/// A fixed-width field of a request head (see [`crate::ids`]): its width on
/// the wire and its little-endian encoding.
pub(crate) trait Field: Sized {
    /// Bytes on the wire.
    const WIDTH: usize;

    /// Write exactly `WIDTH` bytes.
    fn put<W: Write>(&self, w: &mut W) -> io::Result<()>;

    /// Read exactly `WIDTH` bytes.
    fn get<R: Read>(r: &mut R) -> io::Result<Self>;
}

impl Field for u32 {
    const WIDTH: usize = 4;

    #[inline]
    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        put_u32(w, *self)
    }

    #[inline]
    fn get<R: Read>(r: &mut R) -> io::Result<Self> {
        get_u32(r)
    }
}

impl Field for DevicePtr {
    const WIDTH: usize = 4;

    #[inline]
    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        put_u32(w, self.addr())
    }

    #[inline]
    fn get<R: Read>(r: &mut R) -> io::Result<Self> {
        get_u32(r).map(DevicePtr::new)
    }
}

/// Write a little-endian `u32` (4 bytes — the unit of almost every Table I
/// field).
pub fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Read a little-endian `u32`.
pub fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Write a little-endian `u64` (session tokens in the reconnect handshake).
pub fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Read a little-endian `u64`.
pub fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Write a byte blob verbatim (the `x`-sized fields of Table I: module
/// images, memcpy payloads, kernel names).
pub fn put_bytes<W: Write>(w: &mut W, b: &[u8]) -> io::Result<()> {
    w.write_all(b)
}

/// Read exactly `n` bytes.
pub fn get_bytes<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<u8>> {
    // Grow with the bytes actually received: a corrupted length prefix then
    // costs at most one bounded chunk before the inevitable `UnexpectedEof`,
    // never an up-front multi-gigabyte allocation.
    const CHUNK: usize = 64 * 1024;
    let mut buf = Vec::with_capacity(n.min(CHUNK));
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        let start = buf.len();
        buf.resize(start + take, 0);
        r.read_exact(&mut buf[start..])?;
        remaining -= take;
    }
    Ok(buf)
}

/// Read exactly `n` bytes into a [`Payload`], staging through `pool` when
/// one is given (the hot decode path: zero heap allocations once the pool
/// is warm).
///
/// Lengths above [`MAX_POOLED_BYTES`] fall back to [`get_bytes`], keeping
/// its bounded chunked-growth defense: a corrupted length prefix costs at
/// most one bounded chunk before the inevitable `UnexpectedEof`, never an
/// up-front multi-gigabyte allocation.
pub fn read_payload<R: Read>(
    r: &mut R,
    n: usize,
    pool: Option<&BufferPool>,
) -> io::Result<Payload> {
    match pool {
        Some(pool) if n <= MAX_POOLED_BYTES => {
            let mut buf = pool.get(n);
            r.read_exact(&mut buf)?;
            Ok(Payload::Pooled(buf))
        }
        _ => Ok(Payload::Owned(get_bytes(r, n)?)),
    }
}

/// Write `head` then `body` as one vectored write sequence, handling short
/// writes. This is the zero-copy encode primitive: a stack-built message
/// header plus a borrowed payload slice reach the transport without ever
/// being coalesced into an owned buffer.
pub fn write_all_vectored<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> io::Result<()> {
    let total = head.len() + body.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < head.len() {
            w.write_vectored(&[IoSlice::new(&head[written..]), IoSlice::new(body)])?
        } else {
            w.write(&body[written - head.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write whole vectored message",
            ));
        }
        written += n;
    }
    Ok(())
}

/// Read exactly `N` bytes into a fixed array.
pub fn get_array<R: Read, const N: usize>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reinterpret a `f32` slice as its wire bytes (host data payloads).
///
/// This materializes an owned `Vec`; encode paths that already hold a
/// writer should use [`put_f32s`] instead and skip the intermediate buffer.
pub fn f32s_to_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Write a `f32` slice directly as its little-endian wire bytes, staging
/// through a fixed stack buffer — no intermediate `Vec` per upload.
pub fn put_f32s<W: Write>(w: &mut W, data: &[f32]) -> io::Result<()> {
    let mut stage = [0u8; 1024];
    for chunk in data.chunks(stage.len() / 4) {
        for (i, v) in chunk.iter().enumerate() {
            stage[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&stage[..chunk.len() * 4])?;
    }
    Ok(())
}

/// Copy a `f32` slice into an existing byte buffer as little-endian wire
/// bytes. The buffer must be exactly `4 * data.len()` bytes (pooled staging
/// for deferred uploads).
pub fn copy_f32s_into(out: &mut [u8], data: &[f32]) {
    assert_eq!(
        out.len(),
        data.len() * 4,
        "f32 staging buffer size mismatch"
    );
    for (slot, v) in out.chunks_exact_mut(4).zip(data) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
}

/// Reinterpret wire bytes as `f32`s. Errors if the length is not a multiple
/// of four.
pub fn bytes_to_f32s(bytes: &[u8]) -> io::Result<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "payload length not a multiple of 4",
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn u32_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        assert_eq!(buf.len(), 4);
        assert_eq!(get_u32(&mut Cursor::new(&buf)).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn u32_is_little_endian() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1).unwrap();
        assert_eq!(buf, [1, 0, 0, 0]);
    }

    #[test]
    fn u64_round_trip_and_endianness() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(buf.len(), 8);
        assert_eq!(buf[0], 8, "little-endian");
        assert_eq!(
            get_u64(&mut Cursor::new(&buf)).unwrap(),
            0x0102_0304_0506_0708
        );
    }

    #[test]
    fn bytes_round_trip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"module-image").unwrap();
        let mut c = Cursor::new(&buf);
        assert_eq!(get_bytes(&mut c, 6).unwrap(), b"module");
        assert_eq!(get_bytes(&mut c, 6).unwrap(), b"-image");
    }

    #[test]
    fn short_read_errors() {
        let mut c = Cursor::new(vec![1u8, 2]);
        assert!(get_u32(&mut c).is_err());
    }

    #[test]
    fn f32_payload_round_trip() {
        let data = vec![1.5f32, -0.25, f32::MIN_POSITIVE, 3.4e38];
        let bytes = f32s_to_bytes(&data);
        assert_eq!(bytes.len(), 16);
        assert_eq!(bytes_to_f32s(&bytes).unwrap(), data);
    }

    #[test]
    fn misaligned_f32_payload_errors() {
        assert!(bytes_to_f32s(&[0u8; 7]).is_err());
    }

    #[test]
    fn put_f32s_matches_f32s_to_bytes() {
        // Longer than one 1024-byte staging chunk to cover the loop.
        let data: Vec<f32> = (0..700).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut direct = Vec::new();
        put_f32s(&mut direct, &data).unwrap();
        assert_eq!(direct, f32s_to_bytes(&data));
    }

    #[test]
    fn copy_f32s_into_matches_f32s_to_bytes() {
        let data = [1.0f32, -2.5, 3.75];
        let mut out = vec![0u8; 12];
        copy_f32s_into(&mut out, &data);
        assert_eq!(out, f32s_to_bytes(&data));
    }

    #[test]
    fn read_payload_pooled_and_owned_agree() {
        let src = vec![0xA5u8; 5000];
        let pool = BufferPool::new();
        let pooled = read_payload(&mut Cursor::new(&src), 5000, Some(&pool)).unwrap();
        let owned = read_payload(&mut Cursor::new(&src), 5000, None).unwrap();
        assert_eq!(pooled, owned);
        assert!(matches!(pooled, Payload::Pooled(_)));
        assert!(matches!(owned, Payload::Owned(_)));
    }

    #[test]
    fn read_payload_oversize_falls_back_to_owned() {
        // A corrupt length prefix above the pooled range must not make the
        // pool allocate up front; the chunked get_bytes path errors out.
        let pool = BufferPool::new();
        let err = read_payload(
            &mut Cursor::new(vec![0u8; 16]),
            MAX_POOLED_BYTES + 1,
            Some(&pool),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn write_all_vectored_handles_arbitrary_short_writes() {
        // A writer that accepts at most 3 bytes per call, and never more
        // than the first IoSlice (the worst-case vectored behaviour).
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Dribble(Vec::new());
        write_all_vectored(&mut w, &[1, 2, 3, 4, 5], &[6, 7, 8, 9]).unwrap();
        assert_eq!(w.0, [1, 2, 3, 4, 5, 6, 7, 8, 9]);

        let mut w = Dribble(Vec::new());
        write_all_vectored(&mut w, &[], &[1, 2]).unwrap();
        assert_eq!(w.0, [1, 2]);

        let mut w = Dribble(Vec::new());
        write_all_vectored(&mut w, &[9], &[]).unwrap();
        assert_eq!(w.0, [9]);
    }
}
