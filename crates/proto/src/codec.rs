//! Adaptive wire compression: the codec stage every bulk payload crosses on
//! codec-negotiated sessions.
//!
//! ## Why
//!
//! The paper's model (§V) is bandwidth-bound for large transfers — end-to-end
//! time is `fixed + k·transfer(n)` — so shrinking `n` on the wire attacks
//! exactly the dominant term. Production rCUDA follow-ups ship automatic
//! compression for this reason. The catch is that compression only pays when
//! `bytes_saved / link_throughput > cpu_cost`: on a fast interconnect, or on
//! incompressible data (dense random f32s), blindly compressing *adds*
//! latency. Hence the adaptive per-payload policy below.
//!
//! ## Negotiation
//!
//! The capability travels inside frames that legacy peers already parse:
//!
//! 1. The server folds its capability bits into the high 16 bits of the
//!    minor word of its 8-byte compute-capability push
//!    ([`fold_caps`]/[`split_minor_word`]). Real compute-capability minors
//!    are tiny, so a legacy client sees a harmless (if odd-looking) minor
//!    and ignores it; a codec-aware client masks the caps off.
//! 2. A codec-aware client that wants compression answers with an 8-byte
//!    [`CodecHello`] — the impossible-selector [`FunctionId::Codec`] plus
//!    the accepted capability mask — *before* its session hello. There is
//!    no reply; the message is a statement, not a question. A client that
//!    stays silent gets a byte-identical legacy session.
//!
//! Both directions therefore interoperate with legacy peers automatically:
//! a legacy client never sends the opt-in, a legacy server never advertises
//! (caps = 0), and in each case the wire stays bit-for-bit the old format.
//!
//! ## Wire framing on codec sessions
//!
//! Each bulk payload (H2D memcpy data, launch regions, D2H responses) gains
//! a 4-byte `enc_len` prefix before its bytes. `enc_len == raw_len` means
//! the bytes are raw; `enc_len < raw_len` means an LZ4 block that inflates
//! to exactly `raw_len`. The encoder only ships compressed payloads that are
//! *strictly* smaller, so the framing is unambiguous; `enc_len > raw_len` is
//! malformed. Fixed-size message heads, module uploads, and status words are
//! never compressed — the win lives in the bulk data.
//!
//! ## Zero-copy interaction
//!
//! Compression scratch comes from the same [`BufferPool`] as payload
//! staging, and the compressor's match table lives on its stack — a
//! steady-state compressed memcpy loop allocates nothing once the pool is
//! warm (asserted by the counting-allocator tests with the codec forced on).

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

use crate::ids::FunctionId;
use crate::payload::{BufferPool, Payload};
use crate::wire::{get_u32, put_u32, read_payload};

/// Capability bit: LZ4 block compression of bulk payloads.
pub const CAP_LZ4: u32 = 1;

/// All capabilities this build understands.
pub const CAP_ALL: u32 = CAP_LZ4;

/// Fold server capability bits into the minor word of the 8-byte hello
/// push. Real compute-capability minors fit comfortably in 16 bits.
pub const fn fold_caps(minor: u32, caps: u32) -> u32 {
    (minor & 0xFFFF) | (caps << 16)
}

/// Split a hello minor word into `(minor, caps)` — the inverse of
/// [`fold_caps`]. Legacy servers never set high bits, so `caps` is 0.
pub const fn split_minor_word(word: u32) -> (u32, u32) {
    (word & 0xFFFF, word >> 16)
}

/// The client's codec opt-in: 8 bytes ([`FunctionId::Codec`] selector +
/// accepted capability mask), sent once before the session hello. No reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecHello {
    /// Capabilities the client accepts (a subset of what the server
    /// advertised).
    pub caps: u32,
}

impl CodecHello {
    /// Bytes on the wire (always 8).
    pub const WIRE_BYTES: usize = 8;

    /// Serialize onto the wire.
    pub fn write<W: Write>(self, w: &mut W) -> io::Result<()> {
        put_u32(w, FunctionId::Codec.as_u32())?;
        put_u32(w, self.caps)
    }

    /// Read the body after the selector word has been consumed (servers
    /// peek the first word to route, exactly as for the other handshakes).
    pub fn read_body<R: Read>(r: &mut R) -> io::Result<CodecHello> {
        Ok(CodecHello { caps: get_u32(r)? })
    }
}

/// When the codec compresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CodecMode {
    /// Never compress (the codec still decodes incoming compressed frames).
    Never = 0,
    /// Compress every eligible payload that strictly shrinks. For tests and
    /// benches on transports faster than the compressor (loopback, channel),
    /// where the adaptive policy would correctly decline everything.
    Always = 1,
    /// The time-model policy below decides per payload.
    Adaptive = 2,
}

/// Payloads below this never compress: the per-message overhead would
/// exceed any plausible saving, and small messages are latency- (not
/// bandwidth-) bound anyway.
const MIN_COMPRESS_LEN: usize = 4096;

/// Bytes the entropy probe and trial compression sample.
const SAMPLE_BYTES: usize = 4096;

/// Decline when the sampled prefix carries more than this many bits of
/// entropy per byte (dense random data: nothing to win).
const ENTROPY_BITS_MAX: f64 = 7.0;

/// Decline when trial-compressing the sample saves less than 10%.
const SAMPLE_RATIO_MAX: f64 = 0.90;

/// EMA smoothing for the online throughput estimates.
const EMA_ALPHA: f64 = 0.2;

/// After this many consecutive declines the adaptive policy stops probing
/// every payload (the traffic has shown itself incompressible) …
const BACKOFF_AFTER_DECLINES: u64 = 4;

/// … and re-probes only every this-many payloads, so a shift to
/// compressible data is still caught within a handful of transfers.
const BACKOFF_PROBE_PERIOD: u64 = 8;

/// Decision and volume counters, snapshot via [`Codec::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Payloads shipped compressed.
    pub compressed: u64,
    /// Declined: shorter than the 4 KiB compression floor.
    pub raw_small: u64,
    /// Declined: entropy probe saw near-random bytes.
    pub raw_entropy: u64,
    /// Declined: trial ratio or time model said compression loses.
    pub raw_policy: u64,
    /// Compressed in full but did not strictly shrink; shipped raw.
    pub raw_expanded: u64,
    /// Raw bytes of the payloads shipped compressed.
    pub bytes_raw: u64,
    /// Encoded bytes of the payloads shipped compressed.
    pub bytes_enc: u64,
}

impl CodecStats {
    /// Encoded/raw across compressed payloads (1.0 when none compressed).
    pub fn ratio(&self) -> f64 {
        if self.bytes_raw == 0 {
            1.0
        } else {
            self.bytes_enc as f64 / self.bytes_raw as f64
        }
    }

    /// Total encode decisions taken.
    pub fn decisions(&self) -> u64 {
        self.compressed + self.raw_small + self.raw_entropy + self.raw_policy + self.raw_expanded
    }
}

/// An f64 stored in an atomic (bit-cast), for lock-free EMA updates.
#[derive(Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn ema_update(&self, sample: f64) {
        // A lost race between two updates just drops one EMA sample —
        // harmless for a smoothed estimate, so no CAS loop.
        let prev = self.load();
        let next = if prev == 0.0 {
            sample
        } else {
            prev + EMA_ALPHA * (sample - prev)
        };
        self.0.store(next.to_bits(), Ordering::Relaxed);
    }
}

/// The per-session codec: encode policy, pooled scratch, decode helpers.
///
/// Shared by reference (the client runtime and each server connection hold
/// one); all state is atomic, so `encode` takes `&self`.
pub struct Codec {
    pool: BufferPool,
    mode: AtomicU8,
    /// Observed link throughput, bytes/second (0 until first observation).
    /// Fed by the caller from transfer-time deltas — the client uses its
    /// session clock, so simulated-network sessions learn the *simulated*
    /// link rate.
    link_bps: AtomicF64,
    /// Observed compression throughput, bytes/second (wall time).
    comp_bps: AtomicF64,
    compressed: AtomicU64,
    raw_small: AtomicU64,
    raw_entropy: AtomicU64,
    raw_policy: AtomicU64,
    raw_expanded: AtomicU64,
    bytes_raw: AtomicU64,
    bytes_enc: AtomicU64,
    /// Consecutive declines (any reason but `raw_small`); drives the
    /// probe backoff. Reset by every compressed payload.
    decline_streak: AtomicU64,
}

impl Codec {
    /// An adaptive codec drawing scratch from `pool`.
    pub fn new(pool: BufferPool) -> Codec {
        Codec::with_mode(pool, CodecMode::Adaptive)
    }

    /// A codec with an explicit mode.
    pub fn with_mode(pool: BufferPool, mode: CodecMode) -> Codec {
        Codec {
            pool,
            mode: AtomicU8::new(mode as u8),
            link_bps: AtomicF64::default(),
            comp_bps: AtomicF64::default(),
            compressed: AtomicU64::new(0),
            raw_small: AtomicU64::new(0),
            raw_entropy: AtomicU64::new(0),
            raw_policy: AtomicU64::new(0),
            raw_expanded: AtomicU64::new(0),
            bytes_raw: AtomicU64::new(0),
            bytes_enc: AtomicU64::new(0),
            decline_streak: AtomicU64::new(0),
        }
    }

    pub fn mode(&self) -> CodecMode {
        match self.mode.load(Ordering::Relaxed) {
            0 => CodecMode::Never,
            1 => CodecMode::Always,
            _ => CodecMode::Adaptive,
        }
    }

    pub fn set_mode(&self, mode: CodecMode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
    }

    /// Feed an observed transfer: `bytes` payload bytes took `nanos` on the
    /// link. Updates the throughput estimate the time model divides by.
    pub fn observe_link(&self, bytes: u64, nanos: u64) {
        if bytes > 0 && nanos > 0 {
            self.link_bps
                .ema_update(bytes as f64 / (nanos as f64 / 1e9));
        }
    }

    /// Snapshot the decision counters.
    pub fn stats(&self) -> CodecStats {
        CodecStats {
            compressed: self.compressed.load(Ordering::Relaxed),
            raw_small: self.raw_small.load(Ordering::Relaxed),
            raw_entropy: self.raw_entropy.load(Ordering::Relaxed),
            raw_policy: self.raw_policy.load(Ordering::Relaxed),
            raw_expanded: self.raw_expanded.load(Ordering::Relaxed),
            bytes_raw: self.bytes_raw.load(Ordering::Relaxed),
            bytes_enc: self.bytes_enc.load(Ordering::Relaxed),
        }
    }

    /// Encode one payload: `Some(Payload::Lz4 { .. })` when compression won
    /// (strictly smaller), `None` when the payload should travel raw.
    pub fn encode(&self, raw: &[u8]) -> Option<Payload> {
        match self.mode() {
            CodecMode::Never => {
                self.raw_policy.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            CodecMode::Always => {}
            CodecMode::Adaptive => {
                if raw.len() < MIN_COMPRESS_LEN {
                    self.raw_small.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                // Probe backoff: a run of declines means this traffic is
                // incompressible; skip even the probes on most payloads and
                // re-probe every [`BACKOFF_PROBE_PERIOD`]-th, so declining
                // costs ~nothing in steady state yet a shift to
                // compressible data is caught within a few transfers.
                let streak = self.decline_streak.load(Ordering::Relaxed);
                if streak >= BACKOFF_AFTER_DECLINES
                    && !(streak - BACKOFF_AFTER_DECLINES).is_multiple_of(BACKOFF_PROBE_PERIOD)
                {
                    self.decline_streak.fetch_add(1, Ordering::Relaxed);
                    self.raw_policy.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                if sampled_entropy_bits(raw) > ENTROPY_BITS_MAX {
                    self.decline_streak.fetch_add(1, Ordering::Relaxed);
                    self.raw_entropy.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                let ratio = trial_ratio(raw);
                if ratio > SAMPLE_RATIO_MAX {
                    self.decline_streak.fetch_add(1, Ordering::Relaxed);
                    self.raw_policy.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                // Time model: worth it only when the wire time saved
                // exceeds the CPU time spent. Unknown link or compressor
                // throughput → optimistic (the first transfers calibrate).
                let link = self.link_bps.load();
                let comp = self.comp_bps.load();
                if link > 0.0 && comp > 0.0 {
                    let saved = raw.len() as f64 * (1.0 - ratio);
                    if saved / link <= raw.len() as f64 / comp {
                        self.decline_streak.fetch_add(1, Ordering::Relaxed);
                        self.raw_policy.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
            }
        }

        let started = Instant::now();
        let mut scratch = self.pool.get(lz4_flex::get_maximum_output_size(raw.len()));
        let n = lz4_flex::compress_into(raw, &mut scratch).expect("scratch sized to bound");
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.comp_bps.ema_update(raw.len() as f64 / secs);
        }
        if n >= raw.len() {
            self.decline_streak.fetch_add(1, Ordering::Relaxed);
            self.raw_expanded.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.decline_streak.store(0, Ordering::Relaxed);
        self.compressed.fetch_add(1, Ordering::Relaxed);
        self.bytes_raw
            .fetch_add(raw.len() as u64, Ordering::Relaxed);
        self.bytes_enc.fetch_add(n as u64, Ordering::Relaxed);
        scratch.truncate(n);
        Some(Payload::Lz4 {
            raw_len: raw.len() as u32,
            data: scratch,
        })
    }

    /// Write one codec-framed block: `[enc_len u32][bytes]`, compressing
    /// when the policy says so. Returns the bytes put on the wire.
    pub fn write_block<W: Write>(&self, w: &mut W, raw: &[u8]) -> io::Result<u64> {
        match self.encode(raw) {
            Some(enc) => {
                put_u32(w, enc.len() as u32)?;
                w.write_all(enc.as_slice())?;
                Ok(4 + enc.len() as u64)
            }
            None => {
                put_u32(w, raw.len() as u32)?;
                w.write_all(raw)?;
                Ok(4 + raw.len() as u64)
            }
        }
    }

    /// Read one codec-framed block that inflates to exactly `raw_len`
    /// bytes, into a pooled payload. The inverse of [`Codec::write_block`].
    pub fn read_block<R: Read>(&self, r: &mut R, raw_len: usize) -> io::Result<Payload> {
        let enc_len = get_u32(r)? as usize;
        if enc_len == raw_len {
            return read_payload(r, raw_len, Some(&self.pool));
        }
        if enc_len > raw_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "encoded payload longer than its raw length",
            ));
        }
        let mut enc = self.pool.get(enc_len);
        r.read_exact(&mut enc)?;
        let mut out = self.pool.get(raw_len);
        inflate_exact(&enc, &mut out)?;
        Ok(Payload::Pooled(out))
    }

    /// Read one codec-framed block directly into `out` (the client's D2H
    /// receive path: the caller's buffer is the final destination, so raw
    /// frames deserialize into it with no staging at all).
    pub fn read_block_into<R: Read>(&self, r: &mut R, out: &mut [u8]) -> io::Result<()> {
        let enc_len = get_u32(r)? as usize;
        if enc_len == out.len() {
            return r.read_exact(out);
        }
        if enc_len > out.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "encoded payload longer than its raw length",
            ));
        }
        let mut enc = self.pool.get(enc_len);
        r.read_exact(&mut enc)?;
        inflate_exact(&enc, out)
    }

    /// The pool scratch and decoded payloads come from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

impl std::fmt::Debug for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "Codec {{ mode: {:?}, compressed: {}, declined: {} }}",
            self.mode(),
            s.compressed,
            s.decisions() - s.compressed
        )
    }
}

/// Decompress `enc` into `out`, requiring the decoded length to fill `out`
/// exactly (wire payload lengths are fixed by the message head).
fn inflate_exact(enc: &[u8], out: &mut [u8]) -> io::Result<()> {
    let n = lz4_flex::decompress_into(enc, out)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if n != out.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "compressed payload inflated to the wrong length",
        ));
    }
    Ok(())
}

/// Shannon entropy (bits/byte) of up to [`SAMPLE_BYTES`] evenly strided
/// bytes — a cheap probe that catches dense random data before any
/// compression work. The histogram lives on the stack.
fn sampled_entropy_bits(data: &[u8]) -> f64 {
    // Odd stride: power-of-two strides alias with the power-of-two record
    // layouts typical of GPU payloads and would sample the same field of
    // every record.
    let stride = ((data.len() / SAMPLE_BYTES).max(1)) | 1;
    let mut hist = [0u32; 256];
    let mut count = 0u32;
    let mut i = 0;
    while i < data.len() && count < SAMPLE_BYTES as u32 {
        hist[data[i] as usize] += 1;
        count += 1;
        i += stride;
    }
    if count == 0 {
        return 0.0;
    }
    let total = count as f64;
    hist.iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Trial-compress a stride-sampled [`SAMPLE_BYTES`]-byte excerpt and return
/// its compression ratio — a microsecond-scale, payload-specific estimate
/// of what full compression would achieve. Sampling in chunks keeps local
/// match structure visible; everything stays on the stack.
fn trial_ratio(data: &[u8]) -> f64 {
    const CHUNKS: usize = 8;
    const CHUNK: usize = SAMPLE_BYTES / CHUNKS;
    let mut sample = [0u8; SAMPLE_BYTES];
    let taken = if data.len() <= SAMPLE_BYTES {
        sample[..data.len()].copy_from_slice(data);
        data.len()
    } else {
        let span = (data.len() - CHUNK) / (CHUNKS - 1);
        for c in 0..CHUNKS {
            let off = c * span;
            sample[c * CHUNK..(c + 1) * CHUNK].copy_from_slice(&data[off..off + CHUNK]);
        }
        SAMPLE_BYTES
    };
    let mut out = [0u8; lz4_flex::get_maximum_output_size(SAMPLE_BYTES)];
    match lz4_flex::compress_into(&sample[..taken], &mut out) {
        Ok(n) => n as f64 / taken.max(1) as f64,
        Err(_) => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn compressible(len: usize) -> Vec<u8> {
        // Sparse/structured: long zero runs with periodic markers.
        let mut v = vec![0u8; len];
        for i in (0..len).step_by(64) {
            v[i] = (i % 251) as u8;
        }
        v
    }

    fn incompressible(len: usize) -> Vec<u8> {
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn caps_fold_and_split() {
        assert_eq!(fold_caps(3, 0), 3, "caps 0 leaves the word untouched");
        let word = fold_caps(5, CAP_LZ4);
        assert_eq!(split_minor_word(word), (5, CAP_LZ4));
        assert_eq!(split_minor_word(3), (3, 0), "legacy word has no caps");
    }

    #[test]
    fn codec_hello_round_trips() {
        let mut buf = Vec::new();
        CodecHello { caps: CAP_LZ4 }.write(&mut buf).unwrap();
        assert_eq!(buf.len(), CodecHello::WIRE_BYTES);
        let mut c = Cursor::new(&buf);
        assert_eq!(get_u32(&mut c).unwrap(), FunctionId::Codec.as_u32());
        assert_eq!(
            CodecHello::read_body(&mut c).unwrap(),
            CodecHello { caps: CAP_LZ4 }
        );
    }

    #[test]
    fn encode_compresses_structured_and_round_trips() {
        let codec = Codec::with_mode(BufferPool::new(), CodecMode::Always);
        let raw = compressible(1 << 20);
        let enc = codec.encode(&raw).expect("structured data compresses");
        assert!(enc.len() < raw.len() / 2);
        assert_eq!(enc.raw_len(), raw.len());
        let mut back = vec![0u8; raw.len()];
        inflate_exact(enc.as_slice(), &mut back).unwrap();
        assert_eq!(back, raw);
        let s = codec.stats();
        assert_eq!(s.compressed, 1);
        assert!(s.ratio() < 0.5);
    }

    #[test]
    fn adaptive_declines_small_and_random_payloads() {
        let codec = Codec::new(BufferPool::new());
        assert!(codec.encode(&[1u8; 100]).is_none(), "below min length");
        assert_eq!(codec.stats().raw_small, 1);

        assert!(
            codec.encode(&incompressible(1 << 20)).is_none(),
            "dense random bytes must be declined"
        );
        let s = codec.stats();
        assert_eq!(
            s.raw_entropy + s.raw_policy,
            1,
            "declined by probe or trial, not by full compression: {s:?}"
        );
        assert_eq!(s.compressed, 0);
    }

    #[test]
    fn adaptive_compresses_structured_payloads() {
        let codec = Codec::new(BufferPool::new());
        assert!(codec.encode(&compressible(1 << 20)).is_some());
        assert_eq!(codec.stats().compressed, 1);
    }

    #[test]
    fn decline_streak_backs_off_probing_and_recovers() {
        let codec = Codec::new(BufferPool::new());
        let random = incompressible(1 << 20);

        // Build the streak: the first BACKOFF_AFTER_DECLINES declines probe
        // for real (entropy), after which most declines skip the probe and
        // are booked as policy declines.
        for _ in 0..BACKOFF_AFTER_DECLINES {
            assert!(codec.encode(&random).is_none());
        }
        assert_eq!(codec.stats().raw_entropy, BACKOFF_AFTER_DECLINES);
        // One more periodic probe fires right at the threshold; everything
        // else in the next period is a probe-free policy decline.
        for _ in 0..BACKOFF_PROBE_PERIOD {
            assert!(codec.encode(&random).is_none());
        }
        let s = codec.stats();
        assert_eq!(s.raw_entropy, BACKOFF_AFTER_DECLINES + 1, "{s:?}");
        assert_eq!(
            s.raw_policy,
            BACKOFF_PROBE_PERIOD - 1,
            "backed-off declines skip the probes: {s:?}"
        );

        // A shift to compressible traffic is caught at the next periodic
        // re-probe — within BACKOFF_PROBE_PERIOD payloads — and the streak
        // resets, so the following payload compresses immediately.
        let friendly = compressible(1 << 20);
        let mut until_compressed = 0u64;
        while codec.encode(&friendly).is_none() {
            until_compressed += 1;
            assert!(
                until_compressed <= BACKOFF_PROBE_PERIOD,
                "re-probe must fire within one period: {:?}",
                codec.stats()
            );
        }
        assert!(codec.encode(&friendly).is_some(), "streak reset");
    }

    #[test]
    fn adaptive_declines_when_link_outruns_compressor() {
        let codec = Codec::new(BufferPool::new());
        // Calibrate the compressor estimate with one real encode.
        assert!(codec.encode(&compressible(1 << 20)).is_some());
        // Now claim a 100 GB/s link: no saving can beat the CPU cost.
        codec.observe_link(100_000_000_000, 1_000_000_000);
        assert!(codec.encode(&compressible(1 << 20)).is_none());
        assert_eq!(codec.stats().raw_policy, 1);
        // And on a 10 MB/s link the same payload compresses again.
        codec.observe_link(10_000_000, 1_000_000_000);
        // One observation against the EMA may not be enough; saturate it.
        for _ in 0..50 {
            codec.observe_link(10_000_000, 1_000_000_000);
        }
        assert!(codec.encode(&compressible(1 << 20)).is_some());
    }

    #[test]
    fn never_mode_declines_everything() {
        let codec = Codec::with_mode(BufferPool::new(), CodecMode::Never);
        assert!(codec.encode(&compressible(1 << 20)).is_none());
        assert_eq!(codec.stats().raw_policy, 1);
    }

    #[test]
    fn always_mode_ships_raw_when_compression_expands() {
        let codec = Codec::with_mode(BufferPool::new(), CodecMode::Always);
        assert!(codec.encode(&incompressible(1 << 16)).is_none());
        assert_eq!(codec.stats().raw_expanded, 1);
    }

    #[test]
    fn blocks_round_trip_compressed_and_raw() {
        let codec = Codec::with_mode(BufferPool::new(), CodecMode::Always);
        for raw in [compressible(100_000), incompressible(10_000), Vec::new()] {
            let mut wire = Vec::new();
            let n = codec.write_block(&mut wire, &raw).unwrap();
            assert_eq!(n as usize, wire.len());
            let back = codec
                .read_block(&mut Cursor::new(&wire), raw.len())
                .unwrap();
            assert_eq!(back.as_slice(), &raw[..]);

            let mut out = vec![0u8; raw.len()];
            codec
                .read_block_into(&mut Cursor::new(&wire), &mut out)
                .unwrap();
            assert_eq!(out, raw);
        }
    }

    #[test]
    fn oversized_enc_len_is_rejected() {
        let codec = Codec::new(BufferPool::new());
        let mut wire = Vec::new();
        put_u32(&mut wire, 100).unwrap(); // enc_len 100 > raw_len 10
        wire.extend_from_slice(&[0u8; 100]);
        assert!(codec.read_block(&mut Cursor::new(&wire), 10).is_err());
        let mut out = [0u8; 10];
        assert!(codec
            .read_block_into(&mut Cursor::new(&wire), &mut out)
            .is_err());
    }

    #[test]
    fn wrong_inflated_length_is_rejected() {
        let codec = Codec::with_mode(BufferPool::new(), CodecMode::Always);
        let raw = compressible(50_000);
        let mut wire = Vec::new();
        codec.write_block(&mut wire, &raw).unwrap();
        // Claim a larger raw length than the block inflates to.
        assert!(codec
            .read_block(&mut Cursor::new(&wire), raw.len() + 1)
            .is_err());
    }

    #[test]
    fn compressed_block_reuses_pooled_scratch() {
        let pool = BufferPool::new();
        let codec = Codec::with_mode(pool.clone(), CodecMode::Always);
        let raw = compressible(1 << 20);
        drop(codec.encode(&raw).unwrap()); // warm the scratch class
        let before = pool.stats();
        drop(codec.encode(&raw).unwrap());
        let after = pool.stats();
        assert_eq!(
            after.misses, before.misses,
            "second encode allocates nothing"
        );
        assert!(after.hits > before.hits);
    }

    #[test]
    fn entropy_probe_separates_random_from_structured() {
        assert!(sampled_entropy_bits(&incompressible(1 << 20)) > ENTROPY_BITS_MAX);
        assert!(sampled_entropy_bits(&compressible(1 << 20)) < 2.0);
        assert_eq!(sampled_entropy_bits(&[]), 0.0);
    }

    #[test]
    fn trial_ratio_tracks_compressibility() {
        assert!(trial_ratio(&compressible(1 << 20)) < 0.5);
        assert!(trial_ratio(&incompressible(1 << 20)) > SAMPLE_RATIO_MAX);
    }
}
