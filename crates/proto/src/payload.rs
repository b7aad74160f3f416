//! Payload buffers for the data plane: [`Payload`] and the size-classed
//! [`BufferPool`] behind it.
//!
//! The paper's model (§V) makes end-to-end time `fixed + k·transfer(n)` —
//! bandwidth-bound — so every host-side copy or per-message allocation on
//! the memcpy path inflates exactly the term that dominates. The protocol
//! types therefore carry payloads as [`Payload`] rather than bare
//! `Vec<u8>`:
//!
//! * **Encode** never needs ownership: [`Request::write`] only borrows the
//!   bytes (`Payload` derefs to `[u8]`), and the client's synchronous H2D
//!   fast path builds a data-less `Request` only for its stack-built
//!   [`crate::Request::head`], writing that and the caller's borrowed slice with
//!   one vectored write.
//! * **Decode** can recycle: [`Request::read_with_id_codec`] and friends
//!   take an optional [`BufferPool`] and land payload bytes in a
//!   [`PooledBuf`] that returns to the pool on drop, so a steady-state
//!   memcpy loop allocates nothing after warm-up (asserted by the
//!   counting-allocator tests).
//!
//! ## Ownership rules
//!
//! A [`PooledBuf`] owns its bytes exclusively until dropped; dropping it
//! recycles the backing storage into its pool (bounded per size class —
//! overflow is simply freed). [`Payload::into_vec`] moves out of an owned
//! payload for free and copies out of a pooled one, so hot paths keep
//! payloads pooled and only cold, caller-facing edges materialize a `Vec`.
//!
//! The pool is metrics-visible: [`BufferPool::stats`] snapshots into
//! [`rcuda_obs::PoolStats`] (hit/miss/return/discard counters), letting the
//! observability layer report the recycle rate the zero-allocation property
//! depends on.
//!
//! [`Request::write`]: crate::Request::write
//! [`Request::read_with_id_codec`]: crate::Request::read_with_id_codec

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rcuda_obs::PoolStats;

/// Smallest size class: 2^6 = 64 bytes.
const MIN_SHIFT: u32 = 6;
/// Largest size class: 2^24 = 16 MiB. Larger buffers are allocated fresh
/// and freed on drop — a corrupted length prefix can therefore cost at most
/// one transient allocation, never permanently-retained pool memory.
const MAX_SHIFT: u32 = 24;
const NUM_CLASSES: usize = (MAX_SHIFT - MIN_SHIFT + 1) as usize;

// The observability snapshot carries one occupancy slot per class; keep the
// two definitions from drifting apart.
const _: () = assert!(NUM_CLASSES == rcuda_obs::POOL_CLASS_COUNT);

/// Largest request the pool will serve from (and retain in) a size class.
pub const MAX_POOLED_BYTES: usize = 1 << MAX_SHIFT;

/// Default number of buffers retained per size class.
const DEFAULT_RETENTION: usize = 8;

/// Size class that can *serve* a request of `len` bytes (round up), or
/// `None` if the request is above the pooled range.
fn class_for_len(len: usize) -> Option<usize> {
    if len > MAX_POOLED_BYTES {
        return None;
    }
    let shift = len.max(1).next_power_of_two().trailing_zeros();
    Some(shift.max(MIN_SHIFT) as usize - MIN_SHIFT as usize)
}

/// Size class a buffer of capacity `cap` can be *returned* to (round down:
/// every buffer in class `i` is guaranteed to hold `2^(MIN_SHIFT + i)`
/// bytes), or `None` if the capacity is outside the pooled range.
fn class_for_capacity(cap: usize) -> Option<usize> {
    if !((1 << MIN_SHIFT)..=MAX_POOLED_BYTES).contains(&cap) {
        return None;
    }
    let shift = usize::BITS - 1 - cap.leading_zeros();
    Some(shift as usize - MIN_SHIFT as usize)
}

#[derive(Default)]
struct PoolInner {
    /// One free list per power-of-two size class; each `Vec` is
    /// pre-allocated to its retention bound so pushing a recycled buffer
    /// never itself allocates.
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    retention: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
    pooled: AtomicU64,
    pooled_bytes: AtomicU64,
}

/// A bounded, size-classed buffer pool for wire payloads.
///
/// Cloning is cheap and shares the pool. Thread-safe: the server worker and
/// the client runtime each keep one, and [`PooledBuf`]s may be dropped from
/// any thread.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new()
    }
}

impl BufferPool {
    /// A pool retaining the default number of buffers per size class.
    pub fn new() -> BufferPool {
        BufferPool::with_retention(DEFAULT_RETENTION)
    }

    /// A pool retaining at most `retention` buffers per size class.
    pub fn with_retention(retention: usize) -> BufferPool {
        let classes = (0..NUM_CLASSES)
            .map(|_| Mutex::new(Vec::with_capacity(retention)))
            .collect();
        BufferPool {
            inner: Arc::new(PoolInner {
                classes,
                retention,
                ..PoolInner::default()
            }),
        }
    }

    /// A zeroed buffer of exactly `len` bytes, recycled if the matching size
    /// class has one (no heap allocation), freshly allocated otherwise.
    pub fn get(&self, len: usize) -> PooledBuf {
        let mut buf = match class_for_len(len) {
            Some(idx) => match self.inner.classes[idx].lock().unwrap().pop() {
                Some(recycled) => {
                    self.inner.hits.fetch_add(1, Ordering::Relaxed);
                    self.inner.pooled.fetch_sub(1, Ordering::Relaxed);
                    self.inner
                        .pooled_bytes
                        .fetch_sub(recycled.capacity() as u64, Ordering::Relaxed);
                    recycled
                }
                None => {
                    self.inner.misses.fetch_add(1, Ordering::Relaxed);
                    Vec::with_capacity(1 << (MIN_SHIFT as usize + idx))
                }
            },
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(len)
            }
        };
        // Within capacity by construction: resize is a memset, not a malloc.
        buf.clear();
        buf.resize(len, 0);
        PooledBuf {
            buf,
            pool: Arc::clone(&self.inner),
        }
    }

    /// A pooled copy of `data` (the one staging copy the deferred/batched
    /// encode path pays so the caller's slice need not outlive the window).
    pub fn copy_from(&self, data: &[u8]) -> PooledBuf {
        let mut pooled = self.get(data.len());
        pooled.buf.clear();
        pooled.buf.extend_from_slice(data);
        pooled
    }

    /// Snapshot the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let mut class_occupancy = [0u64; NUM_CLASSES];
        for (slot, class) in class_occupancy.iter_mut().zip(&self.inner.classes) {
            *slot = class.lock().unwrap().len() as u64;
        }
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            returns: self.inner.returns.load(Ordering::Relaxed),
            discards: self.inner.discards.load(Ordering::Relaxed),
            pooled: self.inner.pooled.load(Ordering::Relaxed),
            pooled_bytes: self.inner.pooled_bytes.load(Ordering::Relaxed),
            class_occupancy,
        }
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BufferPool {{ pooled: {}, hits: {}, misses: {} }}",
            s.pooled, s.hits, s.misses
        )
    }
}

/// An exclusively owned byte buffer on loan from a [`BufferPool`]; dropping
/// it returns the backing storage to the pool (or frees it if the size
/// class is full).
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<PoolInner>,
}

impl PooledBuf {
    /// Detach the backing `Vec` from the pool (it will not be recycled).
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Shorten the buffer to `len` bytes (no-op if already shorter). The
    /// codec uses this to trim a worst-case-sized compression scratch down
    /// to the actual encoded length; capacity — and thus the size class the
    /// buffer recycles into — is unchanged.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        let cap = buf.capacity();
        if cap == 0 {
            return; // detached by into_vec (or zero-capacity to begin with)
        }
        match class_for_capacity(cap) {
            Some(idx) => {
                let mut class = self.pool.classes[idx].lock().unwrap();
                if class.len() < self.pool.retention {
                    buf.clear();
                    class.push(buf);
                    self.pool.returns.fetch_add(1, Ordering::Relaxed);
                    self.pool.pooled.fetch_add(1, Ordering::Relaxed);
                    self.pool
                        .pooled_bytes
                        .fetch_add(cap as u64, Ordering::Relaxed);
                } else {
                    self.pool.discards.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.pool.discards.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PooledBuf({} bytes)", self.buf.len())
    }
}

/// A wire payload: a plain owned `Vec` (cold paths, tests, legacy call
/// sites via `From<Vec<u8>>`), a pool-recycled buffer (hot decode paths),
/// or an LZ4-compressed pooled buffer produced by the [`crate::codec`]
/// encode stage.
///
/// The `Lz4` variant is **transient and encode-side only**: it exists
/// between `Codec::encode` and the vectored write that puts the bytes on
/// the wire, so `as_slice`/`len` expose the *encoded* bytes (that is what a
/// transport observes and charges for). Decode always inflates back to
/// `Owned`/`Pooled` before anything above the wire layer sees the payload —
/// dispatch, GPU code, and equality semantics never meet a compressed
/// variant.
///
/// Equality is byte-wise over `as_slice` — where the bytes live is an
/// implementation detail, so a round trip may legitimately come back in
/// another representation. Cloning a pooled or compressed payload
/// materializes an owned copy of its current bytes (cloning only happens
/// off the hot path).
pub enum Payload {
    Owned(Vec<u8>),
    Pooled(PooledBuf),
    /// LZ4-block-compressed bytes in a pooled scratch buffer, plus the
    /// length the payload inflates back to. `raw_len` is what the protocol
    /// accounts (Table I byte math is defined over logical payloads);
    /// `data.len()` is what travels.
    Lz4 {
        raw_len: u32,
        data: PooledBuf,
    },
}

impl Payload {
    /// The bytes as they would travel: raw for `Owned`/`Pooled`, the
    /// compressed block for `Lz4`.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Pooled(b) => b,
            Payload::Lz4 { data, .. } => data,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The *decompressed* length: `len()` for raw payloads, the carried
    /// `raw_len` for compressed ones. This is the length Table I-style
    /// accounting uses.
    pub fn raw_len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Pooled(b) => b.len(),
            Payload::Lz4 { raw_len, .. } => *raw_len as usize,
        }
    }

    /// Materialize a `Vec` of the current bytes: free for owned payloads,
    /// one copy for pooled/compressed ones (the pooled buffer still
    /// recycles).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Pooled(b) => b.to_vec(),
            Payload::Lz4 { data, .. } => data.to_vec(),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::Owned(v)
    }
}

impl From<PooledBuf> for Payload {
    fn from(b: PooledBuf) -> Payload {
        Payload::Pooled(b)
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::Owned(Vec::new())
    }
}

impl Clone for Payload {
    fn clone(&self) -> Payload {
        Payload::Owned(self.as_slice().to_vec())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Owned(_) => write!(f, "Payload({} bytes, owned)", self.len()),
            Payload::Pooled(_) => write!(f, "Payload({} bytes, pooled)", self.len()),
            Payload::Lz4 { raw_len, data } => {
                write!(f, "Payload({} bytes lz4, {raw_len} raw)", data.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_round_up_serves_round_down_returns() {
        assert_eq!(class_for_len(0), Some(0));
        assert_eq!(class_for_len(1), Some(0));
        assert_eq!(class_for_len(64), Some(0));
        assert_eq!(class_for_len(65), Some(1));
        assert_eq!(class_for_len(4096), Some(6));
        assert_eq!(class_for_len(MAX_POOLED_BYTES), Some(NUM_CLASSES - 1));
        assert_eq!(class_for_len(MAX_POOLED_BYTES + 1), None);

        assert_eq!(class_for_capacity(63), None);
        assert_eq!(class_for_capacity(64), Some(0));
        assert_eq!(class_for_capacity(127), Some(0));
        assert_eq!(class_for_capacity(128), Some(1));
        assert_eq!(class_for_capacity(MAX_POOLED_BYTES), Some(NUM_CLASSES - 1));
        assert_eq!(class_for_capacity(2 * MAX_POOLED_BYTES), None);
    }

    #[test]
    fn get_returns_zeroed_buffer_of_requested_len() {
        let pool = BufferPool::new();
        let mut b = pool.get(100);
        assert_eq!(b.len(), 100);
        assert!(b.iter().all(|&x| x == 0));
        b[0] = 0xFF;
        drop(b);
        // Recycled buffer must come back zeroed, not with stale bytes.
        let b2 = pool.get(100);
        assert_eq!(b2.len(), 100);
        assert!(b2.iter().all(|&x| x == 0));
    }

    #[test]
    fn recycle_hit_after_drop() {
        let pool = BufferPool::new();
        let b = pool.get(4096);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.returns, 1);
        assert_eq!(s.pooled, 1);
        let _b2 = pool.get(4000); // same class (4096)
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.pooled, 0);
        assert_eq!(s.pooled_bytes, 0);
    }

    #[test]
    fn retention_bound_discards_overflow() {
        let pool = BufferPool::with_retention(2);
        let bufs: Vec<_> = (0..4).map(|_| pool.get(128)).collect();
        drop(bufs);
        let s = pool.stats();
        assert_eq!(s.returns, 2);
        assert_eq!(s.discards, 2);
        assert_eq!(s.pooled, 2);
    }

    #[test]
    fn handout_exactly_at_max_pooled_bytes_is_pooled() {
        // MAX_POOLED_BYTES lands exactly on the top size class: the buffer
        // must recycle, not fall back to an owned Vec.
        let pool = BufferPool::new();
        let b = pool.get(MAX_POOLED_BYTES);
        assert_eq!(b.len(), MAX_POOLED_BYTES);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.returns, 1);
        assert_eq!(s.pooled, 1);
        assert_eq!(s.pooled_bytes, MAX_POOLED_BYTES as u64);
        assert_eq!(s.class_occupancy[NUM_CLASSES - 1], 1);
        let b2 = pool.get(MAX_POOLED_BYTES);
        assert_eq!(pool.stats().hits, 1, "served from the top class");
        drop(b2);
    }

    #[test]
    fn handout_one_byte_above_max_is_owned_vec_fallback() {
        // One byte past the pooled range: served fresh, never retained.
        let pool = BufferPool::new();
        let b = pool.get(MAX_POOLED_BYTES + 1);
        assert_eq!(b.len(), MAX_POOLED_BYTES + 1);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.returns, 0);
        assert_eq!(s.discards, 1);
        assert_eq!(s.pooled, 0);
        assert!(s.class_occupancy.iter().all(|&c| c == 0));
        // A second request must miss again — nothing was pooled.
        let _b2 = pool.get(MAX_POOLED_BYTES + 1);
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn class_occupancy_tracks_per_class_holdings() {
        let pool = BufferPool::new();
        let small = pool.get(64); // class 0
        let mid = pool.get(4096); // class 6
        drop(small);
        drop(mid);
        let s = pool.stats();
        assert_eq!(s.class_occupancy[0], 1);
        assert_eq!(s.class_occupancy[6], 1);
        assert_eq!(s.class_occupancy.iter().sum::<u64>(), s.pooled);
    }

    #[test]
    fn oversize_requests_are_served_but_never_retained() {
        let pool = BufferPool::new();
        let b = pool.get(MAX_POOLED_BYTES + 1);
        assert_eq!(b.len(), MAX_POOLED_BYTES + 1);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.discards, 1);
        assert_eq!(s.pooled, 0);
    }

    #[test]
    fn copy_from_round_trips_bytes() {
        let pool = BufferPool::new();
        let b = pool.copy_from(&[1, 2, 3, 4, 5]);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn into_vec_detaches_without_poisoning_the_pool() {
        let pool = BufferPool::new();
        let v = pool.get(64).into_vec();
        assert_eq!(v.len(), 64);
        let s = pool.stats();
        assert_eq!(s.returns, 0);
        assert_eq!(s.pooled, 0);
    }

    #[test]
    fn payload_equality_is_bytewise_across_representations() {
        let pool = BufferPool::new();
        let owned: Payload = vec![9u8, 8, 7].into();
        let pooled: Payload = pool.copy_from(&[9, 8, 7]).into();
        assert_eq!(owned, pooled);
        assert_eq!(owned, vec![9u8, 8, 7]);
        assert_ne!(owned, vec![9u8, 8]);
    }

    #[test]
    fn payload_clone_materializes_owned() {
        let pool = BufferPool::new();
        let pooled: Payload = pool.copy_from(&[1, 2]).into();
        let cloned = pooled.clone();
        assert!(matches!(cloned, Payload::Owned(_)));
        assert_eq!(cloned, pooled);
    }

    #[test]
    fn lz4_variant_exposes_encoded_bytes_and_raw_len() {
        let pool = BufferPool::new();
        let p = Payload::Lz4 {
            raw_len: 10,
            data: pool.copy_from(&[1, 2, 3]),
        };
        assert_eq!(p.as_slice(), &[1, 2, 3], "slice is the encoded bytes");
        assert_eq!(p.len(), 3, "len is the on-wire length");
        assert_eq!(p.raw_len(), 10, "raw_len is the logical length");
        let cloned = p.clone();
        assert!(matches!(cloned, Payload::Owned(_)));
        assert_eq!(cloned.as_slice(), &[1, 2, 3]);
        assert_eq!(format!("{p:?}"), "Payload(3 bytes lz4, 10 raw)");
    }

    #[test]
    fn pool_is_shared_across_clones_and_threads() {
        let pool = BufferPool::new();
        let handle = pool.clone();
        let t = std::thread::spawn(move || {
            let b = handle.get(256);
            drop(b);
        });
        t.join().unwrap();
        assert_eq!(pool.stats().pooled, 1);
        assert_eq!(pool.get(256).len(), 256);
        assert_eq!(pool.stats().hits, 1);
    }
}
