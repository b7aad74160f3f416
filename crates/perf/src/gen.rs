//! Seeded input generation. Everything the program under test receives is
//! made here from `--seed`; the same seed gives the same bytes.

/// SplitMix64: tiny, stateless-to-seed, and good enough that LZ4 finds
/// nothing to compress in its output.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose, so workloads drawing different
    /// inputs from one `--seed` do not share a stream.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let salt = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `len` incompressible bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// `count` little-endian `f32`s uniform in `[-1, 1)` — finite, so
    /// kernels over them compare bit-for-bit.
    pub fn f32_bytes(&mut self, count: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(count * 4);
        for _ in 0..count {
            let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            out.extend_from_slice(&(2.0 * unit - 1.0).to_le_bytes());
        }
        out
    }

    /// `len` bytes that LZ4 shrinks to roughly half: random runs (which do
    /// not compress) alternate with runs of one fill byte (which vanish).
    /// The seed chooses the fill byte and every run length. One fill value
    /// keeps the byte entropy near 5 bits, clear of the codec's 7-bit
    /// "looks random, don't try" probe.
    pub fn half_compressible(&mut self, len: usize) -> Vec<u8> {
        let fill = self.next_u64() as u8;
        let mut out = Vec::with_capacity(len + 256);
        while out.len() < len {
            let noisy = self.range(64, 192) as usize;
            let chunk = self.bytes(noisy);
            out.extend_from_slice(&chunk);
            let flat = self.range(64, 192) as usize;
            out.resize(out.len() + flat, fill);
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_purposes_are_independent() {
        assert_eq!(Rng::new(7, "a").bytes(100), Rng::new(7, "a").bytes(100));
        assert_ne!(Rng::new(7, "a").bytes(100), Rng::new(8, "a").bytes(100));
        assert_ne!(Rng::new(7, "a").bytes(100), Rng::new(7, "b").bytes(100));
    }

    #[test]
    fn floats_are_finite_and_in_range() {
        let bytes = Rng::new(1, "f").f32_bytes(1000);
        for c in bytes.chunks_exact(4) {
            let x = f32::from_le_bytes(c.try_into().unwrap());
            assert!((-1.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = Rng::new(3, "r");
        let draws: Vec<u64> = (0..200).map(|_| rng.range(2, 4)).collect();
        assert!(draws.iter().all(|d| (2..=4).contains(d)));
        assert!(draws.contains(&2) && draws.contains(&4));
    }
}
