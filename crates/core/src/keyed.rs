//! Keyed folded-multiply hashing for the maps on the traversal hot path:
//! the vertex table's slots and travels, and the coordinator's execution
//! sets. Vertex ids are chosen by clients, so the state starts from a
//! per-process random seed (drawn from std's `RandomState`) rather than a
//! constant; each word is folded in by a 64×64 → 128-bit multiply whose
//! high half is xored onto the low one, so high key bits reach the bucket
//! bits. A probe costs a multiply per word instead of a SipHash round.

use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The hasher and its builder: a copy of the process seed.
#[derive(Clone, Copy)]
pub(crate) struct Keyed(u64);

impl Default for Keyed {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Keyed(*SEED.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for Keyed {
    type Hasher = Keyed;
    fn build_hasher(&self) -> Keyed {
        *self
    }
}

impl Hasher for Keyed {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x5851_f42d_4c95_7f2d;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys that differ only in their top byte spread over the low bits
    /// a small table indexes by.
    #[test]
    fn high_key_bits_reach_the_bucket_bits() {
        let k = Keyed::default();
        let buckets: std::collections::BTreeSet<u64> =
            (0..64u64).map(|v| k.hash_one(v << 56) & 63).collect();
        assert!(buckets.len() > 32, "{} of 64 buckets", buckets.len());
    }
}
