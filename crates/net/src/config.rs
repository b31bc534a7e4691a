//! Network behaviour configuration.

use std::time::Duration;

/// Latency/bandwidth model applied to every message.
///
/// One-way delivery delay = `latency + U[0, jitter] + encoded_len * per_byte`,
/// floored so per-link FIFO order is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Base one-way latency.
    pub latency: Duration,
    /// Uniform jitter bound added on top of `latency`.
    pub jitter: Duration,
    /// Transmission cost per payload byte for interactive traffic.
    pub per_byte: Duration,
    /// Transmission cost per payload byte for bulk-class traffic
    /// (snapshot shipping); usually slower than `per_byte`, modelling a
    /// throughput lane that yields to the latency-sensitive path.
    pub bulk_per_byte: Duration,
    /// RNG seed for jitter (experiments stay reproducible).
    pub seed: u64,
}

impl NetConfig {
    /// Instant delivery — unit tests and logic-only experiments.
    pub const fn instant() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            per_byte: Duration::ZERO,
            bulk_per_byte: Duration::ZERO,
            seed: 0,
        }
    }

    /// A cluster-interconnect-like profile (InfiniBand-class, scaled to
    /// the reproduction's compressed time base): a few microseconds of
    /// latency, light jitter, high bandwidth. Bulk transfers are charged
    /// 4× the interactive per-byte cost.
    pub const fn cluster() -> Self {
        NetConfig {
            latency: Duration::from_micros(20),
            jitter: Duration::from_micros(10),
            per_byte: Duration::from_nanos(1),
            bulk_per_byte: Duration::from_nanos(4),
            seed: 0x6772_7472,
        }
    }

    /// True when the model adds no delay at all.
    pub fn is_instant(&self) -> bool {
        self.latency.is_zero()
            && self.jitter.is_zero()
            && self.per_byte.is_zero()
            && self.bulk_per_byte.is_zero()
    }

    /// Builder-style: replace the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_is_instant() {
        assert!(NetConfig::instant().is_instant());
        assert!(!NetConfig::cluster().is_instant());
    }

    #[test]
    fn seed_builder() {
        let c = NetConfig::cluster().seed(42);
        assert_eq!(c.seed, 42);
        assert_eq!(c.latency, NetConfig::cluster().latency);
    }
}
