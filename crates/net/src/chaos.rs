//! Seeded, deterministic fault injection for the fabric.
//!
//! The chaos layer decides, per message, whether to drop, duplicate, or
//! delay it. The crucial property is *determinism under thread
//! interleaving*: a fault decision is a pure function of `(seed, message
//! key)` — **not** of RNG draw order — so two runs of the same workload
//! with the same seed realize the same fault schedule for the same
//! messages no matter how the sending threads interleave (the
//! FoundationDB-style simulation discipline). Message identity comes from
//! [`crate::WireSize::chaos_key`]: a message with no key (control-plane
//! traffic, client links) is exempt from chaos.
//!
//! Retransmissions must carry a *different* key (e.g. an attempt counter
//! folded in), otherwise a dropped message would be dropped on every
//! retry and reliability could never converge.

use std::time::Duration;

/// Per-fabric chaos model. Probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the pure decision function.
    pub seed: u64,
    /// Probability a keyed message is silently dropped.
    pub drop_prob: f64,
    /// Probability a keyed message is delivered twice.
    pub dup_prob: f64,
    /// Probability a keyed message gets extra delay.
    pub delay_prob: f64,
    /// Maximum extra delay (the realized delay is key-derived in
    /// `(0, max_delay]`).
    pub max_delay: Duration,
    /// When true, chaos-delayed messages (and duplicate copies) bypass
    /// the per-link FIFO floor, so later sends can overtake them.
    pub reorder: bool,
    /// Chaos applies only to links whose endpoints are both `< scope`
    /// (e.g. the backend servers but not the client endpoint).
    pub scope: usize,
}

/// The realized fate of one keyed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosDecision {
    /// Drop the message entirely.
    pub drop: bool,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Extra delivery delay (zero = none).
    pub extra_delay: Duration,
    /// Extra delay of the duplicate copy relative to the original.
    pub dup_delay: Duration,
}

impl ChaosConfig {
    /// No chaos at all.
    pub fn off() -> Self {
        ChaosConfig {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            reorder: false,
            scope: 0,
        }
    }

    /// True when this configuration can never touch a message.
    pub fn is_off(&self) -> bool {
        self.scope == 0 || (self.drop_prob <= 0.0 && self.dup_prob <= 0.0 && self.delay_prob <= 0.0)
    }

    /// Whether a message may arrive later than it is sent: delays, or
    /// duplicate copies, which are offset so they can arrive out of order.
    pub fn delays_delivery(&self) -> bool {
        !self.is_off() && (self.delay_prob > 0.0 || self.dup_prob > 0.0)
    }

    /// Whether chaos applies to the `(from, to)` link.
    pub fn applies_to_link(&self, from: usize, to: usize) -> bool {
        !self.is_off() && from < self.scope && to < self.scope
    }

    /// The pure decision function: same `(seed, key)` ⇒ same decision,
    /// on any run, any thread interleaving.
    pub fn decide(&self, key: u64) -> ChaosDecision {
        let h0 = splitmix64(self.seed ^ key);
        let h1 = splitmix64(h0);
        let h2 = splitmix64(h1);
        let h3 = splitmix64(h2);
        let drop = unit(h0) < self.drop_prob;
        let duplicate = !drop && unit(h1) < self.dup_prob;
        let delayed = !drop && unit(h2) < self.delay_prob;
        let extra_delay = if delayed {
            scale_delay(h3, self.max_delay)
        } else {
            Duration::ZERO
        };
        // The duplicate's offset reuses the delay scale so a dup can also
        // land out of order; key-derived, so equally deterministic.
        let dup_delay = if duplicate {
            scale_delay(
                splitmix64(h3),
                self.max_delay.max(Duration::from_micros(50)),
            )
        } else {
            Duration::ZERO
        };
        ChaosDecision {
            drop,
            duplicate,
            extra_delay,
            dup_delay,
        }
    }
}

/// SplitMix64 — tiny, stateless, well-mixed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to a uniform in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Map a hash to a duration in `(0, max]` (at least 1 µs so a "delayed"
/// message is actually late).
fn scale_delay(h: u64, max: Duration) -> Duration {
    let max_ns = max.as_nanos() as u64;
    if max_ns == 0 {
        return Duration::from_micros(1);
    }
    Duration::from_nanos((h % max_ns).max(1_000))
}

/// Mix a set of identity fields into one chaos key. Message types use
/// this to implement [`crate::WireSize::chaos_key`].
pub fn chaos_key_of(fields: &[u64]) -> u64 {
    let mut acc = 0x6A09_E667_F3BC_C909u64; // sqrt(2) fractional bits
    for &f in fields {
        acc = splitmix64(acc ^ f);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_prob: 0.1,
            dup_prob: 0.1,
            delay_prob: 0.3,
            max_delay: Duration::from_millis(2),
            reorder: true,
            scope: 4,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = lossy(42);
        let b = lossy(42);
        for key in 0..10_000u64 {
            assert_eq!(a.decide(key), b.decide(key), "key {key} diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = lossy(1);
        let b = lossy(2);
        let diverged = (0..10_000u64)
            .filter(|&k| a.decide(k) != b.decide(k))
            .count();
        assert!(diverged > 1_000, "seeds barely diverged: {diverged}");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let c = lossy(7);
        let n = 100_000u64;
        let drops = (0..n).filter(|&k| c.decide(k).drop).count() as f64 / n as f64;
        let dups = (0..n).filter(|&k| c.decide(k).duplicate).count() as f64 / n as f64;
        assert!((drops - 0.1).abs() < 0.01, "drop rate {drops}");
        // Duplication only applies to non-dropped messages (0.9 * 0.1).
        assert!((dups - 0.09).abs() < 0.01, "dup rate {dups}");
    }

    #[test]
    fn off_config_is_inert() {
        let c = ChaosConfig::off();
        assert!(c.is_off());
        assert!(!c.delays_delivery());
        assert!(!c.applies_to_link(0, 1));
    }

    #[test]
    fn scope_excludes_client_links() {
        let c = lossy(3);
        assert!(c.applies_to_link(0, 3));
        assert!(!c.applies_to_link(0, 4), "client endpoint is out of scope");
        assert!(!c.applies_to_link(4, 0));
    }

    #[test]
    fn delays_are_bounded_and_positive() {
        let c = lossy(9);
        for key in 0..10_000u64 {
            let d = c.decide(key);
            assert!(d.extra_delay <= c.max_delay);
            if d.extra_delay > Duration::ZERO {
                assert!(d.extra_delay >= Duration::from_micros(1));
            }
        }
    }

    #[test]
    fn key_mixing_is_order_sensitive() {
        assert_ne!(chaos_key_of(&[1, 2]), chaos_key_of(&[2, 1]));
        assert_ne!(chaos_key_of(&[1, 2]), chaos_key_of(&[1, 3]));
    }
}
