//! The simulated carrier: a [`Link`] with a latency model and a chaos
//! shim. A delayed message is pushed onto its receiver's [`Inbox`] at once,
//! with the time it is due ([`Inbox::push_at`]); the inbox holds it back
//! until then.

use crate::chaos::ChaosConfig;
use crate::config::NetConfig;
use crate::endpoint::{Endpoint, Envelope, Link, SendError};
use crate::inbox::Inbox;
use crate::stats::NetStats;
use crate::WireSize;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Shared<M> {
    cfg: NetConfig,
    chaos: ChaosConfig,
    /// A message may arrive later than it is sent: the model has latency,
    /// or chaos delays or duplicates. Decided once, at construction.
    timed: bool,
    inboxes: Vec<Arc<Inbox<M>>>,
    stats: Arc<NetStats>,
    isolated: Vec<AtomicBool>,
    /// Per-link floor for the next delivery time, enforcing FIFO order.
    link_floor: Mutex<Vec<Instant>>,
    rng: Mutex<SmallRng>,
}

/// The fabric itself: isolation and counters. Endpoints share the inboxes
/// and the link, so dropping this handle stops nothing and they never see
/// [`RecvError::Closed`](crate::RecvError::Closed).
pub struct Fabric<M> {
    shared: Arc<Shared<M>>,
}

impl<M> std::fmt::Debug for Fabric<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("endpoints", &self.shared.inboxes.len())
            .finish()
    }
}

impl<M: Send + WireSize + Clone + 'static> Fabric<M> {
    /// Build a fabric with `n` endpoints under the given network model.
    pub fn new(n: usize, cfg: NetConfig) -> (Fabric<M>, Vec<Endpoint<M>>) {
        Self::with_chaos(n, cfg, ChaosConfig::off())
    }

    /// Build a fabric whose keyed messages additionally pass through a
    /// seeded fault-injection layer (see [`ChaosConfig`]).
    pub fn with_chaos(
        n: usize,
        cfg: NetConfig,
        chaos: ChaosConfig,
    ) -> (Fabric<M>, Vec<Endpoint<M>>) {
        let inboxes: Vec<Arc<Inbox<M>>> = (0..n).map(|_| Arc::default()).collect();
        let now = Instant::now();
        let shared = Arc::new(Shared {
            cfg,
            chaos,
            timed: !cfg.is_instant() || chaos.delays_delivery(),
            inboxes,
            stats: Arc::new(NetStats::new(n)),
            isolated: (0..n).map(|_| AtomicBool::new(false)).collect(),
            link_floor: Mutex::new(vec![now; n * n]),
            rng: Mutex::new(SmallRng::seed_from_u64(cfg.seed)),
        });
        let endpoints = (0..n)
            .map(|id| Endpoint::new(id, shared.inboxes[id].clone(), shared.clone()))
            .collect();
        (Fabric { shared }, endpoints)
    }

    /// Isolate (or reconnect) an endpoint: while isolated, every message
    /// to or from it is silently dropped — the "silent failure" condition
    /// the traversal status tracing must detect.
    pub fn isolate(&self, id: usize, isolated: bool) {
        self.shared.isolate(id, isolated);
    }

    /// Traffic counters.
    pub fn stats(&self) -> Arc<NetStats> {
        self.shared.stats.clone()
    }
}

impl<M: Send + WireSize + Clone + 'static> Link<M> for Shared<M> {
    fn send(&self, from: usize, to: usize, msg: M) -> Result<(), SendError> {
        if to >= self.inboxes.len() {
            return Err(SendError::UnknownEndpoint);
        }
        if self.isolated[from].load(Ordering::Relaxed) || self.isolated[to].load(Ordering::Relaxed)
        {
            self.stats.record_drop();
            return Ok(()); // silently dropped, like a dead peer
        }
        // Seeded fault injection: a keyed message on an in-scope link gets
        // its fate from the pure decision function (drop / duplicate /
        // delay). Keyless messages (control plane, client links) pass
        // through untouched.
        let decision = if self.chaos.applies_to_link(from, to) {
            msg.chaos_key().map(|k| self.chaos.decide(k))
        } else {
            None
        };
        if let Some(d) = &decision {
            if d.drop {
                self.stats.record_chaos_drop();
                return Ok(()); // lost on the wire
            }
        }
        let size = msg.wire_size();
        self.stats.record(from, to, size);
        let bulk = msg.traffic_class() == crate::TrafficClass::Bulk;
        if bulk {
            self.stats.record_bulk(size);
        }
        let env = Envelope { from, to, msg };
        let dup_env = match &decision {
            Some(d) if d.duplicate => {
                self.stats.record_chaos_dup();
                Some(env.clone())
            }
            _ => None,
        };
        let extra = decision.map(|d| d.extra_delay).unwrap_or(Duration::ZERO);
        if !extra.is_zero() {
            self.stats.record_chaos_delay();
        }
        if !self.timed {
            // Untimed ⇒ chaos can only be dropping (`delays_delivery`
            // covers dup and delay), so delivering now is exact.
            return self.inboxes[to].push(env);
        }
        let delay = {
            let mut rng = self.rng.lock();
            let jitter_ns = if self.cfg.jitter.is_zero() {
                0
            } else {
                rng.gen_range(0..=self.cfg.jitter.as_nanos() as u64)
            };
            let per_byte = if bulk {
                self.cfg.bulk_per_byte
            } else {
                self.cfg.per_byte
            };
            self.cfg.latency + Duration::from_nanos(jitter_ns) + per_byte * (size as u32)
        };
        let mut deliver_at = Instant::now() + delay + extra;
        // A chaos-delayed message with `reorder` on skips the FIFO floor:
        // later sends on the link may overtake it. Without `reorder` the
        // extra delay stalls the whole link instead.
        let bypass_floor = self.chaos.reorder && !extra.is_zero();
        if !bypass_floor {
            let mut floors = self.link_floor.lock();
            let slot = from * self.inboxes.len() + to;
            if deliver_at < floors[slot] {
                deliver_at = floors[slot] + Duration::from_nanos(1);
            }
            floors[slot] = deliver_at;
        }
        let inbox = &self.inboxes[to];
        inbox.push_at(env, deliver_at)?;
        if let Some(denv) = dup_env {
            // Duplicate copies never consult the floor — a dup may arrive
            // out of order, which is exactly the hazard the receive-side
            // dedupe must absorb.
            let dd = decision.map(|d| d.dup_delay).unwrap_or_default();
            inbox.push_at(denv, deliver_at + dd)?;
        }
        Ok(())
    }

    fn n_endpoints(&self) -> usize {
        self.inboxes.len()
    }

    fn stats(&self) -> Arc<NetStats> {
        self.stats.clone()
    }

    fn isolate(&self, id: usize, isolated: bool) {
        self.isolated[id].store(isolated, Ordering::Relaxed);
    }

    fn close(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_fabric_delivers_in_order() {
        let (_fabric, eps) = Fabric::<u64>::new(2, NetConfig::instant());
        for i in 0..100u64 {
            eps[0].send(1, i).unwrap();
        }
        for i in 0..100u64 {
            let env = eps[1].recv().unwrap();
            assert_eq!(env.msg, i);
            assert_eq!(env.from, 0);
        }
    }

    #[test]
    fn delayed_fabric_delivers_after_latency() {
        let cfg = NetConfig {
            latency: Duration::from_millis(5),
            jitter: Duration::ZERO,
            per_byte: Duration::ZERO,
            bulk_per_byte: Duration::ZERO,
            seed: 1,
        };
        let (_fabric, eps) = Fabric::<u64>::new(2, cfg);
        let t0 = Instant::now();
        eps[0].send(1, 42).unwrap();
        assert!(eps[1].try_recv().is_none(), "must not deliver instantly");
        let env = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.msg, 42);
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn per_link_fifo_under_jitter() {
        let cfg = NetConfig {
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(500),
            per_byte: Duration::ZERO,
            bulk_per_byte: Duration::ZERO,
            seed: 7,
        };
        let (_fabric, eps) = Fabric::<u64>::new(2, cfg);
        for i in 0..200u64 {
            eps[0].send(1, i).unwrap();
        }
        for i in 0..200u64 {
            let env = eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.msg, i, "jitter must not reorder a link");
        }
    }

    #[test]
    fn isolation_drops_silently() {
        let (fabric, eps) = Fabric::<u64>::new(3, NetConfig::instant());
        fabric.isolate(1, true);
        eps[0].send(1, 1).unwrap(); // to isolated
        eps[1].send(2, 2).unwrap(); // from isolated
        eps[0].send(2, 3).unwrap(); // unaffected
        let env = eps[2].recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(env.msg, 3);
        assert!(eps[1].try_recv().is_none());
        assert_eq!(fabric.stats().dropped(), 2);
        // Reconnect and verify traffic resumes.
        fabric.isolate(1, false);
        eps[0].send(1, 9).unwrap();
        assert_eq!(
            eps[1].recv_timeout(Duration::from_millis(100)).unwrap().msg,
            9
        );
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (fabric, eps) = Fabric::<Vec<u8>>::new(2, NetConfig::instant());
        eps[0].send(1, vec![0u8; 100]).unwrap();
        eps[0].send(1, vec![0u8; 50]).unwrap();
        let st = fabric.stats();
        assert_eq!(st.messages(0, 1), 2);
        assert_eq!(st.bytes(0, 1), 150);
        assert_eq!(st.total_messages(), 2);
    }

    #[test]
    fn per_byte_cost_slows_large_messages() {
        let cfg = NetConfig {
            latency: Duration::from_micros(1),
            jitter: Duration::ZERO,
            per_byte: Duration::from_micros(10),
            bulk_per_byte: Duration::ZERO,
            seed: 0,
        };
        let (_fabric, eps) = Fabric::<Vec<u8>>::new(2, cfg);
        let t0 = Instant::now();
        eps[0].send(1, vec![0u8; 1000]).unwrap();
        eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        // 1000 bytes * 10µs = 10ms minimum.
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn many_senders_one_receiver() {
        let (_fabric, mut eps) = Fabric::<u64>::new(5, NetConfig::instant());
        let sink = eps.remove(0);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        ep.send(0, i).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        while sink.try_recv().is_some() {
            count += 1;
        }
        assert_eq!(count, 400);
    }

    #[test]
    fn self_send_works() {
        let (_fabric, eps) = Fabric::<u64>::new(1, NetConfig::instant());
        eps[0].send(0, 7).unwrap();
        assert_eq!(eps[0].recv().unwrap().msg, 7);
    }

    /// A payload that rides the bulk bandwidth lane.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Chunk(Vec<u8>);

    impl WireSize for Chunk {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
        fn traffic_class(&self) -> crate::TrafficClass {
            crate::TrafficClass::Bulk
        }
    }

    #[test]
    fn bulk_class_charged_at_bulk_rate() {
        let cfg = NetConfig {
            latency: Duration::from_micros(1),
            jitter: Duration::ZERO,
            per_byte: Duration::ZERO,
            bulk_per_byte: Duration::from_micros(10),
            seed: 0,
        };
        let (fabric, eps) = Fabric::<Chunk>::new(2, cfg);
        let t0 = Instant::now();
        eps[0].send(1, Chunk(vec![0u8; 1000])).unwrap();
        eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        // 1000 bytes * 10µs bulk rate = 10ms minimum despite per_byte = 0.
        assert!(t0.elapsed() >= Duration::from_millis(10));
        let st = fabric.stats();
        assert_eq!(st.bulk_messages(), 1);
        assert_eq!(st.bulk_bytes(), 1000);
    }

    #[test]
    fn interactive_traffic_leaves_bulk_counters_flat() {
        let (fabric, eps) = Fabric::<Vec<u8>>::new(2, NetConfig::instant());
        eps[0].send(1, vec![0u8; 100]).unwrap();
        eps[1].recv().unwrap();
        assert_eq!(fabric.stats().bulk_messages(), 0);
        assert_eq!(fabric.stats().bulk_bytes(), 0);
    }

    /// A message that opts into chaos with its value as identity.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Keyed(u64);

    impl WireSize for Keyed {
        fn wire_size(&self) -> usize {
            8
        }
        fn chaos_key(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    /// A keyed bulk message: chaos coverage must extend to the bulk lane.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct KeyedChunk(u64);

    impl WireSize for KeyedChunk {
        fn wire_size(&self) -> usize {
            64
        }
        fn chaos_key(&self) -> Option<u64> {
            Some(self.0)
        }
        fn traffic_class(&self) -> crate::TrafficClass {
            crate::TrafficClass::Bulk
        }
    }

    #[test]
    fn keyed_bulk_messages_stay_under_chaos() {
        let (fabric, eps) = Fabric::<KeyedChunk>::with_chaos(2, NetConfig::instant(), lossy(99, 2));
        for k in 0..500u64 {
            eps[0].send(1, KeyedChunk(k)).unwrap();
        }
        let mut arrived = 0u64;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match eps[1].recv_timeout(Duration::from_millis(50)) {
                Ok(_) => arrived += 1,
                Err(_) => break,
            }
        }
        let st = fabric.stats();
        assert!(st.chaos_dropped() > 50, "bulk lane must not dodge chaos");
        assert!(arrived < 500 + st.chaos_duplicated());
        assert_eq!(st.bulk_messages(), 500 - st.chaos_dropped());
    }

    fn lossy(seed: u64, scope: usize) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_prob: 0.2,
            dup_prob: 0.2,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            reorder: false,
            scope,
        }
    }

    /// Run `n` keyed messages through a chaotic fabric and count arrivals
    /// per key.
    fn deliveries(seed: u64, n: u64) -> Vec<u64> {
        let (_fabric, eps) = Fabric::<Keyed>::with_chaos(2, NetConfig::instant(), lossy(seed, 2));
        for k in 0..n {
            eps[0].send(1, Keyed(k)).unwrap();
        }
        let mut got = vec![0u64; n as usize];
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match eps[1].recv_timeout(Duration::from_millis(50)) {
                Ok(env) => got[env.msg.0 as usize] += 1,
                Err(_) => break,
            }
        }
        got
    }

    #[test]
    fn chaos_drops_and_duplicates_deterministically() {
        let a = deliveries(99, 500);
        let b = deliveries(99, 500);
        assert_eq!(a, b, "same seed must realize the same fault schedule");
        let dropped = a.iter().filter(|&&c| c == 0).count();
        let dupped = a.iter().filter(|&&c| c == 2).count();
        assert!(dropped > 50, "expected ~20% drops, got {dropped}/500");
        assert!(dupped > 30, "expected ~16% dups, got {dupped}/500");
    }

    #[test]
    fn chaos_ignores_keyless_and_out_of_scope_messages() {
        // u64 has no chaos key: every message arrives exactly once.
        let (fabric, eps) = Fabric::<u64>::with_chaos(2, NetConfig::instant(), lossy(1, 2));
        for i in 0..200u64 {
            eps[0].send(1, i).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(eps[1].recv().unwrap().msg, i);
        }
        assert_eq!(fabric.stats().chaos_dropped(), 0);
        // Keyed messages outside the scope (endpoint 2 = "client") pass.
        let (fabric, eps) = Fabric::<Keyed>::with_chaos(3, NetConfig::instant(), lossy(1, 2));
        for i in 0..200u64 {
            eps[0].send(2, Keyed(i)).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(eps[2].recv().unwrap().msg, Keyed(i));
        }
        assert_eq!(fabric.stats().chaos_dropped(), 0);
    }
}
