//! Engine selection and tuning.

use crate::cache::CACHE_CAPACITY;
use crate::faults::{ChaosPlan, FaultPlan};
use gt_net::NetConfig;

/// How cluster endpoints exchange messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The simulated in-process fabric: bounded channels plus the
    /// latency/bandwidth/chaos model. The default; byte-identical to the
    /// pre-transport engine.
    #[default]
    InProc,
    /// Length-prefixed frames over TCP loopback — every message crosses
    /// a real socket, one listener per cluster.
    Tcp,
    /// Length-prefixed frames over a Unix-domain socket.
    Uds,
}

impl TransportKind {
    /// Display name used in benches and logs.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }
}

/// Which traversal engine a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Level-synchronous baseline (the paper's **Sync-GT**): a controller
    /// barrier between steps, data flowing server-to-server (§VI) — the
    /// Async-GT path behind a step gate that the coordinator's ledger
    /// opens, each step one execution per server.
    Sync,
    /// Plain asynchronous traversal (the paper's **Async-GT**): no
    /// barrier, but also no caching or merging (§VII-A's ablation).
    AsyncPlain,
    /// Asynchronous traversal with traversal-affiliate caching and
    /// execution scheduling & merging — **GraphTrek** proper (§V).
    GraphTrek,
}

impl EngineKind {
    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Sync => "Sync-GT",
            EngineKind::AsyncPlain => "Async-GT",
            EngineKind::GraphTrek => "GraphTrek",
        }
    }

    /// All three engines, in the paper's table order.
    pub fn all() -> [EngineKind; 3] {
        [
            EngineKind::Sync,
            EngineKind::AsyncPlain,
            EngineKind::GraphTrek,
        ]
    }
}

/// Per-cluster engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Engine flavour.
    pub kind: EngineKind,
    /// Worker threads per backend server ("a pool of worker threads is
    /// waiting on this queue", §V-B).
    pub workers_per_server: usize,
    /// Network latency/bandwidth model.
    pub net: NetConfig,
    /// Straggler injection plan (Fig. 11 experiments).
    pub faults: FaultPlan,
    /// Seeded lossy-transport + crash schedule (the chaos harness).
    pub chaos: ChaosPlan,
    /// Force the reliable-delivery layer (sequenced, ack'd, retransmitted
    /// frontier forwarding with epoch fencing) on without a chaos plan. A
    /// chaos plan that needs it turns it on by itself; nothing turns it
    /// off under one, and the chaos-free fast path stays byte-identical
    /// to the plain engine.
    pub reliable_delivery: bool,
    /// Override: force the scheduling/merging queue on or off
    /// independently of `kind` (ablation experiments). `None` follows the
    /// kind's default.
    pub force_merging_queue: Option<bool>,
    /// Override: force the traversal-affiliate cache on or off (ablation).
    pub force_cache: Option<bool>,
    /// MVCC snapshot isolation: stores stamp every write with a
    /// cluster-wide sequence number and each travel reads a frozen view
    /// captured when it starts, so a travel never observes ingest that
    /// raced past it. Off by default: keys are stored raw, reads take
    /// the unversioned path, and every `snapshot_counters()` entry stays
    /// exactly zero.
    pub snapshot_isolation: bool,
    /// How endpoints exchange messages: the simulated in-process fabric
    /// (default) or real sockets (TCP loopback / UDS) with every message
    /// passing through the binary wire codec. Chaos injection requires
    /// the simulated fabric; combining it with a socket transport is a
    /// build error.
    pub transport: TransportKind,
}

impl EngineConfig {
    /// Defaults for a given engine kind.
    pub fn new(kind: EngineKind) -> Self {
        EngineConfig {
            kind,
            workers_per_server: 2,
            net: NetConfig::instant(),
            faults: FaultPlan::none(),
            chaos: ChaosPlan::none(),
            reliable_delivery: false,
            force_merging_queue: None,
            force_cache: None,
            snapshot_isolation: false,
            transport: TransportKind::InProc,
        }
    }

    /// Builder-style: worker threads per server.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers_per_server = n.max(1);
        self
    }

    /// Builder-style: network model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Builder-style: fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: chaos schedule.
    pub fn chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builder-style: run the reliable-delivery layer even without a
    /// chaos plan (on with zero fault probabilities, so a scripted crash
    /// or isolation healing via retransmit can be tested).
    pub fn force_reliable_delivery(mut self, on: bool) -> Self {
        self.reliable_delivery = on;
        self
    }

    /// Builder-style: ablation override for the merging queue.
    pub fn force_merging_queue(mut self, on: bool) -> Self {
        self.force_merging_queue = Some(on);
        self
    }

    /// Builder-style: ablation override for the cache.
    pub fn force_cache(mut self, on: bool) -> Self {
        self.force_cache = Some(on);
        self
    }

    /// Builder-style: MVCC snapshot isolation for travels over a
    /// mutating graph.
    pub fn snapshot_isolation(mut self, on: bool) -> Self {
        self.snapshot_isolation = on;
        self
    }

    /// Builder-style: message transport (in-process fabric or sockets).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Whether inter-server frontier forwarding runs through the
    /// reliable-delivery layer (sequence numbers, acks, retransmission
    /// with capped exponential backoff, epoch fencing, redelivery
    /// dedupe). Off by default so the chaos-free bench paths pay nothing.
    pub fn reliable_delivery_enabled(&self) -> bool {
        self.reliable_delivery || self.chaos.requires_reliable_delivery()
    }

    /// Whether this configuration uses the scheduling/merging queue.
    pub fn merging_queue_enabled(&self) -> bool {
        self.force_merging_queue
            .unwrap_or(matches!(self.kind, EngineKind::GraphTrek))
    }

    /// The traversal-affiliate cache capacity in triples: [`CACHE_CAPACITY`]
    /// where the cache is on (GraphTrek, or forced), 0 where it is off.
    pub fn effective_cache_capacity(&self) -> usize {
        let default_on = matches!(self.kind, EngineKind::GraphTrek);
        if self.force_cache.unwrap_or(default_on) {
            CACHE_CAPACITY
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_defaults() {
        assert!(EngineConfig::new(EngineKind::GraphTrek).merging_queue_enabled());
        assert!(EngineConfig::new(EngineKind::GraphTrek).effective_cache_capacity() > 0);
        assert!(!EngineConfig::new(EngineKind::AsyncPlain).merging_queue_enabled());
        assert_eq!(
            EngineConfig::new(EngineKind::AsyncPlain).effective_cache_capacity(),
            0
        );
        assert_eq!(
            EngineConfig::new(EngineKind::Sync).effective_cache_capacity(),
            0
        );
    }

    #[test]
    fn ablation_overrides() {
        let cfg = EngineConfig::new(EngineKind::GraphTrek).force_cache(false);
        assert_eq!(cfg.effective_cache_capacity(), 0);
        assert!(cfg.merging_queue_enabled());
        let cfg = EngineConfig::new(EngineKind::AsyncPlain)
            .force_merging_queue(true)
            .force_cache(true);
        assert!(cfg.merging_queue_enabled());
        assert_eq!(cfg.effective_cache_capacity(), CACHE_CAPACITY);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(EngineKind::Sync.label(), "Sync-GT");
        assert_eq!(EngineKind::AsyncPlain.label(), "Async-GT");
        assert_eq!(EngineKind::GraphTrek.label(), "GraphTrek");
        assert_eq!(EngineKind::all().len(), 3);
    }

    #[test]
    fn snapshot_isolation_default_off() {
        let cfg = EngineConfig::new(EngineKind::GraphTrek);
        assert!(!cfg.snapshot_isolation, "dormant by default");
        assert!(cfg.snapshot_isolation(true).snapshot_isolation);
    }

    #[test]
    fn reliable_delivery_follows_chaos_plan() {
        let cfg = EngineConfig::new(EngineKind::GraphTrek);
        assert!(!cfg.reliable_delivery_enabled(), "off without chaos");
        let cfg = cfg.chaos(ChaosPlan::lossy(1));
        assert!(cfg.reliable_delivery_enabled(), "on under chaos");
        let cfg = EngineConfig::new(EngineKind::Sync).force_reliable_delivery(true);
        assert!(cfg.reliable_delivery_enabled(), "forced on without chaos");
        let cfg = EngineConfig::new(EngineKind::Sync)
            .chaos(ChaosPlan::lossy(1))
            .force_reliable_delivery(false);
        assert!(cfg.reliable_delivery_enabled(), "a chaos plan needs it");
    }

    #[test]
    fn transport_defaults_to_inproc() {
        let cfg = EngineConfig::new(EngineKind::GraphTrek);
        assert_eq!(cfg.transport, TransportKind::InProc);
        assert_eq!(cfg.transport(TransportKind::Uds).transport.label(), "uds");
        assert_eq!(TransportKind::Tcp.label(), "tcp");
    }

    #[test]
    fn workers_floor_at_one() {
        assert_eq!(
            EngineConfig::new(EngineKind::Sync)
                .workers(0)
                .workers_per_server,
            1
        );
    }
}
