//! Per-link traffic counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Message/byte counters for every (from, to) link of a fabric.
#[derive(Debug)]
pub struct NetStats {
    n: usize,
    msgs: Vec<AtomicU64>,
    bytes: Vec<AtomicU64>,
    dropped: AtomicU64,
    chaos_dropped: AtomicU64,
    chaos_duplicated: AtomicU64,
    chaos_delayed: AtomicU64,
    bulk_messages: AtomicU64,
    bulk_bytes: AtomicU64,
}

impl NetStats {
    /// Counters for an `n`-endpoint fabric.
    pub fn new(n: usize) -> Self {
        NetStats {
            n,
            msgs: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            dropped: AtomicU64::new(0),
            chaos_dropped: AtomicU64::new(0),
            chaos_duplicated: AtomicU64::new(0),
            chaos_delayed: AtomicU64::new(0),
            bulk_messages: AtomicU64::new(0),
            bulk_bytes: AtomicU64::new(0),
        }
    }

    #[inline]
    fn idx(&self, from: usize, to: usize) -> usize {
        from * self.n + to
    }

    /// Record one delivered message.
    pub fn record(&self, from: usize, to: usize, bytes: usize) {
        self.msgs[self.idx(from, to)].fetch_add(1, Ordering::Relaxed);
        self.bytes[self.idx(from, to)].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one dropped (isolated) message.
    pub fn record_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages sent from `from` to `to`.
    pub fn messages(&self, from: usize, to: usize) -> u64 {
        self.msgs[self.idx(from, to)].load(Ordering::Relaxed)
    }

    /// Bytes sent from `from` to `to`.
    pub fn bytes(&self, from: usize, to: usize) -> u64 {
        self.bytes[self.idx(from, to)].load(Ordering::Relaxed)
    }

    /// Total messages across all links.
    pub fn total_messages(&self) -> u64 {
        self.msgs.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Total bytes across all links.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Messages dropped by isolation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one message dropped by chaos injection.
    pub fn record_chaos_drop(&self) {
        self.chaos_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one message duplicated by chaos injection.
    pub fn record_chaos_dup(&self) {
        self.chaos_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one message given extra delay by chaos injection.
    pub fn record_chaos_delay(&self) {
        self.chaos_delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages dropped by chaos injection.
    pub fn chaos_dropped(&self) -> u64 {
        self.chaos_dropped.load(Ordering::Relaxed)
    }

    /// Messages duplicated by chaos injection.
    pub fn chaos_duplicated(&self) -> u64 {
        self.chaos_duplicated.load(Ordering::Relaxed)
    }

    /// Messages delayed by chaos injection.
    pub fn chaos_delayed(&self) -> u64 {
        self.chaos_delayed.load(Ordering::Relaxed)
    }

    /// Record one bulk-class message (in addition to the per-link record).
    pub fn record_bulk(&self, bytes: usize) {
        self.bulk_messages.fetch_add(1, Ordering::Relaxed);
        self.bulk_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Messages that rode the bulk bandwidth lane.
    pub fn bulk_messages(&self) -> u64 {
        self.bulk_messages.load(Ordering::Relaxed)
    }

    /// Bytes shipped on the bulk bandwidth lane.
    pub fn bulk_bytes(&self) -> u64 {
        self.bulk_bytes.load(Ordering::Relaxed)
    }

    /// Number of endpoints this fabric was built with.
    pub fn n_endpoints(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_link() {
        let s = NetStats::new(3);
        s.record(0, 1, 10);
        s.record(0, 1, 5);
        s.record(2, 0, 7);
        assert_eq!(s.messages(0, 1), 2);
        assert_eq!(s.bytes(0, 1), 15);
        assert_eq!(s.messages(1, 0), 0);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 22);
    }

    #[test]
    fn drop_counter() {
        let s = NetStats::new(2);
        assert_eq!(s.dropped(), 0);
        s.record_drop();
        assert_eq!(s.dropped(), 1);
    }
}
