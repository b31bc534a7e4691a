#![warn(missing_docs)]

//! # gt-kvstore — log-structured persistent key-value store
//!
//! A compact but complete LSM-style key-value store used as the storage
//! substrate of the GraphTrek reproduction. The paper deploys RocksDB on
//! every backend server (§VI); this crate plays that role with the same
//! structural properties the traversal engine relies on:
//!
//! * **Namespaces** — independent keyspaces ("different types of vertices
//!   are mapped into key-value pairs in separate namespaces", §VI). Each
//!   namespace is its own LSM tree (WAL + memtable + sorted segments).
//! * **Sorted, prefix-scannable storage** — "the attributes and the
//!   connected edges of a vertex \[are\] sequentially stored for better scan
//!   performance" (§VI). [`Tree::scan_prefix`] performs a merged
//!   ordered scan over the memtable and all on-disk segments.
//! * **Write-ahead logging** with CRC-protected atomic batches, memtable
//!   flush into immutable sorted segment files carrying a sparse index and
//!   a bloom filter, a block cache, and full-merge compaction.
//! * **An I/O cost model** ([`IoProfile`]) that charges configurable
//!   latencies for cold (disk) versus warm (memory) accesses, standing in
//!   for the rotating-disk / GPFS behaviour of the paper's testbed. The
//!   traversal-engine experiments measure exactly this cost, so the model
//!   is a first-class part of the substrate rather than a benchmarking
//!   afterthought.
//!
//! ```
//! use gt_kvstore::{Store, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("gtkv-doc-{}", std::process::id()));
//! let store = Store::open(StoreConfig::new(&dir)).unwrap();
//! let ns = store.namespace("vertices").unwrap();
//! ns.put(b"v/42", b"hello".as_slice()).unwrap();
//! assert_eq!(ns.get(b"v/42").unwrap().as_deref(), Some(b"hello".as_slice()));
//! # drop(store);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod batch;
pub mod bloom;
pub mod cache;
pub mod error;
pub mod iomodel;
pub mod memtable;
pub mod segment;
pub mod store;
pub mod tree;
pub mod version;
pub mod wal;

pub use batch::WriteBatch;
pub use error::{Error, Result};
pub use iomodel::{AccessKind, IoProfile, IoScope, IoStats};
pub use store::{Store, StoreConfig};
pub use tree::Tree;
pub use version::{ReadView, VersionState, VersionStatsSnapshot};

/// Handle to a single namespace (column-family equivalent) of a [`Store`].
pub type Namespace = std::sync::Arc<Tree>;

/// CRC-32 (IEEE) used by the WAL and segment footers.
///
/// Implemented locally so the store has zero non-sanctioned dependencies.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_corruption() {
        let a = crc32(b"graphtrek");
        let b = crc32(b"graphtrex");
        assert_ne!(a, b);
    }
}
