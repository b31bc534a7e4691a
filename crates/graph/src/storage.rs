//! One server's persisted graph shard.
//!
//! [`GraphPartition`] realizes the storage layout of §VI over a
//! [`gt_kvstore::Store`]:
//!
//! * namespace `verts` — key `be64(vid)` → `(vtype, props)`; a vertex's
//!   attributes are one sequential KV pair.
//! * namespace `edges` — key `be64(src) | label | be64(dst)` → edge props;
//!   "the same type of edges are stored together", so iterating the
//!   `read` edges of a vertex is a single prefix scan.
//! * namespace `vt-<type>` — membership index per vertex type
//!   ("different types of vertices are mapped into key-value pairs in
//!   separate namespaces"), serving typed entry-point selection
//!   (`GTravel.v().va('type', EQ, 'Execution')`).

use crate::codec;
use crate::memory::InMemoryGraph;
use crate::model::{Edge, Props, Vertex, VertexId};
use crate::partition::{EdgeCutPartitioner, ServerId};
use crate::value::PropValue;
use gt_kvstore::{Namespace, ReadView, Result, Store, WriteBatch};
use std::sync::Arc;

/// Number of operations grouped per bulk-load batch.
const LOAD_BATCH: usize = 1024;

/// Reserved property stamped on vertices and edges at ingest when
/// snapshot versioning is on: the sequence number of the write that
/// *created* the entity (preserved across later upserts). GTravel's
/// `created_after(seq)` predicate filters on it.
pub const CREATED_SEQ_PROP: &str = "__created_seq";

/// One exported `(namespace, key, value)` row — the wire form of a shard
/// migration snapshot ([`GraphPartition::export_where`] /
/// [`GraphPartition::import_raw`]). `None` is a tombstone *version*:
/// with snapshot versioning on, keys are raw stamped internal keys and a
/// migration must carry deletes so they neither resurrect older values
/// on the target nor disappear for pinned mid-travel views.
pub type RawTriple = (String, Vec<u8>, Option<Vec<u8>>);

/// One backend server's shard of the property graph.
pub struct GraphPartition {
    store: Arc<Store>,
    verts: Namespace,
    edges: Namespace,
}

impl std::fmt::Debug for GraphPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphPartition")
            .field("dir", self.store.dir())
            .finish_non_exhaustive()
    }
}

impl GraphPartition {
    /// Open (or create) a partition inside `store`.
    pub fn open(store: Arc<Store>) -> Result<Self> {
        let verts = store.namespace("verts")?;
        let edges = store.namespace("edges")?;
        Ok(GraphPartition {
            store,
            verts,
            edges,
        })
    }

    fn type_ns(&self, vtype: &str) -> Result<Namespace> {
        // Vertex types become namespace directory names; non-alphanumeric
        // bytes are escaped to keep any type name valid.
        let mut name = String::with_capacity(3 + vtype.len());
        name.push_str("vt-");
        for b in vtype.bytes() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
                name.push(b as char);
            } else {
                name.push_str(&format!("_{b:02x}"));
            }
        }
        self.store.namespace(&name)
    }

    /// Insert or replace a vertex (attributes + type-index entry). With
    /// snapshot versioning on, the write is stamped at a freshly
    /// allocated sequence number.
    pub fn put_vertex(&self, v: &Vertex) -> Result<()> {
        match self.store.alloc_seq() {
            Some(seq) => self.put_vertex_at(v, seq),
            None => {
                self.verts
                    .put(codec::vertex_key(v.id).to_vec(), codec::encode_vertex(v))?;
                self.type_ns(&v.vtype)?
                    .put(codec::vertex_key(v.id).to_vec(), bytes::Bytes::new())?;
                Ok(())
            }
        }
    }

    /// Insert or replace a vertex, stamping every touched namespace at
    /// `seq` (one logical operation = one version across `verts` and the
    /// type index). Stamps [`CREATED_SEQ_PROP`] into the record,
    /// preserving the stamp of an existing version on upsert.
    pub fn put_vertex_at(&self, v: &Vertex, seq: u64) -> Result<()> {
        let mut v2 = v.clone();
        if v2.props.get(CREATED_SEQ_PROP).is_none() {
            let created = self
                .get_vertex_at(v.id, ReadView::LATEST)?
                .and_then(|old| old.props.get(CREATED_SEQ_PROP).cloned())
                .unwrap_or(PropValue::Int(seq as i64));
            v2.props.set(CREATED_SEQ_PROP, created);
        }
        let mut vb = WriteBatch::with_capacity(1);
        vb.put(codec::vertex_key(v2.id).to_vec(), codec::encode_vertex(&v2));
        self.verts.write_batch_at(vb, seq)?;
        let mut tb = WriteBatch::with_capacity(1);
        tb.put(codec::vertex_key(v2.id).to_vec(), bytes::Bytes::new());
        self.type_ns(&v2.vtype)?.write_batch_at(tb, seq)?;
        Ok(())
    }

    /// Insert or replace an edge (stamped when versioning is on).
    pub fn put_edge(&self, e: &Edge) -> Result<()> {
        match self.store.alloc_seq() {
            Some(seq) => self.put_edge_at(e, seq),
            None => self.edges.put(
                codec::edge_key(e.src, &e.label, e.dst),
                bytes::Bytes::from(codec::encode_props(&e.props)),
            ),
        }
    }

    /// Insert or replace an edge at `seq`, stamping
    /// [`CREATED_SEQ_PROP`] (preserved across upserts like vertices).
    pub fn put_edge_at(&self, e: &Edge, seq: u64) -> Result<()> {
        let key = codec::edge_key(e.src, &e.label, e.dst);
        let mut props = e.props.clone();
        if props.get(CREATED_SEQ_PROP).is_none() {
            let created = self
                .edges
                .get_with(&key, Some(ReadView::LATEST), codec::decode_props)?
                .flatten()
                .and_then(|p| p.get(CREATED_SEQ_PROP).cloned())
                .unwrap_or(PropValue::Int(seq as i64));
            props.set(CREATED_SEQ_PROP, created);
        }
        let mut b = WriteBatch::with_capacity(1);
        b.put(key, bytes::Bytes::from(codec::encode_props(&props)));
        self.edges.write_batch_at(b, seq)
    }

    /// Fetch a vertex with its attributes. This is the "vertex visit" the
    /// traversal engine accounts as one storage access.
    pub fn get_vertex(&self, id: VertexId) -> Result<Option<Vertex>> {
        self.get_vertex_at(id, ReadView::LATEST)
    }

    /// Fetch a vertex as visible at `view`, decoded from the stored
    /// record in place.
    pub fn get_vertex_at(&self, id: VertexId, view: ReadView) -> Result<Option<Vertex>> {
        let key = codec::vertex_key(id);
        Ok(self
            .verts
            .get_with(&key, self.kv_view(view), |data| {
                codec::decode_vertex(id, data)
            })?
            .flatten())
    }

    /// Whether vertex `id` is visible at `view`: the same storage read,
    /// I/O-model charge and `IoStats` as [`Self::get_vertex_at`], but the
    /// record is only walked, never built — what an unfiltered traversal
    /// step needs. A record `get_vertex_at` would reject is absent here
    /// too.
    pub fn has_vertex_at(&self, id: VertexId, view: ReadView) -> Result<bool> {
        let key = codec::vertex_key(id);
        let found = self
            .verts
            .get_with(&key, self.kv_view(view), codec::vertex_well_formed)?;
        Ok(found == Some(true))
    }

    /// The kvstore view a read at `view` takes: a versioned store resolves
    /// user keys against it, an unversioned one reads its keys as stored.
    fn kv_view(&self, view: ReadView) -> Option<ReadView> {
        self.store.versioning_enabled().then_some(view)
    }

    /// Outgoing edges of `src` carrying `label`, as `(dst, props)` pairs
    /// in destination order — one sequential prefix scan.
    pub fn edges_out(&self, src: VertexId, label: &str) -> Result<Vec<(VertexId, Props)>> {
        self.edges_out_at(src, label, ReadView::LATEST)
    }

    /// Outgoing edges of `src` with `label`, as visible at `view`.
    pub fn edges_out_at(
        &self,
        src: VertexId,
        label: &str,
        view: ReadView,
    ) -> Result<Vec<(VertexId, Props)>> {
        let prefix = codec::edge_label_prefix(src, label);
        let mut out = Vec::new();
        self.edges
            .scan_prefix_with(&prefix, self.kv_view(view), |k, v| {
                if let (Some((_, _, dst)), Some(props)) =
                    (codec::split_edge_key(k), codec::decode_props(v))
                {
                    out.push((dst, props));
                }
            })?;
        Ok(out)
    }

    /// Destinations of the `label` edges of `src` visible at `view`, in
    /// destination order: the scan of [`Self::edges_out_at`] with only the
    /// key tail decoded — what a hop without edge filters needs. An edge
    /// `edges_out_at` would skip (malformed key or props) is skipped here.
    pub fn edge_dsts_at(
        &self,
        src: VertexId,
        label: &str,
        view: ReadView,
    ) -> Result<Vec<VertexId>> {
        let prefix = codec::edge_label_prefix(src, label);
        let mut out = Vec::new();
        self.edges
            .scan_prefix_with(&prefix, self.kv_view(view), |k, v| {
                if codec::props_well_formed(v) {
                    out.extend(codec::split_edge_key(k).map(|(_, _, dst)| dst));
                }
            })?;
        Ok(out)
    }

    /// Ids of every local vertex with the given type, ascending.
    pub fn vertices_of_type(&self, vtype: &str) -> Result<Vec<VertexId>> {
        self.vertices_of_type_at(vtype, ReadView::LATEST)
    }

    /// Ids of every local vertex with the given type visible at `view`.
    pub fn vertices_of_type_at(&self, vtype: &str, view: ReadView) -> Result<Vec<VertexId>> {
        self.ids_in(&self.type_ns(vtype)?, view)
    }

    /// Ids of every local vertex visible at `view`, ascending.
    pub fn all_vertex_ids_at(&self, view: ReadView) -> Result<Vec<VertexId>> {
        self.ids_in(&self.verts, view)
    }

    /// The vertex ids keying namespace `ns` at `view`, ascending.
    fn ids_in(&self, ns: &Namespace, view: ReadView) -> Result<Vec<VertexId>> {
        let mut out = Vec::new();
        ns.scan_prefix_with(b"", self.kv_view(view), |k, _| {
            out.extend(k.try_into().ok().map(VertexId::from_be_bytes));
        })?;
        Ok(out)
    }

    /// Bulk-load vertices and edges with batched writes. With snapshot
    /// versioning on, the entire load is stamped at one freshly
    /// allocated sequence number — the initial graph is a single
    /// consistent version.
    pub fn load(
        &self,
        vertices: impl IntoIterator<Item = Vertex>,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Result<()> {
        let seq = self.store.alloc_seq();
        let write = |ns: &Namespace, batch: WriteBatch| match seq {
            Some(s) => ns.write_batch_at(batch, s),
            None => ns.write_batch(batch),
        };
        let mut vbatch = WriteBatch::with_capacity(LOAD_BATCH);
        for mut v in vertices {
            if let Some(s) = seq {
                if v.props.get(CREATED_SEQ_PROP).is_none() {
                    v.props.set(CREATED_SEQ_PROP, PropValue::Int(s as i64));
                }
            }
            vbatch.put(codec::vertex_key(v.id).to_vec(), codec::encode_vertex(&v));
            // The type index is written through its own namespace batch-of-one;
            // type namespaces are few, so per-op cost is negligible.
            let mut tb = WriteBatch::with_capacity(1);
            tb.put(codec::vertex_key(v.id).to_vec(), bytes::Bytes::new());
            write(&self.type_ns(&v.vtype)?, tb)?;
            if vbatch.len() >= LOAD_BATCH {
                write(&self.verts, std::mem::take(&mut vbatch))?;
            }
        }
        write(&self.verts, vbatch)?;
        let mut ebatch = WriteBatch::with_capacity(LOAD_BATCH);
        for mut e in edges {
            if let Some(s) = seq {
                if e.props.get(CREATED_SEQ_PROP).is_none() {
                    e.props.set(CREATED_SEQ_PROP, PropValue::Int(s as i64));
                }
            }
            ebatch.put(
                codec::edge_key(e.src, &e.label, e.dst),
                bytes::Bytes::from(codec::encode_props(&e.props)),
            );
            if ebatch.len() >= LOAD_BATCH {
                write(&self.edges, std::mem::take(&mut ebatch))?;
            }
        }
        write(&self.edges, ebatch)?;
        Ok(())
    }

    /// Flush and fully compact the partition, then drop caches — the
    /// paper's cold-start condition before each measured traversal.
    pub fn seal_cold(&self) -> Result<()> {
        self.store.flush_all()?;
        self.store.compact_all()?;
        self.store.drop_caches();
        Ok(())
    }

    /// Drop the shared block cache only.
    pub fn drop_caches(&self) {
        self.store.drop_caches();
    }

    /// Aggregate I/O statistics for this partition's store.
    pub fn io_stats(&self) -> gt_kvstore::iomodel::IoStatsSnapshot {
        self.store.io_stats()
    }

    /// The underlying store handle.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Export every live KV pair whose key's leading big-endian vertex id
    /// satisfies `keep`, across all namespaces (vertex attributes,
    /// out-edges keyed by source, type-index entries). The returned
    /// `(namespace, key, value)` triples are the wire form of a shard
    /// migration snapshot: every namespace's keys begin with the owning
    /// vertex id, so one predicate covers the whole layout.
    pub fn export_where(&self, keep: impl Fn(VertexId) -> bool) -> Result<Vec<RawTriple>> {
        let versioned = self.store.versioning_enabled();
        let mut out = Vec::new();
        for ns_name in self.store.list_namespaces() {
            let ns = self.store.namespace(&ns_name)?;
            if versioned {
                // Ship raw stamped internal keys — every version and
                // tombstone — so the target resolves any pinned view
                // exactly as the source would have.
                for (k, v) in ns.export_raw()? {
                    if let Some(vid) = vid_of_key(&k) {
                        if keep(vid) {
                            out.push((ns_name.clone(), k, v.map(|v| v.to_vec())));
                        }
                    }
                }
            } else {
                for (k, v) in ns.export_all()? {
                    if let Some(vid) = vid_of_key(&k) {
                        if keep(vid) {
                            out.push((ns_name.clone(), k, Some(v.to_vec())));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Apply raw exported triples. `bulk` routes through the
    /// segment-import fast path (snapshot phase of a migration); the
    /// normal write path otherwise (delta catch-up), so later mutations
    /// shadow the snapshot.
    pub fn import_raw(&self, triples: Vec<RawTriple>, bulk: bool) -> Result<()> {
        type NsPairs = Vec<(Vec<u8>, Option<bytes::Bytes>)>;
        let mut by_ns: std::collections::BTreeMap<String, NsPairs> =
            std::collections::BTreeMap::new();
        for (ns, k, v) in triples {
            by_ns
                .entry(ns)
                .or_default()
                .push((k, v.map(bytes::Bytes::from)));
        }
        for (ns_name, pairs) in by_ns {
            let ns = self.store.namespace(&ns_name)?;
            if bulk {
                ns.import_raw(pairs)?;
            } else {
                // Delta catch-up goes through the normal write path so it
                // shadows the snapshot segment. Keys arrive pre-stamped
                // under versioning, so the raw (non-restamping) batch is
                // correct in both modes.
                let mut batch = WriteBatch::with_capacity(pairs.len());
                for (k, v) in pairs {
                    match v {
                        Some(v) => {
                            batch.put(k, v);
                        }
                        None => {
                            batch.delete(k);
                        }
                    }
                }
                ns.write_batch(batch)?;
            }
        }
        Ok(())
    }
}

/// The vertex id a storage key belongs to (all graph namespaces lead with
/// the owning vertex's big-endian id).
fn vid_of_key(k: &[u8]) -> Option<VertexId> {
    k.get(..8)
        .and_then(|b| b.try_into().ok())
        .map(VertexId::from_be_bytes)
}

/// Split an in-memory graph across `n` freshly opened partitions using the
/// edge-cut partitioner: each vertex and its out-edges go to `owner(vid)`.
pub fn load_partitioned(
    graph: &InMemoryGraph,
    partitioner: EdgeCutPartitioner,
    partitions: &[GraphPartition],
) -> Result<()> {
    assert_eq!(partitions.len(), partitioner.n_servers);
    for (sid, part) in partitions.iter().enumerate() {
        let verts = graph
            .iter_vertices()
            .filter(|v| partitioner.owner(v.id) == sid)
            .cloned();
        let edges = graph
            .iter_edges()
            .filter(|e| partitioner.owner(e.src) == sid);
        part.load(verts, edges)?;
    }
    Ok(())
}

/// Replication-aware bulk load: server `s` receives every vertex (and its
/// out-edges, which live with the source) for which `holds(s, vid)` is
/// true. With a replication factor above one, several servers hold copies
/// of the same shard; `holds` is typically a placement map's holder test.
pub fn load_replicated(
    graph: &InMemoryGraph,
    partitions: &[GraphPartition],
    holds: impl Fn(ServerId, VertexId) -> bool,
) -> Result<()> {
    for (sid, part) in partitions.iter().enumerate() {
        let verts = graph.iter_vertices().filter(|v| holds(sid, v.id)).cloned();
        let edges = graph.iter_edges().filter(|e| holds(sid, e.src));
        part.load(verts, edges)?;
    }
    Ok(())
}

/// Which server owns each of `vids` under `partitioner` (helper mirroring
/// the coordinator's lookup of "where is this vertex stored").
pub fn owners(
    partitioner: EdgeCutPartitioner,
    vids: impl IntoIterator<Item = VertexId>,
) -> Vec<(VertexId, ServerId)> {
    vids.into_iter()
        .map(|v| (v, partitioner.owner(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Props;
    use gt_kvstore::StoreConfig;

    fn open_tmp(name: &str) -> (GraphPartition, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "gtgraph-{}-{name}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(Store::open(StoreConfig::new(&dir)).unwrap());
        (GraphPartition::open(store).unwrap(), dir)
    }

    #[test]
    fn vertex_roundtrip() {
        let (p, dir) = open_tmp("vroundtrip");
        let v = Vertex::new(42u64, "User", Props::new().with("name", "sam"));
        p.put_vertex(&v).unwrap();
        assert_eq!(p.get_vertex(VertexId(42)).unwrap(), Some(v));
        assert_eq!(p.get_vertex(VertexId(43)).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn typed_edge_scan_is_label_scoped() {
        let (p, dir) = open_tmp("escan");
        for i in 0..5u64 {
            p.put_edge(&Edge::new(
                1u64,
                "read",
                10 + i,
                Props::new().with("i", i as i64),
            ))
            .unwrap();
        }
        p.put_edge(&Edge::new(1u64, "run", 99u64, Props::new()))
            .unwrap();
        p.put_edge(&Edge::new(2u64, "read", 50u64, Props::new()))
            .unwrap();
        let reads = p.edges_out(VertexId(1), "read").unwrap();
        assert_eq!(reads.len(), 5);
        assert!(reads.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(p.edges_out(VertexId(1), "run").unwrap().len(), 1);
        assert_eq!(p.edges_out(VertexId(1), "write").unwrap().len(), 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn label_prefix_does_not_leak_across_labels() {
        let (p, dir) = open_tmp("labelleak");
        // "re" is a prefix of "read": make sure scans don't conflate them.
        p.put_edge(&Edge::new(1u64, "re", 5u64, Props::new()))
            .unwrap();
        p.put_edge(&Edge::new(1u64, "read", 6u64, Props::new()))
            .unwrap();
        assert_eq!(p.edges_out(VertexId(1), "re").unwrap().len(), 1);
        assert_eq!(p.edges_out(VertexId(1), "read").unwrap().len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn type_index_tracks_types() {
        let (p, dir) = open_tmp("types");
        p.put_vertex(&Vertex::new(1u64, "User", Props::new()))
            .unwrap();
        p.put_vertex(&Vertex::new(2u64, "File", Props::new()))
            .unwrap();
        p.put_vertex(&Vertex::new(3u64, "File", Props::new()))
            .unwrap();
        assert_eq!(
            p.vertices_of_type("File").unwrap(),
            vec![VertexId(2), VertexId(3)]
        );
        assert_eq!(p.vertices_of_type("User").unwrap(), vec![VertexId(1)]);
        assert!(p.vertices_of_type("Missing").unwrap().is_empty());
        assert_eq!(p.all_vertex_ids_at(ReadView::LATEST).unwrap().len(), 3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn weird_type_names_are_escaped() {
        let (p, dir) = open_tmp("weirdtype");
        p.put_vertex(&Vertex::new(1u64, "a type/with:stuff", Props::new()))
            .unwrap();
        assert_eq!(
            p.vertices_of_type("a type/with:stuff").unwrap(),
            vec![VertexId(1)]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bulk_load_partitioned_covers_graph() {
        let mut g = InMemoryGraph::new();
        for i in 0..40u64 {
            g.add_vertex(Vertex::new(i, "N", Props::new().with("i", i as i64)));
        }
        for i in 0..39u64 {
            g.add_edge(Edge::new(i, "next", i + 1, Props::new()));
        }
        let partitioner = EdgeCutPartitioner::new(3);
        let mut parts = Vec::new();
        let mut dirs = Vec::new();
        for s in 0..3 {
            let (p, d) = open_tmp(&format!("bulk{s}"));
            parts.push(p);
            dirs.push(d);
        }
        load_partitioned(&g, partitioner, &parts).unwrap();
        // Every vertex must be findable on its owner, with its edges.
        for i in 0..40u64 {
            let owner = partitioner.owner(VertexId(i));
            let v = parts[owner].get_vertex(VertexId(i)).unwrap();
            assert!(v.is_some(), "vertex {i} missing on owner {owner}");
            if i < 39 {
                let e = parts[owner].edges_out(VertexId(i), "next").unwrap();
                assert_eq!(e.len(), 1);
                assert_eq!(e[0].0, VertexId(i + 1));
            }
            // And absent from non-owners.
            for (s, p) in parts.iter().enumerate() {
                if s != owner {
                    assert!(p.get_vertex(VertexId(i)).unwrap().is_none());
                }
            }
        }
        let total: usize = parts
            .iter()
            .map(|p| p.all_vertex_ids_at(ReadView::LATEST).unwrap().len())
            .sum();
        assert_eq!(total, 40);
        for d in dirs {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn export_import_moves_a_shard_completely() {
        let (src, sdir) = open_tmp("mig-src");
        let (dst, ddir) = open_tmp("mig-dst");
        for i in 0..30u64 {
            src.put_vertex(&Vertex::new(
                i,
                if i % 2 == 0 { "File" } else { "User" },
                Props::new().with("i", i as i64),
            ))
            .unwrap();
        }
        for i in 0..29u64 {
            src.put_edge(&Edge::new(i, "next", i + 1, Props::new().with("w", 1i64)))
                .unwrap();
        }
        // Move the even vertices (and their out-edges + type entries).
        let dump = src.export_where(|vid| vid.0 % 2 == 0).unwrap();
        dst.import_raw(dump, true).unwrap();
        for i in (0..30u64).step_by(2) {
            let v = dst.get_vertex(VertexId(i)).unwrap();
            assert!(v.is_some(), "vertex {i} missing after import");
            if i < 29 {
                let e = dst.edges_out(VertexId(i), "next").unwrap();
                assert_eq!(e.len(), 1, "edge of {i} missing after import");
            }
        }
        assert!(dst.get_vertex(VertexId(1)).unwrap().is_none());
        assert_eq!(
            dst.vertices_of_type("File").unwrap().len(),
            15,
            "type index must travel with the shard"
        );
        // Delta phase: a later write-path import shadows the snapshot.
        let newer = Vertex::new(0u64, "File", Props::new().with("i", 999i64));
        let delta = vec![(
            "verts".to_string(),
            codec::vertex_key(newer.id).to_vec(),
            Some(codec::encode_vertex(&newer).to_vec()),
        )];
        dst.import_raw(delta, false).unwrap();
        assert_eq!(dst.get_vertex(VertexId(0)).unwrap(), Some(newer));
        std::fs::remove_dir_all(sdir).ok();
        std::fs::remove_dir_all(ddir).ok();
    }

    #[test]
    fn load_replicated_places_copies_on_every_holder() {
        let mut g = InMemoryGraph::new();
        for i in 0..20u64 {
            g.add_vertex(Vertex::new(i, "N", Props::new()));
        }
        for i in 0..19u64 {
            g.add_edge(Edge::new(i, "next", i + 1, Props::new()));
        }
        let partitioner = EdgeCutPartitioner::new(3);
        let mut parts = Vec::new();
        let mut dirs = Vec::new();
        for s in 0..3 {
            let (p, d) = open_tmp(&format!("repl{s}"));
            parts.push(p);
            dirs.push(d);
        }
        // rf=2: owner plus the next server on the ring hold each vertex.
        let holds = |sid: usize, vid: VertexId| {
            let o = partitioner.owner(vid);
            sid == o || sid == (o + 1) % 3
        };
        load_replicated(&g, &parts, holds).unwrap();
        for i in 0..20u64 {
            let mut copies = 0;
            for p in &parts {
                if p.get_vertex(VertexId(i)).unwrap().is_some() {
                    copies += 1;
                }
            }
            assert_eq!(copies, 2, "vertex {i} must exist on exactly 2 holders");
        }
        for d in dirs {
            std::fs::remove_dir_all(d).ok();
        }
    }

    fn open_tmp_versioned(
        name: &str,
    ) -> (
        GraphPartition,
        std::sync::Arc<std::sync::atomic::AtomicU64>,
        std::path::PathBuf,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "gtgraph-v-{}-{name}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let clock = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let store =
            Arc::new(Store::open(StoreConfig::new(&dir).version_clock(clock.clone())).unwrap());
        (GraphPartition::open(store).unwrap(), clock, dir)
    }

    #[test]
    fn versioned_partition_reads_resolve_by_view() {
        let (p, _clock, dir) = open_tmp_versioned("views");
        p.put_vertex(&Vertex::new(1u64, "User", Props::new().with("name", "a")))
            .unwrap();
        let s1 = p.store().current_seq();
        p.put_edge(&Edge::new(1u64, "read", 2u64, Props::new()))
            .unwrap();
        p.put_vertex(&Vertex::new(2u64, "File", Props::new()))
            .unwrap();
        let s2 = p.store().current_seq();
        p.put_vertex(&Vertex::new(1u64, "User", Props::new().with("name", "b")))
            .unwrap();

        // View at s1: only vertex 1's first version exists.
        let v1 = p
            .get_vertex_at(VertexId(1), ReadView::at(s1))
            .unwrap()
            .unwrap();
        assert_eq!(v1.props.get("name"), Some(&PropValue::Str("a".into())));
        assert!(p
            .get_vertex_at(VertexId(2), ReadView::at(s1))
            .unwrap()
            .is_none());
        assert!(p
            .edges_out_at(VertexId(1), "read", ReadView::at(s1))
            .unwrap()
            .is_empty());
        assert_eq!(
            p.all_vertex_ids_at(ReadView::at(s1)).unwrap(),
            vec![VertexId(1)]
        );
        assert_eq!(
            p.vertices_of_type_at("File", ReadView::at(s1)).unwrap(),
            Vec::<VertexId>::new()
        );

        // View at s2: both vertices and the edge, name still "a".
        let v1 = p
            .get_vertex_at(VertexId(1), ReadView::at(s2))
            .unwrap()
            .unwrap();
        assert_eq!(v1.props.get("name"), Some(&PropValue::Str("a".into())));
        assert_eq!(
            p.edges_out_at(VertexId(1), "read", ReadView::at(s2))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(p.all_vertex_ids_at(ReadView::at(s2)).unwrap().len(), 2);

        // Latest: the upsert is visible, created stamp preserved.
        let v1 = p.get_vertex(VertexId(1)).unwrap().unwrap();
        assert_eq!(v1.props.get("name"), Some(&PropValue::Str("b".into())));
        assert_eq!(
            v1.props.get(CREATED_SEQ_PROP),
            Some(&PropValue::Int(s1 as i64))
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn versioned_export_preserves_views_on_target() {
        let (src, clock, sdir) = open_tmp_versioned("vexp");
        src.put_vertex(&Vertex::new(1u64, "N", Props::new().with("x", 1i64)))
            .unwrap();
        let s1 = src.store().current_seq();
        src.put_vertex(&Vertex::new(1u64, "N", Props::new().with("x", 2i64)))
            .unwrap();
        src.store().flush_all().unwrap();

        let dir2 = sdir.with_extension("dst");
        std::fs::remove_dir_all(&dir2).ok();
        let store2 =
            Arc::new(Store::open(StoreConfig::new(&dir2).version_clock(clock.clone())).unwrap());
        let dst = GraphPartition::open(store2).unwrap();
        dst.import_raw(src.export_where(|_| true).unwrap(), true)
            .unwrap();

        let old = dst
            .get_vertex_at(VertexId(1), ReadView::at(s1))
            .unwrap()
            .unwrap();
        assert_eq!(old.props.get("x"), Some(&PropValue::Int(1)));
        let new = dst.get_vertex(VertexId(1)).unwrap().unwrap();
        assert_eq!(new.props.get("x"), Some(&PropValue::Int(2)));
        std::fs::remove_dir_all(sdir).ok();
        std::fs::remove_dir_all(dir2).ok();
    }

    #[test]
    fn versioned_load_is_one_consistent_version() {
        let (p, _clock, dir) = open_tmp_versioned("vload");
        let mut g = InMemoryGraph::new();
        for i in 0..10u64 {
            g.add_vertex(Vertex::new(i, "N", Props::new()));
        }
        for i in 0..9u64 {
            g.add_edge(Edge::new(i, "next", i + 1, Props::new()));
        }
        p.load(g.iter_vertices().cloned(), g.iter_edges()).unwrap();
        let s = p.store().current_seq();
        assert_eq!(p.all_vertex_ids_at(ReadView::at(s)).unwrap().len(), 10);
        assert!(p.all_vertex_ids_at(ReadView::at(s - 1)).unwrap().is_empty());
        assert_eq!(
            p.edges_out_at(VertexId(0), "next", ReadView::at(s))
                .unwrap()
                .len(),
            1
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn seal_cold_compacts_and_clears() {
        let (p, dir) = open_tmp("seal");
        for i in 0..100u64 {
            p.put_vertex(&Vertex::new(i, "N", Props::new())).unwrap();
        }
        p.seal_cold().unwrap();
        // After sealing, the first read is cold.
        let before = p.io_stats();
        p.get_vertex(VertexId(0)).unwrap();
        let after = p.io_stats();
        assert!(after.cold > before.cold, "expected a cold read after seal");
        std::fs::remove_dir_all(dir).ok();
    }
}
