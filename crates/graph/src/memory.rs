//! Reference in-memory property graph.
//!
//! Used by the synthetic generators (RMAT, Darshan) as the construction
//! format, by the bulk loader to populate server partitions, and by the
//! single-threaded traversal oracle that the distributed engines are
//! checked against in the equivalence tests.

use crate::model::{Edge, Props, Vertex, VertexId};
use std::collections::{BTreeMap, HashMap};

/// A whole property graph held in memory.
#[derive(Debug, Clone, Default)]
pub struct InMemoryGraph {
    vertices: HashMap<VertexId, Vertex>,
    /// src → label → [(dst, edge props)]
    adjacency: HashMap<VertexId, BTreeMap<String, Vec<(VertexId, Props)>>>,
    n_edges: usize,
}

impl InMemoryGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a vertex.
    pub fn add_vertex(&mut self, v: Vertex) {
        self.vertices.insert(v.id, v);
    }

    /// Insert an edge. Parallel edges with the same `(src, label, dst)`
    /// are allowed in memory but collapse to one record in storage (the
    /// key is unique), so generators avoid emitting duplicates.
    pub fn add_edge(&mut self, e: Edge) {
        self.adjacency
            .entry(e.src)
            .or_default()
            .entry(e.label)
            .or_default()
            .push((e.dst, e.props));
        self.n_edges += 1;
    }

    /// Look up a vertex.
    pub fn vertex(&self, id: VertexId) -> Option<&Vertex> {
        self.vertices.get(&id)
    }

    /// Outgoing edges of `src` with `label` (empty slice when none).
    pub fn edges_from(&self, src: VertexId, label: &str) -> &[(VertexId, Props)] {
        self.adjacency
            .get(&src)
            .and_then(|m| m.get(label))
            .map_or(&[], |v| v.as_slice())
    }

    /// Ids of every vertex with the given type, in ascending id order.
    pub fn vertices_of_type(&self, vtype: &str) -> Vec<VertexId> {
        let mut ids: Vec<VertexId> = self
            .vertices
            .values()
            .filter(|v| v.vtype == vtype)
            .map(|v| v.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Iterate all vertices (arbitrary order).
    pub fn iter_vertices(&self) -> impl Iterator<Item = &Vertex> {
        self.vertices.values()
    }

    /// Iterate all edges (arbitrary order) as materialized [`Edge`]s.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency.iter().flat_map(|(src, by_label)| {
            by_label.iter().flat_map(move |(label, dsts)| {
                dsts.iter().map(move |(dst, props)| Edge {
                    src: *src,
                    label: label.clone(),
                    dst: *dst,
                    props: props.clone(),
                })
            })
        })
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Out-degree of `src` across all labels.
    pub fn out_degree(&self, src: VertexId) -> usize {
        self.adjacency
            .get(&src)
            .map_or(0, |m| m.values().map(Vec::len).sum())
    }

    /// Distinct vertex types present, sorted.
    pub fn vertex_types(&self) -> Vec<String> {
        let mut set: Vec<String> = self
            .vertices
            .values()
            .map(|v| v.vtype.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        set.sort();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InMemoryGraph {
        let mut g = InMemoryGraph::new();
        g.add_vertex(Vertex::new(1u64, "User", Props::new().with("name", "sam")));
        g.add_vertex(Vertex::new(2u64, "Execution", Props::new()));
        g.add_vertex(Vertex::new(3u64, "File", Props::new().with("type", "text")));
        g.add_edge(Edge::new(1u64, "run", 2u64, Props::new().with("ts", 10i64)));
        g.add_edge(Edge::new(2u64, "read", 3u64, Props::new()));
        g.add_edge(Edge::new(2u64, "write", 3u64, Props::new()));
        g
    }

    #[test]
    fn vertex_lookup_and_counts() {
        let g = sample();
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.vertex(VertexId(1)).unwrap().vtype, "User");
        assert!(g.vertex(VertexId(99)).is_none());
    }

    #[test]
    fn typed_adjacency() {
        let g = sample();
        let run = g.edges_from(VertexId(1), "run");
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].0, VertexId(2));
        assert!(g.edges_from(VertexId(1), "read").is_empty());
        assert!(g.edges_from(VertexId(99), "run").is_empty());
        assert_eq!(g.out_degree(VertexId(2)), 2);
    }

    #[test]
    fn vertices_of_type_sorted() {
        let mut g = sample();
        g.add_vertex(Vertex::new(0u64, "File", Props::new()));
        assert_eq!(g.vertices_of_type("File"), vec![VertexId(0), VertexId(3)]);
        assert!(g.vertices_of_type("Nothing").is_empty());
    }

    #[test]
    fn edge_iteration_materializes_everything() {
        let g = sample();
        let mut edges: Vec<(u64, String, u64)> = g
            .iter_edges()
            .map(|e| (e.src.0, e.label.clone(), e.dst.0))
            .collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (1, "run".to_string(), 2),
                (2, "read".to_string(), 3),
                (2, "write".to_string(), 3)
            ]
        );
    }

    #[test]
    fn vertex_types_enumerated() {
        let g = sample();
        assert_eq!(g.vertex_types(), vec!["Execution", "File", "User"]);
    }
}
