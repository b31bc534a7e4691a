//! The GTravel traversal language (paper §III).
//!
//! "GraphTrek defines an iterative query-building language to represent
//! property graph traversal operations … whose methods return the caller
//! GTravel instance to allow call chaining." The paper's core methods are
//! reproduced one-for-one:
//!
//! | paper                 | here                                        |
//! |-----------------------|---------------------------------------------|
//! | `v(ids…)` / `v()`     | [`GTravel::v`] / [`GTravel::v_all`]         |
//! | `e(label)`            | [`GTravel::e`]                              |
//! | `va(key, type, vals)` | [`GTravel::va`] with a [`PropFilter`]       |
//! | `ea(key, type, vals)` | [`GTravel::ea`]                             |
//! | `rtn()`               | [`GTravel::rtn`]                            |
//!
//! The data-auditing example of §III-A reads almost identically:
//!
//! ```
//! use graphtrek::lang::GTravel;
//! use gt_graph::PropFilter;
//!
//! let (t_s, t_e) = (0i64, 1000i64);
//! let q = GTravel::v([7u64])
//!     .e("run").ea(PropFilter::range("start_ts", t_s, t_e))
//!     .e("read").va(PropFilter::eq("type", "text"))
//!     .rtn();
//! let plan = q.compile().unwrap();
//! assert_eq!(plan.depth(), 2);
//! ```
//!
//! The vertex *type* ("User", "Execution", …) is exposed to filters as the
//! virtual property `"type"`, so the provenance query of the paper —
//! `v().va('type', EQ, 'Execution').rtn()…` — works verbatim; the engine
//! additionally recognizes a leading `type EQ` filter and serves it from
//! the per-type storage namespace instead of a full scan.

use gt_graph::{Cond, FilterSet, PropFilter, Props, VertexId};
use serde::{Deserialize, Serialize};

/// Entry-point selection for a traversal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Source {
    /// Begin from explicit vertex ids ("initially retrieved with searching
    /// or indexing mechanisms provided by any underlying graph storage").
    Ids(Vec<VertexId>),
    /// Begin from every vertex, narrowed by the source filters (the
    /// provenance pattern `v().va('type', EQ, …)`).
    All,
}

/// One compiled traversal step: the hop from depth `d` to depth `d+1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// Label of the edges followed in this step.
    pub edge_label: String,
    /// `ea()` filters on those edges.
    pub edge_filters: FilterSet,
    /// `va()` filters applied to the destination vertices (depth `d+1`).
    pub vertex_filters: FilterSet,
    /// Whether the destination working set is `rtn()`-marked.
    pub rtn: bool,
}

/// A fully validated traversal plan, ready for submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Entry-point selection.
    pub source: Source,
    /// `va()` filters on the source working set (depth 0).
    pub source_filters: FilterSet,
    /// Whether the source working set is `rtn()`-marked.
    pub source_rtn: bool,
    /// The steps; `steps.len()` is the traversal depth.
    pub steps: Vec<PlanStep>,
    /// User-requested time-travel bound: read the graph as of this
    /// sequence number ([`GTravel::as_of`]). `None` reads the latest.
    #[serde(default)]
    pub as_of: Option<u64>,
    /// Cluster-wide snapshot sequence captured at the travel's start when the
    /// engine runs with snapshot isolation. Stamped by the coordinator,
    /// never by the query author; carried in the plan so re-driven
    /// travels (failover, migration) re-read the *same* snapshot.
    #[serde(default)]
    pub snapshot: Option<u64>,
    /// Merging-queue weight multiplier (tenant priority), stamped by the
    /// front door's QoS gate after parsing — never authored by queries.
    /// `1` is neutral: the queue's depth-based weighting is unchanged.
    #[serde(default)]
    pub qos_weight: u32,
}

impl Plan {
    /// Number of traversal steps (the paper's "N-step traversal").
    pub fn depth(&self) -> u16 {
        self.steps.len() as u16
    }

    /// Vertex filters applied at `depth` (0 = source).
    pub fn vertex_filters_at(&self, depth: u16) -> &FilterSet {
        if depth == 0 {
            &self.source_filters
        } else {
            &self.steps[depth as usize - 1].vertex_filters
        }
    }

    /// Whether the working set at `depth` is `rtn()`-marked.
    pub fn rtn_at(&self, depth: u16) -> bool {
        if depth == 0 {
            self.source_rtn
        } else {
            self.steps[depth as usize - 1].rtn
        }
    }

    /// The edge label/filters of the hop leaving `depth` (None at the end).
    pub fn hop_from(&self, depth: u16) -> Option<&PlanStep> {
        self.steps.get(depth as usize)
    }

    /// Whether any `rtn()` appears anywhere in the chain.
    pub fn has_rtn(&self) -> bool {
        self.source_rtn || self.steps.iter().any(|s| s.rtn)
    }

    /// Whether the final working set is part of the result. True when the
    /// chain has no `rtn()` at all (the default "return destination
    /// vertices" behaviour) or when the last step itself carries `rtn()`.
    pub fn returns_final(&self) -> bool {
        !self.has_rtn() || self.rtn_at(self.depth())
    }

    /// Depths whose working sets are returned to the user.
    pub fn returned_depths(&self) -> Vec<u16> {
        if !self.has_rtn() {
            return vec![self.depth()];
        }
        (0..=self.depth()).filter(|&d| self.rtn_at(d)).collect()
    }

    /// The sequence bound every read of this travel resolves against:
    /// the tighter of the user's `as_of()` and the start snapshot.
    /// `None` means unversioned latest-reads.
    pub fn view_seq(&self) -> Option<u64> {
        match (self.as_of, self.snapshot) {
            (Some(a), Some(s)) => Some(a.min(s)),
            (a, s) => a.or(s),
        }
    }

    /// If the source is "all vertices of one type", the type name.
    /// Lets the engine use the per-type namespace index instead of a
    /// full vertex scan.
    pub fn source_type_hint(&self) -> Option<&str> {
        if !matches!(self.source, Source::All) {
            return None;
        }
        self.source_filters.0.iter().find_map(|f| {
            if f.key == "type" {
                if let Cond::Eq(v) = &f.cond {
                    return v.as_str();
                }
            }
            None
        })
    }
}

/// Whether a vertex (type + properties) passes `filters`, with the vertex
/// type visible as the virtual `"type"` property.
///
/// `"type"` *always* refers to the vertex's entity type (shadowing any
/// same-named attribute): this keeps the filter semantics and the
/// per-type namespace index ([`Plan::source_type_hint`]) consistent by
/// construction. Entity attributes should use distinct keys (the
/// generators use `ftype` for a file's format, for example).
pub fn vertex_matches(vtype: &str, props: &Props, filters: &FilterSet) -> bool {
    filters.0.iter().all(|f| {
        if f.key == "type" {
            f.cond.test(&gt_graph::PropValue::Str(vtype.to_string()))
        } else {
            f.matches(props)
        }
    })
}

/// Errors detected when compiling a [`GTravel`] chain into a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// `ea()` appeared before any `e()` — there is no edge set to filter.
    EdgeFilterBeforeEdge,
    /// An `e()` call used an empty label.
    EmptyEdgeLabel,
    /// `v()` was given no ids (use [`GTravel::v_all`] for "all vertices").
    EmptySource,
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LangError::EdgeFilterBeforeEdge => {
                write!(f, "ea() must follow an e() step")
            }
            LangError::EmptyEdgeLabel => write!(f, "e() requires a non-empty label"),
            LangError::EmptySource => write!(f, "v() requires at least one vertex id"),
        }
    }
}
impl std::error::Error for LangError {}

/// The chainable query builder (the paper's `GTravel` class).
#[derive(Debug, Clone, PartialEq)]
pub struct GTravel {
    source: Source,
    source_filters: FilterSet,
    source_rtn: bool,
    steps: Vec<PlanStep>,
    as_of: Option<u64>,
    errors: Vec<LangError>,
}

impl GTravel {
    /// `GTravel.v(id, …)` — begin from explicit vertices.
    pub fn v<I, V>(ids: I) -> GTravel
    where
        I: IntoIterator<Item = V>,
        V: Into<VertexId>,
    {
        let ids: Vec<VertexId> = ids.into_iter().map(Into::into).collect();
        let mut errors = Vec::new();
        if ids.is_empty() {
            errors.push(LangError::EmptySource);
        }
        GTravel {
            source: Source::Ids(ids),
            source_filters: FilterSet::none(),
            source_rtn: false,
            steps: Vec::new(),
            as_of: None,
            errors,
        }
    }

    /// `GTravel.v()` — begin from all vertices (narrow with [`GTravel::va`]).
    pub fn v_all() -> GTravel {
        GTravel {
            source: Source::All,
            source_filters: FilterSet::none(),
            source_rtn: false,
            steps: Vec::new(),
            as_of: None,
            errors: Vec::new(),
        }
    }

    /// `e(label)` — follow edges with `label` to the next working set.
    pub fn e(mut self, label: impl Into<String>) -> GTravel {
        let label = label.into();
        if label.is_empty() {
            self.errors.push(LangError::EmptyEdgeLabel);
        }
        self.steps.push(PlanStep {
            edge_label: label,
            edge_filters: FilterSet::none(),
            vertex_filters: FilterSet::none(),
            rtn: false,
        });
        self
    }

    /// `va(…)` — AND one property filter onto the *current* working set
    /// (the source before any `e()`, otherwise the latest step's
    /// destination vertices).
    pub fn va(mut self, filter: PropFilter) -> GTravel {
        match self.steps.last_mut() {
            Some(step) => step.vertex_filters.0.push(filter),
            None => self.source_filters.0.push(filter),
        }
        self
    }

    /// `ea(…)` — AND one property filter onto the edges of the latest
    /// `e()` step.
    pub fn ea(mut self, filter: PropFilter) -> GTravel {
        match self.steps.last_mut() {
            Some(step) => step.edge_filters.0.push(filter),
            None => self.errors.push(LangError::EdgeFilterBeforeEdge),
        }
        self
    }

    /// `rtn()` — mark the current working set for return; the vertices are
    /// delivered only if their resulting traversals reach the end of the
    /// chain (§IV-D).
    pub fn rtn(mut self) -> GTravel {
        match self.steps.last_mut() {
            Some(step) => step.rtn = true,
            None => self.source_rtn = true,
        }
        self
    }

    /// `as_of(seq)` — time-travel: resolve every read of this traversal
    /// against the graph as it existed at sequence number `seq` (as
    /// reported by `Cluster::current_seq`). Requires the cluster to run
    /// with snapshot isolation; repeated calls keep the tightest bound.
    pub fn as_of(mut self, seq: u64) -> GTravel {
        self.as_of = Some(self.as_of.map_or(seq, |prev| prev.min(seq)));
        self
    }

    /// `created_after(seq)` — keep only vertices of the *current* working
    /// set that were ingested strictly after sequence number `seq`.
    /// Compiles to a range filter on the [`gt_graph::CREATED_SEQ_PROP`]
    /// stamp written by versioned ingest.
    pub fn created_after(self, seq: u64) -> GTravel {
        let lo = (seq as i64).saturating_add(1);
        self.va(PropFilter::range(gt_graph::CREATED_SEQ_PROP, lo, i64::MAX))
    }

    /// Render the chain in the textual grammar of [`crate::parse`] —
    /// the canonical round-trip: `parse(&q.render())` builds a chain
    /// that compiles to the same [`Plan`] as `q` (assuming `q` is
    /// well-formed; error chains render their surface shape only).
    ///
    /// Two representational caveats: string values containing `'` are
    /// not expressible in the grammar, and [`GTravel::created_after`]
    /// renders as the `va()` stamp-range filter it desugars to.
    pub fn render(&self) -> String {
        fn value(v: &gt_graph::PropValue, out: &mut String) {
            use std::fmt::Write as _;
            match v {
                gt_graph::PropValue::Int(i) => {
                    let _ = write!(out, "{i}");
                }
                gt_graph::PropValue::Float(f) => {
                    let s = f.to_string();
                    out.push_str(&s);
                    // Keep the literal a float on the way back in.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                }
                gt_graph::PropValue::Str(s) => {
                    let _ = write!(out, "'{s}'");
                }
                gt_graph::PropValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        fn filters(call: &str, set: &FilterSet, out: &mut String) {
            use std::fmt::Write as _;
            for f in &set.0 {
                let _ = write!(out, ".{call}('{}', ", f.key);
                match &f.cond {
                    Cond::Eq(v) => {
                        out.push_str("EQ, ");
                        value(v, out);
                    }
                    Cond::In(vs) => {
                        out.push_str("IN, [");
                        for (i, v) in vs.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            value(v, out);
                        }
                        out.push(']');
                    }
                    Cond::Range(lo, hi) => {
                        out.push_str("RANGE, ");
                        value(lo, out);
                        out.push_str(", ");
                        value(hi, out);
                    }
                }
                out.push(')');
            }
        }
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.source {
            Source::All => out.push_str("v()"),
            Source::Ids(ids) => {
                out.push_str("v(");
                for (i, id) in ids.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", id.0);
                }
                out.push(')');
            }
        }
        filters("va", &self.source_filters, &mut out);
        if self.source_rtn {
            out.push_str(".rtn()");
        }
        for step in &self.steps {
            let _ = write!(out, ".e('{}')", step.edge_label);
            filters("ea", &step.edge_filters, &mut out);
            filters("va", &step.vertex_filters, &mut out);
            if step.rtn {
                out.push_str(".rtn()");
            }
        }
        if let Some(seq) = self.as_of {
            let _ = write!(out, ".as_of({seq})");
        }
        out
    }

    /// Validate and produce the immutable [`Plan`].
    pub fn compile(&self) -> Result<Plan, LangError> {
        if let Some(e) = self.errors.first() {
            return Err(e.clone());
        }
        Ok(Plan {
            source: self.source.clone(),
            source_filters: self.source_filters.clone(),
            source_rtn: self.source_rtn,
            steps: self.steps.clone(),
            as_of: self.as_of,
            snapshot: None,
            qos_weight: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::PropValue;

    #[test]
    fn audit_query_compiles() {
        // §III-A data auditing example.
        let q = GTravel::v([1u64])
            .e("run")
            .ea(PropFilter::range("start_ts", 0i64, 99i64))
            .e("read")
            .va(PropFilter::eq("type", "text"))
            .rtn();
        let p = q.compile().unwrap();
        assert_eq!(p.depth(), 2);
        assert_eq!(p.steps[0].edge_label, "run");
        assert_eq!(p.steps[0].edge_filters.len(), 1);
        assert_eq!(p.steps[1].vertex_filters.len(), 1);
        assert!(p.rtn_at(2));
        assert!(p.returns_final());
        assert_eq!(p.returned_depths(), vec![2]);
    }

    #[test]
    fn provenance_query_compiles() {
        // §III-A provenance example: return the source executions.
        let q = GTravel::v_all()
            .va(PropFilter::eq("type", "Execution"))
            .rtn()
            .va(PropFilter::eq("model", "A"))
            .e("read")
            .va(PropFilter::eq("annotation", "B"));
        let p = q.compile().unwrap();
        assert_eq!(p.depth(), 1);
        assert!(p.source_rtn);
        assert_eq!(p.source_filters.len(), 2);
        assert!(!p.returns_final());
        assert_eq!(p.returned_depths(), vec![0]);
        assert_eq!(p.source_type_hint(), Some("Execution"));
    }

    #[test]
    fn default_returns_final_depth() {
        let p = GTravel::v([1u64]).e("a").e("b").compile().unwrap();
        assert!(!p.has_rtn());
        assert!(p.returns_final());
        assert_eq!(p.returned_depths(), vec![2]);
    }

    #[test]
    fn multiple_rtn_depths() {
        let p = GTravel::v([1u64])
            .rtn()
            .e("a")
            .e("b")
            .rtn()
            .compile()
            .unwrap();
        assert_eq!(p.returned_depths(), vec![0, 2]);
        assert!(p.returns_final());
    }

    #[test]
    fn intermediate_rtn_only() {
        let p = GTravel::v([1u64]).e("a").rtn().e("b").compile().unwrap();
        assert_eq!(p.returned_depths(), vec![1]);
        assert!(!p.returns_final());
    }

    #[test]
    fn ea_before_e_is_error() {
        let q = GTravel::v([1u64]).ea(PropFilter::eq("x", 1i64));
        assert_eq!(q.compile(), Err(LangError::EdgeFilterBeforeEdge));
    }

    #[test]
    fn empty_source_is_error() {
        let q = GTravel::v(Vec::<VertexId>::new());
        assert_eq!(q.compile(), Err(LangError::EmptySource));
    }

    #[test]
    fn empty_label_is_error() {
        let q = GTravel::v([1u64]).e("");
        assert_eq!(q.compile(), Err(LangError::EmptyEdgeLabel));
    }

    #[test]
    fn vertex_matches_virtual_type() {
        use gt_graph::Props;
        let props = Props::new().with("model", "A");
        let fs = FilterSet::none()
            .and(PropFilter::eq("type", "Execution"))
            .and(PropFilter::eq("model", "A"));
        assert!(vertex_matches("Execution", &props, &fs));
        assert!(!vertex_matches("File", &props, &fs));
        // The virtual "type" shadows a same-named attribute, so filter
        // semantics always agree with the per-type namespace index.
        let props2 = Props::new().with("type", "text");
        let fs2 = FilterSet::none().and(PropFilter::eq("type", "text"));
        assert!(!vertex_matches("File", &props2, &fs2));
        assert!(vertex_matches("text", &props2, &fs2));
    }

    #[test]
    fn source_type_hint_requires_all_source_and_eq() {
        let p = GTravel::v([1u64])
            .va(PropFilter::eq("type", "File"))
            .compile()
            .unwrap();
        assert_eq!(p.source_type_hint(), None, "ids source has no hint");
        let p = GTravel::v_all()
            .va(PropFilter::is_in("type", vec![PropValue::str("File")]))
            .compile()
            .unwrap();
        assert_eq!(p.source_type_hint(), None, "IN is not a hint");
    }

    #[test]
    fn as_of_keeps_tightest_bound_and_view_seq_combines() {
        let p = GTravel::v([1u64]).e("a").compile().unwrap();
        assert_eq!(p.as_of, None);
        assert_eq!(p.view_seq(), None, "no bound without as_of or snapshot");
        let p = GTravel::v([1u64])
            .as_of(9)
            .as_of(4)
            .e("a")
            .compile()
            .unwrap();
        assert_eq!(p.as_of, Some(4), "repeated as_of keeps the tightest");
        assert_eq!(p.snapshot, None, "compile never stamps a snapshot");
        assert_eq!(p.view_seq(), Some(4));
        let mut p2 = p.clone();
        p2.snapshot = Some(2);
        assert_eq!(p2.view_seq(), Some(2), "snapshot tightens as_of");
        p2.snapshot = Some(7);
        assert_eq!(p2.view_seq(), Some(4), "as_of tightens snapshot");
        let mut p3 = GTravel::v([1u64]).compile().unwrap();
        p3.snapshot = Some(11);
        assert_eq!(p3.view_seq(), Some(11));
    }

    #[test]
    fn created_after_compiles_to_stamp_filter() {
        let p = GTravel::v_all().created_after(41).compile().unwrap();
        assert_eq!(p.source_filters.len(), 1);
        let f = &p.source_filters.0[0];
        assert_eq!(f.key, gt_graph::CREATED_SEQ_PROP);
        assert!(f.cond.test(&PropValue::Int(42)), "strictly-after lo bound");
        assert!(!f.cond.test(&PropValue::Int(41)));
        // Mid-chain: binds to the latest step's destination set.
        let p = GTravel::v([1u64])
            .e("run")
            .created_after(5)
            .compile()
            .unwrap();
        assert_eq!(p.steps[0].vertex_filters.len(), 1);
        assert!(p.source_filters.is_empty());
    }
}
