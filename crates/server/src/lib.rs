#![warn(missing_docs)]

//! The GraphTrek server process.
//!
//! Wraps the [`graphtrek`] engine in an OS process with a proto front
//! door, in two deployment shapes:
//!
//! * **standalone** — one process hosts a whole cluster (the in-process
//!   fabric) plus a [`graphtrek::frontdoor::FrontDoor`]; clients connect
//!   over TCP or UDS and speak [`gt_proto`].
//! * **multi-process** — N processes form one cluster over a
//!   [`gt_transport::SocketMesh`]. Process `p` hosts backend server
//!   endpoint `p` and a client-agent endpoint `n + p`; every process runs
//!   its own front door, so clients can connect to any node.
//!
//! Both shapes load the graph from the plain-text format of
//! [`parse_graph`], so every process of a multi-process cluster sees the
//! same input and shards it identically by placement.

use graphtrek::client::ClientPort;
use graphtrek::cluster::{Cluster, ClusterConfig, ClusterError};
use graphtrek::engine::{EngineConfig, EngineKind};
use graphtrek::frontdoor::FrontDoor;
use graphtrek::qos::QosConfig;
use graphtrek::server::{spawn, ServerArgs, ServerHandle};
use gt_graph::storage::{load_replicated, GraphPartition};
use gt_graph::{Edge, InMemoryGraph, PropValue, Props, Vertex};
use gt_kvstore::{IoProfile, Store, StoreConfig};
use gt_placement::{PlacementMap, SharedPlacement};
use gt_transport::{MeshConfig, SocketAddrSpec, SocketMesh};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ------------------------------------------------------ graph text format

/// Parse one property value: `true`/`false` → Bool, an integer → Int, a
/// float → Float, anything else → Str.
fn parse_value(s: &str) -> PropValue {
    match s {
        "true" => return PropValue::Bool(true),
        "false" => return PropValue::Bool(false),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return PropValue::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return PropValue::Float(f);
    }
    PropValue::Str(s.to_string())
}

fn parse_props(parts: &[&str], line_no: usize) -> Result<Props, String> {
    let mut props = Props::new();
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected key=value, got `{kv}`"))?;
        props.0.insert(k.to_string(), parse_value(v));
    }
    Ok(props)
}

/// Parse the plain-text graph format:
///
/// ```text
/// # comment
/// v <id> <type> [key=value]...
/// e <src> <label> <dst> [key=value]...
/// ```
///
/// Values parse as bool, then i64, then f64, then fall back to string.
pub fn parse_graph(text: &str) -> Result<InMemoryGraph, String> {
    let mut g = InMemoryGraph::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            "v" => {
                if parts.len() < 3 {
                    return Err(format!("line {line_no}: v needs <id> <type>"));
                }
                let id: u64 = parts[1]
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad vertex id `{}`", parts[1]))?;
                g.add_vertex(Vertex::new(
                    id,
                    parts[2],
                    parse_props(&parts[3..], line_no)?,
                ));
            }
            "e" => {
                if parts.len() < 4 {
                    return Err(format!("line {line_no}: e needs <src> <label> <dst>"));
                }
                let src: u64 = parts[1]
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad src id `{}`", parts[1]))?;
                let dst: u64 = parts[3]
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad dst id `{}`", parts[3]))?;
                g.add_edge(Edge::new(
                    src,
                    parts[2],
                    dst,
                    parse_props(&parts[4..], line_no)?,
                ));
            }
            other => return Err(format!("line {line_no}: unknown record `{other}`")),
        }
    }
    Ok(g)
}

/// Render a graph in the [`parse_graph`] text format (vertices first, in
/// id order, then edges). `parse_graph(&render_graph(&g))` reproduces `g`.
pub fn render_graph(g: &InMemoryGraph) -> String {
    fn value(v: &PropValue) -> String {
        match v {
            PropValue::Int(i) => i.to_string(),
            PropValue::Float(f) => {
                // Make sure the round-trip stays a Float, not an Int.
                let s = f.to_string();
                if s.contains(['.', 'e', 'E']) {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            PropValue::Str(s) => s.clone(),
            PropValue::Bool(b) => b.to_string(),
        }
    }
    fn props(p: &Props, out: &mut String) {
        for (k, v) in p.iter() {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&value(v));
        }
    }
    let mut vertices: Vec<&Vertex> = g.iter_vertices().collect();
    vertices.sort_by_key(|v| v.id);
    let mut out = String::new();
    for v in vertices {
        out.push_str(&format!("v {} {}", v.id.0, v.vtype));
        props(&v.props, &mut out);
        out.push('\n');
    }
    let mut edges: Vec<Edge> = g.iter_edges().collect();
    edges.sort_by(|a, b| (a.src, &a.label, a.dst).cmp(&(b.src, &b.label, b.dst)));
    for e in edges {
        out.push_str(&format!("e {} {} {}", e.src.0, e.label, e.dst.0));
        props(&e.props, &mut out);
        out.push('\n');
    }
    out
}

/// Load a graph file in the [`parse_graph`] format.
pub fn load_graph_file(path: &Path) -> Result<InMemoryGraph, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_graph(&text)
}

// ------------------------------------------------------------- deployment

/// One node's configuration (both deployment shapes).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Path of the graph text file every node loads.
    pub graph: PathBuf,
    /// Storage directory for this node's shard(s).
    pub dir: PathBuf,
    /// Front-door listen address.
    pub listen: SocketAddrSpec,
    /// Traversal engine.
    pub engine: EngineKind,
    /// Per-tenant QoS policy for the front door.
    pub qos: QosConfig,
    /// Deployment shape.
    pub mode: Mode,
}

/// Deployment shape of one `gt-server` invocation.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Whole cluster in this process over the in-process fabric.
    Standalone {
        /// Number of backend servers.
        n_servers: usize,
    },
    /// One node of an N-process cluster over a socket mesh.
    Mesh {
        /// Mesh listen address of every process, in process order.
        cluster: Vec<SocketAddrSpec>,
        /// Which entry of `cluster` this process is.
        me: usize,
    },
}

/// A running node; dropping it stops the front door. The mesh variant
/// keeps serving until the process exits (peers may still route through
/// its server endpoint).
pub struct Running {
    door: Option<FrontDoor>,
    kind: RunningKind,
}

enum RunningKind {
    Standalone(Option<Cluster>),
    Mesh {
        mesh: SocketMesh<graphtrek::message::Msg>,
        // Keeps the backend server threads alive for the process's life.
        _server: ServerHandle,
    },
}

impl Running {
    /// Where the front door actually listens (ephemeral TCP ports
    /// resolved).
    pub fn local_addr(&self) -> &SocketAddrSpec {
        self.door
            .as_ref()
            .expect("door is Some until stop() consumes it")
            .local_addr()
    }

    /// Stop the front door and (standalone) shut the cluster down.
    pub fn stop(mut self) {
        if let Some(door) = self.door.take() {
            door.stop();
        }
        match self.kind {
            RunningKind::Standalone(ref mut cluster) => {
                if let Some(c) = cluster.take() {
                    c.shutdown();
                }
            }
            RunningKind::Mesh { ref mesh, .. } => mesh.close(),
        }
    }
}

/// Errors starting a node.
#[derive(Debug)]
pub enum ServeError {
    /// The graph file did not parse.
    Graph(String),
    /// The embedded cluster failed to build.
    Cluster(ClusterError),
    /// Socket setup (mesh or front door) failed.
    Io(std::io::Error),
    /// The node configuration is inconsistent.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Graph(m) => write!(f, "graph: {m}"),
            ServeError::Cluster(e) => write!(f, "cluster: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Cluster(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Start one node per `cfg` and serve until [`Running::stop`].
pub fn serve(cfg: &NodeConfig) -> Result<Running, ServeError> {
    let graph = load_graph_file(&cfg.graph).map_err(ServeError::Graph)?;
    match &cfg.mode {
        Mode::Standalone { n_servers } => {
            if *n_servers == 0 {
                return Err(ServeError::Config("standalone needs ≥ 1 server".into()));
            }
            let cluster = Cluster::build(
                &graph,
                ClusterConfig::new(&cfg.dir, *n_servers),
                EngineConfig::new(cfg.engine),
            )
            .map_err(ServeError::Cluster)?;
            let door = FrontDoor::serve(cluster.handle(), cfg.listen.clone(), cfg.qos.clone())
                .map_err(ServeError::Io)?;
            Ok(Running {
                door: Some(door),
                kind: RunningKind::Standalone(Some(cluster)),
            })
        }
        Mode::Mesh { cluster, me } => {
            let n = cluster.len();
            let p = *me;
            if n == 0 {
                return Err(ServeError::Config("mesh needs ≥ 1 process".into()));
            }
            if p >= n {
                return Err(ServeError::Config(format!(
                    "process index {p} out of range ({n} processes)"
                )));
            }
            // Endpoint layout: servers 0..n, one client agent per process
            // at n + p. Placement is the same initial map every process
            // derives independently from the shared cluster size.
            let mesh_cfg = MeshConfig {
                n_endpoints: 2 * n,
                home: (0..2 * n).map(|e| if e < n { e } else { e - n }).collect(),
                processes: cluster.clone(),
                me: p,
            };
            let (mesh, mut endpoints) = SocketMesh::start(mesh_cfg).map_err(|e| match e {
                gt_transport::MeshError::Io(io) => ServeError::Io(io),
                other => ServeError::Config(other.to_string()),
            })?;
            // Ascending id order: [p] is the server endpoint, [n + p] the
            // agent endpoint.
            let agent_ep = endpoints
                .pop()
                .ok_or_else(|| ServeError::Config("mesh returned no agent endpoint".into()))?;
            let server_ep = endpoints
                .pop()
                .ok_or_else(|| ServeError::Config("mesh returned no server endpoint".into()))?;

            let map = PlacementMap::initial(n, 1);
            let store = Arc::new(
                Store::open(StoreConfig {
                    dir: cfg.dir.join(format!("server-{p}")),
                    memtable_bytes: 8 << 20,
                    bloom_bits_per_key: 10,
                    block_cache_runs: 4096,
                    io: IoProfile::free(),
                    sync_wal: false,
                    auto_compact_segments: 0,
                    version_clock: None,
                })
                .map_err(|e| ServeError::Cluster(ClusterError::Storage(e)))?,
            );
            let partition = GraphPartition::open(store)
                .map_err(|e| ServeError::Cluster(ClusterError::Storage(e)))?;
            load_replicated(&graph, std::slice::from_ref(&partition), |_, vid| {
                map.holds(p, vid)
            })
            .map_err(|e| ServeError::Cluster(ClusterError::Storage(e)))?;

            let server = spawn(ServerArgs {
                id: p,
                n_servers: n,
                partition: Arc::new(partition),
                endpoint: server_ep,
                engine: EngineConfig::new(cfg.engine),
                epoch: 0,
                metrics: None,
                crash_after: None,
                placement: Arc::new(SharedPlacement::new(map)),
                self_healing: false,
            });
            // Several processes' ports share the servers: each mints ids in
            // its own endpoint's range.
            let id_base = (agent_ep.id() as u64) << 48;
            let agent = Arc::new(ClientPort::new(agent_ep, n, id_base));
            let door = FrontDoor::serve(agent, cfg.listen.clone(), cfg.qos.clone())
                .map_err(ServeError::Io)?;
            Ok(Running {
                door: Some(door),
                kind: RunningKind::Mesh {
                    mesh,
                    _server: server,
                },
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_text_round_trips() {
        let text = "\
# tiny provenance graph
v 1 User name=sam admin=true
v 2 Execution cost=1.5
v 3 File size=4096

e 1 run 2 ts=100
e 2 read 3
";
        let g = parse_graph(text).unwrap();
        assert_eq!(g.iter_vertices().count(), 3);
        assert_eq!(g.iter_edges().count(), 2);
        let rendered = render_graph(&g);
        let g2 = parse_graph(&rendered).unwrap();
        assert_eq!(render_graph(&g2), rendered);
        // Typed values survive: bool, float, int, str.
        let sam = g.iter_vertices().find(|v| v.id.0 == 1).unwrap();
        assert_eq!(sam.props.0["admin"], PropValue::Bool(true));
        assert_eq!(sam.props.0["name"], PropValue::Str("sam".into()));
        let exec = g.iter_vertices().find(|v| v.id.0 == 2).unwrap();
        assert_eq!(exec.props.0["cost"], PropValue::Float(1.5));
    }

    #[test]
    fn graph_text_rejects_malformed_lines() {
        assert!(parse_graph("v 1").is_err());
        assert!(parse_graph("e 1 run").is_err());
        assert!(parse_graph("x 1 2 3").is_err());
        assert!(parse_graph("v one User").is_err());
        assert!(parse_graph("v 1 User badprop").is_err());
    }

    #[test]
    fn float_render_keeps_type() {
        let mut g = InMemoryGraph::new();
        g.add_vertex(Vertex::new(1u64, "T", Props::new().with("x", 2.0f64)));
        let rendered = render_graph(&g);
        let g2 = parse_graph(&rendered).unwrap();
        let v = g2.iter_vertices().next().unwrap();
        assert_eq!(v.props.0["x"], PropValue::Float(2.0));
    }
}
