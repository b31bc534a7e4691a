//! Wire compatibility and hostile-input robustness, from one corpus.
//!
//! The corpus holds at least one sample of every [`Msg`] variant and
//! every front-door [`ClientMsg`]/[`ServerMsg`]. Over it: the encodings
//! equal the bytes recorded in `golden/wire.txt` (mixed version meshes
//! keep decoding), every sample round-trips, every `Msg`'s `encoded_len`
//! (what the fabric charges) is its encoding's length, every strict
//! prefix of every frame is rejected, and spliced or random byte strings
//! never panic a decoder.
//!
//! A deliberate format change regenerates the golden lines from the
//! failing assertion's output; a retired variant's last line moves under
//! a `retired/` label, where it must decode to `None` for good.

use graphtrek::lang::{GTravel, Plan};
use graphtrek::message::{CopyPurpose, Msg, ProgressSnapshot, TravelOutcome};
use graphtrek::{ExecId, Token};
use gt_graph::{Edge, PropFilter, PropValue, Props, Vertex, VertexId};
use gt_placement::PlacementMap;
use gt_proto::{ClientMsg, ServerMsg, SubmitOpts, WireError, WireProgress};
use gt_transport::WireCodec;
use proptest::prelude::*;
use std::sync::Arc;

fn sample_plan() -> Arc<Plan> {
    Arc::new(
        GTravel::v([1u64, 9])
            .va(PropFilter::eq("type", "User"))
            .e("run")
            .ea(PropFilter::range("start_ts", 10i64, 99i64))
            .e("read")
            .va(PropFilter::is_in(
                "fmt",
                vec![PropValue::Str("h5".into()), PropValue::Str("csv".into())],
            ))
            .rtn()
            .as_of(77)
            .compile()
            .expect("sample plan compiles"),
    )
}

fn msgs() -> Vec<Msg> {
    let plan = sample_plan();
    let vertex = Vertex::new(5u64, "User", Props::new().with("name", "a").with("n", 3i64));
    let edge = Edge::new(5u64, "run", 6u64, Props::new().with("t", 1i64));
    // Covers what `sample_plan` does not: an all-vertices source, bool and
    // float values, and the two plan fields stamped after compilation.
    let mut stamped = GTravel::v_all()
        .va(PropFilter::eq("ok", true))
        .e("x")
        .ea(PropFilter::eq("score", 1.5f64))
        .compile()
        .expect("plan compiles");
    stamped.snapshot = Some(9);
    stamped.qos_weight = 4;
    vec![
        Msg::Submit {
            travel: 1,
            plan: plan.clone(),
            client: 3,
        },
        Msg::Submit {
            travel: 1,
            plan: Arc::new(stamped),
            client: 3,
        },
        Msg::Abort { travel: 2 },
        Msg::ProgressQuery {
            travel: 3,
            client: 4,
        },
        Msg::ProgressReport {
            travel: 3,
            snapshot: ProgressSnapshot {
                created: 5,
                terminated: 2,
                outstanding_by_depth: vec![(0, 1), (1, 2)],
            },
        },
        Msg::TravelDone {
            travel: 3,
            outcome: TravelOutcome {
                by_depth: vec![(1, vec![VertexId(5), VertexId(9)]), (2, vec![])],
                progress: ProgressSnapshot::default(),
            },
        },
        Msg::Cancel {
            travel: 4,
            client: 3,
        },
        Msg::CancelAck {
            travel: 4,
            server: 1,
        },
        Msg::SourceScan {
            travel: 5,
            plan: plan.clone(),
            coordinator: 0,
            exec: ExecId::new(0, 7),
        },
        Msg::Visit {
            travel: 5,
            depth: 1,
            exec: ExecId::new(1, 8),
            plan: plan.clone(),
            coordinator: 0,
            items: vec![
                (VertexId(1), vec![]),
                (VertexId(2), vec![Token { owner: 1, id: 42 }]),
            ],
        },
        Msg::ExecTerminated {
            travel: 5,
            exec: ExecId::new(1, 9),
            children: vec![(ExecId::new(2, 1), 3)],
            results: vec![(1, VertexId(10))],
            server: 1,
        },
        Msg::OriginSatisfied {
            travel: 5,
            exec: ExecId::new(2, 2),
            coordinator: 0,
            tokens: vec![7, 8],
        },
        Msg::StepRelease {
            travel: 6,
            depth: 2,
            frames: 3,
        },
        Msg::Ingest {
            req: 9,
            client: 3,
            vertices: vec![vertex.clone()],
            edges: vec![edge.clone()],
        },
        Msg::IngestAck { req: 9, applied: 2 },
        Msg::GetVertex {
            req: 10,
            client: 3,
            vertex: VertexId(5),
        },
        Msg::VertexReply {
            req: 10,
            vertex: Some(Box::new(vertex.clone())),
        },
        Msg::VertexReply {
            req: 11,
            vertex: None,
        },
        Msg::Relay {
            travel: 5,
            from: 1,
            epoch: 2,
            seq: 4,
            attempt: 1,
            inner: Box::new(Msg::ExecTerminated {
                travel: 5,
                exec: ExecId::new(1, 9),
                children: vec![],
                results: vec![(1, VertexId(10))],
                server: 1,
            }),
        },
        Msg::RelayAck {
            travel: 5,
            server: 2,
            seq: 4,
            attempt: 1,
        },
        Msg::PlacementUpdate {
            map: Arc::new(PlacementMap::initial(3, 2)),
            client: 3,
        },
        Msg::PlacementAck {
            version: 1,
            server: 0,
        },
        Msg::ReplicateWrite {
            req: 12,
            origin: 0,
            seq: Some(6),
            vertices: vec![vertex],
            edges: vec![edge],
        },
        Msg::ReplicateAck { req: 12, server: 1 },
        Msg::CopyBegin {
            mig: 20,
            partition: 1,
            to: 2,
            client: 3,
            purpose: CopyPurpose::Move,
        },
        Msg::CopyData {
            mig: 20,
            partition: 1,
            pairs: vec![
                ("verts".into(), vec![1, 2], Some(vec![3])),
                ("edges".into(), vec![4], None),
            ],
            phase: 0,
            last: true,
            client: 3,
            purpose: CopyPurpose::Move,
        },
        Msg::CopyData {
            mig: 21,
            partition: 0,
            pairs: vec![("verts".into(), vec![9], None)],
            phase: 1,
            last: false,
            client: 3,
            purpose: CopyPurpose::Replica,
        },
        Msg::CopyApplied { mig: 20, server: 2 },
        Msg::CopyFinish {
            mig: 20,
            purpose: CopyPurpose::Replica,
        },
        Msg::Heartbeat { from: 1, seq: 99 },
        Msg::Suspect {
            from: 0,
            suspect: 1,
        },
        Msg::SuspectAck {
            suspect: 1,
            confirmed: false,
        },
        Msg::Crash,
        Msg::Shutdown,
    ]
}

fn client_msgs() -> Vec<ClientMsg> {
    vec![
        ClientMsg::Hello {
            version: 1,
            tenant: "acme".into(),
        },
        ClientMsg::Submit {
            id: 7,
            gtravel: "v(1).e('knows').rtn()".into(),
            opts: SubmitOpts {
                deadline_ms: Some(250),
            },
        },
        ClientMsg::Submit {
            id: 8,
            gtravel: "v()".into(),
            opts: SubmitOpts::default(),
        },
        ClientMsg::Progress { id: 9 },
        ClientMsg::Cancel { id: 10 },
        ClientMsg::Metrics,
        ClientMsg::Goodbye,
    ]
}

fn server_msgs() -> Vec<ServerMsg> {
    let progress = WireProgress {
        created: 10,
        terminated: 4,
        outstanding_by_depth: vec![(0, 2), (1, 4)],
    };
    let mut out = vec![
        ServerMsg::HelloAck { version: 1 },
        ServerMsg::Unsupported { min: 1, max: 1 },
        ServerMsg::Progress {
            id: 3,
            progress: progress.clone(),
        },
        ServerMsg::Result {
            id: 4,
            by_depth: vec![(1, vec![5, 9]), (2, vec![])],
            progress: WireProgress::default(),
            elapsed_us: 1234,
        },
        ServerMsg::MetricsReport {
            counters: vec![("qos_admitted_total".into(), 12)],
        },
    ];
    for error in [
        WireError::Timeout {
            attempts: 3,
            last_progress: Some(progress),
        },
        WireError::Timeout {
            attempts: 1,
            last_progress: None,
        },
        WireError::CoordinatorLost,
        WireError::Cancelled,
        WireError::FailoverStalled,
        WireError::Query("bad token".into()),
        WireError::Throttled { retry_after_ms: 50 },
        WireError::Server("oops".into()),
    ] {
        out.push(ServerMsg::Error { id: 5, error });
    }
    out
}

/// One encoded corpus entry: its golden-file label, the `Debug` form of
/// the value it encodes, its bytes, and its family's decoder (which
/// renders what it decoded the same way, or `None` when it rejects).
struct Sample {
    label: String,
    debug: String,
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> Option<String>,
}

fn decode_msg(buf: &[u8]) -> Option<String> {
    Msg::decode(buf).map(|m| format!("{m:?}"))
}
fn decode_client(buf: &[u8]) -> Option<String> {
    ClientMsg::decode(buf).ok().map(|m| format!("{m:?}"))
}
fn decode_server(buf: &[u8]) -> Option<String> {
    ServerMsg::decode(buf).ok().map(|m| format!("{m:?}"))
}

/// `debug` starts with the variant's name. `Msg` is not `PartialEq`
/// (`Arc<Plan>` payloads); Debug forms print through the Arc and cover
/// every field.
fn sample(
    family: &str,
    debug: String,
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> Option<String>,
) -> Sample {
    let variant = debug.split(|c: char| !c.is_alphanumeric()).next();
    Sample {
        label: format!("{family}/{}", variant.unwrap_or_default()),
        debug,
        bytes,
        decode,
    }
}

fn corpus() -> Vec<Sample> {
    let mut out = Vec::new();
    for m in msgs() {
        out.push(sample("msg", format!("{m:?}"), m.to_bytes(), decode_msg));
    }
    for m in client_msgs() {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        out.push(sample("client", format!("{m:?}"), buf, decode_client));
    }
    for m in server_msgs() {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        out.push(sample("server", format!("{m:?}"), buf, decode_server));
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("golden file holds hex"))
        .collect()
}

/// `(label, hex)` lines of the golden file: the live corpus in order, then
/// the retired frames.
fn golden_lines() -> (Vec<&'static str>, Vec<&'static str>) {
    include_str!("golden/wire.txt")
        .lines()
        .partition(|l| !l.starts_with("retired/"))
}

#[test]
fn encodings_match_the_golden_bytes() {
    let (golden, _) = golden_lines();
    let actual: Vec<String> = corpus()
        .iter()
        .map(|s| format!("{} {}", s.label, hex(&s.bytes)))
        .collect();
    for (i, line) in actual.iter().enumerate() {
        assert_eq!(
            Some(line.as_str()),
            golden.get(i).copied(),
            "golden line {} differs: the wire format changed",
            i + 1
        );
    }
    assert_eq!(actual.len(), golden.len(), "golden lines without a sample");
}

#[test]
fn every_variant_round_trips() {
    for s in corpus() {
        assert_eq!(
            (s.decode)(&s.bytes).as_ref(),
            Some(&s.debug),
            "{} did not survive its codec",
            s.label
        );
    }
}

/// The fabric charges `encoded_len` and the mesh ships `to_bytes`, so
/// the two agree on every variant, `Relay` included.
#[test]
fn encoded_len_is_the_length_of_the_encoding() {
    for m in msgs() {
        assert_eq!(m.encoded_len(), m.to_bytes().len(), "{m:?}");
    }
}

#[test]
fn retired_tags_stay_unassigned() {
    let (_, retired) = golden_lines();
    assert_eq!(
        retired.len(),
        30,
        "tags 41-44, then 19, 20 and 30, then 23, 25 and 38, then 24, 26 and 32, \
         then 22 and 50 (`Relay`, `RelayAck` with a travel-epoch) and the takeover's \
         53, 51, 54 and 27, then the tracing reports 10, 11, 13 and 17, then the \
         copy's 35 and 36 (`CopyApplied` with a phase, `CopyCutover`), then \
         Sync-GT's own protocol, 14, 15, 16 and 58, then 28 (`PlacementUpdate` \
         with drain flags)"
    );
    for line in retired {
        let (label, frame) = line.split_once(' ').expect("label, then hex");
        assert!(
            Msg::decode(&unhex(frame)).is_none(),
            "{label}: a frame of a retired variant decodes again, so its tag was reused"
        );
        // Carried inside a live envelope, the retired frame is rejected
        // as well: a relayed report from an older peer is a counted drop.
        let mut relayed = vec![55];
        for field in [5u64, 1, 0, 1, 1] {
            relayed.extend_from_slice(&field.to_le_bytes());
        }
        relayed.extend_from_slice(&unhex(frame));
        assert!(
            Msg::decode(&relayed).is_none(),
            "{label}: a relayed frame of a retired variant decodes again"
        );
    }
}

#[test]
fn every_strict_prefix_is_rejected() {
    for s in corpus() {
        for cut in 0..s.bytes.len() {
            assert!(
                (s.decode)(&s.bytes[..cut]).is_none(),
                "{} decoded from its first {cut} of {} bytes",
                s.label,
                s.bytes.len()
            );
        }
    }
}

#[test]
fn malformed_bytes_decode_to_none() {
    assert!(Msg::decode(&[]).is_none());
    assert!(Msg::decode(&[250]).is_none(), "unknown tag");
    // Trailing garbage after a complete message.
    let mut buf = Msg::Shutdown.to_bytes();
    buf.push(7);
    assert!(Msg::decode(&buf).is_none());
    // A hostile length prefix larger than the buffer is rejected before
    // allocation (tag 12 is `OriginSatisfied { travel, exec, coordinator,
    // tokens }`).
    let mut buf = vec![12];
    for field in [5u64, 7, 0] {
        buf.extend_from_slice(&field.to_le_bytes());
    }
    buf.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(Msg::decode(&buf).is_none());
    // A `StepRelease` with a byte too many, and one whose frame count
    // is cut short.
    let release = Msg::StepRelease {
        travel: 6,
        depth: 2,
        frames: 3,
    }
    .to_bytes();
    let mut long = release.clone();
    long.push(0);
    assert!(Msg::decode(&long).is_none());
    assert!(Msg::decode(&release[..release.len() - 4]).is_none());
    // Relay nesting beyond the engine's single level is rejected.
    let mut deep = Msg::Abort { travel: 1 };
    for _ in 0..10 {
        deep = Msg::Relay {
            travel: 1,
            from: 0,
            epoch: 0,
            seq: 1,
            attempt: 1,
            inner: Box::new(deep),
        };
    }
    assert!(Msg::decode(&deep.to_bytes()).is_none());
    // Placement maps the routing code would index out of bounds.
    let good = PlacementMap::initial(3, 2);
    let bad_maps = [
        PlacementMap {
            entries: vec![],
            ..good.clone()
        },
        {
            let mut m = good.clone();
            m.entries[1].primary = 3;
            m
        },
        {
            let mut m = good.clone();
            m.entries[2].replicas = vec![7];
            m
        },
    ];
    for map in bad_maps {
        let frame = Msg::PlacementUpdate {
            map: Arc::new(map.clone()),
            client: 3,
        }
        .to_bytes();
        assert!(Msg::decode(&frame).is_none(), "accepted {map:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, .. ProptestConfig::default() })]

    /// A valid frame with random bytes written over random positions,
    /// then cut at a random length: deep into every decoder, never valid
    /// by construction. Any answer is fine; a panic is not.
    #[test]
    fn spliced_frames_never_panic(
        pick in any::<usize>(),
        writes in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        keep in any::<usize>(),
    ) {
        let corpus = corpus();
        let s = &corpus[pick % corpus.len()];
        let mut frame = s.bytes.clone();
        for (at, byte) in writes {
            let at = at % frame.len();
            frame[at] = byte;
        }
        frame.truncate(1 + keep % frame.len());
        let _ = (s.decode)(&frame);
    }

    /// Unstructured input, through all three decoders.
    #[test]
    fn random_bytes_never_panic(frame in proptest::collection::vec(any::<u8>(), 0..96)) {
        for decode in [decode_msg, decode_client, decode_server] {
            let _ = decode(&frame);
        }
    }
}
