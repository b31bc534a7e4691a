//! Binary serialization of [`Msg`] for the socket transport.
//!
//! Only frames crossing a real socket ([`gt_transport::socket`]) are
//! encoded; the in-process fabric moves messages by value and asks this
//! module only for the encoded length, which its bandwidth model charges.
//! Every variant is covered — any cluster workload (chaos excepted; chaos
//! requires the simulated fabric) can run over TCP/UDS — and decoding is
//! total: malformed bytes yield `None`, which the mesh counts as a dropped
//! frame, never a panic in a server thread.
//!
//! The format has three parts, each defined once:
//!
//! * **The cursor** is [`gt_proto::Reader`] with the `gt_proto::put_*`
//!   writers: little-endian integers, `u32` length prefixes on sequences
//!   and strings. `Reader::seq_len` is the only hostile-length rule — a
//!   count is rejected unless that many minimum-size elements still fit
//!   in the unread input.
//! * **The `Wire` trait** gives every field type its encoding (`put`),
//!   decoding (`get`), encoded length (`wire_len`, counted without
//!   encoding) and smallest encoded size (`MIN_SIZE`, what `Vec<T>` hands
//!   to `seq_len`). `Option`s are a presence byte (`0`/`1`) then the
//!   value; vertices and props reuse their storage encodings
//!   (`gt_graph::codec`) verbatim so there is one byte-level truth per
//!   type.
//! * **The table** (`wire_table!`) lists each enum variant once, as
//!   `tag => Variant { fields in wire order }`; encode, length and decode
//!   are all generated from that row. A row is written by hand only
//!   where the format is not the fields in sequence.
//!
//! Tags are append-only and never reused: renumbering breaks mixed-version
//! meshes. A retired variant's tag stays
//! unassigned (see the note in the `Msg` table), so frames from an older
//! peer decode to `None` instead of to a different message.

use crate::lang::{Plan, PlanStep, Source};
use crate::message::{CopyPurpose, Msg, ProgressSnapshot, TravelOutcome};
use crate::{ExecId, Token};
use gt_graph::{Cond, Edge, FilterSet, PropFilter, PropValue, Vertex, VertexId};
use gt_placement::{PartitionEntry, PlacementMap};
use gt_proto::{put_bytes, put_str, put_u16, put_u32, put_u64, Reader};
use std::sync::Arc;

/// A type with one wire encoding.
trait Wire: Sized {
    /// Fewest bytes an encoded value occupies.
    const MIN_SIZE: usize;
    /// Append the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value; `None` on malformed input.
    fn get(r: &mut Reader<'_>) -> Option<Self>;
    /// How many bytes `put` appends, counted without encoding. Only a
    /// fixed-size type keeps the default.
    #[inline]
    fn wire_len(&self) -> usize {
        Self::MIN_SIZE
    }

    /// Body of a sequence, after its length prefix. `u8` overrides the
    /// pair to move byte strings in one piece.
    fn put_seq(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.put(out);
        }
    }
    /// How many bytes `put_seq` appends.
    fn seq_wire_len(items: &[Self]) -> usize {
        items.iter().map(Wire::wire_len).sum()
    }
    /// `n` elements; `n` has already passed `seq_len(MIN_SIZE)`.
    fn get_seq(r: &mut Reader<'_>, n: usize) -> Option<Vec<Self>> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Some(items)
    }
}

// ------------------------------------------------------ scalars, containers
//
// Every `put`/`get` in this section is `#[inline]`: they run once per field
// inside per-element loops, and left to the inliner's own choice a `Visit`
// frame encodes and decodes 1.4-3x slower.

macro_rules! wire_int {
    ($($ty:ident via $put:ident);*) => {$(
        impl Wire for $ty {
            const MIN_SIZE: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                r.$ty().ok()
            }
        }
    )*};
}
wire_int!(u16 via put_u16; u32 via put_u32; u64 via put_u64);

impl Wire for u8 {
    const MIN_SIZE: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.u8().ok()
    }
    #[inline]
    fn put_seq(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    #[inline]
    fn seq_wire_len(items: &[u8]) -> usize {
        items.len()
    }
    #[inline]
    fn get_seq(r: &mut Reader<'_>, n: usize) -> Option<Vec<u8>> {
        Some(r.take(n).ok()?.to_vec())
    }
}

/// Server ids, counts and partition ids travel as `u64`.
impl Wire for usize {
    const MIN_SIZE: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(r.u64().ok()? as usize)
    }
}

impl Wire for bool {
    const MIN_SIZE: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8().ok()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    const MIN_SIZE: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.string().ok()
    }
    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        T::put_seq(self, out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.seq_len(T::MIN_SIZE).ok()?;
        T::get_seq(r, n)
    }
    #[inline]
    fn wire_len(&self) -> usize {
        4 + T::seq_wire_len(self)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_SIZE: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(1);
                v.put(out);
            }
            None => out.push(0),
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8().ok()? {
            0 => Some(None),
            1 => Some(Some(T::get(r)?)),
            _ => None,
        }
    }
    #[inline]
    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_len)
    }
}

macro_rules! wire_pointer {
    ($($ptr:ident),*) => {$(
        impl<T: Wire> Wire for $ptr<T> {
            const MIN_SIZE: usize = T::MIN_SIZE;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                (**self).put(out);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                T::get(r).map($ptr::new)
            }
            #[inline]
            fn wire_len(&self) -> usize {
                (**self).wire_len()
            }
        }
    )*};
}
wire_pointer!(Arc, Box);

/// A struct (or tuple) whose encoding is its fields in the listed order.
macro_rules! wire_struct {
    ($ty:ty { $($f:tt : $ft:ty),* }) => {
        impl Wire for $ty {
            const MIN_SIZE: usize = 0 $(+ <$ft as Wire>::MIN_SIZE)*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                Some(Self { $($f: Wire::get(r)?),* })
            }
            #[inline]
            fn wire_len(&self) -> usize {
                0 $(+ self.$f.wire_len())*
            }
        }
    };
}

macro_rules! wire_tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN_SIZE: usize = 0 $(+ $t::MIN_SIZE)*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                Some(($($t::get(r)?,)*))
            }
            #[inline]
            fn wire_len(&self) -> usize {
                0 $(+ self.$i.wire_len())*
            }
        }
    };
}
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

// ------------------------------------------------- graph and plan payloads

wire_struct!(VertexId { 0: u64 });
wire_struct!(ExecId { 0: u64 });
wire_struct!(Token {
    owner: u16,
    id: u64
});
wire_struct!(PropFilter {
    key: String,
    cond: Cond
});
wire_struct!(FilterSet { 0: Vec<PropFilter> });
wire_struct!(PlanStep {
    edge_label: String,
    edge_filters: FilterSet,
    vertex_filters: FilterSet,
    rtn: bool
});
wire_struct!(Plan {
    source: Source,
    source_filters: FilterSet,
    source_rtn: bool,
    steps: Vec<PlanStep>,
    as_of: Option<u64>,
    snapshot: Option<u64>,
    qos_weight: u32
});
wire_struct!(ProgressSnapshot {
    created: u64,
    terminated: u64,
    outstanding_by_depth: Vec<(u16, u64)>
});
wire_struct!(TravelOutcome {
    by_depth: Vec<(u16, Vec<VertexId>)>,
    progress: ProgressSnapshot
});
wire_struct!(PartitionEntry { primary: usize, replicas: Vec<usize> });

impl Wire for PropValue {
    const MIN_SIZE: usize = 2;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            PropValue::Int(v) => (1u8, *v as u64).put(out),
            PropValue::Float(v) => (2u8, v.to_bits()).put(out),
            PropValue::Str(v) => {
                out.push(3);
                v.put(out);
            }
            PropValue::Bool(v) => (4u8, *v).put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8().ok()? {
            1 => PropValue::Int(u64::get(r)? as i64),
            2 => PropValue::Float(f64::from_bits(u64::get(r)?)),
            3 => PropValue::Str(Wire::get(r)?),
            4 => PropValue::Bool(Wire::get(r)?),
            _ => return None,
        })
    }
    fn wire_len(&self) -> usize {
        1 + match self {
            PropValue::Int(_) | PropValue::Float(_) => 8,
            PropValue::Str(v) => v.wire_len(),
            PropValue::Bool(_) => 1,
        }
    }
}

impl Wire for Cond {
    const MIN_SIZE: usize = 3;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Cond::Eq(v) => {
                out.push(1);
                v.put(out);
            }
            Cond::In(vs) => {
                out.push(2);
                vs.put(out);
            }
            Cond::Range(lo, hi) => {
                out.push(3);
                lo.put(out);
                hi.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8().ok()? {
            1 => Cond::Eq(Wire::get(r)?),
            2 => Cond::In(Wire::get(r)?),
            3 => Cond::Range(Wire::get(r)?, Wire::get(r)?),
            _ => return None,
        })
    }
    fn wire_len(&self) -> usize {
        1 + match self {
            Cond::Eq(v) => v.wire_len(),
            Cond::In(vs) => vs.wire_len(),
            Cond::Range(lo, hi) => lo.wire_len() + hi.wire_len(),
        }
    }
}

impl Wire for Source {
    const MIN_SIZE: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Source::Ids(ids) => {
                out.push(1);
                ids.put(out);
            }
            Source::All => out.push(2),
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8().ok()? {
            1 => Some(Source::Ids(Wire::get(r)?)),
            2 => Some(Source::All),
            _ => None,
        }
    }
    fn wire_len(&self) -> usize {
        1 + match self {
            Source::Ids(ids) => ids.wire_len(),
            Source::All => 0,
        }
    }
}

/// `id`, then the storage encoding of type and props as one byte string.
impl Wire for Vertex {
    const MIN_SIZE: usize = 12;
    fn put(&self, out: &mut Vec<u8>) {
        self.id.put(out);
        put_bytes(out, &gt_graph::codec::encode_vertex(self));
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let id = Wire::get(r)?;
        gt_graph::codec::decode_vertex(id, r.bytes().ok()?)
    }
    fn wire_len(&self) -> usize {
        12 + gt_graph::codec::vertex_len(self)
    }
}

/// `src`, `label`, `dst`, then the storage encoding of the props.
impl Wire for Edge {
    const MIN_SIZE: usize = 24;
    fn put(&self, out: &mut Vec<u8>) {
        self.src.put(out);
        self.label.put(out);
        self.dst.put(out);
        put_bytes(out, &gt_graph::codec::encode_props(&self.props));
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(Edge {
            src: Wire::get(r)?,
            label: Wire::get(r)?,
            dst: Wire::get(r)?,
            props: gt_graph::codec::decode_props(r.bytes().ok()?)?,
        })
    }
    fn wire_len(&self) -> usize {
        20 + self.label.wire_len() + gt_graph::codec::props_len(&self.props)
    }
}

// ------------------------------------------------------- protocol payloads

impl Wire for CopyPurpose {
    const MIN_SIZE: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            CopyPurpose::Move => 1,
            CopyPurpose::Replica => 2,
        });
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8().ok()? {
            1 => Some(CopyPurpose::Move),
            2 => Some(CopyPurpose::Replica),
            _ => None,
        }
    }
}

impl Wire for PlacementMap {
    const MIN_SIZE: usize = 24;
    fn put(&self, out: &mut Vec<u8>) {
        self.version.put(out);
        self.n_servers.put(out);
        self.entries.put(out);
        self.decommissioned.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let map = PlacementMap {
            version: Wire::get(r)?,
            n_servers: Wire::get(r)?,
            entries: Wire::get(r)?,
            decommissioned: Wire::get(r)?,
        };
        // Routing takes a vertex hash modulo `entries.len()` and indexes
        // `decommissioned` and the server table by the ids in the map, so
        // a map that would panic there is malformed here.
        let routable = !map.entries.is_empty()
            && map.decommissioned.len() == map.n_servers
            && map.entries.iter().all(|e| {
                e.primary < map.n_servers && e.replicas.iter().all(|&s| s < map.n_servers)
            });
        routable.then_some(map)
    }
    fn wire_len(&self) -> usize {
        16 + self.entries.wire_len() + self.decommissioned.wire_len()
    }
}

// ---------------------------------------------------------------- the table

/// From one row per variant, `tag => Variant { fields in wire order }`,
/// generate for `$ty`: `wire_tag(&self)`, `put_fields(&self, out)` (the
/// fields, without the tag), `fields_len(&self)` (the bytes `put_fields`
/// appends) and `get_fields(tag, r)`. Field types are the enum's own;
/// each must implement [`Wire`]. `by hand` rows name their fields the
/// same way and supply the three bodies themselves, written against the
/// `|out, r|` identifiers the invocation chose.
macro_rules! wire_table {
    (
        $ty:ident, |$out:ident, $r:ident| {
            $($tag:tt => $var:ident { $($f:ident),* }),* $(,)?
        }
        by hand {
            $($htag:tt => $hvar:ident { $($hf:ident),* }:
                put $hput:block len $hlen:block get $hget:block),* $(,)?
        }
    ) => {
        #[deny(clippy::wildcard_enum_match_arm)]
        impl $ty {
            fn wire_tag(&self) -> u8 {
                match self {
                    $($ty::$var { .. } => $tag,)*
                    $($ty::$hvar { .. } => $htag,)*
                }
            }
            fn put_fields(&self, $out: &mut Vec<u8>) {
                match self {
                    $($ty::$var { $($f),* } => {
                        $($f.put($out);)*
                    })*
                    $($ty::$hvar { $($hf),* } => $hput)*
                }
            }
            fn fields_len(&self) -> usize {
                match self {
                    $($ty::$var { $($f),* } => 0 $(+ $f.wire_len())*,)*
                    $($ty::$hvar { $($hf),* } => $hlen)*
                }
            }
            fn get_fields(tag: u8, $r: &mut Reader<'_>) -> Option<Self> {
                match tag {
                    $($tag => Some($ty::$var { $($f: Wire::get($r)?),* }),)*
                    $($htag => $hget)*
                    // Unknown tag: malformed, retired, or a newer peer;
                    // surfaces as a counted drop, never a panic.
                    _ => None,
                }
            }
        }
    };
}

/// Nested [`Msg::Relay`] envelopes allowed in one frame: the engine only
/// nests one level (an envelope around a data-plane message), so anything
/// deeper in an inbound frame is malformed by construction.
const MAX_RELAY_DEPTH: u32 = 4;
const T_RELAY: u8 = 55;

wire_table! {
    Msg, |out, r| {
        1 => Submit { travel, plan, client },
        2 => Abort { travel },
        3 => ProgressQuery { travel, client },
        4 => ProgressReport { travel, snapshot },
        5 => TravelDone { travel, outcome },
        6 => Cancel { travel, client },
        7 => CancelAck { travel, server },
        8 => SourceScan { travel, plan, coordinator, exec },
        9 => Visit { travel, depth, exec, plan, coordinator, items },
        // 10, 11, 13 and 17 are retired: the eager `ExecCreated`, the
        // separate `Results`, and `ExecTerminated` / `SyncStepDone`
        // without the results they now carry (re-issued as 57 and 58).
        12 => OriginSatisfied { travel, exec, coordinator, tokens },
        // 14–16 and 58 are retired: Sync-GT's own protocol — `SyncStart`,
        // `SyncFrontier`, `SyncOrigin`, `SyncStepDone` — which has no
        // successor but 60: a gated step runs on `Visit`s and reports by
        // `ExecTerminated`.
        18 => Ingest { req, client, vertices, edges },
        // 19–20 are retired (`IngestAck`/`GetVertex` with the replica-read
        // barrier fields; re-issued slimmer as 47–48); they stay unassigned.
        21 => VertexReply { req, vertex },
        // 22–27 are retired: `Relay` with a travel-epoch (re-issued
        // without as 55), `RelayAck` before it carried one (the frame that
        // did is 50, retired as well; re-issued without as 56), and the
        // takeover protocol — `CoordRecover`, `CoordHandoff`, `ReAnnounce`,
        // `RecoverDone`, and their later forms 51, 53 and 54 — which has
        // no successor: a failover's re-drive is a `Submit`.
        28 => PlacementUpdate { map, client },
        29 => PlacementAck { version, server },
        // 30 is retired (`ReplicateWrite` with its write sequence;
        // re-issued as 49).
        31 => ReplicateAck { req, server },
        // 32 is retired (ledger replication, gone with the durable ledger).
        33 => CopyBegin { mig, partition, to, client, purpose },
        34 => CopyData { mig, partition, phase, last, client, purpose, pairs },
        // 35–36 are retired (`CopyApplied` with its phase, re-issued
        // without as 59, and `CopyCutover`, which has no successor: a copy
        // forwards every write from its begin, so there is no delta phase).
        37 => CopyFinish { mig, purpose },
        // 38 is retired (`Heartbeat` with the unread `load`; re-issued
        // as 52).
        39 => Suspect { from, suspect },
        40 => SuspectAck { suspect, confirmed },
        // 41–44 are retired (`ReReplicate{Begin,Data,Cutover,Finish}`,
        // folded into the `Copy*` rows); they stay unassigned.
        45 => Crash {},
        46 => Shutdown {},
        47 => IngestAck { req, applied },
        48 => GetVertex { req, client, vertex },
        49 => ReplicateWrite { req, origin, seq, vertices, edges },
        // 50–51 and 53–54 are retired (see 22–27).
        52 => Heartbeat { from, seq },
        56 => RelayAck { travel, server, seq, attempt },
        57 => ExecTerminated { travel, exec, children, results, server },
        59 => CopyApplied { mig, server },
        60 => StepRelease { travel, depth, frames },
    }
    by hand {
        // The payload is a whole message, and its nesting is bounded.
        T_RELAY => Relay { travel, from, epoch, seq, attempt, inner }: put {
            travel.put(out);
            from.put(out);
            epoch.put(out);
            seq.put(out);
            attempt.put(out);
            put_msg(inner, out);
        } len {
            travel.wire_len()
                + from.wire_len()
                + epoch.wire_len()
                + seq.wire_len()
                + attempt.wire_len()
                + msg_len(inner)
        } get {
            get_relay(r, 0)
        },
    }
}

// The three entry points below are `#[inline]` so that `impl WireCodec
// for Msg` (message.rs) compiles them into its own body: called across
// the module boundary instead, a `Visit` frame decodes 1.3-1.5x slower.

/// The tag, then the fields: the whole encoding of `msg`.
#[inline]
pub(crate) fn put_msg(msg: &Msg, out: &mut Vec<u8>) {
    out.push(msg.wire_tag());
    msg.put_fields(out);
}

/// How many bytes [`put_msg`] appends for `msg`, counted without encoding.
#[inline]
pub(crate) fn msg_len(msg: &Msg) -> usize {
    1 + msg.fields_len()
}

/// Decode exactly `buf` as one message; `None` if malformed.
#[inline]
pub(crate) fn get_msg(buf: &[u8]) -> Option<Msg> {
    let mut r = Reader::new(buf);
    let msg = Msg::get_fields(r.u8().ok()?, &mut r)?;
    r.finish().ok()?;
    Some(msg)
}

/// The body of a `Relay` frame, itself `depth` envelopes down.
fn get_relay(r: &mut Reader<'_>, depth: u32) -> Option<Msg> {
    if depth >= MAX_RELAY_DEPTH {
        return None;
    }
    Some(Msg::Relay {
        travel: Wire::get(r)?,
        from: Wire::get(r)?,
        epoch: Wire::get(r)?,
        seq: Wire::get(r)?,
        attempt: Wire::get(r)?,
        inner: Box::new(match r.u8().ok()? {
            T_RELAY => get_relay(r, depth + 1)?,
            tag => Msg::get_fields(tag, r)?,
        }),
    })
}
