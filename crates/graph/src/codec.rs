//! Compact binary codec for properties, vertices, and storage keys.
//!
//! Hand-rolled (rather than serde-based) so the on-disk format is stable,
//! inspectable, and byte-order aware: storage keys use big-endian vertex
//! ids so lexicographic key order equals numeric order, which is what
//! makes the §VI layout's "edges of one vertex stored together by type"
//! a sequential scan.

use crate::model::{Props, Vertex, VertexId};
use crate::value::PropValue;
use bytes::Bytes;

const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Append one value to `out`.
fn encode_value(v: &PropValue, out: &mut Vec<u8>) {
    match v {
        PropValue::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        PropValue::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        PropValue::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        PropValue::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
    }
}

/// How many bytes [`encode_value`] appends.
fn value_len(v: &PropValue) -> usize {
    1 + match v {
        PropValue::Int(_) | PropValue::Float(_) => 8,
        PropValue::Str(s) => 4 + s.len(),
        PropValue::Bool(_) => 1,
    }
}

fn decode_value(data: &[u8], pos: &mut usize) -> Option<PropValue> {
    let tag = *data.get(*pos)?;
    *pos += 1;
    match tag {
        TAG_INT => {
            let b = data.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(PropValue::Int(i64::from_le_bytes(b.try_into().ok()?)))
        }
        TAG_FLOAT => {
            let b = data.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(PropValue::Float(f64::from_le_bytes(b.try_into().ok()?)))
        }
        TAG_STR => {
            let b = data.get(*pos..*pos + 4)?;
            let n = u32::from_le_bytes(b.try_into().ok()?) as usize;
            *pos += 4;
            let s = data.get(*pos..*pos + n)?;
            *pos += n;
            Some(PropValue::Str(String::from_utf8(s.to_vec()).ok()?))
        }
        TAG_BOOL => {
            let b = *data.get(*pos)?;
            *pos += 1;
            Some(PropValue::Bool(b != 0))
        }
        _ => None,
    }
}

/// Step over one encoded value without building it; `None` exactly when
/// [`decode_value`] would reject it.
fn skip_value(data: &[u8], pos: &mut usize) -> Option<()> {
    let tag = *data.get(*pos)?;
    *pos += 1;
    match tag {
        TAG_INT | TAG_FLOAT => {
            data.get(*pos..*pos + 8)?;
            *pos += 8;
        }
        TAG_STR => {
            let b = data.get(*pos..*pos + 4)?;
            let n = u32::from_le_bytes(b.try_into().ok()?) as usize;
            *pos += 4;
            std::str::from_utf8(data.get(*pos..*pos + n)?).ok()?;
            *pos += n;
        }
        TAG_BOOL => {
            data.get(*pos)?;
            *pos += 1;
        }
        _ => return None,
    }
    Some(())
}

/// Encode a property map.
pub fn encode_props(props: &Props) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + props.len() * 24);
    out.extend_from_slice(&(props.len() as u16).to_le_bytes());
    for (k, v) in props.iter() {
        out.extend_from_slice(&(k.len() as u16).to_le_bytes());
        out.extend_from_slice(k.as_bytes());
        encode_value(v, &mut out);
    }
    out
}

/// How many bytes [`encode_props`] produces, counted without encoding.
pub fn props_len(props: &Props) -> usize {
    2 + props
        .iter()
        .map(|(k, v)| 2 + k.len() + value_len(v))
        .sum::<usize>()
}

/// Decode a property map (inverse of [`encode_props`]).
pub fn decode_props(data: &[u8]) -> Option<Props> {
    let mut pos = 0usize;
    let n = u16::from_le_bytes(data.get(0..2)?.try_into().ok()?) as usize;
    pos += 2;
    let mut props = Props::new();
    for _ in 0..n {
        let klen = u16::from_le_bytes(data.get(pos..pos + 2)?.try_into().ok()?) as usize;
        pos += 2;
        let key = String::from_utf8(data.get(pos..pos + klen)?.to_vec()).ok()?;
        pos += klen;
        let val = decode_value(data, &mut pos)?;
        props.0.insert(key, val);
    }
    if pos != data.len() {
        return None;
    }
    Some(props)
}

/// Whether [`decode_props`] would accept `data`, decided by walking the
/// length fields: no `String`, no map. Lets a read that only needs to know
/// a record is intact (an unfiltered traversal step) skip the decode.
pub fn props_well_formed(data: &[u8]) -> bool {
    fn walk(data: &[u8]) -> Option<()> {
        let n = u16::from_le_bytes(data.get(0..2)?.try_into().ok()?) as usize;
        let mut pos = 2usize;
        for _ in 0..n {
            let klen = u16::from_le_bytes(data.get(pos..pos + 2)?.try_into().ok()?) as usize;
            pos += 2;
            std::str::from_utf8(data.get(pos..pos + klen)?).ok()?;
            pos += klen;
            skip_value(data, &mut pos)?;
        }
        (pos == data.len()).then_some(())
    }
    walk(data).is_some()
}

/// Encode a vertex record (type + props) for the vertex namespace.
pub fn encode_vertex(v: &Vertex) -> Bytes {
    let props = encode_props(&v.props);
    let mut out = Vec::with_capacity(2 + v.vtype.len() + props.len());
    out.extend_from_slice(&(v.vtype.len() as u16).to_le_bytes());
    out.extend_from_slice(v.vtype.as_bytes());
    out.extend_from_slice(&props);
    Bytes::from(out)
}

/// How many bytes [`encode_vertex`] produces, counted without encoding.
pub fn vertex_len(v: &Vertex) -> usize {
    2 + v.vtype.len() + props_len(&v.props)
}

/// Decode a vertex record given its id.
pub fn decode_vertex(id: VertexId, data: &[u8]) -> Option<Vertex> {
    let tlen = u16::from_le_bytes(data.get(0..2)?.try_into().ok()?) as usize;
    let vtype = String::from_utf8(data.get(2..2 + tlen)?.to_vec()).ok()?;
    let props = decode_props(data.get(2 + tlen..)?)?;
    Some(Vertex { id, vtype, props })
}

/// Whether [`decode_vertex`] would accept `data` — the existence-only
/// form of the vertex read (see [`props_well_formed`]).
pub fn vertex_well_formed(data: &[u8]) -> bool {
    let Some(tlen) = data.get(0..2).and_then(|b| b.try_into().ok()) else {
        return false;
    };
    let tlen = u16::from_le_bytes(tlen) as usize;
    data.get(2..2 + tlen)
        .is_some_and(|t| std::str::from_utf8(t).is_ok())
        && data.get(2 + tlen..).is_some_and(props_well_formed)
}

/// Storage key of a vertex in the vertex namespace: big-endian id.
pub fn vertex_key(id: VertexId) -> [u8; 8] {
    id.to_be_bytes()
}

/// Storage key of an edge: `src(8) | label_len(1) | label | dst(8)`.
///
/// All edges of a vertex share the `src` prefix; all edges with a given
/// label share the longer `src|label` prefix, so a typed adjacency scan is
/// one sequential prefix scan (the §VI layout optimization).
pub fn edge_key(src: VertexId, label: &str, dst: VertexId) -> Vec<u8> {
    debug_assert!(label.len() <= u8::MAX as usize, "edge label too long");
    let mut out = Vec::with_capacity(17 + label.len());
    out.extend_from_slice(&src.to_be_bytes());
    out.push(label.len() as u8);
    out.extend_from_slice(label.as_bytes());
    out.extend_from_slice(&dst.to_be_bytes());
    out
}

/// Prefix covering all edges of `src` with `label`.
pub fn edge_label_prefix(src: VertexId, label: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + label.len());
    out.extend_from_slice(&src.to_be_bytes());
    out.push(label.len() as u8);
    out.extend_from_slice(label.as_bytes());
    out
}

/// Split an edge key into `(src, label, dst)` without copying the label.
pub fn split_edge_key(key: &[u8]) -> Option<(VertexId, &str, VertexId)> {
    if key.len() < 17 {
        return None;
    }
    let src = VertexId::from_be_bytes(key[0..8].try_into().ok()?);
    let llen = key[8] as usize;
    if key.len() != 9 + llen + 8 {
        return None;
    }
    let label = std::str::from_utf8(&key[9..9 + llen]).ok()?;
    let dst = VertexId::from_be_bytes(key[9 + llen..].try_into().ok()?);
    Some((src, label, dst))
}

/// Decode `(src, label, dst)` from an edge key.
pub fn decode_edge_key(key: &[u8]) -> Option<(VertexId, String, VertexId)> {
    split_edge_key(key).map(|(src, label, dst)| (src, label.to_string(), dst))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_props() -> Props {
        Props::new()
            .with("name", "dset-1")
            .with("size", 1020i64)
            .with("ratio", 0.25f64)
            .with("shared", true)
    }

    #[test]
    fn props_roundtrip() {
        let p = sample_props();
        let enc = encode_props(&p);
        assert_eq!(props_len(&p), enc.len());
        assert_eq!(decode_props(&enc), Some(p));
    }

    #[test]
    fn empty_props_roundtrip() {
        let p = Props::new();
        assert_eq!(props_len(&p), encode_props(&p).len());
        assert_eq!(decode_props(&encode_props(&p)), Some(p));
    }

    #[test]
    fn props_reject_trailing_garbage() {
        let mut enc = encode_props(&sample_props());
        enc.push(0xFF);
        assert_eq!(decode_props(&enc), None);
    }

    #[test]
    fn props_reject_truncation() {
        let enc = encode_props(&sample_props());
        for cut in 1..enc.len() {
            assert_eq!(decode_props(&enc[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn vertex_roundtrip() {
        let v = Vertex::new(77u64, "File", sample_props());
        let enc = encode_vertex(&v);
        assert_eq!(vertex_len(&v), enc.len());
        assert_eq!(decode_vertex(VertexId(77), &enc), Some(v));
    }

    #[test]
    fn edge_key_roundtrip_and_prefixes() {
        let k = edge_key(VertexId(5), "read", VertexId(9));
        assert_eq!(
            decode_edge_key(&k),
            Some((VertexId(5), "read".to_string(), VertexId(9)))
        );
        assert!(k.starts_with(&edge_label_prefix(VertexId(5), "read")));
        assert!(!k.starts_with(&edge_label_prefix(VertexId(5), "run")));
    }

    #[test]
    fn edge_keys_cluster_by_label() {
        // Keys for the same (src, label) sort adjacently regardless of dst.
        let mut keys = [
            edge_key(VertexId(1), "run", VertexId(50)),
            edge_key(VertexId(1), "read", VertexId(2)),
            edge_key(VertexId(1), "read", VertexId(100)),
            edge_key(VertexId(1), "run", VertexId(3)),
        ];
        keys.sort();
        let labels: Vec<String> = keys.iter().map(|k| decode_edge_key(k).unwrap().1).collect();
        // Keys sort by (label_len, label, dst), so equal labels are always
        // contiguous — that contiguity is what makes typed scans sequential.
        assert_eq!(labels, ["run", "run", "read", "read"]);
        let dsts: Vec<u64> = keys
            .iter()
            .map(|k| decode_edge_key(k).unwrap().2 .0)
            .collect();
        assert_eq!(
            dsts,
            [3, 50, 2, 100],
            "within a label, dst order is ascending"
        );
    }

    #[test]
    fn decode_edge_key_rejects_malformed() {
        assert_eq!(decode_edge_key(&[]), None);
        assert_eq!(decode_edge_key(&[0u8; 16]), None);
        let mut k = edge_key(VertexId(1), "x", VertexId(2));
        k.pop();
        assert_eq!(decode_edge_key(&k), None);
    }
}
