//! What every carrier promises an endpoint, checked by one body over an
//! endpoint pair of each: the simulated fabric and a UDS socket mesh.

use gt_net::{Fabric, NetConfig, TrafficClass};
use gt_transport::{Endpoint, MeshConfig, SendError, SocketAddrSpec, SocketMesh, WireCodec};
use std::time::{Duration, Instant};

/// Control when odd, data when even.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Laned(u64);

impl WireCodec for Laned {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        u64::decode(buf).map(Laned)
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn traffic_class(&self) -> TrafficClass {
        if self.0 % 2 == 1 {
            TrafficClass::Control
        } else {
            TrafficClass::Interactive
        }
    }
}

/// The contract, over endpoints 0 and 1 of a two-endpoint carrier.
fn check(carrier: &str, eps: &[Endpoint<Laned>]) {
    let (from, to) = (&eps[0], &eps[1]);
    assert_eq!(from.link().n_endpoints(), 2, "{carrier}");
    for bad in [2, 9] {
        assert_eq!(
            from.send(bad, Laned(0)),
            Err(SendError::UnknownEndpoint),
            "{carrier}: id {bad}"
        );
    }

    // 1000 data messages with a control message after every 100th: each
    // control overtakes the data queued before it.
    const DATA: u64 = 1000;
    let mut control = Vec::new();
    for i in 0..DATA {
        from.send(1, Laned(2 * i)).unwrap();
        if i % 100 == 99 {
            let c = 2 * i + 1;
            from.send(1, Laned(c)).unwrap();
            control.push(c);
        }
    }
    let total = DATA as usize + control.len();
    let deadline = Instant::now() + Duration::from_secs(10);
    while to.pending() < total {
        assert!(Instant::now() < deadline, "{carrier}: frames not delivered");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(to.pending(), total, "{carrier}: both lanes counted");
    let stats = from.link().stats();
    assert_eq!(stats.messages(0, 1), total as u64, "{carrier}");
    assert_eq!(stats.messages(1, 0), 0, "{carrier}");

    assert_eq!(to.recv().unwrap().msg, Laned(control[0]), "{carrier}");
    for &c in &control[1..] {
        assert_eq!(to.try_recv().map(|e| e.msg), Some(Laned(c)), "{carrier}");
    }
    for i in 0..DATA {
        let env = to
            .try_recv()
            .unwrap_or_else(|| panic!("{carrier}: data {i}"));
        assert_eq!(
            (env.from, env.to, env.msg),
            (0, 1, Laned(2 * i)),
            "{carrier}"
        );
    }
    assert_eq!(to.pending(), 0, "{carrier}");
}

/// An endpoint pair of each carrier; the mesh's socket goes in a fresh
/// scratch directory, removed with [`cleanup`].
fn carriers<M: WireCodec + Clone + Send + 'static>(
    name: &str,
) -> Vec<(&'static str, Vec<Endpoint<M>>)> {
    std::fs::create_dir_all(dir(name)).unwrap();
    let uds = MeshConfig::single_process(2, SocketAddrSpec::Uds(dir(name).join("mesh.sock")));
    vec![
        ("fabric", Fabric::new(2, NetConfig::instant()).1),
        ("uds mesh", SocketMesh::start(uds).unwrap().1),
    ]
}

fn dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gt-carrier-{}-{name}", std::process::id()))
}

fn cleanup(name: &str) {
    let _ = std::fs::remove_dir_all(dir(name));
}

#[test]
fn every_carrier_keeps_the_endpoint_contract() {
    for (carrier, eps) in &carriers::<Laned>("contract") {
        check(carrier, eps);
        eps[0].link().close();
    }
    cleanup("contract");
}

/// The mesh's frame header: length, sender and receiver, a `u32` each.
const FRAME_HEADER: u64 = 12;

/// Both carriers count what the codec writes: the fabric the encoded
/// message, the mesh that plus its frame header.
#[test]
fn both_carriers_count_the_bytes_the_codec_writes() {
    let msgs: Vec<Vec<u8>> = (0..300).map(|n| vec![7u8; n * 13 % 257]).collect();
    let encoded: u64 = msgs.iter().map(|m| m.to_bytes().len() as u64).sum();
    let mut bytes = Vec::new();
    for (carrier, eps) in &carriers::<Vec<u8>>("parity") {
        for m in &msgs {
            eps[0].send(1, m.clone()).unwrap();
        }
        for m in &msgs {
            let env = eps[1].recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(&env.msg, m, "{carrier}");
        }
        let stats = eps[0].link().stats();
        assert_eq!(stats.total_messages(), msgs.len() as u64, "{carrier}");
        bytes.push(stats.total_bytes());
        eps[0].link().close();
    }
    assert_eq!(bytes[0], encoded, "the fabric charges the encoded length");
    assert_eq!(
        bytes[1],
        bytes[0] + FRAME_HEADER * msgs.len() as u64,
        "the mesh adds one frame header per message"
    );
    cleanup("parity");
}
