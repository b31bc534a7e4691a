//! What every carrier promises an endpoint, checked by one body over an
//! endpoint pair of each: the simulated fabric and a UDS socket mesh.

use gt_net::{Fabric, NetConfig, TrafficClass};
use gt_transport::{
    Endpoint, MeshConfig, SendError, SocketAddrSpec, SocketMesh, WireCodec, WireSize,
};
use std::time::{Duration, Instant};

/// Control when odd, data when even.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Laned(u64);

impl WireSize for Laned {
    fn wire_size(&self) -> usize {
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

impl WireCodec for Laned {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        u64::decode(buf).map(Laned)
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

#[test]
fn every_carrier_keeps_the_endpoint_contract() {
    let dir = std::env::temp_dir().join(format!("gt-carrier-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let uds = MeshConfig::single_process(2, SocketAddrSpec::Uds(dir.join("contract.sock")));
    let carriers = [
        ("fabric", Fabric::new(2, NetConfig::instant()).1),
        ("uds mesh", SocketMesh::start(uds).unwrap().1),
    ];
    for (carrier, eps) in &carriers {
        check(carrier, eps);
        eps[0].link().close();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
