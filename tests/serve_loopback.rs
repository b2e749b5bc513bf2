//! The sim/prod duality, held to bytes: the ODoH wiring served over real
//! loopback TCP must finish its workload and produce knowledge tables
//! **byte-identical** to the deterministic simulator's run of the same
//! config and seed — and the production decoder must shrug off hostile
//! bytes, both in-process (proptest against `FrameReader`) and on a live
//! socket (a rogue connection spraying garbage mid-run).

use std::sync::{Arc, Barrier};
use std::time::Duration;

use dcp_core::role::RoleKind;
use dcp_core::Scenario;
use dcp_faults::dst::KnowledgeFingerprint;
use dcp_odns::serve::odoh_serve_spec;
use dcp_odns::{Odoh, OdohConfig};
use dcp_runtime::seam::{PeerId, WireCtx, WireMsg, WireRole};
use dcp_serve::{run_loopback, FrameReader, ServeConfig, MAX_FRAME_PAYLOAD};
use proptest::prelude::*;

fn serve_cfg(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

/// The simulated twin's knowledge tables, JSON-serialized so comparisons
/// are literal bytes, not just `PartialEq`.
fn simulated_fingerprint(cfg: &OdohConfig, seed: u64) -> String {
    serde_json::to_string(&KnowledgeFingerprint::of(&Odoh::run(cfg, seed).world)).unwrap()
}

/// Serve a config over loopback TCP and compare against the simulated
/// twin.
fn assert_twin(cfg: OdohConfig, seed: u64) {
    assert_twin_served(cfg, seed, &serve_cfg(seed));
}

fn assert_twin_served(cfg: OdohConfig, seed: u64, serve: &ServeConfig) {
    let outcome = run_loopback(odoh_serve_spec(&cfg, seed), serve).expect("serve runs");
    assert_eq!(
        outcome.completed_units, outcome.expected_units,
        "every query answered over real sockets"
    );
    let served = serde_json::to_string(&KnowledgeFingerprint::of(&outcome.world)).unwrap();
    assert_eq!(
        served,
        simulated_fingerprint(&cfg, seed),
        "served knowledge tables must be byte-identical to the simulated twin"
    );
}

#[test]
fn odoh_over_loopback_matches_simulated_twin() {
    assert_twin(OdohConfig::new(1, 4), 7);
}

#[test]
fn odoh_multi_client_loopback_matches_simulated_twin() {
    // Three clients interleave on real sockets in nondeterministic
    // order; the tables must not care.
    assert_twin(OdohConfig::new(3, 4), 1004);
}

#[test]
fn rogue_connections_cannot_perturb_the_tables() {
    // A run that also receives hostile traffic from a stranger — raw
    // garbage, an oversize length prefix, a data frame with no hello, a
    // forged hello with an unregistered nonce — must complete normally
    // and produce the exact same knowledge tables. The rogue peer is not
    // part of the spec, so any effect it had would surface as a
    // fingerprint diff, a missing answer, or a wedged run.
    use std::io::Write;
    use std::net::TcpStream;

    let cfg = OdohConfig::new(1, 4);
    let seed = 11;

    let (tx, rx) = std::sync::mpsc::channel();
    let mut hostile_cfg = serve_cfg(seed);
    hostile_cfg.port_report = Some(tx);
    let attacker = std::thread::spawn(move || {
        let addrs = rx.recv().expect("engine reports its ports");
        // One payload per attack class; ignore socket errors — the
        // engine closing on us early is exactly the fail-closed path.
        let mut forged_hello = vec![0x02];
        forged_hello.extend_from_slice(&10u32.to_be_bytes());
        forged_hello.extend_from_slice(&0xdead_beef_dead_beefu64.to_be_bytes());
        forged_hello.extend_from_slice(&7u16.to_be_bytes());
        let mut oversize = vec![0x01];
        oversize.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut no_hello_data = vec![0x01];
        no_hello_data.extend_from_slice(&3u32.to_be_bytes());
        no_hello_data.extend_from_slice(b"pwn");
        let attacks: [&[u8]; 4] = [
            b"\xfftotal garbage",
            &oversize,
            &no_hello_data,
            &forged_hello,
        ];
        for addr in &addrs {
            for attack in attacks {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.write_all(attack);
                    let _ = s.flush();
                }
            }
        }
    });

    let outcome =
        run_loopback(odoh_serve_spec(&cfg, seed), &hostile_cfg).expect("run survives hostility");
    attacker.join().expect("attacker thread");
    assert_eq!(outcome.completed_units, outcome.expected_units);
    let under_attack = serde_json::to_string(&KnowledgeFingerprint::of(&outcome.world)).unwrap();

    let clean = run_loopback(odoh_serve_spec(&cfg, seed), &serve_cfg(seed)).expect("clean run");
    let clean_fp = serde_json::to_string(&KnowledgeFingerprint::of(&clean.world)).unwrap();
    assert_eq!(
        under_attack, clean_fp,
        "hostile connections must not change what anyone learned"
    );
}

#[test]
fn accept_cap_does_not_starve_legitimate_peers() {
    // The proxy is the only ODoH role with more than one inbound peer.
    // At a cap of two its accept thread stops calling accept(2) once two
    // clients are connected. With three clients the third waits in the
    // kernel backlog until a finished client's connection closes; every
    // run must still answer everything with the twin's tables.
    let capped = |seed| ServeConfig {
        max_conns: 2,
        ..serve_cfg(seed)
    };
    assert_twin_served(OdohConfig::new(1, 4), 7, &capped(7));
    assert_twin_served(OdohConfig::new(2, 4), 42, &capped(42));
    assert_twin_served(OdohConfig::new(3, 4), 1004, &capped(1004));
}

/// Holds a client's first query until `go` opens, so a test can act on
/// live listeners before any protocol traffic.
struct HeldStart {
    inner: Box<dyn WireRole>,
    go: Arc<Barrier>,
}

impl WireRole for HeldStart {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        self.go.wait();
        self.inner.on_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        self.inner.on_frame(ctx, from, msg);
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

#[test]
fn stalled_rogue_peers_cannot_hold_shutdown_hostage() {
    // Strangers that connect and never send, and one that sends a Data
    // header claiming 1000 bytes and then stalls. Each pins a reader
    // thread blocked in read(2) for the whole run; shutdown has to wake
    // them all, or the run never returns.
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let cfg = OdohConfig::new(2, 20);
    let seed = 23;
    let mut spec = odoh_serve_spec(&cfg, seed);
    // Every role is listening before the clients send anything; the
    // strangers connect in that window, ahead of every legitimate dial.
    let go = Arc::new(Barrier::new(cfg.clients + 1));
    spec.roles = spec
        .roles
        .into_iter()
        .map(|mut rs| {
            if rs.kind == RoleKind::Initiator {
                rs.role = Box::new(HeldStart {
                    inner: rs.role,
                    go: go.clone(),
                });
            }
            rs
        })
        .collect();
    let (tx, rx) = std::sync::mpsc::channel();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let mut stalled_cfg = serve_cfg(seed);
    stalled_cfg.port_report = Some(tx);
    let attacker = std::thread::spawn(move || {
        let addrs = rx.recv().expect("engine reports its ports");
        let mut partial = vec![0x01];
        partial.extend_from_slice(&1000u32.to_be_bytes());
        let mut held = Vec::new();
        for addr in &addrs {
            for _ in 0..2 {
                held.extend(TcpStream::connect(addr));
            }
            if let Ok(mut s) = TcpStream::connect(addr) {
                s.write_all(&partial).expect("header sent");
                held.push(s);
            }
        }
        go.wait();
        // Hold every connection open until the run has returned; by then
        // the engine must have ended each one (EOF or reset), not left it
        // hanging.
        let _ = released.recv();
        let ended = held
            .into_iter()
            .map(|mut s| {
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                match s.read(&mut [0u8; 1]) {
                    Ok(n) => n == 0,
                    Err(e) => !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                }
            })
            .collect::<Vec<bool>>();
        (addrs.len(), ended)
    });

    // Run on a thread of its own, so a shutdown that waits on a stalled
    // peer fails this test instead of hanging it.
    let (ran, run) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = ran.send(run_loopback(spec, &stalled_cfg));
    });
    let outcome = run
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown waited on stalled peers: no return within 10 s of a 30 s deadline")
        .expect("run survives stalls");
    release.send(()).unwrap();
    let (roles, ended) = attacker.join().expect("attacker thread");

    assert!(
        outcome.complete(),
        "stalled strangers must not block the run"
    );
    assert_eq!(ended.len(), 3 * roles, "every stalled connection was made");
    assert!(
        ended.iter().all(|&e| e),
        "the engine left a stalled connection open"
    );
    assert_eq!(
        serde_json::to_string(&KnowledgeFingerprint::of(&outcome.world)).unwrap(),
        simulated_fingerprint(&cfg, seed),
        "stalled connections must not change what anyone learned"
    );
}

proptest! {
    /// Arbitrary bytes, arbitrarily chunked, can error the production
    /// reader but never panic it — and anything it does accept re-encodes
    /// to well-formed frames.
    #[test]
    fn frame_reader_never_panics_on_hostile_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..64,
    ) {
        let mut r = FrameReader::new();
        for c in bytes.chunks(chunk) {
            match r.push(c) {
                Ok(frames) => {
                    for f in frames {
                        prop_assert!(f.payload.len() <= MAX_FRAME_PAYLOAD);
                        prop_assert!(f.encode().is_ok());
                    }
                }
                Err(_) => break, // fail-closed: the stream is poisoned, stop
            }
        }
        prop_assert!(r.pending() <= 5 + MAX_FRAME_PAYLOAD);
    }

    /// Truncating a valid multi-frame stream at any byte never panics and
    /// never yields a frame that wasn't fully present.
    #[test]
    fn truncation_yields_only_complete_frames(cut in 0usize..200, n in 1usize..5) {
        use dcp_runtime::seam::{Frame, FrameType};
        let mut stream = Vec::new();
        let mut lens = Vec::new();
        for i in 0..n {
            let f = Frame::new(FrameType::Data, vec![i as u8; 17 * (i + 1)]);
            let enc = f.encode().unwrap();
            lens.push(enc.len());
            stream.extend_from_slice(&enc);
        }
        let cut = cut.min(stream.len());
        let mut r = FrameReader::new();
        let got = r.push(&stream[..cut]).expect("prefix of valid stream decodes");
        // Every yielded frame must have been completely inside the cut.
        let mut consumed = 0;
        for (f, l) in got.iter().zip(&lens) {
            consumed += l;
            prop_assert!(consumed <= cut);
            prop_assert_eq!(f.encode().unwrap().len(), *l);
        }
    }
}
