//! The layer timing harness: per-operation cost of each layer's public
//! functions, timed on inputs sized from the traced run, and the table
//! of every per-layer metric the benchmark prints.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use decoupling::core::{DataKind, IdentityKind, InfoItem, Label, World};
use decoupling::crypto::{hpke, oprf, rsa};
use decoupling::dns::{DnsName, Message, RrType};
use decoupling::simnet::TimerWheel;
use decoupling::transport::frame::{Frame, FrameRef, FrameType};
use decoupling::transport::onion;
use decoupling::worlds::{Poisson, SplitMix64, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats;

/// Crypto operations counted by the program (`MetricsReport::crypto_ops`
/// names); each becomes a `crypto.ops.<op>` metric.
pub const CRYPTO_OPS: [&str; 16] = [
    "aead_seal",
    "hpke_decap",
    "hpke_encap",
    "hpke_open",
    "hpke_seal",
    "prio_share",
    "prio_verify_r1",
    "prio_verify_r2",
    "rsa_blind",
    "rsa_sign",
    "rsa_unblind",
    "rsa_verify",
    "voprf_blind",
    "voprf_evaluate",
    "voprf_finalize",
    "voprf_redeem",
];

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; a layer the workload does not run reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for (name, unit) in [
        ("crypto.hpke_seal_us", "us"),
        ("crypto.hpke_open_us", "us"),
        ("crypto.voprf_blind_us", "us"),
        ("crypto.voprf_evaluate_us", "us"),
        ("crypto.voprf_finalize_us", "us"),
        ("crypto.rsa_blind_us", "us"),
        ("crypto.rsa_sign_us", "us"),
        ("crypto.rsa_verify_us", "us"),
    ] {
        add(name, unit);
    }
    for op in CRYPTO_OPS {
        add(&format!("crypto.ops.{op}"), "count/unit");
    }
    for (name, unit) in [
        ("crypto.share", "share"),
        ("serve.handler_us.client", "us"),
        ("serve.handler_us.proxy", "us"),
        ("serve.handler_us.target", "us"),
        ("serve.handler_us.origin", "us"),
        ("serve.engine_us_per_query", "us"),
        ("serve.deliveries_per_query", "count/unit"),
        ("serve.query_p99_ms", "ms"),
        ("simnet.wheel_push_pop_ns.small", "ns"),
        ("simnet.wheel_push_pop_ns.large", "ns"),
        ("simnet.inflight_peak", "count"),
        ("simnet.messages_sent", "count/unit"),
        ("simnet.messages_delivered", "count/unit"),
        ("simnet.messages_dropped", "count/unit"),
        ("core.observe_ns", "ns"),
        ("core.knowledge_events", "count/unit"),
        ("transport.frame_encode_ns", "ns"),
        ("transport.frame_decode_ns", "ns"),
        ("transport.onion_wrap_us", "us"),
        ("transport.onion_unwrap_us", "us"),
        ("transport.bytes_per_unit", "B/unit"),
        ("dns.encode_ns", "ns"),
        ("dns.decode_ns", "ns"),
        ("recover.retries_per_world", "count/unit"),
        ("recover.failovers_per_world", "count/unit"),
        ("recover.give_ups_per_world", "count/unit"),
        ("recover.msg_amplification", "ratio"),
        ("recover.harsh_calm_time_ratio", "ratio"),
    ] {
        add(name, unit);
    }
    for wiring in crate::sim::WIRINGS {
        for phase in ["calm", "harsh"] {
            add(&format!("sweep.world_ms.{wiring}.{phase}"), "ms");
        }
    }
    for (name, unit) in [
        ("sweep.utilization", "share"),
        ("worlds.chunk_events_per_s.p50", "1/s"),
        ("worlds.chunk_events_per_s.min", "1/s"),
        ("worlds.pending_peak", "count"),
        ("worlds.zipf_sample_ns", "ns"),
        ("worlds.poisson_ns", "ns"),
        ("worlds.queries", "count/unit"),
        ("worlds.messages", "count/unit"),
        ("obs.trace_overhead", "ratio"),
        ("busy.wall_s", "s"),
        ("busy.crypto", "share"),
        ("busy.handlers", "share"),
        ("busy.simnet", "share"),
        ("busy.core", "share"),
        ("busy.transport", "share"),
        ("busy.worlds_gen", "share"),
        ("busy.residual", "share"),
        ("check.fail_frac", "share"),
    ] {
        add(name, unit);
    }
    v
}

/// Input sizes for the per-op timings, taken from the traced run. A
/// layer the workload does not run is `None`, and its timings read 0.
pub struct Sizes {
    /// Mean payload bytes per message.
    pub msg_bytes: usize,
    /// Timer-wheel load of the simulated battery.
    pub wheel_small: Option<WheelLoad>,
    /// Timer-wheel load of the population engine.
    pub wheel_large: Option<WheelLoad>,
    /// The population's name and arrival generators.
    pub generators: Option<Generators>,
}

/// A timer wheel held at `depth` pending entries, each pop followed by a
/// push `delays_us[i]` later (cycling through the list).
pub struct WheelLoad {
    pub depth: usize,
    pub delays_us: Vec<u64>,
}

/// Zipf population and exponent, Poisson rate of a population spec.
pub struct Generators {
    pub names: usize,
    pub name_exponent: f64,
    pub rate_hz: f64,
}

/// Per-operation costs keyed by metric name, each in its metric's unit
/// (µs for crypto and onions, ns for the rest).
#[derive(Default)]
pub struct Costs {
    pub by_metric: BTreeMap<&'static str, f64>,
}

impl Costs {
    pub fn get(&self, name: &str) -> f64 {
        self.by_metric.get(name).copied().unwrap_or(0.0)
    }

    /// Per-call cost in µs of a counted crypto op, where the harness
    /// times one (others fall into the residual).
    pub fn crypto_op_us(&self, op: &str) -> Option<f64> {
        let key = match op {
            "hpke_seal" => "crypto.hpke_seal_us",
            "hpke_open" => "crypto.hpke_open_us",
            "voprf_blind" => "crypto.voprf_blind_us",
            "voprf_evaluate" => "crypto.voprf_evaluate_us",
            "voprf_finalize" => "crypto.voprf_finalize_us",
            "rsa_blind" => "crypto.rsa_blind_us",
            "rsa_sign" => "crypto.rsa_sign_us",
            "rsa_verify" => "crypto.rsa_verify_us",
            _ => return None,
        };
        Some(self.get(key))
    }

    /// Add every per-op cost to the metric map.
    pub fn insert_into(self, m: &mut BTreeMap<String, f64>) {
        m.extend(self.by_metric.into_iter().map(|(k, v)| (k.to_string(), v)));
    }

    /// Σ count × cost over the timed crypto ops, in µs.
    pub fn crypto_busy_us(&self, ops: &BTreeMap<String, u64>) -> f64 {
        ops.iter()
            .filter_map(|(op, &n)| self.crypto_op_us(op).map(|c| c * n as f64))
            .sum()
    }
}

/// Median nanoseconds per call of `f`, over 5 batches sized so each
/// takes about `batch_s` seconds.
fn time_ns(batch_s: f64, mut f: impl FnMut()) -> f64 {
    // Calibrate: double the batch until it takes long enough.
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if stats::secs(t) >= batch_s / 4.0 || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let n = n * 4;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            stats::secs(t) * 1e9 / n as f64
        })
        .collect();
    stats::median(&samples)
}

/// Time every layer function once. `batch_s` sets the length of one
/// timing batch; the whole harness takes about 5 × 19 × `batch_s`.
pub fn measure(sizes: &Sizes, batch_s: f64) -> Costs {
    let mut costs = Costs::default();
    let mut put = |name: &'static str, v: f64| {
        costs.by_metric.insert(name, v);
    };
    let mut rng = StdRng::seed_from_u64(0x1a7e5);
    let msg: Vec<u8> = (0..sizes.msg_bytes.max(1)).map(|i| i as u8).collect();

    // dcp-crypto: HPKE single-shot, VOPRF, blind RSA at the battery's
    // 512-bit modulus.
    let kp = hpke::Keypair::generate(&mut rng);
    let sealed = hpke::seal(&mut rng, &kp.public, b"bench", b"", &msg).expect("hpke seal");
    put(
        "crypto.hpke_seal_us",
        time_ns(batch_s, || {
            black_box(hpke::seal(&mut rng, &kp.public, b"bench", b"", black_box(&msg)).ok());
        }) / 1e3,
    );
    put(
        "crypto.hpke_open_us",
        time_ns(batch_s, || {
            black_box(hpke::open(&kp, b"bench", b"", black_box(&sealed)).ok());
        }) / 1e3,
    );
    let sk = oprf::ServerKey::generate(&mut rng);
    let blinding = oprf::blind(&mut rng, b"token-input");
    let (evaluated, proof) = sk
        .evaluate(&mut rng, &blinding.blinded_element())
        .expect("voprf evaluate");
    put(
        "crypto.voprf_blind_us",
        time_ns(batch_s, || {
            black_box(oprf::blind(&mut rng, black_box(b"token-input")));
        }) / 1e3,
    );
    put(
        "crypto.voprf_evaluate_us",
        time_ns(batch_s, || {
            black_box(sk.evaluate(&mut rng, &blinding.blinded_element()).ok());
        }) / 1e3,
    );
    let server_pk = sk.public_key();
    put(
        "crypto.voprf_finalize_us",
        time_ns(batch_s, || {
            black_box(blinding.finalize(&server_pk, &evaluated, &proof).ok());
        }) / 1e3,
    );
    let rsa_sk = rsa::RsaPrivateKey::generate(&mut rng, 512).expect("rsa keygen");
    let rsa_pk = rsa_sk.public_key().clone();
    let coin = b"coin serial";
    let blinded = rsa_pk.blind(&mut rng, coin).expect("rsa blind");
    let signature = rsa_sk.sign(coin).expect("rsa sign");
    put(
        "crypto.rsa_blind_us",
        time_ns(batch_s, || {
            black_box(rsa_pk.blind(&mut rng, black_box(coin)).ok());
        }) / 1e3,
    );
    put(
        "crypto.rsa_sign_us",
        time_ns(batch_s, || {
            black_box(rsa_sk.blind_sign(black_box(&blinded.blinded_msg)).ok());
        }) / 1e3,
    );
    put(
        "crypto.rsa_verify_us",
        time_ns(batch_s, || {
            black_box(rsa_pk.verify(black_box(coin), &signature).ok());
        }) / 1e3,
    );

    // dcp-transport: framing and two-hop onions; dcp-dns codec.
    let frame = Frame::new(FrameType::Data, msg.clone());
    let encoded = frame.encode().expect("frame encode");
    put(
        "transport.frame_encode_ns",
        time_ns(batch_s, || {
            black_box(black_box(&frame).encode().ok());
        }),
    );
    put(
        "transport.frame_decode_ns",
        time_ns(batch_s, || {
            black_box(FrameRef::decode(black_box(&encoded)).ok());
        }),
    );
    let relays: Vec<hpke::Keypair> = (0..2).map(|_| hpke::Keypair::generate(&mut rng)).collect();
    let mut world = World::new();
    let hops: Vec<onion::Hop> = relays
        .iter()
        .enumerate()
        .map(|(i, r)| onion::Hop {
            addr: i as u16 + 1,
            pk: r.public,
            key_id: world.new_key(&[]),
        })
        .collect();
    let (wrapped, _) = onion::wrap(&mut rng, &hops, &msg, Label::Public).expect("onion wrap");
    put(
        "transport.onion_wrap_us",
        time_ns(batch_s, || {
            black_box(onion::wrap(&mut rng, &hops, black_box(&msg), Label::Public).ok());
        }) / 1e3,
    );
    put(
        "transport.onion_unwrap_us",
        time_ns(batch_s, || {
            black_box(onion::unwrap_layer(&relays[0], black_box(&wrapped)).ok());
        }) / 1e3,
    );
    let query = Message::query(
        7,
        DnsName::parse("www.example.com").expect("static name"),
        RrType::A,
    );
    let query_bytes = query.encode();
    put(
        "dns.encode_ns",
        time_ns(batch_s, || {
            black_box(black_box(&query).encode());
        }),
    );
    put(
        "dns.decode_ns",
        time_ns(batch_s, || {
            black_box(Message::decode(black_box(&query_bytes)).ok());
        }),
    );

    // dcp-core: observing an ODoH-style envelope (identity in the clear,
    // query sealed to a key the observer lacks) into a warm ledger.
    let org = world.add_org("relay-co");
    let user = world.add_user();
    let relay = world.add_entity("Relay", org, None);
    let key = world.new_key(&[]);
    let label = Label::items([
        InfoItem::sensitive_identity(user, IdentityKind::Any),
        InfoItem::plain_data(user, DataKind::DnsQuery),
    ])
    .and(
        Label::items([
            InfoItem::plain_identity(user, IdentityKind::Any),
            InfoItem::partial_data(user, DataKind::DnsQuery),
        ])
        .sealed(key),
    );
    put(
        "core.observe_ns",
        time_ns(batch_s, || {
            black_box(world.observe(relay, black_box(&label)));
        }),
    );

    // dcp-simnet: one pop plus one push at a steady queue depth.
    for (name, load) in [
        ("simnet.wheel_push_pop_ns.small", &sizes.wheel_small),
        ("simnet.wheel_push_pop_ns.large", &sizes.wheel_large),
    ] {
        let Some(load) = load else { continue };
        let delays = &load.delays_us;
        assert!(!delays.is_empty(), "{name}: no measured delays");
        let mut wheel = TimerWheel::new();
        let mut seq = 0u64;
        while (seq as usize) < load.depth.max(1) {
            wheel.push(delays[seq as usize % delays.len()], seq, seq);
            seq += 1;
        }
        put(
            name,
            time_ns(batch_s, || {
                let (t, _, item) = wheel.pop().expect("wheel stays at depth");
                let delay = delays[seq as usize % delays.len()];
                wheel.push(t + delay, seq, black_box(item));
                seq += 1;
            }),
        );
    }

    // dcp-worlds: the popularity and arrival generators.
    if let Some(g) = &sizes.generators {
        let zipf = Zipf::new(g.names.max(1), g.name_exponent).expect("zipf params");
        let poisson = Poisson::new(g.rate_hz);
        let mut split = SplitMix64::new(0x5eed);
        put(
            "worlds.zipf_sample_ns",
            time_ns(batch_s, || {
                black_box(zipf.sample(&mut split));
            }),
        );
        put(
            "worlds.poisson_ns",
            time_ns(batch_s, || {
                black_box(poisson.next_interarrival_us(&mut split));
            }),
        );
    }
    costs
}

/// Write each layer's busy share of `wall_us` and the residual (the part
/// of wall time no timed layer explains; negative when the per-op
/// estimates overshoot).
pub fn busy(m: &mut BTreeMap<String, f64>, wall_us: f64, layers: &[(&str, f64)]) {
    m.insert("busy.wall_s".into(), wall_us / 1e6);
    let mut explained = 0.0;
    for (name, us) in layers {
        m.insert(name.to_string(), stats::ratio(*us, wall_us));
        explained += us;
    }
    m.insert(
        "busy.residual".into(),
        stats::ratio(wall_us - explained, wall_us),
    );
}
