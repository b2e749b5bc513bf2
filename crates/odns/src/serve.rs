//! The ODoH wiring expressed over the production seam: the same four
//! roles the simulator runs (`scenario::odoh`), written as
//! [`dcp_runtime::seam::WireRole`]s so `dcp-serve` can host them over
//! real TCP sockets.
//!
//! ## What is shared with the simulated wiring, and why
//!
//! Knowledge tables are a function of three things: the entity/key
//! layout, key grants, and the labels observed at delivery. All three
//! come from code shared verbatim with the simulator —
//! `scenario::odoh::plan_world` builds the layout and
//! `envelope_label`/`response_label`/`origin_query_label` build the
//! labels — so a loopback serve run's `KnowledgeFingerprint` is
//! byte-identical to its simulated twin's even though the ciphertext
//! bytes on the wire differ (fresh HPKE encapsulations, real RNG
//! interleaving).
//!
//! ## Correlation on the wire
//!
//! The simulator's FIFO pairing (one in-flight query per hop) assumed
//! ordered, lossless, single-threaded delivery. Real sockets interleave,
//! so every leg carries an explicit hop-local sequence number
//! (`dcp_runtime::wire` framing, 8-byte BE prefix) — the same re-keying
//! the recovery path already does in the simulator, for the same reason:
//! a client-scoped counter forwarded in the clear would hand the target
//! a stable cross-query pseudonym, undoing the decoupling. Each hop
//! allocates its own sequence and maps it back on the return path.
//!
//! Every decode on this path is fail-closed: a frame that does not
//! unframe, unseal, or parse is dropped, never answered.

use std::collections::HashMap;

use dcp_core::{DataKind, IdentityKind, InfoItem, KeyId, Label, UserId, World};
use dcp_dns::{DnsName, Message as DnsMessage, RrType, Zone};
use dcp_runtime::seam::{PeerId, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole};
use dcp_runtime::{wire, Control, Endpoint};

use crate::odoh;
use crate::scenario::odoh::{
    envelope_label, origin_query_label, plan_world, response_label, OdohPlan,
};
use crate::scenario::{Odoh, OdohConfig};
use crate::types::{
    AuthOrigin, DnsQuery, ObliviousProxy, ObliviousQuery, ObliviousTarget, SealedQuery, StubClient,
};

/// Fixed peer ids, mirroring the simulator's `NodeId` assignment order
/// (proxy, target, origin, then clients).
const PROXY: PeerId = PeerId(0);
const TARGET: PeerId = PeerId(1);
const ORIGIN: PeerId = PeerId(2);

/// The stub-resolver client: seals queries to the target, addresses them
/// to the proxy, counts an answer only when the response opens against
/// the matching in-flight state.
struct ServeClient {
    user: UserId,
    target_pk: [u8; 32],
    target_key: KeyId,
    queries: Vec<DnsName>,
    inflight: HashMap<u64, odoh::QueryState>,
    next_seq: u64,
    next_id: u16,
    answered: usize,
    total: usize,
}

impl ServeClient {
    fn send_next(&mut self, ctx: &mut WireCtx) {
        let Some(name) = self.queries.pop() else {
            return;
        };
        let q = DnsMessage::query(self.next_id, name, RrType::A);
        self.next_id = self.next_id.wrapping_add(1);
        ctx.crypto_op("hpke_seal");
        let (sealed, state) = odoh::seal_query(ctx.rng, &self.target_pk, &q).expect("seal");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.insert(seq, state);
        let label = envelope_label(self.user, self.target_key);
        ctx.send_to(
            Endpoint::<SealedQuery, Control, ObliviousProxy>::new(PROXY.index()),
            WireMsg::data(wire::frame(seq, &sealed), label),
        );
    }
}

impl WireRole for ServeClient {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        // The client knows its own identity and query content; seed its
        // ledger exactly as the simulated client does.
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::DnsQuery));
        self.send_next(ctx);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        if from != PROXY {
            return;
        }
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        // Consume the state only if a response actually opens against
        // it — a garbled or replayed response must not clobber the call.
        let Some(state) = self.inflight.get(&seq) else {
            return;
        };
        ctx.crypto_op("hpke_open");
        let Ok(resp) = odoh::open_response(state, body) else {
            return;
        };
        if !resp.is_response {
            return;
        }
        self.inflight.remove(&seq);
        self.answered += 1;
        ctx.unit_done();
        self.send_next(ctx);
    }

    fn finished(&self) -> bool {
        self.answered >= self.total
    }
}

/// The oblivious proxy: strips the client-identifying envelope, re-keys
/// the sequence space per hop, and forwards sealed bytes it cannot read.
#[derive(Default)]
struct ServeProxy {
    /// pseq → (client peer, client's seq) for the return path.
    pending: HashMap<u64, (PeerId, u64)>,
    next_pseq: u64,
}

impl WireRole for ServeProxy {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        if from == TARGET {
            // Sealed response coming back: map the hop-local sequence to
            // the waiting client. An unknown sequence is dropped.
            let Some((pseq, body)) = wire::unframe(&msg.payload) else {
                return;
            };
            let Some((client, cseq)) = self.pending.remove(&pseq) else {
                return;
            };
            ctx.send(
                client,
                WireMsg::response(wire::frame(cseq, body), msg.label),
            );
            return;
        }
        // Sealed query from a client. Strip the outer envelope — the
        // target must see only the sealed inner label (same rule as the
        // simulated ProxyNode).
        let inner = match &msg.label {
            Label::Bundle(parts) if parts.len() == 2 => parts[1].clone(),
            other => other.clone(),
        };
        let Some((cseq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let pseq = self.next_pseq;
        self.next_pseq += 1;
        self.pending.insert(pseq, (from, cseq));
        ctx.send_to(
            Endpoint::<ObliviousQuery, Control, ObliviousTarget>::new(TARGET.index()),
            WireMsg::data(wire::frame(pseq, body), inner),
        );
    }
}

/// The oblivious target: opens queries it cannot attribute, recurses to
/// the origin, seals answers to the client's ephemeral response key.
struct ServeTarget {
    kp: dcp_crypto::hpke::Keypair,
    client_resp_key: KeyId,
    subject_of_query: HashMap<String, UserId>,
    /// tseq → (proxy peer, proxy's seq, client response pk, subject).
    pending: HashMap<u64, (PeerId, u64, [u8; 32], UserId)>,
    next_tseq: u64,
}

impl WireRole for ServeTarget {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        if from == ORIGIN {
            let Some((tseq, body)) = wire::unframe(&msg.payload) else {
                return;
            };
            let Ok(resp) = DnsMessage::decode(body) else {
                return;
            };
            let Some((proxy, pseq, resp_pk, user)) = self.pending.remove(&tseq) else {
                return;
            };
            ctx.crypto_op("hpke_seal");
            let Ok(sealed) = odoh::seal_response(ctx.rng, &resp_pk, &resp) else {
                return; // cannot seal: never answer in plaintext
            };
            let label = response_label(user, self.client_resp_key);
            ctx.send(proxy, WireMsg::response(wire::frame(pseq, &sealed), label));
            return;
        }
        // Encapsulated query via the proxy. Undecryptable (tampered or
        // hostile) queries are dropped, never answered.
        let Some((pseq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        ctx.crypto_op("hpke_open");
        let Ok((query, resp_pk)) = odoh::open_query(&self.kp, body) else {
            return;
        };
        let Some(q0) = query.questions.first() else {
            return;
        };
        let Some(&user) = self.subject_of_query.get(&q0.qname.to_string()) else {
            return;
        };
        let tseq = self.next_tseq;
        self.next_tseq += 1;
        self.pending.insert(tseq, (from, pseq, resp_pk, user));
        let label = origin_query_label(user);
        ctx.send_to(
            Endpoint::<DnsQuery, Control, AuthOrigin>::new(ORIGIN.index()),
            WireMsg::data(wire::frame(tseq, &query.encode()), label),
        );
    }
}

/// The authoritative origin: answers from its zone, echoing the target's
/// sequence so the answer pairs with the right waiter.
struct ServeOrigin {
    zone: Zone,
}

impl WireRole for ServeOrigin {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Ok(query) = DnsMessage::decode(body) else {
            return;
        };
        let resp = self.zone.answer(&query);
        // Repeats the query content back to the asker — no *new* subject
        // information, so Public (same rule as the simulated OriginNode).
        ctx.send(
            from,
            WireMsg::response(wire::frame(seq, &resp.encode()), Label::Public),
        );
    }
}

/// Build the servable ODoH wiring: the same world layout, keys, and
/// workload as the simulated run with this `cfg` and `seed` (via the
/// shared `plan_world`), with each role boxed for `dcp-serve`.
///
/// Role order defines peer ids: proxy 0, target 1, origin 2, clients 3+.
pub fn odoh_serve_spec(cfg: &OdohConfig, seed: u64) -> ServeSpec {
    use dcp_core::Scenario;
    let mut world = World::new();
    let OdohPlan {
        proxy_e,
        target_e,
        origin_e,
        backup_entities: _,
        target_kp,
        users,
        client_entities,
        target_key,
        client_resp_key,
        subject_of_query,
        per_client_queries,
        zone,
    } = plan_world(&mut world, cfg, seed, false);
    for &e in &client_entities {
        world.grant_key(e, client_resp_key);
    }

    let mut roles = vec![
        RoleSpec::of::<ObliviousProxy>("proxy", proxy_e, Box::new(ServeProxy::default())),
        RoleSpec::of::<ObliviousTarget>(
            "target",
            target_e,
            Box::new(ServeTarget {
                kp: target_kp.clone(),
                client_resp_key,
                subject_of_query,
                pending: HashMap::new(),
                next_tseq: 0,
            }),
        ),
        RoleSpec::of::<AuthOrigin>("origin", origin_e, Box::new(ServeOrigin { zone })),
    ];
    for (ci, ((&u, &e), queries)) in users
        .iter()
        .zip(client_entities.iter())
        .zip(per_client_queries)
        .enumerate()
    {
        let name = if ci == 0 {
            "client".to_string()
        } else {
            format!("client-{}", ci + 1)
        };
        let total = queries.len();
        roles.push(RoleSpec::of::<StubClient>(
            name,
            e,
            Box::new(ServeClient {
                user: u,
                target_pk: target_kp.public,
                target_key,
                queries,
                inflight: HashMap::new(),
                next_seq: 0,
                next_id: 1,
                answered: 0,
                total,
            }),
        ));
    }

    ServeSpec {
        scenario: Odoh::NAME,
        world,
        roles,
        expected_units: (cfg.clients * cfg.queries_each) as u64,
    }
}
