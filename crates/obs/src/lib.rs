//! # dcp-obs — the standard observability collector
//!
//! `dcp-core` defines the hook ([`ObsSink`]) and the data model
//! ([`MetricsReport`]); this crate provides the standard implementation:
//!
//! * [`MetricsSink`] folds the event stream — wire accounting from the
//!   simulator, fault injections, crypto ops, protocol-phase spans, and
//!   per-entity knowledge accrual — into a [`MetricsReport`];
//! * [`MetricsHandle`] is what a scenario keeps while the `World` (and
//!   the sink inside it) is away inside the simulator, and what it
//!   finalizes the report from afterwards;
//! * [`write_json`] / [`to_json`] export reports as the artifacts
//!   `experiments.rs` drops under `out/`.
//!
//! The intended wiring, used identically by all eight scenario crates:
//!
//! ```
//! use dcp_core::World;
//! use dcp_obs::MetricsHandle;
//!
//! let mut world = World::new();
//! let handle = MetricsHandle::install(&mut world, "demo", 42);
//! world.crypto_op("hpke_seal");
//! world.span("fetch", 0, 250);
//! // … run the simulation, get `world` back …
//! let report = handle.finish(&mut world);
//! assert_eq!(report.crypto_ops["hpke_seal"], 1);
//! assert_eq!(report.span_count("fetch"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use std::collections::BTreeMap;

use dcp_core::obs::{KnowledgeRecord, MetricsReport, ObsEvent, ObsSink, SpanRecord};
use dcp_core::World;

/// The standard collector: aggregates every [`ObsEvent`] into a
/// [`MetricsReport`].
///
/// In **streaming** mode the collector keeps only bounded state: the
/// counter fields, the per-name [`SpanStats`](dcp_core::SpanStats)
/// aggregates (folded in both modes), and a compact per-entity knowledge
/// count table — the itemised `spans` / `knowledge` vectors stay empty.
/// That is what lets a 10⁸-event population run carry a metrics sink
/// without unbounded memory.
#[derive(Debug, Default)]
pub struct MetricsSink {
    report: MetricsReport,
    streaming: bool,
    /// Streaming mode's knowledge table: entity id → accruals. Resolved
    /// to names (into `knowledge_by_entity`) at finalization.
    knowledge_counts: BTreeMap<u64, u64>,
}

impl MetricsSink {
    /// A fresh collector tagged with the scenario name and seed.
    pub fn new(scenario: &str, seed: u64) -> Self {
        MetricsSink {
            report: MetricsReport {
                enabled: true,
                scenario: scenario.to_string(),
                seed,
                ..MetricsReport::default()
            },
            streaming: false,
            knowledge_counts: BTreeMap::new(),
        }
    }

    /// A fresh collector in bounded-memory streaming mode.
    pub fn new_streaming(scenario: &str, seed: u64) -> Self {
        MetricsSink {
            streaming: true,
            ..MetricsSink::new(scenario, seed)
        }
    }

    /// Is this collector folding in streaming (bounded-memory) mode?
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &MetricsReport {
        &self.report
    }

    /// Take the accumulated report, leaving a fresh (still-enabled) one.
    pub fn take_report(&mut self) -> MetricsReport {
        let scenario = self.report.scenario.clone();
        let seed = self.report.seed;
        std::mem::replace(&mut self.report, MetricsSink::new(&scenario, seed).report)
    }

    /// Take the report *and* the streaming knowledge table (empty unless
    /// streaming) — what finalization consumes.
    fn take_parts(&mut self) -> (MetricsReport, BTreeMap<u64, u64>) {
        (
            self.take_report(),
            std::mem::take(&mut self.knowledge_counts),
        )
    }
}

impl ObsSink for MetricsSink {
    fn on_event(&mut self, at_us: u64, event: &ObsEvent) {
        let r = &mut self.report;
        r.sim_end_us = r.sim_end_us.max(at_us);
        match event {
            ObsEvent::MessageSent { bytes, .. } => {
                r.messages_sent += 1;
                r.bytes_sent += *bytes as u64;
            }
            ObsEvent::MessageDelivered { bytes, .. } => {
                r.messages_delivered += 1;
                r.bytes_delivered += *bytes as u64;
            }
            ObsEvent::MessageDropped { .. } => {
                r.messages_dropped += 1;
            }
            ObsEvent::MessageLostToCrash { .. } => {
                r.messages_lost_to_crash += 1;
            }
            ObsEvent::MessageUnserviced { .. } => {
                r.messages_unserviced += 1;
            }
            ObsEvent::FaultInjected { kind } => {
                *r.faults.entry((*kind).to_string()).or_insert(0) += 1;
            }
            ObsEvent::CryptoOp { op } => {
                *r.crypto_ops.entry((*op).to_string()).or_insert(0) += 1;
            }
            ObsEvent::Span {
                name,
                start_us,
                end_us,
            } => {
                r.span_stats
                    .entry((*name).to_string())
                    .or_default()
                    .fold(end_us.saturating_sub(*start_us));
                if !self.streaming {
                    r.spans.push(SpanRecord {
                        name: (*name).to_string(),
                        start_us: *start_us,
                        end_us: *end_us,
                    });
                }
            }
            ObsEvent::Knowledge { entity, item } => {
                if self.streaming {
                    *self.knowledge_counts.entry(entity.0).or_insert(0) += 1;
                } else {
                    r.knowledge.push(KnowledgeRecord {
                        at_us,
                        entity_id: entity.0,
                        entity: String::new(),
                        item: item.clone(),
                    });
                }
            }
            ObsEvent::RecoveryRetry { .. } => {
                r.recovery_retries += 1;
            }
            ObsEvent::RecoveryFailover { .. } => {
                r.recovery_failovers += 1;
            }
            ObsEvent::RecoveryQuarantine { .. } => {
                r.recovery_quarantines += 1;
            }
            ObsEvent::RecoveryGiveUp { .. } => {
                r.recovery_give_ups += 1;
            }
            // Sweep progress arrives in completion order, which is not
            // deterministic under parallel execution — it must never fold
            // into a report.
            ObsEvent::SweepProgress { .. } => {}
        }
    }
}

/// The scenario's grip on an installed [`MetricsSink`]. The `World`
/// shares the same `Arc`, so events emitted while the world is inside the
/// simulator land here. (`Arc<Mutex<…>>` rather than `Rc<RefCell<…>>` so
/// a `World` — and every report embedding one — is `Send`, which the
/// parallel sweep engine relies on; a world and its sink still live on
/// one thread, so the lock is always uncontended.)
#[derive(Clone)]
pub struct MetricsHandle {
    sink: Arc<Mutex<MetricsSink>>,
}

impl MetricsHandle {
    /// Create a collector and install it into `world`.
    pub fn install(world: &mut World, scenario: &str, seed: u64) -> Self {
        let sink = Arc::new(Mutex::new(MetricsSink::new(scenario, seed)));
        world.install_obs(sink.clone());
        MetricsHandle { sink }
    }

    /// Create a streaming (bounded-memory) collector and install it.
    pub fn install_streaming(world: &mut World, scenario: &str, seed: u64) -> Self {
        let sink = Arc::new(Mutex::new(MetricsSink::new_streaming(scenario, seed)));
        world.install_obs(sink.clone());
        MetricsHandle { sink }
    }

    /// Install only if `observe` is set — the standard one-liner at the
    /// top of every `Scenario::run_with`.
    pub fn install_if(world: &mut World, observe: bool, scenario: &str, seed: u64) -> Option<Self> {
        observe.then(|| MetricsHandle::install(world, scenario, seed))
    }

    /// Install only if `observe` is set, in streaming mode if `streaming`
    /// is also set — the runtime harness's entrypoint, fed straight from
    /// `RunOptions { observe, streaming_metrics, .. }`.
    pub fn install_with(
        world: &mut World,
        observe: bool,
        streaming: bool,
        scenario: &str,
        seed: u64,
    ) -> Option<Self> {
        observe.then(|| {
            if streaming {
                MetricsHandle::install_streaming(world, scenario, seed)
            } else {
                MetricsHandle::install(world, scenario, seed)
            }
        })
    }

    /// Finalize: detach the sink from `world`, resolve entity names in
    /// the knowledge timeline (and the streaming knowledge table), and
    /// return the report.
    pub fn finish(&self, world: &mut World) -> MetricsReport {
        world.clear_obs();
        let (mut report, counts) = self
            .sink
            .lock()
            .expect("metrics sink poisoned")
            .take_parts();
        // One pass over the entity list instead of a scan per record —
        // finalization is O(entities + records) even for big worlds.
        let names: BTreeMap<u64, String> = world
            .entities()
            .iter()
            .map(|e| (e.id.0, e.name.clone()))
            .collect();
        let resolve = |id: u64| -> String {
            names
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("entity-{id}"))
        };
        for rec in &mut report.knowledge {
            let name = resolve(rec.entity_id);
            *report.knowledge_by_entity.entry(name.clone()).or_insert(0) += 1;
            rec.entity = name;
        }
        for (id, n) in counts {
            *report.knowledge_by_entity.entry(resolve(id)).or_insert(0) += n;
        }
        report
    }

    /// [`finish`](MetricsHandle::finish) an optional handle (from
    /// [`install_if`](MetricsHandle::install_if)), yielding a disabled
    /// report when no sink was installed.
    pub fn finish_opt(handle: Option<&MetricsHandle>, world: &mut World) -> MetricsReport {
        match handle {
            Some(h) => h.finish(world),
            None => MetricsReport::disabled(),
        }
    }
}

/// Render any report as pretty-printed JSON — the one serializer every
/// artifact in this repository goes through.
///
/// Struct fields serialize in declaration order and every map in the
/// report types is a `BTreeMap`, so two runs of the same code produce
/// key-for-key identical files and `out/` artifacts diff cleanly across
/// commits.
pub fn to_json<T: serde::Serialize>(report: &T) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Write a report to `path` as JSON (newline-terminated), creating
/// parent directories. All artifact writers — `out/metrics/*.json`,
/// `out/experiments_out.json`, the `dst --probe …` outputs — funnel
/// through here.
pub fn write_json<T: serde::Serialize>(report: &T, path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(report).as_bytes())?;
    f.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{DataKind, InfoItem, Label};

    fn demo_world() -> World {
        let mut w = World::new();
        let org = w.add_org("o");
        let user = w.add_user();
        let e = w.add_entity("Resolver", org, None);
        let _ = (user, e);
        w
    }

    #[test]
    fn install_collect_finish() {
        let mut world = demo_world();
        let handle = MetricsHandle::install(&mut world, "demo", 7);
        assert!(world.obs_enabled());

        world.set_obs_now(40);
        world.crypto_op("rsa_sign");
        world.crypto_op("rsa_sign");
        world.span("issue", 10, 40);
        let user = world.users()[0];
        let e = world.entity_by_name("Resolver").id;
        world.observe(
            e,
            &Label::item(InfoItem::plain_data(user, DataKind::DnsQuery)),
        );

        let report = handle.finish(&mut world);
        assert!(!world.obs_enabled(), "finish detaches the sink");
        assert!(report.enabled);
        assert_eq!(report.scenario, "demo");
        assert_eq!(report.seed, 7);
        assert_eq!(report.crypto_ops["rsa_sign"], 2);
        assert_eq!(report.span_count("issue"), 1);
        assert_eq!(report.knowledge.len(), 1);
        assert_eq!(report.knowledge[0].entity, "Resolver");
        assert_eq!(report.knowledge[0].at_us, 40);
        assert_eq!(report.knowledge_by_entity["Resolver"], 1);
        assert_eq!(report.sim_end_us, 40);
    }

    #[test]
    fn install_if_and_finish_opt() {
        let mut world = demo_world();
        let none = MetricsHandle::install_if(&mut world, false, "demo", 1);
        assert!(none.is_none() && !world.obs_enabled());
        let report = MetricsHandle::finish_opt(none.as_ref(), &mut world);
        assert!(!report.enabled);

        let some = MetricsHandle::install_if(&mut world, true, "demo", 1);
        assert!(some.is_some() && world.obs_enabled());
        let report = MetricsHandle::finish_opt(some.as_ref(), &mut world);
        assert!(report.enabled);
    }

    #[test]
    fn json_export_carries_the_catalog() {
        let mut world = demo_world();
        let handle = MetricsHandle::install(&mut world, "demo", 3);
        world.crypto_op("hpke_open");
        world.span("fetch", 5, 25);
        let report = handle.finish(&mut world);
        let json = to_json(&report);
        for needle in [
            "hpke_open",
            "\"scenario\": \"demo\"",
            "messages_sent",
            "knowledge",
            "\"name\": \"fetch\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn streaming_sink_matches_itemised_aggregates_with_bounded_state() {
        let run = |streaming: bool| {
            let mut world = demo_world();
            let handle =
                MetricsHandle::install_with(&mut world, true, streaming, "demo", 9).unwrap();
            let e = world.entity_by_name("Resolver").id;
            for i in 0..50u64 {
                world.set_obs_now(i);
                world.crypto_op("aead_seal");
                world.span("fetch", i, i + 10 + i % 3);
                let user = world.add_user();
                world.record(e, InfoItem::plain_data(user, DataKind::DnsQuery));
            }
            handle.finish(&mut world)
        };
        let full = run(false);
        let lean = run(true);
        // Aggregates agree exactly…
        assert_eq!(lean.crypto_ops, full.crypto_ops);
        assert_eq!(lean.span_stats, full.span_stats);
        assert_eq!(lean.knowledge_by_entity, full.knowledge_by_entity);
        assert_eq!(lean.span_count("fetch"), 50);
        assert_eq!(lean.mean_span_us("fetch"), full.mean_span_us("fetch"));
        assert_eq!(lean.sim_end_us, full.sim_end_us);
        // …while the streaming report holds no per-event vectors.
        assert_eq!(full.spans.len(), 50);
        assert_eq!(full.knowledge.len(), 50);
        assert!(lean.spans.is_empty());
        assert!(lean.knowledge.is_empty());
    }

    #[test]
    fn record_emits_knowledge_once() {
        let mut world = demo_world();
        let handle = MetricsHandle::install(&mut world, "demo", 3);
        let user = world.users()[0];
        let e = world.entity_by_name("Resolver").id;
        let item = InfoItem::sensitive_data(user, DataKind::Payload);
        world.record(e, item.clone());
        world.record(e, item); // already known → no second event
        let report = handle.finish(&mut world);
        assert_eq!(report.knowledge.len(), 1);
    }
}
