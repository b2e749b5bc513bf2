//! `serve_odoh`: ODoH served over real loopback TCP by `dcp-serve`, a
//! closed loop of two stub-resolver clients with one query outstanding
//! each. A `WireRole` decorator around the spec's roles times every
//! callback; the served knowledge tables are held to the simulated
//! twin's, the check `dcp serve odoh` makes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcp_serve::{run_loopback, ServeConfig};
use decoupling::faults::dst::KnowledgeFingerprint;
use decoupling::odns::serve::odoh_serve_spec;
use decoupling::runtime::seam::{PeerId, RoleSpec, WireCtx, WireMsg, WireRole};
use decoupling::{
    derive_seed, MetricsHandle, MetricsReport, Odoh, OdohConfig, Scenario, ScenarioReport,
};

use crate::report::Report;
use crate::stats;
use crate::steal::{self, CpuTimes};
use crate::trace::{SpanId, Tracer};

/// Client roles in the closed loop.
const CLIENTS: usize = 2;

/// Role kinds, indexed as in [`kind_of`].
const KINDS: [&str; 4] = ["client", "proxy", "target", "origin"];

fn kind_of(role_name: &str) -> usize {
    match role_name {
        "proxy" => 1,
        "target" => 2,
        "origin" => 3,
        _ => 0,
    }
}

/// What the decorators of one loopback run observe.
#[derive(Default)]
struct Probe {
    /// Per-query round trips seen by the clients, ms.
    latencies_ms: Mutex<Vec<f64>>,
    /// First query sent, first reply consumed, last reply consumed.
    window: Mutex<(Option<Instant>, Option<Instant>, Option<Instant>)>,
    calls: [AtomicU64; 4],
    self_ns: [AtomicU64; 4],
    bytes_in: AtomicU64,
}

/// The timing decorator. Clients measure each query's round trip: from
/// the end of the callback that sent it to the end of the callback that
/// consumed its reply (which opens the reply and seals the next query —
/// one closed-loop cycle). With `traced`, every callback's self time is
/// counted per role kind and recorded as a span.
struct Timed {
    inner: Box<dyn WireRole>,
    kind: usize,
    traced: bool,
    probe: Arc<Probe>,
    tracer: Arc<Tracer>,
    parent: SpanId,
    last_exit: Option<Instant>,
}

impl WireRole for Timed {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        self.inner.on_start(ctx);
        if self.kind == 0 {
            let now = Instant::now();
            self.last_exit = Some(now);
            let mut w = self.probe.window.lock().expect("probe lock");
            w.0 = Some(w.0.map_or(now, |t| t.min(now)));
        }
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let bytes = msg.payload.len() as u64;
        let start = Instant::now();
        self.inner.on_frame(ctx, from, msg);
        let end = Instant::now();
        if self.traced {
            let k = self.kind;
            self.probe.calls[k].fetch_add(1, Ordering::Relaxed);
            let ns = end.duration_since(start).as_nanos() as u64;
            self.probe.self_ns[k].fetch_add(ns, Ordering::Relaxed);
            self.probe.bytes_in.fetch_add(bytes, Ordering::Relaxed);
            self.tracer
                .record("on_frame", KINDS[k], self.parent, start, end);
        }
        if self.kind == 0 {
            if let Some(prev) = self.last_exit {
                let ms = end.duration_since(prev).as_secs_f64() * 1e3;
                self.probe.latencies_ms.lock().expect("probe lock").push(ms);
            }
            self.last_exit = Some(end);
            let mut w = self.probe.window.lock().expect("probe lock");
            w.1.get_or_insert(end);
            w.2 = Some(end);
        }
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

/// One loopback run's result.
struct RunOut {
    setup_s: f64,
    active_s: f64,
    latencies_ms: Vec<f64>,
    answered: u64,
    expected: u64,
    failure: Option<String>,
    probe: Arc<Probe>,
    metrics: Option<MetricsReport>,
}

/// The workload: `CLIENTS` clients, `queries_each` queries each, on a
/// spec seed derived from the benchmark seed; plus the simulated twin's
/// knowledge tables the served run must reproduce.
struct Workload {
    cfg: OdohConfig,
    spec_seed: u64,
    twin: KnowledgeFingerprint,
}

impl Workload {
    fn new(seed: u64, queries_each: usize) -> Workload {
        let cfg = OdohConfig::new(CLIENTS, queries_each);
        let spec_seed = derive_seed(seed, 0);
        let twin = KnowledgeFingerprint::of(Odoh::run(&cfg, spec_seed).world());
        Workload {
            cfg,
            spec_seed,
            twin,
        }
    }

    /// Build the spec, wrap its roles (clients always, every role when
    /// `traced`), serve it over loopback TCP and check the outcome.
    fn run(&self, traced: bool, tracer: &Arc<Tracer>, parent: SpanId) -> RunOut {
        let probe = Arc::new(Probe::default());
        let t0 = Instant::now();
        let result = tracer.span("loopback", "serve_odoh", parent, |id| {
            let mut spec = odoh_serve_spec(&self.cfg, self.spec_seed);
            let handle =
                traced.then(|| MetricsHandle::install(&mut spec.world, Odoh::NAME, self.spec_seed));
            spec.roles = spec
                .roles
                .into_iter()
                .map(|rs| {
                    let RoleSpec {
                        name,
                        entity,
                        kind,
                        role,
                    } = rs;
                    let k = kind_of(&name);
                    let role: Box<dyn WireRole> = if k == 0 || traced {
                        Box::new(Timed {
                            inner: role,
                            kind: k,
                            traced,
                            probe: probe.clone(),
                            tracer: tracer.clone(),
                            parent: id,
                            last_exit: None,
                        })
                    } else {
                        role
                    };
                    RoleSpec {
                        name,
                        entity,
                        kind,
                        role,
                    }
                })
                .collect();
            let serve_cfg = ServeConfig {
                seed: self.spec_seed,
                deadline: Duration::from_secs(60),
                ..ServeConfig::default()
            };
            run_loopback(spec, &serve_cfg).map(|mut outcome| {
                let metrics = handle.map(|h| h.finish(&mut outcome.world));
                (outcome, metrics)
            })
        });
        let expected = (self.cfg.clients * self.cfg.queries_each) as u64;
        let (answered, failure, metrics) = match result {
            Err(e) => (0, Some(format!("serve failed: {e}")), None),
            Ok((outcome, metrics)) => {
                let failure = if !outcome.complete() {
                    Some(format!(
                        "run incomplete: {}/{} queries answered",
                        outcome.completed_units, outcome.expected_units
                    ))
                } else if KnowledgeFingerprint::of(&outcome.world) != self.twin {
                    Some("served knowledge tables differ from the simulated twin".to_string())
                } else {
                    None
                };
                (outcome.completed_units, failure, metrics)
            }
        };
        let (first_send, first_reply, last_reply) = *probe.window.lock().expect("probe lock");
        let since = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let latencies_ms = std::mem::take(&mut *probe.latencies_ms.lock().expect("probe lock"));
        RunOut {
            setup_s: since(Some(t0), first_reply),
            active_s: since(first_send, last_reply),
            latencies_ms,
            answered,
            expected,
            failure,
            probe,
            metrics,
        }
    }
}

fn queries_each(smoke: bool) -> usize {
    if smoke {
        10
    } else {
        250
    }
}

/// A failed run counts every query it did not answer — or all of them
/// when its knowledge tables are wrong.
fn tally(rep: &mut Report, out: &RunOut) {
    let failed = match &out.failure {
        None => 0,
        Some(_) if out.answered == out.expected => out.expected,
        Some(_) => out.expected - out.answered.min(out.expected),
    };
    rep.tally(out.expected, failed, out.failure.clone());
}

/// Untraced run: loopback runs until `seconds` have passed.
///
/// Every query of the engine pays a thread wake-up at each hop, so the
/// served rate falls steeply under hypervisor steal (see [`steal`]): the
/// figures come from the loopback runs the host left quiet. The figures
/// over every loopback run are printed as `#` lines.
pub fn run(args: &crate::Args, rep: &mut Report) {
    let work = Workload::new(args.seed, queries_each(args.smoke));
    let off = Arc::new(Tracer::new(false));
    // Warm-up run, untimed: lazy set-up, allocator and socket caches.
    work.run(false, &off, SpanId::ROOT);

    let started = Instant::now();
    let (mut outs, mut shares) = (Vec::new(), Vec::new());
    while stats::secs(started) < args.seconds {
        let before = CpuTimes::now();
        let out = work.run(false, &off, SpanId::ROOT);
        shares.push(before.share_until(CpuTimes::now()));
        tally(rep, &out);
        outs.push(out);
    }
    let figures = |runs: &[&RunOut]| {
        let answered: u64 = runs.iter().map(|o| o.answered).sum();
        let active: f64 = runs.iter().map(|o| o.active_s).sum();
        let latencies: Vec<f64> = runs.iter().flat_map(|o| o.latencies_ms.clone()).collect();
        (
            stats::ratio(answered as f64, active),
            stats::median(&latencies),
            stats::quantile(&latencies, 0.9),
            latencies.len(),
        )
    };
    let quiet: Vec<&RunOut> = steal::quiet(&shares)
        .into_iter()
        .map(|i| &outs[i])
        .collect();
    let all: Vec<&RunOut> = outs.iter().collect();
    let (qps, p50, p90, n) = figures(&quiet);
    let (all_qps, all_p50, all_p90, all_n) = figures(&all);
    let setups: Vec<f64> = outs.iter().map(|o| o.setup_s).collect();
    rep.metric("throughput_per_s", qps, "1/s");
    rep.metric("latency_p50_ms", p50, "ms");
    rep.metric("latency_p90_ms", p90, "ms");
    rep.metric("setup_s", stats::median(&setups), "s");
    rep.alias(
        "serve.qps",
        format!(
            "{qps:.1} queries/s over {} quiet of {} loopback runs of {} queries \
             (all runs: {all_qps:.1} queries/s)",
            quiet.len(),
            outs.len(),
            CLIENTS * queries_each(args.smoke)
        ),
    );
    rep.alias(
        "serve.query_ms",
        format!(
            "p50 {p50:.3} ms, p90 {p90:.3} ms over {n} queries \
             (all runs: p50 {all_p50:.3} ms, p90 {all_p90:.3} ms over {all_n} queries)"
        ),
    );
    rep.alias("steal", steal::describe(&shares));
}

/// Traced run: a fixed number of loopback runs with only the client
/// probes, then the same number with every role decorated, spans
/// recorded and the metrics sink on the shared world.
pub fn run_traced(
    args: &crate::Args,
    rep: &mut Report,
    tracer: &Arc<Tracer>,
) -> BTreeMap<String, f64> {
    let work = Workload::new(args.seed, queries_each(args.smoke));
    let runs = if args.smoke { 1 } else { 3 };
    let off = Arc::new(Tracer::new(false));
    work.run(false, &off, SpanId::ROOT);

    let plain: Vec<RunOut> = (0..runs)
        .map(|_| work.run(false, &off, SpanId::ROOT))
        .collect();
    let traced: Vec<RunOut> = tracer.span("serve", "serve_odoh", SpanId::ROOT, |id| {
        (0..runs).map(|_| work.run(true, tracer, id)).collect()
    });
    for out in &traced {
        tally(rep, out);
    }

    let per_query_s = |outs: &[RunOut]| {
        let active: f64 = outs.iter().map(|o| o.active_s).sum();
        let answered: u64 = outs.iter().map(|o| o.answered).sum();
        stats::ratio(active, answered as f64)
    };
    let mut m = BTreeMap::new();
    m.insert(
        "obs.trace_overhead".into(),
        stats::ratio(per_query_s(&traced), per_query_s(&plain)),
    );
    let plain_lat: Vec<f64> = plain.iter().flat_map(|o| o.latencies_ms.clone()).collect();
    m.insert(
        "serve.query_p99_ms".into(),
        stats::quantile(&plain_lat, 0.99),
    );

    let queries: u64 = traced.iter().map(|o| o.answered).sum();
    let q = queries as f64;
    let sum = |f: &dyn Fn(&Probe) -> u64| traced.iter().map(|o| f(&o.probe)).sum::<u64>() as f64;
    let mut handler_ns = 0.0;
    let mut deliveries = 0.0;
    for (k, kind) in KINDS.iter().enumerate() {
        let calls = sum(&|p| p.calls[k].load(Ordering::Relaxed));
        let ns = sum(&|p| p.self_ns[k].load(Ordering::Relaxed));
        m.insert(
            format!("serve.handler_us.{kind}"),
            stats::ratio(ns, calls) / 1e3,
        );
        handler_ns += ns;
        deliveries += calls;
    }
    let bytes = sum(&|p| p.bytes_in.load(Ordering::Relaxed));
    let traced_lat: Vec<f64> = traced.iter().flat_map(|o| o.latencies_ms.clone()).collect();
    let latency_us = stats::ratio(traced_lat.iter().sum(), traced_lat.len() as f64) * 1e3;
    let handler_us = stats::ratio(handler_ns, q) / 1e3;
    let per_delivery = stats::ratio(deliveries, q);
    m.insert("serve.engine_us_per_query".into(), latency_us - handler_us);
    m.insert("serve.deliveries_per_query".into(), per_delivery);
    m.insert("transport.bytes_per_unit".into(), stats::ratio(bytes, q));

    let mut ops: BTreeMap<String, u64> = BTreeMap::new();
    let mut knowledge = 0u64;
    for report in traced.iter().filter_map(|o| o.metrics.as_ref()) {
        for (op, n) in &report.crypto_ops {
            *ops.entry(op.clone()).or_default() += n;
        }
        knowledge += report.knowledge_by_entity.values().sum::<u64>();
    }
    for op in crate::layers::CRYPTO_OPS {
        let n = ops.get(op).copied().unwrap_or(0);
        m.insert(format!("crypto.ops.{op}"), stats::ratio(n as f64, q));
    }
    m.insert(
        "core.knowledge_events".into(),
        stats::ratio(knowledge as f64, q),
    );

    let costs = crate::layers::measure(
        // The loopback engine runs no timer wheel and no population
        // generators; only the message size is this workload's.
        &crate::layers::Sizes {
            msg_bytes: stats::ratio(bytes, deliveries) as usize,
            wheel_small: None,
            wheel_large: None,
            generators: None,
        },
        args.batch_s(),
    );
    // Busy time along one query's blocking path, against its mean round
    // trip; the residual is the engine (polling, sockets, queueing).
    let crypto_us = stats::ratio(costs.crypto_busy_us(&ops), q);
    let core_us = per_delivery * costs.get("core.observe_ns") / 1e3;
    let transport_us = per_delivery
        * (costs.get("transport.frame_encode_ns") + costs.get("transport.frame_decode_ns"))
        / 1e3;
    crate::layers::busy(
        &mut m,
        latency_us,
        &[
            ("busy.crypto", crypto_us),
            ("busy.handlers", handler_us - crypto_us),
            ("busy.core", core_us),
            ("busy.transport", transport_us),
        ],
    );
    costs.insert_into(&mut m);
    m
}
