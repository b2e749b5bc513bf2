//! `sim_battery`: all nine §3 wirings at the DST probe's configs, each
//! world a recovered calm run plus a recovered `FaultConfig::harsh()`
//! run, fanned out by `ParallelExecutor` one sweep per wiring.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use decoupling::faults::dst::KnowledgeFingerprint;
use decoupling::simnet::PacketRecord;
use decoupling::{
    derive_seed, FaultConfig, MetricsReport, ParallelExecutor, RunOptions, Scenario,
    ScenarioReport, SweepBuilder,
};

use crate::layers::WheelLoad;
use crate::report::Report;
use crate::stats;
use crate::steal::{self, CpuTimes};
use crate::trace::{SpanId, Tracer};

/// Wiring names, in sweep order.
pub const WIRINGS: [&str; 9] = [
    "blindcash",
    "mixnet",
    "privacypass",
    "odoh",
    "pgpp",
    "mpr",
    "ppm",
    "vpn",
    "ech",
];

/// The packet trace of a wiring's report. `Ech`'s report keeps none, so
/// its worlds do not size the wheel.
pub trait Packets {
    fn packets(&self) -> &[PacketRecord];
}

macro_rules! packets_from_trace {
    ($($report:ty),*) => {
        $(impl Packets for $report {
            fn packets(&self) -> &[PacketRecord] {
                self.trace.records()
            }
        })*
    };
}

packets_from_trace!(
    decoupling::blindcash::ScenarioReport,
    decoupling::mixnet::MixnetReport,
    decoupling::privacypass::ScenarioReport,
    decoupling::odns::ScenarioReport,
    decoupling::pgpp::PgppReport,
    decoupling::mpr::ScenarioReport,
    decoupling::ppm::PpmReport,
    decoupling::vpn::VpnReport
);

impl Packets for decoupling::vpn::EchReport {
    fn packets(&self) -> &[PacketRecord] {
        &[]
    }
}

/// Most packets in flight at once: sends and deliveries swept in time
/// order, a delivery before a send at the same instant.
fn inflight_peak(packets: &[PacketRecord]) -> u64 {
    let mut edges: Vec<(u64, i64)> = packets
        .iter()
        .flat_map(|p| [(p.send_time.0, 1), (p.deliver_time.0, -1)])
        .collect();
    edges.sort_unstable();
    let (mut now, mut peak) = (0i64, 0i64);
    for (_, d) in edges {
        now += d;
        peak = peak.max(now);
    }
    peak as u64
}

/// Counts one world's two runs report through `MetricsReport` and their
/// packet traces (traced pass only: the metrics sink is installed only
/// there).
#[derive(Clone, Default)]
pub struct Counts {
    pub calm_sent: u64,
    pub harsh_sent: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub bytes_sent: u64,
    pub knowledge: u64,
    pub crypto: BTreeMap<String, u64>,
    pub retries: u64,
    pub failovers: u64,
    pub give_ups: u64,
    /// Largest number of packets in flight in any run.
    pub inflight_peak: u64,
    /// Every packet's wire delay (deliver − send), µs.
    pub delays_us: Vec<u64>,
}

impl Counts {
    fn add_run(&mut self, m: &MetricsReport, packets: &[PacketRecord]) {
        self.inflight_peak = self.inflight_peak.max(inflight_peak(packets));
        self.delays_us
            .extend(packets.iter().map(|p| p.deliver_time.0 - p.send_time.0));
        self.sent += m.messages_sent;
        self.delivered += m.messages_delivered;
        self.dropped += m.messages_dropped;
        self.bytes_sent += m.bytes_sent;
        self.knowledge += m.knowledge_by_entity.values().sum::<u64>();
        for (op, n) in &m.crypto_ops {
            *self.crypto.entry(op.clone()).or_default() += n;
        }
        self.retries += m.recovery_retries;
        self.failovers += m.recovery_failovers;
        self.give_ups += m.recovery_give_ups;
    }

    fn add(&mut self, o: &Counts) {
        self.calm_sent += o.calm_sent;
        self.harsh_sent += o.harsh_sent;
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.bytes_sent += o.bytes_sent;
        self.knowledge += o.knowledge;
        for (op, n) in &o.crypto {
            *self.crypto.entry(op.clone()).or_default() += n;
        }
        self.retries += o.retries;
        self.failovers += o.failovers;
        self.give_ups += o.give_ups;
        self.inflight_peak = self.inflight_peak.max(o.inflight_peak);
        self.delays_us.extend_from_slice(&o.delays_us);
    }
}

pub struct WorldOutcome {
    pub wiring: &'static str,
    pub calm_ms: f64,
    pub harsh_ms: f64,
    /// `Some(reason)` when the world failed its output check.
    pub failure: Option<String>,
    pub counts: Option<Counts>,
}

impl WorldOutcome {
    pub fn ms(&self) -> f64 {
        self.calm_ms + self.harsh_ms
    }
}

/// One world: calm baseline, then harsh, both with recovery on. The
/// check is the DST completion bar: the harsh run finishes every
/// expected unit and its knowledge tables equal the calm run's.
fn world<S: Scenario>(
    wiring: &'static str,
    cfg: &S::Config,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> WorldOutcome
where
    S::Report: Packets,
{
    let observe = tracer.enabled();
    tracer.span("world", wiring, parent, |id| {
        let run = |phase: &'static str, faults: &FaultConfig| {
            let opts = RunOptions::recovered(faults).observe(observe);
            let t = Instant::now();
            let report = tracer.span(phase, wiring, id, |_| S::run_with(cfg, seed, &opts));
            (report, t.elapsed().as_secs_f64() * 1e3)
        };
        let (calm, calm_ms) = run("calm", &FaultConfig::calm());
        let (harsh, harsh_ms) = run("harsh", &FaultConfig::harsh());

        let mut failure = None;
        for (phase, r) in [("calm", &calm), ("harsh", &harsh)] {
            let done = match r.expected_units() {
                Some(expected) => r.completed_units() == expected,
                None => r.completed(),
            };
            if !done {
                failure = Some(format!(
                    "{wiring} seed {seed}: {phase} run completed {}/{:?} units",
                    r.completed_units(),
                    r.expected_units()
                ));
            }
        }
        if failure.is_none()
            && KnowledgeFingerprint::of(harsh.world()) != KnowledgeFingerprint::of(calm.world())
        {
            failure = Some(format!(
                "{wiring} seed {seed}: harsh knowledge tables differ from the calm baseline"
            ));
        }
        let counts = observe.then(|| {
            let mut c = Counts {
                calm_sent: calm.metrics().messages_sent,
                harsh_sent: harsh.metrics().messages_sent,
                ..Counts::default()
            };
            c.add_run(calm.metrics(), calm.packets());
            c.add_run(harsh.metrics(), harsh.packets());
            c
        });
        WorldOutcome {
            wiring,
            calm_ms,
            harsh_ms,
            failure,
            counts,
        }
    })
}

/// The nine configs (the DST recovery probe's) and the executor.
pub struct Battery {
    blindcash: decoupling::BlindcashConfig,
    mixnet: decoupling::MixnetConfig,
    privacypass: decoupling::PrivacypassConfig,
    odoh: decoupling::OdohConfig,
    pgpp: decoupling::PgppConfig,
    mpr: decoupling::ChainConfig,
    ppm: decoupling::PpmConfig,
    vpn: decoupling::VpnConfig,
    ech: decoupling::EchConfig,
    exec: ParallelExecutor,
    threads: usize,
}

/// One sweep's outcome: its worlds in index order and its wall time
/// (set by the slowest world, since the sweep waits for all of them).
pub struct SweepOutcome {
    pub worlds: Vec<WorldOutcome>,
    pub wall_ms: f64,
}

/// Expand `$m!(index, scenario type, &config)` for each of the nine
/// wirings, in [`WIRINGS`] order.
macro_rules! for_each_wiring {
    ($b:expr, $m:ident) => {
        $m!(0, decoupling::Blindcash, &$b.blindcash);
        $m!(1, decoupling::Mixnet, &$b.mixnet);
        $m!(2, decoupling::Privacypass, &$b.privacypass);
        $m!(3, decoupling::Odoh, &$b.odoh);
        $m!(4, decoupling::Pgpp, &$b.pgpp);
        $m!(5, decoupling::Mpr, &$b.mpr);
        $m!(6, decoupling::Ppm, &$b.ppm);
        $m!(7, decoupling::Vpn, &$b.vpn);
        $m!(8, decoupling::Ech, &$b.ech);
    };
}

impl Battery {
    pub fn new(threads: usize) -> Battery {
        Battery {
            blindcash: decoupling::BlindcashConfig::new(2, 2, 512),
            mixnet: decoupling::MixnetConfig {
                senders: 6,
                mixes: 2,
                batch_size: 3,
                window_us: 100_000,
                shuffle: true,
                chaff_per_sender: 0,
                mix_max_wait_us: None,
                seed: 0,
            },
            privacypass: decoupling::PrivacypassConfig::new(3, 2),
            odoh: decoupling::OdohConfig::new(3, 4),
            pgpp: decoupling::PgppConfig {
                mode: decoupling::pgpp::Mode::Pgpp,
                users: 5,
                cells: 2,
                epochs: 2,
                moves_per_epoch: 2,
                seed: 0,
            },
            mpr: decoupling::ChainConfig {
                relays: 2,
                users: 3,
                fetches_each: 2,
                geohint: false,
                seed: 0,
            },
            ppm: decoupling::PpmConfig {
                clients: 5,
                bits: 4,
                malicious: 0,
                seed: 0,
            },
            vpn: decoupling::VpnConfig::new(3, 2),
            ech: decoupling::EchConfig::default().ech(true),
            exec: ParallelExecutor::with_threads(threads),
            threads,
        }
    }

    /// Run one sweep of `worlds` worlds per wiring. Wiring `i`'s sweep
    /// seeds its worlds from `derive_seed(master, i)`.
    pub fn round(
        &self,
        master: u64,
        worlds: u64,
        tracer: &Tracer,
        parent: SpanId,
    ) -> Vec<SweepOutcome> {
        let mut out = Vec::with_capacity(WIRINGS.len());
        macro_rules! sweep {
            ($i:expr, $ty:ty, $cfg:expr) => {{
                let wiring = WIRINGS[$i];
                let builder = SweepBuilder::new(derive_seed(master, $i))
                    .worlds(worlds)
                    .threads(self.threads);
                let t = Instant::now();
                let run = tracer.span("sweep", wiring, parent, |sid| {
                    builder.run_on(&self.exec, |job| {
                        world::<$ty>(wiring, $cfg, job.seed, tracer, sid)
                    })
                });
                out.push(SweepOutcome {
                    worlds: run.into_results(),
                    wall_ms: t.elapsed().as_secs_f64() * 1e3,
                });
            }};
        }
        for_each_wiring!(self, sweep);
        out
    }
}

/// Worlds per wiring sweep: one per worker thread.
fn worlds_per_sweep(threads: usize) -> u64 {
    threads as u64
}

/// Set-up repetitions timed for `setup_s` after each round.
const SETUP_REPS_PER_ROUND: usize = 5;

/// Untraced run: rounds of nine sweeps until `seconds` have passed.
pub fn run(args: &crate::Args, rep: &mut Report) {
    let threads = args.threads;
    // Set-up: the nine configs and the executor, built and ready to run a
    // sweep. The executor spawns its worker threads when a sweep is
    // dispatched, not when it is built, so one sweep of empty jobs is
    // part of its set-up. (The configs and the executor alone take about
    // 13 ns, too close to the clock's resolution to time steadily.) It
    // is timed a few times after every round, so that its median spans
    // the whole run rather than one moment of the host's scheduler.
    let setup = || {
        crate::setup_samples(SETUP_REPS_PER_ROUND, || {
            let battery = Battery::new(threads);
            SweepBuilder::new(0)
                .worlds(threads as u64)
                .run_on(&battery.exec, |job| black_box(job.seed));
            battery
        })
    };
    let mut setups = setup();
    let battery = Battery::new(threads);
    let tracer = Tracer::new(false);
    let worlds = worlds_per_sweep(threads);
    // Warm-up round, untimed and unchecked: lazy set-up and caches.
    battery.round(
        derive_seed(args.seed, u64::MAX),
        worlds,
        &tracer,
        SpanId::ROOT,
    );

    // Latency is per round — one pass of the whole battery — rather than
    // per world: world times cluster by wiring, and a percentile that
    // falls between two clusters jumps with the mix. Rounds run under
    // hypervisor steal are set aside (see [`steal`]).
    let mut round_ms = Vec::new();
    let mut shares = Vec::new();
    let per_round = worlds * WIRINGS.len() as u64;
    while round_ms.iter().sum::<f64>() < args.seconds * 1e3 {
        let (t, before) = (Instant::now(), CpuTimes::now());
        let master = derive_seed(args.seed, round_ms.len() as u64);
        let sweeps = battery.round(master, worlds, &tracer, SpanId::ROOT);
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        shares.push(before.share_until(CpuTimes::now()));
        for w in sweeps.iter().flat_map(|s| &s.worlds) {
            rep.check(w.failure.clone());
        }
        setups.extend(setup());
    }
    let quiet: Vec<f64> = steal::quiet(&shares)
        .into_iter()
        .map(|i| round_ms[i])
        .collect();
    let throughput = |ms: &[f64]| {
        stats::ratio(
            (per_round * ms.len() as u64) as f64,
            ms.iter().sum::<f64>() / 1e3,
        )
    };
    let (p50, p90) = (stats::median(&quiet), stats::quantile(&quiet, 0.9));
    rep.metric("throughput_per_s", throughput(&quiet), "1/s");
    rep.metric("latency_p50_ms", p50, "ms");
    rep.metric("latency_p90_ms", p90, "ms");
    rep.metric("setup_s", stats::median(&setups), "s");
    rep.alias(
        "sim.worlds_per_s",
        format!(
            "{:.2} worlds/s over {} quiet of {} rounds, {threads} threads (all rounds: {:.2} worlds/s)",
            throughput(&quiet),
            quiet.len(),
            round_ms.len(),
            throughput(&round_ms)
        ),
    );
    rep.alias(
        "sim.round_ms",
        format!(
            "p50 {p50:.2} ms, p90 {p90:.2} ms per battery round of {per_round} worlds over the quiet rounds \
             (all rounds: p50 {:.2} ms, p90 {:.2} ms)",
            stats::median(&round_ms),
            stats::quantile(&round_ms, 0.9)
        ),
    );
    rep.alias("steal", steal::describe(&shares));
}

/// Traced run: one fixed battery untraced, then the same seeds traced
/// with the metrics sink installed. Counts come from the traced pass,
/// times from the untraced one (the runs are deterministic, so the two
/// passes do identical work).
pub fn run_traced(args: &crate::Args, rep: &mut Report, tracer: &Tracer) -> BTreeMap<String, f64> {
    let threads = args.threads;
    let battery = Battery::new(threads);
    let worlds = worlds_per_sweep(threads);
    let rounds = if args.smoke { 1 } else { 12 };
    let off = Tracer::new(false);
    battery.round(derive_seed(args.seed, u64::MAX), worlds, &off, SpanId::ROOT);

    // Untraced and traced rounds alternate, so both see the same warm
    // state and any drift in machine load.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut wall_plain, mut wall_traced) = (0.0, 0.0);
    for r in 0..rounds {
        let master = derive_seed(args.seed, r);
        let t = Instant::now();
        plain.extend(battery.round(master, worlds, &off, SpanId::ROOT));
        wall_plain += stats::secs(t);
        let t = Instant::now();
        traced.extend(tracer.span("round", "sim_battery", SpanId::ROOT, |id| {
            battery.round(master, worlds, tracer, id)
        }));
        wall_traced += stats::secs(t);
    }
    for w in traced.iter().flat_map(|s| &s.worlds) {
        rep.check(w.failure.clone());
    }

    let mut m = BTreeMap::new();
    let plain_worlds: Vec<&WorldOutcome> = plain.iter().flat_map(|s| &s.worlds).collect();
    let n = plain_worlds.len() as f64;
    let busy_ms: f64 = plain_worlds.iter().map(|w| w.ms()).sum();
    let sweep_ms: f64 = plain.iter().map(|s| s.wall_ms).sum();
    for wiring in WIRINGS {
        let of = |phase: fn(&WorldOutcome) -> f64| -> Vec<f64> {
            plain_worlds
                .iter()
                .filter(|w| w.wiring == wiring)
                .map(|w| phase(w))
                .collect()
        };
        m.insert(
            format!("sweep.world_ms.{wiring}.calm"),
            stats::median(&of(|w| w.calm_ms)),
        );
        m.insert(
            format!("sweep.world_ms.{wiring}.harsh"),
            stats::median(&of(|w| w.harsh_ms)),
        );
    }
    m.insert(
        "sweep.utilization".into(),
        stats::ratio(busy_ms, threads as f64 * sweep_ms),
    );
    let calm_ms: f64 = plain_worlds.iter().map(|w| w.calm_ms).sum();
    let harsh_ms: f64 = plain_worlds.iter().map(|w| w.harsh_ms).sum();
    m.insert(
        "recover.harsh_calm_time_ratio".into(),
        stats::ratio(harsh_ms, calm_ms),
    );
    m.insert(
        "obs.trace_overhead".into(),
        stats::ratio(wall_traced, wall_plain),
    );

    let mut c = Counts::default();
    for w in traced.iter().flat_map(|s| &s.worlds) {
        c.add(w.counts.as_ref().expect("traced worlds carry counts"));
    }
    let per_world = |x: u64| stats::ratio(x as f64, n);
    for op in crate::layers::CRYPTO_OPS {
        let k = c.crypto.get(op).copied().unwrap_or(0);
        m.insert(format!("crypto.ops.{op}"), per_world(k));
    }
    m.insert("simnet.messages_sent".into(), per_world(c.sent));
    m.insert("simnet.messages_delivered".into(), per_world(c.delivered));
    m.insert("simnet.messages_dropped".into(), per_world(c.dropped));
    m.insert("core.knowledge_events".into(), per_world(c.knowledge));
    m.insert("transport.bytes_per_unit".into(), per_world(c.bytes_sent));
    m.insert("recover.retries_per_world".into(), per_world(c.retries));
    m.insert("recover.failovers_per_world".into(), per_world(c.failovers));
    m.insert("recover.give_ups_per_world".into(), per_world(c.give_ups));
    m.insert(
        "recover.msg_amplification".into(),
        stats::ratio(c.harsh_sent as f64, c.calm_sent as f64),
    );

    // The dcp-worlds layer and the wheel at population depth have no
    // gated workload of their own (see README.md): one round of
    // population worlds is measured here.
    // Those worlds are not this workload's units: their checks fail the
    // run but stay out of its tally.
    let pop = crate::population::Rounds::run(args, tracer);
    pop.insert_worlds_metrics(&mut m);
    let (mut pop_worlds, mut pop_failed) = (0, 0);
    for failure in pop.failures() {
        pop_worlds += 1;
        if let Some(reason) = failure {
            pop_failed += 1;
            rep.side_failure(format!("population layer probe: {reason}"));
        }
    }
    rep.alias(
        "population.check",
        format!(
            "{pop_failed} of {pop_worlds} population worlds (the dcp-worlds layer probe, \
             not counted as sim_battery units) failed their check"
        ),
    );

    // The battery's wheel is sized from its own packet traces: the
    // largest number of packets in flight, each push replaying a
    // measured wire delay.
    m.insert("simnet.inflight_peak".into(), c.inflight_peak as f64);
    let msg_bytes = stats::ratio(c.bytes_sent as f64, c.sent as f64) as usize;
    let battery_wheel = WheelLoad {
        depth: c.inflight_peak as usize,
        delays_us: std::mem::take(&mut c.delays_us),
    };
    let costs = crate::layers::measure(&pop.sizes(msg_bytes, Some(battery_wheel)), args.batch_s());
    // Busy time against the workers' summed world time (thread-seconds).
    let wall_us = busy_ms * 1e3;
    let crypto_us = costs.crypto_busy_us(&c.crypto);
    let simnet_us = c.sent as f64 * costs.get("simnet.wheel_push_pop_ns.small") / 1e3;
    let core_us = c.delivered as f64 * costs.get("core.observe_ns") / 1e3;
    let transport_us = c.delivered as f64
        * (costs.get("transport.frame_encode_ns") + costs.get("transport.frame_decode_ns"))
        / 1e3;
    crate::layers::busy(
        &mut m,
        wall_us,
        &[
            ("busy.crypto", crypto_us),
            ("busy.simnet", simnet_us),
            ("busy.core", core_us),
            ("busy.transport", transport_us),
        ],
    );
    costs.insert_into(&mut m);
    m
}
