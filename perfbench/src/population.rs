//! `population`: the `dcp-worlds` engine on the `odoh` topology — 10⁵
//! users with Poisson arrivals and Zipf-popular names, about one pending
//! arrival per user on the timer wheel. No crypto, no itemised ledger.
//! Worlds run one per worker thread, fanned out by `ParallelExecutor`:
//! with every core busy the memory system is equally loaded in every run,
//! whereas one world at a time on the 2-vCPU reference host read from 5.3
//! to 7.2 M events/s across ten seeds, with what its neighbours did.

use std::collections::BTreeMap;
use std::time::Instant;

use decoupling::worlds::{Engine, Poisson, PopReport, SplitMix64, Topology, WorldSpec};
use decoupling::{derive_seed, ParallelExecutor, SweepBuilder};

use crate::layers::{Generators, Sizes, WheelLoad};
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Users in a full-size world.
const USERS: usize = 100_000;

/// Events per timed `run_until_events` chunk.
const CHUNK: u64 = 1 << 17;

fn spec(smoke: bool) -> WorldSpec {
    let users = if smoke { 5_000 } else { USERS as u64 };
    WorldSpec::new()
        .users(users)
        .names(10_000)
        .rate_hz(0.5)
        .duration_us(10_000_000)
}

/// The full-size spec's name and arrival generators.
fn generators() -> Generators {
    let s = spec(false);
    Generators {
        names: s.names as usize,
        name_exponent: s.name_exponent,
        rate_hz: s.rate_hz,
    }
}

struct WorldOut {
    setup_s: f64,
    run_s: f64,
    /// Wall time of each full chunk, ms.
    chunk_ms: Vec<f64>,
    pending_peak: usize,
    report: PopReport,
    failure: Option<String>,
}

/// Build one world (timed as set-up), run it to quiescence in fixed
/// chunks, and check every query sent was answered.
fn world(spec: &WorldSpec, seed: u64, tracer: &Tracer, parent: SpanId) -> WorldOut {
    tracer.span("world", "population", parent, |id| {
        let t = Instant::now();
        let mut engine = tracer
            .span("setup", "population", id, |_| {
                Engine::new(spec, &Topology::odoh(), seed)
            })
            .expect("population spec is valid");
        let setup_s = stats::secs(t);
        let mut pending_peak = engine.pending();
        let mut chunk_ms = Vec::new();
        let t = Instant::now();
        loop {
            let start = Instant::now();
            let before = engine.events_processed();
            let done = engine.run_until_events(before + CHUNK);
            let end = Instant::now();
            tracer.record("chunk", "population", id, start, end);
            if engine.events_processed() - before == CHUNK {
                chunk_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
            }
            pending_peak = pending_peak.max(engine.pending());
            if done {
                break;
            }
        }
        let run_s = stats::secs(t);
        let report = engine.report();
        let failure = (report.queries_answered != report.queries_sent).then(|| {
            format!(
                "population seed {seed}: {}/{} queries answered",
                report.queries_answered, report.queries_sent
            )
        });
        WorldOut {
            setup_s,
            run_s,
            chunk_ms,
            pending_peak,
            report,
            failure,
        }
    })
}

/// One round: a world per worker thread, fanned out by the executor
/// and seeded from `master`. Returns the worlds and the round's wall time.
fn round(
    spec: &WorldSpec,
    master: u64,
    exec: &ParallelExecutor,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> (Vec<WorldOut>, f64) {
    let t = Instant::now();
    let worlds = SweepBuilder::new(master)
        .worlds(threads as u64)
        .run_on(exec, |job| world(spec, job.seed, tracer, parent))
        .into_results();
    (worlds, stats::secs(t))
}

/// Untraced run: rounds until `seconds` have passed, after one untimed
/// round of small warm-up worlds.
pub fn run(args: &crate::Args, rep: &mut Report) {
    let world_spec = spec(args.smoke);
    let exec = ParallelExecutor::with_threads(args.threads);
    let off = Tracer::new(false);
    let warm_up = derive_seed(args.seed, u64::MAX);
    round(
        &spec(true),
        warm_up,
        &exec,
        args.threads,
        &off,
        SpanId::ROOT,
    );

    let started = Instant::now();
    let (mut chunks, mut setups) = (Vec::new(), Vec::new());
    let (mut events, mut wall) = (0u64, 0.0);
    let mut r = 0;
    while stats::secs(started) < args.seconds {
        let master = derive_seed(args.seed, r);
        let (worlds, round_s) = round(&world_spec, master, &exec, args.threads, &off, SpanId::ROOT);
        r += 1;
        wall += round_s;
        for out in worlds {
            rep.check(out.failure);
            chunks.extend_from_slice(&out.chunk_ms);
            setups.push(out.setup_s);
            events += out.report.events;
        }
    }
    let eps = stats::ratio(events as f64, wall);
    rep.metric("throughput_per_s", eps, "1/s");
    rep.metric("latency_p50_ms", stats::median(&chunks), "ms");
    rep.metric("latency_p90_ms", stats::quantile(&chunks, 0.9), "ms");
    rep.metric("setup_s", stats::median(&setups), "s");
    rep.alias(
        "pop.events_per_s",
        format!(
            "{eps:.0} events/s ({events} events over {} worlds of {} users, {} at a time)",
            setups.len(),
            world_spec.users,
            args.threads
        ),
    );
    rep.alias(
        "pop.chunk_ms",
        format!(
            "p50 {:.3} ms, p90 {:.3} ms per {CHUNK}-event chunk",
            stats::median(&chunks),
            stats::quantile(&chunks, 0.9)
        ),
    );
}

/// One round of full-size worlds untraced, then the same round traced
/// (a span per world, set-up and chunk). The caller tallies the checks of
/// the traced worlds ([`Rounds::failures`]).
pub struct Rounds {
    plain: Vec<WorldOut>,
    traced: Vec<WorldOut>,
    wall_plain: f64,
    wall_traced: f64,
}

impl Rounds {
    pub fn run(args: &crate::Args, tracer: &Tracer) -> Rounds {
        let world_spec = spec(args.smoke);
        let exec = ParallelExecutor::with_threads(args.threads);
        let off = Tracer::new(false);
        let warm_up = derive_seed(args.seed, u64::MAX);
        round(
            &spec(true),
            warm_up,
            &exec,
            args.threads,
            &off,
            SpanId::ROOT,
        );
        let master = derive_seed(args.seed, 0);
        let (plain, wall_plain) =
            round(&world_spec, master, &exec, args.threads, &off, SpanId::ROOT);
        let (traced, wall_traced) = tracer.span("round", "population", SpanId::ROOT, |id| {
            round(&world_spec, master, &exec, args.threads, tracer, id)
        });
        Rounds {
            plain,
            traced,
            wall_plain,
            wall_traced,
        }
    }

    /// The check outcome of each traced world.
    pub fn failures(&self) -> impl Iterator<Item = &Option<String>> {
        self.traced.iter().map(|w| &w.failure)
    }

    /// Largest number of pending events any traced world reached.
    pub fn pending_peak(&self) -> usize {
        self.traced
            .iter()
            .map(|w| w.pending_peak)
            .max()
            .unwrap_or(0)
    }

    /// The wheel load of a full-size world: its measured pending peak,
    /// each push delayed by a draw from the spec's Poisson arrival
    /// process (one pending arrival per user is most of that peak).
    pub fn wheel_load(&self) -> WheelLoad {
        let poisson = Poisson::new(generators().rate_hz);
        let mut rng = SplitMix64::new(0xa771);
        let delays_us = (0..4096)
            .filter_map(|_| poisson.next_interarrival_us(&mut rng))
            .collect();
        WheelLoad {
            depth: self.pending_peak(),
            delays_us,
        }
    }

    /// The population layers' per-op input sizes: no message size of its
    /// own (`msg_bytes` is the caller's), the wheel and the generators.
    pub fn sizes(&self, msg_bytes: usize, wheel_small: Option<WheelLoad>) -> Sizes {
        Sizes {
            msg_bytes,
            wheel_small,
            wheel_large: Some(self.wheel_load()),
            generators: Some(generators()),
        }
    }

    fn total(&self, f: fn(&PopReport) -> u64) -> f64 {
        self.traced.iter().map(|w| f(&w.report)).sum::<u64>() as f64
    }

    /// The `dcp-worlds` layer metrics: chunk rates of the untraced round,
    /// per-world counts of the traced one.
    pub fn insert_worlds_metrics(&self, m: &mut BTreeMap<String, f64>) {
        let eps: Vec<f64> = self
            .plain
            .iter()
            .flat_map(|w| &w.chunk_ms)
            .map(|ms| CHUNK as f64 / (ms / 1e3))
            .collect();
        m.insert("worlds.chunk_events_per_s.p50".into(), stats::median(&eps));
        let min = if eps.is_empty() {
            0.0
        } else {
            stats::min(&eps)
        };
        m.insert("worlds.chunk_events_per_s.min".into(), min);
        let n = self.traced.len() as f64;
        m.insert("worlds.pending_peak".into(), self.pending_peak() as f64);
        m.insert("worlds.queries".into(), self.total(|r| r.queries_sent) / n);
        m.insert("worlds.messages".into(), self.total(|r| r.messages) / n);
    }
}

/// Traced run: [`Rounds`], then the generator and wheel timings at the
/// worlds' depth.
pub fn run_traced(args: &crate::Args, rep: &mut Report, tracer: &Tracer) -> BTreeMap<String, f64> {
    let rounds = Rounds::run(args, tracer);
    for failure in rounds.failures() {
        rep.check(failure.clone());
    }
    let mut m = BTreeMap::new();
    m.insert(
        "obs.trace_overhead".into(),
        stats::ratio(rounds.wall_traced, rounds.wall_plain),
    );
    rounds.insert_worlds_metrics(&mut m);
    let costs = crate::layers::measure(
        &rounds.sizes(Topology::odoh().query_bytes as usize, None),
        args.batch_s(),
    );
    // Busy time against the untraced worlds' summed engine run time
    // (thread-seconds): one wheel pop and push per event, one name draw
    // and one inter-arrival draw per query.
    let wall_us: f64 = rounds.plain.iter().map(|w| w.run_s).sum::<f64>() * 1e6;
    let simnet_us = rounds.total(|r| r.events) * costs.get("simnet.wheel_push_pop_ns.large") / 1e3;
    let gen_us = rounds.total(|r| r.queries_sent)
        * (costs.get("worlds.zipf_sample_ns") + costs.get("worlds.poisson_ns"))
        / 1e3;
    crate::layers::busy(
        &mut m,
        wall_us,
        &[("busy.simnet", simnet_us), ("busy.worlds_gen", gen_us)],
    );
    costs.insert_into(&mut m);
    m
}
