//! The CI determinism probes over the §3 scenarios, one binary for all
//! three:
//!
//! * `sweep` — the full fault-preset battery
//!   ([`decoupling::faults::dst::sweep_scenario_for`]) at `--worlds`
//!   derived seeds for each of the eight scenarios, writing the combined
//!   [`DstSweepReport`]s.
//! * `recover` — the harsh recovery probe
//!   ([`decoupling::faults::dst::sweep_recovery_probe_for`]) over the
//!   same scenarios plus Ech: each world is a recovered fault-free
//!   baseline plus a recovered `FaultConfig::harsh()` run, asserting
//!   that every work unit completes, that the knowledge tables are
//!   byte-identical to the baseline, and that no two attempts of one
//!   request share a ciphertext. Writes [`RecoverySweepReport`]s.
//! * `fleet` — the fleet-mode churn probe over the directory-enabled
//!   wirings (mpr, mixnet). Each world runs a calm recovered
//!   fixed-relay baseline and a fleet-enabled run under
//!   [`FaultConfig::harsh_fleet`] (relay churn, directory partitions,
//!   key rotation all active) at the same derived seed, and asserts that
//!   the fleet run completes its full workload, that every directory
//!   converged on the same membership state, that the rotation schedule
//!   actually fired (no vacuous pass), that directory entities learned
//!   **nothing** (their traffic is public), and that the knowledge
//!   tables of the baseline's entities are **byte-identical** between
//!   the two runs — the directory layer is knowledge-invisible. Writes
//!   [`FleetSweepReport`]s.
//!
//! The point of the binary is the diff: CI runs each probe twice — once
//! `--sequential`, once parallel with `RAYON_NUM_THREADS=2` — and
//! requires the two output files to be **byte-identical**. Any
//! nondeterminism smuggled into the engine, a scenario, or the
//! aggregation shows up as a diff. A violated bar panics, so CI fails
//! loudly rather than producing a green artifact.
//!
//! ```text
//! dst --probe sweep|recover|fleet [--worlds N] [--threads N] [--seed S]
//!     [--sequential] [--backend fast|reference] [--out PATH]
//! ```
//!
//! Defaults: `sweep` 3 worlds at seed 20221114, `recover` 4 worlds at
//! seed 20230402, `fleet` 4 worlds at seed 20221114.
//!
//! `--backend` selects the process-global bignum backend
//! ([`dcp_crypto::backend::set_backend`]); CI diffs the two selections
//! against each other too — the fast path must be *value*-identical,
//! not just fast.

use std::collections::BTreeSet;
use std::time::Instant;

use decoupling::core::ScenarioReport as _;
use decoupling::faults::dst::{
    sweep_recovery_probe_for, sweep_scenario_for, DstSweepReport, RecoverySweepReport,
};
use decoupling::{
    entities_silent, restricted_fingerprint, ChainConfig, FaultConfig, FleetConfig, FleetSummary,
    Mixnet, MixnetConfig, Mpr, ParallelExecutor, RunOptions, Scenario, SequentialExecutor,
    SweepBuilder, SweepExecutor, SweepJob,
};
use serde::Serialize;

#[derive(Clone, Copy)]
enum Probe {
    Sweep,
    Recover,
    Fleet,
}

impl Probe {
    fn parse(raw: &str) -> Self {
        match raw {
            "sweep" => Probe::Sweep,
            "recover" => Probe::Recover,
            "fleet" => Probe::Fleet,
            other => panic!("--probe: expected sweep|recover|fleet, got {other}"),
        }
    }

    /// The probe's default `(worlds, master seed)`.
    fn defaults(self) -> (u64, u64) {
        match self {
            Probe::Sweep => (3, 20221114),
            Probe::Recover => (4, 20230402),
            Probe::Fleet => (4, 20221114),
        }
    }
}

struct Args {
    probe: Probe,
    worlds: u64,
    threads: usize,
    seed: u64,
    sequential: bool,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut probe = None;
    let mut worlds = None;
    let mut seed = None;
    let mut threads = 0;
    let mut sequential = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--probe" => probe = Some(Probe::parse(&value("--probe"))),
            "--worlds" => worlds = Some(value("--worlds").parse().expect("--worlds: integer")),
            "--threads" => threads = value("--threads").parse().expect("--threads: integer"),
            "--seed" => seed = Some(value("--seed").parse().expect("--seed: integer")),
            "--sequential" => sequential = true,
            "--backend" => {
                let raw = value("--backend");
                let kind = dcp_crypto::backend::BackendKind::parse(&raw)
                    .unwrap_or_else(|| panic!("--backend: expected fast|reference, got {raw}"));
                dcp_crypto::backend::set_backend(kind);
            }
            "--out" => out = Some(value("--out")),
            other => panic!("unknown flag {other} (see the module docs for usage)"),
        }
    }
    let probe = probe.expect("--probe sweep|recover|fleet is required");
    let (default_worlds, default_seed) = probe.defaults();
    Args {
        probe,
        worlds: worlds.unwrap_or(default_worlds),
        threads,
        seed: seed.unwrap_or(default_seed),
        sequential,
        out,
    }
}

// ------------------------------------------------ sweep and recover --

/// One probe applied to one row of the workload table.
trait Battery {
    fn cell<S: Scenario>(&mut self, cfg: &S::Config)
    where
        S::Config: Sync;
}

/// The workload table the `sweep` and `recover` probes run: the same
/// small workloads tests/dst_scenarios.rs smokes, plus Ech when `ech`.
fn workloads(battery: &mut impl Battery, ech: bool) {
    let mixnet = MixnetConfig {
        senders: 6,
        mixes: 2,
        batch_size: 3,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: None,
        seed: 0, // overridden by each derived harness seed
    };
    let pgpp = decoupling::PgppConfig {
        mode: decoupling::pgpp::Mode::Pgpp,
        users: 5,
        cells: 2,
        epochs: 2,
        moves_per_epoch: 2,
        seed: 0,
    };
    let mpr = ChainConfig {
        relays: 2,
        users: 3,
        fetches_each: 2,
        geohint: false,
        seed: 0,
    };
    let ppm = decoupling::PpmConfig {
        clients: 5,
        bits: 4,
        malicious: 0,
        seed: 0,
    };
    battery.cell::<decoupling::Blindcash>(&decoupling::BlindcashConfig::new(2, 2, 512));
    battery.cell::<Mixnet>(&mixnet);
    battery.cell::<decoupling::Privacypass>(&decoupling::PrivacypassConfig::new(3, 2));
    battery.cell::<decoupling::Odoh>(&decoupling::OdohConfig::new(3, 4));
    battery.cell::<decoupling::Pgpp>(&pgpp);
    battery.cell::<Mpr>(&mpr);
    battery.cell::<decoupling::Ppm>(&ppm);
    battery.cell::<decoupling::Vpn>(&decoupling::VpnConfig::new(3, 2));
    if ech {
        battery.cell::<decoupling::Ech>(&decoupling::EchConfig::default().ech(true));
    }
}

/// The `sweep` probe: the full preset battery per scenario.
struct SweepBattery<'a, X> {
    builder: &'a SweepBuilder,
    exec: &'a X,
    reports: Vec<DstSweepReport>,
}

impl<X: SweepExecutor> Battery for SweepBattery<'_, X> {
    fn cell<S: Scenario>(&mut self, cfg: &S::Config)
    where
        S::Config: Sync,
    {
        let report = sweep_scenario_for::<S, X>(cfg, self.builder, self.exec);
        self.reports.push(report);
    }
}

/// The `recover` probe: the harsh completion bar per scenario.
struct RecoverBattery<'a, X> {
    builder: &'a SweepBuilder,
    exec: &'a X,
    reports: Vec<RecoverySweepReport>,
}

impl<X: SweepExecutor> Battery for RecoverBattery<'_, X> {
    fn cell<S: Scenario>(&mut self, cfg: &S::Config)
    where
        S::Config: Sync,
    {
        let report = sweep_recovery_probe_for::<S, X>(cfg, self.builder, self.exec);
        self.reports.push(report);
    }
}

// ------------------------------------------------------------ fleet --

/// One world's verdict for one scenario.
#[derive(Clone, Debug, PartialEq, Serialize)]
struct FleetWorldReport {
    seed: u64,
    completed_units: u64,
    expected_units: u64,
    converged: bool,
    rotations: u64,
    stale_rejected: u64,
    directories_silent: bool,
    /// FNV-1a over the baseline-restricted knowledge rows of the fleet
    /// run — byte-compared across executors, and asserted equal to the
    /// baseline's hash before this report is even built.
    knowledge_hash: u64,
}

/// The per-scenario aggregate the CI job byte-diffs.
#[derive(Clone, Debug, PartialEq, Serialize)]
struct FleetSweepReport {
    scenario: String,
    master_seed: u64,
    worlds: u64,
    total_rotations: u64,
    total_stale_rejected: u64,
    entries: Vec<FleetWorldReport>,
}

/// FNV-1a over the rendered knowledge rows, stable across platforms.
fn hash_rows(rows: &[(String, Vec<String>)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (name, tuples) in rows {
        eat(name.as_bytes());
        for t in tuples {
            eat(t.as_bytes());
        }
    }
    h
}

/// Run one scenario's baseline + fleet pair at `seed` and check every
/// bar. Panics (completion-bar style, like the `recover` probe) on any
/// violation so CI fails loudly rather than producing a green artifact.
fn fleet_probe<S>(
    cfg: &S::Config,
    seed: u64,
    fleet_of: impl Fn(&S::Report) -> FleetSummary,
) -> FleetWorldReport
where
    S: Scenario,
{
    let baseline = S::run_with(cfg, seed, &RunOptions::recovered(&FaultConfig::calm()));
    let fleet = S::run_with(
        cfg,
        seed,
        &RunOptions::recovered(&FaultConfig::harsh_fleet()).with_fleet(&FleetConfig::standard()),
    );

    let expected = fleet.expected_units().expect("fleet scenarios count units");
    let completed = fleet.completed_units();
    assert_eq!(
        completed,
        expected,
        "{} seed {seed}: fleet run under harsh_fleet left work unfinished",
        S::NAME
    );
    let summary = fleet_of(&fleet);
    assert!(
        summary.enabled,
        "{} seed {seed}: fleet layer inert",
        S::NAME
    );
    assert!(
        summary.converged,
        "{} seed {seed}: directories ended divergent",
        S::NAME
    );
    assert!(
        summary.stats.rotations > 0,
        "{} seed {seed}: rotation schedule never fired (vacuous run)",
        S::NAME
    );
    let silent = entities_silent(fleet.world(), "Directory");
    assert!(
        silent,
        "{} seed {seed}: a directory learned something",
        S::NAME
    );

    let names: BTreeSet<String> = baseline
        .world()
        .entities()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    let fleet_rows = restricted_fingerprint(fleet.world(), &names);
    let base_rows = restricted_fingerprint(baseline.world(), &names);
    assert_eq!(
        fleet_rows,
        base_rows,
        "{} seed {seed}: fleet run changed a baseline entity's knowledge",
        S::NAME
    );

    FleetWorldReport {
        seed,
        completed_units: completed,
        expected_units: expected,
        converged: summary.converged,
        rotations: summary.stats.rotations,
        stale_rejected: summary.stats.stale_rejected,
        directories_silent: silent,
        knowledge_hash: hash_rows(&fleet_rows),
    }
}

fn reduce(scenario: &str, master_seed: u64, entries: Vec<FleetWorldReport>) -> FleetSweepReport {
    FleetSweepReport {
        scenario: scenario.to_string(),
        master_seed,
        worlds: entries.len() as u64,
        total_rotations: entries.iter().map(|e| e.rotations).sum(),
        total_stale_rejected: entries.iter().map(|e| e.stale_rejected).sum(),
        entries,
    }
}

fn fleet_all(
    builder: &SweepBuilder,
    exec: &impl SweepExecutor,
    master_seed: u64,
) -> Vec<FleetSweepReport> {
    // The same small workloads the scenario crates' fleet tests pin.
    let mpr = ChainConfig {
        relays: 2,
        users: 2,
        fetches_each: 2,
        geohint: false,
        seed: 0, // overridden by each derived harness seed
    };
    let mixnet = MixnetConfig {
        senders: 4,
        mixes: 2,
        batch_size: 2,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: Some(50_000),
        seed: 0,
    };
    let jobs = builder.jobs();
    let mpr_entries = exec.execute(&jobs, &|job: &SweepJob| {
        fleet_probe::<Mpr>(&mpr, job.seed, |r| r.fleet.clone())
    });
    let mixnet_entries = exec.execute(&jobs, &|job: &SweepJob| {
        fleet_probe::<Mixnet>(&mixnet, job.seed, |r| r.fleet.clone())
    });
    vec![
        reduce("mpr", master_seed, mpr_entries),
        reduce("mixnet", master_seed, mixnet_entries),
    ]
}

// ------------------------------------------------------------- main --

/// Run the selected probe on `exec`, then print one summary line per
/// scenario and write the JSON artifact.
fn run(args: &Args, builder: &SweepBuilder, exec: &impl SweepExecutor, threads: usize) {
    let started = Instant::now();
    match args.probe {
        Probe::Sweep => {
            let mut battery = SweepBattery {
                builder,
                exec,
                reports: Vec::new(),
            };
            workloads(&mut battery, false);
            finish(args, threads, started, &battery.reports, |r| {
                format!(
                    "{:<12} worlds={} faults={} moderate-complete={}/{} new-couplings={}",
                    r.scenario,
                    r.worlds,
                    r.total_faults,
                    r.completed_moderate,
                    r.worlds,
                    r.new_couplings
                )
            });
        }
        Probe::Recover => {
            let mut battery = RecoverBattery {
                builder,
                exec,
                reports: Vec::new(),
            };
            workloads(&mut battery, true);
            finish(args, threads, started, &battery.reports, |r| {
                format!(
                    "{:<12} worlds={} harsh-complete={}/{} units={} faults={}",
                    r.scenario,
                    r.worlds,
                    r.completed_harsh,
                    r.worlds,
                    r.completed_units,
                    r.total_faults
                )
            });
        }
        Probe::Fleet => {
            let reports = fleet_all(builder, exec, args.seed);
            finish(args, threads, started, &reports, |r| {
                format!(
                    "{:<12} worlds={} rotations={} stale-rejected={} all-complete=yes",
                    r.scenario, r.worlds, r.total_rotations, r.total_stale_rejected
                )
            });
        }
    }
}

fn finish<R: Serialize>(
    args: &Args,
    threads: usize,
    started: Instant,
    reports: &[R],
    summary: impl Fn(&R) -> String,
) {
    let elapsed = started.elapsed();
    for r in reports {
        eprintln!("{}", summary(r));
    }
    eprintln!(
        "mode={} threads={threads} elapsed={:.2}s",
        if args.sequential {
            "sequential"
        } else {
            "parallel"
        },
        elapsed.as_secs_f64()
    );
    match &args.out {
        Some(path) => {
            dcp_obs::write_json(&reports, path).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => println!("{}", dcp_obs::to_json(&reports)),
    }
}

fn main() {
    let args = parse_args();
    let builder = SweepBuilder::new(args.seed)
        .worlds(args.worlds)
        .threads(args.threads);
    if args.sequential {
        run(&args, &builder, &SequentialExecutor, 1);
    } else {
        let exec = ParallelExecutor::for_builder(&builder);
        run(&args, &builder, &exec, exec.num_threads());
    }
}
