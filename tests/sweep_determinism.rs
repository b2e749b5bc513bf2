//! The parallel sweep engine's load-bearing promise, tested three ways:
//!
//! * **engine** — for arbitrary `(master_seed, worlds, threads)`, a
//!   [`ParallelExecutor`] sweep is equal to the [`SequentialExecutor`]
//!   reference, entry for entry, and the serialized reports are
//!   byte-identical JSON (the same diff CI performs on `dst --probe sweep`);
//! * **scenarios** — every §3 scenario's full DST preset battery agrees
//!   between the two executors, so nothing a scenario aggregates depends
//!   on completion order;
//! * **fail-closed crypto** — the bugfix half of this change: malformed
//!   wire bytes (RSA keys, signatures, HPKE ciphertexts, bignum
//!   encodings) return errors instead of panicking, in sequential *and*
//!   parallel worlds alike.

use decoupling::crypto::{hpke, rsa::RsaPublicKey};
use decoupling::faults::dst::sweep_scenario_for;
use decoupling::{
    derive_seed, ParallelExecutor, RunOptions, Scenario, SequentialExecutor, SweepBuilder,
};
use proptest::prelude::*;
use serde::Serialize as _;

/// The executor pair every test compares: the reference and the engine
/// under test at a thread count that forces real interleaving.
fn executors() -> (SequentialExecutor, ParallelExecutor) {
    (SequentialExecutor, ParallelExecutor::with_threads(3))
}

/// Run one scenario's full DST battery under both executors and demand
/// byte-identical JSON.
fn scenario_sweep_agrees<S: Scenario>(cfg: &S::Config)
where
    S::Config: Sync,
{
    let builder = SweepBuilder::new(20221114).worlds(3);
    let (seq, par) = executors();
    let a = sweep_scenario_for::<S, _>(cfg, &builder, &seq);
    let b = sweep_scenario_for::<S, _>(cfg, &builder, &par);
    assert_eq!(a, b, "{}: parallel DST sweep diverged", a.scenario);
    assert_eq!(
        serde_json::to_string_pretty(&a).unwrap(),
        serde_json::to_string_pretty(&b).unwrap(),
        "{}: JSON not byte-identical",
        a.scenario
    );
}

#[test]
fn dst_sweep_blindcash() {
    scenario_sweep_agrees::<decoupling::Blindcash>(&decoupling::BlindcashConfig::new(2, 2, 512));
}

#[test]
fn dst_sweep_mixnet() {
    scenario_sweep_agrees::<decoupling::Mixnet>(&decoupling::MixnetConfig {
        senders: 6,
        mixes: 2,
        batch_size: 3,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: None,
        seed: 0,
    });
}

#[test]
fn dst_sweep_privacypass() {
    scenario_sweep_agrees::<decoupling::Privacypass>(&decoupling::PrivacypassConfig::new(3, 2));
}

#[test]
fn dst_sweep_odns() {
    scenario_sweep_agrees::<decoupling::Odoh>(&decoupling::OdohConfig::new(3, 4));
}

#[test]
fn dst_sweep_pgpp() {
    scenario_sweep_agrees::<decoupling::Pgpp>(&decoupling::PgppConfig {
        mode: decoupling::pgpp::Mode::Pgpp,
        users: 5,
        cells: 2,
        epochs: 2,
        moves_per_epoch: 2,
        seed: 0,
    });
}

#[test]
fn dst_sweep_mpr() {
    scenario_sweep_agrees::<decoupling::Mpr>(&decoupling::ChainConfig {
        relays: 2,
        users: 3,
        fetches_each: 2,
        geohint: false,
        seed: 0,
    });
}

#[test]
fn dst_sweep_ppm() {
    scenario_sweep_agrees::<decoupling::Ppm>(&decoupling::PpmConfig {
        clients: 5,
        bits: 4,
        malicious: 0,
        seed: 0,
    });
}

#[test]
fn dst_sweep_vpn() {
    scenario_sweep_agrees::<decoupling::Vpn>(&decoupling::VpnConfig::new(3, 2));
}

/// Every scenario report (and its config) must cross thread boundaries:
/// the engine's `Report: Send` bound, spelled out so a regression names
/// the offending type instead of failing in generic soup.
#[test]
fn reports_and_configs_are_send() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<<decoupling::Blindcash as Scenario>::Report>();
    assert_send::<<decoupling::Mixnet as Scenario>::Report>();
    assert_send::<<decoupling::Privacypass as Scenario>::Report>();
    assert_send::<<decoupling::Odoh as Scenario>::Report>();
    assert_send::<<decoupling::Pgpp as Scenario>::Report>();
    assert_send::<<decoupling::Mpr as Scenario>::Report>();
    assert_send::<<decoupling::Ppm as Scenario>::Report>();
    assert_send::<<decoupling::Vpn as Scenario>::Report>();
    assert_sync::<decoupling::BlindcashConfig>();
    assert_sync::<decoupling::MixnetConfig>();
    assert_sync::<decoupling::PrivacypassConfig>();
    assert_sync::<decoupling::OdohConfig>();
    assert_sync::<decoupling::PgppConfig>();
    assert_sync::<decoupling::ChainConfig>();
    assert_sync::<decoupling::PpmConfig>();
    assert_sync::<decoupling::VpnConfig>();
}

// (The bignum underflow/overflow fail-closed regression moved next to
// the arithmetic it pins — the bigint unit tests in dcp-crypto — when
// raw bigint references outside crates/crypto became lint-forbidden.)

/// Malformed RSA wire bytes — truncated, zero-modulus, non-minimal —
/// must come back as `Err`, never a panic inside the bignum layer.
#[test]
fn malformed_rsa_key_bytes_fail_closed() {
    assert!(RsaPublicKey::from_bytes(&[]).is_err());
    assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 64]).is_err());
    // n = 0 (length prefix says 0 bytes of modulus, e = 3).
    assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 0, 3]).is_err());
    // A modulus of all-zero bytes with a plausible length.
    let mut zeros = vec![0, 0, 0, 64];
    zeros.extend_from_slice(&[0u8; 64]);
    zeros.push(3);
    assert!(RsaPublicKey::from_bytes(&zeros).is_err());
}

/// Malformed HPKE ciphertexts of every length bucket open to `Err`.
#[test]
fn malformed_hpke_ciphertexts_fail_closed() {
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let kp = hpke::Keypair::generate(&mut rng);
    for len in [0usize, 1, 31, 32, 33, 47, 48, 64] {
        let junk = vec![0xa5u8; len];
        assert!(
            hpke::open(&kp, b"info", b"aad", &junk).is_err(),
            "junk of len {len} must not open"
        );
    }
    // A real ciphertext with one flipped bit anywhere must also fail.
    let ct = hpke::seal(&mut rng, &kp.public, b"info", b"aad", b"payload").unwrap();
    let mut tampered = ct.clone();
    *tampered.last_mut().unwrap() ^= 1;
    assert!(hpke::open(&kp, b"info", b"aad", &tampered).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine itself, property-tested: any `(master_seed, worlds,
    /// threads)` triple produces the same entries in the same order from
    /// both executors, with the seeds the closed-form `derive_seed`
    /// promises.
    #[test]
    fn parallel_sweep_matches_sequential(
        master_seed in any::<u64>(),
        worlds in 1u64..24,
        threads in 1usize..6,
    ) {
        let builder = SweepBuilder::new(master_seed).worlds(worlds);
        let work = |job: &decoupling::core::sweep::SweepJob| {
            // A cheap but seed-sensitive stand-in for a scenario run.
            (job.index, job.seed, job.seed.rotate_left((job.index % 63) as u32))
        };
        let seq = builder.run_on(&SequentialExecutor, work);
        let par = builder.run_on(&ParallelExecutor::with_threads(threads), work);
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(seq.seeds(), par.seeds());
        for (i, entry) in par.entries.iter().enumerate() {
            prop_assert_eq!(entry.index, i as u64);
            prop_assert_eq!(entry.seed, derive_seed(master_seed, i as u64));
        }
    }

    /// One real scenario under the proptest lens: arbitrary seeds and
    /// world counts, reports byte-identical across executors.
    #[test]
    fn odoh_sweep_reports_byte_identical(
        master_seed in any::<u64>(),
        worlds in 1u64..5,
    ) {
        let cfg = decoupling::OdohConfig::new(2, 2);
        let builder = SweepBuilder::new(master_seed).worlds(worlds);
        let opts = RunOptions::new();
        let (seq_exec, par_exec) = executors();
        let a = decoupling::Odoh::sweep(&cfg, &builder, &seq_exec, &opts)
            .report(|e| e.result.answered as u64);
        let b = decoupling::Odoh::sweep(&cfg, &builder, &par_exec, &opts)
            .report(|e| e.result.answered as u64);
        prop_assert_eq!(a.serialize_value(), b.serialize_value());
    }
}
