//! No thread a loopback run starts — role, accept or reader — outlives
//! the run. Alone in its own test binary, so no concurrently running test
//! moves this process's thread count.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use dcp_odns::serve::odoh_serve_spec;
use dcp_odns::OdohConfig;
use dcp_serve::{run_loopback, ServeConfig};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn loopback_runs_leak_no_threads() {
    let cfg = OdohConfig::new(2, 4);
    let before = live_threads();
    for seed in 0..20 {
        let serve = ServeConfig {
            seed,
            deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let outcome = run_loopback(odoh_serve_spec(&cfg, seed), &serve).expect("serve runs");
        assert!(outcome.complete(), "run {seed} answered everything");
    }
    // A thread that has returned can stay listed for a moment while the
    // kernel reaps it; a leaked one never goes.
    let settle = Instant::now();
    while live_threads() > before && settle.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live_threads(), before, "threads outlived their runs");
}
