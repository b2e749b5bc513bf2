//! The repository benchmark: three workloads, each checked, printing
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! See `perfbench/README.md`; launch it through `perfbench/run.py`.
//!
//! ```text
//! dcp-perfbench --workload sim_battery|serve_odoh|population --seed N
//!               --seconds S --trace 0|1 [--smoke] [--trace-out PATH]
//! ```

mod layers;
mod population;
mod report;
mod serve;
mod sim;
mod stats;
mod steal;
mod trace;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use report::{Host, Report};
use trace::Tracer;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    threads: usize,
    trace_out: Option<PathBuf>,
}

impl Args {
    /// Length of one per-op timing batch in the layer harness.
    fn batch_s(&self) -> f64 {
        if self.smoke {
            0.002
        } else {
            0.01
        }
    }
}

const WORKLOADS: [&str; 3] = ["sim_battery", "serve_odoh", "population"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload: expected one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Wall times in seconds of `reps` calls of `f`; what `f` returns is
/// dropped outside the timed span.
pub fn setup_samples<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let built = f();
            let s = stats::secs(t);
            drop(built);
            s
        })
        .collect()
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::new(&args);
    let mut rep = Report::default();
    let tracer = Arc::new(Tracer::new(args.trace));

    if args.trace {
        let mut m = match args.workload.as_str() {
            "sim_battery" => sim::run_traced(&args, &mut rep, &tracer),
            "serve_odoh" => serve::run_traced(&args, &mut rep, &tracer),
            _ => population::run_traced(&args, &mut rep, &tracer),
        };
        m.insert("check.fail_frac".into(), rep.fail_frac());
        let crypto_share = m.get("busy.crypto").copied().unwrap_or(0.0);
        m.insert("crypto.share".into(), crypto_share);
        for (name, unit) in layers::per_layer_metrics() {
            let value = m.remove(&name).unwrap_or(0.0);
            rep.metric(name, value, unit);
        }
        assert!(
            m.is_empty(),
            "computed metrics absent from the per-layer table: {m:?}"
        );
        if let Some(path) = &args.trace_out {
            let spans = tracer.take();
            if let Err(e) = trace::write(path, &host, &spans) {
                eprintln!("dcp-perfbench: writing {}: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!(
                "dcp-perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            );
        }
    } else {
        match args.workload.as_str() {
            "sim_battery" => sim::run(&args, &mut rep),
            "serve_odoh" => serve::run(&args, &mut rep),
            _ => population::run(&args, &mut rep),
        }
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    println!("# host {}", host.to_json());
    for (name, meaning) in &rep.aliases {
        println!("# {name}: {meaning}");
    }
    println!(
        "# fail_frac: {} ({} of {} units failed their check)",
        rep.fail_frac(),
        rep.failed,
        rep.attempted
    );
    for reason in &rep.failures {
        eprintln!("dcp-perfbench: check failed: {reason}");
    }
    println!("{}", rep.to_json());
    if !rep.correct() || rep.attempted == 0 {
        std::process::exit(1);
    }
}
