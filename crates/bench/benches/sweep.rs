//! Throughput of the parallel sweep engine vs the sequential reference.
//!
//! The engine's correctness claim (byte-identical results at any thread
//! count) is covered by tests/sweep_determinism.rs and the CI
//! `dst --probe sweep` diff; this bench prices the other half —
//! wall-clock. A 16-world ODoH sweep is run through
//! [`SequentialExecutor`] and through [`ParallelExecutor`] at 1, 2, and
//! 4 threads. On a multi-core host the 2-thread run should land near
//! half the sequential time (the worlds are embarrassingly parallel and
//! coarse enough that the engine's per-item synchronization is noise);
//! on a single-core host all rows collapse to the sequential figure,
//! which is itself the result: the engine adds no measurable overhead
//! when parallelism isn't available.

use criterion::{criterion_group, criterion_main, Criterion};
use decoupling::Scenario as _;
use decoupling::{
    Odoh, OdohConfig, ParallelExecutor, RunOptions, SequentialExecutor, SweepBuilder,
};

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    let cfg = OdohConfig::new(2, 5);
    let opts = RunOptions::new();
    let builder = SweepBuilder::new(20221114).worlds(16);

    g.bench_function("odoh-16-sequential", |b| {
        b.iter(|| Odoh::sweep(&cfg, &builder, &SequentialExecutor, &opts))
    });

    for threads in [1usize, 2, 4] {
        let exec = ParallelExecutor::with_threads(threads);
        g.bench_function(format!("odoh-16-parallel-{threads}t"), |b| {
            b.iter(|| Odoh::sweep(&cfg, &builder, &exec, &opts))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
