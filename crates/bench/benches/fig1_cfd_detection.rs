//! Fig. 1 / Fig. 2 experiment: CFD violation detection on the customer
//! relation, scaling the number of tuples and the error rate, with the
//! traditional-FD baseline and incremental detection.  The `cfd_detection`
//! and `incremental_append` rows run the value-level reference detectors
//! of `dq-oracle`; the `engine_*` rows run the production kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dq_bench::{customer_workload, DETECTION_SIZES};
use dq_core::prelude::*;
use dq_gen::customer::{paper_cfds, paper_fds};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_cfd_detection");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    let cfds = paper_cfds();
    let fds = paper_fds();
    for &size in &DETECTION_SIZES {
        let workload = customer_workload(size, 0.05);
        group.bench_with_input(BenchmarkId::new("cfd_detection", size), &size, |b, _| {
            b.iter(|| dq_oracle::detect_cfd_violations(&workload.dirty, &cfds).total())
        });
        // The shared-index parallel engine, cold (fresh pool every call) and
        // warm (pool amortized across calls on the unchanged instance).
        group.bench_with_input(BenchmarkId::new("engine_cold", size), &size, |b, _| {
            b.iter(|| {
                DetectionEngine::new()
                    .detect_cfd_violations(&workload.dirty, &cfds)
                    .total()
            })
        });
        let engine = DetectionEngine::new();
        group.bench_with_input(BenchmarkId::new("engine_warm", size), &size, |b, _| {
            b.iter(|| engine.detect_cfd_violations(&workload.dirty, &cfds).total())
        });
        group.bench_with_input(BenchmarkId::new("fd_baseline", size), &size, |b, _| {
            b.iter(|| {
                fds.iter()
                    .map(|fd| fd.violations(&workload.dirty).len())
                    .sum::<usize>()
            })
        });
        // Incremental detection of a 1% append.
        let mut extended = workload.dirty.clone();
        let extra = customer_workload(size / 100 + 1, 0.2);
        let added: Vec<_> = extra
            .dirty
            .iter()
            .map(|(_, t)| extended.insert(t.clone()).expect("compatible schema"))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("incremental_append", size),
            &size,
            |b, _| {
                b.iter(|| {
                    dq_oracle::detect_cfd_violations_incremental(&extended, &cfds, &added).total()
                })
            },
        );
        let engine = DetectionEngine::new();
        group.bench_with_input(
            BenchmarkId::new("engine_incremental_append", size),
            &size,
            |b, _| {
                b.iter(|| {
                    engine
                        .detect_cfd_violations_incremental(&extended, &cfds, &added)
                        .total()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
