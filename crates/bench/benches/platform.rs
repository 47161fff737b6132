//! Criterion S3: full face-recognition scenario runs, with and without the
//! online monitors (the Fig. 1 framework's runtime cost).

use criterion::{criterion_group, criterion_main, Criterion};

use lomon_tlm::scenario::{run_scenario, ScenarioConfig};

fn bench_platform(c: &mut Criterion) {
    let mut group = c.benchmark_group("platform");
    group.sample_size(20);
    group.bench_function("scenario/monitored", |b| {
        b.iter(|| {
            let config = ScenarioConfig::nominal(7);
            let report = run_scenario(&config);
            assert!(report.all_ok());
            report.dispatched
        });
    });
    group.bench_function("scenario/bare", |b| {
        b.iter(|| {
            let mut config = ScenarioConfig::nominal(7);
            config.monitors = false;
            let report = run_scenario(&config);
            report.dispatched
        });
    });
    group.finish();
}

criterion_group!(benches, bench_platform);
criterion_main!(benches);
