//! Criterion bench for Experiment 2 (Figure 7), scaled down: the speed-map
//! plan under schemes F0–F3 at a 2-minute viewport-change frequency, on the
//! deterministic executor `run_experiment2` uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsms_bench::experiments::Scheme;
use dsms_bench::plans::speedmap_plan;
use dsms_bench::Experiment2Config;
use dsms_engine::SyncExecutor;
use dsms_types::StreamDuration;
use dsms_workloads::TrafficConfig;

fn bench_config() -> Experiment2Config {
    Experiment2Config {
        stream: TrafficConfig {
            duration: StreamDuration::from_minutes(20),
            detectors_per_segment: 4,
            ..TrafficConfig::default()
        },
        ..Experiment2Config::small()
    }
}

fn experiment2(c: &mut Criterion) {
    let config = bench_config();
    let mut group = c.benchmark_group("experiment2_speedmap_schemes");
    group.sample_size(10);
    for scheme in Scheme::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, &scheme| {
                b.iter(|| {
                    let (plan, _handles) =
                        speedmap_plan(&config, scheme, StreamDuration::from_minutes(2))
                            .expect("plan");
                    SyncExecutor::run(plan).expect("run failed")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, experiment2);
criterion_main!(benches);
