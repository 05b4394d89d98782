//! Ablation for the paper's "no discernible overhead as the frequency of
//! feedback increases" observation: the speed-map plan under scheme F2 with
//! viewport changes every 1, 2, 4 and 6 minutes, plus the feedback-free
//! baseline, on the same (scaled-down) stream.  Each run uses a pool with one
//! worker per plan node, the thread-per-operator shape of the paper's engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsms_bench::experiments::Scheme;
use dsms_bench::plans::speedmap_plan;
use dsms_bench::Experiment2Config;
use dsms_engine::{PooledExecutor, QueryPlan};
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

fn run(plan: QueryPlan) {
    let workers = plan.node_count();
    PooledExecutor::run_with_workers(plan, workers).expect("run failed");
}

fn feedback_overhead(c: &mut Criterion) {
    let config = bench_config();
    let mut group = c.benchmark_group("feedback_frequency_overhead");
    group.sample_size(10);

    group.bench_function("baseline_F0", |b| {
        b.iter(|| {
            let (plan, _h) =
                speedmap_plan(&config, Scheme::F0, StreamDuration::from_minutes(2)).unwrap();
            run(plan)
        })
    });
    for minutes in [1i64, 2, 4, 6] {
        group.bench_with_input(
            BenchmarkId::new("F2_every_minutes", minutes),
            &minutes,
            |b, &minutes| {
                b.iter(|| {
                    let (plan, _h) =
                        speedmap_plan(&config, Scheme::F2, StreamDuration::from_minutes(minutes))
                            .unwrap();
                    run(plan)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, feedback_overhead);
criterion_main!(benches);
