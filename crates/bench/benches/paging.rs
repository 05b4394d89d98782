//! Ablation: page size vs. execution time.
//!
//! NiagaraST batches tuples into pages to limit context switching between
//! operator threads (Section 5); punctuation flushes partial pages so slow
//! streams are not starved.  This bench sweeps the page capacity of a simple
//! pipelined plan under the pooled executor, one worker per operator as in
//! NiagaraST, to show the batching trade-off the paper's engine design
//! relies on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsms_engine::{PooledExecutor, StreamBuilder};
use dsms_operators::{StreamOps, TuplePredicate, VecSource};
use dsms_types::{DataType, Schema, SchemaRef, StreamDuration, Timestamp, Tuple, Value};

fn schema() -> SchemaRef {
    Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
}

fn stream(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i)])
        })
        .collect()
}

fn run_with_page_capacity(tuples: &[Tuple], page_capacity: usize) {
    let builder = StreamBuilder::new().with_page_capacity(page_capacity);
    builder
        .source(
            VecSource::new("source", tuples.to_vec())
                .with_punctuation("timestamp", StreamDuration::from_secs(100))
                .with_batch_size(page_capacity.max(8)),
        )
        .unwrap()
        .select("filter", TuplePredicate::new("v % 2 == 0", |t| t.int("v").unwrap_or(0) % 2 == 0))
        .unwrap()
        .sink_collect("sink")
        .unwrap();
    let plan = builder.build().unwrap();
    let workers = plan.node_count();
    PooledExecutor::run_with_workers(plan, workers).expect("run failed");
}

fn paging(c: &mut Criterion) {
    let tuples = stream(20_000);
    let mut group = c.benchmark_group("page_capacity_sweep");
    group.sample_size(10);
    for capacity in [1usize, 8, 32, 128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(capacity), &capacity, |b, &capacity| {
            b.iter(|| run_with_page_capacity(&tuples, capacity));
        });
    }
    group.finish();
}

criterion_group!(benches, paging);
criterion_main!(benches);
