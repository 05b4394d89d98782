//! Data-parallel scaling of a partitioned stateful stage.
//!
//! Runs the per-detector windowed average over the deterministic traffic
//! stream with the stage replicated across 1 / 2 / 4 / 8 hash partitions
//! (`TrafficConfig::partition_scaling`, ≈6.9k tuples, 384 distinct detector
//! keys).  The stage's per-tuple cost models a **blocking archive lookup**
//! (Experiment 1's expensive operator).  The pooled runs use one worker per
//! plan node, so a replica blocked in a lookup holds only its own worker:
//! the replicas overlap their waits and throughput scales with the
//! partition count even on a single-core machine; a spinning (CPU-bound)
//! stage would additionally need physical cores.
//!
//! Every run is checked for correctness, not just timed:
//!
//! * the sink output's canonical (sorted) digest must be identical across
//!   all partition counts and executors — the shuffle/merge sandwich must
//!   not change the result multiset;
//! * `feedback_dropped` must be 0 everywhere (each run sends one mid-stream
//!   feedback message through the merge→replica broadcast path);
//! * the 4-partition pooled run must beat the 1-partition pooled run by
//!   more than 1.5× throughput.
//!
//! Besides the criterion-style timing lines, the bench writes a JSON report
//! (per configuration: partitions, executor, elapsed, throughput, speedup,
//! feedback counters, output digest) to the path named by
//! `PARTITION_SCALING_JSON`, or `BENCH_partition_scaling.json` in the
//! working directory by default.  CI runs this as a smoke and uploads the
//! JSON artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use dsms_bench::plans::partition_scaling_plan;
use dsms_engine::{ExecutionReport, PooledExecutor, SyncExecutor};
use dsms_types::Tuple;
use dsms_workloads::{TrafficConfig, TrafficGenerator};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Blocking per-tuple archive-lookup cost charged inside the stage.
const LOOKUP_COST: Duration = Duration::from_micros(120);
const PARTITIONS: [usize; 4] = [1, 2, 4, 8];

fn dataset() -> Vec<Tuple> {
    TrafficGenerator::new(TrafficConfig::partition_scaling()).collect()
}

struct RunResult {
    partitions: usize,
    executor: &'static str,
    elapsed: Duration,
    tuples: u64,
    throughput_tps: f64,
    feedback_out: u64,
    feedback_dropped: u64,
    digest: u64,
    outputs: u64,
}

/// Runs one configuration and returns timing plus correctness evidence.
fn run_once(tuples: &[Tuple], partitions: usize, pooled: bool) -> RunResult {
    let (plan, handles) =
        partition_scaling_plan(tuples.to_vec(), partitions, LOOKUP_COST).expect("valid plan");
    let report: ExecutionReport = if pooled {
        let workers = plan.node_count();
        PooledExecutor::run_with_workers(plan, workers).expect("run failed")
    } else {
        SyncExecutor::run(plan).expect("run failed")
    };
    let arrivals = handles.output.lock();
    let mut rows: Vec<String> =
        arrivals.iter().map(|a| format!("{:?}", a.tuple.values())).collect();
    rows.sort_unstable();
    let mut hasher = DefaultHasher::new();
    rows.hash(&mut hasher);

    let source = report.operator("traffic-source").expect("source metrics");
    RunResult {
        partitions,
        executor: if pooled { "pooled" } else { "sync" },
        elapsed: report.elapsed,
        tuples: source.tuples_out,
        throughput_tps: source.tuples_out as f64 / report.elapsed.as_secs_f64().max(1e-9),
        feedback_out: report.total_feedback(),
        feedback_dropped: report.total_feedback_dropped(),
        digest: hasher.finish(),
        outputs: arrivals.len() as u64,
    }
}

impl RunResult {
    fn json(&self, speedup: f64) -> String {
        format!(
            concat!(
                "{{\"partitions\":{},\"executor\":\"{}\",\"elapsed_ms\":{:.3},",
                "\"tuples\":{},\"throughput_tps\":{:.1},\"speedup_vs_1\":{:.3},",
                "\"outputs\":{},\"feedback_out\":{},\"feedback_dropped\":{},",
                "\"output_digest\":\"{:016x}\"}}"
            ),
            self.partitions,
            self.executor,
            self.elapsed.as_secs_f64() * 1_000.0,
            self.tuples,
            self.throughput_tps,
            speedup,
            self.outputs,
            self.feedback_out,
            self.feedback_dropped,
            self.digest,
        )
    }
}

fn partition_scaling(c: &mut Criterion) {
    let tuples = dataset();
    let mut group = c.benchmark_group("partition_scaling");
    group.sample_size(3);

    // Timed series: the pooled executor across the partition counts.  The
    // recorded result is the best (min-elapsed) run per configuration, the
    // shim's own timing lines aside.
    let mut best: Vec<RunResult> = Vec::new();
    for &partitions in &PARTITIONS {
        let mut local: Option<RunResult> = None;
        group.bench_function(format!("pooled/{partitions}"), |b| {
            b.iter(|| {
                let result = run_once(&tuples, partitions, true);
                assert_eq!(result.feedback_dropped, 0, "feedback must not be dropped");
                if local.as_ref().map(|l| result.elapsed < l.elapsed).unwrap_or(true) {
                    local = Some(result);
                }
            })
        });
        best.push(local.expect("at least one sample"));
    }
    group.finish();

    // Correctness series: the sync executor at 1 and 4 partitions (run once —
    // its wall-clock is the full serial sum of the blocking costs).
    let sync_runs: Vec<RunResult> =
        [1usize, 4].iter().map(|&p| run_once(&tuples, p, false)).collect();

    // The partitioned plans must reproduce the single-replica output exactly.
    let reference = best[0].digest;
    for run in best.iter().chain(&sync_runs) {
        assert_eq!(
            run.digest, reference,
            "{}x{} output diverged from the single-replica result",
            run.executor, run.partitions
        );
        assert_eq!(run.feedback_dropped, 0);
        assert!(run.feedback_out >= 1, "the scheduled feedback must flow");
    }

    // The headline scaling claim.
    let base = best[0].throughput_tps;
    let at4 = best.iter().find(|r| r.partitions == 4).expect("4-partition run");
    let speedup4 = at4.throughput_tps / base;
    println!(
        "partition_scaling: pooled speedup vs 1 partition: {}",
        best.iter()
            .map(|r| format!("{}p={:.2}x", r.partitions, r.throughput_tps / base))
            .collect::<Vec<_>>()
            .join(" ")
    );
    assert!(
        speedup4 > 1.5,
        "4-partition throughput must exceed 1.5x the single-replica baseline (got {speedup4:.2}x)"
    );

    let path = std::env::var("PARTITION_SCALING_JSON")
        .unwrap_or_else(|_| "BENCH_partition_scaling.json".to_string());
    let runs: Vec<String> = best
        .iter()
        .map(|r| r.json(r.throughput_tps / base))
        .chain(sync_runs.iter().map(|r| {
            let sync_base = sync_runs[0].throughput_tps;
            r.json(r.throughput_tps / sync_base)
        }))
        .collect();
    let json = format!(
        concat!(
            "{{\"bench\":\"partition_scaling\",\"workload\":\"traffic\",",
            "\"lookup_cost_us\":{},\"cost_model\":\"blocking_io\",\"runs\":[{}]}}\n"
        ),
        LOOKUP_COST.as_micros(),
        runs.join(",")
    );
    if let Err(err) = std::fs::write(&path, &json) {
        eprintln!("partition_scaling: could not write {path}: {err}");
    } else {
        println!("partition_scaling: JSON report written to {path}");
    }
}

criterion_group!(benches, partition_scaling);
criterion_main!(benches);
