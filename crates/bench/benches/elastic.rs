//! Elastic scale-out under a load spike.
//!
//! The stage is the shuffle → replicas → merge sandwich with a **blocking
//! archive-lookup cost** charged per tuple (Experiment 1's expensive
//! operator), built at width 4 but started with a single active replica.  A
//! spinning ingress stage models the arrival process: a burst of 3 000 bids
//! arriving at a fixed rate well above the single replica's service rate, so
//! the lone replica is the bottleneck and back-pressure stacks up behind it.
//! The elastic run's scripted policy scales out 1→4 at the second
//! punctuation boundary on the shuffle's input (tuple 100 of 3 000, paced by
//! the ingress stage rather than by the slow replica's output), and the
//! replicas then overlap their blocking waits (the pool runs one worker per
//! plan node, so a replica blocked in a lookup holds only its own worker).
//! The fixed run keeps one active replica for the whole stream — same plan
//! shape, same dormant nodes, no resize — so the comparison isolates exactly
//! the elasticity.
//!
//! While the Migrate/Ack/Commit handshake is in flight the shuffle holds its
//! input, so arrivals queue upstream under back-pressure and the resize
//! always commits mid-stream, which is the scenario the bench is about.
//!
//! Every run is checked, not just timed: the elastic digest must be
//! byte-identical to the fixed run, `feedback_dropped` must be 0, the resize
//! must actually commit, and the scaled-out run must beat the fixed
//! single-replica baseline by more than 1.5×.
//!
//! Besides the criterion timing lines, the bench writes a JSON report (per
//! configuration: elapsed, throughput, speedup, resize epochs, migration and
//! feedback counters, output digest) to the path named by `ELASTIC_JSON`, or
//! `BENCH_elastic.json` in the working directory by default.  CI runs this as
//! a smoke and uploads the JSON artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use dsms_engine::{ExecutionReport, PooledExecutor, StreamBuilder};
use dsms_operators::{
    Costed, ElasticPolicy, Merge, Select, Shuffle, StreamOps, TuplePredicate, VecSource,
};
use dsms_types::{DataType, Schema, SchemaRef, StreamDuration, Timestamp, Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Blocking per-tuple archive-lookup cost charged inside each replica.
const LOOKUP_COST: Duration = Duration::from_micros(80);
/// Spinning per-tuple ingress cost: the arrival rate of the spike (far above
/// one replica's service rate, comfortably below four replicas').
const INGRESS_COST: Duration = Duration::from_micros(15);
const MAX_WIDTH: usize = 4;
const TUPLES: i64 = 3_000;

fn schema() -> SchemaRef {
    Schema::shared(&[("ts", DataType::Timestamp), ("key", DataType::Int)])
}

fn spike() -> Vec<Tuple> {
    (0..TUPLES)
        .map(|i| {
            Tuple::new(
                schema(),
                vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % 64)],
            )
        })
        .collect()
}

struct RunResult {
    config: &'static str,
    elapsed: Duration,
    throughput_tps: f64,
    resizes: u64,
    migrated_groups: u64,
    epochs: Vec<(u64, usize)>,
    feedback_dropped: u64,
    digest: u64,
    outputs: u64,
    report: ExecutionReport,
}

/// Runs the stage with the given policy on a pool with one worker per node.
/// The stage is always built at `MAX_WIDTH`; the policy decides whether it
/// ever leaves a single active replica.
fn run_once(policy: ElasticPolicy, config: &'static str) -> RunResult {
    let builder = StreamBuilder::new().with_page_capacity(8).with_queue_capacity(2);
    let shuffle = Shuffle::new("shuffle", schema(), &["key"], MAX_WIDTH).expect("valid shuffle");
    let merge = Merge::new("merge", schema(), MAX_WIDTH);
    let results = builder
        .source(
            VecSource::new("source", spike()).with_punctuation("ts", StreamDuration::from_secs(50)),
        )
        .expect("source")
        .apply(Costed::spinning(
            Select::new("ingress", schema(), TuplePredicate::always()),
            INGRESS_COST,
        ))
        .expect("ingress")
        .elastic_stage(shuffle, merge, 1, policy, |i| {
            Costed::blocking_io(
                Select::new(format!("lookup-{i}"), schema(), TuplePredicate::always()),
                LOOKUP_COST,
            )
        })
        .expect("stage")
        .sink_collect("sink")
        .expect("sink");
    let plan = builder.build().expect("plan");
    let workers = plan.node_count();
    let report: ExecutionReport = PooledExecutor::run_with_workers(plan, workers).expect("run");

    let collected = results.lock();
    let mut rows: Vec<String> = collected.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    let mut hasher = DefaultHasher::new();
    rows.hash(&mut hasher);

    let stats = report.operator("shuffle").expect("shuffle metrics").elastic.clone().unwrap();
    RunResult {
        config,
        elapsed: report.elapsed,
        throughput_tps: TUPLES as f64 / report.elapsed.as_secs_f64().max(1e-9),
        resizes: stats.resizes,
        migrated_groups: stats.migrated_groups,
        epochs: stats.epochs,
        feedback_dropped: report.total_feedback_dropped(),
        digest: hasher.finish(),
        outputs: collected.len() as u64,
        report,
    }
}

impl RunResult {
    fn json(&self, speedup: f64) -> String {
        let epochs: Vec<String> = self.epochs.iter().map(|(e, w)| format!("[{e},{w}]")).collect();
        format!(
            concat!(
                "{{\"config\":\"{}\",\"elapsed_ms\":{:.3},\"throughput_tps\":{:.1},",
                "\"speedup_vs_fixed\":{:.3},\"resizes\":{},\"migrated_groups\":{},",
                "\"epochs\":[{}],\"outputs\":{},\"feedback_dropped\":{},",
                "\"output_digest\":\"{:016x}\"}}"
            ),
            self.config,
            self.elapsed.as_secs_f64() * 1_000.0,
            self.throughput_tps,
            speedup,
            self.resizes,
            self.migrated_groups,
            epochs.join(","),
            self.outputs,
            self.feedback_dropped,
            self.digest,
        )
    }
}

fn elastic(c: &mut Criterion) {
    let mut group = c.benchmark_group("elastic");
    group.sample_size(3);

    let mut best: Vec<RunResult> = Vec::new();
    for (config, policy) in [
        ("fixed-1", ElasticPolicy::Scripted(Vec::new())),
        ("elastic-1to4", ElasticPolicy::Scripted(vec![(2, MAX_WIDTH)])),
    ] {
        let mut local: Option<RunResult> = None;
        group.bench_function(config, |b| {
            b.iter(|| {
                let result = run_once(policy.clone(), config);
                assert_eq!(result.feedback_dropped, 0, "{config}: feedback must not be dropped");
                assert_eq!(result.outputs as i64, TUPLES, "{config}: no tuple lost or duplicated");
                if config != "fixed-1" {
                    assert_eq!(
                        result.resizes, 1,
                        "{config}: the scripted scale-out must commit mid-stream, not cancel"
                    );
                    assert_eq!(result.epochs, vec![(1, MAX_WIDTH)], "{config}");
                }
                if local.as_ref().map(|l| result.elapsed < l.elapsed).unwrap_or(true) {
                    local = Some(result);
                }
            })
        });
        best.push(local.expect("at least one sample"));
    }
    group.finish();

    let fixed = &best[0];
    let elastic = &best[1];
    assert_eq!(fixed.resizes, 0, "the fixed run must never leave one replica");
    assert_eq!(elastic.digest, fixed.digest, "scale-out must not change the result multiset");

    // One folded per-operator table (tuples, feedback, batch guards and the
    // stage's elastic counters) for the winning elastic run.
    println!("{}", dsms_bench::display::metrics_table(&elastic.report));

    let speedup = elastic.throughput_tps / fixed.throughput_tps;
    println!(
        "elastic: fixed-1 {:.0} tps, elastic-1to4 {:.0} tps ({speedup:.2}x)",
        fixed.throughput_tps, elastic.throughput_tps
    );
    assert!(
        speedup > 1.5,
        "scaling out 1→4 under the spike must beat the fixed single replica by 1.5x (got {speedup:.2}x)"
    );

    let path = std::env::var("ELASTIC_JSON").unwrap_or_else(|_| "BENCH_elastic.json".to_string());
    let runs: Vec<String> =
        best.iter().map(|r| r.json(r.throughput_tps / fixed.throughput_tps)).collect();
    let json = format!(
        concat!(
            "{{\"bench\":\"elastic\",\"workload\":\"spike\",\"lookup_cost_us\":{},",
            "\"ingress_cost_us\":{},\"cost_model\":\"blocking_io\",\"max_width\":{},",
            "\"runs\":[{}]}}\n"
        ),
        LOOKUP_COST.as_micros(),
        INGRESS_COST.as_micros(),
        MAX_WIDTH,
        runs.join(",")
    );
    if let Err(err) = std::fs::write(&path, &json) {
        eprintln!("elastic: could not write {path}: {err}");
    } else {
        println!("elastic: JSON report written to {path}");
    }
}

criterion_group!(benches, elastic);
criterion_main!(benches);
