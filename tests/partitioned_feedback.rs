//! Cross-partition feedback and output-equivalence tests for hash-partitioned
//! plans.
//!
//! A partitioned stage replaces one stateful operator with a
//! shuffle → N replicas → merge sandwich.  These tests pin down the two
//! contracts that make the rewrite safe:
//!
//! 1. **Output equivalence** — partitioned on its group key, a grouped
//!    aggregate produces exactly the single-replica output (as a multiset:
//!    the merge is order-insensitive), on both executors.
//! 2. **Feedback semantics** — a feedback punctuation born at the merge
//!    point is broadcast to *every* upstream replica, relays across the
//!    replicas, lattice-merges at the shuffle, and reaches the source — with
//!    `feedback_dropped == 0` even under maximal back-pressure
//!    (`queue_capacity = 1`), on both executors.

use feedback_dsms::feedback::ExplicitPolicy;
use feedback_dsms::prelude::*;
use proptest::prelude::*;

/// The executor dimension every parity case runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exec {
    Sync,
    Pooled,
}

const EXECUTORS: [Exec; 2] = [Exec::Sync, Exec::Pooled];

fn run_plan(plan: QueryPlan, exec: Exec) -> ExecutionReport {
    match exec {
        Exec::Sync => SyncExecutor::run(plan).unwrap(),
        Exec::Pooled => PooledExecutor::run(plan).unwrap(),
    }
}

/// Canonical rendering of a sink's output: value rows, sorted.  The merge is
/// an order-insensitive union, so two runs are equivalent iff their sorted
/// renderings are byte-identical.
fn canonical(tuples: &[Tuple]) -> String {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows.join("\n")
}

/// Traffic tuples for the equivalence runs (small, deterministic).
fn traffic_tuples() -> Vec<Tuple> {
    use feedback_dsms::workloads::{TrafficConfig, TrafficGenerator};
    let config = TrafficConfig {
        duration: StreamDuration::from_minutes(4),
        ..TrafficConfig::partition_scaling()
    };
    TrafficGenerator::new(config).collect()
}

fn traffic_schema() -> SchemaRef {
    feedback_dsms::workloads::TrafficGenerator::schema()
}

/// Per-detector windowed average speed — the stateful stage being
/// partitioned.  Grouped (and therefore partitionable) on `detector`.
fn make_aggregate(name: String) -> WindowAggregate {
    WindowAggregate::new(
        name,
        traffic_schema(),
        "timestamp",
        StreamDuration::from_minutes(1),
        &["detector"],
        AggregateFunction::Avg("speed".into()),
    )
    .expect("valid aggregate spec")
}

fn run_single(exec: Exec) -> (ExecutionReport, Vec<Tuple>) {
    let builder = StreamBuilder::new().with_page_capacity(32).with_queue_capacity(8);
    let results = builder
        .source(
            VecSource::new("source", traffic_tuples())
                .with_punctuation("timestamp", StreamDuration::from_secs(60)),
        )
        .unwrap()
        .apply(make_aggregate("aggregate".into()))
        .unwrap()
        .sink_collect("sink")
        .unwrap();
    let plan = builder.build().unwrap();
    let report = run_plan(plan, exec);
    let collected = results.lock().clone();
    (report, collected)
}

fn run_partitioned(exec: Exec, partitions: usize) -> (ExecutionReport, Vec<Tuple>) {
    let builder = StreamBuilder::new().with_page_capacity(32).with_queue_capacity(8);
    let shuffle =
        Shuffle::new("aggregate-shuffle", traffic_schema(), &["detector"], partitions).unwrap();
    // The aggregate changes the schema, so the merge is built over its
    // output schema.
    let output_schema = make_aggregate("probe".into()).output_schema().clone();
    let merge = Merge::new("aggregate-merge", output_schema, partitions);
    let results = builder
        .source(
            VecSource::new("source", traffic_tuples())
                .with_punctuation("timestamp", StreamDuration::from_secs(60)),
        )
        .unwrap()
        .partitioned_stage(shuffle, merge, |i| make_aggregate(format!("aggregate-{i}")))
        .unwrap()
        .sink_collect("sink")
        .unwrap();
    let plan = builder.build().unwrap();
    let report = run_plan(plan, exec);
    let collected = results.lock().clone();
    (report, collected)
}

/// The headline equivalence: for 2, 4 and 8 partitions, on both executors,
/// the partitioned aggregate's sink output is byte-identical (canonically
/// sorted) to the single-replica plan's, and no feedback is dropped.
#[test]
fn partitioned_aggregate_output_matches_single_replica() {
    for exec in EXECUTORS {
        let (single_report, single_out) = run_single(exec);
        assert!(!single_out.is_empty());
        let expected = canonical(&single_out);
        for partitions in [2, 4, 8] {
            let (report, out) = run_partitioned(exec, partitions);
            assert_eq!(
                canonical(&out),
                expected,
                "partitions={partitions} exec={exec:?}: outputs must be byte-identical after \
                 canonical sorting"
            );
            assert_eq!(report.total_feedback_dropped(), 0, "partitions={partitions} exec={exec:?}");
            assert_eq!(
                report.operator("sink").unwrap().tuples_in,
                single_report.operator("sink").unwrap().tuples_in,
                "partitions={partitions} exec={exec:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-partition feedback propagation
// ---------------------------------------------------------------------------

/// A schema-preserving replica that relays any feedback it receives upstream
/// unchanged — the cooperative behaviour the lattice merge depends on.
struct RelayingReplica {
    name: String,
}

impl Operator for RelayingReplica {
    fn name(&self) -> &str {
        &self.name
    }
    fn inputs(&self) -> usize {
        1
    }
    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> feedback_dsms::engine::EngineResult<()> {
        ctx.emit(0, tuple);
        Ok(())
    }
    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> feedback_dsms::engine::EngineResult<()> {
        ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), &self.name));
        Ok(())
    }
}

fn feedback_schema() -> SchemaRef {
    Schema::shared(&[("ts", DataType::Timestamp), ("key", DataType::Int)])
}

/// An in-order stream over `keys` distinct keys, ending with one tuple that
/// is `late_by` seconds older than its own partition's latest arrival — a
/// guaranteed disorder-bound violation at the merge (FIFO per partition
/// means its partition-mate with the newest timestamp precedes it).
fn disordered_stream(n: i64, keys: i64, late_by: i64) -> Vec<Tuple> {
    let schema = feedback_schema();
    let mut tuples: Vec<Tuple> = (0..n)
        .map(|i| {
            Tuple::new(
                schema.clone(),
                vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % keys)],
            )
        })
        .collect();
    // Same key as the final in-order tuple => same partition, FIFO-ordered
    // after it, `late_by` seconds too old.
    let last_key = (n - 1) % keys;
    tuples.push(Tuple::new(
        schema.clone(),
        vec![
            Value::Timestamp(Timestamp::from_secs((n - 1 - late_by).max(0))),
            Value::Int(last_key),
        ],
    ));
    tuples
}

/// Runs source → shuffle → N relaying replicas → merge(disorder policy) →
/// sink and returns the execution report, with replica names
/// `replica-0..replica-N`.
fn run_feedback_plan(
    exec: Exec,
    partitions: usize,
    queue_capacity: usize,
    n: i64,
    tolerance_secs: i64,
) -> ExecutionReport {
    let schema = feedback_schema();
    let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(queue_capacity);
    let keys = (partitions as i64) * 8; // plenty of keys per partition
    let shuffle = Shuffle::new("shuffle", schema.clone(), &["key"], partitions).unwrap();
    let merge = Merge::new("merge", schema.clone(), partitions).with_disorder_policy(
        ExplicitPolicy::disorder_bound("ts", StreamDuration::from_secs(tolerance_secs)),
        StreamDuration::from_secs(tolerance_secs),
    );
    let _results = builder
        .source(VecSource::new("source", disordered_stream(n, keys, 4 * tolerance_secs)))
        .unwrap()
        .partitioned_stage(shuffle, merge, |i| RelayingReplica { name: format!("replica-{i}") })
        .unwrap()
        .sink_collect("sink")
        .unwrap();
    let plan = builder.build().unwrap();
    run_plan(plan, exec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An FP emitted by the merge reaches **every** upstream replica,
    /// lattice-merges at the shuffle, and arrives at the source — with
    /// nothing dropped, under maximal back-pressure (queue_capacity = 1),
    /// on both executors.
    #[test]
    fn merge_feedback_reaches_every_replica_and_the_source(
        partitions in 2usize..9,
        n in 200i64..600,
        exec in (0usize..EXECUTORS.len()).prop_map(|i| EXECUTORS[i]),
    ) {
        let tolerance = 10;
        let report = run_feedback_plan(exec, partitions, 1, n, tolerance);

        let merge = report.operator("merge").unwrap();
        prop_assert!(
            merge.feedback.issued.assumed >= 1,
            "the disorder violation must make the merge issue feedback"
        );
        // Broadcast: every replica received every message the merge issued.
        for i in 0..partitions {
            let replica = report.operator(&format!("replica-{i}")).unwrap();
            prop_assert!(
                replica.feedback_in >= merge.feedback_out / partitions as u64,
                "replica-{i} must receive the broadcast (got {} of {})",
                replica.feedback_in,
                merge.feedback_out
            );
            prop_assert!(replica.feedback_in >= 1, "replica-{i} saw no feedback");
        }
        // Lattice merge: the shuffle saw all relays and released upstream.
        let shuffle = report.operator("shuffle").unwrap();
        prop_assert_eq!(
            shuffle.feedback_in,
            merge.feedback_out,
            "every replica relay reaches the shuffle"
        );
        prop_assert!(shuffle.feedback_out >= 1, "unanimous feedback must cross the shuffle");
        let source = report.operator("source").unwrap();
        prop_assert!(source.feedback_in >= 1, "merged feedback must reach the source");
        prop_assert_eq!(report.total_feedback_dropped(), 0, "nothing may be dropped");
    }
}

/// Deterministic version of the back-pressure case for quick failure
/// localization: 4 partitions, queue capacity 1, both executors.
#[test]
fn backpressured_partitioned_plan_drops_no_feedback() {
    for exec in EXECUTORS {
        let report = run_feedback_plan(exec, 4, 1, 400, 10);
        assert_eq!(report.total_feedback_dropped(), 0, "exec={exec:?}");
        assert!(report.operator("source").unwrap().feedback_in >= 1, "exec={exec:?}");
    }
}
