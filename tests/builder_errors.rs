//! Builder error paths: the fluent API must reject bad compositions *at
//! composition time* with errors that name the offending operators — and the
//! same malformed topologies, built through the raw `QueryPlan` escape hatch,
//! must fail identically on both executors (which validate before running).

use feedback_dsms::prelude::*;

fn sensor_schema() -> SchemaRef {
    Schema::shared(&[("ts", DataType::Timestamp), ("segment", DataType::Int)])
}

fn volume_schema() -> SchemaRef {
    Schema::shared(&[("ts", DataType::Timestamp), ("volume", DataType::Float)])
}

fn readings(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(
                sensor_schema(),
                vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % 4)],
            )
        })
        .collect()
}

/// Connecting a stream into an operator declared over a different schema is
/// rejected when the edge is drawn, naming both operators and both schemas.
#[test]
fn schema_mismatched_connect_fails_at_composition_time() {
    let builder = StreamBuilder::new();
    let err = builder
        .source(VecSource::new("sensors", readings(10)))
        .unwrap()
        .apply(Select::new("by-volume", volume_schema(), TuplePredicate::always()))
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "invalid plan: cannot connect `sensors` to input 0 of `by-volume`: schema mismatch — \
         `sensors` produces (ts: timestamp, segment: int) but `by-volume` expects \
         (ts: timestamp, volume: float)"
    );
}

/// A feedback subscription on a stream whose producer declares no feedback
/// port is rejected at composition time (previously this was a silent
/// run-time no-op: the punctuation arrived and was ignored).
#[test]
fn subscription_on_operator_without_feedback_port_fails_at_composition_time() {
    // QualityFilter::without_feedback() declares FeedbackRoles::NONE.
    let builder = StreamBuilder::new();
    let quality = QualityFilter::new(
        "quality",
        sensor_schema(),
        TuplePredicate::always(),
        std::time::Duration::ZERO,
    )
    .without_feedback();
    let err = builder
        .source(VecSource::new("sensors", readings(10)))
        .unwrap()
        .apply(quality)
        .unwrap()
        .with_feedback(FeedbackSpec::assumed(Pattern::all_wildcards(sensor_schema())))
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "invalid plan: feedback subscription on `quality` rejected: the operator declares no \
         feedback port (roles: none), so the feedback would be silently ignored at run time"
    );

    // An aggregate in F0 mode (FeedbackMode::Ignore) declares no port either.
    let builder = StreamBuilder::new();
    let aggregate = WindowAggregate::new(
        "AVG-F0",
        sensor_schema(),
        "ts",
        StreamDuration::from_secs(60),
        &["segment"],
        AggregateFunction::Count,
    )
    .unwrap()
    .with_feedback_mode(feedback_dsms::operators::aggregate::FeedbackMode::Ignore);
    let averaged =
        builder.source(VecSource::new("sensors", readings(10))).unwrap().apply(aggregate).unwrap();
    let err = averaged
        .with_feedback(FeedbackSpec::assumed(Pattern::all_wildcards(sensor_schema())))
        .unwrap_err()
        .to_string();
    // Rejected for the schema first or the roles first — either way it must
    // name the operator; pin down the roles case with a matching pattern.
    assert!(err.contains("`AVG-F0`"), "{err}");
}

/// The full roles error for the F0 aggregate, with a correctly-schemed
/// pattern, is the no-feedback-port rejection.
#[test]
fn f0_aggregate_rejects_subscription_with_roles_error() {
    let builder = StreamBuilder::new();
    let aggregate = WindowAggregate::new(
        "AVG-F0",
        sensor_schema(),
        "ts",
        StreamDuration::from_secs(60),
        &["segment"],
        AggregateFunction::Count,
    )
    .unwrap()
    .with_feedback_mode(feedback_dsms::operators::aggregate::FeedbackMode::Ignore);
    let averaged =
        builder.source(VecSource::new("sensors", readings(10))).unwrap().apply(aggregate).unwrap();
    let pattern = Pattern::all_wildcards(averaged.schema().clone());
    let err = averaged.with_feedback(FeedbackSpec::assumed(pattern)).unwrap_err().to_string();
    assert_eq!(
        err,
        "invalid plan: feedback subscription on `AVG-F0` rejected: the operator declares no \
         feedback port (roles: none), so the feedback would be silently ignored at run time"
    );
}

/// The exact error a dangling hash partition produces — at `build()` time
/// through the builder, and identically from both executors when the same
/// topology is wired through the raw `QueryPlan` escape hatch.
const DANGLING_PARTITION_ERROR: &str =
    "invalid plan: `router-shuffle` routes its input across 3 output partitions but only 2 are \
     connected — every partition must be wired to a replica, or tuples hashed to the dangling \
     ports would be lost";

#[test]
fn dangling_partition_output_fails_at_build_time() {
    let builder = StreamBuilder::new();
    let shuffle = Shuffle::new("router-shuffle", sensor_schema(), &["segment"], 3).unwrap();
    let mut partitions = builder
        .source(VecSource::new("sensors", readings(30)))
        .unwrap()
        .apply_multi(shuffle)
        .unwrap()
        .into_iter();
    // Wire only two of the three partitions; drop the third stream.
    partitions.next().unwrap().sink_collect("sink-0").unwrap();
    partitions.next().unwrap().sink_collect("sink-1").unwrap();
    drop(partitions);
    let err = builder.build().unwrap_err().to_string();
    assert_eq!(err, DANGLING_PARTITION_ERROR);
}

#[test]
fn dangling_partition_output_fails_identically_on_both_executors() {
    let build_raw = || -> QueryPlan {
        let mut plan = QueryPlan::new();
        let source = plan.add(VecSource::new("sensors", readings(30)));
        let shuffle =
            plan.add(Shuffle::new("router-shuffle", sensor_schema(), &["segment"], 3).unwrap());
        let (sink0, _) = CollectSink::new("sink-0");
        let (sink1, _) = CollectSink::new("sink-1");
        let sink0 = plan.add(sink0);
        let sink1 = plan.add(sink1);
        plan.connect_simple(source, shuffle).unwrap();
        plan.connect(shuffle, 0, sink0, 0).unwrap();
        plan.connect(shuffle, 1, sink1, 0).unwrap();
        // Partition 2 dangles.
        plan
    };
    let sync_err = SyncExecutor::run(build_raw()).unwrap_err().to_string();
    let pooled_err = PooledExecutor::run(build_raw()).unwrap_err().to_string();
    assert_eq!(sync_err, DANGLING_PARTITION_ERROR);
    assert_eq!(pooled_err, DANGLING_PARTITION_ERROR);
}

/// Sources must declare (or be given) their schema, and non-source operators
/// cannot start a stream.
#[test]
fn source_arity_and_schema_requirements() {
    let builder = StreamBuilder::new();
    let err = builder
        .source(Select::new("not-a-source", sensor_schema(), TuplePredicate::always()))
        .unwrap_err()
        .to_string();
    assert_eq!(err, "invalid plan: `not-a-source` cannot be a source: it declares 1 input(s)");

    // An empty VecSource cannot infer its schema from its tuples…
    let err = builder.source(VecSource::new("empty", Vec::new())).unwrap_err().to_string();
    assert_eq!(
        err,
        "invalid plan: source `empty` does not declare its output schema; use source_as(op, \
         schema) to state it explicitly"
    );
    // …but source_as states it.
    let stream = builder.source_as(VecSource::new("empty", Vec::new()), sensor_schema()).unwrap();
    assert_eq!(stream.schema(), &sensor_schema());
    drop(stream);
}
