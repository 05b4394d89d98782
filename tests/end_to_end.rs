//! Cross-crate integration tests: whole query plans executed on both
//! executors, exercising the feedback loop end to end.

use feedback_dsms::prelude::*;
use std::time::Duration;

fn sensor_schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("speed", DataType::Float),
    ])
}

fn readings(n: i64, segments: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(
                sensor_schema(),
                vec![
                    Value::Timestamp(Timestamp::from_secs(i)),
                    Value::Int(i % segments),
                    Value::Float(20.0 + (i % 50) as f64),
                ],
            )
        })
        .collect()
}

/// source -> select -> aggregate -> sink, no feedback: both executors produce
/// the same aggregate results.
#[test]
fn executors_agree_on_windowed_aggregation() {
    let run = |pooled: bool| -> Vec<Tuple> {
        let builder = StreamBuilder::new().with_page_capacity(8);
        let results = builder
            .source(
                VecSource::new("sensors", readings(600, 3))
                    .with_punctuation("timestamp", StreamDuration::from_secs(60)),
            )
            .unwrap()
            .select(
                "moving",
                TuplePredicate::new("speed > 0", |t| t.float("speed").unwrap_or(0.0) > 0.0),
            )
            .unwrap()
            .window_avg("AVG", "timestamp", StreamDuration::from_secs(60), &["segment"], "speed")
            .unwrap()
            .sink_collect("out")
            .unwrap();
        let plan = builder.build().unwrap();
        let report = if pooled {
            PooledExecutor::run(plan).unwrap()
        } else {
            SyncExecutor::run(plan).unwrap()
        };
        assert!(report.operator("AVG").unwrap().tuples_in > 0);
        let mut out = results.lock().clone();
        out.sort_by(|a, b| a.values().cmp(b.values()));
        out
    };
    let sync_results = run(false);
    let pooled_results = run(true);
    assert_eq!(sync_results.len(), 30, "10 windows × 3 segments");
    assert_eq!(sync_results, pooled_results);
}

/// The full feedback loop: a sink assumes a segment away; the aggregate purges
/// and guards it, relays the feedback to the select, which relays it to the
/// source.  The segment disappears from the results and from upstream work.
#[test]
fn assumed_feedback_propagates_from_sink_to_source() {
    let builder = StreamBuilder::new().with_page_capacity(8);
    let averaged = builder
        .source(
            VecSource::new("sensors", readings(3_000, 3))
                .with_punctuation("timestamp", StreamDuration::from_secs(60))
                .with_batch_size(16),
        )
        .unwrap()
        .select(
            "moving",
            TuplePredicate::new("speed > 0", |t| t.float("speed").unwrap_or(0.0) > 0.0),
        )
        .unwrap()
        .window_avg("AVG", "timestamp", StreamDuration::from_secs(60), &["segment"], "speed")
        .unwrap();

    // After 5 results, the display stops caring about segment 1 — a contract
    // declared at composition time.
    let ignore_segment_1 = FeedbackSpec::assumed(
        Pattern::for_attributes(
            averaged.schema().clone(),
            &[("segment", PatternItem::Eq(Value::Int(1)))],
        )
        .unwrap(),
    )
    .after_tuples(5);
    let results = averaged.with_feedback(ignore_segment_1).unwrap().sink_timed("display").unwrap();

    let report = SyncExecutor::run(builder.build().unwrap()).unwrap();

    // Feedback travelled the whole chain.
    assert_eq!(report.operator("display").unwrap().feedback_out, 1);
    assert_eq!(report.operator("AVG").unwrap().feedback_in, 1);
    assert!(report.operator("AVG").unwrap().feedback_out >= 1, "AVG relays to SELECT");
    assert_eq!(report.operator("moving").unwrap().feedback_in, 1);
    assert!(report.operator("moving").unwrap().feedback_out >= 1, "SELECT relays to the source");
    assert_eq!(report.operator("sensors").unwrap().feedback_in, 1);

    // Results for segment 1 stop appearing after the feedback fired.
    let results = results.lock();
    let segment1_after_feedback =
        results.iter().skip(6).filter(|r| r.tuple.int("segment").unwrap() == 1).count();
    assert_eq!(segment1_after_feedback, 0);
    // Other segments keep flowing.
    assert!(results.iter().filter(|r| r.tuple.int("segment").unwrap() == 0).count() > 5);
    // Upstream suppression did real work: the source dropped segment-1 readings.
    assert!(report.operator("sensors").unwrap().feedback.tuples_suppressed > 0);
}

/// Correct exploitation end to end (Definition 1): with feedback, the result
/// is a subset of the no-feedback result, and only described tuples are
/// missing.
#[test]
fn feedback_exploitation_satisfies_definition_1() {
    let run = |with_feedback: bool| -> Vec<Tuple> {
        let builder = StreamBuilder::new();
        let counted = builder
            .source(
                VecSource::new("sensors", readings(1_200, 4))
                    .with_punctuation("timestamp", StreamDuration::from_secs(60)),
            )
            .unwrap()
            .aggregate(
                "COUNT",
                "timestamp",
                StreamDuration::from_secs(60),
                &["segment"],
                AggregateFunction::Count,
            )
            .unwrap();
        let counted = if with_feedback {
            let fb = FeedbackSpec::assumed(
                Pattern::for_attributes(
                    counted.schema().clone(),
                    &[("segment", PatternItem::Eq(Value::Int(2)))],
                )
                .unwrap(),
            )
            .after_tuples(1)
            .from_issuer("display");
            counted.with_feedback(fb).unwrap()
        } else {
            counted
        };
        let results = counted.sink_timed("display").unwrap();
        SyncExecutor::run(builder.build().unwrap()).unwrap();
        let collected: Vec<Tuple> = results.lock().iter().map(|r| r.tuple.clone()).collect();
        collected
    };

    let reference = run(false);
    let exploited = run(true);
    let feedback = FeedbackPunctuation::assumed(
        Pattern::for_attributes(
            reference[0].schema().clone(),
            &[("segment", PatternItem::Eq(Value::Int(2)))],
        )
        .unwrap(),
        "display",
    );
    let report =
        feedback_dsms::feedback::check_correct_exploitation(&reference, &exploited, &feedback);
    assert!(
        report.is_correct(),
        "invented: {:?}, wrongly dropped: {:?}",
        report.invented,
        report.wrongly_dropped
    );
    assert!(exploited.len() < reference.len(), "exploitation actually removed something");
}

/// PACE + IMPUTE end to end on a pool with one worker per node (the paced
/// source and the archival lookups overlap as they would with a thread per
/// operator): feedback reduces wasted archival lookups compared to the same
/// plan without feedback.
#[test]
fn pace_feedback_reduces_wasted_imputation_work() {
    use feedback_dsms::workloads::{ImputationConfig, ImputationGenerator};

    let run = |with_feedback: bool| -> (u64, u64) {
        let schema = ImputationGenerator::schema();
        let config = ImputationConfig { tuples: 400, ..ImputationConfig::experiment1() };
        let builder = StreamBuilder::new().with_page_capacity(4);
        let (dirty, clean) = builder
            .source_as(
                VecSource::new("sensors", ImputationGenerator::new(config).collect())
                    .with_punctuation("timestamp", StreamDuration::from_secs(1))
                    .with_batch_size(8)
                    .with_pacing(40.0),
                schema.clone(),
            )
            .unwrap()
            .split("split", TuplePredicate::new("dirty", |t| t.has_null()))
            .unwrap();
        let imputed = dirty
            .apply_as(
                Impute::new(
                    "IMPUTE",
                    "speed",
                    "detector",
                    ArchivalStore::synthetic(Duration::from_millis(3), 45.0),
                ),
                schema.clone(),
            )
            .unwrap();
        let merged = if with_feedback {
            imputed
                .combine(
                    clean,
                    Pace::new("PACE", schema, 2, "timestamp", StreamDuration::from_secs(2)),
                )
                .unwrap()
        } else {
            imputed.union(clean, "UNION").unwrap()
        };
        let _out = merged.sink_timed("out").unwrap();
        let plan = builder.build().unwrap();
        let workers = plan.node_count();
        let report = PooledExecutor::run_with_workers(plan, workers).unwrap();
        let impute_metrics = report.operator("IMPUTE").unwrap();
        (impute_metrics.tuples_out, impute_metrics.feedback.tuples_suppressed)
    };

    let (baseline_imputed, baseline_suppressed) = run(false);
    let (feedback_imputed, feedback_suppressed) = run(true);
    assert_eq!(baseline_suppressed, 0);
    assert_eq!(baseline_imputed, 200, "without feedback every dirty tuple is imputed");
    assert!(feedback_suppressed > 0, "feedback must suppress some lookups");
    assert!(feedback_imputed < baseline_imputed);
}
