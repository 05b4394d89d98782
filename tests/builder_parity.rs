//! Parity: plans composed with the fluent `StreamBuilder` must lower to
//! exactly the behaviour of the equivalent hand-wired `QueryPlan` — on the
//! traffic workload, builder-built and hand-built plans produce
//! **byte-identical sorted sink digests** on both executors, for the
//! plain pipeline, the hash-partitioned stage, and the scheduled-feedback
//! path.

use feedback_dsms::prelude::*;

fn traffic_tuples() -> Vec<Tuple> {
    use feedback_dsms::workloads::{TrafficConfig, TrafficGenerator};
    let config =
        TrafficConfig { duration: StreamDuration::from_minutes(6), ..TrafficConfig::small() };
    TrafficGenerator::new(config).collect()
}

fn traffic_schema() -> SchemaRef {
    feedback_dsms::workloads::TrafficGenerator::schema()
}

/// Canonical digest of a sink's output: debug-rendered value rows, sorted and
/// joined — two plans are equivalent iff their digests are byte-identical.
fn digest(tuples: &[Tuple]) -> String {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows.join("\n")
}

/// Fixed-seed hash of a digest string, for pinning against constants.
fn digest_hash(digest: &str) -> u64 {
    use std::hash::Hasher as _;
    let mut h = dsms_types::FixedHasher::new();
    h.write(digest.as_bytes());
    h.finish()
}

fn make_source() -> VecSource {
    VecSource::new("source", traffic_tuples())
        .with_punctuation("timestamp", StreamDuration::from_secs(60))
}

fn make_select() -> Select {
    Select::new(
        "plausible",
        traffic_schema(),
        TuplePredicate::new("0 <= speed <= 120", |t| {
            t.float("speed").map(|s| (0.0..=120.0).contains(&s)).unwrap_or(false)
        }),
    )
}

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

/// The executor dimension every parity case runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exec {
    Sync,
    Pooled,
}

const EXECUTORS: [Exec; 2] = [Exec::Sync, Exec::Pooled];

fn run(plan: QueryPlan, exec: Exec) -> ExecutionReport {
    match exec {
        Exec::Sync => SyncExecutor::run(plan).unwrap(),
        Exec::Pooled => PooledExecutor::run(plan).unwrap(),
    }
}

/// source -> select -> aggregate -> sink: builder and hand-wired plans are
/// digest-identical on both executors.
#[test]
fn pipeline_digests_match_hand_built_plans() {
    for exec in EXECUTORS {
        // Hand-wired through the low-level IR.
        let mut plan = QueryPlan::new().with_page_capacity(16);
        let source = plan.add(make_source());
        let select = plan.add(make_select());
        let aggregate = plan.add(make_aggregate("AVG".into()));
        let (sink, hand_results) = CollectSink::new("sink");
        let sink = plan.add(sink);
        plan.connect_simple(source, select).unwrap();
        plan.connect_simple(select, aggregate).unwrap();
        plan.connect_simple(aggregate, sink).unwrap();
        run(plan, exec);
        let hand = digest(&hand_results.lock());
        assert!(!hand.is_empty());

        // Fluently composed.
        let builder = StreamBuilder::new().with_page_capacity(16);
        let fluent_results = builder
            .source(make_source())
            .unwrap()
            .apply(make_select())
            .unwrap()
            .apply(make_aggregate("AVG".into()))
            .unwrap()
            .sink_collect("sink")
            .unwrap();
        run(builder.build().unwrap(), exec);
        let fluent = digest(&fluent_results.lock());

        assert_eq!(hand, fluent, "exec={exec:?}: digests must be byte-identical");
        assert_eq!(
            digest_hash(&hand),
            PIPELINE_DIGEST,
            "exec={exec:?}: output diverged from the pinned pre-zero-copy digest"
        );
    }
}

/// Pinned sink digests, captured on the `Box<[Value]>`/`String` tuple
/// representation *before* the zero-copy change (`Arc<[Value]>`/`Arc<str>`),
/// hashed with the stable `FixedHasher`.  The representation of tuples and
/// text must be invisible in results: if either constant moves, a types-level
/// change leaked into observable output.
const PIPELINE_DIGEST: u64 = 0xad04_eeee_48ed_9117;
const SOURCE_DIGEST: u64 = 0xb57f_ef8e_5a35_c2e9;

/// The raw traffic stream itself digests identically to its pre-change value
/// — the `Value`/`Tuple` representation change cannot alter a single rendered
/// row.
#[test]
fn source_digest_matches_pre_representation_change_value() {
    assert_eq!(digest_hash(&digest(&traffic_tuples())), SOURCE_DIGEST);
}

/// The hash-partitioned stage: fluent `partitioned_stage` against the same
/// shuffle → replicas → merge sandwich wired node by node, digest-identical
/// on both executors with no feedback dropped.
#[test]
fn partitioned_stage_digests_match_hand_built_plans() {
    let partitions = 4;
    for exec in EXECUTORS {
        let output_schema = make_aggregate("probe".into()).output_schema().clone();

        let mut plan = QueryPlan::new().with_page_capacity(16).with_queue_capacity(8);
        let source = plan.add(make_source());
        let shuffle =
            Shuffle::new("stage-shuffle", traffic_schema(), &["detector"], partitions).unwrap();
        let merge = Merge::new("stage-merge", output_schema.clone(), partitions);
        let shuffle = plan.add(shuffle);
        let merge = plan.add(merge);
        for i in 0..partitions {
            let replica = plan.add(make_aggregate(format!("AVG-{i}")));
            plan.connect(shuffle, i, replica, 0).unwrap();
            plan.connect(replica, 0, merge, i).unwrap();
        }
        let (sink, hand_results) = CollectSink::new("sink");
        let sink = plan.add(sink);
        plan.connect_simple(source, shuffle).unwrap();
        plan.connect_simple(merge, sink).unwrap();
        let hand_report = run(plan, exec);
        let hand = digest(&hand_results.lock());

        let builder = StreamBuilder::new().with_page_capacity(16).with_queue_capacity(8);
        let shuffle =
            Shuffle::new("stage-shuffle", traffic_schema(), &["detector"], partitions).unwrap();
        let merge = Merge::new("stage-merge", output_schema, partitions);
        let fluent_results = builder
            .source(make_source())
            .unwrap()
            .partitioned_stage(shuffle, merge, |i| make_aggregate(format!("AVG-{i}")))
            .unwrap()
            .sink_collect("sink")
            .unwrap();
        let fluent_report = run(builder.build().unwrap(), exec);
        let fluent = digest(&fluent_results.lock());

        assert_eq!(hand, fluent, "exec={exec:?}: digests must be byte-identical");
        assert_eq!(hand_report.total_feedback_dropped(), 0);
        assert_eq!(fluent_report.total_feedback_dropped(), 0);
    }
}

/// Scheduled feedback: a composition-time `FeedbackSpec` subscription lowers
/// to the same observable behaviour as a hand-wired
/// `TimedSink::with_scheduled_feedback` — the feedback reaches the source on
/// both executors and (with a never-matching pattern) the digests stay
/// byte-identical.
#[test]
fn feedback_subscription_matches_hand_built_scheduled_feedback() {
    let never_matching = || {
        Pattern::for_attributes(
            traffic_schema(),
            &[("detector", PatternItem::Ge(Value::Int(i64::MAX / 2)))],
        )
        .unwrap()
    };
    for exec in EXECUTORS {
        let mut plan = QueryPlan::new().with_page_capacity(16);
        let source = plan.add(make_source());
        let select = plan.add(make_select());
        let (sink, hand_results) = TimedSink::new("sink");
        let feedback = FeedbackPunctuation::assumed(never_matching(), "sink");
        let sink = plan.add(sink.with_scheduled_feedback(32, feedback));
        plan.connect_simple(source, select).unwrap();
        plan.connect_simple(select, sink).unwrap();
        let hand_report = run(plan, exec);
        let hand_rows: Vec<Tuple> = hand_results.lock().iter().map(|r| r.tuple.clone()).collect();

        let builder = StreamBuilder::new().with_page_capacity(16);
        let fluent_results = builder
            .source(make_source())
            .unwrap()
            .apply(make_select())
            .unwrap()
            .with_feedback(FeedbackSpec::assumed(never_matching()).after_tuples(32))
            .unwrap()
            .sink_timed("sink")
            .unwrap();
        let fluent_report = run(builder.build().unwrap(), exec);
        let fluent_rows: Vec<Tuple> =
            fluent_results.lock().iter().map(|r| r.tuple.clone()).collect();

        assert_eq!(
            digest(&hand_rows),
            digest(&fluent_rows),
            "exec={exec:?}: digests must be byte-identical"
        );
        // The plausibility select passes every generated tuple and the
        // scheduled feedback never matches, so this path must reproduce the
        // source stream — pinned to its pre-zero-copy digest.
        assert_eq!(
            digest_hash(&digest(&hand_rows)),
            SOURCE_DIGEST,
            "exec={exec:?}: output diverged from the pinned pre-zero-copy digest"
        );
        for report in [&hand_report, &fluent_report] {
            assert_eq!(report.operator("sink").unwrap().feedback_out, 1);
            assert_eq!(report.operator("plausible").unwrap().feedback_in, 1);
            assert_eq!(report.total_feedback_dropped(), 0);
        }
    }
}
