//! Multi-query isolation properties of the [`PipelineManager`], under
//! maximal back-pressure (`queue_capacity = 1`) on both executors:
//!
//! 1. **Feedback isolation** — desired-intent feedback issued inside one
//!    query never reaches a sibling's private operators, and never reaches
//!    the shared source unless *every* sharer asserts the same round (the
//!    [`SharedFanout`]'s unanimity lattice).
//! 2. **Lifecycle isolation** — attaching or detaching a query mid-stream at
//!    a punctuation boundary leaves every sibling's sink digest
//!    byte-identical to a solo (manager-less) run of the same plan.
//!
//! Both hold below a shared window aggregate too: a private pattern stays in
//! its query's fan-out port, and membership changes there commit at the
//! aggregate's output punctuation, i.e. at a window boundary.

use feedback_dsms::operators::SinkHandle;
use feedback_dsms::prelude::*;
use proptest::prelude::*;

fn schema() -> SchemaRef {
    Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
}

fn feed(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|v| {
            Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(v)), Value::Int(v)])
        })
        .collect()
}

fn source(n: i64) -> VecSource {
    VecSource::new("feed", feed(n))
        .with_punctuation("timestamp", StreamDuration::from_secs(4))
        .with_batch_size(4)
}

fn evens() -> TuplePredicate {
    TuplePredicate::new("v is even", |t| t.int("v").map(|v| v % 2 == 0).unwrap_or(false))
}

fn odds() -> TuplePredicate {
    TuplePredicate::new("v is odd", |t| t.int("v").map(|v| v % 2 != 0).unwrap_or(false))
}

/// A desired-intent pattern all subscribers share, so rounds can meet in the
/// fan-out's unanimity lattice.  Desired feedback prioritizes rather than
/// suppresses, so it perturbs no digest.
fn wanted() -> Pattern {
    Pattern::for_attributes(schema(), &[("v", PatternItem::Eq(Value::Int(2)))]).unwrap()
}

/// A never-matching assumed pattern: assumed is the intent operators *relay*
/// toward the source (it is what would let the source slow down), and a
/// never-matching guard suppresses nothing, so digests stay untouched.
fn never_matching() -> Pattern {
    Pattern::for_attributes(schema(), &[("v", PatternItem::Ge(Value::Int(i64::MAX / 2)))]).unwrap()
}

fn digest(handle: &SinkHandle) -> String {
    let mut rows: Vec<String> = handle.lock().iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows.join("\n")
}

/// Solo (manager-less) reference run: `source → select → sink`, sync.
fn solo_digest(n: i64, predicate: TuplePredicate) -> String {
    let builder = StreamBuilder::new().with_queue_capacity(1);
    let handle = builder
        .source(source(n))
        .unwrap()
        .select("filter", predicate)
        .unwrap()
        .sink_collect("sink")
        .unwrap();
    SyncExecutor::run(builder.build().unwrap()).unwrap();
    digest(&handle)
}

/// Builds `source_ref → select → [desired subscription] → sink` against the
/// manager's named source.
fn managed_plan(
    manager: &PipelineManager,
    predicate: TuplePredicate,
    subscriptions: &[FeedbackSpec],
) -> (feedback_dsms::engine::QueryPlan, SinkHandle) {
    let builder = StreamBuilder::new();
    let mut stream = builder
        .source(manager.source_ref("feed").unwrap())
        .unwrap()
        .select("filter", predicate)
        .unwrap();
    for spec in subscriptions {
        stream = stream.with_feedback(spec.clone()).unwrap();
    }
    let handle = stream.sink_collect("sink").unwrap();
    (builder.build().unwrap(), handle)
}

const EXECUTORS: [ExecutorKind; 2] = [ExecutorKind::Sync, ExecutorKind::Pooled];

fn max_v() -> AggregateFunction {
    AggregateFunction::Max("v".into())
}

/// `source → select(evens) → aggregate(function, 8-s windows) →
/// [subscriptions] → sink`; the aggregate is named after `function` alone,
/// so equal configurations share one instance.
fn aggregate_plan(
    source: impl Operator + 'static,
    function: AggregateFunction,
    subscriptions: &[FeedbackSpec],
) -> (feedback_dsms::engine::QueryPlan, SinkHandle) {
    let builder = StreamBuilder::new().with_queue_capacity(1);
    let mut stream = builder
        .source(source)
        .unwrap()
        .select("filter", evens())
        .unwrap()
        .aggregate(function.output_name(), "timestamp", StreamDuration::from_secs(8), &[], function)
        .unwrap();
    for spec in subscriptions {
        stream = stream.with_feedback(spec.clone()).unwrap();
    }
    let handle = stream.sink_collect("sink").unwrap();
    (builder.build().unwrap(), handle)
}

fn solo_aggregate_digest(n: i64, function: AggregateFunction) -> String {
    let (plan, handle) = aggregate_plan(source(n), function, &[]);
    SyncExecutor::run(plan).unwrap();
    digest(&handle)
}

fn is_subset(partial: &str, solo: &str) -> bool {
    let solo_rows: Vec<&str> = solo.lines().collect();
    partial.lines().all(|row| solo_rows.contains(&row))
}

/// Every private operator of the named query must be feedback-silent.
fn assert_feedback_silent(outcome: &ManagerOutcome, query: &str) {
    let report = outcome.query(query).unwrap();
    for metric in &report.metrics {
        assert_eq!(
            (metric.feedback_in, metric.feedback_out),
            (0, 0),
            "{query}/{} must never see a sibling's feedback",
            metric.operator
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Three queries — two sharing a filter prefix, one with its own — where
    /// only the first issues desired feedback: the feedback reaches its own
    /// fan-out port, but no sibling operator and (absent unanimity) never the
    /// shared source.  When *all* queries assert the same round, the lattice
    /// releases it and the source hears it.
    #[test]
    fn desired_feedback_stays_inside_its_query(
        n in 24i64..96,
        fire_after in 1u64..8,
        all_assert_raw in 0u8..2,
    ) {
        let all_assert = all_assert_raw == 1;
        for kind in EXECUTORS {
            let mut manager = PipelineManager::new().with_queue_capacity(1);
            manager.add_source("feed", source(n)).unwrap();
            let desired = FeedbackSpec::desired(wanted()).after_tuples(fire_after);
            let assumed = FeedbackSpec::assumed(never_matching()).after_tuples(fire_after);
            let (qa_subs, sibling_subs): (Vec<FeedbackSpec>, Vec<FeedbackSpec>) = if all_assert {
                (vec![desired, assumed.clone()], vec![assumed])
            } else {
                (vec![desired], vec![])
            };
            let (plan_a, sink_a) = managed_plan(&manager, evens(), &qa_subs);
            let (plan_b, sink_b) = managed_plan(&manager, evens(), &sibling_subs);
            let (plan_c, sink_c) = managed_plan(&manager, odds(), &sibling_subs);
            manager.register("qa", plan_a).unwrap();
            manager.register("qb", plan_b).unwrap();
            manager.register("qc", plan_c).unwrap();

            let outcome = manager.run(kind).unwrap();
            prop_assert_eq!(outcome.master.total_feedback_dropped(), 0);

            // Data parity: desired feedback never perturbs any digest.
            prop_assert_eq!(digest(&sink_a), solo_digest(n, evens()), "{:?} qa", kind);
            prop_assert_eq!(digest(&sink_b), solo_digest(n, evens()), "{:?} qb", kind);
            prop_assert_eq!(digest(&sink_c), solo_digest(n, odds()), "{:?} qc", kind);

            // The subscription fired inside qa…
            let qa = outcome.query("qa").unwrap();
            prop_assert!(
                qa.operator("sink").unwrap().feedback_out >= 1,
                "{:?}: qa's subscription must fire", kind
            );

            let source_heard = outcome.master.operator("feed").unwrap().feedback_in;
            if all_assert {
                // …and with every sharer asserting the same assumed round,
                // the lattice releases it upstream to the shared source.
                prop_assert!(source_heard >= 1, "{:?}: unanimous feedback reaches the source", kind);
            } else {
                // …but no sibling operator saw it, and the source stays
                // undisturbed because qb and qc never agreed.
                assert_feedback_silent(&outcome, "qb");
                assert_feedback_silent(&outcome, "qc");
                prop_assert_eq!(
                    source_heard, 0,
                    "{:?}: the source must not slow down until every sharer agrees", kind
                );
            }
        }
    }

    /// Detaching (or late-attaching) one query at a scripted punctuation
    /// boundary leaves its siblings' sinks byte-identical to solo runs, on
    /// every executor.
    #[test]
    fn lifecycle_changes_never_disturb_siblings(
        n in 32i64..96,
        boundary in 1u64..5,
        late_attach_raw in 0u8..2,
    ) {
        let late_attach = late_attach_raw == 1;
        let solo_evens = solo_digest(n, evens());
        let solo_odds = solo_digest(n, odds());
        for kind in EXECUTORS {
            let mut manager = PipelineManager::new().with_queue_capacity(1);
            manager.add_source("feed", source(n)).unwrap();
            let (plan_a, sink_a) = managed_plan(&manager, evens(), &[]);
            let (plan_b, sink_b) = managed_plan(&manager, evens(), &[]);
            let (plan_c, sink_c) = managed_plan(&manager, odds(), &[]);
            manager.register("qa", plan_a).unwrap();
            manager.register("qc", plan_c).unwrap();
            if late_attach {
                manager.register_detached("qb", plan_b).unwrap();
                manager.attach_at("qb", boundary).unwrap();
            } else {
                manager.register("qb", plan_b).unwrap();
                manager.detach_at("qb", boundary).unwrap();
            }

            let outcome = manager.run(kind).unwrap();
            prop_assert_eq!(outcome.master.total_feedback_dropped(), 0);
            prop_assert_eq!(
                digest(&sink_a), solo_evens.clone(),
                "{:?}: sibling qa must be byte-identical to its solo run", kind
            );
            prop_assert_eq!(
                digest(&sink_c), solo_odds.clone(),
                "{:?}: sibling qc must be byte-identical to its solo run", kind
            );
            // The steered query saw a subset of the solo output, cut at a
            // punctuation boundary.
            let partial = digest(&sink_b);
            let solo_rows: Vec<&str> = solo_evens.lines().collect();
            prop_assert!(
                partial.lines().all(|row| solo_rows.contains(&row)),
                "{:?}: the steered query saw only tuples from the solo result", kind
            );
            prop_assert_eq!(outcome.summary.queries_registered, 3);
            if late_attach {
                prop_assert_eq!(outcome.summary.queries_active, 3);
            } else {
                prop_assert_eq!(outcome.summary.queries_stopped, 1);
            }
        }
    }

    /// Three queries share `select → max`, and one asserts a private assumed
    /// pattern on the aggregate's output.  The pattern stays in that
    /// query's fan-out port: the shared aggregate purges nothing, the source
    /// hears nothing, and the siblings match their solo runs.
    #[test]
    fn a_private_pattern_on_a_shared_aggregate_stays_private(
        n in 24i64..96,
        fire_after in 0u64..3,
        threshold in 0i64..40,
    ) {
        let solo = solo_aggregate_digest(n, max_v());
        for kind in EXECUTORS {
            let mut manager = PipelineManager::new().with_queue_capacity(1);
            manager.add_source("feed", source(n)).unwrap();
            let results = Schema::shared(&[("window", DataType::Timestamp), ("max", DataType::Float)]);
            let high = Pattern::for_attributes(
                results,
                &[("max", PatternItem::Ge(Value::Float(threshold as f64)))],
            )
            .unwrap();
            let private = [FeedbackSpec::assumed(high).after_tuples(fire_after)];
            let (plan_a, sink_a) =
                aggregate_plan(manager.source_ref("feed").unwrap(), max_v(), &private);
            let (plan_b, sink_b) = aggregate_plan(manager.source_ref("feed").unwrap(), max_v(), &[]);
            let (plan_c, sink_c) = aggregate_plan(manager.source_ref("feed").unwrap(), max_v(), &[]);
            manager.register("qa", plan_a).unwrap();
            manager.register("qb", plan_b).unwrap();
            manager.register("qc", plan_c).unwrap();

            let outcome = manager.run(kind).unwrap();
            prop_assert_eq!(outcome.master.total_feedback_dropped(), 0);
            prop_assert_eq!(digest(&sink_b), solo.clone(), "{:?} qb", kind);
            prop_assert_eq!(digest(&sink_c), solo.clone(), "{:?} qc", kind);
            prop_assert!(is_subset(&digest(&sink_a), &solo), "{:?} qa", kind);
            prop_assert!(
                outcome.query("qa").unwrap().operator("sink").unwrap().feedback_out >= 1,
                "{:?}: qa's subscription must fire", kind
            );
            let shared = outcome.master.operator("shared/feed/0/max").unwrap();
            prop_assert_eq!(shared.feedback_in, 0, "{:?}: the aggregate hears nothing", kind);
            prop_assert_eq!(shared.feedback.state_purged, 0, "{:?}", kind);
            prop_assert_eq!(outcome.master.operator("feed").unwrap().feedback_in, 0, "{:?}", kind);
            assert_feedback_silent(&outcome, "qb");
            assert_feedback_silent(&outcome, "qc");
        }
    }

    /// A query below a shared `select → max` detaches (or attaches late) at
    /// a scripted boundary of the fan-out after the aggregate, which counts
    /// the aggregate's output punctuation: the siblings — one sharing the
    /// aggregate, one sharing only the filter — match their solo runs, and
    /// the steered query sees only whole window results of the solo run.
    #[test]
    fn lifecycle_changes_below_a_shared_aggregate_never_disturb_siblings(
        n in 32i64..96,
        boundary in 1u64..5,
        late_attach_raw in 0u8..2,
    ) {
        let late_attach = late_attach_raw == 1;
        let solo_max = solo_aggregate_digest(n, max_v());
        let solo_count = solo_aggregate_digest(n, AggregateFunction::Count);
        for kind in EXECUTORS {
            let mut manager = PipelineManager::new().with_queue_capacity(1);
            manager.add_source("feed", source(n)).unwrap();
            let (plan_a, sink_a) = aggregate_plan(manager.source_ref("feed").unwrap(), max_v(), &[]);
            let (plan_b, sink_b) = aggregate_plan(manager.source_ref("feed").unwrap(), max_v(), &[]);
            let (plan_c, sink_c) =
                aggregate_plan(manager.source_ref("feed").unwrap(), AggregateFunction::Count, &[]);
            manager.register("qa", plan_a).unwrap();
            manager.register("qc", plan_c).unwrap();
            if late_attach {
                manager.register_detached("qb", plan_b).unwrap();
                manager.attach_at("qb", boundary).unwrap();
            } else {
                manager.register("qb", plan_b).unwrap();
                manager.detach_at("qb", boundary).unwrap();
            }

            let outcome = manager.run(kind).unwrap();
            prop_assert_eq!(outcome.master.total_feedback_dropped(), 0);
            prop_assert!(outcome.master.operator("shared/feed/0/0/max").is_some());
            prop_assert_eq!(digest(&sink_a), solo_max.clone(), "{:?} qa", kind);
            prop_assert_eq!(digest(&sink_c), solo_count.clone(), "{:?} qc", kind);
            let partial = digest(&sink_b);
            prop_assert!(is_subset(&partial, &solo_max), "{:?} qb", kind);
            if late_attach {
                prop_assert_eq!(outcome.summary.queries_active, 3);
            } else {
                prop_assert_eq!(outcome.summary.queries_stopped, 1);
            }
        }
    }
}
