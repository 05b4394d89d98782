//! Supervised recovery under deterministic fault injection, pinned across
//! both executors at maximal back-pressure (`queue_capacity = 1`).
//!
//! Every fault here is scripted by a [`Chaos`] wrapper — panic at an exact
//! tuple ordinal, a transient error that heals after k firings, a stall that
//! buffers pages — so the tests are reproducible, not probabilistic.  The
//! invariants:
//!
//! * a supervised operator (`RecoveryPolicy::Restart`) restarts in place:
//!   the checkpoint restores its state, the retained post-checkpoint suffix
//!   replays, and the **sorted sink digest is byte-identical to a fault-free
//!   run** on sync and pooled executors alike;
//! * `restarts`, `checkpoints_taken`, and `tuples_replayed` are reported,
//!   and `feedback_dropped == 0` — recovery must not eat control messages;
//! * a fail-fast operator failure carries **identical error text** on both
//!   executors (the lifecycle attributes it once, executors pass it
//!   through);
//! * an exhausted restart budget with quarantine enabled tombstones the
//!   failed stream instead of failing the run, and under a
//!   [`PipelineManager`] the quarantined query detaches from the shared
//!   fan-out while sibling digests stay byte-identical to solo runs.

use feedback_dsms::prelude::*;
use std::time::Duration;

fn schema() -> SchemaRef {
    Schema::shared(&[("ts", DataType::Timestamp), ("key", DataType::Int)])
}

fn tuples(n: i64, keys: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(
                schema(),
                vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % keys)],
            )
        })
        .collect()
}

fn source(n: i64, keys: i64) -> VecSource {
    VecSource::new("source", tuples(n, keys)).with_punctuation("ts", StreamDuration::from_secs(4))
}

/// Canonical digest: debug-rendered value rows, sorted and joined — two runs
/// are equivalent iff their digests are byte-identical.
fn digest(tuples: &[Tuple]) -> String {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows.join("\n")
}

/// A never-matching pattern so feedback exercises the full control path
/// without perturbing the data digest.
fn never_matching() -> Pattern {
    Pattern::for_attributes(schema(), &[("key", PatternItem::Ge(Value::Int(i64::MAX / 2)))])
        .unwrap()
}

fn restart(max_restarts: u32) -> RecoveryPolicy {
    RecoveryPolicy::Restart { max_restarts, backoff: Duration::ZERO }
}

#[derive(Clone, Copy, PartialEq)]
enum Exec {
    Sync,
    Pooled,
}

const EXECUTORS: [Exec; 2] = [Exec::Sync, Exec::Pooled];

impl Exec {
    fn run(self, plan: QueryPlan) -> Result<ExecutionReport, feedback_dsms::engine::EngineError> {
        match self {
            Exec::Sync => SyncExecutor::run(plan),
            Exec::Pooled => PooledExecutor::run(plan),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Exec::Sync => "sync",
            Exec::Pooled => "pooled",
        }
    }
}

/// source → chaos(shuffle) → 3 chaos(select) replicas (panic, transient
/// error, stall) → merge → sink, all queues one page deep.  With
/// `faults: false` the same topology is built fault-free (plain operators).
fn partitioned_plan(faults: bool) -> (QueryPlan, feedback_dsms::operators::SinkHandle) {
    let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
    let shuffle = Shuffle::new("shuffle", schema(), &["key"], 3).unwrap();
    let stream = builder.source(source(400, 24)).unwrap();
    let partition_streams = if faults {
        // A stall on the shuffle delays whole pages without reordering them.
        stream
            .apply_multi(Chaos::new(shuffle, FaultSpec::Stall { at_tuple: 21, steps: 2 }))
            .unwrap()
    } else {
        stream.apply_multi(shuffle).unwrap()
    };
    let mut replicas = Vec::new();
    for (i, partition) in partition_streams.into_iter().enumerate() {
        let select = Select::new(format!("replica-{i}"), schema(), TuplePredicate::always());
        let replica = if faults {
            // Thresholds sit well below the smallest partition's tuple count
            // (the key hash spreads 400 tuples unevenly across the three).
            let fault = match i {
                0 => FaultSpec::Panic { at_tuple: 20, times: 1 },
                1 => FaultSpec::Error { at_tuple: 30, times: 2 },
                _ => FaultSpec::Stall { at_tuple: 25, steps: 3 },
            };
            partition
                .apply_as(Chaos::new(select, fault), schema())
                .unwrap()
                .with_recovery(restart(3))
        } else {
            partition.apply_as(select, schema()).unwrap()
        };
        replicas.push(replica);
    }
    let merged = Stream::merge(replicas, Merge::new("merge", schema(), 3)).unwrap();
    let handle = merged
        .with_feedback(FeedbackSpec::assumed(never_matching()).at_flush())
        .unwrap()
        .sink_collect("sink")
        .unwrap();
    (builder.build().unwrap(), handle)
}

/// The tentpole invariant: panic, transient-error, and stall faults on
/// supervised replicas leave every executor's sorted sink digest
/// byte-identical to the fault-free run, with restarts and replay reported
/// and no feedback dropped.
#[test]
fn chaos_replicas_match_fault_free_digests_on_all_executors() {
    let (plan, handle) = partitioned_plan(false);
    SyncExecutor::run(plan).unwrap();
    let expected = digest(&handle.lock());
    assert!(!expected.is_empty());

    for exec in EXECUTORS {
        let (plan, handle) = partitioned_plan(true);
        let report = exec.run(plan).unwrap();
        assert_eq!(
            digest(&handle.lock()),
            expected,
            "{}: faulty digest must be byte-identical to fault-free",
            exec.name()
        );
        let recovery = report.recovery();
        // One panic + two transient errors, each absorbed by a restart; the
        // fired counts persist across restore, so replay never re-fires.
        assert_eq!(recovery.restarts, 3, "{}", exec.name());
        assert!(recovery.checkpoints_taken > 0, "{}", exec.name());
        assert!(recovery.tuples_replayed > 0, "{}", exec.name());
        assert!(recovery.quarantined.is_empty(), "{}", exec.name());
        assert_eq!(report.total_feedback_dropped(), 0, "{}", exec.name());
        // Per-operator accounting lands on the wrapped replicas.
        assert_eq!(report.operator("chaos:replica-0").unwrap().restarts, 1);
        assert_eq!(report.operator("chaos:replica-1").unwrap().restarts, 2);
        assert_eq!(report.operator("chaos:replica-2").unwrap().restarts, 0);
    }
}

/// A stateful aggregate healing from a transient error mid-window: the
/// checkpoint restores its open partials and the replayed suffix rebuilds
/// exactly the counts a fault-free run produces.
#[test]
fn aggregate_recovers_mid_window_on_all_executors() {
    let build = |faults: bool| {
        let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
        let agg = WindowAggregate::new(
            "counts",
            schema(),
            "ts",
            StreamDuration::from_secs(8),
            &["key"],
            AggregateFunction::Count,
        )
        .unwrap();
        let out_schema = agg.output_schema().clone();
        let stream = builder.source(source(240, 6)).unwrap();
        let stream = if faults {
            stream
                .apply_as(Chaos::new(agg, FaultSpec::Error { at_tuple: 50, times: 2 }), out_schema)
                .unwrap()
                .with_recovery(restart(2))
        } else {
            stream.apply(agg).unwrap()
        };
        let handle = stream.sink_collect("sink").unwrap();
        (builder.build().unwrap(), handle)
    };

    let (plan, handle) = build(false);
    SyncExecutor::run(plan).unwrap();
    let expected = digest(&handle.lock());
    assert!(!expected.is_empty());

    for exec in EXECUTORS {
        let (plan, handle) = build(true);
        let report = exec.run(plan).unwrap();
        assert_eq!(digest(&handle.lock()), expected, "{}", exec.name());
        assert_eq!(report.recovery().restarts, 2, "{}", exec.name());
        assert_eq!(report.total_feedback_dropped(), 0, "{}", exec.name());
    }
}

fn right_schema() -> SchemaRef {
    Schema::shared(&[("ts", DataType::Timestamp), ("key", DataType::Int)])
}

/// A symmetric hash join panicking with both hash tables loaded: the
/// checkpoint restores both sides and the watermark pair, and the replayed
/// probe suffix reproduces the fault-free match set.
#[test]
fn join_recovers_from_panic_on_all_executors() {
    let build = |faults: bool| {
        let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
        let join = SymmetricHashJoin::new(
            "join",
            schema(),
            right_schema(),
            &["key"],
            "ts",
            StreamDuration::from_secs(16),
        )
        .unwrap();
        let out_schema = join.output_schema().clone();
        let left = builder.source(source(120, 8)).unwrap();
        let right = builder
            .source(
                VecSource::new("right", tuples(120, 8))
                    .with_punctuation("ts", StreamDuration::from_secs(4)),
            )
            .unwrap();
        let stream = if faults {
            Stream::merge_as(
                vec![left, right],
                Chaos::new(join, FaultSpec::Panic { at_tuple: 60, times: 1 }),
                out_schema,
            )
            .unwrap()
            .with_recovery(restart(1))
        } else {
            Stream::merge(vec![left, right], join).unwrap()
        };
        let handle = stream.sink_collect("sink").unwrap();
        (builder.build().unwrap(), handle)
    };

    let (plan, handle) = build(false);
    SyncExecutor::run(plan).unwrap();
    let expected = digest(&handle.lock());
    assert!(!expected.is_empty());

    for exec in EXECUTORS {
        let (plan, handle) = build(true);
        let report = exec.run(plan).unwrap();
        assert_eq!(digest(&handle.lock()), expected, "{}", exec.name());
        assert_eq!(report.recovery().restarts, 1, "{}", exec.name());
        assert_eq!(report.total_feedback_dropped(), 0, "{}", exec.name());
    }
}

/// Satellite: a fail-fast panic is attributed once by the lifecycle's
/// guarded dispatch, and every executor surfaces the identical error text.
#[test]
fn failfast_panic_text_is_identical_across_executors() {
    let build = || {
        let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
        let select = Select::new("filter", schema(), TuplePredicate::always());
        let _ = builder
            .source(source(80, 8))
            .unwrap()
            .apply_as(Chaos::new(select, FaultSpec::Panic { at_tuple: 10, times: 1 }), schema())
            .unwrap()
            .sink_collect("sink")
            .unwrap();
        builder.build().unwrap()
    };

    let texts: Vec<String> =
        EXECUTORS.iter().map(|exec| exec.run(build()).unwrap_err().to_string()).collect();
    assert_eq!(texts[0], texts[1], "sync and pooled must agree");
    assert!(
        texts[0].contains("chaos:filter") && texts[0].contains("operator panicked"),
        "the failure names the operator and the panic: {}",
        texts[0]
    );
}

/// Satellite: quarantine tombstones relay `ControlMessage::Shutdown`
/// upstream on the pooled executor with every queue full (one page deep) —
/// the blocked producer must process control before its credit gate, so the
/// run drains instead of deadlocking.
#[test]
fn pooled_shutdown_relay_with_full_queues_does_not_deadlock() {
    let builder =
        StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1).with_worker_pool(2);
    let select = Select::new("filter", schema(), TuplePredicate::always());
    let handle = builder
        .source(source(600, 8))
        .unwrap()
        .apply_as(Chaos::new(select, FaultSpec::Panic { at_tuple: 64, times: u32::MAX }), schema())
        .unwrap()
        .quarantine_on_failure()
        .sink_collect("sink")
        .unwrap();
    let report = PooledExecutor::run(builder.build().unwrap()).unwrap();
    let recovery = report.recovery();
    assert_eq!(recovery.quarantined.len(), 1);
    assert_eq!(recovery.quarantined[0].0, "chaos:filter");
    assert_eq!(report.total_feedback_dropped(), 0);
    // The tombstone flushed and end-of-stream'd the sink: everything the
    // operator pushed before the failure was delivered, nothing hangs.
    assert!(handle.lock().len() < 600, "the quarantined stream is cut short");
}

/// Under a [`PipelineManager`], a query that exhausts its restart budget is
/// quarantined — detached from the shared fan-out, reported in the summary —
/// while its siblings' digests stay byte-identical to solo runs.
#[test]
fn exhausted_restart_budget_quarantines_query_but_not_siblings() {
    let solo = {
        let builder = StreamBuilder::new();
        let handle = builder
            .source(source(200, 8))
            .unwrap()
            .select(
                "keep-evens",
                TuplePredicate::new("even", |t| t.int("key").map(|k| k % 2 == 0).unwrap_or(false)),
            )
            .unwrap()
            .sink_collect("sink")
            .unwrap();
        SyncExecutor::run(builder.build().unwrap()).unwrap();
        let rows = digest(&handle.lock());
        rows
    };

    for kind in [ExecutorKind::Sync, ExecutorKind::Pooled] {
        let mut manager = PipelineManager::new();
        manager.add_source("feed", source(200, 8)).unwrap();

        let healthy = {
            let builder = StreamBuilder::new();
            let handle = builder
                .source(manager.source_ref("feed").unwrap())
                .unwrap()
                .select(
                    "keep-evens",
                    TuplePredicate::new("even", |t| {
                        t.int("key").map(|k| k % 2 == 0).unwrap_or(false)
                    }),
                )
                .unwrap()
                .sink_collect("sink")
                .unwrap();
            manager.register("healthy", builder.build().unwrap()).unwrap();
            handle
        };
        let doomed = {
            let builder = StreamBuilder::new();
            let select = Select::new("filter", schema(), TuplePredicate::always());
            let handle = builder
                .source(manager.source_ref("feed").unwrap())
                .unwrap()
                .apply_as(
                    Chaos::new(select, FaultSpec::Panic { at_tuple: 40, times: u32::MAX }),
                    schema(),
                )
                .unwrap()
                .with_recovery(restart(2))
                .quarantine_on_failure()
                .sink_collect("sink")
                .unwrap();
            manager.register("doomed", builder.build().unwrap()).unwrap();
            handle
        };

        let outcome = manager.run(kind).unwrap();
        assert_eq!(
            digest(&healthy.lock()),
            solo,
            "the sibling of a quarantined query must match its solo digest"
        );
        assert_eq!(outcome.summary.quarantined.len(), 1);
        assert_eq!(outcome.summary.quarantined[0].0, "doomed");
        assert!(
            outcome.summary.quarantined[0].1.contains("chaos:filter"),
            "the quarantine report names the failed operator: {}",
            outcome.summary.quarantined[0].1
        );
        // The doomed query got exactly what was pushed before its budget
        // ran out, then a clean end-of-stream.
        assert!(doomed.lock().len() < 200);
    }
}
