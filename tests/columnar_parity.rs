//! Parity: the columnar page kernels must be **semantically invisible**.  On
//! the traffic workload, a pipeline running the batch-level kernels
//! (`VecSource` batch guards plus the `on_page` overrides of `Select`,
//! `Project`, `Shuffle` and `WindowAggregate`) produces byte-identical sorted
//! sink digests to the same pipeline forced onto the per-tuple fallback path
//! — for arbitrary page capacities and guard patterns, on both executors,
//! with `feedback_dropped == 0` throughout.
//!
//! The fallback pipeline is built from the *same* operators wrapped in
//! [`Costed::spinning`] with zero cost: `Costed` deliberately does not
//! override `on_page`, so every page is torn down into per-item
//! `on_tuple`/`on_punctuation` calls — the exact scalar path the kernels
//! claim to reproduce — and the source runs with `with_batch_guards(false)`.

use feedback_dsms::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

const PARTITIONS: usize = 4;

/// The executor dimension every parity case runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exec {
    Sync,
    Pooled,
}

const EXECUTORS: [Exec; 2] = [Exec::Sync, Exec::Pooled];

fn traffic_tuples() -> Vec<Tuple> {
    use feedback_dsms::workloads::{TrafficConfig, TrafficGenerator};
    let config =
        TrafficConfig { duration: StreamDuration::from_minutes(3), ..TrafficConfig::small() };
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

/// The guard under test: an *assumed* pattern over the `detector` attribute,
/// pre-installed on every guarded operator before execution so that batch
/// decisions are deterministic from the first tuple on both executors.
fn guard(schema: &SchemaRef, ge: bool, cut: i64) -> Pattern {
    let item = if ge { PatternItem::Ge(Value::Int(cut)) } else { PatternItem::Eq(Value::Int(cut)) };
    Pattern::for_attributes(schema.clone(), &[("detector", item)]).unwrap()
}

fn install(op: &mut dyn Operator, outputs: usize, pattern: &Pattern) {
    let mut ctx = OperatorContext::new();
    for output in 0..outputs {
        op.on_feedback(output, FeedbackPunctuation::assumed(pattern.clone(), "parity"), &mut ctx)
            .unwrap();
    }
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

fn make_project() -> Project {
    Project::new("narrow", traffic_schema(), &["timestamp", "detector", "speed"]).unwrap()
}

fn make_aggregate(name: String, schema: SchemaRef) -> WindowAggregate {
    WindowAggregate::new(
        name,
        schema,
        "timestamp",
        StreamDuration::from_minutes(1),
        &["detector"],
        AggregateFunction::Avg("speed".into()),
    )
    .expect("valid aggregate spec")
}

/// Builds and runs the full guarded pipeline
/// `source -> select -> project -> shuffle -> 4x aggregate -> merge -> sink`,
/// either on the columnar kernels (`columnar = true`) or forced onto the
/// per-tuple fallback, and returns the sorted sink digest plus the report.
fn run_pipeline(
    tuples: &[Tuple],
    page_capacity: usize,
    ge: bool,
    cut: i64,
    columnar: bool,
    exec: Exec,
) -> (String, ExecutionReport) {
    let input_guard = guard(&traffic_schema(), ge, cut);
    let narrow_schema = make_project().output_schema().clone();
    let narrow_guard = guard(&narrow_schema, ge, cut);

    let mut source = VecSource::new("source", tuples.to_vec())
        .with_punctuation("timestamp", StreamDuration::from_secs(60));
    install(&mut source, 1, &input_guard);
    let source = source.with_batch_guards(columnar);

    let mut select = make_select();
    install(&mut select, 1, &input_guard);
    let mut project = make_project();
    install(&mut project, 1, &narrow_guard);
    let mut shuffle =
        Shuffle::new("shuffle", narrow_schema.clone(), &["detector"], PARTITIONS).unwrap();
    // A shuffle guard only activates once every downstream partition asks for
    // it; install on all outputs so the guard is unanimous up front.
    install(&mut shuffle, PARTITIONS, &narrow_guard);

    let mut plan = QueryPlan::new().with_page_capacity(page_capacity).with_queue_capacity(8);
    let source = plan.add(source);
    let (select, project, shuffle) = if columnar {
        (plan.add(select), plan.add(project), plan.add(shuffle))
    } else {
        (
            plan.add(Costed::spinning(select, Duration::ZERO)),
            plan.add(Costed::spinning(project, Duration::ZERO)),
            plan.add(Costed::spinning(shuffle, Duration::ZERO)),
        )
    };
    let output_schema =
        make_aggregate("probe".into(), narrow_schema.clone()).output_schema().clone();
    let merge = plan.add(Merge::new("merge", output_schema, PARTITIONS));
    let (sink, results) = CollectSink::new("sink");
    let sink = plan.add(sink);

    plan.connect_simple(source, select).unwrap();
    plan.connect_simple(select, project).unwrap();
    plan.connect_simple(project, shuffle).unwrap();
    for partition in 0..PARTITIONS {
        let mut aggregate = make_aggregate(format!("AVG-{partition}"), narrow_schema.clone());
        // Aggregate feedback arrives over its *output* schema; the exploiter
        // translates the `detector` pattern into an input-side group guard.
        let output_guard = guard(aggregate.output_schema(), ge, cut);
        install(&mut aggregate, 1, &output_guard);
        let aggregate = if columnar {
            plan.add(aggregate)
        } else {
            plan.add(Costed::spinning(aggregate, Duration::ZERO))
        };
        plan.connect(shuffle, partition, aggregate, 0).unwrap();
        plan.connect(aggregate, 0, merge, partition).unwrap();
    }
    plan.connect_simple(merge, sink).unwrap();

    let report = match exec {
        Exec::Sync => SyncExecutor::run(plan).unwrap(),
        Exec::Pooled => PooledExecutor::run(plan).unwrap(),
    };
    let digest = digest(&results.lock());
    (digest, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary page capacities and assumed `detector` guards — equality
    /// and range patterns, including cuts that make whole batches conclusive
    /// and cuts that straddle batches — the columnar kernels and the
    /// per-tuple fallback produce byte-identical sorted sink digests on both
    /// executors, and no feedback is dropped.
    #[test]
    fn columnar_kernels_match_per_tuple_fallback(
        page_capacity in 1usize..24,
        ge_bit in 0u8..2,
        cut in 0i64..40,
    ) {
        let ge = ge_bit == 1;
        let tuples = traffic_tuples();
        for exec in EXECUTORS {
            let (columnar, columnar_report) =
                run_pipeline(&tuples, page_capacity, ge, cut, true, exec);
            let (fallback, fallback_report) =
                run_pipeline(&tuples, page_capacity, ge, cut, false, exec);
            prop_assert_eq!(
                &columnar,
                &fallback,
                "exec={:?} page_capacity={} ge={} cut={}: digests must be byte-identical",
                exec,
                page_capacity,
                ge,
                cut
            );
            prop_assert_eq!(columnar_report.total_feedback_dropped(), 0);
            prop_assert_eq!(fallback_report.total_feedback_dropped(), 0);
        }
    }
}

/// The columnar run actually takes the batch path: with a never-matching
/// range guard every page is summary-conclusive (`PassAll`), and with a guard
/// covering every detector the source suppresses the whole stream wholesale.
#[test]
fn columnar_runs_decide_batches_from_summaries() {
    let tuples = traffic_tuples();

    let (passed, report) = run_pipeline(&tuples, 16, true, 1_000, true, Exec::Sync);
    let conclusive: u64 =
        report.metrics.iter().map(|m| m.feedback.batches_summary_conclusive).sum();
    assert!(!passed.is_empty(), "a never-matching guard must not suppress anything");
    assert!(conclusive > 0, "summary-conclusive batches must be counted");

    let (suppressed, report) = run_pipeline(&tuples, 16, true, 0, true, Exec::Sync);
    let conclusive: u64 =
        report.metrics.iter().map(|m| m.feedback.batches_summary_conclusive).sum();
    assert!(suppressed.is_empty(), "a guard covering every detector suppresses the stream");
    assert!(conclusive > 0, "wholesale suppression must be summary-conclusive");
    assert_eq!(report.total_feedback_dropped(), 0);
}
