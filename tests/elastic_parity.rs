//! Resize-parity property suite: elastic repartitioning must be
//! **semantically invisible**.
//!
//! Each case runs the same keyed, stateful stage — shuffle → `WindowAggregate`
//! replicas → merge — twice: once at a fixed width of 4 and once elastically,
//! driven by a *random* resize schedule (a `ElasticPolicy::Scripted` list of
//! `(punctuation boundary, target width)` moves, clocked by the shuffle's
//! input).  Every schedule contains at least one scale-out and one scale-in,
//! and every elastic run must commit every scripted move, in order, and
//! produce a sink digest byte-identical to the fixed run on both executors,
//! with `feedback_dropped == 0`.
//!
//! The stage runs under maximal back-pressure (`queue_capacity = 1`,
//! `page_capacity = 2`) so migration buffering, routing-epoch switches and the
//! Migrate/Ack/Commit handshake interleave with credit exhaustion — timing
//! bugs become digest mismatches or deadlocks.  Two never-matching feedback
//! subscriptions (one midstream, one at flush) ride along so the
//! membership-aware lattice merge in the shuffle is exercised while replicas
//! come and go.

use feedback_dsms::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_WIDTH: usize = 4;

fn schema() -> SchemaRef {
    Schema::shared(&[("ts", DataType::Timestamp), ("key", DataType::Int), ("v", DataType::Float)])
}

fn tuples() -> Vec<Tuple> {
    (0..600)
        .map(|i| {
            Tuple::new(
                schema(),
                vec![
                    Value::Timestamp(Timestamp::from_secs(i)),
                    Value::Int(i % 32),
                    Value::Float((i % 17) as f64),
                ],
            )
        })
        .collect()
}

fn replica(i: usize) -> WindowAggregate {
    WindowAggregate::new(
        format!("replica-{i}"),
        schema(),
        "ts",
        StreamDuration::from_secs(60),
        &["key"],
        AggregateFunction::Sum("v".into()),
    )
    .unwrap()
}

/// Canonical digest: debug-rendered value rows, sorted and joined — two runs
/// are equivalent iff their digests are byte-identical.
fn digest(tuples: &[Tuple]) -> String {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows.join("\n")
}

/// A never-matching pattern over the stage's *output* schema so feedback
/// flows through the whole control path (merge broadcast → replica relays →
/// shuffle lattice → source) without perturbing the data digest.
fn never_matching(salt: i64) -> Pattern {
    Pattern::for_attributes(
        replica(0).output_schema().clone(),
        &[("key", PatternItem::Ge(Value::Int(i64::MAX / 2 + salt)))],
    )
    .unwrap()
}

/// A random resize schedule with a guaranteed scale-out then scale-in inside
/// the first ten punctuation boundaries, plus up to two extra random moves
/// later — all before boundary 17, well inside the 30 boundaries the
/// shuffle's input carries (600 tuples, one punctuation per 20 s).
fn random_schedule(rng: &mut StdRng) -> (usize, Vec<(u64, usize)>) {
    let initial = rng.gen_range(1..=MAX_WIDTH - 1);
    let mut moves = Vec::new();
    let mut width = initial;
    let mut mark = rng.gen_range(2..5) as u64;

    let out = rng.gen_range(width + 1..=MAX_WIDTH);
    moves.push((mark, out));
    width = out;
    mark += rng.gen_range(2..5) as u64;

    let back_in = rng.gen_range(1..width);
    moves.push((mark, back_in));
    width = back_in;

    for _ in 0..rng.gen_range(0..3) {
        mark += rng.gen_range(2..5) as u64;
        let next = rng.gen_range(1..=MAX_WIDTH);
        if next != width {
            moves.push((mark, next));
            width = next;
        }
    }
    (initial, moves)
}

enum Executor {
    Sync,
    Pooled,
}

/// Composes the stage (fixed width when `schedule` is `None`, elastic
/// otherwise) under maximal back-pressure and runs it on the chosen executor.
fn run_stage(
    executor: &Executor,
    schedule: Option<(usize, Vec<(u64, usize)>)>,
) -> (ExecutionReport, String) {
    let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
    let out_schema = replica(0).output_schema().clone();
    let shuffle = Shuffle::new("shuffle", schema(), &["key"], MAX_WIDTH).unwrap();
    let merge = Merge::new("merge", out_schema, MAX_WIDTH);
    let source = builder
        .source(
            VecSource::new("source", tuples())
                .with_punctuation("ts", StreamDuration::from_secs(20)),
        )
        .unwrap();
    let staged = match schedule {
        None => source.partitioned_stage(shuffle, merge, replica).unwrap(),
        Some((initial, moves)) => source
            .elastic_stage(shuffle, merge, initial, ElasticPolicy::Scripted(moves), replica)
            .unwrap(),
    };
    let results = staged
        .with_feedback(FeedbackSpec::assumed(never_matching(0)).after_tuples(64))
        .unwrap()
        .with_feedback(FeedbackSpec::assumed(never_matching(1)).at_flush())
        .unwrap()
        .sink_collect("sink")
        .unwrap();
    let plan = builder.build().unwrap();
    let report = match executor {
        Executor::Sync => SyncExecutor::run(plan).unwrap(),
        Executor::Pooled => PooledExecutor::run(plan).unwrap(),
    };
    let collected = results.lock().clone();
    (report, digest(&collected))
}

#[test]
fn random_resize_schedules_preserve_the_fixed_partition_digest() {
    let (fixed_report, expected) = run_stage(&Executor::Sync, None);
    assert!(!expected.is_empty());
    assert_eq!(fixed_report.total_feedback_dropped(), 0);

    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xE1A5_7100 + seed);
        let (initial, moves) = random_schedule(&mut rng);
        for executor in [Executor::Sync, Executor::Pooled] {
            let label = format!(
                "seed={seed} initial={initial} moves={moves:?} executor={}",
                match executor {
                    Executor::Sync => "sync",
                    Executor::Pooled => "pooled",
                }
            );
            let (report, got) = run_stage(&executor, Some((initial, moves.clone())));
            assert_eq!(got, expected, "{label}: digest must match the fixed-width run");
            assert_eq!(report.total_feedback_dropped(), 0, "{label}");

            let stats = report
                .operator("shuffle")
                .unwrap()
                .elastic
                .clone()
                .expect("elastic shuffles report elastic stats");
            let scripted: Vec<usize> = moves.iter().map(|&(_, width)| width).collect();
            let committed: Vec<usize> = stats.epochs.iter().map(|&(_, width)| width).collect();
            assert_eq!(committed, scripted, "{label}: every scripted move commits, in order");
            assert_eq!((stats.cancelled, stats.unreached), (0, 0), "{label}: {stats:?}");
            let mut width = initial;
            let mut grew = false;
            let mut shrank = false;
            for &(_, committed) in &stats.epochs {
                grew |= committed > width;
                shrank |= committed < width;
                width = committed;
            }
            assert!(grew && shrank, "{label}: schedule must scale out AND in: {stats:?}");

            // Both riding subscriptions crossed the elastic stage: unanimity
            // over the *current* membership released them to the source.
            assert!(
                report.operator("source").unwrap().feedback_in >= 2,
                "{label}: midstream and at-flush feedback must reach the source"
            );
        }
    }
}

/// The stage's merge keeps plain min-watermark progress over all four
/// inputs: dormant replicas receive every progress punctuation, so combined
/// progress flows while only one replica is active, and across a scale-out
/// and a scale-in it is exactly the fixed-width run's sequence — strictly
/// increasing, never regressing.
#[test]
fn merge_progress_flows_through_dormant_replicas_and_never_regresses() {
    let run = |executor: &Executor, elastic: bool| {
        let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
        let shuffle = Shuffle::new("shuffle", schema(), &["key"], MAX_WIDTH).unwrap();
        let merge = Merge::new("merge", schema(), MAX_WIDTH).with_progress_on("ts");
        let pass = |i| Select::new(format!("pass-{i}"), schema(), TuplePredicate::always());
        let source = builder
            .source(
                VecSource::new("source", tuples())
                    .with_punctuation("ts", StreamDuration::from_secs(20)),
            )
            .unwrap();
        let staged = if elastic {
            let moves = ElasticPolicy::Scripted(vec![(10, MAX_WIDTH), (20, 1)]);
            source.elastic_stage(shuffle, merge, 1, moves, pass).unwrap()
        } else {
            source.partitioned_stage(shuffle, merge, pass).unwrap()
        };
        let (sink, _) = CollectSink::new("sink");
        let progress = sink.punctuation_handle();
        staged.sink(sink).unwrap();
        let plan = builder.build().unwrap();
        let report = match executor {
            Executor::Sync => SyncExecutor::run(plan).unwrap(),
            Executor::Pooled => PooledExecutor::run(plan).unwrap(),
        };
        let watermarks: Vec<Timestamp> =
            progress.lock().iter().filter_map(|p| p.watermark_for("ts")).collect();
        (report, watermarks)
    };

    for executor in [Executor::Sync, Executor::Pooled] {
        let (_, fixed) = run(&executor, false);
        let (report, resized) = run(&executor, true);
        let stats = report.operator("shuffle").unwrap().elastic.clone().unwrap();
        assert_eq!(stats.epochs, vec![(1, MAX_WIDTH), (2, 1)], "{stats:?}");
        assert!(resized.windows(2).all(|pair| pair[0] < pair[1]), "regressed: {resized:?}");
        // The tenth boundary opens the scale-out, so the first nine
        // watermarks cover input routed while three replicas were dormant.
        assert!(fixed.len() >= 20, "one combined watermark per boundary: {fixed:?}");
        assert_eq!(resized, fixed, "progress identical to the fixed-width stage");
    }
}
