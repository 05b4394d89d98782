//! The traffic speed-map pipeline written with the fluent `StreamBuilder`
//! API: schema-checked composition, a hash-partitioned aggregation stage, and
//! a feedback contract declared when the plan is composed — plus the
//! Graphviz export of the lowered plan (feedback edges dashed).
//!
//!     cargo run --release --example builder_traffic

use feedback_dsms::prelude::*;
use feedback_dsms::workloads::{TrafficConfig, TrafficGenerator};

fn make_aggregate(name: String) -> WindowAggregate {
    WindowAggregate::new(
        name,
        TrafficGenerator::schema(),
        "timestamp",
        StreamDuration::from_minutes(1),
        &["segment"],
        AggregateFunction::Avg("speed".into()),
    )
    .expect("valid aggregate")
}

fn main() {
    let config =
        TrafficConfig { duration: StreamDuration::from_minutes(10), ..TrafficConfig::small() };
    let readings: Vec<Tuple> = TrafficGenerator::new(config).collect();
    println!("traffic readings generated ....... {}", readings.len());

    // Compose: source -> plausibility filter -> 4-way partitioned windowed
    // average (the aggregate changes the schema, so the merge endpoint is
    // built over its output schema) -> display sink.
    let builder = StreamBuilder::new().with_page_capacity(32).with_queue_capacity(8);
    let filtered = builder
        .source(
            VecSource::new("detectors", readings)
                .with_punctuation("timestamp", StreamDuration::from_secs(60)),
        )
        .expect("detectors is a source")
        .select(
            "plausible",
            TuplePredicate::new("0 <= speed <= 120", |t| {
                t.float("speed").map(|s| (0.0..=120.0).contains(&s)).unwrap_or(false)
            }),
        )
        .expect("select over the stream schema");

    let partitions = 4;
    let output_schema = make_aggregate("probe".into()).output_schema().clone();
    let shuffle = Shuffle::new("avg-shuffle", filtered.schema().clone(), &["segment"], partitions)
        .expect("segment is a key attribute");
    let merge = Merge::new("avg-merge", output_schema.clone(), partitions);
    let averaged = filtered
        .partitioned_stage(shuffle, merge, |i| make_aggregate(format!("AVG-{i}")))
        .expect("replica counts agree");

    // The map display's contract, declared before anything runs: after 40
    // rendered rows it assumes away segment 0 (`¬[segment = 0]`).  This line
    // fails at composition time — naming the operators — if the upstream
    // stage declared no feedback port or the pattern schema mismatched.
    let ignore_segment_0 = FeedbackSpec::assumed(
        Pattern::for_attributes(output_schema, &[("segment", PatternItem::Eq(Value::Int(0)))])
            .expect("segment survives aggregation"),
    )
    .after_tuples(40);
    let rendered = averaged
        .with_feedback(ignore_segment_0)
        .expect("the merge declares a feedback port")
        .sink_timed("map-display")
        .expect("display consumes the averages");

    let plan = builder.build().expect("plan is valid");
    println!(
        "lowered plan ..................... {} operators, {} edges",
        plan.node_count(),
        plan.edge_count()
    );
    let dot = plan.dot();
    let dashed = dot.lines().filter(|l| l.contains("style=dashed")).count();
    println!("graphviz export .................. {} feedback edges (dashed)", dashed);

    let report = PooledExecutor::run(plan).expect("execution failed");
    let rendered = rendered.lock();
    let segment0_after =
        rendered.iter().skip(41).filter(|r| r.tuple.int("segment").unwrap_or(-1) == 0).count();
    println!("speed-map rows rendered .......... {}", rendered.len());
    println!("segment-0 rows after feedback .... {segment0_after}");
    for name in ["detectors", "plausible", "avg-shuffle", "avg-merge", "map-display"] {
        if let Some(m) = report.operator(name) {
            println!(
                "operator {:<12} in={:<6} out={:<6} feedback_in={:<3} feedback_out={}",
                m.operator, m.tuples_in, m.tuples_out, m.feedback_in, m.feedback_out
            );
        }
    }
    println!(
        "\nThe display's ¬[segment = 0] was declared when the plan was composed; at run\n\
         time it crossed the merge, reached every replica, lattice-merged at the\n\
         shuffle, and stopped segment-0 work all the way up the partitioned stage."
    );
}
