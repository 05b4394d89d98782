//! Five standing queries over one shared traffic source, driven by the
//! multi-query [`PipelineManager`]:
//!
//! * `viewport-a` and `viewport-b` watch the same downtown segments with an
//!   **identical** select prefix — the manager instantiates the source *and*
//!   the filter once and fans the result out zero-copy;
//! * `speed-a` and `speed-b` average the speed per segment and minute behind
//!   that same filter — they share the filter with the viewports, and the
//!   window aggregate with each other, so it too runs once;
//! * `volume` keeps its own filter, so it shares only the source;
//! * `viewport-b` is stopped mid-stream at a punctuation boundary, which
//!   must leave the other queries' outputs untouched.
//!
//!     cargo run --release --example multi_query

use feedback_dsms::engine::QueryPlan;
use feedback_dsms::operators::SinkHandle;
use feedback_dsms::prelude::*;
use feedback_dsms::workloads::{TrafficConfig, TrafficGenerator};

fn viewport() -> TuplePredicate {
    TuplePredicate::new("segment < 6", |t| t.int("segment").map(|s| s < 6).unwrap_or(false))
}

fn busy() -> TuplePredicate {
    TuplePredicate::new("volume >= 8", |t| t.int("volume").map(|v| v >= 8).unwrap_or(false))
}

/// `source → select(viewport) → per-segment 1-min AVG(speed) → sink`.
fn speed_plan(source: impl Operator + 'static) -> (QueryPlan, SinkHandle) {
    let builder = StreamBuilder::new();
    let handle = builder
        .source(source)
        .expect("a source starts a stream")
        .select("filter", viewport())
        .expect("the predicate matches the traffic schema")
        .window_avg("avg", "timestamp", StreamDuration::from_minutes(1), &["segment"], "speed")
        .expect("the traffic schema has segment and speed")
        .sink_collect("sink")
        .expect("the sink consumes the stream");
    (builder.build().expect("plan is valid"), handle)
}

fn digest(handle: &SinkHandle) -> Vec<String> {
    let mut rows: Vec<String> = handle.lock().iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows
}

/// Builds `source_ref("traffic") → select → sink` against the manager.
fn register(manager: &mut PipelineManager, name: &str, predicate: TuplePredicate) -> SinkHandle {
    let builder = StreamBuilder::new();
    let handle = builder
        .source(manager.source_ref("traffic").expect("the traffic source is registered"))
        .expect("a source ref starts a stream")
        .select("filter", predicate)
        .expect("the predicate matches the traffic schema")
        .sink_collect("sink")
        .expect("the sink consumes the stream");
    manager.register(name, builder.build().expect("plan is valid")).expect("registration");
    handle
}

fn main() {
    let config = TrafficConfig::multi_query();
    let readings: Vec<Tuple> = TrafficGenerator::new(config.clone()).collect();
    println!("traffic readings generated ....... {}", readings.len());

    let feed = || {
        VecSource::new("traffic", readings.clone()).with_punctuation("timestamp", config.resolution)
    };
    let mut manager = PipelineManager::new().with_page_capacity(32).with_queue_capacity(8);
    manager.add_source("traffic", feed()).expect("the traffic feed is a valid source");

    let viewport_a = register(&mut manager, "viewport-a", viewport());
    let viewport_b = register(&mut manager, "viewport-b", viewport());
    let volume = register(&mut manager, "volume", busy());
    let mut speed_sinks = Vec::new();
    for name in ["speed-a", "speed-b"] {
        let (plan, sink) = speed_plan(manager.source_ref("traffic").expect("registered source"));
        manager.register(name, plan).expect("registration");
        speed_sinks.push(sink);
    }

    // Stop viewport-b at the 12th punctuation boundary — a consistent cut:
    // it sees a punctuation-delimited prefix of the stream, and its siblings
    // never notice.
    manager.detach_at("viewport-b", 12).expect("viewport-b is registered");

    let outcome = manager.run(ExecutorKind::Pooled).expect("the shared run succeeds");

    println!(
        "viewport rows (a / b) ............ {} / {} (b stopped early)",
        viewport_a.lock().len(),
        viewport_b.lock().len(),
    );
    println!("busy rows ........................ {}", volume.lock().len());
    assert!(
        viewport_b.lock().len() < viewport_a.lock().len(),
        "the detached query must have stopped before the stream ended"
    );

    for query in &outcome.queries {
        println!("\nquery {} (private operators):", query.name);
        print!("{}", dsms_bench::display::metrics_table(&query.report));
    }
    println!("\nshared spine and fan-outs (master plan excerpt):");
    let shared = ExecutionReport {
        elapsed: outcome.master.elapsed,
        metrics: outcome
            .master
            .metrics
            .iter()
            .filter(|m| {
                m.operator == "traffic"
                    || m.operator.starts_with("fanout/")
                    || m.operator.starts_with("shared/")
            })
            .cloned()
            .collect(),
        scheduler: outcome.master.scheduler,
    };
    print!("{}", dsms_bench::display::metrics_table(&shared));

    println!();
    print!("{}", outcome.summary);
    assert_eq!(outcome.master.total_feedback_dropped(), 0);
    assert_eq!(outcome.summary.queries_stopped, 1);
    assert_eq!(outcome.summary.queries_active, 4);
    assert!(outcome.summary.shared_prefix_hits >= 3, "source twice + the filter once");

    // The per-segment average exists once, as a shared operator, and both
    // of its sharers get exactly what a solo run of their plan produces.
    let averages: Vec<&str> = outcome
        .master
        .metrics
        .iter()
        .map(|m| m.operator.as_str())
        .filter(|name| name.ends_with("/avg"))
        .collect();
    assert_eq!(averages, ["shared/traffic/0/2/avg"], "one shared aggregate instance");
    let (solo_plan, solo_sink) = speed_plan(feed());
    SyncExecutor::run(solo_plan).expect("the solo run succeeds");
    let solo = digest(&solo_sink);
    assert!(!solo.is_empty());
    for sink in &speed_sinks {
        assert_eq!(digest(sink), solo, "a sharer's averages match the solo run");
    }
    println!("shared average rows per sharer ... {} (= solo run)", solo.len());
}
