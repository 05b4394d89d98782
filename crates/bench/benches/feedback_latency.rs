//! Feedback delivery latency: wall-clock time from the moment a sink hands
//! feedback punctuation to the executor to the moment the source's
//! `on_feedback` callback runs, for both executors and for the two moments
//! that matter most:
//!
//! * **midstream** — feedback sent while data is still flowing, the paper's
//!   common case (a viewport change, an assumed punctuation).  Under the
//!   pooled executor (one worker per node) this exercises the event-driven
//!   control path: the source task must be woken by the control message's
//!   queue notification, not by a poll timer.
//! * **at_flush** — feedback sent from the sink's `on_flush`, the case the
//!   drain protocol exists for: every upstream operator has already finished
//!   producing, yet the message must still be relayed to the (live) source.
//!
//! Besides the criterion-style timing lines (which time whole plan runs),
//! the bench writes a JSON report of the measured *latencies* (per scenario:
//! samples, mean/min/max/p50 nanoseconds) to the path named by
//! `FEEDBACK_LATENCY_JSON`, or `BENCH_feedback_latency.json` in the working
//! directory by default.  CI runs this as a short smoke and uploads the JSON
//! as the `BENCH_feedback_latency.json` artifact, seeding the perf
//! trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use dsms_engine::{
    EngineResult, Operator, OperatorContext, PooledExecutor, SourceState, StreamBuilder,
    SyncExecutor,
};
use dsms_feedback::FeedbackPunctuation;
use dsms_punctuation::{Pattern, PatternItem};
use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Tuple, Value};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TUPLES: i64 = 20_000;
const FEEDBACK_AFTER: u64 = 1_000;

fn schema() -> SchemaRef {
    Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
}

/// Shared send/receive instants for one run.
#[derive(Clone, Default)]
struct Probe {
    sent: Arc<Mutex<Option<Instant>>>,
    latency: Arc<Mutex<Option<Duration>>>,
}

impl Probe {
    fn mark_sent(&self) {
        *self.sent.lock() = Some(Instant::now());
    }

    fn mark_received(&self) {
        if let Some(sent) = *self.sent.lock() {
            *self.latency.lock() = Some(sent.elapsed());
        }
    }
}

/// Source emitting a fixed stream, timestamping feedback arrival.
struct ProbeSource {
    n: i64,
    next: i64,
    probe: Probe,
}

impl Operator for ProbeSource {
    fn name(&self) -> &str {
        "source"
    }
    fn inputs(&self) -> usize {
        0
    }
    fn on_tuple(&mut self, _i: usize, _t: Tuple, _c: &mut OperatorContext) -> EngineResult<()> {
        Ok(())
    }
    fn on_feedback(
        &mut self,
        _output: usize,
        _feedback: FeedbackPunctuation,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.probe.mark_received();
        Ok(())
    }
    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        if self.next >= self.n {
            return Ok(SourceState::Exhausted);
        }
        let v = self.next;
        self.next += 1;
        ctx.emit(
            0,
            Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(v)), Value::Int(v)]),
        );
        Ok(SourceState::Producing)
    }
}

/// Sink sending one timestamped feedback message, midstream or at flush.
struct ProbeSink {
    probe: Probe,
    at_flush: bool,
    seen: u64,
    sent: bool,
}

impl ProbeSink {
    fn feedback(&self) -> FeedbackPunctuation {
        FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("v", PatternItem::Ge(Value::Int(i64::MAX / 2)))])
                .unwrap(),
            "sink",
        )
    }
}

impl Operator for ProbeSink {
    fn name(&self) -> &str {
        "sink"
    }
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> usize {
        0
    }
    fn on_tuple(&mut self, _i: usize, _t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.seen += 1;
        if !self.at_flush && !self.sent && self.seen >= FEEDBACK_AFTER {
            self.sent = true;
            let feedback = self.feedback();
            self.probe.mark_sent();
            ctx.send_feedback(0, feedback);
        }
        Ok(())
    }
    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        if self.at_flush && !self.sent {
            self.sent = true;
            let feedback = self.feedback();
            self.probe.mark_sent();
            ctx.send_feedback(0, feedback);
        }
        Ok(())
    }
}

/// Runs one plan and returns the observed sink→source feedback latency.
fn run_once(pooled: bool, at_flush: bool) -> Duration {
    let probe = Probe::default();
    let builder = StreamBuilder::new().with_page_capacity(64).with_queue_capacity(16);
    builder
        .source_as(ProbeSource { n: TUPLES, next: 0, probe: probe.clone() }, schema())
        .unwrap()
        .sink(ProbeSink { probe: probe.clone(), at_flush, seen: 0, sent: false })
        .unwrap();
    let plan = builder.build().unwrap();
    let report = if pooled {
        let workers = plan.node_count();
        PooledExecutor::run_with_workers(plan, workers).expect("run failed")
    } else {
        SyncExecutor::run(plan).expect("run failed")
    };
    assert_eq!(report.operator("source").unwrap().feedback_in, 1, "feedback must arrive");
    assert_eq!(report.total_feedback_dropped(), 0, "feedback must not be dropped");
    let latency = probe.latency.lock().expect("latency recorded");
    latency
}

struct ScenarioStats {
    executor: &'static str,
    scenario: &'static str,
    samples: Vec<Duration>,
}

impl ScenarioStats {
    fn json(&self) -> String {
        let mut ns: Vec<u128> = self.samples.iter().map(|d| d.as_nanos()).collect();
        ns.sort_unstable();
        let mean = ns.iter().sum::<u128>() / ns.len() as u128;
        format!(
            concat!(
                "{{\"executor\":\"{}\",\"scenario\":\"{}\",\"samples\":{},",
                "\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{}}}"
            ),
            self.executor,
            self.scenario,
            ns.len(),
            mean,
            ns.first().unwrap(),
            ns.last().unwrap(),
            ns[ns.len() / 2]
        )
    }
}

fn feedback_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("feedback_latency");
    group.sample_size(10);

    let mut stats: Vec<ScenarioStats> = Vec::new();
    for (executor, pooled) in [("sync", false), ("pooled", true)] {
        for (scenario, at_flush) in [("midstream", false), ("at_flush", true)] {
            let samples = Arc::new(Mutex::new(Vec::new()));
            let recorded = samples.clone();
            group.bench_function(format!("{executor}/{scenario}"), |b| {
                b.iter(|| {
                    let latency = run_once(pooled, at_flush);
                    recorded.lock().push(latency);
                    latency
                })
            });
            let samples = samples.lock().clone();
            stats.push(ScenarioStats { executor, scenario, samples });
        }
    }
    group.finish();

    let path = std::env::var("FEEDBACK_LATENCY_JSON")
        .unwrap_or_else(|_| "BENCH_feedback_latency.json".to_string());
    let scenarios: Vec<String> = stats.iter().map(ScenarioStats::json).collect();
    let json = format!(
        "{{\"bench\":\"feedback_latency\",\"tuples_per_run\":{TUPLES},\"scenarios\":[{}]}}\n",
        scenarios.join(",")
    );
    if let Err(err) = std::fs::write(&path, &json) {
        eprintln!("feedback_latency: could not write {path}: {err}");
    } else {
        println!("feedback_latency: JSON report written to {path}");
    }
}

criterion_group!(benches, feedback_latency);
criterion_main!(benches);
