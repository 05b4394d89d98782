//! End-to-end throughput of the tuple/punctuation hot path.
//!
//! The paper's premise is that feedback punctuation is cheap enough to live
//! *inside* the data path: guards filter every tuple at the source and
//! shuffles re-hash every tuple.  This bench measures the per-tuple constant
//! factor of exactly those paths, on the traffic workload extended with a
//! text attribute (so tuple copies are not accidentally free), under both
//! executors:
//!
//! * **fanout4** — source → DUPLICATE×4 → four null sinks.  Stresses tuple
//!   sharing: every input tuple is handed to four consumers.
//! * **guarded_source** — a source carrying eight active (never-matching)
//!   assumed guards → null sink.  With the columnar page layout the source
//!   classifies each 64-tuple batch wholesale from column summaries
//!   (`FeedbackRegistry::decide_batch`), so this configuration measures the
//!   batch-level guard fast path.
//! * **guarded_scalar** — the same plan with batch-level guard evaluation
//!   disabled (`with_batch_guards(false)`): every tuple pays the full
//!   per-tuple `FeedbackRegistry::decide` check.  The columnar-vs-scalar
//!   contrast is `guarded_source / guarded_scalar`.
//! * **partitioned4** — source → SHUFFLE(detector)×4 → SELECT replicas →
//!   MERGE → null sink.  Stresses per-tuple hash routing and the
//!   shuffle/merge control path.
//! * **many_operators** — source → 64 chained pass-through SELECTs → null
//!   sink, with the worker pool pinned to 4.  A plan far wider than the
//!   machine: the pooled executor multiplexes the chain onto 4 workers and
//!   same-worker hand-offs never park a thread.
//!
//! Every run asserts `feedback_dropped == 0` and that no tuple was lost.
//! Throughput (tuples/sec, measured from the executor's own elapsed time,
//! excluding plan construction) is written as JSON to the path named by
//! `HOT_PATH_JSON` (default `BENCH_hot_path.local.json`, untracked — the
//! committed `BENCH_hot_path.json` records the zero-copy before/after
//! measurement and must not be clobbered by a casual local run; CI sets the
//! env var explicitly).  If `HOT_PATH_BASELINE`
//! names a JSON file from a previous run — e.g. one taken before an
//! optimisation, on the same machine — its (most recent) runs are embedded
//! as `"before"` and per-configuration speedups are printed;
//! `HOT_PATH_MIN_FANOUT_SPEEDUP` additionally gates the fan-out
//! configuration (the zero-copy change was verified with a pre-change
//! baseline at `2.0`, recording 2.72×/2.18× sync/threaded).  Baseline rows
//! for an executor this run does not have (the committed report's
//! `threaded` rows) are embedded but not compared.

use criterion::{criterion_group, criterion_main, Criterion};
use dsms_engine::{
    EngineResult, ExecutionReport, Operator, OperatorContext, PooledExecutor, StreamBuilder,
    SyncExecutor,
};
use dsms_feedback::FeedbackPunctuation;
use dsms_operators::{Duplicate, Merge, Select, Shuffle, StreamOps, TuplePredicate, VecSource};
use dsms_punctuation::{Pattern, PatternItem};
use dsms_types::{DataType, Schema, SchemaRef, StreamDuration, Tuple, Value};
use dsms_workloads::{TrafficConfig, TrafficGenerator};
use std::time::Duration;

const FAN_OUT: usize = 4;
const PARTITIONS: usize = 4;
const GUARDS: i64 = 8;
/// Chain length and pool size of the `many_operators` configuration.
const CHAIN: usize = 64;
const CHAIN_WORKERS: usize = 4;

/// Traffic schema plus a text attribute, so every tuple carries a string and
/// a copying hot path pays for it.
fn hot_schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("detector", DataType::Int),
        ("speed", DataType::Float),
        ("volume", DataType::Int),
        ("freeway", DataType::Text),
    ])
}

fn dataset() -> Vec<Tuple> {
    let config = TrafficConfig {
        segments: 16,
        detectors_per_segment: 24,
        duration: StreamDuration::from_minutes(30),
        ..TrafficConfig::default()
    };
    let schema = hot_schema();
    TrafficGenerator::new(config)
        .map(|t| {
            let seg = t.int("segment").unwrap_or(0);
            let mut values = t.values().to_vec();
            values.push(Value::from(format!(
                "Interstate-{:02} northbound near milepost {:03}",
                5 + seg % 3,
                seg * 7 + 1
            )));
            Tuple::new(schema.clone(), values)
        })
        .collect()
}

/// Sink that discards its input; arrivals are still counted by the executor's
/// per-operator metrics, so the bench can verify nothing was lost without the
/// sink itself costing anything.
struct NullSink {
    name: String,
}

impl Operator for NullSink {
    fn name(&self) -> &str {
        &self.name
    }
    fn inputs(&self) -> usize {
        1
    }
    fn outputs(&self) -> usize {
        0
    }
    fn on_tuple(&mut self, _i: usize, _t: Tuple, _c: &mut OperatorContext) -> EngineResult<()> {
        Ok(())
    }
    fn on_page(
        &mut self,
        _input: usize,
        _page: dsms_engine::Page,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        Ok(())
    }
}

fn make_source(tuples: Vec<Tuple>) -> VecSource {
    VecSource::new("source", tuples)
        .with_punctuation("timestamp", StreamDuration::from_secs(60))
        .with_batch_size(64)
}

/// A source with `GUARDS` distinct active assumed guards, none of which ever
/// matches a traffic tuple — every tuple pays the full guard check and still
/// flows through.
fn make_guarded_source(tuples: Vec<Tuple>) -> VecSource {
    let mut source = make_source(tuples);
    let mut ctx = OperatorContext::new();
    for i in 0..GUARDS {
        let pattern = Pattern::for_attributes(
            hot_schema(),
            &[("detector", PatternItem::Eq(Value::Int(-1 - i)))],
        )
        .expect("valid guard pattern");
        source
            .on_feedback(0, FeedbackPunctuation::assumed(pattern, "bench"), &mut ctx)
            .expect("guard registration");
    }
    source
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Fanout,
    GuardedSource,
    GuardedScalar,
    Partitioned,
    ManyOperators,
}

impl Config {
    const ALL: [Config; 5] = [
        Config::Fanout,
        Config::GuardedSource,
        Config::GuardedScalar,
        Config::Partitioned,
        Config::ManyOperators,
    ];

    fn label(self) -> &'static str {
        match self {
            Config::Fanout => "fanout4",
            Config::GuardedSource => "guarded_source",
            Config::GuardedScalar => "guarded_scalar",
            Config::Partitioned => "partitioned4",
            Config::ManyOperators => "many_operators",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Exec {
    Sync,
    Pooled,
}

impl Exec {
    const ALL: [Exec; 2] = [Exec::Sync, Exec::Pooled];

    fn label(self) -> &'static str {
        match self {
            Exec::Sync => "sync",
            Exec::Pooled => "pooled",
        }
    }
}

struct RunResult {
    config: Config,
    executor: &'static str,
    elapsed: Duration,
    tuples: u64,
    tuples_per_sec: f64,
    feedback_dropped: u64,
    batches_conclusive: u64,
    batches_fallback: u64,
}

fn run_once(tuples: &[Tuple], config: Config, exec: Exec) -> RunResult {
    let mut builder = StreamBuilder::new().with_page_capacity(64).with_queue_capacity(8);
    if config == Config::ManyOperators {
        builder = builder.with_worker_pool(CHAIN_WORKERS);
    }
    match config {
        Config::Fanout => {
            let stream = builder.source_as(make_source(tuples.to_vec()), hot_schema()).unwrap();
            let branches =
                stream.apply_multi(Duplicate::new("fan-out", hot_schema(), FAN_OUT)).unwrap();
            for (i, branch) in branches.into_iter().enumerate() {
                branch.sink(NullSink { name: format!("sink-{i}") }).unwrap();
            }
        }
        Config::GuardedSource => {
            let stream =
                builder.source_as(make_guarded_source(tuples.to_vec()), hot_schema()).unwrap();
            stream.sink(NullSink { name: "sink-0".into() }).unwrap();
        }
        Config::GuardedScalar => {
            let source = make_guarded_source(tuples.to_vec()).with_batch_guards(false);
            let stream = builder.source_as(source, hot_schema()).unwrap();
            stream.sink(NullSink { name: "sink-0".into() }).unwrap();
        }
        Config::Partitioned => {
            let stream = builder.source_as(make_source(tuples.to_vec()), hot_schema()).unwrap();
            let shuffle =
                Shuffle::new("hot-shuffle", hot_schema(), &["detector"], PARTITIONS).unwrap();
            let merge = Merge::new("hot-merge", hot_schema(), PARTITIONS);
            stream
                .partitioned_stage(shuffle, merge, |i| {
                    Select::new(format!("pass-{i}"), hot_schema(), TuplePredicate::always())
                })
                .unwrap()
                .sink(NullSink { name: "sink-0".into() })
                .unwrap();
        }
        Config::ManyOperators => {
            let mut stream = builder.source_as(make_source(tuples.to_vec()), hot_schema()).unwrap();
            for i in 0..CHAIN {
                stream = stream
                    .apply(Select::new(format!("pass-{i}"), hot_schema(), TuplePredicate::always()))
                    .unwrap();
            }
            stream.sink(NullSink { name: "sink-0".into() }).unwrap();
        }
    }
    let plan = builder.build().expect("valid plan");
    let report: ExecutionReport = match exec {
        Exec::Sync => SyncExecutor::run(plan).expect("run failed"),
        Exec::Pooled => PooledExecutor::run(plan).expect("run failed"),
    };

    let source = report.operator("source").expect("source metrics");
    assert_eq!(source.tuples_out, tuples.len() as u64, "guards must not suppress anything");
    let delivered: u64 = report
        .metrics
        .iter()
        .filter(|m| m.operator.starts_with("sink-"))
        .map(|m| m.tuples_in)
        .sum();
    let expected = match config {
        Config::Fanout => (tuples.len() * FAN_OUT) as u64,
        _ => tuples.len() as u64,
    };
    assert_eq!(delivered, expected, "{}: tuples lost in flight", config.label());
    let batches_conclusive: u64 =
        report.metrics.iter().map(|m| m.feedback.batches_summary_conclusive).sum();
    let batches_fallback: u64 =
        report.metrics.iter().map(|m| m.feedback.batches_summary_fallback).sum();
    if config == Config::GuardedSource {
        assert!(
            batches_conclusive > 0,
            "guarded_source must exercise the batch-level guard fast path"
        );
    }

    RunResult {
        config,
        executor: exec.label(),
        elapsed: report.elapsed,
        tuples: source.tuples_out,
        tuples_per_sec: source.tuples_out as f64 / report.elapsed.as_secs_f64().max(1e-9),
        feedback_dropped: report.total_feedback_dropped(),
        batches_conclusive,
        batches_fallback,
    }
}

impl RunResult {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"config\":\"{}\",\"executor\":\"{}\",\"elapsed_ms\":{:.3},",
                "\"tuples\":{},\"tuples_per_sec\":{:.1},\"feedback_dropped\":{},",
                "\"batches_conclusive\":{},\"batches_fallback\":{}}}"
            ),
            self.config.label(),
            self.executor,
            self.elapsed.as_secs_f64() * 1_000.0,
            self.tuples,
            self.tuples_per_sec,
            self.feedback_dropped,
            self.batches_conclusive,
            self.batches_fallback,
        )
    }
}

/// Extracts `"config":"..","executor":"..","tuples_per_sec":N` triples from a
/// previously written report (a flat scan; the report format is our own).
/// A baseline report may itself carry `"before"`/`"after"` sections; only its
/// most recent (`"after"`) runs are the baseline — comparing against an
/// embedded older generation would mask regressions.
fn parse_baseline(json: &str) -> Vec<(String, String, f64)> {
    let relevant = json.rsplit("\"after\":").next().unwrap_or(json);
    let mut out = Vec::new();
    for chunk in relevant.split("{\"config\":\"").skip(1) {
        let Some(config) = chunk.split('"').next() else { continue };
        let Some(executor) =
            chunk.split("\"executor\":\"").nth(1).and_then(|s| s.split('"').next())
        else {
            continue;
        };
        let Some(tps) = chunk
            .split("\"tuples_per_sec\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse::<f64>().ok())
        else {
            continue;
        };
        out.push((config.to_string(), executor.to_string(), tps));
    }
    out
}

fn hot_path(c: &mut Criterion) {
    let tuples = dataset();
    let mut group = c.benchmark_group("hot_path");
    // Best-of estimation: each configuration keeps its fastest sample, so a
    // larger sample count mostly buys robustness against scheduler noise.
    group.sample_size(20);

    let mut best: Vec<RunResult> = Vec::new();
    for &config in &Config::ALL {
        for &exec in &Exec::ALL {
            let mut local: Option<RunResult> = None;
            group.bench_function(format!("{}/{}", config.label(), exec.label()), |b| {
                b.iter(|| {
                    let result = run_once(&tuples, config, exec);
                    assert_eq!(result.feedback_dropped, 0, "feedback must not be dropped");
                    if local.as_ref().map(|l| result.elapsed < l.elapsed).unwrap_or(true) {
                        local = Some(result);
                    }
                })
            });
            best.push(local.expect("at least one sample"));
        }
    }
    group.finish();

    for run in &best {
        println!(
            "hot_path: {:>14}/{:<8} {:>10.0} tuples/sec  ({:.2} ms)",
            run.config.label(),
            run.executor,
            run.tuples_per_sec,
            run.elapsed.as_secs_f64() * 1_000.0
        );
    }

    // Optional before/after comparison against a same-machine baseline run.
    // `HOT_PATH_MIN_FANOUT_SPEEDUP` additionally turns the comparison into a
    // gate on the fan-out configuration; it is only meaningful when the
    // baseline predates the change being measured (the zero-copy change was
    // gated at 2.0), so the threshold is explicit rather than hardcoded —
    // re-baselining against an already-optimised report would otherwise fail
    // spuriously.
    let baseline =
        std::env::var("HOT_PATH_BASELINE").ok().and_then(|path| std::fs::read_to_string(path).ok());
    let min_fanout_speedup =
        std::env::var("HOT_PATH_MIN_FANOUT_SPEEDUP").ok().and_then(|v| v.parse::<f64>().ok());
    // Gate for the batch-guard change: guarded_source vs a pre-columnar
    // baseline (the columnar change was verified with the zero-copy-era
    // baseline at 1.5).
    let min_guarded_speedup =
        std::env::var("HOT_PATH_MIN_GUARDED_SPEEDUP").ok().and_then(|v| v.parse::<f64>().ok());
    let baseline_runs = baseline.as_deref().map(parse_baseline).unwrap_or_default();
    for run in &best {
        if let Some((_, _, before_tps)) =
            baseline_runs.iter().find(|(c, e, _)| c == run.config.label() && e == run.executor)
        {
            let speedup = run.tuples_per_sec / before_tps;
            println!(
                "hot_path: {:>14}/{:<8} speedup vs baseline: {speedup:.2}x",
                run.config.label(),
                run.executor
            );
            let gate = match run.config {
                Config::Fanout => min_fanout_speedup,
                Config::GuardedSource => min_guarded_speedup,
                _ => None,
            };
            if let Some(min) = gate {
                assert!(
                    speedup >= min,
                    "{}/{} must be >={min}x over the baseline (got {speedup:.2}x)",
                    run.config.label(),
                    run.executor
                );
            }
        }
    }

    // Default to a path the `BENCH_*.json` ignore rule keeps untracked: the
    // repo commits a `BENCH_hot_path.json` recording the zero-copy
    // before/after measurement, and a casual local run must not clobber it.
    // CI points HOT_PATH_JSON at the canonical name for its artifact upload.
    let path =
        std::env::var("HOT_PATH_JSON").unwrap_or_else(|_| "BENCH_hot_path.local.json".to_string());
    let after: Vec<String> = best.iter().map(RunResult::json).collect();
    let before = match &baseline {
        Some(text) => {
            // Re-embed the baseline's own "after" (or flat) runs as "before".
            let runs: Vec<String> = parse_baseline(text)
                .iter()
                .map(|(config, executor, tps)| {
                    format!(
                        "{{\"config\":\"{config}\",\"executor\":\"{executor}\",\
                         \"tuples_per_sec\":{tps:.1}}}"
                    )
                })
                .collect();
            format!("[{}]", runs.join(","))
        }
        None => "null".to_string(),
    };
    let json = format!(
        concat!(
            "{{\"bench\":\"hot_path\",\"workload\":\"traffic+text\",\"tuples\":{},",
            "\"fan_out\":{},\"partitions\":{},\"guards\":{},\"chain\":{},",
            "\"chain_workers\":{},\"before\":{},\"after\":[{}]}}\n"
        ),
        tuples.len(),
        FAN_OUT,
        PARTITIONS,
        GUARDS,
        CHAIN,
        CHAIN_WORKERS,
        before,
        after.join(",")
    );
    if let Err(err) = std::fs::write(&path, &json) {
        eprintln!("hot_path: could not write {path}: {err}");
    } else {
        println!("hot_path: JSON report written to {path}");
    }
}

criterion_group!(benches, hot_path);
criterion_main!(benches);
