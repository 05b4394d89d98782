//! `multi_query`: 64 standing queries behind `PipelineManager` on the
//! pooled executor.
//!
//! All queries read one managed source through 4 distinct select prefixes
//! (16 queries each, deduplicated into shared spines behind
//! `SharedFanout`s); each query has a private window aggregate per (1-min
//! window, detector) and a private sink.  Every query asserts one common
//! assumed pattern, which reaches the source only through the fan-outs'
//! unanimity merge; a quarter of the queries also assert a private pattern
//! that must stay on their own branch.  Membership is static.

use super::{
    cpu_seconds, run_invariants, source, thread_cpu_seconds, ManagerFigures, Rep, Workload,
};
use crate::input::{self, ColumnTest, Rng, Shape, DETECTOR, SEGMENT, SPEED, VOLUME, WINDOW_MS};
use crate::probe::Instrument;
use crate::reference::{self, Agg, ResultSet};
use crate::sink::{ResultSink, SinkLog};
use dsms_engine::QueryPlan;
use dsms_manager::{ExecutorKind, PipelineManager};
use dsms_operators::{AggregateFunction, Select, WindowAggregate};
use dsms_punctuation::{Pattern, PatternItem};
use dsms_types::{SchemaRef, StreamDuration, Tuple, Value};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SHAPE: Shape = Shape { minutes: 20, per_minute: 5_000, segments: 8, detectors: 32 };

const QUERIES: usize = 64;
const PREFIXES: usize = 4;
/// Detectors every query assumes away.
const COMMON: usize = 4;

/// The select of each prefix group.
const PREFIX: [ColumnTest; PREFIXES] = [
    ColumnTest { label: "speed >= 10", column: SPEED, test: |v| v >= 10.0 },
    ColumnTest { label: "volume >= 5", column: VOLUME, test: |v| v >= 5.0 },
    ColumnTest { label: "segment != 0", column: SEGMENT, test: |v| v != 0.0 },
    ColumnTest { label: "speed < 100", column: SPEED, test: |v| v < 100.0 },
];

const AGGS: [Agg; 4] = [Agg::AvgSpeed, Agg::MaxSpeed, Agg::Count, Agg::SumVolume];

fn function(agg: Agg) -> AggregateFunction {
    match agg {
        Agg::AvgSpeed => AggregateFunction::Avg("speed".into()),
        Agg::MaxSpeed => AggregateFunction::Max("speed".into()),
        Agg::Count => AggregateFunction::Count,
        Agg::SumVolume => AggregateFunction::Sum("volume".into()),
    }
}

/// Query `q`'s prefix group, aggregate, and whether it asserts a private
/// pattern (four queries per prefix group do, with mixed aggregates).
fn prefix_of(q: usize) -> usize {
    q % PREFIXES
}

fn agg_of(q: usize) -> usize {
    (q / PREFIXES) % AGGS.len()
}

fn is_private(q: usize) -> bool {
    q / (QUERIES / PREFIXES) == q % PREFIXES
}

pub struct MultiQuery {
    schema: SchemaRef,
    tuples: Vec<Tuple>,
    /// Reference per (prefix, aggregate).
    reference: Vec<Vec<ResultSet>>,
    common: Vec<i64>,
    /// The private detector of each query (used by private queries only).
    private: Vec<i64>,
    workers: usize,
}

impl MultiQuery {
    pub fn generate(seed: u64, workers: usize) -> Self {
        let mut rng = Rng::new(seed);
        let rows = input::readings(&SHAPE, &mut rng);
        let mut detectors: Vec<i64> = (0..SHAPE.detectors).collect();
        for i in (1..detectors.len()).rev() {
            detectors.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let common: Vec<i64> = detectors[..COMMON].to_vec();
        let others = &detectors[COMMON..];
        let private =
            (0..QUERIES).map(|_| others[rng.below(others.len() as u64) as usize]).collect();
        let schema = input::schema();
        let tuples = input::tuples(&rows, &schema);
        let reference = PREFIX
            .iter()
            .map(|p| {
                AGGS.iter()
                    .map(|&agg| {
                        reference::window_aggregate(&rows, |r| p.on_row(r), |r| r.detector, agg)
                    })
                    .collect()
            })
            .collect();
        MultiQuery { schema, tuples, reference, common, private, workers }
    }

    fn detectors_pattern(schema: &SchemaRef, detectors: &[i64]) -> Pattern {
        let item = match detectors {
            [one] => PatternItem::Eq(Value::Int(*one)),
            many => PatternItem::InSet(many.iter().copied().map(Value::Int).collect()),
        };
        Pattern::for_attributes(schema.clone(), &[("detector", item)])
            .expect("schema has a detector")
    }
}

impl Workload for MultiQuery {
    fn input(&self) -> &[Tuple] {
        &self.tuples
    }

    fn key_column(&self) -> usize {
        DETECTOR
    }

    /// Only the unanimous common pattern reaches the source.
    fn live_guards(&self, _rep: &Rep) -> Vec<Pattern> {
        vec![Self::detectors_pattern(&self.schema, &self.common)]
    }

    fn run(&self, traced: bool) -> Result<Rep, String> {
        let tuples = self.tuples.clone();
        let mut instrument = Instrument::new(traced);
        let clock = instrument.clock;
        let logs: Vec<Arc<Mutex<SinkLog>>> = (0..QUERIES).map(|_| Arc::default()).collect();
        let err = |e: dsms_engine::EngineError| e.to_string();

        let started = Instant::now();
        let mut manager = PipelineManager::new().with_worker_pool(self.workers);
        manager.add_source("readings", instrument.source(source(tuples))).map_err(err)?;
        let mut register_s = 0.0;
        for (q, log) in logs.iter().enumerate() {
            let schema = self.schema.clone();
            let prefix = &PREFIX[prefix_of(q)];
            let mut plan = QueryPlan::new();
            let source = plan.add(manager.source_ref("readings").map_err(err)?);
            let select =
                Select::new(format!("select-{}", prefix_of(q)), schema.clone(), prefix.predicate());
            let select = plan.add_boxed(instrument.wrap(select));
            let avg = WindowAggregate::new(
                format!("avg-{q}"),
                schema,
                "timestamp",
                StreamDuration::from_millis(WINDOW_MS),
                &["detector"],
                function(AGGS[agg_of(q)]),
            )
            .map_err(|e| e.to_string())?;
            let results = avg.output_schema().clone();
            let avg = plan.add_boxed(instrument.wrap(avg));
            let mut sink = ResultSink::new("sink", results.clone(), clock, log.clone())
                .with_standing_feedback(Self::detectors_pattern(&results, &self.common));
            if is_private(q) {
                sink = sink
                    .with_standing_feedback(Self::detectors_pattern(&results, &[self.private[q]]));
            }
            let sink = plan.add_boxed(instrument.wrap(sink));
            for (from, to) in [(source, select), (select, avg), (avg, sink)] {
                plan.connect_simple(from, to).map_err(err)?;
            }
            plan.validate().map_err(err)?;
            let registering = Instant::now();
            manager.register(format!("q{q}"), plan).map_err(err)?;
            register_s += registering.elapsed().as_secs_f64();
        }
        let compiling = Instant::now();
        // `start` compiles the master plan on this thread (set-up, already
        // in `setup_s`) and then spawns the executor, which may begin the
        // run before `start` returns.  So the CPU window opens before
        // `start`, and this thread's CPU spent inside it is taken out.
        let cpu_before = cpu_seconds();
        let compile_cpu_before = thread_cpu_seconds();
        manager.start(ExecutorKind::Pooled).map_err(err)?;
        let compile_cpu_s = thread_cpu_seconds() - compile_cpu_before;
        let compile_s = compiling.elapsed().as_secs_f64();
        let setup_s = started.elapsed().as_secs_f64();
        let outcome = manager.drain().map_err(err)?;
        let cpu_s = cpu_seconds() - cpu_before - compile_cpu_s;

        let stamps = instrument.stamps.lock().expect("stamps").clone();
        let emitted_at = Instrument::emitted_at(&stamps, super::SOURCE_BATCH);
        let mut verdict = reference::Verdict::default();
        let mut issued = Vec::new();
        for (q, log) in logs.iter().enumerate() {
            let log = std::mem::take(&mut *log.lock().expect("sink log"));
            let asserted = !log.issued.is_empty();
            let private = is_private(q).then_some(self.private[q]);
            let part = reference::check(
                &self.reference[prefix_of(q)][agg_of(q)],
                &log.arrivals,
                |(_, detector)| {
                    asserted && (self.common.contains(&detector) || private == Some(detector))
                },
                &emitted_at,
            );
            verdict.expected += part.expected;
            verdict.wrong += part.wrong;
            verdict.latencies_ns.extend(part.latencies_ns);
            if verdict.first_problem.is_none() {
                verdict.first_problem = part.first_problem.map(|p| format!("q{q}: {p}"));
            }
            issued.extend(log.issued);
        }
        let master = outcome.master;
        run_invariants(&master, stamps.len(), self.tuples.len(), &mut verdict);
        // The common pattern must cross every fan-out's unanimity merge to
        // the source, and the private ones must not.
        let received = master.operator("source").map(|m| m.feedback.received.assumed).unwrap_or(0);
        if received != 1 {
            verdict.wrong += 1;
            verdict.first_problem.get_or_insert(format!(
                "the source received {received} assumed feedback punctuations; expected exactly \
                 the common one"
            ));
        }
        Ok(Rep {
            setup_s,
            wall_s: master.elapsed.as_secs_f64(),
            threads: self.workers,
            cpu_s,
            manager: Some(ManagerFigures {
                register_s,
                compile_s,
                prefix_hit_rate: outcome.summary.hit_rate(),
                master_nodes: master.metrics.len(),
            }),
            report: master,
            verdict,
            issued,
            instrument,
        })
    }
}
