//! `pipeline`: a feedback-free partitioned plan on the pooled executor.
//!
//! source → 8 chained SELECTs (speed, volume, segment, detector predicates)
//! → PROJECT → SHUFFLE(detector) × 4 → AVG per (1-min window, detector)
//! under `RecoveryPolicy::Restart` → MERGE → sink.  Nothing issues
//! feedback, so queue hops, scheduling, hashing, checkpoints and stateless
//! kernels do the work.

use super::{cpu_seconds, run_invariants, source, Rep, Workload};
use crate::input::{self, ColumnTest, Rng, Shape, DETECTOR, SEGMENT, SPEED, VOLUME, WINDOW_MS};
use crate::probe::Instrument;
use crate::reference::{self, Agg, ResultSet};
use crate::sink::{ResultSink, SinkLog};
use dsms_engine::{PooledExecutor, QueryPlan, RecoveryPolicy};
use dsms_operators::{AggregateFunction, Merge, Project, Select, Shuffle, WindowAggregate};
use dsms_punctuation::Pattern;
use dsms_types::{SchemaRef, StreamDuration, Tuple};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHAPE: Shape = Shape { minutes: 120, per_minute: 8_000, segments: 8, detectors: 64 };

const PARTITIONS: usize = 4;

/// The select chain.
const FILTERS: [ColumnTest; 8] = [
    ColumnTest { label: "speed >= 0", column: SPEED, test: |v| v >= 0.0 },
    ColumnTest { label: "speed <= 120", column: SPEED, test: |v| v <= 120.0 },
    ColumnTest { label: "volume >= 1", column: VOLUME, test: |v| v >= 1.0 },
    ColumnTest { label: "volume <= 38", column: VOLUME, test: |v| v <= 38.0 },
    ColumnTest { label: "segment != 7", column: SEGMENT, test: |v| v != 7.0 },
    ColumnTest { label: "speed > 5", column: SPEED, test: |v| v > 5.0 },
    ColumnTest { label: "detector >= 2", column: DETECTOR, test: |v| v >= 2.0 },
    ColumnTest { label: "speed < 110", column: SPEED, test: |v| v < 110.0 },
];

pub struct Pipeline {
    schema: SchemaRef,
    tuples: Vec<Tuple>,
    reference: ResultSet,
    workers: usize,
}

impl Pipeline {
    pub fn generate(seed: u64, workers: usize) -> Self {
        let rows = input::readings(&SHAPE, &mut Rng::new(seed));
        let schema = input::schema();
        let tuples = input::tuples(&rows, &schema);
        let reference = reference::window_aggregate(
            &rows,
            |r| FILTERS.iter().all(|f| f.on_row(r)),
            |r| r.detector,
            Agg::AvgSpeed,
        );
        Pipeline { schema, tuples, reference, workers }
    }
}

impl Workload for Pipeline {
    fn input(&self) -> &[Tuple] {
        &self.tuples
    }

    fn key_column(&self) -> usize {
        DETECTOR
    }

    fn live_guards(&self, _rep: &Rep) -> Vec<Pattern> {
        Vec::new()
    }

    fn run(&self, traced: bool) -> Result<Rep, String> {
        let tuples = self.tuples.clone();
        let mut instrument = Instrument::new(traced);
        let clock = instrument.clock;
        let log: Arc<Mutex<SinkLog>> = Arc::default();
        let err = |e: dsms_engine::EngineError| e.to_string();

        let started = Instant::now();
        let schema = self.schema.clone();
        let mut plan = QueryPlan::new();
        let mut tail = plan.add(instrument.source(source(tuples)));
        for (i, filter) in FILTERS.iter().enumerate() {
            let select = Select::new(format!("select-{i}"), schema.clone(), filter.predicate());
            let node = plan.add_boxed(instrument.wrap(select));
            plan.connect_simple(tail, node).map_err(err)?;
            tail = node;
        }
        let project = Project::new("project", schema, &["timestamp", "detector", "speed"])
            .map_err(|e| e.to_string())?;
        let projected = project.output_schema().clone();
        let node = plan.add_boxed(instrument.wrap(project));
        plan.connect_simple(tail, node).map_err(err)?;
        let shuffle =
            Shuffle::new("shuffle", projected.clone(), &["detector"], PARTITIONS).map_err(err)?;
        let shuffle_node = plan.add_boxed(instrument.wrap(shuffle));
        plan.connect_simple(node, shuffle_node).map_err(err)?;
        let replicas = (0..PARTITIONS)
            .map(|i| {
                WindowAggregate::new(
                    format!("avg-{i}"),
                    projected.clone(),
                    "timestamp",
                    StreamDuration::from_millis(WINDOW_MS),
                    &["detector"],
                    AggregateFunction::Avg("speed".into()),
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let results = replicas[0].output_schema().clone();
        let merge = Merge::new("merge", results.clone(), PARTITIONS);
        let merge = plan.add_boxed(instrument.wrap(merge));
        for (i, avg) in replicas.into_iter().enumerate() {
            let replica = plan.add_boxed(instrument.wrap(avg));
            plan.set_recovery(
                replica,
                RecoveryPolicy::Restart { max_restarts: 3, backoff: Duration::ZERO },
            )
            .map_err(err)?;
            plan.connect(shuffle_node, i, replica, 0).map_err(err)?;
            plan.connect(replica, 0, merge, i).map_err(err)?;
        }
        let sink = ResultSink::new("sink", results, clock, log.clone());
        let sink = plan.add_boxed(instrument.wrap(sink));
        plan.connect_simple(merge, sink).map_err(err)?;
        plan.validate().map_err(err)?;
        let setup_s = started.elapsed().as_secs_f64();

        let cpu_before = cpu_seconds();
        let report = PooledExecutor::run_with_workers(plan, self.workers).map_err(err)?;
        let cpu_s = cpu_seconds() - cpu_before;

        let log = std::mem::take(&mut *log.lock().expect("sink log"));
        let stamps = instrument.stamps.lock().expect("stamps").clone();
        let mut verdict = reference::check(
            &self.reference,
            &log.arrivals,
            |_| false,
            Instrument::emitted_at(&stamps, super::SOURCE_BATCH),
        );
        run_invariants(&report, stamps.len(), self.tuples.len(), &mut verdict);
        Ok(Rep {
            setup_s,
            wall_s: report.elapsed.as_secs_f64(),
            threads: self.workers,
            cpu_s,
            report,
            verdict,
            issued: log.issued,
            instrument,
            manager: None,
        })
    }
}
