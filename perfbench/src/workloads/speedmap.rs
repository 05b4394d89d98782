//! `speedmap`: the paper's Figure 4(b) plan on the sync executor.
//!
//! source → QUALITY → AVERAGE per (1-min window, segment) in F3 mode
//! (exploit and propagate) → viewport display.  Nine segments, two visible;
//! the viewport moves every zoom period.  All synthetic costs are zero.

use super::{cpu_seconds, run_invariants, source, Rep, Workload};
use crate::display::{ViewportDisplay, ZoomSchedule, ZOOM_PERIOD_MS};
use crate::input::{self, ColumnTest, Rng, Shape, SEGMENT, SPEED, WINDOW_MS};
use crate::probe::Instrument;
use crate::reference::{self, Agg, ResultSet};
use crate::sink::SinkLog;
use dsms_engine::{QueryPlan, SyncExecutor};
use dsms_operators::aggregate::FeedbackMode;
use dsms_operators::{AggregateFunction, QualityFilter, WindowAggregate};
use dsms_punctuation::{Pattern, PatternItem};
use dsms_types::{SchemaRef, StreamDuration, Timestamp, Tuple, Value};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHAPE: Shape = Shape { minutes: 600, per_minute: 300, segments: 9, detectors: 36 };

/// QUALITY's check.
const PLAUSIBLE: ColumnTest =
    ColumnTest { label: "0 <= speed <= 120", column: SPEED, test: |v| (0.0..=120.0).contains(&v) };

pub struct Speedmap {
    schema: SchemaRef,
    tuples: Vec<Tuple>,
    zoom: ZoomSchedule,
    reference: ResultSet,
}

impl Speedmap {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let rows = input::readings(&SHAPE, &mut rng);
        let periods = ((SHAPE.minutes * WINDOW_MS + ZOOM_PERIOD_MS - 1) / ZOOM_PERIOD_MS) as usize;
        let first_visible =
            (0..periods).map(|_| rng.below(SHAPE.segments as u64 - 1) as i64).collect();
        let zoom =
            ZoomSchedule { segments: SHAPE.segments, first_visible: Arc::new(first_visible) };
        let schema = input::schema();
        let tuples = input::tuples(&rows, &schema);
        let reference = reference::window_aggregate(
            &rows,
            |r| PLAUSIBLE.on_row(r),
            |r| r.segment,
            Agg::AvgSpeed,
        );
        Speedmap { schema, tuples, zoom, reference }
    }
}

impl Workload for Speedmap {
    fn input(&self) -> &[Tuple] {
        &self.tuples
    }

    fn key_column(&self) -> usize {
        SEGMENT
    }

    /// AVERAGE relays each period's pattern through QUALITY unchanged but
    /// for the window → timestamp mapping; none of them expires, so at the
    /// end of a run the source holds one guard per issued period.
    fn live_guards(&self, rep: &Rep) -> Vec<Pattern> {
        (0..rep.issued.len())
            .map(|period| {
                let lo = period as i64 * ZOOM_PERIOD_MS;
                Pattern::for_attributes(
                    self.schema.clone(),
                    &[
                        (
                            "timestamp",
                            PatternItem::Between(
                                Value::Timestamp(Timestamp::from_millis(lo)),
                                Value::Timestamp(Timestamp::from_millis(lo + ZOOM_PERIOD_MS - 1)),
                            ),
                        ),
                        (
                            "segment",
                            PatternItem::InSet(
                                self.zoom.hidden(period).into_iter().map(Value::Int).collect(),
                            ),
                        ),
                    ],
                )
                .expect("input schema has timestamp and segment")
            })
            .collect()
    }

    fn run(&self, traced: bool) -> Result<Rep, String> {
        let tuples = self.tuples.clone();
        let mut instrument = Instrument::new(traced);
        let clock = instrument.clock;
        let log: Arc<Mutex<SinkLog>> = Arc::default();

        let started = Instant::now();
        let schema = self.schema.clone();
        let mut plan = QueryPlan::new();
        let source = plan.add(instrument.source(source(tuples)));
        let quality =
            QualityFilter::new("quality", schema.clone(), PLAUSIBLE.predicate(), Duration::ZERO);
        let quality = plan.add_boxed(instrument.wrap(quality));
        let average = WindowAggregate::new(
            "average",
            schema,
            "timestamp",
            StreamDuration::from_millis(WINDOW_MS),
            &["segment"],
            AggregateFunction::Avg("speed".into()),
        )
        .map_err(|e| e.to_string())?
        .with_feedback_mode(FeedbackMode::ExploitAndPropagate);
        let display = ViewportDisplay::new(
            average.output_schema().clone(),
            self.zoom.clone(),
            clock,
            log.clone(),
        );
        let average = plan.add_boxed(instrument.wrap(average));
        let display = plan.add_boxed(instrument.wrap(display));
        for (from, to) in [(source, quality), (quality, average), (average, display)] {
            plan.connect_simple(from, to).map_err(|e| e.to_string())?;
        }
        plan.validate().map_err(|e| e.to_string())?;
        let setup_s = started.elapsed().as_secs_f64();

        let cpu_before = cpu_seconds();
        let report = SyncExecutor::run(plan).map_err(|e| e.to_string())?;
        let cpu_s = cpu_seconds() - cpu_before;

        let log = std::mem::take(&mut *log.lock().expect("display log"));
        let stamps = instrument.stamps.lock().expect("stamps").clone();
        let issued_periods = log.issued.len();
        let mut verdict = reference::check(
            &self.reference,
            &log.arrivals,
            |(window, segment)| {
                let period = ZoomSchedule::period_of(window);
                period < issued_periods && !self.zoom.visible(period, segment)
            },
            Instrument::emitted_at(&stamps, super::SOURCE_BATCH),
        );
        run_invariants(&report, stamps.len(), self.tuples.len(), &mut verdict);
        Ok(Rep {
            setup_s,
            wall_s: report.elapsed.as_secs_f64(),
            threads: 1,
            cpu_s,
            report,
            verdict,
            issued: log.issued,
            instrument,
            manager: None,
        })
    }
}
