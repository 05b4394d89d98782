//! Guard expiry end to end: feedback guards scoped to a span of stream time
//! are dropped once embedded punctuation covers that span, on every operator
//! of the plan, without changing a single result.
//!
//! Plan: `VecSource → QualityFilter → WindowAggregate (F3) → viewport`.  The
//! viewport sink plays the speed-map display: whenever window punctuation
//! shows that stream time entered a new zoom period (two windows), it issues
//! one assumed punctuation `¬[window ∈ period, segment ∈ hidden(period)]`.
//! The aggregate purges, guards and relays each one; QUALITY and the source
//! guard on the relayed pattern.  Checked on the sync and the pooled
//! executor:
//!
//! * the rendered output — every result the viewport received that none of
//!   its feedback describes — is identical on both executors and equals the
//!   no-feedback run's;
//! * what the viewport received satisfies Definition 1 (correct
//!   exploitation) against the no-feedback run, period by period;
//! * each operator ends holding at most 2 live guards (received − coalesced
//!   − expired), however many periods were issued.

use feedback_dsms::feedback::check_correct_exploitation;
use feedback_dsms::operators::aggregate::FeedbackMode;
use feedback_dsms::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const WINDOW_MS: i64 = 60_000;
/// Stream time between viewport changes: two windows.
const PERIOD_MS: i64 = 2 * WINDOW_MS;
const MINUTES: i64 = 24;
const SEGMENTS: i64 = 6;

fn schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("speed", DataType::Float),
    ])
}

/// Timestamp-ordered readings, 60 per minute across all segments; every
/// eleventh speed is implausible so QUALITY has work to do.
fn readings() -> Vec<Tuple> {
    (0..MINUTES * 60)
        .map(|i| {
            let speed = if i % 11 == 0 { 150.0 } else { (i * 37 % 90) as f64 + 10.0 };
            Tuple::new(
                schema(),
                vec![
                    Value::Timestamp(Timestamp::from_secs(i)),
                    Value::Int(i * 7 % SEGMENTS),
                    Value::Float(speed),
                ],
            )
        })
        .collect()
}

fn hidden(period: i64) -> Vec<Value> {
    let visible = [period % SEGMENTS, (period + 1) % SEGMENTS];
    (0..SEGMENTS).filter(|s| !visible.contains(s)).map(Value::Int).collect()
}

#[derive(Default)]
struct ViewportLog {
    arrivals: Vec<Tuple>,
    issued: Vec<FeedbackPunctuation>,
}

/// The display: records every result and, when `issue` is set, issues one
/// period-scoped assumed punctuation per zoom period as stream time enters it.
struct Viewport {
    schema: SchemaRef,
    issue: bool,
    next_period: i64,
    log: Arc<Mutex<ViewportLog>>,
}

impl Operator for Viewport {
    fn name(&self) -> &str {
        "viewport"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        0
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::producer()
    }

    fn schema_in(&self, _input: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        _ctx: &mut OperatorContext,
    ) -> feedback_dsms::engine::EngineResult<()> {
        self.log.lock().unwrap().arrivals.push(tuple);
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> feedback_dsms::engine::EngineResult<()> {
        let Some(watermark) = punctuation.watermark_for("window") else { return Ok(()) };
        let horizon = (watermark.as_millis() + 1) / PERIOD_MS;
        while self.issue && self.next_period <= horizon && self.next_period < MINUTES / 2 {
            let lo = self.next_period * PERIOD_MS;
            let pattern = Pattern::for_attributes(
                self.schema.clone(),
                &[
                    (
                        "window",
                        PatternItem::Between(
                            Value::Timestamp(Timestamp::from_millis(lo)),
                            Value::Timestamp(Timestamp::from_millis(lo + PERIOD_MS - 1)),
                        ),
                    ),
                    ("segment", PatternItem::InSet(hidden(self.next_period))),
                ],
            )
            .unwrap();
            let feedback = FeedbackPunctuation::assumed(pattern, "viewport");
            self.log.lock().unwrap().issued.push(feedback.clone());
            ctx.send_feedback(0, feedback);
            self.next_period += 1;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
enum Exec {
    Sync,
    Pooled,
}

struct Run {
    report: ExecutionReport,
    arrivals: Vec<Tuple>,
    issued: Vec<FeedbackPunctuation>,
}

fn run(exec: Exec, issue: bool) -> Run {
    let schema = schema();
    let log = Arc::new(Mutex::new(ViewportLog::default()));
    let mut plan = QueryPlan::new().with_page_capacity(16);
    let source = plan.add(
        VecSource::new("source", readings())
            .with_punctuation("timestamp", StreamDuration::from_millis(WINDOW_MS))
            .with_batch_size(16),
    );
    let plausible = TuplePredicate::new("0 <= speed <= 120", |t| {
        t.float("speed").map(|s| (0.0..=120.0).contains(&s)).unwrap_or(false)
    });
    let quality =
        plan.add(QualityFilter::new("quality", schema.clone(), plausible, Duration::ZERO));
    let average = WindowAggregate::new(
        "average",
        schema,
        "timestamp",
        StreamDuration::from_millis(WINDOW_MS),
        &["segment"],
        AggregateFunction::Avg("speed".into()),
    )
    .unwrap()
    .with_feedback_mode(FeedbackMode::ExploitAndPropagate);
    let viewport = Viewport {
        schema: average.output_schema().clone(),
        issue,
        next_period: 0,
        log: log.clone(),
    };
    let average = plan.add(average);
    let viewport = plan.add(viewport);
    for (from, to) in [(source, quality), (quality, average), (average, viewport)] {
        plan.connect_simple(from, to).unwrap();
    }
    let report = match exec {
        Exec::Sync => SyncExecutor::run(plan),
        Exec::Pooled => PooledExecutor::run(plan),
    }
    .unwrap();
    let log = std::mem::take(&mut *log.lock().unwrap());
    Run { report, arrivals: log.arrivals, issued: log.issued }
}

/// Canonical digest: debug-rendered value rows, sorted and joined.
fn digest(tuples: &[Tuple]) -> String {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows.join("\n")
}

/// The results no issued feedback describes: what the display renders.
fn rendered(results: &[Tuple], issued: &[FeedbackPunctuation]) -> Vec<Tuple> {
    results.iter().filter(|t| !issued.iter().any(|f| f.describes(t))).cloned().collect()
}

#[test]
fn guards_expire_on_both_executors_without_changing_results() {
    let reference = run(Exec::Sync, false).arrivals;
    assert_eq!(reference.len() as i64, MINUTES * SEGMENTS, "one result per window and segment");

    let mut renders = Vec::new();
    for exec in [Exec::Sync, Exec::Pooled] {
        let Run { report, arrivals, issued } = run(exec, true);
        assert_eq!(issued.len() as i64, MINUTES / 2, "{exec:?}: one feedback per zoom period");
        assert_eq!(report.total_feedback_dropped(), 0, "{exec:?}");

        // Definition 1, period by period: each feedback licenses dropping the
        // results of its own period only.
        for feedback in &issued {
            let in_period = |results: &[Tuple]| -> Vec<Tuple> {
                let window = feedback.pattern().item_for("window").unwrap().clone();
                results.iter().filter(|t| window.matches(&t.values()[0])).cloned().collect()
            };
            let check =
                check_correct_exploitation(&in_period(&reference), &in_period(&arrivals), feedback);
            assert!(check.is_correct(), "{exec:?}: {feedback}: {check:?}");
        }
        if let Exec::Sync = exec {
            assert!(arrivals.len() < reference.len(), "described results were dropped");
        }
        let render = rendered(&arrivals, &issued);
        assert_eq!(digest(&render), digest(&rendered(&reference, &issued)), "{exec:?}");
        renders.push(digest(&render));

        // Guard state stays bounded: every operator ends with at most two
        // live guards although twelve periods were issued, and the guards
        // really were dropped rather than never installed.
        let mut expired = 0;
        for metrics in &report.metrics {
            let stats = &metrics.feedback;
            let live = stats.received.total() - stats.coalesced - stats.guards_expired;
            assert!(live <= 2, "{exec:?}: {} holds {live} guards: {stats}", metrics.operator);
            expired += stats.guards_expired;
        }
        assert!(expired >= issued.len() as u64, "{exec:?}: {expired} guards expired");
        let source = report.operator("source").unwrap();
        assert!(source.feedback.received.assumed > 0, "{exec:?}: feedback reached the source");
    }
    assert_eq!(renders[0], renders[1], "the rendered output is executor-independent");
}
