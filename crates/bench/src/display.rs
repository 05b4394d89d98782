//! The speed-map display: an event-driven feedback source.
//!
//! In Experiment 2 a navigation display shows the speed map and the user zooms
//! into a subset of segments every few minutes.  Each zoom is an event-driven
//! feedback opportunity: segments outside the viewport are of no interest
//! until the next zoom, so the display sends assumed punctuation
//! `¬[segment ∈ hidden]` up the plan (to AVERAGE, which may relay it further
//! under scheme F3).
//!
//! The display is also where result *rendering* cost is paid — constructing
//! and drawing a map update per aggregate result — which is why mounting a
//! guard on AVERAGE's output (scheme F1) already saves substantial time.
//!
//! This module also hosts [`metrics_table`], the one renderer examples and
//! benches share for per-operator [`dsms_engine::ExecutionReport`] metrics
//! (tuple counts, feedback traffic, batch-guard outcomes, elastic resizes).

use dsms_engine::{EngineResult, ExecutionReport, Operator, OperatorContext};
use dsms_feedback::{EventDrivenPolicy, FeedbackPunctuation};
use dsms_operators::simulate_cost;
use dsms_types::{SchemaRef, Timestamp, Tuple};
use dsms_workloads::ZoomSchedule;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Shared handle to the rendered results.
pub type DisplayHandle = Arc<Mutex<Vec<Tuple>>>;

/// A sink that renders aggregate results and issues viewport feedback.
pub struct SpeedMapDisplay {
    name: String,
    /// Attribute of the incoming result tuples carrying the window start time
    /// (drives the zoom schedule).
    time_attribute: String,
    /// Attribute identifying the segment of a result tuple.
    segment_attribute: String,
    schedule: ZoomSchedule,
    next_event: usize,
    policy: EventDrivenPolicy,
    feedback_enabled: bool,
    render_cost: Duration,
    rendered: DisplayHandle,
    feedback_sent: u64,
    schema: SchemaRef,
}

impl SpeedMapDisplay {
    /// Creates a display over the aggregate's output schema.
    ///
    /// * `schema` — schema of the incoming result tuples;
    /// * `segments` — the full segment universe;
    /// * `schedule` — when the viewport changes and what stays visible;
    /// * `render_cost` — simulated cost of drawing one result on the map;
    /// * `feedback_enabled` — whether zoom events are turned into feedback
    ///   (false reproduces the F0 baseline where the display stays silent).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        time_attribute: impl Into<String>,
        segment_attribute: impl Into<String>,
        segments: impl IntoIterator<Item = i64>,
        schedule: ZoomSchedule,
        render_cost: Duration,
        feedback_enabled: bool,
    ) -> (Self, DisplayHandle) {
        let rendered: DisplayHandle = Arc::new(Mutex::new(Vec::new()));
        let segment_attribute = segment_attribute.into();
        (
            SpeedMapDisplay {
                name: name.into(),
                time_attribute: time_attribute.into(),
                policy: EventDrivenPolicy::viewport(segment_attribute.clone(), segments),
                segment_attribute,
                schedule,
                next_event: 0,
                feedback_enabled,
                render_cost,
                rendered: rendered.clone(),
                feedback_sent: 0,
                schema,
            },
            rendered,
        )
    }

    /// Number of feedback messages issued.
    pub fn feedback_sent(&self) -> u64 {
        self.feedback_sent
    }

    fn fire_due_events(&mut self, now: Timestamp, ctx: &mut OperatorContext) -> EngineResult<()> {
        while self.next_event < self.schedule.len()
            && self.schedule.events()[self.next_event].at <= now
        {
            let event = &self.schedule.events()[self.next_event];
            self.next_event += 1;
            if !self.feedback_enabled {
                continue;
            }
            if let Some(feedback) = self
                .policy
                .feedback(self.schema.clone(), &event.visible, &self.name)
                .map_err(dsms_engine::EngineError::from)?
            {
                self.feedback_sent += 1;
                ctx.send_feedback(0, feedback);
            }
        }
        Ok(())
    }
}

impl Operator for SpeedMapDisplay {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> usize {
        1
    }

    fn feedback_roles(&self) -> dsms_feedback::FeedbackRoles {
        // Event-driven producer: the zoom schedule turns viewport changes
        // into assumed feedback (Experiment 2) — unless feedback is disabled
        // for the baseline runs.
        if self.feedback_enabled {
            dsms_feedback::FeedbackRoles::producer()
        } else {
            dsms_feedback::FeedbackRoles::NONE
        }
    }

    fn schema_in(&self, _input: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn outputs(&self) -> usize {
        0
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if let Ok(ts) = tuple.timestamp(&self.time_attribute) {
            self.fire_due_events(ts, ctx)?;
        }
        let _ = &self.segment_attribute;
        simulate_cost(self.render_cost);
        self.rendered.lock().push(tuple);
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: dsms_punctuation::Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if let Some(w) = punctuation.watermark_for(&self.time_attribute) {
            self.fire_due_events(w, ctx)?;
        }
        Ok(())
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        let mut stats = dsms_feedback::FeedbackStats::default();
        stats.issued.assumed = self.feedback_sent;
        Some(stats)
    }
}

/// Renders a report's per-operator metrics as one aligned table, folding the
/// feedback counters (`suppressed`, `batch_guards=conclusive/fallback`) and
/// [`dsms_engine::ElasticStats`] into the same row as the tuple counts, so
/// examples and benches stop printing three disjoint metric dumps.
///
/// Columns: `operator | in | out | fb_in | fb_out | drop | suppressed |
/// guards c/f | elastic`.  The elastic column shows
/// `resizes=N migrated=G width=W` for the operator coordinating an elastic
/// stage and `-` everywhere else.
pub fn metrics_table(report: &ExecutionReport) -> String {
    let header = [
        "operator".to_string(),
        "in".into(),
        "out".into(),
        "fb_in".into(),
        "fb_out".into(),
        "drop".into(),
        "suppressed".into(),
        "guards c/f".into(),
        "elastic".into(),
    ];
    let mut rows: Vec<[String; 9]> = vec![header];
    for m in &report.metrics {
        let elastic = match &m.elastic {
            Some(e) => {
                let width = e.epochs.last().map(|&(_, w)| w).unwrap_or(1);
                format!("resizes={} migrated={} width={width}", e.resizes, e.migrated_groups)
            }
            None => "-".into(),
        };
        rows.push([
            m.operator.clone(),
            m.tuples_in.to_string(),
            m.tuples_out.to_string(),
            m.feedback_in.to_string(),
            m.feedback_out.to_string(),
            m.feedback_dropped.to_string(),
            m.feedback.tuples_suppressed.to_string(),
            format!(
                "{}/{}",
                m.feedback.batches_summary_conclusive, m.feedback.batches_summary_fallback
            ),
            elastic,
        ]);
    }
    let mut widths = [0usize; 9];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        for (col, (cell, width)) in row.iter().zip(widths).enumerate() {
            if col > 0 {
                line.push_str("  ");
            }
            if col == 0 || col == 8 {
                // Text columns left-aligned, counters right-aligned.
                line.push_str(&format!("{cell:<width$}"));
            } else {
                line.push_str(&format!("{cell:>width$}"));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// A feedback punctuation constructor reused by tests: the assumed pattern a
/// display would send for a given visible set (exposed for unit testing the
/// plan wiring without running a whole experiment).
pub fn viewport_feedback(
    schema: SchemaRef,
    segment_attribute: &str,
    universe: impl IntoIterator<Item = i64>,
    visible: impl IntoIterator<Item = i64>,
    issuer: &str,
) -> Option<FeedbackPunctuation> {
    let policy = EventDrivenPolicy::viewport(segment_attribute, universe);
    let visible = visible.into_iter().collect();
    policy.feedback(schema, &visible, issuer).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema, StreamDuration, Value};

    fn result_schema() -> SchemaRef {
        Schema::shared(&[
            ("window", DataType::Timestamp),
            ("segment", DataType::Int),
            ("avg", DataType::Float),
        ])
    }

    fn result(window_secs: i64, segment: i64) -> Tuple {
        Tuple::new(
            result_schema(),
            vec![
                Value::Timestamp(Timestamp::from_secs(window_secs)),
                Value::Int(segment),
                Value::Float(42.0),
            ],
        )
    }

    #[test]
    fn zoom_events_fire_as_stream_time_passes() {
        let schedule = ZoomSchedule::new(
            9,
            3,
            StreamDuration::from_minutes(2),
            StreamDuration::from_minutes(10),
            1,
        );
        let (mut display, rendered) = SpeedMapDisplay::new(
            "MAP",
            result_schema(),
            "window",
            "segment",
            0..9,
            schedule,
            Duration::ZERO,
            true,
        );
        let mut ctx = OperatorContext::new();
        display.on_tuple(0, result(0, 1), &mut ctx).unwrap();
        assert_eq!(display.feedback_sent(), 1, "the time-zero viewport fires immediately");
        display.on_tuple(0, result(300, 1), &mut ctx).unwrap(); // 5 minutes in
        assert_eq!(display.feedback_sent(), 3, "2- and 4-minute viewports have fired");
        assert_eq!(rendered.lock().len(), 2);
        assert_eq!(ctx.take_feedback().len(), 3);
    }

    #[test]
    fn silent_display_renders_but_sends_nothing() {
        let schedule = ZoomSchedule::new(
            9,
            3,
            StreamDuration::from_minutes(2),
            StreamDuration::from_minutes(10),
            1,
        );
        let (mut display, _rendered) = SpeedMapDisplay::new(
            "MAP",
            result_schema(),
            "window",
            "segment",
            0..9,
            schedule,
            Duration::ZERO,
            false,
        );
        let mut ctx = OperatorContext::new();
        display.on_tuple(0, result(600, 1), &mut ctx).unwrap();
        assert_eq!(display.feedback_sent(), 0);
        assert!(ctx.take_feedback().is_empty());
    }

    #[test]
    fn metrics_table_folds_feedback_and_elastic_counters_into_one_view() {
        use dsms_engine::{ElasticStats, OperatorMetrics};
        let mut select = OperatorMetrics::new("select");
        select.tuples_in = 100;
        select.tuples_out = 40;
        select.feedback_in = 2;
        select.feedback_out = 1;
        select.feedback.tuples_suppressed = 60;
        select.feedback.batches_summary_conclusive = 7;
        select.feedback.batches_summary_fallback = 3;
        let mut shuffle = OperatorMetrics::new("shuffle");
        shuffle.tuples_in = 40;
        shuffle.tuples_out = 40;
        shuffle.elastic = Some(ElasticStats {
            resizes: 2,
            cancelled: 0,
            unreached: 0,
            migrated_groups: 5,
            epochs: vec![(1, 2), (2, 4)],
        });
        let report = ExecutionReport {
            elapsed: Duration::from_millis(1),
            metrics: vec![select, shuffle],
            scheduler: None,
        };
        let table = metrics_table(&report);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header plus one row per operator:\n{table}");
        assert!(lines[0].contains("guards c/f") && lines[0].contains("elastic"), "{table}");
        assert!(lines[1].contains("7/3") && lines[1].contains("60"), "{table}");
        assert!(lines[2].contains("resizes=2 migrated=5 width=4"), "{table}");
        // Aligned: every line is equally wide once the elastic column pads.
        assert!(lines[1].starts_with("select"), "{table}");
    }

    #[test]
    fn viewport_feedback_helper_builds_assumed_patterns() {
        let fb = viewport_feedback(result_schema(), "segment", 0..9, [0, 1], "MAP").unwrap();
        assert!(fb.describes(&result(0, 5)));
        assert!(!fb.describes(&result(0, 1)));
        assert!(viewport_feedback(result_schema(), "segment", 0..3, 0..3, "MAP").is_none());
    }
}
