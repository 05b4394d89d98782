//! THRIFTY JOIN: an adaptive feedback producer (paper Section 3.3).
//!
//! When punctuation on the probe input shows that a window is complete *and
//! empty*, no tuple of the other input can join in that window, so the join
//! sends assumed feedback to the build input: "tuples of that window are
//! useless".  Antecedent operators on the build side can then stop producing
//! (cleaning, aggregating) tuples for the useless window.
//!
//! The implementation wraps [`SymmetricHashJoin`], adding per-window presence
//! tracking on the probe (right) input and feedback production when a window
//! closes empty.

use crate::join::SymmetricHashJoin;
use dsms_engine::{EngineResult, Operator, OperatorContext, Page};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles, FeedbackStats};
use dsms_punctuation::{Pattern, PatternItem, Punctuation};
use dsms_types::{SchemaRef, StreamDuration, Timestamp, Tuple, Value};
use std::collections::HashSet;

/// A symmetric hash join that tells its build input about empty probe windows.
///
/// A [`Wrapper`](dsms_engine::Wrapper) over the join: hooks it does not
/// override — feedback, schemas, state export and import — reach the inner
/// join.  It is not restartable: the probe-window presence set is not
/// checkpointed, so a restart would report non-empty windows as empty.
pub struct ThriftyJoin {
    name: String,
    inner: SymmetricHashJoin,
    left_schema: SchemaRef,
    timestamp_attribute: String,
    window: StreamDuration,
    /// Window ids in which at least one probe (right) tuple was seen.
    probe_windows_seen: HashSet<i64>,
    /// Highest probe window already checked for emptiness.
    checked_up_to: Option<i64>,
    feedback_issued: u64,
}

impl ThriftyJoin {
    /// Wraps a join; the window and timestamp attribute must match the inner
    /// join's configuration (pass the same values used to build it).
    pub fn new(
        name: impl Into<String>,
        inner: SymmetricHashJoin,
        left_schema: SchemaRef,
        timestamp_attribute: impl Into<String>,
        window: StreamDuration,
    ) -> Self {
        ThriftyJoin {
            name: name.into(),
            inner,
            left_schema,
            timestamp_attribute: timestamp_attribute.into(),
            window,
            probe_windows_seen: HashSet::new(),
            checked_up_to: None,
            feedback_issued: 0,
        }
    }

    /// Number of empty-window feedback messages issued.
    pub fn feedback_issued(&self) -> u64 {
        self.feedback_issued
    }

    fn empty_window_feedback(&self, window_id: i64) -> dsms_types::TypeResult<FeedbackPunctuation> {
        let start = Timestamp::from_millis(window_id * self.window.as_millis());
        let end = Timestamp::from_millis((window_id + 1) * self.window.as_millis())
            - StreamDuration::from_millis(1);
        let pattern = Pattern::for_attributes(
            self.left_schema.clone(),
            &[(
                self.timestamp_attribute.as_str(),
                PatternItem::Between(Value::Timestamp(start), Value::Timestamp(end)),
            )],
        )?;
        Ok(FeedbackPunctuation::assumed(pattern, &self.name))
    }
}

impl dsms_engine::Wrapper for ThriftyJoin {
    type Inner = SymmetricHashJoin;

    fn inner(&self) -> &SymmetricHashJoin {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut SymmetricHashJoin {
        &mut self.inner
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        self.inner.feedback_roles().with_producer()
    }

    fn restartable(&self) -> bool {
        false
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if input == 1 {
            if let Ok(ts) = tuple.timestamp(&self.timestamp_attribute) {
                self.probe_windows_seen.insert(ts.window_id(self.window));
            }
        }
        self.inner.on_tuple(input, tuple, ctx)
    }

    /// Item by item through this wrapper, so every probe-side item is seen.
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        dsms_engine::replay_page(self, input, page, ctx)
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Probe-side progress: every window fully below the watermark that saw
        // no probe tuples is empty → issue feedback toward the build input.
        if input == 1 {
            if let Some(w) = punctuation.watermark_for(&self.timestamp_attribute) {
                let complete_up_to = w.window_id(self.window) - 1;
                let start = self.checked_up_to.map(|c| c + 1).unwrap_or(0);
                for wid in start..=complete_up_to {
                    if !self.probe_windows_seen.contains(&wid) {
                        let feedback = self.empty_window_feedback(wid)?;
                        self.feedback_issued += 1;
                        ctx.send_feedback(0, feedback);
                    }
                }
                if complete_up_to >= start {
                    self.checked_up_to = Some(complete_up_to);
                }
            }
        }
        self.inner.on_punctuation(input, punctuation, ctx)
    }

    fn feedback_stats(&self) -> Option<FeedbackStats> {
        let mut stats = self.inner.feedback_stats().unwrap_or_default();
        stats.issued.assumed += self.feedback_issued;
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema};

    fn sensor_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn probe_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("avg", DataType::Float),
        ])
    }

    fn sensor(ts: i64, seg: i64) -> Tuple {
        Tuple::new(
            sensor_schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(50.0)],
        )
    }

    fn probe(ts: i64, seg: i64) -> Tuple {
        Tuple::new(
            probe_schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(40.0)],
        )
    }

    fn thrifty() -> ThriftyJoin {
        let inner = SymmetricHashJoin::new(
            "JOIN",
            sensor_schema(),
            probe_schema(),
            &["segment"],
            "timestamp",
            StreamDuration::from_secs(60),
        )
        .unwrap();
        ThriftyJoin::new(
            "THRIFTY-JOIN",
            inner,
            sensor_schema(),
            "timestamp",
            StreamDuration::from_secs(60),
        )
    }

    fn probe_progress(secs: i64) -> Punctuation {
        Punctuation::progress(probe_schema(), "timestamp", Timestamp::from_secs(secs)).unwrap()
    }

    #[test]
    fn empty_probe_windows_trigger_feedback_to_the_build_side() {
        let mut j = thrifty();
        let mut ctx = OperatorContext::new();
        // Probe data only in window 0 and window 2; window 1 (60–119 s) is empty.
        j.on_tuple(1, probe(10, 3), &mut ctx).unwrap();
        j.on_tuple(1, probe(130, 3), &mut ctx).unwrap();
        j.on_punctuation(1, probe_progress(180), &mut ctx).unwrap();
        let feedback = ctx.take_feedback();
        assert_eq!(j.feedback_issued(), 1);
        assert_eq!(feedback.len(), 1);
        assert_eq!(feedback[0].0, 0, "feedback goes to the sensor (build) input");
        assert!(feedback[0].1.describes(&sensor(70, 1)), "window-1 sensor tuples are described");
        assert!(!feedback[0].1.describes(&sensor(10, 1)));
    }

    #[test]
    fn windows_with_probe_data_do_not_trigger_feedback() {
        let mut j = thrifty();
        let mut ctx = OperatorContext::new();
        j.on_tuple(1, probe(10, 3), &mut ctx).unwrap();
        j.on_tuple(1, probe(70, 3), &mut ctx).unwrap();
        j.on_punctuation(1, probe_progress(120), &mut ctx).unwrap();
        assert_eq!(j.feedback_issued(), 0);
        assert!(ctx.take_feedback().is_empty());
    }

    #[test]
    fn each_empty_window_is_reported_once() {
        let mut j = thrifty();
        let mut ctx = OperatorContext::new();
        j.on_punctuation(1, probe_progress(120), &mut ctx).unwrap(); // windows 0 and 1 empty
        assert_eq!(j.feedback_issued(), 2);
        j.on_punctuation(1, probe_progress(125), &mut ctx).unwrap(); // nothing new completed
        assert_eq!(j.feedback_issued(), 2);
        j.on_punctuation(1, probe_progress(185), &mut ctx).unwrap(); // window 2 also empty
        assert_eq!(j.feedback_issued(), 3);
    }

    #[test]
    fn join_semantics_are_preserved() {
        let mut j = thrifty();
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, sensor(10, 3), &mut ctx).unwrap();
        j.on_tuple(1, probe(20, 3), &mut ctx).unwrap();
        let emitted: Vec<_> = ctx
            .take_emitted()
            .into_iter()
            .filter(|(_, item)| matches!(item, dsms_engine::StreamItem::Tuple(_)))
            .collect();
        assert_eq!(emitted.len(), 1);
    }
}
