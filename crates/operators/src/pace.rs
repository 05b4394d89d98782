//! PACE: a union with a bounded disorder policy and feedback production.
//!
//! PACE (paper Example 3, Experiment 1) unions two streams — typically a fast
//! "clean" stream and a slow "imputed" stream — while enforcing an explicit
//! policy: the result stream may not exhibit more than `tolerance` of disorder
//! relative to the tuple timestamps.  Tuples lagging more than the tolerance
//! behind the current high-watermark are *ignored* (dropped from the result).
//! When PACE detects that the divergence is being exceeded it produces
//! **assumed feedback** for the lagging input: "tuples with timestamps below
//! the cutoff are no longer needed", which lets the expensive upstream
//! operators (IMPUTE) stop wasting work on them.

use dsms_engine::{EngineResult, Operator, OperatorContext};
use dsms_feedback::{ExplicitPolicy, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, StreamDuration, Timestamp, Tuple};

/// Per-input lateness statistics, readable after execution through
/// [`Pace::input_stats`] (the harness reads them via the plan report instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaceInputStats {
    /// Tuples that arrived within the tolerance and were emitted.
    pub timely: u64,
    /// Tuples that arrived too late and were dropped.
    pub dropped: u64,
}

/// A disorder-bounding union that produces assumed feedback.
pub struct Pace {
    name: String,
    schema: SchemaRef,
    inputs: usize,
    policy: ExplicitPolicy,
    feedback_enabled: bool,
    /// When set (the default, matching the paper), the feedback describes all
    /// tuples below the current *high watermark* ("tuples with timestamps less
    /// than the current high watermark are no longer needed"); when unset, the
    /// feedback conservatively describes only tuples below
    /// `high watermark − tolerance` (the subset PACE itself already ignores).
    feedback_at_watermark: bool,
    /// Minimum advance of the cutoff between consecutive feedback messages,
    /// to avoid flooding the control channel.
    feedback_granularity: StreamDuration,
    high_watermark: Option<Timestamp>,
    last_feedback_cutoff: Vec<Option<Timestamp>>,
    stats_per_input: Vec<PaceInputStats>,
    registry: FeedbackRegistry,
}

impl Pace {
    /// Creates a PACE over `inputs` streams with the given timestamp attribute
    /// and disorder tolerance.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        inputs: usize,
        timestamp_attribute: impl Into<String>,
        tolerance: StreamDuration,
    ) -> Self {
        let name = name.into();
        let inputs = inputs.max(2);
        Pace {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            schema,
            inputs,
            policy: ExplicitPolicy::disorder_bound(timestamp_attribute, tolerance),
            feedback_enabled: true,
            feedback_at_watermark: true,
            feedback_granularity: StreamDuration::from_millis(tolerance.as_millis() / 2),
            high_watermark: None,
            last_feedback_cutoff: vec![None; inputs],
            stats_per_input: vec![PaceInputStats::default(); inputs],
        }
    }

    /// Disables feedback production: PACE still drops late tuples (the
    /// explicit policy) but never informs its antecedents.  This is the
    /// "PACE is simply UNION + drop" baseline of Figure 5.
    pub fn without_feedback(mut self) -> Self {
        self.feedback_enabled = false;
        self
    }

    /// Overrides how far the cutoff must advance before another feedback
    /// message is sent.
    pub fn with_feedback_granularity(mut self, granularity: StreamDuration) -> Self {
        self.feedback_granularity = granularity;
        self
    }

    /// Makes the issued feedback conservative: describe only the subset PACE
    /// itself already drops (`timestamp < high watermark − tolerance`) instead
    /// of the paper's more aggressive `timestamp < high watermark`.
    pub fn with_conservative_feedback(mut self) -> Self {
        self.feedback_at_watermark = false;
        self
    }

    /// Lateness statistics per input.
    pub fn input_stats(&self) -> &[PaceInputStats] {
        &self.stats_per_input
    }

    /// The stream schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

impl Operator for Pace {
    fn feedback_roles(&self) -> FeedbackRoles {
        if self.feedback_enabled {
            FeedbackRoles::producer()
        } else {
            FeedbackRoles::NONE
        }
    }

    fn schema_in(&self, _input: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn schema_out(&self, _output: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> usize {
        self.inputs
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let input = input.min(self.inputs - 1);
        let ts = tuple.timestamp(&self.policy.attribute)?;
        self.high_watermark = Some(self.high_watermark.map(|w| w.max(ts)).unwrap_or(ts));
        let hw = self.high_watermark.expect("just set");

        if self.policy.violated(hw, ts) {
            // The tuple is too late: ignore it (policy enforcement)…
            self.stats_per_input[input].dropped += 1;
            // …and tell the lagging antecedent to stop producing the subset.
            if self.feedback_enabled {
                let cutoff = if self.feedback_at_watermark { hw } else { self.policy.cutoff(hw) };
                let due = match self.last_feedback_cutoff[input] {
                    None => true,
                    Some(prev) => cutoff - prev >= self.feedback_granularity,
                };
                if due {
                    self.last_feedback_cutoff[input] = Some(cutoff);
                    let pattern = dsms_punctuation::Pattern::for_attributes(
                        self.schema.clone(),
                        &[(
                            self.policy.attribute.as_str(),
                            dsms_punctuation::PatternItem::Lt(dsms_types::Value::Timestamp(cutoff)),
                        )],
                    )?;
                    let feedback = FeedbackPunctuation::assumed(pattern, &self.name);
                    self.registry.stats_mut().issued.record(feedback.intent());
                    ctx.send_feedback(input, feedback);
                }
            }
            return Ok(());
        }
        self.stats_per_input[input].timely += 1;
        ctx.emit(0, tuple);
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Fold punctuation into the high-watermark; combined punctuation for
        // the output would require per-input progress (see Merge); PACE's
        // consumers in the paper's plans do not need it.
        if let Some(w) = punctuation.watermark_for(&self.policy.attribute) {
            self.high_watermark = Some(self.high_watermark.map(|cur| cur.max(w)).unwrap_or(w));
        }
        Ok(())
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Some(self.registry.stats().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("speed", DataType::Float)])
    }

    fn tuple(ts: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Float(1.0)])
    }

    fn pace(tolerance_secs: i64) -> Pace {
        Pace::new("PACE", schema(), 2, "timestamp", StreamDuration::from_secs(tolerance_secs))
    }

    #[test]
    fn timely_tuples_pass_through() {
        let mut op = pace(60);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(100), &mut ctx).unwrap();
        op.on_tuple(1, tuple(80), &mut ctx).unwrap(); // within 60s of 100
        assert_eq!(ctx.take_emitted().len(), 2);
        assert_eq!(op.input_stats()[0].timely, 1);
        assert_eq!(op.input_stats()[1].timely, 1);
    }

    #[test]
    fn late_tuples_are_dropped_and_feedback_is_issued() {
        let mut op = pace(60);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(200), &mut ctx).unwrap(); // advances watermark to 200
        op.on_tuple(1, tuple(100), &mut ctx).unwrap(); // 100 < 200-60 → late
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1, "only the timely tuple is emitted");
        assert_eq!(op.input_stats()[1].dropped, 1);

        let feedback = ctx.take_feedback();
        assert_eq!(feedback.len(), 1);
        assert_eq!(feedback[0].0, 1, "feedback goes to the lagging input");
        let fb = &feedback[0].1;
        // Paper semantics: everything below the current high watermark (200) is
        // declared no longer needed.
        assert!(fb.describes(&tuple(100)));
        assert!(fb.describes(&tuple(150)));
        assert!(!fb.describes(&tuple(250)));
    }

    #[test]
    fn conservative_feedback_describes_only_the_dropped_subset() {
        let mut op = pace(60).with_conservative_feedback();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(200), &mut ctx).unwrap();
        op.on_tuple(1, tuple(100), &mut ctx).unwrap();
        let feedback = ctx.take_feedback();
        assert_eq!(feedback.len(), 1);
        let fb = &feedback[0].1;
        assert!(fb.describes(&tuple(100)), "below hw − tolerance");
        assert!(!fb.describes(&tuple(150)), "within the tolerance band is not assumed away");
    }

    #[test]
    fn feedback_is_throttled_by_granularity() {
        let mut op = pace(60).with_feedback_granularity(StreamDuration::from_secs(30));
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(200), &mut ctx).unwrap();
        op.on_tuple(1, tuple(100), &mut ctx).unwrap(); // feedback #1 (cutoff 140)
        op.on_tuple(0, tuple(210), &mut ctx).unwrap();
        op.on_tuple(1, tuple(101), &mut ctx).unwrap(); // cutoff 150, advance 10 < 30 → throttled
        op.on_tuple(0, tuple(300), &mut ctx).unwrap();
        op.on_tuple(1, tuple(102), &mut ctx).unwrap(); // cutoff 240, advance 100 → feedback #2
        assert_eq!(ctx.take_feedback().len(), 2);
    }

    #[test]
    fn without_feedback_still_enforces_the_policy() {
        let mut op = pace(60).without_feedback();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(200), &mut ctx).unwrap();
        op.on_tuple(1, tuple(10), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);
        assert!(ctx.take_feedback().is_empty());
        assert_eq!(op.input_stats()[1].dropped, 1);
    }

    #[test]
    fn punctuation_advances_the_watermark() {
        let mut op = pace(60);
        let mut ctx = OperatorContext::new();
        op.on_punctuation(
            0,
            Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(500)).unwrap(),
            &mut ctx,
        )
        .unwrap();
        op.on_tuple(1, tuple(100), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "tuple is late w.r.t. punctuated watermark");
    }
}
