//! Feedback *sources* (paper Section 3.3): explicit, adaptive, event-driven.
//!
//! A policy decides *when* an operator should issue feedback and *what subset*
//! the feedback should describe.  The paper's taxonomy has three families:
//!
//! * [`ExplicitPolicy`] — declared with the query, e.g. PACE's
//!   `WITH PACE ON MAX(stream1.time, stream2.time) 1 MINUTE` disorder bound,
//!   enforced by the disorder-bound merge (`dsms-operators`' `Merge`).
//! * adaptive — discovered by the operator from its own state, e.g. THRIFTY
//!   JOIN noticing from punctuation that a window on the probe side is empty,
//!   or IMPATIENT JOIN requesting subsets it can already join.  Each adaptive
//!   operator builds its own patterns from its state (`dsms-operators`'
//!   `thrifty_join` and `impatient_join`), so there is no policy type here.
//! * [`EventDrivenPolicy`] — triggered by external events, e.g. the user
//!   zooming the speed map so that only some segments are visible.

use crate::intent::FeedbackPunctuation;
use dsms_punctuation::{Pattern, PatternItem};
use dsms_types::{SchemaRef, StreamDuration, Timestamp, TypeResult, Value};
use std::collections::BTreeSet;

/// An explicit disorder-bound policy, as used by PACE (Example 3 /
/// Experiment 1): when the union's two inputs diverge by more than
/// `tolerance`, tuples older than `high_watermark − tolerance` are being
/// ignored, so antecedents should stop producing them.
#[derive(Debug, Clone)]
pub struct ExplicitPolicy {
    /// The timestamp attribute the bound applies to.
    pub attribute: String,
    /// Maximum tolerated divergence between the inputs.
    pub tolerance: StreamDuration,
    /// True when the feedback describes `attribute < high_watermark` rather
    /// than `attribute < high_watermark − tolerance`.
    pub up_to_watermark: bool,
}

impl ExplicitPolicy {
    /// Creates a disorder-bound policy.
    pub fn disorder_bound(attribute: impl Into<String>, tolerance: StreamDuration) -> Self {
        ExplicitPolicy { attribute: attribute.into(), tolerance, up_to_watermark: false }
    }

    /// Makes the feedback describe every tuple below the high watermark
    /// ("tuples with timestamps less than the current high watermark are no
    /// longer needed"), as PACE does in the paper.
    pub fn assume_up_to_watermark(mut self) -> Self {
        self.up_to_watermark = true;
        self
    }

    /// The cutoff below which tuples are too late, given the current
    /// high-watermark of observed timestamps.
    pub fn cutoff(&self, high_watermark: Timestamp) -> Timestamp {
        high_watermark.saturating_sub(self.tolerance)
    }

    /// True when a tuple timestamped `candidate` violates the policy relative
    /// to the current high-watermark.
    pub fn violated(&self, high_watermark: Timestamp, candidate: Timestamp) -> bool {
        candidate < self.cutoff(high_watermark)
    }

    /// Builds the assumed feedback describing the too-late subset
    /// (`attribute < cutoff`, or `attribute < high_watermark` after
    /// [`assume_up_to_watermark`](Self::assume_up_to_watermark)) over the
    /// antecedent stream's schema.
    pub fn feedback(
        &self,
        schema: SchemaRef,
        high_watermark: Timestamp,
        issuer: &str,
    ) -> TypeResult<FeedbackPunctuation> {
        let cutoff =
            if self.up_to_watermark { high_watermark } else { self.cutoff(high_watermark) };
        let pattern = Pattern::for_attributes(
            schema,
            &[(self.attribute.as_str(), PatternItem::Lt(Value::Timestamp(cutoff)))],
        )?;
        Ok(FeedbackPunctuation::assumed(pattern, issuer))
    }
}

/// An event-driven policy: the speed-map viewport (Experiment 2).  The segment
/// universe is known; when the user zooms so that only `visible` segments are
/// shown, tuples for every other segment can be assumed away until the next
/// viewport change.
#[derive(Debug, Clone)]
pub struct EventDrivenPolicy {
    /// The segment attribute of the stream's schema.
    pub attribute: String,
    /// All segment ids that exist.
    pub universe: BTreeSet<i64>,
}

impl EventDrivenPolicy {
    /// Creates a viewport policy over the given segment universe.
    pub fn viewport(attribute: impl Into<String>, universe: impl IntoIterator<Item = i64>) -> Self {
        EventDrivenPolicy { attribute: attribute.into(), universe: universe.into_iter().collect() }
    }

    /// The segments that are *not* visible — the subset to assume away.
    pub fn hidden(&self, visible: &BTreeSet<i64>) -> Vec<i64> {
        self.universe.iter().copied().filter(|s| !visible.contains(s)).collect()
    }

    /// Builds the assumed feedback describing tuples for segments outside the
    /// visible set.  Returns `None` when everything is visible (no feedback
    /// needed).
    pub fn feedback(
        &self,
        schema: SchemaRef,
        visible: &BTreeSet<i64>,
        issuer: &str,
    ) -> TypeResult<Option<FeedbackPunctuation>> {
        let hidden = self.hidden(visible);
        if hidden.is_empty() {
            return Ok(None);
        }
        let pattern = Pattern::for_attributes(
            schema,
            &[(
                self.attribute.as_str(),
                PatternItem::InSet(hidden.into_iter().map(Value::Int).collect()),
            )],
        )?;
        Ok(Some(FeedbackPunctuation::assumed(pattern, issuer)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::FeedbackIntent;
    use dsms_types::{DataType, Schema, Tuple};

    fn sensor_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn tuple(ts: i64, seg: i64) -> Tuple {
        Tuple::new(
            sensor_schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(30.0)],
        )
    }

    #[test]
    fn disorder_bound_detects_violations_and_builds_feedback() {
        let policy = ExplicitPolicy::disorder_bound("timestamp", StreamDuration::from_minutes(1));
        let hw = Timestamp::from_secs(600);
        assert_eq!(policy.cutoff(hw), Timestamp::from_secs(540));
        assert!(policy.violated(hw, Timestamp::from_secs(500)));
        assert!(!policy.violated(hw, Timestamp::from_secs(560)));

        let f = policy.feedback(sensor_schema(), hw, "PACE").unwrap();
        assert_eq!(f.intent(), FeedbackIntent::Assumed);
        assert!(f.describes(&tuple(500, 1)));
        assert!(!f.describes(&tuple(560, 1)));
    }

    #[test]
    fn cutoff_saturates_near_epoch() {
        let policy = ExplicitPolicy::disorder_bound("timestamp", StreamDuration::from_hours(1));
        assert_eq!(policy.cutoff(Timestamp::MIN), Timestamp::MIN);
    }

    #[test]
    fn viewport_policy_assumes_away_hidden_segments() {
        let policy = EventDrivenPolicy::viewport("segment", 0..9);
        let visible: BTreeSet<i64> = [2, 3].into_iter().collect();
        assert_eq!(policy.hidden(&visible).len(), 7);

        let f = policy.feedback(sensor_schema(), &visible, "MAP").unwrap().unwrap();
        assert!(f.describes(&tuple(0, 5)));
        assert!(!f.describes(&tuple(0, 2)));

        let all: BTreeSet<i64> = (0..9).collect();
        assert!(policy.feedback(sensor_schema(), &all, "MAP").unwrap().is_none());
    }

    #[test]
    fn policies_reject_unknown_attributes() {
        let policy = ExplicitPolicy::disorder_bound("arrival", StreamDuration::from_secs(1));
        assert!(policy.feedback(sensor_schema(), Timestamp::EPOCH, "PACE").is_err());
    }
}
