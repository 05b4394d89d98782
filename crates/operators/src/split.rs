//! SPLIT: content-based routing into two disjoint streams.
//!
//! The imputation plan (paper Example 3 / Figure 4a) filters the input into
//! two disjoint streams — tuples that need imputation (σC) and tuples that are
//! already clean (σ¬C).  `Split` implements that pair of filters as a single
//! two-output operator: output 0 receives tuples satisfying the condition,
//! output 1 the rest.  Punctuation is forwarded to *both* outputs, since a
//! subset declared complete in the input is complete in each routed stream.

use crate::common::TuplePredicate;
use dsms_engine::{EngineResult, Operator, OperatorContext};
use dsms_feedback::{
    FeedbackIntent, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles, FeedbackStats,
    GuardDecision,
};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};

/// Routes tuples matching a condition to output 0 and the rest to output 1.
pub struct Split {
    name: String,
    schema: SchemaRef,
    condition: TuplePredicate,
    /// Guards per output, from the assumed feedback of that output's
    /// consumer; a tuple routed to an output whose feedback describes it can
    /// be dropped (the consumer has assumed it away), which is stronger than
    /// DUPLICATE because the outputs are disjoint.
    guards: [FeedbackRegistry; 2],
    /// Counters not attributable to one output (relays, non-assumed
    /// receipts).
    stats: FeedbackStats,
}

impl Split {
    /// Creates a split over `schema` with the given routing condition.
    pub fn new(name: impl Into<String>, schema: SchemaRef, condition: TuplePredicate) -> Self {
        let name = name.into();
        Split {
            guards: [FeedbackRegistry::scoped(name.clone(), 0), FeedbackRegistry::scoped(&name, 1)],
            name,
            schema,
            condition,
            stats: FeedbackStats::default(),
        }
    }

    /// The stream schema (identical on the input and both outputs).
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

impl Operator for Split {
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::exploiter().with_relayer()
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
        1
    }

    fn outputs(&self) -> usize {
        2
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let output = if self.condition.eval(&tuple) { 0 } else { 1 };
        if self.guards[output].decide(&tuple) == GuardDecision::Suppress {
            return Ok(());
        }
        ctx.emit(output, tuple);
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        for guards in &mut self.guards {
            guards.expire_with(&punctuation);
        }
        ctx.emit_punctuation(0, punctuation.clone());
        ctx.emit_punctuation(1, punctuation);
        Ok(())
    }

    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let Some(guards) = self.guards.get_mut(output) else {
            return Ok(());
        };
        if feedback.intent() != FeedbackIntent::Assumed {
            self.stats.received.record(feedback.intent());
            return Ok(());
        }
        let _ = guards.register(feedback.clone());
        // Unlike DUPLICATE, the split's outputs partition the input, so the
        // subset assumed away by one output is only producible on that output;
        // exploitation (dropping it before routing) is correct immediately.
        // Propagation upstream, however, is only safe when *both* outputs have
        // assumed it away — otherwise the antecedent would also stop producing
        // the other output's copy... which does not exist.  It is therefore
        // safe to propagate the *conjunction* of the feedback with the routing
        // condition; we conservatively propagate only when both outputs have
        // assumed the same subset (mirroring DUPLICATE) to avoid encoding the
        // routing predicate as a pattern.
        let on_both = self.guards.iter().all(|guards| {
            guards.assumed_guards().iter().any(|g| g.pattern().subsumes(feedback.pattern()))
        });
        if on_both {
            ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), &self.name));
            self.stats.relayed.record(feedback.intent());
        }
        Ok(())
    }

    fn feedback_stats(&self) -> Option<FeedbackStats> {
        let mut stats = self.stats.clone();
        for guards in &self.guards {
            stats.merge(guards.stats());
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("speed", DataType::Float)])
    }

    fn dirty_tuple(ts: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Null])
    }

    fn clean_tuple(ts: i64, speed: f64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Float(speed)])
    }

    fn needs_imputation() -> Split {
        Split::new("split", schema(), TuplePredicate::new("speed is null", |t| t.has_null()))
    }

    #[test]
    fn split_routes_by_condition() {
        let mut op = needs_imputation();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, dirty_tuple(1), &mut ctx).unwrap();
        op.on_tuple(0, clean_tuple(2, 55.0), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].0, 0, "dirty tuple routed to the imputation path");
        assert_eq!(emitted[1].0, 1, "clean tuple routed to the clean path");
    }

    #[test]
    fn punctuation_goes_to_both_outputs() {
        let mut op = needs_imputation();
        let mut ctx = OperatorContext::new();
        op.on_punctuation(
            0,
            Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(1)).unwrap(),
            &mut ctx,
        )
        .unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2);
        assert_ne!(emitted[0].0, emitted[1].0);
    }

    #[test]
    fn feedback_from_one_output_suppresses_only_that_route() {
        let mut op = needs_imputation();
        let mut ctx = OperatorContext::new();
        // The imputation path (output 0) assumes away everything before t=100.
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                schema(),
                &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(100))))],
            )
            .unwrap(),
            "IMPUTE",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "only one output has assumed the subset");

        op.on_tuple(0, dirty_tuple(50), &mut ctx).unwrap(); // suppressed (imputation path)
        op.on_tuple(0, clean_tuple(50, 60.0), &mut ctx).unwrap(); // clean path unaffected
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].0, 1);
        assert_eq!(op.feedback_stats().unwrap().tuples_suppressed, 1);
    }

    #[test]
    fn punctuation_expires_each_outputs_guards() {
        let mut op = needs_imputation();
        let mut ctx = OperatorContext::new();
        let before_100 = Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(100))))],
        )
        .unwrap();
        op.on_feedback(0, FeedbackPunctuation::assumed(before_100, "IMPUTE"), &mut ctx).unwrap();
        let progress =
            |secs| Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(secs));
        op.on_punctuation(0, progress(99).unwrap(), &mut ctx).unwrap();
        op.on_tuple(0, dirty_tuple(99), &mut ctx).unwrap();
        assert_eq!(op.feedback_stats().unwrap().tuples_suppressed, 1, "not caught up yet");
        op.on_punctuation(0, progress(100).unwrap(), &mut ctx).unwrap();
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.guards_expired, 1);
        assert_eq!(stats.received.assumed, 1);
    }

    #[test]
    fn feedback_from_both_outputs_is_relayed() {
        let mut op = needs_imputation();
        let mut ctx = OperatorContext::new();
        let pattern = Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(100))))],
        )
        .unwrap();
        op.on_feedback(0, FeedbackPunctuation::assumed(pattern.clone(), "IMPUTE"), &mut ctx)
            .unwrap();
        op.on_feedback(1, FeedbackPunctuation::assumed(pattern, "PACE"), &mut ctx).unwrap();
        assert_eq!(ctx.take_feedback().len(), 1);
    }
}
