//! SELECT (σ): stateless filtering.
//!
//! The paper singles SELECT out as the easiest operator to make feedback
//! aware: it maintains no internal state, so an assumed punctuation "can
//! simply be added to its select condition" (Section 4.3).  That is exactly
//! what this implementation does — incoming assumed patterns become negative
//! conjuncts of the condition — and because the input and output schemas are
//! identical, safe propagation is the identity rewrite.

use crate::common::guarded_pass;
use crate::common::TuplePredicate;
use dsms_engine::{EngineError, EngineResult, Operator, OperatorContext, Page, StateEntry};
use dsms_feedback::{
    characterize_select, FeedbackIntent, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles,
    GuardDecision,
};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};

/// A stateless selection with a feedback-extensible condition.
pub struct Select {
    name: String,
    schema: SchemaRef,
    predicate: TuplePredicate,
    registry: FeedbackRegistry,
    relay: bool,
}

impl Select {
    /// Creates a selection over `schema` keeping tuples for which `predicate`
    /// holds.
    pub fn new(name: impl Into<String>, schema: SchemaRef, predicate: TuplePredicate) -> Self {
        let name = name.into();
        Select {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            schema,
            predicate,
            relay: true,
        }
    }

    /// Disables relaying feedback to the antecedent (exploit locally only).
    pub fn without_relay(mut self) -> Self {
        self.relay = false;
        self
    }

    /// The stream schema (input and output are identical).
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

impl Operator for Select {
    fn feedback_roles(&self) -> FeedbackRoles {
        if self.relay {
            FeedbackRoles::exploiter().with_relayer()
        } else {
            FeedbackRoles::exploiter()
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
        1
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Assumed feedback acts as an additional (negated) conjunct.
        if self.registry.decide(&tuple) == GuardDecision::Suppress {
            return Ok(());
        }
        if self.predicate.eval(&tuple) {
            ctx.emit(0, tuple);
        }
        Ok(())
    }

    /// Columnar kernel: classifies the whole page against the feedback
    /// guards via the page's column summaries, then walks it once.  A
    /// `SuppressAll` page skips every row (punctuation still flows), a
    /// `PassAll` page evaluates only the select predicate, with no per-tuple
    /// guard probe, and a `Mixed` page takes the exact per-tuple path.
    ///
    /// ```
    /// use dsms_engine::{Operator, OperatorContext, Page, StreamItem};
    /// use dsms_feedback::FeedbackPunctuation;
    /// use dsms_operators::{Select, TuplePredicate};
    /// use dsms_punctuation::{Pattern, PatternItem};
    /// use dsms_types::{DataType, Schema, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[("segment", DataType::Int)]);
    /// let mut select = Select::new("keep", schema.clone(), TuplePredicate::always());
    /// let mut ctx = OperatorContext::new();
    /// let covered = Pattern::for_attributes(
    ///     schema.clone(),
    ///     &[("segment", PatternItem::Eq(Value::Int(3)))],
    /// )
    /// .unwrap();
    /// select.on_feedback(0, FeedbackPunctuation::assumed(covered, "sink"), &mut ctx).unwrap();
    ///
    /// let row = |seg| StreamItem::Tuple(Tuple::new(schema.clone(), vec![Value::Int(seg)]));
    /// // Column summaries prove this page is entirely assumed away …
    /// select.on_page(0, Page::from_items(vec![row(3), row(3)]), &mut ctx).unwrap();
    /// assert_eq!(ctx.take_emitted().len(), 0);
    /// // … and this one entirely clear — both decided without per-tuple probes.
    /// select.on_page(0, Page::from_items(vec![row(5), row(6)]), &mut ctx).unwrap();
    /// assert_eq!(ctx.take_emitted().len(), 2);
    /// assert_eq!(select.feedback_stats().unwrap().batches_summary_conclusive, 2);
    /// ```
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        let decision = self.registry.decide_batch(page.tuple_count(), |c| page.column_summary(c));
        guarded_pass(self, input, page, decision, ctx, |select, tuple, ctx| {
            if select.predicate.eval(&tuple) {
                ctx.emit(0, tuple);
            }
            Ok(())
        })
    }

    /// Forwards the punctuation, first dropping the guards it releases.
    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.registry.expire_with(&punctuation);
        ctx.emit_punctuation(0, punctuation);
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // The characterization confirms the response (guard + propagate); it is
        // computed so that debug assertions and tests can validate it, and to
        // mirror how a NiagaraST operator would consult its characterization.
        let characterization = characterize_select(&self.schema, feedback.pattern())?;
        debug_assert!(
            characterization.is_null() || characterization.guards_input(),
            "select characterization must guard its input"
        );
        if feedback.intent() == FeedbackIntent::Assumed && self.relay && !characterization.is_null()
        {
            ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), &self.name));
            self.registry.stats_mut().relayed.record(feedback.intent());
        }
        let _ = self.registry.register(feedback);
        Ok(())
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Some(self.registry.stats().clone())
    }

    /// SELECT's only mutable state is its feedback registry, which the
    /// snapshot captures wholesale — a restored SELECT keeps every guard it
    /// had at the checkpoint.
    fn restartable(&self) -> bool {
        true
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        Ok(vec![StateEntry { key: Vec::new(), payload: Box::new(self.registry.clone()) }])
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.registry = FeedbackRegistry::new(self.name.clone());
        for entry in entries {
            match entry.payload.downcast::<FeedbackRegistry>() {
                Ok(registry) => self.registry = *registry,
                Err(_) => {
                    return Err(EngineError::OperatorFailed {
                        operator: self.name.clone(),
                        detail: "checkpoint entry is not a select registry snapshot".into(),
                    })
                }
            }
        }
        Ok(())
    }

    /// SELECT is dedupe-able: its behaviour is fully determined by its name,
    /// schema, predicate *description*, and relay flag.  The description
    /// stands in for the closure (closures cannot be compared), so two
    /// selections claiming the same description must implement the same
    /// condition — the usual contract for [`TuplePredicate::new`] callers.
    fn fingerprint(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut hasher = dsms_types::FixedHasher::new();
        "select".hash(&mut hasher);
        self.name.hash(&mut hasher);
        self.predicate.description().hash(&mut hasher);
        self.relay.hash(&mut hasher);
        for name in self.schema.names() {
            name.hash(&mut hasher);
        }
        Some(hasher.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::StreamItem;
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn tuple(seg: i64, speed: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Timestamp(Timestamp::EPOCH), Value::Int(seg), Value::Float(speed)],
        )
    }

    fn fast_only() -> Select {
        Select::new(
            "fast",
            schema(),
            TuplePredicate::new("speed >= 45", |t| t.float("speed").unwrap_or(0.0) >= 45.0),
        )
    }

    #[test]
    fn select_filters_by_predicate() {
        let mut op = fast_only();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(1, 60.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(1, 30.0), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);
    }

    #[test]
    fn assumed_feedback_extends_the_condition_and_is_relayed() {
        let mut op = fast_only();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap(),
            "downstream",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert_eq!(ctx.take_feedback().len(), 1, "select relays assumed feedback");

        op.on_tuple(0, tuple(3, 60.0), &mut ctx).unwrap(); // suppressed by feedback
        op.on_tuple(0, tuple(4, 60.0), &mut ctx).unwrap(); // passes
        op.on_tuple(0, tuple(4, 10.0), &mut ctx).unwrap(); // fails original predicate
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1);
        assert_eq!(op.feedback_stats().unwrap().tuples_suppressed, 1);
    }

    #[test]
    fn on_page_batch_matches_per_tuple_behaviour() {
        use dsms_punctuation::Punctuation;
        let mut op = fast_only();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap(),
            "downstream",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        ctx.take_feedback();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(3, 60.0)), // suppressed by feedback
            StreamItem::Tuple(tuple(4, 60.0)), // passes
            StreamItem::Tuple(tuple(4, 10.0)), // fails predicate
            StreamItem::Punctuation(
                Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
            ),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2, "one surviving tuple + forwarded punctuation");
        assert_eq!(op.feedback_stats().unwrap().tuples_suppressed, 1);
    }

    #[test]
    fn on_page_decides_conclusive_batches_from_summaries() {
        use dsms_punctuation::Punctuation;
        let mut op = fast_only();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap(),
            "downstream",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        ctx.take_feedback();
        // Every row is segment 3: the summary proves the guard covers the
        // page, so it is suppressed wholesale — punctuation still flows.
        let covered = Page::from_items(vec![
            StreamItem::Tuple(tuple(3, 60.0)),
            StreamItem::Tuple(tuple(3, 80.0)),
            StreamItem::Punctuation(
                Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
            ),
        ]);
        op.on_page(0, covered, &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1, "only the punctuation survives");
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.tuples_suppressed, 2);
        assert_eq!(stats.batches_summary_conclusive, 1);
        // Every row is segment 5: the summary proves the guard misses, so the
        // predicate runs without any per-tuple guard probe.
        let clear = Page::from_items(vec![
            StreamItem::Tuple(tuple(5, 60.0)),
            StreamItem::Tuple(tuple(5, 10.0)),
        ]);
        op.on_page(0, clear, &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1, "predicate still filters");
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.tuples_suppressed, 2, "no additional suppression");
        assert_eq!(stats.batches_summary_conclusive, 2);
        assert_eq!(stats.batches_summary_fallback, 0);
    }

    #[test]
    fn desired_feedback_is_not_relayed_as_assumed() {
        let mut op = fast_only();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::desired(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap(),
            "downstream",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty());
        // Desired tuples still pass (prioritization does not drop anything).
        op.on_tuple(0, tuple(3, 60.0), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);
    }

    #[test]
    fn relay_can_be_disabled() {
        let mut op = fast_only().without_relay();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap(),
            "downstream",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty());
        op.on_tuple(0, tuple(3, 60.0), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "still exploited locally");
    }
}
