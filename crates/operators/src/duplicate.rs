//! DUPLICATE: copy a stream to several outputs.
//!
//! The paper uses DUPLICATE in the imputation plan (Figure 4a) to send the
//! same input to the clean-path filter and the dirty-path filter.  Its
//! feedback behaviour is subtle (Section 4.1): the operator's definition
//! requires all outputs to stay identical, so exploiting an assumed
//! punctuation is only correct once *equivalent* feedback has been received
//! from **every** output; until then the correct response is the null
//! response (and no propagation).

use crate::common::guarded_pass;
use dsms_engine::{EngineResult, Operator, OperatorContext, Page};
use dsms_feedback::{
    characterize_duplicate, BatchGuardDecision, FeedbackIntent, FeedbackPunctuation,
    FeedbackRegistry, FeedbackRoles, GuardDecision,
};
use dsms_punctuation::{Pattern, Punctuation};
use dsms_types::{SchemaRef, Tuple};

/// Copies its input stream to `outputs` identical output streams.
pub struct Duplicate {
    name: String,
    schema: SchemaRef,
    outputs: usize,
    /// Assumed patterns received so far, per output port.
    assumed_per_output: Vec<Vec<Pattern>>,
    registry: FeedbackRegistry,
}

impl Duplicate {
    /// Creates a duplicate operator with the given number of outputs.
    pub fn new(name: impl Into<String>, schema: SchemaRef, outputs: usize) -> Self {
        let name = name.into();
        Duplicate {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            schema,
            outputs: outputs.max(2),
            assumed_per_output: vec![Vec::new(); outputs.max(2)],
        }
    }

    /// True when an equivalent (subsuming) assumed pattern has been received
    /// on every output, so exploiting `pattern` keeps the outputs identical.
    fn assumed_on_all_outputs(&self, pattern: &Pattern) -> bool {
        self.assumed_per_output.iter().all(|patterns| patterns.iter().any(|p| p.subsumes(pattern)))
    }
}

impl Operator for Duplicate {
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
        self.outputs
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if self.registry.decide(&tuple) == GuardDecision::Suppress {
            return Ok(());
        }
        // Tuple clones are O(1) (shared value buffer), and the final output
        // receives the original by move: N outputs, N-1 refcount bumps.
        for port in 0..self.outputs - 1 {
            ctx.emit(port, tuple.clone());
        }
        ctx.emit(self.outputs - 1, tuple);
        Ok(())
    }

    /// Batch fast path: a page whose column summaries prove every row clear
    /// of the active guards is copied to each output *as a page* (O(1) clones
    /// of the shared lanes), keeping upstream batching intact across the
    /// fan-out instead of exploding it into per-tuple routing.  A page proven
    /// entirely covered drops its row lane wholesale; its punctuation lane
    /// still reaches every output.  Inconclusive summaries fall back to the
    /// exact per-item path.
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        let decision = self.registry.decide_batch(page.tuple_count(), |c| page.column_summary(c));
        if decision == BatchGuardDecision::PassAll {
            // Page clones share the row/punctuation lanes, so this is N-1
            // refcount bumps plus one move — identical item order on every
            // output, exactly like the per-tuple path.
            for port in 0..self.outputs - 1 {
                ctx.emit_page(port, page.clone());
            }
            ctx.emit_page(self.outputs - 1, page);
            return Ok(());
        }
        guarded_pass(self, input, page, decision, ctx, |dup, t, ctx| dup.on_tuple(input, t, ctx))
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.registry.expire_with(&punctuation);
        // A vote for a subset the punctuation completed could only ever
        // mount a guard that matches nothing.
        for votes in &mut self.assumed_per_output {
            votes.retain(|p| !punctuation.releases(p));
        }
        for port in 0..self.outputs - 1 {
            ctx.emit_punctuation(port, punctuation.clone());
        }
        ctx.emit_punctuation(self.outputs - 1, punctuation);
        Ok(())
    }

    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if feedback.intent() != FeedbackIntent::Assumed {
            // Desired/demanded feedback is recorded but DUPLICATE itself takes
            // no action (it has no state and no production ordering freedom).
            let _ = self.registry.register(feedback);
            return Ok(());
        }
        if let Some(patterns) = self.assumed_per_output.get_mut(output) {
            patterns.push(feedback.pattern().clone());
        }
        let all = self.assumed_on_all_outputs(feedback.pattern());
        let ch = characterize_duplicate(&self.schema, all, feedback.pattern())?;
        if !ch.is_null() {
            // Every output has assumed this subset away: the guard becomes
            // active and the feedback is safe to propagate upstream.
            ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), &self.name));
            self.registry.stats_mut().relayed.record(feedback.intent());
            let _ = self.registry.register(feedback);
        } else {
            // Null response: remember the message but do not enact a guard.
            self.registry.stats_mut().received.record(feedback.intent());
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
    use dsms_engine::StreamItem;
    use dsms_punctuation::PatternItem;
    use dsms_types::{DataType, Schema, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("segment", DataType::Int)])
    }

    fn tuple(seg: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::EPOCH), Value::Int(seg)])
    }

    fn seg_pattern(seg: i64) -> Pattern {
        Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(seg)))]).unwrap()
    }

    #[test]
    fn duplicate_copies_to_every_output() {
        let mut op = Duplicate::new("dup", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(1), &mut ctx).unwrap();
        op.on_punctuation(
            0,
            Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
            &mut ctx,
        )
        .unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 4, "1 tuple + 1 punctuation on each of 2 outputs");
        let ports: Vec<usize> = emitted.iter().map(|(p, _)| *p).collect();
        assert!(ports.contains(&0) && ports.contains(&1));
    }

    #[test]
    fn feedback_from_one_output_is_a_null_response() {
        let mut op = Duplicate::new("dup", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_feedback(0, FeedbackPunctuation::assumed(seg_pattern(3), "left"), &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "not propagated yet");
        op.on_tuple(0, tuple(3), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 2, "still copied to both outputs");
    }

    #[test]
    fn feedback_from_all_outputs_enables_exploitation() {
        let mut op = Duplicate::new("dup", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_feedback(0, FeedbackPunctuation::assumed(seg_pattern(3), "left"), &mut ctx).unwrap();
        op.on_feedback(1, FeedbackPunctuation::assumed(seg_pattern(3), "right"), &mut ctx).unwrap();
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 1, "propagated once both outputs agree");
        op.on_tuple(0, tuple(3), &mut ctx).unwrap();
        op.on_tuple(0, tuple(4), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2, "segment 3 suppressed on both outputs, segment 4 copied");
    }

    #[test]
    fn wider_feedback_on_one_output_covers_narrower_on_the_other() {
        let mut op = Duplicate::new("dup", schema(), 2);
        let mut ctx = OperatorContext::new();
        // Output 0 assumes away *everything* (wildcard pattern subsumes all).
        op.on_feedback(
            0,
            FeedbackPunctuation::assumed(Pattern::all_wildcards(schema()), "left"),
            &mut ctx,
        )
        .unwrap();
        // Output 1 assumes away segment 5 only → both outputs agree on segment 5.
        op.on_feedback(1, FeedbackPunctuation::assumed(seg_pattern(5), "right"), &mut ctx).unwrap();
        op.on_tuple(0, tuple(5), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "segment 5 suppressed");
        op.on_tuple(0, tuple(6), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 2, "segment 6 unaffected");
    }

    #[test]
    fn clear_pages_are_copied_to_every_output_as_pages() {
        use dsms_engine::Emission;
        let mut op = Duplicate::new("dup", schema(), 3);
        let mut ctx = OperatorContext::new();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1)),
            StreamItem::Tuple(tuple(2)),
            StreamItem::Punctuation(
                Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
            ),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let mut pages = Vec::new();
        ctx.drain_emissions(|port, emission| match emission {
            Emission::Page(p) => pages.push((port, p)),
            Emission::Item(item) => panic!("expected whole pages, got item {item:?}"),
        });
        let ports: Vec<usize> = pages.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![0, 1, 2], "one intact page per output");
        for (_, p) in &pages {
            assert_eq!(p.tuple_count(), 2);
            assert_eq!(p.punctuation_count(), 1, "punctuation still reaches every copy");
        }
    }

    #[test]
    fn covered_pages_drop_rows_but_copy_punctuation_to_all_outputs() {
        let mut op = Duplicate::new("dup", schema(), 2);
        let mut ctx = OperatorContext::new();
        // Unanimous assumed feedback on segment 3 activates the guard.
        op.on_feedback(0, FeedbackPunctuation::assumed(seg_pattern(3), "left"), &mut ctx).unwrap();
        op.on_feedback(1, FeedbackPunctuation::assumed(seg_pattern(3), "right"), &mut ctx).unwrap();
        let _ = ctx.take_feedback();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(3)),
            StreamItem::Tuple(tuple(3)),
            StreamItem::Punctuation(
                Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
            ),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2, "only the punctuation survives, copied to both outputs");
        assert!(emitted.iter().all(|(_, i)| matches!(i, StreamItem::Punctuation(_))));
    }

    #[test]
    fn mixed_pages_fall_back_to_the_exact_per_item_path() {
        let mut op = Duplicate::new("dup", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_feedback(0, FeedbackPunctuation::assumed(seg_pattern(3), "left"), &mut ctx).unwrap();
        op.on_feedback(1, FeedbackPunctuation::assumed(seg_pattern(3), "right"), &mut ctx).unwrap();
        let _ = ctx.take_feedback();
        // Segments 3 and 4 on one page: summaries span the guard, so the
        // per-tuple path must suppress 3 and copy 4.
        let page = Page::from_items(vec![StreamItem::Tuple(tuple(3)), StreamItem::Tuple(tuple(4))]);
        op.on_page(0, page, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2, "segment 4 copied to both outputs, segment 3 suppressed");
        assert!(emitted.iter().all(|(_, i)| i.as_tuple().unwrap().int("segment").unwrap() == 4));
    }

    #[test]
    fn at_least_two_outputs() {
        let op = Duplicate::new("dup", schema(), 0);
        assert_eq!(op.outputs(), 2);
    }
}
