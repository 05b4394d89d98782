//! UNION: merge several streams of the same schema.
//!
//! Plain UNION interleaves its inputs in arrival order.  Its punctuation
//! handling follows the classic rule: a subset of the *output* is complete
//! only once **every** input has declared it complete, so UNION holds the
//! per-input progress watermarks and emits the minimum.  Feedback received
//! from downstream applies to all inputs equally and is relayed to each.

use crate::common::MinWatermark;
use dsms_engine::{EngineResult, Operator, OperatorContext, Page, StreamItem};
use dsms_feedback::{
    BatchGuardDecision, FeedbackIntent, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles,
    GuardDecision,
};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};

/// Merges `inputs` streams of identical schema into one.
pub struct Union {
    name: String,
    schema: SchemaRef,
    inputs: usize,
    /// The attribute progress punctuation is tracked on (if any).
    progress_attribute: Option<String>,
    /// Combined per-input progress watermark (min across inputs).
    progress: MinWatermark,
    registry: FeedbackRegistry,
}

impl Union {
    /// Creates a union over `inputs` streams of the given schema.
    pub fn new(name: impl Into<String>, schema: SchemaRef, inputs: usize) -> Self {
        let name = name.into();
        Union {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            schema,
            inputs: inputs.max(2),
            progress_attribute: None,
            progress: MinWatermark::new(inputs.max(2)),
        }
    }

    /// Enables combined progress-punctuation handling on the named timestamp
    /// attribute: the union emits progress punctuation at the minimum of its
    /// inputs' watermarks.
    pub fn with_progress_on(mut self, attribute: impl Into<String>) -> Self {
        self.progress_attribute = Some(attribute.into());
        self
    }

    /// The stream schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

impl Operator for Union {
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
        self.inputs
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
        ctx.emit(0, tuple);
        Ok(())
    }

    /// Batch fast path: a punctuation-free page whose column summaries prove
    /// every row clear of the active guards is forwarded intact (one move, no
    /// per-tuple probes or re-batching), so fan-in plans keep upstream
    /// batching across the merge.  Pages carrying punctuation always take the
    /// per-item path — per-input punctuation must go through the min-watermark
    /// combine, never straight to the output — as do pages the summaries
    /// cannot decide; a page proven entirely covered is dropped wholesale.
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        let decision = self.registry.decide_batch(page.tuple_count(), |c| page.column_summary(c));
        match decision {
            BatchGuardDecision::PassAll if page.punctuation_count() == 0 => {
                ctx.emit_page(0, page);
            }
            BatchGuardDecision::SuppressAll => {
                for item in page {
                    if let StreamItem::Punctuation(punctuation) = item {
                        self.on_punctuation(input, punctuation, ctx)?;
                    }
                }
            }
            _ => {
                for item in page {
                    match item {
                        StreamItem::Tuple(tuple) => self.on_tuple(input, tuple, ctx)?,
                        StreamItem::Punctuation(punctuation) => {
                            self.on_punctuation(input, punctuation, ctx)?
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let Some(attr) = &self.progress_attribute else {
            // Without progress tracking, forwarding a per-input punctuation
            // would be incorrect (the other inputs may still produce matching
            // tuples), so punctuation is absorbed.
            return Ok(());
        };
        if let Some(w) = punctuation.watermark_for(attr) {
            if let Some(combined) = self.progress.observe(input, w) {
                // One input's progress says nothing of the others, and the
                // guards apply to all of them: only the combined punctuation
                // may release a guard.
                let combined = Punctuation::progress(self.schema.clone(), attr, combined)?;
                self.registry.expire_with(&combined);
                ctx.emit_punctuation(0, combined);
            }
        }
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // The union's output is the disjoint-ish merge of its inputs; a subset
        // assumed away downstream can be assumed away on every input, so the
        // feedback is relayed to each input unchanged (schemas are identical).
        if feedback.intent() == FeedbackIntent::Assumed {
            for input in 0..self.inputs {
                ctx.send_feedback(input, feedback.relay(feedback.pattern().clone(), &self.name));
                self.registry.stats_mut().relayed.record(feedback.intent());
            }
        }
        let _ = self.registry.register(feedback);
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
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
    }

    fn tuple(ts: i64, v: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(v)])
    }

    fn progress(ts: i64) -> Punctuation {
        Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(ts)).unwrap()
    }

    #[test]
    fn union_interleaves_inputs() {
        let mut op = Union::new("union", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(1, 10), &mut ctx).unwrap();
        op.on_tuple(1, tuple(2, 20), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 2);
    }

    #[test]
    fn progress_punctuation_is_the_minimum_across_inputs() {
        let mut op = Union::new("union", schema(), 2).with_progress_on("timestamp");
        let mut ctx = OperatorContext::new();
        op.on_punctuation(0, progress(100), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "second input has not punctuated");
        op.on_punctuation(1, progress(60), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1);
        match &emitted[0].1 {
            StreamItem::Punctuation(p) => {
                assert_eq!(p.watermark_for("timestamp"), Some(Timestamp::from_secs(60)))
            }
            other => panic!("expected punctuation, got {other:?}"),
        }
        // Advancing the slower input emits the new minimum exactly once.
        op.on_punctuation(1, progress(90), &mut ctx).unwrap();
        op.on_punctuation(1, progress(80), &mut ctx).unwrap(); // regression ignored
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1);
        match &emitted[0].1 {
            StreamItem::Punctuation(p) => {
                assert_eq!(p.watermark_for("timestamp"), Some(Timestamp::from_secs(90)))
            }
            other => panic!("expected punctuation, got {other:?}"),
        }
    }

    #[test]
    fn punctuation_is_absorbed_without_progress_tracking() {
        let mut op = Union::new("union", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_punctuation(0, progress(100), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
    }

    #[test]
    fn clear_punctuation_free_pages_pass_through_intact() {
        use dsms_engine::Emission;
        let mut op = Union::new("union", schema(), 2);
        let mut ctx = OperatorContext::new();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 10)),
            StreamItem::Tuple(tuple(2, 20)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let mut pages = Vec::new();
        ctx.drain_emissions(|port, emission| match emission {
            Emission::Page(p) => pages.push((port, p)),
            Emission::Item(item) => panic!("expected a whole page, got item {item:?}"),
        });
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].0, 0);
        assert_eq!(pages[0].1.tuple_count(), 2);
    }

    #[test]
    fn pages_carrying_punctuation_take_the_per_item_path() {
        let mut op = Union::new("union", schema(), 2).with_progress_on("timestamp");
        let mut ctx = OperatorContext::new();
        // Input 1 has already punctuated to ts=50; input 0's page carries a
        // punctuation at ts=100, so the combined minimum (50) must be emitted —
        // forwarding the page intact would leak input 0's watermark.
        op.on_punctuation(1, progress(50), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 10)),
            StreamItem::Punctuation(progress(100)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2, "tuple plus the *combined* punctuation");
        match &emitted[1].1 {
            StreamItem::Punctuation(p) => {
                assert_eq!(p.watermark_for("timestamp"), Some(Timestamp::from_secs(50)))
            }
            other => panic!("expected combined punctuation, got {other:?}"),
        }
    }

    #[test]
    fn only_the_combined_punctuation_expires_guards() {
        let mut op = Union::new("union", schema(), 2).with_progress_on("timestamp");
        let mut ctx = OperatorContext::new();
        let before_60 = Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(60))))],
        )
        .unwrap();
        op.on_feedback(0, FeedbackPunctuation::assumed(before_60, "sink"), &mut ctx).unwrap();
        // Input 0 is complete up to 100 s, input 1 is not: its rows before
        // 60 s must still be suppressed.
        op.on_punctuation(0, progress(100), &mut ctx).unwrap();
        op.on_tuple(1, tuple(30, 1), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
        assert_eq!(op.feedback_stats().unwrap().guards_expired, 0);
        op.on_punctuation(1, progress(60), &mut ctx).unwrap();
        assert_eq!(op.feedback_stats().unwrap().guards_expired, 1);
    }

    #[test]
    fn covered_pages_are_dropped_wholesale() {
        let mut op = Union::new("union", schema(), 2);
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("v", PatternItem::Ge(Value::Int(100)))]).unwrap(),
            "sink",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        let _ = ctx.take_feedback();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 150)),
            StreamItem::Tuple(tuple(2, 200)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "summaries prove the whole page assumed away");
    }

    #[test]
    fn assumed_feedback_is_relayed_to_every_input_and_exploited() {
        let mut op = Union::new("union", schema(), 3);
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("v", PatternItem::Ge(Value::Int(100)))]).unwrap(),
            "sink",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 3);
        let ports: Vec<usize> = relayed.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![0, 1, 2]);

        op.on_tuple(0, tuple(1, 150), &mut ctx).unwrap(); // suppressed
        op.on_tuple(1, tuple(1, 50), &mut ctx).unwrap(); // passes
        assert_eq!(ctx.take_emitted().len(), 1);
    }
}
