//! PROJECT (π): attribute projection.
//!
//! Projection changes the schema, so relaying feedback requires rewriting the
//! pattern from the (projected) output schema back onto the input schema via
//! an attribute mapping.  Attributes the feedback constrains always exist in
//! the input (they survived the projection), so safe propagation always exists
//! and is computed with [`dsms_feedback::mapping::propagate_through`].

use crate::common::guarded_pass;
use dsms_engine::{EngineResult, Operator, OperatorContext, Page};
use dsms_feedback::{
    mapping::propagate_through, AttributeMapping, FeedbackIntent, FeedbackPunctuation,
    FeedbackRegistry, FeedbackRoles, GuardDecision, PropagationOutcome,
};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};
use std::sync::Arc;

/// A projection onto a subset of attributes (by name), preserving order.
pub struct Project {
    name: String,
    input_schema: SchemaRef,
    output_schema: SchemaRef,
    indices: Vec<usize>,
    mapping: AttributeMapping,
    registry: FeedbackRegistry,
}

impl Project {
    /// Creates a projection keeping the named attributes of `input_schema`, in
    /// the order given.
    pub fn new(
        name: impl Into<String>,
        input_schema: SchemaRef,
        keep: &[&str],
    ) -> dsms_types::TypeResult<Self> {
        let name = name.into();
        let indices: Vec<usize> =
            keep.iter().map(|a| input_schema.index_of(a)).collect::<Result<_, _>>()?;
        let output_schema = Arc::new(input_schema.project(&indices)?);
        let mapping = AttributeMapping::by_name(output_schema.clone(), input_schema.clone())?;
        Ok(Project {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            input_schema,
            output_schema,
            indices,
            mapping,
        })
    }

    /// The output schema.
    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }
}

impl Operator for Project {
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::exploiter().with_relayer()
    }

    fn schema_in(&self, _input: usize) -> Option<SchemaRef> {
        Some(self.input_schema.clone())
    }

    fn schema_out(&self, _output: usize) -> Option<SchemaRef> {
        Some(self.output_schema.clone())
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
        let projected = tuple.project(&self.indices, self.output_schema.clone())?;
        if self.registry.decide(&projected) == GuardDecision::Suppress {
            return Ok(());
        }
        ctx.emit(0, projected);
        Ok(())
    }

    /// Columnar kernel: projection is a column *take* — the output columns
    /// are a subset of the input columns — so guards over the output schema
    /// can be tested against the corresponding *input* column summaries
    /// before any row is projected.  Under `SuppressAll` no row is even
    /// projected (punctuation still flows, remapped), under `PassAll` each
    /// row is projected with no guard probe, and under `Mixed` each takes
    /// the exact per-tuple path.
    ///
    /// ```
    /// use dsms_engine::{Operator, OperatorContext, Page, StreamItem};
    /// use dsms_feedback::FeedbackPunctuation;
    /// use dsms_operators::Project;
    /// use dsms_punctuation::{Pattern, PatternItem};
    /// use dsms_types::{DataType, Schema, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[("segment", DataType::Int), ("speed", DataType::Float)]);
    /// let mut project = Project::new("narrow", schema.clone(), &["speed"]).unwrap();
    /// let mut ctx = OperatorContext::new();
    /// // The guard is expressed over the *output* schema; the kernel remaps
    /// // it to the corresponding input column's summary.
    /// let covered = Pattern::for_attributes(
    ///     project.output_schema().clone(),
    ///     &[("speed", PatternItem::Ge(Value::Float(100.0)))],
    /// )
    /// .unwrap();
    /// project.on_feedback(0, FeedbackPunctuation::assumed(covered, "sink"), &mut ctx).unwrap();
    ///
    /// let row = |s: f64| {
    ///     StreamItem::Tuple(Tuple::new(schema.clone(), vec![Value::Int(1), Value::Float(s)]))
    /// };
    /// // Every input row has speed >= 100: no row is even projected.
    /// project.on_page(0, Page::from_items(vec![row(120.0), row(130.0)]), &mut ctx).unwrap();
    /// assert_eq!(ctx.take_emitted().len(), 0);
    /// // Every input row is provably clear: projected with no guard probes.
    /// project.on_page(0, Page::from_items(vec![row(40.0), row(50.0)]), &mut ctx).unwrap();
    /// assert_eq!(ctx.take_emitted().len(), 2);
    /// assert_eq!(project.feedback_stats().unwrap().batches_summary_conclusive, 2);
    /// ```
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        // Guards are registered over the output schema; output column `c` is
        // input column `indices[c]`, so the take mapping doubles as the
        // summary remap.
        let indices = &self.indices;
        let decision = self.registry.decide_batch(page.tuple_count(), |c| {
            indices.get(c).and_then(|&src| page.column_summary(src))
        });
        guarded_pass(self, input, page, decision, ctx, |project, tuple, ctx| {
            ctx.emit(0, tuple.project(&project.indices, project.output_schema.clone())?);
            Ok(())
        })
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Project the punctuation pattern onto the output schema; attributes
        // projected away simply disappear from the pattern (the punctuation
        // still correctly describes a completed subset of the output).  The
        // guards are over the output schema, so the projected punctuation is
        // the one that can release them.
        let mapping: Vec<Option<usize>> = self.indices.iter().map(|i| Some(*i)).collect();
        let pattern = punctuation.pattern().remap(self.output_schema.clone(), &mapping)?;
        if !pattern.is_unconstrained() {
            let projected = Punctuation::new(pattern);
            self.registry.expire_with(&projected);
            ctx.emit_punctuation(0, projected);
        }
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if feedback.intent() == FeedbackIntent::Assumed {
            match propagate_through(&feedback, &self.mapping, &self.name)? {
                PropagationOutcome::Propagate(relayed) => {
                    self.registry.stats_mut().relayed.record(feedback.intent());
                    ctx.send_feedback(0, relayed);
                }
                PropagationOutcome::NothingToPropagate | PropagationOutcome::Unsafe { .. } => {}
            }
        }
        let _ = self.registry.register(feedback);
        Ok(())
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Some(self.registry.stats().clone())
    }

    /// PROJECT is dedupe-able: its behaviour is fully determined by its name,
    /// input schema, and the kept column indices.
    fn fingerprint(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut hasher = dsms_types::FixedHasher::new();
        "project".hash(&mut hasher);
        self.name.hash(&mut hasher);
        for name in self.input_schema.names() {
            name.hash(&mut hasher);
        }
        self.indices.hash(&mut hasher);
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
            ("detector", DataType::Int),
        ])
    }

    fn tuple(seg: i64, speed: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::Timestamp(Timestamp::from_secs(1)),
                Value::Int(seg),
                Value::Float(speed),
                Value::Int(7),
            ],
        )
    }

    #[test]
    fn project_narrows_tuples() {
        let mut op = Project::new("proj", schema(), &["segment", "speed"]).unwrap();
        assert_eq!(op.output_schema().names(), vec!["segment", "speed"]);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(3, 55.0), &mut ctx).unwrap();
        let out = ctx.take_emitted();
        assert_eq!(out.len(), 1);
        let t = out[0].1.as_tuple().unwrap();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.int("segment").unwrap(), 3);
    }

    #[test]
    fn projected_punctuation_expires_output_guards() {
        let mut op = Project::new("proj", schema(), &["segment", "speed"]).unwrap();
        let mut ctx = OperatorContext::new();
        let guard = |seg| {
            let pattern = Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(seg)))],
            )
            .unwrap();
            FeedbackPunctuation::assumed(pattern, "sink")
        };
        let (segment_4, segment_5) = (guard(4), guard(5));
        op.on_feedback(0, segment_4, &mut ctx).unwrap();
        op.on_feedback(0, segment_5, &mut ctx).unwrap();
        // The guards are over the output schema: the input punctuation
        // releases segment 4 only once projected onto it.
        let p = Punctuation::group_complete(schema(), "segment", Value::Int(4)).unwrap();
        op.on_punctuation(0, p, &mut ctx).unwrap();
        assert_eq!(op.feedback_stats().unwrap().guards_expired, 1);
        op.on_tuple(0, tuple(5, 50.0), &mut ctx).unwrap();
        assert_eq!(op.feedback_stats().unwrap().tuples_suppressed, 1, "segment 5 still guarded");
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        assert!(Project::new("proj", schema(), &["volume"]).is_err());
    }

    #[test]
    fn punctuation_is_projected() {
        let mut op = Project::new("proj", schema(), &["segment", "speed"]).unwrap();
        let mut ctx = OperatorContext::new();
        let p = Punctuation::group_complete(schema(), "segment", Value::Int(4)).unwrap();
        op.on_punctuation(0, p, &mut ctx).unwrap();
        let out = ctx.take_emitted();
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            StreamItem::Punctuation(p) => assert_eq!(p.to_string(), "[4, *]"),
            other => panic!("expected punctuation, got {other:?}"),
        }

        // A punctuation only about a projected-away attribute is dropped (it
        // says nothing about the output).
        let p = Punctuation::group_complete(schema(), "detector", Value::Int(7)).unwrap();
        op.on_punctuation(0, p, &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
    }

    #[test]
    fn on_page_batch_projects_tuples_and_punctuation() {
        let mut op = Project::new("proj", schema(), &["segment", "speed"]).unwrap();
        let mut ctx = OperatorContext::new();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 40.0)),
            StreamItem::Punctuation(
                Punctuation::group_complete(schema(), "segment", Value::Int(1)).unwrap(),
            ),
            StreamItem::Tuple(tuple(2, 50.0)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let out = ctx.take_emitted();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].1.as_tuple().unwrap().arity(), 2);
        assert_eq!(out[1].1.as_punctuation().unwrap().to_string(), "[1, *]");
    }

    #[test]
    fn on_page_suppresses_covered_batches_via_input_summaries() {
        let mut op = Project::new("proj", schema(), &["segment", "speed"]).unwrap();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(3)))],
            )
            .unwrap(),
            "downstream",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        ctx.take_feedback();
        // The guard constrains output column 0 (= input column 1, segment).
        // A page entirely within the guard is dropped without projecting.
        let covered = Page::from_items(vec![
            StreamItem::Tuple(tuple(3, 40.0)),
            StreamItem::Tuple(tuple(3, 50.0)),
        ]);
        op.on_page(0, covered, &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
        // A page provably outside the guard projects without per-tuple probes.
        let clear = Page::from_items(vec![
            StreamItem::Tuple(tuple(5, 40.0)),
            StreamItem::Tuple(tuple(6, 50.0)),
        ]);
        op.on_page(0, clear, &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 2);
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.tuples_suppressed, 2);
        assert_eq!(stats.batches_summary_conclusive, 2);
        assert_eq!(stats.batches_summary_fallback, 0);
    }

    #[test]
    fn feedback_is_rewritten_onto_the_input_schema() {
        let mut op = Project::new("proj", schema(), &["segment", "speed"]).unwrap();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(3)))],
            )
            .unwrap(),
            "downstream",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].1.pattern().to_string(), "[*, 3, *, *]");
        // Subsequent matching tuples are suppressed locally too.
        op.on_tuple(0, tuple(3, 50.0), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
    }
}
