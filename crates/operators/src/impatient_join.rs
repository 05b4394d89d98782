//! IMPATIENT JOIN: a producer of *desired* punctuation (paper Section 3.4).
//!
//! The impatient join is eager to produce results: whenever it holds
//! build-side data (e.g. scarce probe-vehicle readings) for some key in the
//! current window, it tells the other input "I have vehicle data for segment
//! #3 and period #7 — send me matching tuples first", expressed as desired
//! punctuation `?[period, segment, *]`.  Prioritizing those tuples upstream
//! does not change the query result, only the production order — exactly the
//! semantics of desired feedback.

use crate::join::SymmetricHashJoin;
use dsms_engine::{EngineResult, Operator, OperatorContext, Page};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles, FeedbackStats};
use dsms_punctuation::{Pattern, PatternItem, Punctuation};
use dsms_types::{SchemaRef, Tuple, Value};
use std::collections::HashSet;

/// A symmetric hash join that requests prioritized delivery of probe tuples
/// matching keys it already holds on the build side.
///
/// A [`Wrapper`](dsms_engine::Wrapper) over the join: hooks it does not
/// override — feedback, schemas, state export and import — reach the inner
/// join.  It is not restartable: the set of requested keys and the pending
/// batch are not checkpointed, so a restart would re-request keys.
pub struct ImpatientJoin {
    name: String,
    inner: SymmetricHashJoin,
    probe_schema: SchemaRef,
    key_attribute: String,
    /// Index of `key_attribute` in the build side's (input 0) schema,
    /// resolved once at construction so the per-tuple key extraction is a
    /// slice access instead of a name lookup.
    build_key_index: Option<usize>,
    /// Keys already requested, so each is asked for at most once.
    requested: HashSet<Value>,
    /// How many new keys to accumulate before sending one desired punctuation.
    batch: usize,
    pending: Vec<Value>,
    desired_issued: u64,
}

impl ImpatientJoin {
    /// Wraps a join.  `key_attribute` is the join key to request by; the
    /// desired punctuation is expressed over `probe_schema` (the schema of
    /// input 1, the prioritized side).
    pub fn new(
        name: impl Into<String>,
        inner: SymmetricHashJoin,
        probe_schema: SchemaRef,
        key_attribute: impl Into<String>,
    ) -> Self {
        let key_attribute = key_attribute.into();
        let build_key_index =
            inner.schema_in(0).and_then(|schema| schema.index_of(&key_attribute).ok());
        ImpatientJoin {
            name: name.into(),
            inner,
            probe_schema,
            key_attribute,
            build_key_index,
            requested: HashSet::new(),
            batch: 1,
            pending: Vec::new(),
            desired_issued: 0,
        }
    }

    /// Sets how many new build keys are batched into one desired punctuation.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Number of desired punctuations issued.
    pub fn desired_issued(&self) -> u64 {
        self.desired_issued
    }

    fn flush_pending(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let keys = std::mem::take(&mut self.pending);
        let pattern = Pattern::for_attributes(
            self.probe_schema.clone(),
            &[(self.key_attribute.as_str(), PatternItem::InSet(keys))],
        )?;
        self.desired_issued += 1;
        ctx.send_feedback(1, FeedbackPunctuation::desired(pattern, &self.name));
        Ok(())
    }
}

impl dsms_engine::Wrapper for ImpatientJoin {
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
        if input == 0 {
            // Build side: note the key (by precomputed index) and, once a
            // batch has accumulated, ask the probe side to prioritize those
            // keys.
            if let Some(key) = self.build_key_index.and_then(|i| tuple.values().get(i)).cloned() {
                if !key.is_null() && self.requested.insert(key.clone()) {
                    self.pending.push(key);
                    if self.pending.len() >= self.batch {
                        self.flush_pending(ctx)?;
                    }
                }
            }
        }
        self.inner.on_tuple(input, tuple, ctx)
    }

    /// Item by item through this wrapper, so every build-side tuple is seen.
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        dsms_engine::replay_page(self, input, page, ctx)
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // A window boundary is a natural point to flush a partial batch.
        self.flush_pending(ctx)?;
        self.inner.on_punctuation(input, punctuation, ctx)
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.flush_pending(ctx)?;
        self.inner.on_flush(ctx)
    }

    fn feedback_stats(&self) -> Option<FeedbackStats> {
        let mut stats = self.inner.feedback_stats().unwrap_or_default();
        stats.issued.desired += self.desired_issued;
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_feedback::FeedbackIntent;
    use dsms_types::{DataType, Schema, StreamDuration, Timestamp};

    fn vehicle_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn sensor_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("volume", DataType::Float),
        ])
    }

    fn vehicle(ts: i64, seg: i64) -> Tuple {
        Tuple::new(
            vehicle_schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(55.0)],
        )
    }

    fn impatient(batch: usize) -> ImpatientJoin {
        let inner = SymmetricHashJoin::new(
            "JOIN",
            vehicle_schema(),
            sensor_schema(),
            &["segment"],
            "timestamp",
            StreamDuration::from_secs(60),
        )
        .unwrap();
        ImpatientJoin::new("IMPATIENT-JOIN", inner, sensor_schema(), "segment").with_batch(batch)
    }

    #[test]
    fn build_side_keys_become_desired_punctuation() {
        let mut j = impatient(1);
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, vehicle(10, 3), &mut ctx).unwrap();
        let feedback = ctx.take_feedback();
        assert_eq!(feedback.len(), 1);
        assert_eq!(feedback[0].0, 1, "sent to the sensor (probe) input");
        assert_eq!(feedback[0].1.intent(), FeedbackIntent::Desired);
        let sensor3 = Tuple::new(
            sensor_schema(),
            vec![Value::Timestamp(Timestamp::from_secs(1)), Value::Int(3), Value::Float(1.0)],
        );
        assert!(feedback[0].1.describes(&sensor3));
    }

    #[test]
    fn each_key_is_requested_once() {
        let mut j = impatient(1);
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, vehicle(10, 3), &mut ctx).unwrap();
        j.on_tuple(0, vehicle(11, 3), &mut ctx).unwrap();
        j.on_tuple(0, vehicle(12, 5), &mut ctx).unwrap();
        assert_eq!(ctx.take_feedback().len(), 2, "segments 3 and 5, each once");
        assert_eq!(j.desired_issued(), 2);
    }

    #[test]
    fn batching_accumulates_keys() {
        let mut j = impatient(3);
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, vehicle(10, 1), &mut ctx).unwrap();
        j.on_tuple(0, vehicle(11, 2), &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "batch of 3 not reached");
        j.on_tuple(0, vehicle(12, 3), &mut ctx).unwrap();
        let feedback = ctx.take_feedback();
        assert_eq!(feedback.len(), 1);
        for seg in [1, 2, 3] {
            let t = Tuple::new(
                sensor_schema(),
                vec![Value::Timestamp(Timestamp::EPOCH), Value::Int(seg), Value::Float(0.0)],
            );
            assert!(feedback[0].1.describes(&t));
        }
    }

    #[test]
    fn flush_sends_partial_batches() {
        let mut j = impatient(10);
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, vehicle(10, 1), &mut ctx).unwrap();
        j.on_flush(&mut ctx).unwrap();
        assert_eq!(ctx.take_feedback().len(), 1);
    }

    #[test]
    fn pages_reach_the_wrapper_and_stats_include_its_requests() {
        use dsms_engine::StreamItem;
        let mut j = impatient(1);
        let mut ctx = OperatorContext::new();
        let page = Page::from_items(vec![
            StreamItem::Tuple(vehicle(10, 3)),
            StreamItem::Tuple(vehicle(11, 5)),
        ]);
        j.on_page(0, page, &mut ctx).unwrap();
        let feedback = ctx.take_feedback();
        assert_eq!(feedback.len(), 2, "one desired punctuation per new build key");
        assert!(feedback
            .iter()
            .all(|(port, f)| *port == 1 && f.intent() == FeedbackIntent::Desired));
        assert_eq!(j.inner.buffered(), 2, "the rows still reach the inner join");
        assert_eq!(j.feedback_stats().unwrap().issued.desired, 2);
    }
}
