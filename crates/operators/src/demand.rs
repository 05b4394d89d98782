//! ON-DEMAND result production (paper Example 4).
//!
//! In poll-based result production, a user or application requests results
//! when it wants them; results do not have to be produced when nobody is
//! looking.  The [`OnDemandGate`] sits just below the client: it buffers
//! results, releases them only when a result request (or demanded
//! punctuation) arrives from downstream, and *propagates the request through
//! the query tree* so antecedent operators (e.g. blocking aggregates) can also
//! produce what they have.

use dsms_engine::{EngineResult, Operator, OperatorContext};
use dsms_feedback::{FeedbackIntent, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};
use std::collections::VecDeque;

/// A gate that holds results until they are requested.
pub struct OnDemandGate {
    name: String,
    schema: SchemaRef,
    buffer: VecDeque<Tuple>,
    /// Upper bound on buffered results; oldest results are dropped beyond it
    /// (the client was not interested in them while they were fresh).
    buffer_capacity: usize,
    dropped: u64,
    served_requests: u64,
    registry: FeedbackRegistry,
}

impl OnDemandGate {
    /// Creates a gate holding at most `buffer_capacity` pending results.
    pub fn new(name: impl Into<String>, schema: SchemaRef, buffer_capacity: usize) -> Self {
        let name = name.into();
        OnDemandGate {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            schema,
            buffer: VecDeque::new(),
            buffer_capacity: buffer_capacity.max(1),
            dropped: 0,
            served_requests: 0,
        }
    }

    /// Number of buffered results dropped because nobody asked in time.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of result requests served.
    pub fn served_requests(&self) -> u64 {
        self.served_requests
    }

    /// Number of results currently pending.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// The stream schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn release_matching(
        &mut self,
        filter: Option<&FeedbackPunctuation>,
        ctx: &mut OperatorContext,
    ) {
        let mut kept = VecDeque::new();
        while let Some(t) = self.buffer.pop_front() {
            let release = filter.map(|f| f.describes(&t)).unwrap_or(true);
            if release {
                ctx.emit(0, t);
            } else {
                kept.push_back(t);
            }
        }
        self.buffer = kept;
    }
}

impl Operator for OnDemandGate {
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

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.buffer.push_back(tuple);
        while self.buffer.len() > self.buffer_capacity {
            self.buffer.pop_front();
            self.dropped += 1;
        }
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Punctuation still flows so downstream progress tracking works even
        // while results are withheld.
        self.registry.expire_with(&punctuation);
        ctx.emit_punctuation(0, punctuation);
        Ok(())
    }

    fn on_request_results(
        &mut self,
        _output: usize,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.served_requests += 1;
        self.release_matching(None, ctx);
        // Propagate the request through the query tree (Example 4): antecedent
        // operators such as blocking aggregates may emit partial results.
        ctx.request_results(0);
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        match feedback.intent() {
            FeedbackIntent::Demanded => {
                // "I need this subset now": release matching buffered results
                // and pass the demand upstream.
                self.served_requests += 1;
                self.registry.stats_mut().partial_results += 1;
                self.release_matching(Some(&feedback), ctx);
                ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), &self.name));
            }
            FeedbackIntent::Assumed => {
                // Remove described results from the pending buffer and relay.
                let before = self.buffer.len();
                self.buffer.retain(|t| !feedback.describes(t));
                self.registry.stats_mut().tuples_suppressed += (before - self.buffer.len()) as u64;
                ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), &self.name));
                let _ = self.registry.register(feedback);
            }
            FeedbackIntent::Desired => {
                let _ = self.registry.register(feedback);
            }
        }
        Ok(())
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        // End of query: whatever is still pending is delivered.
        self.release_matching(None, ctx);
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
        Schema::shared(&[("timestamp", DataType::Timestamp), ("segment", DataType::Int)])
    }

    fn tuple(seg: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::EPOCH), Value::Int(seg)])
    }

    fn emitted_tuples(ctx: &mut OperatorContext) -> Vec<Tuple> {
        ctx.take_emitted()
            .into_iter()
            .filter_map(|(_, item)| match item {
                StreamItem::Tuple(t) => Some(t),
                StreamItem::Punctuation(_) => None,
            })
            .collect()
    }

    #[test]
    fn results_are_withheld_until_requested() {
        let mut gate = OnDemandGate::new("gate", schema(), 100);
        let mut ctx = OperatorContext::new();
        gate.on_tuple(0, tuple(1), &mut ctx).unwrap();
        gate.on_tuple(0, tuple(2), &mut ctx).unwrap();
        assert!(emitted_tuples(&mut ctx).is_empty());
        assert_eq!(gate.pending(), 2);

        gate.on_request_results(0, &mut ctx).unwrap();
        assert_eq!(emitted_tuples(&mut ctx).len(), 2);
        assert_eq!(ctx.take_result_requests(), vec![0], "request propagated upstream");
        assert_eq!(gate.pending(), 0);
        assert_eq!(gate.served_requests(), 1);
    }

    #[test]
    fn demanded_feedback_releases_matching_subset_only() {
        let mut gate = OnDemandGate::new("gate", schema(), 100);
        let mut ctx = OperatorContext::new();
        for seg in [1, 2, 3] {
            gate.on_tuple(0, tuple(seg), &mut ctx).unwrap();
        }
        let demand = FeedbackPunctuation::demanded(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(2)))])
                .unwrap(),
            "client",
        );
        gate.on_feedback(0, demand, &mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].int("segment").unwrap(), 2);
        assert_eq!(gate.pending(), 2);
        assert_eq!(ctx.take_feedback().len(), 1, "demand relayed upstream");
    }

    #[test]
    fn assumed_feedback_drops_pending_results() {
        let mut gate = OnDemandGate::new("gate", schema(), 100);
        let mut ctx = OperatorContext::new();
        for seg in [1, 2, 3] {
            gate.on_tuple(0, tuple(seg), &mut ctx).unwrap();
        }
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap(),
            "client",
        );
        gate.on_feedback(0, fb, &mut ctx).unwrap();
        assert_eq!(gate.pending(), 2);
        gate.on_flush(&mut ctx).unwrap();
        assert_eq!(emitted_tuples(&mut ctx).len(), 2);
    }

    #[test]
    fn capacity_bound_drops_oldest_results() {
        let mut gate = OnDemandGate::new("gate", schema(), 2);
        let mut ctx = OperatorContext::new();
        for seg in [1, 2, 3, 4] {
            gate.on_tuple(0, tuple(seg), &mut ctx).unwrap();
        }
        assert_eq!(gate.pending(), 2);
        assert_eq!(gate.dropped(), 2);
        gate.on_request_results(0, &mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.iter().map(|t| t.int("segment").unwrap()).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn punctuation_flows_through_the_gate() {
        let mut gate = OnDemandGate::new("gate", schema(), 10);
        let mut ctx = OperatorContext::new();
        gate.on_punctuation(
            0,
            Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(1)).unwrap(),
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);
    }
}
