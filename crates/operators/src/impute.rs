//! IMPUTE: expensive estimation of missing sensor readings.
//!
//! In the paper's imputation scenario (Example 3 / Experiment 1), sensors fail
//! intermittently and report null values; IMPUTE replaces each missing value
//! with an estimate obtained from an *archival lookup* — in the original
//! system, one database query per dirty tuple.  That lookup is what makes the
//! imputed path an order of magnitude slower than the clean path and causes
//! the divergence of Figure 5.
//!
//! The paper's artifact (a database of historical Portland loop-detector data)
//! is not available, so [`ArchivalStore`] simulates it: a deterministic
//! in-memory history keyed by the tuple's key attribute, plus a configurable
//! per-lookup cost.  Only the *relative* cost of the imputed path matters for
//! the experiment's shape, which the calibrated synthetic lookup preserves
//! (see DESIGN.md, substitutions).
//!
//! IMPUTE is the paper's canonical feedback **exploiter**: when the
//! disorder-bound merge (PACE) sends assumed punctuation saying tuples below a
//! timestamp cutoff are no longer needed, IMPUTE guards its input and skips
//! the expensive lookup for them (purging them from its pending work).

use crate::common::simulate_cost;
use dsms_engine::{EngineResult, Operator, OperatorContext};
use dsms_feedback::{FeedbackPunctuation, FeedbackRegistry, FeedbackRoles, GuardDecision};
use dsms_punctuation::Punctuation;
use dsms_types::{Tuple, Value};
use std::collections::HashMap;
use std::time::Duration;

/// A simulated archival store: per-key historical averages with a configurable
/// per-lookup cost.
#[derive(Debug, Clone)]
pub struct ArchivalStore {
    history: HashMap<i64, f64>,
    default_estimate: f64,
    lookup_cost: Duration,
    lookups: u64,
}

impl ArchivalStore {
    /// Creates a store with the given per-lookup cost and a default estimate
    /// used for keys with no history.
    pub fn synthetic(lookup_cost: Duration, default_estimate: f64) -> Self {
        ArchivalStore { history: HashMap::new(), default_estimate, lookup_cost, lookups: 0 }
    }

    /// Registers a historical average for a key.
    pub fn with_history(mut self, key: i64, value: f64) -> Self {
        self.history.insert(key, value);
        self
    }

    /// Performs one archival lookup, paying the configured cost.
    pub fn lookup(&mut self, key: i64) -> f64 {
        simulate_cost(self.lookup_cost);
        self.lookups += 1;
        *self.history.get(&key).unwrap_or(&self.default_estimate)
    }

    /// Number of lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// The configured per-lookup cost.
    pub fn lookup_cost(&self) -> Duration {
        self.lookup_cost
    }
}

/// Replaces missing values with archival estimates; exploits assumed feedback
/// by skipping tuples the downstream has declared useless.
pub struct Impute {
    name: String,
    value_attribute: String,
    key_attribute: String,
    store: ArchivalStore,
    registry: FeedbackRegistry,
    imputed: u64,
    skipped_by_feedback: u64,
    passed_through: u64,
}

impl Impute {
    /// Creates an IMPUTE operator filling `value_attribute` using history
    /// keyed by `key_attribute`.
    pub fn new(
        name: impl Into<String>,
        value_attribute: impl Into<String>,
        key_attribute: impl Into<String>,
        store: ArchivalStore,
    ) -> Self {
        let name = name.into();
        Impute {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            value_attribute: value_attribute.into(),
            key_attribute: key_attribute.into(),
            store,
            imputed: 0,
            skipped_by_feedback: 0,
            passed_through: 0,
        }
    }

    /// Number of tuples actually imputed (expensive lookups performed).
    pub fn imputed(&self) -> u64 {
        self.imputed
    }

    /// Number of tuples skipped because feedback declared them useless.
    pub fn skipped_by_feedback(&self) -> u64 {
        self.skipped_by_feedback
    }
}

impl Operator for Impute {
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::exploiter()
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
        // Exploit assumed feedback *before* paying for the lookup: tuples the
        // downstream has declared useless are purged from the pending work.
        if self.registry.decide(&tuple) == GuardDecision::Suppress {
            self.skipped_by_feedback += 1;
            return Ok(());
        }
        let value_idx = tuple.schema().index_of(&self.value_attribute)?;
        if !tuple.value(value_idx)?.is_null() {
            // Already clean: nothing to impute.
            self.passed_through += 1;
            ctx.emit(0, tuple);
            return Ok(());
        }
        let key = tuple.int(&self.key_attribute).unwrap_or(0);
        let estimate = self.store.lookup(key);
        self.imputed += 1;
        let repaired = tuple.with_value(value_idx, Value::Float(estimate))?;
        ctx.emit(0, repaired);
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Embedded punctuation both flows through and expires feedback guards
        // whose subsets it subsumes (Section 4.4).
        self.registry.expire_with(&punctuation);
        ctx.emit_punctuation(0, punctuation);
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // IMPUTE exploits but does not relay: its antecedent is the dirty-path
        // filter whose output is consumed only by IMPUTE, so local guarding
        // already realizes the full saving; propagation happens at plan level
        // through Split when both paths agree.
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
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, SchemaRef, Timestamp};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("detector", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn dirty(ts: i64, detector: i64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(detector), Value::Null],
        )
    }

    fn clean(ts: i64, detector: i64, speed: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::Timestamp(Timestamp::from_secs(ts)),
                Value::Int(detector),
                Value::Float(speed),
            ],
        )
    }

    fn impute() -> Impute {
        let store = ArchivalStore::synthetic(Duration::ZERO, 50.0).with_history(7, 61.5);
        Impute::new("IMPUTE", "speed", "detector", store)
    }

    #[test]
    fn missing_values_are_filled_from_history() {
        let mut op = impute();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, dirty(1, 7), &mut ctx).unwrap();
        op.on_tuple(0, dirty(2, 99), &mut ctx).unwrap(); // no history → default
        let out = ctx.take_emitted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1.as_tuple().unwrap().float("speed").unwrap(), 61.5);
        assert_eq!(out[1].1.as_tuple().unwrap().float("speed").unwrap(), 50.0);
        assert_eq!(op.imputed(), 2);
    }

    #[test]
    fn clean_tuples_pass_without_lookup() {
        let mut op = impute();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, clean(1, 7, 42.0), &mut ctx).unwrap();
        assert_eq!(op.imputed(), 0);
        assert_eq!(ctx.take_emitted().len(), 1);
    }

    #[test]
    fn assumed_feedback_skips_expensive_lookups() {
        let mut op = impute();
        let mut ctx = OperatorContext::new();
        // PACE says: tuples before t=100 are no longer needed.
        op.on_feedback(
            0,
            FeedbackPunctuation::assumed(
                Pattern::for_attributes(
                    schema(),
                    &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(100))))],
                )
                .unwrap(),
                "PACE",
            ),
            &mut ctx,
        )
        .unwrap();
        op.on_tuple(0, dirty(50, 7), &mut ctx).unwrap(); // skipped
        op.on_tuple(0, dirty(150, 7), &mut ctx).unwrap(); // imputed
        assert_eq!(op.skipped_by_feedback(), 1);
        assert_eq!(op.imputed(), 1);
        assert_eq!(ctx.take_emitted().len(), 1);
    }

    #[test]
    fn lookup_cost_is_paid_per_imputed_tuple() {
        let store = ArchivalStore::synthetic(Duration::from_micros(300), 10.0);
        let mut op = Impute::new("IMPUTE", "speed", "detector", store);
        let mut ctx = OperatorContext::new();
        let start = std::time::Instant::now();
        for i in 0..5 {
            op.on_tuple(0, dirty(i, 1), &mut ctx).unwrap();
        }
        assert!(start.elapsed() >= Duration::from_micros(1_500));
        assert_eq!(op.imputed(), 5);
    }

    #[test]
    fn punctuation_flows_through_and_expires_guards() {
        let mut op = impute();
        let mut ctx = OperatorContext::new();
        op.on_punctuation(
            0,
            Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(10)).unwrap(),
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);
    }

    #[test]
    fn archival_store_counts_lookups() {
        let mut store = ArchivalStore::synthetic(Duration::ZERO, 1.0).with_history(3, 9.0);
        assert_eq!(store.lookup(3), 9.0);
        assert_eq!(store.lookup(4), 1.0);
        assert_eq!(store.lookups(), 2);
        assert_eq!(store.lookup_cost(), Duration::ZERO);
    }
}
