//! Symmetric-hash windowed equi-join with Table-2 feedback behaviour.
//!
//! The join buffers tuples from both inputs in per-window hash tables keyed by
//! the join attributes; every arriving tuple probes the opposite table and
//! emits concatenated results immediately (symmetric hash join), which is the
//! standard pipelined join for streams.  Tumbling windows scope the state:
//! tuples join only with tuples of the same window, and embedded punctuation
//! (progress on the timestamp attribute of both inputs) purges completed
//! windows.  An optional *left-outer* mode emits unmatched left tuples padded
//! with nulls when their window closes — the speed-map plan of Figure 1 outer
//! joins fixed-sensor readings with aggregated probe-vehicle readings.
//!
//! Feedback follows Table 2 exactly (see `dsms_feedback::characterize_join`):
//! feedback on join attributes purges both tables, guards both inputs and
//! propagates to both antecedents; feedback on attributes of one input only
//! goes to that side; feedback coupling both sides can only guard the output.
//! Input guards live in one [`FeedbackRegistry`] per input and expire on that
//! input's punctuation; output guards expire on the progress punctuation the
//! join emits once both inputs have passed a window.

use dsms_engine::{EngineError, EngineResult, Operator, OperatorContext, StateEntry};
use dsms_feedback::{
    characterize_join, AttributeMapping, ExploitAction, FeedbackIntent, FeedbackPunctuation,
    FeedbackRegistry, FeedbackRoles, GuardDecision, JoinSpec, PropagationRule,
};
use dsms_punctuation::Punctuation;
use dsms_types::{Schema, SchemaRef, StreamDuration, Timestamp, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Which input of the join a configuration item refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// Input port 0.
    Left,
    /// Input port 1.
    Right,
}

/// One side's buffered tuple with an outer-join match flag.
#[derive(Debug, Clone)]
struct Buffered {
    tuple: Tuple,
    matched: bool,
}

type WindowKey = (i64, Vec<Value>);

/// A tumbling-window symmetric hash equi-join.
pub struct SymmetricHashJoin {
    name: String,
    left_schema: SchemaRef,
    right_schema: SchemaRef,
    output_schema: SchemaRef,
    left_key_indices: Vec<usize>,
    right_key_indices: Vec<usize>,
    /// Indices of right attributes that are *not* join keys (appended to the
    /// left tuple to form the output).
    right_payload_indices: Vec<usize>,
    timestamp_attribute: String,
    /// Indices of the (shared) timestamp attribute per input, resolved once
    /// so per-tuple windowing is a slice access instead of a name lookup.
    left_ts_index: usize,
    right_ts_index: usize,
    window: StreamDuration,
    left_outer: bool,
    left_state: HashMap<WindowKey, Vec<Buffered>>,
    right_state: HashMap<WindowKey, Vec<Buffered>>,
    left_watermark: Option<Timestamp>,
    right_watermark: Option<Timestamp>,
    purged_watermark: Option<Timestamp>,
    spec: JoinSpec,
    /// Guards per input port, over that input's schema.
    input_guards: [FeedbackRegistry; 2],
    /// Guards over the output schema; also holds the join's own counters
    /// (receipts, relays, purges).
    output_guards: FeedbackRegistry,
}

impl SymmetricHashJoin {
    /// Creates a windowed equi-join of two streams on the named key
    /// attributes (which must exist in both schemas with those names), scoped
    /// by tumbling windows of `window` on `timestamp_attribute` (also present
    /// in both schemas).
    pub fn new(
        name: impl Into<String>,
        left_schema: SchemaRef,
        right_schema: SchemaRef,
        key_attributes: &[&str],
        timestamp_attribute: impl Into<String>,
        window: StreamDuration,
    ) -> dsms_types::TypeResult<Self> {
        let name = name.into();
        let timestamp_attribute = timestamp_attribute.into();
        let left_key_indices: Vec<usize> =
            key_attributes.iter().map(|a| left_schema.index_of(a)).collect::<Result<_, _>>()?;
        let right_key_indices: Vec<usize> =
            key_attributes.iter().map(|a| right_schema.index_of(a)).collect::<Result<_, _>>()?;
        let left_ts_index = left_schema.index_of(&timestamp_attribute)?;
        let right_ts_index = right_schema.index_of(&timestamp_attribute)?;

        // Output schema: every left attribute, then right attributes that are
        // neither join keys nor the (shared) timestamp attribute.
        let mut fields = left_schema.fields().to_vec();
        let mut right_payload_indices = Vec::new();
        for (i, f) in right_schema.fields().iter().enumerate() {
            if key_attributes.contains(&f.name()) || f.name() == timestamp_attribute {
                continue;
            }
            right_payload_indices.push(i);
            let field_name = if left_schema.contains(f.name()) {
                format!("right_{}", f.name())
            } else {
                f.name().to_string()
            };
            fields.push(dsms_types::Field::new(field_name, f.data_type()));
        }
        let output_schema: SchemaRef = Arc::new(Schema::try_new(fields)?);

        // Output partition (L, J, R) for the characterization.
        let mut join_attributes = Vec::new();
        let mut left_attributes = Vec::new();
        let mut right_attributes = Vec::new();
        for (i, f) in output_schema.fields().iter().enumerate() {
            if key_attributes.contains(&f.name()) {
                join_attributes.push(i);
            } else if i < left_schema.arity() {
                left_attributes.push(i);
            } else {
                right_attributes.push(i);
            }
        }
        let left_mapping = AttributeMapping::by_name(output_schema.clone(), left_schema.clone())?;
        // Right attributes may have been renamed with the `right_` prefix, so
        // the right mapping is built from explicit pairs.
        let mut right_pairs: Vec<(String, String)> = Vec::new();
        for key in key_attributes {
            right_pairs.push((key.to_string(), key.to_string()));
        }
        right_pairs.push((timestamp_attribute.clone(), timestamp_attribute.clone()));
        for &i in &right_payload_indices {
            let in_name = right_schema.field(i)?.name().to_string();
            let out_name = if left_schema.contains(&in_name) {
                format!("right_{in_name}")
            } else {
                in_name.clone()
            };
            right_pairs.push((out_name, in_name));
        }
        let right_pairs_ref: Vec<(&str, &str)> =
            right_pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let right_mapping = AttributeMapping::by_pairs(
            output_schema.clone(),
            right_schema.clone(),
            &right_pairs_ref,
        )?;

        let spec = JoinSpec {
            output: output_schema.clone(),
            left: left_schema.clone(),
            right: right_schema.clone(),
            left_attributes,
            join_attributes,
            right_attributes,
            left_mapping,
            right_mapping,
        };

        Ok(SymmetricHashJoin {
            input_guards: std::array::from_fn(|_| FeedbackRegistry::new(name.clone())),
            output_guards: FeedbackRegistry::new(name.clone()),
            name,
            left_schema,
            right_schema,
            output_schema,
            left_key_indices,
            right_key_indices,
            right_payload_indices,
            timestamp_attribute,
            left_ts_index,
            right_ts_index,
            window,
            left_outer: false,
            left_state: HashMap::new(),
            right_state: HashMap::new(),
            left_watermark: None,
            right_watermark: None,
            purged_watermark: None,
            spec,
        })
    }

    /// Enables left-outer semantics: unmatched left tuples are emitted with
    /// null right attributes when their window closes.
    pub fn left_outer(mut self) -> Self {
        self.left_outer = true;
        self
    }

    /// The output schema.
    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }

    /// Number of buffered tuples across both hash tables.
    pub fn buffered(&self) -> usize {
        self.left_state.values().map(Vec::len).sum::<usize>()
            + self.right_state.values().map(Vec::len).sum::<usize>()
    }

    fn key_of(&self, side: JoinSide, tuple: &Tuple) -> Vec<Value> {
        let indices = match side {
            JoinSide::Left => &self.left_key_indices,
            JoinSide::Right => &self.right_key_indices,
        };
        indices.iter().map(|i| tuple.values()[*i].clone()).collect()
    }

    fn output_of(&self, left: &Tuple, right: Option<&Tuple>) -> Tuple {
        let mut values = left.values().to_vec();
        match right {
            Some(r) => {
                for &i in &self.right_payload_indices {
                    values.push(r.values()[i].clone());
                }
            }
            None => {
                values.extend(std::iter::repeat_n(Value::Null, self.right_payload_indices.len()))
            }
        }
        Tuple::new(self.output_schema.clone(), values)
    }

    fn emit_joined(&mut self, left: &Tuple, right: Option<&Tuple>, ctx: &mut OperatorContext) {
        let out = self.output_of(left, right);
        if self.output_guards.decide(&out) != GuardDecision::Suppress {
            ctx.emit(0, out);
        }
    }

    fn purge_closed_windows(&mut self, ctx: &mut OperatorContext) {
        let (Some(lw), Some(rw)) = (self.left_watermark, self.right_watermark) else {
            return;
        };
        let watermark = lw.min(rw);
        if self.purged_watermark.map(|p| watermark <= p).unwrap_or(false) {
            return;
        }
        self.purged_watermark = Some(watermark);
        let window_millis = self.window.as_millis();
        let closeable = |wid: i64| {
            Timestamp::from_millis((wid + 1) * window_millis) - StreamDuration::from_millis(1)
                <= watermark
        };
        // Outer join: emit unmatched left tuples of completed windows.
        if self.left_outer {
            let mut unmatched: Vec<Tuple> = Vec::new();
            for ((wid, _), bucket) in self.left_state.iter() {
                if closeable(*wid) {
                    unmatched.extend(bucket.iter().filter(|b| !b.matched).map(|b| b.tuple.clone()));
                }
            }
            for left in unmatched {
                self.emit_joined(&left, None, ctx);
            }
        }
        let before = self.buffered();
        self.left_state.retain(|(wid, _), _| !closeable(*wid));
        self.right_state.retain(|(wid, _), _| !closeable(*wid));
        self.output_guards.stats_mut().state_purged += (before - self.buffered()) as u64;
        // Forward progress on the shared timestamp attribute; it releases
        // the output guards it covers.
        if let Ok(p) =
            Punctuation::progress(self.output_schema.clone(), &self.timestamp_attribute, watermark)
        {
            self.output_guards.expire_with(&p);
            ctx.emit_punctuation(0, p);
        }
    }
}

impl Operator for SymmetricHashJoin {
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::exploiter().with_relayer()
    }

    fn schema_in(&self, input: usize) -> Option<SchemaRef> {
        Some(if input == 0 { self.left_schema.clone() } else { self.right_schema.clone() })
    }

    fn schema_out(&self, _output: usize) -> Option<SchemaRef> {
        Some(self.output_schema.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> usize {
        2
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if self.input_guards[input].decide(&tuple) == GuardDecision::Suppress {
            return Ok(());
        }
        let side = if input == 0 { JoinSide::Left } else { JoinSide::Right };
        let ts = tuple.timestamp_at(match side {
            JoinSide::Left => self.left_ts_index,
            JoinSide::Right => self.right_ts_index,
        })?;
        let wid = ts.window_id(self.window);
        let key = self.key_of(side, &tuple);
        let window_key = (wid, key);

        match side {
            JoinSide::Left => {
                let mut matched = false;
                let mut outputs: Vec<Tuple> = Vec::new();
                if let Some(bucket) = self.right_state.get_mut(&window_key) {
                    for b in bucket.iter_mut() {
                        b.matched = true;
                        matched = true;
                        outputs.push(b.tuple.clone());
                    }
                }
                for right in outputs {
                    self.emit_joined(&tuple, Some(&right), ctx);
                }
                self.left_state.entry(window_key).or_default().push(Buffered { tuple, matched });
            }
            JoinSide::Right => {
                let mut outputs: Vec<Tuple> = Vec::new();
                if let Some(bucket) = self.left_state.get_mut(&window_key) {
                    for b in bucket.iter_mut() {
                        b.matched = true;
                        outputs.push(b.tuple.clone());
                    }
                }
                let matched = !outputs.is_empty();
                for left in outputs {
                    self.emit_joined(&left, Some(&tuple), ctx);
                }
                self.right_state.entry(window_key).or_default().push(Buffered { tuple, matched });
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
        self.input_guards[input].expire_with(&punctuation);
        if let Some(w) = punctuation.watermark_for(&self.timestamp_attribute) {
            if input == 0 {
                self.left_watermark = Some(self.left_watermark.map(|cur| cur.max(w)).unwrap_or(w));
            } else {
                self.right_watermark =
                    Some(self.right_watermark.map(|cur| cur.max(w)).unwrap_or(w));
            }
            self.purge_closed_windows(ctx);
        }
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // One receipt per message, however many guards it mounts; the join
        // exploits only assumed feedback.
        self.output_guards.stats_mut().received.record(feedback.intent());
        if feedback.intent() != FeedbackIntent::Assumed {
            return Ok(());
        }
        let characterization = characterize_join(&self.spec, feedback.pattern())?;
        for action in &characterization.actions {
            match action {
                ExploitAction::GuardOutput(pattern) => {
                    let _ = self.output_guards.mount(feedback.relay(pattern.clone(), &self.name));
                }
                ExploitAction::GuardInput { input, pattern } => {
                    let guard = feedback.relay(pattern.clone(), &self.name);
                    let _ = self.input_guards[*input].mount(guard);
                }
                ExploitAction::PurgeState(_) => {
                    // Purge buffered tuples that can only contribute to joined
                    // results described by the feedback, per side.
                    let (left_rewrite, _) = self.spec.left_mapping.rewrite(feedback.pattern())?;
                    let (right_rewrite, _) = self.spec.right_mapping.rewrite(feedback.pattern())?;
                    let before = self.buffered();
                    // Only purge a side if every constrained output attribute is
                    // visible on that side (otherwise matching is ambiguous).
                    let constrained = feedback.pattern().constrained_attributes();
                    let left_covers = constrained
                        .iter()
                        .all(|i| self.spec.left_mapping.covered_output_attributes().contains(i));
                    let right_covers = constrained
                        .iter()
                        .all(|i| self.spec.right_mapping.covered_output_attributes().contains(i));
                    if left_covers {
                        for bucket in self.left_state.values_mut() {
                            bucket.retain(|b| !left_rewrite.matches(&b.tuple));
                        }
                        self.left_state.retain(|_, bucket| !bucket.is_empty());
                    }
                    if right_covers {
                        for bucket in self.right_state.values_mut() {
                            bucket.retain(|b| !right_rewrite.matches(&b.tuple));
                        }
                        self.right_state.retain(|_, bucket| !bucket.is_empty());
                    }
                    self.output_guards.stats_mut().state_purged +=
                        (before - self.buffered()) as u64;
                }
                ExploitAction::PurgeAndGuardMatchingGroups => {}
            }
        }
        if let PropagationRule::ToInputs(targets) = &characterization.propagation {
            for (input, pattern) in targets {
                ctx.send_feedback(*input, feedback.relay(pattern.clone(), &self.name));
                self.output_guards.stats_mut().relayed.record(feedback.intent());
            }
        }
        Ok(())
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        if self.left_outer {
            let unmatched: Vec<Tuple> = self
                .left_state
                .values()
                .flat_map(|bucket| bucket.iter().filter(|b| !b.matched).map(|b| b.tuple.clone()))
                .collect();
            for left in unmatched {
                self.emit_joined(&left, None, ctx);
            }
        }
        self.left_state.clear();
        self.right_state.clear();
        Ok(())
    }

    /// One entry per `(side, window, key)` hash bucket.  The entry key is the
    /// join-key values in key-attribute order — an elastic stage must shuffle
    /// on those same attributes in that order for
    /// [`route_values`](crate::elastic::route_values) to agree with the hash
    /// route.  Buckets move whole (with their outer-join match flags), so no
    /// pairing is lost or duplicated across the cut.  Watermarks are *not*
    /// exported: the importer re-learns progress from the punctuation that
    /// follows the migration marker, which can only delay purging, never
    /// purge early.
    fn export_state(&mut self) -> Vec<StateEntry> {
        let mut entries = Vec::new();
        for (side, state) in [
            (JoinSide::Left, std::mem::take(&mut self.left_state)),
            (JoinSide::Right, std::mem::take(&mut self.right_state)),
        ] {
            for ((wid, key), bucket) in state {
                entries.push(StateEntry { key, payload: Box::new((side, wid, bucket)) });
            }
        }
        entries
    }

    fn import_state(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        for entry in entries {
            let payload =
                entry.payload.downcast::<(JoinSide, i64, Vec<Buffered>)>().map_err(|_| {
                    EngineError::OperatorFailed {
                        operator: self.name.clone(),
                        detail: "imported state entry is not a join hash bucket".into(),
                    }
                })?;
            let (side, wid, bucket) = *payload;
            let state = match side {
                JoinSide::Left => &mut self.left_state,
                JoinSide::Right => &mut self.right_state,
            };
            state.entry((wid, entry.key)).or_default().extend(bucket);
        }
        Ok(())
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        let mut stats = self.output_guards.stats().clone();
        for guards in &self.input_guards {
            stats.merge(guards.stats());
        }
        Some(stats)
    }

    fn restartable(&self) -> bool {
        true
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        Ok(vec![StateEntry {
            key: Vec::new(),
            payload: Box::new(JoinSnapshot {
                left_state: self.left_state.clone(),
                right_state: self.right_state.clone(),
                left_watermark: self.left_watermark,
                right_watermark: self.right_watermark,
                purged_watermark: self.purged_watermark,
                input_guards: self.input_guards.clone(),
                output_guards: self.output_guards.clone(),
            }),
        }])
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.left_state = HashMap::new();
        self.right_state = HashMap::new();
        self.left_watermark = None;
        self.right_watermark = None;
        self.purged_watermark = None;
        self.input_guards = std::array::from_fn(|_| FeedbackRegistry::new(self.name.clone()));
        self.output_guards = FeedbackRegistry::new(self.name.clone());
        for entry in entries {
            match entry.payload.downcast::<JoinSnapshot>() {
                Ok(snapshot) => {
                    self.left_state = snapshot.left_state;
                    self.right_state = snapshot.right_state;
                    self.left_watermark = snapshot.left_watermark;
                    self.right_watermark = snapshot.right_watermark;
                    self.purged_watermark = snapshot.purged_watermark;
                    self.input_guards = snapshot.input_guards;
                    self.output_guards = snapshot.output_guards;
                }
                Err(_) => {
                    return Err(EngineError::OperatorFailed {
                        operator: self.name.clone(),
                        detail: "checkpoint entry is not a join snapshot".into(),
                    })
                }
            }
        }
        Ok(())
    }
}

/// Both hash-table sides, the watermark pair, and the guard state captured
/// together at a checkpoint so a restarted [`SymmetricHashJoin`] resumes
/// with exactly the windows that were open at the epoch boundary.
struct JoinSnapshot {
    left_state: HashMap<WindowKey, Vec<Buffered>>,
    right_state: HashMap<WindowKey, Vec<Buffered>>,
    left_watermark: Option<Timestamp>,
    right_watermark: Option<Timestamp>,
    purged_watermark: Option<Timestamp>,
    input_guards: [FeedbackRegistry; 2],
    output_guards: FeedbackRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::StreamItem;
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::DataType;

    fn sensor_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn probe_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("avg", DataType::Float),
        ])
    }

    fn sensor(ts: i64, seg: i64, speed: f64) -> Tuple {
        Tuple::new(
            sensor_schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(speed)],
        )
    }

    fn probe(ts: i64, seg: i64, avg: f64) -> Tuple {
        Tuple::new(
            probe_schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(avg)],
        )
    }

    fn join() -> SymmetricHashJoin {
        SymmetricHashJoin::new(
            "JOIN",
            sensor_schema(),
            probe_schema(),
            &["segment"],
            "timestamp",
            StreamDuration::from_secs(60),
        )
        .unwrap()
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
    fn output_schema_partitions_left_join_right() {
        let j = join();
        assert_eq!(j.output_schema().names(), vec!["timestamp", "segment", "speed", "avg"]);
    }

    #[test]
    fn matching_tuples_in_the_same_window_join() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, sensor(10, 3, 42.0), &mut ctx).unwrap();
        assert!(emitted_tuples(&mut ctx).is_empty(), "no probe side yet");
        j.on_tuple(1, probe(20, 3, 38.0), &mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].float("speed").unwrap(), 42.0);
        assert_eq!(out[0].float("avg").unwrap(), 38.0);
    }

    #[test]
    fn different_windows_or_keys_do_not_join() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, sensor(10, 3, 42.0), &mut ctx).unwrap();
        j.on_tuple(1, probe(70, 3, 38.0), &mut ctx).unwrap(); // next window
        j.on_tuple(1, probe(20, 4, 38.0), &mut ctx).unwrap(); // other segment
        assert!(emitted_tuples(&mut ctx).is_empty());
        assert_eq!(j.buffered(), 3);
    }

    #[test]
    fn punctuation_purges_completed_windows() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, sensor(10, 3, 42.0), &mut ctx).unwrap();
        j.on_tuple(1, probe(20, 3, 38.0), &mut ctx).unwrap();
        assert_eq!(j.buffered(), 2);
        let p = |s| {
            Punctuation::progress(sensor_schema(), "timestamp", Timestamp::from_secs(s)).unwrap()
        };
        j.on_punctuation(0, p(100), &mut ctx).unwrap();
        assert_eq!(j.buffered(), 2, "waiting for the other input's watermark");
        j.on_punctuation(1, p(100), &mut ctx).unwrap();
        assert_eq!(j.buffered(), 0, "window 0 purged once both inputs passed it");
    }

    #[test]
    fn left_outer_join_emits_unmatched_sensors() {
        let mut j = join().left_outer();
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, sensor(10, 3, 42.0), &mut ctx).unwrap();
        j.on_tuple(0, sensor(11, 4, 55.0), &mut ctx).unwrap();
        j.on_tuple(1, probe(20, 3, 38.0), &mut ctx).unwrap();
        let _ = emitted_tuples(&mut ctx);
        j.on_flush(&mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1, "only the unmatched segment-4 sensor padded with nulls");
        assert_eq!(out[0].int("segment").unwrap(), 4);
        assert!(out[0].value_by_name("avg").unwrap().is_null());
    }

    #[test]
    fn join_key_feedback_purges_both_sides_and_propagates_to_both() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, sensor(10, 3, 42.0), &mut ctx).unwrap();
        j.on_tuple(1, probe(12, 3, 30.0), &mut ctx).unwrap();
        j.on_tuple(0, sensor(10, 4, 50.0), &mut ctx).unwrap();
        let _ = emitted_tuples(&mut ctx);
        assert_eq!(j.buffered(), 3);

        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                j.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(3)))],
            )
            .unwrap(),
            "MAP",
        );
        j.on_feedback(0, fb, &mut ctx).unwrap();
        assert_eq!(j.buffered(), 1, "segment-3 tuples purged from both hash tables");
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 2, "propagated to both inputs");
        // Guarded: new segment-3 tuples are ignored on both inputs.
        j.on_tuple(0, sensor(15, 3, 99.0), &mut ctx).unwrap();
        j.on_tuple(1, probe(15, 3, 99.0), &mut ctx).unwrap();
        assert_eq!(j.buffered(), 1);
        assert!(emitted_tuples(&mut ctx).is_empty());
    }

    #[test]
    fn left_only_feedback_touches_only_the_left_side() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        j.on_tuple(0, sensor(10, 3, 60.0), &mut ctx).unwrap();
        j.on_tuple(1, probe(10, 4, 20.0), &mut ctx).unwrap();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                j.output_schema().clone(),
                &[("speed", PatternItem::Ge(Value::Float(50.0)))],
            )
            .unwrap(),
            "MAP",
        );
        j.on_feedback(0, fb, &mut ctx).unwrap();
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].0, 0, "relayed to the left input only");
        assert_eq!(j.buffered(), 1, "fast sensor purged, probe tuple untouched");
    }

    #[test]
    fn state_export_import_round_trips_hash_buckets() {
        let mut source = join().left_outer();
        let mut ctx = OperatorContext::new();
        source.on_tuple(0, sensor(10, 3, 42.0), &mut ctx).unwrap();
        source.on_tuple(0, sensor(11, 4, 55.0), &mut ctx).unwrap();
        source.on_tuple(1, probe(20, 3, 38.0), &mut ctx).unwrap();
        let _ = emitted_tuples(&mut ctx);
        let entries = source.export_state();
        assert_eq!(entries.len(), 3, "one entry per (side, window, key) bucket");
        assert_eq!(source.buffered(), 0, "export drains both hash tables");

        let mut target = join().left_outer();
        target.import_state(entries).unwrap();
        assert_eq!(target.buffered(), 3);
        // The segment-3 pair is already matched (flags moved with the bucket),
        // so only the unmatched segment-4 sensor pads out at flush.
        target.on_flush(&mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].int("segment").unwrap(), 4);
        assert!(out[0].value_by_name("avg").unwrap().is_null());
    }

    #[test]
    fn cross_side_feedback_only_guards_output() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                j.output_schema().clone(),
                &[
                    ("speed", PatternItem::Ge(Value::Float(50.0))),
                    ("avg", PatternItem::Ge(Value::Float(50.0))),
                ],
            )
            .unwrap(),
            "MAP",
        );
        j.on_feedback(0, fb, &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "no safe propagation");
        // A result matching both constraints is suppressed…
        j.on_tuple(0, sensor(10, 3, 60.0), &mut ctx).unwrap();
        j.on_tuple(1, probe(12, 3, 70.0), &mut ctx).unwrap();
        assert!(emitted_tuples(&mut ctx).is_empty());
        // …but a result matching only one side still appears.
        j.on_tuple(1, probe(13, 3, 10.0), &mut ctx).unwrap();
        assert_eq!(emitted_tuples(&mut ctx).len(), 1);
    }

    fn progress(ts: i64) -> Punctuation {
        Punctuation::progress(sensor_schema(), "timestamp", Timestamp::from_secs(ts)).unwrap()
    }

    fn output_pattern(j: &SymmetricHashJoin, items: &[(&str, PatternItem)]) -> Pattern {
        Pattern::for_attributes(j.output_schema().clone(), items).unwrap()
    }

    #[test]
    fn each_feedback_message_is_received_once() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        // Join-key feedback mounts a guard on both inputs: still one receipt.
        let key = output_pattern(&j, &[("segment", PatternItem::Eq(Value::Int(3)))]);
        j.on_feedback(0, FeedbackPunctuation::assumed(key.clone(), "MAP"), &mut ctx).unwrap();
        j.on_feedback(0, FeedbackPunctuation::desired(key, "MAP"), &mut ctx).unwrap();
        let stats = j.feedback_stats().unwrap();
        assert_eq!(stats.received.assumed, 1);
        assert_eq!(stats.received.desired, 1);
        assert_eq!(stats.relayed.assumed, 2, "one relay per input");
    }

    #[test]
    fn guards_expire_on_the_punctuation_that_subsumes_them() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        let early = PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(60)));
        // A left-only guard, mounted on the left input.
        let left_only = output_pattern(&j, &[("timestamp", early.clone())]);
        j.on_feedback(0, FeedbackPunctuation::assumed(left_only, "MAP"), &mut ctx).unwrap();
        // A guard coupling both sides, mounted on the output.
        let coupled = output_pattern(
            &j,
            &[("timestamp", early), ("avg", PatternItem::Ge(Value::Float(50.0)))],
        );
        j.on_feedback(0, FeedbackPunctuation::assumed(coupled, "MAP"), &mut ctx).unwrap();

        // The right input's progress releases neither: the left guard waits
        // for the left input, the output guard for both.
        j.on_punctuation(1, progress(100), &mut ctx).unwrap();
        assert_eq!(j.feedback_stats().unwrap().guards_expired, 0);
        j.on_tuple(0, sensor(30, 3, 40.0), &mut ctx).unwrap();
        assert_eq!(j.buffered(), 0, "the left guard still holds");

        // The left input's progress releases its guard, and the combined
        // progress punctuation the join emits releases the output guard.
        j.on_punctuation(0, progress(100), &mut ctx).unwrap();
        assert_eq!(j.feedback_stats().unwrap().guards_expired, 2);
    }

    #[test]
    fn checkpoint_restore_keeps_the_live_guards() {
        let mut j = join();
        let mut ctx = OperatorContext::new();
        let key = output_pattern(&j, &[("segment", PatternItem::Eq(Value::Int(3)))]);
        j.on_feedback(0, FeedbackPunctuation::assumed(key, "MAP"), &mut ctx).unwrap();
        let coupled = output_pattern(
            &j,
            &[
                ("speed", PatternItem::Ge(Value::Float(50.0))),
                ("avg", PatternItem::Ge(Value::Float(50.0))),
            ],
        );
        j.on_feedback(0, FeedbackPunctuation::assumed(coupled, "MAP"), &mut ctx).unwrap();
        let snapshot = j.checkpoint().unwrap();

        let mut restored = join();
        restored.restore(snapshot).unwrap();
        assert_eq!(restored.feedback_stats(), j.feedback_stats());
        // Both input guards survive: segment 3 is dropped on either side.
        restored.on_tuple(0, sensor(10, 3, 40.0), &mut ctx).unwrap();
        restored.on_tuple(1, probe(10, 3, 40.0), &mut ctx).unwrap();
        assert_eq!(restored.buffered(), 0);
        // The output guard survives: a result matching it is suppressed.
        restored.on_tuple(0, sensor(10, 4, 60.0), &mut ctx).unwrap();
        restored.on_tuple(1, probe(10, 4, 70.0), &mut ctx).unwrap();
        assert!(emitted_tuples(&mut ctx).is_empty());
        assert_eq!(restored.feedback_stats().unwrap().tuples_suppressed, 3);
    }
}
