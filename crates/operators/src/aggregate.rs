//! Windowed, grouped aggregates (COUNT, SUM, AVG, MAX, MIN).
//!
//! The aggregate follows the WID / OOP evaluation strategy: every input tuple
//! is assigned to a tumbling window by its timestamp, partial aggregates are
//! kept per `(window, group)` pair, and **embedded punctuation** — not arrival
//! order — decides when a window is complete, its result emitted and its state
//! purged.
//!
//! Feedback behaviour implements Table 1 of the paper (generalized by the
//! aggregate's monotonicity, see `dsms_feedback::characterization`) and the
//! three optimization schemes of Experiment 2:
//!
//! * [`FeedbackMode::Ignore`] — F0: feedback-unaware baseline;
//! * [`FeedbackMode::GuardOutput`] — F1: mount a guard on the output of the
//!   aggregate;
//! * [`FeedbackMode::Exploit`] — F2: additionally guard the input and purge
//!   state, avoiding aggregation work for groups known to be of no interest;
//! * [`FeedbackMode::ExploitAndPropagate`] — F3: additionally relay the
//!   feedback to the antecedent (the data-quality filter in Figure 4b).
//!
//! Demanded punctuation (`![p]`) unblocks the aggregate: it immediately emits
//! the current partial aggregates for matching groups (a partial result is
//! better than no result within the issuer's margin of action).

use crate::common::guarded_pass;
use dsms_engine::{EngineError, EngineResult, Operator, OperatorContext, StateEntry};
use dsms_feedback::{
    characterize_aggregate, AggregateSpec, AttributeMapping, BatchGuardDecision, ExploitAction,
    FeedbackIntent, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles, GuardDecision,
    Monotonicity, PropagationRule,
};
use dsms_punctuation::{Pattern, PatternItem, Punctuation};
use dsms_types::{
    DataType, FixedState, Schema, SchemaRef, StreamDuration, Timestamp, Tuple, Value,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The aggregate function computed per window and group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// COUNT of tuples.
    Count,
    /// SUM of the named numeric attribute.
    Sum(String),
    /// AVG of the named numeric attribute.
    Avg(String),
    /// MAX of the named numeric attribute.
    Max(String),
    /// MIN of the named numeric attribute.
    Min(String),
}

impl AggregateFunction {
    /// The output attribute name for this aggregate.
    pub fn output_name(&self) -> &'static str {
        match self {
            AggregateFunction::Count => "count",
            AggregateFunction::Sum(_) => "sum",
            AggregateFunction::Avg(_) => "avg",
            AggregateFunction::Max(_) => "max",
            AggregateFunction::Min(_) => "min",
        }
    }

    /// The input attribute aggregated over, if any.
    pub fn input_attribute(&self) -> Option<&str> {
        match self {
            AggregateFunction::Count => None,
            AggregateFunction::Sum(a)
            | AggregateFunction::Avg(a)
            | AggregateFunction::Max(a)
            | AggregateFunction::Min(a) => Some(a),
        }
    }

    /// Output type of the aggregate value.
    pub fn output_type(&self) -> DataType {
        match self {
            AggregateFunction::Count => DataType::Int,
            _ => DataType::Float,
        }
    }

    /// Monotonicity of the partial aggregate as tuples are folded in, which
    /// drives the feedback characterization (paper Section 3.5).
    pub fn monotonicity(&self) -> Monotonicity {
        match self {
            AggregateFunction::Count | AggregateFunction::Max(_) => Monotonicity::NonDecreasing,
            AggregateFunction::Min(_) => Monotonicity::NonIncreasing,
            AggregateFunction::Sum(_) | AggregateFunction::Avg(_) => Monotonicity::None,
        }
    }
}

/// How the aggregate responds to assumed feedback — the F0–F3 schemes of
/// Experiment 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeedbackMode {
    /// F0: ignore feedback entirely.
    Ignore,
    /// F1: guard the output only.
    GuardOutput,
    /// F2: guard input, purge state, guard output.
    Exploit,
    /// F3: F2 plus relay the feedback to the antecedent.
    ExploitAndPropagate,
}

#[derive(Debug, Clone)]
enum Accumulator {
    Count(u64),
    Sum(f64),
    Avg { sum: f64, count: u64 },
    Max(f64),
    Min(f64),
}

impl Accumulator {
    fn new(function: &AggregateFunction) -> Self {
        match function {
            AggregateFunction::Count => Accumulator::Count(0),
            AggregateFunction::Sum(_) => Accumulator::Sum(0.0),
            AggregateFunction::Avg(_) => Accumulator::Avg { sum: 0.0, count: 0 },
            AggregateFunction::Max(_) => Accumulator::Max(f64::NEG_INFINITY),
            AggregateFunction::Min(_) => Accumulator::Min(f64::INFINITY),
        }
    }

    fn fold(&mut self, value: Option<f64>) {
        match self {
            Accumulator::Count(c) => *c += 1,
            Accumulator::Sum(s) => *s += value.unwrap_or(0.0),
            Accumulator::Avg { sum, count } => {
                if let Some(v) = value {
                    *sum += v;
                    *count += 1;
                }
            }
            Accumulator::Max(m) => {
                if let Some(v) = value {
                    *m = m.max(v);
                }
            }
            Accumulator::Min(m) => {
                if let Some(v) = value {
                    *m = m.min(v);
                }
            }
        }
    }

    fn value(&self) -> Value {
        match self {
            Accumulator::Count(c) => Value::Int(*c as i64),
            Accumulator::Sum(s) => Value::Float(*s),
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *count as f64)
                }
            }
            Accumulator::Max(m) => {
                if m.is_finite() {
                    Value::Float(*m)
                } else {
                    Value::Null
                }
            }
            Accumulator::Min(m) => {
                if m.is_finite() {
                    Value::Float(*m)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// The open partial aggregates of one window, keyed by group-by values.
/// Lookups borrow the tuple's values (`&[Value]`); a key is allocated only
/// when a group opens.
type Groups = HashMap<Vec<Value>, Accumulator, FixedState>;

/// Open windows by window id, each with its groups.  Windows iterate in
/// window order, so the closed ones are always a prefix.
type WindowState = BTreeMap<i64, Groups>;

/// Drains `groups` in ascending group order, the order every result leaves
/// the aggregate in.
fn drain_in_group_order(groups: Groups) -> Vec<(Vec<Value>, Accumulator)> {
    let mut drained: Vec<_> = groups.into_iter().collect();
    drained.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    drained
}

/// The group-by values of `tuple`: borrowed in place for one group column,
/// gathered into the reused `scratch` buffer otherwise.
fn group_key<'a>(indices: &[usize], tuple: &'a Tuple, scratch: &'a mut Vec<Value>) -> &'a [Value] {
    match indices {
        [i] => std::slice::from_ref(&tuple.values()[*i]),
        _ => {
            scratch.clear();
            scratch.extend(indices.iter().map(|i| tuple.values()[*i].clone()));
            scratch
        }
    }
}

/// A tumbling-window grouped aggregate with Table-1 feedback behaviour.
pub struct WindowAggregate {
    name: String,
    input_schema: SchemaRef,
    output_schema: SchemaRef,
    timestamp_attribute: String,
    /// Index of `timestamp_attribute` in the input schema, resolved once so
    /// per-tuple windowing is a slice access instead of a name lookup.
    timestamp_index: usize,
    window: StreamDuration,
    group_attributes: Vec<String>,
    group_indices: Vec<usize>,
    function: AggregateFunction,
    value_index: Option<usize>,
    feedback_mode: FeedbackMode,
    spec: AggregateSpec,
    state: WindowState,
    /// Reused buffer for multi-column group keys.
    scratch: Vec<Value>,
    /// Guards over the input schema (Table 1's guard-input action), expired
    /// by the punctuation the aggregate receives.
    input_guards: FeedbackRegistry,
    /// Guards over the output schema (the guard-output action), plus the
    /// desired and demanded feedback received, expired by the punctuation
    /// the aggregate emits.
    output_guards: FeedbackRegistry,
    /// Group keys suppressed by PurgeAndGuardMatchingGroups.  They describe
    /// groups, not a span of stream time, so no punctuation releases them.
    guarded_groups: HashSet<Vec<Value>>,
    /// The bound of the last output progress punctuation, `[window ≤ t]`
    /// (before the first one, the bound the output started from; `None`
    /// until the first input punctuation).
    emitted_watermark: Option<Timestamp>,
}

impl WindowAggregate {
    /// Creates a tumbling-window aggregate.
    ///
    /// Output schema: `(window: timestamp, <group attributes…>, <aggregate>)`,
    /// where `window` is the start of the tumbling window.
    pub fn new(
        name: impl Into<String>,
        input_schema: SchemaRef,
        timestamp_attribute: impl Into<String>,
        window: StreamDuration,
        group_attributes: &[&str],
        function: AggregateFunction,
    ) -> dsms_types::TypeResult<Self> {
        let name = name.into();
        let timestamp_attribute = timestamp_attribute.into();
        let timestamp_index = input_schema.index_of(&timestamp_attribute)?;
        let group_indices: Vec<usize> =
            group_attributes.iter().map(|a| input_schema.index_of(a)).collect::<Result<_, _>>()?;
        let value_index = match function.input_attribute() {
            Some(attr) => Some(input_schema.index_of(attr)?),
            None => None,
        };
        let mut fields = vec![dsms_types::Field::new("window", DataType::Timestamp)];
        for (i, attr) in group_attributes.iter().enumerate() {
            fields.push(dsms_types::Field::new(
                *attr,
                input_schema.field(group_indices[i])?.data_type(),
            ));
        }
        fields.push(dsms_types::Field::new(function.output_name(), function.output_type()));
        let output_schema: SchemaRef = Arc::new(Schema::try_new(fields)?);

        // Mapping output → input: the window attribute maps onto the
        // timestamp attribute (coarsened), group attributes map by name.
        let mut pairs: Vec<(&str, &str)> = vec![("window", timestamp_attribute.as_str())];
        for attr in group_attributes {
            pairs.push((attr, attr));
        }
        let input_mapping =
            AttributeMapping::by_pairs(output_schema.clone(), input_schema.clone(), &pairs)?;

        let spec = AggregateSpec {
            output: output_schema.clone(),
            input: input_schema.clone(),
            group_attributes: (1..=group_attributes.len()).collect(),
            aggregate_attribute: group_attributes.len() + 1,
            input_mapping,
            monotonicity: function.monotonicity(),
        };

        Ok(WindowAggregate {
            input_guards: FeedbackRegistry::new(name.clone()),
            output_guards: FeedbackRegistry::new(name.clone()),
            name,
            input_schema,
            output_schema,
            timestamp_attribute,
            timestamp_index,
            window,
            group_attributes: group_attributes.iter().map(|s| s.to_string()).collect(),
            group_indices,
            function,
            value_index,
            feedback_mode: FeedbackMode::ExploitAndPropagate,
            spec,
            state: WindowState::new(),
            scratch: Vec::new(),
            guarded_groups: HashSet::new(),
            emitted_watermark: None,
        })
    }

    /// Sets the feedback mode (F0–F3).
    pub fn with_feedback_mode(mut self, mode: FeedbackMode) -> Self {
        self.feedback_mode = mode;
        self
    }

    /// The output schema.
    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }

    /// Number of open `(window, group)` partial aggregates.
    pub fn open_groups(&self) -> usize {
        self.state.values().map(HashMap::len).sum()
    }

    fn output_tuple(&self, wid: i64, group: &[Value], acc: &Accumulator) -> Tuple {
        let mut values = Vec::with_capacity(self.output_schema.arity());
        values.push(Value::Timestamp(Timestamp::from_millis(wid * self.window.as_millis())));
        values.extend(group.iter().cloned());
        values.push(acc.value());
        Tuple::new(self.output_schema.clone(), values)
    }

    fn output_guarded(&mut self, tuple: &Tuple) -> bool {
        self.output_guards.decide(tuple) == GuardDecision::Suppress
    }

    /// Folds one tuple into its `(window, group)` partial aggregate.  Guard
    /// checks have already happened (or were proven unnecessary for the whole
    /// batch).  Only a group's first tuple allocates its key.
    fn accumulate(&mut self, tuple: &Tuple) -> EngineResult<()> {
        let ts = tuple.timestamp_at(self.timestamp_index)?;
        let wid = ts.window_id(self.window);
        let value = self.value_index.and_then(|i| tuple.values()[i].numeric());
        let groups = self.state.entry(wid).or_default();
        let group = group_key(&self.group_indices, tuple, &mut self.scratch);
        match groups.get_mut(group) {
            Some(acc) => acc.fold(value),
            None => {
                let mut acc = Accumulator::new(&self.function);
                acc.fold(value);
                groups.insert(group.to_vec(), acc);
            }
        }
        Ok(())
    }

    /// True when the purged-group guard set provably misses every row of the
    /// page: the single group column's summary excludes every guarded group
    /// key, by range or by integer mask.  Conservative — multi-attribute
    /// groups and pages with null group values return `false` (per-tuple
    /// fallback).
    fn groups_provably_unguarded(&self, page: &dsms_engine::Page) -> bool {
        if self.guarded_groups.is_empty() {
            return true;
        }
        if self.group_indices.len() != 1 {
            return false;
        }
        let Some(summary) = page.column_summary(self.group_indices[0]) else {
            return false;
        };
        if summary.has_nulls() {
            return false;
        }
        let (Some(min), Some(max)) = (summary.min(), summary.max()) else {
            return false;
        };
        self.guarded_groups
            .iter()
            .all(|g| g.first().is_some_and(|v| v < min || v > max || summary.excludes(v)))
    }

    /// Emits the results of one closed window's groups, in group order,
    /// honouring the output guards.
    fn emit_window(&mut self, wid: i64, groups: Groups, ctx: &mut OperatorContext) {
        for (group, acc) in drain_in_group_order(groups) {
            let out = self.output_tuple(wid, &group, &acc);
            if !self.output_guarded(&out) {
                ctx.emit(0, out);
            }
        }
    }

    /// Closes every window whose end is at or before the watermark, and
    /// punctuates the output up to the last closed window.
    fn close_windows_up_to(&mut self, watermark: Timestamp, ctx: &mut OperatorContext) {
        // Every window that ends at or before the watermark is closed, so the
        // output is complete for every window starting before the first open
        // one, whose start is the watermark plus 1 ms rounded down to a
        // window boundary.  Punctuating the raw input watermark would claim
        // that open window complete.
        let complete = (watermark + StreamDuration::from_millis(1)).align_down(self.window)
            - StreamDuration::from_millis(1);
        // At the first input punctuation, the bound starts just below the
        // earliest window seen, unasserted: the first output punctuation then
        // always follows a closed window, never an empty prefix (a shared
        // fan-out counts output punctuations as window boundaries).
        let already_complete = *self.emitted_watermark.get_or_insert_with(|| {
            let first_window = self.state.keys().next().map(|wid| {
                Timestamp::from_millis(wid * self.window.as_millis())
                    - StreamDuration::from_millis(1)
            });
            first_window.map_or(complete, |first| first.min(complete))
        });
        // Window ends grow with the window id: the closed windows lead.
        while let Some(entry) = self.state.first_entry() {
            let wid = *entry.key();
            let window_end = Timestamp::from_millis((wid + 1) * self.window.as_millis())
                - StreamDuration::from_millis(1);
            if window_end > watermark {
                break;
            }
            let groups = entry.remove();
            self.emit_window(wid, groups, ctx);
        }
        if complete > already_complete {
            self.emitted_watermark = Some(complete);
            if let Ok(p) = Punctuation::progress(self.output_schema.clone(), "window", complete) {
                self.output_guards.expire_with(&p);
                ctx.emit_punctuation(0, p);
            }
        }
    }
}

impl Operator for WindowAggregate {
    fn feedback_roles(&self) -> FeedbackRoles {
        match self.feedback_mode {
            FeedbackMode::Ignore => FeedbackRoles::NONE,
            FeedbackMode::GuardOutput | FeedbackMode::Exploit => FeedbackRoles::exploiter(),
            FeedbackMode::ExploitAndPropagate => FeedbackRoles::exploiter().with_relayer(),
        }
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
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if !self.guarded_groups.is_empty()
            && self.guarded_groups.contains(group_key(
                &self.group_indices,
                &tuple,
                &mut self.scratch,
            ))
        {
            self.input_guards.stats_mut().tuples_suppressed += 1;
            return Ok(());
        }
        if self.input_guards.decide(&tuple) == GuardDecision::Suppress {
            return Ok(());
        }
        self.accumulate(&tuple)
    }

    /// Columnar kernel: classifies the whole page against the input guards
    /// via column summaries (`FeedbackRegistry::decide_batch`), once the
    /// purged-group guards are proven to miss it.  A page the guards provably
    /// cover is suppressed wholesale; a page they provably miss folds into
    /// the window state without any per-tuple guard probe; anything
    /// inconclusive falls back to the exact per-tuple path.
    ///
    /// ```
    /// use dsms_engine::{Operator, OperatorContext, Page, StreamItem};
    /// use dsms_feedback::FeedbackPunctuation;
    /// use dsms_operators::{AggregateFunction, WindowAggregate};
    /// use dsms_punctuation::{Pattern, PatternItem};
    /// use dsms_types::{DataType, Schema, StreamDuration, Timestamp, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[
    ///     ("timestamp", DataType::Timestamp),
    ///     ("segment", DataType::Int),
    ///     ("speed", DataType::Float),
    /// ]);
    /// let mut avg = WindowAggregate::new(
    ///     "AVERAGE",
    ///     schema.clone(),
    ///     "timestamp",
    ///     StreamDuration::from_secs(60),
    ///     &["segment"],
    ///     AggregateFunction::Avg("speed".into()),
    /// )
    /// .unwrap();
    /// let mut ctx = OperatorContext::new();
    /// // An assumed guard over the output schema purges and guards segment 3.
    /// let guard = Pattern::for_attributes(
    ///     avg.output_schema().clone(),
    ///     &[("segment", PatternItem::Eq(Value::Int(3)))],
    /// )
    /// .unwrap();
    /// avg.on_feedback(0, FeedbackPunctuation::assumed(guard, "MAP"), &mut ctx).unwrap();
    ///
    /// let row = |seg, speed| {
    ///     StreamItem::Tuple(Tuple::new(
    ///         schema.clone(),
    ///         vec![Value::Timestamp(Timestamp::from_secs(10)), Value::Int(seg), Value::Float(speed)],
    ///     ))
    /// };
    /// // The group column's summary proves this page is entirely guarded …
    /// avg.on_page(0, Page::from_items(vec![row(3, 40.0), row(3, 50.0)]), &mut ctx).unwrap();
    /// assert_eq!(avg.open_groups(), 0);
    /// // … and this one entirely clear: folded with no per-tuple probes.
    /// avg.on_page(0, Page::from_items(vec![row(5, 40.0), row(6, 60.0)]), &mut ctx).unwrap();
    /// assert_eq!(avg.open_groups(), 2);
    /// assert_eq!(avg.feedback_stats().unwrap().batches_summary_conclusive, 2);
    /// ```
    fn on_page(
        &mut self,
        input: usize,
        page: dsms_engine::Page,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Purged-group guards are not in the registry; a page they may touch
        // takes the per-tuple path.
        let decision = if self.groups_provably_unguarded(&page) {
            self.input_guards.decide_batch(page.tuple_count(), |c| page.column_summary(c))
        } else {
            BatchGuardDecision::Mixed
        };
        guarded_pass(self, input, page, decision, ctx, |avg, tuple, _| avg.accumulate(&tuple))
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if let Some(watermark) = punctuation.watermark_for(&self.timestamp_attribute) {
            self.close_windows_up_to(watermark, ctx);
        }
        // Group-complete punctuation on a grouping attribute closes that
        // group's windows (all of them — no more tuples for the group).
        for i in 0..self.group_attributes.len() {
            let Some(group_value) = punctuation.completed_group(&self.group_attributes[i]) else {
                continue;
            };
            for (wid, groups) in self.take_partials(|_, _, g, _| g.get(i) == Some(&group_value)) {
                self.emit_window(wid, groups, ctx);
            }
        }
        // Input guards this punctuation releases can never match again.
        self.input_guards.expire_with(&punctuation);
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if self.feedback_mode == FeedbackMode::Ignore {
            return Ok(());
        }
        match feedback.intent() {
            FeedbackIntent::Assumed => self.exploit_assumed(&feedback, ctx)?,
            FeedbackIntent::Desired => {
                // Prioritization inside a blocking aggregate means closing the
                // desired groups as early as possible; we record the pattern so
                // demanded/desired-aware consumers can be served first, but the
                // aggregate's result set is unchanged.
                let _ = self.output_guards.register(feedback);
            }
            FeedbackIntent::Demanded => {
                // Emit partial results for matching groups right now.
                let _ = self.output_guards.register(feedback);
                for demand in self.output_guards.take_demanded() {
                    self.emit_partials(Some(demand.pattern()), ctx);
                }
            }
        }
        Ok(())
    }

    fn on_request_results(
        &mut self,
        _output: usize,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Poll-based result production (paper Example 4): emit current partial
        // aggregates without purging state.
        self.emit_partials(None, ctx);
        Ok(())
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        for (wid, groups) in std::mem::take(&mut self.state) {
            self.emit_window(wid, groups, ctx);
        }
        Ok(())
    }

    /// One entry per open `(window, group)` partial aggregate.  The entry key
    /// is the group values in group-attribute order — an elastic stage must
    /// therefore shuffle on those same attributes in that same order for
    /// [`route_values`](crate::elastic::route_values) to agree with the hash
    /// route.  Exporting drains the state: partials move whole, never split.
    fn export_state(&mut self) -> Vec<StateEntry> {
        std::mem::take(&mut self.state)
            .into_iter()
            .flat_map(|(wid, groups)| {
                drain_in_group_order(groups).into_iter().map(move |(group, acc)| StateEntry {
                    key: group,
                    payload: Box::new((wid, acc)),
                })
            })
            .collect()
    }

    fn import_state(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        for entry in entries {
            let payload = entry.payload.downcast::<(i64, Accumulator)>().map_err(|_| {
                EngineError::OperatorFailed {
                    operator: self.name.clone(),
                    detail: "imported state entry is not a window aggregate partial".into(),
                }
            })?;
            let (wid, acc) = *payload;
            // Routing keeps partitions disjoint and export drains local state,
            // so an entry never lands on an existing key.
            self.state.entry(wid).or_default().insert(entry.key, acc);
        }
        Ok(())
    }

    /// Both guard registries' counters, merged: every guard is mounted in
    /// exactly one of them, so nothing is counted twice.
    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        let mut stats = self.input_guards.stats().clone();
        stats.merge(self.output_guards.stats());
        Some(stats)
    }

    fn restartable(&self) -> bool {
        true
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        Ok(vec![StateEntry {
            key: Vec::new(),
            payload: Box::new(AggregateSnapshot {
                state: self.state.clone(),
                input_guards: self.input_guards.clone(),
                output_guards: self.output_guards.clone(),
                guarded_groups: self.guarded_groups.clone(),
                emitted_watermark: self.emitted_watermark,
            }),
        }])
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.state = WindowState::new();
        self.input_guards = FeedbackRegistry::new(self.name.clone());
        self.output_guards = FeedbackRegistry::new(self.name.clone());
        self.guarded_groups = HashSet::new();
        self.emitted_watermark = None;
        for entry in entries {
            match entry.payload.downcast::<AggregateSnapshot>() {
                Ok(snapshot) => {
                    self.state = snapshot.state;
                    self.input_guards = snapshot.input_guards;
                    self.output_guards = snapshot.output_guards;
                    self.guarded_groups = snapshot.guarded_groups;
                    self.emitted_watermark = snapshot.emitted_watermark;
                }
                Err(_) => {
                    return Err(EngineError::OperatorFailed {
                        operator: self.name.clone(),
                        detail: "checkpoint entry is not a window aggregate snapshot".into(),
                    })
                }
            }
        }
        Ok(())
    }

    /// The aggregate is dedupe-able: its output is fully determined by its
    /// input schema, timestamp attribute, window, group-by attributes,
    /// function and feedback mode.  The name is left out, so per-query names
    /// do not keep equal aggregates apart.  Nothing here allocates.
    fn fingerprint(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut hasher = dsms_types::FixedHasher::new();
        "window_aggregate".hash(&mut hasher);
        self.input_schema.hash(&mut hasher);
        self.timestamp_attribute.hash(&mut hasher);
        self.window.hash(&mut hasher);
        self.group_attributes.hash(&mut hasher);
        self.function.hash(&mut hasher);
        self.feedback_mode.hash(&mut hasher);
        Some(hasher.finish())
    }
}

/// Open partials, guard state, and the emission watermark captured together
/// at a checkpoint so a restarted [`WindowAggregate`] neither re-emits nor
/// loses a window.
struct AggregateSnapshot {
    state: WindowState,
    input_guards: FeedbackRegistry,
    output_guards: FeedbackRegistry,
    guarded_groups: HashSet<Vec<Value>>,
    emitted_watermark: Option<Timestamp>,
}

impl WindowAggregate {
    /// Emits the current partial aggregate of every open group matching
    /// `pattern` (all of them for `None`), keeping the state and honouring
    /// the output guards.
    fn emit_partials(&mut self, pattern: Option<&Pattern>, ctx: &mut OperatorContext) {
        let mut partials = Vec::with_capacity(self.open_groups());
        for (wid, groups) in &self.state {
            let mut in_order: Vec<_> = groups.iter().collect();
            in_order.sort_unstable_by(|a, b| a.0.cmp(b.0));
            partials.extend(in_order.into_iter().map(|(g, acc)| self.output_tuple(*wid, g, acc)));
        }
        for out in partials {
            if pattern.is_none_or(|p| p.matches(&out)) && !self.output_guarded(&out) {
                ctx.emit(0, out);
                self.output_guards.stats_mut().partial_results += 1;
            }
        }
    }

    /// Removes every open partial `pick` selects, returning them by window
    /// in window order; a window left without groups closes.
    fn take_partials(
        &mut self,
        mut pick: impl FnMut(&Self, i64, &[Value], &Accumulator) -> bool,
    ) -> Vec<(i64, Groups)> {
        let mut state = std::mem::take(&mut self.state);
        let mut taken = Vec::new();
        for (wid, groups) in &mut state {
            let (picked, kept): (Groups, Groups) =
                std::mem::take(groups).into_iter().partition(|(g, acc)| pick(self, *wid, g, acc));
            *groups = kept;
            if !picked.is_empty() {
                taken.push((*wid, picked));
            }
        }
        state.retain(|_, groups| !groups.is_empty());
        self.state = state;
        taken
    }

    /// Removes every open partial whose current output tuple matches
    /// `pattern`, counting them as purged state, and returns their groups.
    fn purge_matching(&mut self, pattern: &Pattern) -> Vec<Vec<Value>> {
        let purged = self.take_partials(|avg, wid, group, acc| {
            pattern.matches(&avg.output_tuple(wid, group, acc))
        });
        let groups: Vec<Vec<Value>> =
            purged.into_iter().flat_map(|(_, groups)| groups.into_keys()).collect();
        self.input_guards.stats_mut().state_purged += groups.len() as u64;
        groups
    }

    fn exploit_assumed(
        &mut self,
        feedback: &FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // F1 restricts the response to mounting a guard on the aggregate's
        // output, regardless of what the full characterization would allow.
        if self.feedback_mode == FeedbackMode::GuardOutput {
            let _ = self.output_guards.register(feedback.clone());
            return Ok(());
        }
        let characterization = characterize_aggregate(&self.spec, feedback.pattern())?;
        if characterization.actions.is_empty() {
            // Null response: nothing is mounted, but the message arrived.
            self.output_guards.stats_mut().received.record(feedback.intent());
        }
        // A guard is the received feedback rewritten for the side it
        // guards; relaying keeps its id, so lineage stays traceable.
        for action in &characterization.actions {
            match action {
                ExploitAction::GuardOutput(pattern) => {
                    let _ =
                        self.output_guards.register(feedback.relay(pattern.clone(), &self.name));
                }
                ExploitAction::GuardInput { pattern, .. } => {
                    let _ = self.input_guards.register(feedback.relay(pattern.clone(), &self.name));
                }
                ExploitAction::PurgeState(pattern) => {
                    self.purge_matching(pattern);
                }
                ExploitAction::PurgeAndGuardMatchingGroups => {
                    let purged = self.purge_matching(feedback.pattern());
                    self.guarded_groups.extend(purged);
                }
            }
        }
        // F3: relay to the antecedent following the characterization.
        if self.feedback_mode == FeedbackMode::ExploitAndPropagate {
            match &characterization.propagation {
                PropagationRule::ToInputs(targets) => {
                    for (input, pattern) in targets {
                        ctx.send_feedback(*input, feedback.relay(pattern.clone(), &self.name));
                        self.input_guards.stats_mut().relayed.record(feedback.intent());
                    }
                }
                PropagationRule::GroupsFromState => {
                    // Propagate the guarded groups in terms of the input schema,
                    // only expressible when there is exactly one group attribute.
                    if self.group_attributes.len() == 1 && !self.guarded_groups.is_empty() {
                        let keys: Vec<Value> =
                            self.guarded_groups.iter().filter_map(|g| g.first().cloned()).collect();
                        let pattern = Pattern::for_attributes(
                            self.input_schema.clone(),
                            &[(self.group_attributes[0].as_str(), PatternItem::InSet(keys))],
                        )?;
                        ctx.send_feedback(0, feedback.relay(pattern, &self.name));
                        self.input_guards.stats_mut().relayed.record(feedback.intent());
                    }
                }
                PropagationRule::None => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::StreamItem;

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn tuple(ts: i64, seg: i64, speed: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(speed)],
        )
    }

    fn avg_per_segment() -> WindowAggregate {
        WindowAggregate::new(
            "AVERAGE",
            schema(),
            "timestamp",
            StreamDuration::from_secs(60),
            &["segment"],
            AggregateFunction::Avg("speed".into()),
        )
        .unwrap()
    }

    fn progress(ts: i64) -> Punctuation {
        Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(ts)).unwrap()
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
    fn punctuation_closes_windows_and_purges_state() {
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 1, 40.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(20, 1, 60.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(70, 1, 30.0), &mut ctx).unwrap(); // next window
        assert_eq!(op.open_groups(), 2);
        assert!(emitted_tuples(&mut ctx).is_empty(), "blocking until punctuation");

        op.on_punctuation(0, progress(59), &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 2, "a tuple at 59.5s could still arrive for window 0");
        op.on_punctuation(0, progress(60), &mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].float("avg").unwrap(), 50.0);
        assert_eq!(op.open_groups(), 1, "window 0 purged, window 1 still open");
    }

    #[test]
    fn flush_emits_remaining_windows() {
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 1, 40.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(10, 2, 80.0), &mut ctx).unwrap();
        op.on_flush(&mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 2);
        assert_eq!(op.open_groups(), 0);
    }

    #[test]
    fn count_and_max_and_min_and_sum_compute_correct_values() {
        for (function, expected) in [
            (AggregateFunction::Count, Value::Int(3)),
            (AggregateFunction::Sum("speed".into()), Value::Float(150.0)),
            (AggregateFunction::Max("speed".into()), Value::Float(70.0)),
            (AggregateFunction::Min("speed".into()), Value::Float(30.0)),
            (AggregateFunction::Avg("speed".into()), Value::Float(50.0)),
        ] {
            let mut op = WindowAggregate::new(
                "agg",
                schema(),
                "timestamp",
                StreamDuration::from_secs(60),
                &["segment"],
                function.clone(),
            )
            .unwrap();
            let mut ctx = OperatorContext::new();
            op.on_tuple(0, tuple(1, 1, 50.0), &mut ctx).unwrap();
            op.on_tuple(0, tuple(2, 1, 30.0), &mut ctx).unwrap();
            op.on_tuple(0, tuple(3, 1, 70.0), &mut ctx).unwrap();
            op.on_flush(&mut ctx).unwrap();
            let out = emitted_tuples(&mut ctx);
            assert_eq!(out.len(), 1, "{function:?}");
            assert_eq!(out[0].values()[2], expected, "{function:?}");
        }
    }

    #[test]
    fn group_feedback_purges_guards_and_propagates() {
        // Table 1 row ¬[g, *] with g = segment 3.
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 3, 40.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(10, 4, 40.0), &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 2);

        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(3)))],
            )
            .unwrap(),
            "MAP",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 1, "segment 3 state purged");
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 1, "propagated to the antecedent");
        assert_eq!(relayed[0].1.pattern().to_string(), "[*, 3, *]");

        // New tuples for segment 3 are guarded on the input.
        op.on_tuple(0, tuple(20, 3, 99.0), &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 1, "group not recreated");
        op.on_flush(&mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].int("segment").unwrap(), 4);
    }

    #[test]
    fn f1_guard_output_mode_keeps_aggregating_but_suppresses_results() {
        let mut op = avg_per_segment().with_feedback_mode(FeedbackMode::GuardOutput);
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(3)))],
            )
            .unwrap(),
            "MAP",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "F1 does not propagate");
        op.on_tuple(0, tuple(10, 3, 40.0), &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 1, "F1 still aggregates the group");
        op.on_flush(&mut ctx).unwrap();
        assert!(emitted_tuples(&mut ctx).is_empty(), "but its result is suppressed");
    }

    #[test]
    fn f0_ignore_mode_is_feedback_unaware() {
        let mut op = avg_per_segment().with_feedback_mode(FeedbackMode::Ignore);
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(3)))],
            )
            .unwrap(),
            "MAP",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        op.on_tuple(0, tuple(10, 3, 40.0), &mut ctx).unwrap();
        op.on_flush(&mut ctx).unwrap();
        assert_eq!(emitted_tuples(&mut ctx).len(), 1, "feedback ignored");
    }

    #[test]
    fn value_feedback_on_avg_only_guards_output() {
        // Section 3.5: AVERAGE at 51 may still drop below 50 — no purge allowed.
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 1, 51.0), &mut ctx).unwrap();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("avg", PatternItem::Ge(Value::Float(50.0)))],
            )
            .unwrap(),
            "MAP",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 1, "no purge for non-monotone aggregate");
        // More input drags the average below 50 → result must appear.
        op.on_tuple(0, tuple(20, 1, 9.0), &mut ctx).unwrap();
        op.on_flush(&mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].float("avg").unwrap(), 30.0);
    }

    #[test]
    fn value_feedback_on_max_purges_matching_windows() {
        let mut op = WindowAggregate::new(
            "MAX",
            schema(),
            "timestamp",
            StreamDuration::from_secs(60),
            &["segment"],
            AggregateFunction::Max("speed".into()),
        )
        .unwrap();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 1, 55.0), &mut ctx).unwrap(); // partial max 55 ≥ 50
        op.on_tuple(0, tuple(10, 2, 20.0), &mut ctx).unwrap(); // partial max 20
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("max", PatternItem::Ge(Value::Float(50.0)))],
            )
            .unwrap(),
            "MAP",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 1, "matching window closed");
        // Tuples for the purged group are guarded; the surviving group closes
        // below the threshold and is emitted.
        op.on_tuple(0, tuple(20, 1, 10.0), &mut ctx).unwrap();
        op.on_flush(&mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].int("segment").unwrap(), 2);
    }

    #[test]
    fn demanded_feedback_emits_partial_results() {
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 1, 40.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(11, 2, 80.0), &mut ctx).unwrap();
        let fb = FeedbackPunctuation::demanded(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(1)))],
            )
            .unwrap(),
            "client",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        let out = emitted_tuples(&mut ctx);
        assert_eq!(out.len(), 1, "partial result for the demanded segment only");
        assert_eq!(out[0].float("avg").unwrap(), 40.0);
        assert_eq!(op.open_groups(), 2, "state is kept; partials are extra");
    }

    #[test]
    fn request_results_emits_everything_partial() {
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 1, 40.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(11, 2, 80.0), &mut ctx).unwrap();
        op.on_request_results(0, &mut ctx).unwrap();
        assert_eq!(emitted_tuples(&mut ctx).len(), 2);
    }

    #[test]
    fn on_page_classifies_batches_against_input_guards() {
        use dsms_engine::Page;
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        // Mount a group guard on segment 3 (purges state, guards input).
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(
                op.output_schema().clone(),
                &[("segment", PatternItem::Eq(Value::Int(3)))],
            )
            .unwrap(),
            "MAP",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        ctx.take_feedback();
        // A page entirely of segment 3 is suppressed wholesale: no state.
        let covered = Page::from_items(vec![
            StreamItem::Tuple(tuple(10, 3, 40.0)),
            StreamItem::Tuple(tuple(11, 3, 50.0)),
        ]);
        op.on_page(0, covered, &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 0);
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.tuples_suppressed, 2);
        assert_eq!(stats.batches_summary_conclusive, 1);
        // A page provably clear of the guard folds without per-tuple probes.
        let clear = Page::from_items(vec![
            StreamItem::Tuple(tuple(10, 5, 40.0)),
            StreamItem::Tuple(tuple(11, 6, 60.0)),
        ]);
        op.on_page(0, clear, &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 2);
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.tuples_suppressed, 2, "nothing new suppressed");
        assert_eq!(stats.batches_summary_conclusive, 2);
        // A straddling page falls back to the exact per-tuple path.
        let straddling = Page::from_items(vec![
            StreamItem::Tuple(tuple(12, 3, 40.0)),
            StreamItem::Tuple(tuple(12, 5, 80.0)),
        ]);
        op.on_page(0, straddling, &mut ctx).unwrap();
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.tuples_suppressed, 3, "per-tuple fallback suppressed segment 3");
        assert_eq!(stats.batches_summary_fallback, 1);
    }

    #[test]
    fn state_export_import_round_trips_partial_aggregates() {
        let mut source = avg_per_segment();
        let mut ctx = OperatorContext::new();
        source.on_tuple(0, tuple(10, 1, 40.0), &mut ctx).unwrap();
        source.on_tuple(0, tuple(20, 1, 60.0), &mut ctx).unwrap();
        source.on_tuple(0, tuple(70, 2, 30.0), &mut ctx).unwrap();
        let entries = source.export_state();
        assert_eq!(entries.len(), 2, "one entry per open (window, group)");
        assert_eq!(source.open_groups(), 0, "export drains the state");

        // Split the entries by hash route and reinstall on two fresh replicas.
        let mut replicas = [avg_per_segment(), avg_per_segment()];
        for entry in entries {
            let route = crate::elastic::route_values(&entry.key, 2);
            replicas[route].import_state(vec![entry]).unwrap();
        }
        let mut merged: Vec<Tuple> = Vec::new();
        for replica in &mut replicas {
            replica.on_flush(&mut ctx).unwrap();
            merged.extend(emitted_tuples(&mut ctx));
        }
        merged.sort_by_key(|t| t.int("segment").unwrap());
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].float("avg").unwrap(), 50.0, "segment 1 partial moved whole");
        assert_eq!(merged[1].float("avg").unwrap(), 30.0);
    }

    #[test]
    fn importing_foreign_state_fails_loudly() {
        let mut op = avg_per_segment();
        let entry = StateEntry { key: vec![Value::Int(1)], payload: Box::new("not a partial") };
        assert!(op.import_state(vec![entry]).is_err());
    }

    #[test]
    fn guards_expire_with_received_and_emitted_punctuation() {
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        let first_minute = PatternItem::Between(
            Value::Timestamp(Timestamp::from_secs(0)),
            Value::Timestamp(Timestamp::from_secs(59)),
        );
        let assumed = |constraints: &[(&str, PatternItem)]| {
            FeedbackPunctuation::assumed(
                Pattern::for_attributes(op.output_schema().clone(), constraints).unwrap(),
                "MAP",
            )
        };
        // Group feedback becomes an input guard, value feedback on AVG an
        // output guard; both are scoped to the first window.
        let on_group = assumed(&[
            ("window", first_minute.clone()),
            ("segment", PatternItem::Eq(Value::Int(3))),
        ]);
        let on_value =
            assumed(&[("window", first_minute), ("avg", PatternItem::Ge(Value::Float(50.0)))]);
        op.on_feedback(0, on_group, &mut ctx).unwrap();
        op.on_feedback(0, on_value, &mut ctx).unwrap();
        ctx.take_feedback();
        op.on_tuple(0, tuple(10, 3, 40.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(10, 1, 60.0), &mut ctx).unwrap();
        op.on_tuple(0, tuple(10, 2, 20.0), &mut ctx).unwrap();
        assert_eq!(op.open_groups(), 2, "segment 3 guarded on the input");
        // A restored copy carries both registries and behaves the same.
        let mut restored = avg_per_segment();
        restored.restore(op.checkpoint().unwrap()).unwrap();

        for op in [&mut op, &mut restored] {
            op.on_punctuation(0, progress(60), &mut ctx).unwrap();
            let out = emitted_tuples(&mut ctx);
            assert_eq!(out.len(), 1, "segment 1 (avg 60) guarded on the output");
            assert_eq!(out[0].int("segment").unwrap(), 2);
            let stats = op.feedback_stats().unwrap();
            assert_eq!(stats.received.assumed, 2, "one receipt per mounted guard");
            assert_eq!(stats.tuples_suppressed, 2);
            assert_eq!(stats.guards_expired, 2, "the input and the output guard");
        }
    }

    #[test]
    fn output_punctuation_never_runs_ahead_of_an_open_window() {
        // A 4-s punctuation period against 10-s windows: most input
        // watermarks fall inside an open window.
        let mut op = WindowAggregate::new(
            "AVERAGE",
            schema(),
            "timestamp",
            StreamDuration::from_secs(10),
            &["segment"],
            AggregateFunction::Avg("speed".into()),
        )
        .unwrap();
        let mut ctx = OperatorContext::new();
        // An output guard scoped to the second window, [10 s, 20 s).
        let guard = Pattern::for_attributes(
            op.output_schema().clone(),
            &[
                ("window", PatternItem::Eq(Value::Timestamp(Timestamp::from_secs(10)))),
                ("avg", PatternItem::Ge(Value::Float(50.0))),
            ],
        )
        .unwrap();
        op.on_feedback(0, FeedbackPunctuation::assumed(guard, "MAP"), &mut ctx).unwrap();
        ctx.take_feedback();
        let mut complete_up_to: Option<Timestamp> = None;
        let mut results = Vec::new();
        for t in 0..36 {
            if t % 4 == 0 && t > 0 {
                let watermark = Timestamp::from_secs(t) - StreamDuration::from_millis(1);
                let p = Punctuation::progress(schema(), "timestamp", watermark).unwrap();
                op.on_punctuation(0, p, &mut ctx).unwrap();
            }
            if t == 16 {
                // Watermark 15.999 s: the second window is still open.
                assert_eq!(op.feedback_stats().unwrap().guards_expired, 0, "guard released early");
            }
            op.on_tuple(0, tuple(t, 1, 60.0), &mut ctx).unwrap();
            for (_, item) in ctx.take_emitted() {
                match item {
                    StreamItem::Tuple(out) => {
                        let window = out.timestamp("window").unwrap();
                        assert!(
                            complete_up_to.is_none_or(|bound| window > bound),
                            "result for window {window:?} arrived after [window ≤ {:?}]",
                            complete_up_to.unwrap()
                        );
                        results.push(window.as_secs());
                    }
                    StreamItem::Punctuation(p) => {
                        let bound = p.watermark_for("window").unwrap();
                        assert!(complete_up_to.is_none_or(|prev| bound > prev), "bound must grow");
                        complete_up_to = Some(bound);
                    }
                }
            }
        }
        assert_eq!(results, [0, 20], "window 10 s is suppressed by the output guard");
        assert_eq!(complete_up_to, Some(Timestamp::from_secs(30) - StreamDuration::from_millis(1)));
        assert_eq!(
            op.feedback_stats().unwrap().guards_expired,
            1,
            "released once window 10 s closed"
        );
    }

    #[test]
    fn fingerprint_is_structural_and_ignores_the_name() {
        let build = |name: &str,
                     input: SchemaRef,
                     ts: &str,
                     secs: i64,
                     groups: &[&str],
                     function: AggregateFunction| {
            WindowAggregate::new(name, input, ts, StreamDuration::from_secs(secs), groups, function)
                .unwrap()
        };
        let avg = || AggregateFunction::Avg("speed".into());
        let base = build("avg-0", schema(), "timestamp", 60, &["segment"], avg()).fingerprint();
        assert!(base.is_some());
        assert_eq!(
            base,
            build("avg-7", schema(), "timestamp", 60, &["segment"], avg()).fingerprint()
        );

        let wider = Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
            ("lane", DataType::Int),
        ]);
        let retyped_field = Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Int),
        ]);
        let two_stamps = Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
            ("arrival", DataType::Timestamp),
        ]);
        let variants = [
            build("avg-0", wider, "timestamp", 60, &["segment"], avg()),
            build("avg-0", retyped_field, "timestamp", 60, &["segment"], avg()),
            build("avg-0", two_stamps, "arrival", 60, &["segment"], avg()),
            build("avg-0", schema(), "timestamp", 30, &["segment"], avg()),
            build("avg-0", schema(), "timestamp", 60, &[], avg()),
            build("avg-0", schema(), "timestamp", 60, &["segment"], AggregateFunction::Count),
            build("avg-0", schema(), "timestamp", 60, &["segment"], avg())
                .with_feedback_mode(FeedbackMode::GuardOutput),
        ];
        for variant in &variants {
            assert_ne!(variant.fingerprint(), base, "{:?}", variant.function);
        }
    }

    #[test]
    fn output_punctuation_is_emitted_on_window_close() {
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        let punctuations = |ctx: &mut OperatorContext| -> Vec<Option<Timestamp>> {
            ctx.take_emitted()
                .into_iter()
                .filter_map(|(_, item)| match item {
                    StreamItem::Punctuation(p) => Some(p.watermark_for("window")),
                    StreamItem::Tuple(_) => None,
                })
                .collect()
        };
        // The stream's opening punctuation closes no window, so the output
        // asserts nothing yet (not an empty `[window ≤ −1 ms]`).
        op.on_punctuation(
            0,
            Punctuation::progress(
                schema(),
                "timestamp",
                Timestamp::EPOCH - StreamDuration::from_millis(1),
            )
            .unwrap(),
            &mut ctx,
        )
        .unwrap();
        assert!(punctuations(&mut ctx).is_empty());
        op.on_tuple(0, tuple(10, 1, 40.0), &mut ctx).unwrap();
        op.on_punctuation(0, progress(59), &mut ctx).unwrap();
        assert!(punctuations(&mut ctx).is_empty(), "the first window is still open at 59 s");
        op.on_punctuation(0, progress(60), &mut ctx).unwrap();
        let closed = Timestamp::from_secs(60) - StreamDuration::from_millis(1);
        assert_eq!(punctuations(&mut ctx), vec![Some(closed)], "the first window closed");
    }

    #[test]
    fn first_output_punctuation_follows_a_window_closed_before_any_punctuation() {
        // Tuples arrive before the first input punctuation, which closes
        // their window at once: that closed window is punctuated.
        let mut op = avg_per_segment();
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(10, 1, 40.0), &mut ctx).unwrap();
        op.on_punctuation(0, progress(61), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2, "the window's result, then its punctuation");
        let StreamItem::Punctuation(p) = &emitted[1].1 else { panic!("expected punctuation") };
        assert_eq!(
            p.watermark_for("window"),
            Some(Timestamp::from_secs(60) - StreamDuration::from_millis(1))
        );
    }

    /// A reference fold over one ordered `(window, group)` map, and the
    /// steps a property case drives it and the aggregate with.
    mod model {
        use super::*;
        use dsms_engine::Page;
        use proptest::prelude::*;

        const WIDTH_MS: i64 = 100;

        fn input() -> SchemaRef {
            Schema::shared(&[
                ("timestamp", DataType::Timestamp),
                ("a", DataType::Int),
                ("b", DataType::Text),
            ])
        }

        fn aggregate(groups: &[&str]) -> WindowAggregate {
            WindowAggregate::new(
                "COUNT",
                input(),
                "timestamp",
                StreamDuration::from_millis(WIDTH_MS),
                groups,
                AggregateFunction::Count,
            )
            .unwrap()
        }

        /// One emitted item: a result row, or an output punctuation's bound.
        #[derive(Debug, PartialEq)]
        enum Out {
            Row(Vec<Value>),
            Bound(Option<Timestamp>),
        }

        fn outputs(ctx: &mut OperatorContext) -> Vec<Out> {
            ctx.take_emitted()
                .into_iter()
                .map(|(_, item)| match item {
                    StreamItem::Tuple(t) => Out::Row(t.values().to_vec()),
                    StreamItem::Punctuation(p) => Out::Bound(p.watermark_for("window")),
                })
                .collect()
        }

        #[derive(Debug, Clone)]
        enum Step {
            /// A tuple `offset` ms past the watermark.
            Tuple(i64, Value, Value),
            /// Several such tuples in one page.
            Page(Vec<(i64, Value, Value)>),
            /// Advance the watermark by this many ms.
            Progress(i64),
            /// Declare group column `i` complete at a value.
            GroupComplete(usize, Value),
            /// Assumed `¬[a = v]`: purge, guard the input.
            GroupFeedback(i64),
            /// Assumed `¬[count ≥ k]`: purge and guard matching groups.
            CountFeedback(i64),
            /// Demanded `![a = v]`: partials for matching groups.
            Demand(Value),
            Poll,
            Flush,
            ExportImport,
            CheckpointRestore,
        }

        fn a_value() -> impl Strategy<Value = Value> {
            prop_oneof![(-2i64..4).prop_map(Value::Int), Just(Value::Null)]
        }

        fn b_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Text("x".into())),
                Just(Value::Text("y".into())),
                Just(Value::Null)
            ]
        }

        fn row() -> impl Strategy<Value = (i64, Value, Value)> {
            (1i64..300, a_value(), b_value())
        }

        fn step() -> impl Strategy<Value = Step> {
            prop_oneof![
                row().prop_map(|(t, a, b)| Step::Tuple(t, a, b)),
                row().prop_map(|(t, a, b)| Step::Tuple(t, a, b)),
                row().prop_map(|(t, a, b)| Step::Tuple(t, a, b)),
                proptest::collection::vec(row(), 1..8).prop_map(Step::Page),
                (0i64..250).prop_map(Step::Progress),
                (0usize..2, a_value()).prop_map(|(i, v)| Step::GroupComplete(i, v)),
                (0usize..2, b_value()).prop_map(|(i, v)| Step::GroupComplete(i, v)),
                (-2i64..4).prop_map(Step::GroupFeedback),
                (1i64..4).prop_map(Step::CountFeedback),
                a_value().prop_map(Step::Demand),
                Just(Step::Poll),
                Just(Step::Flush),
                Just(Step::ExportImport),
                Just(Step::CheckpointRestore),
            ]
        }

        /// The reference: one `BTreeMap<(window, group), _>`, iterated in
        /// key order for every result it emits.
        struct Model {
            output: SchemaRef,
            state: BTreeMap<(i64, Vec<Value>), Accumulator>,
            guarded_groups: Vec<Vec<Value>>,
            input_guards: Vec<Value>,
            output_guards: Vec<Pattern>,
            emitted_watermark: Option<Timestamp>,
            out: Vec<Out>,
        }

        impl Model {
            fn row(&self, (wid, group): &(i64, Vec<Value>), acc: &Accumulator) -> Tuple {
                let mut values = vec![Value::Timestamp(Timestamp::from_millis(wid * WIDTH_MS))];
                values.extend(group.iter().cloned());
                values.push(acc.value());
                Tuple::new(self.output.clone(), values)
            }

            fn tuple(&mut self, ts: i64, group: Vec<Value>) {
                let a = &group[0];
                if self.guarded_groups.contains(&group)
                    || self.input_guards.iter().any(|v| PatternItem::Eq(v.clone()).matches(a))
                {
                    return;
                }
                let wid = ts.div_euclid(WIDTH_MS);
                self.state
                    .entry((wid, group))
                    .or_insert_with(|| Accumulator::new(&AggregateFunction::Count))
                    .fold(None);
            }

            /// Emits (and removes, if `remove`) every partial `keep` picks.
            fn emit_where(
                &mut self,
                keep: impl Fn(&(i64, Vec<Value>), &Tuple) -> bool,
                remove: bool,
            ) {
                let keys: Vec<_> = self.state.keys().cloned().collect();
                for key in keys {
                    let out = self.row(&key, &self.state[&key]);
                    if !keep(&key, &out) {
                        continue;
                    }
                    if remove {
                        self.state.remove(&key);
                    }
                    if !self.output_guards.iter().any(|g| g.matches(&out)) {
                        self.out.push(Out::Row(out.values().to_vec()));
                    }
                }
            }

            fn progress(&mut self, watermark: i64) {
                let complete = watermark + 1 - (watermark + 1).rem_euclid(WIDTH_MS) - 1;
                let first = self.state.keys().next().map(|(wid, _)| wid * WIDTH_MS - 1);
                let already = *self.emitted_watermark.get_or_insert(Timestamp::from_millis(
                    first.map_or(complete, |f| f.min(complete)),
                ));
                self.emit_where(|(wid, _), _| (wid + 1) * WIDTH_MS - 1 <= watermark, true);
                if Timestamp::from_millis(complete) > already {
                    self.emitted_watermark = Some(Timestamp::from_millis(complete));
                    self.out.push(Out::Bound(Some(Timestamp::from_millis(complete))));
                }
            }
        }

        fn check(columns: usize, steps: &[Step]) {
            let groups = &["a", "b"][..columns];
            let mut op = aggregate(groups);
            let output = op.output_schema().clone();
            let mut model = Model {
                output: output.clone(),
                state: BTreeMap::new(),
                guarded_groups: Vec::new(),
                input_guards: Vec::new(),
                output_guards: Vec::new(),
                emitted_watermark: None,
                out: Vec::new(),
            };
            let mut ctx = OperatorContext::new();
            let mut watermark = -250i64;
            let mut completed: Vec<(usize, Value)> = Vec::new();
            // Tuples of a group already declared complete break the
            // punctuation contract, so the test holds them back.
            let admit = |completed: &[(usize, Value)], a: &Value, b: &Value| {
                let key = [a, b];
                !completed.iter().any(|(i, v)| key[*i] == v)
            };
            let make = |wm: i64, (offset, a, b): &(i64, Value, Value)| {
                let ts = Value::Timestamp(Timestamp::from_millis(wm + offset));
                Tuple::new(input(), vec![ts, a.clone(), b.clone()])
            };
            let key = |a: &Value, b: &Value| [a.clone(), b.clone()][..columns].to_vec();
            for step in steps {
                match step {
                    Step::Tuple(offset, a, b) => {
                        if admit(&completed, a, b) {
                            let row = (*offset, a.clone(), b.clone());
                            op.on_tuple(0, make(watermark, &row), &mut ctx).unwrap();
                            model.tuple(watermark + offset, key(a, b));
                        }
                    }
                    Step::Page(rows) => {
                        let rows: Vec<_> =
                            rows.iter().filter(|(_, a, b)| admit(&completed, a, b)).collect();
                        let items = rows
                            .iter()
                            .map(|row| StreamItem::Tuple(make(watermark, row)))
                            .collect();
                        op.on_page(0, Page::from_items(items), &mut ctx).unwrap();
                        for (offset, a, b) in rows {
                            model.tuple(watermark + offset, key(a, b));
                        }
                    }
                    Step::Progress(delta) => {
                        watermark += delta;
                        let p = Punctuation::progress(
                            input(),
                            "timestamp",
                            Timestamp::from_millis(watermark),
                        )
                        .unwrap();
                        op.on_punctuation(0, p, &mut ctx).unwrap();
                        model.progress(watermark);
                    }
                    Step::GroupComplete(i, v) => {
                        if *i < columns {
                            let p = Punctuation::group_complete(input(), groups[*i], v.clone())
                                .unwrap();
                            op.on_punctuation(0, p, &mut ctx).unwrap();
                            model.emit_where(|(_, g), _| g[*i] == *v, true);
                            completed.push((*i, v.clone()));
                        }
                    }
                    Step::GroupFeedback(v) => {
                        let pattern = Pattern::for_attributes(
                            output.clone(),
                            &[("a", PatternItem::Eq(Value::Int(*v)))],
                        )
                        .unwrap();
                        let fb = FeedbackPunctuation::assumed(pattern, "client");
                        op.on_feedback(0, fb, &mut ctx).unwrap();
                        model.state.retain(|(_, g), _| g[0] != Value::Int(*v));
                        model.input_guards.push(Value::Int(*v));
                    }
                    Step::CountFeedback(k) => {
                        let pattern = Pattern::for_attributes(
                            output.clone(),
                            &[("count", PatternItem::Ge(Value::Int(*k)))],
                        )
                        .unwrap();
                        let fb = FeedbackPunctuation::assumed(pattern.clone(), "client");
                        op.on_feedback(0, fb, &mut ctx).unwrap();
                        let keys: Vec<_> = model.state.keys().cloned().collect();
                        for key in keys {
                            if pattern.matches(&model.row(&key, &model.state[&key])) {
                                model.state.remove(&key);
                                model.guarded_groups.push(key.1);
                            }
                        }
                        model.output_guards.push(pattern);
                    }
                    Step::Demand(v) => {
                        let pattern = Pattern::for_attributes(
                            output.clone(),
                            &[("a", PatternItem::Eq(v.clone()))],
                        )
                        .unwrap();
                        let fb = FeedbackPunctuation::demanded(pattern.clone(), "client");
                        op.on_feedback(0, fb, &mut ctx).unwrap();
                        model.emit_where(|_, out| pattern.matches(out), false);
                    }
                    Step::Poll => {
                        op.on_request_results(0, &mut ctx).unwrap();
                        model.emit_where(|_, _| true, false);
                    }
                    Step::Flush => {
                        op.on_flush(&mut ctx).unwrap();
                        model.emit_where(|_, _| true, true);
                    }
                    Step::ExportImport => {
                        let mut entries = op.export_state();
                        assert_eq!(op.open_groups(), 0, "export drains");
                        let exported: Vec<(i64, Vec<Value>)> = entries
                            .iter()
                            .map(|e| {
                                let (wid, _) =
                                    e.payload.downcast_ref::<(i64, Accumulator)>().unwrap();
                                (*wid, e.key.clone())
                            })
                            .collect();
                        let open: Vec<_> = model.state.keys().cloned().collect();
                        assert_eq!(exported, open, "export in (window, group) order");
                        entries.reverse();
                        op.import_state(entries).unwrap();
                    }
                    Step::CheckpointRestore => {
                        let snapshot = op.checkpoint().unwrap();
                        op = aggregate(groups);
                        op.restore(snapshot).unwrap();
                    }
                }
                ctx.take_feedback();
                let expected = std::mem::take(&mut model.out);
                assert_eq!(outputs(&mut ctx), expected, "after {step:?}");
                assert_eq!(op.open_groups(), model.state.len(), "after {step:?}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The group table emits what the ordered reference map emits,
            /// in the same order, for one and for two group columns.
            #[test]
            fn group_table_matches_an_ordered_reference(
                steps in proptest::collection::vec(step(), 1..60),
            ) {
                check(1, &steps);
                check(2, &steps);
            }
        }
    }
}
