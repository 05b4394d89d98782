//! Fluent, schema-checked plan composition.
//!
//! [`QueryPlan`] is the engine's low-level IR: raw node ids, explicit port
//! numbers, and no notion of what flows along an edge.  [`StreamBuilder`] and
//! [`Stream`] layer a typed composition API on top of it:
//!
//! * every `Stream` carries the [`SchemaRef`] of the data on its edge, so a
//!   connection whose endpoint declares a different schema
//!   ([`Operator::schema_in`]) is rejected **when the edge is drawn**, with an
//!   error naming both operators — not as a mid-run tuple error;
//! * feedback is first-class: [`Stream::with_feedback`] declares, at
//!   composition time, that the consumer attached next will issue the given
//!   [`FeedbackSpec`] upstream — and it is rejected immediately if the
//!   stream's producer declares no feedback port
//!   ([`Operator::feedback_roles`]), which would otherwise be a silent no-op;
//! * [`StreamBuilder::build`] lowers to a validated [`QueryPlan`], so dangling
//!   partition outputs and cycles also surface before an executor is chosen.
//!
//! The raw `QueryPlan` API remains public and stable — it is the escape hatch
//! for topologies the fluent surface does not cover, and the IR the builder
//! lowers into.
//!
//! Operator-library sugar (`.select(…)`, `.window_avg(…)`, `.partitioned(…)`)
//! lives in `dsms-operators`' `StreamOps` extension trait, built entirely on
//! the generic [`Stream::apply`] / [`Stream::merge`] / [`Stream::sink`]
//! surface below.
//!
//! # Examples
//!
//! A source → filter → sink pipeline with a composition-time feedback
//! subscription.  (Operator-library users would write this with `StreamOps`
//! sugar; here the operators are hand-rolled to keep the example inside the
//! engine crate.)
//!
//! ```
//! use dsms_engine::{
//!     EngineResult, Operator, OperatorContext, SourceState, StreamBuilder, SyncExecutor,
//! };
//! use dsms_feedback::{FeedbackRoles, FeedbackSpec};
//! use dsms_punctuation::Pattern;
//! use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Tuple, Value};
//!
//! fn schema() -> SchemaRef {
//!     Schema::shared(&[("ts", DataType::Timestamp), ("v", DataType::Int)])
//! }
//!
//! /// Replays 10 tuples; exploits assumed feedback by declaring the role.
//! struct Numbers(i64);
//! impl Operator for Numbers {
//!     fn name(&self) -> &str {
//!         "numbers"
//!     }
//!     fn inputs(&self) -> usize {
//!         0
//!     }
//!     fn feedback_roles(&self) -> FeedbackRoles {
//!         FeedbackRoles::exploiter()
//!     }
//!     fn schema_out(&self, _: usize) -> Option<SchemaRef> {
//!         Some(schema())
//!     }
//!     fn on_tuple(&mut self, _: usize, _: Tuple, _: &mut OperatorContext) -> EngineResult<()> {
//!         Ok(())
//!     }
//!     fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
//!         if self.0 >= 10 {
//!             return Ok(SourceState::Exhausted);
//!         }
//!         let t = Tuple::new(
//!             schema(),
//!             vec![Value::Timestamp(Timestamp::from_secs(self.0)), Value::Int(self.0)],
//!         );
//!         self.0 += 1;
//!         ctx.emit(0, t);
//!         Ok(SourceState::Producing)
//!     }
//! }
//!
//! /// Counts arrivals.
//! struct Count;
//! impl Operator for Count {
//!     fn name(&self) -> &str {
//!         "count"
//!     }
//!     fn inputs(&self) -> usize {
//!         1
//!     }
//!     fn outputs(&self) -> usize {
//!         0
//!     }
//!     fn schema_in(&self, _: usize) -> Option<SchemaRef> {
//!         Some(schema())
//!     }
//!     fn on_tuple(&mut self, _: usize, _: Tuple, _: &mut OperatorContext) -> EngineResult<()> {
//!         Ok(())
//!     }
//! }
//!
//! let builder = StreamBuilder::new().with_page_capacity(4);
//! builder
//!     .source(Numbers(0))?
//!     // Declared at composition time: after 3 tuples, the sink assumes the
//!     // whole stream away.  Rejected here (not silently ignored at run
//!     // time) if `numbers` declared no feedback port.
//!     .with_feedback(FeedbackSpec::assumed(Pattern::all_wildcards(schema())).after_tuples(3))?
//!     .sink(Count)?;
//! let plan = builder.build()?;
//! let report = SyncExecutor::run(plan)?;
//! assert_eq!(report.operator("numbers").unwrap().feedback_in, 1);
//! # Ok::<(), dsms_engine::EngineError>(())
//! ```

use crate::error::{EngineError, EngineResult};
use crate::operator::{Operator, OperatorContext};
use crate::page::Page;
use crate::plan::{NodeId, QueryPlan};
use dsms_feedback::{FeedbackRoles, FeedbackSpec, FeedbackTrigger};
use dsms_types::SchemaRef;
use std::cell::RefCell;
use std::rc::Rc;

/// One feedback subscription declared via [`Stream::with_feedback`]: its
/// human-readable description (for build-time errors) and whether it has been
/// lowered onto a consumer yet.
struct SubscriptionRecord {
    description: String,
    lowered: bool,
}

/// Shared construction state: the plan under construction plus subscription
/// accounting, so [`StreamBuilder::build`] can detect feedback declared on a
/// stream that was then dropped before any consumer attached (which would
/// otherwise be exactly the silent no-op `with_feedback` promises to rule
/// out) — and name the offending operator.
struct BuilderState {
    plan: QueryPlan,
    subscriptions: Vec<SubscriptionRecord>,
}

type SharedState = Rc<RefCell<BuilderState>>;

/// Entry point of the fluent composition API: owns the [`QueryPlan`] under
/// construction and hands out [`Stream`] handles.
///
/// # Examples
///
/// ```
/// use dsms_engine::StreamBuilder;
///
/// let builder = StreamBuilder::new().with_page_capacity(64).with_queue_capacity(8);
/// let plan = builder.build().unwrap(); // an empty plan is trivially valid
/// assert_eq!(plan.node_count(), 0);
/// assert_eq!(plan.page_capacity(), 64);
/// ```
pub struct StreamBuilder {
    state: SharedState,
}

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamBuilder {
    /// Creates a builder over an empty plan with default capacities.
    pub fn new() -> Self {
        StreamBuilder {
            state: Rc::new(RefCell::new(BuilderState {
                plan: QueryPlan::new(),
                subscriptions: Vec::new(),
            })),
        }
    }

    /// Sets the tuples-per-page capacity used on every connection.
    pub fn with_page_capacity(self, capacity: usize) -> Self {
        {
            let mut state = self.state.borrow_mut();
            state.plan = std::mem::take(&mut state.plan).with_page_capacity(capacity);
        }
        self
    }

    /// Sets the pages-in-flight bound used on every connection (pooled
    /// executor back-pressure).
    pub fn with_queue_capacity(self, capacity: usize) -> Self {
        {
            let mut state = self.state.borrow_mut();
            state.plan = std::mem::take(&mut state.plan).with_queue_capacity(capacity);
        }
        self
    }

    /// Sets the worker-pool size the pooled executor should use for this
    /// plan (clamped to at least one; see [`QueryPlan::with_worker_pool`]).
    pub fn with_worker_pool(self, workers: usize) -> Self {
        {
            let mut state = self.state.borrow_mut();
            state.plan = std::mem::take(&mut state.plan).with_worker_pool(workers);
        }
        self
    }

    /// Sets the checkpoint interval, in punctuations consumed (sources:
    /// emitted), at which operators under a `Restart` recovery policy
    /// snapshot their state (see [`QueryPlan::with_checkpoint_interval`]).
    /// `0` disables epoch-triggered checkpoints (the retention backstop
    /// still forces one eventually).
    pub fn with_checkpoint_interval(self, interval: u64) -> Self {
        {
            let mut state = self.state.borrow_mut();
            state.plan = std::mem::take(&mut state.plan).with_checkpoint_interval(interval);
        }
        self
    }

    /// Adds a source operator (zero inputs) and returns the stream it
    /// produces on output port 0.
    ///
    /// The stream's schema comes from the operator's
    /// [`Operator::schema_out`] declaration; sources that cannot declare one
    /// (e.g. generators over arbitrary iterators) are added with
    /// [`source_as`](StreamBuilder::source_as).
    pub fn source(&self, operator: impl Operator + 'static) -> EngineResult<Stream> {
        let schema = operator.schema_out(0).ok_or_else(|| EngineError::InvalidPlan {
            detail: format!(
                "source `{}` does not declare its output schema; use source_as(op, schema) to \
                 state it explicitly",
                operator.name()
            ),
        })?;
        self.source_as(operator, schema)
    }

    /// Adds a source operator with an explicitly stated output schema.
    pub fn source_as(
        &self,
        operator: impl Operator + 'static,
        schema: SchemaRef,
    ) -> EngineResult<Stream> {
        if operator.inputs() != 0 {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "`{}` cannot be a source: it declares {} input(s)",
                    operator.name(),
                    operator.inputs()
                ),
            });
        }
        check_declared_output(&operator, &schema, "source_as")?;
        let node = self.state.borrow_mut().plan.add_boxed(Box::new(operator));
        Ok(Stream {
            state: self.state.clone(),
            node,
            port: 0,
            schema,
            pending_feedback: Vec::new(),
        })
    }

    /// Lowers the composition into a validated [`QueryPlan`].
    ///
    /// Fails if any [`Stream`] handle is still alive (an open stream is a
    /// composition mistake: either finish it with a sink or drop it
    /// deliberately to leave the output dangling), if a declared feedback
    /// subscription was never lowered (its stream was dropped before a
    /// consumer attached — the silent no-op `with_feedback` exists to rule
    /// out), or if [`QueryPlan::validate`] rejects the lowered plan
    /// (unconnected inputs, dangling partition outputs, cycles).
    pub fn build(self) -> EngineResult<QueryPlan> {
        let open = Rc::strong_count(&self.state) - 1;
        let state = Rc::try_unwrap(self.state)
            .map_err(|_| EngineError::InvalidPlan {
                detail: format!(
                    "cannot build: {open} stream handle(s) are still open — finish each stream \
                     with a sink or drop it explicitly"
                ),
            })?
            .into_inner();
        let undelivered: Vec<&str> = state
            .subscriptions
            .iter()
            .filter(|s| !s.lowered)
            .map(|s| s.description.as_str())
            .collect();
        if !undelivered.is_empty() {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "cannot build: {} declared feedback subscription(s) were never attached to a \
                     consumer — the stream carrying them was dropped before a sink or operator \
                     consumed it: {}",
                    undelivered.len(),
                    undelivered.join("; ")
                ),
            });
        }
        state.plan.validate()?;
        Ok(state.plan)
    }
}

/// A handle to one operator output edge under construction, carrying the
/// schema of the tuples that will flow on it.
///
/// Streams are consumed by composition: every combinator takes `self` by
/// value, because an output port feeds exactly one consumer.  Dropping a
/// stream leaves the output dangling (legal — emissions are discarded —
/// except for operators that [`Operator::must_connect_all_outputs`], which
/// [`StreamBuilder::build`] rejects with a descriptive error).
pub struct Stream {
    state: SharedState,
    node: NodeId,
    port: usize,
    schema: SchemaRef,
    /// Pending subscriptions: index of the builder-level record (marked
    /// lowered when a consumer attaches) plus the spec itself.
    pending_feedback: Vec<(usize, FeedbackSpec)>,
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("producer", &self.producer())
            .field("port", &self.port)
            .field("schema", &self.schema.describe())
            .field("pending_feedback", &self.pending_feedback.len())
            .finish()
    }
}

impl Stream {
    /// The schema of the data on this stream.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The producing node in the underlying plan (escape hatch for mixing
    /// fluent and raw-`QueryPlan` construction).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The producing node's output port.
    pub fn port(&self) -> usize {
        self.port
    }

    /// The producing operator's name.
    pub fn producer(&self) -> String {
        self.state.borrow().plan.node_name(self.node).unwrap_or("?").to_string()
    }

    /// Declares a feedback subscription on this stream: the consumer attached
    /// next will issue `spec` upstream (against the data flow) once the
    /// spec's trigger fires.
    ///
    /// Rejected at composition time when
    ///
    /// * the spec's pattern is over a different schema than the stream, or
    /// * the stream's producer declares **no feedback port**
    ///   ([`Operator::feedback_roles`] is `NONE`) — the punctuation would be
    ///   silently ignored at run time, which is never what a declared
    ///   subscription means.
    pub fn with_feedback(mut self, spec: FeedbackSpec) -> EngineResult<Stream> {
        let producer = self.producer();
        if spec.schema() != &self.schema {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "feedback subscription on `{producer}` rejected: the pattern is over schema \
                     {} but the stream carries {}",
                    spec.schema().describe(),
                    self.schema.describe()
                ),
            });
        }
        let roles = {
            let state = self.state.borrow();
            state.plan.nodes[self.node.0].operator.feedback_roles()
        };
        if !roles.accepts_feedback() {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "feedback subscription on `{producer}` rejected: the operator declares no \
                     feedback port (roles: {roles}), so the feedback would be silently ignored \
                     at run time"
                ),
            });
        }
        let record = {
            let mut state = self.state.borrow_mut();
            state.subscriptions.push(SubscriptionRecord {
                description: format!("{spec} on `{producer}`"),
                lowered: false,
            });
            state.subscriptions.len() - 1
        };
        self.pending_feedback.push((record, spec));
        Ok(self)
    }

    /// Pins this stream's producing operator to `worker` when the plan runs
    /// on the pooled executor (a placement hint, taken modulo the pool size;
    /// the other executors ignore it).  Useful for keeping a partition chain
    /// on one worker so its pages never cross a queue hand-off.
    pub fn pin_to_worker(self, worker: usize) -> Stream {
        self.state
            .borrow_mut()
            .plan
            .pin_to_worker(self.node, worker)
            .expect("a stream's node always exists in its own plan");
        self
    }

    /// Declares the recovery policy for this stream's producing operator.
    /// [`crate::RecoveryPolicy::Restart`] puts it under supervision:
    /// punctuation-epoch checkpoints, in-place restart with suffix replay on
    /// failure.  Validation (at run time) rejects `Restart` on an operator
    /// that is not [`Operator::restartable`].
    pub fn with_recovery(self, policy: crate::plan::RecoveryPolicy) -> Stream {
        self.state
            .borrow_mut()
            .plan
            .set_recovery(self.node, policy)
            .expect("a stream's node always exists in its own plan");
        self
    }

    /// Quarantine this stream's producing operator instead of failing the
    /// whole run when it exhausts its restart budget (or fails under
    /// [`crate::RecoveryPolicy::FailFast`]): its stream is tombstoned —
    /// flushed, end-of-stream'd, and detached — while the rest of the plan
    /// keeps running.  The failure is reported on the operator's metrics and
    /// in [`crate::RecoverySummary::quarantined`].
    pub fn quarantine_on_failure(self) -> Stream {
        self.state
            .borrow_mut()
            .plan
            .set_quarantine(self.node, true)
            .expect("a stream's node always exists in its own plan");
        self
    }

    /// Connects this stream into a one-input operator, returning the stream
    /// on its output port 0 with the schema the operator declares.
    ///
    /// Use [`apply_as`](Stream::apply_as) for operators that cannot declare
    /// their output schema.
    pub fn apply(self, operator: impl Operator + 'static) -> EngineResult<Stream> {
        let schema = operator.schema_out(0).ok_or_else(|| EngineError::InvalidPlan {
            detail: format!(
                "`{}` does not declare its output schema; use apply_as(op, schema) to state it \
                 explicitly",
                operator.name()
            ),
        })?;
        self.apply_as(operator, schema)
    }

    /// Connects this stream into a one-input operator whose output schema is
    /// stated explicitly (checked against the operator's declaration when it
    /// has one).  Multi-output operators are rejected — use
    /// [`apply_multi`](Stream::apply_multi), which hands back every output
    /// stream instead of silently discarding ports 1 and up.
    pub fn apply_as(
        self,
        operator: impl Operator + 'static,
        output_schema: SchemaRef,
    ) -> EngineResult<Stream> {
        check_single_output(&operator, "apply")?;
        check_declared_output(&operator, &output_schema, "apply_as")?;
        let (state, node) = attach(vec![self], Box::new(operator), AttachKind::Through)?;
        Ok(Stream { state, node, port: 0, schema: output_schema, pending_feedback: Vec::new() })
    }

    /// Connects this stream into a one-input, multi-output operator,
    /// returning one stream per output port.  Every output port must declare
    /// its schema.
    pub fn apply_multi(self, operator: impl Operator + 'static) -> EngineResult<Vec<Stream>> {
        let outputs = operator.outputs();
        let mut schemas = Vec::with_capacity(outputs);
        for output in 0..outputs {
            schemas.push(operator.schema_out(output).ok_or_else(|| EngineError::InvalidPlan {
                detail: format!(
                    "`{}` does not declare a schema for output {output}; multi-output \
                         operators need full schema declarations to be used fluently",
                    operator.name()
                ),
            })?);
        }
        let (state, node) = attach(vec![self], Box::new(operator), AttachKind::Through)?;
        Ok(schemas
            .into_iter()
            .enumerate()
            .map(|(port, schema)| Stream {
                state: state.clone(),
                node,
                port,
                schema,
                pending_feedback: Vec::new(),
            })
            .collect())
    }

    /// Merges several streams into one multi-input operator (input port `i`
    /// is fed by `inputs[i]`), returning the stream on its output port 0 with
    /// the schema the operator declares.
    pub fn merge(inputs: Vec<Stream>, operator: impl Operator + 'static) -> EngineResult<Stream> {
        let schema = operator.schema_out(0).ok_or_else(|| EngineError::InvalidPlan {
            detail: format!(
                "`{}` does not declare its output schema; use merge_as(inputs, op, schema) to \
                 state it explicitly",
                operator.name()
            ),
        })?;
        Self::merge_as(inputs, operator, schema)
    }

    /// [`merge`](Stream::merge) with an explicitly stated output schema.
    /// Like [`apply_as`](Stream::apply_as), multi-output operators are
    /// rejected rather than having their extra ports silently discarded.
    pub fn merge_as(
        inputs: Vec<Stream>,
        operator: impl Operator + 'static,
        output_schema: SchemaRef,
    ) -> EngineResult<Stream> {
        check_single_output(&operator, "merge")?;
        check_declared_output(&operator, &output_schema, "merge_as")?;
        let (state, node) = attach(inputs, Box::new(operator), AttachKind::Through)?;
        Ok(Stream { state, node, port: 0, schema: output_schema, pending_feedback: Vec::new() })
    }

    /// Merges this stream with one other into a two-input operator (this
    /// stream feeds input 0, `other` feeds input 1).
    pub fn combine(self, other: Stream, operator: impl Operator + 'static) -> EngineResult<Stream> {
        Self::merge(vec![self, other], operator)
    }

    /// Terminates this stream in a one-input operator (typically a sink with
    /// zero outputs; any unconnected outputs discard their emissions).
    /// Returns the sink's node id for metrics lookups.
    pub fn sink(self, operator: impl Operator + 'static) -> EngineResult<NodeId> {
        let (_, node) = attach(vec![self], Box::new(operator), AttachKind::Sink)?;
        Ok(node)
    }
}

/// Rejects a multi-output operator on a single-stream combinator: returning
/// only port 0 would silently discard the other outputs' data (`method`
/// names the caller; the fix is `apply_multi`).
fn check_single_output(operator: &(impl Operator + ?Sized), method: &str) -> EngineResult<()> {
    if operator.outputs() > 1 {
        return Err(EngineError::InvalidPlan {
            detail: format!(
                "`{}` has {} output ports but {method} connects only port 0 — use apply_multi to \
                 receive every output stream",
                operator.name(),
                operator.outputs()
            ),
        });
    }
    Ok(())
}

/// Rejects an explicitly stated output schema that contradicts the
/// operator's own `schema_out(0)` declaration (shared by `source_as`,
/// `apply_as` and `merge_as`; `method` names the caller in the error).
fn check_declared_output(
    operator: &(impl Operator + ?Sized),
    given: &SchemaRef,
    method: &str,
) -> EngineResult<()> {
    if let Some(declared) = operator.schema_out(0) {
        if &declared != given {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "`{}` declares output schema {} but {method} was given {}",
                    operator.name(),
                    declared.describe(),
                    given.describe()
                ),
            });
        }
    }
    Ok(())
}

/// Whether an attachment continues the dataflow or terminates it (the only
/// difference is the wording of arity errors).
#[derive(Clone, Copy, PartialEq, Eq)]
enum AttachKind {
    Through,
    Sink,
}

/// Shared lowering for every attachment: checks arity and per-edge schemas,
/// wraps the consumer in a [`FeedbackSubscriber`] when subscriptions are
/// pending, adds the node and draws the edges.
fn attach(
    inputs: Vec<Stream>,
    operator: Box<dyn Operator>,
    kind: AttachKind,
) -> EngineResult<(SharedState, NodeId)> {
    let state =
        inputs.first().map(|s| s.state.clone()).ok_or_else(|| EngineError::InvalidPlan {
            detail: format!("`{}` was merged from an empty stream list", operator.name()),
        })?;
    for stream in &inputs {
        if !Rc::ptr_eq(&state, &stream.state) {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "cannot combine streams from different builders (while connecting `{}`)",
                    operator.name()
                ),
            });
        }
    }
    if operator.inputs() != inputs.len() {
        let verb = match kind {
            AttachKind::Through => "consume",
            AttachKind::Sink => "sink",
        };
        return Err(EngineError::InvalidPlan {
            detail: format!(
                "`{}` has {} input(s) and cannot {verb} {} stream(s)",
                operator.name(),
                operator.inputs(),
                inputs.len()
            ),
        });
    }
    for (port, stream) in inputs.iter().enumerate() {
        if let Some(expected) = operator.schema_in(port) {
            if expected != stream.schema {
                return Err(EngineError::InvalidPlan {
                    detail: format!(
                        "cannot connect `{}` to input {port} of `{}`: schema mismatch — `{}` \
                         produces {} but `{}` expects {}",
                        stream.producer(),
                        operator.name(),
                        stream.producer(),
                        stream.schema.describe(),
                        operator.name(),
                        expected.describe()
                    ),
                });
            }
        }
    }

    // Lower pending feedback subscriptions into a wrapper that counts
    // arrivals per input port and fires the declared punctuation upstream.
    let mut subscriptions = Vec::new();
    let mut lowered_records = Vec::new();
    for (port, stream) in inputs.iter().enumerate() {
        for (record, spec) in &stream.pending_feedback {
            lowered_records.push(*record);
            subscriptions.push(Subscription { port, spec: spec.clone(), fired: false });
        }
    }
    let operator: Box<dyn Operator> = if subscriptions.is_empty() {
        operator
    } else {
        let ports = operator.inputs();
        Box::new(FeedbackSubscriber { inner: operator, seen: vec![0; ports], subscriptions })
    };

    let mut state_mut = state.borrow_mut();
    for record in lowered_records {
        state_mut.subscriptions[record].lowered = true;
    }
    let node = state_mut.plan.add_boxed(operator);
    for (port, stream) in inputs.iter().enumerate() {
        state_mut.plan.connect(stream.node, stream.port, node, port)?;
    }
    drop(state_mut);
    Ok((state, node))
}

/// One pending feedback subscription lowered onto a consumer input port.
struct Subscription {
    port: usize,
    spec: FeedbackSpec,
    fired: bool,
}

/// Transparent wrapper realizing composition-time feedback subscriptions: it
/// adds the producer role to the wrapped operator (keeping its name, so
/// metrics are unaffected), counting tuple arrivals per input port and
/// sending each subscribed [`FeedbackSpec`] upstream once its trigger fires.
struct FeedbackSubscriber {
    inner: Box<dyn Operator>,
    seen: Vec<u64>,
    subscriptions: Vec<Subscription>,
}

impl FeedbackSubscriber {
    fn fire_due(&mut self, at_flush: bool, ctx: &mut OperatorContext) {
        let seen = &self.seen;
        let inner = &self.inner;
        for sub in &mut self.subscriptions {
            if sub.fired {
                continue;
            }
            let due = match sub.spec.trigger() {
                FeedbackTrigger::AfterTuples(n) => seen[sub.port] >= n,
                FeedbackTrigger::AtFlush => at_flush,
            };
            if due {
                sub.fired = true;
                ctx.send_feedback(sub.port, sub.spec.to_punctuation(inner.name()));
            }
        }
    }
}

impl crate::operator::Wrapper for FeedbackSubscriber {
    type Inner = dyn Operator;

    fn inner(&self) -> &Self::Inner {
        &*self.inner
    }

    fn inner_mut(&mut self) -> &mut Self::Inner {
        &mut *self.inner
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        self.inner.feedback_roles().union(FeedbackRoles::producer())
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: dsms_types::Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.seen[input] += 1;
        self.inner.on_tuple(input, tuple, ctx)?;
        self.fire_due(false, ctx);
        Ok(())
    }

    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.seen[input] += page.tuple_count() as u64;
        self.inner.on_page(input, page, ctx)?;
        self.fire_due(false, ctx);
        Ok(())
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.inner.on_flush(ctx)?;
        self.fire_due(true, ctx);
        Ok(())
    }

    // The wrapper's own obligations (`seen` counters, un-fired
    // subscriptions) are not checkpointed and a replay would re-fire
    // feedback the upstream operator already consumed, so a subscribing
    // wrapper is never restartable.  (With no subscriptions the wrapper is
    // not constructed at all.)
    fn restartable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SyncExecutor;
    use crate::operator::{SourceState, StreamItem};
    use crate::pooled::PooledExecutor;
    use dsms_feedback::{FeedbackIntent, FeedbackPunctuation};
    use dsms_punctuation::{Pattern, PatternItem, Punctuation};
    use dsms_types::{DataType, Schema, Timestamp, Tuple, Value};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Schema::shared(&[("ts", DataType::Timestamp), ("v", DataType::Int)])
    }

    fn other_schema() -> SchemaRef {
        Schema::shared(&[("ts", DataType::Timestamp), ("w", DataType::Float)])
    }

    fn tuple(i: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i)])
    }

    /// Source over a fixed vector, declaring schema and the exploiter role.
    struct TestSource {
        tuples: Vec<Tuple>,
        next: usize,
        suppressed: Arc<Mutex<Vec<FeedbackPunctuation>>>,
    }

    impl TestSource {
        fn new(n: i64) -> Self {
            TestSource {
                tuples: (0..n).map(tuple).collect(),
                next: 0,
                suppressed: Arc::new(Mutex::new(Vec::new())),
            }
        }
    }

    impl Operator for TestSource {
        fn name(&self) -> &str {
            "test-source"
        }
        fn inputs(&self) -> usize {
            0
        }
        fn feedback_roles(&self) -> FeedbackRoles {
            FeedbackRoles::exploiter()
        }
        fn schema_out(&self, _: usize) -> Option<SchemaRef> {
            Some(schema())
        }
        fn on_tuple(&mut self, _: usize, _: Tuple, _: &mut OperatorContext) -> EngineResult<()> {
            Ok(())
        }
        fn on_feedback(
            &mut self,
            _: usize,
            feedback: FeedbackPunctuation,
            _: &mut OperatorContext,
        ) -> EngineResult<()> {
            self.suppressed.lock().push(feedback);
            Ok(())
        }
        fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
            match self.tuples.get(self.next) {
                Some(t) => {
                    ctx.emit(0, t.clone());
                    self.next += 1;
                    Ok(SourceState::Producing)
                }
                None => Ok(SourceState::Exhausted),
            }
        }
    }

    /// Pass-through declaring schemas on both sides; no feedback port.
    struct UnawarePass;
    impl Operator for UnawarePass {
        fn name(&self) -> &str {
            "unaware-pass"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn schema_in(&self, _: usize) -> Option<SchemaRef> {
            Some(schema())
        }
        fn schema_out(&self, _: usize) -> Option<SchemaRef> {
            Some(schema())
        }
        fn on_tuple(&mut self, _: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            ctx.emit(0, t);
            Ok(())
        }
    }

    /// Sink collecting tuples, declaring its expected input schema.
    struct TestSink {
        expects: SchemaRef,
        seen: Arc<Mutex<Vec<Tuple>>>,
    }

    impl TestSink {
        fn new(expects: SchemaRef) -> (Self, Arc<Mutex<Vec<Tuple>>>) {
            let seen = Arc::new(Mutex::new(Vec::new()));
            (TestSink { expects, seen: seen.clone() }, seen)
        }
    }

    impl Operator for TestSink {
        fn name(&self) -> &str {
            "test-sink"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn outputs(&self) -> usize {
            0
        }
        fn schema_in(&self, _: usize) -> Option<SchemaRef> {
            Some(self.expects.clone())
        }
        fn on_tuple(&mut self, _: usize, t: Tuple, _: &mut OperatorContext) -> EngineResult<()> {
            self.seen.lock().push(t);
            Ok(())
        }
    }

    #[test]
    fn fluent_pipeline_lowers_and_runs_on_both_executors() {
        for pooled in [false, true] {
            let builder = StreamBuilder::new().with_page_capacity(4).with_queue_capacity(4);
            let (sink, seen) = TestSink::new(schema());
            builder
                .source(TestSource::new(20))
                .unwrap()
                .apply(UnawarePass)
                .unwrap()
                .sink(sink)
                .unwrap();
            let plan = builder.build().unwrap();
            assert_eq!(plan.node_count(), 3);
            assert_eq!(plan.edge_count(), 2);
            let report = if pooled {
                PooledExecutor::run(plan).unwrap()
            } else {
                SyncExecutor::run(plan).unwrap()
            };
            assert_eq!(seen.lock().len(), 20, "pooled={pooled}");
            assert_eq!(report.operator("unaware-pass").unwrap().tuples_in, 20);
        }
    }

    #[test]
    fn worker_pool_and_pins_flow_through_to_the_pooled_executor() {
        let builder = StreamBuilder::new().with_page_capacity(4).with_worker_pool(2);
        let (sink, seen) = TestSink::new(schema());
        builder
            .source(TestSource::new(20))
            .unwrap()
            .pin_to_worker(1)
            .apply(UnawarePass)
            .unwrap()
            .pin_to_worker(1)
            .sink(sink)
            .unwrap();
        let plan = builder.build().unwrap();
        assert_eq!(plan.worker_pool(), Some(2));
        assert_eq!(plan.worker_pin(crate::NodeId(0)), Some(1));
        assert_eq!(plan.worker_pin(crate::NodeId(1)), Some(1));
        let report = crate::PooledExecutor::run(plan).unwrap();
        assert_eq!(seen.lock().len(), 20);
        assert_eq!(report.scheduler.unwrap().workers, 2);
    }

    #[test]
    fn schema_mismatch_is_rejected_when_the_edge_is_drawn() {
        let builder = StreamBuilder::new();
        let (sink, _) = TestSink::new(other_schema());
        let err = builder.source(TestSource::new(5)).unwrap().sink(sink).unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid plan: cannot connect `test-source` to input 0 of `test-sink`: schema \
             mismatch — `test-source` produces (ts: timestamp, v: int) but `test-sink` expects \
             (ts: timestamp, w: float)"
        );
    }

    #[test]
    fn arity_mismatches_are_rejected() {
        let builder = StreamBuilder::new();
        let err = builder.source(UnawarePass).unwrap_err().to_string();
        assert_eq!(err, "invalid plan: `unaware-pass` cannot be a source: it declares 1 input(s)");

        let err = Stream::merge(Vec::new(), UnawarePass).unwrap_err().to_string();
        assert!(err.contains("empty stream list"), "{err}");

        let a = builder.source(TestSource::new(1)).unwrap();
        let b = builder.source(TestSource::new(1)).unwrap();
        let err = Stream::merge(vec![a, b], UnawarePass).unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid plan: `unaware-pass` has 1 input(s) and cannot consume 2 stream(s)"
        );
    }

    #[test]
    fn cross_builder_streams_are_rejected() {
        let a = StreamBuilder::new().source(TestSource::new(1)).unwrap();
        let b = StreamBuilder::new().source(TestSource::new(1)).unwrap();
        let err = Stream::merge(vec![a, b], UnawarePass).unwrap_err().to_string();
        assert!(err.contains("different builders"), "{err}");
    }

    #[test]
    fn subscription_on_unaware_producer_is_rejected() {
        let builder = StreamBuilder::new();
        let spec = FeedbackSpec::assumed(Pattern::all_wildcards(schema()));
        let err = builder
            .source(TestSource::new(5))
            .unwrap()
            .apply(UnawarePass)
            .unwrap()
            .with_feedback(spec)
            .unwrap_err()
            .to_string();
        assert_eq!(
            err,
            "invalid plan: feedback subscription on `unaware-pass` rejected: the operator \
             declares no feedback port (roles: none), so the feedback would be silently ignored \
             at run time"
        );
    }

    #[test]
    fn subscription_with_wrong_schema_is_rejected() {
        let builder = StreamBuilder::new();
        let spec = FeedbackSpec::assumed(Pattern::all_wildcards(other_schema()));
        let err = builder
            .source(TestSource::new(5))
            .unwrap()
            .with_feedback(spec)
            .unwrap_err()
            .to_string();
        assert_eq!(
            err,
            "invalid plan: feedback subscription on `test-source` rejected: the pattern is over \
             schema (ts: timestamp, w: float) but the stream carries (ts: timestamp, v: int)"
        );
    }

    #[test]
    fn subscriptions_fire_after_the_declared_tuple_count_on_both_executors() {
        for pooled in [false, true] {
            let builder = StreamBuilder::new().with_page_capacity(4).with_queue_capacity(4);
            let source = TestSource::new(40);
            let suppressed = source.suppressed.clone();
            let pattern =
                Pattern::for_attributes(schema(), &[("v", PatternItem::Eq(Value::Int(3)))])
                    .unwrap();
            let (sink, _) = TestSink::new(schema());
            builder
                .source(source)
                .unwrap()
                .with_feedback(FeedbackSpec::assumed(pattern.clone()).after_tuples(10))
                .unwrap()
                .sink(sink)
                .unwrap();
            let plan = builder.build().unwrap();
            let report = if pooled {
                PooledExecutor::run(plan).unwrap()
            } else {
                SyncExecutor::run(plan).unwrap()
            };
            let received = suppressed.lock();
            assert_eq!(received.len(), 1, "pooled={pooled}");
            assert_eq!(received[0].intent(), FeedbackIntent::Assumed);
            assert_eq!(received[0].pattern(), &pattern);
            assert_eq!(received[0].issuer(), "test-sink", "default issuer is the subscriber");
            assert_eq!(report.operator("test-sink").unwrap().feedback_out, 1);
            assert_eq!(report.total_feedback_dropped(), 0);
        }
    }

    #[test]
    fn at_flush_subscriptions_fire_during_flush() {
        let builder = StreamBuilder::new().with_page_capacity(4);
        let source = TestSource::new(5);
        let suppressed = source.suppressed.clone();
        let (sink, _) = TestSink::new(schema());
        builder
            .source(source)
            .unwrap()
            .with_feedback(
                FeedbackSpec::desired(Pattern::all_wildcards(schema()))
                    .at_flush()
                    .from_issuer("operator-console"),
            )
            .unwrap()
            .sink(sink)
            .unwrap();
        let report = SyncExecutor::run(builder.build().unwrap()).unwrap();
        let received = suppressed.lock();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].intent(), FeedbackIntent::Desired);
        assert_eq!(received[0].issuer(), "operator-console", "explicit issuer override");
        assert_eq!(report.total_feedback_dropped(), 0);
    }

    #[test]
    fn open_streams_block_build() {
        let builder = StreamBuilder::new();
        let stream = builder.source(TestSource::new(1)).unwrap();
        let err = builder.build().unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid plan: cannot build: 1 stream handle(s) are still open — finish each stream \
             with a sink or drop it explicitly"
        );
        drop(stream);
    }

    #[test]
    fn dropped_stream_with_pending_subscription_blocks_build() {
        let builder = StreamBuilder::new();
        let stream = builder
            .source(TestSource::new(5))
            .unwrap()
            .with_feedback(FeedbackSpec::assumed(Pattern::all_wildcards(schema())))
            .unwrap();
        // Dropping a plain stream is legal; dropping one that carries a
        // declared feedback contract must not silently discard the contract.
        drop(stream);
        let err = builder.build().unwrap_err().to_string();
        assert!(
            err.starts_with(
                "invalid plan: cannot build: 1 declared feedback subscription(s) were never \
                 attached to a consumer"
            ),
            "{err}"
        );
        assert!(err.contains("on `test-source`"), "must name the producer: {err}");
        assert!(err.contains('¬'), "must describe the subscription: {err}");
    }

    #[test]
    fn build_validates_the_lowered_plan() {
        // A deliberately dropped stream leaves a dangling output — legal for
        // ordinary operators, so build succeeds and the plan validates.
        let builder = StreamBuilder::new();
        let stream = builder.source(TestSource::new(1)).unwrap();
        drop(stream);
        let plan = builder.build().unwrap();
        assert_eq!(plan.node_count(), 1);
        assert_eq!(plan.edge_count(), 0);
    }

    #[test]
    fn apply_rejects_multi_output_operators() {
        /// Two-output splitter with full schema declarations.
        struct TwoWay;
        impl Operator for TwoWay {
            fn name(&self) -> &str {
                "two-way"
            }
            fn inputs(&self) -> usize {
                1
            }
            fn outputs(&self) -> usize {
                2
            }
            fn schema_out(&self, _: usize) -> Option<SchemaRef> {
                Some(schema())
            }
            fn on_tuple(
                &mut self,
                _: usize,
                t: Tuple,
                ctx: &mut OperatorContext,
            ) -> EngineResult<()> {
                ctx.emit(0, t);
                Ok(())
            }
        }
        let builder = StreamBuilder::new();
        let err =
            builder.source(TestSource::new(1)).unwrap().apply(TwoWay).unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid plan: `two-way` has 2 output ports but apply connects only port 0 — use \
             apply_multi to receive every output stream"
        );
    }

    #[test]
    fn apply_multi_requires_declared_output_schemas() {
        /// Two-output splitter that declares only output 0's schema.
        struct HalfDeclared;
        impl Operator for HalfDeclared {
            fn name(&self) -> &str {
                "half-declared"
            }
            fn inputs(&self) -> usize {
                1
            }
            fn outputs(&self) -> usize {
                2
            }
            fn schema_out(&self, output: usize) -> Option<SchemaRef> {
                (output == 0).then(schema)
            }
            fn on_tuple(
                &mut self,
                _: usize,
                t: Tuple,
                ctx: &mut OperatorContext,
            ) -> EngineResult<()> {
                ctx.emit(0, t);
                Ok(())
            }
        }
        let builder = StreamBuilder::new();
        let err = builder
            .source(TestSource::new(1))
            .unwrap()
            .apply_multi(HalfDeclared)
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not declare a schema for output 1"), "{err}");
    }

    #[test]
    fn subscriber_wrapper_counts_per_item_dispatch_too() {
        // Drive the wrapper through on_tuple directly (the executors use
        // on_page; unit-level callers may not).
        let (sink, _) = TestSink::new(schema());
        let spec = FeedbackSpec::assumed(Pattern::all_wildcards(schema())).after_tuples(2);
        let mut wrapper = FeedbackSubscriber {
            inner: Box::new(sink),
            seen: vec![0],
            subscriptions: vec![Subscription { port: 0, spec, fired: false }],
        };
        let mut ctx = OperatorContext::new();
        wrapper.on_tuple(0, tuple(0), &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "not due yet");
        wrapper.on_tuple(0, tuple(1), &mut ctx).unwrap();
        let fired = ctx.take_feedback();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 0, "fires on the subscribed input port");
        wrapper.on_tuple(0, tuple(2), &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "fires exactly once");

        // Page dispatch counts tuples (not punctuation) and preserves the
        // inner operator's identity.
        assert_eq!(wrapper.name(), "test-sink");
        assert!(wrapper.feedback_roles().produces());
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(3)),
            StreamItem::Punctuation(
                Punctuation::progress(schema(), "ts", Timestamp::EPOCH).unwrap(),
            ),
        ]);
        wrapper.on_page(0, page, &mut ctx).unwrap();
        assert_eq!(wrapper.seen[0], 4, "3 tuples via on_tuple + 1 via on_page");
    }
}
