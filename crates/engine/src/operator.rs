//! The operator abstraction.
//!
//! Operators are written against a small push-based callback interface: the
//! executor delivers tuples, embedded punctuation, feedback punctuation and
//! end-of-stream notifications; the operator responds by emitting items and
//! feedback into an [`OperatorContext`], which the executor then routes.
//! Keeping the context as a plain buffer (rather than handing operators raw
//! queue endpoints) lets the same operator code run unchanged under the
//! worker-pool executor and the deterministic single-threaded executor.
//!
//! # Wrapping an operator
//!
//! An operator that adds behaviour to another one — a feedback role, a
//! simulated cost, an injected fault — implements [`Wrapper`] instead of
//! [`Operator`]: it names the wrapped operator via [`Wrapper::inner`] /
//! [`Wrapper::inner_mut`] and overrides only the hooks it changes.  The
//! blanket `impl<W: Wrapper> Operator for W` forwards everything else, so a
//! method added to [`Operator`] reaches every wrapped operator without
//! touching the wrappers.  The one exception is deliberate:
//! [`Operator::fingerprint`] and [`Operator::shared_source`] are never
//! forwarded, because a wrapped operator is not interchangeable with the
//! bare one — prefix deduplication must not merge them, and a wrapped
//! placeholder is not a placeholder any more.
//!
//! A wrapper implements both traits, so with both in scope a method call on
//! a concrete wrapper is ambiguous: name the trait in the `impl` by path
//! (`impl dsms_engine::Wrapper for …`) and import only [`Operator`].

use crate::error::EngineResult;
use crate::page::Page;
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};

/// One element of a data stream: a tuple or an embedded punctuation.
#[derive(Debug, Clone)]
pub enum StreamItem {
    /// A data tuple.
    Tuple(Tuple),
    /// An embedded punctuation.
    Punctuation(Punctuation),
}

impl StreamItem {
    /// The tuple, if this item is one.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            StreamItem::Tuple(t) => Some(t),
            StreamItem::Punctuation(_) => None,
        }
    }

    /// The punctuation, if this item is one.
    pub fn as_punctuation(&self) -> Option<&Punctuation> {
        match self {
            StreamItem::Punctuation(p) => Some(p),
            StreamItem::Tuple(_) => None,
        }
    }
}

/// One unit an operator can emit on an output port: a single stream item, or
/// a whole page passed through intact.
///
/// Routing a page as a page (rather than re-pushing its items one by one
/// through the output's [`crate::page::PageBuilder`]) preserves batching
/// across fan-out hops: a `Duplicate` or `Merge` that classified an entire
/// input page as pass-through forwards it without per-item work, so the
/// downstream operator still sees full pages and batch-level guard
/// evaluation keeps working.
#[derive(Debug, Clone)]
pub enum Emission {
    /// A single tuple or embedded punctuation.
    Item(StreamItem),
    /// A whole page, forwarded intact.
    Page(Page),
}

/// Whether a source operator has more data to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// The operator is not a source (it has inputs).
    NotASource,
    /// The source produced work this step and has more.
    Producing,
    /// The source has emitted everything.
    Exhausted,
}

/// One unit of keyed operator state extracted at a migration boundary.
///
/// `key` is the operator's partitioning key for this unit (the values the
/// stage's shuffle hashes on), so the elastic-stage machinery can re-route
/// the unit to its new owner after a resize without understanding the
/// payload.  `payload` is opaque to everyone but the operator type that
/// exported it; [`Operator::import_state`] downcasts it back.
pub struct StateEntry {
    /// The partitioning-key values this state unit belongs to, in the
    /// stage's shuffle-key order.
    pub key: Vec<dsms_types::Value>,
    /// Operator-private state, reinstalled via [`Operator::import_state`].
    pub payload: Box<dyn std::any::Any + Send>,
}

impl std::fmt::Debug for StateEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateEntry").field("key", &self.key).finish_non_exhaustive()
    }
}

/// Buffer the executor hands to every operator callback; the operator records
/// its outputs here and the executor routes them afterwards.
#[derive(Debug, Default)]
pub struct OperatorContext {
    emitted: Vec<(usize, Emission)>,
    feedback: Vec<(usize, FeedbackPunctuation)>,
    request_results: Vec<usize>,
    queue_depth: u64,
    input_held: bool,
}

impl OperatorContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        OperatorContext::default()
    }

    /// Pages currently waiting on this operator's input queues, as observed
    /// by the executor just before the current callback batch.  Adaptive
    /// operators (an elastic shuffle reporting its backlog) read this;
    /// everyone else can ignore it.  Zero in unit tests and for sources.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth
    }

    /// Records the observed input-queue depth for the next callbacks (called
    /// by the executors' lifecycle sweep).
    pub fn set_queue_depth(&mut self, depth: u64) {
        self.queue_depth = depth;
    }

    /// Pauses (`true`) or resumes (`false`) delivery of input pages to this
    /// operator.  While paused the executor keeps delivering control —
    /// feedback, result requests, shutdown — so the operator can resume from
    /// a control callback; input stays queued upstream under the normal
    /// back-pressure bound.  An elastic shuffle pauses between a resize cut
    /// and its commit instead of buffering the rest of its input.
    pub fn hold_input(&mut self, held: bool) {
        self.input_held = held;
    }

    /// Whether input delivery is paused (see [`OperatorContext::hold_input`]).
    pub fn input_held(&self) -> bool {
        self.input_held
    }

    /// Emits a tuple on the given output port.
    pub fn emit(&mut self, output: usize, tuple: Tuple) {
        self.emitted.push((output, Emission::Item(StreamItem::Tuple(tuple))));
    }

    /// Emits an embedded punctuation on the given output port.
    pub fn emit_punctuation(&mut self, output: usize, punctuation: Punctuation) {
        self.emitted.push((output, Emission::Item(StreamItem::Punctuation(punctuation))));
    }

    /// Emits a whole page on the given output port, to be forwarded intact.
    ///
    /// Pass-through operators (duplicate, union) use this from
    /// [`Operator::on_page`] when an entire input page survives their guard
    /// check unchanged: the executor routes the page without re-batching it,
    /// so batching is preserved across the hop.  Emission order relative to
    /// [`OperatorContext::emit`] / [`OperatorContext::emit_punctuation`] is
    /// preserved.
    pub fn emit_page(&mut self, output: usize, page: Page) {
        self.emitted.push((output, Emission::Page(page)));
    }

    /// Sends feedback punctuation upstream on the given *input* port (against
    /// the data flow, via the control channel).
    pub fn send_feedback(&mut self, input: usize, feedback: FeedbackPunctuation) {
        self.feedback.push((input, feedback));
    }

    /// Sends an on-demand result request upstream on the given input port.
    pub fn request_results(&mut self, input: usize) {
        self.request_results.push(input);
    }

    /// Number of stream items emitted so far (all ports).  A page emitted via
    /// [`OperatorContext::emit_page`] counts as the number of items it holds.
    pub fn emitted_len(&self) -> usize {
        self.emitted
            .iter()
            .map(|(_, e)| match e {
                Emission::Item(_) => 1,
                Emission::Page(p) => p.tuple_count() + p.punctuation_count(),
            })
            .sum()
    }

    /// Drains the emitted items (used by the executor and by tests), exploding
    /// pages emitted via [`OperatorContext::emit_page`] into their items.
    pub fn take_emitted(&mut self) -> Vec<(usize, StreamItem)> {
        let mut out = Vec::with_capacity(self.emitted.len());
        for (port, emission) in self.emitted.drain(..) {
            match emission {
                Emission::Item(item) => out.push((port, item)),
                Emission::Page(page) => out.extend(page.into_iter().map(|item| (port, item))),
            }
        }
        out
    }

    /// Drains the raw emissions in place — items *and* intact pages — keeping
    /// the buffer's capacity for the next operator callback.  The executors
    /// route through this after *every* callback, so reallocating the buffer
    /// each time (as [`take_emitted`](Self::take_emitted) does) would put an
    /// alloc/free pair per callback on the hot path.
    pub fn drain_emissions(&mut self, mut f: impl FnMut(usize, Emission)) {
        for (port, emission) in self.emitted.drain(..) {
            f(port, emission);
        }
    }

    /// Drains the outgoing feedback (used by the executor).
    pub fn take_feedback(&mut self) -> Vec<(usize, FeedbackPunctuation)> {
        std::mem::take(&mut self.feedback)
    }

    /// Drains the outgoing result requests (used by the executor).
    pub fn take_result_requests(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.request_results)
    }

    /// Discards every buffered output — emissions, feedback and result
    /// requests — keeping the buffers' capacity.  The recovery path
    /// uses this after a failed callback so half-produced output from the
    /// failed dispatch never reaches downstream; the replayed suffix
    /// regenerates it.
    pub fn clear(&mut self) {
        self.emitted.clear();
        self.feedback.clear();
        self.request_results.clear();
    }
}

/// A stream operator.
///
/// All callbacks receive the input (or output) port index so that multi-input
/// operators (joins, unions) and multi-output operators (duplicate, split) can
/// tell their connections apart.  Implementations must be `Send` so the
/// pooled executor can step them on any of its worker threads.
pub trait Operator: Send {
    /// The operator's display name (used in metrics and errors).
    fn name(&self) -> &str;

    /// Number of input ports.
    fn inputs(&self) -> usize;

    /// Number of output ports.
    fn outputs(&self) -> usize {
        1
    }

    /// True when the plan is only valid if **every** output port of this
    /// operator is connected.  Unconnected outputs are normally allowed
    /// (their emissions are discarded), but an operator that *routes* its
    /// input across its outputs — a hash partitioner fanning out to N
    /// replicas — would silently lose a fixed slice of the stream if a port
    /// were left dangling, so [`crate::QueryPlan::validate`] rejects such
    /// plans with a descriptive error instead.
    fn must_connect_all_outputs(&self) -> bool {
        false
    }

    /// The feedback roles this operator declares (paper Section 1: producer,
    /// exploiter, relayer).  The default — [`FeedbackRoles::NONE`] — is the
    /// feedback-unaware operator: it has no feedback port, so feedback sent to
    /// it is silently ignored.  Plan builders use the declaration to reject
    /// feedback subscriptions on unaware operators at composition time, and
    /// [`crate::QueryPlan::dot`] uses it to draw the feedback (control)
    /// edges.  Operators whose feedback behaviour is configurable (e.g. an
    /// aggregate's F0–F3 mode) should declare the roles of their *current*
    /// configuration.
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::NONE
    }

    /// The schema this operator expects on input port `input`, if it declares
    /// one.  `None` means "any schema" (the operator is schema-agnostic or
    /// cannot know, e.g. a generic wrapper).  Plan builders compare declared
    /// schemas across each edge and reject mismatched connections at
    /// composition time instead of failing mid-run.
    fn schema_in(&self, input: usize) -> Option<SchemaRef> {
        let _ = input;
        None
    }

    /// The schema this operator produces on output port `output`, if it
    /// declares one.  Plan builders use it to thread schema metadata through
    /// fluent composition without the caller restating it at every step.
    fn schema_out(&self, output: usize) -> Option<SchemaRef> {
        let _ = output;
        None
    }

    /// Called for every tuple arriving on `input`.
    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()>;

    /// Called with a whole page of stream items arriving on `input`.  Both
    /// executors move data between operators page-at-a-time and dispatch
    /// through this hook; the default, [`replay_page`], replays the page in
    /// arrival order through [`Operator::on_tuple`] /
    /// [`Operator::on_punctuation`], which is correct for every operator.
    /// Operators with columnar kernels (select, project, shuffle, aggregate,
    /// duplicate, merge) override it to classify the whole batch against
    /// feedback guards via [`Page::column_summary`] and then walk the page
    /// once — see `docs/DATA_LAYOUT.md` for the kernel protocol.
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        replay_page(self, input, page, ctx)
    }

    /// Called for every embedded punctuation arriving on `input`.  The default
    /// forwards the punctuation unchanged on output port 0, which is correct
    /// for stateless operators whose output schema equals their input schema.
    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let _ = input;
        ctx.emit_punctuation(0, punctuation);
        Ok(())
    }

    /// Called when feedback punctuation arrives from the consumer attached to
    /// `output`.  Feedback-unaware operators keep the default (ignore), which
    /// also means they cannot relay it — exactly the behaviour the paper
    /// describes for unaware operators.
    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let _ = (output, feedback, ctx);
        Ok(())
    }

    /// Called when an on-demand result request arrives from the consumer
    /// attached to `output` (paper Example 4).  Default: ignore.
    fn on_request_results(&mut self, output: usize, ctx: &mut OperatorContext) -> EngineResult<()> {
        let _ = (output, ctx);
        Ok(())
    }

    /// Called once all inputs have reached end-of-stream, before the
    /// end-of-stream is forwarded downstream.  Stateful operators emit any
    /// remaining results here.
    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Source stepping: called repeatedly by the executor for operators with
    /// zero inputs.  Produce a bounded amount of work per call and return
    /// [`SourceState::Producing`] until done.
    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        let _ = ctx;
        Ok(SourceState::NotASource)
    }

    /// Feedback statistics to fold into the operator's metrics at the end of
    /// the run, if the operator keeps any.
    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        None
    }

    /// Extracts this operator's keyed state at a migration boundary,
    /// draining it: after this call the operator holds no keyed state and
    /// behaves like a fresh instance.  Each returned [`StateEntry`] carries
    /// the partitioning-key values of one state unit so the elastic-stage
    /// machinery can re-route it; the payload is reinstalled (possibly on a
    /// different replica) via [`Operator::import_state`].  The default — for
    /// stateless operators — exports nothing.
    fn export_state(&mut self) -> Vec<StateEntry> {
        Vec::new()
    }

    /// Reinstalls state units previously drained by
    /// [`Operator::export_state`] from a same-typed replica.  Entries whose
    /// payload the operator does not recognize are an error (the migration
    /// must not silently drop state).  The default accepts only an empty set.
    fn import_state(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        if entries.is_empty() {
            Ok(())
        } else {
            Err(crate::error::EngineError::OperatorFailed {
                operator: self.name().to_string(),
                detail: format!(
                    "operator cannot import {} migrated state entries (no import_state impl)",
                    entries.len()
                ),
            })
        }
    }

    /// Elastic-stage statistics to fold into the operator's metrics at the
    /// end of the run, if this operator coordinates an elastic stage.
    fn elastic_stats(&self) -> Option<crate::metrics::ElasticStats> {
        None
    }

    /// Whether this operator supports supervised restart: its
    /// [`Operator::checkpoint`] / [`Operator::restore`] pair round-trips its
    /// entire observable state, and it holds no obligations the recovery
    /// replay cannot regenerate.  [`crate::QueryPlan::validate`] rejects a
    /// [`crate::RecoveryPolicy::Restart`] policy on a non-restartable
    /// operator.  The default is `false`; stateless operators and those with
    /// a full checkpoint implementation opt in.
    fn restartable(&self) -> bool {
        false
    }

    /// Snapshots this operator's state for supervised recovery, *without*
    /// draining it (unlike [`Operator::export_state`], which is a migration
    /// hand-off).  Called at punctuation-epoch boundaries; the snapshot must
    /// capture everything [`Operator::restore`] needs to make a failed
    /// instance behave as if it had just consumed the checkpointed prefix.
    /// Recovery snapshots need no per-key routing, so a single entry holding
    /// the whole state (with an empty key) is fine.  The default — for
    /// stateless operators — snapshots nothing.
    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        Ok(Vec::new())
    }

    /// Resets this operator to its initial state and reinstalls a
    /// [`Operator::checkpoint`] snapshot.  Called with an empty set when the
    /// failure predates the first checkpoint (full reset).  The default
    /// accepts only the empty set.
    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        if entries.is_empty() {
            Ok(())
        } else {
            Err(crate::error::EngineError::OperatorFailed {
                operator: self.name().to_string(),
                detail: format!(
                    "operator cannot restore {} checkpointed state entries (no restore impl)",
                    entries.len()
                ),
            })
        }
    }

    /// Whether this operator absorbs a sourceward
    /// [`crate::ControlMessage::Shutdown`] arriving on the given output
    /// port's control channel instead of shutting down itself.
    ///
    /// A shared fan-out absorbs per-port shutdowns — a failed (quarantined)
    /// query branch tears itself down toward the fan-out, which detaches
    /// that port (relaying any feedback the detach releases via `ctx`) and
    /// keeps serving its siblings.  The default `false` keeps the
    /// pre-recovery behaviour: any Shutdown stops the whole operator.
    fn absorb_shutdown(&mut self, output: usize, ctx: &mut OperatorContext) -> bool {
        let _ = (output, ctx);
        false
    }

    /// A structural fingerprint for plan-prefix deduplication, if this
    /// operator supports it.
    ///
    /// Two operator instances with equal fingerprints must be observably
    /// interchangeable: same configuration, same output and same feedback
    /// behaviour for the same input.  A multi-query manager uses the
    /// fingerprints to recognize common prefixes across independently built
    /// plans — `source → select → aggregate`, say — and execute each
    /// distinct prefix operator once behind a shared fan-out, stateful
    /// operators included.  The default — `None` — marks the operator as
    /// not dedupe-able, which is always safe: a prefix chain simply ends at
    /// the first unfingerprinted operator.  Operators whose behaviour is
    /// fully determined by their constructor arguments (select, project,
    /// window aggregate) should hash those arguments with
    /// [`dsms_types::FixedHasher`] so fingerprints are stable across
    /// processes, and should leave out what does not change behaviour, such
    /// as a per-query name.
    fn fingerprint(&self) -> Option<u64> {
        None
    }

    /// The name of the shared managed source this operator stands in for, if
    /// it is a placeholder rather than a real source.
    ///
    /// A multi-query manager lets plans reference long-lived named sources it
    /// owns; at splice time the placeholder node is replaced by the actual
    /// source operator (executed once for all sharers).  Real operators keep
    /// the default `None`.
    fn shared_source(&self) -> Option<&str> {
        None
    }
}

/// Feeds `page` to `op` item by item, in arrival order, through its own
/// [`Operator::on_tuple`] and [`Operator::on_punctuation`]: the default
/// [`Operator::on_page`], and the `on_page` of a [`Wrapper`] whose per-item
/// hooks must see every item instead of the wrapped operator's batch path.
pub fn replay_page<O: Operator + ?Sized>(
    op: &mut O,
    input: usize,
    page: Page,
    ctx: &mut OperatorContext,
) -> EngineResult<()> {
    for item in page {
        match item {
            StreamItem::Tuple(tuple) => op.on_tuple(input, tuple, ctx)?,
            StreamItem::Punctuation(punctuation) => op.on_punctuation(input, punctuation, ctx)?,
        }
    }
    Ok(())
}

/// An operator defined as a delta over another one: every hook forwards to
/// the wrapped operator unless overridden (see the module docs, "Wrapping an
/// operator").
pub trait Wrapper: Send {
    /// The wrapped operator's type (`dyn Operator` for a boxed one).
    type Inner: Operator + ?Sized;

    /// The wrapped operator.
    fn inner(&self) -> &Self::Inner;

    /// The wrapped operator, mutably.
    fn inner_mut(&mut self) -> &mut Self::Inner;

    /// See [`Operator::name`].
    fn name(&self) -> &str {
        self.inner().name()
    }

    /// See [`Operator::feedback_roles`].
    fn feedback_roles(&self) -> FeedbackRoles {
        self.inner().feedback_roles()
    }

    /// See [`Operator::restartable`].
    fn restartable(&self) -> bool {
        self.inner().restartable()
    }

    /// See [`Operator::on_tuple`].
    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.inner_mut().on_tuple(input, tuple, ctx)
    }

    /// See [`Operator::on_page`].
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.inner_mut().on_page(input, page, ctx)
    }

    /// See [`Operator::on_punctuation`].
    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.inner_mut().on_punctuation(input, punctuation, ctx)
    }

    /// See [`Operator::on_feedback`].
    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.inner_mut().on_feedback(output, feedback, ctx)
    }

    /// See [`Operator::on_flush`].
    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.inner_mut().on_flush(ctx)
    }

    /// See [`Operator::feedback_stats`].
    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        self.inner().feedback_stats()
    }

    /// See [`Operator::checkpoint`].
    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        self.inner().checkpoint()
    }

    /// See [`Operator::restore`].
    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.inner_mut().restore(entries)
    }
}

impl<W: Wrapper> Operator for W {
    fn name(&self) -> &str {
        Wrapper::name(self)
    }

    fn inputs(&self) -> usize {
        self.inner().inputs()
    }

    fn outputs(&self) -> usize {
        self.inner().outputs()
    }

    fn must_connect_all_outputs(&self) -> bool {
        self.inner().must_connect_all_outputs()
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        Wrapper::feedback_roles(self)
    }

    fn schema_in(&self, input: usize) -> Option<SchemaRef> {
        self.inner().schema_in(input)
    }

    fn schema_out(&self, output: usize) -> Option<SchemaRef> {
        self.inner().schema_out(output)
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        Wrapper::on_tuple(self, input, tuple, ctx)
    }

    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        Wrapper::on_page(self, input, page, ctx)
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        Wrapper::on_punctuation(self, input, punctuation, ctx)
    }

    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        Wrapper::on_feedback(self, output, feedback, ctx)
    }

    fn on_request_results(&mut self, output: usize, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.inner_mut().on_request_results(output, ctx)
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        Wrapper::on_flush(self, ctx)
    }

    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        self.inner_mut().poll_source(ctx)
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Wrapper::feedback_stats(self)
    }

    fn export_state(&mut self) -> Vec<StateEntry> {
        self.inner_mut().export_state()
    }

    fn import_state(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.inner_mut().import_state(entries)
    }

    fn elastic_stats(&self) -> Option<crate::metrics::ElasticStats> {
        self.inner().elastic_stats()
    }

    fn restartable(&self) -> bool {
        Wrapper::restartable(self)
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        Wrapper::checkpoint(self)
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        Wrapper::restore(self, entries)
    }

    fn absorb_shutdown(&mut self, output: usize, ctx: &mut OperatorContext) -> bool {
        self.inner_mut().absorb_shutdown(output, ctx)
    }

    // `fingerprint` and `shared_source` keep their `None` defaults: a
    // wrapped operator is never interchangeable with the bare one.
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_punctuation::Pattern;
    use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
    }

    fn tuple(v: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::EPOCH), Value::Int(v)])
    }

    /// Minimal pass-through operator used to exercise the trait defaults.
    struct PassThrough;

    impl Operator for PassThrough {
        fn name(&self) -> &str {
            "pass"
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
            ctx.emit(0, tuple);
            Ok(())
        }
    }

    #[test]
    fn context_buffers_and_drains() {
        let mut ctx = OperatorContext::new();
        ctx.emit(0, tuple(1));
        ctx.emit_punctuation(
            0,
            Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
        );
        ctx.send_feedback(0, FeedbackPunctuation::assumed(Pattern::all_wildcards(schema()), "t"));
        ctx.request_results(0);
        assert_eq!(ctx.emitted_len(), 2);
        assert_eq!(ctx.take_emitted().len(), 2);
        assert_eq!(ctx.take_feedback().len(), 1);
        assert_eq!(ctx.take_result_requests(), vec![0]);
        assert_eq!(ctx.emitted_len(), 0, "drained");
    }

    #[test]
    fn context_clear_discards_every_buffer() {
        let mut ctx = OperatorContext::new();
        ctx.emit(0, tuple(1));
        ctx.send_feedback(1, FeedbackPunctuation::assumed(Pattern::all_wildcards(schema()), "t"));
        ctx.request_results(0);
        ctx.clear();
        assert_eq!(ctx.emitted_len(), 0);
        assert!(ctx.take_feedback().is_empty());
        assert!(ctx.take_result_requests().is_empty());
    }

    #[test]
    fn trait_defaults_are_sensible() {
        let mut op = PassThrough;
        let mut ctx = OperatorContext::new();
        assert_eq!(op.outputs(), 1);
        assert!(!op.must_connect_all_outputs());
        assert_eq!(op.feedback_roles(), FeedbackRoles::NONE, "unaware by default");
        assert!(op.schema_in(0).is_none(), "schema-agnostic by default");
        assert!(op.schema_out(0).is_none(), "schema-agnostic by default");
        op.on_tuple(0, tuple(7), &mut ctx).unwrap();
        op.on_punctuation(
            0,
            Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
            &mut ctx,
        )
        .unwrap();
        // default feedback handler ignores
        op.on_feedback(
            0,
            FeedbackPunctuation::assumed(Pattern::all_wildcards(schema()), "x"),
            &mut ctx,
        )
        .unwrap();
        op.on_request_results(0, &mut ctx).unwrap();
        op.on_flush(&mut ctx).unwrap();
        assert_eq!(op.poll_source(&mut ctx).unwrap(), SourceState::NotASource);
        assert!(op.feedback_stats().is_none());
        assert_eq!(ctx.take_emitted().len(), 2);
    }

    #[test]
    fn default_on_page_dispatches_per_item() {
        let mut op = PassThrough;
        let mut ctx = OperatorContext::new();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1)),
            StreamItem::Punctuation(
                Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
            ),
            StreamItem::Tuple(tuple(2)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 3, "two tuples + forwarded punctuation");
    }

    #[test]
    fn emitted_pages_count_and_explode_like_items() {
        let mut ctx = OperatorContext::new();
        ctx.emit(0, tuple(1));
        ctx.emit_page(
            1,
            Page::from_items(vec![
                StreamItem::Tuple(tuple(2)),
                StreamItem::Punctuation(
                    Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
                ),
            ]),
        );
        assert_eq!(ctx.emitted_len(), 3, "page contributes its item count");
        let mut pages = 0;
        let mut items = 0;
        ctx.drain_emissions(|port, emission| match emission {
            Emission::Item(_) => {
                assert_eq!(port, 0);
                items += 1;
            }
            Emission::Page(p) => {
                assert_eq!(port, 1);
                assert_eq!(p.tuple_count(), 1);
                pages += 1;
            }
        });
        assert_eq!((items, pages), (1, 1));

        ctx.emit_page(2, Page::from_items(vec![StreamItem::Tuple(tuple(3))]));
        let exploded = ctx.take_emitted();
        assert_eq!(exploded.len(), 1);
        assert_eq!(exploded[0].0, 2, "explosion preserves the port");
        assert_eq!(ctx.emitted_len(), 0, "drained");
    }

    /// Answers each query distinctively and records each callback by name;
    /// its fingerprint and shared source must not leak through a wrapper.
    #[derive(Default)]
    struct Recording {
        calls: Vec<&'static str>,
    }

    impl Operator for Recording {
        fn name(&self) -> &str {
            "recording"
        }
        fn inputs(&self) -> usize {
            3
        }
        fn outputs(&self) -> usize {
            2
        }
        fn must_connect_all_outputs(&self) -> bool {
            true
        }
        fn feedback_roles(&self) -> FeedbackRoles {
            FeedbackRoles::exploiter()
        }
        fn schema_in(&self, _: usize) -> Option<SchemaRef> {
            Some(schema())
        }
        fn schema_out(&self, _: usize) -> Option<SchemaRef> {
            Some(schema())
        }
        fn on_tuple(&mut self, _: usize, _: Tuple, _: &mut OperatorContext) -> EngineResult<()> {
            self.calls.push("on_tuple");
            Ok(())
        }
        fn on_page(&mut self, _: usize, _: Page, _: &mut OperatorContext) -> EngineResult<()> {
            self.calls.push("on_page");
            Ok(())
        }
        fn on_punctuation(
            &mut self,
            _: usize,
            _: Punctuation,
            _: &mut OperatorContext,
        ) -> EngineResult<()> {
            self.calls.push("on_punctuation");
            Ok(())
        }
        fn on_feedback(
            &mut self,
            _: usize,
            _: FeedbackPunctuation,
            _: &mut OperatorContext,
        ) -> EngineResult<()> {
            self.calls.push("on_feedback");
            Ok(())
        }
        fn on_request_results(&mut self, _: usize, _: &mut OperatorContext) -> EngineResult<()> {
            self.calls.push("on_request_results");
            Ok(())
        }
        fn on_flush(&mut self, _: &mut OperatorContext) -> EngineResult<()> {
            self.calls.push("on_flush");
            Ok(())
        }
        fn poll_source(&mut self, _: &mut OperatorContext) -> EngineResult<SourceState> {
            self.calls.push("poll_source");
            Ok(SourceState::Producing)
        }
        fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
            Some(Default::default())
        }
        fn export_state(&mut self) -> Vec<StateEntry> {
            self.calls.push("export_state");
            vec![StateEntry { key: Vec::new(), payload: Box::new(()) }]
        }
        fn import_state(&mut self, _: Vec<StateEntry>) -> EngineResult<()> {
            self.calls.push("import_state");
            Ok(())
        }
        fn elastic_stats(&self) -> Option<crate::metrics::ElasticStats> {
            Some(Default::default())
        }
        fn restartable(&self) -> bool {
            true
        }
        fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
            Ok(vec![StateEntry { key: Vec::new(), payload: Box::new(()) }])
        }
        fn restore(&mut self, _: Vec<StateEntry>) -> EngineResult<()> {
            self.calls.push("restore");
            Ok(())
        }
        fn absorb_shutdown(&mut self, _: usize, _: &mut OperatorContext) -> bool {
            self.calls.push("absorb_shutdown");
            true
        }
        fn fingerprint(&self) -> Option<u64> {
            Some(7)
        }
        fn shared_source(&self) -> Option<&str> {
            Some("feed")
        }
    }

    /// The smallest wrapper: overrides nothing.
    struct Transparent(Recording);

    impl Wrapper for Transparent {
        type Inner = Recording;
        fn inner(&self) -> &Recording {
            &self.0
        }
        fn inner_mut(&mut self) -> &mut Recording {
            &mut self.0
        }
    }

    #[test]
    fn wrapper_forwards_everything_but_fingerprint_and_shared_source() {
        let mut wrapper = Transparent(Recording::default());
        let mut ctx = OperatorContext::new();
        let progress = Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap();
        let feedback = FeedbackPunctuation::assumed(Pattern::all_wildcards(schema()), "x");
        let op: &mut dyn Operator = &mut wrapper;
        assert_eq!(op.name(), "recording");
        assert_eq!((op.inputs(), op.outputs()), (3, 2));
        assert!(op.must_connect_all_outputs());
        assert_eq!(op.feedback_roles(), FeedbackRoles::exploiter());
        assert_eq!((op.schema_in(0), op.schema_out(0)), (Some(schema()), Some(schema())));
        assert!(op.feedback_stats().is_some() && op.elastic_stats().is_some());
        assert!(op.restartable());
        assert_eq!(op.checkpoint().unwrap().len(), 1);
        op.on_tuple(0, tuple(1), &mut ctx).unwrap();
        op.on_page(0, Page::from_items(vec![StreamItem::Tuple(tuple(2))]), &mut ctx).unwrap();
        op.on_punctuation(0, progress, &mut ctx).unwrap();
        op.on_feedback(0, feedback, &mut ctx).unwrap();
        op.on_request_results(0, &mut ctx).unwrap();
        op.on_flush(&mut ctx).unwrap();
        assert_eq!(op.poll_source(&mut ctx).unwrap(), SourceState::Producing);
        assert_eq!(op.export_state().len(), 1);
        op.import_state(Vec::new()).unwrap();
        op.restore(Vec::new()).unwrap();
        assert!(op.absorb_shutdown(0, &mut ctx));
        assert_eq!(op.fingerprint(), None, "a wrapped operator is not the bare one");
        assert_eq!(op.shared_source(), None, "a wrapped placeholder is not a placeholder");
        let forwarded = "on_tuple on_page on_punctuation on_feedback on_request_results on_flush \
                         poll_source export_state import_state restore absorb_shutdown";
        assert_eq!(wrapper.0.calls.join(" "), forwarded);
        assert_eq!((wrapper.0.fingerprint(), wrapper.0.shared_source()), (Some(7), Some("feed")));
    }

    #[test]
    fn stream_item_accessors() {
        let item = StreamItem::Tuple(tuple(1));
        assert!(item.as_tuple().is_some());
        assert!(item.as_punctuation().is_none());
        let p = StreamItem::Punctuation(
            Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap(),
        );
        assert!(p.as_punctuation().is_some());
        assert!(p.as_tuple().is_none());
    }
}
