//! Plan execution.
//!
//! Two executors run the same [`QueryPlan`]s and the same operator code,
//! both driving every operator through the one lifecycle state machine in
//! the private `lifecycle` module:
//!
//! * [`crate::pooled::PooledExecutor`] — the whole plan on a fixed pool of
//!   worker threads with per-worker run queues and work stealing.  Operators
//!   become scheduler *tasks* rather than threads: readiness is driven by
//!   queue notifications (data available, credit regained, control pending),
//!   and a worker runs an operator until it exhausts its step budget or goes
//!   idle, so plans much wider than the machine (64 operators on 4 cores)
//!   run without 64 stacks and the attendant context-switch storm.  Sized to
//!   one worker per node it also gives NiagaraST's thread-per-operator
//!   overlap: a blocking operator holds only its own worker.
//! * [`SyncExecutor`] — a deterministic single-threaded scheduler that
//!   round-robins operators in topological order.  It produces bit-identical
//!   results run-to-run and is what most unit and integration tests use.
//!
//! Both deliver feedback punctuation *against* the data flow: an operator
//! calls [`OperatorContext::send_feedback`] naming one of its *input* ports,
//! and the executor hands the message to the operator attached upstream of
//! that port, invoking its
//! [`Operator::on_feedback`](crate::Operator::on_feedback) callback with
//! high priority.  Data moves between operators page-at-a-time through the
//! [`Operator::on_page`](crate::Operator::on_page) batch hook, and routing
//! uses precomputed port-to-edge tables rather than scanning the edge list
//! per item.
//!
//! # The drain protocol
//!
//! Feedback is often produced exactly at end-of-stream — a sink's
//! [`Operator::on_flush`](crate::Operator::on_flush) summarising what it no
//! longer needs — which is the moment a naive runtime has already torn down
//! the upstream operators.
//! Every executor therefore ends every operator in three phases:
//!
//! 1. **flush** — `on_flush`, remaining partial pages, then data
//!    end-of-stream to every consumer;
//! 2. **drain** — the operator stays alive, waiting on its downstream
//!    control channels, processing feedback and result requests (and
//!    relaying feedback further upstream) until *every* consumer has sent
//!    its control end-of-stream handshake (or hung up);
//! 3. **release** — it sends the control end-of-stream handshake on each of
//!    its own input connections, releasing its upstream producers from their
//!    drain phases in turn.
//!
//! Teardown therefore propagates sink → source, and feedback sent at or
//! after end-of-stream still reaches a live upstream operator.  Anything
//! *genuinely* undeliverable (e.g. feedback named on an unconnected input
//! port, or a connection whose upstream operator died after a failure) is
//! counted in [`OperatorMetrics::feedback_dropped`] rather than dropped
//! silently.  When an operator fails, [`ControlMessage::Shutdown`] relays
//! upstream so producers stop generating data nobody will read and the
//! query tears down promptly.  The full protocol, shared verbatim by both
//! executors, lives in the `lifecycle` module and is documented in
//! `docs/SCHEDULER.md`.

use crate::control::ControlMessage;
use crate::error::{EngineError, EngineResult};
use crate::lifecycle::{LifecyclePorts, NodeMachine, StepOutcome};
use crate::metrics::{OperatorMetrics, RecoverySummary, SchedulerSummary};
use crate::operator::{OperatorContext, StreamItem};
use crate::page::{Page, PageBuilder};
use crate::plan::{NodeId, QueryPlan};
use crate::queue::{ControlPoll, DataPoll, QueueMessage};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The result of executing a plan: wall-clock time plus per-operator metrics.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Total wall-clock execution time.
    pub elapsed: Duration,
    /// Per-operator metrics, in plan node order.
    pub metrics: Vec<OperatorMetrics>,
    /// Pool-wide scheduler counters.  `Some` for pooled runs, `None` for the
    /// sync executor (which has no scheduler).
    pub scheduler: Option<SchedulerSummary>,
}

impl ExecutionReport {
    /// Metrics for the first operator with the given name, if any.
    pub fn operator(&self, name: &str) -> Option<&OperatorMetrics> {
        self.metrics.iter().find(|m| m.operator == name)
    }

    /// Sum of tuples emitted by all operators.
    pub fn total_tuples_out(&self) -> u64 {
        self.metrics.iter().map(|m| m.tuples_out).sum()
    }

    /// Sum of feedback messages sent by all operators.
    pub fn total_feedback(&self) -> u64 {
        self.metrics.iter().map(|m| m.feedback_out).sum()
    }

    /// Sum of feedback messages that could not be delivered (see
    /// [`OperatorMetrics::feedback_dropped`]).  A healthy run reports 0.
    pub fn total_feedback_dropped(&self) -> u64 {
        self.metrics.iter().map(|m| m.feedback_dropped).sum()
    }

    /// Run-wide recovery summary, aggregated from the per-operator counters:
    /// supervised restarts, checkpoints taken, tuples replayed, and the
    /// operators tombstoned under quarantine (with their terminal failures).
    pub fn recovery(&self) -> RecoverySummary {
        let mut summary = RecoverySummary::default();
        for m in &self.metrics {
            summary.restarts += m.restarts;
            summary.checkpoints_taken += m.checkpoints_taken;
            summary.tuples_replayed += m.tuples_replayed;
            if let Some(failure) = &m.failure {
                summary.quarantined.push((m.operator.clone(), failure.clone()));
            }
        }
        summary
    }
}

// ---------------------------------------------------------------------------
// Synchronous (deterministic) executor
// ---------------------------------------------------------------------------

/// Deterministic single-threaded executor.
pub struct SyncExecutor;

/// Shared state of one plan edge under the sync executor: an unbounded page
/// queue with a page builder on the producer side, plus the out-of-band
/// control queue flowing the other way.
struct SyncEdgeState {
    builder: PageBuilder,
    queue: VecDeque<Page>,
    eos: bool,
    control: VecDeque<ControlMessage>,
}

/// One node's view of its connected edges (dense slot arrays plus
/// port → slot routing tables).
struct SyncNodeState {
    ins: Vec<SyncIn>,
    outs: Vec<SyncOut>,
    in_route: Vec<Option<usize>>,
    out_route: Vec<Option<usize>>,
}

struct SyncIn {
    port: usize,
    edge: usize,
    open: bool,
}

struct SyncOut {
    port: usize,
    edge: usize,
    control_open: bool,
}

/// Per-step [`LifecyclePorts`] adapter: one node's slot state over the shared
/// edge array.
struct SyncPorts<'a> {
    state: &'a mut SyncNodeState,
    edges: &'a mut [SyncEdgeState],
}

impl LifecyclePorts for SyncPorts<'_> {
    fn in_count(&self) -> usize {
        self.state.ins.len()
    }
    fn in_port(&self, slot: usize) -> usize {
        self.state.ins[slot].port
    }
    fn in_open(&self, slot: usize) -> bool {
        self.state.ins[slot].open
    }
    fn close_in(&mut self, slot: usize) {
        self.state.ins[slot].open = false;
    }
    fn poll_in(&mut self, slot: usize) -> DataPoll {
        let edge = &mut self.edges[self.state.ins[slot].edge];
        if let Some(page) = edge.queue.pop_front() {
            DataPoll::Message(QueueMessage::Page(page))
        } else if edge.eos {
            DataPoll::Closed
        } else {
            DataPoll::Empty
        }
    }
    fn in_depth(&self, slot: usize) -> usize {
        self.edges[self.state.ins[slot].edge].queue.len()
    }
    fn in_slot(&self, port: usize) -> Option<usize> {
        self.state.in_route.get(port).copied().flatten()
    }
    fn send_control(&mut self, slot: usize, message: ControlMessage) -> bool {
        // Sync edges live for the whole run: control is always deliverable.
        self.edges[self.state.ins[slot].edge].control.push_back(message);
        true
    }

    fn out_count(&self) -> usize {
        self.state.outs.len()
    }
    fn out_port(&self, slot: usize) -> usize {
        self.state.outs[slot].port
    }
    fn out_slot(&self, port: usize) -> Option<usize> {
        self.state.out_route.get(port).copied().flatten()
    }
    fn out_data_open(&self, _slot: usize) -> bool {
        true
    }
    fn push_item(&mut self, slot: usize, item: StreamItem, metrics: &mut OperatorMetrics) {
        let edge = &mut self.edges[self.state.outs[slot].edge];
        match item {
            StreamItem::Tuple(t) => {
                if let Some(page) = edge.builder.push_tuple(t) {
                    metrics.pages_out += 1;
                    edge.queue.push_back(page);
                }
            }
            StreamItem::Punctuation(p) => {
                let page = edge.builder.push_punctuation(p);
                metrics.pages_out += 1;
                edge.queue.push_back(page);
            }
        }
    }
    fn push_page(&mut self, slot: usize, page: Page, metrics: &mut OperatorMetrics) {
        let edge = &mut self.edges[self.state.outs[slot].edge];
        if let Some(partial) = edge.builder.flush() {
            metrics.pages_out += 1;
            edge.queue.push_back(partial);
        }
        metrics.pages_out += 1;
        edge.queue.push_back(page);
    }
    fn flush_out(&mut self, slot: usize, metrics: &mut OperatorMetrics) {
        let edge = &mut self.edges[self.state.outs[slot].edge];
        if let Some(page) = edge.builder.flush() {
            metrics.pages_out += 1;
            edge.queue.push_back(page);
        }
    }
    fn send_eos(&mut self, slot: usize) {
        self.edges[self.state.outs[slot].edge].eos = true;
    }
    fn control_open(&self, slot: usize) -> bool {
        self.state.outs[slot].control_open
    }
    fn close_control(&mut self, slot: usize) {
        self.state.outs[slot].control_open = false;
    }
    fn poll_control(&mut self, slot: usize) -> ControlPoll {
        match self.edges[self.state.outs[slot].edge].control.pop_front() {
            Some(message) => ControlPoll::Message(message),
            None => ControlPoll::Empty,
        }
    }
}

impl SyncExecutor {
    /// Runs the plan to completion.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsms_engine::{Operator, OperatorContext, QueryPlan, SourceState, SyncExecutor};
    /// # use dsms_engine::EngineResult;
    /// # use dsms_types::{DataType, Schema, Tuple, Value};
    /// # struct Nums(i64);
    /// # impl Operator for Nums {
    /// #     fn name(&self) -> &str { "nums" }
    /// #     fn inputs(&self) -> usize { 0 }
    /// #     fn on_tuple(&mut self, _: usize, _: Tuple, _: &mut OperatorContext) -> EngineResult<()> { Ok(()) }
    /// #     fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
    /// #         if self.0 >= 10 { return Ok(SourceState::Exhausted); }
    /// #         let schema = Schema::shared(&[("v", DataType::Int)]);
    /// #         ctx.emit(0, Tuple::new(schema, vec![Value::Int(self.0)]));
    /// #         self.0 += 1;
    /// #         Ok(SourceState::Producing)
    /// #     }
    /// # }
    /// # struct Count(u64);
    /// # impl Operator for Count {
    /// #     fn name(&self) -> &str { "count" }
    /// #     fn inputs(&self) -> usize { 1 }
    /// #     fn outputs(&self) -> usize { 0 }
    /// #     fn on_tuple(&mut self, _: usize, _: Tuple, _: &mut OperatorContext) -> EngineResult<()> {
    /// #         self.0 += 1;
    /// #         Ok(())
    /// #     }
    /// # }
    ///
    /// // `Nums` emits 0..10; `Count` tallies arrivals (implementations hidden).
    /// let mut plan = QueryPlan::new();
    /// let source = plan.add(Nums(0));
    /// let sink = plan.add(Count(0));
    /// plan.connect_simple(source, sink)?;
    ///
    /// let report = SyncExecutor::run(plan)?;
    /// assert_eq!(report.operator("nums").unwrap().tuples_out, 10);
    /// assert_eq!(report.operator("count").unwrap().tuples_in, 10);
    /// assert_eq!(report.total_feedback_dropped(), 0);
    /// # Ok::<(), dsms_engine::EngineError>(())
    /// ```
    pub fn run(mut plan: QueryPlan) -> EngineResult<ExecutionReport> {
        plan.validate()?;
        let started = Instant::now();
        let order = plan.topological_order();
        let page_capacity = plan.page_capacity;

        let mut edges: Vec<SyncEdgeState> = plan
            .edges
            .iter()
            .map(|_| SyncEdgeState {
                builder: PageBuilder::new(page_capacity),
                queue: VecDeque::new(),
                eos: false,
                control: VecDeque::new(),
            })
            .collect();

        let node_count = plan.nodes.len();
        let mut states: Vec<SyncNodeState> = Vec::with_capacity(node_count);
        for (idx, node) in plan.nodes.iter().enumerate() {
            let mut ins = Vec::new();
            let mut outs = Vec::new();
            let mut in_route = vec![None; node.inputs];
            let mut out_route = vec![None; node.outputs];
            for (e_idx, e) in plan.edges.iter().enumerate() {
                if e.to.0 == idx {
                    in_route[e.to_port] = Some(ins.len());
                    ins.push(SyncIn { port: e.to_port, edge: e_idx, open: true });
                }
                if e.from.0 == idx {
                    out_route[e.from_port] = Some(outs.len());
                    outs.push(SyncOut { port: e.from_port, edge: e_idx, control_open: true });
                }
            }
            states.push(SyncNodeState { ins, outs, in_route, out_route });
        }

        let mut machines: Vec<NodeMachine> = plan
            .nodes
            .iter()
            .enumerate()
            .map(|(idx, n)| {
                NodeMachine::supervised(
                    n.inputs == 0,
                    plan.recovery[idx],
                    plan.quarantine[idx],
                    plan.checkpoint_interval,
                )
            })
            .collect();
        let mut metrics: Vec<OperatorMetrics> =
            plan.nodes.iter().map(|n| OperatorMetrics::new(n.name.clone())).collect();
        let mut contexts: Vec<OperatorContext> =
            (0..node_count).map(|_| OperatorContext::new()).collect();

        // Round-robin in topological order, one lifecycle step (budget 1) per
        // node per round, until every machine has released.  The machine runs
        // pending control before data within each step, so feedback crosses
        // one plan hop per round — exactly the cadence the previous
        // hand-rolled scheduler had — and the drain handshake (flush → drain
        // → release, propagating sink → source) rides the same loop instead
        // of needing a separate post-run delivery pass.
        loop {
            let mut activity = false;
            for &NodeId(n) in &order {
                if machines[n].is_done() {
                    continue;
                }
                let mut ports = SyncPorts { state: &mut states[n], edges: &mut edges };
                let outcome = machines[n]
                    .step(
                        plan.nodes[n].operator.as_mut(),
                        &mut ports,
                        &mut metrics[n],
                        &mut contexts[n],
                        1,
                    )
                    .map_err(|err| wrap(&plan, n, err))?;
                match outcome {
                    StepOutcome::Yield | StepOutcome::Done => activity = true,
                    StepOutcome::Idle => {}
                }
            }
            if machines.iter().all(|m| m.is_done()) {
                break;
            }
            if !activity {
                return Err(EngineError::ExecutionFailed {
                    detail: "execution stalled: no operator made progress".into(),
                });
            }
        }

        // Fold in feedback and elastic stats.
        for (n, node) in plan.nodes.iter().enumerate() {
            if let Some(stats) = node.operator.feedback_stats() {
                metrics[n].feedback = stats;
            }
            metrics[n].elastic = node.operator.elastic_stats();
        }

        Ok(ExecutionReport { elapsed: started.elapsed(), metrics, scheduler: None })
    }
}

fn wrap(plan: &QueryPlan, node: usize, err: EngineError) -> EngineError {
    match err {
        // The lifecycle's guarded dispatch already attributed the failure —
        // keep its text identical across both executors.
        named @ EngineError::OperatorFailed { .. } => named,
        other => EngineError::OperatorFailed {
            operator: plan.nodes[node].name.clone(),
            detail: other.to_string(),
        },
    }
}

/// Human-readable form of a panic payload (`&str` and `String` payloads are
/// the common cases from `panic!`).
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Operator, SourceState};
    use crate::pooled::PooledExecutor;
    use dsms_feedback::FeedbackPunctuation;
    use dsms_punctuation::{Pattern, PatternItem, Punctuation};
    use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Tuple, Value};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
    }

    fn tuple(ts: i64, v: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(v)])
    }

    /// Source emitting `0..n` with punctuation every `punct_every` tuples.
    struct CountingSource {
        n: i64,
        next: i64,
        punct_every: i64,
        suppressed_below: Option<i64>,
        feedback_seen: Arc<Mutex<Vec<FeedbackPunctuation>>>,
    }

    impl CountingSource {
        fn new(n: i64, punct_every: i64) -> Self {
            CountingSource {
                n,
                next: 0,
                punct_every,
                suppressed_below: None,
                feedback_seen: Arc::new(Mutex::new(Vec::new())),
            }
        }
    }

    impl Operator for CountingSource {
        fn name(&self) -> &str {
            "source"
        }
        fn inputs(&self) -> usize {
            0
        }
        fn on_tuple(&mut self, _i: usize, _t: Tuple, _c: &mut OperatorContext) -> EngineResult<()> {
            Ok(())
        }
        fn on_feedback(
            &mut self,
            _output: usize,
            feedback: FeedbackPunctuation,
            _ctx: &mut OperatorContext,
        ) -> EngineResult<()> {
            // Exploit "v >= k is assumed away" by remembering the bound.
            if let Ok(PatternItem::Ge(Value::Int(k))) = feedback.pattern().item_for("v").cloned() {
                self.suppressed_below = Some(k);
            }
            self.feedback_seen.lock().push(feedback);
            Ok(())
        }
        fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
            if self.next >= self.n {
                return Ok(SourceState::Exhausted);
            }
            let v = self.next;
            self.next += 1;
            let skip = self.suppressed_below.map(|k| v >= k).unwrap_or(false);
            if !skip {
                ctx.emit(0, tuple(v, v));
            }
            if self.punct_every > 0 && v % self.punct_every == self.punct_every - 1 {
                ctx.emit_punctuation(
                    0,
                    Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(v)).unwrap(),
                );
            }
            Ok(SourceState::Producing)
        }
    }

    /// Filter keeping even values, forwarding punctuation.
    struct EvenFilter;

    impl Operator for EvenFilter {
        fn name(&self) -> &str {
            "even"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            if t.int("v").unwrap_or(0) % 2 == 0 {
                ctx.emit(0, t);
            }
            Ok(())
        }
    }

    /// Sink collecting tuples; optionally sends feedback after a threshold,
    /// on a fixed cadence, or from `on_flush` (the regression case: feedback
    /// produced at end-of-stream).
    struct CollectingSink {
        collected: Arc<Mutex<Vec<Tuple>>>,
        punctuations: Arc<Mutex<Vec<Punctuation>>>,
        feedback_after: Option<i64>,
        sent_feedback: bool,
        /// Send (non-suppressing) feedback every N arrivals.
        feedback_every: Option<u64>,
        /// Send (non-suppressing) feedback from `on_flush`.
        feedback_on_flush: bool,
        seen: u64,
    }

    impl CollectingSink {
        fn new() -> (Self, Arc<Mutex<Vec<Tuple>>>) {
            let collected = Arc::new(Mutex::new(Vec::new()));
            (
                CollectingSink {
                    collected: collected.clone(),
                    punctuations: Arc::new(Mutex::new(Vec::new())),
                    feedback_after: None,
                    sent_feedback: false,
                    feedback_every: None,
                    feedback_on_flush: false,
                    seen: 0,
                },
                collected,
            )
        }

        /// Feedback whose bound (`v >= 1_000_000`) no test stream reaches, so
        /// sending it never changes the data the source produces.
        fn harmless_feedback() -> FeedbackPunctuation {
            FeedbackPunctuation::assumed(
                Pattern::for_attributes(schema(), &[("v", PatternItem::Ge(Value::Int(1_000_000)))])
                    .unwrap(),
                "sink",
            )
        }
    }

    impl Operator for CollectingSink {
        fn name(&self) -> &str {
            "sink"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn outputs(&self) -> usize {
            0
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            let v = t.int("v").unwrap_or(0);
            self.collected.lock().push(t);
            self.seen += 1;
            if let Some(threshold) = self.feedback_after {
                if !self.sent_feedback && v >= threshold {
                    self.sent_feedback = true;
                    ctx.send_feedback(
                        0,
                        FeedbackPunctuation::assumed(
                            Pattern::for_attributes(
                                schema(),
                                &[("v", PatternItem::Ge(Value::Int(threshold + 10)))],
                            )
                            .unwrap(),
                            "sink",
                        ),
                    );
                }
            }
            if let Some(every) = self.feedback_every {
                if self.seen % every == 0 {
                    ctx.send_feedback(0, Self::harmless_feedback());
                }
            }
            Ok(())
        }

        fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
            if self.feedback_on_flush {
                ctx.send_feedback(0, Self::harmless_feedback());
            }
            Ok(())
        }
        fn on_punctuation(
            &mut self,
            _i: usize,
            p: Punctuation,
            _ctx: &mut OperatorContext,
        ) -> EngineResult<()> {
            self.punctuations.lock().push(p);
            Ok(())
        }
    }

    /// Runs `plan` on a two-worker pool (`pooled`) or the sync executor.
    fn run_on(pooled: bool, plan: QueryPlan) -> EngineResult<ExecutionReport> {
        if pooled {
            PooledExecutor::run_with_workers(plan, 2)
        } else {
            SyncExecutor::run(plan)
        }
    }

    fn linear_plan(n: i64, feedback_after: Option<i64>) -> (QueryPlan, Arc<Mutex<Vec<Tuple>>>) {
        let mut plan = QueryPlan::new().with_page_capacity(8);
        let src = plan.add(CountingSource::new(n, 10));
        let filter = plan.add(EvenFilter);
        let (mut sink, collected) = CollectingSink::new();
        sink.feedback_after = feedback_after;
        let sink = plan.add(sink);
        plan.connect_simple(src, filter).unwrap();
        plan.connect_simple(filter, sink).unwrap();
        (plan, collected)
    }

    #[test]
    fn sync_executor_runs_linear_plan() {
        let (plan, collected) = linear_plan(100, None);
        let report = SyncExecutor::run(plan).unwrap();
        assert_eq!(collected.lock().len(), 50, "even values of 0..100");
        let src = report.operator("source").unwrap();
        assert_eq!(src.tuples_out, 100);
        assert_eq!(src.punctuations_out, 10);
        let sink = report.operator("sink").unwrap();
        assert_eq!(sink.tuples_in, 50);
        assert!(sink.punctuations_in >= 1);
    }

    #[test]
    fn pooled_executor_matches_sync_results() {
        let (plan, collected) = linear_plan(200, None);
        let report = run_on(true, plan).unwrap();
        assert_eq!(collected.lock().len(), 100);
        assert_eq!(report.operator("source").unwrap().tuples_out, 200);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn feedback_travels_upstream_in_sync_executor() {
        let (plan, collected) = linear_plan(1_000, Some(100));
        let report = SyncExecutor::run(plan).unwrap();
        // The sink asks (once it sees v >= 100) that v >= 110 be assumed away; the
        // feedback-unaware filter ignores it, but the source receives nothing —
        // the filter does not relay.  So the full stream still arrives.
        assert_eq!(collected.lock().len(), 500);
        assert_eq!(report.operator("sink").unwrap().feedback_out, 1);
        assert_eq!(report.operator("even").unwrap().feedback_in, 1);
        assert_eq!(
            report.operator("source").unwrap().feedback_in,
            0,
            "unaware operators do not relay"
        );
        assert_eq!(report.total_feedback_dropped(), 0, "delivered (and absorbed), not dropped");
    }

    /// A filter variant that *relays* feedback upstream unchanged.
    struct RelayingFilter;

    impl Operator for RelayingFilter {
        fn name(&self) -> &str {
            "relay"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            ctx.emit(0, t);
            Ok(())
        }
        fn on_feedback(
            &mut self,
            _output: usize,
            feedback: FeedbackPunctuation,
            ctx: &mut OperatorContext,
        ) -> EngineResult<()> {
            ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), "relay"));
            Ok(())
        }
    }

    #[test]
    fn relayed_feedback_reaches_the_source_and_is_exploited() {
        for pooled in [false, true] {
            let mut plan = QueryPlan::new().with_page_capacity(4).with_queue_capacity(4);
            let source = CountingSource::new(5_000, 50);
            let feedback_seen = source.feedback_seen.clone();
            let src = plan.add(source);
            let relay = plan.add(RelayingFilter);
            let (mut sink, collected) = CollectingSink::new();
            sink.feedback_after = Some(50);
            let sink = plan.add(sink);
            plan.connect_simple(src, relay).unwrap();
            plan.connect_simple(relay, sink).unwrap();

            let report = run_on(pooled, plan).unwrap();
            assert_eq!(report.operator("sink").unwrap().feedback_out, 1);
            assert_eq!(report.operator("relay").unwrap().feedback_in, 1);
            assert_eq!(report.operator("source").unwrap().feedback_in, 1);
            assert_eq!(report.total_feedback_dropped(), 0, "every relayed message is delivered");
            assert_eq!(feedback_seen.lock().len(), 1);
            // The source exploited ¬[*, >=60]: far fewer than 5000 tuples arrive.
            let n = collected.lock().len();
            assert!(n < 5_000, "source suppression must reduce output (got {n})");
            assert!(n >= 60, "tuples below the bound must still arrive (got {n})");
        }
    }

    /// The headline regression for the drain protocol: feedback emitted from
    /// a sink's `on_flush` — i.e. *after* every upstream operator has already
    /// finished producing — must still be relayed all the way to the source,
    /// with nothing counted as dropped, in both executors.
    #[test]
    fn flush_feedback_reaches_live_source_in_both_executors() {
        for pooled in [false, true] {
            let mut plan = QueryPlan::new().with_page_capacity(4).with_queue_capacity(4);
            let source = CountingSource::new(500, 50);
            let feedback_seen = source.feedback_seen.clone();
            let src = plan.add(source);
            let relay = plan.add(RelayingFilter);
            let (mut sink, collected) = CollectingSink::new();
            sink.feedback_on_flush = true;
            let sink = plan.add(sink);
            plan.connect_simple(src, relay).unwrap();
            plan.connect_simple(relay, sink).unwrap();

            let report = run_on(pooled, plan).unwrap();
            assert_eq!(collected.lock().len(), 500, "pooled={pooled}");
            assert_eq!(report.operator("sink").unwrap().feedback_out, 1, "pooled={pooled}");
            assert_eq!(report.operator("relay").unwrap().feedback_in, 1, "pooled={pooled}");
            assert_eq!(
                report.operator("source").unwrap().feedback_in,
                1,
                "flush-time feedback must reach the source (pooled={pooled})"
            );
            assert_eq!(feedback_seen.lock().len(), 1, "pooled={pooled}");
            assert_eq!(report.total_feedback_dropped(), 0, "pooled={pooled}");
        }
    }

    /// Back-pressure stress: tiny pages, a single-page queue bound, and
    /// feedback flowing upstream concurrently with thousands of data pages.
    /// Nothing may be lost in either direction.
    #[test]
    fn pooled_backpressure_with_concurrent_feedback_stress() {
        let mut plan = QueryPlan::new().with_page_capacity(1).with_queue_capacity(1);
        let source = CountingSource::new(5_000, 7);
        let feedback_seen = source.feedback_seen.clone();
        let src = plan.add(source);
        let relay = plan.add(RelayingFilter);
        let (mut sink, collected) = CollectingSink::new();
        sink.feedback_every = Some(250);
        sink.feedback_on_flush = true;
        let sink = plan.add(sink);
        plan.connect_simple(src, relay).unwrap();
        plan.connect_simple(relay, sink).unwrap();

        let report = run_on(true, plan).unwrap();
        assert_eq!(collected.lock().len(), 5_000, "no data lost under back-pressure");
        let sent = report.operator("sink").unwrap().feedback_out;
        assert_eq!(sent, 5_000 / 250 + 1, "cadence feedback plus the flush-time message");
        assert_eq!(report.operator("relay").unwrap().feedback_in, sent);
        assert_eq!(report.operator("source").unwrap().feedback_in, sent);
        assert_eq!(feedback_seen.lock().len(), sent as usize);
        assert_eq!(report.total_feedback_dropped(), 0);
    }

    /// Sink that burns time per tuple so its input queue backs up.
    struct SlowSink {
        collected: Arc<Mutex<Vec<Tuple>>>,
    }

    impl Operator for SlowSink {
        fn name(&self) -> &str {
            "slow"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn outputs(&self) -> usize {
            0
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, _c: &mut OperatorContext) -> EngineResult<()> {
            std::thread::sleep(Duration::from_micros(200));
            self.collected.lock().push(t);
            Ok(())
        }
    }

    /// Regression: `max_queue_depth` used to be populated only by the pooled
    /// executor.  The lifecycle sweep now samples every executor's input
    /// queues, so a pooled run with a single-page queue bound and a slow
    /// consumer must observe a nonzero depth at the sink.
    #[test]
    fn pooled_executor_reports_queue_depth_under_backpressure() {
        let mut plan = QueryPlan::new().with_page_capacity(1).with_queue_capacity(1);
        let src = plan.add(CountingSource::new(300, 0));
        let sink = plan.add(SlowSink { collected: Arc::new(Mutex::new(Vec::new())) });
        plan.connect_simple(src, sink).unwrap();

        let report = run_on(true, plan).unwrap();
        let sink = report.operator("slow").unwrap();
        assert_eq!(sink.tuples_in, 300);
        assert!(
            sink.max_queue_depth >= 1,
            "a slow consumer behind a bounded queue must see queued pages \
             (got {})",
            sink.max_queue_depth
        );
        assert_eq!(report.operator("source").unwrap().max_queue_depth, 0, "sources have no inputs");
    }

    /// Filter that fails after a fixed number of tuples.
    struct FailingFilter {
        after: u64,
        seen: u64,
    }

    impl Operator for FailingFilter {
        fn name(&self) -> &str {
            "failing"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            self.seen += 1;
            if self.seen > self.after {
                return Err(EngineError::ExecutionFailed { detail: "injected failure".into() });
            }
            ctx.emit(0, t);
            Ok(())
        }
    }

    /// An operator failure must shut the whole query down promptly on both
    /// executors: shutdown relays upstream (the source stops producing its
    /// 100k tuples) and the error surfaces — the test completing at all
    /// proves no pool worker deadlocks in the drain protocol.
    #[test]
    fn operator_failure_shuts_both_executors_down() {
        for pooled in [false, true] {
            let mut plan = QueryPlan::new().with_page_capacity(2).with_queue_capacity(2);
            let src = plan.add(CountingSource::new(100_000, 0));
            let failing = plan.add(FailingFilter { after: 10, seen: 0 });
            let (sink, _collected) = CollectingSink::new();
            let sink = plan.add(sink);
            plan.connect_simple(src, failing).unwrap();
            plan.connect_simple(failing, sink).unwrap();

            let err = run_on(pooled, plan).unwrap_err();
            assert!(
                matches!(err, EngineError::OperatorFailed { ref operator, .. } if operator == "failing"),
                "pooled={pooled}: {err}"
            );
        }
    }

    /// Filter that panics (rather than returning an error) after a fixed
    /// number of tuples.
    struct PanickingFilter {
        after: u64,
        seen: u64,
    }

    impl Operator for PanickingFilter {
        fn name(&self) -> &str {
            "panicky"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            self.seen += 1;
            assert!(self.seen <= self.after, "injected panic");
            ctx.emit(0, t);
            Ok(())
        }
    }

    /// A panicking operator must surface as `OperatorFailed` *naming the
    /// operator* and carrying the panic message — not as an anonymous
    /// "pool worker panicked" execution failure that loses the payload.
    #[test]
    fn panicking_operator_is_named_in_the_error() {
        let mut plan = QueryPlan::new().with_page_capacity(2).with_queue_capacity(2);
        let src = plan.add(CountingSource::new(100_000, 0));
        let bad = plan.add(PanickingFilter { after: 10, seen: 0 });
        let (sink, _collected) = CollectingSink::new();
        let sink = plan.add(sink);
        plan.connect_simple(src, bad).unwrap();
        plan.connect_simple(bad, sink).unwrap();

        let err = run_on(true, plan).unwrap_err();
        match err {
            EngineError::OperatorFailed { operator, detail } => {
                assert_eq!(operator, "panicky");
                assert!(detail.contains("panicked"), "detail: {detail}");
                assert!(detail.contains("injected panic"), "payload must survive: {detail}");
            }
            other => panic!("expected OperatorFailed, got {other}"),
        }
    }

    /// Sink that names a nonexistent input port when sending feedback — the
    /// one genuinely undeliverable case, which must be *counted*, never
    /// silently ignored.
    struct MisroutedFeedbackSink {
        sent: bool,
    }

    impl Operator for MisroutedFeedbackSink {
        fn name(&self) -> &str {
            "misrouted"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn outputs(&self) -> usize {
            0
        }
        fn on_tuple(
            &mut self,
            _i: usize,
            _t: Tuple,
            ctx: &mut OperatorContext,
        ) -> EngineResult<()> {
            if !self.sent {
                self.sent = true;
                ctx.send_feedback(
                    7,
                    FeedbackPunctuation::assumed(Pattern::all_wildcards(schema()), "misrouted"),
                );
            }
            Ok(())
        }
    }

    #[test]
    fn undeliverable_feedback_is_counted_in_both_executors() {
        for pooled in [false, true] {
            let mut plan = QueryPlan::new().with_page_capacity(4);
            let src = plan.add(CountingSource::new(20, 0));
            let sink = plan.add(MisroutedFeedbackSink { sent: false });
            plan.connect_simple(src, sink).unwrap();

            let report = run_on(pooled, plan).unwrap();
            let sink = report.operator("misrouted").unwrap();
            assert_eq!(sink.feedback_dropped, 1, "pooled={pooled}");
            assert_eq!(sink.feedback_out, 0, "pooled={pooled}");
            assert_eq!(report.total_feedback_dropped(), 1, "pooled={pooled}");
        }
    }

    /// A 1→2 router that emits each punctuation on both outputs and, per
    /// tuple, alternates the data route; it relays any feedback it receives
    /// upstream on its input.
    struct BroadcastingRouter {
        next_out: usize,
    }

    impl Operator for BroadcastingRouter {
        fn name(&self) -> &str {
            "router"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn outputs(&self) -> usize {
            2
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            ctx.emit(self.next_out, t);
            self.next_out = (self.next_out + 1) % 2;
            Ok(())
        }
        fn on_punctuation(
            &mut self,
            _input: usize,
            punctuation: Punctuation,
            ctx: &mut OperatorContext,
        ) -> EngineResult<()> {
            ctx.emit_punctuation(0, punctuation.clone());
            ctx.emit_punctuation(1, punctuation);
            Ok(())
        }
        fn on_feedback(
            &mut self,
            _output: usize,
            feedback: FeedbackPunctuation,
            ctx: &mut OperatorContext,
        ) -> EngineResult<()> {
            ctx.send_feedback(0, feedback.relay(feedback.pattern().clone(), "router"));
            Ok(())
        }
    }

    /// Broadcast by port: punctuation emitted on every output reaches *every*
    /// downstream consumer while data follows the per-tuple route, and
    /// feedback relayed upstream reaches the source — on both executors, with
    /// nothing dropped.
    #[test]
    fn broadcasts_reach_every_connected_endpoint() {
        for pooled in [false, true] {
            let mut plan = QueryPlan::new().with_page_capacity(4).with_queue_capacity(4);
            let source = CountingSource::new(100, 10);
            let feedback_seen = source.feedback_seen.clone();
            let src = plan.add(source);
            let router = plan.add(BroadcastingRouter { next_out: 0 });
            let (mut sink_a, collected_a) = CollectingSink::new();
            sink_a.feedback_on_flush = true;
            let (sink_b, collected_b) = CollectingSink::new();
            let punct_b = sink_b.punctuations.clone();
            let sink_a = plan.add(sink_a);
            let sink_b = plan.add(sink_b);
            plan.connect_simple(src, router).unwrap();
            plan.connect(router, 0, sink_a, 0).unwrap();
            plan.connect(router, 1, sink_b, 0).unwrap();

            let report = run_on(pooled, plan).unwrap();
            assert_eq!(
                collected_a.lock().len() + collected_b.lock().len(),
                100,
                "data is routed, not duplicated (pooled={pooled})"
            );
            assert_eq!(
                report.operator("router").unwrap().punctuations_out,
                2 * report.operator("router").unwrap().punctuations_in,
                "punctuation is broadcast to both outputs (pooled={pooled})"
            );
            assert!(!punct_b.lock().is_empty(), "pooled={pooled}");
            assert_eq!(
                feedback_seen.lock().len(),
                1,
                "flush-time feedback, broadcast upstream, reaches the source \
                 (pooled={pooled})"
            );
            assert_eq!(report.total_feedback_dropped(), 0, "pooled={pooled}");
        }
    }

    #[test]
    fn invalid_plans_are_rejected_by_both_executors() {
        let mut plan = QueryPlan::new();
        plan.add(EvenFilter); // input never connected
        assert!(matches!(SyncExecutor::run(plan), Err(EngineError::InvalidPlan { .. })));

        let mut plan = QueryPlan::new();
        plan.add(EvenFilter);
        assert!(matches!(run_on(true, plan), Err(EngineError::InvalidPlan { .. })));
    }

    /// Pass-through that pauses its input after the first tuple and resumes
    /// when feedback arrives, recording how many tuples it had seen then.
    struct HoldingGate {
        seen: u64,
        seen_at_resume: Arc<Mutex<Option<u64>>>,
    }

    impl Operator for HoldingGate {
        fn name(&self) -> &str {
            "gate"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn on_tuple(&mut self, _i: usize, t: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
            self.seen += 1;
            if self.seen == 1 {
                ctx.hold_input(true);
            }
            ctx.emit(0, t);
            Ok(())
        }
        fn on_feedback(
            &mut self,
            _output: usize,
            _feedback: FeedbackPunctuation,
            ctx: &mut OperatorContext,
        ) -> EngineResult<()> {
            self.seen_at_resume.lock().get_or_insert(self.seen);
            ctx.hold_input(false);
            Ok(())
        }
    }

    /// A held input stays queued upstream while control keeps flowing: the
    /// gate consumes nothing more during the feedback's three relay hops,
    /// then resumes and the whole stream arrives.
    #[test]
    fn held_input_waits_for_control_on_both_executors() {
        for pooled in [false, true] {
            let mut plan = QueryPlan::new().with_page_capacity(1).with_queue_capacity(1);
            let src = plan.add(CountingSource::new(50, 0));
            let seen_at_resume = Arc::new(Mutex::new(None));
            let gate = plan.add(HoldingGate { seen: 0, seen_at_resume: seen_at_resume.clone() });
            let mut upstream = gate;
            for _ in 0..3 {
                let relay = plan.add(RelayingFilter);
                plan.connect_simple(upstream, relay).unwrap();
                upstream = relay;
            }
            let (mut sink, collected) = CollectingSink::new();
            sink.feedback_after = Some(0);
            let sink = plan.add(sink);
            plan.connect_simple(src, gate).unwrap();
            plan.connect_simple(upstream, sink).unwrap();

            let report = run_on(pooled, plan).unwrap();
            assert_eq!(*seen_at_resume.lock(), Some(1), "pooled={pooled}");
            assert_eq!(collected.lock().len(), 50, "pooled={pooled}");
            assert_eq!(report.total_feedback_dropped(), 0, "pooled={pooled}");
        }
    }

    #[test]
    fn execution_report_helpers() {
        let (plan, _collected) = linear_plan(20, None);
        let report = SyncExecutor::run(plan).unwrap();
        assert!(report.operator("missing").is_none());
        assert!(report.total_tuples_out() >= 20);
        assert_eq!(report.total_feedback(), 0);
    }
}
