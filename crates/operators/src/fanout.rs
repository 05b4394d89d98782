//! Shared fan-out for multi-query execution.
//!
//! [`SharedFanout`] sits at each point where a shared subplan — a long-lived
//! source, optionally followed by deduplicated prefix operators such as
//! `select`, `project` or a window aggregate — splits into the branches of N
//! standing queries, each either a query's private suffix or a deeper shared
//! operator.  It differs from
//! [`Duplicate`](crate::Duplicate) in three ways that matter for a
//! multi-query manager:
//!
//! * **Per-port feedback isolation.**  DUPLICATE's definition requires all
//!   outputs to stay identical, so it may only exploit feedback asserted by
//!   *every* output.  A fan-out's outputs feed *independent* queries, so each
//!   output port keeps its own scoped
//!   [`FeedbackRegistry`]: a guard asserted
//!   by query A suppresses tuples on A's branch immediately and never
//!   affects a sibling's branch.
//! * **Lattice-combined upstream relay.**  Source-bound feedback still only
//!   crosses the fan-out when every *active* sharer agrees, via the same
//!   [`FeedbackMerge`] lattice the partitioned path uses — the shared prefix
//!   and the source serve everyone, so slowing or filtering them, or purging
//!   a shared aggregate's state, is only safe under unanimity.
//! * **Attach/detach at punctuation boundaries.**  Output ports can be
//!   attached and detached while the stream runs.  Directives are posted
//!   through a shared [`FanoutController`] (mirroring the elastic stage's
//!   [`ElasticController`](crate::ElasticController)) and committed at the
//!   next punctuation boundary — the same punctuation-aligned consistent cut
//!   the elastic Migrate/Ack/Commit handshake uses — so a newly attached
//!   query starts with a punctuation-delimited suffix of the stream and a
//!   detached query stops without disturbing its siblings' output.  Behind
//!   a shared window aggregate the boundaries are the aggregate's output
//!   punctuation, so membership changes there commit at window boundaries.
//!
//! The data kernel is DUPLICATE's zero-copy columnar kernel: a page whose
//! column summaries prove every attached port clear of its guards is
//! forwarded as a page — the last attached port gets the page by move, each
//! other one a [`Page::share`] copy of the same row allocation (the forward
//! copies no row `Vec` and bumps no tuple refcount; a consumer that walks a
//! shared copy by value still clones each tuple it takes out), and every
//! port reads the column summaries computed here from the page's shared
//! cache.

use dsms_engine::{EngineResult, Operator, OperatorContext, Page};
use dsms_feedback::{
    BatchGuardDecision, FeedbackMerge, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles,
    FeedbackStats, GuardDecision,
};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};
use parking_lot::Mutex;
use std::sync::Arc;

/// A pending attach or detach posted through a [`FanoutController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutDirective {
    /// The output port (query slot) the directive applies to.
    pub port: usize,
    /// `true` to attach the port, `false` to detach it.
    pub attach: bool,
    /// Commit once this many punctuations have been seen; `None` commits at
    /// the next punctuation boundary (runtime hot attach/detach).
    pub at_boundary: Option<u64>,
}

/// A committed membership change, recorded for the manager to reconcile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutCommit {
    /// The output port whose membership changed.
    pub port: usize,
    /// The port's new state.
    pub attached: bool,
    /// The punctuation count at which the change committed.
    pub boundary: u64,
}

/// Shared coordination handle between a [`SharedFanout`] and the manager
/// driving it, mirroring the elastic stage's controller: the manager posts
/// directives, the fan-out acknowledges them as [`FanoutCommit`]s at
/// punctuation boundaries.
#[derive(Default)]
pub struct FanoutController {
    directives: Mutex<Vec<FanoutDirective>>,
    commits: Mutex<Vec<FanoutCommit>>,
}

impl FanoutController {
    /// Creates a controller behind an [`Arc`] for sharing with the fan-out.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Posts an attach for `port`, committing at the next punctuation.
    pub fn attach(&self, port: usize) {
        self.post(FanoutDirective { port, attach: true, at_boundary: None });
    }

    /// Posts a detach for `port`, committing at the next punctuation.
    pub fn detach(&self, port: usize) {
        self.post(FanoutDirective { port, attach: false, at_boundary: None });
    }

    /// Posts an attach for `port` committing once `boundary` punctuations
    /// have been seen (a deterministic schedule, used by parity tests).
    pub fn attach_at(&self, port: usize, boundary: u64) {
        self.post(FanoutDirective { port, attach: true, at_boundary: Some(boundary) });
    }

    /// Posts a detach for `port` committing once `boundary` punctuations
    /// have been seen.
    pub fn detach_at(&self, port: usize, boundary: u64) {
        self.post(FanoutDirective { port, attach: false, at_boundary: Some(boundary) });
    }

    /// Posts a raw directive.
    pub fn post(&self, directive: FanoutDirective) {
        self.directives.lock().push(directive);
    }

    /// The membership changes committed so far, in commit order.
    pub fn commits(&self) -> Vec<FanoutCommit> {
        self.commits.lock().clone()
    }

    fn drain_directives(&self) -> Vec<FanoutDirective> {
        std::mem::take(&mut *self.directives.lock())
    }

    fn record_commit(&self, commit: FanoutCommit) {
        self.commits.lock().push(commit);
    }
}

/// Fans a shared stream out to `outputs` independent query branches with
/// per-port feedback isolation, lattice-combined upstream feedback, and
/// boundary-aligned attach/detach.  See the module docs for the contract.
pub struct SharedFanout {
    name: String,
    schema: SchemaRef,
    outputs: usize,
    /// Current membership: `attached[port]` ⇔ the port receives data.
    attached: Vec<bool>,
    /// Directives polled from the controller but not yet committed.
    pending: Vec<FanoutDirective>,
    /// Per-output scoped guard registries (query-local feedback).
    registries: Vec<FeedbackRegistry>,
    /// Unanimity lattice for source-bound feedback (one replica per port).
    merge: FeedbackMerge,
    controller: Option<Arc<FanoutController>>,
    /// Punctuations seen so far (the boundary clock directives commit on).
    boundaries: u64,
    /// Operator-level counters not attributable to one port (relays).
    stats: FeedbackStats,
    /// Pages forwarded intact to every attached port (the zero-copy path).
    pages_shared: u64,
}

impl SharedFanout {
    /// Creates a fan-out with the given number of output ports, all attached.
    pub fn new(name: impl Into<String>, schema: SchemaRef, outputs: usize) -> Self {
        let name = name.into();
        let outputs = outputs.max(1);
        SharedFanout {
            registries: (0..outputs).map(|p| FeedbackRegistry::scoped(name.clone(), p)).collect(),
            merge: FeedbackMerge::new(outputs),
            name,
            schema,
            outputs,
            attached: vec![true; outputs],
            pending: Vec::new(),
            controller: None,
            boundaries: 0,
            stats: FeedbackStats::default(),
            pages_shared: 0,
        }
    }

    /// Attaches the controller through which a manager posts attach/detach
    /// directives and reads back their commits.
    pub fn with_controller(mut self, controller: Arc<FanoutController>) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Sets the initial membership (missing trailing flags leave their ports
    /// attached).  Dormant ports receive nothing until an attach directive
    /// commits; the unanimity lattice is told the membership so dormant
    /// sharers do not block feedback from the active ones.
    pub fn with_initial(mut self, attached: &[bool]) -> Self {
        for (port, flag) in attached.iter().enumerate().take(self.outputs) {
            self.attached[port] = *flag;
        }
        let _ = self.merge.set_active(&self.attached);
        self
    }

    /// Pages forwarded intact (one shared row allocation, no copies) to
    /// every attached port so far.
    pub fn pages_shared(&self) -> u64 {
        self.pages_shared
    }

    /// Punctuation boundaries seen so far.
    pub fn boundaries(&self) -> u64 {
        self.boundaries
    }

    fn poll_directives(&mut self) {
        if let Some(controller) = &self.controller {
            self.pending.extend(controller.drain_directives());
        }
    }

    /// Commits every pending directive whose boundary has been reached,
    /// re-evaluating the unanimity lattice under the new membership and
    /// relaying any feedback the change released.
    fn commit_eligible(&mut self, ctx: &mut OperatorContext) {
        let boundaries = self.boundaries;
        let mut changed = false;
        let mut index = 0;
        while index < self.pending.len() {
            let directive = self.pending[index];
            if directive.at_boundary.is_none_or(|b| boundaries >= b) {
                self.pending.remove(index);
                if directive.port < self.outputs
                    && self.attached[directive.port] != directive.attach
                {
                    self.attached[directive.port] = directive.attach;
                    changed = true;
                    if let Some(controller) = &self.controller {
                        controller.record_commit(FanoutCommit {
                            port: directive.port,
                            attached: directive.attach,
                            boundary: boundaries,
                        });
                    }
                }
            } else {
                index += 1;
            }
        }
        if changed {
            // Membership changed: rounds that were waiting on a detached
            // sharer may now be unanimous among the remaining active ones.
            let released = self.merge.set_active(&self.attached.clone());
            for feedback in released {
                self.relay_upstream(feedback, ctx);
            }
        }
    }

    fn relay_upstream(&mut self, feedback: FeedbackPunctuation, ctx: &mut OperatorContext) {
        let relayed = feedback.relay(feedback.pattern().clone(), &self.name);
        self.stats.relayed.record(feedback.intent());
        ctx.send_feedback(0, relayed);
    }
}

impl Operator for SharedFanout {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        self.outputs
    }

    /// Every port is a standing query; a dangling port would silently discard
    /// that query's whole result.
    fn must_connect_all_outputs(&self) -> bool {
        true
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::exploiter().with_relayer()
    }

    fn schema_in(&self, _input: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn schema_out(&self, _output: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Per-port guards: a sharer's assumed feedback suppresses the tuple
        // on that sharer's branch only.  Each passing port's emission waits
        // until the next passing port is known, so the last one gets the
        // tuple by move and the others a clone.
        let mut passing = None;
        for port in 0..self.outputs {
            if self.attached[port]
                && self.registries[port].decide(&tuple) != GuardDecision::Suppress
            {
                if let Some(previous) = passing.replace(port) {
                    ctx.emit(previous, tuple.clone());
                }
            }
        }
        if let Some(last) = passing {
            ctx.emit(last, tuple);
        }
        Ok(())
    }

    /// Batch fast path — DUPLICATE's zero-copy kernel, per attached port:
    /// when no directive is pending and every attached port's column-summary
    /// check says [`BatchGuardDecision::PassAll`], the page is forwarded
    /// intact to each attached port: the last by move, the others as
    /// [`Page::share`] copies of one row allocation.  Anything else falls
    /// back to the exact per-item path, which also drives the boundary clock
    /// through [`SharedFanout::on_punctuation`].
    fn on_page(
        &mut self,
        input: usize,
        mut page: Page,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.poll_directives();
        if self.pending.is_empty() {
            let rows = page.tuple_count();
            let all_pass = (0..self.outputs).filter(|&p| self.attached[p]).all(|port| {
                self.registries[port].decide_batch(rows, |c| page.column_summary(c))
                    == BatchGuardDecision::PassAll
            });
            if all_pass {
                self.boundaries += page.punctuation_count() as u64;
                if let Some(last) = self.attached.iter().rposition(|&a| a) {
                    for port in (0..last).filter(|&p| self.attached[p]) {
                        ctx.emit_page(port, page.share());
                    }
                    ctx.emit_page(last, page);
                    self.pages_shared += 1;
                }
                return Ok(());
            }
        }
        dsms_engine::replay_page(self, input, page, ctx)
    }

    /// Punctuations advance the boundary clock and are the consistent cut at
    /// which pending attach/detach directives commit: a port attached here
    /// receives this punctuation and everything after it, and nothing
    /// before.
    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.boundaries += 1;
        self.poll_directives();
        self.commit_eligible(ctx);
        for port in 0..self.outputs {
            if self.attached[port] {
                self.registries[port].expire_with(&punctuation);
                ctx.emit_punctuation(port, punctuation.clone());
            }
        }
        Ok(())
    }

    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if output >= self.outputs {
            return Ok(());
        }
        // Query-local exploitation: the guard lives in this port's scoped
        // registry and never touches a sibling's branch.
        let _ = self.registries[output].register(feedback.clone());
        // Source-bound relay: only a unanimous assertion of the active
        // sharers crosses toward the shared prefix and the source.
        if let Some(merged) = self.merge.assert_from(output, feedback) {
            self.relay_upstream(merged, ctx);
        }
        Ok(())
    }

    fn feedback_stats(&self) -> Option<FeedbackStats> {
        let mut total = self.stats.clone();
        for registry in &self.registries {
            total.merge(registry.stats());
        }
        Some(total)
    }

    /// A shutdown arriving from one sharer detaches that port only — the
    /// siblings keep the shared scan.  The detach is recorded like any other
    /// membership commit, and feedback rounds that were waiting on the dead
    /// port's vote are re-evaluated and relayed.  Only when the *last*
    /// attached sharer leaves does the shutdown propagate upstream, so a
    /// shared scan with no remaining consumers still tears down.
    fn absorb_shutdown(&mut self, output: usize, ctx: &mut OperatorContext) -> bool {
        if output < self.outputs && self.attached[output] {
            self.attached[output] = false;
            if let Some(controller) = &self.controller {
                controller.record_commit(FanoutCommit {
                    port: output,
                    attached: false,
                    boundary: self.boundaries,
                });
            }
            let released = self.merge.set_active(&self.attached.clone());
            for feedback in released {
                self.relay_upstream(feedback, ctx);
            }
        }
        self.attached.iter().any(|&a| a)
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

    fn punct(secs: i64) -> Punctuation {
        Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(secs)).unwrap()
    }

    fn seg_pattern(seg: i64) -> Pattern {
        Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(seg)))]).unwrap()
    }

    #[test]
    fn copies_to_every_attached_port() {
        let mut op = SharedFanout::new("fanout", schema(), 3);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(1), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 3);
    }

    #[test]
    fn one_ports_guard_suppresses_only_that_port() {
        let mut op = SharedFanout::new("fanout", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_feedback(0, FeedbackPunctuation::assumed(seg_pattern(3), "qa"), &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "not unanimous: nothing crosses upstream");
        op.on_tuple(0, tuple(3), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1, "suppressed on port 0 only");
        assert_eq!(emitted[0].0, 1);
    }

    #[test]
    fn unanimous_feedback_is_relayed_upstream_once() {
        let mut op = SharedFanout::new("fanout", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_feedback(0, FeedbackPunctuation::assumed(seg_pattern(3), "qa"), &mut ctx).unwrap();
        op.on_feedback(1, FeedbackPunctuation::assumed(seg_pattern(3), "qb"), &mut ctx).unwrap();
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].0, 0, "sent upstream on the input port");
    }

    #[test]
    fn clear_pages_are_forwarded_intact() {
        use dsms_engine::Emission;
        let mut op = SharedFanout::new("fanout", schema(), 2);
        let mut ctx = OperatorContext::new();
        let page =
            Page::from_items(vec![StreamItem::Tuple(tuple(1)), StreamItem::Punctuation(punct(0))]);
        op.on_page(0, page, &mut ctx).unwrap();
        let mut pages = 0;
        ctx.drain_emissions(|_, emission| {
            if matches!(emission, Emission::Page(_)) {
                pages += 1;
            }
        });
        assert_eq!(pages, 2, "one intact page per attached port");
        assert_eq!(op.pages_shared(), 1);
        assert_eq!(op.boundaries(), 1, "the page's punctuation advanced the boundary clock");
    }

    #[test]
    fn attach_commits_at_the_next_boundary() {
        let controller = FanoutController::shared();
        let mut op = SharedFanout::new("fanout", schema(), 2)
            .with_controller(controller.clone())
            .with_initial(&[true, false]);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(1), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1, "dormant port receives nothing");
        controller.attach(1);
        op.on_tuple(0, tuple(2), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1, "attach waits for the punctuation boundary");
        op.on_punctuation(0, punct(1), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 2, "the committing punctuation reaches the new port");
        op.on_tuple(0, tuple(3), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 2, "both ports attached now");
        let commits = controller.commits();
        assert_eq!(commits.len(), 1);
        assert!(commits[0].attached && commits[0].port == 1);
    }

    #[test]
    fn scripted_detach_commits_at_its_boundary() {
        let controller = FanoutController::shared();
        let mut op = SharedFanout::new("fanout", schema(), 2).with_controller(controller.clone());
        controller.detach_at(1, 2);
        let mut ctx = OperatorContext::new();
        op.on_punctuation(0, punct(1), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 2, "boundary 1 < 2: still attached");
        op.on_punctuation(0, punct(2), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1, "committed: the detached port misses the cut");
        op.on_tuple(0, tuple(1), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);
        assert_eq!(
            controller.commits(),
            vec![FanoutCommit { port: 1, attached: false, boundary: 2 }]
        );
    }

    #[test]
    fn detach_releases_rounds_waiting_on_the_leaver() {
        let controller = FanoutController::shared();
        let mut op = SharedFanout::new("fanout", schema(), 2).with_controller(controller.clone());
        let mut ctx = OperatorContext::new();
        // Port 0 asserts; port 1 never does, then detaches.
        op.on_feedback(0, FeedbackPunctuation::assumed(seg_pattern(3), "qa"), &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty());
        controller.detach(1);
        op.on_punctuation(0, punct(1), &mut ctx).unwrap();
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 1, "unanimity over the remaining active sharer releases");
    }
}
