//! The executor-agnostic operator lifecycle.
//!
//! Both executors (sync and pooled) drive every operator through
//! the same **active → flush → drain → release** protocol, and the loss-free
//! feedback guarantee hangs on its details — so the protocol is implemented
//! exactly once, here, as a per-operator state machine ([`NodeMachine`]) over
//! an abstract endpoint surface ([`LifecyclePorts`]):
//!
//! * **Active** — drain pending control (with priority), then do one unit of
//!   data work: a source poll, or one sweep over the open inputs consuming at
//!   most one page each.  A bounded `budget` of data units per
//!   [`NodeMachine::step`] call lets the callers shape scheduling: the sync
//!   executor steps with budget 1 (deterministic round-robin), the pooled
//!   executor with a medium budget (cooperative time-slicing across a worker
//!   pool).
//! * **flush** — when every input has closed (or the source is exhausted, or
//!   shutdown arrived): `on_flush`, remaining partial pages, then data
//!   end-of-stream to every consumer.  Flushing is a transition, not a
//!   phase — it never suspends, and its sends ignore back-pressure credit.
//! * **Draining** — keep servicing downstream control (feedback sent from a
//!   consumer's own flush!) until every consumer has sent its control
//!   end-of-stream handshake or hung up.
//! * **Released** — send the control end-of-stream handshake upstream,
//!   releasing the producers from *their* drain phases in turn, and finish.
//!
//! [`NodeMachine::step`] reports one of three outcomes: `Yield` (made
//! progress or ran out of budget; step again when convenient), `Idle` (no
//! progress possible until an external event: data, credit, or control), and
//! `Done` (released).  What "wait for an external event" means is the
//! executor's business — the pooled executor parks the *task* and relies on
//! queue notifications, the sync executor uses `Idle` for stall detection.
//!
//! # Supervised recovery
//!
//! Because the lifecycle is implemented once, fault tolerance is too.  Every
//! operator callback is dispatched through [`guarded`], which catches both
//! `Err` returns and panics and names them after the operator — so both
//! executors report the identical `OperatorFailed` text.  An operator whose
//! plan declares [`RecoveryPolicy::Restart`] additionally runs under a
//! [`RecoveryState`]: checkpoints of [`crate::Operator::checkpoint`] are
//! taken at punctuation-epoch boundaries, input pages since the last
//! checkpoint are retained, and a failure triggers restore-and-replay *in
//! place* — the machine stays `Active`, its neighbours never notice.
//! Emissions regenerated during replay that were already delivered before the
//! crash are suppressed by per-slot counters, so downstream sees each page
//! exactly once.  A failure past the restart budget either aborts the run
//! (default) or — under quarantine, used by the multi-query manager —
//! tombstones the operator: its branch is drained (EOS downstream, Shutdown
//! upstream) while the rest of the plan keeps running.  See
//! `docs/RECOVERY.md` for the full protocol.

use crate::control::ControlMessage;
use crate::error::{EngineError, EngineResult};
use crate::executor::panic_detail;
use crate::metrics::OperatorMetrics;
use crate::operator::{Emission, Operator, OperatorContext, SourceState, StateEntry, StreamItem};
use crate::page::Page;
use crate::plan::RecoveryPolicy;
use crate::queue::{ControlPoll, DataPoll, QueueMessage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Retention-buffer backstop: a checkpoint is forced once this many pages
/// accumulate since the last one, bounding replay memory even when the
/// punctuation interval is large (or the stream carries no punctuation).
const MAX_RETAINED_PAGES: usize = 512;

/// Runs one operator callback under supervision: catches panics as well as
/// `Err` returns, accounts the time as busy, and names the failure after the
/// operator so every executor reports identical error text.
fn guarded<T>(
    metrics: &mut OperatorMetrics,
    body: impl FnOnce() -> EngineResult<T>,
) -> EngineResult<T> {
    let timer = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(body));
    metrics.busy += timer.elapsed();
    match outcome {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(err)) => Err(name_failure(&metrics.operator, err)),
        Err(payload) => Err(EngineError::OperatorFailed {
            operator: metrics.operator.clone(),
            detail: format!("operator panicked: {}", panic_detail(payload.as_ref())),
        }),
    }
}

/// Attributes an error to the operator unless it already carries a name
/// (nested failures keep the innermost attribution).
fn name_failure(operator: &str, err: EngineError) -> EngineError {
    match err {
        named @ EngineError::OperatorFailed { .. } => named,
        other => EngineError::OperatorFailed {
            operator: operator.to_string(),
            detail: other.to_string(),
        },
    }
}

/// The endpoint surface a [`NodeMachine`] drives an operator through.
///
/// Implementations view a node's *connected* connections as dense slot
/// arrays: input slots `0..in_count()` and output slots `0..out_count()`,
/// each mapped to the operator-declared port it serves.  The two executors
/// provide adapters over their native endpoints (sync: shared edge state;
/// pooled: notification-driven queues).
pub(crate) trait LifecyclePorts {
    /// Number of connected input slots.
    fn in_count(&self) -> usize;
    /// The declared input port an input slot serves.
    fn in_port(&self, slot: usize) -> usize;
    /// Whether the input slot still expects data (no end-of-stream seen).
    fn in_open(&self, slot: usize) -> bool;
    /// Marks an input slot as closed (end-of-stream or producer gone).
    fn close_in(&mut self, slot: usize);
    /// Non-blocking receive of one data message on an input slot.
    fn poll_in(&mut self, slot: usize) -> DataPoll;
    /// Pages currently waiting on an input slot's queue, sampled without
    /// consuming.  Feeds the `max_queue_depth` metric and the per-callback
    /// [`OperatorContext::queue_depth`] backlog signal on every executor.
    fn in_depth(&self, slot: usize) -> usize {
        let _ = slot;
        0
    }
    /// Maps a declared input port to its slot, if connected.
    fn in_slot(&self, port: usize) -> Option<usize>;
    /// Sends a control message upstream on an input slot.  Returns `false`
    /// when the producer is gone (the message is undeliverable).
    fn send_control(&mut self, slot: usize, message: ControlMessage) -> bool;

    /// Number of connected output slots.
    fn out_count(&self) -> usize;
    /// The declared output port an output slot serves.
    fn out_port(&self, slot: usize) -> usize;
    /// Maps a declared output port to its slot, if connected.
    fn out_slot(&self, port: usize) -> Option<usize>;
    /// Whether the output slot's consumer is still reading data.
    fn out_data_open(&self, slot: usize) -> bool;
    /// Pushes one stream item through the slot's page builder, delivering
    /// any page it completes.
    fn push_item(&mut self, slot: usize, item: StreamItem, metrics: &mut OperatorMetrics);
    /// Delivers a whole page intact (flushing the slot's partial builder
    /// first so emission order is preserved).
    fn push_page(&mut self, slot: usize, page: Page, metrics: &mut OperatorMetrics);
    /// Flushes the slot's partial page builder, delivering the remnant.
    fn flush_out(&mut self, slot: usize, metrics: &mut OperatorMetrics);
    /// Signals data end-of-stream on the slot.
    fn send_eos(&mut self, slot: usize);
    /// Whether the slot's consumer may still send control messages (its
    /// control end-of-stream handshake has not arrived, and it is alive).
    fn control_open(&self, slot: usize) -> bool;
    /// Marks the slot's control channel as closed.
    fn close_control(&mut self, slot: usize);
    /// Non-blocking receive of one control message on an output slot.
    fn poll_control(&mut self, slot: usize) -> ControlPoll;

    /// Back-pressure credit: whether the slot can absorb more data without
    /// exceeding its bound.  The pooled executor gates data steps on it; the
    /// single-threaded executor keeps the default (`true`), as its edge
    /// queues are unbounded.
    fn has_credit(&self, slot: usize) -> bool {
        let _ = slot;
        true
    }
}

/// Lifecycle phase (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Active,
    Draining,
    Released,
}

/// What a [`NodeMachine::step`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Nothing to do until an external event (data, credit, or control)
    /// arrives.
    Idle,
    /// Progress was made (or the budget ran out) and more work may remain;
    /// step again when convenient.
    Yield,
    /// The operator has released; it will never need stepping again.
    Done,
}

/// How a data-path failure was resolved (both variants mean the run itself
/// continues; an exhausted budget without quarantine propagates `Err`
/// instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureOutcome {
    /// The operator restored its last checkpoint and will replay the
    /// retained suffix.
    Restored,
    /// The operator was tombstoned: its branch drains, the run continues.
    Tombstoned,
}

/// Supervision state for one operator under a `Restart` recovery policy.
pub(crate) struct RecoveryState {
    max_restarts: u32,
    backoff: Duration,
    checkpoint_interval: u64,
    /// Restarts performed so far.
    attempts: u32,
    /// The last checkpoint (empty before the first one = initial state).
    snapshot: Vec<StateEntry>,
    /// Input pages consumed since the last checkpoint, in arrival order,
    /// keyed by input slot — the replay suffix.
    retained: Vec<(usize, Page)>,
    /// `Some(next index into retained)` while a replay is in progress.
    replay_cursor: Option<usize>,
    /// Whether the initial checkpoint (taken before any work) exists yet.
    /// Priming guarantees `restore` always receives a real snapshot — an
    /// operator that cannot reconstruct its initial state (a source whose
    /// input iterator is consumed) would otherwise be unrecoverable before
    /// its first epoch boundary.
    primed: bool,
    /// Punctuations consumed (sources: emitted) since the last checkpoint —
    /// the epoch trigger.
    puncts_since_checkpoint: u64,
    /// Per-output-slot count of data deliveries since the last checkpoint.
    pushed_out: Vec<u64>,
    /// Per-output-slot suppression credit: deliveries regenerated by replay
    /// that downstream already received and must not see again.
    skip_out: Vec<u64>,
    /// Per-input-slot count of upstream control sends since the last
    /// checkpoint (feedback and result requests share one ordered sequence).
    pushed_ctl: Vec<u64>,
    /// Per-input-slot suppression credit for regenerated control sends.
    skip_ctl: Vec<u64>,
    /// Fast-path summary of the credit vectors: true while any `skip_out` /
    /// `skip_ctl` credit is outstanding.  Steady state (no restart in
    /// progress) answers every per-emission suppression probe with this one
    /// branch instead of a vector lookup.
    skipping: bool,
}

impl std::fmt::Debug for RecoveryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryState")
            .field("max_restarts", &self.max_restarts)
            .field("backoff", &self.backoff)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("attempts", &self.attempts)
            .field("snapshot_entries", &self.snapshot.len())
            .field("retained_pages", &self.retained.len())
            .field("replay_cursor", &self.replay_cursor)
            .field("puncts_since_checkpoint", &self.puncts_since_checkpoint)
            .finish_non_exhaustive()
    }
}

impl RecoveryState {
    fn new(max_restarts: u32, backoff: Duration, checkpoint_interval: u64) -> Self {
        RecoveryState {
            max_restarts,
            backoff,
            checkpoint_interval,
            attempts: 0,
            snapshot: Vec::new(),
            retained: Vec::new(),
            replay_cursor: None,
            primed: false,
            puncts_since_checkpoint: 0,
            pushed_out: Vec::new(),
            skip_out: Vec::new(),
            pushed_ctl: Vec::new(),
            skip_ctl: Vec::new(),
            skipping: false,
        }
    }

    fn replaying(&self) -> bool {
        self.replay_cursor.is_some()
    }

    /// Consumes one unit of output-slot suppression credit, if any.
    #[inline]
    fn suppress_out(&mut self, slot: usize) -> bool {
        if !self.skipping {
            return false;
        }
        match self.skip_out.get_mut(slot) {
            Some(credit) if *credit > 0 => {
                *credit -= 1;
                if *credit == 0 {
                    self.refresh_skipping();
                }
                true
            }
            _ => false,
        }
    }

    /// Records one delivered data push on an output slot.
    #[inline]
    fn record_out(&mut self, slot: usize) {
        if self.pushed_out.len() <= slot {
            self.pushed_out.resize(slot + 1, 0);
        }
        self.pushed_out[slot] += 1;
    }

    /// Consumes one unit of control-send suppression credit, if any.
    fn suppress_ctl(&mut self, slot: usize) -> bool {
        if !self.skipping {
            return false;
        }
        match self.skip_ctl.get_mut(slot) {
            Some(credit) if *credit > 0 => {
                *credit -= 1;
                if *credit == 0 {
                    self.refresh_skipping();
                }
                true
            }
            _ => false,
        }
    }

    /// Records one delivered upstream control send on an input slot.
    fn record_ctl(&mut self, slot: usize) {
        if self.pushed_ctl.len() <= slot {
            self.pushed_ctl.resize(slot + 1, 0);
        }
        self.pushed_ctl[slot] += 1;
    }

    /// Recomputes the `skipping` summary after the credit vectors change.
    fn refresh_skipping(&mut self) {
        self.skipping =
            self.skip_out.iter().any(|c| *c > 0) || self.skip_ctl.iter().any(|c| *c > 0);
    }
}

/// Per-operator lifecycle state machine, shared by both executors.
#[derive(Debug)]
pub(crate) struct NodeMachine {
    phase: Phase,
    is_source: bool,
    shutdown: bool,
    /// Whether a failure past the restart budget tombstones this operator
    /// (draining its branch) instead of aborting the run.
    quarantine: bool,
    recovery: Option<RecoveryState>,
}

impl NodeMachine {
    /// Creates the machine with a recovery policy: `Restart` arms
    /// checkpoint-and-replay supervision, `quarantine` turns budget
    /// exhaustion into a branch tombstone instead of a run abort.
    pub(crate) fn supervised(
        is_source: bool,
        policy: RecoveryPolicy,
        quarantine: bool,
        checkpoint_interval: u64,
    ) -> Self {
        let recovery = match policy {
            RecoveryPolicy::FailFast => None,
            RecoveryPolicy::Restart { max_restarts, backoff } => {
                Some(RecoveryState::new(max_restarts, backoff, checkpoint_interval))
            }
        };
        NodeMachine { phase: Phase::Active, is_source, shutdown: false, quarantine, recovery }
    }

    /// True once the operator has released.
    pub(crate) fn is_done(&self) -> bool {
        self.phase == Phase::Released
    }

    /// Advances the operator: control first (with priority), then up to
    /// `budget` units of data work (a source poll, one sweep over the open
    /// inputs, or one replayed page during recovery).  Returns how the call
    /// ended; errors arrive already named after the operator.
    pub(crate) fn step<P: LifecyclePorts>(
        &mut self,
        op: &mut dyn Operator,
        ports: &mut P,
        metrics: &mut OperatorMetrics,
        ctx: &mut OperatorContext,
        budget: usize,
    ) -> EngineResult<StepOutcome> {
        let mut spent = 0usize;
        let mut acted = false;
        loop {
            match self.phase {
                Phase::Active => {
                    if let Some(rec) = self.recovery.as_mut() {
                        if !rec.primed {
                            rec.primed = true;
                            rec.snapshot = guarded(metrics, || op.checkpoint())?;
                        }
                    }
                    if process_control(op, ports, metrics, ctx, false, &mut self.shutdown)? {
                        acted = true;
                    }
                    if self.shutdown {
                        // Downstream is tearing the query down: relay
                        // source-ward, then wind down through the normal
                        // flush → drain → release path.
                        for slot in 0..ports.in_count() {
                            ports.send_control(slot, ControlMessage::Shutdown);
                        }
                        self.flush(op, ports, metrics, ctx)?;
                        acted = true;
                        continue;
                    }
                    if spent >= budget {
                        return Ok(StepOutcome::Yield);
                    }
                    // Cooperative back-pressure (pooled executor): produce
                    // nothing while any live output lacks credit.
                    let credit = (0..ports.out_count())
                        .all(|s| !ports.out_data_open(s) || ports.has_credit(s));
                    if !credit {
                        return Ok(if acted { StepOutcome::Yield } else { StepOutcome::Idle });
                    }

                    // Recovery replay has priority over fresh input: the
                    // operator must re-reach its pre-failure position before
                    // consuming anything new, or ordering breaks.
                    if self.recovery.as_ref().is_some_and(RecoveryState::replaying)
                        && self.replay_one(op, ports, metrics, ctx)?
                    {
                        spent += 1;
                        acted = true;
                        continue;
                    }
                    // Falls through here once the replay suffix is exhausted,
                    // resuming normal work.

                    if self.is_source {
                        let before_puncts = metrics.punctuations_out;
                        let state = match guarded(metrics, || op.poll_source(ctx)) {
                            Ok(state) => state,
                            Err(err) => {
                                self.handle_data_failure(err, op, ports, metrics, ctx)?;
                                spent += 1;
                                acted = true;
                                continue;
                            }
                        };
                        route_node(ctx, ports, metrics, false, self.recovery.as_mut());
                        if let Some(rec) = self.recovery.as_mut() {
                            // Sources have no input punctuation; their epoch
                            // trigger is the punctuation they emit.
                            rec.puncts_since_checkpoint += metrics.punctuations_out - before_puncts;
                        }
                        self.maybe_checkpoint(op, metrics)?;
                        spent += 1;
                        acted = true;
                        if ports.out_count() > 0
                            && (0..ports.out_count()).all(|s| !ports.out_data_open(s))
                        {
                            // Every consumer hung up; nothing downstream
                            // will read further output.
                            self.flush(op, ports, metrics, ctx)?;
                            continue;
                        }
                        match state {
                            SourceState::Producing => continue,
                            SourceState::Exhausted | SourceState::NotASource => {
                                self.flush(op, ports, metrics, ctx)?;
                                continue;
                            }
                        }
                    }

                    // The operator paused its input (and resumes from a
                    // control callback, which wakes the node).
                    if ctx.input_held() {
                        return Ok(if acted { StepOutcome::Yield } else { StepOutcome::Idle });
                    }

                    // Non-source: sweep the open inputs, consuming at most
                    // one page each.
                    let mut progressed = false;
                    let mut interrupted = false;
                    for slot in 0..ports.in_count() {
                        if !ports.in_open(slot) {
                            continue;
                        }
                        // Sample the backlog before consuming from it: the
                        // high-watermark metric and the operator-visible
                        // back-pressure signal, on every executor.
                        let depth = ports.in_depth(slot) as u64;
                        metrics.max_queue_depth = metrics.max_queue_depth.max(depth);
                        ctx.set_queue_depth(depth);
                        match ports.poll_in(slot) {
                            DataPoll::Message(QueueMessage::Page(mut page)) => {
                                progressed = true;
                                metrics.pages_in += 1;
                                metrics.tuples_in += page.tuple_count() as u64;
                                let punctuations = page.punctuation_count() as u64;
                                metrics.punctuations_in += punctuations;
                                let port = ports.in_port(slot);
                                if let Some(rec) = self.recovery.as_mut() {
                                    // Retain before dispatch: a crash inside
                                    // the callback must still replay this
                                    // page.  `share` keeps retention O(1)
                                    // per page — the retained copy and the
                                    // dispatched page reference one row
                                    // allocation.
                                    rec.retained.push((slot, page.share()));
                                }
                                match guarded(metrics, || op.on_page(port, page, ctx)) {
                                    Ok(()) => {
                                        route_node(
                                            ctx,
                                            ports,
                                            metrics,
                                            false,
                                            self.recovery.as_mut(),
                                        );
                                        if let Some(rec) = self.recovery.as_mut() {
                                            rec.puncts_since_checkpoint += punctuations;
                                        }
                                        self.maybe_checkpoint(op, metrics)?;
                                    }
                                    Err(err) => {
                                        self.handle_data_failure(err, op, ports, metrics, ctx)?;
                                        // Whether restored (replay pending)
                                        // or tombstoned (now draining), the
                                        // sweep must not continue.
                                        interrupted = true;
                                        break;
                                    }
                                }
                            }
                            DataPoll::Message(QueueMessage::EndOfStream) | DataPoll::Closed => {
                                progressed = true;
                                ports.close_in(slot);
                            }
                            DataPoll::Empty => {}
                        }
                    }
                    if interrupted {
                        spent += 1;
                        acted = true;
                        continue;
                    }
                    if (0..ports.in_count()).all(|s| !ports.in_open(s)) {
                        self.flush(op, ports, metrics, ctx)?;
                        acted = true;
                        continue;
                    }
                    if !progressed {
                        return Ok(if acted { StepOutcome::Yield } else { StepOutcome::Idle });
                    }
                    acted = true;
                    spent += 1;
                }
                Phase::Draining => {
                    if process_control(op, ports, metrics, ctx, true, &mut self.shutdown)? {
                        acted = true;
                        continue;
                    }
                    if (0..ports.out_count()).all(|s| !ports.control_open(s)) {
                        // Release: promise the upstream producers that no
                        // further control will arrive on these connections,
                        // ending their drain phases in turn.
                        for slot in 0..ports.in_count() {
                            ports.send_control(slot, ControlMessage::EndOfStream);
                        }
                        self.phase = Phase::Released;
                        return Ok(StepOutcome::Done);
                    }
                    return Ok(if acted { StepOutcome::Yield } else { StepOutcome::Idle });
                }
                Phase::Released => return Ok(StepOutcome::Done),
            }
        }
    }

    /// Re-dispatches one retained page during recovery replay.  Returns
    /// `false` when the replay suffix is exhausted (the cursor is cleared and
    /// normal consumption may resume).
    fn replay_one<P: LifecyclePorts>(
        &mut self,
        op: &mut dyn Operator,
        ports: &mut P,
        metrics: &mut OperatorMetrics,
        ctx: &mut OperatorContext,
    ) -> EngineResult<bool> {
        let rec = self.recovery.as_mut().expect("replay requires a recovery state");
        let cursor = rec.replay_cursor.expect("replay_one requires an active cursor");
        if cursor >= rec.retained.len() {
            rec.replay_cursor = None;
            return Ok(false);
        }
        let (slot, page) = {
            let (slot, page) = &rec.retained[cursor];
            (*slot, page.clone())
        };
        rec.replay_cursor = Some(cursor + 1);
        // Replayed pages count as replay work, not fresh input — the
        // pages_in / tuples_in counters already saw them.
        metrics.tuples_replayed += page.tuple_count() as u64;
        let port = ports.in_port(slot);
        match guarded(metrics, || op.on_page(port, page, ctx)) {
            Ok(()) => {
                route_node(ctx, ports, metrics, false, self.recovery.as_mut());
                Ok(true)
            }
            Err(err) => {
                // Crashing again mid-replay burns another restart (or the
                // budget): restore rewinds the cursor to 0.
                self.handle_data_failure(err, op, ports, metrics, ctx)?;
                Ok(true)
            }
        }
    }

    /// Resolves a data-path failure: restart in place when the budget allows,
    /// tombstone under quarantine, abort otherwise.
    fn handle_data_failure<P: LifecyclePorts>(
        &mut self,
        err: EngineError,
        op: &mut dyn Operator,
        ports: &mut P,
        metrics: &mut OperatorMetrics,
        ctx: &mut OperatorContext,
    ) -> EngineResult<FailureOutcome> {
        // Whatever the failed callback half-emitted must never reach
        // downstream: the replay will regenerate it deterministically.
        ctx.clear();
        let can_restart = self.recovery.as_ref().is_some_and(|r| r.attempts < r.max_restarts);
        if !can_restart {
            if self.quarantine {
                self.tombstone(err, ports, metrics, ctx);
                return Ok(FailureOutcome::Tombstoned);
            }
            return Err(err);
        }
        let rec = self.recovery.as_mut().expect("can_restart implies a recovery state");
        rec.attempts += 1;
        metrics.restarts += 1;
        if !rec.backoff.is_zero() {
            std::thread::sleep(rec.backoff * rec.attempts);
        }
        // `StateEntry` payloads are not clonable, so restoring consumes the
        // snapshot; a fresh checkpoint of the just-restored operator refills
        // it for the *next* failure.
        let snapshot = std::mem::take(&mut rec.snapshot);
        let restored = guarded(metrics, || op.restore(snapshot))
            .and_then(|()| guarded(metrics, || op.checkpoint()));
        match restored {
            Ok(refreshed) => {
                let rec = self.recovery.as_mut().expect("recovery state persists");
                rec.snapshot = refreshed;
                // Everything delivered since the checkpoint will be
                // regenerated by the replay and must be suppressed.  The
                // pushed counters keep accumulating across nested restarts
                // (they reset only at a checkpoint).
                rec.skip_out = rec.pushed_out.clone();
                rec.skip_ctl = rec.pushed_ctl.clone();
                rec.refresh_skipping();
                rec.replay_cursor = Some(0);
                Ok(FailureOutcome::Restored)
            }
            Err(restore_err) => {
                // A broken restore path is unrecoverable regardless of the
                // remaining budget.
                if self.quarantine {
                    self.tombstone(restore_err, ports, metrics, ctx);
                    Ok(FailureOutcome::Tombstoned)
                } else {
                    Err(restore_err)
                }
            }
        }
    }

    /// Tombstones a failed operator: records the terminal failure, drains
    /// its branch (EOS downstream, Shutdown upstream) and enters the drain
    /// phase, letting the rest of the plan finish normally.  The operator's
    /// callbacks are never invoked again (no `on_flush` — it is broken).
    fn tombstone<P: LifecyclePorts>(
        &mut self,
        err: EngineError,
        ports: &mut P,
        metrics: &mut OperatorMetrics,
        ctx: &mut OperatorContext,
    ) {
        metrics.failure = Some(err.to_string());
        ctx.clear();
        for slot in 0..ports.out_count() {
            ports.flush_out(slot, metrics);
            ports.send_eos(slot);
        }
        for slot in 0..ports.in_count() {
            ports.send_control(slot, ControlMessage::Shutdown);
            ports.close_in(slot);
        }
        self.phase = Phase::Draining;
    }

    /// Takes a checkpoint when the punctuation epoch (or the retention
    /// backstop) says one is due.  Never fires mid-replay — the snapshot
    /// must correspond to a fully caught-up operator.
    fn maybe_checkpoint(
        &mut self,
        op: &mut dyn Operator,
        metrics: &mut OperatorMetrics,
    ) -> EngineResult<()> {
        let Some(rec) = self.recovery.as_mut() else { return Ok(()) };
        if rec.replay_cursor.is_some() {
            return Ok(());
        }
        let due = (rec.checkpoint_interval > 0
            && rec.puncts_since_checkpoint >= rec.checkpoint_interval)
            || rec.retained.len() >= MAX_RETAINED_PAGES;
        if !due {
            return Ok(());
        }
        rec.snapshot = guarded(metrics, || op.checkpoint())?;
        rec.retained.clear();
        rec.puncts_since_checkpoint = 0;
        rec.pushed_out.iter_mut().for_each(|c| *c = 0);
        rec.skip_out.iter_mut().for_each(|c| *c = 0);
        rec.pushed_ctl.iter_mut().for_each(|c| *c = 0);
        rec.skip_ctl.iter_mut().for_each(|c| *c = 0);
        rec.skipping = false;
        metrics.checkpoints_taken += 1;
        Ok(())
    }

    /// The flush transition: `on_flush`, remaining partial pages, data
    /// end-of-stream everywhere, then enter the drain phase.  Never
    /// suspends; its sends ignore credit.
    fn flush<P: LifecyclePorts>(
        &mut self,
        op: &mut dyn Operator,
        ports: &mut P,
        metrics: &mut OperatorMetrics,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        guarded(metrics, || op.on_flush(ctx))?;
        route_node(ctx, ports, metrics, false, self.recovery.as_mut());
        for slot in 0..ports.out_count() {
            ports.flush_out(slot, metrics);
            ports.send_eos(slot);
        }
        self.phase = Phase::Draining;
        Ok(())
    }
}

/// Drains every pending control message from downstream, dispatching
/// feedback and result requests to the operator with priority.  Returns
/// whether anything was processed.
///
/// Control-path emissions route without recovery suppression: they are not
/// part of the retained-page replay, so feedback-receiving operators cannot
/// be restarted (see [`crate::Operator::restartable`]).  A `Shutdown` is
/// offered to [`crate::Operator::absorb_shutdown`] first — a shared fan-out
/// absorbs it per-port (detaching one quarantined consumer) instead of
/// tearing the whole operator down.
pub(crate) fn process_control<P: LifecyclePorts>(
    op: &mut dyn Operator,
    ports: &mut P,
    metrics: &mut OperatorMetrics,
    ctx: &mut OperatorContext,
    after_eos: bool,
    shutdown: &mut bool,
) -> EngineResult<bool> {
    let mut progressed = false;
    for slot in 0..ports.out_count() {
        while ports.control_open(slot) {
            match ports.poll_control(slot) {
                ControlPoll::Message(ControlMessage::Feedback(fb)) => {
                    progressed = true;
                    metrics.feedback_in += 1;
                    let port = ports.out_port(slot);
                    guarded(metrics, || op.on_feedback(port, fb, ctx))?;
                    route_node(ctx, ports, metrics, after_eos, None);
                }
                ControlPoll::Message(ControlMessage::RequestResults) => {
                    progressed = true;
                    let port = ports.out_port(slot);
                    guarded(metrics, || op.on_request_results(port, ctx))?;
                    route_node(ctx, ports, metrics, after_eos, None);
                }
                ControlPoll::Message(ControlMessage::Shutdown) => {
                    progressed = true;
                    let port = ports.out_port(slot);
                    let absorbed = guarded(metrics, || Ok(op.absorb_shutdown(port, ctx)))?;
                    // Absorbing may release pending feedback to relay (a
                    // fan-out detach re-evaluates its unanimity lattice) —
                    // route it even when the shutdown still propagates.
                    route_node(ctx, ports, metrics, after_eos, None);
                    if !absorbed {
                        *shutdown = true;
                    }
                }
                ControlPoll::Message(ControlMessage::EndOfStream) | ControlPoll::Closed => {
                    progressed = true;
                    ports.close_control(slot);
                }
                ControlPoll::Empty => break,
            }
        }
    }
    Ok(progressed)
}

/// Routes one operator's buffered emissions and feedback through its ports.
/// `after_eos` marks routing performed during the drain phase: data
/// end-of-stream has already been sent, so late data emissions (from
/// post-flush feedback callbacks) are counted but cannot be delivered.
/// Undeliverable feedback — unconnected port, or upstream gone — is counted
/// in `feedback_dropped`, never silently lost.
///
/// With a `recovery` state attached, deliveries the replay regenerates are
/// suppressed against the per-slot skip credits (without re-counting them in
/// the metrics), and fresh deliveries are recorded so a later restart knows
/// what downstream has already seen.
pub(crate) fn route_node<P: LifecyclePorts>(
    ctx: &mut OperatorContext,
    ports: &mut P,
    metrics: &mut OperatorMetrics,
    after_eos: bool,
    mut recovery: Option<&mut RecoveryState>,
) {
    let replaying = recovery.as_deref().is_some_and(RecoveryState::replaying);
    // The emission drain is the per-tuple hot path (operators like SELECT
    // emit item-by-item), so it is specialized on the recovery state once
    // per call rather than re-testing the `Option` on every emission: the
    // fail-fast arm is the pre-supervision path unchanged, and the
    // supervised arm borrows the state directly.
    match recovery.as_deref_mut() {
        None => ctx.drain_emissions(|port, emission| {
            let deliverable =
                ports.out_slot(port).filter(|&s| !after_eos && ports.out_data_open(s));
            match emission {
                Emission::Item(item) => {
                    match &item {
                        StreamItem::Tuple(_) => metrics.tuples_out += 1,
                        StreamItem::Punctuation(_) => metrics.punctuations_out += 1,
                    }
                    if let Some(slot) = deliverable {
                        ports.push_item(slot, item, metrics);
                    }
                    // Undeliverable (unconnected sink side-channel, hung-up
                    // consumer, post-EOS emission): counted and dropped.
                }
                Emission::Page(page) => {
                    metrics.tuples_out += page.tuple_count() as u64;
                    metrics.punctuations_out += page.punctuation_count() as u64;
                    if let Some(slot) = deliverable {
                        ports.push_page(slot, page, metrics);
                    }
                }
            }
        }),
        Some(rec) => ctx.drain_emissions(|port, emission| {
            let deliverable =
                ports.out_slot(port).filter(|&s| !after_eos && ports.out_data_open(s));
            match emission {
                Emission::Item(item) => {
                    if let Some(slot) = deliverable {
                        if rec.suppress_out(slot) {
                            return;
                        }
                        match &item {
                            StreamItem::Tuple(_) => metrics.tuples_out += 1,
                            StreamItem::Punctuation(_) => metrics.punctuations_out += 1,
                        }
                        ports.push_item(slot, item, metrics);
                        rec.record_out(slot);
                    } else if !replaying {
                        // Count and drop — but only once, not again when a
                        // replay regenerates the emission.
                        match &item {
                            StreamItem::Tuple(_) => metrics.tuples_out += 1,
                            StreamItem::Punctuation(_) => metrics.punctuations_out += 1,
                        }
                    }
                }
                Emission::Page(page) => {
                    if let Some(slot) = deliverable {
                        if rec.suppress_out(slot) {
                            return;
                        }
                        metrics.tuples_out += page.tuple_count() as u64;
                        metrics.punctuations_out += page.punctuation_count() as u64;
                        ports.push_page(slot, page, metrics);
                        rec.record_out(slot);
                    } else if !replaying {
                        metrics.tuples_out += page.tuple_count() as u64;
                        metrics.punctuations_out += page.punctuation_count() as u64;
                    }
                }
            }
        }),
    }
    for (input, fb) in ctx.take_feedback() {
        match ports.in_slot(input) {
            Some(slot) => {
                if recovery.as_deref_mut().is_some_and(|r| r.suppress_ctl(slot)) {
                    continue;
                }
                if ports.send_control(slot, ControlMessage::Feedback(fb)) {
                    metrics.feedback_out += 1;
                    if let Some(rec) = recovery.as_deref_mut() {
                        rec.record_ctl(slot);
                    }
                } else {
                    metrics.feedback_dropped += 1;
                }
            }
            None => {
                if !replaying {
                    metrics.feedback_dropped += 1;
                }
            }
        }
    }
    for input in ctx.take_result_requests() {
        if let Some(slot) = ports.in_slot(input) {
            if recovery.as_deref_mut().is_some_and(|r| r.suppress_ctl(slot)) {
                continue;
            }
            if ports.send_control(slot, ControlMessage::RequestResults) {
                if let Some(rec) = recovery.as_deref_mut() {
                    rec.record_ctl(slot);
                }
            }
        }
    }
}
