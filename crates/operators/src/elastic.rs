//! Elastic repartitioning for the shuffle→replicas→merge sandwich.
//!
//! A partitioned stage built by
//! [`elastic_stage`](crate::fluent::StreamOps::elastic_stage) can change its
//! *active* replica count at runtime without changing the query result.  The
//! stage is built at its maximum width; at any moment only replicas
//! `0..active` receive data, and the stage's [`Shuffle`](crate::Shuffle) is
//! its one coordinator: it decides, cuts and commits.
//!
//! The shuffle counts the punctuation boundaries of its own input and, at
//! the end of each page that carried one, asks its [`ElasticPolicy`] for a
//! width (an adaptive policy reads the shuffle's input queue depth).  A
//! decision that changes the width runs one three-step handshake, and at
//! most one runs at a time:
//!
//! 1. **Migrate** — the shuffle emits a [`StageDirective::Migrate`] marker
//!    punctuation to *every* replica (a consistent cut: each replica sees it
//!    after all earlier tuples and before all later ones) and holds its
//!    input.  Each [`ElasticReplica`] exports its keyed state into the
//!    controller's migration pool and forwards the marker downstream.
//! 2. **Ack** — each replica acknowledges upstream with
//!    [`StageDirective::Ack`] on the feedback channel.
//! 3. **Commit** — once every replica has acknowledged, the shuffle switches
//!    its routing width, emits a [`StageDirective::Commit`] marker, and
//!    resumes its input under the new routing.  Each replica reclaims from
//!    the pool exactly the keys that now hash to it.
//!
//! If the shuffle is shut down mid-handshake it commits the *old* width
//! instead (a cancel): every key reclaims its own exporter's state and the
//! run is byte-identical to one with no resize at all.
//!
//! Dormant replicas stay connected and receive every progress punctuation, so
//! the stage's [`Merge`](crate::Merge) combines watermarks over all of its
//! inputs with no notion of membership; the markers carry no watermark and
//! the merge absorbs them.  Because the cut is aligned with the stream
//! (markers are ordinary punctuations in the data channel) and state moves
//! whole groups at the cut, a resized run produces exactly the multiset of
//! tuples a fixed-partition run produces — the property
//! `tests/elastic_parity.rs` pins on both executors.

use dsms_engine::{ElasticStats, EngineResult, Operator, OperatorContext, Page, StateEntry};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles};
use dsms_punctuation::{Pattern, Punctuation, StageDirective};
use dsms_types::{FixedHasher, Value};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The partition a key routes to at the given width.  Must agree with
/// [`Shuffle::partition_of`](crate::Shuffle::partition_of): the same
/// fixed-seed hash over the key values **in shuffle key order**, reduced
/// modulo the width — stateful replicas must therefore export
/// [`StateEntry::key`] values in that same order.
pub fn route_values(values: &[Value], partitions: usize) -> usize {
    let mut hasher = FixedHasher::new();
    for value in values {
        value.hash(&mut hasher);
    }
    (hasher.finish() % partitions.max(1) as u64) as usize
}

/// Shared state of one elastic stage: the migration pool keyed state parks
/// in between Migrate and Commit, and the stage's [`ElasticStats`].
///
/// One controller serves exactly one stage; share it via
/// [`ElasticController::shared`].
#[derive(Default)]
pub struct ElasticController {
    /// State exported at the Migrate cut, tagged with the exporting replica.
    pool: Mutex<Vec<(usize, StateEntry)>>,
    stats: Mutex<ElasticStats>,
}

impl ElasticController {
    /// Creates a controller behind an [`Arc`] for sharing across the stage.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Parks a replica's exported state in the migration pool.
    pub fn park(&self, from: usize, entries: Vec<StateEntry>) {
        let mut pool = self.pool.lock();
        pool.extend(entries.into_iter().map(|entry| (from, entry)));
    }

    /// Drains from the pool every entry that routes to `replica` at the
    /// committed width, returning the entries and how many of them *moved*
    /// (were exported by a different replica).
    pub fn reclaim(&self, replica: usize, partitions: usize) -> (Vec<StateEntry>, u64) {
        let mut pool = self.pool.lock();
        let mut mine = Vec::new();
        let mut migrated = 0;
        let mut index = 0;
        while index < pool.len() {
            if route_values(&pool[index].1.key, partitions) == replica {
                let (from, entry) = pool.swap_remove(index);
                if from != replica {
                    migrated += 1;
                }
                mine.push(entry);
            } else {
                index += 1;
            }
        }
        (mine, migrated)
    }

    /// Adds to the stage-wide migrated-groups counter.
    pub fn record_migrated(&self, groups: u64) {
        self.stats.lock().migrated_groups += groups;
    }

    /// Records a committed resize to the given width.
    pub fn record_resize(&self, epoch: u64, partitions: usize) {
        let mut stats = self.stats.lock();
        stats.resizes += 1;
        stats.epochs.push((epoch, partitions));
    }

    /// Records a resize cancelled by end-of-stream.
    pub fn record_cancel(&self) {
        self.stats.lock().cancelled += 1;
    }

    /// Records scheduled resizes the stream ended before reaching.
    pub fn record_unreached(&self, moves: u64) {
        self.stats.lock().unreached += moves;
    }

    /// A snapshot of the stage's statistics.
    pub fn stats(&self) -> ElasticStats {
        self.stats.lock().clone()
    }
}

/// When and how far an elastic shuffle resizes its stage.
#[derive(Debug, Clone)]
pub enum ElasticPolicy {
    /// Resize to the given widths once the shuffle has seen the given numbers
    /// of punctuations on its input (a deterministic schedule, used by the
    /// parity tests).  Entries must be in ascending punctuation order; moves
    /// due at the same boundary commit back to back, and moves the stream
    /// never reaches are counted as unreached at end-of-stream.
    Scripted(Vec<(u64, usize)>),
    /// Sample the shuffle's input queue depth at every punctuation boundary:
    /// at or above `high` pages, scale out to `spike_width`; at or below
    /// `low`, scale in to `idle_width`.
    Adaptive {
        /// Queue depth at or above which the stage scales out.
        high: u64,
        /// Queue depth at or below which the stage scales in.
        low: u64,
        /// Width used under load spikes.
        spike_width: usize,
        /// Width used when the queue drains.
        idle_width: usize,
    },
}

impl ElasticPolicy {
    /// The width the stage should run at, given the punctuations seen so far,
    /// the queue depth sampled at this boundary, and the current width.
    /// Returns `None` when no change is called for.  `load` is `None` when
    /// the shuffle asks again right after a commit, with no new boundary: a
    /// schedule may still have a move due, but there is no fresh sample to
    /// adapt to (the held input inflated the queue).  `&mut` because a
    /// scripted schedule consumes its entries.
    pub fn decide(&mut self, punctuations: u64, load: Option<u64>, active: usize) -> Option<usize> {
        match self {
            ElasticPolicy::Scripted(schedule) => {
                if schedule.first().is_some_and(|(at, _)| punctuations >= *at) {
                    let (_, target) = schedule.remove(0);
                    (target != active).then_some(target)
                } else {
                    None
                }
            }
            ElasticPolicy::Adaptive { high, low, spike_width, idle_width } => {
                let load = load?;
                if load >= *high && active != *spike_width {
                    Some(*spike_width)
                } else if load <= *low && active != *idle_width {
                    Some(*idle_width)
                } else {
                    None
                }
            }
        }
    }

    /// Scheduled moves still waiting for their boundary.
    pub(crate) fn unreached(&self) -> u64 {
        match self {
            ElasticPolicy::Scripted(schedule) => schedule.len() as u64,
            ElasticPolicy::Adaptive { .. } => 0,
        }
    }
}

/// Wraps one replica of an elastic stage, handling migration markers on its
/// behalf: [`Migrate`](StageDirective::Migrate) exports the inner operator's
/// keyed state into the controller pool and acknowledges upstream;
/// [`Commit`](StageDirective::Commit) reclaims and re-imports the keys that
/// hash to this replica at the committed width.  It adds the relayer role to
/// the wrapped operator; everything else is delegated untouched.
pub struct ElasticReplica<O> {
    inner: O,
    index: usize,
    controller: Arc<ElasticController>,
}

impl<O: Operator> ElasticReplica<O> {
    /// Wraps replica `index` of a stage coordinated by `controller`.
    pub fn new(inner: O, index: usize, controller: Arc<ElasticController>) -> Self {
        ElasticReplica { inner, index, controller }
    }

    fn handle_directive(
        &mut self,
        directive: StageDirective,
        marker: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        match directive {
            StageDirective::Migrate { epoch, .. } => {
                let exported = self.inner.export_state();
                self.controller.park(self.index, exported);
                // The replica's whole input, or the marker's schema if it
                // declares none.
                let pattern = self
                    .inner
                    .schema_in(0)
                    .map_or_else(|| marker.pattern().clone(), Pattern::all_wildcards);
                ctx.send_feedback(
                    0,
                    FeedbackPunctuation::desired(pattern, self.inner.name())
                        .with_directive(StageDirective::Ack { epoch, replica: self.index }),
                );
            }
            StageDirective::Commit { partitions, .. } => {
                let (entries, migrated) = self.controller.reclaim(self.index, partitions);
                self.controller.record_migrated(migrated);
                if !entries.is_empty() {
                    self.inner.import_state(entries)?;
                }
            }
            // Ack rides the feedback channel, never the data channel; an
            // arrival here is a no-op.
            StageDirective::Ack { .. } => {}
        }
        // Forward the marker so the cut stays consistent through the stage
        // (the merge absorbs it).
        ctx.emit_punctuation(0, marker);
        Ok(())
    }
}

impl<O: Operator> dsms_engine::Wrapper for ElasticReplica<O> {
    type Inner = O;

    fn inner(&self) -> &O {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        self.inner.feedback_roles().union(FeedbackRoles::relayer())
    }

    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        // Migration markers must not reach the inner operator's batched
        // fast path (it would forward them blindly without exporting).
        // Pages carrying one are unpacked item by item; everything else
        // takes the inner fast path untouched.
        if !page.punctuations().any(|p| p.stage_directive().is_some()) {
            return self.inner.on_page(input, page, ctx);
        }
        dsms_engine::replay_page(self, input, page, ctx)
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        match punctuation.stage_directive() {
            Some(directive) => self.handle_directive(directive, punctuation, ctx),
            None => self.inner.on_punctuation(input, punctuation, ctx),
        }
    }

    /// Never restartable, even over a restartable inner operator: migration
    /// directives mutate the *shared* [`ElasticController`], so replaying the
    /// punctuation that carried them would double-apply handoffs against
    /// sibling replicas.
    fn restartable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::StreamItem;
    use dsms_types::{DataType, Schema, SchemaRef, Tuple};

    fn schema() -> SchemaRef {
        Schema::shared(&[("ts", DataType::Timestamp), ("key", DataType::Int)])
    }

    fn entry(key: i64) -> StateEntry {
        StateEntry { key: vec![Value::Int(key)], payload: Box::new(key) }
    }

    #[test]
    fn route_values_matches_the_shuffle_route() {
        let shuffle = crate::Shuffle::new("s", schema(), &["key"], 4).unwrap();
        for key in 0..64 {
            let tuple = Tuple::new(
                schema(),
                vec![Value::Timestamp(dsms_types::Timestamp::from_secs(0)), Value::Int(key)],
            );
            assert_eq!(
                route_values(&[Value::Int(key)], 4),
                shuffle.partition_of(&tuple).unwrap(),
                "key {key}: replica reclaim must agree with shuffle routing"
            );
        }
    }

    #[test]
    fn pool_reclaim_partitions_the_parked_state_exactly() {
        let controller = ElasticController::shared();
        controller.park(0, (0..40).map(entry).collect());
        let mut total = 0;
        let mut migrated_total = 0;
        for replica in 0..4 {
            let (mine, migrated) = controller.reclaim(replica, 4);
            for e in &mine {
                assert_eq!(route_values(&e.key, 4), replica);
            }
            total += mine.len();
            migrated_total += migrated;
        }
        assert_eq!(total, 40, "every parked entry reclaimed exactly once");
        assert!(migrated_total > 0, "widening from one exporter moves groups");
        assert_eq!(controller.reclaim(0, 1).0.len(), 0, "pool fully drained");
    }

    #[test]
    fn reclaim_at_the_old_width_returns_state_to_its_exporter() {
        let controller = ElasticController::shared();
        // Two replicas each export the keys they own at width 2.
        for key in 0..20 {
            let owner = route_values(&[Value::Int(key)], 2);
            controller.park(owner, vec![entry(key)]);
        }
        for replica in 0..2 {
            let (_, migrated) = controller.reclaim(replica, 2);
            assert_eq!(migrated, 0, "cancelled resize moves nothing");
        }
    }

    /// Counts whole pages and per-item tuples separately.
    #[derive(Default)]
    struct Batching {
        pages: usize,
        tuples: usize,
    }

    impl Operator for Batching {
        fn name(&self) -> &str {
            "batching"
        }
        fn inputs(&self) -> usize {
            1
        }
        fn on_tuple(&mut self, _: usize, _: Tuple, _: &mut OperatorContext) -> EngineResult<()> {
            self.tuples += 1;
            Ok(())
        }
        fn on_page(&mut self, _: usize, _: Page, _: &mut OperatorContext) -> EngineResult<()> {
            self.pages += 1;
            Ok(())
        }
    }

    #[test]
    fn replica_hands_marker_free_pages_to_the_inner_batch_path() {
        let ts = dsms_types::Timestamp::from_secs(1);
        let page = |middle| {
            let tuple =
                StreamItem::Tuple(Tuple::new(schema(), vec![Value::Timestamp(ts), Value::Int(1)]));
            Page::from_items(vec![tuple.clone(), StreamItem::Punctuation(middle), tuple])
        };
        let mut replica = ElasticReplica::new(Batching::default(), 0, ElasticController::shared());
        let mut ctx = OperatorContext::new();

        let progress = Punctuation::progress(schema(), "ts", ts).unwrap();
        Operator::on_page(&mut replica, 0, page(progress), &mut ctx).unwrap();
        assert_eq!((replica.inner.pages, replica.inner.tuples), (1, 0), "page passed intact");

        let marker =
            Punctuation::directive(schema(), StageDirective::Migrate { epoch: 1, partitions: 2 });
        Operator::on_page(&mut replica, 0, page(marker), &mut ctx).unwrap();
        assert_eq!((replica.inner.pages, replica.inner.tuples), (1, 2), "marker page unpacked");
        assert_eq!(ctx.take_emitted().len(), 1, "the marker is forwarded");
        let ack = ctx.take_feedback().pop().and_then(|(_, f)| f.stage_directive());
        assert_eq!(ack, Some(StageDirective::Ack { epoch: 1, replica: 0 }));
    }

    #[test]
    fn scripted_policy_fires_in_order_and_consumes_entries() {
        let mut policy = ElasticPolicy::Scripted(vec![(2, 4), (5, 1)]);
        assert_eq!(policy.decide(1, Some(0), 1), None, "before the first mark");
        assert_eq!(policy.decide(2, None, 1), Some(4));
        assert_eq!(policy.decide(3, Some(0), 4), None, "entry consumed");
        assert_eq!(policy.decide(7, None, 4), Some(1), "late is fine: at-or-after");
        assert_eq!(policy.decide(100, Some(0), 1), None, "schedule exhausted");
        assert_eq!(policy.unreached(), 0);
        assert_eq!(ElasticPolicy::Scripted(vec![(9, 2)]).unreached(), 1);
    }

    #[test]
    fn adaptive_policy_tracks_the_watermarks() {
        let mut policy = ElasticPolicy::Adaptive { high: 8, low: 1, spike_width: 4, idle_width: 1 };
        assert_eq!(policy.decide(0, Some(3), 1), None, "between the watermarks");
        assert_eq!(policy.decide(0, Some(9), 1), Some(4), "spike scales out");
        assert_eq!(policy.decide(0, Some(9), 4), None, "already wide");
        assert_eq!(policy.decide(0, Some(0), 4), Some(1), "drain scales in");
        assert_eq!(policy.decide(0, None, 1), None, "no sample, no adaptation");
    }

    #[test]
    fn controller_stats_accumulate() {
        let controller = ElasticController::shared();
        controller.record_resize(1, 4);
        controller.record_resize(2, 1);
        controller.record_cancel();
        controller.record_unreached(2);
        controller.record_migrated(7);
        let stats = controller.stats();
        assert_eq!(stats.resizes, 2);
        assert_eq!((stats.cancelled, stats.unreached), (1, 2));
        assert_eq!(stats.migrated_groups, 7);
        assert_eq!(stats.epochs, vec![(1, 4), (2, 1)]);
    }
}
