//! SHUFFLE: hash-partition a stream across N replica outputs.
//!
//! The data-parallel half of a partitioned stage (Röger & Mayer's operator
//! replication): every tuple is routed to output `hash(key) mod N`, so all
//! tuples sharing a key land on the same replica and a stateful operator
//! partitioned on its group key computes exactly what its single-replica
//! version would.
//!
//! Control flows treat the fan-out differently from data:
//!
//! * **Embedded punctuation is broadcast** to all N outputs, dormant
//!   replicas of an elastic stage included.  A punctuation asserts
//!   completeness of a subset of the whole stream; each partition is a subset
//!   of that stream, so the assertion holds on every partition, every replica
//!   needs it to close windows, and the merge's min-watermark over all N
//!   inputs keeps advancing whatever the active width.
//! * **Feedback punctuation is lattice-merged.**  A tuple routes to exactly
//!   one replica and the pattern language cannot express the hash route, so
//!   feedback from one replica must not cross toward the source alone: the
//!   shuffle runs each assertion through a [`FeedbackMerge`] and relays
//!   upstream only
//!   once **every** replica has asserted it (exactly, or as a disorder-bound
//!   meet).  The released subset is also mounted as an input guard, so the
//!   shuffle stops routing tuples the whole replica group has disclaimed.
//!
//! An elastic shuffle ([`Shuffle::with_elastic`]) is also its stage's only
//! coordinator: it decides a new width at its own punctuation boundaries,
//! cuts the stream, collects the replicas' Acks and commits (see
//! [`crate::elastic`]).

use crate::common::guarded_pass;
use crate::elastic::{ElasticController, ElasticPolicy};
use dsms_engine::{EngineError, EngineResult, Operator, OperatorContext, StateEntry};
use dsms_feedback::{
    FeedbackMerge, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles, GuardDecision,
};
use dsms_punctuation::{Punctuation, StageDirective};
use dsms_types::{FixedHasher, SchemaRef, Tuple};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A resize handshake in flight: the shuffle has cut the stream with Migrate
/// markers and holds its input until every replica acknowledges.
struct PendingResize {
    epoch: u64,
    target: usize,
    acks: Vec<bool>,
}

/// Elastic-mode state: the stage coordinator role of the shuffle (see
/// [`crate::elastic`] for the protocol).
struct ElasticShuffle {
    controller: Arc<ElasticController>,
    policy: ElasticPolicy,
    /// Current routing width: tuples route to outputs `0..active`.
    active: usize,
    /// Punctuations seen on the input — the scripted policy's clock.
    boundaries: u64,
    /// The page being routed carried a boundary: decide once it is routed.
    boundary_due: bool,
    /// Next resize epoch to open (monotone, starts at 1).
    next_epoch: u64,
    pending: Option<PendingResize>,
}

/// The lattice membership of a stage running `active` of `partitions`
/// replicas: the active ones are always the prefix `0..active`.
fn membership(active: usize, partitions: usize) -> Vec<bool> {
    (0..partitions).map(|replica| replica < active).collect()
}

/// Hash-partitions one input stream across `partitions` outputs on a key.
pub struct Shuffle {
    name: String,
    schema: SchemaRef,
    key: Vec<String>,
    key_indices: Vec<usize>,
    partitions: usize,
    merge: FeedbackMerge,
    registry: FeedbackRegistry,
    elastic: Option<ElasticShuffle>,
}

impl Shuffle {
    /// Creates a shuffle routing on the named key attributes.  Fails if a key
    /// attribute does not exist in `schema` or if `key` is empty.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        key: &[&str],
        partitions: usize,
    ) -> EngineResult<Self> {
        let name = name.into();
        if key.is_empty() {
            return Err(EngineError::InvalidPlan {
                detail: format!("shuffle `{name}` needs at least one key attribute"),
            });
        }
        let key_indices =
            key.iter().map(|attr| schema.index_of(attr)).collect::<Result<Vec<_>, _>>().map_err(
                |err| EngineError::InvalidPlan { detail: format!("shuffle `{name}` key: {err}") },
            )?;
        let partitions = partitions.max(1);
        Ok(Shuffle {
            merge: FeedbackMerge::new(partitions),
            registry: FeedbackRegistry::new(name.clone()),
            name,
            schema,
            key: key.iter().map(|k| k.to_string()).collect(),
            key_indices,
            partitions,
            elastic: None,
        })
    }

    /// Makes the shuffle the coordinator of an elastic stage: `partitions`
    /// becomes the *maximum* width, routing starts at `initial` active
    /// replicas (clamped to `1..=partitions`), and `policy` decides at the
    /// shuffle's own punctuation boundaries when to run the migration
    /// handshake (see [`crate::elastic`]).  Dormant replicas stay connected
    /// and receive punctuation and migration markers, never data.
    pub fn with_elastic(
        mut self,
        controller: Arc<ElasticController>,
        policy: ElasticPolicy,
        initial: usize,
    ) -> Self {
        let active = initial.clamp(1, self.partitions);
        self.merge.set_active(&membership(active, self.partitions));
        self.elastic = Some(ElasticShuffle {
            controller,
            policy,
            active,
            boundaries: 0,
            boundary_due: false,
            next_epoch: 1,
            pending: None,
        });
        self
    }

    /// The number of replicas currently receiving data (`partitions` when the
    /// shuffle is not elastic).
    pub fn active(&self) -> usize {
        self.elastic.as_ref().map(|e| e.active).unwrap_or(self.partitions)
    }

    /// The stream schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The key attributes routing is hashed on.
    pub fn key(&self) -> &[String] {
        &self.key
    }

    /// Number of partitions (equals the number of output ports).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The output port (partition) the given tuple routes to.  Genuinely
    /// deterministic across runs, machines, *and* Rust releases: routing uses
    /// the crate-owned fixed-seed [`FixedHasher`], not the std
    /// `DefaultHasher` (whose algorithm and keys carry no cross-release
    /// stability guarantee).  The hasher has no per-instance key schedule,
    /// so the per-tuple construction here is free.  Fails loudly on a tuple
    /// narrower than the construction-time schema — silently hashing fewer
    /// key values would break the same-key-same-replica guarantee the whole
    /// rewrite rests on.
    pub fn partition_of(&self, tuple: &Tuple) -> EngineResult<usize> {
        Ok((self.key_hash(tuple)? % self.partitions as u64) as usize)
    }

    /// The fixed-seed hash of the tuple's key values, in key order.
    fn key_hash(&self, tuple: &Tuple) -> EngineResult<u64> {
        let mut hasher = FixedHasher::new();
        for &index in &self.key_indices {
            tuple.value(index).map_err(EngineError::from)?.hash(&mut hasher);
        }
        Ok(hasher.finish())
    }

    /// The output port the tuple routes to *right now*: the key hash reduced
    /// modulo the active width.  Identical to [`Shuffle::partition_of`] when
    /// the shuffle is not elastic (or running at full width).
    fn route_of(&self, tuple: &Tuple) -> EngineResult<usize> {
        Ok((self.key_hash(tuple)? % self.active() as u64) as usize)
    }

    /// Asks the policy for a width and, when it calls for a change, opens a
    /// handshake toward it.  `load` is the queue depth sampled at a
    /// boundary, `None` on the re-ask right after a commit.
    fn maybe_resize(&mut self, load: Option<u64>, ctx: &mut OperatorContext) {
        let Some(elastic) = self.elastic.as_mut() else {
            return;
        };
        if elastic.pending.is_some() {
            return;
        }
        let Some(target) = elastic.policy.decide(elastic.boundaries, load, elastic.active) else {
            return;
        };
        let target = target.clamp(1, self.partitions);
        if target == elastic.active {
            return;
        }
        let epoch = elastic.next_epoch;
        elastic.next_epoch += 1;
        elastic.pending = Some(PendingResize { epoch, target, acks: vec![false; self.partitions] });
        // Read no further input until the commit: the rest of the stream
        // waits upstream under back-pressure, so the shuffle neither buffers
        // it nor runs to end-of-stream ahead of the resize schedule.
        ctx.hold_input(true);
        // The cut: every replica sees the marker after all earlier routed
        // tuples.
        self.mark_every_port(StageDirective::Migrate { epoch, partitions: target }, ctx);
    }

    /// Records a replica's Ack; the last one commits the handshake.
    fn on_ack(&mut self, epoch: u64, replica: usize, ctx: &mut OperatorContext) {
        let Some(pending) = self.elastic.as_mut().and_then(|elastic| elastic.pending.as_mut())
        else {
            return;
        };
        if pending.epoch != epoch || replica >= pending.acks.len() {
            return;
        }
        pending.acks[replica] = true;
        if pending.acks.iter().all(|acked| *acked) {
            let target = pending.target;
            self.finish_resize(target, false, ctx);
            // A second move may be due at the same boundary: it opens now.
            self.maybe_resize(None, ctx);
        }
    }

    /// Ends the in-flight handshake at `width` (the target on commit, the
    /// old width when a flush cancels it): emits Commit markers, switches
    /// the feedback lattice's membership and resumes the input under the
    /// new routing.
    fn finish_resize(&mut self, width: usize, cancelled: bool, ctx: &mut OperatorContext) {
        ctx.hold_input(false);
        let elastic = self.elastic.as_mut().expect("finish_resize requires elastic mode");
        let epoch = elastic.pending.take().expect("a handshake is in flight").epoch;
        elastic.active = width;
        if cancelled {
            elastic.controller.record_cancel();
        } else {
            elastic.controller.record_resize(epoch, width);
        }
        self.mark_every_port(StageDirective::Commit { epoch, partitions: width }, ctx);
        // Unanimity is now over the new replica set; release any lattice
        // rounds a retired replica was blocking.
        for merged in self.merge.set_active(&membership(width, self.partitions)) {
            self.release_merged(merged, ctx);
        }
    }

    /// Embeds a stage marker on every port, dormant replicas included.
    fn mark_every_port(&self, directive: StageDirective, ctx: &mut OperatorContext) {
        for port in 0..self.partitions {
            ctx.emit_punctuation(port, Punctuation::directive(self.schema.clone(), directive));
        }
    }

    /// Relays a unanimously asserted subset upstream and guards the input
    /// with it.
    fn release_merged(&mut self, merged: FeedbackPunctuation, ctx: &mut OperatorContext) {
        self.registry.stats_mut().relayed.record(merged.intent());
        let relayed = merged.relay(merged.pattern().clone(), &self.name);
        let _ = self.registry.register(merged);
        ctx.send_feedback(0, relayed);
    }
}

impl Operator for Shuffle {
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

    fn outputs(&self) -> usize {
        self.partitions
    }

    fn must_connect_all_outputs(&self) -> bool {
        // An unconnected partition would silently drop its slice of the hash
        // space; `QueryPlan::validate` turns that into a plan error.
        true
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if self.registry.decide(&tuple) == GuardDecision::Suppress {
            return Ok(());
        }
        let route = self.route_of(&tuple)?;
        ctx.emit(route, tuple);
        Ok(())
    }

    /// Columnar kernel: hash-routing reads only the key columns, so the
    /// whole page is first classified against the input guards via column
    /// summaries; a guard-free (or provably clear) page then routes its row
    /// lane in one tight loop with no per-tuple guard probes.  Routing itself
    /// stays per-row [`Shuffle::partition_of`] — the pinned routing digest
    /// must not change.
    ///
    /// ```
    /// use dsms_engine::{Operator, OperatorContext, Page, StreamItem};
    /// use dsms_feedback::FeedbackPunctuation;
    /// use dsms_operators::Shuffle;
    /// use dsms_punctuation::{Pattern, PatternItem};
    /// use dsms_types::{DataType, Schema, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[("segment", DataType::Int)]);
    /// let mut shuffle = Shuffle::new("route", schema.clone(), &["segment"], 2).unwrap();
    /// let mut ctx = OperatorContext::new();
    /// // A shuffle guard activates only once *every* partition asserts it.
    /// for port in 0..2 {
    ///     let guard = Pattern::for_attributes(
    ///         schema.clone(),
    ///         &[("segment", PatternItem::Eq(Value::Int(5)))],
    ///     )
    ///     .unwrap();
    ///     shuffle.on_feedback(port, FeedbackPunctuation::assumed(guard, "sink"), &mut ctx).unwrap();
    /// }
    ///
    /// let row = |seg| StreamItem::Tuple(Tuple::new(schema.clone(), vec![Value::Int(seg)]));
    /// // A page entirely of segment 5 is dropped before any hashing.
    /// shuffle.on_page(0, Page::from_items(vec![row(5), row(5)]), &mut ctx).unwrap();
    /// assert_eq!(ctx.take_emitted().len(), 0);
    /// // A provably clear page routes each row via `partition_of`.
    /// shuffle.on_page(0, Page::from_items(vec![row(7), row(8)]), &mut ctx).unwrap();
    /// for (port, item) in ctx.take_emitted() {
    ///     assert_eq!(port, shuffle.partition_of(item.as_tuple().unwrap()).unwrap());
    /// }
    /// ```
    fn on_page(
        &mut self,
        input: usize,
        page: dsms_engine::Page,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if let Some(elastic) = &self.elastic {
            // The input is held from the Migrate cut to the commit.
            debug_assert!(elastic.pending.is_none(), "input delivered mid-handshake");
        }
        let decision = self.registry.decide_batch(page.tuple_count(), |c| page.column_summary(c));
        guarded_pass(self, input, page, decision, ctx, |shuffle, tuple, ctx| {
            let route = shuffle.route_of(&tuple)?;
            ctx.emit(route, tuple);
            Ok(())
        })?;
        // Decide only once the whole page is routed: the Migrate cut must
        // follow every tuple routed at the old width.
        if self.elastic.as_mut().is_some_and(|elastic| std::mem::take(&mut elastic.boundary_due)) {
            self.maybe_resize(Some(ctx.queue_depth()), ctx);
        }
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.registry.expire_with(&punctuation);
        if let Some(elastic) = self.elastic.as_mut() {
            elastic.boundaries += 1;
            elastic.boundary_due = true;
        }
        // Every port gets a copy (the last one the original), dormant
        // replicas included, so the merge's watermark never waits on a
        // replica the shuffle does not route to.
        let last = self.partitions - 1;
        for port in 0..last {
            ctx.emit_punctuation(port, punctuation.clone());
        }
        ctx.emit_punctuation(last, punctuation);
        Ok(())
    }

    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if let Some(directive) = feedback.stage_directive() {
            // A replica's Ack steers the handshake; it never enters the
            // assertion lattice (a wildcard "vote" would corrupt unanimity
            // rounds).
            if let StageDirective::Ack { epoch, replica } = directive {
                self.on_ack(epoch, replica, ctx);
            }
            return Ok(());
        }
        if let Some(merged) = self.merge.assert_from(output, feedback) {
            self.release_merged(merged, ctx);
        }
        Ok(())
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        let Some(elastic) = self.elastic.as_mut() else {
            return Ok(());
        };
        // Scheduled moves whose boundary never came end with the stream.
        elastic.controller.record_unreached(elastic.policy.unreached());
        // Flushed inside a handshake (a shutdown: end-of-stream waits behind
        // the held input): cancel rather than commit.  The Commit marker
        // re-installs the *old* width and every parked group reclaims to its
        // exporter — the run is indistinguishable from one where the resize
        // never happened.
        if elastic.pending.is_some() {
            let old_width = elastic.active;
            self.finish_resize(old_width, true, ctx);
        }
        Ok(())
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Some(self.registry.stats().clone())
    }

    fn elastic_stats(&self) -> Option<dsms_engine::ElasticStats> {
        self.elastic.as_ref().map(|elastic| elastic.controller.stats())
    }

    /// Restartable only in fixed-width mode: an elastic shuffle's resize
    /// handshake mutates the shared [`ElasticController`], so replaying the
    /// boundaries that drove it would double-apply membership changes.
    fn restartable(&self) -> bool {
        self.elastic.is_none()
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        Ok(vec![StateEntry {
            key: Vec::new(),
            payload: Box::new(ShuffleSnapshot {
                merge: self.merge.clone(),
                registry: self.registry.clone(),
            }),
        }])
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.merge = FeedbackMerge::new(self.partitions);
        self.registry = FeedbackRegistry::new(self.name.clone());
        for entry in entries {
            match entry.payload.downcast::<ShuffleSnapshot>() {
                Ok(snapshot) => {
                    self.merge = snapshot.merge;
                    self.registry = snapshot.registry;
                }
                Err(_) => {
                    return Err(EngineError::OperatorFailed {
                        operator: self.name.clone(),
                        detail: "checkpoint entry is not a shuffle snapshot".into(),
                    })
                }
            }
        }
        Ok(())
    }
}

/// The feedback lattice and guard state captured at a checkpoint so a
/// restarted fixed-width [`Shuffle`] keeps the replica assertions it had
/// already collected.
struct ShuffleSnapshot {
    merge: FeedbackMerge,
    registry: FeedbackRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::StreamItem;
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn tuple(ts: i64, seg: i64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(50.0)],
        )
    }

    fn segment_eq(seg: i64) -> FeedbackPunctuation {
        FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(seg)))])
                .unwrap(),
            "replica",
        )
    }

    #[test]
    fn routing_is_deterministic_and_key_consistent() {
        let op = Shuffle::new("shuffle", schema(), &["segment"], 4).unwrap();
        for seg in 0..32 {
            let p = op.partition_of(&tuple(0, seg)).unwrap();
            assert!(p < 4);
            assert_eq!(p, op.partition_of(&tuple(999, seg)).unwrap(), "same key, same partition");
        }
        let spread: std::collections::HashSet<usize> =
            (0..32).map(|seg| op.partition_of(&tuple(0, seg)).unwrap()).collect();
        assert!(spread.len() > 1, "keys spread across partitions");
    }

    #[test]
    fn routing_digest_is_pinned() {
        // The hash route is an observable contract: replica state layout and
        // recovery both depend on `partition_of` never silently changing.
        // This vector was computed from the FixedHasher algorithm spec (seed,
        // Fx accumulate, Murmur3 finalize); it must be identical on every
        // machine, run, and Rust release.  If it changes, the routing hash
        // changed — that is a breaking change to partitioned state, not a
        // constant to refresh casually.
        let op = Shuffle::new("shuffle", schema(), &["segment"], 4).unwrap();
        let route: Vec<usize> =
            (0..32).map(|seg| op.partition_of(&tuple(0, seg)).unwrap()).collect();
        assert_eq!(
            route,
            vec![
                1, 1, 3, 1, 1, 3, 2, 2, 0, 2, 2, 1, 3, 0, 0, 2, 2, 3, 0, 1, 1, 2, 1, 0, 1, 1, 0, 0,
                3, 3, 1, 2
            ]
        );
    }

    #[test]
    fn tuples_follow_the_hash_route() {
        let mut op = Shuffle::new("shuffle", schema(), &["segment"], 3).unwrap();
        assert_eq!(op.outputs(), 3);
        assert!(op.must_connect_all_outputs());
        let mut ctx = OperatorContext::new();
        for seg in 0..30 {
            op.on_tuple(0, tuple(seg, seg), &mut ctx).unwrap();
        }
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 30, "every tuple routed exactly once");
        for (port, item) in emitted {
            let t = item.as_tuple().expect("data, not punctuation");
            assert_eq!(port, op.partition_of(t).unwrap());
        }
    }

    #[test]
    fn punctuation_is_broadcast_not_routed() {
        let mut op = Shuffle::new("shuffle", schema(), &["segment"], 4).unwrap();
        let mut ctx = OperatorContext::new();
        let p = Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(60)).unwrap();
        op.on_punctuation(0, p.clone(), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        let ports: Vec<usize> = emitted.iter().map(|(port, _)| *port).collect();
        assert_eq!(ports, vec![0, 1, 2, 3], "one copy per output, not a hash route");
        for (_, item) in emitted {
            let StreamItem::Punctuation(copy) = item else { panic!("expected punctuation") };
            assert_eq!(copy.watermark_for("timestamp"), p.watermark_for("timestamp"));
        }
    }

    #[test]
    fn feedback_crosses_only_on_unanimity_and_guards_the_input() {
        let mut op = Shuffle::new("shuffle", schema(), &["segment"], 3).unwrap();
        let mut ctx = OperatorContext::new();
        op.on_feedback(0, segment_eq(5), &mut ctx).unwrap();
        op.on_feedback(2, segment_eq(5), &mut ctx).unwrap();
        assert!(ctx.take_feedback().is_empty(), "two of three replicas is not unanimity");
        // The subset is not yet guarded: segment-5 tuples still route.
        op.on_tuple(0, tuple(0, 5), &mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);

        op.on_feedback(1, segment_eq(5), &mut ctx).unwrap();
        let relayed = ctx.take_feedback();
        assert_eq!(relayed.len(), 1, "third replica completes the merge");
        assert_eq!(relayed[0].0, 0, "relayed on the single input port");
        assert_eq!(relayed[0].1.issuer(), "shuffle");

        // Now guarded: the whole replica group disclaimed segment 5.
        op.on_tuple(0, tuple(1, 5), &mut ctx).unwrap();
        op.on_tuple(0, tuple(1, 6), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].1.as_tuple().unwrap().int("segment").unwrap(), 6);
        assert_eq!(op.feedback_stats().unwrap().tuples_suppressed, 1);
    }

    #[test]
    fn on_page_routes_clear_batches_and_drops_covered_ones() {
        use dsms_engine::Page;
        let mut op = Shuffle::new("shuffle", schema(), &["segment"], 3).unwrap();
        let mut ctx = OperatorContext::new();
        // Mount a unanimous guard on segment 5.
        for port in 0..3 {
            op.on_feedback(port, segment_eq(5), &mut ctx).unwrap();
        }
        ctx.take_feedback();
        // A page entirely of segment 5 is dropped wholesale; the punctuation
        // is still broadcast.
        let covered = Page::from_items(vec![
            StreamItem::Tuple(tuple(0, 5)),
            StreamItem::Tuple(tuple(1, 5)),
            StreamItem::Punctuation(
                Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(60)).unwrap(),
            ),
        ]);
        op.on_page(0, covered, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 3, "the punctuation alone, once per replica");
        assert!(emitted.iter().all(|(_, item)| matches!(item, StreamItem::Punctuation(_))));
        // A page provably clear of the guard routes every row on the same
        // route `partition_of` computes.
        let clear = Page::from_items(vec![
            StreamItem::Tuple(tuple(0, 6)),
            StreamItem::Tuple(tuple(1, 7)),
            StreamItem::Tuple(tuple(2, 8)),
        ]);
        op.on_page(0, clear, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 3);
        for (port, item) in emitted {
            assert_eq!(port, op.partition_of(item.as_tuple().unwrap()).unwrap());
        }
        let stats = op.feedback_stats().unwrap();
        assert_eq!(stats.tuples_suppressed, 2);
        assert_eq!(stats.batches_summary_conclusive, 2);
    }

    #[test]
    fn construction_rejects_bad_keys() {
        assert!(Shuffle::new("s", schema(), &[], 2).is_err(), "empty key");
        assert!(Shuffle::new("s", schema(), &["no_such"], 2).is_err(), "unknown attribute");
        let s = Shuffle::new("s", schema(), &["segment"], 0).unwrap();
        assert_eq!(s.partitions(), 1, "partition count clamped to 1");
        assert_eq!(s.key(), &["segment".to_string()]);
        assert_eq!(s.schema().arity(), 3);
    }

    fn elastic(partitions: usize, schedule: Vec<(u64, usize)>, initial: usize) -> Shuffle {
        Shuffle::new("shuffle", schema(), &["segment"], partitions).unwrap().with_elastic(
            crate::ElasticController::shared(),
            ElasticPolicy::Scripted(schedule),
            initial,
        )
    }

    fn progress_at(ts: i64) -> StreamItem {
        StreamItem::Punctuation(
            Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(ts)).unwrap(),
        )
    }

    /// What the shuffle emitted, in order: `T` per routed tuple, `P` per
    /// progress copy, and the stage directives with their ports.
    fn trace(ctx: &mut OperatorContext) -> Vec<(usize, Option<StageDirective>, char)> {
        ctx.take_emitted()
            .into_iter()
            .map(|(port, item)| match item {
                StreamItem::Tuple(_) => (port, None, 'T'),
                StreamItem::Punctuation(p) => (port, p.stage_directive(), 'P'),
            })
            .collect()
    }

    fn directives(trace: &[(usize, Option<StageDirective>, char)]) -> Vec<StageDirective> {
        let mut out: Vec<StageDirective> = trace.iter().filter_map(|(_, d, _)| *d).collect();
        out.dedup();
        out
    }

    fn ack(shuffle: &mut Shuffle, epoch: u64, replica: usize, ctx: &mut OperatorContext) {
        let ack = FeedbackPunctuation::desired(Pattern::all_wildcards(schema()), "replica")
            .with_directive(StageDirective::Ack { epoch, replica });
        shuffle.on_feedback(replica, ack, ctx).unwrap();
    }

    /// The shuffle decides at the end of a page that carried a boundary:
    /// the rest of that page is routed at the old width before the Migrate
    /// markers, one handshake opens, and the next scheduled move waits for
    /// both its own boundary and the commit.
    #[test]
    fn scripted_policy_issues_one_resize_and_waits_for_commit() {
        use dsms_engine::Page;
        let mut op = elastic(4, vec![(1, 3), (2, 4)], 1);
        let mut ctx = OperatorContext::new();
        let page = vec![StreamItem::Tuple(tuple(0, 1)), progress_at(10)];
        let page = [page, vec![StreamItem::Tuple(tuple(11, 2)), StreamItem::Tuple(tuple(12, 3))]];
        op.on_page(0, Page::from_items(page.concat()), &mut ctx).unwrap();
        let emitted = trace(&mut ctx);
        let kinds: String = emitted.iter().map(|(_, _, kind)| kind).collect();
        assert_eq!(kinds, "TPPPPTTPPPP", "progress to every port, the whole page before the cut");
        assert!(emitted.iter().filter(|(_, _, kind)| *kind == 'T').all(|(port, ..)| *port == 0));
        let cut: Vec<usize> = emitted[7..].iter().map(|(port, ..)| *port).collect();
        assert_eq!(cut, vec![0, 1, 2, 3], "the cut reaches dormant replicas too");
        assert_eq!(directives(&emitted), vec![StageDirective::Migrate { epoch: 1, partitions: 3 }]);
        assert!(ctx.input_held(), "no input until the commit");

        for replica in 0..3 {
            ack(&mut op, 1, replica, &mut ctx);
        }
        assert!(trace(&mut ctx).is_empty() && ctx.input_held(), "three of four Acks");
        ack(&mut op, 1, 3, &mut ctx);
        let emitted = trace(&mut ctx);
        assert_eq!(directives(&emitted), vec![StageDirective::Commit { epoch: 1, partitions: 3 }]);
        assert!(!ctx.input_held());
        assert_eq!(op.active(), 3, "the move at boundary 2 waits for its boundary");

        op.on_page(0, Page::from_items(vec![progress_at(20)]), &mut ctx).unwrap();
        let emitted = trace(&mut ctx);
        assert_eq!(directives(&emitted), vec![StageDirective::Migrate { epoch: 2, partitions: 4 }]);
    }

    /// Two moves due at one boundary commit back to back: the second opens
    /// only once the first has committed, and a whole run loses no tuple.
    #[test]
    fn resize_arriving_mid_handshake_commits_after_the_current_one() {
        use crate::{CollectSink, ElasticReplica, Select, TuplePredicate, VecSource};
        use dsms_engine::{Page, QueryPlan, SyncExecutor};

        let mut op = elastic(2, vec![(1, 2), (1, 1)], 1);
        let mut ctx = OperatorContext::new();
        op.on_page(0, Page::from_items(vec![progress_at(10)]), &mut ctx).unwrap();
        let migrate_1 = StageDirective::Migrate { epoch: 1, partitions: 2 };
        assert_eq!(directives(&trace(&mut ctx)), vec![migrate_1]);
        ack(&mut op, 1, 0, &mut ctx);
        assert!(trace(&mut ctx).is_empty(), "the second move waits for the first commit");
        ack(&mut op, 1, 1, &mut ctx);
        assert_eq!(
            directives(&trace(&mut ctx)),
            vec![
                StageDirective::Commit { epoch: 1, partitions: 2 },
                StageDirective::Migrate { epoch: 2, partitions: 1 }
            ]
        );
        assert!(ctx.input_held(), "the input stays held across the back-to-back handshakes");
        ack(&mut op, 2, 0, &mut ctx);
        ack(&mut op, 2, 1, &mut ctx);
        assert_eq!(
            directives(&trace(&mut ctx)),
            vec![StageDirective::Commit { epoch: 2, partitions: 1 }]
        );
        assert!(!ctx.input_held());
        let stats = op.elastic_stats().unwrap();
        assert_eq!((stats.epochs, stats.cancelled), (vec![(1, 2), (2, 1)], 0));

        let controller = crate::ElasticController::shared();
        let mut plan = QueryPlan::new().with_page_capacity(4);
        let source = plan.add(
            VecSource::new("source", (0..200).map(|i| tuple(i, i % 8)).collect())
                .with_punctuation("timestamp", dsms_types::StreamDuration::from_secs(20)),
        );
        let shuffle =
            plan.add(Shuffle::new("shuffle", schema(), &["segment"], 2).unwrap().with_elastic(
                controller.clone(),
                ElasticPolicy::Scripted(vec![(3, 2), (3, 1), (5, 2)]),
                1,
            ));
        plan.connect_simple(source, shuffle).unwrap();
        let mut outputs = Vec::new();
        for replica in 0..2 {
            let pass = Select::new(format!("pass-{replica}"), schema(), TuplePredicate::always());
            let node = plan.add(ElasticReplica::new(pass, replica, controller.clone()));
            let (sink, out) = CollectSink::new(format!("sink-{replica}"));
            let sink = plan.add(sink);
            plan.connect(shuffle, replica, node, 0).unwrap();
            plan.connect_simple(node, sink).unwrap();
            outputs.push(out);
        }
        let report = SyncExecutor::run(plan).unwrap();
        let stats = report.operator("shuffle").unwrap().elastic.clone().unwrap();
        assert_eq!(stats.epochs, vec![(1, 2), (2, 1), (3, 2)], "commits, in order: {stats:?}");
        assert_eq!((stats.cancelled, stats.unreached), (0, 0), "{stats:?}");
        let routed: usize = outputs.iter().map(|out| out.lock().len()).sum();
        assert_eq!(routed, 200, "no tuple lost or duplicated");
        assert_eq!(report.total_feedback_dropped(), 0);
    }

    /// Moves with no stream left to cut are counted, never dropped silently:
    /// a handshake open at flush recommits the old width and counts as
    /// cancelled, and a scheduled move whose boundary never came counts as
    /// unreached.
    #[test]
    fn resize_after_flush_counts_as_cancelled() {
        use dsms_engine::Page;
        let mut op = elastic(2, vec![(1, 2), (9, 1)], 1);
        let mut ctx = OperatorContext::new();
        op.on_page(0, Page::from_items(vec![progress_at(10)]), &mut ctx).unwrap();
        ctx.take_emitted();
        op.on_flush(&mut ctx).unwrap();
        let emitted = trace(&mut ctx);
        assert_eq!(directives(&emitted), vec![StageDirective::Commit { epoch: 1, partitions: 1 }]);
        assert_eq!(emitted.len(), 2, "one Commit per port, no Migrate after end-of-stream");
        let stats = op.elastic_stats().unwrap();
        assert_eq!((stats.resizes, stats.cancelled, stats.unreached), (0, 1, 1), "{stats:?}");
        assert_eq!(op.active(), 1);
    }
}
