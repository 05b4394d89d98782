//! Per-operator bookkeeping of active feedback.
//!
//! Keeping track of enacted feedback entails state accumulation — not of tuple
//! data, but of predicates (paper Section 4.4).  A [`FeedbackRegistry`] owns
//! that predicate state for one operator:
//!
//! * **assumed** feedback becomes an input/output *guard*: tuples matching any
//!   active assumed pattern are suppressed;
//! * **desired** feedback becomes a *priority* set: tuples matching any active
//!   desired pattern should be processed/produced first;
//! * **demanded** feedback is recorded for the operator to act on once (e.g.
//!   emit partial results) and then retired.
//!
//! **Guard lifetime.**  A guard (an assumed or desired pattern) lives until an
//! embedded punctuation on its stream subsumes it ([`Pattern::releases`]:
//! same schema, and the punctuation's pattern covers the guard's on every
//! attribute).  From then on every tuple the guard describes has been
//! declared complete, so it can never match again and
//! [`expire_with`](FeedbackRegistry::expire_with) drops it.  This holds with
//! or without a [`PunctuationScheme`]; an operator calls `expire_with` with
//! each punctuation on the side of the stream its guards apply to — input
//! guards with the punctuation it receives, output guards with the
//! punctuation it emits.  Feedback that arrives after the last punctuation
//! seen already released it is counted as expired on arrival and never
//! mounted.  A guard on an attribute no punctuation covers (`[segment = 3]`
//! on a stream punctuated by time) is never released — exactly why the paper
//! restricts supportable feedback to delimited attributes.
//!
//! The scheme decides only strictness and counting: with one attached,
//! registration can be *strict*, rejecting feedback the stream's punctuation
//! cannot support, or lenient, counting it as unexpirable.
//!
//! [`Pattern::releases`]: dsms_punctuation::Pattern::releases

use crate::error::{FeedbackError, FeedbackResult};
use crate::intent::{FeedbackIntent, FeedbackPunctuation};
use crate::stats::FeedbackStats;
use dsms_punctuation::{CompiledPattern, Punctuation, PunctuationScheme, SummaryMatch};
use dsms_types::{ColumnSummary, Tuple};

/// The decision a guard makes about one tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardDecision {
    /// The tuple is not described by any active feedback: process normally.
    Pass,
    /// The tuple is described by an active *assumed* guard: suppress it.
    Suppress,
    /// The tuple is described by an active *desired* pattern: process it with
    /// priority.
    Prioritize,
}

/// The decision guards make about a whole batch of tuples, derived from
/// per-column summaries alone (see
/// [`decide_batch`](FeedbackRegistry::decide_batch)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchGuardDecision {
    /// No assumed guard can match any tuple of the batch and no desired
    /// pattern can either: every tuple would get [`GuardDecision::Pass`], so
    /// the per-tuple checks can be skipped wholesale.
    PassAll,
    /// An active assumed guard provably matches every tuple of the batch:
    /// every tuple would get [`GuardDecision::Suppress`].
    SuppressAll,
    /// The summaries are inconclusive (or a desired pattern may match some
    /// tuples): fall back to [`decide`](FeedbackRegistry::decide) per tuple.
    Mixed,
}

/// Registry of active feedback for a single operator.
///
/// Guard patterns are compiled once, at registration time, into their
/// constrained `(attribute, item)` pairs ([`CompiledPattern`]); the per-tuple
/// [`decide`](FeedbackRegistry::decide) check then touches only the
/// attributes each guard actually constrains — an all-wildcard guard is a
/// constant, and a registry with no active guards short-circuits to
/// [`GuardDecision::Pass`] without looking at the tuple at all.  This is what
/// makes it affordable to run the guard check on *every* tuple at a source
/// or a shuffle, which is the paper's whole premise.
#[derive(Debug, Clone)]
pub struct FeedbackRegistry {
    operator: String,
    scheme: Option<PunctuationScheme>,
    strict: bool,
    assumed: Vec<FeedbackPunctuation>,
    /// Compiled guard index, parallel to `assumed`.
    assumed_compiled: Vec<CompiledPattern>,
    desired: Vec<FeedbackPunctuation>,
    /// Compiled priority index, parallel to `desired`.
    desired_compiled: Vec<CompiledPattern>,
    demanded: Vec<FeedbackPunctuation>,
    /// The last punctuation folded in by [`expire_with`](Self::expire_with):
    /// feedback arriving after it describes only completed tuples is never
    /// mounted.
    last_punctuation: Option<Punctuation>,
    stats: FeedbackStats,
}

impl FeedbackRegistry {
    /// Creates a registry for the named operator with no supportability
    /// checking.
    pub fn new(operator: impl Into<String>) -> Self {
        FeedbackRegistry {
            operator: operator.into(),
            scheme: None,
            strict: false,
            assumed: Vec::new(),
            assumed_compiled: Vec::new(),
            desired: Vec::new(),
            desired_compiled: Vec::new(),
            demanded: Vec::new(),
            last_punctuation: None,
            stats: FeedbackStats::default(),
        }
    }

    /// Creates a registry scoped to one of the named operator's output ports.
    ///
    /// A fan-out operator serving several independent consumers (a shared
    /// source fanned out to N standing queries) keeps one registry *per
    /// output* so that a guard asserted by one consumer suppresses tuples on
    /// that consumer's branch only — per-query feedback isolation.  The
    /// registry's owner name carries the scope (`"fanout#2"`), so relayed
    /// feedback lineage and statistics stay attributable to the port.
    pub fn scoped(operator: impl Into<String>, port: usize) -> Self {
        Self::new(format!("{}#{port}", operator.into()))
    }

    /// Attaches the punctuation scheme of the stream the guards apply to.
    /// With `strict` set, [`register`](Self::register) rejects feedback whose
    /// pattern constrains undelimited attributes (it would accumulate state
    /// forever); without it, such feedback is accepted but counted in the
    /// statistics as unexpirable.  Expiry does not depend on the scheme.
    pub fn with_scheme(mut self, scheme: PunctuationScheme, strict: bool) -> Self {
        self.scheme = Some(scheme);
        self.strict = strict;
        self
    }

    /// The operator this registry belongs to.
    pub fn operator(&self) -> &str {
        &self.operator
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &FeedbackStats {
        &self.stats
    }

    /// Mutable access to the statistics (operators add their own counters,
    /// e.g. suppressed output tuples).
    pub fn stats_mut(&mut self) -> &mut FeedbackStats {
        &mut self.stats
    }

    /// Number of active assumed guards.
    pub fn active_assumed(&self) -> usize {
        self.assumed.len()
    }

    /// Number of active desired patterns.
    pub fn active_desired(&self) -> usize {
        self.desired.len()
    }

    /// Number of pending demanded requests.
    pub fn pending_demanded(&self) -> usize {
        self.demanded.len()
    }

    /// The active assumed guards (most recent last).
    pub fn assumed_guards(&self) -> &[FeedbackPunctuation] {
        &self.assumed
    }

    /// The active desired patterns (most recent last).
    pub fn desired_patterns(&self) -> &[FeedbackPunctuation] {
        &self.desired
    }

    /// Registers newly received feedback: counts the receipt and
    /// [`mount`](Self::mount)s it.  Feedback rejected in strict mode is not
    /// counted as received.
    pub fn register(&mut self, feedback: FeedbackPunctuation) -> FeedbackResult<()> {
        let intent = feedback.intent();
        self.mount(feedback)?;
        self.stats.received.record(intent);
        Ok(())
    }

    /// Mounts feedback without counting a receipt — for an operator that
    /// turns one received message into several guards (a join guarding both
    /// inputs) and counts the receipt itself.  Duplicate or subsumed assumed
    /// guards are coalesced: a new guard that is already implied by an active
    /// one is dropped, and active guards implied by the new one are replaced.
    /// An assumed or desired pattern the last punctuation seen already
    /// releases — feedback that arrives after the stream has moved past what
    /// it describes — counts as expired on arrival and is not mounted.
    pub fn mount(&mut self, feedback: FeedbackPunctuation) -> FeedbackResult<()> {
        if let (Some(scheme), true) = (&self.scheme, self.strict) {
            if !scheme.supports(feedback.pattern()) {
                self.stats.rejected_unsupportable += 1;
                return Err(FeedbackError::Unsupportable {
                    attributes: scheme.unsupportable_attributes(feedback.pattern()),
                });
            }
        }
        if let Some(scheme) = &self.scheme {
            if !scheme.supports(feedback.pattern()) {
                self.stats.unexpirable_guards += 1;
            }
        }
        if feedback.intent() != FeedbackIntent::Demanded
            && self.last_punctuation.as_ref().is_some_and(|p| p.releases(feedback.pattern()))
        {
            self.stats.guards_expired += 1;
            return Ok(());
        }
        match feedback.intent() {
            FeedbackIntent::Assumed => {
                if self.assumed.iter().any(|g| g.pattern().subsumes(feedback.pattern())) {
                    self.stats.coalesced += 1;
                    return Ok(());
                }
                let before = self.assumed.len();
                let fresh = feedback.pattern();
                retain_in_sync(&mut self.assumed, &mut self.assumed_compiled, |g| {
                    !fresh.subsumes(g.pattern())
                });
                self.stats.coalesced += (before - self.assumed.len()) as u64;
                self.assumed_compiled.push(feedback.pattern().compile());
                self.assumed.push(feedback);
            }
            FeedbackIntent::Desired => {
                if self.desired.iter().any(|g| g.pattern() == feedback.pattern()) {
                    self.stats.coalesced += 1;
                    return Ok(());
                }
                self.desired_compiled.push(feedback.pattern().compile());
                self.desired.push(feedback);
            }
            FeedbackIntent::Demanded => self.demanded.push(feedback),
        }
        Ok(())
    }

    /// Decides what to do with an input (or output) tuple under the active
    /// guards.  Assumed guards win over desired priorities: a tuple that is
    /// both assumed-away and desired is suppressed.  Runs against the
    /// compiled guard index: no guards means no work, and each guard checks
    /// only its constrained attributes.
    pub fn decide(&mut self, tuple: &Tuple) -> GuardDecision {
        if self.assumed_compiled.is_empty() && self.desired_compiled.is_empty() {
            return GuardDecision::Pass;
        }
        if self.assumed_compiled.iter().any(|g| g.matches(tuple)) {
            self.stats.tuples_suppressed += 1;
            return GuardDecision::Suppress;
        }
        if self.desired_compiled.iter().any(|g| g.matches(tuple)) {
            self.stats.tuples_prioritized += 1;
            return GuardDecision::Prioritize;
        }
        GuardDecision::Pass
    }

    /// Batch-level twin of [`decide`](Self::decide): classifies a whole batch
    /// of `rows` tuples against the active guards using per-column summaries,
    /// without touching any tuple.
    ///
    /// `summary_of` maps an attribute index to that column's
    /// [`ColumnSummary`] (or `None` when no sound summary exists); it is
    /// consulted at most once per distinct column across all guards — the
    /// common case of many guards over one attribute computes one summary.
    ///
    /// Statistics stay exactly per-tuple-equivalent: a
    /// [`BatchGuardDecision::SuppressAll`] counts all `rows` as suppressed (as
    /// `rows` individual [`decide`](Self::decide) calls would), a
    /// [`BatchGuardDecision::PassAll`] counts nothing, and a
    /// [`BatchGuardDecision::Mixed`] counts nothing here because the caller
    /// re-runs `decide` per tuple.  Conclusive and fallback batches are
    /// tallied in [`FeedbackStats::batches_summary_conclusive`] and
    /// [`FeedbackStats::batches_summary_fallback`]; an empty registry
    /// short-circuits to `PassAll` without counting a batch, mirroring the
    /// per-tuple short-circuit.
    ///
    /// Desired patterns are deliberately conservative: prioritization is
    /// per-tuple by nature, so any possibly-matching desired pattern forces
    /// [`BatchGuardDecision::Mixed`]; only a provably-never-matching desired
    /// set allows `PassAll`.
    pub fn decide_batch<F>(&mut self, rows: usize, mut summary_of: F) -> BatchGuardDecision
    where
        F: FnMut(usize) -> Option<ColumnSummary>,
    {
        if rows == 0 || (self.assumed_compiled.is_empty() && self.desired_compiled.is_empty()) {
            return BatchGuardDecision::PassAll;
        }
        // Summaries are cached per column for the duration of the call:
        // several guards typically constrain the same attribute.
        let mut cache: Vec<(usize, Option<ColumnSummary>)> = Vec::new();
        let mut lookup = |column: usize| -> Option<ColumnSummary> {
            if let Some((_, summary)) = cache.iter().find(|(c, _)| *c == column) {
                return summary.clone();
            }
            let summary = summary_of(column);
            cache.push((column, summary.clone()));
            summary
        };
        let mut suppress_all = false;
        let mut every_assumed_none = true;
        for guard in &self.assumed_compiled {
            match guard.matches_summaries(&mut lookup) {
                SummaryMatch::All => {
                    suppress_all = true;
                    break;
                }
                SummaryMatch::None => {}
                SummaryMatch::Unknown => every_assumed_none = false,
            }
        }
        if suppress_all {
            self.stats.tuples_suppressed += rows as u64;
            self.stats.batches_summary_conclusive += 1;
            return BatchGuardDecision::SuppressAll;
        }
        if every_assumed_none {
            let every_desired_none = self
                .desired_compiled
                .iter()
                .all(|p| p.matches_summaries(&mut lookup) == SummaryMatch::None);
            if every_desired_none {
                self.stats.batches_summary_conclusive += 1;
                return BatchGuardDecision::PassAll;
            }
        }
        self.stats.batches_summary_fallback += 1;
        BatchGuardDecision::Mixed
    }

    /// Like [`decide`](Self::decide) but without mutating statistics; useful
    /// for look-ahead checks.
    pub fn peek(&self, tuple: &Tuple) -> GuardDecision {
        if self.assumed_compiled.iter().any(|g| g.matches(tuple)) {
            GuardDecision::Suppress
        } else if self.desired_compiled.iter().any(|g| g.matches(tuple)) {
            GuardDecision::Prioritize
        } else {
            GuardDecision::Pass
        }
    }

    /// Takes the pending demanded feedback, leaving the registry's demanded
    /// list empty; the operator acts on each exactly once (e.g. emitting
    /// partial results).
    pub fn take_demanded(&mut self) -> Vec<FeedbackPunctuation> {
        std::mem::take(&mut self.demanded)
    }

    /// Folds an embedded punctuation into the registry, dropping every
    /// assumed guard and desired pattern the punctuation releases (see the
    /// module docs).  Returns the number of guards expired; a registry
    /// holding none returns without scanning.  A stage-directive marker
    /// asserts nothing about the stream and releases nothing.
    pub fn expire_with(&mut self, punctuation: &Punctuation) -> usize {
        if punctuation.stage_directive().is_some() {
            // Not a progress assertion: it must not displace the last one.
            return 0;
        }
        self.last_punctuation = Some(punctuation.clone());
        if self.assumed.is_empty() && self.desired.is_empty() {
            return 0;
        }
        let before = self.assumed.len() + self.desired.len();
        retain_in_sync(&mut self.assumed, &mut self.assumed_compiled, |g| {
            !punctuation.releases(g.pattern())
        });
        retain_in_sync(&mut self.desired, &mut self.desired_compiled, |g| {
            !punctuation.releases(g.pattern())
        });
        let expired = before - (self.assumed.len() + self.desired.len());
        self.stats.guards_expired += expired as u64;
        expired
    }

    /// Total number of predicates currently held — the state-accumulation
    /// figure the paper worries about in Section 4.4.
    pub fn predicate_state_size(&self) -> usize {
        self.assumed.len() + self.desired.len() + self.demanded.len()
    }
}

/// Order-preserving retain over the parallel (feedback, compiled) vectors,
/// keeping entries for which `keep` returns true.  The compiled index must
/// stay aligned with its source feedback or guard decisions would consult
/// the wrong pattern.
fn retain_in_sync<F>(
    feedback: &mut Vec<FeedbackPunctuation>,
    compiled: &mut Vec<CompiledPattern>,
    mut keep: F,
) where
    F: FnMut(&FeedbackPunctuation) -> bool,
{
    debug_assert_eq!(feedback.len(), compiled.len());
    let mut kept = 0;
    for i in 0..feedback.len() {
        if keep(&feedback[i]) {
            feedback.swap(kept, i);
            compiled.swap(kept, i);
            kept += 1;
        }
    }
    feedback.truncate(kept);
    compiled.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_punctuation::scheme::Delimitation;
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("segment", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn scheme() -> PunctuationScheme {
        PunctuationScheme::new(
            schema(),
            &[("timestamp", Delimitation::Progressive), ("segment", Delimitation::Grouped)],
        )
        .unwrap()
    }

    fn tuple(ts: i64, seg: i64, speed: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(seg), Value::Float(speed)],
        )
    }

    fn before(ts: i64) -> Pattern {
        Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(ts))))],
        )
        .unwrap()
    }

    fn segment(seg: i64) -> Pattern {
        Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(seg)))]).unwrap()
    }

    #[test]
    fn assumed_guard_suppresses_matching_tuples() {
        let mut reg = FeedbackRegistry::new("IMPUTE");
        reg.register(FeedbackPunctuation::assumed(before(100), "PACE")).unwrap();
        assert_eq!(reg.decide(&tuple(50, 1, 10.0)), GuardDecision::Suppress);
        assert_eq!(reg.decide(&tuple(150, 1, 10.0)), GuardDecision::Pass);
        assert_eq!(reg.stats().tuples_suppressed, 1);
        assert_eq!(reg.active_assumed(), 1);
    }

    #[test]
    fn desired_patterns_prioritize_but_assumed_wins() {
        let mut reg = FeedbackRegistry::new("CLEAN");
        reg.register(FeedbackPunctuation::desired(segment(3), "IMPATIENT")).unwrap();
        assert_eq!(reg.decide(&tuple(10, 3, 1.0)), GuardDecision::Prioritize);
        reg.register(FeedbackPunctuation::assumed(segment(3), "JOIN")).unwrap();
        assert_eq!(reg.decide(&tuple(10, 3, 1.0)), GuardDecision::Suppress);
        assert_eq!(reg.peek(&tuple(10, 4, 1.0)), GuardDecision::Pass);
    }

    #[test]
    fn subsumed_guards_are_coalesced() {
        let mut reg = FeedbackRegistry::new("IMPUTE");
        reg.register(FeedbackPunctuation::assumed(before(100), "PACE")).unwrap();
        // A narrower guard is already implied.
        reg.register(FeedbackPunctuation::assumed(before(50), "PACE")).unwrap();
        assert_eq!(reg.active_assumed(), 1);
        // A wider guard replaces the existing one.
        reg.register(FeedbackPunctuation::assumed(before(200), "PACE")).unwrap();
        assert_eq!(reg.active_assumed(), 1);
        assert_eq!(reg.stats().coalesced, 2);
        assert_eq!(reg.peek(&tuple(150, 1, 1.0)), GuardDecision::Suppress);
    }

    #[test]
    fn strict_registration_rejects_unsupportable_feedback() {
        let mut reg = FeedbackRegistry::new("AVG").with_scheme(scheme(), true);
        // speed is not a delimited attribute.
        let f = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("speed", PatternItem::Ge(Value::Float(50.0)))])
                .unwrap(),
            "JOIN",
        );
        let err = reg.register(f).unwrap_err();
        assert!(
            matches!(err, FeedbackError::Unsupportable { ref attributes } if attributes == &["speed"])
        );
        assert_eq!(reg.stats().rejected_unsupportable, 1);
        assert_eq!(reg.active_assumed(), 0);
    }

    #[test]
    fn lenient_registration_counts_unexpirable_guards() {
        let mut reg = FeedbackRegistry::new("AVG").with_scheme(scheme(), false);
        let f = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("speed", PatternItem::Ge(Value::Float(50.0)))])
                .unwrap(),
            "JOIN",
        );
        reg.register(f).unwrap();
        assert_eq!(reg.active_assumed(), 1);
        assert_eq!(reg.stats().unexpirable_guards, 1);
    }

    #[test]
    fn guards_expire_when_punctuation_catches_up() {
        let mut reg = FeedbackRegistry::new("IMPUTE").with_scheme(scheme(), true);
        reg.register(FeedbackPunctuation::assumed(before(100), "PACE")).unwrap();
        assert_eq!(reg.predicate_state_size(), 1);

        let early = Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(60)).unwrap();
        assert_eq!(reg.expire_with(&early), 0, "punctuation has not caught up");

        let late = Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(100)).unwrap();
        assert_eq!(reg.expire_with(&late), 1);
        assert_eq!(reg.predicate_state_size(), 0);
        assert_eq!(reg.stats().guards_expired, 1);
        // Once expired, previously suppressed tuples pass again (they are now
        // late with respect to embedded punctuation and will be handled by the
        // operator's own lateness logic instead).
        assert_eq!(reg.peek(&tuple(50, 1, 1.0)), GuardDecision::Pass);
    }

    /// `[timestamp ∈ [lo, hi], segment = seg]`: a guard scoped to one period.
    fn scoped(lo: i64, hi: i64, seg: i64) -> Pattern {
        Pattern::for_attributes(
            schema(),
            &[
                (
                    "timestamp",
                    PatternItem::Between(
                        Value::Timestamp(Timestamp::from_secs(lo)),
                        Value::Timestamp(Timestamp::from_secs(hi)),
                    ),
                ),
                ("segment", PatternItem::Eq(Value::Int(seg))),
            ],
        )
        .unwrap()
    }

    fn progress(ts: i64) -> Punctuation {
        Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(ts)).unwrap()
    }

    #[test]
    fn guards_expire_without_a_scheme() {
        let mut reg = FeedbackRegistry::new("AVG");
        reg.register(FeedbackPunctuation::assumed(scoped(0, 59, 3), "display")).unwrap();
        reg.register(FeedbackPunctuation::desired(scoped(0, 59, 4), "display")).unwrap();
        // Undelimited: no progress punctuation ever covers `segment` alone.
        reg.register(FeedbackPunctuation::assumed(segment(7), "display")).unwrap();
        // Not caught up: its period ends after the punctuation.
        reg.register(FeedbackPunctuation::assumed(scoped(60, 119, 3), "display")).unwrap();
        assert_eq!(reg.predicate_state_size(), 4);

        assert_eq!(reg.expire_with(&progress(59)), 2, "the assumed and the desired period-0 guard");
        assert_eq!(reg.stats().guards_expired, 2);
        assert_eq!(reg.active_desired(), 0);
        assert_eq!(reg.active_assumed(), 2);
        assert_eq!(reg.peek(&tuple(200, 7, 1.0)), GuardDecision::Suppress, "undelimited kept");
        assert_eq!(reg.peek(&tuple(90, 3, 1.0)), GuardDecision::Suppress, "period 1 kept");

        assert_eq!(reg.expire_with(&progress(118)), 0, "period 1 is not complete yet");
        assert_eq!(reg.expire_with(&progress(119)), 1);
        assert_eq!(reg.assumed_guards().len(), 1);
        assert_eq!(reg.assumed_guards()[0].pattern(), &segment(7));
        assert_eq!(reg.stats().guards_expired, 3);
    }

    #[test]
    fn feedback_the_stream_has_moved_past_is_not_mounted() {
        let mut reg = FeedbackRegistry::new("SOURCE");
        assert_eq!(reg.expire_with(&progress(119)), 0);
        reg.register(FeedbackPunctuation::assumed(scoped(0, 59, 3), "display")).unwrap();
        reg.register(FeedbackPunctuation::assumed(scoped(120, 179, 3), "display")).unwrap();
        reg.register(FeedbackPunctuation::demanded(scoped(0, 59, 3), "client")).unwrap();
        assert_eq!(reg.active_assumed(), 1, "only the period still to come is mounted");
        assert_eq!(reg.pending_demanded(), 1, "a demand is acted on regardless");
        let stats = reg.stats();
        assert_eq!(stats.received.total() - stats.coalesced - stats.guards_expired, 2);
    }

    #[test]
    fn a_stage_directive_releases_nothing() {
        use dsms_punctuation::StageDirective;
        let mut reg = FeedbackRegistry::new("SHUFFLE");
        reg.register(FeedbackPunctuation::assumed(segment(3), "sink")).unwrap();
        let marker =
            Punctuation::directive(schema(), StageDirective::Migrate { epoch: 1, partitions: 2 });
        assert_eq!(reg.expire_with(&marker), 0, "an all-wildcard marker asserts nothing");
        assert_eq!(reg.active_assumed(), 1);
    }

    #[test]
    fn expiring_an_empty_registry_is_a_no_op() {
        let mut reg = FeedbackRegistry::new("AVG");
        assert_eq!(reg.expire_with(&progress(60)), 0);
        assert_eq!(reg.stats().guards_expired, 0);
    }

    #[test]
    fn a_strict_registry_expires_like_any_other() {
        let mut reg = FeedbackRegistry::new("AVG").with_scheme(scheme(), true);
        let fast = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("speed", PatternItem::Ge(Value::Float(50.0)))])
                .unwrap(),
            "JOIN",
        );
        assert!(reg.register(fast).is_err(), "strict rejection is unchanged");
        reg.register(FeedbackPunctuation::assumed(scoped(0, 59, 3), "display")).unwrap();
        assert_eq!(reg.expire_with(&progress(59)), 1);
        assert_eq!(reg.stats().rejected_unsupportable, 1);
        assert_eq!(reg.predicate_state_size(), 0);
    }

    #[test]
    fn demanded_feedback_is_taken_once() {
        let mut reg = FeedbackRegistry::new("AVG");
        reg.register(FeedbackPunctuation::demanded(segment(2), "client")).unwrap();
        assert_eq!(reg.pending_demanded(), 1);
        let taken = reg.take_demanded();
        assert_eq!(taken.len(), 1);
        assert_eq!(reg.pending_demanded(), 0);
        assert!(reg.take_demanded().is_empty());
    }

    #[test]
    fn duplicate_desired_patterns_coalesce() {
        let mut reg = FeedbackRegistry::new("CLEAN");
        reg.register(FeedbackPunctuation::desired(segment(3), "a")).unwrap();
        reg.register(FeedbackPunctuation::desired(segment(3), "b")).unwrap();
        assert_eq!(reg.active_desired(), 1);
        assert_eq!(reg.stats().coalesced, 1);
    }

    /// Summary lookup over a concrete batch of tuples, as a page would offer.
    fn summaries_of(rows: &[Tuple]) -> impl FnMut(usize) -> Option<ColumnSummary> + '_ {
        move |column| ColumnSummary::over_column(rows, column)
    }

    #[test]
    fn batch_decision_without_guards_short_circuits_without_stats() {
        let mut reg = FeedbackRegistry::new("AVG");
        assert_eq!(reg.decide_batch(64, |_| None), BatchGuardDecision::PassAll);
        assert_eq!(reg.stats().batches_summary_conclusive, 0);
        assert_eq!(reg.stats().batches_summary_fallback, 0);
    }

    #[test]
    fn batch_decision_suppresses_wholesale_when_a_guard_covers_the_batch() {
        let mut reg = FeedbackRegistry::new("IMPUTE");
        reg.register(FeedbackPunctuation::assumed(before(100), "PACE")).unwrap();
        let rows: Vec<Tuple> = (0..8).map(|i| tuple(10 + i, 1, 40.0)).collect();
        assert_eq!(
            reg.decide_batch(rows.len(), summaries_of(&rows)),
            BatchGuardDecision::SuppressAll
        );
        assert_eq!(reg.stats().tuples_suppressed, 8, "counts as 8 per-tuple suppressions");
        assert_eq!(reg.stats().batches_summary_conclusive, 1);
        assert_eq!(reg.stats().batches_summary_fallback, 0);
    }

    #[test]
    fn batch_decision_passes_wholesale_when_no_guard_can_match() {
        let mut reg = FeedbackRegistry::new("IMPUTE");
        reg.register(FeedbackPunctuation::assumed(before(100), "PACE")).unwrap();
        reg.register(FeedbackPunctuation::assumed(segment(9), "JOIN")).unwrap();
        let rows: Vec<Tuple> = (0..8).map(|i| tuple(200 + i, 1, 40.0)).collect();
        assert_eq!(reg.decide_batch(rows.len(), summaries_of(&rows)), BatchGuardDecision::PassAll);
        assert_eq!(reg.stats().tuples_suppressed, 0);
        assert_eq!(reg.stats().batches_summary_conclusive, 1);
    }

    #[test]
    fn batch_decision_falls_back_when_summaries_are_inconclusive() {
        let mut reg = FeedbackRegistry::new("IMPUTE");
        reg.register(FeedbackPunctuation::assumed(before(100), "PACE")).unwrap();
        // Timestamps straddle the guard boundary: some rows match, some don't.
        let rows: Vec<Tuple> = (0..8).map(|i| tuple(96 + i, 1, 40.0)).collect();
        assert_eq!(reg.decide_batch(rows.len(), summaries_of(&rows)), BatchGuardDecision::Mixed);
        assert_eq!(reg.stats().tuples_suppressed, 0, "fallback leaves tuple stats to decide()");
        assert_eq!(reg.stats().batches_summary_fallback, 1);
        // Per-tuple fallback then reaches the same verdicts decide() always did.
        let suppressed = rows.iter().filter(|t| reg.decide(t) == GuardDecision::Suppress).count();
        assert_eq!(suppressed, 4);
    }

    #[test]
    fn batch_decision_is_conservative_about_desired_patterns() {
        let mut reg = FeedbackRegistry::new("CLEAN");
        reg.register(FeedbackPunctuation::desired(segment(3), "IMPATIENT")).unwrap();
        // The batch contains segment 3: prioritization is per-tuple, so the
        // batch cannot pass wholesale.
        let hit: Vec<Tuple> = vec![tuple(10, 3, 1.0), tuple(11, 4, 1.0)];
        assert_eq!(reg.decide_batch(hit.len(), summaries_of(&hit)), BatchGuardDecision::Mixed);
        // A batch provably outside every desired pattern passes wholesale.
        let miss: Vec<Tuple> = vec![tuple(10, 7, 1.0), tuple(11, 8, 1.0)];
        assert_eq!(reg.decide_batch(miss.len(), summaries_of(&miss)), BatchGuardDecision::PassAll);
        assert_eq!(reg.stats().batches_summary_conclusive, 1);
        assert_eq!(reg.stats().batches_summary_fallback, 1);
    }

    #[test]
    fn batch_decision_with_unavailable_summaries_falls_back() {
        let mut reg = FeedbackRegistry::new("IMPUTE");
        reg.register(FeedbackPunctuation::assumed(before(100), "PACE")).unwrap();
        assert_eq!(reg.decide_batch(8, |_| None), BatchGuardDecision::Mixed);
        assert_eq!(reg.stats().batches_summary_fallback, 1);
    }
}
