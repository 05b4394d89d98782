//! Embedded punctuation.
//!
//! An *embedded* punctuation flows in the data stream (interleaved with
//! tuples) and asserts that no further tuples matching its pattern will
//! appear.  Operators use embedded punctuation to produce results for
//! completed windows and to purge state; the engine also uses a punctuation
//! arriving at a queue to flush a partially filled page (NiagaraST,
//! Section 5).

use crate::pattern::{Pattern, PatternItem};
use dsms_types::{SchemaRef, Timestamp, Tuple, TypeResult, Value};
use std::fmt;

/// A control verb for elastic repartitioning of a shuffle→replicas→merge
/// stage, carried piggyback on a punctuation (the consistent-cut marker) or
/// on a feedback punctuation (the upstream acknowledgement).
///
/// The stage's shuffle is its only coordinator: it decides a new width at a
/// punctuation boundary of its own input, then runs a three-step handshake
/// per `epoch` (one resize):
///
/// 1. [`Migrate`](StageDirective::Migrate) — the shuffle embeds a migration
///    marker on every replica stream; each replica exports its keyed state at
///    that boundary.
/// 2. [`Ack`](StageDirective::Ack) — each replica acknowledges the cut
///    upstream after exporting.
/// 3. [`Commit`](StageDirective::Commit) — once every replica has
///    acknowledged, the shuffle switches routing and embeds a commit marker;
///    replicas reinstall their share of the exported state behind it.
///
/// A marker asserts no watermark on any attribute, so the stage's merge
/// absorbs it like any other per-input punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageDirective {
    /// Shuffle → replicas (embedded marker): export keyed state at this cut.
    Migrate {
        /// The resize round this cut belongs to.
        epoch: u64,
        /// Partition count the stage is migrating toward.
        partitions: usize,
    },
    /// Replica → shuffle (feedback): state exported, the cut is clean here.
    Ack {
        /// The resize round being acknowledged.
        epoch: u64,
        /// Index of the acknowledging replica.
        replica: usize,
    },
    /// Shuffle → replicas (embedded marker): routing switched; reinstall
    /// state for the new width.  A commit carrying the *old* width cancels
    /// the resize (used when the stream ends mid-handshake).
    Commit {
        /// The resize round being committed.
        epoch: u64,
        /// Partition count now in effect.
        partitions: usize,
    },
}

/// An embedded punctuation: "no more tuples matching this pattern".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Punctuation {
    pattern: Pattern,
    directive: Option<StageDirective>,
}

impl Punctuation {
    /// Wraps a pattern as an embedded punctuation.
    pub fn new(pattern: Pattern) -> Self {
        Punctuation { pattern, directive: None }
    }

    /// An all-wildcard punctuation carrying an elastic-stage directive —
    /// asserts nothing about the stream (the empty subset is complete) and
    /// exists purely as an in-band consistent-cut marker.
    pub fn directive(schema: SchemaRef, directive: StageDirective) -> Self {
        Punctuation { pattern: Pattern::all_wildcards(schema), directive: Some(directive) }
    }

    /// The elastic-stage directive riding on this punctuation, if any.
    pub fn stage_directive(&self) -> Option<StageDirective> {
        self.directive
    }

    /// The canonical stream-progress punctuation: "all tuples with
    /// `attribute ≤ watermark` have been seen" — the form used by the OOP
    /// architecture to communicate progress on a timestamp attribute.
    pub fn progress(schema: SchemaRef, attribute: &str, watermark: Timestamp) -> TypeResult<Self> {
        let pattern = Pattern::for_attributes(
            schema,
            &[(attribute, PatternItem::Le(Value::Timestamp(watermark)))],
        )?;
        Ok(Punctuation { pattern, directive: None })
    }

    /// A punctuation asserting that a whole group (e.g. a window id or a
    /// segment) is complete: `attribute = value`.
    pub fn group_complete(schema: SchemaRef, attribute: &str, value: Value) -> TypeResult<Self> {
        let pattern = Pattern::for_attributes(schema, &[(attribute, PatternItem::Eq(value))])?;
        Ok(Punctuation { pattern, directive: None })
    }

    /// The underlying pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The schema this punctuation is defined over.
    pub fn schema(&self) -> &SchemaRef {
        self.pattern.schema()
    }

    /// True when the punctuation's pattern matches the tuple — i.e. the tuple
    /// belongs to the subset declared complete.  A tuple arriving *after* a
    /// punctuation that matches it is late/out-of-contract.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.pattern.matches(tuple)
    }

    /// True when this punctuation releases the feedback guard `guard`
    /// ([`Pattern::releases`]).  A stage-directive marker asserts nothing
    /// about the stream, so it releases nothing despite its all-wildcard
    /// pattern.
    pub fn releases(&self, guard: &Pattern) -> bool {
        self.directive.is_none() && self.pattern.releases(guard)
    }

    /// True when this punctuation implies `other` (every subset declared
    /// complete by `other` is also declared complete by this one).
    pub fn implies(&self, other: &Punctuation) -> bool {
        self.pattern.subsumes(&other.pattern)
    }

    /// If this punctuation is a progress punctuation on `attribute`
    /// (`attribute ≤ t` or `< t`), returns the watermark `t`.
    pub fn watermark_for(&self, attribute: &str) -> Option<Timestamp> {
        let item = self.pattern.item_for(attribute).ok()?;
        match item {
            PatternItem::Le(Value::Timestamp(t)) | PatternItem::Lt(Value::Timestamp(t)) => Some(*t),
            _ => None,
        }
    }

    /// If this punctuation declares a single group complete on `attribute`
    /// (`attribute = v`), returns the group value.
    pub fn completed_group(&self, attribute: &str) -> Option<Value> {
        match self.pattern.item_for(attribute).ok()? {
            PatternItem::Eq(v) => Some(v.clone()),
            _ => None,
        }
    }
}

impl fmt::Display for Punctuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pattern)
    }
}

impl From<Pattern> for Punctuation {
    fn from(pattern: Pattern) -> Self {
        Punctuation::new(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema};

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

    #[test]
    fn progress_punctuation_matches_past_tuples() {
        let p = Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(100)).unwrap();
        assert!(p.matches(&tuple(99, 1, 10.0)));
        assert!(p.matches(&tuple(100, 1, 10.0)));
        assert!(!p.matches(&tuple(101, 1, 10.0)));
        assert_eq!(p.watermark_for("timestamp"), Some(Timestamp::from_secs(100)));
        assert_eq!(p.watermark_for("segment"), None);
    }

    #[test]
    fn group_complete_punctuation() {
        let p = Punctuation::group_complete(schema(), "segment", Value::Int(4)).unwrap();
        assert!(p.matches(&tuple(1, 4, 10.0)));
        assert!(!p.matches(&tuple(1, 5, 10.0)));
        assert_eq!(p.completed_group("segment"), Some(Value::Int(4)));
        assert_eq!(p.completed_group("timestamp"), None);
    }

    #[test]
    fn implication_follows_subsumption() {
        let later =
            Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(200)).unwrap();
        let earlier =
            Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(100)).unwrap();
        assert!(later.implies(&earlier));
        assert!(!earlier.implies(&later));
    }

    #[test]
    fn display_uses_bracket_notation() {
        let p = Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(60)).unwrap();
        assert_eq!(p.to_string(), "[<=00:01:00, *, *]");
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        assert!(Punctuation::progress(schema(), "volume", Timestamp::EPOCH).is_err());
        assert!(Punctuation::group_complete(schema(), "volume", Value::Int(1)).is_err());
    }
}
