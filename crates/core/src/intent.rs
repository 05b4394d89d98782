//! Feedback intents and the feedback punctuation message itself.
//!
//! A feedback punctuation differs from an embedded punctuation in two ways
//! (paper Section 3.2): it flows *against* the stream direction (on the
//! control channel, not in the data stream), and it carries an *intent*
//! describing what the issuer wants done about the described subset.

use dsms_punctuation::{Pattern, StageDirective};
use dsms_types::SchemaRef;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The intent carried by a feedback punctuation (paper Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeedbackIntent {
    /// `¬[p]`: the issuer proceeds as if the described subset will never be
    /// seen; antecedent operators may avoid producing it.  A hint, not a
    /// command — the null response is still correct (Definition 1).
    Assumed,
    /// `?[p]`: the issuer would like the described subset as soon as
    /// possible; antecedents may prioritize its production.  Does not change
    /// the overall result, only production time and order.
    Desired,
    /// `![p]`: the conceptual intersection of assumed and desired — "I need
    /// this subset now", and a partial/approximate answer is acceptable
    /// (e.g. unblocking an aggregate to emit a partial result).
    Demanded,
}

impl FeedbackIntent {
    /// The paper's prefix notation for this intent.
    pub fn prefix(&self) -> &'static str {
        match self {
            FeedbackIntent::Assumed => "¬",
            FeedbackIntent::Desired => "?",
            FeedbackIntent::Demanded => "!",
        }
    }

    /// Short lowercase name, used in metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FeedbackIntent::Assumed => "assumed",
            FeedbackIntent::Desired => "desired",
            FeedbackIntent::Demanded => "demanded",
        }
    }

    /// True when exploiting this intent may change *which* tuples appear in
    /// the issuer's output (assumed and demanded), as opposed to only their
    /// production time and order (desired).
    pub fn may_drop_tuples(&self) -> bool {
        matches!(self, FeedbackIntent::Assumed | FeedbackIntent::Demanded)
    }
}

impl fmt::Display for FeedbackIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

static NEXT_FEEDBACK_ID: AtomicU64 = AtomicU64::new(1);

/// A feedback punctuation message: an intent plus a pattern describing the
/// subset of interest, tagged with the issuing operator and a unique id.
///
/// Feedback punctuation is *not* part of the data stream; it travels on the
/// upstream control channel (see `dsms-engine::control`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackPunctuation {
    id: u64,
    intent: FeedbackIntent,
    pattern: Pattern,
    issuer: String,
    /// How many operators have relayed this feedback so far (0 = direct from
    /// the issuer).  Useful for diagnostics and for bounding propagation depth
    /// in experiments.
    hops: u32,
    /// Optional elastic-stage directive riding on the control channel (a
    /// replica's migration acknowledgement).  Only elastic-aware
    /// operators interpret it; everyone else relays it untouched.
    directive: Option<StageDirective>,
}

impl FeedbackPunctuation {
    /// Creates a feedback punctuation with a fresh id.
    pub fn new(intent: FeedbackIntent, pattern: Pattern, issuer: impl Into<String>) -> Self {
        FeedbackPunctuation {
            id: NEXT_FEEDBACK_ID.fetch_add(1, Ordering::Relaxed),
            intent,
            pattern,
            issuer: issuer.into(),
            hops: 0,
            directive: None,
        }
    }

    /// Attaches an elastic-stage directive to this feedback message.
    pub fn with_directive(mut self, directive: StageDirective) -> Self {
        self.directive = Some(directive);
        self
    }

    /// The elastic-stage directive riding on this feedback, if any.
    pub fn stage_directive(&self) -> Option<StageDirective> {
        self.directive
    }

    /// Creates an *assumed* (`¬[p]`) feedback punctuation.
    pub fn assumed(pattern: Pattern, issuer: impl Into<String>) -> Self {
        Self::new(FeedbackIntent::Assumed, pattern, issuer)
    }

    /// Creates a *desired* (`?[p]`) feedback punctuation.
    pub fn desired(pattern: Pattern, issuer: impl Into<String>) -> Self {
        Self::new(FeedbackIntent::Desired, pattern, issuer)
    }

    /// Creates a *demanded* (`![p]`) feedback punctuation.
    pub fn demanded(pattern: Pattern, issuer: impl Into<String>) -> Self {
        Self::new(FeedbackIntent::Demanded, pattern, issuer)
    }

    /// Unique id of this feedback message.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The intent.
    pub fn intent(&self) -> FeedbackIntent {
        self.intent
    }

    /// The pattern describing the subset of interest.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The schema the pattern is defined over (the schema of the stream the
    /// feedback flows against).
    pub fn schema(&self) -> &SchemaRef {
        self.pattern.schema()
    }

    /// Name of the operator that issued (or last relayed) this feedback.
    pub fn issuer(&self) -> &str {
        &self.issuer
    }

    /// Number of relays this feedback has passed through.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Builds the relayed version of this feedback: same intent, a rewritten
    /// pattern (onto an antecedent's schema), a new relayer name and one more
    /// hop.  The id is preserved so the lineage of a feedback message can be
    /// traced across operators.
    pub fn relay(&self, pattern: Pattern, relayer: impl Into<String>) -> Self {
        FeedbackPunctuation {
            id: self.id,
            intent: self.intent,
            pattern,
            issuer: relayer.into(),
            hops: self.hops + 1,
            directive: self.directive,
        }
    }

    /// True when this feedback describes the given tuple.
    pub fn describes(&self, tuple: &dsms_types::Tuple) -> bool {
        self.pattern.matches(tuple)
    }
}

impl fmt::Display for FeedbackPunctuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} (from {}, #{}, {} hops)",
            self.intent.prefix(),
            self.pattern,
            self.issuer,
            self.id,
            self.hops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_punctuation::PatternItem;
    use dsms_types::{DataType, Schema, Timestamp, Tuple, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("value", DataType::Float)])
    }

    fn before(ts: i64) -> Pattern {
        Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(ts))))],
        )
        .unwrap()
    }

    #[test]
    fn intents_have_paper_notation() {
        assert_eq!(FeedbackIntent::Assumed.prefix(), "¬");
        assert_eq!(FeedbackIntent::Desired.prefix(), "?");
        assert_eq!(FeedbackIntent::Demanded.prefix(), "!");
        assert!(FeedbackIntent::Assumed.may_drop_tuples());
        assert!(FeedbackIntent::Demanded.may_drop_tuples());
        assert!(!FeedbackIntent::Desired.may_drop_tuples());
    }

    #[test]
    fn ids_are_unique_and_preserved_across_relays() {
        let f1 = FeedbackPunctuation::assumed(before(100), "PACE");
        let f2 = FeedbackPunctuation::assumed(before(100), "PACE");
        assert_ne!(f1.id(), f2.id());

        let relayed = f1.relay(before(100), "IMPUTE");
        assert_eq!(relayed.id(), f1.id());
        assert_eq!(relayed.hops(), 1);
        assert_eq!(relayed.issuer(), "IMPUTE");
        assert_eq!(relayed.intent(), FeedbackIntent::Assumed);
    }

    #[test]
    fn describes_matches_pattern() {
        let f = FeedbackPunctuation::assumed(before(100), "PACE");
        let early = Tuple::new(
            schema(),
            vec![Value::Timestamp(Timestamp::from_secs(50)), Value::Float(1.0)],
        );
        let late = Tuple::new(
            schema(),
            vec![Value::Timestamp(Timestamp::from_secs(150)), Value::Float(1.0)],
        );
        assert!(f.describes(&early));
        assert!(!f.describes(&late));
    }

    #[test]
    fn display_uses_prefix_notation() {
        let f = FeedbackPunctuation::desired(before(10), "IMPATIENT-JOIN");
        let s = f.to_string();
        assert!(s.starts_with('?'));
        assert!(s.contains("IMPATIENT-JOIN"));
    }

    #[test]
    fn constructors_set_expected_intents() {
        assert_eq!(FeedbackPunctuation::assumed(before(1), "a").intent(), FeedbackIntent::Assumed);
        assert_eq!(FeedbackPunctuation::desired(before(1), "a").intent(), FeedbackIntent::Desired);
        assert_eq!(
            FeedbackPunctuation::demanded(before(1), "a").intent(),
            FeedbackIntent::Demanded
        );
    }
}
