//! Punctuation schemes and supportable feedback.
//!
//! Section 4.4 of the paper observes that feedback is best supported when it
//! constrains *delimited* attributes — attributes that are covered by embedded
//! punctuation — because the embedded punctuation will eventually subsume the
//! feedback and allow operators to discard feedback-related guards and state.
//! Feedback on an undelimited attribute ("don't show bids of more than $1.00")
//! would leave guard state in the operators forever.
//!
//! A [`PunctuationScheme`] records, per attribute of a stream schema, how
//! embedded punctuation covers that attribute, and answers whether a given
//! feedback pattern is *supportable* under the scheme.  Whether a particular
//! punctuation releases a particular guard does not depend on the scheme:
//! that is [`Pattern::releases`].

use crate::pattern::Pattern;
use dsms_types::{SchemaRef, TypeResult};
use std::collections::BTreeMap;
use std::fmt;

/// How embedded punctuation covers a single attribute of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Delimitation {
    /// The attribute is never punctuated; feedback constraining it will leave
    /// state behind (unsupportable).
    None,
    /// The attribute is punctuated by monotonically advancing prefix
    /// punctuation (e.g. timestamps: `[≤ t, *]` with growing `t`).
    Progressive,
    /// The attribute is punctuated group-by-group (e.g. "all bids for auction
    /// #4 have been seen"), in no particular order.
    Grouped,
}

impl Delimitation {
    /// True when the attribute is covered by some form of embedded punctuation.
    pub fn is_delimited(self) -> bool {
        !matches!(self, Delimitation::None)
    }
}

/// A per-attribute description of how a stream is punctuated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PunctuationScheme {
    schema: SchemaRef,
    delimitation: BTreeMap<usize, Delimitation>,
}

impl PunctuationScheme {
    /// Creates a scheme in which no attribute is delimited.
    pub fn undelimited(schema: SchemaRef) -> Self {
        PunctuationScheme { schema, delimitation: BTreeMap::new() }
    }

    /// Creates a scheme from `(attribute, delimitation)` pairs; unlisted
    /// attributes are undelimited.
    pub fn new(schema: SchemaRef, entries: &[(&str, Delimitation)]) -> TypeResult<Self> {
        let mut delimitation = BTreeMap::new();
        for (name, d) in entries {
            let idx = schema.index_of(name)?;
            delimitation.insert(idx, *d);
        }
        Ok(PunctuationScheme { schema, delimitation })
    }

    /// The stream schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The delimitation of the attribute at `index`.
    pub fn delimitation(&self, index: usize) -> Delimitation {
        self.delimitation.get(&index).copied().unwrap_or(Delimitation::None)
    }

    /// The delimitation of the named attribute.
    pub fn delimitation_of(&self, name: &str) -> TypeResult<Delimitation> {
        Ok(self.delimitation(self.schema.index_of(name)?))
    }

    /// True when the named attribute is delimited.
    pub fn is_delimited(&self, name: &str) -> TypeResult<bool> {
        Ok(self.delimitation_of(name)?.is_delimited())
    }

    /// Marks an attribute as delimited in the given way, returning a new scheme.
    pub fn with(&self, name: &str, d: Delimitation) -> TypeResult<Self> {
        let idx = self.schema.index_of(name)?;
        let mut delimitation = self.delimitation.clone();
        delimitation.insert(idx, d);
        Ok(PunctuationScheme { schema: self.schema.clone(), delimitation })
    }

    /// Decides whether a feedback pattern is *supportable* under this scheme:
    /// every attribute the pattern constrains must be delimited, so that the
    /// guard state the feedback induces is guaranteed to be discardable once
    /// embedded punctuation catches up (paper Section 4.4).
    pub fn supports(&self, pattern: &Pattern) -> bool {
        pattern.constrained_attributes().iter().all(|&idx| self.delimitation(idx).is_delimited())
    }

    /// Returns the (names of the) constrained attributes of `pattern` that are
    /// *not* delimited — the reason a pattern is unsupportable, for
    /// diagnostics.
    pub fn unsupportable_attributes(&self, pattern: &Pattern) -> Vec<String> {
        pattern
            .constrained_attributes()
            .iter()
            .filter(|&&idx| !self.delimitation(idx).is_delimited())
            .filter_map(|&idx| self.schema.field(idx).ok().map(|f| f.name().to_string()))
            .collect()
    }
}

impl fmt::Display for PunctuationScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, field)| format!("{}: {:?}", field.name(), self.delimitation(i)))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternItem;
    use dsms_types::{DataType, Schema, Timestamp, Value};

    fn bid_schema() -> SchemaRef {
        Schema::shared(&[
            ("timestamp", DataType::Timestamp),
            ("auction", DataType::Int),
            ("bidder", DataType::Int),
            ("amount", DataType::Float),
        ])
    }

    fn scheme() -> PunctuationScheme {
        PunctuationScheme::new(
            bid_schema(),
            &[("timestamp", Delimitation::Progressive), ("auction", Delimitation::Grouped)],
        )
        .unwrap()
    }

    #[test]
    fn delimitation_lookup() {
        let s = scheme();
        assert!(s.is_delimited("timestamp").unwrap());
        assert!(s.is_delimited("auction").unwrap());
        assert!(!s.is_delimited("amount").unwrap());
        assert!(s.is_delimited("volume").is_err());
        assert_eq!(s.delimitation_of("timestamp").unwrap(), Delimitation::Progressive);
    }

    #[test]
    fn supportable_feedback_on_delimited_attributes() {
        let s = scheme();
        // "Do not show bids prior to 1:00 pm" — timestamp is progressive: supportable.
        let before = Pattern::for_attributes(
            bid_schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_hours(13))))],
        )
        .unwrap();
        assert!(s.supports(&before));

        // "No results for bidder #2 in auction #4" — auction delimited, bidder not.
        let bidder_auction = Pattern::for_attributes(
            bid_schema(),
            &[
                ("auction", PatternItem::Eq(Value::Int(4))),
                ("bidder", PatternItem::Eq(Value::Int(2))),
            ],
        )
        .unwrap();
        assert!(!s.supports(&bidder_auction));
        assert_eq!(s.unsupportable_attributes(&bidder_auction), vec!["bidder".to_string()]);

        // "Don't show bids of more than $1.00" — amounts are never punctuated.
        let amount = Pattern::for_attributes(
            bid_schema(),
            &[("amount", PatternItem::Gt(Value::Float(1.0)))],
        )
        .unwrap();
        assert!(!s.supports(&amount));
    }

    #[test]
    fn with_adds_delimitation() {
        let s = scheme().with("bidder", Delimitation::Grouped).unwrap();
        let bidder =
            Pattern::for_attributes(bid_schema(), &[("bidder", PatternItem::Eq(Value::Int(2)))])
                .unwrap();
        assert!(s.supports(&bidder));
        assert!(!scheme().supports(&bidder));
    }

    #[test]
    fn release_requires_subsumption_on_constrained_attributes() {
        let feedback = Pattern::for_attributes(
            bid_schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_hours(13))))],
        )
        .unwrap();
        let early_punct = Pattern::for_attributes(
            bid_schema(),
            &[("timestamp", PatternItem::Le(Value::Timestamp(Timestamp::from_hours(12))))],
        )
        .unwrap();
        let late_punct = Pattern::for_attributes(
            bid_schema(),
            &[("timestamp", PatternItem::Le(Value::Timestamp(Timestamp::from_hours(13))))],
        )
        .unwrap();
        assert!(!early_punct.releases(&feedback), "punctuation has not caught up yet");
        assert!(late_punct.releases(&feedback), "punctuation at 13:00 covers `< 13:00`");
    }

    /// Regression: releasing used to check only the attributes the *guard*
    /// constrains, so progress on `timestamp` released a guard on `auction`
    /// alone, and rows of that auction after the watermark passed again.
    #[test]
    fn release_requires_subsumption_on_every_attribute() {
        let at = |hours| Value::Timestamp(Timestamp::from_hours(hours));
        let progress =
            Pattern::for_attributes(bid_schema(), &[("timestamp", PatternItem::Le(at(13)))])
                .unwrap();

        let auction_3 =
            Pattern::for_attributes(bid_schema(), &[("auction", PatternItem::Eq(Value::Int(3)))])
                .unwrap();
        assert!(!progress.releases(&auction_3), "later bids on auction 3 must stay suppressed");

        let scoped = |hi| {
            Pattern::for_attributes(
                bid_schema(),
                &[
                    ("timestamp", PatternItem::Between(at(12), at(hi))),
                    ("auction", PatternItem::InSet(vec![Value::Int(3), Value::Int(4)])),
                ],
            )
            .unwrap()
        };
        assert!(progress.releases(&scoped(13)), "the whole scoped period is complete");
        assert!(!progress.releases(&scoped(14)), "part of the period is still to come");

        let other_schema = Schema::shared(&[("timestamp", DataType::Timestamp)]);
        let foreign = Pattern::for_attributes(
            other_schema.clone(),
            &[("timestamp", PatternItem::Le(at(13)))],
        )
        .unwrap();
        let foreign_guard =
            Pattern::for_attributes(other_schema, &[("timestamp", PatternItem::Le(at(12)))])
                .unwrap();
        assert!(foreign.releases(&foreign_guard));
        assert!(!foreign.releases(&scoped(12)), "a schema mismatch never releases");
        assert!(!progress.releases(&foreign_guard), "a schema mismatch never releases");
    }

    #[test]
    fn unconstrained_feedback_is_trivially_supportable() {
        let s = PunctuationScheme::undelimited(bid_schema());
        assert!(s.supports(&Pattern::all_wildcards(bid_schema())));
    }
}
