//! Per-attribute and whole-tuple match patterns.
//!
//! A punctuation (embedded or feedback) describes a *set of tuples* by giving
//! one [`PatternItem`] per attribute of the stream schema.  The paper writes
//! these as e.g. `[*, *, ≤'2008-12-08 9:00 AM']` — a wildcard on the first two
//! attributes and an upper bound on the third.  Feedback punctuation reuses
//! the same pattern language but typically punctuates a wider variety of
//! attributes (e.g. `[*, ≥50]` for "all tuples whose value is at least 50").

use dsms_types::{ColumnSummary, SchemaRef, Tuple, TypeError, TypeResult, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a pattern (or pattern item) can conclude about a whole batch of
/// tuples from column summaries alone.
///
/// The three-valued answer is what makes batch-level guard evaluation sound:
/// a conclusive answer (`All` / `None`) lets the caller skip per-tuple
/// matching entirely, and `Unknown` forces the per-tuple fallback — there is
/// no case in which a summary verdict and per-tuple evaluation disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryMatch {
    /// Every tuple of the summarized batch matches.
    All,
    /// No tuple of the summarized batch matches.
    None,
    /// The summary cannot decide; evaluate per tuple.
    Unknown,
}

/// The match specification for a single attribute of a pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternItem {
    /// `*` — matches any value.
    Wildcard,
    /// `= v` — matches exactly `v`.
    Eq(Value),
    /// `< v` — matches values strictly below `v`.
    Lt(Value),
    /// `≤ v` — matches values at or below `v`.
    Le(Value),
    /// `> v` — matches values strictly above `v`.
    Gt(Value),
    /// `≥ v` — matches values at or above `v`.
    Ge(Value),
    /// `[lo, hi]` — matches values in the closed interval.
    Between(Value, Value),
    /// `∈ {v₁, …}` — matches any of the listed values.
    InSet(Vec<Value>),
}

impl PatternItem {
    /// True when this item matches the given value.
    ///
    /// `Null` values match only the wildcard: a null reading is "unknown", so
    /// no relational predicate can claim it.
    pub fn matches(&self, value: &Value) -> bool {
        if value.is_null() {
            return matches!(self, PatternItem::Wildcard);
        }
        match self {
            PatternItem::Wildcard => true,
            PatternItem::Eq(v) => value == v,
            PatternItem::Lt(v) => value < v,
            PatternItem::Le(v) => value <= v,
            PatternItem::Gt(v) => value > v,
            PatternItem::Ge(v) => value >= v,
            PatternItem::Between(lo, hi) => value >= lo && value <= hi,
            PatternItem::InSet(vs) => vs.contains(value),
        }
    }

    /// True when this item is the wildcard.
    pub fn is_wildcard(&self) -> bool {
        matches!(self, PatternItem::Wildcard)
    }

    /// Classifies a whole batch against this item from its [`ColumnSummary`]
    /// alone.
    ///
    /// The summary's min/max use the same total order as
    /// [`PatternItem::matches`], so every conclusive verdict is exact:
    ///
    /// * [`SummaryMatch::None`] needs only the range of the *non-null* values
    ///   to lie outside the item (nulls never match a non-wildcard item) —
    ///   or, for `Eq` and `InSet`, the summary's integer-presence mask to
    ///   exclude every member ([`ColumnSummary::excludes`]), which proves a
    ///   miss for a member inside the range;
    /// * [`SummaryMatch::All`] additionally requires a null-free column,
    ///   because a null row would fail the item even inside the range.
    ///
    /// An empty summary yields [`SummaryMatch::Unknown`] — there is nothing
    /// to conclude about.
    ///
    /// ```
    /// use dsms_punctuation::{PatternItem, SummaryMatch};
    /// use dsms_types::{ColumnSummary, Value};
    ///
    /// let speeds =
    ///     ColumnSummary::over_values([Value::Float(40.0), Value::Float(48.5)].iter());
    /// let fast = PatternItem::Ge(Value::Float(50.0));
    /// assert_eq!(fast.matches_summary(&speeds), SummaryMatch::None);
    /// let slow = PatternItem::Lt(Value::Float(50.0));
    /// assert_eq!(slow.matches_summary(&speeds), SummaryMatch::All);
    /// let mid = PatternItem::Ge(Value::Float(45.0));
    /// assert_eq!(mid.matches_summary(&speeds), SummaryMatch::Unknown);
    /// ```
    pub fn matches_summary(&self, summary: &ColumnSummary) -> SummaryMatch {
        if summary.is_empty() {
            return SummaryMatch::Unknown;
        }
        if self.is_wildcard() {
            return SummaryMatch::All;
        }
        if summary.all_null() {
            // Null matches only the wildcard, so a non-wildcard item matches
            // nothing in an all-null column.
            return SummaryMatch::None;
        }
        let (Some(min), Some(max)) = (summary.min(), summary.max()) else {
            return SummaryMatch::Unknown;
        };
        // An `All` claim must also cover the null rows, which never match a
        // non-wildcard item; a `None` claim only concerns the non-null rows
        // the range describes.
        let can_claim_all = !summary.has_nulls();
        let all_or_unknown = |every_value_matches: bool| {
            if every_value_matches && can_claim_all {
                SummaryMatch::All
            } else {
                SummaryMatch::Unknown
            }
        };
        match self {
            PatternItem::Wildcard => SummaryMatch::All,
            PatternItem::Eq(v) => {
                if v < min || v > max || summary.excludes(v) {
                    SummaryMatch::None
                } else {
                    all_or_unknown(min == max && min == v)
                }
            }
            PatternItem::Lt(v) => {
                if min >= v {
                    SummaryMatch::None
                } else {
                    all_or_unknown(max < v)
                }
            }
            PatternItem::Le(v) => {
                if min > v {
                    SummaryMatch::None
                } else {
                    all_or_unknown(max <= v)
                }
            }
            PatternItem::Gt(v) => {
                if max <= v {
                    SummaryMatch::None
                } else {
                    all_or_unknown(min > v)
                }
            }
            PatternItem::Ge(v) => {
                if max < v {
                    SummaryMatch::None
                } else {
                    all_or_unknown(min >= v)
                }
            }
            PatternItem::Between(lo, hi) => {
                if max < lo || min > hi {
                    SummaryMatch::None
                } else {
                    all_or_unknown(min >= lo && max <= hi)
                }
            }
            PatternItem::InSet(vs) => {
                if vs.iter().all(|v| v < min || v > max || summary.excludes(v)) {
                    SummaryMatch::None
                } else {
                    // Conclusive-all only for a constant column whose single
                    // value is in the set.
                    all_or_unknown(min == max && vs.contains(min))
                }
            }
        }
    }

    /// True when every value matched by `other` is also matched by `self`
    /// (conservative: returns `false` when subsumption cannot be proven
    /// syntactically).
    pub fn subsumes(&self, other: &PatternItem) -> bool {
        use PatternItem::*;
        match (self, other) {
            (Wildcard, _) => true,
            (_, Wildcard) => false,
            (Eq(a), Eq(b)) => a == b,
            (Eq(a), InSet(bs)) => bs.iter().all(|b| b == a),
            (Lt(a), Lt(b)) => b <= a,
            (Lt(a), Le(b)) => b < a,
            (Lt(a), Eq(b)) => b < a,
            (Le(a), Le(b)) => b <= a,
            (Le(a), Lt(b)) => b <= a,
            (Le(a), Eq(b)) => b <= a,
            (Gt(a), Gt(b)) => b >= a,
            (Gt(a), Ge(b)) => b > a,
            (Gt(a), Eq(b)) => b > a,
            (Ge(a), Ge(b)) => b >= a,
            (Ge(a), Gt(b)) => b >= a,
            (Ge(a), Eq(b)) => b >= a,
            (Between(lo, hi), Eq(b)) => b >= lo && b <= hi,
            (Between(lo, hi), Between(lo2, hi2)) => lo2 >= lo && hi2 <= hi,
            (Between(lo, hi), InSet(bs)) => bs.iter().all(|b| b >= lo && b <= hi),
            (InSet(avs), Eq(b)) => avs.contains(b),
            (InSet(avs), InSet(bvs)) => bvs.iter().all(|b| avs.contains(b)),
            (Lt(a), Between(_, hi)) => hi < a,
            (Le(a), Between(_, hi)) => hi <= a,
            (Gt(a), Between(lo, _)) => lo > a,
            (Ge(a), Between(lo, _)) => lo >= a,
            (Lt(a), InSet(bs)) => bs.iter().all(|b| b < a),
            (Le(a), InSet(bs)) => bs.iter().all(|b| b <= a),
            (Gt(a), InSet(bs)) => bs.iter().all(|b| b > a),
            (Ge(a), InSet(bs)) => bs.iter().all(|b| b >= a),
            _ => false,
        }
    }

    /// True when there exists no value matched by both items (conservative:
    /// returns `false` when disjointness cannot be proven syntactically).
    pub fn disjoint_from(&self, other: &PatternItem) -> bool {
        use PatternItem::*;
        match (self, other) {
            (Wildcard, _) | (_, Wildcard) => false,
            (Eq(a), Eq(b)) => a != b,
            (Eq(a), Lt(b)) | (Lt(b), Eq(a)) => a >= b,
            (Eq(a), Le(b)) | (Le(b), Eq(a)) => a > b,
            (Eq(a), Gt(b)) | (Gt(b), Eq(a)) => a <= b,
            (Eq(a), Ge(b)) | (Ge(b), Eq(a)) => a < b,
            (Eq(a), Between(lo, hi)) | (Between(lo, hi), Eq(a)) => a < lo || a > hi,
            (Eq(a), InSet(bs)) | (InSet(bs), Eq(a)) => !bs.contains(a),
            (Lt(a), Gt(b)) | (Gt(b), Lt(a)) => {
                a <= b || {
                    // (< a) and (> b) overlap iff b < x < a has a solution; for our
                    // totally ordered domains treat non-empty open interval as overlap.
                    false
                }
            }
            (Lt(a), Ge(b)) | (Ge(b), Lt(a)) => a <= b,
            (Le(a), Gt(b)) | (Gt(b), Le(a)) => a <= b,
            (Le(a), Ge(b)) | (Ge(b), Le(a)) => a < b,
            (Between(lo1, hi1), Between(lo2, hi2)) => hi1 < lo2 || hi2 < lo1,
            (Between(lo, hi), Lt(a)) | (Lt(a), Between(lo, hi)) => {
                let _ = hi;
                lo >= a
            }
            (Between(lo, hi), Le(a)) | (Le(a), Between(lo, hi)) => {
                let _ = hi;
                lo > a
            }
            (Between(lo, hi), Gt(a)) | (Gt(a), Between(lo, hi)) => {
                let _ = lo;
                hi <= a
            }
            (Between(lo, hi), Ge(a)) | (Ge(a), Between(lo, hi)) => {
                let _ = lo;
                hi < a
            }
            (InSet(avs), InSet(bvs)) => avs.iter().all(|a| !bvs.contains(a)),
            (InSet(vs), other) | (other, InSet(vs)) => vs.iter().all(|v| !other.matches(v)),
            _ => false,
        }
    }
}

impl fmt::Display for PatternItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternItem::Wildcard => write!(f, "*"),
            PatternItem::Eq(v) => write!(f, "{v}"),
            PatternItem::Lt(v) => write!(f, "<{v}"),
            PatternItem::Le(v) => write!(f, "<={v}"),
            PatternItem::Gt(v) => write!(f, ">{v}"),
            PatternItem::Ge(v) => write!(f, ">={v}"),
            PatternItem::Between(lo, hi) => write!(f, "[{lo}..{hi}]"),
            PatternItem::InSet(vs) => {
                let parts: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                write!(f, "{{{}}}", parts.join(","))
            }
        }
    }
}

/// A whole-tuple pattern: one [`PatternItem`] per attribute of a schema.
///
/// The indices of the non-wildcard items are precomputed at construction, so
/// [`Pattern::matches`] and [`Pattern::constrained_attributes`] never scan
/// (or allocate for) the wildcard positions — full-arity patterns with one
/// constrained attribute, the common case for feedback guards, cost one item
/// check per tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    schema: SchemaRef,
    items: Vec<PatternItem>,
    /// Indices of non-wildcard items; derived from `items`, so the derived
    /// equality/hash over it stays consistent.
    constrained: Vec<usize>,
}

impl Pattern {
    fn assemble(schema: SchemaRef, items: Vec<PatternItem>) -> Self {
        let constrained = items
            .iter()
            .enumerate()
            .filter(|(_, item)| !item.is_wildcard())
            .map(|(i, _)| i)
            .collect();
        Pattern { schema, items, constrained }
    }

    /// Creates a pattern, checking that the item count matches the schema
    /// arity.
    pub fn try_new(schema: SchemaRef, items: Vec<PatternItem>) -> TypeResult<Self> {
        if items.len() != schema.arity() {
            return Err(TypeError::ArityMismatch {
                values: items.len(),
                attributes: schema.arity(),
            });
        }
        Ok(Pattern::assemble(schema, items))
    }

    /// Creates a pattern, panicking when the arity does not match.
    pub fn new(schema: SchemaRef, items: Vec<PatternItem>) -> Self {
        Self::try_new(schema, items).expect("pattern arity must match schema")
    }

    /// A pattern of all wildcards (matches every tuple of the schema).
    pub fn all_wildcards(schema: SchemaRef) -> Self {
        let items = vec![PatternItem::Wildcard; schema.arity()];
        Pattern::assemble(schema, items)
    }

    /// Builds a pattern that is wildcard everywhere except the named
    /// attributes, which get the supplied items.
    pub fn for_attributes(
        schema: SchemaRef,
        constraints: &[(&str, PatternItem)],
    ) -> TypeResult<Self> {
        let mut items = vec![PatternItem::Wildcard; schema.arity()];
        for (name, item) in constraints {
            let idx = schema.index_of(name)?;
            items[idx] = item.clone();
        }
        Ok(Pattern::assemble(schema, items))
    }

    /// The schema this pattern is defined over.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The per-attribute items.
    pub fn items(&self) -> &[PatternItem] {
        &self.items
    }

    /// The item for the attribute at `index`.
    pub fn item(&self, index: usize) -> Option<&PatternItem> {
        self.items.get(index)
    }

    /// The item for the named attribute.
    pub fn item_for(&self, name: &str) -> TypeResult<&PatternItem> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.items[idx])
    }

    /// Indices of attributes that are *not* wildcards — the attributes this
    /// pattern actually constrains.  Precomputed at construction; calling
    /// this never allocates.
    pub fn constrained_attributes(&self) -> &[usize] {
        &self.constrained
    }

    /// True when the pattern constrains nothing (all wildcards).
    pub fn is_unconstrained(&self) -> bool {
        self.constrained.is_empty()
    }

    /// True when this pattern matches the tuple.  The tuple must have the same
    /// arity; callers are expected to only apply patterns to tuples of the
    /// pattern's stream.  Only constrained attributes are checked — wildcard
    /// positions are skipped entirely.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        debug_assert_eq!(tuple.arity(), self.items.len(), "pattern/tuple arity mismatch");
        let values = tuple.values();
        self.constrained
            .iter()
            .all(|&i| values.get(i).is_none_or(|value| self.items[i].matches(value)))
    }

    /// Compiles this pattern into a standalone matcher that owns just the
    /// constrained `(index, item)` pairs — what per-tuple guard checks should
    /// hold on to (see `dsms-feedback`'s registry), so matching a mostly
    /// wildcard pattern touches only the attributes it constrains and the
    /// pattern itself need not be kept alive.
    pub fn compile(&self) -> CompiledPattern {
        CompiledPattern {
            arity: self.items.len(),
            constrained: self.constrained.iter().map(|&i| (i, self.items[i].clone())).collect(),
        }
    }

    /// True when every tuple matched by `other` is matched by `self`
    /// (attribute-wise subsumption; conservative).
    pub fn subsumes(&self, other: &Pattern) -> bool {
        self.items.len() == other.items.len()
            && self.items.iter().zip(&other.items).all(|(a, b)| a.subsumes(b))
    }

    /// True when this pattern, carried by an embedded punctuation, *releases*
    /// the feedback guard `guard`: both are over the same schema and this
    /// pattern subsumes the guard, so every tuple the guard could still
    /// suppress has been declared complete and the guard may be dropped
    /// (paper Section 4.4).  Subsumption is checked on every attribute, not
    /// only the ones the guard constrains: `[ts ≤ W]` does not release
    /// `[segment = 3]`, whose rows after `W` must still be suppressed.
    pub fn releases(&self, guard: &Pattern) -> bool {
        // A wildcard subsumes anything, so only this pattern's constrained
        // attributes can fail; equal schemas make the indices valid for both.
        self.schema == guard.schema
            && self.constrained.iter().all(|&i| self.items[i].subsumes(&guard.items[i]))
    }

    /// True when no tuple can match both patterns (some attribute is provably
    /// disjoint; conservative).
    pub fn disjoint_from(&self, other: &Pattern) -> bool {
        self.items.len() == other.items.len()
            && self.items.iter().zip(&other.items).any(|(a, b)| a.disjoint_from(b))
    }

    /// Rewrites this pattern onto a different schema using an attribute
    /// mapping: `mapping[i]` gives, for output attribute `i` of the target
    /// schema, the index of the source attribute in `self`'s schema (or `None`
    /// when the target attribute has no corresponding source attribute, in
    /// which case it becomes a wildcard).
    pub fn remap(&self, target: SchemaRef, mapping: &[Option<usize>]) -> TypeResult<Pattern> {
        if mapping.len() != target.arity() {
            return Err(TypeError::ArityMismatch {
                values: mapping.len(),
                attributes: target.arity(),
            });
        }
        let mut items = Vec::with_capacity(target.arity());
        for source in mapping {
            match source {
                Some(idx) => {
                    let item = self.items.get(*idx).ok_or(TypeError::IndexOutOfBounds {
                        index: *idx,
                        len: self.items.len(),
                    })?;
                    items.push(item.clone());
                }
                None => items.push(PatternItem::Wildcard),
            }
        }
        Ok(Pattern::assemble(target, items))
    }

    /// Attribute-wise conjunction of two patterns over the same schema:
    /// the result matches a tuple iff both inputs match it.  When both
    /// attributes are constrained and neither subsumes the other, the more
    /// restrictive combination is approximated by keeping `self`'s item
    /// (conservative over-approximation of the intersection is not acceptable
    /// for guards, so callers that need exactness should keep both patterns);
    /// returns `None` when the two patterns are provably disjoint.
    pub fn tighten(&self, other: &Pattern) -> Option<Pattern> {
        if self.disjoint_from(other) {
            return None;
        }
        let items = self
            .items
            .iter()
            .zip(&other.items)
            .map(|(a, b)| {
                if a.is_wildcard() {
                    b.clone()
                } else if b.is_wildcard() || a.subsumes(b) {
                    // keep the more restrictive of the two when provable
                    if b.is_wildcard() {
                        a.clone()
                    } else {
                        b.clone()
                    }
                } else {
                    // `b` subsumes `a`, or the two overlap without a provable
                    // order: keep `self`'s item, which is sound either way.
                    a.clone()
                }
            })
            .collect();
        Some(Pattern::assemble(self.schema.clone(), items))
    }
}

/// A pattern compiled down to its constrained `(attribute index, item)`
/// pairs: wildcards are dropped at compile time, so matching costs exactly
/// one [`PatternItem::matches`] per *constrained* attribute — O(1) for the
/// typical single-attribute feedback guard regardless of stream arity, and a
/// guaranteed-true constant for an all-wildcard pattern.
///
/// Compile once ([`Pattern::compile`]) where a pattern will be checked
/// against many tuples (guard registries, routing); the compiled form is
/// self-contained and `Send`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPattern {
    arity: usize,
    constrained: Vec<(usize, PatternItem)>,
}

impl CompiledPattern {
    /// Arity of the schema the source pattern was defined over.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The constrained `(attribute index, item)` pairs, in attribute order.
    pub fn constrained(&self) -> &[(usize, PatternItem)] {
        &self.constrained
    }

    /// True when the source pattern was all wildcards (matches everything).
    pub fn is_unconstrained(&self) -> bool {
        self.constrained.is_empty()
    }

    /// True when this compiled pattern matches the tuple; equivalent to
    /// [`Pattern::matches`] on the source pattern.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        debug_assert_eq!(tuple.arity(), self.arity, "pattern/tuple arity mismatch");
        let values = tuple.values();
        self.constrained.iter().all(|(i, item)| values.get(*i).is_none_or(|v| item.matches(v)))
    }

    /// Classifies a whole batch against this pattern from per-column
    /// summaries alone — the batch-level twin of [`CompiledPattern::matches`].
    ///
    /// `summary_of` maps an attribute index to that column's summary, or
    /// `None` when no sound summary exists for it (e.g. some rows lack the
    /// attribute).  The pattern is a conjunction over its constrained items,
    /// so the verdicts combine as: any item [`SummaryMatch::None`] makes the
    /// whole pattern `None`; all items [`SummaryMatch::All`] (the vacuous
    /// case for an unconstrained pattern) make it `All`; anything else —
    /// including an unavailable summary — is [`SummaryMatch::Unknown`], and
    /// callers fall back to per-tuple matching.
    ///
    /// ```
    /// use dsms_punctuation::{Pattern, PatternItem, SummaryMatch};
    /// use dsms_types::{ColumnSummary, DataType, Schema, Value};
    ///
    /// let schema = Schema::shared(&[("segment", DataType::Int)]);
    /// let guard = Pattern::for_attributes(
    ///     schema,
    ///     &[("segment", PatternItem::Eq(Value::Int(7)))],
    /// )
    /// .unwrap()
    /// .compile();
    /// let segments = ColumnSummary::over_values([Value::Int(1), Value::Int(3)].iter());
    /// let verdict = guard.matches_summaries(|column| {
    ///     (column == 0).then(|| segments.clone())
    /// });
    /// assert_eq!(verdict, SummaryMatch::None, "no row can be segment 7");
    /// ```
    pub fn matches_summaries<F>(&self, mut summary_of: F) -> SummaryMatch
    where
        F: FnMut(usize) -> Option<ColumnSummary>,
    {
        let mut all = true;
        for (index, item) in &self.constrained {
            match summary_of(*index) {
                Some(summary) => match item.matches_summary(&summary) {
                    SummaryMatch::None => return SummaryMatch::None,
                    SummaryMatch::All => {}
                    SummaryMatch::Unknown => all = false,
                },
                // No sound summary for this column: this conjunct stays
                // undecided, but keep scanning — another conjunct may still
                // prove the whole pattern matches nothing.
                None => all = false,
            }
        }
        if all {
            SummaryMatch::All
        } else {
            SummaryMatch::Unknown
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.items.iter().map(|i| i.to_string()).collect();
        write!(f, "[{}]", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema, Timestamp};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("segment", DataType::Int),
            ("timestamp", DataType::Timestamp),
            ("speed", DataType::Float),
        ])
    }

    fn tuple(seg: i64, ts: i64, speed: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Int(seg), Value::Timestamp(Timestamp::from_secs(ts)), Value::Float(speed)],
        )
    }

    #[test]
    fn item_matching_relational_operators() {
        let v = Value::Int(50);
        assert!(PatternItem::Wildcard.matches(&v));
        assert!(PatternItem::Eq(Value::Int(50)).matches(&v));
        assert!(!PatternItem::Eq(Value::Int(51)).matches(&v));
        assert!(PatternItem::Le(Value::Int(50)).matches(&v));
        assert!(!PatternItem::Lt(Value::Int(50)).matches(&v));
        assert!(PatternItem::Ge(Value::Int(50)).matches(&v));
        assert!(!PatternItem::Gt(Value::Int(50)).matches(&v));
        assert!(PatternItem::Between(Value::Int(40), Value::Int(60)).matches(&v));
        assert!(!PatternItem::Between(Value::Int(51), Value::Int(60)).matches(&v));
        assert!(PatternItem::InSet(vec![Value::Int(1), Value::Int(50)]).matches(&v));
    }

    #[test]
    fn null_matches_only_wildcard() {
        assert!(PatternItem::Wildcard.matches(&Value::Null));
        assert!(!PatternItem::Eq(Value::Null).matches(&Value::Null));
        assert!(!PatternItem::Le(Value::Int(5)).matches(&Value::Null));
    }

    #[test]
    fn item_subsumption() {
        use PatternItem::*;
        assert!(Wildcard.subsumes(&Eq(Value::Int(3))));
        assert!(!Eq(Value::Int(3)).subsumes(&Wildcard));
        assert!(Le(Value::Int(10)).subsumes(&Le(Value::Int(5))));
        assert!(Le(Value::Int(10)).subsumes(&Lt(Value::Int(10))));
        assert!(!Lt(Value::Int(10)).subsumes(&Le(Value::Int(10))));
        assert!(Ge(Value::Int(5)).subsumes(&Eq(Value::Int(5))));
        assert!(
            Between(Value::Int(0), Value::Int(10)).subsumes(&Between(Value::Int(2), Value::Int(8)))
        );
        assert!(InSet(vec![Value::Int(1), Value::Int(2)]).subsumes(&Eq(Value::Int(2))));
        assert!(!InSet(vec![Value::Int(1)]).subsumes(&Eq(Value::Int(2))));
    }

    #[test]
    fn item_disjointness() {
        use PatternItem::*;
        assert!(Eq(Value::Int(1)).disjoint_from(&Eq(Value::Int(2))));
        assert!(!Eq(Value::Int(1)).disjoint_from(&Eq(Value::Int(1))));
        assert!(Lt(Value::Int(5)).disjoint_from(&Ge(Value::Int(5))));
        assert!(!Le(Value::Int(5)).disjoint_from(&Ge(Value::Int(5))));
        assert!(Between(Value::Int(0), Value::Int(4))
            .disjoint_from(&Between(Value::Int(5), Value::Int(9))));
        assert!(InSet(vec![Value::Int(1)]).disjoint_from(&InSet(vec![Value::Int(2)])));
        assert!(!Wildcard.disjoint_from(&Eq(Value::Int(1))));
    }

    #[test]
    fn pattern_matches_tuples() {
        // ¬[*, ≥50] style predicate: "speeds at or above 50"
        let p =
            Pattern::for_attributes(schema(), &[("speed", PatternItem::Ge(Value::Float(50.0)))])
                .unwrap();
        assert!(p.matches(&tuple(1, 10, 55.0)));
        assert!(!p.matches(&tuple(1, 10, 45.0)));
        assert_eq!(p.constrained_attributes(), vec![2]);
        assert!(!p.is_unconstrained());
        assert!(Pattern::all_wildcards(schema()).is_unconstrained());
    }

    #[test]
    fn pattern_for_unknown_attribute_errors() {
        assert!(Pattern::for_attributes(schema(), &[("volume", PatternItem::Wildcard)]).is_err());
    }

    #[test]
    fn pattern_subsumption_and_disjointness() {
        let before_10 = Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Le(Value::Timestamp(Timestamp::from_secs(10))))],
        )
        .unwrap();
        let before_5 = Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Le(Value::Timestamp(Timestamp::from_secs(5))))],
        )
        .unwrap();
        let after_20 = Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Ge(Value::Timestamp(Timestamp::from_secs(20))))],
        )
        .unwrap();
        assert!(before_10.subsumes(&before_5));
        assert!(!before_5.subsumes(&before_10));
        assert!(before_10.disjoint_from(&after_20));
        assert!(!before_10.disjoint_from(&before_5));
    }

    #[test]
    fn remap_projects_items_and_fills_wildcards() {
        // feedback over join output (segment, timestamp, speed) remapped onto an
        // input with schema (timestamp, segment): mapping gives for each target
        // attribute the source index.
        let target =
            Schema::shared(&[("timestamp", DataType::Timestamp), ("segment", DataType::Int)]);
        let p = Pattern::for_attributes(
            schema(),
            &[
                ("segment", PatternItem::Eq(Value::Int(3))),
                ("speed", PatternItem::Ge(Value::Float(50.0))),
            ],
        )
        .unwrap();
        let remapped = p.remap(target.clone(), &[Some(1), Some(0)]).unwrap();
        assert_eq!(remapped.item_for("segment").unwrap(), &PatternItem::Eq(Value::Int(3)));
        assert_eq!(remapped.item_for("timestamp").unwrap(), &PatternItem::Wildcard);
        // dropping an attribute (None) yields a wildcard
        let remapped2 = p.remap(target, &[None, Some(0)]).unwrap();
        assert!(remapped2.item_for("timestamp").unwrap().is_wildcard());
    }

    #[test]
    fn tighten_combines_constraints() {
        let seg3 =
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap();
        let fast =
            Pattern::for_attributes(schema(), &[("speed", PatternItem::Ge(Value::Float(50.0)))])
                .unwrap();
        let both = seg3.tighten(&fast).unwrap();
        assert!(both.matches(&tuple(3, 1, 60.0)));
        assert!(!both.matches(&tuple(3, 1, 40.0)));
        assert!(!both.matches(&tuple(4, 1, 60.0)));

        let seg4 =
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(4)))])
                .unwrap();
        assert!(seg3.tighten(&seg4).is_none(), "disjoint patterns have no tightening");
    }

    #[test]
    fn summary_matching_is_exact_for_ranges() {
        use SummaryMatch::{All, None as NoneMatch, Unknown};
        // speeds span [40, 60], no nulls
        let speeds = ColumnSummary::over_values(
            [Value::Float(40.0), Value::Float(55.0), Value::Float(60.0)].iter(),
        );
        let cases: Vec<(PatternItem, SummaryMatch)> = vec![
            (PatternItem::Wildcard, All),
            (PatternItem::Eq(Value::Float(70.0)), NoneMatch),
            (PatternItem::Eq(Value::Float(55.0)), Unknown),
            (PatternItem::Lt(Value::Float(40.0)), NoneMatch),
            (PatternItem::Lt(Value::Float(61.0)), All),
            (PatternItem::Lt(Value::Float(50.0)), Unknown),
            (PatternItem::Le(Value::Float(39.0)), NoneMatch),
            (PatternItem::Le(Value::Float(60.0)), All),
            (PatternItem::Gt(Value::Float(60.0)), NoneMatch),
            (PatternItem::Gt(Value::Float(39.0)), All),
            (PatternItem::Ge(Value::Float(61.0)), NoneMatch),
            (PatternItem::Ge(Value::Float(40.0)), All),
            (PatternItem::Ge(Value::Float(50.0)), Unknown),
            (PatternItem::Between(Value::Float(61.0), Value::Float(99.0)), NoneMatch),
            (PatternItem::Between(Value::Float(40.0), Value::Float(60.0)), All),
            (PatternItem::Between(Value::Float(50.0), Value::Float(99.0)), Unknown),
            (PatternItem::InSet(vec![Value::Float(10.0), Value::Float(70.0)]), NoneMatch),
            (PatternItem::InSet(vec![Value::Float(55.0)]), Unknown),
        ];
        for (item, expected) in cases {
            assert_eq!(item.matches_summary(&speeds), expected, "{item}");
        }
        // A constant column decides Eq and InSet conclusively.
        let constant = ColumnSummary::over_values([Value::Int(7), Value::Int(7)].iter());
        assert_eq!(PatternItem::Eq(Value::Int(7)).matches_summary(&constant), All);
        assert_eq!(PatternItem::InSet(vec![Value::Int(7)]).matches_summary(&constant), All);
    }

    #[test]
    fn summary_matching_respects_nulls() {
        use SummaryMatch::{All, None as NoneMatch, Unknown};
        // One null: the non-null range would say "all match", but the null
        // row does not, so the verdict degrades to Unknown — never a wrong
        // All.  The None verdict is unaffected by nulls.
        let with_null =
            ColumnSummary::over_values([Value::Int(5), Value::Null, Value::Int(6)].iter());
        assert_eq!(PatternItem::Ge(Value::Int(0)).matches_summary(&with_null), Unknown);
        assert_eq!(PatternItem::Ge(Value::Int(10)).matches_summary(&with_null), NoneMatch);
        assert_eq!(PatternItem::Wildcard.matches_summary(&with_null), All);
        // All nulls: nothing matches a non-wildcard item.
        let nulls = ColumnSummary::over_values([Value::Null, Value::Null].iter());
        assert_eq!(PatternItem::Ge(Value::Int(0)).matches_summary(&nulls), NoneMatch);
        assert_eq!(PatternItem::Wildcard.matches_summary(&nulls), All);
        // Empty: no claim either way.
        assert_eq!(PatternItem::Ge(Value::Int(0)).matches_summary(&ColumnSummary::new()), Unknown);
    }

    #[test]
    fn summary_matching_uses_the_integer_mask_for_eq_and_in_set() {
        use SummaryMatch::{All, None as NoneMatch, Unknown};
        // Detectors 0..32 except 4 and 9: both lie inside the range.
        let detectors: Vec<Value> =
            (0..32).filter(|d| ![4, 9].contains(d)).map(Value::Int).collect();
        let page = ColumnSummary::over_values(detectors.iter());
        let eq = |v: i64| PatternItem::Eq(Value::Int(v)).matches_summary(&page);
        let in_set = |vs: &[i64]| {
            PatternItem::InSet(vs.iter().copied().map(Value::Int).collect()).matches_summary(&page)
        };
        assert_eq!(eq(4), NoneMatch);
        assert_eq!(eq(5), Unknown);
        assert_eq!(in_set(&[4, 9]), NoneMatch);
        assert_eq!(in_set(&[4, 9, 10]), Unknown);
        assert_eq!(in_set(&[4, 99]), NoneMatch, "99 is out of range, 4 masked");
        // v and v + 64 share a bit: 68 is not provably absent.
        let sixty_eight = ColumnSummary::over_values([Value::Int(4), Value::Int(200)].iter());
        assert_eq!(PatternItem::Eq(Value::Int(68)).matches_summary(&sixty_eight), Unknown);
        // Negative ints mask by `v & 63` too.
        let negative = ColumnSummary::over_values([Value::Int(-10), Value::Int(-1)].iter());
        assert_eq!(PatternItem::Eq(Value::Int(-5)).matches_summary(&negative), NoneMatch);
        assert_eq!(PatternItem::Eq(Value::Int(-10)).matches_summary(&negative), Unknown);
        // A Float probe equals an Int through `as f64`: never masked.
        let ints = ColumnSummary::over_values([Value::Int(1), Value::Int(5)].iter());
        assert_eq!(PatternItem::Eq(Value::Float(3.0)).matches_summary(&ints), Unknown);
        assert_eq!(PatternItem::Eq(Value::Float(3.5)).matches_summary(&ints), Unknown);
        // A mixed Int/Float column falls back to the range.
        let mixed = ColumnSummary::over_values([Value::Int(1), Value::Float(5.0)].iter());
        assert_eq!(PatternItem::Eq(Value::Int(3)).matches_summary(&mixed), Unknown);
        assert_eq!(PatternItem::Eq(Value::Int(6)).matches_summary(&mixed), NoneMatch);
        // Nulls do not disturb the mask; `All` is unchanged.
        let with_null = ColumnSummary::over_values([Value::Int(1), Value::Null].iter());
        assert_eq!(PatternItem::Eq(Value::Int(2)).matches_summary(&with_null), NoneMatch);
        let constant = ColumnSummary::over_values([Value::Int(7), Value::Int(7)].iter());
        assert_eq!(
            PatternItem::InSet(vec![Value::Int(7), Value::Int(8)]).matches_summary(&constant),
            All
        );
    }

    #[test]
    fn compiled_summary_matching_combines_conjuncts() {
        use SummaryMatch::{All, None as NoneMatch, Unknown};
        let seg_and_speed = Pattern::for_attributes(
            schema(),
            &[
                ("segment", PatternItem::Eq(Value::Int(3))),
                ("speed", PatternItem::Ge(Value::Float(50.0))),
            ],
        )
        .unwrap()
        .compile();
        let segments = ColumnSummary::over_values([Value::Int(3), Value::Int(3)].iter());
        let fast = ColumnSummary::over_values([Value::Float(60.0), Value::Float(70.0)].iter());
        let slow = ColumnSummary::over_values([Value::Float(10.0), Value::Float(20.0)].iter());
        let mixed = ColumnSummary::over_values([Value::Float(10.0), Value::Float(70.0)].iter());
        let with = |speeds: &ColumnSummary| {
            let speeds = speeds.clone();
            let segments = segments.clone();
            seg_and_speed.matches_summaries(move |col| match col {
                0 => Some(segments.clone()),
                2 => Some(speeds.clone()),
                _ => None,
            })
        };
        assert_eq!(with(&fast), All);
        assert_eq!(with(&slow), NoneMatch, "speed conjunct matches nothing");
        assert_eq!(with(&mixed), Unknown);
        // An unavailable summary degrades All to Unknown but still lets a
        // conclusive None from another conjunct win.
        assert_eq!(seg_and_speed.matches_summaries(|_| None), Unknown);
        let slow2 = slow.clone();
        assert_eq!(
            seg_and_speed.matches_summaries(move |col| (col == 2).then(|| slow2.clone())),
            NoneMatch
        );
        // Unconstrained patterns match everything, summaries or not.
        assert_eq!(Pattern::all_wildcards(schema()).compile().matches_summaries(|_| None), All);
    }

    #[test]
    fn display_matches_paper_notation() {
        let p = Pattern::for_attributes(
            schema(),
            &[
                ("segment", PatternItem::Eq(Value::Int(11))),
                ("speed", PatternItem::Ge(Value::Float(50.0))),
            ],
        )
        .unwrap();
        assert_eq!(p.to_string(), "[11, *, >=50]");
    }
}
