//! Property-based tests for the pattern algebra.
//!
//! The feedback framework's correctness arguments (Definitions 1 and 2 of the
//! paper) lean on three semantic facts about patterns:
//!
//! 1. subsumption is sound: if `a.subsumes(b)` then every value matched by `b`
//!    is matched by `a`;
//! 2. disjointness is sound: if `a.disjoint_from(b)` then no value is matched
//!    by both; and
//! 3. remapping onto an input schema never *narrows* the described set — a
//!    wildcard is used wherever no source attribute exists.
//!
//! These are exactly the properties exercised here with randomly generated
//! items, values and patterns.

use dsms_punctuation::{Pattern, PatternItem, SummaryMatch};
use dsms_types::{ColumnSummary, DataType, Schema, SchemaRef, Timestamp, Tuple, Value};
use proptest::prelude::*;

/// The definitional whole-tuple match: every item checked against its
/// attribute, wildcards included.  `Pattern::matches` and the compiled form
/// skip wildcard positions; this reference implementation is what they must
/// agree with.
fn naive_matches(pattern: &Pattern, tuple: &Tuple) -> bool {
    pattern.items().iter().zip(tuple.values()).all(|(item, value)| item.matches(value))
}

fn int_value() -> impl Strategy<Value = Value> {
    (-50i64..50).prop_map(Value::Int)
}

/// Column values for summary soundness: ints that collide modulo 64, floats
/// that equal some of those ints (and some that do not), and nulls.
fn column_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-70i64..140).prop_map(Value::Int),
        (-70i64..140).prop_map(|v| Value::Float(v as f64)),
        (-70.0f64..140.0).prop_map(Value::Float),
        Just(Value::Null),
    ]
}

/// `Eq` and `InSet` items over the same mix of probes.
fn membership_item() -> impl Strategy<Value = PatternItem> {
    prop_oneof![
        column_value().prop_map(PatternItem::Eq),
        proptest::collection::vec(column_value(), 1..5).prop_map(PatternItem::InSet),
    ]
}

fn pattern_item() -> impl Strategy<Value = PatternItem> {
    prop_oneof![
        Just(PatternItem::Wildcard),
        int_value().prop_map(PatternItem::Eq),
        int_value().prop_map(PatternItem::Lt),
        int_value().prop_map(PatternItem::Le),
        int_value().prop_map(PatternItem::Gt),
        int_value().prop_map(PatternItem::Ge),
        (-50i64..50, 0i64..30)
            .prop_map(|(lo, w)| PatternItem::Between(Value::Int(lo), Value::Int(lo + w))),
        proptest::collection::vec(int_value(), 1..4).prop_map(PatternItem::InSet),
    ]
}

fn schema3() -> SchemaRef {
    Schema::shared(&[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Int)])
}

fn tuple3(a: i64, b: i64, c: i64) -> Tuple {
    Tuple::new(schema3(), vec![Value::Int(a), Value::Int(b), Value::Int(c)])
}

proptest! {
    /// Soundness of per-item subsumption: a.subsumes(b) ⇒ (b matches v ⇒ a matches v).
    #[test]
    fn item_subsumption_is_sound(a in pattern_item(), b in pattern_item(), v in -60i64..60) {
        let value = Value::Int(v);
        if a.subsumes(&b) && b.matches(&value) {
            prop_assert!(a.matches(&value),
                "{a:?} subsumes {b:?} but does not match {value:?} that {b:?} matches");
        }
    }

    /// Soundness of per-item disjointness: a.disjoint_from(b) ⇒ no common match.
    #[test]
    fn item_disjointness_is_sound(a in pattern_item(), b in pattern_item(), v in -60i64..60) {
        let value = Value::Int(v);
        if a.disjoint_from(&b) {
            prop_assert!(!(a.matches(&value) && b.matches(&value)),
                "{a:?} and {b:?} are claimed disjoint but both match {value:?}");
        }
    }

    /// Disjointness is symmetric.
    #[test]
    fn item_disjointness_is_symmetric(a in pattern_item(), b in pattern_item()) {
        prop_assert_eq!(a.disjoint_from(&b), b.disjoint_from(&a));
    }

    /// Subsumption is reflexive for every generated item.
    #[test]
    fn item_subsumption_is_reflexive(a in pattern_item()) {
        prop_assert!(a.subsumes(&a));
    }

    /// Wildcard subsumes everything and is disjoint from nothing.
    #[test]
    fn wildcard_is_top(a in pattern_item()) {
        prop_assert!(PatternItem::Wildcard.subsumes(&a));
        prop_assert!(!PatternItem::Wildcard.disjoint_from(&a));
    }

    /// Pattern-level subsumption soundness over random 3-attribute tuples.
    #[test]
    fn pattern_subsumption_is_sound(
        items_a in proptest::collection::vec(pattern_item(), 3),
        items_b in proptest::collection::vec(pattern_item(), 3),
        a in -60i64..60, b in -60i64..60, c in -60i64..60,
    ) {
        let pa = Pattern::new(schema3(), items_a);
        let pb = Pattern::new(schema3(), items_b);
        let t = tuple3(a, b, c);
        if pa.subsumes(&pb) && pb.matches(&t) {
            prop_assert!(pa.matches(&t));
        }
        if pa.disjoint_from(&pb) {
            prop_assert!(!(pa.matches(&t) && pb.matches(&t)));
        }
    }

    /// Tightening is a lower bound: a tuple matched by the tightened pattern is
    /// matched by both inputs whenever tightening succeeds with provable items.
    #[test]
    fn tighten_never_matches_outside_either_input(
        items_a in proptest::collection::vec(pattern_item(), 3),
        a in -60i64..60, b in -60i64..60, c in -60i64..60,
    ) {
        // Combine a constrained pattern with the all-wildcard pattern: the
        // result must match exactly what the constrained pattern matches.
        let pa = Pattern::new(schema3(), items_a);
        let top = Pattern::all_wildcards(schema3());
        let t = tuple3(a, b, c);
        if let Some(tight) = pa.tighten(&top) {
            prop_assert_eq!(tight.matches(&t), pa.matches(&t));
        }
    }

    /// The wildcard-skipping `Pattern::matches` and the precompiled
    /// `CompiledPattern::matches` agree with the naive full-arity scan on
    /// random patterns and tuples — including `Null` attribute values, which
    /// match only the wildcard.
    #[test]
    fn compiled_and_naive_matching_agree(
        items in proptest::collection::vec(pattern_item(), 3),
        values in proptest::collection::vec(
            prop_oneof![(-60i64..60).prop_map(Value::Int), Just(Value::Null)], 3),
    ) {
        let pattern = Pattern::new(schema3(), items);
        let compiled = pattern.compile();
        let tuple = Tuple::new(schema3(), values);
        let reference = naive_matches(&pattern, &tuple);
        prop_assert_eq!(pattern.matches(&tuple), reference,
            "Pattern::matches diverged from the naive scan on {} vs {}", pattern, tuple);
        prop_assert_eq!(compiled.matches(&tuple), reference,
            "CompiledPattern::matches diverged from the naive scan on {} vs {}", pattern, tuple);
        prop_assert_eq!(compiled.is_unconstrained(), pattern.is_unconstrained());
        prop_assert_eq!(compiled.arity(), 3usize);
    }

    /// Remapping with an identity mapping preserves matching; remapping that
    /// drops attributes only widens the matched set.
    #[test]
    fn remap_widens_or_preserves(
        items in proptest::collection::vec(pattern_item(), 3),
        a in -60i64..60, b in -60i64..60, c in -60i64..60,
    ) {
        let p = Pattern::new(schema3(), items);
        let t = tuple3(a, b, c);
        let identity = p.remap(schema3(), &[Some(0), Some(1), Some(2)]).unwrap();
        prop_assert_eq!(identity.matches(&t), p.matches(&t));

        // Dropping attribute 1 (it becomes a wildcard) can only widen the set.
        let widened = p.remap(schema3(), &[Some(0), None, Some(2)]).unwrap();
        if p.matches(&t) {
            prop_assert!(widened.matches(&t));
        }
    }
}

/// The property above at its two extremes: an all-wildcard pattern compiles
/// to a guaranteed match, an all-constrained pattern checks every attribute.
#[test]
fn compiled_matching_extremes() {
    let all_wild = Pattern::all_wildcards(schema3());
    let compiled = all_wild.compile();
    assert!(compiled.is_unconstrained());
    assert!(compiled.constrained().is_empty());
    for t in [tuple3(0, 0, 0), tuple3(-60, 59, 7)] {
        assert!(compiled.matches(&t) && all_wild.matches(&t));
    }
    assert!(compiled.matches(&Tuple::new(schema3(), vec![Value::Null; 3])));

    let all_constrained = Pattern::new(
        schema3(),
        vec![
            PatternItem::Eq(Value::Int(1)),
            PatternItem::Ge(Value::Int(2)),
            PatternItem::Lt(Value::Int(3)),
        ],
    );
    let compiled = all_constrained.compile();
    assert_eq!(compiled.constrained().len(), 3);
    for (t, expected) in
        [(tuple3(1, 2, 2), true), (tuple3(1, 2, 3), false), (tuple3(0, 2, 2), false)]
    {
        assert_eq!(compiled.matches(&t), expected, "{t}");
        assert_eq!(all_constrained.matches(&t), expected, "{t}");
        assert_eq!(naive_matches(&all_constrained, &t), expected, "{t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Soundness of summary-level `Eq`/`InSet` classification, range and
    /// integer mask together: `None` means no row matches, `All` means
    /// every row does.
    #[test]
    fn membership_summary_verdicts_are_sound(
        item in membership_item(),
        ints in proptest::collection::vec((-70i64..140).prop_map(Value::Int), 0..12),
        others in proptest::collection::vec(column_value(), 0..4),
    ) {
        // Mostly-int columns, so the mask is in play for most cases.
        let column: Vec<Value> = ints.into_iter().chain(others).collect();
        let summary = ColumnSummary::over_values(column.iter());
        match item.matches_summary(&summary) {
            SummaryMatch::None => prop_assert!(
                column.iter().all(|v| !item.matches(v)),
                "{item:?} claimed to miss {column:?}"
            ),
            SummaryMatch::All => prop_assert!(
                column.iter().all(|v| item.matches(v)),
                "{item:?} claimed to match all of {column:?}"
            ),
            SummaryMatch::Unknown => {}
        }
    }
}

proptest! {
    /// Progress punctuation ordering: a later watermark implies the earlier one.
    #[test]
    fn progress_watermarks_are_ordered(t1 in 0i64..10_000, t2 in 0i64..10_000) {
        use dsms_punctuation::Punctuation;
        let s = Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)]);
        let p1 = Punctuation::progress(s.clone(), "timestamp", Timestamp::from_secs(t1)).unwrap();
        let p2 = Punctuation::progress(s, "timestamp", Timestamp::from_secs(t2)).unwrap();
        if t1 >= t2 {
            prop_assert!(p1.implies(&p2));
        }
        if t1 <= t2 {
            prop_assert!(p2.implies(&p1));
        }
    }
}
