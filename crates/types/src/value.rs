//! Dynamically typed scalar values.
//!
//! Stream tuples in NiagaraST carry attribute values of heterogeneous types;
//! punctuation patterns compare against those values with relational operators
//! (`=`, `<`, `≤`, `>`, `≥`).  [`Value`] therefore provides a *total* order
//! across values of the same type class (integers and floats compare
//! numerically with each other; NaN sorts above all other floats) so that the
//! punctuation algebra and aggregate operators can rely on `Ord`-like
//! comparisons without panicking.

use crate::error::{TypeError, TypeResult};
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed scalar value carried in a tuple attribute.
///
/// `Text` carries `Arc<str>` rather than `String`: cloning a value — which
/// fan-out operators, joins, and key extractors do on every tuple — is then a
/// reference-count bump for every variant, never a heap copy.  The payload is
/// immutable either way (values are never edited in place, tuples are rebuilt
/// via [`crate::Tuple::with_value`]), so sharing is invisible to callers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// An absent value (e.g. a failed sensor reading awaiting imputation).
    Null,
    /// A boolean flag.
    Bool(bool),
    /// A 64-bit signed integer (segment ids, detector ids, counts, window ids).
    Int(i64),
    /// A 64-bit float (speeds, averages).
    Float(f64),
    /// A text value (freeway names, currency codes); shared, clone is O(1).
    Text(Arc<str>),
    /// A stream timestamp.
    Timestamp(Timestamp),
}

impl Value {
    /// Human-readable name of the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Timestamp(_) => "timestamp",
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a `Float`, or the integer payload
    /// widened to a float.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the text payload, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the timestamp payload, if this is a `Timestamp`.
    pub fn as_timestamp(&self) -> Option<Timestamp> {
        match self {
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Numeric value of this scalar, if it is numeric (`Int`, `Float`, or
    /// `Timestamp` viewed as milliseconds).  Used by aggregates.
    pub fn numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(t.as_millis() as f64),
            _ => None,
        }
    }

    /// Compares two values with SQL-like semantics restricted to a total order:
    ///
    /// * `Null` sorts below everything else and equals only `Null`.
    /// * `Int` and `Float` compare numerically with each other, exactly even
    ///   beyond 2^53 where an `Int` has no equal `f64`; NaN sorts above every
    ///   other float and equals itself, and `Int(0)` sorts above `Float(-0.0)`.
    /// * Values of different (non-numeric-compatible) type classes compare by a
    ///   fixed type rank so that the order is still total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Text(a), Text(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            // Mixed, incompatible type classes: order by type rank.
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// True when the two values are comparable as the same type class (so a
    /// relational predicate over them is meaningful).
    pub fn comparable_with(&self, other: &Value) -> bool {
        use Value::*;
        matches!(
            (self, other),
            (Null, _)
                | (_, Null)
                | (Bool(_), Bool(_))
                | (Int(_), Int(_))
                | (Float(_), Float(_))
                | (Int(_), Float(_))
                | (Float(_), Int(_))
                | (Text(_), Text(_))
                | (Timestamp(_), Timestamp(_))
        )
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // same class as Int
            Value::Timestamp(_) => 3,
            Value::Text(_) => 4,
        }
    }

    /// Adds two numeric values, widening to float when needed.
    pub fn checked_add(&self, other: &Value) -> TypeResult<Value> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
            (Float(a), Float(b)) => Ok(Float(a + b)),
            (Int(a), Float(b)) => Ok(Float(*a as f64 + b)),
            (Float(a), Int(b)) => Ok(Float(a + *b as f64)),
            _ => Err(TypeError::InvalidOperation {
                detail: format!("cannot add {} and {}", self.type_name(), other.type_name()),
            }),
        }
    }

    /// Parses a value from text given a target type name (used by workload
    /// loaders and the experiment harness).
    pub fn parse(text: &str, target: &crate::schema::DataType) -> TypeResult<Value> {
        use crate::schema::DataType;
        let trimmed = text.trim();
        if trimmed.eq_ignore_ascii_case("null") || trimmed.is_empty() {
            return Ok(Value::Null);
        }
        let err =
            || TypeError::ParseError { input: text.to_string(), target: format!("{target:?}") };
        match target {
            DataType::Bool => trimmed.parse::<bool>().map(Value::Bool).map_err(|_| err()),
            DataType::Int => trimmed.parse::<i64>().map(Value::Int).map_err(|_| err()),
            DataType::Float => trimmed.parse::<f64>().map(Value::Float).map_err(|_| err()),
            DataType::Text => Ok(Value::Text(trimmed.into())),
            DataType::Timestamp => trimmed
                .parse::<i64>()
                .map(|ms| Value::Timestamp(Timestamp::from_millis(ms)))
                .map_err(|_| err()),
        }
    }
}

/// Compares an `Int` with a `Float`.  Rounding `a` to `f64` is monotone, so an
/// unequal result is exact; an equal one means `b` is an integer within one
/// rounding step of `a`, and `i128` holds both exactly.
///
/// Kept out of line: inlined, it made `total_cmp` too large to inline into
/// the pattern and group-key comparisons on the hot path (perfbench
/// `speedmap` on 2 vCPUs ran ≈ 15 % slower), and mixed comparisons are rare.
#[cold]
#[inline(never)]
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    match (a as f64).total_cmp(&b) {
        Ordering::Equal => i128::from(a).cmp(&(b as i128)),
        unequal => unequal,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                // Ints and equal-valued floats hash identically so hash joins on
                // mixed numeric keys behave like their comparisons.
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Timestamp(t) => {
                4u8.hash(state);
                t.as_millis().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Timestamp(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Text(v)
    }
}

impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Timestamp(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn null_sorts_first_and_equals_itself() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Bool(false));
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(5), Value::Float(5.0));
        assert!(Value::Int(5) < Value::Float(5.5));
        assert!(Value::Float(4.9) < Value::Int(5));
        // Beyond 2^53 an Int may round onto a float it does not equal.
        let two_53 = 1i64 << 53;
        assert!(Value::Int(two_53 + 1) > Value::Float(two_53 as f64));
        assert_eq!(Value::Int(two_53), Value::Float(two_53 as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64), "2^63 > i64::MAX");
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        // Signed zero and NaN keep their places.
        assert!(Value::Int(0) > Value::Float(-0.0));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
    }

    /// Ints and floats within a few representable steps of ±2^53 and ±2^63,
    /// where `f64` cannot hold every `i64`.
    fn near_rounding_limits() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        const LIMITS: [i64; 4] = [1 << 53, -(1 << 53), i64::MAX, i64::MIN];
        prop_oneof![
            (0usize..4, -4i64..5).prop_map(|(i, d)| Value::Int(LIMITS[i].saturating_add(d))),
            (0usize..4, -4i64..5).prop_map(|(i, d)| {
                let bits = (LIMITS[i] as f64).to_bits() as i64 + d;
                Value::Float(f64::from_bits(bits as u64))
            }),
        ]
    }

    fn std_hash(value: &Value) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    proptest::proptest! {
        #[test]
        fn mixed_numeric_order_is_total_and_hash_consistent(
            values in proptest::collection::vec(near_rounding_limits(), 3..16),
        ) {
            for a in &values {
                for b in &values {
                    proptest::prop_assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry");
                    if a == b {
                        proptest::prop_assert_eq!(std_hash(a), std_hash(b), "hash follows ==");
                    }
                    for c in &values {
                        if a <= b && b <= c {
                            proptest::prop_assert!(a <= c, "transitivity: {a:?} {b:?} {c:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert!(nan > Value::Float(f64::INFINITY));
    }

    #[test]
    fn int_and_equal_float_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        Value::Int(42).hash(&mut h1);
        Value::Float(42.0).hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Text("abc".into()).as_text(), Some("abc"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(
            Value::Timestamp(Timestamp::from_secs(3)).as_timestamp(),
            Some(Timestamp::from_secs(3))
        );
        assert_eq!(Value::Text("abc".into()).as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn checked_add_widens_and_rejects() {
        assert_eq!(Value::Int(1).checked_add(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(1).checked_add(&Value::Float(0.5)).unwrap(), Value::Float(1.5));
        assert!(Value::Text("a".into()).checked_add(&Value::Int(1)).is_err());
    }

    #[test]
    fn parse_round_trips_each_type() {
        assert_eq!(Value::parse("42", &DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(Value::parse("4.5", &DataType::Float).unwrap(), Value::Float(4.5));
        assert_eq!(Value::parse("true", &DataType::Bool).unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("hi", &DataType::Text).unwrap(), Value::Text("hi".into()));
        assert_eq!(
            Value::parse("1500", &DataType::Timestamp).unwrap(),
            Value::Timestamp(Timestamp::from_millis(1500))
        );
        assert_eq!(Value::parse("  ", &DataType::Int).unwrap(), Value::Null);
        assert!(Value::parse("abc", &DataType::Int).is_err());
    }

    #[test]
    fn comparable_with_matches_type_classes() {
        assert!(Value::Int(1).comparable_with(&Value::Float(1.0)));
        assert!(Value::Null.comparable_with(&Value::Text("x".into())));
        assert!(!Value::Int(1).comparable_with(&Value::Text("1".into())));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Timestamp(Timestamp::from_secs(61)).to_string(), "00:01:01");
    }
}
