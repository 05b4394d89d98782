//! Per-column batch summaries.
//!
//! A [`ColumnSummary`] condenses one attribute of a batch of tuples into four
//! numbers — row count, null count, minimum and maximum under [`Value`]'s
//! *total* order — plus an integer-presence mask, which is exactly the
//! information a punctuation pattern needs to classify the whole batch at
//! once: "no row of this page can match `speed >= 50`" (max below 50), "every
//! row matches" (min at or above 50 and no nulls), or "no row can be detector
//! 7" (bit `7 & 63` of the mask clear, though 7 lies inside the range).  The batch-level guard evaluation in `dsms-punctuation`
//! (`PatternItem::matches_summary`) and the `FeedbackRegistry::decide_batch`
//! fast path in `dsms-feedback` are built on these summaries; the columnar
//! page in `dsms-engine` computes each column's summary at most once per
//! page, on the first request, and shares it with every clone of the page
//! taken after that request.
//!
//! Summaries use the same comparator as per-tuple pattern matching
//! ([`Value`]'s total order), so a range conclusion drawn from a summary is
//! exactly the conclusion per-tuple evaluation would reach — never an
//! approximation.  The mask is exact too: it is consulted only when every
//! non-null value is an `Int` and the probe is an `Int`, the one case where
//! equality is integer equality (an `Int` equals a `Float` through `as f64`,
//! which the mask cannot see).

use crate::tuple::Tuple;
use crate::value::Value;

/// Min/max/null summary of one column of a batch, with an integer-presence
/// mask.
///
/// `min` and `max` range over the **non-null** values only (a null reading is
/// "unknown" and matches no relational predicate), ordered by [`Value`]'s
/// total order — the same comparator pattern items use, which is what makes
/// summary-based batch conclusions exact.  The mask has bit `v & 63` set for
/// every non-null `Int(v)` observed; [`excludes`](Self::excludes) reads it.
///
/// ```
/// use dsms_types::{ColumnSummary, Value};
///
/// let mut summary = ColumnSummary::new();
/// for v in [Value::Int(40), Value::Null, Value::Int(55)] {
///     summary.observe(&v);
/// }
/// assert_eq!(summary.len(), 3);
/// assert_eq!(summary.nulls(), 1);
/// assert_eq!(summary.min(), Some(&Value::Int(40)));
/// assert_eq!(summary.max(), Some(&Value::Int(55)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnSummary {
    len: usize,
    nulls: usize,
    min: Option<Value>,
    max: Option<Value>,
    /// Bit `v & 63` for every non-null `Int(v)` observed.
    int_mask: u64,
    /// Set by any non-null value that is not an `Int`: the mask then no
    /// longer describes every non-null value.
    non_int: bool,
}

impl ColumnSummary {
    /// An empty summary (no rows observed).
    pub fn new() -> Self {
        ColumnSummary::default()
    }

    /// Folds one value into the summary.
    pub fn observe(&mut self, value: &Value) {
        self.len += 1;
        match value {
            Value::Null => {
                self.nulls += 1;
                return;
            }
            Value::Int(v) => self.int_mask |= 1 << (v & 63),
            _ => self.non_int = true,
        }
        match &self.min {
            Some(min) if min <= value => {}
            _ => self.min = Some(value.clone()),
        }
        match &self.max {
            Some(max) if max >= value => {}
            _ => self.max = Some(value.clone()),
        }
    }

    /// Summarizes an iterator of values.
    pub fn over_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Self {
        let mut summary = ColumnSummary::new();
        for v in values {
            summary.observe(v);
        }
        summary
    }

    /// Summarizes column `column` across a batch of tuples.
    ///
    /// Returns `None` when the batch is empty or **any** row lacks the
    /// column (shorter arity): per-tuple pattern matching treats a missing
    /// attribute as a match, so no summary over the present values could
    /// soundly describe such a batch.
    ///
    /// ```
    /// use dsms_types::{ColumnSummary, DataType, Schema, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[("speed", DataType::Float)]);
    /// let rows: Vec<Tuple> = [48.0, 52.0, 45.5]
    ///     .iter()
    ///     .map(|s| Tuple::new(schema.clone(), vec![Value::Float(*s)]))
    ///     .collect();
    /// let summary = ColumnSummary::over_column(&rows, 0).unwrap();
    /// assert_eq!(summary.min(), Some(&Value::Float(45.5)));
    /// assert_eq!(summary.max(), Some(&Value::Float(52.0)));
    /// assert!(ColumnSummary::over_column(&rows, 1).is_none(), "no such column");
    /// ```
    pub fn over_column(rows: &[Tuple], column: usize) -> Option<Self> {
        if rows.is_empty() {
            return None;
        }
        let mut summary = ColumnSummary::new();
        for row in rows {
            summary.observe(row.values().get(column)?);
        }
        Some(summary)
    }

    /// Number of values observed (nulls included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values have been observed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of null values observed.
    pub fn nulls(&self) -> usize {
        self.nulls
    }

    /// True when at least one observed value was null.
    pub fn has_nulls(&self) -> bool {
        self.nulls > 0
    }

    /// True when every observed value was null.
    pub fn all_null(&self) -> bool {
        self.len > 0 && self.nulls == self.len
    }

    /// The smallest non-null value observed, by [`Value`]'s total order.
    pub fn min(&self) -> Option<&Value> {
        self.min.as_ref()
    }

    /// The largest non-null value observed, by [`Value`]'s total order.
    pub fn max(&self) -> Option<&Value> {
        self.max.as_ref()
    }

    /// True when no observed value can equal `probe`, proven by the
    /// integer-presence mask: every non-null value observed is an `Int`,
    /// `probe` is an `Int`, and `probe`'s bit is clear.  Nulls equal no
    /// probe, so they never stand in the way.  `false` means "not proven",
    /// never "present": `v` and `v + 64` share a bit, and a `Float` probe
    /// (which may equal an `Int` through `as f64`) is never excluded.
    ///
    /// ```
    /// use dsms_types::{ColumnSummary, Value};
    ///
    /// let detectors = ColumnSummary::over_values([Value::Int(1), Value::Int(9)].iter());
    /// assert!(detectors.excludes(&Value::Int(4)), "4 lies inside [1, 9] but was never seen");
    /// assert!(!detectors.excludes(&Value::Int(9)));
    /// assert!(!detectors.excludes(&Value::Int(73)), "73 shares 9's bit: not proven");
    /// assert!(!detectors.excludes(&Value::Float(4.0)), "the mask is for Int probes only");
    /// ```
    pub fn excludes(&self, probe: &Value) -> bool {
        match probe {
            Value::Int(v) => !self.non_int && self.int_mask & (1 << (v & 63)) == 0,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaRef;
    use crate::schema::{DataType, Schema};

    fn schema() -> SchemaRef {
        Schema::shared(&[("segment", DataType::Int), ("speed", DataType::Float)])
    }

    fn tuple(seg: i64, speed: f64) -> Tuple {
        Tuple::new(schema(), vec![Value::Int(seg), Value::Float(speed)])
    }

    #[test]
    fn observe_tracks_min_max_and_nulls() {
        let values = [Value::Int(5), Value::Null, Value::Int(-3), Value::Int(9)];
        let s = ColumnSummary::over_values(values.iter());
        assert_eq!(s.len(), 4);
        assert_eq!(s.nulls(), 1);
        assert!(s.has_nulls());
        assert!(!s.all_null());
        assert_eq!(s.min(), Some(&Value::Int(-3)));
        assert_eq!(s.max(), Some(&Value::Int(9)));
    }

    #[test]
    fn all_null_column_has_no_range() {
        let values = [Value::Null, Value::Null];
        let s = ColumnSummary::over_values(values.iter());
        assert!(s.all_null());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn empty_summary_is_empty() {
        let s = ColumnSummary::new();
        assert!(s.is_empty());
        assert!(!s.all_null(), "an empty summary makes no all-null claim");
    }

    #[test]
    fn over_column_summarizes_each_attribute() {
        let rows = vec![tuple(3, 40.0), tuple(1, 60.0), tuple(2, 50.0)];
        let segments = ColumnSummary::over_column(&rows, 0).unwrap();
        assert_eq!(segments.min(), Some(&Value::Int(1)));
        assert_eq!(segments.max(), Some(&Value::Int(3)));
        let speeds = ColumnSummary::over_column(&rows, 1).unwrap();
        assert_eq!(speeds.min(), Some(&Value::Float(40.0)));
        assert_eq!(speeds.max(), Some(&Value::Float(60.0)));
    }

    #[test]
    fn over_column_rejects_missing_columns_and_empty_batches() {
        let rows = vec![tuple(1, 1.0)];
        assert!(ColumnSummary::over_column(&rows, 2).is_none(), "column out of range");
        assert!(ColumnSummary::over_column(&[], 0).is_none(), "empty batch");
    }

    #[test]
    fn min_max_use_the_total_order_across_numeric_types() {
        // Value's total order compares Int and Float cross-numerically, the
        // same way PatternItem comparisons do.
        let values = [Value::Int(2), Value::Float(1.5), Value::Float(2.5)];
        let s = ColumnSummary::over_values(values.iter());
        assert_eq!(s.min(), Some(&Value::Float(1.5)));
        assert_eq!(s.max(), Some(&Value::Float(2.5)));
    }

    #[test]
    fn mask_excludes_ints_never_seen() {
        let s = ColumnSummary::over_values([Value::Int(2), Value::Null, Value::Int(30)].iter());
        assert!(s.excludes(&Value::Int(5)), "inside the range, never observed");
        assert!(!s.excludes(&Value::Int(2)));
        assert!(!s.excludes(&Value::Int(30)));
        assert!(!s.excludes(&Value::Null), "only Int probes are decided");
    }

    #[test]
    fn mask_shares_a_bit_between_v_and_v_plus_64() {
        let s = ColumnSummary::over_values([Value::Int(3)].iter());
        assert!(!s.excludes(&Value::Int(67)), "67 & 63 == 3: not proven absent");
        assert!(!s.excludes(&Value::Int(-61)), "-61 & 63 == 3 as well");
    }

    #[test]
    fn mask_handles_negative_ints() {
        let s = ColumnSummary::over_values([Value::Int(-1), Value::Int(-64)].iter());
        assert!(!s.excludes(&Value::Int(-1)));
        assert!(!s.excludes(&Value::Int(-64)));
        assert!(!s.excludes(&Value::Int(63)), "-1 & 63 == 63");
        assert!(s.excludes(&Value::Int(-2)));
    }

    #[test]
    fn mask_is_off_for_float_probes_and_mixed_columns() {
        let ints = ColumnSummary::over_values([Value::Int(1), Value::Int(5)].iter());
        assert!(!ints.excludes(&Value::Float(3.0)), "Int(3) would equal Float(3.0)");
        let mixed = ColumnSummary::over_values([Value::Int(1), Value::Float(3.0)].iter());
        assert!(!mixed.excludes(&Value::Int(3)), "Float(3.0) equals Int(3)");
        assert!(!mixed.excludes(&Value::Int(2)), "a mixed column falls back to the range");
    }
}
