//! Columnar pages of tuples.
//!
//! NiagaraST's inter-operator queues carry *pages* of tuples rather than
//! individual tuples: batching limits context switching between operator
//! threads.  The downside — a slow stream may take a long time to fill a
//! page — is resolved by having punctuation flush pages: a page is handed to
//! the queue when it is full *or* when a punctuation is appended
//! (paper Section 5, "Inter-Operator Communication").
//!
//! Since the columnar re-layout, a page is no longer an append-only vector of
//! interleaved stream items.  A [`ColumnarPage`] separates the data lane from
//! the punctuation lane: tuples sit contiguously in `rows`, punctuation in a
//! side lane annotated with its position among the rows, so arrival order is
//! reconstructed exactly on iteration.  Column access goes through
//! [`ColumnarPage::column`] (per-attribute value iterator) and
//! [`ColumnarPage::column_summary`] (min/max/null summary) — the hooks that
//! let punctuation guards classify a whole page without visiting any tuple.
//! The full contract, including why rows stay whole [`Tuple`] handles
//! (zero-copy: a clone is a refcount bump, never a value copy), is documented
//! in `docs/DATA_LAYOUT.md`.

use crate::operator::StreamItem;
use dsms_punctuation::Punctuation;
use dsms_types::{ColumnSummary, Tuple, Value};
use std::sync::{Arc, OnceLock};

/// The row lane's representation: exclusively owned while a page is being
/// built (the common case — no indirection, no refcount), or shared after
/// [`ColumnarPage::share`] split off a second handle (supervised recovery
/// retains each input page this way: the retained copy and the dispatched
/// page reference one row allocation, so retention is O(1) per page instead
/// of a refcount bump per tuple).
#[derive(Debug, Clone)]
enum Rows {
    Owned(Vec<Tuple>),
    Shared(Arc<Vec<Tuple>>),
}

impl Default for Rows {
    fn default() -> Self {
        Rows::Owned(Vec::new())
    }
}

impl Rows {
    fn as_slice(&self) -> &[Tuple] {
        match self {
            Rows::Owned(rows) => rows,
            Rows::Shared(rows) => rows,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Mutable access, unsharing first if a second handle exists (only the
    /// builder mutates rows, and it never shares, so the unshare path is a
    /// defensive fallback rather than a hot path).
    fn to_mut(&mut self) -> &mut Vec<Tuple> {
        if let Rows::Shared(rows) = self {
            *self = Rows::Owned(rows.to_vec());
        }
        match self {
            Rows::Owned(rows) => rows,
            Rows::Shared(_) => unreachable!("unshared above"),
        }
    }
}

/// A batch of stream items in columnar layout: a contiguous row lane of
/// tuples plus a punctuation side lane that remembers where each punctuation
/// fell among the rows.
///
/// Tuple and punctuation counts are the lane lengths, so
/// [`ColumnarPage::tuple_count`] and [`ColumnarPage::punctuation_count`] are
/// O(1) — executors consult them for every page they move.  Iterating the
/// page (via [`IntoIterator`]) replays tuples and punctuation in exact
/// arrival order.
///
/// ```
/// use dsms_engine::PageBuilder;
/// use dsms_types::{DataType, Schema, Tuple, Value};
///
/// let schema = Schema::shared(&[("speed", DataType::Float)]);
/// let mut builder = PageBuilder::new(8);
/// for s in [48.0, 52.0, 45.5] {
///     builder.push_tuple(Tuple::new(schema.clone(), vec![Value::Float(s)]));
/// }
/// let page = builder.flush().unwrap();
/// assert_eq!(page.tuple_count(), 3);
///
/// // Column access: iterate one attribute without touching the others.
/// let speeds: Vec<&Value> = page.column(0).unwrap().collect();
/// assert_eq!(speeds.len(), 3);
///
/// // Summary access: classify the whole page in O(rows) once, then O(1).
/// let summary = page.column_summary(0).unwrap();
/// assert_eq!(summary.min(), Some(&Value::Float(45.5)));
/// assert_eq!(summary.max(), Some(&Value::Float(52.0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ColumnarPage {
    /// The data lane: tuples in arrival order.
    rows: Rows,
    /// The punctuation lane: each entry records how many rows preceded the
    /// punctuation, so interleaved arrival order can be replayed exactly.
    puncts: Vec<(u32, Punctuation)>,
    /// The summary cache: one slot per column of the first row, created on
    /// the first [`ColumnarPage::column_summary`] call (a page nobody asks
    /// pays nothing) and shared by every clone or [`ColumnarPage::share`]
    /// copy taken after it.  Any mutation of the row lane resets it.
    summaries: OnceLock<Arc<[SummarySlot]>>,
}

/// One column's cached summary: filled by the first request, `None` inside
/// when no sound summary exists (a row lacks the column).
type SummarySlot = OnceLock<Option<ColumnSummary>>;

#[cfg(test)]
thread_local! {
    /// Summary walks performed on this thread (the cache tests count them).
    static SUMMARY_WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The page type flowing through inter-operator queues.
///
/// `Page` has been an alias for [`ColumnarPage`] since the columnar
/// re-layout; existing `Page`-based code compiles unchanged.
pub type Page = ColumnarPage;

impl ColumnarPage {
    /// Creates an empty page.
    pub fn new() -> Self {
        ColumnarPage::default()
    }

    /// Creates a page from interleaved items (used by tests).
    pub fn from_items(items: Vec<StreamItem>) -> Self {
        let mut page = ColumnarPage::new();
        for item in items {
            match item {
                StreamItem::Tuple(t) => page.push_tuple(t),
                StreamItem::Punctuation(p) => page.push_punctuation(p),
            }
        }
        page
    }

    fn push_tuple(&mut self, tuple: Tuple) {
        self.rows_mut().push(tuple);
    }

    /// Mutable row lane; the summaries no longer describe it, so the cache
    /// is dropped (a no-op on a page nobody summarised).
    fn rows_mut(&mut self) -> &mut Vec<Tuple> {
        self.summaries.take();
        self.rows.to_mut()
    }

    fn push_punctuation(&mut self, punctuation: Punctuation) {
        self.puncts.push((self.rows.len() as u32, punctuation));
    }

    /// Splits off a second handle to this page: the returned page holds the
    /// same content, and both handles reference **one** row allocation (the
    /// row lane switches to its shared representation; the small punctuation
    /// lane is cloned) and, once a summary has been requested, one summary
    /// cache.  Supervised recovery retains each input page this way before
    /// dispatching it, and the 1→N forwards (`Duplicate`, `SharedFanout`)
    /// hand one copy to each output port — O(1) per page, where a `clone()`
    /// of an owned page allocates a new row `Vec` and bumps every tuple's
    /// refcount.
    ///
    /// ```
    /// use dsms_engine::PageBuilder;
    /// use dsms_types::{DataType, Schema, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[("v", DataType::Int)]);
    /// let mut builder = PageBuilder::new(4);
    /// builder.push_tuple(Tuple::new(schema, vec![Value::Int(1)]));
    /// let mut page = builder.flush().unwrap();
    /// let copy = page.share();
    /// assert_eq!(copy.tuples().as_ptr(), page.tuples().as_ptr(), "one row allocation");
    /// assert_eq!(copy.tuples()[0].handle_count(), 1, "no tuple gained an owner");
    /// ```
    pub fn share(&mut self) -> ColumnarPage {
        let rows = match std::mem::take(&mut self.rows) {
            Rows::Owned(rows) => Arc::new(rows),
            Rows::Shared(rows) => rows,
        };
        let copy = ColumnarPage {
            rows: Rows::Shared(rows.clone()),
            puncts: self.puncts.clone(),
            summaries: self.summaries.clone(),
        };
        self.rows = Rows::Shared(rows);
        copy
    }

    /// True when another handle (a [`share`](Self::share) copy, or a
    /// retained recovery copy) still references this page's row allocation:
    /// iterating the page by value then clones each tuple out instead of
    /// moving it, so a read-only kernel walks [`tuples`](Self::tuples)
    /// by reference instead.
    pub fn rows_shared(&self) -> bool {
        matches!(&self.rows, Rows::Shared(rows) if Arc::strong_count(rows) > 1)
    }

    /// The row lane: every tuple on the page, in arrival order, as whole
    /// zero-copy [`Tuple`] handles.
    pub fn tuples(&self) -> &[Tuple] {
        self.rows.as_slice()
    }

    /// The punctuation lane, in arrival order.
    pub fn punctuations(&self) -> impl Iterator<Item = &Punctuation> {
        self.puncts.iter().map(|(_, p)| p)
    }

    /// Moves the punctuation lane out, in arrival order, each punctuation
    /// with the number of rows that preceded it; the row lane and its
    /// summaries stay.  A kernel that reads the rows by reference through
    /// [`tuples`](Self::tuples) replays arrival order from these positions:
    /// a punctuation at position `k` comes after row `k − 1` and before
    /// row `k`.
    pub fn take_punctuations(&mut self) -> impl Iterator<Item = (usize, Punctuation)> {
        std::mem::take(&mut self.puncts).into_iter().map(|(at, p)| (at as usize, p))
    }

    /// Iterates the values of one column (attribute index) across all rows.
    ///
    /// Returns `None` when the page has no rows or any row lacks the column —
    /// the same condition under which [`ColumnarPage::column_summary`]
    /// declines to summarize.
    pub fn column(&self, index: usize) -> Option<impl Iterator<Item = &Value>> {
        let rows = self.rows.as_slice();
        if rows.is_empty() || rows.iter().any(|r| r.values().get(index).is_none()) {
            return None;
        }
        Some(rows.iter().map(move |r| &r.values()[index]))
    }

    /// Min/max/null summary of one column, computed at most once per page
    /// per column: the first request walks the rows and caches the result,
    /// and every later request — on this page, or on a clone or
    /// [`share`](Self::share) copy taken after the first request — reads
    /// the cache.
    ///
    /// Returns `None` when no sound summary exists (empty page, or a row
    /// lacks the column) — callers must then fall back to per-tuple
    /// evaluation.  See [`ColumnSummary::over_column`] for the soundness
    /// argument.
    ///
    /// ```
    /// use dsms_engine::PageBuilder;
    /// use dsms_types::{DataType, Schema, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[("segment", DataType::Int)]);
    /// let mut builder = PageBuilder::new(4);
    /// for seg in [3, 1, 2] {
    ///     builder.push_tuple(Tuple::new(schema.clone(), vec![Value::Int(seg)]));
    /// }
    /// let page = builder.flush().unwrap();
    /// let summary = page.column_summary(0).unwrap();
    /// assert_eq!((summary.min(), summary.max()), (Some(&Value::Int(1)), Some(&Value::Int(3))));
    /// assert!(page.column_summary(7).is_none(), "no such column");
    /// ```
    pub fn column_summary(&self, index: usize) -> Option<ColumnSummary> {
        let rows = self.rows.as_slice();
        // A column past the first row's arity is missing from a row: no
        // sound summary, and no slot.
        let arity = rows.first()?.values().len();
        if index >= arity {
            return None;
        }
        let slots = self.summaries.get_or_init(|| (0..arity).map(|_| OnceLock::new()).collect());
        slots[index]
            .get_or_init(|| {
                #[cfg(test)]
                SUMMARY_WALKS.with(|walks| walks.set(walks.get() + 1));
                ColumnSummary::over_column(rows, index)
            })
            .clone()
    }

    /// Consumes the page, yielding interleaved items in arrival order.
    pub fn into_items(self) -> Vec<StreamItem> {
        self.into_iter().collect()
    }

    /// Number of items (tuples + punctuations).
    pub fn len(&self) -> usize {
        self.rows.len() + self.puncts.len()
    }

    /// True when the page holds no items.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.puncts.is_empty()
    }

    /// Number of tuples on the page (row-lane length; O(1)).
    pub fn tuple_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of punctuations on the page (punctuation-lane length; O(1)).
    pub fn punctuation_count(&self) -> usize {
        self.puncts.len()
    }
}

/// Row-lane iterator backing [`PageIter`]: moves handles out of an
/// exclusively owned lane, or clones them out of a shared one (a retained
/// recovery copy still references the allocation).
#[derive(Debug)]
enum RowsIter {
    Owned(std::vec::IntoIter<Tuple>),
    Shared { rows: Arc<Vec<Tuple>>, next: usize },
}

impl RowsIter {
    fn next(&mut self) -> Option<Tuple> {
        match self {
            RowsIter::Owned(rows) => rows.next(),
            RowsIter::Shared { rows, next } => {
                let tuple = rows.get(*next)?.clone();
                *next += 1;
                Some(tuple)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            RowsIter::Owned(rows) => rows.len(),
            RowsIter::Shared { rows, next } => rows.len() - next,
        }
    }
}

/// Order-preserving iterator over a page's items: merges the row lane and
/// the punctuation lane back into arrival order.
#[derive(Debug)]
pub struct PageIter {
    rows: RowsIter,
    puncts: std::vec::IntoIter<(u32, Punctuation)>,
    emitted_rows: u32,
}

impl Iterator for PageIter {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        if let Some((position, _)) = self.puncts.as_slice().first() {
            if *position <= self.emitted_rows {
                let (_, p) = self.puncts.next().expect("peeked punctuation");
                return Some(StreamItem::Punctuation(p));
            }
        }
        if let Some(tuple) = self.rows.next() {
            self.emitted_rows += 1;
            return Some(StreamItem::Tuple(tuple));
        }
        self.puncts.next().map(|(_, p)| StreamItem::Punctuation(p))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.rows.len() + self.puncts.len();
        (remaining, Some(remaining))
    }
}

impl IntoIterator for ColumnarPage {
    type Item = StreamItem;
    type IntoIter = PageIter;

    fn into_iter(self) -> PageIter {
        let rows = match self.rows {
            Rows::Owned(rows) => RowsIter::Owned(rows.into_iter()),
            // A uniquely held shared lane (the peer handle is gone) still
            // moves its handles out; only a live peer forces clone-out.
            Rows::Shared(rows) => match Arc::try_unwrap(rows) {
                Ok(rows) => RowsIter::Owned(rows.into_iter()),
                Err(rows) => RowsIter::Shared { rows, next: 0 },
            },
        };
        PageIter { rows, puncts: self.puncts.into_iter(), emitted_rows: 0 }
    }
}

/// Accumulates stream items into columnar pages, flushing on capacity or
/// punctuation.
#[derive(Debug)]
pub struct PageBuilder {
    capacity: usize,
    current: Page,
}

impl PageBuilder {
    /// Default page capacity (tuples per page), mirroring a small NiagaraST
    /// tuple page.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Creates a builder with the given page capacity (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PageBuilder { capacity: capacity.max(1), current: Page::new() }
    }

    /// The page capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a tuple to the row lane.  Returns a full page when the append
    /// filled it.
    ///
    /// The first tuple into a fresh page reserves the full row-lane capacity:
    /// one allocation per data page rather than a doubling growth chain,
    /// while an idle builder holds no buffer.  Punctuation pushes
    /// deliberately do *not* reserve — punctuation flushes immediately, so a
    /// punctuation landing on an empty page would turn a 1-item page into a
    /// capacity-sized allocation.
    pub fn push_tuple(&mut self, tuple: Tuple) -> Option<Page> {
        let rows = self.current.rows_mut();
        if rows.capacity() == 0 {
            rows.reserve_exact(self.capacity);
        }
        rows.push(tuple);
        if self.current.len() >= self.capacity {
            Some(self.take())
        } else {
            None
        }
    }

    /// Appends a punctuation.  Punctuation always flushes the page
    /// (NiagaraST's rule), so this always returns a page.
    pub fn push_punctuation(&mut self, punctuation: Punctuation) -> Page {
        self.current.push_punctuation(punctuation);
        self.take()
    }

    /// Number of items buffered in the partially built page.
    pub fn pending(&self) -> usize {
        self.current.len()
    }

    /// Takes whatever has been buffered (possibly empty), leaving the builder
    /// empty.  Used at end-of-stream.
    pub fn take(&mut self) -> Page {
        std::mem::take(&mut self.current)
    }

    /// Flushes the buffered items if any, returning `None` when empty.
    pub fn flush(&mut self) -> Option<Page> {
        if self.current.is_empty() {
            None
        } else {
            Some(self.take())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
    }

    fn tuple(ts: i64, v: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(v)])
    }

    fn punct(ts: i64) -> Punctuation {
        Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(ts)).unwrap()
    }

    #[test]
    fn page_fills_at_capacity() {
        let mut b = PageBuilder::new(3);
        assert!(b.push_tuple(tuple(1, 1)).is_none());
        assert!(b.push_tuple(tuple(2, 2)).is_none());
        let page = b.push_tuple(tuple(3, 3)).expect("third tuple fills the page");
        assert_eq!(page.len(), 3);
        assert_eq!(page.tuple_count(), 3);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn punctuation_flushes_partial_page() {
        let mut b = PageBuilder::new(100);
        b.push_tuple(tuple(1, 1));
        b.push_tuple(tuple(2, 2));
        let page = b.push_punctuation(punct(2));
        assert_eq!(page.len(), 3);
        assert_eq!(page.tuple_count(), 2);
        assert_eq!(page.punctuation_count(), 1);
        assert_eq!(b.pending(), 0, "punctuation flushed everything");
    }

    #[test]
    fn flush_and_take_handle_empty_builders() {
        let mut b = PageBuilder::new(4);
        assert!(b.flush().is_none());
        assert!(b.take().is_empty());
        b.push_tuple(tuple(1, 1));
        let page = b.flush().unwrap();
        assert_eq!(page.len(), 1);
        assert!(b.flush().is_none());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut b = PageBuilder::new(0);
        assert_eq!(b.capacity(), 1);
        assert!(b.push_tuple(tuple(1, 1)).is_some(), "every tuple fills a 1-capacity page");
    }

    #[test]
    fn incremental_counts_survive_take_and_reuse() {
        let mut b = PageBuilder::new(4);
        b.push_tuple(tuple(1, 1));
        let page = b.push_punctuation(punct(1));
        assert_eq!((page.tuple_count(), page.punctuation_count()), (1, 1));
        // The builder restarts from zero after a flush.
        b.push_tuple(tuple(2, 2));
        b.push_tuple(tuple(3, 3));
        let page = b.flush().unwrap();
        assert_eq!((page.tuple_count(), page.punctuation_count()), (2, 0));
        assert!(b.take().is_empty());
    }

    #[test]
    fn page_iterators_and_counts() {
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 10)),
            StreamItem::Punctuation(punct(1)),
            StreamItem::Tuple(tuple(2, 20)),
        ]);
        assert_eq!(page.tuple_count(), 2);
        assert_eq!(page.punctuation_count(), 1);
        let values: Vec<i64> = page.tuples().iter().map(|t| t.int("v").unwrap()).collect();
        assert_eq!(values, vec![10, 20]);
        assert!(!page.is_empty());
        assert_eq!(page.into_items().len(), 3);
    }

    #[test]
    fn iteration_replays_exact_arrival_order() {
        // Punctuation before any row, between rows, and trailing — all
        // positions round-trip through the two-lane layout.
        let items = vec![
            StreamItem::Punctuation(punct(0)),
            StreamItem::Tuple(tuple(1, 10)),
            StreamItem::Tuple(tuple(2, 20)),
            StreamItem::Punctuation(punct(2)),
            StreamItem::Tuple(tuple(3, 30)),
            StreamItem::Punctuation(punct(3)),
            StreamItem::Punctuation(punct(4)),
        ];
        let shape: Vec<bool> = items.iter().map(|i| matches!(i, StreamItem::Tuple(_))).collect();
        let page = Page::from_items(items);
        let replayed: Vec<bool> =
            page.into_items().iter().map(|i| matches!(i, StreamItem::Tuple(_))).collect();
        assert_eq!(replayed, shape);
    }

    #[test]
    fn column_access_and_summaries() {
        let mut b = PageBuilder::new(8);
        b.push_tuple(tuple(5, 40));
        b.push_tuple(tuple(7, 20));
        b.push_tuple(tuple(6, 60));
        let page = b.flush().unwrap();
        let vs: Vec<&Value> = page.column(1).unwrap().collect();
        assert_eq!(vs, vec![&Value::Int(40), &Value::Int(20), &Value::Int(60)]);
        let summary = page.column_summary(1).unwrap();
        assert_eq!(summary.min(), Some(&Value::Int(20)));
        assert_eq!(summary.max(), Some(&Value::Int(60)));
        assert_eq!(summary.nulls(), 0);
        assert!(page.column(2).is_none(), "out-of-range column");
        assert!(page.column_summary(2).is_none());
        assert!(Page::new().column(0).is_none(), "empty page has no columns");
    }

    #[test]
    fn share_splits_one_row_allocation_between_two_handles() {
        let mut b = PageBuilder::new(8);
        b.push_tuple(tuple(1, 10));
        b.push_tuple(tuple(2, 20));
        let mut page = b.push_punctuation(punct(2));
        assert!(!page.rows_shared(), "a built page owns its row lane");
        let copy = page.share();
        assert!(page.rows_shared() && copy.rows_shared());
        assert_eq!(copy.tuple_count(), page.tuple_count());
        assert_eq!(copy.punctuation_count(), page.punctuation_count());
        // Both handles iterate the full content even while the peer lives.
        let values: Vec<i64> = copy.tuples().iter().map(|t| t.int("v").unwrap()).collect();
        assert_eq!(values, vec![10, 20]);
        assert_eq!(page.clone().into_items().len(), 3, "clone-out path under a live peer");
        drop(page);
        // With the peer gone, into_iter moves handles out again.
        assert!(!copy.rows_shared(), "the last handle is the lane's only owner");
        assert_eq!(copy.into_items().len(), 3);
    }

    #[test]
    fn shared_page_iterates_in_arrival_order() {
        let mut page = Page::from_items(vec![
            StreamItem::Punctuation(punct(0)),
            StreamItem::Tuple(tuple(1, 10)),
            StreamItem::Punctuation(punct(1)),
            StreamItem::Tuple(tuple(2, 20)),
        ]);
        let retained = page.share();
        let shape = |p: Page| -> Vec<bool> {
            p.into_items().iter().map(|i| matches!(i, StreamItem::Tuple(_))).collect()
        };
        let expected = vec![false, true, false, true];
        assert_eq!(shape(page), expected, "clone-out iteration preserves arrival order");
        assert_eq!(shape(retained), expected, "the retained copy replays identically");
    }

    #[test]
    fn mutating_a_shared_page_unshares_it_first() {
        let mut page = Page::from_items(vec![StreamItem::Tuple(tuple(1, 10))]);
        let retained = page.share();
        page.push_tuple(tuple(2, 20));
        assert_eq!(page.tuple_count(), 2);
        assert_eq!(retained.tuple_count(), 1, "the retained copy is unaffected");
    }

    #[test]
    fn column_handles_short_rows_soundly() {
        // Rows of different arity: no sound per-column view exists.
        let wide = Schema::shared(&[("a", DataType::Int), ("b", DataType::Int)]);
        let narrow = Schema::shared(&[("a", DataType::Int)]);
        let page = Page::from_items(vec![
            StreamItem::Tuple(Tuple::new(wide, vec![Value::Int(1), Value::Int(2)])),
            StreamItem::Tuple(Tuple::new(narrow, vec![Value::Int(3)])),
        ]);
        assert!(page.column(0).is_some(), "column 0 exists in every row");
        assert!(page.column(1).is_none(), "column 1 is missing from one row");
        assert!(page.column_summary(1).is_none());
    }

    fn summary_walks() -> usize {
        SUMMARY_WALKS.with(|walks| walks.get())
    }

    fn three_row_page() -> Page {
        let mut b = PageBuilder::new(8);
        for (ts, v) in [(1, 40), (2, 20), (3, 60)] {
            b.push_tuple(tuple(ts, v));
        }
        b.flush().unwrap()
    }

    #[test]
    fn copies_after_the_first_request_share_one_walk_per_column() {
        let mut page = three_row_page();
        let before = summary_walks();
        let expected = page.column_summary(1).unwrap();
        let copies = [page.clone(), page.share(), page.clone(), page.share()];
        for copy in &copies {
            assert_eq!(copy.column_summary(1).as_ref(), Some(&expected));
            assert_eq!(copy.column_summary(1).as_ref(), Some(&expected));
        }
        assert_eq!(page.column_summary(1), Some(expected));
        assert_eq!(summary_walks() - before, 1, "one walk served four copies, twice each");
        // Another column gets its own single walk.
        assert_eq!(copies[0].column_summary(0).unwrap().len(), 3);
        assert_eq!(copies[3].column_summary(0).unwrap().len(), 3);
        assert_eq!(summary_walks() - before, 2);
    }

    #[test]
    fn a_copy_taken_before_the_first_request_summarises_on_its_own() {
        let mut page = three_row_page();
        let early_clone = page.clone();
        let early_share = page.share();
        let summary = page.column_summary(1).unwrap();
        assert_eq!((summary.min(), summary.max()), (Some(&Value::Int(20)), Some(&Value::Int(60))));
        assert_eq!(early_clone.column_summary(1), Some(summary.clone()));
        assert_eq!(early_share.column_summary(1), Some(summary));
    }

    #[test]
    fn pushes_after_a_request_never_serve_a_stale_summary() {
        let mut page = Page::from_items(vec![StreamItem::Tuple(tuple(1, 10))]);
        assert_eq!(page.column_summary(1).unwrap().max(), Some(&Value::Int(10)));
        let retained = page.share();
        page.push_tuple(tuple(2, 90));
        let summary = page.column_summary(1).unwrap();
        assert_eq!((summary.len(), summary.max()), (2, Some(&Value::Int(90))));
        assert_eq!(retained.column_summary(1).unwrap().len(), 1, "the retained copy keeps its own");

        // A builder starts every page with an empty cache.
        let mut b = PageBuilder::new(4);
        b.push_tuple(tuple(1, 5));
        let first = b.flush().unwrap();
        assert_eq!(first.column_summary(1).unwrap().max(), Some(&Value::Int(5)));
        b.push_tuple(tuple(2, 7));
        b.push_tuple(tuple(3, 3));
        let second = b.flush().unwrap();
        let summary = second.column_summary(1).unwrap();
        assert_eq!((summary.min(), summary.max()), (Some(&Value::Int(3)), Some(&Value::Int(7))));
    }

    #[test]
    fn cached_summaries_keep_the_soundness_rules() {
        let page = three_row_page();
        assert!(page.column_summary(2).is_none(), "out-of-range column");
        assert!(page.column_summary(usize::MAX).is_none());
        assert!(page.column_summary(1).is_some());
        assert!(page.column_summary(2).is_none(), "still none once the cache exists");
        assert!(Page::new().column_summary(0).is_none(), "empty page");
        let only_punctuation = Page::from_items(vec![StreamItem::Punctuation(punct(1))]);
        assert!(only_punctuation.column_summary(0).is_none());

        // Mixed arity, wide row first and narrow row first.
        let wide = Schema::shared(&[("a", DataType::Int), ("b", DataType::Int)]);
        let narrow = Schema::shared(&[("a", DataType::Int)]);
        let wide_row = StreamItem::Tuple(Tuple::new(wide, vec![Value::Int(1), Value::Int(2)]));
        let narrow_row = StreamItem::Tuple(Tuple::new(narrow, vec![Value::Int(3)]));
        for items in [vec![wide_row.clone(), narrow_row.clone()], vec![narrow_row, wide_row]] {
            let page = Page::from_items(items);
            assert_eq!(page.column_summary(0).unwrap().len(), 2);
            assert!(page.column_summary(1).is_none(), "column 1 is missing from one row");
            assert!(page.column_summary(1).is_none(), "and stays missing when cached");
        }
    }
}
