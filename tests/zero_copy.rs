//! Zero-copy regression tests for the tuple hot path.
//!
//! The engine's fan-out operators clone tuples on every emission; since the
//! `Arc<[Value]>`/`Arc<str>` representation change those clones must be
//! reference-count bumps, never value deep-copies.  `Arc::strong_count` on a
//! text payload threaded through a plan is the probe: a deep copy anywhere
//! would materialise a second `str` allocation and the count would *not*
//! account for every live tuple copy.

use feedback_dsms::engine::{Emission, Page, PageBuilder};
use feedback_dsms::prelude::*;
use std::sync::Arc;

fn schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("freeway", DataType::Text),
    ])
}

fn text_tuple(text: &Arc<str>, seg: i64) -> Tuple {
    Tuple::new(
        schema(),
        vec![
            Value::Timestamp(Timestamp::from_secs(seg)),
            Value::Int(seg),
            Value::Text(text.clone()),
        ],
    )
}

/// A 4-way DUPLICATE of a text-bearing tuple performs zero value deep-copies:
/// all four emitted tuples share the input's value buffer, and the text
/// `Arc` gains no owners (the buffer holds the only tuple-side reference).
#[test]
fn four_way_duplicate_deep_copies_nothing() {
    let text: Arc<str> = Arc::from("Interstate-05 northbound near milepost 042");
    let tuple = text_tuple(&text, 3);
    assert_eq!(Arc::strong_count(&text), 2, "our handle + the tuple's buffer");

    let mut op = Duplicate::new("dup", schema(), 4);
    let mut ctx = OperatorContext::new();
    op.on_tuple(0, tuple, &mut ctx).unwrap();
    let emitted = ctx.take_emitted();
    assert_eq!(emitted.len(), 4, "one copy per output");

    // Zero deep copies: four live tuples, still exactly one value buffer and
    // one str allocation.
    assert_eq!(
        Arc::strong_count(&text),
        2,
        "a deep copy would have added owners or new allocations"
    );
    let tuples: Vec<&Tuple> = emitted.iter().filter_map(|(_, item)| item.as_tuple()).collect();
    for pair in tuples.windows(2) {
        assert!(pair[0].shares_values_with(pair[1]), "all fan-out copies share one buffer");
    }

    // Dropping the copies releases nothing but refcounts; the probe handle
    // becomes the sole owner.
    drop(emitted);
    assert_eq!(Arc::strong_count(&text), 1);
}

/// `Tuple::clone` is O(1) sharing; `with_value` is copy-on-write — it
/// rebuilds the buffer for the new tuple and leaves every existing clone on
/// the original.
#[test]
fn clone_shares_and_with_value_rebuilds() {
    let text: Arc<str> = Arc::from("OR-217 southbound");
    let original = text_tuple(&text, 7);
    let shared = original.clone();
    assert!(original.shares_values_with(&shared));
    assert_eq!(Arc::strong_count(&text), 2, "clone bumped no inner value counts");

    let rewritten = shared.with_value(1, Value::Int(8)).unwrap();
    assert!(!rewritten.shares_values_with(&original), "copy-on-write made a fresh buffer");
    assert_eq!(original.int("segment").unwrap(), 7, "existing clones are untouched");
    assert_eq!(rewritten.int("segment").unwrap(), 8);
    // The untouched text value is still shared, not re-allocated: probe +
    // original buffer + rewritten buffer.
    assert_eq!(Arc::strong_count(&text), 3);
}

/// End-to-end: a full run through DUPLICATE into two sinks leaves the text
/// allocation count at exactly (probe + dataset + per-sink copies) — i.e.
/// the executors' routing, paging, and sink collection never deep-copy
/// tuple values either.
#[test]
fn executors_never_deep_copy_text_values() {
    for pooled in [false, true] {
        let text: Arc<str> = Arc::from("US-26 westbound near the zoo");
        let tuples: Vec<Tuple> = (0..100).map(|seg| text_tuple(&text, seg)).collect();
        assert_eq!(Arc::strong_count(&text), 101, "probe + one buffer per tuple");

        let builder = StreamBuilder::new().with_page_capacity(16).with_queue_capacity(4);
        let stream = builder
            .source_as(
                VecSource::new("source", tuples)
                    .with_punctuation("timestamp", StreamDuration::from_secs(10)),
                schema(),
            )
            .unwrap();
        let branches = stream.apply_multi(Duplicate::new("dup", schema(), 2)).unwrap();
        let mut handles = Vec::new();
        for (i, branch) in branches.into_iter().enumerate() {
            handles.push(branch.sink_collect(format!("sink-{i}")).unwrap());
        }
        let report = if pooled {
            PooledExecutor::run(builder.build().unwrap()).unwrap()
        } else {
            SyncExecutor::run(builder.build().unwrap()).unwrap()
        };
        assert_eq!(report.total_feedback_dropped(), 0);

        let collected: usize = handles.iter().map(|h| h.lock().len()).sum();
        assert_eq!(collected, 200, "pooled={pooled}: both sinks got every tuple");
        // The two sink copies of each input tuple share one value buffer, and
        // each buffer holds the single tuple-side text reference: probe + 100
        // buffers.  Anything above that means a hop deep-copied; 200 would be
        // a copy per fan-out branch, 300+ a copy per page or sink push.
        assert_eq!(
            Arc::strong_count(&text),
            101,
            "pooled={pooled}: a deep copy happened somewhere on the hot path"
        );
        drop(handles);
        assert_eq!(Arc::strong_count(&text), 1, "pooled={pooled}");
    }
}

/// An owned page of `rows` text tuples and one trailing punctuation; each
/// tuple is held by the page alone.
fn text_page(text: &Arc<str>, rows: i64) -> Page {
    let mut builder = PageBuilder::new(rows as usize + 1);
    for seg in 0..rows {
        builder.push_tuple(text_tuple(text, seg));
    }
    let bound = Timestamp::from_secs(rows);
    builder.push_punctuation(Punctuation::progress(schema(), "timestamp", bound).unwrap())
}

/// The pages a forward emitted, in emission order; a PassAll forward emits
/// nothing else.
fn emitted_pages(ctx: &mut OperatorContext) -> Vec<(usize, Page)> {
    let mut pages = Vec::new();
    ctx.drain_emissions(|port, emission| match emission {
        Emission::Page(page) => pages.push((port, page)),
        Emission::Item(item) => panic!("a PassAll forward emits whole pages, got {item:?}"),
    });
    pages
}

/// Every port got the whole page, and all of them read one row allocation:
/// no row `Vec` was copied and no tuple gained a handle.
fn assert_one_shared_row_lane(pages: &[(usize, Page)], ports: usize, rows: usize) {
    let seen: Vec<usize> = pages.iter().map(|(port, _)| *port).collect();
    assert_eq!(seen, (0..ports).collect::<Vec<_>>(), "one page per port, in port order");
    let lane = pages[0].1.tuples().as_ptr();
    for (port, page) in pages {
        assert_eq!((page.tuple_count(), page.punctuation_count()), (rows, 1), "port {port}");
        assert_eq!(page.tuples().as_ptr(), lane, "port {port} got a copied row lane");
        for tuple in page.tuples() {
            assert_eq!(tuple.handle_count(), 1, "port {port}: a tuple gained an owner");
        }
    }
}

/// A 4-port DUPLICATE forwards a guard-free page as one row allocation
/// shared by all four outputs.
#[test]
fn four_way_duplicate_page_shares_one_row_lane() {
    let text: Arc<str> = Arc::from("I-84 eastbound near the river");
    let mut op = Duplicate::new("dup", schema(), 4);
    let mut ctx = OperatorContext::new();
    op.on_page(0, text_page(&text, 16), &mut ctx).unwrap();
    let pages = emitted_pages(&mut ctx);
    assert_one_shared_row_lane(&pages, 4, 16);
    assert_eq!(Arc::strong_count(&text), 17, "probe + one value buffer per row");
    drop(pages);
    assert_eq!(Arc::strong_count(&text), 1);
}

/// A 4-port `SharedFanout` whose every port holds a guard the page's
/// summaries prove it misses forwards the page as one row allocation
/// shared by all four ports.
#[test]
fn four_port_shared_fanout_page_shares_one_row_lane() {
    let text: Arc<str> = Arc::from("OR-99E southbound");
    let mut op = SharedFanout::new("fanout", schema(), 4);
    let mut ctx = OperatorContext::new();
    for port in 0..4 {
        let miss = PatternItem::Eq(Value::Int(100 + port as i64));
        let pattern = Pattern::for_attributes(schema(), &[("segment", miss)]).unwrap();
        op.on_feedback(port, FeedbackPunctuation::assumed(pattern, "query"), &mut ctx).unwrap();
    }
    ctx.take_feedback();
    op.on_page(0, text_page(&text, 16), &mut ctx).unwrap();
    let pages = emitted_pages(&mut ctx);
    assert_one_shared_row_lane(&pages, 4, 16);
    assert_eq!(op.pages_shared(), 1);
    assert_eq!(Arc::strong_count(&text), 17, "probe + one value buffer per row");
    drop(pages);
    assert_eq!(Arc::strong_count(&text), 1);
}
