//! The micro tier of the traced run: the per-call cost of the types,
//! punctuation and core functions on the hot path, timed on the workload's
//! own tuples, pages and live guard set rather than on synthetic inputs.

use dsms_feedback::{FeedbackPunctuation, FeedbackRegistry};
use dsms_punctuation::{CompiledPattern, Pattern};
use dsms_types::{fixed_hash, ColumnSummary, Tuple};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows per page, as the engine batches them by default.
const PAGE_ROWS: usize = 128;
/// Pages whose summaries the summary-matching measurement cycles through.
const SUMMARY_PAGES: usize = 512;
/// Time spent on each measurement.
const BUDGET: Duration = Duration::from_millis(60);

/// Calls `step` (which reports how many operations it did) until the budget
/// is spent; returns ns per operation.
fn ns_per_op(mut step: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < BUDGET {
        ops += step();
    }
    if ops == 0 {
        0.0
    } else {
        started.elapsed().as_nanos() as f64 / ops as f64
    }
}

/// Walks a slice in chunks whose starts are spread over the whole slice, so
/// repeated calls sample the workload's data from every part of the stream
/// (the live guard set matches early and late tuples differently).
struct Cursor {
    step: u64,
}

impl Cursor {
    fn take<'a, T>(&mut self, items: &'a [T], chunk: usize) -> &'a [T] {
        let starts = (items.len().saturating_sub(chunk) / chunk + 1) as u64;
        // Golden-ratio stride: consecutive chunks land far apart.
        self.step = self.step.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let start = (((self.step >> 32) * starts) >> 32) as usize * chunk;
        &items[start..(start + chunk).min(items.len())]
    }
}

/// `(metric name, value, unit)`.
pub type Metric = (String, f64, &'static str);

pub fn run(tuples: &[Tuple], key_column: usize, guards: &[Pattern]) -> Vec<Metric> {
    let compiled: Vec<CompiledPattern> = guards.iter().map(Pattern::compile).collect();
    let mut registry = FeedbackRegistry::new("micro");
    for guard in guards {
        registry
            .register(FeedbackPunctuation::assumed(guard.clone(), "micro"))
            .expect("no scheme to reject");
    }
    let columns = tuples.first().map_or(0, Tuple::arity);
    let mut cursor = Cursor { step: 0 };
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit| out.push((name.to_string(), value, unit));

    put(
        "types.tuple_clone_ns",
        ns_per_op(|| {
            let rows = cursor.take(tuples, 4096);
            for t in rows {
                black_box(t.clone());
            }
            rows.len() as u64
        }),
        "ns",
    );
    put(
        "types.fixed_hash_ns",
        ns_per_op(|| {
            let rows = cursor.take(tuples, 4096);
            for t in rows {
                black_box(fixed_hash(&t.values()[key_column]));
            }
            rows.len() as u64
        }),
        "ns",
    );
    put(
        "types.column_summary_ns_per_row",
        ns_per_op(|| {
            let page = cursor.take(tuples, PAGE_ROWS);
            black_box(ColumnSummary::over_column(page, key_column));
            page.len() as u64
        }),
        "ns",
    );

    let guarded = !compiled.is_empty();
    put(
        "punctuation.pattern_match_ns",
        if guarded {
            ns_per_op(|| {
                let rows = cursor.take(tuples, 64);
                for t in rows {
                    for g in &compiled {
                        black_box(g.matches(t));
                    }
                }
                (rows.len() * compiled.len()) as u64
            })
        } else {
            0.0
        },
        "ns",
    );
    // Summaries of 512 pages spread evenly over the whole stream, built once
    // up front so only the matching is timed.
    let stride = tuples.len().div_ceil(PAGE_ROWS).div_ceil(SUMMARY_PAGES).max(1);
    let summaries: Vec<Vec<Option<ColumnSummary>>> = tuples
        .chunks(PAGE_ROWS)
        .step_by(stride)
        .map(|page| (0..columns).map(|c| ColumnSummary::over_column(page, c)).collect())
        .collect();
    put(
        "punctuation.summary_match_ns",
        if guarded {
            ns_per_op(|| {
                let page = &cursor.take(&summaries, 1)[0];
                for g in &compiled {
                    black_box(g.matches_summaries(|c| page[c].clone()));
                }
                compiled.len() as u64
            })
        } else {
            0.0
        },
        "ns",
    );
    put(
        "core.decide_ns",
        ns_per_op(|| {
            let rows = cursor.take(tuples, 256);
            for t in rows {
                black_box(registry.decide(t));
            }
            rows.len() as u64
        }),
        "ns",
    );
    put(
        "core.decide_batch_ns",
        ns_per_op(|| {
            let page = cursor.take(tuples, PAGE_ROWS);
            black_box(registry.decide_batch(page.len(), |c| ColumnSummary::over_column(page, c)));
            1
        }),
        "ns",
    );
    out
}
