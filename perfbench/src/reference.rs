//! The naive reference evaluator and the output check.
//!
//! The evaluator computes each query's windowed aggregate in one
//! single-threaded pass over the plain input rows, with no feedback.  The
//! check then applies the rule of Definitions 1–2 of the paper (see
//! `crates/core/src/correctness.rs`): with feedback, the output must equal
//! the no-feedback output minus results the issued feedback describes.  So
//! a result no feedback describes must be present and equal to the
//! reference; a described result may be absent, but if present it must
//! still be equal; nothing may be duplicated or invented.

use crate::input::{window_of, Row};
use std::collections::{BTreeMap, HashMap};

/// `(window start in ms, group key)`.
pub type ResultKey = (i64, i64);

/// One expected result: its value and the index of the last input row that
/// contributed to it (its latency is measured from that row's emission).
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    pub value: f64,
    pub last: u32,
}

pub type ResultSet = BTreeMap<ResultKey, Expected>;

/// The aggregate functions the workloads use, each with its input column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    AvgSpeed,
    MaxSpeed,
    Count,
    SumVolume,
}

impl Agg {
    fn input(self, row: &Row) -> f64 {
        match self {
            Agg::AvgSpeed | Agg::MaxSpeed => row.speed,
            Agg::Count => 0.0,
            Agg::SumVolume => row.volume as f64,
        }
    }
}

/// `agg` per (window, `key(row)`) over the rows `keep` admits.
pub fn window_aggregate(
    rows: &[Row],
    keep: impl Fn(&Row) -> bool,
    key: impl Fn(&Row) -> i64,
    agg: Agg,
) -> ResultSet {
    // (sum or max, count, last row index)
    let mut acc: HashMap<ResultKey, (f64, u64, u32)> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        if !keep(row) {
            continue;
        }
        let start = if agg == Agg::MaxSpeed { f64::NEG_INFINITY } else { 0.0 };
        let entry = acc.entry((window_of(row.ts_ms), key(row))).or_insert((start, 0, 0));
        let v = agg.input(row);
        entry.0 = if agg == Agg::MaxSpeed { entry.0.max(v) } else { entry.0 + v };
        entry.1 += 1;
        entry.2 = i as u32;
    }
    acc.into_iter()
        .map(|(k, (sum, count, last))| {
            let value = match agg {
                Agg::AvgSpeed => sum / count as f64,
                Agg::MaxSpeed | Agg::SumVolume => sum,
                Agg::Count => count as f64,
            };
            (k, Expected { value, last })
        })
        .collect()
}

/// One result as it reached a sink.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub key: ResultKey,
    pub value: f64,
    /// Arrival time at the sink, in ns on the run's clock.
    pub at_ns: u64,
}

/// The verdict on one query's output.
#[derive(Debug, Default)]
pub struct Verdict {
    pub expected: u64,
    /// Expected results missing without a licence, wrong values, plus
    /// duplicated or invented results.
    pub wrong: u64,
    /// Sink arrival minus source emission of the last contributing row, one
    /// per correct result that arrived.
    pub latencies_ns: Vec<u64>,
    /// The first problem found, for the error report.
    pub first_problem: Option<String>,
}

impl Verdict {
    fn fail(&mut self, problem: impl FnOnce() -> String) {
        self.wrong += 1;
        if self.first_problem.is_none() {
            self.first_problem = Some(problem());
        }
    }
}

/// Checks `got` against `expected`.  `described(key)` says whether issued
/// feedback describes the result; `emitted_at(row)` gives the time the
/// source emitted an input row.
pub fn check(
    expected: &ResultSet,
    got: &[Arrival],
    described: impl Fn(ResultKey) -> bool,
    emitted_at: impl Fn(u32) -> Option<u64>,
) -> Verdict {
    let mut verdict = Verdict { expected: expected.len() as u64, ..Verdict::default() };
    let mut seen: HashMap<ResultKey, Arrival> = HashMap::with_capacity(got.len());
    for arrival in got {
        if seen.insert(arrival.key, *arrival).is_some() {
            verdict.fail(|| format!("result {:?} arrived twice", arrival.key));
        }
    }
    for (key, exp) in expected {
        match seen.remove(key) {
            Some(arrival) if arrival.value.to_bits() == exp.value.to_bits() => {
                match emitted_at(exp.last) {
                    Some(emitted) => {
                        verdict.latencies_ns.push(arrival.at_ns.saturating_sub(emitted))
                    }
                    None => verdict.fail(|| format!("no emission time for input row {}", exp.last)),
                }
            }
            Some(arrival) => verdict.fail(|| {
                format!("result {key:?} is {} but the reference says {}", arrival.value, exp.value)
            }),
            None if described(*key) => {}
            None => {
                verdict.fail(|| format!("result {key:?} is missing and no feedback describes it"))
            }
        }
    }
    for key in seen.keys() {
        verdict.fail(|| format!("result {key:?} is not in the reference"));
    }
    verdict
}
