//! Seeded input generation.
//!
//! Every workload replays traffic-detector readings.  They are generated
//! once per process from `--seed`, before anything is timed, in two forms:
//! plain [`Row`]s for the reference evaluator and engine [`Tuple`]s for the
//! program under test.

use dsms_operators::TuplePredicate;
use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Tuple, Value};

/// Tumbling-window width of every aggregate in every workload.
pub const WINDOW_MS: i64 = 60_000;

/// One detector reading, in plain Rust types.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub ts_ms: i64,
    pub segment: i64,
    pub detector: i64,
    pub speed: f64,
    pub volume: i64,
}

/// Column positions in [`schema`].
pub const SEGMENT: usize = 1;
pub const DETECTOR: usize = 2;
pub const SPEED: usize = 3;
pub const VOLUME: usize = 4;

impl Row {
    /// The numeric value of column `index` of [`schema`].
    pub fn value(&self, index: usize) -> f64 {
        match index {
            SEGMENT => self.segment as f64,
            DETECTOR => self.detector as f64,
            SPEED => self.speed,
            VOLUME => self.volume as f64,
            _ => panic!("column {index} is not numeric"),
        }
    }
}

/// A test on one numeric column of a reading: a select condition of a
/// workload, evaluated on tuples by the program and on rows by the
/// reference.
pub struct ColumnTest {
    pub label: &'static str,
    pub column: usize,
    pub test: fn(f64) -> bool,
}

impl ColumnTest {
    pub fn on_row(&self, row: &Row) -> bool {
        (self.test)(row.value(self.column))
    }

    pub fn predicate(&self) -> TuplePredicate {
        let (column, test) = (self.column, self.test);
        TuplePredicate::new(self.label, move |t| t.values()[column].numeric().is_some_and(test))
    }
}

/// The reading schema shared by every workload's source.
pub fn schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("detector", DataType::Int),
        ("speed", DataType::Float),
        ("volume", DataType::Int),
    ])
}

/// SplitMix64: small, fast and good enough to spread keys and values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Size and key space of one generated stream.
pub struct Shape {
    /// Stream length in minutes of stream time.
    pub minutes: i64,
    /// Readings per minute, evenly spaced in time.
    pub per_minute: i64,
    pub segments: i64,
    /// Detectors, split into contiguous blocks, one block per segment.
    pub detectors: i64,
}

/// Share of readings with an implausible speed (rejected by quality checks).
const BAD_SHARE: f64 = 0.02;

impl Shape {
    pub fn len(&self) -> usize {
        (self.minutes * self.per_minute) as usize
    }
}

/// Timestamp-ordered readings with uniformly random detectors, so every page
/// of the stream mixes all segments and detectors.
pub fn readings(shape: &Shape, rng: &mut Rng) -> Vec<Row> {
    let mut rows = Vec::with_capacity(shape.len());
    for minute in 0..shape.minutes {
        for j in 0..shape.per_minute {
            let detector = rng.below(shape.detectors as u64) as i64;
            let segment = detector * shape.segments / shape.detectors;
            let typical = 35.0 + 7.0 * segment as f64;
            let speed = if rng.unit() < BAD_SHARE {
                // A stuck or garbled sensor: negative or far too fast.
                if rng.below(2) == 0 {
                    -1.0
                } else {
                    150.0 + 50.0 * rng.unit()
                }
            } else {
                (typical + 30.0 * (rng.unit() - 0.5)).max(0.0)
            };
            rows.push(Row {
                ts_ms: minute * WINDOW_MS + j * WINDOW_MS / shape.per_minute,
                segment,
                detector,
                speed,
                volume: rng.below(40) as i64,
            });
        }
    }
    rows
}

/// The same rows as engine tuples of [`schema`].
pub fn tuples(rows: &[Row], schema: &SchemaRef) -> Vec<Tuple> {
    rows.iter()
        .map(|r| {
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Timestamp(Timestamp::from_millis(r.ts_ms)),
                    Value::Int(r.segment),
                    Value::Int(r.detector),
                    Value::Float(r.speed),
                    Value::Int(r.volume),
                ],
            )
        })
        .collect()
}

/// Start of the tumbling window holding `ts_ms`.
pub fn window_of(ts_ms: i64) -> i64 {
    ts_ms.div_euclid(WINDOW_MS) * WINDOW_MS
}
