//! Experiment drivers: Section 6 of the paper, as runnable functions.

use crate::plans::{imputation_plan, speedmap_plan};
use dsms_engine::{EngineResult, PooledExecutor, SyncExecutor};
use dsms_types::{StreamDuration, Timestamp};
use dsms_workloads::{ImputationConfig, TrafficConfig};
use serde::Serialize;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Experiment 1 — imputation plan, Figures 5 and 6
// ---------------------------------------------------------------------------

/// Parameters of Experiment 1.
///
/// The stream is replayed *live*: the source paces tuple release so that
/// stream time advances at `speedup` stream seconds per wall-clock second.
/// The clean path forwards tuples immediately while the dirty path pays the
/// archival-lookup cost per tuple, so when the lookup cost exceeds the dirty
/// inter-arrival time the imputed path falls progressively behind — the
/// divergence of Figure 5.
#[derive(Debug, Clone)]
pub struct Experiment1Config {
    /// The input stream (5 000 alternating clean/dirty tuples in the paper).
    pub stream: ImputationConfig,
    /// Stream seconds per wall-clock second at the source.
    pub speedup: f64,
    /// Per-dirty-tuple archival lookup cost (the expensive part of IMPUTE).
    pub lookup_cost: Duration,
    /// PACE's disorder tolerance, in stream time.
    pub tolerance: StreamDuration,
    /// Minimum advance of the feedback cutoff between consecutive feedback
    /// messages (smaller = tighter feedback loop, more control messages).
    pub feedback_granularity: StreamDuration,
    /// Progress-punctuation period of the source.
    pub punctuation_period: StreamDuration,
    /// Tuples emitted per source step.
    pub source_batch: usize,
    /// Tuples per page on every queue.
    pub page_capacity: usize,
}

impl Experiment1Config {
    /// Paper-shaped configuration: 5 000 tuples whose 200-second span is
    /// replayed at 10× (≈20 s wall-clock per run), with an archival lookup
    /// that is ~1.4× the dirty-tuple inter-arrival time so the imputed path
    /// diverges, and a tolerance small enough that the divergence matters.
    pub fn paper() -> Self {
        Experiment1Config {
            stream: ImputationConfig::experiment1(), // 5 000 tuples, 40 ms apart
            speedup: 10.0,
            // dirty inter-arrival = 80 ms stream = 8 ms wall at 10×
            lookup_cost: Duration::from_millis(11),
            tolerance: StreamDuration::from_secs(4),
            feedback_granularity: StreamDuration::from_secs(1),
            punctuation_period: StreamDuration::from_secs(2),
            source_batch: 32,
            page_capacity: 4,
        }
    }

    /// Scaled-down configuration for tests and CI benches (≈1.2 s per run).
    pub fn small() -> Self {
        Experiment1Config {
            stream: ImputationConfig { tuples: 600, ..ImputationConfig::experiment1() },
            speedup: 20.0,
            // dirty inter-arrival = 80 ms stream = 4 ms wall at 20×
            lookup_cost: Duration::from_micros(6_000),
            tolerance: StreamDuration::from_secs(2),
            feedback_granularity: StreamDuration::from_millis(400),
            punctuation_period: StreamDuration::from_secs(1),
            source_batch: 16,
            page_capacity: 4,
        }
    }
}

/// One output arrival, classified for the Figure 5/6 scatter series.
#[derive(Debug, Clone, Serialize)]
pub struct OutputRecord {
    /// The tuple id assigned by the workload generator.
    pub tuple_id: i64,
    /// Whether this tuple travelled the imputation (dirty) path.
    pub imputed: bool,
    /// Wall-clock output time, seconds since the run started.
    pub output_time_secs: f64,
    /// Stream-time lag behind the output watermark at the moment of arrival.
    pub lag: StreamDuration,
}

/// Result of one Experiment-1 run.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment1Result {
    /// Whether PACE + feedback were enabled.
    pub feedback: bool,
    /// Per-arrival records (the Figure 5/6 series).
    pub series: Vec<OutputRecord>,
    /// Total dirty (imputation-requiring) tuples in the input.
    pub dirty_input: u64,
    /// Imputed tuples that reached the output *within* the tolerance.
    pub timely_imputed: u64,
    /// Fraction of imputed tuples effectively lost (dropped by PACE, skipped
    /// via feedback, or arriving beyond the tolerance).
    pub dropped_fraction: f64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Runs Experiment 1 once.
///
/// Without feedback the plan merges via plain UNION: every tuple reaches the
/// output, and an imputed tuple counts as *lost* when it arrives more than the
/// tolerance behind the stream-time watermark already seen at the sink
/// (Figure 5's "arrived beyond the tolerated divergence").  With feedback the
/// plan merges via PACE: late tuples are dropped at PACE and their production
/// is suppressed upstream via assumed punctuation, so an imputed tuple counts
/// as lost simply when it never reaches the output (Figure 6's "dropped").
pub fn run_experiment1(
    config: &Experiment1Config,
    feedback: bool,
) -> EngineResult<Experiment1Result> {
    let (plan, handles) = imputation_plan(config, feedback)?;
    // One worker per node: the paced source and the archival lookups overlap
    // with the clean branch, as they would with a thread per operator.
    let workers = plan.node_count();
    let report = PooledExecutor::run_with_workers(plan, workers)?;

    let arrivals = handles.output.lock();
    let mut series = Vec::with_capacity(arrivals.len());
    let mut watermark: Option<Timestamp> = None;
    let mut timely_imputed = 0u64;
    for record in arrivals.iter() {
        let tuple_id = record.tuple.int("tuple_id").unwrap_or(-1);
        let ts = record.tuple.timestamp("timestamp").unwrap_or(Timestamp::EPOCH);
        watermark = Some(watermark.map(|w| w.max(ts)).unwrap_or(ts));
        let lag = watermark.expect("just set") - ts;
        // Strict alternation: odd tuple ids required imputation.
        let imputed = tuple_id % 2 == 1;
        if imputed && lag.as_millis() <= config.tolerance.as_millis() {
            timely_imputed += 1;
        }
        series.push(OutputRecord {
            tuple_id,
            imputed,
            output_time_secs: record.arrival.as_secs_f64(),
            lag,
        });
    }
    drop(arrivals);

    let dirty_input = config.stream.tuples / 2;
    let dropped_fraction =
        if dirty_input == 0 { 0.0 } else { 1.0 - timely_imputed as f64 / dirty_input as f64 };
    Ok(Experiment1Result {
        feedback,
        series,
        dirty_input,
        timely_imputed,
        dropped_fraction,
        elapsed: report.elapsed,
    })
}

// ---------------------------------------------------------------------------
// Experiment 2 — speed-map plan, Figure 7
// ---------------------------------------------------------------------------

/// The four optimization schemes of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scheme {
    /// Baseline: no feedback exploitation anywhere.
    F0,
    /// Guard on the output of AVERAGE.
    F1,
    /// F1 plus avoiding aggregation of uninteresting groups.
    F2,
    /// F2 plus propagating the feedback to the quality filter.
    F3,
}

impl Scheme {
    /// All schemes in presentation order.
    pub const ALL: [Scheme; 4] = [Scheme::F0, Scheme::F1, Scheme::F2, Scheme::F3];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::F0 => "F0",
            Scheme::F1 => "F1",
            Scheme::F2 => "F2",
            Scheme::F3 => "F3",
        }
    }
}

/// Parameters of Experiment 2.
#[derive(Debug, Clone)]
pub struct Experiment2Config {
    /// The fixed-sensor stream (18 h × 20 s × 9 segments × 40 detectors in the
    /// paper).
    pub stream: TrafficConfig,
    /// Aggregation window of AVERAGE.
    pub window: StreamDuration,
    /// Number of segments visible after each zoom.
    pub visible_segments: usize,
    /// Per-tuple validation cost in the quality filter.
    pub validation_cost: Duration,
    /// Per-result rendering cost in the display.
    pub render_cost: Duration,
    /// Progress-punctuation period of the source.
    pub punctuation_period: StreamDuration,
    /// Seed of the zoom schedule.
    pub zoom_seed: u64,
    /// Tuples emitted per source step.
    pub source_batch: usize,
    /// Tuples per page on every queue.
    pub page_capacity: usize,
}

impl Experiment2Config {
    /// Paper-scale configuration (≈1 M tuples, 18 hours of stream time).
    pub fn paper() -> Self {
        Experiment2Config {
            stream: TrafficConfig::experiment2(),
            window: StreamDuration::from_secs(60),
            visible_segments: 2,
            validation_cost: Duration::from_micros(2),
            render_cost: Duration::from_micros(800),
            punctuation_period: StreamDuration::from_secs(60),
            zoom_seed: 9,
            source_batch: 256,
            page_capacity: 128,
        }
    }

    /// Scaled-down configuration (≈1 hour of stream time) for tests and CI.
    pub fn small() -> Self {
        Experiment2Config {
            stream: TrafficConfig {
                duration: StreamDuration::from_hours(1),
                detectors_per_segment: 8,
                ..TrafficConfig::default()
            },
            window: StreamDuration::from_secs(60),
            visible_segments: 2,
            validation_cost: Duration::from_micros(2),
            render_cost: Duration::from_micros(800),
            punctuation_period: StreamDuration::from_secs(60),
            zoom_seed: 9,
            source_batch: 256,
            page_capacity: 128,
        }
    }
}

/// One cell of the Figure-7 grid.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment2Cell {
    /// The scheme that produced this measurement.
    pub scheme: Scheme,
    /// Viewport-change (feedback) frequency.
    pub zoom_frequency_minutes: i64,
    /// Total query execution time.
    pub execution_time: Duration,
    /// Number of results actually rendered by the display.
    pub rendered_results: usize,
}

/// Result of a full Experiment-2 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment2Result {
    /// All measured cells (schemes × frequencies).
    pub cells: Vec<Experiment2Cell>,
}

impl Experiment2Result {
    /// The cell for a given scheme and frequency, if measured.
    pub fn cell(&self, scheme: Scheme, minutes: i64) -> Option<&Experiment2Cell> {
        self.cells.iter().find(|c| c.scheme == scheme && c.zoom_frequency_minutes == minutes)
    }

    /// Execution time of a scheme relative to F0 at the same frequency
    /// (1.0 = as slow as the baseline).
    pub fn relative_to_baseline(&self, scheme: Scheme, minutes: i64) -> Option<f64> {
        let base = self.cell(Scheme::F0, minutes)?.execution_time.as_secs_f64();
        let this = self.cell(scheme, minutes)?.execution_time.as_secs_f64();
        if base == 0.0 {
            None
        } else {
            Some(this / base)
        }
    }
}

/// Runs Experiment 2 for every scheme at each of the given zoom frequencies
/// (the paper uses 2, 4 and 6 minutes).
pub fn run_experiment2(
    config: &Experiment2Config,
    frequencies_minutes: &[i64],
) -> EngineResult<Experiment2Result> {
    let mut cells = Vec::new();
    for &minutes in frequencies_minutes {
        for scheme in Scheme::ALL {
            let (plan, handles) =
                speedmap_plan(config, scheme, StreamDuration::from_minutes(minutes))?;
            // Deterministic: the scheme ordering must not depend on how a
            // pool happens to interleave the aggregates.
            let report = SyncExecutor::run(plan)?;
            cells.push(Experiment2Cell {
                scheme,
                zoom_frequency_minutes: minutes,
                execution_time: report.elapsed,
                rendered_results: handles.rendered.lock().len(),
            });
        }
    }
    Ok(Experiment2Result { cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment1_feedback_recovers_timely_imputed_tuples() {
        let config = Experiment1Config::small();
        let baseline = run_experiment1(&config, false).unwrap();
        let with_feedback = run_experiment1(&config, true).unwrap();

        assert_eq!(baseline.dirty_input, 300);
        // Baseline: the imputed path falls hopelessly behind; most imputed
        // tuples arrive beyond the tolerance.
        assert!(
            baseline.dropped_fraction > 0.7,
            "baseline should lose most imputed tuples, lost {:.2}",
            baseline.dropped_fraction
        );
        // Feedback: PACE + assumed punctuation keep the imputed path near the
        // head of the stream, so substantially more imputed tuples are timely.
        assert!(
            with_feedback.dropped_fraction < baseline.dropped_fraction - 0.1,
            "feedback must recover timely tuples (baseline {:.2}, feedback {:.2})",
            baseline.dropped_fraction,
            with_feedback.dropped_fraction
        );
        // Clean tuples always arrive: half the stream plus timely imputed ones.
        assert!(with_feedback.series.len() as u64 >= config.stream.tuples / 2);
    }

    #[test]
    fn experiment2_schemes_order_execution_times() {
        let mut config = Experiment2Config::small();
        // Keep the test fast but the cost structure intact.
        config.stream.duration = StreamDuration::from_minutes(20);
        let result = run_experiment2(&config, &[2]).unwrap();
        assert_eq!(result.cells.len(), 4);
        let f0 = result.cell(Scheme::F0, 2).unwrap().execution_time;
        let f1 = result.cell(Scheme::F1, 2).unwrap().execution_time;
        let f3 = result.cell(Scheme::F3, 2).unwrap().execution_time;
        assert!(f1 < f0, "guarding AVERAGE's output must beat the baseline ({f1:?} vs {f0:?})");
        assert!(f3 < f0, "full propagation must beat the baseline ({f3:?} vs {f0:?})");
        // Fewer results should be rendered under any feedback scheme.
        let rendered_f0 = result.cell(Scheme::F0, 2).unwrap().rendered_results;
        let rendered_f1 = result.cell(Scheme::F1, 2).unwrap().rendered_results;
        assert!(rendered_f1 < rendered_f0);
    }
}
