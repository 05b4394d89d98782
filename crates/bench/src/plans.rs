//! Builders for the two query plans of Figure 4, composed with the fluent
//! [`StreamBuilder`] API (the raw `QueryPlan` IR stays available as the
//! low-level escape hatch; see `dsms_engine::builder`).
//!
//! * [`imputation_plan`] — Figure 4(a): a stream of sensor readings is split
//!   into a clean path and a dirty path; the dirty path goes through the
//!   expensive IMPUTE operator; PACE (or a plain UNION for the baseline)
//!   merges both paths under a disorder bound.
//! * [`speedmap_plan`] — Figure 4(b): a data-quality filter feeds a windowed
//!   AVERAGE per segment whose results drive the speed-map display; the
//!   display issues event-driven viewport feedback exploited under schemes
//!   F0–F3.
//! * [`partition_scaling_plan`] — the data-parallel scaling experiment: the
//!   per-detector windowed average, its per-tuple cost modelling a blocking
//!   archive lookup, replicated N ways behind a shuffle/merge pair.

use crate::display::{DisplayHandle, SpeedMapDisplay};
use crate::experiments::{Experiment1Config, Experiment2Config, Scheme};
use dsms_engine::{EngineResult, QueryPlan, StreamBuilder};
use dsms_feedback::FeedbackSpec;
use dsms_operators::aggregate::FeedbackMode;
use dsms_operators::WindowAggregate;
use dsms_operators::{
    AggregateFunction, ArchivalStore, Costed, Impute, Merge, Pace, QualityFilter, Shuffle,
    StreamOps, TimedSink, TimedSinkHandle, TuplePredicate, VecSource,
};
use dsms_punctuation::{Pattern, PatternItem};
use dsms_types::{StreamDuration, Tuple, Value};
use dsms_workloads::{ImputationGenerator, TrafficGenerator, ZoomSchedule};
use std::time::Duration;

/// Handles needed to evaluate Experiment 1 after the plan has run.
pub struct ImputationPlanHandles {
    /// Arrival-timed output of the merge operator.
    pub output: TimedSinkHandle,
}

/// Builds the imputation plan (Figure 4a).
///
/// With `feedback` set, the merge operator is PACE (drops late tuples and
/// issues assumed feedback that IMPUTE and the split exploit); without it, the
/// merge is a plain UNION and nothing is dropped or fed back — the Figure 5
/// baseline.
pub fn imputation_plan(
    config: &Experiment1Config,
    feedback: bool,
) -> EngineResult<(QueryPlan, ImputationPlanHandles)> {
    let schema = ImputationGenerator::schema();
    let builder = StreamBuilder::new().with_page_capacity(config.page_capacity);

    let generator = ImputationGenerator::new(config.stream.clone());
    let readings = builder.source_as(
        VecSource::new("sensor-source", generator.collect())
            .with_punctuation("timestamp", config.punctuation_period)
            .with_batch_size(config.source_batch)
            .with_pacing(config.speedup),
        schema.clone(),
    )?;

    let (dirty, clean) = readings
        .split("split-dirty-clean", TuplePredicate::new("speed is null", |t| t.has_null()))?;
    let imputed = dirty.apply_as(
        Impute::new(
            "IMPUTE",
            "speed",
            "detector",
            ArchivalStore::synthetic(config.lookup_cost, 45.0),
        ),
        schema.clone(),
    )?;

    let merged = if feedback {
        imputed.combine(
            clean,
            Pace::new("PACE", schema, 2, "timestamp", config.tolerance)
                .with_feedback_granularity(config.feedback_granularity),
        )?
    } else {
        imputed.union(clean, "UNION")?
    };

    let (sink, output) = TimedSink::new("speed-map-feed");
    merged.sink(sink.with_watermark("timestamp"))?;
    Ok((builder.build()?, ImputationPlanHandles { output }))
}

/// Handles needed to evaluate Experiment 2 after the plan has run.
pub struct SpeedmapPlanHandles {
    /// Results actually rendered by the display.
    pub rendered: DisplayHandle,
}

/// Builds the speed-map plan (Figure 4b) wired for one of the schemes F0–F3
/// and one feedback frequency.
pub fn speedmap_plan(
    config: &Experiment2Config,
    scheme: Scheme,
    zoom_frequency: StreamDuration,
) -> EngineResult<(QueryPlan, SpeedmapPlanHandles)> {
    let schema = TrafficGenerator::schema();
    let builder = StreamBuilder::new().with_page_capacity(config.page_capacity);

    let generator = TrafficGenerator::new(config.stream.clone());
    let segments = config.stream.segments;
    let duration = config.stream.duration;
    let readings = builder.source_as(
        VecSource::new("detector-source", generator.collect())
            .with_punctuation("timestamp", config.punctuation_period)
            .with_batch_size(config.source_batch),
        schema.clone(),
    )?;

    // σQ — the data-quality filter at the bottom of the plan.  It exploits
    // (relayed) feedback only under scheme F3.
    let mut quality = QualityFilter::new(
        "QUALITY",
        schema.clone(),
        TuplePredicate::new("plausible speed", |t| {
            t.value_by_name("speed").map(|v| !v.is_null()).unwrap_or(false)
                && t.float("speed").map(|s| (0.0..=120.0).contains(&s)).unwrap_or(false)
        }),
        config.validation_cost,
    )
    .without_relay();
    if scheme != Scheme::F3 {
        quality = quality.without_feedback();
    }

    // AVERAGE per (window, segment).
    let feedback_mode = match scheme {
        Scheme::F0 => FeedbackMode::Ignore,
        Scheme::F1 => FeedbackMode::GuardOutput,
        Scheme::F2 => FeedbackMode::Exploit,
        Scheme::F3 => FeedbackMode::ExploitAndPropagate,
    };
    let average = WindowAggregate::new(
        "AVERAGE",
        schema,
        "timestamp",
        config.window,
        &["segment"],
        AggregateFunction::Avg("speed".into()),
    )
    .map_err(dsms_engine::EngineError::from)?
    .with_feedback_mode(feedback_mode);
    let average_schema = average.output_schema().clone();

    // The display: renders results and issues viewport feedback on zoom.
    let schedule = ZoomSchedule::new(
        segments,
        config.visible_segments,
        zoom_frequency,
        duration,
        config.zoom_seed,
    );
    let (display, rendered) = SpeedMapDisplay::new(
        "MAP",
        average_schema,
        "window",
        "segment",
        0..segments,
        schedule,
        config.render_cost,
        true,
    );

    readings.apply(quality)?.apply(average)?.sink(display)?;
    Ok((builder.build()?, SpeedmapPlanHandles { rendered }))
}

/// Handles needed to evaluate a partition-scaling run after the plan has run.
pub struct PartitionScalingHandles {
    /// Arrival-timed sink output (the merged aggregate results).
    pub output: TimedSinkHandle,
}

/// The per-detector windowed average replicated by the partition-scaling
/// experiment: AVG(speed) per (1-minute window, detector).
fn scaling_aggregate(name: String) -> WindowAggregate {
    WindowAggregate::new(
        name,
        TrafficGenerator::schema(),
        "timestamp",
        StreamDuration::from_minutes(1),
        &["detector"],
        AggregateFunction::Avg("speed".into()),
    )
    .expect("valid aggregate spec")
}

/// [`scaling_aggregate`] with each input tuple charged `lookup_cost` of
/// *blocking* time — the archival-lookup model of Experiment 1, and the
/// reason replicas scale even on a single core (blocked replicas overlap
/// their waits).
fn scaling_stage(name: String, lookup_cost: Duration) -> Costed<WindowAggregate> {
    Costed::blocking_io(scaling_aggregate(name), lookup_cost)
}

/// Builds the partition-scaling plan over a pre-materialized traffic stream:
///
/// ```text
/// source ─ shuffle(detector) ─ AVG×N ─ merge ─ sink      (partitions ≥ 2)
/// source ─ AVG ─ sink                                    (partitions = 1)
/// ```
///
/// The sink subscribes one (never-matching) assumed feedback mid-stream —
/// declared at composition time via [`FeedbackSpec`] — so every run also
/// exercises the merge→replica broadcast path under load without perturbing
/// the output.  The single-replica and partitioned plans produce the same
/// output multiset: the stage is grouped by `detector`, which is also the
/// shuffle key.
pub fn partition_scaling_plan(
    tuples: Vec<Tuple>,
    partitions: usize,
    lookup_cost: Duration,
) -> EngineResult<(QueryPlan, PartitionScalingHandles)> {
    let schema = TrafficGenerator::schema();
    let builder = StreamBuilder::new().with_page_capacity(32).with_queue_capacity(8);
    let readings = builder.source_as(
        VecSource::new("traffic-source", tuples)
            .with_punctuation("timestamp", StreamDuration::from_secs(60))
            .with_batch_size(64),
        schema.clone(),
    )?;

    let output_schema = scaling_aggregate("probe".into()).output_schema().clone();
    let harmless = FeedbackSpec::assumed(
        Pattern::for_attributes(
            output_schema.clone(),
            &[("detector", PatternItem::Ge(Value::Int(i64::MAX / 2)))],
        )
        .map_err(dsms_engine::EngineError::from)?,
    )
    .after_tuples(64);

    let aggregated = if partitions <= 1 {
        readings.apply(scaling_stage("AVG".into(), lookup_cost))?
    } else {
        let shuffle = Shuffle::new("scale-shuffle", schema, &["detector"], partitions)?;
        let merge = Merge::new("scale-merge", output_schema, partitions);
        readings
            .partitioned_stage(shuffle, merge, |i| scaling_stage(format!("AVG-{i}"), lookup_cost))?
    };

    let (sink, output) = TimedSink::new("scale-sink");
    aggregated.with_feedback(harmless)?.sink(sink)?;
    Ok((builder.build()?, PartitionScalingHandles { output }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Experiment1Config, Experiment2Config};

    #[test]
    fn imputation_plans_validate() {
        let config = Experiment1Config::small();
        for feedback in [false, true] {
            let (plan, _handles) = imputation_plan(&config, feedback).unwrap();
            plan.validate().unwrap();
            assert_eq!(plan.node_count(), 5);
        }
    }

    #[test]
    fn speedmap_plans_validate_for_every_scheme() {
        let config = Experiment2Config::small();
        for scheme in [Scheme::F0, Scheme::F1, Scheme::F2, Scheme::F3] {
            let (plan, _handles) =
                speedmap_plan(&config, scheme, StreamDuration::from_minutes(2)).unwrap();
            plan.validate().unwrap();
            assert_eq!(plan.node_count(), 4);
        }
    }
}
