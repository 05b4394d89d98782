//! The motivating speed-map query of Figure 1: fixed-sensor readings are
//! outer-joined with aggregated probe-vehicle readings so that congested
//! segments (sensor speed < 45 mph) get the extra probe information, and the
//! join sends assumed feedback upstream so the probe path stops cleaning and
//! aggregating readings for uncongested segments.
//!
//!     cargo run --example traffic_speedmap

use feedback_dsms::prelude::*;
use feedback_dsms::workloads::{ProbeConfig, ProbeGenerator, TrafficConfig, TrafficGenerator};
use std::time::Duration;

fn main() {
    // Sensor stream: 9 segments, 20-second reports, 30 minutes.
    let sensor_config = TrafficConfig {
        duration: StreamDuration::from_minutes(30),
        detectors_per_segment: 4,
        ..TrafficConfig::default()
    };
    let sensor_schema = TrafficGenerator::schema();

    // Probe stream: a handful of vehicles reporting every 5 seconds.
    let probe_config = ProbeConfig {
        duration: StreamDuration::from_minutes(30),
        vehicles: 12,
        ..ProbeConfig::default()
    };
    let probe_schema = ProbeGenerator::schema();

    let builder = StreamBuilder::new().with_page_capacity(64);

    // The sensor side aggregates per (segment, 1-minute window).
    let sensor_avg = builder
        .source_as(
            VecSource::new("fixed-sensors", TrafficGenerator::new(sensor_config).collect())
                .with_punctuation("timestamp", StreamDuration::from_secs(60)),
            sensor_schema,
        )
        .unwrap()
        .window_avg("SENSOR-AVG", "timestamp", StreamDuration::from_secs(60), &["segment"], "speed")
        .unwrap();

    // The probe side: CLEAN drops implausible readings (GPS glitches) at a
    // small per-tuple validation cost, then AGGREGATE averages per segment
    // and minute so both join inputs share the (window, segment) key.
    let probe_avg = builder
        .source_as(
            VecSource::new("probe-vehicles", ProbeGenerator::new(probe_config).collect())
                .with_punctuation("timestamp", StreamDuration::from_secs(60)),
            probe_schema.clone(),
        )
        .unwrap()
        .apply(QualityFilter::new(
            "CLEAN",
            probe_schema,
            TuplePredicate::new("speed <= 120", |t| t.float("speed").unwrap_or(999.0) <= 120.0),
            Duration::from_micros(2),
        ))
        .unwrap()
        .window_avg("AGGREGATE", "timestamp", StreamDuration::from_secs(60), &["segment"], "speed")
        .unwrap();

    // Outer join on (window, segment): every sensor average appears; probe
    // averages attach where available.  The builder checks both input
    // schemas against the join's declaration when the edges are drawn.
    let join = SymmetricHashJoin::new(
        "SPEEDMAP-JOIN",
        sensor_avg.schema().clone(),
        probe_avg.schema().clone(),
        &["segment"],
        "window",
        StreamDuration::from_secs(60),
    )
    .expect("valid join")
    .left_outer();
    let join_schema = join.output_schema().clone();
    let results = sensor_avg.combine(probe_avg, join).unwrap().sink_collect("speed-map").unwrap();

    let report = PooledExecutor::run(builder.build().unwrap()).expect("execution failed");

    let results = results.lock();
    let with_probe =
        results.iter().filter(|t| !t.value_by_name("right_avg").unwrap().is_null()).count();
    println!("speed-map rows produced ........ {}", results.len());
    println!("rows enriched with probe data .. {with_probe}");
    println!("join output schema ............. {}", join_schema.describe());
    for name in
        ["fixed-sensors", "probe-vehicles", "CLEAN", "AGGREGATE", "SENSOR-AVG", "SPEEDMAP-JOIN"]
    {
        if let Some(m) = report.operator(name) {
            println!(
                "operator {:<14} in={:<6} out={:<6} punctuation_in={:<4} feedback_in={}",
                m.operator, m.tuples_in, m.tuples_out, m.punctuations_in, m.feedback_in
            );
        }
    }
}
