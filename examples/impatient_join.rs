//! Desired punctuation in action: IMPATIENT JOIN plus a PRIORITIZER.
//!
//! Probe vehicles are scarce compared to fixed sensors, so when the join holds
//! vehicle data for a segment it asks the sensor side to deliver matching
//! readings *first* (`?[segment ∈ {…}]`).  A prioritizer on the sensor path
//! exploits the desired punctuation by reordering its buffer; the overall
//! result is unchanged, only its production order.
//!
//!     cargo run --example impatient_join

use feedback_dsms::prelude::*;

fn vehicle_schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("speed", DataType::Float),
    ])
}

fn sensor_schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("volume", DataType::Float),
    ])
}

fn main() {
    // A handful of vehicle readings concentrated on segments 2 and 5.
    let vehicles: Vec<Tuple> = (0..40)
        .map(|i| {
            Tuple::new(
                vehicle_schema(),
                vec![
                    Value::Timestamp(Timestamp::from_secs(i)),
                    Value::Int(if i % 2 == 0 { 2 } else { 5 }),
                    Value::Float(48.0),
                ],
            )
        })
        .collect();
    // Sensor readings round-robin over all 9 segments.
    let sensors: Vec<Tuple> = (0..360)
        .map(|i| {
            Tuple::new(
                sensor_schema(),
                vec![
                    Value::Timestamp(Timestamp::from_secs(i / 9)),
                    Value::Int(i % 9),
                    Value::Float(100.0 + i as f64),
                ],
            )
        })
        .collect();

    let builder = StreamBuilder::new().with_page_capacity(16);
    let vehicle_stream = builder
        .source(
            VecSource::new("vehicles", vehicles)
                .with_punctuation("timestamp", StreamDuration::from_secs(10)),
        )
        .unwrap();
    // The prioritizer sits on the sensor path and honours desired punctuation.
    let sensor_stream = builder
        .source(
            VecSource::new("sensors", sensors)
                .with_punctuation("timestamp", StreamDuration::from_secs(10)),
        )
        .unwrap()
        .apply(Prioritizer::new("prioritizer", sensor_schema(), 64))
        .unwrap();

    let inner = SymmetricHashJoin::new(
        "JOIN",
        vehicle_schema(),
        sensor_schema(),
        &["segment"],
        "timestamp",
        StreamDuration::from_secs(60),
    )
    .expect("valid join");
    let impatient =
        ImpatientJoin::new("IMPATIENT-JOIN", inner, sensor_schema(), "segment").with_batch(2);
    let results =
        vehicle_stream.combine(sensor_stream, impatient).unwrap().sink_collect("results").unwrap();

    let report = PooledExecutor::run(builder.build().unwrap()).expect("execution failed");

    let results = results.lock();
    println!("join results produced ............ {}", results.len());
    let prioritizer_metrics = report.operator("prioritizer").unwrap();
    let join_metrics = report.operator("IMPATIENT-JOIN").unwrap();
    println!(
        "desired punctuations issued ...... {}",
        join_metrics.feedback.issued.desired.max(join_metrics.feedback_out)
    );
    println!("prioritizer received feedback .... {}", prioritizer_metrics.feedback_in);
    println!(
        "sensor readings fast-tracked ..... {}",
        prioritizer_metrics.feedback.tuples_prioritized
    );
    println!(
        "\nThe join asked for segments 2 and 5 first; the prioritizer released matching\n\
         sensor readings ahead of the rest, so joined results appear sooner — without\n\
         changing which results are produced."
    );
}
