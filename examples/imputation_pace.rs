//! The paper's Example 3 / Experiment 1 scenario, end to end: an input stream
//! where dirty readings (missing speeds) alternate with clean ones, a split
//! into a clean path and an expensive IMPUTE path, and PACE bounding the
//! disorder between the two while feeding assumed punctuation back to IMPUTE.
//!
//!     cargo run --release --example imputation_pace
//!
//! Compare the number of timely imputed readings with and without feedback —
//! the runnable miniature of Figures 5 and 6 (the full-scale regeneration is
//! `cargo run --release -p dsms-bench --bin figure5_6`).

use feedback_dsms::prelude::*;
use feedback_dsms::workloads::{ImputationConfig, ImputationGenerator};
use std::time::Duration;

fn run(feedback: bool) -> (usize, usize) {
    let schema = ImputationGenerator::schema();
    let config = ImputationConfig { tuples: 800, ..ImputationConfig::experiment1() };

    let builder = StreamBuilder::new().with_page_capacity(4);
    let readings = builder
        .source_as(
            VecSource::new("sensors", ImputationGenerator::new(config).collect())
                .with_punctuation("timestamp", StreamDuration::from_secs(1))
                .with_batch_size(8)
                .with_pacing(20.0), // 20 stream seconds per wall-clock second
            schema.clone(),
        )
        .unwrap();
    let (dirty, clean) =
        readings.split("split", TuplePredicate::new("needs imputation", |t| t.has_null())).unwrap();
    let imputed = dirty
        .apply_as(
            Impute::new(
                "IMPUTE",
                "speed",
                "detector",
                // one simulated archival lookup per dirty tuple
                ArchivalStore::synthetic(Duration::from_millis(6), 45.0),
            ),
            schema.clone(),
        )
        .unwrap();
    let merged = if feedback {
        imputed
            .combine(clean, Pace::new("PACE", schema, 2, "timestamp", StreamDuration::from_secs(2)))
            .unwrap()
    } else {
        imputed.union(clean, "UNION").unwrap()
    };
    let out = merged.sink_timed("speed-map-feed").unwrap();

    // The paced source sleeps and IMPUTE's archive lookups hold their worker;
    // one pool worker per node lets them overlap with the clean branch, as a
    // thread per operator would.
    let plan = builder.build().unwrap();
    let workers = plan.node_count();
    let _report = PooledExecutor::run_with_workers(plan, workers).expect("execution failed");

    let arrivals = out.lock();
    let mut watermark = Timestamp::MIN;
    let mut timely_imputed = 0;
    let mut total_imputed = 0;
    for record in arrivals.iter() {
        let ts = record.tuple.timestamp("timestamp").unwrap();
        watermark = watermark.max(ts);
        if record.tuple.int("tuple_id").unwrap() % 2 == 1 {
            total_imputed += 1;
            if (watermark - ts).as_millis() <= 2_000 {
                timely_imputed += 1;
            }
        }
    }
    (timely_imputed, total_imputed)
}

fn main() {
    println!("running the imputation plan twice (~2 s each, paced replay)…\n");
    let (timely_base, total_base) = run(false);
    println!(
        "without feedback: {timely_base:>3} of 400 imputed readings were timely ({} reached the output at all)",
        total_base
    );
    let (timely_fb, total_fb) = run(true);
    println!(
        "with PACE+feedback: {timely_fb:>3} of 400 imputed readings were timely ({} reached the output at all)",
        total_fb
    );
    println!(
        "\nPACE noticed the imputed path lagging, told IMPUTE which tuples were already\n\
         useless (assumed punctuation ¬[timestamp < watermark]), and IMPUTE spent its\n\
         expensive archival lookups on readings that still had a chance of being timely."
    );
}
