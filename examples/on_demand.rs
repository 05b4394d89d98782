//! On-demand result production (paper Example 4) and demanded punctuation.
//!
//! A financial speculator watches windowed average exchange rates but only
//! wants results when she asks for them — and when her margin of action is
//! about to close she needs whatever partial answer exists *right now*
//! (demanded punctuation `![pair = …]`).
//!
//!     cargo run --example on_demand

use feedback_dsms::prelude::*;
use feedback_dsms::workloads::{FinancialConfig, FinancialGenerator};

fn main() {
    let tick_schema = FinancialGenerator::schema();
    let config = FinancialConfig::default();

    let builder = StreamBuilder::new().with_page_capacity(32);
    // One-minute average rate per currency pair, held back by a gate until
    // the client asks.
    let gated = builder
        .source_as(
            VecSource::new("ticks", FinancialGenerator::new(config).collect())
                .with_punctuation("timestamp", StreamDuration::from_secs(30)),
            tick_schema,
        )
        .unwrap()
        .window_avg("AVG-RATE", "timestamp", StreamDuration::from_secs(60), &["pair"], "rate")
        .unwrap();
    let avg_schema = gated.schema().clone();
    let gated = gated.apply(OnDemandGate::new("GATE", avg_schema.clone(), 1_000)).unwrap();

    // The client's margin of action, declared at composition time: asking
    // for everything after 5 arrivals would be too late — instead it demands
    // the EUR/USD subset after 2 arrivals (`![pair = EUR/USD]`), then polls
    // for the rest at the end.  The subscription would be rejected here if
    // the gate declared no feedback port.
    let demand_eur_usd = FeedbackSpec::demanded(
        Pattern::for_attributes(
            avg_schema,
            &[("pair", PatternItem::Eq(Value::Text("EUR/USD".into())))],
        )
        .expect("pair attribute exists"),
    )
    .after_tuples(2);
    let received = gated
        .with_feedback(demand_eur_usd)
        .expect("the gate declares a feedback port")
        .sink_timed("speculator")
        .unwrap();

    let report = PooledExecutor::run(builder.build().unwrap()).expect("execution failed");

    let received = received.lock();
    let eur_usd: Vec<&TimedArrival> = received
        .iter()
        .filter(|r| r.tuple.value_by_name("pair").unwrap() == &Value::Text("EUR/USD".into()))
        .collect();
    println!("windowed averages delivered ....... {}", received.len());
    println!("EUR/USD partials delivered ........ {}", eur_usd.len());
    let gate_metrics = report.operator("GATE").unwrap();
    let avg_metrics = report.operator("AVG-RATE").unwrap();
    println!("demanded punctuations relayed ..... {}", gate_metrics.feedback_out);
    println!("partial results from the gate ..... {}", gate_metrics.feedback.partial_results);
    println!("partial results from AVG-RATE ..... {}", avg_metrics.feedback.partial_results);
    println!(
        "\nThe demanded punctuation released the EUR/USD subset immediately — a partial\n\
         answer inside the speculator's margin of action — while everything else stayed\n\
         buffered until the query drained."
    );
}

use feedback_dsms::operators::sink::TimedArrival;
