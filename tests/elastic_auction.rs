//! NEXMark-style integration smoke: the bid/auction workload generator
//! (paper Section 4.4) drives an *adaptive* elastic stage end to end.
//!
//! A [`VecSource`] streams `(timestamp, auction, bidder, amount)` bids
//! in timestamp order with periodic progress punctuation; the stage computes
//! the per-auction windowed MAX bid behind a shuffle keyed on `auction`.  The
//! elastic policy here is [`ElasticPolicy::Adaptive`] — the shuffle samples
//! its own input queue depth at each punctuation boundary instead of
//! following a script — so this exercises the queue depth → decision →
//! migration loop the scripted parity suite bypasses.  The digest must still be
//! byte-identical to a fixed-width run, with no feedback dropped.

use feedback_dsms::prelude::*;
use feedback_dsms::workloads::{AuctionConfig, AuctionGenerator};

const MAX_WIDTH: usize = 4;

fn bids() -> VecSource {
    VecSource::new("bids", AuctionGenerator::new(AuctionConfig::default()).collect())
        .with_punctuation("timestamp", StreamDuration::from_secs(30))
}

fn replica(i: usize) -> WindowAggregate {
    WindowAggregate::new(
        format!("max-bid-{i}"),
        AuctionGenerator::schema(),
        "timestamp",
        StreamDuration::from_secs(120),
        &["auction"],
        AggregateFunction::Max("amount".into()),
    )
    .unwrap()
}

fn digest(tuples: &[Tuple]) -> String {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows.join("\n")
}

fn run_stage(adaptive: bool, pooled: bool) -> (ExecutionReport, String) {
    let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
    let out_schema = replica(0).output_schema().clone();
    let shuffle =
        Shuffle::new("shuffle", AuctionGenerator::schema(), &["auction"], MAX_WIDTH).unwrap();
    let merge = Merge::new("merge", out_schema, MAX_WIDTH);
    let source = builder.source_as(bids(), AuctionGenerator::schema()).unwrap();
    let staged = if adaptive {
        // Any backlog at a punctuation boundary spreads the stage to full
        // width; an idle boundary folds it back to one replica.
        let policy =
            ElasticPolicy::Adaptive { high: 1, low: 0, spike_width: MAX_WIDTH, idle_width: 1 };
        source.elastic_stage(shuffle, merge, 1, policy, replica).unwrap()
    } else {
        source.partitioned_stage(shuffle, merge, replica).unwrap()
    };
    let results = staged.sink_collect("sink").unwrap();
    let plan = builder.build().unwrap();
    let report = if pooled {
        // One worker per node, so backlog at a boundary comes from real
        // overlap between the operators rather than a fixed step order.
        let workers = plan.node_count();
        PooledExecutor::run_with_workers(plan, workers).unwrap()
    } else {
        SyncExecutor::run(plan).unwrap()
    };
    let collected = results.lock().clone();
    (report, digest(&collected))
}

#[test]
fn adaptive_elastic_stage_runs_the_auction_workload_unchanged() {
    let (fixed_report, expected) = run_stage(false, false);
    assert!(!expected.is_empty());
    assert_eq!(fixed_report.operator("shuffle").unwrap().tuples_in, 600, "20 auctions × 30 bids");

    for pooled in [false, true] {
        let (report, got) = run_stage(true, pooled);
        assert_eq!(got, expected, "pooled={pooled}: adaptive resizing must be invisible");
        assert_eq!(report.total_feedback_dropped(), 0, "pooled={pooled}");
        let stats = report.operator("shuffle").unwrap().elastic.clone().unwrap();
        assert_eq!(stats.resizes, stats.epochs.len() as u64, "pooled={pooled}: {stats:?}");
        assert_eq!(stats.cancelled, 0, "pooled={pooled}: no decision is lost at flush: {stats:?}");
        if !pooled {
            // Under queue_capacity = 1 the deterministic sync schedule always
            // finds backlog at some boundary: the stage must actually move.
            assert!(stats.resizes >= 1, "adaptive policy never fired: {stats:?}");
        }
    }
}
