//! Reduces one traced repetition to the per-layer metrics.
//!
//! Operator callbacks never nest (the executor routes emissions after a
//! callback returns), so each span is its own self time, charged to the
//! operator kind of the probe that recorded it.  The engine's self time is
//! the executor's thread time (wall time × threads) minus every callback:
//! scheduling, queueing, routing and waiting for work.  Both sides are wall
//! clock, so time a thread loses to preemption lands on the same side.  Fan-outs the manager creates cannot be wrapped, so
//! their busy time comes from the executor's own operator metrics.

use crate::micro::Metric;
use crate::probe::{Callback, Kind};
use crate::workloads::Rep;
use std::collections::BTreeMap;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn per_layer(rep: &Rep, input_rows: usize) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: String, value: f64, unit| out.push((name, value, unit));
    let report = &rep.report;

    // Operator kinds: busy time from spans (or executor metrics for the
    // unwrapped fan-outs), tuples from the executor's counters.
    let mut busy_ns: BTreeMap<Kind, f64> = BTreeMap::new();
    let mut spans_ns = 0.0;
    let mut checkpoint_ns = 0.0;
    let mut feedback_at_source: BTreeMap<u64, u64> = BTreeMap::new();
    for node in &rep.instrument.nodes {
        for span in node.spans.lock().expect("span buffer").iter() {
            let ns = span.ns() as f64;
            *busy_ns.entry(node.kind).or_default() += ns;
            spans_ns += ns;
            if span.callback == Callback::Checkpoint {
                checkpoint_ns += ns;
            }
            if node.kind == Kind::Source && span.callback == Callback::Feedback {
                feedback_at_source.entry(span.feedback_id).or_insert(span.start_ns);
            }
        }
    }
    let mut tuples_in: BTreeMap<Kind, f64> = BTreeMap::new();
    tuples_in.insert(Kind::Source, input_rows as f64);
    let mut unwrapped_ns = 0.0;
    for m in &report.metrics {
        let Some(kind) = Kind::of_operator(&m.operator) else { continue };
        if kind == Kind::SharedFanout {
            let ns = m.busy.as_nanos() as f64;
            *busy_ns.entry(kind).or_default() += ns;
            unwrapped_ns += ns;
        }
        if kind != Kind::Source {
            *tuples_in.entry(kind).or_default() += m.tuples_in as f64;
        }
    }
    for kind in Kind::ALL {
        let busy = busy_ns.get(&kind).copied().unwrap_or(0.0);
        let tuples = tuples_in.get(&kind).copied().unwrap_or(0.0);
        put(format!("operators.{}.busy_s", kind.label()), busy / 1e9, "s");
        put(format!("operators.{}.ns_per_tuple", kind.label()), ratio(busy, tuples), "ns");
    }
    let purged: u64 = report
        .metrics
        .iter()
        .filter(|m| Kind::of_operator(&m.operator) == Some(Kind::WindowAggregate))
        .map(|m| m.feedback.state_purged)
        .sum();
    put("operators.window_aggregate.state_purged".into(), purged as f64, "count");

    // Engine.
    let pages: u64 = report.metrics.iter().map(|m| m.pages_in).sum();
    let engine_ns = (rep.wall_s * rep.threads as f64 * 1e9 - spans_ns - unwrapped_ns).max(0.0);
    let scheduler = report.scheduler.unwrap_or_default();
    put("engine.self_s".into(), engine_ns / 1e9, "s");
    put("engine.pages_moved".into(), pages as f64, "count");
    put("engine.ns_per_hop".into(), ratio(engine_ns, pages as f64), "ns");
    put(
        "engine.max_queue_depth".into(),
        report.metrics.iter().map(|m| m.max_queue_depth).max().unwrap_or(0) as f64,
        "pages",
    );
    put(
        "engine.sched_steps".into(),
        report.metrics.iter().map(|m| m.sched_steps).sum::<u64>() as f64,
        "count",
    );
    put("engine.steals".into(), scheduler.steals as f64, "count");
    put("engine.parks".into(), scheduler.parks as f64, "count");
    put("engine.checkpoints".into(), report.recovery().checkpoints_taken as f64, "count");
    put("engine.checkpoint_s".into(), checkpoint_ns / 1e9, "s");
    put("engine.feedback_dropped".into(), report.total_feedback_dropped() as f64, "count");

    // Core: guard outcomes as the operators report them.  Tuples offered to
    // a guard: every input row at the source, every tuple received
    // elsewhere.
    let mut suppressed = 0u64;
    let mut offered = input_rows as u64;
    let mut conclusive = 0u64;
    let mut fallback = 0u64;
    let mut received = 0u64;
    let mut expired = 0u64;
    for m in &report.metrics {
        let f = &m.feedback;
        suppressed += f.tuples_suppressed;
        if Kind::of_operator(&m.operator).is_some_and(|k| k != Kind::Source && k != Kind::Sink) {
            offered += m.tuples_in;
        }
        conclusive += f.batches_summary_conclusive;
        fallback += f.batches_summary_fallback;
        received += f.received.total();
        expired += f.guards_expired;
    }
    put("core.suppressed_frac".into(), ratio(suppressed as f64, offered as f64), "fraction");
    put(
        "core.batch_conclusive_frac".into(),
        ratio(conclusive as f64, (conclusive + fallback) as f64),
        "fraction",
    );
    put("core.guards_received".into(), received as f64, "count");
    put("core.guards_expired".into(), expired as f64, "count");
    let mut latencies: Vec<f64> = rep
        .issued
        .iter()
        .filter_map(|i| {
            feedback_at_source.get(&i.id).map(|&at| at.saturating_sub(i.at_ns) as f64 / 1e3)
        })
        .collect();
    put("core.feedback_latency_p50_us".into(), crate::stats::percentile(&mut latencies, 0.5), "us");

    // Manager.
    let m = rep.manager;
    put("manager.register_s".into(), m.map_or(0.0, |m| m.register_s), "s");
    put("manager.compile_s".into(), m.map_or(0.0, |m| m.compile_s), "s");
    put("manager.prefix_hit_rate".into(), m.map_or(0.0, |m| m.prefix_hit_rate), "fraction");
    put("manager.master_nodes".into(), m.map_or(0.0, |m| m.master_nodes as f64), "count");
    out
}
