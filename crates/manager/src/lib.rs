//! # dsms-manager
//!
//! Multi-query execution for the feedback-punctuation DSMS: a
//! [`PipelineManager`] runs many standing queries against a shared set of
//! named long-lived sources, running each distinct plan prefix operator once
//! while keeping each query's feedback strictly isolated from its siblings.
//!
//! A DSMS serving many standing queries cannot afford one source scan per
//! query: monitoring deployments routinely register dozens of variations of
//! "the traffic feed, filtered a bit differently".  The manager therefore
//!
//! * lets queries reference manager-owned sources by name through
//!   [`SourceRef`] placeholders instead of instantiating their own;
//! * recognizes common prefixes across independently built plans via
//!   [`dsms_engine::Operator::fingerprint`] — selects, projects and window
//!   aggregates, stateful operators included — and splices them as a prefix
//!   trie, so each distinct prefix operator executes **once** and
//!   [`dsms_operators::SharedFanout`]s split the stream only where queries
//!   diverge (zero-copy page forwarding — sharing a page is a refcount
//!   bump, never a tuple copy);
//! * keeps feedback per query: each fan-out port has its own scoped guard
//!   registry, so one query's assumed/desired punctuations act on its branch
//!   alone, and source-bound feedback crosses the fan-out only when the
//!   [`dsms_feedback::FeedbackMerge`] lattice proves every active sharer
//!   agrees — so a shared aggregate purges state only for patterns every
//!   sharer assumes;
//! * attaches and detaches queries **mid-stream** at punctuation boundaries
//!   (the same consistent cut the elastic Migrate/Ack/Commit handshake
//!   uses), so a late-registered query starts from a punctuation-delimited
//!   suffix of the stream and a stopped query leaves its siblings' output
//!   byte-identical; and
//! * reports per-query [`dsms_engine::ExecutionReport`]s plus a
//!   [`ManagerSummary`] (lifecycle counts, shared-prefix hit rate, per-query
//!   feedback statistics).
//!
//! `docs/PIPELINES.md` documents the lifecycle state machine, the
//! prefix-deduplication rules and the attach/detach cut in full.
//!
//! ```
//! use dsms_manager::{ExecutorKind, PipelineManager};
//! use dsms_engine::StreamBuilder;
//! use dsms_operators::{StreamOps, TuplePredicate, VecSource};
//! use dsms_types::{DataType, Schema, Timestamp, Tuple, Value};
//!
//! let schema = Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)]);
//! let tuples: Vec<Tuple> = (0..8)
//!     .map(|v| Tuple::new(schema.clone(), vec![
//!         Value::Timestamp(Timestamp::from_secs(v)), Value::Int(v),
//!     ]))
//!     .collect();
//!
//! let mut manager = PipelineManager::new();
//! manager.add_source("feed", VecSource::new("feed", tuples))?;
//!
//! // Two queries over the same named source, with the same filter prefix:
//! // the manager runs source and filter once and fans out.  Had both gone
//! // on to the same window aggregate, that would run once too.
//! for query in ["evens-a", "evens-b"] {
//!     let builder = StreamBuilder::new();
//!     let evens = TuplePredicate::new("v is even", |t| {
//!         t.int("v").map(|v| v % 2 == 0).unwrap_or(false)
//!     });
//!     builder
//!         .source(manager.source_ref("feed")?)?
//!         .select("evens", evens)?
//!         .sink_collect("sink")?;
//!     manager.register(query, builder.build()?)?;
//! }
//!
//! let outcome = manager.run(ExecutorKind::Sync)?;
//! assert_eq!(outcome.summary.queries_active, 2);
//! assert!(outcome.summary.shared_prefix_hits > 0);
//! # Ok::<(), dsms_engine::EngineError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod source_ref;

pub use manager::{
    ExecutorKind, ManagerOutcome, ManagerSummary, PipelineManager, QueryReport, QueryState,
};
pub use source_ref::SourceRef;
