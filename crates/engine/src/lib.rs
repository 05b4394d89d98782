//! # dsms-engine
//!
//! The push-based stream-engine substrate modelled on NiagaraST's query
//! execution architecture (paper Section 5):
//!
//! * operators connected by **inter-operator queues of columnar pages** —
//!   batching limits context switching; a page separates a row lane of
//!   zero-copy tuple handles from a punctuation lane and serves per-column
//!   min/max/null summaries for batch-level guard evaluation; it is flushed
//!   when it is full *or* when a punctuation is written to it ([`page`],
//!   [`queue`], and `docs/DATA_LAYOUT.md` for the layout contract);
//! * an out-of-band **control channel** per connection carrying high-priority
//!   messages in both directions — shutdown and end-of-stream downstream,
//!   feedback punctuation and shutdown upstream ([`control`]);
//! * a per-operator [`operator::Operator`] trait with explicit callbacks for
//!   tuples, embedded punctuation, feedback punctuation and end-of-stream;
//! * a [`plan::QueryPlan`] IR describing the operator graph, plus the fluent
//!   schema-checked [`builder::StreamBuilder`] / [`builder::Stream`] layer
//!   that lowers into it (with first-class feedback subscriptions); and
//! * two executors sharing one operator lifecycle (the `lifecycle` module's
//!   active → flush → drain → release machine, whose sink→source drain
//!   protocol delivers even flush-time feedback before an operator
//!   finishes): [`pooled::PooledExecutor`] runs the whole plan on a fixed
//!   worker pool with per-worker run queues and work stealing, scheduling
//!   operators as tasks woken by queue readiness events, so plans far wider
//!   than the machine still run without a thread per operator — and, sized
//!   to one worker per node, NiagaraST's thread-per-operator overlap of
//!   blocking operators; and [`executor::SyncExecutor`] runs the same plans
//!   deterministically on a single thread for reproducible tests.
//!
//! The engine knows nothing about specific operators; those live in
//! `dsms-operators`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod control;
pub mod error;
pub mod executor;
mod lifecycle;
pub mod metrics;
pub mod operator;
pub mod page;
pub mod plan;
pub mod pooled;
pub mod queue;

pub use builder::{Stream, StreamBuilder};
pub use control::ControlMessage;
pub use error::{EngineError, EngineResult};
pub use executor::{ExecutionReport, SyncExecutor};
pub use metrics::{ElasticStats, OperatorMetrics, RecoverySummary, SchedulerSummary};
pub use operator::{
    replay_page, Emission, Operator, OperatorContext, SourceState, StateEntry, StreamItem, Wrapper,
};
pub use page::{ColumnarPage, Page, PageBuilder, PageIter};
pub use plan::{Edge, NodeId, PlanNode, PlanParts, QueryPlan, RecoveryPolicy};
pub use pooled::PooledExecutor;
pub use queue::DataQueue;
