//! # dsms-operators
//!
//! The operator library for the feedback-punctuation DSMS reproduction.
//! Every operator implements the engine's [`dsms_engine::Operator`] trait and,
//! where the paper describes it, the feedback roles (producer, exploiter,
//! relayer) with the exact characterizations of `dsms-feedback`.
//!
//! | Operator | Paper role | Feedback behaviour |
//! |---|---|---|
//! | [`source::VecSource`] | stream input | exploits assumed feedback by skipping described tuples at the source; optionally paced in real time |
//! | [`sink::CollectSink`], [`sink::TimedSink`] | query result | optionally issues event-driven feedback |
//! | [`select::Select`] | σ (stateless filter) | adds assumed patterns to its condition; relays |
//! | [`project::Project`] | π | relays feedback through its attribute mapping |
//! | [`duplicate::Duplicate`] | DUPLICATE | exploits only when all outputs assume the same subset |
//! | [`split::Split`] | σC / σ¬C pair | content-based routing for the imputation plan |
//! | [`impute::Impute`] | IMPUTE | *exploits* assumed feedback by purging/skipping late tuples |
//! | [`aggregate::WindowAggregate`] | COUNT/SUM/AVG/MAX/MIN | Table 1 characterization; schemes F1/F2 |
//! | [`join::SymmetricHashJoin`] | JOIN | Table 2 characterization |
//! | [`thrifty_join::ThriftyJoin`] | THRIFTY JOIN | adaptive producer: empty probe windows |
//! | [`impatient_join::ImpatientJoin`] | IMPATIENT JOIN | adaptive producer of desired punctuation |
//! | [`quality_filter::QualityFilter`] | σQ data-quality filter | exploits relayed feedback (scheme F3) |
//! | [`prioritizer::Prioritizer`] | — | exploits desired punctuation by reordering |
//! | [`demand::OnDemandGate`] | Example 4 | answers demanded punctuation / result requests |
//! | [`shuffle::Shuffle`] | data-parallel fan-out | broadcasts punctuation to replicas; lattice-merges replica feedback before relaying |
//! | [`fanout::SharedFanout`] | multi-query fan-out | per-port guard isolation; lattice-merges sharer feedback; attach/detach at punctuation boundaries |
//! | [`merge::Merge`] | UNION; PACE; data-parallel fan-in | emits the minimum of its inputs' watermarks; exploits consumer feedback and broadcasts it to every input; with a disorder bound (PACE) drops late arrivals and *produces* assumed feedback |
//! | [`chaos::Chaos`] | — | deterministic fault-injection wrapper (panic / transient error / stall) for supervised-recovery tests |
//!
//! [`common::Costed`] models expensive (CPU- or I/O-bound) operators for
//! scaling experiments.
//!
//! [`fluent::StreamOps`] extends the engine's fluent [`dsms_engine::Stream`]
//! with combinators that construct these operators from the schema the stream
//! carries — the recommended way to compose plans (`QueryPlan` stays public
//! as the low-level escape hatch the builder lowers into).  Its
//! `partitioned(…)` replicates a stateful operator N ways behind a
//! shuffle/merge pair.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod chaos;
pub mod common;
pub mod demand;
pub mod duplicate;
pub mod elastic;
pub mod fanout;
pub mod fluent;
pub mod impatient_join;
pub mod impute;
pub mod join;
pub mod merge;
#[cfg(test)]
mod partition;
pub mod prioritizer;
pub mod project;
pub mod quality_filter;
pub mod select;
pub mod shuffle;
pub mod sink;
pub mod source;
pub mod split;
pub mod thrifty_join;

pub use aggregate::{AggregateFunction, WindowAggregate};
pub use chaos::{Chaos, FaultSpec};
pub use common::{simulate_cost, Costed, MinWatermark, TuplePredicate};
pub use demand::OnDemandGate;
pub use duplicate::Duplicate;
pub use elastic::{route_values, ElasticController, ElasticPolicy, ElasticReplica};
pub use fanout::{FanoutCommit, FanoutController, FanoutDirective, SharedFanout};
pub use fluent::StreamOps;
pub use impatient_join::ImpatientJoin;
pub use impute::{ArchivalStore, Impute};
pub use join::{JoinSide, SymmetricHashJoin};
pub use merge::Merge;
pub use prioritizer::Prioritizer;
pub use project::Project;
pub use quality_filter::QualityFilter;
pub use select::Select;
pub use shuffle::Shuffle;
pub use sink::{CollectSink, SinkHandle, TimedSink, TimedSinkHandle};
pub use source::VecSource;
pub use split::Split;
pub use thrifty_join::ThriftyJoin;
