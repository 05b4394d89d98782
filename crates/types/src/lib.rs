//! # dsms-types
//!
//! Tuple, value, schema and time model for the feedback-punctuation DSMS
//! reproduction ("Inter-Operator Feedback in Data Stream Management Systems
//! via Punctuation", CIDR 2009).
//!
//! The paper's host system, NiagaraST, processes streams of flat relational
//! tuples annotated with timestamps.  This crate provides that substrate:
//!
//! * [`Value`] — a dynamically typed scalar (null, bool, int, float, text,
//!   timestamp) with a *total* order so values can appear in punctuation
//!   predicates and in hash keys.
//! * [`DataType`], [`Field`] and [`Schema`] — stream schemas, shared between
//!   operators via [`SchemaRef`] (an `Arc`).
//! * [`Tuple`] — a schema-tagged row of values.
//! * [`ColumnSummary`] — per-column min/max/null summaries over batches of
//!   tuples, the basis for batch-level punctuation-guard evaluation.
//! * [`Timestamp`] and [`StreamDuration`] — millisecond-resolution stream
//!   (application) time, used both for data timestamps and for window
//!   arithmetic.
//! * [`FixedHasher`] / [`fixed_hash`] — a fixed-seed Fx-style hasher whose
//!   algorithm this crate owns, for reproducibly deterministic routing and
//!   pinned digests (the std `DefaultHasher` guarantees neither).
//!
//! Everything in this crate is engine-agnostic: the punctuation algebra,
//! the feedback framework and the operators are all layered on top of it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod error;
pub mod hash;
pub mod schema;
pub mod time;
pub mod tuple;
pub mod value;

pub use column::ColumnSummary;
pub use error::{TypeError, TypeResult};
pub use hash::{fixed_hash, FixedHasher, FixedState};
pub use schema::{DataType, Field, Schema, SchemaRef};
pub use time::{StreamDuration, Timestamp};
pub use tuple::{Tuple, TupleBuilder};
pub use value::Value;
