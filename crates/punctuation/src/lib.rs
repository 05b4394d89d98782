//! # dsms-punctuation
//!
//! Embedded punctuation, pattern algebra and punctuation schemes.
//!
//! Punctuation (Tucker et al.) is the substrate the paper's feedback
//! mechanism is built on: a punctuation is a tuple-shaped *pattern* that
//! asserts "no further tuples matching this pattern will appear in the
//! stream".  The out-of-order-processing (OOP) architecture of NiagaraST uses
//! punctuation on timestamp attributes to communicate stream progress, unblock
//! windowed aggregates and purge operator state.
//!
//! This crate provides:
//!
//! * [`PatternItem`] and [`Pattern`] — per-attribute match specifications
//!   (wildcard, equality, ranges, sets) and whole-tuple patterns.
//! * [`Punctuation`] — an *embedded* punctuation: a pattern that flows with
//!   the data stream and describes a completed subset.
//! * [`scheme::PunctuationScheme`] — which attributes of a stream are
//!   *delimited* (covered by embedded punctuation), which bounds the feedback
//!   that is *supportable* without unbounded state (paper Section 4.4).
//!
//! Stream progress is read off a punctuation with
//! [`Punctuation::watermark_for`]; the operators that combine progress across
//! inputs keep their own per-input watermarks.
//!
//! Feedback punctuation itself (assumed `¬`, desired `?`, demanded `!`) lives
//! in the `dsms-feedback` crate and reuses [`Pattern`] for its predicates.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pattern;
pub mod punctuation;
pub mod scheme;

pub use pattern::{CompiledPattern, Pattern, PatternItem, SummaryMatch};
pub use punctuation::{Punctuation, StageDirective};
pub use scheme::PunctuationScheme;
