//! # dsms-feedback
//!
//! The paper's primary contribution: **feedback punctuation** — punctuation
//! that flows *against* the stream direction, carrying a predicate (which
//! subset of tuples the feedback describes) and an *intent* (what the issuer
//! wants done about that subset).
//!
//! | Intent | Notation | Meaning |
//! |---|---|---|
//! | [`FeedbackIntent::Assumed`]  | `¬[p]` | the issuer will proceed as if the subset will never arrive; antecedents may avoid producing it |
//! | [`FeedbackIntent::Desired`]  | `?[p]` | the issuer wants the subset as soon as possible; antecedents may prioritize it |
//! | [`FeedbackIntent::Demanded`] | `![p]` | the issuer needs the subset *now*, accepting partial/approximate results |
//!
//! The crate is organized around the concepts of Sections 3 and 4 of the paper:
//!
//! * [`intent`] — [`FeedbackIntent`] and [`FeedbackPunctuation`] themselves.
//! * [`roles`] — [`FeedbackRoles`], the producer / exploiter / relayer roles
//!   an operator declares it plays.
//! * [`correctness`] — Definition 1 (*correct exploitation*) and Definition 2
//!   (*safe propagation*) as executable checks over recorded streams, used by
//!   tests and by a debug validation mode.
//! * [`mapping`] — output→input schema mappings and the safe-propagation
//!   rewrite of feedback patterns (including the cases where no safe
//!   propagation exists).
//! * [`characterization`] — the action menu (guard input, guard output, purge
//!   state, propagate) and per-operator characterizations reproducing Table 1
//!   (COUNT) and Table 2 (JOIN) plus the MAX / SUM / AVG / SELECT discussion.
//! * [`registry`] — per-operator bookkeeping of active feedback (guards),
//!   including expiration driven by embedded punctuation on delimited
//!   attributes (Section 4.4).
//! * [`merge`] — [`FeedbackMerge`], the cross-partition lattice combinator:
//!   when an operator is replicated N ways behind a hash partitioner, a
//!   feedback punctuation crosses the partition point toward the source only
//!   once **every** replica has asserted it (with a threshold meet for
//!   disorder-bound cutoffs).
//! * [`policy`] — the feedback sources of Section 3.3 that are policies:
//!   explicit (declared, such as PACE's disorder bound) and event-driven
//!   (external events such as a user zooming a speed map).  The third,
//!   adaptive, lives in the operators that discover opportunities from their
//!   own state (THRIFTY JOIN, IMPATIENT JOIN).
//! * [`stats`] — counters describing how much work feedback saved.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod characterization;
pub mod correctness;
pub mod error;
pub mod intent;
pub mod mapping;
pub mod merge;
pub mod policy;
pub mod registry;
pub mod roles;
pub mod spec;
pub mod stats;

pub use characterization::{
    characterize_aggregate, characterize_duplicate, characterize_join, characterize_select,
    AggregateSpec, Characterization, ExploitAction, JoinSpec, Monotonicity, PropagationRule,
};
pub use correctness::{
    check_correct_exploitation, check_safe_propagation, subset, ExploitationReport,
};
pub use error::{FeedbackError, FeedbackResult};
pub use intent::{FeedbackIntent, FeedbackPunctuation};
pub use mapping::{AttributeMapping, PropagationOutcome};
pub use merge::FeedbackMerge;
pub use policy::{EventDrivenPolicy, ExplicitPolicy};
pub use registry::{BatchGuardDecision, FeedbackRegistry, GuardDecision};
pub use roles::FeedbackRoles;
pub use spec::{FeedbackSpec, FeedbackTrigger};
pub use stats::FeedbackStats;
