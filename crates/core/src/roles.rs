//! The three roles an operator may play in the feedback architecture
//! (paper Section 1: "producers, exploiters, and relayers of feedback").
//!
//! [`FeedbackRoles`] is the declaration; the behaviour behind it is the
//! engine's `Operator::on_feedback` callback (exploit, relay) plus whatever
//! feedback an operator issues from its data callbacks (produce).  An
//! operator may declare any subset of the roles:
//!
//! * the disorder-bound merge (PACE) produces feedback from its explicit
//!   disorder policy, and exploits and relays its consumer's;
//! * IMPUTE exploits assumed feedback (purging late state);
//! * a feedback-unaware operator declares none of them — it ignores
//!   feedback and cannot relay it (Section 5, "Feedback Support").

use std::fmt;

/// The subset of feedback roles an operator *declares* it plays, as a plain
/// value usable by plan builders and validators.
///
/// A plan builder asks an operator for its roles *before* execution and can
/// reject a feedback subscription whose target declares no feedback port at
/// all — turning what would be a silent run-time no-op (the paper's
/// feedback-unaware operator simply ignores the message) into a
/// composition-time error.
///
/// # Examples
///
/// ```
/// use dsms_feedback::FeedbackRoles;
///
/// let select = FeedbackRoles::exploiter().with_relayer();
/// assert!(select.accepts_feedback());
/// assert_eq!(select.to_string(), "exploiter+relayer");
/// assert!(!FeedbackRoles::NONE.accepts_feedback());
/// assert_eq!(FeedbackRoles::NONE.to_string(), "none");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FeedbackRoles {
    produces: bool,
    exploits: bool,
    relays: bool,
}

impl FeedbackRoles {
    /// A feedback-unaware operator: no roles, no feedback port.
    pub const NONE: FeedbackRoles =
        FeedbackRoles { produces: false, exploits: false, relays: false };

    /// Declares only the producer role (e.g. PACE).
    pub const fn producer() -> Self {
        FeedbackRoles { produces: true, exploits: false, relays: false }
    }

    /// Declares only the exploiter role (e.g. IMPUTE).
    pub const fn exploiter() -> Self {
        FeedbackRoles { produces: false, exploits: true, relays: false }
    }

    /// Declares only the relayer role (e.g. a shuffle).
    pub const fn relayer() -> Self {
        FeedbackRoles { produces: false, exploits: false, relays: true }
    }

    /// Adds the producer role.
    pub const fn with_producer(self) -> Self {
        FeedbackRoles { produces: true, ..self }
    }

    /// Adds the exploiter role.
    pub const fn with_exploiter(self) -> Self {
        FeedbackRoles { exploits: true, ..self }
    }

    /// Adds the relayer role.
    pub const fn with_relayer(self) -> Self {
        FeedbackRoles { relays: true, ..self }
    }

    /// True when the operator issues feedback of its own accord.
    pub const fn produces(&self) -> bool {
        self.produces
    }

    /// True when the operator adapts its processing to received feedback.
    pub const fn exploits(&self) -> bool {
        self.exploits
    }

    /// True when the operator forwards received feedback to its antecedents.
    pub const fn relays(&self) -> bool {
        self.relays
    }

    /// True when the operator has a feedback port at all: feedback sent to it
    /// is either exploited or relayed (possibly both).  False means feedback
    /// would be silently ignored — the paper's feedback-unaware operator.
    pub const fn accepts_feedback(&self) -> bool {
        self.exploits || self.relays
    }

    /// True when no role is declared.
    pub const fn is_none(&self) -> bool {
        !self.produces && !self.exploits && !self.relays
    }

    /// The union of two declarations (used by wrapper operators that add a
    /// role on top of an inner operator's).
    pub const fn union(self, other: Self) -> Self {
        FeedbackRoles {
            produces: self.produces || other.produces,
            exploits: self.exploits || other.exploits,
            relays: self.relays || other.relays,
        }
    }
}

impl fmt::Display for FeedbackRoles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut parts = Vec::new();
        if self.produces {
            parts.push("producer");
        }
        if self.exploits {
            parts.push("exploiter");
        }
        if self.relays {
            parts.push("relayer");
        }
        write!(f, "{}", parts.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_declarations_compose_and_display() {
        assert!(FeedbackRoles::NONE.is_none());
        assert!(!FeedbackRoles::NONE.accepts_feedback());
        assert_eq!(FeedbackRoles::default(), FeedbackRoles::NONE);

        let pace = FeedbackRoles::producer();
        assert!(pace.produces() && !pace.accepts_feedback());
        assert_eq!(pace.to_string(), "producer");

        let select = FeedbackRoles::exploiter().with_relayer();
        assert!(select.exploits() && select.relays() && select.accepts_feedback());
        assert_eq!(select.to_string(), "exploiter+relayer");

        let shuffle = FeedbackRoles::relayer();
        assert!(shuffle.accepts_feedback());

        let wrapped = shuffle.union(FeedbackRoles::producer());
        assert!(wrapped.produces() && wrapped.relays());
        assert_eq!(wrapped.to_string(), "producer+relayer");
        assert_eq!(FeedbackRoles::NONE.union(FeedbackRoles::NONE), FeedbackRoles::NONE);
    }
}
