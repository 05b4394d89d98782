//! Error types for the feedback layer.

use dsms_types::TypeError;
use std::fmt;

/// Result alias used throughout the feedback layer.
pub type FeedbackResult<T> = Result<T, FeedbackError>;

/// Errors raised when constructing, propagating or exploiting feedback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedbackError {
    /// A lower-level type/schema error.
    Type(TypeError),
    /// The feedback's pattern is defined over a different schema than required.
    SchemaMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// No safe propagation of the feedback onto the requested input exists
    /// (paper Section 4.2, e.g. `¬[50,*,*,50]` over a join).
    NoSafePropagation {
        /// Why propagation is unsafe.
        reason: String,
    },
    /// The feedback is not supportable under the stream's punctuation scheme
    /// (it constrains undelimited attributes and would accumulate state,
    /// Section 4.4).
    Unsupportable {
        /// The undelimited attributes the feedback constrains.
        attributes: Vec<String>,
    },
    /// An operation that requires an intent other than the one carried.
    WrongIntent {
        /// What the operation expected.
        expected: &'static str,
        /// What the feedback carried.
        actual: &'static str,
    },
}

impl fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedbackError::Type(e) => write!(f, "{e}"),
            FeedbackError::SchemaMismatch { detail } => {
                write!(f, "feedback schema mismatch: {detail}")
            }
            FeedbackError::NoSafePropagation { reason } => {
                write!(f, "no safe propagation exists: {reason}")
            }
            FeedbackError::Unsupportable { attributes } => write!(
                f,
                "feedback constrains undelimited attributes ({}) and would accumulate state",
                attributes.join(", ")
            ),
            FeedbackError::WrongIntent { expected, actual } => {
                write!(f, "operation requires {expected} feedback, got {actual}")
            }
        }
    }
}

impl std::error::Error for FeedbackError {}

impl From<TypeError> for FeedbackError {
    fn from(e: TypeError) -> Self {
        FeedbackError::Type(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = FeedbackError::Unsupportable { attributes: vec!["amount".into()] };
        assert!(e.to_string().contains("amount"));
        let e =
            FeedbackError::NoSafePropagation { reason: "value constraints on both sides".into() };
        assert!(e.to_string().contains("value constraints"));
        let e = FeedbackError::WrongIntent { expected: "demanded", actual: "assumed" };
        assert!(e.to_string().contains("demanded"));
    }

    #[test]
    fn type_errors_convert() {
        let te = TypeError::DuplicateAttribute { name: "x".into() };
        let fe: FeedbackError = te.clone().into();
        assert_eq!(fe, FeedbackError::Type(te));
    }
}
