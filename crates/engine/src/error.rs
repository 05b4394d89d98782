//! Engine error types.

use dsms_feedback::FeedbackError;
use dsms_types::TypeError;
use std::fmt;

/// Result alias used throughout the engine.
pub type EngineResult<T> = Result<T, EngineError>;

/// Errors raised while building or executing a query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A lower-level type/schema error.
    Type(TypeError),
    /// A feedback-layer error.
    Feedback(FeedbackError),
    /// The query plan is malformed (dangling ports, cycles, unknown nodes).
    InvalidPlan {
        /// Description of the problem.
        detail: String,
    },
    /// An operator failed during execution.
    OperatorFailed {
        /// The operator's name.
        operator: String,
        /// Description of the failure.
        detail: String,
    },
    /// An operator thread panicked or a channel was unexpectedly closed.
    ExecutionFailed {
        /// Description of the failure.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Type(e) => write!(f, "{e}"),
            EngineError::Feedback(e) => write!(f, "{e}"),
            EngineError::InvalidPlan { detail } => write!(f, "invalid plan: {detail}"),
            EngineError::OperatorFailed { operator, detail } => {
                write!(f, "operator `{operator}` failed: {detail}")
            }
            EngineError::ExecutionFailed { detail } => write!(f, "execution failed: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TypeError> for EngineError {
    fn from(e: TypeError) -> Self {
        EngineError::Type(e)
    }
}

impl From<FeedbackError> for EngineError {
    fn from(e: FeedbackError) -> Self {
        EngineError::Feedback(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = TypeError::DuplicateAttribute { name: "x".into() }.into();
        assert!(e.to_string().contains("x"));
        let e: EngineError =
            FeedbackError::Unsupportable { attributes: vec!["amount".into()] }.into();
        assert!(e.to_string().contains("amount"));
        let e = EngineError::InvalidPlan { detail: "dangling port".into() };
        assert!(e.to_string().contains("dangling"));
        let e = EngineError::OperatorFailed { operator: "JOIN".into(), detail: "boom".into() };
        assert!(e.to_string().contains("JOIN"));
    }
}
