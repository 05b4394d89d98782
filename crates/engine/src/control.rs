//! Out-of-band control messages.
//!
//! NiagaraST supports control messages flowing both directions in the operator
//! tree; they are out-of-band, given high priority and processed before
//! pending tuples (paper Section 5).  Downstream (with the data flow) they
//! carry end-of-stream and shutdown; upstream (against the data flow) they
//! carry **feedback punctuation** and shutdown.  The paper's initial feedback
//! implementation adds a new control-message type for assumed punctuation and
//! serializes the punctuation as the message body — here the feedback
//! punctuation is carried natively.

use dsms_feedback::FeedbackPunctuation;
use std::fmt;

/// A control message travelling between two adjacent operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// The sender of this control stream is done.  Downstream (on the data
    /// queue) it means the producer has finished and no more pages will
    /// arrive.  Upstream (on the control channel) it is the lifecycle's
    /// *drain handshake*: the consumer promises it will send no
    /// further control messages on this connection, releasing the producer
    /// from its post-flush drain phase.
    EndOfStream,
    /// Either direction: tear the query down.  The pooled executor sends
    /// it upstream when an operator fails, so producers stop generating data
    /// nobody will read.
    Shutdown,
    /// Upstream: feedback punctuation (assumed / desired / demanded) from the
    /// consumer to the producer of a connection.
    Feedback(FeedbackPunctuation),
    /// Upstream: an on-demand result request (paper Example 4) — ask the
    /// producer to emit whatever results it can for the current state.
    RequestResults,
}

impl ControlMessage {
    /// Short name for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            ControlMessage::EndOfStream => "end-of-stream",
            ControlMessage::Shutdown => "shutdown",
            ControlMessage::Feedback(_) => "feedback",
            ControlMessage::RequestResults => "request-results",
        }
    }

    /// True for messages that flow *exclusively* upstream (against the data
    /// flow).  `EndOfStream` and `Shutdown` travel in both directions.
    pub fn flows_upstream(&self) -> bool {
        matches!(self, ControlMessage::Feedback(_) | ControlMessage::RequestResults)
    }
}

impl fmt::Display for ControlMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlMessage::Feedback(fb) => write!(f, "feedback {fb}"),
            other => write!(f, "{}", other.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_punctuation::Pattern;
    use dsms_types::{DataType, Schema};

    #[test]
    fn kinds_and_directions() {
        assert_eq!(ControlMessage::EndOfStream.kind(), "end-of-stream");
        assert!(!ControlMessage::EndOfStream.flows_upstream());
        assert!(!ControlMessage::Shutdown.flows_upstream());
        assert!(ControlMessage::RequestResults.flows_upstream());

        let schema = Schema::shared(&[("v", DataType::Int)]);
        let fb = FeedbackPunctuation::assumed(Pattern::all_wildcards(schema), "sink");
        let msg = ControlMessage::Feedback(fb);
        assert!(msg.flows_upstream());
        assert_eq!(msg.kind(), "feedback");
        assert!(msg.to_string().contains("¬"));
    }
}
