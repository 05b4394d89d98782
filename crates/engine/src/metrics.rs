//! Per-operator execution metrics.

use dsms_feedback::FeedbackStats;
use std::time::Duration;

/// Counters collected for each operator during execution.
#[derive(Debug, Clone, Default)]
pub struct OperatorMetrics {
    /// Operator name.
    pub operator: String,
    /// Tuples received across all inputs.
    pub tuples_in: u64,
    /// Tuples emitted across all outputs.
    pub tuples_out: u64,
    /// Embedded punctuations received.
    pub punctuations_in: u64,
    /// Embedded punctuations emitted.
    pub punctuations_out: u64,
    /// Pages received.
    pub pages_in: u64,
    /// Pages emitted.
    pub pages_out: u64,
    /// Feedback messages received (from downstream).
    pub feedback_in: u64,
    /// Feedback messages sent (to upstream).
    pub feedback_out: u64,
    /// Feedback messages this operator sent that the executor could not
    /// deliver.  Cooperating operators must never lose feedback silently
    /// (the paper's central delivery guarantee), so both executors deliver
    /// feedback to upstream operators even after those operators have
    /// flushed; this counter records the residue that is *genuinely*
    /// undeliverable — feedback named on an input port with no connected
    /// edge, or (pooled executor only) sent on a connection whose upstream
    /// operator already closed it after a failure.  A healthy run reports 0.
    pub feedback_dropped: u64,
    /// Time spent inside operator callbacks.
    pub busy: Duration,
    /// Scheduler steps executed for this operator (pooled executor): each
    /// step runs the operator's lifecycle machine until it yields its budget,
    /// goes idle, or finishes.  Sync runs leave this 0.
    pub sched_steps: u64,
    /// Steps executed on a worker other than the operator's home worker
    /// (pooled executor work stealing).  Sync runs leave this 0.
    pub sched_steals: u64,
    /// Largest number of pages observed waiting on any of this operator's
    /// input queues, sampled by the executor's lifecycle sweep just before
    /// each input poll.  Populated by both executors; sources (no
    /// inputs) report 0.
    pub max_queue_depth: u64,
    /// Supervised restarts performed for this operator: each one restored
    /// the last punctuation-epoch checkpoint and replayed the retained
    /// post-checkpoint suffix.  0 for fail-fast operators (the default).
    pub restarts: u64,
    /// Checkpoints taken at punctuation-epoch boundaries (only operators
    /// under a `Restart` recovery policy take checkpoints).
    pub checkpoints_taken: u64,
    /// Tuples re-dispatched from the retention buffer during restarts.
    pub tuples_replayed: u64,
    /// Terminal failure detail for a quarantined operator: set when the
    /// operator exhausted its restart budget under quarantine mode and was
    /// tombstoned (its branch drained) instead of aborting the run.  `None`
    /// for healthy operators and for fail-fast aborts (those surface as the
    /// run's error instead).
    pub failure: Option<String>,
    /// Feedback-layer statistics reported by the operator, if any.
    pub feedback: FeedbackStats,
    /// Elastic-stage statistics, reported by the operator coordinating an
    /// elastic partitioned stage (its shuffle).  `None` everywhere else.
    pub elastic: Option<ElasticStats>,
}

/// Counters for one elastic partitioned stage, kept by its controller and
/// folded into the coordinating operator's [`OperatorMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElasticStats {
    /// Resizes committed (routing actually switched width).
    pub resizes: u64,
    /// Resizes cancelled because the stream ended mid-handshake (the commit
    /// marker re-installed the old width).
    pub cancelled: u64,
    /// Scheduled resizes whose punctuation boundary the stream never
    /// reached, counted at end-of-stream.
    pub unreached: u64,
    /// Keyed state units that changed replica across all committed resizes.
    pub migrated_groups: u64,
    /// Committed `(epoch, partitions)` pairs, in commit order — the stage's
    /// width history.
    pub epochs: Vec<(u64, usize)>,
}

/// Run-wide recovery counters, aggregated over every operator's metrics —
/// see [`crate::executor::ExecutionReport::recovery`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Total supervised restarts across all operators.
    pub restarts: u64,
    /// Total punctuation-epoch checkpoints taken.
    pub checkpoints_taken: u64,
    /// Total tuples re-dispatched from retention buffers during restarts.
    pub tuples_replayed: u64,
    /// Names of operators tombstoned after exhausting their restart budget
    /// (quarantine mode), with their terminal failure details.
    pub quarantined: Vec<(String, String)>,
}

/// Pool-wide scheduler counters, reported by the pooled executor (see
/// [`crate::executor::ExecutionReport::scheduler`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerSummary {
    /// Number of worker threads the pool ran with.
    pub workers: usize,
    /// Task steps executed on a worker other than the task's home worker.
    pub steals: u64,
    /// Times a worker parked because no runnable task was available.
    pub parks: u64,
}

impl OperatorMetrics {
    /// Creates metrics for the named operator.
    pub fn new(operator: impl Into<String>) -> Self {
        OperatorMetrics { operator: operator.into(), ..Default::default() }
    }

    /// Selectivity proxy: output tuples per input tuple.
    pub fn selectivity(&self) -> f64 {
        if self.tuples_in == 0 {
            0.0
        } else {
            self.tuples_out as f64 / self.tuples_in as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_handles_zero_input() {
        let mut m = OperatorMetrics::new("SELECT");
        assert_eq!(m.selectivity(), 0.0);
        m.tuples_in = 10;
        m.tuples_out = 4;
        assert!((m.selectivity() - 0.4).abs() < 1e-12);
        assert_eq!(m.operator, "SELECT");
    }
}
