//! Data-parallel plan rewriting: `partitioned(…)` on [`QueryPlan`].
//!
//! Replicates a stateful operator N ways behind a [`Shuffle`] (hash-partition
//! on key columns) and a [`Merge`] (order-insensitive union):
//!
//! ```text
//!              ┌─ replica 0 ─┐
//! … ─ shuffle ─┼─ replica 1 ─┼─ merge ─ …
//!              └─ replica … ─┘
//! ```
//!
//! Data follows the hash route, embedded punctuation is broadcast
//! shuffle→replicas, feedback from the merge's consumer is broadcast
//! merge→replicas, and feedback from the replicas is lattice-merged by the
//! shuffle before crossing toward the source (see
//! [`dsms_feedback::FeedbackMerge`]).  As long as the replicated operator's
//! state is keyed by (a function of) the shuffle key — a grouped aggregate
//! partitioned on its group key, a keyed join partitioned on its join key —
//! the partitioned stage produces the same output multiset as the single
//! operator.

use crate::merge::Merge;
use crate::shuffle::Shuffle;
use dsms_engine::{EngineError, EngineResult, NodeId, Operator, QueryPlan};
use dsms_types::SchemaRef;

/// Handle to a partitioned stage inside a plan: connect your producer to
/// [`input()`](PartitionedStage::input) and your consumer to
/// [`output()`](PartitionedStage::output).
#[derive(Debug, Clone)]
pub struct PartitionedStage {
    input: NodeId,
    output: NodeId,
    replicas: Vec<NodeId>,
}

impl PartitionedStage {
    /// The stage's entry node (the shuffle): connect the upstream producer
    /// here.
    pub fn input(&self) -> NodeId {
        self.input
    }

    /// The stage's exit node (the merge): connect the downstream consumer
    /// here.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// The replica nodes, in partition order.
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.replicas.len()
    }
}

/// Shared validation for partitioned-stage construction: at least two
/// partitions.  Used by both the [`PartitionedExt`] plan rewrite and the
/// fluent `StreamOps` combinators, so both paths report the identical error.
pub(crate) fn check_partition_count(name: &str, partitions: usize) -> EngineResult<()> {
    if partitions < 2 {
        return Err(EngineError::InvalidPlan {
            detail: format!(
                "partitioned stage `{name}` needs at least 2 partitions (got {partitions}); use \
                 the operator directly for a single-replica plan"
            ),
        });
    }
    Ok(())
}

/// Shared validation for caller-built stage endpoints: the shuffle's fan-out
/// and the merge's fan-in must agree.
pub(crate) fn check_stage_endpoints(shuffle: &Shuffle, merge: &Merge) -> EngineResult<()> {
    if merge.inputs() != shuffle.partitions() {
        return Err(EngineError::InvalidPlan {
            detail: format!(
                "shuffle `{}` fans out to {} partitions but merge `{}` collects {} inputs — the \
                 replica counts must agree",
                shuffle.name(),
                shuffle.partitions(),
                merge.name(),
                merge.inputs()
            ),
        });
    }
    Ok(())
}

/// Plan-rewrite extension adding data-parallel stages to [`QueryPlan`].
pub trait PartitionedExt {
    /// Adds a stage of `partitions` replicas built by `make` (called once per
    /// partition index), hash-partitioned on the `key` attributes of
    /// `schema`, behind a default [`Shuffle`] / [`Merge`] pair named
    /// `{name}-shuffle` / `{name}-merge`.
    ///
    /// Both endpoints are built over `schema`, which suits schema-preserving
    /// replicas (filters, imputers, joins keyed on their probe input).  For a
    /// schema-*changing* replica — a grouped aggregate, say — build the
    /// endpoints yourself and use
    /// [`partitioned_stage`](PartitionedExt::partitioned_stage) with a
    /// [`Merge`] over the replica's output schema.
    ///
    /// The default [`Merge`] has no progress tracking, so it **absorbs**
    /// embedded punctuation (forwarding one replica's punctuation would be
    /// wrong — the others may still produce matching tuples).  That is fine
    /// for the replicas themselves (the shuffle broadcasts punctuation to
    /// them) and for finite streams, but if an operator *downstream of the
    /// stage* relies on punctuation to make progress on an unbounded stream,
    /// build the endpoints yourself and give the merge
    /// [`Merge::with_progress_on`], which re-emits the minimum of the
    /// per-replica watermarks.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsms_engine::{QueryPlan, SyncExecutor};
    /// use dsms_operators::{CollectSink, PartitionedExt, Select, TuplePredicate, VecSource};
    /// use dsms_types::{DataType, Schema, Timestamp, Tuple, Value};
    ///
    /// let schema = Schema::shared(&[("ts", DataType::Timestamp), ("seg", DataType::Int)]);
    /// let tuples: Vec<Tuple> = (0..100)
    ///     .map(|i| {
    ///         Tuple::new(
    ///             schema.clone(),
    ///             vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % 10)],
    ///         )
    ///     })
    ///     .collect();
    ///
    /// let mut plan = QueryPlan::new();
    /// let source = plan.add(VecSource::new("source", tuples));
    /// // Replicate a filter 4 ways, partitioned on the `seg` key column.
    /// let stage = plan.partitioned("stage", schema.clone(), &["seg"], 4, |i| {
    ///     Select::new(
    ///         format!("select-{i}"),
    ///         schema.clone(),
    ///         TuplePredicate::new("seg != 3", |t| t.int("seg").unwrap_or(0) != 3),
    ///     )
    /// })?;
    /// let (sink, results) = CollectSink::new("sink");
    /// let sink = plan.add(sink);
    /// plan.connect_simple(source, stage.input())?;
    /// plan.connect_simple(stage.output(), sink)?;
    ///
    /// let report = SyncExecutor::run(plan)?;
    /// assert_eq!(results.lock().len(), 90, "segment 3 filtered out in one replica");
    /// assert_eq!(report.total_feedback_dropped(), 0);
    /// # Ok::<(), dsms_engine::EngineError>(())
    /// ```
    fn partitioned<O, F>(
        &mut self,
        name: &str,
        schema: SchemaRef,
        key: &[&str],
        partitions: usize,
        make: F,
    ) -> EngineResult<PartitionedStage>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O;

    /// Like [`partitioned`](PartitionedExt::partitioned), but with
    /// caller-built shuffle and merge endpoints (e.g. a [`Merge`] carrying a
    /// disorder-bound policy).  The shuffle's partition count and the merge's
    /// input count must agree.
    fn partitioned_stage<O, F>(
        &mut self,
        shuffle: Shuffle,
        merge: Merge,
        make: F,
    ) -> EngineResult<PartitionedStage>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O;
}

impl PartitionedExt for QueryPlan {
    fn partitioned<O, F>(
        &mut self,
        name: &str,
        schema: SchemaRef,
        key: &[&str],
        partitions: usize,
        make: F,
    ) -> EngineResult<PartitionedStage>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O,
    {
        check_partition_count(name, partitions)?;
        let shuffle = Shuffle::new(format!("{name}-shuffle"), schema.clone(), key, partitions)?;
        let merge = Merge::new(format!("{name}-merge"), schema, partitions);
        self.partitioned_stage(shuffle, merge, make)
    }

    fn partitioned_stage<O, F>(
        &mut self,
        shuffle: Shuffle,
        merge: Merge,
        mut make: F,
    ) -> EngineResult<PartitionedStage>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O,
    {
        check_stage_endpoints(&shuffle, &merge)?;
        let partitions = shuffle.partitions();
        let input = self.add(shuffle);
        let output = self.add(merge);
        let mut replicas = Vec::with_capacity(partitions);
        for partition in 0..partitions {
            let replica = self.add(make(partition));
            self.connect(input, partition, replica, 0)?;
            self.connect(replica, 0, output, partition)?;
            replicas.push(replica);
        }
        Ok(PartitionedStage { input, output, replicas })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use crate::source::VecSource;
    use dsms_engine::{PooledExecutor, SyncExecutor};
    use dsms_types::{DataType, Schema, Timestamp, Tuple, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("ts", DataType::Timestamp), ("seg", DataType::Int)])
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    schema(),
                    vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % 13)],
                )
            })
            .collect()
    }

    /// Pass-through replica that records which segment values it saw.
    struct Recorder {
        name: String,
        seen: std::sync::Arc<parking_lot::Mutex<Vec<i64>>>,
    }

    impl Operator for Recorder {
        fn name(&self) -> &str {
            &self.name
        }
        fn inputs(&self) -> usize {
            1
        }
        fn on_tuple(
            &mut self,
            _i: usize,
            t: Tuple,
            ctx: &mut dsms_engine::OperatorContext,
        ) -> EngineResult<()> {
            self.seen.lock().push(t.int("seg").unwrap());
            ctx.emit(0, t);
            Ok(())
        }
    }

    #[test]
    fn partitioned_stage_wires_and_runs_on_both_executors() {
        for pooled in [false, true] {
            let mut plan = QueryPlan::new().with_page_capacity(4).with_queue_capacity(4);
            let source = plan.add(VecSource::new("source", tuples(200)));
            let recorders: Vec<_> =
                (0..4).map(|_| std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()))).collect();
            let handles = recorders.clone();
            let stage = plan
                .partitioned("stage", schema(), &["seg"], 4, |i| Recorder {
                    name: format!("replica-{i}"),
                    seen: handles[i].clone(),
                })
                .unwrap();
            assert_eq!(stage.partitions(), 4);
            assert_eq!(stage.replicas().len(), 4);
            let (sink, results) = CollectSink::new("sink");
            let sink = plan.add(sink);
            plan.connect_simple(source, stage.input()).unwrap();
            plan.connect_simple(stage.output(), sink).unwrap();
            plan.validate().unwrap();

            let report = if pooled {
                PooledExecutor::run(plan).unwrap()
            } else {
                SyncExecutor::run(plan).unwrap()
            };
            assert_eq!(results.lock().len(), 200, "pooled={pooled}");
            assert_eq!(report.total_feedback_dropped(), 0);
            // Key-consistency: each segment value is seen by exactly one replica.
            for seg in 0..13 {
                let owners = recorders.iter().filter(|r| r.lock().contains(&seg)).count();
                assert_eq!(owners, 1, "segment {seg} must live on exactly one replica");
            }
            // The hash spreads 13 segments over more than one replica.
            let active = recorders.iter().filter(|r| !r.lock().is_empty()).count();
            assert!(active > 1, "partitioning must actually spread the stream");
        }
    }

    #[test]
    fn mismatched_replica_counts_are_rejected() {
        let mut plan = QueryPlan::new();
        let shuffle = Shuffle::new("s", schema(), &["seg"], 4).unwrap();
        let merge = Merge::new("m", schema(), 3);
        let err = plan
            .partitioned_stage(shuffle, merge, |i| Recorder {
                name: format!("replica-{i}"),
                seen: Default::default(),
            })
            .unwrap_err();
        assert!(err.to_string().contains("must agree"), "{err}");

        let err = plan
            .partitioned("p", schema(), &["seg"], 1, |i| Recorder {
                name: format!("replica-{i}"),
                seen: Default::default(),
            })
            .unwrap_err();
        assert!(err.to_string().contains("at least 2 partitions"), "{err}");
    }
}
