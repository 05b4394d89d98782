//! Operator-library sugar for the engine's fluent [`Stream`] API.
//!
//! `dsms-engine`'s [`Stream`] knows how to draw schema-checked edges and
//! lower feedback subscriptions, but it cannot name concrete operators (the
//! engine does not depend on this crate).  [`StreamOps`] closes the loop: it
//! extends [`Stream`] with combinators that *construct* the library operators
//! from the schema the stream already carries — `.select(…)`, `.project(…)`,
//! `.window_avg(…)`, `.union(…)`, `.split(…)`, `.partitioned(…)`,
//! `.sink_collect(…)` — so a plan reads as a dataflow expression and schema
//! mistakes surface at the exact call that makes them.
//!
//! Everything here lowers through the generic [`Stream::apply`] /
//! [`Stream::merge`] / [`Stream::sink`] surface; operators the sugar does not
//! cover (joins, PACE, IMPUTE, gates, custom operators) connect through those
//! same generic methods.

use crate::aggregate::{AggregateFunction, WindowAggregate};
use crate::common::TuplePredicate;
use crate::elastic::{ElasticController, ElasticPolicy, ElasticReplica};
use crate::merge::Merge;
use crate::project::Project;
use crate::select::Select;
use crate::shuffle::Shuffle;
use crate::sink::{CollectSink, SinkHandle, TimedSink, TimedSinkHandle};
use crate::split::Split;
use dsms_engine::{EngineError, EngineResult, Operator, Stream};
use dsms_types::StreamDuration;

/// Fluent operator-library combinators on [`Stream`].
///
/// # Examples
///
/// The quickstart pipeline as one expression — source, filter, sink, plus a
/// composition-time feedback subscription:
///
/// ```
/// use dsms_engine::{StreamBuilder, SyncExecutor};
/// use dsms_feedback::FeedbackSpec;
/// use dsms_operators::{StreamOps, TuplePredicate, VecSource};
/// use dsms_punctuation::{Pattern, PatternItem};
/// use dsms_types::{DataType, Schema, Timestamp, Tuple, Value};
///
/// let schema = Schema::shared(&[("ts", DataType::Timestamp), ("segment", DataType::Int)]);
/// let readings: Vec<Tuple> = (0..100)
///     .map(|i| {
///         Tuple::new(
///             schema.clone(),
///             vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % 4)],
///         )
///     })
///     .collect();
///
/// let builder = StreamBuilder::new().with_page_capacity(8);
/// let ignore_segment_3 = FeedbackSpec::assumed(
///     Pattern::for_attributes(schema.clone(), &[("segment", PatternItem::Eq(Value::Int(3)))])
///         .unwrap(),
/// )
/// .after_tuples(10);
/// let results = builder
///     .source(VecSource::new("sensors", readings))?
///     .select("nonnegative", TuplePredicate::new("segment >= 0", |t| {
///         t.int("segment").unwrap_or(-1) >= 0
///     }))?
///     .with_feedback(ignore_segment_3)?
///     .sink_collect("sink")?;
/// let report = SyncExecutor::run(builder.build()?)?;
/// assert!(results.lock().len() < 100, "the subscription suppressed segment 3 upstream");
/// assert_eq!(report.operator("sensors").unwrap().feedback_in, 1);
/// # Ok::<(), dsms_engine::EngineError>(())
/// ```
pub trait StreamOps: Sized {
    /// Filters the stream with a stateless, feedback-extensible SELECT built
    /// over the stream's schema.
    fn select(self, name: impl Into<String>, predicate: TuplePredicate) -> EngineResult<Stream>;

    /// Projects the stream onto the named attributes (order preserved).
    fn project(self, name: impl Into<String>, keep: &[&str]) -> EngineResult<Stream>;

    /// Aggregates the stream into tumbling windows of `window` on
    /// `timestamp_attribute`, grouped by `group_attributes`.
    fn aggregate(
        self,
        name: impl Into<String>,
        timestamp_attribute: &str,
        window: StreamDuration,
        group_attributes: &[&str],
        function: AggregateFunction,
    ) -> EngineResult<Stream>;

    /// Sugar for [`aggregate`](StreamOps::aggregate) with
    /// [`AggregateFunction::Avg`] over `value_attribute` — the paper's
    /// per-segment windowed AVERAGE.
    fn window_avg(
        self,
        name: impl Into<String>,
        timestamp_attribute: &str,
        window: StreamDuration,
        group_attributes: &[&str],
        value_attribute: &str,
    ) -> EngineResult<Stream>;

    /// Merges this stream with `other` through the paper's UNION — a
    /// two-input [`Merge`] over this stream's schema, which absorbs per-input
    /// punctuation, guards its output with the feedback it receives and
    /// broadcasts that feedback to both inputs.  Rejects `other` at
    /// composition time when its schema differs.
    fn union(self, other: Stream, name: impl Into<String>) -> EngineResult<Stream>;

    /// Splits the stream by content: the first returned stream carries tuples
    /// satisfying `condition`, the second the rest.
    fn split(
        self,
        name: impl Into<String>,
        condition: TuplePredicate,
    ) -> EngineResult<(Stream, Stream)>;

    /// Replicates a schema-preserving stage `partitions` ways behind a
    /// `{name}-shuffle` / `{name}-merge` pair hash-partitioned on the `key`
    /// attributes, calling `make` once per partition index (see
    /// `docs/ARCHITECTURE.md` for how data, punctuation and feedback cross
    /// the stage).
    ///
    /// The default [`Merge`] has no progress tracking, so it **absorbs**
    /// embedded punctuation (forwarding one replica's punctuation would be
    /// wrong — the others may still produce matching tuples).  That is fine
    /// for the replicas themselves (the shuffle broadcasts punctuation to
    /// them) and for finite streams, but if an operator *downstream of the
    /// stage* relies on punctuation to make progress on an unbounded stream,
    /// build the endpoints yourself and use
    /// [`partitioned_stage`](StreamOps::partitioned_stage) with
    /// [`Merge::with_progress_on`], which re-emits the minimum of the
    /// per-replica watermarks.
    fn partitioned<O, F>(
        self,
        name: &str,
        key: &[&str],
        partitions: usize,
        make: F,
    ) -> EngineResult<Stream>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O;

    /// [`partitioned`](StreamOps::partitioned) with caller-built endpoints —
    /// needed when the replicas change the schema (build the [`Merge`] over
    /// their output schema) or when the merge carries a disorder policy.
    fn partitioned_stage<O, F>(
        self,
        shuffle: Shuffle,
        merge: Merge,
        make: F,
    ) -> EngineResult<Stream>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O;

    /// [`partitioned_stage`](StreamOps::partitioned_stage) made resizable at
    /// runtime: the stage is built at the shuffle's full width, starts with
    /// `initial` active replicas, and grows or shrinks when `policy` decides
    /// at one of the shuffle's punctuation boundaries — the shuffle cuts the
    /// stream there and keyed replica state migrates at the cut (see
    /// [`crate::elastic`] for the protocol).  `merge` stays a plain merge.  Replicas
    /// must implement [`Operator::export_state`] /
    /// [`Operator::import_state`] if they hold keyed state.
    fn elastic_stage<O, F>(
        self,
        shuffle: Shuffle,
        merge: Merge,
        initial: usize,
        policy: ElasticPolicy,
        make: F,
    ) -> EngineResult<Stream>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O;

    /// Terminates the stream in a [`CollectSink`], returning the handle to
    /// its collected results.
    fn sink_collect(self, name: impl Into<String>) -> EngineResult<SinkHandle>;

    /// Terminates the stream in a [`TimedSink`], returning the handle to its
    /// arrival-timed results.
    fn sink_timed(self, name: impl Into<String>) -> EngineResult<TimedSinkHandle>;
}

impl StreamOps for Stream {
    fn select(self, name: impl Into<String>, predicate: TuplePredicate) -> EngineResult<Stream> {
        let schema = self.schema().clone();
        self.apply(Select::new(name, schema, predicate))
    }

    fn project(self, name: impl Into<String>, keep: &[&str]) -> EngineResult<Stream> {
        let schema = self.schema().clone();
        self.apply(Project::new(name, schema, keep).map_err(EngineError::from)?)
    }

    fn aggregate(
        self,
        name: impl Into<String>,
        timestamp_attribute: &str,
        window: StreamDuration,
        group_attributes: &[&str],
        function: AggregateFunction,
    ) -> EngineResult<Stream> {
        let schema = self.schema().clone();
        self.apply(
            WindowAggregate::new(
                name,
                schema,
                timestamp_attribute,
                window,
                group_attributes,
                function,
            )
            .map_err(EngineError::from)?,
        )
    }

    fn window_avg(
        self,
        name: impl Into<String>,
        timestamp_attribute: &str,
        window: StreamDuration,
        group_attributes: &[&str],
        value_attribute: &str,
    ) -> EngineResult<Stream> {
        self.aggregate(
            name,
            timestamp_attribute,
            window,
            group_attributes,
            AggregateFunction::Avg(value_attribute.into()),
        )
    }

    fn union(self, other: Stream, name: impl Into<String>) -> EngineResult<Stream> {
        let op = Merge::new(name, self.schema().clone(), 2);
        self.combine(other, op)
    }

    fn split(
        self,
        name: impl Into<String>,
        condition: TuplePredicate,
    ) -> EngineResult<(Stream, Stream)> {
        let schema = self.schema().clone();
        let mut streams = self.apply_multi(Split::new(name, schema, condition))?.into_iter();
        let matching = streams.next().expect("split declares two outputs");
        let rest = streams.next().expect("split declares two outputs");
        Ok((matching, rest))
    }

    fn partitioned<O, F>(
        self,
        name: &str,
        key: &[&str],
        partitions: usize,
        make: F,
    ) -> EngineResult<Stream>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O,
    {
        if partitions < 2 {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "partitioned stage `{name}` needs at least 2 partitions (got {partitions}); \
                     use the operator directly for a single-replica plan"
                ),
            });
        }
        let schema = self.schema().clone();
        let shuffle = Shuffle::new(format!("{name}-shuffle"), schema.clone(), key, partitions)?;
        let merge = Merge::new(format!("{name}-merge"), schema, partitions);
        self.partitioned_stage(shuffle, merge, make)
    }

    fn partitioned_stage<O, F>(
        self,
        shuffle: Shuffle,
        merge: Merge,
        mut make: F,
    ) -> EngineResult<Stream>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O,
    {
        let partitions = shuffle.partitions();
        if merge.inputs() != partitions {
            return Err(EngineError::InvalidPlan {
                detail: format!(
                    "shuffle `{}` fans out to {partitions} partitions but merge `{}` collects {} \
                     inputs — the replica counts must agree",
                    shuffle.name(),
                    merge.name(),
                    merge.inputs()
                ),
            });
        }
        let replica_output = merge.schema().clone();
        let partition_streams = self.apply_multi(shuffle)?;
        let mut replica_streams = Vec::with_capacity(partitions);
        for (partition, stream) in partition_streams.into_iter().enumerate() {
            replica_streams.push(stream.apply_as(make(partition), replica_output.clone())?);
        }
        Stream::merge(replica_streams, merge)
    }

    fn elastic_stage<O, F>(
        self,
        shuffle: Shuffle,
        merge: Merge,
        initial: usize,
        policy: ElasticPolicy,
        mut make: F,
    ) -> EngineResult<Stream>
    where
        O: Operator + 'static,
        F: FnMut(usize) -> O,
    {
        let controller = ElasticController::shared();
        let shuffle = shuffle.with_elastic(controller.clone(), policy, initial);
        self.partitioned_stage(shuffle, merge, |partition| {
            ElasticReplica::new(make(partition), partition, controller.clone())
        })
    }

    fn sink_collect(self, name: impl Into<String>) -> EngineResult<SinkHandle> {
        let (sink, handle) = CollectSink::new(name);
        self.sink(sink)?;
        Ok(handle)
    }

    fn sink_timed(self, name: impl Into<String>) -> EngineResult<TimedSinkHandle> {
        let (sink, handle) = TimedSink::new(name);
        self.sink(sink)?;
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::route_values;
    use crate::source::VecSource;
    use dsms_engine::{PooledExecutor, StreamBuilder, SyncExecutor};
    use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Tuple, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("ts", DataType::Timestamp),
            ("seg", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn readings(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    schema(),
                    vec![
                        Value::Timestamp(Timestamp::from_secs(i)),
                        Value::Int(i % 5),
                        Value::Float(30.0 + (i % 20) as f64),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn select_project_aggregate_chain_runs_on_both_executors() {
        for pooled in [false, true] {
            let builder = StreamBuilder::new().with_page_capacity(8).with_queue_capacity(4);
            let results = builder
                .source(
                    VecSource::new("sensors", readings(300))
                        .with_punctuation("ts", StreamDuration::from_secs(60)),
                )
                .unwrap()
                .select(
                    "moving",
                    TuplePredicate::new("speed > 0", |t| t.float("speed").unwrap_or(0.0) > 0.0),
                )
                .unwrap()
                .window_avg("AVG", "ts", StreamDuration::from_secs(60), &["seg"], "speed")
                .unwrap()
                .project("windows-only", &["window", "avg"])
                .unwrap()
                .sink_collect("out")
                .unwrap();
            let plan = builder.build().unwrap();
            let report = if pooled {
                PooledExecutor::run(plan).unwrap()
            } else {
                SyncExecutor::run(plan).unwrap()
            };
            assert_eq!(results.lock().len(), 25, "5 windows × 5 segments, pooled={pooled}");
            assert_eq!(report.operator("AVG").unwrap().tuples_in, 300);
        }
    }

    #[test]
    fn split_and_union_roundtrip_preserves_the_stream() {
        let builder = StreamBuilder::new().with_page_capacity(8);
        let (slow, fast) = builder
            .source(VecSource::new("sensors", readings(100)))
            .unwrap()
            .split(
                "by-speed",
                TuplePredicate::new("speed < 40", |t| t.float("speed").unwrap_or(0.0) < 40.0),
            )
            .unwrap();
        let results = slow.union(fast, "reunite").unwrap().sink_collect("out").unwrap();
        let report = SyncExecutor::run(builder.build().unwrap()).unwrap();
        assert_eq!(results.lock().len(), 100, "split ∪ rest = everything");
        assert_eq!(report.operator("reunite").unwrap().tuples_out, 100);
    }

    #[test]
    fn union_lowers_to_an_exploiting_relaying_merge() {
        let builder = StreamBuilder::new();
        let (slow, fast) = builder
            .source(VecSource::new("sensors", readings(10)))
            .unwrap()
            .split("by-speed", TuplePredicate::new("speed < 40", |_| true))
            .unwrap();
        slow.union(fast, "reunite").unwrap().sink_collect("out").unwrap();
        let parts = builder.build().unwrap().into_parts();
        let node = parts.nodes.iter().find(|n| n.name == "reunite").unwrap();
        let roles = node.operator.feedback_roles();
        assert!(roles.exploits() && roles.relays(), "{roles}");
        assert!(!roles.produces(), "no disorder or elastic option set: {roles}");
    }

    #[test]
    fn union_of_mismatched_schemas_is_rejected_at_composition_time() {
        let other = Schema::shared(&[("ts", DataType::Timestamp), ("volume", DataType::Int)]);
        let builder = StreamBuilder::new();
        let left = builder.source(VecSource::new("sensors", readings(10))).unwrap();
        let right = builder.source_as(VecSource::new("volumes", Vec::new()), other).unwrap();
        let err = left.union(right, "bad-union").unwrap_err().to_string();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("`volumes`") && err.contains("`bad-union`"), "{err}");
    }

    #[test]
    fn fluent_partitioned_stage_matches_partitions() {
        for pooled in [false, true] {
            let builder = StreamBuilder::new().with_page_capacity(4).with_queue_capacity(4);
            let results = builder
                .source(VecSource::new("sensors", readings(200)))
                .unwrap()
                .partitioned("stage", &["seg"], 4, |i| {
                    // Drops every tuple whose key this replica does not own.
                    let owns = TuplePredicate::new("owns seg", move |t| {
                        route_values(&[Value::Int(t.int("seg").unwrap_or(-1))], 4) == i
                    });
                    Select::new(format!("replica-{i}"), schema(), owns)
                })
                .unwrap()
                .sink_collect("out")
                .unwrap();
            let plan = builder.build().unwrap();
            assert_eq!(
                plan.node_count(),
                2 + 4 + 2,
                "source + shuffle + 4 replicas + merge + sink"
            );
            let report = if pooled {
                PooledExecutor::run(plan).unwrap()
            } else {
                SyncExecutor::run(plan).unwrap()
            };
            assert_eq!(results.lock().len(), 200, "each key reaches its owner, pooled={pooled}");
            assert_eq!(report.total_feedback_dropped(), 0);
            let active = (0..4)
                .filter(|i| report.operator(&format!("replica-{i}")).unwrap().tuples_in > 0)
                .count();
            assert!(active > 1, "partitioning must actually spread the stream");
        }
    }

    #[test]
    fn elastic_stage_matches_the_fixed_partition_digest() {
        fn agg(i: usize) -> WindowAggregate {
            WindowAggregate::new(
                format!("replica-{i}"),
                schema(),
                "ts",
                StreamDuration::from_secs(60),
                &["seg"],
                AggregateFunction::Avg("speed".into()),
            )
            .unwrap()
        }
        fn digest(tuples: &[Tuple]) -> String {
            let mut lines: Vec<String> =
                tuples.iter().map(|t| format!("{:?}", t.values())).collect();
            lines.sort();
            lines.join("\n")
        }
        let out_schema = agg(0).output_schema().clone();
        let source = || {
            VecSource::new("sensors", readings(300))
                .with_punctuation("ts", StreamDuration::from_secs(30))
        };

        // Fixed-width baseline: all four replicas active for the whole run.
        let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
        let shuffle = Shuffle::new("stage-shuffle", schema(), &["seg"], 4).unwrap();
        let merge = Merge::new("stage-merge", out_schema.clone(), 4);
        let fixed = builder
            .source(source())
            .unwrap()
            .partitioned_stage(shuffle, merge, agg)
            .unwrap()
            .sink_collect("out")
            .unwrap();
        SyncExecutor::run(builder.build().unwrap()).unwrap();
        let expected = digest(&fixed.lock());

        // Elastic run: 1 replica, scale out to 3, then in to 2, mid-stream.
        let builder = StreamBuilder::new().with_page_capacity(2).with_queue_capacity(1);
        let shuffle = Shuffle::new("stage-shuffle", schema(), &["seg"], 4).unwrap();
        let merge = Merge::new("stage-merge", out_schema, 4);
        let elastic = builder
            .source(source())
            .unwrap()
            .elastic_stage(shuffle, merge, 1, ElasticPolicy::Scripted(vec![(2, 3), (4, 2)]), agg)
            .unwrap()
            .sink_collect("out")
            .unwrap();
        let report = SyncExecutor::run(builder.build().unwrap()).unwrap();
        assert_eq!(digest(&elastic.lock()), expected, "resizes must not change the result");
        assert_eq!(report.total_feedback_dropped(), 0);
        let stats = report.operator("stage-shuffle").unwrap().elastic.clone().unwrap();
        assert_eq!(stats.resizes, 2, "scale-out and scale-in both committed");
        assert_eq!(stats.epochs, vec![(1, 3), (2, 2)]);
        assert!(stats.migrated_groups > 0, "open groups moved at the first cut");
    }

    #[test]
    fn fluent_partitioned_rejects_single_partition_and_mismatched_endpoints() {
        let builder = StreamBuilder::new();
        let err = builder
            .source(VecSource::new("sensors", readings(10)))
            .unwrap()
            .partitioned("solo", &["seg"], 1, |i| {
                Select::new(format!("replica-{i}"), schema(), TuplePredicate::always())
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains("at least 2 partitions"), "{err}");

        let builder = StreamBuilder::new();
        let shuffle = Shuffle::new("s", schema(), &["seg"], 4).unwrap();
        let merge = Merge::new("m", schema(), 3);
        let err = builder
            .source(VecSource::new("sensors", readings(10)))
            .unwrap()
            .partitioned_stage(shuffle, merge, |i| {
                Select::new(format!("replica-{i}"), schema(), TuplePredicate::always())
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains("must agree"), "{err}");
    }
}
