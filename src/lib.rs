//! # feedback-dsms
//!
//! Umbrella crate for the reproduction of *"Inter-Operator Feedback in Data
//! Stream Management Systems via Punctuation"* (Fernández-Moctezuma, Tufte,
//! Li — CIDR 2009).
//!
//! The actual functionality lives in the workspace crates, re-exported here
//! for convenience so examples and downstream users can depend on a single
//! crate:
//!
//! * [`types`] — values, schemas, tuples, stream time;
//! * [`punctuation`] — embedded punctuation, pattern algebra, schemes;
//! * [`feedback`] — **the paper's contribution**: feedback punctuation
//!   (assumed `¬`, desired `?`, demanded `!`), correctness, characterizations,
//!   registries and policies;
//! * [`engine`] — the NiagaraST-style push engine (pages, control channels,
//!   executors);
//! * [`operators`] — the feedback-aware operator library;
//! * [`manager`] — the multi-query [`prelude::PipelineManager`]: shared
//!   named sources, prefix deduplication, runtime query lifecycle with
//!   per-query feedback isolation (see `docs/PIPELINES.md`);
//! * [`workloads`] — deterministic synthetic workload generators.
//!
//! See `examples/quickstart.rs` for a first end-to-end query and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction map.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use dsms_engine as engine;
pub use dsms_feedback as feedback;
pub use dsms_manager as manager;
pub use dsms_operators as operators;
pub use dsms_punctuation as punctuation;
pub use dsms_types as types;
pub use dsms_workloads as workloads;

/// Commonly used items, for glob import in examples and tests.
///
/// # Examples
///
/// A first end-to-end query: replay a small stream, filter it, collect the
/// results, and run the same plan on both executors.
///
/// ```
/// use feedback_dsms::prelude::*;
///
/// let schema = Schema::shared(&[("ts", DataType::Timestamp), ("v", DataType::Int)]);
/// let tuples: Vec<Tuple> = (0..50)
///     .map(|i| {
///         Tuple::new(
///             schema.clone(),
///             vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % 5)],
///         )
///     })
///     .collect();
///
/// for pooled in [false, true] {
///     let builder = StreamBuilder::new().with_page_capacity(8);
///     let results = builder
///         .source(VecSource::new("source", tuples.clone()))?
///         .select("select", TuplePredicate::new("v != 0", |t| t.int("v").unwrap_or(0) != 0))?
///         .sink_collect("sink")?;
///     let plan = builder.build()?;
///
///     let report =
///         if pooled { PooledExecutor::run(plan)? } else { SyncExecutor::run(plan)? };
///     assert_eq!(results.lock().len(), 40);
///     assert_eq!(report.total_feedback_dropped(), 0);
/// }
/// # Ok::<(), feedback_dsms::engine::EngineError>(())
/// ```
pub mod prelude {
    pub use dsms_engine::{
        ExecutionReport, Operator, OperatorContext, PooledExecutor, QueryPlan, RecoveryPolicy,
        RecoverySummary, SourceState, Stream, StreamBuilder, StreamItem, SyncExecutor,
    };
    pub use dsms_feedback::{
        ExplicitPolicy, FeedbackIntent, FeedbackMerge, FeedbackPunctuation, FeedbackRegistry,
        FeedbackRoles, FeedbackSpec, FeedbackTrigger, GuardDecision,
    };
    pub use dsms_manager::{
        ExecutorKind, ManagerOutcome, ManagerSummary, PipelineManager, QueryReport, QueryState,
        SourceRef,
    };
    pub use dsms_operators::{
        AggregateFunction, ArchivalStore, Chaos, CollectSink, Costed, Duplicate, ElasticController,
        ElasticPolicy, ElasticReplica, FanoutController, FaultSpec, ImpatientJoin, Impute, Merge,
        OnDemandGate, Prioritizer, Project, QualityFilter, Select, SharedFanout, Shuffle, Split,
        StreamOps, SymmetricHashJoin, ThriftyJoin, TimedSink, TuplePredicate, VecSource,
        WindowAggregate,
    };
    pub use dsms_punctuation::{
        CompiledPattern, Pattern, PatternItem, Punctuation, PunctuationScheme,
    };
    pub use dsms_types::{
        fixed_hash, DataType, Field, FixedHasher, FixedState, Schema, SchemaRef, StreamDuration,
        Timestamp, Tuple, TupleBuilder, Value,
    };
}

#[cfg(test)]
mod tests {
    /// Every prelude re-export must compile and resolve; this also drives a
    /// tiny plan end-to-end on both executors, so a broken re-export of any
    /// engine or operator type fails here rather than in downstream users.
    #[test]
    fn prelude_reexports_compile_and_resolve() {
        use crate::prelude::*;

        let schema = Schema::shared(&[("ts", DataType::Timestamp), ("v", DataType::Int)]);
        let tuple =
            Tuple::new(schema.clone(), vec![Value::Timestamp(Timestamp::EPOCH), Value::Int(1)]);
        let built = TupleBuilder::new(schema.clone())
            .set("ts", Value::Timestamp(Timestamp::EPOCH))
            .unwrap()
            .set("v", Value::Int(1))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(tuple, built);

        let pattern = Pattern::all_wildcards(schema.clone());
        assert!(pattern.matches(&tuple));
        let feedback = FeedbackPunctuation::assumed(pattern.clone(), "test");
        assert_eq!(feedback.intent(), FeedbackIntent::Assumed);

        let mut registry = FeedbackRegistry::new("test");
        registry.register(feedback).unwrap();
        assert_eq!(registry.active_assumed(), 1);
        assert!(matches!(registry.decide(&tuple), GuardDecision::Suppress));

        let scheme = PunctuationScheme::undelimited(schema.clone());
        assert!(!scheme.is_delimited("ts").unwrap());
        let punctuation = Punctuation::progress(schema.clone(), "ts", Timestamp::EPOCH).unwrap();
        let _: &PatternItem = punctuation.pattern().item_for("ts").unwrap();

        // A minimal source -> select -> sink plan, composed with the fluent
        // builder and run on both executors.
        let run = |pooled: bool| -> ExecutionReport {
            let tuples: Vec<Tuple> = (0..20)
                .map(|i| {
                    Tuple::new(
                        schema.clone(),
                        vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i % 4)],
                    )
                })
                .collect();
            let builder = StreamBuilder::new().with_page_capacity(4);
            let results = builder
                .source(
                    VecSource::new("source", tuples)
                        .with_punctuation("ts", StreamDuration::from_secs(5))
                        .with_batch_size(4),
                )
                .unwrap()
                .select("select", TuplePredicate::new("v >= 1", |t| t.int("v").unwrap_or(0) >= 1))
                .unwrap()
                .sink_collect("sink")
                .unwrap();
            let plan = builder.build().unwrap();
            let report = if pooled {
                PooledExecutor::run(plan).unwrap()
            } else {
                SyncExecutor::run(plan).unwrap()
            };
            assert_eq!(results.lock().len(), 15, "pooled={pooled}");
            report
        };
        for pooled in [false, true] {
            let report = run(pooled);
            let source_metrics = report.operator("source").unwrap();
            assert_eq!(source_metrics.tuples_out, 20);
        }

        // The remaining prelude operators must at least construct through the
        // re-exported paths (drift in any manifest or rename breaks this).
        let _ = Project::new("project", schema.clone(), &["v"]).unwrap();
        let _ = Duplicate::new("dup", schema.clone(), 2);
        let _ = Split::new(
            "split",
            schema.clone(),
            TuplePredicate::new("v >= 2", |t| t.int("v").unwrap_or(0) >= 2),
        );
        let _ = Prioritizer::new("prio", schema.clone(), 4);
        let _ = QualityFilter::new(
            "qf",
            schema.clone(),
            TuplePredicate::new("ok", |_| true),
            std::time::Duration::from_micros(1),
        );
        let _ = OnDemandGate::new("gate", schema.clone(), 8);
        let _ = WindowAggregate::new(
            "COUNT",
            schema.clone(),
            "ts",
            StreamDuration::from_secs(60),
            &[],
            AggregateFunction::Count,
        )
        .unwrap();
        let _ = SymmetricHashJoin::new(
            "join",
            schema.clone(),
            schema.clone(),
            &["v"],
            "ts",
            StreamDuration::from_secs(60),
        )
        .unwrap();
        let _ = ArchivalStore::synthetic(std::time::Duration::from_micros(1), 40.0);
        let _ = Shuffle::new("shuffle", schema.clone(), &["v"], 2).unwrap();
        let _ = Merge::new("merge", schema.clone(), 2);
        let _ = VecSource::new("paced", Vec::new()).with_pacing(10.0);
        let _ = Costed::blocking_io(
            Select::new("costed", schema.clone(), TuplePredicate::always()),
            std::time::Duration::ZERO,
        );
        // Builder-layer re-exports: roles, specs, and the fluent types.
        assert!(FeedbackRoles::exploiter().accepts_feedback());
        let spec = FeedbackSpec::assumed(Pattern::all_wildcards(schema.clone())).after_tuples(3);
        assert_eq!(spec.trigger(), FeedbackTrigger::AfterTuples(3));
        let builder = StreamBuilder::new();
        let stream: Stream =
            builder.source_as(VecSource::new("probe", Vec::new()), schema.clone()).unwrap();
        assert_eq!(stream.producer(), "probe");
        drop(stream);
        let _ = builder.build().unwrap();

        let mut fb_merge = FeedbackMerge::new(2);
        assert!(fb_merge
            .assert_from(
                0,
                FeedbackPunctuation::assumed(Pattern::all_wildcards(schema.clone()), "x")
            )
            .is_none());
        let state: SourceState = SourceState::Exhausted;
        assert!(matches!(state, SourceState::Exhausted));
        let item = StreamItem::Tuple(tuple);
        assert!(matches!(item, StreamItem::Tuple(_)));

        // Manager-layer re-exports: a two-query run over one shared source.
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| {
                Tuple::new(
                    schema.clone(),
                    vec![Value::Timestamp(Timestamp::from_secs(i)), Value::Int(i)],
                )
            })
            .collect();
        let mut pipeline_manager = PipelineManager::new();
        pipeline_manager.add_source("feed", VecSource::new("feed", tuples)).unwrap();
        let source_ref: SourceRef = pipeline_manager.source_ref("feed").unwrap();
        drop(source_ref);
        for name in ["qa", "qb"] {
            let builder = StreamBuilder::new();
            builder
                .source(pipeline_manager.source_ref("feed").unwrap())
                .unwrap()
                .select("evens", TuplePredicate::new("even", |t| t.int("v").unwrap_or(0) % 2 == 0))
                .unwrap()
                .sink_collect("sink")
                .unwrap();
            pipeline_manager.register(name, builder.build().unwrap()).unwrap();
        }
        assert_eq!(pipeline_manager.query_state("qa"), Some(QueryState::Attached));
        let outcome: ManagerOutcome = pipeline_manager.run(ExecutorKind::Sync).unwrap();
        let summary: &ManagerSummary = &outcome.summary;
        assert_eq!(summary.queries_active, 2);
        assert!(summary.shared_prefix_hits > 0);
        let query_report: &QueryReport = &outcome.queries[0];
        assert_eq!(query_report.name, "qa");
        let _ = SharedFanout::new("fanout", schema.clone(), 2);
        let _ = FanoutController::shared();
    }

    /// Every public module re-export (`types`, `punctuation`, `feedback`,
    /// `engine`, `operators`, `workloads`) must resolve through the umbrella
    /// paths, catching future manifest or crate-name drift at compile time.
    #[test]
    fn module_reexports_resolve_through_umbrella_paths() {
        let schema = crate::types::Schema::shared(&[("segment", crate::types::DataType::Int)]);
        let tuple = crate::types::Tuple::new(schema.clone(), vec![crate::types::Value::Int(3)]);

        let pattern = crate::punctuation::Pattern::all_wildcards(schema.clone());
        assert!(pattern.matches(&tuple));

        let feedback = crate::feedback::FeedbackPunctuation::desired(pattern, "umbrella");
        assert_eq!(feedback.intent(), crate::feedback::FeedbackIntent::Desired);

        let plan = crate::engine::QueryPlan::new();
        assert_eq!(plan.node_count(), 0);

        let _ = crate::operators::Select::new(
            "select",
            schema,
            crate::operators::TuplePredicate::new("any", |_| true),
        );

        let config = crate::workloads::TrafficConfig::small();
        let generated = crate::workloads::TrafficGenerator::new(config).count();
        assert!(generated > 0, "the small traffic workload must produce tuples");
    }
}
