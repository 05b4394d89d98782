//! Tests of hash-partitioned stages built through
//! [`StreamOps::partitioned`](crate::StreamOps::partitioned) and its
//! caller-built-endpoint variants.

#[cfg(test)]
mod tests {
    use crate::{ElasticPolicy, Merge, Select, Shuffle, StreamOps, TuplePredicate, VecSource};
    use dsms_engine::{PooledExecutor, StreamBuilder, SyncExecutor};
    use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Tuple, Value};
    use parking_lot::Mutex;
    use std::sync::Arc;

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
    fn recorder(i: usize, seen: Arc<Mutex<Vec<i64>>>) -> Select {
        let record = TuplePredicate::new("record seg", move |t| {
            seen.lock().push(t.int("seg").unwrap());
            true
        });
        Select::new(format!("replica-{i}"), schema(), record)
    }

    #[test]
    fn partitioned_stage_wires_and_runs_on_both_executors() {
        for pooled in [false, true] {
            let recorders: Vec<Arc<Mutex<Vec<i64>>>> = (0..4).map(|_| Default::default()).collect();
            let builder = StreamBuilder::new().with_page_capacity(4).with_queue_capacity(4);
            let results = builder
                .source(VecSource::new("source", tuples(200)))
                .unwrap()
                .partitioned("stage", &["seg"], 4, |i| recorder(i, recorders[i].clone()))
                .unwrap()
                .sink_collect("sink")
                .unwrap();
            let plan = builder.build().unwrap();
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
        // A merge wider than the shuffle, on both the fixed and the elastic stage.
        for elastic in [false, true] {
            let builder = StreamBuilder::new();
            let source = builder.source(VecSource::new("source", tuples(10))).unwrap();
            let shuffle = Shuffle::new("s", schema(), &["seg"], 3).unwrap();
            let merge = Merge::new("m", schema(), 4);
            let make = |i| recorder(i, Default::default());
            let err = if elastic {
                source.elastic_stage(shuffle, merge, 2, ElasticPolicy::Scripted(Vec::new()), make)
            } else {
                source.partitioned_stage(shuffle, merge, make)
            }
            .unwrap_err();
            assert!(err.to_string().contains("must agree"), "elastic={elastic}: {err}");
        }

        let builder = StreamBuilder::new();
        let err = builder
            .source(VecSource::new("source", tuples(10)))
            .unwrap()
            .partitioned("p", &["seg"], 0, |i| recorder(i, Default::default()))
            .unwrap_err();
        assert!(err.to_string().contains("at least 2 partitions"), "{err}");
    }
}
