//! Stream sources.
//!
//! [`VecSource`] adapts a finite workload — a `dsms-workloads` generator
//! collected into a vector, or any pre-built one — into the engine's
//! pull-stepped source protocol.  It injects embedded progress punctuation on
//! a timestamp attribute at a configurable period, mirroring how NiagaraST's
//! stream scans punctuate on application time; it is feedback-aware: assumed
//! feedback received from downstream suppresses matching tuples *at the
//! source*, the cheapest possible exploitation; and it can pace its release
//! in real time, as a live source would.

use dsms_engine::{EngineError, EngineResult, Operator, OperatorContext, SourceState, StateEntry};
use dsms_feedback::{
    BatchGuardDecision, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles, GuardDecision,
};
use dsms_punctuation::Punctuation;
use dsms_types::{ColumnSummary, SchemaRef, StreamDuration, Timestamp, Tuple};
use std::time::{Duration, Instant};

/// A source that replays a pre-materialized vector of tuples in order,
/// punctuating progress on a timestamp attribute and, optionally, pacing the
/// replay in real time.
pub struct VecSource {
    name: String,
    tuples: std::vec::IntoIter<Tuple>,
    timestamp_attribute: Option<String>,
    /// Index of `timestamp_attribute`, resolved from the first tuple's schema
    /// (see `resolve_index`).
    timestamp_index: Option<usize>,
    punctuation_period: StreamDuration,
    last_punctuated: Option<Timestamp>,
    batch_size: usize,
    /// Whether each poll batch is first classified wholesale against the
    /// feedback guards via column summaries (see `poll_source`).
    batch_guards: bool,
    registry: FeedbackRegistry,
    exhausted: bool,
    /// Stream seconds per wall-clock second (`None`: replay as fast as
    /// possible).
    pacing_speedup: Option<f64>,
    /// Wall-clock instant and stream time of the first paced release.
    pacing_origin: Option<(Instant, Timestamp)>,
}

impl VecSource {
    /// Creates a source named `name` replaying `tuples`.
    ///
    /// All tuples must share one schema — [`Operator::schema_out`] declares
    /// the first tuple's schema, and the builder checks every downstream edge
    /// against it, so a stray differently-schemed tuple would flow unchecked.
    pub fn new(name: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        let name = name.into();
        debug_assert!(
            tuples.windows(2).all(|w| w[0].schema() == w[1].schema()),
            "VecSource `{name}`: all replayed tuples must share one schema"
        );
        VecSource {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            tuples: tuples.into_iter(),
            timestamp_attribute: None,
            timestamp_index: None,
            punctuation_period: StreamDuration::from_secs(60),
            last_punctuated: None,
            batch_size: 64,
            batch_guards: true,
            exhausted: false,
            pacing_speedup: None,
            pacing_origin: None,
        }
    }

    /// Enables progress punctuation on `attribute` every `period` of stream
    /// time.  Tuples must be timestamp-ordered on that attribute: the
    /// punctuation asserts completeness of everything before the period
    /// boundary, and the source drops every feedback guard it releases.
    pub fn with_punctuation(
        mut self,
        attribute: impl Into<String>,
        period: StreamDuration,
    ) -> Self {
        self.timestamp_attribute = Some(attribute.into());
        self.punctuation_period = period;
        self
    }

    /// Sets how many tuples are emitted per `poll_source` call.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Enables or disables batch-level guard evaluation (default enabled):
    /// when enabled, each poll batch is classified wholesale against the
    /// feedback guards from per-column summaries, and per-tuple guard checks
    /// run only when the summaries are inconclusive.  Disabling forces the
    /// per-tuple path for every batch — useful as a scalar baseline in
    /// benches and parity tests.
    pub fn with_batch_guards(mut self, enabled: bool) -> Self {
        self.batch_guards = enabled;
        self
    }

    /// Enables real-time pacing: the source releases tuples so that stream
    /// time advances at `speedup` stream seconds per wall-clock second, which
    /// is how live sources behave and what the divergence dynamics of
    /// Experiment 1 depend on.  Pacing reads the attribute set by
    /// [`with_punctuation`](Self::with_punctuation) and is off without it.
    pub fn with_pacing(mut self, speedup: f64) -> Self {
        self.pacing_speedup = Some(speedup.max(f64::MIN_POSITIVE));
        self
    }

    /// How many of the first `batch` pending tuples are due under pacing,
    /// and — when a tuple that is not yet due cut the run short — how long
    /// that tuple still has to wait.  The clock starts at the first call;
    /// without a timestamp attribute every tuple is due.
    fn paced_run(&mut self, speedup: f64, batch: usize) -> EngineResult<(usize, Option<Duration>)> {
        let Some(attribute) = self.timestamp_attribute.as_deref() else {
            return Ok((batch, None));
        };
        let pending = &self.tuples.as_slice()[..batch];
        let index = resolve_index(&mut self.timestamp_index, attribute, &pending[0])?;
        let now = Instant::now();
        let first = pending[0].timestamp_at(index)?;
        let (origin_wall, origin_ts) = *self.pacing_origin.get_or_insert((now, first));
        for (due, tuple) in pending.iter().enumerate() {
            let stream_elapsed_ms = (tuple.timestamp_at(index)? - origin_ts).as_millis().max(0);
            let target =
                origin_wall + Duration::from_secs_f64(stream_elapsed_ms as f64 / 1_000.0 / speedup);
            if now < target {
                return Ok((due, Some(target - now)));
            }
        }
        Ok((batch, None))
    }

    fn maybe_punctuate(&mut self, tuple: &Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
        let Some(attr) = self.timestamp_attribute.as_deref() else {
            return Ok(());
        };
        let index = resolve_index(&mut self.timestamp_index, attr, tuple)?;
        let ts = tuple.timestamp_at(index)?;
        let boundary = ts.align_down(self.punctuation_period);
        let due = match self.last_punctuated {
            None => true,
            Some(prev) => boundary > prev,
        };
        if due && boundary > Timestamp::MIN {
            // Everything strictly before the boundary is complete.
            let watermark = boundary - StreamDuration::from_millis(1);
            if watermark >= Timestamp::EPOCH || self.last_punctuated.is_none() {
                let p = Punctuation::progress(tuple.schema().clone(), attr, watermark)?;
                self.registry.expire_with(&p);
                ctx.emit_punctuation(0, p);
                self.last_punctuated = Some(boundary);
            }
        }
        Ok(())
    }
}

/// The index of `attribute` in `tuple`'s schema, looked up once and cached
/// in `slot`, so the per-tuple punctuation and pacing checks are a slice
/// access, not a name lookup.
fn resolve_index(slot: &mut Option<usize>, attribute: &str, tuple: &Tuple) -> EngineResult<usize> {
    match *slot {
        Some(index) => Ok(index),
        None => {
            let index = tuple.schema().index_of(attribute).map_err(EngineError::from)?;
            *slot = Some(index);
            Ok(index)
        }
    }
}

impl Operator for VecSource {
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::exploiter()
    }

    fn schema_out(&self, _output: usize) -> Option<SchemaRef> {
        // All replayed tuples share one schema; peek at the first remaining.
        self.tuples.as_slice().first().map(|t| t.schema().clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> usize {
        0
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        _tuple: Tuple,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // Lenient registration: the source does not know the downstream
        // punctuation scheme; a guard its own progress punctuation releases
        // is dropped when that punctuation is emitted.
        let _ = self.registry.register(feedback);
        Ok(())
    }

    /// Emits one batch of tuples.  With batch guards enabled (the default),
    /// the whole batch is first classified against the feedback guards from
    /// per-column summaries of the *pending* tuples: a conclusive verdict
    /// skips every per-tuple guard check in the batch (the common case when
    /// guards constrain ranges the stream has moved past, or never enters);
    /// only inconclusive batches fall back to per-tuple `decide`.
    ///
    /// With pacing enabled the batch shrinks to the leading run of tuples
    /// that are already due; when a tuple that is not yet due ends the run,
    /// the poll sleeps for its remaining delay (at most 1 ms, so the executor
    /// keeps servicing control messages) before returning.
    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        if self.exhausted {
            return Ok(SourceState::Exhausted);
        }
        if self.tuples.as_slice().is_empty() {
            self.exhausted = true;
            return Ok(SourceState::Exhausted);
        }
        let mut batch = self.batch_size.min(self.tuples.as_slice().len());
        let mut wait = None;
        if let Some(speedup) = self.pacing_speedup {
            (batch, wait) = self.paced_run(speedup, batch)?;
            if batch == 0 {
                std::thread::sleep(wait.unwrap_or_default().min(Duration::from_millis(1)));
                return Ok(SourceState::Producing);
            }
        }
        let decision = if self.batch_guards {
            // Disjoint field borrows: the registry mutates stats while the
            // summaries read the not-yet-drained tail of the replay vector.
            let registry = &mut self.registry;
            let pending = &self.tuples.as_slice()[..batch];
            registry.decide_batch(batch, |c| ColumnSummary::over_column(pending, c))
        } else {
            BatchGuardDecision::Mixed
        };
        // Batch-level punctuation check, same spirit as the batch guard:
        // tuples are timestamp-ordered (a documented precondition of
        // `with_punctuation`), so if even the *last* tuple of the batch stays
        // within the already-punctuated period, no tuple in the batch can be
        // due — the per-tuple boundary check is skipped wholesale.
        let punctuation_skip = self.batch_guards
            && match (&self.timestamp_attribute, self.timestamp_index, self.last_punctuated) {
                (None, _, _) => true,
                (Some(_), Some(index), Some(prev)) => self.tuples.as_slice()[batch - 1]
                    .timestamp_at(index)
                    .map(|ts| ts.align_down(self.punctuation_period) <= prev)
                    .unwrap_or(false),
                _ => false,
            };
        match decision {
            BatchGuardDecision::PassAll => {
                for _ in 0..batch {
                    let tuple = self.tuples.next().expect("batch is within bounds");
                    if !punctuation_skip {
                        self.maybe_punctuate(&tuple, ctx)?;
                    }
                    ctx.emit(0, tuple);
                }
            }
            BatchGuardDecision::SuppressAll => {
                // Punctuation still derives from suppressed tuples: progress
                // is a property of the stream, not of what survives guards.
                if !punctuation_skip {
                    for _ in 0..batch {
                        let tuple = self.tuples.next().expect("batch is within bounds");
                        self.maybe_punctuate(&tuple, ctx)?;
                    }
                } else {
                    for _ in 0..batch {
                        self.tuples.next().expect("batch is within bounds");
                    }
                }
            }
            BatchGuardDecision::Mixed => {
                for _ in 0..batch {
                    let tuple = self.tuples.next().expect("batch is within bounds");
                    if !punctuation_skip {
                        self.maybe_punctuate(&tuple, ctx)?;
                    }
                    if self.registry.decide(&tuple) == GuardDecision::Suppress {
                        continue;
                    }
                    ctx.emit(0, tuple);
                }
            }
        }
        if self.tuples.as_slice().is_empty() {
            self.exhausted = true;
            return Ok(SourceState::Exhausted);
        }
        if let Some(delay) = wait {
            std::thread::sleep(delay.min(Duration::from_millis(1)));
        }
        Ok(SourceState::Producing)
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Some(self.registry.stats().clone())
    }

    fn restartable(&self) -> bool {
        true
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        Ok(vec![StateEntry {
            key: Vec::new(),
            payload: Box::new(VecSourceSnapshot {
                tuples: self.tuples.clone(),
                timestamp_index: self.timestamp_index,
                last_punctuated: self.last_punctuated,
                exhausted: self.exhausted,
                registry: self.registry.clone(),
            }),
        }])
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        // The supervisor primes an initial checkpoint before the first poll,
        // so a restore without a snapshot means the replay position is lost.
        let entry = entries.into_iter().next().ok_or_else(|| EngineError::OperatorFailed {
            operator: self.name.clone(),
            detail: "source restore requires a replay-position snapshot".into(),
        })?;
        match entry.payload.downcast::<VecSourceSnapshot>() {
            Ok(snapshot) => {
                self.tuples = snapshot.tuples;
                self.timestamp_index = snapshot.timestamp_index;
                self.last_punctuated = snapshot.last_punctuated;
                self.exhausted = snapshot.exhausted;
                self.registry = snapshot.registry;
                Ok(())
            }
            Err(_) => Err(EngineError::OperatorFailed {
                operator: self.name.clone(),
                detail: "checkpoint entry is not a source snapshot".into(),
            }),
        }
    }
}

/// Replay position and guard state captured at a checkpoint so a restarted
/// [`VecSource`] resumes exactly where the epoch boundary left it.
struct VecSourceSnapshot {
    tuples: std::vec::IntoIter<Tuple>,
    timestamp_index: Option<usize>,
    last_punctuated: Option<Timestamp>,
    exhausted: bool,
    registry: FeedbackRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::StreamItem;
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, SchemaRef, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("segment", DataType::Int)])
    }

    fn tuple(ts_secs: i64, seg: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts_secs)), Value::Int(seg)])
    }

    fn drain(source: &mut dyn Operator) -> (Vec<Tuple>, usize) {
        let mut ctx = OperatorContext::new();
        let mut tuples = Vec::new();
        let mut punctuations = 0;
        loop {
            let state = source.poll_source(&mut ctx).unwrap();
            for (_, item) in ctx.take_emitted() {
                match item {
                    StreamItem::Tuple(t) => tuples.push(t),
                    StreamItem::Punctuation(_) => punctuations += 1,
                }
            }
            if state == SourceState::Exhausted {
                break;
            }
        }
        (tuples, punctuations)
    }

    #[test]
    fn vec_source_replays_everything_in_order() {
        let data: Vec<Tuple> = (0..100).map(|i| tuple(i, i % 9)).collect();
        let mut src = VecSource::new("sensors", data.clone()).with_batch_size(7);
        let (tuples, _) = drain(&mut src);
        assert_eq!(tuples, data);
    }

    #[test]
    fn vec_source_punctuates_on_period_boundaries() {
        let data: Vec<Tuple> = (0..240).map(|i| tuple(i, 0)).collect(); // 4 minutes of seconds
        let mut src = VecSource::new("sensors", data)
            .with_punctuation("timestamp", StreamDuration::from_secs(60))
            .with_batch_size(10);
        let (tuples, punctuations) = drain(&mut src);
        assert_eq!(tuples.len(), 240);
        assert!(punctuations >= 3, "one punctuation per minute boundary (got {punctuations})");
    }

    #[test]
    fn assumed_feedback_suppresses_matching_tuples_at_the_source() {
        let data: Vec<Tuple> = (0..100).map(|i| tuple(i, i % 9)).collect();
        let mut src = VecSource::new("sensors", data);
        let mut ctx = OperatorContext::new();
        // Downstream assumes away segment 3 before the replay starts.
        src.on_feedback(
            0,
            FeedbackPunctuation::assumed(
                Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                    .unwrap(),
                "sink",
            ),
            &mut ctx,
        )
        .unwrap();
        let (tuples, _) = drain(&mut src);
        assert!(tuples.iter().all(|t| t.int("segment").unwrap() != 3));
        assert_eq!(
            tuples.len(),
            100 - 11,
            "segments 0..9 cycle over 100 tuples; 11 fall on segment 3"
        );
        assert_eq!(src.feedback_stats().unwrap().tuples_suppressed, 11);
    }

    #[test]
    fn batch_guards_match_the_scalar_path_and_count_conclusive_batches() {
        // Segment stays constant per batch, so every batch is conclusive:
        // the segment-3 batches suppress wholesale, the rest pass wholesale.
        let data: Vec<Tuple> = (0..96).map(|i| tuple(i, i / 16)).collect(); // 16-tuple runs of segments 0..=5
        let guard = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(3)))])
                .unwrap(),
            "sink",
        );
        let mut batched = VecSource::new("sensors", data.clone()).with_batch_size(16);
        let mut scalar =
            VecSource::new("sensors", data).with_batch_size(16).with_batch_guards(false);
        let mut ctx = OperatorContext::new();
        batched.on_feedback(0, guard.clone(), &mut ctx).unwrap();
        scalar.on_feedback(0, guard, &mut ctx).unwrap();
        let (batched_tuples, _) = drain(&mut batched);
        let (scalar_tuples, _) = drain(&mut scalar);
        assert_eq!(batched_tuples, scalar_tuples, "summaries change nothing observable");
        assert_eq!(batched_tuples.len(), 80);
        let batched_stats = batched.feedback_stats().unwrap();
        let scalar_stats = scalar.feedback_stats().unwrap();
        assert_eq!(batched_stats.tuples_suppressed, 16);
        assert_eq!(scalar_stats.tuples_suppressed, 16);
        assert_eq!(batched_stats.batches_summary_conclusive, 6, "every batch was conclusive");
        assert_eq!(batched_stats.batches_summary_fallback, 0);
        assert_eq!(scalar_stats.batches_summary_conclusive, 0, "scalar path never classifies");
    }

    #[test]
    fn progress_punctuation_expires_the_guards_it_releases() {
        let data: Vec<Tuple> = (0..240).map(|i| tuple(i, i % 3)).collect();
        let first_minute_of_segment_1 = Pattern::for_attributes(
            schema(),
            &[
                (
                    "timestamp",
                    PatternItem::Between(
                        Value::Timestamp(Timestamp::from_secs(0)),
                        Value::Timestamp(Timestamp::from_secs(59)),
                    ),
                ),
                ("segment", PatternItem::Eq(Value::Int(1))),
            ],
        )
        .unwrap();
        let segment_2 =
            Pattern::for_attributes(schema(), &[("segment", PatternItem::Eq(Value::Int(2)))])
                .unwrap();
        let mut source = VecSource::new("vec", data.clone())
            .with_punctuation("timestamp", StreamDuration::from_secs(60));
        let mut ctx = OperatorContext::new();
        for pattern in [&first_minute_of_segment_1, &segment_2] {
            let guard = FeedbackPunctuation::assumed(pattern.clone(), "sink");
            source.on_feedback(0, guard, &mut ctx).unwrap();
        }
        let (tuples, _) = drain(&mut source);
        let kept = |t: &Tuple| !first_minute_of_segment_1.matches(t) && !segment_2.matches(t);
        let expected: Vec<Tuple> = data.iter().filter(|t| kept(t)).cloned().collect();
        assert_eq!(tuples, expected, "expiry changes no decision");
        let stats = source.feedback_stats().unwrap();
        assert_eq!(stats.guards_expired, 1, "the scoped guard, once");
    }

    #[test]
    fn pacing_releases_no_faster_than_the_speedup() {
        // Two stream seconds of tuples, 100 ms apart, replayed at 20x: the
        // last tuple is due 100 ms of wall time after the first.
        let data: Vec<Tuple> = (0..=20)
            .map(|i| {
                Tuple::new(
                    schema(),
                    vec![Value::Timestamp(Timestamp::from_millis(i * 100)), Value::Int(i)],
                )
            })
            .collect();
        let mut src = VecSource::new("paced", data.clone())
            .with_punctuation("timestamp", StreamDuration::from_secs(1))
            .with_batch_size(4)
            .with_pacing(20.0);
        let started = std::time::Instant::now();
        let (tuples, punctuations) = drain(&mut src);
        let elapsed = started.elapsed();
        assert_eq!(tuples, data, "pacing delays tuples, it drops none");
        assert_eq!(punctuations, 3, "one per stream second, as without pacing");
        assert!(elapsed >= Duration::from_millis(100), "2 s of stream at 20x took {elapsed:?}");
    }

    #[test]
    fn restored_source_replays_an_identical_suffix() {
        use dsms_workloads::{TrafficConfig, TrafficGenerator};
        let config = TrafficConfig { segments: 3, ..TrafficConfig::small() };
        let data: Vec<Tuple> = TrafficGenerator::new(config).collect();
        assert!(data.len() > 200, "a stream long enough to cut mid-way");
        let segment_1 = Pattern::for_attributes(
            TrafficGenerator::schema(),
            &[("segment", PatternItem::Eq(Value::Int(1)))],
        )
        .unwrap();
        let mut src = VecSource::new("detectors", data)
            .with_punctuation("timestamp", StreamDuration::from_secs(60))
            .with_batch_size(16);
        let mut ctx = OperatorContext::new();
        src.on_feedback(0, FeedbackPunctuation::assumed(segment_1, "sink"), &mut ctx).unwrap();
        for _ in 0..5 {
            assert_eq!(src.poll_source(&mut ctx).unwrap(), SourceState::Producing);
        }
        ctx.take_emitted();
        assert!(src.restartable());
        let snapshot = src.checkpoint().unwrap();
        let suffix = |src: &mut VecSource| {
            let mut ctx = OperatorContext::new();
            while src.poll_source(&mut ctx).unwrap() == SourceState::Producing {}
            ctx.take_emitted()
        };
        let first = suffix(&mut src);
        src.restore(snapshot).unwrap();
        let replayed = suffix(&mut src);
        assert!(!first.is_empty());
        assert_eq!(first.len(), replayed.len());
        for ((port_a, a), (port_b, b)) in first.iter().zip(&replayed) {
            assert_eq!(port_a, port_b);
            match (a, b) {
                (StreamItem::Tuple(a), StreamItem::Tuple(b)) => assert_eq!(a, b),
                (StreamItem::Punctuation(a), StreamItem::Punctuation(b)) => {
                    assert_eq!(a.watermark_for("timestamp"), b.watermark_for("timestamp"))
                }
                _ => panic!("the replay diverged: {a:?} vs {b:?}"),
            }
        }
        assert!(replayed
            .iter()
            .all(|(_, item)| item.as_tuple().is_none_or(|t| t.int("segment").unwrap() != 1)));
    }

    #[test]
    fn exhausted_source_stays_exhausted() {
        let mut src = VecSource::new("s", vec![tuple(0, 0)]);
        let mut ctx = OperatorContext::new();
        while src.poll_source(&mut ctx).unwrap() != SourceState::Exhausted {}
        assert_eq!(src.poll_source(&mut ctx).unwrap(), SourceState::Exhausted);
    }
}
