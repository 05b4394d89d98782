//! Stream sources.
//!
//! Sources adapt finite, pre-generated workloads (from `dsms-workloads`) or
//! arbitrary iterators into the engine's pull-stepped source protocol.  They
//! inject embedded progress punctuation on a timestamp attribute at a
//! configurable period, mirroring how NiagaraST's stream scans punctuate on
//! application time, and they are feedback-aware: assumed feedback received
//! from downstream suppresses matching tuples *at the source*, the cheapest
//! possible exploitation.

use dsms_engine::{EngineError, EngineResult, Operator, OperatorContext, SourceState, StateEntry};
use dsms_feedback::{
    BatchGuardDecision, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles, GuardDecision,
};
use dsms_punctuation::Punctuation;
use dsms_types::{ColumnSummary, SchemaRef, StreamDuration, Timestamp, Tuple};

/// A source that replays a pre-materialized vector of tuples in order,
/// punctuating progress on a timestamp attribute.
pub struct VecSource {
    name: String,
    tuples: std::vec::IntoIter<Tuple>,
    timestamp_attribute: Option<String>,
    /// Index of `timestamp_attribute`, resolved from the first tuple's schema
    /// so the per-tuple punctuation check is a slice access, not a name
    /// lookup.
    timestamp_index: Option<usize>,
    punctuation_period: StreamDuration,
    last_punctuated: Option<Timestamp>,
    batch_size: usize,
    /// Whether each poll batch is first classified wholesale against the
    /// feedback guards via column summaries (see `poll_source`).
    batch_guards: bool,
    registry: FeedbackRegistry,
    exhausted: bool,
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

    fn maybe_punctuate(&mut self, tuple: &Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
        if self.timestamp_attribute.is_none() {
            return Ok(());
        }
        let index = match self.timestamp_index {
            Some(index) => index,
            None => {
                let attr = self.timestamp_attribute.as_deref().expect("checked above");
                let index = tuple.schema().index_of(attr).map_err(EngineError::from)?;
                self.timestamp_index = Some(index);
                index
            }
        };
        let ts = tuple.timestamp_at(index)?;
        let attr = self.timestamp_attribute.as_deref().expect("checked above");
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
    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        if self.exhausted {
            return Ok(SourceState::Exhausted);
        }
        if self.tuples.as_slice().is_empty() {
            self.exhausted = true;
            return Ok(SourceState::Exhausted);
        }
        let batch = self.batch_size.min(self.tuples.as_slice().len());
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

/// A source driven by an arbitrary iterator of [`Tuple`]s (possibly lazily
/// generated), with the same punctuation and feedback behaviour as
/// [`VecSource`], plus optional *real-time pacing*: with a pacing factor set,
/// the source releases tuples so that stream time advances at
/// `speedup × wall-clock time`, which is how live sources behave and what the
/// divergence dynamics of Experiment 1 depend on.
pub struct GeneratorSource {
    name: String,
    generator: Box<dyn Iterator<Item = Tuple> + Send>,
    timestamp_attribute: Option<String>,
    /// Index of `timestamp_attribute`, resolved from the first tuple's schema
    /// (see `VecSource::timestamp_index`).
    timestamp_index: Option<usize>,
    punctuation_period: StreamDuration,
    last_punctuated: Option<Timestamp>,
    batch_size: usize,
    registry: FeedbackRegistry,
    exhausted: bool,
    /// Stream seconds per wall-clock second (None = replay as fast as possible).
    pacing_speedup: Option<f64>,
    pacing_origin: Option<(std::time::Instant, Timestamp)>,
    pending: Option<Tuple>,
}

impl GeneratorSource {
    /// Creates a source pulling tuples from the iterator.
    pub fn new(
        name: impl Into<String>,
        generator: impl Iterator<Item = Tuple> + Send + 'static,
    ) -> Self {
        let name = name.into();
        GeneratorSource {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            generator: Box::new(generator),
            timestamp_attribute: None,
            timestamp_index: None,
            punctuation_period: StreamDuration::from_secs(60),
            last_punctuated: None,
            batch_size: 64,
            exhausted: false,
            pacing_speedup: None,
            pacing_origin: None,
            pending: None,
        }
    }

    /// Enables progress punctuation on `attribute` every `period`; as for
    /// [`VecSource::with_punctuation`], the generated tuples must be
    /// timestamp-ordered on it.
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

    /// Enables real-time pacing: stream time advances at `speedup` stream
    /// seconds per wall-clock second (requires punctuation/pacing to know the
    /// timestamp attribute via [`with_punctuation`](Self::with_punctuation)).
    pub fn with_pacing(mut self, speedup: f64) -> Self {
        self.pacing_speedup = Some(speedup.max(f64::MIN_POSITIVE));
        self
    }

    /// Returns how long the release of a tuple timestamped `ts` should still
    /// be delayed under the pacing policy.
    fn pacing_delay(&mut self, ts: Timestamp) -> Option<std::time::Duration> {
        let speedup = self.pacing_speedup?;
        let (origin_wall, origin_ts) =
            *self.pacing_origin.get_or_insert_with(|| (std::time::Instant::now(), ts));
        let stream_elapsed_ms = (ts - origin_ts).as_millis().max(0) as f64;
        let target =
            origin_wall + std::time::Duration::from_secs_f64(stream_elapsed_ms / 1_000.0 / speedup);
        let now = std::time::Instant::now();
        if now < target {
            Some(target - now)
        } else {
            None
        }
    }
}

impl Operator for GeneratorSource {
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::exploiter()
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
        let _ = self.registry.register(feedback);
        Ok(())
    }

    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        if self.exhausted {
            return Ok(SourceState::Exhausted);
        }
        for _ in 0..self.batch_size {
            match self.pending.take().or_else(|| self.generator.next()) {
                Some(tuple) => {
                    if self.timestamp_attribute.is_some() {
                        let index = match self.timestamp_index {
                            Some(index) => index,
                            None => {
                                let attr =
                                    self.timestamp_attribute.as_deref().expect("checked above");
                                let index =
                                    tuple.schema().index_of(attr).map_err(EngineError::from)?;
                                self.timestamp_index = Some(index);
                                index
                            }
                        };
                        let ts = tuple.timestamp_at(index)?;
                        if let Some(delay) = self.pacing_delay(ts) {
                            // Not yet due: hold the tuple, yield briefly so the
                            // executor keeps servicing control messages, and
                            // retry on the next poll.
                            self.pending = Some(tuple);
                            std::thread::sleep(delay.min(std::time::Duration::from_millis(1)));
                            return Ok(SourceState::Producing);
                        }
                        let boundary = ts.align_down(self.punctuation_period);
                        let due = match self.last_punctuated {
                            None => true,
                            Some(prev) => boundary > prev,
                        };
                        if due {
                            let attr = self.timestamp_attribute.as_deref().expect("checked above");
                            let watermark = boundary - StreamDuration::from_millis(1);
                            let p = Punctuation::progress(tuple.schema().clone(), attr, watermark)?;
                            self.registry.expire_with(&p);
                            ctx.emit_punctuation(0, p);
                            self.last_punctuated = Some(boundary);
                        }
                    }
                    if self.registry.decide(&tuple) == GuardDecision::Suppress {
                        continue;
                    }
                    ctx.emit(0, tuple);
                }
                None => {
                    self.exhausted = true;
                    return Ok(SourceState::Exhausted);
                }
            }
        }
        Ok(SourceState::Producing)
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Some(self.registry.stats().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    dsms_engine::StreamItem::Tuple(t) => tuples.push(t),
                    dsms_engine::StreamItem::Punctuation(_) => punctuations += 1,
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
    fn generator_source_is_equivalent_to_vec_source() {
        let data: Vec<Tuple> = (0..50).map(|i| tuple(i, i)).collect();
        let mut gen_src = GeneratorSource::new("gen", data.clone().into_iter())
            .with_punctuation("timestamp", StreamDuration::from_secs(10))
            .with_batch_size(3);
        let (tuples, punctuations) = drain(&mut gen_src);
        assert_eq!(tuples, data);
        assert!(punctuations > 0);
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
        let period = StreamDuration::from_secs(60);
        let sources: [Box<dyn Operator>; 2] = [
            Box::new(VecSource::new("vec", data.clone()).with_punctuation("timestamp", period)),
            Box::new(
                GeneratorSource::new("gen", data.clone().into_iter())
                    .with_punctuation("timestamp", period),
            ),
        ];
        for mut source in sources {
            let mut ctx = OperatorContext::new();
            for pattern in [&first_minute_of_segment_1, &segment_2] {
                let guard = FeedbackPunctuation::assumed(pattern.clone(), "sink");
                source.on_feedback(0, guard, &mut ctx).unwrap();
            }
            let (tuples, _) = drain(source.as_mut());
            let kept = |t: &Tuple| !first_minute_of_segment_1.matches(t) && !segment_2.matches(t);
            let expected: Vec<Tuple> = data.iter().filter(|t| kept(t)).cloned().collect();
            assert_eq!(tuples, expected, "{}: expiry changes no decision", source.name());
            let stats = source.feedback_stats().unwrap();
            assert_eq!(stats.guards_expired, 1, "{}: the scoped guard, once", source.name());
        }
    }

    #[test]
    fn exhausted_source_stays_exhausted() {
        let mut src = VecSource::new("s", vec![tuple(0, 0)]);
        let mut ctx = OperatorContext::new();
        while src.poll_source(&mut ctx).unwrap() != SourceState::Exhausted {}
        assert_eq!(src.poll_source(&mut ctx).unwrap(), SourceState::Exhausted);
    }
}
