//! MERGE: order-insensitive union of N streams of one schema — the paper's
//! UNION and PACE, and the collect side of a partitioned stage.
//!
//! Inputs are interleaved in arrival order.  For a partitioned stage the hash
//! route guarantees that any one group's tuples all arrive on the same input,
//! so the interleaving reproduces the single-replica output as a multiset.
//! Punctuation follows the classic union rule: a subset of the output is
//! complete only once **every** input has declared it complete, so the merge
//! emits the minimum of the per-input watermarks and absorbs per-input
//! punctuation when no progress attribute is set.
//!
//! The merge knows nothing of elastic stages.  Their shuffle sends progress
//! punctuation to every replica, dormant ones included, so the plain minimum
//! over all inputs stays correct at any active width, and a migration marker
//! (which asserts no watermark) is absorbed like any per-input punctuation.
//!
//! The merge point is where cross-input feedback semantics live on the
//! downstream side:
//!
//! * Feedback received from the merge's consumer guards the merge's output
//!   and is **broadcast** upstream, one copy on each of the N inputs — the
//!   merged stream is the union of the input streams, so a subset disclaimed
//!   (or desired, or demanded) downstream applies to each input equally.
//! * With a [disorder-bound policy](dsms_feedback::ExplicitPolicy) attached,
//!   the merge is PACE (paper Example 3) and also *originates* feedback
//!   (Section 3.3, explicit source).  Its high watermark is the largest
//!   timestamp any input has shown, by tuple or by punctuation.  An arrival
//!   older than `high_watermark − tolerance` is dropped, and assumed
//!   feedback goes to every input: by default `¬[attribute < high_watermark
//!   − tolerance]`, the subset the bound drops (a partition fan-in, whose
//!   replicas drain at different speeds), or `¬[attribute < high_watermark]`,
//!   the paper's PACE form (Experiment 1, sparing IMPUTE's lookups).

use crate::common::{guarded_pass, MinWatermark};
use dsms_engine::{EngineResult, Operator, OperatorContext, Page};
use dsms_feedback::{
    BatchGuardDecision, ExplicitPolicy, FeedbackPunctuation, FeedbackRegistry, FeedbackRoles,
    GuardDecision,
};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, StreamDuration, Timestamp, Tuple};

/// Merges `inputs` streams of identical schema into one, with cross-input
/// feedback handling (see the module docs).
pub struct Merge {
    name: String,
    schema: SchemaRef,
    inputs: usize,
    /// The attribute progress punctuation is tracked on (if any).
    progress_attribute: Option<String>,
    /// Combined per-input progress watermark (min across inputs).
    progress: MinWatermark,
    /// Optional disorder bound making the merge a feedback *source*.
    disorder: Option<ExplicitPolicy>,
    high_watermark: Option<Timestamp>,
    last_feedback_cutoff: Option<Timestamp>,
    feedback_granularity: StreamDuration,
    late_dropped: u64,
    registry: FeedbackRegistry,
}

impl Merge {
    /// Creates a merge over `inputs` streams of the given schema (clamped to
    /// at least 2 inputs).
    pub fn new(name: impl Into<String>, schema: SchemaRef, inputs: usize) -> Self {
        let name = name.into();
        let inputs = inputs.max(2);
        Merge {
            registry: FeedbackRegistry::new(name.clone()),
            name,
            schema,
            inputs,
            progress_attribute: None,
            progress: MinWatermark::new(inputs),
            disorder: None,
            high_watermark: None,
            last_feedback_cutoff: None,
            feedback_granularity: StreamDuration::from_secs(0),
            late_dropped: 0,
        }
    }

    /// Enables combined progress-punctuation handling on the named timestamp
    /// attribute: the merge emits progress punctuation at the minimum of its
    /// inputs' watermarks.
    pub fn with_progress_on(mut self, attribute: impl Into<String>) -> Self {
        self.progress_attribute = Some(attribute.into());
        self
    }

    /// Attaches a disorder-bound policy: arrivals older than
    /// `high_watermark − tolerance` are dropped and the subset the policy
    /// assumes away is broadcast as feedback to **every** input.  At most one
    /// feedback message is issued per `granularity` of cutoff advance, so a
    /// burst of late tuples does not flood the control channels.
    pub fn with_disorder_policy(
        mut self,
        policy: ExplicitPolicy,
        granularity: StreamDuration,
    ) -> Self {
        self.disorder = Some(policy);
        self.feedback_granularity = granularity;
        self
    }

    /// The stream schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Tuples dropped for violating the disorder bound.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Applies the disorder policy to one arrival.  Returns `true` when the
    /// tuple is too late and was handled (dropped, feedback possibly sent).
    fn enforce_disorder(&mut self, tuple: &Tuple, ctx: &mut OperatorContext) -> EngineResult<bool> {
        let Some(policy) = self.disorder.as_ref() else {
            return Ok(false);
        };
        let ts = tuple.timestamp(&policy.attribute)?;
        let hw = self.high_watermark.map(|w| w.max(ts)).unwrap_or(ts);
        self.high_watermark = Some(hw);
        if !policy.violated(hw, ts) {
            return Ok(false);
        }
        self.late_dropped += 1;
        let cutoff = policy.cutoff(hw);
        let due = match self.last_feedback_cutoff {
            None => true,
            Some(prev) => cutoff - prev >= self.feedback_granularity,
        };
        if due {
            self.last_feedback_cutoff = Some(cutoff);
            let feedback = policy.feedback(self.schema.clone(), hw, &self.name)?;
            self.registry.stats_mut().issued.record(feedback.intent());
            send_to_every_input(self.inputs, feedback, ctx);
        }
        Ok(true)
    }
}

/// Sends `feedback` upstream on each of the merge's `inputs` ports; the last
/// port receives the original, so N inputs cost N−1 clones.
fn send_to_every_input(inputs: usize, feedback: FeedbackPunctuation, ctx: &mut OperatorContext) {
    for input in 0..inputs - 1 {
        ctx.send_feedback(input, feedback.clone());
    }
    ctx.send_feedback(inputs - 1, feedback);
}

impl Operator for Merge {
    fn feedback_roles(&self) -> FeedbackRoles {
        let roles = FeedbackRoles::exploiter().with_relayer();
        if self.disorder.is_some() {
            roles.with_producer()
        } else {
            roles
        }
    }

    fn schema_in(&self, _input: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn schema_out(&self, _output: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> usize {
        self.inputs
    }

    fn on_tuple(
        &mut self,
        _input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if self.registry.decide(&tuple) == GuardDecision::Suppress {
            return Ok(());
        }
        if self.enforce_disorder(&tuple, ctx)? {
            return Ok(());
        }
        ctx.emit(0, tuple);
        Ok(())
    }

    /// Batch path: a punctuation-free page whose column summaries prove every
    /// row clear of the guards is forwarded intact, so fan-in plans keep
    /// upstream batching.  Every other page takes the single pass: per-input
    /// punctuation must go through the min-watermark combine, and with a
    /// disorder policy every unsuppressed arrival must reach
    /// `enforce_disorder`.
    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        let decision = self.registry.decide_batch(page.tuple_count(), |c| page.column_summary(c));
        if decision == BatchGuardDecision::PassAll
            && self.disorder.is_none()
            && page.punctuation_count() == 0
        {
            ctx.emit_page(0, page);
            return Ok(());
        }
        guarded_pass(self, input, page, decision, ctx, |merge, tuple, ctx| {
            if !merge.enforce_disorder(&tuple, ctx)? {
                ctx.emit(0, tuple);
            }
            Ok(())
        })
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        if let Some(policy) = &self.disorder {
            if let Some(w) = punctuation.watermark_for(&policy.attribute) {
                self.high_watermark = Some(self.high_watermark.map_or(w, |hw| hw.max(w)));
            }
        }
        if let Some(attr) = &self.progress_attribute {
            if let Some(w) = punctuation.watermark_for(attr) {
                if let Some(combined) = self.progress.observe(input, w) {
                    // Only the combined punctuation covers every input.
                    let combined = Punctuation::progress(self.schema.clone(), attr, combined)?;
                    self.registry.expire_with(&combined);
                    ctx.emit_punctuation(0, combined);
                }
            }
        }
        // A per-input punctuation is never forwarded (the other inputs may
        // still produce matching tuples), so it is absorbed.
        Ok(())
    }

    fn on_feedback(
        &mut self,
        _output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        // The merged stream is the union of the replica streams, so any
        // feedback from the consumer applies to every replica: broadcast the
        // relay upstream on all inputs.
        self.registry.stats_mut().relayed.record(feedback.intent());
        send_to_every_input(
            self.inputs,
            feedback.relay(feedback.pattern().clone(), &self.name),
            ctx,
        );
        let _ = self.registry.register(feedback);
        Ok(())
    }

    fn feedback_stats(&self) -> Option<dsms_feedback::FeedbackStats> {
        Some(self.registry.stats().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_engine::StreamItem;
    use dsms_punctuation::{Pattern, PatternItem};
    use dsms_types::{DataType, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
    }

    fn tuple(ts: i64, v: i64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(ts)), Value::Int(v)])
    }

    fn progress(ts: i64) -> Punctuation {
        Punctuation::progress(schema(), "timestamp", Timestamp::from_secs(ts)).unwrap()
    }

    #[test]
    fn merge_interleaves_inputs_in_arrival_order() {
        let mut op = Merge::new("merge", schema(), 3);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(1, 10), &mut ctx).unwrap();
        op.on_tuple(2, tuple(2, 20), &mut ctx).unwrap();
        op.on_tuple(1, tuple(3, 30), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 3);
        assert!(emitted.iter().all(|(port, _)| *port == 0));
    }

    #[test]
    fn progress_punctuation_is_the_minimum_across_inputs() {
        let mut op = Merge::new("merge", schema(), 2).with_progress_on("timestamp");
        let mut ctx = OperatorContext::new();
        op.on_punctuation(0, progress(100), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "second input has not punctuated");
        op.on_punctuation(1, progress(70), &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1);
        match &emitted[0].1 {
            StreamItem::Punctuation(p) => {
                assert_eq!(p.watermark_for("timestamp"), Some(Timestamp::from_secs(70)))
            }
            other => panic!("expected punctuation, got {other:?}"),
        }
        // Without progress tracking, punctuation is absorbed.
        let mut plain = Merge::new("merge", schema(), 2);
        plain.on_punctuation(0, progress(10), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
    }

    #[test]
    fn downstream_feedback_is_broadcast_to_every_replica() {
        let mut op = Merge::new("merge", schema(), 4);
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("v", PatternItem::Ge(Value::Int(100)))]).unwrap(),
            "sink",
        );
        op.on_feedback(0, fb.clone(), &mut ctx).unwrap();
        let sent = ctx.take_feedback();
        let ports: Vec<usize> = sent.iter().map(|(input, _)| *input).collect();
        assert_eq!(ports, vec![0, 1, 2, 3], "one message per input");
        for (_, relayed) in &sent {
            assert_eq!(relayed.id(), fb.id(), "lineage preserved");
            assert_eq!(relayed.issuer(), "merge");
        }

        // The merge also guards its own output.
        op.on_tuple(0, tuple(1, 150), &mut ctx).unwrap(); // suppressed
        op.on_tuple(1, tuple(1, 50), &mut ctx).unwrap(); // passes
        assert_eq!(ctx.take_emitted().len(), 1);
    }

    #[test]
    fn disorder_policy_drops_late_arrivals_and_issues_feedback() {
        let policy = ExplicitPolicy::disorder_bound("timestamp", StreamDuration::from_secs(60));
        let mut op = Merge::new("merge", schema(), 2)
            .with_disorder_policy(policy, StreamDuration::from_secs(30));
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(600, 1), &mut ctx).unwrap(); // sets the watermark
        op.on_tuple(1, tuple(590, 2), &mut ctx).unwrap(); // within tolerance
        assert_eq!(ctx.take_emitted().len(), 2);
        assert!(ctx.take_feedback().is_empty());

        op.on_tuple(1, tuple(100, 3), &mut ctx).unwrap(); // far too late
        assert!(ctx.take_emitted().is_empty(), "late arrival dropped");
        assert_eq!(op.late_dropped(), 1);
        let feedback = ctx.take_feedback();
        let ports: Vec<usize> = feedback.iter().map(|(input, _)| *input).collect();
        assert_eq!(ports, vec![0, 1], "too-late subset sent to every replica");
        assert!(feedback[0].1.pattern().matches(&tuple(100, 3)));
        assert!(!feedback[0].1.pattern().matches(&tuple(590, 0)));

        // Cadence: another late tuple at the same cutoff is dropped silently.
        op.on_tuple(0, tuple(101, 4), &mut ctx).unwrap();
        assert_eq!(op.late_dropped(), 2);
        assert!(ctx.take_feedback().is_empty(), "within feedback granularity");
        assert_eq!(op.feedback_stats().unwrap().issued.assumed, 1);

        // Once the cutoff has advanced by the granularity, the next drop
        // issues again.
        op.on_tuple(0, tuple(630, 5), &mut ctx).unwrap();
        op.on_tuple(1, tuple(102, 6), &mut ctx).unwrap();
        assert_eq!(ctx.take_feedback().len(), 2, "one more message per input");
        assert_eq!(op.feedback_stats().unwrap().issued.assumed, 2);
    }

    fn pace(tolerance_secs: i64) -> Merge {
        let policy =
            ExplicitPolicy::disorder_bound("timestamp", StreamDuration::from_secs(tolerance_secs))
                .assume_up_to_watermark();
        Merge::new("PACE", schema(), 2).with_disorder_policy(policy, StreamDuration::from_secs(1))
    }

    #[test]
    fn pace_form_feedback_describes_everything_below_the_watermark() {
        let mut op = pace(60);
        let mut ctx = OperatorContext::new();
        op.on_tuple(1, tuple(200, 1), &mut ctx).unwrap(); // the watermark is 200
        op.on_tuple(0, tuple(100, 2), &mut ctx).unwrap(); // 100 < 200 − 60: late
        assert_eq!(ctx.take_emitted().len(), 1, "only the timely tuple is emitted");
        assert_eq!(op.late_dropped(), 1);
        let feedback = ctx.take_feedback();
        assert_eq!(feedback.len(), 2, "sent to every input");
        let fb = &feedback[0].1;
        assert!(fb.describes(&tuple(100, 0)));
        assert!(fb.describes(&tuple(150, 0)), "the tolerance band is assumed away too");
        assert!(!fb.describes(&tuple(250, 0)));
    }

    fn cutoff_policy(tolerance_secs: i64, granularity_secs: i64) -> Merge {
        let policy =
            ExplicitPolicy::disorder_bound("timestamp", StreamDuration::from_secs(tolerance_secs));
        Merge::new("merge", schema(), 2)
            .with_disorder_policy(policy, StreamDuration::from_secs(granularity_secs))
    }

    #[test]
    fn timely_tuples_pass_through_the_disorder_policy() {
        let mut op = cutoff_policy(60, 1);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(100, 1), &mut ctx).unwrap();
        op.on_tuple(1, tuple(80, 2), &mut ctx).unwrap(); // within 60s of 100
        assert_eq!(ctx.take_emitted().len(), 2);
        assert_eq!(op.late_dropped(), 0);
        assert!(ctx.take_feedback().is_empty());
    }

    #[test]
    fn cutoff_feedback_describes_only_the_dropped_subset() {
        let mut op = cutoff_policy(60, 1);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(200, 1), &mut ctx).unwrap();
        op.on_tuple(1, tuple(100, 2), &mut ctx).unwrap();
        let feedback = ctx.take_feedback();
        assert_eq!(feedback.len(), 2, "sent to every input");
        let fb = &feedback[0].1;
        assert!(fb.describes(&tuple(100, 0)), "below hw − tolerance");
        assert!(!fb.describes(&tuple(150, 0)), "within the tolerance band is not assumed away");
    }

    #[test]
    fn disorder_feedback_is_throttled_by_granularity() {
        let mut op = cutoff_policy(60, 30);
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(200, 1), &mut ctx).unwrap();
        op.on_tuple(1, tuple(100, 2), &mut ctx).unwrap(); // feedback #1 (cutoff 140)
        op.on_tuple(0, tuple(210, 3), &mut ctx).unwrap();
        op.on_tuple(1, tuple(101, 4), &mut ctx).unwrap(); // cutoff 150, advance 10 < 30: throttled
        op.on_tuple(0, tuple(300, 5), &mut ctx).unwrap();
        op.on_tuple(1, tuple(102, 6), &mut ctx).unwrap(); // cutoff 240, advance 100: feedback #2
        assert_eq!(op.late_dropped(), 3);
        assert_eq!(ctx.take_feedback().len(), 4, "two rounds, one message per input each");
        assert_eq!(op.feedback_stats().unwrap().issued.assumed, 2);
    }

    #[test]
    fn punctuation_advances_the_disorder_watermark() {
        let mut op = pace(60);
        let mut ctx = OperatorContext::new();
        op.on_punctuation(1, progress(500), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "absorbed without progress tracking");
        op.on_tuple(0, tuple(100, 1), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "late w.r.t. the punctuated watermark");
        assert_eq!(op.late_dropped(), 1);
    }

    #[test]
    fn disorder_policy_sees_every_row_of_a_clear_page() {
        let policy = ExplicitPolicy::disorder_bound("timestamp", StreamDuration::from_secs(60));
        let mut op = Merge::new("merge", schema(), 2)
            .with_disorder_policy(policy, StreamDuration::from_secs(30));
        let mut ctx = OperatorContext::new();
        op.on_tuple(0, tuple(600, 1), &mut ctx).unwrap(); // the fast input sets the watermark
        assert_eq!(ctx.take_emitted().len(), 1);
        // A clear, punctuation-free page from the lagging input: the page is
        // not forwarded whole, because its late rows must still be dropped.
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(100, 2)),
            StreamItem::Tuple(tuple(590, 3)),
        ]);
        op.on_page(1, page, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 1, "the late row is dropped, the timely one passes");
        assert_eq!(emitted[0].1.as_tuple().unwrap().int("v").unwrap(), 3);
        assert_eq!(op.late_dropped(), 1);
        let feedback = ctx.take_feedback();
        let ports: Vec<usize> = feedback.iter().map(|(input, _)| *input).collect();
        assert_eq!(ports, vec![0, 1], "¬[timestamp < cutoff] sent to every input");
        assert!(feedback[0].1.pattern().matches(&tuple(100, 0)));
        assert!(!feedback[0].1.pattern().matches(&tuple(590, 0)));
    }

    /// Runs a two-input disorder merge over `arrivals`, (input, tuple) pairs
    /// in arrival order.  Returns the output and the feedback sent to input
    /// 1, each message with the index of the arrival that caused it.
    fn run_disorder_merge(
        policy: &ExplicitPolicy,
        granularity_secs: i64,
        arrivals: &[(usize, Tuple)],
    ) -> (Vec<Tuple>, Vec<(usize, FeedbackPunctuation)>) {
        let mut op = Merge::new("PACE", schema(), 2)
            .with_disorder_policy(policy.clone(), StreamDuration::from_secs(granularity_secs));
        let mut ctx = OperatorContext::new();
        let (mut output, mut issued) = (Vec::new(), Vec::new());
        for (at, (input, tuple)) in arrivals.iter().enumerate() {
            op.on_tuple(*input, tuple.clone(), &mut ctx).unwrap();
            output
                .extend(ctx.take_emitted().iter().filter_map(|(_, item)| item.as_tuple().cloned()));
            issued.extend(
                ctx.take_feedback()
                    .into_iter()
                    .filter(|(port, _)| *port == 1)
                    .map(|(_, f)| (at, f)),
            );
        }
        (output, issued)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Definition 2 for the merge's own feedback: when input 1 stops
        /// producing every later tuple an issued message describes, the
        /// output is a correct exploitation of that feedback — and, for the
        /// default subset, which the bound drops anyway, it is unchanged.
        #[test]
        fn lagging_input_honouring_the_feedback_is_safe(
            schedule in proptest::collection::vec((0usize..2, 0i64..40), 1..80),
            tolerance in 1i64..30,
            granularity in 0i64..20,
            up_to_watermark in 0usize..2,
        ) {
            // Every tuple is distinct (`v` is its arrival index), and each
            // input's clock advances on its own, so either may lag or lead.
            let mut clocks = [0i64; 2];
            let arrivals: Vec<(usize, Tuple)> = schedule
                .iter()
                .enumerate()
                .map(|(v, &(input, step))| {
                    clocks[input] += step;
                    (input, tuple(clocks[input], v as i64))
                })
                .collect();
            let mut policy =
                ExplicitPolicy::disorder_bound("timestamp", StreamDuration::from_secs(tolerance));
            if up_to_watermark == 1 {
                policy = policy.assume_up_to_watermark();
            }
            let (reference, issued) = run_disorder_merge(&policy, granularity, &arrivals);
            // The cutoff only grows, so the last message describes every
            // earlier one's subset.
            if let Some((_, last)) = issued.last() {
                let lagging = |keep: &dyn Fn(usize, &Tuple) -> bool| -> Vec<Tuple> {
                    arrivals
                        .iter()
                        .enumerate()
                        .filter(|(at, (input, t))| *input == 1 && keep(*at, t))
                        .map(|(_, (_, t))| t.clone())
                        .collect()
                };
                let full = lagging(&|_, _| true);
                let reduced = lagging(&|at, t| !issued.iter().any(|(i, f)| *i < at && f.describes(t)));
                // The merge as a function of its lagging input, with input 0
                // and the arrival order held fixed.
                let apply = |input_1: &[Tuple]| {
                    let mut rest = input_1.iter().peekable();
                    let replay: Vec<(usize, Tuple)> = arrivals
                        .iter()
                        .filter(|(input, t)| *input == 0 || rest.next_if(|r| *r == t).is_some())
                        .cloned()
                        .collect();
                    run_disorder_merge(&policy, granularity, &replay).0
                };
                let report =
                    dsms_feedback::check_safe_propagation(&full, &reduced, last, last, apply)
                        .unwrap();
                proptest::prop_assert!(report.is_correct(), "{report:?}");
                if !policy.up_to_watermark {
                    proptest::prop_assert_eq!(apply(&reduced), reference);
                }
            }
        }
    }

    #[test]
    fn construction_clamps_and_exposes_schema() {
        let op = Merge::new("merge", schema(), 0);
        assert_eq!(op.inputs(), 2, "clamped to two inputs");
        assert_eq!(op.schema().arity(), 2);
        assert_eq!(op.late_dropped(), 0);
    }

    #[test]
    fn punctuation_is_absorbed_without_progress_tracking() {
        let mut op = Merge::new("union", schema(), 2);
        let mut ctx = OperatorContext::new();
        op.on_punctuation(0, progress(100), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
    }

    #[test]
    fn clear_punctuation_free_pages_pass_through_intact() {
        use dsms_engine::Emission;
        let mut op = Merge::new("union", schema(), 2);
        let mut ctx = OperatorContext::new();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 10)),
            StreamItem::Tuple(tuple(2, 20)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let mut pages = Vec::new();
        ctx.drain_emissions(|port, emission| match emission {
            Emission::Page(p) => pages.push((port, p)),
            Emission::Item(item) => panic!("expected a whole page, got item {item:?}"),
        });
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].0, 0);
        assert_eq!(pages[0].1.tuple_count(), 2);
    }

    #[test]
    fn pages_carrying_punctuation_take_the_per_item_path() {
        let mut op = Merge::new("union", schema(), 2).with_progress_on("timestamp");
        let mut ctx = OperatorContext::new();
        // Input 1 has already punctuated to ts=50; input 0's page carries a
        // punctuation at ts=100, so the combined minimum (50) must be emitted —
        // forwarding the page intact would leak input 0's watermark.
        op.on_punctuation(1, progress(50), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 10)),
            StreamItem::Punctuation(progress(100)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        let emitted = ctx.take_emitted();
        assert_eq!(emitted.len(), 2, "tuple plus the *combined* punctuation");
        match &emitted[1].1 {
            StreamItem::Punctuation(p) => {
                assert_eq!(p.watermark_for("timestamp"), Some(Timestamp::from_secs(50)))
            }
            other => panic!("expected combined punctuation, got {other:?}"),
        }
    }

    #[test]
    fn only_the_combined_punctuation_expires_guards() {
        let mut op = Merge::new("union", schema(), 2).with_progress_on("timestamp");
        let mut ctx = OperatorContext::new();
        let before_60 = Pattern::for_attributes(
            schema(),
            &[("timestamp", PatternItem::Lt(Value::Timestamp(Timestamp::from_secs(60))))],
        )
        .unwrap();
        op.on_feedback(0, FeedbackPunctuation::assumed(before_60, "sink"), &mut ctx).unwrap();
        // Input 0 is complete up to 100 s, input 1 is not: its rows before
        // 60 s must still be suppressed.
        op.on_punctuation(0, progress(100), &mut ctx).unwrap();
        op.on_tuple(1, tuple(30, 1), &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
        assert_eq!(op.feedback_stats().unwrap().guards_expired, 0);
        op.on_punctuation(1, progress(60), &mut ctx).unwrap();
        assert_eq!(op.feedback_stats().unwrap().guards_expired, 1);
    }

    #[test]
    fn covered_pages_are_dropped_wholesale() {
        let mut op = Merge::new("union", schema(), 2);
        let mut ctx = OperatorContext::new();
        let fb = FeedbackPunctuation::assumed(
            Pattern::for_attributes(schema(), &[("v", PatternItem::Ge(Value::Int(100)))]).unwrap(),
            "sink",
        );
        op.on_feedback(0, fb, &mut ctx).unwrap();
        let _ = ctx.take_feedback();
        let page = Page::from_items(vec![
            StreamItem::Tuple(tuple(1, 150)),
            StreamItem::Tuple(tuple(2, 200)),
        ]);
        op.on_page(0, page, &mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty(), "summaries prove the whole page assumed away");
    }
}
