//! Shared helpers for operators.

use dsms_engine::{EngineResult, Operator, OperatorContext, Page, StreamItem};
use dsms_feedback::BatchGuardDecision;
use dsms_types::{Timestamp, Tuple};
use std::time::{Duration, Instant};

/// The single pass of a guarded `on_page` kernel (`docs/DATA_LAYOUT.md`):
/// walks the page once, in arrival order, handing each punctuation to
/// [`Operator::on_punctuation`] and each tuple to the arm `decision` picks —
/// dropped under `SuppressAll`, given to `pass` (the kernel's guard-free
/// body) under `PassAll`, and given to [`Operator::on_tuple`] under `Mixed`.
pub(crate) fn guarded_pass<O: Operator>(
    op: &mut O,
    input: usize,
    page: Page,
    decision: BatchGuardDecision,
    ctx: &mut OperatorContext,
    mut pass: impl FnMut(&mut O, Tuple, &mut OperatorContext) -> EngineResult<()>,
) -> EngineResult<()> {
    for item in page {
        match item {
            StreamItem::Punctuation(punctuation) => op.on_punctuation(input, punctuation, ctx)?,
            StreamItem::Tuple(tuple) => match decision {
                BatchGuardDecision::SuppressAll => {}
                BatchGuardDecision::PassAll => pass(op, tuple, ctx)?,
                BatchGuardDecision::Mixed => op.on_tuple(input, tuple, ctx)?,
            },
        }
    }
    Ok(())
}

/// A predicate over tuples, usable as a select condition or a split condition.
///
/// Closures are boxed so operators stay object-safe and `Send`.
pub struct TuplePredicate {
    description: String,
    f: Box<dyn Fn(&Tuple) -> bool + Send>,
}

impl TuplePredicate {
    /// Wraps a closure with a human-readable description (used in operator
    /// names and error messages).
    pub fn new(
        description: impl Into<String>,
        f: impl Fn(&Tuple) -> bool + Send + 'static,
    ) -> Self {
        TuplePredicate { description: description.into(), f: Box::new(f) }
    }

    /// A predicate that accepts every tuple.
    pub fn always() -> Self {
        TuplePredicate::new("true", |_| true)
    }

    /// Evaluates the predicate.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        (self.f)(tuple)
    }

    /// The description.
    pub fn description(&self) -> &str {
        &self.description
    }
}

impl std::fmt::Debug for TuplePredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TuplePredicate({})", self.description)
    }
}

/// Spins for (at least) the given duration, simulating per-tuple processing
/// cost — used by IMPUTE's archival lookup and the data-quality filter.
/// A spin loop is used instead of `thread::sleep` because the interesting
/// costs are in the tens of microseconds to low milliseconds, where sleep
/// granularity and scheduler wake-up latency would distort the experiments.
pub fn simulate_cost(cost: Duration) {
    if cost.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < cost {
        std::hint::spin_loop();
    }
}

/// Combined progress-watermark tracker for N-input operators ([`Merge`](crate::merge::Merge),
/// which is also the paper's UNION): a subset of the merged *output* is
/// complete only once **every** input has declared it complete, so the
/// combined watermark is the minimum of the per-input watermarks, emitted
/// only when it advances.
///
/// Indexing is deliberately direct (panics on an out-of-range input):
/// executors only deliver punctuation on connected ports, and silently
/// folding a bad port onto another slot would corrupt the minimum.
#[derive(Debug, Clone)]
pub struct MinWatermark {
    watermarks: Vec<Option<Timestamp>>,
    emitted: Option<Timestamp>,
}

impl MinWatermark {
    /// Creates a tracker over `inputs` input ports.
    pub fn new(inputs: usize) -> Self {
        MinWatermark { watermarks: vec![None; inputs], emitted: None }
    }

    /// Records watermark `w` observed on `input` and returns the new
    /// combined minimum iff it advanced past the last returned value (a
    /// per-input regression is ignored; the combined minimum never moves
    /// backwards).
    pub fn observe(&mut self, input: usize, w: Timestamp) -> Option<Timestamp> {
        let slot = &mut self.watermarks[input];
        *slot = Some(slot.map(|cur| cur.max(w)).unwrap_or(w));
        let combined = self.combined()?;
        match self.emitted {
            Some(prev) if combined <= prev => None,
            _ => {
                self.emitted = Some(combined);
                Some(combined)
            }
        }
    }

    /// The minimum across all inputs, once each has punctuated; `None` while
    /// any input is silent.
    pub fn combined(&self) -> Option<Timestamp> {
        let mut min: Option<Timestamp> = None;
        for mark in &self.watermarks {
            let w = (*mark)?;
            min = Some(min.map_or(w, |m| m.min(w)));
        }
        min
    }
}

/// Wraps an operator, charging a simulated per-tuple cost before each
/// [`Operator::on_tuple`] — the knob the paper's experiments use to model
/// expensive operators (archival lookups, imputation) without real I/O.
///
/// Two cost models are provided:
///
/// * [`Costed::spinning`] — busy-waits ([`simulate_cost`]), modelling CPU
///   work.  Replicating a spinning operator only scales with physical cores.
/// * [`Costed::blocking_io`] — sleeps, modelling blocking I/O such as the
///   archive fetches of the imputation plan.  Replicas blocked on I/O
///   overlap their waits, so a partitioned stage of blocking operators
///   scales with the number of replicas even on a single core — the
///   scenario the `partition_scaling` bench measures.
///
/// The wrapper unpacks every page item by item so the cost is charged per
/// tuple: an inner operator's batched [`Operator::on_page`] fast path is
/// bypassed on purpose.
pub struct Costed<O> {
    inner: O,
    cost: Duration,
    blocking: bool,
}

impl<O: Operator> Costed<O> {
    /// Charges `cost` per tuple as spinning CPU work.
    pub fn spinning(inner: O, cost: Duration) -> Self {
        Costed { inner, cost, blocking: false }
    }

    /// Charges `cost` per tuple as blocking I/O (a sleep).
    pub fn blocking_io(inner: O, cost: Duration) -> Self {
        Costed { inner, cost, blocking: true }
    }

    fn charge(&self) {
        if self.blocking {
            if !self.cost.is_zero() {
                std::thread::sleep(self.cost);
            }
        } else {
            simulate_cost(self.cost);
        }
    }
}

impl<O: Operator> dsms_engine::Wrapper for Costed<O> {
    type Inner = O;

    fn inner(&self) -> &O {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.charge();
        self.inner.on_tuple(input, tuple, ctx)
    }

    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        dsms_engine::replay_page(self, input, page, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsms_types::{DataType, Schema, Value};

    #[test]
    fn predicate_evaluates_and_describes() {
        let schema = Schema::shared(&[("v", DataType::Int)]);
        let p = TuplePredicate::new("v > 5", |t| t.int("v").unwrap_or(0) > 5);
        assert!(p.eval(&Tuple::new(schema.clone(), vec![Value::Int(6)])));
        assert!(!p.eval(&Tuple::new(schema.clone(), vec![Value::Int(5)])));
        assert_eq!(p.description(), "v > 5");
        assert!(TuplePredicate::always().eval(&Tuple::new(schema, vec![Value::Int(0)])));
        assert!(format!("{p:?}").contains("v > 5"));
    }

    #[test]
    fn min_watermark_emits_the_advancing_minimum() {
        let mut tracker = MinWatermark::new(3);
        let ts = Timestamp::from_secs;
        assert_eq!(tracker.observe(0, ts(100)), None, "inputs 1 and 2 have not punctuated");
        assert_eq!(tracker.combined(), None);
        assert_eq!(tracker.observe(1, ts(80)), None);
        assert_eq!(tracker.observe(2, ts(90)), Some(ts(80)), "all inputs in: min emitted");
        // A per-input regression is absorbed; the combined minimum holds.
        assert_eq!(tracker.observe(1, ts(70)), None);
        assert_eq!(tracker.combined(), Some(ts(80)));
        // The minimum only re-emits when it advances.
        assert_eq!(tracker.observe(1, ts(85)), Some(ts(85)));
        assert_eq!(tracker.observe(1, ts(200)), Some(ts(90)), "next-slowest input caps the min");
    }

    #[test]
    fn costed_wrapper_delegates_and_charges() {
        struct Pass;
        impl Operator for Pass {
            fn name(&self) -> &str {
                "pass"
            }
            fn inputs(&self) -> usize {
                1
            }
            fn on_tuple(
                &mut self,
                _: usize,
                t: Tuple,
                ctx: &mut OperatorContext,
            ) -> EngineResult<()> {
                ctx.emit(0, t);
                Ok(())
            }
            fn on_page(&mut self, _: usize, _: Page, _: &mut OperatorContext) -> EngineResult<()> {
                unreachable!("Costed charges per tuple, bypassing the batch path")
            }
        }

        let schema = Schema::shared(&[("v", DataType::Int)]);
        let tuple = StreamItem::Tuple(Tuple::new(schema, vec![Value::Int(1)]));
        let mut ctx = OperatorContext::new();
        for mut costed in [
            Costed::spinning(Pass, Duration::from_micros(100)),
            Costed::blocking_io(Pass, Duration::from_micros(100)),
        ] {
            let start = Instant::now();
            let page = Page::from_items(vec![tuple.clone(), tuple.clone()]);
            costed.on_page(0, page, &mut ctx).unwrap();
            assert!(start.elapsed() >= Duration::from_micros(200), "cost charged per tuple");
            assert_eq!(ctx.take_emitted().len(), 2, "tuples delegated to the inner operator");
        }
    }

    #[test]
    fn simulate_cost_spins_for_at_least_the_duration() {
        let start = Instant::now();
        simulate_cost(Duration::from_micros(200));
        assert!(start.elapsed() >= Duration::from_micros(200));
        // zero cost returns immediately
        simulate_cost(Duration::ZERO);
    }
}
