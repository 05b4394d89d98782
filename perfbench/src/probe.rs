//! The benchmark's instrumentation wrapper around program operators.
//!
//! A [`Probe`] wraps one operator and delegates every [`Operator`] method to
//! it, so wrapping never changes behaviour through a silently inherited
//! default.  It records two things, each only when asked:
//!
//! * **poll stamps** (sources, every run): the instant each `poll_source`
//!   call returned, i.e. when that batch of input rows was emitted.  The
//!   end-to-end latency of a result is measured from the stamp of its last
//!   contributing row.
//! * **spans** (traced runs only): one per operator callback —
//!   `poll_source`, `on_page`, `on_tuple`, `on_punctuation`, `on_feedback`,
//!   `on_request_results`, `on_flush`, `checkpoint`, `restore` and the state
//!   migration pair — kept in memory and reduced after the run.
//!
//! Each probe owns its own buffers (shared with the benchmark through an
//! `Arc`), so pooled workers never contend on a common lock.

use dsms_engine::{
    ElasticStats, EngineResult, Operator, OperatorContext, Page, SourceState, StateEntry,
};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles, FeedbackStats};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Tuple};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The run's time base: nanoseconds since the run started.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The operator kinds the per-layer metrics are broken down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Source,
    Select,
    Project,
    QualityFilter,
    WindowAggregate,
    Shuffle,
    Merge,
    SharedFanout,
    Sink,
}

impl Kind {
    pub const ALL: [Kind; 9] = [
        Kind::Source,
        Kind::Select,
        Kind::Project,
        Kind::QualityFilter,
        Kind::WindowAggregate,
        Kind::Shuffle,
        Kind::Merge,
        Kind::SharedFanout,
        Kind::Sink,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Source => "source",
            Kind::Select => "select",
            Kind::Project => "project",
            Kind::QualityFilter => "quality_filter",
            Kind::WindowAggregate => "window_aggregate",
            Kind::Shuffle => "shuffle",
            Kind::Merge => "merge",
            Kind::SharedFanout => "shared_fanout",
            Kind::Sink => "sink",
        }
    }

    /// The kind of a reported operator, from the names the workloads give
    /// their operators (`source`, `select-3`, `avg-0`, …) and the names the
    /// manager gives the fan-outs it creates (`fanout/…`).  Manager scoping
    /// prefixes (`q7/`, `shared/src/0/`) are stripped first.
    pub fn of_operator(name: &str) -> Option<Kind> {
        if name.starts_with("fanout/") {
            return Some(Kind::SharedFanout);
        }
        let local = name.rsplit('/').next().unwrap_or(name);
        let stem = local.split('-').next().unwrap_or(local);
        Some(match stem {
            "source" => Kind::Source,
            "select" => Kind::Select,
            "project" => Kind::Project,
            "quality" => Kind::QualityFilter,
            "avg" | "average" => Kind::WindowAggregate,
            "shuffle" => Kind::Shuffle,
            "merge" => Kind::Merge,
            "sink" | "display" => Kind::Sink,
            _ => return None,
        })
    }
}

/// Which callback a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    Poll,
    Page,
    Tuple,
    Punctuation,
    Feedback,
    RequestResults,
    Flush,
    Checkpoint,
    Restore,
    Migrate,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub callback: Callback,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The feedback punctuation's id, for `on_feedback` spans (0 otherwise).
    pub feedback_id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub type Shared<T> = Arc<Mutex<T>>;

/// The spans recorded for one wrapped operator.
pub struct NodeSpans {
    pub kind: Kind,
    pub spans: Shared<Vec<Span>>,
}

/// Per-run instrumentation: hands out probes and keeps their buffers.
pub struct Instrument {
    pub clock: Clock,
    traced: bool,
    pub nodes: Vec<NodeSpans>,
    /// Poll stamps of the run's (single) source.
    pub stamps: Shared<Vec<u64>>,
}

impl Instrument {
    pub fn new(traced: bool) -> Self {
        Instrument { clock: Clock::start(), traced, nodes: Vec::new(), stamps: Arc::default() }
    }

    fn spans_for(&mut self, kind: Kind) -> Option<Shared<Vec<Span>>> {
        self.traced.then(|| {
            let spans: Shared<Vec<Span>> = Arc::default();
            self.nodes.push(NodeSpans { kind, spans: spans.clone() });
            spans
        })
    }

    /// Wraps the run's source: always stamps its polls, and records spans in
    /// a traced run.
    pub fn source(&mut self, operator: impl Operator + 'static) -> Probe {
        Probe {
            inner: Box::new(operator),
            clock: self.clock,
            spans: self.spans_for(Kind::Source),
            stamps: Some(self.stamps.clone()),
        }
    }

    /// Wraps a non-source operator in a traced run; passes it through
    /// unwrapped otherwise.  The operator's name gives its kind.
    pub fn wrap(&mut self, operator: impl Operator + 'static) -> Box<dyn Operator> {
        let kind =
            Kind::of_operator(operator.name()).expect("workload operators are named by kind");
        match self.spans_for(kind) {
            Some(spans) => Box::new(Probe {
                inner: Box::new(operator),
                clock: self.clock,
                spans: Some(spans),
                stamps: None,
            }),
            None => Box::new(operator),
        }
    }

    /// The instant row `index` was emitted, for a source that consumes
    /// exactly `batch` rows per poll.
    pub fn emitted_at(stamps: &[u64], batch: usize) -> impl Fn(u32) -> Option<u64> + '_ {
        move |index| stamps.get(index as usize / batch).copied()
    }
}

pub struct Probe {
    inner: Box<dyn Operator>,
    clock: Clock,
    spans: Option<Shared<Vec<Span>>>,
    stamps: Option<Shared<Vec<u64>>>,
}

impl Probe {
    fn record<R>(&self, callback: Callback, feedback_id: u64, start_ns: Option<u64>, out: R) -> R {
        if let (Some(spans), Some(start_ns)) = (&self.spans, start_ns) {
            let end_ns = self.clock.now_ns();
            spans.lock().expect("span buffer").push(Span {
                callback,
                start_ns,
                end_ns,
                feedback_id,
            });
        }
        out
    }

    fn start(&self) -> Option<u64> {
        self.spans.as_ref().map(|_| self.clock.now_ns())
    }
}

impl Operator for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn inputs(&self) -> usize {
        self.inner.inputs()
    }

    fn outputs(&self) -> usize {
        self.inner.outputs()
    }

    fn must_connect_all_outputs(&self) -> bool {
        self.inner.must_connect_all_outputs()
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        self.inner.feedback_roles()
    }

    fn schema_in(&self, input: usize) -> Option<SchemaRef> {
        self.inner.schema_in(input)
    }

    fn schema_out(&self, output: usize) -> Option<SchemaRef> {
        self.inner.schema_out(output)
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let start = self.start();
        let out = self.inner.on_tuple(input, tuple, ctx);
        self.record(Callback::Tuple, 0, start, out)
    }

    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        let start = self.start();
        let out = self.inner.on_page(input, page, ctx);
        self.record(Callback::Page, 0, start, out)
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let start = self.start();
        let out = self.inner.on_punctuation(input, punctuation, ctx);
        self.record(Callback::Punctuation, 0, start, out)
    }

    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let start = self.start();
        let id = feedback.id();
        let out = self.inner.on_feedback(output, feedback, ctx);
        self.record(Callback::Feedback, id, start, out)
    }

    fn on_request_results(&mut self, output: usize, ctx: &mut OperatorContext) -> EngineResult<()> {
        let start = self.start();
        let out = self.inner.on_request_results(output, ctx);
        self.record(Callback::RequestResults, 0, start, out)
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        let start = self.start();
        let out = self.inner.on_flush(ctx);
        self.record(Callback::Flush, 0, start, out)
    }

    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        let start = self.start();
        let out = self.inner.poll_source(ctx);
        if let Some(stamps) = &self.stamps {
            stamps.lock().expect("stamp buffer").push(self.clock.now_ns());
        }
        self.record(Callback::Poll, 0, start, out)
    }

    fn feedback_stats(&self) -> Option<FeedbackStats> {
        self.inner.feedback_stats()
    }

    fn export_state(&mut self) -> Vec<StateEntry> {
        let start = self.start();
        let out = self.inner.export_state();
        self.record(Callback::Migrate, 0, start, out)
    }

    fn import_state(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        let start = self.start();
        let out = self.inner.import_state(entries);
        self.record(Callback::Migrate, 0, start, out)
    }

    fn elastic_stats(&self) -> Option<ElasticStats> {
        self.inner.elastic_stats()
    }

    fn restartable(&self) -> bool {
        self.inner.restartable()
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        let start = self.start();
        let out = self.inner.checkpoint();
        self.record(Callback::Checkpoint, 0, start, out)
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        let start = self.start();
        let out = self.inner.restore(entries);
        self.record(Callback::Restore, 0, start, out)
    }

    fn absorb_shutdown(&mut self, output: usize, ctx: &mut OperatorContext) -> bool {
        self.inner.absorb_shutdown(output, ctx)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }

    fn shared_source(&self) -> Option<&str> {
        self.inner.shared_source()
    }
}
