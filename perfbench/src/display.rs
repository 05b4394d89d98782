//! The speed-map display of the `speedmap` workload (the paper's Figure
//! 4(b) consumer), written here rather than reused from the figure code so
//! that edits to the figures cannot change what the benchmark measures.
//!
//! The display renders per-(window, segment) AVERAGE results for the
//! segments in its viewport.  A scripted user moves the viewport every
//! zoom period of stream time; the schedule is part of the seeded input.
//! For each zoom period the display issues one assumed feedback
//! punctuation `¬[window ∈ period, segment ∈ hidden(period)]`: results of
//! hidden segments *in that period only* are not needed.
//!
//! Why not `EventDrivenPolicy::viewport`: that policy emits the unscoped
//! pattern `¬[segment ∈ hidden]`, which describes the hidden segments for
//! all time.  Each zoom adds another such guard and none ever expires, so a
//! segment hidden once is suppressed forever even after the user scrolls
//! back to it — at paper scale (1.17M readings) F1–F3 rendered 19 of the
//! 9,720 results F0 renders — and the guards pile up at AVERAGE (about 540),
//! making each decision O(guards) (F2 about 8× slower than F0 on the sync
//! executor).  Scoping each pattern to its period keeps every visible result
//! and bounds what each guard describes.  Fixing the policy itself is a
//! program change outside the benchmark.
//!
//! The display learns that stream time entered a new zoom period from
//! AVERAGE's progress punctuation and issues that period's feedback at once,
//! as it would when the user zooms: AVERAGE purges the partial state of the
//! newly hidden segments and relays the pattern towards the source, and the
//! readings already in flight are still processed.  How soon the feedback
//! reaches the source therefore decides how much work it saves.

use crate::input::WINDOW_MS;
use crate::probe::{Clock, Shared};
use crate::sink::{arrival, Issued, SinkLog};
use dsms_engine::{EngineResult, Operator, OperatorContext, Page, StreamItem};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles};
use dsms_punctuation::{Pattern, PatternItem, Punctuation};
use dsms_types::{SchemaRef, Timestamp, Tuple, Value};
use std::sync::Arc;

/// Stream time between viewport changes.
pub const ZOOM_PERIOD_MS: i64 = 2 * WINDOW_MS;

/// The seeded viewport schedule: the first visible segment of each zoom
/// period (the viewport shows that segment and the next).
#[derive(Debug, Clone)]
pub struct ZoomSchedule {
    pub segments: i64,
    pub first_visible: Arc<Vec<i64>>,
}

impl ZoomSchedule {
    pub fn period_of(window_ms: i64) -> usize {
        (window_ms / ZOOM_PERIOD_MS) as usize
    }

    pub fn visible(&self, period: usize, segment: i64) -> bool {
        let first = self.first_visible[period];
        segment == first || segment == first + 1
    }

    pub fn hidden(&self, period: usize) -> Vec<i64> {
        (0..self.segments).filter(|&s| !self.visible(period, s)).collect()
    }
}

pub struct ViewportDisplay {
    schema: SchemaRef,
    zoom: ZoomSchedule,
    clock: Clock,
    /// First zoom period whose feedback has not been issued yet.
    next_period: usize,
    log: Shared<SinkLog>,
}

impl ViewportDisplay {
    /// A display for AVERAGE results of `schema` (`window, segment, avg`).
    pub fn new(schema: SchemaRef, zoom: ZoomSchedule, clock: Clock, log: Shared<SinkLog>) -> Self {
        ViewportDisplay { schema, zoom, clock, next_period: 0, log }
    }

    /// Issues feedback for every period up to the one holding `stream_ms`.
    fn advance(&mut self, stream_ms: i64, log: &mut SinkLog, ctx: &mut OperatorContext) {
        let horizon = ZoomSchedule::period_of(stream_ms);
        while self.next_period <= horizon && self.next_period < self.zoom.first_visible.len() {
            let period = self.next_period;
            let lo = period as i64 * ZOOM_PERIOD_MS;
            let pattern = Pattern::for_attributes(
                self.schema.clone(),
                &[
                    (
                        "window",
                        PatternItem::Between(
                            Value::Timestamp(Timestamp::from_millis(lo)),
                            Value::Timestamp(Timestamp::from_millis(lo + ZOOM_PERIOD_MS - 1)),
                        ),
                    ),
                    (
                        "segment",
                        PatternItem::InSet(
                            self.zoom.hidden(period).into_iter().map(Value::Int).collect(),
                        ),
                    ),
                ],
            )
            .expect("display schema has window and segment");
            let feedback = FeedbackPunctuation::assumed(pattern, "display");
            log.issued.push(Issued { id: feedback.id(), at_ns: self.clock.now_ns() });
            ctx.send_feedback(0, feedback);
            self.next_period += 1;
        }
    }
}

impl Operator for ViewportDisplay {
    fn name(&self) -> &str {
        "display"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        0
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::producer()
    }

    fn schema_in(&self, _input: usize) -> Option<SchemaRef> {
        Some(self.schema.clone())
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.on_page(input, Page::from_items(vec![StreamItem::Tuple(tuple)]), ctx)
    }

    fn on_page(
        &mut self,
        _input: usize,
        page: Page,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let now = self.clock.now_ns();
        let log = self.log.clone();
        let mut log = log.lock().expect("display log");
        if self.next_period == 0 {
            self.advance(0, &mut log, ctx);
        }
        for item in page {
            match item {
                StreamItem::Tuple(t) => log.arrivals.push(arrival(&t, now)),
                StreamItem::Punctuation(p) => {
                    if let Some(watermark) = p.watermark_for("window") {
                        self.advance(watermark.as_millis() + 1, &mut log, ctx);
                    }
                }
            }
        }
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.on_page(input, Page::from_items(vec![StreamItem::Punctuation(punctuation)]), ctx)
    }
}
