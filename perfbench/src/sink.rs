//! The benchmark's result sink: records every aggregate result with its
//! arrival time and, optionally, issues a query's standing assumed
//! feedback when its first page arrives.

use crate::probe::{Clock, Shared};
use crate::reference::Arrival;
use dsms_engine::{EngineResult, Operator, OperatorContext, Page, StreamItem};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles};
use dsms_punctuation::Pattern;
use dsms_types::{SchemaRef, Tuple, Value};

/// Feedback issued by a benchmark sink or display: its id and when.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    pub id: u64,
    pub at_ns: u64,
}

/// What a sink saw during one run.
#[derive(Debug, Default)]
pub struct SinkLog {
    pub arrivals: Vec<Arrival>,
    pub issued: Vec<Issued>,
}

/// Reads an aggregate result `(window, key, value)` as an arrival.
pub fn arrival(tuple: &Tuple, at_ns: u64) -> Arrival {
    let values = tuple.values();
    let window = values[0].as_timestamp().expect("window start").as_millis();
    let key = values[1].as_int().expect("group key");
    let value = match &values[2] {
        Value::Int(v) => *v as f64,
        other => other.as_float().expect("numeric aggregate"),
    };
    Arrival { key: (window, key), value, at_ns }
}

pub struct ResultSink {
    name: String,
    schema: SchemaRef,
    clock: Clock,
    /// Assumed patterns to issue upstream with the first page.
    standing: Vec<Pattern>,
    standing_sent: bool,
    log: Shared<SinkLog>,
}

impl ResultSink {
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        clock: Clock,
        log: Shared<SinkLog>,
    ) -> Self {
        ResultSink {
            name: name.into(),
            schema,
            clock,
            standing: Vec::new(),
            standing_sent: false,
            log,
        }
    }

    /// Issues `pattern` as assumed feedback once the first page arrives.
    pub fn with_standing_feedback(mut self, pattern: Pattern) -> Self {
        self.standing.push(pattern);
        self
    }
}

impl Operator for ResultSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        0
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        if self.standing.is_empty() {
            FeedbackRoles::NONE
        } else {
            FeedbackRoles::producer()
        }
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
        let mut log = self.log.lock().expect("sink log");
        if !self.standing_sent {
            self.standing_sent = true;
            for pattern in &self.standing {
                let feedback = FeedbackPunctuation::assumed(pattern.clone(), &self.name);
                log.issued.push(Issued { id: feedback.id(), at_ns: now });
                ctx.send_feedback(0, feedback);
            }
        }
        log.arrivals.extend(page.tuples().iter().map(|t| arrival(t, now)));
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        _input: usize,
        _punctuation: dsms_punctuation::Punctuation,
        _ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        Ok(())
    }
}
