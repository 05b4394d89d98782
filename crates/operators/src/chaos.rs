//! Deterministic fault injection for recovery testing.
//!
//! [`Chaos`] wraps any operator and injects one scripted fault at an exact
//! point in the tuple stream, so recovery tests are reproducible rather than
//! probabilistic:
//!
//! * [`FaultSpec::Panic`] — panic once `at_tuple` tuples have been seen, up
//!   to `times` times (a restarted wrapper does not re-panic on replay once
//!   the budget is spent);
//! * [`FaultSpec::Error`] — return a named `OperatorFailed` at the same
//!   trigger point, healing after `times` firings (a transient fault);
//! * [`FaultSpec::Stall`] — hold pages (in arrival order) for `steps`
//!   further `on_page` deliveries once `at_tuple` tuples have been seen,
//!   then release the backlog in order.  A stall delays but never reorders,
//!   so downstream results are unchanged.
//!
//! The fired-count for panic/error faults is *runtime* state: it survives
//! `restore` on purpose, which is what lets a supervised operator heal after
//! its restart budget absorbs the scripted failures.  Everything else — the
//! tuple counter, the stall backlog, and the wrapped operator's own state —
//! is checkpointed, so replay after a restart re-counts the same tuples and
//! re-buffers the same pages without double-firing the fault.

use dsms_engine::{EngineError, EngineResult, Operator, OperatorContext, Page, StateEntry};

/// The scripted fault a [`Chaos`] wrapper injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic when the `at_tuple`-th tuple arrives, at most `times` times.
    Panic {
        /// 1-based tuple ordinal that triggers the panic.
        at_tuple: u64,
        /// How many times the panic fires before the fault is spent.
        times: u32,
    },
    /// Return a named operator error at the trigger point, `times` times,
    /// then heal.
    Error {
        /// 1-based tuple ordinal that triggers the error.
        at_tuple: u64,
        /// How many times the error fires before the fault heals.
        times: u32,
    },
    /// Buffer pages for `steps` further deliveries once `at_tuple` tuples
    /// have been seen, then release them in order.
    Stall {
        /// 1-based tuple ordinal that starts the stall.
        at_tuple: u64,
        /// How many subsequent `on_page` calls are buffered.
        steps: u32,
    },
}

/// A transparent operator wrapper that injects a [`FaultSpec`] at a
/// deterministic point in the wrapped operator's input stream.
pub struct Chaos {
    name: String,
    inner: Box<dyn Operator>,
    fault: FaultSpec,
    /// Tuples seen on the data path; checkpointed so replay re-counts.
    seen: u64,
    /// Panic/error firings so far.  Deliberately NOT checkpointed: a fault
    /// that already fired stays fired across restarts.
    fired: u32,
    /// Pages held back by an active stall, in arrival order.
    stalled: Vec<(usize, Page)>,
    /// Remaining `on_page` calls to buffer before the stall releases.
    stall_remaining: u32,
    /// Whether the stall trigger already fired (runtime, like `fired`).
    stall_fired: bool,
}

/// Chaos bookkeeping captured at a checkpoint, ahead of the wrapped
/// operator's own entries.
struct ChaosSnapshot {
    seen: u64,
    stalled: Vec<(usize, Page)>,
    stall_remaining: u32,
}

impl Chaos {
    /// Wraps `inner`, injecting `fault` on its data path.
    pub fn new(inner: impl Operator + 'static, fault: FaultSpec) -> Self {
        let name = format!("chaos:{}", inner.name());
        Self {
            name,
            inner: Box::new(inner),
            fault,
            seen: 0,
            fired: 0,
            stalled: Vec::new(),
            stall_remaining: 0,
            stall_fired: false,
        }
    }

    /// Releases the stall backlog into the wrapped operator, in order.
    fn release_stalled(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        for (input, page) in std::mem::take(&mut self.stalled) {
            self.inner.on_page(input, page, ctx)?;
        }
        Ok(())
    }
}

impl dsms_engine::Wrapper for Chaos {
    type Inner = dyn Operator;

    fn inner(&self) -> &Self::Inner {
        &*self.inner
    }

    fn inner_mut(&mut self) -> &mut Self::Inner {
        &mut *self.inner
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.seen += page.tuple_count() as u64;
        match self.fault {
            FaultSpec::Panic { at_tuple, times } => {
                if self.seen >= at_tuple && self.fired < times {
                    self.fired += 1;
                    panic!("chaos: injected panic");
                }
            }
            FaultSpec::Error { at_tuple, times } => {
                if self.seen >= at_tuple && self.fired < times {
                    self.fired += 1;
                    return Err(EngineError::OperatorFailed {
                        operator: self.name.clone(),
                        detail: format!(
                            "chaos: injected transient error {} of {}",
                            self.fired, times
                        ),
                    });
                }
            }
            FaultSpec::Stall { at_tuple, steps } => {
                if self.seen >= at_tuple && !self.stall_fired {
                    self.stall_fired = true;
                    self.stall_remaining = steps;
                }
                if self.stall_remaining > 0 {
                    self.stalled.push((input, page));
                    self.stall_remaining -= 1;
                    if self.stall_remaining == 0 {
                        self.release_stalled(ctx)?;
                    }
                    return Ok(());
                }
            }
        }
        self.inner.on_page(input, page, ctx)
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        // A stream that ends mid-stall still owes downstream the backlog.
        self.release_stalled(ctx)?;
        self.stall_remaining = 0;
        self.inner.on_flush(ctx)
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        let mut entries = vec![StateEntry {
            key: Vec::new(),
            payload: Box::new(ChaosSnapshot {
                seen: self.seen,
                stalled: self.stalled.clone(),
                stall_remaining: self.stall_remaining,
            }),
        }];
        entries.extend(self.inner.checkpoint()?);
        Ok(entries)
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        let mut entries = entries.into_iter();
        let own = entries.next().ok_or_else(|| EngineError::OperatorFailed {
            operator: self.name.clone(),
            detail: "chaos restore requires its bookkeeping snapshot".into(),
        })?;
        match own.payload.downcast::<ChaosSnapshot>() {
            Ok(snapshot) => {
                self.seen = snapshot.seen;
                self.stalled = snapshot.stalled;
                self.stall_remaining = snapshot.stall_remaining;
                // `fired` and `stall_fired` persist: spent faults stay spent.
            }
            Err(_) => {
                return Err(EngineError::OperatorFailed {
                    operator: self.name.clone(),
                    detail: "checkpoint entry is not a chaos snapshot".into(),
                })
            }
        }
        self.inner.restore(entries.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TuplePredicate;
    use crate::select::Select;
    use dsms_types::{DataType, Field, Schema, SchemaRef, TupleBuilder, Value};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]))
    }

    fn page_of(values: &[i64]) -> Page {
        let mut builder = dsms_engine::PageBuilder::new(values.len() + 1);
        for v in values {
            let tuple =
                TupleBuilder::new(schema()).set("v", Value::Int(*v)).unwrap().build().unwrap();
            builder.push_tuple(tuple);
        }
        builder.take()
    }

    fn passthrough() -> Select {
        Select::new("inner", schema(), TuplePredicate::always())
    }

    #[test]
    fn error_fault_fires_exactly_times_then_heals() {
        let mut op = Chaos::new(passthrough(), FaultSpec::Error { at_tuple: 2, times: 2 });
        let mut ctx = OperatorContext::new();
        assert!(op.on_page(0, page_of(&[1]), &mut ctx).is_ok());
        assert!(op.on_page(0, page_of(&[2]), &mut ctx).is_err());
        assert!(op.on_page(0, page_of(&[2]), &mut ctx).is_err());
        assert!(op.on_page(0, page_of(&[2]), &mut ctx).is_ok());
    }

    #[test]
    fn fired_count_survives_restore() {
        let mut op = Chaos::new(passthrough(), FaultSpec::Error { at_tuple: 1, times: 1 });
        let mut ctx = OperatorContext::new();
        let snapshot = op.checkpoint().unwrap();
        assert!(op.on_page(0, page_of(&[1]), &mut ctx).is_err());
        op.restore(snapshot).unwrap();
        // Replay of the same page must not re-fire the spent fault.
        assert!(op.on_page(0, page_of(&[1]), &mut ctx).is_ok());
        assert_eq!(op.seen, 1);
    }

    #[test]
    fn stall_buffers_then_releases_in_order() {
        let mut op = Chaos::new(passthrough(), FaultSpec::Stall { at_tuple: 1, steps: 2 });
        let mut ctx = OperatorContext::new();
        op.on_page(0, page_of(&[1]), &mut ctx).unwrap();
        assert_eq!(ctx.emitted_len(), 0, "first stalled page is held");
        op.on_page(0, page_of(&[2]), &mut ctx).unwrap();
        let emitted: Vec<_> = ctx
            .take_emitted()
            .into_iter()
            .filter_map(|(_, item)| item.as_tuple().map(|t| format!("{:?}", t.values())))
            .collect();
        assert_eq!(emitted.len(), 2, "backlog released in order after the stall");
    }

    #[test]
    fn flush_releases_a_pending_stall() {
        let mut op = Chaos::new(passthrough(), FaultSpec::Stall { at_tuple: 1, steps: 5 });
        let mut ctx = OperatorContext::new();
        op.on_page(0, page_of(&[7]), &mut ctx).unwrap();
        assert_eq!(ctx.emitted_len(), 0);
        op.on_flush(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_len(), 1, "flush drains the stall backlog");
    }
}
