//! Inter-operator queues.
//!
//! A connection between two operators consists of a soft-bounded *data
//! queue* of pages flowing downstream and an unbounded *control queue*
//! flowing upstream (feedback punctuation, result requests).  The data bound
//! provides back-pressure: once the consumer falls behind by `capacity`
//! pages the producer loses *credit* — [`PooledProducer::has_credit`] — and
//! the scheduler stops stepping it until the consumer drains back below the
//! bound, which is how NiagaraST-style pipelined engines keep memory
//! bounded.  Sends never block and never fail on a full queue: a producer
//! may push past the capacity within a single operator callback.  Control
//! messages are never held back — they are small, high-priority and must
//! overtake data (paper Section 5).
//!
//! Readiness is *notification*-based: each endpoint event (data available,
//! downstream credit, control pending) fires a persistent [`ReadyNotify`]
//! hook registered per task, which the pooled executor uses to move the
//! affected task back onto a run queue.  The `poll_*` methods distinguish
//! "nothing queued yet" from "peer endpoint gone", which the executor's
//! drain protocol relies on for prompt, loss-free teardown.  (The sync
//! executor runs every operator on one thread over plain per-edge queues and
//! needs neither.)

use crate::control::ControlMessage;
use crate::page::Page;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A message on the data queue.
#[derive(Debug, Clone)]
pub enum QueueMessage {
    /// A page of tuples and embedded punctuation.
    Page(Page),
    /// The producer is done; no more pages will follow.
    EndOfStream,
}

/// The outcome of a non-blocking receive on a data queue.
#[derive(Debug)]
pub enum DataPoll {
    /// A message was waiting.
    Message(QueueMessage),
    /// Nothing queued right now; the producer is still attached.
    Empty,
    /// The queue is empty and the producer endpoint has closed (the upstream
    /// operator failed).  Equivalent to end-of-stream.
    Closed,
}

/// The outcome of a non-blocking receive on a control channel.
#[derive(Debug)]
pub enum ControlPoll {
    /// A control message was waiting.
    Message(ControlMessage),
    /// Nothing queued right now; the consumer is still attached.
    Empty,
    /// The channel is empty and the consumer endpoint has closed (the
    /// downstream operator failed).  No further control can arrive.
    Closed,
}

/// A paged, soft-bounded inter-operator queue with an unbounded upstream
/// control channel.
#[derive(Debug)]
pub struct DataQueue;

impl DataQueue {
    /// Default bound on in-flight pages per connection.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates a non-blocking, notification-driven connection with the given
    /// page capacity (see the module docs): soft-bounded data queue with
    /// credit tracking, unbounded control queue, and per-event
    /// [`ReadyNotify`] hooks.  Returns the producer and consumer endpoints.
    pub fn pooled_connection(capacity: usize) -> (PooledProducer, PooledConsumer) {
        let shared = Arc::new(PooledShared {
            capacity: capacity.max(1),
            data_len: AtomicUsize::new(0),
            ctrl_len: AtomicUsize::new(0),
            producer_alive: AtomicBool::new(true),
            consumer_alive: AtomicBool::new(true),
            data: Mutex::new(VecDeque::new()),
            control: Mutex::new(VecDeque::new()),
            on_data: OnceLock::new(),
            on_credit: OnceLock::new(),
            on_control: OnceLock::new(),
        });
        (PooledProducer { shared: shared.clone() }, PooledConsumer { shared })
    }
}

/// A persistent readiness hook: the scheduler registers one per connection
/// event, and the endpoint fires it (from whichever thread performed the
/// state change) whenever the event makes the registered task runnable
/// again.  Implementations must be cheap and idempotent — a hook may fire
/// while its task is already queued or running.
pub trait ReadyNotify: Send + Sync {
    /// Signals that the registered task may have become runnable.
    fn notify(&self);
}

/// State shared by the two endpoints of a pooled connection.
struct PooledShared {
    capacity: usize,
    /// Number of queued data messages (pages + the end-of-stream marker).
    /// Kept as an atomic so `has_credit` / emptiness fast paths need no lock.
    data_len: AtomicUsize,
    ctrl_len: AtomicUsize,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    data: Mutex<VecDeque<QueueMessage>>,
    control: Mutex<VecDeque<ControlMessage>>,
    /// Fired when the data queue goes non-empty or the producer closes
    /// (wakes the consumer task).
    on_data: OnceLock<Arc<dyn ReadyNotify>>,
    /// Fired when the data queue drains back below capacity or the consumer
    /// closes (wakes the producer task).
    on_credit: OnceLock<Arc<dyn ReadyNotify>>,
    /// Fired when a control message arrives or the consumer closes (wakes
    /// the producer task).
    on_control: OnceLock<Arc<dyn ReadyNotify>>,
}

impl PooledShared {
    fn fire(hook: &OnceLock<Arc<dyn ReadyNotify>>) {
        if let Some(notify) = hook.get() {
            notify.notify();
        }
    }
}

impl std::fmt::Debug for PooledShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledShared")
            .field("capacity", &self.capacity)
            .field("data_len", &self.data_len.load(Ordering::Relaxed))
            .field("ctrl_len", &self.ctrl_len.load(Ordering::Relaxed))
            .field("producer_alive", &self.producer_alive.load(Ordering::Relaxed))
            .field("consumer_alive", &self.consumer_alive.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Producer endpoint of a pooled connection: pushes pages downstream without
/// blocking, polls control messages from the consumer.
#[derive(Debug, Clone)]
pub struct PooledProducer {
    shared: Arc<PooledShared>,
}

impl PooledProducer {
    /// Registers the hook fired when the data queue regains credit (wakes
    /// the producer's task).  Call once, before execution starts.
    pub fn set_on_credit(&self, notify: Arc<dyn ReadyNotify>) {
        let _ = self.shared.on_credit.set(notify);
    }

    /// Registers the hook fired when a control message arrives from the
    /// consumer (wakes the producer's task).  Call once, before execution
    /// starts.
    pub fn set_on_control(&self, notify: Arc<dyn ReadyNotify>) {
        let _ = self.shared.on_control.set(notify);
    }

    /// True while pushing another page would stay within the queue bound
    /// (or the consumer is gone, in which case the producer should step —
    /// its sends fail fast and it winds down).  The scheduler gates the
    /// producer's data steps on this.
    pub fn has_credit(&self) -> bool {
        !self.shared.consumer_alive.load(Ordering::Acquire)
            || self.shared.data_len.load(Ordering::Acquire) < self.shared.capacity
    }

    /// Pushes a page downstream.  Never blocks and never fails on a full
    /// queue (the bound is enforced through [`PooledProducer::has_credit`]);
    /// returns `false` when the consumer has closed its endpoint, i.e. the
    /// page is undeliverable.
    pub fn send_page(&self, page: Page) -> bool {
        if !self.shared.consumer_alive.load(Ordering::Acquire) {
            return false;
        }
        let was_empty = {
            let mut data = self.shared.data.lock();
            data.push_back(QueueMessage::Page(page));
            let len = data.len();
            self.shared.data_len.store(len, Ordering::Release);
            len == 1
        };
        if was_empty {
            PooledShared::fire(&self.shared.on_data);
        }
        true
    }

    /// Signals end-of-stream to the consumer.
    pub fn send_end_of_stream(&self) {
        if !self.shared.consumer_alive.load(Ordering::Acquire) {
            return;
        }
        let was_empty = {
            let mut data = self.shared.data.lock();
            data.push_back(QueueMessage::EndOfStream);
            let len = data.len();
            self.shared.data_len.store(len, Ordering::Release);
            len == 1
        };
        if was_empty {
            PooledShared::fire(&self.shared.on_data);
        }
    }

    /// Non-blocking receive of one control message, distinguishing "nothing
    /// yet" from "consumer gone".  Pending messages are delivered even after
    /// the consumer closed.
    pub fn poll_control(&self) -> ControlPoll {
        if self.shared.ctrl_len.load(Ordering::Acquire) == 0 {
            return if self.shared.consumer_alive.load(Ordering::Acquire) {
                ControlPoll::Empty
            } else {
                ControlPoll::Closed
            };
        }
        let mut control = self.shared.control.lock();
        match control.pop_front() {
            Some(message) => {
                self.shared.ctrl_len.store(control.len(), Ordering::Release);
                ControlPoll::Message(message)
            }
            None => {
                if self.shared.consumer_alive.load(Ordering::Acquire) {
                    ControlPoll::Empty
                } else {
                    ControlPoll::Closed
                }
            }
        }
    }

    /// Closes the producer endpoint: the consumer's polls report `Closed`
    /// once the queue is drained.  Used on failure teardown.
    pub fn close(&self) {
        self.shared.producer_alive.store(false, Ordering::Release);
        PooledShared::fire(&self.shared.on_data);
    }
}

/// Consumer endpoint of a pooled connection: polls pages, sends control
/// messages (feedback) upstream without blocking.
#[derive(Debug, Clone)]
pub struct PooledConsumer {
    shared: Arc<PooledShared>,
}

impl PooledConsumer {
    /// Registers the hook fired when data (or producer close) arrives (wakes
    /// the consumer's task).  Call once, before execution starts.
    pub fn set_on_data(&self, notify: Arc<dyn ReadyNotify>) {
        let _ = self.shared.on_data.set(notify);
    }

    /// Non-blocking receive of one data message, distinguishing "nothing
    /// yet" from "producer gone" (treated as end-of-stream).  Pending
    /// messages are delivered even after the producer closed.
    pub fn poll_data(&self) -> DataPoll {
        if self.shared.data_len.load(Ordering::Acquire) == 0 {
            return if self.shared.producer_alive.load(Ordering::Acquire) {
                DataPoll::Empty
            } else {
                DataPoll::Closed
            };
        }
        let (message, regained_credit) = {
            let mut data = self.shared.data.lock();
            let before = data.len();
            match data.pop_front() {
                Some(message) => {
                    let after = data.len();
                    self.shared.data_len.store(after, Ordering::Release);
                    // Credit exists only below capacity; soft-bounded
                    // overshoot may need several pops before the producer is
                    // runnable again.
                    (Some(message), before >= self.shared.capacity && after < self.shared.capacity)
                }
                None => (None, false),
            }
        };
        match message {
            Some(message) => {
                if regained_credit {
                    PooledShared::fire(&self.shared.on_credit);
                }
                DataPoll::Message(message)
            }
            None => {
                if self.shared.producer_alive.load(Ordering::Acquire) {
                    DataPoll::Empty
                } else {
                    DataPoll::Closed
                }
            }
        }
    }

    /// Sends a control message (feedback punctuation, result request, the
    /// end-of-stream handshake) upstream.  Never blocks; returns `false`
    /// when the producer endpoint has closed, i.e. the message is
    /// undeliverable.
    pub fn send_control(&self, message: ControlMessage) -> bool {
        if !self.shared.producer_alive.load(Ordering::Acquire) {
            return false;
        }
        {
            let mut control = self.shared.control.lock();
            control.push_back(message);
            self.shared.ctrl_len.store(control.len(), Ordering::Release);
        }
        PooledShared::fire(&self.shared.on_control);
        true
    }

    /// Number of pages currently buffered (approximate).
    pub fn pending(&self) -> usize {
        self.shared.data_len.load(Ordering::Acquire)
    }

    /// Closes the consumer endpoint: producer sends start failing and its
    /// control polls report `Closed` once drained.  Used on failure
    /// teardown; also grants the producer permanent credit so it can step
    /// and observe the failure.
    pub fn close(&self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
        PooledShared::fire(&self.shared.on_credit);
        PooledShared::fire(&self.shared.on_control);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::StreamItem;
    use dsms_feedback::FeedbackPunctuation;
    use dsms_punctuation::Pattern;
    use dsms_types::{DataType, Schema, Tuple, Value};

    fn page() -> Page {
        let schema = Schema::shared(&[("v", DataType::Int)]);
        Page::from_items(vec![StreamItem::Tuple(Tuple::new(schema, vec![Value::Int(1)]))])
    }

    #[test]
    fn pages_flow_downstream_and_control_upstream_in_order() {
        let (producer, consumer) = DataQueue::pooled_connection(4);
        assert!(producer.send_page(page()));
        producer.send_end_of_stream();
        assert!(matches!(consumer.poll_data(), DataPoll::Message(QueueMessage::Page(_))));
        assert!(matches!(consumer.poll_data(), DataPoll::Message(QueueMessage::EndOfStream)));
        assert!(matches!(consumer.poll_data(), DataPoll::Empty), "producer still attached");

        let schema = Schema::shared(&[("v", DataType::Int)]);
        assert!(consumer.send_control(ControlMessage::Feedback(FeedbackPunctuation::assumed(
            Pattern::all_wildcards(schema),
            "consumer",
        ))));
        assert!(consumer.send_control(ControlMessage::RequestResults));
        let mut kinds = Vec::new();
        while let ControlPoll::Message(message) = producer.poll_control() {
            kinds.push(message.kind());
        }
        assert_eq!(kinds, ["feedback", "request-results"]);
    }

    #[test]
    fn pooled_connection_tracks_credit_and_fires_hooks() {
        struct Flag(AtomicBool);
        impl ReadyNotify for Flag {
            fn notify(&self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let (producer, consumer) = DataQueue::pooled_connection(2);
        let on_data = Arc::new(Flag(AtomicBool::new(false)));
        let on_credit = Arc::new(Flag(AtomicBool::new(false)));
        let on_control = Arc::new(Flag(AtomicBool::new(false)));
        consumer.set_on_data(on_data.clone());
        producer.set_on_credit(on_credit.clone());
        producer.set_on_control(on_control.clone());

        assert!(producer.has_credit());
        assert!(matches!(consumer.poll_data(), DataPoll::Empty));
        assert!(producer.send_page(page()));
        assert!(on_data.0.swap(false, Ordering::SeqCst), "0→1 fires on_data");
        assert!(producer.send_page(page()));
        assert!(!on_data.0.load(Ordering::SeqCst), "1→2 does not re-fire");
        assert!(!producer.has_credit(), "at capacity");
        // Soft bound: a third push succeeds anyway.
        assert!(producer.send_page(page()));
        assert_eq!(consumer.pending(), 3);

        // Credit returns only once the queue drains below capacity.
        assert!(matches!(consumer.poll_data(), DataPoll::Message(QueueMessage::Page(_))));
        assert!(!on_credit.0.load(Ordering::SeqCst), "3→2 is still at the bound");
        assert!(matches!(consumer.poll_data(), DataPoll::Message(_)));
        assert!(on_credit.0.swap(false, Ordering::SeqCst), "2→1 crosses below capacity");
        assert!(producer.has_credit());

        assert!(consumer.send_control(ControlMessage::RequestResults));
        assert!(on_control.0.swap(false, Ordering::SeqCst));
        assert!(matches!(
            producer.poll_control(),
            ControlPoll::Message(ControlMessage::RequestResults)
        ));
        assert!(matches!(producer.poll_control(), ControlPoll::Empty));
    }

    #[test]
    fn pooled_close_drains_pending_then_reports_closed() {
        let (producer, consumer) = DataQueue::pooled_connection(1);
        producer.send_page(page());
        producer.send_end_of_stream();
        producer.close();
        // Pending messages survive the close…
        assert!(matches!(consumer.poll_data(), DataPoll::Message(QueueMessage::Page(_))));
        assert!(matches!(consumer.poll_data(), DataPoll::Message(QueueMessage::EndOfStream)));
        // …then the hang-up is visible.
        assert!(matches!(consumer.poll_data(), DataPoll::Closed));
        assert!(!consumer.send_control(ControlMessage::EndOfStream), "producer gone");

        let (producer, consumer) = DataQueue::pooled_connection(1);
        consumer.send_control(ControlMessage::RequestResults);
        consumer.close();
        assert!(producer.has_credit(), "dead consumer grants permanent credit");
        assert!(!producer.send_page(page()), "consumer gone");
        assert!(matches!(
            producer.poll_control(),
            ControlPoll::Message(ControlMessage::RequestResults)
        ));
        assert!(matches!(producer.poll_control(), ControlPoll::Closed));
    }
}
