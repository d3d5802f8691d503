//! The discrete-event queue.
//!
//! Events are totally ordered by `(time, prio, sequence)`. The priority is
//! the event's *lane key* — derived by the network from the causing node
//! and that node's cause counter — so same-instant ordering is a function
//! of causality, not of the order pushes happen to arrive in; the sequence
//! number (assigned monotonically at insertion) only resolves pushes the
//! priority leaves equal. This is what lets a sharded run reproduce the
//! sequential event order bit-for-bit.
//!
//! The queue is a thin dispatcher over the two scheduler implementations in
//! [`crate::sched`]: the timing wheel (default hot path) and the binary heap
//! (reference/baseline). Both produce the same total order; which one runs
//! is selected by [`SchedulerKind`] in the network configuration.

use crate::node::NodeId;
use crate::sched::{Entry, HeapScheduler, SchedulerKind, TimingWheel, TraceOp};
use crate::time::SimTime;

/// A tag identifying a timer set by a protocol.
///
/// Protocols multiplex all their periodic and one-shot timers through a
/// single `on_timer` callback; `kind` distinguishes timer families (e.g.
/// "shuffle tick" vs "pull tick") and `data` carries an optional payload
/// (e.g. a message sequence number the timer refers to). The simulator never
/// interprets the contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerTag {
    /// Protocol-defined timer family.
    pub kind: u16,
    /// Protocol-defined payload.
    pub data: u64,
}

impl TimerTag {
    /// Convenience constructor.
    pub const fn new(kind: u16, data: u64) -> Self {
        TimerTag { kind, data }
    }

    /// A tag with no payload.
    pub const fn of_kind(kind: u16) -> Self {
        TimerTag { kind, data: 0 }
    }
}

/// Kinds of event processed by the simulation loop.
#[derive(Debug, Clone)]
pub(crate) enum EventKind<M> {
    /// A message reaches its destination.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        size: usize,
    },
    /// A timer set by `node` fires.
    Timer { node: NodeId, tag: TimerTag },
    /// `node` learns (through connection-level failure detection) that the
    /// connection to `peer` is broken.
    LinkDown { node: NodeId, peer: NodeId },
    /// A node previously added with a start delay begins executing.
    Start { node: NodeId },
}

// One `QueueImpl` exists per simulation, so the size difference between the
// wheel (inline bitmap + cursor header) and the heap is irrelevant — while
// boxing the wheel would put an extra pointer chase on every push/pop of
// the hot path.
#[allow(clippy::large_enum_variant)]
enum QueueImpl<M> {
    Wheel(TimingWheel<EventKind<M>>),
    Heap(HeapScheduler<EventKind<M>>),
}

/// A deterministic priority queue of simulation events.
pub(crate) struct EventQueue<M> {
    queue: QueueImpl<M>,
    /// When tracing is enabled, every push/pop is recorded so benches can
    /// replay the exact operation sequence through a scheduler in isolation.
    trace: Option<Vec<TraceOp>>,
}

impl<M> EventQueue<M> {
    pub fn new(kind: SchedulerKind, trace_events: bool) -> Self {
        EventQueue {
            queue: match kind {
                SchedulerKind::TimingWheel => QueueImpl::Wheel(TimingWheel::new()),
                SchedulerKind::BinaryHeap => QueueImpl::Heap(HeapScheduler::new()),
            },
            trace: trace_events.then(Vec::new),
        }
    }

    /// Schedules `kind` at absolute time `time` with lane-key priority
    /// `prio` (same-instant events pop in ascending `(prio, seq)` order).
    pub fn push(&mut self, time: SimTime, prio: u64, kind: EventKind<M>) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceOp::Push(time));
        }
        match &mut self.queue {
            QueueImpl::Wheel(w) => w.push_prio(time, prio, kind),
            QueueImpl::Heap(h) => h.push_prio(time, prio, kind),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Entry<EventKind<M>>> {
        let popped = match &mut self.queue {
            QueueImpl::Wheel(w) => w.pop(),
            QueueImpl::Heap(h) => h.pop(),
        };
        if popped.is_some() {
            if let Some(trace) = &mut self.trace {
                trace.push(TraceOp::Pop);
            }
        }
        popped
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.queue {
            QueueImpl::Wheel(w) => w.peek_time(),
            QueueImpl::Heap(h) => h.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.queue {
            QueueImpl::Wheel(w) => w.len(),
            QueueImpl::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the recorded operation trace (empty when tracing is disabled).
    pub fn take_trace(&mut self) -> Vec<TraceOp> {
        self.trace.take().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(node),
            tag: TimerTag::of_kind(0),
        }
    }

    fn queue(kind: SchedulerKind) -> EventQueue<()> {
        EventQueue::new(kind, false)
    }

    #[test]
    fn pops_in_time_order() {
        for kind in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let mut q = queue(kind);
            q.push(SimTime::from_millis(30), 0, timer(3));
            q.push(SimTime::from_millis(10), 0, timer(1));
            q.push(SimTime::from_millis(20), 0, timer(2));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|e| e.time.as_micros())
                .collect();
            assert_eq!(order, vec![10_000, 20_000, 30_000]);
        }
    }

    #[test]
    fn same_time_pops_in_insertion_order() {
        for kind in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let mut q = queue(kind);
            let t = SimTime::from_millis(5);
            for i in 0..10u32 {
                q.push(t, 0, timer(i));
            }
            let nodes: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|e| match e.item {
                    EventKind::Timer { node, .. } => node.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(nodes, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = queue(SchedulerKind::default());
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), 0, timer(0));
        q.push(SimTime::from_secs(2), 0, timer(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn trace_records_operations() {
        let mut q: EventQueue<()> = EventQueue::new(SchedulerKind::default(), true);
        q.push(SimTime::from_millis(1), 0, timer(0));
        q.push(SimTime::from_millis(2), 0, timer(1));
        q.pop();
        let trace = q.take_trace();
        assert_eq!(
            trace,
            vec![
                TraceOp::Push(SimTime::from_millis(1)),
                TraceOp::Push(SimTime::from_millis(2)),
                TraceOp::Pop,
            ]
        );
        // Untraced queues return an empty trace.
        let mut untraced = queue(SchedulerKind::default());
        untraced.push(SimTime::from_millis(1), 0, timer(0));
        assert!(untraced.take_trace().is_empty());
    }

    #[test]
    fn timer_tag_constructors() {
        assert_eq!(TimerTag::new(3, 9), TimerTag { kind: 3, data: 9 });
        assert_eq!(TimerTag::of_kind(5), TimerTag { kind: 5, data: 0 });
    }
}
