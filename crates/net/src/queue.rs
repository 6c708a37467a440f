use std::collections::BTreeMap;

/// A timed event queue: pops events earliest first, and events due at the
/// same time in the order they were pushed.
///
/// The insertion-sequence tie-break is what makes a run replay: two
/// events at one instant never swap places. [`EventEngine`](crate::EventEngine)
/// keeps its events here, keyed by simulated time; the runtime's
/// virtual-time cluster keys it by `Instant`.
///
/// # Example
///
/// ```
/// use distclass_net::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(2, "late");
/// q.push(1, "first");
/// q.push(1, "second");
/// assert_eq!(q.pop(), Some((1, "first")));
/// assert_eq!(q.pop(), Some((1, "second")));
/// assert_eq!(q.peek_time(), Some(&2));
/// ```
pub struct EventQueue<T: Ord, E> {
    events: BTreeMap<(T, u64), E>,
    seq: u64,
}

impl<T: Ord, E> Default for EventQueue<T, E> {
    fn default() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            seq: 0,
        }
    }
}

impl<T: Ord, E> EventQueue<T, E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`, behind everything already due then.
    pub fn push(&mut self, time: T, event: E) {
        self.events.insert((time, self.seq), event);
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(T, E)> {
        self.events
            .pop_first()
            .map(|((time, _), event)| (time, event))
    }

    /// The time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<&T> {
        self.events.first_key_value().map(|((time, _), _)| time)
    }
}
