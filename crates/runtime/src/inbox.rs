//! The one hand-off between a cluster's threads: a queue under a lock whose
//! single receiver sleeps in [`std::thread::park`].
//!
//! Replica inboxes, reply inboxes and the sentinel's feed are all an
//! [`Inbox`]. A sender pushes under the lock and then unparks the receiving
//! thread, which is an atomic swap and a futex call only when that thread
//! is actually parked. The receiver takes *everything* queued in one lock,
//! by swapping the queue with a vector of its own, and both vectors keep
//! their capacity from one take to the next.

use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// A multi-producer, single-consumer queue whose receiver parks.
///
/// What the runtime's channel argument needs of it (see the crate docs):
/// - every item sent is taken exactly once: `send` pushes it under the
///   lock, and a take swaps the whole queue out under the same lock, so an
///   item is in exactly one vector at any time and no take can see it
///   twice or skip it;
/// - the items of one sending thread are taken in the order it sent them:
///   its pushes are ordered by the lock, the queue keeps push order, and a
///   swap hands the receiver a prefix of that order, the next take the
///   rest;
/// - no wake-up is lost: the receiver binds its [`Thread`] before its
///   first look at the queue, and a sender looks for the binding only
///   after its push has released the lock. Either the receiver's look
///   comes after the push and finds the item, or the binding came before
///   the push and the sender unparks it; an unpark that comes before the
///   `park` makes that `park` return at once.
///
/// The receiver is one thread for the inbox's life (the first that waits
/// on it). [`Inbox::close`] makes later sends fail, as a send to a
/// dropped receiver does.
pub(crate) struct Inbox<T> {
    queue: Mutex<Queue<T>>,
    /// The thread that takes from this inbox, bound by its first take.
    receiver: OnceLock<Thread>,
}

struct Queue<T> {
    items: Vec<T>,
    closed: bool,
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Self {
        Inbox {
            queue: Mutex::new(Queue {
                items: Vec::new(),
                closed: false,
            }),
            receiver: OnceLock::new(),
        }
    }

    /// Queues `item` and wakes the receiver if it sleeps. Hands the item
    /// back once the inbox is closed.
    pub(crate) fn send(&self, item: T) -> Result<(), T> {
        {
            let mut queue = self.queue.lock();
            if queue.closed {
                return Err(item);
            }
            queue.items.push(item);
        }
        self.wake();
        Ok(())
    }

    /// Makes every later [`Inbox::send`] fail. What is queued stays for the
    /// receiver's next take, which reports the inbox closed.
    pub(crate) fn close(&self) {
        self.queue.lock().closed = true;
        self.wake();
    }

    fn wake(&self) {
        if let Some(receiver) = self.receiver.get() {
            receiver.unpark();
        }
    }

    /// Waits until something is queued or the inbox is closed, for at most
    /// `wait` (`None`: with no bound), then swaps everything queued into
    /// `batch`, which must be empty, in one lock. `Some(Duration::ZERO)`
    /// takes what is there without waiting. Returns whether the inbox is
    /// still open; once it is closed, the take that says so has emptied it.
    pub(crate) fn take(&self, batch: &mut Vec<T>, wait: Option<Duration>) -> bool {
        debug_assert!(batch.is_empty(), "a take swaps into an empty batch");
        let me = self.receiver.get_or_init(thread::current);
        debug_assert_eq!(me.id(), thread::current().id(), "one receiving thread");
        // An unrepresentable deadline is no deadline.
        let deadline = wait.and_then(|wait| Instant::now().checked_add(wait));
        loop {
            {
                let mut queue = self.queue.lock();
                if !queue.items.is_empty() || queue.closed {
                    std::mem::swap(&mut queue.items, batch);
                    return !queue.closed;
                }
            }
            // A wake-up may be spurious or stale: the loop looks again.
            match deadline {
                None => thread::park(),
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => thread::park_timeout(left),
                    _ => return true,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_senders_deliver_every_item_once_and_in_order() {
        const SENDERS: usize = 3;
        const PER_SENDER: usize = 10_000;
        let inbox = Inbox::new();
        let mut next = [0; SENDERS];
        std::thread::scope(|s| {
            for sender in 0..SENDERS {
                let inbox = &inbox;
                s.spawn(move || {
                    for k in 0..PER_SENDER {
                        inbox.send((sender, k)).expect("the inbox is open");
                    }
                });
            }
            let mut batch = Vec::new();
            let mut taken = 0;
            while taken < SENDERS * PER_SENDER {
                assert!(inbox.take(&mut batch, None));
                for (sender, k) in batch.drain(..) {
                    assert_eq!(k, next[sender], "sender {sender}: once each, in order");
                    next[sender] += 1;
                    taken += 1;
                }
            }
        });
        assert_eq!(next, [PER_SENDER; SENDERS]);
        let mut batch = Vec::new();
        assert!(inbox.take(&mut batch, Some(Duration::ZERO)) && batch.is_empty());
    }

    /// The item is queued, by a thread that has finished, before any
    /// thread has waited on the inbox: no receiver is bound, so the send
    /// unparked nobody. The first wait must still find it rather than
    /// sleep to its deadline (a minute, the bound on a lost item).
    #[test]
    fn a_send_before_the_first_wait_is_not_lost() {
        let inbox = Inbox::new();
        std::thread::scope(|s| {
            s.spawn(|| inbox.send(7).expect("the inbox is open"));
        });
        let mut batch = Vec::new();
        assert!(inbox.take(&mut batch, Some(Duration::from_secs(60))));
        assert_eq!(batch, [7]);
    }

    #[test]
    fn a_send_after_close_fails() {
        let inbox = Inbox::new();
        inbox.send('a').expect("the inbox is open");
        inbox.close();
        assert_eq!(inbox.send('b'), Err('b'), "the item comes back");
        let mut batch = Vec::new();
        assert!(
            !inbox.take(&mut batch, None),
            "closed, and it does not wait"
        );
        assert_eq!(batch, ['a'], "what was queued before the close is taken");
    }

    #[test]
    fn a_timed_wait_returns_at_its_deadline() {
        let inbox: Inbox<()> = Inbox::new();
        let mut batch = Vec::new();
        let wait = Duration::from_millis(20);
        let start = Instant::now();
        assert!(inbox.take(&mut batch, Some(wait)), "still open");
        assert!(
            start.elapsed() >= wait,
            "returned early: {:?}",
            start.elapsed()
        );
        assert!(batch.is_empty());
    }
}
