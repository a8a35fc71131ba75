//! The traffic generator: what a generator thread sends, when, and how
//! each operation's latency is timed. Generic over the clock and the
//! session so the pacing rules can be tested without threads.

use std::collections::VecDeque;

use moc_workload::skew::{KeyPicker, KeySkew, SkewRng};

use crate::clock::Clock;
use crate::spec::{Pacing, NUM_OBJECTS};

/// Salt of the class stream, so key and class draws never perturb each
/// other.
const CLASS_SALT: u64 = 0xc1a5_55ed;

/// A generator's operation stream: a pure function of `(seed, thread)`.
/// Keys are uniform: skew would not change a single-sequencer order, and
/// the 64 objects are far fewer than the operations in any window.
#[derive(Debug, Clone)]
pub struct OpStream {
    keys: KeyPicker,
    class: SkewRng,
    update_frac: f64,
}

impl OpStream {
    /// The stream of generator `thread` under `seed`.
    pub fn new(seed: u64, thread: usize, update_pct: u32) -> Self {
        OpStream {
            keys: KeyPicker::new(KeySkew::Uniform, NUM_OBJECTS, seed, thread),
            class: SkewRng::new(seed ^ CLASS_SALT ^ ((thread as u64) << 17)),
            update_frac: f64::from(update_pct) / 100.0,
        }
    }

    /// The next operation: its first key and whether it is an update.
    pub fn next_op(&mut self) -> (u32, bool) {
        (
            self.keys.next_key(),
            self.class.next_f64() < self.update_frac,
        )
    }
}

/// The cluster's stamps on a reply, ns on the cluster's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Per-process sequence number the replica gave the operation.
    pub seq: u32,
    /// When the replica took the invocation off its inbox.
    pub invoked_at: u64,
    /// When the replica retired it (the response event).
    pub responded_at: u64,
}

/// The invocation was refused (the process is quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused;

/// What a generator drives: a pipelined session of one process. Replies
/// come back in invocation order.
pub trait Session {
    /// Sends an operation; if the window was full, first blocks for and
    /// returns the oldest outstanding reply.
    fn invoke(&mut self, key: u32, update: bool) -> Result<Option<Stamp>, Refused>;
    /// Blocks for every outstanding reply.
    fn drain(&mut self) -> Vec<Stamp>;
}

/// When and how much a generator sends.
#[derive(Debug, Clone, Copy)]
pub struct GenPlan {
    /// Closed or open loop.
    pub pacing: Pacing,
    /// Whether each operation waits for its reply before the next is sent
    /// (closed loop, window 1).
    pub blocking: bool,
    /// First due time; nothing is sent before.
    pub start_ns: u64,
    /// Nothing is sent at or after this time.
    pub stop_ns: u64,
    /// Operation budget (the audit run is bounded by count, not time).
    pub max_ops: u64,
}

/// One replied operation as the generator saw it, ns on the benchmark's
/// clock except for the cluster's `stamp`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Whether it was an update.
    pub update: bool,
    /// Where its latency starts: the due time (open loop), the send time
    /// (blocking), or the moment the send returned (closed loop with a
    /// window, where `invoke` first waits for room and the send is its
    /// last step).
    pub start_ns: u64,
    /// When the generator called `invoke`.
    pub sent_ns: u64,
    /// When the generator held the reply (blocking only; 0 otherwise).
    pub recv_ns: u64,
    /// The cluster's stamps.
    pub stamp: Stamp,
}

/// What one generator did.
#[derive(Debug, Clone, Default)]
pub struct GenOutput {
    /// Replied operations, in invocation order.
    pub samples: Vec<Sample>,
    /// Invocations attempted.
    pub attempted: u64,
    /// Invocations refused.
    pub refused: u64,
    /// Invocations accepted and never answered.
    pub unanswered: u64,
    /// Send time minus due time of every open-loop operation, ns.
    pub late_ns: Vec<u64>,
    /// Time spent drawing operations from the stream, ns.
    pub gen_ns: u64,
}

struct Sent {
    update: bool,
    start_ns: u64,
    sent_ns: u64,
}

/// Runs one generator to the end of its plan, then collects the
/// outstanding replies.
pub fn generate<C: Clock, S: Session>(
    clock: &C,
    session: &mut S,
    stream: &mut OpStream,
    plan: &GenPlan,
) -> GenOutput {
    let mut out = GenOutput::default();
    let mut sent: VecDeque<Sent> = VecDeque::new();
    let retire = |out: &mut GenOutput, sent: &mut VecDeque<Sent>, stamp: Stamp, recv_ns: u64| {
        let s = sent.pop_front().expect("a reply answers a sent operation");
        out.samples.push(Sample {
            update: s.update,
            start_ns: s.start_ns,
            sent_ns: s.sent_ns,
            recv_ns,
            stamp,
        });
    };

    clock.sleep_until(plan.start_ns);
    while out.attempted < plan.max_ops {
        let due_ns = match plan.pacing {
            Pacing::Closed => None,
            Pacing::Open { interval_ns } => Some(plan.start_ns + out.attempted * interval_ns),
        };
        if due_ns.unwrap_or_else(|| clock.now_ns()) >= plan.stop_ns {
            break;
        }
        if let Some(due) = due_ns {
            clock.sleep_until(due);
        }
        let draw_ns = clock.now_ns();
        let (key, update) = stream.next_op();
        let sent_ns = clock.now_ns();
        out.gen_ns += sent_ns - draw_ns;
        if let Some(due) = due_ns {
            out.late_ns.push(sent_ns.saturating_sub(due));
        }
        out.attempted += 1;
        let retired = match session.invoke(key, update) {
            Ok(retired) => retired,
            Err(Refused) => {
                out.refused += 1;
                continue;
            }
        };
        let start_ns = match due_ns {
            Some(due) => due,
            None if plan.blocking => sent_ns,
            None => clock.now_ns(),
        };
        sent.push_back(Sent {
            update,
            start_ns,
            sent_ns,
        });
        if let Some(stamp) = retired {
            retire(&mut out, &mut sent, stamp, 0);
        }
        if plan.blocking {
            for stamp in session.drain() {
                retire(&mut out, &mut sent, stamp, clock.now_ns());
            }
        }
    }
    for stamp in session.drain() {
        retire(&mut out, &mut sent, stamp, 0);
    }
    out.unanswered = sent.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock the test moves: sleeping jumps to the target.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    /// Answers every operation 50 µs after it was sent; the operation at
    /// `stall_at` holds the caller for `stall_ns` first (a full window).
    struct FakeSession<'a> {
        clock: &'a FakeClock,
        stall_at: u32,
        stall_ns: u64,
        next_seq: u32,
        replies: Vec<Stamp>,
    }

    impl Session for FakeSession<'_> {
        fn invoke(&mut self, _key: u32, _update: bool) -> Result<Option<Stamp>, Refused> {
            if self.next_seq == self.stall_at {
                self.clock.0.set(self.clock.0.get() + self.stall_ns);
            }
            let now = self.clock.0.get();
            self.replies.push(Stamp {
                seq: self.next_seq,
                invoked_at: now,
                responded_at: now + 50_000,
            });
            self.next_seq += 1;
            Ok(None)
        }

        fn drain(&mut self) -> Vec<Stamp> {
            std::mem::take(&mut self.replies)
        }
    }

    /// An open-loop operation that was due while the generator was stalled
    /// is timed from its due time, so the stall counts against it; timing
    /// from the send would hide it (coordinated omission).
    #[test]
    fn open_loop_latency_is_measured_from_due_time() {
        let clock = FakeClock(Cell::new(0));
        let mut session = FakeSession {
            clock: &clock,
            stall_at: 2,
            stall_ns: 10_000_000,
            next_seq: 0,
            replies: Vec::new(),
        };
        let plan = GenPlan {
            pacing: Pacing::Open {
                interval_ns: 100_000,
            },
            blocking: false,
            start_ns: 1_000_000,
            stop_ns: 2_000_000,
            max_ops: u64::MAX,
        };
        let mut stream = OpStream::new(1, 0, 100);
        let out = generate(&clock, &mut session, &mut stream, &plan);
        assert_eq!(out.attempted, 10, "one operation per due time in the plan");
        assert_eq!(out.samples.len(), 10);
        assert_eq!(out.unanswered, 0);
        for (i, s) in out.samples.iter().enumerate() {
            assert_eq!(s.start_ns, 1_000_000 + i as u64 * 100_000, "due time");
        }
        // Operation 3 was due 100 µs after operation 2, whose send stalled
        // for 10 ms: it was sent 9.9 ms late and that wait is its latency.
        let latency = |i: usize| out.samples[i].stamp.responded_at - out.samples[i].start_ns;
        assert_eq!(latency(1), 50_000);
        assert_eq!(latency(3), 9_900_000 + 50_000);
        assert_eq!(out.late_ns[3], 9_900_000);
        assert_eq!(out.late_ns[1], 0);
    }

    #[test]
    fn closed_loop_stops_at_the_budget_and_times_from_the_send() {
        let clock = FakeClock(Cell::new(0));
        let mut session = FakeSession {
            clock: &clock,
            stall_at: u32::MAX,
            stall_ns: 0,
            next_seq: 0,
            replies: Vec::new(),
        };
        let plan = GenPlan {
            pacing: Pacing::Closed,
            blocking: true,
            start_ns: 500,
            stop_ns: u64::MAX,
            max_ops: 7,
        };
        let mut stream = OpStream::new(1, 0, 50);
        let out = generate(&clock, &mut session, &mut stream, &plan);
        assert_eq!(out.attempted, 7);
        assert_eq!(out.samples.len(), 7);
        assert!(out.late_ns.is_empty(), "a closed loop has no due times");
        assert!(out.samples.iter().all(|s| s.start_ns == s.sent_ns));
    }

    #[test]
    fn streams_depend_on_seed_and_thread_only() {
        let draw = |seed, thread| {
            let mut s = OpStream::new(seed, thread, 50);
            (0..64).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }
}
