//! Fixed-sequencer atomic broadcast.
//!
//! Process 0 acts as the sequencer. A broadcast is submitted to the
//! sequencer, which stamps it with the next global sequence number and
//! relays it to every process (including itself and the submitter). Each
//! process buffers stamped messages and delivers them gap-free in stamp
//! order, which yields the agreed total order even when the network
//! reorders messages arbitrarily.

use std::collections::BTreeMap;
use std::ops::Range;

use moc_core::ids::ProcessId;

use crate::{Abcast, BatchConfig, BatchStats, Delivery, Fanout, GroupCommit, Outbox};

/// Wire messages of the sequencer protocol.
#[derive(Debug, Clone)]
pub enum SequencerMsg<T> {
    /// Submitter → sequencer: please order this item.
    Submit {
        /// The broadcasting process.
        origin: ProcessId,
        /// The item to order.
        item: T,
    },
    /// Sequencer → everyone: item with its global sequence number.
    Ordered {
        /// Global position assigned by the sequencer.
        seq: u64,
        /// The broadcasting process.
        origin: ProcessId,
        /// The ordered item.
        item: T,
    },
    /// Sequencer → everyone: a group-committed run of consecutively
    /// stamped items (`items[i]` carries stamp `first_seq + i`). One wire
    /// frame — and therefore one reliable-link ack — covers the whole
    /// batch. Stamps were assigned at submission arrival, so the carried
    /// order is identical to what per-item `Ordered` fan-out would agree.
    OrderedBatch {
        /// Stamp of `items[0]`.
        first_seq: u64,
        /// `(origin, item)` pairs in stamp order.
        items: Vec<(ProcessId, T)>,
    },
}

/// One process's endpoint of the fixed-sequencer protocol.
#[derive(Debug, Clone)]
pub struct SequencerAbcast<T> {
    me: ProcessId,
    /// The process acting as this channel's sequencer (process 0 unless
    /// overridden with [`SequencerAbcast::with_sequencer`]).
    sequencer: ProcessId,
    /// Next sequence number to assign (meaningful only at the sequencer).
    next_to_assign: u64,
    /// Next sequence number to deliver locally.
    next_to_deliver: u64,
    /// Out-of-order buffer: stamped messages waiting for their gap to fill.
    buffer: BTreeMap<u64, (ProcessId, T)>,
    delivered: Vec<Delivery<T>>,
    delivered_count: u64,
    /// Set when the sequencer restarts after a crash: its `next_to_assign`
    /// counter is volatile, so a restarted sequencer must stop stamping
    /// (see [`Abcast::on_restart`]) instead of silently forking the order.
    halted: bool,
    /// Group commit of stamped `(origin, item)` pairs (meaningful only at
    /// the sequencer).
    group: GroupCommit<(ProcessId, T)>,
    /// Last time observed via `on_tick` (drives deadline arming).
    now: u64,
    /// Where the last [`SequencerAbcast::take_newly_stamped`] call
    /// stopped: stamps `stamps_taken..next_to_assign` are new since. Lets
    /// a wrapping layer observe stamp *assignment* (which happens at
    /// submission arrival) independently of fan-out (which batching may
    /// defer) — the conflict-sharded merge keys its barrier broadcasts
    /// off this so barrier positions do not move with the batch size.
    /// Stamps are consecutive, so a cursor holds them all, taker or not.
    stamps_taken: u64,
}

impl<T> SequencerAbcast<T> {
    /// The default sequencer identity (process 0 by convention).
    pub const SEQUENCER: ProcessId = ProcessId::new(0);

    /// Re-homes the channel's sequencer role. Every endpoint of a channel
    /// must agree on the sequencer, so call this uniformly right after
    /// [`Abcast::new`], before any traffic flows.
    pub fn with_sequencer(mut self, sequencer: ProcessId) -> Self {
        self.sequencer = sequencer;
        self
    }

    /// The process currently acting as sequencer for this channel.
    pub fn sequencer(&self) -> ProcessId {
        self.sequencer
    }

    /// Whether this endpoint is the sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.me == self.sequencer
    }

    /// Whether this endpoint has fail-stopped (a restarted sequencer).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The stamps this endpoint assigned (as sequencer) since the last
    /// call, in assignment order.
    pub fn take_newly_stamped(&mut self) -> Range<u64> {
        let stamped = self.stamps_taken..self.next_to_assign;
        self.stamps_taken = self.next_to_assign;
        stamped
    }

    fn pump(&mut self) {
        while let Some(entry) = self.buffer.remove(&self.next_to_deliver) {
            let (origin, item) = entry;
            self.delivered.push(Delivery {
                origin,
                global_seq: self.next_to_deliver,
                item,
            });
            self.next_to_deliver += 1;
            self.delivered_count += 1;
        }
    }

    /// Puts a group-commit outcome on the wire: one frame per process.
    fn fan_out(fanout: Fanout<(ProcessId, T)>, out: &mut Outbox<SequencerMsg<T>>)
    where
        T: Clone,
    {
        match fanout {
            Fanout::Hold => {}
            Fanout::One(seq, (origin, item)) => {
                out.send_all(SequencerMsg::Ordered { seq, origin, item })
            }
            Fanout::Run(first_seq, items) => {
                out.send_all(SequencerMsg::OrderedBatch { first_seq, items })
            }
        }
    }
}

impl<T: Clone + std::fmt::Debug> Abcast<T> for SequencerAbcast<T> {
    type Msg = SequencerMsg<T>;

    fn new(me: ProcessId, _n: usize) -> Self {
        SequencerAbcast {
            me,
            sequencer: Self::SEQUENCER,
            next_to_assign: 0,
            next_to_deliver: 0,
            buffer: BTreeMap::new(),
            delivered: Vec::new(),
            delivered_count: 0,
            halted: false,
            group: GroupCommit::new(),
            now: 0,
            stamps_taken: 0,
        }
    }

    fn broadcast(&mut self, item: T, out: &mut Outbox<Self::Msg>) {
        out.send(
            self.sequencer,
            SequencerMsg::Submit {
                origin: self.me,
                item,
            },
        );
    }

    fn on_message(&mut self, _from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        match msg {
            SequencerMsg::Submit { origin, item } => {
                debug_assert!(self.is_sequencer(), "Submit routed to non-sequencer");
                if self.halted {
                    // A restarted sequencer cannot trust its volatile
                    // `next_to_assign`: stamping from a stale value would
                    // reuse sequence numbers, which followers silently
                    // drop as duplicates — a *corrupted* order. Refusing
                    // to stamp turns the damage into a detectable stall
                    // (unfinished operations) instead.
                    return;
                }
                let seq = self.next_to_assign;
                self.next_to_assign += 1;
                Self::fan_out(self.group.push(seq, (origin, item)), out);
            }
            SequencerMsg::Ordered { seq, origin, item } => {
                // A stamp below the delivery frontier is a duplicate of an
                // already-delivered frame (e.g. a retransmission that an
                // imperfect link let through): the gap-free stamp-order
                // discipline simply ignores it. Re-inserting a buffered
                // stamp is likewise idempotent.
                if seq >= self.next_to_deliver {
                    self.buffer.insert(seq, (origin, item));
                    self.pump();
                }
            }
            SequencerMsg::OrderedBatch { first_seq, items } => {
                for (i, (origin, item)) in items.into_iter().enumerate() {
                    let seq = first_seq + i as u64;
                    if seq >= self.next_to_deliver {
                        self.buffer.insert(seq, (origin, item));
                    }
                }
                self.pump();
            }
        }
    }

    fn drain_delivered(&mut self) -> Vec<Delivery<T>> {
        std::mem::take(&mut self.delivered)
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn next_deadline(&self) -> Option<u64> {
        self.group.next_deadline(self.now)
    }

    fn on_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        self.now = self.now.max(now_ns);
        Self::fan_out(self.group.on_tick(self.now), out);
    }

    fn set_batching(&mut self, cfg: BatchConfig) {
        debug_assert!(
            self.next_to_assign == 0 && self.delivered_count == 0,
            "batching must be configured before any traffic"
        );
        self.group.configure(cfg);
    }

    fn batch_stats(&self) -> BatchStats {
        self.group.stats()
    }

    fn on_restart(&mut self, _now_ns: u64, _out: &mut Outbox<Self::Msg>) {
        // Fail-stop semantics for the single point of failure: a real
        // sequencer's assignment counter would not survive a crash, and
        // this protocol has no way to re-establish it safely (any guess
        // may fork or lose items). Followers keep delivering what was
        // already stamped; new submissions go unanswered — detectably.
        if self.is_sequencer() {
            self.halted = true;
            self.group.clear();
        }
    }

    fn transcript(&self) -> Vec<String> {
        if self.halted {
            vec![format!(
                "P{}: sequencer restarted; stamping halted (fail-stop)",
                self.me.as_u32()
            )]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Drives two endpoints by hand, delivering `Ordered` messages to the
    /// non-sequencer out of order.
    #[test]
    fn out_of_order_stamps_are_buffered() {
        let n = 2;
        let mut seqr: SequencerAbcast<u8> = SequencerAbcast::new(pid(0), n);
        let mut follower: SequencerAbcast<u8> = SequencerAbcast::new(pid(1), n);
        let mut out = Outbox::new(n);

        // Two submissions reach the sequencer.
        seqr.on_message(
            pid(1),
            SequencerMsg::Submit {
                origin: pid(1),
                item: 10,
            },
            &mut out,
        );
        seqr.on_message(
            pid(1),
            SequencerMsg::Submit {
                origin: pid(1),
                item: 20,
            },
            &mut out,
        );
        let msgs: Vec<_> = out
            .drain()
            .into_iter()
            .filter(|(to, _)| *to == pid(1))
            .map(|(_, m)| m)
            .collect();
        assert_eq!(msgs.len(), 2);

        // Deliver them to the follower in reverse.
        let mut out2 = Outbox::new(n);
        follower.on_message(pid(0), msgs[1].clone(), &mut out2);
        assert!(follower.drain_delivered().is_empty(), "gap: must buffer");
        follower.on_message(pid(0), msgs[0].clone(), &mut out2);
        let got = follower.drain_delivered();
        assert_eq!(
            got.iter().map(|d| d.item).collect::<Vec<_>>(),
            vec![10, 20],
            "delivery order follows stamps, not arrival"
        );
        assert_eq!(got[0].global_seq, 0);
        assert_eq!(got[1].global_seq, 1);
        assert_eq!(follower.delivered_count(), 2);
    }

    /// Regression (S1): a restarted sequencer must fail-stop, not resume
    /// stamping from its (volatile, now stale) counter. Pre-fix, the
    /// restarted endpoint re-assigned sequence numbers from an arbitrary
    /// point; stamps below a follower's delivery frontier are silently
    /// ignored as duplicates, so the corruption was *undetectable* at the
    /// abcast layer. Post-fix the sequencer refuses to stamp, which the
    /// chaos harness surfaces as unfinished operations.
    #[test]
    fn restarted_sequencer_fail_stops_instead_of_restamping() {
        let n = 2;
        let mut seqr: SequencerAbcast<u8> = SequencerAbcast::new(pid(0), n);
        let mut follower: SequencerAbcast<u8> = SequencerAbcast::new(pid(1), n);
        let mut out = Outbox::new(n);

        // One item is stamped and delivered everywhere before the crash.
        seqr.on_message(
            pid(1),
            SequencerMsg::Submit {
                origin: pid(1),
                item: 10,
            },
            &mut out,
        );
        for (to, m) in out.drain() {
            if to == pid(1) {
                follower.on_message(pid(0), m, &mut out);
            }
        }
        out.drain();
        assert_eq!(follower.drain_delivered().len(), 1);

        // The sequencer crashes and restarts.
        seqr.on_restart(500_000, &mut out);
        assert!(seqr.is_halted());
        assert!(!seqr.transcript().is_empty());

        // A new submission after the restart must NOT be stamped: a fresh
        // stamp from a stale counter would collide with seq 0, which the
        // follower would silently drop (duplicate rule) — losing the item
        // while every endpoint still looks healthy.
        seqr.on_message(
            pid(1),
            SequencerMsg::Submit {
                origin: pid(1),
                item: 20,
            },
            &mut out,
        );
        assert!(
            out.is_empty(),
            "halted sequencer must not emit stamps: {:?}",
            out.len()
        );

        // Followers that restart are unaffected (their state is a cache
        // of the agreed order, rebuilt gap-free from stamps).
        follower.on_restart(500_000, &mut out);
        assert!(!follower.is_halted());
    }

    /// Only the sharded merge takes the new stamps; under a plain sequencer
    /// nobody does, for the life of the process. The stamps not yet taken
    /// are a cursor, not a list: ten thousand of them leave the endpoint
    /// the handful of counters it started as, and a taker that shows up
    /// late — or after a restart — still sees each stamp exactly once.
    #[test]
    fn untaken_stamps_cost_no_memory_and_are_each_taken_once() {
        let n = 2;
        let mut seqr: SequencerAbcast<u8> = SequencerAbcast::new(pid(0), n);
        let mut out = Outbox::new(n);
        let mut submit = |seqr: &mut SequencerAbcast<u8>, count: usize| {
            for _ in 0..count {
                let origin = pid(1);
                seqr.on_message(origin, SequencerMsg::Submit { origin, item: 7 }, &mut out);
                out.drain();
            }
        };
        assert_eq!(seqr.take_newly_stamped(), 0..0);
        submit(&mut seqr, 10_000);
        // Every field shows in the derived `Debug`, element by element.
        let state = format!("{seqr:?}");
        assert!(state.len() < 512, "state grew with the stamps: {state}");
        assert_eq!(seqr.take_newly_stamped(), 0..10_000);
        assert_eq!(seqr.take_newly_stamped(), 10_000..10_000, "taken once");
        submit(&mut seqr, 3);
        assert_eq!(
            seqr.take_newly_stamped().collect::<Vec<_>>(),
            [10_000, 10_001, 10_002]
        );

        // A restart halts stamping; what was stamped before it is still
        // reported, and nothing after.
        submit(&mut seqr, 2);
        seqr.on_restart(1, &mut Outbox::new(n));
        submit(&mut seqr, 5);
        assert_eq!(seqr.take_newly_stamped(), 10_003..10_005);
        assert_eq!(seqr.take_newly_stamped(), 10_005..10_005);

        // A follower never stamps.
        let mut follower: SequencerAbcast<u8> = SequencerAbcast::new(pid(1), n);
        assert!(follower.take_newly_stamped().is_empty());
    }

    /// Size-triggered group commit: stamps are assigned per submission,
    /// but the fan-out is one `OrderedBatch` frame covering the run, and
    /// followers deliver the identical order the unbatched path agrees.
    #[test]
    fn size_threshold_flushes_one_batch_frame() {
        let n = 2;
        let mut seqr: SequencerAbcast<u8> = SequencerAbcast::new(pid(0), n);
        seqr.set_batching(BatchConfig {
            max_batch: 3,
            max_delay_ns: 1_000_000,
        });
        let mut follower: SequencerAbcast<u8> = SequencerAbcast::new(pid(1), n);
        let mut out = Outbox::new(n);
        for item in [10, 20] {
            seqr.on_message(
                pid(1),
                SequencerMsg::Submit {
                    origin: pid(1),
                    item,
                },
                &mut out,
            );
        }
        assert!(out.is_empty(), "below threshold: nothing on the wire");
        assert!(seqr.next_deadline().is_some(), "partial batch wants a tick");
        seqr.on_message(
            pid(1),
            SequencerMsg::Submit {
                origin: pid(1),
                item: 30,
            },
            &mut out,
        );
        let msgs: Vec<_> = out.drain();
        assert_eq!(msgs.len(), n, "one frame per process, not per item");
        assert_eq!(seqr.next_deadline(), None, "flushed: timer disarmed");
        let stats = seqr.batch_stats();
        assert_eq!((stats.items_stamped, stats.batches_flushed), (3, 1));
        assert!(stats.occupancy() > 1.0);
        let mut out2 = Outbox::new(n);
        for (to, m) in msgs {
            if to == pid(1) {
                follower.on_message(pid(0), m, &mut out2);
            }
        }
        let got: Vec<_> = follower
            .drain_delivered()
            .into_iter()
            .map(|d| (d.global_seq, d.item))
            .collect();
        assert_eq!(got, vec![(0, 10), (1, 20), (2, 30)]);
    }

    /// Deadline-triggered group commit: a partial batch flushes once the
    /// group-commit window expires, via the immediate-tick arming idiom.
    #[test]
    fn partial_batch_flushes_at_the_deadline() {
        let n = 2;
        let mut seqr: SequencerAbcast<u8> = SequencerAbcast::new(pid(0), n);
        seqr.set_batching(BatchConfig {
            max_batch: 64,
            max_delay_ns: 500,
        });
        let mut out = Outbox::new(n);
        seqr.on_message(
            pid(1),
            SequencerMsg::Submit {
                origin: pid(1),
                item: 7,
            },
            &mut out,
        );
        assert!(out.is_empty());
        // First tick arms the window against the host clock...
        let d0 = seqr.next_deadline().expect("pending batch wants a tick");
        seqr.on_tick(d0, &mut out);
        assert!(out.is_empty(), "window not yet expired");
        let d1 = seqr.next_deadline().expect("window armed");
        assert_eq!(d1, d0 + 500);
        // ...and the tick at the window boundary flushes.
        seqr.on_tick(d1, &mut out);
        assert_eq!(out.len(), n);
        assert!(matches!(
            out.drain()[0].1,
            SequencerMsg::OrderedBatch { first_seq: 0, .. }
        ));
        assert_eq!(seqr.next_deadline(), None);
    }

    /// A duplicated batch frame (e.g. a link retransmission that slipped
    /// through) re-inserts already-delivered stamps, which the gap-free
    /// frontier discipline discards idempotently.
    #[test]
    fn duplicate_batch_frames_are_idempotent() {
        let n = 2;
        let mut follower: SequencerAbcast<u8> = SequencerAbcast::new(pid(1), n);
        let batch = SequencerMsg::OrderedBatch {
            first_seq: 0,
            items: vec![(pid(1), 10), (pid(1), 20)],
        };
        let mut out = Outbox::new(n);
        follower.on_message(pid(0), batch.clone(), &mut out);
        assert_eq!(follower.drain_delivered().len(), 2);
        follower.on_message(pid(0), batch, &mut out);
        assert!(follower.drain_delivered().is_empty(), "duplicate ignored");
        assert_eq!(follower.delivered_count(), 2);
    }

    #[test]
    fn broadcast_routes_to_sequencer() {
        let mut a: SequencerAbcast<u8> = SequencerAbcast::new(pid(2), 3);
        let mut out = Outbox::new(3);
        a.broadcast(5, &mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, pid(0));
        assert!(!a.is_sequencer());
    }
}
