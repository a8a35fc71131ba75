//! ISIS/Skeen agreed-timestamp atomic broadcast.
//!
//! A decentralized total-order broadcast with no fixed sequencer:
//!
//! 1. The sender assigns its message a unique id and sends `Propose` to
//!    every process.
//! 2. Each receiver bumps its Lamport clock, tentatively orders the message
//!    at `(clock, receiver)` and answers the sender with that *proposed*
//!    timestamp.
//! 3. Once the sender has all `n` proposals it fixes the *final* timestamp
//!    as their maximum and announces it with `Final`.
//! 4. Every process keeps pending messages ordered by their current
//!    timestamp (proposed until finalized) and delivers the front message
//!    once it is finalized — a pending message's proposal is a lower bound
//!    on its final timestamp, so nothing can later sneak ahead of a
//!    delivered message.
//!
//! Timestamps are `(clock, proposer)` pairs, unique per proposal, so the
//! final order is a strict total order agreed by all processes.

use std::collections::HashMap;

use moc_core::ids::ProcessId;

use crate::{Abcast, Delivery, Outbox};

/// A Lamport timestamp: logical clock plus proposer id as tiebreak.
pub(crate) type LamportTs = (u64, u32);

/// Unique message id: origin plus per-origin counter.
pub(crate) type MsgId = (ProcessId, u64);

/// Wire messages of the ISIS protocol.
#[derive(Debug, Clone)]
pub enum IsisMsg<T> {
    /// Sender → everyone: a new message needing a timestamp.
    Propose {
        /// Message id.
        mid: MsgId,
        /// The payload.
        item: T,
    },
    /// Receiver → sender: tentative timestamp for `mid`.
    Proposal {
        /// Message id.
        mid: MsgId,
        /// The proposed timestamp.
        ts: LamportTs,
    },
    /// Sender → everyone: agreed final timestamp for `mid`.
    Final {
        /// Message id.
        mid: MsgId,
        /// The final timestamp (max of all proposals).
        ts: LamportTs,
    },
}

#[derive(Debug, Clone)]
struct Pending<T> {
    item: T,
    ts: LamportTs,
    finalized: bool,
}

#[derive(Debug, Clone, Default)]
struct Gather {
    max_ts: LamportTs,
    responses: usize,
}

/// One process's endpoint of the ISIS protocol.
#[derive(Debug, Clone)]
pub struct IsisAbcast<T> {
    me: ProcessId,
    n: usize,
    clock: u64,
    next_local: u64,
    pending: HashMap<MsgId, Pending<T>>,
    gathering: HashMap<MsgId, Gather>,
    delivered: Vec<Delivery<T>>,
    delivered_count: u64,
}

impl<T> IsisAbcast<T> {
    /// The current Lamport clock (for diagnostics).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Delivers every finalized message that no pending message can
    /// precede. A pending (unfinalized) message's proposed timestamp is a
    /// lower bound on its final timestamp, so the front of the timestamp
    /// order is stable once finalized.
    fn pump(&mut self) {
        loop {
            let Some((&mid, _)) = self
                .pending
                .iter()
                .min_by_key(|(&(origin, seq), p)| (p.ts, origin, seq))
            else {
                return;
            };
            if !self.pending[&mid].finalized {
                return;
            }
            let p = self.pending.remove(&mid).expect("front exists");
            self.delivered.push(Delivery {
                origin: mid.0,
                global_seq: self.delivered_count,
                item: p.item,
            });
            self.delivered_count += 1;
        }
    }
}

impl<T: Clone + std::fmt::Debug> Abcast<T> for IsisAbcast<T> {
    type Msg = IsisMsg<T>;

    fn new(me: ProcessId, n: usize) -> Self {
        IsisAbcast {
            me,
            n,
            clock: 0,
            next_local: 0,
            pending: HashMap::new(),
            gathering: HashMap::new(),
            delivered: Vec::new(),
            delivered_count: 0,
        }
    }

    fn broadcast(&mut self, item: T, out: &mut Outbox<Self::Msg>) {
        let mid = (self.me, self.next_local);
        self.next_local += 1;
        self.gathering.insert(mid, Gather::default());
        out.send_all(IsisMsg::Propose { mid, item });
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        match msg {
            IsisMsg::Propose { mid, item } => {
                self.clock += 1;
                let ts = (self.clock, self.me.as_u32());
                self.pending.insert(
                    mid,
                    Pending {
                        item,
                        ts,
                        finalized: false,
                    },
                );
                out.send(mid.0, IsisMsg::Proposal { mid, ts });
            }
            IsisMsg::Proposal { mid, ts } => {
                debug_assert_eq!(mid.0, self.me, "proposal routed to non-origin");
                let _ = from;
                let g = self
                    .gathering
                    .get_mut(&mid)
                    .expect("proposal for unknown broadcast");
                g.max_ts = g.max_ts.max(ts);
                g.responses += 1;
                if g.responses == self.n {
                    let ts = g.max_ts;
                    self.gathering.remove(&mid);
                    out.send_all(IsisMsg::Final { mid, ts });
                }
            }
            IsisMsg::Final { mid, ts } => {
                // Keep the clock ahead of every finalized timestamp so
                // later proposals cannot be ordered before delivered
                // messages.
                self.clock = self.clock.max(ts.0);
                let p = self
                    .pending
                    .get_mut(&mid)
                    .expect("Final precedes Propose: channel created a message");
                p.ts = ts;
                p.finalized = true;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Hand-drive two endpoints through one broadcast.
    #[test]
    fn single_broadcast_roundtrip() {
        let n = 2;
        let mut a: IsisAbcast<u8> = IsisAbcast::new(pid(0), n);
        let mut b: IsisAbcast<u8> = IsisAbcast::new(pid(1), n);
        let mut out = Outbox::new(n);

        a.broadcast(42, &mut out);
        let proposes = out.drain();
        assert_eq!(proposes.len(), 2);

        // Both receive the Propose and answer with proposals.
        let mut proposals = Vec::new();
        for (to, m) in proposes {
            let node: &mut IsisAbcast<u8> = if to == pid(0) { &mut a } else { &mut b };
            let mut o = Outbox::new(n);
            node.on_message(pid(0), m, &mut o);
            proposals.extend(o.drain());
        }
        assert_eq!(proposals.len(), 2);
        assert!(a.drain_delivered().is_empty(), "not finalized yet");

        // Origin gathers proposals and emits Final.
        let mut finals = Vec::new();
        for (_, m) in proposals {
            let mut o = Outbox::new(n);
            a.on_message(pid(1), m, &mut o);
            finals.extend(o.drain());
        }
        assert_eq!(finals.len(), 2, "Final fans out to everyone");
        for (to, m) in finals {
            let node: &mut IsisAbcast<u8> = if to == pid(0) { &mut a } else { &mut b };
            let mut o = Outbox::new(n);
            node.on_message(pid(0), m, &mut o);
        }
        let da = a.drain_delivered();
        let db = b.drain_delivered();
        assert_eq!(da.len(), 1);
        assert_eq!(db.len(), 1);
        assert_eq!(da[0].item, 42);
        assert_eq!(da[0].origin, pid(0));
        assert_eq!(da[0].global_seq, 0);
        assert!(a.pending.is_empty());
        assert!(a.clock() > 0);
    }

    /// A finalized message must wait behind an unfinalized one with a
    /// smaller proposed timestamp.
    #[test]
    fn finalized_message_waits_for_smaller_pending() {
        let n = 3;
        let mut c: IsisAbcast<u8> = IsisAbcast::new(pid(2), n);
        let mut out = Outbox::new(n);
        // m1 proposed first (smaller local clock), not finalized.
        c.on_message(
            pid(0),
            IsisMsg::Propose {
                mid: (pid(0), 0),
                item: 1,
            },
            &mut out,
        );
        // m2 proposed second, then finalized with a big timestamp.
        c.on_message(
            pid(1),
            IsisMsg::Propose {
                mid: (pid(1), 0),
                item: 2,
            },
            &mut out,
        );
        c.on_message(
            pid(1),
            IsisMsg::Final {
                mid: (pid(1), 0),
                ts: (10, 1),
            },
            &mut out,
        );
        assert!(
            c.drain_delivered().is_empty(),
            "m1 could still finalize below m2"
        );
        // m1 finalizes above m2: both deliver, m2 first.
        c.on_message(
            pid(0),
            IsisMsg::Final {
                mid: (pid(0), 0),
                ts: (11, 0),
            },
            &mut out,
        );
        let got: Vec<u8> = c.drain_delivered().into_iter().map(|d| d.item).collect();
        assert_eq!(got, vec![2, 1]);
    }
}
