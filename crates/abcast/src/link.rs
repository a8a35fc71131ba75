//! A reliable-link sublayer: exactly-once, per-sender FIFO delivery over
//! a lossy, duplicating, reordering network.
//!
//! The Section 5 protocols (and both [`crate::Abcast`] implementations)
//! assume the paper's channel model — "processes and channels are
//! reliable and a message sent is eventually received", with arbitrary
//! reordering the only misbehavior. [`ReliableLink`] re-establishes that
//! contract on top of a network that drops, duplicates, and partitions
//! (`moc_sim::FaultPlan`, or the runtime's fault knobs), so the protocol
//! state machines above it run unmodified:
//!
//! * every payload handed to [`ReliableLink::send`] carries a per-peer
//!   **sequence number** (its *position* in that stream) and is kept until
//!   cumulatively acknowledged;
//! * [`ReliableLink::send_run`] puts several payloads for one peer on the
//!   wire as one **run** frame ([`LinkMsg::Run`]) holding consecutive
//!   positions. Only the framing is shared: each position is kept,
//!   deduplicated, reordered and retransmitted exactly as if it had been
//!   sent alone, and a retransmission is always a plain [`LinkMsg::Data`];
//! * receivers **deduplicate** and reorder into gap-free per-sender
//!   sequence order, acknowledging cumulatively ([`LinkMsg::Ack`]) once
//!   per data frame, whether it carried one position or a run;
//! * unacknowledged data is **retransmitted** on a timer with
//!   *decorrelated-jitter* backoff: each retry draws a fresh timeout
//!   uniformly from `[rto_ns, min(max_rto_ns, 3 × previous)]` using a
//!   per-endpoint deterministic stream, so peers that lost traffic at the
//!   same instant (e.g. across a healed partition) do not fire their
//!   retransmissions in synchronized storms the way pure exponential
//!   doubling would;
//! * after a crash window, [`ReliableLink::on_restart`] runs a
//!   **rejoin handshake**: the returning process retransmits its own
//!   unacked data and sends [`LinkMsg::Rejoin`], prompting each peer to
//!   answer with a [`LinkMsg::Snapshot`] of its link state and an
//!   immediate retransmission of everything the outage swallowed.
//!
//! The layer is a pure state machine like everything else in this crate:
//! wire traffic goes out through a caller-supplied buffer, current time
//! comes in as a parameter, and the single timer the host must provide is
//! exposed via [`ReliableLink::next_deadline`].
//!
//! Frames and payloads are counted apart ([`LinkStats`]): `data_sent` and
//! `data_received` count data frames, a run being one, while `delivered`,
//! `duplicates_discarded` and `retransmissions` count positions.
//!
//! [`LinkConfig::sabotaged`] disables dedup and retransmission — a
//! deliberately broken link used by the negative-path conformance tests
//! to prove the checker pipeline catches real violations.

use std::collections::BTreeMap;

use moc_core::ids::ProcessId;

/// Tuning knobs for a [`ReliableLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Initial retransmission timeout (virtual ns in the simulator).
    pub rto_ns: u64,
    /// Backoff cap: each retry draws a decorrelated-jitter RTO in
    /// `[rto_ns, min(max_rto_ns, 3 × previous RTO)]`, never above this.
    pub max_rto_ns: u64,
    /// Receive-side deduplication + per-sender reordering, and
    /// retransmission of unacknowledged data. Clearing it (only
    /// [`LinkConfig::sabotaged`] does) forwards raw wire arrivals —
    /// duplicates and all — to the layer above and makes every network
    /// drop a permanent loss.
    pub reliable: bool,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            rto_ns: 25_000,
            max_rto_ns: 400_000,
            reliable: true,
        }
    }
}

impl LinkConfig {
    /// A deliberately broken link: no dedup, no retransmission. Under
    /// faults this violates the reliable-channel contract the protocols
    /// assume — used by negative-path tests to demonstrate that the
    /// checker then refutes the resulting histories.
    pub fn sabotaged() -> Self {
        LinkConfig {
            reliable: false,
            ..LinkConfig::default()
        }
    }
}

/// Wire frames of the reliable link. `M` is the payload type of the
/// protocol layer above.
#[derive(Debug, Clone)]
pub enum LinkMsg<M> {
    /// A payload with its per-(sender, receiver) sequence number.
    Data {
        /// Position in the sender's stream to this receiver (0-based).
        seq: u64,
        /// The protocol-layer payload.
        payload: M,
    },
    /// Consecutive positions of one stream in one frame: `payloads[i]` is
    /// position `first_seq + i`. The receiver takes each position as if it
    /// had come in its own [`LinkMsg::Data`] and acknowledges the frame
    /// once.
    Run {
        /// Position of `payloads[0]` in the sender's stream to this
        /// receiver.
        first_seq: u64,
        /// The protocol-layer payloads (`send_run` puts at least two
        /// here; a lone payload goes as a `Data`).
        payloads: Vec<M>,
    },
    /// Cumulative acknowledgement: every position `< upto` of the
    /// acknowledged peer's stream has been received.
    Ack {
        /// The receiver's gap-free frontier for this sender.
        upto: u64,
    },
    /// Sent to every peer after a crash window: "I am back; resynchronize
    /// me." Peers answer with [`LinkMsg::Snapshot`] and retransmit
    /// everything not yet acknowledged.
    Rejoin,
    /// A peer's link-state snapshot, answering [`LinkMsg::Rejoin`].
    Snapshot {
        /// The next sequence number the peer will assign on its stream to
        /// the rejoiner (diagnostic; retransmission fills any gap).
        sent: u64,
        /// The peer's gap-free receive frontier for the rejoiner's stream
        /// — acts as a cumulative ack.
        received: u64,
    },
}

/// Counters describing one endpoint's link activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data frames sent first-hand (excluding retransmissions): a `Data`
    /// or a `Run` counts once, however many payloads it carries.
    pub data_sent: u64,
    /// Data frames (`Data` or `Run`) received off the wire, duplicates
    /// included.
    pub data_received: u64,
    /// Payloads surfaced to the layer above: one per position, so a run
    /// of `k` positions adds up to `k`.
    pub delivered: u64,
    /// Positions discarded by receive-side dedup as already delivered or
    /// already held (a duplicate `Data` is one, and so is each duplicate
    /// position of a run).
    pub duplicates_discarded: u64,
    /// Positions retransmitted, each in its own `Data` frame.
    pub retransmissions: u64,
    /// Acknowledgements sent (including snapshot answers).
    pub acks_sent: u64,
    /// Acknowledgements received (including snapshots).
    pub acks_received: u64,
    /// Rejoin handshakes initiated.
    pub rejoins: u64,
}

impl LinkStats {
    /// Field-wise sum, for aggregating per-endpoint counters into a
    /// cluster-wide transport total.
    pub fn merge(&mut self, other: &LinkStats) {
        self.data_sent += other.data_sent;
        self.data_received += other.data_received;
        self.delivered += other.delivered;
        self.duplicates_discarded += other.duplicates_discarded;
        self.retransmissions += other.retransmissions;
        self.acks_sent += other.acks_sent;
        self.acks_received += other.acks_received;
        self.rejoins += other.rejoins;
    }
}

/// Outbound state for one peer: the sent-but-unacked window and its
/// retransmission timer.
#[derive(Debug, Clone)]
struct SenderState<M> {
    /// Next sequence number to assign on this stream.
    next_seq: u64,
    /// Sent, not yet cumulatively acknowledged.
    unacked: BTreeMap<u64, M>,
    /// Current (backed-off) retransmission timeout.
    rto_ns: u64,
    /// Absolute time of the next retransmission, if armed.
    deadline: Option<u64>,
}

impl<M> SenderState<M> {
    fn new(rto_ns: u64) -> Self {
        SenderState {
            next_seq: 0,
            unacked: BTreeMap::new(),
            rto_ns,
            deadline: None,
        }
    }
}

/// Inbound state for one peer: the gap-free frontier and the
/// out-of-order hold buffer.
#[derive(Debug, Clone)]
struct RecvState<M> {
    /// All `seq < next_expected` have been delivered upward.
    next_expected: u64,
    /// Out-of-order frames waiting for their gap to fill.
    buffer: BTreeMap<u64, M>,
}

impl<M> RecvState<M> {
    fn new() -> Self {
        RecvState {
            next_expected: 0,
            buffer: BTreeMap::new(),
        }
    }
}

/// One process's endpoint of the reliable link (one instance serves all
/// of its peers).
#[derive(Debug, Clone)]
pub struct ReliableLink<M> {
    me: ProcessId,
    n: usize,
    cfg: LinkConfig,
    senders: BTreeMap<ProcessId, SenderState<M>>,
    recv: BTreeMap<ProcessId, RecvState<M>>,
    stats: LinkStats,
    /// splitmix64 state for backoff jitter, seeded per endpoint so peers
    /// desynchronize but identical runs replay identically.
    jitter: u64,
}

/// One splitmix64 step: advances `state` and returns the next draw.
/// Deterministic — the link stays a pure state machine and chaos replays
/// remain byte-identical for a given seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<M: Clone> ReliableLink<M> {
    /// Creates the endpoint for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: LinkConfig) -> Self {
        ReliableLink {
            me,
            n,
            cfg,
            senders: BTreeMap::new(),
            recv: BTreeMap::new(),
            stats: LinkStats::default(),
            jitter: 0x6d6f_635f_6c69_6e6b ^ ((me.as_u32() as u64) << 32) ^ n as u64,
        }
    }

    /// Link activity counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Total payloads currently sent but not cumulatively acknowledged.
    pub fn unacked(&self) -> usize {
        self.senders.values().map(|s| s.unacked.len()).sum()
    }

    /// The earliest retransmission deadline across all peers, if any data
    /// is in flight (always `None` when retransmission is disabled). The
    /// host should arrange a call to [`ReliableLink::on_tick`] at (or
    /// after) this time.
    pub fn next_deadline(&self) -> Option<u64> {
        self.senders.values().filter_map(|s| s.deadline).min()
    }

    /// Sends `payload` to `to`, stamping it into that stream. The framed
    /// wire message is appended to `wire`.
    pub fn send(
        &mut self,
        to: ProcessId,
        payload: M,
        now_ns: u64,
        wire: &mut Vec<(ProcessId, LinkMsg<M>)>,
    ) {
        let seq = self.stamp(to, std::slice::from_ref(&payload), now_ns);
        wire.push((to, LinkMsg::Data { seq, payload }));
    }

    /// Sends `payloads` to `to` as one frame: they take the next
    /// consecutive positions of that stream, in order, and go out as one
    /// [`LinkMsg::Run`]. Each position is kept for retransmission on its
    /// own, exactly as [`ReliableLink::send`] keeps it. A single payload
    /// goes out as a plain [`LinkMsg::Data`]; none sends nothing.
    pub fn send_run(
        &mut self,
        to: ProcessId,
        mut payloads: Vec<M>,
        now_ns: u64,
        wire: &mut Vec<(ProcessId, LinkMsg<M>)>,
    ) {
        if payloads.len() < 2 {
            if let Some(payload) = payloads.pop() {
                self.send(to, payload, now_ns, wire);
            }
            return;
        }
        let first_seq = self.stamp(to, &payloads, now_ns);
        wire.push((
            to,
            LinkMsg::Run {
                first_seq,
                payloads,
            },
        ));
    }

    /// Gives `payloads` the next positions of the stream to `to`, keeps a
    /// copy of each until it is acknowledged and arms the timer, and counts
    /// one data frame. Returns the first position.
    fn stamp(&mut self, to: ProcessId, payloads: &[M], now_ns: u64) -> u64 {
        let cfg = self.cfg;
        let s = self
            .senders
            .entry(to)
            .or_insert_with(|| SenderState::new(cfg.rto_ns));
        let first_seq = s.next_seq;
        s.next_seq += payloads.len() as u64;
        if cfg.reliable {
            s.unacked
                .extend((first_seq..).zip(payloads.iter().cloned()));
            if s.deadline.is_none() {
                s.deadline = Some(now_ns + s.rto_ns);
            }
        }
        self.stats.data_sent += 1;
        first_seq
    }

    /// Feeds a wire frame from `from`. Returns the payloads that became
    /// deliverable to the layer above, in per-sender FIFO order; control
    /// traffic produced in response is appended to `wire`.
    pub fn on_wire(
        &mut self,
        from: ProcessId,
        msg: LinkMsg<M>,
        now_ns: u64,
        wire: &mut Vec<(ProcessId, LinkMsg<M>)>,
    ) -> Vec<M> {
        match msg {
            LinkMsg::Data { seq, payload } => self.on_data(from, seq, [payload], wire),
            LinkMsg::Run {
                first_seq,
                payloads,
            } => self.on_data(from, first_seq, payloads, wire),
            LinkMsg::Ack { upto } => {
                self.stats.acks_received += 1;
                self.apply_ack(from, upto, now_ns);
                Vec::new()
            }
            LinkMsg::Rejoin => {
                // The peer lost its in-flight traffic: retransmit at once
                // with a fresh backoff, and hand it our link snapshot.
                let cfg = self.cfg;
                let s = self
                    .senders
                    .entry(from)
                    .or_insert_with(|| SenderState::new(cfg.rto_ns));
                s.rto_ns = cfg.rto_ns;
                let mut retransmitted = 0;
                for (&seq, payload) in &s.unacked {
                    wire.push((
                        from,
                        LinkMsg::Data {
                            seq,
                            payload: payload.clone(),
                        },
                    ));
                    retransmitted += 1;
                }
                s.deadline = if s.unacked.is_empty() {
                    None
                } else {
                    Some(now_ns + s.rto_ns)
                };
                self.stats.retransmissions += retransmitted;
                let sent = s.next_seq;
                let received = self.recv.get(&from).map(|r| r.next_expected).unwrap_or(0);
                self.stats.acks_sent += 1;
                wire.push((from, LinkMsg::Snapshot { sent, received }));
                Vec::new()
            }
            LinkMsg::Snapshot { sent: _, received } => {
                // The peer's receive frontier is a cumulative ack for our
                // stream; retransmission covers anything past it.
                self.stats.acks_received += 1;
                self.apply_ack(from, received, now_ns);
                Vec::new()
            }
        }
    }

    /// Takes one data frame from `from` whose payloads hold consecutive
    /// positions from `first_seq` on: each position is discarded as a
    /// duplicate, held behind a gap, or delivered with everything held
    /// that it makes gap-free. The frame is acknowledged once.
    fn on_data(
        &mut self,
        from: ProcessId,
        first_seq: u64,
        payloads: impl IntoIterator<Item = M>,
        wire: &mut Vec<(ProcessId, LinkMsg<M>)>,
    ) -> Vec<M> {
        self.stats.data_received += 1;
        if !self.cfg.reliable {
            // Sabotaged: raw arrivals pass straight through.
            let ready: Vec<M> = payloads.into_iter().collect();
            self.stats.delivered += ready.len() as u64;
            return ready;
        }
        let r = self.recv.entry(from).or_insert_with(RecvState::new);
        let mut ready = Vec::new();
        for (seq, payload) in (first_seq..).zip(payloads) {
            if seq < r.next_expected || r.buffer.contains_key(&seq) {
                self.stats.duplicates_discarded += 1;
            } else if seq > r.next_expected {
                r.buffer.insert(seq, payload);
            } else {
                r.next_expected += 1;
                ready.push(payload);
                while let Some(p) = r.buffer.remove(&r.next_expected) {
                    r.next_expected += 1;
                    ready.push(p);
                }
            }
        }
        self.stats.delivered += ready.len() as u64;
        // Ack even on duplicates: the original ack may have been lost, and
        // re-acking is what stops the retransmissions.
        let upto = r.next_expected;
        self.stats.acks_sent += 1;
        wire.push((from, LinkMsg::Ack { upto }));
        ready
    }

    /// Drops from `wire` every [`LinkMsg::Ack`] that a later one to the
    /// same peer supersedes. Acks are cumulative and a peer's frontier
    /// only advances, so the last ack to a peer says everything the
    /// earlier ones did: a host that fed several frames before flushing
    /// `wire` acknowledges once per peer. Every other frame keeps its
    /// place, and `acks_sent` keeps counting what actually goes out. With
    /// at most one ack per peer in `wire` (a host that flushes after every
    /// frame) nothing changes.
    pub fn coalesce_acks(&mut self, wire: &mut Vec<(ProcessId, LinkMsg<M>)>) {
        let is_ack = |msg: &LinkMsg<M>| matches!(msg, LinkMsg::Ack { .. });
        let acks = wire.iter().filter(|(_, msg)| is_ack(msg)).count();
        if acks < 2 {
            return;
        }
        // Index of the last ack to each peer; clusters are a few processes.
        let mut last: Vec<(ProcessId, usize)> = Vec::new();
        for (i, (to, msg)) in wire.iter().enumerate() {
            if is_ack(msg) {
                match last.iter_mut().find(|(peer, _)| peer == to) {
                    Some(slot) => slot.1 = i,
                    None => last.push((*to, i)),
                }
            }
        }
        if acks == last.len() {
            return;
        }
        let mut i = 0;
        wire.retain(|(to, msg)| {
            let keep = !is_ack(msg) || last.contains(&(*to, i));
            i += 1;
            keep
        });
        self.stats.acks_sent -= (acks - last.len()) as u64;
    }

    /// Retransmits every overdue unacked frame. Call at (or after) the
    /// time reported by [`ReliableLink::next_deadline`].
    ///
    /// Each retry re-arms the timer with a *decorrelated-jitter* backoff
    /// (`rto′ = uniform[rto_ns, min(max_rto_ns, 3·rto)]`): the expected
    /// timeout still grows geometrically toward the cap, but endpoints
    /// that lost traffic at the same instant spread their retries instead
    /// of retransmitting in lockstep storms.
    pub fn on_tick(&mut self, now_ns: u64, wire: &mut Vec<(ProcessId, LinkMsg<M>)>) {
        if !self.cfg.reliable {
            return;
        }
        let base = self.cfg.rto_ns;
        let max_rto = self.cfg.max_rto_ns;
        for (&peer, s) in self.senders.iter_mut() {
            let Some(deadline) = s.deadline else { continue };
            if deadline > now_ns || s.unacked.is_empty() {
                continue;
            }
            for (&seq, payload) in &s.unacked {
                wire.push((
                    peer,
                    LinkMsg::Data {
                        seq,
                        payload: payload.clone(),
                    },
                ));
                self.stats.retransmissions += 1;
            }
            let hi = s.rto_ns.saturating_mul(3).min(max_rto);
            s.rto_ns = if hi <= base {
                base
            } else {
                base + splitmix64(&mut self.jitter) % (hi - base + 1)
            };
            s.deadline = Some(now_ns + s.rto_ns);
        }
    }

    /// Runs the crash-recovery handshake: retransmits this endpoint's own
    /// unacked data (acks for it may have died with the outage) and asks
    /// every peer to resynchronize via [`LinkMsg::Rejoin`].
    pub fn on_restart(&mut self, now_ns: u64, wire: &mut Vec<(ProcessId, LinkMsg<M>)>) {
        let base_rto = self.cfg.rto_ns;
        let reliable = self.cfg.reliable;
        for (&peer, s) in self.senders.iter_mut() {
            s.rto_ns = base_rto;
            if reliable && !s.unacked.is_empty() {
                for (&seq, payload) in &s.unacked {
                    wire.push((
                        peer,
                        LinkMsg::Data {
                            seq,
                            payload: payload.clone(),
                        },
                    ));
                    self.stats.retransmissions += 1;
                }
                s.deadline = Some(now_ns + s.rto_ns);
            } else {
                s.deadline = None;
            }
        }
        for p in 0..self.n {
            let p = ProcessId::new(p as u32);
            if p != self.me {
                self.stats.rejoins += 1;
                wire.push((p, LinkMsg::Rejoin));
            }
        }
    }

    fn apply_ack(&mut self, from: ProcessId, upto: u64, now_ns: u64) {
        let Some(s) = self.senders.get_mut(&from) else {
            return;
        };
        let before = s.unacked.len();
        s.unacked = s.unacked.split_off(&upto);
        if s.unacked.len() < before {
            // Progress: restart the timer from the base timeout.
            s.rto_ns = self.cfg.rto_ns;
            s.deadline = if s.unacked.is_empty() {
                None
            } else {
                Some(now_ns + s.rto_ns)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    type Wire = Vec<(ProcessId, LinkMsg<u32>)>;

    #[test]
    fn in_order_delivery_and_ack() {
        let mut a: ReliableLink<u32> = ReliableLink::new(pid(0), 2, LinkConfig::default());
        let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, LinkConfig::default());
        let mut wire: Wire = Vec::new();
        a.send(pid(1), 10, 0, &mut wire);
        a.send(pid(1), 20, 0, &mut wire);
        assert_eq!(a.unacked(), 2);
        let mut acks: Wire = Vec::new();
        let mut got = Vec::new();
        for (_, m) in wire {
            got.extend(b.on_wire(pid(0), m, 5, &mut acks));
        }
        assert_eq!(got, vec![10, 20]);
        for (_, m) in acks {
            a.on_wire(pid(1), m, 10, &mut Vec::new());
        }
        assert_eq!(a.unacked(), 0);
        assert_eq!(a.next_deadline(), None, "all acked: timer disarmed");
    }

    #[test]
    fn reorder_is_hidden_and_duplicates_are_discarded() {
        let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, LinkConfig::default());
        let mut acks: Wire = Vec::new();
        // seq 1 before seq 0: held.
        let got = b.on_wire(
            pid(0),
            LinkMsg::Data {
                seq: 1,
                payload: 21,
            },
            0,
            &mut acks,
        );
        assert!(got.is_empty(), "gap: must hold");
        // Duplicate of the held frame: discarded.
        let got = b.on_wire(
            pid(0),
            LinkMsg::Data {
                seq: 1,
                payload: 21,
            },
            1,
            &mut acks,
        );
        assert!(got.is_empty());
        assert_eq!(b.stats().duplicates_discarded, 1);
        // The gap fills: both deliver, in sequence order.
        let got = b.on_wire(
            pid(0),
            LinkMsg::Data {
                seq: 0,
                payload: 11,
            },
            2,
            &mut acks,
        );
        assert_eq!(got, vec![11, 21]);
        // A stale duplicate below the frontier still re-acks.
        let before = acks.len();
        let got = b.on_wire(
            pid(0),
            LinkMsg::Data {
                seq: 0,
                payload: 11,
            },
            3,
            &mut acks,
        );
        assert!(got.is_empty());
        assert_eq!(b.stats().duplicates_discarded, 2);
        assert!(matches!(acks[before].1, LinkMsg::Ack { upto: 2 }));
    }

    #[test]
    fn retransmission_backs_off_and_recovers_a_loss() {
        let cfg = LinkConfig {
            rto_ns: 100,
            max_rto_ns: 400,
            ..LinkConfig::default()
        };
        let mut a: ReliableLink<u32> = ReliableLink::new(pid(0), 2, cfg);
        let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, cfg);
        let mut wire: Wire = Vec::new();
        a.send(pid(1), 7, 0, &mut wire);
        wire.clear(); // the network eats the first copy
        assert_eq!(a.next_deadline(), Some(100), "first send arms the base rto");
        a.on_tick(100, &mut wire);
        assert_eq!(wire.len(), 1, "one retransmission");
        assert_eq!(a.stats().retransmissions, 1);
        // Decorrelated jitter: the re-armed rto is a draw from
        // [base, min(cap, 3·prev)] — bounded, not an exact double.
        let d1 = a.next_deadline().expect("timer still armed");
        assert!(
            (200..=400).contains(&d1),
            "rto in [100, 300], got {}",
            d1 - 100
        );
        wire.clear();
        a.on_tick(d1, &mut wire);
        let d2 = a.next_deadline().expect("timer still armed");
        let rto2 = d2 - d1;
        assert!((100..=400).contains(&rto2), "rto capped at 400, got {rto2}");
        // The retransmission finally lands: delivered once, then acked.
        let (_, m) = wire.pop().unwrap();
        let mut acks: Wire = Vec::new();
        let got = b.on_wire(pid(0), m, d2, &mut acks);
        assert_eq!(got, vec![7]);
        let (_, ack) = acks.pop().unwrap();
        a.on_wire(pid(1), ack, d2 + 10, &mut Vec::new());
        assert_eq!(a.unacked(), 0);
        assert_eq!(a.next_deadline(), None);
    }

    /// Collects the sequence of re-armed RTOs an endpoint draws when a
    /// frame to `to` is never acknowledged.
    fn backoff_trace(me: u32, to: u32, n: usize, cfg: LinkConfig, retries: usize) -> Vec<u64> {
        let mut link: ReliableLink<u32> = ReliableLink::new(pid(me), n, cfg);
        let mut wire: Wire = Vec::new();
        link.send(pid(to), 1, 0, &mut wire);
        let mut trace = Vec::new();
        let mut prev = 0;
        for _ in 0..retries {
            let d = link
                .next_deadline()
                .expect("unacked data keeps the timer armed");
            wire.clear();
            link.on_tick(d, &mut wire);
            assert_eq!(wire.len(), 1, "exactly one frame per retry");
            let next = link.next_deadline().expect("re-armed");
            trace.push(next - d);
            assert!(next > prev, "deadlines advance monotonically");
            prev = next;
        }
        trace
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_decorrelated() {
        let cfg = LinkConfig {
            rto_ns: 100,
            max_rto_ns: 400,
            ..LinkConfig::default()
        };
        // Deterministic: the same endpoint replays the same draw sequence.
        let t0 = backoff_trace(0, 1, 3, cfg, 12);
        assert_eq!(
            t0,
            backoff_trace(0, 1, 3, cfg, 12),
            "seeded jitter must replay"
        );
        // Bounded: every draw stays within [rto_ns, max_rto_ns].
        for &rto in &t0 {
            assert!((100..=400).contains(&rto), "draw {rto} outside [100, 400]");
        }
        // Decorrelated: distinct endpoints that lost traffic at the same
        // instant do not fire in lockstep (a pure exponential backoff
        // would give every endpoint the identical 200, 400, 400, ... run).
        let t1 = backoff_trace(1, 2, 3, cfg, 12);
        let t2 = backoff_trace(2, 0, 3, cfg, 12);
        assert_ne!(t0, t1, "endpoints 0 and 1 must not synchronize");
        assert_ne!(t0, t2, "endpoints 0 and 2 must not synchronize");
        assert_ne!(t1, t2, "endpoints 1 and 2 must not synchronize");
        // Spread, not degenerate: the trace actually varies.
        for t in [&t0, &t1, &t2] {
            let distinct: std::collections::BTreeSet<u64> = t.iter().copied().collect();
            assert!(distinct.len() > 2, "jitter should spread draws, got {t:?}");
        }
    }

    #[test]
    fn rejoin_handshake_resynchronizes_both_sides() {
        let mut a: ReliableLink<u32> = ReliableLink::new(pid(0), 2, LinkConfig::default());
        let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, LinkConfig::default());
        // A sends two frames; the outage eats both plus any acks.
        let mut lost: Wire = Vec::new();
        a.send(pid(1), 1, 0, &mut lost);
        a.send(pid(1), 2, 0, &mut lost);
        drop(lost);
        // B restarts and rejoins.
        let mut wire: Wire = Vec::new();
        b.on_restart(1_000, &mut wire);
        assert_eq!(b.stats().rejoins, 1);
        let (to, rejoin) = wire.pop().unwrap();
        assert_eq!(to, pid(0));
        // A answers the rejoin with a snapshot + full retransmission.
        let mut resp: Wire = Vec::new();
        assert!(a.on_wire(pid(1), rejoin, 1_001, &mut resp).is_empty());
        assert_eq!(a.stats().retransmissions, 2);
        let mut got = Vec::new();
        let mut acks: Wire = Vec::new();
        for (_, m) in resp {
            got.extend(b.on_wire(pid(0), m, 1_002, &mut acks));
        }
        assert_eq!(got, vec![1, 2], "outage-swallowed data recovered in order");
        for (_, m) in acks {
            a.on_wire(pid(1), m, 1_003, &mut Vec::new());
        }
        assert_eq!(a.unacked(), 0);
    }

    #[test]
    fn snapshot_received_acts_as_cumulative_ack() {
        let mut a: ReliableLink<u32> = ReliableLink::new(pid(0), 2, LinkConfig::default());
        let mut wire: Wire = Vec::new();
        a.send(pid(1), 1, 0, &mut wire);
        a.send(pid(1), 2, 0, &mut wire);
        a.on_wire(
            pid(1),
            LinkMsg::Snapshot {
                sent: 0,
                received: 1,
            },
            10,
            &mut Vec::new(),
        );
        assert_eq!(a.unacked(), 1, "seq 0 acked via snapshot, seq 1 remains");
    }

    #[test]
    fn sabotaged_link_forwards_duplicates_and_never_retransmits() {
        let mut a: ReliableLink<u32> = ReliableLink::new(pid(0), 2, LinkConfig::sabotaged());
        let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, LinkConfig::sabotaged());
        let mut wire: Wire = Vec::new();
        a.send(pid(1), 9, 0, &mut wire);
        assert_eq!(a.unacked(), 0, "fire and forget");
        assert_eq!(a.next_deadline(), None);
        let (_, m) = wire.pop().unwrap();
        let mut acks: Wire = Vec::new();
        // The same frame arrives twice: both copies pass through.
        let first = b.on_wire(pid(0), m.clone(), 1, &mut acks);
        let second = b.on_wire(pid(0), m, 2, &mut acks);
        assert_eq!((first, second), (vec![9], vec![9]));
        assert!(acks.is_empty(), "sabotaged link does not ack");
        a.on_tick(1_000_000, &mut wire);
        assert!(wire.is_empty(), "sabotaged link does not retransmit");
    }

    /// What is left of `wire`, as `(destination, tag)`: `aN` acks up to N,
    /// `dN` carries payload N, `d[..]` is a run, `r` and `s` are the
    /// handshake frames.
    fn tags(wire: &Wire) -> Vec<(u32, String)> {
        wire.iter()
            .map(|(to, m)| {
                let tag = match m {
                    LinkMsg::Data { payload, .. } => format!("d{payload}"),
                    LinkMsg::Run { payloads, .. } => format!("d{payloads:?}"),
                    LinkMsg::Ack { upto } => format!("a{upto}"),
                    LinkMsg::Rejoin => "r".into(),
                    LinkMsg::Snapshot { .. } => "s".into(),
                };
                (to.as_u32(), tag)
            })
            .collect()
    }

    #[test]
    fn coalescing_keeps_the_last_ack_per_peer_and_everything_else_in_place() {
        let mut c: ReliableLink<u32> = ReliableLink::new(pid(2), 3, LinkConfig::default());
        let mut wire: Wire = Vec::new();
        let data = |seq, payload| LinkMsg::Data { seq, payload };
        // Three frames from p0 and two from p1, interleaved with this
        // endpoint's own data, a rejoin answer and a rejoin of its own.
        c.on_wire(pid(0), data(0, 10), 1, &mut wire);
        c.send(pid(0), 70, 2, &mut wire);
        c.on_wire(pid(1), data(0, 20), 3, &mut wire);
        c.on_wire(pid(0), data(1, 11), 4, &mut wire);
        c.on_wire(pid(1), LinkMsg::Rejoin, 5, &mut wire);
        c.on_wire(pid(1), data(1, 21), 6, &mut wire);
        c.send(pid(1), 71, 7, &mut wire);
        c.on_wire(pid(0), data(2, 12), 8, &mut wire);
        wire.push((pid(0), LinkMsg::Rejoin));
        let pairs = |tags: &[(u32, &str)]| -> Vec<(u32, String)> {
            tags.iter().map(|&(to, t)| (to, t.to_string())).collect()
        };
        assert_eq!(
            tags(&wire),
            pairs(&[
                (0, "a1"),
                (0, "d70"),
                (1, "a1"),
                (0, "a2"),
                (1, "s"),
                (1, "a2"),
                (1, "d71"),
                (0, "a3"),
                (0, "r"),
            ])
        );
        assert_eq!(c.stats().acks_sent, 6, "five acks and the snapshot");

        c.coalesce_acks(&mut wire);
        assert_eq!(
            tags(&wire),
            pairs(&[
                (0, "d70"),
                (1, "s"),
                (1, "a2"),
                (1, "d71"),
                (0, "a3"),
                (0, "r")
            ])
        );
        assert_eq!(c.stats().acks_sent, 3, "counts what is left on the wire");

        // Nothing left to fold: a second pass changes nothing.
        let before = tags(&wire);
        c.coalesce_acks(&mut wire);
        assert_eq!((tags(&wire), c.stats().acks_sent), (before, 3));
    }

    #[test]
    fn one_coalesced_ack_empties_the_window_and_its_loss_is_recovered() {
        let cfg = LinkConfig {
            rto_ns: 100,
            max_rto_ns: 400,
            ..LinkConfig::default()
        };
        for lose_the_ack in [false, true] {
            let mut a: ReliableLink<u32> = ReliableLink::new(pid(0), 2, cfg);
            let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, cfg);
            let mut wire: Wire = Vec::new();
            for payload in 0..5 {
                a.send(pid(1), payload, 0, &mut wire);
            }
            let mut acks: Wire = Vec::new();
            let mut got = Vec::new();
            for (_, m) in wire.drain(..) {
                got.extend(b.on_wire(pid(0), m, 5, &mut acks));
            }
            assert_eq!(acks.len(), 5, "on_wire still acks every data frame");
            b.coalesce_acks(&mut acks);
            assert_eq!(tags(&acks), [(0, "a5".to_string())]);
            assert_eq!(b.stats().acks_sent, 1);

            if lose_the_ack {
                // The only ack of the batch is gone: the sender's timer
                // fires, the duplicates are discarded and re-acked.
                acks.clear();
                a.on_tick(a.next_deadline().expect("armed"), &mut wire);
                assert_eq!(a.stats().retransmissions, 5);
                for (_, m) in wire.drain(..) {
                    got.extend(b.on_wire(pid(0), m, 200, &mut acks));
                }
                assert_eq!(b.stats().duplicates_discarded, 5);
                b.coalesce_acks(&mut acks);
                assert_eq!(tags(&acks), [(0, "a5".to_string())]);
            }
            assert_eq!(got, [0, 1, 2, 3, 4], "delivered once, in order");
            let (_, ack) = acks.pop().expect("one ack");
            a.on_wire(pid(1), ack, 300, &mut Vec::new());
            assert_eq!(a.unacked(), 0, "one cumulative ack covers the window");
            assert_eq!(a.next_deadline(), None);
        }
    }

    #[test]
    fn a_run_is_one_frame_and_one_ack_and_each_position_stays_its_own() {
        let cfg = LinkConfig {
            rto_ns: 100,
            max_rto_ns: 400,
            ..LinkConfig::default()
        };
        let mut a: ReliableLink<u32> = ReliableLink::new(pid(0), 2, cfg);
        let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, cfg);
        let mut wire: Wire = Vec::new();
        a.send(pid(1), 0, 0, &mut wire);
        a.send_run(pid(1), vec![1, 2, 3], 0, &mut wire);
        a.send_run(pid(1), vec![4], 0, &mut wire);
        a.send_run(pid(1), Vec::new(), 0, &mut wire);
        let d = |t: &str| (1, t.to_string());
        assert_eq!(tags(&wire), [d("d0"), d("d[1, 2, 3]"), d("d4")]);
        assert!(matches!(wire[1].1, LinkMsg::Run { first_seq: 1, .. }));
        assert_eq!((a.stats().data_sent, a.unacked()), (3, 5));

        // The run lands ahead of the gap at position 0: held, acked once.
        let mut acks: Wire = Vec::new();
        let (_, run) = wire.remove(1);
        assert!(b.on_wire(pid(0), run, 1, &mut acks).is_empty());
        assert_eq!(tags(&acks), [(0, "a0".to_string())]);
        // Position 0 fills the gap and the whole run follows it.
        let (_, first) = wire.remove(0);
        assert_eq!(b.on_wire(pid(0), first, 2, &mut acks), [0, 1, 2, 3]);
        // A run overlapping delivered positions delivers only what is new;
        // the old positions are counted duplicates, and so is a later copy.
        let overlap = LinkMsg::Run {
            first_seq: 2,
            payloads: vec![2, 3, 4],
        };
        assert_eq!(b.on_wire(pid(0), overlap, 3, &mut acks), [4]);
        let (_, last) = wire.remove(0);
        assert!(b.on_wire(pid(0), last, 4, &mut acks).is_empty());
        let stats = b.stats();
        assert_eq!(
            (
                stats.data_received,
                stats.delivered,
                stats.duplicates_discarded
            ),
            (4, 5, 3)
        );
        assert_eq!(tags(&acks).last(), Some(&(0, "a5".to_string())));

        // Every ack is lost: each position is retransmitted as a plain
        // Data frame, and one cumulative ack empties the window.
        a.on_tick(100, &mut wire);
        let data: Vec<_> = (0..5).map(|i| d(&format!("d{i}"))).collect();
        assert_eq!(tags(&wire), data);
        assert_eq!(a.stats().retransmissions, 5);
        let (_, ack) = acks.pop().expect("the last ack");
        a.on_wire(pid(1), ack, 200, &mut Vec::new());
        assert_eq!((a.unacked(), a.next_deadline()), (0, None));
    }

    #[test]
    fn sabotaged_link_passes_a_run_straight_through() {
        let mut b: ReliableLink<u32> = ReliableLink::new(pid(1), 2, LinkConfig::sabotaged());
        let run = LinkMsg::Run {
            first_seq: 0,
            payloads: vec![7, 8],
        };
        let mut acks: Wire = Vec::new();
        assert_eq!(b.on_wire(pid(0), run.clone(), 1, &mut acks), [7, 8]);
        assert_eq!(b.on_wire(pid(0), run, 2, &mut acks), [7, 8]);
        assert!(acks.is_empty());
        assert_eq!((b.stats().data_received, b.stats().delivered), (2, 4));
    }

    #[test]
    fn one_batch_frame_costs_one_data_frame_and_one_ack() {
        // The link is payload-agnostic, so a group-committed abcast batch
        // rides a single Data frame and a single cumulative Ack covers it
        // — the framing economy the batching layer is built on.
        use crate::sequencer::SequencerMsg;
        type Batch = SequencerMsg<u64>;
        let mut a: ReliableLink<Batch> = ReliableLink::new(pid(0), 2, LinkConfig::default());
        let mut b: ReliableLink<Batch> = ReliableLink::new(pid(1), 2, LinkConfig::default());
        let batch = SequencerMsg::OrderedBatch {
            first_seq: 0,
            items: (0..16).map(|i| (pid(0), i)).collect(),
        };
        let mut wire: Vec<(ProcessId, LinkMsg<Batch>)> = Vec::new();
        a.send(pid(1), batch, 0, &mut wire);
        assert_eq!(wire.len(), 1, "sixteen stamps, one Data frame");
        assert_eq!(a.stats().data_sent, 1);
        let mut acks: Vec<(ProcessId, LinkMsg<Batch>)> = Vec::new();
        let mut got = Vec::new();
        for (_, m) in wire {
            got.extend(b.on_wire(pid(0), m, 5, &mut acks));
        }
        assert_eq!(got.len(), 1, "delivered as one payload");
        assert!(matches!(&got[0], SequencerMsg::OrderedBatch { items, .. } if items.len() == 16));
        assert_eq!(acks.len(), 1, "one ack covers the whole batch");
        assert_eq!(b.stats().acks_sent, 1);
        for (_, m) in acks {
            a.on_wire(pid(1), m, 10, &mut Vec::new());
        }
        assert_eq!(a.unacked(), 0, "batch fully acked in one round trip");
    }
}
