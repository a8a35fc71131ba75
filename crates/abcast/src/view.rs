//! View-based failover atomic broadcast.
//!
//! [`SequencerAbcast`](crate::SequencerAbcast) pins the total order on a
//! fixed sequencer: if process 0 crashes, the protocol stalls forever.
//! `ViewAbcast` removes that single point of failure with numbered
//! **views**: view `v` is led by process `v mod n`, which stamps slots
//! exactly like the fixed sequencer while the view is live. Crash
//! suspicion is purely timeout-based (with exponential backoff) — no
//! wall-clock synchrony is assumed, matching the paper's fully
//! asynchronous Section 5 setting: a false suspicion can cost progress,
//! never safety.
//!
//! ## The view-change handshake
//!
//! When a process with unfinished business observes no progress before
//! its suspicion deadline, it *proposes* view `v+1` by sending the
//! leader-elect (`(v+1) mod n`) a `ViewChange` report: its delivered
//! prefix and every slot binding it knows. The leader-elect broadcasts
//! `Collect`, gathers reports from **every process except the suspected
//! old leader**, merges them (per slot, the binding stamped in the
//! highest view wins), fills slots no survivor knows with no-ops, and
//! installs the new view with a `NewView` message carrying the adopted
//! log. Followers adopt wholesale above their delivered prefix and
//! origins re-propose any submission the adopted log does not contain.
//!
//! ## Why the order is never forked
//!
//! Followers deliver slots gap-free as they arrive, but the **leader
//! delivers a slot only after another process acknowledged it**
//! (cumulative `Ack`s). Hence anything delivered anywhere is known to at
//! least one process besides the old leader, i.e. to a member of every
//! view-change quorum (all-but-old-leader) — so an installed view never
//! rebinds a delivered slot. Joining a view change is a *promise*
//! (ballot discipline): once a process has reported for view `t` it
//! ignores traffic from views below `t`, so its report is a stable
//! snapshot. The model tolerates one crashed process at a time (the
//! recoverable-fault discipline of the chaos families); a second
//! simultaneous crash delays the handshake until the restart, it never
//! forks the order.
//!
//! A crashed ex-leader keeps its state (fail-recover) and rejoins as a
//! follower: the [`ReliableLink`](crate::ReliableLink) rejoin handshake
//! replays the `NewView` and subsequent `Ordered` traffic it missed, and
//! its stale stampings are discarded when it adopts the newer view.
//!
//! Like every broadcast here, `ViewAbcast` is a pure state machine: time
//! enters only through [`Abcast::on_tick`], so runs are deterministic
//! and every view change is recorded in a replayable transcript.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use moc_core::ids::ProcessId;

use crate::{Abcast, BatchConfig, BatchStats, Delivery, Fanout, GroupCommit, Outbox};

/// Failover-timing knobs (virtual or real nanoseconds — the protocol
/// only compares them against the host-provided clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ViewConfig {
    /// Base crash-suspicion timeout: how long unfinished business may see
    /// no progress before the leader is suspected.
    pub suspect_timeout_ns: u64,
    /// Cap for the exponential backoff across consecutive suspicions.
    pub max_suspect_timeout_ns: u64,
}

impl Default for ViewConfig {
    fn default() -> Self {
        // Tuned for the simulator scale (link RTO 25µs..400µs, run
        // horizons around 1ms): late enough to ride out retransmissions,
        // early enough to fail over well inside a horizon.
        ViewConfig {
            suspect_timeout_ns: 60_000,
            max_suspect_timeout_ns: 480_000,
        }
    }
}

/// What a slot carries: a broadcast item tagged with its origin identity,
/// or a no-op filling a slot whose binding died with a leader.
#[derive(Debug, Clone)]
pub enum SlotPayload<T> {
    /// A real broadcast item. `(origin, oseq)` is the broadcast's
    /// identity, used for exactly-once re-proposal across views.
    Item {
        /// The broadcasting process.
        origin: ProcessId,
        /// The origin's local submission number.
        oseq: u64,
        /// The payload.
        item: T,
    },
    /// A filler for a slot no view-change survivor knew a binding for.
    /// Advances the slot cursor without delivering anything.
    Noop,
}

impl<T> SlotPayload<T> {
    fn identity(&self) -> Option<(ProcessId, u64)> {
        match self {
            SlotPayload::Item { origin, oseq, .. } => Some((*origin, *oseq)),
            SlotPayload::Noop => None,
        }
    }
}

/// A slot binding: the payload plus the view that stamped (or re-adopted)
/// it. On merge, the binding from the highest view wins.
#[derive(Debug, Clone)]
pub struct SlotEntry<T> {
    /// View in which this binding was stamped or last re-adopted.
    pub view: u64,
    /// The bound payload.
    pub payload: SlotPayload<T>,
}

/// Wire messages of the view-based protocol.
#[derive(Debug, Clone)]
pub enum ViewMsg<T> {
    /// Origin → leader of `view`: please order this item.
    Submit {
        /// The view the submitter believes is current.
        view: u64,
        /// The broadcasting process.
        origin: ProcessId,
        /// The origin's local submission number (for dedup).
        oseq: u64,
        /// The item to order.
        item: T,
    },
    /// Leader of `view` → followers: slot binding.
    Ordered {
        /// The stamping view.
        view: u64,
        /// The global slot number.
        slot: u64,
        /// The bound payload.
        payload: SlotPayload<T>,
    },
    /// Follower → leader of `view`: cumulative delivery acknowledgement
    /// (`next_to_deliver` = all slots below it are delivered here). Gates
    /// the leader's own delivery — see the module docs.
    Ack {
        /// The acknowledger's current view.
        view: u64,
        /// The acknowledger's delivery cursor.
        next_to_deliver: u64,
    },
    /// Suspector/survivor → leader-elect of `target`: the sender's full
    /// knowledge, i.e. its delivered prefix and every slot binding.
    ViewChange {
        /// The proposed view.
        target: u64,
        /// The sender's last *installed* view. The leader-elect adopts
        /// the longest log among the reports with the maximal installed
        /// view — same-view logs are prefix-comparable, so that log
        /// provably contains every slot delivered anywhere. (A per-slot
        /// union would let a laggard resurrect stale bindings from a
        /// dead view, forking or duplicating the order.)
        normal_view: u64,
        /// The sender's delivery cursor.
        delivered_up_to: u64,
        /// Every slot binding the sender knows.
        entries: Vec<(u64, SlotEntry<T>)>,
    },
    /// Leader-elect of `target` → everyone else: please report for the
    /// view change (answered with a `ViewChange`).
    Collect {
        /// The proposed view.
        target: u64,
    },
    /// New leader → everyone else: the view is installed; `entries` is
    /// the adopted slot log (gap-free, no-op-filled).
    NewView {
        /// The installed view.
        view: u64,
        /// The full adopted log.
        entries: Vec<(u64, SlotEntry<T>)>,
    },
    /// Leader of `view` → followers: a group-committed run of
    /// consecutively stamped slots (`payloads[i]` binds slot
    /// `first_slot + i`). Slots were assigned at submission arrival, so
    /// the carried order is identical to per-slot `Ordered` fan-out; one
    /// wire frame (one reliable-link ack) covers the whole run.
    OrderedBatch {
        /// The stamping view.
        view: u64,
        /// Slot bound by `payloads[0]`.
        first_slot: u64,
        /// The bound payloads in slot order.
        payloads: Vec<SlotPayload<T>>,
    },
}

/// One process's endpoint of the view-based failover broadcast.
#[derive(Debug, Clone)]
pub struct ViewAbcast<T> {
    me: ProcessId,
    n: usize,
    cfg: ViewConfig,
    /// The currently installed view.
    view: u64,
    /// Ballot promise: having reported for a view change to `promised`,
    /// traffic from older views is ignored. `promised >= view` always.
    promised: u64,
    /// The view change in progress (`Some(target)` after proposing or
    /// joining one), cleared when a view >= target is installed.
    vc_target: Option<u64>,
    /// All slot bindings this process knows: the delivered prefix plus
    /// out-of-order/adopted entries above it.
    log: BTreeMap<u64, SlotEntry<T>>,
    /// Identities of all stamped items in `log` (exactly-once dedup).
    stamped: BTreeSet<(u32, u64)>,
    next_to_deliver: u64,
    delivered_count: u64,
    delivered: Vec<Delivery<T>>,
    /// Origin side: next local submission number and the submissions not
    /// yet seen in the delivered order (re-proposed across view changes).
    next_oseq: u64,
    my_pending: BTreeMap<u64, T>,
    /// Leader side: next slot to assign, and the delivery cursor each
    /// peer last acknowledged (gates the leader's own delivery).
    next_slot: u64,
    peer_ack: Vec<u64>,
    /// Leader-elect side: collected view-change reports, keyed by sender,
    /// for `collect_target`: (normal_view, delivered_up_to, entries).
    #[allow(clippy::type_complexity)]
    reports: BTreeMap<u32, (u64, u64, Vec<(u64, SlotEntry<T>)>)>,
    collect_target: u64,
    /// Timer machinery: the host-synchronized clock, the armed suspicion
    /// deadline, the backoff exponent, and the progress watermark the
    /// deadline was armed against.
    now: u64,
    deadline: Option<u64>,
    backoff_exp: u32,
    watermark: (u64, u64, usize, u64),
    transcript: Vec<String>,
    /// Group commit of the slot bindings stamped in the current view
    /// (meaningful only while leading).
    group: GroupCommit<SlotPayload<T>>,
}

impl<T: Clone + fmt::Debug> ViewAbcast<T> {
    /// The leader of view `v`: deterministic rotation over the processes.
    pub(crate) fn leader_of(&self, v: u64) -> ProcessId {
        ProcessId::new((v % self.n as u64) as u32)
    }

    /// The currently installed view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this endpoint currently leads its installed view (and is
    /// not in the middle of a view change).
    pub fn is_leader(&self) -> bool {
        self.leader_of(self.view) == self.me && self.vc_target.is_none()
    }

    fn current_timeout(&self) -> u64 {
        self.cfg
            .suspect_timeout_ns
            .checked_shl(self.backoff_exp.min(16))
            .unwrap_or(u64::MAX)
            .min(self.cfg.max_suspect_timeout_ns)
            .max(1)
    }

    /// Is there unfinished business that justifies a suspicion timer?
    fn business_pending(&self) -> bool {
        !self.my_pending.is_empty()
            || self.vc_target.is_some()
            || self.log.range(self.next_to_deliver..).next().is_some()
    }

    fn snapshot(&self) -> (u64, u64, usize, u64) {
        (
            self.view,
            self.next_to_deliver,
            self.my_pending.len(),
            self.vc_target.unwrap_or(0),
        )
    }

    fn rebuild_stamped(&mut self) {
        self.stamped = self
            .log
            .values()
            .filter_map(|e| e.payload.identity())
            .map(|(p, s)| (p.as_u32(), s))
            .collect();
    }

    /// Gap-free delivery from the slot cursor. Followers deliver freely;
    /// the leader of the current view only delivers slots some other
    /// process has acknowledged (see the module docs). Sends a cumulative
    /// `Ack` to the leader when the cursor advanced.
    fn pump(&mut self, out: &mut Outbox<ViewMsg<T>>) {
        let leader = self.leader_of(self.view);
        let i_lead = leader == self.me;
        let gate = if i_lead && self.n > 1 {
            self.peer_ack
                .iter()
                .enumerate()
                .filter(|&(p, _)| p != self.me.index())
                .map(|(_, &a)| a)
                .max()
                .unwrap_or(0)
        } else {
            u64::MAX
        };
        let mut advanced = false;
        loop {
            if self.next_to_deliver >= gate {
                break;
            }
            let Some(entry) = self.log.get(&self.next_to_deliver) else {
                break;
            };
            if let SlotPayload::Item { origin, oseq, item } = &entry.payload {
                self.delivered.push(Delivery {
                    origin: *origin,
                    global_seq: self.delivered_count,
                    item: item.clone(),
                });
                self.delivered_count += 1;
                if *origin == self.me {
                    self.my_pending.remove(oseq);
                }
            }
            self.next_to_deliver += 1;
            advanced = true;
        }
        if advanced && !i_lead {
            out.send(
                leader,
                ViewMsg::Ack {
                    view: self.view,
                    next_to_deliver: self.next_to_deliver,
                },
            );
        }
    }

    /// Leader of the current view: bind `(origin, oseq, item)` to the
    /// next slot (unless that identity is already stamped) and fan the
    /// binding out.
    fn stamp(&mut self, origin: ProcessId, oseq: u64, item: T, out: &mut Outbox<ViewMsg<T>>) {
        if !self.stamped.insert((origin.as_u32(), oseq)) {
            return;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        let payload = SlotPayload::Item { origin, oseq, item };
        self.log.insert(
            slot,
            SlotEntry {
                view: self.view,
                payload: payload.clone(),
            },
        );
        let fanout = self.group.push(slot, payload);
        self.fan_out(fanout, out);
        self.pump(out);
    }

    /// Puts a group-commit outcome on the wire: one frame per follower.
    fn fan_out(&self, fanout: Fanout<SlotPayload<T>>, out: &mut Outbox<ViewMsg<T>>) {
        let view = self.view;
        let msg = match fanout {
            Fanout::Hold => return,
            Fanout::One(slot, payload) => ViewMsg::Ordered {
                view,
                slot,
                payload,
            },
            Fanout::Run(first_slot, payloads) => ViewMsg::OrderedBatch {
                view,
                first_slot,
                payloads,
            },
        };
        for p in (0..self.n).filter(|&p| p != self.me.index()) {
            out.send(ProcessId::new(p as u32), msg.clone());
        }
    }

    /// Abandons the pending fan-out run across a view transition. The
    /// bindings stay in our log (and hence in our view-change report);
    /// if the transition loses them anyway they were unacked — thus
    /// undelivered anywhere — and their origins re-propose them.
    fn drop_fan(&mut self) {
        self.group.clear();
    }

    /// Builds this process's view-change report for `target`.
    fn my_report(&self, target: u64) -> ViewMsg<T> {
        ViewMsg::ViewChange {
            target,
            normal_view: self.view,
            delivered_up_to: self.next_to_deliver,
            entries: self.log.iter().map(|(s, e)| (*s, e.clone())).collect(),
        }
    }

    /// Proposes (or joins) the change to `target`: promise the ballot,
    /// report to the leader-elect, and — if that is us — open collection.
    fn join_view_change(&mut self, target: u64, out: &mut Outbox<ViewMsg<T>>) {
        if target <= self.promised && self.vc_target.is_some() {
            return;
        }
        if target <= self.view {
            return;
        }
        self.promised = self.promised.max(target);
        self.vc_target = Some(target);
        self.drop_fan();
        let elect = self.leader_of(target);
        self.transcript.push(format!(
            "P{}: suspect v{} -> propose v{} (leader-elect P{})",
            self.me.as_u32(),
            self.view,
            target,
            elect.as_u32()
        ));
        if elect == self.me {
            self.open_collection(target, out);
        } else {
            out.send(elect, self.my_report(target));
        }
    }

    /// Leader-elect: start (or restart) collecting reports for `target`,
    /// seeding the set with our own.
    fn open_collection(&mut self, target: u64, out: &mut Outbox<ViewMsg<T>>) {
        if target > self.collect_target {
            self.reports.clear();
            self.collect_target = target;
        }
        self.reports.insert(
            self.me.as_u32(),
            (
                self.view,
                self.next_to_deliver,
                self.log.iter().map(|(s, e)| (*s, e.clone())).collect(),
            ),
        );
        for p in 0..self.n {
            if p != self.me.index() {
                out.send(ProcessId::new(p as u32), ViewMsg::Collect { target });
            }
        }
        self.try_install(out);
    }

    /// Installs `collect_target` once every process except the suspected
    /// old leader has reported.
    fn try_install(&mut self, out: &mut Outbox<ViewMsg<T>>) {
        let target = self.collect_target;
        if self.vc_target != Some(target) || self.leader_of(target) != self.me {
            return;
        }
        let old_leader = self.leader_of(target.wrapping_sub(1));
        let quorum = (0..self.n as u32)
            .filter(|&p| ProcessId::new(p) != old_leader)
            .all(|p| self.reports.contains_key(&p));
        if !quorum {
            return;
        }

        // Adopt the single authoritative log: the longest log among the
        // reports with the maximal installed ("normal") view. Same-view
        // logs are a common base plus a prefix of that view's stamp
        // stream, hence prefix-comparable, and the ack discipline puts
        // every delivered slot in at least one required report — so this
        // log contains every delivery anywhere, and stale bindings from
        // dead views are discarded rather than resurrected.
        let vmax = self
            .reports
            .values()
            .map(|(nv, _, _)| *nv)
            .max()
            .unwrap_or(0);
        let mut adopted: BTreeMap<u64, SlotEntry<T>> = BTreeMap::new();
        let mut best_len = 0usize;
        let mut stable = 0u64;
        for (nv, delivered_up_to, entries) in self.reports.values() {
            stable = stable.max(*delivered_up_to);
            if *nv == vmax && (entries.len() > best_len || adopted.is_empty()) {
                best_len = entries.len();
                adopted = entries.iter().map(|(s, e)| (*s, e.clone())).collect();
            }
        }
        let top = adopted.keys().next_back().map_or(0, |s| s + 1);
        let mut noops = 0u64;
        for slot in 0..top {
            adopted.entry(slot).or_insert_with(|| {
                noops += 1;
                SlotEntry {
                    view: target,
                    payload: SlotPayload::Noop,
                }
            });
        }
        // Re-stamp every adopted binding with the new view so this log is
        // authoritative in any later merge.
        for entry in adopted.values_mut() {
            entry.view = target;
        }

        // Seed the ack gate from the reports: a reporter's delivered
        // prefix is a standing acknowledgement (our own cursor is not an
        // *external* ack, so it stays zeroed).
        let mut acks = vec![0u64; self.n];
        for (&p, (_, delivered_up_to, _)) in self.reports.iter() {
            acks[p as usize] = *delivered_up_to;
        }
        acks[self.me.index()] = 0;

        // Install locally.
        self.drop_fan();
        self.log = adopted;
        self.rebuild_stamped();
        self.view = target;
        self.promised = target;
        self.vc_target = None;
        self.reports.clear();
        self.next_slot = top;
        self.peer_ack = acks;
        self.transcript.push(format!(
            "P{}: install v{} stable={} slots={} noops={}",
            self.me.as_u32(),
            target,
            stable,
            top,
            noops
        ));
        let entries: Vec<(u64, SlotEntry<T>)> =
            self.log.iter().map(|(s, e)| (*s, e.clone())).collect();
        for p in 0..self.n {
            if p != self.me.index() {
                out.send(
                    ProcessId::new(p as u32),
                    ViewMsg::NewView {
                        view: target,
                        entries: entries.clone(),
                    },
                );
            }
        }
        self.pump(out);
        // Re-propose our own unordered submissions in the new view.
        let mine: Vec<(u64, T)> = self
            .my_pending
            .iter()
            .filter(|(oseq, _)| !self.stamped.contains(&(self.me.as_u32(), **oseq)))
            .map(|(o, i)| (*o, i.clone()))
            .collect();
        for (oseq, item) in mine {
            self.stamp(self.me, oseq, item, out);
        }
        self.progress_made();
    }

    /// Adopts a `NewView` installed by another leader.
    fn adopt(&mut self, v: u64, entries: Vec<(u64, SlotEntry<T>)>, out: &mut Outbox<ViewMsg<T>>) {
        if v < self.promised || v <= self.view {
            return;
        }
        self.drop_fan();
        // Keep the immutable delivered prefix, replace everything above.
        self.log.retain(|slot, _| *slot < self.next_to_deliver);
        for (slot, entry) in entries {
            if slot >= self.next_to_deliver {
                self.log.insert(slot, entry);
            } else if cfg!(debug_assertions) {
                let have = self.log.get(&slot).map(|e| e.payload.identity());
                debug_assert_eq!(
                    have,
                    Some(entry.payload.identity()),
                    "NewView v{v} rebinds delivered slot {slot}: forked order"
                );
            }
        }
        self.rebuild_stamped();
        self.view = v;
        self.promised = v;
        self.vc_target = None;
        self.next_slot = self.log.keys().next_back().map_or(0, |s| s + 1);
        self.peer_ack = vec![0; self.n];
        let leader = self.leader_of(v);
        self.transcript.push(format!(
            "P{}: adopt v{} leader=P{} slots={}",
            self.me.as_u32(),
            v,
            leader.as_u32(),
            self.next_slot
        ));
        self.pump(out);
        out.send(
            leader,
            ViewMsg::Ack {
                view: self.view,
                next_to_deliver: self.next_to_deliver,
            },
        );
        // Re-propose our submissions the adopted log does not contain.
        let mine: Vec<(u64, T)> = self
            .my_pending
            .iter()
            .filter(|(oseq, _)| !self.stamped.contains(&(self.me.as_u32(), **oseq)))
            .map(|(o, i)| (*o, i.clone()))
            .collect();
        for (oseq, item) in mine {
            out.send(
                leader,
                ViewMsg::Submit {
                    view: self.view,
                    origin: self.me,
                    oseq,
                    item,
                },
            );
        }
        self.progress_made();
    }

    /// Progress was observed: reset the backoff and let the timer re-arm
    /// from a fresh watermark.
    fn progress_made(&mut self) {
        self.backoff_exp = 0;
        self.deadline = None;
    }
}

impl<T: Clone + fmt::Debug> Abcast<T> for ViewAbcast<T> {
    type Msg = ViewMsg<T>;

    fn new(me: ProcessId, n: usize) -> Self {
        ViewAbcast {
            me,
            n,
            cfg: ViewConfig::default(),
            view: 0,
            promised: 0,
            vc_target: None,
            log: BTreeMap::new(),
            stamped: BTreeSet::new(),
            next_to_deliver: 0,
            delivered_count: 0,
            delivered: Vec::new(),
            next_oseq: 0,
            my_pending: BTreeMap::new(),
            next_slot: 0,
            peer_ack: vec![0; n],
            reports: BTreeMap::new(),
            collect_target: 0,
            now: 0,
            deadline: None,
            backoff_exp: 0,
            watermark: (0, 0, 0, 0),
            transcript: Vec::new(),
            group: GroupCommit::new(),
        }
    }

    fn broadcast(&mut self, item: T, out: &mut Outbox<Self::Msg>) {
        let oseq = self.next_oseq;
        self.next_oseq += 1;
        self.my_pending.insert(oseq, item.clone());
        if self.vc_target.is_some() {
            // A view change is in flight; the submission is re-proposed
            // when the new view is installed.
            return;
        }
        if self.is_leader() {
            self.stamp(self.me, oseq, item, out);
        } else {
            out.send(
                self.leader_of(self.view),
                ViewMsg::Submit {
                    view: self.view,
                    origin: self.me,
                    oseq,
                    item,
                },
            );
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        match msg {
            ViewMsg::Submit {
                view,
                origin,
                oseq,
                item,
            } => {
                // Stale or early submissions are dropped: the origin
                // re-proposes after adopting the current view, and the
                // stamped-identity set keeps this exactly-once.
                if view == self.view && self.is_leader() {
                    self.stamp(origin, oseq, item, out);
                }
            }
            ViewMsg::Ordered {
                view,
                slot,
                payload,
            } => {
                if view != self.view || self.vc_target.is_some() {
                    // Bindings from other views are ignored; anything
                    // that matters is recovered by the view change.
                    return;
                }
                if slot >= self.next_to_deliver {
                    if let Some((p, o)) = payload.identity() {
                        self.stamped.insert((p.as_u32(), o));
                    }
                    self.log.insert(slot, SlotEntry { view, payload });
                    self.pump(out);
                }
            }
            ViewMsg::Ack {
                view,
                next_to_deliver,
            } => {
                if view == self.view && self.is_leader() {
                    let slot = &mut self.peer_ack[from.index()];
                    *slot = (*slot).max(next_to_deliver);
                    self.pump(out);
                }
            }
            ViewMsg::ViewChange {
                target,
                normal_view,
                delivered_up_to,
                entries,
            } => {
                if target <= self.view || self.leader_of(target) != self.me {
                    return;
                }
                // First report for a higher target makes us join it.
                self.join_view_change(target, out);
                if self.collect_target == target {
                    self.reports
                        .insert(from.as_u32(), (normal_view, delivered_up_to, entries));
                    self.try_install(out);
                }
            }
            ViewMsg::Collect { target } => {
                if target > self.view && target > self.promised {
                    self.join_view_change(target, out);
                } else if self.vc_target == Some(target) && self.leader_of(target) != self.me {
                    // Already promised this target (e.g. we proposed it):
                    // (re)send our report to the leader-elect.
                    out.send(self.leader_of(target), self.my_report(target));
                }
            }
            ViewMsg::NewView { view, entries } => {
                self.adopt(view, entries, out);
            }
            ViewMsg::OrderedBatch {
                view,
                first_slot,
                payloads,
            } => {
                if view != self.view || self.vc_target.is_some() {
                    return;
                }
                for (i, payload) in payloads.into_iter().enumerate() {
                    let slot = first_slot + i as u64;
                    if slot >= self.next_to_deliver {
                        if let Some((p, o)) = payload.identity() {
                            self.stamped.insert((p.as_u32(), o));
                        }
                        self.log.insert(slot, SlotEntry { view, payload });
                    }
                }
                self.pump(out);
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
        let suspicion = if let Some(d) = self.deadline {
            Some(d)
        } else if self.business_pending() {
            // Not yet armed: ask the host for an immediate tick so the
            // deadline can be computed against a fresh clock.
            Some(self.now.saturating_add(1))
        } else {
            None
        };
        match (suspicion, self.group.next_deadline(self.now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        self.now = self.now.max(now_ns);
        // Group-commit window first: arm it on the first tick after a
        // partial batch appeared, flush it once it expires.
        let fanout = self.group.on_tick(self.now);
        self.fan_out(fanout, out);
        if !self.business_pending() {
            self.deadline = None;
            return;
        }
        match self.deadline {
            None => {
                self.watermark = self.snapshot();
                self.deadline = Some(self.now + self.current_timeout());
            }
            Some(d) if self.now >= d => {
                if self.snapshot() != self.watermark {
                    // Progress since arming: fresh timeout, no suspicion.
                    self.backoff_exp = 0;
                    self.watermark = self.snapshot();
                    self.deadline = Some(self.now + self.current_timeout());
                } else {
                    let target = self.vc_target.map_or(self.view + 1, |t| t + 1);
                    self.backoff_exp = (self.backoff_exp + 1).min(16);
                    self.join_view_change(target, out);
                    self.watermark = self.snapshot();
                    self.deadline = Some(self.now + self.current_timeout());
                }
            }
            Some(_) => {}
        }
    }

    fn on_restart(&mut self, now_ns: u64, _out: &mut Outbox<Self::Msg>) {
        // Fail-recover: ordering state survived. The link's rejoin
        // handshake replays whatever NewView/Ordered traffic we missed;
        // if the cluster moved on we adopt the newer view from it and
        // continue as a follower. Just resynchronize the clock and let
        // the suspicion machinery re-arm.
        self.now = self.now.max(now_ns);
        self.deadline = None;
        self.backoff_exp = 0;
        // An unfanned stamped run died with the crash, like in-flight
        // wire frames; the bindings stay in our log and the suspicion
        // machinery recovers them via the next view change if needed.
        self.drop_fan();
        self.transcript
            .push(format!("P{}: restart in v{}", self.me.as_u32(), self.view));
    }

    fn set_batching(&mut self, cfg: BatchConfig) {
        debug_assert!(
            self.next_slot == 0 && self.delivered_count == 0 && self.next_oseq == 0,
            "batching must be configured before any traffic"
        );
        self.group.configure(cfg);
    }

    fn batch_stats(&self) -> BatchStats {
        self.group.stats()
    }

    fn set_failover_timeouts(&mut self, base_ns: u64, max_ns: u64) {
        self.cfg = ViewConfig {
            suspect_timeout_ns: base_ns.max(1),
            max_suspect_timeout_ns: max_ns.max(base_ns.max(1)),
        };
    }

    fn transcript(&self) -> Vec<String> {
        self.transcript.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A tiny loss-free router for driving endpoints by hand: per-pair
    /// FIFO queues (the reliable-link contract), with crashed processes
    /// simply not draining their queues until restart.
    struct Net {
        queues: Vec<Vec<std::collections::VecDeque<ViewMsg<u64>>>>,
        down: Vec<bool>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            Net {
                queues: (0..n)
                    .map(|_| (0..n).map(|_| std::collections::VecDeque::new()).collect())
                    .collect(),
                down: vec![false; n],
            }
        }

        fn push(&mut self, from: ProcessId, out: &mut Outbox<ViewMsg<u64>>) {
            for (to, m) in out.drain() {
                self.queues[from.index()][to.index()].push_back(m);
            }
        }

        /// Delivers every queued message to every up process, repeatedly,
        /// until quiet. Returns the number of messages moved.
        fn settle(&mut self, nodes: &mut [ViewAbcast<u64>]) -> usize {
            let n = nodes.len();
            let mut moved = 0;
            loop {
                let mut any = false;
                for from in 0..n {
                    for to in 0..n {
                        if self.down[to] || self.down[from] {
                            continue;
                        }
                        while let Some(m) = self.queues[from][to].pop_front() {
                            let mut out = Outbox::new(n);
                            nodes[to].on_message(pid(from as u32), m, &mut out);
                            self.push(pid(to as u32), &mut out);
                            any = true;
                            moved += 1;
                        }
                    }
                }
                if !any {
                    return moved;
                }
            }
        }

        /// Ticks every up process at `now`, routing what they send.
        fn tick_all(&mut self, nodes: &mut [ViewAbcast<u64>], now: u64) {
            for (p, node) in nodes.iter_mut().enumerate() {
                if self.down[p] {
                    continue;
                }
                let mut out = Outbox::new(nodes_len(&self.queues));
                node.on_tick(now, &mut out);
                self.push(pid(p as u32), &mut out);
            }
        }
    }

    fn nodes_len(q: &[Vec<std::collections::VecDeque<ViewMsg<u64>>>]) -> usize {
        q.len()
    }

    fn cluster(n: usize) -> (Vec<ViewAbcast<u64>>, Net) {
        let nodes = (0..n)
            .map(|p| ViewAbcast::new(pid(p as u32), n))
            .collect::<Vec<_>>();
        (nodes, Net::new(n))
    }

    fn submit(nodes: &mut [ViewAbcast<u64>], net: &mut Net, p: usize, item: u64) {
        let n = nodes.len();
        let mut out = Outbox::new(n);
        nodes[p].broadcast(item, &mut out);
        net.push(pid(p as u32), &mut out);
    }

    fn delivered_items(node: &mut ViewAbcast<u64>, into: &mut Vec<u64>) {
        for d in node.drain_delivered() {
            into.push(d.item);
        }
    }

    #[test]
    fn steady_state_orders_like_a_sequencer() {
        let (mut nodes, mut net) = cluster(3);
        submit(&mut nodes, &mut net, 1, 10);
        submit(&mut nodes, &mut net, 2, 20);
        submit(&mut nodes, &mut net, 0, 30);
        net.settle(&mut nodes);
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (p, node) in nodes.iter_mut().enumerate() {
            delivered_items(node, &mut seqs[p]);
        }
        assert_eq!(seqs[0].len(), 3, "validity");
        assert_eq!(seqs[0], seqs[1], "total order");
        assert_eq!(seqs[1], seqs[2], "total order");
        assert!(nodes.iter().all(|n| n.view() == 0), "no spurious change");
        assert!(nodes[0].transcript().is_empty());
    }

    #[test]
    fn leader_crash_fails_over_and_completes() {
        let (mut nodes, mut net) = cluster(3);
        // P1's submission is stamped by P0 and delivered everywhere.
        submit(&mut nodes, &mut net, 1, 10);
        net.settle(&mut nodes);
        // P0 goes down; P2 submits into the void.
        net.down[0] = true;
        submit(&mut nodes, &mut net, 2, 20);
        net.settle(&mut nodes);
        // Suspicion fires (two ticks: arm, then expire) and the view
        // change completes among the survivors.
        net.tick_all(&mut nodes, 1_000_000);
        net.settle(&mut nodes);
        net.tick_all(&mut nodes, 2_000_000);
        net.settle(&mut nodes);
        assert_eq!(nodes[1].view(), 1, "survivors installed view 1");
        assert_eq!(nodes[2].view(), 1);
        assert!(nodes[1].is_leader(), "leader rotation: view 1 -> P1");
        let mut got1 = Vec::new();
        let mut got2 = Vec::new();
        delivered_items(&mut nodes[1], &mut got1);
        delivered_items(&mut nodes[2], &mut got2);
        assert_eq!(got1, vec![10, 20], "no lost submission, agreed order");
        assert_eq!(got2, vec![10, 20]);
        // The ex-leader restarts and catches up from the retransmitted
        // NewView (modelled here by the queues simply draining late).
        net.down[0] = false;
        net.settle(&mut nodes);
        let mut got0 = Vec::new();
        delivered_items(&mut nodes[0], &mut got0);
        assert_eq!(got0, vec![10, 20], "ex-leader rejoins as follower");
        assert_eq!(nodes[0].view(), 1);
        assert!(!nodes[0].transcript().is_empty() || !nodes[1].transcript().is_empty());
    }

    #[test]
    fn two_successive_leader_crashes() {
        let (mut nodes, mut net) = cluster(3);
        submit(&mut nodes, &mut net, 1, 10);
        net.settle(&mut nodes);
        // Crash P0, fail over to P1.
        net.down[0] = true;
        submit(&mut nodes, &mut net, 2, 20);
        net.settle(&mut nodes);
        net.tick_all(&mut nodes, 1_000_000);
        net.settle(&mut nodes);
        net.tick_all(&mut nodes, 2_000_000);
        net.settle(&mut nodes);
        assert_eq!(nodes[2].view(), 1);
        // P0 restarts (required: view changes wait for all but the old
        // leader), then P1 — the new leader — crashes too.
        net.down[0] = false;
        net.settle(&mut nodes);
        net.down[1] = true;
        submit(&mut nodes, &mut net, 2, 30);
        net.settle(&mut nodes);
        net.tick_all(&mut nodes, 4_000_000);
        net.settle(&mut nodes);
        net.tick_all(&mut nodes, 8_000_000);
        net.settle(&mut nodes);
        assert_eq!(nodes[2].view(), 2, "second failover installed view 2");
        assert!(nodes[2].is_leader());
        net.down[1] = false;
        net.settle(&mut nodes);
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (p, node) in nodes.iter_mut().enumerate() {
            delivered_items(node, &mut seqs[p]);
        }
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
        let mut all = seqs[0].clone();
        all.sort_unstable();
        assert_eq!(all, vec![10, 20, 30], "exactly-once, nothing lost");
    }

    #[test]
    fn false_suspicion_is_safe() {
        // The leader is merely slow (messages delayed, not lost): a view
        // change happens anyway, and nothing is delivered twice or
        // reordered.
        let (mut nodes, mut net) = cluster(3);
        submit(&mut nodes, &mut net, 1, 10);
        // Don't settle: the Submit sits queued ("slow"). Suspicion fires.
        net.tick_all(&mut nodes, 1_000_000);
        net.settle(&mut nodes);
        net.tick_all(&mut nodes, 2_000_000);
        net.settle(&mut nodes);
        // Everything (including the stale Submit) eventually drains.
        net.settle(&mut nodes);
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (p, node) in nodes.iter_mut().enumerate() {
            delivered_items(node, &mut seqs[p]);
        }
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
        assert_eq!(seqs[0], vec![10], "delivered exactly once despite churn");
    }

    #[test]
    fn deadline_is_requested_only_when_business_pends() {
        let mut a: ViewAbcast<u64> = ViewAbcast::new(pid(1), 3);
        assert_eq!(a.next_deadline(), None);
        let mut out = Outbox::new(3);
        a.broadcast(7, &mut out);
        assert!(a.next_deadline().is_some(), "pending submission arms");
        let mut out2 = Outbox::new(3);
        a.on_tick(1_000, &mut out2);
        let d = a.next_deadline().unwrap();
        assert!(d > 1_000, "armed relative to the fresh clock");
        assert!(out2.is_empty(), "arming sends nothing");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut a: ViewAbcast<u64> = ViewAbcast::new(pid(2), 3);
        a.set_failover_timeouts(100, 350);
        let mut out = Outbox::new(3);
        a.broadcast(1, &mut out);
        let mut now = 10;
        a.on_tick(now, &mut out); // arm at 110
        assert_eq!(a.next_deadline(), Some(110));
        now = 110;
        a.on_tick(now, &mut out); // fire: propose v1, re-arm at 110+200
        assert_eq!(a.next_deadline(), Some(310));
        now = 310;
        a.on_tick(now, &mut out); // fire: propose v2, re-arm capped
        assert_eq!(a.next_deadline(), Some(310 + 350));
    }

    #[test]
    fn leader_batches_fan_out_into_one_frame() {
        let (mut nodes, mut net) = cluster(2);
        nodes[0].set_batching(BatchConfig {
            max_batch: 2,
            max_delay_ns: 1_000_000,
        });
        // First submission stamps a slot but defers the fan-out.
        let mut out = Outbox::new(2);
        nodes[0].broadcast(10, &mut out);
        assert!(out.is_empty(), "sub-threshold batch stays off the wire");
        // Second submission hits the threshold: exactly one frame to P1.
        let mut out = Outbox::new(2);
        nodes[0].broadcast(20, &mut out);
        let framed = out.drain();
        assert_eq!(framed.len(), 1, "one frame covers the whole batch");
        match &framed[0] {
            (
                to,
                ViewMsg::OrderedBatch {
                    first_slot,
                    payloads,
                    ..
                },
            ) => {
                assert_eq!(*to, pid(1));
                assert_eq!(*first_slot, 0);
                assert_eq!(payloads.len(), 2);
            }
            other => panic!("expected OrderedBatch, got {other:?}"),
        }
        for (to, m) in framed {
            net.queues[0][to.index()].push_back(m);
        }
        net.settle(&mut nodes);
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for (p, node) in nodes.iter_mut().enumerate() {
            delivered_items(node, &mut seqs[p]);
        }
        assert_eq!(seqs[0], vec![10, 20], "ack-gated leader delivery");
        assert_eq!(seqs[1], vec![10, 20], "follower delivers in slot order");
        assert!(nodes[0].batch_stats().occupancy() > 1.0);
    }

    #[test]
    fn partial_fan_flushes_at_the_deadline() {
        let (mut nodes, mut net) = cluster(2);
        nodes[0].set_batching(BatchConfig {
            max_batch: 8,
            max_delay_ns: 500,
        });
        submit(&mut nodes, &mut net, 0, 10);
        assert_eq!(net.settle(&mut nodes), 0, "batch pends, wire is quiet");
        net.tick_all(&mut nodes, 100); // arms the flush window
        assert_eq!(
            nodes[0].next_deadline(),
            Some(600),
            "flush before suspicion"
        );
        net.tick_all(&mut nodes, 600); // window expires: flush
        net.settle(&mut nodes);
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for (p, node) in nodes.iter_mut().enumerate() {
            delivered_items(node, &mut seqs[p]);
        }
        assert_eq!(seqs[0], vec![10]);
        assert_eq!(seqs[1], vec![10]);
        assert_eq!(nodes[0].batch_stats().batches_flushed, 1);
    }
}
