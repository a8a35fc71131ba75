//! Conflict-sharded atomic broadcast over a certified shard partition.
//!
//! A [`ShardCert`](moc_core::shard::ShardCert) proves that the object
//! universe splits into shards such that every conflicting pair of
//! m-operations is confined to one shard (or explicitly enumerated as
//! cross-shard). [`ShardedAbcast`] exploits that proof: it runs one
//! independent [`SequencerAbcast`] ordering channel *per shard* plus one
//! global channel, and routes each broadcast by its object footprint
//! ([`ShardPlan::route`]):
//!
//! * a single-shard item goes through its shard's channel — ordered only
//!   against the items it can actually conflict with, by that shard's own
//!   sequencer (shard `s` is sequenced by process `(s + 1) mod n`, so the
//!   stamping load spreads across the cluster instead of serializing at
//!   process 0);
//! * a cross-shard (or unroutable) item falls back to the global channel
//!   (sequenced by process 0).
//!
//! **Merging** the channels back into one per-replica application order is
//! the delicate part. Independent channels are only safe for items that
//! never conflict; a global item conflicts with shard items, so its
//! position relative to *each* shard channel must be agreed. The global
//! sequencer therefore emits a `Barrier(k)` marker into every shard
//! channel when it stamps global item `k`. Each replica then applies:
//!
//! * shard-channel ops immediately, in channel order;
//! * a barrier `Barrier(j)` at a channel head raises that channel's
//!   barrier frontier to `j + 1` and holds the channel until global item
//!   `j` has applied;
//! * global item `k` once every shard channel's frontier exceeds `k`.
//!
//! Because each channel's delivery sequence is agreed (per-channel total
//! order), the position of `Barrier(k)` inside shard channel `s` is the
//! *same at every replica* — so every replica applies the same shard-`s`
//! ops before global item `k` and the same ops after it. Conflicting
//! pairs are thus consistently ordered everywhere:
//! same-shard pairs by their shard channel, global–global pairs by the
//! global channel, and global–shard pairs by the barrier's agreed slot.
//! Non-conflicting pairs may interleave differently per replica — which
//! is exactly what the certificate licenses (they commute).
//!
//! The frontier rule uses `max` (cumulative), not equality: the barrier
//! Submits travel over a reordering network, so `Barrier(1)` may be
//! stamped before `Barrier(0)` in some shard channel. A frontier of
//! `max(front, j + 1)` lets a later barrier cover earlier global items,
//! and induction over `k` keeps the merge deadlock-free.
//!
//! m-SC across shards additionally needs process confinement (the
//! certificate's `per-shard-with-process-confinement` side condition —
//! IRIW shows per-shard total orders alone are too weak); m-linearizability
//! composes unconditionally by locality.
//!
//! ## Commutativity fast paths
//!
//! An audited `moc-commute-cert` can be installed as a delivery-time
//! [`CommutePlan`] ([`Abcast::set_commute_plan`]), enabling two
//! out-of-order shortcuts the certificate proves harmless:
//!
//! * **Barrier skipping** — a global item need only wait for the barrier
//!   frontiers of shards it can actually conflict with. For a shard `s`
//!   where the plan shows the item writes nothing `s`'s programs may
//!   touch and touches nothing they may write, both relative orders
//!   yield identical states, so the frontier check is skipped.
//! * **Read-only self-delivery** — an item whose
//!   [`Footprinted::write_footprint`] is empty changes no replica state,
//!   so it is applied locally at submission, without sequencer stamping
//!   or any messages at all. Such deliveries are **replica-private**:
//!   they appear only in the issuing endpoint's merged order, on a
//!   pseudo-channel one past the global channel, and are excluded from
//!   the cross-replica channel-agreement property.
//!
//! Installing a plan that *overclaims* commutation (see
//! [`CommutePlan::vacuous`]) re-creates exactly the divergence the
//! barriers exist to prevent — the chaos suite keeps a negative control
//! proving the damage is detectable.

use std::collections::VecDeque;
use std::fmt;

use moc_core::commute::CommutePlan;
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::shard::{Footprinted, Route, ShardPlan};

use crate::sequencer::{SequencerAbcast, SequencerMsg};
use crate::{Abcast, BatchConfig, BatchStats, Delivery, Outbox};

/// Items carried inside a shard channel: real payloads and the barrier
/// markers that pin global items into the shard's order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardItem<T> {
    /// An application payload routed to this channel.
    Op(T),
    /// "Global item with stamp `k` sits *here* in this shard's order."
    Barrier(u64),
}

/// Wire message: a sequencer-protocol message tagged with its channel.
#[derive(Debug, Clone)]
pub struct ShardedMsg<T> {
    /// Channel index: `0..num_shards` are shard channels, `num_shards`
    /// is the global channel.
    pub channel: u32,
    /// The underlying fixed-sequencer protocol message.
    pub msg: SequencerMsg<ShardItem<T>>,
}

/// One process's endpoint of the conflict-sharded broadcast.
///
/// Degenerate until [`Abcast::set_shard_plan`] installs a partition: with
/// no plan there is a single global channel and the protocol behaves like
/// a plain [`SequencerAbcast`].
#[derive(Debug, Clone)]
pub struct ShardedAbcast<T> {
    me: ProcessId,
    n: usize,
    plan: Option<ShardPlan>,
    /// Delivery-time view of an audited commute certificate; gates the
    /// out-of-order fast paths. `None` disables both.
    commute: Option<CommutePlan>,
    /// Deliveries that bypassed an ordering wait via `commute`.
    fast_applied: u64,
    /// `channels[0..num_shards]` are shard channels; the last entry is
    /// always the global channel.
    channels: Vec<SequencerAbcast<ShardItem<T>>>,
    /// Delivered-but-unapplied items per channel, in channel order.
    pending: Vec<VecDeque<Delivery<ShardItem<T>>>>,
    /// Per shard channel: smallest global stamp NOT yet covered by a
    /// barrier that reached the channel head.
    barrier_front: Vec<u64>,
    /// Global stamps `< global_applied` have been applied locally.
    global_applied: u64,
    merged: Vec<Delivery<T>>,
    merged_count: u64,
    /// Channel index of each merged delivery, cumulatively.
    channel_trace: Vec<u32>,
    /// Group-commit configuration, propagated into every ordering
    /// channel (including channels created by a later shard plan).
    batch: BatchConfig,
}

impl<T: Clone + fmt::Debug + Footprinted> ShardedAbcast<T> {
    /// The installed shard plan, if any.
    pub fn plan(&self) -> Option<&ShardPlan> {
        self.plan.as_ref()
    }

    /// Index of the replica-private pseudo-channel carrying read-only
    /// self-deliveries (one past the global channel; never on the wire).
    pub(crate) fn local_channel(&self) -> u32 {
        self.channels.len() as u32
    }

    fn num_shards(&self) -> usize {
        self.channels.len() - 1
    }

    /// Drains `inner`, tagging messages with `channel`.
    fn relay(
        channel: usize,
        inner: &mut Outbox<SequencerMsg<ShardItem<T>>>,
        out: &mut Outbox<ShardedMsg<T>>,
    ) {
        for (to, msg) in inner.drain() {
            out.send(
                to,
                ShardedMsg {
                    channel: channel as u32,
                    msg,
                },
            );
        }
    }

    /// Post-step bookkeeping for channel `c`: if this endpoint (as the
    /// global sequencer) just *stamped* global items, pin each of them
    /// into every shard channel with a `Barrier(k)` submission. Keyed off
    /// stamp assignment — not fan-out — so group-commit batching never
    /// moves a barrier's agreed slot relative to the unbatched protocol.
    fn after_step(&mut self, c: usize, out: &mut Outbox<ShardedMsg<T>>) {
        let stamped = self.channels[c].take_newly_stamped();
        if c == self.num_shards() {
            for k in stamped {
                for s in 0..self.num_shards() {
                    let mut b = Outbox::new(out.num_processes());
                    self.channels[s].broadcast(ShardItem::Barrier(k), &mut b);
                    Self::relay(s, &mut b, out);
                }
            }
        }
        self.collect_delivered(c);
    }

    fn collect_delivered(&mut self, channel: usize) {
        for d in self.channels[channel].drain_delivered() {
            self.pending[channel].push_back(d);
        }
    }

    /// Applies everything applicable from the pending queues, repeating
    /// until a fixpoint: shard ops freely, barriers and global items under
    /// the frontier discipline described in the module docs.
    fn merge(&mut self) {
        let global = self.num_shards();
        loop {
            let mut progress = false;
            for c in 0..global {
                while let Some(head) = self.pending[c].front() {
                    match &head.item {
                        ShardItem::Op(_) => {
                            let d = self.pending[c].pop_front().unwrap();
                            self.apply(c, d);
                            progress = true;
                        }
                        ShardItem::Barrier(j) => {
                            let j = *j;
                            if self.barrier_front[c] <= j {
                                self.barrier_front[c] = j + 1;
                                progress = true;
                            }
                            if self.global_applied > j {
                                self.pending[c].pop_front();
                                progress = true;
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
            while let Some(head) = self.pending[global].front() {
                let k = head.global_seq;
                // Fast path: a frontier that hasn't covered `k` yet may
                // still be skipped when the commute plan proves the item
                // commutes with everything that shard's channel carries.
                let (clear, bypassed) =
                    if let (Some(cp), ShardItem::Op(it)) = (&self.commute, &head.item) {
                        let touches = it.footprint();
                        let writes = it.write_footprint();
                        let mut bypassed = false;
                        let clear = self.barrier_front.iter().enumerate().all(|(s, &f)| {
                            f > k || {
                                let c = cp.commutes_with_shard(s, &touches, &writes);
                                bypassed |= c;
                                c
                            }
                        });
                        (clear, clear && bypassed)
                    } else {
                        (self.barrier_front.iter().all(|&f| f > k), false)
                    };
                if clear {
                    let d = self.pending[global].pop_front().unwrap();
                    self.apply(global, d);
                    self.global_applied = k + 1;
                    if bypassed {
                        self.fast_applied += 1;
                    }
                    progress = true;
                } else {
                    break;
                }
            }
            if !progress {
                break;
            }
        }
    }

    fn apply(&mut self, channel: usize, d: Delivery<ShardItem<T>>) {
        if let ShardItem::Op(item) = d.item {
            self.merged.push(Delivery {
                origin: d.origin,
                global_seq: self.merged_count,
                item,
            });
            self.channel_trace.push(channel as u32);
            self.merged_count += 1;
        }
    }

    /// Routes a footprint through the plan, falling back to the global
    /// channel for cross-shard, empty, or out-of-universe footprints.
    fn channel_for(&self, footprint: &[ObjectId]) -> usize {
        let Some(plan) = &self.plan else {
            return self.num_shards(); // no plan: everything is global
        };
        if footprint.iter().any(|o| o.index() >= plan.num_objects()) {
            return self.num_shards();
        }
        match plan.route(footprint.iter().copied()) {
            Route::Shard(s) => s as usize,
            Route::Global => self.num_shards(),
        }
    }
}

impl<T: Clone + fmt::Debug + Footprinted> Abcast<T> for ShardedAbcast<T> {
    type Msg = ShardedMsg<T>;

    fn new(me: ProcessId, n: usize) -> Self {
        ShardedAbcast {
            me,
            n,
            plan: None,
            commute: None,
            fast_applied: 0,
            channels: vec![SequencerAbcast::new(me, n)],
            pending: vec![VecDeque::new()],
            barrier_front: Vec::new(),
            global_applied: 0,
            merged: Vec::new(),
            merged_count: 0,
            channel_trace: Vec::new(),
            batch: BatchConfig::default(),
        }
    }

    fn set_shard_plan(&mut self, plan: ShardPlan) {
        debug_assert!(
            self.merged_count == 0 && self.channels.iter().all(|c| c.delivered_count() == 0),
            "shard plan must be installed before any traffic"
        );
        let shards = plan.num_shards() as usize;
        let batch = self.batch;
        self.channels = (0..=shards)
            .map(|c| {
                let seqr = if c == shards {
                    ProcessId::new(0)
                } else {
                    ProcessId::new(((c + 1) % self.n) as u32)
                };
                let mut ch = SequencerAbcast::new(self.me, self.n).with_sequencer(seqr);
                ch.set_batching(batch);
                ch
            })
            .collect();
        self.pending = (0..=shards).map(|_| VecDeque::new()).collect();
        self.barrier_front = vec![0; shards];
        self.plan = Some(plan);
    }

    fn set_commute_plan(&mut self, plan: CommutePlan) {
        debug_assert!(
            self.merged_count == 0 && self.channels.iter().all(|c| c.delivered_count() == 0),
            "commute plan must be installed before any traffic"
        );
        debug_assert_eq!(
            plan.num_shards(),
            self.num_shards(),
            "commute plan must match the installed shard partition"
        );
        self.commute = Some(plan);
    }

    fn commute_fast_applied(&self) -> u64 {
        self.fast_applied
    }

    fn broadcast(&mut self, item: T, out: &mut Outbox<Self::Msg>) {
        // Read-only self-delivery: with a commute certificate installed,
        // an item that may write nothing changes no replica state, so it
        // needs no agreed slot — apply it here, now, with no messages.
        // The delivery is replica-private (pseudo-channel past global).
        if self.commute.is_some() && item.write_footprint().is_empty() {
            let channel = self.local_channel();
            self.merged.push(Delivery {
                origin: self.me,
                global_seq: self.merged_count,
                item,
            });
            self.channel_trace.push(channel);
            self.merged_count += 1;
            self.fast_applied += 1;
            return;
        }
        let c = self.channel_for(&item.footprint());
        let mut inner = Outbox::new(out.num_processes());
        self.channels[c].broadcast(ShardItem::Op(item), &mut inner);
        Self::relay(c, &mut inner, out);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        let c = msg.channel as usize;
        if c >= self.channels.len() {
            debug_assert!(false, "message for unknown channel {c}");
            return;
        }
        let mut inner = Outbox::new(out.num_processes());
        self.channels[c].on_message(from, msg.msg, &mut inner);
        Self::relay(c, &mut inner, out);
        // If we just stamped global items, `after_step` pins them into
        // every shard channel: one Barrier(k) per shard, submitted through
        // the shard's own sequencer so it lands at an agreed slot in the
        // shard order.
        self.after_step(c, out);
        self.merge();
    }

    fn next_deadline(&self) -> Option<u64> {
        self.channels
            .iter()
            .filter_map(|ch| ch.next_deadline())
            .min()
    }

    fn on_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        for c in 0..self.channels.len() {
            let mut inner = Outbox::new(out.num_processes());
            self.channels[c].on_tick(now_ns, &mut inner);
            Self::relay(c, &mut inner, out);
            self.after_step(c, out);
        }
        self.merge();
    }

    fn set_batching(&mut self, cfg: BatchConfig) {
        self.batch = cfg;
        for ch in &mut self.channels {
            ch.set_batching(cfg);
        }
    }

    fn batch_stats(&self) -> BatchStats {
        let mut total = BatchStats::default();
        for ch in &self.channels {
            total.merge(&ch.batch_stats());
        }
        total
    }

    fn drain_delivered(&mut self) -> Vec<Delivery<T>> {
        std::mem::take(&mut self.merged)
    }

    fn delivered_count(&self) -> u64 {
        self.merged_count
    }

    fn on_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        for c in 0..self.channels.len() {
            let mut inner = Outbox::new(out.num_processes());
            self.channels[c].on_restart(now_ns, &mut inner);
            Self::relay(c, &mut inner, out);
            self.after_step(c, out);
        }
        self.merge();
    }

    fn delivery_channels(&self) -> Option<Vec<u32>> {
        Some(self.channel_trace.clone())
    }

    fn private_channel(&self) -> Option<u32> {
        // Armed only once a commute plan unlocks read-only self-delivery;
        // without one the pseudo-channel can never carry an entry.
        self.commute.as_ref().map(|_| self.local_channel())
    }

    fn transcript(&self) -> Vec<String> {
        self.channels
            .iter()
            .enumerate()
            .flat_map(|(c, ch)| {
                ch.transcript()
                    .into_iter()
                    .map(move |line| format!("ch{c}: {line}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_sim::{Context, DelayModel, NetworkConfig, Node, World};

    /// A payload with an explicit object footprint (and, separately, an
    /// explicit write footprint — empty for read-only items).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Item {
        id: u64,
        objs: Vec<u32>,
        writes: Vec<u32>,
    }

    impl Footprinted for Item {
        fn footprint(&self) -> Vec<ObjectId> {
            self.objs.iter().map(|&o| ObjectId::new(o)).collect()
        }

        fn write_footprint(&self) -> Vec<ObjectId> {
            self.writes.iter().map(|&o| ObjectId::new(o)).collect()
        }
    }

    fn item(id: u64, objs: &[u32]) -> Item {
        Item {
            id,
            objs: objs.to_vec(),
            writes: objs.to_vec(),
        }
    }

    fn read_item(id: u64, objs: &[u32]) -> Item {
        Item {
            id,
            objs: objs.to_vec(),
            writes: Vec::new(),
        }
    }

    /// The honest delivery-time plan for a partition in which each
    /// shard's programs touch and write exactly the shard's own objects.
    fn commute_plan_for(plan: &ShardPlan) -> CommutePlan {
        let shards = plan.shards();
        CommutePlan {
            shard_touch: shards.clone(),
            shard_write: shards,
        }
    }

    struct ShardNode {
        inner: ShardedAbcast<Item>,
        delivered: Vec<Item>,
        n: usize,
    }

    impl ShardNode {
        fn new(
            me: ProcessId,
            n: usize,
            plan: Option<ShardPlan>,
            commute: Option<CommutePlan>,
        ) -> Self {
            let mut inner = ShardedAbcast::new(me, n);
            if let Some(p) = plan {
                inner.set_shard_plan(p);
            }
            if let Some(cp) = commute {
                inner.set_commute_plan(cp);
            }
            ShardNode {
                inner,
                delivered: Vec::new(),
                n,
            }
        }

        fn drain(&mut self) {
            for d in self.inner.drain_delivered() {
                self.delivered.push(d.item);
            }
        }

        fn submit(&mut self, it: Item, ctx: &mut Context<'_, ShardedMsg<Item>>) {
            let mut out = Outbox::new(self.n);
            self.inner.broadcast(it, &mut out);
            for (to, m) in out.drain() {
                ctx.send(to, m);
            }
            self.drain();
        }
    }

    impl Node for ShardNode {
        type Msg = ShardedMsg<Item>;
        fn on_message(
            &mut self,
            from: ProcessId,
            msg: Self::Msg,
            ctx: &mut Context<'_, Self::Msg>,
        ) {
            let mut out = Outbox::new(self.n);
            self.inner.on_message(from, msg, &mut out);
            for (to, m) in out.drain() {
                ctx.send(to, m);
            }
            self.drain();
        }
    }

    /// Two shards: objects {0,1} and {2,3}.
    fn two_shard_plan() -> ShardPlan {
        ShardPlan::new(vec![0, 0, 1, 1]).unwrap()
    }

    fn run(
        n: usize,
        plan: Option<ShardPlan>,
        submissions: Vec<(u64, u32, Item)>, // (time, process, item)
        seed: u64,
    ) -> Vec<ShardNode> {
        run_with_commute(n, plan, None, submissions, seed)
    }

    fn run_with_commute(
        n: usize,
        plan: Option<ShardPlan>,
        commute: Option<CommutePlan>,
        submissions: Vec<(u64, u32, Item)>, // (time, process, item)
        seed: u64,
    ) -> Vec<ShardNode> {
        let nodes: Vec<ShardNode> = (0..n)
            .map(|p| ShardNode::new(ProcessId::new(p as u32), n, plan.clone(), commute.clone()))
            .collect();
        let mut world = World::new(
            nodes,
            NetworkConfig::with_delay(DelayModel::Uniform { lo: 10, hi: 20_000 }),
            seed,
        );
        for (at, p, it) in submissions {
            world.schedule_call(at, ProcessId::new(p), move |node, ctx| {
                node.submit(it.clone(), ctx);
            });
        }
        world.run_until_quiescent(10_000_000);
        world.into_nodes()
    }

    fn conflicting(a: &Item, b: &Item) -> bool {
        a.objs.iter().any(|o| b.objs.contains(o))
    }

    /// Every pair of footprint-intersecting items must be applied in the
    /// same relative order at every replica; per-channel projections must
    /// be identical sequences.
    fn assert_conflict_consistent(nodes: &[ShardNode], expect_total: usize) {
        for node in nodes {
            assert_eq!(node.delivered.len(), expect_total, "validity");
            let mut ids: Vec<u64> = node.delivered.iter().map(|i| i.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), expect_total, "integrity");
        }
        let reference = &nodes[0];
        let ref_pos: std::collections::BTreeMap<u64, usize> = reference
            .delivered
            .iter()
            .enumerate()
            .map(|(i, it)| (it.id, i))
            .collect();
        for node in &nodes[1..] {
            let pos: std::collections::BTreeMap<u64, usize> = node
                .delivered
                .iter()
                .enumerate()
                .map(|(i, it)| (it.id, i))
                .collect();
            for a in &reference.delivered {
                for b in &reference.delivered {
                    if a.id < b.id && conflicting(a, b) {
                        let ref_before = ref_pos[&a.id] < ref_pos[&b.id];
                        let got_before = pos[&a.id] < pos[&b.id];
                        assert_eq!(
                            ref_before, got_before,
                            "conflicting items {} and {} ordered differently across replicas",
                            a.id, b.id
                        );
                    }
                }
            }
        }
        // Per-channel projections are agreed total orders.
        let ref_channels = reference.inner.delivery_channels().unwrap();
        let num_channels = reference.inner.channels.len();
        for node in &nodes[1..] {
            let channels = node.inner.delivery_channels().unwrap();
            assert_eq!(channels.len(), node.delivered.len());
            for c in 0..num_channels as u32 {
                let ref_proj: Vec<u64> = reference
                    .delivered
                    .iter()
                    .zip(&ref_channels)
                    .filter(|(_, ch)| **ch == c)
                    .map(|(it, _)| it.id)
                    .collect();
                let proj: Vec<u64> = node
                    .delivered
                    .iter()
                    .zip(&channels)
                    .filter(|(_, ch)| **ch == c)
                    .map(|(it, _)| it.id)
                    .collect();
                assert_eq!(ref_proj, proj, "channel {c} projection diverged");
            }
        }
    }

    #[test]
    fn single_shard_items_use_their_shard_channel() {
        let mut subs = Vec::new();
        let mut id = 0;
        for round in 0..6u64 {
            for p in 0..3u32 {
                let objs: &[u32] = if (id + round) % 2 == 0 {
                    &[0, 1]
                } else {
                    &[2, 3]
                };
                subs.push((round * 53 + p as u64 * 7, p, item(id, objs)));
                id += 1;
            }
        }
        for seed in 0..6 {
            let nodes = run(3, Some(two_shard_plan()), subs.clone(), seed);
            assert_conflict_consistent(&nodes, 18);
            let channels = nodes[0].inner.delivery_channels().unwrap();
            assert!(channels.contains(&0), "shard 0 carried traffic");
            assert!(channels.contains(&1), "shard 1 carried traffic");
            assert!(
                channels.iter().all(|&c| c != 2),
                "single-shard items must not use the global channel"
            );
        }
    }

    #[test]
    fn cross_shard_items_are_barrier_ordered_against_every_shard() {
        let mut subs = Vec::new();
        let mut id = 0;
        for round in 0..5u64 {
            for p in 0..3u32 {
                // Mix: shard-0 writes, shard-1 writes, and cross-shard
                // items spanning both (these conflict with everything).
                let objs: &[u32] = match (id + round) % 3 {
                    0 => &[0, 1],
                    1 => &[2, 3],
                    _ => &[1, 2],
                };
                subs.push((round * 41 + p as u64 * 13, p, item(id, objs)));
                id += 1;
            }
        }
        for seed in 0..8 {
            let nodes = run(3, Some(two_shard_plan()), subs.clone(), seed);
            assert_conflict_consistent(&nodes, 15);
            let channels = nodes[0].inner.delivery_channels().unwrap();
            assert!(
                channels.contains(&2),
                "cross-shard items must use the global channel"
            );
        }
    }

    #[test]
    fn without_a_plan_the_protocol_is_a_single_global_order() {
        let subs: Vec<_> = (0..12u64)
            .map(|i| (i * 31, (i % 3) as u32, item(i, &[(i % 4) as u32])))
            .collect();
        let nodes = run(3, None, subs, 7);
        for node in &nodes {
            assert_eq!(node.delivered.len(), 12);
            assert_eq!(node.delivered, nodes[0].delivered, "total order");
        }
        assert_eq!(nodes[0].inner.channels.len(), 1);
        assert!(nodes[0]
            .inner
            .delivery_channels()
            .unwrap()
            .iter()
            .all(|&c| c == 0));
    }

    #[test]
    fn shard_sequencers_are_distributed() {
        let mut a: ShardedAbcast<Item> = ShardedAbcast::new(ProcessId::new(0), 3);
        a.set_shard_plan(two_shard_plan());
        assert_eq!(a.channels.len(), 3);
        // Shard 0 → P1, shard 1 → P2, global → P0: submissions route there.
        let mut out = Outbox::new(3);
        a.broadcast(item(1, &[0]), &mut out);
        a.broadcast(item(2, &[2, 3]), &mut out);
        a.broadcast(item(3, &[1, 2]), &mut out);
        let sent = out.drain();
        let targets: Vec<(u32, u32)> = sent
            .iter()
            .map(|(to, m)| (m.channel, to.as_u32()))
            .collect();
        assert_eq!(targets, vec![(0, 1), (1, 2), (2, 0)]);
    }

    /// Three shards: objects {0,1}, {2,3}, {4,5}.
    fn three_shard_plan() -> ShardPlan {
        ShardPlan::new(vec![0, 0, 1, 1, 2, 2]).unwrap()
    }

    /// With an honest commute plan, cross-shard items skip the barrier
    /// frontiers of shards they provably commute with — the fast path
    /// demonstrably engages — while every conflicting pair stays
    /// consistently ordered at every replica.
    #[test]
    fn commuting_global_items_skip_barrier_waits() {
        let plan = three_shard_plan();
        let commute = commute_plan_for(&plan);
        let mut subs = Vec::new();
        let mut id = 0;
        for round in 0..5u64 {
            for p in 0..3u32 {
                // Shard traffic on every shard plus cross items spanning
                // shards 0 and 1 — those conflict with shards 0/1 but
                // commute with shard 2, so only two of the three barrier
                // frontiers gate them.
                let objs: &[u32] = match id % 4 {
                    0 => &[0, 1],
                    1 => &[2, 3],
                    2 => &[4, 5],
                    _ => &[1, 2],
                };
                subs.push((round * 47 + p as u64 * 11, p, item(id, objs)));
                id += 1;
            }
        }
        let mut bypasses = 0u64;
        for seed in 0..8 {
            let nodes = run_with_commute(
                3,
                Some(plan.clone()),
                Some(commute.clone()),
                subs.clone(),
                seed,
            );
            assert_conflict_consistent(&nodes, 15);
            bypasses += nodes
                .iter()
                .map(|n| n.inner.commute_fast_applied())
                .sum::<u64>();
        }
        assert!(
            bypasses > 0,
            "the certified fast path never engaged across the sweep"
        );
    }

    /// Read-only items self-deliver: no messages, no stamping, immediate
    /// local application on the replica-private pseudo-channel.
    #[test]
    fn read_only_items_self_deliver_without_messages() {
        let plan = two_shard_plan();
        let mut a: ShardedAbcast<Item> = ShardedAbcast::new(ProcessId::new(1), 3);
        a.set_shard_plan(plan.clone());
        a.set_commute_plan(commute_plan_for(&plan));
        let mut out = Outbox::new(3);
        a.broadcast(read_item(7, &[0, 1]), &mut out);
        assert!(out.is_empty(), "read-only items send nothing");
        let delivered = a.drain_delivered();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].item.id, 7);
        assert_eq!(a.delivery_channels().unwrap(), vec![a.local_channel()]);
        assert_eq!(a.commute_fast_applied(), 1);

        // Without a commute plan the same item is stamped normally.
        let mut b: ShardedAbcast<Item> = ShardedAbcast::new(ProcessId::new(1), 3);
        b.set_shard_plan(two_shard_plan());
        let mut out = Outbox::new(3);
        b.broadcast(read_item(8, &[0, 1]), &mut out);
        assert!(!out.is_empty(), "no certificate, no fast path");
        assert!(b.drain_delivered().is_empty());
    }

    /// Negative control: a vacuous plan (fabricated certificate claiming
    /// everything commutes) lets cross-shard items apply before their
    /// barriers, and some seed exhibits the divergence the barriers
    /// exist to prevent — conflicting items ordered differently at
    /// different replicas.
    #[test]
    fn vacuous_commute_plan_breaks_conflict_ordering_detectably() {
        let mut subs = Vec::new();
        let mut id = 0;
        for round in 0..5u64 {
            for p in 0..3u32 {
                let objs: &[u32] = match (id + round) % 3 {
                    0 => &[0, 1],
                    1 => &[2, 3],
                    _ => &[1, 2],
                };
                subs.push((round * 41 + p as u64 * 13, p, item(id, objs)));
                id += 1;
            }
        }
        let diverged = |nodes: &[ShardNode]| {
            let reference = &nodes[0];
            let pos = |node: &ShardNode| -> std::collections::BTreeMap<u64, usize> {
                node.delivered
                    .iter()
                    .enumerate()
                    .map(|(i, it)| (it.id, i))
                    .collect()
            };
            let ref_pos = pos(reference);
            nodes[1..].iter().any(|node| {
                let p = pos(node);
                reference.delivered.iter().any(|a| {
                    reference.delivered.iter().any(|b| {
                        a.id < b.id
                            && conflicting(a, b)
                            && (ref_pos[&a.id] < ref_pos[&b.id]) != (p[&a.id] < p[&b.id])
                    })
                })
            })
        };
        let mut detected = 0u64;
        for seed in 0..12 {
            let nodes = run_with_commute(
                3,
                Some(two_shard_plan()),
                Some(CommutePlan::vacuous(2)),
                subs.clone(),
                seed,
            );
            // Validity/integrity still hold — only ordering is damaged.
            for node in &nodes {
                assert_eq!(node.delivered.len(), 15);
            }
            if diverged(&nodes) {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "the vacuous plan never diverged in 12 seeds — the control is inert"
        );
    }

    #[test]
    fn restarted_shard_sequencer_halts_only_its_channel() {
        let mut a: ShardedAbcast<Item> = ShardedAbcast::new(ProcessId::new(1), 3);
        a.set_shard_plan(two_shard_plan());
        let mut out = Outbox::new(3);
        a.on_restart(1_000, &mut out);
        // P1 sequences shard channel 0 only.
        let halted: Vec<bool> = a
            .channels
            .iter()
            .map(|ch| !ch.transcript().is_empty())
            .collect();
        assert_eq!(halted, [true, false, false]);
        assert!(!a.transcript().is_empty());
    }
}
