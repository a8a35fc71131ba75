//! # moc-abcast
//!
//! Atomic (total-order) broadcast, the communication primitive the
//! Section 5 protocols of Mittal & Garg (1998) build on: "we use atomic
//! broadcast ... atomic broadcast ensures that all processes apply all
//! update m-operations in the same order."
//!
//! Two from-scratch implementations are provided as pure state machines
//! (no I/O; all sends go through an [`Outbox`], so they run unchanged on
//! the deterministic simulator and on the live thread runtime):
//!
//! * [`SequencerAbcast`] — a fixed sequencer (process 0) stamps global
//!   sequence numbers; receivers deliver gap-free in stamp order. Two
//!   message hops per broadcast; the sequencer is the serialization point.
//! * [`IsisAbcast`] — the ISIS/Skeen agreed-timestamp protocol: every
//!   process proposes a Lamport timestamp, the sender fixes the maximum as
//!   the final timestamp, and messages deliver in final-timestamp order
//!   once no pending message can precede them. Three hops, no fixed leader.
//!
//! Both guarantee, over reliable reordering channels:
//!
//! * **validity** — a broadcast item is eventually delivered everywhere;
//! * **integrity** — each item is delivered exactly once per process;
//! * **total order** — all processes deliver items in the same order.
//!
//! These guarantees are what make the protocols' `~ww` order (P 5.13,
//! P 5.14, P 5.23, P 5.24) well-defined.
//!
//! When the network itself is *not* reliable — it drops, duplicates, or
//! partitions ([`moc_sim::FaultPlan`]) — the [`link`] sublayer
//! ([`ReliableLink`]) re-establishes the reliable reordering channel
//! contract underneath, via sequence numbers, acknowledgements,
//! retransmission with exponential backoff, receive-side dedup, and a
//! crash-rejoin handshake. The broadcast state machines run unmodified
//! above it.

use std::fmt;

use moc_core::ids::ProcessId;

pub mod isis;
pub mod link;
pub mod sequencer;
pub mod sharded;
pub mod view;

pub use isis::IsisAbcast;
pub use link::{LinkConfig, LinkMsg, LinkStats, ReliableLink};
pub use sequencer::SequencerAbcast;
pub use sharded::{ShardItem, ShardedAbcast, ShardedMsg};
pub use view::{ViewAbcast, ViewMsg};

/// Buffered outgoing messages produced by a state-machine step.
///
/// The hosting layer (simulator node or runtime thread) drains the outbox
/// and performs the actual sends.
#[derive(Debug, Clone)]
pub struct Outbox<M> {
    msgs: Vec<(ProcessId, M)>,
    n: usize,
}

impl<M> Outbox<M> {
    /// Creates an outbox for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        Outbox {
            msgs: Vec::new(),
            n,
        }
    }

    /// Number of processes in the system.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Queues `msg` for `to` (possibly the sender itself).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Queues a copy of `msg` for every process, including the sender:
    /// `n - 1` clones, and the last process gets `msg` itself.
    pub fn send_all(&mut self, msg: M)
    where
        M: Clone,
    {
        let Some(last) = self.n.checked_sub(1) else {
            return;
        };
        for p in 0..last {
            self.msgs.push((ProcessId::new(p as u32), msg.clone()));
        }
        self.msgs.push((ProcessId::new(last as u32), msg));
    }

    /// Drains the queued messages.
    pub fn drain(&mut self) -> Vec<(ProcessId, M)> {
        std::mem::take(&mut self.msgs)
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// Group-commit tuning for broadcasts that support batched stamping.
///
/// A stamping endpoint (the fixed sequencer, a view leader, or a shard
/// channel's sequencer) assigns every submission its stamp *at arrival* —
/// so the agreed order is byte-identical to the unbatched protocol — but
/// defers the fan-out, draining up to `max_batch` stamped items into one
/// `OrderedBatch` wire message. A partially filled batch is flushed at
/// most `max_delay_ns` after its first item was stamped (the group-commit
/// window). One wire frame (and thus one [`ReliableLink`] ack) covers the
/// whole batch.
///
/// `max_batch <= 1` disables batching entirely: every stamp fans out
/// immediately as a plain `Ordered` message, exactly the pre-batching
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush as soon as this many stamped items are pending.
    pub max_batch: usize,
    /// Flush a non-empty partial batch at most this long (virtual ns)
    /// after its first item was stamped.
    pub max_delay_ns: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        // Batching off: identical wire behaviour to the classic protocol.
        BatchConfig {
            max_batch: 1,
            max_delay_ns: 0,
        }
    }
}

impl BatchConfig {
    /// Whether this configuration actually batches.
    pub(crate) fn enabled(&self) -> bool {
        self.max_batch > 1
    }
}

/// Stamping-side batching counters: how many items an endpoint stamped
/// and how many wire flushes carried them. Occupancy = items / flushes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Items this endpoint stamped (as sequencer/leader).
    pub items_stamped: u64,
    /// Ordering fan-outs sent (single `Ordered` or one `OrderedBatch`).
    pub batches_flushed: u64,
}

impl BatchStats {
    /// Mean items per ordering fan-out (1.0 when batching is off).
    pub fn occupancy(&self) -> f64 {
        if self.batches_flushed == 0 {
            0.0
        } else {
            self.items_stamped as f64 / self.batches_flushed as f64
        }
    }

    /// Accumulates another endpoint's counters.
    pub fn merge(&mut self, other: &BatchStats) {
        self.items_stamped += other.items_stamped;
        self.batches_flushed += other.batches_flushed;
    }
}

/// What a stamping endpoint must put on the wire after a [`GroupCommit`]
/// step.
#[derive(Debug)]
pub(crate) enum Fanout<P> {
    /// Nothing: the payload joined the pending run, or no run expired.
    Hold,
    /// Batching is off: this stamp and payload alone, as a plain `Ordered`
    /// message.
    One(u64, P),
    /// A run of consecutively stamped payloads — `run[i]` carries stamp
    /// `first + i` — as one `OrderedBatch` frame.
    Run(u64, Vec<P>),
}

/// The group-commit state of one stamping endpoint: the stamped-but-
/// unflushed run, its flush deadline and the [`BatchStats`].
///
/// The state machines never read time themselves, so the window is armed
/// on the first tick after a partial run appeared: [`Self::next_deadline`]
/// asks the host for an immediate tick until then.
#[derive(Debug, Clone)]
pub(crate) struct GroupCommit<P> {
    cfg: BatchConfig,
    /// `run[i]` carries stamp `first + i` (consecutive by construction).
    run: Vec<P>,
    first: u64,
    /// Absolute flush time for the current partial run, once armed.
    deadline: Option<u64>,
    stats: BatchStats,
}

impl<P> GroupCommit<P> {
    /// Batching off, nothing pending.
    pub(crate) fn new() -> Self {
        GroupCommit {
            cfg: BatchConfig::default(),
            run: Vec::new(),
            first: 0,
            deadline: None,
            stats: BatchStats::default(),
        }
    }

    /// Installs the batching configuration; call before any traffic.
    pub(crate) fn configure(&mut self, cfg: BatchConfig) {
        self.cfg = cfg;
    }

    pub(crate) fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Takes a freshly stamped payload. The stamp is already fixed, so
    /// whenever the run flushes the agreed order is unaffected.
    pub(crate) fn push(&mut self, stamp: u64, payload: P) -> Fanout<P> {
        self.stats.items_stamped += 1;
        if !self.cfg.enabled() {
            self.stats.batches_flushed += 1;
            return Fanout::One(stamp, payload);
        }
        if self.run.is_empty() {
            self.first = stamp;
        }
        self.run.push(payload);
        if self.run.len() >= self.cfg.max_batch {
            self.flush()
        } else {
            Fanout::Hold
        }
    }

    fn flush(&mut self) -> Fanout<P> {
        self.deadline = None;
        self.stats.batches_flushed += 1;
        Fanout::Run(self.first, std::mem::take(&mut self.run))
    }

    /// When the pending run wants a tick, given the last time observed.
    pub(crate) fn next_deadline(&self, now: u64) -> Option<u64> {
        (!self.run.is_empty()).then(|| self.deadline.unwrap_or_else(|| now.saturating_add(1)))
    }

    /// Arms the window of a new partial run, or flushes an expired one.
    pub(crate) fn on_tick(&mut self, now: u64) -> Fanout<P> {
        if self.run.is_empty() {
            return Fanout::Hold;
        }
        let window_end = now.saturating_add(self.cfg.max_delay_ns);
        if now >= *self.deadline.get_or_insert(window_end) {
            self.flush()
        } else {
            Fanout::Hold
        }
    }

    /// Drops the pending run (restart, view change): stamped-but-unflushed
    /// items die like in-flight wire frames would have.
    pub(crate) fn clear(&mut self) {
        self.run.clear();
        self.deadline = None;
    }
}

/// One delivered broadcast item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<T> {
    /// The process that broadcast the item.
    pub origin: ProcessId,
    /// Position of this item in the (agreed) global delivery order, counted
    /// locally: the k-th delivery at every process carries `global_seq = k`.
    pub global_seq: u64,
    /// The broadcast payload.
    pub item: T,
}

/// An atomic broadcast endpoint for one process.
///
/// Implementations are deterministic state machines; drive them with
/// [`Abcast::broadcast`] and [`Abcast::on_message`], then collect
/// [`Abcast::drain_delivered`] after each step.
pub trait Abcast<T> {
    /// Wire message type.
    type Msg: Clone + fmt::Debug;

    /// Creates the endpoint for process `me` in a system of `n` processes.
    fn new(me: ProcessId, n: usize) -> Self;

    /// Atomically broadcasts `item` to all processes (including `me`).
    fn broadcast(&mut self, item: T, out: &mut Outbox<Self::Msg>);

    /// Feeds an incoming protocol message.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>);

    /// Removes and returns items that became deliverable, in delivery
    /// order.
    fn drain_delivered(&mut self) -> Vec<Delivery<T>>;

    /// Number of items this endpoint has delivered so far.
    fn delivered_count(&self) -> u64;

    /// The earliest absolute time (ns) at which this endpoint wants
    /// [`Abcast::on_tick`] called, or `None` if it has no timed work.
    /// Protocols without failover timers never request ticks.
    fn next_deadline(&self) -> Option<u64> {
        None
    }

    /// Advances the endpoint's notion of time and fires any expired
    /// internal deadlines (e.g. crash-suspicion timeouts). Hosts call
    /// this when the deadline from [`Abcast::next_deadline`] is due; an
    /// early call is a harmless no-op.
    fn on_tick(&mut self, _now_ns: u64, _out: &mut Outbox<Self::Msg>) {}

    /// The hosting process restarted after a crash. Endpoints that
    /// cannot prove their volatile ordering state survived must react
    /// (halt, rejoin as a follower, …); the default assumes nothing is
    /// needed.
    fn on_restart(&mut self, _now_ns: u64, _out: &mut Outbox<Self::Msg>) {}

    /// Overrides the endpoint's failover timeouts (suspicion base and
    /// cap, in ns). A no-op for protocols without failover machinery.
    fn set_failover_timeouts(&mut self, _base_ns: u64, _max_ns: u64) {}

    /// Installs a certified shard partition ([`moc_core::shard::ShardPlan`]).
    /// Only conflict-sharded implementations ([`ShardedAbcast`]) react;
    /// single-order protocols ignore it. Must be called uniformly on every
    /// endpoint before any traffic flows.
    fn set_shard_plan(&mut self, _plan: moc_core::shard::ShardPlan) {}

    /// Installs the delivery-time view of a certified commutativity
    /// analysis ([`moc_core::commute::CommutePlan`]). Only the
    /// conflict-sharded implementation reacts: cross-shard items skip the
    /// barrier frontiers of shards they provably commute with, and items
    /// with an empty write footprint self-deliver without sequencer
    /// stamping. Must be installed uniformly before any traffic flows;
    /// soundness is exactly the certificate's — install only plans
    /// derived from an audited `moc-commute-cert`.
    fn set_commute_plan(&mut self, _plan: moc_core::commute::CommutePlan) {}

    /// How many deliveries so far bypassed an ordering wait via the
    /// commute plan (zero for protocols without the fast path).
    fn commute_fast_applied(&self) -> u64 {
        0
    }

    /// For multi-channel (sharded) implementations: the ordering channel
    /// each delivery so far came from, aligned with the cumulative
    /// delivery order. `None` means the protocol has a single global
    /// channel, so cross-replica delivery logs must be identical.
    fn delivery_channels(&self) -> Option<Vec<u32>> {
        None
    }

    /// The index of the replica-private pseudo-channel carrying read-only
    /// fast-path self-deliveries, if this implementation has one *armed*
    /// (a commute plan installed). Entries on this channel never cross
    /// the wire, so they legitimately differ across replicas — but every
    /// one of them must be locally issued and write-free, which harnesses
    /// verify instead of comparing the channel for equality.
    fn private_channel(&self) -> Option<u32> {
        None
    }

    /// Installs a group-commit batching configuration ([`BatchConfig`]).
    /// Only stamping protocols with a batched fan-out react; the default
    /// ignores it. Stamps are still assigned at submission arrival, so
    /// the agreed delivery order is unchanged at any batch size. Must be
    /// installed uniformly before any traffic flows.
    fn set_batching(&mut self, _cfg: BatchConfig) {}

    /// Stamping-side batching counters for this endpoint (zeros for
    /// protocols without batched stamping, and for pure followers).
    fn batch_stats(&self) -> BatchStats {
        BatchStats::default()
    }

    /// A deterministic, human-readable log of view/configuration changes
    /// this endpoint went through. Empty for static protocols.
    fn transcript(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Test support: hosts any [`Abcast`] implementation on the simulator and
/// checks the broadcast properties (validity, integrity, total order)
/// under randomized schedules. Public so property tests and downstream
/// crates can reuse it; not part of the stable API surface.
#[doc(hidden)]
pub mod testkit {

    use super::*;
    use moc_sim::{Context, DelayModel, NetworkConfig, Node, World};

    pub(crate) struct AbcastNode<A: Abcast<u64>> {
        pub inner: A,
        pub delivered: Vec<(ProcessId, u64)>,
        n: usize,
    }

    impl<A: Abcast<u64>> AbcastNode<A> {
        pub fn new(me: ProcessId, n: usize) -> Self {
            AbcastNode {
                inner: A::new(me, n),
                delivered: Vec::new(),
                n,
            }
        }

        fn drain(&mut self) {
            for d in self.inner.drain_delivered() {
                self.delivered.push((d.origin, d.item));
            }
        }

        pub fn submit(&mut self, item: u64, ctx: &mut Context<'_, A::Msg>) {
            let mut out = Outbox::new(self.n);
            self.inner.broadcast(item, &mut out);
            for (to, m) in out.drain() {
                ctx.send(to, m);
            }
            self.drain();
        }
    }

    impl<A: Abcast<u64>> Node for AbcastNode<A> {
        type Msg = A::Msg;
        fn on_message(&mut self, from: ProcessId, msg: A::Msg, ctx: &mut Context<'_, A::Msg>) {
            let mut out = Outbox::new(self.n);
            self.inner.on_message(from, msg, &mut out);
            for (to, m) in out.drain() {
                ctx.send(to, m);
            }
            self.drain();
        }
    }

    /// Runs `k` broadcasts from every one of `n` processes under the given
    /// delay model and asserts validity, integrity and total order.
    pub fn check_properties<A: Abcast<u64> + 'static>(
        n: usize,
        k: u64,
        delay: DelayModel,
        seed: u64,
    ) {
        let nodes: Vec<AbcastNode<A>> = (0..n)
            .map(|p| AbcastNode::new(ProcessId::new(p as u32), n))
            .collect();
        let mut world = World::new(nodes, NetworkConfig::with_delay(delay), seed);
        for p in 0..n {
            for i in 0..k {
                let item = (p as u64) * 1_000 + i;
                // Spread submissions over time so they interleave.
                world.schedule_call(
                    i * 37 + p as u64,
                    ProcessId::new(p as u32),
                    move |node, ctx| {
                        node.submit(item, ctx);
                    },
                );
            }
        }
        world.run_until_quiescent(5_000_000);
        let nodes = world.into_nodes();
        let reference = &nodes[0].delivered;
        // Validity + integrity: everything delivered exactly once.
        assert_eq!(reference.len(), n * k as usize, "validity");
        let mut items: Vec<u64> = reference.iter().map(|&(_, i)| i).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), n * k as usize, "integrity");
        // Total order: every process delivered the identical sequence.
        for node in &nodes[1..] {
            assert_eq!(&node.delivered, reference, "total order");
        }
    }

    /// Closed-loop submission, as the Section 5 protocols use abcast: each
    /// process broadcasts its next item only after its previous one was
    /// delivered locally (the m-operation's response event). Under this
    /// regime per-sender FIFO is guaranteed; assert it along with the
    /// three broadcast properties.
    pub fn check_closed_loop_fifo<A: Abcast<u64> + 'static>(
        n: usize,
        k: u64,
        delay: DelayModel,
        seed: u64,
    ) {
        struct Closed<A: Abcast<u64>> {
            node: AbcastNode<A>,
            submitted: u64,
            budget: u64,
            me: ProcessId,
        }
        impl<A: Abcast<u64>> Closed<A> {
            fn maybe_submit(&mut self, ctx: &mut Context<'_, A::Msg>) {
                let own_delivered = self
                    .node
                    .delivered
                    .iter()
                    .filter(|&&(o, _)| o == self.me)
                    .count() as u64;
                if self.submitted < self.budget && own_delivered == self.submitted {
                    let item = self.me.as_u32() as u64 * 1_000 + self.submitted;
                    self.submitted += 1;
                    self.node.submit(item, ctx);
                }
            }
        }
        impl<A: Abcast<u64>> Node for Closed<A> {
            type Msg = A::Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
                self.maybe_submit(ctx);
            }
            fn on_message(&mut self, from: ProcessId, msg: A::Msg, ctx: &mut Context<'_, A::Msg>) {
                self.node.on_message(from, msg, ctx);
                self.maybe_submit(ctx);
            }
        }
        let nodes: Vec<Closed<A>> = (0..n)
            .map(|p| Closed {
                node: AbcastNode::new(ProcessId::new(p as u32), n),
                submitted: 0,
                budget: k,
                me: ProcessId::new(p as u32),
            })
            .collect();
        let mut world = World::new(nodes, NetworkConfig::with_delay(delay), seed);
        world.run_until_quiescent(5_000_000);
        let nodes = world.into_nodes();
        let reference = &nodes[0].node.delivered;
        assert_eq!(reference.len(), n * k as usize, "validity");
        for c in &nodes[1..] {
            assert_eq!(&c.node.delivered, reference, "total order");
        }
        for p in 0..n as u64 {
            let per: Vec<u64> = reference
                .iter()
                .filter(|&&(o, _)| o.index() as u64 == p)
                .map(|&(_, i)| i)
                .collect();
            let mut sorted = per.clone();
            sorted.sort_unstable();
            assert_eq!(per, sorted, "per-sender FIFO for P{p} under closed loop");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::check_properties;
    use super::*;
    use moc_sim::DelayModel;

    #[test]
    fn sequencer_properties_fifo_network() {
        check_properties::<SequencerAbcast<u64>>(3, 5, DelayModel::Fixed(100), 1);
    }

    #[test]
    fn sequencer_properties_reordering_network() {
        for seed in 0..8 {
            check_properties::<SequencerAbcast<u64>>(
                4,
                6,
                DelayModel::Uniform { lo: 10, hi: 20_000 },
                seed,
            );
        }
    }

    #[test]
    fn sequencer_properties_heavy_tail() {
        check_properties::<SequencerAbcast<u64>>(5, 4, DelayModel::Exponential { mean: 2_000 }, 9);
    }

    #[test]
    fn isis_properties_fifo_network() {
        check_properties::<IsisAbcast<u64>>(3, 5, DelayModel::Fixed(100), 1);
    }

    #[test]
    fn isis_properties_reordering_network() {
        for seed in 0..8 {
            check_properties::<IsisAbcast<u64>>(
                4,
                6,
                DelayModel::Uniform { lo: 10, hi: 20_000 },
                seed,
            );
        }
    }

    #[test]
    fn isis_properties_heavy_tail() {
        check_properties::<IsisAbcast<u64>>(5, 4, DelayModel::Exponential { mean: 2_000 }, 9);
    }

    #[test]
    fn isis_single_process_degenerate() {
        check_properties::<IsisAbcast<u64>>(1, 10, DelayModel::Fixed(5), 2);
    }

    #[test]
    fn sequencer_single_process_degenerate() {
        check_properties::<SequencerAbcast<u64>>(1, 10, DelayModel::Fixed(5), 2);
    }

    #[test]
    fn sequencer_closed_loop_fifo() {
        for seed in 0..4 {
            super::testkit::check_closed_loop_fifo::<SequencerAbcast<u64>>(
                4,
                5,
                DelayModel::Uniform { lo: 10, hi: 50_000 },
                seed,
            );
        }
    }

    #[test]
    fn isis_closed_loop_fifo() {
        for seed in 0..4 {
            super::testkit::check_closed_loop_fifo::<IsisAbcast<u64>>(
                4,
                5,
                DelayModel::Uniform { lo: 10, hi: 50_000 },
                seed,
            );
        }
    }

    #[test]
    fn view_properties_fifo_network() {
        check_properties::<ViewAbcast<u64>>(3, 5, DelayModel::Fixed(100), 1);
    }

    #[test]
    fn view_properties_reordering_network() {
        for seed in 0..8 {
            check_properties::<ViewAbcast<u64>>(
                4,
                6,
                DelayModel::Uniform { lo: 10, hi: 20_000 },
                seed,
            );
        }
    }

    #[test]
    fn view_properties_heavy_tail() {
        check_properties::<ViewAbcast<u64>>(5, 4, DelayModel::Exponential { mean: 2_000 }, 9);
    }

    #[test]
    fn view_single_process_degenerate() {
        check_properties::<ViewAbcast<u64>>(1, 10, DelayModel::Fixed(5), 2);
    }

    #[test]
    fn view_closed_loop_fifo() {
        for seed in 0..4 {
            super::testkit::check_closed_loop_fifo::<ViewAbcast<u64>>(
                4,
                5,
                DelayModel::Uniform { lo: 10, hi: 50_000 },
                seed,
            );
        }
    }

    #[test]
    fn outbox_send_all_covers_every_process() {
        let mut out: Outbox<u8> = Outbox::new(3);
        assert!(out.is_empty());
        out.send_all(7);
        assert_eq!(out.len(), 3);
        let msgs = out.drain();
        let tos: Vec<u32> = msgs.iter().map(|(p, _)| p.as_u32()).collect();
        assert_eq!(tos, vec![0, 1, 2]);
        assert!(out.is_empty());
    }
}
