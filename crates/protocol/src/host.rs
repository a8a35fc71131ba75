//! The replica host: everything between "a client hands over a program"
//! and "a record enters the history", written once.
//!
//! [`ReplicaHost`] is as pure as the Section 5 replica it wraps. Inputs
//! are a submission, a frame off the wire, a tick or a restart, each with
//! the caller's clock reading, then [`ReplicaHost::settle`] with the clock
//! itself; outputs are three queues the driver drains: `wire`, `retired`
//! and `monitor_feed`. The stages an m-operation meets:
//!
//! 1. **admit** — id, invocation stamp, classification, then the gate:
//!    *updates pipeline, queries drain*. An invocation runs while earlier
//!    ones of its process are in flight only if it and all of them are
//!    updates, so a query observes the process's own earlier writes even
//!    under Figure 4's local queries. Pipelined updates are stamped in
//!    program order only over a per-sender FIFO channel: the link's
//!    contract, or a trusted channel that is FIFO by construction (the
//!    runtime's inboxes). On a trusted, reordering channel (the
//!    simulator's) the driver keeps one m-operation in flight per process.
//! 2. **submit / deliver / apply** — the replica's own actions.
//! 3. **stash** — a completion that answers the oldest pending invocation,
//!    with nothing stashed, retires at once: over a FIFO channel that is
//!    every completion. Only one that overtakes an earlier invocation
//!    waits, keyed by id, until the earlier ones retire.
//! 4. **retire** — strictly FIFO. The *recorded* interval is clamped to
//!    follow the previous retirement (the model's processes are
//!    sequential); the true times travel alongside in [`Retired`].
//! 5. **record / monitor feed** — the one place an [`MOpRecord`] is
//!    built. A completion nobody waits for (a double-applied frame past a
//!    sabotaged link) is an *orphan*: counted, fed to the sentinel, never
//!    recorded.
//!
//! Drivers supply clock, wire and client: the simulator node of
//! [`crate::harness`] (virtual time; the trusted channel, or a reliable
//! link over a faulty wire, as [`crate::ClusterConfig::link`] picks;
//! scripted client), the `moc-mc`
//! explorer (the step index as clock, trusted channel, every interleaving
//! of its frames; the host is cloned at each branch) and the
//! `moc-runtime` replica thread (wall clock, the peers' inboxes, reply
//! channels; the trusted channel unless the network loses, duplicates or
//! delays frames).
//!
//! The trusted channel (`link: None`) puts each message on the wire as it
//! is, unnumbered: nothing is acknowledged, retransmitted or deduplicated,
//! and only the broadcast's own deadlines (group-commit flush, failover
//! suspicion) call for a tick. [`ReplicaHost::link_stats`] still counts the
//! data frames sent and received there, so frames per operation read the
//! same way on both channels.
//!
//! How many inputs a settle covers is the driver's choice. The simulator
//! node settles after each one. The replica thread feeds everything that
//! arrived while it was busy and settles once, which is its normal case
//! under load: per-sender FIFO and stamp-at-arrival do not depend on when
//! the outputs leave, and acknowledgements are cumulative, so a settle
//! puts one per peer on the wire ([`ReliableLink::coalesce_acks`]) however
//! many frames of that peer were fed. When the broadcast batches (group
//! commit, [`OrderingSetup::batching`]) the same holds for data, on either
//! channel: whatever a settle sends one peer leaves as one frame, a run of
//! consecutive stream positions ([`LinkMsg::Run`]; on the trusted channel
//! the positions are unused), so sixteen pipelined submissions reach the
//! sequencer in one frame and are stamped in the order they were sent. A
//! settle that sends a peer one message sends it a plain [`LinkMsg::Data`].
//! Without batching every message is its own frame, so the unbatched
//! stack's data-frame count does not depend on how its inputs fall into
//! wake-ups.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use moc_abcast::{BatchConfig, LinkConfig, LinkMsg, LinkStats, Outbox, ReliableLink};
use moc_core::commute::CommutePlan;
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpRecord};
use moc_core::program::Program;
use moc_core::shard::ShardPlan;
use moc_core::value::Value;
use moc_monitor::OnlineMonitor;

use crate::{Completion, MOperation, ReplicaProtocol};

/// Counters describing one host's invocation pipeline: how deep the
/// in-flight window got, how long admissions waited behind the
/// read-your-writes gate, and whether anything went unclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Invocations accepted by the host.
    pub invocations: u64,
    /// Invocations retired (reply generated).
    pub retired: u64,
    /// Peak of admitted-but-uncompleted plus gate-queued invocations.
    pub peak_depth: u64,
    /// Completions that overtook an earlier invocation of the same
    /// process: each waited in the stash until that one finished, so
    /// retirement stays strictly FIFO. Completions that answer the oldest
    /// invocation retire at once and do not count.
    pub out_of_order_completions: u64,
    /// Total time invocations spent queued behind the admission gate
    /// before reaching the protocol.
    pub queue_residency_ns: u64,
    /// Replies whose client had gone away by retirement. A healthy
    /// harness never drops one.
    pub dropped_replies: u64,
    /// Completions with no pending invocation, or a second completion of
    /// one: a frame applied twice. The healthy stack never produces one.
    pub orphan_completions: u64,
}

impl PipelineMetrics {
    /// Combines counters from two replicas: sums, except `peak_depth`,
    /// which takes the max.
    pub fn merge(&mut self, other: &PipelineMetrics) {
        self.invocations += other.invocations;
        self.retired += other.retired;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.out_of_order_completions += other.out_of_order_completions;
        self.queue_residency_ns += other.queue_residency_ns;
        self.dropped_replies += other.dropped_replies;
        self.orphan_completions += other.orphan_completions;
    }
}

/// A finished m-operation leaving the host.
#[derive(Debug, Clone)]
pub struct Retired<T> {
    /// The history record, with the recorded (clamped) times.
    pub record: MOpRecord,
    /// True invocation time (the clock reading passed to `submit`).
    pub invoked_at: EventTime,
    /// True response time (read from `settle`'s clock at retirement).
    pub responded_at: EventTime,
    /// Whatever the driver attached at submission.
    pub token: T,
}

/// One observation for an online sentinel, in stream order.
#[derive(Debug, Clone)]
pub enum MonitorEvent {
    /// An invocation event at the given time (ns).
    Invoke(MOpId, u64),
    /// A response event — or an orphan completion — at the given time.
    Complete(Box<MOpRecord>, u64),
}

impl MonitorEvent {
    /// The event's time, ns.
    pub fn at_ns(&self) -> u64 {
        match self {
            MonitorEvent::Invoke(_, at) | MonitorEvent::Complete(_, at) => *at,
        }
    }

    /// Streams the event into `monitor`.
    pub fn apply(self, monitor: &mut OnlineMonitor) {
        match self {
            MonitorEvent::Invoke(id, at) => monitor.on_invoke(id, at),
            MonitorEvent::Complete(record, at) => {
                monitor.on_complete(*record, at);
            }
        }
    }
}

/// Broadcast tuning installed on the replica before any traffic. Every
/// field is ignored by broadcasts without the matching machinery.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrderingSetup<'a> {
    /// Failover suspicion timeouts `(base_ns, max_ns)`.
    pub failover_timeouts: Option<(u64, u64)>,
    /// A certified shard partition.
    pub shard_plan: Option<&'a ShardPlan>,
    /// A commute certificate's delivery plan.
    pub commute_plan: Option<&'a CommutePlan>,
    /// Group-commit batching.
    pub batching: Option<BatchConfig>,
}

/// An invocation on its way through the pipeline.
#[derive(Clone)]
struct Inflight<T> {
    id: MOpId,
    is_update: bool,
    invoked_at: EventTime,
    token: T,
}

/// One process's replica, its invocation pipeline and its end of the
/// channel (see the module docs). `T` is the driver's per-invocation
/// token, returned in [`Retired`].
///
/// Input methods only queue work. Call [`ReplicaHost::settle`] after
/// every input or batch of inputs, then drain the output queues.
#[derive(Clone)]
pub struct ReplicaHost<R: ReplicaProtocol, T> {
    me: ProcessId,
    replica: R,
    /// `None` is the trusted channel: frames pass unnumbered and are never
    /// acked or retransmitted; only the broadcast's deadlines tick the host.
    link: Option<ReliableLink<R::Msg>>,
    /// The trusted channel's frame counts (data frames sent and received,
    /// payloads delivered). A link keeps its own.
    trusted: LinkStats,
    next_seq: u32,
    /// Invocations the gate has not yet let through, in invocation order.
    admission: VecDeque<(MOperation, Inflight<T>)>,
    /// Invocations handed to the protocol, in invocation (FIFO) order.
    pending: VecDeque<Inflight<T>>,
    /// Completions waiting for earlier invocations to retire.
    stash: HashMap<MOpId, Completion>,
    /// High-water mark of recorded response times.
    last_retired: EventTime,
    metrics: PipelineMetrics,
    monitored: bool,
    out: Outbox<R::Msg>,
    /// Frames what a settle sends as one run per peer; `None` unless the
    /// broadcast batches.
    runs: Option<RunFramer<R::Msg>>,
    /// Frames to put on the wire, in send order.
    pub wire: Vec<(ProcessId, LinkMsg<R::Msg>)>,
    /// M-operations retired since the driver last drained, FIFO.
    pub retired: Vec<Retired<T>>,
    /// Sentinel observations since the driver last drained; stays empty
    /// unless the host was built `monitored`.
    pub monitor_feed: Vec<MonitorEvent>,
}

impl<R: ReplicaProtocol, T> ReplicaHost<R, T> {
    /// Hosts a fresh `R::new(me, n, num_objects)` with `setup` installed
    /// on its broadcast, behind a [`ReliableLink`] tuned by `link` (or on
    /// the trusted channel when `None`).
    pub fn new(
        me: ProcessId,
        n: usize,
        num_objects: usize,
        link: Option<LinkConfig>,
        setup: &OrderingSetup<'_>,
        monitored: bool,
    ) -> Self {
        let mut replica = R::new(me, n, num_objects);
        if let Some((base, max)) = setup.failover_timeouts {
            replica.set_failover_timeouts(base, max);
        }
        if let Some(plan) = setup.shard_plan {
            replica.set_shard_plan(plan.clone());
        }
        if let Some(plan) = setup.commute_plan {
            replica.set_commute_plan(plan.clone());
        }
        if let Some(cfg) = setup.batching {
            replica.set_batching(cfg);
        }
        ReplicaHost {
            me,
            replica,
            link: link.map(|cfg| ReliableLink::new(me, n, cfg)),
            trusted: LinkStats::default(),
            next_seq: 0,
            admission: VecDeque::new(),
            pending: VecDeque::new(),
            stash: HashMap::new(),
            last_retired: EventTime::ZERO,
            metrics: PipelineMetrics::default(),
            monitored,
            out: Outbox::new(n),
            runs: setup.batching.map(|_| RunFramer::new(n)),
            wire: Vec::new(),
            retired: Vec::new(),
            monitor_feed: Vec::new(),
        }
    }

    /// The hosted replica.
    pub fn replica(&self) -> &R {
        &self.replica
    }

    /// Pipeline counters so far.
    pub fn metrics(&self) -> PipelineMetrics {
        self.metrics
    }

    /// The link endpoint's transport counters. On the trusted channel only
    /// the data frames and the payloads they delivered count; nothing is
    /// acknowledged, retransmitted or discarded there.
    pub fn link_stats(&self) -> LinkStats {
        self.link.as_ref().map_or(self.trusted, |l| l.stats())
    }

    /// Invocations submitted but not yet retired.
    pub fn in_flight(&self) -> usize {
        self.admission.len() + self.pending.len()
    }

    /// Earliest absolute time (ns) at which [`ReplicaHost::on_tick`] has
    /// something to do: the link's retransmission or the broadcast's
    /// suspicion / group-commit deadline, whichever first.
    pub fn next_deadline(&self) -> Option<u64> {
        match (
            self.link.as_ref().and_then(|l| l.next_deadline()),
            self.replica.abcast_deadline(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The invocation event: `program(args)` becomes this process's next
    /// m-operation, stamped `now`. It reaches the protocol once the gate
    /// opens, in [`ReplicaHost::settle`].
    pub fn submit(&mut self, program: Arc<Program>, args: Vec<Value>, token: T, now: EventTime) {
        let id = MOpId::new(self.me, self.next_seq);
        self.next_seq += 1;
        if self.monitored {
            self.monitor_feed
                .push(MonitorEvent::Invoke(id, now.as_nanos()));
        }
        let mop = MOperation::new(id, program, args);
        let inflight = Inflight {
            id,
            is_update: mop.is_update(),
            invoked_at: now,
            token,
        };
        self.admission.push_back((mop, inflight));
        self.metrics.invocations += 1;
        self.metrics.peak_depth = self.metrics.peak_depth.max(self.in_flight() as u64);
    }

    /// A frame arrives off the wire.
    pub fn on_wire(&mut self, from: ProcessId, frame: LinkMsg<R::Msg>, now: EventTime) {
        let mut deliver = |m| self.replica.on_message(from, m, &mut self.out);
        let Some(link) = &mut self.link else {
            // The trusted channel: each frame arrives once, its payloads
            // in the order they were sent.
            match frame {
                LinkMsg::Data { payload, .. } => {
                    self.trusted.data_received += 1;
                    self.trusted.delivered += 1;
                    deliver(payload);
                }
                LinkMsg::Run { payloads, .. } => {
                    self.trusted.data_received += 1;
                    self.trusted.delivered += payloads.len() as u64;
                    payloads.into_iter().for_each(deliver);
                }
                _ => {}
            }
            return;
        };
        for m in link.on_wire(from, frame, now.as_nanos(), &mut self.wire) {
            deliver(m);
        }
    }

    /// A deadline was reached: runs both tick hooks (each only acts on
    /// deadlines that are actually due).
    pub fn on_tick(&mut self, now: EventTime) {
        if let Some(link) = &mut self.link {
            link.on_tick(now.as_nanos(), &mut self.wire);
        }
        self.replica.on_abcast_tick(now.as_nanos(), &mut self.out);
    }

    /// The hosting process came back from a crash: the link's rejoin
    /// handshake recovers in-flight traffic, and the broadcast reacts to
    /// its own outage.
    pub(crate) fn on_restart(&mut self, now: EventTime) {
        if let Some(link) = &mut self.link {
            link.on_restart(now.as_nanos(), &mut self.wire);
        }
        self.replica
            .on_abcast_restart(now.as_nanos(), &mut self.out);
    }

    /// Retires completions and admits queued invocations until neither
    /// makes progress — admission can complete synchronously (a local
    /// query) and retirement can open the gate for the next admission —
    /// then frames everything the replica wants sent — one frame per peer
    /// when the broadcast batches ([`ReliableLink::send_run`] behind a
    /// link), one per message otherwise — and, behind a link, folds the
    /// acknowledgements of the inputs fed since the last settle into one
    /// per peer.
    ///
    /// Takes the clock rather than a reading: a response event is stamped
    /// after the completion it answers was collected from the replica.
    pub fn settle(&mut self, clock: &impl Fn() -> EventTime) {
        loop {
            let mut progress = false;
            for c in self.replica.drain_completions() {
                progress = true;
                // On a FIFO channel each completion answers the oldest
                // invocation, with nothing stashed ahead of it.
                if self.stash.is_empty() && self.pending.front().is_some_and(|p| p.id == c.id) {
                    self.retire_front(c, clock);
                    continue;
                }
                let in_pipeline = self.pending.iter().any(|p| p.id == c.id);
                if !in_pipeline || self.stash.contains_key(&c.id) {
                    self.metrics.orphan_completions += 1;
                    if self.monitored {
                        // A re-completion of a settled id latches the
                        // sentinel's duplicate-completion violation.
                        let at = clock();
                        let record = Box::new(c.into_record(at, at));
                        self.monitor_feed
                            .push(MonitorEvent::Complete(record, at.as_nanos()));
                    }
                    continue;
                }
                if self.pending.front().is_some_and(|p| p.id != c.id) {
                    self.metrics.out_of_order_completions += 1;
                }
                self.stash.insert(c.id, c);
            }
            while let Some(front) = self.pending.front() {
                let Some(c) = self.stash.remove(&front.id) else {
                    break;
                };
                progress = true;
                self.retire_front(c, clock);
            }
            // The gate: an invocation joins in-flight ones only if it and
            // they are updates. A query is only ever admitted alone, so
            // the newest pending invocation speaks for all of them.
            while let Some((_, head)) = self.admission.front() {
                let shut = |last: &Inflight<T>| !(head.is_update && last.is_update);
                if self.pending.back().is_some_and(shut) {
                    break;
                }
                let (mop, inflight) = self.admission.pop_front().expect("head exists");
                progress = true;
                self.metrics.queue_residency_ns += clock()
                    .as_nanos()
                    .saturating_sub(inflight.invoked_at.as_nanos());
                self.pending.push_back(inflight);
                self.replica.invoke(mop, &mut self.out);
            }
            if !progress {
                break;
            }
        }
        let (link, trusted, wire) = (&mut self.link, &mut self.trusted, &mut self.wire);
        let mut send = |to, batch: Batch<R::Msg>| match (link.as_mut(), batch) {
            (Some(link), Batch::One(m)) => link.send(to, m, clock().as_nanos(), wire),
            (Some(link), Batch::Run(ms)) => link.send_run(to, ms, clock().as_nanos(), wire),
            (None, batch) => {
                trusted.data_sent += 1;
                wire.push((to, batch.unnumbered()));
            }
        };
        let msgs = self.out.drain();
        match &mut self.runs {
            Some(runs) => runs.frame(msgs, send),
            None => msgs.into_iter().for_each(|(to, m)| send(to, Batch::One(m))),
        }
        if let Some(link) = &mut self.link {
            // Acknowledge once per peer, however many of its frames were fed.
            link.coalesce_acks(&mut self.wire);
        }
    }

    /// Retires the oldest pending invocation, which `c` answers: clamps
    /// its recorded interval after the previous retirement, builds the
    /// record, feeds the sentinel and queues the [`Retired`].
    fn retire_front(&mut self, c: Completion, clock: &impl Fn() -> EventTime) {
        let p = self.pending.pop_front().expect("c answers the front");
        debug_assert_eq!(p.id, c.id);
        let responded_at = clock();
        let invoked_rec = p.invoked_at.max(self.last_retired);
        let responded_rec = responded_at.max(invoked_rec);
        self.last_retired = responded_rec;
        let record = c.into_record(invoked_rec, responded_rec);
        if self.monitored {
            self.monitor_feed.push(MonitorEvent::Complete(
                Box::new(record.clone()),
                responded_rec.as_nanos(),
            ));
        }
        self.metrics.retired += 1;
        self.retired.push(Retired {
            record,
            invoked_at: p.invoked_at,
            responded_at,
            token: p.token,
        });
    }
}

/// What one settle sends one peer in one frame.
enum Batch<M> {
    /// A lone message, framed as [`LinkMsg::Data`].
    One(M),
    /// Several, in send order, framed as one [`LinkMsg::Run`].
    Run(Vec<M>),
}

impl<M> Batch<M> {
    /// The frame on the trusted channel, which numbers no stream positions.
    fn unnumbered(self) -> LinkMsg<M> {
        match self {
            Batch::One(payload) => LinkMsg::Data { seq: 0, payload },
            Batch::Run(payloads) => LinkMsg::Run {
                first_seq: 0,
                payloads,
            },
        }
    }
}

/// Groups what one settle sends into one frame per peer, on either
/// channel. The buckets stay allocated between settles, so a settle that
/// sends each peer a single message allocates nothing here.
#[derive(Clone)]
struct RunFramer<M> {
    /// `by_peer[q]`: the messages for `q`, in send order.
    by_peer: Vec<Vec<M>>,
    /// The peers with a non-empty bucket, in the order each first appears.
    order: Vec<ProcessId>,
}

impl<M> RunFramer<M> {
    fn new(n: usize) -> Self {
        RunFramer {
            by_peer: (0..n).map(|_| Vec::new()).collect(),
            order: Vec::with_capacity(n),
        }
    }

    /// Hands `send` everything `msgs` holds for one peer as one batch, the
    /// peers in the order each first appears.
    fn frame(&mut self, msgs: Vec<(ProcessId, M)>, mut send: impl FnMut(ProcessId, Batch<M>)) {
        for (to, m) in msgs {
            let run = &mut self.by_peer[to.index()];
            if run.is_empty() {
                self.order.push(to);
            }
            run.push(m);
        }
        for to in self.order.drain(..) {
            let run = &mut self.by_peer[to.index()];
            if run.len() == 1 {
                // The bucket keeps its buffer for next time.
                send(to, Batch::One(run.pop().expect("one message")));
            } else {
                send(to, Batch::Run(std::mem::take(run)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MscOverSequencer, ProtocolMsg};
    use moc_checker::conditions::{check, Condition, Strategy as CheckStrategy};
    use moc_core::history::History;
    use moc_core::ids::ObjectId;
    use moc_core::program::{arg, reg, ProgramBuilder};
    use moc_core::value::Versioned;
    use moc_monitor::MonitorConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const N: usize = 3;
    /// One private object per process plus one everybody writes.
    const OBJECTS: usize = N + 1;
    const SHARED: u32 = N as u32;

    type Msg = <MscOverSequencer as ReplicaProtocol>::Msg;

    /// Writes `arg(0)` to the process's own object and to the shared one.
    fn write_own(p: usize) -> Arc<Program> {
        let mut b = ProgramBuilder::new("w");
        b.write(ObjectId::new(p as u32), arg(0))
            .write(ObjectId::new(SHARED), arg(0))
            .ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    /// Reads the process's own object and the shared one.
    fn read_own(p: usize) -> Arc<Program> {
        let mut b = ProgramBuilder::new("r");
        b.read(ObjectId::new(p as u32), 0)
            .read(ObjectId::new(SHARED), 1)
            .ret(vec![reg(0), reg(1)]);
        Arc::new(b.build().unwrap())
    }

    /// Three hosts, each behind its link, wired back to back: every frame they emit sits
    /// in `inflight` until a seeded shuffle picks it (the link restores
    /// per-sender FIFO, which is what lets one process's updates be
    /// stamped in program order), and the virtual clock advances one
    /// tick per input. The token is the operation's index in its
    /// process's script. `feed_*` hands a host an input and leaves the
    /// settling to the caller; `submit` and `deliver_one` settle at once.
    struct Loopback {
        hosts: Vec<ReplicaHost<MscOverSequencer, usize>>,
        inflight: Vec<(ProcessId, ProcessId, LinkMsg<Msg>)>,
        rng: StdRng,
        now: u64,
        retired: Vec<Retired<usize>>,
        feed: Vec<MonitorEvent>,
    }

    impl Loopback {
        fn new(seed: u64, link: LinkConfig, monitored: bool) -> Self {
            let setup = OrderingSetup::default();
            Loopback {
                hosts: (0..N)
                    .map(|p| {
                        let me = ProcessId::new(p as u32);
                        ReplicaHost::new(me, N, OBJECTS, Some(link), &setup, monitored)
                    })
                    .collect(),
                inflight: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                now: 0,
                retired: Vec::new(),
                feed: Vec::new(),
            }
        }

        fn tick(&mut self) -> EventTime {
            self.now += 1;
            EventTime::from_nanos(self.now)
        }

        fn settle(&mut self, p: usize) {
            let host = &mut self.hosts[p];
            let now = EventTime::from_nanos(self.now);
            host.settle(&|| now);
            let from = host.me;
            self.inflight
                .extend(host.wire.drain(..).map(|(to, f)| (from, to, f)));
            self.retired.append(&mut host.retired);
            self.feed.append(&mut host.monitor_feed);
        }

        fn feed_submit(&mut self, p: usize, program: Arc<Program>, args: Vec<Value>, token: usize) {
            let now = self.tick();
            self.hosts[p].submit(program, args, token, now);
        }

        fn submit(&mut self, p: usize, program: Arc<Program>, args: Vec<Value>, token: usize) {
            self.feed_submit(p, program, args, token);
            self.settle(p);
        }

        /// Feeds one randomly chosen in-flight frame, if any, to its
        /// destination, which it returns.
        fn feed_frame(&mut self) -> Option<usize> {
            if self.inflight.is_empty() {
                return None;
            }
            let i = self.rng.gen_range(0..self.inflight.len());
            let (from, to, frame) = self.inflight.swap_remove(i);
            let now = self.tick();
            self.hosts[to.index()].on_wire(from, frame, now);
            Some(to.index())
        }

        /// Delivers one randomly chosen in-flight frame, if any.
        fn deliver_one(&mut self) -> bool {
            let fed = self.feed_frame();
            if let Some(to) = fed {
                self.settle(to);
            }
            fed.is_some()
        }
    }

    /// One scripted m-operation: an update writing `value`, or a query.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        Write(i64),
        Read,
    }

    /// Per-process scripts; the k-th write of a process writes `k`, so a
    /// later read of its own object names the write it observed.
    fn scripts(seed: u64, ops: usize, update_pct: u32) -> Vec<Vec<Op>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        (0..N)
            .map(|_| {
                let mut writes = 0;
                (0..ops)
                    .map(|_| {
                        if rng.gen_range(0..100) < update_pct {
                            writes += 1;
                            Op::Write(writes)
                        } else {
                            Op::Read
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// What a loopback run leaves behind.
    struct Run {
        /// Retirements, in retirement order.
        retired: Vec<Retired<usize>>,
        /// True submit times by `(process, token)`.
        submitted_at: Vec<Vec<u64>>,
        metrics: Vec<PipelineMetrics>,
        /// Every replica's copy of every object, with its version.
        stores: Vec<Vec<Versioned>>,
    }

    /// Closed-loop clients keeping up to `window` m-operations in flight,
    /// interleaved with deliveries by the seeded shuffle. The hosts are fed
    /// in bursts of a seeded `1..=max_burst` inputs and settle once per
    /// burst, as a thread that drains its inbox does; `max_burst` 1 is the
    /// settle-per-input discipline of the simulator drivers.
    fn run_windowed(seed: u64, window: usize, max_burst: usize, scripts: &[Vec<Op>]) -> Run {
        let mut net = Loopback::new(seed, LinkConfig::default(), false);
        let mut next = [0usize; N];
        let mut submitted_at: Vec<Vec<u64>> = vec![Vec::new(); N];
        loop {
            let mut fed = [false; N];
            for _ in 0..net.rng.gen_range(1..=max_burst) {
                let ready: Vec<usize> = (0..N)
                    .filter(|&p| next[p] < scripts[p].len() && net.hosts[p].in_flight() < window)
                    .collect();
                if !ready.is_empty() && (net.inflight.is_empty() || net.rng.gen_bool(0.4)) {
                    let p = ready[net.rng.gen_range(0..ready.len())];
                    let (program, args) = match scripts[p][next[p]] {
                        Op::Write(v) => (write_own(p), vec![v]),
                        Op::Read => (read_own(p), vec![]),
                    };
                    net.feed_submit(p, program, args, next[p]);
                    submitted_at[p].push(net.now);
                    next[p] += 1;
                    fed[p] = true;
                } else if let Some(to) = net.feed_frame() {
                    fed[to] = true;
                }
            }
            if fed == [false; N] {
                break;
            }
            for p in (0..N).filter(|&p| fed[p]) {
                net.settle(p);
            }
        }
        Run {
            retired: net.retired,
            submitted_at,
            metrics: net.hosts.iter().map(|h| h.metrics()).collect(),
            stores: net
                .hosts
                .iter()
                .map(|h| h.replica().store().snapshot_full())
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gate_keeps_pipelined_processes_sequential_and_consistent(
            seed in any::<u64>(),
            window in 1usize..=16,
            max_burst in 1usize..=8,
            ops in 1usize..=12,
            update_pct in 0u32..=100,
        ) {
            let scripts = scripts(seed, ops, update_pct);
            let Run { retired, submitted_at, metrics, stores } =
                run_windowed(seed, window, max_burst, &scripts);
            prop_assert_eq!(retired.len(), N * ops, "every invocation retired");
            for (p, script) in scripts.iter().enumerate() {
                let mine: Vec<&Retired<usize>> = retired
                    .iter()
                    .filter(|r| r.record.id.process.index() == p)
                    .collect();
                let mut last_write = 0;
                for (k, r) in mine.iter().enumerate() {
                    // FIFO: the k-th retirement is the k-th invocation.
                    prop_assert_eq!(r.token, k);
                    prop_assert_eq!(r.record.id.seq as usize, k);
                    // Replies carry the true times ...
                    prop_assert_eq!(r.invoked_at.as_nanos(), submitted_at[p][k]);
                    prop_assert!(r.invoked_at <= r.responded_at);
                    // ... records are sequential per process.
                    prop_assert!(r.record.invoked_at <= r.record.responded_at);
                    if k > 0 {
                        prop_assert!(mine[k - 1].record.responded_at <= r.record.invoked_at);
                    }
                    // The gate, by value: a query sees the process's own
                    // latest write, however many were in flight before it.
                    match script[k] {
                        Op::Write(v) => last_write = v,
                        Op::Read => prop_assert_eq!(r.record.outputs[0], last_write),
                    }
                }
                prop_assert!(metrics[p].peak_depth <= window as u64);
                prop_assert_eq!(metrics[p].retired, ops as u64);
                prop_assert_eq!(metrics[p].orphan_completions, 0);
            }
            let records: Vec<MOpRecord> = retired.into_iter().map(|r| r.record).collect();
            let again = run_windowed(seed, window, max_burst, &scripts);
            let replay: Vec<MOpRecord> = again.retired.into_iter().map(|r| r.record).collect();
            prop_assert_eq!(&records, &replay, "same seed, same records");
            // However many inputs a settle covers, the replicas end up
            // with one store, and it holds what settling after every input
            // leaves: each process's last write in its own object. (Which
            // write the shared object keeps is the broadcast's choice, and
            // the two schedules differ.)
            let per_input = run_windowed(seed, window, 1, &scripts);
            for store in &stores {
                prop_assert_eq!(store, &stores[0], "replicas converge");
                prop_assert_eq!(&store[..N], &per_input.stores[0][..N]);
            }
            let history = History::new(OBJECTS, records).expect("structurally valid");
            let verdict = check(
                &history,
                Condition::MSequentialConsistency,
                CheckStrategy::Auto,
            )
            .unwrap();
            prop_assert!(verdict.satisfied, "{:?}", verdict.reason);
        }
    }

    /// A one-process cluster on the trusted channel, its own sequencer:
    /// sixteen pipelined updates, and each round feeds the host what its
    /// last settle sent itself — in send order, or reversed, which makes
    /// later submissions overtake earlier ones — until nothing is sent.
    /// Returns how many retired in each settle, and the counters.
    fn sixteen_looped_back(reverse: bool) -> (Vec<usize>, PipelineMetrics) {
        let me = ProcessId::new(0);
        let setup = OrderingSetup::default();
        let mut host: ReplicaHost<MscOverSequencer, usize> =
            ReplicaHost::new(me, 1, OBJECTS, None, &setup, false);
        let clock = || EventTime::ZERO;
        for k in 0..16 {
            host.submit(write_own(0), vec![k as i64], k, EventTime::ZERO);
        }
        host.settle(&clock);
        let mut per_settle = Vec::new();
        let mut tokens = Vec::new();
        while !host.wire.is_empty() {
            let mut frames: Vec<_> = host.wire.drain(..).collect();
            if reverse {
                frames.reverse();
            }
            for (to, frame) in frames {
                assert_eq!(to, me);
                host.on_wire(me, frame, EventTime::ZERO);
            }
            host.settle(&clock);
            per_settle.push(host.retired.len());
            tokens.extend(host.retired.drain(..).map(|r| r.token));
        }
        assert_eq!(tokens, (0..16).collect::<Vec<_>>(), "FIFO retirement");
        (per_settle, host.metrics())
    }

    /// Completions that arrive in invocation order retire at once and
    /// count as nothing out of order, though sixteen retire in one settle;
    /// completions that overtake an earlier invocation count.
    #[test]
    fn only_a_completion_that_overtakes_counts_as_out_of_order() {
        let (per_settle, in_order) = sixteen_looped_back(false);
        assert_eq!(
            per_settle,
            [0, 16],
            "submit, then all sixteen in one settle"
        );
        assert_eq!(in_order.retired, 16);
        assert_eq!(in_order.out_of_order_completions, 0);

        let (_, overtaken) = sixteen_looped_back(true);
        assert_eq!(overtaken.retired, 16);
        assert_eq!(overtaken.out_of_order_completions, 15, "all but the oldest");
        assert_eq!(overtaken.orphan_completions, 0);
    }

    /// Negative control for the gate: hand a query straight to the
    /// replica while one of the process's own updates is still in flight
    /// and the local copy answers with the overwritten value. The
    /// recorded history — write, then a read that misses it — is refuted.
    #[test]
    fn bypassing_the_gate_is_refuted_by_the_checker() {
        let run = |bypass: bool| {
            let mut net = Loopback::new(7, LinkConfig::default(), false);
            net.submit(1, write_own(1), vec![9], 0);
            if bypass {
                let now = net.tick();
                let host = &mut net.hosts[1];
                let mop = MOperation::new(MOpId::new(host.me, host.next_seq), read_own(1), vec![]);
                host.next_seq += 1;
                host.pending.push_back(Inflight {
                    id: mop.id,
                    is_update: false,
                    invoked_at: now,
                    token: 1,
                });
                host.replica.invoke(mop, &mut host.out);
                net.settle(1);
            } else {
                net.submit(1, read_own(1), vec![], 1);
            }
            while net.deliver_one() {}
            let records: Vec<MOpRecord> = net.retired.into_iter().map(|r| r.record).collect();
            assert_eq!(records.len(), 2);
            let read_value = records[1].outputs[0];
            let history = History::new(OBJECTS, records).expect("structurally valid");
            let verdict = check(
                &history,
                Condition::MSequentialConsistency,
                CheckStrategy::Auto,
            )
            .unwrap();
            (read_value, verdict.satisfied)
        };
        assert_eq!(run(false), (9, true), "gated: the query waits and sees 9");
        assert_eq!(run(true), (0, false), "ungated: stale read, refuted");
    }

    /// A submit frame duplicated past a (missing) link is stamped and
    /// applied twice: the first completion retires normally, the second
    /// is an orphan — tallied, fed to the sentinel, never recorded.
    #[test]
    fn double_applied_update_is_tallied_as_an_orphan_and_latches_the_sentinel() {
        let run = |monitored: bool| {
            let mut net = Loopback::new(3, LinkConfig::sabotaged(), monitored);
            net.submit(1, write_own(1), vec![5], 0);
            assert!(matches!(
                net.inflight[..],
                [(
                    _,
                    _,
                    LinkMsg::Data {
                        payload: ProtocolMsg::Abcast(_),
                        ..
                    }
                )]
            ));
            net.inflight.push(net.inflight[0].clone());
            while net.deliver_one() {}
            assert_eq!(net.retired.len(), 1, "the first completion retires");
            let metrics = net.hosts[1].metrics();
            assert_eq!((metrics.retired, metrics.orphan_completions), (1, 1));
            assert_eq!(net.hosts[1].in_flight(), 0);
            net.feed
        };
        assert!(run(false).is_empty(), "unmonitored hosts queue nothing");

        let feed = run(true);
        let completions = feed
            .iter()
            .filter(|ev| matches!(ev, MonitorEvent::Complete(..)))
            .count();
        assert_eq!(completions, 2, "the stream carries the orphan too");
        let mut sentinel = OnlineMonitor::new(
            OBJECTS,
            MonitorConfig::new(Condition::MSequentialConsistency),
        );
        for ev in feed {
            ev.apply(&mut sentinel);
        }
        let violation = sentinel.violation().expect("duplicate completion latched");
        assert_eq!(violation.culprit, Some(ProcessId::new(1)));
    }
}
