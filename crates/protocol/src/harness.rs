//! Simulation harness: drives the shared replica host ([`crate::host`])
//! on `moc-sim` with scripted clients, and emits the recorded history
//! plus metrics.
//!
//! One driver runs every simulated cluster. [`ClusterConfig::link`]
//! picks its channel: `None` is the trusted one the host models (the
//! paper's reliable, reordering channel), `Some` puts the
//! [`moc_abcast::ReliableLink`] sublayer between the replicas and a wire
//! the [`FaultPlan`] may drop, duplicate, partition and crash:
//!
//! ```text
//!   client script  →  replica protocol (msc / mlin / aggregate)
//!                  →  reliable link (seq/ack/retransmit/dedup/rejoin)
//!                  →  moc-sim network with a FaultPlan (drop/dup/
//!                     partition/crash)
//! ```
//!
//! The link re-establishes the paper's reliable-reordering-channel
//! contract, so the Theorem 15/20 guarantees must survive any
//! *recoverable* fault plan (all partitions heal, all crashes restart,
//! drop probability < 1): the recorded history must still check out as
//! m-sequentially consistent / m-linearizable.
//!
//! The driver has two levels of strictness. [`run_chaos_cluster`] never
//! panics on protocol misbehavior: a sabotaged link
//! ([`moc_abcast::LinkConfig::sabotaged`]) or a mis-sharded plan is
//! *expected* to corrupt executions, so orphaned completions, unfinished
//! scripts, diverging orders or stores and non-quiescence are tallied in
//! [`ChaosAnomalies`] and the history is kept even when it does not
//! validate. [`run_cluster`] is the same run plus two checks: the tally
//! is clean and the history valid.
//!
//! Each process is a replica with a co-located client (the paper's model:
//! processes are sequential and manipulate objects through m-operations,
//! alternately issuing an invocation and receiving the response). The
//! client issues the next m-operation of its script only after the previous
//! one responded, optionally after a think-time delay.
//!
//! Invocation and response events are stamped with virtual time, so the
//! resulting [`History`] carries the exact real-time order `~t` needed to
//! check m-linearizability.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use moc_abcast::{BatchConfig, BatchStats, LinkConfig, LinkMsg, LinkStats};
use moc_core::commute::CommutePlan;
use moc_core::history::{History, MOpIdx};
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::program::Program;
use moc_core::shard::ShardPlan;
use moc_core::value::Value;
use moc_monitor::{MonitorConfig, MonitorRunSummary, OnlineMonitor};
use moc_sim::{Context, FaultPlan, NetworkConfig, Node, RunStats, TimerId, World};

use crate::host::{OrderingSetup, ReplicaHost};
use crate::store::ReplicaStore;
use crate::{ReplicaMetrics, ReplicaProtocol};

/// One m-operation of a client script.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// The program to invoke.
    pub program: Arc<Program>,
    /// Its arguments.
    pub args: Vec<Value>,
}

impl OpSpec {
    /// Creates an op spec.
    pub fn new(program: Arc<Program>, args: Vec<Value>) -> Self {
        OpSpec { program, args }
    }
}

/// The sequence of m-operations one process will issue.
#[derive(Debug, Clone, Default)]
pub struct ClientScript {
    /// Operations in issue order.
    pub ops: Vec<OpSpec>,
    /// Virtual-time delay before the first invocation (ns).
    pub start_delay_ns: u64,
    /// Think time between a response and the next invocation (ns).
    pub think_ns: u64,
}

impl ClientScript {
    /// A script issuing `ops` back-to-back.
    pub fn new(ops: Vec<OpSpec>) -> Self {
        ClientScript {
            ops,
            start_delay_ns: 1,
            think_ns: 1,
        }
    }

    /// Sets the start delay.
    pub fn starting_at(mut self, ns: u64) -> Self {
        self.start_delay_ns = ns;
        self
    }

    /// Sets the think time.
    pub fn with_think_time(mut self, ns: u64) -> Self {
        self.think_ns = ns;
        self
    }
}

/// Configuration of a simulated cluster run: the cluster, its channel,
/// the fault plan, and what is installed on every replica's broadcast.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Network delay model.
    pub network: NetworkConfig,
    /// The fault schedule (deterministic per `(seed, faults)`). Only a
    /// reliable [`ClusterConfig::link`] masks it.
    pub faults: FaultPlan,
    /// The reliable link between the replicas and the wire, with its
    /// tuning (or [`LinkConfig::sabotaged`]); `None` is the trusted
    /// channel.
    pub link: Option<LinkConfig>,
    /// Simulator seed (runs are deterministic per seed).
    pub seed: u64,
    /// Event budget; exceeding it sets [`ChaosAnomalies::stalled`] (a
    /// plan that never lets the run quiesce is data, not a crash).
    pub max_events: u64,
    /// Failover suspicion timeouts `(base_ns, max_ns)` applied to every
    /// replica's broadcast before the run, if set. Ignored by broadcasts
    /// without failover (the fixed sequencer).
    pub failover_timeouts: Option<(u64, u64)>,
    /// A certified shard partition installed on every replica's broadcast
    /// before the run, if set. Ignored by single-order broadcasts.
    pub shard_plan: Option<ShardPlan>,
    /// A commute certificate's delivery plan installed on every replica's
    /// broadcast before the run, if set. Ignored by broadcasts without
    /// commutativity fast paths.
    pub commute_plan: Option<CommutePlan>,
    /// A group-commit batching configuration installed on every replica's
    /// broadcast before the run, if set. Ignored by broadcasts without
    /// batched stamping.
    pub batching: Option<BatchConfig>,
    /// When set, an [`OnlineMonitor`] sentinel rides along: every
    /// invocation and completion is streamed into it as it happens (in
    /// simulated time), and the run report carries the rolling
    /// certificates, verdict timeline and any latched violation.
    pub monitor: Option<MonitorConfig>,
}

impl ClusterConfig {
    /// A config with the default network, the trusted channel, no faults
    /// and a generous event bound.
    pub fn new(num_objects: usize, seed: u64) -> Self {
        ClusterConfig {
            num_objects,
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            link: None,
            seed,
            max_events: 20_000_000,
            failover_timeouts: None,
            shard_plan: None,
            commute_plan: None,
            batching: None,
            monitor: None,
        }
    }

    /// Overrides the network model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Installs a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Puts a reliable link tuned by `link` between the replicas and the
    /// wire.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = Some(link);
        self
    }

    /// Overrides the event budget. Negative controls that crash the fixed
    /// sequencer *expect* a stall; a small budget keeps them fast.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Sets the failover suspicion timeouts (base and cap of the
    /// exponential backoff) applied to every replica's broadcast.
    pub fn with_failover_timeouts(mut self, base_ns: u64, max_ns: u64) -> Self {
        self.failover_timeouts = Some((base_ns, max_ns));
        self
    }

    /// Installs a shard partition on every replica's broadcast (see
    /// [`crate::ReplicaProtocol::set_shard_plan`]).
    pub fn with_shard_plan(mut self, plan: ShardPlan) -> Self {
        self.shard_plan = Some(plan);
        self
    }

    /// Installs a commute certificate's delivery plan on every replica's
    /// broadcast (see [`crate::ReplicaProtocol::set_commute_plan`]).
    pub fn with_commute_plan(mut self, plan: CommutePlan) -> Self {
        self.commute_plan = Some(plan);
        self
    }

    /// Installs a group-commit batching configuration on every replica's
    /// broadcast (see [`crate::ReplicaProtocol::set_batching`]).
    pub fn with_batching(mut self, cfg: BatchConfig) -> Self {
        self.batching = Some(cfg);
        self
    }

    /// Attaches an online consistency sentinel to the run (see
    /// [`RunReport::monitor`]).
    pub fn with_monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = Some(monitor);
        self
    }
}

/// Irregularities observed during a run. All zero/false on a healthy
/// stack with a recoverable plan; a sabotaged link is expected to light
/// these up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosAnomalies {
    /// Completions that did not match the client's inflight m-operation
    /// (e.g. double application of a duplicated broadcast frame).
    pub orphan_completions: u64,
    /// Scripted m-operations that never finished (still queued or
    /// inflight at the end of the run).
    pub unfinished_ops: u64,
    /// Replicas disagreed on the atomic-broadcast delivery order (for
    /// sharded broadcasts: on some channel's order).
    pub delivery_divergence: bool,
    /// Replica object stores did not converge at the end of the run. On
    /// a quiescent run with every update delivered everywhere, stores
    /// must agree; divergence is how a *mis-sharded* partition (two
    /// conflicting writers routed to different shard channels) surfaces
    /// even when every individual channel's order is agreed.
    pub store_divergence: bool,
    /// Entries on a replica-private read-only fast-path channel that
    /// violated its contract: issued by another process, never completed
    /// at the owning replica, or — the dangerous case — containing a
    /// write that bypassed the agreed order. The private channel is
    /// excluded from [`ChaosAnomalies::delivery_divergence`] (its
    /// contents legitimately differ per replica), so this counter is
    /// what keeps a misbehaving commute fast path from slipping past
    /// the harness.
    pub fast_path_violations: u64,
    /// The run exhausted its event budget before quiescing.
    pub stalled: bool,
}

impl ChaosAnomalies {
    /// Whether the run completed with no irregularities.
    pub fn is_clean(&self) -> bool {
        *self == ChaosAnomalies::default()
    }
}

/// The outcome of a run: the recorded history plus metrics and the
/// anomaly tally. [`run_cluster`] reports a validated [`History`];
/// [`run_chaos_cluster`] a [`ChaosRunReport`].
#[derive(Debug, Clone)]
pub struct RunReport<H = History> {
    /// Short name of the protocol that ran.
    pub protocol: &'static str,
    /// The recorded history (one record per completed m-operation, with
    /// real invocation/response times), or in a [`ChaosRunReport`] the
    /// validation error if the run produced structurally invalid records
    /// (possible — and itself evidence — under a sabotaged link).
    pub history: H,
    /// Response time of every completed m-operation, by class (ns).
    pub latencies: Vec<(MOpClass, u64)>,
    /// Per-replica protocol message counters.
    pub replica_metrics: Vec<ReplicaMetrics>,
    /// Per-replica link counters (retransmissions, dedup discards, …);
    /// zero on the trusted channel.
    pub link_stats: Vec<LinkStats>,
    /// Simulator counters (messages, events, virtual duration), including
    /// fault counters (drops, duplicates, crashes).
    pub sim: RunStats,
    /// Replica 0's atomic-broadcast delivery order of update m-operations
    /// (the protocol's `~ww` order; on a clean run every replica's).
    pub update_order: Vec<MOpId>,
    /// Replica 0's delivery order split by ordering channel (trailing
    /// empty channels trimmed; see
    /// [`crate::ReplicaProtocol::channel_logs`]). One entry — the whole
    /// log — for single-order broadcasts.
    pub channel_logs: Vec<Vec<MOpId>>,
    /// Per-replica logs of the replica-private read-only fast-path
    /// channel (empty when no broadcast arms one). These legitimately
    /// differ across replicas; the harness verifies each entry's
    /// contract instead of comparing them (see
    /// [`ChaosAnomalies::fast_path_violations`]).
    pub private_fast_logs: Vec<Vec<MOpId>>,
    /// Irregularities observed during the run.
    pub anomalies: ChaosAnomalies,
    /// Per-replica broadcast transcripts (view changes, failover events).
    /// Empty vectors for static broadcasts; deterministic per seed, so
    /// replays must produce identical transcripts.
    pub view_transcripts: Vec<Vec<String>>,
    /// Per-replica count of deliveries the broadcast applied through a
    /// commute fast path (all zero without a commute plan installed).
    pub commute_fast_applied: Vec<u64>,
    /// Per-replica group-commit counters from the broadcast (all zero
    /// without batching installed).
    pub batch_stats: Vec<BatchStats>,
    /// The online sentinel's run summary — rolling certificates, verdict
    /// timeline, and any latched violation with its detection latency —
    /// when [`ClusterConfig::monitor`] was set. `None` otherwise.
    pub monitor: Option<MonitorRunSummary>,
    /// Replica 0's object store at the end of the run. Unless
    /// [`ChaosAnomalies::store_divergence`] is set, every replica's store
    /// equals it (replica convergence).
    pub final_store: ReplicaStore,
}

/// The report of [`run_chaos_cluster`]: the history may fail validation.
pub type ChaosRunReport = RunReport<Result<History, String>>;

impl<H> RunReport<H> {
    /// Mean response time over completed m-operations of `class`, in
    /// nanoseconds; `None` if none completed.
    pub fn mean_latency(&self, class: MOpClass) -> Option<f64> {
        let of_class = self.latencies.iter().filter(|(c, _)| *c == class);
        let (n, sum) = of_class.fold((0u64, 0u64), |(n, sum), &(_, l)| (n + 1, sum + l));
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Total network messages sent during the run.
    pub fn total_messages(&self) -> u64 {
        self.sim.messages_sent
    }

    /// Aggregated group-commit counters across all replicas.
    pub fn total_batch_stats(&self) -> BatchStats {
        let mut total = BatchStats::default();
        for s in &self.batch_stats {
            total.merge(s);
        }
        total
    }

    /// Aggregated link counters across all replicas.
    pub fn total_link_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for s in &self.link_stats {
            total.merge(s);
        }
        total
    }
}

impl RunReport {
    /// The broadcast order `~ww` over the recorded history, as the pairs
    /// of consecutive updates in [`Self::update_order`]. Handed to
    /// `moc_checker::check_with_order`, it puts the history under the
    /// WW-constraint, so Theorem 7's polynomial checker applies to it.
    pub fn ww_order(&self) -> Vec<(MOpIdx, MOpIdx)> {
        let idx = |id| self.history.idx_of(id);
        let pair = |w: &[MOpId]| Some((idx(w[0])?, idx(w[1])?));
        self.update_order.windows(2).filter_map(pair).collect()
    }
}

impl ChaosRunReport {
    /// The history fingerprint (replay identity), when the history is
    /// valid.
    pub fn fingerprint(&self) -> Option<u64> {
        self.history.as_ref().ok().map(moc_core::codec::fingerprint)
    }
}

/// The simulator driver of the replica host: supplies what the host
/// cannot know — the virtual clock, the wire, the sequential scripted
/// client with its think timer, tick timers, and the run-wide sentinel.
struct ScriptedNode<R: ReplicaProtocol> {
    host: ReplicaHost<R, ()>,
    script: VecDeque<OpSpec>,
    think_ns: u64,
    start_delay_ns: u64,
    records: Vec<MOpRecord>,
    /// The currently armed think timer; any other timer is a tick.
    think_timer: Option<TimerId>,
    /// The earliest deadline a tick timer is armed for.
    tick_deadline: Option<u64>,
    /// The run-wide online sentinel, shared by every node (the simulator
    /// is single-threaded, so a `Rc<RefCell<..>>` suffices).
    monitor: Option<Rc<RefCell<OnlineMonitor>>>,
}

fn now_of<M>(ctx: &Context<'_, M>) -> EventTime {
    EventTime::from_nanos(ctx.now().as_nanos())
}

impl<R: ReplicaProtocol> ScriptedNode<R> {
    fn arm_think(&mut self, delay_ns: u64, ctx: &mut Context<'_, LinkMsg<R::Msg>>) {
        if !self.script.is_empty() {
            self.think_timer = Some(ctx.set_timer(delay_ns.max(1)));
        }
    }

    /// Settles the host and carries out what it asked for: frames onto
    /// the wire, observations into the sentinel, records into the
    /// client (arming its next think timer), then the tick timer.
    fn settle(&mut self, ctx: &mut Context<'_, LinkMsg<R::Msg>>) {
        let now = now_of(ctx);
        self.host.settle(&|| now);
        for (to, frame) in self.host.wire.drain(..) {
            ctx.send(to, frame);
        }
        for ev in self.host.monitor_feed.drain(..) {
            if let Some(m) = &self.monitor {
                ev.apply(&mut m.borrow_mut());
            }
        }
        for r in std::mem::take(&mut self.host.retired) {
            self.records.push(r.record);
            self.arm_think(self.think_ns, ctx);
        }
        // Arm a tick for the earliest pending deadline — link
        // retransmission or broadcast suspicion/flush — unless one at
        // least as early is already armed. Superseded timers still fire
        // and run a (harmless, idempotent) early tick.
        if let Some(d) = self.host.next_deadline() {
            if self.tick_deadline.is_none_or(|armed| armed > d) {
                ctx.set_timer(d.saturating_sub(ctx.now().as_nanos()).max(1));
                self.tick_deadline = Some(d);
            }
        }
    }
}

impl<R: ReplicaProtocol> Node for ScriptedNode<R> {
    type Msg = LinkMsg<R::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.arm_think(self.start_delay_ns, ctx);
    }

    fn on_message(&mut self, from: ProcessId, frame: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        self.host.on_wire(from, frame, now_of(ctx));
        self.settle(ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        if self.think_timer == Some(timer) {
            self.think_timer = None;
            // The client is sequential; a stale think timer (re-armed
            // across a crash window) finds the previous m-operation still
            // being recovered.
            if self.host.in_flight() > 0 {
                return;
            }
            let Some(spec) = self.script.pop_front() else {
                return;
            };
            self.host.submit(spec.program, spec.args, (), now_of(ctx));
        } else {
            // Possibly superseded or early — both tick hooks only act on
            // deadlines that are actually due.
            self.tick_deadline = None;
            self.host.on_tick(now_of(ctx));
        }
        self.settle(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        // Timers armed before the outage were suppressed with it.
        self.tick_deadline = None;
        self.host.on_restart(now_of(ctx));
        self.settle(ctx);
        self.think_timer = None;
        if self.host.in_flight() == 0 {
            self.arm_think(self.think_ns, ctx);
        }
    }
}

/// Splits one replica's channel logs into the shared (wire-agreed)
/// channels and the log of its private read-only fast-path channel, if
/// the broadcast arms one.
fn split_private_channel<R: ReplicaProtocol>(replica: &R) -> (Vec<Vec<MOpId>>, Vec<MOpId>) {
    let mut logs = replica.channel_logs();
    let mut private_log = Vec::new();
    if let Some(c) = replica.private_channel() {
        let c = c as usize;
        if c < logs.len() {
            private_log = std::mem::take(&mut logs[c]);
            while logs.last().is_some_and(|l| l.is_empty()) {
                logs.pop();
            }
        }
    }
    (logs, private_log)
}

/// Verifies one replica's private fast-path channel log against its
/// contract: every entry must have been issued by the owning replica
/// itself and must correspond to a completed m-operation that performed
/// no writes (a write applied outside the agreed order is exactly the
/// corruption the fast path must never introduce). Returns the number of
/// violating entries.
fn private_channel_violations(me: ProcessId, log: &[MOpId], records: &[MOpRecord]) -> u64 {
    log.iter()
        .map(|id| {
            if id.process != me {
                return 1;
            }
            match records.iter().find(|r| r.id == *id) {
                None => 1,
                Some(r) => u64::from(
                    r.ops
                        .iter()
                        .any(|op| op.kind == moc_core::op::OpKind::Write),
                ),
            }
        })
        .sum()
}

/// Runs `scripts` (one per process) over protocol `R` on the simulator
/// configured by `config` and reports everything observed; `finish`
/// turns the tally and the history's validation into the report's
/// history. The replicas are dropped before the history is built, and
/// the report keeps one copy of replica 0's store.
fn simulate<R: ReplicaProtocol + 'static, H>(
    config: &ClusterConfig,
    scripts: Vec<ClientScript>,
    finish: impl FnOnce(&ChaosAnomalies, Result<History, String>) -> H,
) -> RunReport<H> {
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let sentinel = config
        .monitor
        .clone()
        .map(|mc| Rc::new(RefCell::new(OnlineMonitor::new(config.num_objects, mc))));
    let setup = OrderingSetup {
        failover_timeouts: config.failover_timeouts,
        shard_plan: config.shard_plan.as_ref(),
        commute_plan: config.commute_plan.as_ref(),
        batching: config.batching,
    };
    let nodes: Vec<ScriptedNode<R>> = scripts
        .into_iter()
        .enumerate()
        .map(|(p, script)| ScriptedNode {
            host: ReplicaHost::new(
                ProcessId::new(p as u32),
                n,
                config.num_objects,
                config.link,
                &setup,
                sentinel.is_some(),
            ),
            script: script.ops.into(),
            think_ns: script.think_ns,
            start_delay_ns: script.start_delay_ns,
            records: Vec::new(),
            think_timer: None,
            tick_deadline: None,
            monitor: sentinel.clone(),
        })
        .collect();
    let mut world = World::with_faults(nodes, config.network, config.faults.clone(), config.seed);
    let mut events = 0u64;
    let mut stalled = true;
    while events < config.max_events {
        if !world.step() {
            stalled = false;
            break;
        }
        events += 1;
    }
    let sim = world.stats();
    let nodes = world.into_nodes();

    let mut anomalies = ChaosAnomalies {
        stalled,
        ..ChaosAnomalies::default()
    };
    let reference = nodes[0].host.replica();
    let update_order = reference.delivery_log().to_vec();
    // Agreement is per ordering channel: single-order broadcasts report
    // one channel (the whole log); sharded broadcasts may legitimately
    // interleave commuting channels differently per replica, but each
    // channel's log must be identical. The replica-private read-only
    // fast-path channel is split off first: its contents never cross the
    // wire and legitimately differ per replica, so it is verified
    // entry-by-entry instead of compared.
    let (channel_logs, _) = split_private_channel(reference);
    let mut private_fast_logs = Vec::with_capacity(n);
    let mut link_stats = Vec::with_capacity(n);
    for (p, node) in nodes.iter().enumerate() {
        let replica = node.host.replica();
        let (shared, private_log) = split_private_channel(replica);
        anomalies.delivery_divergence |= shared != channel_logs;
        anomalies.fast_path_violations +=
            private_channel_violations(ProcessId::new(p as u32), &private_log, &node.records);
        private_fast_logs.push(private_log);
        anomalies.store_divergence |= replica.store() != reference.store();
        anomalies.orphan_completions += node.host.metrics().orphan_completions;
        anomalies.unfinished_ops += (node.script.len() + node.host.in_flight()) as u64;
        link_stats.push(node.host.link_stats());
    }
    // Consuming the nodes drops their clones of the sentinel.
    let mut replicas = Vec::with_capacity(n);
    let mut records = Vec::new();
    for node in nodes {
        replicas.push(node.host.into_replica());
        records.extend(node.records);
    }
    let span = |r: &MOpRecord| r.responded_at.as_nanos() - r.invoked_at.as_nanos();
    let end_ns = records.iter().map(|r| r.responded_at.as_nanos()).max();
    let monitor = sentinel.map(|m| {
        let mut mon = Rc::try_unwrap(m)
            .unwrap_or_else(|_| unreachable!("nodes consumed"))
            .into_inner();
        mon.flush(end_ns.unwrap_or(0) + 1);
        mon.into_summary()
    });
    let replica_metrics = replicas.iter().map(|r| r.metrics()).collect();
    let view_transcripts = replicas.iter().map(|r| r.abcast_transcript()).collect();
    let commute_fast_applied = replicas.iter().map(|r| r.commute_fast_applied()).collect();
    let batch_stats = replicas.iter().map(|r| r.batch_stats()).collect();
    // The anomaly tally compared the stores: one copy covers them all.
    replicas.truncate(1);
    let final_store = replicas[0].store().clone();
    drop(replicas);
    let latencies = records.iter().map(|r| (r.treated_as, span(r))).collect();
    let history = History::new(config.num_objects, records).map_err(|e| e.to_string());
    RunReport {
        protocol: R::protocol_name(),
        history: finish(&anomalies, history),
        latencies,
        replica_metrics,
        link_stats,
        sim,
        update_order,
        channel_logs,
        private_fast_logs,
        anomalies,
        view_transcripts,
        commute_fast_applied,
        batch_stats,
        monitor,
        final_store,
    }
}

/// Runs protocol `R` over `scripts` (one per process; the cluster size is
/// `scripts.len()`) and reports everything observed. Never panics on
/// protocol misbehavior — see [`ChaosAnomalies`].
pub fn run_chaos_cluster<R: ReplicaProtocol + 'static>(
    config: &ClusterConfig,
    scripts: Vec<ClientScript>,
) -> ChaosRunReport {
    simulate::<R, _>(config, scripts, |_, history| history)
}

/// Runs protocol `R` over `scripts` like [`run_chaos_cluster`], and
/// checks that the run is clean and its history valid.
///
/// # Panics
///
/// Panics if the run is not [clean](ChaosAnomalies::is_clean) — it did
/// not quiesce within `config.max_events` (a liveness bug), replicas
/// disagree on a channel's order or end with different stores, a
/// completion was orphaned, a scripted m-operation never finished, or
/// the private fast path carried a write — or if the recorded history
/// fails validation (a safety bug). On a trusted channel or a reliable
/// link with a recoverable fault plan each is a defect in this crate, not
/// user error; a sabotaged link or an uncertified plan is expected to
/// trip it.
pub fn run_cluster<R: ReplicaProtocol + 'static>(
    config: &ClusterConfig,
    scripts: Vec<ClientScript>,
) -> RunReport {
    simulate::<R, _>(config, scripts, |anomalies, history| {
        assert!(anomalies.is_clean(), "the run is not clean: {anomalies:?}");
        history.expect("protocol produced an invalid history")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MlinOverSequencer, MscOverSequencer, MscOverSharded, MscOverView};
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_sim::DelayModel;

    fn write_x() -> Arc<Program> {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), moc_core::program::arg(0))
            .ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn read_x() -> Arc<Program> {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    fn inc_x() -> Arc<Program> {
        let mut b = ProgramBuilder::new("inc");
        b.read(ObjectId::new(0), 0)
            .add(0, reg(0), imm(1))
            .write(ObjectId::new(0), reg(0))
            .ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    fn scripts() -> Vec<ClientScript> {
        vec![
            ClientScript::new(vec![
                OpSpec::new(write_x(), vec![5]),
                OpSpec::new(read_x(), vec![]),
            ]),
            ClientScript::new(vec![
                OpSpec::new(read_x(), vec![]),
                OpSpec::new(write_x(), vec![9]),
            ]),
            ClientScript::new(vec![OpSpec::new(read_x(), vec![])]),
        ]
    }

    #[test]
    fn msc_cluster_runs_and_records() {
        let config = ClusterConfig::new(1, 7);
        let scripts = vec![
            ClientScript::new(vec![
                OpSpec::new(write_x(), vec![5]),
                OpSpec::new(read_x(), vec![]),
            ]),
            ClientScript::new(vec![OpSpec::new(read_x(), vec![])]),
        ];
        let report = run_cluster::<MscOverSequencer>(&config, scripts);
        assert_eq!(report.protocol, "msc");
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.latencies.len(), 3);
        assert!(report.mean_latency(MOpClass::Update).is_some());
        assert!(report.total_messages() > 0);
        // msc queries are local: query latency is zero.
        assert_eq!(report.mean_latency(MOpClass::Query), Some(0.0));
    }

    #[test]
    fn mlin_queries_cost_a_round_trip() {
        let config = ClusterConfig::new(1, 7)
            .with_network(NetworkConfig::with_delay(DelayModel::Fixed(1_000)));
        let scripts = vec![
            ClientScript::new(vec![OpSpec::new(read_x(), vec![])]),
            ClientScript::new(vec![]),
        ];
        let report = run_cluster::<MlinOverSequencer>(&config, scripts);
        let q = report.mean_latency(MOpClass::Query).unwrap();
        assert!(q >= 2_000.0, "round trip over 1000ns links, got {q}");
    }

    #[test]
    fn concurrent_increments_serialize() {
        // 4 processes increment x 5 times each; the final value must be 20
        // on every replica (increments re-execute deterministically in the
        // agreed order, so none is lost).
        let config = ClusterConfig::new(1, 3);
        let scripts = (0..4)
            .map(|_| ClientScript::new(vec![OpSpec::new(inc_x(), vec![]); 5]))
            .collect();
        let report = run_cluster::<MscOverSequencer>(&config, scripts);
        let finals: Vec<i64> = report
            .history
            .records()
            .iter()
            .filter(|r| &*r.label == "inc")
            .flat_map(|r| r.outputs.clone())
            .collect();
        assert_eq!(finals.len(), 20);
        let max = finals.iter().max().unwrap();
        assert_eq!(*max, 20, "no increment lost");
        // All outputs distinct: each increment saw a distinct state.
        let mut sorted = finals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    /// The same config replays the same execution, on the trusted channel
    /// and behind a reliable link over a lossy, duplicating wire.
    #[test]
    fn runs_are_deterministic() {
        let trusted = ClusterConfig::new(2, 99);
        let faulty = ClusterConfig::new(1, 77)
            .with_faults(FaultPlan::lossy(0.2).with_dup(0.1))
            .with_link(LinkConfig::default());
        for config in [trusted, faulty] {
            let mk = || {
                let scripts = vec![
                    ClientScript::new(vec![OpSpec::new(inc_x(), vec![]); 3]),
                    ClientScript::new(vec![OpSpec::new(read_x(), vec![]); 3]),
                ];
                run_chaos_cluster::<MlinOverSequencer>(&config, scripts)
            };
            let (a, b) = (mk(), mk());
            assert_eq!(a.sim, b.sim, "{:?}", config.link);
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert!(a.fingerprint().is_some());
            assert_eq!(a.latencies, b.latencies);
        }
    }

    #[test]
    fn benign_chaos_run_matches_fair_weather_expectations() {
        let cfg = ClusterConfig::new(1, 11).with_link(LinkConfig::default());
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5);
        assert_eq!(report.sim.messages_dropped, 0);
        assert!(report.total_link_stats().retransmissions == 0);
    }

    #[test]
    fn msc_completes_under_drops_and_duplicates() {
        let cfg = ClusterConfig::new(1, 23)
            .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                lo: 50,
                hi: 2_000,
            }))
            .with_faults(FaultPlan::lossy(0.25).with_dup(0.15))
            .with_link(LinkConfig {
                rto_ns: 10_000,
                max_rto_ns: 160_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5, "every scripted op completed despite faults");
        assert!(report.sim.messages_dropped > 0, "the plan actually dropped");
        assert!(
            report.total_link_stats().retransmissions > 0,
            "losses were recovered by retransmission"
        );
    }

    #[test]
    fn mlin_completes_across_a_crash_window() {
        let cfg = ClusterConfig::new(1, 5)
            .with_network(NetworkConfig::fifo(1_000))
            .with_faults(FaultPlan::default().with_crash(ProcessId::new(2), 3_000, 500_000))
            .with_link(LinkConfig {
                rto_ns: 20_000,
                max_rto_ns: 320_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MlinOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5);
        assert_eq!(report.sim.crashes, 1);
        assert_eq!(report.sim.restarts, 1);
        let link = report.total_link_stats();
        assert!(
            link.rejoins > 0,
            "the crashed replica ran the rejoin handshake"
        );
    }

    /// Like [`scripts`], but paced so the second round of updates is
    /// still in flight when a crash at ~5µs lands.
    fn slow_scripts() -> Vec<ClientScript> {
        scripts()
            .into_iter()
            .map(|s| s.with_think_time(10_000))
            .collect()
    }

    #[test]
    fn view_abcast_survives_a_leader_crash() {
        // Crash the initial leader (P0) mid-run. The survivors must
        // suspect it, install view 1 under P1, re-propose anything
        // unordered, and finish every scripted op; P0 rejoins through
        // the link handshake and catches up as a follower.
        let cfg = ClusterConfig::new(1, 13)
            .with_network(NetworkConfig::fifo(1_000))
            .with_faults(FaultPlan::default().with_crash(ProcessId::new(0), 5_000, 600_000))
            .with_link(LinkConfig {
                rto_ns: 20_000,
                max_rto_ns: 320_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MscOverView>(&cfg, slow_scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5, "every scripted op completed across failover");
        let survivors_changed_view = report.view_transcripts[1..].iter().all(|t| {
            t.iter()
                .any(|line| line.contains("install v1") || line.contains("adopt v1"))
        });
        assert!(
            survivors_changed_view,
            "survivors moved to view 1: {:?}",
            report.view_transcripts
        );
    }

    #[test]
    fn crashed_fixed_sequencer_is_detected_not_silent() {
        // The same crash under the fixed sequencer: the restarted
        // sequencer fail-stops instead of restamping from a stale
        // counter, so the run surfaces unfinished updates rather than a
        // silently forked order.
        let cfg = ClusterConfig::new(1, 13)
            .with_network(NetworkConfig::fifo(1_000))
            .with_faults(FaultPlan::default().with_crash(ProcessId::new(0), 5_000, 600_000))
            .with_link(LinkConfig {
                rto_ns: 20_000,
                max_rto_ns: 320_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, slow_scripts());
        assert!(
            !report.anomalies.is_clean(),
            "a dead coordinator must be detectable: {:?}",
            report.anomalies
        );
        assert!(report.anomalies.unfinished_ops > 0 || report.anomalies.stalled);
        assert!(
            report.view_transcripts[0]
                .iter()
                .any(|line| line.contains("halted")),
            "the restarted sequencer recorded its fail-stop: {:?}",
            report.view_transcripts
        );
        assert!(
            !report.anomalies.delivery_divergence,
            "fail-stop prevents order corruption"
        );
    }

    #[test]
    fn sabotaged_link_surfaces_anomalies() {
        // With dedup off, duplicated frames reach the protocol; somewhere
        // in this seed range a duplicate Submit double-applies an update.
        let mut saw_orphans = false;
        for seed in 0..40 {
            let cfg = ClusterConfig::new(1, seed)
                .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                    lo: 50,
                    hi: 5_000,
                }))
                .with_faults(FaultPlan::default().with_dup(0.5))
                .with_link(LinkConfig::sabotaged());
            let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
            if report.anomalies.orphan_completions > 0 {
                saw_orphans = true;
                break;
            }
        }
        assert!(saw_orphans, "sabotage never produced a double application");
    }

    /// Contract check for the private fast-path channel, in isolation: a
    /// foreign id, a never-completed id, and a write-carrying entry are
    /// each one violation; a locally completed read-only entry is none.
    #[test]
    fn private_channel_contract_flags_foreign_missing_and_writing_entries() {
        use moc_core::op::CompletedOp;
        let me = ProcessId::new(1);
        let x = ObjectId::new(0);
        let mk_rec = |id: MOpId, ops: Vec<CompletedOp>| MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(1),
            ops: ops.into(),
            outputs: Default::default(),
            treated_as: MOpClass::Query,
            label: "t".into(),
        };
        let mine_ro = MOpId::new(me, 0);
        let mine_w = MOpId::new(me, 1);
        let foreign = MOpId::new(ProcessId::new(2), 0);
        let missing = MOpId::new(me, 9);
        let records = vec![
            mk_rec(mine_ro, vec![CompletedOp::read(x, 0, MOpId::INITIAL, 0)]),
            mk_rec(mine_w, vec![CompletedOp::write(x, 5, mine_w, 1)]),
        ];
        assert_eq!(private_channel_violations(me, &[mine_ro], &records), 0);
        assert_eq!(
            private_channel_violations(me, &[foreign], &records),
            1,
            "an entry issued elsewhere cannot be a local self-delivery"
        );
        assert_eq!(
            private_channel_violations(me, &[missing], &records),
            1,
            "an entry with no completion record is unaccounted for"
        );
        assert_eq!(
            private_channel_violations(me, &[mine_w], &records),
            1,
            "a write smuggled past the agreed order is the critical case"
        );
        assert_eq!(
            private_channel_violations(me, &[mine_ro, foreign, mine_w], &records),
            2
        );
    }

    /// Live exercise of the private-channel verification: the aggregate
    /// baseline over the conflict-sharded broadcast *broadcasts its
    /// queries*, so with a certified commute plan installed they take the
    /// replica-private read-only fast path. The harness must treat those
    /// replica-local logs as legitimate (no divergence false-positive)
    /// while still verifying every entry's read-only contract.
    #[test]
    fn aggregate_fast_path_queries_are_verified_not_flagged() {
        /// The aggregate baseline over the conflict-sharded broadcast: with
        /// a commute plan installed its broadcast queries take the
        /// replica-private read-only fast path.
        type AggregateOverSharded =
            crate::AggregateReplica<moc_abcast::ShardedAbcast<crate::MOperation>>;
        let write_y = || {
            let mut b = ProgramBuilder::new("wy");
            b.write(ObjectId::new(1), moc_core::program::arg(0))
                .ret(vec![]);
            Arc::new(b.build().unwrap())
        };
        let read_y = || {
            let mut b = ProgramBuilder::new("ry");
            b.read(ObjectId::new(1), 0).ret(vec![reg(0)]);
            Arc::new(b.build().unwrap())
        };
        let programs = [write_x(), write_y(), read_x(), read_y()];
        let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
        let shard_plan = moc_core::shard::ShardPlan::new(vec![0, 1]).unwrap();
        let analysis = moc_analyze::commute_set(&refs, 2);
        let commute_plan = analysis.cert.delivery_plan(&shard_plan);
        let scripts = vec![
            ClientScript::new(vec![
                OpSpec::new(write_x(), vec![5]),
                OpSpec::new(read_y(), vec![]),
            ]),
            ClientScript::new(vec![
                OpSpec::new(write_y(), vec![7]),
                OpSpec::new(read_x(), vec![]),
            ]),
            ClientScript::new(vec![
                OpSpec::new(read_x(), vec![]),
                OpSpec::new(read_y(), vec![]),
            ]),
        ];
        let cfg = ClusterConfig::new(2, 41)
            .with_link(LinkConfig::default())
            .with_shard_plan(shard_plan)
            .with_commute_plan(commute_plan);
        let report = run_chaos_cluster::<AggregateOverSharded>(&cfg, scripts);
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 6, "every scripted op completed");
        assert!(
            report.commute_fast_applied.iter().sum::<u64>() >= 4,
            "every broadcast query should self-deliver: {:?}",
            report.commute_fast_applied
        );
        let private_entries: usize = report.private_fast_logs.iter().map(|l| l.len()).sum();
        assert!(
            private_entries >= 4,
            "private logs must surface the fast-path deliveries: {:?}",
            report.private_fast_logs
        );
        for (p, log) in report.private_fast_logs.iter().enumerate() {
            assert!(
                log.iter().all(|id| id.process.index() == p),
                "replica {p} private log must be self-issued: {log:?}"
            );
        }
    }

    /// The online sentinel rides along on a faulty-but-recoverable run:
    /// the stream must stay clean (no latched violation), emit at least
    /// one rolling certificate, and its verdict timeline must cover the
    /// whole run (every completion was ingested).
    #[test]
    fn monitored_chaos_run_reports_clean_timeline() {
        use moc_checker::Condition;
        let cfg = ClusterConfig::new(1, 23)
            .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                lo: 50,
                hi: 2_000,
            }))
            .with_faults(FaultPlan::lossy(0.25).with_dup(0.15))
            .with_link(LinkConfig {
                rto_ns: 10_000,
                max_rto_ns: 160_000,
                ..LinkConfig::default()
            })
            .with_monitor(MonitorConfig::new(Condition::MSequentialConsistency).with_window(2));
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let summary = report.monitor.as_ref().expect("sentinel attached");
        assert!(
            summary.violation.is_none(),
            "clean run latched: {:?}",
            summary.violation
        );
        assert_eq!(summary.stats.completions, 5, "every completion streamed");
        assert_eq!(summary.stats.invocations, 5);
        assert!(
            !summary.certs.is_empty(),
            "quiescence points must emit rolling certificates"
        );
        assert!(summary.certs.iter().all(|c| c.admissible));
        // Monitored and unmonitored runs are the same execution: the
        // sentinel only observes.
        let bare = run_chaos_cluster::<MscOverSequencer>(
            &ClusterConfig {
                monitor: None,
                ..cfg.clone()
            },
            scripts(),
        );
        assert_eq!(report.fingerprint(), bare.fingerprint());
    }

    /// Three clients, two writes each: an update burst that gives the
    /// group-commit window something to group.
    fn update_scripts() -> Vec<ClientScript> {
        (0..3i64)
            .map(|p| {
                ClientScript::new(vec![
                    OpSpec::new(write_x(), vec![p * 10 + 1]),
                    OpSpec::new(write_x(), vec![p * 10 + 2]),
                ])
            })
            .collect()
    }

    /// The monitored conformance sweep with group-commit batching on:
    /// every backend must finish every scripted op with a clean anomaly
    /// tally, a violation-free sentinel timeline, admissible rolling
    /// certificates, and batches that actually group (occupancy > 1).
    #[test]
    fn monitored_chaos_sweep_passes_with_batching_enabled() {
        use moc_checker::Condition;
        // The 5µs group-commit window exceeds the 50ns..2µs network
        // spread, so the initial burst of submissions lands in one batch.
        let batch = BatchConfig {
            max_batch: 4,
            max_delay_ns: 5_000,
        };
        let cfg_for = |seed: u64| {
            ClusterConfig::new(1, seed)
                .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                    lo: 50,
                    hi: 2_000,
                }))
                .with_faults(FaultPlan::lossy(0.15).with_dup(0.1))
                .with_link(LinkConfig {
                    rto_ns: 10_000,
                    max_rto_ns: 160_000,
                    ..LinkConfig::default()
                })
                .with_batching(batch)
                .with_monitor(MonitorConfig::new(Condition::MSequentialConsistency).with_window(2))
        };
        let check = |report: &ChaosRunReport| {
            assert!(
                report.anomalies.is_clean(),
                "{}: {:?}",
                report.protocol,
                report.anomalies
            );
            let h = report.history.as_ref().expect("valid history");
            assert_eq!(
                h.len(),
                6,
                "{}: every scripted op completed",
                report.protocol
            );
            let summary = report.monitor.as_ref().expect("sentinel attached");
            assert!(
                summary.violation.is_none(),
                "{}: clean run latched: {:?}",
                report.protocol,
                summary.violation
            );
            assert_eq!(summary.stats.completions, 6);
            assert!(summary.certs.iter().all(|c| c.admissible));
            let stats = report.total_batch_stats();
            assert_eq!(stats.items_stamped, 6, "{}: {stats:?}", report.protocol);
            assert!(
                stats.occupancy() > 1.0,
                "{}: batches must group: {:?}",
                report.protocol,
                stats
            );
        };
        for seed in [23u64, 51, 87] {
            check(&run_chaos_cluster::<MscOverSequencer>(
                &cfg_for(seed),
                update_scripts(),
            ));
            check(&run_chaos_cluster::<MscOverView>(
                &cfg_for(seed),
                update_scripts(),
            ));
        }
        // The sharded backend batches per ordering channel.
        for seed in [23u64, 51] {
            let cfg = ClusterConfig::new(1, seed)
                .with_link(LinkConfig::default())
                .with_batching(batch)
                .with_shard_plan(moc_core::shard::ShardPlan::new(vec![0]).unwrap())
                .with_monitor(MonitorConfig::new(Condition::MSequentialConsistency).with_window(2));
            let report = run_chaos_cluster::<MscOverSharded>(&cfg, update_scripts());
            assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
            let h = report.history.as_ref().expect("valid history");
            assert_eq!(h.len(), 6);
            let summary = report.monitor.as_ref().expect("sentinel attached");
            assert!(summary.violation.is_none(), "{:?}", summary.violation);
            assert!(summary.certs.iter().all(|c| c.admissible));
            let stats = report.total_batch_stats();
            assert_eq!(stats.items_stamped, 6, "{stats:?}");
            assert!(stats.occupancy() > 1.0, "{stats:?}");
        }
    }
}
