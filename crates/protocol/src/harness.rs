//! Simulation harness: drives the shared replica host ([`crate::host`])
//! on `moc-sim` with scripted clients, and emits validated histories plus
//! metrics. One simulator node serves both the fair-weather run
//! ([`run_cluster`]: trusted channel) and the fault-injecting one
//! ([`crate::chaos::run_chaos_cluster`]: reliable link over a faulty wire).
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

use moc_abcast::{LinkConfig, LinkMsg};
use moc_core::history::{History, MOpIdx};
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_monitor::OnlineMonitor;
use moc_sim::{Context, NetworkConfig, Node, RunStats, TimerId, World};

use crate::chaos::{ChaosAnomalies, ChaosConfig, ChaosRunReport};
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

/// Cluster-level configuration for a harness run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Network delay model.
    pub network: NetworkConfig,
    /// Simulator seed (runs are deterministic per seed).
    pub seed: u64,
    /// Safety bound on simulator events.
    pub max_events: u64,
}

impl ClusterConfig {
    /// A config with the default network and a generous event bound.
    pub fn new(num_objects: usize, seed: u64) -> Self {
        ClusterConfig {
            num_objects,
            network: NetworkConfig::default(),
            seed,
            max_events: 20_000_000,
        }
    }

    /// Overrides the network model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }
}

/// The outcome of a harness run: the recorded history plus metrics.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Short name of the protocol that ran.
    pub protocol: &'static str,
    /// The validated execution history (one record per completed
    /// m-operation, with real invocation/response times).
    pub history: History,
    /// Response time of every completed m-operation, by class (ns).
    pub latencies: Vec<(MOpClass, u64)>,
    /// Per-replica message counters.
    pub replica_metrics: Vec<ReplicaMetrics>,
    /// Simulator counters (total messages, events, virtual duration).
    pub sim: RunStats,
    /// The agreed atomic-broadcast delivery order of update m-operations
    /// (the protocol's `~ww` order), identical at every replica.
    pub update_order: Vec<MOpId>,
    /// Each replica's object store at quiescence. Once every broadcast has
    /// been delivered everywhere, all stores must agree (replica
    /// convergence) — asserted by the Theorem 15/20 tests.
    pub final_stores: Vec<ReplicaStore>,
}

impl RunReport {
    /// Mean response time over completed m-operations of `class`, in
    /// nanoseconds; `None` if none completed.
    pub fn mean_latency(&self, class: MOpClass) -> Option<f64> {
        let xs = class_latencies(&self.latencies, class);
        (!xs.is_empty()).then(|| xs.iter().sum::<u64>() as f64 / xs.len() as f64)
    }

    /// The p-th percentile (0..=100) response time for `class`.
    pub fn percentile_latency(&self, class: MOpClass, p: f64) -> Option<u64> {
        percentile_latency(&self.latencies, class, p)
    }

    /// Total network messages sent during the run.
    pub fn total_messages(&self) -> u64 {
        self.sim.messages_sent
    }

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

fn class_latencies(latencies: &[(MOpClass, u64)], class: MOpClass) -> Vec<u64> {
    let of_class = latencies.iter().filter(|(c, _)| *c == class);
    of_class.map(|&(_, l)| l).collect()
}

/// The p-th percentile (0..=100) of the `class` entries of `latencies`.
pub(crate) fn percentile_latency(
    latencies: &[(MOpClass, u64)],
    class: MOpClass,
    p: f64,
) -> Option<u64> {
    let mut xs = class_latencies(latencies, class);
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    let rank = ((p / 100.0) * (xs.len() - 1) as f64).round() as usize;
    Some(xs[rank.min(xs.len() - 1)])
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
pub(crate) fn private_channel_violations(
    me: ProcessId,
    log: &[MOpId],
    records: &[MOpRecord],
) -> u64 {
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
/// configured by `config`, behind a reliable link tuned by `link` or, for
/// `None`, on the trusted channel. Returns the chaos-shaped report — which
/// [`run_cluster`] reshapes — and each replica's final store.
pub(crate) fn simulate<R: ReplicaProtocol + 'static>(
    config: &ChaosConfig,
    link: Option<LinkConfig>,
    scripts: Vec<ClientScript>,
) -> (ChaosRunReport, Vec<ReplicaStore>) {
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
                link,
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
    let report = ChaosRunReport {
        protocol: R::protocol_name(),
        latencies: records.iter().map(|r| (r.treated_as, span(r))).collect(),
        history: History::new(config.num_objects, records).map_err(|e| e.to_string()),
        replica_metrics: replicas.iter().map(|r| r.metrics()).collect(),
        link_stats,
        sim,
        update_order,
        channel_logs,
        private_fast_logs,
        anomalies,
        view_transcripts: replicas.iter().map(|r| r.abcast_transcript()).collect(),
        commute_fast_applied: replicas.iter().map(|r| r.commute_fast_applied()).collect(),
        batch_stats: replicas.iter().map(|r| r.batch_stats()).collect(),
        monitor,
    };
    (report, replicas.iter().map(|r| r.store().clone()).collect())
}

/// Runs protocol `R` over the given client scripts (one per process; the
/// cluster size is `scripts.len()`) and returns the recorded history and
/// metrics.
///
/// # Panics
///
/// Panics if the simulation exceeds `config.max_events` (a liveness bug) or
/// if the recorded history fails validation (a safety bug in the replica
/// implementation) — both indicate defects in this crate, not user error.
pub fn run_cluster<R: ReplicaProtocol + 'static>(
    config: &ClusterConfig,
    scripts: Vec<ClientScript>,
) -> RunReport {
    let chaos = ChaosConfig::new(config.num_objects, config.seed)
        .with_network(config.network)
        .with_max_events(config.max_events);
    let (run, final_stores) = simulate::<R>(&chaos, None, scripts);
    assert!(
        !run.anomalies.stalled,
        "simulation did not quiesce within {} events",
        config.max_events
    );
    assert!(
        !run.anomalies.delivery_divergence,
        "replicas disagree on a channel's broadcast order"
    );
    assert!(
        run.anomalies.unfinished_ops == 0 && run.anomalies.orphan_completions == 0,
        "client script did not finish: protocol lost an operation"
    );
    RunReport {
        protocol: run.protocol,
        history: run.history.expect("protocol produced an invalid history"),
        latencies: run.latencies,
        replica_metrics: run.replica_metrics,
        sim: run.sim,
        update_order: run.update_order,
        final_stores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MlinOverSequencer, MscOverSequencer};
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
        assert!(report.mean_latency(MOpClass::Query).is_some());
        assert!(report.total_messages() > 0);
        // msc queries are local: query latency is (essentially) zero.
        assert_eq!(report.percentile_latency(MOpClass::Query, 100.0), Some(0));
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

    #[test]
    fn determinism_across_runs() {
        let mk = || {
            let config = ClusterConfig::new(2, 99);
            let scripts = vec![
                ClientScript::new(vec![OpSpec::new(inc_x(), vec![]); 3]),
                ClientScript::new(vec![OpSpec::new(read_x(), vec![]); 3]),
            ];
            run_cluster::<MlinOverSequencer>(&config, scripts)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.history.records(), b.history.records());
        assert_eq!(a.latencies, b.latencies);
    }
}
