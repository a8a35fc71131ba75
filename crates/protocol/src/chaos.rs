//! Chaos harness: hosts protocol replicas on the fault-injecting
//! simulator, with the [`moc_abcast::ReliableLink`] sublayer between the
//! replicas and the wire.
//!
//! This is [`crate::harness`] — the same simulator node over the same
//! replica host — hardened for hostile networks. The stack is
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
//! m-sequentially consistent / m-linearizable. The chaos conformance
//! suite sweeps seeds × plans and verifies exactly that, auditing every
//! certificate independently.
//!
//! Unlike the fair-weather harness, nothing here panics on protocol
//! misbehavior: a sabotaged link ([`moc_abcast::LinkConfig::sabotaged`])
//! is *expected* to corrupt executions, and the interesting output is the
//! anomaly tally plus a history the checker can refute. Orphaned
//! completions, unfinished scripts, delivery-log divergence and
//! non-quiescence are all recorded in [`ChaosAnomalies`] instead of
//! tripping asserts.

pub use moc_abcast::{LinkConfig, LinkStats};
use moc_core::history::History;
use moc_core::ids::MOpId;
use moc_core::mop::MOpClass;
pub use moc_monitor::{MonitorConfig, MonitorRunSummary};
use moc_sim::{FaultPlan, NetworkConfig, RunStats};

use crate::harness::{self, ClientScript};
use crate::{ReplicaMetrics, ReplicaProtocol};

/// Configuration of a chaos run: the cluster, the fault plan, and the
/// link-layer tuning.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Network delay model.
    pub network: NetworkConfig,
    /// The fault schedule (deterministic per `(seed, faults)`).
    pub faults: FaultPlan,
    /// Reliable-link tuning (or [`LinkConfig::sabotaged`]).
    pub link: LinkConfig,
    /// Simulator seed.
    pub seed: u64,
    /// Event budget; exceeding it sets [`ChaosAnomalies::stalled`] rather
    /// than panicking (a plan that never lets the run quiesce is data,
    /// not a crash).
    pub max_events: u64,
    /// Failover suspicion timeouts `(base_ns, max_ns)` applied to every
    /// replica's broadcast before the run, if set. Ignored by broadcasts
    /// without failover (the fixed sequencer).
    pub failover_timeouts: Option<(u64, u64)>,
    /// A certified shard partition installed on every replica's broadcast
    /// before the run, if set. Ignored by single-order broadcasts.
    pub shard_plan: Option<moc_core::shard::ShardPlan>,
    /// A commute certificate's delivery plan installed on every replica's
    /// broadcast before the run, if set. Ignored by broadcasts without
    /// commutativity fast paths.
    pub commute_plan: Option<moc_core::commute::CommutePlan>,
    /// A group-commit batching configuration installed on every replica's
    /// broadcast before the run, if set. Ignored by broadcasts without
    /// batched stamping.
    pub batching: Option<moc_abcast::BatchConfig>,
    /// When set, an [`OnlineMonitor`] sentinel rides along: every
    /// invocation and completion is streamed into it as it happens (in
    /// simulated time), and the run report carries the rolling
    /// certificates, verdict timeline and any latched violation.
    pub monitor: Option<MonitorConfig>,
}

impl ChaosConfig {
    /// A config with default network, benign faults and default link.
    pub fn new(num_objects: usize, seed: u64) -> Self {
        ChaosConfig {
            num_objects,
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            link: LinkConfig::default(),
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

    /// Overrides the link configuration.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
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
    pub fn with_shard_plan(mut self, plan: moc_core::shard::ShardPlan) -> Self {
        self.shard_plan = Some(plan);
        self
    }

    /// Installs a commute certificate's delivery plan on every replica's
    /// broadcast (see [`crate::ReplicaProtocol::set_commute_plan`]).
    pub fn with_commute_plan(mut self, plan: moc_core::commute::CommutePlan) -> Self {
        self.commute_plan = Some(plan);
        self
    }

    /// Installs a group-commit batching configuration on every replica's
    /// broadcast (see [`crate::ReplicaProtocol::set_batching`]).
    pub fn with_batching(mut self, cfg: moc_abcast::BatchConfig) -> Self {
        self.batching = Some(cfg);
        self
    }

    /// Attaches an online consistency sentinel to the run (see
    /// [`ChaosRunReport::monitor`]).
    pub fn with_monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = Some(monitor);
        self
    }
}

/// Irregularities observed during a chaos run. All zero/false on a
/// healthy stack with a recoverable plan; a sabotaged link is expected to
/// light these up.
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

/// The outcome of a chaos run: the (attempted) history plus metrics and
/// the anomaly tally.
#[derive(Debug, Clone)]
pub struct ChaosRunReport {
    /// Short name of the protocol that ran.
    pub protocol: &'static str,
    /// The recorded history, or the validation error if the run produced
    /// structurally invalid records (possible — and itself evidence —
    /// under a sabotaged link).
    pub history: Result<History, String>,
    /// Response time of every completed m-operation, by class (ns).
    pub latencies: Vec<(MOpClass, u64)>,
    /// Per-replica protocol message counters.
    pub replica_metrics: Vec<ReplicaMetrics>,
    /// Per-replica link counters (retransmissions, dedup discards, …).
    pub link_stats: Vec<LinkStats>,
    /// Simulator counters, including fault counters (drops, duplicates,
    /// crashes).
    pub sim: RunStats,
    /// Replica 0's atomic-broadcast delivery order.
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
    pub batch_stats: Vec<moc_abcast::BatchStats>,
    /// The online sentinel's run summary — rolling certificates, verdict
    /// timeline, and any latched violation with its detection latency —
    /// when [`ChaosConfig::monitor`] was set. `None` otherwise.
    pub monitor: Option<MonitorRunSummary>,
}

impl ChaosRunReport {
    /// The history fingerprint (replay identity), when the history is
    /// valid.
    pub fn fingerprint(&self) -> Option<u64> {
        self.history.as_ref().ok().map(moc_core::codec::fingerprint)
    }

    /// The p-th percentile (0..=100) response time for `class`.
    pub fn percentile_latency(&self, class: MOpClass, p: f64) -> Option<u64> {
        harness::percentile_latency(&self.latencies, class, p)
    }

    /// Aggregated group-commit counters across all replicas.
    pub fn total_batch_stats(&self) -> moc_abcast::BatchStats {
        let mut t = moc_abcast::BatchStats::default();
        for s in &self.batch_stats {
            t.merge(*s);
        }
        t
    }

    /// Aggregated link counters across all replicas.
    pub fn total_link_stats(&self) -> LinkStats {
        self.link_stats
            .iter()
            .fold(LinkStats::default(), |a, s| a.merge(s))
    }
}

/// Runs protocol `R` over `scripts` (one per process) on the
/// fault-injecting simulator with the reliable link in between, and
/// reports everything observed. Never panics on protocol misbehavior —
/// see [`ChaosAnomalies`].
pub fn run_chaos_cluster<R: ReplicaProtocol + 'static>(
    config: &ChaosConfig,
    scripts: Vec<ClientScript>,
) -> ChaosRunReport {
    harness::simulate::<R>(config, Some(config.link), scripts).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{private_channel_violations, OpSpec};
    use crate::{MlinOverSequencer, MscOverSequencer, MscOverSharded, MscOverView};
    use moc_core::ids::{ObjectId, ProcessId};
    use moc_core::mop::{EventTime, MOpRecord};
    use moc_core::program::{reg, ProgramBuilder};
    use moc_sim::DelayModel;
    use std::sync::Arc;

    fn write_x() -> Arc<moc_core::program::Program> {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), moc_core::program::arg(0))
            .ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn read_x() -> Arc<moc_core::program::Program> {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
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
    fn benign_chaos_run_matches_fair_weather_expectations() {
        let cfg = ChaosConfig::new(1, 11);
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5);
        assert_eq!(report.sim.messages_dropped, 0);
        assert!(report.total_link_stats().retransmissions == 0);
    }

    #[test]
    fn msc_completes_under_drops_and_duplicates() {
        let cfg = ChaosConfig::new(1, 23)
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
        let cfg = ChaosConfig::new(1, 5)
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

    #[test]
    fn chaos_runs_are_deterministic() {
        let mk = || {
            let cfg = ChaosConfig::new(1, 77).with_faults(FaultPlan::lossy(0.2).with_dup(0.1));
            run_chaos_cluster::<MscOverSequencer>(&cfg, scripts())
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().is_some());
        assert_eq!(a.latencies, b.latencies);
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
        let cfg = ChaosConfig::new(1, 13)
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
        let cfg = ChaosConfig::new(1, 13)
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
            let cfg = ChaosConfig::new(1, seed)
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
            ops,
            outputs: vec![],
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
        use crate::AggregateOverSharded;
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
        let cfg = ChaosConfig::new(2, 41)
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
        let cfg = ChaosConfig::new(1, 23)
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
            &ChaosConfig {
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
        let batch = moc_abcast::BatchConfig {
            max_batch: 4,
            max_delay_ns: 5_000,
        };
        let cfg_for = |seed: u64| {
            ChaosConfig::new(1, seed)
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
            let cfg = ChaosConfig::new(1, seed)
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
