//! The chaos conformance suite: seed-sweeping fault-injection runs of
//! both Section 5 protocols, each verified end to end.
//!
//! The claim under test: over the reliable-link sublayer, any
//! *recoverable* fault plan (drops with p < 1, duplicates, healing
//! partitions, crash-restarts) is invisible to the paper's consistency
//! guarantees. Every sweep run must
//!
//! 1. complete with no anomalies (all scripted m-operations respond,
//!    replicas agree on the broadcast order),
//! 2. record a structurally valid history,
//! 3. satisfy its protocol's condition — m-sequential consistency for
//!    Figure 4, m-linearizability for Figure 6 — via a proof-producing
//!    check, and
//! 4. have that proof independently re-validated by `moc-audit`.
//!
//! A failing tuple prints `(protocol, workload, faults, seed)`, which
//! replays the exact run (the whole stack is deterministic in the seed).
//!
//! The negative path sabotages the link (dedup and retransmission off)
//! under message duplication and demands the *opposite*: a history the
//! checker refutes with a certificate the auditor upholds.

use moc_abcast::LinkConfig;
use moc_audit::audit;
use moc_checker::admissible::SearchLimits;
use moc_checker::certificate::check_certified;
use moc_checker::conditions::Condition;
use moc_monitor::MonitorConfig;
use moc_protocol::{
    run_chaos_cluster, run_cluster, ChaosRunReport, ClientScript, ClusterConfig, MlinOverSequencer,
    MlinOverView, MscOverSequencer, MscOverView, ReplicaProtocol,
};
use moc_sim::FaultPlan;
use moc_workload::chaos::{FaultFamily, WorkloadFamily};
use moc_workload::scripts;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROCESSES: usize = 3;
const OPS_PER_PROCESS: usize = 3;
/// Virtual-time horizon the scheduled faults (partitions, crashes) are
/// placed inside.
const HORIZON_NS: u64 = 1_000_000;
/// Seeds per (protocol, fault-family) cell: 6 families × 34 seeds =
/// 204 (seed, fault-plan) pairs per protocol.
const SEEDS_PER_FAMILY: u64 = 34;

fn sweep_scripts(wl: WorkloadFamily, seed: u64) -> (usize, Vec<ClientScript>) {
    let spec = wl.spec(PROCESSES, OPS_PER_PROCESS);
    let mut rng = StdRng::seed_from_u64(seed);
    (spec.num_objects, scripts(&spec, &mut rng))
}

fn run_one<R: ReplicaProtocol + 'static>(
    family: FaultFamily,
    wl: WorkloadFamily,
    seed: u64,
    condition: Condition,
) -> ChaosRunReport {
    let (num_objects, s) = sweep_scripts(wl, seed);
    let config = ClusterConfig::new(num_objects, seed)
        .with_link(LinkConfig::default())
        .with_faults(family.plan(PROCESSES, HORIZON_NS))
        // The online sentinel rides along on every sweep run, so the
        // whole sweep doubles as streaming/batch cross-validation.
        .with_monitor(MonitorConfig::new(condition).with_window(3));
    run_chaos_cluster::<R>(&config, s)
}

/// Checks one sweep run end to end; panics with a replayable tuple on
/// any deviation.
fn verify_masked(
    report: &ChaosRunReport,
    condition: Condition,
    family: FaultFamily,
    wl: WorkloadFamily,
    seed: u64,
) {
    let tuple = format!(
        "(protocol={}, workload={}, faults={}, seed={seed})",
        report.protocol,
        wl.name(),
        family.name()
    );
    assert!(
        report.anomalies.is_clean(),
        "{tuple}: anomalies {:?}",
        report.anomalies
    );
    let history = report
        .history
        .as_ref()
        .unwrap_or_else(|e| panic!("{tuple}: invalid history: {e}"));
    assert_eq!(
        history.len(),
        PROCESSES * OPS_PER_PROCESS,
        "{tuple}: missing completions"
    );
    let (verdict, cert) = check_certified(history, condition, SearchLimits::default())
        .unwrap_or_else(|e| panic!("{tuple}: checker error: {e}"));
    assert!(
        verdict.satisfied,
        "{tuple}: {condition} VIOLATED: {:?}",
        verdict.reason
    );
    audit(history, &cert.to_text())
        .unwrap_or_else(|e| panic!("{tuple}: auditor rejected the certificate: {e}"));
    // 5. The online sentinel that watched the same run must agree with
    //    the batch verdict: no latched violation, every completion
    //    ingested, and every rolling certificate (a) re-checkable by the
    //    batch checker on its self-contained window and (b) re-accepted
    //    by the independent auditor.
    let summary = report
        .monitor
        .as_ref()
        .expect("sweep runs attach the sentinel");
    assert!(
        summary.violation.is_none(),
        "{tuple}: sentinel latched a violation on a clean run: {:?}",
        summary.violation
    );
    assert_eq!(
        summary.stats.completions as usize,
        history.len(),
        "{tuple}: sentinel missed completions"
    );
    assert!(
        !summary.certs.is_empty(),
        "{tuple}: no rolling certificates emitted"
    );
    for rc in &summary.certs {
        assert!(
            rc.admissible,
            "{tuple}: inadmissible rolling cert v{} on a clean run",
            rc.version
        );
        let (batch, _) = check_certified(&rc.window(), condition, SearchLimits::default())
            .unwrap_or_else(|e| {
                panic!(
                    "{tuple}: batch re-check error on window v{}: {e}",
                    rc.version
                )
            });
        assert!(
            batch.satisfied,
            "{tuple}: batch checker disagrees with rolling cert v{}",
            rc.version
        );
        audit(&rc.window(), &rc.cert_text).unwrap_or_else(|e| {
            panic!(
                "{tuple}: auditor rejected rolling cert v{}: {e}",
                rc.version
            )
        });
    }
}

/// ≥200 (seed, fault-plan) pairs through the Figure 4 protocol: every
/// run m-sequentially consistent, every certificate audit-accepted.
#[test]
fn msc_conformance_sweep() {
    let mut pairs = 0u64;
    for (i, family) in FaultFamily::ALL.into_iter().enumerate() {
        for s in 0..SEEDS_PER_FAMILY {
            let seed = s * FaultFamily::ALL.len() as u64 + i as u64;
            let wl = WorkloadFamily::ALL[(seed as usize) % WorkloadFamily::ALL.len()];
            let report =
                run_one::<MscOverSequencer>(family, wl, seed, Condition::MSequentialConsistency);
            verify_masked(&report, Condition::MSequentialConsistency, family, wl, seed);
            pairs += 1;
        }
    }
    assert!(pairs >= 200, "sweep too small: {pairs}");
}

/// The same sweep through the Figure 6 protocol against the stronger
/// condition: every run m-linearizable, every certificate audited.
#[test]
fn mlin_conformance_sweep() {
    let mut pairs = 0u64;
    for (i, family) in FaultFamily::ALL.into_iter().enumerate() {
        for s in 0..SEEDS_PER_FAMILY {
            let seed = 100_000 + s * FaultFamily::ALL.len() as u64 + i as u64;
            let wl = WorkloadFamily::ALL[(seed as usize) % WorkloadFamily::ALL.len()];
            let report =
                run_one::<MlinOverSequencer>(family, wl, seed, Condition::MLinearizability);
            verify_masked(&report, Condition::MLinearizability, family, wl, seed);
            pairs += 1;
        }
    }
    assert!(pairs >= 200, "sweep too small: {pairs}");
}

/// Negative path: with the link sabotaged (no dedup, no retransmission)
/// under 50% duplication, duplicated broadcast frames reach the Figure 4
/// protocol unprotected. Some seed must produce a history the checker
/// *refutes* — and the refutation certificate must survive the
/// independent auditor. This proves the positive sweep is not vacuous:
/// the checker can see through the fault mask when there isn't one.
#[test]
fn sabotaged_link_yields_an_audited_refutation() {
    let mut refuted = false;
    let mut corrupted_runs = 0u64;
    for seed in 0..300u64 {
        let wl = WorkloadFamily::WriteHeavy;
        let spec = wl.spec(PROCESSES, 4);
        let spec = moc_workload::WorkloadSpec {
            num_objects: 1,
            max_span: 1,
            ..spec
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(1, seed)
            .with_faults(FaultPlan::default().with_dup(0.5))
            .with_link(LinkConfig::sabotaged())
            .with_monitor(MonitorConfig::new(Condition::MSequentialConsistency).with_window(3));
        let report = run_chaos_cluster::<MscOverSequencer>(&config, s);
        if !report.anomalies.is_clean() {
            corrupted_runs += 1;
        }
        let Ok(history) = &report.history else {
            // Structural corruption is also evidence, but the goal here
            // is a checkable refutation.
            continue;
        };
        let (verdict, cert) = match check_certified(
            history,
            Condition::MSequentialConsistency,
            SearchLimits::default(),
        ) {
            Ok(v) => v,
            Err(_) => continue,
        };
        if !verdict.satisfied {
            audit(history, &cert.to_text())
                .unwrap_or_else(|e| panic!("seed {seed}: auditor rejected the refutation: {e}"));
            // The sentinel streamed the same run: the corruption the
            // batch checker refutes must already have latched online,
            // and its refutation certificate (when the latch came from a
            // window check rather than structural damage) must survive
            // the independent auditor too.
            let summary = report.monitor.as_ref().expect("sentinel attached");
            let v = summary.violation.as_ref().unwrap_or_else(|| {
                panic!("seed {seed}: batch refuted but the sentinel never latched")
            });
            if let Some(rc) = &v.cert {
                audit(&rc.window(), &rc.cert_text).unwrap_or_else(|e| {
                    panic!("seed {seed}: sentinel refutation cert rejected: {e}")
                });
            }
            refuted = true;
            break;
        }
    }
    assert!(
        corrupted_runs > 0,
        "sabotage never even disturbed a run — the fault plan is inert"
    );
    assert!(
        refuted,
        "no seed in 0..300 produced an audited sc refutation under the sabotaged link"
    );
}

/// Horizon for the leader-crash sweeps. Think-time-stretched scripts put
/// the second and third invocation waves inside the crash windows, so
/// the coordinator really dies with work in flight.
const LEADER_HORIZON_NS: u64 = 240_000;
const LEADER_THINK_NS: u64 = 60_000;

fn run_leader_one<R: ReplicaProtocol + 'static>(
    family: FaultFamily,
    wl: WorkloadFamily,
    seed: u64,
    condition: Condition,
) -> ChaosRunReport {
    let (num_objects, s) = sweep_scripts(wl, seed);
    let s = s
        .into_iter()
        .map(|c| c.with_think_time(LEADER_THINK_NS))
        .collect();
    let config = ClusterConfig::new(num_objects, seed)
        .with_link(LinkConfig::default())
        .with_faults(family.plan(PROCESSES, LEADER_HORIZON_NS))
        // Suspicion well below the outage lengths, so failover fires
        // inside every crash window instead of waiting out the victim.
        .with_failover_timeouts(15_000, 120_000)
        // The sentinel observes crash-during-view-change runs too — the
        // LeaderCrashRepeat family kills the *incoming* leader while its
        // handshake is still in flight, with the monitor watching.
        .with_monitor(MonitorConfig::new(condition).with_window(3));
    run_chaos_cluster::<R>(&config, s)
}

/// Sweeps the leader-crash families through a view-based run of
/// protocol `R`, verifying each surviving history end to end and
/// demanding that every family actually exercised a view change on at
/// least one seed (no vacuous passes).
fn leader_crash_sweep<R: ReplicaProtocol + 'static>(condition: Condition, seed_base: u64) {
    for (i, family) in FaultFamily::LEADER_CRASH.into_iter().enumerate() {
        let mut failovers = 0u64;
        for s in 0..SEEDS_PER_FAMILY {
            let seed = seed_base + s * FaultFamily::LEADER_CRASH.len() as u64 + i as u64;
            let wl = WorkloadFamily::ALL[(seed as usize) % WorkloadFamily::ALL.len()];
            let report = run_leader_one::<R>(family, wl, seed, condition);
            verify_masked(&report, condition, family, wl, seed);
            if report
                .view_transcripts
                .iter()
                .flatten()
                .any(|line| line.contains("install v"))
            {
                failovers += 1;
            }
        }
        assert!(
            failovers > 0,
            "{}: no seed exercised a view change — the sweep is vacuous",
            family.name()
        );
    }
}

/// Tentpole positive path, Figure 4: crash the current coordinator
/// mid-run — the initial leader, and (in the repeat family) two
/// successive leaders — and demand a complete, certified,
/// audit-accepted m-sequentially-consistent history every time.
#[test]
fn msc_leader_crash_sweep() {
    leader_crash_sweep::<MscOverView>(Condition::MSequentialConsistency, 200_000);
}

/// Tentpole positive path, Figure 6: the same leader-crash sweep against
/// m-linearizability.
#[test]
fn mlin_leader_crash_sweep() {
    leader_crash_sweep::<MlinOverView>(Condition::MLinearizability, 300_000);
}

/// S1/S3 negative control: the same mid-burst coordinator crash under
/// the *fixed* sequencer must be detected — a restarted sequencer
/// fail-stops, so the run surfaces unfinished operations (or a stall)
/// rather than silently forking the agreed order.
#[test]
fn crashed_fixed_sequencer_is_detected_not_silent() {
    for seed in 0..6u64 {
        // All-update scripts guarantee ordering work is pending through
        // the outage regardless of the seed.
        let spec = moc_workload::WorkloadSpec {
            processes: PROCESSES,
            ops_per_process: OPS_PER_PROCESS,
            update_fraction: 1.0,
            ..moc_workload::WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s: Vec<ClientScript> = scripts(&spec, &mut rng)
            .into_iter()
            .map(|c| c.with_think_time(LEADER_THINK_NS))
            .collect();
        let config = ClusterConfig::new(spec.num_objects, seed)
            .with_link(LinkConfig::default())
            .with_faults(FaultFamily::LeaderCrashBurst.plan(PROCESSES, LEADER_HORIZON_NS))
            .with_max_events(2_000_000);
        let report = run_chaos_cluster::<MscOverSequencer>(&config, s);
        assert!(
            !report.anomalies.is_clean(),
            "seed {seed}: a dead coordinator must be detectable: {:?}",
            report.anomalies
        );
        assert!(report.anomalies.unfinished_ops > 0 || report.anomalies.stalled);
        assert!(
            !report.anomalies.delivery_divergence,
            "seed {seed}: fail-stop must prevent a forked order"
        );
        assert!(
            report.view_transcripts[0]
                .iter()
                .any(|line| line.contains("halted")),
            "seed {seed}: the restarted sequencer recorded its fail-stop"
        );
    }
}

/// S6 — failover determinism: the same seed and leader-crash plan must
/// reproduce identical history fingerprints *and* identical view-change
/// transcripts.
#[test]
fn leader_crash_replays_identically() {
    for family in FaultFamily::LEADER_CRASH {
        for seed in [7u64, 99] {
            let a = run_leader_one::<MscOverView>(
                family,
                WorkloadFamily::Mixed,
                seed,
                Condition::MSequentialConsistency,
            );
            let b = run_leader_one::<MscOverView>(
                family,
                WorkloadFamily::Mixed,
                seed,
                Condition::MSequentialConsistency,
            );
            assert_eq!(a.sim, b.sim, "{}/{seed}: RunStats diverged", family.name());
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{}/{seed}: history fingerprint diverged",
                family.name()
            );
            assert!(a.fingerprint().is_some(), "{}/{seed}", family.name());
            assert_eq!(
                a.view_transcripts,
                b.view_transcripts,
                "{}/{seed}: view-change transcripts must replay byte-identically",
                family.name()
            );
            assert_eq!(a.update_order, b.update_order);
            assert_eq!(a.latencies, b.latencies);
        }
    }
}

/// S2 — determinism regression: the same `(seed, FaultPlan)` must give a
/// byte-identical execution — identical simulator stats (including fault
/// counters) and an identical history fingerprint.
#[test]
fn chaos_runs_replay_identically() {
    for family in [FaultFamily::LossyDup, FaultFamily::Storm] {
        for seed in [3u64, 41, 977] {
            let a = run_one::<MscOverSequencer>(
                family,
                WorkloadFamily::Mixed,
                seed,
                Condition::MSequentialConsistency,
            );
            let b = run_one::<MscOverSequencer>(
                family,
                WorkloadFamily::Mixed,
                seed,
                Condition::MSequentialConsistency,
            );
            assert_eq!(a.sim, b.sim, "{}/{seed}: RunStats diverged", family.name());
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{}/{seed}: history fingerprint diverged",
                family.name()
            );
            assert!(a.fingerprint().is_some(), "{}/{seed}", family.name());
            assert_eq!(a.update_order, b.update_order);
            assert_eq!(a.latencies, b.latencies);
        }
    }
}

// ---------------------------------------------------------------------
// Conflict-sharded ordering over a certified partition.
// ---------------------------------------------------------------------

use moc_analyze::{shard_set, ShardOptions};
use moc_core::shard::{RoutePolicy, ShardPlan};
use moc_protocol::MscOverSharded;
use moc_workload::{confined_scripts, hub_programs, hub_scripts};

/// Derives the certified shard plan for the shardable workload with
/// `num_shards` groups, insisting the analysis is clean and the emitted
/// certificate survives the independent auditor — the same gate `moc
/// shard` + `moc audit` enforce in CI.
fn certified_plan(num_shards: usize) -> ShardPlan {
    let programs = moc_workload::shardable_programs(num_shards);
    let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
    let analysis = shard_set(&refs, 0, ShardOptions::default());
    assert!(
        analysis
            .all_findings()
            .iter()
            .all(|f| f.severity < moc_analyze::Severity::Error),
        "shardable workload must analyze cleanly"
    );
    let verdict = moc_audit::audit_shard(&refs, &analysis.cert.to_json())
        .expect("auditor accepts the analyzer's own certificate");
    assert_eq!(verdict.num_shards as usize, num_shards);
    assert_eq!(verdict.cross_edges, 0, "groups are disjoint");
    analysis.cert.plan().expect("certificate yields a plan")
}

/// Tentpole positive path: the Figure 4 protocol over the conflict-
/// sharded broadcast, with the partition taken from an audited
/// certificate and clients confined to their own shard (the m-SC side
/// condition the certificate states). 2–4 shards × 6 fault families ×
/// seeds ≥ 108 (seed, plan) runs; every history must be complete,
/// m-sequentially consistent, and its proof audit-accepted — while
/// single-shard updates demonstrably flow through shard-local channels,
/// never the global one.
#[test]
fn sharded_msc_conformance_sweep() {
    let mut pairs = 0u64;
    for num_shards in 2..=4usize {
        let plan = certified_plan(num_shards);
        let processes = num_shards.max(3);
        for (i, family) in FaultFamily::ALL.into_iter().enumerate() {
            for s in 0..6u64 {
                let seed = 400_000
                    + num_shards as u64 * 10_000
                    + s * FaultFamily::ALL.len() as u64
                    + i as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let scripts = confined_scripts(num_shards, processes, OPS_PER_PROCESS, 1, &mut rng);
                let config = ClusterConfig::new(2 * num_shards, seed)
                    .with_link(LinkConfig::default())
                    .with_faults(family.plan(processes, HORIZON_NS))
                    .with_shard_plan(plan.clone());
                let report = run_chaos_cluster::<MscOverSharded>(&config, scripts);
                let tuple = format!(
                    "(protocol=msc-sharded, shards={num_shards}, faults={}, seed={seed})",
                    family.name()
                );
                assert!(
                    report.anomalies.is_clean(),
                    "{tuple}: anomalies {:?}",
                    report.anomalies
                );
                let history = report
                    .history
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{tuple}: invalid history: {e}"));
                assert_eq!(
                    history.len(),
                    processes * OPS_PER_PROCESS,
                    "{tuple}: missing completions"
                );
                let (verdict, cert) = check_certified(
                    history,
                    Condition::MSequentialConsistency,
                    SearchLimits::default(),
                )
                .unwrap_or_else(|e| panic!("{tuple}: checker error: {e}"));
                assert!(
                    verdict.satisfied,
                    "{tuple}: m-sc VIOLATED: {:?}",
                    verdict.reason
                );
                audit(history, &cert.to_text())
                    .unwrap_or_else(|e| panic!("{tuple}: auditor rejected the certificate: {e}"));
                // Shard-local ordering: confined clients never produce a
                // cross-shard footprint, so the global channel stays idle
                // and every shard channel that got updates kept them.
                let updates = report.update_order.len();
                let per_channel: usize = report.channel_logs.iter().map(|l| l.len()).sum();
                assert_eq!(per_channel, updates, "{tuple}: channel logs cover the log");
                assert!(
                    report.channel_logs.len() <= num_shards,
                    "{tuple}: confined updates must not reach the global channel"
                );
                if updates > 0 {
                    assert!(
                        report.channel_logs.iter().any(|l| !l.is_empty()),
                        "{tuple}: updates flowed through shard channels"
                    );
                }
                pairs += 1;
            }
        }
    }
    assert!(pairs >= 100, "sweep too small: {pairs}");
}

/// Sharded runs replay deterministically, like every other chaos run.
#[test]
fn sharded_runs_replay_identically() {
    let plan = certified_plan(3);
    let mk = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts = confined_scripts(3, 3, 4, 1, &mut rng);
        let config = ClusterConfig::new(6, seed)
            .with_link(LinkConfig::default())
            .with_faults(FaultPlan::lossy(0.15).with_dup(0.1))
            .with_shard_plan(plan.clone());
        run_chaos_cluster::<MscOverSharded>(&config, scripts)
    };
    for seed in [5u64, 431] {
        let (a, b) = (mk(seed), mk(seed));
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().is_some());
        assert_eq!(a.channel_logs, b.channel_logs);
        assert_eq!(a.latencies, b.latencies);
    }
}

/// Sabotage control: mis-shard the hub workload. The certificate auditor
/// rejects the doctored partition up front; forcing the protocol to run
/// it anyway (first-object routing splits the two conflicting hub
/// writers across channels) corrupts real executions detectably —
/// replica stores diverge even though every individual channel's order
/// is still agreed.
#[test]
fn missharded_hub_object_is_caught() {
    let programs = hub_programs();
    let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();

    // The honest analysis refuses to split the hub component: one shard.
    let honest = shard_set(&refs, 0, ShardOptions::default());
    assert_eq!(
        honest.cert.shards.len(),
        1,
        "hub holds the component together"
    );
    moc_audit::audit_shard(&refs, &honest.cert.to_json())
        .expect("the honest single-shard certificate audits clean");

    // A doctored certificate claiming the split is rejected up front.
    let mut doctored = moc_core::shard::ShardCert::parse(&honest.cert.to_json()).unwrap();
    doctored.shards = vec![
        vec![
            moc_core::ids::ObjectId::new(0),
            moc_core::ids::ObjectId::new(2),
        ],
        vec![moc_core::ids::ObjectId::new(1)],
    ];
    let err = moc_audit::audit_shard(&refs, &doctored.to_json())
        .expect_err("a mis-sharded hub certificate must be rejected");
    assert!(
        err.contains("footprint closure") || err.contains("shard"),
        "rejection names the partition defect: {err}"
    );

    // Run the uncertifiable partition anyway, with the sabotage routing
    // policy that sends each hub writer to its first object's shard.
    let missharded = ShardPlan::new(vec![0, 1, 0])
        .unwrap()
        .with_route_policy(RoutePolicy::FirstObject);
    let mut corrupted = 0u64;
    let mut runs = 0u64;
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts = hub_scripts(3, 4, 1, &mut rng);
        let config = ClusterConfig::new(3, seed)
            .with_link(LinkConfig::default())
            .with_shard_plan(missharded.clone());
        let report = run_chaos_cluster::<MscOverSharded>(&config, scripts);
        runs += 1;
        if report.anomalies.store_divergence {
            corrupted += 1;
        }
    }
    assert!(
        corrupted > 0,
        "the mis-sharded hub never corrupted a run in {runs} seeds — the control is inert"
    );

    // Control of the control: the same workload under the honest
    // single-shard plan is clean on the same seeds.
    let honest_plan = honest.cert.plan().unwrap();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts = hub_scripts(3, 4, 1, &mut rng);
        let config = ClusterConfig::new(3, seed)
            .with_link(LinkConfig::default())
            .with_shard_plan(honest_plan.clone());
        let report = run_chaos_cluster::<MscOverSharded>(&config, scripts);
        assert!(
            report.anomalies.is_clean(),
            "seed {seed}: honest plan must be clean: {:?}",
            report.anomalies
        );
    }
}

/// `run_cluster` checks what `missharded_hub_object_is_caught` counts:
/// on the trusted channel too, the mis-sharded hub plan makes the replica
/// stores diverge, and the run panics on it.
#[test]
#[should_panic(expected = "store_divergence: true")]
fn run_cluster_panics_on_missharded_store_divergence() {
    let missharded = ShardPlan::new(vec![0, 1, 0])
        .unwrap()
        .with_route_policy(RoutePolicy::FirstObject);
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts = hub_scripts(3, 4, 1, &mut rng);
        let config = ClusterConfig::new(3, seed).with_shard_plan(missharded.clone());
        run_cluster::<MscOverSharded>(&config, scripts);
    }
}

// ---------------------------------------------------------------------
// Certificate-gated out-of-order delivery (the commute fast path).
// ---------------------------------------------------------------------

use moc_core::commute::{CommuteCert, CommutePlan, MoverClass};
use moc_workload::{commuting_scripts, cross_shard_writer_program, shardable_programs};

/// The audited commute certificate for the commuting workload: every
/// shard-confined program plus the blind cross-shard writer. Mirrors the
/// `moc commute` + `moc audit` gate: the analysis must be Error-free and
/// the certificate must survive the independent auditor.
fn certified_commute_cert(num_shards: usize) -> CommuteCert {
    let mut programs = shardable_programs(num_shards);
    programs.push(cross_shard_writer_program());
    let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
    let analysis = moc_analyze::commute_set(&refs, 2 * num_shards);
    assert!(
        analysis
            .all_findings()
            .iter()
            .all(|f| f.severity < moc_analyze::Severity::Error),
        "commuting workload must analyze cleanly"
    );
    moc_audit::audit_commute(&refs, &analysis.cert.to_json())
        .expect("auditor accepts the analyzer's own commute certificate");
    analysis.cert
}

/// Tentpole positive path, delivery half: Figure 4 over the conflict-
/// sharded broadcast with BOTH certificates installed — the shard plan
/// and the commute certificate's delivery plan. Cross-shard writes may
/// then bypass the barriers of shards they provably commute with. Every
/// run must stay anomaly-free, complete, m-sequentially consistent and
/// audit-accepted, and the fast path must demonstrably engage somewhere
/// in the sweep.
#[test]
fn commute_fast_path_conformance_sweep() {
    let mut pairs = 0u64;
    let mut fast_applied = 0u64;
    for num_shards in 3..=4usize {
        let shard_plan = certified_plan(num_shards);
        let commute_plan = certified_commute_cert(num_shards).delivery_plan(&shard_plan);
        let processes = num_shards;
        for (i, family) in FaultFamily::ALL.into_iter().enumerate() {
            for s in 0..4u64 {
                let seed = 700_000
                    + num_shards as u64 * 10_000
                    + s * FaultFamily::ALL.len() as u64
                    + i as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let scripts =
                    commuting_scripts(num_shards, processes, OPS_PER_PROCESS + 1, 1, &mut rng);
                let config = ClusterConfig::new(2 * num_shards, seed)
                    .with_link(LinkConfig::default())
                    .with_faults(family.plan(processes, HORIZON_NS))
                    .with_shard_plan(shard_plan.clone())
                    .with_commute_plan(commute_plan.clone());
                let report = run_chaos_cluster::<MscOverSharded>(&config, scripts);
                let tuple = format!(
                    "(protocol=msc-sharded+commute, shards={num_shards}, faults={}, seed={seed})",
                    family.name()
                );
                assert!(
                    report.anomalies.is_clean(),
                    "{tuple}: anomalies {:?}",
                    report.anomalies
                );
                let history = report
                    .history
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{tuple}: invalid history: {e}"));
                assert_eq!(
                    history.len(),
                    processes * (OPS_PER_PROCESS + 1),
                    "{tuple}: missing completions"
                );
                let (verdict, cert) = check_certified(
                    history,
                    Condition::MSequentialConsistency,
                    SearchLimits::default(),
                )
                .unwrap_or_else(|e| panic!("{tuple}: checker error: {e}"));
                assert!(
                    verdict.satisfied,
                    "{tuple}: m-sc VIOLATED: {:?}",
                    verdict.reason
                );
                audit(history, &cert.to_text())
                    .unwrap_or_else(|e| panic!("{tuple}: auditor rejected the certificate: {e}"));
                fast_applied += report.commute_fast_applied.iter().sum::<u64>();
                pairs += 1;
            }
        }
    }
    assert!(pairs >= 48, "sweep too small: {pairs}");
    assert!(
        fast_applied > 0,
        "the certified fast path never engaged across {pairs} runs"
    );
}

/// Sabotage control for the delivery fast path. A doctored certificate
/// claiming the cross-shard writer commutes with everything is rejected
/// by the auditor up front; forcing delivery to honor a fabricated
/// everything-commutes plan anyway corrupts real executions detectably —
/// replica stores diverge — while the honest plan stays clean on the
/// same seeds.
#[test]
fn fabricated_commute_cert_is_caught() {
    let num_shards = 2usize;
    let honest = certified_commute_cert(num_shards);

    // Doctoring the cross writer into a both-mover breaks the internal
    // consistency the auditor re-derives in O(pairs): rejected up front.
    let mut doctored = CommuteCert::parse(&honest.to_json()).unwrap();
    let cross = doctored
        .programs
        .iter_mut()
        .find(|p| p.claim.name == "x-w")
        .expect("the cross writer is in the certificate");
    assert_eq!(cross.class, MoverClass::NonMover);
    cross.class = MoverClass::BothMover;
    let programs: Vec<_> = shardable_programs(num_shards)
        .into_iter()
        .chain([cross_shard_writer_program()])
        .collect();
    let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
    moc_audit::audit_commute(&refs, &doctored.to_json())
        .expect_err("a doctored mover class must be rejected");

    // Run the fabricated plan anyway: with every barrier skippable, the
    // cross writes race the shard channels and replicas disagree.
    let shard_plan = certified_plan(num_shards);
    let mut corrupted = 0u64;
    let mut runs = 0u64;
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts = commuting_scripts(num_shards, 3, 4, 1, &mut rng);
        let config = ClusterConfig::new(2 * num_shards, seed)
            .with_link(LinkConfig::default())
            .with_shard_plan(shard_plan.clone())
            .with_commute_plan(CommutePlan::vacuous(num_shards));
        let report = run_chaos_cluster::<MscOverSharded>(&config, scripts);
        runs += 1;
        if report.anomalies.store_divergence {
            corrupted += 1;
        }
    }
    assert!(
        corrupted > 0,
        "the fabricated commute plan never corrupted a run in {runs} seeds — the control is inert"
    );

    // Control of the control: the honest delivery plan is clean on the
    // same seeds.
    let commute_plan = honest.delivery_plan(&shard_plan);
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts = commuting_scripts(num_shards, 3, 4, 1, &mut rng);
        let config = ClusterConfig::new(2 * num_shards, seed)
            .with_link(LinkConfig::default())
            .with_shard_plan(shard_plan.clone())
            .with_commute_plan(commute_plan.clone());
        let report = run_chaos_cluster::<MscOverSharded>(&config, scripts);
        assert!(
            report.anomalies.is_clean(),
            "seed {seed}: honest commute plan must be clean: {:?}",
            report.anomalies
        );
    }
}

/// S2 (explorer half): exhaustive exploration with a duplicate budget is
/// deterministic — two identical invocations enumerate the same
/// schedules and find the same violations.
#[test]
fn mc_exploration_replays_identically() {
    use moc_checker::conditions::Condition;
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_mc::{explore, ExploreLimits};
    use moc_protocol::OpSpec;
    use std::sync::Arc;

    let wx = |v: i64| {
        let mut b = ProgramBuilder::new(format!("w{v}"));
        b.write(ObjectId::new(0), imm(v)).ret(vec![]);
        OpSpec::new(Arc::new(b.build().unwrap()), vec![])
    };
    let rx = || {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        OpSpec::new(Arc::new(b.build().unwrap()), vec![])
    };
    let run = || {
        explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), wx(2)], vec![rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_schedules: 50_000,
                max_duplicates: 1,
                ..ExploreLimits::default()
            },
        )
    };
    let (a, b) = (run(), run());
    assert_eq!((a.schedules, a.violations.len()), (30_160, 28_512));
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.truncated, b.truncated);
    assert_eq!(a.violations.len(), b.violations.len());
    for (va, vb) in a.violations.iter().zip(&b.violations) {
        assert_eq!(
            moc_core::codec::fingerprint(&va.history),
            moc_core::codec::fingerprint(&vb.history)
        );
        assert_eq!(va.reason, vb.reason);
    }
}
