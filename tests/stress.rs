//! Larger randomized end-to-end runs, verified with the polynomial
//! Theorem 7 checker (the brute-force search would not scale to these
//! history sizes — which is exactly the paper's point).

use moc_abcast::IsisAbcast;
use moc_checker::certificate::certify;
use moc_checker::conditions::Condition;
use moc_checker::SearchLimits;
use moc_protocol::{
    run_cluster, ClusterConfig, MOperation, MlinOverSequencer, MscReplica, RunReport,
};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn big_spec() -> WorkloadSpec {
    WorkloadSpec {
        processes: 8,
        ops_per_process: 30,
        num_objects: 12,
        update_fraction: 0.5,
        max_span: 4,
        hot_fraction: 0.6,
        hot_objects: 3,
        think_ns: 200,
    }
}

fn assert_fast_admissible(report: &RunReport, condition: Condition) {
    let ww = report.ww_order();
    let (outcome, _) = certify(
        &report.history,
        condition,
        Some(&ww),
        SearchLimits::default(),
    )
    .expect("Theorem 7 decides without search");
    assert!(
        outcome.by_theorem7,
        "protocol histories satisfy the WW-constraint"
    );
    assert!(
        outcome.satisfied,
        "{}: history of {} ops not admissible: {:?}",
        report.protocol,
        report.history.len(),
        outcome.reason
    );
}

#[test]
fn msc_isis_240_operations() {
    let spec = big_spec();
    let mut rng = StdRng::seed_from_u64(1001);
    let s = scripts(&spec, &mut rng);
    let config = ClusterConfig::new(spec.num_objects, 1001).with_network(
        NetworkConfig::with_delay(DelayModel::Uniform { lo: 50, hi: 50_000 }),
    );
    let report = run_cluster::<MscReplica<IsisAbcast<MOperation>>>(&config, s);
    assert_eq!(report.history.len(), spec.total_ops());
    assert_fast_admissible(&report, Condition::MSequentialConsistency);
}

#[test]
fn mlin_sequencer_240_operations() {
    let spec = big_spec();
    let mut rng = StdRng::seed_from_u64(2002);
    let s = scripts(&spec, &mut rng);
    let config = ClusterConfig::new(spec.num_objects, 2002).with_network(
        NetworkConfig::with_delay(DelayModel::Exponential { mean: 5_000 }),
    );
    let report = run_cluster::<MlinOverSequencer>(&config, s);
    assert_eq!(report.history.len(), spec.total_ops());
    assert_fast_admissible(&report, Condition::MLinearizability);
}

#[test]
fn query_heavy_and_update_heavy_mixes() {
    for (frac, seed) in [(0.1, 7u64), (0.9, 8u64)] {
        let spec = WorkloadSpec {
            update_fraction: frac,
            processes: 6,
            ops_per_process: 20,
            ..big_spec()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(spec.num_objects, seed);
        let report = run_cluster::<MlinOverSequencer>(&config, s);
        assert_fast_admissible(&report, Condition::MLinearizability);
        // The latency split matches the protocol structure: updates pay
        // broadcast latency, queries pay one round trip; both nonzero.
        use moc_core::mop::MOpClass;
        assert!(report.mean_latency(MOpClass::Update).unwrap_or(0.0) > 0.0);
        assert!(report.mean_latency(MOpClass::Query).unwrap_or(0.0) > 0.0);
    }
}
