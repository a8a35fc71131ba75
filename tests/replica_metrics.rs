//! Message and apply accounting of the one replica, per figure.
//!
//! The same seeded `moc-workload` scripts run through `run_cluster` under
//! each of the four figure markers. The summed [`ReplicaMetrics`] are
//! pinned to the values the four separate replica implementations
//! produced before they were unified, and the paper's cost shape is
//! asserted next to them: Figure 4 answers queries without a message,
//! Figure 6 pays `2n` per query, the relevant-objects scope ships fewer
//! values than the full one, and the aggregate strawman makes every
//! replica apply every query.

use moc_core::mop::MOpClass;
use moc_protocol::{
    run_cluster, AggregateOverSequencer, ClientScript, ClusterConfig, MlinOverSequencer,
    MlinRelevantOverSequencer, MscOverSequencer, ReplicaMetrics, ReplicaProtocol,
};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 3] = [1, 2, 3];
const SPEC: WorkloadSpec = WorkloadSpec {
    processes: 3,
    ops_per_process: 8,
    num_objects: 6,
    update_fraction: 0.5,
    max_span: 3,
    hot_fraction: 0.5,
    hot_objects: 2,
    think_ns: 100,
};

fn workload(seed: u64) -> Vec<ClientScript> {
    scripts(&SPEC, &mut StdRng::seed_from_u64(seed))
}

/// Runs every seed under `R`; returns the replicas' summed counters and
/// how many of the recorded m-operations were handled as queries.
fn summed<R>() -> (ReplicaMetrics, u64)
where
    R: ReplicaProtocol + 'static,
{
    let mut total = ReplicaMetrics::default();
    let mut queries = 0;
    for seed in SEEDS {
        let config = ClusterConfig::new(SPEC.num_objects, seed);
        let report = run_cluster::<R>(&config, workload(seed));
        assert_eq!(report.history.len(), SPEC.total_ops());
        queries += report
            .history
            .records()
            .iter()
            .filter(|r| r.treated_as == MOpClass::Query)
            .count() as u64;
        for m in report.replica_metrics {
            total.update_msgs_sent += m.update_msgs_sent;
            total.query_msgs_sent += m.query_msgs_sent;
            total.updates_applied += m.updates_applied;
            total.queries_completed += m.queries_completed;
            total.query_values_sent += m.query_values_sent;
        }
    }
    (total, queries)
}

fn metrics(
    update_msgs_sent: u64,
    query_msgs_sent: u64,
    updates_applied: u64,
    queries_completed: u64,
    query_values_sent: u64,
) -> ReplicaMetrics {
    ReplicaMetrics {
        update_msgs_sent,
        query_msgs_sent,
        updates_applied,
        queries_completed,
        query_values_sent,
    }
}

#[test]
fn accounting_is_pinned_and_has_the_papers_shape() {
    let n = SPEC.processes as u64;
    let (msc, queries) = summed::<MscOverSequencer>();
    let (mlin, mlin_queries) = summed::<MlinOverSequencer>();
    let (relevant, relevant_queries) = summed::<MlinRelevantOverSequencer>();
    let (aggregate, aggregate_queries) = summed::<AggregateOverSequencer>();

    // Captured from the four pre-unification implementations (commit
    // 08eaf0f) on these scripts: 36 updates, 36 queries, n = 3.
    assert_eq!(queries, 36);
    assert_eq!(msc, metrics(144, 0, 108, 36, 0));
    assert_eq!(mlin, metrics(144, 216, 108, 36, 648));
    assert_eq!(relevant, metrics(144, 216, 108, 36, 210));
    assert_eq!(aggregate, metrics(252, 36, 108, 108, 0));

    // Every figure classifies the same scripts the same way.
    assert_eq!(
        [mlin_queries, relevant_queries, aggregate_queries],
        [queries; 3]
    );
    // Figure 4, A3: a query costs no message.
    assert_eq!(msc.query_msgs_sent, 0);
    // Figure 6, A3 + A4: n "query" messages out, n responses back.
    assert_eq!(mlin.query_msgs_sent, 2 * n * queries);
    assert_eq!(relevant.query_msgs_sent, 2 * n * queries);
    // Section 5.2's closing remark: shipping only the referenced objects
    // is strictly cheaper than shipping the whole array.
    assert!(relevant.query_values_sent < mlin.query_values_sent);
    // The strawman: every replica applies every query.
    assert_eq!(aggregate.queries_completed, n * queries);
}
