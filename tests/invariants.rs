//! The Section 5 timestamp properties (P 5.x), asserted on protocol
//! executions.
//!
//! The correctness proofs rest on a handful of invariants relating the
//! per-object version counters to the broadcast order and the reads-from
//! relation. The recorded histories carry enough provenance to check the
//! observable ones directly:
//!
//! * versions of each object are established 1, 2, 3, … by successive
//!   update m-operations in the broadcast order (`~ww` monotone per
//!   object, P 5.4/P 5.6 made concrete);
//! * a read of version `v` of `x` is attributed to exactly the m-operation
//!   that established version `v` (D 5.1/D 5.6);
//! * an m-operation that reads `x` and also writes `x` establishes version
//!   `v + 1` (P 5.8); one that only reads leaves the version unchanged
//!   (P 5.7);
//! * replicas converge to identical stores with `ts[x]` equal to the
//!   number of update m-operations that wrote `x`.

use std::collections::HashMap;

use moc_abcast::IsisAbcast;
use moc_core::ids::{MOpId, ObjectId};
use moc_protocol::{
    run_cluster, ClusterConfig, MOperation, MlinOverSequencer, MscOverSequencer, MscReplica,
    ReplicaProtocol, RunReport,
};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run<R: ReplicaProtocol + 'static>(seed: u64) -> RunReport {
    let spec = WorkloadSpec {
        processes: 4,
        ops_per_process: 8,
        num_objects: 4,
        update_fraction: 0.6,
        ..WorkloadSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let s = scripts(&spec, &mut rng);
    let config = ClusterConfig::new(spec.num_objects, seed).with_network(
        NetworkConfig::with_delay(DelayModel::Uniform { lo: 10, hi: 30_000 }),
    );
    run_cluster::<R>(&config, s)
}

fn assert_version_invariants(report: &RunReport) {
    let h = &report.history;
    // Versions per object advance 1, 2, 3, … along the broadcast order.
    let mut next_version: HashMap<ObjectId, u64> = HashMap::new();
    // (object, version) -> writer establishing it.
    let mut writer_of: HashMap<(ObjectId, u64), MOpId> = HashMap::new();
    for id in &report.update_order {
        let idx = h.idx_of(*id).expect("delivered op recorded");
        let rec = h.record(idx);
        for w in rec.final_writes() {
            let slot = next_version.entry(w.object).or_insert(1);
            assert_eq!(
                w.version, *slot,
                "{}: write to {} out of version order",
                rec.id, w.object
            );
            writer_of.insert((w.object, w.version), rec.id);
            *slot += 1;
        }
    }

    // Reads attribute versions to their establishing writers (D 5.1), and
    // P 5.7/P 5.8 hold per record.
    for (idx, rec) in h.iter() {
        let wobjects = h.wobjects(idx);
        for r in rec.external_reads() {
            if r.writer.is_initial() {
                assert_eq!(r.version, 0, "{}: initial read has version 0", rec.id);
            } else {
                assert_eq!(
                    writer_of.get(&(r.object, r.version)),
                    Some(&r.writer),
                    "{}: read of {}@v{} misattributed",
                    rec.id,
                    r.object,
                    r.version
                );
            }
            if wobjects.contains(&r.object) {
                // P 5.8: reader overwrites x — its write is version v+1.
                let own = rec
                    .final_writes()
                    .into_iter()
                    .find(|w| w.object == r.object)
                    .expect("writes the object it read");
                assert_eq!(
                    own.version,
                    r.version + 1,
                    "{}: P 5.8 violated on {}",
                    rec.id,
                    r.object
                );
            }
        }
    }

    // Convergence: every replica's ts[x] equals the number of updates that
    // wrote x; stores identical.
    let first = &report.final_stores[0];
    for (i, s) in report.final_stores.iter().enumerate() {
        assert_eq!(s, first, "replica {i} diverged");
    }
    for (obj, next) in &next_version {
        assert_eq!(
            first.ts().get(*obj),
            next - 1,
            "ts[{obj}] disagrees with the number of writes"
        );
    }
}

#[test]
fn msc_sequencer_version_invariants() {
    for seed in 0..6 {
        assert_version_invariants(&run::<MscOverSequencer>(seed));
    }
}

#[test]
fn msc_isis_version_invariants() {
    for seed in 0..6 {
        assert_version_invariants(&run::<MscReplica<IsisAbcast<MOperation>>>(seed));
    }
}

#[test]
fn mlin_version_invariants() {
    for seed in 0..6 {
        assert_version_invariants(&run::<MlinOverSequencer>(seed));
    }
}
