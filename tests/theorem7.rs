//! Theorem 7 (experiment E5): under the OO- or WW-constraint, a history is
//! admissible **iff** it is legal — so the polynomial constraint-based
//! checker and the exponential brute-force search must always agree.
//!
//! We validate agreement on three families: protocol-generated histories
//! (where the broadcast order supplies the WW edges), serial histories
//! (where real time supplies an OO order), and randomized WW-ordered
//! histories with deliberately scrambled read provenance (where legality
//! frequently fails and both checkers must reject).

use moc_abcast::IsisAbcast;
use moc_checker::admissible::{find_legal_extension, SearchLimits};
use moc_checker::conditions::{check_with_order, Condition, Strategy, StrategyUsed};
use moc_core::constraints::{satisfies, Constraint};
use moc_core::history::{History, MOpIdx};
use moc_core::ids::MOpId;
use moc_core::op::CompletedOp;
use moc_protocol::{run_cluster, ClusterConfig, MOperation, MlinReplica, MscOverSequencer};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::histories::{serial_history, HistorySpec};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs both checkers under the WW-constraint — Theorem 7 over `~H` and
/// `order`, the naive search over the same relation built densely — and
/// asserts agreement. Returns the (shared) verdict.
fn agree(h: &History, condition: Condition, order: &[(MOpIdx, MOpIdx)]) -> bool {
    let ww = Constraint::Ww;
    let fast = check_with_order(h, condition, order, Strategy::Constraint(ww))
        .expect("relation must satisfy the WW-constraint");
    assert_eq!(fast.strategy_used, StrategyUsed::Constraint(ww));
    let mut rel = condition.base_relation(h);
    order.iter().for_each(|&(a, b)| rel.add(a, b));
    let (brute, _) = find_legal_extension(h, &rel, SearchLimits::default());
    assert_eq!(
        fast.satisfied,
        brute.is_admissible(),
        "Theorem 7 violated: fast and brute-force checkers disagree"
    );
    if let Some(witness) = &fast.witness {
        assert!(moc_core::legality::sequence_witnesses_admissibility(
            h, &rel, witness
        ));
    }
    fast.satisfied
}

#[test]
fn agreement_on_protocol_histories() {
    for seed in 0..10u64 {
        let spec = WorkloadSpec {
            processes: 4,
            ops_per_process: 5,
            num_objects: 4,
            update_fraction: 0.6,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(spec.num_objects, seed).with_network(
            NetworkConfig::with_delay(DelayModel::Uniform { lo: 10, hi: 20_000 }),
        );
        let report = run_cluster::<MscOverSequencer>(&config, s);
        let condition = Condition::MSequentialConsistency;
        assert!(
            agree(&report.history, condition, &report.ww_order()),
            "protocol history admissible"
        );
    }
}

#[test]
fn agreement_on_serial_histories_under_real_time() {
    // A serial history's real-time order totally orders everything, which
    // subsumes both OO and WW.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = HistorySpec {
            processes: 3,
            ops_per_process: 5,
            num_objects: 3,
            ..HistorySpec::default()
        };
        let h = serial_history(&spec, &mut rng);
        let lin = Condition::MLinearizability;
        let closed = lin.base_relation(&h).transitive_closure();
        assert!(satisfies(Constraint::Ww, &h, &closed));
        assert!(satisfies(Constraint::Oo, &h, &closed));
        assert!(agree(&h, lin, &[]), "serial history admissible");
    }
}

/// Randomized WW-ordered histories with scrambled provenance: take a
/// serial history, impose its serial order on updates as ~ww, but rewire
/// some reads to random writers. Both checkers must agree on every
/// instance, and rejections must occur.
#[test]
fn agreement_on_scrambled_ww_histories() {
    let mut rejected = 0;
    let mut accepted = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = HistorySpec {
            processes: 3,
            ops_per_process: 4,
            num_objects: 3,
            update_fraction: 0.6,
            ..HistorySpec::default()
        };
        let h = serial_history(&spec, &mut rng);

        // Scramble: each external read re-points to a random writer of the
        // same object (or stays put).
        let mut records = h.records().to_vec();
        let writers_of = |obj: moc_core::ids::ObjectId| -> Vec<(MOpId, i64, u64)> {
            h.writers_of(obj)
                .iter()
                .map(|&w| {
                    let rec = h.record(w);
                    let wr = rec
                        .final_writes()
                        .into_iter()
                        .find(|op| op.object == obj)
                        .unwrap();
                    (rec.id, wr.value, wr.version)
                })
                .collect()
        };
        for rec in &mut records {
            let id = rec.id;
            for op in &mut rec.ops {
                if op.is_read() && op.writer != id && rng.gen_bool(0.5) {
                    let cands: Vec<_> = writers_of(op.object)
                        .into_iter()
                        .filter(|(w, _, _)| *w != id)
                        .collect();
                    if !cands.is_empty() {
                        let (w, v, ver) = cands[rng.gen_range(0..cands.len())];
                        *op = CompletedOp::read(op.object, v, w, ver);
                    }
                }
            }
        }
        let scrambled = History::new(h.num_objects(), records).unwrap();

        // WW edges: serial order restricted to updates.
        let updates: Vec<_> = scrambled
            .iter()
            .filter(|(_, r)| r.is_update())
            .map(|(i, _)| i)
            .collect();
        let ww: Vec<_> = updates.windows(2).map(|w| (w[0], w[1])).collect();
        let sc = Condition::MSequentialConsistency;
        let mut rel = sc.base_relation(&scrambled);
        ww.iter().for_each(|&(a, b)| rel.add(a, b));
        // Scrambling can create a cyclic relation (a later update reading
        // from an even-later one); those are trivially inadmissible and
        // outside Theorem 7's scope.
        if rel.transitive_closure().is_irreflexive() {
            if agree(&scrambled, sc, &ww) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "scrambling should produce illegal histories");
    assert!(accepted > 0, "some scrambles stay admissible");
}

#[test]
fn mlin_histories_agree_under_real_time_and_ww() {
    for seed in 0..6u64 {
        let spec = WorkloadSpec {
            processes: 3,
            ops_per_process: 4,
            num_objects: 3,
            update_fraction: 0.5,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(spec.num_objects, seed);
        let report = run_cluster::<MlinReplica<IsisAbcast<MOperation>>>(&config, s);
        let lin = Condition::MLinearizability;
        assert!(agree(&report.history, lin, &report.ww_order()));
    }
}
