//! Experiment E4: the NP-completeness results (Theorems 1 and 2) made
//! operational.
//!
//! We cannot test NP-hardness directly, but we can exhibit its two
//! practical faces:
//!
//! 1. the *witness verifier* stays polynomial — validating a proposed
//!    legal sequential history is cheap at any size (the "in NP" half);
//! 2. the brute-force decision procedure's explored node count grows
//!    sharply on the adversarial concurrent-writers family, while the
//!    Theorem 7 fast path — when a constraint applies — stays flat.

use moc_checker::admissible::{find_legal_extension, SearchLimits};
use moc_checker::certificate::check_certified;
use moc_checker::conditions::Condition;
use moc_checker::serializability::{Action, Schedule};
use moc_core::history::MOpIdx;
use moc_core::ids::ObjectId;
use moc_core::legality::sequence_witnesses_admissibility;
use moc_core::relations::{process_order, reads_from, real_time};
use moc_workload::histories::{multi_component_history, serial_history, HistorySpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn witness_validation_is_cheap_at_scale() {
    // A serial history with hundreds of m-operations: find the witness
    // greedily (serial histories schedule front-to-back without
    // backtracking), then validate it with the polynomial verifier.
    let mut rng = StdRng::seed_from_u64(1);
    let spec = HistorySpec {
        processes: 8,
        ops_per_process: 40,
        num_objects: 10,
        ..HistorySpec::default()
    };
    let h = serial_history(&spec, &mut rng);
    assert_eq!(h.len(), 320);
    let rel = process_order(&h)
        .union(&reads_from(&h))
        .union(&real_time(&h));
    let (outcome, stats) = find_legal_extension(&h, &rel, SearchLimits::default());
    let witness = outcome.witness().expect("serial history is admissible");
    assert!(sequence_witnesses_admissibility(&h, &rel, witness));
    // Greedy: the searcher never backtracks on a serial history.
    assert!(
        stats.nodes <= (h.len() as u64) + 1,
        "expected linear node count, got {}",
        stats.nodes
    );
}

#[test]
fn search_cost_grows_on_adversarial_family() {
    // Readers pin writer interleavings; node counts grow with k.
    let mut nodes_at = Vec::new();
    for k in [2usize, 4, 6] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let h = multi_component_history(1, k, 3, &mut rng);
        let rel = process_order(&h).union(&reads_from(&h));
        let (outcome, stats) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert!(outcome.is_admissible());
        nodes_at.push(stats.nodes);
    }
    assert!(
        nodes_at[2] > nodes_at[0],
        "node count should grow with k: {nodes_at:?}"
    );
}

#[test]
fn refutation_cost_grows_superlinearly_on_torn_instances() {
    // Tear every reader across two writers: maximally constrained and
    // unsatisfiable; the search has to refute all interleavings. Unlike
    // witness *validation* (polynomial, see above), refutation explores
    // a node count that grows super-linearly with the number of writers
    // and dwarfs the greedy linear bound. Aggregated over seeds so no
    // single lucky draw decides the claim.
    let num_objects = 2;
    let mut totals = Vec::new();
    for k in [4usize, 6] {
        let mut total_unsat = 0u64;
        let mut total_len = 0u64;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = multi_component_history(1, k, num_objects, &mut rng);
            let mut records = h.records().to_vec();
            for (r, rec) in records
                .iter_mut()
                .filter(|r| r.label.starts_with("reader"))
                .enumerate()
            {
                let w0 =
                    moc_core::ids::MOpId::new(moc_core::ids::ProcessId::new((r % k) as u32), 0);
                let w1 = moc_core::ids::MOpId::new(
                    moc_core::ids::ProcessId::new(((r + 1) % k) as u32),
                    0,
                );
                rec.ops[0] =
                    moc_core::op::CompletedOp::read(ObjectId::new(0), (r % k) as i64 + 1, w0, 1);
                rec.ops[1] = moc_core::op::CompletedOp::read(
                    ObjectId::new(1),
                    ((r + 1) % k) as i64 + 1,
                    w1,
                    1,
                );
            }
            let torn = moc_core::history::History::new(num_objects, records).unwrap();
            let rel = process_order(&torn).union(&reads_from(&torn));
            let (outcome, stats) = find_legal_extension(&torn, &rel, SearchLimits::default());
            assert!(!outcome.is_admissible());
            total_unsat += stats.nodes;
            total_len += torn.len() as u64;
        }
        // Refuting is never a single greedy pass: the searcher backtracks
        // well past the linear node budget a witness validation needs.
        assert!(
            total_unsat > 2 * total_len,
            "k={k}: refutation ({total_unsat} nodes) should dwarf the linear bound ({total_len})"
        );
        totals.push(total_unsat);
    }
    // Super-linear growth in k: going from 4 to 6 writers (1.5x the
    // history size) should much more than double the refutation cost.
    assert!(
        totals[1] > 4 * totals[0],
        "refutation cost should grow super-linearly: {totals:?}"
    );
}

/// The Theorem 2 reduction round trip: the schedule-level strict-view
/// question and the history-level m-linearizability question coincide.
#[test]
fn reduction_agrees_with_direct_checking() {
    let e = |i| ObjectId::new(i);
    let cases: Vec<(Schedule, bool)> = vec![
        // Strict-view violating (Figure from checker_tour).
        (
            Schedule::new(
                2,
                3,
                vec![
                    Action::read(2, e(0)),
                    Action::write(0, e(0)),
                    Action::write(1, e(1)),
                    Action::read(2, e(1)),
                ],
            )
            .unwrap(),
            false,
        ),
        // Clean sequential schedule.
        (
            Schedule::new(1, 2, vec![Action::write(0, e(0)), Action::read(1, e(0))]).unwrap(),
            true,
        ),
        // Lost update.
        (
            Schedule::new(
                1,
                2,
                vec![
                    Action::read(0, e(0)),
                    Action::write(1, e(0)),
                    Action::write(0, e(0)),
                ],
            )
            .unwrap(),
            false,
        ),
    ];
    for (s, expected) in cases {
        assert_eq!(
            s.is_strict_view_serializable(SearchLimits::default()),
            Some(expected)
        );
        // Direct check on the constructed history.
        let h = s.to_history();
        let (report, _) =
            check_certified(&h, Condition::MLinearizability, SearchLimits::default()).unwrap();
        // The direct condition adds process order — trivial here (one
        // m-operation per process), so the verdicts must agree.
        assert_eq!(report.satisfied, expected);
        // Sanity: history indices round-trip.
        assert!(h.len() >= 2);
        let _ = h.record(MOpIdx(0));
    }
}
