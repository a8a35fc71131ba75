//! Polynomial-time checking under execution constraints (Theorem 7).
//!
//! Theorem 7: a history under the OO- or WW-constraint is admissible **iff**
//! it is legal. Legality (D 4.6) is a polynomial predicate, and a witness
//! schedule falls out of a topological sort of the extended relation
//! `~H+ = (~H ∪ ~rw)+` (D 4.12), whose irreflexivity is guaranteed by
//! Lemmas 3 and 4 and whose every linear extension is legal by the proof of
//! Lemma 5 (P 4.5).
//!
//! [`crate::certificate::certify`] runs it over the closure of `~H` and
//! the caller's hint, when the caller gives one, and takes only its
//! witness: every other outcome is decided over `~H` alone.

use moc_core::constraints::{satisfies, Constraint};
use moc_core::history::{History, MOpIdx};
use moc_core::legality::{
    first_illegal_read, read_write_precedence, sequence_witnesses_admissibility,
};
use moc_core::relations::Relation;

/// Theorem 7's witness for `(op(H), closed)`, given `closed` transitive:
/// a legal sequential order, when `closed` is acyclic, satisfies the WW-
/// or OO-constraint (tried in that order) and is legal.
///
/// `None` when `closed` is cyclic (Theorem 7 applies to an acyclic `~H`
/// only), when neither constraint holds, when `closed` is illegal (hence,
/// by Lemma 6, not admissible), or, in a release build, when `~H+` turns
/// out cyclic, which Lemmas 3 and 4 rule out: the caller decides those by
/// the search.
pub(crate) fn check_under_constraint(h: &History, closed: &Relation) -> Option<Vec<MOpIdx>> {
    let under = |c| satisfies(c, h, closed);
    // Theorem 7: under the constraint, admissible ⇔ legal.
    if !closed.is_irreflexive()
        || !(under(Constraint::Ww) || under(Constraint::Oo))
        || first_illegal_read(h, closed).is_some()
    {
        return None;
    }
    // Lemmas 3/4: ~H+ is irreflexive; Lemma 5: any extension is legal. The
    // smallest-index-first sort depends only on the closure of what it
    // sorts, so `~H ∪ ~rw` is sorted as it stands, without closing it.
    let order = closed
        .union(&read_write_precedence(h, closed))
        .topological_sort();
    debug_assert!(
        order.is_some(),
        "~H+ of a legal constrained history is acyclic"
    );
    debug_assert!(
        order
            .as_ref()
            .is_none_or(|o| sequence_witnesses_admissibility(h, closed, o)),
        "Theorem 7 witness failed validation"
    );
    order
}

#[cfg(test)]
#[path = "../tests/support/scrambled.rs"]
mod scrambled;

#[cfg(test)]
mod tests {
    use super::scrambled::scrambled_ww_history;
    use super::*;
    use crate::admissible::{find_legal_extension, SearchLimits};
    use crate::conditions::Condition;
    use crate::precedence::PrecedenceGraph;
    use moc_abcast::IsisAbcast;
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::{ObjectId, ProcessId};
    use moc_core::legality::extended_relation;
    use moc_core::relations::{process_order, reads_from};
    use moc_protocol::{run_cluster, ClusterConfig, MOperation, MlinReplica, MscOverSequencer};
    use moc_sim::{DelayModel, NetworkConfig};
    use moc_workload::histories::{serial_history, HistorySpec};
    use moc_workload::{scripts, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn m(i: usize) -> MOpIdx {
        MOpIdx(i)
    }

    /// Figure 2's H1 with its WW edges α<γ<δ.
    fn figure2() -> (moc_core::history::History, Relation) {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(1)).at(0, 10).read_init(x).write(y, 2).finish();
        b.mop(pid(1)).at(20, 60).read_from(y, 2, alpha).finish();
        b.mop(pid(2)).at(15, 25).write(x, 1).finish();
        b.mop(pid(2)).at(30, 40).write(y, 3).finish();
        let h = b.build().unwrap();
        let mut rel = process_order(&h).union(&reads_from(&h));
        rel.add(m(0), m(2));
        rel.add(m(2), m(3));
        (h, rel)
    }

    fn fast(h: &History, rel: &Relation) -> Option<Vec<MOpIdx>> {
        check_under_constraint(h, &rel.transitive_closure())
    }

    #[test]
    fn figure2_fast_check_admits() {
        let (h, rel) = figure2();
        let order = fast(&h, &rel).expect("H1 should be admissible");
        assert!(sequence_witnesses_admissibility(&h, &rel, &order));
        // The witness must place β before δ (forced by ~rw, cf. Figure 3).
        let pos = |i: usize| order.iter().position(|&x| x == m(i)).unwrap();
        assert!(pos(1) < pos(3), "β must precede δ in any legal extension");
        // The order the closed extended relation gives, unclosed.
        assert_eq!(extended_relation(&h, &rel).topological_sort(), Some(order));
    }

    #[test]
    fn fast_agrees_with_brute_force_on_figure2() {
        let (h, rel) = figure2();
        let (brute, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert_eq!(fast(&h, &rel).is_some(), brute.is_admissible());
    }

    #[test]
    fn missing_ww_edges_leave_theorem7_undecided() {
        // Without its WW edges H1 is under neither constraint: no witness,
        // though the history is admissible.
        let (h, _) = figure2();
        let rel = process_order(&h).union(&reads_from(&h));
        assert!(!satisfies(Constraint::Ww, &h, &rel.transitive_closure()));
        assert_eq!(fast(&h, &rel), None);
        let (brute, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert!(brute.is_admissible());
    }

    #[test]
    fn illegal_history_is_not_admitted() {
        // α reads initial x, but γ (writing x) is ordered before α.
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(20, 30).read_init(x).write(x, 5).finish();
        b.mop(pid(1)).at(0, 10).write(x, 1).finish();
        let h = b.build().unwrap();
        let mut rel = Relation::new(2);
        rel.add(m(1), m(0)); // γ before α: α's initial read is stale.
        assert!(satisfies(Constraint::Ww, &h, &rel));
        assert_eq!(fast(&h, &rel), None);
    }

    #[test]
    fn oo_constraint_path() {
        // Order *all* conflicting pairs: add β<δ too (β reads y, δ writes y)
        // and α<β... α,β conflict? α writes y, β reads y: yes — process
        // order already gives α<β. γ conflicts with α (x): α<γ present.
        let (h, mut rel) = figure2();
        rel.add(m(1), m(3));
        assert!(satisfies(Constraint::Oo, &h, &rel.transitive_closure()));
        assert!(fast(&h, &rel).is_some());
    }

    // Theorem 7 (experiment E5): under the WW-constraint, a history is
    // admissible **iff** it is legal, so the polynomial route and the
    // exponential naive search always agree. Three families: protocol
    // histories (the broadcast order supplies the WW edges), serial
    // histories (real time supplies them), and WW-ordered histories with
    // scrambled read provenance (where legality often fails and both must
    // reject).

    /// Theorem 7 over the closure of `~H ∪ order`, which must satisfy the
    /// WW-constraint, against the naive search over the same relation
    /// built densely. Returns the (shared) verdict.
    fn agree(h: &History, condition: Condition, order: &[(MOpIdx, MOpIdx)]) -> bool {
        let graph = PrecedenceGraph::unsaturated(h, condition, order);
        assert!(
            satisfies(Constraint::Ww, h, graph.closed()),
            "relation must satisfy the WW-constraint"
        );
        let fast = check_under_constraint(h, graph.closed());
        let mut rel = condition.base_relation(h);
        order.iter().for_each(|&(a, b)| rel.add(a, b));
        let (brute, _) = find_legal_extension(h, &rel, SearchLimits::default());
        assert_eq!(
            fast.is_some(),
            brute.is_admissible(),
            "Theorem 7 violated: fast and brute-force checkers disagree"
        );
        if let Some(witness) = &fast {
            assert!(sequence_witnesses_admissibility(h, &rel, witness));
        }
        fast.is_some()
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
        // A serial history's real-time order totally orders everything,
        // which subsumes both OO and WW.
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

    #[test]
    fn agreement_on_scrambled_ww_histories() {
        let (mut rejected, mut accepted) = (0, 0);
        for seed in 0..40u64 {
            let (h, ww) = scrambled_ww_history(seed);
            // A cyclic `~H ∪ ~ww` is trivially inadmissible and outside
            // Theorem 7's scope.
            let mut rel = Condition::MSequentialConsistency.base_relation(&h);
            ww.iter().for_each(|&(a, b)| rel.add(a, b));
            if !rel.transitive_closure().is_irreflexive() {
                continue;
            }
            if agree(&h, Condition::MSequentialConsistency, &ww) {
                accepted += 1;
            } else {
                rejected += 1;
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
}
