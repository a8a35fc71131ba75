//! Polynomial-time checking under execution constraints (Theorem 7).
//!
//! Theorem 7: a history under the OO- or WW-constraint is admissible **iff**
//! it is legal. Legality (D 4.6) is a polynomial predicate, and a witness
//! schedule falls out of a topological sort of the extended relation
//! `~H+ = (~H ∪ ~rw)+` (D 4.12), whose irreflexivity is guaranteed by
//! Lemmas 3 and 4 and whose every linear extension is legal by the proof of
//! Lemma 5 (P 4.5).
//!
//! [`crate::conditions::check_with_order`] runs it over the closure of `~H`
//! that its precedence graph holds before saturation.

use std::fmt;

use moc_core::constraints::{first_violation, Constraint, UnorderedPair};
use moc_core::history::{History, MOpIdx};
use moc_core::legality::{
    first_illegal_read, read_write_precedence, sequence_witnesses_admissibility, IllegalRead,
};
use moc_core::relations::Relation;

/// Why the fast path gave no verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FastError {
    /// The history relation does not satisfy the requested constraint, so
    /// Theorem 7 does not apply. Fall back to the search.
    ConstraintNotSatisfied(UnorderedPair),
    /// Internal invariant violation: the history was legal and under the
    /// constraint, yet `~H+` contained a cycle. By Lemmas 3 and 4 this is
    /// unreachable; reported rather than panicking.
    ExtendedRelationCyclic,
}

impl fmt::Display for FastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastError::ConstraintNotSatisfied(p) => write!(
                f,
                "{} requires m-operations {} and {} to be ordered",
                p.constraint, p.a, p.b
            ),
            FastError::ExtendedRelationCyclic => {
                f.write_str("extended relation ~H+ is cyclic (invariant violation)")
            }
        }
    }
}

/// Outcome of the constraint-based check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FastOutcome {
    /// The history is admissible; the witness is a legal sequential order.
    Admissible(Vec<MOpIdx>),
    /// The history is not legal, hence (Lemma 6 + Theorem 7) not
    /// admissible. Carries the offending read.
    NotAdmissible(IllegalRead),
}

/// Decides admissibility of `(op(H), ~H)` in polynomial time, given `~H`
/// as `closed`: transitive and irreflexive.
///
/// # Errors
///
/// [`FastError::ConstraintNotSatisfied`] when `closed` does not satisfy
/// `constraint` — the caller falls back to the search.
pub(crate) fn check_under_constraint(
    h: &History,
    closed: &Relation,
    constraint: Constraint,
) -> Result<FastOutcome, FastError> {
    debug_assert!(closed.is_irreflexive(), "~H must be acyclic");
    if let Some(pair) = first_violation(constraint, h, closed) {
        return Err(FastError::ConstraintNotSatisfied(pair));
    }
    // Theorem 7: under the constraint, admissible ⇔ legal.
    if let Some(bad) = first_illegal_read(h, closed) {
        return Ok(FastOutcome::NotAdmissible(bad));
    }
    // Lemmas 3/4: ~H+ is irreflexive; Lemma 5: any extension is legal. The
    // smallest-index-first sort depends only on the closure of what it
    // sorts, so `~H ∪ ~rw` is sorted as it stands, without closing it.
    let ext = closed.union(&read_write_precedence(h, closed));
    let Some(order) = ext.topological_sort() else {
        return Err(FastError::ExtendedRelationCyclic);
    };
    debug_assert!(
        sequence_witnesses_admissibility(h, closed, &order),
        "Theorem 7 witness failed validation"
    );
    Ok(FastOutcome::Admissible(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admissible::{find_legal_extension, SearchLimits};
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::{ObjectId, ProcessId};
    use moc_core::legality::extended_relation;
    use moc_core::relations::{process_order, reads_from};

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

    fn fast(h: &History, rel: &Relation, c: Constraint) -> Result<FastOutcome, FastError> {
        check_under_constraint(h, &rel.transitive_closure(), c)
    }

    #[test]
    fn figure2_fast_check_admits() {
        let (h, rel) = figure2();
        let out = fast(&h, &rel, Constraint::Ww).unwrap();
        let FastOutcome::Admissible(order) = out else {
            panic!("H1 should be admissible");
        };
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
        let fast = fast(&h, &rel, Constraint::Ww).unwrap();
        let (brute, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert_eq!(
            matches!(fast, FastOutcome::Admissible(_)),
            brute.is_admissible()
        );
    }

    #[test]
    fn missing_ww_edges_are_reported() {
        let (h, _) = figure2();
        let rel = process_order(&h).union(&reads_from(&h));
        let err = fast(&h, &rel, Constraint::Ww).unwrap_err();
        assert!(matches!(err, FastError::ConstraintNotSatisfied(_)));
    }

    #[test]
    fn illegal_history_is_rejected() {
        // α reads initial x, but γ (writing x) is ordered before α.
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(20, 30).read_init(x).write(x, 5).finish();
        b.mop(pid(1)).at(0, 10).write(x, 1).finish();
        let h = b.build().unwrap();
        let mut rel = Relation::new(2);
        rel.add(m(1), m(0)); // γ before α: α's initial read is stale.
        let out = fast(&h, &rel, Constraint::Ww).unwrap();
        let FastOutcome::NotAdmissible(bad) = out else {
            panic!("should be illegal");
        };
        assert_eq!(bad.alpha, m(0));
        assert_eq!(bad.gamma, m(1));
        assert_eq!(bad.beta, None);
    }

    #[test]
    fn oo_constraint_path() {
        // Order *all* conflicting pairs: add β<δ too (β reads y, δ writes y)
        // and α<β... α,β conflict? α writes y, β reads y: yes — process
        // order already gives α<β. γ conflicts with α (x): α<γ present.
        let (h, mut rel) = figure2();
        rel.add(m(1), m(3));
        let out = fast(&h, &rel, Constraint::Oo).unwrap();
        assert!(matches!(out, FastOutcome::Admissible(_)));
    }
}
