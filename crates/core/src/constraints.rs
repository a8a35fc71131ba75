//! Execution constraints (Section 4): OO-, WW- and WO-constraints.
//!
//! Because verifying m-sequential consistency and m-linearizability is
//! NP-complete (Theorems 1 and 2), practical implementations enforce
//! *constraints* that order certain m-operations up front. Under the OO- or
//! WW-constraint, admissibility collapses to legality (Theorem 7), which is
//! checkable in polynomial time.

use std::fmt;

use crate::history::{History, MOpIdx};
use crate::relations::Relation;

/// The execution constraints of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// D 4.8 — any pair of *conflicting* m-operations is ordered.
    Oo,
    /// D 4.9 — any pair of *update* m-operations is ordered (this is what
    /// the Section 5 protocols enforce via atomic broadcast).
    Ww,
    /// D 4.10 — any pair of m-operations *writing a common object* is
    /// ordered. WO is implied by both OO and WW and suffices for Lemma 5.
    Wo,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Oo => f.write_str("OO-constraint"),
            Constraint::Ww => f.write_str("WW-constraint"),
            Constraint::Wo => f.write_str("WO-constraint"),
        }
    }
}

/// A pair of m-operations that the constraint requires to be ordered but
/// `order` leaves unordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnorderedPair {
    /// The violated constraint.
    pub constraint: Constraint,
    /// First m-operation of the unordered pair.
    pub a: MOpIdx,
    /// Second m-operation of the unordered pair.
    pub b: MOpIdx,
}

/// Checks whether `(h, order)` satisfies `constraint`. `order` should be
/// transitively closed (pairs ordered only through intermediate operations
/// still count as ordered).
pub fn satisfies(constraint: Constraint, h: &History, order: &Relation) -> bool {
    first_violation(constraint, h, order).is_none()
}

/// Like [`satisfies`] but reports the first unordered pair.
pub fn first_violation(
    constraint: Constraint,
    h: &History,
    order: &Relation,
) -> Option<UnorderedPair> {
    for i in 0..h.len() {
        for j in (i + 1)..h.len() {
            let (a, b) = (MOpIdx(i), MOpIdx(j));
            let must_order = match constraint {
                Constraint::Oo => h.conflict(a, b),
                Constraint::Ww => !h.wobjects(a).is_empty() && !h.wobjects(b).is_empty(),
                Constraint::Wo => h.wobjects(a).iter().any(|o| h.wobjects(b).contains(o)),
            };
            if must_order && !order.ordered(a, b) {
                return Some(UnorderedPair { constraint, a, b });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{ObjectId, ProcessId};
    use crate::relations::{process_order, reads_from};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn m(i: usize) -> MOpIdx {
        MOpIdx(i)
    }

    /// The Figure 2 history: α(upd), β(query), γ(upd), δ(upd).
    fn figure2() -> (crate::history::History, Relation) {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(1)).at(0, 10).read_init(x).write(y, 2).finish();
        b.mop(pid(1)).at(20, 60).read_from(y, 2, alpha).finish();
        b.mop(pid(2)).at(15, 25).write(x, 1).finish();
        b.mop(pid(2)).at(30, 40).write(y, 3).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        (h, rel)
    }

    #[test]
    fn ww_requires_all_update_pairs_ordered() {
        let (h, rel) = figure2();
        let closed = rel.transitive_closure();
        // Updates α, γ, δ: α and γ unordered so far.
        assert!(!satisfies(Constraint::Ww, &h, &closed));
        let v = first_violation(Constraint::Ww, &h, &closed).unwrap();
        assert_eq!((v.a, v.b), (m(0), m(2)));

        // Add the ww edges of Figure 2: α < γ < δ.
        let mut rel = rel;
        rel.add(m(0), m(2));
        rel.add(m(2), m(3));
        let closed = rel.transitive_closure();
        assert!(satisfies(Constraint::Ww, &h, &closed));
        // WW implies WO here.
        assert!(satisfies(Constraint::Wo, &h, &closed));
        // But not OO: β (reads y) conflicts with δ (writes y), unordered.
        assert!(!satisfies(Constraint::Oo, &h, &closed));
        let v = first_violation(Constraint::Oo, &h, &closed).unwrap();
        assert_eq!(v.constraint, Constraint::Oo);
        assert_eq!((v.a, v.b), (m(1), m(3)));
    }

    #[test]
    fn wo_only_needs_common_written_objects() {
        let (h, _) = figure2();
        // Order only the pairs writing a common object: α and δ both write y.
        let mut rel = Relation::new(4);
        rel.add(m(0), m(3));
        assert!(satisfies(Constraint::Wo, &h, &rel));
        assert!(!satisfies(Constraint::Ww, &h, &rel));
    }

    #[test]
    fn disjoint_queries_need_no_order() {
        let mut b = HistoryBuilder::new(2);
        b.mop(pid(0)).at(0, 10).read_init(oid(0)).finish();
        b.mop(pid(1)).at(0, 10).read_init(oid(1)).finish();
        let h = b.build().unwrap();
        let empty = Relation::new(2);
        for c in [Constraint::Oo, Constraint::Ww, Constraint::Wo] {
            assert!(satisfies(c, &h, &empty), "{c} should hold vacuously");
        }
    }

    #[test]
    fn drf_implies_oo_under_real_time() {
        use crate::relations::real_time;
        let mut b = HistoryBuilder::new(2);
        let w = b.mop(pid(0)).at(0, 10).write(oid(0), 1).finish();
        b.mop(pid(1)).at(20, 30).read_from(oid(0), 1, w).finish();
        b.mop(pid(2)).at(20, 30).write(oid(1), 5).finish();
        // Data-race free: the conflicting write and read do not overlap.
        let h = b.build().unwrap();
        let rt = real_time(&h).transitive_closure();
        assert!(satisfies(Constraint::Oo, &h, &rt));
        assert!(satisfies(Constraint::Wo, &h, &rt));
    }

    #[test]
    fn display_names() {
        assert_eq!(Constraint::Oo.to_string(), "OO-constraint");
        assert_eq!(Constraint::Ww.to_string(), "WW-constraint");
        assert_eq!(Constraint::Wo.to_string(), "WO-constraint");
    }
}
