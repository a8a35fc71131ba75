//! The consistency conditions of Section 2.3 and their decision procedures.
//!
//! Each condition is admissibility (D 4.7) with respect to a particular
//! relation:
//!
//! | condition                  | relation `~H`        |
//! |----------------------------|----------------------|
//! | m-sequential consistency   | `~p ∪ ~rf`           |
//! | m-linearizability          | `~p ∪ ~rf ∪ ~t`      |
//! | m-normality                | `~p ∪ ~rf ∪ ~x`      |
//!
//! m-normality is less restrictive than m-linearizability: it only orders
//! non-overlapping m-operations that act on a common object.
//!
//! Every verdict is [`crate::certificate::certify`]'s: `~H` as the edges
//! of one [`PrecedenceGraph`], closed once, then Theorem 7 over it when
//! the caller gives a hint, and failing that the saturated graph and the
//! pruned search.

use std::fmt;

use moc_core::history::{History, MOpIdx};
use moc_core::relations::{object_order, process_order, reads_from, real_time, Relation};

use crate::admissible::{SearchLimits, SearchStats};
use crate::certificate::{decide, verdict};
use crate::precedence::PrecedenceGraph;

/// A consistency condition for multi-object operation histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// All m-operations appear to execute atomically in some sequential
    /// order consistent with each process's own order.
    MSequentialConsistency,
    /// Additionally, the order of non-overlapping m-operations (in real
    /// time) is preserved.
    MLinearizability,
    /// Additionally to m-sequential consistency, the real-time order of
    /// non-overlapping m-operations *that share an object* is preserved.
    MNormality,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::MSequentialConsistency => f.write_str("m-sequential consistency"),
            Condition::MLinearizability => f.write_str("m-linearizability"),
            Condition::MNormality => f.write_str("m-normality"),
        }
    }
}

impl Condition {
    /// Builds the condition's base relation `~H` over the history as a
    /// dense relation, every pair of it. The checker does not use it: it is
    /// the definition, kept as the reference the precedence graph's
    /// closure is tested against.
    pub fn base_relation(self, h: &History) -> Relation {
        let base = process_order(h).union(&reads_from(h));
        match self {
            Condition::MSequentialConsistency => base,
            Condition::MLinearizability => base.union(&real_time(h)),
            Condition::MNormality => base.union(&object_order(h)),
        }
    }
}

/// How [`check`] decides: Theorem 7 first, then the search. The one
/// strategy there is; [`crate::certificate::certify`] is the entry that
/// takes a hint and returns the certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Use the Theorem 7 path if `~H` satisfies the WW- or OO-constraint
    /// and is legal, otherwise decide by the search.
    #[default]
    Auto,
}

/// Errors surfaced by [`check`] and [`crate::certificate::certify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The search exhausted its node budget without a verdict.
    LimitExceeded(SearchStats),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::LimitExceeded(s) => {
                write!(f, "search budget exhausted after {} nodes", s.nodes)
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// The verdict of a consistency check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The condition that was checked.
    pub condition: Condition,
    /// Whether the history satisfies the condition.
    pub satisfied: bool,
    /// When satisfied: a legal sequential order witnessing admissibility.
    pub witness: Option<Vec<MOpIdx>>,
    /// Whether Theorem 7 decided: the witness is a topological sort of
    /// `~H+`, with no search. Every refutation comes from the saturated
    /// graph of `~H` alone, so it is `false` on every violation.
    pub by_theorem7: bool,
    /// Search statistics (zero for the Theorem 7 path).
    pub stats: SearchStats,
    /// Human-readable explanation when not satisfied.
    pub reason: Option<String>,
}

/// Checks whether history `h` satisfies `condition`: the report
/// [`crate::certificate::certify`] makes with an empty hint and default
/// limits, with no certificate built.
///
/// # Errors
///
/// [`CheckError::LimitExceeded`], only on pathological instances that
/// exhaust the default search budget.
pub fn check(
    h: &History,
    condition: Condition,
    _strategy: Strategy,
) -> Result<CheckReport, CheckError> {
    verdict(h, condition, Some(&[]), SearchLimits::default()).map(|(report, _)| report)
}

/// The search's verdict over `~H` and `pairs`, which belong to the
/// condition's relation (`T∞` last, causality through a dropped query):
/// their edges are evidence the auditor cannot re-derive, so no
/// certificate is made, and Theorem 7 is not tried.
pub(crate) fn decide_with(
    h: &History,
    condition: Condition,
    pairs: &[(MOpIdx, MOpIdx)],
    limits: SearchLimits,
) -> Result<CheckReport, CheckError> {
    let mut graph = PrecedenceGraph::unsaturated(h, condition, pairs);
    graph.saturate(h);
    decide(h, condition, &graph, limits).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::certify;
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::{ObjectId, ProcessId};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    /// Stale read: w(x)1 completes, then another process reads x=0.
    fn stale_read() -> moc_core::history::History {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        b.build().unwrap()
    }

    #[test]
    fn stale_read_separates_the_conditions() {
        let h = stale_read();
        let sc = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(sc.satisfied);
        let lin = check(&h, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(!lin.satisfied);
        // m-normality also rejects: the two m-operations share object x and
        // do not overlap.
        let norm = check(&h, Condition::MNormality, Strategy::Auto).unwrap();
        assert!(!norm.satisfied);
    }

    #[test]
    fn normality_is_strictly_weaker_than_linearizability() {
        // Separator (Section 2.3: "m-normality ... does not order two
        // non-overlapping m-operations unless they act on a common object"):
        //   alpha = w(x)1        P0 [0,10]
        //   beta  = w(y)1        P1 [20,30]  (alpha ~t beta, objects disjoint)
        //   delta = r(y)1 r(x)0  P2 [5,40]   (reads y from beta, x initial;
        //                                     overlaps both alpha and beta)
        // Under m-linearizability, alpha < beta (real time) and beta < delta
        // (reads-from) force alpha before delta, making delta's read of the
        // initial x illegal. Under m-normality the alpha-beta pair shares no
        // object, so no order is imposed and beta, delta, alpha is a legal
        // witness.
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        let beta = b.mop(pid(1)).at(20, 30).write(y, 1).finish();
        b.mop(pid(2))
            .at(5, 40)
            .read_from(y, 1, beta)
            .read_init(x)
            .finish();
        let h = b.build().unwrap();
        let lin = check(&h, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(!lin.satisfied);
        let norm = check(&h, Condition::MNormality, Strategy::Auto).unwrap();
        assert!(norm.satisfied);
        let sc = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(sc.satisfied);
    }

    #[test]
    fn linearizable_implies_normal_and_sequentially_consistent() {
        let x = oid(0);
        let mut b = HistoryBuilder::new(2);
        let a = b.mop(pid(0)).at(0, 30).write(x, 1).finish();
        b.mop(pid(1)).at(0, 10).write(oid(1), 1).finish();
        b.mop(pid(2)).at(20, 50).read_from(x, 1, a).finish();
        let h = b.build().unwrap();
        for c in [
            Condition::MLinearizability,
            Condition::MNormality,
            Condition::MSequentialConsistency,
        ] {
            assert!(check(&h, c, Strategy::Auto).unwrap().satisfied, "{c}");
        }
    }

    #[test]
    fn auto_refutes_an_illegal_history_by_its_saturated_cycle() {
        // Under m-linearizability the stale-read history IS under the
        // OO-constraint (real time orders the two x-ops) and illegal: the
        // `~H+` cycle refutes it without search.
        let h = stale_read();
        let report = check(&h, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(!report.satisfied);
        assert!(!report.by_theorem7);
        assert_eq!(report.stats.nodes, 0);
        assert_eq!(
            report.reason.as_deref(),
            Some("~H+ cycle of length 2 refutes admissibility without search")
        );
    }

    #[test]
    fn auto_admits_by_theorem7_under_real_time() {
        // A fresh read after the write responded: real time orders the
        // conflicting pair, the read is legal, and the witness is a
        // topological sort with no search.
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        let w = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_from(x, 1, w).finish();
        let h = b.build().unwrap();
        let report = check(&h, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(report.satisfied);
        assert!(report.by_theorem7);
        assert_eq!(report.stats, SearchStats::default());
        assert_eq!(report.witness, Some(vec![MOpIdx(0), MOpIdx(1)]));
    }

    #[test]
    fn auto_searches_where_no_constraint_holds() {
        // Under m-SC two writers of x on two processes are unordered, so
        // neither WW nor OO holds and the search decides.
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).write(x, 2).finish();
        let h = b.build().unwrap();
        let report = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(report.satisfied);
        assert!(!report.by_theorem7);
        // The pruned search may decide entirely by forced-prefix peeling.
        assert!(
            report.stats.nodes + report.stats.peeled > 0,
            "the search actually did the work"
        );
    }

    #[test]
    fn a_cyclic_history_is_refuted_on_every_route() {
        // The first m-operation of p0 reads x from the second: ~p and ~rf
        // order the pair both ways, so ~H itself is cyclic.
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        let second = moc_core::ids::MOpId::new(pid(0), 1);
        b.mop(pid(0)).at(0, 10).read_from(x, 1, second).finish();
        b.mop(pid(0)).at(20, 30).write(x, 1).finish();
        let h = b.build().unwrap();
        let limits = SearchLimits::default();
        for condition in [
            Condition::MSequentialConsistency,
            Condition::MLinearizability,
            Condition::MNormality,
        ] {
            let reports = [
                check(&h, condition, Strategy::Auto).unwrap(),
                certify(&h, condition, None, limits).unwrap().0,
                certify(&h, condition, Some(&[(MOpIdx(0), MOpIdx(1))]), limits)
                    .unwrap()
                    .0,
                decide_with(&h, condition, &[], limits).unwrap(),
            ];
            for (route, report) in reports.iter().enumerate() {
                assert!(!report.satisfied, "{condition}, route {route}");
                assert_eq!(
                    report.reason.as_deref(),
                    Some("~H+ cycle of length 2 refutes admissibility without search"),
                    "{condition}, route {route}"
                );
            }
        }
    }

    #[test]
    fn condition_display() {
        assert_eq!(
            Condition::MSequentialConsistency.to_string(),
            "m-sequential consistency"
        );
        assert_eq!(Condition::MLinearizability.to_string(), "m-linearizability");
        assert_eq!(Condition::MNormality.to_string(), "m-normality");
    }
}
