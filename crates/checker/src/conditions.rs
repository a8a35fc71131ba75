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
//! Every strategy decides over one [`PrecedenceGraph`]: `~H` as the edges
//! of [`PrecedenceGraph::for_condition`], closed once. Theorem 7 reads that
//! closure; failing it, the graph is saturated and decided exactly as
//! [`crate::certificate::check_certified`] decides it.

use std::fmt;

use moc_core::constraints::Constraint;
use moc_core::history::{History, MOpIdx};
use moc_core::relations::{object_order, process_order, reads_from, real_time, Relation};

use crate::admissible::{SearchLimits, SearchStats};
use crate::certificate::decide;
use crate::fast::{check_under_constraint, FastError, FastOutcome};
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

/// How to decide admissibility. Whatever the strategy, a history whose
/// `~H` is cyclic is refuted by a `~H+` cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Always run the (worst-case exponential) backtracking search.
    BruteForce(SearchLimits),
    /// Require the given constraint and use the polynomial Theorem 7 path;
    /// fails with [`CheckError::ConstraintNotSatisfied`] if the history is
    /// not under the constraint.
    Constraint(Constraint),
    /// Use the Theorem 7 path if the history satisfies the WW- or
    /// OO-constraint (tried in that order — WW is what the Section 5
    /// protocols enforce), otherwise fall back to the search.
    #[default]
    Auto,
    /// The caller holds a static certificate (see `moc-analyze`) that the
    /// configuration enforces `constraint`, so the Theorem 7 path is
    /// expected to decide. Unlike [`Strategy::Constraint`], a history
    /// that nevertheless violates the constraint (e.g. the certificate
    /// was issued for a different program set) silently falls back to
    /// the brute-force search instead of erroring.
    Certified(Constraint),
}

/// Which decision procedure produced the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyUsed {
    /// The backtracking search decided.
    BruteForce,
    /// The Theorem 7 fast path decided under this constraint.
    Constraint(Constraint),
}

/// Errors surfaced by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The search exhausted its node budget without a verdict.
    LimitExceeded(SearchStats),
    /// `Strategy::Constraint` was requested but the history is not under
    /// the constraint.
    ConstraintNotSatisfied(String),
    /// Internal invariant violation in the fast path.
    Internal(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::LimitExceeded(s) => {
                write!(f, "search budget exhausted after {} nodes", s.nodes)
            }
            CheckError::ConstraintNotSatisfied(msg) => f.write_str(msg),
            CheckError::Internal(msg) => write!(f, "internal error: {msg}"),
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
    /// Which procedure decided.
    pub strategy_used: StrategyUsed,
    /// Search statistics (zero for the fast path).
    pub stats: SearchStats,
    /// Human-readable explanation when not satisfied.
    pub reason: Option<String>,
}

/// Checks whether history `h` satisfies `condition` using `strategy`.
///
/// # Errors
///
/// See [`CheckError`]. With `Strategy::Auto` and default limits, errors only
/// occur on pathological instances that exhaust the search budget.
pub fn check(
    h: &History,
    condition: Condition,
    strategy: Strategy,
) -> Result<CheckReport, CheckError> {
    check_with_order(h, condition, &[], strategy)
}

/// Like [`check`], with `order`: pairs the caller knows to be ordered
/// besides `~H` — the atomic-broadcast order `~ww` of a protocol run, say —
/// which join the condition's base edges.
///
/// # Errors
///
/// See [`check`].
pub fn check_with_order(
    h: &History,
    condition: Condition,
    order: &[(MOpIdx, MOpIdx)],
    strategy: Strategy,
) -> Result<CheckReport, CheckError> {
    let mut graph = PrecedenceGraph::unsaturated(h, condition, order);
    let (constraints, limits) = match strategy {
        Strategy::BruteForce(limits) => (&[][..], limits),
        Strategy::Constraint(c) | Strategy::Certified(c) => (&[c][..], SearchLimits::default()),
        Strategy::Auto => (
            &[Constraint::Ww, Constraint::Oo][..],
            SearchLimits::default(),
        ),
    };
    // Theorem 7 applies to an acyclic `~H` only; a cyclic one is left to
    // the `~H+` cycle that refutes it.
    if graph.closed().is_irreflexive() {
        for &c in constraints {
            match check_under_constraint(h, graph.closed(), c) {
                Ok(outcome) => return Ok(fast_report(condition, c, outcome)),
                Err(e @ FastError::ConstraintNotSatisfied(_)) => {
                    if let Strategy::Constraint(_) = strategy {
                        return Err(CheckError::ConstraintNotSatisfied(e.to_string()));
                    }
                }
                Err(e @ FastError::ExtendedRelationCyclic) => {
                    return Err(CheckError::Internal(e.to_string()))
                }
            }
        }
    }
    graph.saturate(h);
    decide(h, condition, &graph, limits).map(|(report, _)| report)
}

fn fast_report(condition: Condition, constraint: Constraint, outcome: FastOutcome) -> CheckReport {
    let (witness, reason) = match outcome {
        FastOutcome::Admissible(witness) => (Some(witness), None),
        FastOutcome::NotAdmissible(bad) => (
            None,
            Some(format!(
                "history is not legal: {} is ordered between {:?} and {} \
                 while overwriting an object read between them",
                bad.gamma, bad.beta, bad.alpha
            )),
        ),
    };
    CheckReport {
        condition,
        satisfied: witness.is_some(),
        witness,
        strategy_used: StrategyUsed::Constraint(constraint),
        stats: SearchStats::default(),
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn constraint_strategy_errors_without_constraint() {
        let h = stale_read();
        // Both ops touch x and one writes: OO requires them ordered; the
        // base m-SC relation doesn't order them.
        let err = check(
            &h,
            Condition::MSequentialConsistency,
            Strategy::Constraint(moc_core::constraints::Constraint::Oo),
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::ConstraintNotSatisfied(_)));
    }

    #[test]
    fn auto_uses_fast_path_under_real_time() {
        // Under m-linearizability the stale-read history IS under the
        // OO-constraint (real time orders the two x-ops), so Auto uses the
        // fast path and rejects with a reason.
        let h = stale_read();
        let report = check(&h, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(!report.satisfied);
        assert!(matches!(report.strategy_used, StrategyUsed::Constraint(_)));
        assert!(report.reason.is_some());
    }

    #[test]
    fn brute_force_strategy_reports_stats() {
        let h = stale_read();
        let report = check(
            &h,
            Condition::MSequentialConsistency,
            Strategy::BruteForce(SearchLimits::default()),
        )
        .unwrap();
        assert!(report.satisfied);
        assert_eq!(report.strategy_used, StrategyUsed::BruteForce);
        let w = report.witness.unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn certified_strategy_uses_fast_path_when_constraint_holds() {
        // Under m-linearizability the stale-read history satisfies OO
        // (real time orders the conflicting pair): the certificate route
        // decides via Theorem 7.
        let h = stale_read();
        let report = check(
            &h,
            Condition::MLinearizability,
            Strategy::Certified(moc_core::constraints::Constraint::Oo),
        )
        .unwrap();
        assert!(!report.satisfied);
        assert_eq!(
            report.strategy_used,
            StrategyUsed::Constraint(moc_core::constraints::Constraint::Oo)
        );
    }

    #[test]
    fn certified_strategy_falls_back_when_certificate_misses() {
        // Under m-SC the pair is unordered, so the OO precondition fails;
        // Certified degrades to brute force where Constraint would error.
        let h = stale_read();
        let report = check(
            &h,
            Condition::MSequentialConsistency,
            Strategy::Certified(moc_core::constraints::Constraint::Oo),
        )
        .unwrap();
        assert!(report.satisfied);
        assert_eq!(report.strategy_used, StrategyUsed::BruteForce);
        // The pruned search may decide entirely by forced-prefix peeling.
        assert!(
            report.stats.nodes + report.stats.peeled > 0,
            "fallback actually did the work"
        );
    }

    #[test]
    fn a_cyclic_history_is_refuted_under_every_strategy() {
        // The first m-operation of p0 reads x from the second: ~p and ~rf
        // order the pair both ways, so ~H itself is cyclic.
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        let second = moc_core::ids::MOpId::new(pid(0), 1);
        b.mop(pid(0)).at(0, 10).read_from(x, 1, second).finish();
        b.mop(pid(0)).at(20, 30).write(x, 1).finish();
        let h = b.build().unwrap();
        let strategies = [
            Strategy::BruteForce(SearchLimits::default()),
            Strategy::Constraint(Constraint::Ww),
            Strategy::Auto,
            Strategy::Certified(Constraint::Oo),
        ];
        for condition in [
            Condition::MSequentialConsistency,
            Condition::MLinearizability,
            Condition::MNormality,
        ] {
            for strategy in strategies {
                let report = check(&h, condition, strategy)
                    .unwrap_or_else(|e| panic!("{condition}, {strategy:?}: {e}"));
                assert!(!report.satisfied, "{condition}, {strategy:?}");
                assert_eq!(
                    report.reason.as_deref(),
                    Some("~H+ cycle of length 2 refutes admissibility without search"),
                    "{condition}, {strategy:?}"
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
