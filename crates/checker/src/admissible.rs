//! The general admissibility decision procedure.
//!
//! `admissible(H)` (D 4.7) asks for a *legal sequential* history extending
//! `(op(H), ~H)`. Equivalently: a linear extension of `~H` such that
//! replaying the m-operations in that order makes every external read
//! observe the most recent write to its object.
//!
//! The search below enumerates linear extensions depth-first, scheduling an
//! m-operation only when (a) all its `~H`-predecessors are scheduled and
//! (b) all its external reads are legal against the current
//! last-writer-per-object state. Visited configurations — the pair of
//! (scheduled set, last-writer map) — are memoized through the Zobrist
//! transposition table of the crate-internal search engine, in the style of
//! Wing–Gong/Lowe linearizability checkers. The worst case is exponential,
//! and must be unless P = NP: Theorem 1 (m-sequential consistency) and
//! Theorem 2 (m-linearizability, even with the reads-from relation known)
//! show these problems NP-complete.

use moc_core::history::{History, MOpIdx};
use moc_core::relations::Relation;

use crate::engine::{self, ComponentPlan, SearchProblem};

/// Resource limits and tuning for the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum number of DFS nodes to expand before giving up.
    pub max_nodes: u64,
    /// Whether to memoize visited (scheduled set, last-writer map)
    /// configurations. Always sound; disabling it exists only for the
    /// memoization ablation benchmark.
    pub memoize: bool,
    /// Capacity bound on the transposition table, in entries. The table is
    /// per interaction component; when a component fills it past this
    /// bound it is evicted wholesale (a generation bump) and the run is
    /// reported as memo-saturated in [`SearchStats::memo_saturated`].
    pub max_memo_entries: u64,
    /// Whether to apply the commutativity-based symmetry reduction: among
    /// adjacent schedule positions holding *independent* m-operations (no
    /// precedence edge either way, commuting footprints), only the
    /// canonical ascending order is explored. Always sound — every
    /// schedule canonicalizes to an explored one by adjacent swaps that
    /// preserve legality — and disabled only for the ablation benchmark.
    pub symmetry: bool,
}

impl SearchLimits {
    /// Creates limits with the given node budget and everything else at
    /// the defaults (memoization on, bounded table, symmetry reduction on).
    pub fn with_max_nodes(max_nodes: u64) -> Self {
        SearchLimits {
            max_nodes,
            ..SearchLimits::default()
        }
    }

    /// Disables the memo table (ablation).
    pub fn without_memo(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Disables the symmetry reduction (ablation).
    pub fn without_symmetry(mut self) -> Self {
        self.symmetry = false;
        self
    }
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_nodes: 50_000_000,
            memoize: true,
            max_memo_entries: 1 << 20,
            symmetry: true,
        }
    }
}

/// Statistics from a search run. `components`, `peeled` and `forced_edges`
/// are only populated by the statically-pruned search
/// ([`crate::precedence::pruned_search`]); the naive search leaves them
/// zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// DFS nodes expanded.
    pub nodes: u64,
    /// Configurations pruned by the transposition table.
    pub memo_hits: u64,
    /// Independent interaction components searched separately.
    pub components: u64,
    /// M-operations scheduled by forced-prefix peeling (no search).
    pub peeled: u64,
    /// `~rw` edges the precedence saturation forced beyond the base
    /// relation.
    pub forced_edges: u64,
    /// Peak transposition-table occupancy over the searched components.
    pub memo_peak: u64,
    /// Whether any searched component filled its table past
    /// [`SearchLimits::max_memo_entries`] and fell back to generation
    /// eviction. Distinguishes a genuinely exhausted search from a
    /// memo-limited one in exhaustion certificates.
    pub memo_saturated: bool,
    /// Candidate expansions skipped by the symmetry reduction: schedulable
    /// m-operations not explored because the commuting adjacent pair is
    /// covered in its canonical (ascending) order.
    pub symmetry_skips: u64,
}

/// Result of the admissibility search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A witness: the m-operations in a legal sequential order extending
    /// the given relation.
    Admissible(Vec<MOpIdx>),
    /// No legal sequential extension exists.
    NotAdmissible,
    /// The node budget was exhausted before a conclusion was reached.
    LimitExceeded,
}

impl SearchOutcome {
    /// Whether the outcome is a positive witness.
    pub fn is_admissible(&self) -> bool {
        matches!(self, SearchOutcome::Admissible(_))
    }

    /// Extracts the witness, if any.
    pub fn witness(&self) -> Option<&[MOpIdx]> {
        match self {
            SearchOutcome::Admissible(w) => Some(w),
            _ => None,
        }
    }
}

/// Decides whether `(op(H), relation)` is admissible (D 4.7), returning a
/// witness schedule when it is.
///
/// `relation` need not be transitively closed. A cyclic relation is not
/// admissible (no linear extension exists).
pub fn find_legal_extension(
    h: &History,
    relation: &Relation,
    limits: SearchLimits,
) -> (SearchOutcome, SearchStats) {
    let n = h.len();
    let stats = SearchStats::default();
    if n == 0 {
        return (SearchOutcome::Admissible(Vec::new()), stats);
    }

    // Direct edges only (linear extensions of the edge set coincide with
    // linear extensions of its transitive closure), with an up-front
    // acyclicity guard.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, j) in relation.edges() {
        if i == j {
            return (SearchOutcome::NotAdmissible, stats);
        }
        edges.push((i.0 as u32, j.0 as u32));
        succs[i.0].push(j.0 as u32);
    }
    if crate::precedence::adjacency_has_cycle(&succs) {
        return (SearchOutcome::NotAdmissible, stats);
    }

    let problem = SearchProblem::new(h, &edges);
    // One component holding every m-operation, nothing peeled.
    let plan = ComponentPlan {
        members: (0..n as u32).collect(),
        peeled_order: Vec::new(),
        refuted_in_peel: false,
    };
    engine::execute(&problem, &[plan], limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::{ObjectId, ProcessId};
    use moc_core::legality::sequence_witnesses_admissibility;
    use moc_core::relations::{process_order, reads_from, real_time};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn empty_history_is_admissible() {
        let h = HistoryBuilder::new(1).build().unwrap();
        let (out, _) = find_legal_extension(&h, &Relation::new(0), SearchLimits::default());
        assert_eq!(out, SearchOutcome::Admissible(vec![]));
    }

    #[test]
    fn simple_write_then_read() {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        let w = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_from(x, 1, w).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h)
            .union(&reads_from(&h))
            .union(&real_time(&h));
        let (out, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        let w = out.witness().expect("admissible");
        assert!(sequence_witnesses_admissibility(&h, &rel, w));
    }

    #[test]
    fn stale_read_violates_linearizability_but_not_sc() {
        // P0: w(x)1 then (after it responds) P1 reads x=0 (initial).
        // Not m-linearizable (real-time forces the write first), but
        // m-sequentially consistent (the read may be ordered first).
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        let h = b.build().unwrap();

        let sc_rel = process_order(&h).union(&reads_from(&h));
        let (out, _) = find_legal_extension(&h, &sc_rel, SearchLimits::default());
        assert!(out.is_admissible(), "m-sequentially consistent");

        let lin_rel = sc_rel.union(&real_time(&h));
        let (out, _) = find_legal_extension(&h, &lin_rel, SearchLimits::default());
        assert_eq!(out, SearchOutcome::NotAdmissible);
    }

    #[test]
    fn classic_non_sequentially_consistent_history() {
        // P0: w(x)1 ; r(y)0    P1: w(y)1 ; r(x)0 — the standard SC litmus
        // (both reads see initial values): no interleaving is legal.
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(0)).at(20, 30).read_init(y).finish();
        b.mop(pid(1)).at(0, 10).write(y, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        let (out, stats) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert_eq!(out, SearchOutcome::NotAdmissible);
        assert!(stats.nodes > 0);
    }

    #[test]
    fn multi_object_atomicity_is_enforced() {
        // α writes x=1,y=1 atomically. A reader that sees x=1 but y=0 is
        // inconsistent under any condition including m-sequential
        // consistency (single m-operation mixing versions).
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(0)).at(0, 10).write(x, 1).write(y, 1).finish();
        b.mop(pid(1))
            .at(20, 30)
            .read_from(x, 1, alpha)
            .read_init(y)
            .finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        let (out, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert_eq!(out, SearchOutcome::NotAdmissible);
    }

    #[test]
    fn mixed_version_read_across_two_writers() {
        // α: w(x)1 w(y)1 ; β: w(x)2 w(y)2 ; reader sees x from β but y from
        // α. Legal only if α is after β for y... which contradicts reading
        // x=2 (β's write) while y=1 (α's). With β after α: reading y from α
        // is stale. Not admissible even without real-time order.
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(0)).at(0, 10).write(x, 1).write(y, 1).finish();
        let beta = b.mop(pid(1)).at(0, 10).write(x, 2).write(y, 2).finish();
        b.mop(pid(2))
            .at(20, 30)
            .read_from(x, 2, beta)
            .read_from(y, 1, alpha)
            .finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        let (out, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert_eq!(out, SearchOutcome::NotAdmissible);
    }

    #[test]
    fn cyclic_relation_is_not_admissible() {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(0, 10).write(x, 2).finish();
        let h = b.build().unwrap();
        let mut rel = Relation::new(2);
        rel.add(MOpIdx(0), MOpIdx(1));
        rel.add(MOpIdx(1), MOpIdx(0));
        let (out, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        assert_eq!(out, SearchOutcome::NotAdmissible);
    }

    #[test]
    fn node_limit_is_respected() {
        // Many unordered writers of distinct objects with no reads: huge
        // search space, but any order works — found immediately. To force
        // limit, use an unsatisfiable instance with a tiny budget.
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        for p in 0..4 {
            b.mop(pid(p)).at(0, 10).write(x, p as i64).finish();
            b.mop(pid(p))
                .at(20, 30)
                .read_init(y)
                .write(y, p as i64)
                .finish();
        }
        // Add a contradiction: a reader of y's initial value ordered last.
        b.mop(pid(9)).at(40, 50).read_init(y).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h)
            .union(&reads_from(&h))
            .union(&real_time(&h));
        let (out, stats) = find_legal_extension(&h, &rel, SearchLimits::with_max_nodes(3));
        assert!(matches!(
            out,
            SearchOutcome::LimitExceeded | SearchOutcome::NotAdmissible
        ));
        assert!(stats.nodes <= 4);
    }

    #[test]
    fn memo_ablation_agrees_but_explores_more() {
        // The classic SC litmus twice over: without memoization the search
        // revisits configurations.
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        for p in 0..3 {
            b.mop(pid(p)).at(0, 10).write(x, p as i64 + 1).finish();
            b.mop(pid(p)).at(20, 30).read_init(y).finish();
        }
        b.mop(pid(9)).at(40, 50).write(y, 1).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        let (with_memo, s1) = find_legal_extension(&h, &rel, SearchLimits::default());
        let (without, s2) = find_legal_extension(&h, &rel, SearchLimits::default().without_memo());
        assert_eq!(with_memo.is_admissible(), without.is_admissible());
        assert!(
            s2.nodes >= s1.nodes,
            "memo can only prune: {s1:?} vs {s2:?}"
        );
        assert_eq!(s2.memo_hits, 0);
    }

    #[test]
    fn symmetry_reduction_prunes_but_agrees() {
        // The classic SC litmus (inadmissible, forcing exhaustion) padded
        // with independent writers of distinct objects: without the
        // reduction the search permutes the independent writers, with it
        // only their ascending order survives.
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(6);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(0)).at(20, 30).read_init(y).finish();
        b.mop(pid(1)).at(0, 10).write(y, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        for k in 0..4u32 {
            b.mop(pid(10 + k)).at(0, 10).write(oid(2 + k), 7).finish();
        }
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        let (on, s_on) = find_legal_extension(&h, &rel, SearchLimits::default());
        let (off, s_off) =
            find_legal_extension(&h, &rel, SearchLimits::default().without_symmetry());
        assert_eq!(on, SearchOutcome::NotAdmissible);
        assert_eq!(off, SearchOutcome::NotAdmissible);
        assert!(s_on.symmetry_skips > 0, "{s_on:?}");
        assert_eq!(s_off.symmetry_skips, 0);
        assert!(
            s_on.nodes < s_off.nodes,
            "reduction must shrink the explored tree: {s_on:?} vs {s_off:?}"
        );
    }

    #[test]
    fn witness_respects_relation() {
        // Three independent updates + reader chains; verify witness.
        let x = oid(0);
        let y = oid(1);
        let z = oid(2);
        let mut b = HistoryBuilder::new(3);
        let a = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        let c = b.mop(pid(1)).at(0, 10).write(y, 2).finish();
        let d = b
            .mop(pid(2))
            .at(20, 30)
            .read_from(x, 1, a)
            .read_from(y, 2, c)
            .write(z, 3)
            .finish();
        b.mop(pid(0)).at(40, 50).read_from(z, 3, d).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h)
            .union(&reads_from(&h))
            .union(&real_time(&h));
        let (out, _) = find_legal_extension(&h, &rel, SearchLimits::default());
        let w = out.witness().expect("admissible");
        assert!(sequence_witnesses_admissibility(&h, &rel, w));
    }
}
