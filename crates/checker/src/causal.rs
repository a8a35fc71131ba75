//! m-causal consistency — the weaker condition the paper contrasts with.
//!
//! Section 1: "Independently, Raynal et al also generalized Herlihy's model
//! to transactions on multiple objects but they focussed on weaker
//! consistency conditions, namely causal consistency and causal
//! serializability." This module implements that weaker condition in our
//! framework so the spectrum
//!
//! ```text
//! m-linearizability ⊂ m-sequential consistency ⊂ m-causal consistency
//! ```
//!
//! is fully checkable.
//!
//! Following the causal-memory formulation lifted to m-operations: let the
//! *causality order* be `(~p ∪ ~rf)+`. A history is **m-causally
//! consistent** iff for every process `Pi` there is a legal serialization
//! of the sub-history containing all *update* m-operations plus `Pi`'s own
//! m-operations, respecting the causality order. Unlike m-sequential
//! consistency, different processes may serialize concurrent updates in
//! different orders — which is exactly what the classic two-writers /
//! two-readers litmus exploits.
//!
//! Each sub-history is decided as m-sequential consistency by the search
//! over its `~p ∪ ~rf` and the pairs below, which are part of the
//! causality order and so evidence (`EdgeKind::Base` edges). Its own
//! `~p ∪ ~rf` misses only the causality through the queries it drops: a
//! query of another process `r` reading from `w` orders `w` before `r`'s
//! next update `u`, and `(w, u)` goes in as extra order. `w = u` is a causal cycle, and the reflexive edge
//! refutes. Every causal cycle holds a `~rf` edge out of an update, which
//! every sub-history keeps, so a cyclic history serializes for no process.

use moc_core::history::{History, MOpIdx};
use moc_core::ids::ProcessId;

use crate::admissible::{SearchLimits, SearchStats};
use crate::conditions::{decide_with, CheckError, CheckReport, Condition};

/// Per-process verdicts of the m-causal-consistency check.
#[derive(Debug, Clone)]
pub struct CausalReport {
    /// Whether every process admits a legal causal serialization.
    pub satisfied: bool,
    /// For each process: its serialization witness (indices into the
    /// *original* history), or `None` if that process has no legal
    /// serialization.
    pub per_process: Vec<(ProcessId, Option<Vec<MOpIdx>>)>,
    /// Accumulated search statistics.
    pub stats: SearchStats,
}

/// Decides m-causal consistency of `h` (see module docs).
///
/// # Errors
///
/// Returns [`CheckError::LimitExceeded`] if any per-process search
/// exhausts its budget.
pub fn check_m_causal(h: &History, limits: SearchLimits) -> Result<CausalReport, CheckError> {
    let through_queries = query_mediated_pairs(h);
    let (mut per_process, mut stats) = (Vec::new(), SearchStats::default());
    for p in h.processes() {
        // Sub-history: all updates + Pi's own m-operations, indexed where
        // they stand: `sub`'s k-th record is `h`'s `keep[k]`.
        let keep: Vec<MOpIdx> = h
            .iter()
            .filter(|(_, r)| r.is_update() || r.process() == p)
            .map(|(i, _)| i)
            .collect();
        let records = keep.iter().map(|&i| h.record(i).clone()).collect();
        let sub = History::new(h.num_objects(), records)
            .expect("a sub-history keeps every writer its records read from");
        // Both ends of a pair are updates, which every sub-history keeps.
        let at = |i: MOpIdx| MOpIdx(keep.partition_point(|&k| k < i));
        let order: Vec<_> = through_queries
            .iter()
            .filter(|&&(r, _, _)| r != p)
            .map(|&(_, w, u)| (at(w), at(u)))
            .collect();
        let decided = decide_with(&sub, Condition::MSequentialConsistency, &order, limits);
        let (Ok(CheckReport { stats: s, .. }) | Err(CheckError::LimitExceeded(s))) = &decided;
        stats.nodes += s.nodes;
        stats.memo_hits += s.memo_hits;
        let Ok(CheckReport { witness, .. }) = decided else {
            return Err(CheckError::LimitExceeded(stats));
        };
        per_process.push((
            p,
            witness.map(|w| w.into_iter().map(|i| keep[i.0]).collect()),
        ));
    }
    let satisfied = per_process.iter().all(|(_, w)| w.is_some());
    Ok(CausalReport {
        satisfied,
        per_process,
        stats,
    })
}

/// The causal pairs that run through queries, as `(r, w, u)`: a query of
/// process `r` reads from `w`, and `u` is `r`'s next update after it.
fn query_mediated_pairs(h: &History) -> Vec<(ProcessId, MOpIdx, MOpIdx)> {
    let mut pairs = Vec::new();
    for idxs in h.subhistories() {
        let mut next_update = None;
        for &q in idxs.iter().rev() {
            let record = h.record(q);
            if record.is_update() {
                next_update = Some(q);
            } else if let Some(u) = next_update {
                let writers = h.read_sources(q).filter_map(|(_, w)| w);
                pairs.extend(writers.map(|w| (record.process(), w, u)));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admissible::{find_legal_extension, SearchOutcome};
    use crate::conditions::{check, Strategy};
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::ObjectId;
    use moc_core::legality::sequence_witnesses_admissibility;
    use moc_core::relations::{process_order, reads_from, Relation};
    use moc_workload::arb::{history_from_seed, HistoryBounds};

    /// The sub-history of `p` (all updates plus `p`'s own m-operations,
    /// with their indices in `h`) and `causal` restricted to it, pair by
    /// pair.
    fn restricted(
        h: &History,
        causal: &Relation,
        p: ProcessId,
    ) -> (Vec<MOpIdx>, History, Relation) {
        let keep: Vec<MOpIdx> = h
            .iter()
            .filter(|(_, r)| r.is_update() || r.process() == p)
            .map(|(i, _)| i)
            .collect();
        let sub_records: Vec<_> = keep.iter().map(|&i| h.record(i).clone()).collect();
        let sub = History::new(h.num_objects(), sub_records)
            .expect("sub-history of a valid history is valid");
        let mut rel = Relation::new(sub.len());
        for (si, &oi) in keep.iter().enumerate() {
            for (sj, &oj) in keep.iter().enumerate() {
                if si != sj && causal.contains(oi, oj) {
                    rel.add(MOpIdx(si), MOpIdx(sj));
                }
            }
        }
        (keep, sub, rel)
    }

    /// The definition, decided the naive way: the whole history's
    /// `(~p ∪ ~rf)+`, an early refutation when it is cyclic, and per
    /// process the dense restriction handed to [`find_legal_extension`].
    /// [`check_m_causal`] is tested against it.
    fn check_m_causal_by_closure(
        h: &History,
        limits: SearchLimits,
    ) -> Result<CausalReport, CheckError> {
        let causal = process_order(h).union(&reads_from(h)).transitive_closure();
        if !causal.is_irreflexive() {
            // Cyclic causality can never serialize.
            return Ok(CausalReport {
                satisfied: false,
                per_process: h.processes().into_iter().map(|p| (p, None)).collect(),
                stats: SearchStats::default(),
            });
        }

        let mut per_process = Vec::new();
        let mut total_stats = SearchStats::default();
        let mut satisfied = true;

        for p in h.processes() {
            let (keep, sub, rel) = restricted(h, &causal, p);
            let (outcome, stats) = find_legal_extension(&sub, &rel, limits);
            total_stats.nodes += stats.nodes;
            total_stats.memo_hits += stats.memo_hits;
            match outcome {
                SearchOutcome::Admissible(w) => {
                    // Map the witness back to original indices.
                    per_process.push((p, Some(w.into_iter().map(|i| keep[i.0]).collect())));
                }
                SearchOutcome::NotAdmissible => {
                    satisfied = false;
                    per_process.push((p, None));
                }
                SearchOutcome::LimitExceeded => {
                    return Err(CheckError::LimitExceeded(total_stats));
                }
            }
        }
        Ok(CausalReport {
            satisfied,
            per_process,
            stats: total_stats,
        })
    }

    /// Per-process verdicts and the `Some`/`None` pattern agree with the
    /// closure reference on `moc-workload::arb` histories, and every
    /// witness extends the reference's restricted closure legally. The
    /// sweep reaches violated histories and histories whose processes
    /// disagree, so it is not vacuous.
    #[test]
    fn precedence_graph_agrees_with_the_closure_reference() {
        let bounds = [
            HistoryBounds::default(),
            HistoryBounds {
                processes: 4,
                mops_per_process: 3,
                objects: 3,
                max_span: 2,
                update_fraction: 0.5,
            },
            HistoryBounds {
                processes: 3,
                mops_per_process: 4,
                objects: 2,
                max_span: 2,
                update_fraction: 0.4,
            },
            HistoryBounds {
                processes: 4,
                mops_per_process: 2,
                objects: 4,
                max_span: 3,
                update_fraction: 0.7,
            },
        ];
        let limits = SearchLimits::default();
        let (mut violated, mut mixed) = (0, 0);
        for bounds in &bounds {
            for seed in 0..3_000 {
                let h = history_from_seed(seed, bounds);
                let new = check_m_causal(&h, limits).unwrap();
                let old = check_m_causal_by_closure(&h, limits).unwrap();
                let pattern = |r: &CausalReport| -> Vec<(ProcessId, bool)> {
                    r.per_process
                        .iter()
                        .map(|(p, w)| (*p, w.is_some()))
                        .collect()
                };
                assert_eq!(new.satisfied, old.satisfied, "{bounds:?} seed {seed}");
                assert_eq!(pattern(&new), pattern(&old), "{bounds:?} seed {seed}");
                let causal = process_order(&h)
                    .union(&reads_from(&h))
                    .transitive_closure();
                for (p, witness) in &new.per_process {
                    let Some(witness) = witness else { continue };
                    let (keep, sub, rel) = restricted(&h, &causal, *p);
                    let at: Vec<MOpIdx> = witness
                        .iter()
                        .map(|i| MOpIdx(keep.binary_search(i).unwrap()))
                        .collect();
                    assert!(
                        sequence_witnesses_admissibility(&sub, &rel, &at),
                        "{bounds:?} seed {seed}: {p}'s witness"
                    );
                }
                violated += usize::from(!new.satisfied);
                let somes = new.per_process.iter().filter(|(_, w)| w.is_some()).count();
                mixed += usize::from(somes > 0 && somes < new.per_process.len());
            }
        }
        assert!(
            violated > 1_000 && mixed > 500,
            "{violated} violated, {mixed} mixed"
        );
    }

    /// The causality that runs through a dropped query: P1's read of x
    /// orders P0's write before P1's write of y, which P2 reads before it
    /// reads the initial x. P2's sub-history drops P1's query, so only the
    /// query-mediated pair keeps `w(x)1` before `w(y)1`; without it P2
    /// would serialize `w(y)1, r(y), r(x)0, w(x)1`.
    #[test]
    fn causality_through_a_dropped_query_binds() {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let wx = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_from(x, 1, wx).finish();
        let wy = b.mop(pid(1)).at(40, 50).write(y, 1).finish();
        b.mop(pid(2)).at(60, 70).read_from(y, 1, wy).finish();
        b.mop(pid(2)).at(80, 90).read_init(x).finish();
        let h = b.build().unwrap();
        let causal = check_m_causal(&h, SearchLimits::default()).unwrap();
        assert!(!causal.satisfied);
        let verdicts: Vec<_> = causal
            .per_process
            .iter()
            .map(|(p, w)| (p.index(), w.is_some()))
            .collect();
        assert_eq!(verdicts, [(0, true), (1, true), (2, false)]);
    }

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    /// The classic separator: two concurrent writes to x observed in
    /// opposite orders by two readers. Causally consistent (the writes are
    /// causally unrelated, so each reader may serialize them its own way),
    /// but not m-sequentially consistent.
    #[test]
    fn opposite_read_orders_are_causal_but_not_sc() {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        let w1 = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        let w2 = b.mop(pid(1)).at(0, 10).write(x, 2).finish();
        // P2 sees 1 then 2; P3 sees 2 then 1.
        b.mop(pid(2)).at(20, 30).read_from(x, 1, w1).finish();
        b.mop(pid(2)).at(40, 50).read_from(x, 2, w2).finish();
        b.mop(pid(3)).at(20, 30).read_from(x, 2, w2).finish();
        b.mop(pid(3)).at(40, 50).read_from(x, 1, w1).finish();
        let h = b.build().unwrap();

        let causal = check_m_causal(&h, SearchLimits::default()).unwrap();
        assert!(causal.satisfied, "{causal:?}");
        assert_eq!(causal.per_process.len(), 4);
        assert!(causal.per_process.iter().all(|(_, w)| w.is_some()));

        let sc = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(!sc.satisfied, "SC forbids opposite orders");
    }

    /// Causality violations are rejected: a process reads a later write
    /// but then an earlier (causally preceding) one.
    #[test]
    fn causally_ordered_writes_cannot_be_observed_backwards() {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        // P0 writes 1 then (after reading its own 1 — same process order)
        // writes 2: w1 → w2 causally.
        let w1 = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        let w2 = b.mop(pid(0)).at(20, 30).write(x, 2).finish();
        // P1 reads 2 then 1 — against causality.
        b.mop(pid(1)).at(40, 50).read_from(x, 2, w2).finish();
        b.mop(pid(1)).at(60, 70).read_from(x, 1, w1).finish();
        let h = b.build().unwrap();

        let causal = check_m_causal(&h, SearchLimits::default()).unwrap();
        assert!(!causal.satisfied);
        // P0's own view is fine; P1's is not.
        let p1 = causal
            .per_process
            .iter()
            .find(|(p, _)| *p == pid(1))
            .unwrap();
        assert!(p1.1.is_none());
        let p0 = causal
            .per_process
            .iter()
            .find(|(p, _)| *p == pid(0))
            .unwrap();
        assert!(p0.1.is_some());
    }

    /// m-sequential consistency implies m-causal consistency: reuse the
    /// Figure 2 history.
    #[test]
    fn sc_implies_causal() {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(1)).at(0, 10).read_init(x).write(y, 2).finish();
        b.mop(pid(1)).at(20, 60).read_from(y, 2, alpha).finish();
        b.mop(pid(2)).at(15, 25).write(x, 1).finish();
        b.mop(pid(2)).at(30, 40).write(y, 3).finish();
        let h = b.build().unwrap();
        let sc = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(sc.satisfied);
        let causal = check_m_causal(&h, SearchLimits::default()).unwrap();
        assert!(causal.satisfied);
    }

    /// Multi-object atomicity still binds under causal consistency: a
    /// reader may not mix versions from one atomic write pair.
    #[test]
    fn torn_multi_object_read_is_not_even_causal() {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let a = b.mop(pid(0)).at(0, 10).write(x, 1).write(y, 1).finish();
        let c = b.mop(pid(1)).at(0, 10).write(x, 2).write(y, 2).finish();
        b.mop(pid(2))
            .at(20, 30)
            .read_from(x, 1, a)
            .read_from(y, 2, c)
            .finish();
        let h = b.build().unwrap();
        let causal = check_m_causal(&h, SearchLimits::default()).unwrap();
        assert!(!causal.satisfied, "mixed snapshot must fail causally too");
    }

    /// Cyclic reads-from can never serialize. The builder cannot express
    /// forward references, so the two mutually-reading records are
    /// constructed directly.
    #[test]
    fn cyclic_causality_is_rejected() {
        let x = oid(0);
        let y = oid(1);
        let a_id = moc_core::ids::MOpId::new(pid(0), 0);
        let c_id = moc_core::ids::MOpId::new(pid(1), 0);
        use moc_core::inline::InlineList;
        use moc_core::mop::{EventTime, MOpClass, MOpRecord};
        use moc_core::op::CompletedOp;
        let a = MOpRecord {
            id: a_id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(10),
            ops: [
                CompletedOp::read(y, 5, c_id, 1),
                CompletedOp::write(x, 4, a_id, 1),
            ]
            .into(),
            outputs: InlineList::new(),
            treated_as: MOpClass::Update,
            label: "a".into(),
        };
        let c = MOpRecord {
            id: c_id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(10),
            ops: [
                CompletedOp::read(x, 4, a_id, 1),
                CompletedOp::write(y, 5, c_id, 1),
            ]
            .into(),
            outputs: InlineList::new(),
            treated_as: MOpClass::Update,
            label: "c".into(),
        };
        let h = History::new(2, vec![a, c]).unwrap();
        let causal = check_m_causal(&h, SearchLimits::default()).unwrap();
        assert!(!causal.satisfied);
        assert!(causal.per_process.iter().all(|(_, w)| w.is_none()));
    }
}
