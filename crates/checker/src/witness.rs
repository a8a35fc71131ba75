//! Materializing admissibility witnesses as sequential histories.
//!
//! Admissibility (D 4.7) asks for an *equivalent legal sequential history*.
//! The search and the Theorem 7 fast path return that history as a schedule
//! (a permutation of the m-operations); [`make_sequential_history`] turns
//! the schedule into an actual [`History`] value — first event an
//! invocation, every invocation immediately followed by its response, total
//! order consistent with invocation order (the three clauses of the paper's
//! sequentiality definition) — so users can inspect, print or re-verify the
//! equivalent serial execution.

use moc_core::history::{History, MOpIdx};
use moc_core::legality::sequence_is_legal;
use moc_core::mop::EventTime;

/// Errors from witness materialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// The schedule is not a permutation of the history's m-operations.
    NotAPermutation,
    /// The schedule is a permutation but replaying it is not legal.
    NotLegal,
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::NotAPermutation => {
                f.write_str("schedule is not a permutation of the history")
            }
            WitnessError::NotLegal => f.write_str("schedule replay is not legal"),
        }
    }
}

impl std::error::Error for WitnessError {}

/// Builds the legal sequential history equivalent to `h` described by
/// `schedule`: the same m-operations (same ids, operations, outputs) with
/// invocation/response events re-laid on a serial timeline.
///
/// # Errors
///
/// Returns [`WitnessError`] if `schedule` does not cover `h` exactly or is
/// not legal.
pub fn make_sequential_history(h: &History, schedule: &[MOpIdx]) -> Result<History, WitnessError> {
    if schedule.len() != h.len() {
        return Err(WitnessError::NotAPermutation);
    }
    let mut seen = vec![false; h.len()];
    for &i in schedule {
        if i.0 >= h.len() || seen[i.0] {
            return Err(WitnessError::NotAPermutation);
        }
        seen[i.0] = true;
    }
    if !sequence_is_legal(h, schedule) {
        return Err(WitnessError::NotLegal);
    }
    let mut records = Vec::with_capacity(h.len());
    for (pos, &idx) in schedule.iter().enumerate() {
        let mut rec = h.record(idx).clone();
        let t = pos as u64 * 10;
        rec.invoked_at = EventTime::from_nanos(t);
        rec.responded_at = EventTime::from_nanos(t + 5);
        records.push(rec);
    }
    Ok(
        History::new(h.num_objects(), records)
            .expect("relabeled serial timeline stays well-formed"),
    )
}

/// Checks the sequentiality of a history: all m-operations non-overlapping
/// and totally ordered by real time (the serial histories produced by
/// [`make_sequential_history`] satisfy this by construction).
///
/// With the m-operations sorted by invocation, that is each responding
/// before the next is invoked: the neighbours' order chains to every pair.
pub fn is_sequential(h: &History) -> bool {
    let mut intervals: Vec<_> = h
        .records()
        .iter()
        .map(|rec| (rec.invoked_at, rec.responded_at))
        .collect();
    intervals.sort_unstable();
    intervals.windows(2).all(|w| w[0].1 < w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::{check, Condition, Strategy};
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::{ObjectId, ProcessId};

    fn sample() -> History {
        let x = ObjectId::new(0);
        let mut b = HistoryBuilder::new(1);
        let w = b.mop(ProcessId::new(0)).at(0, 10).write(x, 1).finish();
        b.mop(ProcessId::new(1))
            .at(5, 30)
            .read_from(x, 1, w)
            .finish();
        b.mop(ProcessId::new(2)).at(0, 8).read_init(x).finish();
        b.build().unwrap()
    }

    #[test]
    fn witness_materializes_to_sequential_history() {
        let h = sample();
        let report = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        let witness = report.witness.expect("admissible");
        let serial = make_sequential_history(&h, &witness).unwrap();
        assert!(is_sequential(&serial));
        assert_eq!(serial.len(), h.len());
        // Equivalent: same per-process subhistories and operations.
        assert!(serial.equivalent(&h));
        // The serial history is trivially m-linearizable.
        let again = check(&serial, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(again.satisfied);
    }

    #[test]
    fn rejects_non_permutations() {
        let h = sample();
        assert!(matches!(
            make_sequential_history(&h, &[MOpIdx(0)]),
            Err(WitnessError::NotAPermutation)
        ));
        assert!(matches!(
            make_sequential_history(&h, &[MOpIdx(0), MOpIdx(0), MOpIdx(1)]),
            Err(WitnessError::NotAPermutation)
        ));
    }

    #[test]
    fn rejects_illegal_schedules() {
        let h = sample();
        // Reader of the initial value cannot come after the writer.
        let bad = [MOpIdx(0), MOpIdx(1), MOpIdx(2)];
        assert!(matches!(
            make_sequential_history(&h, &bad),
            Err(WitnessError::NotLegal)
        ));
    }

    #[test]
    fn original_overlapping_history_is_not_sequential() {
        assert!(!is_sequential(&sample()));
    }

    #[test]
    fn witness_history_round_trips_through_the_codec() {
        let h = sample();
        let report = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        let serial = make_sequential_history(&h, &report.witness.unwrap()).unwrap();
        let text = moc_core::codec::to_text(&serial);
        let back = moc_core::codec::from_text(&text).unwrap();
        assert_eq!(text, moc_core::codec::to_text(&back));
        assert_eq!(
            moc_core::codec::fingerprint(&serial),
            moc_core::codec::fingerprint(&back)
        );
        assert!(is_sequential(&back));
    }

    #[test]
    fn tampered_witness_is_rejected() {
        let h = sample();
        let report = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        let witness = report.witness.expect("admissible");
        // Swapping the initial-value reader behind the writer breaks
        // legality: every tampering of this witness must be caught either
        // as a non-permutation or as an illegal replay.
        let mut tampered = witness.clone();
        tampered.reverse();
        assert!(make_sequential_history(&h, &tampered).is_err());
        let mut duplicated = witness.clone();
        duplicated[0] = duplicated[witness.len() - 1];
        assert!(matches!(
            make_sequential_history(&h, &duplicated),
            Err(WitnessError::NotAPermutation)
        ));
    }

    #[test]
    fn figure3_order_is_rejected_and_the_forced_rw_edge_explains_why() {
        // Figure 2's H1: α = r(x)0 w(y)2, β = r(y)2, γ = w(x)1, δ = w(y)3,
        // with the WW order α < γ < δ. Figure 3's S1 = α γ δ β is
        // sequential but not legal: δ overwrites the y that β reads from α.
        let x = ObjectId::new(0);
        let y = ObjectId::new(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b
            .mop(ProcessId::new(1))
            .at(0, 10)
            .read_init(x)
            .write(y, 2)
            .finish();
        b.mop(ProcessId::new(1))
            .at(20, 60)
            .read_from(y, 2, alpha)
            .finish();
        b.mop(ProcessId::new(2)).at(15, 25).write(x, 1).finish();
        b.mop(ProcessId::new(2)).at(30, 40).write(y, 3).finish();
        let h = b.build().unwrap();
        let s1 = [MOpIdx(0), MOpIdx(2), MOpIdx(3), MOpIdx(1)];
        assert!(matches!(
            make_sequential_history(&h, &s1),
            Err(WitnessError::NotLegal)
        ));

        // The precedence analysis derives exactly the missing constraint:
        // β ~rw δ is forced, so every witness places β before δ.
        let ww = [(MOpIdx(0), MOpIdx(2)), (MOpIdx(2), MOpIdx(3))];
        let mut g = crate::precedence::PrecedenceGraph::unsaturated(
            &h,
            Condition::MSequentialConsistency,
            &ww,
        );
        g.saturate(&h);
        assert!(g.closed().contains(MOpIdx(1), MOpIdx(3)));
        let (out, _) =
            crate::precedence::pruned_search(&h, &g, crate::admissible::SearchLimits::default());
        let w = out.witness().expect("figure 2 is admissible").to_vec();
        let serial = make_sequential_history(&h, &w).unwrap();
        assert!(is_sequential(&serial));
        let pos_beta = w.iter().position(|&i| i == MOpIdx(1)).unwrap();
        let pos_delta = w.iter().position(|&i| i == MOpIdx(3)).unwrap();
        assert!(pos_beta < pos_delta, "forced ~rw edge respected");
    }
}
