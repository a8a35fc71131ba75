//! Counterexample minimization: shrink a violating history to a
//! 1-minimal one.
//!
//! Randomized runs and the model checker surface violating histories with
//! plenty of irrelevant m-operations around the actual anomaly. This
//! module delta-debugs them: it greedily removes m-operations while the
//! violation persists, yielding a history from which no single
//! m-operation can be removed without making it consistent — usually the
//! two- or three-operation core of the bug.

use moc_core::history::History;

use crate::admissible::SearchLimits;
use crate::conditions::{decide_with, Condition};

/// Outcome of [`minimize_violation`].
#[derive(Debug)]
pub struct Minimized {
    /// The 1-minimal violating history.
    pub history: History,
    /// m-operations removed from the input.
    pub removed: usize,
    /// Consistency checks performed while shrinking.
    pub checks: u64,
}

/// Errors from minimization.
#[derive(Debug)]
pub enum MinimizeError {
    /// The input history already satisfies the condition (or the search
    /// ran out of budget on it).
    NotAViolation,
}

impl std::fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimizeError::NotAViolation => {
                f.write_str("input history satisfies the condition; nothing to minimize")
            }
        }
    }
}

impl std::error::Error for MinimizeError {}

fn violates(h: &History, condition: Condition, limits: SearchLimits, checks: &mut u64) -> bool {
    *checks += 1;
    // The search; on budget exhaustion treat as "unknown" and keep the
    // record (conservative: may stay non-minimal but never returns a
    // satisfying history).
    decide_with(h, condition, &[], limits).is_ok_and(|report| !report.satisfied)
}

/// Shrinks `h` — which must violate `condition` — to a 1-minimal violating
/// history: removing any single remaining m-operation yields a consistent
/// (or invalid) history.
///
/// Removals that orphan a read (some remaining m-operation read from the
/// removed one) are rejected by history validation and skipped, so the
/// result is always a well-formed history.
///
/// # Errors
///
/// [`MinimizeError::NotAViolation`] if `h` satisfies the condition.
pub fn minimize_violation(
    h: &History,
    condition: Condition,
    limits: SearchLimits,
) -> Result<Minimized, MinimizeError> {
    let mut checks = 0u64;
    if !violates(h, condition, limits, &mut checks) {
        return Err(MinimizeError::NotAViolation);
    }

    let mut current: Vec<_> = h.records().to_vec();
    let mut removed = 0usize;
    let mut progress = true;
    while progress {
        progress = false;
        let mut i = 0;
        while i < current.len() {
            if current.len() == 1 {
                break;
            }
            let mut candidate = current.clone();
            candidate.remove(i);
            let Ok(smaller) = History::new(h.num_objects(), candidate) else {
                i += 1; // removal orphans a read — keep the record
                continue;
            };
            if violates(&smaller, condition, limits, &mut checks) {
                current.remove(i);
                removed += 1;
                progress = true;
                // Do not advance i: the next record shifted into place.
            } else {
                i += 1;
            }
        }
    }

    let history = History::new(h.num_objects(), current).expect("kept records remain well-formed");
    Ok(Minimized {
        history,
        removed,
        checks,
    })
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

    /// A stale read buried in unrelated traffic minimizes to its 2-op core.
    #[test]
    fn stale_read_minimizes_to_two_operations() {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        // The core violation: w(x)1 responds, then a read of initial x.
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        // Noise: unrelated traffic on y.
        let wy = b.mop(pid(2)).at(0, 10).write(y, 5).finish();
        b.mop(pid(3)).at(20, 30).read_from(y, 5, wy).finish();
        b.mop(pid(2)).at(40, 50).write(y, 6).finish();
        let h = b.build().unwrap();

        let out =
            minimize_violation(&h, Condition::MLinearizability, SearchLimits::default()).unwrap();
        assert_eq!(out.history.len(), 2, "core is the write + stale read");
        assert_eq!(out.removed, 3);
        assert!(out.checks > 3);
        let labels: Vec<_> = out.history.records().iter().map(|r| r.notation()).collect();
        assert!(labels.iter().any(|l| l.contains("w(x)1")), "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("r(x)0")), "{labels:?}");
    }

    /// Reads-from chains are preserved: the writer of an essential read
    /// cannot be removed even when trying hard.
    #[test]
    fn minimization_never_orphans_reads() {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        let w1 = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        let w2 = b.mop(pid(0)).at(20, 30).write(x, 2).finish();
        // Violation: reads v1 strictly after w2 responded.
        b.mop(pid(1)).at(40, 50).read_from(x, 1, w1).finish();
        let _ = w2;
        let h = b.build().unwrap();
        let out =
            minimize_violation(&h, Condition::MLinearizability, SearchLimits::default()).unwrap();
        // All three are essential: w1 feeds the read; dropping w2 removes
        // the violation (reading v1 becomes fine).
        assert_eq!(out.history.len(), 3);
        assert_eq!(out.removed, 0);
    }

    #[test]
    fn satisfying_histories_are_rejected() {
        let x = oid(0);
        let mut b = HistoryBuilder::new(1);
        let w = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(1)).at(20, 30).read_from(x, 1, w).finish();
        let h = b.build().unwrap();
        assert!(matches!(
            minimize_violation(&h, Condition::MLinearizability, SearchLimits::default()),
            Err(MinimizeError::NotAViolation)
        ));
    }
}
