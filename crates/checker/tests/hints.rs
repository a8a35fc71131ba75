//! Negative controls for the hint: a protocol's order is a candidate
//! witness, never evidence.
//!
//! * An admissible history stays SATISFIED, with an audited witness, under
//!   a hint that reverses the order a legal run needs, a cyclic hint, and
//!   a hint that orders a read before its writer.
//! * A violated history stays VIOLATED under a hint that orders its stale
//!   read as a legal one, with an audited cycle.
//! * On grammar histories, a random hint never changes a verdict.
//!
//! No certificate of `certify` or `check_certified` cites a `base` edge.

use moc_audit::Verdict;
use moc_checker::certificate::{certify, check_certified, Certificate};
use moc_checker::conditions::Condition;
use moc_checker::SearchLimits;
use moc_core::history::{History, HistoryBuilder, MOpIdx};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_workload::arb::{history_from_seed, HistoryBounds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SC: Condition = Condition::MSequentialConsistency;

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// The audit of `cert` against `h`, which must not cite a `base` edge.
fn audit(h: &History, cert: &Certificate) -> Verdict {
    let text = cert.to_text();
    assert!(!text.contains("\"why\":\"base\""), "a base edge: {text}");
    moc_audit::audit(h, &text).unwrap_or_else(|e| panic!("REJECTED: {e}"))
}

/// `α = P0 w(x)1`, `β = P1 w(x)2`, then P2 reads 2 from β and after it 1
/// from α: admissible under m-SC only as `β ρ α ρ'`, so the broadcast
/// order a legal run has is β before α.
fn two_writers_read_backwards() -> (History, [MOpIdx; 4]) {
    let x = ObjectId::new(0);
    let mut b = HistoryBuilder::new(1);
    let alpha = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
    let beta = b.mop(pid(1)).at(0, 10).write(x, 2).finish();
    let rho = b.mop(pid(2)).at(20, 30).read_from(x, 2, beta).finish();
    let rho2 = b.mop(pid(2)).at(40, 50).read_from(x, 1, alpha).finish();
    let h = b.build().unwrap();
    let idx = |id: MOpId| h.idx_of(id).unwrap();
    let ids = [idx(alpha), idx(beta), idx(rho), idx(rho2)];
    (h, ids)
}

#[test]
fn doctored_hints_leave_an_admissible_history_satisfied() {
    let (h, [alpha, beta, rho, _]) = two_writers_read_backwards();
    let limits = SearchLimits::default();

    // The order the run needs decides by Theorem 7.
    let (report, cert) = certify(&h, SC, Some(&[(beta, alpha)]), limits).unwrap();
    assert!(report.satisfied && report.by_theorem7);
    assert_eq!(audit(&h, &cert), Verdict::WitnessVerified);

    let doctored: [(&str, &[(MOpIdx, MOpIdx)]); 3] = [
        // Under α before β the closure is illegal: ρ' reads α's x across β.
        ("reversed pair", &[(alpha, beta)]),
        ("cyclic hint", &[(alpha, beta), (beta, alpha)]),
        ("read before its writer", &[(rho, beta)]),
    ];
    let (_, searched) = check_certified(&h, SC, limits).unwrap();
    for (what, hint) in doctored {
        let (report, cert) = certify(&h, SC, Some(hint), limits).unwrap();
        assert!(report.satisfied, "{what}: {:?}", report.reason);
        assert!(!report.by_theorem7, "{what}");
        assert_eq!(audit(&h, &cert), Verdict::WitnessVerified, "{what}");
        assert_eq!(cert.to_text(), searched.to_text(), "{what}");
    }
}

#[test]
fn a_hint_never_turns_a_violation_into_a_witness() {
    let (x, y) = (ObjectId::new(0), ObjectId::new(1));
    let limits = SearchLimits::default();

    // A stale read under m-linearizability; the hint puts the read first,
    // the one order in which it would be fresh.
    let mut b = HistoryBuilder::new(1);
    let w = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
    let r = b.mop(pid(1)).at(20, 30).read_init(x).finish();
    let h = b.build().unwrap();
    let hint = [(h.idx_of(r).unwrap(), h.idx_of(w).unwrap())];
    let (report, cert) = certify(&h, Condition::MLinearizability, Some(&hint), limits).unwrap();
    assert!(!report.satisfied && !report.by_theorem7);
    assert_eq!(audit(&h, &cert), Verdict::CycleVerified);

    // Store buffering under m-SC: each process writes, then reads the
    // other's object as initial. A hint ordering the writers puts the
    // history under WW; it stays refuted by the `~H+` cycle of `~H` alone.
    let mut b = HistoryBuilder::new(2);
    let wx = b.mop(pid(0)).at(0, 10).write(x, 1).finish();
    b.mop(pid(0)).at(20, 30).read_init(y).finish();
    let wy = b.mop(pid(1)).at(0, 10).write(y, 1).finish();
    b.mop(pid(1)).at(20, 30).read_init(x).finish();
    let h = b.build().unwrap();
    let (_, searched) = check_certified(&h, SC, limits).unwrap();
    for hint in [
        [(h.idx_of(wx).unwrap(), h.idx_of(wy).unwrap())],
        [(h.idx_of(wy).unwrap(), h.idx_of(wx).unwrap())],
    ] {
        let (report, cert) = certify(&h, SC, Some(&hint), limits).unwrap();
        assert!(!report.satisfied && !report.by_theorem7);
        assert_eq!(audit(&h, &cert), Verdict::CycleVerified);
        assert_eq!(cert.to_text(), searched.to_text());
    }
}

#[test]
fn random_hints_never_change_the_verdict() {
    let limits = SearchLimits::default();
    let bounds = HistoryBounds::default();
    let mut rng = StdRng::seed_from_u64(0x6869_6e74);
    let (mut by_theorem7, mut refuted) = (0, 0);
    for seed in 0..300 {
        let h = history_from_seed(seed, &bounds);
        if h.is_empty() {
            continue;
        }
        for condition in [SC, Condition::MLinearizability, Condition::MNormality] {
            let (plain, _) = check_certified(&h, condition, limits).unwrap();
            let hint: Vec<_> = (0..rng.gen_range(0..2 * h.len()))
                .map(|_| {
                    let mut at = || MOpIdx(rng.gen_range(0..h.len()));
                    (at(), at())
                })
                .collect();
            let what = format!("seed {seed}, {condition}, hint {hint:?}");
            let (report, cert) = certify(&h, condition, Some(&hint), limits).unwrap();
            assert_eq!(report.satisfied, plain.satisfied, "{what}");
            let verdict = audit(&h, &cert);
            assert_eq!(
                verdict == Verdict::WitnessVerified,
                report.satisfied,
                "{what}"
            );
            by_theorem7 += usize::from(report.by_theorem7);
            refuted += usize::from(!report.satisfied);
        }
    }
    assert!(by_theorem7 > 0 && refuted > 0, "{by_theorem7} / {refuted}");
}
