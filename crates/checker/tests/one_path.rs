//! One verdict path: on grammar histories, `certify` with no hint and
//! with an empty one gives a verdict, never an error, and every
//! certificate it gives is audited.
//!
//! * `check(.., Auto)` is the report of `certify(.., Some(&[]), ..)`.
//! * Where Theorem 7 does not decide, the hinted route is the unhinted
//!   one, report and certificate byte for byte; where it does, the witness
//!   is a legal linear extension of the dense `Condition::base_relation`,
//!   the definition kept as the reference.
//! * `moc_audit::audit` VERIFIES every witness and cycle certificate of
//!   both routes, and none cites a `base` edge.

use moc_audit::Verdict;
use moc_checker::certificate::{certify, Certificate};
use moc_checker::conditions::{check, Condition, Strategy};
use moc_checker::SearchLimits;
use moc_core::history::History;
use moc_core::legality::sequence_witnesses_admissibility;
use moc_workload::arb::{history_from_seed, HistoryBounds};

const CONDITIONS: [Condition; 3] = [
    Condition::MSequentialConsistency,
    Condition::MLinearizability,
    Condition::MNormality,
];

fn bounds() -> [(&'static str, HistoryBounds); 3] {
    [
        ("default", HistoryBounds::default()),
        (
            "3x4 span 2",
            HistoryBounds {
                processes: 3,
                mops_per_process: 4,
                max_span: 2,
                ..HistoryBounds::default()
            },
        ),
        (
            "4x3",
            HistoryBounds {
                processes: 4,
                mops_per_process: 3,
                ..HistoryBounds::default()
            },
        ),
    ]
}

/// Audits `cert` against `h`; it must agree with `admissible` and cite
/// no `base` edge.
fn audited(h: &History, cert: &Certificate, admissible: bool, what: &str) -> Verdict {
    let text = cert.to_text();
    assert!(!text.contains("\"why\":\"base\""), "{what}: a base edge");
    let verdict = moc_audit::audit(h, &text).unwrap_or_else(|e| panic!("{what}: REJECTED: {e}"));
    match verdict {
        Verdict::WitnessVerified => assert!(admissible, "{what}"),
        Verdict::CycleVerified | Verdict::ExhaustionAttested { .. } => {
            assert!(!admissible, "{what}")
        }
    }
    verdict
}

#[test]
fn every_route_decides_and_every_certificate_audits() {
    let limits = SearchLimits::default();
    let (mut pairs, mut admissible, mut by_theorem7, mut cycles) = (0, 0, 0, 0);
    for (name, bounds) in bounds() {
        for seed in 0..400 {
            let h = history_from_seed(seed, &bounds);
            for condition in CONDITIONS {
                let what = format!("{name}, seed {seed}, {condition}");
                let (plain, plain_cert) = certify(&h, condition, None, limits)
                    .unwrap_or_else(|e| panic!("{what}: unhinted route: {e}"));
                audited(&h, &plain_cert, plain.satisfied, &format!("{what}, None"));
                let (hinted, hinted_cert) = certify(&h, condition, Some(&[]), limits)
                    .unwrap_or_else(|e| panic!("{what}: hinted route: {e}"));
                let verdict = audited(&h, &hinted_cert, hinted.satisfied, &format!("{what}, Some"));
                assert_eq!(hinted.satisfied, plain.satisfied, "{what}");

                let auto = check(&h, condition, Strategy::Auto)
                    .unwrap_or_else(|e| panic!("{what}: Auto gave no verdict: {e}"));
                assert_eq!(auto.satisfied, hinted.satisfied, "{what}: Auto");
                assert_eq!(auto.witness, hinted.witness, "{what}: Auto");
                assert_eq!(auto.by_theorem7, hinted.by_theorem7, "{what}: Auto");

                if hinted.by_theorem7 {
                    let witness = hinted.witness.as_ref().expect("Theorem 7 only admits");
                    let reference = condition.base_relation(&h);
                    assert!(
                        sequence_witnesses_admissibility(&h, &reference, witness),
                        "{what}: Theorem 7 witness"
                    );
                    assert_eq!(hinted.stats.nodes, 0, "{what}");
                } else {
                    assert_eq!(hinted.witness, plain.witness, "{what}");
                    assert_eq!(hinted.reason, plain.reason, "{what}");
                    assert_eq!(hinted.stats, plain.stats, "{what}");
                    assert_eq!(hinted_cert.to_text(), plain_cert.to_text(), "{what}");
                }

                pairs += 1;
                admissible += usize::from(plain.satisfied);
                by_theorem7 += usize::from(hinted.by_theorem7);
                cycles += usize::from(verdict == Verdict::CycleVerified);
            }
        }
    }
    assert_eq!(pairs, 3_600);
    // Both verdicts, and both Theorem 7 and the search, are exercised.
    assert!(
        (100..3_500).contains(&admissible),
        "{admissible} admissible"
    );
    assert!(
        (100..3_500).contains(&by_theorem7),
        "{by_theorem7} by Theorem 7"
    );
    assert!((100..3_500).contains(&cycles), "{cycles} cycles");
}
