//! Every route decides over one precedence graph: on grammar histories,
//! `check` under any strategy gives a verdict, never an error, and it is
//! the verdict the certified route attests.
//!
//! * `check(.., Auto)` agrees with `check_certified`, cyclic `~H` included.
//! * `check(.., BruteForce)` reports the certified route's reason and
//!   statistics, byte for byte.
//! * Every Auto witness is a legal linear extension of the dense
//!   `Condition::base_relation`, the definition kept as the reference.

use moc_checker::certificate::check_certified;
use moc_checker::conditions::{check, Condition, Strategy};
use moc_checker::SearchLimits;
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

#[test]
fn check_decides_what_check_certified_attests() {
    let limits = SearchLimits::default();
    let (mut pairs, mut admissible, mut searched) = (0, 0, 0);
    for (name, bounds) in bounds() {
        for seed in 0..400 {
            let h = history_from_seed(seed, &bounds);
            for condition in CONDITIONS {
                let what = format!("{name}, seed {seed}, {condition}");
                let (certified, _) = check_certified(&h, condition, limits)
                    .unwrap_or_else(|e| panic!("{what}: certified route: {e}"));

                let auto = check(&h, condition, Strategy::Auto)
                    .unwrap_or_else(|e| panic!("{what}: Auto gave no verdict: {e}"));
                assert_eq!(auto.satisfied, certified.satisfied, "{what}: Auto");
                if let Some(witness) = &auto.witness {
                    let reference = condition.base_relation(&h);
                    assert!(
                        sequence_witnesses_admissibility(&h, &reference, witness),
                        "{what}: Auto witness"
                    );
                }

                let brute = check(&h, condition, Strategy::BruteForce(limits))
                    .unwrap_or_else(|e| panic!("{what}: BruteForce gave no verdict: {e}"));
                assert_eq!(brute.satisfied, certified.satisfied, "{what}");
                assert_eq!(brute.witness, certified.witness, "{what}");
                assert_eq!(brute.reason, certified.reason, "{what}");
                assert_eq!(brute.stats, certified.stats, "{what}");

                pairs += 1;
                admissible += usize::from(certified.satisfied);
                searched += usize::from(auto.strategy_used == brute.strategy_used);
            }
        }
    }
    assert_eq!(pairs, 3_600);
    // Both verdicts, and both the fast path and the search, are exercised.
    assert!(
        (100..3_500).contains(&admissible),
        "{admissible} admissible"
    );
    assert!((100..3_500).contains(&searched), "{searched} searched");
}
