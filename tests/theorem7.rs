//! Theorem 7 (experiment E5) on the checker's one verdict path: under the
//! OO- or WW-constraint a history is admissible **iff** it is legal, so
//! `certify` with a protocol's order as its hint admits without search.
//! The order is a hint, never evidence: whatever it says, the verdict is
//! the one the naive search gives over `~H` alone, and the certificate
//! audits.
//!
//! Three families: protocol-generated histories (the broadcast order is
//! the hint and puts them under WW), serial histories (real time does),
//! and WW-ordered histories with deliberately scrambled read provenance
//! (where the hint often leaves the history illegal, or cyclic, and the
//! search decides). The theorem itself, over `~H ∪ order`, is tested with
//! the same histories and seeds in moc-checker's `fast` module.

use moc_abcast::IsisAbcast;
use moc_checker::admissible::{find_legal_extension, SearchLimits};
use moc_checker::certificate::certify;
use moc_checker::conditions::Condition;
use moc_core::constraints::{satisfies, Constraint};
use moc_core::history::{History, MOpIdx};
use moc_protocol::{run_cluster, ClusterConfig, MOperation, MlinReplica, MscOverSequencer};
use moc_sim::{DelayModel, NetworkConfig};
use moc_workload::histories::{serial_history, HistorySpec};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scrambled::scrambled_ww_history;

#[path = "../crates/checker/tests/support/scrambled.rs"]
mod scrambled;

/// `certify` with `order` as its hint against the naive search over `~H`
/// alone, built densely: the verdicts agree and the certificate audits.
/// Returns the (shared) verdict and whether Theorem 7 decided.
fn agree(h: &History, condition: Condition, order: &[(MOpIdx, MOpIdx)]) -> (bool, bool) {
    let (hinted, cert) =
        certify(h, condition, Some(order), SearchLimits::default()).expect("within budget");
    let (brute, _) = find_legal_extension(h, &condition.base_relation(h), SearchLimits::default());
    assert_eq!(
        hinted.satisfied,
        brute.is_admissible(),
        "the hint changed the verdict"
    );
    let audited = moc_audit::audit(h, &cert.to_text()).unwrap_or_else(|e| panic!("{e}"));
    assert!(audited.is_verified() || !hinted.satisfied, "{audited:?}");
    (hinted.satisfied, hinted.by_theorem7)
}

#[test]
fn agreement_on_protocol_histories() {
    for seed in 0..10u64 {
        let spec = WorkloadSpec {
            processes: 4,
            ops_per_process: 5,
            num_objects: 4,
            update_fraction: 0.6,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(spec.num_objects, seed).with_network(
            NetworkConfig::with_delay(DelayModel::Uniform { lo: 10, hi: 20_000 }),
        );
        let report = run_cluster::<MscOverSequencer>(&config, s);
        let condition = Condition::MSequentialConsistency;
        assert_eq!(
            agree(&report.history, condition, &report.ww_order()),
            (true, true),
            "protocol history admissible by Theorem 7"
        );
    }
}

#[test]
fn agreement_on_serial_histories_under_real_time() {
    // A serial history's real-time order totally orders everything, which
    // subsumes both OO and WW.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = HistorySpec {
            processes: 3,
            ops_per_process: 5,
            num_objects: 3,
            ..HistorySpec::default()
        };
        let h = serial_history(&spec, &mut rng);
        let lin = Condition::MLinearizability;
        let closed = lin.base_relation(&h).transitive_closure();
        assert!(satisfies(Constraint::Ww, &h, &closed));
        assert!(satisfies(Constraint::Oo, &h, &closed));
        assert_eq!(
            agree(&h, lin, &[]),
            (true, true),
            "serial history admissible by Theorem 7"
        );
    }
}

/// Randomized WW-ordered histories with scrambled provenance
/// ([`scrambled_ww_history`]): the serial order on updates is the `~ww`
/// hint, but some reads are rewired to random writers. Both checkers must
/// agree on every instance, and rejections must occur.
#[test]
fn agreement_on_scrambled_ww_histories() {
    let (mut rejected, mut accepted, mut searched) = (0, 0, 0);
    for seed in 0..40u64 {
        let (scrambled, ww) = scrambled_ww_history(seed);
        // Scrambling can make `~H ∪ ~ww` cyclic (a later update reading
        // from an even later one), or illegal: the hint then proves
        // nothing, and the search decides.
        let (satisfied, by_theorem7) = agree(&scrambled, Condition::MSequentialConsistency, &ww);
        match (satisfied, by_theorem7) {
            (true, true) => accepted += 1,
            (true, false) => searched += 1,
            (false, _) => rejected += 1,
        }
    }
    assert!(
        rejected > 0,
        "scrambling should produce inadmissible histories"
    );
    assert!(accepted > 0, "some scrambles stay legal under the hint");
    assert!(
        searched > 0,
        "some scrambles are admissible only off the hint"
    );
}

#[test]
fn mlin_histories_agree_under_real_time_and_ww() {
    for seed in 0..6u64 {
        let spec = WorkloadSpec {
            processes: 3,
            ops_per_process: 4,
            num_objects: 3,
            update_fraction: 0.5,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec, &mut rng);
        let config = ClusterConfig::new(spec.num_objects, seed);
        let report = run_cluster::<MlinReplica<IsisAbcast<MOperation>>>(&config, s);
        let lin = Condition::MLinearizability;
        assert_eq!(
            agree(&report.history, lin, &report.ww_order()),
            (true, true)
        );
    }
}
