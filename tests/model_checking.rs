//! Exhaustive verification of the protocols on small configurations
//! (experiment E6/E8 upgraded from sampled seeds to *all* interleavings).

use std::sync::Arc;

use moc_abcast::IsisAbcast;
use moc_checker::conditions::Condition;
use moc_core::ids::ObjectId;
use moc_core::program::{imm, reg, ProgramBuilder};
use moc_mc::{explore, ExploreLimits};
use moc_protocol::{AggregateOverSequencer, MOperation, MscOverSequencer, MscReplica, OpSpec};

fn wx(v: i64) -> OpSpec {
    let mut b = ProgramBuilder::new(format!("w{v}"));
    b.write(ObjectId::new(0), imm(v)).ret(vec![]);
    OpSpec::new(Arc::new(b.build().unwrap()), vec![])
}

fn rx() -> OpSpec {
    let mut b = ProgramBuilder::new("rx");
    b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
    OpSpec::new(Arc::new(b.build().unwrap()), vec![])
}

#[test]
fn msc_two_by_two_exhaustive() {
    let result = explore::<MscOverSequencer>(
        1,
        vec![vec![wx(1), rx()], vec![rx(), wx(2)]],
        Condition::MSequentialConsistency,
        ExploreLimits::default(),
    );
    assert!(!result.truncated, "config small enough to finish");
    assert_eq!(result.schedules, 1412);
    assert!(
        result.holds(),
        "Theorem 15 violated on {}/{} schedules",
        result.violations.len(),
        result.schedules
    );
}

#[test]
fn msc_over_isis_exhaustive() {
    // ISIS has more messages per broadcast, so keep the config minimal.
    let result = explore::<MscReplica<IsisAbcast<MOperation>>>(
        1,
        vec![vec![wx(1)], vec![rx()]],
        Condition::MSequentialConsistency,
        ExploreLimits::default(),
    );
    assert!(!result.truncated);
    assert_eq!(result.schedules, 96);
    assert!(result.holds());
}

#[test]
fn aggregate_exhaustive_linearizability() {
    let result = explore::<AggregateOverSequencer>(
        1,
        vec![vec![wx(1)], vec![rx()]],
        Condition::MLinearizability,
        ExploreLimits::default(),
    );
    assert!(!result.truncated);
    assert!(
        result.holds(),
        "the aggregate baseline is m-linearizable under every interleaving"
    );
    assert_eq!(result.schedules, 280);
}

#[test]
fn msc_counterexamples_are_stale_queries() {
    let result = explore::<MscOverSequencer>(
        1,
        vec![vec![wx(1)], vec![rx()]],
        Condition::MLinearizability,
        ExploreLimits::default(),
    );
    assert!(!result.holds());
    for v in &result.violations {
        // Every counterexample is the reader returning the initial value
        // after the writer responded.
        let reader = v
            .history
            .records()
            .iter()
            .find(|r| &*r.label == "rx")
            .expect("reader recorded");
        let writer = v
            .history
            .records()
            .iter()
            .find(|r| &*r.label == "w1")
            .expect("writer recorded");
        assert_eq!(reader.outputs, vec![0], "stale read");
        assert!(
            writer.responded_at < reader.invoked_at,
            "the write responded before the stale query began"
        );
    }
}
