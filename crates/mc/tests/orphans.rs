//! On the reliable channels (no duplicate budget) only a fault can make a
//! replica complete an m-operation twice. The explorer reports such an
//! orphan completion as a violation in every build, release included.

use std::sync::Arc;

use moc_abcast::Outbox;
use moc_checker::conditions::Condition;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::program::{imm, reg, ProgramBuilder};
use moc_mc::{explore, ExploreLimits};
use moc_protocol::{
    Completion, MOperation, MscOverSequencer, OpSpec, ReplicaMetrics, ReplicaProtocol, ReplicaStore,
};

/// The Figure 4 replica with one fault: every completion it reports, it
/// reports twice, as if the m-operation had been applied twice.
#[derive(Clone)]
struct Twice(MscOverSequencer);

impl ReplicaProtocol for Twice {
    type Msg = <MscOverSequencer as ReplicaProtocol>::Msg;

    fn new(me: ProcessId, n: usize, num_objects: usize) -> Self {
        Twice(MscOverSequencer::new(me, n, num_objects))
    }

    fn protocol_name() -> &'static str {
        "msc-twice"
    }

    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>) {
        self.0.invoke(mop, out);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        self.0.on_message(from, msg, out);
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        self.0
            .drain_completions()
            .into_iter()
            .flat_map(|c| [c.clone(), c])
            .collect()
    }

    fn store(&self) -> &ReplicaStore {
        self.0.store()
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.0.metrics()
    }

    fn delivery_log(&self) -> &[MOpId] {
        self.0.delivery_log()
    }
}

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

fn run<R: ReplicaProtocol + Clone>() -> moc_mc::ExploreResult {
    explore::<R>(
        1,
        vec![vec![wx(1)], vec![rx()]],
        Condition::MSequentialConsistency,
        ExploreLimits::default(),
    )
}

#[test]
fn double_completion_on_reliable_channels_is_a_violation() {
    let result = run::<Twice>();
    assert!(!result.truncated);
    // Every schedule applies both m-operations, so every schedule is
    // reported, although each history alone is m-sequentially consistent.
    assert_eq!(result.schedules, 10);
    assert_eq!(result.violations.len() as u64, result.schedules);
    for v in &result.violations {
        assert_eq!(
            v.reason.as_deref(),
            Some("2 orphan completion(s): a frame was applied twice")
        );
        assert_eq!(v.history.len(), 2, "each m-operation is recorded once");
    }

    // The same configuration without the fault holds on every schedule.
    let healthy = run::<MscOverSequencer>();
    assert_eq!(healthy.schedules, result.schedules);
    assert!(healthy.holds());
}
