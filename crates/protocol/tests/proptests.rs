//! Property tests for the protocols: Theorems 15 and 20 must hold for
//! arbitrary workload shapes, cluster sizes, delay models and seeds —
//! not just the fixed grids of `theorems.rs`.

use std::sync::Arc;

use moc_abcast::IsisAbcast;
use moc_checker::conditions::{check_with_order, Condition, Strategy as CheckStrategy};
use moc_core::constraints::Constraint;
use moc_core::ids::ObjectId;
use moc_core::program::{arg, imm, reg, CmpOp, ProgramBuilder};
use moc_protocol::{
    run_cluster, ClientScript, ClusterConfig, MOperation, MlinOverSequencer, MscReplica, OpSpec,
    ReplicaProtocol, RunReport,
};
use moc_sim::{DelayModel, NetworkConfig};
use proptest::prelude::*;

fn oid(i: u32) -> ObjectId {
    ObjectId::new(i)
}

#[derive(Debug, Clone)]
enum OpShape {
    ReadPair(u32, u32),
    WritePair(u32, u32, i64, i64),
    Increment(u32),
    Dcas(u32, u32, i64),
}

const OBJECTS: u32 = 3;

fn op_strategy() -> impl Strategy<Value = OpShape> {
    prop_oneof![
        (0..OBJECTS, 0..OBJECTS).prop_map(|(a, b)| OpShape::ReadPair(a, b)),
        (0..OBJECTS, 0..OBJECTS, -5i64..5, -5i64..5)
            .prop_map(|(a, b, v, w)| OpShape::WritePair(a, b, v, w)),
        (0..OBJECTS).prop_map(OpShape::Increment),
        (0..OBJECTS, 0..OBJECTS, -5i64..5).prop_map(|(a, b, v)| OpShape::Dcas(a, b, v)),
    ]
}

fn to_spec(shape: &OpShape) -> OpSpec {
    match *shape {
        OpShape::ReadPair(a, b) => {
            let mut p = ProgramBuilder::new("rp");
            p.read(oid(a), 0);
            if a != b {
                p.read(oid(b), 1);
            }
            p.ret(vec![reg(0), reg(1)]);
            OpSpec::new(Arc::new(p.build().unwrap()), vec![])
        }
        OpShape::WritePair(a, b, v, w) => {
            let mut p = ProgramBuilder::new("wp");
            p.write(oid(a), imm(v));
            if a != b {
                p.write(oid(b), imm(w));
            }
            p.ret(vec![]);
            OpSpec::new(Arc::new(p.build().unwrap()), vec![])
        }
        OpShape::Increment(a) => {
            let mut p = ProgramBuilder::new("inc");
            p.read(oid(a), 0)
                .add(0, reg(0), imm(1))
                .write(oid(a), reg(0))
                .ret(vec![reg(0)]);
            OpSpec::new(Arc::new(p.build().unwrap()), vec![])
        }
        OpShape::Dcas(a, b, v) => {
            let b2 = if a == b { (a + 1) % OBJECTS } else { b };
            let mut p = ProgramBuilder::new("dcas");
            let fail = p.fresh_label();
            p.read(oid(a), 0)
                .read(oid(b2), 1)
                .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
                .write(oid(a), imm(v))
                .write(oid(b2), imm(v))
                .ret(vec![imm(1)]);
            p.bind(fail);
            p.ret(vec![imm(0)]);
            OpSpec::new(Arc::new(p.build().unwrap()), vec![0])
        }
    }
}

fn delay_strategy() -> impl Strategy<Value = DelayModel> {
    prop_oneof![
        (1u64..2_000).prop_map(DelayModel::Fixed),
        (1u64..100, 100u64..30_000).prop_map(|(lo, hi)| DelayModel::Uniform { lo, hi }),
        (10u64..5_000).prop_map(|mean| DelayModel::Exponential { mean }),
    ]
}

fn run<R: ReplicaProtocol + 'static>(
    ops: &[Vec<OpShape>],
    delay: DelayModel,
    seed: u64,
) -> RunReport {
    let scripts: Vec<ClientScript> = ops
        .iter()
        .map(|per_proc| {
            ClientScript::new(per_proc.iter().map(to_spec).collect()).with_think_time(20)
        })
        .collect();
    let config =
        ClusterConfig::new(OBJECTS as usize, seed).with_network(NetworkConfig::with_delay(delay));
    run_cluster::<R>(&config, scripts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Theorem 15 over arbitrary workloads, on the ISIS substrate.
    #[test]
    fn theorem15_holds_for_arbitrary_workloads(
        ops in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..5), 1..5),
        delay in delay_strategy(),
        seed in any::<u64>(),
    ) {
        let report = run::<MscReplica<IsisAbcast<MOperation>>>(&ops, delay, seed);
        let verdict = check_with_order(
            &report.history,
            Condition::MSequentialConsistency,
            &report.ww_order(),
            CheckStrategy::Constraint(Constraint::Ww),
        ).expect("protocol histories are under WW");
        prop_assert!(verdict.satisfied, "{:?}", verdict.reason);
    }

    /// Theorem 20 over arbitrary workloads.
    #[test]
    fn theorem20_holds_for_arbitrary_workloads(
        ops in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..5), 1..5),
        delay in delay_strategy(),
        seed in any::<u64>(),
    ) {
        let report = run::<MlinOverSequencer>(&ops, delay, seed);
        let verdict = check_with_order(
            &report.history,
            Condition::MLinearizability,
            &report.ww_order(),
            CheckStrategy::Constraint(Constraint::Ww),
        ).expect("protocol histories are under WW");
        prop_assert!(verdict.satisfied, "{:?}", verdict.reason);
    }

    /// Increment counting: with u update-only increment workloads the
    /// final counter equals the number of increments (lost-update freedom),
    /// regardless of schedule.
    #[test]
    fn increments_are_never_lost(
        per_proc in proptest::collection::vec(1usize..5, 1..5),
        delay in delay_strategy(),
        seed in any::<u64>(),
    ) {
        let ops: Vec<Vec<OpShape>> = per_proc
            .iter()
            .map(|&k| vec![OpShape::Increment(0); k])
            .collect();
        let total: usize = per_proc.iter().sum();
        let report = run::<MscReplica<IsisAbcast<MOperation>>>(&ops, delay, seed);
        prop_assert_eq!(report.final_store.get(oid(0)).value, total as i64);
    }
}
