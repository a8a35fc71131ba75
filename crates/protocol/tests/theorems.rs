//! Validation of the paper's protocol correctness theorems on randomized
//! executions.
//!
//! * Theorem 15 — every execution of the Figure 4 protocol is
//!   m-sequentially consistent.
//! * Theorem 20 — every execution of the Figure 6 protocol is
//!   m-linearizable.
//!
//! Each run uses the deterministic simulator with a different seed and
//! delay model, then feeds the recorded history to the checker. Because the
//! protocols enforce the WW-constraint through atomic broadcast, the
//! polynomial Theorem 7 checker applies when the broadcast order is
//! supplied; the brute-force NP checker cross-validates on the plain base
//! relations.

use std::sync::Arc;

use moc_abcast::IsisAbcast;
use moc_checker::conditions::{check, check_with_order, Condition, Strategy};
use moc_core::constraints::Constraint;
use moc_core::ids::ObjectId;
use moc_core::program::{arg, imm, reg, CmpOp, Program, ProgramBuilder};
use moc_protocol::{
    run_cluster, AggregateOverSequencer, ClientScript, ClusterConfig, MOperation,
    MlinOverSequencer, MlinReplica, MscOverSequencer, MscReplica, OpSpec, ReplicaProtocol,
    RunReport,
};
use moc_sim::{DelayModel, NetworkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn oid(i: u32) -> ObjectId {
    ObjectId::new(i)
}

/// A small program zoo exercising multi-object reads, writes and DCAS.
struct Zoo {
    programs: Vec<(Arc<Program>, usize)>, // (program, arity)
}

impl Zoo {
    fn new(num_objects: u32) -> Self {
        let mut programs = Vec::new();
        // Multi-object queries: read k consecutive objects.
        for k in 1..=3u32.min(num_objects) {
            let mut b = ProgramBuilder::new(format!("read{k}"));
            for j in 0..k {
                b.read(oid(j % num_objects), j as u8);
            }
            b.ret((0..k).map(|j| reg(j as u8)).collect());
            programs.push((Arc::new(b.build().unwrap()), 0));
        }
        // Multi-object updates: write pairs.
        for j in 0..num_objects {
            let x = oid(j);
            let y = oid((j + 1) % num_objects);
            let mut b = ProgramBuilder::new(format!("wpair{j}"));
            b.write(x, arg(0));
            if y != x {
                b.write(y, arg(1));
            }
            b.ret(vec![]);
            programs.push((Arc::new(b.build().unwrap()), 2));
        }
        // Increment (read-modify-write).
        let mut b = ProgramBuilder::new("inc");
        b.read(oid(0), 0)
            .add(0, reg(0), imm(1))
            .write(oid(0), reg(0))
            .ret(vec![reg(0)]);
        programs.push((Arc::new(b.build().unwrap()), 0));
        // DCAS on the first two objects (when available).
        if num_objects >= 2 {
            let mut b = ProgramBuilder::new("dcas");
            let fail = b.fresh_label();
            b.read(oid(0), 0)
                .read(oid(1), 1)
                .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
                .jump_if(reg(1), CmpOp::Ne, arg(1), fail)
                .write(oid(0), arg(2))
                .write(oid(1), arg(3))
                .ret(vec![imm(1)]);
            b.bind(fail);
            b.ret(vec![imm(0)]);
            programs.push((Arc::new(b.build().unwrap()), 4));
        }
        Zoo { programs }
    }

    fn random_scripts(
        &self,
        rng: &mut StdRng,
        processes: usize,
        ops_per_process: usize,
        update_fraction: f64,
    ) -> Vec<ClientScript> {
        (0..processes)
            .map(|_| {
                let ops = (0..ops_per_process)
                    .map(|_| {
                        let updates: Vec<_> = self
                            .programs
                            .iter()
                            .filter(|(p, _)| p.is_potential_update())
                            .collect();
                        let queries: Vec<_> = self
                            .programs
                            .iter()
                            .filter(|(p, _)| !p.is_potential_update())
                            .collect();
                        let (p, arity) = if rng.gen_bool(update_fraction) {
                            updates[rng.gen_range(0..updates.len())]
                        } else {
                            queries[rng.gen_range(0..queries.len())]
                        };
                        let args = (0..*arity).map(|_| rng.gen_range(0..100)).collect();
                        OpSpec::new(Arc::clone(p), args)
                    })
                    .collect();
                ClientScript::new(ops).with_think_time(50)
            })
            .collect()
    }
}

fn networks() -> Vec<NetworkConfig> {
    vec![
        NetworkConfig::fifo(500),
        NetworkConfig::with_delay(DelayModel::Uniform { lo: 10, hi: 10_000 }),
        NetworkConfig::with_delay(DelayModel::Exponential { mean: 2_000 }),
    ]
}

fn run<R: ReplicaProtocol + 'static>(seed: u64, network: NetworkConfig) -> RunReport {
    let num_objects = 4;
    let zoo = Zoo::new(num_objects as u32);
    let mut rng = StdRng::seed_from_u64(seed);
    let scripts = zoo.random_scripts(&mut rng, 4, 6, 0.5);
    let config = ClusterConfig::new(num_objects, seed).with_network(network);
    run_cluster::<R>(&config, scripts)
}

/// Asserts the report's history satisfies `condition`, via the fast
/// Theorem 7 path using the recorded broadcast order, cross-checked with
/// the brute-force searcher on the plain base relation.
fn assert_satisfies(report: &RunReport, condition: Condition) {
    // Fast path: base relation ∪ ~ww satisfies the WW-constraint.
    let fast = check_with_order(
        &report.history,
        condition,
        &report.ww_order(),
        Strategy::Constraint(Constraint::Ww),
    )
    .unwrap_or_else(|e| panic!("{}: fast check errored: {e}", report.protocol));
    assert!(
        fast.satisfied,
        "{}: {condition} violated (fast path): {:?}",
        report.protocol, fast.reason
    );

    // Brute force on the plain relation (no ~ww hint): must agree.
    let brute = check(&report.history, condition, Strategy::Auto)
        .unwrap_or_else(|e| panic!("{}: brute check errored: {e}", report.protocol));
    assert!(
        brute.satisfied,
        "{}: {condition} violated (brute force): {:?}",
        report.protocol, brute.reason
    );
}

#[test]
fn theorem15_msc_sequencer_is_m_sequentially_consistent() {
    for (i, network) in networks().into_iter().enumerate() {
        for seed in 0..5u64 {
            let report = run::<MscOverSequencer>(seed * 31 + i as u64, network);
            assert_satisfies(&report, Condition::MSequentialConsistency);
        }
    }
}

#[test]
fn theorem15_msc_isis_is_m_sequentially_consistent() {
    for (i, network) in networks().into_iter().enumerate() {
        for seed in 0..5u64 {
            let report = run::<MscReplica<IsisAbcast<MOperation>>>(seed * 17 + i as u64, network);
            assert_satisfies(&report, Condition::MSequentialConsistency);
        }
    }
}

#[test]
fn theorem20_mlin_sequencer_is_m_linearizable() {
    for (i, network) in networks().into_iter().enumerate() {
        for seed in 0..5u64 {
            let report = run::<MlinOverSequencer>(seed * 13 + i as u64, network);
            assert_satisfies(&report, Condition::MLinearizability);
            // m-linearizability implies the weaker conditions too.
            assert_satisfies(&report, Condition::MSequentialConsistency);
            assert_satisfies(&report, Condition::MNormality);
        }
    }
}

#[test]
fn theorem20_mlin_isis_is_m_linearizable() {
    for (i, network) in networks().into_iter().enumerate() {
        for seed in 0..5u64 {
            let report = run::<MlinReplica<IsisAbcast<MOperation>>>(seed * 7 + i as u64, network);
            assert_satisfies(&report, Condition::MLinearizability);
        }
    }
}

#[test]
fn aggregate_baseline_is_m_linearizable() {
    for seed in 0..5u64 {
        let report = run::<AggregateOverSequencer>(seed, NetworkConfig::default());
        assert_satisfies(&report, Condition::MLinearizability);
    }
}

/// The Figure 4 protocol is m-sequentially consistent but *not*
/// m-linearizable: its local queries can return stale values after an
/// update elsewhere has already responded. Exhibit a concrete execution.
#[test]
fn msc_admits_non_linearizable_executions() {
    let mut b = ProgramBuilder::new("wx");
    b.write(oid(0), imm(1)).ret(vec![]);
    let wx = Arc::new(b.build().unwrap());
    let mut b = ProgramBuilder::new("rx");
    b.read(oid(0), 0).ret(vec![reg(0)]);
    let rx = Arc::new(b.build().unwrap());

    let mut found_violation = false;
    for seed in 0..40u64 {
        // P0 writes x; P1 queries x well after the write responded, but
        // (with slow links to P1) possibly before the broadcast reaches it.
        let scripts = vec![
            ClientScript::new(vec![OpSpec::new(Arc::clone(&wx), vec![])]).starting_at(1),
            ClientScript::new(vec![OpSpec::new(Arc::clone(&rx), vec![])]).starting_at(4_000),
        ];
        let config = ClusterConfig::new(1, seed).with_network(NetworkConfig::with_delay(
            DelayModel::Uniform {
                lo: 100,
                hi: 50_000,
            },
        ));
        let report = run_cluster::<MscOverSequencer>(&config, scripts);
        // Always m-sequentially consistent (Theorem 15)...
        assert_satisfies(&report, Condition::MSequentialConsistency);
        // ...but some seeds produce a stale read that violates
        // m-linearizability.
        let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
        if !lin.satisfied {
            found_violation = true;
            break;
        }
    }
    assert!(
        found_violation,
        "expected some seed to exhibit a stale local query"
    );
}

/// The mlin protocol's update path and the msc protocol's update path are
/// identical; the difference is query freshness. Verify mlin queries never
/// return a value older than any update that responded before the query
/// was invoked (the real-time guarantee, witnessed structurally).
#[test]
fn mlin_queries_are_fresh() {
    let mut b = ProgramBuilder::new("wx");
    b.write(oid(0), imm(1)).ret(vec![]);
    let wx = Arc::new(b.build().unwrap());
    let mut b = ProgramBuilder::new("rx");
    b.read(oid(0), 0).ret(vec![reg(0)]);
    let rx = Arc::new(b.build().unwrap());

    for seed in 0..40u64 {
        let scripts = vec![
            ClientScript::new(vec![OpSpec::new(Arc::clone(&wx), vec![])]).starting_at(1),
            ClientScript::new(vec![OpSpec::new(Arc::clone(&rx), vec![])]).starting_at(200_000),
        ];
        let config = ClusterConfig::new(1, seed).with_network(NetworkConfig::with_delay(
            DelayModel::Uniform {
                lo: 100,
                hi: 50_000,
            },
        ));
        let report = run_cluster::<MlinOverSequencer>(&config, scripts);
        let query = report
            .history
            .records()
            .iter()
            .find(|r| &*r.label == "rx")
            .expect("query recorded");
        let update = report
            .history
            .records()
            .iter()
            .find(|r| &*r.label == "wx")
            .expect("update recorded");
        if update.responded_at < query.invoked_at {
            assert_eq!(
                query.outputs,
                vec![1],
                "seed {seed}: query invoked after the update responded must see it"
            );
        }
    }
}
