//! Reproductions of the paper's worked figures (experiments E1–E3, E7, E9
//! in DESIGN.md).
//!
//! * Figure 1 — an example history and its relations (`~p`, `~rf`, `~t`,
//!   `~x`, conflict, interfere).
//! * Figure 2 — history `H1` under the WW-constraint.
//! * Figure 3 — the sequential but non-legal extension `S1`.
//! * Figure 5 — an execution of the Figure 4 (m-sequential consistency)
//!   protocol, with the per-replica vector timestamps evolving as writes
//!   are delivered.
//! * Figure 7 — an execution of the Figure 6 (m-linearizability) protocol,
//!   with the query round-trip selecting the freshest snapshot.

use std::sync::Arc;

use moc_checker::certificate::{certify, check_certified};
use moc_checker::conditions::{check, Condition, Strategy};
use moc_checker::SearchLimits;
use moc_core::constraints::{satisfies, Constraint};
use moc_core::history::{HistoryBuilder, MOpIdx};
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::legality::{extended_relation, is_legal, sequence_is_legal};
use moc_core::mop::MOpClass;
use moc_core::program::{imm, reg, ProgramBuilder};
use moc_core::relations::{object_order, process_order, reads_from, real_time, Relation};
use moc_protocol::{
    run_cluster, ClientScript, ClusterConfig, MlinOverSequencer, MscOverSequencer, OpSpec,
};
use moc_sim::NetworkConfig;

fn oid(i: u32) -> ObjectId {
    ObjectId::new(i)
}
fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}
fn m(i: usize) -> MOpIdx {
    MOpIdx(i)
}

/// Figure 1: P1 issues α then β; P2 issues η then μ; P3 issues δ.
/// α reads x from η and writes y, z; δ reads y from α and x from η.
///
/// The text asserts: α ~p β (process order), α ~rf δ and η ~rf δ
/// (reads-from), α ~t μ, η ~t β, η ~x β (object order), α conflicts with
/// η, and δ, η, α interfere... more precisely "m-operations δ, η and α
/// interfere" with μ writing x in our encoding.
#[test]
fn figure1_relations() {
    let (x, y, z) = (oid(0), oid(1), oid(2));
    let mut b = HistoryBuilder::new(3);
    // index 0: η = w(x)1 by P2, [0..10]
    let eta = b.mop(pid(2)).at(0, 10).write(x, 1).finish();
    // index 1: α = r(x)1 w(y)2 w(z)3 by P1, [5..25] (overlaps η's tail)
    let alpha = b
        .mop(pid(1))
        .at(5, 25)
        .read_from(x, 1, eta)
        .write(y, 2)
        .write(z, 3)
        .finish();
    // index 2: β = r(x)1 by P1, [30..40]
    b.mop(pid(1)).at(30, 40).read_from(x, 1, eta).finish();
    // index 3: δ = r(y)2 r(x)1 by P3, [30..50]
    b.mop(pid(3))
        .at(30, 50)
        .read_from(y, 2, alpha)
        .read_from(x, 1, eta)
        .finish();
    // index 4: μ = w(x)9 by P2, [55..65]
    b.mop(pid(2)).at(55, 65).write(x, 9).finish();
    let h = b.build().expect("Figure 1 history is well-formed");

    let (eta, alpha, beta, delta, mu) = (m(0), m(1), m(2), m(3), m(4));

    assert_eq!(h.record(alpha).process(), pid(1));
    assert_eq!(h.objects(alpha), [x, y, z], "objects(α) = {{x, y, z}}");

    let po = process_order(&h);
    assert!(po.contains(alpha, beta), "α ~p β");
    assert!(po.contains(eta, mu), "η ~p μ");
    assert!(!po.contains(alpha, delta), "different processes");

    let rf = reads_from(&h);
    assert!(rf.contains(alpha, delta), "α ~rf δ");
    assert!(rf.contains(eta, delta), "η ~rf δ");
    assert!(rf.contains(eta, alpha), "α reads x from η");

    let rt = real_time(&h);
    assert!(rt.contains(alpha, mu), "α ~t μ");
    assert!(rt.contains(eta, beta), "η ~t β");
    assert!(!rt.contains(alpha, beta) || h.record(alpha).responded_at < h.record(beta).invoked_at);

    let ox = object_order(&h);
    assert!(ox.contains(eta, beta), "η ~x β (both touch x)");
    assert!(!ox.contains(eta, alpha), "η and α overlap: no object order");

    // Conflicts and interference as stated in Section 4's walkthrough.
    assert!(h.conflict(alpha, eta), "α conflicts with η");
    assert!(h.interfere(delta, eta, mu), "δ reads x from η; μ writes x");
    assert!(h.interfere(delta, alpha, mu) || !h.rfobjects(delta, Some(alpha)).contains(&x));

    // The full history is m-linearizable (everything reads consistently).
    let lin = check(&h, Condition::MLinearizability, Strategy::Auto).unwrap();
    assert!(lin.satisfied);
}

/// Figures 2 and 3 together: H1 is under WW, legal, admissible; S1 is a
/// sequential extension that is not legal; ~H+ excludes it.
#[test]
fn figure2_and_3_ww_history() {
    let (x, y) = (oid(0), oid(1));
    let mut b = HistoryBuilder::new(2);
    let alpha = b.mop(pid(1)).at(0, 10).read_init(x).write(y, 2).finish();
    b.mop(pid(1)).at(20, 60).read_from(y, 2, alpha).finish();
    b.mop(pid(2)).at(15, 25).write(x, 1).finish();
    b.mop(pid(2)).at(30, 40).write(y, 3).finish();
    let h1 = b.build().expect("H1 is well-formed");

    let (alpha, beta, gamma, delta) = (m(0), m(1), m(2), m(3));
    let mut rel = process_order(&h1).union(&reads_from(&h1));
    rel.add(alpha, gamma);
    rel.add(gamma, delta);
    let closed = rel.transitive_closure();

    // Under the WW-constraint, and legal.
    assert!(satisfies(Constraint::Ww, &h1, &closed));
    assert!(is_legal(&h1, &closed));

    // Figure 3: S1 = α γ δ β is sequential but not legal.
    let s1 = [alpha, gamma, delta, beta];
    let total = Relation::from_sequence(4, &s1);
    assert!(total.is_total_order());
    assert!(!sequence_is_legal(&h1, &s1));

    // D 4.11: β ~rw δ, and every extension of ~H+ is legal (P 4.5).
    let ext = extended_relation(&h1, &rel);
    assert!(ext.contains(beta, delta));
    assert!(ext.is_irreflexive(), "Lemma 4");
    let witness = ext.topological_sort().unwrap();
    assert!(sequence_is_legal(&h1, &witness));

    // Theorem 7: admissible (fast, the WW edges as the hint) agrees with
    // admissible (search).
    let sc = Condition::MSequentialConsistency;
    let hint = [(alpha, gamma), (gamma, delta)];
    let (fast, _) = certify(&h1, sc, Some(&hint), SearchLimits::default()).unwrap();
    assert!(fast.satisfied && fast.by_theorem7);
    assert_eq!(fast.witness, Some(witness));
    let (search, _) = check_certified(&h1, sc, SearchLimits::default()).unwrap();
    assert!(search.satisfied);
}

/// Figure 5: an execution of the Figure 4 protocol. Two writers and a
/// reader; updates are applied in broadcast order at every replica, version
/// vectors advance once per written object, and the local query reads the
/// replica's current (possibly newest) version.
#[test]
fn figure5_msc_protocol_trace() {
    let x = oid(0);
    let wx = |v: i64| {
        let mut b = ProgramBuilder::new(format!("w{v}"));
        b.write(x, imm(v)).ret(vec![]);
        Arc::new(b.build().unwrap())
    };
    let rx = {
        let mut b = ProgramBuilder::new("rx");
        b.read(x, 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    };

    // FIFO network, fixed 100ns: fully deterministic timeline.
    // P0 writes x=1 at t=10; P1 writes x=4 at t=1000 (after the first
    // write is everywhere); P0 reads x at t=5000.
    let scripts = vec![
        ClientScript::new(vec![
            OpSpec::new(wx(1), vec![]),
            OpSpec::new(Arc::clone(&rx), vec![]),
        ])
        .starting_at(10)
        .with_think_time(4_000),
        ClientScript::new(vec![OpSpec::new(wx(4), vec![])]).starting_at(1_000),
    ];
    let config = ClusterConfig::new(1, 0).with_network(NetworkConfig::fifo(100));
    let report = run_cluster::<MscOverSequencer>(&config, scripts);

    // Broadcast order: w1 then w4.
    let labels: Vec<String> = report
        .update_order
        .iter()
        .map(|id| {
            report
                .history
                .record(report.history.idx_of(*id).unwrap())
                .label
                .to_string()
        })
        .collect();
    assert_eq!(labels, vec!["w1", "w4"]);

    // Both replicas converged (`run_cluster` checks) to version 2 of x,
    // value 4.
    let v = report.final_store.get(x);
    assert_eq!(v.value, 4);
    assert_eq!(v.version, 2);
    assert_eq!(report.final_store.ts().as_slice(), &[2]);

    // The query (local, per A3) read version 2 — both updates had arrived.
    let query = report
        .history
        .records()
        .iter()
        .find(|r| &*r.label == "rx")
        .unwrap();
    assert_eq!(query.outputs, vec![4]);
    assert_eq!(query.ops[0].version, 2);
    assert_eq!(query.treated_as, MOpClass::Query);
    // Local query: zero latency in virtual time.
    assert_eq!(query.invoked_at, query.responded_at);

    // And the whole execution is m-sequentially consistent (Theorem 15).
    let sc = check(
        &report.history,
        Condition::MSequentialConsistency,
        Strategy::Auto,
    )
    .unwrap();
    assert!(sc.satisfied);
}

/// Figure 7: an execution of the Figure 6 protocol. The query fans out to
/// all processes, selects the maximal-timestamp response (A5) and therefore
/// reads the freshest delivered write, giving real-time freshness.
#[test]
fn figure7_mlin_protocol_trace() {
    let (x, y) = (oid(0), oid(1));
    // α = w(x)1 w(y)3 by P0; β = w(x)4 by P1; γ = r(x) query by P2.
    let alpha = {
        let mut b = ProgramBuilder::new("alpha");
        b.write(x, imm(1)).write(y, imm(3)).ret(vec![]);
        Arc::new(b.build().unwrap())
    };
    let beta = {
        let mut b = ProgramBuilder::new("beta");
        b.write(x, imm(4)).ret(vec![]);
        Arc::new(b.build().unwrap())
    };
    let gamma = {
        let mut b = ProgramBuilder::new("gamma");
        b.read(x, 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    };

    let scripts = vec![
        ClientScript::new(vec![OpSpec::new(alpha, vec![])]).starting_at(10),
        ClientScript::new(vec![OpSpec::new(beta, vec![])]).starting_at(2_000),
        ClientScript::new(vec![OpSpec::new(gamma, vec![])]).starting_at(5_000),
    ];
    let config = ClusterConfig::new(2, 0).with_network(NetworkConfig::fifo(100));
    let report = run_cluster::<MlinOverSequencer>(&config, scripts);

    // The query was invoked after β responded, so m-linearizability
    // requires it to see x = 4 (version 2).
    let query = report
        .history
        .records()
        .iter()
        .find(|r| &*r.label == "gamma")
        .unwrap();
    let beta_rec = report
        .history
        .records()
        .iter()
        .find(|r| &*r.label == "beta")
        .unwrap();
    assert!(beta_rec.responded_at < query.invoked_at);
    assert_eq!(query.outputs, vec![4]);
    assert_eq!(query.ops[0].version, 2);
    assert_eq!(query.ops[0].writer, beta_rec.id);

    // Message economics of a query: n "query" + n responses.
    let query_msgs: u64 = report
        .replica_metrics
        .iter()
        .map(|m| m.query_msgs_sent)
        .sum();
    assert_eq!(query_msgs, 6, "2n messages for one query round, n = 3");

    // Replica convergence (`run_cluster` checks): x at version 2 (value
    // 4), y at version 1.
    assert_eq!(report.final_store.get(x).value, 4);
    assert_eq!(report.final_store.get(y).value, 3);
    assert_eq!(report.final_store.ts().as_slice(), &[2, 1]);

    // Theorem 20.
    let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
    assert!(lin.satisfied);
}
