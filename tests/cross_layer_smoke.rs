//! One seed through every layer that produces, decides or re-validates a
//! history: the Figure 6 protocol on the simulator, the checker, its
//! certificate and text, the independent auditor, the history codec and
//! the streaming sentinel. The workload mixes m-operations whose records
//! keep their operations in place (`rmw2`, `q4`, `dcas`) with whole-store
//! snapshots whose records spill to the heap, so every layer reads both.

use moc_audit::{audit, Verdict};
use moc_checker::certificate::check_certified;
use moc_checker::conditions::{check, Strategy};
use moc_checker::{Condition, SearchLimits};
use moc_core::codec;
use moc_core::ids::ObjectId;
use moc_core::inline::INLINE;
use moc_monitor::{replay, MonitorConfig, MonitorMode, OnlineMonitor};
use moc_protocol::{run_cluster, ClientScript, ClusterConfig, MlinOverSequencer, OpSpec};
use moc_workload::{dcas_program, query_program, rmw_program};

const SEED: u64 = 38;
const PROCESSES: usize = 3;
const OBJECTS: usize = 2 * INLINE;

fn obj(i: usize) -> ObjectId {
    ObjectId::new((i % OBJECTS) as u32)
}

/// Per process, four rounds of a two-object increment, a four-object
/// query and a DCAS, then a snapshot of every object.
fn scripts() -> Vec<ClientScript> {
    let all: Vec<ObjectId> = (0..OBJECTS).map(obj).collect();
    (0..PROCESSES)
        .map(|p| {
            let mut ops = Vec::new();
            for k in 0..4 {
                let at = p + 2 * k;
                ops.push(OpSpec::new(rmw_program(&[obj(at), obj(at + 1)]), vec![]));
                let four: Vec<ObjectId> = (0..4).map(|j| obj(at + 2 * j)).collect();
                ops.push(OpSpec::new(query_program(&four), vec![]));
                ops.push(OpSpec::new(
                    dcas_program(obj(at), obj(at + 3)),
                    vec![1, 0, 7, 7],
                ));
                ops.push(OpSpec::new(query_program(&all), vec![]));
            }
            ClientScript::new(ops)
        })
        .collect()
}

#[test]
fn one_seed_runs_checks_certifies_audits_and_monitors() {
    let condition = Condition::MLinearizability;
    let h = run_cluster::<MlinOverSequencer>(&ClusterConfig::new(OBJECTS, SEED), scripts()).history;
    assert_eq!(h.len(), PROCESSES * 16);
    let spilled = h.records().iter().filter(|r| r.ops.spilled()).count();
    assert_eq!(spilled, PROCESSES * 4, "one snapshot a round spills");
    assert!(h
        .records()
        .iter()
        .all(|r| r.outputs.spilled() == r.ops.spilled()));

    // The codec's text is the history, wherever a record keeps its lists.
    let text = codec::to_text(&h);
    let back = codec::from_text(&text).expect("the codec reads its own text");
    assert_eq!(back.records(), h.records());
    assert_eq!(codec::to_text(&back), text);

    let report = check(&h, condition, Strategy::Auto).expect("the checker decides");
    assert!(report.satisfied, "{:?}", report.reason);
    let (certified, cert) =
        check_certified(&h, condition, SearchLimits::default()).expect("the checker certifies");
    assert!(certified.satisfied);
    let cert_text = cert.to_text();
    assert_eq!(
        audit(&h, &cert_text).expect("the auditor accepts"),
        Verdict::WitnessVerified
    );

    let run = replay(
        &h,
        OnlineMonitor::new(h.num_objects(), MonitorConfig::new(condition)),
    );
    assert!(run.violation.is_none(), "{:?}", run.violation);
    assert_eq!(run.mode, MonitorMode::Healthy);
    assert_eq!(run.stats.completions as usize, h.len());
    assert!(!run.certs.is_empty());
    for rc in &run.certs {
        assert!(rc.admissible, "rolling certificate v{}", rc.version);
        audit(&rc.window(), &rc.cert_text)
            .unwrap_or_else(|e| panic!("rolling certificate v{}: {e}", rc.version));
    }
}
