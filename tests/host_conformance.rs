//! Cross-driver conformance of the shared replica host: one scripted
//! workload pushed through every driver — the fair-weather simulator,
//! the chaos simulator (benign and lossy), blocking live invocations
//! and a pipelined live session — must come out the other end as a
//! history of the same length that satisfies the protocol's condition,
//! with no anomalies and converged stores.

use std::sync::Arc;

use moc_abcast::LinkConfig;
use moc_checker::conditions::{check, Condition, Strategy};
use moc_core::history::History;
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_protocol::{
    run_cluster, ClientScript, ClusterConfig, MlinOverSequencer, MscOverSequencer, OpSpec,
    ReplicaProtocol,
};
use moc_runtime::{LiveCluster, PipelinedSession, RuntimeConfig};
use moc_sim::FaultPlan;
use moc_workload::{query_program, rmw_program};

const PROCESSES: usize = 3;
const OPS: usize = 4;
/// Objects the workload touches; object `DATA` is the fence.
const DATA: usize = 4;

fn obj(i: usize) -> ObjectId {
    ObjectId::new((i % DATA) as u32)
}

/// Per process: `OPS` alternating two-object increments and two-object
/// reads, then a fence — an update on an object nothing else touches,
/// whose response means every earlier update has been applied locally —
/// then a read of every data object.
fn workload() -> Vec<Vec<OpSpec>> {
    let all: Vec<ObjectId> = (0..DATA).map(obj).collect();
    (0..PROCESSES)
        .map(|p| {
            let mut ops: Vec<OpSpec> = (0..OPS)
                .map(|k| {
                    let pair = [obj(p + k), obj(p + k + 1)];
                    let program = if (p + k) % 2 == 0 {
                        rmw_program(&pair)
                    } else {
                        query_program(&pair)
                    };
                    OpSpec::new(program, vec![])
                })
                .collect();
            ops.push(OpSpec::new(
                rmw_program(&[ObjectId::new(DATA as u32)]),
                vec![],
            ));
            ops.push(OpSpec::new(query_program(&all), vec![]));
            ops
        })
        .collect()
}

fn assert_conforms(driver: &str, history: &History, condition: Condition) {
    assert_eq!(history.len(), PROCESSES * (OPS + 2), "{driver}: length");
    let verdict = check(history, condition, Strategy::Auto).unwrap();
    assert!(verdict.satisfied, "{driver}: {:?}", verdict.reason);
}

/// How a live driver hands over an m-operation and collects the
/// outputs of everything it handed over since the last call.
trait LiveClient {
    fn invoke(&mut self, p: usize, program: Arc<Program>, args: Vec<Value>);
    fn drain(&mut self, p: usize) -> Vec<Vec<Value>>;
}

struct Blocking<'a, R: ReplicaProtocol> {
    cluster: &'a LiveCluster<R>,
    outputs: Vec<Vec<Vec<Value>>>,
}

impl<R> LiveClient for Blocking<'_, R>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    fn invoke(&mut self, p: usize, program: Arc<Program>, args: Vec<Value>) {
        let reply = self.cluster.invoke(ProcessId::new(p as u32), program, args);
        self.outputs[p].push(reply.outputs.to_vec());
    }

    fn drain(&mut self, p: usize) -> Vec<Vec<Value>> {
        std::mem::take(&mut self.outputs[p])
    }
}

struct Pipelined<'a, R: ReplicaProtocol>(Vec<PipelinedSession<'a, R>>);

impl<R> LiveClient for Pipelined<'_, R>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    fn invoke(&mut self, p: usize, program: Arc<Program>, args: Vec<Value>) {
        let early = self.0[p].invoke(program, args).expect("not quarantined");
        assert!(early.is_none(), "the window holds a whole phase");
    }

    fn drain(&mut self, p: usize) -> Vec<Vec<Value>> {
        self.0[p]
            .drain()
            .into_iter()
            .map(|r| r.outputs.to_vec())
            .collect()
    }
}

/// Drives the workload through a live client and compares the
/// processes' closing snapshots. Every process finishes the mixed phase
/// before any fence is invoked, and every fence before any snapshot.
fn drive_live(client: &mut impl LiveClient) {
    let scripts = workload();
    let mut last = vec![Vec::new(); PROCESSES];
    for phase in [0..OPS, OPS..OPS + 1, OPS + 1..OPS + 2] {
        for k in phase {
            for (p, script) in scripts.iter().enumerate() {
                client.invoke(p, Arc::clone(&script[k].program), script[k].args.clone());
            }
        }
        for (p, slot) in last.iter_mut().enumerate() {
            *slot = client.drain(p).pop().expect("the phase invoked something");
        }
    }
    assert_eq!(last[0].len(), DATA);
    assert!(
        last.iter().all(|s| *s == last[0]),
        "snapshots diverge: {last:?}"
    );
}

fn conformance<R>(condition: Condition)
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    let scripts =
        || -> Vec<ClientScript> { workload().into_iter().map(ClientScript::new).collect() };
    let objects = DATA + 1;

    // `run_cluster` asserts the run clean: no anomalies, stores converged.
    let trusted = ClusterConfig::new(objects, 11);
    let benign = trusted.clone().with_link(LinkConfig::default());
    let lossy = benign
        .clone()
        .with_faults(FaultPlan::lossy(0.2).with_dup(0.1));
    for (name, cfg) in [
        ("trusted channel", trusted),
        ("chaos benign", benign),
        ("chaos lossy", lossy),
    ] {
        let report = run_cluster::<R>(&cfg, scripts());
        assert_conforms(name, &report.history, condition);
    }

    let cluster: LiveCluster<R> = LiveCluster::start(PROCESSES, RuntimeConfig::new(objects));
    drive_live(&mut Blocking {
        cluster: &cluster,
        outputs: vec![Vec::new(); PROCESSES],
    });
    let report = cluster.shutdown();
    assert_conforms("LiveCluster::invoke", &report.history, condition);
    assert_eq!(report.total_pipeline().orphan_completions, 0);

    let cluster: LiveCluster<R> = LiveCluster::start(PROCESSES, RuntimeConfig::new(objects));
    drive_live(&mut Pipelined(
        (0..PROCESSES)
            .map(|p| cluster.pipelined(ProcessId::new(p as u32), OPS))
            .collect(),
    ));
    let report = cluster.shutdown();
    assert_conforms("LiveCluster::pipelined", &report.history, condition);
    let pipeline = report.total_pipeline();
    assert_eq!(
        (pipeline.orphan_completions, pipeline.dropped_replies),
        (0, 0)
    );
}

#[test]
fn msc_conforms_across_drivers() {
    conformance::<MscOverSequencer>(Condition::MSequentialConsistency);
}

#[test]
fn mlin_conforms_across_drivers() {
    conformance::<MlinOverSequencer>(Condition::MLinearizability);
}
