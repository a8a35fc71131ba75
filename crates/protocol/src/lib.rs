//! # moc-protocol
//!
//! The consistency protocols of Mittal & Garg (1998), Section 5, as one
//! pure state machine — [`replica::Replica`] — over an
//! [`moc_abcast::Abcast`] substrate. Update m-operations are atomically
//! broadcast and applied at delivery (actions A1/A2); what a query does is
//! the compile-time choice that tells the figures apart:
//!
//! * [`MscReplica`] — Figure 4: m-sequential consistency. Query
//!   m-operations read the local copy immediately. Theorem 15: every
//!   execution is m-sequentially consistent.
//! * [`MlinReplica`] — Figure 6: m-linearizability in a fully
//!   *asynchronous* system (no clock synchrony, no delay bound — the
//!   improvement over Attiya–Welch the paper emphasizes). A query asks
//!   every process for its copy and timestamp, keeps the
//!   maximal-timestamp snapshot, and reads from it once all `n` responses
//!   arrived. Theorem 20: every execution is m-linearizable.
//! * [`AggregateReplica`] — the baseline the introduction argues against:
//!   model multi-methods by one aggregate object, i.e. route *every*
//!   m-operation (queries included) through atomic broadcast. Correct but
//!   sacrifices the locality and concurrency of queries.
//!
//! Every replica keeps a full local copy of the shared objects
//! ([`store::ReplicaStore`]) together with the per-object version vector
//! `ts` the correctness proofs revolve around (P 5.3–P 5.8).
//!
//! [`host`] is the one piece of code that hosts any of these replicas:
//! it stamps invocation and response events, gates and retires the
//! process's m-operations and builds the history records. [`harness`]
//! drives it on the deterministic simulator, on the trusted channel or
//! behind a reliable link over a fault-injecting wire, co-locating a
//! scripted client with each replica, and emits a [`moc_core::History`]
//! plus latency and message metrics — the raw material for the Theorem
//! 15/20 validation tests and the benchmark suite; `moc-runtime` drives
//! it on OS threads.

use std::fmt;
use std::sync::Arc;

use moc_core::ids::{MOpId, ProcessId, QueryId};
use moc_core::inline::InlineList;
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::op::CompletedOp;
use moc_core::program::Program;
use moc_core::value::{Value, Versioned};
use moc_core::vv::VersionVector;

pub mod harness;
pub mod host;
pub mod replica;
pub mod store;

pub use harness::{
    run_chaos_cluster, run_cluster, tally, ChaosAnomalies, ChaosRunReport, ClientScript,
    ClusterConfig, OpSpec, RunReport,
};
pub use replica::{AggregateReplica, MlinRelevant, MlinReplica, MscReplica, QueryScope};
pub use store::{ExecRecord, ReplicaStore};

use moc_abcast::Outbox;

/// An invoked m-operation: the deterministic program, its arguments, and
/// the identity assigned by the issuing process.
///
/// This is the unit the protocols atomically broadcast; every replica
/// re-executes the program against its own copy, deterministically
/// obtaining the same reads and writes.
#[derive(Debug, Clone)]
pub struct MOperation {
    /// Identity: issuing process + per-process sequence number.
    pub id: MOpId,
    /// The deterministic procedure to run.
    pub program: Arc<Program>,
    /// Invocation arguments (`arg` of `α(arg, res)`).
    pub args: Vec<Value>,
    /// Cached protocol classification, decided at construction.
    class: MOpClass,
}

/// Programs above this size skip the refined dataflow classification and
/// fall back to the paper's syntactic rule (the analysis is linear-ish,
/// but there is no point scanning a pathological instruction stream per
/// invocation).
const ANALYZE_LIMIT: usize = 4096;

/// Classifies a program for protocol purposes.
///
/// The paper's conservative rule treats an m-operation as an update iff
/// it *potentially* writes (Section 5). The analyzer refines this: a
/// write that control flow provably cannot reach does not force the
/// update path, so e.g. a "write guarded by a constant-false branch"
/// program runs as a local query. The refinement is sound — the refined
/// `may_write` still over-approximates every dynamic write set — and for
/// oversized programs we conservatively fall back to the syntactic rule.
///
/// A program without a `Write` instruction is a query without analysis:
/// the refined `may_write` only ever holds objects of reachable `Write`
/// instructions, so the analyzer could only say the same.
///
/// The class is a property of the program, so it is decided once per
/// `Program` and kept there ([`Program::class_with`]): every later
/// m-operation of the same `Arc` reads it.
fn classify(program: &Program) -> MOpClass {
    program.class_with(|program| {
        let update = program.is_potential_update()
            && (program.instrs().len() > ANALYZE_LIMIT
                || moc_analyze::analyze_program(program).summary.is_update());
        if update {
            MOpClass::Update
        } else {
            MOpClass::Query
        }
    })
}

impl MOperation {
    /// Creates an m-operation, classifying its program (see [`MOperation::class`]).
    pub fn new(id: MOpId, program: Arc<Program>, args: Vec<Value>) -> Self {
        let class = classify(&program);
        MOperation {
            id,
            program,
            args,
            class,
        }
    }

    /// Whether the protocols must route this m-operation through atomic
    /// broadcast. Refined from the paper's syntactic potential-write rule
    /// by reachability analysis; still an over-approximation of the
    /// dynamic write set, so the Section 5 safety arguments carry over.
    pub fn is_update(&self) -> bool {
        self.class == MOpClass::Update
    }

    /// The protocol class this m-operation is handled as.
    pub fn class(&self) -> MOpClass {
        self.class
    }
}

impl moc_core::shard::Footprinted for MOperation {
    /// The syntactic object footprint used for shard routing. This
    /// over-approximates the dynamic footprint, so routing stays sound:
    /// an object the refined analysis would exclude can only push the
    /// m-operation toward the conservative global channel.
    fn footprint(&self) -> Vec<moc_core::ids::ObjectId> {
        self.program.referenced_objects().into_iter().collect()
    }

    /// The syntactic may-write set. Tighter than the default (the full
    /// footprint) yet still a sound over-approximation of what any
    /// execution can write, so a commute certificate's delivery plan may
    /// compare it against claimed shard footprints without re-running
    /// the refinement analysis at delivery time.
    fn write_footprint(&self) -> Vec<moc_core::ids::ObjectId> {
        self.program.potential_writes().into_iter().collect()
    }
}

impl fmt::Display for MOperation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}{:?}", self.id, self.program.name(), self.args)
    }
}

/// Wire messages exchanged by the protocol replicas.
#[derive(Debug, Clone)]
pub enum ProtocolMsg<A> {
    /// A message of the underlying atomic broadcast (actions A1/A2).
    Abcast(A),
    /// "query" (Figure 6, action A3): the sender asks for a copy of the
    /// shared objects and their timestamps.
    Query {
        /// Identifies the query round at the issuing process.
        qid: QueryId,
        /// `None` asks for the full object array (the Figure 6 pseudocode);
        /// `Some(objs)` asks only for the listed objects — the end-of-
        /// Section-5.2 optimization enabled by [`QueryScope::Relevant`].
        objects: Option<Vec<moc_core::ids::ObjectId>>,
    },
    /// "query response" (Figure 6, action A4): a copy of (a projection of)
    /// the responder's objects plus its `myts`.
    QueryResponse {
        /// The query round being answered.
        qid: QueryId,
        /// Object states, densely: the full array in object order, or, under
        /// [`QueryScope::Relevant`], the states of the objects the query
        /// asked for, in the order it asked for them.
        state: Vec<Versioned>,
        /// The responder's version vector at answer time.
        ts: VersionVector,
    },
}

/// A finished m-operation surfaced by a replica to its co-located client.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The m-operation that completed.
    pub id: MOpId,
    /// Values returned by the program.
    pub outputs: InlineList<Value>,
    /// The completed operations, with read provenance, as executed at the
    /// issuing replica.
    pub ops: InlineList<CompletedOp>,
    /// How the protocol classified the m-operation.
    pub treated_as: MOpClass,
    /// The program name, used as the history label.
    pub label: Arc<str>,
}

impl Completion {
    /// The history record of this completion, with its invocation and
    /// response events. A move: nothing is copied to the heap.
    pub fn into_record(self, invoked_at: EventTime, responded_at: EventTime) -> MOpRecord {
        MOpRecord {
            id: self.id,
            invoked_at,
            responded_at,
            ops: self.ops,
            outputs: self.outputs,
            treated_as: self.treated_as,
            label: self.label,
        }
    }
}

/// Per-replica message-count metrics, split by operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaMetrics {
    /// Messages this replica sent on behalf of update m-operations
    /// (including abcast internals it initiated).
    pub update_msgs_sent: u64,
    /// Messages sent on behalf of query m-operations.
    pub query_msgs_sent: u64,
    /// Update m-operations applied to the local store.
    pub updates_applied: u64,
    /// Query m-operations completed locally.
    pub queries_completed: u64,
    /// Object values shipped in query responses (payload size proxy for
    /// the Full-vs-Relevant comparison of Section 5.2's closing remark).
    pub query_values_sent: u64,
}

/// A consistency-protocol replica: one per process, co-located with the
/// client that issues that process's m-operations.
///
/// Replicas are pure state machines: [`ReplicaProtocol::invoke`] and
/// [`ReplicaProtocol::on_message`] buffer sends in an [`Outbox`] and
/// surface finished operations via [`ReplicaProtocol::drain_completions`].
pub trait ReplicaProtocol {
    /// Wire message type.
    type Msg: Clone + fmt::Debug;

    /// Creates the replica for process `me` of `n`, over `num_objects`
    /// shared objects.
    fn new(me: ProcessId, n: usize, num_objects: usize) -> Self;

    /// A short name for reports ("msc", "mlin", "aggregate").
    fn protocol_name() -> &'static str;

    /// The co-located client invokes `mop` (the invocation event).
    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>);

    /// A protocol message arrives.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>);

    /// Drains m-operations that completed since the last call; the harness
    /// stamps their response events.
    fn drain_completions(&mut self) -> Vec<Completion>;

    /// The local object store (for invariant assertions in tests).
    fn store(&self) -> &ReplicaStore;

    /// Message-count metrics.
    fn metrics(&self) -> ReplicaMetrics;

    /// The m-operations this replica has applied via atomic broadcast, in
    /// delivery order — the protocol's `~ww` order. Atomic broadcast
    /// guarantees all replicas report the same log (asserted by the
    /// harness).
    fn delivery_log(&self) -> &[MOpId];

    /// Earliest absolute time (ns) the underlying broadcast wants a tick
    /// (crash-suspicion deadlines), or `None`. Static broadcasts never
    /// request ticks.
    fn abcast_deadline(&self) -> Option<u64> {
        None
    }

    /// Advances the broadcast's clock and fires its expired deadlines
    /// (e.g. sequencer-failover suspicion). Harmless when called early.
    fn on_abcast_tick(&mut self, _now_ns: u64, _out: &mut Outbox<Self::Msg>) {}

    /// The hosting process restarted after a crash; forwarded to the
    /// broadcast so failover protocols can react.
    fn on_abcast_restart(&mut self, _now_ns: u64, _out: &mut Outbox<Self::Msg>) {}

    /// Overrides the broadcast's failover timeouts (suspicion base and
    /// cap, ns). No-op for broadcasts without failover machinery.
    fn set_failover_timeouts(&mut self, _base_ns: u64, _max_ns: u64) {}

    /// The broadcast's view-change transcript (empty for static
    /// broadcasts); deterministic, for replay comparison and reports.
    fn abcast_transcript(&self) -> Vec<String> {
        Vec::new()
    }

    /// Installs a certified shard partition on the underlying broadcast.
    /// Only conflict-sharded broadcasts react; the default ignores it.
    fn set_shard_plan(&mut self, _plan: moc_core::shard::ShardPlan) {}

    /// Installs a commute certificate's delivery plan on the underlying
    /// broadcast, unlocking its out-of-order fast paths. Only broadcasts
    /// with such fast paths react; the default ignores it.
    fn set_commute_plan(&mut self, _plan: moc_core::commute::CommutePlan) {}

    /// Deliveries the underlying broadcast applied through a commute
    /// fast path (0 for broadcasts without one).
    fn commute_fast_applied(&self) -> u64 {
        0
    }

    /// Installs a group-commit batching configuration on the underlying
    /// broadcast. Must be called before any traffic; broadcasts without
    /// batched stamping ignore it.
    fn set_batching(&mut self, _cfg: moc_abcast::BatchConfig) {}

    /// Group-commit counters from the underlying broadcast (zeroed for
    /// broadcasts without batched stamping).
    fn batch_stats(&self) -> moc_abcast::BatchStats {
        moc_abcast::BatchStats::default()
    }

    /// The delivery log split by ordering channel, trailing empty
    /// channels trimmed. Single-order protocols report one channel (the
    /// whole log); sharded protocols report one log per channel. Within
    /// a channel the log is an agreed total order, so the harness
    /// compares replicas per channel, not on the merged log.
    fn channel_logs(&self) -> Vec<Vec<MOpId>> {
        vec![self.delivery_log().to_vec()]
    }

    /// The index of the underlying broadcast's replica-private read-only
    /// fast-path channel, when one is armed (see
    /// [`moc_abcast::Abcast::private_channel`]). Harnesses must exclude
    /// this channel from cross-replica agreement checks and instead
    /// verify each entry is locally issued and write-free.
    fn private_channel(&self) -> Option<u32> {
        None
    }
}

/// Splits a merged delivery log by per-delivery channel tags (the shape
/// [`moc_abcast::Abcast::delivery_channels`] reports), trimming trailing
/// empty channels. `None` tags mean a single global channel.
pub(crate) fn split_channel_logs(log: &[MOpId], channels: Option<Vec<u32>>) -> Vec<Vec<MOpId>> {
    match channels {
        None => vec![log.to_vec()],
        Some(channels) => {
            debug_assert_eq!(channels.len(), log.len());
            let mut logs: Vec<Vec<MOpId>> = Vec::new();
            for (id, c) in log.iter().zip(channels) {
                let c = c as usize;
                if logs.len() <= c {
                    logs.resize(c + 1, Vec::new());
                }
                logs[c].push(*id);
            }
            while logs.last().is_some_and(|l| l.is_empty()) {
                logs.pop();
            }
            logs
        }
    }
}

/// Convenience alias: Figure 4 over the fixed-sequencer broadcast.
pub type MscOverSequencer = MscReplica<moc_abcast::SequencerAbcast<MOperation>>;
/// Convenience alias: Figure 6 over the fixed-sequencer broadcast.
pub type MlinOverSequencer = MlinReplica<moc_abcast::SequencerAbcast<MOperation>>;
/// Convenience alias: Figure 6 over the sequencer with the relevant-objects
/// query optimization enabled.
pub type MlinRelevantOverSequencer = MlinRelevant<moc_abcast::SequencerAbcast<MOperation>>;
/// Convenience alias: the aggregate-object baseline over the sequencer.
pub type AggregateOverSequencer = AggregateReplica<moc_abcast::SequencerAbcast<MOperation>>;
/// Convenience alias: Figure 4 over the conflict-sharded broadcast, which
/// routes single-shard updates through shard-local sequencers (install a
/// certified partition with [`ReplicaProtocol::set_shard_plan`]).
pub type MscOverSharded = MscReplica<moc_abcast::ShardedAbcast<MOperation>>;
/// Convenience alias: Figure 4 over the view-based failover broadcast,
/// which survives sequencer (leader) crashes.
pub type MscOverView = MscReplica<moc_abcast::ViewAbcast<MOperation>>;
/// Convenience alias: Figure 6 over the view-based failover broadcast.
pub type MlinOverView = MlinReplica<moc_abcast::ViewAbcast<MOperation>>;

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::program::ProgramBuilder;

    #[test]
    fn unreachable_write_is_refined_to_query() {
        // Syntactically this "potentially writes"; the analyzer proves
        // the write unreachable, so the protocol runs it as a query.
        let mut b = ProgramBuilder::new("maybe-write");
        let skip = b.fresh_label();
        b.jump(skip); // the write below is unreachable
        b.write(moc_core::ids::ObjectId::new(0), moc_core::program::imm(1));
        b.bind(skip);
        b.ret(vec![]);
        let p = Arc::new(b.build().unwrap());
        assert!(p.is_potential_update(), "syntactic rule says update");
        let mop = MOperation::new(MOpId::new(ProcessId::new(0), 0), p, vec![]);
        assert!(!mop.is_update(), "refined rule says query");
        assert_eq!(mop.class(), MOpClass::Query);
    }

    #[test]
    fn reachable_conditional_write_stays_update() {
        // A failed-CAS-style branch may skip the write dynamically, but
        // the write is statically reachable: still an update.
        use moc_core::program::{arg, imm, reg, CmpOp};
        let x = moc_core::ids::ObjectId::new(0);
        let mut b = ProgramBuilder::new("cas");
        let fail = b.fresh_label();
        b.read(x, 0)
            .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
            .write(x, arg(1))
            .ret(vec![imm(1)]);
        b.bind(fail);
        b.ret(vec![imm(0)]);
        let mop = MOperation::new(
            MOpId::new(ProcessId::new(0), 0),
            Arc::new(b.build().unwrap()),
            vec![0, 1],
        );
        assert!(mop.is_update());
    }

    #[test]
    fn moperation_display() {
        let mut b = ProgramBuilder::new("noop");
        b.ret(vec![]);
        let mop = MOperation::new(
            MOpId::new(ProcessId::new(1), 2),
            Arc::new(b.build().unwrap()),
            vec![3],
        );
        assert_eq!(mop.to_string(), "P1#2:noop[3]");
    }
}
