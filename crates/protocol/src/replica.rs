//! The one replica behind Figure 4, Figure 6 and the aggregate strawman.
//!
//! The paper defines its protocols as one pair of update actions plus a
//! query path that differs per figure:
//!
//! * **A1** — on invocation of a (potentially) update m-operation,
//!   atomically broadcast it to all processes.
//! * **A2** — on delivery of an atomic broadcast, apply the m-operation to
//!   the local copy, bumping `ts[x]` for every written `x`; if this replica
//!   issued it, generate the response.
//!
//! [`Replica`] implements those two actions, the plumbing to the broadcast
//! and [`ReplicaProtocol`] exactly once. What a *query* does is fixed at
//! compile time by a zero-sized [`Figure`] marker — [`Figure4`],
//! [`Figure6`], [`Figure6Relevant`], [`AggregateObject`] — through its
//! [`QueryPath`]: one global sequencing stage, with the consistency model
//! decided by what is allowed to bypass it.

use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;

use moc_abcast::{Abcast, Outbox};
use moc_core::ids::{MOpId, ObjectId, ProcessId, QueryId};
use moc_core::mop::MOpClass;
use moc_core::value::Versioned;
use moc_core::vv::VersionVector;

use crate::store::{ExecRecord, ReplicaStore};
use crate::{Completion, MOperation, ProtocolMsg, ReplicaMetrics, ReplicaProtocol};

/// How much state a "query response" (action A4) carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryScope {
    /// The whole object array, as in the Figure 6 pseudocode.
    #[default]
    Full,
    /// Only the objects the query's program references — the optimization
    /// the paper points out is "easy to verify" correct.
    Relevant,
}

/// What a replica does with a query m-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// Apply it to the local copy immediately and respond (Figure 4, A3).
    Local,
    /// Send it down the update path: atomically broadcast it, apply it at
    /// delivery on every replica (the aggregate strawman).
    Ordered,
    /// Ask every process for its copy and read from the freshest
    /// (Figure 6, A3–A6).
    ///
    /// A5 keeps "the maximal timestamp", which is only meaningful when
    /// replica states are prefixes of *one* total order: timestamps of
    /// independently ordered shard channels are not comparable
    /// componentwise. Instantiate this path over single-channel
    /// broadcasts only (there is deliberately no `Mlin…OverSharded`
    /// alias); debug builds assert it where timestamps are compared.
    Rounds(QueryScope),
}

/// A protocol of the paper, as a compile-time choice of query path.
pub trait Figure {
    /// Short name for reports.
    const NAME: &'static str;
    /// The query path; updates always take A1/A2.
    const QUERIES: QueryPath;
}

/// Figure 4: the m-sequential-consistency protocol. A1/A2 plus
///
/// * **A3** — on invocation of a query m-operation, apply it to the local
///   copy immediately and respond.
///
/// A query costs no message and may read a stale copy. Theorem 15: all
/// executions are m-sequentially consistent. The protocol is an extension
/// of Attiya & Welch's sequentially consistent implementation to
/// operations spanning multiple objects.
#[derive(Debug, Clone, Copy)]
pub struct Figure4;

/// Figure 6: the m-linearizability protocol. Updates follow Figure 4
/// (A1/A2). Queries must not read stale values, so (A3) the issuing
/// process sends a "query" to all processes; (A4) each answers with its
/// copy of the shared objects and its `myts`; (A5) the issuer keeps the
/// response with the maximal timestamp; and (A6) once all `n` responses
/// arrived, the query executes against the retained snapshot and responds
/// — `2n` point-to-point messages per query.
///
/// Theorem 20: all executions are m-linearizable. Unlike the Attiya–Welch
/// linearizable implementation, no clock synchronization or message-delay
/// bound is assumed — the protocol is correct in a fully asynchronous
/// system.
#[derive(Debug, Clone, Copy)]
pub struct Figure6;

/// [`Figure6`] with the optimization the paper notes at the end of
/// Section 5.2: responders send only the objects the query touches
/// ([`QueryScope::Relevant`]). Same messages, smaller responses, same
/// theorem.
#[derive(Debug, Clone, Copy)]
pub struct Figure6Relevant;

/// The aggregate-object baseline.
///
/// The introduction warns against modeling multi-methods "by defining an
/// aggregate object that represents the state of all objects": it forces
/// every access — queries included — through the single object's
/// serialization point, losing locality and concurrency. This marker makes
/// that strawman concrete so the benchmarks can quantify the loss: *every*
/// m-operation is atomically broadcast and applied at delivery, exactly as
/// if the whole store were one concurrent object.
///
/// The result is trivially m-linearizable (all operations share one total
/// order consistent with real time), but a query now costs a full broadcast
/// round and is applied by all `n` replicas, instead of costing zero
/// messages (Figure 4) or one round of `2n` point-to-point messages
/// (Figure 6).
#[derive(Debug, Clone, Copy)]
pub struct AggregateObject;

impl Figure for Figure4 {
    const NAME: &'static str = "msc";
    const QUERIES: QueryPath = QueryPath::Local;
}

impl Figure for Figure6 {
    const NAME: &'static str = "mlin";
    const QUERIES: QueryPath = QueryPath::Rounds(QueryScope::Full);
}

impl Figure for Figure6Relevant {
    const NAME: &'static str = "mlin-relevant";
    const QUERIES: QueryPath = QueryPath::Rounds(QueryScope::Relevant);
}

impl Figure for AggregateObject {
    const NAME: &'static str = "aggregate";
    const QUERIES: QueryPath = QueryPath::Ordered;
}

/// Figure 4 over atomic broadcast implementation `A`.
pub type MscReplica<A> = Replica<A, Figure4>;
/// Figure 6 over atomic broadcast implementation `A`.
pub type MlinReplica<A> = Replica<A, Figure6>;
/// Figure 6 with relevant-objects query responses over `A`.
pub type MlinRelevant<A> = Replica<A, Figure6Relevant>;
/// The aggregate-object baseline over `A`.
pub type AggregateReplica<A> = Replica<A, AggregateObject>;

/// A Figure 6 query round awaiting its `n` responses.
#[derive(Debug, Clone)]
struct QueryRound {
    mop: MOperation,
    /// Best snapshot so far (`othX`, `othts`); `None` until the first
    /// response.
    best: Option<(Vec<(ObjectId, Versioned)>, VersionVector)>,
    responses: usize,
}

/// One process's replica running the protocol `F` over atomic broadcast
/// implementation `A`.
#[derive(Debug, Clone)]
pub struct Replica<A, F> {
    me: ProcessId,
    n: usize,
    store: ReplicaStore,
    abcast: A,
    completions: VecDeque<Completion>,
    delivery_log: Vec<MOpId>,
    /// Open query rounds; stays empty unless `F` queries by rounds.
    rounds: HashMap<QueryId, QueryRound>,
    next_query: u64,
    metrics: ReplicaMetrics,
    figure: PhantomData<F>,
}

impl<A: Abcast<MOperation>, F: Figure> Replica<A, F> {
    /// Number of query rounds currently awaiting responses.
    pub fn pending_queries(&self) -> usize {
        self.rounds.len()
    }

    /// Generates the response of `mop`, which executed here as `rec`.
    fn complete(&mut self, mop: &MOperation, rec: ExecRecord) {
        self.completions.push_back(Completion {
            id: mop.id,
            outputs: rec.outputs,
            ops: rec.ops,
            treated_as: mop.class(),
            label: mop.program.label(),
        });
    }

    /// Runs one step of the broadcast, relays what it wants sent and
    /// performs action A2 on what it delivered.
    ///
    /// Sends are attributed to `cause`, the class of the invocation that
    /// triggered the step; deliveries, ticks and restarts count as update
    /// traffic. Applies are counted by the delivered item's own class.
    fn step(
        &mut self,
        cause: MOpClass,
        out: &mut Outbox<ProtocolMsg<A::Msg>>,
        drive: impl FnOnce(&mut A, &mut Outbox<A::Msg>),
    ) {
        let mut ab_out = Outbox::new(self.n);
        drive(&mut self.abcast, &mut ab_out);
        let sent = match cause {
            MOpClass::Update => &mut self.metrics.update_msgs_sent,
            MOpClass::Query => &mut self.metrics.query_msgs_sent,
        };
        for (to, m) in ab_out.drain() {
            *sent += 1;
            out.send(to, ProtocolMsg::Abcast(m));
        }
        for d in self.abcast.drain_delivered() {
            self.delivery_log.push(d.item.id);
            let rec = self.store.apply(&d.item);
            match d.item.class() {
                MOpClass::Update => self.metrics.updates_applied += 1,
                MOpClass::Query => self.metrics.queries_completed += 1,
            }
            if d.item.id.process == self.me {
                self.complete(&d.item, rec);
            }
        }
    }

    /// A3 of Figure 6: `othts := 0`; send "query" to all processes.
    fn open_round(
        &mut self,
        mop: MOperation,
        scope: QueryScope,
        out: &mut Outbox<ProtocolMsg<A::Msg>>,
    ) {
        let qid = QueryId::new(self.me, self.next_query);
        self.next_query += 1;
        let objects = match scope {
            QueryScope::Full => None,
            QueryScope::Relevant => Some(mop.program.referenced_objects().into_iter().collect()),
        };
        self.rounds.insert(
            qid,
            QueryRound {
                mop,
                best: None,
                responses: 0,
            },
        );
        self.metrics.query_msgs_sent += self.n as u64;
        out.send_all(ProtocolMsg::Query { qid, objects });
    }

    /// A5: keep the maximal-timestamp response; A6 once all `n` arrived.
    fn on_response(&mut self, qid: QueryId, state: Vec<(ObjectId, Versioned)>, ts: VersionVector) {
        let Some(round) = self.rounds.get_mut(&qid) else {
            // A response for a query we no longer (or never) track. Over
            // the paper's reliable channels this cannot happen; under an
            // imperfect link (dedup disabled — the chaos suite's sabotage
            // mode) late or duplicated responses do arrive, and dropping
            // them silently is the robust choice.
            return;
        };
        // Replica states are prefixes of one total broadcast order, so
        // timestamps are totally ordered componentwise.
        debug_assert!(
            self.abcast.delivery_channels().is_none(),
            "Figure 6 compares timestamps of one total order; \
             a multi-channel broadcast does not provide one"
        );
        if round.best.as_ref().is_none_or(|(_, best)| best.lt(&ts)) {
            round.best = Some((state, ts));
        }
        round.responses += 1;
        if round.responses == self.n {
            self.finish_round(qid);
        }
    }

    /// A6: all responses received — run the query on the retained snapshot.
    fn finish_round(&mut self, qid: QueryId) {
        let round = self.rounds.remove(&qid).expect("the round is open");
        let (state, ts) = round
            .best
            .expect("n >= 1 responses implies a snapshot was retained");
        let mut snapshot = ReplicaStore::from_snapshot(self.store.num_objects(), &state, ts);
        let rec = snapshot.apply(&round.mop);
        debug_assert!(
            rec.ops.iter().all(|op| op.is_read()),
            "query m-operations must not write"
        );
        self.metrics.queries_completed += 1;
        self.complete(&round.mop, rec);
    }
}

impl<A, F> ReplicaProtocol for Replica<A, F>
where
    A: Abcast<MOperation>,
    F: Figure,
{
    type Msg = ProtocolMsg<A::Msg>;

    fn new(me: ProcessId, n: usize, num_objects: usize) -> Self {
        Replica {
            me,
            n,
            store: ReplicaStore::new(num_objects),
            abcast: A::new(me, n),
            completions: VecDeque::new(),
            delivery_log: Vec::new(),
            rounds: HashMap::new(),
            next_query: 0,
            metrics: ReplicaMetrics::default(),
            figure: PhantomData,
        }
    }

    fn protocol_name() -> &'static str {
        F::NAME
    }

    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>) {
        let class = mop.class();
        match (class, F::QUERIES) {
            // A1 — and the strawman's queries: atomically broadcast.
            (MOpClass::Update, _) | (MOpClass::Query, QueryPath::Ordered) => {
                self.step(class, out, |ab, ab_out| ab.broadcast(mop, ab_out));
            }
            // Figure 4, A3: run against the local copy, responding at once.
            (MOpClass::Query, QueryPath::Local) => {
                let rec = self.store.apply(&mop);
                self.metrics.queries_completed += 1;
                self.complete(&mop, rec);
            }
            (MOpClass::Query, QueryPath::Rounds(scope)) => self.open_round(mop, scope, out),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        match msg {
            ProtocolMsg::Abcast(am) => {
                self.step(MOpClass::Update, out, |ab, ab_out| {
                    ab.on_message(from, am, ab_out)
                });
            }
            other if !matches!(F::QUERIES, QueryPath::Rounds(_)) => debug_assert!(
                false,
                "{} replica received a query-round message: {other:?}",
                F::NAME
            ),
            ProtocolMsg::Query { qid, objects } => {
                // A4: answer with ⟨myX, myts⟩, projected to the requested
                // objects when the issuer asked for a subset.
                let state = match objects {
                    None => self.store.snapshot_full(),
                    Some(objs) => self.store.snapshot_of(&objs),
                };
                self.metrics.query_msgs_sent += 1;
                self.metrics.query_values_sent += state.len() as u64;
                let ts = self.store.ts().clone();
                out.send(from, ProtocolMsg::QueryResponse { qid, state, ts });
            }
            ProtocolMsg::QueryResponse { qid, state, ts } => self.on_response(qid, state, ts),
        }
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    fn store(&self) -> &ReplicaStore {
        &self.store
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.metrics
    }

    fn delivery_log(&self) -> &[MOpId] {
        &self.delivery_log
    }

    fn abcast_deadline(&self) -> Option<u64> {
        self.abcast.next_deadline()
    }

    fn on_abcast_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        // Ticks can complete a view change, which can release deliveries.
        self.step(MOpClass::Update, out, |ab, ab_out| {
            ab.on_tick(now_ns, ab_out)
        });
    }

    fn on_abcast_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        self.step(MOpClass::Update, out, |ab, ab_out| {
            ab.on_restart(now_ns, ab_out)
        });
    }

    fn set_failover_timeouts(&mut self, base_ns: u64, max_ns: u64) {
        self.abcast.set_failover_timeouts(base_ns, max_ns);
    }

    fn abcast_transcript(&self) -> Vec<String> {
        self.abcast.transcript()
    }

    fn set_shard_plan(&mut self, plan: moc_core::shard::ShardPlan) {
        self.abcast.set_shard_plan(plan);
    }

    fn set_commute_plan(&mut self, plan: moc_core::commute::CommutePlan) {
        self.abcast.set_commute_plan(plan);
    }

    fn commute_fast_applied(&self) -> u64 {
        self.abcast.commute_fast_applied()
    }

    fn set_batching(&mut self, cfg: moc_abcast::BatchConfig) {
        self.abcast.set_batching(cfg);
    }

    fn batch_stats(&self) -> moc_abcast::BatchStats {
        self.abcast.batch_stats()
    }

    fn channel_logs(&self) -> Vec<Vec<MOpId>> {
        crate::split_channel_logs(&self.delivery_log, self.abcast.delivery_channels())
    }

    fn private_channel(&self) -> Option<u32> {
        self.abcast.private_channel()
    }
}

#[cfg(test)]
mod tests {
    /// Figure 4 ([`Figure4`](super::Figure4)).
    mod msc {
        use super::super::*;
        use moc_abcast::SequencerAbcast;
        use moc_core::ids::{MOpId, ObjectId};
        use moc_core::program::{reg, ProgramBuilder};
        use std::sync::Arc;

        type Replica = MscReplica<SequencerAbcast<MOperation>>;

        fn pid(i: u32) -> ProcessId {
            ProcessId::new(i)
        }

        fn write_x(val: i64) -> MOperation {
            let mut b = ProgramBuilder::new("wx");
            b.write(ObjectId::new(0), moc_core::program::imm(val))
                .ret(vec![]);
            MOperation::new(MOpId::new(pid(1), 0), Arc::new(b.build().unwrap()), vec![])
        }

        fn read_x(p: u32, seq: u32) -> MOperation {
            let mut b = ProgramBuilder::new("rx");
            b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
            MOperation::new(
                MOpId::new(pid(p), seq),
                Arc::new(b.build().unwrap()),
                vec![],
            )
        }

        /// Queries complete synchronously against the local copy (A3), even
        /// before any update arrives — the stale-read behaviour that makes
        /// this protocol m-sequentially consistent but not m-linearizable.
        #[test]
        fn queries_are_local_and_immediate() {
            let mut r = Replica::new(pid(1), 2, 1);
            let mut out = Outbox::new(2);
            r.invoke(read_x(1, 0), &mut out);
            assert!(out.is_empty(), "no messages for a query");
            let done = r.drain_completions();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].outputs, vec![0]);
            assert_eq!(done[0].treated_as, MOpClass::Query);
            assert_eq!(r.metrics().queries_completed, 1);
            assert_eq!(r.metrics().query_msgs_sent, 0);
        }

        /// Updates respond only once their broadcast is delivered back (A2).
        #[test]
        fn updates_complete_at_own_delivery() {
            let mut r = Replica::new(pid(1), 2, 1);
            let mut out = Outbox::new(2);
            r.invoke(write_x(5), &mut out);
            // Submit went to the sequencer; nothing completed yet.
            assert_eq!(out.len(), 1);
            assert!(r.drain_completions().is_empty());

            // Simulate the sequencer (process 0) ordering the submission.
            let mut seq = Replica::new(pid(0), 2, 1);
            let submissions = out.drain();
            let mut seq_out = Outbox::new(2);
            let ProtocolMsg::Abcast(am) = submissions[0].1.clone() else {
                panic!("expected abcast submit");
            };
            seq.on_message(pid(1), ProtocolMsg::Abcast(am), &mut seq_out);
            let ordered = seq_out.drain();
            assert_eq!(ordered.len(), 2, "Ordered fans out to both");

            // Deliver the ordered copy back to P1: now it completes.
            let mut out2 = Outbox::new(2);
            for (to, m) in ordered {
                if to == pid(1) {
                    r.on_message(pid(0), m, &mut out2);
                }
            }
            let done = r.drain_completions();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].treated_as, MOpClass::Update);
            assert_eq!(r.store().get(ObjectId::new(0)).value, 5);
            assert_eq!(r.store().ts().as_slice(), &[1]);
            assert_eq!(r.metrics().updates_applied, 1);
        }
    }

    /// Figure 6 ([`Figure6`](super::Figure6)).
    mod mlin {
        use super::super::*;
        use moc_abcast::SequencerAbcast;
        use moc_core::ids::MOpId;
        use moc_core::program::{imm, reg, ProgramBuilder};
        use std::sync::Arc;

        type Replica = MlinReplica<SequencerAbcast<MOperation>>;

        fn pid(i: u32) -> ProcessId {
            ProcessId::new(i)
        }
        fn oid(i: u32) -> ObjectId {
            ObjectId::new(i)
        }

        fn read_x(p: u32, seq: u32) -> MOperation {
            let mut b = ProgramBuilder::new("rx");
            b.read(oid(0), 0).ret(vec![reg(0)]);
            MOperation::new(
                MOpId::new(pid(p), seq),
                Arc::new(b.build().unwrap()),
                vec![],
            )
        }

        /// A query fans out n "query" messages and completes only after all n
        /// responses, reading from the freshest snapshot.
        #[test]
        fn query_waits_for_all_responses_and_takes_max() {
            let n = 3;
            let mut r = Replica::new(pid(1), n, 1);
            let mut out = Outbox::new(n);
            r.invoke(read_x(1, 0), &mut out);
            let queries = out.drain();
            assert_eq!(queries.len(), 3, "query to all processes, self included");
            assert_eq!(r.pending_queries(), 1);

            let qid = match &queries[0].1 {
                ProtocolMsg::Query { qid, objects } => {
                    assert!(objects.is_none(), "Full scope requests everything");
                    *qid
                }
                other => panic!("expected query, got {other:?}"),
            };

            // Fabricate three responses with increasing freshness; deliver the
            // freshest in the middle to exercise the max rule.
            let writer = MOpId::new(pid(2), 0);
            let respond = |ver: u64, val: i64| ProtocolMsg::QueryResponse {
                qid,
                state: vec![(
                    oid(0),
                    if ver == 0 {
                        Versioned::INITIAL
                    } else {
                        Versioned::new(val, ver, writer)
                    },
                )],
                ts: VersionVector::from_entries(vec![ver]),
            };
            let mut sink = Outbox::new(n);
            r.on_message(pid(0), respond(0, 0), &mut sink);
            assert!(r.drain_completions().is_empty());
            r.on_message(pid(2), respond(2, 42), &mut sink);
            assert!(r.drain_completions().is_empty(), "still one response short");
            r.on_message(pid(1), respond(1, 17), &mut sink);
            let done = r.drain_completions();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].outputs, vec![42], "freshest snapshot wins");
            assert_eq!(done[0].treated_as, MOpClass::Query);
            assert_eq!(done[0].ops[0].writer, writer);
            assert_eq!(done[0].ops[0].version, 2);
            assert_eq!(r.pending_queries(), 0);
        }

        /// Responders answer queries from their current copy (A4).
        #[test]
        fn query_response_carries_store_and_ts() {
            let n = 2;
            let mut r = Replica::new(pid(0), n, 2);
            let qid = QueryId::new(pid(1), 0);
            let mut out = Outbox::new(n);
            r.on_message(pid(1), ProtocolMsg::Query { qid, objects: None }, &mut out);
            let msgs = out.drain();
            assert_eq!(msgs.len(), 1);
            assert_eq!(msgs[0].0, pid(1), "response goes back to the asker");
            match &msgs[0].1 {
                ProtocolMsg::QueryResponse { qid: q, state, ts } => {
                    assert_eq!(*q, qid);
                    assert_eq!(state.len(), 2);
                    assert_eq!(ts.as_slice(), &[0, 0]);
                }
                other => panic!("expected response, got {other:?}"),
            }
        }

        /// Under `Relevant` scope the issuer keeps only the objects the query
        /// references.
        #[test]
        fn relevant_scope_filters_snapshot() {
            let n = 1;
            let mut r = MlinRelevant::<SequencerAbcast<MOperation>>::new(pid(0), n, 3);
            let mut out = Outbox::new(n);
            r.invoke(read_x(0, 0), &mut out);
            // Self-response loop: deliver the query to ourselves and the
            // response back.
            let msgs = out.drain();
            let mut out2 = Outbox::new(n);
            for (_, m) in msgs {
                r.on_message(pid(0), m, &mut out2);
            }
            for (_, m) in out2.drain() {
                r.on_message(pid(0), m, &mut out2_sink());
            }
            let done = r.drain_completions();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].outputs, vec![0]);
        }

        fn out2_sink(
        ) -> Outbox<ProtocolMsg<<SequencerAbcast<MOperation> as Abcast<MOperation>>::Msg>> {
            Outbox::new(1)
        }

        /// Updates write a single program through abcast exactly as in msc.
        #[test]
        fn updates_are_broadcast() {
            let n = 2;
            let mut r = Replica::new(pid(1), n, 1);
            let mut b = ProgramBuilder::new("wx");
            b.write(oid(0), imm(9)).ret(vec![]);
            let m = MOperation::new(MOpId::new(pid(1), 0), Arc::new(b.build().unwrap()), vec![]);
            let mut out = Outbox::new(n);
            r.invoke(m, &mut out);
            assert_eq!(out.len(), 1, "submit to sequencer");
            assert_eq!(r.metrics().update_msgs_sent, 1);
            assert!(r.drain_completions().is_empty());
        }
    }

    /// The aggregate strawman.
    mod aggregate {
        use super::super::*;
        use moc_abcast::SequencerAbcast;
        use moc_core::ids::{MOpId, ObjectId};
        use moc_core::program::{reg, ProgramBuilder};
        use std::sync::Arc;

        type Replica = AggregateReplica<SequencerAbcast<MOperation>>;

        #[test]
        fn even_queries_are_broadcast() {
            let mut b = ProgramBuilder::new("rx");
            b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
            let q = MOperation::new(
                MOpId::new(ProcessId::new(1), 0),
                Arc::new(b.build().unwrap()),
                vec![],
            );
            let mut r = Replica::new(ProcessId::new(1), 2, 1);
            let mut out = Outbox::new(2);
            r.invoke(q, &mut out);
            assert_eq!(out.len(), 1, "query submitted to the sequencer");
            assert!(
                r.drain_completions().is_empty(),
                "query must wait for the total order"
            );
            assert_eq!(r.metrics().query_msgs_sent, 1);
        }
    }

    /// Every hook reaches the broadcast, under every figure.
    mod forwarding {
        use super::super::*;
        use moc_abcast::{BatchConfig, BatchStats, Delivery};
        use moc_core::commute::CommutePlan;
        use moc_core::shard::ShardPlan;
        use std::cell::RefCell;

        /// A broadcast that orders nothing and logs which hooks were called.
        #[derive(Debug, Default)]
        struct ProbeAbcast {
            calls: RefCell<Vec<&'static str>>,
        }

        impl ProbeAbcast {
            fn log(&self, hook: &'static str) {
                self.calls.borrow_mut().push(hook);
            }
        }

        impl Abcast<MOperation> for ProbeAbcast {
            type Msg = ();

            fn new(_me: ProcessId, _n: usize) -> Self {
                ProbeAbcast::default()
            }
            fn broadcast(&mut self, _item: MOperation, _out: &mut Outbox<()>) {}
            fn on_message(&mut self, _from: ProcessId, _msg: (), _out: &mut Outbox<()>) {}
            fn drain_delivered(&mut self) -> Vec<Delivery<MOperation>> {
                Vec::new()
            }
            fn delivered_count(&self) -> u64 {
                0
            }
            fn next_deadline(&self) -> Option<u64> {
                self.log("next_deadline");
                Some(7)
            }
            fn on_tick(&mut self, _now_ns: u64, _out: &mut Outbox<()>) {
                self.log("on_tick");
            }
            fn on_restart(&mut self, _now_ns: u64, _out: &mut Outbox<()>) {
                self.log("on_restart");
            }
            fn set_failover_timeouts(&mut self, _base_ns: u64, _max_ns: u64) {
                self.log("set_failover_timeouts");
            }
            fn set_shard_plan(&mut self, _plan: ShardPlan) {
                self.log("set_shard_plan");
            }
            fn set_commute_plan(&mut self, _plan: CommutePlan) {
                self.log("set_commute_plan");
            }
            fn commute_fast_applied(&self) -> u64 {
                self.log("commute_fast_applied");
                3
            }
            fn delivery_channels(&self) -> Option<Vec<u32>> {
                self.log("delivery_channels");
                Some(Vec::new())
            }
            fn private_channel(&self) -> Option<u32> {
                self.log("private_channel");
                Some(5)
            }
            fn set_batching(&mut self, _cfg: BatchConfig) {
                self.log("set_batching");
            }
            fn batch_stats(&self) -> BatchStats {
                self.log("batch_stats");
                BatchStats {
                    items_stamped: 2,
                    batches_flushed: 1,
                }
            }
            fn transcript(&self) -> Vec<String> {
                self.log("transcript");
                vec!["probe".to_string()]
            }
        }

        /// Calls each broadcast-facing `ReplicaProtocol` method once and
        /// checks the probe saw each hook exactly once, with the probe's
        /// answers coming back unchanged.
        fn every_hook_reaches_the_broadcast<F: Figure>() {
            let mut r = Replica::<ProbeAbcast, F>::new(ProcessId::new(0), 2, 1);
            let mut out = Outbox::new(2);
            r.set_failover_timeouts(1, 2);
            r.set_shard_plan(ShardPlan::single(1));
            r.set_commute_plan(CommutePlan::vacuous(1));
            r.set_batching(BatchConfig::default());
            assert_eq!(r.batch_stats().items_stamped, 2);
            assert_eq!(r.commute_fast_applied(), 3);
            assert_eq!(r.abcast_transcript(), vec!["probe".to_string()]);
            assert!(r.channel_logs().is_empty(), "split by the probe's channels");
            assert_eq!(r.private_channel(), Some(5));
            assert_eq!(r.abcast_deadline(), Some(7));
            r.on_abcast_tick(10, &mut out);
            r.on_abcast_restart(20, &mut out);
            assert_eq!(
                *r.abcast.calls.borrow(),
                [
                    "set_failover_timeouts",
                    "set_shard_plan",
                    "set_commute_plan",
                    "set_batching",
                    "batch_stats",
                    "commute_fast_applied",
                    "transcript",
                    "delivery_channels",
                    "private_channel",
                    "next_deadline",
                    "on_tick",
                    "on_restart",
                ],
                "{}",
                F::NAME
            );
        }

        #[test]
        fn under_all_four_figures() {
            every_hook_reaches_the_broadcast::<Figure4>();
            every_hook_reaches_the_broadcast::<Figure6>();
            every_hook_reaches_the_broadcast::<Figure6Relevant>();
            every_hook_reaches_the_broadcast::<AggregateObject>();
        }
    }
}
