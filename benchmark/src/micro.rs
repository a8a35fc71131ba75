//! Per-layer micro loops: single-threaded, fixed iteration counts, each
//! well under a second, timing public functions of one layer with nothing
//! else running. They run in a process of their own, before any cluster,
//! so their caches are not the cluster's.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use moc_abcast::{
    Abcast, BatchConfig, LinkMsg, Outbox, ReliableLink, SequencerAbcast, ShardedAbcast, ViewAbcast,
};
use moc_checker::conditions::Condition;
use moc_core::history::History;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::program::Program;
use moc_protocol::{MOperation, ReplicaStore};
use moc_runtime::RuntimeConfig;
use moc_workload::{query_program, rmw_program};

use crate::spec::{BATCH, CLUSTER_SIZE, NUM_OBJECTS, QUERY_SPAN, UPDATE_SPAN};
use crate::stats::median;
use crate::suite::RepResult;
use crate::verify::{generate_history, BATCH_MOPS};

const LINK_ROUNDTRIPS: u64 = 2_000_000;
const ABCAST_ITEMS: usize = 192_000;
const CLASSIFY_CALLS: u32 = 100_000;
const APPLY_CALLS: u32 = 1_000_000;
const CORE_REPEATS: usize = 3;

fn objects(span: usize) -> Vec<ObjectId> {
    (0..span as u32).map(ObjectId::new).collect()
}

fn rmw2() -> Arc<Program> {
    rmw_program(&objects(UPDATE_SPAN))
}

fn q4() -> Arc<Program> {
    query_program(&objects(QUERY_SPAN))
}

/// ns per payload for `send` → peer `on_wire(Data)` → `on_wire(Ack)` on an
/// in-memory pair of links with the runtime's tuning. Time advances 1 µs
/// per round trip, so no retransmission timer ever fires.
fn link_roundtrip_ns<M: Clone>(payload: M, items_per_payload: u64) -> f64 {
    let cfg = RuntimeConfig::new(1).link;
    let (a, b) = (ProcessId::new(0), ProcessId::new(1));
    let mut link_a: ReliableLink<M> = ReliableLink::new(a, 2, cfg);
    let mut link_b: ReliableLink<M> = ReliableLink::new(b, 2, cfg);
    let mut wire_a: Vec<(ProcessId, LinkMsg<M>)> = Vec::new();
    let mut wire_b: Vec<(ProcessId, LinkMsg<M>)> = Vec::new();
    let start = Instant::now();
    for i in 0..LINK_ROUNDTRIPS {
        let now = i * 1_000;
        link_a.send(b, payload.clone(), now, &mut wire_a);
        for (_, frame) in wire_a.drain(..) {
            black_box(link_b.on_wire(a, frame, now, &mut wire_b));
        }
        for (_, frame) in wire_b.drain(..) {
            black_box(link_a.on_wire(b, frame, now, &mut wire_a));
        }
    }
    assert_eq!(link_a.unacked(), 0, "every frame was acknowledged");
    start.elapsed().as_nanos() as f64 / (LINK_ROUNDTRIPS * items_per_payload) as f64
}

/// ns per item for a backend to deliver an item at all three in-memory
/// endpoints: the two followers broadcast in turn, and messages are
/// routed in send order until none is left.
fn abcast_ns_per_item<A: Abcast<MOperation>>(batch: Option<BatchConfig>) -> f64 {
    let n = CLUSTER_SIZE;
    let mut endpoints: Vec<A> = (0..n)
        .map(|p| A::new(ProcessId::new(p as u32), n))
        .collect();
    // One round is one full batch; the delay is out of reach, so only the
    // size rule flushes.
    let per_round = batch.map_or(1, |b| b.max_batch);
    if let Some(cfg) = batch {
        for e in &mut endpoints {
            e.set_batching(BatchConfig {
                max_delay_ns: u64::MAX / 2,
                ..cfg
            });
        }
    }
    let template = MOperation::new(MOpId::new(ProcessId::new(1), 0), rmw2(), Vec::new());
    let mut out: Outbox<A::Msg> = Outbox::new(n);
    let mut queue: VecDeque<(ProcessId, ProcessId, A::Msg)> = VecDeque::new();
    let mut delivered = 0usize;
    let start = Instant::now();
    for i in 0..ABCAST_ITEMS {
        let origin = ProcessId::new(1 + (i % 2) as u32);
        let mut mop = template.clone();
        mop.id = MOpId::new(origin, (i / 2) as u32);
        endpoints[origin.index()].broadcast(mop, &mut out);
        queue.extend(out.drain().into_iter().map(|(to, m)| (origin, to, m)));
        if (i + 1) % per_round != 0 {
            continue;
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            endpoints[to.index()].on_message(from, msg, &mut out);
            queue.extend(out.drain().into_iter().map(|(next, m)| (to, next, m)));
        }
        for e in &mut endpoints {
            delivered += black_box(e.drain_delivered()).len();
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(
        delivered,
        n * ABCAST_ITEMS,
        "every item delivered everywhere"
    );
    elapsed.as_nanos() as f64 / ABCAST_ITEMS as f64
}

fn classify_ns() -> f64 {
    let programs = [rmw2(), q4()];
    let id = MOpId::new(ProcessId::new(1), 0);
    let start = Instant::now();
    for i in 0..CLASSIFY_CALLS {
        let program = Arc::clone(&programs[(i % 2) as usize]);
        black_box(MOperation::new(id, black_box(program), Vec::new()));
    }
    start.elapsed().as_nanos() as f64 / f64::from(CLASSIFY_CALLS)
}

fn store_apply_ns(program: Arc<Program>) -> f64 {
    let mop = MOperation::new(MOpId::new(ProcessId::new(1), 0), program, Vec::new());
    let mut store = ReplicaStore::new(NUM_OBJECTS);
    let start = Instant::now();
    for _ in 0..APPLY_CALLS {
        black_box(store.apply(black_box(&mop)));
    }
    start.elapsed().as_nanos() as f64 / f64::from(APPLY_CALLS)
}

/// Median over a few calls of `f`, ms.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..CORE_REPEATS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Runs every micro loop.
pub fn run(seed: u64) -> RepResult {
    type Seq = SequencerAbcast<MOperation>;
    let mut r = RepResult::default();
    r.set("link.roundtrip_ns", link_roundtrip_ns(7u64, 1));
    r.set(
        "link.batch_roundtrip_ns_per_item",
        link_roundtrip_ns(vec![7u64; BATCH.max_batch], BATCH.max_batch as u64),
    );
    r.set(
        "abcast.sequencer.ns_per_item",
        abcast_ns_per_item::<Seq>(None),
    );
    r.set(
        "abcast.sequencer_b16.ns_per_item",
        abcast_ns_per_item::<Seq>(Some(BATCH)),
    );
    r.set(
        "abcast.view.ns_per_item",
        abcast_ns_per_item::<ViewAbcast<MOperation>>(None),
    );
    r.set(
        "abcast.sharded.ns_per_item",
        abcast_ns_per_item::<ShardedAbcast<MOperation>>(None),
    );
    r.set("protocol.classify_ns", classify_ns());
    r.set("protocol.store_apply_ns.rmw2", store_apply_ns(rmw2()));
    r.set("protocol.store_apply_ns.q4", store_apply_ns(q4()));

    let h = generate_history(BATCH_MOPS, seed);
    let base = Condition::MLinearizability.base_relation(&h);
    r.set(
        "core.base_relation_ms",
        median_ms(|| Condition::MLinearizability.base_relation(&h)),
    );
    r.set("core.closure_ms", median_ms(|| base.transitive_closure()));
    let mut copies: Vec<_> = (0..CORE_REPEATS).map(|_| h.records().to_vec()).collect();
    r.set(
        "core.history_build_ms",
        median_ms(|| History::new(h.num_objects(), copies.pop().expect("one copy per call"))),
    );
    r
}
