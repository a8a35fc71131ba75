//! Tracing from outside: two generic wrappers that implement
//! [`ReplicaProtocol`] and [`Abcast`] by delegation and record a span per
//! call into the protocol and the ordering layer.
//!
//! A replica thread hosts one [`TracedReplica`] whose protocol owns one
//! [`TracedAbcast`], so both write into the thread's own buffer and the
//! open protocol span is the parent of the ordering spans made under it.
//! The buffer is moved to a shared sink when the replica is dropped (at
//! `LiveCluster::shutdown`), and [`take_traces`] hands the sink over.
//!
//! `ReliableLink` and the replica and network loops are built inside
//! `moc_runtime::replica_main` and cannot be wrapped from here; counters,
//! per-thread CPU and subtraction cover them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;

use moc_abcast::{Abcast, BatchConfig, BatchStats, Delivery, Outbox};
use moc_core::commute::CommutePlan;
use moc_core::ids::{MOpId, ProcessId};
use moc_core::shard::ShardPlan;
use moc_protocol::{Completion, MOperation, ReplicaMetrics, ReplicaProtocol, ReplicaStore};

use crate::clock::now_ns;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `moc-protocol`: calls into the replica.
    Protocol,
    /// `moc-abcast`: calls into the ordering backend.
    Abcast,
}

/// The traced calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `ReplicaProtocol::invoke`.
    Invoke,
    /// `on_message` of either layer.
    OnMessage,
    /// `ReplicaProtocol::drain_completions`.
    DrainCompletions,
    /// `on_abcast_tick` / `Abcast::on_tick`.
    Tick,
    /// `Abcast::broadcast`.
    Broadcast,
    /// `Abcast::drain_delivered`.
    DrainDelivered,
}

/// One call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called into.
    pub layer: Layer,
    /// The call.
    pub call: Call,
    /// Entry, ns on the benchmark's clock.
    pub start_ns: u64,
    /// Return.
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`ThreadTrace`], plus one;
    /// 0 for a call made by the runtime itself.
    pub parent: u32,
    /// The m-operations the call carried: a range of [`ThreadTrace::ids`].
    pub ids: (u32, u32),
}

impl Span {
    /// Time inside the call, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one replica thread recorded.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// The replica the thread hosted.
    pub replica: u32,
    /// Spans in entry order.
    pub spans: Vec<Span>,
    /// The m-operation ids the spans refer to.
    pub ids: Vec<MOpId>,
}

impl ThreadTrace {
    /// The ids `span` carried.
    pub fn ids_of(&self, span: &Span) -> &[MOpId] {
        &self.ids[span.ids.0 as usize..span.ids.1 as usize]
    }
}

#[derive(Default)]
struct Local {
    trace: ThreadTrace,
    /// The innermost open span, as a `Span::parent` value.
    open: u32,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// Takes every trace flushed so far.
pub fn take_traces() -> Vec<ThreadTrace> {
    std::mem::take(&mut *SINK.lock().expect("no tracer panics while flushing"))
}

/// Runs `call` inside a span; `carried` then names the m-operations the
/// call carried, given its result.
fn span<T>(
    layer: Layer,
    call_name: Call,
    call: impl FnOnce() -> T,
    carried: impl FnOnce(&T, &mut Vec<MOpId>),
) -> T {
    let (index, parent) = LOCAL.with_borrow_mut(|l| {
        let parent = l.open;
        l.trace.spans.push(Span {
            layer,
            call: call_name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            ids: (0, 0),
        });
        l.open = l.trace.spans.len() as u32;
        (l.trace.spans.len() - 1, parent)
    });
    let result = call();
    LOCAL.with_borrow_mut(|l| {
        let first = l.trace.ids.len() as u32;
        carried(&result, &mut l.trace.ids);
        let span = &mut l.trace.spans[index];
        span.ids = (first, l.trace.ids.len() as u32);
        span.end_ns = now_ns();
        l.open = parent;
    });
    result
}

fn carries_nothing<T>(_: &T, _: &mut Vec<MOpId>) {}

/// A [`ReplicaProtocol`] that records a span per call and otherwise is
/// `R`.
pub struct TracedReplica<R> {
    inner: R,
    me: ProcessId,
}

impl<R> Drop for TracedReplica<R> {
    fn drop(&mut self) {
        let mut trace = LOCAL.with_borrow_mut(|l| std::mem::take(&mut l.trace));
        trace.replica = self.me.as_u32();
        if let Ok(mut sink) = SINK.lock() {
            sink.push(trace);
        }
    }
}

impl<R: ReplicaProtocol> ReplicaProtocol for TracedReplica<R> {
    type Msg = R::Msg;

    fn new(me: ProcessId, n: usize, num_objects: usize) -> Self {
        TracedReplica {
            inner: R::new(me, n, num_objects),
            me,
        }
    }

    fn protocol_name() -> &'static str {
        R::protocol_name()
    }

    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>) {
        let id = mop.id;
        span(
            Layer::Protocol,
            Call::Invoke,
            || self.inner.invoke(mop, out),
            |_, ids| ids.push(id),
        );
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        span(
            Layer::Protocol,
            Call::OnMessage,
            || self.inner.on_message(from, msg, out),
            carries_nothing,
        );
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        span(
            Layer::Protocol,
            Call::DrainCompletions,
            || self.inner.drain_completions(),
            |done, ids| ids.extend(done.iter().map(|c| c.id)),
        )
    }

    fn store(&self) -> &ReplicaStore {
        self.inner.store()
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.inner.metrics()
    }

    fn delivery_log(&self) -> &[MOpId] {
        self.inner.delivery_log()
    }

    fn abcast_deadline(&self) -> Option<u64> {
        self.inner.abcast_deadline()
    }

    fn on_abcast_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        span(
            Layer::Protocol,
            Call::Tick,
            || self.inner.on_abcast_tick(now_ns, out),
            carries_nothing,
        );
    }

    fn on_abcast_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        self.inner.on_abcast_restart(now_ns, out);
    }

    fn set_failover_timeouts(&mut self, base_ns: u64, max_ns: u64) {
        self.inner.set_failover_timeouts(base_ns, max_ns);
    }

    fn abcast_transcript(&self) -> Vec<String> {
        self.inner.abcast_transcript()
    }

    fn set_shard_plan(&mut self, plan: ShardPlan) {
        self.inner.set_shard_plan(plan);
    }

    fn set_commute_plan(&mut self, plan: CommutePlan) {
        self.inner.set_commute_plan(plan);
    }

    fn commute_fast_applied(&self) -> u64 {
        self.inner.commute_fast_applied()
    }

    fn set_batching(&mut self, cfg: BatchConfig) {
        self.inner.set_batching(cfg);
    }

    fn batch_stats(&self) -> BatchStats {
        self.inner.batch_stats()
    }

    fn channel_logs(&self) -> Vec<Vec<MOpId>> {
        self.inner.channel_logs()
    }

    fn private_channel(&self) -> Option<u32> {
        self.inner.private_channel()
    }
}

/// An [`Abcast`] of m-operations that records a span per call and
/// otherwise is `A`.
#[derive(Debug, Clone)]
pub struct TracedAbcast<A>(A);

impl<A: Abcast<MOperation>> Abcast<MOperation> for TracedAbcast<A> {
    type Msg = A::Msg;

    fn new(me: ProcessId, n: usize) -> Self {
        TracedAbcast(A::new(me, n))
    }

    fn broadcast(&mut self, item: MOperation, out: &mut Outbox<Self::Msg>) {
        let id = item.id;
        span(
            Layer::Abcast,
            Call::Broadcast,
            || self.0.broadcast(item, out),
            |_, ids| ids.push(id),
        );
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        span(
            Layer::Abcast,
            Call::OnMessage,
            || self.0.on_message(from, msg, out),
            carries_nothing,
        );
    }

    fn drain_delivered(&mut self) -> Vec<Delivery<MOperation>> {
        span(
            Layer::Abcast,
            Call::DrainDelivered,
            || self.0.drain_delivered(),
            |delivered, ids| ids.extend(delivered.iter().map(|d| d.item.id)),
        )
    }

    fn delivered_count(&self) -> u64 {
        self.0.delivered_count()
    }

    fn next_deadline(&self) -> Option<u64> {
        self.0.next_deadline()
    }

    fn on_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        span(
            Layer::Abcast,
            Call::Tick,
            || self.0.on_tick(now_ns, out),
            carries_nothing,
        );
    }

    fn on_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        self.0.on_restart(now_ns, out);
    }

    fn set_failover_timeouts(&mut self, base_ns: u64, max_ns: u64) {
        self.0.set_failover_timeouts(base_ns, max_ns);
    }

    fn set_shard_plan(&mut self, plan: ShardPlan) {
        self.0.set_shard_plan(plan);
    }

    fn set_commute_plan(&mut self, plan: CommutePlan) {
        self.0.set_commute_plan(plan);
    }

    fn commute_fast_applied(&self) -> u64 {
        self.0.commute_fast_applied()
    }

    fn delivery_channels(&self) -> Option<Vec<u32>> {
        self.0.delivery_channels()
    }

    fn private_channel(&self) -> Option<u32> {
        self.0.private_channel()
    }

    fn set_batching(&mut self, cfg: BatchConfig) {
        self.0.set_batching(cfg);
    }

    fn batch_stats(&self) -> BatchStats {
        self.0.batch_stats()
    }

    fn transcript(&self) -> Vec<String> {
        self.0.transcript()
    }
}

/// Where one update m-operation was at each layer boundary, ns on the
/// benchmark's clock; 0 where the trace holds no such span.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStages {
    /// Entry of the origin replica's `invoke`.
    pub invoke_start: u64,
    /// Return of the origin's `Abcast::broadcast`.
    pub broadcast_end: u64,
    /// Return of the `drain_delivered` at the sequencer (p0) that held it:
    /// stamped, flushed and looped back.
    pub stamped: u64,
    /// Return of the origin's `drain_delivered` that held it.
    pub delivered: u64,
    /// Return of the origin's `drain_completions` that held it.
    pub completed: u64,
}

/// Self time of the two traced layers over a time range.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyNs {
    /// Protocol spans minus the ordering spans made under them.
    pub protocol: u64,
    /// Ordering spans (they have no traced children).
    pub abcast: u64,
}

/// Joins the spans by m-operation id, and sums each layer's self time over
/// the spans that started in `[from_ns, to_ns)`.
pub fn join(
    traces: &[ThreadTrace],
    from_ns: u64,
    to_ns: u64,
) -> (HashMap<MOpId, OpStages>, BusyNs) {
    let mut stages: HashMap<MOpId, OpStages> = HashMap::new();
    let mut busy = BusyNs::default();
    for t in traces {
        for s in &t.spans {
            if (from_ns..to_ns).contains(&s.start_ns) {
                match (s.layer, s.parent) {
                    (Layer::Protocol, _) => busy.protocol += s.duration_ns(),
                    (Layer::Abcast, 0) => busy.abcast += s.duration_ns(),
                    (Layer::Abcast, _) => {
                        busy.abcast += s.duration_ns();
                        busy.protocol = busy.protocol.saturating_sub(s.duration_ns());
                    }
                }
            }
            for &id in t.ids_of(s) {
                let own = id.process.as_u32() == t.replica;
                let st = stages.entry(id).or_default();
                match (s.layer, s.call) {
                    (Layer::Protocol, Call::Invoke) => st.invoke_start = s.start_ns,
                    (Layer::Abcast, Call::Broadcast) => st.broadcast_end = s.end_ns,
                    (Layer::Abcast, Call::DrainDelivered) if t.replica == 0 => {
                        st.stamped = s.end_ns;
                    }
                    (Layer::Abcast, Call::DrainDelivered) if own => st.delivered = s.end_ns,
                    (Layer::Protocol, Call::DrainCompletions) => st.completed = s.end_ns,
                    _ => {}
                }
            }
        }
    }
    (stages, busy)
}

/// Renders traces as tab-separated text, one span per line:
/// `replica layer call start_ns end_ns parent ids…`.
pub fn render(traces: &[ThreadTrace]) -> String {
    use std::fmt::Write;
    let mut out = String::from("replica\tlayer\tcall\tstart_ns\tend_ns\tparent\tmops\n");
    for t in traces {
        for s in &t.spans {
            let _ = write!(
                out,
                "{}\t{:?}\t{:?}\t{}\t{}\t{}\t",
                t.replica, s.layer, s.call, s.start_ns, s.end_ns, s.parent
            );
            for (i, id) in t.ids_of(s).iter().enumerate() {
                let _ = write!(out, "{}{id}", if i > 0 { "," } else { "" });
            }
            out.push('\n');
        }
    }
    out
}
