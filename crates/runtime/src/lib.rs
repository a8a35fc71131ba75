//! # moc-runtime
//!
//! A live, thread-based cluster hosting the consistency-protocol replicas
//! of `moc-protocol` — the same state machines that run on the
//! deterministic simulator, here driven by OS threads, park-and-unpark
//! inboxes and wall-clock time.
//!
//! Topology: one replica thread per process and nothing in between. A
//! replica sends each frame straight into the destination's inbox, stamped
//! with the time it may be delivered, and the receiver holds an early
//! frame back until then: optional randomized delays reorder messages
//! exactly as the paper's asynchronous channel model allows. Clients block
//! on [`LiveCluster::invoke`], or keep a window of m-operations in flight
//! through a session from [`LiveCluster::pipelined`]. A per-process lock
//! makes the invoking thread the process's sole thread of control, and the
//! replica keeps the process's program order.
//!
//! Every hand-off between threads — a frame or invocation into a replica's
//! inbox, a reply back to its client, an observation to the sentinel — is
//! one crate-private inbox: a vector under a lock that the sender pushes
//! to before it unparks the one receiving thread, and that the receiver
//! takes whole in one lock, swapping it with a vector of its own.
//!
//! A replica thread works per *wake-up*, not per message: when it wakes it
//! takes everything that arrived while it was busy — frames,
//! acknowledgements, invocations — feeds it to its replica and then
//! settles once: one round of replies, one data frame per peer when the
//! broadcast batches, and behind a link one acknowledgement per peer.
//! Under load the batch grows by
//! itself (classic group commit); idle, it is one message and nothing
//! waits. When the network delays nothing, the frames the replica sent
//! itself are fed back in the same wake-up, one more settle per round of
//! them (see below).
//!
//! ## The channel under the replicas
//!
//! The paper's protocols assume reliable channels. The replicas get them
//! in one of two ways, chosen from the network the [`RuntimeConfig`]
//! describes; there is no separate switch.
//!
//! - **A lossless network** (`drop_prob == 0`, `dup_prob == 0` and no
//!   `artificial_delay`, as [`RuntimeConfig::new`] builds it) runs the
//!   trusted channel: no link sits under the replicas, and the wire
//!   carries data frames alone. The inboxes already deliver what a link
//!   would rebuild — every frame exactly once, and each sender's frames
//!   in the order it sent them — and the host's *updates pipeline* gate
//!   relies on exactly that:
//!   - each peer writes its frames into an inbox from one thread, its
//!     replica's, and the inbox hands each item to the receiver exactly
//!     once and one sender's items in the order they were sent: a send
//!     pushes under the inbox's lock, which orders one thread's pushes,
//!     and a take swaps the whole queue out under the same lock, so it
//!     hands over a prefix of the push order, the next take the rest, and
//!     no item is in two vectors at once. A send cannot go unnoticed
//!     either: the receiver binds its thread before it first looks at the
//!     queue, and a sender unparks it after its push, so a look that
//!     comes before the push is followed by a wake-up;
//!   - a replica's frames to itself never leave its thread: the wake-up
//!     that sent them feeds them back right after its flush, in send
//!     order, and settles again, for a bounded number of rounds. What is
//!     left over waits in its hold queue, due at once, where arrival order
//!     breaks the ties, and the next wake-up feeds it before any input.
//!     Nothing else the replica sends itself enters that queue, so these
//!     frames too come out in send order;
//!   - nothing drops, duplicates or delays a frame: each is sent once,
//!     due at once.
//!
//!   A settle sends no acknowledgements and arms no retransmission timer;
//!   only the broadcast's own deadlines (group-commit flush, failover
//!   suspicion) wake a replica early. The data frames are still counted
//!   in [`RuntimeReport::link_stats`].
//! - **A network that can lose, duplicate or delay frames**
//!   ([`RuntimeConfig::with_faults`], [`RuntimeConfig::with_artificial_delay`])
//!   puts the [`moc_abcast::ReliableLink`] sublayer, tuned by
//!   [`RuntimeConfig::link`], under every replica: it numbers,
//!   acknowledges, retransmits and deduplicates frames, and restores each
//!   sender's order behind the delays.
//!
//! Invocation and response events are stamped with nanoseconds since the
//! cluster epoch, so the history assembled at
//! [`LiveCluster::shutdown`] carries a genuine real-time order `~t` and
//! can be checked for m-linearizability.
//!
//! ```
//! use std::sync::Arc;
//! use moc_core::ids::ProcessId;
//! use moc_core::program::{imm, reg, ProgramBuilder};
//! use moc_protocol::MlinOverSequencer;
//! use moc_runtime::{LiveCluster, RuntimeConfig};
//!
//! let cluster: LiveCluster<MlinOverSequencer> =
//!     LiveCluster::start(2, RuntimeConfig::new(1));
//! let mut b = ProgramBuilder::new("wx");
//! b.write(moc_core::ids::ObjectId::new(0), imm(7)).ret(vec![]);
//! let wx = Arc::new(b.build()?);
//! let mut b = ProgramBuilder::new("rx");
//! b.read(moc_core::ids::ObjectId::new(0), 0).ret(vec![reg(0)]);
//! let rx = Arc::new(b.build()?);
//!
//! cluster.invoke(ProcessId::new(0), wx, vec![]);
//! let reply = cluster.invoke(ProcessId::new(1), rx, vec![]);
//! assert_eq!(reply.outputs, vec![7]);
//! let report = cluster.shutdown();
//! assert_eq!(report.history.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inbox::Inbox;
use moc_abcast::{LinkConfig, LinkMsg};
use moc_core::history::{History, HistoryLog};
use moc_core::ids::{MOpId, ProcessId};
use moc_core::inline::InlineList;
use moc_core::mop::{EventTime, MOpClass};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_monitor::OnlineMonitor;
pub use moc_monitor::{MonitorConfig, MonitorRunSummary};
pub use moc_protocol::host::PipelineMetrics;
use moc_protocol::host::{MonitorEvent, OrderingSetup, ReplicaHost};
use moc_protocol::ReplicaProtocol;
use moc_sim::DelayModel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod inbox;

/// Salt mixed into the seed for a sender's fault sampler, so enabling
/// faults does not perturb its delay stream (mirrors the simulator's
/// convention).
const FAULT_SEED_SALT: u64 = 0x6d6f_635f_6368_616f;

/// Configuration for a live cluster.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Artificial delivery delay the sender stamps on every frame and the
    /// receiver waits out. `None` delivers on arrival (still
    /// asynchronously).
    pub artificial_delay: Option<DelayModel>,
    /// Seed for the delay and fault samplers (each sender draws from its
    /// own pair of streams).
    pub seed: u64,
    /// Probability a frame is silently discarded on its way (loopback
    /// exempt). The reliable-link sublayer recovers the loss.
    pub drop_prob: f64,
    /// Probability a frame is delivered twice, with independent delays
    /// (loopback exempt).
    pub dup_prob: f64,
    /// Reliable-link tuning, used only when the network can lose,
    /// duplicate or delay frames (a lossless one runs the trusted channel;
    /// see the crate docs). Wall-clock defaults (2ms base RTO, 50ms cap)
    /// absorb OS scheduling jitter; spurious retransmissions are made
    /// harmless by receive-side dedup.
    pub link: LinkConfig,
    /// Failover suspicion timeouts `(base_ns, max_ns)` for broadcasts
    /// with view-based failover. The simulator-scale defaults baked into
    /// the broadcast (tens of microseconds) would suspect a coordinator
    /// on every OS scheduling hiccup, so the runtime always overrides
    /// them with wall-clock values (20ms base, 500ms cap). False
    /// suspicions are safe but churn views. Ignored by broadcasts
    /// without failover.
    pub failover_timeouts: (u64, u64),
    /// Group-commit batching installed on every replica's broadcast
    /// before traffic starts (see
    /// [`moc_protocol::ReplicaProtocol::set_batching`]). `None` keeps
    /// one-fan-out-per-stamp ordering.
    pub batching: Option<moc_abcast::BatchConfig>,
}

impl RuntimeConfig {
    /// A config with immediate routing and a fault-free network.
    pub fn new(num_objects: usize) -> Self {
        RuntimeConfig {
            num_objects,
            artificial_delay: None,
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            link: LinkConfig {
                rto_ns: 2_000_000,
                max_rto_ns: 50_000_000,
                ..LinkConfig::default()
            },
            failover_timeouts: (20_000_000, 500_000_000),
            batching: None,
        }
    }

    /// Enables group-commit batching on every replica's broadcast: pending
    /// submissions accumulate until `cfg.max_batch` items or
    /// `cfg.max_delay_ns` elapse, then stamp as one ordering frame.
    pub fn with_batching(mut self, cfg: moc_abcast::BatchConfig) -> Self {
        self.batching = Some(cfg);
        self
    }

    /// Overrides the failover suspicion timeouts (base and backoff cap).
    pub fn with_failover_timeouts(mut self, base_ns: u64, max_ns: u64) -> Self {
        assert!(base_ns > 0 && base_ns <= max_ns, "need 0 < base <= max");
        self.failover_timeouts = (base_ns, max_ns);
        self
    }

    /// Injects randomized per-message delays (microsecond scale) so the
    /// network visibly reorders messages.
    pub fn with_artificial_delay(mut self, delay: DelayModel) -> Self {
        self.artificial_delay = Some(delay);
        self
    }

    /// Makes the network drop and/or duplicate messages with the given
    /// probabilities. The reliable link masks both.
    pub fn with_faults(mut self, drop_prob: f64, dup_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&drop_prob), "drop_prob in [0, 1)");
        assert!((0.0..=1.0).contains(&dup_prob), "dup_prob in [0, 1]");
        self.drop_prob = drop_prob;
        self.dup_prob = dup_prob;
        self
    }

    /// Overrides the reliable-link tuning (e.g. [`LinkConfig::sabotaged`]
    /// to study what the faults do to an unprotected stack). It takes
    /// effect only on a network with faults or delays.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }
}

/// The response of a completed m-operation.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The m-operation's identity.
    pub id: MOpId,
    /// Program outputs, in place up to [`moc_core::inline::INLINE`].
    pub outputs: InlineList<Value>,
    /// Protocol classification.
    pub treated_as: MOpClass,
    /// Invocation event (ns since cluster epoch).
    pub invoked_at: EventTime,
    /// Response event (ns since cluster epoch).
    pub responded_at: EventTime,
}

/// Everything a finished cluster leaves behind.
#[derive(Debug)]
pub struct RuntimeReport {
    /// The recorded, validated history.
    pub history: History,
    /// Per-replica message metrics.
    pub replica_metrics: Vec<moc_protocol::ReplicaMetrics>,
    /// Per-replica reliable-link transport counters.
    pub link_stats: Vec<moc_abcast::LinkStats>,
    /// Per-replica invocation-pipeline counters.
    pub pipeline: Vec<PipelineMetrics>,
    /// Per-replica broadcast group-commit counters (all zero unless the
    /// cluster ran with [`RuntimeConfig::with_batching`]).
    pub batch_stats: Vec<moc_abcast::BatchStats>,
}

impl RuntimeReport {
    /// Cluster-wide transport counters (sum over replicas).
    pub fn total_link_stats(&self) -> moc_abcast::LinkStats {
        let mut total = moc_abcast::LinkStats::default();
        for s in &self.link_stats {
            total.merge(s);
        }
        total
    }

    /// Cluster-wide pipeline counters (sums; peak depth is the max).
    pub fn total_pipeline(&self) -> PipelineMetrics {
        let mut total = PipelineMetrics::default();
        for p in &self.pipeline {
            total.merge(p);
        }
        total
    }

    /// Cluster-wide group-commit counters (sum over replicas).
    pub fn total_batch_stats(&self) -> moc_abcast::BatchStats {
        let mut total = moc_abcast::BatchStats::default();
        for b in &self.batch_stats {
            total.merge(b);
        }
        total
    }
}

/// Rejection returned by [`PipelinedSession::invoke`] once the online
/// sentinel has quarantined a process: the containment hook fail-stops
/// further traffic from the offending replica (mirroring the fixed
/// sequencer's halt-on-restart negative control) instead of letting a
/// detected inconsistency spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarantined {
    /// The process whose traffic is fenced off.
    pub process: ProcessId,
}

impl std::fmt::Display for Quarantined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "process {} is quarantined by the consistency sentinel",
            self.process
        )
    }
}

impl std::error::Error for Quarantined {}

/// A frame on its way from `from`, to be processed no earlier than
/// `deliver_at` (ns since the cluster epoch).
struct Frame<M> {
    deliver_at: u64,
    from: ProcessId,
    msg: M,
}

enum Input<M> {
    Net(Frame<M>),
    Invoke {
        program: Arc<Program>,
        args: Vec<Value>,
        reply: ReplyTo,
    },
    Shutdown,
}

/// Where an invocation's reply goes: its session's inbox.
type ReplyTo = Arc<Inbox<Reply>>;

/// Every replica's inbox, indexed by process.
type Inboxes<M> = Arc<[Inbox<Input<M>>]>;

/// A running cluster of `n` replica threads.
///
/// Every wire frame is a [`LinkMsg`], and the protocol state machines see
/// exactly-once, per-sender-FIFO channels: on a lossless network the
/// inboxes are such channels already (the trusted channel), and on one
/// configured to drop, duplicate or delay messages each thread's
/// [`ReplicaHost`] runs the [`moc_abcast::ReliableLink`] sublayer (see the
/// crate docs).
pub struct LiveCluster<R: ReplicaProtocol> {
    inboxes: Inboxes<LinkMsg<R::Msg>>,
    replica_handles: Vec<JoinHandle<ReplicaExit>>,
    invoke_locks: Vec<Mutex<()>>,
    /// Every replica's records, pushed as the replica answers them.
    log: Arc<Mutex<HistoryLog>>,
    num_objects: usize,
    /// Per-process containment flags, set by the sentinel thread when a
    /// violation latches. All-false without a monitor attached.
    quarantine: Arc<Vec<AtomicBool>>,
    monitor_feed: Option<Arc<Inbox<MonitorEvent>>>,
    monitor_handle: Option<JoinHandle<MonitorRunSummary>>,
}

struct ReplicaExit {
    metrics: moc_protocol::ReplicaMetrics,
    link_stats: moc_abcast::LinkStats,
    pipeline: PipelineMetrics,
    batch: moc_abcast::BatchStats,
}

impl<R> LiveCluster<R>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    /// Spawns `n` replica threads.
    pub fn start(n: usize, config: RuntimeConfig) -> Self {
        Self::start_inner(n, config, None)
    }

    /// Like [`LiveCluster::start`], but with an online consistency
    /// sentinel riding along: a dedicated monitor thread is fed every
    /// invocation and completion event from the replica threads, checks
    /// windows incrementally, and — on a latched violation — quarantines
    /// the culprit process: [`LiveCluster::quarantined`] reports it, and
    /// its further traffic is refused ([`PipelinedSession::invoke`]
    /// returns [`Quarantined`], [`LiveCluster::invoke`] panics).
    pub fn start_with_monitor(n: usize, config: RuntimeConfig, monitor: MonitorConfig) -> Self {
        Self::start_inner(n, config, Some(monitor))
    }

    fn start_inner(n: usize, config: RuntimeConfig, monitor: Option<MonitorConfig>) -> Self {
        assert!(n > 0, "need at least one process");
        let epoch = Instant::now();
        let inboxes: Inboxes<LinkMsg<R::Msg>> = (0..n).map(|_| Inbox::new()).collect();
        let quarantine: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        let log = Arc::new(Mutex::new(HistoryLog::new()));

        let (monitor_feed, monitor_handle) = match monitor {
            None => (None, None),
            Some(mcfg) => {
                let feed = Arc::new(Inbox::new());
                let events = Arc::clone(&feed);
                let flags = Arc::clone(&quarantine);
                let num_objects = config.num_objects;
                let handle = std::thread::Builder::new()
                    .name("sentinel".into())
                    .spawn(move || monitor_main(num_objects, mcfg, &events, flags))
                    .expect("spawn sentinel thread");
                (Some(feed), Some(handle))
            }
        };

        let replica_handles = (0..n)
            .map(|p| {
                let me = ProcessId::new(p as u32);
                let inboxes = Arc::clone(&inboxes);
                let sentinel = monitor_feed.clone();
                let log = Arc::clone(&log);
                let now = move || EventTime::from_nanos(epoch.elapsed().as_nanos() as u64);
                std::thread::Builder::new()
                    .name(format!("replica-{p}"))
                    .spawn(move || {
                        ReplicaDriver::<R, _>::new(me, config, now, inboxes, sentinel, log).run()
                    })
                    .expect("spawn replica thread")
            })
            .collect();

        LiveCluster {
            inboxes,
            replica_handles,
            invoke_locks: (0..n).map(|_| Mutex::new(())).collect(),
            log,
            num_objects: config.num_objects,
            quarantine,
            monitor_feed,
            monitor_handle,
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.inboxes.len()
    }

    /// Invokes `program(args)` as the next m-operation of `process`,
    /// blocking until its response event. Concurrent callers targeting the
    /// same process are serialized (processes are sequential threads of
    /// control in the model).
    ///
    /// # Panics
    ///
    /// Panics if the cluster is shutting down underneath the call, or if
    /// the sentinel has quarantined `process` (a [`PipelinedSession`]
    /// returns [`Quarantined`] instead).
    pub fn invoke(&self, process: ProcessId, program: Arc<Program>, args: Vec<Value>) -> Reply {
        self.try_invoke(process, program, args)
            .expect("process not quarantined")
    }

    /// Like [`LiveCluster::invoke`], but refuses — instead of panicking —
    /// when the online sentinel has quarantined `process` after latching
    /// a consistency violation it attributes to that replica.
    pub(crate) fn try_invoke(
        &self,
        process: ProcessId,
        program: Arc<Program>,
        args: Vec<Value>,
    ) -> Result<Reply, Quarantined> {
        let mut session = self.pipelined(process, 1);
        session.invoke(program, args)?;
        Ok(session.next_reply())
    }

    /// Opens a pipelined invocation session for `process`: up to `window`
    /// m-operations may be in flight before
    /// [`PipelinedSession::invoke`] blocks. The session holds the
    /// process's invocation lock, so it is the process's sole thread of
    /// control until dropped; the replica preserves program order and
    /// read-your-writes (a query drains the pipeline before running).
    pub fn pipelined(&self, process: ProcessId, window: usize) -> PipelinedSession<'_, R> {
        assert!(window >= 1, "window must be at least 1");
        let guard = self.invoke_locks[process.index()].lock();
        PipelinedSession {
            cluster: self,
            process,
            window,
            replies: Arc::new(Inbox::new()),
            taken: Vec::new(),
            outstanding: 0,
            _guard: guard,
        }
    }

    /// Whether the sentinel has fenced off `process` (always `false`
    /// without a monitor attached).
    pub fn quarantined(&self, process: ProcessId) -> bool {
        self.quarantine[process.index()].load(Ordering::SeqCst)
    }

    /// Stops the cluster: flushes in-flight messages, joins all threads and
    /// finishes the recorded history.
    ///
    /// The history's [`History::records`] are in the order the replicas
    /// answered them: each replica pushes what it retired into one shared
    /// [`HistoryLog`] just before it replies, so every process's records
    /// ascend and the processes interleave. The log indexed each record as it came;
    /// shutdown only builds the object tables and validates.
    pub fn shutdown(self) -> RuntimeReport {
        self.shutdown_with_monitor().0
    }

    /// Like [`LiveCluster::shutdown`], additionally returning the
    /// sentinel's run summary — rolling certificates, verdict timeline,
    /// any latched violation — when the cluster was started with
    /// [`LiveCluster::start_with_monitor`] (`None` otherwise).
    pub(crate) fn shutdown_with_monitor(mut self) -> (RuntimeReport, Option<MonitorRunSummary>) {
        // Each replica delivers the frames it still holds back, then
        // closes its inbox and exits; a send to it after that fails.
        self.stop_replicas();
        let mut replica_metrics = Vec::new();
        let mut link_stats = Vec::new();
        let mut pipeline = Vec::new();
        let mut batch_stats = Vec::new();
        for h in std::mem::take(&mut self.replica_handles) {
            let exit = h.join().expect("replica thread panicked");
            replica_metrics.push(exit.metrics);
            link_stats.push(exit.link_stats);
            pipeline.push(exit.pipeline);
            batch_stats.push(exit.batch);
        }
        // The replicas are joined: nothing pushes any more.
        let log = std::mem::take(&mut *self.log.lock());
        self.close_monitor_feed();
        let monitor = self
            .monitor_handle
            .take()
            .map(|h| h.join().expect("sentinel thread panicked"));
        let history = log
            .finish(self.num_objects)
            .expect("runtime produced an invalid history");
        (
            RuntimeReport {
                history,
                replica_metrics,
                link_stats,
                pipeline,
                batch_stats,
            },
            monitor,
        )
    }
}

impl<R: ReplicaProtocol> LiveCluster<R> {
    /// Tells every replica thread to exit. `Shutdown` travels in-band,
    /// behind whatever its inbox already holds.
    fn stop_replicas(&self) {
        for inbox in self.inboxes.iter() {
            let _ = inbox.send(Input::Shutdown);
        }
    }

    /// Once the replicas are joined nothing feeds the sentinel any more:
    /// closing its feed lets it take what is left, flush and exit.
    fn close_monitor_feed(&self) {
        if let Some(feed) = &self.monitor_feed {
            feed.close();
        }
    }
}

impl<R: ReplicaProtocol> Drop for LiveCluster<R> {
    /// A cluster dropped without [`LiveCluster::shutdown`] stops and joins
    /// its threads all the same (after `shutdown` there are none left).
    fn drop(&mut self) {
        self.stop_replicas();
        for h in self.replica_handles.drain(..) {
            let _ = h.join();
        }
        self.close_monitor_feed();
        if let Some(h) = self.monitor_handle.take() {
            let _ = h.join();
        }
    }
}

/// A window of in-flight invocations for one process, created by
/// [`LiveCluster::pipelined`]. Replaces the one-at-a-time blocking
/// [`LiveCluster::invoke`] discipline with a bounded pipeline: new
/// invocations are sent without waiting for earlier replies until
/// `window` are outstanding, then each further invocation retires (and
/// returns) the oldest reply first.
///
/// Replies always come back in invocation order (the replica retires
/// strictly FIFO), so one reply inbox serves the whole session.
/// Dropping the session drains any outstanding replies, so no invocation
/// is abandoned, and then closes the inbox: a reply sent after that is
/// counted dropped.
pub struct PipelinedSession<'a, R: ReplicaProtocol> {
    cluster: &'a LiveCluster<R>,
    process: ProcessId,
    window: usize,
    /// Every invocation of the session carries a handle to this inbox.
    replies: ReplyTo,
    /// What the last take swapped out of `replies`, newest first: handed
    /// out one at a time from the back.
    taken: Vec<Reply>,
    /// Invocations sent whose reply has not been handed out.
    outstanding: usize,
    _guard: parking_lot::MutexGuard<'a, ()>,
}

impl<R> PipelinedSession<'_, R>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    /// Sends `program(args)` as the process's next m-operation without
    /// waiting for its reply. If the window was full, first blocks for —
    /// and returns — the oldest outstanding reply. Refuses (leaving the
    /// pipeline intact) once the sentinel has quarantined the process.
    pub fn invoke(
        &mut self,
        program: Arc<Program>,
        args: Vec<Value>,
    ) -> Result<Option<Reply>, Quarantined> {
        if self.cluster.quarantined(self.process) {
            return Err(Quarantined {
                process: self.process,
            });
        }
        let retired = (self.outstanding >= self.window).then(|| self.next_reply());
        let invoke = Input::Invoke {
            program,
            args,
            reply: Arc::clone(&self.replies),
        };
        let sent = self.cluster.inboxes[self.process.index()].send(invoke);
        assert!(sent.is_ok(), "the replica thread has exited");
        self.outstanding += 1;
        Ok(retired)
    }

    /// Number of invocations currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// Blocks for every outstanding reply, in invocation order.
    pub fn drain(&mut self) -> Vec<Reply> {
        (0..self.outstanding).map(|_| self.next_reply()).collect()
    }
}

impl<R: ReplicaProtocol> PipelinedSession<'_, R> {
    /// Blocks for the oldest outstanding reply. The replica answers every
    /// invocation, in order, and the inbox stays open while the session
    /// lives.
    fn next_reply(&mut self) -> Reply {
        self.outstanding -= 1;
        loop {
            if let Some(reply) = self.taken.pop() {
                return reply;
            }
            self.replies.take(&mut self.taken, None);
            self.taken.reverse();
        }
    }
}

impl<R: ReplicaProtocol> Drop for PipelinedSession<'_, R> {
    fn drop(&mut self) {
        while self.outstanding > 0 {
            self.next_reply();
        }
        self.replies.close();
    }
}

/// The sentinel thread: drains the event stream into an
/// [`OnlineMonitor`], and sets the containment flag of the culprit
/// process (all processes when the violation has no attributable
/// culprit) the moment a violation latches. Exits — flushing a final
/// window — once its feed is closed and taken empty.
fn monitor_main(
    num_objects: usize,
    cfg: MonitorConfig,
    feed: &Inbox<MonitorEvent>,
    quarantine: Arc<Vec<AtomicBool>>,
) -> MonitorRunSummary {
    let mut mon = OnlineMonitor::new(num_objects, cfg);
    let mut last_ns = 0u64;
    let mut contained = false;
    let mut events = Vec::new();
    loop {
        let open = feed.take(&mut events, None);
        for ev in events.drain(..) {
            last_ns = last_ns.max(ev.at_ns());
            ev.apply(&mut mon);
            if contained {
                continue;
            }
            if let Some(v) = mon.violation() {
                contained = true;
                match v.culprit {
                    Some(p) if p.index() < quarantine.len() => fence(&quarantine[p.index()]),
                    _ => quarantine.iter().for_each(fence),
                }
            }
        }
        if !open {
            break;
        }
    }
    mon.flush(last_ns + 1);
    mon.into_summary()
}

fn fence(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
}

/// A replica's sending side of the network: the fate of a frame between
/// this process and the destination's inbox. Mirrors the simulator's
/// [`moc_sim::FaultPlan`] probabilities (partition and crash schedules
/// stay simulator-only, where virtual time makes them reproducible).
struct Outlet {
    me: ProcessId,
    config: RuntimeConfig,
    delay_rng: StdRng,
    /// Fault decisions draw from their own stream so turning them on
    /// does not perturb the delay sampler.
    fault_rng: StdRng,
}

impl Outlet {
    fn new(me: ProcessId, config: RuntimeConfig) -> Self {
        let stream = config.seed ^ ((u64::from(me.as_u32()) + 1) << 32);
        Outlet {
            me,
            config,
            delay_rng: StdRng::seed_from_u64(stream),
            fault_rng: StdRng::seed_from_u64(stream ^ FAULT_SEED_SALT),
        }
    }

    /// How many copies of a frame to `to` arrive: none when the network
    /// drops it, two when it duplicates it. Loopback is a process talking
    /// to itself: exempt from faults, exactly as in the simulator.
    fn copies(&mut self, to: ProcessId) -> usize {
        if to == self.me {
            1
        } else if self.fault_rng.gen_bool(self.config.drop_prob) {
            0
        } else {
            1 + usize::from(self.fault_rng.gen_bool(self.config.dup_prob))
        }
    }

    /// When a copy sent now may be delivered: at once, or after a sampled
    /// delay.
    fn deliver_at(&mut self, now: &impl Fn() -> EventTime) -> u64 {
        let model = self.config.artificial_delay;
        model.map_or(0, |m| now().as_nanos() + m.sample(&mut self.delay_rng))
    }
}

/// Frames a replica received (or sent itself) ahead of their delivery
/// time, ordered by deadline; arrival order breaks ties FIFO.
struct HoldQueue<M> {
    held: BTreeMap<(u64, u64), Frame<M>>,
    arrivals: u64,
}

impl<M> HoldQueue<M> {
    fn new() -> Self {
        HoldQueue {
            held: BTreeMap::new(),
            arrivals: 0,
        }
    }

    fn push(&mut self, frame: Frame<M>) {
        self.held.insert((frame.deliver_at, self.arrivals), frame);
        self.arrivals += 1;
    }

    /// The earliest delivery time held.
    fn next_deadline(&self) -> Option<u64> {
        self.held.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Releases the head if it is due at `now`.
    fn pop_due(&mut self, now: u64) -> Option<Frame<M>> {
        let head = self.held.first_entry()?;
        (head.key().0 <= now).then(|| head.remove())
    }
}

/// Most rounds of its own frames a wake-up feeds a replica after the
/// settle. A round feeds what the last flush sent the replica itself,
/// then settles and flushes again. The sequencer needs two rounds to stamp
/// and apply its own client's update (submit, then the ordered frame);
/// the bound keeps a protocol that keeps talking to itself from starving
/// the inbox. What is left goes through the hold queue to the next
/// wake-up.
const LOOPBACK_ROUNDS: usize = 4;

/// The thread driver of the shared replica host: supplies the clock (ns
/// since the cluster epoch), the peers' inboxes as the wire, each
/// invocation's reply inbox as its token, and the sentinel's feed. The
/// host — and with it the replica — lives and dies on this thread.
///
/// The driver works per *wake-up*, not per message: whatever arrived while
/// the thread was busy is the batch ([`ReplicaDriver::wake_up`]), taken in
/// one lock, and the batch is settled, acknowledged and answered once.
struct ReplicaDriver<R: ReplicaProtocol, C> {
    me: ProcessId,
    host: ReplicaHost<R, ReplyTo>,
    outlet: Outlet,
    hold: HoldQueue<LinkMsg<R::Msg>>,
    /// What the last flush sent the replica itself, in send order, when
    /// the network delays nothing: fed back in the same wake-up.
    loopback: Vec<LinkMsg<R::Msg>>,
    /// Every replica's inbox, this one's at `me`: the wire.
    inboxes: Inboxes<LinkMsg<R::Msg>>,
    /// What the last take swapped out of the inbox. Empty between
    /// wake-ups; it keeps its capacity from one to the next.
    batch: Vec<Input<LinkMsg<R::Msg>>>,
    sentinel: Option<Arc<Inbox<MonitorEvent>>>,
    /// The cluster's history, shared by every replica thread.
    log: Arc<Mutex<HistoryLog>>,
    /// One flush's replies, held while their records are logged.
    answers: Vec<(ReplyTo, Reply)>,
    dropped_replies: u64,
    now: C,
}

impl<R: ReplicaProtocol, C: Fn() -> EventTime> ReplicaDriver<R, C> {
    fn new(
        me: ProcessId,
        config: RuntimeConfig,
        now: C,
        inboxes: Inboxes<LinkMsg<R::Msg>>,
        sentinel: Option<Arc<Inbox<MonitorEvent>>>,
        log: Arc<Mutex<HistoryLog>>,
    ) -> Self {
        let setup = OrderingSetup {
            failover_timeouts: Some(config.failover_timeouts),
            batching: config.batching,
            ..OrderingSetup::default()
        };
        // Only a network that can lose, duplicate or delay (and so
        // reorder) frames needs the link; see the crate docs.
        let faulty =
            config.drop_prob > 0.0 || config.dup_prob > 0.0 || config.artificial_delay.is_some();
        ReplicaDriver {
            me,
            host: ReplicaHost::new(
                me,
                inboxes.len(),
                config.num_objects,
                faulty.then_some(config.link),
                &setup,
                sentinel.is_some(),
            ),
            outlet: Outlet::new(me, config),
            hold: HoldQueue::new(),
            loopback: Vec::new(),
            inboxes,
            batch: Vec::new(),
            sentinel,
            log,
            answers: Vec::new(),
            dropped_replies: 0,
            now,
        }
    }

    /// Wakes up when an input arrives or the earliest pending deadline — a
    /// held frame, link retransmission, failover suspicion, or a
    /// group-commit flush — comes due, whichever first, until `Shutdown`.
    fn run(mut self) -> ReplicaExit {
        loop {
            let at = (self.now)().as_nanos();
            let deadlines = [self.host.next_deadline(), self.hold.next_deadline()];
            let deadline = deadlines.into_iter().flatten().min();
            let wait = deadline.map(|d| Duration::from_nanos(d.saturating_sub(at)));
            if self.wake_up(wait).is_break() {
                break;
            }
        }
        self.exit()
    }

    /// One turn of the crank: waits up to `wait` (`None`: until an input
    /// comes) and takes everything in the inbox in one lock, feeds the
    /// host every held frame that is due and then those inputs, in the
    /// order they came, ticks if a deadline is due, and only then settles
    /// and sends — once — before it loops back the replica's frames to
    /// itself ([`ReplicaDriver::loop_back`]). Breaks, without settling, on
    /// `Shutdown`; what came after it is dropped.
    ///
    /// The tick does not wait for an idle inbox: under load the inbox is
    /// never empty when a wake-up looks. It follows the inputs so that an
    /// acknowledgement already in the inbox disarms the retransmission it
    /// would set off.
    fn wake_up(&mut self, wait: Option<Duration>) -> ControlFlow<()> {
        self.inboxes[self.me.index()].take(&mut self.batch, wait);
        let mut at = (self.now)();
        while let Some(frame) = self.hold.pop_due(at.as_nanos()) {
            self.host.on_wire(frame.from, frame.msg, at);
        }
        for input in self.batch.drain(..) {
            // Read per input: an invocation is stamped after it was sent.
            at = (self.now)();
            match input {
                Input::Net(frame) if frame.deliver_at > at.as_nanos() => self.hold.push(frame),
                Input::Net(frame) => self.host.on_wire(frame.from, frame.msg, at),
                Input::Invoke {
                    program,
                    args,
                    reply,
                } => self.host.submit(program, args, reply, at),
                Input::Shutdown => return ControlFlow::Break(()),
            }
        }
        if self
            .host
            .next_deadline()
            .is_some_and(|d| d <= at.as_nanos())
        {
            self.host.on_tick(at);
        }
        self.host.settle(&self.now);
        self.flush();
        self.loop_back();
        ControlFlow::Continue(())
    }

    /// Feeds the replica the frames it just sent itself, in send order,
    /// and settles and flushes once per round, for at most
    /// [`LOOPBACK_ROUNDS`] rounds. Frames still left are held, due at
    /// once, for the next wake-up, which feeds them before its inputs.
    fn loop_back(&mut self) {
        for _ in 0..LOOPBACK_ROUNDS {
            if self.loopback.is_empty() {
                return;
            }
            let at = (self.now)();
            for msg in self.loopback.drain(..) {
                self.host.on_wire(self.me, msg, at);
            }
            self.host.settle(&self.now);
            self.flush();
        }
        for msg in self.loopback.drain(..) {
            self.hold.push(Frame {
                deliver_at: 0,
                from: self.me,
                msg,
            });
        }
    }

    /// Hands on what a settle left in the host's three queues: sentinel
    /// observations, replies (and their records), frames. The records
    /// enter the shared log under one lock, and only then do their replies
    /// go out: a client never holds a reply whose record is not logged.
    /// Frames to the replica itself wait in `loopback` when the network
    /// delays nothing, and in the hold queue otherwise.
    fn flush(&mut self) {
        if let Some(tx) = &self.sentinel {
            for ev in self.host.monitor_feed.drain(..) {
                let _ = tx.send(ev);
            }
        }
        if !self.host.retired.is_empty() {
            let mut log = self.log.lock();
            for r in self.host.retired.drain(..) {
                let reply = Reply {
                    id: r.record.id,
                    outputs: r.record.outputs.clone(),
                    treated_as: r.record.treated_as,
                    invoked_at: r.invoked_at,
                    responded_at: r.responded_at,
                };
                log.push(r.record);
                self.answers.push((r.token, reply));
            }
        }
        for (token, reply) in self.answers.drain(..) {
            if token.send(reply).is_err() {
                self.dropped_replies += 1;
            }
        }
        let immediate = self.outlet.config.artificial_delay.is_none();
        for (to, msg) in self.host.wire.drain(..) {
            if to == self.me && immediate {
                self.loopback.push(msg);
                continue;
            }
            let copies = self.outlet.copies(to);
            let mut deliver = |msg| {
                let frame = Frame {
                    deliver_at: self.outlet.deliver_at(&self.now),
                    from: self.me,
                    msg,
                };
                if to == self.me {
                    self.hold.push(frame);
                } else {
                    // A peer that has shut down has no waiting client, so
                    // a frame it no longer takes is safe to lose.
                    let _ = self.inboxes[to.index()].send(Input::Net(frame));
                }
            };
            // Duplication is the only path that clones the payload; the
            // primary copy moves.
            if copies == 2 {
                deliver(msg.clone());
            }
            if copies >= 1 {
                deliver(msg);
            }
        }
    }

    /// No client is waiting any more: the inbox closes, so a later send to
    /// it fails. What is still held is delivered, in deadline order, so the
    /// counters account for every frame that got here; nothing it sets off
    /// is sent.
    fn exit(mut self) -> ReplicaExit {
        self.inboxes[self.me.index()].close();
        while let Some(frame) = self.hold.pop_due(u64::MAX) {
            self.host.on_wire(frame.from, frame.msg, (self.now)());
        }
        let replica = self.host.replica();
        ReplicaExit {
            metrics: replica.metrics(),
            link_stats: self.host.link_stats(),
            pipeline: PipelineMetrics {
                dropped_replies: self.dropped_replies,
                ..self.host.metrics()
            },
            batch: replica.batch_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_abcast::IsisAbcast;
    use moc_checker::conditions::{check, Condition, Strategy};
    use moc_core::ids::ObjectId;
    use moc_core::mop::MOpRecord;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_protocol::{MOperation, MlinOverSequencer, MscOverSequencer, MscReplica};

    fn wx(val: i64) -> Arc<Program> {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), imm(val)).ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn rx() -> Arc<Program> {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    fn inc() -> Arc<Program> {
        let mut b = ProgramBuilder::new("inc");
        b.read(ObjectId::new(0), 0)
            .add(0, reg(0), imm(1))
            .write(ObjectId::new(0), reg(0))
            .ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    fn p(index: u32) -> ProcessId {
        ProcessId::new(index)
    }

    /// How long a live-cluster test may run before [`watchdog`] fails it.
    /// Each takes well under a second; the bound leaves room for a loaded
    /// machine or a sanitizer build.
    const LIVE_TEST_BOUND: Duration = Duration::from_secs(120);

    /// Runs a live-cluster test's body on a thread of its own and fails
    /// the test, by name, if the body has not returned within
    /// [`LIVE_TEST_BOUND`]. A replica that never answers leaves its client
    /// in a receive that has no timeout; without the bound the test binary
    /// would hang until its CI job is killed, and no test would be named.
    /// A panic in the body is the test's own failure and is passed on.
    fn watchdog(name: &str, body: impl FnOnce() + Send + 'static) {
        /// Closes the inbox when the body returns or unwinds.
        struct Finished(Arc<Inbox<()>>);
        impl Drop for Finished {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let done = Arc::new(Inbox::new());
        let finished = Finished(Arc::clone(&done));
        let runner = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let _finished = finished;
                body();
            })
            .expect("spawn the test body");
        if done.take(&mut Vec::new(), Some(LIVE_TEST_BOUND)) {
            panic!("{name} did not finish within {LIVE_TEST_BOUND:?}: a replica never answered");
        }
        // The body returned, or panicked.
        if let Err(panic) = runner.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// The hold queue on a clock the test turns by hand.
    #[test]
    fn hold_queue_releases_in_deadline_order_and_never_early() {
        let mut hold = HoldQueue::new();
        for (deliver_at, msg) in [(300, 'c'), (100, 'a'), (200, 'b'), (200, 'd')] {
            let from = p(0);
            hold.push(Frame {
                deliver_at,
                from,
                msg,
            });
        }
        let mut pop = |now| hold.pop_due(now).map(|frame| frame.msg);
        assert_eq!(pop(99), None, "nothing is released early");
        assert_eq!(pop(100), Some('a'));
        assert_eq!(pop(199), None);
        assert_eq!(pop(250), Some('b'), "equal deadlines: FIFO");
        assert_eq!(pop(250), Some('d'));
        assert_eq!(pop(250), None);
        assert_eq!(hold.next_deadline(), Some(300));
        // A later arrival with an earlier deadline overtakes; the shutdown
        // flush (everything is due) releases what is left, in order.
        hold.push(Frame {
            deliver_at: 50,
            from: p(1),
            msg: 'e',
        });
        let flushed: Vec<_> = std::iter::from_fn(|| hold.pop_due(u64::MAX))
            .map(|frame| (frame.from, frame.msg))
            .collect();
        assert_eq!(flushed, [(p(1), 'e'), (p(0), 'c')]);
        assert_eq!(hold.next_deadline(), None);
    }

    fn delayed() -> RuntimeConfig {
        RuntimeConfig::new(1).with_artificial_delay(DelayModel::Uniform {
            lo: 1_000,
            hi: 100_000,
        })
    }

    #[test]
    fn fault_decisions_follow_from_seed_and_sender() {
        let fates = |seed: u64, sender: u32| {
            let config = RuntimeConfig {
                seed,
                ..delayed().with_faults(0.3, 0.3)
            };
            let mut outlet = Outlet::new(p(sender), config);
            (0..200).map(|_| outlet.copies(p(9))).collect::<Vec<_>>()
        };
        assert_eq!(fates(7, 0), fates(7, 0));
        assert_ne!(fates(7, 0), fates(7, 1), "each sender has its own stream");
        assert_ne!(fates(7, 0), fates(8, 0));
        for copies in 0..=2 {
            assert!(fates(7, 0).contains(&copies), "{copies} copies never seen");
        }
    }

    #[test]
    fn loopback_is_never_dropped_or_duplicated() {
        let config = RuntimeConfig::new(1).with_faults(0.9, 1.0);
        let mut outlet = Outlet::new(p(1), config);
        let mut undisturbed = Outlet::new(p(1), config);
        for _ in 0..200 {
            assert_eq!(outlet.copies(p(1)), 1);
            // Nor does it draw from the fault stream.
            assert_eq!(outlet.copies(p(0)), undisturbed.copies(p(0)));
        }
    }

    #[test]
    fn turning_faults_on_does_not_shift_the_delay_stream() {
        let delays = |config: RuntimeConfig| {
            let mut outlet = Outlet::new(p(1), config);
            (0..200)
                .map(|_| {
                    outlet.copies(p(0));
                    outlet.deliver_at(&|| EventTime::from_nanos(7))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(delays(delayed()), delays(delayed().with_faults(0.3, 0.3)));
        assert!(delays(delayed()).iter().all(|&at| at >= 7 + 1_000));
        assert!(delays(RuntimeConfig::new(1)).iter().all(|&at| at == 0));
    }

    type Msc = MscOverSequencer;
    type Wire = LinkMsg<<Msc as ReplicaProtocol>::Msg>;

    /// One replica of three with no thread under it: the test turns the
    /// clock, fills its inbox and takes what it sends from every peer's.
    struct ByHand {
        driver: ReplicaDriver<Msc, Box<dyn Fn() -> EventTime>>,
        clock: std::rc::Rc<std::cell::Cell<u64>>,
        me: usize,
        /// The replica's inbox and its peers'. Frames to itself never
        /// enter its own.
        inboxes: Inboxes<Wire>,
        /// The log the replica pushes its records into.
        log: Arc<Mutex<HistoryLog>>,
    }

    /// A network that may delay frames (here by nothing), so the replicas
    /// keep the link, and the clock the test turns stays the only clock.
    fn linked() -> RuntimeConfig {
        RuntimeConfig::new(1).with_artificial_delay(DelayModel::Fixed(0))
    }

    impl ByHand {
        fn new(me: u32, config: RuntimeConfig) -> Self {
            let inboxes: Inboxes<Wire> = (0..3).map(|_| Inbox::new()).collect();
            let clock = std::rc::Rc::new(std::cell::Cell::new(1_000));
            let hand = std::rc::Rc::clone(&clock);
            let now: Box<dyn Fn() -> EventTime> =
                Box::new(move || EventTime::from_nanos(hand.get()));
            let log = Arc::new(Mutex::new(HistoryLog::new()));
            let shared = Arc::clone(&log);
            let wire = Arc::clone(&inboxes);
            ByHand {
                driver: ReplicaDriver::new(p(me), config, now, wire, None, shared),
                clock,
                me: me as usize,
                inboxes,
                log,
            }
        }

        /// Puts `input` into the replica's inbox.
        fn send(&self, input: Input<Wire>) {
            assert!(
                self.inboxes[self.me].send(input).is_ok(),
                "the inbox is open"
            );
        }

        fn invoke(&self, program: Arc<Program>, reply: &ReplyTo) {
            let reply = Arc::clone(reply);
            let args = vec![];
            self.send(Input::Invoke {
                program,
                args,
                reply,
            });
        }

        /// A wake-up that finds whatever the test put in the inbox.
        fn wake_up(&mut self) -> ControlFlow<()> {
            self.driver.wake_up(Some(Duration::ZERO))
        }

        /// Everything the replica has sent `to` so far.
        fn sent(&self, to: u32) -> Vec<Wire> {
            assert_ne!(
                to as usize, self.me,
                "frames to itself never leave the thread"
            );
            let mut taken = Vec::new();
            self.inboxes[to as usize].take(&mut taken, Some(Duration::ZERO));
            taken
                .into_iter()
                .map(|input| match input {
                    Input::Net(frame) => frame.msg,
                    _ => panic!("replicas only send each other frames"),
                })
                .collect()
        }
    }

    fn reply_inbox() -> ReplyTo {
        Arc::new(Inbox::new())
    }

    /// The first `count` frames `from` sends the sequencer when its client
    /// pipelines `count` updates: one `Submit` each, behind `link` or on
    /// the trusted channel.
    fn submits(from: u32, count: usize, link: Option<LinkConfig>) -> Vec<Wire> {
        let setup = OrderingSetup::default();
        let mut host: ReplicaHost<Msc, ()> = ReplicaHost::new(p(from), 3, 1, link, &setup, false);
        for i in 0..count {
            host.submit(wx(i as i64), vec![], (), EventTime::ZERO);
        }
        host.settle(&|| EventTime::ZERO);
        assert_eq!(host.wire.len(), count);
        host.wire.drain(..).map(|(_, frame)| frame).collect()
    }

    fn acks(frames: &[Wire]) -> Vec<u64> {
        frames
            .iter()
            .filter_map(|m| match m {
                LinkMsg::Ack { upto } => Some(*upto),
                _ => None,
            })
            .collect()
    }

    /// The stream positions the data frames carry, in frame order.
    fn data_seqs(frames: &[Wire]) -> Vec<u64> {
        frames
            .iter()
            .flat_map(|m| match m {
                LinkMsg::Data { seq, .. } => *seq..*seq + 1,
                LinkMsg::Run {
                    first_seq,
                    payloads,
                } => *first_seq..*first_seq + payloads.len() as u64,
                _ => 0..0,
            })
            .collect()
    }

    /// The sequencer wakes up to five queries of its own client and five
    /// submissions from each follower, interleaved. One wake-up takes them
    /// all, settles once, and so answers the queries in order, stamps the
    /// ten updates and acknowledges each follower once. Nothing batches, so
    /// every stamp goes out in a frame of its own.
    /// The sequencer's inbox for [`one_wake_up_settles_the_whole_inbox_once`]
    /// and its trusted twin: `k` queries of its own client and `k`
    /// submissions from each follower, interleaved, framed for `link`.
    /// Returns the reply inbox.
    fn fill_sequencer_inbox(hand: &ByHand, k: usize, link: Option<LinkConfig>) -> ReplyTo {
        let replies = reply_inbox();
        let mut from_p1 = submits(1, k, link).into_iter();
        let mut from_p2 = submits(2, k, link).into_iter();
        for _ in 0..k {
            hand.invoke(rx(), &replies);
            for (from, frames) in [(1, &mut from_p1), (2, &mut from_p2)] {
                hand.send(Input::Net(Frame {
                    deliver_at: 0,
                    from: p(from),
                    msg: frames.next().expect("k frames"),
                }));
            }
        }
        replies
    }

    /// The replies waiting in `replies`, by sequence number.
    fn reply_seqs(replies: &ReplyTo) -> Vec<u32> {
        let mut taken = Vec::new();
        replies.take(&mut taken, Some(Duration::ZERO));
        taken.iter().map(|r| r.id.seq).collect()
    }

    #[test]
    fn one_wake_up_settles_the_whole_inbox_once() {
        const K: usize = 5;
        let mut hand = ByHand::new(0, linked());
        let replies = fill_sequencer_inbox(&hand, K, Some(LinkConfig::default()));
        assert!(hand.wake_up().is_continue());

        let seqs = reply_seqs(&replies);
        assert_eq!(seqs, [0, 1, 2, 3, 4], "replies in invocation order");
        let stamped: Vec<u64> = (0..2 * K as u64).collect();
        for follower in [1, 2] {
            let sent = hand.sent(follower);
            assert_eq!(acks(&sent), [K as u64], "one cumulative ack per peer");
            assert_eq!(
                data_seqs(&sent),
                stamped,
                "every stamp fanned out, in order"
            );
            assert_eq!(sent.len(), 1 + 2 * K, "unbatched, one frame per stamp");
        }
        let link = hand.driver.host.link_stats();
        assert_eq!((link.data_received, link.acks_sent), (2 * K as u64, 2));

        // Its own copies of the ordered frames never left the thread: they
        // are the next wake-up's, which acknowledges them — to itself — once.
        assert!(hand.wake_up().is_continue());
        assert_eq!(hand.driver.host.link_stats().acks_sent, 3);
        let metrics = hand.driver.host.replica().metrics();
        assert_eq!(metrics.updates_applied, 2 * K as u64);
        assert_eq!(hand.log.lock().len(), K);
    }

    /// The same wake-up on a lossless network, where the replicas run the
    /// trusted channel: the same replies and stamps, but no
    /// acknowledgement, each stamp still in a frame of its own, every data
    /// frame counted, and no timer to arm. Its own copies of the ordered
    /// frames are fed back and applied in the same wake-up.
    #[test]
    fn one_trusted_wake_up_sends_no_ack() {
        const K: usize = 5;
        let mut hand = ByHand::new(0, RuntimeConfig::new(1));
        let replies = fill_sequencer_inbox(&hand, K, None);
        assert!(hand.wake_up().is_continue());

        assert_eq!(reply_seqs(&replies), [0, 1, 2, 3, 4]);
        for follower in [1, 2] {
            let sent = hand.sent(follower);
            assert!(acks(&sent).is_empty(), "nothing to acknowledge");
            assert_eq!(
                data_seqs(&sent),
                [0; 2 * K],
                "unnumbered, one frame per stamp"
            );
        }
        // Two followers and itself hear of every stamp, and it received
        // its own copies too.
        let link = hand.driver.host.link_stats();
        assert_eq!(
            (link.data_received, link.data_sent, link.acks_sent),
            (4 * K as u64, 3 * 2 * K as u64, 0)
        );
        assert_eq!(link.delivered, link.data_received);
        assert_eq!(hand.driver.host.next_deadline(), None, "no timer armed");
        assert_eq!(hand.driver.hold.next_deadline(), None, "nothing held");
        let metrics = hand.driver.host.replica().metrics();
        assert_eq!(metrics.updates_applied, 2 * K as u64);
        assert_eq!(hand.log.lock().len(), K);
    }

    /// On the trusted channel the sequencer's own client waits for no
    /// second wake-up: the one that takes its update submits it to itself,
    /// stamps it, applies its own ordered copy and answers, while the
    /// followers get the stamp.
    #[test]
    fn the_sequencers_own_update_is_answered_in_one_wake_up() {
        let mut hand = ByHand::new(0, RuntimeConfig::new(1));
        let replies = reply_inbox();
        hand.invoke(wx(7), &replies);
        assert!(hand.wake_up().is_continue());

        assert_eq!(reply_seqs(&replies), [0], "answered in the same wake-up");
        assert_eq!(hand.driver.host.replica().metrics().updates_applied, 1);
        assert_eq!(hand.log.lock().len(), 1);
        for follower in [1, 2] {
            assert_eq!(data_seqs(&hand.sent(follower)), [0], "the stamp");
        }
        // The submission and the ordered copy to itself, and nothing held.
        let link = hand.driver.host.link_stats();
        assert_eq!((link.data_sent, link.data_received), (4, 2));
        assert_eq!(hand.driver.hold.next_deadline(), None);
    }

    /// A client that alternates updates and queries at the sequencer sets
    /// off a round of frames to itself after each round: the second
    /// update is admitted only once the first is answered, the third only
    /// once the second is. One wake-up feeds four rounds; the submission
    /// the fourth sets off waits in the hold queue, due at once, and the
    /// next wake-up takes it first.
    #[test]
    fn loopback_rounds_are_bounded_and_the_rest_is_held() {
        let mut hand = ByHand::new(0, RuntimeConfig::new(1));
        let replies = reply_inbox();
        for k in 0..5 {
            let program = if k % 2 == 0 { wx(k) } else { rx() };
            hand.invoke(program, &replies);
        }
        assert!(hand.wake_up().is_continue());
        assert_eq!(reply_seqs(&replies), [0, 1, 2, 3]);
        assert_eq!(hand.driver.hold.next_deadline(), Some(0), "one left");

        assert!(hand.wake_up().is_continue());
        assert_eq!(reply_seqs(&replies), [4]);
        assert_eq!(hand.driver.hold.next_deadline(), None);
        assert_eq!(hand.driver.host.replica().metrics().updates_applied, 3);
    }

    /// The frame gate, on a batching stack: a follower that settles once
    /// after admitting eight pipelined updates sends the sequencer one data
    /// frame, a run of eight `Submit`s. The sequencer takes two such runs
    /// in one settle and answers with one cumulative ack and, its batch
    /// full, one frame per peer.
    #[test]
    fn one_settle_sends_the_sequencer_one_frame() {
        const K: usize = 16;
        let setup = OrderingSetup {
            batching: Some(moc_abcast::BatchConfig {
                max_batch: K,
                max_delay_ns: 100_000,
            }),
            ..OrderingSetup::default()
        };
        let host = |me| -> ReplicaHost<Msc, ()> {
            ReplicaHost::new(p(me), 3, 1, Some(LinkConfig::default()), &setup, false)
        };
        let mut follower = host(1);
        let mut runs = Vec::new();
        for first in [0, K / 2] {
            for i in first..first + K / 2 {
                follower.submit(wx(i as i64), vec![], (), EventTime::ZERO);
            }
            follower.settle(&|| EventTime::ZERO);
            let (to, frame) = follower.wire.pop().expect("a frame");
            assert!(follower.wire.is_empty(), "one frame per settle");
            assert_eq!(to, p(0));
            assert!(
                matches!(&frame, LinkMsg::Run { first_seq, payloads }
                    if *first_seq == first as u64 && payloads.len() == K / 2),
                "a run of the settle's submissions: {frame:?}"
            );
            runs.push(frame);
        }
        assert_eq!(follower.link_stats().data_sent, 2);

        let mut sequencer = host(0);
        for frame in runs {
            sequencer.on_wire(p(1), frame, EventTime::ZERO);
        }
        sequencer.settle(&|| EventTime::ZERO);
        let (to, frames): (Vec<u32>, Vec<Wire>) = sequencer
            .wire
            .drain(..)
            .map(|(to, frame)| (to.as_u32(), frame))
            .unzip();
        assert_eq!(to, [1, 0, 1, 2], "the ack, then one frame per peer");
        assert_eq!(acks(&frames), [K as u64], "one cumulative ack");
        assert_eq!(data_seqs(&frames), [0, 0, 0], "the batch, once per peer");
        let link = sequencer.link_stats();
        assert_eq!((link.data_received, link.delivered), (2, K as u64));
        assert_eq!((link.data_sent, link.acks_sent), (3, 1));
        assert_eq!(sequencer.replica().batch_stats().items_stamped, K as u64);
    }

    /// The same frame gate on the trusted channel: a follower's settle of
    /// eight pipelined updates sends the sequencer one unnumbered run,
    /// which the sequencer takes whole; its full batch goes out as one
    /// frame per peer, with no ack beside them.
    #[test]
    fn one_trusted_settle_sends_the_sequencer_one_run() {
        const K: usize = 8;
        let setup = OrderingSetup {
            batching: Some(moc_abcast::BatchConfig {
                max_batch: K,
                max_delay_ns: 100_000,
            }),
            ..OrderingSetup::default()
        };
        let host =
            |me| -> ReplicaHost<Msc, ()> { ReplicaHost::new(p(me), 3, 1, None, &setup, false) };
        let mut follower = host(1);
        for i in 0..K {
            follower.submit(wx(i as i64), vec![], (), EventTime::ZERO);
        }
        follower.settle(&|| EventTime::ZERO);
        let (to, frame) = follower.wire.pop().expect("a frame");
        assert!(follower.wire.is_empty(), "one frame per settle");
        assert_eq!(to, p(0));
        assert!(
            matches!(&frame, LinkMsg::Run { first_seq: 0, payloads } if payloads.len() == K),
            "an unnumbered run of the settle's submissions: {frame:?}"
        );
        assert_eq!(follower.link_stats().data_sent, 1);

        let mut sequencer = host(0);
        sequencer.on_wire(p(1), frame, EventTime::ZERO);
        sequencer.settle(&|| EventTime::ZERO);
        let to: Vec<u32> = sequencer.wire.iter().map(|(to, _)| to.as_u32()).collect();
        assert_eq!(to, [0, 1, 2], "one frame per peer, no ack");
        let link = sequencer.link_stats();
        assert_eq!((link.data_received, link.delivered), (1, K as u64));
        assert_eq!((link.data_sent, link.acks_sent), (3, 0));
        assert_eq!(sequencer.replica().batch_stats().items_stamped, K as u64);
    }

    #[test]
    fn shutdown_met_mid_drain_exits_without_settling() {
        let mut hand = ByHand::new(1, RuntimeConfig::new(1));
        let replies = reply_inbox();
        hand.invoke(wx(1), &replies);
        hand.send(Input::Shutdown);
        hand.invoke(wx(2), &replies);
        assert!(hand.wake_up().is_break());
        assert_eq!(hand.driver.host.in_flight(), 1, "what came first was fed");
        assert!(hand.sent(0).is_empty(), "but nothing it set off was sent");
        let exit = hand.driver.exit();
        assert!(hand.log.lock().is_empty() && reply_seqs(&replies).is_empty());
        assert_eq!(exit.link_stats.data_sent, 0);
        assert!(hand.inboxes[1].send(Input::Shutdown).is_err(), "closed");
    }

    /// A reply whose session has closed its inbox is not delivered: the
    /// replica counts it dropped, once.
    #[test]
    fn a_reply_sent_after_close_counts_as_dropped() {
        let mut hand = ByHand::new(0, RuntimeConfig::new(1));
        let replies = reply_inbox();
        hand.invoke(rx(), &replies);
        replies.close();
        assert!(hand.wake_up().is_continue());
        assert_eq!(hand.driver.host.metrics().retired, 1, "answered");
        assert_eq!(hand.log.lock().len(), 1, "and logged");
        assert!(reply_seqs(&replies).is_empty());
        assert_eq!(hand.driver.exit().pipeline.dropped_replies, 1);
    }

    /// A loop that ticks only when its wait times out never ticks while the
    /// inbox keeps refilling. A wake-up ticks whenever a deadline is due,
    /// however much it took from the inbox.
    #[test]
    fn a_due_deadline_ticks_though_the_inbox_never_runs_dry() {
        let mut hand = ByHand::new(1, linked());
        let replies = reply_inbox();
        hand.invoke(wx(1), &replies);
        assert!(hand.wake_up().is_continue());
        assert_eq!(data_seqs(&hand.sent(0)), [0], "the submission went out");
        let deadline = hand.driver.host.next_deadline().expect("unacked");
        assert_eq!(
            deadline,
            hand.clock.get() + hand.driver.outlet.config.link.rto_ns
        );

        // The retransmission comes due with a full inbox, all of which the
        // wake-up takes.
        const QUEUED: usize = 69;
        hand.clock.set(deadline);
        for _ in 0..QUEUED {
            hand.invoke(rx(), &replies);
        }
        assert!(hand.wake_up().is_continue());
        assert_eq!(hand.driver.host.link_stats().retransmissions, 1);
        assert_eq!(data_seqs(&hand.sent(0)), [0], "retransmitted");
        assert!(hand.driver.host.next_deadline().expect("re-armed") > deadline);
        assert_eq!(hand.driver.host.metrics().invocations, 1 + QUEUED as u64);
    }

    #[test]
    fn write_then_read_roundtrip() {
        watchdog("write_then_read_roundtrip", || {
            let cluster: LiveCluster<MlinOverSequencer> =
                LiveCluster::start(3, RuntimeConfig::new(1));
            cluster.invoke(ProcessId::new(0), wx(9), vec![]);
            let r = cluster.invoke(ProcessId::new(2), rx(), vec![]);
            assert_eq!(r.outputs, vec![9], "mlin query after update must see it");
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 2);
            let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
            assert!(lin.satisfied);
        });
    }

    /// The history holds every reply once, in the order the replicas
    /// answered: each process's records ascend, and a process the client
    /// turned to later comes later.
    #[test]
    fn shutdown_keeps_the_order_the_replicas_answered() {
        watchdog("shutdown_keeps_the_order_the_replicas_answered", || {
            let cluster: LiveCluster<MscOverSequencer> =
                LiveCluster::start(3, RuntimeConfig::new(1));
            let mut replies = Vec::new();
            for (process, count) in [(1, 3), (0, 2), (2, 4), (1, 2)] {
                for k in 0..count {
                    replies.push(cluster.invoke(p(process), wx(k), vec![]).id);
                }
            }
            let history = cluster.shutdown().history;
            let recorded: Vec<MOpId> = history.records().iter().map(|r| r.id).collect();
            assert_eq!(recorded, replies, "one record per reply, in answer order");
            for process in 0..3 {
                let seqs = history.by_process(p(process)).iter();
                let seqs: Vec<u32> = seqs.map(|&idx| history.record(idx).id.seq).collect();
                let count = [2, 5, 4][process as usize];
                assert_eq!(seqs, (0..count).collect::<Vec<u32>>());
            }
        });
    }

    /// Three pipelined clients, one per process, keep their windows full at
    /// once; every replica pushes into the one log as it answers. The
    /// history holds every reply once, each process's records ascend in
    /// the log as they were answered, and it is m-sequentially consistent.
    #[test]
    fn pipelined_clients_share_one_log() {
        watchdog("pipelined_clients_share_one_log", || {
            const PER_CLIENT: usize = 60;
            let cluster: LiveCluster<MscOverSequencer> =
                LiveCluster::start(3, RuntimeConfig::new(1));
            let answered: Vec<Vec<MOpId>> = std::thread::scope(|s| {
                let clients: Vec<_> = (0..3)
                    .map(|process| {
                        let cluster = &cluster;
                        s.spawn(move || {
                            let mut session = cluster.pipelined(p(process), 8);
                            let mut ids = Vec::new();
                            for k in 0..PER_CLIENT {
                                let program = if k % 3 == 2 { rx() } else { inc() };
                                let reply =
                                    session.invoke(program, vec![]).expect("not quarantined");
                                ids.extend(reply.map(|r| r.id));
                            }
                            ids.extend(session.drain().into_iter().map(|r| r.id));
                            ids
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().unwrap()).collect()
            });
            let history = cluster.shutdown().history;
            assert_eq!(history.len(), 3 * PER_CLIENT);
            for (process, ids) in answered.iter().enumerate() {
                let logged: Vec<MOpId> = history
                    .records()
                    .iter()
                    .map(|r| r.id)
                    .filter(|id| id.process == p(process as u32))
                    .collect();
                assert_eq!(
                    &logged, ids,
                    "process {process}: the log is its answer order"
                );
                let seqs: Vec<u32> = logged.iter().map(|id| id.seq).collect();
                assert_eq!(seqs, (0..PER_CLIENT as u32).collect::<Vec<u32>>());
            }
            let sc = check(&history, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
            assert!(sc.satisfied);
        });
    }

    #[test]
    fn concurrent_clients_preserve_increments() {
        watchdog("concurrent_clients_preserve_increments", || {
            let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start(
                4,
                RuntimeConfig::new(1).with_artificial_delay(DelayModel::Uniform {
                    lo: 1_000,
                    hi: 200_000,
                }),
            );
            let cluster = Arc::new(cluster);
            let mut joins = Vec::new();
            for p in 0..4u32 {
                let c = Arc::clone(&cluster);
                joins.push(std::thread::spawn(move || {
                    for _ in 0..5 {
                        c.invoke(ProcessId::new(p), inc(), vec![]);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let final_value = cluster.invoke(ProcessId::new(0), rx(), vec![]).outputs[0];
            // msc query reads the local copy; process 0 has applied every
            // delivered update... but some may still be in flight. Give the
            // cluster a moment to converge, then re-read.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut v = final_value;
            while v != 20 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
                v = cluster.invoke(ProcessId::new(0), rx(), vec![]).outputs[0];
            }
            assert_eq!(v, 20, "all 20 increments must land");

            let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
            let report = cluster.shutdown();
            let sc = check(
                &report.history,
                Condition::MSequentialConsistency,
                Strategy::Auto,
            )
            .unwrap();
            assert!(sc.satisfied, "Theorem 15 on the live runtime");
        });
    }

    #[test]
    fn single_process_cluster_works() {
        watchdog("single_process_cluster_works", || {
            let cluster: LiveCluster<MlinOverSequencer> =
                LiveCluster::start(1, RuntimeConfig::new(1));
            cluster.invoke(ProcessId::new(0), wx(3), vec![]);
            let r = cluster.invoke(ProcessId::new(0), rx(), vec![]);
            assert_eq!(r.outputs, vec![3]);
            assert!(r.invoked_at <= r.responded_at);
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 2);
        });
    }

    #[test]
    fn heavy_delay_reordering_stays_consistent() {
        watchdog("heavy_delay_reordering_stays_consistent", || {
            // Millisecond-scale random delays: messages overtake each other
            // constantly; the history must still check out.
            let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start(
                3,
                RuntimeConfig::new(2)
                    .with_artificial_delay(DelayModel::Exponential { mean: 1_000_000 }),
            );
            let cluster = Arc::new(cluster);
            let mut joins = Vec::new();
            for p in 0..3u32 {
                let c = Arc::clone(&cluster);
                joins.push(std::thread::spawn(move || {
                    for i in 0..4 {
                        if i % 2 == 0 {
                            c.invoke(ProcessId::new(p), wx(p as i64 * 10 + i), vec![]);
                        } else {
                            c.invoke(ProcessId::new(p), rx(), vec![]);
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 12);
            let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
            assert!(lin.satisfied, "{:?}", lin.reason);
        });
    }

    #[test]
    fn replies_carry_monotone_event_times_per_process() {
        watchdog("replies_carry_monotone_event_times_per_process", || {
            let cluster: LiveCluster<MscOverSequencer> =
                LiveCluster::start(2, RuntimeConfig::new(1));
            let p = ProcessId::new(0);
            let r1 = cluster.invoke(p, wx(1), vec![]);
            let r2 = cluster.invoke(p, wx(2), vec![]);
            assert!(r1.responded_at <= r2.invoked_at, "process order in time");
            assert_eq!(r1.id.seq, 0);
            assert_eq!(r2.id.seq, 1);
            cluster.shutdown();
        });
    }

    #[test]
    fn reliable_link_masks_drops_and_duplicates_live() {
        watchdog("reliable_link_masks_drops_and_duplicates_live", || {
            // A 20% drop / 10% dup network: the link's retransmissions and
            // dedup must keep every invocation completing and the history
            // m-linearizable.
            let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start(
                3,
                RuntimeConfig::new(1)
                    .with_artificial_delay(DelayModel::Uniform {
                        lo: 1_000,
                        hi: 100_000,
                    })
                    .with_faults(0.2, 0.1)
                    .with_link(LinkConfig {
                        rto_ns: 1_000_000,
                        max_rto_ns: 20_000_000,
                        ..LinkConfig::default()
                    }),
            );
            let cluster = Arc::new(cluster);
            let mut joins = Vec::new();
            for p in 0..3u32 {
                let c = Arc::clone(&cluster);
                joins.push(std::thread::spawn(move || {
                    for i in 0..4 {
                        if i % 2 == 0 {
                            c.invoke(ProcessId::new(p), wx(p as i64 * 10 + i), vec![]);
                        } else {
                            c.invoke(ProcessId::new(p), rx(), vec![]);
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 12, "every invocation completed");
            let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
            assert!(lin.satisfied, "{:?}", lin.reason);
            // The faults hit, and the link recovered them.
            let link = report.total_link_stats();
            assert!(
                link.retransmissions > 0 && link.duplicates_discarded > 0,
                "{link:?}"
            );
        });
    }

    /// A lossless network runs the trusted channel: the replicas exchange
    /// data frames and nothing else.
    #[test]
    fn a_lossless_cluster_sends_no_acks() {
        watchdog("a_lossless_cluster_sends_no_acks", || {
            let cluster: LiveCluster<MscOverSequencer> =
                LiveCluster::start(3, RuntimeConfig::new(1));
            for i in 0..6 {
                cluster.invoke(p(i % 3), wx(i64::from(i)), vec![]);
            }
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 6);
            let link = report.total_link_stats();
            assert!(link.data_sent > 0 && link.data_received > 0, "{link:?}");
            assert_eq!((link.acks_sent, link.retransmissions), (0, 0), "{link:?}");
        });
    }

    /// The view-based broadcast on the lossless network's trusted channel,
    /// group-committing: a blocking client's lone submission waits in a
    /// partial batch that only the flush deadline sends, so every
    /// operation finishing shows the replicas tick for the broadcast's
    /// deadlines with no link under them.
    #[test]
    fn view_backend_works_live_on_the_trusted_channel() {
        watchdog("view_backend_works_live_on_the_trusted_channel", || {
            let config = RuntimeConfig::new(1).with_batching(moc_abcast::BatchConfig {
                max_batch: 16,
                max_delay_ns: 200_000,
            });
            let cluster: LiveCluster<moc_protocol::MscOverView> = LiveCluster::start(3, config);
            std::thread::scope(|s| {
                for process in 0..3u32 {
                    let cluster = &cluster;
                    s.spawn(move || {
                        for i in 0..4 {
                            let program = if i % 2 == 0 { inc() } else { rx() };
                            cluster.invoke(p(process), program, vec![]);
                        }
                    });
                }
            });
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 12, "every invocation completed");
            assert_eq!(report.total_link_stats().acks_sent, 0);
            assert_eq!(report.total_batch_stats().items_stamped, 6);
            let sc = check(
                &report.history,
                Condition::MSequentialConsistency,
                Strategy::Auto,
            )
            .unwrap();
            assert!(sc.satisfied, "{:?}", sc.reason);
        });
    }

    #[test]
    fn view_backend_works_live() {
        watchdog("view_backend_works_live", || {
            // The view-based broadcast on real threads and wall-clock
            // suspicion timers: no crash occurs, so view 0 must stay stable
            // (wall-clock timeouts absorb scheduling jitter) and the history
            // must be m-linearizable.
            let cluster: LiveCluster<moc_protocol::MlinOverView> = LiveCluster::start(
                3,
                RuntimeConfig::new(1).with_artificial_delay(DelayModel::Uniform {
                    lo: 1_000,
                    hi: 100_000,
                }),
            );
            let cluster = Arc::new(cluster);
            let mut joins = Vec::new();
            for p in 0..3u32 {
                let c = Arc::clone(&cluster);
                joins.push(std::thread::spawn(move || {
                    for i in 0..4 {
                        if i % 2 == 0 {
                            c.invoke(ProcessId::new(p), wx(p as i64 * 10 + i), vec![]);
                        } else {
                            c.invoke(ProcessId::new(p), rx(), vec![]);
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 12, "every invocation completed");
            let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
            assert!(lin.satisfied, "{:?}", lin.reason);
        });
    }

    #[test]
    fn monitored_cluster_emits_rolling_certs() {
        watchdog("monitored_cluster_emits_rolling_certs", || {
            let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start_with_monitor(
                2,
                RuntimeConfig::new(1),
                MonitorConfig::new(Condition::MLinearizability).with_window(2),
            );
            for i in 0..4 {
                cluster.invoke(ProcessId::new(i % 2), wx(i as i64), vec![]);
                cluster.invoke(ProcessId::new((i + 1) % 2), rx(), vec![]);
            }
            assert!(!cluster.quarantined(ProcessId::new(0)));
            let (report, monitor) = cluster.shutdown_with_monitor();
            assert_eq!(report.history.len(), 8, "every invocation completed");
            let summary = monitor.expect("sentinel attached");
            assert!(summary.violation.is_none(), "{:?}", summary.violation);
            assert_eq!(summary.stats.completions, 8, "every completion streamed");
            assert!(
                !summary.certs.is_empty(),
                "quiescence points must emit rolling certificates"
            );
            for cert in &summary.certs {
                assert!(cert.admissible);
                let batch =
                    check(&cert.window(), Condition::MLinearizability, Strategy::Auto).unwrap();
                assert!(batch.satisfied, "streaming and batch verdicts agree");
            }
        });
    }

    /// Three always-busy clients under the m-lin sentinel: the replica
    /// threads' feeds reach it interleaved, not in timestamp order, and it
    /// retires behind cuts without ever seeing a quiescence point. Whatever
    /// the interleaving, a clean run must not latch; an m-operation whose
    /// invocation the feed delivered behind the cut is skipped, counted.
    #[test]
    fn busy_mlin_cluster_never_latches_on_feed_order() {
        watchdog("busy_mlin_cluster_never_latches_on_feed_order", || {
            let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start_with_monitor(
                3,
                RuntimeConfig::new(7),
                MonitorConfig::new(Condition::MLinearizability).with_window(4),
            );
            let cluster = Arc::new(cluster);
            let clients: Vec<_> = (0..3u32)
                .map(|p| {
                    let c = Arc::clone(&cluster);
                    std::thread::spawn(move || {
                        for i in 0..150 {
                            let program = match i % 3 {
                                0 => inc(),
                                1 => rx(),
                                _ => wx(i64::from(p) * 1000 + i),
                            };
                            c.invoke(ProcessId::new(p), program, vec![]);
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().unwrap();
            }
            let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
            let (report, monitor) = cluster.shutdown_with_monitor();
            let summary = monitor.expect("sentinel attached");
            assert!(summary.violation.is_none(), "{:?}", summary.violation);
            assert_eq!(summary.stats.completions, 450, "every completion streamed");
            let stats = summary.stats;
            assert!(
                stats.retired > 225 && stats.peak_live_nodes < 150,
                "the cut follows the stream: {stats:?}"
            );
            let batch =
                check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
            assert!(batch.satisfied, "{:?}", batch.reason);
        });
    }

    /// The sentinel thread end-to-end on a poisoned event stream: the
    /// classic store-buffering outcome (both m-operations read the
    /// initial value even though both writes happened) is inadmissible
    /// under m-SC, so the violation must latch and the containment flag
    /// of the attributed culprit must be set.
    #[test]
    fn sentinel_latches_violation_and_quarantines_culprit() {
        use moc_core::op::CompletedOp;
        let feed = Arc::new(Inbox::new());
        let flags: Arc<Vec<AtomicBool>> =
            Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let cfg = MonitorConfig::new(Condition::MSequentialConsistency).with_window(1);
        let handle = {
            let flags = Arc::clone(&flags);
            let feed = Arc::clone(&feed);
            std::thread::spawn(move || monitor_main(2, cfg, &feed, flags))
        };
        let x = ObjectId::new(0);
        let y = ObjectId::new(1);
        let a_id = MOpId::new(ProcessId::new(0), 0);
        let b_id = MOpId::new(ProcessId::new(1), 0);
        let mk = |id: MOpId, ops: [CompletedOp; 2]| MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(10),
            ops: ops.into(),
            outputs: InlineList::new(),
            treated_as: MOpClass::Update,
            label: "sb".into(),
        };
        let a = mk(
            a_id,
            [
                CompletedOp::write(x, 1, a_id, 1),
                CompletedOp::read(y, 0, MOpId::INITIAL, 0),
            ],
        );
        let b = mk(
            b_id,
            [
                CompletedOp::write(y, 1, b_id, 1),
                CompletedOp::read(x, 0, MOpId::INITIAL, 0),
            ],
        );
        for ev in [
            MonitorEvent::Invoke(a_id, 0),
            MonitorEvent::Invoke(b_id, 0),
            MonitorEvent::Complete(Box::new(a), 10),
            MonitorEvent::Complete(Box::new(b), 10),
        ] {
            assert!(feed.send(ev).is_ok());
        }
        feed.close();
        let summary = handle.join().unwrap();
        let v = summary.violation.as_ref().expect("violation latched");
        assert!(
            flags.iter().any(|f| f.load(Ordering::SeqCst)),
            "containment flag set"
        );
        if let Some(p) = v.culprit {
            assert!(flags[p.index()].load(Ordering::SeqCst), "culprit fenced");
        }
    }

    /// The containment hook at the invocation boundary: a quarantined
    /// process's traffic is refused while the rest of the cluster keeps
    /// operating.
    #[test]
    fn quarantined_process_is_fenced() {
        watchdog("quarantined_process_is_fenced", || {
            let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start_with_monitor(
                2,
                RuntimeConfig::new(1),
                MonitorConfig::new(Condition::MSequentialConsistency),
            );
            cluster.invoke(ProcessId::new(0), wx(1), vec![]);
            // Containment decision, as the sentinel thread would make it.
            cluster.quarantine[1].store(true, Ordering::SeqCst);
            let err = cluster
                .try_invoke(ProcessId::new(1), wx(2), vec![])
                .unwrap_err();
            assert_eq!(
                err,
                Quarantined {
                    process: ProcessId::new(1)
                }
            );
            assert!(cluster.quarantined(ProcessId::new(1)));
            assert!(
                cluster.try_invoke(ProcessId::new(0), rx(), vec![]).is_ok(),
                "unaffected processes keep working"
            );
            let (report, monitor) = cluster.shutdown_with_monitor();
            assert_eq!(report.history.len(), 2, "the fenced invocation never ran");
            assert!(monitor.expect("sentinel attached").violation.is_none());
        });
    }

    /// A pipelined session keeps several updates in flight at once: the
    /// replica's peak depth must exceed one, every reply must come back
    /// in invocation order with true (overlapping) wall-clock times, and
    /// the recorded history must still be sequential per process and
    /// m-sequentially consistent.
    #[test]
    fn pipelined_updates_overlap_and_stay_consistent() {
        watchdog("pipelined_updates_overlap_and_stay_consistent", || {
            let cluster: LiveCluster<MscOverSequencer> =
                LiveCluster::start(2, RuntimeConfig::new(1));
            let p = ProcessId::new(1);
            let mut replies = Vec::new();
            {
                let mut session = cluster.pipelined(p, 8);
                for i in 0..8 {
                    if let Some(r) = session.invoke(wx(i), vec![]).unwrap() {
                        replies.push(r);
                    }
                }
                assert!(session.in_flight() > 0, "window admits without blocking");
                replies.extend(session.drain());
            }
            assert_eq!(replies.len(), 8, "every pipelined invocation replied");
            for (i, r) in replies.iter().enumerate() {
                assert_eq!(r.id.seq, i as u32, "replies retire in invocation order");
                assert!(r.invoked_at <= r.responded_at);
            }
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 8);
            let pipe = report.total_pipeline();
            assert_eq!(pipe.invocations, 8);
            assert_eq!(pipe.retired, 8);
            assert!(pipe.peak_depth > 1, "updates overlapped: {pipe:?}");
            assert_eq!(pipe.dropped_replies, 0);
            let sc = check(
                &report.history,
                Condition::MSequentialConsistency,
                Strategy::Auto,
            )
            .unwrap();
            assert!(sc.satisfied, "{:?}", sc.reason);
        });
    }

    /// The admission gate: a query entering a pipeline of the process's
    /// own updates waits for them to apply, so it observes its own writes
    /// even on the local-query msc protocol.
    #[test]
    fn pipelined_query_reads_own_writes() {
        watchdog("pipelined_query_reads_own_writes", || {
            let cluster: LiveCluster<MscOverSequencer> =
                LiveCluster::start(2, RuntimeConfig::new(1));
            let p = ProcessId::new(1);
            let mut session = cluster.pipelined(p, 4);
            session.invoke(wx(41), vec![]).unwrap();
            session.invoke(wx(42), vec![]).unwrap();
            session.invoke(rx(), vec![]).unwrap();
            let replies = session.drain();
            assert_eq!(replies.len(), 3);
            assert_eq!(
                replies[2].outputs,
                vec![42],
                "query gated behind the process's pending updates"
            );
            drop(session);
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 3);
        });
    }

    /// Batching and pipelining together, with the sentinel attached: a
    /// burst of pipelined updates group-commits into multi-item ordering
    /// frames (occupancy above one), the monitor sees no violation, and
    /// the final history checks out.
    #[test]
    fn batched_pipelined_cluster_stays_clean_under_monitor() {
        watchdog(
            "batched_pipelined_cluster_stays_clean_under_monitor",
            || {
                let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start_with_monitor(
                    3,
                    RuntimeConfig::new(1).with_batching(moc_abcast::BatchConfig {
                        max_batch: 4,
                        max_delay_ns: 50_000_000,
                    }),
                    MonitorConfig::new(Condition::MSequentialConsistency).with_window(2),
                );
                let cluster = Arc::new(cluster);
                let mut joins = Vec::new();
                for p in 1..3u32 {
                    let c = Arc::clone(&cluster);
                    joins.push(std::thread::spawn(move || {
                        let mut session = c.pipelined(ProcessId::new(p), 4);
                        for i in 0..6 {
                            session.invoke(wx(p as i64 * 100 + i), vec![]).unwrap();
                        }
                        session.drain();
                    }));
                }
                for j in joins {
                    j.join().unwrap();
                }
                let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
                let (report, monitor) = cluster.shutdown_with_monitor();
                assert_eq!(report.history.len(), 12, "every invocation completed");
                let summary = monitor.expect("sentinel attached");
                assert!(summary.violation.is_none(), "{:?}", summary.violation);
                assert_eq!(summary.stats.completions, 12);
                let batch = report.total_batch_stats();
                assert_eq!(batch.items_stamped, 12, "every update went through a batch");
                assert!(
                    batch.occupancy() > 1.0,
                    "pipelined burst group-commits: {batch:?}"
                );
                assert_eq!(report.total_pipeline().dropped_replies, 0);
                let sc = check(
                    &report.history,
                    Condition::MSequentialConsistency,
                    Strategy::Auto,
                )
                .unwrap();
                assert!(sc.satisfied, "{:?}", sc.reason);
            },
        );
    }

    #[test]
    fn isis_backend_works_live() {
        watchdog("isis_backend_works_live", || {
            let cluster: LiveCluster<MscReplica<IsisAbcast<MOperation>>> =
                LiveCluster::start(3, RuntimeConfig::new(2));
            for i in 0..5 {
                cluster.invoke(ProcessId::new((i % 3) as u32), wx(i as i64), vec![]);
            }
            let report = cluster.shutdown();
            assert_eq!(report.history.len(), 5);
            assert!(report.replica_metrics.iter().any(|m| m.updates_applied > 0));
        });
    }
}
