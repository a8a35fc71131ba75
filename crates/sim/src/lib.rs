//! # moc-sim
//!
//! A deterministic discrete-event simulator for asynchronous
//! message-passing systems.
//!
//! The Section 5 protocols of Mittal & Garg (1998) assume exactly this
//! substrate: "processes and channels are reliable and a message sent is
//! eventually received. However, the messages can get reordered." The
//! simulator provides:
//!
//! * virtual time ([`SimTime`], nanosecond granularity);
//! * asynchronous channels with per-message random delays drawn from a
//!   configurable [`DelayModel`], which reorders messages arbitrarily. By
//!   default channels are reliable — every message is delivered exactly
//!   once — matching the paper's channel model;
//! * **fault injection**, when a [`FaultPlan`] is installed: per-message
//!   drop and duplication probabilities, scheduled one-way partitions
//!   with healing, and replica crash/restart windows. Fault decisions are
//!   drawn from a dedicated RNG derived from the seed, so a given
//!   (seed, plan) pair replays its schedule byte-for-byte;
//! * deterministic execution: the same seed and the same node logic always
//!   produce the same schedule, making protocol bugs reproducible;
//! * externally injected events ([`World::schedule_call`]) so a test
//!   harness can invoke operations on nodes at chosen virtual times.
//!
//! Nodes are pure state machines implementing [`Node`]; all effects go
//! through the [`Context`] handed to each handler.
//!
//! ```
//! use moc_core::ids::ProcessId;
//! use moc_sim::{Context, DelayModel, NetworkConfig, Node, World};
//!
//! /// Each node forwards a counter to the next node, n hops.
//! struct Hop {
//!     hops_seen: u64,
//! }
//! impl Node for Hop {
//!     type Msg = u64;
//!     fn on_message(&mut self, _from: ProcessId, msg: u64, ctx: &mut Context<'_, u64>) {
//!         self.hops_seen += 1;
//!         if msg > 0 {
//!             let next = ProcessId::new((ctx.me().as_u32() + 1) % ctx.num_processes() as u32);
//!             ctx.send(next, msg - 1);
//!         }
//!     }
//! }
//!
//! let mut world = World::new(
//!     (0..3).map(|_| Hop { hops_seen: 0 }).collect(),
//!     NetworkConfig::with_delay(DelayModel::Uniform { lo: 10, hi: 100 }),
//!     42,
//! );
//! world.schedule_call(0, ProcessId::new(0), |node, ctx| {
//!     node.hops_seen += 1;
//!     let next = ProcessId::new(1);
//!     ctx.send(next, 5);
//! });
//! let stats = world.run_until_quiescent(10_000);
//! assert_eq!(stats.messages_delivered, 6);
//! ```
//!
//! Fault semantics: a partitioned link drops messages sent while the
//! window `[from_ns, until_ns)` is active; random drops and duplicates
//! are decided per remote send; a crashed replica silently loses every
//! message, timer and injected call addressed to it until its scheduled
//! restart, at which point [`Node::on_restart`] fires so recovery logic
//! (e.g. a reliable-link rejoin handshake) can run. All of it is
//! deterministic per (seed, plan):
//!
//! ```
//! use moc_core::ids::ProcessId;
//! use moc_sim::{Context, FaultPlan, NetworkConfig, Node, World};
//!
//! struct Sink;
//! impl Node for Sink {
//!     type Msg = u8;
//!     fn on_message(&mut self, _f: ProcessId, _m: u8, _c: &mut Context<'_, u8>) {}
//! }
//!
//! // A one-way partition 0 → 1 that never heals: the send is dropped.
//! let plan = FaultPlan::default().with_partition(
//!     ProcessId::new(0),
//!     ProcessId::new(1),
//!     0,
//!     u64::MAX,
//! );
//! let mut world = World::with_faults(vec![Sink, Sink], NetworkConfig::fifo(10), plan, 1);
//! world.schedule_call(0, ProcessId::new(0), |_, ctx| ctx.send(ProcessId::new(1), 7));
//! let stats = world.run_until_quiescent(100);
//! assert_eq!(stats.messages_dropped, 1);
//! assert_eq!(stats.messages_delivered, 0);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use moc_core::ids::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point in virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time advanced by `delta_ns` nanoseconds.
    pub const fn after(self, delta_ns: u64) -> SimTime {
        SimTime(self.0 + delta_ns)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// Distribution of per-message network delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this many nanoseconds (FIFO network).
    Fixed(u64),
    /// Uniform in `[lo, hi]` — adjacent messages reorder freely.
    Uniform {
        /// Minimum delay (ns).
        lo: u64,
        /// Maximum delay (ns).
        hi: u64,
    },
    /// Exponential with the given mean — occasional stragglers, heavy
    /// reordering.
    Exponential {
        /// Mean delay (ns).
        mean: u64,
    },
}

impl DelayModel {
    /// Samples one delay.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { lo, hi } => rng.gen_range(lo..=hi.max(lo)),
            DelayModel::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (-(u.ln()) * mean as f64) as u64
            }
        }
    }
}

/// Network configuration for a [`World`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Delay model for inter-process messages.
    pub delay: DelayModel,
    /// Delay model for messages a process sends to itself (loopback).
    pub self_delay: DelayModel,
}

impl NetworkConfig {
    /// A configuration using `delay` for remote links and a fast fixed
    /// loopback.
    pub fn with_delay(delay: DelayModel) -> Self {
        NetworkConfig {
            delay,
            self_delay: DelayModel::Fixed(1),
        }
    }

    /// A FIFO network with a fixed per-message delay — useful for
    /// reproducing the paper's worked example executions exactly.
    pub fn fifo(delay_ns: u64) -> Self {
        NetworkConfig {
            delay: DelayModel::Fixed(delay_ns),
            self_delay: DelayModel::Fixed(1),
        }
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::with_delay(DelayModel::Uniform { lo: 50, hi: 5_000 })
    }
}

/// A scheduled one-way partition: messages sent from `from` to `to`
/// while virtual time is in `[from_ns, until_ns)` are dropped at send
/// time. Use `until_ns = u64::MAX` for a partition that never heals.
///
/// Partitions are directional; block both directions with two entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Sending side of the severed link.
    pub from: ProcessId,
    /// Receiving side of the severed link.
    pub to: ProcessId,
    /// Virtual time the partition starts (inclusive).
    pub from_ns: u64,
    /// Virtual time the partition heals (exclusive).
    pub until_ns: u64,
}

/// A scheduled replica outage: the process is down over
/// `[at_ns, restart_ns)`. While down it loses every message, timer and
/// injected call addressed to it; at `restart_ns` it comes back with its
/// state intact (a network-outage / fail-recover model, not a
/// lose-your-disk one) and [`Node::on_restart`] fires so it can re-arm
/// timers and run recovery handshakes. `restart_ns = u64::MAX` means the
/// replica never returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The process that goes down.
    pub process: ProcessId,
    /// Virtual time the outage starts.
    pub at_ns: u64,
    /// Virtual time the process restarts (`u64::MAX`: never).
    pub restart_ns: u64,
}

/// A deterministic fault schedule for a [`World`].
///
/// Probabilistic faults (drops, duplicates) are decided by a dedicated
/// RNG derived from the world seed, so a given `(seed, plan)` pair
/// always produces the same fault schedule — and a plan with zero
/// probabilities and no scheduled events is byte-for-byte identical to
/// running with no plan at all. Loopback (self) sends are exempt from
/// all faults: a process can always talk to itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a remote send is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a remote send is delivered twice
    /// (the duplicate takes an independently sampled delay).
    pub dup_prob: f64,
    /// Scheduled one-way link outages.
    pub partitions: Vec<Partition>,
    /// Scheduled replica crash/restart windows.
    pub crashes: Vec<Crash>,
}

impl FaultPlan {
    /// A plan that only drops messages, with the given probability.
    pub fn lossy(drop_prob: f64) -> Self {
        FaultPlan::default().with_drop(drop_prob)
    }

    /// Sets the per-message drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob must be in [0, 1]");
        self.drop_prob = p;
        self
    }

    /// Sets the per-message duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup_prob must be in [0, 1]");
        self.dup_prob = p;
        self
    }

    /// Adds a one-way partition of the `from → to` link over
    /// `[from_ns, until_ns)`.
    pub fn with_partition(
        mut self,
        from: ProcessId,
        to: ProcessId,
        from_ns: u64,
        until_ns: u64,
    ) -> Self {
        self.partitions.push(Partition {
            from,
            to,
            from_ns,
            until_ns,
        });
        self
    }

    /// Adds a crash of `process` over `[at_ns, restart_ns)`.
    pub fn with_crash(mut self, process: ProcessId, at_ns: u64, restart_ns: u64) -> Self {
        assert!(at_ns < restart_ns, "crash window must be non-empty");
        self.crashes.push(Crash {
            process,
            at_ns,
            restart_ns,
        });
        self
    }

    /// Adds a crash of the view-`view` coordinator (process `view mod n`)
    /// over `[at_ns, restart_ns)`. A convenience for sequencer-failover
    /// schedules that keeps the rotation arithmetic in one place.
    pub fn with_leader_crash(self, view: u64, n: usize, at_ns: u64, restart_ns: u64) -> Self {
        self.with_crash(view_leader(view, n), at_ns, restart_ns)
    }

    /// Schedules `count` successive leader crashes: the coordinator of
    /// view `first_view + k` goes down at `start_ns + k * period_ns` and
    /// restarts `down_ns` later. Requires `down_ns < period_ns` so each
    /// victim is back before the next one falls — the single-failure
    /// discipline the view-change quorum (every process except the
    /// suspected leader) depends on.
    pub fn with_successive_leader_crashes(
        mut self,
        first_view: u64,
        count: u64,
        n: usize,
        start_ns: u64,
        down_ns: u64,
        period_ns: u64,
    ) -> Self {
        assert!(
            down_ns < period_ns,
            "victims must restart before the next crash"
        );
        for k in 0..count {
            let at = start_ns + k * period_ns;
            self = self.with_leader_crash(first_view + k, n, at, at + down_ns);
        }
        self
    }

    /// Whether this plan can never perturb an execution (no probabilistic
    /// faults, no scheduled events).
    pub fn is_benign(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }
}

/// The coordinator of view `view` in an `n`-process cluster under the
/// deterministic rotation used by the view-based atomic broadcast:
/// view `v` is led by process `v mod n`.
pub fn view_leader(view: u64, n: usize) -> ProcessId {
    assert!(n > 0, "need at least one process");
    ProcessId::new((view % n as u64) as u32)
}

/// Handle to a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A deterministic state machine hosted by the simulator.
pub trait Node {
    /// The message type exchanged between nodes. `Clone` is required so
    /// the fault injector can duplicate in-flight messages.
    type Msg: Clone;

    /// Called once at virtual time zero, before any event.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message arrives.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (timer, ctx);
    }

    /// Called when the process comes back from a scheduled [`Crash`].
    /// State survived the outage, but timers armed before (or during) it
    /// were suppressed and in-flight traffic was lost — re-arm timers and
    /// kick off recovery handshakes here.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// The effect interface handed to node handlers: sends, timers, identity
/// and the current virtual time. Effects are buffered and applied by the
/// [`World`] after the handler returns, so handlers stay pure.
#[derive(Debug)]
pub struct Context<'a, M> {
    me: ProcessId,
    n: usize,
    now: SimTime,
    sends: Vec<(ProcessId, M)>,
    timers: Vec<(u64, TimerId)>,
    next_timer: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// The hosting process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of processes in the world.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` (which may be `self.me()`; loopback messages are
    /// also delivered asynchronously).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Sends a copy of `msg` to every process, including the sender — the
    /// "send to all processes" of the paper's protocols.
    pub fn send_all(&mut self, msg: M)
    where
        M: Clone,
    {
        for p in 0..self.n {
            self.sends.push((ProcessId::new(p as u32), msg.clone()));
        }
    }

    /// Schedules a timer `delay_ns` from now; `on_timer` fires with the
    /// returned id.
    pub fn set_timer(&mut self, delay_ns: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.timers.push((delay_ns, id));
        id
    }
}

enum Payload<N: Node> {
    Message {
        from: ProcessId,
        msg: N::Msg,
    },
    Timer(TimerId),
    #[allow(clippy::type_complexity)]
    Call(Box<dyn FnOnce(&mut N, &mut Context<'_, N::Msg>)>),
    /// Scheduled fault-plan event: the target process goes down.
    Crash,
    /// Scheduled fault-plan event: the target process comes back up.
    Restart,
}

struct Event<N: Node> {
    at: SimTime,
    seq: u64,
    to: ProcessId,
    payload: Payload<N>,
}

impl<N: Node> PartialEq for Event<N> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<N: Node> Eq for Event<N> {}
impl<N: Node> PartialOrd for Event<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<N: Node> Ord for Event<N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Counters describing a finished (or paused) simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events processed in total.
    pub events_processed: u64,
    /// Messages handed to `on_message`.
    pub messages_delivered: u64,
    /// Messages submitted by nodes.
    pub messages_sent: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Injected calls executed.
    pub calls_executed: u64,
    /// Messages lost to the fault plan: random drops, partitioned links,
    /// and in-flight traffic addressed to a crashed process.
    pub messages_dropped: u64,
    /// Messages the fault plan delivered twice.
    pub messages_duplicated: u64,
    /// Timers that would have fired on a crashed process.
    pub timers_suppressed: u64,
    /// Injected calls addressed to a crashed process.
    pub calls_dropped: u64,
    /// Crash events executed.
    pub crashes: u64,
    /// Restart events executed.
    pub restarts: u64,
    /// Virtual time at the end of the run.
    pub end_time: SimTime,
}

/// Salt mixed into the seed for the fault RNG, so fault decisions are a
/// stream independent of the delay stream (a benign plan consumes no
/// fault randomness and leaves the schedule untouched).
const FAULT_SEED_SALT: u64 = 0x6d6f_635f_6368_616f; // "moc_chao"

/// A simulated world of `n` nodes plus the event queue and network.
pub struct World<N: Node> {
    nodes: Vec<N>,
    queue: BinaryHeap<Reverse<Event<N>>>,
    time: SimTime,
    seq: u64,
    next_timer: u64,
    rng: StdRng,
    fault_rng: StdRng,
    config: NetworkConfig,
    faults: FaultPlan,
    down: Vec<bool>,
    stats: RunStats,
    started: bool,
}

impl<N: Node> World<N> {
    /// Creates a world hosting `nodes` with the given network `config`,
    /// deterministically seeded by `seed`. Channels are fully reliable —
    /// equivalent to [`World::with_faults`] with a default (benign) plan.
    pub fn new(nodes: Vec<N>, config: NetworkConfig, seed: u64) -> Self {
        World::with_faults(nodes, config, FaultPlan::default(), seed)
    }

    /// Creates a world whose network misbehaves according to `faults`.
    /// The fault schedule is deterministic in `(seed, faults)`.
    pub fn with_faults(nodes: Vec<N>, config: NetworkConfig, faults: FaultPlan, seed: u64) -> Self {
        let n = nodes.len();
        for c in &faults.crashes {
            assert!(
                c.process.index() < n,
                "crash names process {} of {n}",
                c.process
            );
        }
        World {
            nodes,
            queue: BinaryHeap::new(),
            time: SimTime::ZERO,
            seq: 0,
            next_timer: 0,
            rng: StdRng::seed_from_u64(seed),
            fault_rng: StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            config,
            faults,
            down: vec![false; n],
            stats: RunStats::default(),
            started: false,
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Immutable access to a node.
    pub fn node(&self, p: ProcessId) -> &N {
        &self.nodes[p.index()]
    }

    /// Consumes the world and returns the nodes (e.g. to extract recorded
    /// histories after a run).
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// Run statistics so far.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.end_time = self.time;
        s
    }

    /// Schedules `f` to run on node `to` at absolute virtual time `at_ns`
    /// (clamped to "now" if already past). This is how harnesses inject
    /// m-operation invocations.
    pub fn schedule_call(
        &mut self,
        at_ns: u64,
        to: ProcessId,
        f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>) + 'static,
    ) {
        let at = SimTime(at_ns.max(self.time.0));
        let seq = self.bump_seq();
        self.queue.push(Reverse(Event {
            at,
            seq,
            to,
            payload: Payload::Call(Box::new(f)),
        }));
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Whether a partition currently severs the `from → to` link.
    fn link_blocked(&self, from: ProcessId, to: ProcessId) -> bool {
        let now = self.time.0;
        self.faults
            .partitions
            .iter()
            .any(|p| p.from == from && p.to == to && p.from_ns <= now && now < p.until_ns)
    }

    fn flush_effects(
        &mut self,
        from: ProcessId,
        sends: Vec<(ProcessId, N::Msg)>,
        timers: Vec<(u64, TimerId)>,
    ) {
        for (to, msg) in sends {
            self.stats.messages_sent += 1;
            let remote = to != from;
            // Loopback sends are exempt from faults. Fault decisions come
            // from the dedicated fault RNG so the delay stream — and with
            // it the fault-free schedule — is untouched by a benign plan.
            if remote
                && (self.link_blocked(from, to)
                    || (self.faults.drop_prob > 0.0
                        && self.fault_rng.gen_bool(self.faults.drop_prob)))
            {
                self.stats.messages_dropped += 1;
                continue;
            }
            let model = if remote {
                self.config.delay
            } else {
                self.config.self_delay
            };
            if remote && self.faults.dup_prob > 0.0 && self.fault_rng.gen_bool(self.faults.dup_prob)
            {
                self.stats.messages_duplicated += 1;
                let delay = model.sample(&mut self.fault_rng);
                let at = self.time.after(delay.max(1));
                let seq = self.bump_seq();
                self.queue.push(Reverse(Event {
                    at,
                    seq,
                    to,
                    payload: Payload::Message {
                        from,
                        msg: msg.clone(),
                    },
                }));
            }
            let delay = model.sample(&mut self.rng);
            let at = self.time.after(delay.max(1));
            let seq = self.bump_seq();
            self.queue.push(Reverse(Event {
                at,
                seq,
                to,
                payload: Payload::Message { from, msg },
            }));
        }
        for (delay, id) in timers {
            let at = self.time.after(delay.max(1));
            let seq = self.bump_seq();
            self.queue.push(Reverse(Event {
                at,
                seq,
                to: from,
                payload: Payload::Timer(id),
            }));
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Schedule the fault plan's crash/restart events up front so the
        // whole outage schedule is fixed by (seed, plan) alone.
        for i in 0..self.faults.crashes.len() {
            let c = self.faults.crashes[i];
            let seq = self.bump_seq();
            self.queue.push(Reverse(Event {
                at: SimTime(c.at_ns),
                seq,
                to: c.process,
                payload: Payload::Crash,
            }));
            if c.restart_ns < u64::MAX {
                let seq = self.bump_seq();
                self.queue.push(Reverse(Event {
                    at: SimTime(c.restart_ns),
                    seq,
                    to: c.process,
                    payload: Payload::Restart,
                }));
            }
        }
        for i in 0..self.nodes.len() {
            let me = ProcessId::new(i as u32);
            let mut ctx = Context {
                me,
                n: self.nodes.len(),
                now: self.time,
                sends: Vec::new(),
                timers: Vec::new(),
                next_timer: &mut self.next_timer,
            };
            self.nodes[i].on_start(&mut ctx);
            let sends = std::mem::take(&mut ctx.sends);
            let timers = std::mem::take(&mut ctx.timers);
            drop(ctx);
            self.flush_effects(me, sends, timers);
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.time, "time went backwards");
        self.time = ev.at;
        self.stats.events_processed += 1;
        let to = ev.to;
        // Fault lifecycle first: crash events, and deliveries addressed
        // to a process inside its crash window, never reach the node.
        match &ev.payload {
            Payload::Crash => {
                self.down[to.index()] = true;
                self.stats.crashes += 1;
                return true;
            }
            Payload::Restart => {
                self.down[to.index()] = false;
                self.stats.restarts += 1;
                // Falls through to invoke `on_restart` below.
            }
            Payload::Message { .. } if self.down[to.index()] => {
                self.stats.messages_dropped += 1;
                return true;
            }
            Payload::Timer(_) if self.down[to.index()] => {
                self.stats.timers_suppressed += 1;
                return true;
            }
            Payload::Call(_) if self.down[to.index()] => {
                self.stats.calls_dropped += 1;
                return true;
            }
            _ => {}
        }
        let mut ctx = Context {
            me: to,
            n: self.nodes.len(),
            now: self.time,
            sends: Vec::new(),
            timers: Vec::new(),
            next_timer: &mut self.next_timer,
        };
        let node = &mut self.nodes[to.index()];
        match ev.payload {
            Payload::Message { from, msg } => {
                self.stats.messages_delivered += 1;
                node.on_message(from, msg, &mut ctx);
            }
            Payload::Timer(id) => {
                self.stats.timers_fired += 1;
                node.on_timer(id, &mut ctx);
            }
            Payload::Call(f) => {
                self.stats.calls_executed += 1;
                f(node, &mut ctx);
            }
            Payload::Restart => node.on_restart(&mut ctx),
            Payload::Crash => unreachable!("crash events return early"),
        }
        let sends = std::mem::take(&mut ctx.sends);
        let timers = std::mem::take(&mut ctx.timers);
        drop(ctx);
        self.flush_effects(to, sends, timers);
        true
    }

    /// Runs until no events remain or `max_events` have been processed.
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is hit — a protocol that never quiesces on a
    /// finite workload is a bug in this codebase's context, and silent
    /// truncation would invalidate recorded histories.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> RunStats {
        let mut processed = 0u64;
        self.start_if_needed();
        while self.step() {
            processed += 1;
            assert!(
                processed <= max_events,
                "simulation did not quiesce within {max_events} events"
            );
        }
        self.stats()
    }

    /// Runs while the next event is at or before `until_ns`.
    pub fn run_until(&mut self, until_ns: u64) -> RunStats {
        self.start_if_needed();
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at.0 > until_ns {
                break;
            }
            self.step();
        }
        self.stats()
    }
}

impl<N: Node> fmt::Debug for World<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.nodes.len())
            .field("time", &self.time)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo node: replies to every `Ping(k)` with `Pong(k)` to the sender;
    /// the initiator counts pongs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum PingMsg {
        Ping(u64),
        Pong(u64),
    }

    #[derive(Default)]
    struct PingNode {
        pongs: Vec<u64>,
        delivered_at: Vec<SimTime>,
    }

    impl Node for PingNode {
        type Msg = PingMsg;
        fn on_message(&mut self, from: ProcessId, msg: PingMsg, ctx: &mut Context<'_, PingMsg>) {
            match msg {
                PingMsg::Ping(k) => ctx.send(from, PingMsg::Pong(k)),
                PingMsg::Pong(k) => {
                    self.pongs.push(k);
                    self.delivered_at.push(ctx.now());
                }
            }
        }
    }

    fn ping_world(seed: u64, delay: DelayModel) -> World<PingNode> {
        World::new(
            vec![PingNode::default(), PingNode::default()],
            NetworkConfig::with_delay(delay),
            seed,
        )
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut w = ping_world(1, DelayModel::Fixed(100));
        w.schedule_call(0, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), PingMsg::Ping(7));
        });
        let stats = w.run_until_quiescent(100);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(w.node(ProcessId::new(0)).pongs, vec![7]);
        // Fixed 100ns each way: pong lands at t=200.
        assert_eq!(w.node(ProcessId::new(0)).delivered_at[0], SimTime(200));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut w = ping_world(seed, DelayModel::Uniform { lo: 1, hi: 1000 });
            for k in 0..20 {
                w.schedule_call(k, ProcessId::new(0), move |_, ctx| {
                    ctx.send(ProcessId::new(1), PingMsg::Ping(k));
                });
            }
            w.run_until_quiescent(10_000);
            w.into_nodes().remove(0).pongs
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should reorder");
    }

    #[test]
    fn uniform_delays_reorder_messages() {
        let mut w = ping_world(7, DelayModel::Uniform { lo: 1, hi: 100_000 });
        for k in 0..50 {
            w.schedule_call(k, ProcessId::new(0), move |_, ctx| {
                ctx.send(ProcessId::new(1), PingMsg::Ping(k));
            });
        }
        w.run_until_quiescent(10_000);
        let pongs = &w.node(ProcessId::new(0)).pongs;
        assert_eq!(pongs.len(), 50, "reliable: nothing lost");
        let mut sorted = pongs.clone();
        sorted.sort_unstable();
        assert_ne!(*pongs, sorted, "messages should arrive out of order");
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_delays_are_reliable_too() {
        let mut w = ping_world(3, DelayModel::Exponential { mean: 500 });
        for k in 0..30 {
            w.schedule_call(k * 10, ProcessId::new(0), move |_, ctx| {
                ctx.send(ProcessId::new(1), PingMsg::Ping(k));
            });
        }
        let stats = w.run_until_quiescent(10_000);
        assert_eq!(stats.messages_delivered, 60);
        assert_eq!(w.node(ProcessId::new(0)).pongs.len(), 30);
    }

    struct TimerNode {
        fired: Vec<(TimerId, SimTime)>,
        armed: Option<TimerId>,
    }

    impl Node for TimerNode {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            self.armed = Some(ctx.set_timer(500));
        }
        fn on_message(&mut self, _f: ProcessId, _m: (), _c: &mut Context<'_, ()>) {}
        fn on_timer(&mut self, t: TimerId, ctx: &mut Context<'_, ()>) {
            self.fired.push((t, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        let mut w = World::new(
            vec![TimerNode {
                fired: vec![],
                armed: None,
            }],
            NetworkConfig::fifo(10),
            0,
        );
        w.run_until_quiescent(10);
        let node = &w.node(ProcessId::new(0));
        assert_eq!(node.fired.len(), 1);
        assert_eq!(node.fired[0].0, node.armed.unwrap());
        assert_eq!(node.fired[0].1, SimTime(500));
    }

    struct FanoutNode {
        seen: usize,
    }
    impl Node for FanoutNode {
        type Msg = u8;
        fn on_message(&mut self, _f: ProcessId, _m: u8, _c: &mut Context<'_, u8>) {
            self.seen += 1;
        }
    }

    #[test]
    fn send_all_includes_self() {
        let mut w = World::new(
            (0..4).map(|_| FanoutNode { seen: 0 }).collect(),
            NetworkConfig::default(),
            5,
        );
        w.schedule_call(0, ProcessId::new(2), |_, ctx| ctx.send_all(9));
        let stats = w.run_until_quiescent(100);
        assert_eq!(stats.messages_sent, 4);
        for p in 0..4 {
            assert_eq!(w.node(ProcessId::new(p)).seen, 1);
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut w = ping_world(1, DelayModel::Fixed(1000));
        w.schedule_call(0, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), PingMsg::Ping(1));
        });
        w.run_until(500);
        assert_eq!(w.stats().messages_delivered, 0, "ping still in flight");
        w.run_until(5000);
        assert_eq!(w.stats().messages_delivered, 2);
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn livelock_is_detected() {
        struct Bouncer;
        impl Node for Bouncer {
            type Msg = ();
            fn on_message(&mut self, from: ProcessId, _m: (), ctx: &mut Context<'_, ()>) {
                ctx.send(from, ());
            }
        }
        let mut w = World::new(vec![Bouncer, Bouncer], NetworkConfig::default(), 0);
        w.schedule_call(0, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), ())
        });
        w.run_until_quiescent(100);
    }

    #[test]
    fn drop_prob_one_loses_every_remote_message() {
        let mut w = World::with_faults(
            vec![PingNode::default(), PingNode::default()],
            NetworkConfig::fifo(100),
            FaultPlan::lossy(1.0),
            3,
        );
        for k in 0..10 {
            w.schedule_call(k, ProcessId::new(0), move |_, ctx| {
                ctx.send(ProcessId::new(1), PingMsg::Ping(k));
            });
        }
        let stats = w.run_until_quiescent(1_000);
        assert_eq!(stats.messages_sent, 10);
        assert_eq!(stats.messages_dropped, 10);
        assert_eq!(stats.messages_delivered, 0);
        assert!(w.node(ProcessId::new(0)).pongs.is_empty());
    }

    #[test]
    fn dup_prob_one_delivers_every_remote_message_twice() {
        let mut w = World::with_faults(
            (0..2).map(|_| FanoutNode { seen: 0 }).collect(),
            NetworkConfig::fifo(100),
            FaultPlan::default().with_dup(1.0),
            3,
        );
        w.schedule_call(0, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), 9)
        });
        let stats = w.run_until_quiescent(1_000);
        assert_eq!(stats.messages_sent, 1);
        assert_eq!(stats.messages_duplicated, 1);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(w.node(ProcessId::new(1)).seen, 2);
    }

    #[test]
    fn loopback_is_exempt_from_faults() {
        let mut w = World::with_faults(
            vec![FanoutNode { seen: 0 }],
            NetworkConfig::fifo(100),
            FaultPlan::lossy(1.0).with_dup(1.0),
            3,
        );
        w.schedule_call(0, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(0), 1)
        });
        let stats = w.run_until_quiescent(100);
        assert_eq!(stats.messages_dropped, 0);
        assert_eq!(stats.messages_duplicated, 0);
        assert_eq!(w.node(ProcessId::new(0)).seen, 1);
    }

    #[test]
    fn partition_drops_until_it_heals() {
        let plan =
            FaultPlan::default().with_partition(ProcessId::new(0), ProcessId::new(1), 0, 1_000);
        let mut w = World::with_faults(
            (0..2).map(|_| FanoutNode { seen: 0 }).collect(),
            NetworkConfig::fifo(10),
            plan,
            3,
        );
        // Sent while partitioned: dropped. Sent after healing: delivered.
        w.schedule_call(500, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), 1)
        });
        w.schedule_call(1_000, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), 2)
        });
        // The reverse direction is never partitioned.
        w.schedule_call(500, ProcessId::new(1), |_, ctx| {
            ctx.send(ProcessId::new(0), 3)
        });
        let stats = w.run_until_quiescent(100);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(w.node(ProcessId::new(1)).seen, 1);
        assert_eq!(w.node(ProcessId::new(0)).seen, 1);
    }

    /// Records deliveries and restarts; re-arms a timer on restart.
    #[derive(Default)]
    struct CrashProbe {
        seen: Vec<u8>,
        timer_fired_at: Vec<SimTime>,
        restarted_at: Vec<SimTime>,
    }

    impl Node for CrashProbe {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.set_timer(500); // lands inside the crash window below
        }
        fn on_message(&mut self, _f: ProcessId, m: u8, _c: &mut Context<'_, u8>) {
            self.seen.push(m);
        }
        fn on_timer(&mut self, _t: TimerId, ctx: &mut Context<'_, u8>) {
            self.timer_fired_at.push(ctx.now());
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, u8>) {
            self.restarted_at.push(ctx.now());
            ctx.set_timer(100);
        }
    }

    #[test]
    fn crash_suppresses_deliveries_and_restart_hook_fires() {
        let plan = FaultPlan::default().with_crash(ProcessId::new(1), 100, 2_000);
        let mut w = World::with_faults(
            vec![CrashProbe::default(), CrashProbe::default()],
            NetworkConfig::fifo(10),
            plan,
            7,
        );
        // Arrives at ~510, inside P1's [100, 2000) outage: lost.
        w.schedule_call(500, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), 1)
        });
        // Arrives at ~2510, after the restart: delivered.
        w.schedule_call(2_500, ProcessId::new(0), |_, ctx| {
            ctx.send(ProcessId::new(1), 2)
        });
        let stats = w.run_until_quiescent(1_000);
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.messages_dropped, 1);
        // P1's on_start timer (t=500) fell inside the outage.
        assert_eq!(stats.timers_suppressed, 1);
        let p1 = w.node(ProcessId::new(1));
        assert_eq!(p1.seen, vec![2]);
        assert_eq!(p1.restarted_at, vec![SimTime(2_000)]);
        // The timer re-armed by on_restart fired; P0's start timer too.
        assert_eq!(p1.timer_fired_at, vec![SimTime(2_100)]);
        assert_eq!(w.node(ProcessId::new(0)).timer_fired_at, vec![SimTime(500)]);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_benign_plan_is_identity() {
        let run = |plan: FaultPlan| {
            let mut w = World::with_faults(
                vec![PingNode::default(), PingNode::default()],
                NetworkConfig::with_delay(DelayModel::Uniform { lo: 1, hi: 1_000 }),
                plan,
                42,
            );
            for k in 0..30 {
                w.schedule_call(k, ProcessId::new(0), move |_, ctx| {
                    ctx.send(ProcessId::new(1), PingMsg::Ping(k));
                });
            }
            let stats = w.run_until_quiescent(10_000);
            (stats, w.into_nodes().remove(0).pongs)
        };
        let lossy = FaultPlan::lossy(0.3).with_dup(0.2);
        let (s1, p1) = run(lossy.clone());
        let (s2, p2) = run(lossy);
        assert_eq!(s1, s2, "same (seed, plan) ⇒ same stats");
        assert_eq!(p1, p2, "same (seed, plan) ⇒ same delivery order");
        assert!(s1.messages_dropped > 0 && s1.messages_duplicated > 0);

        // A benign plan is byte-for-byte the no-plan run.
        let (sb, pb) = run(FaultPlan::default());
        let mut w = World::new(
            vec![PingNode::default(), PingNode::default()],
            NetworkConfig::with_delay(DelayModel::Uniform { lo: 1, hi: 1_000 }),
            42,
        );
        for k in 0..30 {
            w.schedule_call(k, ProcessId::new(0), move |_, ctx| {
                ctx.send(ProcessId::new(1), PingMsg::Ping(k));
            });
        }
        let s0 = w.run_until_quiescent(10_000);
        assert_eq!(sb, s0);
        assert_eq!(pb, w.into_nodes().remove(0).pongs);
    }

    #[test]
    fn leader_crash_helpers_follow_the_rotation() {
        assert_eq!(view_leader(0, 3), ProcessId::new(0));
        assert_eq!(view_leader(4, 3), ProcessId::new(1));
        let plan =
            FaultPlan::default().with_successive_leader_crashes(0, 2, 3, 10_000, 5_000, 20_000);
        assert_eq!(
            plan.crashes,
            vec![
                Crash {
                    process: ProcessId::new(0),
                    at_ns: 10_000,
                    restart_ns: 15_000,
                },
                Crash {
                    process: ProcessId::new(1),
                    at_ns: 30_000,
                    restart_ns: 35_000,
                },
            ],
            "each victim restarts before the next one falls"
        );
        assert!(!plan.is_benign());
    }

    #[test]
    fn delay_models_sample_within_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert_eq!(DelayModel::Fixed(7).sample(&mut rng), 7);
            let u = DelayModel::Uniform { lo: 10, hi: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&u));
        }
        // Exponential: mean roughly right over many samples.
        let mean: u64 = 1000;
        let total: u64 = (0..20_000)
            .map(|_| DelayModel::Exponential { mean }.sample(&mut rng))
            .sum();
        let avg = total / 20_000;
        assert!((800..=1200).contains(&avg), "avg {avg} too far from mean");
    }
}
