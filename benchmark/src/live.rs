//! One repetition of a live-cluster workload: a fresh `LiveCluster` of
//! three processes, two sleeping generator threads on p1 and p2, a warm-up,
//! a time-bounded measured window, the correctness gates, and the metrics
//! that can be taken from outside the runtime.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use moc_abcast::SequencerAbcast;
use moc_checker::conditions::{check, Condition, Strategy};
use moc_core::history::History;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_protocol::{MOperation, MlinReplica, MscReplica, ReplicaMetrics, ReplicaProtocol};
use moc_runtime::{LiveCluster, PipelinedSession, RuntimeConfig, RuntimeReport};
use moc_workload::{query_program, rmw_program};

use crate::clock::{now_ns, Clock, WallClock};
use crate::generator::{generate, GenOutput, GenPlan, OpStream, Refused, Sample, Session, Stamp};
use crate::procstat::{self, ThreadSample};
use crate::spec::{
    LiveSpec, Pacing, Protocol, BATCH, CLUSTER_SIZE, GENERATORS, LOSSY_DELAY, LOSSY_FAULTS,
    NUM_OBJECTS, QUERY_SPAN, SLICE_NS, UPDATE_SPAN,
};
use crate::stats::percentile;
use crate::suite::RepResult;
use crate::trace::{self, OpStages, TracedAbcast, TracedReplica};

/// Objects one snapshot query reads (a program has 32 registers).
const SNAPSHOT_SPAN: usize = 32;
/// How long the replicas get to converge before the snapshot gate fails.
const CONVERGENCE_NS: u64 = 2_000_000_000;
/// Head start between cluster start and the first due time, so both
/// generators are parked on the clock when traffic begins.
const LEAD_NS: u64 = 2_000_000;

/// What one repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct RepPlan {
    /// The workload's shape.
    pub spec: LiveSpec,
    /// Seeds the key and class streams (and the network's fault sampler on
    /// the lossy workload).
    pub seed: u64,
    /// Unmeasured lead-in.
    pub warmup_ns: u64,
    /// Measured window.
    pub window_ns: u64,
    /// Per-generator operation budget; `u64::MAX` for a time-bounded rep.
    /// A bounded rep is the audit run: nothing is measured and the whole
    /// recorded history must pass the checker.
    pub max_ops: u64,
    /// Whether the replicas run inside the tracing wrappers.
    pub traced: bool,
}

/// The prebuilt programs: traffic is multi-object, and building a program
/// is not what the window measures.
struct Programs {
    /// `updates[k]` increments objects `k, k+1` (mod 64).
    updates: Vec<Arc<Program>>,
    /// `queries[k]` reads objects `k..k+4` (mod 64).
    queries: Vec<Arc<Program>>,
    /// Two 32-object reads that together cover every object.
    snapshot: Vec<Arc<Program>>,
}

impl Programs {
    fn build() -> Self {
        let run = |k: usize, span: usize| -> Vec<ObjectId> {
            (0..span)
                .map(|i| ObjectId::new(((k + i) % NUM_OBJECTS) as u32))
                .collect()
        };
        Programs {
            updates: (0..NUM_OBJECTS)
                .map(|k| rmw_program(&run(k, UPDATE_SPAN)))
                .collect(),
            queries: (0..NUM_OBJECTS)
                .map(|k| query_program(&run(k, QUERY_SPAN)))
                .collect(),
            snapshot: (0..NUM_OBJECTS)
                .step_by(SNAPSHOT_SPAN)
                .map(|k| query_program(&run(k, SNAPSHOT_SPAN)))
                .collect(),
        }
    }
}

struct LiveSession<'a, R: ReplicaProtocol> {
    session: PipelinedSession<'a, R>,
    programs: &'a Programs,
}

fn stamp_of(reply: moc_runtime::Reply) -> Stamp {
    Stamp {
        seq: reply.id.seq,
        invoked_at: reply.invoked_at.as_nanos(),
        responded_at: reply.responded_at.as_nanos(),
    }
}

impl<R> Session for LiveSession<'_, R>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    fn invoke(&mut self, key: u32, update: bool) -> Result<Option<Stamp>, Refused> {
        let table = if update {
            &self.programs.updates
        } else {
            &self.programs.queries
        };
        self.session
            .invoke(Arc::clone(&table[key as usize]), Vec::new())
            .map(|retired| retired.map(stamp_of))
            .map_err(|_| Refused)
    }

    fn drain(&mut self) -> Vec<Stamp> {
        self.session.drain().into_iter().map(stamp_of).collect()
    }
}

/// Resident memory and per-thread counters at one instant.
struct Usage {
    rss_mb: f64,
    threads: Vec<ThreadSample>,
}

impl Usage {
    fn sample() -> Self {
        Usage {
            rss_mb: procstat::rss_mb(),
            threads: procstat::threads(),
        }
    }
}

/// CPU time (ns) and context switches the threads whose name starts with
/// `prefix` spent between two samples. No thread of a repetition starts or
/// ends inside its window, so the empty prefix gives the process's.
fn thread_delta(from: &Usage, to: &Usage, prefix: &str) -> (u64, u64) {
    let mut cpu_ns = 0;
    let mut switches = 0;
    for t in to.threads.iter().filter(|t| t.name.starts_with(prefix)) {
        if let Some(f) = from.threads.iter().find(|f| f.tid == t.tid) {
            cpu_ns += t.cpu_ns - f.cpu_ns;
            switches += t.ctx_switches - f.ctx_switches;
        }
    }
    (cpu_ns, switches)
}

/// The cluster configuration a repetition starts.
pub fn runtime_config(plan: &RepPlan) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(NUM_OBJECTS);
    if plan.spec.batching {
        cfg = cfg.with_batching(BATCH);
    }
    if plan.spec.lossy {
        cfg = cfg
            .with_artificial_delay(LOSSY_DELAY)
            .with_faults(LOSSY_FAULTS.0, LOSSY_FAULTS.1);
        cfg.seed = plan.seed;
    }
    cfg
}

/// Runs one repetition of `plan` on the protocol and wrappers it names.
pub fn run_rep(plan: &RepPlan) -> RepResult {
    type Seq = SequencerAbcast<MOperation>;
    match (plan.spec.protocol, plan.traced) {
        (Protocol::Msc, false) => rep_on::<MscReplica<Seq>>(plan),
        (Protocol::Mlin, false) => rep_on::<MlinReplica<Seq>>(plan),
        (Protocol::Msc, true) => rep_on::<TracedReplica<MscReplica<TracedAbcast<Seq>>>>(plan),
        (Protocol::Mlin, true) => rep_on::<TracedReplica<MlinReplica<TracedAbcast<Seq>>>>(plan),
    }
}

/// Reads all objects at `process` with the two snapshot queries.
fn snapshot<R>(cluster: &LiveCluster<R>, programs: &Programs, process: usize) -> Vec<Value>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    let p = ProcessId::new(process as u32);
    programs
        .snapshot
        .iter()
        .flat_map(|q| cluster.invoke(p, Arc::clone(q), Vec::new()).outputs)
        .collect()
}

/// Starts the generators, lets them run the plan, and samples the
/// process's resource counters at both ends of the measured window.
fn drive<R>(
    cluster: &LiveCluster<R>,
    programs: &Programs,
    plan: &RepPlan,
    gen_plan: &GenPlan,
    window: Option<Range<u64>>,
) -> (Vec<GenOutput>, Option<(Usage, Usage)>)
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    let barrier = Barrier::new(GENERATORS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..GENERATORS)
            .map(|g| {
                let barrier = &barrier;
                std::thread::Builder::new()
                    .name(format!("gen-{}", g + 1))
                    .spawn_scoped(scope, move || {
                        let process = ProcessId::new(g as u32 + 1);
                        let mut session = LiveSession {
                            session: cluster.pipelined(process, plan.spec.window),
                            programs,
                        };
                        let mut stream = OpStream::new(plan.seed, g, plan.spec.update_pct);
                        barrier.wait();
                        let output = generate(&WallClock, &mut session, &mut stream, gen_plan);
                        // Stay until the last sample is taken: a thread that
                        // is gone has no counters to read.
                        barrier.wait();
                        output
                    })
                    .expect("spawn generator thread")
            })
            .collect();
        barrier.wait();
        let usage = window.map(|w| {
            WallClock.sleep_until(w.start);
            let from = Usage::sample();
            WallClock.sleep_until(w.end);
            (from, Usage::sample())
        });
        barrier.wait();
        let outputs = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (outputs, usage)
    })
}

/// Conservation: every acknowledged update added one to two objects, so
/// once the replicas converge every copy sums to twice their number, and
/// all copies are equal. Returns the snapshot queries it invoked.
fn convergence_gate<R>(
    cluster: &LiveCluster<R>,
    programs: &Programs,
    acked_updates: Value,
    errors: &mut Vec<String>,
) -> u64
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    let mut invoked = 0;
    let deadline = now_ns() + CONVERGENCE_NS;
    let snapshots: Vec<Vec<Value>> = (0..CLUSTER_SIZE)
        .map(|p| loop {
            let snap = snapshot(cluster, programs, p);
            invoked += programs.snapshot.len() as u64;
            if snap.iter().sum::<Value>() == 2 * acked_updates || now_ns() > deadline {
                break snap;
            }
            std::thread::sleep(Duration::from_millis(5));
        })
        .collect();
    for (p, snap) in snapshots.iter().enumerate() {
        let sum: Value = snap.iter().sum();
        if sum != 2 * acked_updates {
            errors.push(format!(
                "p{p} holds {sum} increments, {acked_updates} acknowledged updates need {}",
                2 * acked_updates
            ));
        }
        if *snap != snapshots[0] {
            errors.push(format!("p{p} diverged from p0"));
        }
    }
    invoked
}

/// The audit run's gate: the whole recorded history satisfies the
/// protocol's condition.
fn audit(history: &History, protocol: Protocol, errors: &mut Vec<String>) {
    let condition = match protocol {
        Protocol::Msc => Condition::MSequentialConsistency,
        Protocol::Mlin => Condition::MLinearizability,
    };
    match check(history, condition, Strategy::Auto) {
        Ok(r) if r.satisfied => {}
        Ok(r) => errors.push(format!(
            "audit run violates {condition}: {}",
            r.reason.unwrap_or_default()
        )),
        Err(e) => errors.push(format!("audit run undecided: {e}")),
    }
}

/// Metrics from the counters the runtime keeps from start to shutdown, so
/// over the generators' `ops` operations of warm-up and window together.
/// The six snapshot reads add nothing to them on m-SC and 36 frames on
/// m-lin.
fn counter_metrics(result: &mut RepResult, report: &RuntimeReport, ops: f64, lossy: bool) {
    let link = report.total_link_stats();
    let retransmits = link.retransmissions as f64 / ops;
    result.set("link.frames_per_op", link.data_sent as f64 / ops);
    result.set("link.acks_per_op", link.acks_sent as f64 / ops);
    result.set("link.retransmits_per_op", retransmits);
    result.set(
        "link.dup_discarded_per_op",
        link.duplicates_discarded as f64 / ops,
    );
    result.set(
        "link.spurious_retransmits_per_op",
        if lossy { 0.0 } else { retransmits },
    );
    result.set(
        "abcast.batch_occupancy",
        report.total_batch_stats().occupancy(),
    );

    let sum = |f: fn(&ReplicaMetrics) -> u64| -> f64 {
        report.replica_metrics.iter().map(f).sum::<u64>() as f64
    };
    let updates = report
        .replica_metrics
        .iter()
        .map(|m| m.updates_applied)
        .max()
        .unwrap_or(0);
    result.set(
        "protocol.msgs_per_update",
        sum(|m| m.update_msgs_sent) / updates.max(1) as f64,
    );
    result.set(
        "protocol.msgs_per_query",
        sum(|m| m.query_msgs_sent) / sum(|m| m.queries_completed).max(1.0),
    );

    let pipeline = report.total_pipeline();
    result.set(
        "runtime.queue_residency_us_per_op",
        pipeline.queue_residency_ns as f64 / 1e3 / pipeline.invocations.max(1) as f64,
    );
    result.set("runtime.peak_depth", pipeline.peak_depth as f64);
    result.set(
        "runtime.out_of_order_per_op",
        pipeline.out_of_order_completions as f64 / ops,
    );
    result.set("runtime.dropped_replies", pipeline.dropped_replies as f64);
}

/// Metrics from the process's resource counters at the two ends of the
/// window, per operation replied in it.
fn usage_metrics(result: &mut RepResult, from: &Usage, to: &Usage, ops: f64) {
    let per_op = |cpu_ns: u64| cpu_ns as f64 / 1e3 / ops;
    let (process_ns, _) = thread_delta(from, to, "");
    let (replica_ns, replica_switches) = thread_delta(from, to, "replica-");
    let (network_ns, network_switches) = thread_delta(from, to, "network");
    let (client_ns, _) = thread_delta(from, to, "gen-");
    result.set("client.cpu_us_per_op", per_op(process_ns));
    result.set("runtime.replica_cpu_us_per_op", per_op(replica_ns));
    result.set("runtime.network_cpu_us_per_op", per_op(network_ns));
    result.set("runtime.client_cpu_us_per_op", per_op(client_ns));
    result.set(
        "runtime.ctx_switches_per_op",
        (replica_switches + network_switches) as f64 / ops,
    );
    result.set("rss_mb_per_mop", (to.rss_mb - from.rss_mb) / (ops / 1e6));
}

fn rep_on<R>(plan: &RepPlan) -> RepResult
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    let spec = plan.spec;
    let measured = plan.max_ops == u64::MAX;
    let mut result = RepResult::default();
    let programs = Programs::build();

    let before_start = now_ns();
    let cluster: LiveCluster<R> = LiveCluster::start(CLUSTER_SIZE, runtime_config(plan));
    let after_start = now_ns();

    let warm_end = after_start + LEAD_NS + plan.warmup_ns;
    let end = warm_end + plan.window_ns;
    let gen_plan = GenPlan {
        pacing: spec.pacing,
        blocking: spec.pacing == Pacing::Closed && spec.window == 1,
        start_ns: after_start + LEAD_NS,
        stop_ns: if measured { end } else { u64::MAX },
        max_ops: plan.max_ops,
    };
    let (outputs, usage) = drive(
        &cluster,
        &programs,
        plan,
        &gen_plan,
        measured.then_some(warm_end..end),
    );
    let samples = || {
        outputs.iter().enumerate().flat_map(|(g, o)| {
            let process = ProcessId::new(g as u32 + 1);
            o.samples
                .iter()
                .map(move |s| (s, MOpId::new(process, s.stamp.seq)))
        })
    };

    let acked_updates = samples().filter(|(s, _)| s.update).count() as Value;
    let snapshot_ops = convergence_gate(&cluster, &programs, acked_updates, &mut result.errors);
    let before_shutdown = now_ns();
    let report = cluster.shutdown();
    let after_shutdown = now_ns();

    let replied = samples().count() as u64;
    let attempted: u64 = outputs.iter().map(|o| o.attempted).sum();
    let refused: u64 = outputs.iter().map(|o| o.refused).sum();
    let unanswered: u64 = outputs.iter().map(|o| o.unanswered).sum();
    let pipeline = report.total_pipeline();
    let invoked = attempted - refused + snapshot_ops;
    if pipeline.invocations != invoked
        || replied + snapshot_ops != invoked
        || report.history.len() as u64 != invoked
    {
        result.errors.push(format!(
            "{invoked} invocations, {} replies, {} admitted, history of {}",
            replied + snapshot_ops,
            pipeline.invocations,
            report.history.len()
        ));
    }
    if pipeline.dropped_replies != 0 {
        result
            .errors
            .push(format!("{} dropped replies", pipeline.dropped_replies));
    }
    if !measured {
        audit(&report.history, spec.protocol, &mut result.errors);
    }

    if plan.traced {
        result.traces = trace::take_traces();
    }
    let (stages, busy) = trace::join(&result.traces, warm_end, end);
    // The cluster's clock starts at an instant inside `start`, so after
    // `before_start`; an invocation is stamped after it was sent, a reply
    // before it was received; and a traced replica hands a completion over
    // a few hundred ns before the runtime stamps the response. The lower
    // end is the tight one.
    let offset_lo = samples()
        .map(|(s, id)| {
            let sent = s.sent_ns.saturating_sub(s.stamp.invoked_at);
            let completed = stages.get(&id).map_or(0, |st| st.completed);
            sent.max(completed.saturating_sub(s.stamp.responded_at))
        })
        .fold(before_start, u64::max);
    let offset_hi = samples()
        .filter(|(s, _)| s.recv_ns > 0)
        .map(|(s, _)| s.recv_ns.saturating_sub(s.stamp.responded_at))
        .fold(after_start, u64::min);
    if offset_lo > offset_hi {
        result.errors.push(format!(
            "clock bracket is empty: [{offset_lo}, {offset_hi}]"
        ));
    }
    let responded = |s: &Sample| s.stamp.responded_at + offset_lo;

    if let Some((from, to)) = &usage {
        let in_window = |t: u64| (warm_end..end).contains(&t);
        let ops = samples()
            .filter(|(s, _)| in_window(responded(s)))
            .count()
            .max(1) as f64;
        let us = |ns: u64| ns as f64 / 1e3;
        let sorted = |mut values: Vec<u64>| {
            values.sort_unstable();
            values
        };
        let started_in_window = || samples().filter(|(s, _)| in_window(s.start_ns));
        let latency = sorted(
            started_in_window()
                .map(|(s, _)| responded(s).saturating_sub(s.start_ns))
                .collect(),
        );
        let hop = sorted(
            started_in_window()
                .filter(|(s, _)| s.recv_ns > 0)
                .map(|(s, _)| s.recv_ns.saturating_sub(responded(s)))
                .collect(),
        );
        let late = sorted(outputs.iter().flat_map(|o| &o.late_ns).copied().collect());
        // The end-to-end values are the best slice's: the most operations
        // answered in a slice, the smallest median of those started in one.
        let slices = (plan.window_ns / SLICE_NS).max(1);
        let slice_of = |t: u64| ((t - warm_end) * slices / plan.window_ns) as usize;
        let mut answered = vec![0u64; slices as usize];
        let mut started: Vec<Vec<u64>> = vec![Vec::new(); slices as usize];
        for (s, _) in samples() {
            if in_window(responded(s)) {
                answered[slice_of(responded(s))] += 1;
            }
            if in_window(s.start_ns) {
                started[slice_of(s.start_ns)].push(responded(s).saturating_sub(s.start_ns));
            }
        }
        let slice_s = plan.window_ns as f64 / slices as f64 / 1e9;
        let most_answered = answered.iter().copied().max().unwrap_or(0);
        // A slice the generators mostly sat out has no median to speak of.
        let fullest = started.iter().map(Vec::len).max().unwrap_or(0);
        let least_p50 = started
            .into_iter()
            .filter(|v| !v.is_empty() && 2 * v.len() >= fullest)
            .map(|v| percentile(&sorted(v), 50.0))
            .min()
            .unwrap_or(0);
        result.set("throughput_ops_s", most_answered as f64 / slice_s);
        result.set("latency_p50_us", us(least_p50));
        result
            .extras
            .insert("window_p50_us".into(), us(percentile(&latency, 50.0)));
        result.set("client.latency_p99_us", us(percentile(&latency, 99.0)));
        result.set("client.latency_p999_us", us(percentile(&latency, 99.9)));
        result.set("runtime.reply_hop_us_p50", us(percentile(&hop, 50.0)));
        result.set("client.gen_late_us_p99", us(percentile(&late, 99.0)));
        let gen_ns: u64 = outputs.iter().map(|o| o.gen_ns).sum();
        result.set(
            "client.gen_ns_per_op",
            gen_ns as f64 / attempted.max(1) as f64,
        );
        result.set(
            "client.clock_offset_ns",
            offset_hi.saturating_sub(offset_lo) as f64,
        );
        result.set(
            "runtime.start_ms",
            (after_start - before_start) as f64 / 1e6,
        );
        result.set(
            "runtime.shutdown_ms",
            (after_shutdown - before_shutdown) as f64 / 1e6,
        );
        usage_metrics(&mut result, from, to, ops);
        counter_metrics(&mut result, &report, replied.max(1) as f64, spec.lossy);
        if plan.traced {
            stage_table(&mut result, started_in_window(), &stages, responded);
            result.set("abcast.busy_us_per_op", busy.abcast as f64 / 1e3 / ops);
            result.set("protocol.busy_us_per_op", busy.protocol as f64 / 1e3 / ops);
        }
        result
            .extras
            .insert("measured_ns".into(), plan.window_ns as f64);
    }

    result.attempted = attempted;
    result.failed = if result.errors.is_empty() {
        refused + unanswered
    } else {
        attempted
    };
    result
}

/// The per-operation stage table: where along its path each traced
/// operation of the window spent its latency.
fn stage_table<'a>(
    result: &mut RepResult,
    window_ops: impl Iterator<Item = (&'a Sample, MOpId)>,
    stages: &HashMap<MOpId, OpStages>,
    responded: impl Fn(&Sample) -> u64,
) {
    // Signed: the origin's copy of an ordered frame can arrive before the
    // sequencer's own looped-back copy, which makes a fan-out negative.
    let mut submit: Vec<i64> = Vec::new();
    let mut to_sequencer = Vec::new();
    let mut fanout = Vec::new();
    let mut order = Vec::new();
    let mut apply = Vec::new();
    let mut retire = Vec::new();
    let span = |from: u64, to: u64| to as i64 - from as i64;
    for (s, id) in window_ops {
        let Some(st) = stages.get(&id) else { continue };
        if st.invoke_start > 0 {
            submit.push(span(s.start_ns, st.invoke_start));
        }
        if st.completed > 0 {
            retire.push(span(st.completed, responded(s)));
        }
        if st.broadcast_end > 0 && st.stamped > 0 && st.delivered > 0 && st.completed > 0 {
            to_sequencer.push(span(st.broadcast_end, st.stamped));
            fanout.push(span(st.stamped, st.delivered));
            order.push(span(st.broadcast_end, st.delivered));
            apply.push(span(st.delivered, st.completed));
        }
    }
    let mut quantile = |name: &str, values: &mut Vec<i64>, p: f64| {
        values.sort_unstable();
        let v = percentile(values, p) as f64 / 1e3;
        result.set(name, v);
        v
    };
    let stage_sum = quantile("runtime.submit_wait_us_p50", &mut submit, 50.0)
        + quantile("abcast.to_sequencer_us_p50", &mut to_sequencer, 50.0)
        + quantile("abcast.fanout_us_p50", &mut fanout, 50.0)
        + quantile("protocol.apply_us_p50", &mut apply, 50.0)
        + quantile("runtime.retire_wait_us_p50", &mut retire, 50.0);
    quantile("runtime.submit_wait_us_p99", &mut submit, 99.0);
    quantile("runtime.retire_wait_us_p99", &mut retire, 99.0);
    quantile("abcast.order_wait_us_p50", &mut order, 50.0);
    quantile("abcast.order_wait_us_p99", &mut order, 99.0);
    result.extras.insert("stage_sum_us".into(), stage_sum);
    let spans: usize = result.traces.iter().map(|t| t.spans.len()).sum();
    result.extras.insert("spans".into(), spans as f64);
}
