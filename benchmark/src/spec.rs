//! The fixed vocabulary of the benchmark: workload names and shapes,
//! metric names, units, directions and bounds. `BENCHMARK.json` mirrors
//! these tables (a test keeps the two in step); every later performance
//! claim is stated in these names.

use moc_abcast::BatchConfig;
use moc_core::json::{self, Json};
use moc_sim::DelayModel;

use crate::stats::median;

/// Processes in every live cluster. p0 is the sequencer and hosts no
/// client, so client latency has one mode (a client on p0 would skip the
/// submit hop).
pub const CLUSTER_SIZE: usize = 3;
/// Generator threads; they own p1 and p2.
pub const GENERATORS: usize = 2;
/// Shared objects.
pub const NUM_OBJECTS: usize = 64;
/// Objects a generated update increments.
pub const UPDATE_SPAN: usize = 2;
/// Objects a generated query reads.
pub const QUERY_SPAN: usize = 4;
/// Pipeline window of the pipelined workloads.
pub const WINDOW: usize = 16;
/// Group commit of the batched workloads.
pub const BATCH: BatchConfig = BatchConfig {
    max_batch: 16,
    max_delay_ns: 100_000,
};
/// Message delay injected on `upd-lossy-open`, ns.
pub const LOSSY_DELAY: DelayModel = DelayModel::Uniform {
    lo: 50_000,
    hi: 200_000,
};
/// Message drop and duplication probabilities on `upd-lossy-open`.
pub const LOSSY_FAULTS: (f64, f64) = (0.02, 0.01);
/// Repetitions (fresh process, fresh cluster) of a live workload in a run.
/// Nine set-ups for `setup_s`, and few enough that starting and stopping
/// clusters stays a tenth of a run.
pub const LIVE_REPS: usize = 9;
/// Repetitions of a verify workload: each generates its histories anew
/// (set-up) and makes passes over them in turn, half a second to a second
/// a pass, for its share of the run.
pub const VERIFY_REPS: usize = 3;
/// A live repetition's window is cut into slices of about this length, ns,
/// and its end-to-end values are the best slice's. The machine's slow
/// spells last from under a second to minutes; a quarter second fits into
/// the gaps between them and still holds thousands of operations.
pub const SLICE_NS: u64 = 250_000_000;
/// Warm-up before each measured window, ns.
pub const WARMUP_NS: u64 = 100_000_000;
/// m-operations per generator in the unmeasured audit run.
pub const AUDIT_OPS_PER_GENERATOR: u64 = 300;

/// What a child process does with a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A measured repetition.
    Measured,
    /// A measured repetition that also takes the per-layer numbers only a
    /// closer look gives: it runs inside the tracing wrappers (live), or
    /// times the two halves of the stream apart (`verify-stream`).
    Traced,
    /// The unmeasured correctness run: the audit run of a live workload,
    /// the negative control of a verify workload.
    Audit,
}

impl Mode {
    /// The word a parent passes its child.
    pub fn word(self) -> &'static str {
        match self {
            Mode::Measured => "measured",
            Mode::Traced => "traced",
            Mode::Audit => "audit",
        }
    }

    /// The mode `word` names.
    pub fn parse(word: &str) -> Option<Mode> {
        [Mode::Measured, Mode::Traced, Mode::Audit]
            .into_iter()
            .find(|m| m.word() == word)
    }
}

/// Which Section 5 protocol a live workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Figure 4, m-sequential consistency: queries are local.
    Msc,
    /// Figure 6, m-linearizability: queries cost a round to every replica.
    Mlin,
}

/// How a generator decides when to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Next operation when the window has room.
    Closed,
    /// One operation every `interval_ns` per generator, whatever the
    /// cluster does.
    Open {
        /// Nanoseconds between a generator's due times.
        interval_ns: u64,
    },
}

/// Shape of a live-cluster workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveSpec {
    /// The protocol.
    pub protocol: Protocol,
    /// Pipeline window per generator.
    pub window: usize,
    /// Whether the ordering stage batches ([`BATCH`]).
    pub batching: bool,
    /// Share of updates, percent.
    pub update_pct: u32,
    /// Closed or open loop.
    pub pacing: Pacing,
    /// Whether delay and loss are injected ([`LOSSY_DELAY`],
    /// [`LOSSY_FAULTS`]).
    pub lossy: bool,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A live cluster under generated traffic.
    Live(LiveSpec),
    /// Offline: check, certify and audit a recorded history.
    VerifyBatch,
    /// Offline: replay a recorded history through the sentinel.
    VerifyStream,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Fixed name.
    pub name: &'static str,
    /// Why it exists, one line.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Whether `BENCHMARK.json` lists it, so that its end-to-end values are
    /// held to the bounds. The driver's time limit buys 30-second runs of
    /// four workloads or 15-second runs of eight, and on a shared machine
    /// only the longer run finds an undisturbed stretch often enough; the
    /// four cover the ordering path unloaded and saturated, the path that
    /// bypasses it, and a verifier. The others run in `run` and by name.
    pub driven: bool,
}

const BLOCKING_UPDATES: LiveSpec = LiveSpec {
    protocol: Protocol::Msc,
    window: 1,
    batching: false,
    update_pct: 100,
    pacing: Pacing::Closed,
    lossy: false,
};

const READ_MOSTLY: LiveSpec = LiveSpec {
    update_pct: 5,
    ..BLOCKING_UPDATES
};

const PIPELINED_UPDATES: LiveSpec = LiveSpec {
    window: WINDOW,
    batching: true,
    ..BLOCKING_UPDATES
};

/// The eight workloads, in reporting order.
pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "upd-blocking",
        why: "m-SC, closed loop, window 1, no batching, all updates: every op pays the whole \
              ordering path with nothing to overlap; batching and pipelining are bypassed",
        kind: Kind::Live(BLOCKING_UPDATES),
        driven: true,
    },
    Workload {
        name: "upd-pipelined",
        why: "same, window 16 and batch 16/100us: saturation capacity of the optimised stack, \
              where the ordering stage and FIFO retirement do most of the work",
        kind: Kind::Live(PIPELINED_UPDATES),
        driven: true,
    },
    Workload {
        name: "upd-open-batched",
        why: "same stack, open loop at 10000 ops/s, half of what one CPU carries: shows what \
              group commit costs when the sequencer's inbox is idle",
        kind: Kind::Live(LiveSpec {
            pacing: Pacing::Open {
                interval_ns: 200_000,
            },
            ..PIPELINED_UPDATES
        }),
        driven: false,
    },
    Workload {
        name: "read-mostly-msc",
        why: "m-SC, closed loop, window 1, 95% four-object queries answered locally: hand-off, \
              admission gate, classification, store apply; ordering changes must not move it",
        kind: Kind::Live(READ_MOSTLY),
        driven: true,
    },
    Workload {
        name: "read-mostly-mlin",
        why: "the same traffic on m-lin: the same link and runtime now carry every read as a \
              round to all replicas; the same-layer-used-differently control",
        kind: Kind::Live(LiveSpec {
            protocol: Protocol::Mlin,
            ..READ_MOSTLY
        }),
        driven: false,
    },
    Workload {
        name: "upd-lossy-open",
        why: "m-SC, open loop at 5000 ops/s, 50-200us injected delay, 2% loss, 1% duplication: \
              the only workload where retransmission, dedup and head-of-line set the tail",
        kind: Kind::Live(LiveSpec {
            window: WINDOW,
            pacing: Pacing::Open {
                interval_ns: 400_000,
            },
            lossy: true,
            ..BLOCKING_UPDATES
        }),
        driven: false,
    },
    Workload {
        name: "verify-batch",
        why: "offline check + certify + audit of a 2000-m-op m-lin history: checker, core \
              relations and auditor do all the work, the runtime none",
        kind: Kind::VerifyBatch,
        driven: false,
    },
    Workload {
        name: "verify-stream",
        why: "offline replay of a 1000-m-op history through the streaming sentinel, which \
              calls the checker window by window and grows superlinearly",
        kind: Kind::VerifyStream,
        driven: true,
    },
];

impl Workload {
    /// Repetitions behind an end-to-end value of this workload.
    pub fn reps(&self) -> usize {
        match self.kind {
            Kind::Live(_) => LIVE_REPS,
            Kind::VerifyBatch | Kind::VerifyStream => VERIFY_REPS,
        }
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How an end-to-end value is taken from its repetitions' values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Over {
    /// The best repetition: the largest value of a metric that is better
    /// higher, the smallest of one that is better lower. For speeds: what
    /// disturbs a repetition on a shared machine only ever slows it, so
    /// the least disturbed one says most about the code, and it repeats
    /// where the median sits in whichever state filled more of the run.
    Best,
    /// The median repetition. For what does not follow the machine's
    /// speed.
    Median,
}

/// A metric name with its unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Fixed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's value by which it may worsen (end-to-end
    /// metrics only; 0 for per-layer ones, which carry no bound).
    pub bound: f64,
    /// How the value is taken from the repetitions (end-to-end metrics
    /// only).
    pub over: Over,
}

impl Metric {
    /// The value over `reps`; 0 for none.
    pub fn value(&self, reps: &[f64]) -> f64 {
        let largest = reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let smallest = reps.iter().copied().fold(f64::INFINITY, f64::min);
        match (self.over, self.better) {
            _ if reps.is_empty() => 0.0,
            (Over::Median, _) => median(reps),
            (Over::Best, Better::Higher) => largest,
            (Over::Best, Better::Lower) => smallest,
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    over: Over,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        over,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0, Over::Best)
}

/// What a user of the system sees. Every workload reports every one of
/// them. CPU per operation is not among them (`client.cpu_us_per_op`): a
/// repetition has one CPU, so on a closed loop and on a verify workload it
/// is the inverse of the throughput, and on an open loop it is the price
/// the host asks for waking a halted vCPU, which did not repeat within the
/// widest bound. Nor is the peak of resident memory (`client.peak_rss_mb`):
/// a replica keeps every record, so over a window bounded by time the peak
/// follows the throughput, and a faster program would fail its bound;
/// memory is held to account per operation.
pub const END_TO_END: [Metric; 4] = [
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25, Over::Best),
    e2e("latency_p50_us", "us", Better::Lower, 0.25, Over::Best),
    e2e("rss_mb_per_mop", "MiB", Better::Lower, 0.25, Over::Median),
    e2e("setup_s", "s", Better::Lower, 0.25, Over::Median),
];

use Better::{Higher, Lower};

/// Single-layer metrics, named after the crate that does the work. A
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 62] = [
    // moc-runtime
    layer("runtime.submit_wait_us_p50", "us", Lower),
    layer("runtime.submit_wait_us_p99", "us", Lower),
    layer("runtime.retire_wait_us_p50", "us", Lower),
    layer("runtime.retire_wait_us_p99", "us", Lower),
    layer("runtime.reply_hop_us_p50", "us", Lower),
    layer("runtime.replica_cpu_us_per_op", "us", Lower),
    layer("runtime.network_cpu_us_per_op", "us", Lower),
    layer("runtime.client_cpu_us_per_op", "us", Lower),
    layer("runtime.ctx_switches_per_op", "count", Lower),
    layer("runtime.queue_residency_us_per_op", "us", Lower),
    layer("runtime.peak_depth", "count", Lower),
    layer("runtime.out_of_order_per_op", "count", Lower),
    layer("runtime.dropped_replies", "count", Lower),
    layer("runtime.start_ms", "ms", Lower),
    layer("runtime.shutdown_ms", "ms", Lower),
    // moc-abcast::link
    layer("link.frames_per_op", "count", Lower),
    layer("link.acks_per_op", "count", Lower),
    layer("link.retransmits_per_op", "count", Lower),
    layer("link.dup_discarded_per_op", "count", Lower),
    layer("link.spurious_retransmits_per_op", "count", Lower),
    layer("link.roundtrip_ns", "ns", Lower),
    layer("link.batch_roundtrip_ns_per_item", "ns", Lower),
    // moc-abcast ordering backends
    layer("abcast.order_wait_us_p50", "us", Lower),
    layer("abcast.order_wait_us_p99", "us", Lower),
    layer("abcast.to_sequencer_us_p50", "us", Lower),
    layer("abcast.fanout_us_p50", "us", Lower),
    layer("abcast.busy_us_per_op", "us", Lower),
    layer("abcast.batch_occupancy", "count", Higher),
    layer("abcast.sequencer.ns_per_item", "ns", Lower),
    layer("abcast.sequencer_b16.ns_per_item", "ns", Lower),
    layer("abcast.view.ns_per_item", "ns", Lower),
    layer("abcast.sharded.ns_per_item", "ns", Lower),
    // moc-protocol
    layer("protocol.busy_us_per_op", "us", Lower),
    layer("protocol.apply_us_p50", "us", Lower),
    layer("protocol.msgs_per_update", "count", Lower),
    layer("protocol.msgs_per_query", "count", Lower),
    layer("protocol.classify_ns", "ns", Lower),
    layer("protocol.store_apply_ns.rmw2", "ns", Lower),
    layer("protocol.store_apply_ns.q4", "ns", Lower),
    // moc-checker, moc-core, moc-audit
    layer("checker.msc_auto_ms", "ms", Lower),
    layer("checker.mlin_certified_ms", "ms", Lower),
    layer("checker.search_nodes", "count", Lower),
    layer("core.base_relation_ms", "ms", Lower),
    layer("core.closure_ms", "ms", Lower),
    layer("core.history_build_ms", "ms", Lower),
    layer("audit.cert_bytes", "count", Lower),
    layer("audit.ms", "ms", Lower),
    // moc-monitor
    layer("monitor.replay_ms", "ms", Lower),
    layer("monitor.windows_checked", "count", Lower),
    layer("monitor.certs", "count", Lower),
    layer("monitor.peak_live_nodes", "count", Lower),
    layer("monitor.us_per_event_first_half", "us", Lower),
    layer("monitor.us_per_event_second_half", "us", Lower),
    // the benchmark's own generator, and the cost of tracing
    layer("client.gen_late_us_p99", "us", Lower),
    layer("client.gen_ns_per_op", "ns", Lower),
    layer("client.latency_p99_us", "us", Lower),
    layer("client.latency_p999_us", "us", Lower),
    layer("client.clock_offset_ns", "ns", Lower),
    layer("client.cpu_us_per_op", "us", Lower),
    layer("client.peak_rss_mb", "MiB", Lower),
    layer("client.failed_ops_frac", "count", Lower),
    layer("trace.overhead_frac", "count", Lower),
];

/// The command of `BENCHMARK.json`; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 27;

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// two cannot drift: `benchmark spec > BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let block = |entries: Vec<Json>| {
        let lines: Vec<String> = entries
            .iter()
            .map(|e| format!("    {}", e.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let metric = |m: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name", json::str(m.name)),
            ("unit", json::str(m.unit)),
            ("better", json::str(m.better.word())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        obj(fields)
    };
    let command = Json::Arr(COMMAND.iter().map(|&c| json::str(c)).collect());
    let workloads = WORKLOADS
        .iter()
        .filter(|w| w.driven)
        .map(|w| obj(vec![("name", json::str(w.name)), ("why", json::str(w.why))]))
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.render(),
        block(workloads),
        block(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        block(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_is_the_best_or_the_median_of_the_repetitions() {
        let reps = [3.0, 9.0, 4.0, 5.0];
        let value = |name: &str| {
            let m = END_TO_END.iter().find(|m| m.name == name).unwrap();
            (m.value(&reps), m.value(&[]))
        };
        assert_eq!(value("throughput_ops_s"), (9.0, 0.0));
        assert_eq!(value("latency_p50_us"), (3.0, 0.0));
        assert_eq!(value("rss_mb_per_mop"), (4.5, 0.0));
        assert_eq!(value("setup_s"), (4.5, 0.0));
    }
}
