//! The names the benchmark emits are the names the issue fixed, and
//! `BENCHMARK.json` says the same as `spec.rs`.

use std::collections::BTreeSet;
use std::process::Command;

use moc_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use moc_core::json::{self, Json};

const WORKLOAD_NAMES: [&str; 8] = [
    "upd-blocking",
    "upd-pipelined",
    "upd-open-batched",
    "read-mostly-msc",
    "read-mostly-mlin",
    "upd-lossy-open",
    "verify-batch",
    "verify-stream",
];

/// Four of the issue's seven are per-layer `client.*` metrics here:
/// `failed_ops_frac` is 0 at HEAD and an end-to-end metric may never be 0
/// (it is also the `failed` count of every result line); `latency_p99_us`
/// and `cpu_us_per_op` did not repeat within any bound the driver accepts;
/// `peak_rss_mb` follows the throughput over a window bounded by time, so
/// memory is an end-to-end metric per operation, `rss_mb_per_mop`.
const END_TO_END_NAMES: [&str; 4] = [
    "throughput_ops_s",
    "latency_p50_us",
    "rss_mb_per_mop",
    "setup_s",
];

/// The workloads `BENCHMARK.json` lists for the driver.
const DRIVEN: [&str; 4] = [
    "upd-blocking",
    "upd-pipelined",
    "read-mostly-msc",
    "verify-stream",
];

const PER_LAYER_NAMES: [&str; 62] = [
    "runtime.submit_wait_us_p50",
    "runtime.submit_wait_us_p99",
    "runtime.retire_wait_us_p50",
    "runtime.retire_wait_us_p99",
    "runtime.reply_hop_us_p50",
    "runtime.replica_cpu_us_per_op",
    "runtime.network_cpu_us_per_op",
    "runtime.client_cpu_us_per_op",
    "runtime.ctx_switches_per_op",
    "runtime.queue_residency_us_per_op",
    "runtime.peak_depth",
    "runtime.out_of_order_per_op",
    "runtime.dropped_replies",
    "runtime.start_ms",
    "runtime.shutdown_ms",
    "link.frames_per_op",
    "link.acks_per_op",
    "link.retransmits_per_op",
    "link.dup_discarded_per_op",
    "link.spurious_retransmits_per_op",
    "link.roundtrip_ns",
    "link.batch_roundtrip_ns_per_item",
    "abcast.order_wait_us_p50",
    "abcast.order_wait_us_p99",
    "abcast.to_sequencer_us_p50",
    "abcast.fanout_us_p50",
    "abcast.busy_us_per_op",
    "abcast.batch_occupancy",
    "abcast.sequencer.ns_per_item",
    "abcast.sequencer_b16.ns_per_item",
    "abcast.view.ns_per_item",
    "abcast.sharded.ns_per_item",
    "protocol.busy_us_per_op",
    "protocol.apply_us_p50",
    "protocol.msgs_per_update",
    "protocol.msgs_per_query",
    "protocol.classify_ns",
    "protocol.store_apply_ns.rmw2",
    "protocol.store_apply_ns.q4",
    "checker.msc_auto_ms",
    "checker.mlin_certified_ms",
    "checker.search_nodes",
    "core.base_relation_ms",
    "core.closure_ms",
    "core.history_build_ms",
    "audit.cert_bytes",
    "audit.ms",
    "monitor.replay_ms",
    "monitor.windows_checked",
    "monitor.certs",
    "monitor.peak_live_nodes",
    "monitor.us_per_event_first_half",
    "monitor.us_per_event_second_half",
    "client.gen_late_us_p99",
    "client.gen_ns_per_op",
    "client.latency_p99_us",
    "client.latency_p999_us",
    "client.clock_offset_ns",
    "client.cpu_us_per_op",
    "client.peak_rss_mb",
    "client.failed_ops_frac",
    "trace.overhead_frac",
];

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn spec_names_are_the_issue_names() {
    let names = |ms: &[moc_benchmark::spec::Metric]| ms.iter().map(|m| m.name).collect::<Vec<_>>();
    assert_eq!(WORKLOADS.map(|w| w.name), WORKLOAD_NAMES);
    assert_eq!(names(&END_TO_END), END_TO_END_NAMES);
    assert_eq!(names(&PER_LAYER), PER_LAYER_NAMES);
    let all: Vec<&str> = WORKLOAD_NAMES
        .iter()
        .chain(&END_TO_END_NAMES)
        .chain(&PER_LAYER_NAMES)
        .copied()
        .collect();
    assert!(all.iter().all(|n| well_formed(n)));
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "used once"
    );
}

fn number(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(x)) => *x,
        other => panic!("{key}: {other:?}"),
    }
}

/// `BENCHMARK.json` is the text `benchmark spec` prints, and keeps inside
/// the limits the driver refuses a file for.
#[test]
fn benchmark_json_is_generated_from_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).unwrap();
    assert_eq!(file, moc_benchmark::spec::benchmark_json());
    assert!(file.len() <= 64 * 1024);
    let doc = json::parse(&file).unwrap();
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(listed, DRIVEN);
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(m.unit.len() <= 16 && m.unit.chars().all(ok), "{}", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better.word() == "lower"));
    assert!((1.0..=60.0).contains(&number(&doc, "run_seconds")));
}

/// Runs one workload the way the driver does and returns the metric names
/// of the result line.
fn emitted(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(number(&line, "failed"), 0.0);
    assert!(number(&line, "attempted") >= 1.0);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics");
    };
    for (name, m) in metrics {
        assert!(matches!(m.get("value"), Some(Json::Num(_))), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn a_driver_run_emits_exactly_the_vocabulary() {
    for workload in ["upd-open-batched", "verify-stream"] {
        assert_eq!(emitted(workload, "0"), END_TO_END_NAMES, "{workload}");
        assert_eq!(emitted(workload, "1"), PER_LAYER_NAMES, "{workload}");
    }
}
