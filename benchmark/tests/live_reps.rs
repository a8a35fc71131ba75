//! Short live repetitions, in process: the tracing wrappers change
//! nothing the counters can see, and the seed reaches the traffic only.

use moc_benchmark::live::{run_rep, runtime_config, RepPlan};
use moc_benchmark::spec::{workload, Kind, LiveSpec, WORKLOADS};

const SMOKE_WINDOW_NS: u64 = 300_000_000;

fn live(name: &str) -> LiveSpec {
    match workload(name).unwrap().kind {
        Kind::Live(spec) => spec,
        _ => panic!("{name} is not live"),
    }
}

fn plan(spec: LiveSpec, seed: u64, traced: bool) -> RepPlan {
    RepPlan {
        spec,
        seed,
        warmup_ns: 100_000_000,
        window_ns: SMOKE_WINDOW_NS,
        max_ops: u64::MAX,
        traced,
    }
}

/// A wrapper that forgot to forward `set_batching` would fan every stamp
/// out alone: occupancy 1 and four frames per operation, not 1.2.
#[test]
fn traced_and_untraced_pipelined_reps_batch_alike() {
    let spec = live("upd-pipelined");
    let untraced = run_rep(&plan(spec, 5, false));
    let traced = run_rep(&plan(spec, 5, true));
    for r in [&untraced, &traced] {
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert!(r.metrics["abcast.batch_occupancy"] > 1.0, "{:?}", r.metrics);
    }
    let (a, b) = (
        untraced.metrics["link.frames_per_op"],
        traced.metrics["link.frames_per_op"],
    );
    assert!(
        (a - b).abs() / a < 0.02,
        "frames per op {a} untraced, {b} traced"
    );
    assert!(!traced.traces.is_empty() && untraced.traces.is_empty());
    assert!(traced.metrics["abcast.to_sequencer_us_p50"] > 0.0);
}

#[test]
fn the_seed_reaches_the_traffic_and_nothing_else() {
    for w in &WORKLOADS {
        let Kind::Live(spec) = w.kind else { continue };
        let config = |seed| format!("{:?}", runtime_config(&plan(spec, seed, false)));
        if spec.lossy {
            // The fault sampler is part of the generated input there.
            assert_ne!(config(1), config(2), "{}", w.name);
            assert_eq!(
                config(1).replace("seed: 1", "seed: 2"),
                config(2),
                "{}: only the network seed differs",
                w.name
            );
        } else {
            assert_eq!(config(1), config(2), "{}", w.name);
        }
    }
}
