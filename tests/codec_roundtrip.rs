//! End-to-end round trips through the history text codec: protocol
//! executions survive serialization with their checkability intact, and
//! the text is byte for byte what the `writeln!` renderer wrote.

use std::fmt::Write as _;

use moc_checker::conditions::{check, Condition, Strategy};
use moc_core::codec::{from_text, to_text};
use moc_core::history::{History, HistoryBuilder};
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::op::OpKind;
use moc_protocol::{run_cluster, ClusterConfig, MlinOverSequencer, MscOverSequencer};
use moc_workload::arb::{self, HistoryBounds};
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The renderer the codec used to be, kept as the reference: `writeln!`
/// through the `Display` impls of ids and classes.
fn reference_text(h: &History) -> String {
    let escape = |s: &str| {
        if s.is_empty() {
            "-".to_string()
        } else {
            s.replace(' ', "_")
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "history v1");
    let _ = writeln!(out, "objects {}", h.num_objects());
    for rec in h.records() {
        let _ = writeln!(
            out,
            "mop {} inv={} resp={} class={} label={}",
            rec.id,
            rec.invoked_at.as_nanos(),
            rec.responded_at.as_nanos(),
            rec.treated_as,
            escape(&rec.label),
        );
        for op in &rec.ops {
            match op.kind {
                OpKind::Write => {
                    let _ = writeln!(
                        out,
                        "  w o{} {} @{}",
                        op.object.index(),
                        op.value,
                        op.version
                    );
                }
                OpKind::Read => {
                    let _ = writeln!(
                        out,
                        "  r o{} {} from={} @{}",
                        op.object.index(),
                        op.value,
                        op.writer,
                        op.version
                    );
                }
            }
        }
        if !rec.outputs.is_empty() {
            let outputs: Vec<String> = rec.outputs.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "  outputs {}", outputs.join(" "));
        }
    }
    let _ = writeln!(out, "end");
    out
}

/// What a certificate's binding rests on: the text is the reference's, and
/// rendering what it parses back to gives the same text.
fn assert_canonical(h: &History, what: &str) {
    let text = to_text(h);
    assert_eq!(text, reference_text(h), "{what}");
    let back = from_text(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(to_text(&back), text, "{what}: not render-idempotent");
}

/// Labels, outputs and values at the edges of their ranges, the `init`
/// writer, `u64::MAX` event times, no records at all.
fn edge_cases() -> Vec<History> {
    let (x, y) = (ObjectId::new(0), ObjectId::new(1));
    let mut b = HistoryBuilder::new(2);
    let w = b
        .mop(ProcessId::new(0))
        .at(0, u64::MAX - 1)
        .write(x, i64::MIN)
        .write(y, -7)
        .label("")
        .outputs(vec![i64::MIN, -1, 0, i64::MAX])
        .finish();
    b.mop(ProcessId::new(7))
        .at(5, 9)
        .read_from(x, i64::MIN, w)
        .read_init(y)
        .label("two words_and under_scores")
        .finish();
    b.mop(ProcessId::new(7))
        .at(u64::MAX, u64::MAX)
        .write(y, i64::MAX)
        .label(" lead and trail ")
        .outputs(vec![42])
        .finish();
    b.mop(ProcessId::new(u32::MAX - 1))
        .at(1, 2)
        .read_init(x)
        .label("a_b")
        .finish();
    vec![b.build().unwrap(), HistoryBuilder::new(3).build().unwrap()]
}

#[test]
fn text_matches_the_writeln_reference_on_edge_cases() {
    for (i, h) in edge_cases().iter().enumerate() {
        assert_canonical(h, &format!("edge case {i}"));
    }
}

#[test]
fn text_matches_the_writeln_reference_on_grammar_histories() {
    let bounds = HistoryBounds {
        processes: 4,
        mops_per_process: 8,
        objects: 4,
        max_span: 3,
        update_fraction: 0.5,
    };
    let labels = ["", "rx", "a b", "a_b", " x ", "-"];
    for seed in 0..200 {
        let h = arb::history_from_seed(seed, &bounds);
        assert_canonical(&h, &format!("seed {seed}"));
        // The grammar writes no labels or outputs; give it some.
        let mut records = h.records().to_vec();
        for (i, rec) in records.iter_mut().enumerate() {
            rec.label = labels[i % labels.len()].into();
            rec.outputs = (0..i % 3).map(|k| (k as i64 - 1) * (seed as i64)).collect();
        }
        let decorated = History::new(h.num_objects(), records).unwrap();
        assert_canonical(&decorated, &format!("decorated seed {seed}"));
    }
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        processes: 3,
        ops_per_process: 6,
        num_objects: 3,
        update_fraction: 0.5,
        ..WorkloadSpec::default()
    }
}

#[test]
fn msc_history_round_trips_with_verdict() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scripts(&spec(), &mut rng);
        let report = run_cluster::<MscOverSequencer>(&ClusterConfig::new(3, seed), s);
        let text = to_text(&report.history);
        let parsed = from_text(&text).expect("codec round trip");
        assert_eq!(parsed.records(), report.history.records());

        // The verdicts agree on both sides of the round trip.
        for condition in [
            Condition::MSequentialConsistency,
            Condition::MLinearizability,
        ] {
            let a = check(&report.history, condition, Strategy::Auto)
                .unwrap()
                .satisfied;
            let b = check(&parsed, condition, Strategy::Auto).unwrap().satisfied;
            assert_eq!(a, b, "seed {seed}, {condition}");
        }
    }
}

#[test]
fn mlin_history_round_trips() {
    let mut rng = StdRng::seed_from_u64(9);
    let s = scripts(&spec(), &mut rng);
    let report = run_cluster::<MlinOverSequencer>(&ClusterConfig::new(3, 9), s);
    let text = to_text(&report.history);
    // The text is line-based and stable.
    assert!(text.starts_with("history v1\nobjects 3\n"));
    assert_eq!(text, to_text(&from_text(&text).unwrap()));
}
