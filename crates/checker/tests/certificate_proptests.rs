//! Property tests for the certificate pipeline.
//!
//! * The precedence-pruned search and the naive search return identical
//!   verdicts on the full random corpus.
//! * Every certificate `check_certified` emits is accepted by the
//!   *independent* auditor (`moc-audit` imports only `moc-core`).
//! * Guaranteed-invalid mutations of a valid certificate — fingerprint
//!   tampering, a version bump, a verdict flip, a duplicated witness
//!   entry, a legal witness with a `~p`, `~t` or `~x` pair swapped — are
//!   all rejected.

use moc_checker::admissible::{find_legal_extension, SearchLimits, SearchOutcome};
use moc_checker::certificate::check_certified;
use moc_checker::conditions::Condition;
use moc_checker::precedence::{pruned_search, PrecedenceGraph};
use moc_core::history::{History, HistoryBuilder};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::inline::InlineList;
use moc_core::json::{self, Json};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::op::CompletedOp;
use moc_core::relations::{process_order, reads_from};
use proptest::prelude::*;

/// One step of a serial execution plan (same shape as `proptests.rs`).
#[derive(Debug, Clone)]
struct Step {
    process: u8,
    objects: Vec<u8>,
    write: bool,
}

const OBJECTS: usize = 3;

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0u8..4,
        proptest::collection::btree_set(0u8..OBJECTS as u8, 1..=2),
        any::<bool>(),
    )
        .prop_map(|(process, objects, write)| Step {
            process,
            objects: objects.into_iter().collect(),
            write,
        })
}

fn serial_from_plan(plan: &[Step]) -> History {
    let mut store: Vec<(i64, MOpId, u64)> = vec![(0, MOpId::INITIAL, 0); OBJECTS];
    let mut seq = [0u32; 4];
    let mut records = Vec::new();
    let mut value = 1i64;
    for (i, step) in plan.iter().enumerate() {
        let p = ProcessId::new(step.process as u32);
        let id = MOpId::new(p, seq[step.process as usize]);
        seq[step.process as usize] += 1;
        let mut ops = InlineList::new();
        for &o in &step.objects {
            let obj = ObjectId::new(o as u32);
            if step.write {
                let (_, _, ver) = store[o as usize];
                store[o as usize] = (value, id, ver + 1);
                ops.push(CompletedOp::write(obj, value, id, ver + 1));
                value += 1;
            } else {
                let (v, w, ver) = store[o as usize];
                ops.push(CompletedOp::read(obj, v, w, ver));
            }
        }
        let t = i as u64 * 10;
        records.push(MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(t),
            responded_at: EventTime::from_nanos(t + 5),
            ops,
            outputs: InlineList::new(),
            treated_as: if step.write {
                MOpClass::Update
            } else {
                MOpClass::Query
            },
            label: format!("s{i}").into(),
        });
    }
    History::new(OBJECTS, records).expect("serial plan is well-formed")
}

/// Rewires each read to a random writer of the same object, producing
/// arbitrary (often inadmissible) histories.
fn scramble(h: &History, choices: &[u8]) -> History {
    let mut records = h.records().to_vec();
    let mut c = choices.iter().cycle();
    for rec in &mut records {
        let id = rec.id;
        for op in &mut rec.ops {
            if op.is_read() {
                let writers: Vec<_> = h
                    .writers_of(op.object)
                    .iter()
                    .map(|&w| h.record(w))
                    .filter(|r| r.id != id)
                    .collect();
                let pick = *c.next().unwrap() as usize;
                if writers.is_empty() || pick % (writers.len() + 1) == writers.len() {
                    *op = CompletedOp::read(op.object, 0, MOpId::INITIAL, 0);
                } else {
                    let w = writers[pick % (writers.len() + 1)];
                    let wr = w
                        .final_writes()
                        .into_iter()
                        .find(|x| x.object == op.object)
                        .unwrap();
                    *op = CompletedOp::read(op.object, wr.value, w.id, wr.version);
                }
            }
        }
    }
    History::new(h.num_objects(), records).expect("scramble keeps well-formedness")
}

/// Replaces the value at `path` (a chain of object keys) in a JSON
/// document, panicking if the path is absent — mutations must hit.
fn set_field(doc: &Json, path: &[&str], value: Json) -> Json {
    match doc {
        Json::Obj(fields) => {
            let (key, rest) = (path[0], &path[1..]);
            let mut out = Vec::with_capacity(fields.len());
            let mut hit = false;
            for (k, v) in fields {
                if k == key {
                    hit = true;
                    out.push((
                        k.clone(),
                        if rest.is_empty() {
                            value.clone()
                        } else {
                            set_field(v, rest, value.clone())
                        },
                    ));
                } else {
                    out.push((k.clone(), v.clone()));
                }
            }
            assert!(hit, "mutation path {path:?} missing from certificate");
            Json::Obj(out)
        }
        _ => panic!("mutation path {path:?} traverses a non-object"),
    }
}

const CONDITIONS: [Condition; 3] = [
    Condition::MSequentialConsistency,
    Condition::MNormality,
    Condition::MLinearizability,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pruned_search_agrees_with_naive_on_the_corpus(
        plan in proptest::collection::vec(step_strategy(), 1..9),
        choices in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let h = scramble(&serial_from_plan(&plan), &choices);
        let rel = process_order(&h).union(&reads_from(&h));
        let limits = SearchLimits::with_max_nodes(300_000);
        let (naive, _) = find_legal_extension(&h, &rel, limits);
        let graph = PrecedenceGraph::for_condition(&h, Condition::MSequentialConsistency);
        let (pruned, _) = pruned_search(&h, &graph, limits);
        if !matches!(naive, SearchOutcome::LimitExceeded)
            && !matches!(pruned, SearchOutcome::LimitExceeded)
        {
            prop_assert_eq!(naive.is_admissible(), pruned.is_admissible());
        }
    }

    #[test]
    fn symmetry_reduction_agrees_with_its_ablation(
        plan in proptest::collection::vec(step_strategy(), 1..9),
        choices in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let h = scramble(&serial_from_plan(&plan), &choices);
        let rel = process_order(&h).union(&reads_from(&h));
        let limits = SearchLimits::with_max_nodes(300_000);
        let (on, _) = find_legal_extension(&h, &rel, limits);
        let (off, s_off) = find_legal_extension(&h, &rel, limits.without_symmetry());
        if !matches!(on, SearchOutcome::LimitExceeded)
            && !matches!(off, SearchOutcome::LimitExceeded)
        {
            prop_assert_eq!(on.is_admissible(), off.is_admissible());
            prop_assert_eq!(s_off.symmetry_skips, 0);
        }
    }

    #[test]
    fn emitted_certificates_pass_the_independent_audit(
        plan in proptest::collection::vec(step_strategy(), 1..8),
        choices in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let h = scramble(&serial_from_plan(&plan), &choices);
        for condition in CONDITIONS {
            let limits = SearchLimits::with_max_nodes(300_000);
            if let Ok((report, cert)) = check_certified(&h, condition, limits) {
                let verdict = moc_audit::audit(&h, &cert.to_text());
                let verdict = verdict.expect("checker-emitted certificate must audit");
                // The verdict kind matches the report.
                prop_assert_eq!(cert.admissible, report.satisfied);
                if report.satisfied {
                    prop_assert!(verdict.is_verified());
                }
            }
        }
    }

    #[test]
    fn mutated_certificates_are_rejected(
        plan in proptest::collection::vec(step_strategy(), 1..8),
        choices in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let h = scramble(&serial_from_plan(&plan), &choices);
        let limits = SearchLimits::with_max_nodes(300_000);
        let Ok((_, cert)) = check_certified(
            &h, Condition::MSequentialConsistency, limits) else { return; };
        let doc = json::parse(&cert.to_text()).unwrap();

        // Fingerprint tamper: the certificate no longer binds to `h`.
        let bad = set_field(
            &doc,
            &["history", "fnv1a"],
            Json::Str("0000000000000000".into()),
        );
        prop_assert!(moc_audit::audit(&h, &bad.render()).is_err());

        // Version bump: unknown format versions are refused.
        let bad = set_field(&doc, &["version"], Json::Num(2.0));
        prop_assert!(moc_audit::audit(&h, &bad.render()).is_err());

        // Verdict flip: the proof no longer matches the claimed verdict.
        let flipped = if cert.admissible { "inadmissible" } else { "admissible" };
        let bad = set_field(&doc, &["verdict"], Json::Str(flipped.into()));
        prop_assert!(moc_audit::audit(&h, &bad.render()).is_err());

        // Duplicated witness entry: no longer a permutation.
        if cert.admissible && h.len() > 1 {
            let order = doc
                .get("proof")
                .and_then(|p| p.get("order"))
                .and_then(Json::as_arr)
                .expect("witness certificates carry an order")
                .to_vec();
            let mut dup = order.clone();
            dup[0] = dup[order.len() - 1].clone();
            let bad = set_field(&doc, &["proof", "order"], Json::Arr(dup));
            prop_assert!(moc_audit::audit(&h, &bad.render()).is_err());
        }
    }
}

/// The witness of `h` under `condition` with its first two entries
/// swapped, through the auditor.
fn audit_swapped_witness(h: &History, condition: Condition) -> Result<(), String> {
    let (_, cert) = check_certified(h, condition, SearchLimits::default()).unwrap();
    let doc = json::parse(&cert.to_text()).unwrap();
    let mut order = doc
        .get("proof")
        .and_then(|p| p.get("order"))
        .and_then(Json::as_arr)
        .expect("admissible: a witness")
        .to_vec();
    order.swap(0, 1);
    let bad = set_field(&doc, &["proof", "order"], Json::Arr(order));
    moc_audit::audit(h, &bad.render()).map(|_| ())
}

/// Two m-operations, one after the other in real time, that replay
/// legally in either order: both read the initial x, or (`writes`) each
/// writes an object of its own; on one process or on two.
fn back_to_back(writes: bool, one_process: bool) -> History {
    let (x, y) = (ObjectId::new(0), ObjectId::new(1));
    let mut b = HistoryBuilder::new(2);
    let second = ProcessId::new(u32::from(!one_process));
    for (p, own, at) in [(ProcessId::new(0), x, 0), (second, y, 20)] {
        let m = b.mop(p).at(at, at + 10);
        if writes {
            m.write(own, 1).finish();
        } else {
            m.read_init(x).finish();
        }
    }
    b.build().unwrap()
}

#[test]
fn legal_witnesses_swapped_across_process_real_time_or_object_order_are_rejected() {
    use Condition::{MLinearizability, MNormality};
    // (writes, one process, the conditions whose `~H` orders the pair):
    // `~p` under all three, `~t` alone, and `~x`.
    let cases = [
        (false, true, &CONDITIONS[..]),
        (true, false, &[MLinearizability][..]),
        (false, false, &[MNormality, MLinearizability][..]),
    ];
    for (writes, one_process, ordering) in cases {
        let h = back_to_back(writes, one_process);
        for condition in CONDITIONS {
            let verdict = audit_swapped_witness(&h, condition);
            let what = format!("writes {writes}, one process {one_process}, {condition}");
            if ordering.contains(&condition) {
                let err = verdict.expect_err(&what);
                assert!(err.contains("witness violates ~H"), "{what}: {err}");
            } else {
                verdict.unwrap_or_else(|e| panic!("{what}: the pair is unordered: {e}"));
            }
        }
    }
}
