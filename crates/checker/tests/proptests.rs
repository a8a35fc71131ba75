//! Property tests for the checkers.
//!
//! * Serial executions are admissible under every condition, and the
//!   brute-force searcher finds them without backtracking.
//! * The checker is total on arbitrary random-provenance histories
//!   (no panics, stable verdicts) and its positive verdicts always carry
//!   validating witnesses.
//! * On real-time-total histories (every pair ordered), the Theorem 7
//!   fast path agrees with the brute force under the OO-constraint.

use moc_checker::admissible::{find_legal_extension, SearchLimits, SearchOutcome, SearchStats};
use moc_checker::conditions::{check, Condition, Strategy as CheckStrategy, StrategyUsed};
use moc_checker::precedence::{pruned_search, PrecedenceGraph};
use moc_checker::witness::{is_sequential, make_sequential_history};
use moc_core::constraints::Constraint;
use moc_core::history::History;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::inline::InlineList;
use moc_core::legality::sequence_witnesses_admissibility;
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::op::CompletedOp;
use moc_core::relations::{process_order, reads_from, real_time, Relation};
use proptest::prelude::*;

/// One step of a serial execution plan: which process acts, which objects
/// it touches, and whether it writes.
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

/// Materializes a serial history from a plan: steps execute one at a time
/// against a simulated store.
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

/// Rewires each read of a serial history to a random writer of the same
/// object, producing arbitrary (usually inconsistent) histories.
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

/// The pruned search over the m-SC graph, in the naive search's shape
/// (`rel` is the m-SC base relation it closes over).
fn pruned(h: &History, _rel: &Relation, limits: SearchLimits) -> (SearchOutcome, SearchStats) {
    let graph = PrecedenceGraph::for_condition(h, Condition::MSequentialConsistency);
    pruned_search(h, &graph, limits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serial_histories_are_always_admissible(
        plan in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        let h = serial_from_plan(&plan);
        let rel = process_order(&h)
            .union(&reads_from(&h))
            .union(&real_time(&h));
        let (outcome, stats) = find_legal_extension(&h, &rel, SearchLimits::default());
        let witness = outcome.witness().expect("serial history admissible");
        prop_assert!(sequence_witnesses_admissibility(&h, &rel, witness));
        prop_assert!(stats.nodes <= h.len() as u64 + 1, "no backtracking needed");

        // Witness materialization round-trips.
        let serial = make_sequential_history(&h, witness).unwrap();
        prop_assert!(is_sequential(&serial));
        prop_assert!(serial.equivalent(&h));

        // Real-time-total serial histories satisfy OO; the fast path must
        // agree (it always accepts here).
        let oo = Constraint::Oo;
        let fast = check(&h, Condition::MLinearizability, CheckStrategy::Constraint(oo))
            .expect("serial history is under OO via real time");
        prop_assert!(fast.satisfied);
        prop_assert_eq!(fast.strategy_used, StrategyUsed::Constraint(oo));
    }

    #[test]
    fn checker_is_total_and_witnesses_validate(
        plan in proptest::collection::vec(step_strategy(), 1..10),
        choices in proptest::collection::vec(any::<u8>(), 1..20),
    ) {
        let h = scramble(&serial_from_plan(&plan), &choices);
        let rel = process_order(&h).union(&reads_from(&h));
        // Scrambling may create reads-from cycles: still must not panic.
        let (outcome, _) =
            find_legal_extension(&h, &rel, SearchLimits::with_max_nodes(300_000));
        if let SearchOutcome::Admissible(w) = &outcome {
            prop_assert!(sequence_witnesses_admissibility(&h, &rel, w));
        }
        // Verdicts are deterministic.
        let (again, _) =
            find_legal_extension(&h, &rel, SearchLimits::with_max_nodes(300_000));
        prop_assert_eq!(
            matches!(outcome, SearchOutcome::Admissible(_)),
            matches!(again, SearchOutcome::Admissible(_))
        );
    }

    /// What sharing one transposition table across a component rests on:
    /// a memo hit only ever prunes a sub-tree already explored to
    /// refutation, so the table changes node counts and nothing else — not
    /// the verdict, and not which witness is found first.
    #[test]
    fn memo_ablation_never_changes_verdicts(
        plan in proptest::collection::vec(step_strategy(), 1..8),
        choices in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let h = scramble(&serial_from_plan(&plan), &choices);
        let rel = process_order(&h).union(&reads_from(&h));
        let limits = SearchLimits::with_max_nodes(200_000);
        for search in [find_legal_extension, pruned] {
            let (with_memo, memo_stats) = search(&h, &rel, limits);
            let (without, plain_stats) = search(&h, &rel, limits.without_memo());
            // Compare outcomes when both finished within budget.
            if !matches!(with_memo, SearchOutcome::LimitExceeded)
                && !matches!(without, SearchOutcome::LimitExceeded)
            {
                prop_assert_eq!(with_memo, without);
                prop_assert!(memo_stats.nodes <= plain_stats.nodes);
            }
        }
    }
}
