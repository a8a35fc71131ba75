//! Property-based tests for the core model: version-vector lattice laws,
//! relation algebra, and the program DSL's static/dynamic agreement.

use std::collections::BTreeSet;

use moc_core::history::MOpIdx;
use moc_core::ids::ObjectId;
use moc_core::inline::InlineList;
use moc_core::program::{
    execute, BinaryOp, CmpOp, Instr, MContext, Operand, Program, VecContext, NUM_REGS,
};
use moc_core::relations::Relation;
use moc_core::value::Value;
use moc_core::vv::VersionVector;
use proptest::prelude::*;

// ───────────────────────── version vectors ─────────────────────────

fn vv_strategy(len: usize) -> impl Strategy<Value = VersionVector> {
    proptest::collection::vec(0u64..50, len).prop_map(VersionVector::from_entries)
}

proptest! {
    #[test]
    fn join_is_commutative(a in vv_strategy(5), b in vv_strategy(5)) {
        prop_assert_eq!(a.join(&b), b.join(&a));
    }

    #[test]
    fn join_is_associative(a in vv_strategy(4), b in vv_strategy(4), c in vv_strategy(4)) {
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }

    #[test]
    fn join_is_idempotent_and_upper_bound(a in vv_strategy(6), b in vv_strategy(6)) {
        prop_assert_eq!(a.join(&a), a.clone());
        let j = a.join(&b);
        prop_assert!(a.leq(&j));
        prop_assert!(b.leq(&j));
        // Least upper bound: any other upper bound dominates the join.
        prop_assert!(j.leq(&a.join(&b).join(&j)));
    }

    #[test]
    fn merge_from_equals_join(a in vv_strategy(5), b in vv_strategy(5)) {
        let mut m = a.clone();
        m.merge_from(&b);
        prop_assert_eq!(m, a.join(&b));
    }

    #[test]
    fn leq_is_a_partial_order(a in vv_strategy(4), b in vv_strategy(4), c in vv_strategy(4)) {
        prop_assert!(a.leq(&a), "reflexive");
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(&a, &b, "antisymmetric");
        }
        if a.leq(&b) && b.leq(&c) {
            prop_assert!(a.leq(&c), "transitive");
        }
        // lt is strict.
        if a.lt(&b) {
            prop_assert!(!b.lt(&a));
            prop_assert!(a != b);
        }
    }

    #[test]
    fn bump_strictly_increases(mut a in vv_strategy(5), idx in 0usize..5) {
        let before = a.clone();
        let o = ObjectId::new(idx as u32);
        let new = a.bump(o);
        prop_assert!(before.lt(&a));
        prop_assert_eq!(new, before.get(o) + 1);
        prop_assert_eq!(a.total(), before.total() + 1);
    }
}

// ───────────────────────── relations ─────────────────────────

fn relation_strategy(n: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..n, 0..n), 0..(n * 2)).prop_map(move |edges| {
        let mut r = Relation::new(n);
        for (i, j) in edges {
            if i != j {
                r.add(MOpIdx(i), MOpIdx(j));
            }
        }
        r
    })
}

proptest! {
    #[test]
    fn closure_contains_original(r in relation_strategy(12)) {
        let c = r.transitive_closure();
        prop_assert!(c.includes(&r));
    }

    #[test]
    fn closure_is_transitive_and_idempotent(r in relation_strategy(10)) {
        let c = r.transitive_closure();
        for (i, j) in c.edges() {
            for k in c.successors(j) {
                prop_assert!(c.contains(i, k), "missing {i:?} -> {k:?}");
            }
        }
        prop_assert_eq!(c.transitive_closure(), c.clone());
    }

    #[test]
    fn topological_sort_is_linear_extension(r in relation_strategy(10)) {
        match r.topological_sort() {
            Some(order) => {
                let mut pos = vec![0usize; r.len()];
                for (p, &i) in order.iter().enumerate() {
                    pos[i.0] = p;
                }
                for (i, j) in r.edges() {
                    prop_assert!(pos[i.0] < pos[j.0]);
                }
                // Acyclic relations have irreflexive closures.
                prop_assert!(r.transitive_closure().is_irreflexive());
            }
            None => {
                // Cyclic: the closure must contain a self-loop.
                prop_assert!(!r.transitive_closure().is_irreflexive());
            }
        }
    }

    #[test]
    fn union_is_monotone(a in relation_strategy(8), b in relation_strategy(8)) {
        let u = a.union(&b);
        prop_assert!(u.includes(&a));
        prop_assert!(u.includes(&b));
        prop_assert_eq!(u.edge_count() <= a.edge_count() + b.edge_count(), true);
    }
}

// ───────────────────────── programs ─────────────────────────

const PROP_OBJECTS: u32 = 4;

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0u8..NUM_REGS as u8).prop_map(Operand::Reg),
        (-100i64..100).prop_map(Operand::Imm),
        (0u8..3).prop_map(Operand::Arg),
    ]
}

fn instr_strategy(len: usize) -> impl Strategy<Value = Instr> {
    let obj = (0u32..PROP_OBJECTS).prop_map(ObjectId::new);
    let binop = prop_oneof![
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::Min),
        Just(BinaryOp::Max)
    ];
    let cmp = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge)
    ];
    prop_oneof![
        (obj.clone(), 0u8..NUM_REGS as u8).prop_map(|(object, dst)| Instr::Read { object, dst }),
        (obj, operand_strategy()).prop_map(|(object, src)| Instr::Write { object, src }),
        (0u8..NUM_REGS as u8, operand_strategy()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
        (
            binop,
            0u8..NUM_REGS as u8,
            operand_strategy(),
            operand_strategy()
        )
            .prop_map(|(op, dst, lhs, rhs)| Instr::Binary { op, dst, lhs, rhs }),
        (0..len).prop_map(|target| Instr::Jump { target }),
        (operand_strategy(), cmp, operand_strategy(), 0..len).prop_map(
            |(lhs, cmp, rhs, target)| Instr::JumpIf {
                lhs,
                cmp,
                rhs,
                target
            }
        ),
        proptest::collection::vec(operand_strategy(), 0..3)
            .prop_map(|outputs| Instr::Return { outputs }),
    ]
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (1usize..12).prop_flat_map(|len| {
        proptest::collection::vec(instr_strategy(len), len).prop_map(|mut instrs| {
            // Validation requires every path to end in Return; appending a
            // terminator catches every fall-through path of the random body.
            instrs.push(Instr::Return { outputs: vec![] });
            Program::new("prop", instrs).expect("targets within range")
        })
    })
}

/// Context that records which objects were dynamically written.
struct TrackingContext {
    inner: VecContext,
    written: BTreeSet<ObjectId>,
}

impl MContext for TrackingContext {
    fn read(&mut self, object: ObjectId) -> Value {
        self.inner.read(object)
    }
    fn write(&mut self, object: ObjectId, value: Value) {
        self.written.insert(object);
        self.inner.write(object, value);
    }
}

proptest! {
    #[test]
    fn dynamic_writes_within_static_write_set(
        p in program_strategy(),
        args in proptest::collection::vec(-50i64..50, 3),
    ) {
        let mut ctx = TrackingContext {
            inner: VecContext::new(PROP_OBJECTS as usize),
            written: BTreeSet::new(),
        };
        // Random programs may loop forever: a modest fuel suffices for the
        // property (fuel exhaustion is an acceptable outcome).
        if execute(&p, &args, &mut ctx, 10_000).is_ok() {
            prop_assert!(
                ctx.written.is_subset(&p.potential_writes()),
                "dynamic {:?} ⊄ static {:?}",
                ctx.written,
                p.potential_writes()
            );
        }
    }

    #[test]
    fn execution_is_deterministic(
        p in program_strategy(),
        args in proptest::collection::vec(-50i64..50, 3),
        init in proptest::collection::vec(-50i64..50, PROP_OBJECTS as usize),
    ) {
        let run = || {
            let mut ctx = VecContext { values: init.clone() };
            let r = execute(&p, &args, &mut ctx, 10_000);
            (r.map(|o| o.outputs), ctx.values)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn fuel_bounds_are_respected(p in program_strategy()) {
        let mut ctx = VecContext::new(PROP_OBJECTS as usize);
        if let Ok(out) = execute(&p, &[0, 0, 0], &mut ctx, 500) {
            prop_assert!(out.steps <= 500);
        }
    }

    #[test]
    fn arity_covers_all_arg_references(p in program_strategy()) {
        // Supplying `arity` arguments must never produce ArgOutOfRange.
        let args = vec![0i64; p.arity()];
        let mut ctx = VecContext::new(PROP_OBJECTS as usize);
        if let Err(moc_core::program::ProgramError::ArgOutOfRange { .. }) =
            execute(&p, &args, &mut ctx, 5_000)
        {
            prop_assert!(false, "arity() under-approximated");
        }
    }
}

// ───────────────────────── histories (P 4.x) ─────────────────────────

mod history_props {
    use super::*;
    use moc_core::history::History;
    use moc_core::ids::{MOpId, ProcessId};
    use moc_core::legality::{read_write_precedence, sequence_is_legal};
    use moc_core::mop::{EventTime, MOpClass, MOpRecord};
    use moc_core::op::CompletedOp;
    use moc_core::relations::{process_order, reads_from, real_time};

    /// A serial plan step (process, objects, write?), as in the checker's
    /// property tests but local to core.
    #[derive(Debug, Clone)]
    pub struct Step {
        process: u8,
        objects: Vec<u8>,
        write: bool,
    }

    pub fn step_strategy() -> impl Strategy<Value = Step> {
        (
            0u8..4,
            proptest::collection::btree_set(0u8..PROP_OBJECTS as u8, 1..=2),
            any::<bool>(),
        )
            .prop_map(|(process, objects, write)| Step {
                process,
                objects: objects.into_iter().collect(),
                write,
            })
    }

    pub fn serial_from_plan(plan: &[Step]) -> History {
        let mut store: Vec<(i64, MOpId, u64)> = vec![(0, MOpId::INITIAL, 0); PROP_OBJECTS as usize];
        let mut seq = [0u32; 4];
        let mut records = Vec::new();
        let mut value = 1i64;
        for (i, step) in plan.iter().enumerate() {
            let id = MOpId::new(
                ProcessId::new(step.process as u32),
                seq[step.process as usize],
            );
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
                label: Default::default(),
            });
        }
        History::new(PROP_OBJECTS as usize, records).expect("serial plan valid")
    }

    proptest! {
        /// P 4.1: interfering triples pairwise conflict and share an
        /// object.
        #[test]
        fn interference_implies_pairwise_conflict(
            plan in proptest::collection::vec(step_strategy(), 1..12),
        ) {
            let h = serial_from_plan(&plan);
            for (alpha, beta, gamma) in h.interference_triples() {
                if let Some(beta) = beta {
                    prop_assert!(h.conflict(alpha, beta));
                    prop_assert!(h.conflict(beta, gamma));
                    prop_assert!(h.conflict(gamma, alpha));
                    // All three touch a common object.
                    let common = h
                        .objects(alpha)
                        .iter()
                        .any(|o| h.objects(beta).contains(o) && h.objects(gamma).contains(o));
                    prop_assert!(common, "interfering triple without a shared object");
                } else {
                    prop_assert!(h.conflict(gamma, alpha));
                }
            }
        }

        /// ~rw never orders an operation before itself, and a serial
        /// history's own execution order is always legal.
        #[test]
        fn serial_execution_order_is_legal(
            plan in proptest::collection::vec(step_strategy(), 1..12),
        ) {
            let h = serial_from_plan(&plan);
            let serial_order: Vec<_> = h.iter().map(|(i, _)| i).collect();
            prop_assert!(sequence_is_legal(&h, &serial_order));

            let rel = process_order(&h)
                .union(&reads_from(&h))
                .union(&real_time(&h))
                .transitive_closure();
            let rw = read_write_precedence(&h, &rel);
            prop_assert!(rw.is_irreflexive());
            // ~rw is consistent with the serial execution: it never
            // contradicts real time on a serial history.
            for (i, j) in rw.edges() {
                prop_assert!(
                    !rel.contains(j, i),
                    "~rw contradicts the serial order: {i:?} -> {j:?}"
                );
            }
        }

        /// Histories are equivalent to themselves and to re-timed copies
        /// (equivalence ignores event times).
        #[test]
        fn equivalence_ignores_timing(
            plan in proptest::collection::vec(step_strategy(), 1..10),
        ) {
            let h = serial_from_plan(&plan);
            prop_assert!(h.equivalent(&h));
            let mut records = h.records().to_vec();
            for (i, r) in records.iter_mut().enumerate() {
                r.invoked_at = EventTime::from_nanos(1_000 + i as u64 * 100);
                r.responded_at = EventTime::from_nanos(1_000 + i as u64 * 100 + 50);
            }
            let retimed = History::new(h.num_objects(), records).unwrap();
            prop_assert!(h.equivalent(&retimed));
        }
    }
}
