//! Synthetic history generators for the consistency checkers.
//!
//! Three families (random read provenance is [`crate::arb::history`]'s):
//!
//! * [`serial_history`] — a random *serial* execution: m-operations run one
//!   at a time against a simulated store, so the history is legal and
//!   m-linearizable by construction. Positive control for checkers at any
//!   size.
//! * [`multi_component_history`] — the adversarial family: `k` concurrent
//!   multi-object writers and `k` readers, each reader consistent with a
//!   *different* interleaving, in one or several *disjoint* copies. One
//!   copy exhibits the exponential worst case of the Theorem 1/2
//!   benchmarks; across copies a naive search multiplies the
//!   per-component state spaces while a component-aware search only sums
//!   them, so the family separates the two experimentally.
//! * [`poisoned_multi_component_history`] — the multi-component family
//!   plus one stale reader spliced into component 0: it reads a writer's
//!   value and then, later on the same process, reads the initial value
//!   back. The forced `~rw` edge closes a `~H+` cycle, so precedence
//!   analysis refutes the whole history without any search.

use moc_core::history::History;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::inline::InlineList;
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::op::CompletedOp;
use rand::rngs::StdRng;
use rand::Rng;

use crate::arb::distinct_objects;

/// Parameters for the synthetic history generators.
#[derive(Debug, Clone, Copy)]
pub struct HistorySpec {
    /// Number of processes.
    pub processes: usize,
    /// m-operations per process.
    pub ops_per_process: usize,
    /// Object universe size.
    pub num_objects: usize,
    /// Probability an m-operation is an update.
    pub update_fraction: f64,
    /// Maximum objects per m-operation.
    pub max_span: usize,
}

impl Default for HistorySpec {
    fn default() -> Self {
        HistorySpec {
            processes: 3,
            ops_per_process: 4,
            num_objects: 4,
            update_fraction: 0.5,
            max_span: 2,
        }
    }
}

/// A random serial execution: always legal, m-linearizable, m-normal and
/// m-sequentially consistent.
pub fn serial_history(spec: &HistorySpec, rng: &mut StdRng) -> History {
    let mut store: Vec<(i64, MOpId, u64)> = vec![(0, MOpId::INITIAL, 0); spec.num_objects];
    let mut next_seq = vec![0u32; spec.processes];
    let mut remaining: Vec<usize> = vec![spec.ops_per_process; spec.processes];
    let mut records = Vec::new();
    let mut t = 0u64;
    let mut next_value = 1i64;

    while remaining.iter().any(|&r| r > 0) {
        let p = loop {
            let p = rng.gen_range(0..spec.processes);
            if remaining[p] > 0 {
                break p;
            }
        };
        remaining[p] -= 1;
        let pid = ProcessId::new(p as u32);
        let id = MOpId::new(pid, next_seq[p]);
        next_seq[p] += 1;

        let objs = distinct_objects(rng, spec.num_objects, spec.max_span);
        let is_update = rng.gen_bool(spec.update_fraction.clamp(0.0, 1.0));
        let mut ops = InlineList::new();
        for &o in &objs {
            if is_update && rng.gen_bool(0.7) {
                let (_, _, ver) = store[o.index()];
                let v = next_value;
                next_value += 1;
                store[o.index()] = (v, id, ver + 1);
                ops.push(CompletedOp::write(o, v, id, ver + 1));
            } else {
                let (v, w, ver) = store[o.index()];
                ops.push(CompletedOp::read(o, v, w, ver));
            }
        }
        let invoked = t;
        t += 10;
        let responded = t;
        t += 10;
        records.push(MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(invoked),
            responded_at: EventTime::from_nanos(responded),
            ops,
            outputs: InlineList::new(),
            treated_as: if is_update {
                MOpClass::Update
            } else {
                MOpClass::Query
            },
            label: "serial".into(),
        });
    }
    History::new(spec.num_objects, records).expect("serial construction is well-formed")
}

/// Component `c` of the multi-component family: `k` writers, each
/// atomically writing all of objects `[c·m, (c+1)·m)`, and `k` readers,
/// each reading all of them from one *randomly chosen* writer, on
/// processes `[c·2k, (c+1)·2k)`. Every interval is `[0, 1000]`.
fn component_records(
    c: usize,
    k: usize,
    objects_per_component: usize,
    rng: &mut StdRng,
    records: &mut Vec<MOpRecord>,
) {
    let obj_base = c * objects_per_component;
    let proc_base = (c * 2 * k) as u32;
    let objects: Vec<ObjectId> = (0..objects_per_component)
        .map(|i| ObjectId::new((obj_base + i) as u32))
        .collect();
    for w in 0..k {
        let id = MOpId::new(ProcessId::new(proc_base + w as u32), 0);
        let ops = objects
            .iter()
            .map(|&o| CompletedOp::write(o, (w + 1) as i64, id, 1))
            .collect();
        records.push(MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(1_000),
            ops,
            outputs: InlineList::new(),
            treated_as: MOpClass::Update,
            label: format!("writer{w}").into(),
        });
    }
    for r in 0..k {
        let id = MOpId::new(ProcessId::new(proc_base + (k + r) as u32), 0);
        let w = rng.gen_range(0..k);
        let wid = MOpId::new(ProcessId::new(proc_base + w as u32), 0);
        let ops = objects
            .iter()
            .map(|&o| CompletedOp::read(o, (w + 1) as i64, wid, 1))
            .collect();
        records.push(MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(1_000),
            ops,
            outputs: InlineList::new(),
            treated_as: MOpClass::Query,
            label: format!("reader{r}").into(),
        });
    }
}

/// The adversarial reader/writer family parameterized by `k`, in
/// `components` disjoint copies of `objects_per_component` objects each:
/// copy `c` holds `k` writers, each atomically writing all of its objects,
/// and `k` readers, each reading all of them from one *randomly chosen*
/// writer (consistently, so each reader is individually satisfiable, but
/// the set of readers pins down interleavings). Copy `c` lives on objects
/// `[c·m, (c+1)·m)` and processes `[c·2k, (c+1)·2k)`, sharing nothing with
/// the other copies. All intervals are fully concurrent, so only the
/// object footprints partition the history.
///
/// The family is always admissible (each reader snapshots one writer), but
/// deciding it forces a search to explore writer permutations: its cost
/// grows combinatorially with `k`. A search that cannot decompose it must
/// interleave all `components·2k` m-operations at once, multiplying the
/// per-component state spaces; a component-aware search solves each copy
/// independently and sums them.
pub fn multi_component_history(
    components: usize,
    k: usize,
    objects_per_component: usize,
    rng: &mut StdRng,
) -> History {
    let mut records = Vec::new();
    for c in 0..components {
        component_records(c, k, objects_per_component, rng, &mut records);
    }
    History::new(components * objects_per_component, records)
        .expect("multi-component construction is well-formed")
}

/// [`multi_component_history`] plus a stale reader appended to component 0:
/// a fresh process whose first m-operation reads object 0 from writer 0 and
/// whose second reads the *initial* value of the same object back.
///
/// The initial m-operation precedes every writer, so the second read forces
/// the `~rw` edge `stale ~rw writer0` (D 4.11) unconditionally, closing the
/// cycle `writer0 ~rf fresh ~p stale ~rw writer0` in `~H+`. Precedence
/// analysis therefore refutes this family in polynomial time, while a
/// search-only checker still has to explore and exhaust orderings.
pub fn poisoned_multi_component_history(
    components: usize,
    k: usize,
    objects_per_component: usize,
    rng: &mut StdRng,
) -> History {
    assert!(components >= 1 && k >= 1 && objects_per_component >= 1);
    let mut records = Vec::new();
    for c in 0..components {
        component_records(c, k, objects_per_component, rng, &mut records);
    }
    let pid = ProcessId::new((components * 2 * k) as u32);
    let w0 = MOpId::new(ProcessId::new(0), 0);
    let x = ObjectId::new(0);
    records.push(MOpRecord {
        id: MOpId::new(pid, 0),
        invoked_at: EventTime::from_nanos(0),
        responded_at: EventTime::from_nanos(100),
        ops: [CompletedOp::read(x, 1, w0, 1)].into(),
        outputs: InlineList::new(),
        treated_as: MOpClass::Query,
        label: "fresh".into(),
    });
    records.push(MOpRecord {
        id: MOpId::new(pid, 1),
        invoked_at: EventTime::from_nanos(200),
        responded_at: EventTime::from_nanos(300),
        ops: [CompletedOp::read(x, 0, MOpId::INITIAL, 0)].into(),
        outputs: InlineList::new(),
        treated_as: MOpClass::Query,
        label: "stale".into(),
    });
    History::new(components * objects_per_component, records)
        .expect("poisoned construction is well-formed")
}

/// Lays `tiles` disjoint copies of `h` end to end as one long stream:
/// tile `t` shifts every object by `t * h.num_objects()` (a fresh object
/// range, so tiles never interact), every per-process sequence number
/// past the previous tile's, every event time past the previous tile's
/// horizon, and remaps read provenance onto the shifted writer ids
/// within the same tile.
///
/// The result models unbounded traffic with repeating structure: it is
/// admissible under a condition exactly when `h` is, and because every
/// inter-tile pair of m-operations is both object-disjoint and
/// real-time ordered, an online checker can retire each tile at its
/// quiescence point. This is the workload behind the monitor's
/// bounded-memory gate and `bench_monitor`: live-graph memory must stay
/// flat no matter how many tiles stream past.
pub fn tile_history(h: &History, tiles: usize) -> History {
    assert!(tiles >= 1, "need at least one tile");
    let num_objects = h.num_objects();
    let horizon = h
        .records()
        .iter()
        .map(|r| r.responded_at.as_nanos())
        .max()
        .unwrap_or(0)
        + 10;
    let seq_stride = h.records().iter().map(|r| r.id.seq).max().unwrap_or(0) + 1;
    let mut records = Vec::with_capacity(h.len() * tiles);
    for t in 0..tiles {
        let dt = t as u64 * horizon;
        let dseq = t as u32 * seq_stride;
        let dobj = (t * num_objects) as u32;
        let shift_id = |id: MOpId| {
            if id == MOpId::INITIAL {
                id
            } else {
                MOpId::new(id.process, id.seq + dseq)
            }
        };
        for r in h.records() {
            records.push(MOpRecord {
                id: shift_id(r.id),
                invoked_at: EventTime::from_nanos(r.invoked_at.as_nanos() + dt),
                responded_at: EventTime::from_nanos(r.responded_at.as_nanos() + dt),
                ops: r
                    .ops
                    .iter()
                    .map(|op| CompletedOp {
                        object: ObjectId::new(op.object.as_u32() + dobj),
                        writer: shift_id(op.writer),
                        ..*op
                    })
                    .collect(),
                outputs: r.outputs.clone(),
                treated_as: r.treated_as,
                label: r.label.clone(),
            });
        }
    }
    History::new(num_objects * tiles, records).expect("tiling preserves well-formedness")
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_checker::conditions::{check, Condition, Strategy};
    use rand::SeedableRng;

    #[test]
    fn serial_histories_satisfy_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..5 {
            let _ = seed;
            let h = serial_history(&HistorySpec::default(), &mut rng);
            for c in [
                Condition::MSequentialConsistency,
                Condition::MNormality,
                Condition::MLinearizability,
            ] {
                assert!(check(&h, c, Strategy::Auto).unwrap().satisfied, "{c}");
            }
        }
    }

    #[test]
    fn concurrent_writers_with_consistent_readers_is_satisfiable() {
        // Each reader snapshots exactly one writer's full write set, so a
        // witness always exists: order the writers arbitrarily and place
        // every reader immediately after the writer it observed.
        let mut rng = StdRng::seed_from_u64(3);
        let h = multi_component_history(1, 4, 3, &mut rng);
        assert_eq!(h.len(), 8);
        let report = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(report.satisfied);
    }

    #[test]
    fn torn_reader_is_rejected() {
        // Build the k=2 family, then tear one reader: x from writer 0, the
        // rest from writer 1 — inadmissible (writers write all objects
        // atomically).
        let mut rng = StdRng::seed_from_u64(4);
        let h = multi_component_history(1, 2, 2, &mut rng);
        let mut records = h.records().to_vec();
        let w0 = MOpId::new(ProcessId::new(0), 0);
        let w1 = MOpId::new(ProcessId::new(1), 0);
        // Find a reader record and tear it.
        let reader = records
            .iter_mut()
            .find(|r| r.label.starts_with("reader"))
            .unwrap();
        reader.ops[0] = CompletedOp::read(ObjectId::new(0), 1, w0, 1);
        reader.ops[1] = CompletedOp::read(ObjectId::new(1), 2, w1, 1);
        let torn = History::new(2, records).unwrap();
        let report = check(&torn, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(
            !report.satisfied,
            "mixed-writer snapshot must be inadmissible"
        );
    }

    #[test]
    fn multi_component_is_admissible_and_decomposes() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = multi_component_history(3, 2, 2, &mut rng);
        assert_eq!(h.len(), 12);
        assert_eq!(h.num_objects(), 6);
        let report = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(report.satisfied);
        // The components really are disjoint: no object appears in two.
        // Component `c` runs on processes `[4c, 4c + 4)` (2k = 4).
        use std::collections::BTreeMap;
        let mut comp_of_obj: BTreeMap<usize, usize> = BTreeMap::new();
        for (_, rec) in h.iter() {
            let c = rec.id.process.as_u32() as usize / 4;
            for op in &rec.ops {
                assert_eq!(*comp_of_obj.entry(op.object.index()).or_insert(c), c);
            }
        }
    }

    #[test]
    fn poisoned_family_is_refuted_without_search() {
        let mut rng = StdRng::seed_from_u64(6);
        let h = poisoned_multi_component_history(2, 2, 2, &mut rng);
        let report = check(&h, Condition::MSequentialConsistency, Strategy::Auto).unwrap();
        assert!(!report.satisfied, "stale reader must be inadmissible");
        // The precedence graph alone refutes it: a ~H+ cycle exists.
        let g = moc_checker::PrecedenceGraph::for_condition(&h, Condition::MSequentialConsistency);
        assert!(g.cycle_proof().is_some(), "cycle must be forced statically");
    }

    #[test]
    fn tiling_preserves_admissibility_and_isolates_tiles() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = HistorySpec {
            processes: 2,
            ops_per_process: 3,
            num_objects: 2,
            ..HistorySpec::default()
        };
        let h = serial_history(&spec, &mut rng);
        let tiled = tile_history(&h, 4);
        assert_eq!(tiled.len(), 4 * h.len());
        assert_eq!(tiled.num_objects(), 4 * h.num_objects());
        let report = check(&tiled, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(report.satisfied, "serial tiles stay m-linearizable");
        // Tiles are object-disjoint and laid out in non-overlapping time
        // ranges, so an online checker can retire each at quiescence.
        let horizon = h
            .records()
            .iter()
            .map(|r| r.responded_at.as_nanos())
            .max()
            .unwrap()
            + 10;
        for r in tiled.records() {
            let tile = r.invoked_at.as_nanos() / horizon;
            assert_eq!(r.responded_at.as_nanos() / horizon, tile, "no tile overlap");
            for op in &r.ops {
                assert_eq!(op.object.index() / h.num_objects(), tile as usize);
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            serial_history(&HistorySpec::default(), &mut rng)
                .records()
                .to_vec()
        };
        assert_eq!(gen(9), gen(9));
    }
}
