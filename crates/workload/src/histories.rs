//! Synthetic history generators for the consistency checkers.
//!
//! Three families:
//!
//! * [`serial_history`] — a random *serial* execution: m-operations run one
//!   at a time against a simulated store, so the history is legal and
//!   m-linearizable by construction. Positive control for checkers at any
//!   size.
//! * [`random_history`] — operations get *random* read provenance (any
//!   writer of the object, or the initial value), decoupled from any real
//!   execution. Most such histories are inadmissible; deciding them forces
//!   the brute-force checker to actually search. Fuel for the Theorem 1/2
//!   scaling benchmarks.
//! * [`concurrent_writers_history`] — the adversarial family: `k`
//!   concurrent multi-object writers and `k` readers, each reader
//!   consistent with a *different* interleaving. Verification must consider
//!   many writer orders, exhibiting the exponential worst case.
//! * [`multi_component_history`] — several *disjoint* copies of the
//!   adversarial family, each on its own object and process range. A naive
//!   search multiplies the per-component state spaces; a component-aware
//!   search only sums them, so this family separates the two
//!   experimentally.
//! * [`poisoned_multi_component_history`] — the multi-component family
//!   plus one stale reader spliced into component 0: it reads a writer's
//!   value and then, later on the same process, reads the initial value
//!   back. The forced `~rw` edge closes a `~H+` cycle, so precedence
//!   analysis refutes the whole history without any search.

use moc_core::history::History;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::op::CompletedOp;
use rand::rngs::StdRng;
use rand::Rng;

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

fn distinct_objects(spec: &HistorySpec, rng: &mut StdRng) -> Vec<ObjectId> {
    let span = rng.gen_range(1..=spec.max_span.clamp(1, spec.num_objects));
    let mut objs = Vec::with_capacity(span);
    while objs.len() < span {
        let o = ObjectId::new(rng.gen_range(0..spec.num_objects) as u32);
        if !objs.contains(&o) {
            objs.push(o);
        }
    }
    objs
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

        let objs = distinct_objects(spec, rng);
        let is_update = rng.gen_bool(spec.update_fraction.clamp(0.0, 1.0));
        let mut ops = Vec::new();
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
            outputs: Vec::new(),
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

/// A history whose reads get random provenance — any writer of the object
/// or the initial value — under fully overlapping intervals. Usually
/// inadmissible; decided only by search.
pub fn random_history(spec: &HistorySpec, rng: &mut StdRng) -> History {
    // First pass: decide the shape (who writes what).
    struct Shape {
        id: MOpId,
        objs: Vec<ObjectId>,
        write_mask: Vec<bool>,
        invoked: u64,
        responded: u64,
    }
    let mut shapes = Vec::new();
    for p in 0..spec.processes {
        let mut t = 0u64;
        for seq in 0..spec.ops_per_process {
            let id = MOpId::new(ProcessId::new(p as u32), seq as u32);
            let objs = distinct_objects(spec, rng);
            let is_update = rng.gen_bool(spec.update_fraction.clamp(0.0, 1.0));
            let write_mask = objs
                .iter()
                .map(|_| is_update && rng.gen_bool(0.7))
                .collect::<Vec<_>>();
            let invoked = t + rng.gen_range(0..5);
            let responded = invoked + rng.gen_range(1..20);
            t = responded;
            shapes.push(Shape {
                id,
                objs,
                write_mask,
                invoked,
                responded,
            });
        }
    }
    // Collect writers per object.
    let mut writers: Vec<Vec<(MOpId, i64, u64)>> = vec![Vec::new(); spec.num_objects];
    let mut next_value = 1i64;
    let mut write_values = std::collections::HashMap::new();
    for s in &shapes {
        for (i, &o) in s.objs.iter().enumerate() {
            if s.write_mask[i] {
                let v = next_value;
                next_value += 1;
                let ver = writers[o.index()].len() as u64 + 1;
                writers[o.index()].push((s.id, v, ver));
                write_values.insert((s.id, o), (v, ver));
            }
        }
    }
    // Second pass: emit records with random read provenance.
    let records = shapes
        .iter()
        .map(|s| {
            let ops = s
                .objs
                .iter()
                .enumerate()
                .map(|(i, &o)| {
                    if s.write_mask[i] {
                        let (v, ver) = write_values[&(s.id, o)];
                        CompletedOp::write(o, v, s.id, ver)
                    } else {
                        // Random provenance among writers of o (excluding
                        // this op, which never writes o) or initial.
                        let cands: Vec<&(MOpId, i64, u64)> = writers[o.index()]
                            .iter()
                            .filter(|(w, _, _)| *w != s.id)
                            .collect();
                        if cands.is_empty() || rng.gen_bool(0.2) {
                            CompletedOp::read(o, 0, MOpId::INITIAL, 0)
                        } else {
                            let &(w, v, ver) = cands[rng.gen_range(0..cands.len())];
                            CompletedOp::read(o, v, w, ver)
                        }
                    }
                })
                .collect::<Vec<_>>();
            MOpRecord {
                id: s.id,
                invoked_at: EventTime::from_nanos(s.invoked),
                responded_at: EventTime::from_nanos(s.responded),
                ops,
                outputs: Vec::new(),
                treated_as: if s.write_mask.iter().any(|&w| w) {
                    MOpClass::Update
                } else {
                    MOpClass::Query
                },
                label: "random".into(),
            }
        })
        .collect();
    History::new(spec.num_objects, records).expect("random construction is well-formed")
}

/// The adversarial reader/writer family parameterized by `k`:
///
/// * `k` writer processes, each atomically writing all of `x_0..x_{m-1}`
///   (fully concurrent intervals);
/// * `k` reader processes, each reading all objects from a *randomly
///   chosen* writer (consistently — so each reader is individually
///   satisfiable, but the set of readers pins down interleavings).
///
/// Deciding m-sequential consistency over this family forces the search to
/// explore writer permutations; cost grows combinatorially with `k`.
pub fn concurrent_writers_history(k: usize, num_objects: usize, rng: &mut StdRng) -> History {
    let mut records = Vec::new();
    let objects: Vec<ObjectId> = (0..num_objects).map(|i| ObjectId::new(i as u32)).collect();
    // Writers: all concurrent.
    for w in 0..k {
        let id = MOpId::new(ProcessId::new(w as u32), 0);
        let ops = objects
            .iter()
            .map(|&o| CompletedOp::write(o, (w + 1) as i64, id, 1))
            .collect();
        records.push(MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(1_000),
            ops,
            outputs: Vec::new(),
            treated_as: MOpClass::Update,
            label: format!("writer{w}").into(),
        });
    }
    // Readers: each snapshots one random writer's values, concurrent with
    // everything.
    for r in 0..k {
        let id = MOpId::new(ProcessId::new((k + r) as u32), 0);
        let w = rng.gen_range(0..k);
        let wid = MOpId::new(ProcessId::new(w as u32), 0);
        let ops = objects
            .iter()
            .map(|&o| CompletedOp::read(o, (w + 1) as i64, wid, 1))
            .collect();
        records.push(MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(1_000),
            ops,
            outputs: Vec::new(),
            treated_as: MOpClass::Query,
            label: format!("reader{r}").into(),
        });
    }
    History::new(num_objects, records).expect("adversarial construction is well-formed")
}

/// One component of the multi-component family: the `k`-writer/`k`-reader
/// adversarial history translated to objects
/// `[c·m, (c+1)·m)` and processes `[c·2k, (c+1)·2k)`.
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
            outputs: Vec::new(),
            treated_as: MOpClass::Update,
            label: format!("c{c}writer{w}").into(),
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
            outputs: Vec::new(),
            treated_as: MOpClass::Query,
            label: format!("c{c}reader{r}").into(),
        });
    }
}

/// `components` disjoint copies of [`concurrent_writers_history`]: copy
/// `c` lives on objects `[c·m, (c+1)·m)` and processes `[c·2k, (c+1)·2k)`,
/// sharing nothing with the other copies. All intervals are fully
/// concurrent, so only the object footprints partition the history.
///
/// The family is always admissible (each reader snapshots one writer), but
/// a search that cannot decompose it must interleave all `components·2k`
/// m-operations at once, multiplying the per-component state spaces; a
/// component-aware search solves each copy independently and sums them.
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
        ops: vec![CompletedOp::read(x, 1, w0, 1)],
        outputs: Vec::new(),
        treated_as: MOpClass::Query,
        label: "fresh".into(),
    });
    records.push(MOpRecord {
        id: MOpId::new(pid, 1),
        invoked_at: EventTime::from_nanos(200),
        responded_at: EventTime::from_nanos(300),
        ops: vec![CompletedOp::read(x, 0, MOpId::INITIAL, 0)],
        outputs: Vec::new(),
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
    use moc_checker::SearchLimits;
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
    fn random_histories_are_wellformed_and_checkable() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut rejected = 0;
        for _ in 0..20 {
            let h = random_history(&HistorySpec::default(), &mut rng);
            assert!(!h.is_empty());
            let r = check(
                &h,
                Condition::MSequentialConsistency,
                Strategy::BruteForce(SearchLimits::with_max_nodes(200_000)),
            );
            if let Ok(report) = r {
                if !report.satisfied {
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 0, "random provenance should often be rejected");
    }

    #[test]
    fn concurrent_writers_with_consistent_readers_is_satisfiable() {
        // Each reader snapshots exactly one writer's full write set, so a
        // witness always exists: order the writers arbitrarily and place
        // every reader immediately after the writer it observed.
        let mut rng = StdRng::seed_from_u64(3);
        let h = concurrent_writers_history(4, 3, &mut rng);
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
        let h = concurrent_writers_history(2, 2, &mut rng);
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
        use std::collections::BTreeMap;
        let mut comp_of_obj: BTreeMap<usize, usize> = BTreeMap::new();
        for (_, rec) in h.iter() {
            let c: usize = rec.label[1..2].parse().unwrap();
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
