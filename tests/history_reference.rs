//! `History`'s derived tables against a reference computed directly from
//! the records, on the synthesis grammar's histories, on windows cut out
//! of them (sequence-number gaps, as the sentinel builds them), and on the
//! two layouts a running system hands over: per-process logs laid end to
//! end (a cluster at shutdown) and records in response order (a simulator).
//! A hand-built table pins which of two defects `History::new` reports,
//! and mutated reads on the grammar's histories (unknown writers, runs of
//! one writer broken up, the reserved process) must report the defect a
//! reference reading the records directly finds.

use std::collections::BTreeSet;

use moc_core::error::CoreError;
use moc_core::history::{History, MOpIdx};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::{MOpRecord, MOpRecordBuilder};
use moc_core::op::CompletedOp;
use moc_workload::arb::{self, HistoryBounds};
use proptest::prelude::*;

const BOUNDS: HistoryBounds = HistoryBounds {
    processes: 4,
    mops_per_process: 5,
    objects: 5,
    max_span: 4,
    update_fraction: 0.6,
};

/// The records of `h` whose bit in `keep` is set, shuffled by `order`;
/// a read whose writer fell outside the window reads the initial value.
fn window(h: &History, keep: u32, order: u64) -> Vec<MOpRecord> {
    let mut records: Vec<MOpRecord> = h
        .records()
        .iter()
        .enumerate()
        .filter(|(i, _)| keep >> (i % 32) & 1 == 1)
        .map(|(_, r)| r.clone())
        .collect();
    let kept: BTreeSet<MOpId> = records.iter().map(|r| r.id).collect();
    for op in records.iter_mut().flat_map(|r| r.ops.iter_mut()) {
        if op.is_read() && !kept.contains(&op.writer) {
            *op = CompletedOp::read(op.object, 0, MOpId::INITIAL, 0);
        }
    }
    let n = records.len().max(1);
    for i in 0..records.len() {
        records.swap(i, (order >> (i % 48)) as usize % n);
    }
    records
}

/// Each process's records together and ascending, the processes in the
/// order `processes` names them.
fn logs(records: &[MOpRecord], processes: &[ProcessId]) -> Vec<MOpRecord> {
    let mut out = Vec::with_capacity(records.len());
    for &p in processes {
        let from = out.len();
        out.extend(records.iter().filter(|r| r.process() == p).cloned());
        out[from..].sort_by_key(|r| r.id.seq);
    }
    out
}

/// Every order a cluster's shutdown can lay the logs in — each rotation of
/// the process order, and the longest log first with the others in process
/// order — and the records in response order.
fn layouts(records: &[MOpRecord]) -> Vec<Vec<MOpRecord>> {
    let mut processes: Vec<ProcessId> = records.iter().map(|r| r.process()).collect();
    processes.sort_unstable();
    processes.dedup();
    let mut out = Vec::new();
    for _ in 0..processes.len() {
        out.push(logs(records, &processes));
        processes.rotate_left(1);
    }
    let length = |p: ProcessId| records.iter().filter(|r| r.process() == p).count();
    // The lowest process among the longest, the rest still ascending.
    if let Some(&longest) = processes.iter().rev().max_by_key(|&&p| length(p)) {
        processes.retain(|&p| p != longest);
        processes.insert(0, longest);
    }
    out.push(logs(records, &processes));
    let mut by_response = records.to_vec();
    by_response.sort_by_key(|r| r.responded_at);
    out.push(by_response);
    out
}

fn set_of(rec: &MOpRecord, writes_only: bool) -> Vec<ObjectId> {
    let set: BTreeSet<ObjectId> = rec
        .ops
        .iter()
        .filter(|op| op.is_write() || !writes_only)
        .map(|op| op.object)
        .collect();
    set.into_iter().collect()
}

fn position(records: &[MOpRecord], id: MOpId) -> Option<MOpIdx> {
    records.iter().position(|r| r.id == id).map(MOpIdx)
}

fn reads(records: &[MOpRecord], i: usize) -> Vec<(ObjectId, Option<MOpIdx>)> {
    records[i]
        .external_reads()
        .map(|op| (op.object, position(records, op.writer)))
        .collect()
}

fn check_against_reference(records: Vec<MOpRecord>) {
    let h = History::new(BOUNDS.objects, records.clone()).expect("a window is well-formed");
    let n = records.len();
    assert_eq!(h.records(), &records[..]);

    for (i, rec) in records.iter().enumerate() {
        let idx = MOpIdx(i);
        assert_eq!(h.objects(idx), &set_of(rec, false)[..]);
        assert_eq!(h.wobjects(idx), &set_of(rec, true)[..]);
        assert_eq!(h.read_sources(idx).collect::<Vec<_>>(), reads(&records, i));
        assert_eq!(h.idx_of(rec.id), Some(idx));
    }
    for o in (0..BOUNDS.objects as u32).map(ObjectId::new) {
        let writers: Vec<MOpIdx> = (0..n)
            .filter(|&i| set_of(&records[i], true).contains(&o))
            .map(MOpIdx)
            .collect();
        assert_eq!(h.writers_of(o), &writers[..]);
    }

    let processes: BTreeSet<ProcessId> = records.iter().map(|r| r.process()).collect();
    assert_eq!(h.processes(), processes);
    for p in (0..=BOUNDS.processes as u32).map(ProcessId::new) {
        let mut own: Vec<usize> = (0..n).filter(|&i| records[i].process() == p).collect();
        own.sort_by_key(|&i| records[i].id.seq);
        let own: Vec<MOpIdx> = own.into_iter().map(MOpIdx).collect();
        assert_eq!(h.by_process(p), &own[..]);
        // Every id the window could have held, present or not.
        for seq in 0..=BOUNDS.mops_per_process as u32 {
            let id = MOpId::new(p, seq);
            assert_eq!(h.idx_of(id), position(&records, id), "{id}");
        }
    }

    let mut triples = BTreeSet::new();
    for a in 0..n {
        for b in 0..n {
            let (oa, ob) = (set_of(&records[a], false), set_of(&records[b], false));
            let (wa, wb) = (set_of(&records[a], true), set_of(&records[b], true));
            let conflict =
                a != b && (wa.iter().any(|o| ob.contains(o)) || wb.iter().any(|o| oa.contains(o)));
            assert_eq!(h.conflict(MOpIdx(a), MOpIdx(b)), conflict, "{a} {b}");
            for c in 0..n {
                let wc = set_of(&records[c], true);
                let reads_b_overwritten_by_c = reads(&records, a)
                    .iter()
                    .any(|&(o, w)| w == Some(MOpIdx(b)) && wc.contains(&o));
                assert_eq!(
                    h.interfere(MOpIdx(a), MOpIdx(b), MOpIdx(c)),
                    a != b && b != c && a != c && reads_b_overwritten_by_c,
                    "{a} {b} {c}"
                );
            }
        }
        for (o, w) in reads(&records, a) {
            for c in (0..n).filter(|&c| c != a && Some(MOpIdx(c)) != w) {
                if set_of(&records[c], true).contains(&o) {
                    triples.insert((MOpIdx(a), w, MOpIdx(c)));
                }
            }
        }
    }
    let triples: Vec<_> = triples.into_iter().collect();
    assert_eq!(h.interference_triples(), triples);

    // Equivalence looks at ids and operations, never at record order.
    let mut reversed = records.clone();
    reversed.reverse();
    assert!(h.equivalent(&History::new(BOUNDS.objects, reversed).unwrap()));
    if let Some(last) = records.last() {
        let mut shorter = records.clone();
        shorter.pop();
        // Dropping a record others read from leaves no history at all.
        if let Ok(other) = History::new(BOUNDS.objects, shorter.clone()) {
            assert!(!h.equivalent(&other) && !other.equivalent(&h));
        }
        let mut emptied = last.clone();
        emptied.ops.clear();
        shorter.push(emptied);
        if let Ok(other) = History::new(BOUNDS.objects, shorter) {
            assert_eq!(h.equivalent(&other), last.ops.is_empty());
        }
    }
}

/// What `History::new` must report for well-formed records with at most
/// bad ids and bad reads in them: the first record carrying the initial
/// m-operation's process; failing that, the first read, in record then
/// program order, whose writer is not a record or does not write the
/// object read.
fn read_defect(records: &[MOpRecord]) -> Result<(), CoreError> {
    if let Some(rec) = records.iter().find(|r| r.id.is_initial()) {
        return Err(CoreError::ReservedMOpId(rec.id));
    }
    for rec in records {
        for op in rec.external_reads().filter(|op| !op.writer.is_initial()) {
            let (reader, writer, object) = (rec.id, op.writer, op.object);
            match records.iter().find(|r| r.id == writer) {
                None => {
                    return Err(CoreError::UnknownWriter {
                        reader,
                        writer,
                        object,
                    })
                }
                Some(w) if !set_of(w, true).contains(&object) => {
                    return Err(CoreError::ReaderWriterObjectMismatch {
                        reader,
                        writer,
                        object,
                    })
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// `records` with the reads `History::new` resolves once per (object,
/// writer) run disturbed, one mutation per copy: a read of an unknown
/// writer; the second read of a repeated run moved to another object; a
/// fresh process reading one object from writer A, then B, then A again;
/// and the last record renamed to the initial m-operation's process.
fn mutants(records: &[MOpRecord]) -> Vec<Vec<MOpRecord>> {
    let mut sites = Vec::new();
    let mut last = [None; BOUNDS.objects];
    for (i, rec) in records.iter().enumerate() {
        for (j, op) in rec.ops.iter().enumerate() {
            if op.is_read() && op.writer != rec.id {
                let repeated = last[op.object.index()].replace(op.writer) == Some(op.writer);
                sites.push((i, j, repeated));
            }
        }
    }
    let mut out = Vec::new();
    if let Some(&(i, j, _)) = sites.last() {
        let mut m = records.to_vec();
        let object = m[i].ops[j].object;
        m[i].ops[j] = CompletedOp::read(object, 1, MOpId::new(ProcessId::new(77), 3), 1);
        out.push(m);
    }
    if let Some(&(i, j, _)) = sites.iter().find(|s| s.2) {
        let mut m = records.to_vec();
        let op = m[i].ops[j];
        let object = ObjectId::new((op.object.index() as u32 + 1) % BOUNDS.objects as u32);
        m[i].ops[j] = CompletedOp::read(object, 1, op.writer, 1);
        out.push(m);
    }
    let writes: Vec<(ObjectId, MOpId)> = records
        .iter()
        .flat_map(|r| r.ops.iter().filter(|op| op.is_write()))
        .map(|op| (op.object, op.writer))
        .collect();
    for &(object, a) in writes.iter().take(3) {
        for &(_, b) in writes.iter().filter(|&&(_, b)| b != a).take(2) {
            let mut m = records.to_vec();
            for (seq, writer) in [a, b, a].into_iter().enumerate() {
                let id = MOpId::new(ProcessId::new(66), seq as u32);
                let t = 10_000 + 100 * seq as u64;
                let read = CompletedOp::read(object, 1, writer, 1);
                m.push(MOpRecordBuilder::new(id).at(t, t + 10).op(read).build());
            }
            out.push(m);
        }
    }
    if let Some(rec) = records.last() {
        let mut m = records.to_vec();
        let reserved = MOpId::new(ProcessId::new(u32::MAX), rec.id.seq);
        let renamed = m.last_mut().expect("not empty");
        renamed.id = reserved;
        for op in renamed.ops.iter_mut().filter(|op| op.is_write()) {
            op.writer = reserved;
        }
        out.push(m);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tables_match_the_records(seed in any::<u64>(), keep in any::<u32>(), order in any::<u64>()) {
        let h = arb::history_from_seed(seed, &BOUNDS);
        check_against_reference(h.records().to_vec());
        check_against_reference(window(&h, keep, order));
        for records in layouts(h.records()) {
            check_against_reference(records);
        }
    }

    /// Mutated reads on the grammar's histories and on every shutdown
    /// layout of them: the error reported is the reference's, and a
    /// mutant the reference accepts builds the reference's tables.
    #[test]
    fn read_defects_match_the_records(seed in any::<u64>()) {
        let h = arb::history_from_seed(seed, &BOUNDS);
        let mut originals = layouts(h.records());
        originals.push(h.records().to_vec());
        for records in originals {
            for mutant in mutants(&records) {
                let expected = read_defect(&mutant);
                let got = History::new(BOUNDS.objects, mutant.clone()).map(|_| ());
                prop_assert_eq!(&got, &expected);
                if expected.is_ok() {
                    check_against_reference(mutant);
                }
            }
        }
    }
}

/// Which defect is reported when a history has two, on records grouped by
/// process and on the same records out of order. Every expectation is what
/// the key-sorting constructor before this one reported.
#[test]
fn the_reported_defect_does_not_depend_on_the_layout() {
    let (x, y) = (ObjectId::new(0), ObjectId::new(1));
    let id = |p, seq| MOpId::new(ProcessId::new(p), seq);
    let rec = |id: MOpId, at: (u64, u64), ops: Vec<CompletedOp>| {
        ops.into_iter()
            .fold(MOpRecordBuilder::new(id).at(at.0, at.1), |b, op| b.op(op))
            .build()
    };
    let w = |o, by| CompletedOp::write(o, 1, by, 1);
    let r = |o, from| CompletedOp::read(o, 1, from, 1);
    let overlap = |p| CoreError::OverlappingProcessOps {
        process: ProcessId::new(p),
        earlier: id(p, 0),
        later: id(p, 1),
    };
    let out_of_range = CoreError::ObjectOutOfRange {
        object: ObjectId::new(9),
        num_objects: 2,
    };
    let unknown = CoreError::UnknownWriter {
        reader: id(2, 0),
        writer: id(7, 7),
        object: x,
    };
    let mismatch = CoreError::ReaderWriterObjectMismatch {
        reader: id(3, 0),
        writer: id(0, 0),
        object: y,
    };

    // Two records of process 0, the second invoked before the first
    // responded, and one sound record of process 1.
    let overlapping = || {
        vec![
            rec(id(0, 0), (0, 10), vec![w(x, id(0, 0))]),
            rec(id(0, 1), (5, 20), vec![w(x, id(0, 1))]),
            rec(id(1, 0), (0, 10), vec![w(y, id(1, 0))]),
        ]
    };
    let sound = || {
        vec![
            rec(id(0, 0), (0, 10), vec![w(x, id(0, 0))]),
            rec(id(0, 1), (20, 30), vec![w(x, id(0, 1))]),
            rec(id(1, 0), (0, 10), vec![w(y, id(1, 0))]),
        ]
    };
    let with = |mut records: Vec<MOpRecord>, more: Vec<MOpRecord>| {
        records.extend(more);
        records
    };
    let repeat = rec(id(1, 0), (30, 40), vec![w(y, id(1, 0))]);
    let beyond = rec(id(4, 0), (0, 10), vec![w(ObjectId::new(9), id(4, 0))]);
    let reads_unknown = rec(id(2, 0), (0, 10), vec![r(x, id(7, 7))]);
    let reads_mismatched = rec(id(3, 0), (0, 10), vec![r(y, id(0, 0))]);

    let rows: Vec<(&str, Vec<MOpRecord>, Result<(), CoreError>)> = vec![
        (
            "repeated id beats overlap",
            with(overlapping(), vec![repeat.clone()]),
            Err(CoreError::DuplicateMOpId(id(1, 0))),
        ),
        (
            "out-of-range object beats overlap",
            with(overlapping(), vec![beyond.clone()]),
            Err(out_of_range.clone()),
        ),
        (
            "overlap beats unknown writer",
            with(overlapping(), vec![reads_unknown.clone()]),
            Err(overlap(0)),
        ),
        (
            "overlap beats writer-object mismatch",
            with(overlapping(), vec![reads_mismatched.clone()]),
            Err(overlap(0)),
        ),
        (
            "the lower process's overlap beats the higher's",
            with(
                overlapping(),
                vec![
                    rec(id(5, 1), (5, 20), vec![w(y, id(5, 1))]),
                    rec(id(5, 0), (0, 10), vec![w(y, id(5, 0))]),
                ],
            ),
            Err(overlap(0)),
        ),
        (
            "a process split into two stretches",
            vec![
                rec(id(0, 0), (0, 10), vec![w(x, id(0, 0))]),
                rec(id(1, 0), (0, 10), vec![r(x, id(0, 2))]),
                rec(id(0, 1), (20, 30), vec![w(x, id(0, 1))]),
                rec(id(0, 2), (40, 50), vec![w(x, id(0, 2))]),
            ],
            Ok(()),
        ),
        (
            "an overlap across the split",
            vec![
                rec(id(0, 0), (0, 10), vec![w(x, id(0, 0))]),
                rec(id(1, 0), (0, 10), vec![w(y, id(1, 0))]),
                rec(id(0, 1), (5, 20), vec![w(x, id(0, 1))]),
            ],
            Err(overlap(0)),
        ),
        (
            "a descending run",
            vec![
                rec(id(0, 3), (60, 70), vec![r(x, id(0, 1))]),
                rec(id(0, 2), (40, 50), vec![w(y, id(0, 2))]),
                rec(id(0, 1), (20, 30), vec![w(x, id(0, 1))]),
                rec(id(0, 0), (0, 10), vec![w(x, id(0, 0))]),
            ],
            Ok(()),
        ),
        (
            "a descending run that overlaps",
            vec![
                rec(id(0, 2), (40, 50), vec![w(x, id(0, 2))]),
                rec(id(0, 1), (5, 20), vec![w(x, id(0, 1))]),
                rec(id(0, 0), (0, 10), vec![w(x, id(0, 0))]),
            ],
            Err(overlap(0)),
        ),
    ];
    for (name, records, expected) in rows {
        let mut reversed = records.clone();
        reversed.reverse();
        let mut layouts = layouts(&records);
        layouts.extend([records, reversed]);
        for records in layouts {
            let got = History::new(2, records).map(|_| ());
            assert_eq!(got, expected, "{name}");
        }
    }

    // Among defects of one class the first record, in the order given,
    // decides: these two change with the layout, and must.
    let both = |first: &MOpRecord, second: &MOpRecord| {
        let records = with(sound(), vec![first.clone(), second.clone()]);
        History::new(2, records).map(|_| ())
    };
    assert_eq!(both(&reads_unknown, &reads_mismatched), Err(unknown));
    assert_eq!(both(&reads_mismatched, &reads_unknown), Err(mismatch));
    assert_eq!(both(&reads_unknown, &beyond), Err(out_of_range.clone()));
    let late = rec(id(6, 0), (10, 5), vec![w(x, id(6, 0))]);
    assert_eq!(both(&beyond, &late), Err(out_of_range));
    assert_eq!(
        both(&late, &beyond),
        Err(CoreError::ResponseBeforeInvocation(id(6, 0)))
    );
    // The later of two records with one id is the repeat, wherever the
    // pair stands.
    assert_eq!(
        both(&repeat, &late),
        Err(CoreError::DuplicateMOpId(id(1, 0)))
    );
    assert_eq!(
        both(&late, &repeat),
        Err(CoreError::ResponseBeforeInvocation(id(6, 0)))
    );
}
