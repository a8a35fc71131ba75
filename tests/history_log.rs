//! `HistoryLog`, the history a cluster records as its replicas answer,
//! against the process index `History::new` built before the log: a
//! stable counting sort of the whole record array by process, each run
//! sorted by sequence number only if it did not ascend, then one scan of
//! every run for a repeated id and an overlap. That two-pass index is kept
//! here as the oracle.
//!
//! Every defect `History::new` reports, pushed record by record through a
//! log, is reported identically; and on the grammar's histories, in the
//! order given, interleaved across processes and shuffled, with and
//! without a defect planted, the log gives the oracle's tables or the
//! oracle's error.

use std::collections::BTreeMap;

use moc_core::error::CoreError;
use moc_core::history::{History, HistoryLog, MOpIdx};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::{EventTime, MOpRecord, MOpRecordBuilder};
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

fn pushed(num_objects: usize, records: &[MOpRecord]) -> Result<History, CoreError> {
    let mut log = HistoryLog::new();
    for rec in records {
        log.push(rec.clone());
    }
    assert_eq!(log.len(), records.len());
    log.finish(num_objects)
}

/// The process index before the log, and the neighbour defects it found.
struct TwoPass {
    /// Each process's record indices, ascending by sequence number.
    runs: BTreeMap<ProcessId, Vec<usize>>,
    /// The first record, in the order given, that repeats an earlier id.
    duplicate: Option<usize>,
    /// The overlapping pair of the lowest process, then the lowest
    /// sequence number.
    overlap: Option<(usize, usize)>,
}

fn two_pass(records: &[MOpRecord]) -> TwoPass {
    // Pass one counts each process's records, pass two places them: a
    // stable grouping by process in the order given.
    let mut counts: BTreeMap<ProcessId, usize> = BTreeMap::new();
    for rec in records {
        *counts.entry(rec.process()).or_default() += 1;
    }
    let mut runs: BTreeMap<ProcessId, Vec<usize>> = counts
        .into_iter()
        .map(|(p, n)| (p, Vec::with_capacity(n)))
        .collect();
    for (i, rec) in records.iter().enumerate() {
        runs.get_mut(&rec.process()).expect("counted").push(i);
    }
    let seq = |i: usize| records[i].id.seq;
    let (mut duplicate, mut overlap) = (None::<usize>, None);
    for run in runs.values_mut() {
        if !run.windows(2).all(|w| seq(w[0]) < seq(w[1])) {
            run.sort_unstable_by_key(|&i| (seq(i), i));
        }
        for w in run.windows(2) {
            let (a, b) = (w[0], w[1]);
            if seq(a) == seq(b) {
                duplicate = Some(duplicate.map_or(b, |first| first.min(b)));
            } else if overlap.is_none() && records[b].invoked_at < records[a].responded_at {
                overlap = Some((a, b));
            }
        }
    }
    TwoPass {
        runs,
        duplicate,
        overlap,
    }
}

/// What `History::new` reports on `records` given the two-pass index: the
/// defects of one record in the order given, then the overlap, then the
/// first bad read in record then program order; or the index.
fn oracle(num_objects: usize, records: &[MOpRecord]) -> Result<TwoPass, CoreError> {
    let index = two_pass(records);
    for (i, rec) in records.iter().enumerate() {
        if index.duplicate == Some(i) {
            return Err(CoreError::DuplicateMOpId(rec.id));
        }
        if rec.id.is_initial() {
            return Err(CoreError::ReservedMOpId(rec.id));
        }
        if rec.responded_at < rec.invoked_at {
            return Err(CoreError::ResponseBeforeInvocation(rec.id));
        }
        if let Some(op) = rec.ops.iter().find(|op| op.object.index() >= num_objects) {
            return Err(CoreError::ObjectOutOfRange {
                object: op.object,
                num_objects,
            });
        }
    }
    if let Some((a, b)) = index.overlap {
        return Err(CoreError::OverlappingProcessOps {
            process: records[a].process(),
            earlier: records[a].id,
            later: records[b].id,
        });
    }
    for rec in records {
        for op in rec.external_reads() {
            if op.writer.is_initial() {
                continue;
            }
            let (reader, writer, object) = (rec.id, op.writer, op.object);
            match lookup(&index, records, writer) {
                None => {
                    return Err(CoreError::UnknownWriter {
                        reader,
                        writer,
                        object,
                    })
                }
                Some(w)
                    if !records[w]
                        .ops
                        .iter()
                        .any(|o| o.is_write() && o.object == object) =>
                {
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
    Ok(index)
}

fn lookup(index: &TwoPass, records: &[MOpRecord], id: MOpId) -> Option<usize> {
    let run = index.runs.get(&id.process)?;
    run.iter().copied().find(|&i| records[i].id == id)
}

/// The log and the oracle on `records`: the same error, or a history whose
/// process index is the oracle's and whose tables read off the records.
fn assert_log_matches_oracle(num_objects: usize, records: &[MOpRecord]) {
    let got = pushed(num_objects, records);
    let want = oracle(num_objects, records);
    let (h, index) = match (got, want) {
        (Ok(h), Ok(index)) => (h, index),
        (got, want) => {
            assert_eq!(got.err(), want.err(), "{records:?}");
            return;
        }
    };
    assert!(h.records() == records, "records in the order pushed");
    assert!(h.processes().into_iter().eq(index.runs.keys().copied()));
    for (&p, run) in &index.runs {
        let run: Vec<MOpIdx> = run.iter().map(|&i| MOpIdx(i)).collect();
        assert_eq!(h.by_process(p), run, "process {p:?}");
    }
    for (i, rec) in records.iter().enumerate() {
        let idx = MOpIdx(i);
        assert_eq!(h.idx_of(rec.id), Some(idx));
        let mut objects: Vec<ObjectId> = rec.ops.iter().map(|op| op.object).collect();
        let mut wobjects: Vec<ObjectId> = rec
            .ops
            .iter()
            .filter(|op| op.is_write())
            .map(|op| op.object)
            .collect();
        for set in [&mut objects, &mut wobjects] {
            set.sort_unstable();
            set.dedup();
        }
        assert_eq!(h.objects(idx), objects);
        assert_eq!(h.wobjects(idx), wobjects);
        let reads: Vec<(ObjectId, Option<MOpIdx>)> = rec
            .external_reads()
            .map(|op| {
                let writer = lookup(&index, records, op.writer).map(MOpIdx);
                (op.object, writer)
            })
            .collect();
        assert!(h.read_sources(idx).eq(reads), "{rec:?}");
    }
    for o in (0..num_objects as u32).map(ObjectId::new) {
        let writers: Vec<MOpIdx> = (0..records.len())
            .filter(|&i| {
                records[i]
                    .ops
                    .iter()
                    .any(|op| op.is_write() && op.object == o)
            })
            .map(MOpIdx)
            .collect();
        assert_eq!(h.writers_of(o), writers);
    }
}

/// Round robin over the processes, each process's records in the order
/// given: every run ascends, and no two neighbours share a process.
fn interleaved(records: &[MOpRecord]) -> Vec<MOpRecord> {
    let mut queues: BTreeMap<ProcessId, Vec<&MOpRecord>> = BTreeMap::new();
    for rec in records {
        queues.entry(rec.process()).or_default().push(rec);
    }
    let mut out = Vec::with_capacity(records.len());
    for k in 0.. {
        let before = out.len();
        out.extend(
            queues
                .values()
                .filter_map(|q| q.get(k))
                .map(|r| (*r).clone()),
        );
        if out.len() == before {
            break;
        }
    }
    out
}

/// `records` permuted by `order`: runs need not ascend any more.
fn shuffled(records: &[MOpRecord], order: u64) -> Vec<MOpRecord> {
    let mut out = records.to_vec();
    let n = out.len().max(1);
    for i in 0..out.len() {
        out.swap(i, (order >> (i % 48)) as usize % n);
    }
    out
}

/// One defect planted in `records`, chosen by `kind` and placed by `at`.
fn planted(records: &[MOpRecord], kind: u8, at: usize) -> Vec<MOpRecord> {
    let mut out = records.to_vec();
    let i = at % out.len();
    match kind % 6 {
        // A repeated id.
        0 => {
            let copy = out[i].clone();
            out.insert(at % (out.len() + 1), copy);
        }
        // An invocation before the last response of the same process.
        1 => {
            let t = out[i].invoked_at.as_nanos();
            out[i].invoked_at = EventTime::from_nanos(t.saturating_sub(90));
        }
        // A response before its invocation.
        2 => {
            out[i].responded_at = EventTime::from_nanos(out[i].invoked_at.as_nanos() / 2);
            out[i].invoked_at = EventTime::from_nanos(out[i].invoked_at.as_nanos() + 1);
        }
        // A read of a writer that is not there.
        3 => {
            let rec = &mut out[i];
            let ghost = MOpId::new(rec.process(), 999);
            rec.ops
                .push(CompletedOp::read(ObjectId::new(0), 0, ghost, 0));
        }
        // A read of a writer that never writes the object.
        4 => {
            let w = &out[(i + 1) % out.len()];
            let writes = |o: &ObjectId| w.ops.iter().any(|op| op.is_write() && op.object == *o);
            let unwritten = (0..BOUNDS.objects as u32)
                .map(ObjectId::new)
                .find(|o| !writes(o));
            if let Some(object) = unwritten {
                let writer = w.id;
                out[i].ops.push(CompletedOp::read(object, 0, writer, 0));
            }
        }
        // An object past the universe.
        _ => {
            let writer = out[i].id;
            out[i]
                .ops
                .push(CompletedOp::write(ObjectId::new(7), 1, writer, 0));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The grammar's well-formed histories, in three orders.
    #[test]
    fn the_log_matches_the_two_pass_index(seed in any::<u64>(), order in any::<u64>()) {
        let h = arb::history_from_seed(seed, &BOUNDS);
        let records = h.records();
        for layout in [records.to_vec(), interleaved(records), shuffled(records, order)] {
            assert_log_matches_oracle(BOUNDS.objects, &layout);
        }
    }

    /// The same with one defect planted: the oracle's error every time.
    #[test]
    fn the_log_reports_the_two_pass_error(
        seed in any::<u64>(),
        kind in any::<u8>(),
        at in any::<usize>(),
        order in any::<u64>(),
    ) {
        let h = arb::history_from_seed(seed, &BOUNDS);
        let records = planted(h.records(), kind, at);
        for layout in [records.clone(), interleaved(&records), shuffled(&records, order)] {
            assert_log_matches_oracle(BOUNDS.objects, &layout);
        }
    }
}

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn x() -> ObjectId {
    ObjectId::new(0)
}

/// `id` over `[at, to)`, writing x when `write`, else reading it from
/// `from`.
fn rec(id: MOpId, at: u64, to: u64, write: bool, from: MOpId) -> MOpRecord {
    let op = if write {
        CompletedOp::write(x(), 1, id, 0)
    } else {
        CompletedOp::read(x(), 1, from, 0)
    };
    MOpRecordBuilder::new(id).at(at, to).op(op).build()
}

/// Each error `History::new` reports, and the log pushed record by record
/// on the same records: the identical error.
#[test]
fn every_error_of_history_new_is_the_logs() {
    let (a, b) = (MOpId::new(p(0), 0), MOpId::new(p(0), 1));
    let c = MOpId::new(p(1), 0);
    let none = MOpId::INITIAL;
    let cases: Vec<(Vec<MOpRecord>, CoreError)> = vec![
        (
            vec![
                rec(a, 0, 5, true, none),
                rec(c, 1, 2, true, none),
                rec(a, 10, 15, true, none),
            ],
            CoreError::DuplicateMOpId(a),
        ),
        (
            vec![
                rec(a, 0, 5, true, none),
                rec(MOpId::INITIAL, 6, 7, true, none),
            ],
            CoreError::ReservedMOpId(MOpId::INITIAL),
        ),
        (
            vec![rec(a, 0, 5, true, none), rec(b, 9, 8, true, none)],
            CoreError::ResponseBeforeInvocation(b),
        ),
        (
            vec![MOpRecordBuilder::new(a)
                .at(0, 5)
                .op(CompletedOp::write(ObjectId::new(3), 1, a, 0))
                .build()],
            CoreError::ObjectOutOfRange {
                object: ObjectId::new(3),
                num_objects: 1,
            },
        ),
        (
            vec![
                rec(c, 0, 3, true, none),
                rec(a, 0, 10, true, none),
                rec(b, 5, 15, true, none),
            ],
            CoreError::OverlappingProcessOps {
                process: p(0),
                earlier: a,
                later: b,
            },
        ),
        (
            vec![rec(a, 0, 5, true, none), rec(c, 6, 9, false, b)],
            CoreError::UnknownWriter {
                reader: c,
                writer: b,
                object: x(),
            },
        ),
        (
            vec![rec(a, 0, 5, false, none), rec(c, 6, 9, false, a)],
            CoreError::ReaderWriterObjectMismatch {
                reader: c,
                writer: a,
                object: x(),
            },
        ),
    ];
    for (records, error) in cases {
        assert_eq!(History::new(1, records.clone()).unwrap_err(), error);
        assert_eq!(pushed(1, &records).unwrap_err(), error);
        // The same records interleaved differently reach the log's
        // fallback for a run that does not ascend.
        let mut reversed = records.clone();
        reversed.reverse();
        assert_eq!(
            pushed(1, &reversed).err(),
            History::new(1, reversed).err(),
            "{error}"
        );
    }
}
