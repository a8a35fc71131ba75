//! Execution histories.
//!
//! A history models an execution of the concurrent system: a set of executed
//! m-operations together with the real-time placement of their invocation
//! and response events (Section 2.2). All histories are *well-formed*: each
//! process subhistory is sequential (P 4.2). [`History::new`] validates
//! this, along with referential integrity of the recorded reads-from
//! provenance.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::ids::{MOpId, ObjectId, ProcessId};
use crate::mop::{EventTime, MOpRecord, MOpRecordBuilder};
use crate::op::CompletedOp;
use crate::value::Value;

/// Dense index of an m-operation within a [`History`].
///
/// All relation machinery ([`crate::relations::Relation`]) works over these
/// indices rather than [`MOpId`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MOpIdx(pub usize);

impl MOpIdx {
    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MOpIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Where one record's rows start in the three flat per-record tables.
/// Row `i + 1` ends record `i`, so the table has `len() + 1` rows.
#[derive(Debug, Clone, Copy, Default)]
struct Rows {
    objects: usize,
    wobjects: usize,
    reads: usize,
}

/// A validated, well-formed execution history.
///
/// The derived data is held per history, not per record: `objects(α)`,
/// `wobjects(α)` and the resolved external reads of all records lie end to
/// end in three flat tables, and one table holds every process subhistory.
#[derive(Debug, Clone)]
pub struct History {
    num_objects: usize,
    records: Vec<MOpRecord>,
    rows: Vec<Rows>,
    /// Per record, ascending and without repeats.
    objects: Vec<ObjectId>,
    /// Per record, ascending and without repeats.
    wobjects: Vec<ObjectId>,
    /// External reads resolved to history indices: `(object, writer)` where
    /// `writer = None` denotes the imaginary initial m-operation.
    read_sources: Vec<(ObjectId, Option<MOpIdx>)>,
    /// For each object, the m-operations that write it (final writes).
    writers: Vec<Vec<MOpIdx>>,
    /// Record indices grouped by process (ascending) and, within a
    /// process, ascending by sequence number.
    order: Vec<MOpIdx>,
    /// `seqs[k]` is the sequence number of record `order[k]`.
    seqs: Vec<u32>,
    /// Each process and its run in `order`, ascending by process.
    runs: Vec<(ProcessId, Range<usize>)>,
}

impl History {
    /// Validates `records` and builds a history over `num_objects` objects.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if any record references an out-of-range
    /// object, ids collide, a process subhistory is not sequential, a
    /// response precedes its invocation, or a read's recorded writer does
    /// not exist / never writes the object read.
    ///
    /// Which of several defects is reported depends on the records alone:
    /// the first record, in the order given, that repeats an earlier id,
    /// responds before its invocation or touches an out-of-range object
    /// (checked in that order); failing that, the overlapping pair of the
    /// lowest process, then the lowest sequence number; failing that, the
    /// first read, in record then program order, with a bad writer.
    pub fn new(num_objects: usize, records: Vec<MOpRecord>) -> Result<Self, CoreError> {
        let mut keys: Vec<(MOpId, usize)> = records
            .iter()
            .enumerate()
            .map(|(i, rec)| (rec.id, i))
            .collect();
        keys.sort_unstable();
        // Equal ids sort by index, so the later of a pair is the record
        // that collides.
        let first_duplicate = keys
            .windows(2)
            .filter(|pair| pair[0].0 == pair[1].0)
            .map(|pair| pair[1].1)
            .min();

        let mut rows = Vec::with_capacity(records.len() + 1);
        let mut next = Rows::default();
        let mut objects = Vec::new();
        let mut wobjects = Vec::new();
        let mut writers = vec![Vec::new(); num_objects];
        // The last record seen to touch each object; for writes, the tail of
        // the object's writer list says the same.
        let mut touched = vec![usize::MAX; num_objects];
        for (i, rec) in records.iter().enumerate() {
            if first_duplicate == Some(i) {
                return Err(CoreError::DuplicateMOpId(rec.id));
            }
            if rec.responded_at < rec.invoked_at {
                return Err(CoreError::ResponseBeforeInvocation(rec.id));
            }
            rows.push(next);
            for op in &rec.ops {
                if op.object.index() >= num_objects {
                    return Err(CoreError::ObjectOutOfRange {
                        object: op.object,
                        num_objects,
                    });
                }
                if std::mem::replace(&mut touched[op.object.index()], i) != i {
                    objects.push(op.object);
                }
                let writers = &mut writers[op.object.index()];
                if op.is_write() && writers.last() != Some(&MOpIdx(i)) {
                    writers.push(MOpIdx(i));
                    wobjects.push(op.object);
                }
            }
            objects[next.objects..].sort_unstable();
            wobjects[next.wobjects..].sort_unstable();
            next = Rows {
                objects: objects.len(),
                wobjects: wobjects.len(),
                reads: next.reads + rec.external_reads().count(),
            };
        }
        rows.push(next);

        // Per-process sequentiality: in sequence-number order, each
        // m-operation responds before the next is invoked.
        let mut runs: Vec<(ProcessId, Range<usize>)> = Vec::new();
        for (k, &(id, i)) in keys.iter().enumerate() {
            match runs.last_mut() {
                Some((process, run)) if *process == id.process => {
                    let (a, b) = (&records[keys[k - 1].1], &records[i]);
                    if b.invoked_at < a.responded_at {
                        return Err(CoreError::OverlappingProcessOps {
                            process: id.process,
                            earlier: a.id,
                            later: b.id,
                        });
                    }
                    run.end = k + 1;
                }
                _ => runs.push((id.process, k..k + 1)),
            }
        }

        let mut history = History {
            num_objects,
            records,
            rows,
            objects,
            wobjects,
            read_sources: Vec::new(),
            writers,
            order: keys.iter().map(|&(_, i)| MOpIdx(i)).collect(),
            seqs: keys.iter().map(|&(id, _)| id.seq).collect(),
            runs,
        };

        // Resolve read provenance and validate it.
        let mut read_sources = Vec::with_capacity(next.reads);
        for rec in &history.records {
            for op in rec.external_reads() {
                let writer = if op.writer.is_initial() {
                    None
                } else {
                    let widx = history.idx_of(op.writer).ok_or(CoreError::UnknownWriter {
                        reader: rec.id,
                        writer: op.writer,
                        object: op.object,
                    })?;
                    if !history.wobjects(widx).contains(&op.object) {
                        return Err(CoreError::ReaderWriterObjectMismatch {
                            reader: rec.id,
                            writer: op.writer,
                            object: op.object,
                        });
                    }
                    Some(widx)
                };
                read_sources.push((op.object, writer));
            }
        }
        history.read_sources = read_sources;
        Ok(history)
    }

    /// Record `idx`'s rows in the flat table whose offsets are `column`.
    fn rows(&self, idx: MOpIdx, column: fn(&Rows) -> usize) -> Range<usize> {
        column(&self.rows[idx.0])..column(&self.rows[idx.0 + 1])
    }

    /// `process`'s run in `order`.
    fn run(&self, process: ProcessId) -> Range<usize> {
        let found = self.runs.binary_search_by_key(&process, |&(p, _)| p);
        found.map_or(0..0, |r| self.runs[r].1.clone())
    }

    /// Number of m-operations in the history.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the history contains no m-operations.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Size of the object universe.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// All records, in construction order.
    pub fn records(&self) -> &[MOpRecord] {
        &self.records
    }

    /// The record at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn record(&self, idx: MOpIdx) -> &MOpRecord {
        &self.records[idx.0]
    }

    /// Looks up the index of an m-operation by id.
    pub fn idx_of(&self, id: MOpId) -> Option<MOpIdx> {
        let run = self.run(id.process);
        let seqs = &self.seqs[run.clone()];
        // Sequence numbers ascend strictly, so `id.seq` sits no further
        // into the run than its distance from the first: exactly there
        // when the run has no gaps, as every run but a sentinel window's.
        let guess = (id.seq.checked_sub(*seqs.first()?)? as usize).min(seqs.len() - 1);
        let k = if seqs[guess] == id.seq {
            guess
        } else {
            seqs[..guess].binary_search(&id.seq).ok()?
        };
        Some(self.order[run.start + k])
    }

    /// Iterates over `(index, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MOpIdx, &MOpRecord)> {
        self.records.iter().enumerate().map(|(i, r)| (MOpIdx(i), r))
    }

    /// The set of processes appearing in the history.
    pub fn processes(&self) -> BTreeSet<ProcessId> {
        self.runs.iter().map(|(p, _)| *p).collect()
    }

    /// The process subhistory `H|P`, in process order.
    pub fn by_process(&self, process: ProcessId) -> &[MOpIdx] {
        &self.order[self.run(process)]
    }

    /// `objects(α)` for the m-operation at `idx`, ascending.
    pub fn objects(&self, idx: MOpIdx) -> &[ObjectId] {
        &self.objects[self.rows(idx, |r| r.objects)]
    }

    /// `wobjects(α)` for the m-operation at `idx`, ascending.
    pub fn wobjects(&self, idx: MOpIdx) -> &[ObjectId] {
        &self.wobjects[self.rows(idx, |r| r.wobjects)]
    }

    /// The external reads of `idx` resolved to history indices:
    /// `(object, writer)` pairs with `None` for the initial m-operation.
    pub fn read_sources(&self, idx: MOpIdx) -> &[(ObjectId, Option<MOpIdx>)] {
        &self.read_sources[self.rows(idx, |r| r.reads)]
    }

    /// `rfobjects(H, α, β)`: the objects that `alpha` reads from `beta`
    /// (D 4.3 context). `beta = None` denotes the initial m-operation.
    pub fn rfobjects(&self, alpha: MOpIdx, beta: Option<MOpIdx>) -> BTreeSet<ObjectId> {
        self.read_sources(alpha)
            .iter()
            .filter(|(_, w)| *w == beta)
            .map(|(o, _)| *o)
            .collect()
    }

    /// The m-operations that write `object`.
    pub fn writers_of(&self, object: ObjectId) -> &[MOpIdx] {
        &self.writers[object.index()]
    }

    /// `conflict(α, β)` (D 4.1): distinct m-operations that share an object
    /// at least one of them writes.
    pub fn conflict(&self, a: MOpIdx, b: MOpIdx) -> bool {
        if a == b {
            return false;
        }
        let shares = |w: MOpIdx, o: MOpIdx| {
            let touched = self.objects(o);
            self.wobjects(w).iter().any(|x| touched.contains(x))
        };
        shares(a, b) || shares(b, a)
    }

    /// `interfere(H, α, β, γ)` (D 4.2): distinct m-operations such that
    /// `gamma` writes some object that `alpha` reads from `beta`.
    pub fn interfere(&self, alpha: MOpIdx, beta: MOpIdx, gamma: MOpIdx) -> bool {
        if alpha == beta || beta == gamma || alpha == gamma {
            return false;
        }
        let wg = self.wobjects(gamma);
        self.read_sources(alpha)
            .iter()
            .any(|&(o, w)| w == Some(beta) && wg.contains(&o))
    }

    /// All interfering triples `(alpha, beta, gamma)` in the history, i.e.
    /// triples for which `gamma` writes an object `alpha` reads from `beta`.
    ///
    /// The initial m-operation also participates as a `beta`; those triples
    /// are reported with `beta = None`.
    pub fn interference_triples(&self) -> Vec<(MOpIdx, Option<MOpIdx>, MOpIdx)> {
        let mut out = Vec::new();
        for i in 0..self.len() {
            let alpha = MOpIdx(i);
            for &(obj, writer) in self.read_sources(alpha) {
                for &gamma in &self.writers[obj.index()] {
                    if gamma == alpha || Some(gamma) == writer {
                        continue;
                    }
                    out.push((alpha, writer, gamma));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether two histories are *equivalent* (Section 2.2): same process
    /// subhistories and same reads-from relation. Records are matched by id.
    pub fn equivalent(&self, other: &History) -> bool {
        // Equal ids imply equal process subhistories: each side orders a
        // process's records by sequence number.
        self.len() == other.len()
            && self.num_objects == other.num_objects
            && self.records.iter().all(|rec| {
                let theirs = other.idx_of(rec.id).map(|idx| other.record(idx));
                theirs.is_some_and(|theirs| theirs.ops == rec.ops)
            })
    }
}

/// Incrementally constructs a [`History`], assigning per-process sequence
/// numbers automatically. Intended for tests, examples and the paper's
/// worked figures.
///
/// See the crate-level documentation for an example.
#[derive(Debug)]
pub struct HistoryBuilder {
    num_objects: usize,
    records: Vec<MOpRecord>,
    next_seq: HashMap<ProcessId, u32>,
}

impl HistoryBuilder {
    /// Starts a builder over `num_objects` objects.
    pub fn new(num_objects: usize) -> Self {
        HistoryBuilder {
            num_objects,
            records: Vec::new(),
            next_seq: HashMap::new(),
        }
    }

    /// Begins a new m-operation on `process`.
    pub fn mop(&mut self, process: ProcessId) -> MOpBuilder<'_> {
        let seq = self.next_seq.entry(process).or_insert(0);
        let id = MOpId::new(process, *seq);
        *seq += 1;
        MOpBuilder {
            parent: self,
            inner: MOpRecordBuilder::new(id),
            id,
        }
    }

    /// Finishes the history.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`History::new`].
    pub fn build(self) -> Result<History, CoreError> {
        History::new(self.num_objects, self.records)
    }
}

/// Builder for a single m-operation within a [`HistoryBuilder`].
#[derive(Debug)]
pub struct MOpBuilder<'a> {
    parent: &'a mut HistoryBuilder,
    inner: MOpRecordBuilder,
    id: MOpId,
}

impl<'a> MOpBuilder<'a> {
    /// Sets invocation and response times (raw nanoseconds).
    pub fn at(mut self, invoked: u64, responded: u64) -> Self {
        self.inner = self.inner.at(invoked, responded);
        self
    }

    /// Appends a write `w(object)value`.
    pub fn write(mut self, object: ObjectId, value: Value) -> Self {
        self.inner = self.inner.op(CompletedOp::write(object, value, self.id, 0));
        self
    }

    /// Appends a read `r(object)value` that reads from `writer`'s write.
    pub fn read_from(mut self, object: ObjectId, value: Value, writer: MOpId) -> Self {
        self.inner = self.inner.op(CompletedOp::read(object, value, writer, 0));
        self
    }

    /// Appends a read of the initial value `r(object)0`.
    pub fn read_init(mut self, object: ObjectId) -> Self {
        self.inner = self
            .inner
            .op(CompletedOp::read(object, 0, MOpId::INITIAL, 0));
        self
    }

    /// Sets a diagnostic label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.inner = self.inner.label(label);
        self
    }

    /// Sets output values.
    pub fn outputs(mut self, outputs: Vec<Value>) -> Self {
        self.inner = self.inner.outputs(outputs);
        self
    }

    /// Completes the m-operation and returns its id (usable as a `writer`
    /// for later `read_from` calls).
    pub fn finish(self) -> MOpId {
        self.parent.records.push(self.inner.build());
        self.id
    }
}

/// Extends a builder with invocation events placed strictly after all prior
/// events, useful for quickly writing sequential scenarios.
impl HistoryBuilder {
    /// Latest event time used so far.
    pub fn horizon(&self) -> EventTime {
        self.records
            .iter()
            .map(|r| r.responded_at)
            .max()
            .unwrap_or(EventTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, ProcessId};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    /// Figure 1 of the paper (relations exercised in relations.rs tests).
    fn figure1() -> History {
        let x = oid(0);
        let y = oid(1);
        let z = oid(2);
        let mut b = HistoryBuilder::new(3);
        // P2: η = w(x)1 (early), then μ later.
        let eta = b.mop(pid(2)).at(0, 10).write(x, 1).finish();
        // P1: α = r(x).. w(y).. w(z).. then β.
        let alpha = b
            .mop(pid(1))
            .at(5, 25)
            .read_from(x, 1, eta)
            .write(y, 2)
            .write(z, 3)
            .finish();
        let _beta = b.mop(pid(1)).at(30, 40).read_init(x).finish();
        // P3: δ reads from α and η.
        let _delta = b
            .mop(pid(3))
            .at(30, 50)
            .read_from(y, 2, alpha)
            .read_from(x, 1, eta)
            .finish();
        let _mu = b.mop(pid(2)).at(45, 55).write(x, 9).finish();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let h = figure1();
        assert_eq!(h.len(), 5);
        assert_eq!(h.num_objects(), 3);
        assert_eq!(h.processes().len(), 3);
        assert_eq!(h.by_process(pid(1)).len(), 2);
        let eta = h.idx_of(MOpId::new(pid(2), 0)).unwrap();
        assert_eq!(h.record(eta).notation(), "P2#0 = w(x)1");
    }

    #[test]
    fn reads_from_resolution() {
        let h = figure1();
        let alpha = h.idx_of(MOpId::new(pid(1), 0)).unwrap();
        let eta = h.idx_of(MOpId::new(pid(2), 0)).unwrap();
        let sources = h.read_sources(alpha);
        assert_eq!(sources, &[(oid(0), Some(eta))]);
        assert_eq!(h.rfobjects(alpha, Some(eta)), [oid(0)].into());
    }

    #[test]
    fn conflict_and_interfere() {
        let h = figure1();
        let alpha = h.idx_of(MOpId::new(pid(1), 0)).unwrap();
        let eta = h.idx_of(MOpId::new(pid(2), 0)).unwrap();
        let delta = h.idx_of(MOpId::new(pid(3), 0)).unwrap();
        let mu = h.idx_of(MOpId::new(pid(2), 1)).unwrap();
        // α conflicts with η (α reads x, η writes x).
        assert!(h.conflict(alpha, eta));
        assert!(!h.conflict(alpha, alpha));
        // δ, η and μ interfere: δ reads x from η, μ writes x.
        assert!(h.interfere(delta, eta, mu));
        assert!(!h.interfere(delta, eta, alpha)); // α does not write x
        let triples = h.interference_triples();
        assert!(triples.contains(&(delta, Some(eta), mu)));
    }

    #[test]
    fn rejects_overlapping_process_ops() {
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(oid(0), 1).finish();
        b.mop(pid(0)).at(5, 15).write(oid(0), 2).finish();
        assert!(matches!(
            b.build(),
            Err(CoreError::OverlappingProcessOps { .. })
        ));
    }

    #[test]
    fn rejects_bad_read_provenance() {
        let mut b = HistoryBuilder::new(2);
        let w = b.mop(pid(0)).at(0, 10).write(oid(0), 1).finish();
        // Claims to read object y from an op that only writes x.
        b.mop(pid(1)).at(20, 30).read_from(oid(1), 1, w).finish();
        assert!(matches!(
            b.build(),
            Err(CoreError::ReaderWriterObjectMismatch { .. })
        ));
    }

    #[test]
    fn rejects_unknown_writer() {
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0))
            .at(0, 10)
            .read_from(oid(0), 1, MOpId::new(pid(9), 7))
            .finish();
        assert!(matches!(b.build(), Err(CoreError::UnknownWriter { .. })));
    }

    #[test]
    fn rejects_out_of_range_object() {
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(oid(3), 1).finish();
        assert!(matches!(b.build(), Err(CoreError::ObjectOutOfRange { .. })));
    }

    #[test]
    fn rejects_response_before_invocation() {
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(10, 5).write(oid(0), 1).finish();
        assert!(matches!(
            b.build(),
            Err(CoreError::ResponseBeforeInvocation(_))
        ));
    }

    /// One overlapping pair in each of six processes: which one is
    /// reported must not vary from build to build (a `HashMap` walk once
    /// made it), and it is the lowest process's.
    #[test]
    fn overlap_report_is_deterministic() {
        let build = || {
            let mut b = HistoryBuilder::new(1);
            for p in (0..6).rev() {
                b.mop(pid(p)).at(0, 10).write(oid(0), 1).finish();
                b.mop(pid(p)).at(5, 15).write(oid(0), 2).finish();
            }
            b.build().unwrap_err()
        };
        let expected = CoreError::OverlappingProcessOps {
            process: pid(0),
            earlier: MOpId::new(pid(0), 0),
            later: MOpId::new(pid(0), 1),
        };
        for _ in 0..40 {
            assert_eq!(build(), expected);
        }
    }

    /// Within a process the overlap with the lowest sequence number wins.
    #[test]
    fn overlap_report_is_the_lowest_sequence_number() {
        let mut b = HistoryBuilder::new(1);
        for (from, to) in [(0, 10), (20, 30), (25, 40), (35, 50)] {
            b.mop(pid(3)).at(from, to).write(oid(0), 1).finish();
        }
        let mut records = b.records;
        records.reverse();
        assert_eq!(
            History::new(1, records).unwrap_err(),
            CoreError::OverlappingProcessOps {
                process: pid(3),
                earlier: MOpId::new(pid(3), 1),
                later: MOpId::new(pid(3), 2),
            }
        );
    }

    /// A history with every defect at once, then with the winning defect
    /// repaired, one after another: each class of error is reported only
    /// once the classes before it are gone.
    #[test]
    fn errors_are_reported_in_the_documented_order() {
        let (x, y) = (oid(0), oid(1));
        let id = |p, seq| MOpId::new(pid(p), seq);
        let rec = |id: MOpId, at: (u64, u64), ops: Vec<CompletedOp>| {
            ops.into_iter()
                .fold(MOpRecordBuilder::new(id).at(at.0, at.1), |b, op| b.op(op))
                .build()
        };
        let w = |o, by| CompletedOp::write(o, 1, by, 1);
        let r = |o, from| CompletedOp::read(o, 1, from, 1);
        // The later a defect's pass, the earlier its record: a pass over
        // all records finishes before the next one starts. Within a pass
        // (ids, times and ranges; overlaps; provenance) the first offending
        // record is reported.
        let mut records = vec![
            rec(id(0, 0), (0, 10), vec![w(x, id(0, 0))]),
            // Reads from an m-operation that does not exist.
            rec(id(2, 0), (0, 10), vec![r(x, id(7, 7))]),
            // Reads `y` from an m-operation that only writes `x`.
            rec(id(1, 0), (0, 10), vec![r(y, id(0, 0))]),
            // Invoked before its predecessor responded.
            rec(id(0, 1), (5, 20), vec![w(x, id(0, 1))]),
            // Repeats the first record's id.
            rec(id(0, 0), (30, 40), vec![w(x, id(0, 0))]),
            // Responds before it is invoked.
            rec(id(4, 0), (10, 5), vec![w(x, id(4, 0))]),
            // Touches an object outside the universe.
            rec(id(3, 0), (0, 10), vec![w(oid(9), id(3, 0))]),
        ];
        let report = |records: &[MOpRecord]| History::new(2, records.to_vec()).unwrap_err();

        assert_eq!(report(&records), CoreError::DuplicateMOpId(id(0, 0)));
        records.remove(4);
        assert_eq!(
            report(&records),
            CoreError::ResponseBeforeInvocation(id(4, 0))
        );
        records.remove(4);
        assert_eq!(
            report(&records),
            CoreError::ObjectOutOfRange {
                object: oid(9),
                num_objects: 2
            }
        );
        records.remove(4);
        assert_eq!(
            report(&records),
            CoreError::OverlappingProcessOps {
                process: pid(0),
                earlier: id(0, 0),
                later: id(0, 1)
            }
        );
        records.pop();
        assert_eq!(
            report(&records),
            CoreError::UnknownWriter {
                reader: id(2, 0),
                writer: id(7, 7),
                object: x
            }
        );
        records.remove(1);
        assert_eq!(
            report(&records),
            CoreError::ReaderWriterObjectMismatch {
                reader: id(1, 0),
                writer: id(0, 0),
                object: y
            }
        );
        records.pop();
        assert!(History::new(2, records).is_ok());
    }

    /// Within the first pass the first offending record wins, whatever
    /// its defect.
    #[test]
    fn an_earlier_record_beats_an_earlier_class() {
        let mut b = HistoryBuilder::new(1);
        b.mop(pid(0)).at(0, 10).write(oid(0), 1).finish();
        b.mop(pid(1)).at(10, 5).write(oid(0), 2).finish();
        let mut records = b.records;
        records.push(records[0].clone());
        assert_eq!(
            History::new(1, records).unwrap_err(),
            CoreError::ResponseBeforeInvocation(MOpId::new(pid(1), 0))
        );
    }

    #[test]
    fn lookup_survives_sequence_gaps() {
        let mut b = HistoryBuilder::new(1);
        for k in 0..8 {
            b.mop(pid(2))
                .at(10 * k, 10 * k + 5)
                .write(oid(0), 1)
                .finish();
        }
        let records: Vec<MOpRecord> = b
            .records
            .into_iter()
            .filter(|r| [2, 3, 6].contains(&r.id.seq))
            .collect();
        let h = History::new(1, records).unwrap();
        for seq in 0..9 {
            let found = h.idx_of(MOpId::new(pid(2), seq));
            let expected = h.records().iter().position(|r| r.id.seq == seq);
            assert_eq!(found, expected.map(MOpIdx), "seq {seq}");
        }
        assert_eq!(h.idx_of(MOpId::new(pid(1), 2)), None);
        assert_eq!(h.by_process(pid(1)), &[]);
        assert_eq!(h.by_process(pid(2)), &[MOpIdx(0), MOpIdx(1), MOpIdx(2)]);
    }

    #[test]
    fn equivalence_is_reflexive_and_detects_reorder() {
        let h = figure1();
        assert!(h.equivalent(&h));
        // A history with one record dropped is not equivalent.
        let mut recs = h.records().to_vec();
        recs.pop();
        // Removing μ invalidates nothing structurally; rebuild.
        let h2 = History::new(3, recs).unwrap();
        assert!(!h.equivalent(&h2));
    }

    #[test]
    fn horizon_tracks_latest_response() {
        let mut b = HistoryBuilder::new(1);
        assert_eq!(b.horizon(), EventTime::ZERO);
        b.mop(pid(0)).at(0, 42).write(oid(0), 1).finish();
        assert_eq!(b.horizon(), EventTime::from_nanos(42));
    }
}
