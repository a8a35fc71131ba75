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
use std::sync::Arc;

use crate::error::CoreError;
use crate::ids::{MOpId, ObjectId, ProcessId};
use crate::mop::{EventTime, MOpRecord, MOpRecordBuilder};
use crate::op::CompletedOp;
use crate::value::Value;

/// Dense index of an m-operation within a [`History`].
///
/// All relation machinery ([`crate::relations::Relation`]) works over these
/// indices rather than [`MOpId`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    objects: u32,
    wobjects: u32,
    reads: u32,
}

/// One external read: the object, and the record index of the m-operation
/// whose write it observed or one of the two reserved values.
#[derive(Debug, Clone, Copy)]
struct ReadRow {
    object: ObjectId,
    writer: u32,
}

/// [`ReadRow::writer`] of a read of the imaginary initial m-operation.
const INITIAL: u32 = u32::MAX;
/// [`ReadRow::writer`] of a read whose recorded writer is not in the
/// history. Only [`History::new`] ever sees one: it rejects the history.
const NO_SUCH_WRITER: u32 = u32::MAX - 1;

impl ReadRow {
    fn source(self) -> Option<MOpIdx> {
        (self.writer != INITIAL).then_some(MOpIdx(self.writer as usize))
    }
}

/// `n`, a row offset or a record index, as the flat tables store it.
fn row(n: usize) -> Result<u32, CoreError> {
    u32::try_from(n)
        .ok()
        .filter(|&narrow| narrow < NO_SUCH_WRITER)
        .ok_or(CoreError::HistoryTooLarge { rows: n })
}

/// A table of one `value` per object, or the error that names the object
/// count when the allocator cannot hold it.
fn per_object<T: Clone>(num_objects: usize, value: T) -> Result<Vec<T>, CoreError> {
    let mut table = Vec::new();
    (table.try_reserve_exact(num_objects))
        .map_err(|_| CoreError::ObjectTablesTooLarge { num_objects })?;
    table.resize(num_objects, value);
    Ok(table)
}

/// Every process subhistory, in one table.
#[derive(Debug, Clone)]
struct ProcessIndex {
    /// Record indices grouped by process (ascending) and, within a
    /// process, ascending by sequence number.
    order: Vec<MOpIdx>,
    /// `seqs[k]` is the sequence number of record `order[k]`.
    seqs: Vec<u32>,
    /// Each process and its run in `order`, ascending by process.
    runs: Vec<(ProcessId, Range<usize>)>,
}

impl ProcessIndex {
    /// Indexes `records` where they stand, reading nothing of a record
    /// but its id and `ops.len()`; also returns the sum of the latter.
    ///
    /// A stable counting sort groups the records by process; a process's
    /// run is then sorted by sequence number, ties by record index, only
    /// if it does not already ascend.
    fn of(records: &[MOpRecord]) -> (Self, usize) {
        // While counting, a run's end is the number of records seen.
        let mut runs: Vec<(ProcessId, Range<usize>)> = Vec::new();
        let mut total_ops = 0;
        let mut slot = 0;
        for rec in records {
            total_ops += rec.ops.len();
            slot = Self::slot(&runs, slot, rec.process()).unwrap_or_else(|at| {
                runs.insert(at, (rec.process(), 0..0));
                at
            });
            runs[slot].1.end += 1;
        }
        let mut start = 0;
        for (_, run) in &mut runs {
            *run = start..start + run.end;
            start = run.end;
        }

        let mut next: Vec<usize> = runs.iter().map(|(_, run)| run.start).collect();
        let mut order = vec![MOpIdx(0); records.len()];
        let mut seqs = vec![0; records.len()];
        for (i, rec) in records.iter().enumerate() {
            slot = Self::slot(&runs, slot, rec.process()).expect("counted above");
            order[next[slot]] = MOpIdx(i);
            seqs[next[slot]] = rec.id.seq;
            next[slot] += 1;
        }

        for (_, run) in &runs {
            let (order, seqs) = (&mut order[run.clone()], &mut seqs[run.clone()]);
            if !seqs.is_sorted_by(|a, b| a < b) {
                let mut keys: Vec<(u32, MOpIdx)> = std::iter::zip(&*seqs, &*order)
                    .map(|(&seq, &idx)| (seq, idx))
                    .collect();
                keys.sort_unstable();
                for (k, (seq, idx)) in keys.into_iter().enumerate() {
                    (seqs[k], order[k]) = (seq, idx);
                }
            }
        }
        (ProcessIndex { order, seqs, runs }, total_ops)
    }

    /// Where `process` sits in `runs`, or where it would be inserted.
    /// `hint` is tried first: per-process logs laid end to end change
    /// process once per log.
    fn slot(
        runs: &[(ProcessId, Range<usize>)],
        hint: usize,
        process: ProcessId,
    ) -> Result<usize, usize> {
        match runs.get(hint) {
            Some(&(p, _)) if p == process => Ok(hint),
            _ => runs.binary_search_by_key(&process, |&(p, _)| p),
        }
    }

    /// `process`'s run in `order`.
    fn run(&self, process: ProcessId) -> Range<usize> {
        Self::slot(&self.runs, 0, process).map_or(0..0, |r| self.runs[r].1.clone())
    }

    fn idx_of(&self, id: MOpId) -> Option<MOpIdx> {
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
    /// Per record, its external reads in program order.
    reads: Vec<ReadRow>,
    /// For each object, the m-operations that write it (final writes).
    writers: Vec<Vec<MOpIdx>>,
    index: ProcessIndex,
}

impl History {
    /// Validates `records` and builds a history over `num_objects` objects.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if any record references an out-of-range
    /// object, ids collide, a record carries the initial m-operation's
    /// reserved process, a process subhistory is not sequential, a
    /// response precedes its invocation, or a read's recorded writer does
    /// not exist / never writes the object read, or if the tables kept per
    /// object cannot be allocated for `num_objects` objects.
    ///
    /// Which of several defects is reported depends on the records alone,
    /// once the per-object tables are allocated: the first record, in the
    /// order given, that repeats an earlier id, carries the reserved
    /// process, responds before its invocation or touches an out-of-range
    /// object (checked in that order); failing that, the overlapping pair
    /// of the lowest process, then the lowest sequence number; failing
    /// that, the first read, in record then program order, with a bad
    /// writer.
    ///
    /// The records are indexed where they stand: grouped by process
    /// without being moved, and a process's run is sorted only if it is
    /// not already ascending, as a replica's log or a simulator's retire
    /// order is. A writer is looked up, and checked to write the object
    /// read, once per run of reads that name it for one object.
    pub fn new(num_objects: usize, records: Vec<MOpRecord>) -> Result<Self, CoreError> {
        // Step 1, over the record array alone: the process subhistories,
        // and the two defects that show between neighbours in one.
        let (index, total_ops) = ProcessIndex::of(&records);
        let mut first_duplicate: Option<usize> = None;
        let mut first_overlap = None;
        for (_, run) in &index.runs {
            for k in run.start + 1..run.end {
                let (a, b) = (index.order[k - 1], index.order[k]);
                if index.seqs[k - 1] == index.seqs[k] {
                    // Equal ids are in index order, so the later of a pair
                    // is the record that collides.
                    first_duplicate = Some(first_duplicate.map_or(b.0, |first| first.min(b.0)));
                } else if first_overlap.is_none()
                    && records[b.0].invoked_at < records[a.0].responded_at
                {
                    first_overlap = Some((a, b));
                }
            }
        }

        // Step 2, the one walk over every record's operations: ranges,
        // the object tables, and each external read resolved on the spot.
        let mut rows = Vec::with_capacity(records.len() + 1);
        let mut next = Rows::default();
        let mut objects = Vec::with_capacity(total_ops);
        let mut wobjects = Vec::with_capacity(total_ops);
        let mut reads = Vec::with_capacity(total_ops);
        let mut writers = per_object(num_objects, Vec::new())?;
        // The last record seen to touch each object; for writes, the tail of
        // the object's writer list says the same.
        let mut touched = per_object(num_objects, usize::MAX)?;
        // The writer the last read of each object named, and its row: a
        // read that names the same writer again is not looked up again.
        let mut named = per_object(num_objects, (MOpId::INITIAL, INITIAL))?;
        for (i, rec) in records.iter().enumerate() {
            if first_duplicate == Some(i) {
                return Err(CoreError::DuplicateMOpId(rec.id));
            }
            if rec.id.is_initial() {
                return Err(CoreError::ReservedMOpId(rec.id));
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
                if op.is_write() {
                    let writers = &mut writers[op.object.index()];
                    if writers.last() != Some(&MOpIdx(i)) {
                        writers.push(MOpIdx(i));
                        wobjects.push(op.object);
                    }
                } else if op.writer != rec.id {
                    let last = &mut named[op.object.index()];
                    if last.0 != op.writer {
                        let writer = if op.writer.is_initial() {
                            INITIAL
                        } else {
                            match index.idx_of(op.writer) {
                                Some(widx) => row(widx.0)?,
                                None => NO_SUCH_WRITER,
                            }
                        };
                        *last = (op.writer, writer);
                    }
                    reads.push(ReadRow {
                        object: op.object,
                        writer: last.1,
                    });
                }
            }
            objects[next.objects as usize..].sort_unstable();
            wobjects[next.wobjects as usize..].sort_unstable();
            next = Rows {
                objects: row(objects.len())?,
                wobjects: row(wobjects.len())?,
                reads: row(reads.len())?,
            };
        }
        rows.push(next);

        if let Some((a, b)) = first_overlap {
            return Err(CoreError::OverlappingProcessOps {
                process: records[a.0].process(),
                earlier: records[a.0].id,
                later: records[b.0].id,
            });
        }

        // Step 3, over the flat tables alone: every writer exists and
        // writes what was read from it. The table of last toucher becomes,
        // per object, the writer last found to write it: a read of a pair
        // that validated once validates again, so it is skipped.
        let mut validated = touched;
        validated.fill(usize::MAX);
        let history = History {
            num_objects,
            records,
            rows,
            objects,
            wobjects,
            reads,
            writers,
            index,
        };
        for i in 0..history.len() {
            let own = history.rows(MOpIdx(i), |r| r.reads);
            for (k, read) in history.reads[own].iter().enumerate() {
                let last = &mut validated[read.object.index()];
                if *last == read.writer as usize {
                    continue;
                }
                let writes_it = |w| history.wobjects(w).contains(&read.object);
                if read.writer == NO_SUCH_WRITER || !read.source().is_none_or(writes_it) {
                    let rec = &history.records[i];
                    let op = rec.external_reads().nth(k).expect("one row per read");
                    let (reader, writer, object) = (rec.id, op.writer, op.object);
                    return Err(if read.writer == NO_SUCH_WRITER {
                        CoreError::UnknownWriter {
                            reader,
                            writer,
                            object,
                        }
                    } else {
                        CoreError::ReaderWriterObjectMismatch {
                            reader,
                            writer,
                            object,
                        }
                    });
                }
                *last = read.writer as usize;
            }
        }
        Ok(history)
    }

    /// Record `idx`'s rows in the flat table whose offsets are `column`.
    fn rows(&self, idx: MOpIdx, column: fn(&Rows) -> u32) -> Range<usize> {
        column(&self.rows[idx.0]) as usize..column(&self.rows[idx.0 + 1]) as usize
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

    /// Takes the history apart into its records, in construction order:
    /// how a caller that handed its records to [`History::new`] gets them
    /// back without a copy.
    pub fn into_records(self) -> Vec<MOpRecord> {
        self.records
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
        self.index.idx_of(id)
    }

    /// Iterates over `(index, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MOpIdx, &MOpRecord)> {
        self.records.iter().enumerate().map(|(i, r)| (MOpIdx(i), r))
    }

    /// The set of processes appearing in the history.
    pub fn processes(&self) -> BTreeSet<ProcessId> {
        self.index.runs.iter().map(|(p, _)| *p).collect()
    }

    /// Every process subhistory `H|P` in process order, ascending by
    /// process: [`History::by_process`] of each of [`History::processes`],
    /// read off the index without building the set.
    pub fn subhistories(&self) -> impl Iterator<Item = &[MOpIdx]> {
        let order = &self.index.order;
        self.index
            .runs
            .iter()
            .map(move |(_, run)| &order[run.clone()])
    }

    /// The process subhistory `H|P`, in process order.
    pub fn by_process(&self, process: ProcessId) -> &[MOpIdx] {
        &self.index.order[self.index.run(process)]
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
    pub fn read_sources(
        &self,
        idx: MOpIdx,
    ) -> impl ExactSizeIterator<Item = (ObjectId, Option<MOpIdx>)> + Clone + '_ {
        let own = &self.reads[self.rows(idx, |r| r.reads)];
        own.iter().map(|read| (read.object, read.source()))
    }

    /// `rfobjects(H, α, β)`: the objects that `alpha` reads from `beta`
    /// (D 4.3 context). `beta = None` denotes the initial m-operation.
    pub fn rfobjects(&self, alpha: MOpIdx, beta: Option<MOpIdx>) -> BTreeSet<ObjectId> {
        self.read_sources(alpha)
            .filter(|(_, w)| *w == beta)
            .map(|(o, _)| o)
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
            .any(|(o, w)| w == Some(beta) && wg.contains(&o))
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
            for (obj, writer) in self.read_sources(alpha) {
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
    pub fn label(mut self, label: impl Into<Arc<str>>) -> Self {
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
        let subhistories = h.processes().into_iter().map(|p| h.by_process(p));
        assert!(h.subhistories().eq(subhistories));
        let eta = h.idx_of(MOpId::new(pid(2), 0)).unwrap();
        assert_eq!(h.record(eta).notation(), "P2#0 = w(x)1");
    }

    #[test]
    fn reads_from_resolution() {
        let h = figure1();
        let alpha = h.idx_of(MOpId::new(pid(1), 0)).unwrap();
        let eta = h.idx_of(MOpId::new(pid(2), 0)).unwrap();
        let sources: Vec<_> = h.read_sources(alpha).collect();
        assert_eq!(sources, [(oid(0), Some(eta))]);
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

    /// The flat tables index in 32 bits and keep the two highest values
    /// for "initial" and "no such writer": the last offset that fits is
    /// accepted unchanged and the first that does not is an error, not a
    /// wrapped offset.
    #[test]
    fn row_conversion_rejects_what_does_not_fit() {
        let last = (NO_SUCH_WRITER - 1) as usize;
        assert_eq!(row(0), Ok(0));
        assert_eq!(row(last), Ok(NO_SUCH_WRITER - 1));
        for rows in [last + 1, INITIAL as usize, usize::MAX] {
            assert_eq!(row(rows), Err(CoreError::HistoryTooLarge { rows }));
        }
    }

    /// An object universe the allocator cannot hold tables for is a typed
    /// error, not an abort: sized past `isize::MAX` bytes, the request is
    /// refused before any memory is asked for.
    #[test]
    fn unallocatable_object_tables_are_an_error() {
        for num_objects in [usize::MAX, usize::MAX / 16] {
            assert_eq!(
                History::new(num_objects, Vec::new()).unwrap_err(),
                CoreError::ObjectTablesTooLarge { num_objects }
            );
        }
    }

    /// Bytes the derived tables hold, counted by length.
    fn table_bytes(h: &History) -> usize {
        use std::mem::size_of_val;
        let writers: usize = h.writers.iter().map(|w| size_of_val(&w[..])).sum();
        size_of_val(&h.rows[..])
            + size_of_val(&h.objects[..])
            + size_of_val(&h.wobjects[..])
            + size_of_val(&h.reads[..])
            + writers
            + size_of_val(&h.index.order[..])
            + size_of_val(&h.index.seqs[..])
    }

    /// The size of what `new` derives, on the two shapes the benchmark
    /// records: a two-object read-modify-write and a four-object query.
    #[test]
    fn derived_tables_stay_under_eighty_bytes_a_record() {
        const RECORDS: u32 = 10_000;
        let objects = 64;
        let mut last_writer = vec![MOpId::INITIAL; objects as usize];
        let mut b = HistoryBuilder::new(objects as usize);
        for k in 0..RECORDS {
            let mut mop = b.mop(pid(k % 2)).at(10 * k as u64, 10 * k as u64 + 5);
            let id = mop.id;
            if k % 4 < 2 {
                for o in [k % objects, (k + 7) % objects] {
                    mop = mop.read_from(oid(o), 1, last_writer[o as usize]);
                    mop = mop.write(oid(o), 1);
                    last_writer[o as usize] = id;
                }
            } else {
                for o in (0..4).map(|j| (k + 5 * j) % objects) {
                    mop = mop.read_from(oid(o), 1, last_writer[o as usize]);
                }
            }
            mop.finish();
        }
        let h = b.build().unwrap();
        assert_eq!(h.len(), RECORDS as usize);
        let per_record = table_bytes(&h) as f64 / h.len() as f64;
        assert!(per_record <= 80.0, "{per_record} bytes per record");
    }

    /// [`History::new`] as it stood before the per-object memos: every
    /// read looked up with `idx_of` on its own and validated on its own.
    /// The reserved-id check is its one addition, so that the two must
    /// report the same error for every input.
    fn new_per_read(num_objects: usize, records: Vec<MOpRecord>) -> Result<History, CoreError> {
        let (index, total_ops) = ProcessIndex::of(&records);
        let mut first_duplicate: Option<usize> = None;
        let mut first_overlap = None;
        for (_, run) in &index.runs {
            for k in run.start + 1..run.end {
                let (a, b) = (index.order[k - 1], index.order[k]);
                if index.seqs[k - 1] == index.seqs[k] {
                    first_duplicate = Some(first_duplicate.map_or(b.0, |first| first.min(b.0)));
                } else if first_overlap.is_none()
                    && records[b.0].invoked_at < records[a.0].responded_at
                {
                    first_overlap = Some((a, b));
                }
            }
        }

        let mut rows = Vec::with_capacity(records.len() + 1);
        let mut next = Rows::default();
        let mut objects = Vec::with_capacity(total_ops);
        let mut wobjects = Vec::with_capacity(total_ops);
        let mut reads = Vec::with_capacity(total_ops);
        let mut writers = per_object(num_objects, Vec::new())?;
        let mut touched = per_object(num_objects, usize::MAX)?;
        for (i, rec) in records.iter().enumerate() {
            if first_duplicate == Some(i) {
                return Err(CoreError::DuplicateMOpId(rec.id));
            }
            if rec.id.is_initial() {
                return Err(CoreError::ReservedMOpId(rec.id));
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
                if op.is_write() {
                    let writers = &mut writers[op.object.index()];
                    if writers.last() != Some(&MOpIdx(i)) {
                        writers.push(MOpIdx(i));
                        wobjects.push(op.object);
                    }
                } else if op.writer != rec.id {
                    let writer = if op.writer.is_initial() {
                        INITIAL
                    } else {
                        match index.idx_of(op.writer) {
                            Some(widx) => row(widx.0)?,
                            None => NO_SUCH_WRITER,
                        }
                    };
                    reads.push(ReadRow {
                        object: op.object,
                        writer,
                    });
                }
            }
            objects[next.objects as usize..].sort_unstable();
            wobjects[next.wobjects as usize..].sort_unstable();
            next = Rows {
                objects: row(objects.len())?,
                wobjects: row(wobjects.len())?,
                reads: row(reads.len())?,
            };
        }
        rows.push(next);

        if let Some((a, b)) = first_overlap {
            return Err(CoreError::OverlappingProcessOps {
                process: records[a.0].process(),
                earlier: records[a.0].id,
                later: records[b.0].id,
            });
        }

        let history = History {
            num_objects,
            records,
            rows,
            objects,
            wobjects,
            reads,
            writers,
            index,
        };
        for i in 0..history.len() {
            let own = history.rows(MOpIdx(i), |r| r.reads);
            for (k, read) in history.reads[own].iter().enumerate() {
                let writes_it = |w| history.wobjects(w).contains(&read.object);
                if read.writer == NO_SUCH_WRITER || !read.source().is_none_or(writes_it) {
                    let rec = &history.records[i];
                    let op = rec.external_reads().nth(k).expect("one row per read");
                    let (reader, writer, object) = (rec.id, op.writer, op.object);
                    return Err(if read.writer == NO_SUCH_WRITER {
                        CoreError::UnknownWriter {
                            reader,
                            writer,
                            object,
                        }
                    } else {
                        CoreError::ReaderWriterObjectMismatch {
                            reader,
                            writer,
                            object,
                        }
                    });
                }
            }
        }
        Ok(history)
    }

    /// `new` and [`new_per_read`] on the same records: the same error, or
    /// histories that answer every query the same.
    fn assert_same_as_per_read(num_objects: usize, records: &[MOpRecord]) {
        let got = History::new(num_objects, records.to_vec());
        let want = new_per_read(num_objects, records.to_vec());
        let (h, r) = match (got, want) {
            (Ok(h), Ok(r)) => (h, r),
            (got, want) => {
                assert_eq!(got.err(), want.err(), "{records:?}");
                return;
            }
        };
        for (idx, rec) in h.iter() {
            assert_eq!(h.objects(idx), r.objects(idx));
            assert_eq!(h.wobjects(idx), r.wobjects(idx));
            assert!(h.read_sources(idx).eq(r.read_sources(idx)), "{rec:?}");
            assert_eq!(h.idx_of(rec.id), r.idx_of(rec.id));
            let next = MOpId::new(rec.process(), rec.id.seq + 1);
            assert_eq!(h.idx_of(next), r.idx_of(next));
        }
        for o in (0..num_objects as u32).map(oid) {
            assert_eq!(h.writers_of(o), r.writers_of(o));
        }
        assert_eq!(h.processes(), r.processes());
        for p in h.processes() {
            assert_eq!(h.by_process(p), r.by_process(p));
        }
    }

    /// SplitMix64, the generator of the differential test below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded well-formed history, the per-process logs laid end to end
    /// as a cluster's shutdown hands them over: each m-operation touches
    /// up to three objects, an update writes some of them, and a read
    /// names the object's latest writer so far (so one writer is named by
    /// runs of reads), any writer of it, or the initial m-operation.
    fn seeded_records(seed: u64, processes: u32, per_process: u32, objects: u32) -> Vec<MOpRecord> {
        let mut state = seed;
        let mut below = |n: u32| (splitmix(&mut state) % u64::from(n)) as u32;
        let mut shapes = Vec::new();
        for p in 0..processes {
            for seq in 0..per_process {
                let id = MOpId::new(pid(p), seq);
                let mut ops: Vec<(ObjectId, bool)> = Vec::new();
                for _ in 0..=below(3) {
                    let o = oid(below(objects));
                    if !ops.iter().any(|&(x, _)| x == o) {
                        ops.push((o, below(3) == 0));
                    }
                }
                shapes.push((id, ops));
            }
        }
        let mut writers: Vec<Vec<MOpId>> = vec![Vec::new(); objects as usize];
        for (id, ops) in &shapes {
            for &(o, write) in ops {
                if write {
                    writers[o.index()].push(*id);
                }
            }
        }
        let mut latest: Vec<MOpId> = vec![MOpId::INITIAL; objects as usize];
        shapes
            .into_iter()
            .map(|(id, ops)| {
                let t = 100 * u64::from(id.seq);
                let mut b = MOpRecordBuilder::new(id).at(t, t + 50);
                for (o, write) in ops {
                    let cands: Vec<MOpId> = writers[o.index()]
                        .iter()
                        .copied()
                        .filter(|&w| w != id)
                        .collect();
                    b = b.op(if write {
                        latest[o.index()] = id;
                        CompletedOp::write(o, 1, id, 1)
                    } else if cands.is_empty() || below(4) == 0 {
                        CompletedOp::read(o, 0, MOpId::INITIAL, 0)
                    } else if below(3) > 0 && latest[o.index()] != id {
                        CompletedOp::read(o, 1, latest[o.index()], 1)
                    } else {
                        let w = cands[below(cands.len() as u32) as usize];
                        CompletedOp::read(o, 1, w, 1)
                    });
                }
                b.build()
            })
            .collect()
    }

    /// Where each external read sits, `(record, op)`, in walk order, with
    /// whether the read before it of the same object named the same writer.
    fn read_sites(records: &[MOpRecord], objects: usize) -> Vec<(usize, usize, bool)> {
        let mut last = vec![None; objects];
        let mut out = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            for (j, op) in rec.ops.iter().enumerate() {
                if op.is_read() && op.writer != rec.id {
                    let before = last[op.object.index()].replace(op.writer);
                    out.push((i, j, before == Some(op.writer)));
                }
            }
        }
        out
    }

    /// The mutations the memos could get wrong, each applied to a copy of
    /// `records`: an unknown writer; the second read of a repeated
    /// (object, writer) run moved to an object that writer does not
    /// write; a fresh process reading one object from writer A, then B,
    /// then A again (B once a writer of it, once not); a record renamed to
    /// the reserved process; and one seeded rewrite of any read.
    fn mutants(records: &[MOpRecord], objects: u32, seed: u64) -> Vec<Vec<MOpRecord>> {
        let mut out = Vec::new();
        let sites = read_sites(records, objects as usize);
        let written = |id: MOpId, o: ObjectId| {
            records
                .iter()
                .any(|r| r.id == id && r.ops.iter().any(|op| op.is_write() && op.object == o))
        };
        if let Some(&(i, j, _)) = sites.first() {
            let mut m = records.to_vec();
            let op = &mut m[i].ops[j];
            *op = CompletedOp::read(op.object, 1, MOpId::new(pid(99), 7), 1);
            out.push(m);
        }
        if let Some(&(i, j, _)) = sites.iter().find(|s| s.2) {
            let writer = records[i].ops[j].writer;
            if let Some(o) = (0..objects).map(oid).find(|&o| !written(writer, o)) {
                let mut m = records.to_vec();
                m[i].ops[j] = CompletedOp::read(o, 1, writer, 1);
                out.push(m);
            }
        }
        let all_writers: Vec<(ObjectId, MOpId)> = records
            .iter()
            .flat_map(|r| r.ops.iter().filter(|op| op.is_write()))
            .map(|op| (op.object, op.writer))
            .collect();
        if let Some(&(o, a)) = all_writers.first() {
            let other = all_writers.iter().find(|&&(x, w)| x == o && w != a);
            let stranger = records.iter().map(|r| r.id).find(|&id| !written(id, o));
            for b in [other.map(|&(_, w)| w), stranger].into_iter().flatten() {
                let mut m = records.to_vec();
                for (seq, w) in [a, b, a].into_iter().enumerate() {
                    let id = MOpId::new(pid(98), seq as u32);
                    let t = 1_000_000 + 100 * seq as u64;
                    let read = CompletedOp::read(o, 1, w, 1);
                    m.push(MOpRecordBuilder::new(id).at(t, t + 50).op(read).build());
                }
                out.push(m);
            }
        }
        if let Some(last) = records.last() {
            let mut m = records.to_vec();
            let reserved = MOpId::new(pid(u32::MAX), last.id.seq);
            let rec = m.last_mut().expect("not empty");
            rec.id = reserved;
            for op in rec.ops.iter_mut().filter(|op| op.is_write()) {
                op.writer = reserved;
            }
            out.push(m);
        }
        if !sites.is_empty() {
            let mut state = seed ^ 0x5EED;
            let mut m = records.to_vec();
            let (i, j, _) = sites[(splitmix(&mut state) % sites.len() as u64) as usize];
            let victim = &records[(splitmix(&mut state) % records.len() as u64) as usize];
            let object = oid((splitmix(&mut state) % u64::from(objects)) as u32);
            let op = &mut m[i].ops[j];
            *op = match splitmix(&mut state) % 3 {
                0 => CompletedOp::read(op.object, 1, victim.id, 1),
                1 => CompletedOp::read(object, 1, op.writer, 1),
                _ => CompletedOp::read(op.object, 0, MOpId::INITIAL, 0),
            };
            out.push(m);
        }
        out
    }

    /// The memoised constructor against [`new_per_read`] on seeded
    /// histories in three layouts (per-process logs laid end to end,
    /// interleaved by sequence number, reversed), two long runtime-shaped
    /// logs, and the mutants of each.
    #[test]
    fn memoised_resolution_matches_the_per_read_reference() {
        for seed in 0..400u64 {
            let mut state = seed;
            let processes = 1 + (splitmix(&mut state) % 4) as u32;
            let per_process = 1 + (splitmix(&mut state) % 8) as u32;
            let objects = 1 + (splitmix(&mut state) % 5) as u32;
            let logs = seeded_records(seed, processes, per_process, objects);
            let mut interleaved = logs.clone();
            interleaved.sort_by_key(|r| (r.id.seq, r.id.process));
            let mut reversed = logs.clone();
            reversed.reverse();
            let runtime = seeded_records(seed, 2, 60, 4);
            for (records, objects) in [
                (logs, objects),
                (interleaved, objects),
                (reversed, objects),
                (runtime, 4),
            ] {
                assert_same_as_per_read(objects as usize, &records);
                for mutant in mutants(&records, objects, seed) {
                    assert_same_as_per_read(objects as usize, &mutant);
                }
            }
        }
    }

    /// Each error the mutants aim at is reached: the differential test
    /// above is not comparing two successes only.
    #[test]
    fn the_mutants_reach_every_read_error() {
        let records = seeded_records(7, 2, 60, 4);
        let errors: Vec<Option<CoreError>> = mutants(&records, 4, 7)
            .into_iter()
            .map(|m| History::new(4, m).err())
            .collect();
        let reached = |pick: fn(&CoreError) -> bool| errors.iter().flatten().any(pick);
        assert!(reached(|e| matches!(e, CoreError::UnknownWriter { .. })));
        assert!(reached(|e| matches!(
            e,
            CoreError::ReaderWriterObjectMismatch { .. }
        )));
        assert!(reached(|e| matches!(e, CoreError::ReservedMOpId(_))));
        assert!(errors.iter().any(Option::is_none), "A, B, A validates");
    }

    /// A record carrying the initial m-operation's process is rejected,
    /// in step 2 after a repeated id and before a response that precedes
    /// its invocation; a read naming that process is a read of the
    /// initial value, as before.
    #[test]
    fn rejects_the_reserved_process() {
        let reserved = MOpId::new(pid(u32::MAX), 0);
        let rec = |id: MOpId, at: (u64, u64)| {
            MOpRecordBuilder::new(id)
                .at(at.0, at.1)
                .op(CompletedOp::write(oid(0), 1, id, 1))
                .build()
        };
        let reader = MOpRecordBuilder::new(MOpId::new(pid(0), 0))
            .at(20, 30)
            .op(CompletedOp::read(oid(0), 1, reserved, 1))
            .build();
        assert_eq!(
            History::new(1, vec![rec(reserved, (0, 10)), reader.clone()]).unwrap_err(),
            CoreError::ReservedMOpId(reserved)
        );
        assert_eq!(
            History::new(1, vec![rec(reserved, (10, 5))]).unwrap_err(),
            CoreError::ReservedMOpId(reserved)
        );
        let p0 = MOpId::new(pid(0), 0);
        assert_eq!(
            History::new(
                1,
                vec![rec(p0, (0, 10)), rec(p0, (20, 30)), rec(reserved, (0, 1))]
            )
            .unwrap_err(),
            CoreError::DuplicateMOpId(p0)
        );
        let h = History::new(1, vec![reader]).unwrap();
        assert!(h.read_sources(MOpIdx(0)).eq([(oid(0), None)]));
        let shown = CoreError::ReservedMOpId(reserved).to_string();
        assert!(shown.contains("P4294967295#0"), "{shown}");
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
