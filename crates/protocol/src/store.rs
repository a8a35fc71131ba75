//! The replicated object store: each process's local copy of the shared
//! objects plus its version vector.
//!
//! Applying an m-operation implements the body of action A2 (Figures 4 and
//! 6): execute the deterministic program against the local copy, then bump
//! `ts[x]` once for every object `x` the m-operation wrote. Version
//! provenance is recorded on every read and write so that executions yield
//! exact reads-from information (D 5.1 / D 5.6: `α` reads the version of
//! `x` that `β` wrote iff `ts(finish(β))[x] = ts(start(α))[x]`).

use moc_core::ids::ObjectId;
use moc_core::inline::InlineList;
use moc_core::op::CompletedOp;
use moc_core::program::{execute, MContext, ProgramError, DEFAULT_FUEL};
use moc_core::value::{Value, Versioned};
use moc_core::vv::VersionVector;

use crate::MOperation;

/// The result of applying an m-operation to a store. An m-operation of up
/// to [`moc_core::inline::INLINE`] operations and outputs records without
/// a heap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecRecord {
    /// Completed operations in program order, with provenance.
    pub ops: InlineList<CompletedOp>,
    /// The program's return values.
    pub outputs: InlineList<Value>,
}

/// One process's copy of every shared object, with versions (`X` and `ts`
/// / `myX` and `myts` in the paper's pseudocode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStore {
    values: Vec<Versioned>,
    ts: VersionVector,
}

impl ReplicaStore {
    /// A fresh store: every object at its initial value, version vector
    /// zero.
    pub fn new(num_objects: usize) -> Self {
        ReplicaStore {
            values: vec![Versioned::INITIAL; num_objects],
            ts: VersionVector::new(num_objects),
        }
    }

    /// Reconstructs a store from a query-response snapshot, `ts` being the
    /// responder's version vector. With `objects` `None`, `state` is the
    /// full array and becomes the store as it is; otherwise `state[i]` is
    /// the state of `objects[i]`, and every other object stays at its
    /// initial value — valid only if the query never touches them
    /// (guaranteed under [`crate::QueryScope::Relevant`]).
    pub(crate) fn from_snapshot(
        num_objects: usize,
        objects: Option<&[ObjectId]>,
        state: Vec<Versioned>,
        ts: VersionVector,
    ) -> Self {
        let values = match objects {
            None => state,
            Some(objects) => {
                let mut values = vec![Versioned::INITIAL; num_objects];
                for (obj, v) in objects.iter().zip(state) {
                    values[obj.index()] = v;
                }
                values
            }
        };
        assert_eq!(values.len(), num_objects, "a snapshot of the whole array");
        ReplicaStore { values, ts }
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.values.len()
    }

    /// The version vector (`ts` / `myts`).
    pub fn ts(&self) -> &VersionVector {
        &self.ts
    }

    /// The current state of `object`.
    pub fn get(&self, object: ObjectId) -> Versioned {
        self.values[object.index()]
    }

    /// All object states in object order, for a full query response.
    pub(crate) fn snapshot_full(&self) -> Vec<Versioned> {
        self.values.clone()
    }

    /// The states of the listed objects, in the order listed, for a
    /// [`crate::QueryScope::Relevant`] response — the optimization the
    /// paper notes at the end of Section 5.2.
    pub(crate) fn snapshot_of(&self, objects: &[ObjectId]) -> Vec<Versioned> {
        objects.iter().map(|&o| self.values[o.index()]).collect()
    }

    /// Applies `mop` to this store: executes the program and, per action
    /// A2, bumps `ts[x]` for every written object, installing the final
    /// written values as the new versions.
    ///
    /// # Panics
    ///
    /// Panics if the program faults (references a missing argument or
    /// exhausts its fuel). Programs are validated at build time and the
    /// protocols re-execute only programs that already ran at the issuing
    /// process, so a fault here is a determinism bug, not an input error —
    /// and silently diverging replicas would be far worse than a crash.
    pub fn apply(&mut self, mop: &MOperation) -> ExecRecord {
        self.try_apply(mop)
            .unwrap_or_else(|e| panic!("m-operation {} faulted during apply: {e}", mop.id))
    }

    /// Non-panicking variant of [`ReplicaStore::apply`]. On error the store
    /// is left unchanged.
    ///
    /// The program runs in place, so an apply costs the m-operation's
    /// footprint, not the object universe: each object's value before its
    /// first write goes to an undo log, which a fault restores and a
    /// success bumps the versions from.
    pub(crate) fn try_apply(&mut self, mop: &MOperation) -> Result<ExecRecord, ProgramError> {
        let mut ctx = RecordingContext {
            values: &mut self.values,
            ts: &self.ts,
            mop,
            ops: InlineList::new(),
            undo: InlineList::new(),
        };
        let outcome = execute(&mop.program, &mop.args, &mut ctx, DEFAULT_FUEL);
        let RecordingContext { ops, undo, .. } = ctx;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                for (obj, before) in undo {
                    self.values[obj.index()] = before;
                }
                return Err(e);
            }
        };
        // Commit: bump versions once per written object (A2: ∀x ∈
        // wobjects(α): ts[x]++); the final values are already installed.
        for (obj, _) in undo {
            let version = self.ts.bump(obj);
            let v = &mut self.values[obj.index()];
            v.version = version;
            v.writer = mop.id;
        }
        Ok(ExecRecord {
            ops,
            outputs: outcome.outputs,
        })
    }
}

/// Records provenance while a program executes against the store in
/// place.
struct RecordingContext<'a> {
    values: &'a mut [Versioned],
    ts: &'a VersionVector,
    mop: &'a MOperation,
    ops: InlineList<CompletedOp>,
    /// Each written object with its state before the m-operation's first
    /// write to it, in first-write order.
    undo: InlineList<(ObjectId, Versioned)>,
}

impl RecordingContext<'_> {
    fn written(&self, object: ObjectId) -> bool {
        self.undo.iter().any(|&(o, _)| o == object)
    }
}

impl MContext for RecordingContext<'_> {
    fn read(&mut self, object: ObjectId) -> Value {
        let v = self.values[object.index()];
        let op = if self.written(object) {
            // Internal read of this m-operation's own pending write: the
            // anticipated version is the current one plus one.
            CompletedOp::read(object, v.value, self.mop.id, self.ts.get(object) + 1)
        } else {
            CompletedOp::read(object, v.value, v.writer, v.version)
        };
        self.ops.push(op);
        op.value
    }

    fn write(&mut self, object: ObjectId, value: Value) {
        let i = object.index();
        if !self.written(object) {
            self.undo.push((object, self.values[i]));
        }
        self.values[i].value = value;
        self.ops.push(CompletedOp::write(
            object,
            value,
            self.mop.id,
            self.ts.get(object) + 1,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::ids::{MOpId, ProcessId};
    use moc_core::op::OpKind;
    use moc_core::program::{arg, imm, reg, CmpOp, ProgramBuilder};
    use std::sync::Arc;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn mid(p: u32, s: u32) -> MOpId {
        MOpId::new(ProcessId::new(p), s)
    }

    fn write_xy() -> Arc<moc_core::program::Program> {
        let mut b = ProgramBuilder::new("wxy");
        b.write(oid(0), arg(0)).write(oid(1), arg(1)).ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn read_xy() -> Arc<moc_core::program::Program> {
        let mut b = ProgramBuilder::new("rxy");
        b.read(oid(0), 0).read(oid(1), 1).ret(vec![reg(0), reg(1)]);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn apply_bumps_versions_once_per_object() {
        let mut s = ReplicaStore::new(2);
        let m = MOperation::new(mid(0, 0), write_xy(), vec![10, 20]);
        let rec = s.apply(&m);
        assert_eq!(rec.ops.len(), 2);
        assert_eq!(s.get(oid(0)), Versioned::new(10, 1, mid(0, 0)));
        assert_eq!(s.get(oid(1)), Versioned::new(20, 1, mid(0, 0)));
        assert_eq!(s.ts().as_slice(), &[1, 1]);
    }

    #[test]
    fn double_write_bumps_once() {
        let mut b = ProgramBuilder::new("ww");
        b.write(oid(0), imm(1)).write(oid(0), imm(2)).ret(vec![]);
        let m = MOperation::new(mid(0, 0), Arc::new(b.build().unwrap()), vec![]);
        let mut s = ReplicaStore::new(1);
        s.apply(&m);
        assert_eq!(s.get(oid(0)).value, 2);
        assert_eq!(s.get(oid(0)).version, 1, "one version per m-operation");
    }

    #[test]
    fn reads_record_provenance() {
        let mut s = ReplicaStore::new(2);
        let w = MOperation::new(mid(0, 0), write_xy(), vec![10, 20]);
        s.apply(&w);
        let r = MOperation::new(mid(1, 0), read_xy(), vec![]);
        let rec = s.apply(&r);
        assert_eq!(rec.outputs, vec![10, 20]);
        assert!(rec.ops.iter().all(|op| op.kind == OpKind::Read));
        assert!(rec.ops.iter().all(|op| op.writer == mid(0, 0)));
        assert!(rec.ops.iter().all(|op| op.version == 1));
        // Queries leave ts untouched.
        assert_eq!(s.ts().as_slice(), &[1, 1]);
    }

    #[test]
    fn internal_read_attributed_to_self() {
        let mut b = ProgramBuilder::new("w-then-r");
        b.write(oid(0), imm(5)).read(oid(0), 0).ret(vec![reg(0)]);
        let m = MOperation::new(mid(2, 3), Arc::new(b.build().unwrap()), vec![]);
        let mut s = ReplicaStore::new(1);
        let rec = s.apply(&m);
        assert_eq!(rec.outputs, vec![5]);
        let read = &rec.ops[1];
        assert_eq!(read.writer, mid(2, 3));
        assert_eq!(read.version, 1, "anticipated post-bump version");
    }

    #[test]
    fn failed_dcas_leaves_store_unchanged() {
        let mut b = ProgramBuilder::new("dcas");
        let fail = b.fresh_label();
        b.read(oid(0), 0)
            .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
            .write(oid(0), arg(1))
            .ret(vec![imm(1)]);
        b.bind(fail);
        b.ret(vec![imm(0)]);
        let p = Arc::new(b.build().unwrap());
        let mut s = ReplicaStore::new(1);
        // Expect old value 9 (actual 0): fails.
        let m = MOperation::new(mid(0, 0), p, vec![9, 7]);
        let rec = s.apply(&m);
        assert_eq!(rec.outputs, vec![0]);
        assert_eq!(s.get(oid(0)), Versioned::INITIAL);
        assert_eq!(s.ts().as_slice(), &[0]);
    }

    #[test]
    fn deterministic_replay_across_replicas() {
        // Two stores applying the same m-operations in the same order end
        // identical — the property atomic delivery relies on.
        let ops = vec![
            MOperation::new(mid(0, 0), write_xy(), vec![1, 2]),
            MOperation::new(mid(1, 0), write_xy(), vec![3, 4]),
            MOperation::new(mid(0, 1), read_xy(), vec![]),
        ];
        let mut a = ReplicaStore::new(2);
        let mut b = ReplicaStore::new(2);
        for m in &ops {
            let ra = a.apply(m);
            let rb = b.apply(m);
            assert_eq!(ra, rb);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut s = ReplicaStore::new(3);
        s.apply(&MOperation::new(mid(0, 0), write_xy(), vec![7, 8]));
        let snap = s.snapshot_full();
        assert_eq!(snap.len(), 3, "one state per object, nothing else");
        let s2 = ReplicaStore::from_snapshot(3, None, snap, s.ts().clone());
        assert_eq!(s, s2);
        let x = Versioned::new(7, 1, mid(0, 0));
        let y = Versioned::new(8, 1, mid(0, 0));
        assert_eq!(
            s.snapshot_of(&[oid(1), oid(0)]),
            [y, x],
            "in the order asked"
        );
        let asked = [oid(1)];
        let partial = s.snapshot_of(&asked);
        let s3 = ReplicaStore::from_snapshot(3, Some(&asked), partial, s.ts().clone());
        assert_eq!(s3.get(oid(1)), y);
        assert_eq!(s3.get(oid(0)), Versioned::INITIAL, "not asked for");
    }

    #[test]
    fn try_apply_surfaces_program_faults() {
        let mut b = ProgramBuilder::new("needs-arg");
        b.write(oid(0), arg(0)).ret(vec![]);
        let m = MOperation::new(mid(0, 0), Arc::new(b.build().unwrap()), vec![]);
        let mut s = ReplicaStore::new(1);
        assert!(s.try_apply(&m).is_err());
        assert_eq!(s.get(oid(0)), Versioned::INITIAL, "store unchanged");
    }

    /// A fault after a write undoes it: the program runs in place, so the
    /// undo log, not a copy, keeps the store unchanged.
    #[test]
    fn a_fault_after_a_write_leaves_the_store_unchanged() {
        let mut b = ProgramBuilder::new("write-then-fault");
        b.write(oid(0), imm(7))
            .write(oid(1), imm(8))
            .write(oid(0), imm(9))
            .write(oid(1), arg(0))
            .ret(vec![]);
        let m = MOperation::new(mid(0, 0), Arc::new(b.build().unwrap()), vec![]);
        let mut s = ReplicaStore::new(3);
        s.apply(&MOperation::new(mid(1, 0), write_xy(), vec![1, 2]));
        let before = s.clone();
        assert!(s.try_apply(&m).is_err());
        assert_eq!(s, before, "values, writers and versions unchanged");
    }
}
