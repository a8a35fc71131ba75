//! The multi-method library: canned m-operation [`Program`]s for the
//! operations the paper motivates — DCAS, atomic m-register assignment,
//! multi-object snapshots and sums, and conditional transfers — plus the
//! usual single-object read-modify-write primitives.
//!
//! Every constructor returns an `Arc<Program>` ready to pass to
//! [`crate::Dsm::invoke`] or a protocol harness. All programs are
//! deterministic, loop-free and validated.

use std::sync::Arc;

use moc_core::ids::ObjectId;
use moc_core::program::{arg, imm, reg, CmpOp, Program, ProgramBuilder};

/// Atomically reads `objects`, returning their values in order — a
/// consistent multi-object snapshot.
pub(crate) fn read_many(objects: &[ObjectId]) -> Arc<Program> {
    let mut b = ProgramBuilder::new(format!("read{}", objects.len()));
    for (i, &o) in objects.iter().enumerate() {
        b.read(o, i as u8);
    }
    b.ret((0..objects.len()).map(|i| reg(i as u8)).collect());
    Arc::new(b.build().expect("read_many is well-formed"))
}

/// Atomic m-register assignment: writes argument `i` to `objects[i]`, all
/// atomically (Section 1's `m-register assignment`).
pub fn m_assign(objects: &[ObjectId]) -> Arc<Program> {
    let mut b = ProgramBuilder::new(format!("massign{}", objects.len()));
    for (i, &o) in objects.iter().enumerate() {
        b.write(o, arg(i as u8));
    }
    b.ret(vec![]);
    Arc::new(b.build().expect("m_assign is well-formed"))
}

/// Double compare-and-swap on `x` and `y` (Section 1's DCAS):
/// `args = [old_x, old_y, new_x, new_y]`; returns `[1]` on success, `[0]`
/// otherwise.
pub fn dcas(x: ObjectId, y: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("dcas");
    let fail = b.fresh_label();
    b.read(x, 0)
        .read(y, 1)
        .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
        .jump_if(reg(1), CmpOp::Ne, arg(1), fail)
        .write(x, arg(2))
        .write(y, arg(3))
        .ret(vec![imm(1)]);
    b.bind(fail);
    b.ret(vec![imm(0)]);
    Arc::new(b.build().expect("dcas is well-formed"))
}

/// Single-object compare-and-swap: `args = [old, new]`; returns
/// `[success, observed]`.
pub fn cas(object: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("cas");
    let fail = b.fresh_label();
    b.read(object, 0)
        .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
        .write(object, arg(1))
        .ret(vec![imm(1), reg(0)]);
    b.bind(fail);
    b.ret(vec![imm(0), reg(0)]);
    Arc::new(b.build().expect("cas is well-formed"))
}

/// Fetch-and-add: `args = [delta]`; returns `[previous]`.
pub fn fetch_add(object: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("fetch_add");
    b.read(object, 0)
        .add(1, reg(0), arg(0))
        .write(object, reg(1))
        .ret(vec![reg(0)]);
    Arc::new(b.build().expect("fetch_add is well-formed"))
}

/// Test-and-set: sets the object to 1, returning `[previous]`.
pub fn test_and_set(object: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("test_and_set");
    b.read(object, 0).write(object, imm(1)).ret(vec![reg(0)]);
    Arc::new(b.build().expect("test_and_set is well-formed"))
}

/// Atomically exchanges the contents of `x` and `y` — impossible to
/// express atomically with single-object operations.
pub fn swap_objects(x: ObjectId, y: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("swap");
    b.read(x, 0)
        .read(y, 1)
        .write(x, reg(1))
        .write(y, reg(0))
        .ret(vec![]);
    Arc::new(b.build().expect("swap is well-formed"))
}

/// Atomically sums `objects` (the paper's `sum` multi-method that made the
/// aggregate-object workaround unattractive); returns `[total]`.
pub fn sum(objects: &[ObjectId]) -> Arc<Program> {
    let mut b = ProgramBuilder::new(format!("sum{}", objects.len()));
    b.mov(0, imm(0));
    for &o in objects {
        b.read(o, 1).add(0, reg(0), reg(1));
    }
    b.ret(vec![reg(0)]);
    Arc::new(b.build().expect("sum is well-formed"))
}

/// Conditional transfer: moves `args[0]` from `from` to `to` iff
/// `from >= args[0]`; returns `[1]` on success, `[0]` otherwise. Both
/// balances change in the same m-operation, so totals are preserved under
/// any admissible schedule.
pub fn transfer(from: ObjectId, to: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("transfer");
    let fail = b.fresh_label();
    b.read(from, 0)
        .read(to, 1)
        .jump_if(reg(0), CmpOp::Lt, arg(0), fail)
        .sub(2, reg(0), arg(0))
        .add(3, reg(1), arg(0))
        .write(from, reg(2))
        .write(to, reg(3))
        .ret(vec![imm(1)]);
    b.bind(fail);
    b.ret(vec![imm(0)]);
    Arc::new(b.build().expect("transfer is well-formed"))
}

/// k-CAS — the general multi-object compare-and-swap that DCAS is the
/// k = 2 case of: for objects `o_0..o_{k-1}`, arguments are laid out as
/// `[old_0, …, old_{k-1}, new_0, …, new_{k-1}]`; all objects are updated
/// iff every `o_i == old_i`. Returns `[1]` on success, `[0]` otherwise.
pub fn kcas(objects: &[ObjectId]) -> Arc<Program> {
    let k = objects.len();
    assert!(k >= 1, "kcas needs at least one object");
    assert!(k <= 8, "kcas supports up to 8 objects");
    let mut b = ProgramBuilder::new(format!("kcas{k}"));
    let fail = b.fresh_label();
    for (i, &o) in objects.iter().enumerate() {
        b.read(o, i as u8);
        b.jump_if(reg(i as u8), CmpOp::Ne, arg(i as u8), fail);
    }
    for (i, &o) in objects.iter().enumerate() {
        b.write(o, arg((k + i) as u8));
    }
    b.ret(vec![imm(1)]);
    b.bind(fail);
    b.ret(vec![imm(0)]);
    Arc::new(b.build().expect("kcas is well-formed"))
}

/// Bounded increment: adds 1 to `object` iff the result stays at most
/// `args[0]`; returns `[1]` if incremented, `[0]` at the bound. Useful as
/// a semaphore acquire.
pub fn bounded_increment(object: ObjectId) -> Arc<Program> {
    let mut b = ProgramBuilder::new("bounded_inc");
    let fail = b.fresh_label();
    b.read(object, 0)
        .jump_if(reg(0), CmpOp::Ge, arg(0), fail)
        .add(1, reg(0), imm(1))
        .write(object, reg(1))
        .ret(vec![imm(1)]);
    b.bind(fail);
    b.ret(vec![imm(0)]);
    Arc::new(b.build().expect("bounded_increment is well-formed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::program::{execute, VecContext, DEFAULT_FUEL};

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn run(p: &Program, args: &[i64], values: Vec<i64>) -> (Vec<i64>, Vec<i64>) {
        let mut ctx = VecContext { values };
        let out = execute(p, args, &mut ctx, DEFAULT_FUEL).unwrap();
        (out.outputs.to_vec(), ctx.values)
    }

    #[test]
    fn read_many_snapshot() {
        let p = read_many(&[oid(0), oid(2)]);
        let (out, vals) = run(&p, &[], vec![5, 6, 7]);
        assert_eq!(out, vec![5, 7]);
        assert_eq!(vals, vec![5, 6, 7]);
        assert!(!p.is_potential_update());
    }

    #[test]
    fn m_assign_writes_all() {
        let p = m_assign(&[oid(0), oid(1)]);
        let (_, vals) = run(&p, &[9, 8], vec![0, 0]);
        assert_eq!(vals, vec![9, 8]);
        assert_eq!(p.arity(), 2);
    }

    #[test]
    fn dcas_both_paths() {
        let p = dcas(oid(0), oid(1));
        let (out, vals) = run(&p, &[1, 2, 10, 20], vec![1, 2]);
        assert_eq!(out, vec![1]);
        assert_eq!(vals, vec![10, 20]);
        let (out, vals) = run(&p, &[1, 2, 10, 20], vec![1, 3]);
        assert_eq!(out, vec![0]);
        assert_eq!(vals, vec![1, 3], "no partial write on failure");
    }

    #[test]
    fn cas_reports_observed() {
        let p = cas(oid(0));
        let (out, vals) = run(&p, &[4, 5], vec![4]);
        assert_eq!(out, vec![1, 4]);
        assert_eq!(vals, vec![5]);
        let (out, _) = run(&p, &[4, 5], vec![6]);
        assert_eq!(out, vec![0, 6]);
    }

    #[test]
    fn fetch_add_returns_old() {
        let p = fetch_add(oid(0));
        let (out, vals) = run(&p, &[3], vec![10]);
        assert_eq!(out, vec![10]);
        assert_eq!(vals, vec![13]);
    }

    #[test]
    fn test_and_set_returns_old() {
        let p = test_and_set(oid(0));
        let (out, vals) = run(&p, &[], vec![0]);
        assert_eq!(out, vec![0]);
        assert_eq!(vals, vec![1]);
        let (out, vals) = run(&p, &[], vec![1]);
        assert_eq!(out, vec![1]);
        assert_eq!(vals, vec![1]);
    }

    #[test]
    fn swap_exchanges() {
        let p = swap_objects(oid(0), oid(1));
        let (_, vals) = run(&p, &[], vec![1, 2]);
        assert_eq!(vals, vec![2, 1]);
    }

    #[test]
    fn sum_adds_up() {
        let objs = [oid(0), oid(1), oid(2)];
        let (out, _) = run(&sum(&objs), &[], vec![1, 2, 3]);
        assert_eq!(out, vec![6]);
        assert!(!sum(&objs).is_potential_update());
    }

    #[test]
    fn transfer_guards_balance() {
        let p = transfer(oid(0), oid(1));
        let (out, vals) = run(&p, &[30], vec![100, 0]);
        assert_eq!(out, vec![1]);
        assert_eq!(vals, vec![70, 30]);
        let (out, vals) = run(&p, &[200], vec![70, 30]);
        assert_eq!(out, vec![0]);
        assert_eq!(vals, vec![70, 30]);
    }

    #[test]
    fn bounded_increment_respects_cap() {
        let p = bounded_increment(oid(0));
        let (out, vals) = run(&p, &[2], vec![1]);
        assert_eq!(out, vec![1]);
        assert_eq!(vals, vec![2]);
        let (out, vals) = run(&p, &[2], vec![2]);
        assert_eq!(out, vec![0]);
        assert_eq!(vals, vec![2]);
    }

    #[test]
    fn kcas_generalizes_dcas() {
        let objs = [oid(0), oid(1), oid(2)];
        let p = kcas(&objs);
        assert_eq!(p.arity(), 6);
        // All three match: swap succeeds.
        let (out, vals) = run(&p, &[1, 2, 3, 10, 20, 30], vec![1, 2, 3]);
        assert_eq!(out, vec![1]);
        assert_eq!(vals, vec![10, 20, 30]);
        // One mismatch: nothing written.
        let (out, vals) = run(&p, &[1, 2, 3, 10, 20, 30], vec![1, 9, 3]);
        assert_eq!(out, vec![0]);
        assert_eq!(vals, vec![1, 9, 3]);
        // k = 1 degenerates to CAS; k = 2 to DCAS.
        let p1 = kcas(&[oid(0)]);
        let (out, vals) = run(&p1, &[5, 6], vec![5]);
        assert_eq!(out, vec![1]);
        assert_eq!(vals, vec![6]);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn kcas_requires_objects() {
        let _ = kcas(&[]);
    }
}
