//! Shared `Arbitrary`-style generators with shrinking.
//!
//! One grammar, two consumers: the analyzer's soundness proptests and the
//! `moc-synth` enumeration both draw programs and histories from the
//! seed-deterministic functions here, so a seed printed by either side
//! replays byte-identically in the other. The vendored proptest stub has
//! no shrinking, so minimal counterexamples come from the explicit
//! [`shrink_program`] / [`shrink_history`] candidate generators and the
//! greedy [`minimize`] driver instead.
//!
//! Everything is a plain function of `(&mut StdRng, &bounds)`; proptest
//! strategies wrap these via `any::<u64>().prop_map(|seed| ...)` at the
//! call site, keeping this crate free of a proptest dependency.

use moc_core::history::History;
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::op::CompletedOp;
use moc_core::program::{BinaryOp, CmpOp, Instr, Operand, Program, NUM_REGS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounds of the program grammar (factored from the analyzer's soundness
/// proptests — keep in sync with `crates/analyze/tests/soundness.rs`).
#[derive(Debug, Clone, Copy)]
pub struct ProgramBounds {
    /// Object universe size; reads and writes target `0..objects`.
    pub objects: u32,
    /// Maximum instruction count before the trailing `Return`.
    pub max_len: usize,
}

impl Default for ProgramBounds {
    fn default() -> Self {
        ProgramBounds {
            objects: 4,
            max_len: 12,
        }
    }
}

/// A random operand: register, small immediate, or argument.
pub fn operand(rng: &mut StdRng) -> Operand {
    match rng.gen_range(0..3) {
        0 => Operand::Reg(rng.gen_range(0..NUM_REGS as u8)),
        1 => Operand::Imm(rng.gen_range(-100i64..100)),
        _ => Operand::Arg(rng.gen_range(0..3u8)),
    }
}

fn binary_op(rng: &mut StdRng) -> BinaryOp {
    match rng.gen_range(0..5) {
        0 => BinaryOp::Add,
        1 => BinaryOp::Sub,
        2 => BinaryOp::Mul,
        3 => BinaryOp::Min,
        _ => BinaryOp::Max,
    }
}

fn cmp_op(rng: &mut StdRng) -> CmpOp {
    match rng.gen_range(0..6) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// A random instruction whose jump targets stay within `0..len`.
pub fn instr(rng: &mut StdRng, len: usize, bounds: &ProgramBounds) -> Instr {
    let obj = |rng: &mut StdRng| ObjectId::new(rng.gen_range(0..bounds.objects.max(1)));
    match rng.gen_range(0..7) {
        0 => Instr::Read {
            object: obj(rng),
            dst: rng.gen_range(0..NUM_REGS as u8),
        },
        1 => {
            let object = obj(rng);
            let src = operand(rng);
            Instr::Write { object, src }
        }
        2 => {
            let dst = rng.gen_range(0..NUM_REGS as u8);
            let src = operand(rng);
            Instr::Mov { dst, src }
        }
        3 => {
            let op = binary_op(rng);
            let dst = rng.gen_range(0..NUM_REGS as u8);
            let lhs = operand(rng);
            let rhs = operand(rng);
            Instr::Binary { op, dst, lhs, rhs }
        }
        4 => Instr::Jump {
            target: rng.gen_range(0..len.max(1)),
        },
        5 => {
            let lhs = operand(rng);
            let cmp = cmp_op(rng);
            let rhs = operand(rng);
            let target = rng.gen_range(0..len.max(1));
            Instr::JumpIf {
                lhs,
                cmp,
                rhs,
                target,
            }
        }
        _ => {
            let n = rng.gen_range(0..3);
            let outputs = (0..n).map(|_| operand(rng)).collect();
            Instr::Return { outputs }
        }
    }
}

/// A random program of `1..=max_len` instructions plus a trailing
/// `Return` so every path terminates.
pub fn program(rng: &mut StdRng, bounds: &ProgramBounds) -> Program {
    let len = rng.gen_range(1..bounds.max_len.max(2));
    let mut instrs: Vec<Instr> = (0..len).map(|_| instr(rng, len, bounds)).collect();
    instrs.push(Instr::Return { outputs: vec![] });
    Program::new("prop", instrs).expect("targets within range")
}

/// [`program`] from a bare seed — the replay entry point.
pub fn program_from_seed(seed: u64, bounds: &ProgramBounds) -> Program {
    program(&mut StdRng::seed_from_u64(seed), bounds)
}

/// Bounds of the history grammar: small m-operation programs (bounded
/// processes, objects, ops per m-op) under partially overlapping
/// intervals with free read provenance.
#[derive(Debug, Clone, Copy)]
pub struct HistoryBounds {
    /// Maximum number of processes.
    pub processes: usize,
    /// Maximum m-operations per process.
    pub mops_per_process: usize,
    /// Object universe size.
    pub objects: usize,
    /// Maximum objects one m-operation touches.
    pub max_span: usize,
    /// Probability an m-operation is an update (updates write at least
    /// one of their objects).
    pub update_fraction: f64,
}

impl Default for HistoryBounds {
    fn default() -> Self {
        HistoryBounds {
            processes: 3,
            mops_per_process: 2,
            objects: 3,
            max_span: 3,
            update_fraction: 0.6,
        }
    }
}

fn distinct_objects(rng: &mut StdRng, bounds: &HistoryBounds) -> Vec<ObjectId> {
    let span = rng.gen_range(1..=bounds.max_span.clamp(1, bounds.objects));
    let mut objs = Vec::with_capacity(span);
    while objs.len() < span {
        let o = ObjectId::new(rng.gen_range(0..bounds.objects) as u32);
        if !objs.contains(&o) {
            objs.push(o);
        }
    }
    objs
}

/// A random small history: per-process sequential windows (m-operation
/// `seq` occupies `[100·seq, 100·seq + ~60)`, so same-rank m-operations
/// of *different* processes overlap while each process stays
/// sequential), atomic multi-object updates, and reads with free
/// provenance — any writer of the object or the initial value. The
/// result is always well-formed; admissibility is decided only by the
/// checker, which is precisely what makes the family worth enumerating.
pub fn history(rng: &mut StdRng, bounds: &HistoryBounds) -> History {
    struct Shape {
        id: MOpId,
        objs: Vec<ObjectId>,
        write_mask: Vec<bool>,
        invoked: u64,
        responded: u64,
    }
    let processes = rng.gen_range(1..=bounds.processes.max(1));
    let mut shapes = Vec::new();
    for p in 0..processes {
        let count = rng.gen_range(1..=bounds.mops_per_process.max(1));
        for seq in 0..count {
            let id = MOpId::new(ProcessId::new(p as u32), seq as u32);
            let objs = distinct_objects(rng, bounds);
            let is_update = rng.gen_bool(bounds.update_fraction.clamp(0.0, 1.0));
            let mut write_mask: Vec<bool> = objs
                .iter()
                .map(|_| is_update && rng.gen_bool(0.7))
                .collect();
            if is_update && !write_mask.iter().any(|&w| w) {
                write_mask[0] = true;
            }
            let invoked = seq as u64 * 100 + rng.gen_range(0..10);
            let responded = invoked + rng.gen_range(40..80);
            shapes.push(Shape {
                id,
                objs,
                write_mask,
                invoked,
                responded,
            });
        }
    }
    // Writers per object, with globally unique values and per-object
    // version numbers.
    let mut writers: Vec<Vec<(MOpId, i64, u64)>> = vec![Vec::new(); bounds.objects];
    let mut write_values = std::collections::HashMap::new();
    let mut next_value = 1i64;
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
                        let cands: Vec<&(MOpId, i64, u64)> = writers[o.index()]
                            .iter()
                            .filter(|(w, _, _)| *w != s.id)
                            .collect();
                        if cands.is_empty() || rng.gen_bool(0.25) {
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
                label: Default::default(),
            }
        })
        .collect();
    History::new(bounds.objects, records).expect("grammar construction is well-formed")
}

/// [`history`] from a bare seed — the replay entry point used by the
/// synth registry and `moc synth`.
pub fn history_from_seed(seed: u64, bounds: &HistoryBounds) -> History {
    history(&mut StdRng::seed_from_u64(seed), bounds)
}

/// One-step shrink candidates for a program: each non-`Return`
/// instruction replaced by `Return { outputs: [] }`. Every candidate has
/// strictly fewer non-`Return` instructions (and unchanged jump
/// targets), so greedy minimization terminates.
pub fn shrink_program(p: &Program) -> Vec<Program> {
    let instrs = p.instrs();
    let mut out = Vec::new();
    for i in 0..instrs.len() {
        if matches!(instrs[i], Instr::Return { .. }) {
            continue;
        }
        let mut cand = instrs.to_vec();
        cand[i] = Instr::Return { outputs: vec![] };
        if let Ok(q) = Program::new(p.name(), cand) {
            out.push(q);
        }
    }
    out
}

/// One-step shrink candidates for a history: drop one whole m-operation
/// record, or one operation inside a record. Candidates that break
/// well-formedness (for example, removing a write some other record
/// reads from) are filtered by re-validation, so every candidate is a
/// genuine smaller history with strictly fewer operations.
pub fn shrink_history(h: &History) -> Vec<History> {
    let mut out = Vec::new();
    let records = h.records();
    for i in 0..records.len() {
        let mut cand = records.to_vec();
        cand.remove(i);
        if let Ok(smaller) = History::new(h.num_objects(), cand) {
            out.push(smaller);
        }
    }
    for i in 0..records.len() {
        if records[i].ops.len() < 2 {
            continue;
        }
        for j in 0..records[i].ops.len() {
            let mut cand = records.to_vec();
            cand[i].ops.remove(j);
            if let Ok(smaller) = History::new(h.num_objects(), cand) {
                out.push(smaller);
            }
        }
    }
    out
}

/// Greedy minimization: repeatedly replaces `value` with the first
/// shrink candidate still satisfying `pred`. Terminates because every
/// candidate the shrinkers produce is strictly smaller; the result is
/// 1-minimal with respect to the candidate moves.
pub fn minimize<T>(mut value: T, shrink: impl Fn(&T) -> Vec<T>, pred: impl Fn(&T) -> bool) -> T {
    loop {
        let mut advanced = false;
        for cand in shrink(&value) {
            if pred(&cand) {
                value = cand;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_checker::conditions::Condition;
    use moc_checker::{check_certified, SearchLimits};

    // `check_certified`, the entry point the synthesis pipeline classifies
    // with. Free provenance can make the closed base relation itself
    // cyclic; every route refutes that statically, by a `~H+` cycle.
    fn is_inadmissible(h: &History) -> bool {
        let (report, _) = check_certified(
            h,
            Condition::MSequentialConsistency,
            SearchLimits::default(),
        )
        .expect("bounded histories decide within default limits");
        !report.satisfied
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let b = HistoryBounds::default();
        let h1 = history_from_seed(7, &b);
        let h2 = history_from_seed(7, &b);
        assert_eq!(h1.records(), h2.records());
        let pb = ProgramBounds::default();
        assert_eq!(
            program_from_seed(7, &pb).instrs(),
            program_from_seed(7, &pb).instrs()
        );
    }

    #[test]
    fn histories_are_wellformed_and_decidable() {
        let b = HistoryBounds::default();
        let mut inadmissible = 0;
        for seed in 0..40 {
            let h = history_from_seed(seed, &b);
            assert!(!h.is_empty());
            if is_inadmissible(&h) {
                inadmissible += 1;
            }
        }
        assert!(
            inadmissible > 0,
            "free provenance should often be inadmissible"
        );
    }

    #[test]
    fn shrinking_preserves_inadmissibility_and_reaches_a_minimum() {
        let b = HistoryBounds::default();
        let inadmissible = is_inadmissible;
        let mut shrunk_any = false;
        for seed in 0..60 {
            let h = history_from_seed(seed, &b);
            if !inadmissible(&h) {
                continue;
            }
            let min = minimize(h.clone(), shrink_history, inadmissible);
            assert!(inadmissible(&min), "minimization must preserve the bug");
            let total_ops = |h: &History| h.records().iter().map(|r| r.ops.len()).sum::<usize>();
            assert!(total_ops(&min) <= total_ops(&h));
            if total_ops(&min) < total_ops(&h) {
                shrunk_any = true;
            }
            // 1-minimality: no single candidate move keeps the property.
            for cand in shrink_history(&min) {
                assert!(!inadmissible(&cand), "minimum must be 1-minimal");
            }
        }
        assert!(shrunk_any, "at least one specimen should actually shrink");
    }

    #[test]
    fn shrink_program_strictly_reduces() {
        let pb = ProgramBounds::default();
        let p = program_from_seed(11, &pb);
        let non_return = |p: &Program| {
            p.instrs()
                .iter()
                .filter(|i| !matches!(i, Instr::Return { .. }))
                .count()
        };
        for cand in shrink_program(&p) {
            assert!(non_return(&cand) < non_return(&p));
        }
    }
}
