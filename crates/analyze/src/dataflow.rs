//! A small forward/backward dataflow fixpoint framework over [`Cfg`]s.
//!
//! Analyses supply a join-semilattice fact, a transfer function per
//! instruction, and a direction; [`solve`] iterates a block worklist to a
//! fixpoint and exposes per-instruction facts. Only reachable blocks
//! participate: unreachable instructions get `None` facts, which keeps the
//! passes from reasoning about code that can never execute.

use moc_core::program::{Instr, Program};

use crate::cfg::Cfg;

/// Direction of a dataflow analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Facts flow from entry to exits; the per-instruction fact holds
    /// immediately *before* the instruction executes.
    Forward,
    /// Facts flow from exits to entry; the per-instruction fact holds
    /// immediately *after* the instruction executes.
    Backward,
}

/// A dataflow analysis: lattice + transfer.
pub(crate) trait DataflowAnalysis {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// Direction facts propagate.
    fn direction(&self) -> Direction;

    /// Fact at the boundary: program entry (forward) or after each
    /// `Return` (backward).
    fn boundary(&self) -> Self::Fact;

    /// The identity of [`DataflowAnalysis::join`] — the optimistic
    /// initial value (full set for must-analyses, empty for may-analyses).
    fn join_identity(&self) -> Self::Fact;

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Applies instruction `idx` to `fact` (in execution order for
    /// forward analyses, reverse order for backward ones).
    fn transfer(&self, idx: usize, instr: &Instr, fact: &Self::Fact) -> Self::Fact;
}

/// Fixpoint solution: one fact per instruction (see [`Direction`] for
/// which program point it describes), `None` for unreachable code.
#[derive(Debug, Clone)]
pub(crate) struct Solution<F> {
    /// Per-instruction facts.
    pub at: Vec<Option<F>>,
}

/// Runs `analysis` over `program` to a fixpoint.
pub(crate) fn solve<A: DataflowAnalysis>(
    program: &Program,
    cfg: &Cfg,
    analysis: &A,
) -> Solution<A::Fact> {
    match analysis.direction() {
        Direction::Forward => solve_forward(program, cfg, analysis),
        Direction::Backward => solve_backward(program, cfg, analysis),
    }
}

fn transfer_block<A: DataflowAnalysis>(
    program: &Program,
    cfg: &Cfg,
    analysis: &A,
    block: usize,
    entry: &A::Fact,
) -> A::Fact {
    let mut fact = entry.clone();
    let b = &cfg.blocks[block];
    match analysis.direction() {
        Direction::Forward => {
            for i in b.instrs() {
                fact = analysis.transfer(i, &program.instrs()[i], &fact);
            }
        }
        Direction::Backward => {
            for i in b.instrs().rev() {
                fact = analysis.transfer(i, &program.instrs()[i], &fact);
            }
        }
    }
    fact
}

fn solve_forward<A: DataflowAnalysis>(
    program: &Program,
    cfg: &Cfg,
    analysis: &A,
) -> Solution<A::Fact> {
    let nb = cfg.blocks.len();
    let mut input: Vec<A::Fact> = (0..nb).map(|_| analysis.join_identity()).collect();
    input[0] = analysis.boundary();
    let mut dirty = vec![true; nb];
    let mut work: Vec<usize> = (0..nb).filter(|&b| cfg.reachable[b]).collect();
    while let Some(b) = work.pop() {
        if !dirty[b] {
            continue;
        }
        dirty[b] = false;
        let out = transfer_block(program, cfg, analysis, b, &input[b]);
        for &s in &cfg.blocks[b].succs {
            let joined = analysis.join(&input[s], &out);
            if joined != input[s] {
                input[s] = joined;
                if !dirty[s] {
                    dirty[s] = true;
                    work.push(s);
                }
            }
        }
    }

    let mut at = vec![None; program.instrs().len()];
    for b in 0..nb {
        if !cfg.reachable[b] {
            continue;
        }
        let mut fact = input[b].clone();
        for i in cfg.blocks[b].instrs() {
            at[i] = Some(fact.clone());
            fact = analysis.transfer(i, &program.instrs()[i], &fact);
        }
    }
    Solution { at }
}

fn solve_backward<A: DataflowAnalysis>(
    program: &Program,
    cfg: &Cfg,
    analysis: &A,
) -> Solution<A::Fact> {
    let nb = cfg.blocks.len();
    // `output[b]`: fact at the end of block b. Exit blocks (no
    // successors) start from the boundary fact.
    let mut output: Vec<A::Fact> = (0..nb)
        .map(|b| {
            if cfg.blocks[b].succs.is_empty() {
                analysis.boundary()
            } else {
                analysis.join_identity()
            }
        })
        .collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for b in 0..nb {
        if !cfg.reachable[b] {
            continue;
        }
        for &s in &cfg.blocks[b].succs {
            preds[s].push(b);
        }
    }
    let mut dirty = vec![true; nb];
    let mut work: Vec<usize> = (0..nb).filter(|&b| cfg.reachable[b]).collect();
    while let Some(b) = work.pop() {
        if !dirty[b] {
            continue;
        }
        dirty[b] = false;
        let entry_fact = transfer_block(program, cfg, analysis, b, &output[b]);
        for &p in &preds[b] {
            let joined = analysis.join(&output[p], &entry_fact);
            if joined != output[p] {
                output[p] = joined;
                if !dirty[p] {
                    dirty[p] = true;
                    work.push(p);
                }
            }
        }
    }

    let mut at = vec![None; program.instrs().len()];
    for b in 0..nb {
        if !cfg.reachable[b] {
            continue;
        }
        let mut fact = output[b].clone();
        for i in cfg.blocks[b].instrs().rev() {
            at[i] = Some(fact.clone());
            fact = analysis.transfer(i, &program.instrs()[i], &fact);
        }
    }
    Solution { at }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, CmpOp, ProgramBuilder};

    /// Forward "definitely initialized registers" as a bitmask.
    struct MustInit;
    impl DataflowAnalysis for MustInit {
        type Fact = u64;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> u64 {
            0
        }
        fn join_identity(&self) -> u64 {
            u64::MAX
        }
        fn join(&self, a: &u64, b: &u64) -> u64 {
            a & b
        }
        fn transfer(&self, _idx: usize, instr: &Instr, fact: &u64) -> u64 {
            match instr {
                Instr::Read { dst, .. } | Instr::Mov { dst, .. } | Instr::Binary { dst, .. } => {
                    fact | (1 << dst)
                }
                _ => *fact,
            }
        }
    }

    #[test]
    fn must_init_meets_over_branches() {
        // r0 set on both arms, r1 only on one.
        let mut b = ProgramBuilder::new("branchy");
        let other = b.fresh_label();
        let join = b.fresh_label();
        b.jump_if(reg(5), CmpOp::Eq, imm(0), other);
        b.mov(0, imm(1)).mov(1, imm(2)).jump(join);
        b.bind(other);
        b.mov(0, imm(3));
        b.bind(join);
        b.ret(vec![reg(0)]);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let sol = solve(&p, &cfg, &MustInit);
        // Fact before the final Return: r0 definitely set, r1 not.
        let ret_idx = p.instrs().len() - 1;
        let fact = sol.at[ret_idx].unwrap();
        assert_eq!(fact & 0b01, 0b01);
        assert_eq!(fact & 0b10, 0);
    }

    #[test]
    fn loop_reaches_fixpoint() {
        let mut b = ProgramBuilder::new("sum5");
        let top = b.fresh_label();
        let done = b.fresh_label();
        b.mov(0, imm(0)).mov(1, imm(1));
        b.bind(top);
        b.jump_if(reg(1), CmpOp::Gt, imm(5), done)
            .add(0, reg(0), reg(1))
            .add(1, reg(1), imm(1))
            .jump(top);
        b.bind(done);
        b.ret(vec![reg(0)]);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let sol = solve(&p, &cfg, &MustInit);
        for (i, f) in sol.at.iter().enumerate() {
            assert!(f.is_some(), "instr {i} reachable");
        }
        // At loop head both r0 and r1 are definitely initialized.
        assert_eq!(sol.at[2].unwrap() & 0b11, 0b11);
    }

    /// Backward liveness as a bitmask.
    struct Live;
    impl DataflowAnalysis for Live {
        type Fact = u64;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn boundary(&self) -> u64 {
            0
        }
        fn join_identity(&self) -> u64 {
            0
        }
        fn join(&self, a: &u64, b: &u64) -> u64 {
            a | b
        }
        fn transfer(&self, _idx: usize, instr: &Instr, fact: &u64) -> u64 {
            use moc_core::program::Operand;
            let use_bit = |o: &Operand, m: u64| match o {
                Operand::Reg(r) => m | (1 << r),
                _ => m,
            };
            match instr {
                Instr::Read { dst, .. } => fact & !(1 << dst),
                Instr::Mov { dst, src } => use_bit(src, fact & !(1 << dst)),
                Instr::Binary { dst, lhs, rhs, .. } => {
                    use_bit(rhs, use_bit(lhs, fact & !(1 << dst)))
                }
                Instr::Write { src, .. } => use_bit(src, *fact),
                Instr::JumpIf { lhs, rhs, .. } => use_bit(rhs, use_bit(lhs, *fact)),
                Instr::Return { outputs } => outputs.iter().fold(*fact, |m, o| use_bit(o, m)),
                Instr::Jump { .. } => *fact,
            }
        }
    }

    #[test]
    fn liveness_flows_backward() {
        let mut b = ProgramBuilder::new("w");
        b.mov(0, imm(1))
            .mov(1, imm(2))
            .write(ObjectId::new(0), reg(0))
            .ret(vec![]);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let sol = solve(&p, &cfg, &Live);
        // After `mov r0`: r0 live (used by write), r1 not (never used).
        assert_eq!(sol.at[0].unwrap() & 0b11, 0b01);
        // After `mov r1`: r1 is dead.
        assert_eq!(sol.at[1].unwrap() & 0b10, 0);
    }
}
