//! Control-flow graph construction over m-operation programs.
//!
//! Instructions are partitioned into basic blocks (maximal straight-line
//! runs); edges follow fall-through and jump targets. Construction is
//! *path-sensitive* for statically decidable branches: a `JumpIf` whose
//! comparison can be folded (both operands immediate, or syntactically
//! identical operands) contributes only its feasible edge. This is what
//! lets the analyzer prove that e.g. a branch guarding an unreachable
//! write can never be taken.

use moc_core::program::{CmpOp, Instr, Operand, Program};

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BasicBlock {
    /// Index of the first instruction in the block.
    pub start: usize,
    /// One past the index of the last instruction in the block.
    pub end: usize,
    /// Successor blocks (after branch folding).
    pub succs: Vec<usize>,
}

impl BasicBlock {
    /// Instruction indices belonging to this block.
    pub fn instrs(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Control-flow graph of a validated [`Program`].
#[derive(Debug, Clone)]
pub(crate) struct Cfg {
    /// Basic blocks ordered by start index; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Block index containing each instruction.
    pub block_of: Vec<usize>,
    /// Per-block reachability from the entry (after branch folding).
    pub reachable: Vec<bool>,
    /// DFS back edges `(from_block, to_block)` within the reachable
    /// subgraph; non-empty iff the program can loop.
    pub back_edges: Vec<(usize, usize)>,
}

/// Statically decides a `JumpIf`: `Some(taken)` when the branch always
/// goes one way, `None` when both edges are feasible.
pub(crate) fn fold_branch(lhs: &Operand, cmp: CmpOp, rhs: &Operand) -> Option<bool> {
    if let (Operand::Imm(a), Operand::Imm(b)) = (lhs, rhs) {
        return Some(cmp.holds(*a, *b));
    }
    if lhs == rhs {
        // `x op x` for any register or argument x.
        return Some(matches!(cmp, CmpOp::Eq | CmpOp::Le | CmpOp::Ge));
    }
    None
}

impl Cfg {
    /// Builds the CFG of `program` with feasible-edge branch folding.
    pub fn build(program: &Program) -> Cfg {
        let instrs = program.instrs();
        let n = instrs.len();
        assert!(n > 0, "validated programs are non-empty");

        // Leaders: entry, every jump target, every instruction after a
        // terminator. Leaders are computed without folding so folded-away
        // targets still start their own (unreachable) block.
        let mut is_leader = vec![false; n];
        is_leader[0] = true;
        for (i, ins) in instrs.iter().enumerate() {
            match ins {
                Instr::Jump { target } | Instr::JumpIf { target, .. } => {
                    is_leader[*target] = true;
                    if i + 1 < n {
                        is_leader[i + 1] = true;
                    }
                }
                Instr::Return { .. } if i + 1 < n => is_leader[i + 1] = true,
                _ => {}
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for i in 1..=n {
            if i == n || is_leader[i] {
                let b = blocks.len();
                for j in start..i {
                    block_of[j] = b;
                }
                blocks.push(BasicBlock {
                    start,
                    end: i,
                    succs: Vec::new(),
                });
                start = i;
            }
        }

        for b in 0..blocks.len() {
            let last = blocks[b].end - 1;
            let mut succs = Vec::new();
            match &instrs[last] {
                Instr::Return { .. } => {}
                Instr::Jump { target } => succs.push(block_of[*target]),
                Instr::JumpIf {
                    lhs,
                    cmp,
                    rhs,
                    target,
                    ..
                } => match fold_branch(lhs, *cmp, rhs) {
                    Some(true) => succs.push(block_of[*target]),
                    Some(false) => {
                        if last + 1 < n {
                            succs.push(block_of[last + 1]);
                        }
                    }
                    None => {
                        if last + 1 < n {
                            succs.push(block_of[last + 1]);
                        }
                        if !succs.contains(&block_of[*target]) {
                            succs.push(block_of[*target]);
                        }
                    }
                },
                _ => {
                    // Straight-line fall-through. `last + 1 == n` only in
                    // unreachable dead tails (validation rejects reachable
                    // fall-off), which simply get no successor.
                    if last + 1 < n {
                        succs.push(block_of[last + 1]);
                    }
                }
            }
            blocks[b].succs = succs;
        }

        // Reachability over folded edges.
        let mut reachable = vec![false; blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if reachable[b] {
                continue;
            }
            reachable[b] = true;
            stack.extend(blocks[b].succs.iter().copied());
        }

        // Back edges via iterative DFS (grey/black colouring) restricted
        // to the reachable subgraph.
        let mut back_edges = Vec::new();
        let mut colour = vec![0u8; blocks.len()]; // 0 white, 1 grey, 2 black
        let mut dfs: Vec<(usize, usize)> = vec![(0, 0)]; // (block, next succ idx)
        colour[0] = 1;
        while let Some((b, si)) = dfs.last_mut() {
            if let Some(&s) = blocks[*b].succs.get(*si) {
                *si += 1;
                match colour[s] {
                    0 => {
                        colour[s] = 1;
                        dfs.push((s, 0));
                    }
                    1 => back_edges.push((*b, s)),
                    _ => {}
                }
            } else {
                colour[*b] = 2;
                dfs.pop();
            }
        }

        Cfg {
            blocks,
            block_of,
            reachable,
            back_edges,
        }
    }

    /// Per-instruction reachability from the entry.
    pub(crate) fn reachable_instrs(&self) -> Vec<bool> {
        let mut r = vec![false; self.block_of.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            if self.reachable[b] {
                for i in block.instrs() {
                    r[i] = true;
                }
            }
        }
        r
    }

    /// Whether every execution terminates without relying on fuel: true
    /// iff the reachable subgraph is acyclic.
    pub(crate) fn is_acyclic(&self) -> bool {
        self.back_edges.is_empty()
    }

    /// Upper bound on instructions executed by any run, when the CFG is
    /// acyclic (`None` if the program can loop). This is the longest
    /// entry-to-exit path measured in instructions — a static fuel bound.
    pub(crate) fn max_path_len(&self) -> Option<u64> {
        if !self.is_acyclic() {
            return None;
        }
        // Longest path over the reachable DAG via DFS postorder.
        let mut order = Vec::new();
        let mut state = vec![0u8; self.blocks.len()];
        let mut dfs: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = 1;
        while let Some((b, si)) = dfs.last_mut() {
            if let Some(&s) = self.blocks[*b].succs.get(*si) {
                *si += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    dfs.push((s, 0));
                }
            } else {
                order.push(*b);
                state[*b] = 2;
                dfs.pop();
            }
        }
        let mut dp = vec![0u64; self.blocks.len()];
        for &b in &order {
            let tail = self.blocks[b]
                .succs
                .iter()
                .map(|&s| dp[s])
                .max()
                .unwrap_or(0);
            dp[b] = self.blocks[b].len() as u64 + tail;
        }
        Some(dp[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::ids::ObjectId;
    use moc_core::program::{arg, imm, reg, ProgramBuilder};

    fn dcas() -> Program {
        let x = ObjectId::new(0);
        let y = ObjectId::new(1);
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
        b.build().unwrap()
    }

    #[test]
    fn dcas_blocks_and_reachability() {
        let p = dcas();
        let cfg = Cfg::build(&p);
        // Blocks: [0..3), [3..4), [4..7), [7..8).
        assert_eq!(cfg.blocks.len(), 4);
        assert!(cfg.reachable.iter().all(|&r| r));
        assert!(cfg.is_acyclic());
        // Longest path: 3 + 1 + 3 = 7 instructions.
        assert_eq!(cfg.max_path_len(), Some(7));
    }

    #[test]
    fn folded_branch_prunes_edge() {
        // jump_if 0 == 0 always takes the branch; the fall-through block
        // is unreachable.
        let mut b = ProgramBuilder::new("folded");
        let l = b.fresh_label();
        b.jump_if(imm(0), CmpOp::Eq, imm(0), l);
        b.write(ObjectId::new(0), imm(9)).ret(vec![]);
        b.bind(l);
        b.ret(vec![imm(1)]);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let r = cfg.reachable_instrs();
        assert!(r[0] && r[3]);
        assert!(!r[1] && !r[2], "fall-through arm should be pruned");
    }

    #[test]
    fn same_operand_branch_folds() {
        assert_eq!(fold_branch(&reg(3), CmpOp::Eq, &reg(3)), Some(true));
        assert_eq!(fold_branch(&reg(3), CmpOp::Lt, &reg(3)), Some(false));
        assert_eq!(fold_branch(&arg(1), CmpOp::Ge, &arg(1)), Some(true));
        assert_eq!(fold_branch(&reg(0), CmpOp::Eq, &reg(1)), None);
        assert_eq!(fold_branch(&imm(2), CmpOp::Gt, &imm(1)), Some(true));
    }

    #[test]
    fn loop_has_back_edge() {
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
        assert!(!cfg.is_acyclic());
        assert_eq!(cfg.back_edges.len(), 1);
        assert_eq!(cfg.max_path_len(), None);
    }
}
