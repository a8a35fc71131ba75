//! The m-operation DSL: deterministic procedures of reads and writes.
//!
//! Section 2.1 describes an m-operation as "a *deterministic procedure* of
//! read and write operations on shared objects". We realize this as a small
//! register machine ([`Program`]) whose only side effects are
//! [`Instr::Read`] and [`Instr::Write`] on shared objects. Programs are
//! plain data, so the Section 5 protocols can
//! atomically broadcast an update m-operation and *re-execute it
//! deterministically on every replica* — exactly the paper's execution
//! model.
//!
//! Static analysis provides the conservative classification the protocols
//! need: "we take a conservative approach and treat an m-operation as an
//! update m-operation if it can *potentially* write to some object"
//! (Section 5). [`Program::potential_writes`] is that over-approximation;
//! a failed DCAS writes nothing dynamically yet is still treated as an
//! update.
//!
//! ```
//! use moc_core::ids::ObjectId;
//! use moc_core::program::{arg, imm, reg, CmpOp, Program, ProgramBuilder};
//!
//! // DCAS(x, y, old_x, old_y, new_x, new_y) — Section 1's motivating
//! // multi-object operation.
//! let x = ObjectId::new(0);
//! let y = ObjectId::new(1);
//! let mut b = ProgramBuilder::new("dcas");
//! let fail = b.fresh_label();
//! b.read(x, 0)
//!     .read(y, 1)
//!     .jump_if(reg(0), CmpOp::Ne, arg(0), fail)
//!     .jump_if(reg(1), CmpOp::Ne, arg(1), fail)
//!     .write(x, arg(2))
//!     .write(y, arg(3))
//!     .ret(vec![imm(1)]);
//! b.bind(fail);
//! b.ret(vec![imm(0)]);
//! let dcas: Program = b.build().unwrap();
//! assert!(dcas.is_potential_update());
//! assert_eq!(dcas.potential_writes().len(), 2);
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::ids::ObjectId;
use crate::value::Value;

/// Number of general-purpose registers available to a program.
pub const NUM_REGS: usize = 32;

/// Default execution fuel: upper bound on interpreted instructions, keeping
/// m-operations finite (their response event must eventually occur).
pub const DEFAULT_FUEL: u64 = 100_000;

/// An operand: a register, an immediate constant, or an invocation argument
/// (`arg` in the paper's `α(arg, res)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// General-purpose register.
    Reg(u8),
    /// Immediate constant.
    Imm(Value),
    /// Invocation argument by position.
    Arg(u8),
}

/// Shorthand for [`Operand::Reg`].
pub const fn reg(i: u8) -> Operand {
    Operand::Reg(i)
}

/// Shorthand for [`Operand::Imm`].
pub const fn imm(v: Value) -> Operand {
    Operand::Imm(v)
}

/// Shorthand for [`Operand::Arg`].
pub const fn arg(i: u8) -> Operand {
    Operand::Arg(i)
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::Arg(a) => write!(f, "a{a}"),
        }
    }
}

/// Binary arithmetic operators (wrapping semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinaryOp {
    fn apply(self, a: Value, b: Value) -> Value {
        match self {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
        }
    }
}

/// Comparison operators for conditional jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on concrete values (used by the
    /// interpreter and by static constant folding).
    pub fn holds(self, a: Value, b: Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// One instruction of an m-operation program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Read shared object `object` into register `dst`.
    Read {
        /// Object to read.
        object: ObjectId,
        /// Destination register.
        dst: u8,
    },
    /// Write `src` to shared object `object`.
    Write {
        /// Object to write.
        object: ObjectId,
        /// Value source.
        src: Operand,
    },
    /// Copy `src` into register `dst`.
    Mov {
        /// Destination register.
        dst: u8,
        /// Value source.
        src: Operand,
    },
    /// `dst ← lhs op rhs`.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Destination register.
        dst: u8,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Unconditional jump to instruction index `target`.
    Jump {
        /// Destination instruction index.
        target: usize,
    },
    /// Jump to `target` if `lhs cmp rhs` holds.
    JumpIf {
        /// Left comparand.
        lhs: Operand,
        /// Comparison.
        cmp: CmpOp,
        /// Right comparand.
        rhs: Operand,
        /// Destination instruction index.
        target: usize,
    },
    /// Finish the m-operation, returning `outputs` (`res` in `α(arg, res)`).
    Return {
        /// Output values.
        outputs: Vec<Operand>,
    },
}

/// Errors in program construction or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was used but never bound (builder error).
    UnboundLabel(usize),
    /// A jump targets a non-existent instruction.
    BadJumpTarget {
        /// Index of the jumping instruction.
        instr: usize,
        /// Offending target.
        target: usize,
    },
    /// A register index exceeds [`NUM_REGS`].
    RegisterOutOfRange {
        /// Index of the offending instruction.
        instr: usize,
        /// Offending register.
        register: u8,
    },
    /// Execution referenced argument `index` but only `given` were supplied.
    ArgOutOfRange {
        /// Referenced argument position.
        index: u8,
        /// Number of arguments supplied.
        given: usize,
    },
    /// The instruction budget was exhausted (non-terminating program).
    FuelExhausted {
        /// Name of the program.
        name: String,
    },
    /// Control flow can fall off the end of the instruction stream without
    /// executing a `Return`. Every m-operation must produce its response
    /// event explicitly; a fall-through path is a construction bug, not an
    /// empty response.
    MissingReturn {
        /// Index of the last instruction on a falling-through path, or
        /// `None` for an empty program.
        instr: Option<usize>,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel(l) => write!(f, "label {l} was never bound"),
            ProgramError::BadJumpTarget { instr, target } => {
                write!(f, "instruction {instr} jumps to invalid target {target}")
            }
            ProgramError::RegisterOutOfRange { instr, register } => {
                write!(
                    f,
                    "instruction {instr} uses register r{register} (max {NUM_REGS})"
                )
            }
            ProgramError::ArgOutOfRange { index, given } => {
                write!(f, "argument a{index} referenced but only {given} supplied")
            }
            ProgramError::FuelExhausted { name } => {
                write!(f, "program '{name}' exhausted its instruction budget")
            }
            ProgramError::MissingReturn { instr: Some(i) } => {
                write!(f, "control flow falls off the end after instruction {i}")
            }
            ProgramError::MissingReturn { instr: None } => {
                write!(f, "program is empty (no Return instruction)")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated, deterministic m-operation program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    name: Arc<str>,
    instrs: Vec<Instr>,
}

impl Program {
    /// Validates and wraps raw instructions.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::BadJumpTarget`] or
    /// [`ProgramError::RegisterOutOfRange`] if the instruction stream is
    /// malformed, and [`ProgramError::MissingReturn`] if some reachable
    /// control-flow path runs past the end of the stream without a
    /// `Return`.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Result<Self, ProgramError> {
        let p = Program {
            name: name.into().into(),
            instrs,
        };
        p.validate()?;
        Ok(p)
    }

    fn validate(&self) -> Result<(), ProgramError> {
        let n = self.instrs.len();
        for (i, instr) in self.instrs.iter().enumerate() {
            let check_reg = |r: u8| {
                if (r as usize) >= NUM_REGS {
                    Err(ProgramError::RegisterOutOfRange {
                        instr: i,
                        register: r,
                    })
                } else {
                    Ok(())
                }
            };
            let check_operand = |o: &Operand| match o {
                Operand::Reg(r) => check_reg(*r),
                _ => Ok(()),
            };
            let check_target = |t: usize| {
                if t >= n {
                    Err(ProgramError::BadJumpTarget {
                        instr: i,
                        target: t,
                    })
                } else {
                    Ok(())
                }
            };
            match instr {
                Instr::Read { dst, .. } => check_reg(*dst)?,
                Instr::Write { src, .. } => check_operand(src)?,
                Instr::Mov { dst, src } => {
                    check_reg(*dst)?;
                    check_operand(src)?;
                }
                Instr::Binary { dst, lhs, rhs, .. } => {
                    check_reg(*dst)?;
                    check_operand(lhs)?;
                    check_operand(rhs)?;
                }
                Instr::Jump { target } => check_target(*target)?,
                Instr::JumpIf {
                    lhs, rhs, target, ..
                } => {
                    check_operand(lhs)?;
                    check_operand(rhs)?;
                    check_target(*target)?;
                }
                Instr::Return { outputs } => {
                    for o in outputs {
                        check_operand(o)?;
                    }
                }
            }
        }
        self.check_all_paths_return()
    }

    /// Depth-first reachability from entry: every reachable path must end
    /// in a `Return`. Falling through past the last instruction is
    /// rejected rather than treated as an implicit empty response.
    fn check_all_paths_return(&self) -> Result<(), ProgramError> {
        let n = self.instrs.len();
        if n == 0 {
            return Err(ProgramError::MissingReturn { instr: None });
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if seen[i] {
                continue;
            }
            seen[i] = true;
            let fall_through = |stack: &mut Vec<usize>| {
                if i + 1 >= n {
                    Err(ProgramError::MissingReturn { instr: Some(i) })
                } else {
                    stack.push(i + 1);
                    Ok(())
                }
            };
            match &self.instrs[i] {
                Instr::Return { .. } => {}
                Instr::Jump { target } => stack.push(*target),
                Instr::JumpIf { target, .. } => {
                    stack.push(*target);
                    fall_through(&mut stack)?;
                }
                _ => fall_through(&mut stack)?,
            }
        }
        Ok(())
    }

    /// The program's name (used as the m-operation label in histories).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name as a history label: every record of the program's
    /// m-operations shares the one allocation.
    pub fn label(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// `wobjects`-over-approximation: every object a `Write` instruction
    /// mentions, whether or not control flow reaches it. The Section 5
    /// protocols classify an m-operation as an update iff this is nonempty.
    pub fn potential_writes(&self) -> BTreeSet<ObjectId> {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Write { object, .. } => Some(*object),
                _ => None,
            })
            .collect()
    }

    /// Every object a `Read` instruction mentions.
    pub fn potential_reads(&self) -> BTreeSet<ObjectId> {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Read { object, .. } => Some(*object),
                _ => None,
            })
            .collect()
    }

    /// Every object the program mentions.
    pub fn referenced_objects(&self) -> BTreeSet<ObjectId> {
        let mut s = self.potential_writes();
        s.extend(self.potential_reads());
        s
    }

    /// Whether the protocol must treat this m-operation as an update: the
    /// program has a `Write` instruction.
    pub fn is_potential_update(&self) -> bool {
        self.instrs.iter().any(|i| matches!(i, Instr::Write { .. }))
    }

    /// One more than the highest argument position referenced — the number
    /// of arguments an invocation must supply.
    pub fn arity(&self) -> usize {
        let of_operand = |o: &Operand| match o {
            Operand::Arg(a) => Some(*a as usize + 1),
            _ => None,
        };
        self.instrs
            .iter()
            .flat_map(|i| match i {
                Instr::Write { src, .. } | Instr::Mov { src, .. } => {
                    vec![of_operand(src)]
                }
                Instr::Binary { lhs, rhs, .. } | Instr::JumpIf { lhs, rhs, .. } => {
                    vec![of_operand(lhs), of_operand(rhs)]
                }
                Instr::Return { outputs } => outputs.iter().map(of_operand).collect(),
                _ => vec![],
            })
            .flatten()
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}:", self.name)?;
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "  {i:3}: {instr:?}")?;
        }
        Ok(())
    }
}

/// The environment a program executes against: the replica's object store
/// (or a query snapshot). Implementations record read provenance and track
/// written objects; the interpreter only moves values.
pub trait MContext {
    /// Reads the current value of `object`.
    fn read(&mut self, object: ObjectId) -> Value;
    /// Writes `value` to `object`.
    fn write(&mut self, object: ObjectId, value: Value);
}

/// A trivial in-memory context for direct interpretation (tests, examples).
#[derive(Debug, Clone, Default)]
pub struct VecContext {
    /// Backing values, indexed by object.
    pub values: Vec<Value>,
}

impl VecContext {
    /// Creates a context with `num_objects` objects initialized to zero.
    pub fn new(num_objects: usize) -> Self {
        VecContext {
            values: vec![0; num_objects],
        }
    }
}

impl MContext for VecContext {
    fn read(&mut self, object: ObjectId) -> Value {
        self.values[object.index()]
    }
    fn write(&mut self, object: ObjectId, value: Value) {
        self.values[object.index()] = value;
    }
}

/// Result of executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The values returned by the program's `Return`. Validation rejects
    /// programs with fall-through paths, so a `Return` always runs.
    pub outputs: Vec<Value>,
    /// Instructions executed.
    pub steps: u64,
}

/// Executes `program` with `args` against `ctx`, spending at most `fuel`
/// instructions.
///
/// # Errors
///
/// Returns [`ProgramError::ArgOutOfRange`] if the program references an
/// argument beyond `args`, or [`ProgramError::FuelExhausted`] if it does not
/// terminate within `fuel` instructions.
pub fn execute(
    program: &Program,
    args: &[Value],
    ctx: &mut dyn MContext,
    fuel: u64,
) -> Result<ExecOutcome, ProgramError> {
    let mut regs = [0 as Value; NUM_REGS];
    let mut pc = 0usize;
    let mut steps = 0u64;

    let eval = |regs: &[Value; NUM_REGS], o: &Operand| -> Result<Value, ProgramError> {
        match o {
            Operand::Reg(r) => Ok(regs[*r as usize]),
            Operand::Imm(v) => Ok(*v),
            Operand::Arg(a) => args
                .get(*a as usize)
                .copied()
                .ok_or(ProgramError::ArgOutOfRange {
                    index: *a,
                    given: args.len(),
                }),
        }
    };

    while pc < program.instrs.len() {
        if steps >= fuel {
            return Err(ProgramError::FuelExhausted {
                name: program.name.to_string(),
            });
        }
        steps += 1;
        match &program.instrs[pc] {
            Instr::Read { object, dst } => {
                regs[*dst as usize] = ctx.read(*object);
                pc += 1;
            }
            Instr::Write { object, src } => {
                let v = eval(&regs, src)?;
                ctx.write(*object, v);
                pc += 1;
            }
            Instr::Mov { dst, src } => {
                regs[*dst as usize] = eval(&regs, src)?;
                pc += 1;
            }
            Instr::Binary { op, dst, lhs, rhs } => {
                regs[*dst as usize] = op.apply(eval(&regs, lhs)?, eval(&regs, rhs)?);
                pc += 1;
            }
            Instr::Jump { target } => pc = *target,
            Instr::JumpIf {
                lhs,
                cmp,
                rhs,
                target,
            } => {
                if cmp.holds(eval(&regs, lhs)?, eval(&regs, rhs)?) {
                    pc = *target;
                } else {
                    pc += 1;
                }
            }
            Instr::Return { outputs } => {
                let outputs = outputs
                    .iter()
                    .map(|o| eval(&regs, o))
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(ExecOutcome { outputs, steps });
            }
        }
    }
    Ok(ExecOutcome {
        outputs: Vec::new(),
        steps,
    })
}

/// A forward-declarable jump label for [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug, Clone)]
enum BuildInstr {
    Done(Instr),
    Jump(Label),
    JumpIf {
        lhs: Operand,
        cmp: CmpOp,
        rhs: Operand,
        label: Label,
    },
}

/// Incremental constructor for [`Program`]s with label-based control flow.
///
/// Methods return `&mut Self` for chaining (non-consuming builder).
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    instrs: Vec<BuildInstr>,
    labels: Vec<Option<usize>>,
}

impl ProgramBuilder {
    /// Starts a new program named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            instrs: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Allocates an unbound label for forward jumps.
    pub fn fresh_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current instruction position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        assert!(
            self.labels[label.0].is_none(),
            "label bound twice in program '{}'",
            self.name
        );
        self.labels[label.0] = Some(self.instrs.len());
        self
    }

    /// Appends `read object -> r(dst)`.
    pub fn read(&mut self, object: ObjectId, dst: u8) -> &mut Self {
        self.instrs
            .push(BuildInstr::Done(Instr::Read { object, dst }));
        self
    }

    /// Appends `write src -> object`.
    pub fn write(&mut self, object: ObjectId, src: impl Into<Operand>) -> &mut Self {
        self.instrs.push(BuildInstr::Done(Instr::Write {
            object,
            src: src.into(),
        }));
        self
    }

    /// Appends `r(dst) <- src`.
    pub fn mov(&mut self, dst: u8, src: impl Into<Operand>) -> &mut Self {
        self.instrs.push(BuildInstr::Done(Instr::Mov {
            dst,
            src: src.into(),
        }));
        self
    }

    /// Appends `r(dst) <- lhs op rhs`.
    pub fn binary(
        &mut self,
        op: BinaryOp,
        dst: u8,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> &mut Self {
        self.instrs.push(BuildInstr::Done(Instr::Binary {
            op,
            dst,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }));
        self
    }

    /// Appends `r(dst) <- lhs + rhs`.
    pub fn add(&mut self, dst: u8, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> &mut Self {
        self.binary(BinaryOp::Add, dst, lhs, rhs)
    }

    /// Appends `r(dst) <- lhs - rhs`.
    pub fn sub(&mut self, dst: u8, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> &mut Self {
        self.binary(BinaryOp::Sub, dst, lhs, rhs)
    }

    /// Appends an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.instrs.push(BuildInstr::Jump(label));
        self
    }

    /// Appends a conditional jump to `label` when `lhs cmp rhs` holds.
    pub fn jump_if(
        &mut self,
        lhs: impl Into<Operand>,
        cmp: CmpOp,
        rhs: impl Into<Operand>,
        label: Label,
    ) -> &mut Self {
        self.instrs.push(BuildInstr::JumpIf {
            lhs: lhs.into(),
            cmp,
            rhs: rhs.into(),
            label,
        });
        self
    }

    /// Appends a return of `outputs`.
    pub fn ret(&mut self, outputs: Vec<Operand>) -> &mut Self {
        self.instrs
            .push(BuildInstr::Done(Instr::Return { outputs }));
        self
    }

    /// Resolves labels and validates the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnboundLabel`] if a referenced label was
    /// never bound, plus any error [`Program::new`] reports.
    pub fn build(&self) -> Result<Program, ProgramError> {
        let resolve = |l: Label| self.labels[l.0].ok_or(ProgramError::UnboundLabel(l.0));
        let instrs = self
            .instrs
            .iter()
            .map(|bi| match bi {
                BuildInstr::Done(i) => Ok(i.clone()),
                BuildInstr::Jump(l) => Ok(Instr::Jump {
                    target: resolve(*l)?,
                }),
                BuildInstr::JumpIf {
                    lhs,
                    cmp,
                    rhs,
                    label,
                } => Ok(Instr::JumpIf {
                    lhs: *lhs,
                    cmp: *cmp,
                    rhs: *rhs,
                    target: resolve(*label)?,
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Program::new(self.name.clone(), instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn dcas() -> Program {
        let x = oid(0);
        let y = oid(1);
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
    fn dcas_succeeds_when_both_match() {
        let p = dcas();
        let mut ctx = VecContext::new(2);
        let out = execute(&p, &[0, 0, 5, 7], &mut ctx, DEFAULT_FUEL).unwrap();
        assert_eq!(out.outputs, vec![1]);
        assert_eq!(ctx.values, vec![5, 7]);
    }

    #[test]
    fn dcas_fails_without_writing() {
        let p = dcas();
        let mut ctx = VecContext::new(2);
        ctx.values = vec![0, 9];
        let out = execute(&p, &[0, 0, 5, 7], &mut ctx, DEFAULT_FUEL).unwrap();
        assert_eq!(out.outputs, vec![0]);
        assert_eq!(ctx.values, vec![0, 9], "failed DCAS must not write");
        // Yet the static classification is 'update'.
        assert!(p.is_potential_update());
    }

    #[test]
    fn static_analysis() {
        let p = dcas();
        assert_eq!(p.potential_writes(), [oid(0), oid(1)].into());
        assert_eq!(p.potential_reads(), [oid(0), oid(1)].into());
        assert_eq!(p.referenced_objects().len(), 2);
        assert_eq!(p.arity(), 4);
        assert_eq!(p.name(), "dcas");
    }

    #[test]
    fn arithmetic_and_mov() {
        let mut b = ProgramBuilder::new("arith");
        b.mov(0, imm(10))
            .add(1, reg(0), imm(5))
            .sub(2, reg(1), imm(3))
            .binary(BinaryOp::Mul, 3, reg(2), imm(2))
            .binary(BinaryOp::Min, 4, reg(3), imm(20))
            .binary(BinaryOp::Max, 5, reg(4), imm(0))
            .ret(vec![reg(5)]);
        let p = b.build().unwrap();
        let out = execute(&p, &[], &mut VecContext::new(0), DEFAULT_FUEL).unwrap();
        assert_eq!(out.outputs, vec![20]); // min(24, 20) then max(.., 0)
    }

    #[test]
    fn loops_consume_fuel() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.fresh_label();
        b.bind(top);
        b.jump(top);
        let p = b.build().unwrap();
        let err = execute(&p, &[], &mut VecContext::new(0), 100).unwrap_err();
        assert_eq!(
            err,
            ProgramError::FuelExhausted {
                name: "spin".into()
            }
        );
    }

    #[test]
    fn bounded_loop_terminates() {
        // Sum 1..=5 via a loop.
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
        let out = execute(&p, &[], &mut VecContext::new(0), DEFAULT_FUEL).unwrap();
        assert_eq!(out.outputs, vec![15]);
        assert!(out.steps > 5);
    }

    #[test]
    fn missing_arg_is_reported() {
        let mut b = ProgramBuilder::new("needs-arg");
        b.ret(vec![arg(2)]);
        let p = b.build().unwrap();
        let err = execute(&p, &[1], &mut VecContext::new(0), DEFAULT_FUEL).unwrap_err();
        assert_eq!(err, ProgramError::ArgOutOfRange { index: 2, given: 1 });
        assert_eq!(p.arity(), 3);
    }

    #[test]
    fn unbound_label_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.fresh_label();
        b.jump(l);
        assert_eq!(b.build().unwrap_err(), ProgramError::UnboundLabel(0));
    }

    #[test]
    fn bad_register_rejected() {
        let err = Program::new(
            "bad",
            vec![Instr::Read {
                object: oid(0),
                dst: NUM_REGS as u8,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::RegisterOutOfRange { .. }));
    }

    #[test]
    fn bad_jump_rejected() {
        let err = Program::new("bad", vec![Instr::Jump { target: 7 }]).unwrap_err();
        assert_eq!(
            err,
            ProgramError::BadJumpTarget {
                instr: 0,
                target: 7
            }
        );
    }

    #[test]
    fn empty_program_rejected() {
        let err = Program::new("empty", vec![]).unwrap_err();
        assert_eq!(err, ProgramError::MissingReturn { instr: None });
    }

    #[test]
    fn fall_through_path_rejected() {
        // The taken branch returns, but the fall-through runs off the end.
        let err = Program::new(
            "no-ret",
            vec![
                Instr::JumpIf {
                    lhs: arg(0),
                    cmp: CmpOp::Eq,
                    rhs: imm(0),
                    target: 1,
                },
                Instr::Mov {
                    dst: 0,
                    src: imm(1),
                },
            ],
        )
        .unwrap_err();
        assert_eq!(err, ProgramError::MissingReturn { instr: Some(1) });
    }

    #[test]
    fn unreachable_tail_does_not_need_return() {
        // An infinite loop never falls off the end; instructions after an
        // unconditional backward jump are dead but harmless.
        let p = Program::new(
            "spin-tail",
            vec![
                Instr::Jump { target: 0 },
                Instr::Mov {
                    dst: 0,
                    src: imm(7),
                },
            ],
        )
        .unwrap();
        assert_eq!(p.instrs().len(), 2);
    }

    #[test]
    fn query_program_is_not_update() {
        let mut b = ProgramBuilder::new("read2");
        b.read(oid(0), 0).read(oid(1), 1).ret(vec![reg(0), reg(1)]);
        let p = b.build().unwrap();
        assert!(!p.is_potential_update());
        assert!(p.potential_writes().is_empty());
    }

    #[test]
    fn display_lists_instructions() {
        let text = dcas().to_string();
        assert!(text.starts_with("program dcas:"));
        assert!(text.contains("Read"));
    }
}
