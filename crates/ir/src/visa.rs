//! The virtual instruction-set architecture (VISA).
//!
//! The VISA is a load/store register machine with an unbounded number of
//! virtual registers per function.  ISA-specific code generation (see the
//! `bsg-compiler` crate) constrains the register file and may fold memory
//! operands into arithmetic instructions (CISC-style), which is why
//! [`Operand`] includes a [`Operand::Mem`] variant.
//!
//! Every instruction can be classified ([`Inst::class`]) into the categories
//! the paper reports in its instruction-mix figures (loads, stores, branches,
//! others) and, at finer granularity, into the instruction types recorded in
//! the SFGL profile (integer/floating-point add, multiply, divide, ...).

use crate::types::{BlockId, FuncId, GlobalId, Reg, Ty};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Binary operations.  Comparison operators produce an integer 0/1 result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (truncating for integers; division by zero yields zero).
    Div,
    /// Remainder (zero divisor yields zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Shr,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
}

impl BinOp {
    /// Returns `true` for the comparison operators (`Lt`..`Ne`).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Returns `true` for operations that are commutative on integers.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        )
    }

    /// The C operator spelling, used by the C emitter.
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
        }
    }

    /// The comparison with swapped operand order (`a < b` ⇔ `b > a`), if any.
    pub fn swapped_comparison(self) -> Option<BinOp> {
        match self {
            BinOp::Lt => Some(BinOp::Gt),
            BinOp::Le => Some(BinOp::Ge),
            BinOp::Gt => Some(BinOp::Lt),
            BinOp::Ge => Some(BinOp::Le),
            BinOp::Eq => Some(BinOp::Eq),
            BinOp::Ne => Some(BinOp::Ne),
            _ => None,
        }
    }

    /// The negated comparison (`a < b` ⇔ `!(a >= b)`), if any.
    pub fn negated_comparison(self) -> Option<BinOp> {
        match self {
            BinOp::Lt => Some(BinOp::Ge),
            BinOp::Le => Some(BinOp::Gt),
            BinOp::Gt => Some(BinOp::Le),
            BinOp::Ge => Some(BinOp::Lt),
            BinOp::Eq => Some(BinOp::Ne),
            BinOp::Ne => Some(BinOp::Eq),
            _ => None,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.c_symbol())
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement (integers only).
    Not,
    /// Logical not (yields 0/1).
    LogicalNot,
    /// Convert to floating point.
    ToFloat,
    /// Convert (truncate) to integer.
    ToInt,
    /// Square root (floating point).
    Sqrt,
    /// Sine (floating point).
    Sin,
    /// Cosine (floating point).
    Cos,
    /// Natural logarithm (floating point; non-positive inputs yield zero).
    Log,
    /// Absolute value.
    Abs,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
            UnOp::LogicalNot => "!",
            UnOp::ToFloat => "(double)",
            UnOp::ToInt => "(int)",
            UnOp::Sqrt => "sqrt",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
            UnOp::Log => "log",
            UnOp::Abs => "abs",
        };
        write!(f, "{s}")
    }
}

/// The base region of a memory address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemBase {
    /// A statically allocated global array.
    Global(GlobalId),
    /// The current function's stack frame (spill slots and `-O0` locals).
    Frame,
}

/// A memory address of the form `base + offset + index * scale`, in words.
///
/// Addresses are expressed in words (4 bytes, see
/// [`WORD_BYTES`](crate::types::WORD_BYTES)); the executor converts them to
/// byte addresses before handing them to the cache simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Address {
    /// Base region.
    pub base: MemBase,
    /// Constant word offset from the base.
    pub offset: i64,
    /// Optional index register.
    pub index: Option<Reg>,
    /// Scale applied to the index register (in words).
    pub scale: i64,
}

impl Address {
    /// An address at a constant word offset within a global array.
    pub fn global(id: GlobalId, offset: i64) -> Self {
        Address {
            base: MemBase::Global(id),
            offset,
            index: None,
            scale: 1,
        }
    }

    /// An address indexed by a register within a global array.
    pub fn global_indexed(id: GlobalId, offset: i64, index: Reg, scale: i64) -> Self {
        Address {
            base: MemBase::Global(id),
            offset,
            index: Some(index),
            scale,
        }
    }

    /// A frame-slot address (O0 locals, spill slots).
    pub fn frame(offset: i64) -> Self {
        Address {
            base: MemBase::Frame,
            offset,
            index: None,
            scale: 1,
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match self.base {
            MemBase::Global(g) => format!("{g}"),
            MemBase::Frame => "frame".to_string(),
        };
        match self.index {
            Some(r) if self.scale != 1 => write!(f, "[{base}+{}+{r}*{}]", self.offset, self.scale),
            Some(r) => write!(f, "[{base}+{}+{r}]", self.offset),
            None => write!(f, "[{base}+{}]", self.offset),
        }
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An integer immediate.
    ImmInt(i64),
    /// A floating-point immediate.
    ImmFloat(f64),
    /// A memory operand (CISC-style folded load; produced only by x86-family
    /// code generation, never by the portable lowering).
    Mem(Address),
}

impl Operand {
    /// The register, if the operand is a register.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns `true` if the operand reads memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(_))
    }

    /// The coarse operand kind used by the statistical profile.
    pub fn kind(&self) -> OperandKind {
        match self {
            Operand::Reg(_) => OperandKind::Register,
            Operand::ImmInt(_) | Operand::ImmFloat(_) => OperandKind::Constant,
            Operand::Mem(_) => OperandKind::Memory,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ImmInt(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::ImmFloat(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmInt(v) => write!(f, "{v}"),
            Operand::ImmFloat(v) => write!(f, "{v}"),
            Operand::Mem(a) => write!(f, "{a}"),
        }
    }
}

/// Coarse operand kind recorded in the statistical profile (§III-A.1 of the
/// paper records whether operands are constants, registers or memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperandKind {
    /// Register operand.
    Register,
    /// Immediate/constant operand.
    Constant,
    /// Memory operand.
    Memory,
}

/// A VISA instruction.
///
/// Control transfer between blocks lives in [`Terminator`]; `Inst` covers the
/// straight-line body of a basic block (including calls, which return to the
/// following instruction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = lhs op rhs` on values of type `ty`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Operand type (integer or floating point).
        ty: Ty,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op src`.
    Un {
        /// Operation.
        op: UnOp,
        /// Operand type.
        ty: Ty,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Register copy / immediate materialization: `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand (must not be a memory operand; use [`Inst::Load`]).
        src: Operand,
    },
    /// `dst = memory[addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address to read.
        addr: Address,
        /// Type of the loaded value (used only for classification).
        ty: Ty,
    },
    /// `memory[addr] = src`.
    Store {
        /// Value to write.
        src: Operand,
        /// Address to write.
        addr: Address,
        /// Type of the stored value (used only for classification).
        ty: Ty,
    },
    /// Call a function, optionally receiving its return value.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument operands (passed by value).
        args: Vec<Operand>,
        /// Register receiving the return value, if used.
        dst: Option<Reg>,
    },
    /// Emit a value to the observable output stream (models `printf`).
    Print {
        /// Value printed.
        src: Operand,
    },
    /// No operation (EPIC bundle padding).
    Nop,
}

impl Inst {
    /// The destination register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::Print { .. } | Inst::Nop => None,
        }
    }

    /// All registers read by this instruction (including address index
    /// registers), in operand order.
    ///
    /// Non-call instructions read at most three registers, so the iterator is
    /// backed by a fixed-size array; call arguments are walked in place.  No
    /// allocation happens either way — this sits on the executor's and the
    /// register allocator's hot paths.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        fn op_reg(op: &Operand) -> Option<Reg> {
            match op {
                Operand::Reg(r) => Some(*r),
                Operand::Mem(a) => a.index,
                _ => None,
            }
        }
        let (fixed, args): ([Option<Reg>; 3], &[Operand]) = match self {
            Inst::Bin { lhs, rhs, .. } => ([op_reg(lhs), op_reg(rhs), None], &[]),
            Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::Print { src } => {
                ([op_reg(src), None, None], &[])
            }
            Inst::Load { addr, .. } => ([addr.index, None, None], &[]),
            Inst::Store { src, addr, .. } => ([op_reg(src), addr.index, None], &[]),
            Inst::Call { args, .. } => ([None; 3], args.as_slice()),
            Inst::Nop => ([None; 3], &[]),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(args.iter().filter_map(op_reg))
    }

    /// Returns `true` if the instruction reads memory (loads and folded memory operands).
    pub fn reads_memory(&self) -> bool {
        match self {
            Inst::Load { .. } => true,
            Inst::Bin { lhs, rhs, .. } => lhs.is_mem() || rhs.is_mem(),
            Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::Print { src } => src.is_mem(),
            Inst::Store { src, .. } => src.is_mem(),
            Inst::Call { args, .. } => args.iter().any(Operand::is_mem),
            Inst::Nop => false,
        }
    }

    /// Returns `true` if the instruction writes memory.
    pub fn writes_memory(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// Returns `true` if the instruction has a side effect beyond its register
    /// def (memory write, call, observable output).
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. } | Inst::Call { .. } | Inst::Print { .. }
        )
    }

    /// The coarse/fine classification of the instruction.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Bin { op, ty, .. } => match (ty, op) {
                (Ty::Float, BinOp::Mul) => InstClass::FpMul,
                (Ty::Float, BinOp::Div) => InstClass::FpDiv,
                (Ty::Float, _) => InstClass::FpAdd,
                (Ty::Int, BinOp::Mul) => InstClass::IntMul,
                (Ty::Int, BinOp::Div) | (Ty::Int, BinOp::Rem) => InstClass::IntDiv,
                (Ty::Int, _) => InstClass::IntAlu,
            },
            Inst::Un { op, ty, .. } => match (ty, op) {
                (_, UnOp::Sqrt) | (_, UnOp::Sin) | (_, UnOp::Cos) | (_, UnOp::Log) => {
                    InstClass::FpDiv
                }
                (Ty::Float, _) => InstClass::FpAdd,
                (Ty::Int, _) => InstClass::IntAlu,
            },
            Inst::Mov { .. } => InstClass::IntAlu,
            Inst::Call { .. } => InstClass::Call,
            Inst::Print { .. } => InstClass::Other,
            Inst::Nop => InstClass::Other,
        }
    }

    /// Operand kinds (source operands only), as recorded in the profile.
    pub fn operand_kinds(&self) -> Vec<OperandKind> {
        match self {
            Inst::Bin { lhs, rhs, .. } => vec![lhs.kind(), rhs.kind()],
            Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::Print { src } => vec![src.kind()],
            Inst::Load { .. } => vec![OperandKind::Memory],
            Inst::Store { src, .. } => vec![src.kind(), OperandKind::Memory],
            Inst::Call { args, .. } => args.iter().map(Operand::kind).collect(),
            Inst::Nop => Vec::new(),
        }
    }
}

/// Fine-grained instruction classification used by the SFGL profile and the
/// pipeline timing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InstClass {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Conditional or unconditional control transfer.
    Branch,
    /// Integer add/sub/logic/compare/move.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide or remainder.
    IntDiv,
    /// Floating-point add/sub/compare/convert.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / transcendental.
    FpDiv,
    /// Function call.
    Call,
    /// Anything else (nop, print).
    Other,
}

impl InstClass {
    /// All classes, in a stable order (useful for histograms).
    pub const ALL: [InstClass; 11] = [
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::IntDiv,
        InstClass::FpAdd,
        InstClass::FpMul,
        InstClass::FpDiv,
        InstClass::Call,
        InstClass::Other,
    ];

    /// The position of this class in [`InstClass::ALL`], usable as a dense
    /// histogram index (profilers count classes in flat arrays).
    pub fn index(self) -> usize {
        match self {
            InstClass::Load => 0,
            InstClass::Store => 1,
            InstClass::Branch => 2,
            InstClass::IntAlu => 3,
            InstClass::IntMul => 4,
            InstClass::IntDiv => 5,
            InstClass::FpAdd => 6,
            InstClass::FpMul => 7,
            InstClass::FpDiv => 8,
            InstClass::Call => 9,
            InstClass::Other => 10,
        }
    }

    /// The coarse mix category the paper reports (loads / stores / branches / others).
    pub fn mix_category(self) -> MixCategory {
        match self {
            InstClass::Load => MixCategory::Load,
            InstClass::Store => MixCategory::Store,
            InstClass::Branch => MixCategory::Branch,
            _ => MixCategory::Other,
        }
    }

    /// Returns `true` for floating-point classes.
    pub fn is_float(self) -> bool {
        matches!(self, InstClass::FpAdd | InstClass::FpMul | InstClass::FpDiv)
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::IntAlu => "int-alu",
            InstClass::IntMul => "int-mul",
            InstClass::IntDiv => "int-div",
            InstClass::FpAdd => "fp-add",
            InstClass::FpMul => "fp-mul",
            InstClass::FpDiv => "fp-div",
            InstClass::Call => "call",
            InstClass::Other => "other",
        };
        write!(f, "{s}")
    }
}

/// The four instruction-mix categories of Figure 6 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MixCategory {
    /// Loads.
    Load,
    /// Stores.
    Store,
    /// Branches.
    Branch,
    /// Everything else.
    Other,
}

impl MixCategory {
    /// All categories in reporting order.
    pub const ALL: [MixCategory; 4] = [
        MixCategory::Load,
        MixCategory::Store,
        MixCategory::Branch,
        MixCategory::Other,
    ];
}

impl fmt::Display for MixCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MixCategory::Load => "loads",
            MixCategory::Store => "stores",
            MixCategory::Branch => "branches",
            MixCategory::Other => "others",
        };
        write!(f, "{s}")
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a register being non-zero.
    Branch {
        /// Condition register (non-zero means taken).
        cond: Reg,
        /// Target when the condition is non-zero.
        taken: BlockId,
        /// Target when the condition is zero.
        not_taken: BlockId,
    },
    /// Return from the function, optionally with a value.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks, in (taken, not-taken) order for branches.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::Return(_) => Vec::new(),
        }
    }

    /// Returns `true` for conditional branches.
    pub fn is_conditional(&self) -> bool {
        matches!(self, Terminator::Branch { .. })
    }

    /// Registers read by the terminator (at most one), without allocating.
    pub fn uses(&self) -> std::option::IntoIter<Reg> {
        match self {
            Terminator::Branch { cond, .. } => Some(*cond),
            Terminator::Return(Some(Operand::Reg(r))) => Some(*r),
            Terminator::Return(Some(Operand::Mem(a))) => a.index,
            _ => None,
        }
        .into_iter()
    }

    /// Rewrites successor block ids through `f` (used when removing or
    /// renumbering blocks).
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                *taken = f(*taken);
                *not_taken = f(*not_taken);
            }
            Terminator::Return(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_properties() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert_eq!(BinOp::Lt.swapped_comparison(), Some(BinOp::Gt));
        assert_eq!(BinOp::Lt.negated_comparison(), Some(BinOp::Ge));
        assert_eq!(BinOp::Add.negated_comparison(), None);
        assert_eq!(BinOp::Shl.c_symbol(), "<<");
    }

    #[test]
    fn inst_def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: Reg(0),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::ImmInt(5),
        };
        assert_eq!(i.def(), Some(Reg(0)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(1)]);
        assert_eq!(i.class(), InstClass::IntAlu);
        assert!(!i.reads_memory());

        let st = Inst::Store {
            src: Operand::Reg(Reg(2)),
            addr: Address::global_indexed(GlobalId(0), 0, Reg(3), 1),
            ty: Ty::Int,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses().collect::<Vec<_>>(), vec![Reg(2), Reg(3)]);
        assert!(st.writes_memory());
        assert!(st.has_side_effect());
        assert_eq!(st.class(), InstClass::Store);
    }

    #[test]
    fn folded_memory_operand_counts_as_memory_read() {
        let i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: Reg(0),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::Mem(Address::global(GlobalId(0), 4)),
        };
        assert!(i.reads_memory());
        assert_eq!(
            i.operand_kinds(),
            vec![OperandKind::Register, OperandKind::Memory]
        );
    }

    #[test]
    fn classification() {
        let fp = Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::Float,
            dst: Reg(0),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::Reg(Reg(2)),
        };
        assert_eq!(fp.class(), InstClass::FpMul);
        assert!(fp.class().is_float());
        assert_eq!(fp.class().mix_category(), MixCategory::Other);
        assert_eq!(InstClass::Load.mix_category(), MixCategory::Load);

        let div = Inst::Bin {
            op: BinOp::Rem,
            ty: Ty::Int,
            dst: Reg(0),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::ImmInt(3),
        };
        assert_eq!(div.class(), InstClass::IntDiv);
    }

    #[test]
    fn terminator_successors_and_targets() {
        let mut t = Terminator::Branch {
            cond: Reg(0),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(t.is_conditional());
        assert_eq!(t.uses().collect::<Vec<_>>(), vec![Reg(0)]);
        t.map_targets(|b| BlockId(b.0 + 10));
        assert_eq!(t.successors(), vec![BlockId(11), BlockId(12)]);
        assert!(Terminator::Return(None).successors().is_empty());
    }

    #[test]
    fn operand_kinds_and_conversions() {
        assert_eq!(Operand::from(Reg(1)).kind(), OperandKind::Register);
        assert_eq!(Operand::from(3i64).kind(), OperandKind::Constant);
        assert_eq!(Operand::from(1.5f64).kind(), OperandKind::Constant);
        assert!(Operand::Mem(Address::frame(0)).is_mem());
        assert_eq!(Operand::Reg(Reg(7)).as_reg(), Some(Reg(7)));
        assert_eq!(Operand::ImmInt(1).as_reg(), None);
    }

    #[test]
    fn display_round_trips_are_nonempty() {
        let a = Address::global_indexed(GlobalId(2), 8, Reg(1), 4);
        assert!(!a.to_string().is_empty());
        assert!(!Operand::Mem(a).to_string().is_empty());
        assert!(!InstClass::FpDiv.to_string().is_empty());
        assert!(!MixCategory::Branch.to_string().is_empty());
        assert!(!UnOp::Sqrt.to_string().is_empty());
    }
}
