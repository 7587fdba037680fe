//! The predecoded execution image.
//!
//! [`ExecImage`] flattens a [`Program`] into contiguous arrays once, so the
//! executor and every observer work with dense integer indices instead of
//! chasing the nested `Program -> Function -> Block -> Inst` representation
//! and hashing `(FuncId, BlockId, index)` triples on the hot path:
//!
//! * every static instruction *and* terminator becomes one `Step` in a flat
//!   array; the array index is the instruction's **dense site id** (a `u32`),
//!   which the executor passes to observers in every event;
//! * a parallel [`SiteMeta`] table predecodes what observers would otherwise
//!   re-derive per dynamic instruction: the [`InstClass`], the destination
//!   register and up to three source registers (fixed arity — no `Vec` from
//!   [`Inst::uses`]), plus the original [`InstSite`] for converting results
//!   back to serializable keys;
//! * basic blocks and static CFG edges get dense program-wide indices too, so
//!   profile collectors can count block executions and edge traversals in
//!   flat vectors;
//! * control-flow targets are resolved to step indices (program counters) at
//!   build time, so taken branches are a single integer assignment.
//!
//! # The untagged register file
//!
//! Decode runs the `typing` inference first and assigns every
//! register to one of three banks: a raw `i64` bank, a raw `f64` bank, or the
//! tagged `Value` bank for registers whose type is not statically known.
//! Frame slots get the same treatment **per slot**: each function carries a
//! slot-bank table, statically-addressed accesses resolve their slot and
//! bank at decode (lowering to untagged `Step::LoadFI` / `Step::LoadFF` /
//! `Step::StoreFI` / `Step::StoreFF` when the banks line up), and
//! register-indexed accesses consult the table at run time.  Steps whose
//! operands and destination all live in untagged banks lower to dedicated
//! variants (`IntAlu`, `Step::FloatAlu`, ...) that never touch a `Value`
//! tag; everything else lowers to general variants that read and write
//! registers through the per-function bank table, preserving exact tagged
//! semantics.
//!
//! # Superinstruction fusion
//!
//! With `fuse` enabled (the default), a post-pass walks every basic block and
//! fuses common adjacent step pairs into single dispatch points:
//!
//! * two adjacent untagged integer ALU steps (`Step::IntPair`);
//! * an integer ALU feeding the block's conditional branch
//!   (`Step::IntCmpBr`) — every counted-loop header;
//! * an integer ALU followed by the block's unconditional jump
//!   (`Step::IntAluJump`) — every loop latch;
//! * an untagged global load adjacent to an integer ALU
//!   (`Step::LoadGIntAlu` / `Step::IntAluLoadG`) — address-generation and
//!   load-consume idioms;
//! * untagged **frame-slot** loads/stores adjacent to their ALU
//!   (`Step::LoadFIntAlu`, `Step::IntAluStoreF`, `Step::LoadFFloatAlu`,
//!   `Step::FloatAluStoreF`) and the three-step read-modify-write shape
//!   (`Step::LoadFAluStoreF` / `Step::LoadFFAluStoreFF`) — `-O0` reloads
//!   every scalar before use and spills it after every def, so frame-slot
//!   traffic dominates `-O0` loop bodies.
//!
//! Fusion never changes observable semantics: the fused step replays each
//! constituent's budget/halt protocol and observer events exactly as the
//! unfused sequence would (the differential suite compares all three engines
//! — legacy, unfused, fused — event by event).  The consumed constituent's
//! slot keeps its original step, which is unreachable (branch targets only
//! enter blocks at their first step), so the site tables are untouched.
//!
//! Building the image costs one pass over the program and is reused across
//! runs: initial global values and the memory layout are captured so repeated
//! executions (cache sweeps, pipeline sweeps, differential tests) skip all
//! per-run setup except copying the initial memory.
//!
//! Decode also **validates** every dense index the executor will use (register
//! ids against `num_regs`, call targets against the function table, memory
//! references against non-empty globals, and — via `frame_slot` — every
//! statically-resolved frame-slot index against the slot-bank table length
//! `frame_words.max(1)`), which is what makes the executor's unchecked
//! indexing core sound — see the safety discussion in [`crate::exec`].

use crate::exec::InstSite;
use crate::typing::{infer, RegBank};
use bsg_ir::eval::{eval_bin, eval_un};
use bsg_ir::program::MemoryLayout;
use bsg_ir::types::{BlockId, FuncId, Reg, Ty, Value};
use bsg_ir::visa::{Address, BinOp, Inst, InstClass, MemBase, Operand, Terminator, UnOp};
use bsg_ir::Program;

/// A resolved control-flow target: where execution continues and which dense
/// indices to report to observers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeTarget {
    /// Step index execution continues at (first step of the target block).
    pub pc: u32,
    /// Target block id (for observer callbacks).
    pub block: BlockId,
    /// Dense program-wide index of the target block.
    pub block_idx: u32,
    /// Dense program-wide index of this static CFG edge.
    pub edge_idx: u32,
}

/// A predecoded reference to a global-array location: the base byte address
/// and array length are resolved at image-build time, so the executor does a
/// bounds branch instead of an `i64` division (`rem_euclid`) on the
/// overwhelmingly common in-bounds access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GlobalMem {
    /// First element of this array within the image's flattened global store.
    pub start: u32,
    /// Array length in elements (validated ≥ 1 at decode).
    pub len: u32,
    /// `len - 1` when the array length is a power of two, else `u64::MAX`.
    /// For power-of-two lengths, masking a two's-complement element index is
    /// exactly `rem_euclid` for every `i64` input, so the wrap costs one
    /// `and` instead of a division.
    pub mask: u64,
    /// Base byte address from the program's memory layout.
    pub base_byte: u64,
    /// Constant word offset.
    pub offset: i64,
    /// Index register, `u32::MAX` when absent.
    pub index: u32,
    /// Bank of the index register (meaningless when absent).
    pub index_bank: RegBank,
    /// Scale applied to the index register.
    pub scale: i64,
}

/// A predecoded reference to a frame-slot location.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameMem {
    /// Constant word offset.
    pub offset: i64,
    /// Index register, `u32::MAX` when absent.
    pub index: u32,
    /// Bank of the index register (meaningless when absent).
    pub index_bank: RegBank,
    /// Scale applied to the index register.
    pub scale: i64,
}

/// A **statically-addressed** frame slot, fully resolved at decode: the
/// wrapped slot index (validated `< frame_words.max(1)`, which is what the
/// executor sizes every slot bank to) plus the unwrapped element index that
/// the byte address observers see is derived from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameSlot {
    /// Wrapped slot index (`elem.rem_euclid(frame_words.max(1))`).
    pub slot: u32,
    /// Unwrapped element index (for `MemoryLayout::frame_addr`).
    pub elem: i64,
}

/// Resolves a static frame offset to its slot, asserting the decode-time
/// invariant the executor's unchecked slot indexing relies on.
fn frame_slot(offset: i64, nslots: u32) -> FrameSlot {
    let slot = offset.rem_euclid(i64::from(nslots.max(1))) as u32;
    assert!(
        slot < nslots.max(1),
        "decoded frame slot {slot} out of range ({nslots} slots)"
    );
    FrameSlot { slot, elem: offset }
}

/// Source of an untagged integer ALU operand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IntSrc {
    /// Register in the `i64` bank.
    Reg(u32),
    /// Immediate.
    Imm(i64),
}

/// One untagged integer ALU micro-operation: `ints[dst] = lhs op rhs`.
/// The common currency of the fusion pass — every fused integer
/// superinstruction is built from these.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntAlu {
    /// Operation (semantics of `exec::int_bin`).
    pub op: BinOp,
    /// Destination register (int bank).
    pub dst: u32,
    /// Left operand.
    pub lhs: IntSrc,
    /// Right operand.
    pub rhs: IntSrc,
}

/// Source of an untagged float ALU operand.  Integer-bank registers and
/// integer immediates are converted with `as f64`, which is exactly
/// `Value::as_float` for values the type analysis proved to be integers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FloatSrc {
    /// Register in the `f64` bank.
    F(u32),
    /// Register in the `i64` bank (converted on read).
    I(u32),
    /// Immediate (integer immediates pre-converted at decode).
    Imm(f64),
}

/// One untagged float operation: `lhs op rhs` over `f64` operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FloatAlu {
    /// Operation (arithmetic for [`Step::FloatAlu`], comparison for
    /// [`Step::FloatCmp`]).
    pub op: BinOp,
    /// Destination register (float bank for arithmetic, int bank for
    /// comparisons).
    pub dst: u32,
    /// Left operand.
    pub lhs: FloatSrc,
    /// Right operand.
    pub rhs: FloatSrc,
}

/// One predecoded instruction or terminator.
///
/// Predecoding resolves every dispatch that is static: operand banks are
/// resolved through the type analysis, loads/stores are split by memory base
/// with bounds and base addresses precomputed, and control-flow targets are
/// step indices.  Variants prefixed by their bank discipline (`Int*`, `F*`)
/// never touch a `Value` tag; the general variants (`IntBin`, `FloatBin`,
/// `Un`, `Mov`, ...) go through the per-function bank table and cover every
/// remaining shape exactly.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// One untagged integer ALU operation.
    IntAlu(IntAlu),
    /// Fused pair of adjacent untagged integer ALU operations.
    IntPair(IntAlu, IntAlu),
    /// Fused integer ALU + conditional branch on `ints[cond]`.
    IntCmpBr {
        /// The ALU constituent (at this step's site).
        a: IntAlu,
        /// Condition register (int bank; usually `a.dst`).
        cond: u32,
        /// Target when `ints[cond] != 0`.
        taken: EdgeTarget,
        /// Target when `ints[cond] == 0`.
        not_taken: EdgeTarget,
    },
    /// Fused integer ALU + unconditional jump (loop latches).
    IntAluJump {
        /// The ALU constituent.
        a: IntAlu,
        /// Jump target.
        target: EdgeTarget,
    },
    /// Fused untagged global load + integer ALU.
    LoadGIntAlu {
        /// Load destination (int bank).
        dst: u32,
        /// Predecoded memory reference.
        mem: GlobalMem,
        /// The ALU constituent (at site `pc + 1`).
        b: IntAlu,
    },
    /// Fused integer ALU + untagged global load (address generation).
    IntAluLoadG {
        /// The ALU constituent (at this step's site).
        a: IntAlu,
        /// Load destination (int bank).
        dst: u32,
        /// Predecoded memory reference.
        mem: GlobalMem,
    },
    /// Fused untagged frame-slot load + integer ALU.
    LoadFIntAlu {
        /// Load destination (int bank).
        dst: u32,
        /// Loaded slot (int bank).
        s: FrameSlot,
        /// The ALU constituent (at site `pc + 1`).
        b: IntAlu,
    },
    /// Fused integer ALU + untagged frame-slot store.
    IntAluStoreF {
        /// The ALU constituent (at this step's site).
        a: IntAlu,
        /// Stored operand (int-provable).
        src: IntSrc,
        /// Stored slot (int bank).
        s: FrameSlot,
    },
    /// Fused read-modify-write triple: untagged frame load + integer ALU +
    /// untagged frame store — the dominant `-O0` loop-body shape (`-O0`
    /// reloads every scalar before use and spills it after every def).
    LoadFAluStoreF {
        /// Load destination (int bank).
        dst: u32,
        /// Loaded slot (int bank).
        ls: FrameSlot,
        /// The ALU constituent (at site `pc + 1`).
        b: IntAlu,
        /// Stored operand (int-provable; store at site `pc + 2`).
        src: IntSrc,
        /// Stored slot (int bank).
        ss: FrameSlot,
    },
    /// Fused untagged float frame-slot load + float ALU.
    LoadFFloatAlu {
        /// Load destination (float bank).
        dst: u32,
        /// Loaded slot (float bank).
        s: FrameSlot,
        /// The float ALU constituent (at site `pc + 1`).
        b: FloatAlu,
    },
    /// Fused float ALU + untagged float frame-slot store.
    FloatAluStoreF {
        /// The float ALU constituent (at this step's site).
        a: FloatAlu,
        /// Stored operand (float-provable).
        src: FloatSrc,
        /// Stored slot (float bank).
        s: FrameSlot,
    },
    /// Fused pair of adjacent untagged float ALUs (float expression chains:
    /// the multiply-add sequences of DFT/trig bodies).
    FloatPair(FloatAlu, FloatAlu),
    /// Fused untagged int frame load + global load — load the index
    /// variable, then the array element it addresses (`a[i]` at `-O0`).
    LoadFILoadG {
        /// Frame-load destination (int bank).
        dst1: u32,
        /// Loaded slot (int bank).
        s1: FrameSlot,
        /// Global-load destination (site `pc + 1`).
        dst2: u32,
        /// Bank of `dst2`.
        bank2: RegBank,
        /// Predecoded global reference (its index register may be `dst1`).
        mem: GlobalMem,
    },
    /// Fused untagged int frame store + int frame load — the `-O0` statement
    /// boundary (`x = e; ... y ...` spills `x`, then reloads the next
    /// operand).
    StoreFLoadF {
        /// Stored operand (int-provable).
        src: IntSrc,
        /// Stored slot (int bank).
        ss: FrameSlot,
        /// Load destination (int bank; site `pc + 1`).
        dst: u32,
        /// Loaded slot (int bank).
        ls: FrameSlot,
    },
    /// Fused untagged int frame load + global store — load the index (or
    /// stored) variable, then store to the array (`a[i] = e` at `-O0`).
    LoadFIStoreG {
        /// Frame-load destination (int bank).
        dst: u32,
        /// Loaded slot (int bank).
        s: FrameSlot,
        /// Stored operand (site `pc + 1`).
        src: Operand,
        /// Predecoded global reference.
        mem: GlobalMem,
    },
    /// Fused pair of float ALUs + float frame store (`v = a*b + c*d` tails:
    /// the pair fusion consumes the ALU the store would otherwise fuse with).
    FloatPairStoreF {
        /// First ALU constituent.
        a: FloatAlu,
        /// Second ALU constituent (site `pc + 1`).
        b: FloatAlu,
        /// Stored operand (float-provable; store at site `pc + 2`).
        src: FloatSrc,
        /// Stored slot (float bank).
        s: FrameSlot,
    },
    /// Fused untagged global load + compare + conditional branch — loop
    /// conditions over array elements (`while (tree[n] != 0)`).
    LoadGCmpBr {
        /// Load destination (int bank).
        dst: u32,
        /// Predecoded global reference.
        mem: GlobalMem,
        /// The compare constituent (at site `pc + 1`).
        a: IntAlu,
        /// Condition register (int bank).
        cond: u32,
        /// Target when `ints[cond] != 0`.
        taken: EdgeTarget,
        /// Target when `ints[cond] == 0`.
        not_taken: EdgeTarget,
    },
    /// Fused untagged float global load + float ALU (`sig[t] * cr`).
    LoadGFloatAlu {
        /// Load destination (float bank).
        dst: u32,
        /// Predecoded global reference.
        mem: GlobalMem,
        /// The float ALU constituent (at site `pc + 1`).
        b: FloatAlu,
    },
    /// Fused pair of adjacent untagged int frame-slot loads (binary-operator
    /// operand reloads: `-O0` loads both variables of `a op b` back to back).
    LoadFPairI {
        /// First load destination (int bank).
        dst1: u32,
        /// First loaded slot (int bank).
        s1: FrameSlot,
        /// Second load destination (int bank; site `pc + 1`).
        dst2: u32,
        /// Second loaded slot (int bank).
        s2: FrameSlot,
    },
    /// Fused pair of adjacent untagged float frame-slot loads.
    LoadFPairF {
        /// First load destination (float bank).
        dst1: u32,
        /// First loaded slot (float bank).
        s1: FrameSlot,
        /// Second load destination (float bank; site `pc + 1`).
        dst2: u32,
        /// Second loaded slot (float bank).
        s2: FrameSlot,
    },
    /// Fused untagged frame load + compare + conditional branch — the `-O0`
    /// while-header shape (`while (i < n)` reloads `i` before the compare).
    LoadFCmpBr {
        /// Load destination (int bank).
        dst: u32,
        /// Loaded slot (int bank).
        s: FrameSlot,
        /// The compare constituent (at site `pc + 1`).
        a: IntAlu,
        /// Condition register (int bank).
        cond: u32,
        /// Target when `ints[cond] != 0`.
        taken: EdgeTarget,
        /// Target when `ints[cond] == 0`.
        not_taken: EdgeTarget,
    },
    /// Fused untagged int frame store + the block's unconditional jump (the
    /// `-O0` loop-latch shape: spill the induction variable, jump back).
    StoreFIJump {
        /// Stored operand (int-provable).
        src: IntSrc,
        /// Stored slot (int bank).
        s: FrameSlot,
        /// Jump target (terminator at site `pc + 1`).
        target: EdgeTarget,
    },
    /// Fused triple: float frame load + float unary + float frame store —
    /// `y = f(x)` over float `-O0` locals (`cr = cos(ang)` and friends).
    LoadFUnFFStoreFF {
        /// Load destination (float bank).
        dst: u32,
        /// Loaded slot (float bank).
        ls: FrameSlot,
        /// Unary operation (the `un_ff` subset; at site `pc + 1`).
        op: UnOp,
        /// Unary destination (float bank).
        udst: u32,
        /// Unary source (float bank).
        usrc: u32,
        /// Stored operand (float-provable; store at site `pc + 2`).
        ssrc: FloatSrc,
        /// Stored slot (float bank).
        ss: FrameSlot,
    },
    /// Fused float read-modify-write triple: float frame load + float ALU +
    /// float frame store (`x = x op e` on a float `-O0` local).
    LoadFFAluStoreFF {
        /// Load destination (float bank).
        dst: u32,
        /// Loaded slot (float bank).
        ls: FrameSlot,
        /// The float ALU constituent (at site `pc + 1`).
        b: FloatAlu,
        /// Stored operand (float-provable; store at site `pc + 2`).
        src: FloatSrc,
        /// Stored slot (float bank).
        ss: FrameSlot,
    },
    /// Untagged float arithmetic (`Add`/`Sub`/`Mul`/`Div`/`Rem`), `f64` in,
    /// `f64` out.
    FloatAlu(FloatAlu),
    /// Untagged float comparison, `f64` in, `i64` (0/1) out.
    FloatCmp(FloatAlu),
    /// Untagged unary: `i64` in, `i64` out.
    UnII {
        /// Operation (one of the int-to-int subset).
        op: UnOp,
        /// Destination register (int bank).
        dst: u32,
        /// Source register (int bank).
        src: u32,
    },
    /// Untagged unary: `f64` in, `f64` out.
    UnFF {
        /// Operation (one of the float-to-float subset).
        op: UnOp,
        /// Destination register (float bank).
        dst: u32,
        /// Source register (float bank).
        src: u32,
    },
    /// Untagged unary: `i64` in, `f64` out — the `un_ff` operation subset
    /// applied to a proven-int source (`ToFloat(k)`, `sqrt` of an int, ...).
    /// Reading the int bank with `as f64` is exactly `Value::as_float` on a
    /// proven-int value, so this matches `eval_un` bit for bit.
    UnIF {
        /// Operation (one of the float-result subset accepted by `un_is_ff`).
        op: UnOp,
        /// Destination register (float bank).
        dst: u32,
        /// Source register (int bank).
        src: u32,
    },
    /// `ints[dst] = imm`.
    IMovI {
        /// Destination register (int bank).
        dst: u32,
        /// Immediate.
        imm: i64,
    },
    /// `floats[dst] = imm`.
    FMovI {
        /// Destination register (float bank).
        dst: u32,
        /// Immediate.
        imm: f64,
    },
    /// `ints[dst] = ints[src]`.
    IMovRR {
        /// Destination register (int bank).
        dst: u32,
        /// Source register (int bank).
        src: u32,
    },
    /// `floats[dst] = floats[src]`.
    FMovRR {
        /// Destination register (float bank).
        dst: u32,
        /// Source register (float bank).
        src: u32,
    },
    /// `dst = lhs op rhs` on integers, general operand/bank shapes.
    IntBin {
        /// Operation.
        op: BinOp,
        /// Destination register (any bank).
        dst: u32,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = lhs op rhs` on floats, general operand/bank shapes.
    FloatBin {
        /// Operation.
        op: BinOp,
        /// Destination register (any bank).
        dst: u32,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op src`, general operand/bank shapes.
    Un {
        /// Operation.
        op: UnOp,
        /// Operation type.
        ty: Ty,
        /// Destination register (any bank).
        dst: u32,
        /// Source operand.
        src: Operand,
    },
    /// `dst = src`, general operand/bank shapes.
    Mov {
        /// Destination register (any bank).
        dst: u32,
        /// Source operand.
        src: Operand,
    },
    /// `dst = global[elem]`.
    LoadGlobal {
        /// Destination register.
        dst: u32,
        /// Bank of `dst` (resolves the write without a table lookup).
        bank: RegBank,
        /// Predecoded memory reference.
        mem: GlobalMem,
    },
    /// `ints[dst] = int_slots[s]` — untagged static frame load.
    LoadFI {
        /// Destination register (int bank).
        dst: u32,
        /// Loaded slot (int bank).
        s: FrameSlot,
    },
    /// `floats[dst] = float_slots[s]` — untagged static frame load.
    LoadFF {
        /// Destination register (float bank).
        dst: u32,
        /// Loaded slot (float bank).
        s: FrameSlot,
    },
    /// `int_slots[s] = src` — untagged static frame store.
    StoreFI {
        /// Stored operand (int-provable).
        src: IntSrc,
        /// Stored slot (int bank).
        s: FrameSlot,
    },
    /// `float_slots[s] = src` — untagged static frame store.
    StoreFF {
        /// Stored operand (float-provable).
        src: FloatSrc,
        /// Stored slot (float bank).
        s: FrameSlot,
    },
    /// `dst = frame[elem]`, general shapes: register-indexed (the slot and
    /// its bank resolve at run time through the per-slot bank table) or a
    /// static slot whose bank combination has no untagged variant.
    LoadFrame {
        /// Destination register.
        dst: u32,
        /// Bank of `dst`.
        bank: RegBank,
        /// Predecoded memory reference.
        mem: FrameMem,
    },
    /// `global[elem] = src`.
    StoreGlobal {
        /// Stored operand.
        src: Operand,
        /// Predecoded memory reference.
        mem: GlobalMem,
    },
    /// `frame[elem] = src`.
    StoreFrame {
        /// Stored operand.
        src: Operand,
        /// Predecoded memory reference.
        mem: FrameMem,
    },
    /// Call `func`; arguments live in the image's argument pool at
    /// `args_start..args_start + args_len`; `dst == u32::MAX` means the
    /// return value is discarded.
    Call {
        /// Callee function index (validated against the function table).
        func: u32,
        /// First argument in the pool.
        args_start: u32,
        /// Argument count.
        args_len: u32,
        /// Destination register, `u32::MAX` when unused.
        dst: u32,
    },
    /// Emit `src` to the output stream.
    Print {
        /// Printed operand.
        src: Operand,
    },
    /// No operation.
    Nop,
    /// Unconditional transfer.
    Jump(EdgeTarget),
    /// Conditional transfer on `cond` being non-zero.
    Branch {
        /// Condition register.
        cond: u32,
        /// Bank of `cond`.
        bank: RegBank,
        /// Target when the condition is non-zero.
        taken: EdgeTarget,
        /// Target when the condition is zero.
        not_taken: EdgeTarget,
    },
    /// Return, optionally with a value.
    Return {
        /// Returned operand.
        value: Option<Operand>,
    },
}

impl Step {
    /// Variant name for diagnostics ([`ExecImage::step_histogram`]).
    pub(crate) fn variant_name(&self) -> &'static str {
        match self {
            Step::IntAlu(_) => "IntAlu",
            Step::IntPair(..) => "IntPair",
            Step::IntCmpBr { .. } => "IntCmpBr",
            Step::IntAluJump { .. } => "IntAluJump",
            Step::LoadGIntAlu { .. } => "LoadGIntAlu",
            Step::IntAluLoadG { .. } => "IntAluLoadG",
            Step::LoadFIntAlu { .. } => "LoadFIntAlu",
            Step::IntAluStoreF { .. } => "IntAluStoreF",
            Step::LoadFFloatAlu { .. } => "LoadFFloatAlu",
            Step::FloatAluStoreF { .. } => "FloatAluStoreF",
            Step::FloatPair(..) => "FloatPair",
            Step::LoadFIStoreG { .. } => "LoadFIStoreG",
            Step::FloatPairStoreF { .. } => "FloatPairStoreF",
            Step::LoadGCmpBr { .. } => "LoadGCmpBr",
            Step::LoadFILoadG { .. } => "LoadFILoadG",
            Step::StoreFLoadF { .. } => "StoreFLoadF",
            Step::LoadGFloatAlu { .. } => "LoadGFloatAlu",
            Step::LoadFAluStoreF { .. } => "LoadFAluStoreF",
            Step::LoadFPairI { .. } => "LoadFPairI",
            Step::LoadFPairF { .. } => "LoadFPairF",
            Step::LoadFCmpBr { .. } => "LoadFCmpBr",
            Step::StoreFIJump { .. } => "StoreFIJump",
            Step::LoadFUnFFStoreFF { .. } => "LoadFUnFFStoreFF",
            Step::LoadFFAluStoreFF { .. } => "LoadFFAluStoreFF",
            Step::FloatAlu(_) => "FloatAlu",
            Step::FloatCmp(_) => "FloatCmp",
            Step::UnII { .. } => "UnII",
            Step::UnFF { .. } => "UnFF",
            Step::UnIF { .. } => "UnIF",
            Step::IMovI { .. } => "IMovI",
            Step::FMovI { .. } => "FMovI",
            Step::IMovRR { .. } => "IMovRR",
            Step::FMovRR { .. } => "FMovRR",
            Step::IntBin { .. } => "IntBin",
            Step::FloatBin { .. } => "FloatBin",
            Step::Un { .. } => "Un",
            Step::Mov { .. } => "Mov",
            Step::LoadFI { .. } => "LoadFI",
            Step::LoadFF { .. } => "LoadFF",
            Step::StoreFI { .. } => "StoreFI",
            Step::StoreFF { .. } => "StoreFF",
            Step::LoadGlobal { .. } => "LoadGlobal",
            Step::LoadFrame { .. } => "LoadFrame",
            Step::StoreGlobal { .. } => "StoreGlobal",
            Step::StoreFrame { .. } => "StoreFrame",
            Step::Call { .. } => "Call",
            Step::Print { .. } => "Print",
            Step::Nop => "Nop",
            Step::Jump(_) => "Jump",
            Step::Branch { .. } => "Branch",
            Step::Return { .. } => "Return",
        }
    }

    /// How many step slots this dispatch point covers (`None`: absorbs the
    /// block's terminator, i.e. covers through end of block).  Must agree
    /// with the executor's `pc` advance per arm.
    pub(crate) fn footprint(&self) -> Option<usize> {
        match self {
            Step::IntPair(..)
            | Step::LoadGIntAlu { .. }
            | Step::IntAluLoadG { .. }
            | Step::LoadFIntAlu { .. }
            | Step::IntAluStoreF { .. }
            | Step::LoadFPairI { .. }
            | Step::LoadFPairF { .. }
            | Step::LoadFFloatAlu { .. }
            | Step::FloatAluStoreF { .. }
            | Step::FloatPair(..)
            | Step::LoadFIStoreG { .. }
            | Step::LoadFILoadG { .. }
            | Step::StoreFLoadF { .. }
            | Step::LoadGFloatAlu { .. } => Some(2),
            Step::LoadFAluStoreF { .. }
            | Step::LoadFFAluStoreFF { .. }
            | Step::FloatPairStoreF { .. }
            | Step::LoadFUnFFStoreFF { .. } => Some(3),
            Step::IntCmpBr { .. }
            | Step::IntAluJump { .. }
            | Step::LoadFCmpBr { .. }
            | Step::LoadGCmpBr { .. }
            | Step::StoreFIJump { .. } => None,
            _ => Some(1),
        }
    }
}

/// Predecoded per-site metadata: everything observers need that is static.
#[derive(Debug, Clone, Copy)]
pub struct SiteMeta {
    /// Instruction classification (terminators classify as
    /// [`InstClass::Branch`], matching the executor's event stream).
    pub class: InstClass,
    /// Destination register, if any.
    pub def: Option<Reg>,
    /// Source registers, fixed arity.  Non-call instructions read at most
    /// three registers (the fourth-and-later arguments of calls are not
    /// tracked here; the timing models never needed them).
    pub uses: [Option<Reg>; 3],
    /// The original static location, for converting dense ids back to
    /// serializable profile keys.
    pub site: InstSite,
}

/// Per-function slice of the image.
#[derive(Debug, Clone)]
pub(crate) struct FuncImage {
    /// Step index of the entry block's first step.
    pub entry_pc: u32,
    /// Entry block id.
    pub entry_block: BlockId,
    /// Dense index of the entry block.
    pub entry_block_idx: u32,
    /// Dense block index of block 0 of this function (block `b` of the
    /// function has dense index `block_idx_base + b`).
    pub block_idx_base: u32,
    /// First step index of every block.
    pub block_pc: Vec<u32>,
    /// Terminator step index of every block.
    pub term_pc: Vec<u32>,
    /// Number of virtual registers.
    pub num_regs: u32,
    /// Registers receiving arguments.
    pub params: Vec<Reg>,
    /// Bank of each register (indexed by register id; length `num_regs`).
    pub banks: Vec<RegBank>,
    /// Bank of each frame slot (length `frame_words.max(1)`; indexed by the
    /// wrapped slot).  Statically-addressed accesses resolve their bank at
    /// decode; register-indexed accesses consult this table at run time.
    pub slot_banks: Vec<RegBank>,
    /// Which slot banks this function's frame actually uses (drives sizing
    /// and zero-filling on frame acquisition).
    pub frame: FrameLayout,
}

/// Slot-bank usage summary of one function's frame.  Only banks that appear
/// in `slot_banks` are ever indexed by a slot, so only those need sizing; the
/// float bank additionally never needs zero-filling (a float slot is only
/// float because every read is preceded by a store).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameLayout {
    /// Slot count (`frame_words.max(1)`) — the length every sized slot bank
    /// gets, and the modulus of the executor's wrapping.
    pub nslots: u32,
    /// Some slot lives in the untagged `i64` bank.
    pub has_int: bool,
    /// Some slot lives in the untagged `f64` bank.
    pub has_float: bool,
    /// Some slot lives in the tagged bank.
    pub has_tagged: bool,
    /// Some *int-banked register* may observe its `Int(0)` init, so the
    /// `ints` register bank must be zero-filled on acquisition.  When false,
    /// every read of every int register is provably preceded by a write
    /// (`typing`'s liveness pass), so stale pooled values are unobservable
    /// and the fill is skipped — calls are frequent enough at `-O0` for the
    /// memset to show up.
    pub zero_reg_ints: bool,
    /// Same for the tagged register bank.
    pub zero_reg_tagged: bool,
    /// Same for the int slot bank.
    pub zero_slots_int: bool,
    /// Same for the tagged slot bank.
    pub zero_slots_tagged: bool,
}

/// A program flattened for execution (see the module docs).
#[derive(Debug, Clone)]
pub struct ExecImage {
    pub(crate) steps: Vec<Step>,
    pub(crate) funcs: Vec<FuncImage>,
    pub(crate) call_args: Vec<Operand>,
    sites: Vec<SiteMeta>,
    /// Dense block index -> (function, block).
    block_keys: Vec<(FuncId, BlockId)>,
    /// Dense edge index -> (from, to) dense block indices.
    edge_blocks: Vec<(u32, u32)>,
    pub(crate) entry: u32,
    pub(crate) layout: MemoryLayout,
    /// All global arrays flattened into one backing store (copied once per
    /// run); `global_bounds[g]` is the `(start, len)` slice of global `g`.
    pub(crate) initial_globals: Vec<Value>,
    pub(crate) global_bounds: Vec<(u32, u32)>,
    max_regs: u32,
    /// Number of fused superinstructions (diagnostics / tests).
    fused_steps: u32,
}

fn site_meta(inst: &Inst, site: InstSite) -> SiteMeta {
    let mut uses = [None; 3];
    for (slot, reg) in uses.iter_mut().zip(inst.uses()) {
        *slot = Some(reg);
    }
    SiteMeta {
        class: inst.class(),
        def: inst.def(),
        uses,
        site,
    }
}

/// Whether `eval_un(op, ty, Int(_))` is an `i64 -> i64` function (the
/// [`Step::UnII`] subset; must stay in sync with `exec::un_ii`).
fn un_is_ii(op: UnOp, ty: Ty) -> bool {
    matches!(
        (op, ty),
        (UnOp::Neg, Ty::Int)
            | (UnOp::Abs, Ty::Int)
            | (UnOp::Not, _)
            | (UnOp::LogicalNot, _)
            | (UnOp::ToInt, _)
    )
}

/// Whether `eval_un(op, ty, Float(_))` is an `f64 -> f64` function (the
/// [`Step::UnFF`] subset; must stay in sync with `exec::un_ff`).
fn un_is_ff(op: UnOp, ty: Ty) -> bool {
    matches!(
        (op, ty),
        (UnOp::Neg, Ty::Float)
            | (UnOp::Abs, Ty::Float)
            | (UnOp::ToFloat, _)
            | (UnOp::Sqrt, _)
            | (UnOp::Sin, _)
            | (UnOp::Cos, _)
            | (UnOp::Log, _)
    )
}

fn is_float_arith(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
    )
}

/// The [`Value`] of a constant operand, if it is one.
fn imm_val(op: &Operand) -> Option<Value> {
    match op {
        Operand::ImmInt(v) => Some(Value::Int(*v)),
        Operand::ImmFloat(v) => Some(Value::Float(*v)),
        _ => None,
    }
}

/// Lowers a decode-time-computed constant (`eval_bin`/`eval_un` over
/// immediate operands — both are pure) into an untagged move when the
/// destination bank matches the constant's tag; `None` keeps the general
/// step, preserving exact tagged semantics.  The site table is untouched, so
/// observers still see the instruction's real class.
fn fold_const(v: Value, dst: u32, bank: impl Fn(u32) -> RegBank) -> Option<Step> {
    match (v, bank(dst)) {
        (Value::Int(imm), RegBank::Int) => Some(Step::IMovI { dst, imm }),
        (Value::Float(imm), RegBank::Float) => Some(Step::FMovI { dst, imm }),
        _ => None,
    }
}

impl ExecImage {
    /// Flattens `program` into an execution image with superinstruction
    /// fusion enabled.  Call targets, block targets, register banks and
    /// global layout are resolved here, once.  This is the image every
    /// production entry point executes.
    pub fn new(program: &Program) -> Self {
        let mut image = Self::build(program);
        // Checked builds keep the pre-fusion decode as the verifier's
        // reference; release builds never copy.
        #[cfg(any(debug_assertions, bsg_safe_core))]
        let reference = image.clone();
        image.fused_steps = fuse_blocks(&mut image.steps, &image.funcs);
        #[cfg(any(debug_assertions, bsg_safe_core))]
        image.verify_on_build(&reference);
        image
    }

    /// Flattens `program` without the fusion pass: the verifier's reference
    /// decode and the profiler's image (see `bsg_profile::profile_image`);
    /// the differential tests run it alongside the fused image.
    pub fn unfused(program: &Program) -> Self {
        let image = Self::build(program);
        #[cfg(any(debug_assertions, bsg_safe_core))]
        image.verify_on_build(&image);
        image
    }

    /// Runs the full static verifier over a freshly decoded image, so every
    /// test and safe-core CI run machine-checks the invariants the unchecked
    /// executor assumes.  Only compiled under debug assertions or
    /// `--cfg bsg_safe_core`: verification is decode-time-only and never
    /// touches the execute loop either way.
    #[cfg(any(debug_assertions, bsg_safe_core))]
    fn verify_on_build(&self, reference: &ExecImage) {
        if let Err(e) = crate::verify::verify_image(self, reference) {
            panic!("bsg-verify rejected freshly decoded image: {e}");
        }
    }

    /// Flattens without fusing; [`ExecImage::new`] fuses in place after.
    fn build(program: &Program) -> Self {
        crate::verify::validate_program(program);
        let types = infer(program);
        let banks = types.regs;

        // Pass 1: assign pcs and dense block indices.
        let mut funcs = Vec::with_capacity(program.functions.len());
        let mut next_pc: u32 = 0;
        let mut next_block: u32 = 0;
        let mut max_regs: u32 = 1;
        let mut block_keys = Vec::new();
        for (fi, f) in program.functions.iter().enumerate() {
            let mut block_pc = Vec::with_capacity(f.blocks.len());
            let mut term_pc = Vec::with_capacity(f.blocks.len());
            for (bi, b) in f.blocks.iter().enumerate() {
                block_pc.push(next_pc);
                term_pc.push(next_pc + b.insts.len() as u32);
                next_pc += b.insts.len() as u32 + 1;
                block_keys.push((FuncId(fi as u32), BlockId(bi as u32)));
            }
            max_regs = max_regs.max(f.num_regs);
            let slot_banks = types.frame_slots[fi].clone();
            let bank_has_init = |want: RegBank, bs: &[RegBank], init: &[bool]| {
                bs.iter().zip(init).any(|(b, i)| *b == want && *i)
            };
            let frame = FrameLayout {
                nslots: slot_banks.len() as u32,
                has_int: slot_banks.contains(&RegBank::Int),
                has_float: slot_banks.contains(&RegBank::Float),
                has_tagged: slot_banks.contains(&RegBank::Tagged),
                // A float bank never needs zero-filling: an observable init
                // would have forced the register/slot off the float bank.
                zero_reg_ints: bank_has_init(RegBank::Int, &banks[fi], &types.reg_init[fi]),
                zero_reg_tagged: bank_has_init(RegBank::Tagged, &banks[fi], &types.reg_init[fi]),
                zero_slots_int: bank_has_init(RegBank::Int, &slot_banks, &types.slot_init[fi]),
                zero_slots_tagged: bank_has_init(
                    RegBank::Tagged,
                    &slot_banks,
                    &types.slot_init[fi],
                ),
            };
            funcs.push(FuncImage {
                entry_pc: block_pc[f.entry.index()],
                entry_block: f.entry,
                entry_block_idx: next_block + f.entry.0,
                block_idx_base: next_block,
                block_pc,
                term_pc,
                num_regs: f.num_regs,
                params: f.params.clone(),
                banks: banks[fi].clone(),
                slot_banks,
                frame,
            });
            next_block += f.blocks.len() as u32;
        }

        // Pass 2: decode steps, resolving targets through the pc tables and
        // register banks through the type analysis.
        let layout = program.memory_layout();
        let mut initial_globals = Vec::new();
        let mut global_bounds = Vec::with_capacity(program.globals.len());
        for g in &program.globals {
            let start = initial_globals.len() as u32;
            initial_globals.extend(g.initial_values());
            global_bounds.push((start, g.elems as u32));
        }
        let mut steps = Vec::with_capacity(next_pc as usize);
        let mut sites = Vec::with_capacity(next_pc as usize);
        let mut call_args = Vec::new();
        let mut edge_blocks = Vec::new();
        for (fi, f) in program.functions.iter().enumerate() {
            let fimg = &funcs[fi];
            let fbanks = &fimg.banks;
            let bank = |r: u32| fbanks[r as usize];
            let decode_mem = |addr: &Address| -> Result<GlobalMem, FrameMem> {
                let index = addr.index.map_or(u32::MAX, |r| r.0);
                let index_bank = addr.index.map_or(RegBank::Int, |r| bank(r.0));
                match addr.base {
                    MemBase::Global(g) => {
                        let (start, len) = global_bounds[g.index()];
                        Ok(GlobalMem {
                            start,
                            len,
                            mask: if u64::from(len).is_power_of_two() {
                                u64::from(len) - 1
                            } else {
                                u64::MAX
                            },
                            base_byte: layout.global_bases[g.index()],
                            offset: addr.offset,
                            index,
                            index_bank,
                            scale: addr.scale,
                        })
                    }
                    MemBase::Frame => Err(FrameMem {
                        offset: addr.offset,
                        index,
                        index_bank,
                        scale: addr.scale,
                    }),
                }
            };
            // Operand -> untagged int source, when provably int-banked.
            let int_src = |op: &Operand| -> Option<IntSrc> {
                match op {
                    Operand::Reg(r) if bank(r.0) == RegBank::Int => Some(IntSrc::Reg(r.0)),
                    Operand::ImmInt(v) => Some(IntSrc::Imm(*v)),
                    _ => None,
                }
            };
            // Operand -> untagged float source.  Integer immediates and
            // int-banked registers convert with `as f64`, which is exactly
            // `Value::as_float` on a proven-int value.
            let float_src = |op: &Operand| -> Option<FloatSrc> {
                match op {
                    Operand::Reg(r) => match bank(r.0) {
                        RegBank::Float => Some(FloatSrc::F(r.0)),
                        RegBank::Int => Some(FloatSrc::I(r.0)),
                        RegBank::Tagged => None,
                    },
                    Operand::ImmInt(v) => Some(FloatSrc::Imm(*v as f64)),
                    Operand::ImmFloat(v) => Some(FloatSrc::Imm(*v)),
                    Operand::Mem(_) => None,
                }
            };
            for (bi, b) in f.blocks.iter().enumerate() {
                for (ii, inst) in b.insts.iter().enumerate() {
                    let site = InstSite {
                        func: FuncId(fi as u32),
                        block: BlockId(bi as u32),
                        index: ii,
                    };
                    sites.push(site_meta(inst, site));
                    steps.push(match inst {
                        Inst::Bin {
                            op,
                            ty,
                            dst,
                            lhs,
                            rhs,
                        } => {
                            // Both operands constant: fold at decode.
                            let folded = match (imm_val(lhs), imm_val(rhs)) {
                                (Some(a), Some(b)) => {
                                    fold_const(eval_bin(*op, *ty, a, b), dst.0, bank)
                                }
                                _ => None,
                            };
                            if let Some(step) = folded {
                                step
                            } else {
                                match ty {
                                    Ty::Int => match (bank(dst.0), int_src(lhs), int_src(rhs)) {
                                        (RegBank::Int, Some(l), Some(r)) => Step::IntAlu(IntAlu {
                                            op: *op,
                                            dst: dst.0,
                                            lhs: l,
                                            rhs: r,
                                        }),
                                        _ => Step::IntBin {
                                            op: *op,
                                            dst: dst.0,
                                            lhs: *lhs,
                                            rhs: *rhs,
                                        },
                                    },
                                    Ty::Float => {
                                        let quick = match (float_src(lhs), float_src(rhs)) {
                                            (Some(l), Some(r)) => {
                                                if is_float_arith(*op)
                                                    && bank(dst.0) == RegBank::Float
                                                {
                                                    Some(Step::FloatAlu(FloatAlu {
                                                        op: *op,
                                                        dst: dst.0,
                                                        lhs: l,
                                                        rhs: r,
                                                    }))
                                                } else if op.is_comparison()
                                                    && bank(dst.0) == RegBank::Int
                                                {
                                                    Some(Step::FloatCmp(FloatAlu {
                                                        op: *op,
                                                        dst: dst.0,
                                                        lhs: l,
                                                        rhs: r,
                                                    }))
                                                } else {
                                                    None
                                                }
                                            }
                                            _ => None,
                                        };
                                        quick.unwrap_or(Step::FloatBin {
                                            op: *op,
                                            dst: dst.0,
                                            lhs: *lhs,
                                            rhs: *rhs,
                                        })
                                    }
                                }
                            }
                        }
                        Inst::Un { op, ty, dst, src } => match src {
                            Operand::Reg(r)
                                if bank(r.0) == RegBank::Int
                                    && bank(dst.0) == RegBank::Int
                                    && un_is_ii(*op, *ty) =>
                            {
                                Step::UnII {
                                    op: *op,
                                    dst: dst.0,
                                    src: r.0,
                                }
                            }
                            Operand::Reg(r)
                                if bank(r.0) == RegBank::Float
                                    && bank(dst.0) == RegBank::Float
                                    && un_is_ff(*op, *ty) =>
                            {
                                Step::UnFF {
                                    op: *op,
                                    dst: dst.0,
                                    src: r.0,
                                }
                            }
                            // Float-result unary of a proven-int register
                            // (`ToFloat(k)` dominates mixed int/float loop
                            // bodies): still fully untagged.
                            Operand::Reg(r)
                                if bank(r.0) == RegBank::Int
                                    && bank(dst.0) == RegBank::Float
                                    && un_is_ff(*op, *ty) =>
                            {
                                Step::UnIF {
                                    op: *op,
                                    dst: dst.0,
                                    src: r.0,
                                }
                            }
                            // Constant-fold immediate sources at decode:
                            // `eval_un` is pure, so the step becomes a move
                            // of the precomputed result (the site keeps its
                            // real instruction class for observers).
                            Operand::ImmInt(v) => {
                                fold_const(eval_un(*op, *ty, Value::Int(*v)), dst.0, bank)
                                    .unwrap_or(Step::Un {
                                        op: *op,
                                        ty: *ty,
                                        dst: dst.0,
                                        src: *src,
                                    })
                            }
                            Operand::ImmFloat(v) => {
                                fold_const(eval_un(*op, *ty, Value::Float(*v)), dst.0, bank)
                                    .unwrap_or(Step::Un {
                                        op: *op,
                                        ty: *ty,
                                        dst: dst.0,
                                        src: *src,
                                    })
                            }
                            _ => Step::Un {
                                op: *op,
                                ty: *ty,
                                dst: dst.0,
                                src: *src,
                            },
                        },
                        Inst::Mov { dst, src } => match (src, bank(dst.0)) {
                            (Operand::ImmInt(v), RegBank::Int) => Step::IMovI {
                                dst: dst.0,
                                imm: *v,
                            },
                            (Operand::ImmFloat(v), RegBank::Float) => Step::FMovI {
                                dst: dst.0,
                                imm: *v,
                            },
                            (Operand::Reg(r), RegBank::Int) if bank(r.0) == RegBank::Int => {
                                Step::IMovRR {
                                    dst: dst.0,
                                    src: r.0,
                                }
                            }
                            (Operand::Reg(r), RegBank::Float) if bank(r.0) == RegBank::Float => {
                                Step::FMovRR {
                                    dst: dst.0,
                                    src: r.0,
                                }
                            }
                            _ => Step::Mov {
                                dst: dst.0,
                                src: *src,
                            },
                        },
                        Inst::Load { dst, addr, .. } => match decode_mem(addr) {
                            Ok(mem) => Step::LoadGlobal {
                                dst: dst.0,
                                bank: bank(dst.0),
                                mem,
                            },
                            Err(mem) => {
                                // Statically-addressed slots resolve their
                                // bank here; matching untagged combinations
                                // skip the bank tables entirely at run time.
                                let quick = if mem.index == u32::MAX {
                                    let s = frame_slot(mem.offset, fimg.frame.nslots);
                                    match (fimg.slot_banks[s.slot as usize], bank(dst.0)) {
                                        (RegBank::Int, RegBank::Int) => {
                                            Some(Step::LoadFI { dst: dst.0, s })
                                        }
                                        (RegBank::Float, RegBank::Float) => {
                                            Some(Step::LoadFF { dst: dst.0, s })
                                        }
                                        _ => None,
                                    }
                                } else {
                                    None
                                };
                                quick.unwrap_or(Step::LoadFrame {
                                    dst: dst.0,
                                    bank: bank(dst.0),
                                    mem,
                                })
                            }
                        },
                        Inst::Store { src, addr, .. } => match decode_mem(addr) {
                            Ok(mem) => Step::StoreGlobal { src: *src, mem },
                            Err(mem) => {
                                let quick = if mem.index == u32::MAX {
                                    let s = frame_slot(mem.offset, fimg.frame.nslots);
                                    match fimg.slot_banks[s.slot as usize] {
                                        RegBank::Int => {
                                            int_src(src).map(|src| Step::StoreFI { src, s })
                                        }
                                        // Only float-tagged sources: an
                                        // int-provable source would have
                                        // forced the slot off the float bank.
                                        RegBank::Float => match src {
                                            Operand::Reg(r) if bank(r.0) == RegBank::Float => {
                                                Some(Step::StoreFF {
                                                    src: FloatSrc::F(r.0),
                                                    s,
                                                })
                                            }
                                            Operand::ImmFloat(v) => Some(Step::StoreFF {
                                                src: FloatSrc::Imm(*v),
                                                s,
                                            }),
                                            _ => None,
                                        },
                                        RegBank::Tagged => None,
                                    }
                                } else {
                                    None
                                };
                                quick.unwrap_or(Step::StoreFrame { src: *src, mem })
                            }
                        },
                        Inst::Call { func, args, dst } => {
                            let args_start = call_args.len() as u32;
                            call_args.extend(args.iter().copied());
                            Step::Call {
                                func: func.0,
                                args_start,
                                args_len: args.len() as u32,
                                dst: dst.map_or(u32::MAX, |r| r.0),
                            }
                        }
                        Inst::Print { src } => Step::Print { src: *src },
                        Inst::Nop => Step::Nop,
                    });
                }
                let term_site = InstSite {
                    func: FuncId(fi as u32),
                    block: BlockId(bi as u32),
                    index: usize::MAX,
                };
                let from_idx = fimg.block_idx_base + bi as u32;
                let target = |to: BlockId, edge_blocks: &mut Vec<(u32, u32)>| {
                    let to_idx = fimg.block_idx_base + to.0;
                    let edge_idx = edge_blocks.len() as u32;
                    edge_blocks.push((from_idx, to_idx));
                    EdgeTarget {
                        pc: fimg.block_pc[to.index()],
                        block: to,
                        block_idx: to_idx,
                        edge_idx,
                    }
                };
                match &b.term {
                    Terminator::Jump(to) => {
                        sites.push(SiteMeta {
                            class: InstClass::Branch,
                            def: None,
                            uses: [None; 3],
                            site: term_site,
                        });
                        steps.push(Step::Jump(target(*to, &mut edge_blocks)));
                    }
                    Terminator::Branch {
                        cond,
                        taken,
                        not_taken,
                    } => {
                        sites.push(SiteMeta {
                            class: InstClass::Branch,
                            def: None,
                            uses: [Some(*cond), None, None],
                            site: term_site,
                        });
                        let t = target(*taken, &mut edge_blocks);
                        // A degenerate branch whose legs coincide has ONE
                        // static edge; giving each leg its own index would
                        // make the reported edge depend on which leg ran,
                        // while the legacy engine's `edge_index` lookup (by
                        // `(from, to)` pair) always resolves to the first.
                        let nt = if not_taken == taken {
                            t
                        } else {
                            target(*not_taken, &mut edge_blocks)
                        };
                        steps.push(Step::Branch {
                            cond: cond.0,
                            bank: bank(cond.0),
                            taken: t,
                            not_taken: nt,
                        });
                    }
                    Terminator::Return(v) => {
                        sites.push(SiteMeta {
                            class: InstClass::Branch,
                            def: None,
                            uses: [None; 3],
                            site: term_site,
                        });
                        steps.push(Step::Return { value: *v });
                    }
                }
            }
        }

        ExecImage {
            steps,
            funcs,
            call_args,
            sites,
            block_keys,
            edge_blocks,
            entry: program.entry.0,
            layout,
            initial_globals,
            global_bounds,
            max_regs,
            fused_steps: 0,
        }
    }

    /// Number of dense instruction sites (instructions plus terminators).
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of basic blocks across the program.
    pub fn num_blocks(&self) -> usize {
        self.block_keys.len()
    }

    /// Number of static CFG edges across the program.
    pub fn num_edges(&self) -> usize {
        self.edge_blocks.len()
    }

    /// Number of functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Number of fused superinstructions the fusion pass produced (0 for
    /// [`ExecImage::unfused`] images).
    pub fn num_fused(&self) -> usize {
        self.fused_steps as usize
    }

    /// The largest register file any function uses (at least 1).
    pub fn max_regs(&self) -> u32 {
        self.max_regs
    }

    /// Predecoded metadata of one site.
    pub fn site_meta(&self, site_id: u32) -> &SiteMeta {
        &self.sites[site_id as usize]
    }

    /// Diagnostic: buckets per-site dynamic execution counts by the step
    /// variant that actually **dispatches** them (descending).  Blocks are
    /// walked with each variant's fusion footprint, so a site consumed by a
    /// superinstruction is attributed to its fusion head rather than the
    /// unreachable original in its slot.  Used by the perf tooling to find
    /// hot unfused shapes; not on any hot path.
    pub fn step_histogram(&self, counts: &[u64]) -> Vec<(&'static str, u64)> {
        use std::collections::HashMap;
        let mut by_variant: HashMap<&'static str, u64> = HashMap::new();
        for f in &self.funcs {
            for (&start, &term) in f.block_pc.iter().zip(&f.term_pc) {
                let mut i = start as usize;
                let term = term as usize;
                while i <= term {
                    let step = &self.steps[i];
                    let n = counts.get(i).copied().unwrap_or(0);
                    if n > 0 {
                        *by_variant.entry(step.variant_name()).or_default() += n;
                    }
                    match step.footprint() {
                        // Terminator-absorbing superinstructions cover the
                        // rest of the block.
                        None => break,
                        Some(k) => i += k,
                    }
                }
            }
        }
        let mut out: Vec<_> = by_variant.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// The whole site table (index = dense site id).
    pub fn site_metas(&self) -> &[SiteMeta] {
        &self.sites
    }

    /// `(function, block)` of a dense block index.
    pub fn block_key(&self, block_idx: u32) -> (FuncId, BlockId) {
        self.block_keys[block_idx as usize]
    }

    /// `(from, to)` dense block indices of a dense edge index.
    pub fn edge_blocks(&self, edge_idx: u32) -> (u32, u32) {
        self.edge_blocks[edge_idx as usize]
    }

    /// Dense site id of a static location (`index == usize::MAX` selects the
    /// block's terminator), the inverse of [`SiteMeta::site`].
    pub fn site_id(&self, func: FuncId, block: BlockId, index: usize) -> u32 {
        let f = &self.funcs[func.index()];
        if index == usize::MAX {
            f.term_pc[block.index()]
        } else {
            f.block_pc[block.index()] + index as u32
        }
    }

    /// Dense index of a block.
    pub fn block_index(&self, func: FuncId, block: BlockId) -> u32 {
        self.funcs[func.index()].block_idx_base + block.0
    }

    /// Dense index of the static edge `from -> to` (which must exist).
    ///
    /// Only used off the hot path (result conversion); edges of a block are
    /// found through its terminator step.  The terminator slot always holds
    /// the original `Jump`/`Branch` step even when the fusion pass absorbed
    /// it into the preceding ALU step, so this lookup is fusion-agnostic.
    pub fn edge_index(&self, func: FuncId, from: BlockId, to: BlockId) -> Option<u32> {
        match &self.steps[self.funcs[func.index()].term_pc[from.index()] as usize] {
            Step::Jump(t) if t.block == to => Some(t.edge_idx),
            Step::Branch {
                taken, not_taken, ..
            } => {
                if taken.block == to {
                    Some(taken.edge_idx)
                } else if not_taken.block == to {
                    Some(not_taken.edge_idx)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// The superinstruction fusion pass: walks every block body left to right
/// and greedily replaces adjacent fusible steps with a fused step in the
/// first constituent's slot.  Returns the number of fusions performed.
///
/// Safety of the pc arithmetic downstream: a fused step advances `pc` past
/// its constituents (`+2`), or transfers control like the terminator it
/// absorbed.  Both constituents lie inside one block (the body, plus
/// optionally that block's terminator), and control only ever enters a block
/// at its first step, so the skipped slots are unreachable.
fn fuse_blocks(steps: &mut [Step], funcs: &[FuncImage]) -> u32 {
    let mut fused = 0u32;
    for f in funcs {
        for (&start, &term) in f.block_pc.iter().zip(&f.term_pc) {
            let mut i = start as usize;
            let term = term as usize;
            while i < term {
                // Body-last step + terminator.
                if i + 1 == term {
                    let replacement = match (&steps[i], &steps[term]) {
                        (
                            Step::IntAlu(a),
                            Step::Branch {
                                cond,
                                bank: RegBank::Int,
                                taken,
                                not_taken,
                            },
                        ) => Some(Step::IntCmpBr {
                            a: *a,
                            cond: *cond,
                            taken: *taken,
                            not_taken: *not_taken,
                        }),
                        (Step::IntAlu(a), Step::Jump(target)) => Some(Step::IntAluJump {
                            a: *a,
                            target: *target,
                        }),
                        // Loop latches: spill the induction/accumulator
                        // variable, jump back to the header.
                        (Step::StoreFI { src, s }, Step::Jump(target)) => Some(Step::StoreFIJump {
                            src: *src,
                            s: *s,
                            target: *target,
                        }),
                        _ => None,
                    };
                    if let Some(r) = replacement {
                        steps[i] = r;
                        fused += 1;
                    }
                    break;
                }
                // Last-two body steps + terminator: three-way fusions.
                if i + 2 == term {
                    let replacement = match (&steps[i], &steps[i + 1], &steps[term]) {
                        // The -O0 while-header: reload the induction
                        // variable, compare, branch.
                        (
                            Step::LoadFI { dst, s },
                            Step::IntAlu(a),
                            Step::Branch {
                                cond,
                                bank: RegBank::Int,
                                taken,
                                not_taken,
                            },
                        ) => Some(Step::LoadFCmpBr {
                            dst: *dst,
                            s: *s,
                            a: *a,
                            cond: *cond,
                            taken: *taken,
                            not_taken: *not_taken,
                        }),
                        // Loop conditions over array elements.
                        (
                            Step::LoadGlobal {
                                dst,
                                bank: RegBank::Int,
                                mem,
                            },
                            Step::IntAlu(a),
                            Step::Branch {
                                cond,
                                bank: RegBank::Int,
                                taken,
                                not_taken,
                            },
                        ) => Some(Step::LoadGCmpBr {
                            dst: *dst,
                            mem: *mem,
                            a: *a,
                            cond: *cond,
                            taken: *taken,
                            not_taken: *not_taken,
                        }),
                        _ => None,
                    };
                    if let Some(r) = replacement {
                        steps[i] = r;
                        fused += 1;
                        break;
                    }
                }
                // Read-modify-write triples over one frame slot bank (the
                // `-O0` `x = x op e` shape), strictly inside the body.
                if i + 2 < term {
                    let replacement = match (&steps[i], &steps[i + 1], &steps[i + 2]) {
                        (
                            Step::LoadFI { dst, s },
                            Step::IntAlu(b),
                            Step::StoreFI { src, s: ss },
                        ) => Some(Step::LoadFAluStoreF {
                            dst: *dst,
                            ls: *s,
                            b: *b,
                            src: *src,
                            ss: *ss,
                        }),
                        (
                            Step::LoadFF { dst, s },
                            Step::FloatAlu(b),
                            Step::StoreFF { src, s: ss },
                        ) => Some(Step::LoadFFAluStoreFF {
                            dst: *dst,
                            ls: *s,
                            b: *b,
                            src: *src,
                            ss: *ss,
                        }),
                        (Step::FloatAlu(a), Step::FloatAlu(b), Step::StoreFF { src, s }) => {
                            Some(Step::FloatPairStoreF {
                                a: *a,
                                b: *b,
                                src: *src,
                                s: *s,
                            })
                        }
                        (
                            Step::LoadFF { dst, s },
                            Step::UnFF {
                                op,
                                dst: udst,
                                src: usrc,
                            },
                            Step::StoreFF { src, s: ss },
                        ) => Some(Step::LoadFUnFFStoreFF {
                            dst: *dst,
                            ls: *s,
                            op: *op,
                            udst: *udst,
                            usrc: *usrc,
                            ssrc: *src,
                            ss: *ss,
                        }),
                        _ => None,
                    };
                    if let Some(r) = replacement {
                        steps[i] = r;
                        fused += 1;
                        i += 3;
                        continue;
                    }
                }
                // Adjacent body pairs.
                let replacement = match (&steps[i], &steps[i + 1]) {
                    (Step::IntAlu(a), Step::IntAlu(b)) => Some(Step::IntPair(*a, *b)),
                    (Step::LoadFI { dst, s }, Step::IntAlu(b)) => Some(Step::LoadFIntAlu {
                        dst: *dst,
                        s: *s,
                        b: *b,
                    }),
                    (Step::IntAlu(a), Step::StoreFI { src, s }) => Some(Step::IntAluStoreF {
                        a: *a,
                        src: *src,
                        s: *s,
                    }),
                    (Step::LoadFF { dst, s }, Step::FloatAlu(b)) => Some(Step::LoadFFloatAlu {
                        dst: *dst,
                        s: *s,
                        b: *b,
                    }),
                    (Step::FloatAlu(a), Step::StoreFF { src, s }) => Some(Step::FloatAluStoreF {
                        a: *a,
                        src: *src,
                        s: *s,
                    }),
                    (Step::FloatAlu(a), Step::FloatAlu(b)) => Some(Step::FloatPair(*a, *b)),
                    (
                        Step::LoadFI { dst, s },
                        Step::LoadGlobal {
                            dst: dst2,
                            bank,
                            mem,
                        },
                    ) => Some(Step::LoadFILoadG {
                        dst1: *dst,
                        s1: *s,
                        dst2: *dst2,
                        bank2: *bank,
                        mem: *mem,
                    }),
                    (Step::StoreFI { src, s }, Step::LoadFI { dst, s: ls }) => {
                        Some(Step::StoreFLoadF {
                            src: *src,
                            ss: *s,
                            dst: *dst,
                            ls: *ls,
                        })
                    }
                    (Step::LoadFI { dst, s }, Step::StoreGlobal { src, mem }) => {
                        Some(Step::LoadFIStoreG {
                            dst: *dst,
                            s: *s,
                            src: *src,
                            mem: *mem,
                        })
                    }
                    (
                        Step::LoadGlobal {
                            dst,
                            bank: RegBank::Float,
                            mem,
                        },
                        Step::FloatAlu(b),
                    ) => Some(Step::LoadGFloatAlu {
                        dst: *dst,
                        mem: *mem,
                        b: *b,
                    }),
                    (Step::LoadFI { dst: dst1, s: s1 }, Step::LoadFI { dst: dst2, s: s2 }) => {
                        Some(Step::LoadFPairI {
                            dst1: *dst1,
                            s1: *s1,
                            dst2: *dst2,
                            s2: *s2,
                        })
                    }
                    (Step::LoadFF { dst: dst1, s: s1 }, Step::LoadFF { dst: dst2, s: s2 }) => {
                        Some(Step::LoadFPairF {
                            dst1: *dst1,
                            s1: *s1,
                            dst2: *dst2,
                            s2: *s2,
                        })
                    }
                    (
                        Step::IntAlu(a),
                        Step::LoadGlobal {
                            dst,
                            bank: RegBank::Int,
                            mem,
                        },
                    ) => Some(Step::IntAluLoadG {
                        a: *a,
                        dst: *dst,
                        mem: *mem,
                    }),
                    (
                        Step::LoadGlobal {
                            dst,
                            bank: RegBank::Int,
                            mem,
                        },
                        Step::IntAlu(b),
                    ) => Some(Step::LoadGIntAlu {
                        dst: *dst,
                        mem: *mem,
                        b: *b,
                    }),
                    _ => None,
                };
                if let Some(r) = replacement {
                    steps[i] = r;
                    fused += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::program::Function;

    /// Two functions; f0: two blocks (jump + return), f1: branch diamond.
    fn program() -> Program {
        let mut p = Program::new();
        let mut f0 = Function::new("main");
        let r = f0.fresh_reg();
        let b1 = f0.add_block();
        f0.blocks[0].insts = vec![Inst::Mov {
            dst: r,
            src: Operand::ImmInt(1),
        }];
        f0.blocks[0].term = Terminator::Jump(b1);
        f0.blocks[b1.index()].term = Terminator::Return(Some(r.into()));
        p.add_function(f0);

        let mut f1 = Function::new("helper");
        let c = f1.fresh_reg();
        let t = f1.add_block();
        let e = f1.add_block();
        f1.blocks[0].term = Terminator::Branch {
            cond: c,
            taken: t,
            not_taken: e,
        };
        f1.blocks[t.index()].term = Terminator::Return(None);
        f1.blocks[e.index()].term = Terminator::Return(None);
        p.add_function(f1);
        p
    }

    #[test]
    fn sites_cover_instructions_and_terminators() {
        let p = program();
        let img = ExecImage::new(&p);
        // f0: 1 inst + 2 terms; f1: 3 terms.
        assert_eq!(img.num_sites(), 6);
        assert_eq!(img.num_blocks(), 5);
        // f0: jump (1 edge); f1: branch (2 edges).
        assert_eq!(img.num_edges(), 3);
        assert_eq!(img.num_funcs(), 2);
    }

    #[test]
    fn site_ids_round_trip_through_site_meta() {
        let p = program();
        let img = ExecImage::new(&p);
        for id in 0..img.num_sites() as u32 {
            let meta = img.site_meta(id);
            assert_eq!(
                img.site_id(meta.site.func, meta.site.block, meta.site.index),
                id
            );
        }
    }

    #[test]
    fn block_indices_round_trip() {
        let p = program();
        let img = ExecImage::new(&p);
        for idx in 0..img.num_blocks() as u32 {
            let (f, b) = img.block_key(idx);
            assert_eq!(img.block_index(f, b), idx);
        }
    }

    #[test]
    fn branch_terminator_predecodes_its_condition_register() {
        let p = program();
        let img = ExecImage::new(&p);
        let id = img.site_id(FuncId(1), BlockId(0), usize::MAX);
        let meta = img.site_meta(id);
        assert_eq!(meta.class, InstClass::Branch);
        assert_eq!(meta.uses[0], Some(Reg(0)));
        assert_eq!(meta.def, None);
    }

    #[test]
    fn edge_indices_match_terminator_targets() {
        let p = program();
        let img = ExecImage::new(&p);
        let jump_edge = img.edge_index(FuncId(0), BlockId(0), BlockId(1)).unwrap();
        assert_eq!(img.edge_blocks(jump_edge), (0, 1));
        let taken = img.edge_index(FuncId(1), BlockId(0), BlockId(1)).unwrap();
        let not_taken = img.edge_index(FuncId(1), BlockId(0), BlockId(2)).unwrap();
        assert_ne!(taken, not_taken);
        assert!(img.edge_index(FuncId(1), BlockId(0), BlockId(0)).is_none());
    }

    /// A counted loop whose header and body exercise the fusion patterns.
    fn loop_program() -> Program {
        let mut p = Program::new();
        let mut f = Function::new("main");
        let s = f.fresh_reg();
        let i = f.fresh_reg();
        let c = f.fresh_reg();
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: s,
                src: Operand::ImmInt(0),
            },
            Inst::Mov {
                dst: i,
                src: Operand::ImmInt(0),
            },
        ];
        f.blocks[0].term = Terminator::Jump(header);
        f.blocks[header.index()].insts = vec![Inst::Bin {
            op: BinOp::Lt,
            ty: Ty::Int,
            dst: c,
            lhs: i.into(),
            rhs: Operand::ImmInt(10),
        }];
        f.blocks[header.index()].term = Terminator::Branch {
            cond: c,
            taken: body,
            not_taken: exit,
        };
        f.blocks[body.index()].insts = vec![
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: s,
                lhs: s.into(),
                rhs: i.into(),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: i,
                lhs: i.into(),
                rhs: Operand::ImmInt(1),
            },
        ];
        f.blocks[body.index()].term = Terminator::Jump(header);
        f.blocks[exit.index()].term = Terminator::Return(Some(s.into()));
        p.add_function(f);
        p
    }

    #[test]
    fn fusion_covers_loop_headers_and_bodies() {
        let p = loop_program();
        let fused = ExecImage::new(&p);
        let unfused = ExecImage::unfused(&p);
        assert_eq!(unfused.num_fused(), 0);
        // Header: cmp+branch.  Body: add+add pair (or add + latch jump).
        assert!(
            fused.num_fused() >= 2,
            "expected the loop header and body to fuse, got {}",
            fused.num_fused()
        );
        // Fusion must not disturb the site tables.
        assert_eq!(fused.num_sites(), unfused.num_sites());
        for id in 0..fused.num_sites() as u32 {
            assert_eq!(fused.site_meta(id).site, unfused.site_meta(id).site);
        }
        // edge_index still resolves through the (intact) terminator slots.
        assert!(fused
            .edge_index(FuncId(0), BlockId(1), BlockId(2))
            .is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_rejects_out_of_range_registers() {
        let mut p = Program::new();
        let mut f = Function::new("main");
        // Reg(7) was never allocated through fresh_reg: num_regs stays 0.
        f.blocks[0].insts = vec![Inst::Mov {
            dst: Reg(7),
            src: Operand::ImmInt(1),
        }];
        f.blocks[0].term = Terminator::Return(None);
        p.add_function(f);
        let _ = ExecImage::new(&p);
    }

    #[test]
    #[should_panic(expected = "call target")]
    fn decode_rejects_out_of_range_call_targets() {
        let mut p = Program::new();
        let mut f = Function::new("main");
        f.blocks[0].insts = vec![Inst::Call {
            func: FuncId(3),
            args: vec![],
            dst: None,
        }];
        f.blocks[0].term = Terminator::Return(None);
        p.add_function(f);
        let _ = ExecImage::new(&p);
    }
}
