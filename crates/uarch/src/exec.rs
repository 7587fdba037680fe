//! Functional execution of VISA programs with instrumentation hooks.
//!
//! The executor plays the role Pin plays in the paper (§III-A): it runs the
//! compiled workload and exposes every dynamic event — instruction executed,
//! basic block entered, control-flow edge traversed, conditional branch
//! outcome, memory address touched — to an [`Observer`].  The SFGL profiler,
//! the cache simulator, the branch predictors and the pipeline timing models
//! are all observers of the same execution.
//!
//! # The predecoded engine
//!
//! Interpreter throughput bounds every experiment the harness can run, so the
//! hot path is built around four ideas:
//!
//! 1. **Predecoding** ([`ExecImage`]): the program is flattened once into a
//!    contiguous step array with resolved branch targets, and every static
//!    instruction gets a dense `u32` site id that events carry.  Observers
//!    index flat tables by site id instead of hashing `(func, block, index)`
//!    triples per dynamic instruction.
//! 2. **An untagged register file**: decode runs a whole-program type
//!    inference (`typing`) and splits each function's registers into raw
//!    `i64` and `f64` banks plus a tagged `Value` bank for the rare register
//!    whose type is not statically known.  The hot ALU steps never match on
//!    a `Value` tag.
//! 3. **Superinstruction fusion**: adjacent step shapes inside a basic block
//!    (ALU/ALU, compare+branch, load+ALU, the `-O0` frame-slot shapes)
//!    collapse into single dispatch points while replaying each
//!    constituent's budget protocol and observer events exactly (see
//!    `image`).
//! 4. **Monomorphization**: [`execute`] is generic over the observer type, so
//!    observer callbacks inline into the dispatch loop; with [`NullObserver`]
//!    the event plumbing compiles away entirely.
//!
//! Call frames come from a bounded frame pool and call arguments are written
//! straight into the callee's registers, so steady-state execution does not
//! allocate; the pool caps both its length and the capacity it retains per
//! buffer, so deep recursion does not pin memory for the life of a run.
//!
//! # Safety of the unchecked indexing core
//!
//! The engine's hot loop indexes its flat tables through two helpers,
//! `at` and `at_mut` — two of the workspace's three `unsafe` ledger
//! sites (the third is `bsg-server`'s signal-handler registration).  In
//! default builds they compile to `get_unchecked(_mut)` guarded by
//! `debug_assert!`; compiling with `--cfg bsg_safe_core` (a CI job does)
//! restores fully bounds-checked indexing with no other change.  The
//! invariants that make the unchecked form sound are established **once per
//! image** by `verify::validate_program` plus the image builder itself, and
//! re-proved from the decoded image by `verify::verify_image`:
//!
//! * **Step/meta indices (`pc`)**: `steps` and `sites` are parallel arrays
//!   with one entry per (instruction | terminator).  Every pc the loop can
//!   reach is either a block's first step (`entry_pc` / `EdgeTarget.pc`,
//!   both derived from `block_pc`), or `pc + k` for a step `k-1` positions
//!   before its block's terminator — blocks always end with a terminator
//!   step, terminators never fall through, and fused steps only span
//!   positions inside one block, so `pc + k` stays in bounds.
//! * **Register indices**: every register id mentioned by any instruction,
//!   terminator or parameter list is validated against its function's
//!   `num_regs` at decode; all four per-frame banks are sized to
//!   `num_regs.max(1)` on acquisition.
//! * **Bank discipline**: a `Step` variant that touches the `i64`/`f64`
//!   banks is only emitted by decode when the type analysis proved the
//!   registers live there; the general variants go through the function's
//!   bank table (same length as `num_regs`).
//! * **Global indices**: `global_bounds` entries are constructed so
//!   `start + len` never exceeds the flattened store, memory steps referring
//!   to zero-length globals are rejected at decode, and every element index
//!   is reduced below `len` by `wrap`/`global_index` before use.
//! * **Frame-slot indices**: the slot count is `frame_words.max(1)`
//!   (`FrameBuf::nslots`).  Register-indexed accesses reduce their element
//!   with `wrap(elem, nslots)` and route through the per-function slot-bank
//!   table (`FuncImage::slot_banks`, built with exactly `nslots` entries),
//!   so only banks that appear in the table are indexed — and
//!   `FramePool::acquire` sizes exactly those banks to `nslots`
//!   (`FrameLayout::has_int`/`has_float`/`has_tagged`).  Statically-addressed
//!   accesses carry a `FrameSlot` whose index `image::frame_slot` validated
//!   `< nslots` at decode.
//! * **Per-shape frame-slot bank discipline** (rows for every frame step
//!   shape; each is emitted by decode only under the stated proof):
//!   - Int-slot shapes — `LoadFI`/`StoreFI` and the fused `LoadFIntAlu`/
//!     `IntAluStoreF`/`LoadFAluStoreF`/`LoadFPairI`/`LoadFCmpBr`/
//!     `StoreFIJump`/`StoreFLoadF`/`LoadFILoadG`: every addressed slot is
//!     int-banked in `slot_banks` (so `slots_int` is sized) and every
//!     frame-load destination/frame-store source register is int-banked.
//!   - Float-slot shapes — `LoadFF`/`StoreFF` (no fused shape addresses a
//!     float slot): every addressed slot is float-banked (so `slots_float`
//!     is sized) and every frame-load destination/frame-store source
//!     register is float-banked; float slots additionally never observe
//!     their missing zero-fill because the type analysis proved every read
//!     is preceded by a store (`typing::frame_entry_live`).
//!   - Register-only untagged shapes — `IntAlu`/`IntPair` and
//!     `IMovI`/`IMovRR` (int banks throughout), `FloatAlu`/`FloatPair`
//!     (float destination; an int-banked source is read with `as f64`), the
//!     `LoadGIntAlu`/`IntAluLoadG`/`LoadFILoadG` global constituents
//!     (validated like every `GlobalMem`): registers were bank-checked at
//!     decode exactly as for their unfused forms.
//!   - `LoadFrame`/`StoreFrame` (general): every slot index is wrapped below
//!     `nslots` at run time and dispatched through `slot_banks`, whose entry
//!     guarantees the chosen bank is sized.
//! * **Zero-fill elision**: `FramePool::acquire` skips zero-filling a
//!   register/slot bank when `FrameLayout::zero_*` says no member's implicit
//!   `Int(0)` init is observable — justified by the same liveness pass that
//!   seeds the init into the type lattice: every read of every member of
//!   that bank is then provably preceded by a write, so retained pooled
//!   values cannot be observed.  (This is a *correctness* invariant, not a
//!   memory-safety one: banks are still always sized.)
//! * **Function indices**: call targets and the entry function are validated
//!   against the function table at decode.
//!
//! The previous tree-walking interpreter is kept as [`execute_legacy`]; it
//! produces a bit-identical event stream and outcome (differential tests
//! enforce this, for both the fused and unfused images) and serves as the
//! measured baseline in `BENCH_interp.json`.

use crate::image::{
    ExecImage, FloatAlu, FloatSrc, FrameLayout, FrameMem, GlobalMem, IntAlu, IntSrc, Step,
};
use crate::typing::RegBank;
use bsg_ir::eval::{eval_bin, eval_un};
use bsg_ir::program::MemoryLayout;
use bsg_ir::types::{BlockId, FuncId, GlobalId, Reg, Ty, Value, WORD_BYTES};
use bsg_ir::visa::{Address, BinOp, Inst, InstClass, MemBase, Operand, Terminator};
use bsg_ir::Program;

/// Identifies a static instruction (profiling key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstSite {
    /// Enclosing function.
    pub func: FuncId,
    /// Enclosing block.
    pub block: BlockId,
    /// Index within the block (`usize::MAX` for the terminator).
    pub index: usize,
}

/// A dynamic instruction event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstEvent {
    /// Static location of the instruction.
    pub site: InstSite,
    /// Dense site id of the instruction (index into the program's
    /// [`ExecImage`] site table).  Observers use this to index flat
    /// per-site state without hashing.
    pub site_id: u32,
    /// Classification (load/store/branch/ALU/...).
    pub class: InstClass,
    /// Byte address read, if the instruction reads memory.
    pub mem_read: Option<u64>,
    /// Byte address written, if the instruction writes memory.
    pub mem_write: Option<u64>,
}

/// Observer of a program execution.  All methods have empty default bodies so
/// implementations only override what they need.
///
/// Alongside the IR-level identifiers, every callback carries the dense index
/// assigned by the program's [`ExecImage`] (site id, block index, edge index)
/// so observers can keep their per-site state in flat vectors.
pub trait Observer {
    /// Called for every dynamic instruction.
    fn on_inst(&mut self, event: &InstEvent) {
        let _ = event;
    }
    /// Called when a basic block is entered; `block_idx` is the dense
    /// program-wide block index.
    fn on_block(&mut self, func: FuncId, block: BlockId, block_idx: u32) {
        let _ = (func, block, block_idx);
    }
    /// Called for every intra-function control-flow edge; `edge_idx` is the
    /// dense program-wide static-edge index.
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId, edge_idx: u32) {
        let _ = (func, from, to, edge_idx);
    }
    /// Called for every executed conditional branch; `site_id` is the dense
    /// site id of the branch terminator.
    fn on_branch(&mut self, site: InstSite, site_id: u32, taken: bool) {
        let _ = (site, site_id, taken);
    }
    /// Called when a function is entered via a call (not for the entry function).
    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        let _ = (caller, callee);
    }
}

/// Forwarding impl so generic executors accept `&mut O` and `&mut dyn
/// Observer` alike.
impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_inst(&mut self, event: &InstEvent) {
        (**self).on_inst(event);
    }
    fn on_block(&mut self, func: FuncId, block: BlockId, block_idx: u32) {
        (**self).on_block(func, block, block_idx);
    }
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId, edge_idx: u32) {
        (**self).on_edge(func, from, to, edge_idx);
    }
    fn on_branch(&mut self, site: InstSite, site_id: u32, taken: bool) {
        (**self).on_branch(site, site_id, taken);
    }
    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        (**self).on_call(caller, callee);
    }
}

/// The no-op observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Stop after this many dynamic instructions (the run is then marked as
    /// not completed).  Defaults to `u64::MAX`.
    pub max_instructions: u64,
    /// Maximum call depth before the run is aborted.
    pub max_call_depth: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_instructions: u64::MAX,
            max_call_depth: 256,
        }
    }
}

/// The observable outcome of an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Values printed by `Print` instructions, in order.
    pub printed: Vec<Value>,
    /// Value returned by the entry function.
    pub return_value: Option<Value>,
    /// Number of dynamic instructions executed.
    pub dynamic_instructions: u64,
    /// `false` if the instruction budget or call-depth limit was hit.
    pub completed: bool,
}

impl ExecOutcome {
    /// The observable behaviour of the run: return value plus print stream.
    /// Compiler correctness tests compare this across optimization levels.
    pub fn observable(&self) -> (Option<Value>, &[Value]) {
        (self.return_value, &self.printed)
    }
}

/// Executes `program` with the default configuration and no observer.
pub fn run(program: &Program) -> ExecOutcome {
    execute(program, &mut NullObserver, &ExecConfig::default())
}

/// Executes `program` on the predecoded engine, reporting every dynamic event
/// to `observer`.  Monomorphizes over the observer type; pass a concrete
/// observer for the fast path.  Builds the [`ExecImage`] internally — use
/// [`execute_image`] to amortize the build over repeated runs.
pub fn execute<O: Observer + ?Sized>(
    program: &Program,
    observer: &mut O,
    config: &ExecConfig,
) -> ExecOutcome {
    let image = ExecImage::new(program);
    execute_image(&image, observer, config)
}

/// Executes a prebuilt [`ExecImage`] on the predecoded engine.
pub fn execute_image<O: Observer + ?Sized>(
    image: &ExecImage,
    observer: &mut O,
    config: &ExecConfig,
) -> ExecOutcome {
    let cancel = crate::cancel::current();
    let mut engine = Engine {
        image,
        globals: image.initial_globals.clone(),
        printed: Vec::new(),
        instructions: 0,
        halted: false,
        config: *config,
        frame_pool: FramePool::new(),
        cancel,
    };
    let ret = if engine.config.max_call_depth == 0 {
        engine.halted = true;
        None
    } else {
        let entry = image.entry;
        let f = &image.funcs[entry as usize];
        let mut frame = engine.frame_pool.acquire(f.num_regs, &f.frame);
        // Specialize the dispatch loop on whether an instruction budget is
        // in force: the unbounded variant drops the budget compare and the
        // mid-superinstruction halt polls (see `run_function`).  An ambient
        // cancellation token forces the bounded variant too — preemption
        // rides the same `halted` machinery as budget exhaustion.
        let ret = if config.max_instructions == u64::MAX && engine.cancel.is_none() {
            engine.run_function::<O, false>(entry, &mut frame, 0, observer)
        } else {
            engine.run_function::<O, true>(entry, &mut frame, 0, observer)
        };
        engine.frame_pool.release(frame);
        ret
    };
    ExecOutcome {
        printed: engine.printed,
        return_value: ret,
        dynamic_instructions: engine.instructions,
        completed: !engine.halted,
    }
}

// ---------------------------------------------------------------------------
// The unchecked indexing core
// ---------------------------------------------------------------------------

/// Hot-loop slice read.  Bounds-checked under `--cfg bsg_safe_core`;
/// `get_unchecked` (guarded by `debug_assert!`) otherwise.  See the
/// module-level safety discussion for the invariants that justify every call
/// site.
#[inline(always)]
#[allow(unsafe_code)]
fn at<T>(s: &[T], i: usize) -> &T {
    debug_assert!(
        i < s.len(),
        "engine index {i} out of bounds (len {})",
        s.len()
    );
    #[cfg(bsg_safe_core)]
    {
        &s[i]
    }
    #[cfg(not(bsg_safe_core))]
    {
        // SAFETY(ledger: reg-bounds, frame-slot-bounds, global-bounds,
        // edge-target, call-site, step-structure): `i < s.len()` is
        // established at image-build time for every caller (register ids <
        // num_regs = bank length; pcs < steps length; wrapped memory element
        // < region length), per the module docs; `bsg-verify` re-proves each
        // cited invariant statically per image.
        unsafe { s.get_unchecked(i) }
    }
}

/// Hot-loop slice write; the mutable counterpart of [`at`].
#[inline(always)]
#[allow(unsafe_code)]
fn at_mut<T>(s: &mut [T], i: usize) -> &mut T {
    debug_assert!(
        i < s.len(),
        "engine index {i} out of bounds (len {})",
        s.len()
    );
    #[cfg(bsg_safe_core)]
    {
        &mut s[i]
    }
    #[cfg(not(bsg_safe_core))]
    {
        // SAFETY(ledger: reg-bounds, reg-bank, frame-slot-bounds,
        // frame-slot-bank, global-bounds, zero-fill-elision): as in `at` —
        // the index was validated at image build time, and the bank/zero-fill
        // invariants guarantee the written value's type matches the bank.
        unsafe { s.get_unchecked_mut(i) }
    }
}

// ---------------------------------------------------------------------------
// Scalar micro-op semantics (must agree exactly with bsg_ir::eval)
// ---------------------------------------------------------------------------

/// Integer binary-operation semantics, specialized so the predecoded
/// engine's ALU path is a small inlinable match (the image splits `Bin` by
/// type at decode time).  Must agree exactly with
/// [`eval_bin`]`(op, Ty::Int, ..)` — a unit test and the engine differential
/// tests enforce this.
#[inline]
fn int_bin(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
    }
}

/// Float arithmetic semantics of the [`Step::FloatAlu`] subset.  Must agree
/// exactly with [`eval_bin`]`(op, Ty::Float, ..)` on float operands.
#[inline]
fn float_arith(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        BinOp::Rem => {
            if b == 0.0 {
                0.0
            } else {
                a % b
            }
        }
        _ => unreachable!("decode only emits arithmetic ops in FloatAlu"),
    }
}

// ---------------------------------------------------------------------------
// The register file and frame pool
// ---------------------------------------------------------------------------

/// A reusable call frame: the three register banks plus frame slots.  All
/// four buffers are sized on acquisition (`num_regs.max(1)` /
/// `frame_words.max(1)`), which is what makes the engine's unchecked
/// register indexing sound.
#[derive(Debug, Default)]
struct FrameBuf {
    /// Untagged integer bank, indexed by register id.
    ints: Vec<i64>,
    /// Untagged float bank, indexed by register id.
    floats: Vec<f64>,
    /// Tagged bank for registers whose type is not statically known.
    tagged: Vec<Value>,
    /// Tagged frame-slot bank, holding the slots whose per-slot bank is
    /// `Tagged` (sized `nslots` iff the function has any such slot).
    slots: Vec<Value>,
    /// Untagged `i64` frame-slot bank (sized `nslots` iff some slot is
    /// int-banked — the common case for `-O0` locals).
    slots_int: Vec<i64>,
    /// Untagged `f64` frame-slot bank (sized `nslots` iff some slot is
    /// float-banked).  Never zero-filled: a slot is only float-banked when
    /// every read is provably preceded by a store, so stale values are
    /// unobservable.
    slots_float: Vec<f64>,
    /// Slot count (`frame_words.max(1)`) — the wrapping modulus, kept here
    /// because only the banks the function uses are sized.
    nslots: usize,
}

/// Upper bound on pooled frames.  Deep recursion releases one frame per
/// unwound activation; beyond this many, released frames are dropped instead
/// of retained.
const MAX_POOLED_FRAMES: usize = 32;

/// Upper bound (in elements) on the capacity a pooled buffer may retain.  A
/// workload with one huge frame must not pin that memory for every later
/// (small) activation of the run.
const MAX_RETAINED_CAPACITY: usize = 4096;

/// A bounded pool of call frames (see the constants above).  The previous
/// unbounded `Vec<FrameBuf>` retained the largest-ever buffer capacities for
/// the life of the engine; a deep-recursion workload with large frames could
/// pin megabytes after the recursion unwound.
#[derive(Debug, Default)]
struct FramePool {
    frames: Vec<FrameBuf>,
}

impl FramePool {
    fn new() -> Self {
        FramePool::default()
    }

    /// A frame for a function with `num_regs` registers and the given
    /// slot-bank layout, reusing a pooled buffer when available.  Only the
    /// banks whose implicit `Int(0)` initialization is observable are
    /// zero-filled: float-banked registers and float-banked slots are
    /// provably written before read (otherwise the init would have forced
    /// them tagged), so the float banks just get resized and may retain
    /// stale (unobservable) values.  Banks with no slots assigned to them
    /// stay empty — the per-slot bank table is what routes every slot access,
    /// so an unsized bank is never indexed.
    fn acquire(&mut self, num_regs: u32, layout: &FrameLayout) -> FrameBuf {
        let mut frame = self.frames.pop().unwrap_or_default();
        let nregs = num_regs.max(1) as usize;
        let nslots = layout.nslots.max(1) as usize;
        frame.nslots = nslots;
        // Zero-fill only the banks where some member's `Int(0)` init is
        // observable (`FrameLayout::zero_*`, from the liveness analysis);
        // everywhere else the bank is merely resized and stale pooled values
        // are unobservable.  Float banks never need filling.
        if layout.zero_reg_ints {
            frame.ints.clear();
        }
        frame.ints.resize(nregs, 0);
        if layout.zero_reg_tagged {
            frame.tagged.clear();
        }
        frame.tagged.resize(nregs, Value::default());
        frame.floats.resize(nregs, 0.0);
        if layout.has_int {
            if layout.zero_slots_int {
                frame.slots_int.clear();
            }
            frame.slots_int.resize(nslots, 0);
        } else {
            frame.slots_int.clear();
        }
        if layout.has_tagged {
            if layout.zero_slots_tagged {
                frame.slots.clear();
            }
            frame.slots.resize(nslots, Value::default());
        } else {
            frame.slots.clear();
        }
        if layout.has_float {
            frame.slots_float.resize(nslots, 0.0);
        } else {
            frame.slots_float.clear();
        }
        frame
    }

    /// Returns a frame to the pool, dropping it when the pool is full and
    /// shrinking any buffer whose capacity exceeds the retention bound.
    fn release(&mut self, mut frame: FrameBuf) {
        if self.frames.len() >= MAX_POOLED_FRAMES {
            return;
        }
        if frame.ints.capacity() > MAX_RETAINED_CAPACITY {
            frame.ints = Vec::new();
        }
        if frame.floats.capacity() > MAX_RETAINED_CAPACITY {
            frame.floats = Vec::new();
        }
        if frame.tagged.capacity() > MAX_RETAINED_CAPACITY {
            frame.tagged = Vec::new();
        }
        if frame.slots.capacity() > MAX_RETAINED_CAPACITY {
            frame.slots = Vec::new();
        }
        if frame.slots_int.capacity() > MAX_RETAINED_CAPACITY {
            frame.slots_int = Vec::new();
        }
        if frame.slots_float.capacity() > MAX_RETAINED_CAPACITY {
            frame.slots_float = Vec::new();
        }
        self.frames.push(frame);
    }

    /// Number of pooled frames (diagnostics / tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.frames.len()
    }
}

/// Reads a register as a tagged [`Value`] through the function's bank table
/// (the slow path shared by every general step shape).
#[inline]
fn read_reg(frame: &FrameBuf, banks: &[RegBank], r: u32) -> Value {
    match *at(banks, r as usize) {
        RegBank::Int => Value::Int(*at(&frame.ints, r as usize)),
        RegBank::Float => Value::Float(*at(&frame.floats, r as usize)),
        RegBank::Tagged => *at(&frame.tagged, r as usize),
    }
}

/// Writes a tagged [`Value`] to a register through the bank table.  For the
/// untagged banks the `as_int`/`as_float` conversion is the identity: the
/// type analysis proved every value dynamically reaching the register has
/// the bank's tag.
#[inline]
fn write_reg(frame: &mut FrameBuf, banks: &[RegBank], r: u32, v: Value) {
    match *at(banks, r as usize) {
        RegBank::Int => *at_mut(&mut frame.ints, r as usize) = v.as_int(),
        RegBank::Float => *at_mut(&mut frame.floats, r as usize) = v.as_float(),
        RegBank::Tagged => *at_mut(&mut frame.tagged, r as usize) = v,
    }
}

/// Reads a frame slot as a tagged [`Value`] through the function's per-slot
/// bank table (the general path for register-indexed frame accesses and
/// tagged slots).
#[inline]
fn read_slot(frame: &FrameBuf, slot_banks: &[RegBank], slot: usize) -> Value {
    match *at(slot_banks, slot) {
        RegBank::Int => Value::Int(*at(&frame.slots_int, slot)),
        RegBank::Float => Value::Float(*at(&frame.slots_float, slot)),
        RegBank::Tagged => *at(&frame.slots, slot),
    }
}

/// Writes a tagged [`Value`] to a frame slot through the per-slot bank table.
/// For untagged banks the `as_int`/`as_float` conversion is the identity: the
/// type analysis proved every value dynamically reaching the slot has the
/// bank's tag.
#[inline]
fn write_slot(frame: &mut FrameBuf, slot_banks: &[RegBank], slot: usize, v: Value) {
    match *at(slot_banks, slot) {
        RegBank::Int => *at_mut(&mut frame.slots_int, slot) = v.as_int(),
        RegBank::Float => *at_mut(&mut frame.slots_float, slot) = v.as_float(),
        RegBank::Tagged => *at_mut(&mut frame.slots, slot) = v,
    }
}

/// Reads an untagged integer ALU operand.
#[inline(always)]
fn int_src(s: IntSrc, ints: &[i64]) -> i64 {
    match s {
        IntSrc::Reg(r) => *at(ints, r as usize),
        IntSrc::Imm(v) => v,
    }
}

/// Executes one untagged integer ALU micro-op.
#[inline(always)]
fn exec_int_alu(a: &IntAlu, ints: &mut [i64]) {
    let l = int_src(a.lhs, ints);
    let r = int_src(a.rhs, ints);
    *at_mut(ints, a.dst as usize) = int_bin(a.op, l, r);
}

/// Reads an untagged float operand (int-bank registers convert exactly as
/// `Value::as_float` would on a proven-int value).
#[inline(always)]
fn float_src(s: FloatSrc, frame: &FrameBuf) -> f64 {
    match s {
        FloatSrc::F(r) => *at(&frame.floats, r as usize),
        FloatSrc::I(r) => *at(&frame.ints, r as usize) as f64,
        FloatSrc::Imm(v) => v,
    }
}

/// Executes one untagged float ALU micro-op.
#[inline(always)]
fn exec_float_alu(a: &FloatAlu, frame: &mut FrameBuf) {
    let x = float_src(a.lhs, frame);
    let y = float_src(a.rhs, frame);
    *at_mut(&mut frame.floats, a.dst as usize) = float_arith(a.op, x, y);
}

/// Element-index contribution of a predecoded memory reference's index
/// register, read through its predecoded bank.
#[inline(always)]
fn mem_index_val(index: u32, index_bank: RegBank, frame: &FrameBuf) -> i64 {
    match index_bank {
        RegBank::Int => *at(&frame.ints, index as usize),
        RegBank::Float => *at(&frame.floats, index as usize) as i64,
        RegBank::Tagged => at(&frame.tagged, index as usize).as_int(),
    }
}

/// Element index of a predecoded global/frame reference.
#[inline(always)]
fn mem_elem(offset: i64, index: u32, index_bank: RegBank, scale: i64, frame: &FrameBuf) -> i64 {
    if index == u32::MAX {
        offset
    } else {
        offset + mem_index_val(index, index_bank, frame) * scale
    }
}

/// The predecoded execution engine (one run's mutable state).
struct Engine<'a> {
    image: &'a ExecImage,
    /// Flattened global store (see `ExecImage::initial_globals`).
    globals: Vec<Value>,
    printed: Vec<Value>,
    instructions: u64,
    halted: bool,
    config: ExecConfig,
    frame_pool: FramePool,
    /// Ambient cancellation token captured at `execute_image` entry; polled
    /// by the bounded dispatch loop every [`crate::cancel::POLL_INTERVAL`]
    /// instructions.  `None` on the unbounded fast path.
    cancel: Option<std::sync::Arc<crate::cancel::CancelToken>>,
}

impl<'a> Engine<'a> {
    #[inline]
    fn operand(
        &self,
        op: &Operand,
        frame: &FrameBuf,
        fimg: &crate::image::FuncImage,
        depth: usize,
        mem_read: &mut Option<u64>,
    ) -> Value {
        match op {
            Operand::Reg(r) => read_reg(frame, &fimg.banks, r.0),
            Operand::ImmInt(v) => Value::Int(*v),
            Operand::ImmFloat(v) => Value::Float(*v),
            Operand::Mem(addr) => {
                let (value, byte_addr) = self.read_memory(addr, frame, fimg, depth);
                *mem_read = Some(byte_addr);
                value
            }
        }
    }

    #[inline]
    fn element_index(addr: &Address, frame: &FrameBuf, banks: &[RegBank]) -> i64 {
        let idx = addr
            .index
            .map(|r: Reg| read_reg(frame, banks, r.0).as_int())
            .unwrap_or(0);
        addr.offset + idx * addr.scale
    }

    /// General (un-predecoded) memory read for folded `Operand::Mem`
    /// operands.
    fn read_memory(
        &self,
        addr: &Address,
        frame: &FrameBuf,
        fimg: &crate::image::FuncImage,
        depth: usize,
    ) -> (Value, u64) {
        let elem = Self::element_index(addr, frame, &fimg.banks);
        match addr.base {
            MemBase::Global(g) => {
                let byte = self.image.layout.global_addr(g, elem);
                let (start, len) = self.image.global_bounds[g.index()];
                let i = elem.rem_euclid(i64::from(len).max(1)) as usize;
                (*at(&self.globals, start as usize + i), byte)
            }
            MemBase::Frame => {
                let byte = self.image.layout.frame_addr(depth, elem);
                let i = Self::wrap(elem, frame.nslots);
                (read_slot(frame, &fimg.slot_banks, i), byte)
            }
        }
    }

    /// In-array element for `elem` under the executor's wrapping semantics.
    /// Fast path: the overwhelmingly common in-bounds access avoids the
    /// `rem_euclid` division entirely (for `0 <= elem < len`, `elem
    /// rem_euclid len == elem`).
    #[inline]
    fn wrap(elem: i64, len: usize) -> usize {
        if (elem as u64) < len as u64 {
            elem as usize
        } else {
            elem.rem_euclid((len as i64).max(1)) as usize
        }
    }

    #[inline]
    fn global_index(mem: &GlobalMem, elem: i64, len: usize) -> usize {
        if mem.mask != u64::MAX {
            (elem as u64 & mem.mask) as usize
        } else {
            Self::wrap(elem, len)
        }
    }

    #[inline]
    fn load_global(&self, mem: &GlobalMem, frame: &FrameBuf) -> (Value, u64) {
        let elem = mem_elem(mem.offset, mem.index, mem.index_bank, mem.scale, frame);
        let byte = mem
            .base_byte
            .wrapping_add((elem as u64).wrapping_mul(WORD_BYTES));
        let i = Self::global_index(mem, elem, mem.len as usize);
        (*at(&self.globals, mem.start as usize + i), byte)
    }

    #[inline]
    fn store_global(&mut self, mem: &GlobalMem, frame: &FrameBuf, value: Value) -> u64 {
        let elem = mem_elem(mem.offset, mem.index, mem.index_bank, mem.scale, frame);
        let byte = mem
            .base_byte
            .wrapping_add((elem as u64).wrapping_mul(WORD_BYTES));
        let i = Self::global_index(mem, elem, mem.len as usize);
        *at_mut(&mut self.globals, mem.start as usize + i) = value;
        byte
    }

    #[inline]
    fn frame_slot(mem: &FrameMem, frame: &FrameBuf) -> (usize, i64) {
        let elem = mem_elem(mem.offset, mem.index, mem.index_bank, mem.scale, frame);
        (Self::wrap(elem, frame.nslots), elem)
    }

    /// Runs one function activation.  `frame` is already sized and (for
    /// calls) parameter registers are already filled by the caller.
    ///
    /// The instruction counter and halt flag live in locals for the duration
    /// of the dispatch loop (synced back to the engine around calls and
    /// returns).  Fused superinstructions replay the budget/halt protocol of
    /// their constituents exactly: an instruction that exhausts the budget
    /// still executes and reports its event, the following constituent does
    /// not (matching the per-step `halted` checks of the unfused sequence),
    /// and absorbed terminators run unconditionally exactly as the separate
    /// `Jump`/`Branch` arms do.
    ///
    /// `BOUNDED` specializes the loop on whether an instruction budget is in
    /// force (`max_instructions < u64::MAX`).  In the unbounded common case
    /// the budget can never trip, so `count_inst!` loses its compare (the
    /// per-constituent `+= 1`s of a fused arm then collapse into a single
    /// add) and the mid-superinstruction `halt_poll!`s — which only ever
    /// observe a budget-set flag, never a call-depth one, because fused arms
    /// contain no calls — compile out.  The bounded variant is byte-for-byte
    /// the historical protocol; the differential suite drives both.
    fn run_function<O: Observer + ?Sized, const BOUNDED: bool>(
        &mut self,
        func_idx: u32,
        frame: &mut FrameBuf,
        depth: usize,
        observer: &mut O,
    ) -> Option<Value> {
        let image = self.image;
        let steps: &[Step] = &image.steps;
        let metas: &[crate::image::SiteMeta] = image.site_metas();
        assert_eq!(steps.len(), metas.len(), "image tables are parallel");
        let max_instructions = self.config.max_instructions;
        // One Arc clone per activation keeps the token out of `self`'s
        // borrow for the duration of the dispatch loop; `None` whenever no
        // task boundary installed one (then the poll below is a dead branch
        // behind an always-false `is_some`).
        let cancel = self.cancel.clone();
        let mut instructions = self.instructions;
        let mut halted = self.halted;
        macro_rules! sync_out {
            () => {
                self.instructions = instructions;
                self.halted = halted;
            };
        }
        macro_rules! count_inst {
            () => {
                instructions += 1;
                if BOUNDED {
                    if instructions >= max_instructions {
                        halted = true;
                    } else if instructions & crate::cancel::POLL_MASK == 0
                        && cancel.as_deref().is_some_and(|t| t.is_cancelled())
                    {
                        halted = true;
                    }
                }
            };
        }
        /// Mid-superinstruction halt check.  Inside a fused arm `halted` can
        /// only have been set by `count_inst!` (the arm entry already
        /// returned if it was set, and fused arms perform no calls), so when
        /// the budget is unbounded this is provably dead and compiles out.
        macro_rules! halt_poll {
            () => {
                if BOUNDED && halted {
                    sync_out!();
                    return None;
                }
            };
        }
        /// Emits the on_inst event of the step at `pc + $k`.
        macro_rules! emit_at {
            ($pc:expr, $k:expr, $mr:expr, $mw:expr) => {{
                let meta = at(metas, $pc + $k);
                observer.on_inst(&InstEvent {
                    site: meta.site,
                    site_id: ($pc + $k) as u32,
                    class: meta.class,
                    mem_read: $mr,
                    mem_write: $mw,
                });
            }};
        }
        let func_id = FuncId(func_idx);
        let f = at(&image.funcs, func_idx as usize);
        let banks: &[RegBank] = &f.banks;
        let mut pc = f.entry_pc as usize;
        observer.on_block(func_id, f.entry_block, f.entry_block_idx);
        if halted {
            sync_out!();
            return None;
        }
        loop {
            match at(steps, pc) {
                Step::Jump(t) => {
                    let from = at(metas, pc).site.block;
                    observer.on_edge(func_id, from, t.block, t.edge_idx);
                    observer.on_block(func_id, t.block, t.block_idx);
                    pc = t.pc as usize;
                    if halted {
                        sync_out!();
                        return None;
                    }
                }
                Step::Branch {
                    cond,
                    bank,
                    taken,
                    not_taken,
                } => {
                    count_inst!();
                    let site = at(metas, pc).site;
                    let t = match bank {
                        RegBank::Int => *at(&frame.ints, *cond as usize) != 0,
                        RegBank::Float => *at(&frame.floats, *cond as usize) != 0.0,
                        RegBank::Tagged => at(&frame.tagged, *cond as usize).is_true(),
                    };
                    observer.on_inst(&InstEvent {
                        site,
                        site_id: pc as u32,
                        class: InstClass::Branch,
                        mem_read: None,
                        mem_write: None,
                    });
                    observer.on_branch(site, pc as u32, t);
                    let target = if t { taken } else { not_taken };
                    observer.on_edge(func_id, site.block, target.block, target.edge_idx);
                    observer.on_block(func_id, target.block, target.block_idx);
                    pc = target.pc as usize;
                    if halted {
                        sync_out!();
                        return None;
                    }
                }
                Step::Return { value } => {
                    count_inst!();
                    let site = at(metas, pc).site;
                    observer.on_inst(&InstEvent {
                        site,
                        site_id: pc as u32,
                        class: InstClass::Branch,
                        mem_read: None,
                        mem_write: None,
                    });
                    sync_out!();
                    let mut sink = None;
                    return value
                        .as_ref()
                        .map(|op| self.operand(op, frame, f, depth, &mut sink));
                }
                step => {
                    if halted {
                        sync_out!();
                        return None;
                    }
                    count_inst!();
                    let mut mem_read: Option<u64> = None;
                    let mut mem_write: Option<u64> = None;
                    match step {
                        // --- untagged single steps ---------------------------
                        Step::IntAlu(a) => {
                            exec_int_alu(a, &mut frame.ints);
                        }
                        Step::FloatAlu(a) => {
                            exec_float_alu(a, frame);
                        }
                        Step::IMovI { dst, imm } => {
                            *at_mut(&mut frame.ints, *dst as usize) = *imm;
                        }
                        Step::IMovRR { dst, src } => {
                            *at_mut(&mut frame.ints, *dst as usize) =
                                *at(&frame.ints, *src as usize);
                        }
                        Step::LoadFI { dst, s } => {
                            *at_mut(&mut frame.ints, *dst as usize) =
                                *at(&frame.slots_int, s.slot as usize);
                            mem_read = Some(self.image.layout.frame_addr(depth, s.elem));
                        }
                        Step::LoadFF { dst, s } => {
                            *at_mut(&mut frame.floats, *dst as usize) =
                                *at(&frame.slots_float, s.slot as usize);
                            mem_read = Some(self.image.layout.frame_addr(depth, s.elem));
                        }
                        Step::StoreFI { src, s } => {
                            *at_mut(&mut frame.slots_int, s.slot as usize) =
                                int_src(*src, &frame.ints);
                            mem_write = Some(self.image.layout.frame_addr(depth, s.elem));
                        }
                        Step::StoreFF { src, s } => {
                            *at_mut(&mut frame.slots_float, s.slot as usize) =
                                float_src(*src, frame);
                            mem_write = Some(self.image.layout.frame_addr(depth, s.elem));
                        }
                        // --- fused superinstructions -------------------------
                        Step::IntPair(a, b) => {
                            exec_int_alu(a, &mut frame.ints);
                            emit_at!(pc, 0, None, None);
                            halt_poll!();
                            count_inst!();
                            exec_int_alu(b, &mut frame.ints);
                            emit_at!(pc, 1, None, None);
                            pc += 2;
                            continue;
                        }
                        Step::IntCmpBr {
                            a,
                            cond,
                            taken,
                            not_taken,
                        } => {
                            exec_int_alu(a, &mut frame.ints);
                            emit_at!(pc, 0, None, None);
                            // Absorbed Branch terminator at pc + 1: like the
                            // Step::Branch arm, it runs without a preceding
                            // halted check.
                            count_inst!();
                            let bsite = at(metas, pc + 1).site;
                            let t = *at(&frame.ints, *cond as usize) != 0;
                            observer.on_inst(&InstEvent {
                                site: bsite,
                                site_id: (pc + 1) as u32,
                                class: InstClass::Branch,
                                mem_read: None,
                                mem_write: None,
                            });
                            observer.on_branch(bsite, (pc + 1) as u32, t);
                            let target = if t { taken } else { not_taken };
                            observer.on_edge(func_id, bsite.block, target.block, target.edge_idx);
                            observer.on_block(func_id, target.block, target.block_idx);
                            pc = target.pc as usize;
                            halt_poll!();
                            continue;
                        }
                        Step::LoadGIntAlu { dst, mem, b } => {
                            let (value, byte_addr) = self.load_global(mem, frame);
                            // dst is int-banked: the analysis proved the
                            // whole region holds Int values, so as_int is
                            // the identity.
                            *at_mut(&mut frame.ints, *dst as usize) = value.as_int();
                            emit_at!(pc, 0, Some(byte_addr), None);
                            halt_poll!();
                            count_inst!();
                            exec_int_alu(b, &mut frame.ints);
                            emit_at!(pc, 1, None, None);
                            pc += 2;
                            continue;
                        }
                        Step::IntAluLoadG { a, dst, mem } => {
                            exec_int_alu(a, &mut frame.ints);
                            emit_at!(pc, 0, None, None);
                            halt_poll!();
                            count_inst!();
                            let (value, byte_addr) = self.load_global(mem, frame);
                            *at_mut(&mut frame.ints, *dst as usize) = value.as_int();
                            emit_at!(pc, 1, Some(byte_addr), None);
                            pc += 2;
                            continue;
                        }
                        Step::LoadFIntAlu { dst, s, b } => {
                            *at_mut(&mut frame.ints, *dst as usize) =
                                *at(&frame.slots_int, s.slot as usize);
                            emit_at!(
                                pc,
                                0,
                                Some(self.image.layout.frame_addr(depth, s.elem)),
                                None
                            );
                            halt_poll!();
                            count_inst!();
                            exec_int_alu(b, &mut frame.ints);
                            emit_at!(pc, 1, None, None);
                            pc += 2;
                            continue;
                        }
                        Step::IntAluStoreF { a, src, s } => {
                            exec_int_alu(a, &mut frame.ints);
                            emit_at!(pc, 0, None, None);
                            halt_poll!();
                            count_inst!();
                            *at_mut(&mut frame.slots_int, s.slot as usize) =
                                int_src(*src, &frame.ints);
                            emit_at!(
                                pc,
                                1,
                                None,
                                Some(self.image.layout.frame_addr(depth, s.elem))
                            );
                            pc += 2;
                            continue;
                        }
                        Step::LoadFAluStoreF {
                            dst,
                            ls,
                            b,
                            src,
                            ss,
                        } => {
                            *at_mut(&mut frame.ints, *dst as usize) =
                                *at(&frame.slots_int, ls.slot as usize);
                            emit_at!(
                                pc,
                                0,
                                Some(self.image.layout.frame_addr(depth, ls.elem)),
                                None
                            );
                            halt_poll!();
                            count_inst!();
                            exec_int_alu(b, &mut frame.ints);
                            emit_at!(pc, 1, None, None);
                            halt_poll!();
                            count_inst!();
                            *at_mut(&mut frame.slots_int, ss.slot as usize) =
                                int_src(*src, &frame.ints);
                            emit_at!(
                                pc,
                                2,
                                None,
                                Some(self.image.layout.frame_addr(depth, ss.elem))
                            );
                            pc += 3;
                            continue;
                        }
                        Step::FloatPair(a, b) => {
                            exec_float_alu(a, frame);
                            emit_at!(pc, 0, None, None);
                            halt_poll!();
                            count_inst!();
                            exec_float_alu(b, frame);
                            emit_at!(pc, 1, None, None);
                            pc += 2;
                            continue;
                        }
                        Step::LoadFILoadG {
                            dst1,
                            s1,
                            dst2,
                            bank2,
                            mem,
                        } => {
                            *at_mut(&mut frame.ints, *dst1 as usize) =
                                *at(&frame.slots_int, s1.slot as usize);
                            emit_at!(
                                pc,
                                0,
                                Some(self.image.layout.frame_addr(depth, s1.elem)),
                                None
                            );
                            halt_poll!();
                            count_inst!();
                            let (value, byte_addr) = self.load_global(mem, frame);
                            match bank2 {
                                RegBank::Int => {
                                    *at_mut(&mut frame.ints, *dst2 as usize) = value.as_int()
                                }
                                RegBank::Float => {
                                    *at_mut(&mut frame.floats, *dst2 as usize) = value.as_float()
                                }
                                RegBank::Tagged => {
                                    *at_mut(&mut frame.tagged, *dst2 as usize) = value
                                }
                            }
                            emit_at!(pc, 1, Some(byte_addr), None);
                            pc += 2;
                            continue;
                        }
                        Step::StoreFLoadF { src, ss, dst, ls } => {
                            *at_mut(&mut frame.slots_int, ss.slot as usize) =
                                int_src(*src, &frame.ints);
                            emit_at!(
                                pc,
                                0,
                                None,
                                Some(self.image.layout.frame_addr(depth, ss.elem))
                            );
                            halt_poll!();
                            count_inst!();
                            *at_mut(&mut frame.ints, *dst as usize) =
                                *at(&frame.slots_int, ls.slot as usize);
                            emit_at!(
                                pc,
                                1,
                                Some(self.image.layout.frame_addr(depth, ls.elem)),
                                None
                            );
                            pc += 2;
                            continue;
                        }
                        Step::LoadFPairI { dst1, s1, dst2, s2 } => {
                            *at_mut(&mut frame.ints, *dst1 as usize) =
                                *at(&frame.slots_int, s1.slot as usize);
                            emit_at!(
                                pc,
                                0,
                                Some(self.image.layout.frame_addr(depth, s1.elem)),
                                None
                            );
                            halt_poll!();
                            count_inst!();
                            *at_mut(&mut frame.ints, *dst2 as usize) =
                                *at(&frame.slots_int, s2.slot as usize);
                            emit_at!(
                                pc,
                                1,
                                Some(self.image.layout.frame_addr(depth, s2.elem)),
                                None
                            );
                            pc += 2;
                            continue;
                        }
                        Step::LoadFCmpBr {
                            dst,
                            s,
                            a,
                            cond,
                            taken,
                            not_taken,
                        } => {
                            *at_mut(&mut frame.ints, *dst as usize) =
                                *at(&frame.slots_int, s.slot as usize);
                            emit_at!(
                                pc,
                                0,
                                Some(self.image.layout.frame_addr(depth, s.elem)),
                                None
                            );
                            halt_poll!();
                            count_inst!();
                            exec_int_alu(a, &mut frame.ints);
                            emit_at!(pc, 1, None, None);
                            // Absorbed Branch terminator at pc + 2: like the
                            // Step::Branch arm, it runs without a preceding
                            // halted check.
                            count_inst!();
                            let bsite = at(metas, pc + 2).site;
                            let t = *at(&frame.ints, *cond as usize) != 0;
                            observer.on_inst(&InstEvent {
                                site: bsite,
                                site_id: (pc + 2) as u32,
                                class: InstClass::Branch,
                                mem_read: None,
                                mem_write: None,
                            });
                            observer.on_branch(bsite, (pc + 2) as u32, t);
                            let target = if t { taken } else { not_taken };
                            observer.on_edge(func_id, bsite.block, target.block, target.edge_idx);
                            observer.on_block(func_id, target.block, target.block_idx);
                            pc = target.pc as usize;
                            halt_poll!();
                            continue;
                        }
                        Step::StoreFIJump { src, s, target } => {
                            *at_mut(&mut frame.slots_int, s.slot as usize) =
                                int_src(*src, &frame.ints);
                            emit_at!(
                                pc,
                                0,
                                None,
                                Some(self.image.layout.frame_addr(depth, s.elem))
                            );
                            // Absorbed Jump terminator at pc + 1: no event,
                            // no budget charge, exactly like Step::Jump.
                            let from = at(metas, pc + 1).site.block;
                            observer.on_edge(func_id, from, target.block, target.edge_idx);
                            observer.on_block(func_id, target.block, target.block_idx);
                            pc = target.pc as usize;
                            halt_poll!();
                            continue;
                        }
                        // --- general (bank-table) steps ----------------------
                        Step::IntBin { op, dst, lhs, rhs } => {
                            let a = self.operand(lhs, frame, f, depth, &mut mem_read);
                            let b = self.operand(rhs, frame, f, depth, &mut mem_read);
                            let v = Value::Int(int_bin(*op, a.as_int(), b.as_int()));
                            write_reg(frame, banks, *dst, v);
                        }
                        Step::FloatBin { op, dst, lhs, rhs } => {
                            let a = self.operand(lhs, frame, f, depth, &mut mem_read);
                            let b = self.operand(rhs, frame, f, depth, &mut mem_read);
                            write_reg(frame, banks, *dst, eval_bin(*op, Ty::Float, a, b));
                        }
                        Step::Un { op, ty, dst, src } => {
                            let v = self.operand(src, frame, f, depth, &mut mem_read);
                            write_reg(frame, banks, *dst, eval_un(*op, *ty, v));
                        }
                        Step::Mov { dst, src } => {
                            let v = self.operand(src, frame, f, depth, &mut mem_read);
                            write_reg(frame, banks, *dst, v);
                        }
                        Step::LoadGlobal { dst, bank, mem } => {
                            let (value, byte_addr) = self.load_global(mem, frame);
                            mem_read = Some(byte_addr);
                            match bank {
                                RegBank::Int => {
                                    *at_mut(&mut frame.ints, *dst as usize) = value.as_int()
                                }
                                RegBank::Float => {
                                    *at_mut(&mut frame.floats, *dst as usize) = value.as_float()
                                }
                                RegBank::Tagged => {
                                    *at_mut(&mut frame.tagged, *dst as usize) = value
                                }
                            }
                        }
                        Step::LoadFrame { dst, bank, mem } => {
                            let (slot, elem) = Self::frame_slot(mem, frame);
                            mem_read = Some(self.image.layout.frame_addr(depth, elem));
                            let value = read_slot(frame, &f.slot_banks, slot);
                            match bank {
                                RegBank::Int => {
                                    *at_mut(&mut frame.ints, *dst as usize) = value.as_int()
                                }
                                RegBank::Float => {
                                    *at_mut(&mut frame.floats, *dst as usize) = value.as_float()
                                }
                                RegBank::Tagged => {
                                    *at_mut(&mut frame.tagged, *dst as usize) = value
                                }
                            }
                        }
                        Step::StoreGlobal { src, mem } => {
                            let v = self.operand(src, frame, f, depth, &mut mem_read);
                            mem_write = Some(self.store_global(mem, frame, v));
                        }
                        Step::StoreFrame { src, mem } => {
                            let v = self.operand(src, frame, f, depth, &mut mem_read);
                            let (slot, elem) = Self::frame_slot(mem, frame);
                            write_slot(frame, &f.slot_banks, slot, v);
                            mem_write = Some(self.image.layout.frame_addr(depth, elem));
                        }
                        Step::Call {
                            func,
                            args_start,
                            args_len,
                            dst,
                        } => {
                            let callee_idx = *func;
                            let callee = at(&image.funcs, callee_idx as usize);
                            let mut callee_frame =
                                self.frame_pool.acquire(callee.num_regs, &callee.frame);
                            let args = &image.call_args
                                [*args_start as usize..(*args_start + *args_len) as usize];
                            for (i, a) in args.iter().enumerate() {
                                let v = self.operand(a, frame, f, depth, &mut mem_read);
                                if let Some(p) = callee.params.get(i) {
                                    write_reg(&mut callee_frame, &callee.banks, p.0, v);
                                }
                            }
                            let site = at(metas, pc).site;
                            observer.on_inst(&InstEvent {
                                site,
                                site_id: pc as u32,
                                class: InstClass::Call,
                                mem_read,
                                mem_write: None,
                            });
                            observer.on_call(func_id, FuncId(callee_idx));
                            let ret = if depth + 1 >= self.config.max_call_depth {
                                halted = true;
                                None
                            } else {
                                sync_out!();
                                let ret = self.run_function::<O, BOUNDED>(
                                    callee_idx,
                                    &mut callee_frame,
                                    depth + 1,
                                    observer,
                                );
                                instructions = self.instructions;
                                halted = self.halted;
                                ret
                            };
                            self.frame_pool.release(callee_frame);
                            if *dst != u32::MAX {
                                if let Some(v) = ret {
                                    write_reg(frame, banks, *dst, v);
                                }
                            }
                            pc += 1;
                            continue; // the event was already emitted
                        }
                        Step::Print { src } => {
                            let v = self.operand(src, frame, f, depth, &mut mem_read);
                            self.printed.push(v);
                        }
                        Step::Jump(_) | Step::Branch { .. } | Step::Return { .. } => {
                            unreachable!("terminators handled above")
                        }
                    }
                    emit_at!(pc, 0, mem_read, mem_write);
                    pc += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Legacy tree-walking interpreter
// ---------------------------------------------------------------------------

/// Executes `program` on the pre-predecode tree-walking interpreter.
///
/// This walks the nested `Program` representation and dispatches every event
/// through `dyn Observer`, exactly as the executor did before the predecoded
/// engine landed.  It exists for two reasons: differential tests prove the
/// predecoded engine produces a bit-identical event stream and outcome, and
/// `interp_bench` measures the speedup against it.  (Dense event indices are
/// computed from an [`ExecImage`] by table lookup so both engines share the
/// [`Observer`] trait.)
pub fn execute_legacy(
    program: &Program,
    observer: &mut dyn Observer,
    config: &ExecConfig,
) -> ExecOutcome {
    let image = ExecImage::new(program);
    let mut machine = LegacyMachine {
        program,
        image: &image,
        layout: program.memory_layout(),
        globals: program.globals.iter().map(|g| g.initial_values()).collect(),
        printed: Vec::new(),
        instructions: 0,
        halted: false,
        config: *config,
    };
    let ret = machine.call(program.entry, &[], observer, 0);
    ExecOutcome {
        printed: machine.printed,
        return_value: ret,
        dynamic_instructions: machine.instructions,
        completed: !machine.halted,
    }
}

struct LegacyMachine<'a> {
    program: &'a Program,
    image: &'a ExecImage,
    layout: MemoryLayout,
    globals: Vec<Vec<Value>>,
    printed: Vec<Value>,
    instructions: u64,
    halted: bool,
    config: ExecConfig,
}

struct LegacyFrame {
    regs: Vec<Value>,
    slots: Vec<Value>,
    depth: usize,
}

impl<'a> LegacyMachine<'a> {
    fn count_inst(&mut self) {
        self.instructions += 1;
        if self.instructions >= self.config.max_instructions {
            self.halted = true;
        }
    }

    fn call(
        &mut self,
        func_id: FuncId,
        args: &[Value],
        observer: &mut dyn Observer,
        depth: usize,
    ) -> Option<Value> {
        if depth >= self.config.max_call_depth {
            self.halted = true;
            return None;
        }
        let func = self.program.function(func_id);
        let mut frame = LegacyFrame {
            regs: vec![Value::default(); func.num_regs.max(1) as usize],
            slots: vec![Value::default(); (func.frame_words.max(1)) as usize],
            depth,
        };
        for (reg, value) in func.params.iter().zip(args) {
            frame.regs[reg.0 as usize] = *value;
        }

        let mut block_id = func.entry;
        observer.on_block(func_id, block_id, self.image.block_index(func_id, block_id));
        loop {
            if self.halted {
                return None;
            }
            let block = func.block(block_id);
            for (index, inst) in block.insts.iter().enumerate() {
                if self.halted {
                    return None;
                }
                let site = InstSite {
                    func: func_id,
                    block: block_id,
                    index,
                };
                self.step(inst, site, &mut frame, observer, func_id, depth);
            }
            // Terminator.
            let term_site = InstSite {
                func: func_id,
                block: block_id,
                index: usize::MAX,
            };
            let term_id = self.image.site_id(func_id, block_id, usize::MAX);
            match &block.term {
                Terminator::Jump(next) => {
                    let edge = self
                        .image
                        .edge_index(func_id, block_id, *next)
                        .expect("static edge");
                    observer.on_edge(func_id, block_id, *next, edge);
                    block_id = *next;
                    observer.on_block(func_id, block_id, self.image.block_index(func_id, block_id));
                }
                Terminator::Branch {
                    cond,
                    taken,
                    not_taken,
                } => {
                    self.count_inst();
                    let t = frame.regs[cond.0 as usize].is_true();
                    observer.on_inst(&InstEvent {
                        site: term_site,
                        site_id: term_id,
                        class: InstClass::Branch,
                        mem_read: None,
                        mem_write: None,
                    });
                    observer.on_branch(term_site, term_id, t);
                    let next = if t { *taken } else { *not_taken };
                    let edge = self
                        .image
                        .edge_index(func_id, block_id, next)
                        .expect("static edge");
                    observer.on_edge(func_id, block_id, next, edge);
                    block_id = next;
                    observer.on_block(func_id, block_id, self.image.block_index(func_id, block_id));
                }
                Terminator::Return(v) => {
                    self.count_inst();
                    observer.on_inst(&InstEvent {
                        site: term_site,
                        site_id: term_id,
                        class: InstClass::Branch,
                        mem_read: None,
                        mem_write: None,
                    });
                    let value = v.as_ref().map(|op| self.operand(op, &mut frame, None));
                    return value;
                }
            }
        }
    }

    fn step(
        &mut self,
        inst: &Inst,
        site: InstSite,
        frame: &mut LegacyFrame,
        observer: &mut dyn Observer,
        func_id: FuncId,
        depth: usize,
    ) {
        self.count_inst();
        let site_id = self.image.site_id(site.func, site.block, site.index);
        let mut mem_read: Option<u64> = None;
        let mut mem_write: Option<u64> = None;
        match inst {
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.operand(lhs, frame, Some(&mut mem_read));
                let b = self.operand(rhs, frame, Some(&mut mem_read));
                frame.regs[dst.0 as usize] = eval_bin(*op, *ty, a, b);
            }
            Inst::Un { op, ty, dst, src } => {
                let v = self.operand(src, frame, Some(&mut mem_read));
                frame.regs[dst.0 as usize] = eval_un(*op, *ty, v);
            }
            Inst::Mov { dst, src } => {
                let v = self.operand(src, frame, Some(&mut mem_read));
                frame.regs[dst.0 as usize] = v;
            }
            Inst::Load { dst, addr, .. } => {
                let (value, byte_addr) = self.read_memory(addr, frame);
                mem_read = Some(byte_addr);
                frame.regs[dst.0 as usize] = value;
            }
            Inst::Store { src, addr, .. } => {
                let v = self.operand(src, frame, Some(&mut mem_read));
                let byte_addr = self.write_memory(addr, frame, v);
                mem_write = Some(byte_addr);
            }
            Inst::Call { func, args, dst } => {
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| self.operand(a, frame, Some(&mut mem_read)))
                    .collect();
                observer.on_inst(&InstEvent {
                    site,
                    site_id,
                    class: InstClass::Call,
                    mem_read,
                    mem_write: None,
                });
                observer.on_call(func_id, *func);
                let ret = self.call(*func, &arg_values, observer, depth + 1);
                if let (Some(d), Some(v)) = (dst, ret) {
                    frame.regs[d.0 as usize] = v;
                }
                return; // the event was already emitted
            }
            Inst::Print { src } => {
                let v = self.operand(src, frame, Some(&mut mem_read));
                self.printed.push(v);
            }
        }
        observer.on_inst(&InstEvent {
            site,
            site_id,
            class: inst.class(),
            mem_read,
            mem_write,
        });
    }

    fn operand(
        &mut self,
        op: &Operand,
        frame: &mut LegacyFrame,
        mem_read: Option<&mut Option<u64>>,
    ) -> Value {
        match op {
            Operand::Reg(r) => frame.regs[r.0 as usize],
            Operand::ImmInt(v) => Value::Int(*v),
            Operand::ImmFloat(v) => Value::Float(*v),
            Operand::Mem(addr) => {
                let (value, byte_addr) = self.read_memory(addr, frame);
                if let Some(slot) = mem_read {
                    *slot = Some(byte_addr);
                }
                value
            }
        }
    }

    fn element_index(addr: &Address, frame: &LegacyFrame) -> i64 {
        let idx = addr
            .index
            .map(|r: Reg| frame.regs[r.0 as usize].as_int())
            .unwrap_or(0);
        addr.offset + idx * addr.scale
    }

    fn read_memory(&mut self, addr: &Address, frame: &LegacyFrame) -> (Value, u64) {
        let elem = Self::element_index(addr, frame);
        match addr.base {
            MemBase::Global(g) => {
                let byte = self.layout.global_addr(g, elem);
                (self.global_get(g, elem), byte)
            }
            MemBase::Frame => {
                let byte = self.layout.frame_addr(frame.depth, elem);
                let n = frame.slots.len() as i64;
                let i = elem.rem_euclid(n) as usize;
                (frame.slots[i], byte)
            }
        }
    }

    fn write_memory(&mut self, addr: &Address, frame: &mut LegacyFrame, value: Value) -> u64 {
        let elem = Self::element_index(addr, frame);
        match addr.base {
            MemBase::Global(g) => {
                let byte = self.layout.global_addr(g, elem);
                self.global_set(g, elem, value);
                byte
            }
            MemBase::Frame => {
                let byte = self.layout.frame_addr(frame.depth, elem);
                let n = frame.slots.len() as i64;
                let i = elem.rem_euclid(n) as usize;
                frame.slots[i] = value;
                byte
            }
        }
    }

    fn global_get(&self, g: GlobalId, elem: i64) -> Value {
        let arr = &self.globals[g.index()];
        let n = arr.len() as i64;
        arr[elem.rem_euclid(n.max(1)) as usize]
    }

    fn global_set(&mut self, g: GlobalId, elem: i64, value: Value) {
        let arr = &mut self.globals[g.index()];
        let n = arr.len() as i64;
        let i = elem.rem_euclid(n.max(1)) as usize;
        arr[i] = value;
    }
}

/// An observer that simply counts events; useful as a cheap smoke check and
/// in tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingObserver {
    /// Dynamic instructions seen.
    pub instructions: u64,
    /// Loads seen.
    pub loads: u64,
    /// Stores seen.
    pub stores: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Taken conditional branches seen.
    pub taken_branches: u64,
    /// Blocks entered.
    pub blocks: u64,
    /// Calls observed.
    pub calls: u64,
}

impl Observer for CountingObserver {
    fn on_inst(&mut self, event: &InstEvent) {
        self.instructions += 1;
        if event.mem_read.is_some() {
            self.loads += 1;
        }
        if event.mem_write.is_some() {
            self.stores += 1;
        }
    }
    fn on_block(&mut self, _func: FuncId, _block: BlockId, _block_idx: u32) {
        self.blocks += 1;
    }
    fn on_branch(&mut self, _site: InstSite, _site_id: u32, taken: bool) {
        self.branches += 1;
        if taken {
            self.taken_branches += 1;
        }
    }
    fn on_call(&mut self, _caller: FuncId, _callee: FuncId) {
        self.calls += 1;
    }
}

// Keep WORD_BYTES referenced so the layout convention is visible here.
const _: () = assert!(WORD_BYTES == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::program::{Function, Global, Program};
    use bsg_ir::types::Ty;
    use bsg_ir::visa::BinOp;

    /// main: g[0]=5; g[1]=g[0]+2; print g[1]; return g[1]*2
    fn simple_program() -> Program {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("g", 8));
        let mut f = Function::new("main");
        let r0 = f.fresh_reg();
        let r1 = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmInt(5),
                addr: Address::global(g, 0),
                ty: Ty::Int,
            },
            Inst::Load {
                dst: r0,
                addr: Address::global(g, 0),
                ty: Ty::Int,
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: r0,
                lhs: r0.into(),
                rhs: Operand::ImmInt(2),
            },
            Inst::Store {
                src: r0.into(),
                addr: Address::global(g, 1),
                ty: Ty::Int,
            },
            Inst::Print { src: r0.into() },
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::Int,
                dst: r1,
                lhs: r0.into(),
                rhs: Operand::ImmInt(2),
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(r1.into()));
        p.add_function(f);
        p
    }

    #[test]
    fn executes_straight_line_code() {
        let p = simple_program();
        let out = run(&p);
        assert!(out.completed);
        assert_eq!(out.return_value, Some(Value::Int(14)));
        assert_eq!(out.printed, vec![Value::Int(7)]);
        assert_eq!(out.dynamic_instructions, 7, "6 instructions + return");
    }

    #[test]
    fn counting_observer_sees_memory_and_blocks() {
        let p = simple_program();
        let mut counter = CountingObserver::default();
        let out = execute(&p, &mut counter, &ExecConfig::default());
        assert_eq!(counter.instructions, out.dynamic_instructions);
        assert_eq!(counter.loads, 1);
        assert_eq!(counter.stores, 2);
        assert_eq!(counter.blocks, 1);
        assert_eq!(counter.branches, 0);
    }

    /// main: r0 = 0; loop { r0 += 1 } — never returns without preemption.
    fn infinite_loop_program() -> Program {
        let mut p = Program::new();
        let mut f = Function::new("main");
        let r = f.fresh_reg();
        f.blocks[0].insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: r,
            lhs: r.into(),
            rhs: Operand::ImmInt(1),
        });
        f.blocks[0].term = Terminator::Jump(f.entry);
        p.add_function(f);
        p
    }

    #[test]
    fn ambient_deadline_token_preempts_an_infinite_loop() {
        let p = infinite_loop_program();
        let image = ExecImage::new(&p);
        let token = std::sync::Arc::new(crate::cancel::CancelToken::with_deadline(
            std::time::Duration::from_millis(30),
        ));
        let started = std::time::Instant::now();
        let _guard = crate::cancel::install(token);
        let out = execute_image(&image, &mut NullObserver, &ExecConfig::default());
        let elapsed = started.elapsed();
        assert!(!out.completed, "the loop must have been halted");
        assert!(out.dynamic_instructions > 0, "the loop actually ran");
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "preemption must be prompt, took {elapsed:?}"
        );
    }

    #[test]
    fn an_untripped_token_leaves_results_identical() {
        let p = simple_program();
        let baseline = run(&p);
        let token = std::sync::Arc::new(crate::cancel::CancelToken::with_deadline(
            std::time::Duration::from_secs(3600),
        ));
        let _guard = crate::cancel::install(token);
        let out = run(&p);
        assert_eq!(out.completed, baseline.completed);
        assert_eq!(out.return_value, baseline.return_value);
        assert_eq!(out.printed, baseline.printed);
        assert_eq!(out.dynamic_instructions, baseline.dynamic_instructions);
    }

    /// main: s=0; for(i=0;i<10;i++) s+=i; return s  — built directly in VISA.
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
    fn loops_and_branch_events() {
        let p = loop_program();
        let mut counter = CountingObserver::default();
        let out = execute(&p, &mut counter, &ExecConfig::default());
        assert_eq!(out.return_value, Some(Value::Int(45)));
        assert_eq!(
            counter.branches, 11,
            "10 taken + 1 not-taken header branches"
        );
        assert_eq!(counter.taken_branches, 10);
    }

    #[test]
    fn instruction_budget_halts_execution() {
        let p = loop_program();
        let out = execute(
            &p,
            &mut NullObserver,
            &ExecConfig {
                max_instructions: 20,
                max_call_depth: 8,
            },
        );
        assert!(!out.completed);
        assert!(out.dynamic_instructions <= 21);
        assert_eq!(out.return_value, None);
    }

    #[test]
    fn function_calls_pass_arguments_and_return_values() {
        // add3(a, b, c) { return a + b + c; }  main { return add3(1, 2, 3); }
        let mut p = Program::new();
        let mut callee = Function::new("add3");
        let (a, b, c) = (callee.fresh_reg(), callee.fresh_reg(), callee.fresh_reg());
        let t = callee.fresh_reg();
        callee.params = vec![a, b, c];
        callee.blocks[0].insts = vec![
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: t,
                lhs: a.into(),
                rhs: b.into(),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: t,
                lhs: t.into(),
                rhs: c.into(),
            },
        ];
        callee.blocks[0].term = Terminator::Return(Some(t.into()));

        let mut main = Function::new("main");
        let r = main.fresh_reg();
        main.blocks[0].insts = vec![Inst::Call {
            func: FuncId(1),
            args: vec![Operand::ImmInt(1), Operand::ImmInt(2), Operand::ImmInt(3)],
            dst: Some(r),
        }];
        main.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(main);
        p.add_function(callee);

        let mut counter = CountingObserver::default();
        let out = execute(&p, &mut counter, &ExecConfig::default());
        assert_eq!(out.return_value, Some(Value::Int(6)));
        assert_eq!(counter.calls, 1);
    }

    #[test]
    fn call_depth_limit_aborts() {
        // f() { return f(); } — infinite recursion must be cut off.
        let mut p = Program::new();
        let mut f = Function::new("f");
        let r = f.fresh_reg();
        f.blocks[0].insts = vec![Inst::Call {
            func: FuncId(0),
            args: vec![],
            dst: Some(r),
        }];
        f.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(f);
        let out = execute(
            &p,
            &mut NullObserver,
            &ExecConfig {
                max_instructions: 1_000_000,
                max_call_depth: 32,
            },
        );
        assert!(!out.completed);
    }

    #[test]
    fn out_of_bounds_accesses_wrap_instead_of_panicking() {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("g", 4));
        let mut f = Function::new("main");
        let r = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmInt(9),
                addr: Address::global(g, 6),
                ty: Ty::Int,
            },
            Inst::Load {
                dst: r,
                addr: Address::global(g, 2),
                ty: Ty::Int,
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(f);
        let out = run(&p);
        assert_eq!(
            out.return_value,
            Some(Value::Int(9)),
            "index 6 wraps to 2 in a 4-element array"
        );
    }

    #[test]
    fn folded_memory_operands_read_memory() {
        let mut p = Program::new();
        let g = p.add_global(Global {
            name: "g".into(),
            elems: 4,
            ty: Ty::Int,
            init: bsg_ir::program::GlobalInit::Values(vec![Value::Int(10), Value::Int(32)]),
        });
        let mut f = Function::new("main");
        let r = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Load {
                dst: r,
                addr: Address::global(g, 0),
                ty: Ty::Int,
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: r,
                lhs: r.into(),
                rhs: Operand::Mem(Address::global(g, 1)),
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(f);
        let mut counter = CountingObserver::default();
        let out = execute(&p, &mut counter, &ExecConfig::default());
        assert_eq!(out.return_value, Some(Value::Int(42)));
        assert_eq!(
            counter.loads, 2,
            "the folded operand still counts as a memory read"
        );
    }

    #[test]
    fn int_bin_matches_eval_bin_for_every_op() {
        let samples = [i64::MIN, -17, -1, 0, 1, 2, 3, 63, 64, 65, 1 << 40, i64::MAX];
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ] {
            for a in samples {
                for b in samples {
                    assert_eq!(
                        Value::Int(int_bin(op, a, b)),
                        eval_bin(op, Ty::Int, Value::Int(a), Value::Int(b)),
                        "op {op:?} a {a} b {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_arith_matches_eval_bin() {
        let samples = [-3.5f64, -0.0, 0.0, 0.25, 1.0, 2.5, 1e100, f64::INFINITY];
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem] {
            for a in samples {
                for b in samples {
                    // Compare bitwise so NaN results (e.g. inf - inf) count
                    // as agreement rather than tripping NaN != NaN.
                    let got = float_arith(op, a, b);
                    let want = match eval_bin(op, Ty::Float, Value::Float(a), Value::Float(b)) {
                        Value::Float(f) => f,
                        v => panic!("float arith produced {v:?}"),
                    };
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "op {op:?} a {a} b {b}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn legacy_and_predecoded_agree_on_outcome() {
        for p in [simple_program(), loop_program()] {
            let new = execute(&p, &mut NullObserver, &ExecConfig::default());
            let old = execute_legacy(&p, &mut NullObserver, &ExecConfig::default());
            assert_eq!(new, old);
        }
    }

    #[test]
    fn dyn_observer_matches_generic_path() {
        let p = loop_program();
        let mut a = CountingObserver::default();
        let mut b = CountingObserver::default();
        let out_a = execute(&p, &mut a, &ExecConfig::default());
        let out_b = execute(&p, &mut b as &mut dyn Observer, &ExecConfig::default());
        assert_eq!(out_a, out_b);
        assert_eq!(a, b);
    }

    #[test]
    fn prebuilt_image_reruns_from_clean_state() {
        let p = simple_program();
        let image = ExecImage::new(&p);
        let first = execute_image(&image, &mut NullObserver, &ExecConfig::default());
        let second = execute_image(&image, &mut NullObserver, &ExecConfig::default());
        assert_eq!(first, second, "global state must reset between runs");
    }

    #[test]
    fn unfused_image_matches_fused_image() {
        let p = loop_program();
        let fused = ExecImage::new(&p);
        let unfused = ExecImage::unfused(&p);
        assert!(fused.num_fused() > 0);
        let a = execute_image(&fused, &mut NullObserver, &ExecConfig::default());
        let b = execute_image(&unfused, &mut NullObserver, &ExecConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn frame_pool_caps_length_and_retained_capacity() {
        let mut pool = FramePool::new();
        // Release far more frames than the cap, each with oversized buffers.
        for _ in 0..MAX_POOLED_FRAMES + 40 {
            let frame = FrameBuf {
                ints: Vec::with_capacity(MAX_RETAINED_CAPACITY * 8),
                floats: Vec::with_capacity(MAX_RETAINED_CAPACITY * 8),
                tagged: Vec::with_capacity(MAX_RETAINED_CAPACITY * 8),
                slots: Vec::with_capacity(MAX_RETAINED_CAPACITY * 8),
                slots_int: Vec::with_capacity(MAX_RETAINED_CAPACITY * 8),
                slots_float: Vec::with_capacity(MAX_RETAINED_CAPACITY * 8),
                nslots: 1,
            };
            pool.release(frame);
        }
        assert_eq!(pool.len(), MAX_POOLED_FRAMES, "pool length is capped");
        for f in &pool.frames {
            assert!(f.ints.capacity() <= MAX_RETAINED_CAPACITY);
            assert!(f.floats.capacity() <= MAX_RETAINED_CAPACITY);
            assert!(f.tagged.capacity() <= MAX_RETAINED_CAPACITY);
            assert!(f.slots.capacity() <= MAX_RETAINED_CAPACITY);
            assert!(f.slots_int.capacity() <= MAX_RETAINED_CAPACITY);
            assert!(f.slots_float.capacity() <= MAX_RETAINED_CAPACITY);
        }
    }

    #[test]
    fn deep_recursion_does_not_pin_oversized_frames() {
        // fib-style recursion with a large frame: after the run the engine is
        // dropped, but the pool behaviour is observable through FramePool
        // directly — acquire after releasing an oversized frame reuses a
        // freshly-shrunk buffer.
        let mut pool = FramePool::new();
        let big = FrameBuf {
            ints: Vec::with_capacity(1 << 20),
            floats: Vec::new(),
            tagged: Vec::new(),
            slots: Vec::new(),
            slots_int: Vec::new(),
            slots_float: Vec::new(),
            nslots: 1,
        };
        pool.release(big);
        let reused = pool.acquire(
            4,
            &FrameLayout {
                nslots: 4,
                has_int: false,
                has_float: false,
                has_tagged: true,
                zero_reg_ints: true,
                zero_reg_tagged: true,
                zero_slots_int: false,
                zero_slots_tagged: true,
            },
        );
        assert!(reused.ints.capacity() <= MAX_RETAINED_CAPACITY);
        assert_eq!(reused.ints.len(), 4);
        assert_eq!(reused.slots.len(), 4);
        assert_eq!(reused.nslots, 4);
        assert!(reused.slots_int.is_empty() && reused.slots_float.is_empty());
    }
}
