//! Pipeline timing models: a dependence-driven out-of-order model (the
//! paper's PTLSim 2-wide configuration, Figure 10) and an in-order EPIC model
//! used for the Itanium 2 machine of Table III / Figure 11.
//!
//! The models are *observers* of a functional execution: they see every
//! dynamic instruction with its memory addresses and every conditional-branch
//! outcome, and charge cycles for issue-width limits, data dependences,
//! cache misses and branch mispredictions.  They are first-order models in
//! the spirit of interval analysis, not cycle-by-cycle simulators — which is
//! all the paper's original-vs-synthetic comparisons require.
//!
//! The production model is the batched one in [`crate::batch`]:
//! [`simulate_image`] is a one-config batch.  This module defines the
//! configuration and result types, the per-class latencies both models
//! share, and [`PipelineSim`], the scalar model kept only as the batched
//! model's independent test oracle.

use crate::branch::{BranchStats, Hybrid, Predictor};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::exec::{InstEvent, InstSite, Observer};
use crate::image::ExecImage;
use bsg_ir::types::Reg;
use bsg_ir::visa::InstClass;
use bsg_ir::Program;
use serde::{Deserialize, Serialize};

/// Configuration of a pipeline timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Issue width (instructions dispatched per cycle).
    pub width: u32,
    /// `true` for in-order (EPIC) issue, `false` for out-of-order.
    pub in_order: bool,
    /// Reorder-buffer size (out-of-order only).
    pub rob_size: usize,
    /// L1 data-cache configuration.
    pub l1: CacheConfig,
    /// Unified L2 configuration.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Memory latency in cycles.
    pub mem_latency: u64,
    /// Cycles lost on a branch misprediction.
    pub mispredict_penalty: u64,
}

impl PipelineConfig {
    /// The paper's detailed-simulation configuration: a 2-wide out-of-order
    /// processor with a configurable L1 data cache (Figure 10 varies 8, 16
    /// and 32 KB) and a 1 MB L2.
    pub fn ptlsim_2wide(l1_kb: u64) -> Self {
        PipelineConfig {
            width: 2,
            in_order: false,
            rob_size: 64,
            l1: CacheConfig::kb(l1_kb),
            l2: CacheConfig::kb(1024),
            l1_latency: 2,
            l2_latency: 12,
            mem_latency: 150,
            mispredict_penalty: 12,
        }
    }

    /// A generic out-of-order configuration used by the Table III machines.
    pub fn out_of_order(
        width: u32,
        rob_size: usize,
        l1_kb: u64,
        l2_kb: u64,
        mispredict_penalty: u64,
    ) -> Self {
        PipelineConfig {
            width,
            in_order: false,
            rob_size,
            l1: CacheConfig::kb(l1_kb),
            l2: CacheConfig::kb(l2_kb),
            l1_latency: 2,
            l2_latency: 12,
            mem_latency: 180,
            mispredict_penalty,
        }
    }

    /// A wide in-order (EPIC) configuration.
    pub fn epic(width: u32, l1_kb: u64, l2_kb: u64) -> Self {
        PipelineConfig {
            width,
            in_order: true,
            rob_size: 1,
            l1: CacheConfig::kb(l1_kb),
            l2: CacheConfig::kb(l2_kb),
            l1_latency: 1,
            l2_latency: 7,
            mem_latency: 160,
            mispredict_penalty: 6,
        }
    }
}

/// Timing result of a simulated execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic instructions timed.
    pub instructions: u64,
    /// Branch-prediction statistics.
    pub branches: BranchStats,
    /// L1 data-cache statistics.
    pub l1: CacheStats,
    /// L2 statistics (accesses are L1 misses).
    pub l2: CacheStats,
}

impl PipelineResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Per-static-instruction register information, predecoded by the
/// [`ExecImage`] so the timing model does one array index per dynamic
/// instruction (no hashing, no allocation).
#[derive(Debug, Clone, Copy)]
struct SiteInfo {
    def: Option<Reg>,
    uses: [Option<Reg>; 3],
}

/// Issue-to-complete latency of an instruction class, excluding the memory
/// hierarchy (loads are charged through the cache model).  One function —
/// not a method — so the scalar and batched models provably share it.
pub(crate) fn base_latency(class: InstClass) -> u64 {
    match class {
        InstClass::IntAlu | InstClass::Branch | InstClass::Other | InstClass::Store => 1,
        InstClass::IntMul => 3,
        InstClass::IntDiv => 20,
        InstClass::FpAdd => 3,
        InstClass::FpMul => 5,
        InstClass::FpDiv => 20,
        InstClass::Call => 2,
        InstClass::Load => 0, // charged through the memory hierarchy
    }
}

/// The scalar pipeline timing model: one config, one [`Observer`].
///
/// This is the **test oracle** for
/// [`BatchedPipelineSim`](crate::batch::BatchedPipelineSim), written as the
/// straight-line per-config step the batched model vectorizes.  The parity
/// suites and `interp_bench` compare against it; no production path runs
/// it.
pub struct PipelineSim {
    config: PipelineConfig,
    /// Indexed by dense site id (the image's site table order).
    info: Vec<SiteInfo>,
    l1: Cache,
    l2: Cache,
    predictor: Hybrid,
    branch_stats: BranchStats,
    reg_ready: Vec<u64>,
    cycle: u64,
    issued_in_cycle: u32,
    /// Completion cycles of in-flight instructions, as a fixed ring buffer of
    /// capacity `rob_size` (`rob_pos` is the oldest entry once full).
    rob: Vec<u64>,
    rob_pos: usize,
    last_complete: u64,
    max_complete: u64,
    instructions: u64,
}

impl PipelineSim {
    /// Creates a timing model from a predecoded image, reusing its site
    /// table for the per-instruction register information.
    pub fn from_image(config: PipelineConfig, image: &ExecImage) -> Self {
        let info = image
            .site_metas()
            .iter()
            .map(|m| SiteInfo {
                def: m.def,
                uses: m.uses,
            })
            .collect();
        PipelineSim {
            config,
            info,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            predictor: Hybrid::default_config(),
            branch_stats: BranchStats::default(),
            reg_ready: vec![0; image.max_regs() as usize],
            cycle: 0,
            issued_in_cycle: 0,
            rob: Vec::new(),
            rob_pos: 0,
            last_complete: 0,
            max_complete: 0,
            instructions: 0,
        }
    }

    fn memory_latency(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            self.config.l1_latency
        } else if self.l2.access(addr) {
            self.config.l2_latency
        } else {
            self.config.mem_latency
        }
    }

    fn ready_cycle(&self, r: Reg) -> u64 {
        self.reg_ready.get(r.0 as usize).copied().unwrap_or(0)
    }

    /// The final timing result.
    pub fn result(&self) -> PipelineResult {
        PipelineResult {
            cycles: self.max_complete.max(self.cycle),
            instructions: self.instructions,
            branches: self.branch_stats,
            l1: self.l1.stats(),
            l2: self.l2.stats(),
        }
    }
}

impl Observer for PipelineSim {
    fn on_inst(&mut self, event: &InstEvent) {
        let info = self.info[event.site_id as usize];
        self.instructions += 1;

        // Issue-width constraint.
        if self.issued_in_cycle >= self.config.width {
            self.cycle += 1;
            self.issued_in_cycle = 0;
        }
        // Reorder-buffer constraint (out-of-order only): the oldest in-flight
        // instruction must have completed before a new one can enter.  Once
        // the ring is full the slot at `rob_pos` is always the oldest entry;
        // it is retired here and overwritten by this instruction below.
        // `rob_size == 0` behaves like 1 (the pre-ring `VecDeque` popped from
        // empty harmlessly, which amounted to a one-entry buffer).
        let rob_full = !self.config.in_order && self.rob.len() >= self.config.rob_size.max(1);
        if rob_full {
            let oldest = self.rob[self.rob_pos];
            if oldest > self.cycle {
                self.cycle = oldest;
                self.issued_in_cycle = 0;
            }
        }

        let mut src_ready = 0;
        for r in info.uses.iter().flatten() {
            src_ready = src_ready.max(self.ready_cycle(*r));
        }

        let issue = if self.config.in_order {
            // In-order issue stalls the whole pipeline until operands are ready.
            if src_ready > self.cycle {
                self.cycle = src_ready;
                self.issued_in_cycle = 0;
            }
            self.cycle
        } else {
            self.cycle.max(src_ready)
        };

        let mut latency = base_latency(event.class);
        if let Some(a) = event.mem_read {
            latency += self.memory_latency(a);
        }
        if let Some(a) = event.mem_write {
            // Stores retire through a write buffer; they still access the cache.
            self.memory_latency(a);
        }

        let complete = issue + latency.max(1);
        if let Some(d) = info.def {
            if let Some(slot) = self.reg_ready.get_mut(d.0 as usize) {
                *slot = complete;
            }
        }
        if !self.config.in_order {
            if rob_full {
                self.rob[self.rob_pos] = complete;
                self.rob_pos += 1;
                if self.rob_pos >= self.rob.len() {
                    self.rob_pos = 0;
                }
            } else {
                self.rob.push(complete);
            }
        }
        self.issued_in_cycle += 1;
        self.last_complete = complete;
        self.max_complete = self.max_complete.max(complete);
    }

    fn on_branch(&mut self, _site: InstSite, site_id: u32, taken: bool) {
        self.branch_stats.branches += 1;
        if self.predictor.predict_and_update(site_id, taken) {
            self.branch_stats.correct += 1;
        } else {
            // Redirect: the front end restarts after the branch resolves.
            self.cycle = self.cycle.max(self.last_complete) + self.config.mispredict_penalty;
            self.issued_in_cycle = 0;
        }
    }
}

/// Runs a program through the functional executor under this timing model and
/// returns the timing result.
pub fn simulate(program: &Program, config: PipelineConfig) -> PipelineResult {
    simulate_image(&ExecImage::new(program), config)
}

/// [`simulate`] over a prebuilt image (amortizes predecode across sweeps):
/// the one-config case of
/// [`simulate_image_batch`](crate::batch::simulate_image_batch).
pub fn simulate_image(image: &ExecImage, config: PipelineConfig) -> PipelineResult {
    crate::batch::simulate_image_batch(image, &[config]).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::program::{Function, Global, Program};
    use bsg_ir::types::{GlobalId, Ty};
    use bsg_ir::visa::{Address, BinOp, Inst, Operand, Terminator};

    /// A loop striding through memory with a dependent add chain.
    fn strided_loop(elems: i64, stride: i64, iters: i64) -> Program {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("data", elems as usize));
        let mut f = Function::new("main");
        let i = f.fresh_reg();
        let idx = f.fresh_reg();
        let v = f.fresh_reg();
        let acc = f.fresh_reg();
        let c = f.fresh_reg();
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: i,
                src: Operand::ImmInt(0),
            },
            Inst::Mov {
                dst: acc,
                src: Operand::ImmInt(0),
            },
        ];
        f.blocks[0].term = Terminator::Jump(header);
        f.blocks[header.index()].insts = vec![Inst::Bin {
            op: BinOp::Lt,
            ty: Ty::Int,
            dst: c,
            lhs: i.into(),
            rhs: Operand::ImmInt(iters),
        }];
        f.blocks[header.index()].term = Terminator::Branch {
            cond: c,
            taken: body,
            not_taken: exit,
        };
        f.blocks[body.index()].insts = vec![
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::Int,
                dst: idx,
                lhs: i.into(),
                rhs: Operand::ImmInt(stride),
            },
            Inst::Load {
                dst: v,
                addr: Address::global_indexed(g, 0, idx, 1),
                ty: Ty::Int,
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: acc,
                lhs: acc.into(),
                rhs: v.into(),
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
        f.blocks[exit.index()].term = Terminator::Return(Some(acc.into()));
        p.add_function(f);
        p
    }

    #[test]
    fn cpi_is_at_least_the_width_bound() {
        let p = strided_loop(1024, 0, 2000);
        let r = simulate(&p, PipelineConfig::ptlsim_2wide(16));
        assert!(r.instructions > 10_000);
        assert!(
            r.cpi() >= 0.5,
            "a 2-wide machine cannot beat 0.5 CPI, got {}",
            r.cpi()
        );
        assert!(
            r.cpi() < 5.0,
            "zero-stride loop should not thrash, got {}",
            r.cpi()
        );
    }

    #[test]
    fn cache_thrashing_raises_cpi() {
        // Stride of 64 words = 256 bytes over a large array defeats an 8KB L1.
        let friendly = simulate(
            &strided_loop(1 << 16, 0, 3000),
            PipelineConfig::ptlsim_2wide(8),
        );
        let thrash = simulate(
            &strided_loop(1 << 16, 64, 3000),
            PipelineConfig::ptlsim_2wide(8),
        );
        assert!(
            thrash.cpi() > friendly.cpi() * 1.5,
            "thrashing {} vs friendly {}",
            thrash.cpi(),
            friendly.cpi()
        );
        assert!(thrash.l1.hit_rate() < friendly.l1.hit_rate());
    }

    #[test]
    fn bigger_l1_improves_cpi_for_moderate_working_sets() {
        // 16KB working set: fits in 32KB, not in 8KB.
        let p = strided_loop(4096, 1, 40_000);
        let small = simulate(&p, PipelineConfig::ptlsim_2wide(8));
        let large = simulate(&p, PipelineConfig::ptlsim_2wide(32));
        assert!(
            large.cpi() <= small.cpi(),
            "32KB {} vs 8KB {}",
            large.cpi(),
            small.cpi()
        );
        assert!(large.l1.hit_rate() >= small.l1.hit_rate());
    }

    #[test]
    fn in_order_is_slower_than_out_of_order_on_dependent_loads() {
        let p = strided_loop(1 << 14, 9, 20_000);
        let ooo = simulate(&p, PipelineConfig::out_of_order(6, 128, 16, 256, 6));
        let epic = simulate(&p, PipelineConfig::epic(6, 16, 256));
        assert!(
            epic.cycles > ooo.cycles,
            "in-order {} cycles vs out-of-order {} cycles",
            epic.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn branch_heavy_code_sees_mispredictions_in_the_result() {
        let p = strided_loop(512, 1, 5000);
        let r = simulate(&p, PipelineConfig::ptlsim_2wide(16));
        assert!(r.branches.branches >= 5000);
        assert!(
            r.branches.accuracy() > 0.9,
            "a counted loop is highly predictable"
        );
        let _ = GlobalId(0);
    }

    #[test]
    fn zero_sized_rob_does_not_panic() {
        let p = strided_loop(1024, 1, 200);
        let r = simulate(&p, PipelineConfig::out_of_order(2, 0, 8, 256, 10));
        assert!(r.cycles > 0);
        assert!(r.instructions > 0);
    }

    #[test]
    fn result_arithmetic() {
        let r = PipelineResult {
            cycles: 100,
            instructions: 50,
            branches: BranchStats::default(),
            l1: CacheStats::default(),
            l2: CacheStats::default(),
        };
        assert!((r.cpi() - 2.0).abs() < 1e-12);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
    }
}
