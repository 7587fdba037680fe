//! Batched multi-config pipeline simulation: one functional execution
//! drives the timing models of **all** machine configurations at once.
//! This is the production timing model; a single config is a one-lane
//! batch ([`crate::pipeline::simulate_image`]).
//!
//! The paper's timing experiments replay one dynamic instruction stream
//! under several machine configurations: Figure 10 varies the L1 size,
//! Figure 11 the Table III machine.  The instruction stream does not depend
//! on the machine config, so [`BatchedPipelineSim`] is an ordinary
//! [`Observer`] (it drops into the monomorphized dispatch loop without
//! touching `exec.rs`) that fans each retired instruction into
//! structure-of-arrays per-lane state, one lane per *unique*
//! [`PipelineConfig`].
//!
//! # Lane layout and sharing
//!
//! Per-config scalars of [`PipelineSim`](crate::pipeline::PipelineSim)
//! become per-lane arrays (`cycle`, `issued_in_cycle`, `last_complete`,
//! `max_complete`, ring-buffer ROBs packed into one flat vector with
//! per-lane offsets).  `reg_ready` becomes a flat `reg × nlanes` array so
//! the per-lane inner loop over one register's slots walks adjacent memory.
//! Three layers of state are *shared* rather than replicated, each justified
//! by a bit-parity argument (and proven against the scalar oracle by the
//! differential suite):
//!
//! * **Branch predictor and branch stats** — the scalar model always builds
//!   [`Hybrid::default_config()`] regardless of the pipeline config, and
//!   predictor evolution depends only on the `(site_id, taken)` stream,
//!   which is identical across lanes.  One predictor serves every lane; a
//!   misprediction redirects each lane with its own penalty.
//! * **Cache state** — cache contents depend only on the config and the
//!   address stream.  Lanes with the same L1 config share one L1 (its hit
//!   stream is identical); lanes with the same *(L1, L2)* pair share one L2
//!   (the L2's access stream is the L1's miss stream, so sharing requires
//!   the upstream L1 to match too).  The L2s are stored grouped by their
//!   L1, so one access walks each L1 and then only the L2s behind it.  Each
//!   unique cache is accessed exactly once per memory operation — Table
//!   III's five machines touch two L1s and four L2s instead of five of each.
//! * **The instruction counter** — every lane times the same stream.
//!
//! Identical full configs collapse into one lane outright (Table III's two
//! Pentium 4 systems differ only in clock, which is applied *outside* the
//! cycle-level model), so the result for each input config is read from its
//! lane; simulation is deterministic, so the copy is exact.

use crate::branch::{BranchStats, Hybrid, Predictor};
use crate::cache::{Cache, CacheConfig};
use crate::exec::{execute_image, ExecConfig, InstEvent, InstSite, Observer};
use crate::image::ExecImage;
use crate::pipeline::{base_latency, PipelineConfig, PipelineResult, SiteInfo};

/// Read-only per-lane configuration, denormalized out of [`PipelineConfig`]
/// so the per-instruction loop reads one small `Copy` record per lane.
#[derive(Debug, Clone, Copy)]
struct LaneCfg {
    width: u32,
    in_order: bool,
    /// Ring capacity (`rob_size.max(1)`, matching the scalar model's guard).
    rob_cap: usize,
    /// This lane's ring's offset into the flat `rob` vector.
    rob_off: usize,
    l1_latency: u64,
    l2_latency: u64,
    mem_latency: u64,
    mispredict_penalty: u64,
    /// Index of the shared L1 this lane reads.
    l1: usize,
    /// Index of the shared L2 this lane reads.
    l2: usize,
}

/// Memory level that served one access, per unique L2.
const LEVEL_L1: u8 = 0;
const LEVEL_L2: u8 = 1;
const LEVEL_MEM: u8 = 2;

/// The batched multi-config timing model; an [`Observer`] like the scalar
/// oracle [`PipelineSim`](crate::pipeline::PipelineSim), but timing every
/// config in one pass.  See the module docs for the lane layout.
pub struct BatchedPipelineSim {
    /// Maps each *input* config index to its unique lane.
    lane_of: Vec<usize>,
    lanes: Vec<LaneCfg>,
    /// Indexed by dense site id (the image's site table order), shared by
    /// every lane.
    info: Vec<SiteInfo>,
    /// Unique L1s (see module docs for the sharing rule).
    l1s: Vec<Cache>,
    /// Unique L2s, grouped by the L1 whose miss stream feeds them: the first
    /// `l2s_per_l1[0]` belong to L1 0, the next `l2s_per_l1[1]` to L1 1, ...
    l2s: Vec<Cache>,
    l2s_per_l1: Vec<usize>,
    /// Scratch: per-unique-L2 memory level of the last classified access
    /// (the lane loop reads it only right after classifying a read).
    mem_level: Vec<u8>,
    predictor: Hybrid,
    branch_stats: BranchStats,
    /// Ready cycles, `reg * nlanes + lane` (SoA: one register's lanes are
    /// adjacent).
    reg_ready: Vec<u64>,
    nregs: usize,
    cycle: Vec<u64>,
    issued_in_cycle: Vec<u32>,
    /// All lanes' completion rings, packed back to back (`LaneCfg::rob_off`).
    rob: Vec<u64>,
    rob_pos: Vec<usize>,
    rob_len: Vec<usize>,
    last_complete: Vec<u64>,
    max_complete: Vec<u64>,
    instructions: u64,
}

impl BatchedPipelineSim {
    /// Builds the batched model over `configs` for `image`, deduplicating
    /// identical configs, L1s and (L1, L2) pairs into shared lanes/caches.
    pub fn from_image(configs: &[PipelineConfig], image: &ExecImage) -> Self {
        let mut unique: Vec<PipelineConfig> = Vec::new();
        let lane_of: Vec<usize> = configs
            .iter()
            .map(|c| {
                unique.iter().position(|u| u == c).unwrap_or_else(|| {
                    unique.push(*c);
                    unique.len() - 1
                })
            })
            .collect();
        let nlanes = unique.len();

        // Unique L1s, then each L1's unique L2s, stored contiguously.
        let mut l1_cfgs: Vec<CacheConfig> = Vec::new();
        for c in &unique {
            if !l1_cfgs.contains(&c.l1) {
                l1_cfgs.push(c.l1);
            }
        }
        let mut l2_keys: Vec<(CacheConfig, CacheConfig)> = Vec::new();
        let mut l2s_per_l1 = Vec::with_capacity(l1_cfgs.len());
        for l1 in &l1_cfgs {
            let group_start = l2_keys.len();
            for c in unique.iter().filter(|c| c.l1 == *l1) {
                if !l2_keys[group_start..].contains(&(c.l1, c.l2)) {
                    l2_keys.push((c.l1, c.l2));
                }
            }
            l2s_per_l1.push(l2_keys.len() - group_start);
        }

        let mut lanes: Vec<LaneCfg> = Vec::with_capacity(nlanes);
        let mut rob_off = 0usize;
        for c in &unique {
            let l1 = l1_cfgs.iter().position(|x| *x == c.l1).expect("L1 listed");
            let l2 = l2_keys
                .iter()
                .position(|x| *x == (c.l1, c.l2))
                .expect("L2 listed");
            let rob_cap = c.rob_size.max(1);
            lanes.push(LaneCfg {
                width: c.width,
                in_order: c.in_order,
                rob_cap,
                rob_off,
                l1_latency: c.l1_latency,
                l2_latency: c.l2_latency,
                mem_latency: c.mem_latency,
                mispredict_penalty: c.mispredict_penalty,
                l1,
                l2,
            });
            rob_off += rob_cap;
        }

        let info = image
            .site_metas()
            .iter()
            .map(|m| SiteInfo {
                def: m.def,
                uses: m.uses,
            })
            .collect();
        let nregs = image.max_regs() as usize;
        BatchedPipelineSim {
            lane_of,
            info,
            l1s: l1_cfgs.iter().map(|c| Cache::new(*c)).collect(),
            l2s: l2_keys.iter().map(|(_, c)| Cache::new(*c)).collect(),
            l2s_per_l1,
            mem_level: vec![LEVEL_L1; l2_keys.len()],
            predictor: Hybrid::default_config(),
            branch_stats: BranchStats::default(),
            reg_ready: vec![0; nregs * nlanes],
            nregs,
            cycle: vec![0; nlanes],
            issued_in_cycle: vec![0; nlanes],
            rob: vec![0; rob_off],
            rob_pos: vec![0; nlanes],
            rob_len: vec![0; nlanes],
            last_complete: vec![0; nlanes],
            max_complete: vec![0; nlanes],
            instructions: 0,
            lanes,
        }
    }

    /// Runs one address through every unique cache — each L1, then the L2s
    /// its misses feed — and records the level that served it per L2 in
    /// `mem_level`.
    fn classify(&mut self, addr: u64) {
        let mut l2s = self.l2s.iter_mut().zip(self.mem_level.iter_mut());
        for (l1, &n) in self.l1s.iter_mut().zip(&self.l2s_per_l1) {
            let l1_hit = l1.access(addr);
            for (l2, level) in l2s.by_ref().take(n) {
                *level = if l1_hit {
                    LEVEL_L1
                } else if l2.access(addr) {
                    LEVEL_L2
                } else {
                    LEVEL_MEM
                };
            }
        }
    }

    /// Per-input-config timing results, in the order the configs were given
    /// (lane-deduplicated configs read the same lane).
    pub fn results(&self) -> Vec<PipelineResult> {
        self.lane_of
            .iter()
            .map(|&lane| PipelineResult {
                cycles: self.max_complete[lane].max(self.cycle[lane]),
                instructions: self.instructions,
                branches: self.branch_stats,
                l1: self.l1s[self.lanes[lane].l1].stats(),
                l2: self.l2s[self.lanes[lane].l2].stats(),
            })
            .collect()
    }
}

impl Observer for BatchedPipelineSim {
    fn on_inst(&mut self, event: &InstEvent) {
        let info = self.info[event.site_id as usize];
        self.instructions += 1;
        let base = base_latency(event.class);
        let has_read = event.mem_read.is_some();
        if let Some(a) = event.mem_read {
            self.classify(a);
        }
        let nlanes = self.lanes.len();
        // Zipped iterators over the SoA columns keep the per-instruction
        // inner loop free of per-lane bounds checks.
        let lane_iter = self
            .lanes
            .iter()
            .zip(self.cycle.iter_mut())
            .zip(self.issued_in_cycle.iter_mut())
            .zip(self.rob_pos.iter_mut())
            .zip(self.rob_len.iter_mut())
            .zip(self.last_complete.iter_mut())
            .zip(self.max_complete.iter_mut())
            .enumerate();
        for (lane, ((((((cfg, cycle_slot), issued_slot), rob_pos), rob_len), last), max)) in
            lane_iter
        {
            let mut cycle = *cycle_slot;
            let mut issued = *issued_slot;
            // Issue-width constraint.
            if issued >= cfg.width {
                cycle += 1;
                issued = 0;
            }
            // Reorder-buffer constraint (out-of-order only); ring semantics
            // identical to the scalar model's.
            let rob_full = !cfg.in_order && *rob_len >= cfg.rob_cap;
            if rob_full {
                let oldest = self.rob[cfg.rob_off + *rob_pos];
                if oldest > cycle {
                    cycle = oldest;
                    issued = 0;
                }
            }
            let mut src_ready = 0;
            for r in info.uses.iter().flatten() {
                let i = r.0 as usize;
                if i < self.nregs {
                    src_ready = src_ready.max(self.reg_ready[i * nlanes + lane]);
                }
            }
            let issue = if cfg.in_order {
                // In-order issue stalls the whole pipeline until operands
                // are ready.
                if src_ready > cycle {
                    cycle = src_ready;
                    issued = 0;
                }
                cycle
            } else {
                cycle.max(src_ready)
            };
            let mut latency = base;
            if has_read {
                latency += match self.mem_level[cfg.l2] {
                    LEVEL_L1 => cfg.l1_latency,
                    LEVEL_L2 => cfg.l2_latency,
                    _ => cfg.mem_latency,
                };
            }
            let complete = issue + latency.max(1);
            if let Some(d) = info.def {
                let i = d.0 as usize;
                if i < self.nregs {
                    self.reg_ready[i * nlanes + lane] = complete;
                }
            }
            if !cfg.in_order {
                if rob_full {
                    self.rob[cfg.rob_off + *rob_pos] = complete;
                    *rob_pos += 1;
                    if *rob_pos >= cfg.rob_cap {
                        *rob_pos = 0;
                    }
                } else {
                    self.rob[cfg.rob_off + *rob_len] = complete;
                    *rob_len += 1;
                }
            }
            *cycle_slot = cycle;
            *issued_slot = issued + 1;
            *last = complete;
            *max = (*max).max(complete);
        }
        if let Some(a) = event.mem_write {
            // Stores retire through a write buffer: they update cache state
            // and stats but charge no latency, so the access can follow the
            // lane loop (after this instruction's read, as in the oracle).
            self.classify(a);
        }
    }

    fn on_branch(&mut self, _site: InstSite, site_id: u32, taken: bool) {
        self.branch_stats.branches += 1;
        if self.predictor.predict_and_update(site_id, taken) {
            self.branch_stats.correct += 1;
        } else {
            // Redirect every lane: the outcome is shared (see module docs),
            // the penalty is per lane.
            for lane in 0..self.lanes.len() {
                self.cycle[lane] = self.cycle[lane].max(self.last_complete[lane])
                    + self.lanes[lane].mispredict_penalty;
                self.issued_in_cycle[lane] = 0;
            }
        }
    }
}

/// Times `image` under every config with one functional execution: one
/// [`PipelineResult`] per config, in order, each bit-identical to the
/// scalar oracle's (differential-suite proven).  Runs the image it is
/// given, fused or not; the results are identical either way.
pub fn simulate_image_batch(image: &ExecImage, configs: &[PipelineConfig]) -> Vec<PipelineResult> {
    if configs.is_empty() {
        return Vec::new();
    }
    let mut sim = BatchedPipelineSim::from_image(configs, image);
    execute_image(image, &mut sim, &ExecConfig::default());
    sim.results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::pipeline::PipelineSim;
    use bsg_ir::program::{Function, Global, Program};
    use bsg_ir::types::Ty;
    use bsg_ir::visa::{Address, BinOp, Inst, Operand, Terminator};

    fn mixed_loop(iters: i64, stride: i64) -> Program {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("data", 1 << 14));
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
            Inst::Store {
                src: v.into(),
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

    /// The scalar oracle's result for one config.
    fn oracle(image: &ExecImage, config: PipelineConfig) -> PipelineResult {
        let mut sim = PipelineSim::from_image(config, image);
        execute_image(image, &mut sim, &ExecConfig::default());
        sim.result()
    }

    #[test]
    fn batched_lanes_equal_the_oracle_on_table3_and_fig10() {
        let image = ExecImage::new(&mixed_loop(4000, 7));
        let configs: Vec<PipelineConfig> = MachineConfig::table3()
            .iter()
            .map(|m| m.pipeline)
            .chain([8, 16, 32].map(PipelineConfig::ptlsim_2wide))
            .collect();
        let batched = simulate_image_batch(&image, &configs);
        for (c, b) in configs.iter().zip(&batched) {
            assert_eq!(*b, oracle(&image, *c), "lane diverged for {c:?}");
            assert_eq!(
                crate::pipeline::simulate_image(&image, *c),
                *b,
                "one-lane batch diverged for {c:?}"
            );
        }
    }

    #[test]
    fn duplicate_configs_share_a_lane_and_report_identical_results() {
        let image = ExecImage::new(&mixed_loop(500, 3));
        let cfg = PipelineConfig::ptlsim_2wide(16);
        let r = simulate_image_batch(&image, &[cfg, cfg, cfg]);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], r[1]);
        assert_eq!(r[1], r[2]);
        assert_eq!(r[0], oracle(&image, cfg));
    }

    #[test]
    fn empty_config_list_yields_no_results() {
        let image = ExecImage::new(&mixed_loop(10, 1));
        assert!(simulate_image_batch(&image, &[]).is_empty());
    }

    #[test]
    fn run_batch_matches_the_oracle_per_machine() {
        let image = ExecImage::new(&mixed_loop(2000, 5));
        let machines = MachineConfig::table3_extended();
        let batched = MachineConfig::run_batch(&machines, &image);
        assert_eq!(batched.len(), machines.len());
        for (m, b) in machines.iter().zip(&batched) {
            let timing = oracle(&image, m.pipeline);
            assert_eq!(b.timing, timing, "machine {} diverged", m.name);
            assert_eq!(b.time_ns, timing.cycles as f64 / m.freq_ghz);
            assert_eq!(&m.run_image(&image), b, "machine {} run_image", m.name);
        }
    }
}
