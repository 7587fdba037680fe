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
//! touching `exec.rs`) that times that stream once per *unique*
//! [`PipelineConfig`], each in its own lane.
//!
//! # Chunked, lane-major replay
//!
//! The observer callbacks only record.  Each retired instruction appends
//! one event (its register slots and base latency) to a fixed buffer of a
//! few thousand entries, plus one entry per memory access (address, read or
//! write) to a second buffer; each branch misprediction appends a redirect
//! marker event.  When the buffer fills, and when [`results`] is asked for,
//! the chunk is flushed in two phases:
//!
//! 1. **Caches.**  Each unique L1 runs over the chunk's accesses in program
//!    order (per instruction its read, then its write), listing its misses;
//!    then each L2 behind that L1 runs over those misses in the same order.
//!    The level that served each read is recorded per (event, L2).
//! 2. **Lanes.**  Each lane replays the chunk start to finish with its
//!    state in locals, in a loop monomorphized on in-order issue.  A lane's
//!    register ready times are its own contiguous array.  Register operands
//!    come from a per-site slot table built once per image, in which an
//!    absent or out-of-range register reads a slot that is always zero and
//!    writes a slot that is never read.
//!
//! The result is bit-identical to the scalar oracle
//! [`PipelineSim`](crate::pipeline::PipelineSim), run per config, for three
//! reasons.  Every cache sees exactly the access sequence it would see
//! interleaved with the lanes, because a cache's state depends only on its
//! own accesses and the lanes never touch a cache.  Each lane performs the
//! oracle's arithmetic on the oracle's operands in the oracle's order,
//! event by event.  And a redirect is applied at the same position in the
//! instruction stream as the `on_branch` call that caused it.  Lane state
//! is therefore only complete after a flush: read it through [`results`].
//!
//! [`results`]: BatchedPipelineSim::results
//!
//! # Sharing
//!
//! Three layers of state are *shared* rather than replicated, each justified
//! by a bit-parity argument (and proven against the scalar oracle by the
//! differential suite):
//!
//! * **Branch predictor and branch stats** — the scalar model always builds
//!   [`Hybrid::default_config()`] regardless of the pipeline config, and
//!   predictor evolution depends only on the `(site_id, taken)` stream,
//!   which is identical across lanes.  One predictor serves every lane, run
//!   as the branch is recorded; a misprediction redirects each lane with its
//!   own penalty.
//! * **Cache state** — cache contents depend only on the config and the
//!   address stream.  Lanes with the same L1 config share one L1 (its hit
//!   stream is identical); lanes with the same *(L1, L2)* pair share one L2
//!   (the L2's access stream is the L1's miss stream, so sharing requires
//!   the upstream L1 to match too).  Each unique cache is accessed exactly
//!   once per memory operation — Table III's five machines touch two L1s and
//!   four L2s instead of five of each.
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
use crate::pipeline::{base_latency, PipelineConfig, PipelineResult};

/// Recorded entries (instructions and redirects) per flush.
const CHUNK: usize = 2048;
/// Length of one L2's row of [`BatchedPipelineSim::levels`].
const ROW: usize = CHUNK + 1;

/// A lane register slot that is never written, so reads as zero.
const ZERO_SLOT: u32 = 0;
/// A lane register slot that is never read.
const SINK_SLOT: u32 = 1;

/// Memory level that served a read, per (event, unique L2): `LEVEL_L1`,
/// `LEVEL_L2` or memory (`LEVEL_L2 + 1`), since each miss adds one.  It
/// indexes a lane's latency table, in which `LEVEL_NONE` (no read) costs
/// nothing.
const LEVEL_L1: u8 = 0;
const LEVEL_L2: u8 = 1;
const LEVEL_NONE: u8 = 3;

/// One recorded entry of the stream: a retired instruction, or a branch
/// misprediction's redirect marker.
#[derive(Debug, Clone, Copy, Default)]
struct Event {
    /// The instruction's register slots (see [`BatchedPipelineSim::slots`]),
    /// looked up once here rather than once per lane.
    uses: [u32; 3],
    def: u32,
    base: u8,
    redirect: bool,
}

/// One memory access of a recorded instruction, in program order (an
/// instruction's read precedes its write).
#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u64,
    /// Index of the instruction's [`Event`] in the chunk.
    event: u32,
    is_read: bool,
}

/// Running state of one lane (the scalar model's per-config scalars).
#[derive(Debug, Clone, Copy, Default)]
struct LaneState {
    cycle: u64,
    issued_in_cycle: u32,
    rob_pos: usize,
    rob_len: usize,
    last_complete: u64,
    max_complete: u64,
}

/// One unique config's timing model.
#[derive(Debug, Clone)]
struct Lane {
    config: PipelineConfig,
    /// Index of the shared L1 this lane reads.
    l1: usize,
    /// Index of the shared L2 this lane reads (its row of `levels`).
    l2: usize,
    state: LaneState,
    /// Ready cycle per register slot (see [`BatchedPipelineSim::slots`]),
    /// padded to a power of two.
    reg_ready: Vec<u64>,
    /// Completion ring of capacity `rob_size.max(1)` (matching the scalar
    /// model's guard); empty for in-order lanes.
    rob: Vec<u64>,
}

impl Lane {
    /// Replays one flushed chunk: `levels` is this lane's L2's row.
    fn replay<const IN_ORDER: bool>(&mut self, events: &[Event], levels: &[u8]) {
        let c = &self.config;
        let extra = [c.l1_latency, c.l2_latency, c.mem_latency, 0];
        let reg_ready = &mut self.reg_ready[..];
        // Every slot is below the power-of-two length, so masking changes no
        // index; it only lets the compiler drop the bounds checks.
        let mask = reg_ready.len() - 1;
        let rob = &mut self.rob[..];
        let mut s = self.state;
        for (e, &level) in events.iter().zip(levels) {
            if e.redirect {
                // The front end restarts after the branch resolves.
                s.cycle = s.cycle.max(s.last_complete) + c.mispredict_penalty;
                s.issued_in_cycle = 0;
                continue;
            }
            // The scalar model's branches, as selects: which way each goes
            // depends on the data, so branching would mispredict.
            // Issue-width constraint.
            let full_width = s.issued_in_cycle >= c.width;
            s.cycle += u64::from(full_width);
            s.issued_in_cycle *= u32::from(!full_width);
            // Reorder-buffer constraint (out-of-order only); ring semantics
            // identical to the scalar model's.
            let rob_full = !IN_ORDER && s.rob_len >= rob.len();
            if rob_full {
                let oldest = rob[s.rob_pos];
                s.issued_in_cycle *= u32::from(oldest <= s.cycle);
                s.cycle = s.cycle.max(oldest);
            }
            let [u0, u1, u2] = e.uses.map(|u| u as usize & mask);
            let src_ready = reg_ready[u0].max(reg_ready[u1]).max(reg_ready[u2]);
            let issue = if IN_ORDER {
                // In-order issue stalls the whole pipeline until operands
                // are ready.
                s.issued_in_cycle *= u32::from(src_ready <= s.cycle);
                s.cycle = s.cycle.max(src_ready);
                s.cycle
            } else {
                s.cycle.max(src_ready)
            };
            let latency = u64::from(e.base) + extra[usize::from(level & 3)];
            let complete = issue + latency.max(1);
            reg_ready[e.def as usize & mask] = complete;
            if !IN_ORDER {
                if rob_full {
                    rob[s.rob_pos] = complete;
                    s.rob_pos += 1;
                    if s.rob_pos >= rob.len() {
                        s.rob_pos = 0;
                    }
                } else {
                    rob[s.rob_len] = complete;
                    s.rob_len += 1;
                }
            }
            s.issued_in_cycle += 1;
            s.last_complete = complete;
            s.max_complete = s.max_complete.max(complete);
        }
        self.state = s;
    }
}

/// The batched multi-config timing model; an [`Observer`] like the scalar
/// oracle [`PipelineSim`](crate::pipeline::PipelineSim), but timing every
/// config in one pass.  See the module docs for the chunked replay.
pub struct BatchedPipelineSim {
    /// Maps each *input* config index to its unique lane.
    lane_of: Vec<usize>,
    lanes: Vec<Lane>,
    /// Register slots per dense site id: `[use0, use1, use2, def]`.  Slot
    /// `r + 2` is register `r`; [`ZERO_SLOT`] serves absent or out-of-range
    /// reads and [`SINK_SLOT`] absent or out-of-range defs.
    slots: Vec<[u32; 4]>,
    /// Unique L1s (see module docs for the sharing rule).
    l1s: Vec<Cache>,
    /// Unique L2s, grouped by the L1 whose miss stream feeds them: the first
    /// `l2s_per_l1[0]` belong to L1 0, the next `l2s_per_l1[1]` to L1 1, ...
    l2s: Vec<Cache>,
    l2s_per_l1: Vec<usize>,
    predictor: Hybrid,
    branch_stats: BranchStats,
    instructions: u64,
    /// The pending chunk, at most [`CHUNK`] entries.
    events: Vec<Event>,
    /// The pending chunk's memory accesses.
    accesses: Vec<Access>,
    /// Reused by each flush: the indices in `accesses` of one L1's misses.
    misses: Vec<u32>,
    /// Reused by each flush: per unique L2, a row of `CHUNK` memory levels
    /// (one per event) plus a never-read slot that writes land in.
    levels: Vec<u8>,
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

        let nregs = image.max_regs();
        let slot = |r: Option<bsg_ir::types::Reg>, absent: u32| {
            r.map_or(absent, |r| if r.0 < nregs { r.0 + 2 } else { absent })
        };
        let slots = image
            .site_metas()
            .iter()
            .map(|m| {
                let [a, b, c] = m.uses.map(|r| slot(r, ZERO_SLOT));
                [a, b, c, slot(m.def, SINK_SLOT)]
            })
            .collect();
        let lanes = unique
            .iter()
            .map(|c| Lane {
                config: *c,
                l1: l1_cfgs.iter().position(|x| *x == c.l1).expect("L1 listed"),
                l2: l2_keys
                    .iter()
                    .position(|x| *x == (c.l1, c.l2))
                    .expect("L2 listed"),
                state: LaneState::default(),
                reg_ready: vec![0; (nregs as usize + 2).next_power_of_two()],
                rob: vec![0; if c.in_order { 0 } else { c.rob_size.max(1) }],
            })
            .collect();
        BatchedPipelineSim {
            lane_of,
            lanes,
            slots,
            l1s: l1_cfgs.iter().map(|c| Cache::new(*c)).collect(),
            l2s: l2_keys.iter().map(|(_, c)| Cache::new(*c)).collect(),
            l2s_per_l1,
            predictor: Hybrid::default_config(),
            branch_stats: BranchStats::default(),
            instructions: 0,
            events: Vec::with_capacity(CHUNK),
            accesses: Vec::with_capacity(2 * CHUNK),
            misses: Vec::with_capacity(2 * CHUNK),
            levels: vec![LEVEL_NONE; l2_keys.len() * ROW],
        }
    }

    #[inline(always)]
    fn push(&mut self, event: Event) {
        self.events.push(event);
        if self.events.len() == CHUNK {
            self.flush();
        }
    }

    /// Times the pending chunk on every cache, then on every lane (see the
    /// module docs), and empties it.
    fn flush(&mut self) {
        let events = &self.events[..];
        // A read records its level in its event's slot of a row; a write's
        // level is never read, so it lands in the row's last slot.
        let slot = |a: &Access| if a.is_read { a.event as usize } else { CHUNK };
        let mut first_l2 = 0;
        for (l1, &n) in self.l1s.iter_mut().zip(&self.l2s_per_l1) {
            // The L1 runs first, writing its verdicts into the first row
            // behind it and listing its misses; the other rows behind it
            // start as copies, and each L2 then runs over the misses only.
            let rows = &mut self.levels[first_l2 * ROW..(first_l2 + n) * ROW];
            let (head, rest) = rows.split_at_mut(ROW);
            head.fill(LEVEL_NONE);
            self.misses.clear();
            for (i, a) in self.accesses.iter().enumerate() {
                let hit = l1.access(a.addr);
                if !hit {
                    self.misses.push(i as u32);
                }
                head[slot(a)] = LEVEL_L1 + u8::from(!hit);
            }
            for row in rest.chunks_exact_mut(ROW) {
                row.copy_from_slice(head);
            }
            let l2s = &mut self.l2s[first_l2..first_l2 + n];
            for (l2, row) in l2s.iter_mut().zip(rows.chunks_exact_mut(ROW)) {
                for &i in &self.misses {
                    let a = &self.accesses[i as usize];
                    row[slot(a)] = LEVEL_L2 + u8::from(!l2.access(a.addr));
                }
            }
            first_l2 += n;
        }
        for lane in &mut self.lanes {
            let levels = &self.levels[lane.l2 * ROW..];
            if lane.config.in_order {
                lane.replay::<true>(events, levels);
            } else {
                lane.replay::<false>(events, levels);
            }
        }
        self.events.clear();
        self.accesses.clear();
    }

    /// Per-input-config timing results, in the order the configs were given
    /// (lane-deduplicated configs read the same lane).  Flushes the pending
    /// chunk first, so the observer stays usable afterwards.
    pub fn results(&mut self) -> Vec<PipelineResult> {
        self.flush();
        self.lane_of
            .iter()
            .map(|&lane| {
                let lane = &self.lanes[lane];
                PipelineResult {
                    cycles: lane.state.max_complete.max(lane.state.cycle),
                    instructions: self.instructions,
                    branches: self.branch_stats,
                    l1: self.l1s[lane.l1].stats(),
                    l2: self.l2s[lane.l2].stats(),
                }
            })
            .collect()
    }
}

impl Observer for BatchedPipelineSim {
    // Inlined into every dispatch arm: recording is a few stores, cheaper
    // than the call (and the spills around it) that it would otherwise cost.
    #[inline(always)]
    fn on_inst(&mut self, event: &InstEvent) {
        self.instructions += 1;
        let index = self.events.len() as u32;
        if let Some(addr) = event.mem_read {
            self.accesses.push(Access {
                addr,
                event: index,
                is_read: true,
            });
        }
        if let Some(addr) = event.mem_write {
            self.accesses.push(Access {
                addr,
                event: index,
                is_read: false,
            });
        }
        let [a, b, c, def] = self.slots[event.site_id as usize];
        self.push(Event {
            uses: [a, b, c],
            def,
            base: base_latency(event.class) as u8,
            redirect: false,
        });
    }

    fn on_branch(&mut self, _site: InstSite, site_id: u32, taken: bool) {
        self.branch_stats.branches += 1;
        if self.predictor.predict_and_update(site_id, taken) {
            self.branch_stats.correct += 1;
        } else {
            // The outcome is shared (see module docs); each lane applies its
            // own penalty when it replays the marker.
            self.push(Event {
                redirect: true,
                ..Event::default()
            });
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

    /// A loop of loads and stores whose inner branch follows a
    /// pseudo-random bit, so about half its outcomes mispredict.
    fn noisy_loop(iters: i64) -> Program {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("data", 1 << 12));
        let mut f = Function::new("main");
        let [i, x, bit, idx, v, acc, c] = [(); 7].map(|_| f.fresh_reg());
        let header = f.add_block();
        let body = f.add_block();
        let odd = f.add_block();
        let even = f.add_block();
        let latch = f.add_block();
        let exit = f.add_block();
        let bin = |op, dst, lhs: Operand, rhs: Operand| Inst::Bin {
            op,
            ty: Ty::Int,
            dst,
            lhs,
            rhs,
        };
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: i,
                src: Operand::ImmInt(0),
            },
            Inst::Mov {
                dst: x,
                src: Operand::ImmInt(1),
            },
            Inst::Mov {
                dst: acc,
                src: Operand::ImmInt(0),
            },
        ];
        f.blocks[0].term = Terminator::Jump(header);
        f.blocks[header.index()].insts = vec![bin(BinOp::Lt, c, i.into(), Operand::ImmInt(iters))];
        f.blocks[header.index()].term = Terminator::Branch {
            cond: c,
            taken: body,
            not_taken: exit,
        };
        f.blocks[body.index()].insts = vec![
            bin(BinOp::Mul, x, x.into(), Operand::ImmInt(1_103_515_245)),
            bin(BinOp::Add, x, x.into(), Operand::ImmInt(12_345)),
            bin(BinOp::Shr, bit, x.into(), Operand::ImmInt(16)),
            bin(BinOp::And, bit, bit.into(), Operand::ImmInt(1)),
            bin(BinOp::Shr, idx, x.into(), Operand::ImmInt(8)),
            bin(BinOp::And, idx, idx.into(), Operand::ImmInt(4095)),
            Inst::Load {
                dst: v,
                addr: Address::global_indexed(g, 0, idx, 1),
                ty: Ty::Int,
            },
        ];
        f.blocks[body.index()].term = Terminator::Branch {
            cond: bit,
            taken: odd,
            not_taken: even,
        };
        f.blocks[odd.index()].insts = vec![
            bin(BinOp::Add, acc, acc.into(), v.into()),
            Inst::Store {
                src: x.into(),
                addr: Address::global_indexed(g, 0, idx, 1),
                ty: Ty::Int,
            },
        ];
        f.blocks[odd.index()].term = Terminator::Jump(latch);
        f.blocks[even.index()].insts = vec![bin(BinOp::Sub, acc, acc.into(), v.into())];
        f.blocks[even.index()].term = Terminator::Jump(latch);
        f.blocks[latch.index()].insts = vec![bin(BinOp::Add, i, i.into(), Operand::ImmInt(1))];
        f.blocks[latch.index()].term = Terminator::Jump(header);
        f.blocks[exit.index()].term = Terminator::Return(Some(acc.into()));
        p.add_function(f);
        p
    }

    /// The callbacks a timing model consumes, recorded in order.
    #[derive(Default)]
    struct Recording(Vec<Callback>);

    #[derive(Clone, Copy)]
    enum Callback {
        Inst(InstEvent),
        Branch(InstSite, u32, bool),
    }

    impl Observer for Recording {
        fn on_inst(&mut self, event: &InstEvent) {
            self.0.push(Callback::Inst(*event));
        }
        fn on_branch(&mut self, site: InstSite, site_id: u32, taken: bool) {
            self.0.push(Callback::Branch(site, site_id, taken));
        }
    }

    fn replay(obs: &mut impl Observer, stream: &[Callback]) {
        for cb in stream {
            match *cb {
                Callback::Inst(e) => obs.on_inst(&e),
                Callback::Branch(site, id, taken) => obs.on_branch(site, id, taken),
            }
        }
    }

    /// Table III, the extended roster and Figure 10's sizes: shared and
    /// private caches, in-order and out-of-order lanes, a duplicate lane.
    fn mixed_configs() -> Vec<PipelineConfig> {
        MachineConfig::table3_extended()
            .iter()
            .map(|m| m.pipeline)
            .chain([8, 16, 32].map(PipelineConfig::ptlsim_2wide))
            .collect()
    }

    /// The scalar oracle's result for one config.
    fn oracle(image: &ExecImage, config: PipelineConfig) -> PipelineResult {
        oracle_under(image, config, &ExecConfig::default())
    }

    fn oracle_under(image: &ExecImage, config: PipelineConfig, run: &ExecConfig) -> PipelineResult {
        let mut sim = PipelineSim::from_image(config, image);
        execute_image(image, &mut sim, run);
        sim.result()
    }

    #[test]
    fn every_lane_equals_the_oracle_at_budgets_around_the_chunk_size() {
        let image = ExecImage::new(&noisy_loop(1000));
        let configs = mixed_configs();
        let budgets = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1].map(|b| b as u64);
        for budget in budgets.into_iter().chain([u64::MAX]) {
            let run = ExecConfig {
                max_instructions: budget,
                ..ExecConfig::default()
            };
            let mut sim = BatchedPipelineSim::from_image(&configs, &image);
            execute_image(&image, &mut sim, &run);
            let results = sim.results();
            assert!(results[0].branches.branches > results[0].branches.correct);
            for (c, r) in configs.iter().zip(&results) {
                assert_eq!(*r, oracle_under(&image, *c, &run), "budget {budget}: {c:?}");
            }
            assert_eq!(sim.results(), results, "budget {budget}: second results()");
        }
    }

    #[test]
    fn a_redirect_closing_a_chunk_is_applied_before_the_next_chunk() {
        let image = ExecImage::new(&noisy_loop(300));
        let mut recording = Recording::default();
        execute_image(&image, &mut recording, &ExecConfig::default());
        let stream = recording.0;
        let configs = mixed_configs();

        // Entries recorded before the first misprediction's marker.
        let mut probe = BatchedPipelineSim::from_image(&configs, &image);
        let mut before = None;
        for cb in &stream {
            let entries =
                probe.instructions + probe.branch_stats.branches - probe.branch_stats.correct;
            replay(&mut probe, std::slice::from_ref(cb));
            if probe.branch_stats.branches > probe.branch_stats.correct {
                before = Some(entries as usize);
                break;
            }
        }
        let before = before.expect("the noisy branch mispredicts");
        assert!(before < CHUNK);

        // Pad the stream's front so that marker is the chunk's last entry.
        let Some(Callback::Inst(first)) = stream.first().copied() else {
            panic!("the stream starts with an instruction");
        };
        let mut padded = vec![Callback::Inst(first); CHUNK - 1 - before];
        padded.extend_from_slice(&stream);
        let mut sim = BatchedPipelineSim::from_image(&configs, &image);
        let mut closed_by_redirect = false;
        for cb in &padded {
            let full_but_one = sim.events.len() == CHUNK - 1;
            let redirects = sim.branch_stats.branches - sim.branch_stats.correct;
            replay(&mut sim, std::slice::from_ref(cb));
            if sim.branch_stats.branches - sim.branch_stats.correct > redirects {
                closed_by_redirect |= full_but_one && sim.events.is_empty();
            }
        }
        assert!(closed_by_redirect, "no redirect closed a chunk");
        for (c, r) in configs.iter().zip(sim.results()) {
            let mut scalar = PipelineSim::from_image(*c, &image);
            replay(&mut scalar, &padded);
            assert_eq!(r, scalar.result(), "{c:?}");
        }
    }

    #[test]
    fn batched_lanes_equal_the_oracle_on_table3_and_fig10() {
        let image = ExecImage::new(&noisy_loop(4000));
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
        let image = ExecImage::new(&noisy_loop(500));
        let cfg = PipelineConfig::ptlsim_2wide(16);
        let r = simulate_image_batch(&image, &[cfg, cfg, cfg]);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], r[1]);
        assert_eq!(r[1], r[2]);
        assert_eq!(r[0], oracle(&image, cfg));
    }

    #[test]
    fn empty_config_list_yields_no_results() {
        let image = ExecImage::new(&noisy_loop(10));
        assert!(simulate_image_batch(&image, &[]).is_empty());
    }

    #[test]
    fn run_batch_matches_the_oracle_per_machine() {
        let image = ExecImage::new(&noisy_loop(2000));
        let machines = MachineConfig::table3_extended();
        let configs: Vec<PipelineConfig> = machines.iter().map(|m| m.pipeline).collect();
        let batched = simulate_image_batch(&image, &configs);
        assert_eq!(batched.len(), machines.len());
        for (m, b) in machines.iter().zip(&batched) {
            assert_eq!(
                *b,
                oracle(&image, m.pipeline),
                "machine {} diverged",
                m.name
            );
        }
    }
}
