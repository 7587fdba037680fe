//! Profile collection: runs a compiled workload under the functional executor
//! and gathers the full statistical profile of §III-A of the paper — the
//! SFGL, per-branch taken/transition rates, per-access cache hit/miss classes
//! and the instruction mix — plus the per-block instruction descriptors the
//! pattern recognizer (§III-B.4) consumes.

use crate::sfgl::{NodeKey, Sfgl, SfglLoop};
use bsg_ir::cfg::LoopForest;
use bsg_ir::types::{BlockId, FuncId};
use bsg_ir::visa::{InstClass, MixCategory, OperandKind};
use bsg_ir::Program;
use bsg_uarch::cache::{Cache, CacheConfig};
use bsg_uarch::exec::{
    execute_image, execute_legacy, ExecConfig, ExecOutcome, InstEvent, InstSite, Observer,
};
use bsg_uarch::image::ExecImage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies a static instruction within the profile (serializable version
/// of [`InstSite`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteKey {
    /// Enclosing basic block.
    pub node: NodeKey,
    /// Instruction index within the block (`u32::MAX` for the terminator).
    pub index: u32,
}

impl SiteKey {
    fn from_site(site: InstSite) -> Self {
        SiteKey {
            node: NodeKey::new(site.func, site.block),
            index: if site.index == usize::MAX {
                u32::MAX
            } else {
                site.index as u32
            },
        }
    }
}

/// Dynamic behaviour of one static conditional branch (§III-A.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchProfile {
    /// Times the branch executed.
    pub executed: u64,
    /// Times it was taken.
    pub taken: u64,
    /// Times the outcome differed from the previous outcome.
    pub transitions: u64,
    /// `true` if this branch is a loop back edge (modeled as a `for` loop in
    /// the synthetic benchmark rather than as an `if`).
    pub is_loop_back: bool,
}

impl BranchProfile {
    /// Fraction of executions that were taken.
    pub fn taken_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.taken as f64 / self.executed as f64
        }
    }

    /// The branch transition rate of Haungs et al. — how often the outcome
    /// flips between consecutive executions.
    pub fn transition_rate(&self) -> f64 {
        if self.executed <= 1 {
            0.0
        } else {
            self.transitions as f64 / (self.executed - 1) as f64
        }
    }

    /// The paper classifies branches with a low or high transition rate as
    /// easy to predict and mid-range transition rates as hard.
    pub fn is_easy_to_predict(&self) -> bool {
        let t = self.transition_rate();
        !(0.1..=0.9).contains(&t)
    }
}

/// Dynamic behaviour of one static memory access (§III-A.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryProfile {
    /// Number of accesses.
    pub accesses: u64,
    /// Number of misses in the profiling cache.
    pub misses: u64,
}

impl MemoryProfile {
    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// The Table I miss-rate class (0..=8).
    pub fn miss_class(&self) -> u8 {
        miss_rate_class(self.miss_rate())
    }
}

/// Maps a miss rate to the Table I class (0..=8); class `k` corresponds to a
/// stride of `4k` bytes under a 32-byte line.
pub fn miss_rate_class(miss_rate: f64) -> u8 {
    ((miss_rate.clamp(0.0, 1.0) * 8.0).round() as u8).min(8)
}

/// The stride (in bytes) used to regenerate a given miss-rate class (Table I).
pub fn class_stride_bytes(class: u8) -> u64 {
    4 * class.min(8) as u64
}

/// Dynamic instruction mix.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstructionMix {
    /// Count per fine-grained instruction class.
    pub counts: BTreeMap<InstClass, u64>,
}

impl InstructionMix {
    /// Records one instruction.
    pub fn record(&mut self, class: InstClass) {
        *self.counts.entry(class).or_insert(0) += 1;
    }

    /// Total instructions recorded.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Fraction of instructions in a fine class.
    pub fn fraction(&self, class: InstClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts.get(&class).copied().unwrap_or(0) as f64 / total as f64
        }
    }

    /// Fraction per coarse category (loads / stores / branches / others), as
    /// reported in Figure 6 of the paper.
    pub fn category_fractions(&self) -> BTreeMap<MixCategory, f64> {
        let total = self.total().max(1) as f64;
        let mut out: BTreeMap<MixCategory, f64> =
            MixCategory::ALL.iter().map(|c| (*c, 0.0)).collect();
        for (class, count) in &self.counts {
            *out.entry(class.mix_category()).or_insert(0.0) += *count as f64 / total;
        }
        out
    }

    /// Fraction of floating-point instructions.
    pub fn fp_fraction(&self) -> f64 {
        InstClass::ALL
            .iter()
            .filter(|c| c.is_float())
            .map(|c| self.fraction(*c))
            .sum()
    }

    /// Merges another mix into this one.
    pub fn merge(&mut self, other: &InstructionMix) {
        for (c, n) in &other.counts {
            *self.counts.entry(*c).or_insert(0) += n;
        }
    }
}

/// A lightweight observer that only collects the instruction mix (used by the
/// Figure 6 experiment, which measures the mix of already-compiled programs).
/// Counts land in a flat per-class array; [`MixObserver::mix`] converts to an
/// [`InstructionMix`] once the run is over.
#[derive(Debug, Default, Clone)]
pub struct MixObserver {
    counts: [u64; InstClass::ALL.len()],
}

impl MixObserver {
    /// The accumulated mix.
    pub fn mix(&self) -> InstructionMix {
        let mut mix = InstructionMix::default();
        for (class, count) in InstClass::ALL.iter().zip(self.counts) {
            if count > 0 {
                mix.counts.insert(*class, count);
            }
        }
        mix
    }
}

impl Observer for MixObserver {
    fn on_inst(&mut self, event: &InstEvent) {
        // A CISC instruction with a folded memory operand performs a load even
        // though its opcode class is arithmetic; count it as a load, matching
        // how a binary-level profiler would classify the micro-operation mix.
        let class = if event.mem_read.is_some() && event.class != InstClass::Load {
            InstClass::Load
        } else {
            event.class
        };
        self.counts[class.index()] += 1;
    }
}

/// A static instruction descriptor recorded per basic block and consumed by
/// the pattern recognizer when populating synthetic basic blocks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstDescriptor {
    /// Instruction class.
    pub class: InstClass,
    /// Source operand kinds (constant / register / memory).
    pub operands: Vec<OperandKind>,
    /// `true` for floating-point instructions.
    pub is_float: bool,
}

/// The complete statistical profile of one workload (the "statistical
/// profile" box of Figure 1 in the paper).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatisticalProfile {
    /// Name of the profiled workload.
    pub name: String,
    /// Statistical flow graph with loop annotation.
    pub sfgl: Sfgl,
    /// Per-branch behaviour.
    pub branches: BTreeMap<SiteKey, BranchProfile>,
    /// Per-memory-access behaviour.
    pub memory: BTreeMap<SiteKey, MemoryProfile>,
    /// Dynamic instruction mix.
    pub mix: InstructionMix,
    /// Static instruction descriptors per basic block.
    pub block_code: BTreeMap<NodeKey, Vec<InstDescriptor>>,
    /// Dynamic instruction count of the profiled run.
    pub dynamic_instructions: u64,
}

impl StatisticalProfile {
    /// Miss-rate classes of the memory accesses in `node`, ordered by their
    /// position in the block.
    pub fn memory_classes_for_block(&self, node: NodeKey) -> Vec<(u32, u8)> {
        self.memory
            .iter()
            .filter(|(k, _)| k.node == node)
            .map(|(k, m)| (k.index, m.miss_class()))
            .collect()
    }

    /// The branch profile of a block's terminator, if it is a conditional branch.
    pub fn terminator_branch(&self, node: NodeKey) -> Option<&BranchProfile> {
        self.branches.get(&SiteKey {
            node,
            index: u32::MAX,
        })
    }

    /// Merges another profile into this one (benchmark consolidation).  Node
    /// keys from `other` are shifted by `func_offset` so the two programs'
    /// functions never collide.
    pub fn merge_with_offset(&mut self, other: &StatisticalProfile, func_offset: u32) {
        let shift_node = |n: NodeKey| NodeKey {
            func: n.func + func_offset,
            block: n.block,
        };
        let shift_site = |s: SiteKey| SiteKey {
            node: shift_node(s.node),
            index: s.index,
        };

        let mut shifted = other.clone();
        shifted.sfgl.nodes = other
            .sfgl
            .nodes
            .iter()
            .map(|(k, v)| (shift_node(*k), *v))
            .collect();
        shifted.sfgl.edges = other
            .sfgl
            .edges
            .iter()
            .map(|((a, b), v)| ((shift_node(*a), shift_node(*b)), *v))
            .collect();
        shifted.sfgl.calls = other
            .sfgl
            .calls
            .iter()
            .map(|(f, c)| (f + func_offset, *c))
            .collect();
        for l in &mut shifted.sfgl.loops {
            l.header = shift_node(l.header);
            l.blocks = l.blocks.iter().map(|b| shift_node(*b)).collect();
        }
        self.sfgl.merge(&shifted.sfgl);

        for (k, v) in &other.branches {
            self.branches.insert(shift_site(*k), *v);
        }
        for (k, v) in &other.memory {
            self.memory.insert(shift_site(*k), *v);
        }
        for (k, v) in &other.block_code {
            self.block_code.insert(shift_node(*k), v.clone());
        }
        self.mix.merge(&other.mix);
        self.dynamic_instructions += other.dynamic_instructions;
        self.name = format!("{}+{}", self.name, other.name);
    }

    /// Largest function index mentioned in the profile plus one (used when
    /// consolidating profiles to compute the next offset).
    pub fn function_span(&self) -> u32 {
        self.sfgl
            .nodes
            .keys()
            .map(|k| k.func + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Configuration of the profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileConfig {
    /// The cache simulated while profiling to classify memory accesses
    /// (the paper simulates caches with Pin during profiling).
    pub reference_cache: CacheConfig,
    /// Dynamic-instruction budget for the profiling run.
    pub max_instructions: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            reference_cache: CacheConfig::kb(8),
            max_instructions: u64::MAX,
        }
    }
}

/// Profiles a compiled workload: executes it on the predecoded engine and
/// returns its statistical profile.
pub fn profile_program(
    program: &Program,
    name: &str,
    config: &ProfileConfig,
) -> StatisticalProfile {
    profile_image(program, &ExecImage::unfused(program), name, config)
}

/// [`profile_program`] over a prebuilt [`ExecImage`] of `program`, fused or
/// not (the artifact store hands over its fused image).
///
/// The collector runs on an unfused image: inlined into the dispatch loop,
/// the fused superinstruction arms cost it more in i-cache pressure than
/// they save in dispatch (PERF.md §PR-14 measures the difference; it
/// dwarfs the cost of a decode).  So a fused `image` is profiled through a
/// fresh [`ExecImage::unfused`] decode of `program`.  Profiles are
/// bit-identical either way.
pub fn profile_image(
    program: &Program,
    image: &ExecImage,
    name: &str,
    config: &ProfileConfig,
) -> StatisticalProfile {
    if image.num_fused() > 0 {
        return profile_image(program, &ExecImage::unfused(program), name, config);
    }
    let mut collector = Collector::new(program, image, config);
    let outcome = execute_image(
        image,
        &mut collector,
        &ExecConfig {
            max_instructions: config.max_instructions,
            ..ExecConfig::default()
        },
    );
    collector.finish(program, name, outcome.dynamic_instructions)
}

/// Reference implementation of [`profile_program`]: the pre-predecode
/// collection stack, verbatim — the legacy tree-walking executor feeding a
/// collector that hashes `BTreeMap` keys on every dynamic event.  Exists so
/// differential tests can prove the flat collector and predecoded engine
/// leave profiles bit-identical, and as the measured baseline in
/// `BENCH_interp.json`; measure-everything callers use [`profile_program`].
pub fn profile_program_reference(
    program: &Program,
    name: &str,
    config: &ProfileConfig,
) -> StatisticalProfile {
    let mut collector = ReferenceCollector::new(program, config);
    let outcome: ExecOutcome = execute_legacy(
        program,
        &mut collector,
        &ExecConfig {
            max_instructions: config.max_instructions,
            ..ExecConfig::default()
        },
    );
    collector.finish(program, name, outcome.dynamic_instructions)
}

/// The pre-predecode profile collector (see [`profile_program_reference`]).
struct ReferenceCollector {
    sfgl_nodes: BTreeMap<NodeKey, u64>,
    sfgl_edges: BTreeMap<(NodeKey, NodeKey), u64>,
    calls: BTreeMap<u32, u64>,
    branches: BTreeMap<SiteKey, (BranchProfile, Option<bool>)>,
    memory: BTreeMap<SiteKey, MemoryProfile>,
    mix: InstructionMix,
    cache: Cache,
    loop_control_blocks: std::collections::BTreeSet<NodeKey>,
}

impl ReferenceCollector {
    fn new(program: &Program, config: &ProfileConfig) -> Self {
        let mut loop_control_blocks = std::collections::BTreeSet::new();
        for (fi, f) in program.functions.iter().enumerate() {
            let forest = LoopForest::compute(f);
            for l in &forest.loops {
                loop_control_blocks.insert(NodeKey {
                    func: fi as u32,
                    block: l.header.0,
                });
                for latch in &l.latches {
                    loop_control_blocks.insert(NodeKey {
                        func: fi as u32,
                        block: latch.0,
                    });
                }
            }
        }
        ReferenceCollector {
            sfgl_nodes: BTreeMap::new(),
            sfgl_edges: BTreeMap::new(),
            calls: BTreeMap::new(),
            branches: BTreeMap::new(),
            memory: BTreeMap::new(),
            mix: InstructionMix::default(),
            cache: Cache::new(config.reference_cache),
            loop_control_blocks,
        }
    }

    fn finish(
        self,
        program: &Program,
        name: &str,
        dynamic_instructions: u64,
    ) -> StatisticalProfile {
        build_profile(
            program,
            name,
            dynamic_instructions,
            self.sfgl_nodes,
            self.sfgl_edges,
            self.calls,
            self.branches
                .into_iter()
                .map(|(k, (b, _))| (k, b))
                .collect(),
            self.memory,
            self.mix,
        )
    }
}

impl Observer for ReferenceCollector {
    fn on_inst(&mut self, event: &InstEvent) {
        if event.mem_read.is_some() && event.class != InstClass::Load {
            self.mix.record(InstClass::Load);
        } else {
            self.mix.record(event.class);
        }
        let site = SiteKey::from_site(event.site);
        for addr in [event.mem_read, event.mem_write].into_iter().flatten() {
            let hit = self.cache.access(addr);
            let entry = self.memory.entry(site).or_default();
            entry.accesses += 1;
            if !hit {
                entry.misses += 1;
            }
        }
    }

    fn on_block(&mut self, func: FuncId, block: BlockId, _block_idx: u32) {
        *self
            .sfgl_nodes
            .entry(NodeKey::new(func, block))
            .or_insert(0) += 1;
    }

    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId, _edge_idx: u32) {
        *self
            .sfgl_edges
            .entry((NodeKey::new(func, from), NodeKey::new(func, to)))
            .or_insert(0) += 1;
    }

    fn on_branch(&mut self, site: InstSite, _site_id: u32, taken: bool) {
        let key = SiteKey::from_site(site);
        let node = key.node;
        let entry = self
            .branches
            .entry(key)
            .or_insert((BranchProfile::default(), None));
        entry.0.executed += 1;
        if taken {
            entry.0.taken += 1;
        }
        if let Some(prev) = entry.1 {
            if prev != taken {
                entry.0.transitions += 1;
            }
        }
        entry.1 = Some(taken);
        // A conditional branch controls a loop if its block is a loop header
        // or latch; the synthesizer turns those into `for` loops rather than
        // `if` statements.
        if !entry.0.is_loop_back {
            entry.0.is_loop_back = self.loop_control_blocks.contains(&node);
        }
    }

    fn on_call(&mut self, _caller: FuncId, callee: FuncId) {
        *self.calls.entry(callee.0).or_insert(0) += 1;
    }
}

/// Per-branch accumulator (flat, fixed size; see [`Collector`]).
#[derive(Debug, Clone, Copy, Default)]
struct BranchAcc {
    executed: u64,
    taken: u64,
    transitions: u64,
    /// 0 = no previous outcome, 1 = not taken, 2 = taken.
    prev: u8,
}

/// The profile collector.  All per-event state is held in flat vectors
/// indexed by the image's dense site/block/edge indices — the collector does
/// no hashing or tree searching per dynamic instruction.  The serializable
/// `BTreeMap` keys of [`StatisticalProfile`] are produced once, in
/// [`Collector::finish`].
struct Collector<'a> {
    image: &'a ExecImage,
    node_counts: Vec<u64>,
    edge_counts: Vec<u64>,
    call_counts: Vec<u64>,
    branch_acc: Vec<BranchAcc>,
    memory_acc: Vec<MemoryProfile>,
    mix_counts: [u64; InstClass::ALL.len()],
    cache: Cache,
    /// Per dense block index: does this block's terminator control a loop?
    is_loop_control: Vec<bool>,
}

impl<'a> Collector<'a> {
    fn new(program: &Program, image: &'a ExecImage, config: &ProfileConfig) -> Self {
        // Precompute the blocks whose terminating branch controls a loop
        // (loop headers and latches) so the branch profile can separate loop
        // branches from ordinary if/else branches.
        let mut is_loop_control = vec![false; image.num_blocks()];
        for (fi, f) in program.functions.iter().enumerate() {
            let forest = LoopForest::compute(f);
            for l in &forest.loops {
                is_loop_control
                    [image.block_index(FuncId(fi as u32), BlockId(l.header.0)) as usize] = true;
                for latch in &l.latches {
                    is_loop_control
                        [image.block_index(FuncId(fi as u32), BlockId(latch.0)) as usize] = true;
                }
            }
        }
        Collector {
            image,
            node_counts: vec![0; image.num_blocks()],
            edge_counts: vec![0; image.num_edges()],
            call_counts: vec![0; image.num_funcs()],
            branch_acc: vec![BranchAcc::default(); image.num_sites()],
            memory_acc: vec![MemoryProfile::default(); image.num_sites()],
            mix_counts: [0; InstClass::ALL.len()],
            cache: Cache::new(config.reference_cache),
            is_loop_control,
        }
    }

    fn finish(
        self,
        program: &Program,
        name: &str,
        dynamic_instructions: u64,
    ) -> StatisticalProfile {
        // Convert the flat per-index tables to the profile's serializable
        // keyed maps (only entries that actually executed get a key).
        let image = self.image;
        let node_key = |idx: u32| {
            let (f, b) = image.block_key(idx);
            NodeKey::new(f, b)
        };
        let sfgl_nodes: BTreeMap<NodeKey, u64> = self
            .node_counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (node_key(i as u32), *c))
            .collect();
        let sfgl_edges: BTreeMap<(NodeKey, NodeKey), u64> = self
            .edge_counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (from, to) = image.edge_blocks(i as u32);
                ((node_key(from), node_key(to)), *c)
            })
            .collect();
        let calls: BTreeMap<u32, u64> = self
            .call_counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i as u32, *c))
            .collect();
        let branches: BTreeMap<SiteKey, BranchProfile> = self
            .branch_acc
            .iter()
            .enumerate()
            .filter(|(_, acc)| acc.executed > 0)
            .map(|(id, acc)| {
                let meta = image.site_meta(id as u32);
                let block_idx = image.block_index(meta.site.func, meta.site.block);
                (
                    SiteKey::from_site(meta.site),
                    BranchProfile {
                        executed: acc.executed,
                        taken: acc.taken,
                        transitions: acc.transitions,
                        is_loop_back: self.is_loop_control[block_idx as usize],
                    },
                )
            })
            .collect();
        let memory: BTreeMap<SiteKey, MemoryProfile> = self
            .memory_acc
            .iter()
            .enumerate()
            .filter(|(_, m)| m.accesses > 0)
            .map(|(id, m)| (SiteKey::from_site(image.site_meta(id as u32).site), *m))
            .collect();
        let mut mix = InstructionMix::default();
        for (class, count) in InstClass::ALL.iter().zip(self.mix_counts) {
            if count > 0 {
                mix.counts.insert(*class, count);
            }
        }
        build_profile(
            program,
            name,
            dynamic_instructions,
            sfgl_nodes,
            sfgl_edges,
            calls,
            branches,
            memory,
            mix,
        )
    }
}

/// Assembles a [`StatisticalProfile`] from collected counts: annotates loops
/// by combining the static loop forest with observed edge counts, and
/// records static per-block instruction descriptors for executed blocks.
/// Shared by the flat collector and the map-based reference collector.
#[allow(clippy::too_many_arguments)]
fn build_profile(
    program: &Program,
    name: &str,
    dynamic_instructions: u64,
    sfgl_nodes: BTreeMap<NodeKey, u64>,
    sfgl_edges: BTreeMap<(NodeKey, NodeKey), u64>,
    calls: BTreeMap<u32, u64>,
    branches: BTreeMap<SiteKey, BranchProfile>,
    memory: BTreeMap<SiteKey, MemoryProfile>,
    mix: InstructionMix,
) -> StatisticalProfile {
    // Loop annotations: combine the static loop structure with the
    // observed edge counts.
    let mut loops: Vec<SfglLoop> = Vec::new();
    for (fi, f) in program.functions.iter().enumerate() {
        let forest = LoopForest::compute(f);
        // Map from forest-local loop index to index in the combined vector
        // (loops that never executed are skipped, so parents are remapped).
        let mut index_map: Vec<Option<usize>> = vec![None; forest.loops.len()];
        for (fl_idx, l) in forest.loops.iter().enumerate() {
            let header = NodeKey {
                func: fi as u32,
                block: l.header.0,
            };
            let blocks: std::collections::BTreeSet<NodeKey> = l
                .blocks
                .iter()
                .map(|b| NodeKey {
                    func: fi as u32,
                    block: b.0,
                })
                .collect();
            let iterations: u64 = l
                .latches
                .iter()
                .map(|latch| {
                    sfgl_edges
                        .get(&(
                            NodeKey {
                                func: fi as u32,
                                block: latch.0,
                            },
                            header,
                        ))
                        .copied()
                        .unwrap_or(0)
                })
                .sum();
            let header_count = sfgl_nodes.get(&header).copied().unwrap_or(0);
            let entries = header_count.saturating_sub(iterations);
            if header_count == 0 {
                continue; // the loop never executed
            }
            // Remap the parent through the nearest executed ancestor.
            let mut parent = l.parent;
            let mapped_parent = loop {
                match parent {
                    None => break None,
                    Some(p) => match index_map[p] {
                        Some(mapped) => break Some(mapped),
                        None => parent = forest.loops[p].parent,
                    },
                }
            };
            index_map[fl_idx] = Some(loops.len());
            loops.push(SfglLoop {
                header,
                blocks,
                entries,
                iterations,
                depth: l.depth,
                parent: mapped_parent,
            });
        }
    }

    // Static per-block instruction descriptors (only for executed blocks).
    let mut block_code = BTreeMap::new();
    for (fi, f) in program.functions.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            let key = NodeKey {
                func: fi as u32,
                block: bi as u32,
            };
            if !sfgl_nodes.contains_key(&key) {
                continue;
            }
            let descs: Vec<InstDescriptor> = b
                .insts
                .iter()
                .map(|i| InstDescriptor {
                    class: i.class(),
                    operands: i.operand_kinds(),
                    is_float: i.class().is_float(),
                })
                .collect();
            block_code.insert(key, descs);
        }
    }
    StatisticalProfile {
        name: name.to_string(),
        sfgl: Sfgl {
            nodes: sfgl_nodes,
            edges: sfgl_edges,
            loops,
            calls,
        },
        branches,
        memory,
        mix,
        block_code,
        dynamic_instructions,
    }
}

impl Observer for Collector<'_> {
    fn on_inst(&mut self, event: &InstEvent) {
        let class = if event.mem_read.is_some() && event.class != InstClass::Load {
            InstClass::Load
        } else {
            event.class
        };
        self.mix_counts[class.index()] += 1;
        for addr in [event.mem_read, event.mem_write].into_iter().flatten() {
            let hit = self.cache.access(addr);
            let entry = &mut self.memory_acc[event.site_id as usize];
            entry.accesses += 1;
            if !hit {
                entry.misses += 1;
            }
        }
    }

    fn on_block(&mut self, _func: FuncId, _block: BlockId, block_idx: u32) {
        self.node_counts[block_idx as usize] += 1;
    }

    fn on_edge(&mut self, _func: FuncId, _from: BlockId, _to: BlockId, edge_idx: u32) {
        self.edge_counts[edge_idx as usize] += 1;
    }

    // Whether a conditional branch controls a loop (header/latch block) is
    // static, so the `is_loop_back` flag is filled in at `finish` time; the
    // per-event work is pure counting.
    fn on_branch(&mut self, _site: InstSite, site_id: u32, taken: bool) {
        let acc = &mut self.branch_acc[site_id as usize];
        acc.executed += 1;
        let outcome = if taken { 2 } else { 1 };
        if taken {
            acc.taken += 1;
        }
        if acc.prev != 0 && acc.prev != outcome {
            acc.transitions += 1;
        }
        acc.prev = outcome;
    }

    fn on_call(&mut self, _caller: FuncId, callee: FuncId) {
        self.call_counts[callee.0 as usize] += 1;
    }
}

bsg_ir::codec_layout!(struct SiteKey {
    node,
    index,
});

bsg_ir::codec_layout!(struct BranchProfile {
    executed,
    taken,
    transitions,
    is_loop_back,
});

bsg_ir::codec_layout!(struct MemoryProfile {
    accesses,
    misses,
});

bsg_ir::codec_layout!(struct InstructionMix {
    counts,
});

bsg_ir::codec_layout!(struct InstDescriptor {
    class,
    operands,
    is_float,
});

bsg_ir::codec_layout!(struct ProfileConfig {
    reference_cache,
    max_instructions,
});

bsg_ir::codec_layout!(struct StatisticalProfile {
    name,
    sfgl,
    branches,
    memory,
    mix,
    block_code,
    dynamic_instructions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_compiler::{compile, CompileOptions, OptLevel};
    use bsg_ir::build::FunctionBuilder;
    use bsg_ir::hll::{Expr, HllGlobal, HllProgram};

    fn profiled_loop_program() -> StatisticalProfile {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("data", 4096));
        let mut helper = FunctionBuilder::new("touch");
        helper.param("k");
        helper.assign_index("data", Expr::var("k"), Expr::var("k"));
        helper.ret(Some(Expr::var("k")));
        let mut main = FunctionBuilder::new("main");
        main.assign_var("acc", Expr::int(0));
        main.for_loop("i", Expr::int(0), Expr::int(100), |b| {
            b.if_then_else(
                Expr::lt(
                    Expr::bin(bsg_ir::hll::BinOp::Rem, Expr::var("i"), Expr::int(4)),
                    Expr::int(1),
                ),
                |t| {
                    t.call("touch", vec![Expr::var("i")]);
                },
                |e| {
                    e.assign_var(
                        "acc",
                        Expr::add(Expr::var("acc"), Expr::index("data", Expr::var("i"))),
                    );
                },
            );
        });
        main.ret(Some(Expr::var("acc")));
        p.add_function(main.finish());
        p.add_function(helper.finish());
        let compiled = compile(&p, &CompileOptions::portable(OptLevel::O0)).unwrap();
        profile_program(&compiled.program, "loop-test", &ProfileConfig::default())
    }

    #[test]
    fn profile_captures_loops_calls_and_counts() {
        let prof = profiled_loop_program();
        assert_eq!(prof.name, "loop-test");
        assert!(prof.dynamic_instructions > 1000);
        assert!(
            prof.sfgl.validate().is_empty(),
            "{:?}",
            prof.sfgl.validate()
        );
        assert_eq!(prof.sfgl.loops.len(), 1, "one executed loop");
        let l = &prof.sfgl.loops[0];
        assert_eq!(l.entries, 1);
        assert_eq!(l.iterations, 100);
        assert!((l.average_trip_count() - 100.0).abs() < 1.0);
        // `touch` is called 25 times (i % 4 < 1).
        assert_eq!(prof.sfgl.calls.values().copied().max().unwrap_or(0), 25);
    }

    #[test]
    fn branch_profile_distinguishes_loop_and_conditional_branches() {
        let prof = profiled_loop_program();
        let loop_branches: Vec<_> = prof.branches.values().filter(|b| b.is_loop_back).collect();
        let cond_branches: Vec<_> = prof.branches.values().filter(|b| !b.is_loop_back).collect();
        assert!(!loop_branches.is_empty());
        assert!(!cond_branches.is_empty());
        // The if condition (i % 4 < 1) has a periodic pattern -> transitions happen.
        let hard = cond_branches
            .iter()
            .find(|b| b.executed == 100)
            .expect("the if branch");
        assert!(hard.transition_rate() > 0.2 && hard.transition_rate() < 0.8);
        assert!((hard.taken_rate() - 0.25).abs() < 0.05);
    }

    #[test]
    fn instruction_mix_sums_to_one_and_sees_memory_traffic() {
        let prof = profiled_loop_program();
        let fractions = prof.mix.category_fractions();
        let sum: f64 = fractions.values().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(fractions[&MixCategory::Load] > 0.1, "O0 code is load-heavy");
        assert!(fractions[&MixCategory::Store] > 0.05);
        assert!(fractions[&MixCategory::Branch] > 0.01);
        assert_eq!(prof.mix.total(), prof.dynamic_instructions);
    }

    #[test]
    fn memory_profile_classes_are_in_range() {
        let prof = profiled_loop_program();
        assert!(!prof.memory.is_empty());
        for m in prof.memory.values() {
            assert!(m.miss_class() <= 8);
            assert!(m.accesses >= m.misses);
        }
        // Stack traffic at O0 hits essentially always -> class 0 entries exist.
        assert!(prof.memory.values().any(|m| m.miss_class() == 0));
    }

    #[test]
    fn miss_rate_class_boundaries_match_table1() {
        assert_eq!(miss_rate_class(0.0), 0);
        assert_eq!(miss_rate_class(0.05), 0);
        assert_eq!(miss_rate_class(0.10), 1);
        assert_eq!(miss_rate_class(0.50), 4);
        assert_eq!(miss_rate_class(0.95), 8);
        assert_eq!(miss_rate_class(1.0), 8);
        assert_eq!(class_stride_bytes(0), 0);
        assert_eq!(class_stride_bytes(4), 16);
        assert_eq!(class_stride_bytes(8), 32);
    }

    #[test]
    fn consolidation_merges_profiles_without_key_collisions() {
        let a = profiled_loop_program();
        let b = profiled_loop_program();
        let mut merged = a.clone();
        merged.merge_with_offset(&b, a.function_span());
        assert_eq!(merged.dynamic_instructions, a.dynamic_instructions * 2);
        assert_eq!(merged.sfgl.nodes.len(), a.sfgl.nodes.len() * 2);
        assert_eq!(merged.sfgl.loops.len(), 2);
        assert!(merged.sfgl.validate().is_empty());
        assert!(merged.name.contains('+'));
    }

    #[test]
    fn block_descriptors_cover_executed_blocks() {
        let prof = profiled_loop_program();
        for node in prof.sfgl.nodes.keys() {
            assert!(
                prof.block_code.contains_key(node),
                "missing descriptors for {node:?}"
            );
        }
        let with_memory = prof
            .block_code
            .values()
            .flatten()
            .filter(|d| d.operands.contains(&OperandKind::Memory))
            .count();
        assert!(with_memory > 0);
    }
}
