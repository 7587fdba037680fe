//! The report-wide measurement plan: one functional execution per distinct
//! compiled program, however many sections read it.
//!
//! Figures 5–11 read instruction counts, mixes, cache hit rates, predictor
//! accuracy and timing lanes of the same originals and clones, and each of
//! those is a pure function of (binary, observer config).  A measuring
//! section therefore only *lists* what it reads, as [`Request`]s of
//! (unit, [`CompileOptions`], [`Probe`]), and renders from the
//! [`Observation`]s that come back.  [`observe`] serves a whole report's
//! requests in four steps:
//!
//! 1. it compiles each distinct (source, options) pair, in one scheduler
//!    batch;
//! 2. it merges the compilations whose programs are equal
//!    ([`CompiledArtifact::program`] equality: `-O3` reuses the `-O2`
//!    binary of every Figure 11 unit, and `-O0` lowers identically for
//!    x86, x86-64 and IA-64);
//! 3. it runs one execution per distinct program, under one composite
//!    observer carrying the union of the probes its requests name, all in
//!    one batch submitted longest-first;
//! 4. it hands each request the part of its program's run it asked for.
//!
//! This is exact.  Equal programs decode to equal images, and an image's
//! event stream does not depend on who observes it; each probe's observer
//! only reads that stream, so sharing a run changes no observer's result.
//! Timing lanes are independent within a batch (the differential suite
//! proves each one equal to the scalar oracle run alone).  The batch's
//! shared branch predictor is `Hybrid::default_config()`, fed the same
//! `(site, taken)` stream and counted the same way as a
//! [`PredictorObserver`]'s, so wherever lanes run it serves the
//! [`Probe::Hybrid`] requests too.

use crate::WorkloadArtifacts;
use bsg_compiler::CompileOptions;
use bsg_ir::hll::HllProgram;
use bsg_profile::{InstructionMix, MixObserver};
use bsg_runtime::{ArtifactStore, BsgResult, CompiledArtifact, Runtime, SourceId};
use bsg_synth::TargetedSynthesis;
use bsg_uarch::batch::BatchedPipelineSim;
use bsg_uarch::branch::{BranchStats, Hybrid, PredictorObserver};
use bsg_uarch::cache::{CacheConfig, CacheObserver, CacheStats};
use bsg_uarch::exec::{execute_image, ExecConfig, InstEvent, InstSite, Observer};
use bsg_uarch::image::ExecImage;
use bsg_uarch::pipeline::{PipelineConfig, PipelineResult};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

/// The data-cache sizes of the [`Probe::Caches`] sweep (Figures 7 and 8),
/// in KB.
pub const SWEEP_KB: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// The source program a request observes.
#[derive(Clone)]
pub enum Unit {
    /// The original of the `i`-th prepared workload.
    Original(usize),
    /// The synthetic clone of the `i`-th prepared workload.
    Synthetic(usize),
    /// A clone synthesized outside the suite (Figure 11's consolidated
    /// clone), with the content address of its HLL source.
    Synthesized(SourceId, Arc<TargetedSynthesis>),
}

impl Unit {
    /// A synthesized clone, hashed once here rather than once per request.
    pub fn synthesized(synthesis: Arc<TargetedSynthesis>) -> Unit {
        Unit::Synthesized(SourceId::of(&synthesis.benchmark.hll), synthesis)
    }

    fn source<'a>(&'a self, artifacts: &'a [WorkloadArtifacts]) -> (SourceId, &'a HllProgram) {
        match self {
            Unit::Original(i) => artifacts[*i].source(false),
            Unit::Synthetic(i) => artifacts[*i].source(true),
            Unit::Synthesized(id, s) => (*id, &s.benchmark.hll),
        }
    }

    /// The unit's `-O0` dynamic instruction count, known from synthesis:
    /// the length estimate executions are ordered by.
    fn instructions(&self, artifacts: &[WorkloadArtifacts]) -> u64 {
        match self {
            Unit::Original(i) => artifacts[*i].synthesis.original_instructions,
            Unit::Synthetic(i) => artifacts[*i].synthesis.synthetic_instructions,
            Unit::Synthesized(_, s) => s.synthetic_instructions,
        }
    }
}

/// What a request reads from its program's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// The dynamic instruction count.
    Count,
    /// The instruction mix ([`MixObserver`]).
    Mix,
    /// Data-cache statistics at every [`SWEEP_KB`] size ([`CacheObserver`]).
    Caches,
    /// The `Hybrid::default_config()` predictor's statistics
    /// ([`PredictorObserver`]).
    Hybrid,
    /// One timing lane of the batched pipeline model.
    Lane(PipelineConfig),
}

/// One request's result, the variant of its [`Probe`].
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// [`Probe::Count`].
    Count(u64),
    /// [`Probe::Mix`].
    Mix(InstructionMix),
    /// [`Probe::Caches`], one entry per [`SWEEP_KB`] size.
    Caches(Vec<CacheStats>),
    /// [`Probe::Hybrid`].
    Hybrid(BranchStats),
    /// [`Probe::Lane`].
    Lane(PipelineResult),
}

impl Observation {
    /// The dynamic instruction count of a [`Probe::Count`] request.
    ///
    /// # Panics
    ///
    /// Panics on any other observation (as do the other accessors): a
    /// section reads back the probes it requested.
    pub fn count(&self) -> u64 {
        match self {
            Observation::Count(n) => *n,
            other => panic!("expected a count, got {other:?}"),
        }
    }

    /// The instruction mix of a [`Probe::Mix`] request.
    pub fn mix(&self) -> &InstructionMix {
        match self {
            Observation::Mix(mix) => mix,
            other => panic!("expected a mix, got {other:?}"),
        }
    }

    /// The cache sweep of a [`Probe::Caches`] request.
    pub fn caches(&self) -> &[CacheStats] {
        match self {
            Observation::Caches(stats) => stats,
            other => panic!("expected a cache sweep, got {other:?}"),
        }
    }

    /// The predictor statistics of a [`Probe::Hybrid`] request.
    pub fn branches(&self) -> BranchStats {
        match self {
            Observation::Hybrid(stats) => *stats,
            other => panic!("expected predictor statistics, got {other:?}"),
        }
    }

    /// The timing of a [`Probe::Lane`] request.
    pub fn lane(&self) -> &PipelineResult {
        match self {
            Observation::Lane(result) => result,
            other => panic!("expected a timing lane, got {other:?}"),
        }
    }
}

/// One measurement: `probe` on `unit` compiled with `options`.
#[derive(Clone)]
pub struct Request {
    /// The source program.
    pub unit: Unit,
    /// How it is compiled.
    pub options: CompileOptions,
    /// What is read from its execution.
    pub probe: Probe,
}

/// The outcome of [`observe`].
pub struct Observed {
    /// One observation per request, in request order.  A request whose
    /// compilation or shared execution failed holds that fault.
    pub observations: Vec<BsgResult<Observation>>,
    /// Functional executions run: one per distinct compiled program.
    pub executions: usize,
}

/// Serves `requests` (whose units index `artifacts`) with one execution per
/// distinct compiled program; see the module docs.
pub fn observe(artifacts: &[WorkloadArtifacts], requests: &[Request]) -> Observed {
    let runtime = Runtime::current();

    // 1. One compilation per distinct (source, options).
    let mut compile_of: HashMap<(SourceId, CompileOptions), usize> = HashMap::new();
    let mut compiles: Vec<(SourceId, &HllProgram, CompileOptions)> = Vec::new();
    let compile_index: Vec<usize> = requests
        .iter()
        .map(|r| {
            let (id, hll) = r.unit.source(artifacts);
            *compile_of.entry((id, r.options)).or_insert_with(|| {
                compiles.push((id, hll, r.options));
                compiles.len() - 1
            })
        })
        .collect();
    let store = ArtifactStore::global();
    let compiled = runtime.try_run(
        compiles
            .iter()
            .map(|&(id, hll, options)| move || store.try_compiled_keyed(id, hll, &options))
            .collect(),
    );

    // 2. One program per class of equal compilations.
    let mut programs: Vec<Arc<CompiledArtifact>> = Vec::new();
    let program_of: Vec<BsgResult<usize>> = compiled
        .into_iter()
        .map(|c| {
            let art = c.and_then(|inner| inner)?;
            Ok(programs
                .iter()
                .position(|p| p.program == art.program)
                .unwrap_or_else(|| {
                    programs.push(art);
                    programs.len() - 1
                }))
        })
        .collect();

    // The union of each program's probes; a lane request remembers its lane.
    let mut runs = vec![RunSpec::default(); programs.len()];
    let mut lane_of = vec![0; requests.len()];
    for ((r, &c), lane) in requests.iter().zip(&compile_index).zip(&mut lane_of) {
        let Ok(p) = program_of[c] else { continue };
        let spec = &mut runs[p];
        spec.instructions = spec.instructions.max(r.unit.instructions(artifacts));
        match r.probe {
            Probe::Count => {}
            Probe::Mix => spec.mix = true,
            Probe::Caches => spec.caches = true,
            Probe::Hybrid => spec.hybrid = true,
            Probe::Lane(config) => {
                *lane = spec
                    .lanes
                    .iter()
                    .position(|l| *l == config)
                    .unwrap_or_else(|| {
                        spec.lanes.push(config);
                        spec.lanes.len() - 1
                    });
            }
        }
    }

    // 3. One execution per program, the longest first.
    let mut order: Vec<usize> = (0..programs.len()).collect();
    order.sort_by_key(|&p| Reverse(runs[p].cost()));
    let done = runtime.try_run(
        order
            .iter()
            .map(|&p| {
                let (image, spec) = (&programs[p].image, &runs[p]);
                move || spec.run(image)
            })
            .collect(),
    );
    let mut results: Vec<Option<BsgResult<Run>>> = programs.iter().map(|_| None).collect();
    for (&p, result) in order.iter().zip(done) {
        results[p] = Some(result);
    }

    // 4. Each request's share of its program's run.
    let observations = requests
        .iter()
        .zip(&compile_index)
        .zip(&lane_of)
        .map(|((r, &c), &lane)| {
            let p = program_of[c].clone()?;
            let run = results[p].as_ref().expect("every program ran");
            Ok(run.as_ref().map_err(Clone::clone)?.read(r.probe, lane))
        })
        .collect();
    Observed {
        observations,
        executions: programs.len(),
    }
}

/// What one execution observes: the union of its requests' probes.
#[derive(Clone, Default)]
struct RunSpec {
    mix: bool,
    caches: bool,
    hybrid: bool,
    lanes: Vec<PipelineConfig>,
    /// The longest-first estimate of the program's length.
    instructions: u64,
}

impl RunSpec {
    /// Estimated cost: the interpreter plus each lane and the cache sweep
    /// at roughly one interpreter's cost apiece.
    fn cost(&self) -> u64 {
        let observers = 1 + self.lanes.len() as u64 + u64::from(self.caches);
        self.instructions.saturating_mul(observers)
    }

    fn run(&self, image: &ExecImage) -> Run {
        let mut probes = Probes {
            mix: self.mix.then(MixObserver::default),
            caches: self
                .caches
                .then(|| CacheObserver::new(SWEEP_KB.map(CacheConfig::kb))),
            // Where lanes run, their shared predictor serves this probe.
            predictor: (self.hybrid && self.lanes.is_empty())
                .then(|| PredictorObserver::new(Hybrid::default_config())),
            lanes: (!self.lanes.is_empty())
                .then(|| BatchedPipelineSim::from_image(&self.lanes, image)),
        };
        let outcome = execute_image(image, &mut probes, &ExecConfig::default());
        let lanes = probes.lanes.map_or_else(Vec::new, |mut sim| sim.results());
        Run {
            instructions: outcome.dynamic_instructions,
            mix: probes.mix.map(|m| m.mix()),
            caches: probes.caches.map_or_else(Vec::new, |c| {
                c.sweep.results().into_iter().map(|(_, s)| s).collect()
            }),
            branches: probes
                .predictor
                .map(|p| p.stats)
                .or(lanes.first().map(|l| l.branches)),
            lanes,
        }
    }
}

/// The composite observer of one execution.  Its parts only use
/// `on_inst` and `on_branch`.
struct Probes {
    mix: Option<MixObserver>,
    caches: Option<CacheObserver>,
    predictor: Option<PredictorObserver<Hybrid>>,
    lanes: Option<BatchedPipelineSim>,
}

impl Observer for Probes {
    #[inline(always)]
    fn on_inst(&mut self, event: &InstEvent) {
        if let Some(o) = &mut self.mix {
            o.on_inst(event);
        }
        if let Some(o) = &mut self.caches {
            o.on_inst(event);
        }
        if let Some(o) = &mut self.lanes {
            o.on_inst(event);
        }
    }

    #[inline(always)]
    fn on_branch(&mut self, site: InstSite, site_id: u32, taken: bool) {
        if let Some(o) = &mut self.predictor {
            o.on_branch(site, site_id, taken);
        }
        if let Some(o) = &mut self.lanes {
            o.on_branch(site, site_id, taken);
        }
    }
}

/// The results of one execution.
struct Run {
    instructions: u64,
    mix: Option<InstructionMix>,
    caches: Vec<CacheStats>,
    branches: Option<BranchStats>,
    lanes: Vec<PipelineResult>,
}

impl Run {
    fn read(&self, probe: Probe, lane: usize) -> Observation {
        match probe {
            Probe::Count => Observation::Count(self.instructions),
            Probe::Mix => Observation::Mix(self.mix.clone().expect("mix observed")),
            Probe::Caches => Observation::Caches(self.caches.clone()),
            Probe::Hybrid => Observation::Hybrid(self.branches.expect("predictor observed")),
            Probe::Lane(_) => Observation::Lane(self.lanes[lane]),
        }
    }
}
