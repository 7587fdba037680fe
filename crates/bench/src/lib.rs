//! # bsg-bench — experiment harness for the IISWC 2010 reproduction
//!
//! One section per table / figure of the paper's evaluation section; the
//! `bsg-figure` binary looks its argument up in the declarative [`FIGURES`]
//! registry.  Run e.g. `cargo run -p bsg-bench --release --bin bsg-figure
//! -- fig04`, or `all_experiments` for the whole report.
//!
//! The harness runs on the workspace's simulated substrate, so absolute
//! numbers differ from the paper's hardware measurements; what is reproduced
//! is the *shape* of each result (who wins, by roughly how much, and how the
//! trend moves with cache size, optimization level, ISA and machine).
//!
//! # The declarative pipeline
//!
//! Every figure is a short spec over four shared layers:
//!
//! * the [`bsg_workloads::WorkloadRegistry`] supplies the suite (the
//!   paper's 13 MiBench kernels plus the SPEC-like extensions), built once
//!   per process and iterated in a stable order;
//! * the [`experiment`] module declares the [`Section`]s and renders them
//!   on the scheduler ([`render_sections`]) with deterministic,
//!   submission-ordered results, each behind its own panic boundary;
//! * the measurement plan ([`mod@observe`]) serves the measuring sections
//!   (Figures 5–11): each lists its requests — (unit, compile options,
//!   probe) — and renders from their observations, and the plan runs one
//!   functional execution per distinct compiled program across every
//!   section of a report, however many figures read it;
//! * the [`ArtifactStore`] memoizes compiled programs, predecoded images, C
//!   text, profiles and synthesis results behind `Arc`s — content-addressed,
//!   built once per process, and (since PR 4) persisted to a disk tier so
//!   repeated harness invocations share builds across processes.
//!
//! Figure text is byte-identical at any worker count and any cache
//! temperature; the determinism suite pins both against golden outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod observe;

/// The suite types this crate's public API takes and returns.
pub use bsg_workloads::{suite, InputSize, Workload};
pub use experiment::{render_sections, Measure, Section};
pub use observe::{observe, Observation, Observed, Probe, Request, Unit, SWEEP_KB};

use bsg_compiler::{CompileOptions, OptLevel, TargetIsa};
use bsg_ir::hll::HllProgram;
use bsg_profile::{NodeKey, ProfileConfig, Sfgl, SfglLoop, StatisticalProfile};
use bsg_runtime::{ArtifactStore, CompiledArtifact, Runtime, SourceId};
use bsg_similarity::SimilarityReport;
use bsg_synth::{scale_down, SynthesisConfig, TargetedSynthesis};
use bsg_uarch::cache::CacheConfig;
use bsg_uarch::machine::{MachineConfig, MachineIsa};
use bsg_uarch::pipeline::PipelineConfig;
use bsg_workloads::fibonacci_workload;
use std::fmt::Write as _;
use std::sync::Arc;

/// Dynamic-instruction target for synthetic clones.  The paper targets ~10 M
/// instructions on real hardware; the reproduction runs on an interpreter, so
/// the default is scaled down (the reduction-factor *ratios* are what the
/// figures compare).
pub const SYNTH_TARGET_INSTRUCTIONS: u64 = 40_000;

/// Everything the experiments need for one workload: its profile and its
/// synthetic clone, shared out of the process-wide [`ArtifactStore`].
pub struct WorkloadArtifacts {
    /// The original workload.
    pub workload: Workload,
    /// Statistical profile of the `-O0` original.
    pub profile: Arc<StatisticalProfile>,
    /// Result of target-driven synthesis.
    pub synthesis: Arc<TargetedSynthesis>,
    /// Content address of the original's HLL source (hashed once, so sweeps
    /// that request dozens of compiled variants skip rehashing).
    original_id: SourceId,
    /// Content address of the synthetic clone's HLL source.
    synthetic_id: SourceId,
}

impl WorkloadArtifacts {
    /// Profiles `workload` and synthesizes its clone, through the artifact
    /// store (both steps are memoized in memory and on disk: repeated calls
    /// for the same workload and target share one build, even across
    /// processes).  Profiling or synthesis failures come back as structured
    /// errors instead of aborting.
    ///
    /// This is also the chaos hook: when the `BSG_FAULT` plan names this
    /// workload (`task-panic=NAME`), the preparation panics here — under
    /// [`try_prepare_suite`] the scheduler catches it and the workload's
    /// slot reports [`bsg_runtime::BsgError::TaskPanic`] while every other
    /// workload prepares normally.
    pub fn try_prepare(
        workload: Workload,
        target_instructions: u64,
    ) -> bsg_runtime::BsgResult<Self> {
        if bsg_runtime::fault::task_panic_target() == Some(workload.name.as_str()) {
            panic!(
                "chaos: injected task panic preparing {} (BSG_FAULT)",
                workload.name
            );
        }
        let store = ArtifactStore::global();
        let profile = store.try_profile(
            &workload.program,
            &CompileOptions::portable(OptLevel::O0),
            &workload.name,
            &ProfileConfig::default(),
        )?;
        let synthesis =
            store.try_synthesis(&profile, &SynthesisConfig::default(), target_instructions)?;
        let original_id = SourceId::of(workload.program.as_ref());
        let synthetic_id = SourceId::of(&synthesis.benchmark.hll);
        Ok(WorkloadArtifacts {
            workload,
            profile,
            synthesis,
            original_id,
            synthetic_id,
        })
    }

    /// The original (`synthetic == false`) or clone (`synthetic == true`)
    /// compiled with `options`: one store lookup, compiling and predecoding
    /// at most once per (source, options) per process.
    pub fn compiled(&self, options: &CompileOptions, synthetic: bool) -> Arc<CompiledArtifact> {
        let (id, hll) = self.source(synthetic);
        ArtifactStore::global().compiled_keyed(id, hll, options)
    }

    /// The original's or the clone's HLL source and its content address.
    fn source(&self, synthetic: bool) -> (SourceId, &HllProgram) {
        if synthetic {
            (self.synthetic_id, &self.synthesis.benchmark.hll)
        } else {
            (self.original_id, self.workload.program.as_ref())
        }
    }
}

/// Prepares artifacts for the whole suite at one input size, one workload
/// per scheduler task (profiling and synthesis are independent per
/// workload).  Each workload's outcome lands in its own slot as `(name,
/// result)`, in suite order.  One panicking or failing preparation costs
/// exactly its own slot — the scheduler catches the fault and every other
/// workload's artifacts are identical to a clean run's.
pub fn try_prepare_suite(
    input: InputSize,
    target_instructions: u64,
) -> Vec<(String, bsg_runtime::BsgResult<WorkloadArtifacts>)> {
    let workloads = suite(input);
    let names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
    let results = Runtime::current().try_map(workloads, |w| {
        WorkloadArtifacts::try_prepare(w, target_instructions)
    });
    // Two fault layers flatten into one: a caught panic/deadline from the
    // scheduler, or a structured build error from the store.
    names
        .into_iter()
        .zip(results.into_iter().map(|r| r.and_then(|inner| inner)))
        .collect()
}

/// One isolated fault from [`try_render_report`] or [`render_figure`]:
/// either a workload whose preparation failed (its rows are omitted) or a
/// section whose renderer failed (the section is skipped).  `Display`
/// matches the stderr lines the `all_experiments` binary has always
/// printed, so CI greps keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportFault {
    /// A workload's preparation panicked or failed.
    Prepare {
        /// The workload's suite name (e.g. `crc32/small`).
        name: String,
        /// The isolated fault.
        error: bsg_runtime::BsgError,
    },
    /// A section renderer panicked.
    Section {
        /// The isolated fault.
        error: bsg_runtime::BsgError,
    },
}

impl ReportFault {
    /// Consumes the fault into its error (e.g. for a server error reply).
    pub fn into_error(self) -> bsg_runtime::BsgError {
        match self {
            ReportFault::Prepare { error, .. } | ReportFault::Section { error } => error,
        }
    }
}

impl std::fmt::Display for ReportFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportFault::Prepare { name, error } => {
                write!(
                    f,
                    "FAILED to prepare {name}: {error} (its rows are omitted)"
                )
            }
            ReportFault::Section { error } => {
                write!(f, "FAILED to render a section: {error} (section skipped)")
            }
        }
    }
}

/// Renders the complete `all_experiments` report (small-input suite, every
/// [`ALL_EXPERIMENTS`] section) with per-workload and per-section fault
/// isolation.  Returns the report text — byte-identical to the batch
/// binary's stdout, which is the server-mode correctness contract — plus
/// every isolated fault, in occurrence order.
pub fn try_render_report() -> (String, Vec<ReportFault>) {
    let (artifacts, mut faults) = prepare_inputs(&[InputSize::Small]);
    let (report, section_faults) = render_report(&artifacts);
    faults.extend(section_faults);
    (report, faults)
}

/// Renders every [`ALL_EXPERIMENTS`] section over `artifacts` through one
/// shared measurement plan ([`render_sections`]), each followed by a blank
/// line; a failed section is skipped and reported as
/// [`ReportFault::Section`].
pub fn render_report(artifacts: &[WorkloadArtifacts]) -> (String, Vec<ReportFault>) {
    let (texts, faults) = render_isolated(ALL_EXPERIMENTS, artifacts);
    (texts.into_iter().map(|text| text + "\n").collect(), faults)
}

/// Prepares the suites at `inputs`, concatenated in order: the prepared
/// artifacts, plus a [`ReportFault::Prepare`] for each workload that failed.
fn prepare_inputs(inputs: &[InputSize]) -> (Vec<WorkloadArtifacts>, Vec<ReportFault>) {
    let mut artifacts = Vec::new();
    let mut faults = Vec::new();
    for &input in inputs {
        for (name, result) in try_prepare_suite(input, SYNTH_TARGET_INSTRUCTIONS) {
            match result {
                Ok(a) => artifacts.push(a),
                Err(error) => faults.push(ReportFault::Prepare { name, error }),
            }
        }
    }
    (artifacts, faults)
}

/// [`render_sections`] split into the texts of the sections that rendered
/// and a [`ReportFault::Section`] for each one that failed.
fn render_isolated(
    sections: &[Section],
    artifacts: &[WorkloadArtifacts],
) -> (Vec<String>, Vec<ReportFault>) {
    let mut texts = Vec::new();
    let mut faults = Vec::new();
    for text in render_sections(sections, artifacts) {
        match text {
            Ok(text) => texts.push(text),
            Err(error) => faults.push(ReportFault::Section { error }),
        }
    }
    (texts, faults)
}

/// Maps a machine's ISA to the compiler's target ISA.
pub fn target_isa_for(machine: MachineIsa) -> TargetIsa {
    match machine {
        MachineIsa::X86 => TargetIsa::X86,
        MachineIsa::X86_64 => TargetIsa::X86_64,
        MachineIsa::Ia64 => TargetIsa::Ia64,
    }
}

// ---------------------------------------------------------------------------
// The figure registry: every `bsg-figure <name>` is a row in this table.
// ---------------------------------------------------------------------------

/// One table or figure, as data: which sections it prints and which suites
/// it needs.  Adding a figure means adding a row, not sweep code.
pub struct FigureSpec {
    /// Lookup name (`fig04`, `table1`, ...).
    pub name: &'static str,
    /// Input sizes whose suite artifacts the sections consume, in
    /// concatenation order (empty for standalone sections).
    pub inputs: &'static [InputSize],
    /// The sections printed, joined by a blank line.
    pub sections: &'static [Section],
}

/// Every table and figure `bsg-figure` renders, declaratively.
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        name: "table1",
        inputs: &[],
        sections: &[Section::Standalone(table1)],
    },
    FigureSpec {
        name: "table2",
        inputs: &[InputSize::Small],
        sections: &[Section::Suite(table2)],
    },
    FigureSpec {
        name: "table3",
        inputs: &[],
        sections: &[Section::Standalone(table3)],
    },
    FigureSpec {
        name: "table3x",
        inputs: &[],
        sections: &[Section::Standalone(table3x)],
    },
    FigureSpec {
        name: "fig02",
        inputs: &[],
        sections: &[Section::Standalone(fig02)],
    },
    FigureSpec {
        name: "fig03",
        inputs: &[],
        sections: &[Section::Standalone(fig03)],
    },
    FigureSpec {
        name: "fig04",
        inputs: &[InputSize::Small, InputSize::Large],
        sections: &[Section::Suite(fig04)],
    },
    FigureSpec {
        name: "fig05",
        inputs: &[InputSize::Small],
        sections: &[FIG05],
    },
    FigureSpec {
        name: "fig06",
        inputs: &[InputSize::Small],
        sections: &[FIG06_O0, FIG06_O2],
    },
    FigureSpec {
        name: "fig07",
        inputs: &[InputSize::Small],
        sections: &[FIG07],
    },
    FigureSpec {
        name: "fig08",
        inputs: &[InputSize::Small],
        sections: &[FIG08],
    },
    FigureSpec {
        name: "fig09",
        inputs: &[InputSize::Small],
        sections: &[FIG09],
    },
    FigureSpec {
        name: "fig10",
        inputs: &[InputSize::Small],
        sections: &[FIG10],
    },
    FigureSpec {
        name: "fig11",
        inputs: &[InputSize::Small],
        sections: &[FIG11],
    },
    FigureSpec {
        name: "fig11x",
        inputs: &[InputSize::Small],
        sections: &[FIG11X],
    },
    FigureSpec {
        name: "obfuscation",
        inputs: &[InputSize::Small],
        sections: &[Section::Suite(obfuscation)],
    },
];

/// The `all_experiments` report sequence over the small-input suite (the
/// order the combined report prints its sections in).
pub const ALL_EXPERIMENTS: &[Section] = &[
    Section::Standalone(table1),
    Section::Standalone(table3),
    Section::Standalone(fig02),
    Section::Suite(fig04),
    FIG05,
    FIG06_O0,
    FIG06_O2,
    FIG07,
    FIG08,
    FIG09,
    FIG10,
    FIG11,
    Section::Suite(obfuscation),
];

/// Looks up a figure spec by name.
pub fn figure_spec(name: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Renders a registered figure: prepares the suites its spec names and
/// joins its sections with a blank line.  This is what `bsg-figure <name>`
/// prints.  Faults are isolated as in [`try_render_report`]: a workload
/// that fails to prepare loses its rows, a failed section is skipped, and
/// every fault is returned in occurrence order.
pub fn render_figure(spec: &FigureSpec) -> (String, Vec<ReportFault>) {
    let (artifacts, mut faults) = prepare_inputs(spec.inputs);
    let (texts, section_faults) = render_isolated(spec.sections, &artifacts);
    faults.extend(section_faults);
    (texts.join("\n"), faults)
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Table I: miss-rate classes, their strides, and the miss rate each stride
/// actually produces on the profiling cache when regenerated.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — memory access strides per miss-rate class (32-byte line)"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<18} {:<14} {:<16}",
        "class", "miss-rate range", "stride (bytes)", "measured miss"
    );
    for row in bsg_synth::table1() {
        // Measure: stream through memory with this stride and run the 8 KB
        // profiling cache over the addresses.
        let mut cache = bsg_uarch::cache::Cache::new(CacheConfig::kb(8));
        let mut addr = 0u64;
        let mut misses = 0u64;
        let accesses = 20_000u64;
        for _ in 0..accesses {
            if !cache.access(0x10000 + addr) {
                misses += 1;
            }
            addr = (addr + row.stride_bytes) % (1 << 20);
        }
        let miss = misses as f64 / accesses as f64;
        let _ = writeln!(
            out,
            "{:<6} {:>5.2}% - {:>6.2}%   {:<14} {:>6.2}%",
            row.class,
            row.miss_rate_low * 100.0,
            row.miss_rate_high * 100.0,
            row.stride_bytes,
            miss * 100.0
        );
    }
    out
}

/// Table II: the instruction-pattern → C statement templates, plus the
/// dynamic pattern coverage achieved for each benchmark.
pub fn table2(artifacts: &[WorkloadArtifacts]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II — statement templates and per-benchmark pattern coverage"
    );
    for p in bsg_synth::table2() {
        let _ = writeln!(
            out,
            "  {:?}: loads={} stores={} ops={}",
            p.kind, p.loads, p.stores, p.ops
        );
    }
    let _ = writeln!(out, "\n{:<24} {:>10}", "benchmark", "coverage");
    let mut total = 0.0;
    for a in artifacts {
        let c = a.synthesis.benchmark.stats.pattern_coverage;
        let _ = writeln!(out, "{:<24} {:>9.1}%", a.workload.name, c * 100.0);
        total += c;
    }
    let _ = writeln!(
        out,
        "{:<24} {:>9.1}%",
        "average",
        total / artifacts.len().max(1) as f64 * 100.0
    );
    out
}

fn machine_table(title: &str, machines: &[MachineConfig]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:<20} {:<8} {:<40}", "machine", "ISA", "description");
    for m in machines {
        let _ = writeln!(
            out,
            "{:<20} {:<8} {:<40}",
            m.name,
            m.isa.to_string(),
            m.description
        );
    }
    out
}

/// Table III: the machines used in the study.
pub fn table3() -> String {
    machine_table(
        "Table III — machines used in this study",
        &MachineConfig::table3(),
    )
}

/// Table III extended with the ROADMAP scenario machines (a wider
/// out-of-order x86-64 part and an in-order embedded core).  A separate
/// section — the legacy table and its goldens are untouched.
pub fn table3x() -> String {
    machine_table(
        "Table III (extended) — machines used in this study",
        &MachineConfig::table3_extended(),
    )
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

/// The example SFGL of Figure 2(a).
pub fn figure2_example_sfgl() -> Sfgl {
    let key = |b: u32| NodeKey { func: 0, block: b };
    let mut s = Sfgl::default();
    let counts = [500u64, 420, 80, 500, 5000, 1000, 4000, 5000, 500];
    for (i, c) in counts.iter().enumerate() {
        s.nodes.insert(key(i as u32), *c);
    }
    let edges: &[((u32, u32), u64)] = &[
        ((0, 1), 420),
        ((0, 2), 80),
        ((1, 3), 420),
        ((2, 3), 80),
        ((3, 4), 500),
        ((4, 5), 1000),
        ((4, 6), 4000),
        ((5, 7), 1000),
        ((6, 7), 4000),
        ((7, 4), 4500),
        ((7, 8), 500),
    ];
    for ((a, b), c) in edges {
        s.edges.insert((key(*a), key(*b)), *c);
    }
    s.loops.push(SfglLoop {
        header: key(4),
        blocks: [4u32, 5, 6, 7].iter().map(|b| key(*b)).collect(),
        entries: 500,
        iterations: 4500,
        depth: 1,
        parent: None,
    });
    s
}

/// Figure 2: the example SFGL and its scaled-down version (R = 100).
pub fn fig02() -> String {
    let sfgl = figure2_example_sfgl();
    let scaled = scale_down(&sfgl, 100);
    let names = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
    let mut out = String::new();
    let _ = writeln!(out, "Figure 2 — SFGL scale-down with R = 100");
    let _ = writeln!(out, "{:<6} {:>10} {:>12}", "block", "original", "scaled");
    for (i, name) in names.iter().enumerate() {
        let key = NodeKey {
            func: 0,
            block: i as u32,
        };
        let orig = sfgl.count(key);
        let after = scaled.sfgl.count(key);
        let shown = if after == 0 {
            "removed".to_string()
        } else {
            after.to_string()
        };
        let _ = writeln!(out, "{:<6} {:>10} {:>12}", name, orig, shown);
    }
    let l = &scaled.sfgl.loops[0];
    let _ = writeln!(
        out,
        "loop at E: entries={} iterations={} (trip count preserved)",
        l.entries, l.iterations
    );
    out
}

/// Figure 3: the fibonacci kernel and its synthetic clone, side by side.
pub fn fig03() -> String {
    let original = fibonacci_workload(20);
    let art = WorkloadArtifacts::try_prepare(original, 2_000)
        .unwrap_or_else(|e| panic!("preparing workload fibonacci: {e}"));
    let original_c = ArtifactStore::global().c_text(&art.workload.program);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3(a) — original fibonacci kernel\n");
    out.push_str(&original_c);
    let _ = writeln!(
        out,
        "\nFigure 3(b) — synthetic clone (R = {})\n",
        art.synthesis.reduction_factor
    );
    out.push_str(&art.synthesis.benchmark.c_source);
    let report = SimilarityReport::compare(&original_c, &art.synthesis.benchmark.c_source);
    let _ = writeln!(
        out,
        "\nMoss similarity: {:.1}%  JPlag similarity: {:.1}%",
        report.moss * 100.0,
        report.jplag * 100.0
    );
    out
}

/// Figure 4: reduction in dynamic instruction count per benchmark.
pub fn fig04(artifacts: &[WorkloadArtifacts]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4 — dynamic instruction count of the original relative to the synthetic"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>14} {:>14} {:>10} {:>6}",
        "benchmark", "original", "synthetic", "reduction", "R"
    );
    let mut reductions = Vec::new();
    for a in artifacts {
        let red = a.synthesis.instruction_reduction();
        reductions.push(red);
        let _ = writeln!(
            out,
            "{:<24} {:>14} {:>14} {:>9.1}x {:>6}",
            a.workload.name,
            a.synthesis.original_instructions,
            a.synthesis.synthetic_instructions,
            red,
            a.synthesis.reduction_factor
        );
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    let _ = writeln!(out, "{:<24} {:>14} {:>14} {:>9.1}x", "AVERAGE", "", "", avg);
    out
}

/// The requests of a workload × point × probe grid on x86 (workload-major,
/// probes fastest), the order the suite figures render their rows in.  A
/// point is an (optimization level, synthetic?) pair.
fn x86_grid(
    artifacts: &[WorkloadArtifacts],
    points: &[(OptLevel, bool)],
    probes: &[Probe],
) -> Vec<Request> {
    let mut requests = Vec::new();
    for i in 0..artifacts.len() {
        for &(level, synthetic) in points {
            for &probe in probes {
                requests.push(Request {
                    unit: if synthetic {
                        Unit::Synthetic(i)
                    } else {
                        Unit::Original(i)
                    },
                    options: CompileOptions::new(level, TargetIsa::X86),
                    probe,
                });
            }
        }
    }
    requests
}

/// Figure 5: normalized dynamic instruction count across optimization levels
/// (average over the suite), original versus synthetic.
struct Fig05;

impl Measure for Fig05 {
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request> {
        // Level (slow) × workload × (original, synthetic).
        OptLevel::ALL
            .iter()
            .flat_map(|&level| {
                x86_grid(artifacts, &[(level, false), (level, true)], &[Probe::Count])
            })
            .collect()
    }

    fn render(&self, artifacts: &[WorkloadArtifacts], observations: &[Observation]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 5 — normalized dynamic instruction count vs optimization level"
        );
        let _ = writeln!(out, "{:<8} {:>12} {:>12}", "level", "original", "synthetic");
        let mut base: Option<(f64, f64)> = None;
        // `.max(1)`: an empty artifact slice must render a header-only figure
        // (chunks_exact panics on 0), matching the pre-refactor behaviour.
        let per_level = observations.chunks_exact(2 * artifacts.len().max(1));
        for (level, pairs) in OptLevel::ALL.into_iter().zip(per_level) {
            let pairs = pairs.chunks_exact(2);
            let org: f64 = pairs.clone().map(|p| p[0].count() as f64).sum();
            let syn: f64 = pairs.map(|p| p[1].count() as f64).sum();
            let (org_base, syn_base) = *base.get_or_insert((org, syn));
            let _ = writeln!(
                out,
                "{:<8} {:>11.1}% {:>11.1}%",
                level.to_string(),
                org / org_base * 100.0,
                syn / syn_base * 100.0
            );
        }
        out
    }
}

/// Figure 6: instruction mix (loads / stores / branches / others) at the given
/// optimization level, original versus synthetic, per benchmark and average.
struct Fig06(OptLevel);

impl Measure for Fig06 {
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request> {
        x86_grid(artifacts, &[(self.0, false), (self.0, true)], &[Probe::Mix])
    }

    fn render(&self, artifacts: &[WorkloadArtifacts], observations: &[Observation]) -> String {
        use bsg_ir::visa::MixCategory;
        let level = self.0;
        let fractions = |o: &Observation| {
            let mix = o.mix().category_fractions();
            let get = |c: MixCategory| mix.get(&c).copied().unwrap_or(0.0);
            [
                get(MixCategory::Load),
                get(MixCategory::Store),
                get(MixCategory::Branch),
                get(MixCategory::Other),
            ]
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 6 — instruction mix at {level} (ORG = original, SYN = synthetic)"
        );
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>7} {:>7} {:>7}   {:>7} {:>7} {:>7} {:>7}",
            "benchmark", "ld", "st", "br", "other", "ld", "st", "br", "other"
        );
        let mut avg_org = [0.0f64; 4];
        let mut avg_syn = [0.0f64; 4];
        for (a, rows) in artifacts.iter().zip(observations.chunks_exact(2)) {
            let (row_o, row_s) = (fractions(&rows[0]), fractions(&rows[1]));
            for i in 0..4 {
                avg_org[i] += row_o[i] / artifacts.len() as f64;
                avg_syn[i] += row_s[i] / artifacts.len() as f64;
            }
            let _ = writeln!(
                out,
                "{:<24} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%   {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
                a.workload.name,
                row_o[0] * 100.0,
                row_o[1] * 100.0,
                row_o[2] * 100.0,
                row_o[3] * 100.0,
                row_s[0] * 100.0,
                row_s[1] * 100.0,
                row_s[2] * 100.0,
                row_s[3] * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%   {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            "average",
            avg_org[0] * 100.0,
            avg_org[1] * 100.0,
            avg_org[2] * 100.0,
            avg_org[3] * 100.0,
            avg_syn[0] * 100.0,
            avg_syn[1] * 100.0,
            avg_syn[2] * 100.0,
            avg_syn[3] * 100.0
        );
        out
    }
}

/// Figures 7 and 8: data-cache hit rates from 1 KB to 32 KB at the given
/// optimization level, original versus synthetic.
struct HitRates(OptLevel);

impl Measure for HitRates {
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request> {
        x86_grid(
            artifacts,
            &[(self.0, false), (self.0, true)],
            &[Probe::Caches],
        )
    }

    fn render(&self, artifacts: &[WorkloadArtifacts], observations: &[Observation]) -> String {
        let level = self.0;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figures 7/8 — data cache hit rates at {level} (original | synthetic)"
        );
        let header: Vec<String> = SWEEP_KB.iter().map(|s| format!("{s}KB")).collect();
        let _ = writeln!(
            out,
            "{:<24} {}  |  {}",
            "benchmark",
            header.join("  "),
            header.join("  ")
        );
        let fmt = |o: &Observation| {
            o.caches()
                .iter()
                .map(|st| format!("{:>4.1}", st.hit_rate() * 100.0))
                .collect::<Vec<_>>()
                .join("  ")
        };
        for (a, pair) in artifacts.iter().zip(observations.chunks_exact(2)) {
            let _ = writeln!(
                out,
                "{:<24} {}  |  {}",
                a.workload.name,
                fmt(&pair[0]),
                fmt(&pair[1])
            );
        }
        out
    }
}

/// Figure 9: branch prediction accuracy with the hybrid predictor, original
/// and synthetic, at -O0 and -O2.
struct Fig09;

impl Measure for Fig09 {
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request> {
        // Per workload, the figure's column order.
        let points = [
            (OptLevel::O0, false),
            (OptLevel::O2, false),
            (OptLevel::O0, true),
            (OptLevel::O2, true),
        ];
        x86_grid(artifacts, &points, &[Probe::Hybrid])
    }

    fn render(&self, artifacts: &[WorkloadArtifacts], observations: &[Observation]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Figure 9 — hybrid branch predictor accuracy");
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>9} {:>9} {:>9}",
            "benchmark", "org-O0", "org-O2", "syn-O0", "syn-O2"
        );
        for (a, row) in artifacts.iter().zip(observations.chunks_exact(4)) {
            let acc = |i: usize| row[i].branches().accuracy() * 100.0;
            let _ = writeln!(
                out,
                "{:<24} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                a.workload.name,
                acc(0),
                acc(1),
                acc(2),
                acc(3)
            );
        }
        out
    }
}

/// Figure 10: CPI on a 2-wide out-of-order processor with 8/16/32 KB data
/// caches, original versus synthetic.
struct Fig10;

impl Measure for Fig10 {
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request> {
        let lanes = [8, 16, 32].map(|kb| Probe::Lane(PipelineConfig::ptlsim_2wide(kb)));
        x86_grid(
            artifacts,
            &[(OptLevel::O0, false), (OptLevel::O0, true)],
            &lanes,
        )
    }

    fn render(&self, artifacts: &[WorkloadArtifacts], observations: &[Observation]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 10 — CPI on a 2-wide out-of-order processor (original | synthetic)"
        );
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>6} {:>6}  |  {:>6} {:>6} {:>6}",
            "benchmark", "8KB", "16KB", "32KB", "8KB", "16KB", "32KB"
        );
        for (a, row) in artifacts.iter().zip(observations.chunks_exact(6)) {
            let cpi = |i: usize| row[i].lane().cpi();
            let _ = writeln!(
                out,
                "{:<24} {:>6.2} {:>6.2} {:>6.2}  |  {:>6.2} {:>6.2} {:>6.2}",
                a.workload.name,
                cpi(0),
                cpi(1),
                cpi(2),
                cpi(3),
                cpi(4),
                cpi(5)
            );
        }
        out
    }
}

/// Figure 11: normalized execution time across a machine roster and the
/// four optimization levels, original versus synthetic (benchmark
/// consolidation over the suite, as in the paper).
struct Fig11 {
    roster: fn() -> Vec<MachineConfig>,
    title: &'static str,
}

impl Measure for Fig11 {
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request> {
        // Consolidate the whole suite into a single profile and clone.
        let merged = bsg_synth::consolidate(artifacts.iter().map(|a| a.profile.as_ref()));
        let consolidated = ArtifactStore::global().synthesis(
            &merged,
            &SynthesisConfig::default(),
            SYNTH_TARGET_INSTRUCTIONS * 2,
        );
        // Unit (the workloads, then the consolidated clone) × level ×
        // machine: one timing lane per cell, on the binary its level and
        // ISA compile to.
        let units = (0..artifacts.len())
            .map(Unit::Original)
            .chain([Unit::synthesized(consolidated)]);
        let machines = (self.roster)();
        let mut requests = Vec::new();
        for unit in units {
            for level in OptLevel::ALL {
                for m in &machines {
                    requests.push(Request {
                        unit: unit.clone(),
                        options: CompileOptions::new(level, target_isa_for(m.isa)),
                        probe: Probe::Lane(m.pipeline),
                    });
                }
            }
        }
        requests
    }

    fn render(&self, artifacts: &[WorkloadArtifacts], observations: &[Observation]) -> String {
        let machines = (self.roster)();
        let cells = OptLevel::ALL.len() * machines.len();
        let time = |unit: usize, cell: usize| {
            machines[cell % machines.len()].time_ns(observations[unit * cells + cell].lane())
        };
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(
            out,
            "{:<20} {:<6} {:>12} {:>12}",
            "machine", "level", "original", "synthetic"
        );
        let mut baseline: Option<(f64, f64)> = None;
        for (mi, machine) in machines.iter().enumerate() {
            for (li, level) in OptLevel::ALL.iter().enumerate() {
                let cell = li * machines.len() + mi;
                // Original time sums the per-workload values in suite order.
                let org_time: f64 = (0..artifacts.len()).map(|u| time(u, cell)).sum();
                let syn_time = time(artifacts.len(), cell);
                let (ob, sb) = *baseline.get_or_insert((org_time, syn_time));
                let _ = writeln!(
                    out,
                    "{:<20} {:<6} {:>12.3} {:>12.3}",
                    machine.name,
                    level.to_string(),
                    org_time / ob,
                    syn_time / sb
                );
            }
        }
        out
    }
}

/// Figure 5: normalized dynamic instruction count vs optimization level.
pub const FIG05: Section = Section::Measure(&Fig05);
/// Figure 6 at `-O0`.
pub const FIG06_O0: Section = Section::Measure(&Fig06(OptLevel::O0));
/// Figure 6 at `-O2`.
pub const FIG06_O2: Section = Section::Measure(&Fig06(OptLevel::O2));
/// Figure 7: data-cache hit rates at `-O0`.
pub const FIG07: Section = Section::Measure(&HitRates(OptLevel::O0));
/// Figure 8: data-cache hit rates at `-O2`.
pub const FIG08: Section = Section::Measure(&HitRates(OptLevel::O2));
/// Figure 9: hybrid predictor accuracy.
pub const FIG09: Section = Section::Measure(&Fig09);
/// Figure 10: CPI with 8/16/32 KB data caches.
pub const FIG10: Section = Section::Measure(&Fig10);
/// Figure 11 over the five Table III machines.
pub const FIG11: Section = Section::Measure(&Fig11 {
    roster: MachineConfig::table3,
    title: "Figure 11 — normalized execution time (to Pentium 4 3GHz at -O0)",
});
/// Figure 11 over the extended roster ([`MachineConfig::table3_extended`]):
/// the two extra machines ride the executions their binaries already pay
/// for.
pub const FIG11X: Section = Section::Measure(&Fig11 {
    roster: MachineConfig::table3_extended,
    title: "Figure 11 (extended machines) — normalized execution time (to Pentium 4 3GHz at -O0)",
});

/// §V-E: Moss / JPlag similarity between each original and its clone.
pub fn obfuscation(artifacts: &[WorkloadArtifacts]) -> String {
    let reports = Runtime::current().map(artifacts.iter().collect(), |a| {
        let original_c = ArtifactStore::global().c_text(&a.workload.program);
        SimilarityReport::compare(&original_c, &a.synthesis.benchmark.c_source)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Benchmark obfuscation — plagiarism-detector similarity (lower is better)"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>8} {:>8}",
        "benchmark", "moss", "jplag", "hidden?"
    );
    for (a, report) in artifacts.iter().zip(&reports) {
        let _ = writeln!(
            out,
            "{:<24} {:>7.1}% {:>7.1}% {:>8}",
            a.workload.name,
            report.moss * 100.0,
            report.jplag * 100.0,
            if report.hides_proprietary_information(0.5) {
                "yes"
            } else {
                "NO"
            }
        );
    }
    out
}

/// Times `body` over `passes` passes and returns the retired instruction
/// count plus the fastest wall time (the noise floor).
///
/// Every pass must retire the **identical** instruction count: the measured
/// bodies are deterministic interpreter runs, so a divergence means
/// nondeterminism (or a stateful benchmark body) and every derived
/// instructions-per-second figure would be garbage.  That is surfaced as a
/// hard error rather than silently keeping the last pass's count, which is
/// what an earlier revision of `interp_bench` did.
///
/// # Panics
///
/// Panics when `passes == 0` or when two passes retire different counts.
pub fn best_of<F: FnMut() -> u64>(passes: u32, mut body: F) -> (u64, f64) {
    assert!(passes > 0, "best_of needs at least one pass");
    let mut best = f64::INFINITY;
    let mut instructions: Option<u64> = None;
    for pass in 0..passes {
        let start = std::time::Instant::now();
        let n = body();
        best = best.min(start.elapsed().as_secs_f64());
        match instructions {
            None => instructions = Some(n),
            Some(prev) => assert_eq!(
                prev, n,
                "nondeterministic measurement: pass {pass} retired {n} dynamic \
                 instructions where earlier passes retired {prev}"
            ),
        }
    }
    (instructions.expect("passes > 0"), best)
}

/// Applies a `--workers N` CLI flag if present in `args` (the CLI twin of
/// the `BSG_RUNTIME_WORKERS` env override, sharing its validation and
/// warning path via [`bsg_runtime::apply_workers_flag`]).  Must run before
/// the global runtime's first use — call it at the top of `main`.
pub fn apply_workers_arg(args: &[String]) {
    if let Some(i) = args.iter().position(|a| a == "--workers") {
        match args.get(i + 1) {
            Some(v) => bsg_runtime::apply_workers_flag(v),
            None => eprintln!("warning: ignoring --workers (it requires a value)"),
        }
    }
}

/// Prints the runtime-substrate statistics line (workers, artifact-store
/// hit/build/disk counters) to stderr — the shared tail of the heavyweight
/// binaries.
pub fn report_runtime_stats() {
    eprintln!(
        "[bsg-runtime] workers: {}; artifact store: {}",
        Runtime::global().workers(),
        ArtifactStore::global().stats()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_the_fastest_pass_and_the_common_count() {
        let mut calls = 0u64;
        let (n, secs) = best_of(3, || {
            calls += 1;
            42
        });
        assert_eq!(calls, 3);
        assert_eq!(n, 42);
        assert!(secs >= 0.0 && secs.is_finite());
    }

    #[test]
    #[should_panic(expected = "nondeterministic measurement")]
    fn best_of_rejects_diverging_instruction_counts() {
        let mut n = 0u64;
        best_of(3, || {
            n += 1;
            n // a different count every pass
        });
    }

    #[test]
    fn table_generators_produce_output() {
        assert!(table1().contains("class"));
        assert!(table3().contains("Itanium 2"));
        assert!(fig02().contains("removed"));
    }

    #[test]
    fn figure_registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert!(figure_spec("fig04").is_some());
        assert!(figure_spec("no-such-figure").is_none());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn end_to_end_artifacts_for_one_workload() {
        let w = suite(InputSize::Small).remove(3); // crc32/small
        let art = WorkloadArtifacts::try_prepare(w, 20_000).expect("crc32 prepares");
        assert!(art.synthesis.instruction_reduction() > 1.0);
        let text = fig04(&[art]);
        assert!(text.contains("crc32"));
    }

    #[test]
    fn compiled_variants_are_served_from_the_store() {
        let w = suite(InputSize::Small).remove(3); // crc32/small
        let art = WorkloadArtifacts::try_prepare(w, 20_000).expect("crc32 prepares");
        let options = CompileOptions::new(OptLevel::O1, TargetIsa::X86);
        let (o1, s1) = (art.compiled(&options, false), art.compiled(&options, true));
        let (o2, s2) = (art.compiled(&options, false), art.compiled(&options, true));
        assert!(Arc::ptr_eq(&o1, &o2), "original artifact is shared");
        assert!(Arc::ptr_eq(&s1, &s2), "synthetic artifact is shared");
    }
}
