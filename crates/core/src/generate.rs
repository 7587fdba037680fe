//! Synthetic benchmark generation (§III-B of the paper).
//!
//! Given a statistical profile and a reduction factor, the generator
//!
//! 1. scales the SFGL down ([`crate::scale`]),
//! 2. builds a control-flow skeleton by repeatedly picking basic blocks pro
//!    rata their (scaled) execution counts — blocks inside loops pull in
//!    their whole (possibly nested) loop, other blocks start a chain along
//!    the most likely successors,
//! 3. populates every generated block with C statements through pattern
//!    recognition ([`crate::patterns`]) and stride-based memory references
//!    ([`crate::memory`]),
//! 4. models non-loop conditional branches after their profiled taken and
//!    transition rates (easy branches become never-taken `if`s guarding
//!    `printf` sinks, hard branches become modulo tests on a loop iterator),
//! 5. assigns the generated code to functions that deliberately do *not*
//!    correspond to the original program's functions, and
//! 6. emits the whole program as C source.

use crate::memory::MemoryGenerator;
use crate::patterns::{BlockBudget, PatternKind};
use crate::scale::{scale_down, ScaledSfgl};
use bsg_ir::build::{FunctionBuilder, StmtBuilder};
use bsg_ir::cemit;
use bsg_ir::hll::{BinOp, Expr, HllProgram, Stmt};
use bsg_profile::{NodeKey, StatisticalProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of a synthesis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisConfig {
    /// The reduction factor R (§III-B.1).  Use
    /// [`crate::reduction::synthesize_with_target`] to pick it automatically.
    pub reduction_factor: u64,
    /// Seed for the semi-random generation decisions (the "semi-random
    /// binary to source code translator" of §II-A).
    pub seed: u64,
    /// Number of synthetic functions to distribute the code over
    /// (0 = choose automatically).
    pub function_count: usize,
    /// Elements per memory-stream array.
    pub stream_elems: usize,
    /// Upper bound on generated top-level code segments (safety valve).
    pub max_segments: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            reduction_factor: 1,
            seed: 0x5F6C_1234,
            function_count: 0,
            stream_elems: 16 * 1024,
            max_segments: 256,
        }
    }
}

impl SynthesisConfig {
    /// A configuration with the given reduction factor and defaults otherwise.
    pub fn with_reduction(reduction_factor: u64) -> Self {
        SynthesisConfig {
            reduction_factor,
            ..Default::default()
        }
    }
}

bsg_ir::codec_layout!(struct SynthesisConfig {
    reduction_factor,
    seed,
    function_count,
    stream_elems,
    max_segments,
});

bsg_ir::codec_layout!(struct SynthesisStats {
    reduction_factor,
    original_dynamic_instructions,
    generated_functions,
    generated_loops,
    generated_ifs,
    statements,
    pattern_coverage,
});

bsg_ir::codec_layout!(struct SyntheticBenchmark {
    name,
    hll,
    c_source,
    stats,
});

/// Statistics about a generated benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SynthesisStats {
    /// Reduction factor used.
    pub reduction_factor: u64,
    /// Dynamic instruction count of the profiled original.
    pub original_dynamic_instructions: u64,
    /// Synthetic functions generated (excluding `main`).
    pub generated_functions: usize,
    /// `for` loops generated.
    pub generated_loops: usize,
    /// `if` statements generated.
    pub generated_ifs: usize,
    /// Statements generated in total.
    pub statements: usize,
    /// Fraction of coverable profiled instructions represented by generated
    /// statements (the paper reports >95% pattern coverage).
    pub pattern_coverage: f64,
}

/// A generated synthetic benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticBenchmark {
    /// Name (derived from the profiled workload's name).
    pub name: String,
    /// The benchmark as an HLL program (compile with `bsg-compiler`).
    pub hll: HllProgram,
    /// The benchmark as C source text (what would be distributed).
    pub c_source: String,
    /// Generation statistics.
    pub stats: SynthesisStats,
}

/// Generates a synthetic benchmark clone from a statistical profile.
pub fn synthesize(profile: &StatisticalProfile, config: &SynthesisConfig) -> SyntheticBenchmark {
    let scaled = scale_down(&profile.sfgl, config.reduction_factor);
    let mut generator = Generator::new(profile, &scaled, config);
    generator.run()
}

struct Generator<'a> {
    profile: &'a StatisticalProfile,
    scaled: &'a ScaledSfgl,
    config: &'a SynthesisConfig,
    rng: SmallRng,
    memory: MemoryGenerator,
    remaining: BTreeMap<NodeKey, u64>,
    loop_counter: usize,
    stats: SynthesisStats,
    covered: u64,
    coverable: u64,
}

impl<'a> Generator<'a> {
    fn new(
        profile: &'a StatisticalProfile,
        scaled: &'a ScaledSfgl,
        config: &'a SynthesisConfig,
    ) -> Self {
        Generator {
            profile,
            scaled,
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            memory: MemoryGenerator::new(config.stream_elems),
            remaining: scaled.sfgl.nodes.clone(),
            loop_counter: 0,
            stats: SynthesisStats {
                reduction_factor: config.reduction_factor,
                original_dynamic_instructions: profile.dynamic_instructions,
                ..SynthesisStats::default()
            },
            covered: 0,
            coverable: 0,
        }
    }

    fn run(&mut self) -> SyntheticBenchmark {
        // ---- skeleton generation (§III-B.2) --------------------------------
        let mut segments: Vec<Vec<Stmt>> = Vec::new();
        while !self.remaining.is_empty() && segments.len() < self.config.max_segments {
            let node = self.pick_weighted_node();
            let segment = if let Some(li) = self.outermost_loop_of(node) {
                let stmts = self.generate_loop(li);
                // Every block of the loop nest has now been represented.
                let blocks: Vec<NodeKey> =
                    self.scaled.sfgl.loops[li].blocks.iter().copied().collect();
                for b in blocks {
                    self.remaining.remove(&b);
                }
                stmts
            } else {
                self.generate_chain(node)
            };
            if !segment.is_empty() {
                segments.push(segment);
            }
        }

        // ---- function assignment (§III-B.3) --------------------------------
        // The grouping is deliberately unrelated to the original program's
        // function boundaries.
        let func_count = if self.config.function_count > 0 {
            self.config.function_count
        } else {
            (segments.len() / 3).clamp(1, 8)
        };
        let mut buckets: Vec<Vec<Vec<Stmt>>> = vec![Vec::new(); func_count];
        for (i, seg) in segments.into_iter().enumerate() {
            let b = if func_count > 1 {
                self.rng.gen_range(0..func_count)
            } else {
                0
            };
            buckets[(b + i) % func_count].push(seg);
        }

        let mut hll = HllProgram::new();
        let mut function_names = Vec::new();
        for (i, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let name = format!("f{i}");
            let mut fb = FunctionBuilder::new(&name);
            self.seed_scalars(fb.body());
            for seg in bucket {
                for s in seg {
                    fb.body().push(s.clone());
                }
            }
            fb.ret(Some(Expr::var("s0")));
            hll.add_function(fb.finish());
            function_names.push(name);
            self.stats.generated_functions += 1;
        }
        // main() calls every generated function and ends with the observable
        // sink that keeps the computation alive through optimization.
        let mut main = FunctionBuilder::new("main");
        for name in &function_names {
            main.call(name, vec![]);
        }
        main.if_then(
            Expr::eq(
                Expr::index(MemoryGenerator::stream_name(0), Expr::int(0)),
                Expr::int(0x99),
            ),
            |t| {
                t.print(Expr::index(MemoryGenerator::stream_name(0), Expr::int(1)));
            },
        );
        self.memory_touch(); // make sure stream 0 exists for the sink above
        main.ret(Some(Expr::int(0)));
        hll.add_function(main.finish());
        hll.entry = "main".to_string();

        for g in self.memory.globals() {
            hll.add_global(g);
        }

        self.stats.statements = hll.stmt_count();
        self.stats.pattern_coverage = if self.coverable == 0 {
            1.0
        } else {
            self.covered as f64 / self.coverable as f64
        };

        let c_source = cemit::emit_c(&hll);
        SyntheticBenchmark {
            name: format!("{}_synthetic", self.profile.name),
            hll,
            c_source,
            stats: self.stats,
        }
    }

    fn memory_touch(&mut self) {
        let _ = self.memory.reference(0, None);
    }

    /// Picks a block at random, weighted by its remaining scaled count.
    fn pick_weighted_node(&mut self) -> NodeKey {
        let total: u64 = self.remaining.values().sum();
        let mut target = self.rng.gen_range(0..total.max(1));
        for (node, count) in &self.remaining {
            if target < *count {
                return *node;
            }
            target -= count;
        }
        *self
            .remaining
            .keys()
            .next()
            .expect("remaining is non-empty")
    }

    /// The outermost surviving loop containing `node`, if any.
    fn outermost_loop_of(&self, node: NodeKey) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, l) in self.scaled.sfgl.loops.iter().enumerate() {
            if l.blocks.contains(&node) {
                match best {
                    None => best = Some(i),
                    Some(b) if l.depth < self.scaled.sfgl.loops[b].depth => best = Some(i),
                    _ => {}
                }
            }
        }
        best
    }

    /// Direct children of loop `li` in the scaled loop forest.
    fn child_loops(&self, li: usize) -> Vec<usize> {
        self.scaled
            .sfgl
            .loops
            .iter()
            .enumerate()
            .filter(|(i, l)| *i != li && l.parent == Some(li))
            .map(|(i, _)| i)
            .collect()
    }

    /// Generates one (possibly nested) `for` loop for SFGL loop `li` (§III-B.2/4).
    fn generate_loop(&mut self, li: usize) -> Vec<Stmt> {
        let l = self.scaled.sfgl.loops[li].clone();
        let trip = self.scaled.trip_count(&l).min(1 << 24) as i64;
        let var = format!("i{}", self.loop_counter);
        self.loop_counter += 1;
        self.stats.generated_loops += 1;

        // Blocks belonging directly to this loop (not to a nested loop).
        let nested: Vec<usize> = self.child_loops(li);
        let nested_blocks: std::collections::BTreeSet<NodeKey> = nested
            .iter()
            .flat_map(|&c| self.scaled.sfgl.loops[c].blocks.iter().copied())
            .collect();
        let header_count = self.scaled.count(l.header).max(1);

        let mut body = StmtBuilder::new();
        let own_blocks: Vec<NodeKey> = l
            .blocks
            .iter()
            .filter(|b| !nested_blocks.contains(b))
            .copied()
            .collect();
        for node in own_blocks {
            let stmts = self.generate_block_statements(node, Some(var.as_str()));
            let p = self.scaled.count(node) as f64 / header_count as f64;
            if node == l.header || p >= 0.9 {
                for s in stmts {
                    body.push(s);
                }
                // The paper fills the never-executed path of easy (always
                // taken / not-taken) branches with printf statements so the
                // compiler cannot remove the live computation.
                if let Some(bp) = self.profile.terminator_branch(node) {
                    if !bp.is_loop_back && bp.is_easy_to_predict() {
                        self.stats.generated_ifs += 1;
                        let (arr, idx) = self.memory.reference(0, None);
                        body.if_then(
                            Expr::eq(Expr::index(arr.clone(), idx), Expr::int(0x99)),
                            |t| {
                                t.print(Expr::var("s0"));
                                t.print(Expr::index(arr, Expr::int(3)));
                            },
                        );
                    }
                }
            } else {
                // Conditionally executed block: model the controlling branch.
                let cond = self.branch_condition(node, &var, p);
                self.stats.generated_ifs += 1;
                body.push(Stmt::If {
                    cond,
                    then_branch: stmts,
                    else_branch: Vec::new(),
                });
            }
        }
        // Nested loops are generated inside, after this loop's own blocks.
        for c in nested {
            for s in self.generate_loop(c) {
                body.push(s);
            }
        }

        let mut out = StmtBuilder::new();
        let entries = l.entries.min(1 << 20);
        if entries > 1 {
            let evar = format!("i{}", self.loop_counter);
            self.loop_counter += 1;
            self.stats.generated_loops += 1;
            out.for_loop(
                evar.as_str(),
                Expr::int(0),
                Expr::int(entries as i64),
                |outer| {
                    outer.for_loop(var.as_str(), Expr::int(0), Expr::int(trip), |b| {
                        for s in body.clone().finish() {
                            b.push(s);
                        }
                    });
                },
            );
        } else {
            out.for_loop(var.as_str(), Expr::int(0), Expr::int(trip), |b| {
                for s in body.finish() {
                    b.push(s);
                }
            });
        }
        out.finish()
    }

    /// Builds the condition modeling a conditional branch (§III-B.4): hard
    /// branches use a modulo of the loop iterator derived from the transition
    /// rate; easy branches use a coarser periodic test matching the taken rate.
    fn branch_condition(&mut self, node: NodeKey, loop_var: &str, participation: f64) -> Expr {
        let branch = self
            .profile
            .terminator_branch(node)
            .copied()
            .unwrap_or_default();
        let p = if branch.executed > 0 {
            branch.taken_rate()
        } else {
            participation
        };
        let period = if p <= 0.0 {
            i64::MAX
        } else {
            (1.0 / p.clamp(0.01, 1.0)).round() as i64
        };
        let period = period.clamp(1, 64);
        if branch.executed > 0 && !branch.is_easy_to_predict() {
            // Hard to predict: transition rate t maps to a modulo of ~2/t so
            // the outcome flips frequently.
            let t = branch.transition_rate().clamp(0.05, 1.0);
            let k = ((2.0 / t).round() as i64).clamp(2, 16);
            Expr::eq(
                Expr::bin(BinOp::Rem, Expr::var(loop_var), Expr::int(k)),
                Expr::int(0),
            )
        } else {
            Expr::lt(
                Expr::bin(BinOp::Rem, Expr::var(loop_var), Expr::int(period)),
                Expr::int(1),
            )
        }
    }

    /// Generates a straight-line chain of blocks starting at `start` by
    /// following the most likely remaining successor.
    fn generate_chain(&mut self, start: NodeKey) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut node = start;
        for _ in 0..16 {
            let Some(count) = self.remaining.get_mut(&node) else {
                break;
            };
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.remaining.remove(&node);
            }
            out.extend(self.generate_block_statements(node, None));
            // Follow the most frequent successor that still has budget and is
            // not inside a loop (loops are generated by `generate_loop`).
            let next = self
                .scaled
                .sfgl
                .successors(node)
                .into_iter()
                .filter(|(to, _)| {
                    self.remaining.contains_key(to) && self.outermost_loop_of(*to).is_none()
                })
                .max_by_key(|(_, c)| *c)
                .map(|(to, _)| to);
            match next {
                Some(n) => node = n,
                None => break,
            }
        }
        out
    }

    /// Populates one generated block with C statements via pattern
    /// recognition over the profiled instruction descriptors (§III-B.4).
    fn generate_block_statements(&mut self, node: NodeKey, loop_var: Option<&str>) -> Vec<Stmt> {
        let descs = self
            .profile
            .block_code
            .get(&node)
            .cloned()
            .unwrap_or_default();
        let mut budget = BlockBudget::from_descriptors(&descs);
        self.coverable += budget.coverable() as u64;
        let mem_classes: Vec<u8> = {
            let classes = self.profile.memory_classes_for_block(node);
            if classes.is_empty() {
                vec![0]
            } else {
                classes.iter().map(|(_, c)| *c).collect()
            }
        };
        let mut class_cursor = 0usize;
        let mut next_class = |cursor: &mut usize| {
            let c = mem_classes[*cursor % mem_classes.len()];
            *cursor += 1;
            c
        };

        let mut out = Vec::new();
        while let Some(kind) = budget.choose_pattern() {
            self.covered += budget.consume(kind) as u64;
            let stmt = self.emit_pattern(kind, loop_var, &mut next_class, &mut class_cursor);
            out.push(stmt);
            if out.len() > 256 {
                break; // safety valve for absurdly large profiled blocks
            }
        }
        out
    }

    fn emit_pattern(
        &mut self,
        kind: PatternKind,
        loop_var: Option<&str>,
        next_class: &mut impl FnMut(&mut usize) -> u8,
        cursor: &mut usize,
    ) -> Stmt {
        let op = self.pick_int_op();
        let cst = Expr::int(self.rng.gen_range(1..64));
        let scalar = format!("s{}", self.rng.gen_range(0..6));
        let scalar2 = format!("s{}", self.rng.gen_range(0..6));
        let mut mem = |gen: &mut Self, cursor: &mut usize| {
            let class = next_class(cursor);
            let (arr, idx) = gen.memory.reference(class, loop_var);
            (arr, idx)
        };
        match kind {
            PatternKind::LoadStore => {
                let (dst, di) = mem(self, cursor);
                let (src, si) = mem(self, cursor);
                Stmt::assign(bsg_ir::hll::LValue::index(dst, di), Expr::index(src, si))
            }
            PatternKind::LoadArithStore => {
                let (dst, di) = mem(self, cursor);
                let (src, si) = mem(self, cursor);
                Stmt::assign(
                    bsg_ir::hll::LValue::index(dst, di),
                    Expr::bin(op, Expr::index(src, si), cst),
                )
            }
            PatternKind::LoadLoadArithStore => {
                let (dst, di) = mem(self, cursor);
                let (a, ai) = mem(self, cursor);
                let (b, bi) = mem(self, cursor);
                Stmt::assign(
                    bsg_ir::hll::LValue::index(dst, di),
                    Expr::bin(op, Expr::index(a, ai), Expr::index(b, bi)),
                )
            }
            PatternKind::LoadLoadArithLoadArithStore => {
                let (dst, di) = mem(self, cursor);
                let (a, ai) = mem(self, cursor);
                let (b, bi) = mem(self, cursor);
                let (c, ci) = mem(self, cursor);
                let op2 = self.pick_int_op();
                Stmt::assign(
                    bsg_ir::hll::LValue::index(dst, di),
                    Expr::bin(
                        op2,
                        Expr::bin(op, Expr::index(a, ai), Expr::index(b, bi)),
                        Expr::index(c, ci),
                    ),
                )
            }
            PatternKind::LoadCmpBranch | PatternKind::Store => {
                let (dst, di) = mem(self, cursor);
                Stmt::assign(bsg_ir::hll::LValue::index(dst, di), cst)
            }
            PatternKind::ScalarArith => Stmt::assign_var(
                scalar.clone(),
                Expr::bin(
                    op,
                    Expr::bin(self.pick_int_op(), Expr::var(scalar), Expr::var(scalar2)),
                    cst,
                ),
            ),
            PatternKind::FloatArith => Stmt::assign_var(
                format!("fv{}", self.rng.gen_range(0..3)),
                Expr::bin(
                    BinOp::Mul,
                    Expr::var(format!("fv{}", self.rng.gen_range(0..3))),
                    Expr::float(1.0 + self.rng.gen_range(1..9) as f64 / 16.0),
                ),
            ),
        }
    }

    fn pick_int_op(&mut self) -> BinOp {
        const OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::And, BinOp::Or];
        OPS[self.rng.gen_range(0..OPS.len())]
    }

    /// Initializes every scalar a generated function might read.
    fn seed_scalars(&mut self, b: &mut StmtBuilder) {
        for i in 0..6 {
            b.assign_var(format!("s{i}"), Expr::int(self.rng.gen_range(1..32)));
        }
        for i in 0..3 {
            b.assign_var(format!("fv{i}"), Expr::float(1.0 + i as f64 * 0.5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_compiler::{compile, CompileOptions, OptLevel};
    use bsg_ir::build::FunctionBuilder;
    use bsg_ir::hll::HllGlobal;
    use bsg_profile::{profile_program, ProfileConfig};

    fn example_profile() -> StatisticalProfile {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("data", 8192));
        let mut main = FunctionBuilder::new("main");
        main.assign_var("acc", Expr::int(0));
        main.for_loop("i", Expr::int(0), Expr::int(2000), |b| {
            b.assign_index(
                "data",
                Expr::var("i"),
                Expr::add(Expr::var("i"), Expr::int(3)),
            );
            b.if_then(
                Expr::lt(
                    Expr::bin(BinOp::Rem, Expr::var("i"), Expr::int(3)),
                    Expr::int(1),
                ),
                |t| {
                    t.assign_var(
                        "acc",
                        Expr::add(Expr::var("acc"), Expr::index("data", Expr::var("i"))),
                    );
                },
            );
        });
        main.ret(Some(Expr::var("acc")));
        p.add_function(main.finish());
        let compiled = compile(&p, &CompileOptions::portable(OptLevel::O0)).unwrap();
        profile_program(&compiled.program, "example", &ProfileConfig::default())
    }

    #[test]
    fn synthesizes_a_compilable_shorter_benchmark() {
        let profile = example_profile();
        let synth = synthesize(&profile, &SynthesisConfig::with_reduction(20));
        assert!(synth.stats.generated_loops >= 1);
        assert!(synth.stats.statements > 5);
        assert!(synth.c_source.contains("for ("));
        assert!(synth.c_source.contains("mStream"));
        // The clone compiles and runs at every optimization level, and is much
        // shorter than the original.
        for level in OptLevel::ALL {
            let compiled =
                compile(&synth.hll, &CompileOptions::portable(level)).expect("clone compiles");
            let out = bsg_uarch::exec::run(&compiled.program);
            assert!(out.completed);
            if level == OptLevel::O0 {
                assert!(
                    out.dynamic_instructions * 4 < profile.dynamic_instructions,
                    "synthetic ({}) should be far shorter than the original ({})",
                    out.dynamic_instructions,
                    profile.dynamic_instructions
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let profile = example_profile();
        let a = synthesize(&profile, &SynthesisConfig::with_reduction(10));
        let b = synthesize(&profile, &SynthesisConfig::with_reduction(10));
        assert_eq!(a.c_source, b.c_source);
        let mut config = SynthesisConfig::with_reduction(10);
        config.seed = 999;
        let c = synthesize(&profile, &config);
        assert_ne!(
            a.c_source, c.c_source,
            "a different seed gives a different clone"
        );
    }

    #[test]
    fn pattern_coverage_is_high() {
        let profile = example_profile();
        let synth = synthesize(&profile, &SynthesisConfig::with_reduction(10));
        assert!(
            synth.stats.pattern_coverage > 0.95,
            "coverage {}",
            synth.stats.pattern_coverage
        );
    }

    #[test]
    fn larger_reduction_factors_give_shorter_clones() {
        let profile = example_profile();
        let small_r = synthesize(&profile, &SynthesisConfig::with_reduction(5));
        let big_r = synthesize(&profile, &SynthesisConfig::with_reduction(100));
        let run = |s: &SyntheticBenchmark| {
            let c = compile(&s.hll, &CompileOptions::portable(OptLevel::O0)).unwrap();
            bsg_uarch::exec::run(&c.program).dynamic_instructions
        };
        assert!(run(&big_r) < run(&small_r));
    }

    #[test]
    fn clone_does_not_reuse_original_identifiers() {
        let profile = example_profile();
        let synth = synthesize(&profile, &SynthesisConfig::with_reduction(10));
        assert!(
            !synth.c_source.contains("data"),
            "original array names must not leak"
        );
        assert!(
            !synth.c_source.contains("acc"),
            "original variable names must not leak"
        );
    }
}
