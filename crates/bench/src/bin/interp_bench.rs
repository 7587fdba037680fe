#![forbid(unsafe_code)]

//! Interpreter-throughput benchmark: times the predecoded engine — in its
//! fused (superinstructions + untagged register file) and unfused forms —
//! against the legacy `dyn`-dispatch tree-walking interpreter under three
//! observer loads (none, the scalar oracle pipeline model `PipelineSim`,
//! full statistical profiler), over the strided-loop microbenchmark plus
//! the whole workload suite.  `profile_image` profiles a fused image through
//! a fresh unfused decode, so `profile/fused` includes that decode and
//! measures what the artifact store's profile builds pay.
//!
//! Pass `--large` to run the large-input suite (feasible now that compiled
//! programs and predecoded images come out of the artifact store).  Pass
//! `--assert-null-speedup <x>` to fail (exit 1) when the fused engine's
//! `NullObserver` speedup over the legacy engine drops below `x` — CI uses
//! this as a throughput-regression tripwire.  Pass `--machine-axis` to also
//! time the Table III machine sweep both ways — one scalar oracle run per
//! machine on the unfused image versus one batched `simulate_image_batch`
//! execution on the fused image, as the figures run it — after
//! asserting per-lane bit-parity between the two; `--assert-batched-speedup
//! <x>` (implies `--machine-axis`) fails the run when the batched sweep's
//! speedup drops below `x`.  Pass `--workers N` to pin the scheduler width
//! used during preparation (same validation as `BSG_RUNTIME_WORKERS`).
//!
//! Preparation (compiling the suite and predecoding images) fans out through
//! `bsg-runtime`'s scheduler and artifact store; the *measurement* loops stay
//! sequential so per-configuration timings are not polluted by concurrent
//! load on the same cores.
//!
//! Writes `BENCH_interp.json` (instructions/sec per configuration and the
//! derived speedups) so the performance trajectory is tracked from PR to PR,
//! and prints a human-readable summary.
//!
//! Run with `cargo run -p bsg-bench --release --bin interp_bench`.

use bsg_bench::best_of;
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_ir::program::{Function, Global, Program};
use bsg_ir::types::Ty;
use bsg_ir::visa::{Address, BinOp, Inst, Operand, Terminator};
use bsg_profile::{profile_image, profile_program_reference, ProfileConfig};
use bsg_runtime::{ArtifactStore, CompiledArtifact, Runtime};
use bsg_uarch::batch::simulate_image_batch;
use bsg_uarch::exec::{execute_image, execute_legacy, ExecConfig, NullObserver};
use bsg_uarch::image::ExecImage;
use bsg_uarch::machine::MachineConfig;
use bsg_uarch::pipeline::{PipelineConfig, PipelineResult, PipelineSim};
use bsg_workloads::{suite, InputSize};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The strided-loop microbenchmark from the pipeline tests: a load / add /
/// store / induction chain, the executor's classic worst case for per-
/// instruction overhead.
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

/// Times `image` under `config` with the scalar oracle model.
fn oracle(image: &ExecImage, config: PipelineConfig, limit: &ExecConfig) -> PipelineResult {
    let mut sim = PipelineSim::from_image(config, image);
    execute_image(image, &mut sim, limit);
    sim.result()
}

struct Measurement {
    config: &'static str,
    instructions: u64,
    seconds: f64,
}

impl Measurement {
    fn ips(&self) -> f64 {
        if self.seconds > 0.0 {
            self.instructions as f64 / self.seconds
        } else {
            f64::INFINITY
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    bsg_bench::apply_workers_arg(&args);
    let input = if args.iter().any(|a| a == "--large") {
        InputSize::Large
    } else {
        InputSize::Small
    };
    let assert_null_speedup: Option<f64> = args
        .iter()
        .position(|a| a == "--assert-null-speedup")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--assert-null-speedup needs a numeric argument")
        });
    let assert_batched_speedup: Option<f64> = args
        .iter()
        .position(|a| a == "--assert-batched-speedup")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--assert-batched-speedup needs a numeric argument")
        });
    let machine_axis =
        args.iter().any(|a| a == "--machine-axis") || assert_batched_speedup.is_some();
    let limit = ExecConfig {
        max_instructions: 30_000_000,
        max_call_depth: 128,
    };
    let passes = 3;
    let wall_start = Instant::now();

    // Programs under measurement: the microbenchmark + the compiled suite.
    // The suite's compiles and predecoded images come out of the artifact
    // store, fanned out on the task scheduler; the VISA-level
    // microbenchmark has no HLL source, so its image is built directly.
    let micro = strided_loop(1 << 14, 3, 400_000);
    let micro_image = ExecImage::new(&micro);
    let micro_unfused = ExecImage::unfused(&micro);
    let compiled: Vec<(String, Arc<CompiledArtifact>, ExecImage)> =
        Runtime::global().map(suite(input), |w| {
            let art = ArtifactStore::global()
                .compiled(&w.program, &CompileOptions::portable(OptLevel::O0));
            let unfused = ExecImage::unfused(&art.program);
            (w.name, art, unfused)
        });
    let prep_seconds = wall_start.elapsed().as_secs_f64();

    let mut names: Vec<&str> = vec!["strided_loop"];
    let mut programs: Vec<&Program> = vec![&micro];
    // The store's images are fully optimized (untagged banks + fusion); the
    // unfused images isolate the fusion pass's contribution.
    let mut images: Vec<&ExecImage> = vec![&micro_image];
    let mut images_unfused: Vec<&ExecImage> = vec![&micro_unfused];
    for (name, art, unfused) in &compiled {
        names.push(name);
        programs.push(&art.program);
        images.push(&art.image);
        images_unfused.push(unfused);
    }

    let mut results: Vec<Measurement> = Vec::new();
    let mut push = |config: &'static str, measured: Vec<(u64, f64)>| {
        let instructions = measured.iter().map(|(i, _)| i).sum();
        let seconds = measured.iter().map(|(_, s)| s).sum();
        results.push(Measurement {
            config,
            instructions,
            seconds,
        });
    };

    // --- No observer: raw interpreted instructions/sec. -------------------
    // The per-program measurements of the null configs are kept so the
    // per-kernel speedup breakdown below can name the laggards (fft,
    // basicmath, ...) instead of hiding them in the suite-wide mean.
    let null_fused: Vec<(u64, f64)> = images
        .iter()
        .map(|image| {
            best_of(passes, || {
                execute_image(image, &mut NullObserver, &limit).dynamic_instructions
            })
        })
        .collect();
    let null_legacy: Vec<(u64, f64)> = programs
        .iter()
        .map(|p| {
            best_of(passes, || {
                execute_legacy(p, &mut NullObserver, &limit).dynamic_instructions
            })
        })
        .collect();
    push("null/fused", null_fused.clone());
    push(
        "null/predecoded",
        images_unfused
            .iter()
            .map(|image| {
                best_of(passes, || {
                    execute_image(image, &mut NullObserver, &limit).dynamic_instructions
                })
            })
            .collect(),
    );
    push("null/legacy", null_legacy.clone());

    // --- Scalar oracle pipeline model as the observer. ---------------------
    // One fixed heavyweight observer for all three engines; the legacy
    // engine reads its site table from the program's image.
    let pipe = PipelineConfig::ptlsim_2wide(16);
    push(
        "pipeline/fused",
        images
            .iter()
            .map(|image| best_of(passes, || oracle(image, pipe, &limit).instructions))
            .collect(),
    );
    push(
        "pipeline/predecoded",
        images_unfused
            .iter()
            .map(|image| best_of(passes, || oracle(image, pipe, &limit).instructions))
            .collect(),
    );
    push(
        "pipeline/legacy",
        programs
            .iter()
            .zip(&images)
            .map(|(p, image)| {
                best_of(passes, || {
                    let mut sim = PipelineSim::from_image(pipe, image);
                    execute_legacy(p, &mut sim, &limit);
                    sim.result().instructions
                })
            })
            .collect(),
    );

    // --- Full statistical profiler as the observer. -----------------------
    let prof_cfg = ProfileConfig::default();
    push(
        "profile/fused",
        programs
            .iter()
            .zip(&images)
            .zip(&names)
            .map(|((p, image), name)| {
                best_of(passes, || {
                    profile_image(p, image, name, &prof_cfg).dynamic_instructions
                })
            })
            .collect(),
    );
    push(
        "profile/predecoded",
        programs
            .iter()
            .zip(&images_unfused)
            .zip(&names)
            .map(|((p, image), name)| {
                best_of(passes, || {
                    profile_image(p, image, name, &prof_cfg).dynamic_instructions
                })
            })
            .collect(),
    );
    push(
        "profile/legacy",
        programs
            .iter()
            .zip(&names)
            .map(|(p, name)| {
                best_of(passes, || {
                    profile_program_reference(p, name, &prof_cfg).dynamic_instructions
                })
            })
            .collect(),
    );

    // --- Machine-axis sweep: scalar oracle per machine vs one batched ------
    // execution of the full Table III roster over one image.  A Figure 11
    // task runs one such batch per distinct binary of its unit's
    // (level, machine) grid; at -O0 that is this whole roster.
    // Both sides run without a budget, as the figures do: the oracle on the
    // unfused image, the batched model on the store's fused image.  Parity
    // is asserted before anything is timed — a fast wrong answer is not a
    // win.
    let machine_axis_result: Option<(f64, f64, f64)> = machine_axis.then(|| {
        let machines = MachineConfig::table3();
        let configs: Vec<PipelineConfig> = machines.iter().map(|m| m.pipeline).collect();
        let unbounded = ExecConfig::default();
        for (_, art, unfused) in &compiled {
            let lanes = simulate_image_batch(&art.image, &configs);
            for (c, lane) in configs.iter().zip(lanes) {
                assert_eq!(
                    lane,
                    oracle(unfused, *c, &unbounded),
                    "batched lane diverged from the scalar oracle"
                );
            }
        }
        let time_passes = |sweep: &mut dyn FnMut()| {
            let mut best = f64::INFINITY;
            for _ in 0..passes {
                let start = Instant::now();
                sweep();
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        };
        let scalar_seconds = time_passes(&mut || {
            for (_, _, unfused) in &compiled {
                for c in &configs {
                    std::hint::black_box(oracle(unfused, *c, &unbounded));
                }
            }
        });
        let batched_seconds = time_passes(&mut || {
            for (_, art, _) in &compiled {
                std::hint::black_box(simulate_image_batch(&art.image, &configs));
            }
        });
        let speedup = if batched_seconds > 0.0 {
            scalar_seconds / batched_seconds
        } else {
            0.0
        };
        (batched_seconds, scalar_seconds, speedup)
    });

    // --- Report. ----------------------------------------------------------
    let ips_of = |config: &str| {
        results
            .iter()
            .find(|m| m.config == config)
            .map(Measurement::ips)
            .unwrap_or(0.0)
    };
    let speedup = |kind: &str, engine: &str| {
        let new = ips_of(&format!("{kind}/{engine}"));
        let old = ips_of(&format!("{kind}/legacy"));
        if old > 0.0 {
            new / old
        } else {
            0.0
        }
    };
    let (null_x, pipe_x, prof_x) = (
        speedup("null", "predecoded"),
        speedup("pipeline", "predecoded"),
        speedup("profile", "predecoded"),
    );
    let (null_fx, pipe_fx, prof_fx) = (
        speedup("null", "fused"),
        speedup("pipeline", "fused"),
        speedup("profile", "fused"),
    );
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    println!(
        "interpreter throughput over {} programs ({} total dynamic instructions, {} inputs)",
        programs.len(),
        results[0].instructions,
        input
    );
    println!("{:<22} {:>16} {:>10}", "config", "inst/sec", "seconds");
    for m in &results {
        println!("{:<22} {:>16.0} {:>10.3}", m.config, m.ips(), m.seconds);
    }
    println!("speedup fused vs legacy:      null {null_fx:.2}x, pipeline {pipe_fx:.2}x, profile {prof_fx:.2}x");
    println!("speedup predecoded vs legacy: null {null_x:.2}x, pipeline {pipe_x:.2}x, profile {prof_x:.2}x");

    // Per-kernel null/fused vs null/legacy breakdown, slowest speedup first,
    // so laggards are visible in the trajectory instead of only in prose.
    let per_kernel: Vec<(&str, f64, f64, f64)> = names
        .iter()
        .zip(null_fused.iter().zip(&null_legacy))
        .map(|(name, (&(fi, fs), &(li, ls)))| {
            // Zero-duration measurements (a clock that didn't tick) report
            // 0.0, never INFINITY: the values land in BENCH_interp.json and
            // `inf` is not valid JSON.
            let fused_ips = if fs > 0.0 { fi as f64 / fs } else { 0.0 };
            let legacy_ips = if ls > 0.0 { li as f64 / ls } else { 0.0 };
            let speedup = if legacy_ips > 0.0 {
                fused_ips / legacy_ips
            } else {
                0.0
            };
            (*name, fused_ips, legacy_ips, speedup)
        })
        .collect();
    let mut by_speedup = per_kernel.clone();
    by_speedup.sort_by(|a, b| a.3.total_cmp(&b.3));
    println!("per-kernel null/fused speedup vs legacy (slowest first):");
    for (name, _, _, speedup) in &by_speedup {
        println!("  {name:<24} {speedup:>6.2}x");
    }
    if let Some((batched_seconds, scalar_seconds, batched_speedup)) = machine_axis_result {
        println!(
            "machine-axis sweep (Table III roster, {} images): scalar {scalar_seconds:.3}s, \
             batched {batched_seconds:.3}s, speedup {batched_speedup:.2}x",
            compiled.len()
        );
    }
    println!(
        "wall-clock: {wall_seconds:.3}s total ({prep_seconds:.3}s compile+predecode via {})",
        ArtifactStore::global().stats()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"interp_bench\",");
    let _ = writeln!(json, "  \"input_size\": \"{input}\",");
    // Suite size is recorded so kernel-count jumps (13 → 18 in PR 4) are
    // visible in the perf trajectory instead of silently moving the baseline.
    let _ = writeln!(json, "  \"suite_size\": {},", compiled.len());
    let _ = writeln!(json, "  \"programs\": {},", programs.len());
    let _ = writeln!(json, "  \"passes_per_measurement\": {passes},");
    let _ = writeln!(json, "  \"wall_seconds\": {wall_seconds:.3},");
    let _ = writeln!(json, "  \"prepare_seconds\": {prep_seconds:.3},");
    // Machine-axis fields appear only when measured (`--machine-axis`), so
    // runs without the sweep do not record misleading zeros.
    if let Some((batched_seconds, scalar_seconds, batched_speedup)) = machine_axis_result {
        let _ = writeln!(
            json,
            "  \"machine_axis_batched_seconds\": {batched_seconds:.6},"
        );
        let _ = writeln!(
            json,
            "  \"machine_axis_scalar_seconds\": {scalar_seconds:.6},"
        );
        let _ = writeln!(json, "  \"batched_speedup\": {batched_speedup:.3},");
    }
    let _ = writeln!(json, "  \"workloads\": [{}],", {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    });
    let _ = writeln!(json, "  \"configs\": [");
    for (i, m) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"instructions\": {}, \"seconds\": {:.6}, \"instructions_per_second\": {:.0}}}{}",
            m.config,
            m.instructions,
            m.seconds,
            m.ips(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"per_kernel_null_speedup\": {{");
    for (i, (name, fused_ips, legacy_ips, speedup)) in per_kernel.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"fused_ips\": {fused_ips:.0}, \"legacy_ips\": {legacy_ips:.0}, \"speedup\": {speedup:.3}}}{}",
            if i + 1 < per_kernel.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup_fused_vs_legacy\": {{");
    let _ = writeln!(json, "    \"null_observer\": {null_fx:.3},");
    let _ = writeln!(json, "    \"pipeline_sim\": {pipe_fx:.3},");
    let _ = writeln!(json, "    \"full_profiler\": {prof_fx:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup_predecoded_vs_legacy\": {{");
    let _ = writeln!(json, "    \"null_observer\": {null_x:.3},");
    let _ = writeln!(json, "    \"pipeline_sim\": {pipe_x:.3},");
    let _ = writeln!(json, "    \"full_profiler\": {prof_x:.3}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_interp.json", json).expect("write BENCH_interp.json");
    println!("wrote BENCH_interp.json");

    if let Some(floor) = assert_null_speedup {
        if null_fx < floor {
            eprintln!(
                "FAIL: null/fused speedup {null_fx:.2}x is below the required floor {floor:.2}x"
            );
            std::process::exit(1);
        }
        println!("null/fused speedup {null_fx:.2}x meets the {floor:.2}x floor");
    }
    if let Some(floor) = assert_batched_speedup {
        let measured = machine_axis_result
            .map(|(_, _, s)| s)
            .expect("--assert-batched-speedup implies --machine-axis");
        if measured < floor {
            eprintln!(
                "FAIL: batched machine-axis speedup {measured:.2}x is below the required floor {floor:.2}x"
            );
            std::process::exit(1);
        }
        println!("batched machine-axis speedup {measured:.2}x meets the {floor:.2}x floor");
    }
}
