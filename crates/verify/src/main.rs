//! `bsg-verify` — static verification sweeps and the unsafe-ledger audit.
//!
//! Modes (default: all of them, with 500 random programs):
//!
//! * `--registry` — compile all registry workloads at `-O0` and `-O2`, build
//!   fused + unfused images, and require `verify_image` to accept every one
//!   (the fused image against the unfused decode, the unfused against itself).
//! * `--random N` — same acceptance over `N` random programs from the
//!   differential generators (general + `-O0` frame-shaped).
//! * `--self-test N` — mutation kit: corrupt valid images every way the kit
//!   knows and require `verify_image` to reject 100% of mutants.
//! * `--audit-unsafe [ROOT]` — scan workspace sources for `unsafe` blocks
//!   without a `// SAFETY(ledger: ...)` tag (or citing unchecked invariants),
//!   and crate roots missing the `unsafe_code` lint.
//!
//! Exits non-zero on any failure; prints one summary line per mode (the CI
//! `verify` job greps nothing — the exit code is the contract).

#![forbid(unsafe_code)]

use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_uarch::image::ExecImage;
use bsg_uarch::verify::{corrupt_image, verify_image, ALL_CORRUPTIONS};
use bsg_verify::gen::{o0_frame_program, Gen};
use bsg_verify::{audit, ledger_is_fully_checked};
use rand::Rng;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failures = 0usize;
    let mut ran_any = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--registry" => {
                ran_any = true;
                failures += registry_sweep();
            }
            "--random" => {
                ran_any = true;
                let n = match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => {
                        i += 1;
                        n
                    }
                    None => 500,
                };
                failures += random_sweep(n);
            }
            "--self-test" => {
                ran_any = true;
                let n = match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => {
                        i += 1;
                        n
                    }
                    None => 50,
                };
                failures += mutation_self_test(n);
            }
            "--audit-unsafe" => {
                ran_any = true;
                let root = args.get(i + 1).filter(|s| !s.starts_with("--")).map(|s| {
                    i += 1;
                    PathBuf::from(s)
                });
                failures += audit_unsafe(root);
            }
            other => {
                eprintln!("bsg-verify: unknown argument `{other}`");
                eprintln!(
                    "usage: bsg-verify [--registry] [--random N] [--self-test N] \
                     [--audit-unsafe [ROOT]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !ran_any {
        failures += registry_sweep();
        failures += random_sweep(500);
        failures += mutation_self_test(50);
        failures += audit_unsafe(None);
    }
    if failures > 0 {
        eprintln!("bsg-verify: FAILED ({failures} failures)");
        std::process::exit(1);
    }
    println!("bsg-verify: all checks passed");
}

/// Builds both image forms for one program and verifies each; returns the
/// number of rejections (counted as failures — these are valid programs).
fn verify_both(what: &str, program: &bsg_ir::Program) -> usize {
    let mut failures = 0;
    let fused = ExecImage::new(program);
    let unfused = ExecImage::unfused(program);
    for (form, image) in [("fused", &fused), ("unfused", &unfused)] {
        if let Err(e) = verify_image(image, &unfused) {
            eprintln!("FALSE POSITIVE: {what} ({form}): {e}");
            failures += 1;
        }
    }
    failures
}

fn registry_sweep() -> usize {
    let start = Instant::now();
    let mut failures = 0;
    let mut images = 0;
    let mut decode = std::time::Duration::ZERO;
    let mut verif = std::time::Duration::ZERO;
    for w in bsg_workloads::full_suite() {
        for level in [OptLevel::O0, OptLevel::O2] {
            let compiled = match compile(&w.program, &CompileOptions::new(level, TargetIsa::X86)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{} does not compile at {level}: {e}", w.name);
                    failures += 1;
                    continue;
                }
            };
            let t0 = Instant::now();
            let fused = ExecImage::new(&compiled.program);
            let unfused = ExecImage::unfused(&compiled.program);
            decode += t0.elapsed();
            let t1 = Instant::now();
            for (form, image) in [("fused", &fused), ("unfused", &unfused)] {
                images += 1;
                if let Err(e) = verify_image(image, &unfused) {
                    eprintln!("FALSE POSITIVE: {}@{level} ({form}): {e}", w.name);
                    failures += 1;
                }
            }
            verif += t1.elapsed();
        }
    }
    println!(
        "registry: {images} images verified, {failures} failures \
         (decode {decode:.1?}, verify {verif:.1?}, {:.1}% of decode+verify)",
        100.0 * verif.as_secs_f64() / (decode + verif).as_secs_f64().max(1e-9)
    );
    println!("registry sweep done in {:.1?}", start.elapsed());
    failures
}

fn random_sweep(n: u64) -> usize {
    let start = Instant::now();
    let mut failures = 0;
    // Half general random programs, half -O0 frame-shaped ones (the shapes
    // that exercise slot typing, zero-fill elision and frame fusion).
    for seed in 0..n / 2 {
        let mut g = Gen::from_seed(seed, 0);
        g.nglobals = g.rng.gen_range(0u32..3);
        let program = g.program();
        failures += verify_both(&format!("random seed {seed}"), &program);
    }
    for seed in 0..n - n / 2 {
        let program = o0_frame_program(seed);
        failures += verify_both(&format!("o0-frame seed {seed}"), &program);
    }
    println!(
        "random: {n} programs ({} images) verified, {failures} failures in {:.1?}",
        2 * n,
        start.elapsed()
    );
    failures
}

fn mutation_self_test(n: u64) -> usize {
    let start = Instant::now();
    let mut failures = 0;
    let mut mutants = 0;
    let mut inapplicable = 0;
    let mut survived = 0;
    let mut check = |what: &str, program: &bsg_ir::Program| {
        let image = ExecImage::new(program);
        let reference = ExecImage::unfused(program);
        for c in ALL_CORRUPTIONS {
            match corrupt_image(&image, &reference, c) {
                None => inapplicable += 1,
                Some((mutant, mutant_reference)) => {
                    mutants += 1;
                    if verify_image(&mutant, &mutant_reference).is_ok() {
                        eprintln!("MUTANT SURVIVED: {what} under {c:?}");
                        survived += 1;
                    }
                }
            }
        }
    };
    for seed in 0..n {
        let mut g = Gen::from_seed(seed, 0);
        g.nglobals = g.rng.gen_range(0u32..3);
        check(&format!("random seed {seed}"), &g.program());
        check(&format!("o0-frame seed {seed}"), &o0_frame_program(seed));
    }
    // A couple of registry images too, for realistic shapes.
    for w in bsg_workloads::full_suite().into_iter().take(4) {
        if let Ok(c) = compile(
            &w.program,
            &CompileOptions::new(OptLevel::O2, TargetIsa::X86),
        ) {
            check(&w.name, &c.program);
        }
    }
    failures += survived;
    println!(
        "self-test: {mutants} mutants, {survived} survived, {inapplicable} inapplicable \
         in {:.1?}",
        start.elapsed()
    );
    failures
}

fn audit_unsafe(root: Option<PathBuf>) -> usize {
    let start = Instant::now();
    let mut failures = 0;
    if let Err(e) = ledger_is_fully_checked() {
        eprintln!("ledger drift: {e}");
        failures += 1;
    }
    let root = root.unwrap_or_else(|| {
        audit::find_workspace_root(
            &std::env::var("CARGO_MANIFEST_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))),
        )
    });
    let citable = bsg_verify::citable_invariants();
    let report = audit::audit_workspace(&root, &citable);
    print!("{report}");
    failures += report.errors.len();
    // Process-ledger pass: signal handlers must be atomic-flag-only.
    let handler_errors = audit::audit_signal_handlers(&root);
    for e in &handler_errors {
        eprintln!("  error: {e}");
    }
    failures += handler_errors.len();
    println!("audit-unsafe done in {:.1?}", start.elapsed());
    failures
}
