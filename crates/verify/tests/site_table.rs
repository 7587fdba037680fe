//! The image's per-site def/use table — what every timing model reads for
//! each dynamic instruction — recomputed from the IR: for every `SiteMeta`
//! of the fused and unfused images, `def` and `uses` equal `Inst::def()` and
//! the first three `Inst::uses()` at `meta.site`, and a terminator site
//! carries the `Branch` condition (and nothing for `Jump` / `Return`).  Every
//! instruction and terminator of the program owns exactly one site.
//!
//! Runs over the registry at `-O0` and `-O2` and over the random-program
//! generators of the differential property sweep.

use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_ir::program::Program;
use bsg_ir::types::Reg;
use bsg_ir::visa::{InstClass, Terminator};
use bsg_uarch::image::ExecImage;
use bsg_verify::gen::{o0_frame_program, Gen};
use proptest::prelude::*;
use rand::Rng;
use std::collections::HashSet;

/// `(def, uses, class)` the IR assigns to one static site.
fn expected(
    program: &Program,
    func: usize,
    block: usize,
    index: usize,
) -> (Option<Reg>, [Option<Reg>; 3], InstClass) {
    let b = &program.functions[func].blocks[block];
    if index == usize::MAX {
        let cond = match &b.term {
            Terminator::Branch { cond, .. } => Some(*cond),
            _ => None,
        };
        return (None, [cond, None, None], InstClass::Branch);
    }
    let inst = &b.insts[index];
    let mut uses = [None; 3];
    for (slot, reg) in uses.iter_mut().zip(inst.uses()) {
        *slot = Some(reg);
    }
    (inst.def(), uses, inst.class())
}

fn check_site_table(program: &Program) -> Result<(), String> {
    let sites: usize = program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() + 1)
        .sum();
    for (form, image) in [
        ("fused", ExecImage::new(program)),
        ("unfused", ExecImage::unfused(program)),
    ] {
        let metas = image.site_metas();
        if metas.len() != sites {
            return Err(format!(
                "{form}: {} sites for {sites} instructions",
                metas.len()
            ));
        }
        let mut seen = HashSet::new();
        for (id, meta) in metas.iter().enumerate() {
            let s = meta.site;
            if !seen.insert((s.func, s.block, s.index)) {
                return Err(format!("{form}: site {id} repeats {s:?}"));
            }
            let (def, uses, class) = expected(program, s.func.0 as usize, s.block.index(), s.index);
            if (meta.def, meta.uses, meta.class) != (def, uses, class) {
                return Err(format!(
                    "{form}: site {id} at {s:?} has def {:?} uses {:?} class {:?}, \
                     the IR says {def:?} {uses:?} {class:?}",
                    meta.def, meta.uses, meta.class
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn registry_site_tables_match_the_ir() {
    for w in bsg_workloads::full_suite() {
        for level in [OptLevel::O0, OptLevel::O2] {
            let compiled = compile(&w.program, &CompileOptions::new(level, TargetIsa::X86))
                .unwrap_or_else(|e| panic!("{} fails to compile at {level}: {e}", w.name));
            if let Err(e) = check_site_table(&compiled.program) {
                panic!("{}@{level}: {e}", w.name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_program_site_tables_match_the_ir(seed in 0u64..1_000_000) {
        let mut g = Gen::from_seed(seed, 0);
        g.nglobals = g.rng.gen_range(0u32..3);
        prop_assert_eq!(check_site_table(&g.program()), Ok(()), "seed {}", seed);
    }

    #[test]
    fn o0_frame_program_site_tables_match_the_ir(seed in 0u64..1_000_000) {
        prop_assert_eq!(check_site_table(&o0_frame_program(seed)), Ok(()), "seed {}", seed);
    }
}
