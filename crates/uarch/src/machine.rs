//! The real-hardware machine models of Table III.
//!
//! The paper runs its cross-architecture experiments (Figure 11) on five
//! machines: two Pentium 4 systems (x86), a Core 2 and a Core i7 (x86-64),
//! and an Itanium 2 (IA-64, in-order EPIC).  Each [`MachineConfig`] couples a
//! pipeline timing model with a clock frequency and names the ISA its
//! binaries must be compiled for; the experiment harness compiles each
//! workload for that ISA, and [`MachineConfig::time_ns`] divides simulated
//! cycles by the clock to obtain wall-clock execution time.

use crate::pipeline::{PipelineConfig, PipelineResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The instruction-set architecture a machine executes (mirrors the compiler
/// crate's `TargetIsa`; kept separate so the microarchitecture substrate does
/// not depend on the compiler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineIsa {
    /// 32-bit x86.
    X86,
    /// x86-64.
    X86_64,
    /// IA-64 (EPIC).
    Ia64,
}

impl fmt::Display for MachineIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MachineIsa::X86 => "x86",
            MachineIsa::X86_64 => "x86_64",
            MachineIsa::Ia64 => "IA64",
        };
        write!(f, "{s}")
    }
}

/// A machine under study (one row of Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable machine name as used in the paper.
    pub name: String,
    /// ISA the machine executes.
    pub isa: MachineIsa,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Short description (the "description" column of Table III).
    pub description: String,
    /// Pipeline/cache model.
    pub pipeline: PipelineConfig,
}

impl MachineConfig {
    /// The five machines of Table III.
    pub fn table3() -> Vec<MachineConfig> {
        vec![
            MachineConfig {
                name: "Pentium 4, 3GHz".into(),
                isa: MachineIsa::X86,
                freq_ghz: 3.0,
                description: "Pentium 4 at 3GHz w/ 1MB L2".into(),
                // Long pipeline: narrow sustained width, high mispredict penalty.
                pipeline: PipelineConfig::out_of_order(2, 96, 16, 1024, 24),
            },
            MachineConfig {
                name: "Core 2".into(),
                isa: MachineIsa::X86_64,
                freq_ghz: 2.2,
                description: "Core 2 at 2.2GHz w/ 2MB L2".into(),
                pipeline: PipelineConfig::out_of_order(4, 96, 32, 2048, 15),
            },
            MachineConfig {
                name: "Pentium 4, 2.8GHz".into(),
                isa: MachineIsa::X86,
                freq_ghz: 2.8,
                description: "Pentium 4 at 2.8GHz w/ 1MB L2".into(),
                pipeline: PipelineConfig::out_of_order(2, 96, 16, 1024, 24),
            },
            MachineConfig {
                name: "Itanium 2".into(),
                isa: MachineIsa::Ia64,
                freq_ghz: 0.9,
                description: "Itanium 2 at 900MHz w/ 256KB L2".into(),
                pipeline: PipelineConfig::epic(6, 16, 256),
            },
            MachineConfig {
                name: "Core i7".into(),
                isa: MachineIsa::X86_64,
                freq_ghz: 2.67,
                description: "Core i7 at 2.67GHz w/ 8MB L2".into(),
                pipeline: PipelineConfig::out_of_order(4, 160, 32, 8192, 14),
            },
        ]
    }

    /// The extended machine roster: Table III's five machines plus two
    /// config-space probes the batched path makes near-free (ROADMAP's
    /// scenario item) — a wider out-of-order x86-64 part and an in-order
    /// embedded x86 core.  The legacy five stay first, in Table III order,
    /// so extended sweeps are supersets of the paper's.
    pub fn table3_extended() -> Vec<MachineConfig> {
        let mut machines = Self::table3();
        machines.push(MachineConfig {
            name: "Xeon X5680".into(),
            isa: MachineIsa::X86_64,
            freq_ghz: 3.33,
            description: "6-wide Xeon at 3.33GHz w/ 12MB L2".into(),
            pipeline: PipelineConfig::out_of_order(6, 224, 32, 12288, 14),
        });
        machines.push(MachineConfig {
            name: "Atom N270".into(),
            isa: MachineIsa::X86,
            freq_ghz: 1.6,
            description: "in-order Atom at 1.6GHz w/ 512KB L2".into(),
            // The EPIC constructor is the in-order model; 2-wide here.
            pipeline: PipelineConfig::epic(2, 24, 512),
        });
        machines
    }

    /// Wall-clock execution time in nanoseconds of a run this machine's
    /// pipeline timed: simulated cycles over the clock.
    pub fn time_ns(&self, timing: &PipelineResult) -> f64 {
        timing.cycles as f64 / self.freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate;
    use bsg_ir::program::{Function, Global, Program};
    use bsg_ir::types::Ty;
    use bsg_ir::visa::{Address, BinOp, Inst, Operand, Terminator};

    fn small_loop() -> Program {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("d", 2048));
        let mut f = Function::new("main");
        let i = f.fresh_reg();
        let v = f.fresh_reg();
        let c = f.fresh_reg();
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.blocks[0].insts = vec![Inst::Mov {
            dst: i,
            src: Operand::ImmInt(0),
        }];
        f.blocks[0].term = Terminator::Jump(header);
        f.blocks[header.index()].insts = vec![Inst::Bin {
            op: BinOp::Lt,
            ty: Ty::Int,
            dst: c,
            lhs: i.into(),
            rhs: Operand::ImmInt(4000),
        }];
        f.blocks[header.index()].term = Terminator::Branch {
            cond: c,
            taken: body,
            not_taken: exit,
        };
        f.blocks[body.index()].insts = vec![
            Inst::Load {
                dst: v,
                addr: Address::global_indexed(g, 0, i, 1),
                ty: Ty::Int,
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: v,
                lhs: v.into(),
                rhs: i.into(),
            },
            Inst::Store {
                src: v.into(),
                addr: Address::global_indexed(g, 0, i, 1),
                ty: Ty::Int,
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
        f.blocks[exit.index()].term = Terminator::Return(Some(i.into()));
        p.add_function(f);
        p
    }

    #[test]
    fn table3_has_the_papers_five_machines_and_three_isas() {
        let machines = MachineConfig::table3();
        assert_eq!(machines.len(), 5);
        let isas: std::collections::HashSet<_> = machines.iter().map(|m| m.isa).collect();
        assert_eq!(isas.len(), 3);
        assert!(machines.iter().any(|m| m.name.contains("Itanium")));
        assert!(machines.iter().any(|m| m.name.contains("Core i7")));
        let itanium = machines.iter().find(|m| m.isa == MachineIsa::Ia64).unwrap();
        assert!(
            itanium.pipeline.in_order,
            "the Itanium model is in-order EPIC"
        );
    }

    #[test]
    fn faster_clock_means_lower_time_for_the_same_microarchitecture() {
        let machines = MachineConfig::table3();
        let p4_3 = machines
            .iter()
            .find(|m| m.name == "Pentium 4, 3GHz")
            .unwrap();
        let p4_28 = machines
            .iter()
            .find(|m| m.name == "Pentium 4, 2.8GHz")
            .unwrap();
        let prog = small_loop();
        let t3 = simulate(&prog, p4_3.pipeline);
        let t28 = simulate(&prog, p4_28.pipeline);
        assert_eq!(t3.cycles, t28.cycles, "identical pipelines");
        assert!(
            p4_3.time_ns(&t3) < p4_28.time_ns(&t28),
            "the 3GHz part finishes sooner"
        );
    }

    #[test]
    fn core_i7_outperforms_the_itanium_on_unscheduled_code() {
        // This mirrors the overall ranking of Figure 11: Core i7 fastest,
        // Itanium 2 slowest (low clock, in-order).
        let machines = MachineConfig::table3();
        let i7 = machines.iter().find(|m| m.name == "Core i7").unwrap();
        let itanium = machines.iter().find(|m| m.name == "Itanium 2").unwrap();
        let prog = small_loop();
        let time = |m: &MachineConfig| m.time_ns(&simulate(&prog, m.pipeline));
        assert!(time(i7) < time(itanium));
    }

    #[test]
    fn time_is_cycles_over_the_clock() {
        let machines = MachineConfig::table3();
        let timing = simulate(&small_loop(), machines[0].pipeline);
        assert!(timing.cycles > 0);
        assert_eq!(
            machines[0].time_ns(&timing),
            timing.cycles as f64 / machines[0].freq_ghz
        );
        assert!(MachineIsa::Ia64.to_string().contains("IA64"));
    }
}
