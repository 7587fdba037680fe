//! The real-hardware machine models of Table III.
//!
//! The paper runs its cross-architecture experiments (Figure 11) on five
//! machines: two Pentium 4 systems (x86), a Core 2 and a Core i7 (x86-64),
//! and an Itanium 2 (IA-64, in-order EPIC).  Each [`MachineConfig`] couples a
//! pipeline timing model with a clock frequency and names the ISA its
//! binaries must be compiled for; the experiment harness compiles each
//! workload for that ISA and divides simulated cycles by the clock to obtain
//! wall-clock execution time.

use crate::batch::simulate_image_batch;
use crate::image::ExecImage;
use crate::pipeline::{simulate, simulate_image, PipelineConfig, PipelineResult};
use bsg_ir::Program;
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

    /// Runs a (pre-compiled) program on this machine model.
    pub fn run(&self, program: &Program) -> MachineResult {
        let timing = simulate(program, self.pipeline);
        self.result_of(timing)
    }

    /// [`run`](Self::run) over a prebuilt [`ExecImage`]: a one-machine
    /// [`run_batch`](Self::run_batch).
    pub fn run_image(&self, image: &ExecImage) -> MachineResult {
        self.result_of(simulate_image(image, self.pipeline))
    }

    /// Times one compiled image on **many** machine models with a single
    /// functional execution ([`simulate_image_batch`]), in roster order, at
    /// roughly the cost of one.  Callers group machines by binary
    /// themselves — every machine in the batch times the *same* image, so
    /// the grouping decision (which machines run identical code) stays
    /// with the layer that compiles.
    pub fn run_batch(machines: &[MachineConfig], image: &ExecImage) -> Vec<MachineResult> {
        let configs: Vec<PipelineConfig> = machines.iter().map(|m| m.pipeline).collect();
        machines
            .iter()
            .zip(simulate_image_batch(image, &configs))
            .map(|(m, timing)| m.result_of(timing))
            .collect()
    }

    fn result_of(&self, timing: PipelineResult) -> MachineResult {
        MachineResult {
            machine: self.name.clone(),
            time_ns: timing.cycles as f64 / self.freq_ghz,
            timing,
        }
    }
}

/// The outcome of running a program on a machine model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineResult {
    /// Machine name.
    pub machine: String,
    /// Wall-clock execution time in nanoseconds.
    pub time_ns: f64,
    /// Pipeline-level details.
    pub timing: PipelineResult,
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let t3 = p4_3.run(&prog);
        let t28 = p4_28.run(&prog);
        assert_eq!(t3.timing.cycles, t28.timing.cycles, "identical pipelines");
        assert!(t3.time_ns < t28.time_ns, "the 3GHz part finishes sooner");
    }

    #[test]
    fn core_i7_outperforms_the_itanium_on_unscheduled_code() {
        // This mirrors the overall ranking of Figure 11: Core i7 fastest,
        // Itanium 2 slowest (low clock, in-order).
        let machines = MachineConfig::table3();
        let i7 = machines.iter().find(|m| m.name == "Core i7").unwrap();
        let itanium = machines.iter().find(|m| m.name == "Itanium 2").unwrap();
        let prog = small_loop();
        assert!(i7.run(&prog).time_ns < itanium.run(&prog).time_ns);
    }

    #[test]
    fn machine_result_reports_time_and_name() {
        let machines = MachineConfig::table3();
        let r = machines[0].run(&small_loop());
        assert!(r.time_ns > 0.0);
        assert_eq!(r.machine, machines[0].name);
        assert!(MachineIsa::Ia64.to_string().contains("IA64"));
    }
}
