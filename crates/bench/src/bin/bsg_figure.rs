#![forbid(unsafe_code)]

//! Renders one table or figure of the paper to stdout:
//! `cargo run -p bsg-bench --release --bin bsg-figure -- fig04`.
//!
//! The name is looked up in the declarative [`bsg_bench::FIGURES`] registry,
//! whose spec names the sections and input sizes.  A missing or unknown name
//! exits nonzero and lists the registered names on stderr.
//!
//! Faults are isolated as in `all_experiments`: a workload that fails to
//! prepare loses its rows and a failed section is skipped, each fault is
//! reported on stderr, and the process exits nonzero.
use bsg_bench::{figure_spec, render_figure, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match args.as_slice() {
        [name] => figure_spec(name),
        _ => None,
    };
    let Some(spec) = spec else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("usage: bsg-figure <name>\nnames: {}", names.join(" "));
        return ExitCode::FAILURE;
    };
    let (text, faults) = render_figure(spec);
    print!("{text}");
    for fault in &faults {
        eprintln!("[bsg-bench] {fault}");
    }
    if faults.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
