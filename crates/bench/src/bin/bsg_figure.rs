#![forbid(unsafe_code)]

//! Renders one table or figure of the paper to stdout:
//! `cargo run -p bsg-bench --release --bin bsg-figure -- fig04`.
//!
//! The name is looked up in the declarative [`bsg_bench::FIGURES`] registry,
//! whose spec names the sections and input sizes.  A missing or unknown name
//! exits nonzero and lists the registered names on stderr.
use bsg_bench::{figure_spec, render_figure, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [name] if figure_spec(name).is_some() => {
            print!("{}", render_figure(name));
            ExitCode::SUCCESS
        }
        _ => {
            let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            eprintln!("usage: bsg-figure <name>\nnames: {}", names.join(" "));
            ExitCode::FAILURE
        }
    }
}
