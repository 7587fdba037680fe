//! The `bsg-figure <name>` binary prints exactly what `render_figure`
//! renders, isolates a faulting workload to its own rows, and rejects a
//! missing or unknown name with the registry's names.

use bsg_bench::{figure_spec, render_figure, FIGURES};
use std::process::{Command, Output};

fn bsg_figure(args: &[&str]) -> Output {
    bsg_figure_with(args, &[])
}

fn bsg_figure_with(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bsg-figure"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("bsg-figure runs")
}

#[test]
fn table3_is_byte_identical_to_render_figure() {
    let out = bsg_figure(&["table3"]);
    assert!(out.status.success(), "bsg-figure table3 failed: {out:?}");
    let (text, faults) = render_figure(figure_spec("table3").expect("table3 is registered"));
    assert_eq!(faults, Vec::new());
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), text);
}

/// An injected panic preparing one workload costs that workload's row of
/// Figure 9 and nothing else: the title, the header and every other row are
/// what a clean run prints, the fault is reported on stderr, and the exit
/// status is nonzero.
#[test]
fn a_faulting_workload_costs_only_its_rows() {
    let victim = "crc32/small";
    let hermetic = ("BSG_ARTIFACT_DIR", "off");
    let clean = bsg_figure_with(&["fig09"], &[hermetic]);
    assert!(clean.status.success(), "clean fig09 failed: {clean:?}");
    let clean = String::from_utf8(clean.stdout).expect("utf-8 stdout");
    assert!(clean.starts_with("Figure 9 — hybrid branch predictor accuracy\n"));
    assert!(clean.lines().any(|l| l.starts_with(victim)), "{clean}");

    let fault = format!("task-panic={victim}");
    let out = bsg_figure_with(&["fig09"], &[hermetic, ("BSG_FAULT", &fault)]);
    assert!(!out.status.success(), "a faulted fig09 must exit nonzero");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains(&format!("FAILED to prepare {victim}")),
        "{stderr}"
    );
    let faulted = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let want: Vec<&str> = clean.lines().filter(|l| !l.starts_with(victim)).collect();
    assert_eq!(faulted.lines().collect::<Vec<_>>(), want);
}

#[test]
fn unknown_or_missing_names_fail_and_list_the_registry() {
    for args in [&["no-such-figure"][..], &[]] {
        let out = bsg_figure(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no figure");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        for spec in FIGURES {
            assert!(
                stderr.contains(spec.name),
                "{args:?}: stderr does not list {}: {stderr}",
                spec.name
            );
        }
    }
}
