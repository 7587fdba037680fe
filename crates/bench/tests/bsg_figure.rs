//! The `bsg-figure <name>` binary prints exactly what `render_figure`
//! renders, and rejects a missing or unknown name with the registry's names.

use bsg_bench::{render_figure, FIGURES};
use std::process::{Command, Output};

fn bsg_figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bsg-figure"))
        .args(args)
        .output()
        .expect("bsg-figure runs")
}

#[test]
fn table3_is_byte_identical_to_render_figure() {
    let out = bsg_figure(&["table3"]);
    assert!(out.status.success(), "bsg-figure table3 failed: {out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        render_figure("table3")
    );
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
