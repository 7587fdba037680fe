//! The benchmark's metric names and units, and the result it prints.
//!
//! These tables are the contract with `BENCHMARK.json` at the repository
//! root: a test checks that both list the same names and units in the same
//! order, and [`Outcome::print`] emits exactly the table of the mode it
//! runs in.

use crate::stats::{Pick, Summary};
use std::collections::BTreeMap;

/// The workloads this benchmark runs.  `BENCHMARK.json` bounds all but
/// `report_warm` (see "Why best-of" in `README.md`).
pub const WORKLOADS: [&str; 3] = ["report_cold", "report_warm", "serve_mix"];

/// End-to-end metrics (printed with `--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The report sections timed one by one in a traced render, named after
/// their functions; `None` marks the cheap sections that are not reported
/// on their own.  Index-aligned with `bsg_bench::ALL_EXPERIMENTS`.
pub const SECTIONS: [Option<&str>; 13] = [
    None, // table1
    None, // table3
    None, // fig02
    None, // fig04
    Some("fig05"),
    Some("fig06_o0"),
    Some("fig06_o2"),
    Some("fig07"),
    Some("fig08"),
    Some("fig09"),
    Some("fig10"),
    Some("fig11"),
    Some("obfuscation"),
];

/// Per-layer metrics (printed with `--trace 1`): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.latency_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("workloads.suite_build_s", "s"),
    ("bench.prepare_s", "s"),
    ("bench.section_s.fig05", "s"),
    ("bench.section_s.fig06_o0", "s"),
    ("bench.section_s.fig06_o2", "s"),
    ("bench.section_s.fig07", "s"),
    ("bench.section_s.fig08", "s"),
    ("bench.section_s.fig09", "s"),
    ("bench.section_s.fig10", "s"),
    ("bench.section_s.fig11", "s"),
    ("bench.section_s.obfuscation", "s"),
    ("uarch.decode_s", "s"),
    ("uarch.null_ns_per_inst", "ns"),
    ("uarch.cache_ns_per_inst", "ns"),
    ("uarch.predictor_ns_per_inst", "ns"),
    ("uarch.pipeline_ns_per_inst", "ns"),
    ("uarch.batch_ns_per_inst", "ns"),
    ("uarch.insts", "count"),
    ("similarity.moss_s", "s"),
    ("similarity.jplag_s", "s"),
    ("similarity.tokens", "count"),
    ("compiler.compile_s", "s"),
    ("compiler.compiles", "count"),
    ("profile.ns_per_inst", "ns"),
    ("synth.synthesize_s", "s"),
    ("synth.consolidate_s", "s"),
    ("synth.clone_insts", "count"),
    ("ir.emit_c_s", "s"),
    ("ir.encode_s", "s"),
    ("ir.decode_s", "s"),
    ("ir.canon_bytes", "bytes"),
    ("runtime.store.requests", "count"),
    ("runtime.store.builds", "count"),
    ("runtime.store.disk_hits", "count"),
    ("runtime.store.disk_writes", "count"),
    ("runtime.store.disk_bytes_written", "bytes"),
    ("runtime.store.hit_ratio", "fraction"),
    ("runtime.disk.load_s", "s"),
    ("runtime.disk.store_s", "s"),
    ("server.frame_encode_us", "us"),
    ("server.frame_decode_us", "us"),
    ("server.requests_served", "count"),
    ("server.batches", "count"),
    ("server.requests_per_batch", "count"),
    ("server.max_queue_depth", "count"),
    ("server.shed_count", "count"),
    ("server.protocol_errors", "count"),
    ("server.reply_bytes", "bytes"),
    ("server.hit_p50_ms", "ms"),
    ("server.build_p50_ms", "ms"),
];

/// A recorded value, with the sample set it was picked from, if any.
type Recorded = (f64, Option<(Pick, Summary)>);

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (report renders or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong output, plus
    /// one per failed run-level check.
    pub failed: u64,
    /// Why each failure counted (printed to stderr).
    problems: Vec<String>,
    values: BTreeMap<&'static str, Recorded>,
}

fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
}

impl Outcome {
    /// Records `name` as `value`.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists: printing a metric
    /// `BENCHMARK.json` does not define is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = lookup(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(name, (value, None));
    }

    /// Records `name` as the `pick` statistic of `summary`, keeping the
    /// whole summary for the printed table.
    pub fn set_summary(&mut self, name: &str, pick: Pick, summary: Option<Summary>) {
        match summary {
            Some(s) => {
                self.set(name, s.pick(pick));
                if let Some(entry) = self.values.get_mut(name) {
                    entry.1 = Some((pick, s));
                }
            }
            None => self.fail(format!("{name}: no samples")),
        }
    }

    /// Counts one failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints one table row per metric of `table` and then the result as
    /// the last line of stdout: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`.  A metric that was not measured,
    /// or is not a finite number, is a failed check.
    pub fn print(mut self, workload: &str, table: &[(&'static str, &'static str)]) -> bool {
        for (name, _) in table {
            match self.values.get(name) {
                Some((v, _)) if v.is_finite() => {}
                _ => self.fail(format!("{name}: not measured")),
            }
        }
        for why in &self.problems {
            eprintln!("perfbench: FAILED {why}");
        }
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let Some((value, summary)) = self.values.get(name).filter(|v| v.0.is_finite()) else {
                continue;
            };
            let spread = match summary {
                Some((pick, s)) => {
                    let tail = s
                        .tail
                        .map(|(q, t)| format!("p{q} {t:.4}"))
                        .unwrap_or_else(|| "no tail (<10 beyond p75)".to_string());
                    format!("{pick:?} of: median {:.4}  {tail}  n={}", s.median, s.n)
                }
                None => String::from("n=1"),
            };
            println!("{workload:<12} {name:<34} {value:>16.6} {unit:<8} {spread}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.correct();
        println!(
            "{workload:<12} attempted {} failed {} error_rate {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric array of `BENCHMARK.json`, read
    /// with a scan that relies only on each object listing `name` before
    /// `unit`.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |s: &str, f: &str| -> Option<(String, usize)> {
            let at = s.find(&format!("\"{f}\": \""))? + f.len() + 5;
            let end = at + s[at..].find('"')?;
            Some((s[at..end].to_string(), end))
        };
        let mut out = Vec::new();
        let mut rest = body;
        while let Some((name, end)) = field(rest, "name") {
            rest = &rest[end..];
            let unit = field(rest, "unit").map(|(u, e)| {
                rest = &rest[e..];
                u
            });
            out.push((name, unit.unwrap_or_default()));
        }
        out
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_printed_name_matches_a_benchmark_json_name() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
        for (workload, _) in declared(&json, "workloads") {
            assert!(WORKLOADS.contains(&workload.as_str()), "{workload}");
        }
        let sections: Vec<String> = SECTIONS
            .iter()
            .flatten()
            .map(|s| format!("bench.section_s.{s}"))
            .collect();
        for s in &sections {
            assert!(lookup(s).is_some(), "{s} is declared");
        }
        assert_eq!(SECTIONS.len(), bsg_bench::ALL_EXPERIMENTS.len());
    }

    #[test]
    fn undeclared_names_are_refused_and_unmeasured_ones_fail() {
        let refused = std::panic::catch_unwind(|| Outcome::default().set("no_such_metric", 1.0));
        assert!(refused.is_err());
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        assert!(!o.print("test", END_TO_END), "four metrics are missing");
    }
}
