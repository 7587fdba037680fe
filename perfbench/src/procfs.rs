//! Process accounting read from `/proc`, and the child-process plumbing the
//! workloads share.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Clock ticks per second of `/proc/*/stat` CPU times (`USER_HZ`, 100 on
/// every Linux configuration this benchmark targets).
const TICKS_PER_SECOND: f64 = 100.0;

fn proc_file(pid: Option<u32>, file: &str) -> Option<String> {
    let who = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{file}")).ok()
}

/// User + system CPU seconds of a process (this one when `pid` is `None`),
/// all threads included.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the line.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a 64 of `bytes` (the digest the report check compares).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A child process that is killed and reaped if dropped before
/// [`Reaped::finish`], so no error path leaves one running.
pub struct Reaped(Option<Child>);

impl Reaped {
    /// Spawns this benchmark's own executable with `args`, the artifact
    /// store's disk tier at `artifact_dir`, stdin and stdout piped.
    pub fn spawn_self(args: &[&str], artifact_dir: &std::path::Path) -> std::io::Result<Self> {
        let child = Command::new(std::env::current_exe()?)
            .args(args)
            .env("BSG_ARTIFACT_DIR", artifact_dir)
            .env_remove("BSG_FAULT")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Reaped(Some(child)))
    }

    /// The child's pid.
    pub fn id(&self) -> u32 {
        self.0.as_ref().map_or(0, Child::id)
    }

    /// The child's stdout, line by line.
    pub fn lines(&mut self) -> Option<std::io::Lines<BufReader<std::process::ChildStdout>>> {
        Some(BufReader::new(self.0.as_mut()?.stdout.take()?).lines())
    }

    /// Closes the child's stdin (its signal to shut down, for the daemon).
    pub fn close_stdin(&mut self) {
        if let Some(child) = self.0.as_mut() {
            drop(child.stdin.take());
        }
    }

    /// Waits for the child to exit; `true` on exit code 0.
    pub fn finish(mut self) -> bool {
        self.0
            .take()
            .and_then(|mut c| c.wait().ok())
            .is_some_and(|s| s.success())
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs this executable with `args` to completion and parses the
/// `key value` lines it prints.  `None` if it fails to start or exits
/// nonzero.
pub fn run_child(
    args: &[&str],
    artifact_dir: &std::path::Path,
) -> Option<BTreeMap<String, String>> {
    let mut child = Reaped::spawn_self(args, artifact_dir).ok()?;
    child.close_stdin();
    let mut out = BTreeMap::new();
    for line in child.lines()?.map_while(Result::ok) {
        if let Some((k, v)) = line.split_once(' ') {
            out.insert(k.to_string(), v.to_string());
        }
    }
    child.finish().then_some(out)
}
