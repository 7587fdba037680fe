//! The disk tier of the artifact store.
//!
//! [`ArtifactStore`](crate::ArtifactStore) memoizes artifacts per process;
//! this module persists them **across** processes, so a CI workflow that
//! runs `all_experiments` twice — or a developer re-running one figure
//! binary after another — pays for each profile, synthesis and compile once
//! per machine instead of once per invocation.
//!
//! # Layout and format
//!
//! Entries live under `<root>/<kind>/<key>.bsg`, where `kind` names the
//! artifact table (`compiled`, `profile`, `synthesis`, `c-text`) and `key`
//! is the hex of a 128-bit content hash of the table's **full** cache key
//! (source id + build options + config), so the disk key space is exactly
//! the in-memory key space.  Each file is:
//!
//! ```text
//! magic  "BSGC"          (4 bytes)
//! format version         (u32 LE; see FORMAT_VERSION)
//! payload length         (u64 LE)
//! payload checksum       (u64 LE, FNV-1a over the payload)
//! payload                (the artifact's canonical byte encoding)
//! ```
//!
//! # Crash- and corruption-tolerance
//!
//! Writes go to a process-unique temp file followed by an atomic
//! `rename`, so readers never observe a partially-written entry and
//! concurrent writers of the same key are safe (last rename wins; both wrote
//! identical bytes, because keys are content addresses).  Reads validate
//! magic, version, length and checksum, and the caller re-validates by
//! decoding the canonical payload; **any** failure is treated as a cache
//! miss that falls back to a rebuild — a corrupt cache can cost time, never
//! correctness.  The first corrupt entry logs one warning to stderr
//! (subsequent ones only count into [`DiskStats`]), so a damaged cache
//! directory doesn't flood CI logs.
//!
//! # Versioning and invalidation
//!
//! [`FORMAT_VERSION`] names the wire format (bump on header/codec layout
//! changes); it is part of every file header, so mismatched entries are
//! ignored, never misread.  *Semantic* staleness — the compiler, profiler
//! or synthesizer producing different artifacts for the same source — is
//! handled by the default directory name, which embeds a compile-time
//! fingerprint of every artifact-producing crate's sources (`build.rs`):
//! editing those crates automatically lands in a fresh cache directory.  An
//! explicit [`ENV_DIR`] bypasses the fingerprint; the caller owns
//! invalidation there (CI keys its cached directory on a hash of all
//! sources, including `vendor/`).

//! # Fault injection and degradation
//!
//! Every `store`/`load` consults the cache's [`FaultPlan`] (normally empty;
//! populated by `BSG_FAULT` or programmatically in chaos tests), which can
//! deterministically fail a write (ENOSPC), fail a read (EIO), tear a
//! rename, or truncate a payload mid-write.  Real and injected IO failures
//! feed one accounting path: after [`DEGRADE_AFTER_IO_FAILURES`]
//! *consecutive* failures the tier **degrades to memory-only** for the rest
//! of the process (logged once, visible in [`DiskStats::degraded`]) — a
//! disk that keeps failing must cost each sweep one error check, not a
//! retry storm.  Correctness never depends on the tier: every degradation
//! path falls back to the in-memory build, which the chaos suite proves
//! byte-identical.

use crate::fault::{FaultPlan, StoreFault};
use bsg_ir::codec::fnv64;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

/// Consecutive IO failures (real or injected) after which the disk tier
/// turns itself off for the remainder of the process.
pub const DEGRADE_AFTER_IO_FAILURES: u64 = 3;

/// Bump when compiled/profiled/synthesized payload semantics change (see the
/// module docs).
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"BSGC";
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Environment variable selecting the cache directory.  Unset → a versioned
/// directory under the system temp dir; `off`, `0` or empty → disk tier
/// disabled (the store runs memory-only, as before PR 4).
pub const ENV_DIR: &str = "BSG_ARTIFACT_DIR";

/// Environment variable capping the cache directory size in MiB (the
/// eviction pass removes oldest-mtime entries until under the cap).  Unset →
/// [`DEFAULT_MAX_MB`]; `off`, `0` or empty → eviction disabled (the
/// pre-lifecycle behaviour: the directory grows without bound).
pub const ENV_MAX_MB: &str = "BSG_ARTIFACT_MAX_MB";

/// Default size cap: generous — a full-suite run writes ~10 MB, so the
/// default tolerates dozens of toolchain fingerprints / config axes before
/// eviction starts, while still bounding an unattended cache directory.
pub const DEFAULT_MAX_MB: u64 = 512;

/// The artifact kinds the disk tier attributes per-kind counters to, in the
/// order of [`DiskStats::per_kind`].  These are the store's table names —
/// lookups under any other kind string still work but land in no per-kind
/// bucket (only the aggregate counters).
pub const KINDS: [&str; 4] = ["compiled", "profile", "synthesis", "c-text"];

fn kind_index(kind: &str) -> Option<usize> {
    KINDS.iter().position(|k| *k == kind)
}

/// Disk-tier counters attributed to one artifact kind (one element of
/// [`DiskStats::per_kind`], ordered as [`KINDS`]).  Answers "which table is
/// this cache actually serving?" — the aggregate counters can't, and a
/// server sharing one hot store across many clients needs the split to spot
/// e.g. a synthesis-heavy mix thrashing the compiled table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Entries of this kind served from disk.
    pub hits: u64,
    /// Entries of this kind written.
    pub writes: u64,
    /// File bytes written for this kind (header + payload; what the size
    /// cap accounts).
    pub bytes_written: u64,
}

/// Counters for the disk tier (cumulative per [`DiskCache`] instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Entries served from disk (header valid, payload decoded).
    pub hits: u64,
    /// Lookups that found no usable entry (absent, stale or corrupt).
    pub misses: u64,
    /// Entries written (after a cold build or a corrupt read).
    pub writes: u64,
    /// Entries rejected as corrupt/truncated/stale (subset of `misses`).
    pub corrupt: u64,
    /// Entries removed by the size-capped eviction pass.
    pub evicted: u64,
    /// IO failures observed (failed writes/reads, real or injected).
    pub io_errors: u64,
    /// Whether the tier has degraded to memory-only after repeated IO
    /// failures (see [`DEGRADE_AFTER_IO_FAILURES`]).
    pub degraded: bool,
    /// Hits/writes/bytes broken down by artifact kind, ordered as [`KINDS`].
    pub per_kind: [KindStats; 4],
}

bsg_ir::codec_layout!(struct KindStats {
    hits,
    writes,
    bytes_written,
});

bsg_ir::codec_layout!(struct DiskStats {
    hits,
    misses,
    writes,
    corrupt,
    evicted,
    io_errors,
    degraded,
    per_kind,
});

/// Per-kind atomic counters backing [`KindStats`].
#[derive(Default)]
struct KindCounters {
    hits: AtomicU64,
    writes: AtomicU64,
    bytes_written: AtomicU64,
}

/// One on-disk artifact cache directory (see the module docs).
pub struct DiskCache {
    root: PathBuf,
    /// Size cap in bytes for the eviction pass (`None`: eviction off).
    cap_bytes: Option<u64>,
    /// Deterministic fault-injection plan (normally empty).
    faults: FaultPlan,
    /// 0-based operation counters feeding the fault plan.
    store_ops: AtomicU64,
    load_ops: AtomicU64,
    /// Approximate directory size, maintained after the first full scan so
    /// the cap can be re-checked on **every** write (a scan per write would
    /// be quadratic; an over-cap burst still triggers eviction immediately).
    approx_bytes: AtomicU64,
    /// Whether the initial size scan has run (first capped write).
    scanned: AtomicBool,
    /// IO-failure accounting driving memory-only degradation.
    consecutive_io_failures: AtomicU64,
    degraded: AtomicBool,
    io_errors: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    evicted: AtomicU64,
    /// Hits/writes/bytes attributed per artifact kind (ordered as [`KINDS`]).
    per_kind: [KindCounters; 4],
}

impl DiskCache {
    /// A cache rooted at `root` (created lazily on first write), with the
    /// default size cap.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        Self::with_cap(root, Some(DEFAULT_MAX_MB * 1024 * 1024))
    }

    /// A cache with an explicit size cap in bytes (`None` disables the
    /// eviction pass).
    pub fn with_cap(root: impl Into<PathBuf>, cap_bytes: Option<u64>) -> Self {
        Self::with_faults(root, cap_bytes, FaultPlan::default())
    }

    /// A cache with an explicit fault-injection plan (chaos tests; the
    /// env-configured constructor installs the [`crate::fault::ENV_FAULT`]
    /// plan).
    pub fn with_faults(
        root: impl Into<PathBuf>,
        cap_bytes: Option<u64>,
        faults: FaultPlan,
    ) -> Self {
        DiskCache {
            root: root.into(),
            cap_bytes,
            faults,
            store_ops: AtomicU64::new(0),
            load_ops: AtomicU64::new(0),
            approx_bytes: AtomicU64::new(0),
            scanned: AtomicBool::new(false),
            consecutive_io_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            io_errors: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            per_kind: Default::default(),
        }
    }

    /// The cache selected by [`ENV_DIR`]: an explicit directory, the
    /// default under the system temp dir, or `None` when disabled.
    ///
    /// The default directory name includes the current user (multi-user
    /// machines must not share or fight over one cache; `/tmp` sticky bits
    /// would make the loser's writes silently fail) and a compile-time
    /// fingerprint of every artifact-producing crate's sources (see
    /// `build.rs`), so editing the compiler/profiler/synthesizer lands in a
    /// fresh directory instead of serving semantically stale artifacts.  An
    /// explicit `BSG_ARTIFACT_DIR` skips both: the caller owns invalidation
    /// and isolation there.
    pub fn from_env() -> Option<Self> {
        let cap_bytes = match std::env::var(ENV_MAX_MB) {
            Err(_) => Some(DEFAULT_MAX_MB * 1024 * 1024),
            Ok(v) => match Self::parse_max_mb(&v) {
                Ok(cap) => cap.map(|mb| mb.saturating_mul(1024 * 1024)),
                Err(why) => {
                    eprintln!(
                        "[bsg-runtime] {ENV_MAX_MB}={v:?} {why}; \
                         using the default {DEFAULT_MAX_MB} MiB cap"
                    );
                    Some(DEFAULT_MAX_MB * 1024 * 1024)
                }
            },
        };
        let faults = FaultPlan::global().clone();
        match std::env::var(ENV_DIR) {
            Ok(v) if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") => None,
            Ok(v) => Some(DiskCache::with_faults(v, cap_bytes, faults)),
            Err(_) => {
                let user = std::env::var("USER")
                    .ok()
                    .filter(|u| {
                        !u.is_empty()
                            && u.chars()
                                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                    })
                    .unwrap_or_else(|| "anon".to_string());
                Some(DiskCache::with_faults(
                    std::env::temp_dir().join(format!(
                        "bsg-artifact-cache-{user}-v{FORMAT_VERSION}-{}",
                        env!("BSG_TOOLCHAIN_FINGERPRINT")
                    )),
                    cap_bytes,
                    faults,
                ))
            }
        }
    }

    /// Parses a [`ENV_MAX_MB`] value into a cap in MiB.  `Ok(None)` means
    /// eviction is explicitly disabled (empty, `0` or `off`); `Err` carries
    /// a short reason and the caller falls back to [`DEFAULT_MAX_MB`] with a
    /// stderr warning — a typo'd cap must never silently disable the bound
    /// or crash the run.
    pub fn parse_max_mb(raw: &str) -> Result<Option<u64>, &'static str> {
        let v = raw.trim();
        if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
            return Ok(None);
        }
        if v.starts_with('-') {
            return Err("is negative");
        }
        match v.parse::<u64>() {
            Ok(mb) => Ok(Some(mb)),
            Err(_) => Err("is not a whole number of MiB"),
        }
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        let mut per_kind = [KindStats::default(); 4];
        for (snap, counters) in per_kind.iter_mut().zip(&self.per_kind) {
            *snap = KindStats {
                hits: counters.hits.load(Ordering::Relaxed),
                writes: counters.writes.load(Ordering::Relaxed),
                bytes_written: counters.bytes_written.load(Ordering::Relaxed),
            };
        }
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            per_kind,
        }
    }

    /// One real or injected IO failure: count it, and degrade to memory-only
    /// once [`DEGRADE_AFTER_IO_FAILURES`] failures land *consecutively* (a
    /// success in between resets the streak — transient hiccups don't kill
    /// the tier).
    fn note_io_failure(&self, op: &str, why: &str) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        let streak = self.consecutive_io_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= DEGRADE_AFTER_IO_FAILURES && !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "[bsg-runtime] disk cache: {streak} consecutive IO failures \
                 (last: {op}: {why}); degrading to memory-only caching for \
                 the rest of the process"
            );
        }
    }

    /// The configured size cap in bytes, if eviction is enabled.
    pub fn cap_bytes(&self) -> Option<u64> {
        self.cap_bytes
    }

    /// Size-capped LRU eviction: while the directory's `.bsg` entries total
    /// more than the cap, removes the oldest-mtime entries (writes refresh
    /// mtime, so "oldest write" approximates least-recently-useful across
    /// processes).  Best-effort — IO errors skip the entry; in-flight
    /// `.tmp.` files are never touched (they are renamed into place or
    /// cleaned up by their writer).  Runs automatically after any store that
    /// leaves the directory over the cap (the first capped store pays for a
    /// full scan; later stores maintain a running size); callers (and tests)
    /// may invoke it directly.
    pub fn evict_to_cap(&self) {
        let Some(cap) = self.cap_bytes else {
            return;
        };
        // Collect (mtime, size, path) of every entry across all kinds.
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        let Ok(kinds) = fs::read_dir(&self.root) else {
            return;
        };
        for kind in kinds.flatten() {
            let Ok(files) = fs::read_dir(kind.path()) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().is_none_or(|e| e != "bsg") {
                    continue;
                }
                if let Ok(meta) = f.metadata() {
                    // A filesystem with no (readable) mtimes must not make
                    // every entry "oldest" — UNIX_EPOCH would put it first in
                    // line for eviction.  Treat it as newest instead (log
                    // once): over-eagerly keeping an entry costs bytes;
                    // over-eagerly evicting the working set costs rebuilds.
                    let mtime = meta.modified().unwrap_or_else(|_| {
                        static WARN_ONCE: Once = Once::new();
                        WARN_ONCE.call_once(|| {
                            eprintln!(
                                "[bsg-runtime] disk cache: filesystem reports no \
                                 mtime for {}; treating unstamped entries as \
                                 newest for eviction ordering",
                                path.display()
                            );
                        });
                        std::time::SystemTime::now()
                    });
                    entries.push((mtime, meta.len(), path));
                }
            }
        }
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total > cap {
            entries.sort_by_key(|e| e.0);
            for (_, len, path) in entries {
                if total <= cap {
                    break;
                }
                if fs::remove_file(&path).is_ok() {
                    total = total.saturating_sub(len);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // The pass measured the directory exactly; reset the running
        // approximation that `store` maintains between passes.
        self.approx_bytes.store(total, Ordering::Relaxed);
        self.scanned.store(true, Ordering::Relaxed);
    }

    fn path_of(&self, kind: &str, key: u128) -> PathBuf {
        self.root.join(kind).join(format!("{key:032x}.bsg"))
    }

    /// The payload stored for `(kind, key)`, or `None` (counted as a miss).
    /// Truncated, bit-flipped or version-skewed entries are reported once to
    /// stderr and otherwise behave as misses.
    pub fn load(&self, kind: &str, key: u128) -> Option<Vec<u8>> {
        if self.degraded.load(Ordering::Relaxed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let op = self.load_ops.fetch_add(1, Ordering::Relaxed);
        if self.faults.load_fault(op) {
            self.note_io_failure("load", "injected EIO");
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.path_of(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Absence is the common cold-cache case, not an IO fault.
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        self.consecutive_io_failures.store(0, Ordering::Relaxed);
        match Self::parse(&bytes) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(i) = kind_index(kind) {
                    self.per_kind[i].hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(payload.to_vec())
            }
            None => {
                self.note_corrupt(&path, "bad header or checksum");
                None
            }
        }
    }

    /// Records that a loaded payload failed to *decode* (checksum held, but
    /// the canonical bytes didn't parse — e.g. written by a different build
    /// within the same format version).  Converts the already-counted hit
    /// into a corrupt miss so `hits` only counts artifacts actually served.
    pub fn unhit_corrupt(&self, kind: &str, key: u128) {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        if let Some(i) = kind_index(kind) {
            self.per_kind[i].hits.fetch_sub(1, Ordering::Relaxed);
        }
        self.note_corrupt(&self.path_of(kind, key), "payload does not decode");
    }

    fn note_corrupt(&self, path: &Path, why: &str) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        static WARN_ONCE: Once = Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!(
                "[bsg-runtime] disk cache: discarding corrupt entry {} ({why}); \
                 rebuilding from source (further corruption warnings suppressed)",
                path.display()
            );
        });
    }

    fn parse(bytes: &[u8]) -> Option<&[u8]> {
        if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
        if version != FORMAT_VERSION {
            return None;
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != len || fnv64(payload) != checksum {
            return None;
        }
        Some(payload)
    }

    /// Persists `payload` for `(kind, key)` via write-to-temp + atomic
    /// rename.  IO failures (read-only cache dir, disk full) are swallowed:
    /// the disk tier is an accelerator, never a correctness dependency.
    /// Repeated failures degrade the tier to memory-only (module docs).
    pub fn store(&self, kind: &str, key: u128, payload: &[u8]) {
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let op = self.store_ops.fetch_add(1, Ordering::Relaxed);
        let fault = self.faults.store_fault(op);
        if fault == Some(StoreFault::Enospc) {
            self.note_io_failure("store", "injected ENOSPC");
            return;
        }
        let path = self.path_of(kind, key);
        match self.try_store(&path, payload, fault) {
            Some(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                let entry_bytes = HEADER_LEN as u64 + payload.len() as u64;
                if let Some(i) = kind_index(kind) {
                    self.per_kind[i].writes.fetch_add(1, Ordering::Relaxed);
                    self.per_kind[i]
                        .bytes_written
                        .fetch_add(entry_bytes, Ordering::Relaxed);
                }
                self.consecutive_io_failures.store(0, Ordering::Relaxed);
                self.check_cap(entry_bytes);
            }
            None => self.note_io_failure("store", "write or rename failed"),
        }
    }

    /// Post-store lifecycle: bound the directory on **every** write that can
    /// leave it over the cap.  The first capped store pays for a full scan
    /// (which seeds `approx_bytes`); each later store bumps the running size
    /// and only re-scans when the approximation crosses the cap — so a
    /// second over-cap burst evicts just like the first, instead of growing
    /// unbounded until process exit.
    fn check_cap(&self, entry_bytes: u64) {
        let Some(cap) = self.cap_bytes else {
            return;
        };
        if !self.scanned.load(Ordering::Relaxed) {
            self.evict_to_cap();
            return;
        }
        let total = self.approx_bytes.fetch_add(entry_bytes, Ordering::Relaxed) + entry_bytes;
        if total > cap {
            self.evict_to_cap();
        }
    }

    fn try_store(&self, path: &Path, payload: &[u8], fault: Option<StoreFault>) -> Option<()> {
        let dir = path.parent()?;
        fs::create_dir_all(dir).ok()?;
        // Process-unique temp name: concurrent writers of the same key never
        // clobber each other's partial writes, and the final rename is atomic.
        let tmp = dir.join(format!(
            ".{}.tmp.{}",
            path.file_name()?.to_string_lossy(),
            std::process::id()
        ));
        let mut f = fs::File::create(&tmp).ok()?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&fnv64(payload).to_le_bytes());
        // An injected short write truncates the payload mid-stream — the
        // header still promises the full length, as a real lost write would.
        let written = match fault {
            Some(StoreFault::ShortWrite) => &payload[..payload.len() / 2],
            _ => payload,
        };
        let write = f
            .write_all(&header)
            .and_then(|_| f.write_all(written))
            .and_then(|_| f.sync_all());
        drop(f);
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
            return None;
        }
        if fault == Some(StoreFault::TornRename) {
            // A crash between data write and rename completion on a
            // non-atomic filesystem: the destination ends up holding a
            // truncated prefix of the entry.  Model it directly so readers
            // exercise their corruption path.
            let bytes = fs::read(&tmp).ok()?;
            let _ = fs::remove_file(&tmp);
            fs::write(path, &bytes[..bytes.len() / 2]).ok()?;
            return Some(());
        }
        if fs::rename(&tmp, path).is_err() {
            let _ = fs::remove_file(&tmp);
            return None;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> DiskCache {
        let dir = std::env::temp_dir().join(format!(
            "bsg-disk-test-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = fs::remove_dir_all(&dir);
        DiskCache::at(dir)
    }

    #[test]
    fn roundtrips_payloads() {
        let cache = temp_cache("roundtrip");
        assert_eq!(cache.load("compiled", 7), None, "cold cache misses");
        cache.store("compiled", 7, b"hello artifact");
        assert_eq!(
            cache.load("compiled", 7).as_deref(),
            Some(b"hello artifact".as_ref())
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn distinct_kinds_and_keys_do_not_collide() {
        let cache = temp_cache("keys");
        cache.store("compiled", 1, b"a");
        cache.store("profile", 1, b"b");
        cache.store("compiled", 2, b"c");
        assert_eq!(cache.load("compiled", 1).as_deref(), Some(b"a".as_ref()));
        assert_eq!(cache.load("profile", 1).as_deref(), Some(b"b".as_ref()));
        assert_eq!(cache.load("compiled", 2).as_deref(), Some(b"c".as_ref()));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn truncated_entries_are_treated_as_corrupt_misses() {
        let cache = temp_cache("trunc");
        cache.store("synthesis", 42, b"a perfectly good artifact payload");
        let path = cache.path_of("synthesis", 42);
        let full = fs::read(&path).unwrap();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(cache.load("synthesis", 42), None, "cut at {cut}");
        }
        assert_eq!(cache.stats().corrupt, 5);
        // A rebuild overwrites the damaged entry and service resumes.
        cache.store("synthesis", 42, b"rebuilt");
        assert_eq!(
            cache.load("synthesis", 42).as_deref(),
            Some(b"rebuilt".as_ref())
        );
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn bitflips_and_version_skew_are_rejected() {
        let cache = temp_cache("flip");
        cache.store("c-text", 9, b"payload bytes here");
        let path = cache.path_of("c-text", 9);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.load("c-text", 9), None, "checksum catches bit flips");

        cache.store("c-text", 9, b"payload bytes here");
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1); // format version
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.load("c-text", 9), None, "stale versions ignored");
        let _ = fs::remove_dir_all(cache.root());
    }

    /// Backdates an entry's mtime so eviction order is deterministic without
    /// sleeping (mtime granularity can otherwise tie).
    fn backdate(cache: &DiskCache, kind: &str, key: u128, secs_ago: u64) {
        let path = cache.path_of(kind, key);
        let f = fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(secs_ago))
            .unwrap();
    }

    #[test]
    fn eviction_removes_oldest_entries_first() {
        // Populate through an eviction-disabled cache so the per-write cap
        // check can't fire before the mtimes are backdated, then run a
        // capped pass.  Cap of ~2.5 payloads: three entries force the
        // oldest out.
        let payload = vec![7u8; 1000];
        let writer = DiskCache::with_cap(temp_cache("evict").root().to_path_buf(), None);
        writer.store("compiled", 1, &payload);
        writer.store("compiled", 2, &payload);
        writer.store("profile", 3, &payload);
        backdate(&writer, "compiled", 1, 300); // oldest
        backdate(&writer, "compiled", 2, 200);
        backdate(&writer, "profile", 3, 100); // newest
        let cache = DiskCache::with_cap(
            writer.root().to_path_buf(),
            Some(2 * (HEADER_LEN as u64 + 1000) + 100),
        );
        cache.evict_to_cap();
        assert_eq!(cache.stats().evicted, 1, "one entry over the cap");
        assert_eq!(cache.load("compiled", 1), None, "oldest entry evicted");
        assert!(cache.load("compiled", 2).is_some(), "newer entries survive");
        assert!(cache.load("profile", 3).is_some());

        // Shrink the cap below one payload: everything else goes too, oldest
        // first across kind directories.
        let tight = DiskCache::with_cap(cache.root().to_path_buf(), Some(10));
        tight.evict_to_cap();
        assert_eq!(tight.stats().evicted, 2);
        assert_eq!(tight.load("compiled", 2), None);
        assert_eq!(tight.load("profile", 3), None);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn a_second_over_cap_burst_also_evicts() {
        // The pre-PR-6 lifecycle ran eviction once per process; a second
        // burst of writes then grew the directory unbounded.  Now every
        // over-cap write re-checks: two bursts, two evictions.
        let entry = HEADER_LEN as u64 + 1000;
        let payload = vec![3u8; 1000];
        let cache = DiskCache::with_cap(
            temp_cache("evict-burst").root().to_path_buf(),
            Some(3 * entry + 100),
        );
        // First burst: five writes against a ~3-entry cap.
        for key in 0..5u128 {
            cache.store("compiled", key, &payload);
        }
        let after_first = cache.stats().evicted;
        assert!(
            after_first >= 2,
            "first burst must evict down to the cap (evicted {after_first})"
        );
        // Second burst with fresh keys: the cap must still be enforced.
        for key in 100..105u128 {
            cache.store("compiled", key, &payload);
        }
        let after_second = cache.stats().evicted;
        assert!(
            after_second > after_first,
            "second over-cap burst evicted nothing ({after_first} -> {after_second})"
        );
        // The directory really is bounded: at most cap-worth of entries
        // (plus one in-flight write's slack).
        let survivors: u64 = fs::read_dir(cache.root().join("compiled"))
            .unwrap()
            .flatten()
            .map(|f| f.metadata().unwrap().len())
            .sum();
        assert!(
            survivors <= 4 * entry,
            "directory stayed near the cap (got {survivors} bytes)"
        );
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn max_mb_parsing_accepts_numbers_and_off_switches_only() {
        assert_eq!(DiskCache::parse_max_mb("512"), Ok(Some(512)));
        assert_eq!(DiskCache::parse_max_mb(" 64 "), Ok(Some(64)));
        assert_eq!(DiskCache::parse_max_mb(""), Ok(None));
        assert_eq!(DiskCache::parse_max_mb("0"), Ok(None));
        assert_eq!(DiskCache::parse_max_mb("off"), Ok(None));
        assert_eq!(DiskCache::parse_max_mb("OFF"), Ok(None));
        assert!(DiskCache::parse_max_mb("-5").is_err(), "negative rejected");
        assert!(DiskCache::parse_max_mb("lots").is_err(), "garbage rejected");
        assert!(DiskCache::parse_max_mb("1.5").is_err(), "floats rejected");
        assert!(DiskCache::parse_max_mb("12MB").is_err(), "units rejected");
    }

    #[test]
    fn injected_enospc_degrades_the_tier_to_memory_only() {
        let plan = FaultPlan::parse("enospc").unwrap();
        let cache = DiskCache::with_faults(temp_cache("enospc").root().to_path_buf(), None, plan);
        for key in 0..5u128 {
            cache.store("compiled", key, b"doomed");
        }
        let stats = cache.stats();
        assert_eq!(stats.writes, 0, "nothing reaches a full disk");
        assert!(stats.degraded, "repeated ENOSPC must trip degradation");
        assert_eq!(
            stats.io_errors, DEGRADE_AFTER_IO_FAILURES,
            "after degrading, stores stop touching the disk entirely"
        );
        assert_eq!(cache.load("compiled", 0), None, "degraded loads miss");
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn a_success_resets_the_consecutive_failure_streak() {
        // Fail op 0 (torn rename counts as a *successful* store of corrupt
        // bytes, so use eio on loads instead): interleave failing loads with
        // successful ones and check the tier never degrades.
        let plan = FaultPlan::parse("eio@1").unwrap();
        let cache = DiskCache::with_faults(temp_cache("streak").root().to_path_buf(), None, plan);
        cache.store("compiled", 1, b"payload");
        assert!(cache.load("compiled", 1).is_some(), "op 0 loads fine");
        // Ops 1.. all EIO — but stores keep succeeding in between, resetting
        // the streak, so the tier stays up past the raw failure threshold.
        for key in 2..8u128 {
            assert_eq!(cache.load("compiled", 1), None, "injected EIO");
            cache.store("compiled", key, b"payload");
        }
        assert!(
            !cache.stats().degraded,
            "interleaved successes must keep the tier alive"
        );
        assert!(cache.stats().io_errors >= DEGRADE_AFTER_IO_FAILURES);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn torn_renames_and_short_writes_surface_as_corrupt_misses() {
        let plan = FaultPlan::parse("torn-rename@0,short-write@1").unwrap();
        let cache = DiskCache::with_faults(temp_cache("torn").root().to_path_buf(), None, plan);
        cache.store("compiled", 1, b"a payload long enough to truncate visibly");
        cache.store("compiled", 2, b"another payload long enough to truncate");
        cache.store("compiled", 3, b"a clean write after the faults");
        assert_eq!(cache.load("compiled", 1), None, "torn entry rejected");
        assert_eq!(cache.load("compiled", 2), None, "short entry rejected");
        assert!(
            cache.load("compiled", 3).is_some(),
            "later writes are clean"
        );
        let stats = cache.stats();
        assert_eq!(stats.corrupt, 2, "both damaged entries counted corrupt");
        assert!(!stats.degraded, "one-shot corruption is not an IO streak");
        // The damaged keys rebuild and overwrite cleanly.
        cache.store("compiled", 1, b"rebuilt");
        assert!(cache.load("compiled", 1).is_some());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn eviction_off_switch_leaves_entries_alone() {
        let cache = DiskCache::with_cap(temp_cache("evict-off").root().to_path_buf(), None);
        let payload = vec![1u8; 4096];
        for key in 0..8u128 {
            cache.store("compiled", key, &payload);
        }
        cache.evict_to_cap();
        assert_eq!(cache.stats().evicted, 0, "no cap, no eviction");
        for key in 0..8u128 {
            assert!(cache.load("compiled", key).is_some());
        }
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn under_cap_caches_are_untouched() {
        let cache = DiskCache::with_cap(
            temp_cache("evict-under").root().to_path_buf(),
            Some(1 << 20),
        );
        cache.store("compiled", 1, b"small");
        cache.store("profile", 2, b"entries");
        cache.evict_to_cap();
        assert_eq!(cache.stats().evicted, 0);
        assert!(cache.load("compiled", 1).is_some());
        assert!(cache.load("profile", 2).is_some());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn per_kind_counters_attribute_hits_writes_and_bytes() {
        let cache = temp_cache("per-kind");
        cache.store("compiled", 1, b"program bytes");
        cache.store("compiled", 2, b"more program bytes");
        cache.store("profile", 3, b"profile bytes");
        assert!(cache.load("compiled", 1).is_some());
        assert!(cache.load("profile", 3).is_some());
        assert!(cache.load("profile", 3).is_some());
        assert_eq!(cache.load("synthesis", 9), None, "untouched kind misses");

        let stats = cache.stats();
        let [compiled, profile, synthesis, c_text] = stats.per_kind;
        assert_eq!((compiled.hits, compiled.writes), (1, 2));
        assert_eq!(
            compiled.bytes_written,
            2 * HEADER_LEN as u64
                + b"program bytes".len() as u64
                + b"more program bytes".len() as u64
        );
        assert_eq!((profile.hits, profile.writes), (2, 1));
        assert_eq!(synthesis, KindStats::default());
        assert_eq!(c_text, KindStats::default());
        // The aggregates still see everything.
        assert_eq!((stats.hits, stats.writes, stats.misses), (3, 3, 1));

        // A decode failure retracts the already-counted per-kind hit too.
        cache.unhit_corrupt("compiled", 1);
        let [compiled, ..] = cache.stats().per_kind;
        assert_eq!(compiled.hits, 0);

        // Stats roundtrip through the canonical codec (the server's `stats`
        // reply ships them over the wire).
        let bytes = bsg_ir::codec::to_canon_bytes(&cache.stats());
        let back: DiskStats = bsg_ir::codec::from_canon_bytes(&bytes).unwrap();
        assert_eq!(back, cache.stats());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn from_env_honors_the_off_switch() {
        // `from_env` reads the process environment; this test only checks
        // the parsing rules via explicit construction to stay thread-safe.
        assert!(DiskCache::at("/tmp/x").root().ends_with("x"));
    }
}
