//! The content-addressed artifact store.
//!
//! Every figure of the evaluation sweeps the same small set of artifacts —
//! the workload compiled at some (level, ISA), its predecoded [`ExecImage`],
//! its emitted C text, its `-O0` [`StatisticalProfile`], its synthetic clone —
//! and before this store existed each figure rebuilt them from scratch.  The
//! store memoizes each artifact behind an `Arc`, keyed by a **structural
//! hash of the source program's content** plus the build options, so each
//! artifact is built **exactly once per process** no matter how many figures
//! (or scheduler workers, concurrently) request it.
//!
//! Content addressing: the key starts from [`SourceId::of`], a 128-bit
//! FNV-1a hash of the value's **canonical byte encoding**
//! ([`bsg_ir::codec::Canon`]: discriminant-tagged, length-prefixed,
//! `f64::to_bits` floats).  Two workloads with identical structure share
//! artifacts; any structural change — including ones invisible to a `Debug`
//! rendering, like differing NaN payloads — produces a new key.  (An earlier
//! revision hashed the `Debug` rendering, which is not injective; see the
//! regression test `debug_colliding_sources_get_distinct_ids`.)  The hash is
//! the *address*; at-most-once construction under concurrency is guaranteed
//! by a per-key **slot state machine** (`idle → building → done | failed`):
//! losers of the map race wait on the winner's build instead of building
//! twice, and — since PR 6 — a build that fails or panics **releases** its
//! waiters with an error instead of wedging them forever.
//!
//! # Fault recovery
//!
//! A build can fail (the builder returns an error) or die (the builder
//! panics; caught at the slot boundary).  Either way the slot transitions
//! out of `building`, every concurrent waiter is woken with a cloned
//! [`BsgError::BuildFailed`], and the *next* request for the key may retry
//! — with exponential backoff, up to [`MAX_BUILD_ATTEMPTS`] total attempts
//! — because transient causes (disk pressure during a dependency load, an
//! OOM-killed helper) deserve another shot.  Once the attempt budget is
//! exhausted the error is memoized (`failed` is terminal) and served to
//! every later request immediately: one poisoned key costs its own sweeps
//! an `Err`, never a hang, and never affects other keys.  (The pre-PR-6
//! implementation used a per-key `OnceLock`, which a panicking builder left
//! unset forever — deadlocking every waiter.)

use crate::disk::{DiskCache, DiskStats, KindStats, KINDS};
use crate::error::{lock_unpoisoned, panic_message, wait_unpoisoned, BsgError, BsgResult};
use bsg_compiler::{compile, CompileOptions};
use bsg_ir::cemit;
use bsg_ir::codec::{from_canon_bytes, to_canon_bytes};
use bsg_ir::codec::{Canon, CanonWrite};
use bsg_ir::hll::HllProgram;
use bsg_ir::Program;
use bsg_profile::{profile_image, ProfileConfig, StatisticalProfile};
use bsg_synth::{synthesize_with_target, SynthesisConfig, TargetedSynthesis};
use bsg_uarch::image::ExecImage;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Total build attempts per key before the failure is memoized as terminal.
pub const MAX_BUILD_ATTEMPTS: u32 = 3;

/// Base of the exponential retry backoff (attempt 2 waits one unit, attempt
/// 3 two units, ...).  Kept small: artifact builds are CPU-bound, so the
/// backoff exists to let transient *environmental* causes clear, not to
/// rate-limit a service.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

const FNV128_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Streaming 128-bit FNV-1a over canonical bytes (no intermediate buffer).
struct FnvWriter(u128);

impl CanonWrite for FnvWriter {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }
}

/// The content address of a source artifact: a 128-bit structural hash.
///
/// Derived from the value's canonical byte encoding
/// ([`bsg_ir::codec::Canon`]): every enum variant is discriminant-tagged,
/// every collection length-prefixed, and floats hashed by bit pattern, so
/// the encoding (and hence the address) is injective up to hash collisions
/// and deterministic across processes and platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(u128);

impl SourceId {
    /// Hashes any canonically-encodable structure.
    pub fn of<T: Canon + ?Sized>(value: &T) -> SourceId {
        let mut w = FnvWriter(FNV128_BASIS);
        value.canon(&mut w);
        SourceId(w.0)
    }

    /// The raw 128-bit hash (for logging / diagnostics).
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Canon for SourceId {
    fn canon(&self, w: &mut dyn CanonWrite) {
        w.write(&self.0.to_le_bytes());
    }
}

/// A compiled program plus its predecoded execution image, built once and
/// shared by every sweep that needs this (source, options) point.
#[derive(Debug)]
pub struct CompiledArtifact {
    /// Content address of the HLL source this was compiled from.
    pub source: SourceId,
    /// The options the program was compiled with.
    pub options: CompileOptions,
    /// The lowered VISA program.
    pub program: Program,
    /// The predecoded execution image of `program`.
    pub image: ExecImage,
}

/// The lifecycle of one cache slot (see the module docs on fault recovery).
enum SlotState<V> {
    /// No builder is active.  `attempts` counts failed builds so far; a new
    /// request may claim the slot and (re)try.
    Idle {
        /// Failed attempts so far.
        attempts: u32,
    },
    /// A builder is running; requests wait on the slot's condvar.  (The
    /// builder carries its own attempt count; waiters never need it.)
    Building,
    /// The artifact is available; terminal.
    Done(Arc<V>),
    /// The attempt budget is exhausted; terminal.  Every present and future
    /// request receives a clone of this error immediately.
    Failed(BsgError),
}

/// One cache slot: a state machine plus the condvar its waiters block on.
struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot {
            state: Mutex::new(SlotState::Idle { attempts: 0 }),
            ready: Condvar::new(),
        }
    }
}

/// One memoization table: key -> slot state machine.
///
/// The outer mutex only guards the map shape (held for a lookup/insert,
/// never during a build); the per-entry [`Slot`] serializes concurrent
/// builders of the *same* key while letting different keys build in
/// parallel, and releases waiters on failure instead of deadlocking them.
struct Table<K, V> {
    map: Mutex<HashMap<K, Arc<Slot<V>>>>,
    builds: AtomicU64,
    hits: AtomicU64,
    failures: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> Table<K, V> {
    fn new() -> Self {
        Table {
            map: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Memoized, fault-recovering lookup.  The initializer reports whether
    /// it *built* the value (`true`) or obtained it from a lower tier
    /// (`false`, counted by that tier instead), or fails with a message.
    /// Panics inside the initializer are caught at this boundary.  A request
    /// that finds the value already memoized counts as a (memory) hit.
    fn get_or_try_init(
        &self,
        kind: &'static str,
        file_key: SourceId,
        key: K,
        init: impl FnOnce() -> Result<(V, bool), String>,
    ) -> BsgResult<Arc<V>> {
        let slot = lock_unpoisoned(&self.map).entry(key).or_default().clone();
        let mut guard = lock_unpoisoned(&slot.state);
        loop {
            match &*guard {
                SlotState::Done(value) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(value.clone());
                }
                SlotState::Failed(error) => return Err(error.clone()),
                SlotState::Building => guard = wait_unpoisoned(&slot.ready, guard),
                SlotState::Idle { attempts } => {
                    let attempts = *attempts;
                    *guard = SlotState::Building;
                    drop(guard);
                    if attempts > 0 {
                        // Bounded exponential backoff before a retry, run
                        // outside the lock (waiters see `Building`).
                        std::thread::sleep(RETRY_BACKOFF * (1 << (attempts - 1)));
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(init));
                    // A build preempted by the ambient cancellation token
                    // (deadline blown or batch cancelled mid-build) may have
                    // produced a *truncated* artifact — the executor halts
                    // cooperatively without an error — so the result is not
                    // trustworthy: it must be neither memoized nor counted
                    // against the key's retry budget.  The slot returns to
                    // `Idle` with `attempts` unchanged; woken waiters
                    // re-claim and rebuild under their own (untripped)
                    // tokens, and only the preempted caller pays.
                    if let Some(error) = build_was_preempted() {
                        let mut guard = lock_unpoisoned(&slot.state);
                        *guard = SlotState::Idle { attempts };
                        slot.ready.notify_all();
                        return Err(error);
                    }
                    let mut guard = lock_unpoisoned(&slot.state);
                    let message = match outcome {
                        Ok(Ok((value, built))) => {
                            if built {
                                self.builds.fetch_add(1, Ordering::Relaxed);
                            }
                            let value = Arc::new(value);
                            *guard = SlotState::Done(value.clone());
                            slot.ready.notify_all();
                            return Ok(value);
                        }
                        Ok(Err(message)) => message,
                        Err(payload) => {
                            format!("builder panicked: {}", panic_message(payload.as_ref()))
                        }
                    };
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    let error = BsgError::BuildFailed {
                        kind,
                        key: file_key.to_string(),
                        attempts: attempts + 1,
                        message,
                    };
                    *guard = if attempts + 1 >= MAX_BUILD_ATTEMPTS {
                        SlotState::Failed(error.clone())
                    } else {
                        SlotState::Idle {
                            attempts: attempts + 1,
                        }
                    };
                    // Wake every waiter: under `Failed` they return the
                    // memoized error; under `Idle` the first one claims the
                    // retry with its own initializer.
                    slot.ready.notify_all();
                    return Err(error);
                }
            }
        }
    }
}

/// Two-tier lookup: memory table first, then the disk cache, then a cold
/// build (which is written back to disk).  `file_key` must be a content hash
/// of the table's full in-memory key, so the two tiers agree on identity.
/// A disk payload that fails to decode is corruption, not an error: it is
/// logged once, discounted, rebuilt and overwritten.
#[allow(clippy::too_many_arguments)] // one argument per tier concern; a config struct would obscure the call sites
fn two_tier<K: Eq + Hash + Clone, V>(
    table: &Table<K, V>,
    disk: Option<&DiskCache>,
    kind: &'static str,
    file_key: SourceId,
    key: K,
    decode: impl FnOnce(&[u8]) -> Option<V>,
    encode: impl FnOnce(&V) -> Vec<u8>,
    build: impl FnOnce() -> Result<V, String>,
) -> BsgResult<Arc<V>> {
    table.get_or_try_init(kind, file_key, key, || {
        let Some(disk) = disk else {
            return Ok((build()?, true));
        };
        if let Some(bytes) = disk.load(kind, file_key.as_u128()) {
            match decode(&bytes) {
                Some(value) => return Ok((value, false)),
                None => disk.unhit_corrupt(kind, file_key.as_u128()),
            }
        }
        let value = build()?;
        // Never persist an artifact whose build was preempted mid-way — the
        // memory tier discards it too (see `get_or_try_init`), and a
        // truncated artifact on disk would poison every later process.
        if build_was_preempted().is_none() {
            disk.store(kind, file_key.as_u128(), &encode(&value));
        }
        Ok((value, true))
    })
}

/// Whether the current thread's ambient [`bsg_uarch::cancel::CancelToken`]
/// has tripped, rendered as the error the preempted caller should receive.
fn build_was_preempted() -> Option<BsgError> {
    let token = bsg_uarch::cancel::current()?;
    if token.is_cancelled() {
        Some(BsgError::DeadlineExceeded {
            elapsed_ms: token.elapsed_ms(),
            deadline_ms: token.deadline_ms().unwrap_or(0),
        })
    } else {
        None
    }
}

/// Per-table hit/build counters (a build is a cold miss; every other request
/// is a hit on the memoized artifact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Cold builds of compiled programs (+ images).
    pub compiled_builds: u64,
    /// Cache hits on compiled programs.
    pub compiled_hits: u64,
    /// Cold builds of statistical profiles.
    pub profile_builds: u64,
    /// Cache hits on statistical profiles.
    pub profile_hits: u64,
    /// Cold builds of emitted C text.
    pub c_text_builds: u64,
    /// Cache hits on emitted C text.
    pub c_text_hits: u64,
    /// Cold target-driven synthesis runs.
    pub synthesis_builds: u64,
    /// Cache hits on synthesis results.
    pub synthesis_hits: u64,
    /// Failed build attempts across all tables (each retry counts once).
    pub build_failures: u64,
    /// Disk-tier counters (zero when the disk tier is disabled).
    pub disk: DiskStats,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiled {}/{} profile {}/{} c-text {}/{} synthesis {}/{} (builds/requests); \
             failed {}; disk hits {} writes {} corrupt {} evicted {} io-errors {}",
            self.compiled_builds,
            self.compiled_builds + self.compiled_hits,
            self.profile_builds,
            self.profile_builds + self.profile_hits,
            self.c_text_builds,
            self.c_text_builds + self.c_text_hits,
            self.synthesis_builds,
            self.synthesis_builds + self.synthesis_hits,
            self.build_failures,
            self.disk.hits,
            self.disk.writes,
            self.disk.corrupt,
            self.disk.evicted,
            self.disk.io_errors,
        )?;
        // Per-kind disk attribution, only once the tier has actually served
        // or written something (keeps memory-only runs on one short line).
        if self
            .disk
            .per_kind
            .iter()
            .any(|k| *k != KindStats::default())
        {
            write!(f, "; disk per-kind hits/writes/bytes")?;
            for (name, k) in KINDS.iter().zip(&self.disk.per_kind) {
                write!(f, " {name} {}/{}/{}", k.hits, k.writes, k.bytes_written)?;
            }
        }
        if self.disk.degraded {
            write!(f, " (disk tier degraded to memory-only)")?;
        }
        Ok(())
    }
}

bsg_ir::codec_layout!(struct StoreStats {
    compiled_builds,
    compiled_hits,
    profile_builds,
    profile_hits,
    c_text_builds,
    c_text_hits,
    synthesis_builds,
    synthesis_hits,
    build_failures,
    disk,
});

/// The thread-safe, content-addressed artifact cache (see the module docs).
pub struct ArtifactStore {
    compiled: Table<(SourceId, CompileOptions), CompiledArtifact>,
    profiles: Table<(SourceId, CompileOptions, String, SourceId), StatisticalProfile>,
    c_texts: Table<SourceId, String>,
    syntheses: Table<(SourceId, SourceId, u64), TargetedSynthesis>,
    disk: Option<DiskCache>,
}

impl ArtifactStore {
    /// An empty, memory-only store (no disk tier; unit tests and embedders
    /// that need hermetic behaviour use this).
    pub fn new() -> Self {
        ArtifactStore {
            compiled: Table::new(),
            profiles: Table::new(),
            c_texts: Table::new(),
            syntheses: Table::new(),
            disk: None,
        }
    }

    /// An empty store backed by the given disk cache directory.
    pub fn with_disk(disk: DiskCache) -> Self {
        ArtifactStore {
            disk: Some(disk),
            ..ArtifactStore::new()
        }
    }

    /// The process-wide store used by the experiment harness.  Its disk tier
    /// is configured by [`crate::disk::ENV_DIR`] (`BSG_ARTIFACT_DIR`):
    /// enabled at a versioned temp-dir default unless explicitly disabled.
    pub fn global() -> &'static ArtifactStore {
        static GLOBAL: OnceLock<ArtifactStore> = OnceLock::new();
        GLOBAL.get_or_init(|| ArtifactStore {
            disk: DiskCache::from_env(),
            ..ArtifactStore::new()
        })
    }

    /// The disk tier, if this store has one (for diagnostics).
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The compiled program + predecoded image of `hll` under `options`,
    /// compiling at most once per (source content, options) per process.
    ///
    /// Panics if the build fails, matching the harness convention for suite
    /// workloads (which always compile); use
    /// [`try_compiled`](Self::try_compiled) for per-task fault isolation.
    pub fn compiled(&self, hll: &HllProgram, options: &CompileOptions) -> Arc<CompiledArtifact> {
        self.compiled_keyed(SourceId::of(hll), hll, options)
    }

    /// [`compiled`](Self::compiled) with a caller-supplied content address,
    /// for sweeps that request the same source many times and want to hash
    /// it once.  `source` must be `SourceId::of(hll)`.
    pub fn compiled_keyed(
        &self,
        source: SourceId,
        hll: &HllProgram,
        options: &CompileOptions,
    ) -> Arc<CompiledArtifact> {
        self.try_compiled_keyed(source, hll, options)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fault-isolating [`compiled`](Self::compiled): a failing or panicking
    /// build yields `Err` (memoized per key after bounded retries) instead
    /// of aborting the process or hanging concurrent waiters.
    pub fn try_compiled(
        &self,
        hll: &HllProgram,
        options: &CompileOptions,
    ) -> BsgResult<Arc<CompiledArtifact>> {
        self.try_compiled_keyed(SourceId::of(hll), hll, options)
    }

    /// [`try_compiled`](Self::try_compiled) with a caller-supplied content
    /// address (`source` must be `SourceId::of(hll)`).
    pub fn try_compiled_keyed(
        &self,
        source: SourceId,
        hll: &HllProgram,
        options: &CompileOptions,
    ) -> BsgResult<Arc<CompiledArtifact>> {
        two_tier(
            &self.compiled,
            self.disk.as_ref(),
            "compiled",
            SourceId::of(&(source, *options)),
            (source, *options),
            // The disk payload is the lowered program; the predecoded image
            // is derived deterministically on load (decode + predecode is
            // far cheaper than the optimizing compile it replaces).
            |bytes| {
                let program: Program = from_canon_bytes(bytes)?;
                let image = ExecImage::new(&program);
                Some(CompiledArtifact {
                    source,
                    options: *options,
                    program,
                    image,
                })
            },
            |artifact| to_canon_bytes(&artifact.program),
            || {
                let program = compile(hll, options)
                    .map_err(|e| format!("compile failed: {e}"))?
                    .program;
                let image = ExecImage::new(&program);
                Ok(CompiledArtifact {
                    source,
                    options: *options,
                    program,
                    image,
                })
            },
        )
    }

    /// The statistical profile of `hll` compiled under `options`, reusing the
    /// memoized compiled artifact (and its image) for the profiling run.
    /// A warm disk tier serves the profile without compiling at all.
    ///
    /// Panics if the build fails; see [`try_profile`](Self::try_profile).
    pub fn profile(
        &self,
        hll: &HllProgram,
        options: &CompileOptions,
        name: &str,
        config: &ProfileConfig,
    ) -> Arc<StatisticalProfile> {
        self.try_profile(hll, options, name, config)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fault-isolating [`profile`](Self::profile).
    pub fn try_profile(
        &self,
        hll: &HllProgram,
        options: &CompileOptions,
        name: &str,
        config: &ProfileConfig,
    ) -> BsgResult<Arc<StatisticalProfile>> {
        let source = SourceId::of(hll);
        let key = (source, *options, name.to_string(), SourceId::of(config));
        two_tier(
            &self.profiles,
            self.disk.as_ref(),
            "profile",
            SourceId::of(&((source, *options), (name, SourceId::of(config)))),
            key,
            from_canon_bytes::<StatisticalProfile>,
            to_canon_bytes,
            || {
                let artifact = self
                    .try_compiled_keyed(source, hll, options)
                    .map_err(|e| e.to_string())?;
                Ok(profile_image(
                    &artifact.program,
                    &artifact.image,
                    name,
                    config,
                ))
            },
        )
    }

    /// The emitted C text of `hll`.  Panics if the build fails; see
    /// [`try_c_text`](Self::try_c_text).
    pub fn c_text(&self, hll: &HllProgram) -> Arc<String> {
        self.try_c_text(hll).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fault-isolating [`c_text`](Self::c_text).
    pub fn try_c_text(&self, hll: &HllProgram) -> BsgResult<Arc<String>> {
        let source = SourceId::of(hll);
        two_tier(
            &self.c_texts,
            self.disk.as_ref(),
            "c-text",
            source,
            source,
            from_canon_bytes::<String>,
            to_canon_bytes,
            || Ok(cemit::emit_c(hll)),
        )
    }

    /// The target-driven synthesis for `profile`, memoized on the profile's
    /// content, the synthesis configuration and the instruction target.
    /// Panics if the build fails; see [`try_synthesis`](Self::try_synthesis).
    pub fn synthesis(
        &self,
        profile: &StatisticalProfile,
        base: &SynthesisConfig,
        target_instructions: u64,
    ) -> Arc<TargetedSynthesis> {
        self.try_synthesis(profile, base, target_instructions)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fault-isolating [`synthesis`](Self::synthesis).
    pub fn try_synthesis(
        &self,
        profile: &StatisticalProfile,
        base: &SynthesisConfig,
        target_instructions: u64,
    ) -> BsgResult<Arc<TargetedSynthesis>> {
        let key = (
            SourceId::of(profile),
            SourceId::of(base),
            target_instructions,
        );
        two_tier(
            &self.syntheses,
            self.disk.as_ref(),
            "synthesis",
            SourceId::of(&key),
            key,
            from_canon_bytes::<TargetedSynthesis>,
            to_canon_bytes,
            || Ok(synthesize_with_target(profile, base, target_instructions)),
        )
    }

    /// A snapshot of the hit/build counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            compiled_builds: self.compiled.builds.load(Ordering::Relaxed),
            compiled_hits: self.compiled.hits.load(Ordering::Relaxed),
            profile_builds: self.profiles.builds.load(Ordering::Relaxed),
            profile_hits: self.profiles.hits.load(Ordering::Relaxed),
            c_text_builds: self.c_texts.builds.load(Ordering::Relaxed),
            c_text_hits: self.c_texts.hits.load(Ordering::Relaxed),
            synthesis_builds: self.syntheses.builds.load(Ordering::Relaxed),
            synthesis_hits: self.syntheses.hits.load(Ordering::Relaxed),
            build_failures: self.compiled.failures.load(Ordering::Relaxed)
                + self.profiles.failures.load(Ordering::Relaxed)
                + self.c_texts.failures.load(Ordering::Relaxed)
                + self.syntheses.failures.load(Ordering::Relaxed),
            disk: self.disk.as_ref().map(DiskCache::stats).unwrap_or_default(),
        }
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_compiler::{OptLevel, TargetIsa};
    use bsg_ir::build::FunctionBuilder;
    use bsg_ir::hll::Expr;

    fn tiny_program(iters: i64) -> HllProgram {
        let mut f = FunctionBuilder::new("main");
        f.for_loop("i", Expr::int(0), Expr::int(iters), |b| {
            b.assign_var("s", Expr::add(Expr::var("s"), Expr::var("i")));
        });
        f.ret(Some(Expr::var("s")));
        HllProgram::with_main(f.finish())
    }

    #[test]
    fn source_ids_are_stable_and_content_sensitive() {
        let a = tiny_program(10);
        assert_eq!(SourceId::of(&a), SourceId::of(&a.clone()));
        assert_ne!(SourceId::of(&a), SourceId::of(&tiny_program(11)));
    }

    /// Regression test for the Debug-rendering hash: two sources whose
    /// `Debug` strings coincide must still get distinct content addresses.
    #[test]
    fn debug_colliding_sources_get_distinct_ids() {
        // Every f64 NaN payload renders as the three characters "NaN", so
        // under the old `format!("{:?}")` hash these two programs shared one
        // cache entry and the store served whichever compiled first.
        let program_with_float = |bits: u64| {
            let mut f = FunctionBuilder::new("main");
            f.assign_var("x", Expr::float(f64::from_bits(bits)));
            f.ret(Some(Expr::var("x")));
            HllProgram::with_main(f.finish())
        };
        let a = program_with_float(0x7ff8_0000_0000_0000); // canonical quiet NaN
        let b = program_with_float(0x7ff8_0000_0000_0001); // distinct payload
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "the adversarial pair must collide under the old Debug scheme"
        );
        assert_ne!(
            SourceId::of(&a),
            SourceId::of(&b),
            "canonical byte encoding must separate them"
        );

        // Same shape, different field boundary: without length prefixes the
        // concatenated name bytes of ("ab", "c") and ("a", "bc") coincide.
        let two_vars = |x: &str, y: &str| {
            let mut f = FunctionBuilder::new("main");
            f.assign_var(x, Expr::int(1));
            f.assign_var(y, Expr::int(2));
            f.ret(None);
            HllProgram::with_main(f.finish())
        };
        assert_ne!(
            SourceId::of(&two_vars("ab", "c")),
            SourceId::of(&two_vars("a", "bc"))
        );
    }

    #[test]
    fn repeated_requests_share_one_build() {
        let store = ArtifactStore::new();
        let hll = tiny_program(10);
        let opts = CompileOptions::new(OptLevel::O1, TargetIsa::X86);
        let first = store.compiled(&hll, &opts);
        let second = store.compiled(&hll, &opts);
        assert!(Arc::ptr_eq(&first, &second), "one shared artifact");
        let stats = store.stats();
        assert_eq!(stats.compiled_builds, 1);
        assert_eq!(stats.compiled_hits, 1);
    }

    #[test]
    fn distinct_options_build_distinct_artifacts() {
        let store = ArtifactStore::new();
        let hll = tiny_program(10);
        let o0 = store.compiled(&hll, &CompileOptions::new(OptLevel::O0, TargetIsa::X86));
        let o2 = store.compiled(&hll, &CompileOptions::new(OptLevel::O2, TargetIsa::X86));
        assert!(!Arc::ptr_eq(&o0, &o2));
        assert_eq!(store.stats().compiled_builds, 2);
    }

    #[test]
    fn concurrent_requests_build_exactly_once() {
        let store = ArtifactStore::new();
        let hll = tiny_program(200);
        let opts = CompileOptions::portable(OptLevel::O0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| store.compiled(&hll, &opts));
            }
        });
        let stats = store.stats();
        assert_eq!(stats.compiled_builds, 1);
        assert_eq!(stats.compiled_hits, 7);
    }

    /// Satellite of the server PR: the server funnels many client threads
    /// into one store, so the "exactly once" accounting has to hold at a
    /// contention level the 8-thread test above doesn't reach.  A barrier
    /// releases 32 threads onto one cold key at the same instant: exactly 1
    /// build, exactly N-1 hits, zero failures.
    #[test]
    fn a_thundering_herd_on_one_key_counts_one_build_and_n_minus_1_hits() {
        const HERD: usize = 32;
        let store = ArtifactStore::new();
        let hll = tiny_program(300);
        let opts = CompileOptions::portable(OptLevel::O1);
        let barrier = std::sync::Barrier::new(HERD);
        std::thread::scope(|s| {
            for _ in 0..HERD {
                s.spawn(|| {
                    barrier.wait();
                    store.compiled(&hll, &opts)
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.compiled_builds, 1, "{stats}");
        assert_eq!(stats.compiled_hits, (HERD - 1) as u64, "{stats}");
        assert_eq!(stats.build_failures, 0, "{stats}");
    }

    /// The retry path under the same herd: a builder that fails its first
    /// two attempts and then succeeds must count each failed attempt exactly
    /// once (no double-count when a failure releases a crowd of waiters) and
    /// still end at one successful build.  Which requests surface the two
    /// errors is scheduling-dependent; the *totals* are not.
    #[test]
    fn concurrent_retries_never_double_count_build_failures() {
        const HERD: usize = 16;
        const FAILS: u64 = (MAX_BUILD_ATTEMPTS - 1) as u64;
        let table: std::sync::Arc<Table<u32, u32>> = std::sync::Arc::new(Table::new());
        let key_id = SourceId::of(&11u64);
        let calls = std::sync::Arc::new(AtomicU64::new(0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(HERD));
        let outcomes: Vec<Result<u32, crate::BsgError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..HERD)
                .map(|_| {
                    let table = table.clone();
                    let calls = calls.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        table
                            .get_or_try_init("compiled", key_id, 11, || {
                                if calls.fetch_add(1, Ordering::Relaxed) < FAILS {
                                    Err("transient failure".to_string())
                                } else {
                                    Ok((42, true))
                                }
                            })
                            .map(|v| *v)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(table.failures.load(Ordering::Relaxed), FAILS);
        assert_eq!(table.builds.load(Ordering::Relaxed), 1);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            FAILS + 1,
            "builder ran per attempt"
        );
        let errs = outcomes.iter().filter(|r| r.is_err()).count();
        let oks = outcomes.iter().filter(|r| r.is_ok()).count();
        // A pre-terminal failure is surfaced only by the request that
        // claimed the slot (waiters re-loop and retry), so the error count
        // is exact — not merely bounded — no matter how the herd schedules.
        assert_eq!(errs as u64, FAILS);
        assert_eq!(errs + oks, HERD);
        assert!(outcomes.iter().all(|r| !matches!(r, Ok(v) if *v != 42)));
        // Everyone else either built the value (1) or hit the memo.
        let hits = table.hits.load(Ordering::Relaxed);
        assert_eq!(
            hits + FAILS + 1,
            HERD as u64,
            "every request resolved exactly once: hit, winning build, or claimed failure"
        );
    }

    fn temp_disk(tag: &str) -> DiskCache {
        let dir = std::env::temp_dir().join(format!(
            "bsg-store-test-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        DiskCache::at(dir)
    }

    /// The acceptance surface of the disk tier: a *fresh store over the same
    /// cache directory* (modeling a second harness process) serves compiled
    /// programs, profiles, synthesis results and C text from disk, all
    /// bit-identical to the cold builds, with zero rebuild work.
    #[test]
    fn second_store_over_same_directory_serves_from_disk_bit_identically() {
        let root = temp_disk("twoproc").root().to_path_buf();
        let hll = tiny_program(60);
        let opts = CompileOptions::new(OptLevel::O2, TargetIsa::X86_64);
        let pcfg = ProfileConfig::default();
        let scfg = SynthesisConfig::default();

        let cold_store = ArtifactStore::with_disk(DiskCache::at(&root));
        let cold_compiled = cold_store.compiled(&hll, &opts);
        let cold_profile =
            cold_store.profile(&hll, &CompileOptions::portable(OptLevel::O0), "t", &pcfg);
        let cold_synth = cold_store.synthesis(&cold_profile, &scfg, 2_000);
        let cold_c = cold_store.c_text(&hll);
        assert_eq!(cold_store.stats().disk.hits, 0, "first process is cold");
        assert!(cold_store.stats().disk.writes >= 4);

        let warm_store = ArtifactStore::with_disk(DiskCache::at(&root));
        let warm_compiled = warm_store.compiled(&hll, &opts);
        let warm_profile =
            warm_store.profile(&hll, &CompileOptions::portable(OptLevel::O0), "t", &pcfg);
        let warm_synth = warm_store.synthesis(&warm_profile, &scfg, 2_000);
        let warm_c = warm_store.c_text(&hll);

        assert_eq!(warm_compiled.program, cold_compiled.program);
        assert_eq!(
            warm_compiled.image.num_sites(),
            cold_compiled.image.num_sites()
        );
        assert_eq!(*warm_profile, *cold_profile);
        assert_eq!(*warm_synth, *cold_synth);
        assert_eq!(*warm_c, *cold_c);

        let stats = warm_store.stats();
        assert!(
            stats.disk.hits >= 4,
            "disk tier served the warm run: {stats}"
        );
        assert_eq!(
            (
                stats.compiled_builds,
                stats.profile_builds,
                stats.synthesis_builds,
                stats.c_text_builds
            ),
            (0, 0, 0, 0),
            "warm run rebuilt nothing: {stats}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Satellite requirement: a truncated disk entry must log + rebuild,
    /// never panic — and the rebuilt artifact repairs the cache in place.
    #[test]
    fn truncated_disk_entries_rebuild_without_panicking() {
        let root = temp_disk("trunc").root().to_path_buf();
        let hll = tiny_program(40);
        let opts = CompileOptions::new(OptLevel::O1, TargetIsa::X86);

        let first = ArtifactStore::with_disk(DiskCache::at(&root));
        let reference = first.compiled(&hll, &opts);

        // Truncate every cached entry mid-payload (keeping valid headers
        // would only exercise the checksum; cutting inside the header
        // exercises the header parser too).
        let mut damaged = 0;
        for entry in std::fs::read_dir(root.join("compiled")).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            damaged += 1;
        }
        assert!(damaged > 0, "the cold run must have populated the cache");

        let second = ArtifactStore::with_disk(DiskCache::at(&root));
        let rebuilt = second.compiled(&hll, &opts);
        assert_eq!(rebuilt.program, reference.program, "rebuild is identical");
        let stats = second.stats();
        assert_eq!(stats.disk.corrupt, 1, "corruption detected: {stats}");
        assert_eq!(stats.compiled_builds, 1, "fell back to a rebuild");

        // The rebuild overwrote the damaged entry: a third store hits disk.
        let third = ArtifactStore::with_disk(DiskCache::at(&root));
        let repaired = third.compiled(&hll, &opts);
        assert_eq!(repaired.program, reference.program);
        assert_eq!(third.stats().disk.hits, 1, "cache repaired in place");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A payload whose checksum holds but whose canonical bytes don't decode
    /// (e.g. written by a different build) is treated as corruption too.
    #[test]
    fn undecodable_payloads_fall_back_to_rebuild() {
        let root = temp_disk("undecodable").root().to_path_buf();
        let hll = tiny_program(15);
        let opts = CompileOptions::new(OptLevel::O0, TargetIsa::X86);
        let source = SourceId::of(&hll);
        let file_key = SourceId::of(&(source, opts));

        // Store well-formed garbage under the exact key the store will probe.
        let cache = DiskCache::at(&root);
        cache.store("compiled", file_key.as_u128(), b"not a canonical program");

        let store = ArtifactStore::with_disk(DiskCache::at(&root));
        let artifact = store.compiled(&hll, &opts);
        assert_eq!(artifact.program, compile(&hll, &opts).unwrap().program);
        let stats = store.stats();
        assert_eq!(stats.disk.corrupt, 1);
        assert_eq!(stats.disk.hits, 0, "a discarded decode is not a hit");
        assert_eq!(stats.compiled_builds, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A program whose compile fails (call to an undefined function): the
    /// seed for every failure-path test below.
    fn uncompilable_program() -> HllProgram {
        let mut f = FunctionBuilder::new("main");
        f.assign_var("x", Expr::call("no_such_function", vec![]));
        f.ret(Some(Expr::var("x")));
        HllProgram::with_main(f.finish())
    }

    #[test]
    fn failed_builds_return_errors_and_memoize_after_the_attempt_budget() {
        let store = ArtifactStore::new();
        let hll = uncompilable_program();
        let opts = CompileOptions::new(OptLevel::O0, TargetIsa::X86);
        // Every request gets an Err; attempts advance until the budget is
        // exhausted, after which the memoized error (with the final attempt
        // count) is served without re-running the builder.
        for expect_attempts in 1..=MAX_BUILD_ATTEMPTS + 2 {
            let err = store.try_compiled(&hll, &opts).unwrap_err();
            match err {
                crate::BsgError::BuildFailed {
                    kind,
                    attempts,
                    ref message,
                    ..
                } => {
                    assert_eq!(kind, "compiled");
                    assert_eq!(attempts, expect_attempts.min(MAX_BUILD_ATTEMPTS));
                    assert!(message.contains("no_such_function"), "{message}");
                }
                other => panic!("expected BuildFailed, got {other}"),
            }
        }
        let stats = store.stats();
        assert_eq!(stats.compiled_builds, 0, "no successful build");
        assert_eq!(
            stats.build_failures,
            u64::from(MAX_BUILD_ATTEMPTS),
            "builder ran exactly MAX_BUILD_ATTEMPTS times, then the memo served"
        );
    }

    #[test]
    fn a_failed_build_does_not_poison_other_keys() {
        let store = ArtifactStore::new();
        let opts = CompileOptions::new(OptLevel::O0, TargetIsa::X86);
        assert!(store.try_compiled(&uncompilable_program(), &opts).is_err());
        let ok = store.try_compiled(&tiny_program(10), &opts);
        assert!(ok.is_ok(), "healthy keys are unaffected: {:?}", ok.err());
    }

    /// The acceptance-criterion regression: pre-PR-6, a failing builder left
    /// its per-key `OnceLock` unset forever and every concurrent waiter
    /// deadlocked.  Now all waiters unblock with an error.
    #[test]
    fn concurrent_waiters_on_a_failing_build_unblock_with_errors() {
        let store = ArtifactStore::new();
        let hll = uncompilable_program();
        let opts = CompileOptions::new(OptLevel::O1, TargetIsa::X86);
        let errors: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| store.try_compiled(&hll, &opts).is_err()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(false))
                .collect()
        });
        assert_eq!(errors.len(), 8);
        assert!(
            errors.iter().all(|e| *e),
            "every waiter received an error instead of hanging"
        );
    }

    #[test]
    fn a_panicking_builder_releases_waiters_and_allows_retry() {
        // Exercise the slot machine directly with a builder that panics
        // twice and then succeeds: the first two requests see BuildFailed
        // (with the panic message), the third builds, and later requests
        // hit the memoized value.
        let table: Table<u32, u32> = Table::new();
        let key_id = SourceId::of(&7u64);
        let calls = AtomicU64::new(0);
        for attempt in 1..=2u32 {
            let result = table.get_or_try_init("compiled", key_id, 7, || {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("flaky builder dies (attempt {attempt})");
            });
            match result {
                Err(crate::BsgError::BuildFailed {
                    attempts, message, ..
                }) => {
                    assert_eq!(attempts, attempt);
                    assert!(message.contains("flaky builder dies"), "{message}");
                }
                other => panic!("expected BuildFailed, got {other:?}"),
            }
        }
        let value = table.get_or_try_init("compiled", key_id, 7, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok((99, true))
        });
        assert_eq!(value.as_deref(), Ok(&99), "third attempt succeeds");
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let again = table.get_or_try_init("compiled", key_id, 7, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok((0, true))
        });
        assert_eq!(again.as_deref(), Ok(&99), "memoized after success");
        assert_eq!(calls.load(Ordering::Relaxed), 3, "no rebuild after Done");
    }

    /// PR-10 regression: a build running under a tripped cancellation token
    /// may have been halted mid-execution, so its (possibly truncated)
    /// result must be discarded — not memoized, not written to disk, not
    /// counted as a failed attempt — and the key must rebuild cleanly for
    /// the next (uncancelled) request.
    #[test]
    fn a_preempted_build_is_not_memoized_and_does_not_burn_attempts() {
        let table: Table<u32, u32> = Table::new();
        let key_id = SourceId::of(&3u64);
        let calls = AtomicU64::new(0);
        let token = std::sync::Arc::new(bsg_uarch::cancel::CancelToken::with_deadline(
            Duration::from_millis(1),
        ));
        std::thread::sleep(Duration::from_millis(5)); // token is now tripped
        let result = {
            let _guard = bsg_uarch::cancel::install(token);
            table.get_or_try_init("compiled", key_id, 3, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok((13, true)) // stands in for a truncated artifact
            })
        };
        assert!(
            matches!(result, Err(crate::BsgError::DeadlineExceeded { .. })),
            "the preempted caller gets DeadlineExceeded, got {result:?}"
        );
        assert_eq!(
            table.failures.load(Ordering::Relaxed),
            0,
            "preemption is not a build failure"
        );
        assert_eq!(
            table.builds.load(Ordering::Relaxed),
            0,
            "the discarded result is not a build"
        );
        // A later request (no token) rebuilds from scratch and memoizes.
        let value = table.get_or_try_init("compiled", key_id, 3, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok((42, true))
        });
        assert_eq!(
            value.as_deref(),
            Ok(&42),
            "the preempted value was never served"
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2, "one clean rebuild");
    }

    #[test]
    fn store_hit_is_bit_identical_to_a_cold_build() {
        let store = ArtifactStore::new();
        let hll = tiny_program(25);
        let opts = CompileOptions::new(OptLevel::O2, TargetIsa::X86_64);
        let cached = store.compiled(&hll, &opts);
        let cold = compile(&hll, &opts).unwrap().program;
        assert_eq!(cached.program, cold);
        let config = ProfileConfig::default();
        let cached_profile =
            store.profile(&hll, &CompileOptions::portable(OptLevel::O0), "t", &config);
        let cold_profile = bsg_profile::profile_program(
            &compile(&hll, &CompileOptions::portable(OptLevel::O0))
                .unwrap()
                .program,
            "t",
            &config,
        );
        assert_eq!(*cached_profile, cold_profile);
    }
}
