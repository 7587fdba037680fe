//! Set-associative data-cache simulation.
//!
//! The paper simulates caches during profiling to classify each memory access
//! into a hit/miss-rate class (Table I), and sweeps data-cache sizes from
//! 1 KB to 32 KB in its evaluation (Figures 7, 8 and 10).  [`Cache`] is a
//! single configuration; [`CacheSweep`] runs a whole family of configurations
//! over one address stream in a single pass, like the single-pass
//! multi-configuration simulation the paper refers to (Hill & Smith).
//!
//! Every timing model, sweep and profile accesses a [`Cache`] per memory
//! operation, so its layout is flat: one tag array for all sets, each set a
//! contiguous LRU-ordered slice updated in place (no per-set allocation, no
//! per-access `remove` + `push`).  Its reference is the independent LRU in
//! `tests/cache_oracle.rs`, not the scalar pipeline model, which shares
//! this type.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (the paper assumes 32-byte lines).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u64,
}

impl CacheConfig {
    /// A configuration with the paper's 32-byte lines and 4-way associativity.
    pub fn kb(size_kb: u64) -> Self {
        CacheConfig {
            size_bytes: size_kb * 1024,
            line_bytes: 32,
            associativity: 4,
        }
    }

    /// Number of sets: `size_bytes / (line_bytes × associativity)`, which
    /// need not be a power of two (a 24 KB, 4-way cache of 32-byte lines
    /// has 192 sets).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero line size or
    /// associativity, or capacity smaller than one way of lines).
    pub fn sets(&self) -> u64 {
        assert!(
            self.line_bytes > 0 && self.associativity > 0,
            "degenerate cache configuration"
        );
        let sets = self.size_bytes / (self.line_bytes * self.associativity);
        assert!(sets > 0, "cache smaller than one way");
        sets
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB/{}B-line/{}-way",
            self.size_bytes / 1024,
            self.line_bytes,
            self.associativity
        )
    }
}

/// Hit/miss statistics of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses.
    pub accesses: u64,
    /// Number of hits.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 1.0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.hit_rate()
    }
}

/// A set-associative LRU cache.
///
/// The tags of every set live in one flat, zero-initialised `sets × ways`
/// array; set `s` owns the slice `s * ways .. (s + 1) * ways`, ordered from
/// least to most recently used.  A hit rotates the found tag to the end of
/// its slice; a miss shifts the slice left by one — dropping the LRU tag,
/// or an empty slot while the set is still filling — and writes the new
/// tag at the end.  Each slot holds `tag + 1`, so the zero of an empty
/// slot never equals a resident tag (see [`Cache::new`] for why `tag + 1`
/// cannot overflow).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` slots holding `tag + 1` (0 = empty), LRU first per set.
    slots: Vec<u64>,
    ways: usize,
    stats: CacheStats,
    /// `log2(line_bytes)` when the line size is a power of two (it always is
    /// for the paper's configurations); avoids a 64-bit division per access.
    line_shift: Option<u32>,
    /// `log2(sets)` when the set count is a power of two: the set is then
    /// `line & set_mask` and the tag `line >> set_shift`.  Otherwise the set
    /// is `line % sets` and the tag `line / sets`.
    set_shift: Option<u32>,
    sets: u64,
    /// `sets - 1`.
    set_mask: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (see [`CacheConfig::sets`]), and
    /// on a single-set cache of 1-byte lines: its tags span all of `u64`,
    /// leaving no value free to mark an empty slot.  Every other
    /// configuration has `line_bytes × sets >= 2`, so a tag is at most
    /// `u64::MAX / 2` and `tag + 1` never overflows.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            config.line_bytes > 1 || sets > 1,
            "single-set cache of 1-byte lines"
        );
        let ways = config.associativity as usize;
        let pow2_shift = |n: u64| n.is_power_of_two().then(|| n.trailing_zeros());
        Cache {
            config,
            slots: vec![0; sets as usize * ways],
            ways,
            stats: CacheStats::default(),
            line_shift: pow2_shift(config.line_bytes),
            set_shift: pow2_shift(sets),
            sets,
            set_mask: sets - 1,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses `addr` (byte address); returns `true` on a hit.  Writes are
    /// modeled as write-allocate, so reads and writes behave identically for
    /// hit-rate purposes.
    // Inlined: every caller (observers, timing models, the profiler) sits in
    // another crate or codegen unit, and the call costs as much as a hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_bytes,
        };
        let (set, tag) = match self.set_shift {
            Some(shift) => (line & self.set_mask, line >> shift),
            None => (line % self.sets, line / self.sets),
        };
        let key = tag + 1;
        let start = set as usize * self.ways;
        let ways = &mut self.slots[start..start + self.ways];
        let last = ways.len() - 1;
        // Search from the MRU end: temporal locality makes recent tags the
        // likeliest hits, and a hit on the MRU tag moves nothing.
        if ways[last] == key {
            self.stats.hits += 1;
            return true;
        }
        let hit = ways[..last].iter().rposition(|&k| k == key);
        let from = hit.unwrap_or(0);
        for i in from..last {
            ways[i] = ways[i + 1];
        }
        ways[last] = key;
        self.stats.hits += hit.is_some() as u64;
        hit.is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Runs several cache configurations over the same address stream.
#[derive(Debug, Clone)]
pub struct CacheSweep {
    caches: Vec<Cache>,
}

impl CacheSweep {
    /// Creates a sweep over the given configurations.
    pub fn new(configs: impl IntoIterator<Item = CacheConfig>) -> Self {
        CacheSweep {
            caches: configs.into_iter().map(Cache::new).collect(),
        }
    }

    /// Feeds one access to every cache in the sweep.
    #[inline]
    pub fn access(&mut self, addr: u64) {
        for c in &mut self.caches {
            c.access(addr);
        }
    }

    /// `(config, stats)` for each simulated cache.
    pub fn results(&self) -> Vec<(CacheConfig, CacheStats)> {
        self.caches
            .iter()
            .map(|c| (c.config(), c.stats()))
            .collect()
    }
}

/// An [`Observer`](crate::exec::Observer) that feeds every data access of an
/// execution into a cache sweep.
#[derive(Debug, Clone)]
pub struct CacheObserver {
    /// The sweep being fed.
    pub sweep: CacheSweep,
}

impl CacheObserver {
    /// Creates an observer over the given configurations.
    pub fn new(configs: impl IntoIterator<Item = CacheConfig>) -> Self {
        CacheObserver {
            sweep: CacheSweep::new(configs),
        }
    }
}

impl crate::exec::Observer for CacheObserver {
    #[inline]
    fn on_inst(&mut self, event: &crate::exec::InstEvent) {
        if let Some(a) = event.mem_read {
            self.sweep.access(a);
        }
        if let Some(a) = event.mem_write {
            self.sweep.access(a);
        }
    }
}

bsg_ir::codec_layout!(struct CacheConfig {
    size_bytes,
    line_bytes,
    associativity,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_set_math() {
        let c = CacheConfig::kb(8);
        assert_eq!(c.size_bytes, 8192);
        assert_eq!(c.sets(), 64);
        assert!(!c.to_string().is_empty());
        assert_eq!(CacheConfig::kb(24).sets(), 192, "not rounded up to 256");
    }

    #[test]
    fn non_power_of_two_sets_index_by_modulo() {
        // 3 sets of one way: lines 0 and 3 share set 0, line 1 does not.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 96,
            line_bytes: 32,
            associativity: 1,
        });
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0), "line 1 maps to set 1");
        assert!(!c.access(96), "line 3 evicts line 0 from set 0");
        assert!(!c.access(0));
    }

    #[test]
    #[should_panic(expected = "single-set cache of 1-byte lines")]
    fn full_width_tags_are_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 4,
            line_bytes: 1,
            associativity: 4,
        });
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig::kb(1));
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x101f), "same 32-byte line");
        assert!(!c.access(0x1020), "next line misses");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        // Direct-mapped-ish scenario: 1KB, 32B lines, 2-way => 16 sets.
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            associativity: 2,
        };
        let mut c = Cache::new(cfg);
        let set_stride = 32 * 16; // same set, different tags
        let a = 0;
        let b = set_stride;
        let d = 2 * set_stride;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a), "a is still resident");
        assert!(!c.access(d), "d evicts b (LRU)");
        assert!(c.access(a), "a was more recently used than b");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn zero_stride_always_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::kb(4));
        c.access(0x4000);
        for _ in 0..100 {
            assert!(c.access(0x4000));
        }
        assert_eq!(c.stats().hits, 100);
    }

    #[test]
    fn large_stride_always_misses_in_small_cache() {
        // Stride of 4KB in a 1KB cache: every access maps far apart and the
        // working set vastly exceeds capacity.
        let mut c = Cache::new(CacheConfig::kb(1));
        let mut misses = 0;
        for i in 0..256u64 {
            if !c.access(i * 4096) {
                misses += 1;
            }
        }
        assert_eq!(misses, 256);
    }

    #[test]
    fn hit_rate_monotonically_improves_with_size_for_lru_sweep() {
        // LRU inclusion property: a bigger cache with the same line size and
        // full associativity never has fewer hits.
        let configs = [1u64, 2, 4, 8, 16, 32].map(|kb| CacheConfig {
            size_bytes: kb * 1024,
            line_bytes: 32,
            associativity: kb * 1024 / 32, // fully associative
        });
        let mut sweep = CacheSweep::new(configs);
        // A pseudo-random-ish but deterministic address stream with locality.
        let mut addr = 0u64;
        for i in 0..20_000u64 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i) % (64 * 1024);
            sweep.access(addr);
            sweep.access((i * 8) % 4096);
        }
        let results = sweep.results();
        for w in results.windows(2) {
            assert!(
                w[1].1.hit_rate() >= w[0].1.hit_rate() - 1e-12,
                "{} -> {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn empty_cache_reports_full_hit_rate() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.miss_rate(), 0.0);
    }
}
