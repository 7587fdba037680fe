//! Set-associative data-cache simulation.
//!
//! The paper simulates caches during profiling to classify each memory access
//! into a hit/miss-rate class (Table I), and sweeps data-cache sizes from
//! 1 KB to 32 KB in its evaluation (Figures 7, 8 and 10).  [`Cache`] is a
//! single configuration; [`CacheSweep`] runs a whole family of configurations
//! over one address stream in a single pass, like the single-pass
//! multi-configuration simulation the paper refers to (Hill & Smith).

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

    /// Number of sets.
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
        sets.next_power_of_two()
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
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[set]` holds up to `associativity` tags, most recently used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
    /// `log2(line_bytes)` when the line size is a power of two (it always is
    /// for the paper's configurations); avoids a 64-bit division per access.
    line_shift: Option<u32>,
    /// `sets.len() - 1`; the set count is always a power of two.
    set_mask: u64,
    set_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let line_shift = config
            .line_bytes
            .is_power_of_two()
            .then(|| config.line_bytes.trailing_zeros());
        Cache {
            config,
            sets: vec![Vec::new(); sets as usize],
            stats: CacheStats::default(),
            line_shift,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses `addr` (byte address); returns `true` on a hit.  Writes are
    /// modeled as write-allocate, so reads and writes behave identically for
    /// hit-rate purposes.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_bytes,
        };
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            ways.remove(pos);
            ways.push(tag);
            self.stats.hits += 1;
            true
        } else {
            if ways.len() as u64 >= self.config.associativity {
                ways.remove(0);
            }
            ways.push(tag);
            false
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
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

    /// The 1 KB – 32 KB sweep used in Figures 7 and 8 of the paper.
    pub fn paper_sweep() -> Self {
        CacheSweep::new([1, 2, 4, 8, 16, 32].map(CacheConfig::kb))
    }

    /// Feeds one access to every cache in the sweep.
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

    /// The caches themselves (e.g. to reset them).
    pub fn caches_mut(&mut self) -> &mut [Cache] {
        &mut self.caches
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

    /// Creates the 1–32 KB paper sweep observer.
    pub fn paper_sweep() -> Self {
        CacheObserver {
            sweep: CacheSweep::paper_sweep(),
        }
    }
}

impl crate::exec::Observer for CacheObserver {
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
    fn reset_clears_state() {
        let mut c = Cache::new(CacheConfig::kb(1));
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0), "contents were cleared");
    }

    #[test]
    fn empty_cache_reports_full_hit_rate() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.miss_rate(), 0.0);
    }
}
