//! Differential oracle for the data-cache model.
//!
//! Every timing model, cache sweep and profile goes through
//! [`bsg_uarch::cache::Cache`], and the scalar `PipelineSim` oracle shares
//! it, so the pipeline differential suites cannot catch a cache bug.  This
//! suite checks `Cache` against an independent set-associative LRU: one
//! growable tag list per set, most recently used last, indexed by
//! `line % sets` and tagged by `line / sets`.  The two must agree hit for
//! hit on every access, and in their final statistics.

use bsg_uarch::cache::{Cache, CacheConfig, CacheStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference LRU: one `Vec` of tags per set, removed and re-pushed on
/// every hit.
struct OracleCache {
    line_bytes: u64,
    ways: usize,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl OracleCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.size_bytes / (config.line_bytes * config.associativity);
        OracleCache {
            line_bytes: config.line_bytes,
            ways: config.associativity as usize,
            sets: vec![Vec::new(); sets as usize],
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr / self.line_bytes;
        let nsets = self.sets.len() as u64;
        let tags = &mut self.sets[(line % nsets) as usize];
        let tag = line / nsets;
        if let Some(pos) = tags.iter().position(|&t| t == tag) {
            tags.remove(pos);
            tags.push(tag);
            self.stats.hits += 1;
            true
        } else {
            if tags.len() == self.ways {
                tags.remove(0);
            }
            tags.push(tag);
            false
        }
    }
}

fn config(size_bytes: u64, line_bytes: u64, associativity: u64) -> CacheConfig {
    CacheConfig {
        size_bytes,
        line_bytes,
        associativity,
    }
}

/// 1-way, 4-way, fully associative, one set, a 24-byte line and
/// non-power-of-two set counts (the Atom N270's 24 KB L1 and a 3-set toy).
fn configs() -> Vec<CacheConfig> {
    vec![
        config(1024, 32, 1),
        CacheConfig::kb(1),
        CacheConfig::kb(8),
        config(2048, 32, 64),
        config(256, 32, 8),
        config(768, 24, 4),
        CacheConfig::kb(24),
        config(3 * 64, 64, 1),
        config(6 * 24 * 2, 24, 2),
    ]
}

/// Feeds `addrs` to both models and asserts agreement access by access.
fn assert_agree(cfg: CacheConfig, addrs: &[u64], what: &str) {
    let mut cache = Cache::new(cfg);
    let mut oracle = OracleCache::new(cfg);
    for (i, &a) in addrs.iter().enumerate() {
        assert_eq!(
            cache.access(a),
            oracle.access(a),
            "{cfg} {what}: access {i} to {a:#x}"
        );
    }
    assert_eq!(cache.stats(), oracle.stats, "{cfg} {what}: stats");
}

/// Random addresses from a window a few times the cache's capacity, based at
/// `base`, so hits, conflict misses and capacity misses all occur.
fn random_stream(rng: &mut SmallRng, cfg: CacheConfig, base: u64, n: usize) -> Vec<u64> {
    let window = 4 * cfg.size_bytes;
    (0..n)
        .map(|_| base.wrapping_add(rng.gen_range(0..window)))
        .collect()
}

#[test]
fn random_streams_match_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_cace);
    for cfg in configs() {
        for base in [0, 1 << 32, u64::MAX - 4 * cfg.size_bytes + 1] {
            let addrs = random_stream(&mut rng, cfg, base, 20_000);
            assert_agree(cfg, &addrs, &format!("random from {base:#x}"));
        }
    }
}

#[test]
fn strided_streams_match_the_oracle() {
    for cfg in configs() {
        for stride in [1, 4, 24, 32, 96, 1000, 4096, cfg.size_bytes + 32] {
            // Sweep twice through a footprint of 1.5 caches, then once
            // backwards, so LRU order decides every second-pass hit.
            let n = (3 * cfg.size_bytes / 2 / stride).max(8);
            let forward: Vec<u64> = (0..n).map(|i| i * stride).collect();
            let mut addrs = forward.clone();
            addrs.extend(&forward);
            addrs.extend(forward.iter().rev());
            assert_agree(cfg, &addrs, &format!("stride {stride}"));
            let high: Vec<u64> = addrs.iter().map(|a| u64::MAX - a).collect();
            assert_agree(cfg, &high, &format!("stride {stride} down from u64::MAX"));
        }
    }
}

#[test]
fn extreme_addresses_are_distinct_lines() {
    for cfg in configs() {
        // Address 0 has tag 0 and u64::MAX the largest tag: neither may be
        // mistaken for an empty slot, and they never share a line.
        let addrs = [0, u64::MAX, 0, u64::MAX, 1, u64::MAX - 1, 0, u64::MAX];
        assert_agree(cfg, &addrs, "extremes");
        let mut cache = Cache::new(cfg);
        assert!(!cache.access(u64::MAX), "{cfg}: a cold cache misses");
        assert!(!cache.access(0), "{cfg}: a cold cache misses");
    }
}
