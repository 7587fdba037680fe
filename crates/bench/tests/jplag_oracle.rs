//! The JPlag detector's greedy string tiling against a naive oracle.
//!
//! `bsg_similarity::greedy_string_tiling` finds matches with Running-Karp-Rabin
//! hashing.  The oracle below is the naive search it replaced: for every tile
//! it rescans all token pairs and takes the first longest unmarked match in
//! row-major order.  Both must place the same tiles, so their coverage must be
//! equal exactly, on the obfuscation section's own (original, clone) pairs and
//! on random token streams whose small alphabets make ties and overlapping
//! candidates common.

use bsg_bench::{try_prepare_suite, SYNTH_TARGET_INSTRUCTIONS};
use bsg_runtime::ArtifactStore;
use bsg_similarity::{greedy_string_tiling, tokenize};
use bsg_workloads::InputSize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hashed_tokens(source: &str) -> Vec<u64> {
    tokenize(source)
        .iter()
        .map(|t| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        })
        .collect()
}

/// Naive greedy string tiling: the fraction of the smaller stream covered.
fn oracle(a: &str, b: &str, min_match: usize) -> f64 {
    let ta = hashed_tokens(a);
    let tb = hashed_tokens(b);
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let mut marked_a = vec![false; ta.len()];
    let mut marked_b = vec![false; tb.len()];
    let mut covered = 0usize;
    loop {
        let mut best_len = 0usize;
        let mut best = (0, 0);
        for i in 0..ta.len() {
            if marked_a[i] {
                continue;
            }
            for j in 0..tb.len() {
                if marked_b[j] || ta[i] != tb[j] {
                    continue;
                }
                let mut l = 0;
                while i + l < ta.len()
                    && j + l < tb.len()
                    && !marked_a[i + l]
                    && !marked_b[j + l]
                    && ta[i + l] == tb[j + l]
                {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best = (i, j);
                }
            }
        }
        if best_len < min_match.max(1) {
            break;
        }
        let (i, j) = best;
        marked_a[i..i + best_len].fill(true);
        marked_b[j..j + best_len].fill(true);
        covered += best_len;
    }
    covered as f64 / ta.len().min(tb.len()) as f64
}

fn assert_agrees(a: &str, b: &str, min_match: usize, what: &str) {
    assert_eq!(
        greedy_string_tiling(a, b, min_match),
        oracle(a, b, min_match),
        "{what}, min_match {min_match}"
    );
}

#[test]
fn tiling_matches_the_oracle_on_every_registry_pair() {
    let arts: Vec<_> = try_prepare_suite(InputSize::Small, SYNTH_TARGET_INSTRUCTIONS)
        .into_iter()
        .map(|(name, a)| a.unwrap_or_else(|e| panic!("preparing {name}: {e}")))
        .collect();
    let originals: Vec<_> = arts
        .iter()
        .map(|a| ArtifactStore::global().c_text(&a.workload.program))
        .collect();
    for (a, original) in arts.iter().zip(&originals) {
        assert_agrees(
            original,
            &a.synthesis.benchmark.c_source,
            9,
            &a.workload.name,
        );
    }
}

/// xorshift64: a fixed seed keeps every stream reproducible.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Distinct tokens after normalization; `tokenize` splits them on the spaces.
const VOCABULARY: [&str; 8] = ["x", "7", "+", ";", "(", ")", "for", "="];

fn random_stream(rng: &mut Rng, alphabet: usize, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    if rng.below(2) == 0 {
        return (0..len)
            .map(|_| VOCABULARY[rng.below(alphabet)])
            .collect::<Vec<_>>()
            .join(" ");
    }
    // A repeated phrase with a few substitutions: long runs, many equally
    // long candidates and overlapping matches on shifted diagonals.
    let phrase: Vec<&str> = (0..1 + rng.below(6))
        .map(|_| VOCABULARY[rng.below(alphabet)])
        .collect();
    (0..len)
        .map(|k| {
            if rng.below(12) == 0 {
                VOCABULARY[rng.below(alphabet)]
            } else {
                phrase[k % phrase.len()]
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn tiling_matches_the_oracle_on_random_token_streams() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for case in 0..1500 {
        let alphabet = 1 + rng.below(VOCABULARY.len());
        let a = random_stream(&mut rng, alphabet, 120);
        let b = if rng.below(4) == 0 {
            a.clone()
        } else {
            random_stream(&mut rng, alphabet, 120)
        };
        let min_match = rng.below(12);
        assert_agrees(&a, &b, min_match, &format!("case {case}: {a:?} vs {b:?}"));
    }
}
