//! # bsg-similarity — software-plagiarism-style similarity detection
//!
//! The paper verifies that its synthetic benchmark clones hide proprietary
//! information by feeding the original and synthetic C files to two
//! plagiarism detectors, Moss and JPlag, and observing that neither reports
//! any similarity (§V-E).  Both tools are closed web services, so this crate
//! reimplements their published core algorithms over C source text:
//!
//! * a **Moss-style detector** ([`moss_similarity`]) — winnowed k-gram
//!   fingerprints (Schleimer, Wilkerson & Aiken) compared by containment;
//! * a **JPlag-style detector** ([`jplag_similarity`]) — greedy string tiling
//!   over normalized token streams, reporting the fraction of tokens covered
//!   by shared tiles.
//!
//! Both operate on a normalized token stream (identifiers and literals are
//! collapsed to canonical tokens), exactly because real plagiarism detectors
//! must be insensitive to renaming — so a clone that merely renamed variables
//! would still be caught.
//!
//! # Example
//!
//! ```
//! use bsg_similarity::{moss_similarity, jplag_similarity};
//! let a = "int main(void) { int x = 0; for (x = 0; x < 10; x++) { g[x] = x; } return x; }";
//! let b = "int kernel(int n) { double z = 1.5; while (n > 0) { n = n - 3; z = z * 2.0; } return (int)z; }";
//! assert!(moss_similarity(a, a) > 0.99);
//! assert!(moss_similarity(a, b) < 0.35);
//! assert!(jplag_similarity(a, a) > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A normalized C token.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Token {
    /// A reserved word (`for`, `if`, `while`, `return`, ...).
    Keyword(String),
    /// Any identifier (normalized — the identifier text is discarded).
    Identifier,
    /// Any numeric literal (normalized).
    Number,
    /// A punctuation / operator character sequence.
    Symbol(String),
}

const KEYWORDS: &[&str] = &[
    "auto", "break", "case", "char", "const", "continue", "default", "do", "double", "else",
    "enum", "extern", "float", "for", "goto", "if", "int", "long", "register", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union", "unsigned", "void",
    "volatile", "while", "printf",
];

/// Tokenizes C source into a normalized token stream (identifiers and
/// literals collapsed, comments and preprocessor lines dropped).
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    for line in source.lines() {
        let line = line.trim();
        if line.starts_with('#') || line.starts_with("//") {
            continue;
        }
        let mut chars = line.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
            } else if c.is_ascii_alphabetic() || c == '_' {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        word.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if KEYWORDS.contains(&word.as_str()) {
                    tokens.push(Token::Keyword(word));
                } else {
                    tokens.push(Token::Identifier);
                }
            } else if c.is_ascii_digit() {
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '.' || c == 'x' {
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Number);
            } else if c == '"' {
                chars.next();
                for c in chars.by_ref() {
                    if c == '"' {
                        break;
                    }
                }
                tokens.push(Token::Number); // string literals normalize like data
            } else {
                let mut sym = String::new();
                sym.push(c);
                chars.next();
                // Two-character operators stay together so `<=`, `==`, `++` count as one token.
                if let Some(&n) = chars.peek() {
                    if matches!(
                        (c, n),
                        ('<', '=')
                            | ('>', '=')
                            | ('=', '=')
                            | ('!', '=')
                            | ('+', '+')
                            | ('-', '-')
                            | ('&', '&')
                            | ('|', '|')
                            | ('<', '<')
                            | ('>', '>')
                    ) {
                        sym.push(n);
                        chars.next();
                    }
                }
                tokens.push(Token::Symbol(sym));
            }
        }
    }
    tokens
}

fn hash_tokens(tokens: &[Token]) -> Vec<u64> {
    tokens
        .iter()
        .map(|t| {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        })
        .collect()
}

/// Moss-style winnowing fingerprints: hash every `k`-gram of the token
/// hashes, then keep the minimum hash of every window of `w` consecutive
/// k-grams.
fn winnow(hashes: &[u64], k: usize, w: usize) -> HashSet<u64> {
    if hashes.len() < k {
        return hashes.iter().copied().collect();
    }
    let kgrams: Vec<u64> = hashes
        .windows(k)
        .map(|win| {
            win.iter().fold(0xcbf29ce484222325u64, |acc, h| {
                (acc ^ h).wrapping_mul(0x100000001b3)
            })
        })
        .collect();
    let mut prints = HashSet::new();
    if kgrams.len() <= w {
        prints.extend(kgrams.iter().copied());
        return prints;
    }
    for win in kgrams.windows(w) {
        if let Some(min) = win.iter().min() {
            prints.insert(*min);
        }
    }
    prints
}

/// Moss-style similarity: containment of the smaller fingerprint set within
/// the larger one, in `[0, 1]`.
pub fn moss_similarity(a: &str, b: &str) -> f64 {
    moss(&hash_tokens(&tokenize(a)), &hash_tokens(&tokenize(b)))
}

fn moss(ta: &[u64], tb: &[u64]) -> f64 {
    let fa = winnow(ta, 5, 4);
    let fb = winnow(tb, 5, 4);
    if fa.is_empty() || fb.is_empty() {
        return 0.0;
    }
    let shared = fa.intersection(&fb).count() as f64;
    shared / fa.len().min(fb.len()) as f64
}

/// JPlag-style similarity: greedy string tiling over the normalized token
/// streams with the given minimum match length; returns the fraction of the
/// smaller stream covered by shared tiles.
///
/// Tiles are placed longest first, and among equally long matches the one
/// starting first in `a` (then in `b`) wins.  Each tile marks its tokens in
/// both streams, and matches shorter than `min_match` are never tiled.
pub fn greedy_string_tiling(a: &str, b: &str, min_match: usize) -> f64 {
    gst_coverage(
        &hash_tokens(&tokenize(a)),
        &hash_tokens(&tokenize(b)),
        min_match,
    )
}

fn gst_coverage(ta: &[u64], tb: &[u64], min_match: usize) -> f64 {
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    tiled_tokens(ta, tb, min_match.max(1)) as f64 / ta.len().min(tb.len()) as f64
}

/// A maximal run of equal, unmarked tokens: `a[i..i + len] == b[j..j + len]`.
#[derive(Clone, Copy)]
struct Run {
    i: usize,
    j: usize,
    len: usize,
}

impl Run {
    /// Whether the two runs share a token of `a` or a token of `b`.
    fn overlaps(&self, other: &Run) -> bool {
        (self.i < other.i + other.len && other.i < self.i + self.len)
            || (self.j < other.j + other.len && other.j < self.j + self.len)
    }
}

/// Tokens of `a` covered by greedy string tiling against `b`, with
/// Running-Karp-Rabin matching (Wise 1993): one pass of rolling hashes finds
/// every maximal common run of at least `w` tokens, where a naive search
/// rescans every token pair for every tile.
///
/// Marking a tile never creates or lengthens a run; it only cuts runs into
/// pieces.  So the tiling proceeds on the runs alone, one length at a time:
/// every run of the current maximal length is tiled in `(i, j)` order unless
/// a tile placed before it at that length overlaps it, and then the runs
/// those tiles cut are split.  This places exactly the tiles of the naive
/// search that takes the first longest match in row-major order each time.
fn tiled_tokens(a: &[u64], b: &[u64], w: usize) -> usize {
    if a.len() < w || b.len() < w {
        return 0;
    }
    let mut runs = common_runs(a, b, w);
    let mut marked_a = vec![false; a.len()];
    let mut marked_b = vec![false; b.len()];
    let mut covered = 0;
    while let Some(len) = runs.iter().map(|r| r.len).max() {
        let mut longest: Vec<Run> = runs.iter().filter(|r| r.len == len).copied().collect();
        longest.sort_unstable_by_key(|r| (r.i, r.j));
        let mut tiles: Vec<Run> = Vec::new();
        for r in longest {
            if tiles.iter().all(|t| !r.overlaps(t)) {
                marked_a[r.i..r.i + len].fill(true);
                marked_b[r.j..r.j + len].fill(true);
                tiles.push(r);
            }
        }
        covered += len * tiles.len();
        let mut pieces = Vec::with_capacity(runs.len());
        for r in runs {
            if tiles.iter().all(|t| !r.overlaps(t)) {
                pieces.push(r);
                continue;
            }
            // Split at marked tokens, keeping the pieces still long enough to tile.
            let mut start = 0;
            for k in 0..=r.len {
                if k == r.len || marked_a[r.i + k] || marked_b[r.j + k] {
                    if k - start >= w {
                        pieces.push(Run {
                            i: r.i + start,
                            j: r.j + start,
                            len: k - start,
                        });
                    }
                    start = k + 1;
                }
            }
        }
        runs = pieces;
    }
    covered
}

/// Every maximal run `a[i..i + len] == b[j..j + len]` with `len >= w`: the
/// Karp-Rabin hashes of `b`'s `w`-token windows go into a table, which each
/// window of `a` probes.
fn common_runs(a: &[u64], b: &[u64], w: usize) -> Vec<Run> {
    let mut starts: HashMap<u64, Vec<usize>> = HashMap::new();
    for (j, h) in window_hashes(b, w).into_iter().enumerate() {
        starts.entry(h).or_default().push(j);
    }
    let mut runs = Vec::new();
    for (i, h) in window_hashes(a, w).into_iter().enumerate() {
        for &j in starts.get(&h).map_or(&[][..], Vec::as_slice) {
            // A run is extended from its first pair only; a hash collision
            // extends to fewer than `w` tokens and is dropped.
            if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
                continue;
            }
            let len = a[i..]
                .iter()
                .zip(&b[j..])
                .take_while(|(x, y)| x == y)
                .count();
            if len >= w {
                runs.push(Run { i, j, len });
            }
        }
    }
    runs
}

/// Karp-Rabin hashes of every `w`-token window of `tokens`, rolled in one
/// pass; needs `1 <= w <= tokens.len()`.
fn window_hashes(tokens: &[u64], w: usize) -> Vec<u64> {
    const BASE: u64 = 0x100000001b3;
    let top = (1..w).fold(1u64, |p, _| p.wrapping_mul(BASE));
    let mut h = tokens[..w]
        .iter()
        .fold(0u64, |h, &t| h.wrapping_mul(BASE).wrapping_add(t));
    let mut hashes = Vec::with_capacity(tokens.len() - w + 1);
    hashes.push(h);
    for (&out, &inp) in tokens.iter().zip(&tokens[w..]) {
        h = h
            .wrapping_sub(out.wrapping_mul(top))
            .wrapping_mul(BASE)
            .wrapping_add(inp);
        hashes.push(h);
    }
    hashes
}

/// JPlag-style similarity with the conventional minimum match length of 9 tokens.
pub fn jplag_similarity(a: &str, b: &str) -> f64 {
    greedy_string_tiling(a, b, JPLAG_MIN_MATCH)
}

const JPLAG_MIN_MATCH: usize = 9;

/// A combined similarity report between an original workload and its clone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimilarityReport {
    /// Moss-style winnowing containment.
    pub moss: f64,
    /// JPlag-style greedy-string-tiling coverage.
    pub jplag: f64,
}

impl SimilarityReport {
    /// Compares two C source files with both detectors.
    pub fn compare(original: &str, synthetic: &str) -> Self {
        let ta = hash_tokens(&tokenize(original));
        let tb = hash_tokens(&tokenize(synthetic));
        SimilarityReport {
            moss: moss(&ta, &tb),
            jplag: gst_coverage(&ta, &tb, JPLAG_MIN_MATCH),
        }
    }

    /// The paper's criterion: neither tool reports meaningful similarity.
    /// `threshold` is the score above which one would investigate (Moss and
    /// JPlag typically flag pairs well above 0.5).
    pub fn hides_proprietary_information(&self, threshold: f64) -> bool {
        self.moss < threshold && self.jplag < threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM_A: &str = r#"
int fib(int n) {
  int a = 0, b = 1, i, sum = 0;
  for (i = 0; i < n; i++) {
    sum = a + b;
    if (sum < 0) { printf("overflow"); break; }
    a = b;
    b = sum;
  }
  return sum;
}
"#;

    /// PROGRAM_A with every identifier renamed — a plagiarism detector must
    /// still flag this as highly similar.
    const PROGRAM_A_RENAMED: &str = r#"
int sequence(int count) {
  int prev = 0, cur = 1, k, total = 0;
  for (k = 0; k < count; k++) {
    total = prev + cur;
    if (total < 0) { printf("overflow"); break; }
    prev = cur;
    cur = total;
  }
  return total;
}
"#;

    const PROGRAM_B: &str = r#"
unsigned int mStream0[256];
int i, j;
int f(void) {
  for (i = 0; i < 20; i++) {
    mStream0[4] = mStream0[7] + mStream0[2];
    if (mStream0[0] == 153) {
      for (j = 0; j < 256; j++) printf("%d;", mStream0[j]);
    }
    mStream0[6] = i;
    mStream0[7] = mStream0[6];
  }
  return 0;
}
"#;

    #[test]
    fn tokenizer_normalizes_identifiers_and_numbers() {
        let t1 = tokenize("int alpha = 42;");
        let t2 = tokenize("int beta = 7;");
        assert_eq!(t1, t2);
        let kw = tokenize("for (;;) {}");
        assert!(matches!(kw[0], Token::Keyword(_)));
    }

    #[test]
    fn self_similarity_is_one() {
        assert!(moss_similarity(PROGRAM_A, PROGRAM_A) > 0.99);
        assert!(jplag_similarity(PROGRAM_A, PROGRAM_A) > 0.99);
    }

    #[test]
    fn renaming_identifiers_does_not_fool_the_detectors() {
        assert!(
            moss_similarity(PROGRAM_A, PROGRAM_A_RENAMED) > 0.9,
            "winnowing is insensitive to renaming"
        );
        assert!(jplag_similarity(PROGRAM_A, PROGRAM_A_RENAMED) > 0.9);
    }

    #[test]
    fn structurally_different_programs_score_low() {
        let report = SimilarityReport::compare(PROGRAM_A, PROGRAM_B);
        assert!(report.moss < 0.5, "moss = {}", report.moss);
        assert!(report.jplag < 0.5, "jplag = {}", report.jplag);
        assert!(report.hides_proprietary_information(0.5));
    }

    #[test]
    fn similarity_is_symmetric_enough() {
        let ab = moss_similarity(PROGRAM_A, PROGRAM_B);
        let ba = moss_similarity(PROGRAM_B, PROGRAM_A);
        assert!((ab - ba).abs() < 1e-9);
        let jab = jplag_similarity(PROGRAM_A, PROGRAM_B);
        let jba = jplag_similarity(PROGRAM_B, PROGRAM_A);
        assert!((jab - jba).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(moss_similarity("", PROGRAM_A), 0.0);
        assert_eq!(jplag_similarity("", ""), 0.0);
        assert_eq!(greedy_string_tiling(PROGRAM_A, PROGRAM_A, 1_000_000), 0.0);
    }
}
