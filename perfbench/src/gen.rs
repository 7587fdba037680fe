//! Seeded inputs for `serve_mix`: the request sequence of each connection
//! and the fresh programs its build requests carry.
//!
//! Everything here is a pure function of the seed, so one seed gives one
//! request sequence and one set of programs.  Fresh programs embed their
//! index in a constant, so no two of them in a run share content (and with
//! it, an artifact-store key).

use bsg_ir::build::FunctionBuilder;
use bsg_ir::hll::{Expr, HllGlobal, HllProgram};
use bsg_ir::BinOp;

/// SplitMix64: small, seedable and good enough to pick requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// The `index`-th fresh loop program of a run seeded with `seed`.
///
/// Its shape (buffer length, repetitions, combining operator) is drawn from
/// the seed and index; its accumulator seed is `index` itself, which makes
/// the content unique per index within a run.
pub fn fresh_program(seed: u64, index: u64) -> HllProgram {
    let mut rng = Rng::new(seed ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93));
    let len = rng.range(16, 96) as i64;
    let reps = rng.range(2, 6) as i64;
    let op = [BinOp::Add, BinOp::Xor, BinOp::Sub, BinOp::Or][rng.range(0, 4) as usize];
    let mut p = HllProgram::new();
    p.add_global(HllGlobal::zeroed("buf", len as usize));
    let mut f = FunctionBuilder::new("main");
    f.assign_var("acc", Expr::int((index & 0xff_ffff_ffff) as i64));
    f.for_loop("r", Expr::int(0), Expr::int(reps), |outer| {
        outer.for_loop("i", Expr::int(0), Expr::int(len), |b| {
            b.assign_index(
                "buf",
                Expr::var("i"),
                Expr::bin(op, Expr::var("acc"), Expr::var("i")),
            );
            b.assign_var(
                "acc",
                Expr::add(Expr::var("acc"), Expr::index("buf", Expr::var("i"))),
            );
        });
    });
    f.ret(Some(Expr::var("acc")));
    p.add_function(f.finish());
    p
}

/// One request of the mix, before it is materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    /// A store hit on a primed suite kernel: its profile (`synth == false`)
    /// or its synthesis.
    Hit {
        /// Index into the small suite.
        kernel: usize,
        /// Synthesize instead of Profile.
        synth: bool,
    },
    /// A build of the fresh program `index`: Measure (`measure == true`) or
    /// Profile.
    Build {
        /// Fresh-program index, unique across the run's connections.
        index: u64,
        /// Measure instead of Profile.
        measure: bool,
    },
}

/// Hit requests sent per build request, on average.
pub const HITS_PER_BUILD: u64 = 3;

/// The request sequence of connection `conn` out of `conns`.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    kernels: usize,
    next_index: u64,
    stride: u64,
}

impl Mix {
    /// Connection `conn`'s sequence for a run with `conns` connections over
    /// a suite of `kernels` primed kernels.
    pub fn new(seed: u64, conn: u64, conns: u64, kernels: usize) -> Self {
        Mix {
            rng: Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ conn),
            kernels,
            next_index: conn,
            stride: conns,
        }
    }
}

impl Iterator for Mix {
    type Item = Planned;

    fn next(&mut self) -> Option<Planned> {
        let draw = self.rng.next_u64();
        let coin = self.rng.next_u64() & 1 == 1;
        if draw.is_multiple_of(HITS_PER_BUILD + 1) {
            let index = self.next_index;
            self.next_index += self.stride;
            Some(Planned::Build {
                index,
                measure: coin,
            })
        } else {
            Some(Planned::Hit {
                kernel: (self.rng.next_u64() % self.kernels as u64) as usize,
                synth: coin,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_runtime::SourceId;
    use std::collections::HashSet;

    #[test]
    fn the_same_seed_gives_the_same_request_sequence_and_programs() {
        let a: Vec<Planned> = Mix::new(7, 1, 2, 18).take(500).collect();
        let b: Vec<Planned> = Mix::new(7, 1, 2, 18).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<Planned> = Mix::new(8, 1, 2, 18).take(500).collect();
        assert_ne!(a, c, "another seed gives another sequence");
        assert_eq!(fresh_program(7, 42), fresh_program(7, 42));
        assert_ne!(
            SourceId::of(&fresh_program(7, 42)),
            SourceId::of(&fresh_program(8, 42))
        );
    }

    #[test]
    fn fresh_programs_are_content_unique_across_connections() {
        let mut ids = HashSet::new();
        let mut builds = 0;
        for conn in 0..2 {
            for planned in Mix::new(3, conn, 2, 18).take(2000) {
                if let Planned::Build { index, .. } = planned {
                    builds += 1;
                    assert!(ids.insert(SourceId::of(&fresh_program(3, index))));
                }
            }
        }
        // About one build for every three hits.
        assert!((800..1200).contains(&builds), "{builds} builds of 4000");
    }
}
