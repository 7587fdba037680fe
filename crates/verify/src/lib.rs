//! # bsg-verify — the unsafe-invariant ledger and its enforcement harness
//!
//! The interpreter's ~5× throughput rests on an unchecked indexing core
//! (`bsg_uarch::exec::{at, at_mut}`): `get_unchecked` calls justified by
//! invariants established once, at image decode time.  This crate is the
//! Design-by-Contract half of that bargain:
//!
//! * the **[`LEDGER`]** names every invariant an `unsafe` block in the
//!   workspace is allowed to cite (`// SAFETY(ledger: <id>)` tags);
//! * the **[`audit`]** module is a source-level scanner
//!   (`bsg-verify --audit-unsafe`) failing when an `unsafe` block is
//!   untagged, cites an unknown id, or cites an invariant the static
//!   verifier does not actually check;
//! * the **[`gen`]** module holds the random-program generators (shared with
//!   the differential property suite) that feed the verifier sweeps;
//! * the `bsg-verify` binary sweeps all registry workloads plus random
//!   programs through [`bsg_uarch::verify::verify_image`] and runs the
//!   mutation self-test ([`bsg_uarch::verify::corrupt_image`]) proving the
//!   analysis rejects corrupted images.
//!
//! The verifier itself lives in `bsg_uarch::verify` (it needs access to the
//! crate-private `ExecImage` internals); this crate owns the ledger, the
//! audit, the generators and the CLI so the policy layer stays outside the
//! engine crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod gen;

use bsg_uarch::verify::checked_invariants;

/// One named invariant of the unchecked execution core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invariant {
    /// Stable id cited by `// SAFETY(ledger: <id>)` tags; must appear in
    /// [`bsg_uarch::verify::checked_invariants`].
    pub id: &'static str,
    /// What the invariant guarantees, from the unsafe code's point of view.
    pub summary: &'static str,
}

/// Every invariant an `unsafe` block in this workspace may cite.  Each entry
/// must be machine-checked by `bsg_uarch::verify::verify_image`
/// ([`ledger_is_fully_checked`] cross-checks both directions, and CI runs it
/// via `bsg-verify --audit-unsafe`).
pub const LEDGER: &[Invariant] = &[
    Invariant {
        id: "step-structure",
        summary: "every decoded step is well-formed: fused shapes decompose, \
                  footprints partition blocks, dispatch never reads past a block",
    },
    Invariant {
        id: "terminator-placement",
        summary: "terminator steps sit exactly at each block's term_pc slot; \
                  body slots never hold a terminator",
    },
    Invariant {
        id: "edge-target",
        summary: "every jump/branch edge's pc, block id, dense block index and \
                  dense edge index agree with the image's tables and are in range",
    },
    Invariant {
        id: "reg-bounds",
        summary: "every register id in a step is below its function's num_regs \
                  (= the per-bank register file length)",
    },
    Invariant {
        id: "reg-bank",
        summary: "untagged i64/f64 register accesses agree with the inferred \
                  per-register bank (a dataflow re-proof of typing.rs)",
    },
    Invariant {
        id: "global-bounds",
        summary: "every global reference names a real non-empty region whose \
                  start/len/mask/base match the flattened layout",
    },
    Invariant {
        id: "frame-slot-bounds",
        summary: "every statically-resolved frame slot is below the function's \
                  slot count, with the canonical wrapped element index",
    },
    Invariant {
        id: "frame-slot-bank",
        summary: "untagged frame-slot accesses agree with the inferred \
                  per-slot bank (a dataflow re-proof of typing.rs)",
    },
    Invariant {
        id: "zero-fill-elision",
        summary: "FramePool::acquire may skip zero-filling exactly the banks \
                  whose registers/slots are never read before written \
                  (the frame_entry_live facts, re-proved by liveness)",
    },
    Invariant {
        id: "call-site",
        summary: "every call targets a real function and its argument range \
                  lies inside the flattened call_args table",
    },
    Invariant {
        id: "fused-replay",
        summary: "every fused superinstruction replays its unfused \
                  constituents exactly — same budget decrements, same halt \
                  points, same observer events — against the unfused decode",
    },
];

/// Process-level invariants (PR 10): properties of the *process*, not of a
/// decoded image, so they are machine-checked by dedicated audit passes
/// rather than by `verify_image`.  Unsafe sites may cite these ids exactly
/// like [`LEDGER`] ones; `bsg-verify --audit-unsafe` runs the matching
/// checker over the workspace sources.
pub const PROCESS_LEDGER: &[Invariant] = &[Invariant {
    id: "signal-flag-only",
    summary: "every extern \"C\" signal handler body is nothing but \
              lock-free atomic flag traffic on statics (async-signal-safe: \
              no allocation, no locks, no formatting, no I/O); the real \
              work happens on normal threads polling the flag",
}];

/// Every invariant id an `unsafe` site may cite: the image-level
/// [`LEDGER`] (checked by `verify_image`) plus the [`PROCESS_LEDGER`]
/// (checked by the source-level audit passes).
pub fn citable_invariants() -> Vec<&'static str> {
    checked_invariants()
        .iter()
        .copied()
        .chain(PROCESS_LEDGER.iter().map(|inv| inv.id))
        .collect()
}

/// Cross-checks the ledger against the verifier: every [`LEDGER`] id must be
/// checked by `verify_image` and every checked invariant must be citable,
/// with no duplicate ids on either side.
///
/// # Errors
///
/// Returns a human-readable description of the first mismatch.
pub fn ledger_is_fully_checked() -> Result<(), String> {
    let checked = checked_invariants();
    for inv in LEDGER {
        if !checked.contains(&inv.id) {
            return Err(format!(
                "ledger invariant `{}` is not checked by bsg_uarch::verify::verify_image \
                 — an unsafe block citing it would be trusting a comment, not a proof",
                inv.id
            ));
        }
        if LEDGER.iter().filter(|i| i.id == inv.id).count() != 1 {
            return Err(format!("duplicate ledger id `{}`", inv.id));
        }
    }
    for id in checked {
        if !LEDGER.iter().any(|inv| inv.id == *id) {
            return Err(format!(
                "verifier checks `{id}` but the ledger has no entry for it \
                 — unsafe code cannot cite it"
            ));
        }
        if checked.iter().filter(|c| *c == id).count() != 1 {
            return Err(format!("duplicate checked invariant `{id}`"));
        }
    }
    for inv in PROCESS_LEDGER {
        if PROCESS_LEDGER.iter().filter(|i| i.id == inv.id).count() != 1 {
            return Err(format!("duplicate process-ledger id `{}`", inv.id));
        }
        if checked.contains(&inv.id) || LEDGER.iter().any(|i| i.id == inv.id) {
            return Err(format!(
                "process-ledger id `{}` collides with an image-ledger id — \
                 a citation would be ambiguous about which checker vouches",
                inv.id
            ));
        }
    }
    Ok(())
}

/// Looks up a ledger entry by id (image-level first, then process-level).
pub fn ledger_entry(id: &str) -> Option<&'static Invariant> {
    LEDGER
        .iter()
        .find(|inv| inv.id == id)
        .or_else(|| PROCESS_LEDGER.iter().find(|inv| inv.id == id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_and_verifier_agree() {
        ledger_is_fully_checked().expect("ledger/verifier drift");
    }

    #[test]
    fn ledger_lookup_works() {
        assert!(ledger_entry("reg-bounds").is_some());
        assert!(ledger_entry("made-up").is_none());
    }
}
