//! The bsg-server wire protocol: length-prefixed, checksummed, versioned
//! frames with canonical ([`bsg_ir::codec`]) payloads.
//!
//! A frame is a 33-byte header followed by the payload and a trailing
//! newline delimiter:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "BSGW"
//!      4     4  protocol version, u32 LE (currently 2)
//!      8     8  request id, u64 LE (echoed verbatim in the reply)
//!     16     1  kind byte (request kind, or OK/ERR for replies)
//!     17     8  payload length, u64 LE (bounded by MAX_PAYLOAD)
//!     25     8  FNV-64 checksum of the payload, u64 LE
//!     33     n  payload (canonical encoding of the request/response body)
//!   33+n     1  b'\n' delimiter
//! ```
//!
//! The delimiter makes every frame line-delimited as seen by generic
//! line-oriented tooling, and doubles as a cheap framing self-check: a
//! length field corrupted in transit almost always lands the reader on a
//! non-newline byte, which surfaces as [`FrameError::MissingDelimiter`]
//! instead of silently decoding garbage.
//!
//! Payloads reuse the workspace's canonical codec end to end: requests and
//! responses are [`Canon`](bsg_ir::codec::Canon)-encoded exactly like
//! artifact-store disk payloads, and a failed request's reply carries the
//! canonical encoding of its [`BsgError`] — the same error value the
//! in-process harness would have seen, reconstructed on the client side by
//! [`Decanon`](bsg_ir::codec::Decanon).
//!
//! Decoding is total: every reader returns structured errors, never
//! panics, so a malicious or truncated byte stream costs the daemon at most
//! one connection.

use bsg_compiler::CompileOptions;
use bsg_ir::codec::{fnv64, from_canon_bytes, to_canon_bytes};
use bsg_ir::hll::HllProgram;
use bsg_profile::{ProfileConfig, StatisticalProfile};
use bsg_runtime::{BsgError, StoreStats};
use bsg_synth::{SynthesisConfig, TargetedSynthesis};
use std::io::{self, Read, Write};

/// Frame magic: distinguishes bsg-server traffic from a stray client
/// speaking some other protocol at the same port.
pub const MAGIC: [u8; 4] = *b"BSGW";
/// Current protocol version.  Bumped on any incompatible frame or payload
/// change; both sides reject mismatches with [`FrameError::VersionSkew`].
/// (v2: overload-safety fields in [`ServerStats`] and the
/// [`KIND_SHUTDOWN`] drain request; v3: `BsgError::BuildFailed` without its
/// attempt count.)
pub const PROTO_VERSION: u32 = 3;
/// Header length in bytes (magic + version + request id + kind + payload
/// length + checksum).
pub const HEADER_LEN: usize = 33;
/// Upper bound on payload length.  Frames claiming more are rejected
/// before any allocation, so a corrupted or hostile length field cannot
/// balloon daemon memory.
pub const MAX_PAYLOAD: u64 = 64 * 1024 * 1024;

/// Request kind bytes.
pub const KIND_PROFILE: u8 = 0;
/// See [`KIND_PROFILE`].
pub const KIND_SYNTHESIZE: u8 = 1;
/// See [`KIND_PROFILE`].
pub const KIND_MEASURE: u8 = 2;
/// See [`KIND_PROFILE`].
pub const KIND_FIGURE: u8 = 3;
/// See [`KIND_PROFILE`].
pub const KIND_STATS: u8 = 4;
/// In-band graceful-drain request: the server stops accepting, answers
/// everything already queued, then exits.  Served inline like
/// [`KIND_STATS`].
pub const KIND_SHUTDOWN: u8 = 5;
/// Reply kind: the payload is a canonical [`Response`].
pub const KIND_OK: u8 = 100;
/// Reply kind: the payload is a canonical [`BsgError`].
pub const KIND_ERR: u8 = 101;

/// One wire frame, header fields plus payload (delimiter stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen id, echoed verbatim in the reply so clients can match
    /// replies to requests.
    pub request_id: u64,
    /// Kind byte (one of the `KIND_*` constants).
    pub kind: u8,
    /// Canonical payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.  Structural errors
/// ([`FrameError::BadMagic`] and friends) mean the byte stream itself is
/// unusable and the connection should close; they are distinct from
/// semantic errors (undecodable payload, unknown figure), which travel back
/// to the client as [`BsgError::InvalidRequest`] replies with the
/// connection kept open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying read failed.
    Io(String),
    /// The stream did not start a frame with the `BSGW` magic.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// The version the peer sent.
        got: u32,
    },
    /// The frame claimed a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// The payload bytes do not match the header checksum.
    BadChecksum,
    /// The byte after the payload was not the `b'\n'` delimiter.
    MissingDelimiter,
    /// The stream ended mid-frame (mid-header or mid-payload).
    Truncated,
    /// A read timed out while the peer was *idle at a frame boundary*
    /// (zero bytes of the next frame read).  Benign for a server reader
    /// thread — the client is just quiet between requests — and the signal
    /// a draining server uses to re-check its stop flag.
    TimedOut,
    /// A read timed out *mid-frame*: the peer wrote part of a frame and
    /// then stalled past the timeout (the slow-loris signature).  The
    /// connection is unusable and should be closed.
    Stalled,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(message) => write!(f, "frame io error: {message}"),
            FrameError::BadMagic(got) => write!(f, "bad frame magic {got:02x?}"),
            FrameError::VersionSkew { got } => {
                write!(f, "protocol version skew: got {got}, want {PROTO_VERSION}")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (max {MAX_PAYLOAD})")
            }
            FrameError::BadChecksum => write!(f, "frame payload checksum mismatch"),
            FrameError::MissingDelimiter => write!(f, "missing frame delimiter"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::TimedOut => write!(f, "read timed out at a frame boundary"),
            FrameError::Stalled => write!(f, "peer stalled mid-frame past the read timeout"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

/// Fills `buf` from `r`; `Ok(false)` on immediate clean EOF (nothing
/// read), [`FrameError::Truncated`] on EOF after a partial read.  A read
/// timeout (`WouldBlock`/`TimedOut` from a socket with a read deadline)
/// distinguishes the idle peer ([`FrameError::TimedOut`], zero bytes read)
/// from the mid-buffer staller ([`FrameError::Stalled`]).
fn read_exact_or_eof(r: &mut dyn Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(if filled == 0 {
                    FrameError::TimedOut
                } else {
                    FrameError::Stalled
                });
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads one frame.  `Ok(None)` is a clean EOF at a frame boundary (the
/// peer hung up between requests); every mid-frame surprise is a
/// structured [`FrameError`].
pub fn read_frame(r: &mut dyn Read) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let magic: [u8; 4] = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != PROTO_VERSION {
        return Err(FrameError::VersionSkew { got: version });
    }
    let request_id = u64::from_le_bytes(header[8..16].try_into().unwrap_or_default());
    let kind = header[16];
    let len = u64::from_le_bytes(header[17..25].try_into().unwrap_or_default());
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized { len });
    }
    let checksum = u64::from_le_bytes(header[25..33].try_into().unwrap_or_default());
    // Past the header every timeout is mid-frame, even if the payload or
    // delimiter read itself saw zero bytes: only quiet *between* frames is
    // idle.
    let midframe = |e| match e {
        FrameError::TimedOut => FrameError::Stalled,
        other => other,
    };
    #[allow(clippy::cast_possible_truncation)]
    let mut payload = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut payload).map_err(midframe)? {
        return Err(FrameError::Truncated);
    }
    let mut delim = [0u8; 1];
    if !read_exact_or_eof(r, &mut delim).map_err(midframe)? {
        return Err(FrameError::Truncated);
    }
    if delim[0] != b'\n' {
        return Err(FrameError::MissingDelimiter);
    }
    if fnv64(&payload) != checksum {
        return Err(FrameError::BadChecksum);
    }
    Ok(Some(Frame {
        request_id,
        kind,
        payload,
    }))
}

/// Writes one frame (header, payload, delimiter) and flushes.
pub fn write_frame(w: &mut dyn Write, frame: &Frame) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + frame.payload.len() + 1);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    bytes.extend_from_slice(&frame.request_id.to_le_bytes());
    bytes.push(frame.kind);
    bytes.extend_from_slice(&(frame.payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(&frame.payload).to_le_bytes());
    bytes.extend_from_slice(&frame.payload);
    bytes.push(b'\n');
    w.write_all(&bytes)?;
    w.flush()
}

/// One client request.  Every variant maps 1:1 to an artifact-store entry
/// point (or, for [`Request::Figure`] / [`Request::Stats`], a harness
/// entry point), so serving a request is exactly the work the in-process
/// harness would have done.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Profile `program` compiled under `options` (the store's
    /// `try_profile`).
    Profile {
        /// The source program.
        program: HllProgram,
        /// Compilation options.
        options: CompileOptions,
        /// Workload name recorded in the profile (and matched by
        /// `BSG_FAULT=task-panic=NAME` chaos injection).
        name: String,
        /// Profiling configuration.
        config: ProfileConfig,
    },
    /// Synthesize a proxy benchmark from `profile` (the store's
    /// `try_synthesis`).
    Synthesize {
        /// The statistical profile to clone.
        profile: StatisticalProfile,
        /// Base synthesis configuration.
        config: SynthesisConfig,
        /// Dynamic-instruction target for the reduction search.
        target_instructions: u64,
    },
    /// Compile and execute `program`, reporting its dynamic instruction
    /// count (the cheapest request that still exercises compile + run).
    Measure {
        /// The source program.
        program: HllProgram,
        /// Compilation options.
        options: CompileOptions,
    },
    /// Render a registered figure (`fig04`, `table1`, ...) or the combined
    /// `all_experiments` report.
    Figure {
        /// Figure name, or `all_experiments`.
        name: String,
    },
    /// Server + artifact-store counters (served inline, bypassing the
    /// dispatch batch).
    Stats,
    /// In-band graceful drain: stop accepting, answer the queue, exit.
    /// Served inline; the reply ([`Response::Shutdown`]) is sent *before*
    /// the server finishes draining, acknowledging that the drain began.
    Shutdown,
}

impl Request {
    /// The frame kind byte for this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Profile { .. } => KIND_PROFILE,
            Request::Synthesize { .. } => KIND_SYNTHESIZE,
            Request::Measure { .. } => KIND_MEASURE,
            Request::Figure { .. } => KIND_FIGURE,
            Request::Stats => KIND_STATS,
            Request::Shutdown => KIND_SHUTDOWN,
        }
    }

    /// Whether a client may safely retry this request after a transport
    /// failure or an [`BsgError::Overloaded`] shed.  Profile, measure,
    /// figure, stats and shutdown are pure functions of their payload (the
    /// store memoizes by content, and drain is idempotent by definition);
    /// synthesis is **not** retried, because load generators deliberately
    /// salt it with nonces and a duplicate would do real duplicate work.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Synthesize { .. })
    }

    /// Canonical payload bytes (the frame kind carries the discriminant).
    pub fn payload(&self) -> Vec<u8> {
        match self {
            Request::Profile {
                program,
                options,
                name,
                config,
            } => to_canon_bytes(&(program, options, name, config)),
            Request::Synthesize {
                profile,
                config,
                target_instructions,
            } => to_canon_bytes(&(profile, config, target_instructions)),
            Request::Measure { program, options } => to_canon_bytes(&(program, options)),
            Request::Figure { name } => to_canon_bytes(name),
            Request::Stats => Vec::new(),
            Request::Shutdown => Vec::new(),
        }
    }

    /// Decodes a request from a frame's kind byte and payload.  `None` for
    /// unknown kinds or undecodable payloads — the server turns that into
    /// a [`BsgError::InvalidRequest`] reply rather than closing the
    /// connection.
    pub fn decode(kind: u8, payload: &[u8]) -> Option<Request> {
        match kind {
            KIND_PROFILE => {
                let (program, options, name, config) = from_canon_bytes(payload)?;
                Some(Request::Profile {
                    program,
                    options,
                    name,
                    config,
                })
            }
            KIND_SYNTHESIZE => {
                let (profile, config, target_instructions) = from_canon_bytes(payload)?;
                Some(Request::Synthesize {
                    profile,
                    config,
                    target_instructions,
                })
            }
            KIND_MEASURE => {
                let (program, options) = from_canon_bytes(payload)?;
                Some(Request::Measure { program, options })
            }
            KIND_FIGURE => Some(Request::Figure {
                name: from_canon_bytes(payload)?,
            }),
            KIND_STATS => {
                if payload.is_empty() {
                    Some(Request::Stats)
                } else {
                    None
                }
            }
            KIND_SHUTDOWN => {
                if payload.is_empty() {
                    Some(Request::Shutdown)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// Server-side counters returned by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Scheduler worker count.
    pub workers: u64,
    /// Requests served to completion (OK or ERR replies), including
    /// inline stats requests.
    pub requests_served: u64,
    /// Dispatch batches run through the scheduler.
    pub batches: u64,
    /// Structural protocol errors observed (bad magic, version skew,
    /// truncation, checksum, undecodable payloads, mid-frame stalls).
    pub protocol_errors: u64,
    /// Jobs currently admitted but not yet dispatched (a point-in-time
    /// sample of the bounded admission queue).
    pub queue_depth: u64,
    /// High-watermark of `queue_depth` over the server's lifetime.
    pub max_queue_depth: u64,
    /// Requests shed with [`BsgError::Overloaded`] because the admission
    /// queue was full.
    pub shed_count: u64,
    /// Batched requests whose task was preempted by the per-request
    /// deadline (replied with `DeadlineExceeded`).
    pub preempted_count: u64,
    /// The shared artifact store's counters, including per-kind disk
    /// attribution.
    pub store: StoreStats,
}

bsg_ir::codec_layout!(struct ServerStats {
    workers,
    requests_served,
    batches,
    protocol_errors,
    queue_depth,
    max_queue_depth,
    shed_count,
    preempted_count,
    store,
});

/// One successful reply body.  Failed requests reply with a canonical
/// [`BsgError`] under [`KIND_ERR`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Profile`].
    Profile(StatisticalProfile),
    /// Reply to [`Request::Synthesize`].
    Synthesis(TargetedSynthesis),
    /// Reply to [`Request::Measure`].
    Measure {
        /// Dynamic instructions executed.
        dynamic_instructions: u64,
    },
    /// Reply to [`Request::Figure`]: the rendered text, byte-identical to
    /// the corresponding batch binary's stdout.
    Figure(String),
    /// Reply to [`Request::Stats`].
    Stats(ServerStats),
    /// Reply to [`Request::Shutdown`]: the drain has begun.
    Shutdown,
}

bsg_ir::codec_layout!(enum Response {
    0 => Profile(profile),
    1 => Synthesis(synthesis),
    2 => Measure { dynamic_instructions },
    3 => Figure(text),
    4 => Stats(stats),
    5 => Shutdown,
});

/// Encodes a success reply frame for `request_id`.
pub fn ok_frame(request_id: u64, response: &Response) -> Frame {
    Frame {
        request_id,
        kind: KIND_OK,
        payload: to_canon_bytes(response),
    }
}

/// Encodes an error reply frame for `request_id`.
pub fn err_frame(request_id: u64, error: &BsgError) -> Frame {
    Frame {
        request_id,
        kind: KIND_ERR,
        payload: to_canon_bytes(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_compiler::OptLevel;
    use bsg_ir::build::FunctionBuilder;
    use bsg_ir::hll::{Expr, HllGlobal};

    fn tiny_program() -> HllProgram {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("buf", 16));
        let mut f = FunctionBuilder::new("main");
        f.assign_var("acc", Expr::int(0));
        f.for_loop("i", Expr::int(0), Expr::int(8), |b| {
            b.assign_index("buf", Expr::var("i"), Expr::var("i"));
            b.assign_var(
                "acc",
                Expr::add(Expr::var("acc"), Expr::index("buf", Expr::var("i"))),
            );
        });
        f.ret(Some(Expr::var("acc")));
        p.add_function(f.finish());
        p
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Profile {
                program: tiny_program(),
                options: CompileOptions::portable(OptLevel::O1),
                name: "proto/tiny".to_string(),
                config: ProfileConfig::default(),
            },
            Request::Measure {
                program: tiny_program(),
                options: CompileOptions::portable(OptLevel::O0),
            },
            Request::Figure {
                name: "fig02".to_string(),
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn roundtrip_frame(frame: &Frame) -> Result<Option<Frame>, FrameError> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).expect("write");
        read_frame(&mut bytes.as_slice())
    }

    #[test]
    fn frames_and_requests_roundtrip() {
        for (i, request) in sample_requests().into_iter().enumerate() {
            let frame = Frame {
                request_id: i as u64 + 7,
                kind: request.kind(),
                payload: request.payload(),
            };
            let back = roundtrip_frame(&frame).expect("read").expect("frame");
            assert_eq!(back, frame);
            let decoded = Request::decode(back.kind, &back.payload).expect("decode");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = vec![
            Response::Measure {
                dynamic_instructions: 12_345,
            },
            Response::Figure("Table I\n1 2 3\n".to_string()),
            Response::Stats(ServerStats {
                workers: 8,
                requests_served: 41,
                batches: 5,
                protocol_errors: 2,
                queue_depth: 3,
                max_queue_depth: 17,
                shed_count: 6,
                preempted_count: 4,
                store: StoreStats::default(),
            }),
            Response::Shutdown,
        ];
        for response in responses {
            let frame = ok_frame(9, &response);
            let back = roundtrip_frame(&frame).expect("read").expect("frame");
            assert_eq!(back.kind, KIND_OK);
            let decoded: Response = from_canon_bytes(&back.payload).expect("decode");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn error_replies_roundtrip() {
        let error = BsgError::InvalidRequest {
            message: "unknown figure \"fig99\"".to_string(),
        };
        let frame = err_frame(3, &error);
        let back = roundtrip_frame(&frame).expect("read").expect("frame");
        assert_eq!(back.kind, KIND_ERR);
        let decoded: BsgError = from_canon_bytes(&back.payload).expect("decode");
        assert_eq!(decoded, error);
    }

    #[test]
    fn clean_eof_at_boundary_is_none() {
        assert_eq!(read_frame(&mut [].as_slice()), Ok(None));
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let frame = ok_frame(
            1,
            &Response::Measure {
                dynamic_instructions: 99,
            },
        );
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).expect("write");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).expect_err("truncated frame must not parse");
            assert_eq!(err, FrameError::Truncated, "cut at {cut}");
        }
        // The full frame still parses (the loop above must not have been
        // vacuous).
        assert!(read_frame(&mut bytes.as_slice()).expect("read").is_some());
    }

    #[test]
    fn bad_magic_version_skew_and_oversize_are_rejected() {
        let frame = ok_frame(
            1,
            &Response::Measure {
                dynamic_instructions: 1,
            },
        );
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).expect("write");

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            read_frame(&mut bad_magic.as_slice()),
            Err(FrameError::BadMagic(*b"XSGW"))
        );

        let mut skew = bytes.clone();
        skew[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            read_frame(&mut skew.as_slice()),
            Err(FrameError::VersionSkew { got: 99 })
        );

        let mut oversized = bytes.clone();
        oversized[17..25].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut oversized.as_slice()),
            Err(FrameError::Oversized {
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn corrupt_payload_fails_the_checksum() {
        let frame = ok_frame(1, &Response::Figure("abcdef".to_string()));
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).expect("write");
        let mut flipped = bytes.clone();
        let last_payload = flipped.len() - 2; // byte before the delimiter
        flipped[last_payload] ^= 0xff;
        assert_eq!(
            read_frame(&mut flipped.as_slice()),
            Err(FrameError::BadChecksum)
        );
    }

    #[test]
    fn missing_delimiter_is_rejected() {
        let frame = ok_frame(1, &Response::Figure("abc".to_string()));
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).expect("write");
        let last = bytes.len() - 1;
        bytes[last] = b'x';
        assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::MissingDelimiter)
        );
    }

    /// A reader that yields some prefix bytes, then times out forever —
    /// the slow-loris shape as the kernel surfaces it to a socket with a
    /// read deadline.
    struct StallAfter {
        bytes: Vec<u8>,
        pos: usize,
    }

    impl Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.bytes.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let n = buf.len().min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_timeout_at_a_frame_boundary_is_idle_not_fatal() {
        let mut idle = StallAfter {
            bytes: Vec::new(),
            pos: 0,
        };
        assert_eq!(read_frame(&mut idle), Err(FrameError::TimedOut));
    }

    #[test]
    fn a_timeout_mid_frame_is_a_stall_at_every_cut_point() {
        let frame = ok_frame(4, &Response::Figure("stall-test".to_string()));
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).expect("write");
        // One byte of header, a full header, header + partial payload,
        // everything but the delimiter: all are mid-frame stalls.
        for cut in 1..bytes.len() {
            let mut loris = StallAfter {
                bytes: bytes[..cut].to_vec(),
                pos: 0,
            };
            assert_eq!(
                read_frame(&mut loris),
                Err(FrameError::Stalled),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn idempotency_classification_protects_synthesis() {
        for request in sample_requests() {
            assert!(request.is_idempotent(), "{request:?}");
        }
        let synth = Request::Synthesize {
            profile: StatisticalProfile::default(),
            config: SynthesisConfig::default(),
            target_instructions: 1000,
        };
        assert!(!synth.is_idempotent(), "synthesize must never auto-retry");
    }

    /// Satellite requirement: the four overload counters survive the wire
    /// byte-for-byte, and truncating anywhere inside them fails closed.
    #[test]
    fn overload_stats_fields_roundtrip_and_reject_truncation() {
        let stats = ServerStats {
            workers: 2,
            requests_served: 100,
            batches: 9,
            protocol_errors: 1,
            queue_depth: 7,
            max_queue_depth: 256,
            shed_count: 31,
            preempted_count: 12,
            store: StoreStats::default(),
        };
        let bytes = to_canon_bytes(&stats);
        let back: ServerStats = from_canon_bytes(&bytes).expect("decode");
        assert_eq!(back, stats);
        assert_eq!(back.queue_depth, 7);
        assert_eq!(back.max_queue_depth, 256);
        assert_eq!(back.shed_count, 31);
        assert_eq!(back.preempted_count, 12);
        for cut in 0..bytes.len() {
            assert!(
                from_canon_bytes::<ServerStats>(&bytes[..cut]).is_none(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_kinds_and_garbage_payloads_decode_to_none() {
        assert!(Request::decode(42, &[]).is_none());
        assert!(Request::decode(KIND_PROFILE, &[1, 2, 3]).is_none());
        assert!(Request::decode(KIND_STATS, &[0]).is_none());
        assert!(Request::decode(KIND_SHUTDOWN, &[0]).is_none());
        // Trailing garbage after a valid payload is also rejected
        // (from_canon_bytes requires exhaustion).
        let mut payload = Request::Figure {
            name: "fig02".to_string(),
        }
        .payload();
        payload.push(0);
        assert!(Request::decode(KIND_FIGURE, &payload).is_none());
    }
}
