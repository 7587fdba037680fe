//! A blocking bsg-server client: one connection, one outstanding request
//! at a time, structured errors at both the transport and request level.
//!
//! # Timeouts and retries (PR 10)
//!
//! The socket constructors arm connect/read/write timeouts
//! ([`DEFAULT_CONNECT_TIMEOUT`], [`DEFAULT_READ_TIMEOUT`]), so a hung or
//! drained server surfaces as [`ClientError::TimedOut`] instead of
//! blocking the caller forever.
//!
//! [`Client::call_with_retry`] layers bounded exponential backoff with
//! deterministic jitter on top of [`Client::call`] — but **only** for
//! requests [`Request::is_idempotent`] vouches for.  An
//! [`BsgError::Overloaded`] shed reply is explicitly retryable (the server
//! did no work); transport-level failures are retried for idempotent
//! kinds because a lost reply is indistinguishable from a lost request.
//! Synthesis is never retried: its reply may have been applied even if it
//! never arrived, and replaying it would repeat nonce-bearing work.

use crate::proto::{
    read_frame, write_frame, Frame, FrameError, Request, Response, KIND_ERR, KIND_OK,
};
use bsg_ir::codec::from_canon_bytes;
use bsg_runtime::BsgError;
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::time::Duration;

/// Connect timeout of [`Client::connect_tcp`].
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Read/write timeout of the socket constructors.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Why a call failed at the transport layer (as opposed to the request
/// failing server-side, which [`Client::call`] reports as `Ok(Err(_))`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The reply frame could not be read (or the request could not be
    /// written).
    Frame(FrameError),
    /// The server closed the connection instead of replying.
    ServerClosed,
    /// The socket deadline expired before a reply arrived.  Distinct from
    /// [`ClientError::Frame`] so callers (and the retry loop) can treat a
    /// slow server differently from a corrupt stream.
    TimedOut,
    /// The reply's echoed id does not match the request (a framing bug on
    /// one side or a reply delivered to the wrong caller).
    IdMismatch {
        /// The id this client sent.
        sent: u64,
        /// The id the reply carried.
        got: u64,
    },
    /// The reply kind byte was neither OK nor ERR.
    BadKind(u8),
    /// The reply payload did not decode as the expected body.
    MalformedReply,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::TimedOut => write!(f, "timed out waiting for the server"),
            ClientError::IdMismatch { sent, got } => {
                write!(f, "reply id mismatch: sent {sent}, got {got}")
            }
            ClientError::BadKind(kind) => write!(f, "unknown reply kind {kind}"),
            ClientError::MalformedReply => write!(f, "reply payload failed to decode"),
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            // From the client's seat both flavours mean the same thing:
            // the socket deadline expired mid-call.
            FrameError::TimedOut | FrameError::Stalled => ClientError::TimedOut,
            other => ClientError::Frame(other),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::TimedOut,
            _ => ClientError::Frame(FrameError::Io(e.to_string())),
        }
    }
}

/// Retry tuning for [`Client::call_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts beyond the first (0 disables retries entirely).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream, so tests and the load
    /// harness can reproduce exact sleep sequences.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0x5eed_cafe_f00d_d00d,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based): exponential
    /// doubling from `base_delay`, capped at `max_delay`, with ±25%
    /// deterministic xorshift jitter so synchronized clients desynchronize
    /// instead of re-colliding every backoff round.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.max_delay);
        let nanos = exp.as_nanos() as u64;
        // xorshift64* on (seed ^ attempt): cheap, deterministic, and good
        // enough to spread a burst of shed clients across the window.
        let mut x = self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let quarter = nanos / 4;
        let jitter = if quarter == 0 { 0 } else { x % (2 * quarter) };
        Duration::from_nanos(nanos - quarter + jitter)
    }
}

/// A connected client over any bidirectional byte stream.
pub struct Client<S: Read + Write> {
    stream: S,
    next_id: u64,
}

impl Client<TcpStream> {
    /// Connects over TCP (`host:port`) with the module's connect and
    /// read/write timeouts armed.
    pub fn connect_tcp(addr: &str) -> io::Result<Self> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address did not resolve");
        for resolved in std::net::ToSocketAddrs::to_socket_addrs(addr)? {
            match TcpStream::connect_timeout(&resolved, DEFAULT_CONNECT_TIMEOUT) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
                    stream.set_write_timeout(Some(DEFAULT_READ_TIMEOUT))?;
                    return Ok(Client::over(stream));
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

#[cfg(unix)]
impl Client<UnixStream> {
    /// Connects over a Unix-domain socket with read/write timeouts armed.
    /// (Unix sockets have no connect timeout; local connects either
    /// succeed or fail immediately.)
    pub fn connect_unix(path: &Path) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        Ok(Client::over(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn over(stream: S) -> Self {
        Client { stream, next_id: 1 }
    }

    /// Sends `request` and blocks for the reply.
    ///
    /// The outer `Result` is the transport: did a well-formed reply for
    /// this request come back at all.  The inner `Result` is the request:
    /// `Ok(Response)` on success, `Err(BsgError)` when the server failed
    /// it — the same error value, reconstructed from its canonical
    /// encoding, that an in-process harness call would have returned.
    pub fn call(&mut self, request: &Request) -> Result<Result<Response, BsgError>, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.stream,
            &Frame {
                request_id,
                kind: request.kind(),
                payload: request.payload(),
            },
        )?;
        let reply = read_frame(&mut self.stream)?.ok_or(ClientError::ServerClosed)?;
        if reply.request_id != request_id && reply.request_id != 0 {
            // id 0 is the server's "structural error, no attributable
            // request" reply; let it through so callers see the error.
            return Err(ClientError::IdMismatch {
                sent: request_id,
                got: reply.request_id,
            });
        }
        match reply.kind {
            KIND_OK => from_canon_bytes::<Response>(&reply.payload)
                .map(Ok)
                .ok_or(ClientError::MalformedReply),
            KIND_ERR => from_canon_bytes::<BsgError>(&reply.payload)
                .map(Err)
                .ok_or(ClientError::MalformedReply),
            kind => Err(ClientError::BadKind(kind)),
        }
    }

    /// [`Client::call`] with bounded exponential-backoff retries for
    /// idempotent requests.
    ///
    /// Retried outcomes: an [`BsgError::Overloaded`] shed (the server did
    /// no work and asked for backoff) and transport failures
    /// ([`ClientError::TimedOut`], [`ClientError::ServerClosed`],
    /// [`ClientError::Frame`]) where a lost reply and a lost request are
    /// indistinguishable.  Every other outcome — success, any other
    /// server-side error, a structurally broken reply — returns
    /// immediately.  Non-idempotent requests ([`Request::Synthesize`])
    /// never retry, whatever the policy says.
    pub fn call_with_retry(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
    ) -> Result<Result<Response, BsgError>, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.call(request);
            let retryable = request.is_idempotent()
                && attempt < policy.max_retries
                && matches!(
                    &outcome,
                    Ok(Err(BsgError::Overloaded { .. }))
                        | Err(ClientError::TimedOut)
                        | Err(ClientError::ServerClosed)
                        | Err(ClientError::Frame(_))
                );
            if !retryable {
                return outcome;
            }
            attempt += 1;
            std::thread::sleep(policy.backoff(attempt));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy::default();
        let again = RetryPolicy::default();
        for attempt in 1..=8 {
            let d = policy.backoff(attempt);
            // Same seed, same attempt: identical sleep.
            assert_eq!(d, again.backoff(attempt));
            // Jitter stays within ±25% of the capped exponential.
            let exp = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1))
                .min(policy.max_delay);
            assert!(d >= exp - exp / 4, "attempt {attempt}: {d:?} < -25%");
            assert!(d <= exp + exp / 4, "attempt {attempt}: {d:?} > +25%");
        }
        // Different seeds desynchronize.
        let other = RetryPolicy {
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        assert_ne!(policy.backoff(3), other.backoff(3));
    }

    #[test]
    fn timeouts_fold_into_the_timed_out_variant() {
        assert_eq!(
            ClientError::from(FrameError::TimedOut),
            ClientError::TimedOut
        );
        assert_eq!(
            ClientError::from(FrameError::Stalled),
            ClientError::TimedOut
        );
        assert_eq!(
            ClientError::from(io::Error::new(io::ErrorKind::TimedOut, "t")),
            ClientError::TimedOut
        );
        // Non-timeout io errors stay structural.
        assert!(matches!(
            ClientError::from(io::Error::new(io::ErrorKind::BrokenPipe, "p")),
            ClientError::Frame(FrameError::Io(_))
        ));
    }
}
