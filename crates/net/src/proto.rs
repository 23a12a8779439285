//! The pbdmm wire protocol: versioned, length-prefixed binary frames.
//!
//! A connection starts with a fixed 8-byte **handshake** in each direction
//! (magic `b"PBDM"`, protocol version, reserved zeros); an endpoint that
//! reads anything else drops the connection before parsing a single frame,
//! so a stray client speaking HTTP (or an old pbdmm version) fails fast and
//! loud instead of corrupting state.
//!
//! After the handshake the stream is a sequence of frames:
//!
//! ```text
//! | len: u32 LE | opcode: u8 | payload: len-1 bytes |
//! ```
//!
//! `len` counts the body (opcode + payload). The decoder applies the same
//! rigor as the WAL reader ([`pbdmm_graph::wal`]): a declared length is
//! **bounds-checked against the frame cap before a single byte is
//! buffered**, truncation mid-frame is detected and reported as
//! [`FrameError::Torn`] (clean EOF is only legal *between* frames), count
//! fields inside a payload are validated against the bytes actually present
//! before any allocation, and no input — hostile or torn — can make the
//! decoder panic.
//!
//! Requests flow client → daemon ([`Request`]), responses daemon → client
//! ([`Response`]). One request may produce one response
//! ([`Response::Completion`] for [`Request::SubmitBatch`]), and a
//! subscription ([`Request::SubscribeEpoch`]) produces a *stream* of
//! [`Response::EpochEvent`] frames interleaved with other responses —
//! clients must tolerate interleaving.
//!
//! # Example
//! ```
//! use pbdmm_net::proto::{self, Request, Response};
//!
//! let req = Request::PointQuery { req_id: 7, vertex: 3 };
//! let mut wire = Vec::new();
//! proto::write_frame(&mut wire, &req.encode()).unwrap();
//!
//! let mut body = Vec::new();
//! let mut r = &wire[..];
//! assert!(proto::read_frame(&mut r, proto::MAX_FRAME, &mut body).unwrap().is_some());
//! assert_eq!(Request::decode(&body).unwrap(), req);
//! ```

use std::io::{Read, Write};

use pbdmm_graph::edge::EdgeId;
use pbdmm_graph::update::Update;
use pbdmm_primitives::obs::{ProfileReport, NUM_COUNTERS, NUM_PHASES};

/// Handshake magic: the first four bytes either endpoint sends.
pub const MAGIC: [u8; 4] = *b"PBDM";

/// Protocol version carried in the handshake. Bumped on any frame-layout
/// change; endpoints refuse to talk across versions. Version 2 dropped two
/// phases and one counter from the positional `Profile` encoding; version 3
/// dropped the `levels_touched` counter.
pub const VERSION: u16 = 3;

/// Default cap on one frame's body (opcode + payload). A declared length
/// above the cap is rejected *before* allocating — the admission control of
/// the byte layer.
pub const MAX_FRAME: usize = 1 << 20;

// Request opcodes (client → daemon).
const OP_SUBMIT_BATCH: u8 = 0x01;
const OP_POINT_QUERY: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SUBSCRIBE_EPOCH: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_SUBSCRIBE_DELTAS: u8 = 0x06;
const OP_PROFILE: u8 = 0x07;

// Response opcodes (daemon → client): high bit set.
const OP_COMPLETION: u8 = 0x81;
const OP_QUERY_RESULT: u8 = 0x82;
const OP_STATS_RESULT: u8 = 0x83;
const OP_EPOCH_EVENT: u8 = 0x84;
const OP_DELTA_EVENT: u8 = 0x85;
const OP_PROFILE_RESULT: u8 = 0x87;
const OP_ERROR: u8 = 0x8F;

// Per-update tags inside SubmitBatch.
const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

// Per-result tags inside Completion.
const TAG_INSERTED: u8 = 0;
const TAG_DELETED: u8 = 1;
const TAG_ALREADY_DELETED: u8 = 2;
const TAG_REJECTED: u8 = 3;

/// Why a frame could not be read or decoded. Mirrors the WAL reader's
/// failure taxonomy: I/O, truncation, oversize, malformed content.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read or write failed.
    Io(std::io::Error),
    /// The stream ended mid-frame: inside the length prefix or inside a
    /// body whose prefix promised more bytes. (Clean EOF *between* frames
    /// is not an error — [`read_frame`] returns `Ok(None)` for it.)
    Torn {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The declared body length is zero or exceeds the frame cap. Rejected
    /// before any allocation.
    TooLarge {
        /// The declared length.
        len: usize,
        /// The cap it violated.
        cap: usize,
    },
    /// The body bytes do not decode as a valid frame (unknown opcode, bad
    /// tag, count field exceeding the payload, trailing garbage, …).
    Malformed(String),
    /// The 8-byte handshake did not carry the expected magic/version.
    BadHandshake(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::Torn { expected, got } => {
                write!(f, "torn frame: expected {expected} more bytes, got {got}")
            }
            FrameError::TooLarge { len, cap } => {
                write!(f, "frame length {len} outside (0, {cap}]")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::BadHandshake(m) => write!(f, "bad handshake: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Machine-readable error codes carried by [`Response::Error`] and
/// [`UpdateResult::Rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Admission control refused the work: the connection's in-flight
    /// window is full or the daemon is at its connection cap. Back off and
    /// retry.
    Overloaded = 1,
    /// The peer violated the protocol (bad magic, oversized or torn frame,
    /// unknown opcode). The daemon closes the offending connection.
    Protocol = 2,
    /// A deletion named an id that is not a live edge.
    UnknownEdge = 3,
    /// An insertion's vertex set was empty.
    EmptyEdge = 4,
    /// The service closed before the update applied.
    Closed = 5,
    /// The daemon is draining: it no longer admits new work.
    Draining = 6,
    /// Anything else (WAL failure, internal error).
    Internal = 7,
}

impl ErrorCode {
    /// Decode from the wire representation.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::Protocol,
            3 => ErrorCode::UnknownEdge,
            4 => ErrorCode::EmptyEdge,
            5 => ErrorCode::Closed,
            6 => ErrorCode::Draining,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Protocol => "protocol violation",
            ErrorCode::UnknownEdge => "unknown edge",
            ErrorCode::EmptyEdge => "empty edge",
            ErrorCode::Closed => "service closed",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(s)
    }
}

/// A client → daemon frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a batch of updates; the daemon answers with one
    /// [`Response::Completion`] carrying a result per update, in order.
    SubmitBatch {
        /// Client-chosen correlation id echoed in the response.
        req_id: u64,
        /// The updates, applied through the coalescing service.
        updates: Vec<Update>,
    },
    /// Resolve a point query against the latest snapshot.
    PointQuery {
        /// Correlation id.
        req_id: u64,
        /// The vertex to look up.
        vertex: u32,
    },
    /// Ask for daemon + structure counters.
    Stats {
        /// Correlation id.
        req_id: u64,
    },
    /// Subscribe to epoch publications newer than `from_epoch`: the daemon
    /// streams one [`Response::EpochEvent`] per observed publication,
    /// interleaved with this connection's other responses.
    SubscribeEpoch {
        /// Correlation id.
        req_id: u64,
        /// Events are delivered only for epochs strictly greater than this.
        from_epoch: u64,
    },
    /// Subscribe to **state deltas**: instead of bare epoch numbers the
    /// daemon streams one [`Response::DeltaEvent`] per observed
    /// publication, carrying exactly what changed since the event the
    /// client last saw — the wire projection of
    /// `SnapshotReader::changes_since`. If the server-side delta log no
    /// longer reaches back to the client's epoch, the daemon sends one
    /// event with `resync` set whose delta rebuilds the full state from
    /// scratch (the client clears its mirror first).
    SubscribeDeltas {
        /// Correlation id.
        req_id: u64,
        /// Deltas are delivered for epochs strictly greater than this.
        /// Pass 0 to mirror from genesis (the first event is a resync).
        from_epoch: u64,
    },
    /// Ask for the daemon's cumulative per-phase profile — the wire
    /// projection of `pbdmm serve --profile`. Answered with
    /// [`Response::ProfileResult`]; the report is all zeros when the
    /// daemon was not started with profiling enabled.
    Profile {
        /// Correlation id.
        req_id: u64,
    },
    /// Ask the daemon to drain and exit (stop accepting, flush in-flight
    /// tickets, final stats). Answered with [`Response::Stats`].
    Shutdown {
        /// Correlation id.
        req_id: u64,
    },
}

/// The wire projection of one snapshot delta: everything that changed
/// between two published epochs, carried by [`Response::DeltaEvent`].
///
/// Applying a `WireDelta` to a client-side mirror at `from_epoch` yields
/// the state at `to_epoch`: remove `deleted`, add `inserted`, clear the
/// match status of `unmatched`, then record `matched` (id → vertex set).
/// A *resync* delta has `from_epoch == 0` semantics regardless of the
/// mirror's epoch: clear everything first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireDelta {
    /// Epoch the delta starts from (the client's last seen epoch).
    pub from_epoch: u64,
    /// Epoch the delta advances the mirror to.
    pub to_epoch: u64,
    /// Edge ids inserted in `(from, to]`, ascending.
    pub inserted: Vec<u64>,
    /// Edge ids deleted in `(from, to]`, ascending.
    pub deleted: Vec<u64>,
    /// Edges newly in the matching, with their full vertex sets.
    pub matched: Vec<(u64, Vec<u32>)>,
    /// Edge ids that left the matching (but may still be live).
    pub unmatched: Vec<u64>,
}

/// The per-update slice of a [`Response::Completion`], mirroring
/// `pbdmm_service::{Done, Completion, ServiceError}` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateResult {
    /// The insertion was applied and assigned this id.
    Inserted {
        /// The assigned edge id.
        id: u64,
        /// Position in the daemon's global apply order.
        seq: u64,
        /// Epoch at which the update became visible to readers.
        epoch: u64,
    },
    /// The deletion was applied.
    Deleted {
        /// The deleted edge id.
        id: u64,
        /// Position in the daemon's global apply order.
        seq: u64,
        /// Epoch at which the update became visible to readers.
        epoch: u64,
    },
    /// The edge was already deleted by a coalesced duplicate in the same
    /// batch; gone all the same.
    AlreadyDeleted {
        /// The edge id.
        id: u64,
        /// Shared apply-order position of the winning delete.
        seq: u64,
        /// Epoch at which the batch became visible.
        epoch: u64,
    },
    /// The update was rejected (per-update; the rest of the batch stands).
    Rejected {
        /// Why.
        code: ErrorCode,
    },
}

impl UpdateResult {
    /// The visibility epoch, if the update was applied.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            UpdateResult::Inserted { epoch, .. }
            | UpdateResult::Deleted { epoch, .. }
            | UpdateResult::AlreadyDeleted { epoch, .. } => Some(*epoch),
            UpdateResult::Rejected { .. } => None,
        }
    }

    /// The edge id, if the update was applied.
    pub fn id(&self) -> Option<EdgeId> {
        match self {
            UpdateResult::Inserted { id, .. }
            | UpdateResult::Deleted { id, .. }
            | UpdateResult::AlreadyDeleted { id, .. } => Some(EdgeId(*id)),
            UpdateResult::Rejected { .. } => None,
        }
    }
}

/// Daemon + structure counters carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Latest published snapshot epoch.
    pub epoch: u64,
    /// Live edges in that snapshot.
    pub num_edges: u64,
    /// Matched edges in that snapshot.
    pub matching_size: u64,
    /// Connections currently open.
    pub connections: u32,
    /// Connections ever accepted.
    pub total_connections: u64,
    /// Updates refused with [`ErrorCode::Overloaded`].
    pub overloaded: u64,
    /// Connections closed for protocol violations.
    pub protocol_errors: u64,
    /// 1 once the daemon started draining.
    pub draining: u8,
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::SubmitBatch`]: one result per submitted update,
    /// in submission order. `epoch` is the largest visibility epoch in the
    /// batch — once received, a reader consulted by this client is never
    /// older than it (read-your-writes over the wire).
    Completion {
        /// Echoed correlation id.
        req_id: u64,
        /// Max visibility epoch across the results.
        epoch: u64,
        /// Per-update outcomes, in submission order.
        results: Vec<UpdateResult>,
    },
    /// Answer to [`Request::PointQuery`].
    QueryResult {
        /// Echoed correlation id.
        req_id: u64,
        /// Epoch of the snapshot the query was resolved against.
        epoch: u64,
        /// The matched edge covering the vertex, if any.
        matched_edge: Option<u64>,
        /// All vertices of that edge (including the queried one); empty if
        /// unmatched.
        partners: Vec<u32>,
    },
    /// Answer to [`Request::Stats`] (and the final frame of a drain).
    Stats {
        /// Echoed correlation id.
        req_id: u64,
        /// The counters.
        stats: WireStats,
    },
    /// Answer to [`Request::Profile`]: the daemon's cumulative
    /// [`ProfileReport`] (per-phase totals, log₂ histograms, counters).
    ProfileResult {
        /// Echoed correlation id.
        req_id: u64,
        /// The profile snapshot. All zeros when profiling is disabled.
        report: ProfileReport,
    },
    /// One epoch publication, streamed to subscribers.
    EpochEvent {
        /// The newly visible epoch.
        epoch: u64,
    },
    /// One state delta, streamed to [`Request::SubscribeDeltas`] clients.
    DeltaEvent {
        /// When set, the delta log did not reach back to the client's
        /// epoch: `delta` rebuilds the full state and the client must
        /// clear its mirror before applying it.
        resync: bool,
        /// What changed (or, under `resync`, the whole state).
        delta: WireDelta,
    },
    /// A request failed, or the connection violated the protocol
    /// (`req_id == 0` marks a connection-level error sent just before the
    /// daemon closes the stream).
    Error {
        /// Correlation id of the failing request, or 0.
        req_id: u64,
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Handshake + frame transport
// ---------------------------------------------------------------------------

/// Send the 8-byte handshake.
pub fn write_handshake(w: &mut impl Write) -> Result<(), FrameError> {
    let mut hs = [0u8; 8];
    hs[..4].copy_from_slice(&MAGIC);
    hs[4..6].copy_from_slice(&VERSION.to_le_bytes());
    w.write_all(&hs)?;
    Ok(())
}

/// Read and validate the peer's 8-byte handshake.
pub fn read_handshake(r: &mut impl Read) -> Result<(), FrameError> {
    let mut hs = [0u8; 8];
    r.read_exact(&mut hs).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::BadHandshake("peer closed before completing the handshake".into())
        } else {
            FrameError::Io(e)
        }
    })?;
    if hs[..4] != MAGIC {
        return Err(FrameError::BadHandshake(format!(
            "bad magic {:02x?} (not a pbdmm peer)",
            &hs[..4]
        )));
    }
    let version = u16::from_le_bytes([hs[4], hs[5]]);
    if version != VERSION {
        return Err(FrameError::BadHandshake(format!(
            "protocol version {version}, expected {VERSION}"
        )));
    }
    Ok(())
}

/// Write one frame: length prefix + body. The body must already contain
/// the opcode (see [`Request::encode`] / [`Response::encode`]).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    debug_assert!(!body.is_empty(), "a frame body carries at least an opcode");
    let len = u32::try_from(body.len())
        .map_err(|_| FrameError::Malformed("frame body exceeds u32".into()))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

/// Read one frame body into `buf` (cleared first). Returns `Ok(None)` on a
/// clean EOF *at a frame boundary*; EOF inside the length prefix or the
/// body is [`FrameError::Torn`]. The declared length is checked against
/// `cap` before any buffering.
pub fn read_frame(
    r: &mut impl Read,
    cap: usize,
    buf: &mut Vec<u8>,
) -> Result<Option<()>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None), // clean boundary EOF
            Ok(0) => {
                return Err(FrameError::Torn {
                    expected: 4 - got,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > cap {
        return Err(FrameError::TooLarge { len, cap });
    }
    buf.clear();
    buf.resize(len, 0);
    let mut filled = 0;
    while filled < len {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Torn {
                    expected: len - filled,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(()))
}

// ---------------------------------------------------------------------------
// Body codec
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a frame body. Every getter
/// fails softly ([`FrameError::Malformed`]) instead of slicing out of
/// bounds — hostile bytes can never panic the decoder.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Malformed(format!(
                "{what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A count field about to size a loop/allocation: validated against the
    /// bytes actually remaining (each element needs at least
    /// `min_elem_bytes`), so a hostile count cannot drive an allocation the
    /// payload does not back.
    fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, FrameError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(FrameError::Malformed(format!(
                "{what}: count {n} exceeds payload ({} bytes left)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// The body must be fully consumed: trailing bytes are as malformed as
    /// missing ones.
    fn finish(self, what: &str) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a [`ProfileReport`] payload. Histogram buckets are sparse on the
/// wire — `(index: u8, count: u64)` pairs for non-zero buckets only — so an
/// idle report costs a few dozen bytes, not 11 × 64 × 8.
fn put_profile(out: &mut Vec<u8>, report: &ProfileReport) {
    put_u64(out, report.wall_ns);
    put_u32(out, report.phases.len() as u32);
    for p in &report.phases {
        put_u64(out, p.total_ns);
        put_u64(out, p.count);
        put_u64(out, p.max_ns);
        let nonzero = p.buckets.iter().filter(|&&b| b != 0).count();
        put_u32(out, nonzero as u32);
        for (i, &b) in p.buckets.iter().enumerate() {
            if b != 0 {
                out.push(i as u8);
                put_u64(out, b);
            }
        }
    }
    put_u32(out, report.counters.len() as u32);
    for &v in &report.counters {
        put_u64(out, v);
    }
}

/// Decode a [`ProfileReport`] payload (see [`put_profile`]). Phases or
/// counters beyond the ones this build knows ([`NUM_PHASES`] /
/// [`NUM_COUNTERS`]) are decoded and discarded, so a peer with a newer
/// phase list still interoperates.
fn get_profile(c: &mut Cursor<'_>) -> Result<ProfileReport, FrameError> {
    let mut report = ProfileReport::empty();
    report.wall_ns = c.u64("wall_ns")?;
    let bucket_cap = report.phases[0].buckets.len();
    // Each phase needs at least total/count/max + its bucket count.
    let n_phases = c.count(28, "phase count")?;
    for i in 0..n_phases {
        let total_ns = c.u64("phase total_ns")?;
        let count = c.u64("phase count field")?;
        let max_ns = c.u64("phase max_ns")?;
        let n_buckets = c.count(9, &format!("phase {i} bucket count"))?;
        let mut buckets = vec![0u64; bucket_cap];
        for _ in 0..n_buckets {
            let idx = c.u8("bucket index")? as usize;
            let v = c.u64("bucket value")?;
            if idx >= buckets.len() {
                return Err(FrameError::Malformed(format!(
                    "phase {i}: bucket index {idx} out of range"
                )));
            }
            buckets[idx] = v;
        }
        if let Some(p) = report.phases.get_mut(i) {
            p.total_ns = total_ns;
            p.count = count;
            p.max_ns = max_ns;
            p.buckets = buckets;
        }
    }
    let n_counters = c.count(8, "counter count")?;
    for i in 0..n_counters {
        let v = c.u64("counter value")?;
        if let Some(slot) = report.counters.get_mut(i) {
            *slot = v;
        }
    }
    // Keep the compiler honest that the constants stay in sync with empty().
    debug_assert_eq!(report.phases.len(), NUM_PHASES);
    debug_assert_eq!(report.counters.len(), NUM_COUNTERS);
    Ok(report)
}

impl Request {
    /// Encode into a frame body (opcode + payload) for [`write_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Request::SubmitBatch { req_id, updates } => {
                out.push(OP_SUBMIT_BATCH);
                put_u64(&mut out, *req_id);
                put_u32(&mut out, updates.len() as u32);
                for u in updates {
                    match u {
                        Update::Insert(vs) => {
                            out.push(TAG_INSERT);
                            put_u32(&mut out, vs.len() as u32);
                            for &v in vs {
                                put_u32(&mut out, v);
                            }
                        }
                        Update::Delete(id) => {
                            out.push(TAG_DELETE);
                            put_u64(&mut out, id.raw());
                        }
                    }
                }
            }
            Request::PointQuery { req_id, vertex } => {
                out.push(OP_POINT_QUERY);
                put_u64(&mut out, *req_id);
                put_u32(&mut out, *vertex);
            }
            Request::Stats { req_id } => {
                out.push(OP_STATS);
                put_u64(&mut out, *req_id);
            }
            Request::SubscribeEpoch { req_id, from_epoch } => {
                out.push(OP_SUBSCRIBE_EPOCH);
                put_u64(&mut out, *req_id);
                put_u64(&mut out, *from_epoch);
            }
            Request::SubscribeDeltas { req_id, from_epoch } => {
                out.push(OP_SUBSCRIBE_DELTAS);
                put_u64(&mut out, *req_id);
                put_u64(&mut out, *from_epoch);
            }
            Request::Profile { req_id } => {
                out.push(OP_PROFILE);
                put_u64(&mut out, *req_id);
            }
            Request::Shutdown { req_id } => {
                out.push(OP_SHUTDOWN);
                put_u64(&mut out, *req_id);
            }
        }
        out
    }

    /// Decode a frame body. Never panics; hostile bytes yield
    /// [`FrameError::Malformed`].
    pub fn decode(body: &[u8]) -> Result<Request, FrameError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let req = match op {
            OP_SUBMIT_BATCH => {
                let req_id = c.u64("req_id")?;
                let n = c.count(1, "update count")?;
                let mut updates = Vec::with_capacity(n);
                for i in 0..n {
                    match c.u8("update tag")? {
                        TAG_INSERT => {
                            let nv = c.count(4, &format!("insert {i} vertex count"))?;
                            let mut vs = Vec::with_capacity(nv);
                            for _ in 0..nv {
                                vs.push(c.u32("vertex")?);
                            }
                            updates.push(Update::Insert(vs));
                        }
                        TAG_DELETE => updates.push(Update::Delete(EdgeId(c.u64("edge id")?))),
                        t => {
                            return Err(FrameError::Malformed(format!(
                                "update {i}: unknown tag {t}"
                            )))
                        }
                    }
                }
                Request::SubmitBatch { req_id, updates }
            }
            OP_POINT_QUERY => Request::PointQuery {
                req_id: c.u64("req_id")?,
                vertex: c.u32("vertex")?,
            },
            OP_STATS => Request::Stats {
                req_id: c.u64("req_id")?,
            },
            OP_SUBSCRIBE_EPOCH => Request::SubscribeEpoch {
                req_id: c.u64("req_id")?,
                from_epoch: c.u64("from_epoch")?,
            },
            OP_SUBSCRIBE_DELTAS => Request::SubscribeDeltas {
                req_id: c.u64("req_id")?,
                from_epoch: c.u64("from_epoch")?,
            },
            OP_PROFILE => Request::Profile {
                req_id: c.u64("req_id")?,
            },
            OP_SHUTDOWN => Request::Shutdown {
                req_id: c.u64("req_id")?,
            },
            op => {
                return Err(FrameError::Malformed(format!(
                    "unknown request opcode {op:#04x}"
                )))
            }
        };
        c.finish("request")?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame body (opcode + payload) for [`write_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match self {
            Response::Completion {
                req_id,
                epoch,
                results,
            } => {
                out.push(OP_COMPLETION);
                put_u64(&mut out, *req_id);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, results.len() as u32);
                for r in results {
                    match r {
                        UpdateResult::Inserted { id, seq, epoch } => {
                            out.push(TAG_INSERTED);
                            put_u64(&mut out, *id);
                            put_u64(&mut out, *seq);
                            put_u64(&mut out, *epoch);
                        }
                        UpdateResult::Deleted { id, seq, epoch } => {
                            out.push(TAG_DELETED);
                            put_u64(&mut out, *id);
                            put_u64(&mut out, *seq);
                            put_u64(&mut out, *epoch);
                        }
                        UpdateResult::AlreadyDeleted { id, seq, epoch } => {
                            out.push(TAG_ALREADY_DELETED);
                            put_u64(&mut out, *id);
                            put_u64(&mut out, *seq);
                            put_u64(&mut out, *epoch);
                        }
                        UpdateResult::Rejected { code } => {
                            out.push(TAG_REJECTED);
                            put_u16(&mut out, *code as u16);
                        }
                    }
                }
            }
            Response::QueryResult {
                req_id,
                epoch,
                matched_edge,
                partners,
            } => {
                out.push(OP_QUERY_RESULT);
                put_u64(&mut out, *req_id);
                put_u64(&mut out, *epoch);
                match matched_edge {
                    Some(id) => {
                        out.push(1);
                        put_u64(&mut out, *id);
                    }
                    None => out.push(0),
                }
                put_u32(&mut out, partners.len() as u32);
                for &v in partners {
                    put_u32(&mut out, v);
                }
            }
            Response::Stats { req_id, stats } => {
                out.push(OP_STATS_RESULT);
                put_u64(&mut out, *req_id);
                put_u64(&mut out, stats.epoch);
                put_u64(&mut out, stats.num_edges);
                put_u64(&mut out, stats.matching_size);
                put_u32(&mut out, stats.connections);
                put_u64(&mut out, stats.total_connections);
                put_u64(&mut out, stats.overloaded);
                put_u64(&mut out, stats.protocol_errors);
                out.push(stats.draining);
            }
            Response::ProfileResult { req_id, report } => {
                out.push(OP_PROFILE_RESULT);
                put_u64(&mut out, *req_id);
                put_profile(&mut out, report);
            }
            Response::EpochEvent { epoch } => {
                out.push(OP_EPOCH_EVENT);
                put_u64(&mut out, *epoch);
            }
            Response::DeltaEvent { resync, delta } => {
                out.push(OP_DELTA_EVENT);
                out.push(u8::from(*resync));
                put_u64(&mut out, delta.from_epoch);
                put_u64(&mut out, delta.to_epoch);
                put_u32(&mut out, delta.inserted.len() as u32);
                for &id in &delta.inserted {
                    put_u64(&mut out, id);
                }
                put_u32(&mut out, delta.deleted.len() as u32);
                for &id in &delta.deleted {
                    put_u64(&mut out, id);
                }
                put_u32(&mut out, delta.matched.len() as u32);
                for (id, vs) in &delta.matched {
                    put_u64(&mut out, *id);
                    put_u32(&mut out, vs.len() as u32);
                    for &v in vs {
                        put_u32(&mut out, v);
                    }
                }
                put_u32(&mut out, delta.unmatched.len() as u32);
                for &id in &delta.unmatched {
                    put_u64(&mut out, id);
                }
            }
            Response::Error {
                req_id,
                code,
                message,
            } => {
                out.push(OP_ERROR);
                put_u64(&mut out, *req_id);
                put_u16(&mut out, *code as u16);
                put_u32(&mut out, message.len() as u32);
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Decode a frame body. Never panics; hostile bytes yield
    /// [`FrameError::Malformed`].
    pub fn decode(body: &[u8]) -> Result<Response, FrameError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let resp = match op {
            OP_COMPLETION => {
                let req_id = c.u64("req_id")?;
                let epoch = c.u64("epoch")?;
                let n = c.count(3, "result count")?;
                let mut results = Vec::with_capacity(n);
                for i in 0..n {
                    let tag = c.u8("result tag")?;
                    results.push(match tag {
                        TAG_INSERTED | TAG_DELETED | TAG_ALREADY_DELETED => {
                            let id = c.u64("id")?;
                            let seq = c.u64("seq")?;
                            let epoch = c.u64("epoch")?;
                            match tag {
                                TAG_INSERTED => UpdateResult::Inserted { id, seq, epoch },
                                TAG_DELETED => UpdateResult::Deleted { id, seq, epoch },
                                _ => UpdateResult::AlreadyDeleted { id, seq, epoch },
                            }
                        }
                        TAG_REJECTED => {
                            let raw = c.u16("reject code")?;
                            let code = ErrorCode::from_u16(raw).ok_or_else(|| {
                                FrameError::Malformed(format!("result {i}: unknown code {raw}"))
                            })?;
                            UpdateResult::Rejected { code }
                        }
                        t => {
                            return Err(FrameError::Malformed(format!(
                                "result {i}: unknown tag {t}"
                            )))
                        }
                    });
                }
                Response::Completion {
                    req_id,
                    epoch,
                    results,
                }
            }
            OP_QUERY_RESULT => {
                let req_id = c.u64("req_id")?;
                let epoch = c.u64("epoch")?;
                let matched_edge = match c.u8("matched tag")? {
                    0 => None,
                    1 => Some(c.u64("matched edge")?),
                    t => {
                        return Err(FrameError::Malformed(format!("bad option tag {t}")));
                    }
                };
                let n = c.count(4, "partner count")?;
                let mut partners = Vec::with_capacity(n);
                for _ in 0..n {
                    partners.push(c.u32("partner")?);
                }
                Response::QueryResult {
                    req_id,
                    epoch,
                    matched_edge,
                    partners,
                }
            }
            OP_STATS_RESULT => Response::Stats {
                req_id: c.u64("req_id")?,
                stats: WireStats {
                    epoch: c.u64("epoch")?,
                    num_edges: c.u64("num_edges")?,
                    matching_size: c.u64("matching_size")?,
                    connections: c.u32("connections")?,
                    total_connections: c.u64("total_connections")?,
                    overloaded: c.u64("overloaded")?,
                    protocol_errors: c.u64("protocol_errors")?,
                    draining: c.u8("draining")?,
                },
            },
            OP_PROFILE_RESULT => Response::ProfileResult {
                req_id: c.u64("req_id")?,
                report: get_profile(&mut c)?,
            },
            OP_EPOCH_EVENT => Response::EpochEvent {
                epoch: c.u64("epoch")?,
            },
            OP_DELTA_EVENT => {
                let resync = match c.u8("resync flag")? {
                    0 => false,
                    1 => true,
                    t => return Err(FrameError::Malformed(format!("bad resync flag {t}"))),
                };
                let from_epoch = c.u64("from_epoch")?;
                let to_epoch = c.u64("to_epoch")?;
                let n = c.count(8, "inserted count")?;
                let mut inserted = Vec::with_capacity(n);
                for _ in 0..n {
                    inserted.push(c.u64("inserted id")?);
                }
                let n = c.count(8, "deleted count")?;
                let mut deleted = Vec::with_capacity(n);
                for _ in 0..n {
                    deleted.push(c.u64("deleted id")?);
                }
                let n = c.count(12, "matched count")?;
                let mut matched = Vec::with_capacity(n);
                for i in 0..n {
                    let id = c.u64("matched id")?;
                    let nv = c.count(4, &format!("matched {i} vertex count"))?;
                    let mut vs = Vec::with_capacity(nv);
                    for _ in 0..nv {
                        vs.push(c.u32("matched vertex")?);
                    }
                    matched.push((id, vs));
                }
                let n = c.count(8, "unmatched count")?;
                let mut unmatched = Vec::with_capacity(n);
                for _ in 0..n {
                    unmatched.push(c.u64("unmatched id")?);
                }
                Response::DeltaEvent {
                    resync,
                    delta: WireDelta {
                        from_epoch,
                        to_epoch,
                        inserted,
                        deleted,
                        matched,
                        unmatched,
                    },
                }
            }
            OP_ERROR => {
                let req_id = c.u64("req_id")?;
                let raw = c.u16("error code")?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| FrameError::Malformed(format!("unknown error code {raw}")))?;
                let len = c.count(1, "message length")?;
                let bytes = c.take(len, "message")?;
                let message = String::from_utf8(bytes.to_vec())
                    .map_err(|_| FrameError::Malformed("error message is not UTF-8".into()))?;
                Response::Error {
                    req_id,
                    code,
                    message,
                }
            }
            op => {
                return Err(FrameError::Malformed(format!(
                    "unknown response opcode {op:#04x}"
                )))
            }
        };
        c.finish("response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_round_trips_and_rejects_imposters() {
        let mut wire = Vec::new();
        write_handshake(&mut wire).unwrap();
        assert_eq!(wire.len(), 8);
        read_handshake(&mut &wire[..]).unwrap();

        let http = b"GET / HT";
        assert!(matches!(
            read_handshake(&mut &http[..]),
            Err(FrameError::BadHandshake(_))
        ));
        for other in [VERSION + 1, 2, 1] {
            let mut v = wire.clone();
            v[4..6].copy_from_slice(&other.to_le_bytes());
            assert!(matches!(
                read_handshake(&mut &v[..]),
                Err(FrameError::BadHandshake(_))
            ));
        }
        assert!(matches!(
            read_handshake(&mut &wire[..4]),
            Err(FrameError::BadHandshake(_))
        ));
    }

    #[test]
    fn frame_boundary_eof_is_clean_but_mid_frame_is_torn() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0xAB, 1, 2, 3]).unwrap();
        let mut body = Vec::new();
        // Whole frame reads back.
        let mut r = &wire[..];
        assert!(read_frame(&mut r, MAX_FRAME, &mut body).unwrap().is_some());
        assert_eq!(body, [0xAB, 1, 2, 3]);
        assert!(read_frame(&mut r, MAX_FRAME, &mut body).unwrap().is_none());
        // Truncation at every interior byte is Torn, never a panic.
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            assert!(
                matches!(
                    read_frame(&mut r, MAX_FRAME, &mut body),
                    Err(FrameError::Torn { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected_before_buffering() {
        let mut wire = (8u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 8]);
        let mut body = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], 4, &mut body),
            Err(FrameError::TooLarge { len: 8, cap: 4 })
        ));
        let zero = (0u32).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..], MAX_FRAME, &mut body),
            Err(FrameError::TooLarge { len: 0, .. })
        ));
    }

    #[test]
    fn hostile_counts_cannot_drive_allocations() {
        // A SubmitBatch declaring u32::MAX updates backed by 0 bytes.
        let mut body = vec![OP_SUBMIT_BATCH];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&body),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut body = Request::Stats { req_id: 3 }.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn delta_subscription_frames_round_trip() {
        let req = Request::SubscribeDeltas {
            req_id: 11,
            from_epoch: 42,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);

        let resp = Response::DeltaEvent {
            resync: false,
            delta: WireDelta {
                from_epoch: 42,
                to_epoch: 48,
                inserted: vec![5, 9],
                deleted: vec![2],
                matched: vec![(5, vec![1, 2]), (9, vec![3, 4, 5])],
                unmatched: vec![2],
            },
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

        // A resync event with an empty delta (epoch-0 state).
        let resync = Response::DeltaEvent {
            resync: true,
            delta: WireDelta::default(),
        };
        assert_eq!(Response::decode(&resync.encode()).unwrap(), resync);
    }

    #[test]
    fn profile_frames_round_trip() {
        use pbdmm_primitives::obs::{Counter, Phase, Recorder};

        let req = Request::Profile { req_id: 21 };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);

        // A populated report survives the sparse-bucket wire encoding.
        let rec = Recorder::enabled();
        rec.record_ns(Phase::Batch, 50_000);
        rec.record_ns(Phase::Plan, 1_100);
        rec.record_ns(Phase::Plan, 2_000_000);
        rec.add(Counter::Batches, 2);
        rec.record_max(Counter::BatchMax, 64);
        let resp = Response::ProfileResult {
            req_id: 21,
            report: rec.snapshot(),
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

        // The all-zero report of a profiling-disabled daemon too.
        let empty = Response::ProfileResult {
            req_id: 3,
            report: ProfileReport::empty(),
        };
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn hostile_profile_frames_are_malformed_not_panics() {
        // A phase count of u32::MAX backed by no bytes.
        let mut body = vec![OP_PROFILE_RESULT];
        body.extend_from_slice(&9u64.to_le_bytes()); // req_id
        body.extend_from_slice(&0u64.to_le_bytes()); // wall_ns
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(&body),
            Err(FrameError::Malformed(_))
        ));

        // A bucket index beyond the histogram is malformed, not a panic.
        let mut resp = Response::ProfileResult {
            req_id: 9,
            report: ProfileReport::empty(),
        }
        .encode();
        // Rewrite the first phase to claim one bucket at index 200. The
        // empty encoding is: op + req_id(8) + wall(8) + nphases(4), then
        // per phase total(8)+count(8)+max(8)+nbuckets(4).
        let first_nbuckets = 1 + 8 + 8 + 4 + 8 + 8 + 8;
        resp[first_nbuckets..first_nbuckets + 4].copy_from_slice(&1u32.to_le_bytes());
        resp.insert(first_nbuckets + 4, 200); // bucket index
        let pos = first_nbuckets + 5;
        for (i, b) in 7u64.to_le_bytes().iter().enumerate() {
            resp.insert(pos + i, *b); // bucket value
        }
        assert!(matches!(
            Response::decode(&resp),
            Err(FrameError::Malformed(_))
        ));

        // Truncating a valid profile frame at any interior byte is
        // malformed (or torn at the transport layer), never a panic.
        let whole = Response::ProfileResult {
            req_id: 1,
            report: ProfileReport::empty(),
        }
        .encode();
        for cut in 1..whole.len() {
            assert!(Response::decode(&whole[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_delta_counts_cannot_drive_allocations() {
        // A DeltaEvent declaring u32::MAX inserted ids backed by 0 bytes.
        let mut body = vec![OP_DELTA_EVENT, 0];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(&body),
            Err(FrameError::Malformed(_))
        ));
    }
}
