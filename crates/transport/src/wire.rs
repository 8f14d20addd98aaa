//! Binary wire codec for the Khameleon protocol.
//!
//! The transport speaks length-prefixed frames over a byte stream:
//!
//! ```text
//! frame   := len:u32-LE  payload
//! payload := version:u8  tag:u8  body
//! ```
//!
//! `len` counts the payload bytes only (not the prefix itself).  Integers
//! inside a body are LEB128 varints; `f64`s are their IEEE-754 bit patterns
//! in little-endian order, so probabilities survive the wire *bit-exactly* —
//! a requirement of the delta path, where the server's shadow summary must
//! reproduce the client's summary down to the last bit (see
//! [`khameleon_core::delta`]).
//!
//! Client→server payloads carry every [`ClientMessage`] plus one
//! transport-level frame, [`ClientFrame::Credit`], used by lockstep tests and
//! flow-controlled clients.  Server→client payloads carry [`ServerEvent`]s.
//! Tags:
//!
//! | tag    | direction | meaning                         |
//! |--------|-----------|---------------------------------|
//! | `0x01` | up        | `Predictor(PredictorState)`     |
//! | `0x02` | up        | `RateReport(Bandwidth)`         |
//! | `0x03` | up        | `Close`                         |
//! | `0x04` | up        | `PredictorFull { .. }`          |
//! | `0x05` | up        | `PredictorDelta(..)` (O(Δ))     |
//! | `0x06` | up        | `Credit(n)` (transport-level)   |
//! | `0x07` | up        | `Hello` (request resumability)  |
//! | `0x08` | up        | `Resume { token, last_seq }`    |
//! | `0x80` | down      | `Idle`                          |
//! | `0x81` | down      | `Block { .. }`                  |
//! | `0x82` | down      | `Closed { .. }`                 |
//! | `0x83` | down      | `Resync { .. }`                 |
//! | `0x84` | down      | `Busy` (load shed)              |
//! | `0x85` | down      | `Welcome { token, epoch, .. }`  |
//!
//! Every `0x80..=0x84` server frame carries a leading **sequence number**
//! varint right after the tag.  Connections that never handshake see `0` —
//! the legacy wrappers [`encode_server_event`]/[`decode_server_event`] hide
//! it entirely — while resumable sessions use it to deduplicate the overlap
//! replayed after a [`ClientFrame::Resume`].
//!
//! Decoding is strict: unknown versions/tags, truncated bodies, trailing
//! bytes, non-finite or negative probabilities, unsorted explicit entries and
//! out-of-range ids are all rejected with a [`WireError`] instead of being
//! passed to library types whose invariants they would violate.

use std::io::Read;

use khameleon_core::block::Block;
use khameleon_core::delta::{PredictionDelta, SliceDelta};
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::predictor::gaussian::{Gaussian2d, Point2d};
use khameleon_core::predictor::PredictorState;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::types::{Bandwidth, BlockRef, Duration, RequestId, Time};

/// Version byte every payload starts with.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a single frame's payload length.  Anything larger is
/// rejected before buffering, so a corrupt length prefix cannot make a peer
/// allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Decode-side failures.  Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the structure it announced was complete.
    Truncated,
    /// The payload's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// Unknown frame or sub-structure tag.
    BadTag(u8),
    /// The frame length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// Structurally well-formed but semantically invalid (unsorted entries,
    /// out-of-range ids, non-finite floats, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::TooLarge(n) => write!(f, "frame length {n} exceeds cap"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Everything a client puts on the wire: protocol messages plus the
/// transport-level credit frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// A protocol message for the session layer.
    Message(ClientMessage),
    /// Grants the server permission to send `n` more blocks on this
    /// connection.  Purely transport-level flow control: lockstep tests and
    /// the stress harness use it to pull blocks one at a time.
    Credit(u32),
    /// Opts this connection into resumable sessions.  The server answers
    /// with a [`ServerFrame::Welcome`] carrying the resume token; on
    /// EOF/error the session is then *parked* instead of torn down.
    Hello,
    /// Re-attaches to a parked session.  `token` is the value from the
    /// original `Welcome`; `last_seq` is the highest server-frame sequence
    /// number the client processed, so the server replays only the events
    /// after it.
    Resume {
        /// The resume token issued in the `Welcome`.
        token: u64,
        /// Highest server sequence number already processed.
        last_seq: u64,
    },
}

/// Everything a server puts on the wire: sequenced protocol events plus the
/// transport-level `Welcome` handshake reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// A protocol event, stamped with this connection's send sequence
    /// number (0 on non-resumable connections).
    Event {
        /// Monotone per-session sequence number.
        seq: u64,
        /// The event itself.
        event: ServerEvent,
    },
    /// Reply to [`ClientFrame::Hello`] or a successful/failed
    /// [`ClientFrame::Resume`]: the token to resume with later, the attach
    /// epoch (0 for a fresh session, +1 per successful re-attach), and the
    /// server-side session id.  A `Resume` that could not be honoured
    /// (expired park, unknown token) yields a `Welcome` with a *different*
    /// token and epoch 0 — the client detects the fresh session by the
    /// token change and resets its delta tracker.
    Welcome {
        /// Token identifying the (parked) session on reconnect.
        token: u64,
        /// Attach epoch: 0 fresh, incremented per successful resume.
        epoch: u64,
        /// The server-side session id.
        session: SessionId,
    },
}

// --- primitive writers -----------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

// --- primitive readers -----------------------------------------------------

/// A cursor over one frame's body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if shift == 63 && byte > 1 {
                    return Err(WireError::Malformed("varint overflows u64"));
                }
                return Ok(v);
            }
        }
        Err(WireError::Malformed("varint longer than 10 bytes"))
    }

    fn len(&mut self, per_item: usize) -> Result<usize, WireError> {
        // A length cannot announce more items than bytes remaining; checking
        // up front turns corrupt lengths into errors instead of huge
        // allocations.
        let n = self.varint()?;
        let remaining = (self.buf.len() - self.pos) / per_item.max(1);
        if n as usize > remaining {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len(1)?;
        let end = self.pos + n;
        let b = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(b)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after frame body"))
        }
    }
}

// --- compound writers ------------------------------------------------------

fn put_request_id(out: &mut Vec<u8>, r: RequestId) {
    put_varint(out, u64::from(r.0));
}

fn put_prob(out: &mut Vec<u8>, p: f64) {
    put_f64(out, p);
}

fn put_entries(out: &mut Vec<u8>, entries: &[(RequestId, f64)]) {
    put_varint(out, entries.len() as u64);
    for &(r, p) in entries {
        put_request_id(out, r);
        put_prob(out, p);
    }
}

fn put_summary(out: &mut Vec<u8>, s: &PredictionSummary) {
    put_varint(out, s.num_requests() as u64);
    put_varint(out, s.generated_at.as_micros());
    put_varint(out, s.slices().len() as u64);
    for slice in s.slices() {
        put_varint(out, slice.delta.as_micros());
        put_entries(out, slice.dist.explicit_entries());
        put_f64(out, slice.dist.residual_mass());
    }
}

fn put_predictor_state(out: &mut Vec<u8>, state: &PredictorState) {
    match state {
        PredictorState::Empty => out.push(0),
        PredictorState::LastRequest(r) => {
            out.push(1);
            put_request_id(out, *r);
        }
        PredictorState::MouseGaussians(v) => {
            out.push(2);
            put_varint(out, v.len() as u64);
            for (delta, g) in v {
                put_varint(out, delta.as_micros());
                put_f64(out, g.mean.x);
                put_f64(out, g.mean.y);
                put_f64(out, g.var_x);
                put_f64(out, g.var_y);
                put_f64(out, g.cov_xy);
            }
        }
        PredictorState::TopK(v) => {
            out.push(3);
            put_entries(out, v);
        }
        PredictorState::Summary(s) => {
            out.push(4);
            put_summary(out, s);
        }
        PredictorState::Opaque(b) => {
            out.push(5);
            put_bytes(out, b);
        }
    }
}

fn put_delta(out: &mut Vec<u8>, d: &PredictionDelta) {
    put_varint(out, d.base_generation);
    put_varint(out, d.generation);
    put_varint(out, d.generated_at.as_micros());
    put_varint(out, d.slices.len() as u64);
    for s in &d.slices {
        put_entries(out, &s.upserts);
        put_varint(out, s.removes.len() as u64);
        for &r in &s.removes {
            put_request_id(out, r);
        }
        match s.residual {
            Some(res) => {
                out.push(1);
                put_f64(out, res);
            }
            None => out.push(0),
        }
    }
}

// --- compound readers ------------------------------------------------------

fn get_request_id(r: &mut Reader<'_>) -> Result<RequestId, WireError> {
    let v = r.varint()?;
    u32::try_from(v)
        .map(RequestId)
        .map_err(|_| WireError::Malformed("request id exceeds u32"))
}

fn get_prob(r: &mut Reader<'_>) -> Result<f64, WireError> {
    let p = r.f64()?;
    if !p.is_finite() || p < 0.0 {
        return Err(WireError::Malformed("probability not finite and >= 0"));
    }
    Ok(p)
}

/// Reads a `(RequestId, f64)` entry list, enforcing strictly ascending ids.
fn get_entries(r: &mut Reader<'_>) -> Result<Vec<(RequestId, f64)>, WireError> {
    let n = r.len(9)?;
    let mut out = Vec::with_capacity(n);
    let mut prev: Option<RequestId> = None;
    for _ in 0..n {
        let id = get_request_id(r)?;
        if prev.is_some_and(|p| p >= id) {
            return Err(WireError::Malformed("entry ids not strictly ascending"));
        }
        prev = Some(id);
        out.push((id, get_prob(r)?));
    }
    Ok(out)
}

fn get_summary(r: &mut Reader<'_>) -> Result<PredictionSummary, WireError> {
    let n = r.varint()? as usize;
    if n == 0 {
        return Err(WireError::Malformed("summary over zero requests"));
    }
    let generated_at = Time::from_micros(r.varint()?);
    let slice_count = r.len(10)?;
    if slice_count == 0 {
        return Err(WireError::Malformed("summary with no slices"));
    }
    let mut slices = Vec::with_capacity(slice_count);
    for _ in 0..slice_count {
        let delta = Duration::from_micros(r.varint()?);
        let entries = get_entries(r)?;
        if entries.iter().any(|&(id, _)| id.index() >= n) {
            return Err(WireError::Malformed("entry id out of range"));
        }
        let residual = get_prob(r)?;
        slices.push(HorizonSlice {
            delta,
            dist: SparseDistribution::from_normalized(n, entries, residual),
        });
    }
    if slices.windows(2).any(|w| w[0].delta >= w[1].delta) {
        return Err(WireError::Malformed("slice offsets not strictly ascending"));
    }
    Ok(PredictionSummary::new(n, slices, generated_at))
}

fn get_delta(r: &mut Reader<'_>) -> Result<PredictionDelta, WireError> {
    let base_generation = r.varint()?;
    let generation = r.varint()?;
    let generated_at = Time::from_micros(r.varint()?);
    let slice_count = r.len(3)?;
    let mut slices = Vec::with_capacity(slice_count);
    for _ in 0..slice_count {
        let upserts = get_entries(r)?;
        let n_rm = r.len(1)?;
        let mut removes = Vec::with_capacity(n_rm);
        let mut prev: Option<RequestId> = None;
        for _ in 0..n_rm {
            let id = get_request_id(r)?;
            if prev.is_some_and(|p| p >= id) {
                return Err(WireError::Malformed("remove ids not strictly ascending"));
            }
            prev = Some(id);
            removes.push(id);
        }
        let residual = match r.u8()? {
            0 => None,
            1 => Some(get_prob(r)?),
            t => return Err(WireError::BadTag(t)),
        };
        slices.push(SliceDelta {
            upserts,
            removes,
            residual,
        });
    }
    Ok(PredictionDelta {
        base_generation,
        generation,
        generated_at,
        slices,
    })
}

// --- public API ------------------------------------------------------------

/// Encodes a client frame as one wire frame (length prefix included).
pub fn encode_client_frame(frame: &ClientFrame) -> Vec<u8> {
    let mut body = begin_frame(FRAME_CAPACITY);
    match frame {
        ClientFrame::Message(ClientMessage::Predictor(state)) => {
            body.push(0x01);
            put_predictor_state(&mut body, state);
        }
        ClientFrame::Message(ClientMessage::RateReport(rate)) => {
            body.push(0x02);
            put_f64(&mut body, rate.0);
        }
        ClientFrame::Message(ClientMessage::Close) => body.push(0x03),
        ClientFrame::Message(ClientMessage::PredictorFull {
            generation,
            summary,
        }) => {
            body.push(0x04);
            put_varint(&mut body, *generation);
            put_summary(&mut body, summary);
        }
        ClientFrame::Message(ClientMessage::PredictorDelta(delta)) => {
            body.push(0x05);
            put_delta(&mut body, delta);
        }
        ClientFrame::Credit(n) => {
            body.push(0x06);
            put_varint(&mut body, u64::from(*n));
        }
        ClientFrame::Hello => body.push(0x07),
        ClientFrame::Resume { token, last_seq } => {
            body.push(0x08);
            put_varint(&mut body, *token);
            put_varint(&mut body, *last_seq);
        }
    }
    finish_frame(body)
}

/// Encodes a server event as one wire frame with sequence number 0 — the
/// legacy shape used by non-resumable connections and existing tests.
pub fn encode_server_event(event: &ServerEvent) -> Vec<u8> {
    encode_server_event_frame(0, event)
}

/// Encodes a server event stamped with `seq` as one wire frame (length
/// prefix included).
pub fn encode_server_event_frame(seq: u64, event: &ServerEvent) -> Vec<u8> {
    let payload = match event {
        ServerEvent::Block { block, .. } => block.payload.as_ref().map_or(0, Vec::len),
        _ => 0,
    };
    let mut body = begin_frame(FRAME_CAPACITY + payload);
    match event {
        ServerEvent::Idle => {
            body.push(0x80);
            put_varint(&mut body, seq);
        }
        ServerEvent::Block { session, block } => {
            body.push(0x81);
            put_varint(&mut body, seq);
            put_varint(&mut body, session.0);
            put_varint(&mut body, u64::from(block.meta.block.request.0));
            put_varint(&mut body, u64::from(block.meta.block.index));
            put_varint(&mut body, u64::from(block.meta.total_blocks));
            put_varint(&mut body, block.meta.size);
            match &block.payload {
                Some(p) => {
                    body.push(1);
                    put_bytes(&mut body, p);
                }
                None => body.push(0),
            }
        }
        ServerEvent::Closed { session } => {
            body.push(0x82);
            put_varint(&mut body, seq);
            put_varint(&mut body, session.0);
        }
        ServerEvent::Resync { session } => {
            body.push(0x83);
            put_varint(&mut body, seq);
            put_varint(&mut body, session.0);
        }
        ServerEvent::Busy => {
            body.push(0x84);
            put_varint(&mut body, seq);
        }
    }
    finish_frame(body)
}

/// Encodes the `Welcome` handshake reply as one wire frame.
pub fn encode_welcome(token: u64, epoch: u64, session: SessionId) -> Vec<u8> {
    let mut body = begin_frame(FRAME_CAPACITY);
    body.push(0x85);
    put_varint(&mut body, token);
    put_varint(&mut body, epoch);
    put_varint(&mut body, session.0);
    finish_frame(body)
}

/// Capacity reserved for a frame beyond any block payload: enough for every
/// fixed-size frame, so encoding one is a single allocation.
const FRAME_CAPACITY: usize = 64;

/// Starts a frame in one allocation: a length prefix to patch, then the
/// version byte.
fn begin_frame(capacity: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(capacity);
    frame.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION]);
    frame
}

/// Patches the length prefix of a frame started by [`begin_frame`].
fn finish_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let len = frame.len() - 4;
    debug_assert!(len <= MAX_FRAME_LEN as usize);
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame
}

/// Decodes one client frame body (the payload after the length prefix).
pub fn decode_client_frame(body: &[u8]) -> Result<ClientFrame, WireError> {
    let mut r = Reader::new(body);
    check_version(&mut r)?;
    let frame = match r.u8()? {
        0x01 => {
            let state = match r.u8()? {
                0 => PredictorState::Empty,
                1 => PredictorState::LastRequest(get_request_id(&mut r)?),
                2 => {
                    let n = r.len(41)?;
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        let delta = Duration::from_micros(r.varint()?);
                        let (x, y) = (r.f64()?, r.f64()?);
                        let (var_x, var_y, cov_xy) = (r.f64()?, r.f64()?, r.f64()?);
                        if ![x, y, var_x, var_y, cov_xy].iter().all(|f| f.is_finite()) {
                            return Err(WireError::Malformed("non-finite gaussian parameter"));
                        }
                        v.push((
                            delta,
                            Gaussian2d {
                                mean: Point2d { x, y },
                                var_x,
                                var_y,
                                cov_xy,
                            },
                        ));
                    }
                    PredictorState::MouseGaussians(v)
                }
                3 => PredictorState::TopK(get_entries(&mut r)?),
                4 => PredictorState::Summary(get_summary(&mut r)?),
                5 => PredictorState::Opaque(r.bytes()?.to_vec()),
                t => return Err(WireError::BadTag(t)),
            };
            ClientFrame::Message(ClientMessage::Predictor(state))
        }
        0x02 => {
            let rate = r.f64()?;
            if !rate.is_finite() || rate < 0.0 {
                return Err(WireError::Malformed("rate not finite and >= 0"));
            }
            ClientFrame::Message(ClientMessage::RateReport(Bandwidth(rate)))
        }
        0x03 => ClientFrame::Message(ClientMessage::Close),
        0x04 => {
            let generation = r.varint()?;
            let summary = get_summary(&mut r)?;
            ClientFrame::Message(ClientMessage::PredictorFull {
                generation,
                summary,
            })
        }
        0x05 => ClientFrame::Message(ClientMessage::PredictorDelta(get_delta(&mut r)?)),
        0x06 => {
            let n = r.varint()?;
            let n = u32::try_from(n).map_err(|_| WireError::Malformed("credit exceeds u32"))?;
            ClientFrame::Credit(n)
        }
        0x07 => ClientFrame::Hello,
        0x08 => {
            let token = r.varint()?;
            let last_seq = r.varint()?;
            ClientFrame::Resume { token, last_seq }
        }
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok(frame)
}

/// Decodes one server event body, discarding the sequence number — the
/// legacy shape used by non-resumable clients and existing tests.
pub fn decode_server_event(body: &[u8]) -> Result<ServerEvent, WireError> {
    match decode_server_frame(body)? {
        ServerFrame::Event { event, .. } => Ok(event),
        ServerFrame::Welcome { .. } => Err(WireError::Malformed("unexpected welcome frame")),
    }
}

/// Decodes one server frame body (the payload after the length prefix).
pub fn decode_server_frame(body: &[u8]) -> Result<ServerFrame, WireError> {
    let mut r = Reader::new(body);
    check_version(&mut r)?;
    let tag = r.u8()?;
    if tag == 0x85 {
        let token = r.varint()?;
        let epoch = r.varint()?;
        let session = SessionId(r.varint()?);
        r.finish()?;
        return Ok(ServerFrame::Welcome {
            token,
            epoch,
            session,
        });
    }
    let seq = r.varint()?;
    let event = match tag {
        0x80 => ServerEvent::Idle,
        0x81 => {
            let session = SessionId(r.varint()?);
            let request = get_request_id(&mut r)?;
            let index = u32::try_from(r.varint()?)
                .map_err(|_| WireError::Malformed("block index exceeds u32"))?;
            let total_blocks = u32::try_from(r.varint()?)
                .map_err(|_| WireError::Malformed("block count exceeds u32"))?;
            if total_blocks == 0 || index >= total_blocks {
                return Err(WireError::Malformed("block index outside response"));
            }
            let size = r.varint()?;
            let block_ref = BlockRef { request, index };
            let block = match r.u8()? {
                0 => Block::meta_only(block_ref, total_blocks, size),
                1 => Block::with_payload(block_ref, total_blocks, size, r.bytes()?.to_vec()),
                t => return Err(WireError::BadTag(t)),
            };
            ServerEvent::Block { session, block }
        }
        0x82 => ServerEvent::Closed {
            session: SessionId(r.varint()?),
        },
        0x83 => ServerEvent::Resync {
            session: SessionId(r.varint()?),
        },
        0x84 => ServerEvent::Busy,
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok(ServerFrame::Event { seq, event })
}

fn check_version(r: &mut Reader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        WIRE_VERSION => Ok(()),
        v => Err(WireError::BadVersion(v)),
    }
}

/// Incremental frame extractor for a nonblocking byte stream.
///
/// [`fill_from`](FrameBuffer::fill_from) reads straight into the buffer's
/// spare room (or [`extend`](FrameBuffer::extend) copies bytes in);
/// [`next_frame`](FrameBuffer::next_frame) yields each complete payload
/// (without the length prefix) as a slice borrowed from the buffer, so it
/// is decoded in place.  The length prefix itself is validated against
/// [`MAX_FRAME_LEN`] before any buffering decision depends on it.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// `buf[start..end]` is unconsumed; `buf[end..]` is spare room that is
    /// already initialized, so a read into it zeroes nothing.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Spare room [`FrameBuffer::fill_from`] guarantees before each read.
const READ_CHUNK: usize = 16 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends bytes that were read elsewhere.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Performs one `read` from `src` straight into the buffer's spare room
    /// and returns its result: the bytes read, `0` at end of stream.
    pub fn fill_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        self.reserve(READ_CHUNK);
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Makes room for `additional` bytes after the unconsumed ones: first by
    /// moving those to the front, then by growing (at least doubling).
    fn reserve(&mut self, additional: usize) {
        if self.buf.len() - self.end >= additional {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let need = self.end + additional;
        if self.buf.len() < need {
            self.buf.resize(need.max(2 * self.buf.len()), 0);
        }
    }

    /// The length (prefix included) of the buffered frame at the front, if
    /// it is complete.
    fn complete_frame_len(&self) -> Result<Option<usize>, WireError> {
        let avail = &self.buf[self.start..self.end];
        let Some(prefix) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_FRAME_LEN {
            return Err(WireError::TooLarge(len));
        }
        let total = 4 + len as usize;
        Ok((avail.len() >= total).then_some(total))
    }

    /// Whether a complete frame is buffered, so the next
    /// [`next_frame`](FrameBuffer::next_frame) yields it.
    pub fn has_frame(&self) -> Result<bool, WireError> {
        Ok(self.complete_frame_len()?.is_some())
    }

    /// Pops the next complete frame payload, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(total) = self.complete_frame_len()? else {
            return Ok(None);
        };
        let body = self.start + 4..self.start + total;
        self.start += total;
        if self.start == self.end {
            // Fully consumed: the next read starts at the front again.  The
            // bytes stay in place, so the returned slice is still valid.
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(&self.buf[body]))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.end - self.start
    }

    /// Drains every unconsumed byte, leaving the buffer empty.  Used when a
    /// connection is handed to another event loop (cross-shard resume): the
    /// receiving loop seeds its own buffer with exactly these bytes so no
    /// partially read frame is lost in transit.
    pub fn take_remaining(&mut self) -> Vec<u8> {
        let rest = self.buf[self.start..self.end].to_vec();
        self.start = 0;
        self.end = 0;
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_prefix(frame: &[u8]) -> &[u8] {
        &frame[4..]
    }

    #[test]
    fn credit_and_close_round_trip() {
        for f in [
            ClientFrame::Credit(0),
            ClientFrame::Credit(u32::MAX),
            ClientFrame::Message(ClientMessage::Close),
        ] {
            let enc = encode_client_frame(&f);
            assert_eq!(decode_client_frame(strip_prefix(&enc)), Ok(f));
        }
    }

    #[test]
    fn rate_report_preserves_bits() {
        let rate = Bandwidth(1.0 / 3.0 * 5_000_000.0);
        let enc = encode_client_frame(&ClientFrame::Message(ClientMessage::RateReport(rate)));
        match decode_client_frame(strip_prefix(&enc)) {
            Ok(ClientFrame::Message(ClientMessage::RateReport(got))) => {
                assert_eq!(got.0.to_bits(), rate.0.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn block_event_round_trips_with_and_without_payload() {
        let meta_only = ServerEvent::Block {
            session: SessionId(3),
            block: Block::meta_only(
                BlockRef {
                    request: RequestId(17),
                    index: 2,
                },
                10,
                64_000,
            ),
        };
        let with_payload = ServerEvent::Block {
            session: SessionId(u64::MAX),
            block: Block::with_payload(
                BlockRef {
                    request: RequestId(0),
                    index: 0,
                },
                1,
                5,
                vec![1, 2, 3, 4, 5],
            ),
        };
        for ev in [meta_only, with_payload] {
            let enc = encode_server_event(&ev);
            assert_eq!(decode_server_event(strip_prefix(&enc)), Ok(ev));
        }
    }

    #[test]
    fn rejects_bad_version_tag_and_trailing_bytes() {
        let mut enc = encode_client_frame(&ClientFrame::Credit(5));
        enc[4] = 9; // version byte
        assert_eq!(
            decode_client_frame(strip_prefix(&enc)),
            Err(WireError::BadVersion(9))
        );

        let frame = [WIRE_VERSION, 0x7f];
        assert_eq!(decode_client_frame(&frame), Err(WireError::BadTag(0x7f)));

        let mut long = encode_client_frame(&ClientFrame::Credit(5))[4..].to_vec();
        long.push(0);
        assert_eq!(
            decode_client_frame(&long),
            Err(WireError::Malformed("trailing bytes after frame body"))
        );
    }

    #[test]
    fn frame_buffer_reassembles_across_arbitrary_splits() {
        let frames: Vec<Vec<u8>> = vec![
            encode_client_frame(&ClientFrame::Credit(1)),
            encode_client_frame(&ClientFrame::Message(ClientMessage::Close)),
            encode_client_frame(&ClientFrame::Message(ClientMessage::RateReport(Bandwidth(
                123.5,
            )))),
        ];
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        // Feed one byte at a time: every frame must still come out whole.
        let mut fb = FrameBuffer::new();
        let mut out = Vec::new();
        for &b in &stream {
            fb.extend(&[b]);
            while let Some(body) = fb.next_frame().expect("well-formed stream") {
                out.push(decode_client_frame(body).expect("decodes"));
            }
        }
        assert_eq!(out.len(), 3);
        assert_eq!(fb.pending_bytes(), 0);
    }

    /// A reader that hands out at most `chunk` bytes per `read`.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn fill_from_reads_frames_in_place_across_compaction_and_growth() {
        // Many small frames around one larger than the read chunk, so the
        // buffer both compacts a partial frame to the front and grows.
        let big = ClientFrame::Message(ClientMessage::Predictor(PredictorState::Opaque(
            (0..3 * READ_CHUNK).map(|i| i as u8).collect(),
        )));
        let mut frames: Vec<ClientFrame> = (0..2_000).map(ClientFrame::Credit).collect();
        frames.insert(1_000, big);
        let stream: Vec<u8> = frames.iter().flat_map(encode_client_frame).collect();
        for chunk in [1, 7, 4096, usize::MAX] {
            let mut src = Trickle {
                data: &stream,
                chunk,
            };
            let mut fb = FrameBuffer::new();
            let mut out = Vec::new();
            loop {
                while fb.has_frame().expect("well-formed stream") {
                    let body = fb.next_frame().expect("well-formed stream");
                    out.push(
                        decode_client_frame(body.expect("a buffered frame")).expect("decodes"),
                    );
                }
                assert_eq!(fb.next_frame(), Ok(None));
                if fb.fill_from(&mut src).expect("in-memory read") == 0 {
                    break;
                }
            }
            assert_eq!(out, frames, "chunk {chunk}");
            assert_eq!(fb.pending_bytes(), 0);
        }
    }

    #[test]
    fn hello_and_resume_round_trip() {
        for f in [
            ClientFrame::Hello,
            ClientFrame::Resume {
                token: 0,
                last_seq: 0,
            },
            ClientFrame::Resume {
                token: u64::MAX,
                last_seq: 1 << 40,
            },
        ] {
            let enc = encode_client_frame(&f);
            assert_eq!(decode_client_frame(strip_prefix(&enc)), Ok(f));
        }
    }

    #[test]
    fn sequenced_server_frames_round_trip() {
        let events = [
            ServerEvent::Idle,
            ServerEvent::Busy,
            ServerEvent::Resync {
                session: SessionId(9),
            },
            ServerEvent::Block {
                session: SessionId(4),
                block: Block::with_payload(
                    BlockRef {
                        request: RequestId(1),
                        index: 0,
                    },
                    2,
                    3,
                    vec![7, 8, 9],
                ),
            },
        ];
        for (i, ev) in events.into_iter().enumerate() {
            let seq = (i as u64) * 1_000_003;
            let enc = encode_server_event_frame(seq, &ev);
            assert_eq!(
                decode_server_frame(strip_prefix(&enc)),
                Ok(ServerFrame::Event { seq, event: ev })
            );
        }
    }

    #[test]
    fn welcome_round_trips_and_legacy_decoder_rejects_it() {
        let enc = encode_welcome(0xdead_beef_cafe, 3, SessionId(42));
        assert_eq!(
            decode_server_frame(strip_prefix(&enc)),
            Ok(ServerFrame::Welcome {
                token: 0xdead_beef_cafe,
                epoch: 3,
                session: SessionId(42),
            })
        );
        assert_eq!(
            decode_server_event(strip_prefix(&enc)),
            Err(WireError::Malformed("unexpected welcome frame"))
        );
    }

    #[test]
    fn legacy_event_wrappers_stamp_seq_zero() {
        let enc = encode_server_event(&ServerEvent::Idle);
        assert_eq!(
            decode_server_frame(strip_prefix(&enc)),
            Ok(ServerFrame::Event {
                seq: 0,
                event: ServerEvent::Idle
            })
        );
        assert_eq!(
            decode_server_event(strip_prefix(&enc)),
            Ok(ServerEvent::Idle)
        );
    }

    #[test]
    fn frame_buffer_rejects_oversized_length_prefix() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(fb.next_frame(), Err(WireError::TooLarge(MAX_FRAME_LEN + 1)));
    }

    #[test]
    fn truncated_length_announcements_do_not_allocate() {
        // A body claiming 2^60 entries but holding none must fail cleanly.
        let mut body = vec![WIRE_VERSION, 0x01, 3]; // TopK
        body.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert_eq!(decode_client_frame(&body), Err(WireError::Truncated));
    }
}
