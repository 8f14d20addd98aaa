//! Blocking client for the framed transport.
//!
//! [`TransportClient`] wraps one `TcpStream` and speaks the [`crate::wire`]
//! protocol.  Prediction uploads go through a
//! [`DeltaTracker`], so after the first full summary each re-prediction
//! ships as an O(Δ) [`ClientMessage::PredictorDelta`] whenever the delta is
//! small enough to be worth it; a server [`ServerEvent::Resync`] resets the
//! tracker and the next upload is full again — the client never has to track
//! that state machine itself.
//!
//! Optionally the client meters its own receive rate and interleaves
//! [`ClientMessage::RateReport`]s with its uploads, closing the §5.4
//! bandwidth-estimation loop over a real socket.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use khameleon_core::delta::DeltaTracker;
use khameleon_core::distribution::PredictionSummary;
use khameleon_core::fault::splitmix64;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::types::{Duration, Time};
use khameleon_net::estimator::ReceiveRateMeter;

use crate::wire::{
    decode_server_event, decode_server_frame, encode_client_frame, ClientFrame, FrameBuffer,
    ServerFrame, WireError,
};

/// Typed failures of the resilient client paths.  The legacy `io::Result`
/// methods are untouched; only [`TransportClient::connect_resumable`] and
/// [`TransportClient::recv_event_resilient`] speak this type.
#[derive(Debug)]
pub enum TransportError {
    /// The socket failed (connect, read, or write).
    Io(std::io::Error),
    /// The server sent bytes the strict decoder rejected.
    Wire(WireError),
    /// The server refused the session: it is shedding load.
    Busy,
    /// Reconnection was requested but this client never completed the
    /// `Hello` handshake (no token to resume with).
    NotResumable,
    /// Every reconnect attempt the policy allowed has failed.
    RetriesExhausted {
        /// Connection attempts made (initial try plus retries).
        attempts: u32,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Wire(e) => write!(f, "transport wire error: {e}"),
            TransportError::Busy => write!(f, "server is shedding load (busy)"),
            TransportError::NotResumable => write!(f, "connection has no resume token"),
            TransportError::RetriesExhausted { attempts } => {
                write!(f, "gave up reconnecting after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// The legacy `io::Result` paths report wire errors as `InvalidData`.
fn into_io_error(e: TransportError) -> std::io::Error {
    match e {
        TransportError::Io(e) => e,
        TransportError::Wire(e) => std::io::Error::new(ErrorKind::InvalidData, e),
        other => std::io::Error::other(other),
    }
}

/// Reconnection knobs for [`TransportClient::connect_resumable`].
///
/// Backoff is exponential with deterministic jitter: attempt `k` sleeps
/// `min(base · 2^k, max)` plus a seeded `splitmix64` jitter of up to half
/// that — no wall-clock reads, so tests get reproducible schedules.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Retries after the initial attempt before giving up.
    pub max_retries: u32,
    /// First retry's backoff; doubles each further attempt.
    pub base_backoff: std::time::Duration,
    /// Ceiling on the exponential backoff (before jitter).
    pub max_backoff: std::time::Duration,
    /// Seed for the deterministic jitter mixed into each backoff.
    pub jitter_seed: u64,
    /// Per-attempt TCP connect timeout; `None` uses the OS default.
    pub connect_timeout: Option<std::time::Duration>,
    /// Read timeout installed on every (re)connected socket; a stalled
    /// server then surfaces as a timeout the resilient receive path turns
    /// into a reconnect.  `None` blocks indefinitely.
    pub read_timeout: Option<std::time::Duration>,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_retries: 5,
            base_backoff: std::time::Duration::from_millis(10),
            max_backoff: std::time::Duration::from_secs(1),
            jitter_seed: 0,
            connect_timeout: Some(std::time::Duration::from_secs(2)),
            read_timeout: None,
        }
    }
}

impl ReconnectPolicy {
    /// The sleep before retry `attempt` (0-based), jitter included.
    pub fn backoff(&self, attempt: u32) -> std::time::Duration {
        let base = self.base_backoff.as_micros() as u64;
        let max = self.max_backoff.as_micros() as u64;
        let backoff = base.saturating_mul(1u64 << attempt.min(20)).min(max);
        let jitter_span = (backoff / 2).max(1);
        let jitter = splitmix64(self.jitter_seed ^ u64::from(attempt)) % jitter_span;
        std::time::Duration::from_micros(backoff + jitter)
    }
}

/// What one prediction upload put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UplinkReport {
    /// Encoded frame size, length prefix included.
    pub bytes: u64,
    /// Whether the update went out as a delta (vs. a full summary).
    pub delta: bool,
}

/// A blocking connection to a [`TransportServer`](crate::TransportServer).
pub struct TransportClient {
    stream: TcpStream,
    inbuf: FrameBuffer,
    tracker: DeltaTracker,
    meter: Option<ReceiveRateMeter>,
    // lint:allow(wall-clock) -- client-side receive metering needs the real
    // clock; sim code never runs through this path.
    start: std::time::Instant,
    uplink_bytes: u64,
    full_updates: u64,
    delta_updates: u64,
    resyncs_seen: u64,
    /// Peer address kept for reconnects (resumable clients only).
    peer: Option<SocketAddr>,
    policy: Option<ReconnectPolicy>,
    /// Resume token granted by `Welcome` (resumable clients only).
    token: Option<u64>,
    epoch: u64,
    session: Option<SessionId>,
    /// Highest sequence number accepted; frames at or below are replay
    /// overlap and are dropped.
    last_seq: u64,
    /// Events decoded while waiting for a `Welcome`, delivered before any
    /// further socket reads.
    pending: VecDeque<ServerEvent>,
    reconnects: u64,
    deduped_events: u64,
    fresh_sessions: u64,
}

impl TransportClient {
    fn from_stream(stream: TcpStream) -> TransportClient {
        TransportClient {
            stream,
            inbuf: FrameBuffer::new(),
            tracker: DeltaTracker::new(),
            meter: None,
            // lint:allow(wall-clock) -- receive metering needs the real clock
            start: std::time::Instant::now(),
            uplink_bytes: 0,
            full_updates: 0,
            delta_updates: 0,
            resyncs_seen: 0,
            peer: None,
            policy: None,
            token: None,
            epoch: 0,
            session: None,
            last_seq: 0,
            pending: VecDeque::new(),
            reconnects: 0,
            deduped_events: 0,
            fresh_sessions: 0,
        }
    }

    /// Connects to a transport server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TransportClient::from_stream(stream))
    }

    /// Connects and performs the `Hello`/`Welcome` handshake, making the
    /// session resumable: if the connection later dies,
    /// [`recv_event_resilient`](TransportClient::recv_event_resilient)
    /// reconnects under `policy` and resumes where it left off.
    ///
    /// Fails with [`TransportError::Busy`] when the server is shedding load.
    pub fn connect_resumable(
        addr: impl ToSocketAddrs,
        policy: ReconnectPolicy,
    ) -> Result<Self, TransportError> {
        let peer = addr.to_socket_addrs()?.next().ok_or_else(|| {
            TransportError::Io(std::io::Error::new(
                ErrorKind::AddrNotAvailable,
                "no address resolved",
            ))
        })?;
        let stream = match policy.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&peer, timeout)?,
            None => TcpStream::connect(peer)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(policy.read_timeout)?;
        let mut client = TransportClient::from_stream(stream);
        client.peer = Some(peer);
        client.policy = Some(policy);
        client.send_frame(&ClientFrame::Hello)?;
        client.await_welcome()?;
        Ok(client)
    }

    /// Enables automatic receive-rate reports every `interval` of received
    /// traffic (measured on the client's own clock, reported upstream as
    /// [`ClientMessage::RateReport`]).
    pub fn with_rate_reports(mut self, interval: Duration) -> Self {
        self.meter = Some(ReceiveRateMeter::new(interval));
        self
    }

    /// Replaces the delta tracker's economy threshold (see
    /// [`DeltaTracker::with_max_delta_ratio`]).
    pub fn with_max_delta_ratio(mut self, ratio: f64) -> Self {
        self.tracker = DeltaTracker::new().with_max_delta_ratio(ratio);
        self
    }

    /// Sets a read timeout for [`recv_event`](TransportClient::recv_event);
    /// `None` blocks indefinitely.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one protocol message verbatim (no delta tracking).
    pub fn send_message(&mut self, message: &ClientMessage) -> std::io::Result<u64> {
        self.send_frame(&ClientFrame::Message(message.clone()))
    }

    /// Ships a prediction summary, as a delta when the tracker deems it
    /// worthwhile, as a full install otherwise.
    pub fn send_prediction(
        &mut self,
        summary: &PredictionSummary,
    ) -> std::io::Result<UplinkReport> {
        let message = self.tracker.encode(summary);
        let delta = matches!(message, ClientMessage::PredictorDelta(_));
        let bytes = self.send_frame(&ClientFrame::Message(message))?;
        if delta {
            self.delta_updates += 1;
        } else {
            self.full_updates += 1;
        }
        Ok(UplinkReport { bytes, delta })
    }

    /// Grants the server credit for `n` more blocks (lockstep servers only
    /// consume credits; others ignore them).
    pub fn send_credit(&mut self, n: u32) -> std::io::Result<u64> {
        self.send_frame(&ClientFrame::Credit(n))
    }

    /// Tells the server this client is going away.  The server responds with
    /// [`ServerEvent::Closed`] and tears the session down.
    pub fn send_close(&mut self) -> std::io::Result<u64> {
        self.send_frame(&ClientFrame::Message(ClientMessage::Close))
    }

    /// Receives the next server event, blocking until a complete frame
    /// arrives (or the read timeout fires).
    ///
    /// Handles transport bookkeeping inline: a [`ServerEvent::Resync`]
    /// resets the delta tracker (the next
    /// [`send_prediction`](TransportClient::send_prediction) ships in full),
    /// and received blocks feed the rate meter, emitting rate reports
    /// upstream when one is due.
    pub fn recv_event(&mut self) -> std::io::Result<ServerEvent> {
        let event = self
            .read_frame()
            .and_then(|body| Ok(decode_server_event(body)?))
            .map_err(into_io_error)?;
        self.note_event(&event)?;
        Ok(event)
    }

    /// Receives the next server event, transparently surviving connection
    /// loss: on EOF, socket error, read timeout, or a corrupt frame, the
    /// client reconnects under its [`ReconnectPolicy`] and sends
    /// `Resume { token, last_seq }`; replayed frames the client already saw
    /// are deduplicated by sequence number.  When the server could not
    /// resume (park expired, replay gap), the new `Welcome` carries a
    /// different token — the delta tracker resets and the session continues
    /// as a fresh one.
    ///
    /// Requires [`connect_resumable`](TransportClient::connect_resumable);
    /// fails with [`TransportError::NotResumable`] otherwise.
    pub fn recv_event_resilient(&mut self) -> Result<ServerEvent, TransportError> {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Ok(event);
            }
            match self.read_server_frame() {
                Ok(ServerFrame::Welcome {
                    token,
                    epoch,
                    session,
                }) => self.adopt_welcome(token, epoch, session),
                Ok(ServerFrame::Event { seq, event }) => {
                    if matches!(event, ServerEvent::Busy) {
                        return Err(TransportError::Busy);
                    }
                    if let Some(event) = self.accept_event(seq, event)? {
                        return Ok(event);
                    }
                }
                Err(TransportError::Io(e)) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.reconnect()?,
            }
        }
    }

    /// Re-establishes the connection and resumes the session, applying the
    /// policy's backoff schedule.  Normally invoked internally by
    /// [`recv_event_resilient`](TransportClient::recv_event_resilient).
    pub fn reconnect(&mut self) -> Result<(), TransportError> {
        let Some(policy) = self.policy.clone() else {
            return Err(TransportError::NotResumable);
        };
        let (Some(peer), Some(token)) = (self.peer, self.token) else {
            return Err(TransportError::NotResumable);
        };
        let attempts = policy.max_retries.saturating_add(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt - 1));
            }
            let stream = match policy.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(&peer, timeout),
                None => TcpStream::connect(peer),
            };
            let Ok(stream) = stream else { continue };
            if stream.set_nodelay(true).is_err()
                || stream.set_read_timeout(policy.read_timeout).is_err()
            {
                continue;
            }
            self.stream = stream;
            self.inbuf = FrameBuffer::new();
            if self
                .send_frame(&ClientFrame::Resume {
                    token,
                    last_seq: self.last_seq,
                })
                .is_err()
            {
                continue;
            }
            // A Busy answer or any handshake failure burns this attempt;
            // the next one backs off further.
            if self.await_welcome().is_ok() {
                self.reconnects += 1;
                return Ok(());
            }
        }
        Err(TransportError::RetriesExhausted { attempts })
    }

    /// Reads frames until the server's `Welcome` arrives, buffering any
    /// events that race ahead of it (fresh sessions may be scheduled blocks
    /// before the server processes the `Hello`).
    fn await_welcome(&mut self) -> Result<(), TransportError> {
        loop {
            match self.read_server_frame()? {
                ServerFrame::Welcome {
                    token,
                    epoch,
                    session,
                } => {
                    self.adopt_welcome(token, epoch, session);
                    return Ok(());
                }
                ServerFrame::Event { seq, event } => {
                    if matches!(event, ServerEvent::Busy) {
                        return Err(TransportError::Busy);
                    }
                    if let Some(event) = self.accept_event(seq, event)? {
                        self.pending.push_back(event);
                    }
                }
            }
        }
    }

    /// Applies sequence-number deduplication and transport bookkeeping to a
    /// received event; `None` means the frame was replay overlap.
    fn accept_event(
        &mut self,
        seq: u64,
        event: ServerEvent,
    ) -> Result<Option<ServerEvent>, TransportError> {
        if seq != 0 {
            if seq <= self.last_seq {
                self.deduped_events += 1;
                return Ok(None);
            }
            self.last_seq = seq;
        }
        self.note_event(&event)?;
        Ok(Some(event))
    }

    /// Installs the server's `Welcome`.  A token different from the current
    /// one means server-side state did not survive: reset the delta tracker
    /// (the next upload ships in full) and restart sequence tracking.
    fn adopt_welcome(&mut self, token: u64, epoch: u64, session: SessionId) {
        if self.token != Some(token) {
            if self.token.is_some() {
                self.tracker.reset();
                self.last_seq = 0;
                self.fresh_sessions += 1;
            }
            self.token = Some(token);
        }
        self.epoch = epoch;
        self.session = Some(session);
    }

    /// Reads one complete [`ServerFrame`] off the socket.
    fn read_server_frame(&mut self) -> Result<ServerFrame, TransportError> {
        let body = self.read_frame()?;
        Ok(decode_server_frame(body)?)
    }

    /// The one read path: reads from the socket straight into the frame
    /// buffer until a complete frame is buffered, and returns its body.
    fn read_frame(&mut self) -> Result<&[u8], TransportError> {
        while !self.inbuf.has_frame()? {
            if self.inbuf.fill_from(&mut self.stream)? == 0 {
                return Err(TransportError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
        }
        // `has_frame` just held, so the empty fallback is never taken.
        Ok(self.inbuf.next_frame()?.unwrap_or_default())
    }

    fn note_event(&mut self, event: &ServerEvent) -> std::io::Result<()> {
        match event {
            ServerEvent::Resync { .. } => {
                self.resyncs_seen += 1;
                self.tracker.reset();
            }
            ServerEvent::Block { block, .. } => {
                if let Some(meter) = &mut self.meter {
                    let now = Time::from_micros(self.start.elapsed().as_micros() as u64);
                    if let Some(rate) = meter.on_receive(block.meta.size, now) {
                        self.send_frame(&ClientFrame::Message(ClientMessage::RateReport(rate)))?;
                    }
                }
            }
            ServerEvent::Idle | ServerEvent::Closed { .. } | ServerEvent::Busy => {}
        }
        Ok(())
    }

    fn send_frame(&mut self, frame: &ClientFrame) -> std::io::Result<u64> {
        let encoded = encode_client_frame(frame);
        self.stream.write_all(&encoded)?;
        self.uplink_bytes += encoded.len() as u64;
        Ok(encoded.len() as u64)
    }

    /// Total bytes this client has put on the uplink.
    pub fn uplink_bytes(&self) -> u64 {
        self.uplink_bytes
    }

    /// Prediction updates shipped as full summaries.
    pub fn full_updates(&self) -> u64 {
        self.full_updates
    }

    /// Prediction updates shipped as deltas.
    pub fn delta_updates(&self) -> u64 {
        self.delta_updates
    }

    /// Resync events received (each one forced the next update to be full).
    pub fn resyncs_seen(&self) -> u64 {
        self.resyncs_seen
    }

    /// The delta tracker's current generation.
    pub fn generation(&self) -> u64 {
        self.tracker.generation()
    }

    /// The resume token granted by the server, once the `Hello` handshake
    /// has completed.
    pub fn token(&self) -> Option<u64> {
        self.token
    }

    /// The resume epoch from the latest `Welcome` (0 for a fresh session,
    /// incremented by every successful resume).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The server-side session id from the latest `Welcome`.
    pub fn session_id(&self) -> Option<SessionId> {
        self.session
    }

    /// Highest sequence number accepted so far.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Successful reconnects performed by the resilient receive path.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Replayed frames dropped as duplicates after resumes.
    pub fn deduped_events(&self) -> u64 {
        self.deduped_events
    }

    /// Times a reconnect came back with a different token — the server had
    /// nothing to resume, so the session restarted fresh.
    pub fn fresh_sessions(&self) -> u64 {
        self.fresh_sessions
    }
}
