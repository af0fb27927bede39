//! The workspace's one value codec, and the length-prefixed framing built
//! on it.
//!
//! [`put_value`] / [`BinDecoder::value`] encode a [`Value`] bit-exactly
//! (floats keep their bits) in a compact binary form with no escaping and
//! no decimal parsing; [`put_call`] / [`BinDecoder::call`] do the same for
//! a [`GroundCall`]. Two users share them: the frames `hermes-serve` and
//! its clients exchange over TCP, and the answer-cache and statistics
//! files `hermes_cim::persist` and `hermes_dcsm::persist` write.
//!
//! ## Frame grammar
//!
//! Every frame on the socket is
//!
//! ```text
//! frame   := len:u32-LE  kind:u8  payload
//! ```
//!
//! where `len` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME_LEN`] (a malformed or hostile length fails fast instead of
//! allocating). Payloads are binary-encoded [`Value`]s:
//!
//! ```text
//! value   := 0x00                          (null)
//!          | 0x01 | 0x02                   (false | true)
//!          | 0x03 i64-LE                   (int)
//!          | 0x04 f64-bits-LE              (float)
//!          | 0x05 len:u32-LE bytes         (str, UTF-8)
//!          | 0x06 count:u32-LE value*      (list)
//!          | 0x07 count:u32-LE (str value)* (record; str as in 0x05)
//! call    := str str count:u32-LE value*  (domain, function, args;
//!                                          str as in 0x05, untagged)
//! ```
//!
//! Nesting is bounded by [`MAX_DEPTH`]; every decode path returns a
//! structured [`HermesError::Io`] — never a panic, never silent
//! acceptance of trailing garbage.
//!
//! ## Frames
//!
//! Client → server: [`Frame::Query`] (source text plus per-run options),
//! [`Frame::Stats`] (the admin frame), [`Frame::Ping`], [`Frame::Shutdown`]
//! (graceful drain). Server → client: zero or more [`Frame::Batch`]es of
//! answer rows followed by one [`Frame::Done`], or one [`Frame::Error`];
//! [`Frame::StatsReply`], [`Frame::Pong`]. The error frame round-trips
//! [`HermesError`] well enough for clients to distinguish shed queries
//! (backpressure) from deadline aborts from real failures.

// Frames arrive from untrusted sockets: decoding must never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::call::GroundCall;
use crate::error::{HermesError, Result};
use crate::value::{Record, Value};
use std::io::{Read, Write};

/// Hard cap on one frame's body (kind byte + payload): 64 MiB.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Maximum value-nesting depth a decoder will follow.
pub const MAX_DEPTH: usize = 64;

// ---------- binary value codec ----------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_LIST: u8 = 0x06;
const TAG_RECORD: u8 = 0x07;

fn put_u32(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n.min(u32::MAX as usize) as u32).to_le_bytes());
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_u32(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one value onto `out` in the binary framing codec.
pub fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(s, out);
        }
        Value::List(vs) => {
            out.push(TAG_LIST);
            put_u32(vs.len(), out);
            for v in vs {
                put_value(v, out);
            }
        }
        Value::Record(r) => {
            out.push(TAG_RECORD);
            put_u32(r.len(), out);
            for (name, v) in r.iter() {
                put_str(name, out);
                put_value(v, out);
            }
        }
    }
}

/// Encodes a ground call onto `out`: domain, function, then the arguments.
pub fn put_call(c: &GroundCall, out: &mut Vec<u8>) {
    put_str(&c.domain, out);
    put_str(&c.function, out);
    put_u32(c.args.len(), out);
    for a in c.args.iter() {
        put_value(a, out);
    }
}

/// A bounds-checked cursor over encoded bytes (a frame payload or a
/// persisted cache file).
pub struct BinDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinDecoder<'a> {
    /// Starts decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BinDecoder { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn err(&self, msg: impl Into<String>) -> HermesError {
        HermesError::Io(format!(
            "decode error at byte {}/{}: {}",
            self.pos,
            self.buf.len(),
            msg.into()
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err(format!("needed {n} bytes")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<usize> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|e| self.err(format!("invalid UTF-8: {e}")))
    }

    /// Decodes one value (depth-bounded).
    pub fn value(&mut self) -> Result<Value> {
        self.value_at(0)
    }

    /// Decodes one ground call written by [`put_call`].
    pub fn call(&mut self) -> Result<GroundCall> {
        let domain = self.str()?;
        let function = self.str()?;
        let n = self.u32()?;
        let mut args = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            args.push(self.value()?);
        }
        Ok(GroundCall::new(domain, function, args))
    }

    fn value_at(&mut self, depth: usize) -> Result<Value> {
        if depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => {
                let b = self.take(8)?;
                let mut raw = [0u8; 8];
                raw.copy_from_slice(b);
                Ok(Value::Int(i64::from_le_bytes(raw)))
            }
            TAG_FLOAT => {
                let b = self.take(8)?;
                let mut raw = [0u8; 8];
                raw.copy_from_slice(b);
                Ok(Value::Float(f64::from_bits(u64::from_le_bytes(raw))))
            }
            TAG_STR => Ok(Value::str(self.str()?)),
            TAG_LIST => {
                let n = self.u32()?;
                // A hostile count cannot out-allocate the actual payload:
                // each element costs at least one byte on the wire.
                let mut items = Vec::with_capacity(n.min(self.buf.len() - self.pos));
                for _ in 0..n {
                    items.push(self.value_at(depth + 1)?);
                }
                Ok(Value::List(items))
            }
            TAG_RECORD => {
                let n = self.u32()?;
                let mut rec = Record::new();
                for _ in 0..n {
                    let name = self.str()?.to_string();
                    let v = self.value_at(depth + 1)?;
                    rec.push(name, v);
                }
                Ok(Value::Record(rec))
            }
            other => Err(self.err(format!("unknown value tag 0x{other:02x}"))),
        }
    }
}

/// Encodes a value to fresh bytes.
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    put_value(v, &mut out);
    out
}

/// Decodes a value from a complete buffer, rejecting trailing bytes.
pub fn value_from_bytes(buf: &[u8]) -> Result<Value> {
    let mut d = BinDecoder::new(buf);
    let v = d.value()?;
    if !d.is_done() {
        return Err(HermesError::Io("trailing bytes after framed value".into()));
    }
    Ok(v)
}

// ---------- typed frames ----------

const KIND_QUERY: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_PING: u8 = 0x03;
const KIND_SHUTDOWN: u8 = 0x04;
const KIND_BATCH: u8 = 0x10;
const KIND_DONE: u8 = 0x11;
const KIND_ERROR: u8 = 0x12;
const KIND_STATS_REPLY: u8 = 0x13;
const KIND_PONG: u8 = 0x14;

/// One query and its per-run options, as sent on the wire. Durations are
/// microseconds of *real* time — `hermes-serve` runs queries on the wall
/// clock, so a client deadline is a wall deadline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryFrame {
    /// Query source text (`?- item(A, B).`).
    pub src: String,
    /// Stop after this many answers.
    pub limit: Option<u64>,
    /// Per-query deadline in microseconds (abort past it, partial answers).
    pub deadline_us: Option<u64>,
    /// Per-query budget in microseconds (fail-soft tier downgrade).
    pub budget_us: Option<u64>,
    /// Pinned plan tier (`cache-only` | `cached-cheap` | `full`).
    pub tier: Option<String>,
    /// Collect and return a rendered execution trace.
    pub trace: bool,
}

impl QueryFrame {
    /// A query frame with every option at its default.
    pub fn new(src: impl Into<String>) -> Self {
        QueryFrame {
            src: src.into(),
            ..QueryFrame::default()
        }
    }
}

/// Terminates a successful query response, after zero or more batches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DoneFrame {
    /// Answer-column names, in output order.
    pub columns: Vec<String>,
    /// Total rows sent across the preceding batches.
    pub rows: u64,
    /// True when any subgoal's answers may be incomplete.
    pub incomplete: bool,
    /// Server-side wall-clock time spent on this query, microseconds.
    pub elapsed_us: u64,
    /// Source round trips the query actually paid for.
    pub source_calls: u64,
    /// Answers served from the cache hierarchy (CIM hits of any kind).
    pub cache_hits: u64,
    /// Mid-execution fail-soft tier downgrades.
    pub tier_downgrades: u64,
    /// Rendered trace lines (empty unless the query asked for a trace).
    pub trace: Vec<String>,
}

/// A failed query (or a refused frame), with a stable machine-readable
/// code so clients can count sheds separately from real errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Stable code: `shed`, `deadline`, `unavailable`, `parse`, `plan`,
    /// `analysis`, `eval`, `io`, `bad-frame`, ...
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl ErrorFrame {
    /// Maps a mediator error onto the wire, preserving the class.
    pub fn from_error(e: &HermesError) -> Self {
        // A shed carries its raw machine reason so the client-side
        // round trip reconstructs `Shed { reason }` exactly — retry
        // logic keys on the reason, not on display text.
        if let HermesError::Shed { reason } = e {
            return ErrorFrame {
                code: "shed".into(),
                message: reason.clone(),
            };
        }
        let code = match e {
            HermesError::Shed { .. } => "shed",
            HermesError::DeadlineExceeded { .. } => "deadline",
            HermesError::Unavailable { .. } => "unavailable",
            HermesError::Parse { .. } => "parse",
            HermesError::Plan(_) => "plan",
            HermesError::Analysis { .. } => "analysis",
            HermesError::UnknownDomain(_)
            | HermesError::UnknownFunction { .. }
            | HermesError::BadArity { .. }
            | HermesError::BadBinding { .. }
            | HermesError::Type(_)
            | HermesError::Eval(_) => "eval",
            HermesError::Io(_) => "io",
        };
        ErrorFrame {
            code: code.into(),
            message: e.to_string(),
        }
    }

    /// The client-side error a received frame surfaces as. A shed stays a
    /// [`HermesError::Shed`] so retry/backoff logic treats it correctly.
    pub fn into_error(self) -> HermesError {
        match self.code.as_str() {
            "shed" => HermesError::Shed {
                reason: self.message,
            },
            _ => HermesError::Eval(format!("server error [{}]: {}", self.code, self.message)),
        }
    }
}

/// One frame on the socket.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: run a query.
    Query(QueryFrame),
    /// Client → server: the admin frame — reply with a
    /// [`Frame::StatsReply`] snapshot of `ServerStats` + `CacheSnapshot`.
    Stats,
    /// Client → server: liveness probe.
    Ping,
    /// Client → server: stop accepting, drain in-flight work, exit.
    Shutdown,
    /// Server → client: one batch of answer rows.
    Batch(Vec<Vec<Value>>),
    /// Server → client: the query finished; summary and counters.
    Done(DoneFrame),
    /// Server → client: the query (or frame) failed.
    Error(ErrorFrame),
    /// Server → client: the stats snapshot, as a record value.
    StatsReply(Value),
    /// Server → client: liveness reply.
    Pong,
}

fn opt_u64(v: Option<u64>) -> Value {
    match v {
        Some(n) => Value::Int(n.min(i64::MAX as u64) as i64),
        None => Value::Null,
    }
}

fn opt_str(v: &Option<String>) -> Value {
    match v {
        Some(s) => Value::str(s.as_str()),
        None => Value::Null,
    }
}

fn field_u64(rec: &Record, name: &str) -> Option<u64> {
    match rec.get(name) {
        Some(Value::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn field_str(rec: &Record, name: &str) -> Option<String> {
    match rec.get(name) {
        Some(Value::Str(s)) => Some(s.to_string()),
        _ => None,
    }
}

fn field_bool(rec: &Record, name: &str) -> bool {
    matches!(rec.get(name), Some(Value::Bool(true)))
}

impl Frame {
    /// This frame's kind byte.
    fn kind(&self) -> u8 {
        match self {
            Frame::Query(_) => KIND_QUERY,
            Frame::Stats => KIND_STATS,
            Frame::Ping => KIND_PING,
            Frame::Shutdown => KIND_SHUTDOWN,
            Frame::Batch(_) => KIND_BATCH,
            Frame::Done(_) => KIND_DONE,
            Frame::Error(_) => KIND_ERROR,
            Frame::StatsReply(_) => KIND_STATS_REPLY,
            Frame::Pong => KIND_PONG,
        }
    }

    /// The payload as a value (frames with empty payloads return `None`).
    fn payload(&self) -> Option<Value> {
        match self {
            Frame::Stats | Frame::Ping | Frame::Shutdown | Frame::Pong => None,
            Frame::Query(q) => {
                let mut rec = Record::new();
                rec.push("src", Value::str(q.src.as_str()));
                rec.push("limit", opt_u64(q.limit));
                rec.push("deadline_us", opt_u64(q.deadline_us));
                rec.push("budget_us", opt_u64(q.budget_us));
                rec.push("tier", opt_str(&q.tier));
                rec.push("trace", Value::Bool(q.trace));
                Some(Value::Record(rec))
            }
            Frame::Batch(rows) => Some(Value::List(
                rows.iter().map(|r| Value::List(r.clone())).collect(),
            )),
            Frame::Done(d) => {
                let mut rec = Record::new();
                rec.push(
                    "columns",
                    Value::List(d.columns.iter().map(|c| Value::str(c.as_str())).collect()),
                );
                rec.push("rows", opt_u64(Some(d.rows)));
                rec.push("incomplete", Value::Bool(d.incomplete));
                rec.push("elapsed_us", opt_u64(Some(d.elapsed_us)));
                rec.push("source_calls", opt_u64(Some(d.source_calls)));
                rec.push("cache_hits", opt_u64(Some(d.cache_hits)));
                rec.push("tier_downgrades", opt_u64(Some(d.tier_downgrades)));
                rec.push(
                    "trace",
                    Value::List(d.trace.iter().map(|l| Value::str(l.as_str())).collect()),
                );
                Some(Value::Record(rec))
            }
            Frame::Error(e) => {
                let mut rec = Record::new();
                rec.push("code", Value::str(e.code.as_str()));
                rec.push("message", Value::str(e.message.as_str()));
                Some(Value::Record(rec))
            }
            Frame::StatsReply(v) => Some(v.clone()),
        }
    }

    /// Encodes the complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = vec![self.kind()];
        if let Some(v) = self.payload() {
            put_value(&v, &mut body);
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(body.len(), &mut out);
        out.extend_from_slice(&body);
        out
    }

    /// Writes the complete frame to `w` (no flush).
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Reads one frame from `r`. Returns `Ok(None)` on clean EOF (the
    /// peer closed between frames); anything else malformed is an error.
    ///
    /// This is the blocking face of [`FrameDecoder`]: it reads exactly the
    /// bytes the decoder asks for (never over-reading into the next
    /// frame), so it composes with unbuffered streams.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>> {
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = decoder.next_frame()? {
                return Ok(Some(frame));
            }
            // Ask for exactly what the next frame still needs: the header
            // remainder, then the body remainder.
            let want = decoder.needed().min(chunk.len());
            let mut got = 0;
            while got < want {
                match r.read(&mut chunk[got..want]) {
                    Ok(0) if got == 0 && !decoder.mid_frame() => return Ok(None),
                    Ok(0) => {
                        return Err(HermesError::Io("connection closed mid-frame".to_string()))
                    }
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            decoder.feed(&chunk[..got]);
        }
    }

    /// Decodes a frame body (kind byte + payload, no length prefix).
    pub fn decode_body(body: &[u8]) -> Result<Frame> {
        let (&kind, payload) = body
            .split_first()
            .ok_or_else(|| HermesError::Io("empty frame body".into()))?;
        let bare = |frame: Frame| {
            if payload.is_empty() {
                Ok(frame)
            } else {
                Err(HermesError::Io(format!(
                    "frame kind 0x{kind:02x} carries {} unexpected payload byte(s)",
                    payload.len()
                )))
            }
        };
        match kind {
            KIND_STATS => bare(Frame::Stats),
            KIND_PING => bare(Frame::Ping),
            KIND_SHUTDOWN => bare(Frame::Shutdown),
            KIND_PONG => bare(Frame::Pong),
            KIND_QUERY => {
                let rec = expect_record(payload)?;
                Some(())
                    .and_then(|_| {
                        Some(Frame::Query(QueryFrame {
                            src: field_str(&rec, "src")?,
                            limit: field_u64(&rec, "limit"),
                            deadline_us: field_u64(&rec, "deadline_us"),
                            budget_us: field_u64(&rec, "budget_us"),
                            tier: field_str(&rec, "tier"),
                            trace: field_bool(&rec, "trace"),
                        }))
                    })
                    .ok_or_else(|| HermesError::Io("query frame missing `src`".into()))
            }
            KIND_BATCH => {
                let Value::List(rows) = value_from_bytes(payload)? else {
                    return Err(HermesError::Io("batch frame payload is not a list".into()));
                };
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let Value::List(cells) = row else {
                        return Err(HermesError::Io("batch row is not a list".into()));
                    };
                    out.push(cells);
                }
                Ok(Frame::Batch(out))
            }
            KIND_DONE => {
                let rec = expect_record(payload)?;
                let columns = match rec.get("columns") {
                    Some(Value::List(cs)) => cs
                        .iter()
                        .map(|c| match c {
                            Value::Str(s) => Ok(s.to_string()),
                            _ => Err(HermesError::Io("done column is not a string".into())),
                        })
                        .collect::<Result<Vec<_>>>()?,
                    _ => Vec::new(),
                };
                let trace = match rec.get("trace") {
                    Some(Value::List(ls)) => ls
                        .iter()
                        .filter_map(|l| match l {
                            Value::Str(s) => Some(s.to_string()),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(Frame::Done(DoneFrame {
                    columns,
                    rows: field_u64(&rec, "rows").unwrap_or(0),
                    incomplete: field_bool(&rec, "incomplete"),
                    elapsed_us: field_u64(&rec, "elapsed_us").unwrap_or(0),
                    source_calls: field_u64(&rec, "source_calls").unwrap_or(0),
                    cache_hits: field_u64(&rec, "cache_hits").unwrap_or(0),
                    tier_downgrades: field_u64(&rec, "tier_downgrades").unwrap_or(0),
                    trace,
                }))
            }
            KIND_ERROR => {
                let rec = expect_record(payload)?;
                Ok(Frame::Error(ErrorFrame {
                    code: field_str(&rec, "code")
                        .ok_or_else(|| HermesError::Io("error frame missing `code`".into()))?,
                    message: field_str(&rec, "message").unwrap_or_default(),
                }))
            }
            KIND_STATS_REPLY => Ok(Frame::StatsReply(value_from_bytes(payload)?)),
            other => Err(HermesError::Io(format!("unknown frame kind 0x{other:02x}"))),
        }
    }
}

/// An incremental frame decoder: feed it arbitrary byte chunks as they
/// arrive off a socket and pull complete frames out, with no blocking
/// and no alignment requirements — a frame may arrive one byte at a
/// time or many frames in one chunk.
///
/// Both serving paths share it: the epoll reactor feeds it from
/// nonblocking reads, and [`Frame::read_from`] drives it with exact
/// blocking reads. The length-prefix validation (zero-length frames,
/// the [`MAX_FRAME_LEN`] cap) fails *as soon as the header is visible*,
/// before any body byte is buffered, so a hostile length can never make
/// the decoder allocate.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: the consumed prefix is dead weight.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when a frame has started arriving but is not yet complete —
    /// the signal a read-deadline (slow-loris) check keys on.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// How many more bytes the decoder needs before [`next_frame`]
    /// *could* yield (never 0): the rest of the 4-byte header, then the
    /// rest of the announced body. Blocking callers use this to read
    /// exactly one frame without over-reading.
    ///
    /// [`next_frame`]: FrameDecoder::next_frame
    pub fn needed(&self) -> usize {
        let have = self.buffered();
        if have < 4 {
            return 4 - have;
        }
        let len = self.peek_len() as usize;
        // An invalid length errors on the next `next_frame` call; claim
        // one byte so callers keep making progress toward that error.
        (4 + len).saturating_sub(have).max(1)
    }

    fn peek_len(&self) -> u32 {
        let b = &self.buf[self.pos..self.pos + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Decodes the next complete frame, if one is fully buffered.
    /// `Ok(None)` means "feed me more bytes"; an error means the stream
    /// is corrupt and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let len = self.peek_len();
        if len == 0 {
            return Err(HermesError::Io("zero-length frame".into()));
        }
        if len > MAX_FRAME_LEN {
            return Err(HermesError::Io(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
            )));
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            return Ok(None);
        }
        let body_start = self.pos + 4;
        let frame = Frame::decode_body(&self.buf[body_start..self.pos + total])?;
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(frame))
    }
}

fn expect_record(payload: &[u8]) -> Result<Record> {
    match value_from_bytes(payload)? {
        Value::Record(rec) => Ok(rec),
        other => Err(HermesError::Io(format!(
            "frame payload is not a record (got {other:?})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) {
        let bytes = value_to_bytes(v);
        let back = value_from_bytes(&bytes).unwrap();
        assert_eq!(&back, v, "via {bytes:?}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip_value(&Value::Null);
        roundtrip_value(&Value::Bool(true));
        roundtrip_value(&Value::Bool(false));
        roundtrip_value(&Value::Int(i64::MIN));
        roundtrip_value(&Value::Int(i64::MAX));
        roundtrip_value(&Value::Float(-13.75));
        roundtrip_value(&Value::Float(f64::INFINITY));
        roundtrip_value(&Value::str(""));
        roundtrip_value(&Value::str("ünïcödé — héllo\nline2"));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let rec = Value::Record(Record::from_fields([
            ("name", Value::str("stewart")),
            ("frames", Value::List(vec![Value::Int(40), Value::Int(935)])),
        ]));
        roundtrip_value(&Value::List(vec![rec.clone(), Value::Null, rec]));
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let mut v = Value::Int(1);
        for _ in 0..(MAX_DEPTH + 4) {
            v = Value::List(vec![v]);
        }
        let bytes = value_to_bytes(&v);
        let err = value_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn truncated_and_trailing_inputs_error_cleanly() {
        let bytes = value_to_bytes(&Value::str("hello"));
        for cut in 0..bytes.len() {
            assert!(value_from_bytes(&bytes[..cut]).is_err(), "accepted {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0x00);
        assert!(value_from_bytes(&extended).is_err());
        // A hostile list count larger than the buffer fails, not OOMs.
        let mut hostile = vec![TAG_LIST];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(value_from_bytes(&hostile).is_err());
    }

    fn roundtrip_frame(f: Frame) {
        let bytes = f.encode();
        let mut cursor = std::io::Cursor::new(bytes);
        let back = Frame::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(back, f);
        assert!(Frame::read_from(&mut cursor).unwrap().is_none(), "EOF next");
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip_frame(Frame::Query(QueryFrame {
            src: "?- item(A, B).".into(),
            limit: Some(5),
            deadline_us: Some(250_000),
            budget_us: None,
            tier: Some("cached-cheap".into()),
            trace: true,
        }));
        roundtrip_frame(Frame::Query(QueryFrame::new("?- q(A).")));
        roundtrip_frame(Frame::Stats);
        roundtrip_frame(Frame::Ping);
        roundtrip_frame(Frame::Shutdown);
        roundtrip_frame(Frame::Pong);
        roundtrip_frame(Frame::Batch(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::Null],
        ]));
        roundtrip_frame(Frame::Done(DoneFrame {
            columns: vec!["A".into(), "B".into()],
            rows: 2,
            incomplete: true,
            elapsed_us: 1234,
            source_calls: 3,
            cache_hits: 7,
            tier_downgrades: 1,
            trace: vec!["t+0.000ms call d:p_bf".into()],
        }));
        roundtrip_frame(Frame::Error(ErrorFrame {
            code: "shed".into(),
            message: "gate-full".into(),
        }));
        roundtrip_frame(Frame::StatsReply(Value::Record(Record::from_fields([
            ("queries", Value::Int(12)),
            ("shed", Value::Int(2)),
        ]))));
    }

    #[test]
    fn consecutive_frames_stream() {
        let mut bytes = Frame::Ping.encode();
        bytes.extend(Frame::Stats.encode());
        bytes.extend(Frame::Pong.encode());
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Ping));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Stats));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Pong));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        // Zero length.
        let mut cursor = std::io::Cursor::new(vec![0, 0, 0, 0]);
        assert!(Frame::read_from(&mut cursor).is_err());
        // Oversized length.
        let mut cursor = std::io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert!(Frame::read_from(&mut cursor).is_err());
        // Truncated mid-header and mid-body.
        let full = Frame::Query(QueryFrame::new("?- q(A).")).encode();
        for cut in 1..full.len() {
            let mut cursor = std::io::Cursor::new(full[..cut].to_vec());
            assert!(Frame::read_from(&mut cursor).is_err(), "accepted cut {cut}");
        }
        // Unknown kind; bare kind with unexpected payload; bad payloads.
        assert!(Frame::decode_body(&[0xEE]).is_err());
        assert!(Frame::decode_body(&[KIND_PING, 0x00]).is_err());
        assert!(Frame::decode_body(&[KIND_QUERY, TAG_NULL]).is_err());
        assert!(Frame::decode_body(&[KIND_BATCH, TAG_INT]).is_err());
        assert!(Frame::decode_body(&[]).is_err());
    }

    /// The frame corpus shared by the incremental-decoder properties:
    /// every kind, including empty-payload and multi-batch shapes.
    fn corpus() -> Vec<Frame> {
        vec![
            Frame::Query(QueryFrame {
                src: "?- item(A, B).".into(),
                limit: Some(5),
                deadline_us: Some(250_000),
                budget_us: Some(100_000),
                tier: Some("full".into()),
                trace: true,
            }),
            Frame::Query(QueryFrame::new("?- q(A).")),
            Frame::Stats,
            Frame::Ping,
            Frame::Shutdown,
            Frame::Pong,
            Frame::Batch(vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::Null],
                vec![Value::Float(2.5), Value::Bool(true)],
            ]),
            Frame::Batch(Vec::new()),
            Frame::Done(DoneFrame {
                columns: vec!["A".into()],
                rows: 3,
                incomplete: true,
                elapsed_us: 1234,
                source_calls: 3,
                cache_hits: 7,
                tier_downgrades: 1,
                trace: vec!["t+0.000ms call d:p_bf".into()],
            }),
            Frame::Error(ErrorFrame {
                code: "shed".into(),
                message: "pipeline-full".into(),
            }),
            Frame::StatsReply(Value::Record(Record::from_fields([
                ("queries", Value::Int(12)),
                ("shed", Value::Int(2)),
            ]))),
        ]
    }

    /// Feeds `bytes` to a fresh decoder in the chunks `splits` describes
    /// and returns every frame decoded.
    fn decode_chunked(bytes: &[u8], chunks: impl Iterator<Item = usize>) -> Vec<Frame> {
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        let mut pos = 0;
        for n in chunks {
            if pos == bytes.len() {
                break;
            }
            let end = (pos + n).min(bytes.len());
            decoder.feed(&bytes[pos..end]);
            pos = end;
            while let Some(f) = decoder.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(pos, bytes.len(), "whole stream consumed");
        assert!(!decoder.mid_frame(), "no partial frame left over");
        out
    }

    #[test]
    fn incremental_decode_is_split_invariant() {
        // Every corpus frame, split at every byte boundary: the decode
        // must be identical to the whole-buffer decode.
        for frame in corpus() {
            let bytes = frame.encode();
            for cut in 0..=bytes.len() {
                let got = decode_chunked(&bytes, [cut, bytes.len() - cut].into_iter());
                assert_eq!(got, vec![frame.clone()], "split at {cut}");
            }
            // And one byte at a time.
            let got = decode_chunked(&bytes, std::iter::repeat_n(1, bytes.len()));
            assert_eq!(got, vec![frame.clone()]);
        }
    }

    #[test]
    fn incremental_decode_handles_concatenated_streams() {
        let frames = corpus();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend(f.encode());
        }
        // One giant chunk.
        assert_eq!(
            decode_chunked(&bytes, [bytes.len()].into_iter()),
            frames,
            "single chunk"
        );
        // Byte-by-byte.
        assert_eq!(
            decode_chunked(&bytes, std::iter::repeat_n(1, bytes.len())),
            frames,
            "byte-by-byte"
        );
        // Deterministic ragged chunking at every phase offset.
        for phase in 0..7usize {
            let sizes = (0..).map(|i| 1 + (i + phase) % 13);
            assert_eq!(decode_chunked(&bytes, sizes), frames, "phase {phase}");
        }
    }

    #[test]
    fn incremental_decoder_fails_closed_on_bad_lengths() {
        // Zero length: rejected the moment the header is visible.
        let mut d = FrameDecoder::new();
        d.feed(&[0, 0, 0, 0]);
        assert!(d.next_frame().is_err());
        // Oversized length: rejected before any body byte is buffered.
        let mut d = FrameDecoder::new();
        d.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(d.next_frame().is_err());
        // A corrupt body is an error, not a silent skip.
        let mut d = FrameDecoder::new();
        d.feed(&[1, 0, 0, 0, 0xEE]);
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn incremental_decoder_reports_progress_needs() {
        let frame = Frame::Query(QueryFrame::new("?- q(A)."));
        let bytes = frame.encode();
        let mut d = FrameDecoder::new();
        assert_eq!(d.needed(), 4, "empty decoder wants a header");
        assert!(!d.mid_frame());
        d.feed(&bytes[..1]);
        assert_eq!(d.needed(), 3);
        assert!(d.mid_frame(), "one header byte is a started frame");
        d.feed(&bytes[1..4]);
        assert_eq!(d.needed(), bytes.len() - 4, "header announces the body");
        d.feed(&bytes[4..]);
        assert_eq!(d.next_frame().unwrap(), Some(frame));
        assert!(!d.mid_frame());
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn error_frame_maps_errors_both_ways() {
        let shed = HermesError::Shed {
            reason: "gate-full".into(),
        };
        let frame = ErrorFrame::from_error(&shed);
        assert_eq!(frame.code, "shed");
        assert!(matches!(frame.into_error(), HermesError::Shed { .. }));
        let deadline = HermesError::DeadlineExceeded {
            deadline: crate::SimDuration::from_millis(10),
            elapsed: crate::SimDuration::from_millis(25),
        };
        assert_eq!(ErrorFrame::from_error(&deadline).code, "deadline");
    }
}
