//! The halo-exchange wire protocol (DESIGN.md §13).
//!
//! A cluster run replaces the shared in-memory assignment board with
//! framed messages over TCP sockets between one coordinator and `N`
//! shard workers. Every frame is:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SYW1"
//! 4       4     payload length in bytes (u32 LE)
//! 8       4     CRC-32/IEEE of the payload (u32 LE)
//! 12      …     payload: tag byte + hand-rolled LE body
//! ```
//!
//! The CRC (shared with the checkpoint format, [`sya_ckpt::crc32`])
//! means a torn write, truncation, or bit flip anywhere in a frame
//! surfaces as a typed [`WireError::Corrupt`] — never a panic, never a
//! silently-accepted wrong value. The length field is bounded by
//! [`MAX_FRAME_BYTES`] before any allocation, so a corrupted header
//! cannot become an allocation bomb.
//!
//! Read deadlines are the supervisor's heartbeat: a socket read that
//! trips its timeout maps to [`WireError::Timeout`], a cleanly closed
//! peer to [`WireError::Closed`]; the coordinator treats both as a
//! worker failure and the worker treats both as coordinator loss.

use std::io::{Read, Write};
use sya_ckpt::crc32;

/// Frame magic: identifies the Sya wire protocol, version 1.
pub const WIRE_MAGIC: [u8; 4] = *b"SYW1";

/// Upper bound on a frame payload. A grounded KB shard's full write set
/// is ~8 bytes per variable; 64 MiB covers millions of variables per
/// phase with room to spare, while keeping a corrupted length field
/// from driving a huge allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Header size: magic + length + CRC.
pub const FRAME_HEADER_LEN: usize = 12;

/// Typed failures of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A read deadline fired — the peer is stalled or partitioned.
    Timeout,
    /// The bytes on the wire are not a valid frame: bad magic, oversized
    /// or truncated payload, CRC mismatch, unknown tag, malformed body.
    Corrupt(String),
    /// Socket-level failure other than a timeout.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => f.write_str("connection closed by peer"),
            WireError::Timeout => f.write_str("read deadline exceeded"),
            WireError::Corrupt(detail) => write!(f, "corrupt frame: {detail}"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout,
            _ => WireError::Io(e),
        }
    }
}

/// The protocol messages. Coordinator → worker: `Welcome`, `Halo`,
/// `Proceed`, `Rollback`, `ShardLost`, `Stop`, `Ping`. Worker →
/// coordinator: `Hello`, `Publish`, `EpochEnd`, `Telemetry`, `Done`,
/// `Pong`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker introduction (also the re-rendezvous after a rollback):
    /// identity, the graph fingerprint it grounded, and the epochs of
    /// every locally valid checkpoint it could resume from.
    Hello { shard: u32, of: u32, fingerprint: u64, epochs: Vec<u64> },
    /// Coordinator's rendezvous decision: the epoch every worker starts
    /// (or resumes) from, the total epoch budget, and the run ID every
    /// worker stamps into its traces so cross-process timelines stitch.
    Welcome { start_epoch: u64, epochs_total: u64, run_id: u64 },
    /// A worker's buffered writes for one phase of one epoch.
    Publish { epoch: u64, phase: u32, writes: Vec<(u32, u32)> },
    /// The merged write set of a phase, broadcast to every worker.
    Halo { epoch: u64, phase: u32, writes: Vec<(u32, u32)> },
    /// A worker finished an epoch.
    EpochEnd { epoch: u64 },
    /// Coordinator's end-of-epoch verdict: keep going (`stop == None`)
    /// or wrap up with the encoded [`RunOutcome`](sya_runtime::RunOutcome).
    Proceed { stop: Option<u8> },
    /// Abandon the current epoch and return to the rendezvous: re-send
    /// `Hello` with a fresh checkpoint-epoch list.
    Rollback,
    /// Informational: a shard exhausted its restart budget; its last
    /// published halo values are frozen from here on.
    ShardLost { shard: u32 },
    /// A worker's final report (JSON payload: stats, counts, series).
    Done { report: Vec<u8> },
    /// A worker's per-epoch observability shipment (JSON payload: a
    /// metrics snapshot plus the convergence series so far). Purely
    /// informational: the coordinator aggregates it into the fleet view
    /// but never gates lockstep progress on it.
    Telemetry { shard: u32, epoch: u64, payload: Vec<u8> },
    /// Terminate immediately; no `Done` expected.
    Stop { outcome: u8 },
    Ping { nonce: u64 },
    Pong { nonce: u64 },
}

impl Frame {
    /// Short name for logs and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Welcome { .. } => "Welcome",
            Frame::Publish { .. } => "Publish",
            Frame::Halo { .. } => "Halo",
            Frame::EpochEnd { .. } => "EpochEnd",
            Frame::Proceed { .. } => "Proceed",
            Frame::Rollback => "Rollback",
            Frame::ShardLost { .. } => "ShardLost",
            Frame::Done { .. } => "Done",
            Frame::Telemetry { .. } => "Telemetry",
            Frame::Stop { .. } => "Stop",
            Frame::Ping { .. } => "Ping",
            Frame::Pong { .. } => "Pong",
        }
    }
}

// Tag bytes. Gaps are corrupt, not reserved: decode rejects anything
// this build does not know.
const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_PUBLISH: u8 = 3;
const TAG_HALO: u8 = 4;
const TAG_EPOCH_END: u8 = 5;
const TAG_PROCEED: u8 = 6;
const TAG_ROLLBACK: u8 = 7;
const TAG_SHARD_LOST: u8 = 8;
const TAG_DONE: u8 = 9;
const TAG_STOP: u8 = 10;
const TAG_PING: u8 = 11;
const TAG_PONG: u8 = 12;
const TAG_TELEMETRY: u8 = 13;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounded little-endian reader over a frame payload.
struct Rd<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Rd { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Corrupt(format!(
                "body truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `count` entries of `entry_bytes` each must still fit in the
    /// payload — the pre-allocation guard against a corrupt count.
    fn check_count(&self, count: usize, entry_bytes: usize) -> Result<(), WireError> {
        if count.saturating_mul(entry_bytes) > self.remaining() {
            return Err(WireError::Corrupt(format!(
                "count {count} × {entry_bytes}B exceeds the {} bytes left in the frame",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Encodes a frame's payload (tag + body), without the header.
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match frame {
        Frame::Hello { shard, of, fingerprint, epochs } => {
            out.push(TAG_HELLO);
            put_u32(&mut out, *shard);
            put_u32(&mut out, *of);
            put_u64(&mut out, *fingerprint);
            put_u32(&mut out, epochs.len() as u32);
            for &e in epochs {
                put_u64(&mut out, e);
            }
        }
        Frame::Welcome { start_epoch, epochs_total, run_id } => {
            out.push(TAG_WELCOME);
            put_u64(&mut out, *start_epoch);
            put_u64(&mut out, *epochs_total);
            put_u64(&mut out, *run_id);
        }
        Frame::Publish { epoch, phase, writes } | Frame::Halo { epoch, phase, writes } => {
            out.push(if matches!(frame, Frame::Publish { .. }) { TAG_PUBLISH } else { TAG_HALO });
            put_u64(&mut out, *epoch);
            put_u32(&mut out, *phase);
            put_u32(&mut out, writes.len() as u32);
            for &(v, x) in writes {
                put_u32(&mut out, v);
                put_u32(&mut out, x);
            }
        }
        Frame::EpochEnd { epoch } => {
            out.push(TAG_EPOCH_END);
            put_u64(&mut out, *epoch);
        }
        Frame::Proceed { stop } => {
            out.push(TAG_PROCEED);
            match stop {
                None => out.push(0),
                Some(code) => {
                    out.push(1);
                    out.push(*code);
                }
            }
        }
        Frame::Rollback => out.push(TAG_ROLLBACK),
        Frame::ShardLost { shard } => {
            out.push(TAG_SHARD_LOST);
            put_u32(&mut out, *shard);
        }
        Frame::Done { report } => {
            out.push(TAG_DONE);
            put_u32(&mut out, report.len() as u32);
            out.extend_from_slice(report);
        }
        Frame::Telemetry { shard, epoch, payload } => {
            out.push(TAG_TELEMETRY);
            put_u32(&mut out, *shard);
            put_u64(&mut out, *epoch);
            put_u32(&mut out, payload.len() as u32);
            out.extend_from_slice(payload);
        }
        Frame::Stop { outcome } => {
            out.push(TAG_STOP);
            out.push(*outcome);
        }
        Frame::Ping { nonce } => {
            out.push(TAG_PING);
            put_u64(&mut out, *nonce);
        }
        Frame::Pong { nonce } => {
            out.push(TAG_PONG);
            put_u64(&mut out, *nonce);
        }
    }
    out
}

/// Decodes a frame payload (tag + body). Every malformation — unknown
/// tag, truncated body, oversized count, trailing bytes — is a typed
/// [`WireError::Corrupt`].
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut rd = Rd::new(payload);
    let tag = rd.u8().map_err(|_| WireError::Corrupt("empty payload".into()))?;
    let frame = match tag {
        TAG_HELLO => {
            let shard = rd.u32()?;
            let of = rd.u32()?;
            let fingerprint = rd.u64()?;
            let n = rd.u32()? as usize;
            rd.check_count(n, 8)?;
            let mut epochs = Vec::with_capacity(n);
            for _ in 0..n {
                epochs.push(rd.u64()?);
            }
            Frame::Hello { shard, of, fingerprint, epochs }
        }
        TAG_WELCOME => Frame::Welcome {
            start_epoch: rd.u64()?,
            epochs_total: rd.u64()?,
            run_id: rd.u64()?,
        },
        TAG_PUBLISH | TAG_HALO => {
            let epoch = rd.u64()?;
            let phase = rd.u32()?;
            let n = rd.u32()? as usize;
            rd.check_count(n, 8)?;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                writes.push((rd.u32()?, rd.u32()?));
            }
            if tag == TAG_PUBLISH {
                Frame::Publish { epoch, phase, writes }
            } else {
                Frame::Halo { epoch, phase, writes }
            }
        }
        TAG_EPOCH_END => Frame::EpochEnd { epoch: rd.u64()? },
        TAG_PROCEED => {
            let stop = match rd.u8()? {
                0 => None,
                1 => Some(rd.u8()?),
                b => return Err(WireError::Corrupt(format!("bad proceed flag {b}"))),
            };
            Frame::Proceed { stop }
        }
        TAG_ROLLBACK => Frame::Rollback,
        TAG_SHARD_LOST => Frame::ShardLost { shard: rd.u32()? },
        TAG_DONE => {
            let n = rd.u32()? as usize;
            rd.check_count(n, 1)?;
            Frame::Done { report: rd.take(n)?.to_vec() }
        }
        TAG_TELEMETRY => {
            let shard = rd.u32()?;
            let epoch = rd.u64()?;
            let n = rd.u32()? as usize;
            rd.check_count(n, 1)?;
            Frame::Telemetry { shard, epoch, payload: rd.take(n)?.to_vec() }
        }
        TAG_STOP => Frame::Stop { outcome: rd.u8()? },
        TAG_PING => Frame::Ping { nonce: rd.u64()? },
        TAG_PONG => Frame::Pong { nonce: rd.u64()? },
        other => return Err(WireError::Corrupt(format!("unknown frame tag {other}"))),
    };
    rd.finish()?;
    Ok(frame)
}

/// Encodes a complete frame: header + payload.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Writes one frame to the stream and flushes it.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    w.flush()?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes. A clean EOF before the first byte
/// is [`WireError::Closed`] when `at_boundary`, otherwise — and for any
/// mid-buffer EOF — a truncated frame ([`WireError::Corrupt`]).
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && at_boundary {
                    Err(WireError::Closed)
                } else {
                    Err(WireError::Corrupt(format!(
                        "stream ended after {filled} of {} bytes",
                        buf.len()
                    )))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::from(e)),
        }
    }
    Ok(())
}

/// Reads one complete frame: header, bounded payload, CRC check,
/// decode. Never panics on hostile input; never accepts a frame whose
/// CRC does not match.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_exact_or(r, &mut header, true)?;
    if header[..4] != WIRE_MAGIC {
        return Err(WireError::Corrupt("bad frame magic".into()));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Corrupt(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let crc_want = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, false)?;
    let crc_got = crc32(&payload);
    if crc_got != crc_want {
        return Err(WireError::Corrupt(format!(
            "payload CRC {crc_got:#010x} does not match header {crc_want:#010x}"
        )));
    }
    decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello { shard: 1, of: 4, fingerprint: 0xFEED_BEEF, epochs: vec![10, 20, 30] },
            Frame::Hello { shard: 0, of: 1, fingerprint: 0, epochs: vec![] },
            Frame::Welcome { start_epoch: 20, epochs_total: 500, run_id: 0xDEAD_BEEF },
            Frame::Publish { epoch: 7, phase: 2, writes: vec![(0, 1), (5, 0), (9, 1)] },
            Frame::Publish { epoch: 0, phase: 0, writes: vec![] },
            Frame::Halo { epoch: 7, phase: 2, writes: vec![(3, 1)] },
            Frame::EpochEnd { epoch: 7 },
            Frame::Proceed { stop: None },
            Frame::Proceed { stop: Some(2) },
            Frame::Rollback,
            Frame::ShardLost { shard: 3 },
            Frame::Done { report: b"{\"ok\":true}".to_vec() },
            Frame::Telemetry { shard: 1, epoch: 12, payload: b"{\"counters\":{}}".to_vec() },
            Frame::Telemetry { shard: 0, epoch: 0, payload: vec![] },
            Frame::Stop { outcome: 3 },
            Frame::Ping { nonce: 42 },
            Frame::Pong { nonce: 42 },
        ]
    }

    #[test]
    fn every_frame_round_trips_through_a_stream() {
        for frame in samples() {
            let bytes = encode_frame(&frame);
            let got = read_frame(&mut &bytes[..]).unwrap();
            assert_eq!(got, frame, "round trip of {}", frame.name());
        }
    }

    #[test]
    fn frames_concatenate_on_one_stream() {
        let frames = samples();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn clean_eof_at_boundary_is_closed_not_corrupt() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut &empty[..]), Err(WireError::Closed)));
    }

    #[test]
    fn truncation_anywhere_is_corrupt_never_panic() {
        for frame in [
            Frame::Publish { epoch: 3, phase: 1, writes: vec![(1, 1), (2, 0)] },
            Frame::EpochEnd { epoch: 3 },
        ] {
            let full = encode_frame(&frame);
            for cut in 1..full.len() {
                match read_frame(&mut &full[..cut]) {
                    Err(WireError::Corrupt(_)) => {}
                    other => panic!("{frame:?} cut at {cut}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        for frame in
            [Frame::Halo { epoch: 9, phase: 0, writes: vec![(7, 1)] }, Frame::EpochEnd { epoch: 9 }]
        {
            let full = encode_frame(&frame);
            for byte in 0..full.len() {
                for bit in 0..8 {
                    let mut bad = full.clone();
                    bad[byte] ^= 1 << bit;
                    match read_frame(&mut &bad[..]) {
                        Err(_) => {}
                        Ok(frame) => panic!(
                            "flip at byte {byte} bit {bit} was silently accepted as {frame:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_length_header_is_bounded_before_allocation() {
        let mut bytes = encode_frame(&Frame::Rollback);
        bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        match read_frame(&mut &bytes[..]) {
            Err(WireError::Corrupt(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_corrupt() {
        match decode_payload(&[200]) {
            Err(WireError::Corrupt(msg)) => assert!(msg.contains("unknown"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let mut payload = encode_payload(&Frame::Rollback);
        payload.push(0);
        match decode_payload(&payload) {
            Err(WireError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_epoch_end_with_the_old_retired_flag_is_corrupt() {
        let mut payload = encode_payload(&Frame::EpochEnd { epoch: 7 });
        payload.push(1);
        match decode_payload(&payload) {
            Err(WireError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_count_is_rejected_before_allocation() {
        // A Publish claiming u32::MAX writes in a tiny payload.
        let mut payload = Vec::new();
        payload.push(3); // TAG_PUBLISH
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        match decode_payload(&payload) {
            Err(WireError::Corrupt(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeout_kind_maps_to_wire_timeout() {
        let e = std::io::Error::new(std::io::ErrorKind::WouldBlock, "t");
        assert!(matches!(WireError::from(e), WireError::Timeout));
        let e = std::io::Error::new(std::io::ErrorKind::TimedOut, "t");
        assert!(matches!(WireError::from(e), WireError::Timeout));
        let e = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "t");
        assert!(matches!(WireError::from(e), WireError::Io(_)));
    }
}
