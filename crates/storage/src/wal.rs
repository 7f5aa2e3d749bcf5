//! The write-ahead log: an append-only stream of length-prefixed,
//! CRC-checked records.
//!
//! Every record a replica persists before acting on (a stamped operation, a
//! received envelope, a commitment step) is framed as
//!
//! ```text
//! ┌──────────┬──────────┬───────────┬───────────────┐
//! │ len: u32 │ crc: u32 │ epoch:u64 │ payload [len] │
//! └──────────┴──────────┴───────────┴───────────────┘
//! ```
//!
//! (all little-endian; the CRC covers the epoch and the payload). The epoch
//! is the replica's flatten epoch at append time, which makes the compaction
//! invariant checkable from the log alone: after a flatten-commit checkpoint
//! truncates the WAL, every surviving record carries an epoch ≥ the committed
//! one.
//!
//! Replay ([`replay`]) scans the stream front to back and stops at the first
//! frame that is incomplete (a torn tail from a crash mid-append) or whose
//! CRC does not match (bit rot, a torn write that happened to leave enough
//! bytes). Everything before the bad frame is returned intact; the tail is
//! reported, not propagated — a crash while appending record *n* must never
//! cost records 1..n−1.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

/// Bytes of framing per record (`len` + `crc` + `epoch`).
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8;

use crate::checksum::crc32;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The appender's flatten epoch when the record was written.
    pub epoch: u64,
    /// The record payload (opaque to the WAL; the replication layer stores
    /// serialised envelopes here).
    pub payload: Vec<u8>,
}

/// Why replay stopped before the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFault {
    /// The final frame is incomplete (torn write / truncated file).
    Truncated,
    /// A complete frame failed its CRC check.
    ChecksumMismatch,
}

/// What one [`replay`] pass found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The valid record prefix, in append order.
    pub entries: Vec<WalEntry>,
    /// Bytes consumed by the valid prefix.
    pub valid_bytes: usize,
    /// Bytes dropped after the valid prefix (0 for a clean log).
    pub dropped_bytes: usize,
    /// Why the tail was dropped, when it was.
    pub fault: Option<TailFault>,
}

impl WalReplay {
    /// `true` when the whole stream decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.fault.is_none()
    }
}

/// Appends one framed record to `out`.
pub fn append_record(out: &mut Vec<u8>, epoch: u64, payload: &[u8]) {
    append_record_with(out, epoch, |out| out.extend_from_slice(payload));
}

/// Appends one framed record whose payload `write_payload` writes straight
/// into `out`: the header is patched in afterwards and the CRC is computed
/// over the bytes as written, so framing a record costs no buffer of its
/// own.
pub(crate) fn append_record_with(
    out: &mut Vec<u8>,
    epoch: u64,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&epoch.to_le_bytes());
    write_payload(out);
    let len = out.len() - start - RECORD_HEADER_BYTES;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// The encoded size of a record with `payload_len` payload bytes.
pub fn record_size(payload_len: usize) -> usize {
    RECORD_HEADER_BYTES + payload_len
}

/// One CRC-checked frame of a byte stream, borrowed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame<'a> {
    /// The appender's flatten epoch.
    pub epoch: u64,
    /// The record payload.
    pub payload: &'a [u8],
    /// Offset of the byte after this frame: where the next one starts.
    pub end: usize,
}

/// Reads a little-endian `u32` at `at` (the caller has bounds-checked it).
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(word)
}

/// Decodes the frame starting at byte `pos` of `bytes`, checking its CRC.
/// Errs with the reason when the frame is incomplete or corrupt; `pos` at
/// or past the end reads as [`TailFault::Truncated`].
pub(crate) fn frame_at(bytes: &[u8], pos: usize) -> Result<Frame<'_>, TailFault> {
    let rest = bytes.len().saturating_sub(pos);
    if rest < RECORD_HEADER_BYTES {
        return Err(TailFault::Truncated);
    }
    let len = u32_at(bytes, pos) as usize;
    // `len` itself may be garbage from a torn write; an oversized claim
    // reads as truncation, not as an allocation request.
    if rest - RECORD_HEADER_BYTES < len {
        return Err(TailFault::Truncated);
    }
    let end = pos + RECORD_HEADER_BYTES + len;
    let body = &bytes[pos + 8..end];
    if crc32(body) != u32_at(bytes, pos + 4) {
        return Err(TailFault::ChecksumMismatch);
    }
    let mut epoch = [0; 8];
    epoch.copy_from_slice(&body[..8]);
    Ok(Frame {
        epoch: u64::from_le_bytes(epoch),
        payload: &body[8..],
        end,
    })
}

/// Decodes a WAL byte stream, returning the valid record prefix and a
/// description of any dropped tail. Never fails: a corrupt or torn stream
/// simply yields a shorter prefix.
pub fn replay(bytes: &[u8]) -> WalReplay {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    let mut fault = None;
    while pos < bytes.len() {
        match frame_at(bytes, pos) {
            Ok(frame) => {
                entries.push(WalEntry {
                    epoch: frame.epoch,
                    payload: frame.payload.to_vec(),
                });
                pos = frame.end;
            }
            Err(why) => {
                fault = Some(why);
                break;
            }
        }
    }
    WalReplay {
        entries,
        valid_bytes: pos,
        dropped_bytes: bytes.len() - pos,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log(n: usize) -> (Vec<u8>, Vec<WalEntry>) {
        let mut log = Vec::new();
        let mut entries = Vec::new();
        for i in 0..n {
            let payload: Vec<u8> = format!("record number {i} !").into_bytes();
            let epoch = (i / 3) as u64;
            append_record(&mut log, epoch, &payload);
            entries.push(WalEntry { epoch, payload });
        }
        (log, entries)
    }

    /// The framing as first written: the body assembled in a buffer of its
    /// own, then length, CRC and body copied out.
    fn buffered_frame(epoch: u64, payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::with_capacity(8 + payload.len());
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(payload);
        let mut out = Vec::new();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn in_place_framing_is_byte_identical_to_the_buffered_framing() {
        let mut log = vec![0xAB; 3]; // frames need not start at offset 0
        let mut expected = log.clone();
        for (epoch, payload) in [(0, &b""[..]), (7, b"x"), (u64::MAX, &[0xFF; 300][..])] {
            append_record(&mut log, epoch, payload);
            expected.extend(buffered_frame(epoch, payload));
        }
        assert_eq!(log, expected);
    }

    #[test]
    fn frames_decode_in_place_at_their_offsets() {
        let (log, expected) = sample_log(3);
        let mut pos = 0;
        for entry in &expected {
            let frame = frame_at(&log, pos).unwrap();
            assert_eq!(
                (frame.epoch, frame.payload),
                (entry.epoch, &entry.payload[..])
            );
            pos = frame.end;
        }
        assert_eq!(pos, log.len());
        assert_eq!(frame_at(&log, pos), Err(TailFault::Truncated));
        assert_eq!(frame_at(&log, usize::MAX), Err(TailFault::Truncated));
        let mut bad = log.clone();
        bad[RECORD_HEADER_BYTES] ^= 1;
        assert_eq!(frame_at(&bad, 0), Err(TailFault::ChecksumMismatch));
    }

    #[test]
    fn clean_log_replays_completely() {
        let (log, expected) = sample_log(7);
        let replay = replay(&log);
        assert!(replay.is_clean());
        assert_eq!(replay.entries, expected);
        assert_eq!(replay.valid_bytes, log.len());
        assert_eq!(replay.dropped_bytes, 0);
    }

    #[test]
    fn empty_log_is_clean() {
        let replay = replay(&[]);
        assert!(replay.is_clean());
        assert!(replay.entries.is_empty());
    }

    #[test]
    fn empty_payloads_round_trip() {
        let mut log = Vec::new();
        append_record(&mut log, 3, b"");
        let replay = replay(&log);
        assert!(replay.is_clean());
        assert_eq!(
            replay.entries,
            vec![WalEntry {
                epoch: 3,
                payload: Vec::new()
            }]
        );
    }

    #[test]
    fn torn_tail_preserves_the_prefix() {
        let (log, expected) = sample_log(5);
        // Truncate anywhere inside the last record.
        let last_start = log.len() - record_size(expected[4].payload.len());
        // `cut == last_start` would be a clean 4-record log; start one past.
        for cut in last_start + 1..log.len() {
            let replay = replay(&log[..cut]);
            assert_eq!(replay.fault, Some(TailFault::Truncated), "cut {cut}");
            assert_eq!(replay.entries, expected[..4], "cut {cut}");
            assert_eq!(replay.dropped_bytes, cut - last_start);
        }
    }

    #[test]
    fn corrupt_tail_is_detected_by_crc() {
        let (mut log, expected) = sample_log(4);
        let last = log.len() - 1;
        log[last] ^= 0x5A;
        let replay = replay(&log);
        assert_eq!(replay.fault, Some(TailFault::ChecksumMismatch));
        assert_eq!(replay.entries, expected[..3]);
        assert!(replay.dropped_bytes > 0);
    }

    #[test]
    fn oversized_length_claim_reads_as_truncation() {
        let mut log = Vec::new();
        append_record(&mut log, 0, b"ok");
        // A frame claiming far more payload than the stream holds.
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 12]);
        let replay = replay(&log);
        assert_eq!(replay.fault, Some(TailFault::Truncated));
        assert_eq!(replay.entries.len(), 1);
    }

    #[test]
    fn epochs_survive_the_round_trip() {
        let mut log = Vec::new();
        append_record(&mut log, 0, b"pre");
        append_record(&mut log, 1, b"post");
        let replay = replay(&log);
        assert_eq!(
            replay.entries.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }
}
