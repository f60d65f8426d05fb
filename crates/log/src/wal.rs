//! The on-disk segment format.
//!
//! A durable [`crate::archive::LogArchive`] persists each retained segment as
//! the payload of one [`c5_common::frame`] frame in its append-only log (see
//! [`crate::archive`] for the chunk layout around it), and recovery reads
//! them back after a crash. That frame's one CRC covers every byte below, so
//! the encoding itself is just the segment's records back to back, in log
//! order:
//!
//! ```text
//! seq u64 | commit_wall_nanos u64 | table u32 | key u64 | flags u8
//! | [value: u32 length, bytes]                                one per record
//! ```
//!
//! That is 29 bytes of fields, then the value if the write carries one. The
//! `flags` byte holds the write's kind in its low two bits (insert 0,
//! update 1, delete 2), then "has a value", "first write of its
//! transaction" and "last write of its transaction"; the upper three bits
//! are always zero. A record's `prev_seq` is the backup's own bookkeeping,
//! filled in by its scheduler, so it is not written: every record decodes
//! with `prev_seq` zero.
//!
//! All integers are little-endian. Decoding is all-or-nothing: a payload
//! that does not parse as whole records to its last byte, holds a flags
//! byte no writer emits (kind 3, an upper bit set), or holds a write whose
//! kind and value disagree, decodes to `None`. The archive reads only
//! payloads whose checksum matched, so that is a writer bug, never a torn
//! write; a torn or corrupt frame is dropped whole before it gets here, and
//! since segments keep transactions whole the log still ends at a
//! transaction boundary.

use c5_common::frame::{PayloadReader, PayloadWriter};
use c5_common::{RowRef, RowWrite, SeqNo, Value, WriteKind};

use crate::record::LogRecord;
use crate::segment::Segment;

/// The `flags` byte: the write's kind in the low two bits, then these.
const KIND: u8 = 0b11;
const HAS_VALUE: u8 = 1 << 2;
const TXN_FIRST: u8 = 1 << 3;
const TXN_LAST: u8 = 1 << 4;

fn encode_record(w: &mut PayloadWriter, record: &LogRecord) {
    let kind = match record.write.kind {
        WriteKind::Insert => 0u8,
        WriteKind::Update => 1,
        WriteKind::Delete => 2,
    };
    let flags = kind
        | (HAS_VALUE * u8::from(record.write.value.is_some()))
        | (TXN_FIRST * u8::from(record.txn_first))
        | (TXN_LAST * u8::from(record.txn_last));
    w.u64(record.seq.as_u64())
        .u64(record.commit_wall_nanos)
        .u32(record.write.row.table.as_u32())
        .u64(record.write.row.key.as_u64())
        .u8(flags);
    if let Some(value) = &record.write.value {
        w.bytes(value.as_bytes());
    }
}

fn decode_record(r: &mut PayloadReader<'_>) -> Option<LogRecord> {
    let seq = SeqNo(r.u64()?);
    let commit_wall_nanos = r.u64()?;
    let row = RowRef::new(r.u32()?, r.u64()?);
    let flags = r.u8()?;
    if flags & !(KIND | HAS_VALUE | TXN_FIRST | TXN_LAST) != 0 {
        return None;
    }
    let kind = match flags & KIND {
        0 => WriteKind::Insert,
        1 => WriteKind::Update,
        2 => WriteKind::Delete,
        _ => return None,
    };
    let value = match flags & HAS_VALUE {
        0 => None,
        _ => Some(Value::from(r.bytes()?)),
    };
    // A delete is exactly a write without a value: a record that says
    // otherwise is damage.
    if kind.carries_value() != value.is_some() {
        return None;
    }
    Some(LogRecord {
        seq,
        commit_wall_nanos,
        prev_seq: SeqNo::ZERO,
        write: RowWrite { row, kind, value },
        txn_first: flags & TXN_FIRST != 0,
        txn_last: flags & TXN_LAST != 0,
    })
}

/// Encodes one segment into its on-disk byte representation.
pub fn encode_segment(segment: &Segment) -> Vec<u8> {
    // 29 bytes of fields per record, plus a 64-byte value and its length.
    let mut w = PayloadWriter::with_capacity(segment.records.len() * 97);
    for record in &segment.records {
        encode_record(&mut w, record);
    }
    w.finish()
}

/// Decodes an encoded segment's bytes: the whole segment, or `None` (never a
/// panic) if they are not exactly a run of well-formed records.
pub fn decode_segment(bytes: &[u8]) -> Option<Segment> {
    let mut r = PayloadReader::new(bytes);
    let mut records = Vec::new();
    while !r.is_exhausted() {
        records.push(decode_record(&mut r)?);
    }
    Some(Segment::new(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::segments_from_entries;
    use crate::record::TxnEntry;
    use c5_common::Timestamp;

    fn log_segments() -> Vec<Segment> {
        let entries: Vec<TxnEntry> = (1..=4u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(10 + t),
                    vec![
                        RowWrite::update(RowRef::new(0, t), Value::from_u64(t)),
                        RowWrite::delete(RowRef::new(1, t)),
                        RowWrite::insert(RowRef::new(2, t), Value::from(vec![1u8, 2, 3])),
                    ],
                )
            })
            .collect();
        segments_from_entries(&entries, 6)
    }

    #[test]
    fn segments_round_trip_exactly() {
        for segment in log_segments() {
            let bytes = encode_segment(&segment);
            let decoded = decode_segment(&bytes).expect("round trip must be clean");
            assert_eq!(decoded.len(), segment.len());
            for (a, b) in decoded.records.iter().zip(&segment.records) {
                assert_eq!(a.seq, b.seq);
                assert_eq!(a.commit_wall_nanos, b.commit_wall_nanos);
                assert_eq!(a.prev_seq, b.prev_seq);
                assert_eq!(a.write, b.write);
                assert_eq!(a.txn_first, b.txn_first);
                assert_eq!(a.txn_last, b.txn_last);
            }
        }
    }

    /// `prev_seq` is the backup's own bookkeeping: a segment its scheduler
    /// has stamped encodes to the same bytes as the one the primary cut, and
    /// both decode unstamped.
    #[test]
    fn prev_seq_is_not_encoded() {
        let segment = log_segments()[0].clone();
        let mut stamped = segment.clone();
        for (n, record) in stamped.records.iter_mut().enumerate() {
            record.prev_seq = SeqNo(n as u64 + 1);
        }
        let bytes = encode_segment(&segment);
        assert_eq!(encode_segment(&stamped), bytes);
        let decoded = decode_segment(&bytes).expect("clean");
        assert!(decoded.records.iter().all(|r| r.prev_seq == SeqNo::ZERO));
    }

    /// Where each record of `segment` ends in its encoding.
    fn record_ends(segment: &Segment) -> Vec<usize> {
        (1..=segment.len())
            .map(|n| encode_segment(&Segment::new(segment.records[..n].to_vec())).len())
            .collect()
    }

    /// The decoder has no torn-tail rule of its own: a segment whose bytes
    /// end inside a record decodes to nothing, so the log recovered around
    /// it ends with the segment before, on a transaction boundary.
    #[test]
    fn torn_tail_trims_to_a_transaction_boundary() {
        let segments = log_segments(); // 2 txns x 3 writes, then 2 more
        let first = decode_segment(&encode_segment(&segments[0])).expect("intact");
        assert!(first.records.last().unwrap().is_txn_last());
        let bytes = encode_segment(&segments[1]);
        let ends = record_ends(&segments[1]);
        for cut in 1..bytes.len() {
            let decoded = decode_segment(&bytes[..cut]).map(|s| s.len());
            let whole = ends.iter().position(|&end| end == cut).map(|n| n + 1);
            assert_eq!(decoded, whole, "cut at {cut}");
        }
    }

    /// Bytes that are not exactly a run of records: cut short, padded, or
    /// with a flags byte no writer emits (kind 3, or an upper bit set). A cut
    /// on a record boundary still parses; only the frame's length and
    /// checksum around it can tell.
    #[test]
    fn a_payload_cut_short_or_padded_is_damage() {
        let segment = &log_segments()[0];
        let bytes = encode_segment(segment);
        let first_end = record_ends(segment)[0];
        assert!(decode_segment(&bytes[..first_end - 1]).is_none());
        assert_eq!(
            decode_segment(&bytes[..first_end]).map(|s| s.len()),
            Some(1)
        );
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_segment(&padded).is_none());
        let flags = 28; // the first record's flags byte
        assert_eq!(
            first_end,
            flags + 1 + 4 + 8,
            "an update's flags, then its value"
        );
        let mut bad_kind = bytes.clone();
        bad_kind[flags] |= 3;
        assert!(decode_segment(&bad_kind).is_none());
        for bit in 5..8 {
            let mut upper = bytes.clone();
            upper[flags] |= 1 << bit;
            assert!(decode_segment(&upper).is_none(), "bit {bit}");
        }
    }

    /// The encoding has no magic of its own, but bytes that do not start
    /// with a record still recover nothing: a payload led by the old
    /// segment magic (`C5WSEG1\n`), or a stub shorter than one record.
    #[test]
    fn bad_magic_recovers_nothing() {
        let bytes = encode_segment(&log_segments()[0]);
        let mut led_by_magic = b"C5WSEG1\n".to_vec();
        led_by_magic.extend_from_slice(&bytes);
        assert!(decode_segment(&led_by_magic).is_none());
        assert!(decode_segment(&bytes[..4]).is_none());
    }

    /// A segment's record count is fixed by the length of the frame it is
    /// archived in: a frame that lost its last record's bytes is damage,
    /// whether or not its length prefix was rewritten to match.
    #[test]
    fn header_record_count_mismatch_is_damage() {
        use c5_common::frame::{read_frame, write_frame, HEADER_BYTES};

        let segment = &log_segments()[0];
        let payload = encode_segment(segment);
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload);
        let whole = read_frame(&frame).and_then(decode_segment).expect("intact");
        assert_eq!(whole.len(), segment.len());

        let last_record = payload.len() - record_ends(segment)[segment.len() - 2];
        let mut short = frame.clone();
        short.truncate(frame.len() - last_record);
        assert!(
            read_frame(&short).is_none(),
            "payload shorter than its length"
        );
        let kept = (payload.len() - last_record) as u32;
        short[..4].copy_from_slice(&kept.to_le_bytes());
        assert_eq!(short.len(), HEADER_BYTES + kept as usize);
        assert!(
            read_frame(&short).is_none(),
            "checksum of the whole payload"
        );
    }

    #[test]
    fn flipped_byte_truncates_and_never_panics() {
        let segment = &log_segments()[0];
        let clean_bytes = encode_segment(segment);
        // Flip every byte position in turn; decoding must never panic, and
        // whatever still decodes is whole records.
        for i in 0..clean_bytes.len() {
            let mut bytes = clean_bytes.clone();
            bytes[i] ^= 0x40;
            if let Some(seg) = decode_segment(&bytes) {
                assert!(seg.len() <= segment.len());
            }
        }
    }

    #[test]
    fn a_write_whose_kind_and_value_disagree_is_damage() {
        // Txn 2's update without a value, then its delete with one.
        for (idx, value) in [(3, None), (4, Some(Value::from_u64(9)))] {
            let mut segment = log_segments()[0].clone();
            segment.records[idx].write.value = value;
            assert!(decode_segment(&encode_segment(&segment)).is_none());
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let empty = Segment::new(vec![]);
        assert!(encode_segment(&empty).is_empty());
        let decoded = decode_segment(&encode_segment(&empty)).expect("clean");
        assert!(decoded.is_empty());
        assert_eq!(decoded.covered_through(), SeqNo::ZERO);
    }
}
