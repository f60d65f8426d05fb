//! The on-disk segment format.
//!
//! A durable [`crate::archive::LogArchive`] persists each retained segment as
//! the payload of one outer frame in its append-only log (see
//! [`crate::archive`] for the chunk layout around it), and recovery reads
//! them back after a crash. The encoding of one segment is the smallest one
//! that supports the corrupt-tail contract ("truncate at the first bad
//! frame, never panic"):
//!
//! ```text
//! +--------------------------+
//! | magic  "C5WSEG1\n"       |  8 bytes
//! | header frame             |  id, record count, preprocessed,
//! |                          |  covers_through, first/last SeqNo,
//! |                          |  commit-timestamp range
//! | record frame             |  one per LogRecord, in log order
//! | ...                      |
//! +--------------------------+
//! ```
//!
//! Every frame is length-prefixed and CRC-32-checksummed
//! ([`c5_common::frame`]). Decoding validates the magic, the header, every
//! record frame, and the header's cross-checks (count, first/last position);
//! any damage — a torn tail from `kill -9` mid-write, a flipped bit — yields
//! the longest valid prefix **trimmed back to a transaction boundary**, so
//! the recovered log never ends inside a transaction (segments keep
//! transactions whole, which makes the trim local to one segment).

use c5_common::frame::{read_frames, write_frame, PayloadReader, PayloadWriter};
use c5_common::{RowRef, RowWrite, SeqNo, Timestamp, TxnId, Value, WriteKind};

use crate::record::LogRecord;
use crate::segment::Segment;

/// Magic bytes at the head of every encoded segment.
pub const WAL_MAGIC: &[u8; 8] = b"C5WSEG1\n";

/// The result of decoding an encoded segment.
#[derive(Debug)]
pub enum DecodedWal {
    /// Every byte validated and the header's cross-checks held.
    Clean(Segment),
    /// The bytes were damaged (torn tail, checksum mismatch, or a header that
    /// disagrees with the records). The payload is the longest valid prefix
    /// of whole transactions — `None` when not even one transaction
    /// survived.
    Torn(Option<Segment>),
}

impl DecodedWal {
    /// The recovered segment, if any survived, plus whether it was clean.
    pub fn into_segment(self) -> (Option<Segment>, bool) {
        match self {
            DecodedWal::Clean(segment) => (Some(segment), true),
            DecodedWal::Torn(segment) => (segment, false),
        }
    }
}

fn encode_record(record: &LogRecord) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(record.txn.0)
        .u64(record.seq.as_u64())
        .u64(record.commit_ts.as_u64())
        .u64(record.commit_wall_nanos)
        .u64(record.prev_seq.as_u64())
        .u32(record.idx_in_txn)
        .u32(record.txn_len)
        .u32(record.write.row.table.as_u32())
        .u64(record.write.row.key.as_u64());
    let kind = match record.write.kind {
        WriteKind::Insert => 0u8,
        WriteKind::Update => 1,
        WriteKind::Delete => 2,
    };
    w.u8(kind);
    match &record.write.value {
        Some(value) => {
            w.u8(1).bytes(value.as_bytes());
        }
        None => {
            w.u8(0);
        }
    }
    w.finish()
}

fn decode_record(payload: &[u8]) -> Option<LogRecord> {
    let mut r = PayloadReader::new(payload);
    let txn = TxnId(r.u64()?);
    let seq = SeqNo(r.u64()?);
    let commit_ts = Timestamp(r.u64()?);
    let commit_wall_nanos = r.u64()?;
    let prev_seq = SeqNo(r.u64()?);
    let idx_in_txn = r.u32()?;
    let txn_len = r.u32()?;
    let row = RowRef::new(r.u32()?, r.u64()?);
    let kind = match r.u8()? {
        0 => WriteKind::Insert,
        1 => WriteKind::Update,
        2 => WriteKind::Delete,
        _ => return None,
    };
    let value = match r.u8()? {
        0 => None,
        1 => Some(Value::from(r.bytes()?)),
        _ => return None,
    };
    // A delete is exactly a write without a value: a frame that says
    // otherwise is damage.
    if !r.is_exhausted() || kind.carries_value() != value.is_some() {
        return None;
    }
    Some(LogRecord {
        txn,
        seq,
        commit_ts,
        commit_wall_nanos,
        prev_seq,
        write: RowWrite { row, kind, value },
        idx_in_txn,
        txn_len,
    })
}

/// Encodes one segment into its on-disk byte representation.
pub fn encode_segment(segment: &Segment) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + segment.records.len() * 96);
    out.extend_from_slice(WAL_MAGIC);

    let (ts_min, ts_max) = segment
        .records
        .iter()
        .fold((u64::MAX, 0u64), |(lo, hi), r| {
            (lo.min(r.commit_ts.as_u64()), hi.max(r.commit_ts.as_u64()))
        });
    let mut header = PayloadWriter::new();
    header
        .u64(segment.header.id)
        .u64(segment.records.len() as u64)
        .u8(segment.header.preprocessed as u8)
        .u64(segment.header.covers_through.as_u64())
        .u64(segment.first_seq().unwrap_or(SeqNo::ZERO).as_u64())
        .u64(segment.last_seq().unwrap_or(SeqNo::ZERO).as_u64())
        .u64(if segment.is_empty() { 0 } else { ts_min })
        .u64(ts_max);
    write_frame(&mut out, &header.finish());

    for record in &segment.records {
        write_frame(&mut out, &encode_record(record));
    }
    out
}

/// Drops trailing records of an incomplete transaction, so a torn prefix
/// still ends at a commit boundary.
fn trim_to_txn_boundary(records: &mut Vec<LogRecord>) {
    while let Some(last) = records.last() {
        if last.is_txn_last() {
            break;
        }
        records.pop();
    }
}

/// Decodes an encoded segment's bytes, truncating (never panicking) on damage.
pub fn decode_segment(bytes: &[u8]) -> DecodedWal {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return DecodedWal::Torn(None);
    }
    let scan = read_frames(&bytes[WAL_MAGIC.len()..]);
    let scan_clean = scan.is_clean();
    let mut frames = scan.frames.into_iter();
    let Some(header_payload) = frames.next() else {
        return DecodedWal::Torn(None);
    };
    let mut h = PayloadReader::new(&header_payload);
    let (Some(id), Some(count), Some(preprocessed), Some(covers_through)) =
        (h.u64(), h.u64(), h.u8(), h.u64())
    else {
        return DecodedWal::Torn(None);
    };
    let (Some(first), Some(last), Some(_ts_min), Some(_ts_max)) =
        (h.u64(), h.u64(), h.u64(), h.u64())
    else {
        return DecodedWal::Torn(None);
    };

    let mut records = Vec::new();
    let mut record_damage = false;
    for payload in frames {
        match decode_record(&payload) {
            Some(record) => records.push(record),
            None => {
                record_damage = true;
                break;
            }
        }
    }

    let clean = scan_clean
        && !record_damage
        && records.len() as u64 == count
        && records.first().map(|r| r.seq.as_u64()).unwrap_or(0) == first
        && records.last().map(|r| r.seq.as_u64()).unwrap_or(0) == last;

    if clean {
        let mut segment = Segment::sub_segment(id, records, SeqNo(covers_through));
        segment.header.preprocessed = preprocessed != 0;
        return DecodedWal::Clean(segment);
    }

    trim_to_txn_boundary(&mut records);
    if records.is_empty() {
        return DecodedWal::Torn(None);
    }
    // A torn segment's coverage claim is no longer trustworthy beyond its
    // last surviving record: Segment::new pins covers_through there.
    let mut segment = Segment::new(id, records);
    segment.header.preprocessed = preprocessed != 0;
    DecodedWal::Torn(Some(segment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::segments_from_entries;
    use crate::record::TxnEntry;

    fn log_segments() -> Vec<Segment> {
        let entries: Vec<TxnEntry> = (1..=4u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
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
            let DecodedWal::Clean(decoded) = decode_segment(&bytes) else {
                panic!("round trip must be clean");
            };
            assert_eq!(decoded.header, segment.header);
            assert_eq!(decoded.len(), segment.len());
            for (a, b) in decoded.records.iter().zip(&segment.records) {
                assert_eq!(a.txn, b.txn);
                assert_eq!(a.seq, b.seq);
                assert_eq!(a.commit_ts, b.commit_ts);
                assert_eq!(a.commit_wall_nanos, b.commit_wall_nanos);
                assert_eq!(a.prev_seq, b.prev_seq);
                assert_eq!(a.write, b.write);
                assert_eq!(a.idx_in_txn, b.idx_in_txn);
                assert_eq!(a.txn_len, b.txn_len);
            }
        }
    }

    #[test]
    fn sub_segment_coverage_and_preprocessed_flag_survive() {
        let parent = &log_segments()[0];
        let mut sub = Segment::sub_segment(7, parent.records[..3].to_vec(), SeqNo(99));
        sub.header.preprocessed = true;
        let DecodedWal::Clean(decoded) = decode_segment(&encode_segment(&sub)) else {
            panic!("clean");
        };
        assert_eq!(decoded.header.covers_through, SeqNo(99));
        assert!(decoded.header.preprocessed);
    }

    #[test]
    fn torn_tail_trims_to_a_transaction_boundary() {
        let segment = &log_segments()[0]; // 2 txns x 3 writes
        let bytes = encode_segment(segment);
        // Cut the bytes mid-way through the last transaction's frames.
        let cut = bytes.len() - 40;
        let (recovered, clean) = decode_segment(&bytes[..cut]).into_segment();
        assert!(!clean);
        let recovered = recovered.expect("the first transaction survives");
        assert!(recovered.transactions_are_whole());
        assert_eq!(recovered.len(), 3, "trimmed back to txn 1's boundary");
        assert_eq!(recovered.covered_through(), SeqNo(3));
    }

    #[test]
    fn flipped_byte_truncates_and_never_panics() {
        let segment = &log_segments()[0];
        let clean_bytes = encode_segment(segment);
        // Flip every byte position in turn; decoding must never panic, and
        // whatever survives must be a transaction-aligned prefix.
        for i in 0..clean_bytes.len() {
            let mut bytes = clean_bytes.clone();
            bytes[i] ^= 0x40;
            let (recovered, _) = decode_segment(&bytes).into_segment();
            if let Some(seg) = recovered {
                assert!(seg.transactions_are_whole());
                assert!(seg.len() <= segment.len());
            }
        }
    }

    #[test]
    fn bad_magic_recovers_nothing() {
        let bytes = encode_segment(&log_segments()[0]);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_segment(&bad), DecodedWal::Torn(None)));
        assert!(matches!(decode_segment(&[]), DecodedWal::Torn(None)));
        assert!(matches!(
            decode_segment(&bytes[..4]),
            DecodedWal::Torn(None)
        ));
    }

    #[test]
    fn header_record_count_mismatch_is_damage() {
        let segment = &log_segments()[0];
        let mut bytes = encode_segment(segment);
        // Drop the last record's frame entirely: frames all validate but the
        // header's count no longer matches.
        let record_frames = encode_record(&segment.records[segment.len() - 1]);
        bytes.truncate(bytes.len() - record_frames.len() - 8);
        let (recovered, clean) = decode_segment(&bytes).into_segment();
        assert!(!clean);
        let seg = recovered.expect("first txn survives");
        assert!(seg.transactions_are_whole());
    }

    #[test]
    fn a_write_whose_kind_and_value_disagree_is_damage() {
        // Txn 2's update without a value, then its delete with one.
        for (idx, value) in [(3, None), (4, Some(Value::from_u64(9)))] {
            let mut segment = log_segments()[0].clone();
            segment.records[idx].write.value = value;
            let (recovered, clean) = decode_segment(&encode_segment(&segment)).into_segment();
            assert!(!clean);
            let recovered = recovered.expect("the first transaction survives");
            assert_eq!(recovered.len(), 3, "trimmed back to txn 1's boundary");
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let empty = Segment::sub_segment(3, vec![], SeqNo(17));
        let DecodedWal::Clean(decoded) = decode_segment(&encode_segment(&empty)) else {
            panic!("clean");
        };
        assert!(decoded.is_empty());
        assert_eq!(decoded.header.covers_through, SeqNo(17));
        assert_eq!(decoded.header.id, 3);
    }
}
