//! Checksummed length-prefixed frames: the byte-level building block of every
//! durable file in the workspace.
//!
//! The paper assumes durability and recovery exist on both the primary and
//! the backup and never describes a format; this module supplies the smallest
//! one that supports the recovery contract the durable layers need:
//!
//! * a frame is `[len: u32 LE][crc: u32 LE][payload; len bytes]`, where the
//!   CRC-32 (IEEE, the zlib/PNG polynomial) covers the payload only;
//! * every durable unit is exactly one frame — an archived segment, the
//!   archive's manifest, a checkpoint's cut and rows — so each payload byte
//!   is covered by exactly one checksum;
//! * [`read_frame`] reads the frame at the head of a buffer and reports a
//!   short header, a short payload or a checksum mismatch as `None`, never a
//!   panic.
//!
//! "Truncate at the first bad frame" is what makes a torn tail (a process
//! killed mid-write, a half-synced page) recoverable: a reader walking a run
//! of frames trusts the ones before the damage and discards the rest, and
//! since each frame is one whole unit of atomicity (a segment never splits
//! a transaction) there is nothing to re-align.

/// The CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum every frame carries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `[len: u32][crc: u32]`: the bytes in front of every frame's payload.
pub const HEADER_BYTES: usize = 8;

/// Appends one frame (`len`, `crc`, payload) to `out`.
///
/// # Panics
/// Panics if `payload` is 4 GiB or longer: a frame's length is a `u32`, and
/// a wrapped one would only be found when the frame is read back.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("a frame's payload is under 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The payload of the frame at the head of `bytes`, or `None` (never a
/// panic) when the buffer ends inside its header or payload or the payload
/// does not match its checksum. The frame ends at `HEADER_BYTES +
/// payload.len()`; whatever follows is the caller's.
pub fn read_frame(bytes: &[u8]) -> Option<&[u8]> {
    let header = bytes.get(..HEADER_BYTES)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    let payload = bytes.get(HEADER_BYTES..HEADER_BYTES.checked_add(len)?)?;
    (crc32(payload) == crc).then_some(payload)
}

/// A little-endian cursor over a validated payload, for decoding the fields
/// a frame carries. Every accessor returns `None` on underrun instead of
/// panicking — a decoded frame with a valid checksum can still be from a
/// future (or corrupted-before-checksum) writer, and recovery must degrade
/// to "truncate here", never crash.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> PayloadReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let bytes = self.bytes.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.bytes.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte string (`u32` length, then the bytes).
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let bytes = self.bytes.get(self.at..self.at.checked_add(len)?)?;
        self.at += len;
        Some(bytes)
    }
}

/// The matching little-endian encoder.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    bytes: Vec<u8>,
}

impl PayloadWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.bytes.extend_from_slice(v);
        self
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every frame of a run of frames in `buf`, up to the first damaged
    /// one: the walk the archive's chunk scanner makes.
    fn frames(mut buf: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        while let Some(payload) = read_frame(buf) {
            out.push(payload);
            buf = &buf[HEADER_BYTES + payload.len()..];
        }
        out
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, &[0xFFu8; 300]);
        write_frame(&mut buf, b"");
        assert_eq!(read_frame(&buf), Some(&b"hello"[..]));
        let payloads = frames(&buf);
        assert_eq!(payloads.len(), 3);
        assert_eq!(payloads[1].len(), 300);
        assert!(payloads[2].is_empty());
        // A header of zeros is a valid empty frame: `crc32(&[]) == 0`.
        assert_eq!(read_frame(&[0u8; HEADER_BYTES]), Some(&[][..]));
    }

    #[test]
    fn torn_tail_truncates_to_the_valid_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"keep me");
        write_frame(&mut buf, b"torn");
        // Lose the last two bytes, as a crash mid-write would; then lose the
        // second frame's header too.
        buf.truncate(buf.len() - 2);
        assert_eq!(frames(&buf), [&b"keep me"[..]]);
        buf.truncate(HEADER_BYTES + 7 + 3);
        assert_eq!(frames(&buf), [&b"keep me"[..]]);
    }

    #[test]
    fn flipped_byte_truncates_with_a_checksum_mismatch() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"good");
        let second_at = buf.len();
        write_frame(&mut buf, b"bad!");
        buf[second_at + 8] ^= 0x01; // first payload byte of the second frame
        assert_eq!(read_frame(&buf[second_at..]), None);
        assert_eq!(frames(&buf), [&b"good"[..]]);
    }

    #[test]
    fn absurd_length_is_a_short_read_not_a_panic() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"tiny");
        assert_eq!(read_frame(&buf), None);
    }

    #[test]
    fn payload_codec_round_trips_and_bounds_checks() {
        let mut w = PayloadWriter::new();
        w.u8(7).u32(1234).u64(u64::MAX).bytes(b"payload");
        let buf = w.finish();

        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(1234));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.bytes(), Some(&b"payload"[..]));
        assert!(r.is_exhausted());
        assert_eq!(r.u8(), None, "reads past the end return None");

        // A declared length past the end underruns cleanly.
        let mut w = PayloadWriter::new();
        w.u32(1000);
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.bytes(), None);
    }
}
