//! The `.dtr` binary trace format: streaming encode/decode of
//! [`TraceItem`] sequences.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   "DTRC" magic (4 bytes) | u32 format version
//! block*   'B' | u32 payload_len | u32 record_count | payload | u32 crc32(payload)
//! footer   'F' | u64 total_items | u32 crc32(total_items bytes)
//! ```
//!
//! Within a block payload each record is two varints (LEB128):
//!
//! ```text
//! head  = gap << 2 | is_write << 1 | depends_on_prev
//! delta = zigzag(addr - prev_addr)      // prev_addr resets to 0 per block
//! ```
//!
//! The per-block address-delta baseline makes every block independently
//! decodable — the property the prefetching reader and CRC isolation rely
//! on — while still compressing the dominant case (short strides within a
//! row sweep) to two or three bytes per reference. A corrupted block is
//! detected by its CRC before any record in it is surfaced; a truncated
//! file is detected by the missing or short footer; a wrong item count is
//! detected by the footer's total.

use std::fmt;
use std::io::{self, Read, Write};

use das_cpu::TraceItem;

use crate::crc::crc32;

/// File magic: the first four bytes of every `.dtr` file.
pub const MAGIC: [u8; 4] = *b"DTRC";

/// Current format version. Bump on any incompatible layout change; readers
/// reject other versions loudly instead of misdecoding.
pub const FORMAT_VERSION: u32 = 1;

/// Records per block before the writer seals it (~10–30 KiB of payload at
/// typical stride entropy — large enough to amortize the CRC and the
/// prefetch hand-off, small enough to bound decode-ahead memory).
pub const DEFAULT_BLOCK_RECORDS: u32 = 4096;

const TAG_BLOCK: u8 = b'B';
const TAG_FOOTER: u8 = b'F';

/// Why a `.dtr` stream could not be decoded.
#[derive(Debug)]
pub enum TraceFormatError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The first four bytes are not the `.dtr` magic.
    BadMagic,
    /// The header names a version this build does not read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A block's payload failed its CRC — the block was torn or corrupted.
    CorruptBlock {
        /// 0-based index of the damaged block.
        index: usize,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload as read.
        computed: u32,
    },
    /// Structural damage: truncation, a bad tag, a varint overrun, or a
    /// record count that does not match the payload.
    Malformed {
        /// What was wrong, in reader terms.
        what: String,
    },
    /// The footer's total disagrees with the records actually decoded.
    CountMismatch {
        /// Total the footer claims.
        footer: u64,
        /// Records decoded from the blocks.
        decoded: u64,
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::Io(e) => write!(f, "I/O error: {e}"),
            TraceFormatError::BadMagic => write!(f, "not a .dtr file (bad magic)"),
            TraceFormatError::UnsupportedVersion { found } => write!(
                f,
                ".dtr version {found} unsupported (this build reads {FORMAT_VERSION})"
            ),
            TraceFormatError::CorruptBlock {
                index,
                stored,
                computed,
            } => write!(
                f,
                "block {index} corrupt: stored crc {stored:08x}, computed {computed:08x}"
            ),
            TraceFormatError::Malformed { what } => write!(f, "malformed .dtr: {what}"),
            TraceFormatError::CountMismatch { footer, decoded } => write!(
                f,
                "footer claims {footer} items but blocks decoded {decoded}"
            ),
        }
    }
}

impl std::error::Error for TraceFormatError {}

impl From<io::Error> for TraceFormatError {
    fn from(e: io::Error) -> Self {
        TraceFormatError::Io(e)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn take_varint(payload: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = payload.get(*pos) else {
            return Err("varint runs past the block payload".into());
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err("varint overflows 64 bits".into());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Streaming `.dtr` encoder.
///
/// Push items, then call [`TraceWriter::finish`] — dropping the writer
/// without finishing leaves the stream footer-less, which readers report
/// as truncation.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    payload: Vec<u8>,
    block_records: u32,
    records_in_block: u32,
    prev_addr: u64,
    total: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a stream on `out` (writes the header) with the default block
    /// size.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_block_records(out, DEFAULT_BLOCK_RECORDS)
    }

    /// Like [`TraceWriter::new`] with an explicit records-per-block bound
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn with_block_records(mut out: W, block_records: u32) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(TraceWriter {
            out,
            payload: Vec::new(),
            block_records: block_records.max(1),
            records_in_block: 0,
            prev_addr: 0,
            total: 0,
        })
    }

    /// Appends one item to the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink when a block seals.
    pub fn push(&mut self, item: TraceItem) -> io::Result<()> {
        let head = (u64::from(item.gap) << 2)
            | (u64::from(item.is_write) << 1)
            | u64::from(item.depends_on_prev);
        push_varint(&mut self.payload, head);
        let delta = item.addr.wrapping_sub(self.prev_addr) as i64;
        push_varint(&mut self.payload, zigzag(delta));
        self.prev_addr = item.addr;
        self.records_in_block += 1;
        self.total += 1;
        if self.records_in_block >= self.block_records {
            self.seal_block()?;
        }
        Ok(())
    }

    fn seal_block(&mut self) -> io::Result<()> {
        if self.records_in_block == 0 {
            return Ok(());
        }
        self.out.write_all(&[TAG_BLOCK])?;
        self.out
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.records_in_block.to_le_bytes())?;
        self.out.write_all(&self.payload)?;
        self.out.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.payload.clear();
        self.records_in_block = 0;
        self.prev_addr = 0; // per-block delta baseline
        Ok(())
    }

    /// Seals the last block, writes the footer and flushes, returning the
    /// sink and the total item count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        self.seal_block()?;
        self.out.write_all(&[TAG_FOOTER])?;
        let count = self.total.to_le_bytes();
        self.out.write_all(&count)?;
        self.out.write_all(&crc32(&count).to_le_bytes())?;
        self.out.flush()?;
        Ok((self.out, self.total))
    }
}

/// Streaming `.dtr` decoder: an iterator of `Result<TraceItem, _>` that
/// validates each block's CRC before surfacing any record from it, and the
/// footer count at the end.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inp: R,
    cur: std::vec::IntoIter<TraceItem>,
    blocks_read: usize,
    decoded: u64,
    /// Set once the footer validated (`Ok`) or an error was surfaced.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a stream: reads and validates the header.
    ///
    /// # Errors
    ///
    /// [`TraceFormatError::BadMagic`] / [`TraceFormatError::UnsupportedVersion`]
    /// on a foreign or future file, or the underlying I/O error.
    pub fn new(mut inp: R) -> Result<Self, TraceFormatError> {
        let mut magic = [0u8; 4];
        read_exact_or(&mut inp, &mut magic, "truncated header")?;
        if magic != MAGIC {
            return Err(TraceFormatError::BadMagic);
        }
        let mut ver = [0u8; 4];
        read_exact_or(&mut inp, &mut ver, "truncated header")?;
        let found = u32::from_le_bytes(ver);
        if found != FORMAT_VERSION {
            return Err(TraceFormatError::UnsupportedVersion { found });
        }
        Ok(TraceReader {
            inp,
            cur: Vec::new().into_iter(),
            blocks_read: 0,
            decoded: 0,
            done: false,
        })
    }

    /// Decodes the next whole block, or validates the footer and returns
    /// `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Any [`TraceFormatError`]; after an error the reader is done.
    pub fn next_block(&mut self) -> Result<Option<Vec<TraceItem>>, TraceFormatError> {
        if self.done {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        match self.inp.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.done = true;
                return Err(TraceFormatError::Malformed {
                    what: "stream ends without a footer (truncated file)".into(),
                });
            }
            Err(e) => {
                self.done = true;
                return Err(e.into());
            }
        }
        match tag[0] {
            TAG_BLOCK => match self.read_block() {
                Ok(items) => Ok(Some(items)),
                Err(e) => {
                    self.done = true;
                    Err(e)
                }
            },
            TAG_FOOTER => {
                self.done = true;
                let mut count = [0u8; 8];
                read_exact_or(&mut self.inp, &mut count, "truncated footer")?;
                let mut stored = [0u8; 4];
                read_exact_or(&mut self.inp, &mut stored, "truncated footer")?;
                let stored = u32::from_le_bytes(stored);
                let computed = crc32(&count);
                if stored != computed {
                    return Err(TraceFormatError::CorruptBlock {
                        index: self.blocks_read,
                        stored,
                        computed,
                    });
                }
                let footer = u64::from_le_bytes(count);
                if footer != self.decoded {
                    return Err(TraceFormatError::CountMismatch {
                        footer,
                        decoded: self.decoded,
                    });
                }
                let mut extra = [0u8; 1];
                match self.inp.read_exact(&mut extra) {
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
                    Ok(()) => Err(TraceFormatError::Malformed {
                        what: "bytes after the footer".into(),
                    }),
                    Err(e) => Err(e.into()),
                }
            }
            other => {
                self.done = true;
                Err(TraceFormatError::Malformed {
                    what: format!("unknown block tag {other:#04x}"),
                })
            }
        }
    }

    fn read_block(&mut self) -> Result<Vec<TraceItem>, TraceFormatError> {
        let mut len = [0u8; 4];
        read_exact_or(&mut self.inp, &mut len, "truncated block header")?;
        let mut count = [0u8; 4];
        read_exact_or(&mut self.inp, &mut count, "truncated block header")?;
        let len = u32::from_le_bytes(len) as usize;
        let count = u32::from_le_bytes(count);
        let mut payload = vec![0u8; len];
        read_exact_or(&mut self.inp, &mut payload, "truncated block payload")?;
        let mut stored = [0u8; 4];
        read_exact_or(&mut self.inp, &mut stored, "truncated block crc")?;
        let stored = u32::from_le_bytes(stored);
        let computed = crc32(&payload);
        let index = self.blocks_read;
        self.blocks_read += 1;
        if stored != computed {
            return Err(TraceFormatError::CorruptBlock {
                index,
                stored,
                computed,
            });
        }
        let items =
            decode_block(&payload, count).map_err(|what| TraceFormatError::Malformed { what })?;
        self.decoded += u64::from(count);
        Ok(items)
    }

    /// Blocks decoded so far.
    pub fn blocks_read(&self) -> usize {
        self.blocks_read
    }
}

fn read_exact_or<R: Read>(inp: &mut R, buf: &mut [u8], what: &str) -> Result<(), TraceFormatError> {
    inp.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceFormatError::Malformed { what: what.into() }
        } else {
            TraceFormatError::Io(e)
        }
    })
}

/// Decodes one block payload into items.
pub(crate) fn decode_block(payload: &[u8], count: u32) -> Result<Vec<TraceItem>, String> {
    let mut items = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    let mut prev_addr = 0u64;
    for _ in 0..count {
        let head = take_varint(payload, &mut pos)?;
        let gap = u32::try_from(head >> 2).map_err(|_| "gap exceeds u32".to_string())?;
        let delta = unzigzag(take_varint(payload, &mut pos)?);
        let addr = prev_addr.wrapping_add(delta as u64);
        prev_addr = addr;
        items.push(TraceItem {
            gap,
            addr,
            is_write: head & 0b10 != 0,
            depends_on_prev: head & 0b01 != 0,
        });
    }
    if pos != payload.len() {
        return Err(format!(
            "block payload has {} trailing bytes after {count} records",
            payload.len() - pos
        ));
    }
    Ok(items)
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceItem, TraceFormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(item) = self.cur.next() {
            return Some(Ok(item));
        }
        match self.next_block() {
            Ok(Some(items)) => {
                self.cur = items.into_iter();
                self.cur.next().map(Ok)
            }
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Reads a whole `.dtr` stream into memory, validating everything.
///
/// # Errors
///
/// The first [`TraceFormatError`] encountered.
pub fn read_all<R: Read>(inp: R) -> Result<Vec<TraceItem>, TraceFormatError> {
    let mut reader = TraceReader::new(inp)?;
    let mut items = Vec::new();
    while let Some(block) = reader.next_block()? {
        items.extend(block);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<TraceItem> {
        (0..n)
            .map(|i| TraceItem {
                gap: (i % 97) as u32,
                addr: 0x4000_0000 + (i * 64) % 8192 + (i / 13) * 8192,
                is_write: i % 5 == 0,
                depends_on_prev: i % 5 != 0 && i % 3 == 0,
            })
            .collect()
    }

    fn encode(items: &[TraceItem], block: u32) -> Vec<u8> {
        let mut w = TraceWriter::with_block_records(Vec::new(), block).unwrap();
        for &i in items {
            w.push(i).unwrap();
        }
        let (bytes, count) = w.finish().unwrap();
        assert_eq!(count, items.len() as u64);
        bytes
    }

    #[test]
    fn roundtrip_across_block_boundaries() {
        for block in [1, 3, 64, 4096] {
            let items = sample(1000);
            let bytes = encode(&items, block);
            assert_eq!(read_all(bytes.as_slice()).unwrap(), items, "block {block}");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode(&[], 16);
        assert_eq!(read_all(bytes.as_slice()).unwrap(), Vec::new());
    }

    #[test]
    fn varints_survive_extreme_values() {
        let items = vec![
            TraceItem {
                gap: u32::MAX,
                addr: u64::MAX,
                is_write: true,
                depends_on_prev: false,
            },
            TraceItem::load(0, 0),
            TraceItem::dependent_load(1, u64::MAX / 2),
        ];
        let bytes = encode(&items, 2);
        assert_eq!(read_all(bytes.as_slice()).unwrap(), items);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let items = sample(4);
        let mut bytes = encode(&items, 16);
        bytes[0] = b'X';
        assert!(matches!(
            read_all(bytes.as_slice()),
            Err(TraceFormatError::BadMagic)
        ));
        let mut bytes = encode(&items, 16);
        bytes[4] = 0x7f; // version 0x7f
        assert!(matches!(
            read_all(bytes.as_slice()),
            Err(TraceFormatError::UnsupportedVersion { found: 0x7f })
        ));
    }

    #[test]
    fn corrupt_payload_is_rejected_by_crc() {
        let items = sample(300);
        let bytes = encode(&items, 128);
        // Flip one payload byte in the second block: header is 8 bytes,
        // find the second 'B' tag and damage a byte well inside it.
        let mut pos = 8usize;
        let mut starts = Vec::new();
        while pos < bytes.len() && bytes[pos] == TAG_BLOCK {
            starts.push(pos);
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
            pos += 1 + 4 + 4 + len + 4;
        }
        assert!(starts.len() >= 2, "need two blocks");
        let mut damaged = bytes.clone();
        damaged[starts[1] + 12] ^= 0x40;
        match read_all(damaged.as_slice()) {
            Err(TraceFormatError::CorruptBlock { index: 1, .. }) => {}
            other => panic!("expected CorruptBlock in block 1, got {other:?}"),
        }
        // The undamaged prefix still streams: the iterator yields the whole
        // first block before surfacing the error.
        let mut r = TraceReader::new(damaged.as_slice()).unwrap();
        let first: Vec<_> = r.by_ref().take(128).map(Result::unwrap).collect();
        assert_eq!(first, items[..128]);
        assert!(r.next().unwrap().is_err());
    }

    #[test]
    fn truncation_is_reported() {
        let items = sample(50);
        let bytes = encode(&items, 16);
        for cut in [bytes.len() - 1, bytes.len() - 13, 9, 5] {
            let err = read_all(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceFormatError::Malformed { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn footer_count_mismatch_is_reported() {
        let items = sample(20);
        let mut bytes = encode(&items, 64);
        // The footer is the last 13 bytes: tag + count + crc. Rewrite the
        // count (and fix its crc so the count check itself is reached).
        let flen = bytes.len();
        let count_at = flen - 12;
        bytes[count_at..count_at + 8].copy_from_slice(&21u64.to_le_bytes());
        let crc = crc32(&bytes[count_at..count_at + 8]);
        bytes[flen - 4..].copy_from_slice(&crc.to_le_bytes());
        match read_all(bytes.as_slice()) {
            Err(TraceFormatError::CountMismatch {
                footer: 21,
                decoded: 20,
            }) => {}
            other => panic!("expected CountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample(5), 16);
        bytes.push(0xAA);
        assert!(matches!(
            read_all(bytes.as_slice()),
            Err(TraceFormatError::Malformed { .. })
        ));
    }

    #[test]
    fn iterator_and_block_reader_agree() {
        let items = sample(500);
        let bytes = encode(&items, 100);
        let via_iter: Vec<_> = TraceReader::new(bytes.as_slice())
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(via_iter, items);
    }

    #[test]
    fn compression_beats_text() {
        let items = sample(4096);
        let binary = encode(&items, DEFAULT_BLOCK_RECORDS).len();
        let text: usize = items
            .iter()
            .map(|i| format!("{} {:#x} R\n", i.gap, i.addr).len())
            .sum();
        assert!(
            binary * 2 < text,
            "binary {binary} should be well under half of text {text}"
        );
    }
}
