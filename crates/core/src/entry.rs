//! The 64-byte log entry format.
//!
//! Paper §4.1: the logging data size is 32 bytes, leaving the remainder of
//! a 64-byte cache line for metadata, so one `log-flush` writes exactly one
//! line. The layout used here (as 8-byte words):
//!
//! | word | contents |
//! |------|----------|
//! | 0-3  | 32 B of original data from the log-from grain |
//! | 4    | log-from grain base address |
//! | 5    | transaction ID |
//! | 6    | flags: bit 0 = valid, bit 1 = commit marker |
//! | 7    | per-thread monotonic sequence number |
//!
//! The sequence number makes "use the earliest log entry" (§4.2's
//! out-of-order flush rule) well defined even after the circular log area
//! wraps: recovery applies, per grain, the entry with the lowest sequence
//! number of the transaction being undone.

use crate::pmem::WordImage;
use proteus_types::{Addr, TxId};

/// Flag bit: entry holds live data.
pub const FLAG_VALID: u64 = 1 << 0;
/// Flag bit: entry is the last of its transaction (commit marker, §4.3).
pub const FLAG_COMMIT_MARKER: u64 = 1 << 1;

/// A decoded undo-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The 32 bytes of pre-transaction data.
    pub data: [u64; 4],
    /// Base address of the 32-byte grain the data came from.
    pub log_from: Addr,
    /// Transaction that created the entry.
    pub tx: TxId,
    /// Whether this entry is its transaction's commit marker.
    pub commit_marker: bool,
    /// Per-thread monotonic sequence number (program order of flushes).
    pub seq: u64,
}

impl LogEntry {
    /// Creates a (non-marker) entry.
    pub fn new(data: [u64; 4], log_from: Addr, tx: TxId, seq: u64) -> Self {
        LogEntry { data, log_from, tx, commit_marker: false, seq }
    }

    /// Returns this entry with the commit marker set.
    pub fn with_commit_marker(mut self) -> Self {
        self.commit_marker = true;
        self
    }

    /// Encodes the entry into its 8-word line image.
    pub fn encode_words(&self) -> [u64; 8] {
        let mut flags = FLAG_VALID;
        if self.commit_marker {
            flags |= FLAG_COMMIT_MARKER;
        }
        [
            self.data[0],
            self.data[1],
            self.data[2],
            self.data[3],
            self.log_from.raw(),
            self.tx.raw(),
            flags,
            self.seq,
        ]
    }

    /// Decodes an entry from a line image; `None` if the valid bit is
    /// clear (an empty or cleared slot).
    pub fn decode_words(words: &[u64; 8]) -> Option<LogEntry> {
        if words[6] & FLAG_VALID == 0 {
            return None;
        }
        Some(LogEntry {
            data: [words[0], words[1], words[2], words[3]],
            log_from: Addr::new(words[4]),
            tx: TxId::new(words[5]),
            commit_marker: words[6] & FLAG_COMMIT_MARKER != 0,
            seq: words[7],
        })
    }

    /// Writes the entry into `image` at log slot address `slot`
    /// (line-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not cache-line aligned.
    pub fn write_to(&self, image: &mut WordImage, slot: Addr) {
        assert!(slot.is_line_aligned(), "log slot must be line aligned");
        image.write_line(slot.line(), &self.encode_words());
    }

    /// Reads an entry from `image` at log slot address `slot`.
    pub fn read_from(image: &WordImage, slot: Addr) -> Option<LogEntry> {
        Self::decode_words(&image.read_line(slot.line()))
    }

    /// Clears the slot at `slot` in `image` (marks it invalid).
    pub fn clear_slot(image: &mut WordImage, slot: Addr) {
        image.write_line(slot.line(), &[0; 8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogEntry {
        LogEntry::new([1, 2, 3, 4], Addr::new(0x1000_0020), TxId::new(9), 77)
    }

    #[test]
    fn word_roundtrip() {
        let e = sample();
        assert_eq!(LogEntry::decode_words(&e.encode_words()), Some(e));
        let m = sample().with_commit_marker();
        let decoded = LogEntry::decode_words(&m.encode_words()).unwrap();
        assert!(decoded.commit_marker);
    }

    #[test]
    fn empty_slot_decodes_none() {
        assert_eq!(LogEntry::decode_words(&[0; 8]), None);
    }

    #[test]
    fn image_roundtrip_and_clear() {
        let mut img = WordImage::new();
        let slot = Addr::new(0x8000_0040);
        let e = sample();
        e.write_to(&mut img, slot);
        assert_eq!(LogEntry::read_from(&img, slot), Some(e));
        LogEntry::clear_slot(&mut img, slot);
        assert_eq!(LogEntry::read_from(&img, slot), None);
    }

    #[test]
    #[should_panic(expected = "line aligned")]
    fn unaligned_slot_rejected() {
        let mut img = WordImage::new();
        sample().write_to(&mut img, Addr::new(0x8000_0008));
    }
}
