//! The paged file format, version 1.
//!
//! A store file is a sequence of **fixed-size pages** (the size is chosen
//! at write time and recorded in the header). Every page ends with an
//! 8-byte FNV-1a 64 checksum over its preceding bytes, so the usable
//! capacity of a page is `page_size - 8`. The regions, in file order:
//!
//! | pages | content |
//! |---|---|
//! | `0` | header — magic, version, geometry, ambiguity statistics |
//! | `1 ..= meta_pages` | wire-encoded store metadata (`StoreMeta`), chunked |
//! | next `index_pages` | sorted, prefix-compressed trail-index entries |
//! | next `payload_pages` | length-prefixed wire-encoded injection lists |
//!
//! ## Index entries
//!
//! Trails are stored as raw `u128` little-endian signature words (16
//! bytes each; the shared word width lives in the header). Consecutive
//! trails in one dictionary differ late — per-stage trails share long
//! runs — so each entry stores the length of the prefix it shares with
//! the **previous entry of the same page** plus its suffix:
//!
//! ```text
//! u16 prefix_words | u16 suffix_words | u32 injections
//! | u32 payload_page | u32 payload_offset | suffix_words × u128 LE
//! ```
//!
//! `prefix_words + suffix_words` always equals the dictionary's trail
//! length, and the first entry of every page is written with a zero
//! prefix, so pages are self-contained. Each page's first trail is its
//! **fence key**: opening a store reads every index page once and keeps
//! the fences resident, and a lookup binary-searches them in RAM, then
//! reads and scans one page. A `0xFFFF` prefix marks end-of-page early. Payload handles are `(page, offset)` into the
//! payload region's linear byte stream (records may span pages).

use crate::{StoreError, FORMAT_VERSION};

/// The file magic: identifies a paged dictionary store.
pub const MAGIC: [u8; 8] = *b"TWMSTORE";

/// Bytes of every page reserved for its FNV-1a 64 checksum.
pub const CHECKSUM_LEN: usize = 8;

/// Smallest accepted page size. Tests use small pages to force many-page
/// files; production defaults to 4096.
pub const MIN_PAGE_SIZE: usize = 128;

/// Largest accepted page size (a sanity bound when reading headers, so a
/// corrupt size cannot drive a giant allocation).
pub const MAX_PAGE_SIZE: usize = 1 << 24;

/// Fixed byte size of an index entry before its suffix words.
pub const ENTRY_FIXED: usize = 16;

/// Bytes per trail signature word on disk (`u128` LE).
pub const TRAIL_WORD_BYTES: usize = 16;

/// The `prefix_words` sentinel marking end-of-entries within a page.
pub const END_OF_PAGE: u16 = 0xFFFF;

/// FNV-1a 64 over a byte slice — page checksums and test fingerprints.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Writes `page`'s checksum over its own contents into its last 8 bytes.
pub fn seal_page(page: &mut [u8]) {
    let body = page.len() - CHECKSUM_LEN;
    let checksum = fnv64(&page[..body]);
    page[body..].copy_from_slice(&checksum.to_le_bytes());
}

/// Verifies `page`'s trailing checksum.
///
/// # Errors
///
/// [`StoreError::ChecksumMismatch`] naming `index` when it does not match.
pub fn verify_page(page: &[u8], index: u32) -> Result<(), StoreError> {
    let body = page.len() - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(page[body..].try_into().expect("8 checksum bytes"));
    if fnv64(&page[..body]) != stored {
        return Err(StoreError::ChecksumMismatch { page: index });
    }
    Ok(())
}

/// Number of pages needed to hold `bytes` at `capacity` usable bytes per
/// page.
#[must_use]
pub fn pages_for(bytes: u64, capacity: usize) -> u32 {
    u32::try_from(bytes.div_ceil(capacity as u64)).expect("page count fits u32")
}

/// The decoded header page — the file geometry plus the precomputed
/// ambiguity statistics (fixed-width, so the header can be rewritten in
/// place once the class stream has been drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Page size in bytes, checksum included.
    pub page_size: u32,
    /// Byte length of the wire-encoded metadata region.
    pub meta_bytes: u64,
    /// Pages holding the metadata region.
    pub meta_pages: u32,
    /// Pages holding the sorted trail index.
    pub index_pages: u32,
    /// Pages holding the payload region.
    pub payload_pages: u32,
    /// Ambiguity classes indexed (index entries).
    pub entries: u64,
    /// Signature-detectable injections indexed.
    pub indexed: u64,
    /// Injections undetected under the reference content.
    pub undetected: u64,
    /// Size of the largest ambiguity class.
    pub max_class_size: u64,
    /// Classes holding exactly one injection.
    pub distinguishable: u64,
    /// Signatures per trail.
    pub trail_words: u32,
    /// Bit width of every signature word.
    pub width: u32,
    /// Byte length of the payload region's linear stream.
    pub payload_bytes: u64,
}

impl Header {
    /// Encodes the header into a zeroed page buffer and seals it.
    ///
    /// # Panics
    ///
    /// Panics if `page` is shorter than the fixed header layout — the
    /// writer validates the page size first.
    pub fn encode(&self, page: &mut [u8]) {
        page.fill(0);
        page[0..8].copy_from_slice(&MAGIC);
        page[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        page[12..16].copy_from_slice(&self.page_size.to_le_bytes());
        page[16..24].copy_from_slice(&self.meta_bytes.to_le_bytes());
        page[24..28].copy_from_slice(&self.meta_pages.to_le_bytes());
        page[28..32].copy_from_slice(&self.index_pages.to_le_bytes());
        page[32..36].copy_from_slice(&self.payload_pages.to_le_bytes());
        page[36..44].copy_from_slice(&self.entries.to_le_bytes());
        page[44..52].copy_from_slice(&self.indexed.to_le_bytes());
        page[52..60].copy_from_slice(&self.undetected.to_le_bytes());
        page[60..68].copy_from_slice(&self.max_class_size.to_le_bytes());
        page[68..76].copy_from_slice(&self.distinguishable.to_le_bytes());
        page[76..80].copy_from_slice(&self.trail_words.to_le_bytes());
        page[80..84].copy_from_slice(&self.width.to_le_bytes());
        page[84..92].copy_from_slice(&self.payload_bytes.to_le_bytes());
        seal_page(page);
    }

    /// Decodes a verified header page.
    ///
    /// The caller has already checked magic, version and checksum (they
    /// need the page size before the page can be fetched whole); this
    /// only lifts the remaining fields.
    #[must_use]
    pub fn decode(page: &[u8]) -> Self {
        let u32_at = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(page[at..at + 8].try_into().expect("8 bytes"));
        Self {
            page_size: u32_at(12),
            meta_bytes: u64_at(16),
            meta_pages: u32_at(24),
            index_pages: u32_at(28),
            payload_pages: u32_at(32),
            entries: u64_at(36),
            indexed: u64_at(44),
            undetected: u64_at(52),
            max_class_size: u64_at(60),
            distinguishable: u64_at(68),
            trail_words: u32_at(76),
            width: u32_at(80),
            payload_bytes: u64_at(84),
        }
    }

    /// Usable bytes per page (page size minus the checksum).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.page_size as usize - CHECKSUM_LEN
    }

    /// Total pages in the file.
    #[must_use]
    pub fn total_pages(&self) -> u32 {
        1 + self.meta_pages + self.index_pages + self.payload_pages
    }

    /// First page of the index region.
    #[must_use]
    pub fn index_start(&self) -> u32 {
        1 + self.meta_pages
    }

    /// First page of the payload region.
    #[must_use]
    pub fn payload_start(&self) -> u32 {
        self.index_start() + self.index_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_a_page() {
        let header = Header {
            page_size: 256,
            meta_bytes: 321,
            meta_pages: 2,
            index_pages: 9,
            payload_pages: 4,
            entries: 100,
            indexed: 140,
            undetected: 3,
            max_class_size: 7,
            distinguishable: 80,
            trail_words: 11,
            width: 8,
            payload_bytes: 999,
        };
        let mut page = vec![0u8; 256];
        header.encode(&mut page);
        assert_eq!(&page[0..8], &MAGIC);
        verify_page(&page, 0).unwrap();
        assert_eq!(Header::decode(&page), header);
        assert_eq!(header.capacity(), 248);
        assert_eq!(header.total_pages(), 16);
        assert_eq!(header.index_start(), 3);
        assert_eq!(header.payload_start(), 12);
    }

    #[test]
    fn checksums_catch_a_flipped_byte() {
        let mut page = vec![0u8; 128];
        page[40] = 7;
        seal_page(&mut page);
        verify_page(&page, 5).unwrap();
        page[41] ^= 0x10;
        assert!(matches!(
            verify_page(&page, 5),
            Err(StoreError::ChecksumMismatch { page: 5 })
        ));
    }

    #[test]
    fn page_math() {
        assert_eq!(pages_for(0, 120), 0);
        assert_eq!(pages_for(1, 120), 1);
        assert_eq!(pages_for(120, 120), 1);
        assert_eq!(pages_for(121, 120), 2);
    }
}
