//! [`PagedDictionary`]: a signature dictionary served from its paged
//! file through the bounded page cache — the out-of-core counterpart of
//! the in-RAM [`SignatureDictionary`].
//!
//! Resident memory is the header, the small metadata region (scheme,
//! shapes, MISR template, fault-free trail), one **fence key** per index
//! page — the page's first trail — and the page-cache budget. `open`
//! reads every index page once through the checksum-verifying [`Pager`]
//! to collect the fences, so a corrupt index page is reported by `open`
//! rather than by the first lookup that lands on it. A lookup then
//! binary-searches the fences in RAM, scans the one index page they
//! pick (reconstructing prefix-compressed trails), and follows the
//! payload handle to deserialise just the matched class: one index page
//! plus the payload pages of one record, whatever the index size.
//! Serving memory is bounded by [`StoreOptions::cache_budget`] plus the
//! fences, not by the dictionary size.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use twm_bist::Misr;
use twm_core::scheme::SchemeId;
use twm_coverage::{ContentPolicy, CoverageEngine};
use twm_march::MarchTest;
use twm_mem::{Fault, MemoryConfig, Word};
use twm_repair::{
    AmbiguityClass, AmbiguityStats, DictionaryOptions, DictionaryStream, RepairError,
    SignatureDictionary, SignatureTrail, TrailLookup,
};

use crate::format::{
    fnv64, verify_page, Header, END_OF_PAGE, ENTRY_FIXED, MAGIC, MAX_PAGE_SIZE, MIN_PAGE_SIZE,
    TRAIL_WORD_BYTES,
};
use crate::pager::{PageCacheMetrics, Pager};
use crate::writer::write_store;
use crate::{wire, StoreError, FORMAT_VERSION};

/// Geometry and budget of a paged dictionary file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Page size in bytes (checksum included). Default 4096; tests use
    /// small pages to force many-page files.
    pub page_size: usize,
    /// Byte budget of the read-side page cache. Default 64 pages of the
    /// default size (256 KiB). A budget below one page disables caching.
    pub cache_budget: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            page_size: 4096,
            cache_budget: 64 * 4096,
        }
    }
}

/// The resident metadata region of a store file — everything a
/// [`TrailLookup`] must answer without touching the index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StoreMeta {
    pub scheme: SchemeId,
    pub test_name: String,
    /// FNV-1a 64 fingerprint of the source march test's notation when the
    /// source is recorded (matching `twm-fleet`'s `TestFingerprint`), of
    /// the transparent test name otherwise.
    pub fingerprint: u64,
    pub config: MemoryConfig,
    pub content: ContentPolicy,
    pub misr: Misr,
    pub fault_free: SignatureTrail,
    /// The source (non-transparent) march test, recorded by fleet shard
    /// spills so a paged shard can be re-registered after rehydration.
    pub source: Option<MarchTest>,
}

fn fingerprint_of(source: Option<&MarchTest>, test_name: &str) -> u64 {
    match source {
        Some(test) => fnv64(test.to_string().as_bytes()),
        None => fnv64(test_name.as_bytes()),
    }
}

/// A dictionary served from its paged file — see the [module docs](self).
///
/// Lookups take `&self` (the pager sits behind a mutex), so one paged
/// dictionary can serve concurrent fleet workers.
#[derive(Debug)]
pub struct PagedDictionary {
    path: PathBuf,
    header: Header,
    meta: StoreMeta,
    /// The first trail of every index page, `trail_words` signature
    /// words per page, in page order (strictly ascending).
    fences: Vec<u128>,
    pager: Mutex<Pager>,
}

impl PagedDictionary {
    /// Builds a dictionary for a scheme engine over a fault universe,
    /// **streaming classes to `path` as they drain** — the out-of-core
    /// construction path. Inputs and build semantics are exactly
    /// [`SignatureDictionary::build`]'s (same parallel fan-out, same
    /// bit-identical grouping); the file is then reopened with `options`'
    /// cache budget.
    ///
    /// # Errors
    ///
    /// [`StoreError::Repair`] for build failures (see
    /// [`SignatureDictionary::build`]), [`StoreError::InvalidOptions`]
    /// for an unusable page size, [`StoreError::Io`] for file failures.
    pub fn build_to_disk(
        engine: &CoverageEngine,
        universe: &[Fault],
        options: &DictionaryOptions,
        path: impl AsRef<Path>,
        store: &StoreOptions,
    ) -> Result<Self, StoreError> {
        let mut stream = DictionaryStream::build(engine, universe, options)?;
        let meta = StoreMeta {
            scheme: stream.scheme(),
            test_name: stream.test_name().to_string(),
            fingerprint: fingerprint_of(None, stream.test_name()),
            config: stream.config(),
            content: stream.content(),
            misr: stream.misr_template().clone(),
            fault_free: stream.fault_free_trail().clone(),
            source: None,
        };
        let undetected = stream.take_undetected();
        write_store(path.as_ref(), store.page_size, &meta, &undetected, stream)?;
        Self::open(path, store)
    }

    /// Persists an in-RAM dictionary to a paged file at `path`.
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::build_to_disk`], minus the build errors.
    pub fn write(
        dictionary: &SignatureDictionary,
        path: impl AsRef<Path>,
        store: &StoreOptions,
    ) -> Result<(), StoreError> {
        Self::write_with_source(dictionary, None, path, store)
    }

    /// Persists an in-RAM dictionary, recording the source march test the
    /// fleet shard was registered under — the spill path, so rehydration
    /// can rebuild the shard key and its engines.
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::write`].
    pub fn write_with_source(
        dictionary: &SignatureDictionary,
        source: Option<&MarchTest>,
        path: impl AsRef<Path>,
        store: &StoreOptions,
    ) -> Result<(), StoreError> {
        let meta = StoreMeta {
            scheme: dictionary.scheme(),
            test_name: dictionary.test_name().to_string(),
            fingerprint: fingerprint_of(source, dictionary.test_name()),
            config: dictionary.config(),
            content: dictionary.content(),
            misr: dictionary.misr().clone(),
            fault_free: dictionary.fault_free_trail().clone(),
            source: source.cloned(),
        };
        write_store(
            path.as_ref(),
            store.page_size,
            &meta,
            dictionary.undetected(),
            dictionary.classes().iter().cloned(),
        )?;
        Ok(())
    }

    /// Opens a paged dictionary file, verifying magic, version, the
    /// header/metadata checksums and every index page. The header, the
    /// metadata and one fence trail per index page become resident;
    /// `options.cache_budget` bounds everything else.
    ///
    /// (`options.page_size` is ignored on open — the file's recorded page
    /// size wins.)
    ///
    /// # Errors
    ///
    /// * [`StoreError::NotAStore`] when the magic does not match.
    /// * [`StoreError::UnsupportedVersion`] for a foreign format version.
    /// * [`StoreError::Truncated`] / [`StoreError::ChecksumMismatch`] /
    ///   [`StoreError::Corrupt`] for a damaged file.
    /// * [`StoreError::Wire`] when the metadata region does not decode.
    pub fn open(path: impl AsRef<Path>, options: &StoreOptions) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;

        // Bootstrap: magic, version and page size come from the first 16
        // bytes; only then can the full header page be fetched/verified.
        let mut probe = [0u8; 16];
        file.read_exact(&mut probe).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::NotAStore
            } else {
                StoreError::Io(e)
            }
        })?;
        if probe[0..8] != MAGIC {
            return Err(StoreError::NotAStore);
        }
        let version = u32::from_le_bytes(probe[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let page_size = u32::from_le_bytes(probe[12..16].try_into().expect("4 bytes")) as usize;
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StoreError::Corrupt(format!(
                "header page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )));
        }
        let mut header_page = vec![0u8; page_size];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header_page).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated { page: 0 }
            } else {
                StoreError::Io(e)
            }
        })?;
        verify_page(&header_page, 0)?;
        let header = Header::decode(&header_page);

        // Metadata region (verified page by page, then wire-decoded).
        let capacity = header.capacity();
        let mut meta_bytes = Vec::with_capacity(header.meta_bytes as usize);
        let mut page = vec![0u8; page_size];
        for index in 1..=header.meta_pages {
            file.read_exact(&mut page).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    StoreError::Truncated { page: index }
                } else {
                    StoreError::Io(e)
                }
            })?;
            verify_page(&page, index)?;
            meta_bytes.extend_from_slice(&page[..capacity]);
        }
        if (meta_bytes.len() as u64) < header.meta_bytes {
            return Err(StoreError::Corrupt(format!(
                "metadata region holds {} bytes, header promises {}",
                meta_bytes.len(),
                header.meta_bytes
            )));
        }
        meta_bytes.truncate(header.meta_bytes as usize);
        let meta: StoreMeta = wire::from_bytes(&meta_bytes)?;
        if meta.fault_free.len() != header.trail_words as usize {
            return Err(StoreError::Corrupt(format!(
                "metadata fault-free trail holds {} signatures, header promises {}",
                meta.fault_free.len(),
                header.trail_words
            )));
        }
        if meta.config.width() != header.width as usize {
            return Err(StoreError::Corrupt(format!(
                "metadata width {} disagrees with header width {}",
                meta.config.width(),
                header.width
            )));
        }

        let pager = Pager::new(file, page_size, header.total_pages(), options.cache_budget);
        let mut store = Self {
            path,
            header,
            meta,
            fences: Vec::new(),
            pager: Mutex::new(pager),
        };
        store.fences = store.read_fences()?;
        Ok(store)
    }

    /// Reads every index page once and collects its first trail — the
    /// fence keys [`PagedDictionary::lookup`] binary-searches in RAM.
    fn read_fences(&self) -> Result<Vec<u128>, StoreError> {
        let trail_words = self.header.trail_words as usize;
        let mut pager = self.lock_pager();
        let mut fences: Vec<u128> = Vec::new();
        let mut current = Vec::with_capacity(trail_words);
        for page_index in 0..self.header.index_pages {
            let page = pager.page(self.header.index_start() + page_index)?;
            current.clear();
            if self
                .decode_entry(&page, &mut 0, &mut current, page_index)?
                .is_none()
            {
                return Err(StoreError::Corrupt(format!(
                    "index page {page_index} holds no entries"
                )));
            }
            if let Some(previous) = fences.len().checked_sub(trail_words) {
                if fences[previous..] >= current[..] {
                    return Err(StoreError::Corrupt(format!(
                        "index page {page_index} does not sort after its predecessor"
                    )));
                }
            }
            fences.extend_from_slice(&current);
        }
        Ok(fences)
    }

    /// The file the dictionary is served from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the store file in bytes.
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        u64::from(self.header.total_pages()) * u64::from(self.header.page_size)
    }

    /// The file's page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.header.page_size as usize
    }

    /// Number of ambiguity classes indexed.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.header.entries as usize
    }

    /// The source march test recorded at write time (fleet spills), if
    /// any.
    #[must_use]
    pub fn source(&self) -> Option<&MarchTest> {
        self.meta.source.as_ref()
    }

    /// The recorded test fingerprint (see [`PagedDictionary::write_with_source`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.meta.fingerprint
    }

    /// A snapshot of the page cache's hit/miss/eviction counters.
    #[must_use]
    pub fn cache_metrics(&self) -> PageCacheMetrics {
        self.lock_pager().metrics()
    }

    /// The page cache's byte budget.
    #[must_use]
    pub fn cache_budget(&self) -> usize {
        self.lock_pager().budget()
    }

    fn lock_pager(&self) -> std::sync::MutexGuard<'_, Pager> {
        self.pager
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up an observed trail, deserialising its ambiguity class from
    /// the payload region on a hit. Trails of a different shape than the
    /// dictionary's miss (as with the in-RAM backend).
    ///
    /// # Errors
    ///
    /// [`StoreError`] variants for I/O failures and on-disk corruption —
    /// never panics, never returns a wrong class.
    pub fn lookup(&self, trail: &SignatureTrail) -> Result<Option<AmbiguityClass>, StoreError> {
        let trail_words = self.header.trail_words as usize;
        let width = self.header.width as usize;
        if trail.len() != trail_words
            || trail.signatures().iter().any(|word| word.width() != width)
            || self.header.index_pages == 0
        {
            return Ok(None);
        }
        let target: Vec<u128> = trail
            .signatures()
            .iter()
            .map(|word| word.to_bits())
            .collect();

        // Binary search the resident fences for the last index page whose
        // first trail is <= the target.
        let mut low = 0usize;
        let mut high = self.fences.len() / trail_words;
        while low < high {
            let mid = low + (high - low) / 2;
            let fence = &self.fences[mid * trail_words..(mid + 1) * trail_words];
            if fence <= target.as_slice() {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        let Some(page_index) = low.checked_sub(1) else {
            return Ok(None); // target sorts before the first indexed trail
        };
        let page_index = page_index as u32;

        // Scan the page, reconstructing prefix-compressed trails.
        let mut pager = self.lock_pager();
        let page = pager.page(self.header.index_start() + page_index)?;
        let mut at = 0usize;
        let mut current: Vec<u128> = Vec::with_capacity(trail_words);
        while let Some(entry) = self.decode_entry(&page, &mut at, &mut current, page_index)? {
            if current.as_slice() == target.as_slice() {
                // The stored words equal the target's bits at the
                // target's (checked) width: the class trail is the query.
                return Ok(Some(AmbiguityClass {
                    trail: trail.clone(),
                    injections: self.read_injections(&mut pager, entry, page_index)?,
                }));
            }
            if current.as_slice() > target.as_slice() {
                break; // sorted page: the target cannot appear later
            }
        }
        Ok(None)
    }

    /// Reads the injections not signature-detectable under the reference
    /// content (payload record 0).
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::lookup`].
    pub fn undetected(&self) -> Result<Vec<Vec<Fault>>, StoreError> {
        let mut pager = self.lock_pager();
        self.read_record(&mut pager, 0)
    }

    /// Streams every ambiguity class in trail order — the full-scan path
    /// equivalence tests and [`PagedDictionary::read_dictionary`] use.
    #[must_use]
    pub fn iter(&self) -> ClassIter<'_> {
        ClassIter {
            store: self,
            page: 0,
            at: 0,
            current: Vec::new(),
            done: self.header.index_pages == 0,
        }
    }

    /// Rehydrates the full in-RAM [`SignatureDictionary`] — the fleet
    /// export path. This materialises every class; use
    /// [`PagedDictionary::lookup`] for bounded-memory serving.
    ///
    /// # Errors
    ///
    /// As [`PagedDictionary::lookup`], plus [`StoreError::Repair`] if the
    /// parts no longer assemble (corruption the checksums cannot see).
    pub fn read_dictionary(&self) -> Result<SignatureDictionary, StoreError> {
        let classes = self.iter().collect::<Result<Vec<_>, _>>()?;
        let undetected = self.undetected()?;
        SignatureDictionary::from_parts(
            self.meta.scheme,
            self.meta.test_name.clone(),
            self.meta.config,
            self.meta.content,
            self.meta.misr.clone(),
            self.meta.fault_free.clone(),
            classes,
            undetected,
        )
        .map_err(StoreError::Repair)
    }

    /// Decodes the entry at `*at`, advancing the cursor and rebuilding
    /// the trail into `current`. Returns `None` at end-of-page.
    fn decode_entry(
        &self,
        page: &[u8],
        at: &mut usize,
        current: &mut Vec<u128>,
        page_index: u32,
    ) -> Result<Option<IndexEntry>, StoreError> {
        let trail_words = self.header.trail_words as usize;
        let capacity = page.len();
        if *at + 2 > capacity {
            return Ok(None);
        }
        let prefix = u16::from_le_bytes(page[*at..*at + 2].try_into().expect("2 bytes"));
        if prefix == END_OF_PAGE {
            return Ok(None);
        }
        if *at + ENTRY_FIXED > capacity {
            // A zeroed tail decodes as prefix 0 / suffix 0 — only valid
            // as an entry when a real entry fits; anything else is
            // structural corruption unless it is the zero padding of the
            // final partial page.
            return Ok(None);
        }
        let suffix = usize::from(u16::from_le_bytes(
            page[*at + 2..*at + 4].try_into().expect("2 bytes"),
        ));
        let prefix = usize::from(prefix);
        if prefix + suffix != trail_words {
            // The zero padding after the last entry of a page reads as
            // prefix 0 + suffix 0; a dictionary trail always has at least
            // one signature, so this cleanly marks end-of-entries.
            if prefix == 0 && suffix == 0 {
                return Ok(None);
            }
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: entry prefix {prefix} + suffix {suffix} != trail \
                 length {trail_words}"
            )));
        }
        if *at == 0 && prefix != 0 {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: first entry carries prefix {prefix}"
            )));
        }
        if prefix > current.len() {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: entry prefix {prefix} exceeds the reconstructed trail"
            )));
        }
        let suffix_bytes = suffix * TRAIL_WORD_BYTES;
        if *at + ENTRY_FIXED + suffix_bytes > capacity {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: entry suffix runs past the page"
            )));
        }
        let injections = u32::from_le_bytes(page[*at + 4..*at + 8].try_into().expect("4 bytes"));
        let handle_page = u32::from_le_bytes(page[*at + 8..*at + 12].try_into().expect("4 bytes"));
        let handle_offset =
            u32::from_le_bytes(page[*at + 12..*at + 16].try_into().expect("4 bytes"));
        current.truncate(prefix);
        let mut word_at = *at + ENTRY_FIXED;
        for _ in 0..suffix {
            current.push(u128::from_le_bytes(
                page[word_at..word_at + TRAIL_WORD_BYTES]
                    .try_into()
                    .expect("16 bytes"),
            ));
            word_at += TRAIL_WORD_BYTES;
        }
        *at = word_at;
        Ok(Some(IndexEntry {
            injections,
            handle_page,
            handle_offset,
        }))
    }

    /// Reads `len` payload bytes from the linear payload stream starting
    /// at `pos` (records may span pages). `held` carries the last page
    /// fetched across calls, so consecutive reads of one record fetch
    /// each of its pages once.
    fn read_payload(
        &self,
        pager: &mut Pager,
        pos: u64,
        len: usize,
        held: &mut Option<(u32, Arc<[u8]>)>,
    ) -> Result<Vec<u8>, StoreError> {
        let capacity = self.header.capacity() as u64;
        if pos + len as u64 > self.header.payload_bytes {
            return Err(StoreError::Corrupt(format!(
                "payload read of {len} bytes at {pos} runs past the {}-byte payload region",
                self.header.payload_bytes
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = pos;
        let mut remaining = len;
        while remaining > 0 {
            let page_index = u32::try_from(pos / capacity)
                .map_err(|_| StoreError::Corrupt("payload position exceeds u32 pages".into()))?;
            let offset = (pos % capacity) as usize;
            let page = match held {
                Some((index, page)) if *index == page_index => Arc::clone(page),
                _ => {
                    let page = pager.page(self.header.payload_start() + page_index)?;
                    *held = Some((page_index, Arc::clone(&page)));
                    page
                }
            };
            let take = remaining.min(page.len() - offset);
            out.extend_from_slice(&page[offset..offset + take]);
            pos += take as u64;
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads the wire record at linear payload position `pos`.
    fn read_record<T: for<'de> Deserialize<'de>>(
        &self,
        pager: &mut Pager,
        pos: u64,
    ) -> Result<T, StoreError> {
        let mut held = None;
        let len_bytes = self.read_payload(pager, pos, 4, &mut held)?;
        let len = u32::from_le_bytes(len_bytes.as_slice().try_into().expect("4 bytes")) as usize;
        let bytes = self.read_payload(pager, pos + 4, len, &mut held)?;
        Ok(wire::from_bytes(&bytes)?)
    }

    fn read_injections(
        &self,
        pager: &mut Pager,
        entry: IndexEntry,
        page_index: u32,
    ) -> Result<Vec<Vec<Fault>>, StoreError> {
        let capacity = self.header.capacity() as u64;
        let pos = u64::from(entry.handle_page) * capacity + u64::from(entry.handle_offset);
        let injections: Vec<Vec<Fault>> = self.read_record(pager, pos)?;
        if injections.len() != entry.injections as usize {
            return Err(StoreError::Corrupt(format!(
                "index page {page_index}: entry promises {} injections, payload holds {}",
                entry.injections,
                injections.len()
            )));
        }
        Ok(injections)
    }
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    injections: u32,
    handle_page: u32,
    handle_offset: u32,
}

/// Streaming iterator over every class of a [`PagedDictionary`], in
/// trail order.
#[derive(Debug)]
pub struct ClassIter<'a> {
    store: &'a PagedDictionary,
    page: u32,
    at: usize,
    current: Vec<u128>,
    done: bool,
}

impl Iterator for ClassIter<'_> {
    type Item = Result<AmbiguityClass, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let width = self.store.header.width as usize;
        loop {
            let mut pager = self.store.lock_pager();
            let page = match pager.page(self.store.header.index_start() + self.page) {
                Ok(page) => page,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            match self
                .store
                .decode_entry(&page, &mut self.at, &mut self.current, self.page)
            {
                Ok(Some(entry)) => {
                    let injections = match self.store.read_injections(&mut pager, entry, self.page)
                    {
                        Ok(injections) => injections,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                    };
                    let signatures = match self
                        .current
                        .iter()
                        .map(|&bits| Word::from_bits(bits, width))
                        .collect::<Result<Vec<_>, _>>()
                    {
                        Ok(words) => words,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(StoreError::Corrupt(format!(
                                "stored trail word: {e}"
                            ))));
                        }
                    };
                    return Some(Ok(AmbiguityClass {
                        trail: SignatureTrail::new(signatures),
                        injections,
                    }));
                }
                Ok(None) => {
                    self.page += 1;
                    self.at = 0;
                    self.current.clear();
                    if self.page >= self.store.header.index_pages {
                        self.done = true;
                        return None;
                    }
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl TrailLookup for PagedDictionary {
    fn scheme(&self) -> SchemeId {
        self.meta.scheme
    }

    fn test_name(&self) -> &str {
        &self.meta.test_name
    }

    fn config(&self) -> MemoryConfig {
        self.meta.config
    }

    fn content(&self) -> ContentPolicy {
        self.meta.content
    }

    fn misr_template(&self) -> &Misr {
        &self.meta.misr
    }

    fn reference_trail(&self) -> &SignatureTrail {
        &self.meta.fault_free
    }

    fn find(&self, trail: &SignatureTrail) -> Result<Option<AmbiguityClass>, RepairError> {
        self.lookup(trail).map_err(StoreError::into_lookup_error)
    }

    fn ambiguity_stats(&self) -> AmbiguityStats {
        AmbiguityStats {
            indexed: self.header.indexed as usize,
            classes: self.header.entries as usize,
            max_class_size: self.header.max_class_size as usize,
            distinguishable: self.header.distinguishable as usize,
            undetected: self.header.undetected as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::SchemeRegistry;
    use twm_march::algorithms::march_c_minus;
    use twm_repair::localise_trail;

    fn engine(words: usize, width: usize) -> (CoverageEngine, Vec<Fault>) {
        let config = MemoryConfig::new(words, width).unwrap();
        let registry = SchemeRegistry::all(width).unwrap();
        let engine = CoverageEngine::for_scheme(
            registry.get(SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .content(ContentPolicy::Random { seed: 11 })
        .build()
        .unwrap();
        let universe = twm_coverage::UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .build();
        (engine, universe)
    }

    fn dictionary(words: usize, width: usize, samples: usize) -> SignatureDictionary {
        let (engine, universe) = engine(words, width);
        let options = DictionaryOptions {
            multi_fault_samples: samples,
            ..DictionaryOptions::default()
        };
        SignatureDictionary::build(&engine, &universe, &options).unwrap()
    }

    fn temp_store(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "twm-paged-test-{}-{tag}.twmstore",
            std::process::id()
        ));
        path
    }

    #[test]
    fn round_trips_through_a_many_page_file() {
        let dictionary = dictionary(8, 4, 40);
        let path = temp_store("round-trip");
        // 256-byte pages force a multi-page index even for this small
        // universe; a 1 KiB budget forces eviction churn during the scan.
        let options = StoreOptions {
            page_size: 256,
            cache_budget: 1024,
        };
        PagedDictionary::write(&dictionary, &path, &options).unwrap();
        let store = PagedDictionary::open(&path, &options).unwrap();

        assert!(store.header.index_pages > 1, "test must span index pages");
        assert_eq!(store.classes(), dictionary.classes().len());
        assert_eq!(store.page_size(), 256);
        assert!(store.file_bytes() > 4 * 1024);
        assert_eq!(TrailLookup::ambiguity_stats(&store), dictionary.stats());
        assert_eq!(TrailLookup::scheme(&store), dictionary.scheme());
        assert_eq!(store.reference_trail(), dictionary.fault_free_trail());
        assert!(store.source().is_none());

        // Every class, bit-identical, via the streaming iterator...
        let streamed: Vec<AmbiguityClass> = store.iter().map(Result::unwrap).collect();
        assert_eq!(streamed.as_slice(), dictionary.classes());
        // ...and via point lookups (fence search, one index page each).
        for class in dictionary.classes() {
            assert_eq!(store.lookup(&class.trail).unwrap().as_ref(), Some(class));
        }
        assert_eq!(
            store.undetected().unwrap().as_slice(),
            dictionary.undetected()
        );
        assert_eq!(store.read_dictionary().unwrap(), dictionary);
        let metrics = store.cache_metrics();
        assert!(metrics.evictions > 0, "budget must have forced evictions");
        assert!(metrics.hits > 0);

        // Misses stay misses — including wrong-shape trails.
        let absent = SignatureTrail::new(vec![Word::ones(4); dictionary.fault_free_trail().len()]);
        if dictionary.lookup(&absent).is_none() {
            assert_eq!(store.lookup(&absent).unwrap(), None);
        }
        let short = SignatureTrail::new(vec![Word::zeros(4)]);
        assert_eq!(store.lookup(&short).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lookups_read_one_index_page_plus_their_record() {
        let dictionary = dictionary(8, 4, 40);
        let path = temp_store("reads-per-lookup");
        // A zero budget caches nothing, so every page request is a miss:
        // `misses` counts disk reads.
        let options = StoreOptions {
            page_size: 256,
            cache_budget: 0,
        };
        PagedDictionary::write(&dictionary, &path, &options).unwrap();
        let store = PagedDictionary::open(&path, &options).unwrap();
        let index_pages = store.header.index_pages;
        assert!(index_pages >= 8, "test must span many index pages");
        let capacity = store.header.capacity() as u64;

        // Each class's payload record span, read straight off the index.
        let mut spans = Vec::new();
        for page_index in 0..index_pages {
            let page = store
                .lock_pager()
                .page(store.header.index_start() + page_index)
                .unwrap();
            let (mut at, mut current) = (0, Vec::new());
            while let Some(entry) = store
                .decode_entry(&page, &mut at, &mut current, page_index)
                .unwrap()
            {
                let pos = u64::from(entry.handle_page) * capacity + u64::from(entry.handle_offset);
                let len = u32::from_le_bytes(
                    store
                        .read_payload(&mut store.lock_pager(), pos, 4, &mut None)
                        .unwrap()
                        .try_into()
                        .unwrap(),
                );
                let end = pos + 4 + u64::from(len) - 1;
                spans.push(end / capacity - pos / capacity + 1);
            }
        }
        assert_eq!(spans.len(), dictionary.classes().len());
        assert!(
            spans.iter().any(|&pages| pages > 1),
            "some record must span pages"
        );

        for (class, payload_pages) in dictionary.classes().iter().zip(spans) {
            let before = store.cache_metrics().misses;
            assert_eq!(store.lookup(&class.trail).unwrap().as_ref(), Some(class));
            assert_eq!(
                store.cache_metrics().misses - before,
                1 + payload_pages,
                "a hit reads one index page plus the pages its record spans"
            );
        }

        // A trail sorting before the first fence is answered from RAM.
        let first = &dictionary.classes()[0].trail;
        let below = SignatureTrail::new(vec![Word::zeros(4); first.len()]);
        assert!(&below < first, "all-zero trail must sort first");
        let before = store.cache_metrics().misses;
        assert_eq!(store.lookup(&below).unwrap(), None);
        assert_eq!(store.cache_metrics().misses, before, "no page read");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn build_to_disk_matches_the_in_ram_build() {
        let (engine, universe) = engine(6, 4);
        let options = DictionaryOptions::default();
        let in_ram = SignatureDictionary::build(&engine, &universe, &options).unwrap();
        let path = temp_store("build-to-disk");
        let store = PagedDictionary::build_to_disk(
            &engine,
            &universe,
            &options,
            &path,
            &StoreOptions {
                page_size: 256,
                cache_budget: 2048,
            },
        )
        .unwrap();
        assert_eq!(store.read_dictionary().unwrap(), in_ram);
        assert_eq!(store.fingerprint(), fnv64(in_ram.test_name().as_bytes()));

        // The paged backend plugs into the same diagnosis front end.
        for class in in_ram.classes().iter().take(8) {
            let paged = localise_trail(&store, &class.trail).unwrap();
            let resident = localise_trail(&in_ram, &class.trail).unwrap();
            assert_eq!(paged, resident);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_with_source_records_the_fleet_fingerprint() {
        let dictionary = dictionary(6, 4, 0);
        let path = temp_store("with-source");
        let source = march_c_minus();
        PagedDictionary::write_with_source(
            &dictionary,
            Some(&source),
            &path,
            &StoreOptions::default(),
        )
        .unwrap();
        let store = PagedDictionary::open(&path, &StoreOptions::default()).unwrap();
        assert_eq!(store.source(), Some(&source));
        assert_eq!(
            store.fingerprint(),
            fnv64(source.to_string().as_bytes()),
            "spill fingerprint must match the fleet TestFingerprint"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsorted_class_streams_are_rejected_and_cleaned_up() {
        let dictionary = dictionary(6, 4, 0);
        let path = temp_store("unsorted");
        let meta = StoreMeta {
            scheme: dictionary.scheme(),
            test_name: dictionary.test_name().to_string(),
            fingerprint: 0,
            config: dictionary.config(),
            content: dictionary.content(),
            misr: dictionary.misr().clone(),
            fault_free: dictionary.fault_free_trail().clone(),
            source: None,
        };
        let mut reversed: Vec<AmbiguityClass> = dictionary.classes().to_vec();
        reversed.reverse();
        let err = write_store(&path, 256, &meta, &[], reversed).unwrap_err();
        assert!(matches!(err, StoreError::UnsortedClasses));
        assert!(!path.exists(), "failed writes must not leave partial files");
    }

    #[test]
    fn opening_garbage_is_a_typed_error() {
        let path = temp_store("garbage");
        std::fs::write(&path, b"definitely not a store file, but long enough").unwrap();
        assert!(matches!(
            PagedDictionary::open(&path, &StoreOptions::default()),
            Err(StoreError::NotAStore)
        ));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            PagedDictionary::open(&path, &StoreOptions::default()),
            Err(StoreError::NotAStore)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn page_size_validation_is_typed() {
        let dictionary = dictionary(6, 4, 0);
        let path = temp_store("bad-page");
        let err = PagedDictionary::write(
            &dictionary,
            &path,
            &StoreOptions {
                page_size: 64,
                cache_budget: 1024,
            },
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::InvalidOptions(_)));
    }
}
