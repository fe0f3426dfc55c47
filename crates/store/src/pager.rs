//! The [`Pager`]: checksum-verified page reads behind a bounded LRU
//! cache.
//!
//! A lookup against a paged dictionary touches one index page (picked
//! by the resident fence keys) and the payload pages of one record; the
//! pager keeps the hot ones resident under a configurable **byte
//! budget** and evicts least-recently-used pages beyond it. Serving
//! memory is the header, the metadata, one fence trail per index page
//! and this budget — not the dictionary size. [`PageCacheMetrics`] mirrors the fleet runtime
//! cache's hit/miss/eviction counters so deployments can size the budget
//! from observed hit rates.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use twm_obs::Counter;

use crate::format::{verify_page, CHECKSUM_LEN};
use crate::StoreError;

/// Process-wide page-cache counters in the [`twm_obs::global`]
/// registry, mirroring every pager instance — the scrapeable side of
/// the per-instance [`PageCacheMetrics`] snapshots.
struct StoreObs {
    reads: Counter,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    checksum_failures: Counter,
}

fn store_obs() -> &'static StoreObs {
    static OBS: OnceLock<StoreObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        StoreObs {
            reads: registry.counter("twm_store_page_reads_total", &[]),
            hits: registry.counter("twm_store_page_hits_total", &[]),
            misses: registry.counter("twm_store_page_misses_total", &[]),
            evictions: registry.counter("twm_store_page_evictions_total", &[]),
            checksum_failures: registry.counter("twm_store_checksum_failures_total", &[]),
        }
    })
}

/// Hit/miss/eviction counters of a page cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageCacheMetrics {
    /// Page requests served from the cache.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Pages evicted to stay under the byte budget.
    pub evictions: u64,
}

impl PageCacheMetrics {
    /// Fraction of requests served from the cache (1.0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CachedPage {
    stamp: u64,
    data: Arc<[u8]>,
}

/// Per-instance [`twm_obs::Counter`]s behind [`Pager::metrics`] —
/// the `PageCacheMetrics` struct is now a *snapshot* of these, so the
/// counters live on the observability registry's atomic primitives
/// while every existing accessor keeps working.
#[derive(Debug, Default)]
struct PagerCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl PagerCounters {
    fn snapshot(&self) -> PageCacheMetrics {
        PageCacheMetrics {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

/// Checksum-verified page reads over one store file, LRU-cached under a
/// byte budget. See the [module docs](self).
pub struct Pager {
    file: File,
    page_size: usize,
    pages: u32,
    budget: usize,
    clock: u64,
    cached_bytes: usize,
    cache: BTreeMap<u32, CachedPage>,
    metrics: PagerCounters,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("page_size", &self.page_size)
            .field("pages", &self.pages)
            .field("budget", &self.budget)
            .field("cached", &self.cache.len())
            .field("metrics", &self.metrics.snapshot())
            .finish_non_exhaustive()
    }
}

impl Pager {
    /// Wraps an open store file.
    ///
    /// `pages` is the total page count the header promises; reads beyond
    /// it are structural corruption, not I/O errors.
    #[must_use]
    pub fn new(file: File, page_size: usize, pages: u32, budget: usize) -> Self {
        Self {
            file,
            page_size,
            pages,
            budget,
            clock: 0,
            cached_bytes: 0,
            cache: BTreeMap::new(),
            metrics: PagerCounters::default(),
        }
    }

    /// The cache's byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// A snapshot of the cache counters so far. The counters live on
    /// [`twm_obs`] atomics (mirrored into the global registry as
    /// `twm_store_page_*_total`); this accessor is the same thin
    /// per-instance view callers have always had.
    #[must_use]
    pub fn metrics(&self) -> PageCacheMetrics {
        self.metrics.snapshot()
    }

    /// Bytes currently held by cached pages.
    #[must_use]
    pub fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// Fetches a page, checksum verified, from cache or disk.
    ///
    /// The returned slice is the page's **usable body** (checksum
    /// stripped), shared with the cache.
    ///
    /// # Errors
    ///
    /// * [`StoreError::Corrupt`] for a page beyond the header's count.
    /// * [`StoreError::Truncated`] when the file ends inside the page.
    /// * [`StoreError::ChecksumMismatch`] when its checksum fails.
    /// * [`StoreError::Io`] for other I/O failures.
    pub fn page(&mut self, index: u32) -> Result<Arc<[u8]>, StoreError> {
        if index >= self.pages {
            return Err(StoreError::Corrupt(format!(
                "page {index} beyond the file's {} pages",
                self.pages
            )));
        }
        self.clock += 1;
        let obs = store_obs();
        obs.reads.incr();
        if let Some(cached) = self.cache.get_mut(&index) {
            cached.stamp = self.clock;
            self.metrics.hits.incr();
            obs.hits.incr();
            return Ok(Arc::clone(&cached.data));
        }
        self.metrics.misses.incr();
        obs.misses.incr();

        let mut page = vec![0u8; self.page_size];
        self.file
            .seek(SeekFrom::Start(index as u64 * self.page_size as u64))?;
        self.file.read_exact(&mut page).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated { page: index }
            } else {
                StoreError::Io(e)
            }
        })?;
        if let Err(error) = verify_page(&page, index) {
            obs.checksum_failures.incr();
            return Err(error);
        }
        page.truncate(self.page_size - CHECKSUM_LEN);
        let data: Arc<[u8]> = page.into();

        // Cache only when the budget fits at least one page; evict LRU
        // pages until this one fits.
        if self.page_size <= self.budget {
            while self.cached_bytes + self.page_size > self.budget {
                let Some((&oldest, _)) = self.cache.iter().min_by_key(|(_, page)| page.stamp)
                else {
                    break;
                };
                self.cache.remove(&oldest);
                self.cached_bytes -= self.page_size;
                self.metrics.evictions.incr();
                obs.evictions.incr();
            }
            self.cache.insert(
                index,
                CachedPage {
                    stamp: self.clock,
                    data: Arc::clone(&data),
                },
            );
            self.cached_bytes += self.page_size;
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::seal_page;
    use std::io::Write;

    fn store_file(pages: u32, page_size: usize) -> File {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "twm-pager-test-{}-{pages}x{page_size}",
            std::process::id()
        ));
        let mut file = File::create(&path).unwrap();
        for index in 0..pages {
            let mut page = vec![index as u8; page_size];
            seal_page(&mut page);
            file.write_all(&page).unwrap();
        }
        drop(file);
        let file = File::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        file
    }

    #[test]
    fn pages_round_trip_with_lru_eviction() {
        let mut pager = Pager::new(store_file(4, 128), 128, 4, 256); // budget: 2 pages
        assert_eq!(pager.page(0).unwrap()[0], 0);
        assert_eq!(pager.page(1).unwrap()[0], 1);
        assert_eq!(pager.page(0).unwrap()[0], 0); // hit, freshens 0
        assert_eq!(pager.page(2).unwrap()[0], 2); // evicts 1 (LRU)
        assert_eq!(pager.page(0).unwrap()[0], 0); // still cached
        let metrics = pager.metrics();
        assert_eq!(metrics.hits, 2);
        assert_eq!(metrics.misses, 3);
        assert_eq!(metrics.evictions, 1);
        assert!(metrics.hit_rate() > 0.3 && metrics.hit_rate() < 0.5);
        assert_eq!(pager.cached_bytes(), 256);
        // Page 1 was evicted: fetching it again is a miss + eviction.
        assert_eq!(pager.page(1).unwrap()[0], 1);
        assert_eq!(pager.metrics().misses, 4);
    }

    #[test]
    fn a_budget_below_one_page_caches_nothing() {
        let mut pager = Pager::new(store_file(2, 128), 128, 2, 64);
        pager.page(0).unwrap();
        pager.page(0).unwrap();
        assert_eq!(pager.metrics().hits, 0);
        assert_eq!(pager.metrics().misses, 2);
        assert_eq!(pager.cached_bytes(), 0);
    }

    #[test]
    fn out_of_range_and_truncation_are_typed() {
        let mut pager = Pager::new(store_file(2, 128), 128, 5, usize::MAX);
        assert!(matches!(pager.page(9), Err(StoreError::Corrupt(_))));
        // Header promises 5 pages but the file holds 2.
        assert!(matches!(
            pager.page(3),
            Err(StoreError::Truncated { page: 3 })
        ));
    }
}
