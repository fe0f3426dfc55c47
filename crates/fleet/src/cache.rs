//! The LRU-bounded runtime cache: per-shard diagnosis state, rebuilt on
//! miss and shared across worker threads.
//!
//! A shard's runtime is what batched diagnosis needs beyond the
//! dictionary lookup itself: the scheme registry for the memory width,
//! the dictionary scheme's transform of the source test (the session
//! repair verification re-runs), the MISR template and a memo of the
//! repair-plan verdicts already simulated on it. A miss builds only the
//! first three — one registry and one transform — so a shard that fell
//! out of the cache costs microseconds to bring back; its memo starts
//! empty.
//!
//! The verdict memo maps a matched class's trail to the plan's
//! `(word, spare)` remap and whether it re-verified clean. A plan is
//! verified only when it fully repairs, so it covers every located word
//! in slot order: one plan per class whatever the spare budget, and at
//! most one memoised verdict per ambiguity class. A runtime never holds
//! more than `VERDICT_MEMO_CAPACITY` (4096) of them; a verdict past the
//! cap is computed and not stored. The memo lives and dies with its
//! runtime, so the LRU bound on runtimes bounds it across the fleet too.
//! Only a runtime the cache has handed out more than once stores
//! verdicts: one rebuilt for every lookup would be dropped before any
//! later batch read them.
//!
//! The cache also memoises one **base** [`CoverageEngine`] per
//! `(config, content)` pair for server-side dictionary builds (kept for
//! the life of the cache — there are few distinct shapes in a
//! deployment); a build derives the cheap
//! [`CoverageEngine::with_scheme`] sibling, which clones `Arc`s instead
//! of regenerating contents.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use twm_bist::Misr;
use twm_core::scheme::{SchemeRegistry, SchemeTransform};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy};
use twm_march::MarchTest;
use twm_mem::MemoryConfig;
use twm_obs::Counter;
use twm_repair::{RepairPlan, SignatureTrail, TrailLookup};

use crate::service::lock;
use crate::shard::ShardKey;
use crate::stats::CacheMetrics;
use crate::store::{DictionaryHandle, ShardEntry};
use crate::FleetError;

/// Process-wide runtime-cache counters in the [`twm_obs::global`]
/// registry — the scrapeable mirror of every cache instance's
/// [`CacheMetrics`] snapshot, plus the spill counters the service bumps
/// when a demoted shard goes to disk or fails to.
pub(crate) struct CacheObs {
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) evictions: Counter,
    pub(crate) spills: Counter,
    pub(crate) spill_errors: Counter,
}

pub(crate) fn cache_obs() -> &'static CacheObs {
    static OBS: OnceLock<CacheObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        CacheObs {
            hits: registry.counter("twm_fleet_cache_hits_total", &[]),
            misses: registry.counter("twm_fleet_cache_misses_total", &[]),
            evictions: registry.counter("twm_fleet_cache_evictions_total", &[]),
            spills: registry.counter("twm_fleet_cache_spills_total", &[]),
            spill_errors: registry.counter("twm_fleet_spill_errors_total", &[]),
        }
    })
}

/// The most repair-plan verdicts one [`ShardRuntime`] memoises. It holds
/// every class of an 8×32 single-fault dictionary (at most 1024) four
/// times over; full, with March C−'s nine-signature trails, it takes
/// about 1.6 MB (about 400 B a verdict).
pub(crate) const VERDICT_MEMO_CAPACITY: usize = 4096;

/// Plan verdicts by matched class: the class trail maps to the plan's
/// `(word, spare)` remap and whether the remapped memory verified clean.
type VerdictMemo = HashMap<SignatureTrail, (Box<[(usize, usize)]>, bool)>;

/// Everything a worker thread needs to diagnose one shard's reports.
#[derive(Debug)]
pub struct ShardRuntime {
    /// The source march test the deployment runs.
    pub source: MarchTest,
    /// The scheme registry for the shard's memory width.
    pub registry: SchemeRegistry,
    /// The shard's dictionary handle — resident, or served from its
    /// spill file through the bounded page cache.
    pub dictionary: DictionaryHandle,
    /// The dictionary-scheme transform (the one repair verification
    /// re-runs).
    pub probe: SchemeTransform,
    /// The dictionary's MISR template (reset state).
    pub misr: Misr,
    /// Repair-plan verdicts already simulated on this runtime (see the
    /// module docs). The lock guards one lookup or one insert, never a
    /// session.
    verdicts: Mutex<VerdictMemo>,
    /// Whether the cache has handed this runtime out more than once.
    reused: AtomicBool,
}

impl ShardRuntime {
    fn build(entry: &ShardEntry) -> Result<Self, FleetError> {
        let registry = SchemeRegistry::all(entry.dictionary.config().width())?;
        Self::with_registry(entry, registry)
    }

    /// The runtime of `entry` under `registry`: only the dictionary
    /// scheme's transform is built.
    ///
    /// # Errors
    ///
    /// [`FleetError::Core`] with [`twm_core::CoreError::MissingScheme`]
    /// when `registry` lacks the dictionary's scheme, or the scheme's
    /// transform error.
    fn with_registry(entry: &ShardEntry, registry: SchemeRegistry) -> Result<Self, FleetError> {
        let dictionary = entry.dictionary.clone();
        let probe = registry.transform(dictionary.scheme(), &entry.source)?;
        let misr = dictionary.misr_template().clone();
        Ok(Self {
            source: entry.source.clone(),
            registry,
            dictionary,
            probe,
            misr,
            verdicts: Mutex::new(HashMap::new()),
            reused: AtomicBool::new(false),
        })
    }

    /// The memoised verdict of `plan` on the class whose trail is
    /// `trail`, if one is stored. Allocates nothing.
    pub(crate) fn memoised_verdict(
        &self,
        trail: &SignatureTrail,
        plan: &RepairPlan,
    ) -> Option<bool> {
        let memo = lock(&self.verdicts);
        let (remap, clean) = memo.get(trail)?;
        let same_plan = remap
            .iter()
            .copied()
            .eq(plan.assignments.iter().map(|a| (a.word, a.spare)));
        same_plan.then_some(*clean)
    }

    /// Stores the verdict of `plan` on the class whose trail is `trail`,
    /// unless the class already has one or the memo is full. Two workers
    /// that missed together computed the same verdict, so it does not
    /// matter whose insert lands.
    ///
    /// Only a runtime the cache has handed out more than once stores
    /// verdicts. One rebuilt for every lookup, as under a cache smaller
    /// than the shards in use, is dropped before a later batch could
    /// read them, so storing them would only cost allocations.
    pub(crate) fn memoise_verdict(&self, trail: &SignatureTrail, plan: &RepairPlan, clean: bool) {
        if !self.reused.load(Ordering::Relaxed) {
            return;
        }
        let mut memo = lock(&self.verdicts);
        if memo.len() < VERDICT_MEMO_CAPACITY && !memo.contains_key(trail) {
            let remap = plan.assignments.iter().map(|a| (a.word, a.spare)).collect();
            memo.insert(trail.clone(), (remap, clean));
        }
    }

    /// The memo's lock, for tests that count or poison it.
    #[cfg(test)]
    pub(crate) fn verdict_memo(&self) -> &Mutex<VerdictMemo> {
        &self.verdicts
    }
}

/// LRU cache of shard runtimes plus the per-`(config, content)` base
/// engines server-side dictionary builds derive from.
#[derive(Debug)]
pub struct RuntimeCache {
    capacity: usize,
    strategy: Strategy,
    clock: u64,
    runtimes: BTreeMap<ShardKey, (u64, Arc<ShardRuntime>)>,
    bases: Vec<((MemoryConfig, ContentPolicy), CoverageEngine)>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    evicted: Vec<ShardKey>,
}

impl RuntimeCache {
    /// Creates a cache bounded to `capacity` shard runtimes; base engines
    /// run fault simulations under `strategy`.
    ///
    /// # Errors
    ///
    /// [`FleetError::ZeroCapacity`] for `capacity == 0`.
    pub fn new(capacity: usize, strategy: Strategy) -> Result<Self, FleetError> {
        if capacity == 0 {
            return Err(FleetError::ZeroCapacity);
        }
        Ok(Self {
            capacity,
            strategy,
            clock: 0,
            runtimes: BTreeMap::new(),
            bases: Vec::new(),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            evicted: Vec::new(),
        })
    }

    /// The shard runtime for `key`, touched as most-recently-used;
    /// (re)built from the store entry on a miss, evicting the
    /// least-recently-used runtime when over capacity.
    ///
    /// # Errors
    ///
    /// Propagates registry and transform errors from a cold build.
    pub fn runtime(
        &mut self,
        key: ShardKey,
        entry: &ShardEntry,
    ) -> Result<Arc<ShardRuntime>, FleetError> {
        self.clock += 1;
        if let Some((stamp, runtime)) = self.runtimes.get_mut(&key) {
            *stamp = self.clock;
            runtime.reused.store(true, Ordering::Relaxed);
            self.hits.incr();
            cache_obs().hits.incr();
            return Ok(Arc::clone(runtime));
        }
        self.misses.incr();
        cache_obs().misses.incr();
        let runtime = Arc::new(ShardRuntime::build(entry)?);
        if self.runtimes.len() == self.capacity {
            let oldest = self
                .runtimes
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(&key, _)| key)
                .expect("capacity > 0, so a full cache is non-empty");
            self.runtimes.remove(&oldest);
            self.evictions.incr();
            cache_obs().evictions.incr();
            self.evicted.push(oldest);
        }
        self.runtimes
            .insert(key, (self.clock, Arc::clone(&runtime)));
        Ok(runtime)
    }

    /// Drops a shard's cached runtime (after an eviction from the store).
    pub fn invalidate(&mut self, key: ShardKey) {
        self.runtimes.remove(&key);
    }

    /// Drains the shard keys evicted by the LRU bound since the last
    /// call — the service's hook for demoting cold shards to their spill
    /// files ([`crate::DictionaryStore::spill`]).
    pub fn take_evicted(&mut self) -> Vec<ShardKey> {
        std::mem::take(&mut self.evicted)
    }

    /// A snapshot of the cache health counters. The counters live on
    /// [`twm_obs`] atomics (mirrored into the global registry as
    /// `twm_fleet_cache_*_total`); this accessor is the same thin
    /// per-instance view callers have always had.
    #[must_use]
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of cached shard runtimes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// Whether no runtime is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runtimes.is_empty()
    }

    /// The base engine for a `(config, content)` pair, building and
    /// memoising it on first use. Returns a cheap sibling handle —
    /// engines share their prepared contents through `Arc`s, so deriving
    /// one is O(1) in content size.
    pub(crate) fn base_engine(
        &mut self,
        config: MemoryConfig,
        content: ContentPolicy,
        test: &MarchTest,
    ) -> Result<CoverageEngine, FleetError> {
        if let Some((_, base)) = self.bases.iter().find(|((base_config, base_content), _)| {
            *base_config == config && *base_content == content
        }) {
            return Ok(base.with_test(test)?);
        }
        let base = CoverageEngine::builder(config)
            .test(test)
            .content(content)
            .strategy(self.strategy)
            .build()?;
        let handle = base.with_test(test)?;
        self.bases.push(((config, content), base));
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::SchemeId;
    use twm_core::CoreError;
    use twm_coverage::UniverseBuilder;
    use twm_march::algorithms::march_c_minus;
    use twm_repair::{DictionaryOptions, SignatureDictionary};

    fn entry(scheme: SchemeId) -> ShardEntry {
        let config = MemoryConfig::new(6, 4).unwrap();
        let registry = SchemeRegistry::all(4).unwrap();
        let engine =
            CoverageEngine::for_scheme(registry.get(scheme).unwrap(), &march_c_minus(), config)
                .unwrap()
                .build()
                .unwrap();
        let universe = UniverseBuilder::new(config).stuck_at().build();
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        ShardEntry {
            source: march_c_minus(),
            dictionary: DictionaryHandle::Resident(Arc::new(dictionary)),
        }
    }

    #[test]
    fn a_runtime_holds_the_dictionary_scheme_transform() {
        let entry = entry(SchemeId::Scheme1);
        let runtime = ShardRuntime::build(&entry).unwrap();
        let expected = SchemeRegistry::all(4)
            .unwrap()
            .transform(SchemeId::Scheme1, &march_c_minus())
            .unwrap();
        assert_eq!(runtime.probe, expected);
        assert_eq!(runtime.registry.len(), SchemeId::all().len());
        assert_eq!(&runtime.misr, entry.dictionary.misr_template());
    }

    #[test]
    fn only_a_reused_runtime_memoises_and_never_past_the_cap() {
        let entry = entry(SchemeId::TwmTa);
        let mut cache = RuntimeCache::new(1, Strategy::Serial).unwrap();
        let key = ShardKey::new(entry.dictionary.config(), SchemeId::TwmTa, &entry.source);
        let runtime = cache.runtime(key, &entry).unwrap();
        let plan = twm_repair::RepairAllocator::default().allocate(&[], 1);
        let trail =
            |n: usize| SignatureTrail::new(vec![twm_mem::Word::from_bits(n as u128, 16).unwrap()]);
        runtime.memoise_verdict(&trail(0), &plan, true);
        assert_eq!(runtime.memoised_verdict(&trail(0), &plan), None);

        assert!(Arc::ptr_eq(&runtime, &cache.runtime(key, &entry).unwrap()));
        for n in 0..VERDICT_MEMO_CAPACITY + 16 {
            runtime.memoise_verdict(&trail(n), &plan, true);
        }
        assert_eq!(lock(runtime.verdict_memo()).len(), VERDICT_MEMO_CAPACITY);
        assert_eq!(runtime.memoised_verdict(&trail(0), &plan), Some(true));
        assert_eq!(
            runtime.memoised_verdict(&trail(VERDICT_MEMO_CAPACITY), &plan),
            None,
            "a verdict past the cap is not stored"
        );
    }

    #[test]
    fn a_scheme_missing_from_the_registry_is_a_core_error() {
        // The comparison registry has no Nicolaidis scheme.
        let entry = entry(SchemeId::Nicolaidis);
        let registry = SchemeRegistry::comparison(4).unwrap();
        assert!(matches!(
            ShardRuntime::with_registry(&entry, registry),
            Err(FleetError::Core(CoreError::MissingScheme {
                id: SchemeId::Nicolaidis
            }))
        ));
    }
}
