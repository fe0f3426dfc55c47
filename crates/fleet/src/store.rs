//! The sharded dictionary store: every deployment triple's dictionary
//! under its [`ShardKey`], with wire-format persistence and optional
//! **disk spill** through [`twm_store::PagedDictionary`].
//!
//! A shard's dictionary is either *resident* (the in-RAM
//! [`SignatureDictionary`]) or *paged* (served from its spill file
//! through a bounded page cache). Both sides of [`DictionaryHandle`]
//! implement [`TrailLookup`], so diagnosis never cares which one it got —
//! a spilled shard keeps answering lookups, just from disk, and fleet
//! memory stays bounded by the page-cache budget instead of the sum of
//! dictionary sizes.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use twm_march::MarchTest;
use twm_repair::{AmbiguityStats, SignatureDictionary, TrailLookup};
use twm_store::{PagedDictionary, StoreOptions};

use crate::shard::ShardKey;
use crate::{wire, FleetError};

/// A shard dictionary, resident or spilled to its paged file.
#[derive(Debug, Clone)]
pub enum DictionaryHandle {
    /// The in-RAM dictionary.
    Resident(Arc<SignatureDictionary>),
    /// The dictionary served from its spill file under a bounded page
    /// cache.
    Paged(Arc<PagedDictionary>),
}

impl DictionaryHandle {
    /// The handle as the diagnosis-facing lookup trait object.
    #[must_use]
    pub fn as_lookup(&self) -> &dyn TrailLookup {
        match self {
            Self::Resident(dictionary) => &**dictionary,
            Self::Paged(paged) => &**paged,
        }
    }

    /// The resident dictionary, when not spilled.
    #[must_use]
    pub fn resident(&self) -> Option<&Arc<SignatureDictionary>> {
        match self {
            Self::Resident(dictionary) => Some(dictionary),
            Self::Paged(_) => None,
        }
    }

    /// Whether the dictionary is currently served from disk.
    #[must_use]
    pub fn is_paged(&self) -> bool {
        matches!(self, Self::Paged(_))
    }

    /// The dictionary's ambiguity statistics (header-resident for the
    /// paged side — no disk reads).
    #[must_use]
    pub fn stats(&self) -> AmbiguityStats {
        self.as_lookup().ambiguity_stats()
    }

    /// Materialises the full in-RAM dictionary — reading every class
    /// back from disk when spilled.
    ///
    /// # Errors
    ///
    /// [`FleetError::Store`] when a spill file fails to read back.
    pub fn to_resident(&self) -> Result<SignatureDictionary, FleetError> {
        match self {
            Self::Resident(dictionary) => Ok((**dictionary).clone()),
            Self::Paged(paged) => Ok(paged.read_dictionary()?),
        }
    }
}

impl TrailLookup for DictionaryHandle {
    fn scheme(&self) -> twm_core::scheme::SchemeId {
        self.as_lookup().scheme()
    }

    fn test_name(&self) -> &str {
        self.as_lookup().test_name()
    }

    fn config(&self) -> twm_mem::MemoryConfig {
        self.as_lookup().config()
    }

    fn content(&self) -> twm_coverage::ContentPolicy {
        self.as_lookup().content()
    }

    fn misr_template(&self) -> &twm_bist::Misr {
        self.as_lookup().misr_template()
    }

    fn reference_trail(&self) -> &twm_repair::SignatureTrail {
        self.as_lookup().reference_trail()
    }

    fn find(
        &self,
        trail: &twm_repair::SignatureTrail,
    ) -> Result<Option<twm_repair::AmbiguityClass>, twm_repair::RepairError> {
        self.as_lookup().find(trail)
    }

    fn ambiguity_stats(&self) -> AmbiguityStats {
        self.as_lookup().ambiguity_stats()
    }
}

/// Where and how evicted shards spill to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory holding one `.twmstore` file per spilled shard.
    pub dir: PathBuf,
    /// Page size and page-cache budget of the spill files.
    pub options: StoreOptions,
}

impl SpillConfig {
    /// Spills into `dir` with the default store geometry.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            options: StoreOptions::default(),
        }
    }

    /// The spill file of a shard key.
    #[must_use]
    pub fn path_for(&self, key: ShardKey) -> PathBuf {
        self.dir.join(format!(
            "{}x{}-{:?}-{:016x}.twmstore",
            key.config.words(),
            key.config.width(),
            key.scheme,
            key.fingerprint.raw()
        ))
    }
}

/// One registered shard: the source march test and the dictionary built
/// from it (resident or spilled).
#[derive(Debug, Clone)]
pub struct ShardEntry {
    /// The source (non-transparent) march test the deployment runs.
    pub source: MarchTest,
    /// The signature dictionary for the shard's deployment triple.
    pub dictionary: DictionaryHandle,
}

impl ShardEntry {
    /// Streams the entry's wire-format export — the bytes of
    /// [`DictionaryStore::export`] — onto a writer, without the store.
    ///
    /// # Errors
    ///
    /// [`FleetError::Store`] when a spilled dictionary fails to read back,
    /// [`FleetError::Io`] when the writer fails.
    pub fn export_to<W: Write + ?Sized>(&self, writer: &mut W) -> Result<(), FleetError> {
        wire::write_to(
            writer,
            &PersistedShard {
                source: self.source.clone(),
                dictionary: self.dictionary.to_resident()?,
            },
        )
    }
}

/// The serialised form of a shard entry — what [`DictionaryStore::export`]
/// writes and [`DictionaryStore::import`] reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedShard {
    /// The source march test.
    pub source: MarchTest,
    /// The dictionary.
    pub dictionary: SignatureDictionary,
}

/// Dictionaries sharded by `(config, scheme, test fingerprint)`.
#[derive(Debug, Default)]
pub struct DictionaryStore {
    entries: BTreeMap<ShardKey, ShardEntry>,
    spill: Option<SpillConfig>,
}

impl DictionaryStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store that spills evicted shards under `spill`.
    #[must_use]
    pub fn with_spill(spill: SpillConfig) -> Self {
        Self {
            entries: BTreeMap::new(),
            spill: Some(spill),
        }
    }

    /// The spill configuration, when spilling is enabled.
    #[must_use]
    pub fn spill_config(&self) -> Option<&SpillConfig> {
        self.spill.as_ref()
    }

    /// Registers a dictionary under the shard key derived from its
    /// config, scheme and the source test, and returns that key.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateShard`] when the shard already has a
    /// dictionary — evict first to replace.
    pub fn register(
        &mut self,
        source: MarchTest,
        dictionary: Arc<SignatureDictionary>,
    ) -> Result<ShardKey, FleetError> {
        self.register_handle(source, DictionaryHandle::Resident(dictionary))
    }

    /// Registers a dictionary handle (resident or already paged).
    ///
    /// # Errors
    ///
    /// As [`DictionaryStore::register`].
    pub fn register_handle(
        &mut self,
        source: MarchTest,
        dictionary: DictionaryHandle,
    ) -> Result<ShardKey, FleetError> {
        let key = ShardKey::new(dictionary.config(), dictionary.scheme(), &source);
        if self.entries.contains_key(&key) {
            return Err(FleetError::DuplicateShard(key));
        }
        self.entries.insert(key, ShardEntry { source, dictionary });
        Ok(key)
    }

    /// Registers a shard straight from its spill file: the paged
    /// dictionary keeps serving lookups from disk (lazy rehydration) and
    /// the shard key is rebuilt from the recorded source test.
    ///
    /// # Errors
    ///
    /// [`FleetError::Store`] when the file fails to open or verify,
    /// [`FleetError::Wire`] when it records no source test,
    /// [`FleetError::DuplicateShard`] when the shard already exists.
    pub fn load_spilled(&mut self, path: impl AsRef<Path>) -> Result<ShardKey, FleetError> {
        let options = self
            .spill
            .as_ref()
            .map_or_else(StoreOptions::default, |spill| spill.options);
        let paged = PagedDictionary::open(path.as_ref(), &options)?;
        let source = paged
            .source()
            .ok_or_else(|| {
                FleetError::Wire(format!(
                    "spill file {} records no source march test",
                    path.as_ref().display()
                ))
            })?
            .clone();
        self.register_handle(source, DictionaryHandle::Paged(Arc::new(paged)))
    }

    /// Demotes a resident shard to its spill file. The entry stays
    /// registered — lookups keep working through the bounded page cache —
    /// but the in-RAM dictionary is dropped. A no-op (returning `false`)
    /// for unknown, already-paged shards or when spilling is not
    /// configured.
    ///
    /// # Errors
    ///
    /// [`FleetError::Store`] / [`FleetError::Io`] when the spill file
    /// cannot be written or reopened (the entry is left resident).
    pub fn spill(&mut self, key: ShardKey) -> Result<bool, FleetError> {
        let Some(spill) = self.spill.clone() else {
            return Ok(false);
        };
        let Some(entry) = self.entries.get(&key) else {
            return Ok(false);
        };
        let DictionaryHandle::Resident(dictionary) = &entry.dictionary else {
            return Ok(false);
        };
        std::fs::create_dir_all(&spill.dir)?;
        let path = spill.path_for(key);
        PagedDictionary::write_with_source(dictionary, Some(&entry.source), &path, &spill.options)?;
        let paged = PagedDictionary::open(&path, &spill.options)?;
        let entry = self.entries.get_mut(&key).expect("checked above");
        entry.dictionary = DictionaryHandle::Paged(Arc::new(paged));
        Ok(true)
    }

    /// Removes a shard's dictionary; `true` when one was registered.
    pub fn evict(&mut self, key: ShardKey) -> bool {
        self.entries.remove(&key).is_some()
    }

    /// The entry registered under `key`.
    #[must_use]
    pub fn get(&self, key: ShardKey) -> Option<&ShardEntry> {
        self.entries.get(&key)
    }

    /// All registered shard keys, in key order.
    pub fn keys(&self) -> impl Iterator<Item = ShardKey> + '_ {
        self.entries.keys().copied()
    }

    /// Number of registered shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises a shard's entry to the wire format.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownShard`] when the shard is not registered,
    /// [`FleetError::Store`] when a spilled shard fails to read back.
    pub fn export(&self, key: ShardKey) -> Result<Vec<u8>, FleetError> {
        let mut bytes = Vec::new();
        self.export_to(key, &mut bytes)?;
        Ok(bytes)
    }

    /// Streams a shard's wire-format export onto a writer — files and
    /// sockets take the dictionary without an intermediate buffer.
    ///
    /// # Errors
    ///
    /// As [`DictionaryStore::export`], plus [`FleetError::Io`] when the
    /// writer fails.
    pub fn export_to<W: Write + ?Sized>(
        &self,
        key: ShardKey,
        writer: &mut W,
    ) -> Result<(), FleetError> {
        self.get(key)
            .ok_or(FleetError::UnknownShard(key))?
            .export_to(writer)
    }

    /// Registers a shard from its wire-format export.
    ///
    /// # Errors
    ///
    /// [`FleetError::Wire`] on a malformed payload,
    /// [`FleetError::DuplicateShard`] when the shard already exists.
    pub fn import(&mut self, bytes: &[u8]) -> Result<ShardKey, FleetError> {
        let persisted: PersistedShard = wire::from_bytes(bytes)?;
        self.register(persisted.source, Arc::new(persisted.dictionary))
    }

    /// Registers a shard by streaming its export from a reader, leaving
    /// the reader positioned after the value.
    ///
    /// # Errors
    ///
    /// As [`DictionaryStore::import`], plus [`FleetError::Io`] when the
    /// reader fails.
    pub fn import_from<R: Read + ?Sized>(
        &mut self,
        reader: &mut R,
    ) -> Result<ShardKey, FleetError> {
        let persisted: PersistedShard = wire::read_from(reader)?;
        self.register(persisted.source, Arc::new(persisted.dictionary))
    }
}
