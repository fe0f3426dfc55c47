//! Seeded inputs: shard lists, device reports and deploy streams.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with one seed send byte-identical requests. The program under test
//! only ever sees the generated values.

use std::sync::Arc;

use twm_bist::{run_scheme_session_staged, Misr};
use twm_core::scheme::{SchemeId, SchemeRegistry, SchemeTransform};
use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
use twm_fleet::{DeviceReport, Request, ShardKey};
use twm_march::algorithms::{march_c_minus, march_ss, march_x};
use twm_march::MarchTest;
use twm_mem::{BitAddress, Fault, FaultyMemory, MemoryConfig, SplitMix64, Transition};
use twm_repair::{DictionaryOptions, SignatureDictionary, SignatureTrail};

use crate::{err, Error};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWarm,
    ServeChurn,
    Deploy,
    DeployCf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeChurn,
        Workload::Deploy,
        Workload::DeployCf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurn => "serve_churn",
            Workload::Deploy => "deploy",
            Workload::DeployCf => "deploy_cf",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }
}

/// One deployment triple plus the reference content its devices hold.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    pub config: MemoryConfig,
    pub scheme: SchemeId,
    pub source: MarchTest,
    pub content: ContentPolicy,
    /// Whether the indexed universe adds idempotent coupling faults.
    pub coupling: bool,
}

impl ShardSpec {
    pub fn key(&self) -> ShardKey {
        ShardKey::new(self.config, self.scheme, &self.source)
    }

    pub fn seed(&self) -> u64 {
        match self.content {
            ContentPolicy::Random { seed } => seed,
            ContentPolicy::Zeros => 0,
        }
    }

    pub fn universe(&self) -> Vec<Fault> {
        let builder = UniverseBuilder::new(self.config).stuck_at().transition();
        if self.coupling {
            builder.coupling_idempotent().build()
        } else {
            builder.build()
        }
    }

    pub fn engine(&self, registry: &SchemeRegistry) -> Result<CoverageEngine, Error> {
        let scheme = registry
            .get(self.scheme)
            .ok_or_else(|| format!("scheme {:?} is not registered", self.scheme))?;
        CoverageEngine::for_scheme(scheme, &self.source, self.config)
            .and_then(|builder| builder.content(self.content).build())
            .map_err(|e| err("engine build", e))
    }

    /// The in-RAM dictionary a client registers for this shard.
    pub fn dictionary(&self) -> Result<SignatureDictionary, Error> {
        let registry = SchemeRegistry::all(self.config.width()).map_err(|e| err("registry", e))?;
        let engine = self.engine(&registry)?;
        SignatureDictionary::build(&engine, &self.universe(), &DictionaryOptions::default())
            .map_err(|e| err("dictionary build", e))
    }
}

/// The trail a device with `faults` reports after its periodic session:
/// reference content, the shard's transparent test, the standard MISR.
pub fn device_trail(
    spec: &ShardSpec,
    transform: &SchemeTransform,
    faults: &[Fault],
) -> Result<SignatureTrail, Error> {
    let mut memory =
        FaultyMemory::with_faults(spec.config, faults.to_vec()).map_err(|e| err("inject", e))?;
    if let ContentPolicy::Random { seed } = spec.content {
        memory.fill_random(seed);
    }
    let staged =
        run_scheme_session_staged(transform, &mut memory, Misr::standard(spec.config.width()))
            .map_err(|e| err("device session", e))?;
    Ok(SignatureTrail::new(staged.signature_trail()))
}

fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn shape(words: usize, width: usize) -> MemoryConfig {
    MemoryConfig::new(words, width).expect("benchmark shapes are valid")
}

const SCHEMES: [SchemeId; 3] = [SchemeId::TwmTa, SchemeId::Scheme1, SchemeId::Nicolaidis];

fn tests() -> [MarchTest; 3] {
    [march_c_minus(), march_ss(), march_x()]
}

/// The resident shards of a serve workload. Every shard of one shape
/// shares that shape's reference content, as a deployed fleet's devices
/// of one memory type do.
pub fn serve_shards(workload: Workload, seed: u64) -> Vec<ShardSpec> {
    let content = |config: MemoryConfig| ContentPolicy::Random {
        seed: mix(seed, (config.words() * 1000 + config.width()) as u64),
    };
    let spec = |config: MemoryConfig, scheme: SchemeId, source: MarchTest| ShardSpec {
        config,
        scheme,
        source,
        content: content(config),
        coupling: false,
    };
    let (wide, narrow) = (shape(8, 32), shape(16, 8));
    match workload {
        Workload::ServeWarm => vec![
            spec(narrow, SchemeId::TwmTa, march_c_minus()),
            spec(narrow, SchemeId::Scheme1, march_c_minus()),
            spec(narrow, SchemeId::Nicolaidis, march_ss()),
            spec(wide, SchemeId::TwmTa, march_c_minus()),
        ],
        _ => {
            let mut shards = Vec::new();
            for source in tests() {
                for scheme in SCHEMES {
                    shards.push(spec(narrow, scheme, source.clone()));
                }
            }
            for scheme in SCHEMES {
                shards.push(spec(wide, scheme, march_c_minus()));
            }
            shards
        }
    }
}

/// What a generated device carries, and so which verdict it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// No defect: `Clean`.
    Clean,
    /// One indexed SAF/TF: a dictionary hit, allocated and verified.
    Single,
    /// Two defects in different words, whose trail no class indexes:
    /// `UnknownTrail`.
    Double,
}

pub const BATCH_DEVICES: usize = 64;
/// Per 64-device batch: 50% clean, ~40% single, ~10% double faults.
const MIX: [(DeviceKind, usize); 3] = [
    (DeviceKind::Clean, 32),
    (DeviceKind::Single, 26),
    (DeviceKind::Double, 6),
];
const SPARES: usize = 2;
/// Redraws allowed for a fault whose trail does not give the wanted kind.
const MAX_DRAWS: usize = 256;

pub struct ServeInputs {
    pub shards: Vec<ShardSpec>,
    pub dictionaries: Vec<Arc<SignatureDictionary>>,
    pub batches: Vec<Vec<DeviceReport>>,
    pub kinds: Vec<Vec<DeviceKind>>,
}

impl ServeInputs {
    pub fn request(&self, batch: usize) -> Request {
        Request::DiagnoseBatch {
            reports: self.batches[batch].clone(),
        }
    }
}

fn random_fault(rng: &mut SplitMix64, config: MemoryConfig, word: usize) -> Fault {
    let cell = BitAddress::new(word, rng.next_below(config.width()));
    if rng.next_bool() {
        Fault::stuck_at(cell, rng.next_bool())
    } else if rng.next_bool() {
        Fault::transition(cell, Transition::Rising)
    } else {
        Fault::transition(cell, Transition::Falling)
    }
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for at in (1..items.len()).rev() {
        items.swap(at, rng.next_below(at + 1));
    }
}

/// Builds the shard dictionaries and `batches` batches of device reports.
/// Devices are spread round-robin over the shards, so every batch
/// touches every shard.
pub fn serve_inputs(workload: Workload, seed: u64, batches: usize) -> Result<ServeInputs, Error> {
    let shards = serve_shards(workload, seed);
    let dictionaries: Vec<Arc<SignatureDictionary>> = shards
        .iter()
        .map(|spec| spec.dictionary().map(Arc::new))
        .collect::<Result<_, _>>()?;
    let transforms: Vec<SchemeTransform> = shards
        .iter()
        .map(|spec| {
            SchemeRegistry::all(spec.config.width())
                .and_then(|registry| registry.transform(spec.scheme, &spec.source))
                .map_err(|e| err("transform", e))
        })
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix64::new(mix(seed, 0x5E27E));
    let mut all_reports = Vec::with_capacity(batches);
    let mut all_kinds = Vec::with_capacity(batches);
    for batch in 0..batches {
        let mut kinds: Vec<DeviceKind> = MIX
            .iter()
            .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        shuffle(&mut rng, &mut kinds);
        let mut reports = Vec::with_capacity(BATCH_DEVICES);
        for (slot, &kind) in kinds.iter().enumerate() {
            let at = (slot + batch) % shards.len();
            let (spec, dictionary) = (&shards[at], &dictionaries[at]);
            let trail = draw_device(&mut rng, spec, &transforms[at], dictionary, kind)?;
            reports.push(DeviceReport {
                device: format!("dev-{batch:02}-{slot:02}"),
                shard: spec.key(),
                trail,
                spares: SPARES,
            });
        }
        all_reports.push(reports);
        all_kinds.push(kinds);
    }
    Ok(ServeInputs {
        shards,
        dictionaries,
        batches: all_reports,
        kinds: all_kinds,
    })
}

fn draw_device(
    rng: &mut SplitMix64,
    spec: &ShardSpec,
    transform: &SchemeTransform,
    dictionary: &SignatureDictionary,
    kind: DeviceKind,
) -> Result<SignatureTrail, Error> {
    let words = spec.config.words();
    for _ in 0..MAX_DRAWS {
        let faults = match kind {
            DeviceKind::Clean => Vec::new(),
            DeviceKind::Single => {
                let word = rng.next_below(words);
                vec![random_fault(rng, spec.config, word)]
            }
            DeviceKind::Double => {
                let first = rng.next_below(words);
                let second = (first + 1 + rng.next_below(words - 1)) % words;
                vec![
                    random_fault(rng, spec.config, first),
                    random_fault(rng, spec.config, second),
                ]
            }
        };
        let trail = device_trail(spec, transform, &faults)?;
        let clean = &trail == dictionary.fault_free_trail();
        let indexed = dictionary.lookup(&trail).is_some();
        let wanted = match kind {
            DeviceKind::Clean => clean,
            DeviceKind::Single => indexed,
            DeviceKind::Double => !clean && !indexed,
        };
        if wanted {
            return Ok(trail);
        }
    }
    Err(format!(
        "no {kind:?} device found for shard {} in {MAX_DRAWS} draws",
        spec.key()
    ))
}

/// Memory shapes of the deploy streams: 256 cells each, so a shard is
/// tens of milliseconds of work and thread start-up noise stays small
/// beside it. The coupling-fault shapes are smaller because the CF
/// universe grows with the square of the cells.
fn deploy_shapes(workload: Workload) -> Vec<MemoryConfig> {
    match workload {
        Workload::DeployCf => vec![shape(8, 4), shape(8, 8), shape(16, 4)],
        _ => vec![shape(32, 8), shape(16, 16), shape(8, 32)],
    }
}

/// One cycle of a deploy stream: every shape × test × scheme once, each
/// shard with fresh reference content. Runs measure whole cycles, so
/// every run sees the same shard mix.
pub fn deploy_cycle(workload: Workload, seed: u64, cycle: u64) -> Vec<ShardSpec> {
    let mut shards = Vec::new();
    for config in deploy_shapes(workload) {
        for source in tests() {
            for scheme in SCHEMES {
                let salt = (cycle << 16) | shards.len() as u64;
                shards.push(ShardSpec {
                    config,
                    scheme,
                    source: source.clone(),
                    content: ContentPolicy::Random {
                        seed: mix(seed, salt),
                    },
                    coupling: workload == Workload::DeployCf,
                });
            }
        }
    }
    shards
}

/// The faulty device whose trail gives a deploy shard its first
/// verdict: its `attempt`-th candidate fault, drawn from the shard's
/// universe.
pub fn deploy_fault(spec: &ShardSpec, universe: &[Fault], attempt: u64) -> Fault {
    let mut rng = SplitMix64::new(mix(spec.seed(), attempt + 1));
    universe[rng.next_below(universe.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_requests_and_shard_lists() {
        let first = serve_inputs(Workload::ServeWarm, 7, 2).unwrap();
        let again = serve_inputs(Workload::ServeWarm, 7, 2).unwrap();
        assert_eq!(first.shards, again.shards);
        for batch in 0..2 {
            assert_eq!(
                twm_fleet::wire::to_bytes(&first.request(batch)),
                twm_fleet::wire::to_bytes(&again.request(batch))
            );
        }
        let other = serve_inputs(Workload::ServeWarm, 8, 1).unwrap();
        assert_ne!(
            twm_fleet::wire::to_bytes(&first.request(0)),
            twm_fleet::wire::to_bytes(&other.request(0))
        );
        for workload in Workload::ALL {
            assert_eq!(serve_shards(workload, 3), serve_shards(workload, 3));
            assert_eq!(deploy_cycle(workload, 3, 1), deploy_cycle(workload, 3, 1));
            assert_ne!(deploy_cycle(workload, 3, 1), deploy_cycle(workload, 4, 1));
        }
    }

    #[test]
    fn churn_batches_touch_every_shard() {
        let shards = serve_shards(Workload::ServeChurn, 1);
        assert_eq!(shards.len(), 12);
        let keys: std::collections::BTreeSet<_> = (0..BATCH_DEVICES)
            .map(|slot| shards[slot % shards.len()].key())
            .collect();
        assert_eq!(keys.len(), shards.len());
    }
}
