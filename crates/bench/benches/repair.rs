//! The repair subsystem's hot paths:
//!
//! * signature-dictionary build throughput (injections/second) over the
//!   8×32 SAF+TF universe, serial versus parallel — the deployment-time
//!   cost of making a scheme diagnosable;
//! * one adaptive localisation pass (dictionary lookup + follow-up scheme
//!   sessions + targeted probes) on a failing memory — the field-side
//!   latency from MISR mismatch to a ranked defect list;
//! * the post-repair verification session through the remap table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_march::algorithms::march_c_minus;
use twm_mem::{BitAddress, Fault, FaultSet, FaultyMemory, MemoryConfig, RepairableMemory};
use twm_repair::{
    verify_repair, DiagnosticSession, DictionaryOptions, RepairAllocator, SignatureDictionary,
};

const WORDS: usize = 8;
const WIDTH: usize = 32;
const SEED: u64 = 99;

fn scheme_engine(config: MemoryConfig, strategy: Strategy) -> CoverageEngine {
    let registry = SchemeRegistry::comparison(WIDTH).unwrap();
    CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed: SEED })
    .strategy(strategy)
    .build()
    .unwrap()
}

fn bench_dictionary_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dictionary_build");
    group.sample_size(10);
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    group.throughput(Throughput::Elements(universe.len() as u64));
    let options = DictionaryOptions::default();
    for (label, strategy) in [("serial", Strategy::Serial), ("parallel", Strategy::Auto)] {
        let engine = scheme_engine(config, strategy);
        group.bench_with_input(
            BenchmarkId::new(label, universe.len()),
            &universe,
            |b, universe| {
                b.iter(|| {
                    SignatureDictionary::build(&engine, black_box(universe), &options).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_localise_and_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_flow");
    group.sample_size(10);
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let engine = scheme_engine(config, Strategy::Auto);
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let dictionary =
        SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
    let registry = SchemeRegistry::comparison(WIDTH).unwrap();
    let session = DiagnosticSession::new(&registry, &march_c_minus())
        .unwrap()
        .with_dictionary(&dictionary)
        .unwrap();
    let fault = Fault::stuck_at(BitAddress::new(5, 17), true);

    group.throughput(Throughput::Elements(1));
    group.bench_function("localise", |b| {
        let mut memory = FaultyMemory::with_faults(config, FaultSet::from_faults([fault])).unwrap();
        memory.fill_random(SEED);
        b.iter(|| {
            let outcome = session.localise(black_box(&mut memory)).unwrap();
            assert!(!outcome.defects.is_empty());
            outcome
        });
    });

    group.bench_function("allocate", |b| {
        let mut memory = FaultyMemory::with_faults(config, FaultSet::from_faults([fault])).unwrap();
        memory.fill_random(SEED);
        let outcome = session.localise(&mut memory).unwrap();
        let allocator = RepairAllocator::default();
        b.iter(|| allocator.allocate(black_box(&outcome.defects), 2));
    });

    group.bench_function("verify_repaired", |b| {
        let mut base = FaultyMemory::with_faults(config, FaultSet::from_faults([fault])).unwrap();
        base.fill_random(SEED);
        let mut memory = RepairableMemory::new(base, 2).unwrap();
        memory.map_word(5, 0).unwrap();
        let transform = session.probe_transform();
        b.iter(|| {
            let verdict = verify_repair(
                transform,
                black_box(&mut memory),
                twm_bist::Misr::standard(WIDTH),
            )
            .unwrap();
            assert!(verdict.clean());
            verdict
        });
    });
    group.finish();
}

criterion_group!(benches, bench_dictionary_build, bench_localise_and_verify);
criterion_main!(benches);
