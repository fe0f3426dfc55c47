//! Acceptance property of the repair subsystem, at the ISSUE's canonical
//! 8×32 shape: for **every** detectable single stuck-at / transition fault,
//! diagnose → allocate → remap → re-run yields a clean signature, and the
//! signature dictionary build is bit-identical for any worker thread count.

use twm::core::{SchemeId, SchemeRegistry};
use twm::coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm::march::algorithms::march_c_minus;
use twm::mem::{Fault, FaultSet, FaultyMemory, MemoryConfig, RepairableMemory};
use twm::repair::{
    diagnose_and_repair, DiagnosticSession, DictionaryOptions, RepairAllocator, SignatureDictionary,
};

const WORDS: usize = 8;
const WIDTH: usize = 32;
const SEED: u64 = 4242;

fn engine(config: MemoryConfig, strategy: Strategy) -> CoverageEngine {
    let registry = SchemeRegistry::all(WIDTH).unwrap();
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

#[test]
fn every_detectable_saf_tf_fault_at_8x32_repairs_to_a_clean_signature() {
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    assert_eq!(universe.len(), 2 * WORDS * WIDTH * 2);
    let engine = engine(config, Strategy::Auto);

    // The proposed scheme detects the whole SAF+TF universe (the paper's
    // coverage claim); the repair property quantifies over exactly the
    // detectable set.
    let detectable: Vec<Fault> = engine
        .verdicts(&universe)
        .map(|verdict| verdict.unwrap())
        .filter(|verdict| verdict.detected)
        .map(|verdict| verdict.fault)
        .collect();
    assert_eq!(detectable.len(), universe.len());

    let dictionary =
        SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
    let stats = dictionary.stats();
    assert!(stats.indexed > 0);
    assert_eq!(stats.indexed + stats.undetected, universe.len());

    // One-scheme registry keeps the per-fault follow-up cheap; the
    // cross-scheme variant is covered in `crates/repair/tests`.
    let mut registry = SchemeRegistry::empty(WIDTH).unwrap();
    registry
        .register(Box::new(twm::core::TwmTa::new(WIDTH).unwrap()))
        .unwrap();
    let session = DiagnosticSession::new(&registry, &march_c_minus())
        .unwrap()
        .with_dictionary(&dictionary)
        .unwrap();
    let allocator = RepairAllocator::default();

    for &fault in &detectable {
        let mut memory = FaultyMemory::with_faults(config, FaultSet::from_faults([fault])).unwrap();
        memory.fill_random(SEED); // the dictionary's reference content
        let flow = diagnose_and_repair(
            &session,
            &allocator,
            RepairableMemory::new(memory, 2).unwrap(),
        )
        .expect("flow runs");

        let victim = fault.victim();
        assert!(
            flow.localisation.defective_words().contains(&victim.word),
            "missed the word of {fault}"
        );
        assert!(flow.plan.fully_repairs(), "spares exhausted for {fault}");
        assert!(
            flow.verification.clean(),
            "signature still failing after repairing {fault}"
        );
        // The top-ranked defect names the exact cell.
        assert_eq!(flow.localisation.defects[0].cell, victim, "for {fault}");
    }
}

#[test]
fn dictionary_build_at_8x32_is_bit_identical_for_any_thread_count() {
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let options = DictionaryOptions {
        multi_fault_samples: 16,
        ..DictionaryOptions::default()
    };
    let reference =
        SignatureDictionary::build(&engine(config, Strategy::Serial), &universe, &options).unwrap();
    for threads in [2usize, 3] {
        let parallel = SignatureDictionary::build(
            &engine(config, Strategy::Parallel { threads }),
            &universe,
            &options,
        )
        .unwrap();
        assert_eq!(parallel, reference, "drift at {threads} threads");
    }
}
