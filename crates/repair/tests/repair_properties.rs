//! Property tests of the repair subsystem: dictionary-build determinism
//! across thread counts and the diagnose → allocate → remap → verify loop
//! over sampled injections.

use proptest::prelude::*;

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_march::algorithms::march_c_minus;
use twm_mem::{Fault, FaultSet, FaultyMemory, MemoryConfig, RepairableMemory};
use twm_repair::{
    diagnose_and_repair, DiagnosticSession, DictionaryOptions, RepairAllocator, SignatureDictionary,
};

const SEED: u64 = 2025;

/// A second defect appearing after an earlier repair must be handled with
/// the remaining spares: the flow skips the already-repaired word and
/// translates new assignments to the free slots.
#[test]
fn incremental_repair_uses_the_remaining_spares() {
    let config = MemoryConfig::new(6, 8).unwrap();
    let registry = SchemeRegistry::comparison(8).unwrap();
    let session = DiagnosticSession::new(&registry, &march_c_minus()).unwrap();
    let first = Fault::stuck_at(twm_mem::BitAddress::new(1, 4), true);
    let second = Fault::stuck_at(twm_mem::BitAddress::new(4, 2), false);
    let mut base =
        FaultyMemory::with_faults(config, FaultSet::from_faults([first, second])).unwrap();
    base.fill_random(SEED);
    let mut memory = RepairableMemory::new(base, 2).unwrap();
    // The first defect was repaired in an earlier pass (spare 0 in use).
    memory.map_word(1, 0).unwrap();

    let flow = diagnose_and_repair(&session, &RepairAllocator::default(), memory).unwrap();
    // The earlier repair is kept, the new defect takes the free slot.
    assert_eq!(flow.memory.mapped_spare(1), Some(0));
    assert_eq!(flow.memory.mapped_spare(4), Some(1));
    // The already-repaired word needs no (and gets no) new assignment.
    assert!(flow.plan.assignments.iter().all(|a| a.word == 4));
    assert!(flow.verification.clean());
}

/// An empty scheme registry is rejected up front instead of panicking at
/// probe time.
#[test]
fn empty_registry_is_rejected() {
    let registry = SchemeRegistry::empty(8).unwrap();
    assert!(matches!(
        DiagnosticSession::new(&registry, &march_c_minus()),
        Err(twm_repair::RepairError::EmptyRegistry)
    ));
}

/// Sampled multi-fault injections are logically unique: no ambiguity
/// class may contain the same unordered fault pair twice.
#[test]
fn sampled_pairs_are_deduplicated() {
    let config = MemoryConfig::new(4, 4).unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let engine = {
        let registry = SchemeRegistry::all(4).unwrap();
        CoverageEngine::for_scheme(
            registry.get(SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .content(ContentPolicy::Random { seed: SEED })
        .build()
        .unwrap()
    };
    let dictionary = SignatureDictionary::build(
        &engine,
        &universe,
        &DictionaryOptions {
            multi_fault_samples: 40,
            ..DictionaryOptions::default()
        },
    )
    .unwrap();
    let mut seen: Vec<Vec<Fault>> = Vec::new();
    for injection in dictionary
        .classes()
        .iter()
        .flat_map(|class| &class.injections)
        .chain(dictionary.undetected())
        .filter(|injection| injection.len() == 2)
    {
        let mut normalised = injection.clone();
        normalised.sort_by_key(|fault| format!("{fault:?}"));
        assert!(
            !seen.contains(&normalised),
            "duplicate sampled pair {normalised:?}"
        );
        seen.push(normalised);
    }
    assert!(!seen.is_empty());
}

fn scheme_engine(config: MemoryConfig, strategy: Strategy) -> CoverageEngine {
    let registry = SchemeRegistry::all(config.width()).unwrap();
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

/// The dictionary must be **bit-identical** for any worker-thread count —
/// the build fans injections across the engine's pool at its `Strategy`,
/// but grouping is serial in universe order.
#[test]
fn dictionary_build_is_deterministic_across_thread_counts() {
    let config = MemoryConfig::new(6, 8).unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let options = DictionaryOptions {
        multi_fault_samples: 24,
        ..DictionaryOptions::default()
    };
    let engine = scheme_engine(config, Strategy::Serial);
    let reference = SignatureDictionary::build(&engine, &universe, &options).unwrap();
    for threads in [2usize, 3, 5] {
        let parallel = SignatureDictionary::build(
            &scheme_engine(config, Strategy::Parallel { threads }),
            &universe,
            &options,
        )
        .unwrap();
        assert_eq!(
            parallel, reference,
            "dictionary drifted at {threads} threads"
        );
    }
    // Sanity: the dictionary indexes the overwhelming majority of the
    // SAF+TF universe and discriminates well.
    let stats = reference.stats();
    assert!(stats.indexed > universe.len() / 2);
    assert!(stats.distinguishable_fraction() > 0.5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sampled two-fault injections: diagnose → allocate → remap → verify
    /// must end with a clean signature whenever the located words fit the
    /// spare budget.
    #[test]
    fn two_fault_injections_repair_clean(
        word_a in 0usize..6,
        bit_a in 0usize..8,
        word_b in 0usize..6,
        bit_b in 0usize..8,
        value_a in any::<bool>(),
        value_b in any::<bool>(),
    ) {
        let config = MemoryConfig::new(6, 8).unwrap();
        let cell_a = twm_mem::BitAddress::new(word_a, bit_a);
        let cell_b = twm_mem::BitAddress::new(word_b, bit_b);
        prop_assume!(cell_a != cell_b);
        let faults = [
            Fault::stuck_at(cell_a, value_a),
            Fault::stuck_at(cell_b, value_b),
        ];

        let registry = SchemeRegistry::comparison(8).unwrap();
        let session = DiagnosticSession::new(&registry, &march_c_minus()).unwrap();
        let mut memory =
            FaultyMemory::with_faults(config, FaultSet::from_faults(faults)).unwrap();
        memory.fill_random(SEED);

        // Two spares always cover the (at most two) defective words.
        let flow = diagnose_and_repair(
            &session,
            &RepairAllocator::default(),
            RepairableMemory::new(memory, 2).unwrap(),
        )
        .unwrap();
        let located = flow.localisation.defective_words();
        prop_assert!(!located.is_empty(), "no word located for {faults:?}");
        for fault in &faults {
            prop_assert!(
                located.contains(&fault.victim().word),
                "missed word of {fault}"
            );
        }
        prop_assert!(flow.plan.fully_repairs());
        prop_assert!(flow.verification.clean(), "signature not clean after repair");
    }

    /// The located defects of a single stuck-at fault survive a
    /// dictionary-assisted session with the *full* scheme registry, and the
    /// repaired memory passes every registered scheme's session.
    #[test]
    fn repaired_memory_is_clean_under_every_scheme(
        word in 0usize..6,
        bit in 0usize..8,
        value in any::<bool>(),
    ) {
        let config = MemoryConfig::new(6, 8).unwrap();
        let fault = Fault::stuck_at(twm_mem::BitAddress::new(word, bit), value);
        let engine = scheme_engine(config, Strategy::Serial);
        let universe = UniverseBuilder::new(config).stuck_at().transition().build();
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        let registry = SchemeRegistry::all(8).unwrap();
        let session = DiagnosticSession::new(&registry, &march_c_minus())
            .unwrap()
            .with_dictionary(&dictionary)
            .unwrap();

        let mut memory =
            FaultyMemory::with_faults(config, FaultSet::from_faults([fault])).unwrap();
        memory.fill_random(SEED);
        let flow = diagnose_and_repair(
            &session,
            &RepairAllocator::default(),
            RepairableMemory::new(memory, 1).unwrap(),
        )
        .unwrap();
        prop_assert!(flow.localisation.dictionary_hit);
        prop_assert_eq!(flow.localisation.defects[0].cell, fault.victim());
        prop_assert!(flow.verification.clean());

        // Every registered scheme's session is clean on the repaired view.
        let mut repaired = flow.memory;
        for transform in session.transforms() {
            let verdict = twm_repair::verify_repair(
                transform,
                &mut repaired,
                twm_bist::Misr::standard(8),
            )
            .unwrap();
            prop_assert!(verdict.clean(), "{} still failing", transform.scheme());
        }
    }
}
