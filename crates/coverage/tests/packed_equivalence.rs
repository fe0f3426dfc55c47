//! Property tests: the bit-parallel lane-batched evaluation path must be
//! **bit-identical** to the scalar one-fault-per-execution path on
//! [`twm_coverage::CoverageEngine::report`] — including the order of the
//! `undetected` fault list — for every universe, width, content policy and
//! strategy; and enabling lane batching must never change the output of
//! `report`, `verdicts` or `compare`.
//!
//! The scalar baseline is pinned with
//! [`CoverageEngineBuilder::lane_batching`]`(false)`
//! (`Strategy::Serial` alone no longer implies scalar evaluation — the
//! batched path is algorithmic, not thread-based).

use proptest::prelude::*;

use twm_core::{TransparentScheme, TwmTa};
use twm_coverage::universe::{CouplingScope, UniverseBuilder};
use twm_coverage::{ContentPolicy, CoverageEngine, EvaluationOptions, Strategy as Exec};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::MemoryConfig;

fn arb_word_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(16), Just(32), Just(64)]
}

fn arb_strategy() -> impl Strategy<Value = Exec> {
    prop_oneof![
        Just(Exec::Serial),
        Just(Exec::Parallel { threads: 2 }),
        Just(Exec::Parallel { threads: 3 }),
    ]
}

fn engine(
    test: &MarchTest,
    config: MemoryConfig,
    options: EvaluationOptions,
    strategy: Exec,
    lane_batching: bool,
) -> CoverageEngine {
    CoverageEngine::builder(config)
        .test(test)
        .options(options)
        .strategy(strategy)
        .lane_batching(lane_batching)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Mixed-class universes (SAF/TF packed, coupling routed scalar) under
    /// the random content policy: the batched report equals the scalar one
    /// for every strategy.
    #[test]
    fn packed_report_matches_scalar_for_mixed_universes(
        width in arb_word_width(),
        words in 2usize..6,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        contents_per_fault in 1usize..3,
        strategy in arb_strategy(),
        use_mats in any::<bool>(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::SameWordAndAdjacent)
            .sample_per_class(15, universe_seed)
            .build();
        let test = if use_mats { mats_plus() } else { march_c_minus() };
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault,
        };
        let scalar = engine(&test, config, options, Exec::Serial, false)
            .report(&faults).unwrap();
        let packed = engine(&test, config, options, strategy, true)
            .report(&faults).unwrap();
        prop_assert_eq!(scalar, packed);
    }

    /// Transparent word-oriented tests (the paper's TWM_TA transform, with
    /// data backgrounds): still bit-identical.
    #[test]
    fn packed_report_matches_scalar_for_transparent_tests(
        width in arb_word_width(),
        words in 2usize..5,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        strategy in arb_strategy(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .sample_per_class(40, universe_seed)
            .build();
        let transformed = TwmTa::new(width).unwrap().transform(&march_c_minus()).unwrap();
        let test = transformed.transparent_test();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault: 1,
        };
        let scalar = engine(test, config, options, Exec::Serial, false)
            .report(&faults).unwrap();
        let packed = engine(test, config, options, strategy, true)
            .report(&faults).unwrap();
        prop_assert_eq!(scalar, packed);
    }

    /// The all-zero content policy arms the arena without an image; it must
    /// agree too.
    #[test]
    fn packed_report_matches_scalar_for_zero_content(
        width in arb_word_width(),
        words in 2usize..6,
        universe_seed in 0u64..1_000,
        strategy in arb_strategy(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .sample_per_class(40, universe_seed)
            .build();
        let options = EvaluationOptions {
            content: ContentPolicy::Zeros,
            contents_per_fault: 1,
        };
        let test = march_c_minus();
        let scalar = engine(&test, config, options, Exec::Serial, false)
            .report(&faults).unwrap();
        let packed = engine(&test, config, options, strategy, true)
            .report(&faults).unwrap();
        prop_assert_eq!(scalar, packed);
    }

    /// Universes larger than one 64-lane batch (full SAF+TF enumeration of
    /// a 4-word × 64-bit memory = 1024 faults = 16 batches) stay
    /// bit-identical — the batch boundary itself is exercised.
    #[test]
    fn packed_report_matches_scalar_across_batch_boundaries(
        content_seed in 0u64..1_000,
        strategy in arb_strategy(),
    ) {
        let config = MemoryConfig::new(4, 64).unwrap();
        let faults = UniverseBuilder::new(config).stuck_at().transition().build();
        prop_assert!(faults.len() > 64);
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault: 1,
        };
        let test = march_c_minus();
        let scalar = engine(&test, config, options, Exec::Serial, false)
            .report(&faults).unwrap();
        let packed = engine(&test, config, options, strategy, true)
            .report(&faults).unwrap();
        prop_assert_eq!(scalar, packed);
    }

    /// Regression pin: lane batching never changes the output *ordering* of
    /// the three engine verbs — `report` (its `undetected` list is in
    /// universe order), the `verdicts` stream (universe order, fault by
    /// fault) and `compare` (reports plus the disagreement list).
    #[test]
    fn lane_batching_never_reorders_report_verdicts_or_compare(
        width in prop_oneof![Just(8usize), Just(16)],
        words in 2usize..5,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        strategy in arb_strategy(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(20, universe_seed)
            .build();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault: 1,
        };
        let test = march_c_minus();
        let batched = engine(&test, config, options, strategy, true);
        let scalar = engine(&test, config, options, strategy, false);

        // report: identical, including `undetected` order.
        let batched_report = batched.report(&faults).unwrap();
        let scalar_report = scalar.report(&faults).unwrap();
        prop_assert_eq!(&batched_report.undetected, &scalar_report.undetected);
        prop_assert_eq!(batched_report, scalar_report);

        // verdicts: the stream yields the same verdicts in universe order
        // regardless of the knob.
        let batched_verdicts: Vec<_> = batched
            .verdicts(&faults)
            .map(|verdict| verdict.unwrap())
            .collect();
        let scalar_verdicts: Vec<_> = scalar
            .verdicts(&faults)
            .map(|verdict| verdict.unwrap())
            .collect();
        for (verdict, &fault) in batched_verdicts.iter().zip(&faults) {
            prop_assert_eq!(verdict.fault, fault);
        }
        prop_assert_eq!(batched_verdicts, scalar_verdicts);

        // compare: reports and the disagreement list agree fault for fault.
        let transformed = TwmTa::new(width).unwrap().transform(&march_c_minus()).unwrap();
        let second_batched = batched.with_test(transformed.transparent_test()).unwrap();
        let second_scalar = scalar.with_test(transformed.transparent_test()).unwrap();
        let batched_cmp = batched.compare(&second_batched, &faults).unwrap();
        let scalar_cmp = scalar.compare(&second_scalar, &faults).unwrap();
        prop_assert_eq!(batched_cmp, scalar_cmp);
    }
}
