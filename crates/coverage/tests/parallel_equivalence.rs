//! Property tests: the parallel engine must produce **bit-identical**
//! [`twm_coverage::CoverageReport`]s to the serial reference path for any
//! universe, seed, width and thread count — including the order of the
//! `undetected` fault list.
//!
//! Thread counts are passed explicitly through
//! `Strategy::Parallel { threads }` (not the `TWM_COVERAGE_THREADS`
//! environment variable) so concurrently-running tests cannot race on
//! process-global state and every drawn thread count is really exercised.

use proptest::prelude::*;

use twm_core::{TransparentScheme, TwmTa};
use twm_coverage::universe::{CouplingScope, UniverseBuilder};
use twm_coverage::{ContentPolicy, CoverageEngine, EvaluationOptions, Strategy as Exec};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::MemoryConfig;

fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8)]
}

fn engine(
    test: &MarchTest,
    config: MemoryConfig,
    options: EvaluationOptions,
    strategy: Exec,
) -> CoverageEngine {
    CoverageEngine::builder(config)
        .test(test)
        .options(options)
        .strategy(strategy)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-oriented and word-oriented literal tests: the parallel engine
    /// agrees with the serial one for every universe and thread count.
    #[test]
    fn parallel_report_is_bit_identical_for_literal_tests(
        width in arb_width(),
        words in 2usize..8,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        threads in 2usize..6,
        use_mats in any::<bool>(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::SameWordAndAdjacent)
            .sample_per_class(25, universe_seed)
            .build();
        let test = if use_mats { mats_plus() } else { march_c_minus() };
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault: 1,
        };
        let serial = engine(&test, config, options, Exec::Serial)
            .report(&faults).unwrap();
        let parallel = engine(&test, config, options, Exec::Parallel { threads })
            .report(&faults).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// Transparent word-oriented tests (data backgrounds, multiple contents
    /// per fault): still bit-identical.
    #[test]
    fn parallel_report_is_bit_identical_for_transparent_tests(
        width in prop_oneof![Just(2usize), Just(4), Just(8)],
        words in 2usize..6,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        contents_per_fault in 1usize..3,
        threads in 2usize..5,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(15, universe_seed)
            .build();
        let transformed = TwmTa::new(width).unwrap().transform(&march_c_minus()).unwrap();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault,
        };
        let test = transformed.transparent_test();
        let serial = engine(test, config, options, Exec::Serial)
            .report(&faults).unwrap();
        let parallel = engine(test, config, options, Exec::Parallel { threads })
            .report(&faults).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// The all-zero content policy takes the no-shared-contents path; it
    /// must agree too.
    #[test]
    fn parallel_report_is_bit_identical_for_zero_content(
        width in arb_width(),
        words in 2usize..8,
        universe_seed in 0u64..1_000,
        threads in 2usize..5,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .sample_per_class(30, universe_seed)
            .build();
        let options = EvaluationOptions {
            content: ContentPolicy::Zeros,
            contents_per_fault: 1,
        };
        let test = march_c_minus();
        let serial = engine(&test, config, options, Exec::Serial)
            .report(&faults).unwrap();
        let parallel = engine(&test, config, options, Exec::Parallel { threads })
            .report(&faults).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// Degenerate thread counts (1 = serial execution; more threads than
    /// faults) are handled and still bit-identical.
    #[test]
    fn degenerate_thread_counts_are_handled(
        threads in prop_oneof![Just(1usize), Just(64), Just(1000)],
        universe_seed in 0u64..1_000,
    ) {
        let config = MemoryConfig::new(4, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .sample_per_class(10, universe_seed)
            .build();
        let options = EvaluationOptions::default();
        let test = march_c_minus();
        let serial = engine(&test, config, options, Exec::Serial)
            .report(&faults).unwrap();
        let parallel = engine(&test, config, options, Exec::Parallel { threads })
            .report(&faults).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// One engine instance reused across several universes produces exactly
    /// what fresh engines produce — the arena pool leaks no state between
    /// evaluations.
    #[test]
    fn engine_reuse_across_universes_is_stateless(
        universe_seeds in prop::collection::vec(0u64..1_000, 2..5),
        threads in 1usize..5,
    ) {
        let config = MemoryConfig::new(5, 4).unwrap();
        let test = march_c_minus();
        let options = EvaluationOptions::default();
        let reused = engine(&test, config, options, Exec::Parallel { threads });
        for seed in universe_seeds {
            let faults = UniverseBuilder::new(config)
                .all_classes()
                .sample_per_class(12, seed)
                .build();
            let fresh = engine(&test, config, options, Exec::Serial)
                .report(&faults).unwrap();
            prop_assert_eq!(reused.report(&faults).unwrap(), fresh);
        }
    }
}
