//! Property tests for the streaming verdict path: collecting
//! [`CoverageEngine::verdicts`] must reproduce [`CoverageEngine::report`]
//! **exactly** — same faults, same order, same detection bits — for serial
//! and parallel engines across thread counts, and the stream must work from
//! a plain iterator (the out-of-memory-universe case, where the fault list
//! is never materialised by the caller). The engine's fault-local arena
//! path is also pinned against a full-address-sweep oracle.

use proptest::prelude::*;

use twm_bist::{execute_lowered, ExecutionOptions, LoweredTest};
use twm_core::{TransparentScheme, TwmTa};
use twm_coverage::universe::{CouplingScope, UniverseBuilder};
use twm_coverage::{
    ContentPolicy, CoverageEngine, CoverageError, CoverageReport, EvaluationOptions, FaultVerdict,
    Strategy as Exec,
};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::{Fault, FaultSet, FaultyMemory, MemoryConfig};

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

/// Folds a verdict stream into a report exactly like `report` does.
fn collect_report(
    name: &str,
    verdicts: impl Iterator<Item = Result<FaultVerdict, CoverageError>>,
) -> CoverageReport {
    let mut report = CoverageReport::new(name);
    for verdict in verdicts {
        let verdict = verdict.expect("stream must not error on a valid universe");
        report.record(verdict.fault, verdict.detected);
    }
    report
}

/// The full-address-sweep reference for one injection: per content round a
/// fresh memory carrying every fault, filled with the round's content, runs
/// the whole lowered test; detected means detected under **every** round.
fn full_sweep_detected(
    test: &MarchTest,
    config: MemoryConfig,
    options: EvaluationOptions,
    faults: &[Fault],
) -> bool {
    let lowered = LoweredTest::new(test, config.width()).unwrap();
    let exec = ExecutionOptions {
        record_reads: false,
        stop_at_first_mismatch: true,
    };
    let seeds: Vec<Option<u64>> = match options.content {
        ContentPolicy::Zeros => vec![None],
        ContentPolicy::Random { seed } => (0..options.contents_per_fault.max(1))
            .map(|round| Some(seed.wrapping_add(round as u64)))
            .collect(),
    };
    seeds.into_iter().all(|seed| {
        let set = FaultSet::from_faults(faults.iter().copied());
        let mut memory = FaultyMemory::with_faults(config, set).unwrap();
        if let Some(seed) = seed {
            memory.fill_random(seed);
        }
        execute_lowered(&lowered, &mut memory, exec)
            .unwrap()
            .detected()
    })
}

fn thread_strategies() -> Vec<Exec> {
    let mut strategies = vec![Exec::Serial];
    if cfg!(feature = "parallel") {
        strategies.extend([2usize, 3, 5, 16].map(|threads| Exec::Parallel { threads }));
    }
    strategies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Collecting `verdicts()` reproduces `report()` exactly, for serial
    /// and parallel engines at several thread counts.
    #[test]
    fn collected_verdicts_reproduce_report(
        width in prop_oneof![Just(1usize), Just(4), Just(8)],
        words in 2usize..7,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        use_mats in any::<bool>(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::SameWordAndAdjacent)
            .sample_per_class(20, universe_seed)
            .build();
        let test = if use_mats { mats_plus() } else { march_c_minus() };
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault: 1,
        };
        let reference = engine(&test, config, options, Exec::Serial)
            .report(&faults).unwrap();
        for strategy in thread_strategies() {
            let streaming = engine(&test, config, options, strategy);
            let collected = collect_report(test.name(), streaming.verdicts(&faults));
            prop_assert_eq!(&collected, &reference, "strategy {:?}", strategy);
            // And report() itself agrees, of course.
            prop_assert_eq!(&streaming.report(&faults).unwrap(), &reference);
        }
    }

    /// Transparent word-oriented tests with several contents per fault:
    /// streaming still reproduces the report.
    #[test]
    fn transparent_streaming_matches_report(
        width in prop_oneof![Just(2usize), Just(4)],
        words in 2usize..5,
        universe_seed in 0u64..1_000,
        contents_per_fault in 1usize..3,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(12, universe_seed)
            .build();
        let transformed = TwmTa::new(width).unwrap()
            .transform(&march_c_minus()).unwrap();
        let test = transformed.transparent_test();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: universe_seed },
            contents_per_fault,
        };
        for strategy in thread_strategies() {
            let e = engine(test, config, options, strategy);
            let collected = collect_report(test.name(), e.verdicts(&faults));
            prop_assert_eq!(collected, e.report(&faults).unwrap());
        }
    }

    /// The stream accepts a lazy fault iterator (never materialised by the
    /// caller) and yields verdicts in universe order.
    #[test]
    fn streaming_from_lazy_iterator_preserves_order(
        words in 2usize..8,
        universe_seed in 0u64..1_000,
    ) {
        let config = MemoryConfig::new(words, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .sample_per_class(40, universe_seed)
            .build();
        for strategy in thread_strategies() {
            let e = engine(&march_c_minus(), config, EvaluationOptions::default(), strategy);
            // Feed the universe as a one-shot iterator of owned faults.
            let streamed: Vec<FaultVerdict> = e
                .verdicts(faults.iter().copied())
                .collect::<Result<_, _>>()
                .unwrap();
            prop_assert_eq!(streamed.len(), faults.len());
            let order: Vec<Fault> = streamed.iter().map(|v| v.fault).collect();
            prop_assert_eq!(&order, &faults, "strategy {:?}", strategy);
        }
    }
}

/// Mid-stream abandonment returns arenas to the pool and a subsequent full
/// evaluation on the same engine is unaffected.
#[test]
fn abandoned_stream_does_not_disturb_later_evaluations() {
    let config = MemoryConfig::new(6, 4).unwrap();
    let faults = UniverseBuilder::new(config)
        .all_classes()
        .sample_per_class(30, 3)
        .build();
    let e = engine(
        &march_c_minus(),
        config,
        EvaluationOptions::default(),
        Exec::Auto,
    );
    let reference = e.report(&faults).unwrap();
    {
        let mut stream = e.verdicts(&faults);
        let _ = stream.next();
        let _ = stream.next();
        // Dropped mid-stream here.
    }
    assert_eq!(e.report(&faults).unwrap(), reference);
}

/// An empty universe is an empty stream (only `report` treats it as an
/// error).
#[test]
fn empty_universe_streams_nothing() {
    let config = MemoryConfig::new(4, 2).unwrap();
    let e = engine(
        &march_c_minus(),
        config,
        EvaluationOptions::default(),
        Exec::Serial,
    );
    assert_eq!(e.verdicts(&[]).count(), 0);
    assert!(matches!(e.report(&[]), Err(CoverageError::EmptyUniverse)));
}

/// Builder validation: zero worker threads and a missing test are rejected
/// with dedicated errors, not clamped or defaulted.
#[test]
fn builder_rejects_zero_threads_and_missing_test() {
    let config = MemoryConfig::new(4, 2).unwrap();
    let zero = CoverageEngine::builder(config)
        .test(&march_c_minus())
        .strategy(Exec::Parallel { threads: 0 })
        .build();
    assert!(matches!(zero, Err(CoverageError::ZeroThreads)));
    let missing = CoverageEngine::builder(config).build();
    assert!(matches!(missing, Err(CoverageError::MissingTest)));
}

/// Engines over different memory shapes refuse to compare.
#[test]
fn compare_rejects_mismatched_configs() {
    let a = engine(
        &march_c_minus(),
        MemoryConfig::new(4, 2).unwrap(),
        EvaluationOptions::default(),
        Exec::Serial,
    );
    let b = engine(
        &march_c_minus(),
        MemoryConfig::new(8, 2).unwrap(),
        EvaluationOptions::default(),
        Exec::Serial,
    );
    let faults = UniverseBuilder::new(MemoryConfig::new(4, 2).unwrap())
        .stuck_at()
        .build();
    assert!(matches!(
        a.compare(&b, &faults),
        Err(CoverageError::ConfigMismatch)
    ));
}

/// A fault outside the memory shape surfaces as an error at its position
/// in the stream, and `report` returns the error of the earliest offending
/// fault — for any strategy.
#[test]
fn invalid_fault_errors_surface_in_order() {
    use twm_mem::BitAddress;
    let config = MemoryConfig::new(4, 2).unwrap();
    let mut faults = UniverseBuilder::new(config).stuck_at().build();
    let bad = Fault::stuck_at(BitAddress::new(99, 0), true);
    faults.insert(3, bad);
    for strategy in thread_strategies() {
        let e = engine(
            &march_c_minus(),
            config,
            EvaluationOptions::default(),
            strategy,
        );
        let mut stream = e.verdicts(&faults);
        for _ in 0..3 {
            assert!(matches!(stream.next(), Some(Ok(_))));
        }
        assert!(matches!(stream.next(), Some(Err(CoverageError::Mem(_)))));
        // The stream fuses after the first error.
        assert!(stream.next().is_none());
        assert!(matches!(e.report(&faults), Err(CoverageError::Mem(_))));
    }
}

/// With two out-of-range faults, `report` returns the error of the one
/// earlier in universe order even though every faster path reaches the
/// other first: the bad SAF is packed into a lane batch and ranks cheap,
/// so cheap-first scheduling evaluates it before the early, expensive
/// inter-word coupling fault. Both paths give up on error and the
/// in-order fallback pins the earliest one — for any strategy.
#[test]
fn earliest_of_two_invalid_faults_is_reported() {
    use twm_mem::{BitAddress, MemError, Transition};
    let config = MemoryConfig::new(4, 2).unwrap();
    let mut faults = UniverseBuilder::new(config)
        .stuck_at()
        .coupling_inversion()
        .build();
    let bad_cell = BitAddress::new(77, 1);
    let bad_coupling =
        Fault::coupling_inversion(bad_cell, BitAddress::new(0, 0), Transition::Rising);
    faults.insert(1, bad_coupling);
    faults.push(Fault::stuck_at(BitAddress::new(99, 0), true));
    for strategy in thread_strategies() {
        let e = engine(
            &march_c_minus(),
            config,
            EvaluationOptions::default(),
            strategy,
        );
        match e.report(&faults) {
            Err(CoverageError::Mem(MemError::FaultCellOutOfRange { cell })) => {
                assert_eq!(cell, bad_cell, "strategy {strategy:?}");
            }
            other => {
                panic!("strategy {strategy:?}: expected the coupling fault's error, got {other:?}")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's fault-local arena path (pooled memories, block-copy
    /// content restore, footprint-only sweeps) agrees with the
    /// full-address-sweep oracle: `report` fault by fault for every
    /// strategy and several contents per fault, and multi-fault
    /// `injection_detected` for any fault subset and content seed.
    #[test]
    fn engine_matches_full_sweep_oracle(
        width in prop_oneof![Just(1usize), Just(4), Just(8)],
        words in 2usize..7,
        universe_seed in 0u64..1_000,
        seed in any::<u64>(),
        contents_per_fault in 1usize..3,
        pick in prop::collection::vec(0usize..1000, 1..5),
    ) {
        let test = march_c_minus();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed },
            contents_per_fault,
        };
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(15, universe_seed)
            .build();
        let mut oracle = CoverageReport::new(test.name());
        for &fault in &faults {
            oracle.record(fault, full_sweep_detected(&test, config, options, &[fault]));
        }
        for strategy in thread_strategies() {
            let report = engine(&test, config, options, strategy).report(&faults).unwrap();
            prop_assert_eq!(&report, &oracle, "strategy {:?}", strategy);
        }

        let config = MemoryConfig::new(10, 4).unwrap();
        let pool = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::AllPairs)
            .sample_per_class(40, 5)
            .build();
        let injected: Vec<Fault> = pick.iter().map(|&i| pool[i % pool.len()]).collect();
        let local = engine(&test, config, options, Exec::Serial)
            .injection_detected(&injected)
            .unwrap();
        prop_assert_eq!(local, full_sweep_detected(&test, config, options, &injected));
    }
}

#[test]
fn injection_detected_rejects_an_empty_set() {
    let config = MemoryConfig::new(8, 4).unwrap();
    let e = engine(
        &march_c_minus(),
        config,
        EvaluationOptions::default(),
        Exec::Serial,
    );
    assert!(matches!(
        e.injection_detected(&[]),
        Err(CoverageError::EmptyUniverse)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `report` evaluates cheap-to-detect faults first under a parallel
    /// strategy, but the produced report must stay bit-identical to the
    /// serial in-order reference for any universe permutation and thread
    /// count.
    #[test]
    fn cheap_first_scheduling_is_bit_identical(
        seed in any::<u64>(),
        rotate in 0usize..500,
    ) {
        let config = MemoryConfig::new(6, 4).unwrap();
        let mut faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(60, 13)
            .build();
        // An arbitrary rotation mixes fault classes across the streaming
        // windows, the case the scheduling targets.
        let pivot = rotate % faults.len();
        faults.rotate_left(pivot);
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed },
            contents_per_fault: 1,
        };
        let reference = engine(&march_c_minus(), config, options, Exec::Serial)
            .report(&faults)
            .unwrap();
        for strategy in thread_strategies() {
            let scheduled = engine(&march_c_minus(), config, options, strategy)
                .report(&faults)
                .unwrap();
            prop_assert_eq!(&scheduled, &reference, "strategy {:?}", strategy);
        }
    }

    /// The persistent window worker pool must produce bit-identical
    /// reports to the serial reference for any thread count, across
    /// repeated reports and through `with_test` siblings, which share the
    /// pool.
    #[test]
    fn persistent_worker_pool_is_bit_identical(seed in any::<u64>()) {
        let config = MemoryConfig::new(6, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(60, 17)
            .build();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed },
            contents_per_fault: 1,
        };
        let reference = engine(&march_c_minus(), config, options, Exec::Serial)
            .report(&faults)
            .unwrap();
        for strategy in thread_strategies() {
            let pooled = engine(&march_c_minus(), config, options, strategy);
            // Repeated reports reuse the same workers.
            prop_assert_eq!(&pooled.report(&faults).unwrap(), &reference);
            prop_assert_eq!(&pooled.report(&faults).unwrap(), &reference);
            let sibling = pooled.with_test(&march_c_minus()).unwrap();
            prop_assert_eq!(&sibling.report(&faults).unwrap(), &reference);
        }
    }

    /// `with_test` siblings (shared prepared contents, fresh lowering)
    /// must report exactly like an engine built from scratch for the same
    /// test — the contract `twm-search` scores candidates through.
    #[test]
    fn with_test_sibling_matches_fresh_engine(seed in any::<u64>()) {
        let config = MemoryConfig::new(8, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(40, 3)
            .build();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed },
            contents_per_fault: 2,
        };
        let template = engine(&mats_plus(), config, options, Exec::Serial);
        let scheme = TwmTa::new(4).unwrap();
        let candidate = scheme.transform(&march_c_minus()).unwrap();
        let sibling = template.with_test(candidate.transparent_test()).unwrap();
        let fresh = engine(candidate.transparent_test(), config, options, Exec::Serial);
        prop_assert_eq!(
            sibling.report(&faults).unwrap(),
            fresh.report(&faults).unwrap()
        );
        // The template keeps reporting for its own test afterwards.
        prop_assert_eq!(
            template.report(&faults).unwrap(),
            engine(&mats_plus(), config, options, Exec::Serial).report(&faults).unwrap()
        );
    }
}
