//! Loopback integration tests for the TCP front and the spill path:
//! the framed transport answers exactly like in-process `handle`, and a
//! shard demoted to its spill file keeps diagnosing bit-identically.

use std::sync::Arc;
use std::time::{Duration, Instant};

use twm_bist::run_scheme_session_staged;
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_fleet::{
    DeviceReport, DeviceVerdict, Dispatcher, FleetClient, FleetConfig, FleetService, Request,
    Response, ShardKey, SignatureDictionary, SignatureTrail, SpillConfig, StoreOptions, TcpFront,
};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::{Fault, FaultSet, FaultyMemory, MemoryConfig};
use twm_repair::DictionaryOptions;

const SEED: u64 = 0x7C9;

fn config() -> MemoryConfig {
    MemoryConfig::new(6, 4).unwrap()
}

fn content() -> ContentPolicy {
    ContentPolicy::Random { seed: SEED }
}

fn build_dictionary(scheme: SchemeId, source: &MarchTest) -> SignatureDictionary {
    let registry = SchemeRegistry::all(config().width()).unwrap();
    let engine = CoverageEngine::for_scheme(registry.get(scheme).unwrap(), source, config())
        .unwrap()
        .content(content())
        .strategy(Strategy::Serial)
        .build()
        .unwrap();
    let universe = UniverseBuilder::new(config())
        .stuck_at()
        .transition()
        .build();
    SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap()
}

fn device_trail(scheme: SchemeId, source: &MarchTest, faults: &[Fault]) -> SignatureTrail {
    let registry = SchemeRegistry::all(config().width()).unwrap();
    let transform = registry.get(scheme).unwrap().transform(source).unwrap();
    let mut memory =
        FaultyMemory::with_faults(config(), FaultSet::from_faults(faults.iter().copied())).unwrap();
    memory.fill_random(SEED);
    let misr = twm_bist::Misr::standard(config().width());
    let staged = run_scheme_session_staged(&transform, &mut memory, misr).unwrap();
    SignatureTrail::new(staged.signature_trail())
}

fn reports(shard: ShardKey, scheme: SchemeId, source: &MarchTest) -> Vec<DeviceReport> {
    let faulty = Fault::stuck_at(twm_mem::BitAddress::new(2, 1), true);
    vec![
        DeviceReport {
            device: "clean".into(),
            shard,
            trail: device_trail(scheme, source, &[]),
            spares: 1,
        },
        DeviceReport {
            device: "stuck".into(),
            shard,
            trail: device_trail(scheme, source, &[faulty]),
            spares: 1,
        },
    ]
}

/// Satellite: every request/response crossing the loopback TCP front is
/// identical to the in-process `handle` path.
#[test]
fn loopback_round_trip_matches_in_process_handling() {
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let dictionary = build_dictionary(SchemeId::TwmTa, &march_c_minus());
    let register = Request::RegisterDictionary {
        source: march_c_minus(),
        dictionary,
    };
    let shard = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let batch = Request::DiagnoseBatch {
        reports: reports(shard, SchemeId::TwmTa, &march_c_minus()),
    };

    // Reference: a twin service handled in-process.
    let twin = FleetService::new(FleetConfig::default()).unwrap();
    let expected_register = twin.handle(register.clone());
    let expected_batch = twin.handle(batch.clone());
    let expected_shards = twin.handle(Request::ListShards);

    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());

    let mut client = FleetClient::connect(addr).unwrap();
    assert_eq!(client.request(&register).unwrap(), expected_register);
    assert_eq!(client.request(&batch).unwrap(), expected_batch);
    assert_eq!(
        client.request(&Request::ListShards).unwrap(),
        expected_shards
    );
    // One more frame after several proves per-connection framing holds.
    let Response::Statistics(stats) = client.request(&Request::Statistics).unwrap() else {
        panic!("expected statistics");
    };
    assert_eq!(stats.devices, 2);
    drop(client);
    server.join().unwrap().unwrap();
}

/// Median of 50 sequential `Statistics` round trips on one connection.
fn median_round_trip(addr: std::net::SocketAddr) -> Duration {
    let mut client = FleetClient::connect(addr).unwrap();
    let mut trips: Vec<Duration> = (0..50)
        .map(|_| {
            let start = Instant::now();
            let response = client.request(&Request::Statistics).unwrap();
            assert!(matches!(response, Response::Statistics(_)));
            start.elapsed()
        })
        .collect();
    trips.sort();
    trips[trips.len() / 2]
}

/// Regression: small request/response frames must not wait on the
/// peer's delayed ACK (about 40 ms per round trip with Nagle on and the
/// frame split over two writes), on either serving path.
#[test]
fn small_round_trips_do_not_wait_for_delayed_acks() {
    let bound = Duration::from_millis(10);
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());

    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());
    let median = median_round_trip(addr);
    server.join().unwrap().unwrap();
    assert!(median < bound, "accept_one median round trip {median:?}");

    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let dispatcher = Dispatcher::new(service, 2);
        front.accept_pooled(&dispatcher, 1)
    });
    let median = median_round_trip(addr);
    server.join().unwrap().unwrap();
    assert!(median < bound, "accept_pooled median round trip {median:?}");
}

/// A malformed request frame is answered with `Response::Error` and the
/// connection keeps serving.
#[test]
fn malformed_frames_get_error_responses_not_disconnects() {
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let front = TcpFront::bind("127.0.0.1:0", service).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());

    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let junk = [9u8, 9, 9];
    stream
        .write_all(&u32::try_from(junk.len()).unwrap().to_le_bytes())
        .unwrap();
    stream.write_all(&junk).unwrap();
    stream.flush().unwrap();
    let payload = twm_fleet::tcp::read_frame(&mut stream).unwrap().unwrap();
    let response: Response = twm_fleet::wire::from_bytes(&payload).unwrap();
    assert!(matches!(response, Response::Error { .. }));

    // The stream still answers well-formed requests.
    twm_fleet::tcp::write_frame(
        &mut stream,
        &twm_fleet::wire::to_bytes(&Request::ListShards),
    )
    .unwrap();
    let payload = twm_fleet::tcp::read_frame(&mut stream).unwrap().unwrap();
    let response: Response = twm_fleet::wire::from_bytes(&payload).unwrap();
    assert_eq!(response, Response::Shards(Vec::new()));
    drop(stream);
    server.join().unwrap().unwrap();
}

/// Tentpole integration: with a 1-slot runtime cache and a spill
/// directory, the cold shard demotes to its paged file — and its next
/// diagnosis, served from disk, is bit-identical to the resident one.
#[test]
fn evicted_shards_spill_to_disk_and_keep_diagnosing_identically() {
    let dir = std::env::temp_dir().join(format!("twm-fleet-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spill = SpillConfig {
        dir: dir.clone(),
        options: StoreOptions {
            page_size: 256,
            cache_budget: 2048,
        },
    };
    let service = FleetService::new(FleetConfig {
        cache_capacity: 1,
        spill: Some(spill),
        ..FleetConfig::default()
    })
    .unwrap();

    let shard_a = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let shard_b = ShardKey::new(config(), SchemeId::Scheme1, &mats_plus());
    for (scheme, source) in [
        (SchemeId::TwmTa, march_c_minus()),
        (SchemeId::Scheme1, mats_plus()),
    ] {
        let response = service.handle(Request::RegisterDictionary {
            source: source.clone(),
            dictionary: build_dictionary(scheme, &source),
        });
        assert!(matches!(response, Response::Registered { .. }));
    }

    let batch_a = Request::DiagnoseBatch {
        reports: reports(shard_a, SchemeId::TwmTa, &march_c_minus()),
    };
    // Resident baseline for shard A.
    let Response::Batch(resident) = service.handle(batch_a.clone()) else {
        panic!("diagnosis failed");
    };
    // Diagnosing shard B evicts A's runtime from the 1-slot cache,
    // demoting A's dictionary to its spill file.
    let Response::Batch(batch_b) = service.handle(Request::DiagnoseBatch {
        reports: reports(shard_b, SchemeId::Scheme1, &mats_plus()),
    }) else {
        panic!("diagnosis failed");
    };
    assert!(matches!(batch_b.outcomes[0].verdict, DeviceVerdict::Clean));
    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .expect("spill dir exists")
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(spilled.len(), 1, "exactly shard A spilled: {spilled:?}");

    // Shard A now serves from disk — same verdicts, bit for bit.
    let Response::Batch(paged) = service.handle(batch_a) else {
        panic!("diagnosis failed");
    };
    assert_eq!(paged.outcomes, resident.outcomes);
    assert_eq!(paged.statistics, resident.statistics);
    assert!(matches!(paged.outcomes[0].verdict, DeviceVerdict::Clean));
    assert!(matches!(
        paged.outcomes[1].verdict,
        DeviceVerdict::Diagnosed(_)
    ));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spilled shard exports exactly the bytes it exported while
/// resident, and importing them into a fresh service diagnoses the same
/// batch bit-identically.
#[test]
fn spilled_exports_equal_resident_exports() {
    let dir = std::env::temp_dir().join(format!("twm-fleet-spill-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = FleetService::new(FleetConfig {
        cache_capacity: 1,
        spill: Some(SpillConfig {
            dir: dir.clone(),
            options: StoreOptions {
                page_size: 256,
                cache_budget: 512,
            },
        }),
        ..FleetConfig::default()
    })
    .unwrap();
    let shard_a = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let shard_b = ShardKey::new(config(), SchemeId::Scheme1, &mats_plus());
    for (scheme, source) in [
        (SchemeId::TwmTa, march_c_minus()),
        (SchemeId::Scheme1, mats_plus()),
    ] {
        let response = service.handle(Request::RegisterDictionary {
            source: source.clone(),
            dictionary: build_dictionary(scheme, &source),
        });
        assert!(matches!(response, Response::Registered { .. }));
    }
    let export =
        |service: &FleetService| match service.handle(Request::ExportShard { shard: shard_a }) {
            Response::Exported { shard, bytes } => {
                assert_eq!(shard, shard_a);
                bytes
            }
            other => panic!("export failed: {other:?}"),
        };

    let batch_a = Request::DiagnoseBatch {
        reports: reports(shard_a, SchemeId::TwmTa, &march_c_minus()),
    };
    let Response::Batch(resident) = service.handle(batch_a.clone()) else {
        panic!("diagnosis failed");
    };
    let resident_bytes = export(&service);
    // Diagnosing shard B evicts A's runtime from the 1-slot cache and
    // spills A's dictionary.
    let response = service.handle(Request::DiagnoseBatch {
        reports: reports(shard_b, SchemeId::Scheme1, &mats_plus()),
    });
    assert!(matches!(response, Response::Batch(_)));
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "shard A spilled"
    );

    assert_eq!(export(&service), resident_bytes);

    let fresh = FleetService::with_defaults().unwrap();
    let response = fresh.handle(Request::ImportShard {
        bytes: resident_bytes,
    });
    assert!(matches!(response, Response::Registered { shard, .. } if shard == shard_a));
    let Response::Batch(imported) = fresh.handle(batch_a) else {
        panic!("diagnosis failed");
    };
    assert_eq!(imported, resident);
    assert!(imported
        .outcomes
        .iter()
        .any(|outcome| matches!(outcome.verdict, DeviceVerdict::Diagnosed(_))));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spill that cannot be written (its directory sits below a regular
/// file) fails neither the batch that evicted the shard nor later ones:
/// the shard stays resident, the failure is counted, and every verdict is
/// bit-identical to a service that never spills.
#[test]
fn failed_spills_are_counted_and_never_fail_the_batch() {
    let blocker =
        std::env::temp_dir().join(format!("twm-fleet-spill-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let spilling = FleetService::new(FleetConfig {
        cache_capacity: 1,
        spill: Some(SpillConfig {
            dir: blocker.join("spill"),
            options: StoreOptions::default(),
        }),
        ..FleetConfig::default()
    })
    .unwrap();
    let resident = FleetService::new(FleetConfig::default()).unwrap();

    let shard_a = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let shard_b = ShardKey::new(config(), SchemeId::Scheme1, &mats_plus());
    for (scheme, source) in [
        (SchemeId::TwmTa, march_c_minus()),
        (SchemeId::Scheme1, mats_plus()),
    ] {
        for service in [&spilling, &resident] {
            let response = service.handle(Request::RegisterDictionary {
                source: source.clone(),
                dictionary: build_dictionary(scheme, &source),
            });
            assert!(matches!(response, Response::Registered { .. }));
        }
    }

    let errors = twm_obs::global().counter("twm_fleet_spill_errors_total", &[]);
    let before = errors.get();
    // Shard B evicts A from the 1-slot cache, so A's spill fails; the
    // repeat of A evicts B, whose spill fails too.
    let batches = [
        reports(shard_a, SchemeId::TwmTa, &march_c_minus()),
        reports(shard_b, SchemeId::Scheme1, &mats_plus()),
        reports(shard_a, SchemeId::TwmTa, &march_c_minus()),
    ];
    for reports in batches {
        let request = Request::DiagnoseBatch { reports };
        let Response::Batch(served) = spilling.handle(request.clone()) else {
            panic!("a failed spill must not fail the batch");
        };
        let Response::Batch(reference) = resident.handle(request) else {
            panic!("diagnosis failed");
        };
        assert_eq!(served.outcomes, reference.outcomes);
        assert_eq!(served.statistics, reference.statistics);
    }
    assert!(errors.get() >= before + 2, "both failed spills are counted");

    std::fs::remove_file(&blocker).unwrap();
}
