//! Loopback integration tests for the observability surface: the
//! `Request::Metrics` scrape over a live TCP front returns the same
//! registry snapshot as in-process exposition, and the pooled front
//! serves interleaved requests from connections held open concurrently.

use std::sync::Arc;

use twm_bist::run_scheme_session_staged;
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_fleet::{
    DeviceReport, Dispatcher, FleetClient, FleetConfig, FleetService, Request, Response, ShardKey,
    SignatureDictionary, SignatureTrail, TcpFront,
};
use twm_march::algorithms::march_c_minus;
use twm_march::MarchTest;
use twm_mem::{Fault, FaultSet, FaultyMemory, MemoryConfig};
use twm_obs::MetricValue;
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

/// The value of a counter sample in the report, summed over label sets
/// whose `request` label (if any) matches `request`.
fn counter_value(report: &twm_obs::MetricsReport, name: &str, request: Option<&str>) -> u64 {
    report
        .metrics
        .iter()
        .filter(|sample| sample.name == name)
        .filter(|sample| match request {
            None => true,
            Some(want) => sample
                .labels
                .iter()
                .any(|label| label.name == "request" && label.value == want),
        })
        .map(|sample| match &sample.value {
            MetricValue::Counter(value) => *value,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

/// Tentpole acceptance: scraping `Request::Metrics` over a live TCP
/// front returns a snapshot whose client-side re-rendering is byte-equal
/// to the exposition the server rendered from the very same snapshot —
/// and the instrumented request/frame counters in it are live.
#[test]
fn metrics_scrape_over_tcp_matches_in_process_exposition() {
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let shard = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());

    let mut client = FleetClient::connect(addr).unwrap();
    let registered = client
        .request(&Request::RegisterDictionary {
            source: march_c_minus(),
            dictionary: build_dictionary(SchemeId::TwmTa, &march_c_minus()),
        })
        .unwrap();
    assert!(matches!(registered, Response::Registered { .. }));
    let faulty = Fault::stuck_at(twm_mem::BitAddress::new(2, 1), true);
    let stuck = Request::DiagnoseBatch {
        reports: vec![DeviceReport {
            device: "stuck".into(),
            shard,
            trail: device_trail(SchemeId::TwmTa, &march_c_minus(), &[faulty]),
            spares: 1,
        }],
    };
    // The first batch builds the shard's runtime; the second, on the
    // reused runtime, stores the verdict the third answers from.
    for _ in 0..3 {
        let batch = client.request(&stuck).unwrap();
        assert!(matches!(batch, Response::Batch(_)));
    }

    let Response::Metrics { text, report } = client.request(&Request::Metrics).unwrap() else {
        panic!("expected a metrics response");
    };
    // Both halves of the response come from ONE snapshot: re-rendering
    // the shipped report client-side reproduces the server's exposition
    // byte for byte.
    assert_eq!(report.expose(), text);

    // The counters this very conversation bumped are in the snapshot.
    // (The registry is process-global, so assert non-zero, not exact.)
    assert!(
        counter_value(&report, "twm_fleet_requests_total", Some("DiagnoseBatch")) >= 1,
        "batch request was counted"
    );
    assert!(
        counter_value(
            &report,
            "twm_fleet_requests_total",
            Some("RegisterDictionary")
        ) >= 1,
        "register request was counted"
    );
    assert!(counter_value(&report, "twm_fleet_frames_total", None) >= 2);
    assert!(counter_value(&report, "twm_fleet_connections_total", None) >= 1);
    assert!(counter_value(&report, "twm_fleet_batch_devices_total", None) >= 3);
    assert!(counter_value(&report, "twm_fleet_verify_sessions_total", None) >= 1);
    assert!(counter_value(&report, "twm_fleet_verify_memo_hits_total", None) >= 1);
    assert!(text.contains("# TYPE twm_fleet_request_latency_ns histogram"));
    assert!(text.contains("twm_fleet_requests_total{request=\"DiagnoseBatch\"}"));

    drop(client);
    server.join().unwrap().unwrap();
}

/// Satellite (ROADMAP item 1): the pooled front serves connections
/// concurrently. Two clients stay connected at once and their requests
/// interleave — under the old serve-to-completion loop the second
/// conversation could not begin until the first hung up.
#[test]
fn pooled_front_interleaves_two_live_connections() {
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let dispatcher = Dispatcher::new(Arc::clone(&service), 2);
    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let served = front.accept_pooled(&dispatcher, 2);
        drop(dispatcher);
        served
    });

    let mut first = FleetClient::connect(addr).unwrap();
    let mut second = FleetClient::connect(addr).unwrap();
    // Interleave while BOTH connections are held open: the second
    // conversation answers before the first one closes, twice over.
    for _ in 0..2 {
        assert_eq!(
            second.request(&Request::ListShards).unwrap(),
            Response::Shards(Vec::new())
        );
        let Response::Statistics(stats) = first.request(&Request::Statistics).unwrap() else {
            panic!("expected statistics");
        };
        assert_eq!(stats.devices, 0);
    }
    drop(first);
    drop(second);
    server.join().unwrap().unwrap();
}
