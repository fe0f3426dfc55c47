//! Golden bytes of a fleet request: the wire layout of a 2-device
//! `Request::DiagnoseBatch` must not drift, or deployed clients and
//! existing exports stop decoding.

use twm_core::scheme::SchemeId;
use twm_fleet::{wire, DeviceReport, Request, ShardKey, SignatureTrail};
use twm_march::algorithms::march_c_minus;
use twm_mem::{MemoryConfig, Word};

/// Reference bytes of the request, in hex, one 48-byte row per line.
const GOLDEN: &str = include_str!("golden/diagnose_batch.hex");

fn word(bits: u128) -> Word {
    Word::from_bits(bits, 8).unwrap()
}

fn request() -> Request {
    let shard = ShardKey::new(
        MemoryConfig::new(16, 8).unwrap(),
        SchemeId::TwmTa,
        &march_c_minus(),
    );
    Request::DiagnoseBatch {
        reports: vec![
            DeviceReport {
                device: "dev-0".to_string(),
                shard,
                trail: SignatureTrail::new(vec![word(0x5A), word(0xC3)]),
                spares: 2,
            },
            DeviceReport {
                device: "dev-1".to_string(),
                shard,
                trail: SignatureTrail::new(vec![word(0xFF), word(0x00), word(0x81)]),
                spares: 0,
            },
        ],
    }
}

fn golden_bytes() -> Vec<u8> {
    let hex: String = GOLDEN.split_whitespace().collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn diagnose_batch_keeps_its_golden_bytes() {
    let golden = golden_bytes();
    assert_eq!(golden.len(), 951);
    assert_eq!(wire::to_bytes(&request()), golden);
    assert_eq!(wire::from_bytes::<Request>(&golden).unwrap(), request());
}
