//! The fleet wire format: a compact, self-describing binary encoding of
//! the serde data model.
//!
//! Requests, responses and persisted dictionaries all travel as
//! length-prefixed values of that model. The byte layout, tag table
//! included, is owned and documented by [`twm_store::wire`] — the
//! dictionary store persists the same values — and this module wraps it
//! with the fleet's error type. The codec streams in both directions:
//! values encode straight to bytes and decode straight from them, with no
//! intermediate value tree, and [`write_to`] / [`read_from`] do so over
//! any [`std::io::Write`] / [`std::io::Read`] without buffering the whole
//! payload; [`to_bytes`] / [`from_bytes`] are the in-RAM forms. Decoding
//! is strict: every length is bounds-checked, strings must be valid
//! UTF-8 and [`from_bytes`] rejects trailing bytes.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use twm_store::wire as codec;
use twm_store::wire::WireError;

use crate::FleetError;

fn lift(error: WireError) -> FleetError {
    match error {
        WireError::Io(e) => FleetError::Io(e),
        other => FleetError::Wire(other.to_string()),
    }
}

/// Encodes a value into the wire format.
#[must_use]
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    codec::to_bytes(value)
}

/// Decodes a value from the wire format.
///
/// # Errors
///
/// [`FleetError::Wire`] on a truncated or malformed payload, trailing
/// bytes, or a decoded value that does not match `T`'s shape.
pub fn from_bytes<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, FleetError> {
    codec::from_bytes(bytes).map_err(lift)
}

/// Encodes a value directly onto a writer — no intermediate buffer, so
/// exports stream to files and sockets whatever the dictionary size.
///
/// # Errors
///
/// [`FleetError::Io`] when the writer fails.
pub fn write_to<W, T>(writer: &mut W, value: &T) -> Result<(), FleetError>
where
    W: Write + ?Sized,
    T: Serialize + ?Sized,
{
    codec::write_to(writer, value).map_err(lift)
}

/// Decodes one value from a reader, leaving it positioned after the
/// value (framing is the caller's concern — see [`crate::tcp`]).
///
/// # Errors
///
/// [`FleetError::Io`] when the reader fails mid-value is *not* produced
/// — a truncated stream is a malformed value, [`FleetError::Wire`];
/// other reader failures surface as [`FleetError::Io`].
pub fn read_from<R, T>(reader: &mut R) -> Result<T, FleetError>
where
    R: Read + ?Sized,
    T: for<'de> Deserialize<'de>,
{
    codec::read_from(reader).map_err(lift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Sample {
        name: String,
        words: Vec<u64>,
        flag: bool,
    }

    fn sample() -> Sample {
        Sample {
            name: "march".into(),
            words: vec![0, 1, u64::MAX],
            flag: true,
        }
    }

    #[test]
    fn typed_round_trip() {
        let bytes = to_bytes(&sample());
        assert_eq!(from_bytes::<Sample>(&bytes).unwrap(), sample());
    }

    #[test]
    fn streaming_and_buffered_layouts_are_identical() {
        let buffered = to_bytes(&sample());
        let mut streamed = Vec::new();
        write_to(&mut streamed, &sample()).unwrap();
        assert_eq!(streamed, buffered);
        let mut reader = streamed.as_slice();
        assert_eq!(read_from::<_, Sample>(&mut reader).unwrap(), sample());
        assert!(reader.is_empty());
    }

    #[test]
    fn read_from_leaves_the_reader_between_values() {
        let mut stream = Vec::new();
        write_to(&mut stream, &1u32).unwrap();
        write_to(&mut stream, "two").unwrap();
        let mut reader = stream.as_slice();
        assert_eq!(read_from::<_, u32>(&mut reader).unwrap(), 1);
        assert_eq!(read_from::<_, String>(&mut reader).unwrap(), "two");
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Truncated value.
        let mut bytes = to_bytes(&sample());
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            from_bytes::<Sample>(&bytes),
            Err(FleetError::Wire(_))
        ));
        // Trailing bytes.
        let mut bytes = to_bytes(&sample());
        bytes.push(0);
        assert!(matches!(
            from_bytes::<Sample>(&bytes),
            Err(FleetError::Wire(_))
        ));
        // Unknown tag.
        assert!(matches!(from_bytes::<u32>(&[42]), Err(FleetError::Wire(_))));
    }
}
