//! The wire format: a compact, self-describing binary encoding of the
//! serde data model, streamed over [`io::Read`] / [`io::Write`].
//!
//! Fleet requests, persisted dictionary shards and the paged store's
//! metadata all travel in it. Values stream straight between their types
//! and bytes: encoding implements [`serde::Encoder`] over any writer and
//! decoding implements [`serde::Decoder`] over any reader (an in-RAM
//! `&[u8]` is a reader too), with no intermediate value tree.
//!
//! | tag | payload |
//! |----:|---------|
//! | `0` | unit — empty |
//! | `1` | bool — one byte, `0`/`1` |
//! | `2` | unsigned — 16 bytes LE |
//! | `3` | signed — 16 bytes LE (two's complement) |
//! | `4` | float — 8 bytes, IEEE-754 bit pattern LE |
//! | `5` | string — `u64` LE byte length + UTF-8 bytes |
//! | `6` | sequence — `u64` LE element count + elements |
//! | `7` | map — `u64` LE entry count + key/value pairs |
//! | `8` | record — `u64` LE field count + (name string, value) pairs |
//! | `9` | variant — name string + payload value |
//!
//! Decoding is strict: strings must be valid UTF-8, unknown tags are
//! rejected, nesting depth is capped (also inside skipped values, which
//! are walked without recursion), and [`from_bytes`] rejects trailing
//! bytes. A record's fields may come in any order; unknown fields and
//! repeated names are skipped but still validated, and the first of
//! repeated names wins. A value that is malformed anywhere is
//! [`WireError::Malformed`], even when a shape mismatch
//! ([`WireError::Model`]) came first: after a shape error the decoder
//! still reads, and so validates, the rest of the value. Length prefixes
//! cannot drive runaway allocations: collections pre-reserve at most
//! [`serde::MAX_PREALLOC`] items and grow as their elements actually
//! decode, and long strings are read through [`io::Read::take`], so a
//! corrupt length fails on EOF after reading at most the real input.
//!
//! The module is deliberately the only place that knows the byte layout —
//! when the build moves to crates.io this is the seam to swap for
//! `bincode`/`postcard` over real serde. The streaming entry points are
//! [`write_to`] / [`read_from`]; [`to_bytes`] / [`from_bytes`] are the
//! in-RAM forms (`twm-fleet` re-exports them for its message framing).

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Decoder, Deserialize, Encoder, Serialize, Token, MAX_PREALLOC};

const TAG_UNIT: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_UINT: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;
const TAG_RECORD: u8 = 8;
const TAG_VARIANT: u8 = 9;

/// Values nested deeper than this are rejected — far above anything the
/// stack's data model produces, low enough that a crafted input cannot
/// overflow a decoding type's stack.
const MAX_DEPTH: usize = 256;

/// Errors of the wire codec.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The byte stream is not a well-formed wire value (truncation,
    /// unknown tag, invalid UTF-8, trailing bytes, excessive nesting).
    Malformed(String),
    /// The decoded value does not match the target type's shape.
    Model(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(message) => write!(f, "malformed wire payload: {message}"),
            WireError::Model(message) => {
                write!(f, "wire value does not fit target type: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        // EOF mid-value is a property of the payload, not the transport.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Malformed("payload truncated mid-value".to_string())
        } else {
            WireError::Io(e)
        }
    }
}

impl From<serde::Error> for WireError {
    fn from(e: serde::Error) -> Self {
        WireError::Model(e.to_string())
    }
}

/// Encodes a value into the wire format, streaming it to `writer`.
///
/// # Errors
///
/// [`WireError::Io`] when the writer fails.
pub fn write_to<W: Write + ?Sized, T: Serialize + ?Sized>(
    writer: &mut W,
    value: &T,
) -> Result<(), WireError> {
    let mut encoder = WireEncoder {
        out: writer,
        error: None,
    };
    value.encode(&mut encoder);
    match encoder.error {
        None => Ok(()),
        Some(error) => Err(error.into()),
    }
}

/// Decodes a value from the wire format, streaming it from `reader`.
///
/// Reads exactly one value and leaves the reader positioned after it —
/// the framing caller decides whether trailing bytes are acceptable
/// (length-prefixed transports pass an [`io::Read::take`] adapter or use
/// [`from_bytes`]).
///
/// # Errors
///
/// [`WireError::Malformed`] on a truncated or malformed payload,
/// [`WireError::Model`] if a well-formed value does not match `T`'s
/// shape, [`WireError::Io`] when the reader itself fails.
pub fn read_from<R: Read + ?Sized, T: for<'de> Deserialize<'de>>(
    reader: &mut R,
) -> Result<T, WireError> {
    let mut decoder = WireDecoder {
        reader,
        scratch: Vec::new(),
        open: Vec::new(),
    };
    match T::decode(&mut decoder) {
        Err(WireError::Model(message)) => {
            // Malformed beats Model: validate what is left of the value.
            decoder.finish()?;
            Err(WireError::Model(message))
        }
        result => result,
    }
}

/// Encodes a value into an in-RAM wire buffer.
#[must_use]
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_to(&mut bytes, value).expect("writing to a Vec cannot fail");
    bytes
}

/// Decodes a value from an in-RAM wire buffer, rejecting trailing bytes.
///
/// # Errors
///
/// As [`read_from`], plus [`WireError::Malformed`] for trailing bytes.
pub fn from_bytes<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, WireError> {
    let mut reader = bytes;
    let result = read_from(&mut reader);
    if matches!(result, Ok(_) | Err(WireError::Model(_))) && !reader.is_empty() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after value",
            reader.len()
        )));
    }
    result
}

/// The [`Encoder`] over a writer. The first write error sticks: later
/// writes are dropped and [`write_to`] reports it.
struct WireEncoder<'w, W: ?Sized> {
    out: &'w mut W,
    error: Option<io::Error>,
}

impl<W: Write + ?Sized> WireEncoder<'_, W> {
    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(error) = self.out.write_all(bytes) {
                self.error = Some(error);
            }
        }
    }

    /// A tag followed by a fixed-size little-endian payload, in one write.
    fn tagged<const N: usize>(&mut self, tag: u8, payload: [u8; N]) {
        let mut bytes = [0u8; 17];
        bytes[0] = tag;
        bytes[1..=N].copy_from_slice(&payload);
        self.put(&bytes[..=N]);
    }

    /// A length-prefixed name, untagged.
    fn text(&mut self, text: &str) {
        self.put(&(text.len() as u64).to_le_bytes());
        self.put(text.as_bytes());
    }
}

impl<W: Write + ?Sized> Encoder for WireEncoder<'_, W> {
    fn unit(&mut self) {
        self.put(&[TAG_UNIT]);
    }

    fn bool(&mut self, value: bool) {
        self.put(&[TAG_BOOL, u8::from(value)]);
    }

    fn uint(&mut self, value: u128) {
        self.tagged(TAG_UINT, value.to_le_bytes());
    }

    fn int(&mut self, value: i128) {
        self.tagged(TAG_INT, value.to_le_bytes());
    }

    fn float(&mut self, value: f64) {
        self.tagged(TAG_FLOAT, value.to_bits().to_le_bytes());
    }

    fn str(&mut self, value: &str) {
        self.tagged(TAG_STR, (value.len() as u64).to_le_bytes());
        self.put(value.as_bytes());
    }

    fn seq(&mut self, len: usize) {
        self.tagged(TAG_SEQ, (len as u64).to_le_bytes());
    }

    fn map(&mut self, len: usize) {
        self.tagged(TAG_MAP, (len as u64).to_le_bytes());
    }

    fn record(&mut self, len: usize) {
        self.tagged(TAG_RECORD, (len as u64).to_le_bytes());
    }

    fn field(&mut self, name: &str) {
        self.text(name);
    }

    fn variant(&mut self, name: &str) {
        self.put(&[TAG_VARIANT]);
        self.text(name);
    }
}

/// One open container of the value being decoded.
struct Open {
    /// Child values still to come (a map entry counts two).
    remaining: usize,
    /// Whether each child is a record field, preceded by its name.
    record: bool,
    /// Whether the current child's field name has been read.
    named: bool,
}

/// The [`Decoder`] over a reader. It keeps the stack of open containers
/// itself, which caps nesting, lets [`Decoder::skip`] walk any value
/// without recursion and lets [`WireDecoder::finish`] validate the rest of
/// a value after a shape error.
struct WireDecoder<'r, R: ?Sized> {
    reader: &'r mut R,
    /// Holds the last string or name read; tokens borrow it.
    scratch: Vec<u8>,
    open: Vec<Open>,
}

impl<R: Read + ?Sized> WireDecoder<'_, R> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut bytes = [0u8; N];
        self.reader.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn len(&mut self) -> Result<usize, WireError> {
        let raw = u64::from_le_bytes(self.array()?);
        usize::try_from(raw)
            .map_err(|_| WireError::Malformed(format!("length {raw} exceeds the address space")))
    }

    /// Reads a length-prefixed UTF-8 string into `scratch`.
    fn text(&mut self) -> Result<&str, WireError> {
        let len = self.len()?;
        self.scratch.clear();
        if len <= MAX_PREALLOC {
            self.scratch.resize(len, 0);
            self.reader.read_exact(&mut self.scratch)?;
        } else {
            // Grow through a bounded reader: a corrupt length fails on EOF
            // after at most the real input, instead of pre-allocating it.
            self.scratch.reserve(MAX_PREALLOC);
            let consumed = (&mut *self.reader)
                .take(len as u64)
                .read_to_end(&mut self.scratch)?;
            if consumed < len {
                return Err(WireError::Malformed(format!(
                    "string of {len} bytes truncated after {consumed}"
                )));
            }
        }
        std::str::from_utf8(&self.scratch)
            .map_err(|_| WireError::Malformed("string is not valid UTF-8".into()))
    }

    /// One child value of the innermost open container is complete;
    /// closes every container that this completes.
    fn complete(&mut self) {
        while let Some(top) = self.open.last_mut() {
            top.remaining -= 1;
            top.named = false;
            if top.remaining > 0 {
                return;
            }
            self.open.pop();
        }
    }

    /// A container header with `children` values was read.
    fn enter(&mut self, children: usize, record: bool) {
        if children == 0 {
            self.complete();
        } else {
            self.open.push(Open {
                remaining: children,
                record,
                named: false,
            });
        }
    }

    /// Whether the next item of the innermost container is a field name.
    fn expects_name(&self) -> bool {
        self.open.last().is_some_and(|top| top.record && !top.named)
    }

    /// Reads, and so validates, the rest of every open container.
    fn finish(&mut self) -> Result<(), WireError> {
        while !self.open.is_empty() {
            if self.expects_name() {
                self.field()?;
            }
            self.skip()?;
        }
        Ok(())
    }
}

impl<R: Read + ?Sized> Decoder for WireDecoder<'_, R> {
    type Error = WireError;

    fn next(&mut self) -> Result<Token<'_>, WireError> {
        if self.open.len() > MAX_DEPTH {
            return Err(WireError::Malformed(format!(
                "value nesting exceeds {MAX_DEPTH} levels"
            )));
        }
        let [tag] = self.array()?;
        let token = match tag {
            TAG_UNIT => Token::Unit,
            TAG_BOOL => match self.array()? {
                [0] => Token::Bool(false),
                [1] => Token::Bool(true),
                [other] => {
                    return Err(WireError::Malformed(format!(
                        "invalid bool byte {other:#04x}"
                    )))
                }
            },
            TAG_UINT => Token::UInt(u128::from_le_bytes(self.array()?)),
            TAG_INT => Token::Int(i128::from_le_bytes(self.array()?)),
            TAG_FLOAT => Token::Float(f64::from_bits(u64::from_le_bytes(self.array()?))),
            TAG_STR => {
                self.complete();
                return self.text().map(Token::Str);
            }
            TAG_SEQ => {
                let len = self.len()?;
                self.enter(len, false);
                return Ok(Token::Seq(len));
            }
            TAG_MAP => {
                let len = self.len()?;
                self.enter(len.saturating_mul(2), false);
                return Ok(Token::Map(len));
            }
            TAG_RECORD => {
                let len = self.len()?;
                self.enter(len, true);
                return Ok(Token::Record(len));
            }
            TAG_VARIANT => {
                self.enter(1, false);
                return self.text().map(Token::Variant);
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown value tag {other:#04x}"
                )))
            }
        };
        self.complete();
        Ok(token)
    }

    fn field(&mut self) -> Result<&str, WireError> {
        if !self.expects_name() {
            return Err(serde::Error::message("a field name read outside a record").into());
        }
        self.open.last_mut().expect("inside a record").named = true;
        self.text()
    }

    fn skip(&mut self) -> Result<(), WireError> {
        let depth = self.open.len();
        loop {
            if self.open.len() > depth && self.expects_name() {
                self.field()?;
            }
            self.next()?;
            if self.open.len() <= depth {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use serde::{Deserialize, Serialize};

    use super::*;

    fn hex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Encodes to exactly `golden` (hex) and decodes back to `value`.
    fn assert_golden<T>(value: &T, golden: &str)
    where
        T: Serialize + for<'de> Deserialize<'de> + PartialEq + fmt::Debug,
    {
        let bytes = to_bytes(value);
        assert_eq!(bytes, hex(golden), "layout drifted for {value:?}");
        assert_eq!(&from_bytes::<T>(&bytes).unwrap(), value);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Empty,
        Pair(u8, i8),
        Nested { inner: Option<Vec<bool>> },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Golden {
        unit: (),
        flag: bool,
        count: u32,
        delta: i64,
        ratio: f64,
        name: String,
        table: BTreeMap<String, Option<u16>>,
        shapes: Vec<Shape>,
    }

    /// Reference bytes of the layout that existing stores and exports
    /// hold; a codec change that drifts from them breaks those files.
    #[test]
    fn every_tag_keeps_its_golden_bytes() {
        assert_golden(&(), "00");
        assert_golden(&true, "0101");
        assert_golden(&7u32, "0207000000000000000000000000000000");
        assert_golden(&-2i64, "03feffffffffffffffffffffffffffffff");
        assert_golden(&1.5f64, "04000000000000f83f");
        assert_golden(&"hi".to_string(), "0502000000000000006869");
        assert_golden(
            &vec![1u8, 2],
            "06020000000000000002010000000000000000000000000000000202000000000000000000000000000000",
        );
        let map: BTreeMap<u8, bool> = [(1, true)].into_iter().collect();
        assert_golden(
            &map,
            "07010000000000000002010000000000000000000000000000000101",
        );
        assert_golden(
            &Some(3u8),
            "090400000000000000536f6d650203000000000000000000000000000000",
        );
    }

    #[test]
    fn nested_records_variants_and_maps_keep_their_golden_bytes() {
        let golden = Golden {
            unit: (),
            flag: false,
            count: 42,
            delta: -7,
            ratio: 0.25,
            name: "märz".to_string(),
            table: [("a".to_string(), Some(5u16)), ("b".to_string(), None)]
                .into_iter()
                .collect(),
            shapes: vec![
                Shape::Empty,
                Shape::Pair(9, -1),
                Shape::Nested {
                    inner: Some(vec![true, false]),
                },
            ],
        };
        assert_golden(
            &golden,
            concat!(
                "0808000000000000000400000000000000756e6974000400000000000000666c6167",
                "01000500000000000000636f756e74022a0000000000000000000000000000000500",
                "00000000000064656c746103f9ffffffffffffffffffffffffffffff050000000000",
                "0000726174696f04000000000000d03f04000000000000006e616d65050500000000",
                "0000006dc3a4727a05000000000000007461626c6507020000000000000005010000",
                "000000000061090400000000000000536f6d65020500000000000000000000000000",
                "0000050100000000000000620904000000000000004e6f6e65000600000000000000",
                "736861706573060300000000000000090500000000000000456d7074790009040000",
                "00000000005061697206020000000000000002090000000000000000000000000000",
                "0003ffffffffffffffffffffffffffffffff0906000000000000004e657374656408",
                "01000000000000000500000000000000696e6e6572090400000000000000536f6d65",
                "06020000000000000001010100",
            ),
        );
    }

    #[test]
    fn primitives_and_containers_round_trip() {
        fn round_trip<T>(value: T)
        where
            T: Serialize + for<'de> Deserialize<'de> + PartialEq + fmt::Debug,
        {
            assert_eq!(from_bytes::<T>(&to_bytes(&value)).unwrap(), value);
        }
        round_trip(17u64);
        round_trip(-4i32);
        round_trip(9usize);
        round_trip(-9isize);
        round_trip(1.5f32);
        round_trip(Some(5u8));
        round_trip(None::<u8>);
        round_trip(Box::new(3u16));
        let map: BTreeMap<String, u64> = [("a".to_string(), 1u64)].into_iter().collect();
        round_trip(map);
        let set: std::collections::BTreeSet<(bool, bool)> = [(true, false)].into_iter().collect();
        round_trip(set);
        // Unsigned and signed integers decode across tags when in range.
        assert_eq!(from_bytes::<i8>(&to_bytes(&5u64)).unwrap(), 5);
        assert_eq!(from_bytes::<u8>(&to_bytes(&5i64)).unwrap(), 5);
    }

    #[test]
    fn typed_round_trip() {
        let value: Vec<(String, Option<u32>)> =
            vec![("a".to_string(), Some(7)), ("b".to_string(), None)];
        let bytes = to_bytes(&value);
        let back: Vec<(String, Option<u32>)> = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
        let extremes = (u128::MAX, i128::MIN, -0.5f64, 'ß');
        assert_eq!(
            from_bytes::<(u128, i128, f64, char)>(&to_bytes(&extremes)).unwrap(),
            extremes
        );
    }

    #[test]
    fn streaming_round_trip_over_io() {
        let value: Vec<(String, Vec<u64>)> = (0..50)
            .map(|i| (format!("entry-{i}"), (0..i).collect()))
            .collect();
        let mut buffer = Vec::new();
        write_to(&mut buffer, &value).unwrap();
        assert_eq!(buffer, to_bytes(&value));
        // Read through a one-byte-at-a-time reader to exercise partial
        // reads on every fixed-size field.
        struct TrickleReader<'a>(&'a [u8]);
        impl Read for TrickleReader<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let back: Vec<(String, Vec<u64>)> = read_from(&mut TrickleReader(&buffer)).unwrap();
        assert_eq!(back, value);
        // A string longer than the pre-reserve bound reads through `take`.
        let long = "x".repeat(3 * MAX_PREALLOC + 1);
        let back: String = read_from(&mut TrickleReader(&to_bytes(&long))).unwrap();
        assert_eq!(back, long);
    }

    #[test]
    fn write_errors_are_reported() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(matches!(
            write_to(&mut Full, &vec![1u8, 2, 3]),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn read_from_leaves_reader_after_the_value() {
        let mut buffer = to_bytes(&3u32);
        buffer.extend_from_slice(&to_bytes(&"next".to_string()));
        let mut reader = buffer.as_slice();
        let first: u32 = read_from(&mut reader).unwrap();
        let second: String = read_from(&mut reader).unwrap();
        assert_eq!(first, 3);
        assert_eq!(second, "next");
        assert!(reader.is_empty());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Truncated integer payload.
        assert!(from_bytes::<u32>(&[TAG_UINT, 1, 2]).is_err());
        // Unknown tag.
        assert!(from_bytes::<u32>(&[0xFF]).is_err());
        // Oversized length prefix cannot allocate.
        let mut huge = vec![TAG_SEQ];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_bytes::<Vec<u32>>(&huge).is_err());
        // Oversized string length fails without a giant allocation.
        let mut text = vec![TAG_STR];
        text.extend_from_slice(&u64::MAX.to_le_bytes());
        text.extend_from_slice(b"abc");
        assert!(from_bytes::<String>(&text).is_err());
        // Trailing bytes.
        let mut padded = to_bytes(&7u32);
        padded.push(0);
        assert!(from_bytes::<u32>(&padded).is_err());
        // Invalid bool byte.
        assert!(from_bytes::<bool>(&[TAG_BOOL, 2]).is_err());
        // A variant chain deeper than the cap is rejected, not a stack
        // overflow.
        let mut nested = Vec::new();
        for _ in 0..(MAX_DEPTH + 8) {
            nested.push(TAG_VARIANT);
            nested.extend_from_slice(&1u64.to_le_bytes());
            nested.push(b'v');
        }
        nested.push(TAG_UNIT);
        assert!(matches!(
            from_bytes::<u32>(&nested),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn shape_mismatches_are_model_errors() {
        let bytes = to_bytes(&"text".to_string());
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(WireError::Model(_))
        ));
        assert!(matches!(
            from_bytes::<u64>(&to_bytes(&true)),
            Err(WireError::Model(_))
        ));
        assert!(matches!(
            from_bytes::<Vec<u8>>(&to_bytes(&())),
            Err(WireError::Model(_))
        ));
        assert!(matches!(
            from_bytes::<u8>(&to_bytes(&300u32)),
            Err(WireError::Model(_))
        ));
        assert!(matches!(
            from_bytes::<u8>(&to_bytes(&-1i32)),
            Err(WireError::Model(_))
        ));
        assert!(matches!(
            from_bytes::<char>(&bytes),
            Err(WireError::Model(_))
        ));
        // Trailing bytes after a shape mismatch are still malformed.
        let mut padded = bytes;
        padded.push(TAG_UNIT);
        assert!(matches!(
            from_bytes::<u32>(&padded),
            Err(WireError::Malformed(_))
        ));
    }

    // --- hand-encoded payloads for the decoder's rules --------------------

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Pair {
        a: u32,
        b: bool,
    }

    fn header(tag: u8, len: usize) -> Vec<u8> {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&(len as u64).to_le_bytes());
        bytes
    }

    /// A length-prefixed name (a field name, or a variant's after its tag).
    fn name(text: &str) -> Vec<u8> {
        let mut bytes = (text.len() as u64).to_le_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        bytes
    }

    fn variant(text: &str) -> Vec<u8> {
        let mut bytes = vec![TAG_VARIANT];
        bytes.extend(name(text));
        bytes
    }

    /// A record from already-encoded `(name, value)` pairs.
    fn record(fields: &[(&str, Vec<u8>)]) -> Vec<u8> {
        let mut bytes = header(TAG_RECORD, fields.len());
        for (field, value) in fields {
            bytes.extend(name(field));
            bytes.extend_from_slice(value);
        }
        bytes
    }

    #[test]
    fn records_decode_shuffled_with_unknown_and_repeated_fields() {
        let nested_unknown = {
            let mut bytes = header(TAG_MAP, 1);
            bytes.extend(to_bytes(&"k".to_string()));
            bytes.extend(record(&[("deep", to_bytes(&vec![Some(1u8), None]))]));
            bytes
        };
        let bytes = record(&[
            ("b", to_bytes(&true)),
            ("extra", nested_unknown),
            ("a", to_bytes(&9u32)),
            ("a", to_bytes(&"ignored".to_string())),
        ]);
        let expected = Pair { a: 9, b: true };
        assert_eq!(from_bytes::<Pair>(&bytes).unwrap(), expected);
        assert_eq!(
            read_from::<_, Pair>(&mut bytes.as_slice()).unwrap(),
            expected
        );
    }

    #[test]
    fn missing_fields_unknown_variants_and_wrong_arities_are_model_errors() {
        let missing = record(&[("a", to_bytes(&1u32))]);
        assert!(matches!(
            from_bytes::<Pair>(&missing),
            Err(WireError::Model(_))
        ));

        let mut unknown = variant("Other");
        unknown.push(TAG_UNIT);
        assert!(matches!(
            from_bytes::<Shape>(&unknown),
            Err(WireError::Model(_))
        ));

        let mut arity = variant("Pair");
        arity.extend(to_bytes(&(1u8, 2i8, 3u8)));
        assert!(matches!(
            from_bytes::<Shape>(&arity),
            Err(WireError::Model(_))
        ));
        let triple = to_bytes(&(1u8, 2u8, 3u8));
        assert!(matches!(
            from_bytes::<(u8, u8)>(&triple),
            Err(WireError::Model(_))
        ));
    }

    #[test]
    fn a_shape_error_then_truncation_is_malformed() {
        // `a` holds a string, so `Pair` fails on shape first; the record
        // is then cut short inside `b`.
        let mut bytes = record(&[("a", to_bytes(&"x".to_string())), ("b", to_bytes(&true))]);
        bytes.pop();
        assert!(matches!(
            from_bytes::<Pair>(&bytes),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            read_from::<_, Pair>(&mut bytes.as_slice()),
            Err(WireError::Malformed(_))
        ));
        // The same for a nested variant whose name is already wrong.
        let mut nested = variant("Nope");
        nested.extend(header(TAG_SEQ, 2));
        nested.extend(to_bytes(&1u8));
        assert!(matches!(
            from_bytes::<Shape>(&nested),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            read_from::<_, Shape>(&mut nested.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn a_deep_variant_chain_in_an_unknown_field_is_malformed() {
        let mut chain = Vec::new();
        for _ in 0..100_000 {
            chain.extend(variant("v"));
        }
        chain.push(TAG_UNIT);
        let bytes = record(&[
            ("zz", chain),
            ("a", to_bytes(&1u32)),
            ("b", to_bytes(&false)),
        ]);
        assert!(matches!(
            from_bytes::<Pair>(&bytes),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            read_from::<_, Pair>(&mut bytes.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }
}
