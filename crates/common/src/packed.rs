//! The packed form of a row: its byte encoding, at rest and on the wire.
//!
//! A [`Row`] is what a transaction works on — a vector of owned
//! [`FieldValue`]s that stored procedures read and edit. A [`PackedRow`] is
//! what a record *stores*: **one immutable, reference-counted buffer holding
//! the row's wire encoding** — a `u32le` field count, then per field a tag
//! byte (`0` `U64`, `1` `I64`, `2` `F64`, `3` `Str`, `4` `Bytes`) followed by
//! the eight little-endian payload bytes of a number, or a `u32le` length
//! and the payload of a string / byte field. It is the tuple format of the
//! storage layer, the way a heap tuple is to a database executor's datums:
//!
//! * a stored version is one heap allocation (a 10 × 10-byte YCSB row is
//!   16 + 154 bytes instead of eleven allocations totalling 656), and
//!   cloning it is a reference-count bump, so moving a version into a
//!   record's epoch stash copies nothing;
//! * its bytes *are* the row's encoding in a log entry and on the wire, so
//!   a digest or a checkpoint can hash or copy them as they are;
//! * reading a record hands out the stored buffer itself: a transaction
//!   reads fields straight out of it ([`PackedRow::field`] yields borrowed
//!   [`FieldRef`]s), and only a procedure that edits the row unpacks it into
//!   a [`Row`] — once — to build the new version;
//! * installing a row packs it (one allocation), and a replica installs a
//!   single-field write by splicing the field into the stored encoding
//!   ([`PackedRow::with_field`], one allocation) without unpacking.
//!
//! The whole row codec lives here — [`FieldRef::encode`],
//! [`FieldValue::decode`], [`Row::encode`], [`Row::decode`],
//! [`PackedRow::decode`], and the allocation-free validators [`split_field`]
//! and [`split_row`] — over plain byte slices; `star_replication`
//! adapts it to `bytes` cursors and `star_proto` calls it directly. Everything that
//! parses bytes returns typed errors and never panics; the file is in
//! `star-lint`'s panic-freedom scope in full.

use crate::error::Error;
use crate::row::{FieldValue, Row};
use std::fmt;
use std::sync::Arc;

const TAG_U64: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BYTES: u8 = 4;

/// The encoding of a row without fields (a zero field count).
const EMPTY_ROW: &[u8] = &[0, 0, 0, 0];

impl FieldValue {
    /// The borrowed view of this value.
    pub fn as_ref(&self) -> FieldRef<'_> {
        match self {
            FieldValue::U64(v) => FieldRef::U64(*v),
            FieldValue::I64(v) => FieldRef::I64(*v),
            FieldValue::F64(v) => FieldRef::F64(*v),
            FieldValue::Str(s) => FieldRef::Str(s),
            FieldValue::Bytes(b) => FieldRef::Bytes(b),
        }
    }

    /// Decodes one field from the front of `input`, advancing it. Every read
    /// is bounds checked; malformed input yields a typed error.
    pub fn decode(input: &mut &[u8]) -> crate::Result<FieldValue> {
        let (field, rest) = split_field(input)?;
        *input = rest;
        Ok(field.to_owned())
    }
}

/// A single typed field borrowed from a packed row's buffer or from a
/// [`FieldValue`]: what the decoder yields, the encoder takes and a
/// transaction reads a stored row's fields as.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FieldRef<'a> {
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Signed 64-bit integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// Variable-length string.
    Str(&'a str),
    /// Raw bytes.
    Bytes(&'a [u8]),
}

impl<'a> FieldRef<'a> {
    /// Exact encoded size of the field in bytes: tag + payload, plus the
    /// length prefix of a string / byte field.
    pub fn wire_size(self) -> usize {
        match self {
            FieldRef::U64(_) | FieldRef::I64(_) | FieldRef::F64(_) => 9,
            FieldRef::Str(s) => 5 + s.len(),
            FieldRef::Bytes(b) => 5 + b.len(),
        }
    }

    /// The inner `u64`, if this field is a `U64`.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            FieldRef::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The inner `i64`, if this field is an `I64`.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            FieldRef::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The inner `f64`, if this field is an `F64`.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            FieldRef::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The borrowed string, if this field is a `Str`.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            FieldRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The borrowed bytes, if this field is `Bytes`.
    pub fn as_bytes(self) -> Option<&'a [u8]> {
        match self {
            FieldRef::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// An owned copy of the field.
    pub fn to_owned(self) -> FieldValue {
        match self {
            FieldRef::U64(v) => FieldValue::U64(v),
            FieldRef::I64(v) => FieldValue::I64(v),
            FieldRef::F64(v) => FieldValue::F64(v),
            FieldRef::Str(s) => FieldValue::Str(s.to_owned()),
            FieldRef::Bytes(b) => FieldValue::Bytes(b.to_vec()),
        }
    }

    /// Encodes the field (tag byte + payload, little-endian), handing the
    /// bytes to `put` front to back. Part of the shared binary vocabulary
    /// also used by the `star-proto` wire protocol.
    pub fn encode(self, put: &mut impl FnMut(&[u8])) {
        let (tag, number, payload): (u8, [u8; 8], Option<&[u8]>) = match self {
            FieldRef::U64(v) => (TAG_U64, v.to_le_bytes(), None),
            FieldRef::I64(v) => (TAG_I64, v.to_le_bytes(), None),
            FieldRef::F64(v) => (TAG_F64, v.to_bits().to_le_bytes(), None),
            FieldRef::Str(s) => (TAG_STR, [0; 8], Some(s.as_bytes())),
            FieldRef::Bytes(b) => (TAG_BYTES, [0; 8], Some(b)),
        };
        put(&[tag]);
        match payload {
            None => put(&number),
            Some(bytes) => {
                put(&(bytes.len() as u32).to_le_bytes());
                put(bytes);
            }
        }
    }
}

fn malformed(what: &str) -> Error {
    Error::Durability(what.into())
}

/// Splits `N` bytes off the front of `input`.
fn take<const N: usize>(input: &[u8]) -> Option<([u8; N], &[u8])> {
    let head: [u8; N] = input.get(..N)?.try_into().ok()?;
    Some((head, input.get(N..)?))
}

/// Parses and validates the field at the front of `input`; returns it and
/// the bytes that follow it. Borrows, never allocates.
pub fn split_field(input: &[u8]) -> crate::Result<(FieldRef<'_>, &[u8])> {
    let (&tag, rest) = input.split_first().ok_or_else(|| malformed("truncated field"))?;
    let truncated = || malformed("truncated field payload");
    match tag {
        TAG_U64 | TAG_I64 | TAG_F64 => {
            let (raw, rest) = take::<8>(rest).ok_or_else(truncated)?;
            let field = match tag {
                TAG_U64 => FieldRef::U64(u64::from_le_bytes(raw)),
                TAG_I64 => FieldRef::I64(i64::from_le_bytes(raw)),
                _ => FieldRef::F64(f64::from_bits(u64::from_le_bytes(raw))),
            };
            Ok((field, rest))
        }
        TAG_STR | TAG_BYTES => {
            let (len, rest) = take::<4>(rest).ok_or_else(truncated)?;
            let len = u32::from_le_bytes(len) as usize;
            let (payload, rest) = rest.get(..len).zip(rest.get(len..)).ok_or_else(truncated)?;
            if tag == TAG_BYTES {
                return Ok((FieldRef::Bytes(payload), rest));
            }
            let text = std::str::from_utf8(payload)
                .map_err(|_| malformed("invalid utf-8 in string field"))?;
            Ok((FieldRef::Str(text), rest))
        }
        other => Err(Error::Durability(format!("unknown field tag {other}"))),
    }
}

/// Write cursor over the freshly allocated buffer of a row version.
struct RowWriter<'a> {
    // star-lint: allow(panic::slice-index) -- `mut [u8]` is a slice type, not an index expression
    dst: &'a mut [u8],
    at: usize,
}

impl RowWriter<'_> {
    fn put(&mut self, bytes: &[u8]) {
        let end = self.at + bytes.len();
        if let Some(slot) = self.dst.get_mut(self.at..end) {
            slot.copy_from_slice(bytes);
        }
        debug_assert!(end <= self.dst.len(), "row writer overran its buffer");
        self.at = end;
    }
}

/// A row as a record stores it: one immutable, reference-counted buffer
/// holding the row's wire encoding. See the module documentation.
#[derive(Clone, Default)]
pub struct PackedRow {
    /// The encoded row; `None` is the row without fields (no allocation).
    buf: Option<Arc<[u8]>>,
}

impl PackedRow {
    /// The packed row without fields. Allocates nothing.
    pub fn empty() -> Self {
        PackedRow { buf: None }
    }

    /// Packs `row` into one exactly sized allocation.
    pub fn pack(row: &Row) -> Self {
        if row.is_empty() {
            return PackedRow::empty();
        }
        PackedRow::write(row.wire_size(), |out| row.encode(&mut |bytes| out.put(bytes)))
    }

    /// One exactly sized allocation of `len` bytes, filled front to back by
    /// `fill`.
    fn write(len: usize, fill: impl FnOnce(&mut RowWriter<'_>)) -> Self {
        // A length-exact iterator collects into the reference-counted slice
        // with a single allocation.
        let mut buf: Arc<[u8]> = std::iter::repeat(0u8).take(len).collect();
        if let Some(dst) = Arc::get_mut(&mut buf) {
            let mut out = RowWriter { dst, at: 0 };
            fill(&mut out);
            debug_assert_eq!(out.at, len, "the row writer filled its buffer exactly");
        }
        PackedRow { buf: Some(buf) }
    }

    /// Field `index`, borrowed from the buffer; `None` past the last field.
    pub fn field(&self, index: usize) -> Option<FieldRef<'_>> {
        self.fields().nth(index)
    }

    /// This row with field `index` replaced by `value`, in one allocation and
    /// without unpacking: the encoding before and after the field is copied
    /// around the new field's. `None` (and no allocation) if the row has no
    /// field `index`.
    pub fn with_field(&self, index: usize, value: FieldRef<'_>) -> Option<PackedRow> {
        let bytes = self.as_bytes();
        let mut rest = bytes.get(4..)?;
        for _ in 0..index {
            rest = split_field(rest).ok()?.1;
        }
        let after = split_field(rest).ok()?.1;
        let head = bytes.get(..bytes.len() - rest.len())?;
        let len = head.len() + value.wire_size() + after.len();
        Some(PackedRow::write(len, |out| {
            out.put(head);
            value.encode(&mut |bytes| out.put(bytes));
            out.put(after);
        }))
    }

    /// The row a transaction works on: every field as an owned value.
    pub fn unpack(&self) -> Row {
        let mut fields = Vec::with_capacity(self.len());
        fields.extend(self.fields().map(FieldRef::to_owned));
        Row::new(fields)
    }

    /// Wraps bytes already validated as one row's encoding (one copy).
    fn from_encoded(bytes: &[u8]) -> PackedRow {
        if bytes.len() <= EMPTY_ROW.len() {
            return PackedRow::empty();
        }
        PackedRow { buf: Some(Arc::from(bytes)) }
    }

    /// Decodes a packed row from the front of `input`, advancing it: one
    /// validation pass over the fields, then one copy into the row's own
    /// buffer — a decoded row never keeps the block it arrived in alive.
    /// Malformed input yields a typed error and leaves `input` where it was.
    pub fn decode(input: &mut &[u8]) -> crate::Result<PackedRow> {
        let (encoded, rest) = split_row(input)?;
        let row = PackedRow::from_encoded(encoded);
        *input = rest;
        Ok(row)
    }

    /// The row's wire encoding: field count, then the encoded fields.
    pub fn as_bytes(&self) -> &[u8] {
        self.buf.as_deref().unwrap_or(EMPTY_ROW)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        take::<4>(self.as_bytes()).map_or(0, |(count, _)| u32::from_le_bytes(count) as usize)
    }

    /// Whether the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.buf.is_none()
    }

    /// The fields, borrowed from the buffer.
    fn fields(&self) -> impl Iterator<Item = FieldRef<'_>> {
        let mut rest = self.as_bytes().get(4..).unwrap_or(&[]);
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (field, tail) = split_field(rest).ok()?;
            rest = tail;
            Some(field)
        })
    }

    /// Whether the two rows are one shared buffer (rows without fields have
    /// no buffer to share).
    pub fn ptr_eq(a: &PackedRow, b: &PackedRow) -> bool {
        matches!((&a.buf, &b.buf), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }
}

impl PartialEq for PackedRow {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<Row> for PackedRow {
    fn eq(&self, other: &Row) -> bool {
        self.len() == other.len() && self.fields().zip(other.iter()).all(|(a, b)| a == b.as_ref())
    }
}

impl fmt::Debug for PackedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.unpack().fmt(f)
    }
}

impl From<&Row> for PackedRow {
    fn from(row: &Row) -> Self {
        PackedRow::pack(row)
    }
}

impl From<Row> for PackedRow {
    fn from(row: Row) -> Self {
        PackedRow::pack(&row)
    }
}

/// Splits the field count off the front of an encoded row; refuses a count
/// the bytes behind it cannot hold (every field occupies at least one byte),
/// so it is safe to use as an allocation hint.
fn split_count(input: &[u8]) -> crate::Result<(usize, &[u8])> {
    let (count, body) = take::<4>(input).ok_or_else(|| malformed("truncated row"))?;
    let count = u32::from_le_bytes(count) as usize;
    if count > body.len() {
        return Err(malformed("truncated row"));
    }
    Ok((count, body))
}

/// Validates the row encoding at the front of `input` — exactly what
/// [`Row::decode`] accepts — without materialising it; returns the row's
/// bytes and the bytes that follow them. Borrows, never allocates.
pub fn split_row(input: &[u8]) -> crate::Result<(&[u8], &[u8])> {
    let (count, mut rest) = split_count(input)?;
    for _ in 0..count {
        rest = split_field(rest)?.1;
    }
    let used = input.len() - rest.len();
    Ok((input.get(..used).unwrap_or(EMPTY_ROW), rest))
}

impl Row {
    /// Encodes the row — a field count followed by its fields — handing the
    /// bytes to `put` front to back.
    pub fn encode(&self, put: &mut impl FnMut(&[u8])) {
        put(&(self.len() as u32).to_le_bytes());
        for field in self.iter() {
            field.as_ref().encode(put);
        }
    }

    /// Decodes a row from the front of `input`, advancing it. Bounds checked
    /// like [`FieldValue::decode`].
    pub fn decode(input: &mut &[u8]) -> crate::Result<Row> {
        let (count, mut rest) = split_count(input)?;
        let mut fields = Vec::with_capacity(count);
        for _ in 0..count {
            let (field, tail) = split_field(rest)?;
            fields.push(field.to_owned());
            rest = tail;
        }
        *input = rest;
        Ok(Row::new(fields))
    }
}

/// Builds packed rows by appending encoded fields straight into a byte
/// buffer — no intermediate [`FieldValue`]s. [`RowBuilder::finish`] copies
/// the buffer into the row's one allocation and resets the builder, so a
/// loader keeps one builder for all of its rows.
#[derive(Debug, Default)]
pub struct RowBuilder {
    buf: Vec<u8>,
    count: u32,
}

impl RowBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the next field: the count header exists and counts it.
    fn begin_field(&mut self) {
        if self.buf.is_empty() {
            self.buf.extend_from_slice(EMPTY_ROW);
        }
        self.count += 1;
    }

    /// Appends a field.
    pub fn push(&mut self, field: FieldRef<'_>) -> &mut Self {
        self.begin_field();
        field.encode(&mut |bytes| self.buf.extend_from_slice(bytes));
        self
    }

    /// Appends a `U64` field.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.push(FieldRef::U64(v))
    }

    /// Appends an `I64` field.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.push(FieldRef::I64(v))
    }

    /// Appends an `F64` field.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.push(FieldRef::F64(v))
    }

    /// Appends a `Str` field.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.push(FieldRef::Str(v))
    }

    /// Appends a `Bytes` field of `len` bytes that `fill` writes in place
    /// (e.g. straight from a random-number generator).
    // star-lint: allow(panic::slice-index) -- `mut [u8]` is a slice type, not an index expression
    pub fn bytes_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> &mut Self {
        self.begin_field();
        self.buf.push(TAG_BYTES);
        self.buf.extend_from_slice(&(len as u32).to_le_bytes());
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        if let Some(payload) = self.buf.get_mut(start..) {
            fill(payload);
        }
        self
    }

    /// The row built so far; the builder is empty again afterwards.
    pub fn finish(&mut self) -> PackedRow {
        if let Some(count) = self.buf.get_mut(..4) {
            count.copy_from_slice(&self.count.to_le_bytes());
        }
        let row = PackedRow::from_encoded(&self.buf);
        self.buf.clear();
        self.count = 0;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::row;

    fn sample_row() -> Row {
        row([
            FieldValue::U64(42),
            FieldValue::I64(-7),
            FieldValue::F64(3.5),
            FieldValue::Str("hello".into()),
            FieldValue::Bytes(vec![1, 2, 3]),
        ])
    }

    #[test]
    fn a_packed_row_is_the_rows_encoding() {
        let row = sample_row();
        let packed = PackedRow::pack(&row);
        let mut encoded = Vec::new();
        row.encode(&mut |bytes| encoded.extend_from_slice(bytes));
        assert_eq!(packed.as_bytes(), &encoded[..]);
        assert_eq!(packed.as_bytes().len(), row.wire_size());
        assert_eq!(packed.len(), 5);
        assert_eq!(packed.unpack(), row);
        assert_eq!(format!("{packed:?}"), format!("{row:?}"));
    }

    #[test]
    fn clones_share_the_buffer_and_decoded_rows_own_theirs() {
        let packed = PackedRow::pack(&sample_row());
        assert!(PackedRow::ptr_eq(&packed, &packed.clone()));
        let mut input = packed.as_bytes();
        let decoded = PackedRow::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(decoded, packed);
        assert!(!PackedRow::ptr_eq(&decoded, &packed));
        let mut input = packed.as_bytes();
        assert_eq!(Row::decode(&mut input).unwrap(), sample_row());
    }

    #[test]
    fn the_empty_row_has_no_buffer() {
        for empty in [
            PackedRow::empty(),
            PackedRow::default(),
            PackedRow::pack(&Row::empty()),
            RowBuilder::new().finish(),
        ] {
            assert!(empty.is_empty());
            assert_eq!(empty.len(), 0);
            assert_eq!(empty.as_bytes(), &[0, 0, 0, 0]);
            assert!(empty.unpack().is_empty());
            assert!(!PackedRow::ptr_eq(&empty, &empty));
        }
        let mut input: &[u8] = &[0, 0, 0, 0, 9];
        assert!(PackedRow::decode(&mut input).unwrap().is_empty());
        assert_eq!(input, &[9]);
    }

    #[test]
    fn the_builder_writes_the_same_bytes_and_is_reusable() {
        let mut builder = RowBuilder::new();
        let built = builder
            .u64(42)
            .i64(-7)
            .f64(3.5)
            .str("hello")
            .bytes_with(3, |dst| dst.copy_from_slice(&[1, 2, 3]))
            .finish();
        assert_eq!(built, PackedRow::pack(&sample_row()));
        assert_eq!(builder.u64(7).finish().unpack(), row([FieldValue::U64(7)]));
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let bytes = PackedRow::pack(&sample_row()).as_bytes().to_vec();
        for cut in 0..bytes.len() {
            let mut input = &bytes[..cut];
            assert!(matches!(PackedRow::decode(&mut input), Err(Error::Durability(_))), "{cut}");
            assert!(matches!(Row::decode(&mut input), Err(Error::Durability(_))), "{cut}");
        }
        let mut unknown_tag = bytes.clone();
        unknown_tag[4] = 9;
        assert!(PackedRow::decode(&mut &unknown_tag[..]).is_err());
        let mut field: &[u8] = &[3, 1, 0, 0, 0, 0xFF];
        assert!(FieldValue::decode(&mut field).is_err(), "invalid utf-8");
    }
}
