//! The row codec and the packed row against a reference copy of the encoder
//! they replaced.
//!
//! `star_replication` used to serialise a row field by field (its old
//! `encode_row`); the codec now lives in `star_common::packed`, which both
//! `star_replication` and `star_proto` call, and a record stores exactly
//! those bytes as a [`PackedRow`]. This seeded property test keeps a
//! test-local copy of the old encoder and checks, over a few thousand random
//! rows of all five field kinds (the empty row, empty strings and byte
//! fields, non-ASCII strings, 0–32 fields), that
//!
//! * [`Row::encode`], [`PackedRow::pack`] and [`RowBuilder`] write
//!   byte-for-byte what the old encoder wrote, and decoding or unpacking
//!   gives the fields back bit for bit;
//! * every truncation and every malformed edit of those bytes — an unknown
//!   tag, a length or a count running past the end, invalid UTF-8 — is a
//!   typed error from both decoders, never a panic, and leaves the input
//!   where it was;
//! * the packed row's field views agree with the unpacked row: field `i`
//!   read in place is the unpacked field `i`, and splicing a field in place
//!   writes the bytes packing the edited row would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_common::{Error, FieldRef, FieldValue, PackedRow, Row, RowBuilder};

const ROWS: usize = 2_400;

// ---------------------------------------------------------------------------
// Reference: the encoder as it was in `star_replication::entry`.
// ---------------------------------------------------------------------------

fn ref_encode_field(field: &FieldValue, out: &mut Vec<u8>) {
    match field {
        FieldValue::U64(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        FieldValue::I64(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        FieldValue::F64(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        FieldValue::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        FieldValue::Bytes(b) => {
            out.push(4);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
    }
}

fn ref_encode_row(fields: &[FieldValue]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for field in fields {
        ref_encode_field(field, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

const ALPHABET: &[char] = &['a', 'Z', ' ', '|', 'é', 'ß', '日', '本', '😀', '\u{7}', '\0'];

fn arb_string(rng: &mut StdRng, max_chars: usize) -> String {
    let chars = rng.gen_range(0..=max_chars);
    (0..chars).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NAN,
        _ => rng.gen_range(-1e12..1e12),
    }
}

fn arb_field(rng: &mut StdRng) -> FieldValue {
    match rng.gen_range(0..5u8) {
        0 => FieldValue::U64(rng.gen()),
        1 => FieldValue::I64(rng.gen()),
        2 => FieldValue::F64(arb_f64(rng)),
        3 => FieldValue::Str(arb_string(rng, 24)),
        _ => {
            let mut bytes = vec![0u8; rng.gen_range(0..24usize)];
            rng.fill(&mut bytes[..]);
            FieldValue::Bytes(bytes)
        }
    }
}

fn arb_fields(rng: &mut StdRng) -> Vec<FieldValue> {
    // One row in twelve is the empty row.
    let count = if rng.gen_range(0..12u8) == 0 { 0 } else { rng.gen_range(1..=32usize) };
    (0..count).map(|_| arb_field(rng)).collect()
}

/// The fields as bytes, so that floats compare by bit pattern.
fn bits(fields: impl IntoIterator<Item = FieldValue>) -> Vec<u8> {
    ref_encode_row(&fields.into_iter().collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

/// The seed of the rows the encoding and field-view properties run over.
const ROW_SEED: u64 = 0x000B_17E5;

#[test]
fn the_bytes_are_the_old_encoding() {
    let mut rng = StdRng::seed_from_u64(ROW_SEED);
    let mut builder = RowBuilder::new();
    let mut kinds_seen = [false; 5];
    for _ in 0..ROWS {
        let fields = arb_fields(&mut rng);
        let expected = ref_encode_row(&fields);
        let row = Row::new(fields.clone());

        let mut encoded = Vec::new();
        row.encode(&mut |bytes| encoded.extend_from_slice(bytes));
        assert_eq!(encoded, expected, "{fields:?}");
        assert_eq!(row.wire_size(), expected.len());

        // Packed, the row is those bytes in one buffer ...
        let packed = PackedRow::pack(&row);
        assert_eq!(packed.as_bytes(), &expected[..]);
        assert_eq!(packed.len(), fields.len());
        assert_eq!(packed.is_empty(), fields.is_empty());
        assert_eq!(PackedRow::from(row.clone()), packed);
        // ... which unpacks to what went in, bit for bit.
        assert_eq!(bits(packed.unpack().iter().cloned()), expected);
        for field in &fields {
            kinds_seen[bits([field.clone()])[4] as usize] = true;
        }

        // The builder writes the same bytes without the owned fields.
        for field in &fields {
            builder.push(field.as_ref());
        }
        assert_eq!(builder.finish().as_bytes(), &expected[..]);

        // Both decoders read them back — also in front of other bytes,
        // which they leave alone.
        let mut longer = expected.clone();
        longer.extend_from_slice(&[0xAB, 0xCD]);
        let mut input = &longer[..];
        assert_eq!(PackedRow::decode(&mut input).unwrap().as_bytes(), &expected[..]);
        assert_eq!(input, &[0xAB, 0xCD]);
        let mut input = &longer[..];
        assert_eq!(bits(Row::decode(&mut input).unwrap().iter().cloned()), expected);
        assert_eq!(input, &[0xAB, 0xCD]);
    }
    assert_eq!(kinds_seen, [true; 5]);
}

#[test]
fn malformed_bytes_are_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0x0701_2BAD);
    let rejected = |bytes: &[u8], why: &str| {
        let mut input = bytes;
        match PackedRow::decode(&mut input) {
            Err(Error::Durability(_)) => assert_eq!(input.len(), bytes.len(), "{why}: input moved"),
            other => panic!("{why}: unpacked {other:?} from {bytes:?}"),
        }
        match Row::decode(&mut input) {
            Err(Error::Durability(_)) => assert_eq!(input.len(), bytes.len(), "{why}: input moved"),
            other => panic!("{why}: decoded {other:?} from {bytes:?}"),
        }
    };
    for _ in 0..400 {
        let fields = arb_fields(&mut rng);
        let bytes = ref_encode_row(&fields);
        // Every truncation.
        for cut in 0..bytes.len() {
            rejected(&bytes[..cut], "truncation");
        }
        // A count the remaining bytes cannot hold.
        let mut overcounted = bytes.clone();
        overcounted[..4].copy_from_slice(&((bytes.len() - 4) as u32 + 1).to_le_bytes());
        rejected(&overcounted, "count beyond remaining");
        overcounted[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        rejected(&overcounted, "count of u32::MAX");

        // Per field: an unknown tag, a length running past the end, and —
        // for strings — invalid UTF-8.
        let mut at = 4;
        for field in &fields {
            let mut bad_tag = bytes.clone();
            bad_tag[at] = rng.gen_range(5..=255u8);
            rejected(&bad_tag, "unknown tag");
            let len = field.wire_size();
            if let FieldValue::Str(_) | FieldValue::Bytes(_) = field {
                let mut bad_len = bytes.clone();
                let beyond = (bytes.len() - at) as u32;
                bad_len[at + 1..at + 5].copy_from_slice(&beyond.to_le_bytes());
                rejected(&bad_len, "length beyond remaining");
            }
            if let FieldValue::Str(s) = field {
                if !s.is_empty() {
                    let mut bad_utf8 = bytes.clone();
                    bad_utf8[at + 5] = 0xFF;
                    rejected(&bad_utf8, "invalid utf-8");
                }
            }
            let mut input = &bytes[at..];
            assert!(FieldValue::decode(&mut input).is_ok());
            for cut in 0..len {
                let mut input = &bytes[at..at + cut];
                assert!(matches!(FieldValue::decode(&mut input), Err(Error::Durability(_))));
            }
            at += len;
        }
        assert_eq!(at, bytes.len());
    }
}

#[test]
fn packed_field_views_match_the_unpacked_row() {
    // A field's bytes, so that floats compare by bit pattern.
    let field_bits = |field: Option<FieldRef<'_>>| field.map(|f| bits([f.to_owned()]));
    let mut rng = StdRng::seed_from_u64(ROW_SEED);
    let mut spliced = 0;
    for _ in 0..ROWS {
        let packed = PackedRow::pack(&Row::new(arb_fields(&mut rng)));
        let unpacked = packed.unpack();
        for i in 0..packed.len() {
            let expected = unpacked.field(i).map(FieldValue::as_ref);
            assert_eq!(field_bits(packed.field(i)), field_bits(expected), "field {i}");

            let value = arb_field(&mut rng);
            let mut edited = unpacked.clone();
            edited.set(i, value.clone());
            let with_field = packed.with_field(i, value.as_ref()).expect("field in range");
            assert_eq!(with_field.as_bytes(), PackedRow::pack(&edited).as_bytes(), "field {i}");
            spliced += 1;
        }
        // Out of range: no field, no row, and the source is untouched.
        let before = packed.as_bytes().to_vec();
        for i in [packed.len(), packed.len() + rng.gen_range(1..64usize), usize::MAX] {
            assert!(packed.field(i).is_none(), "field {i} of {}", packed.len());
            assert!(packed.with_field(i, FieldRef::U64(7)).is_none(), "field {i}");
        }
        assert_eq!(packed.as_bytes(), &before[..]);
    }
    assert!(spliced > ROWS, "only {spliced} fields spliced");
}
