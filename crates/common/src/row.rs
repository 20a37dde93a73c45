//! Typed rows and the replication operations that act on them.
//!
//! A [`Row`] is an ordered list of [`FieldValue`]s. Keeping the field
//! structure (instead of an opaque byte blob) is what allows STAR's two
//! replication strategies to be expressed faithfully:
//!
//! * **value replication** ships the whole row (all fields), which is safe to
//!   apply out of order under the Thomas write rule;
//! * **operation replication** ships an [`Operation`] that touches a single
//!   field (e.g. the string concatenation in TPC-C `Payment`), which is only
//!   correct when the replication stream of a partition is produced by a
//!   single thread and applied in order — exactly the partitioned phase.
//!
//! A [`Row`] is the form a transaction works on: a vector of owned values
//! that stored procedures read and edit in place. It is not the form a
//! record stores or the wire carries — that is the row's byte encoding, and
//! [`crate::packed`] owns it: the codec, and the one-allocation
//! [`crate::packed::PackedRow`] a record keeps its versions in. Sizes
//! reported here ([`Row::wire_size`], [`Operation::wire_size`]) are exact
//! lengths of that encoding.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single typed field of a row.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned 64-bit integer (ids, counts, quantities).
    U64(u64),
    /// Signed 64-bit integer (balances that may go negative, deltas).
    I64(i64),
    /// 64-bit float (amounts, discounts).
    F64(f64),
    /// Variable-length string (names, data columns, TPC-C `C_DATA`).
    Str(String),
    /// Raw bytes (YCSB columns).
    Bytes(Vec<u8>),
}

impl FieldValue {
    /// Exact encoded size of the field in bytes (tag byte, payload, and the
    /// length prefix of a string / byte field), used by the network
    /// substrate and the replication-bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        self.as_ref().wire_size()
    }

    /// Returns the inner `u64`, if this field is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_ref().as_u64()
    }

    /// Returns the inner `i64`, if this field is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_ref().as_i64()
    }

    /// Returns the inner `f64`, if this field is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_ref().as_f64()
    }

    /// Returns the inner string slice, if this field is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        self.as_ref().as_str()
    }

    /// Returns the inner byte slice, if this field is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        self.as_ref().as_bytes()
    }

    /// Byzantine corruption: flips one bit of the value (or appends a
    /// control character to a string), deterministically selected by
    /// `salt`. Shared by every fault-injection path in the repository —
    /// the simulated network's `Corrupt` verdict and the baselines'
    /// replication link — so the same salt always produces the same
    /// garbage. Returns `true` (every field kind is corruptible).
    pub fn corrupt(&mut self, salt: u64) -> bool {
        match self {
            FieldValue::U64(v) => *v ^= 1 << ((salt >> 16) % 64),
            FieldValue::I64(v) => *v ^= 1 << ((salt >> 16) % 63),
            // Flip a mantissa bit so the value stays finite but wrong.
            FieldValue::F64(v) => *v = f64::from_bits(v.to_bits() ^ (1 << ((salt >> 16) % 52))),
            FieldValue::Str(s) => s.push('\u{7}'),
            FieldValue::Bytes(b) => {
                if b.is_empty() {
                    b.push(0xFF);
                } else {
                    let i = (salt >> 16) as usize % b.len();
                    b[i] ^= 1 << ((salt >> 24) % 8);
                }
            }
        }
        true
    }
}

impl fmt::Debug for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "u64:{v}"),
            FieldValue::I64(v) => write!(f, "i64:{v}"),
            FieldValue::F64(v) => write!(f, "f64:{v}"),
            FieldValue::Str(s) => write!(f, "str:{:?}", s),
            FieldValue::Bytes(b) => write!(f, "bytes[{}]", b.len()),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<Vec<u8>> for FieldValue {
    fn from(v: Vec<u8>) -> Self {
        FieldValue::Bytes(v)
    }
}

/// An ordered collection of fields; the unit of storage and of value
/// replication.
#[derive(Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Row {
    fields: Vec<FieldValue>,
}

impl Row {
    /// Creates a row from a list of fields.
    pub fn new(fields: Vec<FieldValue>) -> Self {
        Row { fields }
    }

    /// An empty row (no fields). Useful as a placeholder for keys that exist
    /// purely as index entries.
    pub fn empty() -> Self {
        Row { fields: Vec::new() }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Borrow a field by index.
    pub fn field(&self, idx: usize) -> Option<&FieldValue> {
        self.fields.get(idx)
    }

    /// Mutably borrow a field by index.
    pub fn field_mut(&mut self, idx: usize) -> Option<&mut FieldValue> {
        self.fields.get_mut(idx)
    }

    /// Replaces a field, panicking if the index is out of range. The row
    /// schema is fixed at insert time, so an out-of-range index is a logic
    /// error in a stored procedure.
    pub fn set(&mut self, idx: usize, value: FieldValue) {
        self.fields[idx] = value;
    }

    /// Appends a field (used by loaders when building a row).
    pub fn push(&mut self, value: FieldValue) {
        self.fields.push(value);
    }

    /// Iterate over fields.
    pub fn iter(&self) -> impl Iterator<Item = &FieldValue> {
        self.fields.iter()
    }

    /// Exact encoded size of the full row in bytes (what value replication
    /// must ship): the field count and the fields.
    pub fn wire_size(&self) -> usize {
        4 + self.fields.iter().map(FieldValue::wire_size).sum::<usize>()
    }

    /// Byzantine corruption: mutates one salt-selected field in place (see
    /// [`FieldValue::corrupt`]). Returns `false` only for rows with no
    /// fields to flip.
    pub fn corrupt(&mut self, salt: u64) -> bool {
        if self.fields.is_empty() {
            return false;
        }
        let index = (salt >> 8) as usize % self.fields.len();
        self.fields[index].corrupt(salt)
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.fields.iter()).finish()
    }
}

impl FromIterator<FieldValue> for Row {
    fn from_iter<T: IntoIterator<Item = FieldValue>>(iter: T) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

/// A replicable operation against a single field of a row.
///
/// These are the user-programmable operations mentioned in Section 5 of the
/// paper ("STAR provides APIs for users to manually program the operations,
/// e.g., string concatenation"). Applying an operation on a replica
/// re-computes the new field value locally instead of shipping it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Operation {
    /// Overwrite one field with a new value.
    SetField {
        /// Index of the field to overwrite.
        field: usize,
        /// New value of the field.
        value: FieldValue,
    },
    /// Add a (possibly negative) delta to an `I64` field.
    AddI64 {
        /// Index of the field to update.
        field: usize,
        /// Signed delta to add.
        delta: i64,
    },
    /// Add a delta to an `F64` field (e.g. warehouse YTD in TPC-C Payment).
    AddF64 {
        /// Index of the field to update.
        field: usize,
        /// Delta to add.
        delta: f64,
    },
    /// Prepend a string to a `Str` field, truncating the result to
    /// `max_len` characters — the TPC-C `Payment` update of `C_DATA`.
    ConcatStr {
        /// Index of the field to update.
        field: usize,
        /// String to prepend.
        prefix: String,
        /// Maximum length to keep after concatenation.
        max_len: usize,
    },
    /// Overwrite the entire row. The fallback when no cheaper operation
    /// applies; wire cost is that of the whole row.
    SetRow {
        /// New row contents.
        row: Row,
    },
    /// Apply several operations to the same row, in order. Used when a stored
    /// procedure updates multiple fields of one record (e.g. TPC-C Payment
    /// touches the customer's balance, payment counters and `C_DATA`), which
    /// is still far cheaper to ship than the full row.
    Multi {
        /// The operations, applied left to right.
        ops: Vec<Operation>,
    },
}

/// Error produced when an [`Operation`] cannot be applied to a row, e.g. the
/// field index is out of range or the field has the wrong type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl fmt::Display for OperationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation error: {}", self.message)
    }
}

impl std::error::Error for OperationError {}

impl Operation {
    /// Applies the operation to `row` in place.
    pub fn apply(&self, row: &mut Row) -> Result<(), OperationError> {
        fn bad(msg: impl Into<String>) -> OperationError {
            OperationError { message: msg.into() }
        }
        match self {
            Operation::SetField { field, value } => {
                let slot = row
                    .field_mut(*field)
                    .ok_or_else(|| bad(format!("field {field} out of range")))?;
                *slot = value.clone();
                Ok(())
            }
            Operation::AddI64 { field, delta } => {
                let slot = row
                    .field_mut(*field)
                    .ok_or_else(|| bad(format!("field {field} out of range")))?;
                match slot {
                    FieldValue::I64(v) => {
                        *v = v.wrapping_add(*delta);
                        Ok(())
                    }
                    other => Err(bad(format!("AddI64 on non-I64 field {other:?}"))),
                }
            }
            Operation::AddF64 { field, delta } => {
                let slot = row
                    .field_mut(*field)
                    .ok_or_else(|| bad(format!("field {field} out of range")))?;
                match slot {
                    FieldValue::F64(v) => {
                        *v += *delta;
                        Ok(())
                    }
                    other => Err(bad(format!("AddF64 on non-F64 field {other:?}"))),
                }
            }
            Operation::ConcatStr { field, prefix, max_len } => {
                let slot = row
                    .field_mut(*field)
                    .ok_or_else(|| bad(format!("field {field} out of range")))?;
                match slot {
                    FieldValue::Str(s) => {
                        let mut out = String::with_capacity(prefix.len() + s.len());
                        out.push_str(prefix);
                        out.push_str(s);
                        out.truncate(*max_len);
                        *s = out;
                        Ok(())
                    }
                    other => Err(bad(format!("ConcatStr on non-Str field {other:?}"))),
                }
            }
            Operation::SetRow { row: new_row } => {
                *row = new_row.clone();
                Ok(())
            }
            Operation::Multi { ops } => {
                for op in ops {
                    op.apply(row)?;
                }
                Ok(())
            }
        }
    }

    /// Exact encoded size of the operation — what operation replication
    /// ships instead of the full row: a tag byte, the `u32` field index, the
    /// operands.
    pub fn wire_size(&self) -> usize {
        match self {
            Operation::SetField { value, .. } => 5 + value.wire_size(),
            Operation::AddI64 { .. } | Operation::AddF64 { .. } => 13,
            Operation::ConcatStr { prefix, .. } => 13 + prefix.len(),
            Operation::SetRow { row } => 1 + row.wire_size(),
            Operation::Multi { ops } => 5 + ops.iter().map(Operation::wire_size).sum::<usize>(),
        }
    }

    /// Byzantine corruption of the operation's payload: flips a bit of the
    /// carried value/delta (or mutates the carried string/row), so a
    /// corrupted operation-replication entry materialises a wrong row on
    /// the replica that applies it. Returns `false` only for an empty
    /// `Multi`.
    pub fn corrupt(&mut self, salt: u64) -> bool {
        match self {
            Operation::SetField { value, .. } => value.corrupt(salt),
            Operation::AddI64 { delta, .. } => {
                *delta ^= 1 << ((salt >> 16) % 63);
                true
            }
            Operation::AddF64 { delta, .. } => {
                *delta = f64::from_bits(delta.to_bits() ^ (1 << ((salt >> 16) % 52)));
                true
            }
            Operation::ConcatStr { prefix, .. } => {
                prefix.push('\u{7}');
                true
            }
            Operation::SetRow { row } => row.corrupt(salt),
            Operation::Multi { ops } => match ops.len() {
                0 => false,
                n => ops[(salt >> 4) as usize % n].corrupt(salt),
            },
        }
    }
}

/// Convenience macro-free builder for rows in tests and loaders.
pub fn row(fields: impl IntoIterator<Item = FieldValue>) -> Row {
    Row::new(fields.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn row_accessors() {
        let r = sample_row();
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.field(0).unwrap().as_u64(), Some(42));
        assert_eq!(r.field(1).unwrap().as_i64(), Some(-7));
        assert_eq!(r.field(2).unwrap().as_f64(), Some(3.5));
        assert_eq!(r.field(3).unwrap().as_str(), Some("hello"));
        assert_eq!(r.field(4).unwrap().as_bytes(), Some(&[1u8, 2, 3][..]));
        assert!(r.field(5).is_none());
    }

    #[test]
    fn wire_size_counts_payload() {
        let r = sample_row();
        // 4 header + three tagged numbers + tagged, length-prefixed payloads.
        assert_eq!(r.wire_size(), 4 + 9 + 9 + 9 + (5 + 5) + (5 + 3));
    }

    #[test]
    fn set_field_operation() {
        let mut r = sample_row();
        Operation::SetField { field: 0, value: FieldValue::U64(99) }.apply(&mut r).unwrap();
        assert_eq!(r.field(0).unwrap().as_u64(), Some(99));
    }

    #[test]
    fn add_i64_operation() {
        let mut r = sample_row();
        Operation::AddI64 { field: 1, delta: 10 }.apply(&mut r).unwrap();
        assert_eq!(r.field(1).unwrap().as_i64(), Some(3));
    }

    #[test]
    fn add_f64_operation() {
        let mut r = sample_row();
        Operation::AddF64 { field: 2, delta: 0.5 }.apply(&mut r).unwrap();
        assert_eq!(r.field(2).unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn concat_str_truncates() {
        let mut r = sample_row();
        Operation::ConcatStr { field: 3, prefix: "abc|".into(), max_len: 6 }.apply(&mut r).unwrap();
        assert_eq!(r.field(3).unwrap().as_str(), Some("abc|he"));
    }

    #[test]
    fn set_row_overwrites_everything() {
        let mut r = sample_row();
        let new = row([FieldValue::U64(1)]);
        Operation::SetRow { row: new.clone() }.apply(&mut r).unwrap();
        assert_eq!(r, new);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut r = sample_row();
        let err = Operation::AddI64 { field: 0, delta: 1 }.apply(&mut r).unwrap_err();
        assert!(err.message.contains("AddI64"));
        let err = Operation::ConcatStr { field: 0, prefix: "x".into(), max_len: 10 }
            .apply(&mut r)
            .unwrap_err();
        assert!(err.message.contains("ConcatStr"));
    }

    #[test]
    fn out_of_range_field_is_an_error() {
        let mut r = sample_row();
        let err =
            Operation::SetField { field: 10, value: FieldValue::U64(0) }.apply(&mut r).unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn multi_operation_applies_in_order() {
        let mut r = sample_row();
        Operation::Multi {
            ops: vec![
                Operation::AddI64 { field: 1, delta: 10 },
                Operation::AddF64 { field: 2, delta: 1.0 },
                Operation::ConcatStr { field: 3, prefix: "a|".into(), max_len: 100 },
            ],
        }
        .apply(&mut r)
        .unwrap();
        assert_eq!(r.field(1).unwrap().as_i64(), Some(3));
        assert_eq!(r.field(2).unwrap().as_f64(), Some(4.5));
        assert_eq!(r.field(3).unwrap().as_str(), Some("a|hello"));
        // An error in the middle of a Multi is surfaced.
        let err = Operation::Multi { ops: vec![Operation::AddI64 { field: 0, delta: 1 }] }
            .apply(&mut r)
            .unwrap_err();
        assert!(err.message.contains("AddI64"));
    }

    #[test]
    fn operation_wire_size_is_much_smaller_than_row_for_concat() {
        // The TPC-C Payment motivation: a 500-character C_DATA field vs a
        // short concatenated prefix.
        let big = row([FieldValue::Str("x".repeat(500))]);
        let op = Operation::ConcatStr { field: 0, prefix: "short".into(), max_len: 500 };
        assert!(op.wire_size() * 10 < big.wire_size());
    }
}
