//! The wire vocabulary: one [`Wire`] layout per value type, and the two
//! declaration macros that derive a message's encoder *and* decoder from a
//! single list of its fields.
//!
//! Layouts compose from a handful of primitives:
//!
//! * `u8`, `u32`, `u64`, `i64` — fixed width, little-endian;
//! * `bool` — one byte, `0` or `1`;
//! * `String` — a `u32` byte length, then UTF-8;
//! * [`Row`] — `star_common::packed`'s row codec (a `u32` field count, then
//!   the fields);
//! * `Option<Row>` — a presence byte `0` / `1`, then the row;
//! * `Vec<T>` — a `u32` element count, then the elements;
//! * a 4-tuple, or a struct declared with [`wire_struct!`] — its fields in
//!   order;
//! * an enum declared with [`wire_enum!`] — a tag byte, then the variant's
//!   fields in order.
//!
//! Decoding is canonical: every value has exactly one encoding, so a tag or
//! a `bool` byte the table does not name is an error, never a second spelling
//! of a known value. Every read is bounds checked before it happens, and a
//! count prefix is checked against the input left behind it, using the
//! element type's derived [`Wire::MIN_LEN`], before it sizes an allocation.

use crate::error::DecodeError;
use bytes::{Buf, BufMut, BytesMut};
use star_common::Row;

/// A value with one wire layout.
pub(crate) trait Wire: Sized {
    /// The fewest bytes any encoding of the type occupies: a count prefix
    /// claiming more elements than the remaining input can hold at this size
    /// each is malformed.
    const MIN_LEN: usize;

    /// Appends the value's encoding to `buf`.
    fn put(&self, buf: &mut BytesMut);

    /// Decodes a value from the front of `cur`, advancing past it.
    fn take(cur: &mut &[u8]) -> Result<Self, DecodeError>;
}

macro_rules! wire_int {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }

            fn take(cur: &mut &[u8]) -> Result<Self, DecodeError> {
                let have = cur.remaining();
                if have < Self::MIN_LEN {
                    return Err(DecodeError::Truncated { needed: Self::MIN_LEN, have });
                }
                Ok(cur.$get())
            }
        }
    )*};
}

wire_int! {
    u8: put_u8, get_u8;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
    i64: put_i64_le, get_i64_le;
}

impl Wire for bool {
    const MIN_LEN: usize = u8::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        u8::from(*self).put(buf);
    }

    fn take(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::take(cur)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::UnknownTag { context: "bool", tag }),
        }
    }
}

impl Wire for String {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        buf.put_slice(self.as_bytes());
    }

    fn take(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u32::take(cur)? as usize;
        if cur.remaining() < len {
            return Err(DecodeError::Truncated { needed: len, have: cur.remaining() });
        }
        let (raw, rest) = cur.split_at(len);
        *cur = rest;
        String::from_utf8(raw.to_vec())
            .map_err(|_| DecodeError::Malformed("invalid utf-8 in string"))
    }
}

impl Wire for Row {
    /// The field count.
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        self.encode(&mut |bytes| buf.put_slice(bytes));
    }

    fn take(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        Row::decode(cur).map_err(|_| DecodeError::Malformed("row"))
    }
}

impl Wire for Option<Row> {
    const MIN_LEN: usize = u8::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(row) = self {
            row.put(buf);
        }
    }

    fn take(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::take(cur)? {
            0 => Ok(None),
            1 => Ok(Some(Row::take(cur)?)),
            tag => Err(DecodeError::UnknownTag { context: "record presence", tag }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }

    fn take(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = u32::take(cur)? as usize;
        if n.saturating_mul(T::MIN_LEN.max(1)) > cur.remaining() {
            return Err(DecodeError::Malformed("count prefix exceeds remaining input"));
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::take(cur)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN + C::MIN_LEN + D::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
        self.2.put(buf);
        self.3.put(buf);
    }

    fn take(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::take(cur)?, B::take(cur)?, C::take(cur)?, D::take(cur)?))
    }
}

/// Declares a struct whose wire form is its fields in declaration order, and
/// derives its [`Wire`] codec from that one field list.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty ),*
        }

        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 0 $( + <$ty as $crate::codec::Wire>::MIN_LEN )*;

            fn put(&self, buf: &mut ::bytes::BytesMut) {
                $( $crate::codec::Wire::put(&self.$field, buf); )*
            }

            fn take(cur: &mut &[u8]) -> Result<Self, $crate::DecodeError> {
                Ok($name { $( $field: <$ty as $crate::codec::Wire>::take(cur)? ),* })
            }
        }
    };
}

/// Declares a tagged enum — one row per variant, `tag => Variant`, then the
/// variant's fields — and derives its [`Wire`] codec from those rows: the tag
/// byte, then the fields in declaration order. A tuple variant names its one
/// field (`Admin(query: AdminQuery)`); the name exists only in the table.
/// `as "<context>"` is what an unknown tag reports itself as.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident as $context:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                $( ($tfield:ident: $tty:ty) )?
                $( { $( $(#[$fmeta:meta])* $field:ident: $fty:ty ),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ($tty) )? $( { $( $(#[$fmeta])* $field: $fty ),* } )?,
            )*
        }

        impl $crate::codec::Wire for $name {
            /// The tag byte.
            const MIN_LEN: usize = <u8 as $crate::codec::Wire>::MIN_LEN;

            fn put(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $(
                        $name::$variant $( ($tfield) )? $( { $( $field ),* } )? => {
                            ::bytes::BufMut::put_u8(buf, $tag);
                            $( $crate::codec::Wire::put($tfield, buf); )?
                            $( $( $crate::codec::Wire::put($field, buf); )* )?
                        }
                    )*
                }
            }

            fn take(cur: &mut &[u8]) -> Result<Self, $crate::DecodeError> {
                match <u8 as $crate::codec::Wire>::take(cur)? {
                    $(
                        $tag => Ok($name::$variant
                            $( (<$tty as $crate::codec::Wire>::take(cur)?) )?
                            $( { $( $field: <$fty as $crate::codec::Wire>::take(cur)? ),* } )?),
                    )*
                    tag => Err($crate::DecodeError::UnknownTag { context: $context, tag }),
                }
            }
        }
    };
}

pub(crate) use {wire_enum, wire_struct};
