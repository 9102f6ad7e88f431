//! The typed identity of a tuple of values — what the grounder interns
//! atoms by, dedupes bindings by, and keeps as per-factor provenance.
//!
//! A [`Key`] is the tuple written as self-delimiting typed fields and
//! compared and hashed as bytes, so building one formats nothing and a
//! probe can encode into a reused buffer and look up by `&[u8]`. Two
//! tuples have equal keys exactly when they agree position by position:
//!
//! - `Int(i)` equals `Double(d)` when `d` is integral and in `i64`
//!   range, as [`Value::join_key`] has it (`-0.0` excepted, below);
//! - other doubles compare by bit pattern, except that every NaN is one
//!   value and `-0.0` is not `0.0` — the equality of their decimal
//!   rendering;
//! - points compare by coordinate, under the same double rules; other
//!   geometries by their WKT;
//! - text compares by content. Fields carry their length, so no
//!   character inside a string can make two different tuples meet.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use sya_geom::Geometry;
use sya_store::Value;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const INT: u8 = 3;
const DOUBLE: u8 = 4;
const TEXT: u8 = 5;
const POINT: u8 = 6;
const WKT: u8 = 7;

/// A hashed, typed tuple key (see the module docs for its equality).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Box<[u8]>);

impl Key {
    pub fn of(values: &[Value]) -> Key {
        let mut buf = Vec::new();
        for v in values {
            encode(v, &mut buf);
        }
        Key::from(buf.as_slice())
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<&[u8]> for Key {
    fn from(bytes: &[u8]) -> Key {
        Key(bytes.into())
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:02x?})", &self.0)
    }
}

/// A multiplicative word hasher (the FxHash mix) for key bytes. Every
/// binding probes the catalogue, so SipHash's resistance to crafted
/// collisions is traded for speed; the keys come from the knowledge
/// base's own tables.
#[derive(Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by [`Key`] under [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// Appends the key field of one value to `out`.
pub fn encode(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(b) => out.push(if *b { TRUE } else { FALSE }),
        Value::Int(i) => int(*i, out),
        Value::Double(d) => match integral(*d) {
            Some(i) => int(i, out),
            None => {
                out.push(DOUBLE);
                out.extend_from_slice(&double_bits(*d).to_le_bytes());
            }
        },
        Value::Text(s) => bytes(TEXT, s.as_bytes(), out),
        Value::Geom(Geometry::Point(p)) => {
            out.push(POINT);
            out.extend_from_slice(&double_bits(p.x).to_le_bytes());
            out.extend_from_slice(&double_bits(p.y).to_le_bytes());
        }
        Value::Geom(g) => bytes(WKT, sya_geom::to_wkt(g).as_bytes(), out),
    }
}

fn int(i: i64, out: &mut Vec<u8>) {
    out.push(INT);
    out.extend_from_slice(&i.to_le_bytes());
}

fn bytes(tag: u8, data: &[u8], out: &mut Vec<u8>) {
    out.push(tag);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(data);
}

/// The integer an integral double keys as, as [`Value::join_key`]
/// unifies them; `-0.0` keeps its sign.
fn integral(d: f64) -> Option<i64> {
    let negative_zero = d == 0.0 && d.is_sign_negative();
    (d.fract() == 0.0 && d.abs() < i64::MAX as f64 && !negative_zero).then_some(d as i64)
}

/// Bit pattern with every NaN folded into one.
fn double_bits(d: f64) -> u64 {
    if d.is_nan() {
        f64::NAN.to_bits()
    } else {
        d.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sya_geom::{Point, Rect};

    /// The text key the grounder used before typed keys: each value's
    /// `Display`, joined by `\u{1f}`. Kept as the oracle of [`Key`]'s
    /// equality.
    fn canonical_key(values: &[Value]) -> String {
        let parts: Vec<String> = values.iter().map(Value::to_string).collect();
        parts.join("\u{1f}")
    }

    #[test]
    fn int_and_integral_double_share_a_key() {
        assert_eq!(Key::of(&[Value::Int(2)]), Key::of(&[Value::Double(2.0)]));
        assert_ne!(Key::of(&[Value::Int(2)]), Key::of(&[Value::Double(2.5)]));
        assert_eq!(Key::of(&[Value::Int(0)]), Key::of(&[Value::Double(0.0)]));
        assert_ne!(Key::of(&[Value::Int(0)]), Key::of(&[Value::Double(-0.0)]));
        assert_eq!(Key::of(&[Value::Double(f64::NAN)]), Key::of(&[Value::Double(-f64::NAN)]));
        let p = |x: f64| Value::from(Point::new(x, 1.0));
        assert_eq!(Key::of(&[p(f64::NAN)]), Key::of(&[p(-f64::NAN)]));
        assert_ne!(Key::of(&[p(0.0)]), Key::of(&[p(-0.0)]));
    }

    #[test]
    fn a_separator_inside_text_does_not_merge_tuples() {
        let a = [Value::from("a'\u{1f}'b"), Value::from("c")];
        let b = [Value::from("a"), Value::from("b'\u{1f}'c")];
        assert_eq!(canonical_key(&a), canonical_key(&b), "the text key collides");
        assert_ne!(Key::of(&a), Key::of(&b));
    }

    /// A value drawn from small pools, so that equal pairs are common.
    fn value((tag, i, pick): (u8, i64, usize)) -> Value {
        const DOUBLES: [f64; 10] =
            [0.0, -0.0, 1.0, 2.0, 0.5, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e15];
        const TEXTS: [&str; 8] = ["", "a", "b", "a'", "'a", "NULL", "1", "a b"];
        let double = DOUBLES[pick % DOUBLES.len()];
        match tag {
            0 => Value::Null,
            1 => Value::Bool(i % 2 == 0),
            2 => Value::Int(i),
            3 => Value::Double(if pick % 3 == 0 { -double } else { double }),
            4 => Value::from(TEXTS[pick % TEXTS.len()]),
            5 => Value::from(Point::new(double, i as f64)),
            _ => Value::from(Geometry::Rect(Rect::raw(0.0, 0.0, double.abs(), 1.0))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Over tuples without `\u{1f}` in their text (and doubles whose
        /// decimal rendering is exact), typed equality is the text key's.
        #[test]
        fn typed_equality_is_the_text_keys(
            a in prop::collection::vec((0u8..7, -2i64..3, 0usize..30), 0..4),
            b in prop::collection::vec((0u8..7, -2i64..3, 0usize..30), 0..4),
        ) {
            let a: Vec<Value> = a.into_iter().map(value).collect();
            let b: Vec<Value> = b.into_iter().map(value).collect();
            prop_assert_eq!(
                Key::of(&a) == Key::of(&b),
                canonical_key(&a) == canonical_key(&b),
                "{:?} vs {:?}", a, b
            );
            prop_assert_eq!(Key::of(&a), Key::of(&a.clone()));
        }
    }
}
