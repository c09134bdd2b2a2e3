//! Wire-size accounting: the bytes a value would occupy on the wire.
//!
//! The simulation never needs real byte buffers — messages travel inside the
//! process as Rust values — but the network model needs faithful *sizes*.
//! [`WireSize`] charges a compact binary encoding: fixed-width integers
//! (`usize` as 8), a 1-byte `bool` and `Option` tag, a 4-byte length before
//! strings, sequences and maps, fields back to back, and a 4-byte variant
//! tag per enum (`DsmMsg` in `nscc-dsm`). An `Arc` costs its pointee.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Length prefix used for strings, sequences and maps.
const LEN_PREFIX: usize = 4;

/// A value the network model can charge for: its encoded size in bytes.
pub trait WireSize {
    /// Encoded size of `self` in bytes.
    fn wire_size(&self) -> usize;
}

/// Compute the encoded size in bytes of `value` under the compact binary
/// encoding [`WireSize`] describes. Deterministic and allocation-free.
///
/// ```
/// use nscc_msg::wire_size;
/// assert_eq!(wire_size(&0u64), 8);
/// assert_eq!(wire_size(&(1u32, 2u32)), 8);
/// // Vec: 4-byte length prefix + elements.
/// assert_eq!(wire_size(&vec![0u8; 10]), 14);
/// ```
pub fn wire_size<T: WireSize + ?Sized>(value: &T) -> usize {
    value.wire_size()
}

macro_rules! fixed {
    ($($ty:ty => $bytes:expr),+) => {
        $(
            impl WireSize for $ty {
                fn wire_size(&self) -> usize {
                    $bytes
                }
            }
        )+
    };
}

fixed!(
    () => 0,
    bool => 1,
    u8 => 1,
    u16 => 2,
    u32 => 4,
    u64 => 8,
    usize => 8,
    i32 => 4,
    i64 => 8,
    f32 => 4,
    f64 => 8,
    char => 4
);

impl WireSize for str {
    fn wire_size(&self) -> usize {
        LEN_PREFIX + self.len()
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        self.as_str().wire_size()
    }
}

impl<T: WireSize + ?Sized> WireSize for &T {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

impl<T: WireSize + ?Sized> WireSize for Arc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, T::wire_size)
    }
}

impl<T: WireSize> WireSize for [T] {
    fn wire_size(&self) -> usize {
        LEN_PREFIX + self.iter().map(T::wire_size).sum::<usize>()
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        self.as_slice().wire_size()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<K: WireSize, V: WireSize> WireSize for BTreeMap<K, V> {
    fn wire_size(&self) -> usize {
        LEN_PREFIX + self.iter().map(|kv| kv.wire_size()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(wire_size(&true), 1);
        assert_eq!(wire_size(&1u8), 1);
        assert_eq!(wire_size(&1u16), 2);
        assert_eq!(wire_size(&1u32), 4);
        assert_eq!(wire_size(&1u64), 8);
        assert_eq!(wire_size(&1usize), 8);
        assert_eq!(wire_size(&1i64), 8);
        assert_eq!(wire_size(&1.0f32), 4);
        assert_eq!(wire_size(&1.0f64), 8);
        assert_eq!(wire_size(&'x'), 4);
        assert_eq!(wire_size(&()), 0);
    }

    #[test]
    fn strings_and_bytes_are_length_prefixed() {
        assert_eq!(wire_size(&"hello"), 4 + 5);
        assert_eq!(wire_size(&String::from("hi")), 4 + 2);
    }

    #[test]
    fn options() {
        assert_eq!(wire_size(&Option::<u64>::None), 1);
        assert_eq!(wire_size(&Some(1u64)), 9);
    }

    #[test]
    fn sequences() {
        assert_eq!(wire_size(&Vec::<u32>::new()), 4);
        assert_eq!(wire_size(&vec![1u32, 2, 3]), 4 + 12);
        assert_eq!(wire_size(&[1u64; 4].as_slice()), 4 + 32);
        assert_eq!(wire_size(&Arc::new(vec![0u8; 16])), 4 + 16);
    }

    #[test]
    fn maps() {
        let mut m = BTreeMap::new();
        m.insert(1u32, 2u64);
        m.insert(3u32, 4u64);
        assert_eq!(wire_size(&m), 4 + 2 * (4 + 8));
    }

    #[test]
    fn nested() {
        let items = vec![(1u16, None), (2u16, Some(3.0f64))];
        // 4 (len) + [2+1] + [2+1+8]
        assert_eq!(wire_size(&items), 4 + 3 + 11);
        // + (4+3): tuples are their elements back to back.
        assert_eq!(wire_size(&(items, "abc")), 4 + 3 + 11 + 7);
    }
}
