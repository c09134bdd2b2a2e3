//! The writer: [`ToJson`] appends a value's compact JSON to a `String`.
//! Its byte contract — the one every report, golden and trace is pinned
//! to — is in DESIGN.md §6, "The JSON module".

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::escape_into;

/// A value with a compact JSON form. `#[derive(ToJson)]` (the same name,
/// re-exported beside this trait) writes structs and enums; the impls
/// here cover the std types those contain.
pub trait ToJson {
    /// Append this value's JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// A map key: written as a JSON string.
pub trait JsonKey {
    /// Append this key, quoted, to `out`.
    fn write_key(&self, out: &mut String);
}

/// Render any [`ToJson`] value as compact JSON.
pub fn to_json<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

macro_rules! integers {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn write_json(&self, out: &mut String) {
                    let _ = write!(out, "{self}");
                }
            }

            impl JsonKey for $ty {
                fn write_key(&self, out: &mut String) {
                    let _ = write!(out, "\"{self}\"");
                }
            }
        )+
    };
}

integers!(u8, u32, u64, usize, i32);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// Non-finite values become `null` (JSON has no NaN or Infinity).
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for f32 {
    fn write_json(&self, out: &mut String) {
        f64::from(*self).write_json(out);
    }
}

impl ToJson for () {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl JsonKey for String {
    fn write_key(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson + ToOwned + ?Sized> ToJson for Cow<'_, T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            k.write_key(out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json, ToJson};

    /// `to_json(v)` is `expect`, and the reader accepts it.
    fn row<T: ToJson + ?Sized>(v: &T, expect: &str) {
        let text = to_json(v);
        assert_eq!(text, expect);
        parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    }

    #[test]
    fn primitives() {
        row(&true, "true");
        row(&42u64, "42");
        row(&-7i32, "-7");
        row(&1.5f64, "1.5");
        row(&f64::INFINITY, "null");
        row(&"a\"b", "\"a\\\"b\"");
        row(&Option::<u32>::None, "null");
        row(&Some(3u32), "3");
        row(&(), "null");
        assert_eq!(parse(&to_json(&u64::MAX)).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parse(&to_json(&"a\"b")).unwrap(), Json::Str("a\"b".into()));
    }

    #[test]
    fn sequences_and_tuples() {
        row(&vec![1u32, 2, 3], "[1,2,3]");
        row(&Vec::<u32>::new(), "[]");
        row(&(1u8, "x"), "[1,\"x\"]");
    }

    #[test]
    fn structs_maps_and_enums() {
        #[derive(ToJson)]
        struct S {
            a: u32,
            b: Vec<bool>,
        }
        row(
            &S {
                a: 1,
                b: vec![true],
            },
            "{\"a\":1,\"b\":[true]}",
        );

        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 2.5f64);
        row(&m, "{\"k\":2.5}");

        let mut by_id = BTreeMap::new();
        by_id.insert(3u32, "x");
        row(&by_id, "{\"3\":\"x\"}");

        #[derive(ToJson)]
        enum E {
            Unit,
            New(u32),
            Struct { x: u8 },
        }
        row(&E::Unit, "\"Unit\"");
        row(&E::New(5), "{\"New\":5}");
        row(&E::Struct { x: 1 }, "{\"Struct\":{\"x\":1}}");
    }

    #[test]
    fn output_always_validates() {
        #[derive(ToJson)]
        struct Nested {
            name: String,
            items: Vec<(u64, Option<f64>)>,
            tags: BTreeMap<String, Vec<i32>>,
        }
        let mut tags = BTreeMap::new();
        tags.insert("weird \"key\"\n".to_string(), vec![-1, 0, 1]);
        let v = Nested {
            name: "line1\nline2\t\"q\"".to_string(),
            items: vec![(u64::MAX, None), (0, Some(0.125))],
            tags,
        };
        let doc = parse(&to_json(&v)).unwrap();
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some(v.name.as_str())
        );
        let tags = doc.get("tags").and_then(Json::as_obj).unwrap();
        assert_eq!(&*tags[0].0, "weird \"key\"\n");
    }

    #[test]
    fn float_formatting() {
        row(&vec![1.5, f64::NAN, f64::NEG_INFINITY], "[1.5,null,null]");
        row(&0.25f32, "0.25");
        row(&0.1f32, "0.10000000149011612");
    }

    #[test]
    fn attributes_rename_skip_and_untagged() {
        #[derive(ToJson)]
        struct Doc<'a> {
            #[json(rename = "traceEvents")]
            events: Vec<Ev<'a>>,
            #[json(skip)]
            _hidden: u64,
            empty: Empty,
        }
        #[derive(ToJson)]
        struct Empty {}
        #[derive(ToJson)]
        #[json(untagged)]
        enum Ev<'a> {
            Name(&'a str),
            Pair((u8, Option<u8>)),
        }
        let doc = Doc {
            events: vec![Ev::Name("x"), Ev::Pair((7, None))],
            _hidden: 9,
            empty: Empty {},
        };
        row(&doc, "{\"traceEvents\":[\"x\",[7,null]],\"empty\":{}}");
    }

    /// Doc comments are attributes too (`#[doc = "…"]`); the derive reads
    /// only `json(...)` ones, whatever words a comment happens to hold.
    #[test]
    fn doc_comments_are_not_json_attributes() {
        /// Kept tagged, not untagged.
        #[derive(ToJson)]
        enum Q {
            /// Also not untagged.
            A(u32),
        }
        #[derive(ToJson)]
        struct R {
            /// Was renamed from "old"; the key is still `new`. Not skip.
            new: u32,
        }
        row(&Q::A(5), "{\"A\":5}");
        row(&R { new: 1 }, "{\"new\":1}");
    }
}
