//! The reader: [`FromJson`] builds a value from a parsed [`Json`] tree,
//! the mirror of [`ToJson`](super::ToJson). `#[derive(FromJson)]` (the
//! same name, re-exported beside this trait) reads named-field and
//! newtype structs; the impls here cover the std types those contain, and
//! [`Schema`] is the version stamp of a persisted document. The rules the
//! derive follows are in DESIGN.md §6, "The JSON module".
//!
//! Every error is a [`DecodeError`]: one line naming the JSON path of the
//! value that failed, `$.scenario.plan.links[3].drop: must be a
//! probability in [0, 1] (got 1.5)`. The path is built only when an
//! error is: decoding carries it as a chain of borrowed steps.

use std::fmt::{self, Write as _};

use super::{parse, Json, ToJson};

/// A value with a JSON form to read from.
pub trait FromJson: Sized {
    /// Read the value at `at` from `value`.
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError>;
}

/// Parse `text` and read it as a `T`: one line on any error, a parse
/// error's byte offset or a decode error's JSON path.
pub fn decode<T: FromJson>(text: &str) -> Result<T, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    T::read_json(&doc, Path::Root).map_err(|e| e.to_string())
}

/// Where a value sits in the document being read: `$`, then one `.key`
/// or `[index]` step per level.
#[derive(Clone, Copy)]
pub enum Path<'a> {
    /// The document root, `$`.
    Root,
    /// Member `key` of the object at the inner path.
    Key(&'a Path<'a>, &'a str),
    /// Item `index` of the array at the inner path.
    Index(&'a Path<'a>, usize),
}

impl<'a> Path<'a> {
    /// The path of member `key` of the object here.
    pub fn key(&'a self, key: &'a str) -> Path<'a> {
        Path::Key(self, key)
    }

    /// The path of item `index` of the array here.
    pub fn index(&'a self, index: usize) -> Path<'a> {
        Path::Index(self, index)
    }

    /// An error at this path.
    pub fn error(&self, message: impl fmt::Display) -> DecodeError {
        DecodeError {
            path: self.to_string(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => f.write_char('$'),
            Path::Key(up, key) => write!(f, "{up}.{key}"),
            Path::Index(up, i) => write!(f, "{up}[{i}]"),
        }
    }
}

/// A value that does not read as its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The JSON path of the value, `$.links[3].drop`.
    pub path: String,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Walk the members of the object at `at` once, handing each to `each`
/// with the index of its key in `keys` (at most 64) and its own path. A
/// member whose key is not in `keys`, or repeats one, is an error; which
/// keys must be present is the caller's to check. The body of every
/// derived impl.
pub fn read_object<'v>(
    value: &'v Json,
    at: Path<'_>,
    keys: &[&str],
    mut each: impl FnMut(usize, &'v Json, Path<'_>) -> Result<(), DecodeError>,
) -> Result<(), DecodeError> {
    assert!(keys.len() <= 64, "read_object: more than 64 keys");
    let members = value
        .as_obj()
        .ok_or_else(|| at.error("must be an object"))?;
    let mut seen = 0u64;
    for (key, v) in members {
        let here = at.key(key);
        let i = keys
            .iter()
            .position(|k| *k == &**key)
            .ok_or_else(|| here.error("unknown key"))?;
        if seen & 1 << i != 0 {
            return Err(here.error("repeated key"));
        }
        seen |= 1 << i;
        each(i, v, here)?;
    }
    Ok(())
}

/// A non-negative integer token, read exactly: a fraction, an exponent,
/// a sign or a value above `u64::MAX` is an error, so 64-bit seeds
/// survive (an `f64` would round them above 2^53).
impl FromJson for u64 {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        match value {
            Json::Num(n) => n
                .integer()
                .ok_or_else(|| at.error(format!("must be a non-negative integer (got {n:?})"))),
            _ => Err(at.error("must be a number")),
        }
    }
}

macro_rules! narrow_integers {
    ($($ty:ty),+) => {
        $(
            /// A [`u64`] token that must also fit this type.
            impl FromJson for $ty {
                fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
                    let v = u64::read_json(value, at)?;
                    <$ty>::try_from(v).map_err(|_| at.error(format!("out of range (got {v})")))
                }
            }
        )+
    };
}

narrow_integers!(u32, usize);

impl FromJson for f64 {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        value.as_f64().ok_or_else(|| at.error("must be a number"))
    }
}

impl FromJson for bool {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(at.error("must be true or false")),
        }
    }
}

impl FromJson for String {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| at.error("must be a string"))
    }
}

/// `null` reads as `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        match value {
            Json::Null => Ok(None),
            v => T::read_json(v, at).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        let items = value.as_arr().ok_or_else(|| at.error("must be an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| T::read_json(v, at.index(i)))
            .collect()
    }
}

/// The version stamp of a persisted document: writes `V` and reads only
/// `V`, so a document from another schema is refused at its `schema` key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Schema<const V: u64>;

impl<const V: u64> ToJson for Schema<V> {
    fn write_json(&self, out: &mut String) {
        V.write_json(out);
    }
}

impl<const V: u64> FromJson for Schema<V> {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        match u64::read_json(value, at)? {
            v if v == V => Ok(Schema),
            v => Err(at.error(format!("unsupported schema {v} (this build reads {V})"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{to_json, FromJson, ToJson};

    fn read<T: FromJson>(doc: &str) -> Result<T, String> {
        decode(doc)
    }

    #[test]
    fn derived_structs_follow_the_reader_rules() {
        #[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
        struct Inner {
            #[json(rename = "t_ns")]
            t: u64,
            #[json(default)]
            tag: Option<String>,
        }
        #[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
        #[json(default)]
        struct Knobs {
            k: u32,
            on: bool,
        }
        impl Default for Knobs {
            fn default() -> Self {
                Knobs { k: 7, on: true }
            }
        }
        #[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
        struct Outer {
            schema: Schema<3>,
            items: Vec<Inner>,
            #[json(default)]
            knobs: Knobs,
            #[json(skip)]
            cache: u64,
        }
        let full = Outer {
            schema: Schema,
            items: vec![
                Inner {
                    t: 5,
                    tag: Some("a".into()),
                },
                Inner { t: 6, tag: None },
            ],
            knobs: Knobs { k: 1, on: false },
            cache: 0,
        };
        let text = to_json(&full);
        assert_eq!(read::<Outer>(&text), Ok(full.clone()));

        for (doc, want) in [
            // Missing keys: `default` fields, `default` structs.
            (
                r#"{"schema":3,"items":[{"t_ns":1}]}"#,
                Ok("{\"schema\":3,\"items\":[{\"t_ns\":1,\"tag\":null}],\
                    \"knobs\":{\"k\":7,\"on\":true}}"),
            ),
            (
                r#"{"schema":3,"items":[],"knobs":{"on":false}}"#,
                Ok("{\"schema\":3,\"items\":[],\"knobs\":{\"k\":7,\"on\":false}}"),
            ),
            (r#"{"items":[]}"#, Err("$: missing key `schema`")),
            (
                r#"{"schema":3,"items":[{"tag":"x"}]}"#,
                Err("$.items[0]: missing key `t_ns`"),
            ),
            (
                r#"{"schema":4,"items":[]}"#,
                Err("$.schema: unsupported schema 4 (this build reads 3)"),
            ),
            (
                r#"{"schema":3,"items":[],"cache":1}"#,
                Err("$.cache: unknown key"),
            ),
            (
                r#"{"schema":3,"items":[],"items":[]}"#,
                Err("$.items: repeated key"),
            ),
            (
                r#"{"schema":3,"items":[{"t_ns":1.5}]}"#,
                Err("$.items[0].t_ns: must be a non-negative integer (got 1.5)"),
            ),
            (
                r#"{"schema":3,"items":[],"knobs":{"k":4294967296}}"#,
                Err("$.knobs.k: out of range (got 4294967296)"),
            ),
            (
                r#"{"schema":3,"items":{}}"#,
                Err("$.items: must be an array"),
            ),
            ("[]", Err("$: must be an object")),
        ] {
            let got = read::<Outer>(doc).map(|o| {
                // The skipped field reads as its default.
                assert_eq!(o.cache, 0);
                to_json(&o)
            });
            assert_eq!(got, want.map(String::from).map_err(String::from), "{doc}");
        }
        assert!(read::<Outer>("{")
            .unwrap_err()
            .starts_with("invalid JSON at byte 1"));
    }

    #[test]
    fn newtypes_and_options_read_through() {
        #[derive(Debug, PartialEq, ToJson, FromJson)]
        struct Nanos(u64);
        assert_eq!(read::<Nanos>("12"), Ok(Nanos(12)));
        assert_eq!(read::<Option<Nanos>>("null"), Ok(None));
        assert_eq!(read::<Option<Nanos>>("3"), Ok(Some(Nanos(3))));
        assert_eq!(read::<f64>("-1.5e2"), Ok(-150.0));
        assert_eq!(read::<usize>("7"), Ok(7));
        let mut out = String::new();
        Schema::<2>.write_json(&mut out);
        assert_eq!(out, "2");
    }
}
