//! The serde → JSON renderer behind [`to_json`].
//!
//! Output is compact (no whitespace). Struct fields and map entries become
//! object members; enums use serde's externally-tagged convention
//! (`"Variant"` for unit variants, `{"Variant": …}` otherwise); non-finite
//! floats become `null`; map keys must be strings, integers or chars.

use std::fmt::{self, Write as _};

use serde::ser::{self, Impossible, Serialize};

use nscc_ckpt::json::escape_into;

/// Render any `Serialize` value as compact JSON.
///
/// # Panics
///
/// Panics if the value contains a map whose keys are not strings,
/// integers or chars (no such type exists in this workspace's reports).
pub fn to_json<T: Serialize>(value: &T) -> String {
    let mut ser = JsonSer { out: String::new() };
    value
        .serialize(&mut ser)
        .expect("JSON serialization failed");
    ser.out
}

/// Error type for JSON rendering (only map-key misuse can occur).
#[derive(Debug)]
pub struct JsonError(String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl ser::Error for JsonError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        JsonError(msg.to_string())
    }
}

struct JsonSer {
    out: String,
}

/// In-progress sequence/object; `end` carries the closer(s), which is
/// `"]}"`/`"}}"` for externally-tagged variants.
struct Compound<'a> {
    ser: &'a mut JsonSer,
    first: bool,
    end: &'static str,
}

impl Compound<'_> {
    fn comma(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.ser.out.push(',');
        }
    }
}

impl<'a> ser::Serializer for &'a mut JsonSer {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), JsonError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), JsonError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), JsonError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<(), JsonError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<(), JsonError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<(), JsonError> {
        let _ = write!(self.out, "{v}");
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), JsonError> {
        self.serialize_f64(v as f64)
    }
    /// Non-finite values become `null` (JSON has no NaN/Infinity).
    fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), JsonError> {
        let mut buf = [0u8; 4];
        escape_into(&mut self.out, v.encode_utf8(&mut buf));
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        escape_into(&mut self.out, v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), JsonError> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), JsonError> {
        escape_into(&mut self.out, variant);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.out.push('{');
        escape_into(&mut self.out, variant);
        self.out.push(':');
        value.serialize(&mut *self)?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Self::SerializeSeq, JsonError> {
        self.out.push('[');
        Ok(Compound {
            ser: self,
            first: true,
            end: "]",
        })
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple, JsonError> {
        self.serialize_seq(None)
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, JsonError> {
        self.out.push('{');
        Ok(Compound {
            ser: self,
            first: true,
            end: "}",
        })
    }
    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStruct, JsonError> {
        self.serialize_map(None)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant, JsonError> {
        self.out.push('{');
        escape_into(&mut self.out, variant);
        self.out.push_str(":{");
        Ok(Compound {
            ser: self,
            first: true,
            end: "}}",
        })
    }
}

macro_rules! impl_compound_seq {
    ($($trait:ident),+) => {
        $(
            impl ser::$trait for Compound<'_> {
                type Ok = ();
                type Error = JsonError;
                fn serialize_element<T: Serialize + ?Sized>(
                    &mut self,
                    value: &T,
                ) -> Result<(), JsonError> {
                    self.comma();
                    value.serialize(&mut *self.ser)
                }
                fn end(self) -> Result<(), JsonError> {
                    self.ser.out.push_str(self.end);
                    Ok(())
                }
            }
        )+
    };
}

macro_rules! impl_compound_struct {
    ($($trait:ident),+) => {
        $(
            impl ser::$trait for Compound<'_> {
                type Ok = ();
                type Error = JsonError;
                fn serialize_field<T: Serialize + ?Sized>(
                    &mut self,
                    key: &'static str,
                    value: &T,
                ) -> Result<(), JsonError> {
                    self.comma();
                    escape_into(&mut self.ser.out, key);
                    self.ser.out.push(':');
                    value.serialize(&mut *self.ser)
                }
                fn end(self) -> Result<(), JsonError> {
                    self.ser.out.push_str(self.end);
                    Ok(())
                }
            }
        )+
    };
}

impl_compound_seq!(SerializeSeq, SerializeTuple);
impl_compound_struct!(SerializeStruct, SerializeStructVariant);

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), JsonError> {
        self.comma();
        key.serialize(MapKeySer { ser: self.ser })
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.ser.out.push(':');
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), JsonError> {
        self.ser.out.push_str(self.end);
        Ok(())
    }
}

/// JSON object keys must be strings; accept strings, chars and integers
/// (quoted), reject everything else.
struct MapKeySer<'a> {
    ser: &'a mut JsonSer,
}

fn key_error() -> JsonError {
    ser::Error::custom("map keys must be strings, chars or integers")
}

macro_rules! quoted_int_key {
    ($($fn:ident: $ty:ty),+) => {
        $(
            fn $fn(self, v: $ty) -> Result<(), JsonError> {
                let _ = write!(self.ser.out, "\"{v}\"");
                Ok(())
            }
        )+
    };
}

macro_rules! reject_key {
    ($($fn:ident($($arg:ident: $ty:ty),*)),+) => {
        $(
            fn $fn(self, $($arg: $ty),*) -> Result<Self::Ok, JsonError> {
                $(let _ = $arg;)*
                Err(key_error())
            }
        )+
    };
}

impl<'a> ser::Serializer for MapKeySer<'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = Impossible<(), JsonError>;
    type SerializeTuple = Impossible<(), JsonError>;
    type SerializeMap = Impossible<(), JsonError>;
    type SerializeStruct = Impossible<(), JsonError>;
    type SerializeStructVariant = Impossible<(), JsonError>;

    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        escape_into(&mut self.ser.out, v);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), JsonError> {
        let mut buf = [0u8; 4];
        escape_into(&mut self.ser.out, v.encode_utf8(&mut buf));
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), JsonError> {
        escape_into(&mut self.ser.out, variant);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        value.serialize(self)
    }

    quoted_int_key!(
        serialize_i32: i32,
        serialize_i64: i64,
        serialize_u8: u8,
        serialize_u16: u16,
        serialize_u32: u32,
        serialize_u64: u64
    );

    reject_key!(
        serialize_bool(v: bool),
        serialize_f32(v: f32),
        serialize_f64(v: f64),
        serialize_none(),
        serialize_unit()
    );

    fn serialize_seq(self, _len: Option<usize>) -> Result<Self::SerializeSeq, JsonError> {
        Err(key_error())
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple, JsonError> {
        Err(key_error())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, _value: &T) -> Result<(), JsonError> {
        Err(key_error())
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _value: &T,
    ) -> Result<(), JsonError> {
        Err(key_error())
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, JsonError> {
        Err(key_error())
    }
    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStruct, JsonError> {
        Err(key_error())
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant, JsonError> {
        Err(key_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_ckpt::json::parse;
    use serde::Serialize;
    use std::collections::BTreeMap;

    #[test]
    fn primitives() {
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&42u64), "42");
        assert_eq!(to_json(&-7i32), "-7");
        assert_eq!(to_json(&1.5f64), "1.5");
        assert_eq!(to_json(&f64::INFINITY), "null");
        assert_eq!(to_json(&"a\"b"), "\"a\\\"b\"");
        assert_eq!(to_json(&Option::<u32>::None), "null");
        assert_eq!(to_json(&Some(3u32)), "3");
        assert_eq!(to_json(&()), "null");
    }

    #[test]
    fn sequences_and_tuples() {
        assert_eq!(to_json(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_json(&Vec::<u32>::new()), "[]");
        assert_eq!(to_json(&(1u8, "x")), "[1,\"x\"]");
    }

    #[test]
    fn structs_maps_and_enums() {
        #[derive(Serialize)]
        struct S {
            a: u32,
            b: Vec<bool>,
        }
        assert_eq!(
            to_json(&S {
                a: 1,
                b: vec![true]
            }),
            "{\"a\":1,\"b\":[true]}"
        );

        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 2.5f64);
        assert_eq!(to_json(&m), "{\"k\":2.5}");

        let mut by_id = BTreeMap::new();
        by_id.insert(3u32, "x");
        assert_eq!(to_json(&by_id), "{\"3\":\"x\"}");

        #[derive(Serialize)]
        enum E {
            Unit,
            New(u32),
            Struct { x: u8 },
        }
        assert_eq!(to_json(&E::Unit), "\"Unit\"");
        assert_eq!(to_json(&E::New(5)), "{\"New\":5}");
        assert_eq!(to_json(&E::Struct { x: 1 }), "{\"Struct\":{\"x\":1}}");
    }

    #[test]
    fn output_always_validates() {
        #[derive(Serialize)]
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
        let s = to_json(&v);
        parse(&s).unwrap();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(
            to_json(&vec![1.5, f64::NAN, f64::NEG_INFINITY]),
            "[1.5,null,null]"
        );
        assert_eq!(to_json(&0.25f32), "0.25");
    }
}
