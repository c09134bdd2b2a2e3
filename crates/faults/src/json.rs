//! Typed reads of the fields of the portable documents this project
//! exchanges — fault plans ([`crate::FaultPlan::from_json`]) and the
//! `nscc hunt` repro envelope that embeds them — over the workspace's one
//! JSON reader, [`nscc_ckpt::json`].
//!
//! Every error names the field that failed. An integer field demands an
//! integer token and reads it exactly, so 64-bit seeds survive (an `f64`
//! intermediate would silently corrupt values above 2^53 and break replay
//! determinism).

use std::rc::Rc;

use nscc_ckpt::json::Json;
use nscc_sim::SimTime;

/// A document value read as the type its field demands.
pub trait Field {
    /// The object members, or an error naming `what`.
    fn obj(&self, what: &str) -> Result<&[(Rc<str>, Json)], String>;
    /// The array items, or an error naming `what`.
    fn arr(&self, what: &str) -> Result<&[Json], String>;
    /// The string payload, or an error naming `what`.
    fn str(&self, what: &str) -> Result<&str, String>;
    /// The boolean payload, or an error naming `what`.
    fn bool(&self, what: &str) -> Result<bool, String>;
    /// A non-negative integer token; fractions, exponents, signs and
    /// values above `u64::MAX` are errors.
    fn u64(&self, what: &str) -> Result<u64, String>;
    /// A probability in `[0, 1]`.
    fn prob(&self, what: &str) -> Result<f64, String>;

    /// A non-negative integer that must also fit `u32`.
    fn u32(&self, what: &str) -> Result<u32, String> {
        let v = self.u64(what)?;
        u32::try_from(v).map_err(|_| format!("{what} out of range (got {v})"))
    }

    /// A `*_ns` field: whole nanoseconds as virtual time.
    fn time(&self, what: &str) -> Result<SimTime, String> {
        self.u64(what).map(SimTime::from_nanos)
    }
}

impl Field for Json {
    fn obj(&self, what: &str) -> Result<&[(Rc<str>, Json)], String> {
        self.as_obj()
            .ok_or_else(|| format!("{what} must be an object"))
    }

    fn arr(&self, what: &str) -> Result<&[Json], String> {
        self.as_arr()
            .ok_or_else(|| format!("{what} must be an array"))
    }

    fn str(&self, what: &str) -> Result<&str, String> {
        self.as_str()
            .ok_or_else(|| format!("{what} must be a string"))
    }

    fn bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what} must be true or false")),
        }
    }

    fn u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => n
                .integer()
                .ok_or_else(|| format!("{what} must be a non-negative integer (got {n:?})")),
            _ => Err(format!("{what} must be a number")),
        }
    }

    fn prob(&self, what: &str) -> Result<f64, String> {
        let v = self
            .as_f64()
            .ok_or_else(|| format!("{what} must be a number"))?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(format!("{what} must be a probability in [0, 1] (got {v})"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_ckpt::json::parse;

    #[test]
    fn typed_accessors_name_the_field() {
        let doc = parse(r#"{"a":true,"b":"x","n":3}"#).unwrap();
        let obj = doc.obj("doc").unwrap();
        assert!(obj[0].1.bool("a").unwrap());
        assert_eq!(obj[1].1.str("b").unwrap(), "x");
        assert_eq!(obj[2].1.u64("n").unwrap(), 3);
        let err = obj[0].1.u64("a").unwrap_err();
        assert!(err.contains('a'), "{err}");
    }

    #[test]
    fn integer_fields_demand_an_integer_token() {
        for (doc, want) in [
            ("0", Ok(0)),
            ("18446744073709551615", Ok(u64::MAX)),
            ("14443094230038941814", Ok(14443094230038941814)),
            ("1.0", Err("n must be a non-negative integer (got 1.0)")),
            ("1e3", Err("n must be a non-negative integer (got 1000.0)")),
            ("-1", Err("n must be a non-negative integer (got -1.0)")),
            ("-0", Err("n must be a non-negative integer (got -0.0)")),
            (
                "18446744073709551616",
                Err("n must be a non-negative integer (got 1.8446744073709552e19)"),
            ),
            ("\"1\"", Err("n must be a number")),
        ] {
            let got = parse(doc).unwrap().u64("n");
            assert_eq!(got, want.map_err(String::from), "{doc}");
        }
        assert_eq!(
            parse("4294967296").unwrap().u32("n").unwrap_err(),
            "n out of range (got 4294967296)"
        );
    }
}
