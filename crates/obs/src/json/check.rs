//! Std-only JSON helpers: string escaping, float formatting, and a strict
//! recursive-descent validator (RFC 8259 subset: UTF-8 input, no
//! extensions). The validator exists so tests can assert that exported
//! reports and traces are well-formed without a JSON dependency.

use std::fmt::Write as _;

/// Append `s` as a quoted, escaped JSON string.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    // Everything between two bytes that need an escape is copied as one
    // run; a field name or label has no such byte and is a single copy.
    // Those bytes are all ASCII, so every run ends on a character boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a finite `f64` as a JSON number; non-finite values become
/// `null` (JSON has no NaN/Infinity).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Deepest nesting of arrays and objects the validator accepts. The same
/// number bounds `nscc_analyze::json::parse` and
/// `nscc_faults::json::Value::parse` (the crates share no module to put
/// it in).
const MAX_DEPTH: usize = 256;

/// Check that `s` is one complete, well-formed JSON value.
pub fn validate(s: &str) -> Result<(), String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => match self.bump() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    Some(b'u') => {
                        for _ in 0..4 {
                            match self.bump() {
                                Some(c) if c.is_ascii_hexdigit() => {}
                                _ => return Err(self.err("bad \\u escape")),
                            }
                        }
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {}
            }
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        let mut any = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            any = true;
        }
        if any {
            Ok(())
        } else {
            Err(self.err("expected digits"))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{01}e");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn escaping_covers_every_byte_class() {
        // Each escaped byte first, last, doubled and between multi-byte
        // characters, so every run boundary is hit.
        let cases = [
            ("", "\"\""),
            ("plain", "\"plain\""),
            ("\"", "\"\\\"\""),
            ("\\\\", "\"\\\\\\\\\""),
            ("\n\r\t\u{08}\u{0C}", "\"\\n\\r\\t\\b\\f\""),
            ("\u{00}\u{0B}\u{1F}", "\"\\u0000\\u000b\\u001f\""),
            ("é\"❄\\😀\n", "\"é\\\"❄\\\\😀\\n\""),
            ("\u{7F}\u{80} ~", "\"\u{7F}\u{80} ~\""),
        ];
        for (raw, want) in cases {
            let mut out = String::from("x");
            escape_into(&mut out, raw);
            assert_eq!(&out[1..], want, "{raw:?}");
            assert!(validate(&out[1..]).is_ok(), "{raw:?}");
        }
    }

    #[test]
    fn float_formatting() {
        let mut out = String::new();
        write_f64(&mut out, 1.5);
        out.push(' ');
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "1.5 null");
    }

    #[test]
    fn accepts_valid_json() {
        for s in [
            "null",
            "true",
            "  [1, 2.5, -3e-2, \"x\\u00e9\", {}, [] ]  ",
            "{\"a\": {\"b\": [null, false]}, \"c\": \"\"}",
            "-0.5",
            "\"\\\\\"",
        ] {
            assert!(
                validate(s).is_ok(),
                "should accept {s:?}: {:?}",
                validate(s)
            );
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{a: 1}",
            "01",
            "1.",
            "nul",
            "\"unterminated",
            "\"bad\\escape\"",
            "[1] trailing",
            "NaN",
        ] {
            assert!(validate(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(validate(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            validate(&nested(MAX_DEPTH + 1)).unwrap_err(),
            "nesting too deep at byte 256"
        );
        assert!(validate(&"{\"k\":[".repeat(MAX_DEPTH / 2 + 1)).is_err());
    }

    #[test]
    fn escaped_strings_validate() {
        let mut out = String::new();
        escape_into(&mut out, "tab\t quote\" slash\\ unicode❄ ctl\u{02}");
        assert!(validate(&out).is_ok());
    }
}
