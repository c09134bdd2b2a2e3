//! A minimal strict JSON reader shared by the portable documents this
//! project exchanges: fault plans ([`crate::FaultPlan::from_json`]) and
//! the `nscc hunt` repro envelope that embeds them.
//!
//! Deliberately small and strict — no external dependency, no lossy
//! number conversion. Numbers are kept as raw text ([`Value::Num`])
//! until a typed accessor parses them, so 64-bit seeds survive exactly
//! (an `f64` intermediate would silently corrupt values above 2^53 and
//! break replay determinism). Escapes beyond the common short forms are
//! rejected rather than guessed at.

use nscc_sim::SimTime;

/// A parsed JSON value. Object member order is preserved, letting strict
/// readers report the first unknown key deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw text; typed accessors parse it without an
    /// f64 detour.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Reader {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters after the document"));
        }
        Ok(v)
    }

    /// The object members, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(members) => Ok(members),
            _ => Err(format!("{what} must be an object")),
        }
    }

    /// The array items, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("{what} must be an array")),
        }
    }

    /// The string payload, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what} must be a string")),
        }
    }

    /// The boolean payload, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{what} must be true or false")),
        }
    }

    /// A non-negative integer; fractional or negative numbers are errors.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Num(text) => text
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a non-negative integer (got {text})")),
            _ => Err(format!("{what} must be a number")),
        }
    }

    /// A non-negative integer that must also fit `u32`.
    pub fn as_u32(&self, what: &str) -> Result<u32, String> {
        let v = self.as_u64(what)?;
        u32::try_from(v).map_err(|_| format!("{what} out of range (got {v})"))
    }

    /// A `*_ns` field: whole nanoseconds as virtual time.
    pub fn as_time(&self, what: &str) -> Result<SimTime, String> {
        self.as_u64(what).map(SimTime::from_nanos)
    }

    /// A probability in `[0, 1]`.
    pub fn as_prob(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(text) => {
                let v = text
                    .parse::<f64>()
                    .map_err(|_| format!("{what} must be a number (got {text})"))?;
                if (0.0..=1.0).contains(&v) {
                    Ok(v)
                } else {
                    Err(format!("{what} must be a probability in [0, 1] (got {v})"))
                }
            }
            _ => Err(format!("{what} must be a number")),
        }
    }
}

/// Append `s` to `out` as a JSON string literal (the writer-side escape
/// counterpart of the reader above).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Value::parse`] accepts; one
/// level more is an error naming the offending bracket instead of a stack
/// overflow on a hostile `nscc hunt` file. The same number bounds
/// `nscc_obs::json::validate` and `nscc_analyze::json::parse` (the crates
/// share no module to put it in).
pub const MAX_DEPTH: usize = 256;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Reader<'_> {
    fn fail(&self, message: &str) -> String {
        format!("invalid JSON at byte {}: {message}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.fail(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let container = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                }?;
                self.depth -= 1;
                Ok(container)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.fail(&format!("unexpected character {:?}", c as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1; // consume '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.fail("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.fail("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        _ => return Err(self.fail("unsupported escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.fail("control character in string")),
                Some(_) => {
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.fail("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.fail("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.fail("digit required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        Ok(Value::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_round_trip() {
        let mut out = String::new();
        push_json_str(&mut out, "a \"b\"\n\t\\c");
        assert_eq!(out, r#""a \"b\"\n\t\\c""#);
        let back = Value::parse(&out).unwrap();
        assert_eq!(back.as_str("s").unwrap(), "a \"b\"\n\t\\c");
        // Other control characters escape as \u sequences on the way
        // out (the strict reader rejects them raw).
        let mut ctl = String::new();
        push_json_str(&mut ctl, "x\u{1}y");
        assert_eq!(ctl, r#""x\u0001y""#);
    }

    #[test]
    fn nesting_is_bounded() {
        // `depth` containers, innermost empty; objects are entered
        // through a member "k".
        fn nest(depth: usize, object: impl Fn(usize) -> bool) -> String {
            let mut doc = String::new();
            for i in 0..depth {
                doc.push_str(match (object(i), i + 1 < depth) {
                    (true, true) => "{\"k\":",
                    (true, false) => "{",
                    (false, _) => "[",
                });
            }
            for i in (0..depth).rev() {
                doc.push(if object(i) { '}' } else { ']' });
            }
            doc
        }
        let shapes: [(&str, fn(usize) -> bool); 3] = [
            ("arrays", |_| false),
            ("objects", |_| true),
            ("mixed", |i| i % 2 == 0),
        ];
        for (name, object) in shapes {
            assert!(
                Value::parse(&nest(MAX_DEPTH, object)).is_ok(),
                "{name} at the bound"
            );
            let doc = nest(MAX_DEPTH + 1, object);
            let err = Value::parse(&doc).unwrap_err();
            // The offset names the bracket one level too deep.
            let offset = doc.rfind(['[', '{']).unwrap();
            assert_eq!(
                err,
                format!("invalid JSON at byte {offset}: nesting deeper than 256 levels"),
                "{name}"
            );
        }
        // Unclosed, two million deep: an error, not a stack overflow.
        for opener in ["[", "{\"k\":", "[{\"k\":"] {
            let err = Value::parse(&opener.repeat(2_000_000)).unwrap_err();
            assert!(
                err.ends_with("nesting deeper than 256 levels"),
                "{opener}: {err}"
            );
        }
        // Depth counts what is open, not what has been seen.
        assert!(Value::parse(&format!("[{}1]", "[[]],".repeat(1000))).is_ok());
    }

    #[test]
    fn typed_accessors_name_the_field() {
        let doc = Value::parse(r#"{"a":true,"b":"x","n":3}"#).unwrap();
        let obj = doc.as_obj("doc").unwrap();
        assert!(obj[0].1.as_bool("a").unwrap());
        assert_eq!(obj[1].1.as_str("b").unwrap(), "x");
        assert_eq!(obj[2].1.as_u64("n").unwrap(), 3);
        let err = obj[0].1.as_u64("a").unwrap_err();
        assert!(err.contains('a'), "{err}");
    }
}
