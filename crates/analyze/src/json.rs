//! A minimal strict JSON parser into an order-preserving tree.
//!
//! The workspace writes all machine-readable artifacts through the
//! hand-rolled serializer in `crates/obs` (RFC 8259-conformant, compact);
//! this is the matching reader. Object member order is preserved so
//! rendered output (tables, diffs) follows the writer's declaration
//! order, and numbers are held as `f64` — every quantity the exports
//! carry (virtual nanoseconds, counters, speedups) fits well inside the
//! 2^53 exact-integer range, except sentinel `u64::MAX` fields, which
//! only ever get compared against huge thresholds.
//!
//! The reader is one pass over the input bytes, shaped by what the writer
//! emits (DESIGN.md §6 "The JSON reader"): string bodies are copied a run
//! at a time, short plain integers skip `str::parse`, object keys are
//! interned per [`parse`] call, and nesting is bounded by [`MAX_DEPTH`].

use std::borrow::Cow;
use std::fmt;
use std::rc::Rc;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order. Keys are shared handles: every
    /// occurrence of a name within one document usually points at one
    /// allocation.
    Obj(Vec<(Rc<str>, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on other kinds or missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| &**k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_obj(&self) -> Option<&[(Rc<str>, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of arrays and objects [`parse`] accepts; one level
/// more is a [`ParseError`] at the offending bracket instead of a stack
/// overflow. The same number bounds `nscc_obs::json::validate` and
/// `nscc_faults::json::Value::parse` (the crates share no module to put
/// it in); the writer's deepest document is under ten levels.
pub const MAX_DEPTH: usize = 256;

/// Slots in the per-[`parse`] key table, and how many consecutive ones a
/// lookup tries. The writer's whole vocabulary is under 200 names, which
/// four probes keep resident in full; a document with more distinct keys
/// than fit only loses sharing, never correctness.
const KEY_SLOTS: usize = 256;
const KEY_PROBES: usize = 4;

/// Members an object with more than one member makes room for up front:
/// the widest event body the writer emits (`ReadDep`) has ten, so no
/// event regrows.
const OBJ_CAPACITY: usize = 10;

/// Longest integer token converted without `str::parse`: fifteen digits
/// stay below 2^53, so the `u64` → `f64` conversion is exact and therefore
/// the correctly rounded value `str::parse` would return.
const FAST_INT_DIGITS: usize = 15;

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        keys: [const { None }; KEY_SLOTS],
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Keys seen so far, open-addressed from their hash.
    keys: [Option<Rc<str>>; KEY_SLOTS],
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
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
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // the '[' `value` dispatched on
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // the '{' `value` dispatched on
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            let key = self.intern(&key);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.skip_ws();
            let last = match self.peek() {
                Some(b',') => false,
                Some(b'}') => true,
                _ => return Err(self.err("expected ',' or '}' in object")),
            };
            if members.capacity() == 0 {
                // Sized once the first member is in hand: an externally
                // tagged event (`{"ReadDone":{…}}`) is one member and gets
                // exactly one slot.
                members.reserve_exact(if last { 1 } else { OBJ_CAPACITY });
            }
            members.push((key, value));
            self.pos += 1;
            if last {
                return Ok(Json::Obj(members));
            }
        }
    }

    /// The shared handle for `key`: the one already in the table when the
    /// bytes match, else a fresh allocation that goes into the table.
    fn intern(&mut self, key: &str) -> Rc<str> {
        let b = key.as_bytes();
        let n = b.len();
        // Length and three bytes spread the writer's names well enough;
        // names they cannot tell apart (`queue_ns`/`delay_ns`) sit in
        // neighbouring slots.
        let home = if n == 0 {
            0
        } else {
            n ^ (usize::from(b[0]) * 31)
                ^ (usize::from(b[n / 2]) * 131)
                ^ (usize::from(b[n - 1]) * 521)
        };
        for probe in 0..KEY_PROBES {
            match &mut self.keys[(home + probe) % KEY_SLOTS] {
                Some(shared) if **shared == *key => return shared.clone(),
                Some(_) => {}
                empty => return empty.insert(Rc::from(key)).clone(),
            }
        }
        // Every probed slot holds another name: the newcomer takes its
        // home slot, so the table never grows.
        self.keys[home % KEY_SLOTS].insert(Rc::from(key)).clone()
    }

    /// Advance to the next byte of a string body that is not copied
    /// verbatim — the closing quote, a backslash, a control byte — or to
    /// the end of input, and return the run skipped over.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let rest = &self.bytes[start..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        // Both ends sit next to an ASCII byte or the end of the input, so
        // they are character boundaries.
        &self.text[start..self.pos]
    }

    /// A string token, decoded. Escape-free bodies (every key and nearly
    /// every value the writer emits) are borrowed from the input, so the
    /// caller makes the one copy it needs and no more.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            out.push(self.scalar(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    /// The character a `\uXXXX` escape with value `cp` stands for, taking
    /// the low half of a surrogate pair from the input when `cp` is a high
    /// half. Unpaired surrogates are `None` — replaced rather than
    /// rejected (the writer never emits them) — and an unpaired high half
    /// leaves whatever follows it to be decoded on its own.
    fn scalar(&mut self, cp: u32) -> Option<char> {
        if !(0xD800..0xDC00).contains(&cp) {
            return char::from_u32(cp);
        }
        let after_high = self.pos;
        if self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            if let Ok(lo @ 0xDC00..=0xDFFF) = self.hex4() {
                return char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00));
            }
        }
        self.pos = after_high;
        None
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        // Wraps on tokens too long for the fast path, which never read it.
        let mut int: u64 = 0;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while let Some(c @ b'0'..=b'9') = self.peek() {
                    int = int.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        if self.pos - digits <= FAST_INT_DIGITS && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            let magnitude = int as f64;
            return Ok(Json::Num(if negative { -magnitude } else { magnitude }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit required after decimal point"));
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
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("unparseable number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let doc = r#"{"b":[1,2,{"x":null}],"a":{"k":"v"}}"#;
        let v = parse(doc).unwrap();
        let members = v.as_obj().unwrap();
        assert_eq!(&*members[0].0, "b");
        assert_eq!(&*members[1].0, "a");
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().get("k").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("01").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\":1,}").is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn u64_accessor_rejects_fractions() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    fn text(doc: &str) -> String {
        match parse(doc) {
            Ok(Json::Str(s)) => s,
            other => panic!("{doc}: expected a string, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_escapes_pair_up_or_are_replaced() {
        // A valid pair is one scalar.
        assert_eq!(text(r#""\ud83d\ude00""#), "😀");
        assert_eq!(text(r#""a\ud83d\ude00b""#), "a😀b");
        // A high half followed by an escape that is not a low half: the
        // half is replaced and the escape decodes on its own.
        assert_eq!(text(r#""\ud800\u0041""#), "\u{FFFD}A");
        assert_eq!(text(r#""\ud800A""#), "\u{FFFD}A");
        assert_eq!(text(r#""\ud800\ud800\udc00""#), "\u{FFFD}\u{10000}");
        assert_eq!(text(r#""\ud800\n""#), "\u{FFFD}\n");
        // A high half with nothing after it.
        assert_eq!(text(r#""\ud800""#), "\u{FFFD}");
        assert_eq!(text(r#""\udbffx""#), "\u{FFFD}x");
        // A lone low half.
        assert_eq!(text(r#""\udc00""#), "\u{FFFD}");
        assert_eq!(text(r#""x\udfffA""#), "x\u{FFFD}A");
        // A malformed escape after a high half is still that escape's
        // error, at that escape's offset.
        let err = parse(r#""\ud800\u00zz""#).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (9, "bad \\u escape"));
        let err = parse(r#""\ud800\u00"#).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (9, "truncated \\u escape")
        );
    }

    /// `depth` containers, innermost empty; level `i` is an object
    /// (entered through a member `"k"`) when `object(i)`, else an array.
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

    #[test]
    fn nesting_is_bounded() {
        let shapes: [(&str, fn(usize) -> bool); 3] = [
            ("arrays", |_| false),
            ("objects", |_| true),
            ("mixed", |i| i % 2 == 0),
        ];
        for (name, object) in shapes {
            assert!(
                parse(&nest(MAX_DEPTH, object)).is_ok(),
                "{name} at the bound"
            );
            let doc = nest(MAX_DEPTH + 1, object);
            let err = parse(&doc).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 256 levels", "{name}");
            // The offset names the bracket one level too deep.
            assert_eq!(Some(err.offset), doc.rfind(['[', '{']), "{name}");
        }
        // Unclosed, two million deep: an error, not a stack overflow.
        for opener in ["[", "{\"k\":", "[{\"k\":"] {
            let err = parse(&opener.repeat(2_000_000)).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 256 levels", "{opener}");
        }
        // Depth counts what is open, not what has been seen.
        let wide = format!("[{}1]", "[[]],".repeat(1000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn repeated_keys_share_one_allocation() {
        let v = parse(r#"[{"t_ns":1,"rank":2},{"t_ns":3,"rank":4}]"#).unwrap();
        let rows = v.as_arr().unwrap();
        let (a, b) = (rows[0].as_obj().unwrap(), rows[1].as_obj().unwrap());
        assert!(Rc::ptr_eq(&a[0].0, &b[0].0));
        assert!(Rc::ptr_eq(&a[1].0, &b[1].0));
        assert!(!Rc::ptr_eq(&a[0].0, &a[1].0));
    }
}
