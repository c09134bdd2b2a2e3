//! The workspace's one JSON module: a strict reader into an
//! order-preserving tree, the one writer, [`ToJson`], with the string
//! escape both share, and [`FromJson`], the typed reader of the persisted
//! config formats over that tree.
//!
//! Every machine-readable artifact is written by [`ToJson`] (run reports,
//! event and flight dumps, traces, the live feed, fault plans, `nscc-hunt`
//! repros; its byte contract is in `ser.rs`) and read here; fault plans
//! and repros are read back by the same derive's [`FromJson`] half
//! (`de.rs`). Object member order is
//! preserved, so rendered output (tables, diffs) follows the writer's
//! declaration order and a strict reader reports the first unknown key
//! deterministically. A [`Number`] keeps the correctly rounded `f64` of
//! its token and, when the token is a plain non-negative integer that
//! fits, that `u64` exactly, so 64-bit seeds survive a round trip. A `\u`
//! escape is exactly four hex digits, and an unpaired surrogate is an
//! error at its offset rather than a guess.
//!
//! The reader is one pass over the input bytes, shaped by what the writer
//! emits (DESIGN.md §6 "The JSON module"): string bodies are copied a run
//! at a time, plain integers skip `str::parse`, object keys are interned
//! per [`parse`] call — and guessed from the key that opened their object
//! and their position in it, so a repeated event body's keys are each one
//! compare — and nesting is bounded by [`MAX_DEPTH`].
//!
//! It lives in this crate because it is the one crate below every JSON
//! reader and writer (the analyzer, `nscc-obs`, `nscc-faults`,
//! `nscc-hunt`) that pulls in nothing but the derive.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::rc::Rc;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(Number),
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
            Json::Obj(members) => field(members, key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as a non-negative integer: exact for an integer token,
    /// else the `f64` when it is whole (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(Number::Int(n)) => Some(n),
            Json::Num(Number::Float(f)) if f >= 0.0 && f.fract() == 0.0 => Some(f as u64),
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

/// A JSON number.
#[derive(Clone, Copy, PartialEq)]
pub enum Number {
    /// A token of digits only, at most `u64::MAX`: the integer, exactly.
    Int(u64),
    /// Any other token (a sign, a fraction, an exponent, or above
    /// `u64::MAX`), correctly rounded.
    Float(f64),
}

impl Number {
    /// The nearest `f64`: what `str::parse` returns for the token.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(n) => n as f64,
            Number::Float(f) => f,
        }
    }

    /// The integer of a plain non-negative integer token; `None` for any
    /// other token, `1.0` and `1e3` included.
    pub fn integer(self) -> Option<u64> {
        match self {
            Number::Int(n) => Some(n),
            Number::Float(_) => None,
        }
    }
}

/// Prints what the `f64` prints, so a rendered number does not depend on
/// which kind of token it came from.
impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_f64(), f)
    }
}

impl fmt::Debug for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.as_f64(), f)
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
/// overflow on a hostile input. The writer's deepest document is under
/// ten levels.
pub const MAX_DEPTH: usize = 256;

/// Slots in the per-[`parse`] key table, and how many consecutive ones a
/// lookup tries. The writer's whole vocabulary is under 200 names, which
/// four probes keep resident in full; a document with more distinct keys
/// than fit only loses sharing, never correctness.
const KEY_SLOTS: usize = 256;
const KEY_PROBES: usize = 4;

/// Member positions per object the key guess tells apart: a member's key
/// is guessed from the key that opened its object (`ReadDone` for the body
/// of `{"ReadDone":{…}}`) and its position there, modulo this.
const KEY_POSITIONS: usize = 16;

// A key's slot is kept as a `u8`.
const _: () = assert!(KEY_SLOTS <= 256);

/// Members an object with more than one member makes room for up front:
/// the widest event body the writer emits (`ReadDep`) has ten, so no
/// event regrows.
const OBJ_CAPACITY: usize = 10;

/// Longest integer token converted without `str::parse`: nineteen digits
/// never overflow a `u64`, and `u64 as f64` rounds to nearest, as
/// `str::parse` does.
const FAST_INT_DIGITS: usize = 19;

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let value = p.value()?;
    p.end()?;
    Ok(value)
}

/// Parse one complete document as [`parse`] does — same grammar, same
/// errors at the same offsets — except that when the root is an object
/// whose first `"events"` member is an array, that array is decoded into
/// an [`EventLog`] in the same pass and left out of the returned tree.
pub fn parse_with_events(input: &str) -> Result<(Json, Option<EventLog>), ParseError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let mut log = None;
    let root = if p.peek() == Some(b'{') {
        let mut seen = false;
        let mut members = Vec::new();
        p.nested(|p| {
            p.members_with(&mut members, |p, key| {
                if seen || &**key != "events" || p.peek() != Some(b'[') {
                    seen |= &**key == "events";
                    return p.value().map(Some);
                }
                seen = true;
                log = Some(p.nested(Parser::event_log)?);
                Ok(None)
            })
        })?;
        Json::Obj(members)
    } else {
        p.value()?
    };
    p.end()?;
    Ok((root, log))
}

/// The first member named `key` among `members` — [`Json::get`] on an
/// object's member slice.
pub fn field<'a>(members: &'a [(Rc<str>, Json)], key: &str) -> Option<&'a Json> {
    members.iter().find(|(k, _)| &**k == key).map(|(_, v)| v)
}

/// The `events` array of an event or flight dump, as
/// [`parse_with_events`] decodes it: one entry per element, in order, and
/// every event body's members back to back in one shared `Vec`, so an
/// event costs no allocation of its own.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    entries: Vec<Entry>,
    /// The members of every [`Entry::Tagged`] body, in entry order.
    members: Vec<(Rc<str>, Json)>,
}

#[derive(Debug, Clone)]
enum Entry {
    /// An externally tagged event, `{"Kind":{…}}`: its body is
    /// `members[start..start + len]`.
    Tagged {
        kind: Rc<str>,
        t_ns: u64,
        start: usize,
        len: usize,
    },
    /// Any element of another shape, verbatim.
    Other(Json),
}

/// One element of an [`EventLog`].
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// An element of the shape `{"Kind":{…}}`.
    Tagged {
        /// The variant name.
        kind: &'a str,
        /// The body's `t_ns` as [`Json::as_u64`] reads it, else 0.
        t_ns: u64,
        /// The body's members, in document order.
        body: &'a [(Rc<str>, Json)],
    },
    /// An element of any other shape, as [`parse`] would have returned it.
    Other(&'a Json),
}

impl EventLog {
    /// Elements in the array, of either shape.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the array was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The elements in document order.
    pub fn iter(&self) -> impl Iterator<Item = Event<'_>> {
        self.entries.iter().map(|entry| match entry {
            Entry::Tagged {
                kind,
                t_ns,
                start,
                len,
            } => Event::Tagged {
                kind,
                t_ns: *t_ns,
                body: &self.members[*start..start + len],
            },
            Entry::Other(json) => Event::Other(json),
        })
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Keys seen so far, open-addressed from their hash.
    keys: [Option<Rc<str>>; KEY_SLOTS],
    /// Per slot: the key's token is its text between two quotes, with no
    /// byte that would need an escape.
    verbatim: [bool; KEY_SLOTS],
    /// The slot of the key last read at each (opening key, position).
    guess: [u8; KEY_SLOTS * KEY_POSITIONS],
    /// The slot of the key read last.
    last_key: u8,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            keys: [const { None }; KEY_SLOTS],
            verbatim: [false; KEY_SLOTS],
            guess: [0; KEY_SLOTS * KEY_POSITIONS],
            last_key: 0,
        }
    }

    /// Accept the end of the document: trailing whitespace, nothing else.
    fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(())
    }

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
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Run `inner` on the container whose bracket is at `pos`, one level
    /// deeper.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let container = inner(self)?;
        self.depth -= 1;
        Ok(container)
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        let mut items = Vec::new();
        self.elements(|p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// The array whose `[` is at `pos`, calling `element` at the start of
    /// each element; `element` consumes exactly one value.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        let mut members = Vec::new();
        self.members_into(&mut members)?;
        Ok(Json::Obj(members))
    }

    /// The object whose `{` is at `pos`, its members appended to `out`.
    fn members_into(&mut self, out: &mut Vec<(Rc<str>, Json)>) -> Result<(), ParseError> {
        self.members_with(out, |p, _| p.value().map(Some))
    }

    /// The object whose `{` is at `pos`: each key is read and interned,
    /// then `value` consumes that member's value and returns it for `out`,
    /// or `None` when it kept the value somewhere else.
    fn members_with(
        &mut self,
        out: &mut Vec<(Rc<str>, Json)>,
        mut value: impl FnMut(&mut Self, &Rc<str>) -> Result<Option<Json>, ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        let opener = usize::from(self.last_key) * KEY_POSITIONS;
        let mut position = 0;
        loop {
            self.skip_ws();
            let guess = opener + position % KEY_POSITIONS;
            position += 1;
            let key = match self.guessed_key(self.guess[guess]) {
                Some(key) => key,
                None => {
                    let key = self.string()?;
                    let key = self.intern(&key);
                    self.guess[guess] = self.last_key;
                    key
                }
            };
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = value(self, &key)?;
            self.skip_ws();
            let last = match self.peek() {
                Some(b',') => false,
                Some(b'}') => true,
                _ => return Err(self.err("expected ',' or '}' in object")),
            };
            if let Some(value) = value {
                if out.capacity() == 0 {
                    // Sized once the first member is in hand: an externally
                    // tagged event (`{"ReadDone":{…}}`) is one member and
                    // gets exactly one slot.
                    out.reserve_exact(if last { 1 } else { OBJ_CAPACITY });
                }
                out.push((key, value));
            }
            self.pos += 1;
            if last {
                return Ok(());
            }
        }
    }

    /// An `events` array whose `[` is at `pos`, decoded into a log.
    fn event_log(&mut self) -> Result<EventLog, ParseError> {
        // Sized from the bytes left, so neither `Vec` regrows on a dump:
        // the writer's events run to about a hundred bytes each, their
        // members to about sixteen.
        let left = self.bytes.len() - self.pos;
        let mut log = EventLog {
            entries: Vec::with_capacity(left / 100),
            members: Vec::with_capacity(left / 16),
        };
        self.elements(|p| p.event(&mut log))?;
        Ok(log)
    }

    /// One element of an `events` array into `log`. The body of a first
    /// member whose value is an object is appended to the shared members
    /// as it is parsed; if the element turns out to have more members
    /// than that one, the body is taken back out and the element is kept
    /// whole as [`Entry::Other`].
    fn event(&mut self, log: &mut EventLog) -> Result<(), ParseError> {
        if self.peek() != Some(b'{') {
            let other = self.value()?;
            log.entries.push(Entry::Other(other));
            return Ok(());
        }
        let start = log.members.len();
        let (mut first, mut kind) = (true, None);
        let mut rest = Vec::new();
        self.nested(|p| {
            p.members_with(&mut rest, |p, key| {
                if !std::mem::take(&mut first) || p.peek() != Some(b'{') {
                    return p.value().map(Some);
                }
                p.nested(|p| p.members_into(&mut log.members))?;
                kind = Some(key.clone());
                Ok(None)
            })
        })?;
        let entry = match kind {
            Some(kind) if rest.is_empty() => {
                let body = &log.members[start..];
                Entry::Tagged {
                    kind,
                    t_ns: field(body, "t_ns").and_then(Json::as_u64).unwrap_or(0),
                    start,
                    len: body.len(),
                }
            }
            Some(kind) => {
                let body = log.members.drain(start..).collect();
                rest.insert(0, (kind, Json::Obj(body)));
                Entry::Other(Json::Obj(rest))
            }
            None => Entry::Other(Json::Obj(rest)),
        };
        log.entries.push(entry);
        Ok(())
    }

    /// The key in `slot` when the input at `pos` is exactly its token, with
    /// `pos` moved past it: the same handle [`intern`](Self::intern) would
    /// return for that token, without scanning or hashing it.
    fn guessed_key(&mut self, slot: u8) -> Option<Rc<str>> {
        let at = usize::from(slot);
        if !self.verbatim[at] {
            return None;
        }
        let key = self.keys[at].as_ref()?;
        let start = self.pos + 1;
        let end = start + key.len();
        if self.bytes.get(end) != Some(&b'"')
            || self.bytes[self.pos] != b'"'
            || &self.bytes[start..end] != key.as_bytes()
        {
            return None;
        }
        self.pos = end + 1;
        self.last_key = slot;
        Some(key.clone())
    }

    /// The shared handle for `key`: the one already in the table when the
    /// bytes match, else a fresh allocation that goes into the table. Its
    /// slot becomes `last_key`.
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
        // The first empty probed slot; when every probed slot holds another
        // name, the newcomer takes its home slot, so the table never grows.
        let mut free = home % KEY_SLOTS;
        for probe in 0..KEY_PROBES {
            let slot = (home + probe) % KEY_SLOTS;
            match &self.keys[slot] {
                Some(shared) if **shared == *key => {
                    self.last_key = slot as u8;
                    return shared.clone();
                }
                Some(_) => {}
                None => {
                    free = slot;
                    break;
                }
            }
        }
        self.last_key = free as u8;
        self.verbatim[free] = !key.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20);
        self.keys[free].insert(Rc::from(key)).clone()
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
                            let at = self.pos;
                            let cp = self.hex4()?;
                            let Some(c) = self.scalar(cp)? else {
                                self.pos = at;
                                return Err(self.err("unpaired surrogate in \\u escape"));
                            };
                            out.push(c);
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
    /// half; `None` for an unpaired half. A malformed escape after a high
    /// half is that escape's error.
    fn scalar(&mut self, cp: u32) -> Result<Option<char>, ParseError> {
        if (0xD800..0xDC00).contains(&cp) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Ok(None);
            }
            return Ok(char::from_u32(
                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00),
            ));
        }
        Ok(char::from_u32(cp))
    }

    /// Exactly four hex digits: no sign, no space.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = (self.bytes.get(self.pos..self.pos + 4))
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut cp = 0;
        for &d in digits {
            let d = char::from(d).to_digit(16);
            cp = cp * 16 + d.ok_or_else(|| self.err("bad \\u escape"))?;
        }
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
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if plain && self.pos - digits <= FAST_INT_DIGITS {
            return Ok(Json::Num(if negative {
                Number::Float(-(int as f64))
            } else {
                Number::Int(int)
            }));
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
        let token = &self.text[start..self.pos];
        if let Some(int) = token.parse().ok().filter(|_| plain && !negative) {
            return Ok(Json::Num(Number::Int(int)));
        }
        token
            .parse()
            .map(|f| Json::Num(Number::Float(f)))
            .map_err(|_| self.err("unparseable number"))
    }
}

/// Append `s` as a quoted, escaped JSON string: `"`, `\` and every byte
/// below 0x20 escaped, the short forms where JSON has one.
#[inline]
pub fn escape_into(out: &mut String, s: &str) {
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

#[cfg(test)]
mod check;
mod de;
mod ser;

pub use de::{decode, read_object, DecodeError, FromJson, Path, Schema};
pub use ser::{to_json, JsonKey, ToJson};
pub use serde_derive::{FromJson, ToJson};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(
            parse(" -12.5e2 ").unwrap(),
            Json::Num(Number::Float(-1250.0))
        );
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
        for (doc, at, what) in [
            ("", 0, "unexpected end of input"),
            ("{", 1, "expected '\"'"),
            ("[1,]", 3, "unexpected character ']'"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("01", 1, "trailing characters after the document"),
            ("1 2", 2, "trailing characters after the document"),
            ("{\"a\":1,}", 7, "expected '\"'"),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!((err.offset, err.message.as_str()), (at, what), "{doc:?}");
        }
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
        // Integer tokens are exact past 2^53; a whole float is read as
        // its `f64`, but only an integer token has an `integer`.
        for n in [(1 << 53) + 1, 14443094230038941814, u64::MAX - 1, u64::MAX] {
            let v = parse(&n.to_string()).unwrap();
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(v, Json::Num(Number::Int(n)));
        }
        for (doc, whole) in [("1.0", Some(1)), ("1e3", Some(1000)), ("-0", Some(0))] {
            let v = parse(doc).unwrap();
            assert_eq!(v.as_u64(), whole, "{doc}");
            assert!(matches!(v, Json::Num(Number::Float(_))), "{doc}");
        }
        let v = parse("18446744073709551616").unwrap();
        assert_eq!(v, Json::Num(Number::Float(18446744073709551616.0)));
    }

    #[test]
    fn numbers_print_as_their_f64_does() {
        for doc in [
            "0",
            "-0",
            "7",
            "1.0",
            "2.5e-3",
            "1e300",
            "14443094230038941814",
        ] {
            let Ok(Json::Num(n)) = parse(doc) else {
                panic!("{doc}")
            };
            let f: f64 = doc.parse().unwrap();
            assert_eq!(n.to_string(), f.to_string(), "{doc}");
            assert_eq!(format!("{n:?}"), format!("{f:?}"), "{doc}");
            assert_eq!(format!("{n:>12.3}"), format!("{f:>12.3}"), "{doc}");
        }
    }

    fn text(doc: &str) -> String {
        match parse(doc) {
            Ok(Json::Str(s)) => s,
            other => panic!("{doc}: expected a string, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_escapes_pair_up_or_are_refused() {
        // A valid pair is one scalar, in either hex case.
        assert_eq!(text(r#""\ud83d\ude00""#), "😀");
        assert_eq!(text(r#""a\uD83D\uDE00b""#), "a😀b");
        // An unpaired half is refused at the byte after its `\u`, whatever
        // follows it: nothing, a character, another escape.
        for (doc, at) in [
            (r#""\ud800""#, 3),
            (r#""\udbffx""#, 3),
            (r#""\ud800A""#, 3),
            (r#""\ud800\ud800\udc00""#, 3),
            (r#""\ud800\n""#, 3),
            (r#""\udc00""#, 3),
            (r#""x\udfffA""#, 4),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (at, "unpaired surrogate in \\u escape"),
                "{doc}"
            );
        }
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

    #[test]
    fn malformed_unicode_escapes_are_refused_where_they_start() {
        // The offset is the byte after the first `\u`, where any other
        // refused escape reports too.
        for (doc, at, what) in [
            (r#""x\u12""#, 4, "truncated \\u escape"),
            (r#""x\u12"#, 4, "truncated \\u escape"),
            (r#""x\u+123""#, 4, "bad \\u escape"),
            (r#""x\u-123""#, 4, "bad \\u escape"),
            (r#""x\u 123""#, 4, "bad \\u escape"),
            (r#""x\u12g4""#, 4, "bad \\u escape"),
            (r#""x\ud83d""#, 4, "unpaired surrogate in \\u escape"),
            (r#""x\ud83dy""#, 4, "unpaired surrogate in \\u escape"),
            (r#""x\ud83dA""#, 4, "unpaired surrogate in \\u escape"),
            (r#""x\ud83d\ud83d""#, 4, "unpaired surrogate in \\u escape"),
            (r#""x\ude00""#, 4, "unpaired surrogate in \\u escape"),
            (r#""x\q""#, 4, "unknown escape"),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!((err.offset, err.message.as_str()), (at, what), "{doc}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let mut out = String::new();
        escape_into(&mut out, "a \"b\"\n\t\\c");
        assert_eq!(out, r#""a \"b\"\n\t\\c""#);
        assert_eq!(text(&out), "a \"b\"\n\t\\c");
    }

    #[test]
    fn every_control_character_and_an_astral_one_round_trip() {
        for c in (0..0x20).filter_map(char::from_u32).chain(['\u{1F600}']) {
            let s = format!("a{c}b{c}");
            let mut doc = String::new();
            escape_into(&mut doc, &s);
            assert_eq!(text(&doc), s, "U+{:04X}", c as u32);
        }
        // Every escape form the grammar has, in either hex case, including
        // a surrogate pair.
        let back = text(r#""\b\f\/\u00e9\u00C9\ud83d\ude00\uD83D\uDE00""#);
        assert_eq!(back, "\u{8}\u{c}/éÉ😀😀");
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
        type Shape = (&'static str, fn(usize) -> bool);
        let shapes: [Shape; 3] = [
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

    /// Keys of each element's body, which the second element reads with
    /// the first element's keys as its guesses.
    fn body_keys(doc: &str) -> Vec<Vec<String>> {
        let v = parse(doc).unwrap();
        let rows = v.as_arr().unwrap();
        rows.iter()
            .map(|row| {
                let body = row.get("k").unwrap().as_obj().unwrap();
                body.iter().map(|(k, _)| k.to_string()).collect()
            })
            .collect()
    }

    #[test]
    fn a_guessed_key_is_taken_only_for_its_exact_token() {
        // A prefix, an extension and a reordering of the guessed keys.
        assert_eq!(
            body_keys(r#"[{"k":{"ab":1,"c":2}},{"k":{"a":1,"abc":2}},{"k":{"c":1,"ab":2}}]"#),
            [["ab", "c"], ["a", "abc"], ["c", "ab"]]
        );
        // An escaped spelling of a guessed key is the same key; a key that
        // needs an escape is never taken from its decoded text.
        assert_eq!(
            body_keys(r#"[{"k":{"ab":1}},{"k":{"ab":2}},{"k":{"a\\b":3}},{"k":{"a\\b":4}}]"#),
            [["ab"], ["ab"], ["a\\b"], ["a\\b"]]
        );
        assert_eq!(
            body_keys(r#"[{"k":{"q\"":1}},{"k":{"q\"":2}},{"k":{"q":3}}]"#),
            [["q\""], ["q\""], ["q"]]
        );
        // A guess at the end of the input or before a malformed token
        // leaves the error to the token's own reader.
        let err = parse(r#"[{"k":{"ab":1}},{"k":{"ab"#).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (25, "unterminated string")
        );
        let err = parse(r#"[{"k":{"ab":1}},{"k":{ab":1}}]"#).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (22, "expected '\"'"));
    }

    /// `decode` as the persisted config formats use it: the typed
    /// reader ([`FromJson`], `de.rs`) over the parsed tree.
    fn read<T: FromJson>(doc: &str) -> Result<T, String> {
        decode(doc)
    }

    #[test]
    fn typed_accessors_name_the_field() {
        #[derive(Debug, PartialEq, FromJson)]
        struct Doc {
            a: bool,
            b: String,
            n: u64,
        }
        let doc = r#"{"a":true,"b":"x","n":3}"#;
        let want = Doc {
            a: true,
            b: "x".into(),
            n: 3,
        };
        assert_eq!(read::<Doc>(doc), Ok(want));
        #[derive(Debug, FromJson)]
        #[allow(dead_code)]
        struct NumericA {
            a: u64,
            b: String,
            n: u64,
        }
        let err = read::<NumericA>(doc).unwrap_err();
        assert_eq!(err, "$.a: must be a number");
        let err = read::<Vec<Doc>>(r#"[{"a":true,"b":"x","n":3},{"a":1}]"#).unwrap_err();
        assert_eq!(err, "$[1].a: must be true or false");
    }

    #[test]
    fn integer_fields_demand_an_integer_token() {
        for (doc, want) in [
            ("0", Ok(0)),
            ("18446744073709551615", Ok(u64::MAX)),
            ("14443094230038941814", Ok(14443094230038941814)),
            ("1.0", Err("$: must be a non-negative integer (got 1.0)")),
            ("1e3", Err("$: must be a non-negative integer (got 1000.0)")),
            ("-1", Err("$: must be a non-negative integer (got -1.0)")),
            ("-0", Err("$: must be a non-negative integer (got -0.0)")),
            (
                "18446744073709551616",
                Err("$: must be a non-negative integer (got 1.8446744073709552e19)"),
            ),
            ("\"1\"", Err("$: must be a number")),
        ] {
            assert_eq!(read::<u64>(doc), want.map_err(String::from), "{doc}");
        }
        assert_eq!(
            read::<u32>("4294967296").unwrap_err(),
            "$: out of range (got 4294967296)"
        );
    }
}
