//! Differential pin of the one-pass JSON reader against the reader it
//! replaced (`common/reference.rs`, the parent's `json.rs` verbatim).
//!
//! The contract: on every input the two return the same thing — the same
//! tree node for node, numbers compared by `f64::to_bits`, or the same
//! `ParseError { offset, message }`. The intended differences are exactly
//! four, each asserted below as a difference rather than skipped:
//!
//! 1. an unpaired high surrogate (`\uD800..=\uDBFF` not followed by a `\u`
//!    low half) is refused; the reference replaces it with U+FFFD, or,
//!    when another `\u` escape follows, subtracts with overflow (a panic
//!    in a debug build, a wrong character in release);
//! 2. nesting deeper than `MAX_DEPTH` is refused (the reference recurses
//!    without bound and overflows the stack near 10^5 levels);
//! 3. a lone low surrogate and a `\u` escape with a sign (`\u+123`) are
//!    refused; the reference replaces the one and reads the other as
//!    U+0123;
//! 4. `as_u64` of an integer token is exact; the reference's goes through
//!    the `f64` and is wrong above 2^53.

mod common;

use std::path::Path;

use common::{event_dump, flight_dump, reference, repo_root, SplitMix};
use nscc_analyze::json::{parse, Json, ParseError, MAX_DEPTH};

/// Where `new` and `old` differ, as a path into the document.
fn difference(new: &Json, old: &reference::Json, at: &str) -> Option<String> {
    match (new, old) {
        (Json::Null, reference::Json::Null) => None,
        (Json::Bool(a), reference::Json::Bool(b)) if a == b => None,
        (Json::Num(a), reference::Json::Num(b)) if a.as_f64().to_bits() == b.to_bits() => None,
        (Json::Str(a), reference::Json::Str(b)) if a == b => None,
        (Json::Arr(a), reference::Json::Arr(b)) if a.len() == b.len() => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (x, y))| difference(x, y, &format!("{at}[{i}]"))),
        (Json::Obj(a), reference::Json::Obj(b)) if a.len() == b.len() => {
            a.iter().zip(b).find_map(|((ka, x), (kb, y))| {
                if **ka != **kb {
                    return Some(format!("{at}: key {ka:?} vs {kb:?}"));
                }
                difference(x, y, &format!("{at}.{ka}"))
            })
        }
        _ => Some(format!("{at}: {new:?} vs {old:?}")),
    }
}

/// Both readers on `doc`: equal trees or equal errors.
fn assert_same(doc: &str, what: &str) {
    match (parse(doc), reference::parse(doc)) {
        (Ok(new), Ok(old)) => {
            if let Some(diff) = difference(&new, &old, "$") {
                panic!("{what}: trees differ at {diff}");
            }
        }
        (Err(new), Err(old)) => assert_eq!(
            (new.offset, &new.message),
            (old.offset, &old.message),
            "{what}: {doc:?}"
        ),
        (new, old) => panic!("{what}: {doc:?}: reader {new:?}, reference {old:?}"),
    }
}

fn json_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_committed_artefact_parses_to_the_same_tree() {
    let root = repo_root();
    let mut seen = 0;
    for dir in [
        "baselines",
        "runs",
        "repros",
        "tests/fixtures",
        "crates/perf/results",
    ] {
        let files = json_files(&root.join(dir));
        assert!(!files.is_empty(), "{dir}: no *.json");
        for path in files {
            let text = std::fs::read_to_string(&path).expect("readable");
            assert!(parse(text.trim()).is_ok(), "{}", path.display());
            assert_same(text.trim(), &path.display().to_string());
            // As `Report::load` would not see it: untrimmed.
            assert_same(&text, &path.display().to_string());
            seen += 1;
        }
    }
    assert!(seen >= 20, "only {seen} artefacts found");
}

#[test]
fn generated_dumps_parse_to_the_same_tree() {
    for seed in 0..4 {
        let dump = event_dump(seed, 3000, 300);
        assert!(parse(&dump).is_ok(), "seed {seed}");
        assert_same(&dump, "event dump");
        let flight = flight_dump(seed, 512);
        assert!(parse(&flight).is_ok(), "seed {seed}");
        assert_same(&flight, "flight dump");
    }
}

/// Malformed (and a few borderline well-formed) inputs: every rejection
/// keeps its offset and its wording.
#[test]
fn errors_keep_their_offset_and_message() {
    let doc = r#" {"a":[1,-2.5e+3,true,false,null,"x\né😀é"],"b":{"c":{}},"d":[]} "#;
    assert!(parse(doc).is_ok());
    for end in 0..=doc.len() {
        if doc.is_char_boundary(end) {
            assert_same(&doc[..end], "truncation");
        }
    }
    // Every byte of the document replaced by a few hostile ones.
    for at in (0..doc.len()).filter(|&i| doc.is_char_boundary(i) && doc.is_char_boundary(i + 1)) {
        for with in ["\u{0}", "\u{1f}", "\"", "\\", "}", ",", "x", "0", "é"] {
            let mutated = format!("{}{with}{}", &doc[..at], &doc[at + 1..]);
            assert_same(&mutated, "substitution");
        }
    }
    let table = [
        // Numbers.
        "01",
        "-01",
        "1.",
        "1.e3",
        "1e",
        "1e+",
        "1E-",
        "-",
        "--1",
        "+1",
        ".5",
        "1.5.2",
        "0x10",
        "1e5x",
        "-0",
        "-0.0",
        "0e0",
        "1e999",
        "-1e999",
        "1e-999",
        "00",
        "1 2",
        "9",
        "123456789012345",
        "1234567890123456",
        "-999999999999999",
        "18446744073709551615",
        "18446744073709551616",
        "1.7976931348623157e308",
        "4.9e-324",
        "0.1",
        "1E2",
        "1e+2",
        // Strings and escapes.
        r#"""#,
        r#""abc"#,
        r#""\"#,
        r#""\x""#,
        r#""\u""#,
        r#""\u1""#,
        r#""\u12""#,
        r#""\u123""#,
        r#""\u123g""#,
        r#""\uéé""#,
        r#""\u00é""#,
        r#""\/\b\f\n\r\t\"\\""#,
        r#""\u0000""#,
        r#""\u001f\u007f\u00e9\u2744""#,
        r#""\ud83d\ude00""#,
        r#""\ud83d\ude0""#,
        r#""\u000é""#,
        r#""\ud83d\u""#,
        "\"a\u{0}b\"",
        "\"a\tb\"",
        "\"a\nb\"",
        "\"\u{1f}\"",
        "\"\u{7f}\"",
        "\"é\u{1}\"",
        "\"plain\" x",
        "\"é❄😀\"",
        // Literals.
        "nul",
        "nulll",
        "tru",
        "truex",
        "fals",
        "n",
        "t",
        "f",
        "None",
        "NaN",
        "Infinity",
        // Structure.
        "",
        " ",
        "[",
        "]",
        "{",
        "}",
        "[1,]",
        "[,1]",
        "[1 2]",
        "[1,,2]",
        "[1",
        "[1,",
        "[]]",
        "[[]",
        r#"{"a":1,}"#,
        r#"{,"a":1}"#,
        r#"{"a"}"#,
        r#"{"a":}"#,
        r#"{"a" 1}"#,
        r#"{a:1}"#,
        r#"{1:2}"#,
        r#"{"a":1 "b":2}"#,
        r#"{"a":1"#,
        r#"{"a":1,"#,
        r#"{"a":1,"b"#,
        r#"{"a\":1}"#,
        r#"{"a":1}}"#,
        r#"{"a":1} x"#,
        "[1] trailing",
        "[1]\n\t\r ",
        "\u{feff}[1]",
        "[1]\u{0}",
        r#"{"":0,"":1}"#,
        r#"{"a":{"a":{"a":[[[{}]]]}}}"#,
        "é",
        "[é]",
        "\u{0}",
    ];
    for doc in table {
        assert_same(doc, "table");
    }
}

/// `str::parse::<f64>`, which is what the reference does to every token.
fn by_std(token: &str) -> u64 {
    token.parse::<f64>().expect("a number").to_bits()
}

fn by_reader(token: &str) -> u64 {
    match parse(token) {
        Ok(Json::Num(n)) => n.as_f64().to_bits(),
        other => panic!("{token}: {other:?}"),
    }
}

/// The integer fast path is exact: it returns the bits `str::parse` does,
/// on both sides of every boundary it has.
#[test]
fn integers_convert_bit_for_bit() {
    let mut tokens: Vec<String> = vec!["0".into(), "-0".into()];
    let mut power: u128 = 1;
    for _ in 0..=19 {
        for n in [power - 1, power, power + 1] {
            tokens.push(n.to_string());
            tokens.push(format!("-{n}"));
        }
        power *= 10;
    }
    for n in [
        (1u128 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        (1 << 63) - 1,
        1 << 63,
        u64::MAX as u128 - 1,
        u64::MAX as u128,
        u64::MAX as u128 + 1,
        // Wraps a `u64` accumulator to a small number.
        (1 << 64) + 7,
        99_999_999_999_999_999_999,
    ] {
        tokens.push(n.to_string());
        tokens.push(format!("-{n}"));
    }
    let mut rng = SplitMix(0x5EED);
    for digits in 1..=20u32 {
        let (lo, hi) = (10u128.pow(digits - 1), 10u128.pow(digits));
        for _ in 0..10_000 {
            let r = (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
            let n = if digits == 1 {
                r % 10
            } else {
                lo + r % (hi - lo)
            };
            tokens.push(n.to_string());
        }
    }
    assert!(tokens.len() > 200_000);
    for token in &tokens {
        assert_eq!(by_reader(token), by_std(token), "{token}");
    }
    assert_eq!(by_reader("-0"), (-0.0f64).to_bits());
    assert_eq!(by_reader("0"), 0);
    // The same tokens inside a document, where a delimiter follows.
    let doc = format!("[{}]", tokens[..2000].join(","));
    assert_same(&doc, "integer array");
}

/// The reader's refusal of `doc`, asserted, and the reference's answer,
/// asserted to be something else.
fn assert_refused_unlike_the_reference(doc: &str, at: usize, what: &str) {
    let err = parse(doc).unwrap_err();
    assert_eq!((err.offset, err.message.as_str()), (at, what), "{doc}");
    let old = std::panic::catch_unwind(|| reference::parse(doc));
    assert!(
        !matches!(&old, Ok(Err(e)) if (e.offset, e.message.as_str()) == (at, what)),
        "{doc}: the reference was expected to accept this, got {old:?}"
    );
}

/// Intended difference 1: an unpaired high surrogate, whatever follows
/// it. The reader refuses it at the byte after its `\u`; the reference
/// replaces it, or panics (debug) or invents a character (release) when
/// another `\u` escape follows.
#[test]
fn unpaired_high_surrogates_are_the_first_intended_difference() {
    for doc in [
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\udbff\u00e9x""#,
        r#""\ud800\ud83d\ude00""#,
        r#""\ud800""#,
        r#""\ud800x""#,
        r#""\ud800\n""#,
        r#""\ud83d\"#,
    ] {
        assert_refused_unlike_the_reference(doc, 3, "unpaired surrogate in \\u escape");
    }
}

/// Intended difference 2: the depth bound. At the bound the two agree;
/// one level deeper the reader refuses and the reference still parses.
#[test]
fn the_depth_bound_is_the_second_intended_difference() {
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}0{}", "{\"k\":".repeat(n), "}".repeat(n));
    let mixed = |n: usize| format!("{}0{}", "[{\"k\":".repeat(n / 2), "}]".repeat(n / 2));
    for shape in [&arrays as &dyn Fn(usize) -> String, &objects, &mixed] {
        assert_same(&shape(MAX_DEPTH), "at the bound");
        let deep = shape(MAX_DEPTH + 2);
        assert!(reference::parse(&deep).is_ok());
        let ParseError { offset, message } = parse(&deep).unwrap_err();
        assert_eq!(message, "nesting deeper than 256 levels");
        assert!(matches!(deep.as_bytes()[offset], b'[' | b'{'));
    }
    // Two million levels: an error, not a dead process. (The reference is
    // not asked: it overflows the stack.)
    for opener in ["[", "{\"k\":", "[{\"k\":"] {
        assert!(parse(&opener.repeat(2_000_000)).is_err(), "{opener}");
    }
}

/// Intended difference 3: a lone low surrogate and a signed `\u` escape,
/// both of which the reference accepts.
#[test]
fn lone_low_surrogates_and_signed_escapes_are_the_third_intended_difference() {
    for (doc, at) in [(r#""\udc00""#, 3), (r#""x\udfffA""#, 4)] {
        assert_refused_unlike_the_reference(doc, at, "unpaired surrogate in \\u escape");
    }
    for (doc, at) in [(r#""\u+123""#, 3), (r#""x\u+0e9""#, 4)] {
        assert_refused_unlike_the_reference(doc, at, "bad \\u escape");
    }
}

/// Intended difference 4: the tree is the same (every number's `f64` is
/// identical), but `as_u64` of an integer token is its exact value.
#[test]
fn exact_integers_are_the_fourth_intended_difference() {
    for n in [(1u64 << 53) + 1, 14443094230038941814, u64::MAX - 1] {
        let doc = n.to_string();
        assert_same(&doc, "integer");
        assert_eq!(parse(&doc).unwrap().as_u64(), Some(n));
        assert_ne!(reference::parse(&doc).unwrap().as_u64(), Some(n), "{doc}");
    }
    // Where the `f64` is exact, the two agree.
    for n in [0, 1 << 53, u64::MAX] {
        let doc = n.to_string();
        assert_eq!(parse(&doc).unwrap().as_u64(), Some(n));
        assert_eq!(reference::parse(&doc).unwrap().as_u64(), Some(n));
    }
}
