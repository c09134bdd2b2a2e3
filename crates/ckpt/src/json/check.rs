//! The writer checked against the reader: the documents every JSON
//! producer in the workspace must be accepted or refused by [`parse`],
//! and [`escape_into`]'s output for each byte class, read back.

mod tests {
    use crate::json::*;

    fn text(doc: &str) -> String {
        match parse(doc) {
            Ok(Json::Str(s)) => s,
            other => panic!("{doc}: expected a string, got {other:?}"),
        }
    }

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
            assert_eq!(text(&out[1..]), raw);
        }
    }

    #[test]
    fn accepts_valid_json() {
        for doc in [
            "null",
            "true",
            "  [1, 2.5, -3e-2, \"x\\u00e9\", {}, [] ]  ",
            "{\"a\": {\"b\": [null, false]}, \"c\": \"\"}",
            "-0.5",
            "\"\\\\\"",
        ] {
            assert!(parse(doc).is_ok(), "{doc:?}: {:?}", parse(doc));
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for (doc, at, what) in [
            ("", 0, "unexpected end of input"),
            ("{", 1, "expected '\"'"),
            ("[1,]", 3, "unexpected character ']'"),
            ("{\"a\":}", 5, "unexpected character '}'"),
            ("{a: 1}", 1, "expected '\"'"),
            ("01", 1, "trailing characters after the document"),
            ("1.", 2, "digit required after decimal point"),
            ("nul", 0, "expected null"),
            ("\"unterminated", 13, "unterminated string"),
            ("\"bad\\escape\"", 6, "unknown escape"),
            ("[1] trailing", 4, "trailing characters after the document"),
            ("NaN", 0, "unexpected character 'N'"),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!((err.offset, err.message.as_str()), (at, what), "{doc:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (256, "nesting deeper than 256 levels")
        );
        let err = parse(&"{\"k\":[".repeat(MAX_DEPTH / 2 + 1)).unwrap_err();
        assert_eq!(err.message, "nesting deeper than 256 levels");
    }

    #[test]
    fn escaped_strings_validate() {
        let raw = "tab\t quote\" slash\\ unicode❄ ctl\u{02}";
        let mut out = String::new();
        escape_into(&mut out, raw);
        assert_eq!(text(&out), raw);
    }
}
