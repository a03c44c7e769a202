//! Property tests for the `obs::json` reader on malformed and truncated
//! input: parsing must never panic, and every failure must surface as the
//! typed `ParseError` / `NdjsonError` — byte offsets in range, no
//! `unwrap`-style aborts — because CI tooling feeds this parser artifacts
//! from failed runs, which are truncated by construction.

use proptest::prelude::*;

use aadedupe_obs::json::{self, Value};

/// A generator biased toward JSON-looking garbage: structural characters,
/// quotes, digits, escapes, and raw control bytes.
fn jsonish() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('{'),
            Just('}'),
            Just('['),
            Just(']'),
            Just('"'),
            Just(','),
            Just(':'),
            Just('\\'),
            Just('.'),
            Just('-'),
            Just('e'),
            Just('t'),
            Just('n'),
            Just('0'),
            Just('9'),
            Just(' '),
            Just('\n'),
            Just('\u{1}'),
            Just('é'),
        ],
        0..64,
    )
    .prop_map(String::from_iter)
}

proptest! {
    /// Arbitrary garbage: parse returns Ok or a typed error, never panics,
    /// and error offsets stay within the input.
    #[test]
    fn arbitrary_input_never_panics(input in jsonish()) {
        match json::parse(&input) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(e.at <= input.len(), "offset {} out of range {}", e.at, input.len());
                prop_assert!(!e.msg.is_empty());
                // The error is a real std::error::Error with a Display.
                let shown = format!("{e}");
                prop_assert!(shown.contains("byte"));
            }
        }
    }

    /// Every prefix of a valid document either parses or fails typed —
    /// truncation at any byte boundary must be safe.
    #[test]
    fn truncation_is_safe_at_every_boundary(
        n in 0usize..200,
    ) {
        let full = r#"{"schema_version": 2, "stages": {"chunk": {"count": 3, "buckets": [[1, 2]]}}, "label": "caf\u00e9 – x", "neg": -1.5e3, "t": true, "nil": null}"#;
        let cut = full.char_indices().map(|(i, _)| i).take_while(|&i| i <= n).last().unwrap_or(0);
        let prefix = &full[..cut];
        match json::parse(prefix) {
            Ok(v) => prop_assert!(matches!(v, Value::Obj(_)) || prefix.is_empty()),
            Err(e) => prop_assert!(e.at <= prefix.len()),
        }
    }

    /// NDJSON streams with a corrupted line report the 1-based line number
    /// of the failure and never panic.
    #[test]
    fn ndjson_errors_carry_line_numbers(
        good_lines in 0usize..5,
        garbage in jsonish(),
    ) {
        let mut text = String::new();
        for i in 0..good_lines {
            text.push_str(&format!("{{\"seq\": {i}}}\n"));
        }
        text.push_str(&garbage);
        text.push('\n');
        match json::parse_ndjson(&text) {
            Ok(docs) => prop_assert!(docs.len() >= good_lines),
            Err(e) => {
                prop_assert!(e.line >= 1 && e.line <= good_lines + garbage.lines().count().max(1),
                    "line {} outside stream", e.line);
                prop_assert!(format!("{e}").contains("NDJSON line"));
            }
        }
    }
}

/// Deterministic spot checks for shapes the fuzz strategies may not hit.
#[test]
fn pathological_documents_fail_typed() {
    for bad in [
        "",
        "{",
        "}",
        "[[[[[[[[",
        "\"\\u12",
        "\"\\u12zz\"",
        "\"\\udc00\"",
        "{\"a\":}",
        "{\"a\" \"b\"}",
        "[1 2]",
        "nul",
        "-",
        "1e",
        "\u{1}",
        "{\"k\": \"\u{1}\"}",
    ] {
        match json::parse(bad) {
            Ok(v) => panic!("{bad:?} unexpectedly parsed to {v:?}"),
            Err(e) => assert!(e.at <= bad.len(), "{bad:?}: offset out of range"),
        }
    }
}

/// Unknown keys are tolerated by construction: readers navigate with
/// `get`, which returns `Null` for absent members and ignores extras.
#[test]
fn unknown_keys_are_tolerated() {
    let doc = json::parse(
        r#"{"schema_version": 99, "future_field": {"nested": [1, 2]}, "counters": {"chunk_bytes": 7}}"#,
    )
    .expect("document with unknown keys parses");
    assert_eq!(doc.get("counters").get("chunk_bytes").as_u64(), Some(7));
    assert_eq!(doc.get("not_there"), &Value::Null);
    assert_eq!(doc.get("future_field").get("nested").at(1).as_u64(), Some(2));
}
