//! Property tests for the printer/parser pair: any value the workspace
//! can construct must survive `to_string` → `from_str` unchanged. The
//! string cases matter most — protocol frames and checkpoint documents
//! put arbitrary text (app names, error messages, file paths) through
//! this round trip, so control characters, `\u` escapes and non-BMP
//! codepoints all get exercised here.
//!
//! The same generators drive the differential checks against [`model`], the
//! codec this crate had before its streaming writer and pull reader: the
//! writer must render every document byte for byte as the old renderer did,
//! and the reader must accept, build and reject exactly what the old parser
//! did, error messages and offsets included.

mod model;

use mop_json::{from_str, to_string, to_string_pretty, Value};
use proptest::prelude::*;

/// Arbitrary Unicode strings: raw codepoints drawn from the whole scalar
/// range, so control characters (escaped as `\uXXXX` on output), the BMP
/// and supplementary planes (emoji, CJK extensions) all appear.
/// `char::from_u32` drops the surrogate gap.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x11_0000, 0..24)
        .prop_map(|points| points.into_iter().filter_map(char::from_u32).collect())
}

/// Arbitrary JSON documents of bounded depth. Floats stay finite (the
/// printer maps non-finite to `null`, deliberately not a round trip).
fn arb_value(depth: usize) -> proptest::Union<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        arb_string().prop_map(Value::Str),
    ];
    if depth == 0 {
        return leaf;
    }
    prop_oneof![
        3 => leaf,
        1 => proptest::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::Array),
        1 => proptest::collection::vec((arb_string(), arb_value(depth - 1)), 0..4)
            .prop_map(Value::Object),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_round_trip(s in arb_string()) {
        let value = Value::Str(s.clone());
        let printed = to_string(&value);
        prop_assert!(!printed.contains('\n'), "frames must stay single-line: {printed}");
        prop_assert_eq!(from_str(&printed).unwrap(), value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_documents_round_trip(value in arb_value(3)) {
        prop_assert_eq!(from_str(&to_string(&value)).unwrap(), value.clone());
        // The pretty printer parses back to the same document too.
        prop_assert_eq!(from_str(&to_string_pretty(&value)).unwrap(), value);
    }
}

#[test]
fn control_characters_print_as_escapes() {
    assert_eq!(to_string(&Value::Str("\u{0}".into())), "\"\\u0000\"");
    assert_eq!(to_string(&Value::Str("\u{1f}".into())), "\"\\u001f\"");
    assert_eq!(to_string(&Value::Str("a\nb\tc\r\"\\".into())), "\"a\\nb\\tc\\r\\\"\\\\\"");
    // DEL and above are not control-escaped: raw UTF-8 is valid JSON.
    assert_eq!(to_string(&Value::Str("\u{7f}é".into())), "\"\u{7f}é\"");
}

#[test]
fn unicode_escapes_parse_to_their_codepoints() {
    assert_eq!(from_str("\"\\u0041\\u00e9\\u2603\"").unwrap(), Value::Str("Aé☃".into()));
    assert_eq!(from_str("\"\\u0000\"").unwrap(), Value::Str("\u{0}".into()));
    assert_eq!(from_str("\"\\/\\b\\f\"").unwrap(), Value::Str("/\u{8}\u{c}".into()));
    // Surrogate pairs decode to one supplementary-plane character...
    assert_eq!(from_str("\"\\ud83d\\ude00\"").unwrap(), Value::Str("\u{1F600}".into()));
    // ...and lone halves are rejected rather than mangled.
    assert!(from_str("\"\\ud83d\"").is_err());
    assert!(from_str("\"\\ude00x\"").is_err());
}

#[test]
fn non_bmp_codepoints_survive_raw_and_escaped() {
    let text = "emoji \u{1F600}\u{1F389} and beyond \u{10FFFF}";
    let value = Value::Str(text.into());
    assert_eq!(from_str(&to_string(&value)).unwrap(), value);
    // The escaped spelling of the same character parses equal to the raw one.
    assert_eq!(from_str("\"\\ud83d\\ude00\"").unwrap(), from_str("\"\u{1F600}\"").unwrap());
}

/// Floats the printer treats specially: non-finite (printed `null`), whole
/// (printed with `.0`), signed zero, and the extremes of the range.
const SPECIAL_FLOATS: [f64; 10] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 2.0, -3e18, 1e300, 5e-324, 0.1];

/// Strings the printer treats specially, which uniformly drawn codepoints
/// almost never hit: control characters (escaped as `\uXXXX`, some with hex
/// letters), the two-character escapes, and what passes through raw.
const SPECIAL_STRINGS: [&str; 7] =
    ["", "\u{0}\u{1f}", "\u{b}\u{1a}\u{c}", "\"\\/", "\n\r\t\u{8}", "\u{7f}é😀", "plain"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_writer_renders_what_the_old_renderer_did(
        value in arb_value(3),
        special in 0usize..SPECIAL_FLOATS.len(),
        text in 0usize..SPECIAL_STRINGS.len(),
    ) {
        let text = SPECIAL_STRINGS[text];
        let value = Value::Array(vec![
            value,
            Value::Float(SPECIAL_FLOATS[special]),
            Value::Object(vec![(text.to_string(), Value::Str(text.to_string()))]),
        ]);
        prop_assert_eq!(to_string(&value), model::render(&value));
        prop_assert_eq!(to_string_pretty(&value), model::render_pretty(&value));
        prop_assert_eq!(value.to_string(), model::render(&value));
    }
}

/// Characters a mutation splices in: every structural byte, the starts of
/// keywords and numbers, escapes, whitespace, and multi-byte UTF-8.
const SPLICE: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '\\', 'n', 't', 'f', 'u', 'e', 'E', '.', '+', '-', '0', '9',
    ' ', '\n', 'x', '\u{0}', 'é', '😀',
];

/// `text` with one mutation at a character boundary: truncated, a character
/// deleted, or a character replaced by one from [`SPLICE`].
fn mutate(text: &str, kind: usize, at: usize, splice: usize) -> String {
    let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    if boundaries.is_empty() {
        return SPLICE[splice % SPLICE.len()].to_string();
    }
    let i = boundaries[at % boundaries.len()];
    let next = text[i..].chars().next().map_or(i, |c| i + c.len_utf8());
    match kind % 3 {
        0 => text[..i].to_string(),
        1 => format!("{}{}", &text[..i], &text[next..]),
        _ => format!("{}{}{}", &text[..i], SPLICE[splice % SPLICE.len()], &text[next..]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_reader_accepts_and_rejects_what_the_old_parser_did(
        value in arb_value(3),
        pretty in any::<bool>(),
        kind in 0usize..3,
        at in any::<usize>(),
        splice in any::<usize>(),
    ) {
        let text = if pretty { to_string_pretty(&value) } else { to_string(&value) };
        let mutant = mutate(&text, kind, at, splice);
        prop_assert_eq!(from_str(&text), model::parse(&text));
        prop_assert_eq!(from_str(&mutant), model::parse(&mutant), "{:?}", mutant);
    }
}

#[test]
fn edge_case_texts_parse_as_they_did() {
    for text in [
        "",
        " ",
        "-",
        "--1",
        "-0",
        "007",
        "1.",
        "1.e5",
        ".5",
        "1e",
        "1e+",
        "1-2",
        "+1",
        "1 2",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775809",
        "123456789012345678901234567890",
        "[1,]",
        "[,1]",
        "[",
        "]",
        "{\"a\":1,}",
        "{,}",
        "{\"a\" 1}",
        "{\"a\":}",
        "{1:2}",
        "\"\\u12\"",
        "\"\\u12345\"",
        "\"\\ud800\\u0041\"",
        "\"\\udc00\"",
        "\"\\x\"",
        "\"abc",
        "\"a\nb\"",
        "tru",
        "nulls",
        "true false",
        "\u{7f}",
        "[[[]]]",
        "{\"a\":{\"b\":[null,true,false,\"\"]}}  \n",
    ] {
        assert_eq!(from_str(text), model::parse(text), "{text:?}");
    }
}
