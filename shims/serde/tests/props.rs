//! Properties of the streaming shim: the reader and the writer agree,
//! `skip_value` and the DOM builder agree, `skip_value` and its
//! recursive model agree, a typed read agrees with the same read routed
//! through a `Value`, and hostile input ends in `Err`.

mod model;
mod zoo;

use model::ModelReader;
use proptest::prelude::*;
use proptest::TestRng;
use serde::de::DeserializeOwned;
use serde::json::{Num, Reader, Value, MAX_DEPTH};
use serde::Deserialize;
use zoo::*;

// ---------------------------------------------------------------------
// Reader ↔ writer, skip ↔ build.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_to_string(seed in any::<u64>()) {
        let v = gen_value(&mut TestRng::new(seed), 4);
        let text = v.to_string();
        prop_assert_eq!(&serde::json::parse(&text).unwrap(), &v, "{}", text);
        // ... and a foreign spelling of the same document reads the same,
        // up to the integers it chose to spell as floats (`Num`'s `==`).
        let foreign = loose(&mut TestRng::new(seed ^ 1), &v);
        prop_assert_eq!(&serde::json::parse(&foreign).unwrap(), &v, "{}", foreign);
    }

    #[test]
    fn skip_value_accepts_what_parse_accepts_and_stops_where_it_stops(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let v = gen_value(rng, 4);
        let mut doc = loose(rng, &v);
        match rng.below(4) {
            0 => {}
            // Trailing bytes: both stop after the first value.
            1 => doc.push_str(pick(rng, &["x", ",1", "]", " {}", "\"", "1"])),
            _ => doc = mutate(rng, &doc),
        }
        let mut built = Reader::new(&doc);
        let mut skipped = Reader::new(&doc);
        let tree = Value::deserialize(&mut built);
        let skip = skipped.skip_value();
        prop_assert_eq!(tree.is_ok(), skip.is_ok(), "{:?}: {:?} vs {:?}", doc, tree, skip);
        if skip.is_ok() {
            prop_assert_eq!(built.offset(), skipped.offset(), "{:?}", doc);
            prop_assert_eq!(built.end().is_ok(), skipped.end().is_ok());
        }
    }
}

// ---------------------------------------------------------------------
// The iterative skip against the recursive one.
// ---------------------------------------------------------------------

/// Spellings on both sides of the skip's inline paths: integers of 19
/// and 20 digits, floats with and without digits in each part, escapes,
/// literals and their misspellings.
const TOKENS: &[&str] = &[
    "0",
    "-0",
    "007",
    "1234567890123456789",
    "-9999999999999999999",
    "12345678901234567890",
    "-12345678901234567890",
    "340282366920938463463374607431768211455",
    "340282366920938463463374607431768211456",
    "1.5",
    "-0.25e-3",
    "1E+2",
    "1e400",
    "1.",
    "1.e3",
    "-.5",
    "-",
    "1e",
    "1e+",
    "--1",
    "1.2.3",
    "\"\"",
    "\"plain\"",
    "\"a\\\"b\"",
    "\"\\u00e9\\ud83d\\ude00\"",
    "\"\\ud800\"",
    "\"\\x\"",
    "\"\u{1}raw\"",
    "\"ß😀\"",
    "null",
    "true",
    "false",
    "nul",
    "tru",
    "fals",
    "[]",
    "{}",
    "[ ]",
];

/// A document built from [`TOKENS`], up to `depth` containers deep.
fn token_doc(rng: &mut TestRng, depth: u32, out: &mut String) {
    ws(rng, out);
    match rng.below(if depth == 0 { 1 } else { 3 }) {
        0 => out.push_str(pick(rng, TOKENS)),
        1 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                token_doc(rng, depth - 1, out);
            }
            ws(rng, out);
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(pick(rng, &["\"k\"", "\"\\u006b\"", "\"\"", "k", "1"]));
                ws(rng, out);
                out.push(':');
                token_doc(rng, depth - 1, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

/// `levels` containers, arrays and objects mixed, around one token.
fn nested(rng: &mut TestRng, levels: usize) -> String {
    let mut closers = Vec::new();
    let mut doc = String::new();
    for _ in 0..levels {
        if rng.below(2) == 0 {
            doc.push('[');
            closers.push(']');
        } else {
            doc.push_str("{\"k\":");
            closers.push('}');
        }
    }
    doc.push_str(pick(rng, TOKENS));
    doc.extend(closers.into_iter().rev());
    doc
}

/// What the real reader and the model do with `doc` entered
/// `start_depth` arrays deep: the outcome (error text included) and the
/// end offset of every step, up to the first that fails.
fn skip_outcomes(doc: &str, start_depth: usize) -> [Vec<(String, usize)>; 2] {
    let text = format!("{}{doc}", "[".repeat(start_depth));
    let (mut real, mut model) = (Reader::new(&text), ModelReader::new(&text));
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for _ in 0..start_depth {
        let (a, b) = (real.begin_array(), model.begin_array());
        got.push((format!("{a:?}"), real.offset()));
        want.push((format!("{b:?}"), model.offset()));
        if !matches!(b, Ok(true)) {
            return [got, want];
        }
    }
    let a = real.skip_value().map_err(|e| e.to_string());
    let b = model.skip_value().map_err(|e| e.to_string());
    got.push((format!("{a:?}"), real.offset()));
    want.push((format!("{b:?}"), model.offset()));
    [got, want]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn skip_value_matches_the_recursive_model(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let mut doc = match rng.below(3) {
            0 => {
                let v = gen_value(rng, 4);
                loose(rng, &v)
            }
            1 => {
                let mut doc = String::new();
                token_doc(rng, 4, &mut doc);
                doc
            }
            _ => {
                let levels = rng.below(MAX_DEPTH as u64 + 3) as usize;
                nested(rng, levels)
            }
        };
        match rng.below(4) {
            0 => {}
            1 => doc = mutate(rng, &doc),
            2 => {
                let cuts: Vec<usize> = (0..doc.len()).filter(|&i| doc.is_char_boundary(i)).collect();
                if !cuts.is_empty() {
                    doc.truncate(pick(rng, &cuts));
                }
            }
            _ => doc.push_str(pick(rng, &["x", ",1", "]", "}", " {}", "\"", "1"])),
        }
        let start_depth = rng.below(MAX_DEPTH as u64 + 1) as usize;
        let [got, want] = skip_outcomes(&doc, start_depth);
        prop_assert_eq!(got, want, "{:?} at depth {}", doc, start_depth);
    }
}

/// The nesting limit counts from wherever the skip starts: at every
/// start depth, one level short of it, at it and past it.
#[test]
fn skip_value_matches_the_model_at_every_start_depth() {
    let rng = &mut TestRng::new(7);
    for start_depth in 0..=MAX_DEPTH {
        let room = MAX_DEPTH - start_depth;
        for levels in [room.saturating_sub(1), room, room + 1] {
            let doc = nested(rng, levels);
            let [got, want] = skip_outcomes(&doc, start_depth);
            assert_eq!(got, want, "{doc:?} at depth {start_depth}");
        }
    }
}

/// The digit writer and the integer reader against `std` at every width,
/// with and without eight bytes of input left after the digits.
#[test]
fn integers_match_std_at_every_width() {
    let mut values = vec![0, u64::MAX, u64::MAX - 1];
    for p in 0..20 {
        let t = 10u64.pow(p);
        values.extend([t, t - 1, t + 1, t / 7 * 3]);
    }
    for v in values {
        let mut out = String::new();
        serde::json::push_u64(&mut out, v);
        assert_eq!(out, v.to_string());
        for (sign, zeros, tail) in [
            ("", "", ""),
            ("-", "", ",12345678]"),
            ("", "00", " 99999999"),
        ] {
            let doc = format!("{sign}{zeros}{v}{tail}");
            let text = &doc[..doc.len() - tail.len()];
            let want = if sign.is_empty() {
                Num::Pos(text.parse().unwrap())
            } else {
                Num::Neg(text.parse().unwrap())
            };
            let mut r = Reader::new(&doc);
            assert_eq!(r.number().unwrap(), want, "{doc}");
            assert_eq!(r.offset(), text.len(), "{doc}");
        }
    }
}

// ---------------------------------------------------------------------
// Typed reads.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn typed_read_equals_read_through_a_tree(seed in any::<u64>()) {
        let (doc, check, damaged) = zoo_case(seed);
        // The tree cannot carry two things the text can: a float that
        // overflowed to `inf` (it writes `null`) and `-0` (it writes `0`).
        if let Ok(parsed) = serde_json::from_str::<Value>(&doc) {
            prop_assume!(!any_node(&parsed, &|v| match v {
                Value::Num(Num::Float(f)) => !f.is_finite(),
                other => *other == Value::Num(Num::Neg(0)),
            }));
        }
        let (direct, via) = check(&doc);
        prop_assert_eq!(&direct, &via, "{}", doc);
        if !damaged {
            prop_assert!(direct.is_some(), "{}", doc);
        }
    }

    #[test]
    fn key_order_unknown_keys_and_duplicates_do_not_matter(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let Value::Object(mut entries) = serde_json::to_value(&named()).unwrap() else {
            unreachable!("a struct is an object")
        };
        // A later duplicate (any value at all) loses to the first ...
        let dup = entries[rng.below(entries.len() as u64) as usize].0.clone();
        entries.push((dup, gen_value(rng, 2)));
        // ... the original entries come in any order ...
        for i in (1..entries.len() - 1).rev() {
            entries.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // ... and an unknown key may sit anywhere.
        let at = rng.below(entries.len() as u64 + 1) as usize;
        entries.insert(at, ("zz".into(), gen_value(rng, 3)));
        let doc = loose(rng, &Value::Object(entries));
        prop_assert_eq!(serde_json::from_str::<Named>(&doc).ok(), Some(named()), "{}", doc);
    }
}

// ---------------------------------------------------------------------
// Hostile input.
// ---------------------------------------------------------------------

fn error_of<T: DeserializeOwned + std::fmt::Debug>(doc: &str) -> String {
    serde_json::from_str::<T>(doc).unwrap_err().to_string()
}

/// Was a debug-build panic (`lo - 0xDC00` underflow) and a wrong
/// character in release.
#[test]
fn high_surrogate_needs_a_low_one() {
    for doc in [
        "\"\\ud800\\u0041\"",
        "\"\\ud800\\ud800\"",
        "\"\\udbff\\ue000\"",
    ] {
        assert_eq!(error_of::<String>(doc), "invalid surrogate pair");
        assert_eq!(error_of::<Value>(doc), "invalid surrogate pair");
        assert_eq!(error_of::<()>(doc), "invalid surrogate pair");
    }
    assert_eq!(
        serde_json::from_str::<String>("\"\\ud800\\udc00\\udbff\\udfff\"").unwrap(),
        "\u{10000}\u{10ffff}"
    );
}

/// Was a stack overflow that aborted the process.
#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    let arrays = "[".repeat(200_000);
    let objects = "{\"a\":".repeat(200_000);
    let mixed = "[{\"a\":".repeat(100_000);
    for doc in [&arrays, &objects, &mixed] {
        assert!(error_of::<Value>(doc).starts_with("recursion limit exceeded"));
        assert!(error_of::<()>(doc).starts_with("recursion limit exceeded"));
    }
    assert!(error_of::<Vec<Vec<Value>>>(&arrays).starts_with("recursion limit exceeded"));
    assert!(error_of::<Generic<Value, u8>>(&objects.replace('a', "t"))
        .contains("recursion limit exceeded"));

    // The limit itself: MAX_DEPTH containers deep is fine, one more is not.
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
    assert!(serde_json::from_str::<()>(&nest(MAX_DEPTH)).is_ok());
    assert!(error_of::<Value>(&nest(MAX_DEPTH + 1)).starts_with("recursion limit exceeded"));
    assert!(error_of::<()>(&nest(MAX_DEPTH + 1)).starts_with("recursion limit exceeded"));
    // Depth is nesting, not count: siblings do not add up.
    let wide = format!("[{}[]]", "[],".repeat(10_000));
    assert!(serde_json::from_str::<Value>(&wide).is_ok());
}
