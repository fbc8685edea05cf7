//! Properties of the streaming shim: the reader and the writer agree,
//! `skip_value` and the DOM builder agree, a typed read agrees with the
//! same read routed through a `Value`, and hostile input ends in `Err`.

mod zoo;

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
