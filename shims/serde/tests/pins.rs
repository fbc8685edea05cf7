//! The serde shim's output bytes and edge-document outcomes, pinned to
//! what the `Value`-tree implementation produced: the `to_string` bytes
//! in `zoo/mod.rs` and every `Ok(value)`/`Err` outcome below were
//! captured on the commit *before* the traits started streaming.
//!
//! To re-capture after a deliberate format change, run with
//! `--nocapture`: a failing table prints every row as it should read.

mod zoo;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Debug;

use serde::de::DeserializeOwned;
use zoo::*;

#[test]
fn zoo_to_string_bytes_are_pinned() {
    assert_eq!(serde_json::to_string(&named()).unwrap(), NAMED_JSON);
    assert_eq!(serde_json::to_string(&wide()).unwrap(), WIDE_JSON);
    let pretty = serde_json::to_string_pretty(&wide()).unwrap();
    assert!(
        pretty.starts_with(WIDE_PRETTY_HEAD),
        "pretty form moved:\n{pretty}"
    );
    assert!(pretty.ends_with("\n  \"empty\": {}\n}"), "{pretty}");
    // The remaining spellings: borrowed, shared and unsized carriers.
    assert_eq!(
        serde_json::to_string(&(&named().d[..], "s", std::sync::Arc::new(Unit))).unwrap(),
        "[[0,1,65535],\"s\",null]"
    );
    assert_eq!(
        serde_json::to_string(&(i64::MIN, u64::MAX, -0.0f64, 1e21f64, f64::INFINITY)).unwrap(),
        "[-9223372036854775808,18446744073709551615,-0.0,1000000000000000000000.0,null]"
    );
}

#[test]
fn zoo_round_trips() {
    let back: Named = serde_json::from_str(NAMED_JSON).unwrap();
    assert_eq!(back, named());
    let mut back: Wide = serde_json::from_str(WIDE_JSON).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), WIDE_JSON);
    // NaN != NaN: check it apart, then compare the rest.
    assert!(back.nan.is_nan());
    back.nan = 0.0;
    assert_eq!(back, Wide { nan: 0.0, ..wide() });
    // The DOM agrees with the typed path on the same bytes.
    let dom: serde_json::Value = serde_json::from_str(WIDE_JSON).unwrap();
    assert_eq!(dom.to_string(), WIDE_JSON);
    assert_eq!(serde_json::to_value(&wide()).unwrap(), dom);
    assert_eq!(
        dom.get("map").and_then(|m| m.get("10")),
        Some(&serde_json::json!("ten"))
    );
}

/// `Some(debug form)` for `Ok`, `None` for `Err`.
fn probe<T: DeserializeOwned + Debug>(doc: &str) -> Option<String> {
    serde_json::from_str::<T>(doc)
        .ok()
        .map(|v| format!("{v:?}"))
}

type Probe = fn(&str) -> Option<String>;

/// `(target type, document, outcome on the Value-tree implementation)`.
#[rustfmt::skip]
const EDGES: &[(&str, Probe, &str, Option<&str>)] = &[
    // Number spellings the scanner lets through or not.
    ("u32", probe::<u32>, "007", Some("7")),
    ("f64", probe::<f64>, "1.", Some("1.0")),
    ("f64", probe::<f64>, "1.e3", Some("1000.0")),
    ("f64", probe::<f64>, "-.5", Some("-0.5")),
    ("f64", probe::<f64>, "-", None),
    ("f64", probe::<f64>, "1e", None),
    ("f64", probe::<f64>, "-e5", None),
    ("f64", probe::<f64>, ".5", None),
    ("f64", probe::<f64>, "+1", None),
    ("f64", probe::<f64>, "1e400", Some("inf")),
    ("f64", probe::<f64>, "7", Some("7.0")),
    ("f64", probe::<f64>, "-7", Some("-7.0")),
    ("f64", probe::<f64>, "null", Some("NaN")),
    ("f64", probe::<f64>, "\"1\"", None),
    ("Value", probe::<serde_json::Value>, "-0", Some("Num(Neg(0))")),
    ("Value", probe::<serde_json::Value>, "340282366920938463463374607431768211456", None),
    ("Value", probe::<serde_json::Value>, "-170141183460469231731687303715884105729", None),
    ("u128", probe::<u128>, "340282366920938463463374607431768211455", Some("340282366920938463463374607431768211455")),
    ("i128", probe::<i128>, "-170141183460469231731687303715884105728", Some("-170141183460469231731687303715884105728")),
    // Integers from floats, ranges, signs.
    ("u8", probe::<u8>, "3.0", Some("3")),
    ("u8", probe::<u8>, "3.5", None),
    ("u8", probe::<u8>, "300", None),
    ("u8", probe::<u8>, "300.0", Some("255")),
    ("u8", probe::<u8>, "-1", None),
    ("u8", probe::<u8>, "-0", None),
    ("u8", probe::<u8>, "-1.0", None),
    ("i8", probe::<i8>, "-128", Some("-128")),
    ("i8", probe::<i8>, "-129", None),
    ("i8", probe::<i8>, "-3.0", Some("-3")),
    ("i8", probe::<i8>, "1e2", Some("100")),
    ("u8", probe::<u8>, "true", None),
    // null and the types that take it.
    ("Option<u8>", probe::<Option<u8>>, "null", Some("None")),
    ("Option<f64>", probe::<Option<f64>>, "null", Some("None")),
    ("Option<u8>", probe::<Option<u8>>, "4", Some("Some(4)")),
    ("()", probe::<()>, "null", Some("()")),
    ("()", probe::<()>, "[1,{\"a\":2}]", Some("()")),
    ("()", probe::<()>, "[1,}", None),
    ("Unit", probe::<Unit>, "17", Some("Unit")),
    ("Unit", probe::<Unit>, "nul", None),
    ("bool", probe::<bool>, "null", None),
    ("String", probe::<String>, "null", None),
    // Literals and strings.
    ("bool", probe::<bool>, "truex", None),
    ("bool", probe::<bool>, "tru", None),
    ("String", probe::<String>, "\"\\u00e9\\ud83d\\ude00\\/\\b\\f\"", Some("\"é😀/\\u{8}\\u{c}\"")),
    ("String", probe::<String>, "\"\\ud83d\"", None),
    ("String", probe::<String>, "\"\\udc00\"", None),
    ("String", probe::<String>, "\"\\x\"", None),
    ("String", probe::<String>, "\"\\u12g4\"", None),
    ("String", probe::<String>, "\"raw \t tab\"", Some("\"raw \\t tab\"")),
    ("String", probe::<String>, "\"open", None),
    ("char", probe::<char>, "\"ß\"", Some("'ß'")),
    ("char", probe::<char>, "\"ab\"", None),
    ("char", probe::<char>, "\"\"", None),
    // Arity.
    ("(u8,u8)", probe::<(u8, u8)>, "[1,2]", Some("(1, 2)")),
    ("(u8,u8)", probe::<(u8, u8)>, "[1]", None),
    ("(u8,u8)", probe::<(u8, u8)>, "[1,2,3]", None),
    ("(u8,u8)", probe::<(u8, u8)>, "[]", None),
    ("(u8,u8)", probe::<(u8, u8)>, "{\"0\":1}", None),
    ("[u8;3]", probe::<[u8; 3]>, "[1,2]", None),
    ("[u8;3]", probe::<[u8; 3]>, "[1,2,3]", Some("[1, 2, 3]")),
    ("Pair", probe::<Pair>, "[1,\"a\"]", Some("Pair(1, \"a\")")),
    ("Pair", probe::<Pair>, "[1]", None),
    ("Pair", probe::<Pair>, "[1,\"a\",2]", None),
    ("Newtype", probe::<Newtype>, "5", Some("Newtype(5)")),
    ("Newtype", probe::<Newtype>, "[5]", None),
    ("Vec<u8>", probe::<Vec<u8>>, "[1,2,]", None),
    ("Vec<u8>", probe::<Vec<u8>>, "[1 2]", None),
    ("Vec<u8>", probe::<Vec<u8>>, " [ 1 , 2 ] ", Some("[1, 2]")),
    ("Vec<u8>", probe::<Vec<u8>>, "[1,2] x", None),
    ("Vec<u8>", probe::<Vec<u8>>, "[1,2]]", None),
    ("Vec<u8>", probe::<Vec<u8>>, "", None),
    // Enums.
    ("Shape", probe::<Shape>, "\"Unit\"", Some("Unit")),
    ("Shape", probe::<Shape>, "\"Newtype\"", None),
    ("Shape", probe::<Shape>, "\"Nope\"", None),
    ("Shape", probe::<Shape>, "{\"Unit\":null}", None),
    ("Shape", probe::<Shape>, "{\"Newtype\":3}", Some("Newtype(3)")),
    ("Shape", probe::<Shape>, "{\"Newtype\":3,\"Unit\":null}", None),
    ("Shape", probe::<Shape>, "{\"Newtype\":3,\"Newtype\":3}", None),
    ("Shape", probe::<Shape>, "{}", None),
    ("Shape", probe::<Shape>, "{\"Tuple\":[1]}", None),
    ("Shape", probe::<Shape>, "{\"Tuple\":[1,\"a\",2]}", None),
    ("Shape", probe::<Shape>, "{\"Tuple\":[1,\"a\"]}", Some("Tuple(1, \"a\")")),
    ("Shape", probe::<Shape>, "{\"Struct\":{\"y\":true,\"x\":1}}", Some("Struct { x: 1, y: Some(true) }")),
    ("Shape", probe::<Shape>, "{\"Struct\":{\"x\":1}}", None),
    ("Shape", probe::<Shape>, "{\"Struct\":[1,true]}", None),
    ("Shape", probe::<Shape>, "7", None),
    // Struct fields: order, unknown, duplicate, missing.
    ("Generic", probe::<Generic<u8, u8>>, "{\"u\":[],\"t\":1}", Some("Generic { t: 1, u: [] }")),
    ("Generic", probe::<Generic<u8, u8>>, "{\"t\":1,\"zz\":{\"deep\":[1,2]},\"u\":[2]}", Some("Generic { t: 1, u: [2] }")),
    ("Generic", probe::<Generic<u8, u8>>, "{\"t\":1,\"t\":\"ignored\",\"u\":[]}", Some("Generic { t: 1, u: [] }")),
    ("Generic", probe::<Generic<u8, u8>>, "{\"t\":\"bad\",\"t\":1,\"u\":[]}", None),
    ("Generic", probe::<Generic<u8, u8>>, "{\"t\":1}", None),
    ("Generic", probe::<Generic<u8, u8>>, "{\"t\":1,\"u\":[],}", None),
    ("Generic", probe::<Generic<u8, u8>>, "{\"t\":1,\"u\":[],\"zz\":tru}", None),
    ("Generic", probe::<Generic<u8, u8>>, "{\"t\":1 \"u\":[]}", None),
    ("Generic", probe::<Generic<u8, u8>>, "{t:1,\"u\":[]}", None),
    ("Generic", probe::<Generic<u8, u8>>, "[1,[]]", None),
    ("Generic<Option>", probe::<Generic<Option<u8>, u8>>, "{\"u\":[]}", None),
    ("Empty", probe::<Empty>, "{\"any\":1}", Some("Empty")),
    ("Empty", probe::<Empty>, "[]", None),
    // Map keys go through their JSON form.
    ("BTreeMap<u32,u8>", probe::<BTreeMap<u32, u8>>, "{\"10\":1,\"9\":2}", Some("{9: 2, 10: 1}")),
    ("BTreeMap<u32,u8>", probe::<BTreeMap<u32, u8>>, "{\"x\":1}", None),
    ("BTreeMap<u32,u8>", probe::<BTreeMap<u32, u8>>, "{\"1 \":1}", Some("{1: 1}")),
    ("BTreeMap<u32,u8>", probe::<BTreeMap<u32, u8>>, "{\"1\":1,\"1\":2}", Some("{1: 2}")),
    ("BTreeMap<String,u8>", probe::<BTreeMap<String, u8>>, "{\"7\":1,\"\\u0041\":2}", Some("{\"7\": 1, \"A\": 2}")),
    ("BTreeMap<Shape,u8>", probe::<BTreeMap<Shape, u8>>, "{\"Unit\":1,\"{\\\"Newtype\\\":2}\":3}", Some("{Unit: 1, Newtype(2): 3}")),
    ("BTreeMap<(u8,u8),u8>", probe::<BTreeMap<(u8, u8), u8>>, "{\"[1,2]\":3}", Some("{(1, 2): 3}")),
    ("HashSet<u8>", probe::<HashSet<u8>>, "[1,1]", Some("{1}")),
];

#[test]
fn edge_documents_keep_their_outcome() {
    let mut moved = Vec::new();
    for (ty, probe, doc, want) in EDGES {
        let got = probe(doc);
        if got.as_deref() != *want {
            moved.push(format!(
                "    (\"{ty}\", probe::<{ty}>, {doc:?}, {got:?}),   // pinned: {want:?}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{} edge outcomes moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// True if `doc` holds a `\uD800`–`\uDBFF` escape that no `\uDC00`–
/// `\uDFFF` escape follows: the one spelling whose outcome this change
/// moved on purpose (it was a debug-build panic or a wrong character,
/// and is `Err` now), so it stays out of the digest below.
fn has_lone_high_surrogate(doc: &str) -> bool {
    let unit = |at: usize| {
        let hex = doc.get(at..at + 6)?.strip_prefix("\\u")?;
        u32::from_str_radix(hex, 16).ok()
    };
    (0..doc.len()).any(|at| {
        matches!(unit(at), Some(0xD800..=0xDBFF)) && !matches!(unit(at + 6), Some(0xDC00..=0xDFFF))
    })
}

/// 4096 seeded zoo documents — loosely spelled, a third with a node of
/// the wrong type, a third with a character replaced — read as their
/// zoo type: the digest of every `(document, Ok(value bytes) | Err)`
/// pair, captured on the `Value`-tree implementation.
#[test]
fn random_document_outcomes_are_pinned() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut oks, mut errs) = (0, 0);
    for seed in 0..4096 {
        let (doc, check, _) = zoo_case(seed);
        if has_lone_high_surrogate(&doc) {
            continue;
        }
        let (outcome, _) = check(&doc);
        match outcome {
            Some(_) => oks += 1,
            None => errs += 1,
        }
        for b in format!("{doc}\0{outcome:?}\n").bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    assert_eq!(
        (oks, errs, format!("{digest:016x}")),
        (1686, 2409, "8a586084b2f228e2".to_string()),
        "outcomes moved"
    );
}
