//! The derive zoo shared by the shim's test suites: one type per shape
//! the derive macros cover, two populated fixtures, the exact JSON bytes
//! the `Value`-tree implementation wrote for them (captured on the
//! commit *before* the traits started streaming), and seeded generators
//! of documents around them. Only API that exists on both sides of that
//! commit is used here, so the suites that pin outcomes can be run on
//! the old implementation to capture them.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use proptest::{Arbitrary, TestRng};
use serde::de::DeserializeOwned;
use serde::json::{Num, Value};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Named {
    pub a: u8,
    pub b: String,
    pub c: Option<i32>,
    pub d: Vec<u16>,
    pub e: f64,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pair(pub u32, pub String);

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Newtype(pub u64);

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Unit;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Empty {}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Shape {
    Unit,
    Newtype(u32),
    Tuple(u8, String),
    Struct { x: i64, y: Option<bool> },
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Generic<T, U: Clone> {
    pub t: T,
    pub u: Vec<U>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Wide {
    pub big: u128,
    pub neg: i128,
    pub nan: f64,
    pub whole: f64,
    pub single: f32,
    pub ch: char,
    pub unit: (),
    pub tup: (u8, i8, String),
    pub arr: [u8; 3],
    pub map: BTreeMap<u32, String>,
    pub by_shape: BTreeMap<Shape, bool>,
    pub by_pair: BTreeMap<(u8, Newtype), u8>,
    pub set: HashSet<String>,
    pub ids: HashSet<u32>,
    pub hmap: HashMap<String, u8>,
    pub bset: BTreeSet<i16>,
    pub dq: VecDeque<u8>,
    pub bx: Box<Newtype>,
    pub none: Option<String>,
    pub shapes: Vec<Shape>,
    pub generic: Generic<Pair, Option<Unit>>,
    pub empty: Empty,
}

pub fn named() -> Named {
    Named {
        a: 7,
        b: "quote \" slash \\ tab \t nl \n bell \u{7} é 😀".into(),
        c: Some(-3),
        d: vec![0, 1, 65535],
        e: -0.5,
    }
}

pub fn wide() -> Wide {
    Wide {
        big: u128::MAX,
        neg: i128::MIN,
        nan: f64::NAN,
        whole: 3.0,
        single: 0.1,
        ch: 'ß',
        unit: (),
        tup: (1, -1, "t".into()),
        arr: [1, 2, 3],
        map: BTreeMap::from([(10, "ten".into()), (9, "nine".into())]),
        by_shape: BTreeMap::from([
            (Shape::Unit, true),
            (Shape::Newtype(4), false),
            (Shape::Tuple(1, "k\"".into()), true),
        ]),
        by_pair: BTreeMap::from([((1, Newtype(2)), 3)]),
        set: HashSet::from(["b".into(), "a\"".into(), "a#".into(), "".into()]),
        ids: HashSet::from([10, 9, 100]),
        hmap: HashMap::from([("z".into(), 1), ("a\"".into(), 2), ("a#".into(), 3)]),
        bset: BTreeSet::from([-2, 5, 0]),
        dq: VecDeque::from([4, 5]),
        bx: Box::new(Newtype(u64::MAX)),
        none: None,
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(1),
            Shape::Tuple(2, "two".into()),
            Shape::Struct { x: -9, y: None },
        ],
        generic: Generic {
            t: Pair(5, "five".into()),
            u: vec![None, None],
        },
        empty: Empty {},
    }
}

pub const NAMED_JSON: &str = "{\"a\":7,\"b\":\"quote \\\" slash \\\\ tab \\t nl \\n bell \\u0007 é 😀\",\"c\":-3,\"d\":[0,1,65535],\"e\":-0.5}";

pub const WIDE_JSON: &str = "{\"big\":340282366920938463463374607431768211455,\"neg\":-170141183460469231731687303715884105728,\"nan\":null,\"whole\":3.0,\"single\":0.10000000149011612,\"ch\":\"ß\",\"unit\":null,\"tup\":[1,-1,\"t\"],\"arr\":[1,2,3],\"map\":{\"9\":\"nine\",\"10\":\"ten\"},\"by_shape\":{\"Unit\":true,\"{\\\"Newtype\\\":4}\":false,\"{\\\"Tuple\\\":[1,\\\"k\\\\\\\"\\\"]}\":true},\"by_pair\":{\"[1,2]\":3},\"set\":[\"\",\"a#\",\"a\\\"\",\"b\"],\"ids\":[10,100,9],\"hmap\":{\"a\\\"\":2,\"a#\":3,\"z\":1},\"bset\":[-2,0,5],\"dq\":[4,5],\"bx\":18446744073709551615,\"none\":null,\"shapes\":[\"Unit\",{\"Newtype\":1},{\"Tuple\":[2,\"two\"]},{\"Struct\":{\"x\":-9,\"y\":null}}],\"generic\":{\"t\":[5,\"five\"],\"u\":[null,null]},\"empty\":{}}";

pub const WIDE_PRETTY_HEAD: &str = "{\n  \"big\": 340282366920938463463374607431768211455,\n  \"neg\": -170141183460469231731687303715884105728,\n  \"nan\": null,\n  \"whole\": 3.0,\n  \"single\": 0.10000000149011612,\n  \"ch\": \"ß\",\n  \"unit\": null,\n  \"tup\": [\n    1,\n    -1,\n    \"t\"\n  ],";

// ---------------------------------------------------------------------
// Generators (driven by a seed: the proptest shim has no recursive
// strategies).
// ---------------------------------------------------------------------

pub fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

pub fn gen_string(rng: &mut TestRng) -> String {
    (0..rng.below(6))
        .map(|_| {
            pick(
                rng,
                &[
                    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}',
                    'é', 'ß', '\u{fffd}', '😀', '{', ']', ':', ',',
                ],
            )
        })
        .collect()
}

/// A finite number that survives `to_string` → `parse` as itself.
pub fn gen_num(rng: &mut TestRng) -> Num {
    match rng.below(6) {
        0 => Num::Pos(u128::from(rng.below(1000))),
        1 => Num::Pos(u128::from(rng.next_u64()) << rng.below(65)),
        2 => Num::Neg(-1 - i128::from(rng.below(1000))),
        3 => Num::Neg(-1 - (i128::from(rng.next_u64()) << rng.below(63))),
        4 => Num::Float(rng.below(2000) as f64 - 1000.0),
        _ => Num::Float(f64::arbitrary(rng)),
    }
}

pub fn gen_value(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Num(gen_num(rng)),
        3 => Value::Str(gen_string(rng)),
        4 => Value::Array(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

pub fn ws(rng: &mut TestRng, out: &mut String) {
    for _ in 0..rng.below(3).saturating_sub(1) {
        out.push(pick(rng, &[' ', '\n', '\t', '\r']));
    }
}

/// Writes `v` the way a foreign writer might: stray whitespace, `\u`
/// escapes (surrogate pairs included) where none are needed, `\/`,
/// exponents, whole floats for integers.
pub fn write_loose(rng: &mut TestRng, v: &Value, out: &mut String) {
    ws(rng, out);
    match v {
        Value::Str(s) => write_loose_string(rng, s, out),
        Value::Num(Num::Pos(p)) if *p < 1000 && rng.below(4) == 0 => {
            let spelling = pick(rng, &["{}.0", "{}e0", "{}.00E+0", "00{}"]);
            out.push_str(&spelling.replace("{}", &p.to_string()));
        }
        Value::Num(Num::Float(f)) if rng.below(3) == 0 => out.push_str(&format!("{f:e}")),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_loose(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                write_loose_string(rng, k, out);
                ws(rng, out);
                out.push(':');
                write_loose(rng, item, out);
            }
            ws(rng, out);
            out.push('}');
        }
        plain => out.push_str(&plain.to_string()),
    }
    ws(rng, out);
}

pub fn write_loose_string(rng: &mut TestRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '/' if rng.below(2) == 0 => out.push_str("\\/"),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            // Raw control characters are let through, as they always were.
            c if rng.below(4) > 0 => out.push(c),
            c => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
}

pub fn loose(rng: &mut TestRng, v: &Value) -> String {
    let mut out = String::new();
    write_loose(rng, v, &mut out);
    out
}

/// Replaces one character of `doc` (staying valid UTF-8, which `&str`
/// input always is).
pub fn mutate(rng: &mut TestRng, doc: &str) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    if chars.is_empty() {
        return "[".into();
    }
    let at = rng.below(chars.len() as u64) as usize;
    chars[at] = pick(
        rng,
        &[
            '"', '\\', '{', '}', '[', ']', ',', ':', ' ', '-', '+', '.', 'e', 'E', '0', '9', 'n',
            't', 'f', 'u', 'l', 'a', '\u{1}', 'é', '😀',
        ],
    );
    chars.into_iter().collect()
}

/// Replaces one randomly chosen node of `v` with `with`.
pub fn graft(rng: &mut TestRng, v: &mut Value, with: Value) {
    match v {
        Value::Array(items) if !items.is_empty() && rng.below(4) > 0 => {
            let at = rng.below(items.len() as u64) as usize;
            graft(rng, &mut items[at], with);
        }
        Value::Object(entries) if !entries.is_empty() && rng.below(4) > 0 => {
            let at = rng.below(entries.len() as u64) as usize;
            graft(rng, &mut entries[at].1, with);
        }
        node => *node = with,
    }
}

pub fn any_node(v: &Value, pred: &impl Fn(&Value) -> bool) -> bool {
    pred(v)
        || match v {
            Value::Array(items) => items.iter().any(|i| any_node(i, pred)),
            Value::Object(entries) => entries.iter().any(|(_, i)| any_node(i, pred)),
            _ => false,
        }
}

/// A typed read and the same read routed through a tree: `Some(bytes of
/// the value)` or `None` for `Err`, both ways.
pub fn direct_and_via_tree<T: Serialize + DeserializeOwned>(
    doc: &str,
) -> (Option<String>, Option<String>) {
    let render = |r: Result<T, _>| r.ok().map(|v| serde_json::to_string(&v).unwrap());
    let direct = render(serde_json::from_str::<T>(doc));
    let via = serde_json::from_str::<Value>(doc)
        .and_then(|tree| serde_json::from_str::<T>(&tree.to_string()));
    (direct, render(via))
}

pub type Check = fn(&str) -> (Option<String>, Option<String>);

pub fn zoo_documents() -> Vec<(Value, Check)> {
    fn doc<T: Serialize + DeserializeOwned>(v: &T) -> (Value, Check) {
        (serde_json::to_value(v).unwrap(), direct_and_via_tree::<T>)
    }
    let w = wide();
    vec![
        doc(&named()),
        doc(&w),
        doc(&w.shapes),
        doc(&w.generic),
        doc(&w.map),
        doc(&w.by_shape),
        doc(&w.by_pair),
        doc(&w.hmap),
        doc(&(w.tup.clone(), w.arr, w.ch, w.unit, Unit, w.bx.clone())),
        doc(&BTreeMap::from([(-1i8, Some(1.5f32)), (7, None)])),
    ]
}

/// One zoo document in a foreign spelling, chosen and damaged by `seed`:
/// a third as written, a third with one node swapped for a random value
/// (type errors), a third with one character replaced (syntax errors and
/// near misses). Returns the text, the typed read to try on it, and
/// whether it was damaged.
pub fn zoo_case(seed: u64) -> (String, Check, bool) {
    let rng = &mut TestRng::new(seed);
    let docs = zoo_documents();
    let (mut tree, check) = docs[rng.below(docs.len() as u64) as usize].clone();
    let damage = rng.below(3);
    if damage == 1 {
        let with = gen_value(rng, 2);
        graft(rng, &mut tree, with);
    }
    let mut doc = loose(rng, &tree);
    if damage == 2 {
        doc = mutate(rng, &doc);
    }
    (doc, check, damage > 0)
}
