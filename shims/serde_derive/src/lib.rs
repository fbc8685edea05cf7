//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline
//! serde shim.
//!
//! The build environment has no crates.io access, so `syn`/`quote` are
//! unavailable; this macro parses the derive input with a small
//! hand-rolled token walker and emits impl code as a string. It covers
//! the shapes this workspace uses: structs with named fields, tuple
//! structs (newtype and wider), unit structs, and enums whose variants
//! are unit, tuple, or struct-like — all optionally generic over type
//! parameters (each type parameter gets the respective trait bound).
//!
//! The emitted bodies **stream** (see the `serde` shim's crate docs):
//!
//! * `serialize(&self, out: &mut String)` pushes the punctuation and
//!   field names as string literals and calls `serialize` on each field
//!   in declaration order — no intermediate value, no allocation of its
//!   own.
//! * `deserialize(r: &mut json::Reader)` pulls tokens. A struct keeps one
//!   `Option` slot per field and loops over the object's keys, so keys may
//!   come in any order; an unknown key's value is `skip_value`d (validated,
//!   not built); the first of a duplicated key wins and later ones are
//!   skipped; a slot still empty at the end is `missing field 'x'`, a bad
//!   value is `field 'x': …`. An enum is `"Unit"` or an object of exactly
//!   one `"Variant": payload` entry. A tuple struct or variant is an array
//!   of exactly its arity. A unit struct accepts (and skips) any value.
//!
//! Wire conventions match serde_json's defaults; nesting is bounded by
//! the reader's depth limit, not by anything emitted here.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    emit(gen_serialize(&item))
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    emit(gen_deserialize(&item))
}

fn emit(code: String) -> TokenStream {
    code.parse()
        .unwrap_or_else(|e| panic!("serde shim derive produced invalid code: {e}\n{code}"))
}

// ---------------------------------------------------------------------
// A minimal model of the derive input.
// ---------------------------------------------------------------------

struct Item {
    name: String,
    /// Raw generic parameter declarations, e.g. `["T: Clone", "'a"]`.
    params: Vec<Param>,
    shape: Shape,
}

struct Param {
    /// The bare name used in the `for Name<...>` position (`T`, `'a`).
    name: String,
    /// The declaration with any inline bounds (`T: Clone`).
    decl: String,
    /// Whether this is a type parameter (gets the trait bound).
    is_type: bool,
}

enum Shape {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

// ---------------------------------------------------------------------
// Token walking.
// ---------------------------------------------------------------------

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c)
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == word)
    }

    /// Skips outer attributes (`#[...]`) and doc comments.
    fn skip_attrs(&mut self) {
        while self.at_punct('#') {
            self.next();
            // Optional `!` for inner attributes (not expected, but safe).
            if self.at_punct('!') {
                self.next();
            }
            self.next(); // the [...] group
        }
    }

    /// Skips `pub`, `pub(crate)`, `pub(in ...)`.
    fn skip_vis(&mut self) {
        if self.at_ident("pub") {
            self.next();
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.next();
            }
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut c = Cursor::new(input);
    c.skip_attrs();
    c.skip_vis();

    let kind = match c.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    let name = match c.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };

    let params = if c.at_punct('<') {
        parse_generics(&mut c)
    } else {
        Vec::new()
    };

    // Skip a `where` clause if present (none expected in this workspace).
    if c.at_ident("where") {
        while let Some(t) = c.peek() {
            if matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Brace) {
                break;
            }
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ';') {
                break;
            }
            c.next();
        }
    }

    let shape = match kind.as_str() {
        "struct" => match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        },
        "enum" => match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: expected enum body, got {other:?}"),
        },
        other => panic!("serde shim derive: cannot derive for '{other}'"),
    };

    Item {
        name,
        params,
        shape,
    }
}

/// Parses `<...>` generic parameters; the cursor sits on the `<`.
fn parse_generics(c: &mut Cursor) -> Vec<Param> {
    c.next(); // consume '<'
    let mut depth = 1usize;
    let mut segments: Vec<Vec<TokenTree>> = vec![Vec::new()];
    while depth > 0 {
        let t = c
            .next()
            .unwrap_or_else(|| panic!("serde shim derive: unterminated generics"));
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                segments.last_mut().unwrap().push(t);
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth > 0 {
                    segments.last_mut().unwrap().push(t);
                }
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                segments.push(Vec::new());
            }
            _ => segments.last_mut().unwrap().push(t),
        }
    }
    segments
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            // Strip a `= default` suffix if present.
            let mut decl_toks: Vec<TokenTree> = Vec::new();
            let mut d = 0usize;
            for t in &seg {
                match t {
                    TokenTree::Punct(p) if p.as_char() == '<' => d += 1,
                    TokenTree::Punct(p) if p.as_char() == '>' => d = d.saturating_sub(1),
                    TokenTree::Punct(p) if p.as_char() == '=' && d == 0 => break,
                    _ => {}
                }
                decl_toks.push(t.clone());
            }
            let decl = tokens_to_string(&decl_toks);
            match &seg[0] {
                TokenTree::Punct(p) if p.as_char() == '\'' => {
                    // Lifetime: name is `'ident`.
                    let id = match seg.get(1) {
                        Some(TokenTree::Ident(i)) => i.to_string(),
                        _ => panic!("serde shim derive: malformed lifetime parameter"),
                    };
                    Param {
                        name: format!("'{id}"),
                        decl,
                        is_type: false,
                    }
                }
                TokenTree::Ident(i) if i.to_string() == "const" => {
                    let id = match seg.get(1) {
                        Some(TokenTree::Ident(i)) => i.to_string(),
                        _ => panic!("serde shim derive: malformed const parameter"),
                    };
                    Param {
                        name: id,
                        decl,
                        is_type: false,
                    }
                }
                TokenTree::Ident(i) => Param {
                    name: i.to_string(),
                    decl,
                    is_type: true,
                },
                other => panic!("serde shim derive: unsupported generic parameter {other:?}"),
            }
        })
        .collect()
}

/// Parses `name: Type, ...` named fields, skipping attributes and
/// visibility; types are not needed (codegen relies on inference).
fn parse_named_fields(ts: TokenStream) -> Vec<String> {
    let mut c = Cursor::new(ts);
    let mut fields = Vec::new();
    loop {
        c.skip_attrs();
        c.skip_vis();
        let name = match c.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        fields.push(name);
        // Expect ':' then the type, up to a top-level ','.
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected ':', got {other:?}"),
        }
        let mut depth = 0usize;
        loop {
            match c.peek() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                    depth += 1;
                    c.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    depth = depth.saturating_sub(1);
                    c.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => {
                    c.next();
                    break;
                }
                _ => {
                    c.next();
                }
            }
        }
    }
    fields
}

/// Counts top-level comma-separated fields of a tuple struct/variant.
fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut c = Cursor::new(ts);
    let mut count = 0usize;
    let mut depth = 0usize;
    let mut saw_tokens = false;
    loop {
        // Skip per-field attributes/visibility at field starts.
        if depth == 0 && !saw_tokens {
            c.skip_attrs();
            c.skip_vis();
        }
        match c.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                depth += 1;
                saw_tokens = true;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                depth = depth.saturating_sub(1);
                saw_tokens = true;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => {
                if saw_tokens {
                    count += 1;
                }
                saw_tokens = false;
            }
            Some(_) => saw_tokens = true,
        }
    }
    if saw_tokens {
        count += 1;
    }
    count
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let mut c = Cursor::new(ts);
    let mut variants = Vec::new();
    loop {
        c.skip_attrs();
        let name = match c.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        let shape = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                c.next();
                VariantShape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                c.next();
                VariantShape::Struct(fields)
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the comma.
        if c.at_punct('=') {
            while let Some(t) = c.peek() {
                if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                let _ = t;
                c.next();
            }
        }
        if c.at_punct(',') {
            c.next();
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn tokens_to_string(toks: &[TokenTree]) -> String {
    let mut s = String::new();
    for t in toks {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&t.to_string());
    }
    s
}

// ---------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------

/// `impl<...bounded params...> Trait for Name<...param names...>`.
fn impl_header(item: &Item, trait_path: &str) -> String {
    let mut header = String::from("impl");
    if !item.params.is_empty() {
        header.push('<');
        for (i, p) in item.params.iter().enumerate() {
            if i > 0 {
                header.push_str(", ");
            }
            header.push_str(&p.decl);
            if p.is_type {
                if p.decl.contains(':') {
                    header.push_str(&format!(" + {trait_path}"));
                } else {
                    header.push_str(&format!(": {trait_path}"));
                }
            }
        }
        header.push('>');
    }
    header.push_str(&format!(" {trait_path} for {}", item.name));
    if !item.params.is_empty() {
        header.push('<');
        for (i, p) in item.params.iter().enumerate() {
            if i > 0 {
                header.push_str(", ");
            }
            header.push_str(&p.name);
        }
        header.push('>');
    }
    header
}

/// A Rust string literal spelling `text`.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

/// Statements appending `{"f0":<f0>,"f1":<f1>}`; `access(f)` is the
/// expression (a reference) for field `f`.
fn ser_named(fields: &[String], access: impl Fn(&str) -> String) -> String {
    let mut code = String::new();
    for (i, f) in fields.iter().enumerate() {
        let lead = if i == 0 { '{' } else { ',' };
        code.push_str(&format!(
            "__out.push_str({}); ::serde::Serialize::serialize({}, __out); ",
            lit(&format!("{lead}\"{f}\":")),
            access(f)
        ));
    }
    let close = if fields.is_empty() { "{}" } else { "}" };
    code.push_str(&format!("__out.push_str({});", lit(close)));
    code
}

/// Statements appending `[<0>,<1>]`; `access(i)` is the expression (a
/// reference) for position `i`.
fn ser_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    let mut code = String::new();
    for i in 0..n {
        let lead = if i == 0 { '[' } else { ',' };
        code.push_str(&format!(
            "__out.push('{lead}'); ::serde::Serialize::serialize({}, __out); ",
            access(i)
        ));
    }
    let close = if n == 0 { "[]" } else { "]" };
    code.push_str(&format!("__out.push_str({});", lit(close)));
    code
}

fn gen_serialize(item: &Item) -> String {
    let body = match &item.shape {
        Shape::Named(fields) => ser_named(fields, |f| format!("&self.{f}")),
        Shape::Tuple(1) => "::serde::Serialize::serialize(&self.0, __out);".to_string(),
        Shape::Tuple(n) => ser_tuple(*n, |i| format!("&self.{i}")),
        Shape::Unit => "__out.push_str(\"null\");".to_string(),
        Shape::Enum(variants) => {
            let ty = &item.name;
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let open = lit(&format!("{{\"{vn}\":"));
                    let (pattern, payload) = match &v.shape {
                        VariantShape::Unit => {
                            return format!(
                                "{ty}::{vn} => __out.push_str({}),",
                                lit(&format!("\"{vn}\""))
                            )
                        }
                        VariantShape::Tuple(1) => (
                            "(__f0)".to_string(),
                            "::serde::Serialize::serialize(__f0, __out);".to_string(),
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            (
                                format!("({})", binds.join(", ")),
                                ser_tuple(*n, |i| format!("__f{i}")),
                            )
                        }
                        VariantShape::Struct(fields) => (
                            format!("{{ {} }}", fields.join(", ")),
                            ser_named(fields, str::to_string),
                        ),
                    };
                    format!(
                        "{ty}::{vn}{pattern} => {{ __out.push_str({open}); {payload} __out.push('}}'); }}"
                    )
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived]\n{} {{\n    fn serialize(&self, __out: &mut ::std::string::String) {{\n        {body}\n    }}\n}}\n",
        impl_header(item, "::serde::Serialize")
    )
}

const ERR: &str = "::std::result::Result::Err";
const OK: &str = "::std::result::Result::Ok";
const DE: &str = "::serde::Deserialize::deserialize(__r)";

/// A block expression reading `{...}` into `ctor {{ fields }}`: one
/// `Option` slot per field, keys in any order, unknown keys skipped,
/// the first of a duplicated key kept, every field required.
fn de_named(ctor: &str, fields: &[String]) -> String {
    let mut code = format!(
        "{{ let __kind = __r.kind()?; \
         if __kind != ::serde::json::Kind::Object {{ \
         return {ERR}(::serde::json::Error::expected({}, __kind)); }} ",
        lit(&format!("object for {ctor}"))
    );
    for i in 0..fields.len() {
        code.push_str(&format!("let mut __f{i} = ::std::option::Option::None; "));
    }
    code.push_str("let mut __more = __r.begin_object()?; while __more { match &*__r.key()? { ");
    for (i, f) in fields.iter().enumerate() {
        let key = lit(f);
        code.push_str(&format!(
            "{key} if __f{i}.is_none() => __f{i} = ::std::option::Option::Some(\
             {DE}.map_err(|__e| ::serde::json::Error::field({key}, __e))?), "
        ));
    }
    code.push_str("_ => __r.skip_value()?, } __more = __r.next_entry()?; } ");
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{f}: match __f{i} {{ ::std::option::Option::Some(__v) => __v, \
                 ::std::option::Option::None => \
                 return {ERR}(::serde::json::Error::missing_field({})) }}",
                lit(f)
            )
        })
        .collect();
    code.push_str(&format!("{ctor} {{ {} }} }}", inits.join(", ")));
    code
}

/// A block expression reading `[...]` of exactly `n` items into
/// `ctor(items)`.
fn de_tuple(ctor: &str, arity_msg: &str, n: usize) -> String {
    let wrong = format!(
        "return {ERR}(::serde::json::Error::msg({}));",
        lit(arity_msg)
    );
    let mut code = format!(
        "{{ let __kind = __r.kind()?; \
         if __kind != ::serde::json::Kind::Array {{ \
         return {ERR}(::serde::json::Error::expected({}, __kind)); }} \
         let mut __more = __r.begin_array()?; ",
        lit(&format!("array for {ctor}"))
    );
    for i in 0..n {
        code.push_str(&format!(
            "if !__more {{ {wrong} }} let __f{i} = {DE}?; __more = __r.next_element()?; "
        ));
    }
    let items: Vec<String> = (0..n).map(|i| format!("__f{i}")).collect();
    code.push_str(&format!(
        "if __more {{ {wrong} }} {ctor}({}) }}",
        items.join(", ")
    ));
    code
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => format!("{OK}({})", de_named(name, fields)),
        Shape::Tuple(1) => format!("{OK}({name}({DE}?))"),
        Shape::Tuple(n) => format!(
            "{OK}({})",
            de_tuple(name, &format!("wrong tuple arity for {name}"), *n)
        ),
        Shape::Unit => format!("__r.skip_value()?; {OK}({name})"),
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                let tag = lit(vn);
                match &v.shape {
                    VariantShape::Unit => unit_arms.push_str(&format!("{tag} => {OK}({ctor}), ")),
                    VariantShape::Tuple(1) => {
                        data_arms.push_str(&format!("{tag} => {OK}({ctor}({DE}?)), "))
                    }
                    VariantShape::Tuple(n) => data_arms.push_str(&format!(
                        "{tag} => {OK}({}), ",
                        de_tuple(&ctor, &format!("wrong arity for {ctor}"), *n)
                    )),
                    VariantShape::Struct(fields) => {
                        data_arms.push_str(&format!("{tag} => {OK}({}), ", de_named(&ctor, fields)))
                    }
                }
            }
            let unknown = format!(
                "{ERR}(::serde::json::Error::unknown_variant({}, __other))",
                lit(name)
            );
            let not_enum = format!(
                "{ERR}(::serde::json::Error::expected({}, ::serde::json::Kind::Object))",
                lit(&format!("enum {name}"))
            );
            // `"Unit"`, or an object of exactly one `"Variant": payload`.
            format!(
                "match __r.kind()? {{\n\
                 ::serde::json::Kind::String => match &*__r.string()? {{ {unit_arms}__other => {unknown} }},\n\
                 ::serde::json::Kind::Object => {{\n\
                 if !__r.begin_object()? {{ return {not_enum}; }}\n\
                 let __value: Self = match &*__r.key()? {{ {data_arms}__other => {unknown} }}?;\n\
                 if __r.next_entry()? {{ return {not_enum}; }}\n\
                 {OK}(__value)\n\
                 }}\n\
                 __other => {ERR}(::serde::json::Error::expected({}, __other)),\n\
                 }}",
                lit(&format!("enum {name}"))
            )
        }
    };
    format!(
        "#[automatically_derived]\n{} {{\n    #[allow(unused_mut)]\n    fn deserialize(__r: &mut ::serde::json::Reader<'_>) -> ::std::result::Result<Self, ::serde::json::Error> {{\n        {body}\n    }}\n}}\n",
        impl_header(item, "::serde::Deserialize")
    )
}
