//! Minimal `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros for the
//! vendored in-repo `serde` shim.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! its own tiny serde implementation. This proc-macro crate supports exactly
//! the type shapes the repository uses:
//!
//! * structs with named fields,
//! * newtype tuple structs (one field),
//! * enums whose variants are unit or newtype.
//!
//! Generics, struct variants, and `#[serde(...)]` attributes are not
//! supported and produce a compile error pointing here.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Data {
    /// Named-field struct: field names in declaration order.
    NamedStruct(Vec<String>),
    /// Tuple struct with `n` fields (only `n == 1` is supported).
    TupleStruct(usize),
    /// Enum: `(variant name, has newtype payload)`.
    Enum(Vec<(String, bool)>),
}

struct Input {
    name: String,
    data: Data,
}

/// Skips one attribute body (the `[...]` group after a `#`).
fn skip_attr(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '!' {
            iter.next();
        }
    }
    if let Some(TokenTree::Group(_)) = iter.peek() {
        iter.next();
    }
}

fn parse_named_fields(group: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = group.into_iter().peekable();
    loop {
        // Skip attributes and visibility.
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                    skip_attr(&mut iter);
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    iter.next();
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            iter.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(name)) = iter.next() else {
            break;
        };
        fields.push(name.to_string());
        // Expect ':' then the type; skip tokens until a comma at angle depth 0.
        let mut angle_depth = 0i32;
        for tt in iter.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    fields
}

fn parse_enum_variants(group: TokenStream) -> Vec<(String, bool)> {
    let mut variants = Vec::new();
    let mut iter = group.into_iter().peekable();
    loop {
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                    skip_attr(&mut iter);
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(name)) = iter.next() else {
            break;
        };
        let mut payload = false;
        match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                payload = true;
                iter.next();
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!("serde shim: struct enum variants are not supported ({name})");
            }
            _ => {}
        }
        variants.push((name.to_string(), payload));
        // Skip a discriminant or trailing tokens until the comma.
        for tt in iter.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();
    let mut kind = String::new();
    while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => skip_attr(&mut iter),
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    kind = s;
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(TokenTree::Ident(name)) = iter.next() else {
        panic!("serde shim: expected a type name after `{kind}`");
    };
    let name = name.to_string();
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("serde shim: generic types are not supported ({name})");
        }
    }
    let Some(TokenTree::Group(body)) = iter.next() else {
        panic!("serde shim: expected a body for {name}");
    };
    let data = match (kind.as_str(), body.delimiter()) {
        ("struct", Delimiter::Brace) => Data::NamedStruct(parse_named_fields(body.stream())),
        ("struct", Delimiter::Parenthesis) => {
            // Count top-level comma-separated fields (at angle depth 0).
            let mut angle = 0i32;
            let mut fields = 1usize;
            let mut any = false;
            for tt in body.stream() {
                any = true;
                if let TokenTree::Punct(p) = tt {
                    match p.as_char() {
                        '<' => angle += 1,
                        '>' => angle -= 1,
                        ',' if angle == 0 => fields += 1,
                        _ => {}
                    }
                }
            }
            Data::TupleStruct(if any { fields } else { 0 })
        }
        ("enum", Delimiter::Brace) => Data::Enum(parse_enum_variants(body.stream())),
        _ => panic!("serde shim: unsupported shape for {name}"),
    };
    Input { name, data }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input { name, data } = parse_input(input);
    let body = match &data {
        Data::NamedStruct(fields) => {
            let mut entries = String::new();
            for f in fields {
                entries.push_str(&format!(
                    "(::std::string::String::from(\"{f}\"), \
                     ::serde::Serialize::to_value(&self.{f})),"
                ));
            }
            format!("::serde::Value::Map(::std::vec![{entries}])")
        }
        Data::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Data::TupleStruct(n) => {
            panic!("serde shim: tuple struct {name} has {n} fields; only newtypes are supported")
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            for (v, payload) in variants {
                if *payload {
                    arms.push_str(&format!(
                        "{name}::{v}(__x) => ::serde::Value::Map(::std::vec![\
                         (::std::string::String::from(\"{v}\"), \
                         ::serde::Serialize::to_value(__x))]),"
                    ));
                } else {
                    arms.push_str(&format!(
                        "{name}::{v} => \
                         ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
                    ));
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .unwrap()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input { name, data } = parse_input(input);
    let body = match &data {
        Data::NamedStruct(fields) => {
            let mut entries = String::new();
            for f in fields {
                entries.push_str(&format!(
                    "{f}: ::serde::__field(__v, \"{name}\", \"{f}\")?,"
                ));
            }
            format!("::std::result::Result::Ok({name} {{ {entries} }})")
        }
        Data::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Data::TupleStruct(n) => {
            panic!("serde shim: tuple struct {name} has {n} fields; only newtypes are supported")
        }
        Data::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for (v, payload) in variants {
                if *payload {
                    payload_arms.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::from_value(&__m[0].1)?)),"
                    ));
                } else {
                    unit_arms.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}),"
                    ));
                }
            }
            format!(
                "match __v {{\n\
                   ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                     {unit_arms}\n\
                     __other => ::std::result::Result::Err(::serde::Error::custom(\
                       ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                   }},\n\
                   ::serde::Value::Map(__m) if __m.len() == 1 => match __m[0].0.as_str() {{\n\
                     {payload_arms}\n\
                     __other => ::std::result::Result::Err(::serde::Error::custom(\
                       ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                   }},\n\
                   _ => ::std::result::Result::Err(::serde::Error::custom(\
                     \"expected a variant of {name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) \
             -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
    .parse()
    .unwrap()
}
