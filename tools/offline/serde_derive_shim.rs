//! Offline stand-in for `serde_derive` (see tools/offline/README.md).
//!
//! A `#[derive(Serialize)]` that handles exactly the shapes this workspace
//! uses — non-generic structs (named, tuple, unit) and enums (unit,
//! newtype, tuple, struct variants), plus `#[serde(rename = "…")]` on
//! fields, `#[serde(skip)]` on named struct fields and
//! `#[serde(untagged)]` on enums of newtype variants. Anything
//! else panics loudly at expansion time rather than miscompiling.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    let item_attrs = collect_attrs(&tokens, &mut i);
    let untagged = item_attrs.iter().any(|a| a.contains("untagged"));
    skip_visibility(&tokens, &mut i);

    let kind = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    let (impl_generics, ty_generics) = parse_generics(&tokens, &mut i, &name);

    let body = match kind.as_str() {
        "struct" => gen_struct(&name, tokens.get(i)),
        "enum" => gen_enum(&name, tokens.get(i), untagged),
        other => panic!("offline serde derive: unsupported item kind `{other}`"),
    };

    let out = format!(
        "impl{impl_generics} serde::ser::Serialize for {name}{ty_generics} {{\n\
             fn serialize<__S: serde::ser::Serializer>(&self, __serializer: __S)\n\
                 -> std::result::Result<__S::Ok, __S::Error> {{\n\
                 #[allow(unused_imports)]\n\
                 use serde::ser::{{SerializeStruct as _, SerializeStructVariant as _,\n\
                     SerializeTupleStruct as _, SerializeTupleVariant as _}};\n\
                 {body}\n\
             }}\n\
         }}\n"
    );
    out.parse().expect("offline serde derive: generated code failed to parse")
}

/// Parse an optional `<'a, T, U: Clone>` generics group after the type
/// name. Returns `(impl_generics, ty_generics)`: the impl side carries any
/// declared bounds plus `serde::ser::Serialize` on every type parameter;
/// the type side is just the parameter names. Const parameters and
/// defaults are rejected — nothing in the workspace derives on them.
fn parse_generics(tokens: &[TokenTree], i: &mut usize, name: &str) -> (String, String) {
    if !matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return (String::new(), String::new());
    }
    *i += 1;
    let mut impl_side = Vec::new();
    let mut ty_side = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                *i += 1;
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => *i += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '\'' => {
                *i += 1;
                let lt = format!("'{}", expect_ident(tokens, i));
                // Lifetime bounds (`'a: 'b`) would need the same skip as
                // type bounds; none exist in the workspace.
                impl_side.push(lt.clone());
                ty_side.push(lt);
            }
            Some(TokenTree::Ident(_)) => {
                let param = expect_ident(tokens, i);
                let mut bounds = String::new();
                if matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
                    *i += 1;
                    let mut depth = 0i32;
                    while let Some(tt) = tokens.get(*i) {
                        match tt {
                            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                            TokenTree::Punct(p) if p.as_char() == '>' && depth > 0 => depth -= 1,
                            TokenTree::Punct(p)
                                if depth == 0 && (p.as_char() == ',' || p.as_char() == '>') =>
                            {
                                break;
                            }
                            _ => {}
                        }
                        bounds += &tt.to_string();
                        bounds.push(' ');
                        *i += 1;
                    }
                    bounds = format!("{} + ", bounds.trim());
                }
                impl_side.push(format!("{param}: {bounds}serde::ser::Serialize"));
                ty_side.push(param);
            }
            other => panic!("offline serde derive: `{name}` has unsupported generics ({other:?})"),
        }
    }
    (
        format!("<{}>", impl_side.join(", ")),
        format!("<{}>", ty_side.join(", ")),
    )
}

/// Collect the string forms of leading `#[…]` attribute groups.
fn collect_attrs(tokens: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut attrs = Vec::new();
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
            attrs.push(g.to_string());
            *i += 2;
        } else {
            break;
        }
    }
    attrs
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("offline serde derive: expected identifier, got {other:?}"),
    }
}

/// `#[serde(rename = "x")]` → `Some("x")`, scanning a list of attr strings.
fn rename_of(attrs: &[String]) -> Option<String> {
    for a in attrs {
        if let Some(pos) = a.find("rename") {
            let rest = &a[pos..];
            let q1 = rest.find('"')?;
            let q2 = rest[q1 + 1..].find('"')?;
            return Some(rest[q1 + 1..q1 + 1 + q2].to_string());
        }
    }
    None
}

/// Split a brace/paren body on top-level commas (angle-bracket aware, so
/// `BTreeMap<String, Vec<i32>>` stays one chunk).
fn split_top_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle: i32 = 0;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle += 1;
                cur.push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle -= 1;
                cur.push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(tt),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Named field chunk → `(field_ident, serialized_key)`; `None` for a
/// `#[serde(skip)]` field.
fn parse_named_field(chunk: &[TokenTree]) -> Option<(String, String)> {
    let mut i = 0;
    let attrs = collect_attrs(chunk, &mut i);
    skip_visibility(chunk, &mut i);
    let field = expect_ident(chunk, &mut i);
    match chunk.get(i) {
        Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
        other => panic!("offline serde derive: expected `:` after field, got {other:?}"),
    }
    if attrs.iter().any(|a| a.replace(' ', "") == "[serde(skip)]") {
        return None;
    }
    let key = rename_of(&attrs).unwrap_or_else(|| field.clone());
    Some((field, key))
}

fn gen_struct(name: &str, body: Option<&TokenTree>) -> String {
    match body {
        // Unit struct: `struct S;`
        None | Some(TokenTree::Punct(_)) => {
            format!("__serializer.serialize_unit_struct(\"{name}\")")
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields: Vec<(String, String)> = split_top_commas(g.stream())
                .iter()
                .filter_map(|c| parse_named_field(c))
                .collect();
            let mut s = format!(
                "let mut __state = __serializer.serialize_struct(\"{name}\", {})?;\n",
                fields.len()
            );
            for (field, key) in &fields {
                s += &format!("__state.serialize_field(\"{key}\", &self.{field})?;\n");
            }
            s += "__state.end()";
            s
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let n = split_top_commas(g.stream()).len();
            match n {
                0 => format!("__serializer.serialize_unit_struct(\"{name}\")"),
                1 => format!("__serializer.serialize_newtype_struct(\"{name}\", &self.0)"),
                _ => {
                    let mut s = format!(
                        "let mut __state = __serializer.serialize_tuple_struct(\"{name}\", {n})?;\n"
                    );
                    for i in 0..n {
                        s += &format!("__state.serialize_field(&self.{i})?;\n");
                    }
                    s += "__state.end()";
                    s
                }
            }
        }
        other => panic!("offline serde derive: unexpected struct body {other:?}"),
    }
}

fn gen_enum(name: &str, body: Option<&TokenTree>, untagged: bool) -> String {
    let g = match body {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!("offline serde derive: unexpected enum body {other:?}"),
    };
    let mut arms = String::new();
    for (idx, chunk) in split_top_commas(g.stream()).iter().enumerate() {
        let mut i = 0;
        let attrs = collect_attrs(chunk, &mut i);
        let variant = expect_ident(chunk, &mut i);
        let vname = rename_of(&attrs).unwrap_or_else(|| variant.clone());
        let arm = match chunk.get(i) {
            // Unit variant.
            None => {
                if untagged {
                    panic!("offline serde derive: untagged unit variant unsupported");
                }
                format!(
                    "{name}::{variant} => __serializer.serialize_unit_variant(\
                         \"{name}\", {idx}u32, \"{vname}\"),\n"
                )
            }
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Parenthesis => {
                let n = split_top_commas(vg.stream()).len();
                let binds: Vec<String> = (0..n).map(|k| format!("__f{k}")).collect();
                let pat = binds.join(", ");
                if n == 1 {
                    if untagged {
                        format!(
                            "{name}::{variant}({pat}) => \
                                 serde::ser::Serialize::serialize({pat}, __serializer),\n"
                        )
                    } else {
                        format!(
                            "{name}::{variant}({pat}) => __serializer.\
                                 serialize_newtype_variant(\"{name}\", {idx}u32, \"{vname}\", {pat}),\n"
                        )
                    }
                } else {
                    if untagged {
                        panic!("offline serde derive: untagged tuple variant unsupported");
                    }
                    let mut s = format!(
                        "{name}::{variant}({pat}) => {{\n\
                             let mut __state = __serializer.serialize_tuple_variant(\
                                 \"{name}\", {idx}u32, \"{vname}\", {n})?;\n"
                    );
                    for b in &binds {
                        s += &format!("__state.serialize_field({b})?;\n");
                    }
                    s += "__state.end()\n},\n";
                    s
                }
            }
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace => {
                if untagged {
                    panic!("offline serde derive: untagged struct variant unsupported");
                }
                let fields: Vec<(String, String)> = split_top_commas(vg.stream())
                    .iter()
                    .map(|c| parse_named_field(c).expect("offline serde derive: skip in a variant"))
                    .collect();
                let pat: Vec<String> = fields.iter().map(|(f, _)| f.clone()).collect();
                let mut s = format!(
                    "{name}::{variant} {{ {} }} => {{\n\
                         let mut __state = __serializer.serialize_struct_variant(\
                             \"{name}\", {idx}u32, \"{vname}\", {})?;\n",
                    pat.join(", "),
                    fields.len()
                );
                for (field, key) in &fields {
                    s += &format!("__state.serialize_field(\"{key}\", {field})?;\n");
                }
                s += "__state.end()\n},\n";
                s
            }
            other => panic!("offline serde derive: unexpected variant body {other:?}"),
        };
        arms += &arm;
    }
    format!("match self {{\n{arms}}}")
}
