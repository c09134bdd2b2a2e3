// The derives of `nscc_ckpt`, one writer and one reader per persisted
// format.
//
// `#[derive(ToJson)]`: the compact JSON writer of `nscc_ckpt::json`, as
// direct `push_str` calls. It handles exactly the shapes this workspace
// writes — structs with named fields, newtype structs, and enums of unit,
// newtype and struct variants, with lifetime parameters only — and reads
// three attributes: `#[json(rename = "…")]` on a field, `#[json(skip)]`
// on a named struct field and `#[json(untagged)]` on an enum of newtype
// variants. Any other shape, or any other `json(...)` key,
// panics at expansion rather than writing something else; every other
// attribute (doc comments included) is ignored.
//
// `#[derive(FromJson)]`: the reader of the same document, for structs
// with named fields and newtype structs without generics. It reads the
// keys `ToJson` writes — `rename` and `skip` mean the same — plus
// `#[json(default)]`: on a field, a missing key reads as
// `Default::default()`; on the struct, decoding starts from
// `Self::default()`, so every key may be missing. Any other missing key is
// an error, as is an unknown or repeated one (`json::read_object`). A
// skipped field reads as its default. `ToJson` accepts `default` and
// ignores it, so one declaration serves both directions.
//
// `#[derive(Snapshot)]`: the `.nsck` codec, each field's own impl in
// declaration order (`decode` is a struct literal, whose fields Rust
// evaluates in the order written). Named-field and one-field tuple structs
// without generics only; every attribute is skipped unread.
//
// The crate name `serde_derive` is forced: the frozen
// `crates/perf/build-offline.sh` builds this file under that name through
// `tools/offline/serde_derive_shim.rs`, which `include!`s it, and
// `nscc_ckpt` finds it there by that name. A `#[proc_macro_derive]` must
// sit at the crate root, so the forwarder cannot be a `#[path]` module and
// this file takes no inner `//!` docs (an `include!`d file cannot carry
// inner attributes).

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The trait every generated impl names.
const TRAIT: &str = "::nscc_ckpt::json::ToJson";

#[proc_macro_derive(ToJson, attributes(json))]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    let item = json_attrs(&tokens, &mut i, ITEM_KEYS);
    skip_visibility(&tokens, &mut i);
    let kind = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    let generics = parse_lifetimes(&tokens, &mut i, &name);

    let body = match kind.as_str() {
        "struct" if item.untagged => panic!("ToJson: `untagged` on struct `{name}`"),
        "struct" => gen_struct(tokens.get(i)),
        "enum" => gen_enum(&name, tokens.get(i), item.untagged),
        other => panic!("ToJson: unsupported item kind `{other}`"),
    };

    format!(
        "impl{generics} {TRAIT} for {name}{generics} {{\n\
             fn write_json(&self, __out: &mut ::std::string::String) {{\n\
                 {body}\n\
             }}\n\
         }}\n"
    )
    .parse()
    .expect("ToJson: generated code failed to parse")
}

/// The module every `#[derive(FromJson)]` impl names.
const JSON: &str = "::nscc_ckpt::json";

#[proc_macro_derive(FromJson, attributes(json))]
pub fn derive_from_json(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    let item = json_attrs(&tokens, &mut i, ITEM_KEYS);
    skip_visibility(&tokens, &mut i);
    let kind = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if kind != "struct" || item.untagged {
        panic!("FromJson: `{kind} {name}` is not a struct");
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            gen_read_struct(&name, &named_fields(g.stream(), FIELD_KEYS), item.default)
        }
        Some(TokenTree::Group(g))
            if g.delimiter() == Delimiter::Parenthesis
                && split_top_commas(g.stream()).len() == 1 =>
        {
            format!("::std::result::Result::Ok({name}({JSON}::FromJson::read_json(__v, __at)?))")
        }
        other => panic!(
            "FromJson: `{name}` is neither a named-field struct nor a newtype struct \
             without generics ({other:?})"
        ),
    };

    format!(
        "impl {JSON}::FromJson for {name} {{\n\
             fn read_json(__v: &{JSON}::Json, __at: {JSON}::Path<'_>) \
                 -> ::std::result::Result<Self, {JSON}::DecodeError> {{\n\
                 {body}\n\
             }}\n\
         }}\n"
    )
    .parse()
    .expect("FromJson: generated code failed to parse")
}

/// The trait every `#[derive(Snapshot)]` impl names.
const SNAPSHOT: &str = "::nscc_ckpt::Snapshot";

#[proc_macro_derive(Snapshot)]
pub fn derive_snapshot(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let kind = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if kind != "struct" {
        panic!("Snapshot: `{kind} {name}` is not a struct");
    }
    // The places of the fields, in declaration order, and the struct
    // literal that decodes them in that order.
    let decode = format!("{SNAPSHOT}::decode(__dec)?");
    let (places, literal) = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields: Vec<String> = split_top_commas(g.stream())
                .iter()
                .map(|chunk| {
                    let mut i = 0;
                    skip_attrs(chunk, &mut i);
                    field_ident(chunk, i)
                })
                .collect();
            let inits: Vec<String> = fields.iter().map(|f| format!("{f}: {decode}")).collect();
            (fields, format!("{name} {{ {} }}", inits.join(", ")))
        }
        Some(TokenTree::Group(g))
            if g.delimiter() == Delimiter::Parenthesis
                && split_top_commas(g.stream()).len() == 1 =>
        {
            (vec!["0".to_string()], format!("{name}({decode})"))
        }
        other => panic!(
            "Snapshot: `{name}` is neither a named-field struct nor a one-field tuple struct \
             without generics ({other:?})"
        ),
    };
    let encode: String = places
        .iter()
        .map(|f| format!("{SNAPSHOT}::encode(&self.{f}, __enc);\n"))
        .collect();

    format!(
        "impl {SNAPSHOT} for {name} {{\n\
             fn encode(&self, __enc: &mut ::nscc_ckpt::Enc) {{\n\
                 {encode}\
             }}\n\
             fn decode(__dec: &mut ::nscc_ckpt::Dec<'_>) \
                 -> ::std::result::Result<Self, ::nscc_ckpt::CkptError> {{\n\
                 ::std::result::Result::Ok({literal})\n\
             }}\n\
         }}\n"
    )
    .parse()
    .expect("Snapshot: generated code failed to parse")
}

/// Consume the leading `#[…]` attributes without reading them.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) {
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#')
        && matches!(tokens.get(*i + 1), Some(TokenTree::Group(_)))
    {
        *i += 2;
    }
}

/// The `json(...)` keys found on one item, field or variant.
#[derive(Default)]
struct JsonAttrs {
    rename: Option<String>,
    skip: bool,
    untagged: bool,
    default: bool,
}

/// The `json(...)` keys an item and a named struct field may carry; both
/// derives accept the same ones, each reading those it needs.
const ITEM_KEYS: &[&str] = &["untagged", "default"];
const FIELD_KEYS: &[&str] = &["rename", "skip", "default"];

/// Consume the leading `#[…]` attributes and read the `json(...)` ones.
/// Panics on a key outside `allowed` for this position, so a misspelt or
/// unimplemented key is a build error, never a silent difference.
fn json_attrs(tokens: &[TokenTree], i: &mut usize, allowed: &[&str]) -> JsonAttrs {
    let mut out = JsonAttrs::default();
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        let Some(TokenTree::Group(attr)) = tokens.get(*i + 1) else {
            break;
        };
        *i += 2;
        let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
        let args = match inner.as_slice() {
            [TokenTree::Ident(id), TokenTree::Group(args)] if id.to_string() == "json" => args,
            _ => continue,
        };
        for arg in split_top_commas(args.stream()) {
            let key = match arg.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("derive: expected a `json(...)` key, got {other:?}"),
            };
            if !allowed.contains(&key.as_str()) {
                panic!("derive: `json({key})` is not supported here (allowed: {allowed:?})");
            }
            match (key.as_str(), &arg[1..]) {
                ("skip", []) => out.skip = true,
                ("untagged", []) => out.untagged = true,
                ("default", []) => out.default = true,
                ("rename", [TokenTree::Punct(eq), TokenTree::Literal(lit)])
                    if eq.as_char() == '=' =>
                {
                    out.rename = Some(plain_string(&lit.to_string()));
                }
                _ => panic!("derive: malformed `json({key} …)`"),
            }
        }
    }
    out
}

/// The contents of a plain string literal that needs no JSON escape, so
/// the generated code can write it between quotes as is.
fn plain_string(lit: &str) -> String {
    let s = lit
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or_else(|| panic!("ToJson: `rename` takes a plain string, got {lit}"));
    if s.contains(['"', '\\']) || s.chars().any(char::is_control) {
        panic!("ToJson: `rename = {lit}` would need escaping");
    }
    s.to_string()
}

/// Parse an optional `<'a, 'b>` after the type name; returns it verbatim
/// (empty when absent). Type and const parameters are rejected: nothing
/// written as JSON is generic over a type.
fn parse_lifetimes(tokens: &[TokenTree], i: &mut usize, name: &str) -> String {
    if !matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return String::new();
    }
    *i += 1;
    let mut params = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                *i += 1;
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => *i += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '\'' => {
                *i += 1;
                params.push(format!("'{}", expect_ident(tokens, i)));
            }
            other => panic!("ToJson: `{name}` has generics other than lifetimes ({other:?})"),
        }
    }
    format!("<{}>", params.join(", "))
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
        other => panic!("derive: expected identifier, got {other:?}"),
    }
}

/// Split a brace/paren body on top-level commas (angle-bracket aware, so
/// `BTreeMap<String, Vec<i32>>` stays one chunk).
fn split_top_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle: i32 = 0;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(tt);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// One named field: its identifier, its JSON key and its attributes.
struct Field {
    ident: String,
    key: String,
    skip: bool,
    default: bool,
}

/// The named fields of a brace body; `allowed` are the `json(...)` keys a
/// field may carry.
fn named_fields(body: TokenStream, allowed: &[&str]) -> Vec<Field> {
    split_top_commas(body)
        .iter()
        .map(|chunk| {
            let mut i = 0;
            let attrs = json_attrs(chunk, &mut i, allowed);
            let ident = field_ident(chunk, i);
            Field {
                key: attrs.rename.unwrap_or_else(|| ident.clone()),
                ident,
                skip: attrs.skip,
                default: attrs.default,
            }
        })
        .collect()
}

/// The name of the `vis name: Type` field that starts at `i` of `chunk`.
fn field_ident(chunk: &[TokenTree], mut i: usize) -> String {
    skip_visibility(chunk, &mut i);
    let field = expect_ident(chunk, &mut i);
    match chunk.get(i) {
        Some(TokenTree::Punct(p)) if p.as_char() == ':' => field,
        other => panic!("derive: expected `:` after field `{field}`, got {other:?}"),
    }
}

/// Rust source for a string literal with the contents `s`.
fn lit(s: &str) -> String {
    format!("{s:?}")
}

/// Statements writing `{"k1":v1,"k2":v2}`, skipped fields left out;
/// `value` maps a field name to the expression of its place.
fn gen_object(fields: &[Field], value: impl Fn(&str) -> String) -> String {
    let written: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    if written.is_empty() {
        return "__out.push_str(\"{}\");\n".to_string();
    }
    let mut s = String::new();
    for (n, f) in written.iter().enumerate() {
        let open = if n == 0 { "{" } else { "," };
        s += &format!(
            "__out.push_str({});\n{TRAIT}::write_json({}, __out);\n",
            lit(&format!("{open}\"{}\":", f.key)),
            value(&f.ident)
        );
    }
    s += "__out.push('}');\n";
    s
}

/// The body of a named struct's `read_json`: one `Option` slot per read
/// field, filled by one `read_object` walk, then the struct literal, where
/// a missing key is an error, the field's default or, under a
/// struct-level `default`, that field of `Self::default()`.
fn gen_read_struct(name: &str, fields: &[Field], struct_default: bool) -> String {
    let (mut slots, mut arms, mut keys, mut inits) = (String::new(), String::new(), vec![], vec![]);
    for f in fields {
        let missing = if struct_default {
            format!("__d.{}", f.ident)
        } else if f.default || f.skip {
            "::std::default::Default::default()".to_string()
        } else {
            let msg = lit(&format!("missing key `{}`", f.key));
            format!("return ::std::result::Result::Err(__at.error({msg}))")
        };
        if f.skip {
            inits.push(format!("{}: {missing}", f.ident));
            continue;
        }
        let n = keys.len();
        keys.push(lit(&f.key));
        slots += &format!("let mut __f{n} = ::std::option::Option::None;\n");
        arms += &format!(
            "{n} => __f{n} = ::std::option::Option::Some({JSON}::FromJson::read_json(__v, __at)?),\n"
        );
        inits.push(format!(
            "{}: match __f{n} {{ ::std::option::Option::Some(__x) => __x, \
             ::std::option::Option::None => {missing} }}",
            f.ident
        ));
    }
    if keys.len() > 64 {
        panic!("FromJson: `{name}` reads more than the 64 keys `json::read_object` tracks");
    }
    let start = if struct_default {
        "let __d: Self = ::std::default::Default::default();\n"
    } else {
        ""
    };
    format!(
        "{start}{slots}\
         {JSON}::read_object(__v, __at, &[{}], |__i, __v, __at| {{\n\
             match __i {{\n{arms}_ => {{}}\n}}\n\
             ::std::result::Result::Ok(())\n\
         }})?;\n\
         ::std::result::Result::Ok({name} {{ {} }})",
        keys.join(", "),
        inits.join(",\n")
    )
}

fn gen_struct(body: Option<&TokenTree>) -> String {
    match body {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            gen_object(&named_fields(g.stream(), FIELD_KEYS), |f| {
                format!("&self.{f}")
            })
        }
        Some(TokenTree::Group(g))
            if g.delimiter() == Delimiter::Parenthesis
                && split_top_commas(g.stream()).len() == 1 =>
        {
            format!("{TRAIT}::write_json(&self.0, __out);")
        }
        other => panic!("ToJson: unexpected struct body {other:?}"),
    }
}

fn gen_enum(name: &str, body: Option<&TokenTree>, untagged: bool) -> String {
    let g = match body {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!("ToJson: unexpected enum body {other:?}"),
    };
    let mut arms = String::new();
    for chunk in split_top_commas(g.stream()) {
        let mut i = 0;
        json_attrs(&chunk, &mut i, &[]);
        let variant = expect_ident(&chunk, &mut i);
        // The variant's pattern and the statements writing its content.
        let (pat, content) = match chunk.get(i) {
            None if !untagged => {
                let unit = lit(&format!("\"{variant}\""));
                arms += &format!("{name}::{variant} => __out.push_str({unit}),\n");
                continue;
            }
            Some(TokenTree::Group(vg))
                if vg.delimiter() == Delimiter::Parenthesis
                    && split_top_commas(vg.stream()).len() == 1 =>
            {
                (
                    "(__v)".to_string(),
                    format!("{TRAIT}::write_json(__v, __out);\n"),
                )
            }
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace && !untagged => {
                let fields = named_fields(vg.stream(), &["rename"]);
                let binds: Vec<String> = fields
                    .iter()
                    .map(|f| format!("{0}: __{0}", f.ident))
                    .collect();
                (
                    format!(" {{ {} }}", binds.join(", ")),
                    gen_object(&fields, |f| format!("__{f}")),
                )
            }
            other => panic!("ToJson: unsupported variant `{name}::{variant}` ({other:?})"),
        };
        arms += &if untagged {
            format!("{name}::{variant}{pat} => {{\n{content}}}\n")
        } else {
            format!(
                "{name}::{variant}{pat} => {{\n__out.push_str({});\n{content}__out.push('}}');\n}}\n",
                lit(&format!("{{\"{variant}\":"))
            )
        };
    }
    format!("match self {{\n{arms}}}")
}
