//! The workspace's one JSON module. [`push_json_str`] and [`ToJson`] write
//! what reaches a file or a response; [`Json`] is the one reader, for
//! request bodies and saved models.
//!
//! [`ToJson`] pretty-prints: two-space indent, one array element or object
//! field per line, `[]` and `{}` when empty, floats in Rust's shortest
//! round-trip form (`null` when not finite), and objects in the order
//! their fields are given. Structs opt in with [`crate::impl_to_json!`].
//!
//! The reader is std-only recursive descent over bytes; strings handle the
//! standard escapes including `\uXXXX` (with surrogate pairs), numbers
//! parse as `f64`. Depth is bounded so a hostile body cannot blow the
//! stack.

use std::collections::{BTreeMap, HashMap};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted by key; duplicate keys keep the last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(bytes: &[u8]) -> Result<Json, String> {
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Appends `s` as a JSON string literal (quotes, escapes applied).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A value that writes itself as pretty-printed JSON.
pub trait ToJson {
    /// Appends the value; lines after its first are indented `indent`
    /// levels, as for a value nested that deep.
    fn write_json(&self, out: &mut String, indent: usize);
}

/// `value` as a pretty-printed JSON document.
pub fn to_string_pretty(value: &dyn ToJson) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes an object of `fields`, in order.
pub fn write_object(out: &mut String, indent: usize, fields: &[(&str, &dyn ToJson)]) {
    let entries = fields.iter().map(|&(key, value)| (Some(key), value));
    write_entries(out, indent, ('{', '}'), entries);
}

fn write_array<'a>(
    out: &mut String,
    indent: usize,
    items: impl ExactSizeIterator<Item = &'a dyn ToJson>,
) {
    write_entries(out, indent, ('[', ']'), items.map(|value| (None, value)));
}

/// One entry per line between the brackets (keyed for an object), or the
/// bare brackets when there are none.
fn write_entries<'a>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a dyn ToJson)>,
) {
    out.push(open);
    if entries.len() == 0 {
        out.push(close);
        return;
    }
    out.push('\n');
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        pad(out, indent + 1);
        if let Some(key) = key {
            push_json_str(out, key);
            out.push_str(": ");
        }
        value.write_json(out, indent + 1);
    }
    out.push('\n');
    pad(out, indent);
    out.push(close);
}

/// Implements [`ToJson`] for structs as objects of the listed fields, in
/// the order listed.
///
/// ```
/// struct Row {
///     name: String,
///     score: f64,
/// }
/// cyclesql_obs::impl_to_json! { Row { name, score } }
///
/// let row = Row { name: "a".into(), score: 1.5 };
/// let text = cyclesql_obs::json::to_string_pretty(&row);
/// assert_eq!(text, "{\n  \"name\": \"a\",\n  \"score\": 1.5\n}");
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($($ty:ty { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, indent: usize) {
                $crate::json::write_object(
                    out,
                    indent,
                    &[$((stringify!($field), &self.$field as &dyn $crate::json::ToJson)),+],
                );
            }
        }
    )+};
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, indent: usize) {
        (**self).write_json(out, indent);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _indent: usize) {
        push_json_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, _indent: usize) {
        push_json_str(out, self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _indent: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String, _indent: usize) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _indent: usize) {
        if self.is_finite() {
            out.push_str(&format!("{self:?}"));
        } else {
            out.push_str("null");
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Some(value) => value.write_json(out, indent),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        write_array(out, indent, self.iter().map(|x| x as &dyn ToJson));
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String, indent: usize) {
        write_array(out, indent, self.iter().map(|x| x as &dyn ToJson));
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String, indent: usize) {
        write_array(out, indent, [&self.0 as &dyn ToJson, &self.1].into_iter());
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String, indent: usize) {
        let fields: Vec<(&str, &dyn ToJson)> = self
            .iter()
            .map(|(k, v)| (k.as_str(), v as &dyn ToJson))
            .collect();
        write_object(out, indent, &fields);
    }
}

/// Keys sorted, so the text does not depend on hash order.
impl<V: ToJson, S> ToJson for HashMap<String, V, S> {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut fields: Vec<(&str, &dyn ToJson)> = self
            .iter()
            .map(|(k, v)| (k.as_str(), v as &dyn ToJson))
            .collect();
        fields.sort_by_key(|(k, _)| *k);
        write_object(out, indent, &fields);
    }
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at offset {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err("unescaped control character in string".into()),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one step, validating only the run.
                    // Those bytes are ASCII, so a run never ends inside a
                    // valid multi-byte sequence.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "string is not UTF-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let malformed = || format!("malformed number at offset {start}");
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| malformed())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| malformed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_writer_layout() {
        struct Row {
            name: String,
            points: Vec<(usize, f64)>,
            missing: Option<f64>,
            empty: Vec<bool>,
            scores: HashMap<String, f64>,
        }
        crate::impl_to_json! { Row { name, points, missing, empty, scores } }
        let row = Row {
            name: "a\"b".into(),
            points: vec![(1, 0.5), (2, 1e-7)],
            missing: None,
            empty: vec![],
            scores: [("z".to_string(), 1.0), ("a".to_string(), f64::NAN)].into(),
        };
        let text = to_string_pretty(&row);
        let expected = r#"{
  "name": "a\"b",
  "points": [
    [
      1,
      0.5
    ],
    [
      2,
      1e-7
    ]
  ],
  "missing": null,
  "empty": [],
  "scores": {
    "a": null,
    "z": 1.0
  }
}"#;
        assert_eq!(text, expected);
        let doc = Json::parse(text.as_bytes()).unwrap();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = br#"{"db": "world_1", "k": 8, "flags": [true, false, null], "q": "list \"all\" caf\u00e9s\n"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("db").and_then(Json::as_str), Some("world_1"));
        assert_eq!(v.get("k").and_then(Json::as_num), Some(8.0));
        assert_eq!(
            v.get("flags"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("q").and_then(Json::as_str),
            Some("list \"all\" cafés\n")
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(br#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            &b"{"[..],
            b"{\"a\": }",
            b"[1, 2",
            b"\"unterminated",
            b"truex",
            b"{\"a\": 1} trailing",
            b"{'single': 1}",
            b"\"\\ud800\"",
            b"\"\\ud800\\u0041\"",
            b"\"\\udc00\"",
            b"\"a\x01b\"",
            b"\"tab\there\"",
            b"\"\xff\"",
            b"\"caf\xc3\"",
            b"\"\xc3\\n\"",
            b"{\"a\": \"ok\", \"b\": \"\xe2\x82\"}",
            b"-",
            b"[1.2.3]",
            b"{\"a\": -\xff}",
        ] {
            assert!(
                Json::parse(doc).is_err(),
                "{:?} parsed",
                String::from_utf8_lossy(doc)
            );
        }
    }

    #[test]
    fn multi_byte_runs_decode_between_escapes() {
        let v = Json::parse("\"caf\u{e9} \\\"\u{1f600}\\\" na\u{ef}ve\\n\"".as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} \"\u{1f600}\" na\u{ef}ve\n"));
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // A 1 MiB string value, the size of the largest accepted request
        // body. Re-validating the rest of the input per copied character
        // took seconds in a release build; one pass takes milliseconds
        // even unoptimized.
        let text = "ab\u{e9}".repeat(1 << 18);
        let doc = format!("{{\"q\": \"{text}\"}}");
        assert!(doc.len() >= 1 << 20);
        let t = std::time::Instant::now();
        let v = Json::parse(doc.as_bytes()).unwrap();
        let took = t.elapsed();
        assert_eq!(v.get("q").and_then(Json::as_str), Some(text.as_str()));
        assert!(took < std::time::Duration::from_secs(10), "took {took:?}");
    }

    #[test]
    fn depth_is_bounded() {
        let mut doc = Vec::new();
        doc.extend(std::iter::repeat_n(b'[', 100));
        doc.extend(std::iter::repeat_n(b']', 100));
        assert!(Json::parse(&doc).is_err());
    }
}
