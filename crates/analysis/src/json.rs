//! Minimal JSON infrastructure shared across the workspace.
//!
//! Three layers, all dependency-free:
//!
//! * [`escape`] / [`write_escaped`] — the one string-escaping routine. The
//!   diagnostics renderer ([`crate::diag::render_json`]), the extraction
//!   report serializer, and the service endpoints all escape through here,
//!   so a fix to escaping lands everywhere at once.
//! * [`fmt_number`] — the one number formatter: integral values print
//!   without a decimal point, non-finite values print as `null` (JSON has
//!   no NaN/Infinity).
//! * [`Json`] — a small owned value model with a deterministic compact
//!   renderer ([`Json::render`]) and a recursive-descent parser
//!   ([`parse`]). Objects preserve insertion order, so rendering the same
//!   value twice yields the same bytes — the property every golden-file
//!   test and the content-addressed result cache rely on. Decoding is
//!   linear in the input: a string's unescaped runs are validated and
//!   copied a run at a time, so a multi-megabyte request body costs
//!   milliseconds, not minutes.
//!
//! The model is deliberately small: it exists so the service layer can
//! parse request bodies and build response documents without pulling in a
//! serialization framework, not to be a general-purpose JSON library.

use std::fmt::Write as _;

/// Escape `s` into `out` as JSON string *contents* (no surrounding quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escape `s` as a complete JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    write_escaped(&mut out, s);
    out.push('"');
    out
}

/// Format a JSON number: integral finite values without a decimal point,
/// other finite values via Rust's shortest-roundtrip `Display`, and
/// non-finite values as `null`.
pub fn fmt_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    if x.fract() == 0.0 && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// An owned JSON value.
///
/// Objects are ordered vectors of `(key, value)` pairs: insertion order is
/// preserved by the renderer, making output deterministic. Duplicate keys
/// are not rejected; [`Json::get`] returns the first match.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
    /// A pre-rendered JSON document, embedded verbatim by the renderer.
    ///
    /// Lets callers splice output of bespoke renderers (e.g.
    /// [`crate::diag::render_json`], whose multi-line layout is a published
    /// stability promise) into a larger document without re-parsing. The
    /// parser never produces this variant; the embedder is responsible for
    /// the payload being valid JSON.
    Raw(String),
}

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Json {
        Json::Num(i as f64)
    }

    /// Render compactly (no whitespace except inside [`Json::Raw`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&fmt_number(*x)),
            Json::Str(s) => {
                out.push('"');
                write_escaped(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    write_escaped(out, k);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Move the first field named `key` out of an object, leaving
    /// [`Json::Null`] in its place; `None` on non-objects or when absent.
    /// Lets a decoder keep a large string without copying it.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => Some(*x as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure: a message and the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Nesting depth cap: deep enough for any legitimate request, shallow
/// enough that hostile input cannot overflow the parser's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    fields.push((k, v));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(b',')?;
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced past the digits
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // Both are ASCII, so they never fall inside a multi-byte
                    // sequence and the run is whole UTF-8 scalars; it is
                    // still validated, which costs one pass over its bytes.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Parse the `uXXXX` part of a unicode escape (the `\` was consumed and
    /// `self.pos` sits on the `u`), handling surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // past `u`
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers_render_integers_plain() {
        assert_eq!(fmt_number(3.0), "3");
        assert_eq!(fmt_number(-0.5), "-0.5");
        assert_eq!(fmt_number(f64::NAN), "null");
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let v = Json::Obj(vec![
            ("b".into(), Json::int(1)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[null,true]}");
        assert_eq!(v.render(), v.render());
    }

    #[test]
    fn raw_embeds_verbatim() {
        let v = Json::Obj(vec![("d".into(), Json::Raw("[\n  {}\n]".into()))]);
        assert_eq!(v.render(), "{\"d\":[\n  {}\n]}");
    }

    #[test]
    fn parse_round_trips() {
        let src = "{\"a\":[1,2.5,\"x\\n\",null,true,{\"k\":-3}],\"b\":false}";
        let v = parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        let v = parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn raw_multibyte_runs_round_trip_beside_every_escape() {
        let escapes = [
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\u00e9", "é"),
            ("\\ud83d\\ude00", "😀"),
        ];
        for (esc, decoded) in escapes {
            for raw in ["é", "😀", "aé😀z"] {
                let src = format!("\"{raw}{esc}{raw}{esc}{esc}{raw}\"");
                let want = format!("{raw}{decoded}{raw}{decoded}{decoded}{raw}");
                let v = parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
                assert_eq!(v.as_str(), Some(want.as_str()), "{src}");
                assert_eq!(parse(&v.render()).unwrap(), v, "{src}");
            }
        }
    }

    #[test]
    fn a_one_mebibyte_string_decodes_to_the_same_bytes() {
        let text: String = "fn f() { return 1; } // é😀\n"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let v = parse(&escape(&text)).unwrap();
        assert_eq!(v.as_str(), Some(text.as_str()));
    }

    #[test]
    fn take_moves_the_first_match_out() {
        let mut v = parse("{\"s\":\"a\",\"s\":\"b\",\"n\":1}").unwrap();
        assert_eq!(v.take("s"), Some(Json::str("a")));
        assert_eq!(v.get("s"), Some(&Json::Null));
        assert_eq!(v.take("missing"), None);
        assert_eq!(Json::Null.take("s"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"\\u12\"").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth cap");
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\":7,\"s\":\"hi\"}").unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert!(v.get("missing").is_none());
    }
}
