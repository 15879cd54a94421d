//! The workspace's one JSON value type: a depth-limited parser for
//! untrusted input and the one renderer every emitter goes through.
//!
//! The workspace has no serde_json (the build environment vendors only the
//! API subsets it needs). Every JSON text it writes — solve events,
//! reports, op counts, decoded problem metrics, wire frames, service
//! stats, bench records — is a [`Json`] value rendered by its `Display`,
//! which fixes the rules once:
//!
//! * a finite [`Json::Num`] prints as Rust's shortest round-trip `{}`
//!   formatting (`-0.0` prints `-0`, `1e21` prints all 22 digits);
//! * a non-finite number prints `null` (JSON has no NaN or infinity);
//! * [`Json::Int`] carries seeds and counters exactly, above 2^53 too;
//! * strings escape `"`, `\` and control characters, nothing else;
//! * [`Json::Raw`] is written verbatim. It carries only JSON text the
//!   workspace did not render: a router's cached report bytes and a
//!   client's caller-supplied `config`/`problem` text.
//!
//! Output is compact (one line, no spaces) and objects keep insertion
//! order; [`Json::sort_keys`] gives the canonical form content-addressed
//! keys need. The parser reads numbers as [`Json::Num`] (doubles, like
//! JavaScript) and never produces `Int` or `Raw`; it rejects documents
//! nested deeper than 64 levels, since its input comes from sockets.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number; what the parser produces for every number. Non-finite
    /// values render as `null`.
    Num(f64),
    /// An exact unsigned integer (seeds, counters, sizes), rendered with
    /// every digit.
    Int(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion (or document) order.
    Obj(Vec<(String, Json)>),
    /// JSON text written verbatim; never produced by the parser.
    Raw(String),
}

/// A syntax error in a parsed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong, ending in the byte offset where it was found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth allowed in untrusted documents; deeper input is rejected
/// rather than risking parser stack exhaustion.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing content rejected). Time is linear in the input length.
    ///
    /// # Errors
    ///
    /// [`JsonError`] describing the first syntax error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing content after JSON document"));
        }
        Ok(value)
    }

    /// An object from `(key, value)` members, in order.
    pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `x` rounded to `places` decimals, exactly as `format!("{x:.places$}")`
    /// rounds, for fields whose extra digits are noise (latencies, rates).
    /// Trailing zeros are not kept: `12.500` renders `12.5`.
    #[must_use]
    pub fn rounded(x: f64, places: usize) -> Json {
        Json::Num(format!("{x:.places$}").parse().unwrap_or(x))
    }

    /// Sorts every object's members by key, recursively (stable, so
    /// duplicate keys keep document order). Two documents that differ
    /// only in member order render identically afterwards — the
    /// canonical form of content-addressed cache keys.
    pub fn sort_keys(&mut self) {
        match self {
            Json::Obj(members) => {
                members.sort_by(|a, b| a.0.cmp(&b.0));
                for (_, v) in members {
                    v.sort_keys();
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(Json::sort_keys),
            _ => {}
        }
    }

    /// The string payload, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num` or an `Int`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly
    /// (a `Num` within the exact-integer range, or any `Int`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members, if this is an `Obj`.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// First member under `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }
}

impl fmt::Display for Json {
    /// Renders the value as compact JSON (one line, no spaces) under the
    /// module's rules.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_quoted(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_quoted(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
            Json::Raw(text) => f.write_str(text),
        }
    }
}

/// `From` conversions for the values emitters hold; `u32` and `usize`
/// widen to the exact [`Json::Int`].
macro_rules! json_from {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Self {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b),
    f64 => |n| Json::Num(n),
    u64 => |n| Json::Int(n),
    u32 => |n| Json::Int(u64::from(n)),
    usize => |n| Json::Int(n as u64),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
}

impl FromIterator<Json> for Json {
    /// Collects into an array.
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Self {
        Json::Arr(items.into_iter().collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Writes `s` as a quoted JSON string literal.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

/// Writes `s` escaped for a JSON string literal, copying each run of
/// bytes that needs no escape in one write. Every byte that does is ASCII,
/// so runs always end on a char boundary.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if esc.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(esc)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included), by the same rule [`Json`]'s `Display` uses.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_escaped(&mut out, s);
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of document")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let n: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go:
            // both are ASCII, so the run ends on a char boundary.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1; // backslash
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this protocol;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            Json::parse(r#""a\nb\"c""#).unwrap(),
            Json::Str("a\nb\"c".into())
        );
        let v = Json::parse(r#"{"a": [1, 2], "b": {"c": false}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = Json::parse(r#"{"n": 3, "neg": -1, "frac": 1.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("frac").unwrap().as_u64(), None);
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(1.5));
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Int(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            r#"{"a" 1}"#,
            "1 2",
            "NaN",
            "Infinity",
            r#""unterminated"#,
            r#""dangling\"#,
            r#""\u12"#,
            r#""\q""#,
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let err = Json::parse("[1,]").unwrap_err();
        assert_eq!(err.message, "unexpected character at byte 3");
        assert_eq!(
            err.to_string(),
            "invalid JSON: unexpected character at byte 3"
        );
    }

    #[test]
    fn rejects_deep_nesting_without_overflowing() {
        let doc = format!("{}1{}", "[".repeat(500), "]".repeat(500));
        assert!(Json::parse(&doc).is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\ backslash \u{1}\u{1f} unicode é✓";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(doc, Json::Str(original.into()).to_string());
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for doc in [
            r#"{"a":[1,2.5,-3],"b":{"c":false,"d":null},"s":"x\ny"}"#,
            "[]",
            "{}",
            r#""plain""#,
        ] {
            let parsed = Json::parse(doc).unwrap();
            assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed);
            assert_eq!(parsed.to_string(), doc);
        }
    }

    #[test]
    fn numbers_render_by_one_rule() {
        let cases = [
            (Json::Num(-0.0), "-0"),
            (Json::Num(95.0), "95"),
            (Json::Num(0.1 + 0.2), "0.30000000000000004"),
            (Json::Num(1e21), "1000000000000000000000"),
            (Json::Num(1e-7), "0.0000001"),
            (Json::Num(f64::NAN), "null"),
            (Json::Num(f64::INFINITY), "null"),
            (Json::Num(f64::NEG_INFINITY), "null"),
            (Json::Int((1 << 53) + 1), "9007199254740993"),
            (Json::Int(u64::MAX), "18446744073709551615"),
            (Json::rounded(12.5, 3), "12.5"),
            (Json::rounded(12.3456, 3), "12.346"),
            (Json::rounded(f64::NAN, 3), "null"),
        ];
        for (value, text) in cases {
            assert_eq!(value.to_string(), text, "{value:?}");
        }
    }

    #[test]
    fn builders_and_raw_text_render_in_order() {
        let v = Json::obj([
            ("id", "a\"b".into()),
            ("seed", u64::MAX.into()),
            ("target", Option::<f64>::None.into()),
            ("cut", 2.5.into()),
            ("report", Json::Raw("{ \"kept\" : 1 }".into())),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"id":"a\"b","seed":18446744073709551615,"target":null,"cut":2.5,"report":{ "kept" : 1 }}"#
        );
    }

    #[test]
    fn sort_keys_is_recursive_and_keeps_arrays_in_order() {
        let mut v = Json::parse(r#"{"b":[{"z":1,"a":2},3],"a":{"d":0,"c":[]}}"#).unwrap();
        v.sort_keys();
        assert_eq!(
            v.to_string(),
            r#"{"a":{"c":[],"d":0},"b":[{"a":2,"z":1},3]}"#
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        // \u escape and raw UTF-8 both decode to the same scalar.
        assert_eq!(
            Json::parse(r#""\u00e9A""#).unwrap(),
            Json::Str("\u{e9}A".into())
        );
        assert_eq!(
            Json::parse("\"\u{e9}A\"").unwrap(),
            Json::Str("\u{e9}A".into())
        );
    }

    /// String parsing is linear in the input: a 1 MiB string value (the
    /// daemon accepts 16 MiB lines) parses in milliseconds.
    #[test]
    fn one_mebibyte_string_parses_quickly() {
        // Six bytes per repeat, five once `\n` is decoded.
        let body = "ab\u{e9}\\n".repeat((1 << 20) / 6);
        let doc = format!("{{\"s\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            parsed.get("s").and_then(Json::as_str).map(str::len),
            Some(body.len() / 6 * 5)
        );
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB string took {elapsed:?}"
        );
    }
}
