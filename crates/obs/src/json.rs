//! A minimal, non-panicking JSON value parser — the workspace's one reader
//! of nested JSON documents.
//!
//! The workspace hand-rolls all of its JSON (no serde), and every reader
//! goes through this module: the serve protocol (documents arriving from an
//! untrusted byte stream), the `sr-obs` journal reader (files that may be
//! torn mid-line) and the `sr-bench` metrics gate (checked-in baselines
//! that may be truncated). It handles the full value grammar (objects,
//! arrays, strings with escapes, numbers, booleans, null) and returns
//! `Err` — never panics — on malformed input, with a byte offset for the
//! error message. Depth is capped so deeply nested garbage cannot blow the
//! stack.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by [`parse`].
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`); duplicate keys keep the
    /// last occurrence, like every mainstream parser.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
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

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key–value map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on an object; `None` for absent keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses one JSON document from `bytes` (UTF-8), requiring the document
/// to span the whole input (trailing whitespace allowed).
///
/// # Errors
///
/// [`JsonError`] on invalid UTF-8, malformed syntax, excessive nesting, or
/// trailing garbage. Never panics.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
        message: format!("invalid utf-8: {e}"),
        offset: e.valid_up_to(),
    })?;
    let mut p = Parser {
        text,
        s: text.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The validated input; `s` is its bytes.
    text: &'a str,
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.i,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.s.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.i += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.s[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid codepoint"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run of plain characters in one slice. It ends
                    // at a quote, a backslash, a control byte or the end of
                    // input — all ASCII — so it ends on a char boundary of
                    // the already validated text.
                    let start = self.i;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.i += 1;
                    }
                    out.push_str(&self.text[start..self.i]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .s
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| {
            c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
        }) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii slice");
        let v: f64 = text.parse().map_err(|_| JsonError {
            message: "invalid number".to_string(),
            offset: start,
        })?;
        if !v.is_finite() {
            return Err(JsonError {
                message: "number out of range".to_string(),
                offset: start,
            });
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(br#"{"op":"admit","n":3,"a":[1,2.5,-4e2],"o":{"x":null,"y":true}}"#)
            .expect("parses");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("admit"));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(3.0));
        let a = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(a[2], Json::Num(-400.0));
        assert_eq!(v.get("o").and_then(|o| o.get("y")), Some(&Json::Bool(true)));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(br#""a\n\"b\"\u0041\ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\n\"b\"A😀"));
    }

    #[test]
    fn rejects_malformed_without_panicking() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"{\"a\" 1}",
            b"nul",
            b"\"unterminated",
            b"1 2",
            b"{\"a\":}",
            b"\xff\xfe",
            b"",
            b"[1e999]",
            b"\"\\u12\"",
            b"\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let mut doc = Vec::new();
        doc.extend(std::iter::repeat_n(b'[', 64));
        doc.extend(std::iter::repeat_n(b']', 64));
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn parses_a_one_mebibyte_string_in_linear_time() {
        // Multi-byte characters and escapes interleaved with plain runs.
        let unit = "abcdefgh\u{e9}\u{1f600}";
        let mut doc = String::from("\"");
        let mut want = String::new();
        while doc.len() < 1 << 20 {
            doc.push_str(unit);
            doc.push_str("\\n");
            want.push_str(unit);
            want.push('\n');
        }
        doc.push('"');
        let v = parse(doc.as_bytes()).expect("parses");
        assert_eq!(v.as_str(), Some(want.as_str()));
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse(br#"{"a":1,"a":2}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_num), Some(2.0));
    }
}
