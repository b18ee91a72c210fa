//! A minimal JSON value type with a writer and a parser — the one wire format
//! the serving reports, the bench trend files and the CI perf gate share.
//!
//! The build environment has no access to crates.io, so this stands in for
//! `serde_json`. It supports exactly what those consumers need: finite
//! numbers (non-finite serialize as `null`), strings, booleans, arrays and
//! insertion-ordered objects, plus dotted-path lookup for the perf gate.

use std::fmt;
use std::io;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

/// Error produced when [`JsonValue::parse`] rejects its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Convenience constructor for object values.
    pub fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for string values.
    pub fn str(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize with no whitespace at all — the one-line form JSONL event
    /// dumps use. Parses back to the same value as the pretty form.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_fmt_value(&mut out, None)
            .expect("writing to a String cannot fail");
        out
    }

    /// Stream the compact serialization (byte-identical to
    /// [`JsonValue::to_string_compact`], no trailing newline) into an
    /// [`io::Write`] sink.
    pub fn write_compact<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut adapter = IoFmt {
            inner: w,
            err: None,
        };
        match (self.write_fmt_value(&mut adapter, None), adapter.err) {
            (_, Some(e)) => Err(e),
            (Err(_), None) => unreachable!("fmt failure without an io error"),
            (Ok(()), None) => Ok(()),
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Member of an object by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Lookup through nested objects by a dotted path, e.g.
    /// `"engine.intervals_per_sec"`.
    pub fn get_path(&self, path: &str) -> Option<&JsonValue> {
        let mut v = self;
        for key in path.split('.') {
            v = v.get(key)?;
        }
        Some(v)
    }

    /// Every dotted field path reachable in this document, sorted and
    /// deduplicated. Array elements collapse under a `[]` segment, so the
    /// *shape* of a report is captured independent of how many entries an
    /// array happens to hold — e.g. a cluster report yields paths like
    /// `per_replica[].ttft.p99`. Leaves contribute their own path; an empty
    /// object or array contributes its container path.
    ///
    /// This is what the golden snapshot tests pin: a serialization refactor
    /// that drops or renames a metric changes the path set even when every
    /// value changes too.
    pub fn field_paths(&self) -> Vec<String> {
        fn walk(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
            match v {
                JsonValue::Obj(entries) if !entries.is_empty() => {
                    for (k, child) in entries {
                        let path = if prefix.is_empty() {
                            k.clone()
                        } else {
                            format!("{prefix}.{k}")
                        };
                        walk(child, &path, out);
                    }
                }
                JsonValue::Arr(items) if !items.is_empty() => {
                    let path = format!("{prefix}[]");
                    for item in items {
                        walk(item, &path, out);
                    }
                }
                _ => out.push(prefix.to_string()),
            }
        }
        let mut out = Vec::new();
        walk(self, "", &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        self.write_fmt_value(out, Some(indent))
            .expect("writing to a String cannot fail");
    }

    /// The one serializer both string and streaming paths share.
    /// `indent: Some(level)` is the pretty form (two-space indentation,
    /// `": "` after keys); `None` is the compact form (no whitespace).
    fn write_fmt_value<W: fmt::Write>(&self, out: &mut W, indent: Option<usize>) -> fmt::Result {
        match self {
            JsonValue::Null => out.write_str("null"),
            JsonValue::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            JsonValue::Num(x) => {
                if x.is_finite() {
                    write!(out, "{x}")
                } else {
                    out.write_str("null")
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                match indent {
                    Some(level) => {
                        out.write_str("[\n")?;
                        for (i, v) in items.iter().enumerate() {
                            write_indent(out, level + 1)?;
                            v.write_fmt_value(out, Some(level + 1))?;
                            if i + 1 < items.len() {
                                out.write_char(',')?;
                            }
                            out.write_char('\n')?;
                        }
                        write_indent(out, level)?;
                        out.write_char(']')
                    }
                    None => {
                        out.write_char('[')?;
                        for (i, v) in items.iter().enumerate() {
                            if i > 0 {
                                out.write_char(',')?;
                            }
                            v.write_fmt_value(out, None)?;
                        }
                        out.write_char(']')
                    }
                }
            }
            JsonValue::Obj(entries) => {
                if entries.is_empty() {
                    return out.write_str("{}");
                }
                match indent {
                    Some(level) => {
                        out.write_str("{\n")?;
                        for (i, (k, v)) in entries.iter().enumerate() {
                            write_indent(out, level + 1)?;
                            write_escaped(out, k)?;
                            out.write_str(": ")?;
                            v.write_fmt_value(out, Some(level + 1))?;
                            if i + 1 < entries.len() {
                                out.write_char(',')?;
                            }
                            out.write_char('\n')?;
                        }
                        write_indent(out, level)?;
                        out.write_char('}')
                    }
                    None => {
                        out.write_char('{')?;
                        for (i, (k, v)) in entries.iter().enumerate() {
                            if i > 0 {
                                out.write_char(',')?;
                            }
                            write_escaped(out, k)?;
                            out.write_char(':')?;
                            v.write_fmt_value(out, None)?;
                        }
                        out.write_char('}')
                    }
                }
            }
        }
    }

    /// Parse a JSON document. Accepts everything this writer emits and
    /// standard JSON generally, including `\uXXXX` surrogate pairs (decoded
    /// to the astral code point they encode; lone surrogates are a parse
    /// error, as in RFC 8259 §8.2).
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let bytes = input.as_bytes();
        let mut p = Parser {
            src: input,
            bytes,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

/// Write `s` as a quoted, escaped JSON string — used for both string values
/// and object keys, so a key containing quotes or control characters still
/// produces a parseable document.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Two spaces per level — the only indentation the pretty form uses.
fn write_indent<W: fmt::Write>(out: &mut W, level: usize) -> fmt::Result {
    for _ in 0..level {
        out.write_str("  ")?;
    }
    Ok(())
}

/// Adapter from [`fmt::Write`] (the serializer core's bound) onto an
/// [`io::Write`] sink, parking the first io error so the caller can return
/// it instead of the unit [`fmt::Error`].
struct IoFmt<'a, W: io::Write> {
    inner: &'a mut W,
    err: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoFmt<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.err = Some(e);
            fmt::Error
        })
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, c: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Consume exactly four hex digits of a `\u` escape and return their
    /// value. The caller has already consumed the `\u` prefix.
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = &self.bytes[self.pos..self.pos + 4];
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = match code {
                                // High surrogate: must be immediately followed
                                // by a `\uDC00..=\uDFFF` low surrogate; the
                                // pair decodes to one astral code point.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(self.err("lone high surrogate in \\u escape"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err(
                                            "high surrogate not followed by a low surrogate",
                                        ));
                                    }
                                    let astral = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(astral)
                                        .expect("surrogate pairs always decode to a scalar")
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("lone low surrogate in \\u escape"))
                                }
                                _ => char::from_u32(code)
                                    .expect("non-surrogate BMP code points are scalars"),
                            };
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character. The input is a &str and
                    // `pos` only ever advances by whole characters, so it
                    // sits on a char boundary; decoding just the next
                    // character keeps parsing linear in the input length.
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .expect("pos is on a char boundary before the closing quote");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let v = JsonValue::obj(vec![
            ("a", JsonValue::Num(1.5)),
            ("b", JsonValue::str("x\"y\nz")),
            (
                "c",
                JsonValue::Arr(vec![
                    JsonValue::Bool(true),
                    JsonValue::Null,
                    JsonValue::Num(-3.25e-2),
                ]),
            ),
            ("d", JsonValue::obj(vec![("nested", JsonValue::Num(42.0))])),
            ("empty_obj", JsonValue::Obj(Vec::new())),
            ("empty_arr", JsonValue::Arr(Vec::new())),
        ]);
        let text = v.to_string_pretty();
        let back = JsonValue::parse(&text).expect("round trip parses");
        assert_eq!(back, v);
    }

    #[test]
    fn object_keys_are_escaped_like_values() {
        let v = JsonValue::Obj(vec![("a\"b\nc".to_string(), JsonValue::Num(1.0))]);
        let text = v.to_string_pretty();
        let back = JsonValue::parse(&text).expect("escaped keys keep the document parseable");
        assert_eq!(back, v);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let v = JsonValue::obj(vec![("nan", JsonValue::Num(f64::NAN))]);
        let text = v.to_string_pretty();
        assert!(text.contains("\"nan\": null"));
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back.get("nan"), Some(&JsonValue::Null));
    }

    #[test]
    fn dotted_path_lookup() {
        let v = JsonValue::obj(vec![(
            "engine",
            JsonValue::obj(vec![("intervals_per_sec", JsonValue::Num(123.0))]),
        )]);
        assert_eq!(
            v.get_path("engine.intervals_per_sec")
                .and_then(JsonValue::as_f64),
            Some(123.0)
        );
        assert_eq!(v.get_path("engine.missing"), None);
        assert_eq!(v.get_path("missing.intervals_per_sec"), None);
    }

    #[test]
    fn field_paths_capture_document_shape() {
        let doc = JsonValue::obj(vec![
            ("b", JsonValue::Num(1.0)),
            (
                "a",
                JsonValue::obj(vec![("x", JsonValue::Num(2.0)), ("y", JsonValue::str("s"))]),
            ),
            (
                "cells",
                JsonValue::Arr(vec![
                    JsonValue::obj(vec![("v", JsonValue::Num(1.0))]),
                    JsonValue::obj(vec![
                        ("v", JsonValue::Num(2.0)),
                        ("extra", JsonValue::Bool(true)),
                    ]),
                ]),
            ),
            ("empty_obj", JsonValue::obj(vec![])),
            ("empty_arr", JsonValue::Arr(vec![])),
        ]);
        assert_eq!(
            doc.field_paths(),
            vec![
                "a.x",
                "a.y",
                "b",
                "cells[].extra",
                "cells[].v",
                "empty_arr",
                "empty_obj",
            ]
        );
        // Paths are value-independent: same shape, different numbers.
        let other = JsonValue::obj(vec![("b", JsonValue::Num(99.0))]);
        assert_eq!(other.field_paths(), vec!["b"]);
        // A bare leaf yields its (empty) root path.
        assert_eq!(JsonValue::Num(1.0).field_paths(), vec![""]);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn every_escape_sequence_round_trips() {
        // All escapes the parser knows, as values and as keys.
        let s = "quote:\" back:\\ slash:/ nl:\n tab:\t cr:\r bs:\u{0008} ff:\u{000c}";
        let v = JsonValue::Obj(vec![(s.to_string(), JsonValue::str(s))]);
        let text = v.to_string_pretty();
        assert_eq!(JsonValue::parse(&text).expect("escapes parse"), v);
        // Explicit escape spellings parse to the same characters.
        let spelled = "\"quote:\\\" back:\\\\ slash:\\/ nl:\\n tab:\\t cr:\\r bs:\\b ff:\\f\"";
        assert_eq!(
            JsonValue::parse(spelled).unwrap(),
            JsonValue::str("quote:\" back:\\ slash:/ nl:\n tab:\t cr:\r bs:\u{0008} ff:\u{000c}")
        );
        // \uXXXX escapes, including a control character the writer emits.
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\\u0001\"").unwrap(),
            JsonValue::str("A\u{e9}\u{1}")
        );
        // Malformed escapes are rejected, not mangled.
        for bad in ["\"\\q\"", "\"\\u12\"", "\"\\uzzzz\"", "\"\\ud800\"", "\"\\"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_round_trip() {
        // A valid high/low pair decodes to the astral code point it encodes.
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::str("\u{1F600}")
        );
        // Pairs compose with surrounding text and other pairs.
        assert_eq!(
            JsonValue::parse("\"a\\ud835\\udd4c b\\ud83d\\ude80\"").unwrap(),
            JsonValue::str("a\u{1D54C} b\u{1F680}")
        );
        // The extremes of the surrogate-encodable range.
        assert_eq!(
            JsonValue::parse("\"\\ud800\\udc00\\udbff\\udfff\"").unwrap(),
            JsonValue::str("\u{10000}\u{10FFFF}")
        );
        // Escaped and literal spellings of the same string round-trip to the
        // same document: the writer emits astral characters as raw UTF-8.
        let v = JsonValue::obj(vec![("emoji", JsonValue::str("\u{1F600}\u{1F680}"))]);
        let text = v.to_string_pretty();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        assert_eq!(
            JsonValue::parse("{\"emoji\":\"\\uD83D\\uDE00\\uD83D\\uDE80\"}").unwrap(),
            v
        );
        // Lone surrogates — high without low, low first, high followed by a
        // BMP escape or literal text, truncated pair — are parse errors.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83dxx\"",
            "\"\\ud83d\\ud83d\\ude00\"",
            "\"\\ud83d\\u\"",
            "\"\\ud83d\\ude\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_strings_survive_the_round_trip() {
        for s in [
            "héllo wörld",
            "日本語テキスト",
            "emoji 🚀🔥",
            "mixed 𝕌𝕟𝕚¢ode",
        ] {
            let v = JsonValue::obj(vec![(s, JsonValue::str(s))]);
            let text = v.to_string_pretty();
            let back = JsonValue::parse(&text).expect("unicode parses");
            assert_eq!(back, v, "{s}");
        }
    }

    #[test]
    fn deep_nesting_round_trips() {
        // 200 levels of alternating arrays and single-key objects.
        let mut v = JsonValue::Num(1.0);
        for depth in 0..200 {
            v = if depth % 2 == 0 {
                JsonValue::Arr(vec![v])
            } else {
                JsonValue::obj(vec![("d", v)])
            };
        }
        let text = v.to_string_pretty();
        let back = JsonValue::parse(&text).expect("deep document parses");
        assert_eq!(back, v);
        // An unbalanced deep document is rejected.
        let unbalanced = "[".repeat(50);
        assert!(JsonValue::parse(&unbalanced).is_err());
    }

    /// Property test: random documents generated from the value model always
    /// serialize to text the parser maps back to the identical value.
    #[test]
    fn random_documents_round_trip() {
        fn gen(rng: &mut crate::rng::SplitMix64, depth: usize) -> JsonValue {
            match rng.next_usize(if depth == 0 { 4 } else { 6 }) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(rng.next_usize(2) == 0),
                2 => {
                    // Finite doubles over a wide dynamic range, incl. negatives.
                    let mag = (rng.next_f64() - 0.5) * 2.0;
                    let exp = rng.next_usize(13) as i32 - 6;
                    JsonValue::Num(mag * 10f64.powi(exp))
                }
                3 => {
                    let len = rng.next_usize(12);
                    let s: String = (0..len)
                        .map(|_| {
                            // Bias toward troublemakers: quotes, escapes,
                            // control chars, non-ASCII.
                            const POOL: &[char] =
                                &['a', 'β', '"', '\\', '\n', '\t', '\u{1}', '/', '🦀', ' '];
                            POOL[rng.next_usize(POOL.len())]
                        })
                        .collect();
                    JsonValue::Str(s)
                }
                4 => {
                    let len = rng.next_usize(4);
                    JsonValue::Arr((0..len).map(|_| gen(rng, depth - 1)).collect())
                }
                _ => {
                    let len = rng.next_usize(4);
                    JsonValue::Obj(
                        (0..len)
                            .map(|i| (format!("k{i}"), gen(rng, depth - 1)))
                            .collect(),
                    )
                }
            }
        }
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x150F_F1CE);
        for case in 0..500 {
            let v = gen(&mut rng, 4);
            let text = v.to_string_pretty();
            let back =
                JsonValue::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, v, "case {case} round trip\n{text}");
        }
    }

    /// The streaming `io::Write` path must be byte-identical to the string
    /// writer — BENCH files and Chrome traces written either way diff clean.
    #[test]
    fn streaming_writer_is_byte_identical_to_string_writer() {
        let docs = [
            JsonValue::Null,
            JsonValue::Num(f64::NAN),
            JsonValue::obj(vec![]),
            JsonValue::Arr(vec![]),
            JsonValue::obj(vec![
                ("a", JsonValue::Num(1.5)),
                ("esc\"key\n", JsonValue::str("x\"y\nz\u{1}")),
                (
                    "arr",
                    JsonValue::Arr(vec![
                        JsonValue::Bool(false),
                        JsonValue::obj(vec![("deep", JsonValue::Num(-3.25e-2))]),
                        JsonValue::Arr(vec![]),
                    ]),
                ),
                ("uni", JsonValue::str("日本語 🚀")),
            ]),
        ];
        for v in &docs {
            let mut compact = Vec::new();
            v.write_compact(&mut compact).expect("Vec sink cannot fail");
            assert_eq!(
                String::from_utf8(compact).unwrap(),
                v.to_string_compact(),
                "compact bytes diverge for {v:?}"
            );
        }
    }

    #[test]
    fn compact_form_round_trips_and_has_no_whitespace() {
        let v = JsonValue::obj(vec![
            ("a", JsonValue::Num(1.5)),
            (
                "b",
                JsonValue::Arr(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
            (
                "c",
                JsonValue::obj(vec![("n", JsonValue::str("s p a c e"))]),
            ),
        ]);
        let text = v.to_string_compact();
        assert_eq!(text, r#"{"a":1.5,"b":[null,true],"c":{"n":"s p a c e"}}"#);
        assert_eq!(JsonValue::parse(&text).expect("compact parses"), v);
    }

    #[test]
    fn streaming_writer_propagates_io_errors() {
        struct FailAfter(usize);
        impl std::io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "sink full",
                    ));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let v = JsonValue::obj(vec![("key", JsonValue::str("a long enough value"))]);
        let err = v
            .write_compact(&mut FailAfter(4))
            .expect_err("a full sink surfaces the io error");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn parser_handles_standard_json() {
        let v = JsonValue::parse("  {\"a\": [1, 2.5, -3e2], \"b\": \"\\u0041\"} ").unwrap();
        assert_eq!(
            v.get_path("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Num(-300.0)
            ]))
        );
        assert_eq!(v.get("b"), Some(&JsonValue::Str("A".to_string())));
    }
}
