//! The workspace's one JSON implementation: a strict parser ([`parse`]
//! into [`Value`]) and the two writer helpers ([`escape`], [`number`])
//! that every hand-ordered exporter builds its output from.
//!
//! The workspace builds offline, so it cannot pull in a JSON crate. The
//! exporters keep writing their fields in a fixed order by hand; this
//! module only makes sure they all escape strings and format numbers the
//! same way. The parser reads untrusted files (`perfdiff` baselines,
//! exported traces), so it is bounded: nesting deeper than [`MAX_DEPTH`]
//! and duplicate object keys are errors, and string decoding is linear in
//! the input. Numbers parse as `f64`; `\uXXXX` escapes decode the BMP and
//! reject surrogates.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::Write as _;

/// The deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Escapes a string for a JSON string literal (without the quotes), per
/// RFC 8259: `"`, `\` and control characters are escaped, everything else
/// passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON number. JSON has no NaN or infinity, so
/// non-finite values are written as `0`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a description, with its byte offset, of the first syntax error,
/// duplicate object key, nesting deeper than [`MAX_DEPTH`], or trailing
/// data after the document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.seq(b'}', |p| {
                    let key_at = p.pos;
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    match map.entry(key) {
                        Entry::Occupied(e) => Err(format!(
                            "duplicate key \"{}\" at byte {key_at}",
                            escape(e.key())
                        )),
                        Entry::Vacant(e) => {
                            e.insert(p.value()?);
                            Ok(())
                        }
                    }
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Reads the comma-separated items of an array or object (`item`
    /// reads one) from its opening bracket through `close`, one nesting
    /// level deeper than the caller.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        return Err(format!(
                            "expected ',' or '{}' at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number '{s}' at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = char::from_u32(code).ok_or_else(|| {
                                format!("invalid \\u{code:04x} escape at byte {}", self.pos - 6)
                            })?;
                            out.push(c);
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at byte {}",
                                other as char,
                                self.pos - 2
                            ))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("unescaped control character at byte {}", self.pos))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte at once. Those are ASCII, so the run ends
                    // on a char boundary of the (already valid UTF-8) input.
                    let run = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_report_shaped_document() {
        let doc = r#"{"id":"fig01","notes":["a \"quoted\" note"],
            "tables":[{"title":"T","headers":["h1","h2"],
            "rows":[["1.00x","60.7%"],["2.50ms","3.00GB"]]}],"n":-1.5e2}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig01"));
        assert_eq!(v.get("n"), Some(&Value::Num(-150.0)));
        let tables = v.get("tables").unwrap().as_arr().unwrap();
        let rows = tables[0].get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("3.00GB"));
        assert_eq!(
            v.get("notes").unwrap().as_arr().unwrap()[0].as_str(),
            Some("a \"quoted\" note")
        );
    }

    #[test]
    fn escapes_decode() {
        let v = parse(r#""a\n\tA\\""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\tA\\"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "12 34",
            "tru",
            "[1]x",
            "\"a\nb\"",
            "\"\\u12\"",
            "\"\\u+abc\"",
            "\"\\x\"",
            "",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_lone_surrogate_escape() {
        assert!(parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn empty_containers_and_unicode() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
        assert_eq!(parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
    }

    #[test]
    fn escape_and_number_write_rfc_8259() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("é😀"), "é😀");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_limit() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past the limit: an error, not a stack overflow.
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.starts_with("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn duplicate_keys_are_errors() {
        let err = parse(r#"{"id":"a","id":"b"}"#).unwrap_err();
        assert_eq!(err, "duplicate key \"id\" at byte 10");
        let err = parse(r#"{"t":[{"rows":1, "x":2, "rows":3}]}"#).unwrap_err();
        assert!(err.starts_with("duplicate key \"rows\" at byte"), "{err}");
        // The same key in sibling objects is fine.
        assert!(parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn long_mixed_strings_decode_exactly() {
        // Every control, ASCII and Latin/IPA character, plus 3- and 4-byte
        // UTF-8, written by `escape` and read back.
        let unit: String = (0u32..0x300)
            .filter_map(char::from_u32)
            .chain(['€', '😀'])
            .collect();
        let text = unit.repeat(100);
        let doc = format!("\"{}\"", escape(&text));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(text.as_str()));
        let raw = "ü€😀x".repeat(10_000);
        assert_eq!(
            parse(&format!("\"{raw}\"")).unwrap().as_str(),
            Some(raw.as_str())
        );
    }

    #[test]
    fn string_parsing_is_linear() {
        // 1 MiB of mixed ASCII, multi-byte characters and escapes. Linear
        // decoding takes milliseconds even unoptimised; a decoder that
        // re-validates the rest of the input per character takes minutes.
        let unit = "abcdé€😀\\n";
        let body = unit.repeat((1 << 20) / unit.len());
        let doc = format!("\"{body}\"");
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            v.as_str().unwrap().len(),
            body.len() - body.len() / unit.len()
        );
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB string took {elapsed:?}"
        );
    }
}
