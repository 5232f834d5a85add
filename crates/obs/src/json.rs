//! The workspace's one JSON parser and string escaper (no serde: see
//! README "Offline builds and dependencies"). It reads artifacts back for
//! validation and parses *untrusted daemon input* — job specs posted to
//! `ipsim_serve`, journal lines after a crash — so any input yields `Ok`
//! or `Err`, never a panic: nesting beyond [`MAX_DEPTH`] is an error, not
//! a deeper recursion. Numbers parse as `f64`, so writers encode 64-bit
//! line addresses as hex strings.

/// Deepest array/object nesting [`parse`] accepts: far above anything
/// the workspace writes, far below what would overflow a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is an exact one in `0..=2^53`, the
    /// range in which a JSON double holds every integer. Negative,
    /// fractional and larger numbers give `None` rather than a cast's
    /// clamped or truncated value.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match *self {
            Json::Num(n) if (0.0..=MAX_EXACT).contains(&n) && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or
/// of trailing garbage after the document.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-ascii \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape at byte {}", *pos))?;
                        // Surrogates are not reassembled — the sinks never
                        // emit them, so validation treats them as opaque.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(&b) => {
                // Consume one multi-byte UTF-8 scalar. The input is a
                // &str, so the leading byte determines a valid sequence
                // length; re-validating only that slice keeps string
                // parsing linear (validating the whole tail per character
                // made large artifacts quadratic to parse).
                let len = match b {
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk =
                    std::str::from_utf8(&bytes[*pos..*pos + len]).expect("valid utf8 scalar");
                out.push(chunk.chars().next().expect("non-empty"));
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Appends `text` escaped for a JSON string literal (quotes not
/// included): runs of plain bytes are copied whole, and only `"`, `\\`
/// and control characters are rewritten.
pub fn escape_into(buf: &mut Vec<u8>, text: &str) {
    let mut rest = text.as_bytes();
    while let Some(i) = rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
    {
        buf.extend_from_slice(&rest[..i]);
        match rest[i] {
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            quoted @ (b'"' | b'\\') => buf.extend_from_slice(&[b'\\', quoted]),
            control => {
                let hex = b"0123456789abcdef";
                buf.extend_from_slice(b"\\u00");
                buf.extend_from_slice(&[
                    hex[usize::from(control >> 4)],
                    hex[usize::from(control & 0xf)],
                ]);
            }
        }
        rest = &rest[i + 1..];
    }
    buf.extend_from_slice(rest);
}

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape(text: &str) -> String {
    let mut out = Vec::with_capacity(text.len());
    escape_into(&mut out, text);
    String::from_utf8(out).expect("escaping keeps UTF-8 intact")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".to_string()));
        let doc = parse(r#"{"a": [1, 2, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(doc.get("c"), Some(&Json::Bool(false)));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_recursed() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}0{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for doc in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(10_000),
            r#"{"a":["#.repeat(100_000),
        ] {
            let err = parse(&doc).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        for nasty in ["he said \"hi\"\n\tback\\slash\u{1}", "a\"b\\c\nd", "\u{1}"] {
            let doc = format!("\"{}\"", escape(nasty));
            assert_eq!(parse(&doc).unwrap(), Json::Str(nasty.to_string()));
        }
    }

    #[test]
    fn as_u64_takes_only_exact_non_negative_integers() {
        let num = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(num("0"), Some(0));
        assert_eq!(num("-0"), Some(0));
        assert_eq!(num("42"), Some(42));
        assert_eq!(num("1.5e1"), Some(15));
        assert_eq!(num("1e3"), Some(1_000));
        assert_eq!(num("9007199254740992"), Some(1 << 53));
        for bad in [
            "-5",
            "-1",
            "1.5",
            "0.9",
            "1e30",
            "9007199254740994",
            "\"7\"",
            "null",
        ] {
            assert_eq!(num(bad), None, "{bad}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".to_string()));
    }
}
