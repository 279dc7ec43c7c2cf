//! A minimal JSON reader and string escaper.
//!
//! The build environment has no registry, so there is no `serde`; the
//! benchmark needs to read `BENCHMARK.json` and its own result files, and to
//! write flat objects. This parser accepts standard JSON and nothing more.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep their keys sorted.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { src: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Member of an object, if this is an object and has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = BTreeMap::new();
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    if !members.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    members.insert(key, self.value()?);
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let stop = rest
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(std::str::from_utf8(&rest[..stop]).map_err(|e| e.to_string())?);
            self.pos += stop + 1;
            if rest[stop] == b'"' {
                return Ok(out);
            }
            let esc = *self.src.get(self.pos).ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .src
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    self.pos += 4;
                    out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            }
        }
    }
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits; non-finite values become `0`
/// (JSON has no NaN, and a metric that could not be computed reads 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage_and_unterminated_strings() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn quote_round_trips() {
        let s = "a\"b\\c\nd\u{1}";
        assert_eq!(Json::parse(&quote(s)).unwrap().as_str(), Some(s));
    }
}
