//! The workspace's one JSON codec: a strict parser for one value per
//! line, and the compact writer every JSON line the program emits goes
//! through (the store's on-disk header and record renderers aside). The
//! parser borrows from its input where it can — a string without escapes
//! is a slice of the line (the store's long hex embedding fields), and a
//! number is kept as its source text, so a `u64` fingerprint or a
//! `{:?}`-printed `f64` reads back exactly. Malformed input, trailing
//! bytes, or arrays and objects nested deeper than 32 give `None`, never
//! a panic.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Deepest array/object nesting [`parse`] accepts.
const MAX_DEPTH: usize = 32;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(Cow<'a, str>),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, keys in source order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// An object of `fields`, in order.
    pub fn obj(fields: impl IntoIterator<Item = (&'a str, Value<'a>)>) -> Self {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An object's value under `key` (the last, should it repeat).
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        let Value::Obj(fields) = self else {
            return None;
        };
        fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// [`Value::get`] along a path of keys.
    pub fn path(&self, keys: &[&str]) -> Option<&Value<'a>> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        let Value::Bool(b) = self else { return None };
        Some(*b)
    }

    /// A number read as `T` (`None` if it does not fit: `1.5` is no `u32`).
    pub fn num<T: FromStr>(&self) -> Option<T> {
        let Value::Num(text) = self else { return None };
        text.parse().ok()
    }

    /// An array whose every element is a number of type `T`.
    pub fn nums<T: FromStr>(&self) -> Option<Vec<T>> {
        let Value::Arr(items) = self else { return None };
        items.iter().map(Value::num).collect()
    }
}

impl From<u64> for Value<'_> {
    fn from(n: u64) -> Self {
        Value::Num(n.to_string().into())
    }
}

impl From<usize> for Value<'_> {
    fn from(n: usize) -> Self {
        Value::Num(n.to_string().into())
    }
}

/// Rust's shortest round-trip form (`{:?}`: `562.0`, `1e-7`), which
/// [`Value::num`] reads back to the same bits. Only finite values make
/// valid JSON.
impl From<f64> for Value<'_> {
    fn from(x: f64) -> Self {
        Value::Num(format!("{x:?}").into())
    }
}

impl From<bool> for Value<'_> {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(s: &'a str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value<'_> {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

/// `None` is `null`.
impl<'a, T: Into<Value<'a>>> From<Option<T>> for Value<'a> {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Compact JSON, written straight into the formatter: strings quoted
/// with quotes, backslashes and control characters escaped (`\uXXXX`),
/// everything else copied; numbers as their text.
impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Num(text) => f.write_str(text),
            Value::Str(s) => quote(f, s),
            Value::Arr(items) => list(f, ['[', ']'], items, |f, v| v.fmt(f)),
            Value::Obj(fields) => list(f, ['{', '}'], fields, |f, (k, v)| {
                quote(f, k)?;
                f.write_char(':')?;
                v.fmt(f)
            }),
        }
    }
}

/// `items` written by `item`, comma-separated between `open` and `close`.
fn list<T>(
    f: &mut fmt::Formatter<'_>,
    [open, close]: [char; 2],
    items: &[T],
    item: impl Fn(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    f.write_char(open)?;
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        item(f, x)?;
    }
    f.write_char(close)
}

/// Writes `s` as a string literal, copying each run of plain bytes whole.
/// The bytes escaped are all ASCII, so every run ends on a char boundary.
fn quote(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b == b'"' || b == b'\\' || b < 0x20 {
            f.write_str(&s[run..i])?;
            match b {
                b'"' | b'\\' => write!(f, "\\{}", char::from(b))?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
    }
    f.write_str(&s[run..])?;
    f.write_char('"')
}

/// Parses `text` as exactly one JSON value, surrounding whitespace
/// allowed.
pub fn parse(text: &str) -> Option<Value<'_>> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value(0)?;
    p.ws();
    (p.i == text.len()).then_some(v)
}

struct Parser<'a> {
    s: &'a str,
    /// Offset of the next byte. It only ever stops on an ASCII byte or
    /// the end, so every slice taken at it is on a char boundary.
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Advances over bytes matching `keep`; whether it moved.
    fn skip(&mut self, keep: impl Fn(u8) -> bool) -> bool {
        let start = self.i;
        while self.peek().is_some_and(&keep) {
            self.i += 1;
        }
        self.i > start
    }

    /// Comma-separated items up to `close` (the opener already read).
    fn list(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.ws();
        if self.eat(close) {
            return Some(());
        }
        loop {
            item(self)?;
            self.ws();
            if !self.eat(b',') {
                return self.eat(close).then_some(());
            }
        }
    }

    fn value(&mut self, depth: usize) -> Option<Value<'a>> {
        self.ws();
        let first = self.peek()?;
        if matches!(first, b'{' | b'[') && depth >= MAX_DEPTH {
            return None;
        }
        for (word, v) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.s[self.i..].starts_with(word) {
                self.i += word.len();
                return Some(v);
            }
        }
        match first {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.list(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.eat(b':').then_some(())?;
                    fields.push((key, p.value(depth + 1)?));
                    Some(())
                })?;
                Some(Value::Obj(fields))
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Some(())
                })?;
                Some(Value::Arr(items))
            }
            b'"' => self.string().map(Value::Str),
            _ => self.number(),
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Option<Value<'a>> {
        let start = self.i;
        self.eat(b'-');
        let digit = |b: u8| b.is_ascii_digit();
        match self.peek()? {
            b'0' => self.i += 1,
            b'1'..=b'9' => _ = self.skip(digit),
            _ => return None,
        }
        if self.eat(b'.') && !self.skip(digit) {
            return None;
        }
        if self.eat(b'e') || self.eat(b'E') {
            _ = self.eat(b'+') || self.eat(b'-');
            if !self.skip(digit) {
                return None;
            }
        }
        Some(Value::Num(Cow::Borrowed(&self.s[start..self.i])))
    }

    fn string(&mut self) -> Option<Cow<'a, str>> {
        let plain = |b: u8| b != b'"' && b != b'\\' && b >= 0x20;
        if !self.eat(b'"') {
            return None;
        }
        let start = self.i;
        self.skip(plain);
        if self.eat(b'"') {
            return Some(Cow::Borrowed(&self.s[start..self.i - 1]));
        }
        let mut out = String::from(&self.s[start..self.i]);
        loop {
            let run = self.i;
            if self.skip(plain) {
                out.push_str(&self.s[run..self.i]);
            } else if self.eat(b'"') {
                return Some(Cow::Owned(out));
            } else if self.eat(b'\\') {
                let escape = self.peek()?;
                self.i += 1;
                out.push(match escape {
                    b'"' | b'\\' | b'/' => char::from(escape),
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => self.unicode_escape()?,
                    _ => return None,
                });
            } else {
                return None; // a raw control character, or the end
            }
        }
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.s.get(self.i..self.i + 4)?;
        self.i += 4;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u32::from_str_radix(digits, 16).ok()
    }

    /// A `\uXXXX` escape (its `\u` already read), joining a UTF-16
    /// surrogate pair; a lone surrogate is malformed.
    fn unicode_escape(&mut self) -> Option<char> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi);
        }
        if !(self.eat(b'\\') && self.eat(b'u')) {
            return None;
        }
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return None;
        }
        char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy;
    use rand::Rng;

    #[test]
    fn parses_every_kind_and_borrows_plain_strings() {
        let v = parse(r#" {"a":[1,-2.5e3,0],"b":{"c":null},"d":true,"e":"plain","f":"x\"y"} "#)
            .expect("valid");
        assert_eq!(
            v.get("a").and_then(Value::nums::<f64>),
            Some(vec![1.0, -2500.0, 0.0])
        );
        assert_eq!(v.path(&["b", "c"]), Some(&Value::Null));
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert!(matches!(
            v.get("e"),
            Some(Value::Str(Cow::Borrowed("plain")))
        ));
        assert_eq!(v.get("f").and_then(Value::as_str), Some("x\"y"));
        // Only the path walks into nested objects.
        assert!(v.get("c").is_none());
    }

    #[test]
    fn conversions_write_their_text_forms() {
        let v = Value::obj([
            ("n", 7u64.into()),
            ("i", 3usize.into()),
            ("x", 562.0.into()),
            ("tiny", 1e-7.into()),
            ("b", false.into()),
            ("s", String::from("a\"b\\c\n\u{1f}é").into()),
            ("none", None::<u64>.into()),
            ("some", Some("x").into()),
            ("arr", Value::Arr(vec![Value::Null, Value::obj([])])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"n":7,"i":3,"x":562.0,"tiny":1e-7,"b":false,"s":"a\"b\\c\u000a\u001fé","none":null,"some":"x","arr":[null,{}]}"#
        );
    }

    #[test]
    fn escapes_and_surrogate_pairs_decode() {
        let v = parse(r#""C432 😀\ud83d\ude00\u00e9 \/\b\f\n\r\t\\""#).expect("valid");
        assert_eq!(
            v.as_str(),
            Some("C432 \u{1F600}\u{1F600}é /\u{8}\u{c}\n\r\t\\")
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dA""#,
            r#""\u12g4""#,
            r#""\u+123""#,
        ] {
            assert!(parse(bad).is_none(), "accepted {bad}");
        }
    }

    #[test]
    fn malformed_input_is_none() {
        for bad in [
            "",
            " ",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "+1",
            "tru",
            "nul",
            "\"open",
            "\"tab\there\"",
            "[1] x",
            "{} {}",
            "NaN",
            "Infinity",
        ] {
            assert!(parse(bad).is_none(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deep).is_some());
        let deeper = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deeper).is_none());
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = parse("[18446744073709551615,-0.0,1e-7,0.30000000000000004]").expect("valid");
        let Value::Arr(items) = v else {
            panic!("not an array")
        };
        assert_eq!(items[0].num::<u64>(), Some(u64::MAX));
        assert_eq!(
            items[1].num::<f64>().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(items[2].num::<f64>(), Some(1e-7));
        assert_eq!(items[3].num::<f64>(), Some(0.1 + 0.2));
        assert_eq!(items[3].num::<u32>(), None);
    }

    fn random_string(rng: &mut impl Rng) -> String {
        const POOL: [char; 12] = [
            'a',
            'Z',
            '0',
            '"',
            '\\',
            '/',
            '\n',
            '\u{1}',
            '\u{1f}',
            'é',
            '\u{FFFF}',
            '\u{1F600}',
        ];
        let len = rng.gen_range(0..6usize);
        (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect()
    }

    fn random_value(rng: &mut impl Rng, depth: usize) -> Value<'static> {
        const FLOATS: [f64; 10] = [
            0.0,
            -0.0,
            0.1,
            1e-7,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::MIN,
            1e21,
            -123.456,
        ];
        match rng.gen_range(0..if depth >= 4 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_range(0..2u8) == 1),
            2 => Value::from(if rng.gen_range(0..2u8) == 1 {
                u64::MAX
            } else {
                rng.gen_range(0..1000u64)
            }),
            3 => Value::Num(format!("{:?}", FLOATS[rng.gen_range(0..FLOATS.len())]).into()),
            4 | 5 => Value::Str(random_string(rng).into()),
            6 => Value::Arr(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (Cow::Owned(random_string(rng)), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// Render then parse is the identity on random nested values, floats
    /// compared bit for bit (the kept number text reproduces the bits).
    #[test]
    fn property_random_values_round_trip() {
        let mut rng = proptest::rng_for_test("property_random_values_round_trip");
        for _ in 0..500 {
            let v = random_value(&mut rng, 0);
            let text = v.to_string();
            let back = parse(&text).unwrap_or_else(|| panic!("own output rejected: {text}"));
            assert_eq!(back, v, "{text}");
            if let Value::Num(t) = &v {
                let bits = |s: &str| s.parse::<f64>().map(f64::to_bits).ok();
                assert_eq!(bits(t), back.num::<f64>().map(f64::to_bits));
            }
            // The same text written entirely as `\uXXXX` escapes, astral
            // characters as UTF-16 surrogate pairs, reads back too.
            let s = random_string(&mut rng);
            let escaped: String = s.encode_utf16().map(|u| format!("\\u{u:04x}")).collect();
            let literal = format!("\"{escaped}\"");
            let back = parse(&literal).expect("escaped string parses");
            assert_eq!(back.as_str(), Some(s.as_str()));
        }
    }

    /// Single-byte mutations and truncations of real store, summary and
    /// event lines never panic the parser.
    #[test]
    fn property_mutated_lines_never_panic() {
        let lines = [
            r#"{"v":2,"model":"deadbeefcafef00d","k":3,"alpha_bits":"3fb999999999999a","alpha":0.1,"dim":8,"lib":"p6s1n7t1"}"#,
            r#"{"t":"s","ec":1,"eng":"ec","cert":"certified","nf":[0,1,2],"ce":[0,1,1,2],"se":[],"col":[0,1,0],"cn":0,"st":0}"#,
            r#"{"t":"u","i":3,"fp":18446744073709551615,"eng":"ilp","cert":"degraded","bf":true,"col":[2,0],"cn":1,"st":0}"#,
            r#"{"event":"done","job":"j1","summary":{"layout":"a\"bé","units":4,"seed":null,"cost":{"conflicts":0,"objective":1e-7}}}"#,
        ];
        let mut rng = proptest::rng_for_test("property_mutated_lines_never_panic");
        for line in lines {
            let bytes = line.as_bytes();
            for cut in 0..bytes.len() {
                let _ = parse(&String::from_utf8_lossy(&bytes[..cut]));
            }
            let strategy = (0usize..bytes.len(), 0u8..=255u8);
            for _ in 0..400 {
                let (pos, val) = strategy.sample_value(&mut rng);
                let mut mutated = bytes.to_vec();
                mutated[pos] = val;
                let _ = parse(&String::from_utf8_lossy(&mutated));
            }
        }
    }
}
