//! The workspace's one JSON codec: the [`Json`] value, one parser, one
//! string escaper and one writer.
//!
//! Every JSON document in the workspace goes through this module: the
//! daemon's protocol lines and its `svc-config.json`, the bench reports and
//! perf trajectories, and the scenario files under `scenarios/`.
//!
//! * [`parse_located`] is the parser. Its [`Located`] tree remembers the
//!   1-based line each value starts on, which the scenario loader turns
//!   into `file:line: field.path` errors; [`Json::parse`] drops the lines.
//!   Nesting is bounded at [`MAX_DEPTH`], so no input can overflow the
//!   stack.
//! * [`Json::render`] writes the compact layout and [`Json::render_pretty`]
//!   the multi-line layout that is the scenario files' canonical form.
//!   Numbers print with Rust's shortest round-trip formatting, so a finite
//!   number re-parses to the same bits and equal values always serialize
//!   to equal bytes. Non-finite numbers render as `null`.

use std::fmt::Write as _;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite number renders as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serialize to the multi-line layout: one object field or non-scalar
    /// array item per line, indented two spaces per level, `"key": value`,
    /// and arrays of numbers and strings kept on one line as `[a, b]`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Parse a JSON document ([`parse_located`] without the lines).
    pub fn parse(s: &str) -> Result<Json, String> {
        parse_located(s).map(Located::into_json).map_err(|(_, msg)| msg)
    }

    /// Field lookup on an object (None for other variants or missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Write compactly when `indent` is `None`, else in the multi-line
    /// layout at nesting level `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                let scalars = items.iter().all(|i| matches!(i, Json::Num(_) | Json::Str(_)));
                let (indent, sep) = match indent {
                    Some(_) if scalars => (None, ", "),
                    _ => (indent, ","),
                };
                write_items(out, ['[', ']'], items.iter().map(|v| (None, v)), indent, sep);
            }
            Json::Obj(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_items(out, ['{', '}'], items, indent, ",");
            }
        }
    }
}

/// Write an array's or object's `items` between `brackets`: on one line
/// joined by `sep` when `indent` is `None`, else one item per line at
/// level `indent + 1`.
fn write_items<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    indent: Option<usize>,
    sep: &str,
) {
    out.push(open);
    let mut any = false;
    for (i, (key, value)) in items.enumerate() {
        any = true;
        match indent {
            Some(level) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                out.push_str(&"  ".repeat(level + 1));
            }
            None if i > 0 => out.push_str(sep),
            None => {}
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, indent.map(|level| level + 1));
    }
    if let (Some(level), true) = (indent, any) {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// Write `s` as a quoted JSON string.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parsed value with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Located {
    /// The value.
    pub node: Node,
    /// The line the value starts on.
    pub line: usize,
}

/// [`Json`]'s variants with [`Located`] children.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Located>),
    /// An object with its keys in document order.
    Obj(Vec<(String, Located)>),
}

impl Located {
    /// The value without its lines.
    fn into_json(self) -> Json {
        match self.node {
            Node::Null => Json::Null,
            Node::Bool(b) => Json::Bool(b),
            Node::Num(v) => Json::Num(v),
            Node::Str(s) => Json::Str(s),
            Node::Arr(items) => Json::Arr(items.into_iter().map(Located::into_json).collect()),
            Node::Obj(fields) => {
                Json::Obj(fields.into_iter().map(|(k, v)| (k, v.into_json())).collect())
            }
        }
    }

    /// The value's kind for error messages ("a number", "an object", …).
    pub fn kind(&self) -> &'static str {
        match self.node {
            Node::Null => "null",
            Node::Bool(_) => "a boolean",
            Node::Num(_) => "a number",
            Node::Str(_) => "a string",
            Node::Arr(_) => "an array",
            Node::Obj(_) => "an object",
        }
    }
}

/// Deepest array/object nesting [`parse_located`] accepts. Parsing
/// recurses once per level, so the bound keeps any input, including a
/// daemon request line, from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document into a [`Located`] tree. An error carries the
/// 1-based line it was found on and a message.
pub fn parse_located(src: &str) -> Result<Located, (usize, String)> {
    let mut p = Parser { src, pos: 0, line: 1, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err((p.line, "trailing content after the top-level value".into()));
    }
    Ok(v)
}

type ParseResult<T> = Result<T, (usize, String)>;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b'\n' => self.line += 1,
                b' ' | b'\t' | b'\r' => {}
                _ => break,
            }
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> ParseResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err((self.line, format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> ParseResult<Located> {
        self.skip_ws();
        let line = self.line;
        let node = match self.peek() {
            Some(b'{') => self.nested(Self::object)?,
            Some(b'[') => self.nested(Self::array)?,
            Some(b'"') => Node::Str(self.string()?),
            Some(b't') => self.keyword("true", Node::Bool(true))?,
            Some(b'f') => self.keyword("false", Node::Bool(false))?,
            Some(b'n') => self.keyword("null", Node::Null)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            Some(_) => {
                let c = self.src[self.pos..].chars().next().unwrap_or_default();
                return Err((line, format!("unexpected character {c:?}")));
            }
            None => return Err((line, "unexpected end of input".into())),
        };
        Ok(Located { node, line })
    }

    /// Parse an array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> ParseResult<Node>) -> ParseResult<Node> {
        if self.depth == MAX_DEPTH {
            return Err((self.line, format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let node = parse(self);
        self.depth -= 1;
        node
    }

    fn keyword(&mut self, word: &str, node: Node) -> ParseResult<Node> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(node)
        } else {
            Err((self.line, format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> ParseResult<Node> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse().map(Node::Num).map_err(|_| (self.line, format!("invalid number {text:?}")))
    }

    fn string(&mut self) -> ParseResult<String> {
        let line = self.line;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.src[self.pos..].chars().next();
            match c {
                None | Some('\n') => return Err((line, "unterminated string".into())),
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or((line, "unterminated escape".to_string()))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape(line)?,
                        other => return Err((line, format!("unknown escape \\{}", other as char))),
                    });
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The code point of a `\u` escape whose `\u` was just consumed,
    /// joining a UTF-16 surrogate pair into one scalar.
    fn unicode_escape(&mut self, line: usize) -> ParseResult<char> {
        let hi = self.hex4(line)?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.src[self.pos..].starts_with("\\u") {
                return Err((line, "lone surrogate in \\u escape".into()));
            }
            self.pos += 2;
            let lo = self.hex4(line)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err((line, "bad surrogate pair in \\u escape".into()));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or((line, "bad \\u escape".into()))
    }

    fn hex4(&mut self, line: usize) -> ParseResult<u32> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or((line, "bad \\u escape".to_string()))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| (line, "bad \\u escape".to_string()))
    }

    fn object(&mut self) -> ParseResult<Node> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Node::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':').map_err(|_| (self.line, "expected ':' after key".to_string()))?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Node::Obj(fields));
                }
                _ => return Err((self.line, "expected ',' or '}' in object".into())),
            }
        }
    }

    fn array(&mut self) -> ParseResult<Node> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Node::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Node::Arr(items));
                }
                _ => return Err((self.line, "expected ',' or ']' in array".into())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The compact writer, the escapes, the parser's basics and the
    //! accessors are pinned by `limeqo_bench::report`'s tests, through the
    //! re-export the daemon and the benchmark import; these cover the rest.
    use super::*;

    #[test]
    fn pretty_layout_keeps_scalar_arrays_on_one_line() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("x".into())),
            ("pair".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
            (
                "list".into(),
                Json::Arr(vec![Json::Obj(vec![("on".into(), Json::Bool(false))]), Json::Null]),
            ),
        ]);
        let want = r#"{
  "name": "x",
  "pair": [1, 2.5],
  "empty": [],
  "none": {},
  "list": [
    {
      "on": false
    },
    null
  ]
}"#;
        assert_eq!(v.render_pretty(), want);
        assert_eq!(Json::parse(want), Ok(v));
    }

    /// A high surrogate must be followed by a low one: anything else is an
    /// error, never an arithmetic overflow or a silently wrong character.
    #[test]
    fn bad_surrogate_pairs_are_errors() {
        for bad in [
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800\ue000""#,
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\udc00""#,
            r#"{"op":"\ud800\u0041"}"#,
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains("\\u escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        // Far past any stack: an error, not an overflow.
        let hostile = format!("{{\"op\":{}", "[{\"a\":".repeat(100_000));
        assert!(Json::parse(&hostile).unwrap_err().contains("nesting"));
    }

    #[test]
    fn located_values_carry_their_lines() {
        let v = parse_located("{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}").unwrap();
        assert_eq!(v.line, 1);
        let Node::Obj(fields) = &v.node else { panic!("an object") };
        assert_eq!((fields[0].1.line, fields[1].1.line), (2, 3));
        let Node::Arr(items) = &fields[1].1.node else { panic!("an array") };
        assert_eq!((items[0].line, items[0].kind()), (4, "a boolean"));
        assert_eq!(parse_located("{\n\n  oops\n}").unwrap_err().0, 3);
    }
}
