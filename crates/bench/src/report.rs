//! Text tables and CSV emission for the figure binaries.
//!
//! Every figure binary prints a human-readable table (paper value next to
//! measured value where the paper states one) and writes the raw series as
//! CSV under `bench-results/`. JSON documents go through [`Json`], the
//! workspace's one codec.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The workspace's JSON value (`limeqo_core::json`), re-exported for the
/// machine-readable summaries written here and for the crates that read
/// them back.
pub use limeqo_core::json::Json;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "{:>width$}  ", cell, width = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Write the table as CSV into `bench-results/<name>.csv`.
    pub fn write_csv_named(&self, name: &str) -> std::io::Result<PathBuf> {
        let rows: Vec<Vec<String>> =
            std::iter::once(self.header.clone()).chain(self.rows.iter().cloned()).collect();
        write_csv(name, &rows)
    }
}

/// Directory all figure binaries write their raw series to.
pub fn results_dir() -> PathBuf {
    let root = std::env::var("LIMEQO_RESULTS_DIR").unwrap_or_else(|_| {
        // Walk up from the crate to the workspace root if running via cargo.
        let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
        let p = Path::new(&manifest);
        p.ancestors()
            .nth(2)
            .unwrap_or(Path::new("."))
            .join("bench-results")
            .to_string_lossy()
            .into_owned()
    });
    PathBuf::from(root)
}

/// Write rows as `bench-results/<name>.csv`, creating the directory.
pub fn write_csv(name: &str, rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut body = String::new();
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        let _ = writeln!(body, "{}", line.join(","));
    }
    fs::write(&path, body)?;
    Ok(path)
}

/// Write a JSON document as `bench-results/<name>.json`.
pub fn write_json(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, value.render())?;
    Ok(path)
}

/// Format seconds compactly (`2.94h`, `181s`, `85ms`).
pub fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        "n/a".into()
    } else if s >= 3600.0 {
        format!("{:.2}h", s / 3600.0)
    } else if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligns() {
        let mut t = Table::new("demo", &["a", "long-col"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-col"));
        assert!(s.contains('1'));
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.94 * 3600.0), "2.94h");
        assert_eq!(fmt_secs(181.0), "181s");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(0.085), "85ms");
        assert_eq!(fmt_secs(f64::INFINITY), "n/a");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn json_renders_compact_and_escaped() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b\\c\n\r\t\u{1}".into())),
            ("ok".into(), Json::Bool(true)),
            ("vals".into(), Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN), Json::Null])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"a\"b\\c\n\r\t\u0001","ok":true,"vals":[1.5,null,null]}"#
        );
    }

    #[test]
    fn json_numbers_roundtrip_shortest() {
        assert_eq!(Json::Num(0.1).render(), "0.1");
        assert_eq!(Json::Num(3.0).render(), "3");
    }

    #[test]
    fn json_parse_roundtrips_rendered_documents() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b\\c\nd\tе".into())),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("vals".into(), Json::Arr(vec![Json::Num(1.5), Json::Num(-2e-3), Json::Num(3.0)])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let parsed = Json::parse(&v.render()).expect("round trip");
        assert_eq!(parsed, v);
    }

    #[test]
    fn json_parse_accepts_whitespace_and_unicode_escapes() {
        let parsed = Json::parse(" { \"k\" : [ 1 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(parsed.get("k"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Str("A".into())])));
        assert_eq!(parsed.get("k").and_then(|v| v.as_num()), None);
        let escapes = r#""\/\b\f\ud83d\ude00\udbff\udfff""#;
        assert_eq!(Json::parse(escapes), Ok(Json::Str("/\u{8}\u{c}😀\u{10FFFF}".into())));
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        for bad in ["-", "[1 2]", "{\"a\" 1}", "{1:2}", "\"a\nb\"", "\"\\q\"", "\"\\u+041\"", "é"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn json_get_and_as_num_accessors() {
        let v = Json::parse("{\"a\":2.5,\"b\":\"x\"}").unwrap();
        assert_eq!(v.get("a").and_then(|x| x.as_num()), Some(2.5));
        assert!(v.get("b").and_then(|x| x.as_num()).is_none());
        assert!(v.get("missing").is_none());
        assert!(Json::Num(1.0).get("a").is_none());
    }
}
