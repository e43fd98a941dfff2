//! A tiny in-tree JSON document model and writer.
//!
//! The workspace is offline — no serde — yet the experiment engine and
//! the `reproduce` CLI both need to emit machine-readable reports whose
//! bytes are *deterministic*: the CI perf-trajectory baseline
//! (`BENCH_quick.json`) and the `--jobs 1` vs `--jobs N` golden test
//! both diff raw output. This module provides exactly what
//! those consumers need and nothing more:
//!
//! - an explicit [`Json`] tree (objects keep insertion order — no
//!   hash-map key shuffling),
//! - compact rendering via [`core::fmt::Display`] and pretty rendering
//!   via [`Json::to_pretty_string`],
//! - deterministic number formatting: integers render exactly; floats
//!   render with Rust's shortest-round-trip `{}` formatting; NaN and
//!   infinities (which JSON cannot represent) render as `null`.
//!
//! Parsing is deliberately out of scope.

use core::fmt;

/// A JSON value.
///
/// Object members keep the order they were inserted in, so rendering is
/// a pure function of construction order — a requirement for the
/// byte-identity guarantees in `docs/DETERMINISM.md`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// A float, rendered with shortest-round-trip formatting; NaN and
    /// infinities render as `null`.
    Num(f64),
    /// A string, escaped per RFC 8259.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member to an object and returns `self` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            // simlint: allow(S006): documented builder contract — chains start from Json::obj(), so this arm is an API-misuse guard, not a runtime path
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// Renders with two-space indentation and a trailing newline,
    /// suitable for committing as a baseline file.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write as _;
                // Compact form for scalars and empty containers; the
                // formatter writes into a String, which cannot fail.
                let _ = write!(out, "{other}");
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact rendering: no whitespace between tokens.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest round-trip formatting; force a decimal
                    // point so the value stays a float on re-read.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, key);
                    write!(f, "{buf}:{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        // Counters in this workspace stay far below 2^63; saturate
        // rather than wrap if one ever does not.
        Json::Int(i64::try_from(u).unwrap_or(i64::MAX))
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::Int(i64::from(u))
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::Int(i64::try_from(u).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let doc = Json::obj()
            .field("name", "fig04")
            .field("ok", true)
            .field("n", 3u64)
            .field("mean_us", 7.5)
            .field("rows", vec![1i64, 2, 3]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"fig04","ok":true,"n":3,"mean_us":7.5,"rows":[1,2,3]}"#
        );
    }

    #[test]
    fn pretty_rendering() {
        let doc = Json::obj()
            .field("a", 1i64)
            .field("b", Json::Arr(vec![Json::Int(2)]));
        assert_eq!(
            doc.to_pretty_string(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers_stay_compact_when_pretty() {
        let doc = Json::obj()
            .field("arr", Json::Arr(vec![]))
            .field("obj", Json::obj());
        assert_eq!(
            doc.to_pretty_string(),
            "{\n  \"arr\": [],\n  \"obj\": {}\n}\n"
        );
    }

    #[test]
    fn string_escaping() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
        assert_eq!(Json::Int(3).to_string(), "3");
    }

    #[test]
    fn u64_saturates() {
        assert_eq!(Json::from(u64::MAX), Json::Int(i64::MAX));
    }
}
