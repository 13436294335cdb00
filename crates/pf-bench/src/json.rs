//! The one JSON value and the one renderer behind every `BENCH_*.json`.
//!
//! A campaign builds a [`Json`] from its typed report, naming each field
//! once with its value beside it, and tags the numbers it read off the wall
//! clock as [`Json::Wall`]: those are the only ones allowed to differ
//! between two runs of the same code (`tests/artifacts.rs` holds every
//! committed artifact to that).
//!
//! [`Json::render`] has one layout rule. The top-level object puts one key
//! on a line; a value that is a list of objects or an object of objects
//! puts one child on a line; everything else is written inline. So a row is
//! a line, and a changed cell is a one-line diff.

use std::fmt::Write as _;

/// A JSON value. Objects keep the order their fields were listed in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Fields in the order given.
    Object(Vec<(&'static str, Json)>),
    /// Elements in the order given.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// An integer.
    Int(u64),
    /// A simulated or counted float and the decimal places it is written
    /// with; `null` when it is not finite (JSON has no NaN or infinity).
    Float(f64, usize),
    /// A float read off the wall clock, written like [`Json::Float`].
    Wall(f64, usize),
}

impl Json {
    /// An object of `fields`, in that order.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(fields.into_iter().collect())
    }

    /// One [`Json`] per item, in order.
    pub fn array<T>(items: impl IntoIterator<Item = T>, json: impl FnMut(T) -> Json) -> Json {
        Json::Array(items.into_iter().map(json).collect())
    }

    /// The document: see the module's layout rule. Ends with a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// `depth` 0 is the document, whose children always break; 1 is a
    /// top-level value, whose children break when all are objects; deeper
    /// values are inline.
    fn write(&self, out: &mut String, depth: usize) {
        let children: Vec<(Option<&str>, &Json)> = match self {
            Json::Object(fields) => fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            Json::Array(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Str(s) => return write_string(s, out),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Float(x, places) | Json::Wall(x, places) if x.is_finite() => {
                let _ = write!(out, "{x:.places$}");
                return;
            }
            Json::Float(..) | Json::Wall(..) => return out.push_str("null"),
        };
        let all_objects = || children.iter().all(|(_, v)| matches!(v, Json::Object(_)));
        let breaks = depth == 0 || (depth == 1 && !children.is_empty() && all_objects());
        let (open, close) = match self {
            Json::Object(_) => ('{', '}'),
            _ => ('[', ']'),
        };
        out.push(open);
        for (i, (key, value)) in children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if breaks {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                let _ = write!(out, "\"{key}\": ");
            }
            value.write(out, depth + 1);
        }
        if breaks {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! json_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}
json_from_unsigned!(u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_and_maps_of_objects_break_per_child_and_the_rest_stays_inline() {
        let doc = Json::object([
            ("experiment", "demo \"quoted\"\\\n".into()),
            ("smoke", false.into()),
            ("asserts", Json::array(["a", "b"], Json::from)),
            ("totals", Json::object([("packets", 7u64.into())])),
            (
                "rows",
                Json::array([1u64, 2], |n| {
                    Json::object([
                        ("n", n.into()),
                        ("frac", Json::Float(n as f64 / 3.0, 3)),
                        ("wall_ms", Json::Wall(0.5, 2)),
                    ])
                }),
            ),
            (
                "signature",
                Json::object([
                    ("geom", Json::object([("ratio", Json::Float(f64::NAN, 3))])),
                    ("dtree", Json::object([])),
                ]),
            ),
            ("none", Json::Array(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            r#"{
  "experiment": "demo \"quoted\"\\\u000a",
  "smoke": false,
  "asserts": ["a", "b"],
  "totals": {"packets": 7},
  "rows": [
    {"n": 1, "frac": 0.333, "wall_ms": 0.50},
    {"n": 2, "frac": 0.667, "wall_ms": 0.50}
  ],
  "signature": {
    "geom": {"ratio": null},
    "dtree": {}
  },
  "none": []
}
"#
        );
    }
}
