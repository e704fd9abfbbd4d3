//! The one JSON writer of the harnesses' documents.
//!
//! A document is a [`Json`] value built with [`obj!`](crate::obj) and
//! written with [`Json::pretty`]: objects keep their insertion order, so a
//! document reads in the order it was built, and nothing can come out
//! unbalanced. The schema each document must meet (its id and required
//! keys) lives once, in `xtask`'s `BenchSpec`.

/// The CPUs this process may run on: every document records it as
/// `host_cores`, and a row run on more threads than this is
/// `oversubscribed`.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(i64),
    /// A float and its number of decimals (`From<f64>` gives six); a
    /// non-finite value prints as `0`.
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// An ordered JSON object: `obj! { "key" => value, ... }`, where each value
/// is anything [`Json`] converts from.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::report::Json::Obj(vec![
            $((String::from($key), $crate::report::Json::from($value))),*
        ])
    };
}

impl Json {
    /// Multi-line rendering with two-space indentation and a trailing
    /// newline. Containers that hold only scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(v, d) if v.is_finite() => out.push_str(&format!("{v:.d$}")),
            Json::Num(..) => out.push('0'),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_items(out, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_items(
                out,
                depth,
                ('{', '}'),
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Write a container's items: on one line (`[1, 2]`, `{ "a": 1 }`) when
/// it is nested and every item is a scalar, else one item per line at
/// `depth + 1`.
fn write_items<'a>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let inline = depth > 0 && items.clone().all(|(_, v)| v.is_scalar());
    let pad = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    let n = items.len();
    out.push(open);
    for (i, (key, value)) in items.enumerate() {
        if inline {
            // `{ "a": 1 }` but `[1, 2]`.
            if i > 0 || key.is_some() {
                out.push(' ');
            }
        } else {
            pad(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 && !inline {
        pad(out, depth);
    } else if n > 0 && open == '{' {
        out.push(' ');
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

from! {
    bool => |b| Json::Bool(b),
    f64 => |v| Json::Num(v, 6),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    u8 => |i| Json::Int(i.into()),
    u32 => |i| Json::Int(i.into()),
    i64 => |i| Json::Int(i),
    u64 => |i| Json::Int(i64::try_from(i).unwrap_or(i64::MAX)),
    usize => |i| Json::Int(i64::try_from(i).unwrap_or(i64::MAX)),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_print_like_the_harnesses_always_did() {
        assert_eq!(Json::from(0.5).pretty(), "0.500000\n");
        assert_eq!(Json::from(f64::INFINITY).pretty(), "0\n");
        assert_eq!(Json::from(f64::NAN).pretty(), "0\n");
        assert_eq!(Json::Num(1.0, 1).pretty(), "1.0\n");
        assert_eq!(Json::Num(17.23456, 3).pretty(), "17.235\n");
        assert_eq!(Json::from(42usize).pretty(), "42\n");
        assert_eq!(Json::from(u64::MAX).pretty(), format!("{}\n", i64::MAX));
    }

    #[test]
    fn documents_keep_their_order_and_nest() {
        let doc = obj! {
            "schema" => "pj2k.test.v1",
            "smoke" => true,
            "size" => vec![64usize, 64],
            "empty" => Vec::<Json>::new(),
            "row" => obj! { "p" => 2usize, "secs" => 0.25 },
            "rows" => vec![obj! { "p" => 1usize }, obj! { "q" => "a\"b" }],
        };
        let want = "{\n  \"schema\": \"pj2k.test.v1\",\n  \"smoke\": true,\n  \
                    \"size\": [64, 64],\n  \"empty\": [],\n  \
                    \"row\": { \"p\": 2, \"secs\": 0.250000 },\n  \"rows\": [\n    \
                    { \"p\": 1 },\n    { \"q\": \"a\\\"b\" }\n  ]\n}\n";
        assert_eq!(doc.pretty(), want);
        assert_eq!(obj! { "a" => 1usize }.pretty(), "{\n  \"a\": 1\n}\n");
    }
}
